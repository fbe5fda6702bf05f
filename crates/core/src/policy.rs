//! The staleness-policy machinery the [`Engine`](crate::engine::Engine)
//! serves under: the buffered-delta log with per-view cursors, the
//! needs-refresh bookkeeping, compaction and cap enforcement,
//! bounded-flush accounting, freshness tags, and the sliding demand and
//! update-rate windows the adaptive layer reads. The engine keeps the
//! epoch-store choreography (transactions, publishes, locks); everything
//! a [`StalenessPolicy`] *means* lives here.
//!
//! It also hosts the [`Clock`] abstraction behind wall-clock bounded
//! staleness (`StalenessPolicy::Bounded { max_lag_ms, .. }`): serving
//! paths ask an injected clock for the age of the oldest unflushed update
//! and repair/flush before serving anything older than the budget.
//! [`SystemClock`] is the production clock; [`ManualClock`] lets tests
//! drive time by hand.

use sofos_cost::UpdateRates;
use sofos_cube::ViewMask;
use sofos_maintain::RowDelta;
use sofos_rdf::{FxHashMap, FxHashSet};
use sofos_select::WorkloadProfile;
use sofos_store::{Delta, OpKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// A monotonic millisecond clock, injectable so wall-clock staleness
/// bounds are testable without sleeping.
///
/// Implementations must be monotonic (never go backwards); the origin is
/// arbitrary — only differences are ever computed.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Milliseconds since this clock's (arbitrary) origin.
    fn now_ms(&self) -> u64;
}

/// The production clock: monotonic milliseconds since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock anchored at "now".
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// A hand-driven clock for tests: time moves only when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    ms: AtomicU64,
}

impl ManualClock {
    /// A clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> ManualClock {
        ManualClock {
            ms: AtomicU64::new(start_ms),
        }
    }

    /// Advance time by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.ms.fetch_add(ms, Ordering::SeqCst);
    }

    /// Shared handle (clocks are injected as `Arc<dyn Clock>`).
    pub fn shared(start_ms: u64) -> Arc<ManualClock> {
        Arc::new(ManualClock::new(start_ms))
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.ms.load(Ordering::SeqCst)
    }
}

/// The default clock an engine uses unless one is injected.
pub fn system_clock() -> Arc<dyn Clock> {
    Arc::new(SystemClock::new())
}

// ---------------------------------------------------------------------------
// StalenessPolicy
// ---------------------------------------------------------------------------

/// When the engine repairs materialized views after updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessPolicy {
    /// Maintain every view inside the update call: queries always see
    /// fresh views; updates pay the full maintenance bill. The engine
    /// runs it as bounded staleness with a flush cadence of 1, which is
    /// what `bounded(1, 0)` does too.
    Eager,
    /// Buffer row deltas per view; a view is repaired only when the
    /// rewriter routes a query to it. Updates are cheap, the first hit on
    /// a stale view pays its backlog.
    LazyOnHit,
    /// The middle ground between eager and lazy: updates are coalesced
    /// and views maintained in *batched* flushes — every `max_batches`
    /// update batches — while reads are served from the standing state
    /// with a [`Freshness`] tag instead of waiting for repair. A read is
    /// never allowed to lag more than `max_epoch_lag` buffered batches
    /// behind the latest state — nor, when `max_lag_ms` is set, to serve
    /// state whose oldest unflushed update is older than that wall-clock
    /// budget (per the injected [`Clock`]): past either bound, the serve
    /// path flushes or repairs first.
    ///
    /// A delta counts as buffered only once its own update call returns
    /// without publishing it: the call that reaches the cadence publishes
    /// the buffered batches and its own delta as one epoch, and readers
    /// never wait on that in-flight delta. So `max_batches: 1` *is*
    /// eager: every update publishes itself and nothing is ever buffered.
    Bounded {
        /// Flush cadence: maintain and publish after this many buffered
        /// update batches. Minimum 1.
        max_batches: usize,
        /// Serve-side staleness ceiling, in epochs behind the latest
        /// state. 0 = always fresh at serve time.
        max_epoch_lag: u64,
        /// Serve-side wall-clock ceiling: no read is served from state
        /// whose oldest unflushed update is older than this many
        /// milliseconds. `None` disables the clock check (the batch and
        /// epoch bounds still apply).
        max_lag_ms: Option<u64>,
    },
}

impl StalenessPolicy {
    /// A bounded-staleness policy (see [`StalenessPolicy::Bounded`])
    /// without a wall-clock budget; `max_batches` is clamped to at
    /// least 1.
    pub fn bounded(max_batches: usize, max_epoch_lag: u64) -> StalenessPolicy {
        StalenessPolicy::Bounded {
            max_batches: max_batches.max(1),
            max_epoch_lag,
            max_lag_ms: None,
        }
    }

    /// A bounded-staleness policy with a wall-clock budget: reads are
    /// additionally never served from state older than `max_lag_ms`
    /// milliseconds (measured by the engine's [`Clock`]).
    pub fn bounded_ms(max_batches: usize, max_epoch_lag: u64, max_lag_ms: u64) -> StalenessPolicy {
        StalenessPolicy::Bounded {
            max_batches: max_batches.max(1),
            max_epoch_lag,
            max_lag_ms: Some(max_lag_ms),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StalenessPolicy::Eager => "eager",
            StalenessPolicy::LazyOnHit => "lazy-on-hit",
            StalenessPolicy::Bounded { .. } => "bounded",
        }
    }

    /// How many update batches a flush publishes together: 1 under
    /// eager, `max_batches` under bounded, `None` under lazy-on-hit (whose
    /// updates publish the base change and buffer row deltas per view).
    pub fn flush_cadence(self) -> Option<usize> {
        match self {
            StalenessPolicy::Eager => Some(1),
            StalenessPolicy::Bounded { max_batches, .. } => Some(max_batches.max(1)),
            StalenessPolicy::LazyOnHit => None,
        }
    }

    /// The bounded serve-side epoch-lag budget (`None` outside bounded).
    pub fn lag_budget(self) -> Option<u64> {
        match self {
            StalenessPolicy::Bounded { max_epoch_lag, .. } => Some(max_epoch_lag),
            _ => None,
        }
    }

    /// The bounded serve-side wall-clock budget, when set.
    pub fn lag_budget_ms(self) -> Option<u64> {
        match self {
            StalenessPolicy::Bounded { max_lag_ms, .. } => max_lag_ms,
            _ => None,
        }
    }

    /// Does serving at `lag` buffered batches, with the oldest of them
    /// `time_lag_ms` old, respect this policy's staleness budgets?
    /// Non-bounded policies serve the latest state and have no budget to
    /// respect.
    pub fn within_budget(self, lag: u64, time_lag_ms: u64) -> bool {
        match self {
            StalenessPolicy::Bounded {
                max_epoch_lag,
                max_lag_ms,
                ..
            } => lag <= max_epoch_lag && max_lag_ms.is_none_or(|budget| time_lag_ms <= budget),
            _ => true,
        }
    }
}

impl std::fmt::Display for StalenessPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessPolicy::Bounded {
                max_batches,
                max_epoch_lag,
                max_lag_ms,
            } => match max_lag_ms {
                Some(ms) => write!(f, "bounded({max_batches},{max_epoch_lag},{ms}ms)"),
                None => write!(f, "bounded({max_batches},{max_epoch_lag})"),
            },
            other => f.write_str(other.name()),
        }
    }
}

// ---------------------------------------------------------------------------
// Freshness
// ---------------------------------------------------------------------------

/// How fresh the state behind one answer was — the tag bounded-staleness
/// serving attaches instead of repairing before every read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Freshness {
    /// How far behind the latest known state the served state was:
    /// buffered update batches awaiting a flush (each becomes an epoch
    /// once published). 0 = fresh as of the serve instant.
    pub lag: u64,
    /// The epoch the answer was served at.
    pub epoch: u64,
}

impl Freshness {
    /// A fully-fresh tag as of `epoch`.
    pub fn fresh(epoch: u64) -> Freshness {
        Freshness { lag: 0, epoch }
    }

    /// True when the answer reflected the latest state.
    pub fn is_fresh(&self) -> bool {
        self.lag == 0
    }
}

impl std::fmt::Display for Freshness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_fresh() {
            write!(f, "fresh@{}", self.epoch)
        } else {
            write!(f, "lag {} @epoch {}", self.lag, self.epoch)
        }
    }
}

// ---------------------------------------------------------------------------
// PendingLog — the deferred-maintenance state machine
// ---------------------------------------------------------------------------

/// The buffered-delta log behind the lazy policy: one stamped
/// [`RowDelta`] per update batch (a single copy, shared by every view),
/// per-view cursors marking how far each view has consumed it, and the
/// needs-refresh set for views whose backlog is unusable (which a failed
/// maintenance pass fills under every policy).
///
/// *Stamps* are the epoch numbers that published each batch. The log
/// never interprets them beyond ordering.
#[derive(Debug, Default)]
pub struct PendingLog {
    /// `(stamp, rows)`, stamps ascending.
    entries: VecDeque<(u64, RowDelta)>,
    /// Per-view stamp: entries with `stamp <= cursor` are already applied
    /// to that view.
    cursor: FxHashMap<u64, u64>,
    /// Views whose buffered backlog is unusable (non-star facet or a
    /// failed maintenance pass): they need a full refresh on their next
    /// hit.
    needs_refresh: FxHashSet<u64>,
    /// The stamp a view with no cursor entry is assumed to have consumed
    /// (advances as compaction drops entries).
    floor: u64,
}

impl PendingLog {
    /// Ceiling on buffered batches. A view that is never routed to would
    /// otherwise pin the log forever; past the cap, views behind the
    /// dropped entries are downgraded to a full refresh on their next hit
    /// (which a view that stale would effectively need anyway).
    pub(crate) const CAP: usize = 64;

    /// Buffer one batch's row delta under `stamp`. Empty deltas are
    /// dropped. Callers must enforce the cap afterwards
    /// (via [`PendingLog::enforce_cap`]) once the current stamp is known.
    pub fn push(&mut self, stamp: u64, rows: RowDelta) {
        if rows.is_empty() {
            return;
        }
        debug_assert!(
            self.entries.back().is_none_or(|&(s, _)| s <= stamp),
            "pending-log stamps must be monotonic"
        );
        self.entries.push_back((stamp, rows));
    }

    /// Buffered entries not yet consumed by every view.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn cursor_of(&self, view: ViewMask) -> u64 {
        self.cursor.get(&view.0).copied().unwrap_or(self.floor)
    }

    /// Does `view` demand a full refresh?
    pub fn needs_refresh(&self, view: ViewMask) -> bool {
        self.needs_refresh.contains(&view.0)
    }

    /// Is `view` stale as of `stamp` (exclusive of later entries)?
    pub fn stale_at(&self, view: ViewMask, stamp: u64) -> bool {
        if self.needs_refresh(view) {
            return true;
        }
        let cursor = self.cursor_of(view);
        self.entries.iter().any(|&(s, _)| s > cursor && s <= stamp)
    }

    /// Merge the entries `view` has not applied yet; `None` when the view
    /// needs a full refresh instead.
    pub fn backlog(&self, view: ViewMask) -> Option<RowDelta> {
        if self.needs_refresh(view) {
            return None;
        }
        let cursor = self.cursor_of(view);
        let mut merged = RowDelta::default();
        for (stamp, rows) in &self.entries {
            if *stamp > cursor {
                merged.merge(rows);
            }
        }
        Some(merged)
    }

    /// Record that `view` consumed everything up to `stamp`. `ok = false`
    /// (a failed maintenance pass) downgrades the view to a full refresh
    /// on its next hit — the backlog is consumed either way, so a
    /// poisoned backlog cannot wedge the view in an error-retry loop
    /// while the log grows. Compacts afterwards against `views`.
    pub fn consume(&mut self, view: ViewMask, stamp: u64, ok: bool, views: &[(ViewMask, usize)]) {
        self.cursor.insert(view.0, stamp);
        if ok {
            self.needs_refresh.remove(&view.0);
        } else {
            self.needs_refresh.insert(view.0);
        }
        self.compact(views);
    }

    /// An unusable delta arrived (non-star facet): every view must fully
    /// refresh as of `stamp`; buffered rows are superseded.
    pub fn demand_refresh_all(&mut self, views: &[(ViewMask, usize)], stamp: u64) {
        for &(mask, _) in views {
            self.needs_refresh.insert(mask.0);
            self.cursor.insert(mask.0, stamp);
        }
        self.floor = self.floor.max(stamp);
        self.entries.clear();
    }

    /// Forget a view's maintenance state (it left the catalog).
    pub fn forget(&mut self, view: ViewMask) {
        self.cursor.remove(&view.0);
        self.needs_refresh.remove(&view.0);
    }

    /// Mark a freshly-materialized view as caught up as of `stamp`.
    pub fn mark_fresh(&mut self, view: ViewMask, stamp: u64) {
        self.cursor.insert(view.0, stamp);
        self.needs_refresh.remove(&view.0);
    }

    /// Drop entries every catalog view has consumed.
    pub fn compact(&mut self, views: &[(ViewMask, usize)]) {
        let consumed = views
            .iter()
            .map(|&(mask, _)| self.cursor_of(mask))
            .min()
            .unwrap_or(u64::MAX);
        while self
            .entries
            .front()
            .is_some_and(|&(stamp, _)| stamp <= consumed)
        {
            let (stamp, _) = self.entries.pop_front().expect("front checked");
            self.floor = self.floor.max(stamp);
        }
    }

    /// Keep the log bounded (at most `PendingLog::CAP` batches): past
    /// the cap, the laggiest views are downgraded to a full refresh as of
    /// `current_stamp` so the oldest entries can drop. Returns how many
    /// entries the cap evicted (for telemetry; compaction of
    /// fully-consumed entries is not counted).
    pub fn enforce_cap(&mut self, views: &[(ViewMask, usize)], current_stamp: u64) -> usize {
        let mut evicted = 0;
        while self.entries.len() > Self::CAP {
            let dropped = self
                .entries
                .front()
                .map(|&(stamp, _)| stamp)
                .expect("len > CAP");
            // Downgrade laggards *before* the floor advances past the
            // dropped stamp — a view with no explicit cursor defaults to
            // the floor, and must still read as "behind the drop".
            for &(mask, _) in views {
                if self.cursor_of(mask) < dropped {
                    self.needs_refresh.insert(mask.0);
                    self.cursor.insert(mask.0, current_stamp);
                }
            }
            self.entries.pop_front();
            self.floor = self.floor.max(dropped);
            evicted += 1;
        }
        self.compact(views);
        evicted
    }

    /// Views currently stale as of `stamp` (routing-time staleness count).
    pub fn stale_count(&self, views: &[(ViewMask, usize)], stamp: u64) -> usize {
        views
            .iter()
            .filter(|&&(mask, _)| self.stale_at(mask, stamp))
            .count()
    }
}

// ---------------------------------------------------------------------------
// FlushMeter — bounded-policy flush accounting
// ---------------------------------------------------------------------------

/// Buffered-update accounting for the bounded policy's *whole-state* lag:
/// one enqueue timestamp per buffered (not yet flushed/published) update
/// batch. The engine buffers whole deltas writer-side and this meter is
/// the readers' view of how far behind the published epoch is.
#[derive(Debug, Default)]
pub struct FlushMeter {
    enqueued_at_ms: VecDeque<u64>,
}

impl FlushMeter {
    /// Record one buffered batch, enqueued at `now_ms`; returns the new
    /// buffered count.
    pub fn enqueue(&mut self, now_ms: u64) -> usize {
        self.enqueued_at_ms.push_back(now_ms);
        self.enqueued_at_ms.len()
    }

    /// Batches currently buffered.
    pub fn buffered(&self) -> usize {
        self.enqueued_at_ms.len()
    }

    /// Wall-clock age (ms) of the oldest buffered batch; 0 when empty.
    pub fn time_lag_ms(&self, now_ms: u64) -> u64 {
        self.enqueued_at_ms
            .front()
            .map_or(0, |&at| now_ms.saturating_sub(at))
    }

    /// Drop the `n` oldest buffered entries (they were flushed).
    pub fn drain(&mut self, n: usize) {
        for _ in 0..n {
            self.enqueued_at_ms.pop_front();
        }
    }
}

// ---------------------------------------------------------------------------
// ProfileWindows — the adaptive layer's sliding observations
// ---------------------------------------------------------------------------

/// The sliding workload/update profile the engine feeds and the
/// adaptive layer ([`crate::adaptive::Reselector`]) reads: recently
/// demanded masks and per-batch insert/delete pressure.
#[derive(Debug, Default)]
pub struct ProfileWindows {
    /// Recently demanded masks (grouping ∪ filters of analyzable
    /// queries), newest at the back.
    recent_demands: VecDeque<ViewMask>,
    /// Per-batch `(inserted, deleted)` default-graph triple counts.
    recent_batches: VecDeque<(usize, usize)>,
}

impl ProfileWindows {
    /// How many recent query demands the sliding workload profile keeps.
    pub const DEMAND_WINDOW: usize = 64;

    /// How many recent update batches the rate estimate averages over.
    pub const RATE_WINDOW: usize = 16;

    /// Record one demanded mask into the sliding window.
    pub fn observe_demand(&mut self, required: ViewMask) {
        self.recent_demands.push_back(required);
        while self.recent_demands.len() > Self::DEMAND_WINDOW {
            self.recent_demands.pop_front();
        }
    }

    /// A batch's `(inserted, deleted)` op counts — what
    /// [`ProfileWindows::observe_batch`] records. Counted by the caller
    /// before it takes the serving lock, so the lock only pays O(1).
    pub fn batch_counts(delta: &Delta) -> (usize, usize) {
        let (mut inserted, mut deleted) = (0usize, 0usize);
        for op in delta.ops() {
            match op.kind {
                OpKind::Insert => inserted += 1,
                OpKind::Delete => deleted += 1,
            }
        }
        (inserted, deleted)
    }

    /// Record one update batch's default-graph insert/delete op counts
    /// ([`ProfileWindows::batch_counts`]).
    pub fn observe_batch(&mut self, inserted: usize, deleted: usize) {
        self.recent_batches.push_back((inserted, deleted));
        while self.recent_batches.len() > Self::RATE_WINDOW {
            self.recent_batches.pop_front();
        }
    }

    /// The sliding workload profile: demand frequencies over the last
    /// [`ProfileWindows::DEMAND_WINDOW`] analyzable queries.
    pub fn window_profile(&self) -> WorkloadProfile {
        WorkloadProfile::from_masks(self.recent_demands.iter().copied())
    }

    /// Observed update pressure, as *observation-level* operations per
    /// batch (triple-level counts divided by `star_width`, one triple per
    /// dimension plus the measure), averaged over the last
    /// [`ProfileWindows::RATE_WINDOW`] batches. Frozen when no batch
    /// arrived yet.
    pub fn observed_rates(&self, star_width: f64) -> UpdateRates {
        if self.recent_batches.is_empty() {
            return UpdateRates::FROZEN;
        }
        let batches = self.recent_batches.len() as f64;
        let (ins, del) = self
            .recent_batches
            .iter()
            .fold((0usize, 0usize), |(i, d), &(bi, bd)| (i + bi, d + bd));
        UpdateRates::new(
            ins as f64 / star_width / batches,
            del as f64 / star_width / batches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> RowDelta {
        let mut delta = RowDelta::default();
        delta.record(vec![sofos_rdf::TermId(n as u32)], sofos_rdf::TermId(0), n);
        delta
    }

    #[test]
    fn manual_clock_advances_by_hand() {
        let clock = ManualClock::new(10);
        assert_eq!(clock.now_ms(), 10);
        clock.advance(5);
        assert_eq!(clock.now_ms(), 15);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn bounded_policy_budgets() {
        let p = StalenessPolicy::bounded_ms(4, 2, 100);
        assert_eq!(p.flush_cadence(), Some(4));
        assert_eq!(p.lag_budget(), Some(2));
        assert_eq!(p.lag_budget_ms(), Some(100));
        assert!(p.within_budget(2, 100));
        assert!(!p.within_budget(3, 0), "epoch budget exceeded");
        assert!(!p.within_budget(0, 101), "clock budget exceeded");
        assert!(StalenessPolicy::Eager.within_budget(u64::MAX, u64::MAX));
        assert_eq!(StalenessPolicy::Eager.flush_cadence(), Some(1));
        assert_eq!(StalenessPolicy::LazyOnHit.flush_cadence(), None);
        assert_eq!(p.to_string(), "bounded(4,2,100ms)");
        assert_eq!(StalenessPolicy::bounded(2, 1).to_string(), "bounded(2,1)");
    }

    #[test]
    fn freshness_display() {
        let fresh = Freshness::fresh(5);
        assert_eq!(fresh.to_string(), "fresh@5");
        let stale = Freshness { lag: 2, epoch: 7 };
        assert_eq!(stale.to_string(), "lag 2 @epoch 7");
    }

    #[test]
    fn pending_log_cursors_and_compaction() {
        let a = ViewMask(1);
        let b = ViewMask(2);
        let views = vec![(a, 0usize), (b, 0usize)];
        let mut log = PendingLog::default();
        log.push(1, rows(1));
        log.push(2, rows(2));
        assert!(log.stale_at(a, 2));
        assert!(!log.stale_at(a, 0), "nothing newer than stamp 0");

        // A consumes everything; B still pins the log.
        log.consume(a, 2, true, &views);
        assert!(!log.stale_at(a, u64::MAX));
        assert_eq!(log.stale_count(&views, 2), 1, "only B is behind");
        assert_eq!(log.len(), 2, "B has not consumed");
        log.consume(b, 2, true, &views);
        assert!(log.is_empty(), "fully-consumed entries compact away");

        // New entries after compaction: the floor keeps staleness exact.
        log.push(3, rows(3));
        assert!(log.stale_at(a, 3));
        assert!(!log.stale_at(a, 2));
    }

    #[test]
    fn pending_log_refresh_paths() {
        let a = ViewMask(1);
        let views = vec![(a, 0usize)];
        let mut log = PendingLog::default();
        log.push(1, rows(1));
        log.demand_refresh_all(&views, 1);
        assert!(log.needs_refresh(a));
        assert!(log.stale_at(a, 0), "a refresh demand is stale at any stamp");
        assert!(log.backlog(a).is_none());
        assert!(log.is_empty(), "superseded entries dropped");

        // A failed pass keeps the refresh demand; a good one clears it.
        log.consume(a, 2, false, &views);
        assert!(log.needs_refresh(a));
        log.consume(a, 2, true, &views);
        assert!(!log.needs_refresh(a));
    }

    #[test]
    fn pending_log_cap_downgrades_laggards() {
        let a = ViewMask(1);
        let b = ViewMask(2);
        let views = vec![(a, 0usize), (b, 0usize)];
        let mut log = PendingLog::default();
        for stamp in 1..=(PendingLog::CAP as u64 + 4) {
            log.push(stamp, rows(stamp as i64));
            // A keeps up; B never consumes.
            log.consume(a, stamp, true, &views);
            log.enforce_cap(&views, stamp);
        }
        assert!(log.len() <= PendingLog::CAP);
        assert!(log.needs_refresh(b), "the laggard was downgraded");
        assert!(!log.needs_refresh(a));
    }

    #[test]
    fn flush_meter_tracks_age_and_cadence() {
        let mut meter = FlushMeter::default();
        assert_eq!(meter.time_lag_ms(100), 0);
        meter.enqueue(10);
        meter.enqueue(30);
        assert_eq!(meter.buffered(), 2);
        assert_eq!(meter.time_lag_ms(100), 90);
        meter.drain(1);
        assert_eq!(meter.time_lag_ms(100), 70, "next-oldest takes over");
        meter.drain(1);
        assert_eq!(meter.buffered(), 0);
        assert_eq!(meter.time_lag_ms(100), 0);
    }

    #[test]
    fn profile_windows_track_demand_rates_and_churn() {
        let mut windows = ProfileWindows::default();
        assert_eq!(windows.window_profile().total_weight(), 0.0);
        assert_eq!(windows.observed_rates(4.0), UpdateRates::FROZEN);
        windows.observe_demand(ViewMask(3));
        assert_eq!(windows.window_profile().total_weight(), 1.0);

        let mut delta = Delta::new();
        for i in 0..8 {
            delta.insert(
                sofos_rdf::Term::blank(format!("o{i}")),
                sofos_rdf::Term::iri("http://e/p"),
                sofos_rdf::Term::literal_int(i),
            );
        }
        let (inserted, deleted) = ProfileWindows::batch_counts(&delta);
        windows.observe_batch(inserted, deleted);
        let rates = windows.observed_rates(4.0);
        assert!((rates.inserts_per_round - 2.0).abs() < 1e-9);
    }
}
