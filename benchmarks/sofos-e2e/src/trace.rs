//! A std-only span recorder, used from *outside* the crates under test.
//!
//! Each worker thread owns one [`Recorder`]; a span is
//! `{id, parent, request, name, start_ns, end_ns}` pushed to that
//! thread's `Vec` when it closes. Nothing is shared while the pass runs;
//! [`write_trace`] merges the per-thread vectors when it ends. A disabled
//! recorder costs one branch per span, so the untraced window and the
//! traced pass run the same op code.

use sofos_telemetry::Json;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The op this span belongs to; all spans of one op share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span sink. Span ids are `(thread << 40) | counter`, unique
/// across the threads of one pass without any synchronisation.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    next: u64,
    stack: Vec<u64>,
    request: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing (the untraced window).
    pub fn disabled() -> Recorder {
        Recorder::new(false, Instant::now(), 0)
    }

    /// A recording recorder for worker `thread`; `epoch` is shared by all
    /// threads of the pass so their timestamps are comparable.
    pub fn enabled(epoch: Instant, thread: u64) -> Recorder {
        Recorder::new(true, epoch, thread)
    }

    fn new(enabled: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            id_base: (thread + 1) << 40,
            next: 0,
            stack: Vec::new(),
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Tag every span opened from now on with op id `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.next += 1;
        let id = self.id_base | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span from timestamps taken elsewhere (the HTTP lanes time
    /// socket phases themselves so the untraced path has no closures).
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = self.id_base | self.next;
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may run on other threads and overlap
/// each other, so their intervals are clipped to the parent and merged
/// before subtracting.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` inside `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Per request id, the summed duration of spans called `name`.
pub fn by_request_ns(spans: &[Span], name: &str) -> HashMap<u64, u64> {
    let mut out: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_default() += s.duration_ns();
    }
    out
}

/// Write the spans of one pass as `{"workload":…, "spans":[…]}`.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    out.push_str("{\"workload\":");
    Json::from(workload).write(&mut out);
    out.push_str(",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100 ⊃ mid 10..60 ⊃ leaf 20..30
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 50, "root loses only its direct child");
        assert_eq!(own[&2], 40);
        assert_eq!(own[&3], 10);
    }

    #[test]
    fn siblings_sum() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)];
        assert_eq!(self_times_ns(&spans)[&1], 40);
    }

    #[test]
    fn overlapping_children_from_other_threads_count_their_union() {
        // Two workers overlap on 40..60, and one overruns the parent.
        let spans = [span(1, 0, 0, 100), span(2, 1, 20, 60), span(3, 1, 40, 120)];
        assert_eq!(self_times_ns(&spans)[&1], 20, "covered 20..100");
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = Recorder::enabled(Instant::now(), 0);
        rec.set_request(7);
        rec.span("op", |rec| {
            rec.span("a", |_| ());
            rec.span("b", |_| ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(op.parent, 0);
        for child in spans.iter().filter(|s| s.name != "op") {
            assert_eq!(child.parent, op.id);
            assert_eq!(child.request, 7);
            assert!(child.start_ns >= op.start_ns && child.end_ns <= op.end_ns);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("op", |_| 5), 5);
        assert_eq!(rec.record("x", 0, 1, 2), 0);
        assert!(rec.into_spans().is_empty());
    }
}
