//! Engine-level durability: a durable engine is bit-identical to an
//! in-memory twin while running, and a rebuild from its data dir
//! recovers exactly the published state — base graph, views, and
//! catalog — regardless of what dataset the new builder was handed.

use sofos_core::{results_equivalent, run_offline, SizedLattice};
use sofos_core::{DurabilityConfig, Engine, EngineConfig, RecoveryReport, StalenessPolicy};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_maintain::PipelineTelemetry;
use sofos_rdf::Term;
use sofos_select::WorkloadProfile;
use sofos_sparql::{Evaluator, QueryResults, SparqlError};
use sofos_store::{Dataset, Delta, EncodedTriple};
use sofos_workload::{generate_workload, synthetic, GeneratedQuery, WorkloadConfig};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

struct Setup {
    expanded: Dataset,
    facet: Facet,
    catalog: Vec<(ViewMask, usize)>,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let g = synthetic::generate(&synthetic::Config {
            observations: 60,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        let sized = SizedLattice::compute(&ds, &facet).expect("lattice sizes");
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut ds,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .expect("offline phase runs");
        Setup {
            catalog: offline.view_catalog(),
            expanded: ds,
            facet,
        }
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sofos-engine-durable-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// One synthetic observation star, reproducible from its batch index.
fn star_delta(batch: usize) -> Delta {
    use sofos_workload::synthetic::NS;
    let mut delta = Delta::new();
    for slot in 0..2usize {
        let node = Term::blank(format!("d{batch}_{slot}"));
        for d in 0..3usize {
            delta.insert(
                node.clone(),
                Term::iri(format!("{NS}dim{d}")),
                Term::iri(format!("{NS}v{d}_{}", (batch + slot + d) % 3)),
            );
        }
        delta.insert(
            node,
            Term::iri(format!("{NS}measure")),
            Term::literal_int(60 + (batch * 13 + slot) as i64),
        );
    }
    delta
}

/// Every graph's triples, id-encoded and sorted — the bit-equality
/// fingerprint across base graph AND materialized views.
fn fingerprint(dataset: &Dataset) -> Vec<(Option<u32>, Vec<EncodedTriple>)> {
    let mut graphs = vec![(None, dataset.default_graph().iter().collect::<Vec<_>>())];
    let mut names = dataset.graph_names();
    names.sort_by_key(|id| id.0);
    for name in names {
        let triples = dataset
            .graph(Some(name))
            .expect("named graph")
            .iter()
            .collect();
        graphs.push((Some(name.0), triples));
    }
    graphs
}

fn durable_builder(dir: &PathBuf) -> sofos_core::EngineBuilder {
    let s = setup();
    Engine::builder()
        .dataset(s.expanded.clone())
        .facet(s.facet.clone())
        .catalog(s.catalog.clone())
        .staleness(StalenessPolicy::Eager)
        .durability(DurabilityConfig::new(dir).fsync(false))
}

#[test]
fn durable_engine_matches_twin_and_recovers_bit_equal() {
    let s = setup();
    let dir = scratch_dir("twin");

    // Fresh dir: durability on, nothing to recover.
    let durable = durable_builder(&dir)
        .build()
        .expect("durable engine builds");
    assert!(durable.durability_enabled());
    assert!(durable.recovery().is_none(), "fresh dir recovers nothing");

    let memory = Engine::builder()
        .dataset(s.expanded.clone())
        .facet(s.facet.clone())
        .catalog(s.catalog.clone())
        .staleness(StalenessPolicy::Eager)
        .build()
        .expect("in-memory twin builds");
    assert!(!memory.durability_enabled());

    // Identical update streams; eager maintenance publishes each batch.
    for batch in 0..6 {
        durable.update(star_delta(batch)).expect("durable update");
        memory.update(star_delta(batch)).expect("memory update");
    }
    durable.flush().expect("durable flush");
    memory.flush().expect("memory flush");

    // Durability::None is behavior-preserving: live state is bit-equal.
    assert_eq!(durable.epoch(), memory.epoch());
    assert_eq!(durable.views(), memory.views());
    assert_eq!(
        fingerprint(&durable.snapshot()),
        fingerprint(&memory.snapshot())
    );

    let published_epoch = durable.epoch();
    drop(durable);

    // Rebuild from the data dir, handing the builder an EMPTY boot
    // dataset: the recovered state must win wholesale.
    let recovered = {
        let mut builder = durable_builder(&dir);
        builder = builder.dataset(Dataset::new()).catalog(Vec::new());
        builder.build().expect("recovery builds")
    };
    let report: &RecoveryReport = recovered.recovery().expect("recovery reported");
    assert_eq!(report.epoch, published_epoch);
    assert!(
        report.replayed_records > 0,
        "no snapshot cadence: log replays"
    );
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(
        report.rematerialized_views,
        s.catalog.len(),
        "replay rebuilds every cataloged view"
    );
    assert_eq!(recovered.epoch(), published_epoch);
    assert_eq!(recovered.views(), memory.views());
    assert_eq!(
        fingerprint(&recovered.snapshot()),
        fingerprint(&memory.snapshot()),
        "recovered state is bit-equal to the in-memory twin"
    );

    // The recovery baseline wrote a snapshot: a second rebuild replays
    // nothing and serves the views straight from the snapshot file.
    drop(recovered);
    let again = durable_builder(&dir)
        .build()
        .expect("second recovery builds");
    let report = again.recovery().expect("recovery reported");
    assert_eq!(report.epoch, published_epoch);
    assert_eq!(report.snapshot_epoch, published_epoch);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.rematerialized_views, 0, "snapshot views are exact");
    assert_eq!(
        fingerprint(&again.snapshot()),
        fingerprint(&memory.snapshot())
    );

    // And the recovered engine keeps serving writes durably.
    again.update(star_delta(99)).expect("post-recovery update");
    again.flush().expect("post-recovery flush");
    assert_eq!(again.epoch(), published_epoch + 1);

    drop(again);
    fs::remove_dir_all(&dir).ok();
}

fn workload() -> Vec<GeneratedQuery> {
    let s = setup();
    generate_workload(
        &s.expanded,
        &s.facet,
        &WorkloadConfig {
            num_queries: 8,
            ..WorkloadConfig::default()
        },
    )
}

/// Every query's engine answer, each checked against a base-graph
/// evaluation of the engine's current snapshot.
fn answers(engine: &Engine, queries: &[GeneratedQuery]) -> Vec<QueryResults> {
    queries
        .iter()
        .map(|q| {
            let answer = engine.query(&q.query).expect("queries keep answering");
            let base = Evaluator::new(&engine.snapshot())
                .evaluate(&q.query)
                .expect("base evaluation runs");
            assert!(
                results_equivalent(&answer.results, &base),
                "answer diverged from the base graph for {}",
                q.text
            );
            answer.results
        })
        .collect()
}

#[test]
fn failed_log_append_turns_the_engine_read_only() {
    let dir = scratch_dir("fail");
    let queries = workload();
    let engine = durable_builder(&dir)
        .build()
        .expect("durable engine builds");
    for batch in 0..3 {
        engine
            .update(star_delta(batch))
            .expect("acknowledged update");
    }
    let epoch = engine.epoch();
    let views = engine.views();
    let state = fingerprint(&engine.snapshot());
    let reads = answers(&engine, &queries);

    // The append fails half-way through its frame: a typed error, not a
    // panic, and nothing the batch did is visible.
    engine.fail_next_log_append();
    let err = engine
        .update(star_delta(3))
        .expect_err("an unlogged batch is not acknowledged");
    assert!(matches!(err, SparqlError::Storage(_)), "{err:?}");
    assert_eq!(engine.epoch(), epoch);
    assert_eq!(engine.views(), views);
    assert_eq!(fingerprint(&engine.snapshot()), state);
    let after = answers(&engine, &queries);
    for (before, after) in reads.iter().zip(&after) {
        assert!(results_equivalent(before, after), "reads moved");
    }

    // Read-only from here: the next write is refused without an append,
    // and so is a catalog swap.
    let err = engine
        .update(star_delta(4))
        .expect_err("a read-only engine refuses writes");
    assert!(matches!(err, SparqlError::Storage(_)), "{err:?}");
    let masks: Vec<ViewMask> = views.iter().map(|(m, _)| *m).collect();
    assert!(matches!(
        engine.swap_views(&masks[..1]),
        Err(SparqlError::Storage(_))
    ));
    assert_eq!(engine.epoch(), epoch);
    assert_eq!(engine.views(), views);
    assert_eq!(fingerprint(&engine.snapshot()), state);
    drop(engine);

    // The torn half-frame is truncated; recovery lands on exactly the
    // acknowledged batches, and the rebuilt engine takes writes again.
    let recovered = durable_builder(&dir).build().expect("recovery builds");
    let report = recovered.recovery().expect("recovery reported");
    assert!(report.truncated_bytes > 0, "the torn append is cut off");
    assert_eq!(report.epoch, epoch);
    assert_eq!(recovered.views(), views);
    assert_eq!(fingerprint(&recovered.snapshot()), state);
    recovered
        .update(star_delta(3))
        .expect("the rebuilt engine is writable");
    assert_eq!(recovered.epoch(), epoch + 1);

    drop(recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn named_graph_writes_are_refused_and_recovery_is_exact() {
    use sofos_workload::synthetic::NS;
    let dir = scratch_dir("named");
    let engine = durable_builder(&dir)
        .build()
        .expect("durable engine builds");
    // A logged batch leaves a tail, so recovery replays it and rebuilds
    // every view after dropping the snapshot's named graphs.
    engine.update(star_delta(0)).expect("acknowledged update");
    let epoch = engine.epoch();
    let batches = engine.update_batches();
    let state = fingerprint(&engine.snapshot());

    // Named graphs hold the views: a write there is refused whole, its
    // default-graph ops included, and nothing of it is applied or logged.
    let side = Term::iri(format!("{NS}side"));
    let (node, measure) = (Term::blank("n0"), Term::iri(format!("{NS}measure")));
    let mut named = Delta::new();
    named.insert_into(
        side.clone(),
        node.clone(),
        measure.clone(),
        Term::literal_int(1),
    );
    let mut mixed = star_delta(1);
    mixed.delete_from(side, node, measure, Term::literal_int(1));
    for delta in [named, mixed] {
        let err = engine
            .update(delta)
            .expect_err("named-graph writes are refused");
        assert!(matches!(err, SparqlError::Plan(_)), "{err:?}");
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.update_batches(), batches);
        assert_eq!(fingerprint(&engine.snapshot()), state);
    }
    drop(engine);

    let recovered = durable_builder(&dir).build().expect("recovery builds");
    let report = recovered.recovery().expect("recovery reported");
    assert!(report.replayed_records > 0, "the tail replays");
    assert_eq!(report.epoch, epoch);
    assert_eq!(recovered.epoch(), epoch);
    assert_eq!(
        fingerprint(&recovered.snapshot()),
        state,
        "recovery lands on exactly the acknowledged state"
    );
    drop(recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_only_engine_keeps_serving_under_deferred_policies() {
    let queries = workload();
    for policy in [StalenessPolicy::LazyOnHit, StalenessPolicy::bounded(3, 1)] {
        let dir = scratch_dir("fail-deferred");
        let engine = durable_builder(&dir)
            .staleness(policy)
            .build()
            .expect("durable engine builds");
        // Lazy: two published batches leave every view stale. Bounded:
        // two buffered batches put reads over the one-batch lag budget.
        engine.update(star_delta(0)).expect("first update");
        engine.update(star_delta(1)).expect("second update");
        let epoch = engine.epoch();
        engine.fail_next_log_append();
        // The first read's repair or budget flush hits the failed append;
        // reads answer from the last published epoch regardless (a stale
        // view falls back to the base graph, dropped batches leave the
        // lag).
        answers(&engine, &queries);
        assert_eq!(engine.epoch(), epoch, "{policy}: nothing published");
        // Refused up front: a read already consumed the injected failure.
        let refusal = engine.update(star_delta(2)).expect_err("read-only");
        assert!(
            matches!(&refusal, SparqlError::Storage(why) if why.contains("read-only")),
            "{policy}: {refusal:?}"
        );
        assert!(matches!(engine.flush(), Err(SparqlError::Storage(_))));
        assert_eq!(engine.buffered_updates(), 0, "{policy}: meter drained");
        answers(&engine, &queries);
        assert_eq!(engine.epoch(), epoch);
        drop(engine);
        fs::remove_dir_all(&dir).ok();
    }
}

/// What a maintenance pass leaves behind once its epoch is logged: the
/// maintenance log (total µs, per-view entries), the writer's pipeline
/// telemetry and the `sofos_pipeline_*_us_total` counters.
fn maintenance_record(engine: &Engine) -> (u64, usize, PipelineTelemetry, [u64; 2]) {
    let log = engine.maintenance();
    let snapshot = engine.metrics().snapshot();
    let counters = ["serial", "parallel_work"].map(|part| {
        let name = format!("sofos_pipeline_{part}_us_total");
        let value = snapshot.counter_value(&name, &[("backend", "epoch")]);
        value.expect("registered at build")
    });
    let telemetry = engine
        .pipeline_telemetry()
        .expect("the epoch engine reports it");
    (log.total_us, log.per_view.len(), telemetry, counters)
}

#[test]
fn a_pass_whose_append_fails_is_not_recorded() {
    let queries = workload();
    let cases = [
        ("eager update", StalenessPolicy::Eager),
        ("bounded flush", StalenessPolicy::bounded(2, 8)),
        ("lazy repair", StalenessPolicy::LazyOnHit),
    ];
    for (case, policy) in cases {
        let dir = scratch_dir("fail-record");
        let engine = durable_builder(&dir)
            .staleness(policy)
            .build()
            .expect("durable engine builds");
        // One published pass first, so the record has moved once.
        engine.update(star_delta(0)).expect("first update");
        engine.update(star_delta(1)).expect("second update");
        if policy == StalenessPolicy::LazyOnHit {
            answers(&engine, &queries);
            engine.update(star_delta(2)).expect("third update");
            assert!(engine.stale_views() > 0, "{case}: a repair is due");
        }
        let published = engine.maintenance().per_view.len();
        assert!(published > 0, "{case}: the first pass is logged");
        let before = maintenance_record(&engine);
        let epoch = engine.epoch();

        engine.fail_next_log_append();
        match policy {
            StalenessPolicy::Eager => {
                let err = engine.update(star_delta(3)).expect_err("unlogged");
                assert!(matches!(err, SparqlError::Storage(_)), "{err:?}");
            }
            StalenessPolicy::Bounded { .. } => {
                engine.update(star_delta(3)).expect("buffered, no flush");
                let err = engine.update(star_delta(4)).expect_err("the flush fails");
                assert!(matches!(err, SparqlError::Storage(_)), "{err:?}");
            }
            _ => {
                // The first hit on a stale view repairs it, fails to log
                // and falls back to the base graph: the store is
                // read-only after the reads, so a repair consumed the
                // injected failure.
                answers(&engine, &queries);
                let refusal = engine.update(star_delta(3)).expect_err("read-only");
                assert!(
                    matches!(&refusal, SparqlError::Storage(why) if why.contains("read-only")),
                    "{case}: {refusal:?}"
                );
            }
        }
        assert_eq!(engine.epoch(), epoch, "{case}: nothing published");
        assert_eq!(maintenance_record(&engine), before, "{case}");
        drop(engine);
        fs::remove_dir_all(&dir).ok();
    }
}
