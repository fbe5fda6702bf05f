//! Engine-level durability: a durable engine is bit-identical to an
//! in-memory twin while running, and a rebuild from its data dir
//! recovers exactly the published state — base graph, views, and
//! catalog — regardless of what dataset the new builder was handed.

use sofos_core::{run_offline, SizedLattice};
use sofos_core::{DurabilityConfig, Engine, EngineConfig, RecoveryReport, StalenessPolicy};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_rdf::Term;
use sofos_select::WorkloadProfile;
use sofos_store::{Dataset, Delta, EncodedTriple};
use sofos_workload::synthetic;
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
