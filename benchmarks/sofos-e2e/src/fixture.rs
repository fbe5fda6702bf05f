//! Set-up shared by the four workloads: dataset, query catalogue, view
//! selection and materialization, engine build.
//!
//! `--seed` drives the data, the pick sequences, the update stream and the
//! arrival times. The 40 query texts are the workload's *definition*, like
//! a fixed set of templates: they are generated once from
//! [`TEMPLATE_SEED`] over a small reference cube whose value universe is
//! the same at every seed, and index 0 is the hottest under the zipf pick.
//! Were the texts redrawn per seed, which query sits at the median of the
//! latency mixture would change with the seed and no percentile would
//! repeat across seeds.

use sofos_core::{
    run_offline, Backend, DurabilityConfig, Engine, EngineConfig, SizedLattice, StalenessPolicy,
};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_select::{Budget, WorkloadProfile};
use sofos_store::Dataset;
use sofos_workload::{generate_workload, synthetic};
use std::time::Instant;

/// Seed of the query catalogue and its reference cube (not of the data).
pub const TEMPLATE_SEED: u64 = 0x50F05;
/// Query texts in the catalogue.
pub const CATALOGUE_QUERIES: usize = 40;
/// Zipf exponent of the pick over the catalogue.
pub const PICK_SKEW: f64 = 0.8;
/// Every workload runs the epoch backend at the box's two cores.
pub const BACKEND: Backend = Backend::Epoch {
    shards: 2,
    threads: 2,
};
/// Client threads / lanes / server workers (`nproc` is 2).
pub const CLIENTS: usize = 2;

/// A dataset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub observations: usize,
    /// How many times one run sets up, to report the median set-up time.
    pub setup_reps: usize,
}

/// ≈1.0×10^5 triples.
pub const CUBE_100K: Scale = Scale {
    observations: 20_000,
    setup_reps: 3,
};
/// ≈5×10^5 triples. One set-up takes over six seconds here, so a run sets
/// up once; a measurement that long repeats well without a median.
pub const CUBE_500K: Scale = Scale {
    observations: 100_000,
    setup_reps: 1,
};
/// `--smoke`: plumbing only, numbers not comparable.
pub const CUBE_SMOKE: Scale = Scale {
    observations: 2_000,
    setup_reps: 1,
};

fn cube(observations: usize, seed: u64) -> synthetic::Config {
    synthetic::Config {
        observations,
        cardinalities: vec![40, 20, 10, 5],
        skew: 0.8,
        agg: AggOp::Avg,
        seed,
    }
}

/// The fixed query catalogue (SPARQL texts, hottest first).
pub fn catalogue() -> Vec<String> {
    let reference = synthetic::generate(&cube(CUBE_SMOKE.observations, TEMPLATE_SEED));
    generate_workload(
        &reference.dataset,
        reference.default_facet(),
        &sofos_workload::WorkloadConfig {
            num_queries: CATALOGUE_QUERIES,
            seed: TEMPLATE_SEED,
            ..sofos_workload::WorkloadConfig::default()
        },
    )
    .into_iter()
    .map(|q| q.text)
    .collect()
}

/// Picks per block of a pick sequence.
const PICK_BLOCK: usize = 200;

/// A deterministic pick sequence over the catalogue. Every block of
/// [`PICK_BLOCK`] picks holds each query in its exact zipf proportion
/// (largest remainders) and is shuffled by the seed: the *order* follows
/// the seed, the *mix* does not, so no window sees a heavier or lighter
/// mix than another by the luck of the draw.
pub fn picks(seed: u64, stream: u64, blocks: usize) -> Vec<u16> {
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
    let weights: Vec<f64> = (1..=CATALOGUE_QUERIES)
        .map(|rank| (rank as f64).powf(-PICK_SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| w / total * PICK_BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..CATALOGUE_QUERIES).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = PICK_BLOCK - counts.iter().sum::<usize>();
    for &query in by_remainder.iter().take(missing) {
        counts[query] += 1;
    }
    let block: Vec<u16> = counts
        .iter()
        .enumerate()
        .flat_map(|(query, &n)| std::iter::repeat_n(query as u16, n))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    let mut out = Vec::with_capacity(blocks * PICK_BLOCK);
    for _ in 0..blocks {
        let mut shuffled = block.clone();
        shuffled.shuffle(&mut rng);
        out.extend(shuffled);
    }
    out
}

/// Wall time of each set-up phase, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_us: u64,
    pub size_lattice_us: u64,
    pub training_us: u64,
    pub selection_us: u64,
    pub materialization_us: u64,
    pub build_us: u64,
    /// Server boot, 0 when the workload has no server.
    pub boot_us: u64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.generate_us
            + self.size_lattice_us
            + self.training_us
            + self.selection_us
            + self.materialization_us
            + self.build_us
            + self.boot_us) as f64
            / 1e6
    }
}

/// Everything set-up produces except the engine.
pub struct Fixture {
    pub facet: Facet,
    /// The base graph `G` (no views).
    pub base: Dataset,
    /// `G+`: base plus the materialized view graphs.
    pub expanded: Dataset,
    pub catalog: Vec<(ViewMask, usize)>,
    pub times: SetupTimes,
}

impl Fixture {
    /// Generate the cube, size its lattice, select and materialize views.
    /// `with_views == false` is the paper's no-view baseline: the lattice
    /// is still explored but the budget is zero views.
    pub fn build(scale: Scale, seed: u64, with_views: bool, queries: &[String]) -> Fixture {
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let generated = synthetic::generate(&cube(scale.observations, seed));
        times.generate_us = start.elapsed().as_micros() as u64;
        let facet = generated.default_facet().clone();
        let base = generated.dataset;

        let start = Instant::now();
        let sized = SizedLattice::compute(&base, &facet).expect("lattice sizes");
        times.size_lattice_us = start.elapsed().as_micros() as u64;

        let required = queries.iter().map(|text| {
            let query = sofos_sparql::parse_query(text).expect("catalogue query parses");
            sofos_rewrite::analyze_query(&facet, &query)
                .expect("catalogue query is in the facet's fragment")
                .required
        });
        let profile = WorkloadProfile::from_masks(required);
        let config = EngineConfig {
            budget: Budget::Views(if with_views { 4 } else { 0 }),
            ..EngineConfig::default()
        };
        let mut expanded = base.clone();
        let offline = run_offline(
            &mut expanded,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &config,
        )
        .expect("offline phase runs");
        times.training_us = offline.training_us;
        times.selection_us = offline.selection_us;
        times.materialization_us = offline.materialization_us;

        Fixture {
            facet,
            base,
            expanded,
            catalog: offline.view_catalog(),
            times,
        }
    }

    /// Build the serving engine over `G+`; records `build_us`.
    pub fn engine(&mut self, durability: Option<DurabilityConfig>) -> Engine {
        let start = Instant::now();
        let mut builder = Engine::builder()
            .dataset(self.expanded.clone())
            .facet(self.facet.clone())
            .catalog(self.catalog.clone())
            .staleness(StalenessPolicy::Eager)
            .backend(BACKEND);
        if let Some(config) = durability {
            builder = builder.durability(config);
        }
        let engine = builder.build().expect("engine builds");
        self.times.build_us = start.elapsed().as_micros() as u64;
        engine
    }

    pub fn view_rows_total(&self) -> usize {
        self.catalog.iter().map(|&(_, rows)| rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_the_same_at_every_call() {
        let a = catalogue();
        assert_eq!(a.len(), CATALOGUE_QUERIES);
        assert_eq!(a, catalogue());
    }

    #[test]
    fn picks_follow_the_seed_and_the_stream() {
        assert_eq!(picks(1, 0, 2), picks(1, 0, 2));
        assert_ne!(picks(1, 0, 2), picks(2, 0, 2));
        assert_ne!(picks(1, 0, 2), picks(1, 1, 2));
    }

    #[test]
    fn every_block_holds_the_same_zipf_mix() {
        let sequence = picks(7, 0, 3);
        assert_eq!(sequence.len(), 3 * PICK_BLOCK);
        let histogram = |block: &[u16]| {
            let mut counts = vec![0usize; CATALOGUE_QUERIES];
            for &p in block {
                counts[p as usize] += 1;
            }
            counts
        };
        let first = histogram(&sequence[..PICK_BLOCK]);
        assert!(first.iter().all(|&n| n > 0), "every query is picked");
        assert!(first.windows(2).all(|w| w[0] >= w[1]), "hottest first");
        for block in sequence.chunks(PICK_BLOCK) {
            assert_eq!(histogram(block), first);
        }
    }

    #[test]
    fn no_view_baseline_materializes_nothing() {
        let queries = catalogue();
        let fixture = Fixture::build(CUBE_SMOKE, 1, false, &queries);
        assert!(fixture.catalog.is_empty());
        assert_eq!(
            fixture.expanded.total_triples(),
            fixture.base.total_triples()
        );
        let with = Fixture::build(CUBE_SMOKE, 1, true, &queries);
        assert_eq!(with.catalog.len(), 4);
        assert!(with.expanded.total_triples() > with.base.total_triples());
    }
}
