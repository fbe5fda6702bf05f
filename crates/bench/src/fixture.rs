//! The serving experiments' shared subject: a seeded synthetic cube with
//! an offline-selected view catalog, ready to put behind an `Engine`.

use sofos_core::{
    run_offline, Backend, Engine, EngineBuilder, EngineConfig, SizedLattice, StalenessPolicy,
};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_select::WorkloadProfile;
use sofos_store::{Dataset, Delta};
use sofos_workload::{
    generate_update_stream, generate_workload, synthetic, GeneratedQuery, UpdateStreamConfig,
    WorkloadConfig,
};

/// The demand the offline phase selects views for.
#[derive(Debug, Clone, Copy)]
pub enum Demand {
    /// A generated workload of this many queries; its masks are the
    /// profile.
    Queries(usize),
    /// Every lattice view weighted equally; no workload is generated.
    Uniform,
}

/// The synthetic `[8, 5, 3]` cube (skew 0.8, `Avg` measure, so SUM,
/// COUNT and AVG are all derivable) with its lattice sized and views
/// selected offline — by `AggValues` unless [`Cube::select`] says
/// otherwise.
pub struct Cube {
    /// The generated graph, without views.
    pub base: Dataset,
    /// The cube's facet.
    pub facet: Facet,
    /// The generated workload (empty under [`Demand::Uniform`]).
    pub workload: Vec<GeneratedQuery>,
    /// `base` plus the selected views' triples.
    pub expanded: Dataset,
    /// The selected views and their row counts.
    pub catalog: Vec<(ViewMask, usize)>,
    sized: SizedLattice,
    profile: WorkloadProfile,
}

impl Cube {
    /// Generate the cube from `observations` and `seed`, then select
    /// views for `demand`.
    pub fn new(observations: usize, seed: u64, demand: Demand) -> Cube {
        let generated = synthetic::generate(&synthetic::Config {
            observations,
            cardinalities: vec![8, 5, 3],
            skew: 0.8,
            agg: AggOp::Avg,
            seed,
        });
        let facet = generated.default_facet().clone();
        let base = generated.dataset;
        let sized = SizedLattice::compute(&base, &facet).expect("lattice sizes");
        let (workload, profile) = match demand {
            Demand::Queries(num_queries) => {
                let config = WorkloadConfig {
                    num_queries,
                    ..WorkloadConfig::default()
                };
                let workload = generate_workload(&base, &facet, &config);
                let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
                (workload, profile)
            }
            Demand::Uniform => (Vec::new(), WorkloadProfile::uniform(&sized.lattice)),
        };
        let mut cube = Cube {
            expanded: base.clone(),
            catalog: Vec::new(),
            base,
            facet,
            workload,
            sized,
            profile,
        };
        cube.select(CostModelKind::AggValues);
        cube
    }

    /// Re-run the offline phase under `model`, replacing `expanded` and
    /// `catalog`.
    pub fn select(&mut self, model: CostModelKind) {
        let mut expanded = self.base.clone();
        let offline = run_offline(
            &mut expanded,
            &self.sized,
            &self.profile,
            model,
            &EngineConfig::default(),
        )
        .expect("offline phase runs");
        self.catalog = offline.view_catalog();
        self.expanded = expanded;
    }

    /// An engine builder over `expanded` and `catalog`.
    pub fn engine(&self, staleness: StalenessPolicy, backend: Backend) -> EngineBuilder {
        Engine::builder()
            .dataset(self.expanded.clone())
            .facet(self.facet.clone())
            .catalog(self.catalog.clone())
            .staleness(staleness)
            .backend(backend)
    }

    /// `rounds` zipf-skewed batches of `batch_size` ops (60/40
    /// insert/delete), drawn 16 at a time from streams seeded `seed`,
    /// `seed + 1`, … so inserts never degenerate into no-ops across
    /// cycles.
    pub fn cycled_updates(&self, batch_size: usize, rounds: usize, mut seed: u64) -> Vec<Delta> {
        let mut batches = Vec::with_capacity(rounds);
        while batches.len() < rounds {
            batches.extend(generate_update_stream(
                &self.base,
                &self.facet,
                &UpdateStreamConfig {
                    batches: 16.min(rounds - batches.len()),
                    batch_size,
                    insert_ratio: 0.6,
                    skew: 0.8,
                    seed,
                    ..UpdateStreamConfig::default()
                },
            ));
            seed += 1;
        }
        batches
    }
}
