//! Update inputs, all derived from `--seed`.
//!
//! `generate_update_stream` simulates its own effects, so a delete always
//! names an observation that is alive at that point *of the stream*. To
//! get batch sizes that cycle 1 / 16 / 256 out of one such stream, the
//! stream is generated in large batches, flattened into observation-level
//! operations in order, and cut again — the order, and so the validity of
//! every delete, is kept.

use crate::ops::Batch;
use sofos_cube::Facet;
use sofos_store::{Dataset, Delta, DeltaOp, OpKind};
use sofos_workload::{generate_update_stream, UpdateStreamConfig};

/// Batch sizes of `write_durable`, in observation-level operations: the
/// sparse and the dense maintenance plans both run.
pub const CYCLE: [usize; 3] = [1, 16, 256];
/// Batch size of the update probe and of HTTP updates.
pub const PROBE_BATCH: usize = 16;

const GENERATOR_BATCH: usize = 256;

fn stream_config(seed: u64, obs_ops: usize, insert_ratio: f64) -> UpdateStreamConfig {
    UpdateStreamConfig {
        batches: obs_ops.div_ceil(GENERATOR_BATCH),
        batch_size: GENERATOR_BATCH,
        insert_ratio,
        skew: 0.8,
        seed,
        ..UpdateStreamConfig::default()
    }
}

/// The stream as observation-level operations: each inner vector holds
/// the triple operations on one subject (an insert or a delete of a whole
/// observation).
fn observation_ops(
    base: &Dataset,
    facet: &Facet,
    seed: u64,
    obs_ops: usize,
    insert_ratio: f64,
) -> Vec<Vec<DeltaOp>> {
    let mut out: Vec<Vec<DeltaOp>> = Vec::with_capacity(obs_ops);
    for delta in generate_update_stream(base, facet, &stream_config(seed, obs_ops, insert_ratio)) {
        for op in delta.ops() {
            match out.last_mut() {
                Some(group) if group[0].triple[0] == op.triple[0] && group[0].kind == op.kind => {
                    group.push(op.clone())
                }
                _ => out.push(vec![op.clone()]),
            }
        }
    }
    out.truncate(obs_ops);
    out
}

fn delta_of(groups: impl Iterator<Item = Vec<DeltaOp>>) -> Delta {
    let mut delta = Delta::new();
    for op in groups.flatten() {
        let [s, p, o] = op.triple;
        match op.kind {
            OpKind::Insert => delta.insert(s, p, o),
            OpKind::Delete => delta.delete(s, p, o),
        };
    }
    delta
}

/// `count` batches whose sizes cycle through `sizes`; 70 % of the
/// observation-level operations insert, the rest delete.
pub fn batches(
    base: &Dataset,
    facet: &Facet,
    seed: u64,
    sizes: &[usize],
    count: usize,
) -> Vec<Batch> {
    let total: usize = (0..count).map(|i| sizes[i % sizes.len()]).sum();
    let mut ops = observation_ops(base, facet, seed, total, 0.7).into_iter();
    (0..count)
        .map(|i| {
            let size = sizes[i % sizes.len()];
            Batch::new(delta_of(ops.by_ref().take(size)), size)
        })
        .collect()
}

/// `count` insert-only N-Triples documents of [`PROBE_BATCH`] observations
/// each, the `/update` bodies of `http_open` (its plan wraps them as
/// `{"insert": …}`).
pub fn insert_docs(base: &Dataset, facet: &Facet, seed: u64, count: usize) -> Vec<String> {
    observation_ops(base, facet, seed, count * PROBE_BATCH, 1.0)
        .chunks(PROBE_BATCH)
        .map(|groups| {
            let mut doc = String::new();
            for op in groups.iter().flatten() {
                let [s, p, o] = &op.triple;
                doc.push_str(&format!("{s} {p} {o} .\n"));
            }
            doc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{catalogue, Fixture, CUBE_SMOKE};
    use crate::ops::{hash_delta, Fnv};

    fn stream_hash(seed: u64) -> (u64, Vec<usize>) {
        let fixture = Fixture::build(CUBE_SMOKE, seed, false, &catalogue());
        let batches = batches(&fixture.base, &fixture.facet, seed, &CYCLE, 6);
        let mut hash = Fnv::default();
        for b in &batches {
            hash_delta(&mut hash, &b.delta);
        }
        (hash.0, batches.iter().map(|b| b.obs_ops).collect())
    }

    #[test]
    fn same_seed_same_stream_and_sizes_cycle() {
        let (a, sizes) = stream_hash(3);
        assert_eq!(sizes, [1, 16, 256, 1, 16, 256]);
        assert_eq!(a, stream_hash(3).0);
        assert_ne!(a, stream_hash(4).0);
    }

    #[test]
    fn recut_stream_applies_without_noops() {
        let fixture = Fixture::build(CUBE_SMOKE, 5, false, &catalogue());
        let mut ds = fixture.base.clone();
        for batch in batches(&fixture.base, &fixture.facet, 5, &CYCLE, 9) {
            // 5 triples per observation: 4 dimensions and the measure.
            assert_eq!(batch.triples(), batch.obs_ops * 5);
            let changes = ds.apply(batch.delta);
            assert_eq!(changes.noops, 0, "every delete finds its target");
        }
    }

    #[test]
    fn docs_are_ntriples_the_server_parser_reads() {
        let fixture = Fixture::build(CUBE_SMOKE, 2, false, &catalogue());
        let docs = insert_docs(&fixture.base, &fixture.facet, 2, 3);
        assert_eq!(docs.len(), 3);
        for doc in &docs {
            let graph = sofos_rdf::parse_ntriples(doc).expect("parses");
            assert_eq!(graph.iter().count(), PROBE_BATCH * 5);
        }
    }
}
