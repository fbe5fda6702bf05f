//! Full-state snapshot files: recovery's starting point.
//!
//! A snapshot is one framed record (same `[len][crc][payload]` frame as
//! the epoch log) whose payload captures the complete dataset — the
//! whole dictionary in id order, the view catalog, and every graph's
//! triples — at one published epoch. Recovery loads the newest snapshot
//! that decodes, then replays epoch-log records with a higher epoch.
//!
//! Writes are crash-atomic: the bytes go to `snapshot-<epoch>.bin.tmp`,
//! which is fsync'd and then renamed into place (`snapshot-<epoch>.bin`),
//! with a best-effort directory fsync after the rename. A crash at any
//! point mid-snapshot leaves either a `.tmp` leftover (ignored by
//! recovery) or a complete file — never a half-written `snapshot-*.bin`
//! that recovery might trust. If the newest file is damaged anyway (disk
//! corruption), recovery falls back to the next-newest and replays a
//! longer log tail.
//!
//! Snapshot payload layout (after the `SFSN` magic + version byte):
//!
//! ```text
//! epoch
//! dict_len, term...             # the full dictionary, id order
//! catalog_len, (mask, rows)...
//! default_len, triple...
//! named_count
//! per named graph: name_id, len, triple...
//! ```

use super::encode::{put_varint, DecodeError, Reader};
use super::log::{frame, put_dictionary};
use crate::dataset::Dataset;
use crate::pattern::EncodedTriple;
use sofos_rdf::{FxHashMap, Term, TermId};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SFSN";
const VERSION: u8 = 1;

/// A decoded snapshot: the raw material [`super::Recovered`] is built from.
#[derive(Debug)]
pub struct SnapshotData {
    /// The epoch the dataset was captured at.
    pub epoch: u64,
    /// Every dictionary term, in id order.
    pub dict: Vec<Term>,
    /// The view catalog at capture time, as `(mask_bits, rows)`.
    pub catalog: Vec<(u64, u64)>,
    /// Default-graph triples.
    pub default_graph: Vec<EncodedTriple>,
    /// Named graphs: `(name id, triples)`, in name-id order.
    pub named: Vec<(TermId, Vec<EncodedTriple>)>,
}

impl SnapshotData {
    /// Rebuild a [`Dataset`] — re-interning the dictionary in id order
    /// reproduces the exact ids the triples were encoded under.
    pub fn into_dataset(self) -> Dataset {
        let mut dataset = Dataset::new();
        for term in &self.dict {
            dataset.intern(term);
        }
        dataset.load_encoded(None, self.default_graph);
        for (name, triples) in self.named {
            dataset.load_encoded(Some(name), triples);
        }
        dataset
    }
}

/// Encode the full dataset state as an (unframed) snapshot payload.
pub fn encode_snapshot(dataset: &Dataset, epoch: u64, catalog: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, epoch);
    put_dictionary(&mut out, dataset.dict());
    put_varint(&mut out, catalog.len() as u64);
    for &(mask, rows) in catalog {
        put_varint(&mut out, mask);
        put_varint(&mut out, rows);
    }
    let default: Vec<EncodedTriple> = dataset.default_graph().iter().collect();
    put_varint(&mut out, default.len() as u64);
    for triple in &default {
        super::encode::put_triple(&mut out, triple);
    }
    let names = dataset.graph_names();
    put_varint(&mut out, names.len() as u64);
    for name in names {
        put_varint(&mut out, name.0 as u64);
        let triples: Vec<EncodedTriple> = dataset
            .graph(Some(name))
            .map(|g| g.iter().collect())
            .unwrap_or_default();
        put_varint(&mut out, triples.len() as u64);
        for triple in &triples {
            super::encode::put_triple(&mut out, triple);
        }
    }
    out
}

/// Decode a snapshot payload. Never panics on malformed input, nor
/// returns ids that the rebuilt dataset would not resolve.
pub fn decode_snapshot(payload: &[u8]) -> Result<SnapshotData, DecodeError> {
    let mut r = Reader::new(payload);
    let mut magic = [0u8; 4];
    for byte in &mut magic {
        *byte = r.byte()?;
    }
    if &magic != MAGIC || r.byte()? != VERSION {
        return Err(DecodeError::BadMagic);
    }
    let epoch = r.varint()?;
    let dict_len = r.count()?;
    let mut dict = Vec::with_capacity(dict_len.min(1 << 20));
    for _ in 0..dict_len {
        dict.push(r.term()?);
    }
    let catalog_len = r.count()?;
    let mut catalog = Vec::with_capacity(catalog_len.min(1024));
    for _ in 0..catalog_len {
        let mask = r.varint()?;
        let rows = r.varint()?;
        catalog.push((mask, rows));
    }
    let default_len = r.count()?;
    let mut default_graph = Vec::with_capacity(default_len.min(1 << 20));
    for _ in 0..default_len {
        default_graph.push(r.triple()?);
    }
    let named_count = r.count()?;
    let mut named = Vec::with_capacity(named_count.min(1024));
    for _ in 0..named_count {
        let raw = r.varint()?;
        let name = TermId(u32::try_from(raw).map_err(|_| DecodeError::VarintOverflow)?);
        let len = r.count()?;
        let mut triples = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            triples.push(r.triple()?);
        }
        named.push((name, triples));
    }
    if !r.is_empty() {
        return Err(DecodeError::Checksum);
    }
    // Re-interning the dictionary must reproduce every id the triples use.
    let mut ids: FxHashMap<&Term, u64> = FxHashMap::default();
    for (id, term) in (0..).zip(&dict) {
        let found = *ids.entry(term).or_insert(id);
        if found != id {
            return Err(DecodeError::DictMismatch {
                expected: id,
                found,
            });
        }
    }
    let len = dict.len() as u64;
    let names = named.iter().map(|(name, _)| name);
    let triples = default_graph
        .iter()
        .chain(named.iter().flat_map(|(_, t)| t));
    if let Some(id) = names
        .chain(triples.flatten())
        .find(|id| u64::from(id.0) >= len)
    {
        return Err(DecodeError::IdOutOfRange {
            id: id.0.into(),
            len,
        });
    }
    Ok(SnapshotData {
        epoch,
        dict,
        catalog,
        default_graph,
        named,
    })
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch}.bin"))
}

/// Parse `snapshot-<epoch>.bin` back to its epoch; `None` for anything
/// else (including `.tmp` leftovers, which recovery must ignore).
fn snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// Write a snapshot crash-atomically. Returns its size in bytes.
pub fn write_snapshot(
    dir: &Path,
    dataset: &Dataset,
    epoch: u64,
    catalog: &[(u64, u64)],
    fsync: bool,
) -> io::Result<u64> {
    let bytes = frame(&encode_snapshot(dataset, epoch, catalog));
    let path = snapshot_path(dir, epoch);
    let tmp = path.with_extension("bin.tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    if fsync {
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, &path)?;
    if fsync {
        // Make the rename itself durable; failure here degrades to "the
        // snapshot may vanish on power loss", which recovery tolerates
        // by replaying a longer log tail — so best-effort only.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

/// Epochs of all complete snapshot files in `dir`, descending.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<u64>> {
    let mut epochs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = entry.file_name().to_str().and_then(snapshot_epoch) {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

/// Load the newest snapshot that decodes, skipping damaged ones.
pub fn load_newest(dir: &Path) -> io::Result<Option<SnapshotData>> {
    for epoch in list_snapshots(dir)? {
        let bytes = fs::read(snapshot_path(dir, epoch))?;
        // A snapshot is a single frame; reuse the log scanner for the
        // length/checksum handshake, then decode the payload.
        if bytes.len() < 8 {
            continue;
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(8..8 + len) else {
            continue;
        };
        if super::encode::crc32(payload) != crc {
            continue;
        }
        if let Ok(data) = decode_snapshot(payload) {
            return Ok(Some(data));
        }
    }
    Ok(None)
}

/// Delete all but the `keep` newest snapshots (and any stale `.tmp`s).
pub fn retain_newest(dir: &Path, keep: usize) -> io::Result<()> {
    for epoch in list_snapshots(dir)?.into_iter().skip(keep) {
        let _ = fs::remove_file(snapshot_path(dir, epoch));
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".bin.tmp"))
        {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert(
            None,
            &Term::iri("http://e/s"),
            &Term::iri("http://e/p"),
            &Term::literal_int(41),
        );
        let g = ds.intern_iri("http://e/view");
        let s = ds.intern(&Term::iri("http://e/s"));
        let p = ds.intern(&Term::iri("http://e/p"));
        ds.insert_encoded(Some(g), [s, p, s]);
        ds
    }

    fn fingerprint(ds: &Dataset) -> (Vec<EncodedTriple>, Vec<(TermId, Vec<EncodedTriple>)>) {
        (
            ds.default_graph().iter().collect(),
            ds.graph_names()
                .into_iter()
                .map(|n| (n, ds.graph(Some(n)).unwrap().iter().collect()))
                .collect(),
        )
    }

    #[test]
    fn snapshot_round_trips_dataset_bit_for_bit() {
        let ds = sample_dataset();
        let payload = encode_snapshot(&ds, 9, &[(5, 100)]);
        let data = decode_snapshot(&payload).unwrap();
        assert_eq!(data.epoch, 9);
        assert_eq!(data.catalog, vec![(5, 100)]);
        assert_eq!(data.dict.len(), ds.dict().len());
        let rebuilt = data.into_dataset();
        assert_eq!(fingerprint(&rebuilt), fingerprint(&ds));
        assert_eq!(rebuilt.dict().len(), ds.dict().len());
    }

    #[test]
    fn truncated_snapshot_errors_instead_of_panicking() {
        let ds = sample_dataset();
        let payload = encode_snapshot(&ds, 3, &[]);
        for cut in [0, 1, 4, 5, 6, payload.len() / 2, payload.len() - 1] {
            assert!(decode_snapshot(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut payload = encode_snapshot(&sample_dataset(), 1, &[]);
        payload[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&payload),
            Err(DecodeError::BadMagic)
        ));
    }
}
