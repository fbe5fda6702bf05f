//! Property coverage for the persistence wire format: every value the
//! epoch log and snapshot files can carry round-trips bit-exactly, and
//! no corrupted or truncated input can panic a decoder — recovery reads
//! whatever a crash left on disk, so the decoders' total-function
//! contract is load-bearing, not cosmetic. Nor can a corrupted snapshot
//! or record load ids its dictionary does not hold: they would panic
//! the first query instead of the decoder.

use proptest::prelude::*;
use sofos_rdf::{Iri, Literal, Term, TermId};
use sofos_sparql::{
    Evaluator, GraphSpec, GroupPattern, PatternElement, PatternTerm, Query, TriplePattern,
};
use sofos_store::persist::encode::{put_term, put_triple, Reader};
use sofos_store::persist::log::{frame, scan, GraphOps, Record};
use sofos_store::persist::snapshot::{decode_snapshot, encode_snapshot, write_snapshot};
use sofos_store::persist::LOG_FILE;
use sofos_store::{Dataset, DurabilityConfig, EncodedTriple, Persister};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Every term kind the dictionary can hold, including typed literals and
/// blank labels — the full tag table of `persist::encode`.
fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z0-9/:#._-]{0,24}".prop_map(|s| Term::iri(format!("http://e/{s}"))),
        "[A-Za-z0-9]{1,16}".prop_map(Term::blank),
        "[ -~]{0,24}".prop_map(|s| Term::literal_str(&s)),
        ("[ -~]{0,16}", "[a-z]{2,8}")
            .prop_map(|(lex, lang)| Term::Literal(Literal::lang_string(lex, lang))),
        ("[ -~]{0,16}", "[a-z/:#.]{1,16}").prop_map(|(lex, dt)| {
            Term::Literal(Literal::typed(
                lex,
                Iri::new_unchecked(format!("http://t/{dt}")),
            ))
        }),
        (-1_000_000i64..1_000_000).prop_map(Term::literal_int),
    ]
}

fn triple_strategy() -> impl Strategy<Value = EncodedTriple> {
    (0u32..5000, 0u32..5000, 0u32..5000).prop_map(|(s, p, o)| [TermId(s), TermId(p), TermId(o)])
}

fn graph_ops_strategy() -> impl Strategy<Value = GraphOps> {
    (
        proptest::option::of(0u32..64),
        proptest::collection::vec(triple_strategy(), 0..12),
        proptest::collection::vec(triple_strategy(), 0..12),
    )
        .prop_map(|(graph, inserted, removed)| GraphOps {
            graph: graph.map(TermId),
            inserted,
            removed,
        })
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        0u64..1_000_000,
        0u64..100_000,
        proptest::collection::vec(term_strategy(), 0..10),
        proptest::option::of(proptest::collection::vec((0u64..256, 0u64..100_000), 0..6)),
        proptest::collection::vec(graph_ops_strategy(), 0..4),
    )
        .prop_map(|(epoch, dict_start, dict_tail, catalog, graphs)| Record {
            epoch,
            dict_start,
            dict_tail,
            catalog,
            graphs,
        })
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    /// Terms of every kind survive encode → decode bit-exactly.
    #[test]
    fn terms_round_trip(terms in proptest::collection::vec(term_strategy(), 1..20)) {
        let mut bytes = Vec::new();
        for term in &terms {
            put_term(&mut bytes, term);
        }
        let mut reader = Reader::new(&bytes);
        for term in &terms {
            prop_assert_eq!(&reader.term().expect("round trip decodes"), term);
        }
        prop_assert!(reader.is_empty());
    }

    /// Id-level triples round-trip through the varint encoding.
    #[test]
    fn triples_round_trip(triples in proptest::collection::vec(triple_strategy(), 1..30)) {
        let mut bytes = Vec::new();
        for triple in &triples {
            put_triple(&mut bytes, triple);
        }
        let mut reader = Reader::new(&bytes);
        for triple in &triples {
            prop_assert_eq!(&reader.triple().expect("round trip decodes"), triple);
        }
        prop_assert!(reader.is_empty());
    }

    /// Whole log records — dict tails, catalogs, per-graph op sets —
    /// round-trip through the framed payload codec.
    #[test]
    fn records_round_trip(record in record_strategy()) {
        let decoded = Record::decode_payload(&record.encode_payload())
            .expect("encoded record decodes");
        prop_assert_eq!(decoded, record);
    }

    /// A framed record stream scans back to exactly the records written.
    #[test]
    fn framed_streams_scan_back(records in proptest::collection::vec(record_strategy(), 1..6)) {
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&frame(&record.encode_payload()));
        }
        let result = scan(&bytes);
        prop_assert_eq!(result.valid_len, bytes.len() as u64);
        prop_assert_eq!(&result.records, &records);
    }

    // -----------------------------------------------------------------------
    // Hostile input: decoders error, never panic
    // -----------------------------------------------------------------------

    /// Truncating a record payload at any byte yields an error, not a
    /// panic or a silently-wrong record.
    #[test]
    fn truncated_record_errors(record in record_strategy(), fraction in 0.0f64..1.0) {
        let payload = record.encode_payload();
        let cut = ((payload.len() as f64) * fraction) as usize;
        if cut < payload.len() {
            prop_assert!(Record::decode_payload(&payload[..cut]).is_err());
        }
    }

    /// A single flipped byte anywhere in a framed stream never panics the
    /// scanner, and everything before the damaged frame still decodes.
    #[test]
    fn corrupted_streams_scan_a_clean_prefix(
        records in proptest::collection::vec(record_strategy(), 1..5),
        flip_at in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for record in &records {
            offsets.push(bytes.len());
            bytes.extend_from_slice(&frame(&record.encode_payload()));
        }
        let pos = ((bytes.len() as f64) * flip_at) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= flip_bits;
        let result = scan(&bytes);
        // The CRC stops the scan at (or before) the damaged frame; every
        // decoded record is one of the originals, in order.
        let damaged_frame = offsets.iter().filter(|&&o| o <= pos).count() - 1;
        prop_assert!(result.records.len() <= records.len());
        prop_assert!(
            result.records.len() <= damaged_frame + 1,
            "scan read past the damaged frame"
        );
        for (got, want) in result.records.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
    }

    /// Arbitrary byte soup never panics any decoder.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let _ = scan(&bytes);
        let _ = Record::decode_payload(&bytes);
        let _ = decode_snapshot(&bytes);
        let mut reader = Reader::new(&bytes);
        while reader.term().is_ok() {}
    }
}

// ---------------------------------------------------------------------------
// Hostile input: decoded ids resolve
// ---------------------------------------------------------------------------

/// A small dataset over `terms`: each `(s, p, o, named)` index triple
/// goes to the default graph or to the graph named by `terms[0]`.
fn small_dataset(terms: &[Term], triples: &[(usize, usize, usize, bool)]) -> Dataset {
    let mut ds = Dataset::new();
    let name = ds.intern(&terms[0]);
    for &(s, p, o, named) in triples {
        let [s, p, o] = [s, p, o].map(|i| &terms[i % terms.len()]);
        ds.insert(named.then_some(name), s, p, o);
    }
    ds
}

/// Every graph name and triple id of `ds` resolves, and a query over
/// each graph runs.
fn resolves_everywhere(ds: &Dataset) -> Result<(), TestCaseError> {
    let any = vec![TriplePattern::new(
        PatternTerm::var("s"),
        PatternTerm::var("p"),
        PatternTerm::var("o"),
    )];
    let mut graphs = vec![(None, GraphSpec::Default)];
    for name in ds.graph_names() {
        prop_assert!(ds.dict().term(name).is_ok(), "graph name {:?}", name);
        if let Term::Iri(iri) = ds.term(name) {
            graphs.push((Some(name), GraphSpec::Named(iri.clone())));
        }
    }
    for (name, graph) in graphs {
        for triple in ds.graph(name).into_iter().flat_map(|g| g.iter()) {
            for id in triple {
                prop_assert!(ds.dict().term(id).is_ok(), "id {:?} in {:?}", id, name);
            }
        }
        let pattern = GroupPattern {
            elements: vec![PatternElement::Triples {
                graph,
                patterns: any.clone(),
            }],
        };
        prop_assert!(Evaluator::new(ds)
            .evaluate(&Query::select_all(pattern))
            .is_ok());
    }
    Ok(())
}

fn flip(bytes: &mut [u8], at: f64, bits: u8) {
    let pos = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
    bytes[pos] ^= bits;
}

proptest! {
    /// A one-byte mutation of a valid snapshot payload decodes to a
    /// dataset whose every id resolves, or to an error.
    #[test]
    fn mutated_snapshots_resolve_or_error(
        terms in proptest::collection::vec(term_strategy(), 1..6),
        triples in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6, any::<bool>()), 0..16),
        at in 0.0f64..1.0,
        bits in 1u8..=255,
    ) {
        let mut payload = encode_snapshot(&small_dataset(&terms, &triples), 1, &[]);
        flip(&mut payload, at, bits);
        if let Ok(data) = decode_snapshot(&payload) {
            resolves_everywhere(&data.into_dataset())?;
        }
    }

    /// A one-byte mutation of a valid record payload, framed anew so its
    /// checksum holds, either replays to a dataset whose every id
    /// resolves or is not replayed.
    #[test]
    fn mutated_records_resolve_or_stop(
        terms in proptest::collection::vec(term_strategy(), 1..6),
        triples in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6, any::<bool>()), 0..16),
        tail in proptest::collection::vec(term_strategy(), 0..3),
        fresh in proptest::collection::vec((0usize..9, 0usize..9, 0usize..9, any::<bool>()), 1..6),
        at in 0.0f64..1.0,
        bits in 1u8..=255,
    ) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sofos-mutated-record-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir creates");
        let base = small_dataset(&terms, &triples);
        write_snapshot(&dir, &base, 1, &[], false).expect("snapshot writes");
        let dict_start = base.dict().len();
        let mut dict_tail: Vec<Term> = Vec::new();
        for term in tail {
            if base.dict().get_id(&term).is_none() && !dict_tail.contains(&term) {
                dict_tail.push(term);
            }
        }
        let len = (dict_start + dict_tail.len()) as u32;
        let name = TermId(0);
        let mut graphs = vec![GraphOps { graph: None, inserted: Vec::new(), removed: Vec::new() }];
        graphs.push(GraphOps { graph: Some(name), ..graphs[0].clone() });
        for (s, p, o, named) in fresh {
            let triple = [s, p, o].map(|i| TermId(i as u32 % len));
            graphs[usize::from(named)].inserted.push(triple);
        }
        let record = Record { epoch: 2, dict_start: dict_start as u64, dict_tail, catalog: None, graphs };
        let mut payload = record.encode_payload();
        flip(&mut payload, at, bits);
        fs::write(dir.join(LOG_FILE), frame(&payload)).expect("log writes");
        let (_, recovered) = Persister::open(DurabilityConfig::new(&dir).fsync(false))
            .expect("recovery opens");
        let result = resolves_everywhere(&recovered.expect("state exists").dataset);
        let _ = fs::remove_dir_all(&dir);
        result?;
    }
}
