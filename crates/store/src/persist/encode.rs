//! The compact binary encoding shared by the epoch log and snapshots.
//!
//! Everything on disk is built from three primitives — LEB128 varints,
//! length-prefixed UTF-8 strings, and tagged [`Term`]s — so the whole
//! format is self-describing given this module. Decoding is total: every
//! reader returns a [`DecodeError`] on malformed input and **never
//! panics**, because recovery feeds it torn and corrupted bytes on
//! purpose (see [`crate::persist::log`]).
//!
//! Term tags (one byte):
//!
//! | tag | kind | payload |
//! |-----|------|---------|
//! | 0 | IRI | string |
//! | 1 | blank node | label string |
//! | 2 | plain literal | lexical string |
//! | 3 | language-tagged literal | lexical string + tag string |
//! | 4 | typed literal | lexical string + datatype IRI string |
//!
//! Triples are three dictionary-id varints — the encoding is id-level,
//! like every in-memory index; term text lives only in the dictionary
//! section of a record or snapshot.

use crate::pattern::EncodedTriple;
use sofos_rdf::{Iri, Literal, LiteralKind, Term, TermId};

/// Why a decode failed. Recovery treats any of these at a log tail as a
/// torn record (truncate and stop); anywhere else they surface as
/// corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a value.
    UnexpectedEof,
    /// A varint ran past 10 bytes (not a canonical u64).
    VarintOverflow,
    /// A string payload was not UTF-8.
    BadUtf8,
    /// An unknown term tag byte.
    BadTag(u8),
    /// A record checksum did not match its payload.
    Checksum,
    /// A snapshot file did not start with the expected magic/version.
    BadMagic,
    /// A snapshot's dictionary repeats a term, so re-interning it would
    /// not give every term the id it was written under.
    DictMismatch {
        /// The id the repeated term was written under.
        expected: u64,
        /// The id re-interning gives it: its first copy's.
        found: u64,
    },
    /// A triple or graph name uses an id its dictionary does not hold.
    IdOutOfRange {
        /// The offending id.
        id: u64,
        /// The dictionary length.
        len: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => f.write_str("unexpected end of input"),
            DecodeError::VarintOverflow => f.write_str("varint overflows u64"),
            DecodeError::BadUtf8 => f.write_str("string is not UTF-8"),
            DecodeError::BadTag(tag) => write!(f, "unknown term tag {tag}"),
            DecodeError::Checksum => f.write_str("checksum mismatch"),
            DecodeError::BadMagic => f.write_str("bad magic or version"),
            DecodeError::DictMismatch { expected, found } => {
                write!(f, "dictionary term {expected} re-interns as id {found}")
            }
            DecodeError::IdOutOfRange { id, len } => {
                write!(f, "term id {id} is past the dictionary's {len} terms")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled; the workspace is
// registry-free by policy.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the per-record and per-snapshot checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer primitives
// ---------------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append one tagged term (see the module table).
pub fn put_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(0);
            put_str(out, iri.as_str());
        }
        Term::Blank(blank) => {
            out.push(1);
            put_str(out, blank.as_str());
        }
        Term::Literal(lit) => match lit.kind() {
            LiteralKind::Plain => {
                out.push(2);
                put_str(out, lit.lexical());
            }
            LiteralKind::Lang(lang) => {
                out.push(3);
                put_str(out, lit.lexical());
                put_str(out, lang);
            }
            LiteralKind::Typed(datatype) => {
                out.push(4);
                put_str(out, lit.lexical());
                put_str(out, datatype.as_str());
            }
        },
    }
}

/// Append one id-level triple (three varints).
pub fn put_triple(out: &mut Vec<u8>, triple: &EncodedTriple) {
    for id in triple {
        put_varint(out, id.0 as u64);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            value |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError::VarintOverflow)
    }

    /// A varint that must fit a `usize` count (alias for clarity).
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        // Counts beyond usize::MAX cannot describe in-memory data anyway;
        // an out-of-range value is corruption, not a platform concern.
        usize::try_from(self.varint()?).map_err(|_| DecodeError::VarintOverflow)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
    }

    /// One tagged term.
    pub fn term(&mut self) -> Result<Term, DecodeError> {
        match self.byte()? {
            0 => Ok(Term::iri(self.string()?)),
            1 => Ok(Term::blank(self.string()?)),
            2 => Ok(Term::literal_str(self.string()?)),
            3 => {
                let lexical = self.string()?;
                let lang = self.string()?;
                Ok(Term::Literal(Literal::lang_string(lexical, lang)))
            }
            4 => {
                let lexical = self.string()?;
                let datatype = self.string()?;
                Ok(Term::Literal(Literal::typed(
                    lexical,
                    Iri::new_unchecked(datatype),
                )))
            }
            tag => Err(DecodeError::BadTag(tag)),
        }
    }

    /// One id-level triple.
    pub fn triple(&mut self) -> Result<EncodedTriple, DecodeError> {
        let mut ids = [TermId(0); 3];
        for slot in &mut ids {
            let raw = self.varint()?;
            *slot = TermId(u32::try_from(raw).map_err(|_| DecodeError::VarintOverflow)?);
        }
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            let mut reader = Reader::new(&out);
            assert_eq!(reader.varint().unwrap(), value);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn term_round_trips_every_kind() {
        let terms = [
            Term::iri("http://example.org/thing"),
            Term::blank("b42"),
            Term::literal_str("plain"),
            Term::Literal(Literal::lang_string("hello", "en-GB")),
            Term::Literal(Literal::typed(
                "13",
                Iri::new_unchecked("http://www.w3.org/2001/XMLSchema#integer"),
            )),
            Term::literal_int(-7),
        ];
        for term in terms {
            let mut out = Vec::new();
            put_term(&mut out, &term);
            let decoded = Reader::new(&out).term().unwrap();
            assert_eq!(decoded, term);
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut out = Vec::new();
        put_term(&mut out, &Term::iri("http://example.org/long-enough"));
        for cut in 0..out.len() {
            let result = Reader::new(&out[..cut]).term();
            assert!(result.is_err(), "cut at {cut} must fail, got {result:?}");
        }
    }

    #[test]
    fn bad_tag_and_bad_utf8_error() {
        assert_eq!(Reader::new(&[9, 0]).term(), Err(DecodeError::BadTag(9)));
        // tag 0 (IRI) + length 2 + invalid UTF-8 bytes.
        assert_eq!(
            Reader::new(&[0, 2, 0xFF, 0xFE]).term(),
            Err(DecodeError::BadUtf8)
        );
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let eleven = [0x80u8; 11];
        assert_eq!(
            Reader::new(&eleven).varint(),
            Err(DecodeError::VarintOverflow)
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
