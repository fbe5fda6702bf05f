//! RDF terms: IRIs, blank nodes, and the [`Term`] sum type.

use crate::error::RdfError;
use crate::literal::Literal;
use std::fmt;

/// An IRI (we accept any non-empty string free of whitespace and angle
/// brackets; full RFC 3987 validation is out of scope for a benchmarking
/// framework and would reject nothing the generators produce).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Box<str>);

impl Iri {
    /// Create a validated IRI.
    pub fn new(iri: impl Into<String>) -> Result<Iri, RdfError> {
        let iri = iri.into();
        if iri.is_empty()
            || iri
                .chars()
                .any(|c| c.is_whitespace() || c == '<' || c == '>' || c == '"')
        {
            return Err(RdfError::InvalidIri(iri));
        }
        Ok(Iri(iri.into_boxed_str()))
    }

    /// Create an IRI without validation. Intended for compile-time constants
    /// in [`crate::vocab`] and generator-produced IRIs that are valid by
    /// construction.
    pub fn new_unchecked(iri: impl Into<String>) -> Iri {
        Iri(iri.into().into_boxed_str())
    }

    /// The IRI text, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::ntriples::write_iri(self, f)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A blank node, identified by its label (scoped to a document/graph).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Box<str>);

impl BlankNode {
    /// Create a validated blank node; labels must be non-empty alphanumerics
    /// (plus `_`, `-`, `.` in non-leading positions).
    pub fn new(label: impl Into<String>) -> Result<BlankNode, RdfError> {
        let label = label.into();
        let mut chars = label.chars();
        let valid_head = chars
            .next()
            .map(|c| c.is_ascii_alphanumeric() || c == '_')
            .unwrap_or(false);
        let valid_tail =
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.');
        if !valid_head || !valid_tail {
            return Err(RdfError::InvalidBlankNode(label));
        }
        Ok(BlankNode(label.into_boxed_str()))
    }

    /// Create a blank node without validation (generator-internal labels).
    pub fn new_unchecked(label: impl Into<String>) -> BlankNode {
        BlankNode(label.into().into_boxed_str())
    }

    /// The label, without the `_:` prefix.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_:")?;
        f.write_str(&self.0)
    }
}

/// An RDF term: the union `I ∪ B ∪ L` from the paper's §3.
///
/// `Ord` is derived so that graphs and query results can be sorted into a
/// deterministic order (IRIs < blank nodes < literals, then lexicographic) —
/// determinism is load-bearing for the reproducibility of every experiment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI node (entities and predicates).
    Iri(Iri),
    /// A blank node (used by SOFOS to encode aggregate observations).
    Blank(BlankNode),
    /// A literal value (only allowed in object position).
    Literal(Literal),
}

impl Term {
    /// Convenience: IRI term from a string, unchecked.
    pub fn iri(iri: impl Into<String>) -> Term {
        Term::Iri(Iri::new_unchecked(iri))
    }

    /// Convenience: blank term from a label, unchecked.
    pub fn blank(label: impl Into<String>) -> Term {
        Term::Blank(BlankNode::new_unchecked(label))
    }

    /// Convenience: plain string literal term.
    pub fn literal_str(value: impl Into<String>) -> Term {
        Term::Literal(Literal::string(value))
    }

    /// Convenience: `xsd:integer` literal term.
    pub fn literal_int(value: i64) -> Term {
        Term::Literal(Literal::integer(value))
    }

    /// True for [`Term::Iri`].
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for [`Term::Blank`].
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// True for [`Term::Literal`].
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes, used by the storage-amplification
    /// accounting (§4 "space amplification").
    pub fn estimated_bytes(&self) -> usize {
        match self {
            Term::Iri(iri) => iri.as_str().len(),
            Term::Blank(b) => b.as_str().len(),
            Term::Literal(lit) => lit.estimated_bytes(),
        }
    }
}

impl fmt::Display for Term {
    /// The N-Triples form ([`crate::ntriples::write_term`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::ntriples::write_term(self, f)
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Term {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Term {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Term {
        Term::Literal(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_validation() {
        assert!(Iri::new("http://example.org/a").is_ok());
        assert!(Iri::new("").is_err());
        assert!(Iri::new("http://a b").is_err());
        assert!(Iri::new("http://a<b").is_err());
        assert!(Iri::new("urn:x\"y").is_err());
    }

    #[test]
    fn blank_validation() {
        assert!(BlankNode::new("b0").is_ok());
        assert!(BlankNode::new("_x").is_ok());
        assert!(BlankNode::new("a-b.c").is_ok());
        assert!(BlankNode::new("").is_err());
        assert!(BlankNode::new("-x").is_err());
        assert!(BlankNode::new("a b").is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
        assert_eq!(Term::literal_str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn kind_predicates_and_accessors() {
        let i = Term::iri("http://e/x");
        let b = Term::blank("z");
        let l = Term::literal_int(5);
        assert!(i.is_iri() && !i.is_blank() && !i.is_literal());
        assert!(b.is_blank());
        assert!(l.is_literal());
        assert_eq!(i.as_iri().unwrap().as_str(), "http://e/x");
        assert!(l.as_iri().is_none());
        assert!(l.as_literal().is_some());
    }

    #[test]
    fn ordering_groups_kinds() {
        let i = Term::iri("z");
        let b = Term::blank("a");
        let l = Term::literal_str("a");
        assert!(i < b, "IRIs sort before blanks");
        assert!(b < l, "blanks sort before literals");
    }

    #[test]
    fn byte_estimates_are_positive() {
        assert!(Term::iri("http://e/x").estimated_bytes() > 0);
        assert!(Term::literal_int(1).estimated_bytes() > 0);
    }
}
