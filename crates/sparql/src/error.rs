//! Error types for the SPARQL engine.

use std::fmt;

/// Errors raised while parsing, planning or evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// Lexical or grammatical error in the query text.
    Parse {
        /// Byte offset in the query string where the problem was detected.
        position: usize,
        /// Human-readable description.
        message: String,
    },
    /// The query is well-formed but not supported / not well-typed
    /// (e.g. a non-grouped variable projected next to an aggregate).
    Plan(String),
    /// A runtime evaluation failure (e.g. comparing incompatible values in
    /// ORDER BY is tolerated; this is for internal invariant breaches).
    Eval(String),
    /// The store could not make a write durable (an epoch-log append or
    /// fsync failed). Nothing was published and the store refuses every
    /// later write; reads keep answering the last published epoch.
    Storage(String),
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Parse { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            SparqlError::Plan(msg) => write!(f, "planning error: {msg}"),
            SparqlError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            SparqlError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for SparqlError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SparqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = SparqlError::Parse {
            position: 10,
            message: "unexpected '}'".into(),
        };
        assert_eq!(e.to_string(), "parse error at byte 10: unexpected '}'");
        assert!(SparqlError::Plan("x".into())
            .to_string()
            .contains("planning"));
        assert!(SparqlError::Eval("y".into())
            .to_string()
            .contains("evaluation"));
        assert!(SparqlError::Storage("z".into())
            .to_string()
            .contains("storage"));
    }
}
