//! Typed RDF literals and the numeric tower used by SPARQL evaluation.

use crate::decimal::Decimal;
use crate::term::Iri;
use crate::vocab::xsd;
use std::cmp::Ordering;
use std::fmt;

/// How a literal is typed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LiteralKind {
    /// A plain literal; semantically identical to `xsd:string`.
    Plain,
    /// A language-tagged string (`"foo"@en`). The tag is stored lowercase.
    Lang(Box<str>),
    /// A literal with an explicit datatype IRI (`"5"^^xsd:integer`).
    Typed(Iri),
}

/// An RDF literal: a lexical form plus a [`LiteralKind`].
///
/// Equality and hashing are *term* equality (lexical + datatype), matching
/// RDF semantics: `"1"^^xsd:integer` and `"01"^^xsd:integer` are different
/// terms even though they compare numerically equal in SPARQL `FILTER`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Box<str>,
    kind: LiteralKind,
}

/// A numeric literal value in the SPARQL promotion tower
/// (integer < decimal < double).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Numeric {
    /// `xsd:integer`.
    Integer(i64),
    /// `xsd:decimal` (exact).
    Decimal(Decimal),
    /// `xsd:double`.
    Double(f64),
}

impl Literal {
    /// A plain string literal.
    pub fn string(value: impl Into<String>) -> Literal {
        Literal {
            lexical: value.into().into_boxed_str(),
            kind: LiteralKind::Plain,
        }
    }

    /// A language-tagged string; the tag is normalized to lowercase.
    pub fn lang_string(value: impl Into<String>, lang: impl Into<String>) -> Literal {
        Literal {
            lexical: value.into().into_boxed_str(),
            kind: LiteralKind::Lang(lang.into().to_ascii_lowercase().into_boxed_str()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Literal {
        Literal {
            lexical: value.to_string().into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::INTEGER)),
        }
    }

    /// An `xsd:decimal` literal in canonical form.
    pub fn decimal(value: Decimal) -> Literal {
        Literal {
            lexical: value.to_string().into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::DECIMAL)),
        }
    }

    /// An `xsd:double` literal (canonical Rust float formatting).
    pub fn double(value: f64) -> Literal {
        Literal {
            lexical: value.to_string().into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::DOUBLE)),
        }
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Literal {
        Literal {
            lexical: value.to_string().into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::BOOLEAN)),
        }
    }

    /// An `xsd:gYear` literal, as used for the `year` dimension in facets.
    pub fn year(value: i32) -> Literal {
        Literal {
            lexical: value.to_string().into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::G_YEAR)),
        }
    }

    /// An `xsd:dateTime` literal from components (no timezone). Lexical form
    /// `YYYY-MM-DDThh:mm:ss`, which orders correctly as a string.
    pub fn date_time(y: i32, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Literal {
        Literal {
            lexical: format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}").into_boxed_str(),
            kind: LiteralKind::Typed(Iri::new_unchecked(xsd::DATE_TIME)),
        }
    }

    /// An arbitrary typed literal (no lexical validation; use the dedicated
    /// constructors when the datatype is known).
    pub fn typed(value: impl Into<String>, datatype: Iri) -> Literal {
        Literal {
            lexical: value.into().into_boxed_str(),
            kind: LiteralKind::Typed(datatype),
        }
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The literal kind.
    pub fn kind(&self) -> &LiteralKind {
        &self.kind
    }

    /// The language tag, if any.
    pub fn language(&self) -> Option<&str> {
        match &self.kind {
            LiteralKind::Lang(tag) => Some(tag),
            _ => None,
        }
    }

    /// The effective datatype IRI as a string (`xsd:string` for plain
    /// literals, `rdf:langString` for tagged ones).
    pub fn datatype_str(&self) -> &str {
        match &self.kind {
            LiteralKind::Plain => xsd::STRING,
            LiteralKind::Lang(_) => xsd::LANG_STRING,
            LiteralKind::Typed(iri) => iri.as_str(),
        }
    }

    /// Interpret the literal as a number, if its datatype is numeric and its
    /// lexical form parses. Integers out of `i64` range fall back to double.
    pub fn numeric(&self) -> Option<Numeric> {
        match self.datatype_str() {
            xsd::INTEGER | xsd::G_YEAR => match self.lexical.parse::<i64>() {
                Ok(v) => Some(Numeric::Integer(v)),
                Err(_) => self.lexical.parse::<f64>().ok().map(Numeric::Double),
            },
            xsd::DECIMAL => self.lexical.parse::<Decimal>().ok().map(Numeric::Decimal),
            xsd::DOUBLE => self.lexical.parse::<f64>().ok().map(Numeric::Double),
            _ => None,
        }
    }

    /// Interpret the literal as a boolean (`xsd:boolean` only).
    pub fn as_bool(&self) -> Option<bool> {
        if self.datatype_str() == xsd::BOOLEAN {
            match &*self.lexical {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            }
        } else {
            None
        }
    }

    /// For `xsd:dateTime`/`xsd:gYear` literals: `(year, month, day)` parts
    /// (month/day are 0 for gYear).
    pub fn date_parts(&self) -> Option<(i32, u32, u32)> {
        match self.datatype_str() {
            xsd::G_YEAR => self.lexical.parse::<i32>().ok().map(|y| (y, 0, 0)),
            xsd::DATE_TIME => {
                let b = self.lexical.as_bytes();
                if b.len() < 10 || b[4] != b'-' || b[7] != b'-' {
                    return None;
                }
                let y = self.lexical.get(0..4)?.parse().ok()?;
                let m = self.lexical.get(5..7)?.parse().ok()?;
                let d = self.lexical.get(8..10)?.parse().ok()?;
                Some((y, m, d))
            }
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes (lexical + datatype overhead).
    pub fn estimated_bytes(&self) -> usize {
        self.lexical.len()
            + match &self.kind {
                LiteralKind::Plain => 0,
                LiteralKind::Lang(tag) => tag.len(),
                // Datatype IRIs are drawn from a tiny set that a real store
                // would intern; charge a constant instead of the full IRI.
                LiteralKind::Typed(_) => 4,
            }
    }
}

impl fmt::Display for Literal {
    /// N-Triples-compatible rendering with escaping.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::ntriples::write_literal(self, f)
    }
}

// The arithmetic entry points are deliberately associated functions taking
// both operands (`Numeric::add(a, b)`), not `std::ops` impls: SPARQL
// promotion and overflow fallback don't fit operator semantics.
#[allow(clippy::should_implement_trait)]
impl Numeric {
    /// Lossy view as `f64` (exact for integers within 2^53).
    pub fn to_f64(&self) -> f64 {
        match self {
            Numeric::Integer(v) => *v as f64,
            Numeric::Decimal(d) => d.to_f64(),
            Numeric::Double(v) => *v,
        }
    }

    /// Promote a pair to their least common type in the tower.
    fn promote(a: Numeric, b: Numeric) -> (Numeric, Numeric) {
        use Numeric::*;
        match (a, b) {
            (Integer(_), Integer(_)) | (Decimal(_), Decimal(_)) | (Double(_), Double(_)) => (a, b),
            (Integer(x), Decimal(_)) => (Decimal(crate::Decimal::from(x)), b),
            (Decimal(_), Integer(y)) => (a, Decimal(crate::Decimal::from(y))),
            (Double(_), _) => (a, Double(b.to_f64())),
            (_, Double(_)) => (Double(a.to_f64()), b),
        }
    }

    /// Addition with SPARQL promotion; decimal overflow falls back to double.
    pub fn add(a: Numeric, b: Numeric) -> Numeric {
        use Numeric::*;
        match Numeric::promote(a, b) {
            (Integer(x), Integer(y)) => match x.checked_add(y) {
                Some(v) => Integer(v),
                None => Double(x as f64 + y as f64),
            },
            (Decimal(x), Decimal(y)) => match x.checked_add(&y) {
                Some(v) => Decimal(v),
                None => Double(x.to_f64() + y.to_f64()),
            },
            (x, y) => Double(x.to_f64() + y.to_f64()),
        }
    }

    /// Subtraction with promotion.
    pub fn sub(a: Numeric, b: Numeric) -> Numeric {
        Numeric::add(a, Numeric::neg(b))
    }

    /// Multiplication with promotion.
    pub fn mul(a: Numeric, b: Numeric) -> Numeric {
        use Numeric::*;
        match Numeric::promote(a, b) {
            (Integer(x), Integer(y)) => match x.checked_mul(y) {
                Some(v) => Integer(v),
                None => Double(x as f64 * y as f64),
            },
            (Decimal(x), Decimal(y)) => match x.checked_mul(&y) {
                Some(v) => Decimal(v),
                None => Double(x.to_f64() * y.to_f64()),
            },
            (x, y) => Double(x.to_f64() * y.to_f64()),
        }
    }

    /// Division. Integer ÷ integer yields decimal (SPARQL `op:numeric-divide`);
    /// division by zero yields `None` (the evaluator maps it to an error).
    pub fn div(a: Numeric, b: Numeric) -> Option<Numeric> {
        use Numeric::*;
        match Numeric::promote(a, b) {
            (Integer(x), Integer(y)) => crate::Decimal::from(x)
                .checked_div(&crate::Decimal::from(y))
                .map(Decimal),
            (Decimal(x), Decimal(y)) => match x.checked_div(&y) {
                Some(v) => Some(Decimal(v)),
                None if y.is_zero() => None,
                None => Some(Double(x.to_f64() / y.to_f64())),
            },
            (x, y) => {
                let d = y.to_f64();
                if d == 0.0 {
                    None
                } else {
                    Some(Double(x.to_f64() / d))
                }
            }
        }
    }

    /// Unary negation.
    pub fn neg(a: Numeric) -> Numeric {
        use Numeric::*;
        match a {
            Integer(x) => x.checked_neg().map(Integer).unwrap_or(Double(-(x as f64))),
            Decimal(x) => x.checked_neg().map(Decimal).unwrap_or(Double(-x.to_f64())),
            Double(x) => Double(-x),
        }
    }

    /// SPARQL value comparison across the numeric tower.
    pub fn compare(a: Numeric, b: Numeric) -> Option<Ordering> {
        use Numeric::*;
        match Numeric::promote(a, b) {
            (Integer(x), Integer(y)) => Some(x.cmp(&y)),
            (Decimal(x), Decimal(y)) => Some(x.cmp(&y)),
            (x, y) => x.to_f64().partial_cmp(&y.to_f64()),
        }
    }

    /// Render as a canonical literal of the matching datatype.
    pub fn to_literal(&self) -> Literal {
        match self {
            Numeric::Integer(v) => Literal::integer(*v),
            Numeric::Decimal(d) => Literal::decimal(*d),
            Numeric::Double(v) => Literal::double(*v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_datatypes() {
        assert_eq!(Literal::string("x").datatype_str(), xsd::STRING);
        assert_eq!(Literal::integer(3).datatype_str(), xsd::INTEGER);
        assert_eq!(Literal::decimal(Decimal::ONE).datatype_str(), xsd::DECIMAL);
        assert_eq!(Literal::double(1.5).datatype_str(), xsd::DOUBLE);
        assert_eq!(Literal::boolean(true).datatype_str(), xsd::BOOLEAN);
        assert_eq!(Literal::year(2019).datatype_str(), xsd::G_YEAR);
        assert_eq!(
            Literal::lang_string("France", "FR").datatype_str(),
            xsd::LANG_STRING
        );
    }

    #[test]
    fn lang_tags_are_lowercased() {
        assert_eq!(Literal::lang_string("x", "EN-us").language(), Some("en-us"));
    }

    #[test]
    fn numeric_parsing() {
        assert_eq!(Literal::integer(42).numeric(), Some(Numeric::Integer(42)));
        assert_eq!(Literal::year(2019).numeric(), Some(Numeric::Integer(2019)));
        assert!(matches!(
            Literal::decimal("2.5".parse().unwrap()).numeric(),
            Some(Numeric::Decimal(_))
        ));
        assert_eq!(Literal::string("42").numeric(), None);
        // Malformed integer lexical falls through to None via double parse.
        let bad = Literal::typed("not-a-number", Iri::new_unchecked(xsd::INTEGER));
        assert_eq!(bad.numeric(), None);
    }

    #[test]
    fn booleans() {
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(Literal::boolean(false).as_bool(), Some(false));
        assert_eq!(
            Literal::typed("1", Iri::new_unchecked(xsd::BOOLEAN)).as_bool(),
            Some(true)
        );
        assert_eq!(Literal::string("true").as_bool(), None);
    }

    #[test]
    fn date_parts_extraction() {
        let dt = Literal::date_time(2019, 6, 30, 12, 0, 0);
        assert_eq!(dt.date_parts(), Some((2019, 6, 30)));
        assert_eq!(Literal::year(2020).date_parts(), Some((2020, 0, 0)));
        assert_eq!(Literal::string("2019").date_parts(), None);
    }

    #[test]
    fn date_time_orders_lexicographically() {
        let a = Literal::date_time(2019, 6, 30, 12, 0, 0);
        let b = Literal::date_time(2020, 1, 1, 0, 0, 0);
        assert!(a.lexical() < b.lexical());
    }

    #[test]
    fn display_escapes() {
        let l = Literal::string("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Literal::lang_string("hi", "en").to_string(), "\"hi\"@en");
        assert!(Literal::integer(5)
            .to_string()
            .starts_with("\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
    }

    #[test]
    fn term_equality_is_lexical() {
        let a = Literal::typed("1", Iri::new_unchecked(xsd::INTEGER));
        let b = Literal::typed("01", Iri::new_unchecked(xsd::INTEGER));
        assert_ne!(a, b, "different lexical forms are different terms");
        // ... but compare numerically equal:
        assert_eq!(
            Numeric::compare(a.numeric().unwrap(), b.numeric().unwrap()),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn numeric_promotion_ladder() {
        use Numeric::*;
        // int + int stays int
        assert_eq!(Numeric::add(Integer(1), Integer(2)), Integer(3));
        // int + decimal → decimal
        assert!(matches!(
            Numeric::add(Integer(1), Decimal("0.5".parse().unwrap())),
            Decimal(_)
        ));
        // anything + double → double
        assert!(matches!(Numeric::add(Integer(1), Double(0.5)), Double(_)));
        // int overflow promotes to double rather than wrapping
        assert!(matches!(
            Numeric::add(Integer(i64::MAX), Integer(1)),
            Double(_)
        ));
    }

    #[test]
    fn division_semantics() {
        use Numeric::*;
        // SPARQL: integer / integer = decimal
        match Numeric::div(Integer(1), Integer(4)).unwrap() {
            Decimal(d) => assert_eq!(d.to_string(), "0.25"),
            other => panic!("expected decimal, got {other:?}"),
        }
        assert!(Numeric::div(Integer(1), Integer(0)).is_none());
        assert!(Numeric::div(Double(1.0), Double(0.0)).is_none());
    }

    #[test]
    fn comparisons_across_types() {
        use Numeric::*;
        assert_eq!(
            Numeric::compare(Integer(2), Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Numeric::compare(Decimal("1.5".parse().unwrap()), Integer(2)),
            Some(Ordering::Less)
        );
    }
}
