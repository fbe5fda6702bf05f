//! Runtime values for expression evaluation and ordering.
//!
//! Stored terms are decoded into [`Value`]s when they reach a `FILTER`,
//! aggregate, or `ORDER BY`; computed results are converted back to terms at
//! projection time. The numeric tower (`sofos_rdf::Numeric`) gives SPARQL's
//! integer/decimal/double promotion; everything else compares within its own
//! kind.

use sofos_rdf::vocab::xsd;
use sofos_rdf::{Decimal, Literal, LiteralKind, Numeric, Term};
use std::cmp::Ordering;

/// A decoded runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An IRI (by text).
    Iri(String),
    /// A blank node (by label).
    Blank(String),
    /// An `xsd:boolean`.
    Boolean(bool),
    /// A numeric literal (integer / decimal / double).
    Numeric(Numeric),
    /// A plain or language-tagged string.
    Str {
        /// The text.
        text: String,
        /// Language tag, lowercase, if tagged.
        lang: Option<String>,
    },
    /// Any other typed literal (dateTime, custom types): compared by
    /// lexical form within the same datatype.
    Other {
        /// Lexical form.
        text: String,
        /// Datatype IRI.
        datatype: String,
    },
}

impl Value {
    /// Decode a stored term.
    pub fn from_term(term: &Term) -> Value {
        match term {
            Term::Iri(iri) => Value::Iri(iri.as_str().to_string()),
            Term::Blank(b) => Value::Blank(b.as_str().to_string()),
            Term::Literal(lit) => Value::from_literal(lit),
        }
    }

    /// Decode a literal.
    pub fn from_literal(lit: &Literal) -> Value {
        if lit.datatype_str() == xsd::BOOLEAN {
            if let Some(b) = lit.as_bool() {
                return Value::Boolean(b);
            }
        }
        if let Some(n) = lit.numeric() {
            return Value::Numeric(n);
        }
        match lit.kind() {
            LiteralKind::Plain => Value::Str {
                text: lit.lexical().to_string(),
                lang: None,
            },
            LiteralKind::Lang(tag) => Value::Str {
                text: lit.lexical().to_string(),
                lang: Some(tag.to_string()),
            },
            LiteralKind::Typed(dt) => Value::Other {
                text: lit.lexical().to_string(),
                datatype: dt.as_str().to_string(),
            },
        }
    }

    /// Encode back into a term (for projection). Always succeeds.
    pub fn to_term(&self) -> Term {
        match self {
            Value::Iri(iri) => Term::iri(iri.clone()),
            Value::Blank(b) => Term::blank(b.clone()),
            Value::Boolean(b) => Term::Literal(Literal::boolean(*b)),
            Value::Numeric(n) => Term::Literal(n.to_literal()),
            Value::Str { text, lang: None } => Term::Literal(Literal::string(text.clone())),
            Value::Str {
                text,
                lang: Some(tag),
            } => Term::Literal(Literal::lang_string(text.clone(), tag.clone())),
            Value::Other { text, datatype } => Term::Literal(Literal::typed(
                text.clone(),
                sofos_rdf::Iri::new_unchecked(datatype.clone()),
            )),
        }
    }

    /// Effective boolean value (SPARQL §17.2.2); `None` = type error.
    pub fn ebv(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            Value::Numeric(n) => {
                let f = n.to_f64();
                Some(f != 0.0 && !f.is_nan())
            }
            Value::Str { text, .. } => Some(!text.is_empty()),
            _ => None,
        }
    }

    /// The numeric view, if this value is numeric.
    pub fn as_numeric(&self) -> Option<Numeric> {
        match self {
            Value::Numeric(n) => Some(*n),
            _ => None,
        }
    }

    /// The string view for string functions: strings and IRIs via `STR()`
    /// semantics are handled by the caller; this is raw text for strings
    /// and `Other` literals.
    pub fn as_str_text(&self) -> Option<&str> {
        match self {
            Value::Str { text, .. } => Some(text),
            Value::Other { text, .. } => Some(text),
            _ => None,
        }
    }

    /// SPARQL `=` semantics: numeric comparison across numeric types,
    /// otherwise same-kind equality; cross-kind is `false`.
    pub fn sparql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Numeric(a), Value::Numeric(b)) => {
                Numeric::compare(*a, *b) == Some(Ordering::Equal)
            }
            (Value::Str { text: a, lang: la }, Value::Str { text: b, lang: lb }) => {
                a == b && la == lb
            }
            (Value::Iri(a), Value::Iri(b)) => a == b,
            (Value::Blank(a), Value::Blank(b)) => a == b,
            (Value::Boolean(a), Value::Boolean(b)) => a == b,
            (
                Value::Other {
                    text: a,
                    datatype: da,
                },
                Value::Other {
                    text: b,
                    datatype: db,
                },
            ) => a == b && da == db,
            _ => false,
        }
    }

    /// SPARQL `<`/`>` comparison; `None` = incomparable (type error).
    pub fn sparql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Numeric(a), Value::Numeric(b)) => Numeric::compare(*a, *b),
            (Value::Str { text: a, .. }, Value::Str { text: b, .. }) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Iri(a), Value::Iri(b)) => Some(a.cmp(b)),
            (
                Value::Other {
                    text: a,
                    datatype: da,
                },
                Value::Other {
                    text: b,
                    datatype: db,
                },
            ) if da == db => Some(a.cmp(b)), // ISO dateTime orders lexically
            _ => None,
        }
    }

    /// Total order used by ORDER BY, MIN/MAX over mixed types, and result
    /// sorting: unbound < blank < IRI < boolean < numeric < string < other.
    /// Deterministic for every pair, unlike [`Value::sparql_cmp`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let rank = |v: &Value| -> u8 {
            match v {
                Value::Blank(_) => 0,
                Value::Iri(_) => 1,
                Value::Boolean(_) => 2,
                Value::Numeric(_) => 3,
                Value::Str { .. } => 4,
                Value::Other { .. } => 5,
            }
        };
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Blank(a), Value::Blank(b)) => a.cmp(b),
                (Value::Iri(a), Value::Iri(b)) => a.cmp(b),
                (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
                (Value::Numeric(a), Value::Numeric(b)) => {
                    Numeric::compare(*a, *b).unwrap_or(Ordering::Equal)
                }
                (Value::Str { text: a, lang: la }, Value::Str { text: b, lang: lb }) => {
                    a.cmp(b).then_with(|| la.cmp(lb))
                }
                (
                    Value::Other {
                        text: a,
                        datatype: da,
                    },
                    Value::Other {
                        text: b,
                        datatype: db,
                    },
                ) => da.cmp(db).then_with(|| a.cmp(b)),
                _ => unreachable!("same rank implies same variant"),
            },
            ord => ord,
        }
    }

    /// The value's identity in a `DISTINCT` aggregate's set: numbers key
    /// by their exact value, so `1`, `1.0` and `1e0` collapse and no two
    /// different numbers share a key; every other value keys by its kind
    /// and text.
    pub fn distinct_key(&self) -> DistinctKey {
        match self {
            Value::Iri(i) => DistinctKey::Iri(i.clone()),
            Value::Blank(b) => DistinctKey::Blank(b.clone()),
            Value::Boolean(b) => DistinctKey::Boolean(*b),
            Value::Numeric(n) => match exact_decimal(*n) {
                Some(d) => DistinctKey::Exact(d),
                None => {
                    let f = n.to_f64();
                    DistinctKey::Double(if f.is_nan() { f64::NAN } else { f }.to_bits())
                }
            },
            Value::Str { text, lang } => DistinctKey::Str(text.clone(), lang.clone()),
            Value::Other { text, datatype } => DistinctKey::Other(datatype.clone(), text.clone()),
        }
    }
}

/// A value's identity in a `DISTINCT` aggregate's set; see
/// [`Value::distinct_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistinctKey {
    /// An IRI by its text.
    Iri(String),
    /// A blank node by its label.
    Blank(String),
    /// A boolean.
    Boolean(bool),
    /// A number a [`Decimal`] holds exactly: every integer and decimal,
    /// and the finite doubles within its range and scale.
    Exact(Decimal),
    /// Any other double, by its bits (`NaN` canonical).
    Double(u64),
    /// A plain or language-tagged string: text, then tag.
    Str(String, Option<String>),
    /// Any other typed literal: datatype, then lexical form.
    Other(String, String),
}

/// The exact value of a number as a [`Decimal`], when one holds it.
fn exact_decimal(n: Numeric) -> Option<Decimal> {
    let f = match n {
        Numeric::Integer(v) => return Some(Decimal::from(v)),
        Numeric::Decimal(d) => return Some(d),
        Numeric::Double(f) if !f.is_finite() => return None,
        Numeric::Double(f) => f,
    };
    if f == 0.0 {
        return Some(Decimal::ZERO); // -0.0 too
    }
    // f = ±mantissa × 2^exp exactly.
    let bits = f.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mut mantissa, mut exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let shift = mantissa.trailing_zeros();
    mantissa >>= shift;
    exp += shift as i32;
    let sign = if f < 0.0 { -1 } else { 1 };
    if exp >= 0 {
        // An integer; mantissa < 2^53, so it fits an i128 up to 2^126.
        if exp > 73 {
            return None;
        }
        return Decimal::from_parts(sign * ((mantissa as i128) << exp), 0);
    }
    // mantissa / 2^k = mantissa × 5^k / 10^k.
    let k = exp.unsigned_abs();
    let unscaled = (mantissa as i128).checked_mul(5i128.checked_pow(k)?)?;
    Decimal::from_parts(sign * unscaled, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_term_kinds() {
        assert_eq!(Value::from_term(&Term::iri("x")), Value::Iri("x".into()));
        assert_eq!(
            Value::from_term(&Term::blank("b")),
            Value::Blank("b".into())
        );
        assert!(matches!(
            Value::from_term(&Term::literal_int(5)),
            Value::Numeric(Numeric::Integer(5))
        ));
        assert_eq!(
            Value::from_term(&Term::Literal(Literal::boolean(true))),
            Value::Boolean(true)
        );
        assert_eq!(
            Value::from_term(&Term::literal_str("hi")),
            Value::Str {
                text: "hi".into(),
                lang: None
            }
        );
        assert!(matches!(
            Value::from_term(&Term::Literal(Literal::date_time(2020, 1, 1, 0, 0, 0))),
            Value::Other { .. }
        ));
    }

    #[test]
    fn round_trip_to_term() {
        for term in [
            Term::iri("http://e/x"),
            Term::blank("b0"),
            Term::literal_int(42),
            Term::Literal(Literal::boolean(false)),
            Term::literal_str("plain"),
            Term::Literal(Literal::lang_string("salut", "fr")),
            Term::Literal(Literal::decimal(Decimal::from(3))),
        ] {
            let v = Value::from_term(&term);
            let back = v.to_term();
            // Values normalize (e.g. decimal "3" stays "3"); decoded values
            // must round-trip to semantically equal values.
            assert!(
                Value::from_term(&back).sparql_eq(&v),
                "{term} → {v:?} → {back}"
            );
        }
    }

    #[test]
    fn ebv_rules() {
        assert_eq!(Value::Boolean(true).ebv(), Some(true));
        assert_eq!(Value::Numeric(Numeric::Integer(0)).ebv(), Some(false));
        assert_eq!(Value::Numeric(Numeric::Double(f64::NAN)).ebv(), Some(false));
        assert_eq!(
            Value::Str {
                text: "".into(),
                lang: None
            }
            .ebv(),
            Some(false)
        );
        assert_eq!(
            Value::Str {
                text: "x".into(),
                lang: None
            }
            .ebv(),
            Some(true)
        );
        assert_eq!(Value::Iri("x".into()).ebv(), None, "IRI has no EBV");
    }

    #[test]
    fn numeric_equality_across_types() {
        let one_int = Value::Numeric(Numeric::Integer(1));
        let one_dbl = Value::Numeric(Numeric::Double(1.0));
        assert!(one_int.sparql_eq(&one_dbl));
        assert!(!one_int.sparql_eq(&Value::Str {
            text: "1".into(),
            lang: None
        }));
    }

    #[test]
    fn comparisons() {
        let a = Value::Numeric(Numeric::Integer(1));
        let b = Value::Numeric(Numeric::Double(1.5));
        assert_eq!(a.sparql_cmp(&b), Some(Ordering::Less));
        let s1 = Value::Str {
            text: "abc".into(),
            lang: None,
        };
        let s2 = Value::Str {
            text: "abd".into(),
            lang: None,
        };
        assert_eq!(s1.sparql_cmp(&s2), Some(Ordering::Less));
        assert_eq!(a.sparql_cmp(&s1), None, "number vs string is an error");
        let d1 = Value::Other {
            text: "2019-01-01T00:00:00".into(),
            datatype: xsd::DATE_TIME.into(),
        };
        let d2 = Value::Other {
            text: "2020-01-01T00:00:00".into(),
            datatype: xsd::DATE_TIME.into(),
        };
        assert_eq!(d1.sparql_cmp(&d2), Some(Ordering::Less));
    }

    #[test]
    fn total_order_is_total_and_ranked() {
        let values = [
            Value::Blank("b".into()),
            Value::Iri("i".into()),
            Value::Boolean(false),
            Value::Numeric(Numeric::Integer(1)),
            Value::Str {
                text: "s".into(),
                lang: None,
            },
            Value::Other {
                text: "t".into(),
                datatype: "d".into(),
            },
        ];
        for w in values.windows(2) {
            assert_eq!(
                w[0].total_cmp(&w[1]),
                Ordering::Less,
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
        // Reflexive.
        for v in &values {
            assert_eq!(v.total_cmp(v), Ordering::Equal);
        }
    }

    #[test]
    fn distinct_keys_canonicalize_numbers() {
        let a = Value::Numeric(Numeric::Integer(1));
        let b = Value::Numeric(Numeric::Double(1.0));
        assert_eq!(a.distinct_key(), b.distinct_key());
        assert_ne!(
            Value::Str {
                text: "1".into(),
                lang: None
            }
            .distinct_key(),
            a.distinct_key()
        );
    }

    #[test]
    fn distinct_keys_are_exact_for_numbers() {
        let key = |n: Numeric| Value::Numeric(n).distinct_key();
        // Above 2^53 an f64 key merged neighbouring integers.
        assert_ne!(
            key(Numeric::Integer(9_007_199_254_740_992)),
            key(Numeric::Integer(9_007_199_254_740_993))
        );
        // The same number spelled as integer, decimal and double collapses.
        let half = Decimal::from_parts(15, 1).unwrap();
        assert_eq!(key(Numeric::Decimal(half)), key(Numeric::Double(1.5)));
        assert_eq!(
            key(Numeric::Integer(9_007_199_254_740_992)),
            key(Numeric::Double(9_007_199_254_740_992.0))
        );
        assert_eq!(key(Numeric::Integer(0)), key(Numeric::Double(-0.0)));
        assert_eq!(key(Numeric::Integer(-3)), key(Numeric::Double(-3.0)));
        // A double no decimal holds exactly is not the decimal it prints as.
        let tenth = Decimal::from_parts(1, 1).unwrap();
        assert_ne!(key(Numeric::Decimal(tenth)), key(Numeric::Double(0.1)));
        assert_eq!(key(Numeric::Double(0.1)), key(Numeric::Double(0.1)));
        assert_eq!(
            key(Numeric::Double(f64::NAN)),
            key(Numeric::Double(-f64::NAN))
        );
        assert_ne!(
            key(Numeric::Double(f64::INFINITY)),
            key(Numeric::Double(f64::MAX))
        );
    }
}
