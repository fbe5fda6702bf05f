//! Expression evaluation.
//!
//! Expressions evaluate to `Option<Value>`: `None` is SPARQL's *error*
//! outcome, which makes `FILTER` drop the row (errors never abort a query).
//! Aggregate sub-expressions are resolved through an [`AggContext`] supplied
//! by the group-by operator, by the address of their node; hitting an
//! aggregate without one is an error value (the planner guarantees this
//! does not happen for valid queries).

use crate::ast::{Aggregate, ArithOp, CompareOp, Expr, Func};
use crate::value::Value;
use sofos_rdf::vocab::xsd;
use sofos_rdf::{Dictionary, FxHashMap, Numeric, Term, TermId};
use std::cmp::Ordering;

/// Resolves term ids to terms. Implemented by the store dictionary and by
/// the evaluator's working dictionary (which overlays `BIND`/`VALUES`
/// constants that are absent from the stored data).
pub trait TermSource {
    /// Resolve an id to its term. Ids come from the same evaluation, so
    /// unknown ids are a logic error (panic).
    fn resolve(&self, id: TermId) -> &Term;
}

impl TermSource for Dictionary {
    fn resolve(&self, id: TermId) -> &Term {
        self.term_unchecked(id)
    }
}

/// Resolved aggregate values for the current group.
pub struct AggContext<'a> {
    /// Every aggregate node of the expressions evaluated over the group,
    /// each with the index of its value. The planner matches equal
    /// aggregates once per query; a lookup compares node addresses, so an
    /// equal aggregate that is not one of these nodes resolves to nothing.
    pub nodes: &'a [(&'a Aggregate, usize)],
    /// The value each aggregate produced for this group.
    pub values: &'a [Option<Value>],
}

/// Everything expression evaluation needs.
pub struct EvalScope<'a> {
    /// Term source for decoding bound term ids.
    pub dict: &'a dyn TermSource,
    /// Variable name → binding slot.
    pub var_index: &'a FxHashMap<String, usize>,
    /// The current row: variable slot → bound term id.
    pub bindings: &'a [Option<TermId>],
    /// Group aggregate values, when evaluating HAVING/SELECT over groups.
    pub aggs: Option<&'a AggContext<'a>>,
}

impl<'a> EvalScope<'a> {
    fn lookup(&self, var: &str) -> Option<Value> {
        let idx = *self.var_index.get(var)?;
        let id = (*self.bindings.get(idx)?)?;
        Some(Value::from_term(self.dict.resolve(id)))
    }

    fn var_is_bound(&self, var: &str) -> bool {
        self.var_index
            .get(var)
            .and_then(|&idx| self.bindings.get(idx))
            .is_some_and(Option::is_some)
    }
}

/// Evaluate an expression; `None` is the SPARQL error value.
pub fn eval_expr(expr: &Expr, scope: &EvalScope<'_>) -> Option<Value> {
    match expr {
        Expr::Var(name) => scope.lookup(name),
        Expr::Const(term) => Some(Value::from_term(term)),
        Expr::Or(a, b) => {
            // SPARQL three-valued OR: true if either is true.
            let left = eval_expr(a, scope).and_then(|v| v.ebv());
            let right = eval_expr(b, scope).and_then(|v| v.ebv());
            match (left, right) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Boolean(true)),
                (Some(false), Some(false)) => Some(Value::Boolean(false)),
                _ => None,
            }
        }
        Expr::And(a, b) => {
            let left = eval_expr(a, scope).and_then(|v| v.ebv());
            let right = eval_expr(b, scope).and_then(|v| v.ebv());
            match (left, right) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Boolean(false)),
                (Some(true), Some(true)) => Some(Value::Boolean(true)),
                _ => None,
            }
        }
        Expr::Not(e) => {
            let b = eval_expr(e, scope)?.ebv()?;
            Some(Value::Boolean(!b))
        }
        Expr::Compare(op, a, b) => {
            let left = eval_expr(a, scope)?;
            let right = eval_expr(b, scope)?;
            let result = match op {
                CompareOp::Eq => left.sparql_eq(&right),
                CompareOp::Ne => !left.sparql_eq(&right),
                CompareOp::Lt => left.sparql_cmp(&right)? == Ordering::Less,
                CompareOp::Le => left.sparql_cmp(&right)? != Ordering::Greater,
                CompareOp::Gt => left.sparql_cmp(&right)? == Ordering::Greater,
                CompareOp::Ge => left.sparql_cmp(&right)? != Ordering::Less,
            };
            Some(Value::Boolean(result))
        }
        Expr::In(e, list) => {
            let needle = eval_expr(e, scope)?;
            for item in list {
                if let Some(v) = eval_expr(item, scope) {
                    if needle.sparql_eq(&v) {
                        return Some(Value::Boolean(true));
                    }
                }
            }
            Some(Value::Boolean(false))
        }
        Expr::Arith(op, a, b) => {
            let left = eval_expr(a, scope)?.as_numeric()?;
            let right = eval_expr(b, scope)?.as_numeric()?;
            let result = match op {
                ArithOp::Add => Numeric::add(left, right),
                ArithOp::Sub => Numeric::sub(left, right),
                ArithOp::Mul => Numeric::mul(left, right),
                ArithOp::Div => Numeric::div(left, right)?,
            };
            Some(Value::Numeric(result))
        }
        Expr::Neg(e) => {
            let n = eval_expr(e, scope)?.as_numeric()?;
            Some(Value::Numeric(Numeric::neg(n)))
        }
        Expr::Call(func, args) => eval_call(*func, args, scope),
        Expr::Aggregate(agg) => {
            let ctx = scope.aggs?;
            let &(_, idx) = ctx
                .nodes
                .iter()
                .find(|(node, _)| std::ptr::eq(*node, agg))?;
            ctx.values.get(idx)?.clone()
        }
    }
}

fn eval_call(func: Func, args: &[Expr], scope: &EvalScope<'_>) -> Option<Value> {
    match func {
        Func::Bound => match &args[0] {
            Expr::Var(name) => Some(Value::Boolean(scope.var_is_bound(name))),
            _ => None,
        },
        Func::Coalesce => args.iter().find_map(|a| eval_expr(a, scope)),
        Func::If => {
            let cond = eval_expr(&args[0], scope)?.ebv()?;
            if cond {
                eval_expr(&args[1], scope)
            } else {
                eval_expr(&args[2], scope)
            }
        }
        _ => {
            let first = eval_expr(&args[0], scope)?;
            match func {
                Func::Str => {
                    let text = match &first {
                        Value::Iri(i) => i.clone(),
                        Value::Str { text, .. } => text.clone(),
                        Value::Other { text, .. } => text.clone(),
                        Value::Boolean(b) => b.to_string(),
                        Value::Numeric(n) => match n {
                            Numeric::Integer(v) => v.to_string(),
                            Numeric::Decimal(d) => d.to_string(),
                            Numeric::Double(v) => v.to_string(),
                        },
                        Value::Blank(_) => return None,
                    };
                    Some(Value::Str { text, lang: None })
                }
                Func::Lang => match &first {
                    Value::Str { lang, .. } => Some(Value::Str {
                        text: lang.clone().unwrap_or_default(),
                        lang: None,
                    }),
                    Value::Numeric(_) | Value::Boolean(_) | Value::Other { .. } => {
                        Some(Value::Str {
                            text: String::new(),
                            lang: None,
                        })
                    }
                    _ => None,
                },
                Func::Datatype => {
                    let dt = match &first {
                        Value::Numeric(Numeric::Integer(_)) => xsd::INTEGER,
                        Value::Numeric(Numeric::Decimal(_)) => xsd::DECIMAL,
                        Value::Numeric(Numeric::Double(_)) => xsd::DOUBLE,
                        Value::Boolean(_) => xsd::BOOLEAN,
                        Value::Str { lang: None, .. } => xsd::STRING,
                        Value::Str { lang: Some(_), .. } => xsd::LANG_STRING,
                        Value::Other { datatype, .. } => return Some(Value::Iri(datatype.clone())),
                        _ => return None,
                    };
                    Some(Value::Iri(dt.to_string()))
                }
                Func::IsIri => Some(Value::Boolean(matches!(first, Value::Iri(_)))),
                Func::IsBlank => Some(Value::Boolean(matches!(first, Value::Blank(_)))),
                Func::IsLiteral => Some(Value::Boolean(!matches!(
                    first,
                    Value::Iri(_) | Value::Blank(_)
                ))),
                Func::IsNumeric => Some(Value::Boolean(matches!(first, Value::Numeric(_)))),
                Func::Abs | Func::Ceil | Func::Floor | Func::Round => {
                    let n = first.as_numeric()?;
                    let out = match (func, n) {
                        (Func::Abs, Numeric::Integer(v)) => Numeric::Integer(v.checked_abs()?),
                        (Func::Abs, Numeric::Decimal(d)) => Numeric::Decimal(d.checked_abs()?),
                        (Func::Abs, Numeric::Double(v)) => Numeric::Double(v.abs()),
                        (Func::Ceil, Numeric::Integer(v)) => Numeric::Integer(v),
                        (Func::Ceil, Numeric::Decimal(d)) => Numeric::Decimal(d.ceil()),
                        (Func::Ceil, Numeric::Double(v)) => Numeric::Double(v.ceil()),
                        (Func::Floor, Numeric::Integer(v)) => Numeric::Integer(v),
                        (Func::Floor, Numeric::Decimal(d)) => Numeric::Decimal(d.floor()),
                        (Func::Floor, Numeric::Double(v)) => Numeric::Double(v.floor()),
                        (Func::Round, Numeric::Integer(v)) => Numeric::Integer(v),
                        (Func::Round, Numeric::Decimal(d)) => Numeric::Decimal(d.round()),
                        (Func::Round, Numeric::Double(v)) => Numeric::Double(v.round()),
                        _ => unreachable!(),
                    };
                    Some(Value::Numeric(out))
                }
                Func::StrLen => {
                    let text = first.as_str_text()?;
                    Some(Value::Numeric(
                        Numeric::Integer(text.chars().count() as i64),
                    ))
                }
                Func::UCase => Some(Value::Str {
                    text: first.as_str_text()?.to_uppercase(),
                    lang: None,
                }),
                Func::LCase => Some(Value::Str {
                    text: first.as_str_text()?.to_lowercase(),
                    lang: None,
                }),
                Func::Contains | Func::StrStarts | Func::StrEnds | Func::Regex => {
                    let second = eval_expr(&args[1], scope)?;
                    let haystack = first.as_str_text()?;
                    let needle = second.as_str_text()?;
                    let result = match func {
                        Func::Contains => haystack.contains(needle),
                        Func::StrStarts => haystack.starts_with(needle),
                        Func::StrEnds => haystack.ends_with(needle),
                        Func::Regex => regex_lite_match(haystack, needle),
                        _ => unreachable!(),
                    };
                    Some(Value::Boolean(result))
                }
                Func::Year | Func::Month | Func::Day => {
                    let (y, m, d) = match &first {
                        Value::Other { text, datatype } if datatype == xsd::DATE_TIME => {
                            let lit = sofos_rdf::Literal::typed(
                                text.clone(),
                                sofos_rdf::Iri::new_unchecked(xsd::DATE_TIME),
                            );
                            lit.date_parts()?
                        }
                        // gYear decodes as a numeric; accept it for YEAR().
                        Value::Numeric(Numeric::Integer(v)) if func == Func::Year => {
                            (i32::try_from(*v).ok()?, 0, 0)
                        }
                        _ => return None,
                    };
                    let out = match func {
                        Func::Year => y as i64,
                        Func::Month => m as i64,
                        Func::Day => d as i64,
                        _ => unreachable!(),
                    };
                    Some(Value::Numeric(Numeric::Integer(out)))
                }
                Func::Bound | Func::Coalesce | Func::If => unreachable!("handled above"),
            }
        }
    }
}

/// A tiny regex subset sufficient for SOFOS workloads: `^` and `$` anchors,
/// `.` wildcard, `X*` repetition (including `.*`), everything else literal.
/// Unanchored patterns match anywhere in the text (SPARQL REGEX semantics).
pub fn regex_lite_match(text: &str, pattern: &str) -> bool {
    let (pattern, anchored_start) = match pattern.strip_prefix('^') {
        Some(rest) => (rest, true),
        None => (pattern, false),
    };
    let (pattern, anchored_end) = match pattern.strip_suffix('$') {
        Some(rest) => (rest, true),
        None => (pattern, false),
    };
    let pat: Vec<char> = pattern.chars().collect();
    let chars: Vec<char> = text.chars().collect();

    let starts: Vec<usize> = if anchored_start {
        vec![0]
    } else {
        (0..=chars.len()).collect()
    };
    for start in starts {
        if let Some(end) = match_here(&chars[start..], &pat) {
            if !anchored_end || start + end == chars.len() {
                return true;
            }
            // With an end anchor, try greedy alternatives via backtracking
            // inside match_all.
            if anchored_end && match_exact(&chars[start..], &pat) {
                return true;
            }
        } else if anchored_end && match_exact(&chars[start..], &pat) {
            return true;
        }
    }
    false
}

/// Shortest-match helper: returns chars consumed when `pat` matches a prefix.
fn match_here(text: &[char], pat: &[char]) -> Option<usize> {
    if pat.is_empty() {
        return Some(0);
    }
    // X* — try zero or more.
    if pat.len() >= 2 && pat[1] == '*' {
        let mut consumed = 0;
        loop {
            if let Some(rest) = match_here(&text[consumed..], &pat[2..]) {
                return Some(consumed + rest);
            }
            if consumed < text.len() && char_match(text[consumed], pat[0]) {
                consumed += 1;
            } else {
                return None;
            }
        }
    }
    if !text.is_empty() && char_match(text[0], pat[0]) {
        return match_here(&text[1..], &pat[1..]).map(|n| n + 1);
    }
    None
}

/// Does `pat` match *all* of `text` (for `$`-anchored patterns)?
fn match_exact(text: &[char], pat: &[char]) -> bool {
    if pat.is_empty() {
        return text.is_empty();
    }
    if pat.len() >= 2 && pat[1] == '*' {
        // Zero occurrences, or consume one and retry.
        if match_exact(text, &pat[2..]) {
            return true;
        }
        return !text.is_empty() && char_match(text[0], pat[0]) && match_exact(&text[1..], pat);
    }
    !text.is_empty() && char_match(text[0], pat[0]) && match_exact(&text[1..], &pat[1..])
}

fn char_match(c: char, p: char) -> bool {
    p == '.' || p == c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use sofos_rdf::{Dictionary, Term};

    fn scope_with<'a>(
        dict: &'a Dictionary,
        var_index: &'a FxHashMap<String, usize>,
        bindings: &'a [Option<TermId>],
    ) -> EvalScope<'a> {
        EvalScope {
            dict,
            var_index,
            bindings,
            aggs: None,
        }
    }

    fn eval_const(expr: &Expr) -> Option<Value> {
        let dict = Dictionary::new();
        let var_index = FxHashMap::default();
        let bindings = Vec::new();
        eval_expr(expr, &scope_with(&dict, &var_index, &bindings))
    }

    fn boolean(expr: &Expr) -> Option<bool> {
        eval_const(expr).and_then(|v| v.ebv())
    }

    #[test]
    fn arithmetic_and_comparison() {
        // 1 + 2 * 3 = 7
        let e = Expr::Compare(
            CompareOp::Eq,
            Box::new(Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::int(1)),
                Box::new(Expr::Arith(
                    ArithOp::Mul,
                    Box::new(Expr::int(2)),
                    Box::new(Expr::int(3)),
                )),
            )),
            Box::new(Expr::int(7)),
        );
        assert_eq!(boolean(&e), Some(true));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::Arith(ArithOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(eval_const(&e), None);
    }

    #[test]
    fn three_valued_or_and() {
        // error || true = true; error && true = error.
        let error = Expr::Arith(ArithOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        let t = Expr::Const(Term::Literal(sofos_rdf::Literal::boolean(true)));
        assert_eq!(
            boolean(&Expr::Or(Box::new(error.clone()), Box::new(t.clone()))),
            Some(true)
        );
        assert_eq!(eval_const(&Expr::And(Box::new(error), Box::new(t))), None);
    }

    #[test]
    fn unbound_var_is_error_and_bound_detects_it() {
        let dict = Dictionary::new();
        let mut var_index = FxHashMap::default();
        var_index.insert("x".to_string(), 0usize);
        let bindings = vec![None];
        let scope = scope_with(&dict, &var_index, &bindings);
        assert_eq!(eval_expr(&Expr::var("x"), &scope), None);
        assert_eq!(
            eval_expr(&Expr::Call(Func::Bound, vec![Expr::var("x")]), &scope),
            Some(Value::Boolean(false))
        );
    }

    #[test]
    fn bound_var_decodes() {
        let mut dict = Dictionary::new();
        let id = dict.intern(&Term::literal_int(9));
        let mut var_index = FxHashMap::default();
        var_index.insert("x".to_string(), 0usize);
        let bindings = vec![Some(id)];
        let scope = scope_with(&dict, &var_index, &bindings);
        assert_eq!(
            eval_expr(&Expr::var("x"), &scope),
            Some(Value::Numeric(Numeric::Integer(9)))
        );
    }

    #[test]
    fn string_functions() {
        let hello = Expr::Const(Term::literal_str("Hello World"));
        let check = |f: Func, args: Vec<Expr>, expect: Value| {
            assert_eq!(eval_const(&Expr::Call(f, args)).unwrap(), expect);
        };
        check(
            Func::StrLen,
            vec![hello.clone()],
            Value::Numeric(Numeric::Integer(11)),
        );
        check(
            Func::UCase,
            vec![hello.clone()],
            Value::Str {
                text: "HELLO WORLD".into(),
                lang: None,
            },
        );
        check(
            Func::Contains,
            vec![hello.clone(), Expr::Const(Term::literal_str("lo W"))],
            Value::Boolean(true),
        );
        check(
            Func::StrStarts,
            vec![hello.clone(), Expr::Const(Term::literal_str("Hell"))],
            Value::Boolean(true),
        );
        check(
            Func::StrEnds,
            vec![hello, Expr::Const(Term::literal_str("rld"))],
            Value::Boolean(true),
        );
    }

    #[test]
    fn str_of_iri_and_number() {
        assert_eq!(
            eval_const(&Expr::Call(
                Func::Str,
                vec![Expr::Const(Term::iri("http://e/x"))]
            )),
            Some(Value::Str {
                text: "http://e/x".into(),
                lang: None
            })
        );
        assert_eq!(
            eval_const(&Expr::Call(Func::Str, vec![Expr::int(5)])),
            Some(Value::Str {
                text: "5".into(),
                lang: None
            })
        );
    }

    #[test]
    fn type_predicates() {
        let iri = Expr::Const(Term::iri("x"));
        assert_eq!(
            eval_const(&Expr::Call(Func::IsIri, vec![iri.clone()])),
            Some(Value::Boolean(true))
        );
        assert_eq!(
            eval_const(&Expr::Call(Func::IsLiteral, vec![iri.clone()])),
            Some(Value::Boolean(false))
        );
        assert_eq!(
            eval_const(&Expr::Call(Func::IsNumeric, vec![Expr::int(2)])),
            Some(Value::Boolean(true))
        );
    }

    #[test]
    fn numeric_rounding_functions() {
        use sofos_rdf::Literal;
        let dec = |s: &str| {
            Expr::Const(Term::Literal(Literal::typed(
                s,
                sofos_rdf::Iri::new_unchecked(xsd::DECIMAL),
            )))
        };
        let as_num = |e: Option<Value>| e.unwrap().as_numeric().unwrap().to_f64();
        assert_eq!(
            as_num(eval_const(&Expr::Call(Func::Abs, vec![dec("-2.5")]))),
            2.5
        );
        assert_eq!(
            as_num(eval_const(&Expr::Call(Func::Ceil, vec![dec("2.1")]))),
            3.0
        );
        assert_eq!(
            as_num(eval_const(&Expr::Call(Func::Floor, vec![dec("2.9")]))),
            2.0
        );
        assert_eq!(
            as_num(eval_const(&Expr::Call(Func::Round, vec![dec("2.5")]))),
            3.0
        );
    }

    #[test]
    fn year_extraction() {
        use sofos_rdf::Literal;
        let dt = Expr::Const(Term::Literal(Literal::date_time(2019, 6, 30, 1, 2, 3)));
        assert_eq!(
            eval_const(&Expr::Call(Func::Year, vec![dt.clone()])),
            Some(Value::Numeric(Numeric::Integer(2019)))
        );
        assert_eq!(
            eval_const(&Expr::Call(Func::Month, vec![dt])),
            Some(Value::Numeric(Numeric::Integer(6)))
        );
        let gyear = Expr::Const(Term::Literal(Literal::year(2020)));
        assert_eq!(
            eval_const(&Expr::Call(Func::Year, vec![gyear])),
            Some(Value::Numeric(Numeric::Integer(2020)))
        );
    }

    #[test]
    fn coalesce_and_if() {
        let error = Expr::Arith(ArithOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(
            eval_const(&Expr::Call(
                Func::Coalesce,
                vec![error.clone(), Expr::int(7)]
            )),
            Some(Value::Numeric(Numeric::Integer(7)))
        );
        let cond = Expr::Compare(
            CompareOp::Lt,
            Box::new(Expr::int(1)),
            Box::new(Expr::int(2)),
        );
        assert_eq!(
            eval_const(&Expr::Call(
                Func::If,
                vec![cond, Expr::int(10), Expr::int(20)]
            )),
            Some(Value::Numeric(Numeric::Integer(10)))
        );
    }

    #[test]
    fn in_membership() {
        let e = Expr::In(Box::new(Expr::int(2)), vec![Expr::int(1), Expr::int(2)]);
        assert_eq!(boolean(&e), Some(true));
        let e = Expr::In(Box::new(Expr::int(5)), vec![Expr::int(1), Expr::int(2)]);
        assert_eq!(boolean(&e), Some(false));
    }

    #[test]
    fn regex_lite() {
        assert!(regex_lite_match("hello world", "lo w"));
        assert!(regex_lite_match("hello", "^hel"));
        assert!(!regex_lite_match("hello", "^ell"));
        assert!(regex_lite_match("hello", "llo$"));
        assert!(!regex_lite_match("hello", "^hell$"));
        assert!(regex_lite_match("hello", "^h.llo$"));
        assert!(regex_lite_match("heeeello", "^he*llo$"));
        assert!(regex_lite_match("hllo", "^he*llo$"));
        assert!(regex_lite_match("abcdef", "a.*f"));
        assert!(regex_lite_match("abcdef", "^a.*f$"));
        assert!(!regex_lite_match("abcdefg", "^a.*f$"));
        assert!(regex_lite_match("anything", ".*"));
        assert!(regex_lite_match("", "^$"));
        assert!(!regex_lite_match("", "a"));
    }

    #[test]
    fn aggregates_without_context_are_errors() {
        let agg = Expr::Aggregate(Aggregate::Count {
            distinct: false,
            expr: None,
        });
        assert_eq!(eval_const(&agg), None);
    }

    #[test]
    fn aggregate_resolution_through_context() {
        let dict = Dictionary::new();
        let var_index = FxHashMap::default();
        let bindings = Vec::new();
        let count = Aggregate::Count {
            distinct: false,
            expr: None,
        };
        let expr = Expr::Compare(
            CompareOp::Gt,
            Box::new(Expr::Aggregate(count.clone())),
            Box::new(Expr::int(2)),
        );
        let Expr::Compare(_, node, _) = &expr else {
            unreachable!()
        };
        let Expr::Aggregate(node) = node.as_ref() else {
            unreachable!()
        };
        let nodes = [(node, 0)];
        let values = [Some(Value::Numeric(Numeric::Integer(3)))];
        let ctx = AggContext {
            nodes: &nodes,
            values: &values,
        };
        let scope = EvalScope {
            dict: &dict,
            var_index: &var_index,
            bindings: &bindings,
            aggs: Some(&ctx),
        };
        assert_eq!(eval_expr(&expr, &scope).unwrap(), Value::Boolean(true));
        // An equal aggregate elsewhere is not one of the group's nodes.
        assert_eq!(eval_expr(&Expr::Aggregate(count), &scope), None);
    }
}
