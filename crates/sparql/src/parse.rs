//! Recursive-descent parser for the SPARQL subset.
//!
//! Grammar (informally):
//!
//! ```text
//! Query      := (PREFIX pname: <iri>)* Select
//! Select     := SELECT DISTINCT? ( '*' | Item+ ) WHERE? Group Modifiers
//! Item       := Var | '(' Expr AS Var ')'
//! Group      := '{' ( Triples | FILTER '(' Expr ')' | OPTIONAL Group
//!                   | GRAPH Iri Group )* '}'
//! Triples    := Subject Props ( '.' (Subject Props)? )*
//! Props      := Verb Objects ( ';' Verb Objects )*
//! Objects    := Object ( ',' Object )*
//! Modifiers  := (GROUP BY Var+)? (HAVING Expr)? (ORDER BY Cond+)?
//!               (LIMIT int)? (OFFSET int)?
//! ```
//!
//! Expressions use conventional precedence: `||` < `&&` < comparisons/IN
//! < `+ -` < `* /` < unary < primary.
//!
//! Groups, expressions and prefix operators nest at most 128 levels deep
//! (counted together), so a hostile query cannot overflow the stack of
//! the worker parsing it.

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::token::{tokenize, Token, TokenKind};
use sofos_rdf::{FxHashMap, Iri, Literal, Term};

/// How many groups, expressions and prefix operators may enclose one
/// another before [`parse_query`] rejects the query.
const MAX_DEPTH: usize = 128;

/// Parse a SELECT query from text.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        prefixes: FxHashMap::default(),
    };
    let query = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
    prefixes: FxHashMap<String, String>,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].position
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> SparqlError {
        SparqlError::Parse {
            position: self.position(),
            message: message.into(),
        }
    }

    /// Run `parse` one nesting level deeper, or fail past [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("trailing tokens after query: {:?}", self.peek())))
        }
    }

    fn expand_prefixed(&self, prefix: &str, local: &str) -> Result<Iri> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(Iri::new_unchecked(format!("{ns}{local}"))),
            None => Err(self.error(format!("undeclared prefix {prefix:?}"))),
        }
    }

    // ---- query structure ------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        while self.eat_keyword("PREFIX") {
            let (prefix, local) = match self.bump() {
                TokenKind::PrefixedName(p, l) => (p, l),
                other => return Err(self.error(format!("expected prefix name, found {other:?}"))),
            };
            if !local.is_empty() {
                return Err(self.error("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                TokenKind::Iri(iri) => iri,
                other => return Err(self.error(format!("expected IRI, found {other:?}"))),
            };
            self.prefixes.insert(prefix, iri);
        }

        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");

        let mut select = Vec::new();
        let mut wildcard = false;
        if self.eat_punct("*") {
            wildcard = true;
        } else {
            loop {
                match self.peek() {
                    TokenKind::Var(_) => {
                        if let TokenKind::Var(name) = self.bump() {
                            select.push(SelectItem::Var(name));
                        }
                    }
                    TokenKind::Punct("(") => {
                        self.bump();
                        let expr = self.parse_expr()?;
                        self.expect_keyword("AS")?;
                        let alias = match self.bump() {
                            TokenKind::Var(v) => v,
                            other => {
                                return Err(self
                                    .error(format!("expected variable after AS, found {other:?}")))
                            }
                        };
                        self.expect_punct(")")?;
                        select.push(SelectItem::Expr { expr, alias });
                    }
                    _ => break,
                }
            }
            if select.is_empty() {
                return Err(self.error("SELECT clause needs at least one item or '*'"));
            }
        }

        // WHERE keyword is optional before '{'.
        self.eat_keyword("WHERE");
        let pattern = self.parse_group(GraphSpec::Default)?;

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let TokenKind::Var(_) = self.peek() {
                if let TokenKind::Var(name) = self.bump() {
                    group_by.push(name);
                }
            }
            if group_by.is_empty() {
                return Err(self.error("GROUP BY needs at least one variable"));
            }
        }

        let having = if self.eat_keyword("HAVING") {
            self.expect_punct("(")?;
            let e = self.parse_expr()?;
            self.expect_punct(")")?;
            Some(e)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek() {
                    TokenKind::Keyword(k) if k == "ASC" || k == "DESC" => {
                        let descending = k == "DESC";
                        self.bump();
                        self.expect_punct("(")?;
                        let expr = self.parse_expr()?;
                        self.expect_punct(")")?;
                        order_by.push(OrderCond { expr, descending });
                    }
                    TokenKind::Var(_) => {
                        if let TokenKind::Var(name) = self.bump() {
                            order_by.push(OrderCond {
                                expr: Expr::Var(name),
                                descending: false,
                            });
                        }
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.error("ORDER BY needs at least one condition"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if self.eat_keyword("OFFSET") {
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }

        Ok(Query {
            select,
            wildcard,
            distinct,
            pattern,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_usize(&mut self) -> Result<usize> {
        match self.bump() {
            TokenKind::Integer(text) => text
                .parse::<usize>()
                .map_err(|_| self.error(format!("integer out of range: {text}"))),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    // ---- group graph patterns -------------------------------------------

    fn parse_group(&mut self, graph: GraphSpec) -> Result<GroupPattern> {
        self.nested(|parser| parser.parse_group_body(graph))
    }

    fn parse_group_body(&mut self, graph: GraphSpec) -> Result<GroupPattern> {
        self.expect_punct("{")?;
        let mut elements = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Punct("}") => {
                    self.bump();
                    break;
                }
                TokenKind::Keyword(k) if k == "FILTER" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let expr = self.parse_expr()?;
                    self.expect_punct(")")?;
                    elements.push(PatternElement::Filter(expr));
                    self.eat_punct(".");
                }
                TokenKind::Keyword(k) if k == "OPTIONAL" => {
                    self.bump();
                    let inner = self.parse_group(graph.clone())?;
                    elements.push(PatternElement::Optional(inner));
                    self.eat_punct(".");
                }
                TokenKind::Keyword(k) if k == "BIND" => {
                    self.bump();
                    self.expect_punct("(")?;
                    let expr = self.parse_expr()?;
                    self.expect_keyword("AS")?;
                    let var = match self.bump() {
                        TokenKind::Var(v) => v,
                        other => {
                            return Err(
                                self.error(format!("expected variable after AS, found {other:?}"))
                            )
                        }
                    };
                    self.expect_punct(")")?;
                    elements.push(PatternElement::Bind { expr, var });
                    self.eat_punct(".");
                }
                TokenKind::Keyword(k) if k == "VALUES" => {
                    self.bump();
                    elements.push(self.parse_values()?);
                    self.eat_punct(".");
                }
                TokenKind::Punct("{") => {
                    // Nested group; possibly the head of a UNION chain.
                    let first = self.parse_group(graph.clone())?;
                    if matches!(self.peek(), TokenKind::Keyword(k) if k == "UNION") {
                        let mut union = first;
                        while self.eat_keyword("UNION") {
                            let next = self.parse_group(graph.clone())?;
                            union = GroupPattern {
                                elements: vec![PatternElement::Union(union, next)],
                            };
                        }
                        elements.extend(union.elements);
                    } else {
                        // A plain nested group: splice its elements.
                        elements.extend(first.elements);
                    }
                    self.eat_punct(".");
                }
                TokenKind::Keyword(k) if k == "GRAPH" => {
                    self.bump();
                    let iri = match self.bump() {
                        TokenKind::Iri(iri) => Iri::new_unchecked(iri),
                        TokenKind::PrefixedName(p, l) => self.expand_prefixed(&p, &l)?,
                        other => {
                            return Err(self.error(format!(
                                "GRAPH expects an IRI (variables unsupported), found {other:?}"
                            )))
                        }
                    };
                    let inner = self.parse_group(GraphSpec::Named(iri))?;
                    elements.extend(inner.elements);
                    self.eat_punct(".");
                }
                TokenKind::Eof => return Err(self.error("unterminated group pattern")),
                _ => {
                    let patterns = self.parse_triples_block()?;
                    elements.push(PatternElement::Triples {
                        graph: graph.clone(),
                        patterns,
                    });
                }
            }
        }
        Ok(GroupPattern { elements })
    }

    /// One or more triples-same-subject, separated by '.'.
    fn parse_triples_block(&mut self) -> Result<Vec<TriplePattern>> {
        let mut patterns = Vec::new();
        loop {
            let subject = self.parse_pattern_term()?;
            // Property list: verb objects ( ';' verb objects )*
            loop {
                let predicate = self.parse_verb()?;
                loop {
                    let object = self.parse_pattern_term()?;
                    patterns.push(TriplePattern::new(
                        subject.clone(),
                        predicate.clone(),
                        object,
                    ));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                if !self.eat_punct(";") {
                    break;
                }
                // Allow a dangling ';' before '.' or '}'.
                if matches!(self.peek(), TokenKind::Punct(".") | TokenKind::Punct("}")) {
                    break;
                }
            }
            if !self.eat_punct(".") {
                break;
            }
            // '.' may terminate the block.
            match self.peek() {
                TokenKind::Punct("}") | TokenKind::Keyword(_) | TokenKind::Eof => break,
                _ => continue,
            }
        }
        Ok(patterns)
    }

    /// `VALUES ?v { t ... }` or `VALUES (?a ?b) { (t u) ... }`; `UNDEF`
    /// leaves a cell unbound.
    fn parse_values(&mut self) -> Result<PatternElement> {
        let mut vars = Vec::new();
        let parenthesized = self.eat_punct("(");
        while let TokenKind::Var(_) = self.peek() {
            if let TokenKind::Var(v) = self.bump() {
                vars.push(v);
            }
            if !parenthesized {
                break;
            }
        }
        if parenthesized {
            self.expect_punct(")")?;
        }
        if vars.is_empty() {
            return Err(self.error("VALUES needs at least one variable"));
        }
        self.expect_punct("{")?;
        let mut rows = Vec::new();
        loop {
            if self.eat_punct("}") {
                break;
            }
            let mut row = Vec::with_capacity(vars.len());
            if vars.len() == 1 && !matches!(self.peek(), TokenKind::Punct("(")) {
                row.push(self.parse_values_cell()?);
            } else {
                self.expect_punct("(")?;
                for _ in 0..vars.len() {
                    row.push(self.parse_values_cell()?);
                }
                self.expect_punct(")")?;
            }
            rows.push(row);
        }
        Ok(PatternElement::Values { vars, rows })
    }

    fn parse_values_cell(&mut self) -> Result<Option<Term>> {
        if matches!(self.peek(), TokenKind::Keyword(k) if k == "UNDEF") {
            self.bump();
            return Ok(None);
        }
        match self.parse_pattern_term()? {
            PatternTerm::Const(t) => Ok(Some(t)),
            PatternTerm::Var(v) => {
                Err(self.error(format!("variable ?{v} not allowed in VALUES data")))
            }
        }
    }

    fn parse_verb(&mut self) -> Result<PatternTerm> {
        if self.eat_punct("a") {
            return Ok(PatternTerm::iri(sofos_rdf::vocab::rdf::TYPE));
        }
        self.parse_pattern_term()
    }

    fn parse_pattern_term(&mut self) -> Result<PatternTerm> {
        let term = match self.bump() {
            TokenKind::Var(name) => return Ok(PatternTerm::Var(name)),
            TokenKind::Iri(iri) => Term::iri(iri),
            TokenKind::PrefixedName(p, l) => Term::Iri(self.expand_prefixed(&p, &l)?),
            TokenKind::BlankNode(label) => Term::blank(label),
            TokenKind::String(value) => self.finish_literal(value)?,
            TokenKind::Integer(text) => Term::Literal(Literal::typed(
                text,
                Iri::new_unchecked(sofos_rdf::vocab::xsd::INTEGER),
            )),
            TokenKind::Decimal(text) => Term::Literal(Literal::typed(
                text,
                Iri::new_unchecked(sofos_rdf::vocab::xsd::DECIMAL),
            )),
            TokenKind::Double(text) => Term::Literal(Literal::typed(
                text,
                Iri::new_unchecked(sofos_rdf::vocab::xsd::DOUBLE),
            )),
            TokenKind::Keyword(k) if k == "TRUE" => Term::Literal(Literal::boolean(true)),
            TokenKind::Keyword(k) if k == "FALSE" => Term::Literal(Literal::boolean(false)),
            other => return Err(self.error(format!("expected term, found {other:?}"))),
        };
        Ok(PatternTerm::Const(term))
    }

    /// A string body has been consumed; attach `@lang` / `^^<dt>` if present.
    fn finish_literal(&mut self, value: String) -> Result<Term> {
        match self.peek() {
            TokenKind::LangTag(_) => {
                if let TokenKind::LangTag(tag) = self.bump() {
                    Ok(Term::Literal(Literal::lang_string(value, tag)))
                } else {
                    unreachable!("peeked LangTag")
                }
            }
            TokenKind::Punct("^^") => {
                self.bump();
                let datatype = match self.bump() {
                    TokenKind::Iri(iri) => Iri::new_unchecked(iri),
                    TokenKind::PrefixedName(p, l) => self.expand_prefixed(&p, &l)?,
                    other => {
                        return Err(self.error(format!("expected datatype IRI, found {other:?}")))
                    }
                };
                Ok(Term::Literal(Literal::typed(value, datatype)))
            }
            _ => Ok(Term::Literal(Literal::string(value))),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_punct("||") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_comparison()?;
        while self.eat_punct("&&") {
            let right = self.parse_comparison()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => Some(CompareOp::Eq),
            TokenKind::Punct("!=") => Some(CompareOp::Ne),
            TokenKind::Punct("<") => Some(CompareOp::Lt),
            TokenKind::Punct("<=") => Some(CompareOp::Le),
            TokenKind::Punct(">") => Some(CompareOp::Gt),
            TokenKind::Punct(">=") => Some(CompareOp::Ge),
            TokenKind::Keyword(k) if k == "IN" => {
                self.bump();
                self.expect_punct("(")?;
                let mut items = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                return Ok(Expr::In(Box::new(left), items));
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let right = self.parse_additive()?;
                Ok(Expr::Compare(op, Box::new(left), Box::new(right)))
            }
            None => Ok(left),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            if self.eat_punct("+") {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Add, Box::new(left), Box::new(right));
            } else if self.eat_punct("-") {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Sub, Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            if self.eat_punct("*") {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Mul, Box::new(left), Box::new(right));
            } else if self.eat_punct("/") {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Div, Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_punct("!") {
            return Ok(Expr::Not(Box::new(self.nested(Self::parse_unary)?)));
        }
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.nested(Self::parse_unary)?)));
        }
        if self.eat_punct("+") {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Var(_) => {
                if let TokenKind::Var(name) = self.bump() {
                    Ok(Expr::Var(name))
                } else {
                    unreachable!("peeked Var")
                }
            }
            TokenKind::Iri(_)
            | TokenKind::PrefixedName(..)
            | TokenKind::String(_)
            | TokenKind::Integer(_)
            | TokenKind::Decimal(_)
            | TokenKind::Double(_)
            | TokenKind::BlankNode(_) => match self.parse_pattern_term()? {
                PatternTerm::Const(t) => Ok(Expr::Const(t)),
                PatternTerm::Var(_) => unreachable!("vars handled above"),
            },
            TokenKind::Keyword(kw) => self.parse_keyword_expr(&kw),
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_keyword_expr(&mut self, kw: &str) -> Result<Expr> {
        // Aggregates.
        if let "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" = kw {
            self.bump();
            self.expect_punct("(")?;
            let distinct = self.eat_keyword("DISTINCT");
            if kw == "COUNT" && self.eat_punct("*") {
                self.expect_punct(")")?;
                return Ok(Expr::Aggregate(Aggregate::Count {
                    distinct,
                    expr: None,
                }));
            }
            let inner = Box::new(self.parse_expr()?);
            self.expect_punct(")")?;
            let agg = match kw {
                "COUNT" => Aggregate::Count {
                    distinct,
                    expr: Some(inner),
                },
                "SUM" => Aggregate::Sum {
                    distinct,
                    expr: inner,
                },
                "AVG" => Aggregate::Avg {
                    distinct,
                    expr: inner,
                },
                "MIN" => Aggregate::Min { expr: inner },
                "MAX" => Aggregate::Max { expr: inner },
                _ => unreachable!(),
            };
            return Ok(Expr::Aggregate(agg));
        }

        if kw == "TRUE" {
            self.bump();
            return Ok(Expr::Const(Term::Literal(Literal::boolean(true))));
        }
        if kw == "FALSE" {
            self.bump();
            return Ok(Expr::Const(Term::Literal(Literal::boolean(false))));
        }

        let func = match kw {
            "BOUND" => Func::Bound,
            "STR" => Func::Str,
            "LANG" => Func::Lang,
            "DATATYPE" => Func::Datatype,
            "ISIRI" | "ISURI" => Func::IsIri,
            "ISBLANK" => Func::IsBlank,
            "ISLITERAL" => Func::IsLiteral,
            "ISNUMERIC" => Func::IsNumeric,
            "ABS" => Func::Abs,
            "CEIL" => Func::Ceil,
            "FLOOR" => Func::Floor,
            "ROUND" => Func::Round,
            "STRLEN" => Func::StrLen,
            "CONTAINS" => Func::Contains,
            "STRSTARTS" => Func::StrStarts,
            "STRENDS" => Func::StrEnds,
            "UCASE" => Func::UCase,
            "LCASE" => Func::LCase,
            "YEAR" => Func::Year,
            "MONTH" => Func::Month,
            "DAY" => Func::Day,
            "REGEX" => Func::Regex,
            "COALESCE" => Func::Coalesce,
            "IF" => Func::If,
            other => return Err(self.error(format!("unexpected keyword {other} in expression"))),
        };
        self.bump();
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let arity_ok = match func {
            Func::Bound
            | Func::Str
            | Func::Lang
            | Func::Datatype
            | Func::IsIri
            | Func::IsBlank
            | Func::IsLiteral
            | Func::IsNumeric
            | Func::Abs
            | Func::Ceil
            | Func::Floor
            | Func::Round
            | Func::StrLen
            | Func::UCase
            | Func::LCase
            | Func::Year
            | Func::Month
            | Func::Day => args.len() == 1,
            Func::Contains | Func::StrStarts | Func::StrEnds | Func::Regex => args.len() == 2,
            Func::If => args.len() == 3,
            Func::Coalesce => !args.is_empty(),
        };
        if !arity_ok {
            return Err(self.error(format!("wrong number of arguments for {func:?}")));
        }
        Ok(Expr::Call(func, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_analytical_form() {
        // The paper's running example (Example 1.1): total French-speaking
        // population — SELECT X̄ agg(u) WHERE P GROUP BY X̄.
        let q = parse_query(
            "PREFIX ex: <http://e/>
             SELECT ?country (SUM(?pop) AS ?total)
             WHERE {
               ?obs ex:country ?country .
               ?obs ex:language ?lang .
               ?obs ex:population ?pop .
               FILTER (?lang = \"French\")
             }
             GROUP BY ?country",
        )
        .expect("parses");
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.group_by, ["country"]);
        assert!(!q.distinct);
        match &q.select[1] {
            SelectItem::Expr {
                expr: Expr::Aggregate(Aggregate::Sum { .. }),
                alias,
            } => {
                assert_eq!(alias, "total");
            }
            other => panic!("expected SUM aggregate, got {other:?}"),
        }
        // Pattern: 3 triples + 1 filter.
        assert_eq!(q.pattern.elements.len(), 2);
    }

    #[test]
    fn semicolon_and_comma_abbreviations() {
        let q =
            parse_query("SELECT * WHERE { ?s <http://e/p> ?a , ?b ; <http://e/q> ?c . }").unwrap();
        match &q.pattern.elements[0] {
            PatternElement::Triples { patterns, .. } => {
                assert_eq!(patterns.len(), 3);
                assert!(patterns.iter().all(|p| p.subject == PatternTerm::var("s")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_expands_to_rdf_type() {
        let q = parse_query("SELECT ?s WHERE { ?s a <http://e/C> }").unwrap();
        match &q.pattern.elements[0] {
            PatternElement::Triples { patterns, .. } => {
                assert_eq!(
                    patterns[0].predicate,
                    PatternTerm::iri(sofos_rdf::vocab::rdf::TYPE)
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn graph_clause_scopes_patterns() {
        let q =
            parse_query("SELECT * WHERE { GRAPH <http://g/v1> { ?s ?p ?o } ?a ?b ?c }").unwrap();
        let graphs: Vec<&GraphSpec> = q
            .pattern
            .elements
            .iter()
            .filter_map(|e| match e {
                PatternElement::Triples { graph, .. } => Some(graph),
                _ => None,
            })
            .collect();
        assert_eq!(graphs.len(), 2);
        assert_eq!(
            *graphs[0],
            GraphSpec::Named(Iri::new_unchecked("http://g/v1"))
        );
        assert_eq!(*graphs[1], GraphSpec::Default);
    }

    #[test]
    fn optional_nests() {
        let q = parse_query(
            "SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <http://e/n> ?name FILTER(?name != \"x\") } }",
        )
        .unwrap();
        assert!(q
            .pattern
            .elements
            .iter()
            .any(|e| matches!(e, PatternElement::Optional(inner) if inner.elements.len() == 2)));
    }

    #[test]
    fn modifiers_parse() {
        let q = parse_query(
            "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ?p ?o } GROUP BY ?x
             HAVING (COUNT(*) > 2) ORDER BY DESC(?n) ?x LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn distinct_and_wildcard() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.distinct);
        assert!(q.wildcard);
    }

    #[test]
    fn expression_precedence() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x ?p ?y FILTER(?y > 1 + 2 * 3 && !(?y = 10) || ?x = <http://e/z>) }",
        )
        .unwrap();
        let filter = q
            .pattern
            .elements
            .iter()
            .find_map(|e| match e {
                PatternElement::Filter(f) => Some(f),
                _ => None,
            })
            .expect("has filter");
        // Top level must be OR.
        assert!(matches!(filter, Expr::Or(..)));
    }

    #[test]
    fn count_star_and_distinct_aggregates() {
        let q = parse_query(
            "SELECT (COUNT(*) AS ?n) (COUNT(DISTINCT ?x) AS ?d) (AVG(?v) AS ?a) WHERE { ?x ?p ?v }",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        match &q.select[0] {
            SelectItem::Expr {
                expr: Expr::Aggregate(Aggregate::Count { expr: None, .. }),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        match &q.select[1] {
            SelectItem::Expr {
                expr:
                    Expr::Aggregate(Aggregate::Count {
                        distinct: true,
                        expr: Some(_),
                    }),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn numeric_literal_kinds() {
        let q = parse_query("SELECT * WHERE { ?s ?p ?o FILTER(?o = 2.5 || ?o = 3e1 || ?o = 7) }")
            .unwrap();
        // Just check it parses; kinds are covered by tokenizer tests.
        assert!(!q.pattern.elements.is_empty());
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse_query("SELECT ?x WHERE { ?x foaf:name ?n }").unwrap_err();
        assert!(err.to_string().contains("undeclared prefix"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o").is_err());
        assert!(parse_query("ASK { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT ?x").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o } trailing").is_err());
    }

    #[test]
    fn nesting_is_bounded_on_a_default_stack() {
        // A spawned thread gets the default 2 MiB stack, as the server's
        // workers do: an unbounded descent would abort the process here.
        std::thread::spawn(|| {
            // The WHERE group is one level, so `n` groups nest `n` deep.
            let groups =
                |n: usize| format!("SELECT * WHERE {}?s ?p ?o{}", "{".repeat(n), "}".repeat(n));
            assert!(parse_query(&groups(MAX_DEPTH)).is_ok());
            let err = parse_query(&groups(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
            assert!(parse_query(&groups(100_000)).is_err());

            // WHERE group + FILTER's expression: `n` parentheses nest
            // `n + 2` deep.
            let parens = |n: usize| {
                format!(
                    "SELECT * WHERE {{ ?s ?p ?o FILTER({}?o{}) }}",
                    "(".repeat(n),
                    ")".repeat(n)
                )
            };
            assert!(parse_query(&parens(MAX_DEPTH - 2)).is_ok());
            assert!(parse_query(&parens(MAX_DEPTH - 1)).is_err());
            assert!(parse_query(&parens(100_000)).is_err());
            let negations = format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER({}?o) }}",
                "!".repeat(100_000)
            );
            assert!(parse_query(&negations).is_err());
        })
        .join()
        .expect("no stack overflow");
    }

    #[test]
    fn functions_check_arity() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(CONTAINS(?o)) }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(BOUND(?x, ?o)) }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(IF(?x, 1, 2) = 1) }").is_ok());
    }

    #[test]
    fn in_expression() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o FILTER(?o IN (1, 2, 3)) }").unwrap();
        let filter = q
            .pattern
            .elements
            .iter()
            .find_map(|e| match e {
                PatternElement::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert!(matches!(filter, Expr::In(_, items) if items.len() == 3));
    }

    #[test]
    fn typed_and_tagged_literals_in_patterns() {
        let q = parse_query(
            "SELECT * WHERE { ?s ?p \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> . ?s ?q \"hi\"@en }",
        )
        .unwrap();
        match &q.pattern.elements[0] {
            PatternElement::Triples { patterns, .. } => assert_eq!(patterns.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
