//! N-Triples parsing and serialization (the interchange format SOFOS uses
//! for loading fixtures and exporting generated datasets).
//!
//! Supported per the W3C N-Triples grammar: IRIs in angle brackets, `_:`
//! blank nodes, literals with `\"` escapes, language tags and `^^` datatypes,
//! `#` comment lines, and blank lines. Unicode escapes `\uXXXX`/`\UXXXXXXXX`
//! are decoded. [`write_term`] is the one term writer: every term's and
//! triple's `Display` and [`write_ntriples`] go through it.

use crate::error::RdfError;
use crate::literal::{Literal, LiteralKind};
use crate::term::{BlankNode, Iri, Term};
use crate::triple::{Graph, Triple};
use std::fmt;

/// Parse an N-Triples document into a [`Graph`].
pub fn parse_ntriples(input: &str) -> Result<Graph, RdfError> {
    let mut graph = Graph::new();
    for (lineno, raw_line) in input.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let triple = parse_line(line, lineno + 1)?;
        graph.insert(triple);
    }
    Ok(graph)
}

/// Serialize a graph as N-Triples (sorted, one triple per line).
pub fn write_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for triple in graph.iter() {
        let _ = write_triple(triple, &mut out);
        out.push('\n');
    }
    out
}

/// Append `term`'s N-Triples form to `out`: `<iri>`, `_:label`, or a
/// quoted literal with its `@lang` or `^^<datatype>`. A literal's
/// lexical form is copied in runs between the characters it escapes
/// (`"`, `\`, `\n`, `\r`, `\t`), not one character at a time. Writing
/// to a `String` never fails.
pub fn write_term<W: fmt::Write + ?Sized>(term: &Term, out: &mut W) -> fmt::Result {
    match term {
        Term::Iri(iri) => write_iri(iri, out),
        Term::Blank(b) => {
            out.write_str("_:")?;
            out.write_str(b.as_str())
        }
        Term::Literal(lit) => write_literal(lit, out),
    }
}

pub(crate) fn write_iri<W: fmt::Write + ?Sized>(iri: &Iri, out: &mut W) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(iri.as_str())?;
    out.write_char('>')
}

pub(crate) fn write_literal<W: fmt::Write + ?Sized>(lit: &Literal, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let text = lit.lexical();
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.write_str(&text[run..i])?;
        out.write_str(escaped)?;
        run = i + 1;
    }
    out.write_str(&text[run..])?;
    out.write_char('"')?;
    match lit.kind() {
        LiteralKind::Plain => Ok(()),
        LiteralKind::Lang(tag) => {
            out.write_char('@')?;
            out.write_str(tag)
        }
        LiteralKind::Typed(datatype) => {
            out.write_str("^^")?;
            write_iri(datatype, out)
        }
    }
}

pub(crate) fn write_triple<W: fmt::Write + ?Sized>(triple: &Triple, out: &mut W) -> fmt::Result {
    write_term(&triple.subject, out)?;
    out.write_char(' ')?;
    write_term(&triple.predicate, out)?;
    out.write_char(' ')?;
    write_term(&triple.object, out)?;
    out.write_str(" .")
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::Syntax {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), RdfError> {
        match self.bump() {
            Some(b) if b == byte => Ok(()),
            other => Err(self.err(format!(
                "expected {:?}, found {:?}",
                byte as char,
                other.map(|b| b as char)
            ))),
        }
    }

    fn str_slice(&self, start: usize, end: usize) -> Result<&'a str, RdfError> {
        std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| self.err("invalid UTF-8 inside token"))
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<Triple, RdfError> {
    let mut cur = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
        line: lineno,
    };

    cur.skip_ws();
    let subject = parse_term(&mut cur)?;
    cur.skip_ws();
    let predicate = parse_term(&mut cur)?;
    cur.skip_ws();
    let object = parse_term(&mut cur)?;
    cur.skip_ws();
    cur.expect(b'.')?;
    cur.skip_ws();
    if let Some(rest) = cur.peek() {
        if rest != b'#' {
            return Err(cur.err("trailing content after '.'"));
        }
    }
    Triple::new(subject, predicate, object)
}

fn parse_term(cur: &mut Cursor<'_>) -> Result<Term, RdfError> {
    match cur.peek() {
        Some(b'<') => parse_iri(cur).map(Term::Iri),
        Some(b'_') => parse_blank(cur).map(Term::Blank),
        Some(b'"') => parse_literal(cur).map(Term::Literal),
        other => Err(cur.err(format!(
            "expected term, found {:?}",
            other.map(|b| b as char)
        ))),
    }
}

fn parse_iri(cur: &mut Cursor<'_>) -> Result<Iri, RdfError> {
    cur.expect(b'<')?;
    let start = cur.pos;
    loop {
        match cur.bump() {
            Some(b'>') => break,
            Some(_) => {}
            None => return Err(cur.err("unterminated IRI")),
        }
    }
    let text = cur.str_slice(start, cur.pos - 1)?;
    Iri::new(text)
}

fn parse_blank(cur: &mut Cursor<'_>) -> Result<BlankNode, RdfError> {
    cur.expect(b'_')?;
    cur.expect(b':')?;
    let start = cur.pos;
    while matches!(cur.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
    {
        cur.pos += 1;
    }
    let label = cur.str_slice(start, cur.pos)?;
    BlankNode::new(label)
}

fn parse_literal(cur: &mut Cursor<'_>) -> Result<Literal, RdfError> {
    cur.expect(b'"')?;
    let mut value = String::new();
    loop {
        match cur.bump() {
            Some(b'"') => break,
            Some(b'\\') => match cur.bump() {
                Some(b'"') => value.push('"'),
                Some(b'\\') => value.push('\\'),
                Some(b'n') => value.push('\n'),
                Some(b'r') => value.push('\r'),
                Some(b't') => value.push('\t'),
                Some(b'u') => value.push(parse_unicode_escape(cur, 4)?),
                Some(b'U') => value.push(parse_unicode_escape(cur, 8)?),
                other => {
                    return Err(cur.err(format!("invalid escape \\{:?}", other.map(|b| b as char))))
                }
            },
            Some(b) if b < 0x80 => value.push(b as char),
            Some(b) => {
                // Re-assemble the multi-byte UTF-8 sequence.
                let len = utf8_len(b);
                let start = cur.pos - 1;
                for _ in 1..len {
                    cur.bump()
                        .ok_or_else(|| cur.err("truncated UTF-8 sequence"))?;
                }
                value.push_str(cur.str_slice(start, cur.pos)?);
            }
            None => return Err(cur.err("unterminated literal")),
        }
    }
    match cur.peek() {
        Some(b'@') => {
            cur.pos += 1;
            let start = cur.pos;
            while matches!(cur.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'-') {
                cur.pos += 1;
            }
            if cur.pos == start {
                return Err(cur.err("empty language tag"));
            }
            let tag = cur.str_slice(start, cur.pos)?;
            Ok(Literal::lang_string(value, tag))
        }
        Some(b'^') => {
            cur.expect(b'^')?;
            cur.expect(b'^')?;
            let datatype = parse_iri(cur)?;
            Ok(Literal::typed(value, datatype))
        }
        _ => Ok(Literal::string(value)),
    }
}

fn parse_unicode_escape(cur: &mut Cursor<'_>, digits: usize) -> Result<char, RdfError> {
    let mut code: u32 = 0;
    for _ in 0..digits {
        let b = cur
            .bump()
            .ok_or_else(|| cur.err("truncated unicode escape"))?;
        let d = (b as char)
            .to_digit(16)
            .ok_or_else(|| cur.err("non-hex digit in unicode escape"))?;
        code = code * 16 + d;
    }
    char::from_u32(code).ok_or_else(|| cur.err("invalid unicode code point"))
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn parses_basic_document() {
        let doc = "\
# a comment
<http://e/s> <http://e/p> <http://e/o> .

<http://e/s> <http://e/p> \"plain\" .
<http://e/s> <http://e/p> \"tagged\"@en-US .
<http://e/s> <http://e/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://e/p> _:b2 .
";
        let g = parse_ntriples(doc).expect("valid document");
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn round_trips_through_serializer() {
        let doc = "\
<http://e/s> <http://e/p> \"a\\\"b\\nc\" .
<http://e/s> <http://e/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:x <http://e/p> \"v\"@fr .
";
        let g1 = parse_ntriples(doc).unwrap();
        let out = write_ntriples(&g1);
        let g2 = parse_ntriples(&out).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn unicode_escapes_decode() {
        let doc = "<http://e/s> <http://e/p> \"caf\\u00e9\" .";
        let g = parse_ntriples(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object.as_literal().unwrap().lexical(), "café");
    }

    #[test]
    fn raw_utf8_in_literals_survives() {
        let doc = "<http://e/s> <http://e/p> \"naïve 日本\" .";
        let g = parse_ntriples(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object.as_literal().unwrap().lexical(), "naïve 日本");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> <bad";
        match parse_ntriples(doc) {
            Err(RdfError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_literal_subject() {
        let doc = "\"lit\" <http://e/p> <http://e/o> .";
        assert!(matches!(
            parse_ntriples(doc),
            Err(RdfError::InvalidPosition(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> . extra";
        assert!(parse_ntriples(doc).is_err());
    }

    #[test]
    fn allows_trailing_comment() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> . # note";
        assert_eq!(parse_ntriples(doc).unwrap().len(), 1);
    }

    #[test]
    fn typed_literal_datatype_preserved() {
        let doc = "<http://e/s> <http://e/p> \"2.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> .";
        let g = parse_ntriples(doc).unwrap();
        let lit = g
            .iter()
            .next()
            .unwrap()
            .object
            .as_literal()
            .unwrap()
            .clone();
        assert_eq!(lit.datatype_str(), xsd::DECIMAL);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_iri() -> impl Strategy<Value = Term> {
        "[a-z]{1,8}(/[a-z0-9]{1,8}){0,2}"
            .prop_map(|path| Term::iri(format!("http://example.org/{path}")))
    }

    fn arb_literal() -> impl Strategy<Value = Term> {
        prop_oneof![
            // Includes characters that require escaping.
            "[ -~]{0,20}".prop_map(Term::literal_str),
            any::<i64>().prop_map(Term::literal_int),
            ("[ -~]{0,10}", "[a-z]{2}")
                .prop_map(|(v, l)| Term::Literal(Literal::lang_string(v, l))),
        ]
    }

    fn arb_triple() -> impl Strategy<Value = Triple> {
        (arb_iri(), arb_iri(), prop_oneof![arb_iri(), arb_literal()])
            .prop_map(|(s, p, o)| Triple::new_unchecked(s, p, o))
    }

    proptest! {
        #[test]
        fn serialize_parse_round_trip(triples in proptest::collection::vec(arb_triple(), 0..30)) {
            let g1: Graph = triples.into_iter().collect();
            let text = write_ntriples(&g1);
            let g2 = parse_ntriples(&text).expect("serializer output must parse");
            prop_assert_eq!(g1, g2);
        }
    }
}
