//! A minimal JSON value: emission *and* parsing, no dependencies.
//!
//! No serialization crate exists offline, so this is a small hand-rolled
//! writer plus the matching recursive-descent reader ([`Json::parse`]).
//! It started life as the bench-report format (`BENCH_<experiment>.json`,
//! see `sofos-bench`) and moved here when the serving tier needed the
//! same value type for request/response bodies — telemetry is the one
//! dependency-free crate every consumer (bench, server, workload) can
//! share without a cycle. [`escape_into`] is the one JSON string
//! escaper: the server's `/query` renderer and the open-loop harness's
//! request bodies write through it too.

use std::fmt;

/// How deeply [`Json::parse`] nests arrays and objects before it rejects
/// the document: a hostile body of brackets must not overflow the stack
/// of the worker parsing it.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null` (also what non-finite floats serialize as).
    Null,
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (non-finite values are emitted as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object builder from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document (strict enough for round-tripping this
    /// module's own output; errors carry a byte offset). Arrays and
    /// objects nest at most 128 deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// The object's value for `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Num` unify to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

/// Parse one value whose enclosing arrays/objects number `depth`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                pairs.push((key, parse_value(text, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the unescaped run up to the next `"` or `\` as one slice:
        // both are ASCII, so the cut always falls on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000c}'),
            Some(b'u') => {
                let hex = text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
        }
        *pos += 1;
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = &text[start..*pos];
    if text.is_empty() {
        return Err(format!("expected value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string literal (the
/// writer's escaping rules, exposed for callers that emit JSON by hand,
/// e.g. `BenchReport::to_json`).
pub fn escape_into(s: &str, out: &mut String) {
    let _ = escape_to(s, out);
}

/// The bytes a JSON string escapes: `"`, `\` and the C0 controls.
const ESCAPED: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// [`escape_into`] for any writer. Unescaped runs are copied whole:
/// every escaped byte is ASCII, so a cut always lands on a char
/// boundary.
fn escape_to<W: fmt::Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !ESCAPED[b as usize] {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl Json {
    /// Append this value's JSON rendering to `out`.
    pub fn write(&self, out: &mut String) {
        let _ = self.write_to(out);
    }

    /// The one renderer behind [`Json::write`] and `Display`, so
    /// `to_string` renders straight into its result.
    fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Str(s) => escape_to(s, out),
            Json::Int(v) => write!(out, "{v}"),
            Json::Num(v) if v.is_finite() => write!(out, "{v}"),
            Json::Num(_) => out.write_str("null"),
            Json::Bool(v) => out.write_str(if *v { "true" } else { "false" }),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Object(pairs) => {
                out.write_char('{')?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    escape_to(key, out)?;
                    out.write_char(':')?;
                    value.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_json() {
        let v = Json::object([
            ("name", Json::from("e7")),
            ("count", Json::from(3usize)),
            ("ratio", Json::from(0.5)),
            ("ok", Json::from(true)),
            ("tags", Json::Array(vec![Json::from("a"), Json::from("b")])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"e7","count":3,"ratio":0.5,"ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::object([
            ("name", Json::from("e9 \"quoted\"\nline")),
            ("count", Json::from(3usize)),
            ("neg", Json::from(-7i64)),
            ("ratio", Json::from(0.5)),
            ("big", Json::from(1.5e300)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "tags",
                Json::Array(vec![Json::from("a"), Json::Bool(false)]),
            ),
            ("nested", Json::object([("k", Json::from(1usize))])),
        ]);
        let text = v.to_string();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed.to_string(), text, "write∘parse∘write is stable");
        assert_eq!(parsed.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        assert!(matches!(parsed.get("none"), Some(Json::Null)));
        assert_eq!(
            parsed.get("tags").and_then(Json::items).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn nesting_is_bounded_on_a_default_stack() {
        // A spawned thread gets the default 2 MiB stack, as the server's
        // workers do: an unbounded descent would abort the process here.
        std::thread::spawn(|| {
            let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
            assert!(Json::parse(&nested(100_000)).is_err());
            let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
            assert!(Json::parse(&objects).is_err(), "objects share the bound");
        })
        .join()
        .expect("no stack overflow");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let big = "x".repeat(1 << 20) + "é \" \\ \n ü";
        let doc = Json::from(big.as_str()).to_string();
        let many = Json::Array((0..100_000).map(|i| Json::from(format!("s{i}"))).collect());
        let many_doc = many.to_string();
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("parses");
        let parsed_many = Json::parse(&many_doc).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(parsed.as_str(), Some(big.as_str()));
        assert_eq!(parsed_many.to_string(), many_doc);
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("\"bad \\q escape\"").is_err());
        assert!(Json::parse("\"\\u12\"").is_err());
    }
}
