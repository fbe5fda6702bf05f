//! A minimal HTTP/1.1 message layer over any `Read`/`Write` pair.
//!
//! Hand-rolled because the build environment has no registry access (the
//! same constraint that produced the `vendor/` shims): request parsing is
//! a byte-accumulating state machine that tolerates arbitrary TCP
//! segmentation, supports keep-alive with pipelined-byte carry-over, and
//! enforces hard limits on header and body size so a misbehaving client
//! cannot balloon server memory. Chunked transfer encoding is not
//! supported — every request body must carry `Content-Length`.
//!
//! The layer is deliberately transport-agnostic (`Read`, not
//! `TcpStream`), which is what makes the parser unit-testable under
//! adversarial segmentation (see the tests at the bottom).

use std::io::{Read, Write};

/// Parser limits: both are hard caps, not hints.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers (431 beyond this).
    pub max_header_bytes: usize,
    /// Maximum declared `Content-Length` (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// The request target as sent (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection:`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (everything before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Transport error (includes read timeouts).
    Io(std::io::Error),
    /// Syntactically invalid request (→ 400).
    Malformed(String),
    /// Request line + headers exceeded [`Limits::max_header_bytes`] (→ 431).
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`] (→ 413).
    BodyTooLarge,
    /// The peer closed the connection before sending the declared body
    /// (→ 400; distinguishable for tests).
    BodyTruncated {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// Not HTTP/1.0 or HTTP/1.1 (→ 505).
    UnsupportedVersion(String),
}

impl HttpError {
    /// The response status this error maps to (0 for transport errors,
    /// where no response can be written).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 0,
            HttpError::Malformed(_) | HttpError::BodyTruncated { .. } => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedVersion(_) => 505,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadersTooLarge => write!(f, "request headers too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::BodyTruncated { expected, got } => {
                write!(f, "body truncated: expected {expected} bytes, got {got}")
            }
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version `{v}`"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads successive requests off one connection, carrying over any bytes
/// that arrived past the end of the previous message (keep-alive).
#[derive(Debug)]
pub struct RequestReader<R: Read> {
    inner: R,
    carry: Vec<u8>,
    limits: Limits,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a transport.
    pub fn new(inner: R, limits: Limits) -> RequestReader<R> {
        RequestReader {
            inner,
            carry: Vec::new(),
            limits,
        }
    }

    /// Read the next request. `Ok(None)` means the peer closed the
    /// connection cleanly at a message boundary.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 1024];

        // Accumulate until the blank line ending the header block.
        let header_end = loop {
            if let Some(end) = find_header_end(&buf) {
                break end;
            }
            if buf.len() > self.limits.max_header_bytes {
                return Err(HttpError::HeadersTooLarge);
            }
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("eof inside headers".into()));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        if header_end > self.limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }

        let head = std::str::from_utf8(&buf[..header_end])
            .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
        let (method, target, version) = parse_request_line(head)?;
        let headers = parse_headers(head)?;

        let content_length = match content_length(&headers)? {
            Some(n) if n > self.limits.max_body_bytes => return Err(HttpError::BodyTooLarge),
            Some(n) => n,
            None => 0,
        };
        if headers.iter().any(|(k, _)| k == "transfer-encoding") {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported (use content-length)".into(),
            ));
        }

        // The body: bytes already buffered past the header block, then the
        // remainder read off the wire in one pass. `content_length` is
        // within `max_body_bytes`, so reserving it up front is bounded.
        let buffered = &buf[(header_end + 4).min(buf.len())..];
        let in_buf = buffered.len().min(content_length);
        // Pipelined bytes belong to the next message.
        self.carry = buffered[in_buf..].to_vec();
        let mut body = Vec::with_capacity(content_length);
        body.extend_from_slice(&buffered[..in_buf]);
        let need = (content_length - in_buf) as u64;
        (&mut self.inner).take(need).read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(HttpError::BodyTruncated {
                expected: content_length,
                got: body.len(),
            });
        }

        let keep_alive = keep_alive(&version, &headers);
        Ok(Some(Request {
            method,
            target,
            headers,
            body,
            keep_alive,
        }))
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_request_line(head: &str) -> Result<(String, String, String), HttpError> {
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "request line `{line}` is not `METHOD TARGET VERSION`"
        )));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method `{method}`")));
    }
    if !target.starts_with('/') && target != "*" {
        return Err(HttpError::Malformed(format!("bad target `{target}`")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    Ok((method.to_string(), target.to_string(), version.to_string()))
}

fn parse_headers(head: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header line `{line}` has no colon"
            )));
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut found: Option<usize> = None;
    for (name, value) in headers {
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length `{value}`")))?;
            if found.is_some_and(|prev| prev != n) {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            found = Some(n);
        }
    }
    Ok(found)
}

fn keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    match connection {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (content-type and friends; `Content-Length` and
    /// `Connection` are added by [`Response::write_to`]).
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", "text/plain; charset=utf-8".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Serialize onto the wire. `keep_alive` decides the `Connection`
    /// header (the caller owns actually closing the stream).
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            status_reason(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// A `Read` that hands out its script in deliberately tiny pieces —
    /// adversarial TCP segmentation. Piece sizes cycle through `segments`.
    struct Segmented {
        data: Vec<u8>,
        pos: usize,
        segments: Vec<usize>,
        reads: usize,
    }

    impl Segmented {
        fn new(data: impl Into<Vec<u8>>, segments: &[usize]) -> Segmented {
            Segmented {
                data: data.into(),
                pos: 0,
                segments: segments.to_vec(),
                reads: 0,
            }
        }
    }

    impl Read for Segmented {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let segment = self.segments[self.reads % self.segments.len()];
            self.reads += 1;
            let n = segment.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn reader(data: impl Into<Vec<u8>>, segment: usize) -> RequestReader<Segmented> {
        RequestReader::new(Segmented::new(data, &[segment]), Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let mut r = reader("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 1024);
        let req = r.next_request().unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.next_request().unwrap().is_none(), "clean EOF afterwards");
    }

    #[test]
    fn partial_reads_across_tcp_segments() {
        let msg = "POST /query?x=1 HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        for segment in [1, 2, 3, 7] {
            let mut r = reader(msg, segment);
            let req = r.next_request().unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path(), "/query");
            assert_eq!(req.target, "/query?x=1");
            assert_eq!(req.body, b"hello world", "segment size {segment}");
        }
    }

    #[test]
    fn keep_alive_reuse_and_pipelined_carry_over() {
        // Two messages on one connection; the second arrives glued to the
        // first one's body bytes.
        let msg =
            "POST /update HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\n\r\n";
        for segment in [1, 5, 1024] {
            let mut r = reader(msg, segment);
            let first = r.next_request().unwrap().unwrap();
            assert_eq!(first.body, b"abc");
            let second = r.next_request().unwrap().unwrap();
            assert_eq!(second.method, "GET");
            assert_eq!(second.path(), "/metrics");
            assert!(r.next_request().unwrap().is_none());
        }
    }

    #[test]
    fn connection_close_overrides_keep_alive() {
        let mut r = reader("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 1024);
        assert!(!r.next_request().unwrap().unwrap().keep_alive);
        let mut r = reader("GET / HTTP/1.0\r\n\r\n", 1024);
        assert!(
            !r.next_request().unwrap().unwrap().keep_alive,
            "1.0 default"
        );
        let mut r = reader("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 1024);
        assert!(r.next_request().unwrap().unwrap().keep_alive);
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
        ] {
            let err = reader(bad, 1024).next_request().unwrap_err();
            assert_eq!(err.status(), 400, "{bad:?} → {err}");
        }
        let err = reader("GET / HTTP/2\r\n\r\n", 1024)
            .next_request()
            .unwrap_err();
        assert_eq!(err.status(), 505);
    }

    #[test]
    fn header_lines_need_colons_and_names() {
        let err = reader("GET / HTTP/1.1\r\nno colon here\r\n\r\n", 1024)
            .next_request()
            .unwrap_err();
        assert_eq!(err.status(), 400);
        let err = reader("GET / HTTP/1.1\r\nbad name: x\r\n\r\n", 1024)
            .next_request()
            .unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_headers_are_cut_off() {
        let limits = Limits {
            max_header_bytes: 64,
            ..Limits::default()
        };
        let msg = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(256));
        let mut r = RequestReader::new(Segmented::new(msg, &[7]), limits);
        assert!(matches!(
            r.next_request().unwrap_err(),
            HttpError::HeadersTooLarge
        ));
    }

    #[test]
    fn oversized_bodies_are_refused_up_front() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let msg = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        let mut r = RequestReader::new(Segmented::new(msg, &[1024]), limits);
        assert!(matches!(
            r.next_request().unwrap_err(),
            HttpError::BodyTooLarge
        ));
    }

    #[test]
    fn content_length_mismatch_is_detected() {
        // Declared 10, connection closes after 5.
        let msg = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello";
        let err = reader(msg, 3).next_request().unwrap_err();
        assert!(
            matches!(
                err,
                HttpError::BodyTruncated {
                    expected: 10,
                    got: 5
                }
            ),
            "{err}"
        );
        // Conflicting declarations.
        let msg = "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(reader(msg, 1024).next_request().unwrap_err().status(), 400);
        // Unparseable declaration.
        let msg = "POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n";
        assert_eq!(reader(msg, 1024).next_request().unwrap_err().status(), 400);
    }

    #[test]
    fn eof_inside_headers_is_an_error_not_none() {
        let err = reader("GET / HT", 1024).next_request().unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".to_string())
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n{\"ok\":true}"));
    }

    /// Every request read off `data` until clean EOF or the first error;
    /// `None` when `max_calls` calls of `next_request` did not get there.
    fn read_all(
        data: &[u8],
        segments: &[usize],
        max_calls: usize,
    ) -> Option<(Vec<Request>, Option<HttpError>)> {
        let mut r = RequestReader::new(Segmented::new(data, segments), Limits::default());
        let mut requests = Vec::new();
        for _ in 0..max_calls {
            match r.next_request() {
                Ok(Some(request)) => requests.push(request),
                Ok(None) => return Some((requests, None)),
                Err(e) => return Some((requests, Some(e))),
            }
        }
        None
    }

    /// One well-formed request: random method, target, version, extension
    /// headers and body, sometimes with `Connection: close`.
    fn request() -> impl Strategy<Value = Vec<u8>> {
        let headers = proptest::collection::vec(("x-[a-z0-9-]{1,10}", "[ -~]{0,20}"), 0..4);
        let head = (
            "[A-Z]{1,7}",
            "/[a-z0-9/?=&%.-]{0,24}",
            any::<bool>(),
            headers,
        );
        (head, "[ -~]{0,40}", any::<bool>()).prop_map(
            |((method, target, http10, headers), body, close)| {
                let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
                let mut out = format!("{method} {target} {version}\r\n");
                for (name, value) in headers {
                    out += &format!("{name}: {value}\r\n");
                }
                if close {
                    out += "Connection: close\r\n";
                }
                out += &format!("Content-Length: {}\r\n\r\n{body}", body.len());
                out.into_bytes()
            },
        )
    }

    proptest! {
        #[test]
        fn random_bytes_never_panic_and_the_read_loop_ends(
            data in proptest::collection::vec(0u8..=255, 0..=2048),
            segments in proptest::collection::vec(1usize..=64, 1..=8),
        ) {
            let parsed = read_all(&data, &segments, data.len() / 18 + 2);
            prop_assert!(parsed.is_some(), "read loop did not end on {} bytes", data.len());
        }

        #[test]
        fn segmentation_never_changes_pipelined_requests(
            messages in proptest::collection::vec(request(), 1..=2),
            segments in proptest::collection::vec(1usize..=32, 1..=8),
        ) {
            let data = messages.concat();
            let (whole, err) = read_all(&data, &[data.len()], 4).expect("the loop ends");
            prop_assert!(err.is_none(), "valid requests failed: {err:?}");
            prop_assert_eq!(whole.len(), messages.len());
            let (split, err) = read_all(&data, &segments, 4).expect("the loop ends");
            prop_assert!(err.is_none(), "segments {segments:?} failed: {err:?}");
            // `Request`'s Debug form covers every field: method, target,
            // headers, body and keep_alive.
            prop_assert_eq!(format!("{whole:?}"), format!("{split:?}"));
        }

        #[test]
        fn one_byte_mutation_is_a_request_or_a_client_error(
            message in request(),
            at in any::<usize>(),
            byte in 0u8..=255,
        ) {
            let mut data = message;
            let at = at % data.len();
            data[at] = byte;
            match RequestReader::new(data.as_slice(), Limits::default()).next_request() {
                Ok(request) => prop_assert!(request.is_some(), "byte {byte} at {at} read as EOF"),
                Err(e) => prop_assert!(
                    matches!(e.status(), 400 | 413 | 431 | 505),
                    "byte {byte} at {at} gave {e} (status {})",
                    e.status()
                ),
            }
        }
    }
}
