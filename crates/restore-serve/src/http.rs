//! Hand-rolled HTTP/1.1 request parsing and response encoding — `std` only,
//! in the spirit of `restore-util`'s JSON module. Just enough of the
//! protocol for the serving API: request line + headers + `Content-Length`
//! bodies, percent-decoded paths and query strings, keep-alive by default.
//! No chunked transfer encoding, no TLS, no HTTP/2.
//!
//! Parsing is *incremental*: [`RequestParser`] accumulates whatever bytes
//! the socket happens to deliver — a byte at a time, a pipelined burst of
//! several requests, anything in between — and yields complete requests as
//! they materialize. The event loop (`reactor`) feeds it from
//! nonblocking reads; nothing in this module touches a socket.

use restore_util::json_object;

/// Parse-time limits; oversized inputs answer 413 instead of buffering
/// without bound.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    pub max_head_bytes: usize,
    pub max_body_bytes: usize,
}

/// The limits the server parses every request under.
pub(crate) const LIMITS: Limits = Limits {
    max_head_bytes: 16 * 1024,
    max_body_bytes: 1024 * 1024,
};

impl Default for Limits {
    fn default() -> Self {
        LIMITS
    }
}

/// A parsed request. Header names are lowercased; path and query values are
/// percent-decoded.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    /// The request target as it arrived, still percent-encoded: what the
    /// shard router forwards.
    pub target: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to close the connection after this exchange?
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Path segments with the leading slash stripped: `/v1/t/query` →
    /// `["v1", "t", "query"]`.
    pub(crate) fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// A protocol violation the connection answers (413 / 400) before closing.
#[derive(Debug)]
pub enum ParseError {
    /// The head or body exceeded the limits → 413.
    TooLarge,
    /// Unparseable input → 400 with the message.
    Malformed(String),
}

/// `s` as an unsigned integer when it is ASCII digits only (Rust's integer
/// parsers also take a leading `+`, which no number on the wire here may).
pub(crate) fn parse_digits<T: std::str::FromStr>(s: &str) -> Option<T> {
    let digits = s.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| s.parse().ok())?
}

/// The body length a message's `Content-Length` header values announce, 0
/// without one. A value is digits only ([`parse_digits`]), and repeated
/// headers must agree (RFC 9110 §8.6).
pub(crate) fn content_length<'a>(values: impl Iterator<Item = &'a str>) -> Result<usize, String> {
    let mut length = None;
    for v in values {
        let n = parse_digits(v).ok_or_else(|| format!("bad content-length {v:?}"))?;
        if length.is_some_and(|l| l != n) {
            return Err("conflicting content-length headers".into());
        }
        length = Some(n);
    }
    Ok(length.unwrap_or(0))
}

/// Decodes `%XX` escapes (and `+` as space in query strings). `XX` must be
/// two hex digits; anything else leaves the `%` as it is.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A fully-received head, waiting for its body bytes.
struct PendingHead {
    /// The request with everything but `body` filled in.
    request: Request,
    /// Offset of the first body byte in the parser's buffer.
    body_start: usize,
    content_length: usize,
}

/// Incremental HTTP/1.1 request parser: feed it bytes as they arrive with
/// [`RequestParser::extend`], pull complete requests with
/// [`RequestParser::next_request`]. Tolerates byte-dribble arrivals (the
/// head-terminator scan is memoized, so re-polling after every single byte
/// stays O(total bytes), not O(n²)) and pipelining (leftover bytes stay
/// buffered for the next call).
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the `\r\n\r\n` head terminator
    /// (kept 3 short of the end so a terminator straddling two reads is
    /// still found).
    scanned: usize,
    head: Option<PendingHead>,
}

impl RequestParser {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-arrived socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (unconsumed carry).
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Is a request partially received (head bytes buffered or a complete
    /// head waiting for its body)?
    pub(crate) fn has_partial(&self) -> bool {
        !self.buf.is_empty() || self.head.is_some()
    }

    /// Has the current request's head completed, leaving the parser
    /// waiting on body bytes?
    pub(crate) fn reading_body(&self) -> bool {
        self.head.is_some()
    }

    /// Attempts to produce the next complete request from the buffer.
    /// `Ok(None)` means more bytes are needed; an `Err` is fatal for the
    /// connection (the caller answers 413/400 and closes).
    pub fn next_request(&mut self, limits: &Limits) -> Result<Option<Request>, ParseError> {
        if self.head.is_none() {
            if self.buf.is_empty() {
                return Ok(None);
            }
            let Some(head_end) = find_head_end_from(&self.buf, self.scanned) else {
                self.scanned = self.buf.len().saturating_sub(3);
                if self.buf.len() > limits.max_head_bytes {
                    return Err(ParseError::TooLarge);
                }
                return Ok(None);
            };
            if head_end > limits.max_head_bytes {
                return Err(ParseError::TooLarge);
            }
            let (request, content_length) = parse_head(&self.buf[..head_end])?;
            if content_length > limits.max_body_bytes {
                return Err(ParseError::TooLarge);
            }
            self.head = Some(PendingHead {
                request,
                body_start: head_end + 4,
                content_length,
            });
        }
        let ready = {
            let head = self.head.as_ref().expect("head parsed above");
            self.buf.len() >= head.body_start + head.content_length
        };
        if !ready {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let consumed = head.body_start + head.content_length;
        let mut request = head.request;
        request.body = String::from_utf8_lossy(&self.buf[head.body_start..consumed]).into_owned();
        self.buf.drain(..consumed);
        self.scanned = 0;
        Ok(Some(request))
    }
}

/// Parses a complete request head (everything before `\r\n\r\n`) into a
/// body-less [`Request`] plus the announced `Content-Length`.
fn parse_head(head_bytes: &[u8]) -> Result<(Request, usize), ParseError> {
    let head = std::str::from_utf8(head_bytes)
        .map_err(|_| ParseError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut rl = request_line.split(' ');
    let (method, target, version) = match (rl.next(), rl.next(), rl.next(), rl.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ParseError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length =
        content_length(lengths.map(|(_, v)| v.as_str())).map_err(ParseError::Malformed)?;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let query = raw_query
        .map(|q| {
            q.split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
                    None => (percent_decode(kv, true), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        path: percent_decode(raw_path, false),
        query,
        headers,
        body: String::new(),
    };
    Ok((request, content_length))
}

/// Finds the `\r\n\r\n` head terminator, resuming the scan at `from`
/// (bytes before it are known terminator-free).
fn find_head_end_from(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// An outgoing response; the body is always JSON here. `headers` carries
/// route-specific extras (`X-Request-Id`, `Retry-After`) on top of the
/// fixed content headers [`encode_response`] always emits.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub headers: Vec<(String, String)>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// The one `{"error": …}` envelope every error response uses.
    pub(crate) fn error(status: u16, message: &str) -> Self {
        Self::json(status, json_object! { "error": message }.to_json())
    }

    /// Appends one extra response header.
    pub(crate) fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// A 429 with a computed `Retry-After` (integer seconds, per RFC 9110;
    /// always at least 1 so a client never busy-retries).
    pub(crate) fn too_many_requests(message: &str, retry_after: std::time::Duration) -> Self {
        let secs = retry_after.as_secs_f64().ceil().clamp(1.0, 3600.0) as u64;
        Self::error(429, message).with_header("Retry-After", secs.to_string())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response to wire bytes; `close` controls the `Connection`
/// header. The reactor owns the actual write.
pub fn encode_response(response: &Response, close: bool) -> Vec<u8> {
    let mut extra = String::new();
    for (name, value) in &response.headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{extra}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let mut out = Vec::with_capacity(head.len() + response.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(response.body.as_bytes());
    out
}

/// Fault-injection seam: how many bytes of an encoded response a torn
/// write ships — the first half, at least one byte, never all of them, so
/// the client is left with a response it must treat as a transport error.
pub(crate) fn torn_prefix_len(encoded_len: usize) -> usize {
    (encoded_len / 2).max(1).min(encoded_len.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request parsed off the front of `buf`, with the bytes it took.
    fn try_parse(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
        let mut parser = RequestParser::new();
        parser.extend(buf);
        Ok(parser
            .next_request(limits)?
            .map(|r| (r, buf.len() - parser.buffered())))
    }

    fn parse_ok(raw: &str) -> Request {
        let (req, consumed) = try_parse(raw.as_bytes(), &Limits::default())
            .expect("parse")
            .expect("complete");
        assert_eq!(consumed, raw.len());
        req
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let raw = "POST /v1/my%20db/query?seed=7&x=a+b HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\nContent-Type: application/json\r\n\r\n{\"seed\":1}\n";
        let req = parse_ok(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/my%20db/query?seed=7&x=a+b");
        assert_eq!(req.path, "/v1/my db/query");
        assert_eq!(req.segments(), vec!["v1", "my db", "query"]);
        assert_eq!(req.query_param("seed"), Some("7"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.body, "{\"seed\":1}\n");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_pipelined_requests_one_at_a_time() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, consumed) = try_parse(raw.as_bytes(), &Limits::default())
            .expect("parse")
            .expect("complete");
        assert_eq!(first.path, "/healthz");
        let rest = &raw.as_bytes()[consumed..];
        let (second, consumed2) = try_parse(rest, &Limits::default())
            .expect("parse")
            .expect("complete");
        assert_eq!(second.path, "/metrics");
        assert!(second.wants_close());
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incomplete_requests_wait_for_more_bytes() {
        let full = "POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in [3, 20, full.len() - 1] {
            assert!(
                try_parse(&full.as_bytes()[..cut], &Limits::default())
                    .expect("no error")
                    .is_none(),
                "cut at {cut} must be incomplete"
            );
        }
        assert!(try_parse(full.as_bytes(), &Limits::default())
            .unwrap()
            .is_some());
    }

    #[test]
    fn incremental_parser_handles_byte_dribble() {
        let raw = "POST /v1/t/query HTTP/1.1\r\nContent-Length: 7\r\n\r\npayload";
        let mut parser = RequestParser::new();
        for (i, byte) in raw.as_bytes().iter().enumerate() {
            parser.extend(std::slice::from_ref(byte));
            let result = parser.next_request(&Limits::default()).expect("no error");
            if i + 1 < raw.len() {
                assert!(result.is_none(), "complete after only {} bytes", i + 1);
                assert!(parser.has_partial());
            } else {
                let request = result.expect("complete at last byte");
                assert_eq!(request.path, "/v1/t/query");
                assert_eq!(request.body, "payload");
            }
        }
        assert!(!parser.has_partial());
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn incremental_parser_tracks_body_phase() {
        let mut parser = RequestParser::new();
        parser.extend(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\n");
        assert!(parser.next_request(&Limits::default()).unwrap().is_none());
        assert!(!parser.reading_body());
        parser.extend(b"\r\nhel");
        assert!(parser.next_request(&Limits::default()).unwrap().is_none());
        assert!(parser.reading_body(), "head complete, body outstanding");
        parser.extend(b"lo");
        let request = parser
            .next_request(&Limits::default())
            .unwrap()
            .expect("complete");
        assert_eq!(request.body, "hello");
        assert!(!parser.reading_body());
    }

    #[test]
    fn incremental_parser_yields_pipelined_requests_in_order() {
        let raw =
            "GET /healthz HTTP/1.1\r\n\r\nPOST /v1/t/query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut parser = RequestParser::new();
        parser.extend(raw.as_bytes());
        let limits = Limits::default();
        let first = parser.next_request(&limits).unwrap().expect("first");
        assert_eq!(first.path, "/healthz");
        assert!(parser.has_partial(), "second request still buffered");
        let second = parser.next_request(&limits).unwrap().expect("second");
        assert_eq!(second.path, "/v1/t/query");
        assert_eq!(second.body, "hi");
        assert!(parser.next_request(&limits).unwrap().is_none());
        assert!(!parser.has_partial());
    }

    #[test]
    fn incremental_parser_enforces_limits_under_dribble() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let mut parser = RequestParser::new();
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let mut blew = false;
        for byte in long_head.as_bytes() {
            parser.extend(std::slice::from_ref(byte));
            if parser.next_request(&limits).is_err() {
                blew = true;
                break;
            }
        }
        assert!(blew, "oversized head must error before the terminator");
        let mut parser = RequestParser::new();
        parser.extend(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n");
        assert!(matches!(
            parser.next_request(&limits),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn rejects_malformed_and_oversized_input() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        for (raw, too_large) in [
            ("NOT A REQUEST\r\n\r\n", false),
            ("GET / FTP/1.0\r\n\r\n", false),
            ("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", true),
            (long_head.as_str(), true),
            (
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                false,
            ),
        ] {
            match try_parse(raw.as_bytes(), &limits) {
                Err(ParseError::TooLarge) => assert!(too_large, "{raw:?}"),
                Err(ParseError::Malformed(_)) => assert!(!too_large, "{raw:?}"),
                other => panic!("{raw:?} must be refused, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn percent_decoding_handles_escapes_and_junk() {
        assert_eq!(percent_decode("a%2Fb%20c", false), "a/b c");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
    }

    #[test]
    fn a_percent_escape_takes_two_hex_digits_only() {
        assert_eq!(percent_decode("%+1", false), "%+1");
        assert_eq!(percent_decode("%-1x", false), "%-1x");
        assert_eq!(percent_decode("%4a", false), "J");
    }

    #[test]
    fn a_signed_content_length_is_malformed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        let parsed = try_parse(raw, &Limits::default());
        assert!(matches!(parsed, Err(ParseError::Malformed(_))));
    }

    #[test]
    fn content_length_headers_must_agree() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello";
        let parsed = try_parse(raw.as_bytes(), &Limits::default());
        assert!(matches!(parsed, Err(ParseError::Malformed(m)) if m.contains("conflicting")));
        let agreeing = raw.replace("Length: 2", "Length: 5");
        assert_eq!(parse_ok(&agreeing).body, "hello");
    }

    #[test]
    fn torn_prefix_is_a_strict_nonempty_prefix() {
        for len in [2usize, 3, 10, 1001] {
            let cut = torn_prefix_len(len);
            assert!(cut >= 1 && cut < len, "len {len} cut {cut}");
        }
    }

    #[test]
    fn encode_response_emits_connection_header() {
        let response = Response::json(200, "{}").with_header("X-Request-Id", "7");
        let keep = String::from_utf8(encode_response(&response, false)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains("X-Request-Id: 7\r\n"));
        assert!(keep.ends_with("\r\n\r\n{}"));
        let close = String::from_utf8(encode_response(&response, true)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
    }
}
