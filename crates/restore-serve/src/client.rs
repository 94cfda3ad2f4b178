//! A blocking HTTP/1.1 client for the serving API — keep-alive by default
//! (one [`HttpClient`] issues many requests over one TCP connection, like a
//! real dashboard client). It is the fleet monitor's probe and drill-down
//! client; the router's forwards retry on reactor timers under
//! [`RetryPolicy`](crate::RetryPolicy).

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::http::{content_length, LIMITS};

/// Client knobs; [`ClientConfig::default`] reads with a 30 s timeout.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Wall-clock bound on reading one whole response.
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// A complete response: status, lowercased headers, body.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl HttpResponse {
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The server's `Retry-After`, when present and parseable (integer
    /// seconds form).
    pub fn retry_after(&self) -> Option<Duration> {
        self.header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_secs)
    }

    /// The server-assigned accept-order request id (`X-Request-Id`).
    pub fn request_id(&self) -> Option<u64> {
        self.header("x-request-id")
            .and_then(|v| v.trim().parse::<u64>().ok())
    }
}

/// A keep-alive connection to the server.
pub struct HttpClient {
    stream: TcpStream,
    carry: Vec<u8>,
    config: ClientConfig,
}

impl HttpClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        Ok(Self {
            stream,
            carry: Vec::new(),
            config,
        })
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request_full("GET", path, None, &[])
            .map(|r| (r.status, r.body))
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request_full("POST", path, Some(body), &[])
            .map(|r| (r.status, r.body))
    }

    /// One request with extra headers (the chaos tests pin fault keys with
    /// `X-Fault-Key`), returning the full [`HttpResponse`].
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.stream
            .write_all(&encode_request(method, path, body, extra_headers))?;
        self.read_response()
    }

    /// Reads one response within [`ClientConfig::read_timeout`] of wall
    /// clock, however the peer paces its bytes.
    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let deadline = Instant::now() + self.config.read_timeout;
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some((response, consumed)) = parse_response(&self.carry)? {
                self.carry.drain(..consumed);
                return Ok(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no complete response within the read timeout",
                ));
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // A socket timeout: the deadline check above decides.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One request's wire bytes: what [`HttpClient`] sends, and what the
/// router writes to a shard.
pub(crate) fn encode_request(
    method: &str,
    target: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let body = body.unwrap_or_default();
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: restore\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// The framing of the response at the front of `buf`: its head (the text
/// before the blank line), its status, and the offset one past its body.
/// `Ok(None)` while bytes are missing; `InvalidData` for a head longer than
/// [`LIMITS`]`.max_head_bytes`, a bad status line, or a `Content-Length`
/// that cannot be honoured.
pub(crate) fn response_frame(buf: &[u8]) -> std::io::Result<Option<(&str, u16, usize)>> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(end) if end <= LIMITS.max_head_bytes => end,
        None if buf.len() <= LIMITS.max_head_bytes + 3 => return Ok(None),
        _ => return Err(bad("response head exceeds the head limit")),
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let status_line = head.split("\r\n").next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
    let lengths = header_lines(head).filter(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    let length = content_length(lengths.map(|(_, v)| v)).map_err(|m| bad(&m))?;
    let end = (head_end + 4)
        .checked_add(length)
        .ok_or_else(|| bad("content-length overflows the address space"))?;
    Ok((buf.len() >= end).then_some((head, status, end)))
}

/// The `(name, value)` pairs of a message head's header lines, trimmed.
pub(crate) fn header_lines(head: &str) -> impl Iterator<Item = (&str, &str)> + Clone {
    head.split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

/// Parses a complete `(response, consumed)` off the front of `buf`, or
/// `Ok(None)` if more bytes are needed. Header names come out lowercased.
fn parse_response(buf: &[u8]) -> std::io::Result<Option<(HttpResponse, usize)>> {
    let Some((head, status, end)) = response_frame(buf)? else {
        return Ok(None);
    };
    let headers = header_lines(head)
        .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
        .collect();
    let body = String::from_utf8_lossy(&buf[head.len() + 4..end]).into_owned();
    Ok(Some((
        HttpResponse {
            status,
            headers,
            body,
        },
        end,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses_incrementally() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\r\nbodyHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert!(parse_response(&raw[..10]).unwrap().is_none());
        let (first, consumed) = parse_response(raw).unwrap().expect("complete");
        assert_eq!((first.status, first.body.as_str()), (200, "body"));
        assert_eq!(first.header("content-type"), Some("application/json"));
        let (second, consumed2) = parse_response(&raw[consumed..]).unwrap().expect("second");
        assert_eq!((second.status, second.body.as_str()), (404, ""));
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn rejects_garbage_status_lines() {
        assert!(parse_response(b"whatever\r\n\r\n").is_err());
    }

    /// Whether framing a response cannot honour is refused as `InvalidData`.
    fn refuses(length_headers: &str) -> bool {
        let raw = format!("HTTP/1.1 200 OK\r\n{length_headers}\r\nbody");
        parse_response(raw.as_bytes()).is_err_and(|e| e.kind() == std::io::ErrorKind::InvalidData)
    }

    #[test]
    fn a_content_length_past_the_address_space_is_invalid_data() {
        assert!(refuses("Content-Length: 18446744073709551615\r\n"));
    }

    #[test]
    fn a_signed_content_length_is_invalid_data() {
        assert!(refuses("Content-Length: +4\r\n"));
    }

    #[test]
    fn disagreeing_content_lengths_are_invalid_data() {
        assert!(refuses("Content-Length: 2\r\nContent-Length: 4\r\n"));
    }

    #[test]
    fn exposes_resilience_headers() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nX-Request-Id: 41\r\nContent-Length: 0\r\n\r\n";
        let (response, _) = parse_response(raw).unwrap().expect("complete");
        assert_eq!(response.status, 429);
        assert_eq!(response.retry_after(), Some(Duration::from_secs(3)));
        assert_eq!(response.request_id(), Some(41));
        // Unparseable values read as absent, not as errors.
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: soon\r\nContent-Length: 0\r\n\r\n";
        let (response, _) = parse_response(raw).unwrap().expect("complete");
        assert_eq!(response.retry_after(), None);
    }
}
