//! A blocking HTTP/1.1 client for the serving API — keep-alive by default
//! (one [`HttpClient`] issues many requests over one TCP connection, like a
//! real dashboard client), with an opt-in retry layer that makes it a
//! resilient building block for anything sitting in front of the server
//! (the shard-router direction in the ROADMAP): capped exponential backoff
//! with deterministic jitter ([`restore_util::BackoffConfig`]), honoring
//! the server's `Retry-After` on 429/503, reconnecting on transport
//! errors, all under a wall-clock [`RetryPolicy::budget`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use restore_util::json::JsonValue;
use restore_util::{json_object, BackoffConfig, HealthState};

use crate::http::content_length;

/// How [`HttpClient::request_with_retry`] behaves.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so 1 disables retrying).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: BackoffConfig,
    /// Wall-clock budget across all attempts *and* waits; when the next
    /// wait would cross it, the client gives up with the last outcome.
    pub budget: Duration,
    /// Upper bound on any single wait, including server-requested
    /// `Retry-After`s — a misbehaving server cannot park the client.
    pub retry_after_cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff: BackoffConfig::default(),
            budget: Duration::from_secs(60),
            retry_after_cap: Duration::from_secs(30),
            seed: 0,
        }
    }
}

/// Client knobs; [`ClientConfig::default`] matches the old hardcoded
/// behavior (30 s read timeout) with the default retry policy on top.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Read timeout on the underlying socket.
    pub read_timeout: Duration,
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
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
    peer: SocketAddr,
    config: ClientConfig,
}

impl HttpClient {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, config)
    }

    fn from_stream(stream: TcpStream, config: ClientConfig) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            carry: Vec::new(),
            peer,
            config,
        })
    }

    /// The peer this connection was dialed to.
    pub(crate) fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Drops the current connection and dials the same peer again —
    /// what the retry layer does after a transport error.
    pub(crate) fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        *self = Self::from_stream(stream, self.config)?;
        Ok(())
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
        let body = body.unwrap_or_default();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: restore\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// [`HttpClient::request_full`] under the configured [`RetryPolicy`]:
    /// 429 and 503 responses retry after `max(backoff, Retry-After)`
    /// (capped at `retry_after_cap`), transport errors reconnect and
    /// retry, and the whole dance stays inside [`RetryPolicy::budget`] —
    /// when attempts or budget run out, the last outcome (response or
    /// error) is returned as-is.
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        let policy = self.config.retry;
        let deadline = Instant::now() + policy.budget;
        let mut attempt = 0u32;
        loop {
            let outcome = self.request_full(method, path, body, extra_headers);
            let retry_after = match &outcome {
                Ok(response) if response.status == 429 || response.status == 503 => {
                    response.retry_after()
                }
                Ok(_) => return outcome,
                // Transport error: the connection state is unknown — only
                // retryable through a reconnect below.
                Err(_) => None,
            };
            if attempt + 1 >= policy.max_attempts.max(1) {
                return outcome;
            }
            let mut wait = policy.backoff.delay(policy.seed, attempt);
            if let Some(requested) = retry_after {
                wait = wait.max(requested);
            }
            wait = wait.min(policy.retry_after_cap);
            let now = Instant::now();
            if now + wait > deadline {
                return outcome;
            }
            std::thread::sleep(wait);
            if outcome.is_err() && self.reconnect().is_err() {
                // The peer refused the redial; count the attempt and keep
                // backing off — it may be mid-restart.
                attempt += 1;
                continue;
            }
            attempt += 1;
        }
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some((response, consumed)) = parse_response(&self.carry)? {
                self.carry.drain(..consumed);
                return Ok(response);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Parses a complete `(response, consumed)` off the front of `buf`, or
/// `Ok(None)` if more bytes are needed. Header names come out lowercased.
fn parse_response(buf: &[u8]) -> std::io::Result<Option<(HttpResponse, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("bad status line {status_line:?}")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    let lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let length = content_length(lengths.map(|(_, v)| v.as_str())).map_err(|m| bad(&m))?;
    let body_start = head_end + 4;
    let end = body_start
        .checked_add(length)
        .ok_or_else(|| bad("content-length overflows the address space"))?;
    if buf.len() < end {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[body_start..end]).into_owned();
    Ok(Some((
        HttpResponse {
            status,
            headers,
            body,
        },
        end,
    )))
}

/// Idle keep-alive connections one shard's [`ConnectionPool`] keeps.
const MAX_IDLE_PER_SHARD: usize = 16;

/// A health-aware pool of keep-alive [`HttpClient`] connections to one
/// peer whose address may *move* (a re-execed worker binds a fresh
/// ephemeral port). Checkout prefers an idle pooled connection, discards
/// any dialed to a stale address, and refuses outright while the peer's
/// [`HealthState`] says down — the caller backs off instead of burning a
/// connect timeout per request against a dead peer.
///
/// The pool never speaks HTTP itself: callers check a connection out, run
/// whatever requests they need, and check it back in if the exchange left
/// it reusable (no transport error, no `Connection: close`).
pub(crate) struct ConnectionPool {
    config: ClientConfig,
    peer: Mutex<Option<SocketAddr>>,
    /// At most [`MAX_IDLE_PER_SHARD`] idle connections, a stack: the most
    /// recently checked-in (hottest) socket goes out first.
    idle: Mutex<Vec<HttpClient>>,
    health: HealthState,
    dialed: AtomicU64,
    reused: AtomicU64,
    discarded: AtomicU64,
}

impl ConnectionPool {
    /// An empty pool; the peer is registered (and re-registered after
    /// moves) via [`ConnectionPool::set_peer`].
    pub(crate) fn new(config: ClientConfig) -> Self {
        Self {
            config,
            peer: Mutex::new(None),
            idle: Mutex::new(Vec::new()),
            health: HealthState::new(),
            dialed: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<HttpClient>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current peer address, if registered.
    pub(crate) fn peer(&self) -> Option<SocketAddr> {
        *self.peer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or moves) the peer. A changed address drops every idle
    /// connection — they are dialed to the old one.
    pub(crate) fn set_peer(&self, addr: SocketAddr) {
        let changed = {
            let mut peer = self.peer.lock().unwrap_or_else(|e| e.into_inner());
            let changed = *peer != Some(addr);
            *peer = Some(addr);
            changed
        };
        if changed {
            let stale = std::mem::take(&mut *self.idle());
            self.discarded
                .fetch_add(stale.len() as u64, Ordering::Relaxed);
            // `stale` drops here: sockets close outside the lock.
        }
    }

    /// The peer's health, shared with whoever monitors it. The pool itself
    /// never writes health — callers record successes/failures from actual
    /// request outcomes (and monitors from probes), keeping one authority
    /// per signal.
    pub(crate) fn health(&self) -> &HealthState {
        &self.health
    }

    /// Checks a connection out: a pooled keep-alive connection to the
    /// current peer when available, else a fresh dial. Fails fast with
    /// `NotConnected` while the peer is marked down or unregistered.
    pub(crate) fn checkout(&self) -> std::io::Result<HttpClient> {
        let Some(peer) = self.peer() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection pool has no peer registered",
            ));
        };
        if !self.health.is_up() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("peer {peer} is marked down"),
            ));
        }
        // Stale-address connections can linger if the peer moved while
        // they were checked out; skip past them, each popped under its own
        // short lock so its socket closes outside it.
        loop {
            let Some(client) = self.idle().pop() else {
                break;
            };
            if client.peer() == peer {
                self.reused.fetch_add(1, Ordering::Relaxed);
                return Ok(client);
            }
        }
        let client = HttpClient::connect_with(peer, self.config)?;
        self.dialed.fetch_add(1, Ordering::Relaxed);
        Ok(client)
    }

    /// Returns a still-healthy connection for reuse. Connections dialed to
    /// a stale address (the peer moved meanwhile) are dropped, and so is
    /// one that finds the pool full.
    pub(crate) fn checkin(&self, client: HttpClient) {
        if self.peer() != Some(client.peer()) {
            return; // closing a stale socket is the right outcome
        }
        let mut idle = self.idle();
        if idle.len() < MAX_IDLE_PER_SHARD {
            idle.push(client);
            return;
        }
        drop(idle);
        self.discarded.fetch_add(1, Ordering::Relaxed);
        // `client` drops here: the socket closes outside the lock.
    }

    /// The pool's section of the fleet `/metrics`: checkouts answered from
    /// the pool and by a dial, idle connections dropped and idle now.
    pub(crate) fn metrics_json(&self) -> JsonValue {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        json_object! {
            "idle": self.idle().len(), "reused": load(&self.reused),
            "dialed": load(&self.dialed), "discarded": load(&self.discarded),
        }
    }
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

    /// One counter of the pool's `/metrics` section.
    fn count(pool: &ConnectionPool, key: &str) -> f64 {
        let section = pool.metrics_json();
        section.get(key).and_then(JsonValue::as_f64).unwrap()
    }

    #[test]
    fn connection_pool_reuses_moves_and_gates_on_health() {
        let listener_a = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a");
        let listener_b = std::net::TcpListener::bind("127.0.0.1:0").expect("bind b");
        let addr_a = listener_a.local_addr().expect("addr a");
        let addr_b = listener_b.local_addr().expect("addr b");
        let pool = ConnectionPool::new(ClientConfig::default());
        pool.set_peer(addr_a);
        let first = pool.checkout().expect("fresh dial");
        assert_eq!(first.peer(), addr_a);
        pool.checkin(first);
        assert_eq!(count(&pool, "idle"), 1.0);
        let reused = pool.checkout().expect("pooled connection");
        assert_eq!(count(&pool, "reused"), 1.0);
        // Peer moves: idle connections are cleared, checked-out ones are
        // dropped at checkin instead of poisoning the pool.
        pool.set_peer(addr_b);
        assert_eq!(count(&pool, "idle"), 0.0, "peer move clears idle conns");
        pool.checkin(reused);
        assert_eq!(count(&pool, "idle"), 0.0, "stale-peer checkin is dropped");
        assert_eq!(pool.checkout().expect("dial b").peer(), addr_b);
        // Health gate: a down peer fails fast, recovery restores service.
        pool.health().force_down();
        let err = match pool.checkout() {
            Err(e) => e,
            Ok(_) => panic!("down peer must fail fast"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::NotConnected);
        pool.health().record_success();
        assert!(pool.checkout().is_ok());
    }

    #[test]
    fn connection_pool_is_a_bounded_stack_and_a_move_clears_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let pool = ConnectionPool::new(ClientConfig::default());
        pool.set_peer(addr);
        let clients: Vec<HttpClient> = (0..=MAX_IDLE_PER_SHARD)
            .map(|_| pool.checkout().expect("dial"))
            .collect();
        let hottest = clients[MAX_IDLE_PER_SHARD - 1].stream.local_addr().unwrap();
        clients.into_iter().for_each(|c| pool.checkin(c));
        let full = MAX_IDLE_PER_SHARD as f64;
        assert_eq!(
            (count(&pool, "dialed"), count(&pool, "idle")),
            (full + 1.0, full)
        );
        assert_eq!(count(&pool, "discarded"), 1.0, "one past capacity");
        let out = pool.checkout().expect("pooled");
        assert_eq!(out.stream.local_addr().unwrap(), hottest, "LIFO");
        pool.set_peer("127.0.0.1:1".parse().unwrap());
        assert_eq!(count(&pool, "idle"), 0.0);
        assert_eq!(count(&pool, "discarded"), full);
    }

    #[test]
    fn empty_pool_has_no_peer() {
        let pool = ConnectionPool::new(ClientConfig::default());
        assert!(pool.peer().is_none());
        assert!(pool.checkout().is_err());
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
