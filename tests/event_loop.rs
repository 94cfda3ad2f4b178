//! The epoll event-loop transport contract (`restore-serve::reactor`):
//!
//! * the incremental parser tolerates **byte-dribble** arrivals — a
//!   request written one byte at a time parses and answers byte-identical
//!   to direct `Snapshot::execute`, and the connection stays usable;
//! * **pipelined** back-to-back requests on one socket answer in order,
//!   each response byte-identical;
//! * injected **torn-response** faults still truncate mid-response and
//!   close under the event loop;
//! * a **slow-loris** sender is cut by the request deadline with a 400;
//! * a **many-idle-connections soak** (≥ 2k sockets) leaves the hot path
//!   byte-identical while `/metrics` accounts every open socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use restore_fixtures::sealed_synthetic_snapshot;

use restore::core::wire::{self, QueryRequest};
use restore::core::{Snapshot, SnapshotRegistry};
use restore::db::{Agg, Query};
use restore::serve::{raise_fd_limit, FaultConfig, HttpClient, ServeConfig, Server};

fn snapshot() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| sealed_synthetic_snapshot(71, 71)))
}

fn serve(config: ServeConfig) -> (Server, Arc<Snapshot>) {
    let snapshot = snapshot();
    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("synthetic", Arc::clone(&snapshot));
    let server = Server::bind("127.0.0.1:0", registry, config).expect("bind loopback");
    (server, snapshot)
}

fn query_request(seed: u64) -> QueryRequest {
    QueryRequest::new(
        Query::new(["ta", "tb"])
            .group_by(["b"])
            .aggregate(Agg::CountStar),
        seed,
    )
}

fn direct_body(snapshot: &Snapshot, request: &QueryRequest) -> String {
    let result = snapshot
        .execute(&request.query, request.seed)
        .expect("direct execute");
    wire::query_response_json(&result, None)
}

fn raw_query_bytes(request: &QueryRequest) -> Vec<u8> {
    let body = request.to_json();
    format!(
        "POST /v1/synthetic/query HTTP/1.1\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Reads HTTP/1.1 responses off a raw socket, carrying leftover bytes
/// between calls (pipelined responses can arrive in one segment).
struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    fn new() -> Self {
        ResponseReader { buf: Vec::new() }
    }

    /// Reads exactly one response: head, then `Content-Length` body.
    /// Returns `(status, body)`.
    fn next(&mut self, stream: &mut TcpStream) -> (u16, String) {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "EOF before response head completed");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).expect("UTF-8 head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .expect("numeric length");
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let n = stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "EOF before response body completed");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .expect("UTF-8 body");
        self.buf.drain(..body_start + content_length);
        (status, body)
    }
}

fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut reader = ResponseReader::new();
    let got = reader.next(stream);
    assert!(
        reader.buf.is_empty(),
        "unexpected trailing bytes after response"
    );
    got
}

/// Pulls a numeric field out of the flat `/metrics` JSON by key.
fn metric_u64(metrics_body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = metrics_body.find(&needle).unwrap_or_else(|| {
        panic!("metric {key:?} missing in {metrics_body}");
    });
    metrics_body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric metric")
}

fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

#[test]
fn byte_dribble_request_parses_and_answers_byte_identical() {
    let (server, snapshot) = serve(ServeConfig::default());
    let request = query_request(7);
    let expected = direct_body(&snapshot, &request);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // One byte per write, with a real pause every few bytes so the server
    // observes genuinely partial arrivals (not one coalesced segment).
    for (i, byte) in raw_query_bytes(&request).iter().enumerate() {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("dribble byte");
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (status, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "dribbled request must not change bits");

    // The connection survived the dribble: a normal request on the same
    // socket still answers.
    stream
        .write_all(&raw_query_bytes(&request))
        .expect("second request");
    let (status, body) = read_one_response(&mut stream);
    assert_eq!((status, body.as_str()), (200, expected.as_str()));
    assert!(server.shutdown(), "drain");
}

#[test]
fn pipelined_requests_answer_in_order_byte_identical() {
    let (server, snapshot) = serve(ServeConfig::default());
    // Three distinct query shapes so each response body is distinguishable
    // and an out-of-order answer cannot pass by accident.
    let requests = [
        QueryRequest::new(Query::new(["tb"]).aggregate(Agg::CountStar), 1),
        QueryRequest::new(
            Query::new(["ta", "tb"])
                .group_by(["b"])
                .aggregate(Agg::CountStar),
            1,
        ),
        QueryRequest::new(Query::new(["ta"]).aggregate(Agg::CountStar), 1),
    ];
    let expected: Vec<String> = requests.iter().map(|r| direct_body(&snapshot, r)).collect();
    for (i, a) in expected.iter().enumerate() {
        for b in expected.iter().skip(i + 1) {
            assert_ne!(a, b, "ordering check needs distinguishable responses");
        }
    }

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // All three requests land in one burst before any response is written.
    let burst: Vec<u8> = requests.iter().flat_map(raw_query_bytes).collect();
    stream.write_all(&burst).expect("pipelined burst");
    let mut reader = ResponseReader::new();
    for (i, want) in expected.iter().enumerate() {
        let (status, body) = reader.next(&mut stream);
        assert_eq!(status, 200, "pipelined response {i}: {body}");
        assert_eq!(&body, want, "pipelined response {i} out of order or torn");
    }
    assert!(server.shutdown(), "drain");
}

#[test]
fn torn_response_fault_truncates_and_closes_under_event_loop() {
    let (server, _) = serve(ServeConfig {
        fault: Some(FaultConfig {
            seed: 3,
            window: (0, u64::MAX),
            torn_prob: 1.0,
            ..FaultConfig::default()
        }),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("request");
    // The server writes a strict prefix of the response and closes; the
    // bytes must never form a complete response.
    let mut torn = Vec::new();
    stream.read_to_end(&mut torn).expect("read until close");
    assert!(!torn.is_empty(), "torn response ships at least one byte");
    let text = String::from_utf8_lossy(&torn);
    assert!(text.starts_with("H"), "prefix of a real response: {text}");
    let complete = torn
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|head_end| {
            let head = String::from_utf8_lossy(&torn[..head_end]);
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .unwrap_or(usize::MAX);
            torn.len() >= head_end + 4 + len
        })
        .unwrap_or(false);
    assert!(!complete, "response must be torn, got: {text}");
    assert!(server.shutdown(), "drain");
}

#[test]
fn slow_loris_is_cut_by_deadline_under_event_loop() {
    let (server, _) = serve(ServeConfig {
        request_deadline: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let started = Instant::now();
    // A few head bytes, then silence: the reactor must answer 400 within
    // the deadline instead of holding the connection slot.
    stream
        .write_all(b"POST /v1/synthetic/query HTTP/1.1\r\nContent-")
        .expect("partial head");
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).expect("read until close");
    let text = String::from_utf8_lossy(&answer);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "slow-loris answers 400, got: {text}"
    );
    assert!(
        text.contains("did not complete in time"),
        "deadline detail in the body: {text}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cut must be prompt"
    );
    assert!(server.shutdown(), "drain");
}

#[test]
fn many_idle_connections_leave_the_hot_path_byte_identical() {
    const IDLE: usize = 2048;
    let soft_limit = raise_fd_limit().expect("raise fd limit");
    assert!(
        soft_limit > 2 * IDLE as u64 + 64,
        "test needs ~{} fds, soft limit is {soft_limit}",
        2 * IDLE + 64
    );
    let (server, snapshot) = serve(ServeConfig::default());
    let addr: SocketAddr = server.local_addr();

    // An armada of idle keep-alive connections: each sends one healthz to
    // prove it is established and keep-alive, then just sits there.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!("idle connect {i}: {e}");
        });
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("idle healthz");
        idle.push(stream);
    }
    // Answers arrive asynchronously; drain each socket's single response
    // so every connection is parked in KeepAliveIdle.
    for stream in &mut idle {
        let (status, _) = read_one_response(stream);
        assert_eq!(status, 200);
    }

    // With the armada parked, the hot path still answers bit-identically.
    let request = query_request(11);
    let expected = direct_body(&snapshot, &request);
    let mut hot = HttpClient::connect(addr).expect("hot connect");
    for _ in 0..5 {
        let (status, body) = hot
            .post("/v1/synthetic/query", &request.to_json())
            .expect("hot query");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected, "idle armada must not change bits");
    }

    // The event loop accounts every socket.
    let (status, metrics) = hot.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metric_u64(&metrics, "open_connections") > IDLE as u64,
        "all idle sockets open: {metrics}"
    );
    assert!(
        metric_u64(&metrics, "keepalive_idle") >= IDLE as u64,
        "armada parked idle: {metrics}"
    );
    assert!(metric_u64(&metrics, "accepts") > IDLE as u64);
    assert!(metric_u64(&metrics, "epoll_wakeups") >= 1);
    assert_eq!(server.connections_active(), IDLE + 1);

    // Shutdown releases the whole armada promptly (idle sockets close at
    // the trigger, none of them is in-flight work).
    let started = Instant::now();
    assert!(server.shutdown(), "idle armada must drain");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "drain must not wait on idle sockets"
    );
    // Every idle socket observes EOF.
    let eof = wait_until(Duration::from_secs(5), || {
        idle.iter().take(8).all(|s| {
            s.set_nonblocking(true).is_ok() && {
                let mut probe = [0u8; 1];
                matches!((&*s).read(&mut probe), Ok(0))
            }
        })
    });
    assert!(eof, "idle sockets must see EOF after shutdown");
}
