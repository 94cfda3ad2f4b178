//! Shard-router contract (fleet mode of `restore-serve`), in-process: two
//! stock worker servers behind a router server whose `ServeConfig::fleet`
//! points at their fixed addresses.
//!
//! * Forwarded responses are **byte-identical** (status + body) to asking
//!   the tenant's worker directly, for every wire route — success,
//!   confidence intervals, completed tables, protocol errors, unknown
//!   tenants, method mismatches. The router adds transport, never bits.
//! * The tenant→shard mapping is the documented stable FNV-1a hash and
//!   survives a worker being replaced.
//! * Failover: a dead shard degrades `/healthz`, its requests answer 503
//!   after the retry budget (without touching the healthy shard), and
//!   re-registering a replacement worker restores byte-identical service.
//! * The router's `/metrics` carries a `fleet` section whose counters
//!   track forwards and failures, keeps its key paths in order, and
//!   renders integer counters as plain digits.
//! * A shard whose response framing is malformed is a transport failure:
//!   the forward retries and answers 503, and no handler panics.
//! * The reactor's forward state machine, against fake shards: a pooled
//!   socket the worker closed, a worker's `Connection: close`, a response
//!   dribbled a byte at a time, a shard that never answers (the reactor
//!   keeps serving the other shard meanwhile), router-side fault seams,
//!   and in-flight forwards not capped at the worker-pool size.
//! * A shard that trickles an endless response head cannot wedge a probe
//!   or the fleet monitor.
//!
//! Process-level spawn/re-exec failover is covered by the `process_smoke`
//! binary; these tests pin the routing semantics without process churn.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use restore_fixtures::{balanced_fleet_tenants, sealed_synthetic_snapshot, serving_workload};

use restore::core::wire::QueryRequest;
use restore::core::{ConfidenceQuery, Snapshot, SnapshotRegistry};
use restore::db::{Agg, Expr, Query};
use restore::serve::router::{Fleet, FleetConfig, ShardConfig};
use restore::serve::{ClientConfig, FaultConfig, HttpClient, ServeConfig, Server};
use restore::util::json::{parse, JsonValue};

fn snapshot() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| sealed_synthetic_snapshot(31, 31)))
}

/// A stock worker serving every fleet tenant (which shard *receives* a
/// tenant is purely the router's hash mapping).
fn worker(tenants: &[String]) -> Server {
    let registry = Arc::new(SnapshotRegistry::new());
    for tenant in tenants {
        registry.publish(tenant, snapshot());
    }
    Server::bind("127.0.0.1:0", registry, ServeConfig::default()).expect("bind worker")
}

/// A fleet over fixed worker addresses with a short retry budget, so the
/// shard-unavailable path answers in ~a second instead of the production
/// ten, and a fast health-probe cadence to keep the failover test quick.
fn fixed_fleet(addrs: &[SocketAddr]) -> Arc<Fleet> {
    Fleet::start(FleetConfig {
        shards: addrs
            .iter()
            .map(|&addr| ShardConfig {
                addr: Some(addr),
                worker: None,
            })
            .collect(),
        client: ClientConfig {
            read_timeout: Duration::from_secs(5),
        },
        retry_budget: Duration::from_secs(1),
        health_interval: Duration::from_millis(50),
    })
    .expect("fleet over fixed addrs")
}

fn router(fleet: &Arc<Fleet>) -> Server {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(SnapshotRegistry::new()),
        ServeConfig {
            fleet: Some(Arc::clone(fleet)),
            ..ServeConfig::default()
        },
    )
    .expect("bind router")
}

/// (status, body) of one request — the byte-equality comparison unit.
/// Headers are excluded on purpose: request ids are per-server counters.
fn ask(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let response = HttpClient::connect(addr)
        .expect("connect")
        .request_full(method, path, body, &[])
        .expect("request");
    (response.status, response.body)
}

fn plain_query() -> String {
    QueryRequest::new(serving_workload()[0].clone(), 3).to_json()
}

#[test]
fn forwarded_responses_are_byte_identical_for_every_route() {
    let tenants = balanced_fleet_tenants(1, 2);
    let workers = [worker(&tenants), worker(&tenants)];
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.local_addr()).collect();
    let fleet = fixed_fleet(&addrs);
    let router = router(&fleet);
    let via = router.local_addr();

    let confident = QueryRequest::new(Query::new(["ta", "tb"]).aggregate(Agg::CountStar), 5)
        .with_confidence(
            ConfidenceQuery::CountFraction {
                table: "tb".into(),
                column: "b".into(),
                value: "b1".into(),
            },
            0.95,
        )
        .to_json();
    let plain = plain_query();
    // `id` is `ta.id` and `tb.id`: a relational error that is not a lookup.
    let ambiguous = Query::new(["ta", "tb"])
        .filter(Expr::col("id").eq(Expr::lit(1i64)))
        .aggregate(Agg::CountStar);
    let ambiguous = QueryRequest::new(ambiguous, 1).to_json();
    // Nested past the JSON reader's depth bound.
    let nested = format!("{{\"tables\":{}", "[".repeat(200_000));
    let mut forwards = 0u64;
    for tenant in &tenants {
        // The mapping is the documented hash — computable without the fleet.
        let shard = fleet.shard_for(tenant);
        assert_eq!(
            shard,
            (restore::util::fnv1a64(tenant.as_bytes()) % 2) as usize
        );
        let direct = addrs[shard];
        let base = format!("/v1/{tenant}");
        let cases: Vec<(&str, String, Option<&str>, u16)> = vec![
            ("POST", format!("{base}/query"), Some(plain.as_str()), 200),
            (
                "POST",
                format!("{base}/query"),
                Some(confident.as_str()),
                200,
            ),
            ("GET", format!("{base}/tables/tb?seed=2"), None, 200),
            ("POST", format!("{base}/query"), Some("not json"), 400),
            ("POST", format!("{base}/query"), Some(nested.as_str()), 400),
            (
                "POST",
                format!("{base}/query"),
                Some(ambiguous.as_str()),
                400,
            ),
            ("GET", format!("{base}/query"), None, 405),
        ];
        for (method, path, body, expected_status) in cases {
            let routed = ask(via, method, &path, body);
            assert_eq!(
                routed,
                ask(direct, method, &path, body),
                "router must pass bytes through untouched: {method} {path}"
            );
            assert_eq!(routed.0, expected_status, "{method} {path}");
            forwards += 1;
        }
    }
    // Unknown tenants route by the same hash and 404 identically.
    let ghost = "never-published";
    let routed = ask(via, "POST", &format!("/v1/{ghost}/query"), Some(&plain));
    assert_eq!(
        routed,
        ask(
            addrs[fleet.shard_for(ghost)],
            "POST",
            &format!("/v1/{ghost}/query"),
            Some(&plain)
        )
    );
    assert_eq!(routed.0, 404);
    forwards += 1;

    // The fleet section of the router's /metrics accounts for every
    // forward (worker errors like 404/405 *are* successful forwards).
    let (status, metrics) = ask(via, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let root = parse(&metrics).expect("metrics parse");
    let section = root.get("fleet").expect("fleet section");
    assert_eq!(
        section.get("forwarded").and_then(|v| v.as_f64()),
        Some(forwards as f64)
    );
    assert_eq!(section.get("failed").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(section.get("shards").and_then(|v| v.as_f64()), Some(2.0));

    assert!(router.shutdown());
    fleet.shutdown();
    for w in workers {
        assert!(w.shutdown());
    }
}

#[test]
fn dead_shard_degrades_and_a_replacement_restores_byte_identical_service() {
    let tenants = balanced_fleet_tenants(1, 2);
    let (shard0_tenant, shard1_tenant) = {
        let by_hash = |s: usize| {
            tenants
                .iter()
                .find(|t| (restore::util::fnv1a64(t.as_bytes()) % 2) as usize == s)
                .expect("balanced list covers both shards")
                .clone()
        };
        (by_hash(0), by_hash(1))
    };
    let worker0 = worker(&tenants);
    let worker1 = worker(&tenants);
    let addrs = vec![worker0.local_addr(), worker1.local_addr()];
    let fleet = fixed_fleet(&addrs);
    let router = router(&fleet);
    let via = router.local_addr();
    let plain = plain_query();
    let path0 = format!("/v1/{shard0_tenant}/query");
    let path1 = format!("/v1/{shard1_tenant}/query");

    let baseline = ask(via, "POST", &path0, Some(&plain));
    assert_eq!(baseline.0, 200);

    // Kill shard 0's worker. The monitor degrades the fleet; requests to
    // its tenants answer 503 once the retry budget is spent; the healthy
    // shard keeps answering 200 throughout.
    assert!(worker0.shutdown());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = ask(via, "GET", "/healthz", None);
        if health.contains("\"status\":\"degraded\"") && health.contains("\"up\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "monitor must degrade the fleet: {health}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, body) = ask(via, "POST", &path0, Some(&plain));
    assert_eq!(status, 503, "dead shard answers 503 after retries: {body}");
    assert!(!fleet.shard_is_up(0));
    assert_eq!(ask(via, "POST", &path1, Some(&plain)).0, 200);

    // Register a replacement worker (new process in production; here a
    // fresh in-process server on a fresh port). Service is restored
    // immediately, the tenant's shard index is unchanged, and the answer
    // is byte-identical — same snapshot, same bytes.
    let replacement = worker(&tenants);
    fleet.set_shard_addr(0, replacement.local_addr());
    assert!(fleet.shard_is_up(0));
    assert_eq!(fleet.shard_for(&shard0_tenant), 0, "mapping is stable");
    assert_eq!(
        ask(via, "POST", &path0, Some(&plain)),
        baseline,
        "replacement worker must answer byte-identically"
    );
    let (_, health) = ask(via, "GET", "/healthz", None);
    assert!(health.contains("\"status\":\"ok\"") && health.contains("\"up\":2"));

    // The outage is on the books.
    let root = fleet.metrics_json();
    assert!(root.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);

    assert!(router.shutdown());
    fleet.shutdown();
    assert!(replacement.shutdown());
    assert!(worker1.shutdown());
}

#[test]
fn a_shard_announcing_an_impossible_content_length_answers_503_without_a_panic() {
    // The "shard": reads a request, then answers with a Content-Length
    // that `body_start + len` overflows.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr");
    let stop = Arc::new(AtomicBool::new(false));
    let shard = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}",
                );
            }
        })
    };
    let fleet = fixed_fleet(&[addr]);
    let router = Server::bind(
        "127.0.0.1:0",
        Arc::new(SnapshotRegistry::new()),
        ServeConfig {
            fleet: Some(Arc::clone(&fleet)),
            request_deadline: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    )
    .expect("bind router");
    let via = router.local_addr();

    let response = HttpClient::connect(via)
        .expect("connect")
        .request_full("POST", "/v1/t/query", Some(&plain_query()), &[])
        .expect("router answers");
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(response.retry_after().is_some(), "503 carries Retry-After");
    let (_, metrics) = ask(via, "GET", "/metrics", None);
    let root = parse(&metrics).expect("metrics parse");
    let panics = root
        .get("requests")
        .and_then(|r| r.get("panics_caught"))
        .and_then(|v| v.as_f64());
    assert_eq!(
        panics,
        Some(0.0),
        "malformed framing must not panic a handler"
    );

    assert!(router.shutdown());
    fleet.shutdown();
    stop.store(true, Ordering::Relaxed);
    let _ = std::net::TcpStream::connect(addr);
    shard.join().expect("fake shard thread");
}

/// Every key path of a JSON document in document order, array elements by
/// index; an empty object or array is a path of its own.
fn key_paths(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match value {
        JsonValue::Obj(fields) if !fields.is_empty() => {
            for (key, v) in fields {
                key_paths(v, &format!("{prefix}{key}."), out);
            }
        }
        JsonValue::Arr(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                key_paths(v, &format!("{prefix}{i}."), out);
            }
        }
        _ => out.push(prefix.trim_end_matches('.').to_string()),
    }
}

/// Every number in `body` whose key is not a rate or a duration is written
/// as plain digits: no `.0`, no exponent.
fn assert_counters_are_plain_digits(body: &str) {
    const FLOATS: [&str; 4] = ["uptime_s", "service_ewma_ms", "load_ms", "queries_per_s"];
    for (at, _) in body.match_indices("\":") {
        let key = &body[body[..at].rfind('"').expect("key opens") + 1..at];
        let value = &body[at + 2..];
        let value = &value[..value.find([',', '}', ']']).expect("value ends")];
        if value.starts_with(|c: char| c.is_ascii_digit() || c == '-') && !FLOATS.contains(&key) {
            assert!(value.bytes().all(|b| b.is_ascii_digit()), "{key}: {value}");
        }
    }
}

/// The key paths of a fresh router's `/metrics` over one live worker.
const ROUTER_METRICS: [&str; 52] = [
    "uptime_s",
    "event_loop.open_connections",
    "event_loop.keepalive_idle",
    "event_loop.accepts",
    "event_loop.epoll_wakeups",
    "event_loop.read_would_block",
    "event_loop.write_would_block",
    "requests.total",
    "requests.in_flight",
    "requests.admitted",
    "requests.shed",
    "requests.deadline_exceeded",
    "requests.panics_caught",
    "requests.faults_injected",
    "requests.service_ewma_ms",
    "cache.hits",
    "cache.misses",
    "cache.waits",
    "cache.evictions",
    "cache.bytes",
    "cache.entries",
    "persistence.snapshots_loaded",
    "persistence.snapshots_saved",
    "persistence.load_ms",
    "persistence.loaded_bytes",
    "persistence.saved_bytes",
    "persistence.rebuilds.started",
    "persistence.rebuilds.completed",
    "persistence.rebuilds.failed",
    "fleet.shards",
    "fleet.up",
    "fleet.forwarded",
    "fleet.failed",
    "fleet.retried",
    "fleet.respawns",
    "fleet.per_shard.0.shard",
    "fleet.per_shard.0.addr",
    "fleet.per_shard.0.up",
    "fleet.per_shard.0.forwarded",
    "fleet.per_shard.0.failed",
    "fleet.per_shard.0.retried",
    "fleet.per_shard.0.respawns",
    "fleet.per_shard.0.times_down",
    "fleet.per_shard.0.queries_per_s",
    "fleet.per_shard.0.pool.idle",
    "fleet.per_shard.0.pool.reused",
    "fleet.per_shard.0.pool.dialed",
    "fleet.per_shard.0.pool.discarded",
    "fleet.per_shard.0.worker.requests_total",
    "fleet.per_shard.0.worker.uptime_s",
    "fleet.per_shard.0.worker.queries_per_s",
    "tenants",
];

#[test]
fn router_metrics_keep_their_key_paths_and_plain_digit_counters() {
    let worker = worker(&balanced_fleet_tenants(1, 1));
    let fleet = fixed_fleet(&[worker.local_addr()]);
    let router = router(&fleet);
    let (status, body) = ask(router.local_addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_counters_are_plain_digits(&body);
    let mut paths = Vec::new();
    key_paths(&parse(&body).expect("metrics parse"), "", &mut paths);
    assert_eq!(paths, ROUTER_METRICS);
    assert!(router.shutdown());
    fleet.shutdown();
    assert!(worker.shutdown());
}

/// A fake shard: every accepted connection runs `serve` on its own thread.
/// Dropping it stops the accept loop and joins every thread, which end
/// with their sockets — so drop the router and fleet first.
struct FakeShard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl FakeShard {
    fn start(serve: impl Fn(TcpStream) + Send + Sync + 'static) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
        let addr = listener.local_addr().expect("fake shard addr");
        let stop = Arc::new(AtomicBool::new(false));
        let serve = Arc::new(serve);
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conns = Vec::new();
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let serve = Arc::clone(&serve);
                    conns.push(std::thread::spawn(move || serve(stream)));
                }
                conns
            })
        };
        Self {
            addr,
            stop,
            accept: Some(accept),
        }
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        let conns = self
            .accept
            .take()
            .map(|a| a.join().expect("fake shard accept loop"));
        for conn in conns.into_iter().flatten() {
            conn.join().expect("fake shard connection");
        }
    }
}

/// One request off `stream` (head and `Content-Length` body) as text;
/// `None` once the peer closes.
fn read_request(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).to_ascii_lowercase();
            let length = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .map_or(0, |v| v.trim().parse::<usize>().expect("length"));
            if buf.len() >= end + 4 + length {
                return Some(String::from_utf8_lossy(&buf).into_owned());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// A worker's answer: 200, `{}`, keep-alive.
const OK: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";

/// Answers every request on a connection with [`OK`] after `delay`
/// (`/healthz` probes at once).
fn answer_ok_after(delay: Duration) -> impl Fn(TcpStream) + Send + Sync + 'static {
    move |mut stream| {
        while let Some(request) = read_request(&mut stream) {
            if !request.starts_with("GET /healthz") {
                std::thread::sleep(delay);
            }
            if stream.write_all(OK).is_err() {
                return;
            }
        }
    }
}

/// A router over `fleet` with `config`'s other fields.
fn router_with(fleet: &Arc<Fleet>, config: ServeConfig) -> Server {
    let config = ServeConfig {
        fleet: Some(Arc::clone(fleet)),
        ..config
    };
    Server::bind("127.0.0.1:0", Arc::new(SnapshotRegistry::new()), config).expect("bind router")
}

/// One number of shard 0's `/metrics` entry (`pool.dialed`, `failed`, …).
fn shard0(fleet: &Fleet, path: &str) -> f64 {
    let root = fleet.metrics_json();
    let shard = root
        .get("per_shard")
        .and_then(JsonValue::as_array)
        .and_then(|shards| shards.first().cloned())
        .expect("shard 0");
    path.split('.')
        .try_fold(&shard, |node, key| node.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {path}"))
}

/// (status, body) of a `/v1/*` query through `addr`.
fn query_via(addr: SocketAddr, tenant: &str) -> (u16, String) {
    ask(addr, "POST", &format!("/v1/{tenant}/query"), Some("{}"))
}

#[test]
fn a_pooled_socket_the_worker_closed_is_dropped_and_the_next_forward_dials() {
    // One answer per connection, announced as keep-alive, then a close.
    let shard = FakeShard::start(|mut stream| {
        if read_request(&mut stream).is_some() {
            let _ = stream.write_all(OK);
        }
    });
    let fleet = fixed_fleet(&[shard.addr]);
    let router = router(&fleet);
    assert_eq!(query_via(router.local_addr(), "t"), (200, "{}".to_string()));
    let until = Instant::now() + Duration::from_secs(5);
    while shard0(&fleet, "pool.discarded") < 1.0 {
        assert!(
            Instant::now() < until,
            "the router must drop the closed socket"
        );
        std::thread::yield_now();
    }
    assert_eq!(shard0(&fleet, "pool.discarded"), 1.0, "the closed socket");
    assert_eq!(shard0(&fleet, "pool.idle"), 0.0);
    assert_eq!(query_via(router.local_addr(), "t"), (200, "{}".to_string()));
    assert_eq!(shard0(&fleet, "retried"), 0.0, "dropped before reuse");
    // Straight after the answer the close may not have landed yet: a
    // forward onto it is a transport error that retries on a fresh dial.
    for _ in 0..5 {
        assert_eq!(query_via(router.local_addr(), "t").0, 200);
    }
    assert_eq!(shard0(&fleet, "failed"), 0.0);
    assert!(router.shutdown());
    fleet.shutdown();
}

#[test]
fn a_worker_connection_close_retires_its_socket() {
    let closing = String::from_utf8_lossy(OK).replace("keep-alive", "close");
    let shard = FakeShard::start(move |mut stream| {
        if read_request(&mut stream).is_some() {
            let _ = stream.write_all(closing.as_bytes());
        }
    });
    let fleet = fixed_fleet(&[shard.addr]);
    let router = router(&fleet);
    for _ in 0..2 {
        assert_eq!(query_via(router.local_addr(), "t"), (200, "{}".to_string()));
    }
    assert_eq!(shard0(&fleet, "pool.dialed"), 2.0, "each forward dials");
    assert_eq!(shard0(&fleet, "pool.reused"), 0.0);
    assert_eq!(shard0(&fleet, "pool.idle"), 0.0);
    assert_eq!(shard0(&fleet, "failed"), 0.0);
    assert!(router.shutdown());
    fleet.shutdown();
}

#[test]
fn a_response_written_one_byte_at_a_time_arrives_as_a_direct_connection_sees_it() {
    const DRIBBLED: &[u8] = b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 26\r\nRetry-After: 3\r\nX-Request-Id: 5\r\n\r\n{\"rows\":[[1,2.5,\"a b\"]]}  ";
    let shard = FakeShard::start(|mut stream| {
        while let Some(request) = read_request(&mut stream) {
            if request.starts_with("GET /healthz") {
                let _ = stream.write_all(OK);
                continue;
            }
            for byte in DRIBBLED {
                if stream.write_all(std::slice::from_ref(byte)).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    });
    let fleet = fixed_fleet(&[shard.addr]);
    let router = router(&fleet);
    let direct = query_via(shard.addr, "t");
    assert_eq!(direct.0, 429);
    for _ in 0..2 {
        let routed = HttpClient::connect(router.local_addr())
            .expect("connect")
            .request_full("POST", "/v1/t/query", Some("{}"), &[])
            .expect("request");
        assert_eq!(routed.retry_after(), Some(Duration::from_secs(3)));
        assert_ne!(
            routed.request_id(),
            Some(5),
            "the router's id replaces the worker's"
        );
        assert_eq!((routed.status, routed.body), direct);
    }
    assert_eq!(shard0(&fleet, "pool.reused"), 1.0);
    assert!(router.shutdown());
    fleet.shutdown();
}

#[test]
fn a_silent_shard_answers_503_within_its_deadline_while_the_reactor_serves_others() {
    let tenants = balanced_fleet_tenants(1, 2);
    let on = |s: usize| {
        tenants
            .iter()
            .find(|t| (restore::util::fnv1a64(t.as_bytes()) % 2) as usize == s)
            .expect("balanced list covers both shards")
            .clone()
    };
    let (silent_tenant, live_tenant) = (on(0), on(1));
    // Accepts, reads, never answers; reports each forward it swallows.
    let (swallowed, forwarded) = mpsc::channel();
    let swallowed = Mutex::new(swallowed);
    let silent = FakeShard::start(move |mut stream| {
        while let Some(request) = read_request(&mut stream) {
            if request.starts_with("POST") {
                let _ = swallowed.lock().expect("sender").send(());
            }
        }
    });
    let live = worker(&tenants);
    let fleet = fixed_fleet(&[silent.addr, live.local_addr()]);
    let deadline = Duration::from_millis(600);
    let router = router_with(
        &fleet,
        ServeConfig {
            request_deadline: deadline,
            ..ServeConfig::default()
        },
    );
    let via = router.local_addr();
    let plain = plain_query();
    let started = Instant::now();
    let stalled = {
        let path = format!("/v1/{silent_tenant}/query");
        let plain = plain.clone();
        std::thread::spawn(move || {
            let response = HttpClient::connect(via)
                .expect("connect")
                .request_full("POST", &path, Some(&plain), &[])
                .expect("router answers");
            (response, started.elapsed())
        })
    };
    forwarded.recv().expect("the silent shard got the forward");
    let live_path = format!("/v1/{live_tenant}/query");
    assert_eq!(ask(via, "POST", &live_path, Some(&plain)).0, 200);
    let live_answered = started.elapsed();
    let (response, elapsed) = stalled.join().expect("stalled client");
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(response.retry_after().is_some(), "503 carries Retry-After");
    // The retry budget is 1 s, the request deadline 600 ms.
    assert!(
        elapsed <= deadline + Duration::from_millis(250),
        "{elapsed:?}"
    );
    assert!(live_answered < elapsed, "{live_answered:?} vs {elapsed:?}");
    assert!(router.shutdown());
    fleet.shutdown();
    assert!(live.shutdown());
}

#[test]
fn router_side_fault_seams_run_on_a_worker_and_the_next_request_forwards() {
    let shard = FakeShard::start(answer_ok_after(Duration::ZERO));
    let fleet = fixed_fleet(&[shard.addr]);
    let pinned = |prob: FaultConfig| FaultConfig {
        seed: 3,
        window: (100, 101),
        ..prob
    };
    let panicking = router_with(
        &fleet,
        ServeConfig {
            fault: Some(pinned(FaultConfig {
                panic_prob: 1.0,
                ..FaultConfig::default()
            })),
            ..ServeConfig::default()
        },
    );
    let mut client = HttpClient::connect(panicking.local_addr()).expect("connect");
    let hit = client
        .request_full("POST", "/v1/t/query", Some("{}"), &[("X-Fault-Key", "100")])
        .expect("500 answer");
    assert_eq!(hit.status, 500, "{}", hit.body);
    assert_eq!(
        query_via(panicking.local_addr(), "t"),
        (200, "{}".to_string())
    );
    assert!(panicking.shutdown());

    let delay = Duration::from_millis(300);
    let delaying = router_with(
        &fleet,
        ServeConfig {
            fault: Some(pinned(FaultConfig {
                delay_prob: 1.0,
                delay,
                ..FaultConfig::default()
            })),
            ..ServeConfig::default()
        },
    );
    let via = delaying.local_addr();
    let started = Instant::now();
    let delayed = std::thread::spawn(move || {
        HttpClient::connect(via)
            .expect("connect")
            .request_full("POST", "/v1/t/query", Some("{}"), &[("X-Fault-Key", "100")])
            .expect("delayed answer")
    });
    // The permit is taken at once and released only after the delay.
    while delaying.requests_admitted() == 0 && !delayed.is_finished() {
        std::thread::yield_now();
    }
    assert_eq!(
        delaying.requests_admitted(),
        1,
        "the delay holds the permit"
    );
    while delaying.requests_admitted() == 1 {
        std::thread::yield_now();
    }
    assert!(
        started.elapsed() >= delay,
        "permit held {:?}",
        started.elapsed()
    );
    let response = delayed.join().expect("delayed client");
    assert_eq!((response.status, response.body.as_str()), (200, "{}"));
    assert_eq!(delaying.requests_admitted(), 0);
    assert!(delaying.shutdown());
    fleet.shutdown();
}

#[test]
fn in_flight_forwards_are_not_capped_at_the_worker_count() {
    let shard = FakeShard::start(answer_ok_after(Duration::from_millis(200)));
    let fleet = fixed_fleet(&[shard.addr]);
    let router = router_with(
        &fleet,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let via = router.local_addr();
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(via).expect("connect");
                barrier.wait();
                client
                    .request_full("POST", "/v1/t/query", Some("{}"), &[])
                    .expect("answer")
                    .status
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for client in clients {
        assert_eq!(client.join().expect("client"), 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "{elapsed:?} for {CLIENTS} clients"
    );
    assert!(router.shutdown());
    fleet.shutdown();
}

#[test]
fn a_shard_trickling_an_endless_head_cannot_wedge_a_probe_or_the_monitor() {
    // One header byte every 50 ms, forever.
    let trickler = FakeShard::start(|mut stream| {
        if read_request(&mut stream).is_none()
            || stream.write_all(b"HTTP/1.1 200 OK\r\nX-Slow: ").is_err()
        {
            return;
        }
        while stream.write_all(b"z").is_ok() {
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let probe_config = ClientConfig {
        read_timeout: Duration::from_secs(2),
    };
    let started = Instant::now();
    let probed = HttpClient::connect_with(trickler.addr, probe_config)
        .expect("connect")
        .get("/healthz");
    assert!(probed.is_err(), "a trickled head is not a response");
    assert!(
        started.elapsed() < Duration::from_millis(2500),
        "{:?}",
        started.elapsed()
    );
    let healthy = FakeShard::start(answer_ok_after(Duration::ZERO));
    let fleet = fixed_fleet(&[trickler.addr, healthy.addr]);
    let until = Instant::now() + Duration::from_secs(10);
    while fleet.shard_is_up(0) {
        assert!(
            Instant::now() < until,
            "the monitor must mark the trickler down"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(fleet.shard_is_up(1), "the other shard stays up");
    fleet.shutdown();
}
