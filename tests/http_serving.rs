//! Network serving contract (`restore-serve` over a `SnapshotRegistry`):
//!
//! * HTTP responses are **byte-identical** to the wire encoding of direct
//!   `Snapshot::execute` / `completed_table` — the server adds transport,
//!   never bits;
//! * hot swap under concurrent load is torn-free: every response matches
//!   exactly one snapshot version, monotonically per connection, and no
//!   request errors while v1 drains under its `Arc` refs;
//! * tenants are isolated: each answers from its own snapshot and
//!   `retire` only 404s the retired one;
//! * a handler the fault plan panics answers 500 on its own connection,
//!   on every connection it hits at once, without wedging the server;
//! * `/metrics` keeps its key paths, in order, and renders integer
//!   counters as plain digits;
//! * graceful shutdown drains idle keep-alive connections and stops
//!   accepting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use restore_fixtures::{sealed_synthetic_snapshot, serving_workload as workload};

use restore::core::wire::{self, QueryRequest};
use restore::core::{ConfidenceQuery, Snapshot, SnapshotRegistry};
use restore::db::{Agg, Expr, Query};
use restore::serve::{FaultConfig, HttpClient, ServeConfig, Server};
use restore::util::json::{parse, JsonValue};

/// Shared fixtures: the same data under two different serve seeds, so the
/// two snapshots answer observably differently while each stays perfectly
/// deterministic. Built once for the whole test binary.
fn snap_a() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| sealed_synthetic_snapshot(31, 31)))
}

fn snap_b() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| sealed_synthetic_snapshot(31, 99)))
}

fn serve(registry: &Arc<SnapshotRegistry>, config: ServeConfig) -> Server {
    Server::bind("127.0.0.1:0", Arc::clone(registry), config).expect("bind loopback")
}

/// The direct-execution reference body for a request against a snapshot.
fn direct_body(snapshot: &Snapshot, request: &QueryRequest) -> String {
    let result = snapshot
        .execute(&request.query, request.seed)
        .expect("direct execute");
    let interval = request.confidence.as_ref().map(|spec| {
        snapshot
            .confidence(&request.query.tables, &spec.query, spec.level, request.seed)
            .expect("direct confidence")
    });
    wire::query_response_json(&result, interval.as_ref())
}

#[test]
fn http_responses_are_byte_identical_to_direct_execution() {
    let snapshot = snap_a();
    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("synthetic", Arc::clone(&snapshot));
    let server = serve(&registry, ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // The shared workload plus a filtered query and a confidence request —
    // the full wire surface in one sweep.
    let mut requests: Vec<QueryRequest> = workload()
        .iter()
        .flat_map(|q| (1..3u64).map(|seed| QueryRequest::new(q.clone(), seed)))
        .collect();
    requests.push(QueryRequest::new(
        Query::new(["ta", "tb"])
            .filter(Expr::col("b").eq(Expr::lit("b1")))
            .aggregate(Agg::CountStar),
        4,
    ));
    requests.push(
        QueryRequest::new(Query::new(["ta", "tb"]).aggregate(Agg::CountStar), 5).with_confidence(
            ConfidenceQuery::CountFraction {
                table: "tb".into(),
                column: "b".into(),
                value: "b1".into(),
            },
            0.95,
        ),
    );

    for request in &requests {
        let (status, body) = client
            .post("/v1/synthetic/query", &request.to_json())
            .expect("request");
        assert_eq!(status, 200, "query must succeed: {body}");
        assert_eq!(
            body,
            direct_body(&snapshot, request),
            "HTTP must add transport, not bits: {}",
            request.to_json()
        );
    }

    // Completed table, byte-identical as well.
    let (status, body) = client
        .get("/v1/synthetic/tables/tb?seed=2")
        .expect("table request");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        wire::table_json(&snapshot.completed_table("tb", 2).expect("direct table"))
    );

    // Protocol errors answer cleanly and keep the server serving.
    let (status, _) = client
        .post("/v1/synthetic/query", "not json")
        .expect("bad body");
    assert_eq!(status, 400);
    let (status, _) = client
        .post("/v1/synthetic/query", r#"{"tables":["nope_table"]}"#)
        .expect("bad table");
    assert!(
        status == 404 || status == 422,
        "unknown table is a client error, got {status}"
    );
    let (status, _) = client.get("/v1/synthetic/query").expect("wrong method");
    assert_eq!(status, 405);
    // A bad filter column is the same client error whether or not the data
    // lets a short-circuit skip over it (no `tb.b` is "absent").
    let bad_column = || Expr::col("nope").eq(Expr::lit(1i64));
    let answers: Vec<(u16, String)> = [
        bad_column(),
        Expr::col("b").eq(Expr::lit("absent")).and(bad_column()),
    ]
    .into_iter()
    .map(|filter| {
        let query = Query::new(["ta", "tb"])
            .filter(filter)
            .aggregate(Agg::CountStar);
        client
            .post(
                "/v1/synthetic/query",
                &QueryRequest::new(query, 1).to_json(),
            )
            .expect("bad filter")
    })
    .collect();
    assert_eq!(answers[0].0, 404, "{}", answers[0].1);
    assert_eq!(answers[0], answers[1], "hidden behind a short-circuit");
    // A reference two columns answer to (`ta.id`, `tb.id`) found too much,
    // not nothing: a malformed request, behind a short-circuit or not.
    let ambiguous = || Expr::col("id").eq(Expr::lit(1i64));
    let answers: Vec<(u16, String)> = [
        ambiguous(),
        Expr::col("b").eq(Expr::lit("absent")).and(ambiguous()),
    ]
    .into_iter()
    .map(|filter| {
        let query = Query::new(["ta", "tb"])
            .filter(filter)
            .aggregate(Agg::CountStar);
        client
            .post(
                "/v1/synthetic/query",
                &QueryRequest::new(query, 1).to_json(),
            )
            .expect("ambiguous filter")
    })
    .collect();
    assert_eq!(answers[0].0, 400, "{}", answers[0].1);
    assert!(answers[0].1.contains("ambiguous"), "{}", answers[0].1);
    assert_eq!(answers[0], answers[1], "hidden behind a short-circuit");
    assert!(server.shutdown(), "drain");
}

/// A body nested deeper than the JSON reader's bound — 200 KB of `[`, which
/// used to overflow a worker's stack and abort the whole process — is a
/// malformed request like any other, and the server goes on serving.
#[test]
fn a_deeply_nested_body_answers_400_and_the_server_keeps_serving() {
    let snapshot = snap_a();
    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("synthetic", Arc::clone(&snapshot));
    let server = serve(&registry, ServeConfig::default());
    let nested = format!("{{\"tables\":{}", "[".repeat(200_000));
    let (status, body) = HttpClient::connect(server.local_addr())
        .expect("connect")
        .post("/v1/synthetic/query", &nested)
        .expect("the bomb is answered");
    assert_eq!(status, 400, "{body}");

    let request = QueryRequest::new(workload()[0].clone(), 1);
    let (status, body) = HttpClient::connect(server.local_addr())
        .expect("a new connection")
        .post("/v1/synthetic/query", &request.to_json())
        .expect("request after the bomb");
    assert_eq!((status, body), (200, direct_body(&snapshot, &request)));
    assert!(server.shutdown(), "drain");
}

#[test]
fn hot_swap_under_load_is_torn_free() {
    let (v1, v2) = (snap_a(), snap_b());
    let query = Query::new(["ta", "tb"])
        .group_by(["b"])
        .aggregate(Agg::CountStar);
    let request = QueryRequest::new(query, 5);
    let body = Arc::new(request.to_json());
    let e1 = Arc::new(direct_body(&v1, &request));
    let e2 = Arc::new(direct_body(&v2, &request));
    assert_ne!(
        e1, e2,
        "the two serve seeds must give distinguishable responses"
    );

    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("swap", Arc::clone(&v1));
    let server = serve(&registry, ServeConfig::default());
    let addr = server.local_addr();

    let responded = Arc::new(AtomicUsize::new(0));
    let threads = 4;
    let iters = 12;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let (body, responded) = (Arc::clone(&body), Arc::clone(&responded));
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut responses = Vec::with_capacity(iters);
            for _ in 0..iters {
                let (status, response) = client.post("/v1/swap/query", &body).expect("request");
                assert_eq!(
                    status, 200,
                    "no request may fail across the swap: {response}"
                );
                responses.push(response);
                responded.fetch_add(1, Ordering::SeqCst);
            }
            responses
        }));
    }
    // Publish v2 while every thread is mid-workload: wait until each has a
    // few responses in, then swap atomically. v1 keeps serving in-flight
    // requests under the Arc refs those requests already hold.
    while responded.load(Ordering::SeqCst) < threads * 2 {
        std::thread::yield_now();
    }
    registry.publish("swap", Arc::clone(&v2));

    for handle in handles {
        let responses = handle.join().expect("client thread");
        let mut seen_v2 = false;
        for response in &responses {
            let is_v1 = response == e1.as_str();
            let is_v2 = response == e2.as_str();
            assert!(
                is_v1 || is_v2,
                "torn response (matches neither v1 nor v2): {response}"
            );
            if is_v2 {
                seen_v2 = true;
            }
            assert!(
                !(is_v1 && seen_v2),
                "response regressed to v1 after observing v2"
            );
        }
    }
    // The swap has settled: every new request serves v2.
    let (status, response) = HttpClient::connect(addr)
        .expect("connect")
        .post("/v1/swap/query", &body)
        .expect("request");
    assert_eq!((status, response.as_str()), (200, e2.as_str()));
    assert!(server.shutdown(), "drain");
}

#[test]
fn tenants_are_isolated_and_retire_cleanly() {
    let (alpha, beta) = (snap_a(), snap_b());
    let request = QueryRequest::new(
        Query::new(["ta", "tb"])
            .group_by(["b"])
            .aggregate(Agg::CountStar),
        3,
    );
    let body = Arc::new(request.to_json());
    let expected_alpha = Arc::new(direct_body(&alpha, &request));
    let expected_beta = Arc::new(direct_body(&beta, &request));
    assert_ne!(expected_alpha, expected_beta);

    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("alpha", alpha);
    registry.publish("beta", beta);
    let server = serve(&registry, ServeConfig::default());
    let addr = server.local_addr();

    // Concurrent clients interleave both tenants on shared infrastructure;
    // answers must never cross.
    let mut handles = Vec::new();
    for _ in 0..3 {
        let (body, expected_alpha, expected_beta) = (
            Arc::clone(&body),
            Arc::clone(&expected_alpha),
            Arc::clone(&expected_beta),
        );
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            for _ in 0..6 {
                let (status, a) = client.post("/v1/alpha/query", &body).expect("alpha");
                assert_eq!((status, a.as_str()), (200, expected_alpha.as_str()));
                let (status, b) = client.post("/v1/beta/query", &body).expect("beta");
                assert_eq!((status, b.as_str()), (200, expected_beta.as_str()));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Retiring one tenant 404s it without disturbing the other.
    assert!(registry.retire("beta").is_some());
    let mut client = HttpClient::connect(addr).expect("connect");
    let (status, _) = client.post("/v1/beta/query", &body).expect("retired");
    assert_eq!(status, 404);
    let (status, a) = client.post("/v1/alpha/query", &body).expect("alpha");
    assert_eq!((status, a.as_str()), (200, expected_alpha.as_str()));
    let (_, health) = client.get("/healthz").expect("healthz");
    assert!(health.contains("\"alpha\"") && !health.contains("\"beta\""));
    assert!(server.shutdown(), "drain");
}

#[test]
fn panicking_handler_does_not_wedge_other_connections() {
    // The fault plan panics every request pinned to key 7: four clients
    // that hit it at once each get a 500 on their own connection, promptly,
    // and the server keeps serving everyone else.
    let snapshot = snap_a();
    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("synthetic", Arc::clone(&snapshot));
    let fault = FaultConfig {
        window: (7, 8),
        panic_prob: 1.0,
        ..FaultConfig::default()
    };
    let server = serve(
        &registry,
        ServeConfig {
            fault: Some(fault),
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let request = QueryRequest::new(workload()[0].clone(), 1);
    let body = Arc::new(request.to_json());
    let pinned = move |key: &str, body: &str| {
        HttpClient::connect(addr)
            .expect("connect")
            .request_full(
                "POST",
                "/v1/synthetic/query",
                Some(body),
                &[("X-Fault-Key", key)],
            )
            .expect("response, not a hang")
    };

    let barrier = Arc::new(Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let (barrier, body) = (Arc::clone(&barrier), Arc::clone(&body));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            pinned("7", &body)
        }));
    }
    for handle in handles {
        let response = handle.join().expect("panic client");
        assert_eq!(
            response.status, 500,
            "panic surfaces as 500: {}",
            response.body
        );
        assert!(response.body.contains("error"), "{}", response.body);
    }

    // A key outside the window is served, and so is the control plane.
    let clean = pinned("8", &body);
    assert_eq!(
        (clean.status, clean.body),
        (200, direct_body(&snapshot, &request))
    );
    let (status, health) = HttpClient::connect(addr)
        .expect("connect")
        .get("/healthz")
        .expect("healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"ok\""));
    assert!(
        server.shutdown(),
        "a panicked handler must not block draining"
    );
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

/// The key paths of a worker's `/metrics` before its first query.
const WORKER_METRICS: [&str; 30] = [
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
    "tenants",
];

/// The keys of one tenant's object under `tenants`.
const TENANT_METRICS: [&str; 5] = [
    "queries",
    "errors",
    "rate_limited",
    "last_error_request_id",
    "queries_per_s",
];

#[test]
fn worker_metrics_keep_their_key_paths_and_plain_digit_counters() {
    let snapshot = snap_a();
    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("synthetic", Arc::clone(&snapshot));
    let server = serve(&registry, ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let read_paths = |client: &mut HttpClient| {
        let (status, body) = client.get("/metrics").expect("metrics");
        assert_eq!(status, 200);
        assert_counters_are_plain_digits(&body);
        let mut paths = Vec::new();
        key_paths(&parse(&body).expect("metrics parse"), "", &mut paths);
        paths
    };
    assert_eq!(read_paths(&mut client), WORKER_METRICS);

    let request = QueryRequest::new(workload()[0].clone(), 1);
    let (status, _) = client
        .post("/v1/synthetic/query", &request.to_json())
        .expect("query");
    assert_eq!(status, 200);
    let mut expected: Vec<String> = WORKER_METRICS[..29].iter().map(|p| p.to_string()).collect();
    expected.extend(
        TENANT_METRICS
            .iter()
            .map(|k| format!("tenants.synthetic.{k}")),
    );
    assert_eq!(read_paths(&mut client), expected);
    assert!(server.shutdown(), "drain");
}

#[test]
fn graceful_shutdown_drains_stalled_mid_request_connections() {
    // A client that sends half a request and stalls must not defeat the
    // drain: a half-received request is not in-flight work.
    use std::io::Write;
    let registry = Arc::new(SnapshotRegistry::new());
    let server = serve(&registry, ServeConfig::default());
    let mut stalled = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stalled.write_all(b"POST /v1/x/query HTT").expect("partial");
    // Wait until the connection thread has registered its guard.
    while server.connections_active() == 0 {
        std::thread::yield_now();
    }
    assert!(server.shutdown(), "stalled sender must not block the drain");
}

#[test]
fn graceful_shutdown_drains_idle_keepalive_connections() {
    let registry = Arc::new(SnapshotRegistry::new());
    let server = serve(&registry, ServeConfig::default());
    let addr = server.local_addr();

    // An idle keep-alive connection holds a reactor slot; shutdown must
    // release it at the next poll tick rather than time out.
    let mut idle = HttpClient::connect(addr).expect("connect");
    let (status, _) = idle.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    // A connection the client closes leaves the count.
    let mut closed = HttpClient::connect(addr).expect("connect");
    assert_eq!(closed.get("/healthz").expect("healthz").0, 200);
    drop(closed);
    let started = std::time::Instant::now();
    while server.connections_active() != 1 {
        assert!(
            started.elapsed().as_secs() < 5,
            "closed connection still counted"
        );
        std::thread::yield_now();
    }
    assert!(server.connections_active() >= 1);
    assert!(server.shutdown(), "idle connections must drain");
    assert!(
        HttpClient::connect(addr).is_err(),
        "listener closed after shutdown"
    );
}
