//! Ingress resilience plane contract (`restore-serve`):
//!
//! * **admission control** — at most `max_in_flight` `/v1/*` requests run
//!   concurrently; excess sheds with 429 + `Retry-After`, counted in
//!   `/metrics`, and the gate reopens as soon as load passes;
//! * **per-tenant rate limiting** — one hot tenant exhausts its own token
//!   bucket (429 + `Retry-After`) without touching its neighbors;
//! * **deadline budgets** — a request that cannot start its next stage in
//!   budget answers 503 with stage detail instead of holding the line;
//! * **request ids** — every response carries an accept-order
//!   `X-Request-Id`, and a tenant's `/metrics` counters record the id of
//!   its most recent error;
//! * **deterministic chaos** — a seeded `FaultPlan` produces bit-identical
//!   per-request outcome classes across runs and client worker counts, the
//!   server never wedges, and traffic outside the fault window is clean;
//! * **retrying client** — backs off, honors `Retry-After`, recovers from
//!   transient 429s, and gives up cleanly on persistent transport faults;
//! * **drain edge cases** — slow-loris bodies are cut under the deadline,
//!   half-open connections don't block the drain, and shedding during
//!   shutdown still answers.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use restore_fixtures::sealed_synthetic_snapshot;

use restore::core::wire::QueryRequest;
use restore::core::{Snapshot, SnapshotRegistry};
use restore::db::{Agg, Query};
use restore::serve::{
    ClientConfig, FaultAction, FaultConfig, FaultPlan, HttpClient, RetryPolicy, ServeConfig, Server,
};
use restore::util::json::parse;
use restore::util::{BackoffConfig, RateLimitConfig};

fn snapshot() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| sealed_synthetic_snapshot(51, 51)))
}

fn registry_with(tenants: &[&str]) -> Arc<SnapshotRegistry> {
    let registry = Arc::new(SnapshotRegistry::new());
    for tenant in tenants {
        registry.publish(*tenant, snapshot());
    }
    registry
}

fn query_body() -> String {
    QueryRequest::new(Query::new(["tb"]).aggregate(Agg::CountStar), 1).to_json()
}

/// Parses `/metrics` and digs out a numeric field by path.
fn metric(client: &mut HttpClient, path: &[&str]) -> f64 {
    let (status, body) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let parsed = parse(&body).expect("metrics is valid JSON");
    let mut node = &parsed;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {body}"));
    }
    node.as_f64().expect("numeric metric")
}

/// Polls until `cond` holds or the timeout elapses.
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

/// A fault plan that delays exactly the keys in `window` by `delay`.
fn delay_plan(window: (u64, u64), delay: Duration) -> FaultConfig {
    FaultConfig {
        seed: 1,
        window,
        delay_prob: 1.0,
        delay,
        ..FaultConfig::default()
    }
}

#[test]
fn admission_gate_sheds_with_retry_after_and_recovers() {
    let registry = registry_with(&["t"]);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            max_in_flight: 1,
            fault: Some(delay_plan((1, 2), Duration::from_millis(500))),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let body = query_body();

    // A delayed request (fault key 1) holds the single admission permit…
    let slow = {
        let body = body.clone();
        std::thread::spawn(move || {
            HttpClient::connect(addr)
                .expect("connect")
                .request_full("POST", "/v1/t/query", Some(&body), &[("X-Fault-Key", "1")])
                .expect("slow request")
        })
    };
    assert!(
        wait_until(Duration::from_secs(2), || server.requests_admitted() == 1),
        "the delayed request must be holding the admission permit"
    );

    // …so a concurrent clean request is shed immediately: 429, a computed
    // Retry-After, and an accept-order request id on the response.
    let mut client = HttpClient::connect(addr).expect("connect");
    let shed = client
        .request_full("POST", "/v1/t/query", Some(&body), &[])
        .expect("shed request answers");
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(
        shed.retry_after() >= Some(Duration::from_secs(1)),
        "429 must carry a computed Retry-After: {:?}",
        shed.headers
    );
    assert!(shed.request_id().is_some(), "{:?}", shed.headers);
    assert!(shed.body.contains("capacity"), "{}", shed.body);

    // The slow request itself succeeds — shedding never cancels admitted
    // work — and once the permit frees, the gate reopens.
    let slow = slow.join().expect("slow thread");
    assert_eq!(slow.status, 200, "{}", slow.body);
    let recovered = client
        .request_full("POST", "/v1/t/query", Some(&body), &[])
        .expect("post-overload request");
    assert_eq!(
        recovered.status, 200,
        "gate must reopen: {}",
        recovered.body
    );

    // The shed shows up in /metrics.
    assert!(metric(&mut client, &["requests", "shed"]) >= 1.0);
    assert_eq!(metric(&mut client, &["requests", "admitted"]), 0.0);
    assert!(server.shutdown(), "drain");
}

#[test]
fn rate_limit_is_per_tenant() {
    let registry = registry_with(&["hot", "cold"]);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            // Burst of two, then one token every 10 s: within this test no
            // refill happens, so the outcomes are fully deterministic.
            rate_limit: Some(RateLimitConfig::new(0.1, 2.0)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let body = query_body();

    // The hot tenant burns its burst, then sheds.
    for i in 0..2 {
        let (status, response) = client.post("/v1/hot/query", &body).expect("burst");
        assert_eq!(status, 200, "burst request {i}: {response}");
    }
    let limited = client
        .request_full("POST", "/v1/hot/query", Some(&body), &[])
        .expect("limited request answers");
    assert_eq!(limited.status, 429, "{}", limited.body);
    assert!(limited.body.contains("rate limit"), "{}", limited.body);
    let retry_after = limited.retry_after().expect("Retry-After present");
    // One token at 0.1/s is 10 s away; the header rounds up to whole secs.
    assert!(
        (10..=11).contains(&retry_after.as_secs()),
        "Retry-After should reflect the bucket refill: {retry_after:?}"
    );

    // The cold tenant is untouched by its neighbor's shedding.
    let (status, response) = client.post("/v1/cold/query", &body).expect("cold");
    assert_eq!(status, 200, "{response}");

    // Per-tenant metrics: the shed is attributed to the hot tenant, with
    // the shedding request's id recorded as its latest error.
    let hot_limited = metric(&mut client, &["tenants", "hot", "rate_limited"]);
    assert_eq!(hot_limited, 1.0);
    assert_eq!(
        metric(&mut client, &["tenants", "cold", "rate_limited"]),
        0.0
    );
    assert_eq!(
        metric(&mut client, &["tenants", "hot", "last_error_request_id"]),
        limited.request_id().expect("shed response has an id") as f64
    );
    assert!(server.shutdown(), "drain");
}

#[test]
fn deadline_budget_answers_503_with_stage_detail() {
    let registry = registry_with(&["t"]);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            request_deadline: Duration::from_millis(60),
            // Key 7 is delayed past the whole budget inside admission.
            fault: Some(delay_plan((7, 8), Duration::from_millis(200))),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let body = query_body();

    // An untouched request fits the budget comfortably.
    let (status, response) = client.post("/v1/t/query", &body).expect("fast request");
    assert_eq!(status, 200, "{response}");

    // The delayed request blows its budget and answers 503 with partial
    // progress: the stage it reached and elapsed-vs-budget milliseconds.
    let slow = client
        .request_full("POST", "/v1/t/query", Some(&body), &[("X-Fault-Key", "7")])
        .expect("over-budget request still answers");
    assert_eq!(slow.status, 503, "{}", slow.body);
    for needle in [
        "deadline budget exhausted",
        "\"stage\"",
        "elapsed_ms",
        "budget_ms",
    ] {
        assert!(
            slow.body.contains(needle),
            "missing {needle}: {}",
            slow.body
        );
    }
    assert_eq!(metric(&mut client, &["requests", "deadline_exceeded"]), 1.0);
    assert!(server.shutdown(), "drain");
}

#[test]
fn request_ids_are_accept_ordered_and_threaded_into_metrics() {
    let registry = registry_with(&["t"]);
    let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let body = query_body();

    let first = client
        .request_full("POST", "/v1/t/query", Some(&body), &[])
        .expect("first");
    let second = client
        .request_full("POST", "/v1/t/query", Some(&body), &[])
        .expect("second");
    let (a, b) = (
        first.request_id().expect("id on every response"),
        second.request_id().expect("id on every response"),
    );
    assert!(b > a, "accept-order ids must increase: {a} then {b}");

    // An erroring request stamps its id into the tenant's error counters.
    let bad = client
        .request_full("POST", "/v1/t/query", Some("not json"), &[])
        .expect("bad body answers");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let bad_id = bad.request_id().expect("errors carry ids too");
    assert!(bad_id > b);
    assert_eq!(metric(&mut client, &["tenants", "t", "errors"]), 1.0);
    assert_eq!(
        metric(&mut client, &["tenants", "t", "last_error_request_id"]),
        bad_id as f64
    );
    assert!(server.shutdown(), "drain");
}

/// Outcome class of one soaked request — the unit of the reproducibility
/// check. `Cut` covers every injected transport failure (read error, write
/// error, torn response): the client sees the connection die.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Ok,
    Panicked,
    Cut,
}

fn expected_outcome(action: FaultAction) -> Outcome {
    match action {
        FaultAction::None | FaultAction::Delay(_) => Outcome::Ok,
        FaultAction::Panic => Outcome::Panicked,
        FaultAction::ReadError | FaultAction::WriteError | FaultAction::TornResponse => {
            Outcome::Cut
        }
    }
}

/// Soaks `keys` requests for `route` (method, path, body) through a
/// freshly faulted server with `workers` client threads (key k handled by
/// worker k % workers) and returns the per-key outcome classes plus the
/// server's final faults_injected count.
fn chaos_soak(
    config: &FaultConfig,
    route: (&str, &str, Option<&str>),
    keys: u64,
    workers: u64,
) -> (Vec<Outcome>, f64) {
    let (method, path, body) = route;
    let registry = registry_with(&["t"]);
    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            fault: Some(*config),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut by_key = vec![Outcome::Ok; keys as usize];
    std::thread::scope(|scope| {
        let soak_worker = |w: u64| {
            let mut outcomes = Vec::new();
            for key in (0..keys).filter(|k| k % workers == w) {
                let outcome = HttpClient::connect(addr).expect("connect").request_full(
                    method,
                    path,
                    body,
                    &[("X-Fault-Key", &key.to_string())],
                );
                let class = match outcome {
                    Ok(r) if r.status == 200 => Outcome::Ok,
                    Ok(r) if r.status == 500 => Outcome::Panicked,
                    Ok(r) => panic!("unexpected status {} for key {key}", r.status),
                    Err(_) => Outcome::Cut,
                };
                outcomes.push((key, class));
            }
            outcomes
        };
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || soak_worker(w)))
            .collect();
        for handle in handles {
            for (key, class) in handle.join().expect("soak worker") {
                by_key[key as usize] = class;
            }
        }
    });
    let mut client = HttpClient::connect(addr).expect("connect");
    let injected = metric(&mut client, &["requests", "faults_injected"]);
    assert!(server.shutdown(), "a faulted server must still drain");
    (by_key, injected)
}

#[test]
fn chaos_schedule_is_bit_reproducible_across_runs_and_worker_counts() {
    let config = FaultConfig {
        seed: 99,
        window: (0, 60),
        delay_prob: 0.15,
        delay: Duration::from_millis(5),
        read_error_prob: 0.15,
        write_error_prob: 0.15,
        torn_prob: 0.15,
        panic_prob: 0.15,
    };
    // The schedule is a pure function of (seed, key): derive the expected
    // outcome classes straight from the plan.
    let plan = FaultPlan::new(config);
    let expected: Vec<Outcome> = (0..90).map(|k| expected_outcome(plan.action(k))).collect();
    let expected_injected = (0..90)
        .filter(|&k| plan.action(k) != FaultAction::None)
        .count() as f64;
    assert!(
        expected[..60].iter().any(|&o| o != Outcome::Ok),
        "the window must actually fault something"
    );
    assert!(
        expected[60..].iter().all(|&o| o == Outcome::Ok),
        "keys past the window must be clean"
    );

    // The control plane, then the gated query route against a published
    // snapshot: handler panics and torn writes must leave the admission
    // permits and the single-flight table as reusable as a clean request.
    let query = query_body();
    for route in [
        ("GET", "/healthz", None),
        ("POST", "/v1/t/query", Some(query.as_str())),
    ] {
        let (serial, injected_serial) = chaos_soak(&config, route, 90, 1);
        let (parallel_a, injected_a) = chaos_soak(&config, route, 90, 4);
        let (parallel_b, injected_b) = chaos_soak(&config, route, 90, 4);
        assert_eq!(
            serial, expected,
            "1-worker soak must match the plan exactly: {route:?}"
        );
        assert_eq!(
            parallel_a, expected,
            "4-worker soak must match the plan: {route:?}"
        );
        assert_eq!(
            parallel_b, expected,
            "reruns must be bit-identical: {route:?}"
        );
        assert_eq!(
            (injected_serial, injected_a, injected_b),
            (expected_injected, expected_injected, expected_injected),
            "every injected fault is counted, and only those: {route:?}"
        );
    }
}

#[test]
fn retrying_client_honors_retry_after_through_transient_429s() {
    let registry = registry_with(&["t"]);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            // Burst of one; a token refills every 50 ms.
            rate_limit: Some(RateLimitConfig::new(20.0, 1.0)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = HttpClient::connect_with(
        server.local_addr(),
        ClientConfig {
            retry: RetryPolicy {
                max_attempts: 6,
                backoff: BackoffConfig {
                    initial: Duration::from_millis(20),
                    max: Duration::from_millis(80),
                    multiplier: 2.0,
                    jitter: 0.0,
                },
                budget: Duration::from_secs(5),
                // The server rounds Retry-After up to 1 s; cap the honored
                // wait so the test stays fast while still waiting longer
                // than the backoff alone would.
                retry_after_cap: Duration::from_millis(60),
                seed: 7,
            },
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let body = query_body();

    let first = client
        .request_with_retry("POST", "/v1/t/query", Some(&body), &[])
        .expect("first");
    assert_eq!(first.status, 200, "{}", first.body);
    // The bucket is empty now: the next request must ride retries through
    // at least one 429 and come out 200 once the token refills.
    let started = Instant::now();
    let second = client
        .request_with_retry("POST", "/v1/t/query", Some(&body), &[])
        .expect("retried");
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(
        started.elapsed() >= Duration::from_millis(40),
        "success must have come through a waited retry, not instantly"
    );
    assert!(
        metric(&mut client, &["requests", "shed"]) >= 1.0,
        "the transient 429 must be visible in /metrics"
    );
    assert!(server.shutdown(), "drain");
}

#[test]
fn retrying_client_gives_up_cleanly_on_persistent_faults() {
    // Every request draws a torn response: the retry layer reconnects and
    // backs off, then surfaces the transport error after max_attempts.
    let registry = registry_with(&[]);
    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            fault: Some(FaultConfig {
                seed: 3,
                window: (0, u64::MAX),
                torn_prob: 1.0,
                ..FaultConfig::default()
            }),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = HttpClient::connect_with(
        server.local_addr(),
        ClientConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: BackoffConfig {
                    initial: Duration::from_millis(5),
                    max: Duration::from_millis(10),
                    multiplier: 2.0,
                    jitter: 0.5,
                },
                budget: Duration::from_secs(5),
                retry_after_cap: Duration::from_millis(20),
                seed: 0,
            },
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let started = Instant::now();
    let outcome = client.request_with_retry("GET", "/healthz", None, &[("X-Fault-Key", "5")]);
    assert!(outcome.is_err(), "persistent torn responses must surface");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "give-up must be prompt, not a hang"
    );
    assert!(server.shutdown(), "drain");
}

#[test]
fn slow_loris_body_is_cut_under_the_deadline() {
    use std::io::{Read, Write};
    let registry = registry_with(&[]);
    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            request_deadline: Duration::from_millis(120),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut loris = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    loris
        .write_all(b"POST /v1/t/query HTTP/1.1\r\nContent-Length: 50\r\n\r\ndrip")
        .expect("partial body");
    // Drip one more byte, then stall past the deadline.
    std::thread::sleep(Duration::from_millis(40));
    loris.write_all(b".").expect("drip");
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut response = Vec::new();
    loris
        .read_to_end(&mut response)
        .expect("server answers then closes");
    let head = String::from_utf8_lossy(&response);
    assert!(
        head.starts_with("HTTP/1.1 400") && head.contains("did not complete in time"),
        "slow-loris must be cut with a 400, got: {head}"
    );
    assert!(server.shutdown(), "drain after cutting the loris");
}

#[test]
fn half_open_connection_does_not_block_drain() {
    let registry = registry_with(&[]);
    let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default()).expect("bind");
    // The client FINs its write half and lingers: the server sees EOF and
    // must release the connection guard rather than wait on the read half.
    let half_open = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    half_open
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    assert!(
        server.shutdown(),
        "a half-open connection must not block the drain"
    );
    drop(half_open);
}

#[test]
fn shedding_during_shutdown_still_answers_and_drains() {
    let registry = registry_with(&["t"]);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            max_in_flight: 1,
            fault: Some(delay_plan((1, 2), Duration::from_millis(400))),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let body = query_body();

    // A delayed request rides into the drain window holding the permit…
    let slow = {
        let body = body.clone();
        std::thread::spawn(move || {
            HttpClient::connect(addr)
                .expect("connect")
                .request_full("POST", "/v1/t/query", Some(&body), &[("X-Fault-Key", "1")])
                .expect("slow request survives the drain")
        })
    };
    assert!(
        wait_until(Duration::from_secs(2), || server.requests_admitted() == 1),
        "delayed request must hold the permit"
    );

    // …a concurrent request sheds 429 while the server is saturated…
    let mut client = HttpClient::connect(addr).expect("connect");
    let shed = client
        .request_full("POST", "/v1/t/query", Some(&body), &[])
        .expect("shed request answers");
    assert_eq!(shed.status, 429, "{}", shed.body);

    // …then shutdown starts while the slow request is still in flight:
    // the drain must wait for it, and the shed client's later traffic must
    // complete (answer or clean close), never hang.
    let draining = std::thread::spawn(move || server.shutdown());
    let racing = client.request_full("POST", "/v1/t/query", Some(&body), &[]);
    if let Ok(response) = &racing {
        assert!(
            [200, 429, 503].contains(&response.status),
            "mid-shutdown answer must be a real outcome: {}",
            response.status
        );
    }
    let slow = slow.join().expect("slow thread");
    assert_eq!(
        slow.status, 200,
        "in-flight work rides through the drain: {}",
        slow.body
    );
    assert!(draining.join().expect("shutdown thread"), "drain completes");
}
