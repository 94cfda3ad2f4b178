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
//!   track forwards and failures.
//!
//! Process-level spawn/re-exec failover is covered by the `process_smoke`
//! binary; these tests pin the routing semantics without process churn.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use restore_fixtures::{balanced_fleet_tenants, sealed_synthetic_snapshot, serving_workload};

use restore::core::wire::QueryRequest;
use restore::core::{ConfidenceQuery, Snapshot, SnapshotRegistry};
use restore::db::{Agg, Expr, Query};
use restore::serve::router::{Fleet, FleetConfig, ShardConfig};
use restore::serve::{ClientConfig, HttpClient, RetryPolicy, ServeConfig, Server};
use restore::util::json::parse;

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
            retry: RetryPolicy {
                budget: Duration::from_secs(1),
                ..RetryPolicy::default()
            },
        },
        health_interval: Duration::from_millis(50),
        ..FleetConfig::default()
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
    let root = parse(&fleet.metrics_json()).expect("fleet metrics parse");
    assert!(root.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);

    assert!(router.shutdown());
    fleet.shutdown();
    assert!(replacement.shutdown());
    assert!(worker1.shutdown());
}
