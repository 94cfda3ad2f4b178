//! The one process-level smoke: everything in the serving stack that needs
//! a second OS process to check, and nothing `tests/` already pins
//! in-process. A snapshot is trained and sealed here, saved into a temp
//! directory, and served by a shard router in front of two worker
//! *processes* (re-execs of this binary with `--worker DIR`) that know
//! nothing but that directory. In order:
//!
//! 1. **Cold start is a file read** — loading the saved file is at least
//!    10× faster than the train + seal that produced it, both timed here.
//! 2. **Cold load in a fresh process** — every wire route through the
//!    router answers byte-identically to the body rendered in this process
//!    from the *in-memory* snapshot.
//! 3. **Failover** — kill one worker under a closed-loop client: zero
//!    failed requests, exactly one recorded respawn, the tenant→shard
//!    mapping unchanged, and post-recovery bytes equal to pre-kill bytes.
//! 4. **Drain** — the router drains cleanly and the fleet tears its
//!    workers down.
//!
//! Exits non-zero on any divergence.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use restore_core::wire::{self, QueryRequest};
use restore_core::{ConfidenceQuery, Snapshot, SnapshotRegistry};
use restore_db::{Agg, Query};
use restore_fixtures::{
    balanced_fleet_tenants, sealed_synthetic_snapshot, seed_fleet_snapshot_dir, serving_workload,
};
use restore_serve::router::{Fleet, FleetConfig, ShardConfig, WorkerSpec};
use restore_serve::{HttpClient, ServeConfig, Server, SnapshotStore};

/// Child mode: a stock server whose whole startup story is the boot scan
/// of `snapshot_dir`. Prints the address line the fleet spawner parses,
/// serves until stdin reaches EOF (parent drop or death), then drains.
fn worker(snapshot_dir: PathBuf) -> ! {
    let config = ServeConfig {
        snapshot_dir: Some(snapshot_dir),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(SnapshotRegistry::new()), config)
        .expect("worker bind");
    println!("process_smoke worker listening on {}", server.local_addr());
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    std::process::exit(0);
}

/// (status, body) of one request. Headers are excluded on purpose: request
/// ids are per-server accept-order counters.
fn ask(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let response = HttpClient::connect(addr)
        .expect("connect")
        .request_full(method, path, body, &[])
        .expect("request");
    (response.status, response.body)
}

/// Every success route of the wire format as `(method, path suffix,
/// request body, expected response body)`, the expectation rendered from
/// the in-memory snapshot without touching a socket or a file.
fn expected_routes(snapshot: &Snapshot) -> Vec<(&'static str, String, Option<String>, String)> {
    let mut routes = Vec::new();
    for (seed, query) in serving_workload().into_iter().enumerate() {
        let seed = seed as u64;
        let result = snapshot.execute(&query, seed).expect("execute");
        routes.push((
            "POST",
            "/query".to_string(),
            Some(QueryRequest::new(query, seed).to_json()),
            wire::query_response_json(&result, None),
        ));
    }
    let query = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
    let cq = ConfidenceQuery::CountFraction {
        table: "tb".into(),
        column: "b".into(),
        value: "b1".into(),
    };
    let result = snapshot.execute(&query, 5).expect("execute");
    let ci = snapshot
        .confidence(&query.tables, &cq, 0.95, 5)
        .expect("confidence");
    routes.push((
        "POST",
        "/query".to_string(),
        Some(
            QueryRequest::new(query, 5)
                .with_confidence(cq, 0.95)
                .to_json(),
        ),
        wire::query_response_json(&result, Some(&ci)),
    ));
    let table = snapshot.completed_table("tb", 2).expect("completed table");
    routes.push((
        "GET",
        "/tables/tb?seed=2".to_string(),
        None,
        wire::table_json(&table),
    ));
    routes
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = args.as_slice() {
        if flag == "--worker" {
            worker(PathBuf::from(dir));
        }
    }

    // Two shards, four tenants balanced two-per-shard, one snapshot dir.
    let snapshot_dir =
        std::env::temp_dir().join(format!("restore_process_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let tenants = balanced_fleet_tenants(2, 2);
    let build_started = Instant::now();
    let snapshot = sealed_synthetic_snapshot(7, 1);
    let build = build_started.elapsed();
    seed_fleet_snapshot_dir(&snapshot_dir, &tenants, &snapshot);

    // Phase 1: best of three loads, so the comparison reflects the format
    // and not one cold page cache.
    let file = SnapshotStore::new(&snapshot_dir).version_path(&tenants[0], 1);
    let load = (0..3)
        .map(|_| {
            let started = Instant::now();
            Snapshot::load(&file).expect("load saved snapshot");
            started.elapsed()
        })
        .min()
        .expect("three loads");
    assert!(
        build >= 10 * load,
        "cold start from a snapshot file must be ≥10x faster than retraining \
         (train + seal {build:?}, load {load:?})"
    );
    println!("cold start: train + seal {build:?}, load {load:?}");

    let spec = WorkerSpec {
        program: std::env::current_exe().expect("current exe"),
        args: vec!["--worker".to_string(), snapshot_dir.display().to_string()],
    };
    let fleet = Fleet::start(FleetConfig {
        shards: vec![
            ShardConfig {
                addr: None,
                worker: Some(spec)
            };
            2
        ],
        ..FleetConfig::default()
    })
    .expect("fleet start");
    let router = Server::bind(
        "127.0.0.1:0",
        Arc::new(SnapshotRegistry::new()),
        ServeConfig {
            fleet: Some(Arc::clone(&fleet)),
            ..ServeConfig::default()
        },
    )
    .expect("bind router");
    let router_addr = router.local_addr();

    // Phase 2: what a fresh process serves from the file is what this
    // process renders from memory, for every tenant on every route.
    let routes = expected_routes(&snapshot);
    for tenant in &tenants {
        for (method, suffix, body, expected) in &routes {
            let path = format!("/v1/{tenant}{suffix}");
            let (status, got) = ask(router_addr, method, &path, body.as_deref());
            assert_eq!(status, 200, "{method} {path}: {got}");
            assert_eq!(
                &got, expected,
                "{method} {path}: a cold-loaded worker must serve the in-memory bytes"
            );
        }
    }
    println!(
        "cold load: {} routes x {} tenants byte-identical to the in-memory snapshot",
        routes.len(),
        tenants.len()
    );

    // Phase 3: kill shard 0's worker under load; zero failed requests.
    let victim_tenant = tenants
        .iter()
        .find(|t| fleet.shard_for(t) == 0)
        .expect("a tenant lives on shard 0");
    let victim_path = format!("/v1/{victim_tenant}/query");
    let (_, _, plain, pre_kill) = &routes[0];
    let plain = plain.clone().expect("query body");
    let old_addr = fleet.shard_addr(0).expect("shard 0 addr");
    let survivor_addr = fleet.shard_addr(1).expect("shard 1 addr");
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let (stop, path, body) = (Arc::clone(&stop), victim_path.clone(), plain.clone());
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(router_addr).expect("load connect");
            let mut completed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                match client.request_full("POST", &path, Some(&body), &[]) {
                    Ok(response) => assert_eq!(
                        response.status, 200,
                        "zero failed requests through failover: {}",
                        response.body
                    ),
                    // The router may close the connection it was holding
                    // when it answered; transport-level reconnect is the
                    // client's normal keep-alive contract, not a failure.
                    Err(_) => client = HttpClient::connect(router_addr).expect("reconnect"),
                }
                completed += 1;
            }
            completed
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(fleet.kill_shard(0), "shard 0 must have a child to kill");
    // Wait for the monitor to notice, re-exec, and restore service.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(fleet.shard_is_up(0) && fleet.shard_addr(0) != Some(old_addr)) {
        assert!(Instant::now() < deadline, "failover must finish within 30s");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Ride a little longer on the recovered shard, then stop the load.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let completed = load.join().expect("load thread");
    assert!(
        completed > 0,
        "load thread must have exercised the failover"
    );
    let new_addr = fleet.shard_addr(0).expect("respawned shard addr");
    assert_eq!(fleet.shard_for(victim_tenant), 0, "mapping must not move");
    let (status, post_kill) = ask(router_addr, "POST", &victim_path, Some(&plain));
    assert_eq!(status, 200);
    assert_eq!(
        &post_kill, pre_kill,
        "a re-execed worker must answer byte-identically from the same snapshot dir"
    );
    let fleet_metrics = fleet.metrics_json();
    let respawns = fleet_metrics.get("respawns").and_then(|v| v.as_f64());
    let respawns = respawns.expect("fleet metrics carry respawns");
    assert_eq!(respawns, 1.0, "exactly one recorded re-exec");
    println!(
        "failover: worker re-execed ({old_addr} -> {new_addr}), {completed} requests, 0 failures"
    );

    // Phase 4: graceful drain; no worker process outlives the fleet.
    assert!(router.shutdown(), "router must drain cleanly");
    fleet.shutdown();
    for addr in [new_addr, survivor_addr] {
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err(),
            "worker on {addr} must be gone after fleet shutdown"
        );
    }
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    println!("process_smoke ok: fast cold start, cold-load byte equality, zero-loss failover, clean drain");
}
