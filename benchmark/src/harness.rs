//! One run of one workload: set-up, verification pass, warm-up, timed
//! windows, preconditions, metrics.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use restore_core::wire::QueryRequest;
use restore_core::{Snapshot, SnapshotRegistry};
use restore_serve::router::{Fleet, FleetConfig, ShardConfig, WorkerSpec};
use restore_serve::{ServeConfig, Server, SnapshotStore};
use restore_util::json::JsonValue;
use restore_util::{derive_seed, fnv1a64};

use crate::client::{encode_request, Conn};
use crate::fixtures::{self, Built, Expected};
use crate::probe;
use crate::report::{Metric, Report};
use crate::spec::{
    Better, Workload, BEST_WINDOW, CLIENTS, END_TO_END, MIN_SETUPS, PER_LAYER, WARMUP_S, WINDOWS,
};
use crate::stats::{median, nth_best, per_window, percentile, window_rates};
use crate::trace::{Recorder, Span};

/// Tenants per fleet shard, and shards.
const FLEET_SHARDS: usize = 2;
const FLEET_TENANTS_PER_SHARD: usize = 4;

/// The cycle position the rebuild driver polls with: the cheapest join
/// shape whose answer carries a synthesized average, so it is certain to
/// change when the served version does.
const POLL_SHAPE: usize = 4;
const POLL_EVERY: Duration = Duration::from_millis(25);

/// Where a run keeps its files: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One pre-encoded request of a client's cycle.
pub struct Entry {
    pub tenant: String,
    pub bytes: Vec<u8>,
    /// Index into the workload's cycle of shapes.
    pub shape: usize,
}

/// A workload set up and ready to take load.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub cycle: Vec<QueryRequest>,
    pub built: Built,
    /// The snapshot responses are checked against, in-process.
    pub snapshot: Arc<Snapshot>,
    pub fleet: Option<Arc<Fleet>>,
    pub addr: SocketAddr,
    /// One request sequence per client.
    pub plans: Vec<Vec<Entry>>,
    pub snapshot_dir: Option<PathBuf>,
    pub seal_ms: f64,
    // Last, so it drains after nothing else needs it.
    server: Option<Server>,
}

impl Env {
    /// Stops the servers and worker processes and removes the run's files.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
        if let Some(dir) = self.snapshot_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Tenant names, `per_shard` for each value of `fnv1a64(name) % shards`
/// (the router's placement), grouped by shard.
fn balanced_tenants(per_shard: usize, shards: usize) -> Vec<Vec<String>> {
    let mut by_shard = vec![Vec::new(); shards];
    let mut i = 0u64;
    while by_shard.iter().any(|t| t.len() < per_shard) {
        let name = format!("tenant-{i}");
        let shard = (fnv1a64(name.as_bytes()) % shards as u64) as usize;
        if by_shard[shard].len() < per_shard {
            by_shard[shard].push(name);
        }
        i += 1;
    }
    by_shard
}

fn plan(cycle: &[QueryRequest], tenants: &[&str], rotate: usize) -> Vec<Entry> {
    let mut entries: Vec<Entry> = tenants
        .iter()
        .flat_map(|tenant| {
            let path = format!("/v1/{tenant}/query");
            cycle.iter().enumerate().map(move |(shape, request)| Entry {
                tenant: tenant.to_string(),
                bytes: encode_request("POST", &path, &request.to_json()),
                shape,
            })
        })
        .collect();
    entries.rotate_left(rotate);
    entries
}

/// Sets the workload up: data, training, sealing, persistence, servers,
/// worker processes, and the cache state the workload is about. Returns
/// the environment and how long it took.
pub fn setup(workload: Workload, seed: u64) -> (Env, f64) {
    let started = Instant::now();
    let cycle = fixtures::cycle(workload, seed);
    let built = fixtures::build(workload, &cycle);
    let serve_seed = derive_seed(seed, 0x5e41);
    let seal_started = Instant::now();
    let snapshot = Arc::new(built.restore.seal(serve_seed));
    let seal_ms = seal_started.elapsed().as_secs_f64() * 1e3;
    let registry = Arc::new(SnapshotRegistry::new());
    let run_dir = out_dir().join(format!("run-{}-{}", std::process::id(), workload.name()));
    // Client `c` starts `c` half-cycles into the cycle, the whole pattern
    // shifted by the seed: two clients rarely send the same body at the
    // same instant, and another seed interleaves them differently.
    let start_of = |c: usize| (seed as usize + c * cycle.len() / CLIENTS) % cycle.len();

    let mut fleet = None;
    let mut snapshot_dir = None;
    let mut config = ServeConfig::default();
    let plans: Vec<Vec<Entry>> = match workload {
        Workload::WireSmall | Workload::DashboardWarm => {
            registry.publish("t", Arc::clone(&snapshot));
            (0..CLIENTS)
                .map(|c| plan(&cycle, &["t"], start_of(c)))
                .collect()
        }
        Workload::SynthesisCold => {
            // One tenant per client, each its own sealed snapshot with its
            // own cache: no single-flight sharing between the clients.
            registry.publish("t0", Arc::clone(&snapshot));
            for c in 1..CLIENTS {
                let own = Arc::new(built.restore.seal(serve_seed));
                registry.publish(format!("t{c}"), own);
            }
            (0..CLIENTS)
                .map(|c| plan(&cycle, &[format!("t{c}").as_str()], start_of(c)))
                .collect()
        }
        Workload::RebuildBesideReads => {
            let _ = std::fs::remove_dir_all(&run_dir);
            SnapshotStore::new(&run_dir)
                .save_version("t", 1, &snapshot)
                .expect("save version 1");
            registry.publish("t", Arc::clone(&snapshot));
            config.snapshot_dir = Some(run_dir.clone());
            snapshot_dir = Some(run_dir);
            // Client 0 reads; client 1 is the rebuild driver.
            vec![plan(&cycle, &["t"], start_of(0))]
        }
        Workload::FleetHop => {
            let _ = std::fs::remove_dir_all(&run_dir);
            let store = SnapshotStore::new(&run_dir);
            let by_shard = balanced_tenants(FLEET_TENANTS_PER_SHARD, FLEET_SHARDS);
            for tenant in by_shard.iter().flatten() {
                store
                    .save_version(tenant, 1, &snapshot)
                    .expect("save fleet tenant");
            }
            let worker = WorkerSpec {
                program: std::env::current_exe().expect("current exe"),
                args: vec!["worker".to_string(), run_dir.display().to_string()],
            };
            let spawned = Fleet::start(FleetConfig {
                shards: vec![
                    ShardConfig {
                        addr: None,
                        worker: Some(worker),
                    };
                    FLEET_SHARDS
                ],
                ..FleetConfig::default()
            })
            .expect("fleet start");
            config.fleet = Some(Arc::clone(&spawned));
            fleet = Some(spawned);
            snapshot_dir = Some(run_dir);
            // Each client alternates between the shards.
            let per_client = FLEET_TENANTS_PER_SHARD / CLIENTS;
            (0..CLIENTS)
                .map(|c| {
                    let tenants: Vec<&str> = (0..per_client)
                        .flat_map(|i| {
                            by_shard
                                .iter()
                                .map(move |shard| shard[c * per_client + i].as_str())
                        })
                        .collect();
                    plan(&cycle, &tenants, start_of(c))
                })
                .collect()
        }
    };
    let server = Server::bind("127.0.0.1:0", registry, config).expect("bind");
    let env = Env {
        workload,
        seed,
        cycle,
        built,
        snapshot,
        fleet,
        addr: server.local_addr(),
        plans,
        snapshot_dir,
        seal_ms,
        server: Some(server),
    };
    if workload.warm() || workload == Workload::RebuildBesideReads {
        // Caches in the intended state: every chain of every tenant
        // resident before the first timed request.
        let mut conn = Conn::connect(env.addr).expect("connect for cache warming");
        for entry in env.plans.iter().flatten() {
            let (status, _) = conn.roundtrip(&entry.bytes).expect("warming request");
            assert_eq!(status, 200, "warming request failed");
        }
    }
    (env, started.elapsed().as_secs_f64())
}

/// Child-process mode of the fleet workload: a stock server booted from
/// the snapshot directory on an ephemeral port. Prints the address line
/// the fleet spawner parses and serves until stdin reaches EOF.
pub fn run_worker(snapshot_dir: PathBuf) -> ! {
    use std::io::Read;
    let config = ServeConfig {
        snapshot_dir: Some(snapshot_dir),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(SnapshotRegistry::new()), config)
        .expect("worker bind");
    println!("benchmark worker listening on {}", server.local_addr());
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    std::process::exit(0);
}

/// Counters of the serving processes, read over HTTP from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests: f64,
    pub shed: f64,
    pub epoll_wakeups: f64,
    pub read_would_block: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_waits: f64,
    pub cache_evictions: f64,
    pub cache_bytes: f64,
    pub rebuilds_completed: f64,
    pub rebuilds_failed: f64,
    pub fleet_up: f64,
    pub forwarded: f64,
    pub forward_failed: f64,
    pub forward_retried: f64,
    pub pool_reused: f64,
    pub pool_dialed: f64,
}

fn metrics_doc(addr: SocketAddr, path: &str) -> JsonValue {
    let (status, body) = crate::client::get(addr, path).expect("read /metrics");
    assert_eq!(status, 200, "{path} answered {status}");
    restore_util::json::parse(&body).expect("/metrics is JSON")
}

fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("/metrics lacks {path:?}"))
}

impl Counters {
    pub fn read(env: &Env) -> Counters {
        let doc = metrics_doc(env.addr, "/metrics");
        let mut c = Counters {
            requests: num(&doc, &["requests", "total"]),
            shed: num(&doc, &["requests", "shed"]),
            epoll_wakeups: num(&doc, &["event_loop", "epoll_wakeups"]),
            read_would_block: num(&doc, &["event_loop", "read_would_block"]),
            rebuilds_completed: num(&doc, &["persistence", "rebuilds", "completed"]),
            rebuilds_failed: num(&doc, &["persistence", "rebuilds", "failed"]),
            ..Counters::default()
        };
        // The completion caches live where the snapshots are served: in
        // this process, or in the fleet's workers.
        let mut cache_docs = Vec::new();
        match &env.fleet {
            None => cache_docs.push(doc),
            Some(fleet) => {
                c.fleet_up = num(&doc, &["fleet", "up"]);
                c.forwarded = num(&doc, &["fleet", "forwarded"]);
                c.forward_failed = num(&doc, &["fleet", "failed"]);
                c.forward_retried = num(&doc, &["fleet", "retried"]);
                let shards = doc.get("fleet").and_then(|f| f.get("per_shard"));
                for shard in shards.and_then(JsonValue::as_array).unwrap_or_default() {
                    c.pool_reused += num(shard, &["pool", "reused"]);
                    c.pool_dialed += num(shard, &["pool", "dialed"]);
                }
                for i in 0..fleet.shard_count() {
                    cache_docs.push(metrics_doc(env.addr, &format!("/fleet/{i}/metrics")));
                }
            }
        }
        for doc in &cache_docs {
            c.cache_hits += num(doc, &["cache", "hits"]);
            c.cache_misses += num(doc, &["cache", "misses"]);
            c.cache_waits += num(doc, &["cache", "waits"]);
            c.cache_evictions += num(doc, &["cache", "evictions"]);
            c.cache_bytes += num(doc, &["cache", "bytes"]);
        }
        c
    }
}

/// When the loop's phases begin and end.
#[derive(Clone, Copy)]
struct Timing {
    timed_start: Instant,
    end: Instant,
    window: Duration,
    windows: usize,
}

impl Timing {
    /// The timed window `at` falls into, if any.
    fn window_of(&self, at: Instant) -> Option<usize> {
        if at < self.timed_start || at >= self.end {
            return None;
        }
        let idx = ((at - self.timed_start).as_nanos() / self.window.as_nanos()) as usize;
        Some(idx.min(self.windows - 1))
    }
}

/// How a client judges a response.
enum Check<'a> {
    /// Equal to the in-process answer for the entry's shape.
    Bodies(&'a [Expected]),
    /// Logged as `(shape, hash)` and judged after the run, when every
    /// published version's answers are known.
    Log,
}

#[derive(Default)]
struct ClientOut {
    /// Verified 200 responses per timed window ([`Timing::window_of`]).
    window_ok: [u64; WINDOWS],
    /// `(window, milliseconds per request)` of each whole timed cycle.
    cycle_ms: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    log: Vec<(usize, u64)>,
    spans: Vec<Span>,
    /// `(window, probe::slowdown())`, taken as each timed window began.
    slowdown: Vec<(usize, f64)>,
}

/// Replays, in this process, the stages a request passes through on its
/// way in and out of the server, on the request's real bytes.
pub fn replay_stages(
    rec: &mut Recorder,
    parent: u64,
    request: u64,
    entry: &Entry,
    expected: &Expected,
) {
    use restore_serve::http::{encode_response, Limits, RequestParser, Response};
    let id = rec.open();
    let start = rec.now_ns();
    let parsed = rec.span("serve.http.parse", id, request, || {
        let mut parser = RequestParser::new();
        parser.extend(&entry.bytes);
        parser.next_request(&Limits::default())
    });
    let body = match parsed {
        Ok(Some(parsed)) => parsed.body,
        _ => panic!("the benchmark's own request bytes do not parse"),
    };
    // The JSON read is part of the decode; it is timed on its own too.
    rec.span("core.wire.decode", id, request, || {
        QueryRequest::from_json(&body)
    })
    .expect("the benchmark's own request body decodes");
    rec.span("util.json.parse", id, request, || {
        restore_util::json::parse(&body)
    });
    rec.span("core.wire.encode", id, request, || {
        restore_core::wire::query_response_json(&expected.result, expected.interval.as_ref())
    });
    rec.span("serve.http.encode", id, request, || {
        encode_response(&Response::json(200, expected.body.as_str()), false)
    });
    rec.close(id, "replay", parent, request, start);
}

/// One closed-loop client: one keep-alive connection, the plan's requests
/// in order, again and again until the end of the last window.
fn client_loop(
    client: usize,
    addr: SocketAddr,
    plan: &[Entry],
    check: Check<'_>,
    timing: Timing,
    mut recorder: Option<Recorder>,
    expected: &[Expected],
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut conn = Conn::connect(addr).expect("client connect");
    let mut cycles = 0usize;
    let mut request_id = (client as u64) << 32;
    let mut probed = None;
    loop {
        let mut cycle_start = Instant::now();
        if cycle_start >= timing.end {
            break;
        }
        // The first cycle to begin in a timed window waits for the
        // host-speed probe.
        let window = timing.window_of(cycle_start);
        if let Some(w) = window.filter(|_| window != probed) {
            probed = window;
            out.slowdown.push((w, probe::slowdown()));
            cycle_start = Instant::now();
        }
        // Odd windows of a traced run record spans; even ones do not, so
        // one run yields both rates and their ratio is the overhead.
        let traced = timing
            .window_of(cycle_start)
            .is_some_and(|w| w % 2 == 1 && recorder.is_some());
        let (cycle_span, cycle_start_ns) = match (&mut recorder, traced) {
            (Some(rec), true) => (rec.open(), rec.now_ns()),
            _ => (0, 0),
        };
        let mut complete = true;
        let mut last_done = cycle_start;
        for entry in plan {
            request_id += 1;
            out.attempted += 1;
            let span = match (&mut recorder, traced) {
                (Some(rec), true) => Some((rec.open(), rec.now_ns())),
                _ => None,
            };
            let answer = conn.roundtrip(&entry.bytes);
            last_done = Instant::now();
            if let (Some((id, start_ns)), Some(rec)) = (span, &mut recorder) {
                rec.close(id, "client.request", cycle_span, request_id, start_ns);
            }
            let ok = match (&answer, &check) {
                (Ok((200, body)), Check::Bodies(expected)) => *body == expected[entry.shape].body,
                (Ok((200, body)), Check::Log) => {
                    out.log.push((entry.shape, fnv1a64(body.as_bytes())));
                    true
                }
                _ => false,
            };
            if ok {
                if let Some(w) = timing.window_of(last_done) {
                    out.window_ok[w] += 1;
                }
            } else {
                out.failed += 1;
                complete = false;
                if answer.is_err() {
                    conn = Conn::connect(addr).expect("client reconnect");
                    break;
                }
            }
        }
        // A cycle counts when it began and ended inside the timed phase; it
        // belongs to the window it began in.
        let timed = timing
            .window_of(cycle_start)
            .filter(|_| timing.window_of(last_done).is_some());
        if let (true, Some(window)) = (complete, timed) {
            // A latency sample is one cycle, per request: unimodal by
            // construction, whatever mix of shapes the cycle holds.
            let elapsed = (last_done - cycle_start).as_secs_f64();
            out.cycle_ms
                .push((window, elapsed * 1e3 / plan.len() as f64));
        }
        if let (Some(rec), true) = (&mut recorder, traced) {
            rec.close(cycle_span, "client.cycle", 0, 0, cycle_start_ns);
            let entry = &plan[cycles % plan.len()];
            replay_stages(rec, cycle_span, request_id, entry, &expected[entry.shape]);
        }
        cycles += 1;
    }
    out.spans = recorder.map(Recorder::into_spans).unwrap_or_default();
    out
}

struct RebuildOut {
    /// Seconds from `POST …/rebuild` answering 202 to the first response
    /// served by the next version, for cycles that ended inside the run.
    cycles_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    log: Vec<(usize, u64)>,
}

/// Client 1 of `rebuild_beside_reads`: back-to-back rebuild cycles of the
/// tenant the reader queries, until the end of the last window. A cycle
/// still in flight then is waited for, not timed.
fn rebuild_driver(env: &Env, first_body: &str, end: Instant) -> RebuildOut {
    let mut out = RebuildOut {
        cycles_s: Vec::new(),
        attempted: 0,
        failed: 0,
        log: Vec::new(),
    };
    let poll = &env.plans[0]
        .iter()
        .find(|e| e.shape == POLL_SHAPE)
        .expect("poll shape in the reader's plan")
        .bytes;
    let rebuild = encode_request("POST", "/v1/t/rebuild", "");
    let mut conn = Conn::connect(env.addr).expect("rebuild driver connect");
    let mut serving = first_body.to_string();
    while Instant::now() < end {
        out.attempted += 1;
        let accepted = matches!(conn.roundtrip(&rebuild), Ok((202, _)));
        let started = Instant::now();
        if !accepted {
            out.failed += 1;
            break;
        }
        let give_up = started + Duration::from_secs(60);
        loop {
            std::thread::sleep(POLL_EVERY);
            out.attempted += 1;
            match conn.roundtrip(poll) {
                Ok((200, body)) => {
                    out.log.push((POLL_SHAPE, fnv1a64(body.as_bytes())));
                    if body != serving {
                        let now = Instant::now();
                        if now < end {
                            out.cycles_s.push((now - started).as_secs_f64());
                        }
                        serving = body.to_string();
                        break;
                    }
                }
                _ => out.failed += 1,
            }
            if Instant::now() > give_up {
                out.failed += 1;
                return out;
            }
        }
    }
    out
}

/// Every logged response equals the answer of *some* served version, and
/// versions never go backwards on one connection. Returns the mismatches.
fn judge_log(log: &[(usize, u64)], answers: &[Vec<u64>]) -> u64 {
    let mut version = 0usize;
    let mut bad = 0u64;
    for &(shape, hash) in log {
        match (version..answers.len()).find(|&v| answers[v][shape] == hash) {
            Some(v) => version = v,
            None => bad += 1,
        }
    }
    bad
}

/// `VmHWM` in MiB of this process plus, when `with_children`, of every
/// process whose parent it is (the fleet's workers).
fn peak_rss_mb(with_children: bool) -> f64 {
    fn field(status: &str, key: &str) -> Option<f64> {
        let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
        rest.split_whitespace().next()?.parse().ok()
    }
    let own = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mut kb = field(&own, "VmHWM:").unwrap_or(0.0);
    if with_children {
        let me = std::process::id() as f64;
        for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            let status = std::fs::read_to_string(entry.path().join("status")).unwrap_or_default();
            if field(&status, "PPid:") == Some(me) {
                kb += field(&status, "VmHWM:").unwrap_or(0.0);
            }
        }
    }
    kb / 1024.0
}

/// What the client loops of one run produced, for the layer probes.
pub struct LoopFacts {
    /// As timed, not scaled to the reference core.
    pub latency_p50_ms: f64,
    pub requests: f64,
    pub before: Counters,
    pub after: Counters,
    pub rebuild_cycles_s: Vec<f64>,
    pub rel_error: f64,
    pub rel_error_incomplete: f64,
    pub failed_share: f64,
    pub trace_overhead_share: f64,
    pub train_s: f64,
}

/// One segment of a run: a set-up and the share of the timed windows
/// measured on it.
struct Segment {
    setup_s: f64,
    window_ok: Vec<u64>,
    cycle_ms: Vec<(usize, f64)>,
    slowdown: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
    loop_requests: u64,
    violations: Vec<String>,
    rebuild_cycles_s: Vec<f64>,
    rel_errors: (f64, f64),
    before: Counters,
    after: Counters,
    spans: Vec<Span>,
}

/// Sets the workload up and measures `windows` windows of `window` each on
/// it. The environment comes back for the layer probes of a traced run.
fn segment(
    workload: Workload,
    seed: u64,
    window: Duration,
    windows: usize,
    trace_from: Option<Instant>,
) -> (Segment, Env, Vec<Expected>) {
    let (env, setup_s) = setup(workload, seed);

    // The answers: computed in-process on the same snapshot, and how far
    // they are from the complete database.
    let expected: Vec<Expected> = env
        .cycle
        .iter()
        .map(|request| fixtures::expected(&env.snapshot, request))
        .collect();
    let rel_errors = fixtures::rel_errors(
        &env.built.complete,
        env.built.restore.db(),
        &env.cycle,
        &expected,
    );

    // Verification pass: every request of every plan once, unhurried.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    {
        let mut conn = Conn::connect(env.addr).expect("verification connect");
        for entry in env.plans.iter().flatten() {
            attempted += 1;
            match conn.roundtrip(&entry.bytes) {
                Ok((200, body)) if body == expected[entry.shape].body => {}
                Ok((status, body)) => {
                    failed += 1;
                    eprintln!(
                        "verification: shape {} answered {status}: {}",
                        entry.shape,
                        &body[..body.len().min(200)]
                    );
                }
                Err(e) => panic!("verification transport error: {e}"),
            }
        }
    }

    // Warm-up, then the timed windows.
    let before = Counters::read(&env);
    let loop_start = Instant::now() + Duration::from_millis(20);
    let timed_start = loop_start + Duration::from_secs_f64(WARMUP_S);
    let timing = Timing {
        timed_start,
        end: timed_start + window * windows as u32,
        window,
        windows,
    };
    let rebuilding = workload == Workload::RebuildBesideReads;
    let (clients, rebuilds) = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let check = if rebuilding {
                    Check::Log
                } else {
                    Check::Bodies(&expected)
                };
                let recorder = trace_from.map(|epoch| Recorder::new(epoch, c as u64 + 1));
                let expected = &expected;
                let addr = env.addr;
                scope.spawn(move || {
                    std::thread::sleep(loop_start.saturating_duration_since(Instant::now()));
                    client_loop(c, addr, plan, check, timing, recorder, expected)
                })
            })
            .collect();
        let driver = rebuilding.then(|| {
            let env = &env;
            let first_body = expected[POLL_SHAPE].body.as_str();
            scope.spawn(move || {
                std::thread::sleep(loop_start.saturating_duration_since(Instant::now()));
                rebuild_driver(env, first_body, timing.end)
            })
        });
        let clients: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let rebuilds = driver.map(|h| h.join().expect("rebuild driver thread"));
        (clients, rebuilds)
    });
    let after = Counters::read(&env);

    let loop_requests: u64 = clients.iter().map(|c| c.attempted).sum();
    attempted += loop_requests;
    failed += clients.iter().map(|c| c.failed).sum::<u64>();
    if let Some(rebuilds) = &rebuilds {
        attempted += rebuilds.attempted;
        failed += rebuilds.failed;
        // Judged now that every served version's answers can be computed:
        // each version is on disk, and a loaded snapshot answers byte for
        // byte as the one it was saved from.
        let store = SnapshotStore::new(env.snapshot_dir.as_ref().expect("snapshot dir"));
        let answers: Vec<Vec<u64>> = store
            .versions("t")
            .into_iter()
            .map(|version| {
                let served = Snapshot::load(&store.version_path("t", version))
                    .expect("a published version loads");
                env.cycle
                    .iter()
                    .map(|r| fnv1a64(fixtures::expected(&served, r).body.as_bytes()))
                    .collect()
            })
            .collect();
        failed += judge_log(&rebuilds.log, &answers);
        failed += clients
            .iter()
            .map(|c| judge_log(&c.log, &answers))
            .sum::<u64>();
    }

    // Preconditions: the workload did what it is there to do.
    let mut violations = Vec::new();
    let misses = after.cache_misses - before.cache_misses;
    if workload.warm() && misses != 0.0 {
        violations.push(format!("{misses} cache misses on a warm workload"));
    }
    if workload == Workload::SynthesisCold && misses != loop_requests as f64 {
        violations.push(format!(
            "{misses} syntheses for {loop_requests} requests on the cold workload"
        ));
    }
    if env.fleet.is_some() {
        let forwarded = after.forwarded - before.forwarded;
        if after.fleet_up != FLEET_SHARDS as f64
            || forwarded != loop_requests as f64
            || after.forward_failed != 0.0
        {
            violations.push(format!(
                "fleet: {} shards up, {forwarded} forwarded for {loop_requests} requests, {} failed",
                after.fleet_up, after.forward_failed
            ));
        }
    }
    if rebuilding && (after.rebuilds_completed < 1.0 || after.rebuilds_failed != 0.0) {
        violations.push(format!(
            "rebuilds: {} completed, {} failed",
            after.rebuilds_completed, after.rebuilds_failed
        ));
    }
    if workload.housing_scale().is_some() && rel_errors.0 > rel_errors.1 {
        violations.push(format!(
            "completed answers are further from the truth than incomplete ones \
             ({:.4} > {:.4})",
            rel_errors.0, rel_errors.1
        ));
    }

    let mut window_ok = vec![0u64; windows];
    for client in &clients {
        for (total, &n) in window_ok.iter_mut().zip(&client.window_ok) {
            *total += n;
        }
    }
    let measured = Segment {
        setup_s,
        window_ok,
        cycle_ms: clients.iter().flat_map(|c| c.cycle_ms.clone()).collect(),
        slowdown: clients.iter().flat_map(|c| c.slowdown.clone()).collect(),
        attempted,
        failed,
        loop_requests,
        violations,
        rebuild_cycles_s: rebuilds.map(|r| r.cycles_s).unwrap_or_default(),
        rel_errors,
        before,
        after,
        spans: clients.into_iter().flat_map(|c| c.spans).collect(),
    };
    (measured, env, expected)
}

/// Each window's core slowdown: the mean of the probes its clients took as
/// it began. A window in which no cycle began (runs far shorter than the
/// driver's) takes the window's before it, or failing that 1.
fn window_slowdown(probes: &[(usize, f64)]) -> Vec<f64> {
    let mut last = 1.0;
    (0..WINDOWS)
        .map(|w| {
            let here: Vec<f64> = probes.iter().filter(|p| p.0 == w).map(|p| p.1).collect();
            if !here.is_empty() {
                last = here.iter().sum::<f64>() / here.len() as f64;
            }
            last
        })
        .collect()
}

/// Runs one workload once and reports the end-to-end metrics (`traced`
/// off) or the per-layer metrics plus a span file (`traced` on).
///
/// An untraced run is [`Workload::segments`] segments — set-up,
/// verification, warm-up, an equal share of the windows — preceded by
/// unmeasured set-ups where there are fewer than [`MIN_SETUPS`] segments,
/// so that `setup_s` is always a median. A traced run is one segment.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let epoch = Instant::now();
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let segments = if traced { 1 } else { workload.segments() };
    let mut setup_s = Vec::new();
    if !traced {
        for _ in segments..MIN_SETUPS {
            let (env, took) = setup(workload, seed);
            setup_s.push(took);
            env.teardown();
        }
    }
    let mut measured = Vec::new();
    let mut last = None;
    for _ in 0..segments {
        if let Some((env, _)) = last.take() {
            Env::teardown(env);
        }
        let (seg, env, expected) = segment(
            workload,
            seed,
            window,
            WINDOWS / segments,
            traced.then_some(epoch),
        );
        measured.push(seg);
        last = Some((env, expected));
    }
    let (env, expected) = last.expect("at least one segment");
    setup_s.extend(measured.iter().map(|s| s.setup_s));

    let attempted: u64 = measured.iter().map(|s| s.attempted).sum();
    let failed: u64 = measured.iter().map(|s| s.failed).sum();
    let mut correct = failed == 0;
    for violation in measured.iter().flat_map(|s| &s.violations) {
        eprintln!("precondition violated: {violation}");
        correct = false;
    }

    // End-to-end numbers. Each window's timings are scaled to the
    // reference core by the probes taken as it began ([`probe`]); each
    // metric is then its fifth-best window's ([`BEST_WINDOW`]): what is
    // left of the host's interference only ever slows a window down.
    let counts: Vec<u64> = measured.iter().flat_map(|s| s.window_ok.clone()).collect();
    let rates = window_rates(&counts, window.as_secs_f64());
    let per_segment = WINDOWS / segments;
    let in_run = |per_seg: fn(&Segment) -> &Vec<(usize, f64)>| -> Vec<(usize, f64)> {
        measured
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                per_seg(s)
                    .iter()
                    .map(move |&(w, v)| (i * per_segment + w, v))
            })
            .collect()
    };
    let cycles = in_run(|s| &s.cycle_ms);
    let slowdown = window_slowdown(&in_run(|s| &s.slowdown));
    let tail = workload.tail_percentile();
    let scaled_rates: Vec<f64> = rates.iter().zip(&slowdown).map(|(r, f)| r * f).collect();
    let scaled_cycles: Vec<(usize, f64)> = cycles
        .iter()
        .map(|&(w, ms)| (w, ms / slowdown[w]))
        .collect();
    let queries_per_s = nth_best(&scaled_rates, BEST_WINDOW, Better::Higher);
    let latency_p50_ms = nth_best(
        &per_window(&scaled_cycles, median),
        BEST_WINDOW,
        Better::Lower,
    );
    let latency_tail_ms = nth_best(
        &per_window(&scaled_cycles, |w| percentile(w, tail)),
        BEST_WINDOW,
        Better::Lower,
    );
    // The layer probes of a traced run time the stages as they run here
    // and now, so the round trip they are set against is as timed too.
    let timed_p50_ms = nth_best(&per_window(&cycles, median), BEST_WINDOW, Better::Lower);
    let rss = peak_rss_mb(env.fleet.is_some());
    let (rel_error, rel_error_incomplete) = measured[0].rel_errors;
    let rebuild_cycles_s: Vec<f64> = measured
        .iter()
        .flat_map(|s| s.rebuild_cycles_s.clone())
        .collect();
    eprintln!(
        "{}: seed {seed}, {queries_per_s:.0} q/s (windows as timed {rates:.0?}, core slowdown \
         {slowdown:.2?}), p50 {latency_p50_ms:.3} ms, \
         p{:.0} {latency_tail_ms:.3} ms over {} cycles, set-up {:.3} s, peak rss {rss:.1} MiB, \
         rel_error {rel_error:.4} (incomplete {rel_error_incomplete:.4}), \
         {attempted} attempted, {failed} failed, rebuild cycles {rebuild_cycles_s:.2?}",
        workload.name(),
        tail * 100.0,
        cycles.len(),
        median(&setup_s),
    );

    let metrics: Vec<Metric> = if traced {
        let traced_rate = median(&rates.iter().skip(1).step_by(2).copied().collect::<Vec<_>>());
        let untraced_rate = median(&rates.iter().step_by(2).copied().collect::<Vec<_>>());
        let only = measured.pop().expect("a traced run is one segment");
        let facts = LoopFacts {
            latency_p50_ms: timed_p50_ms,
            requests: only.loop_requests as f64,
            before: only.before,
            after: only.after,
            rebuild_cycles_s,
            rel_error,
            rel_error_incomplete,
            failed_share: failed as f64 / attempted.max(1) as f64,
            trace_overhead_share: 1.0 - traced_rate / untraced_rate,
            train_s: env.built.train_s,
        };
        let mut spans = only.spans;
        let mut recorder = Recorder::new(epoch, 0);
        let values = crate::layers::probe(&env, &expected, &facts, &spans, &mut recorder);
        spans.extend(recorder.into_spans());
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("no probe reported {}", m.name))
                    .1;
                (m.name, value, m.unit)
            })
            .collect();
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        crate::trace::write_trace(&path, workload.name(), seed, &metrics, &spans)
            .expect("write the span file");
        eprintln!("{} spans written to {}", spans.len(), path.display());
        metrics
    } else {
        let values = [
            median(&setup_s),
            queries_per_s,
            latency_p50_ms,
            latency_tail_ms,
            rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    };
    env.teardown();
    Report {
        correct,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_balance_over_the_routers_hash() {
        let by_shard = balanced_tenants(4, 2);
        for (shard, tenants) in by_shard.iter().enumerate() {
            assert_eq!(tenants.len(), 4);
            for t in tenants {
                assert_eq!((fnv1a64(t.as_bytes()) % 2) as usize, shard);
            }
        }
    }

    #[test]
    fn responses_must_match_some_version_and_never_go_back() {
        // Two versions, two shapes; version 1 changes shape 0's answer only.
        let answers = vec![vec![10, 20], vec![11, 20]];
        assert_eq!(
            judge_log(&[(0, 10), (1, 20), (0, 11), (1, 20)], &answers),
            0
        );
        // Back to version 0's answer after version 1 was seen: a mismatch.
        assert_eq!(judge_log(&[(0, 11), (0, 10)], &answers), 1);
        // An answer no version gives.
        assert_eq!(judge_log(&[(1, 99)], &answers), 1);
    }

    #[test]
    fn a_windows_slowdown_is_the_mean_of_its_probes() {
        // Two clients probed windows 0 and 2; no cycle began in window 1.
        let slowdown = window_slowdown(&[(0, 1.0), (0, 1.5), (2, 0.5), (2, 0.7)]);
        assert_eq!(slowdown.len(), WINDOWS);
        assert_eq!(&slowdown[..3], &[1.25, 1.25, 0.6]);
        assert!(slowdown[3..].iter().all(|&f| f == 0.6));
        assert!(window_slowdown(&[]).iter().all(|&f| f == 1.0));
    }

    #[test]
    fn windows_cover_exactly_the_timed_phase() {
        let timed_start = Instant::now();
        let window = Duration::from_millis(100);
        let timing = Timing {
            timed_start,
            end: timed_start + window * 3,
            window,
            windows: 3,
        };
        assert_eq!(
            timing.window_of(timed_start - Duration::from_nanos(1)),
            None
        );
        assert_eq!(timing.window_of(timed_start), Some(0));
        assert_eq!(timing.window_of(timed_start + window + window / 2), Some(1));
        assert_eq!(
            timing.window_of(timing.end - Duration::from_nanos(1)),
            Some(2)
        );
        assert_eq!(timing.window_of(timing.end), None);
    }
}
