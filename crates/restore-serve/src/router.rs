//! Multi-process scale-out: the shard-router plane behind
//! [`Server`](crate::Server)'s fleet mode.
//!
//! One snapshot registry per process keeps the serving path simple, but a
//! single process is one core-budget and one blast radius. The router
//! turns N independent worker processes — each a stock `restore-serve`
//! server booted from the same versioned snapshot directory — into one
//! endpoint speaking the exact same HTTP/1.1 wire format:
//!
//! ```text
//!                        ┌─ worker 0 (Server, --snapshot-dir D) ─ D/
//!  clients ── router ────┤                                        │
//!   (epoll   (Server in  ├─ worker 1 (Server, --snapshot-dir D) ──┤
//!    keep-    fleet      │      ▲ health probes /healthz          │
//!    alive)   mode)      │      │ dead → re-exec from D ──────────┘
//!                        └─ … shard N-1
//! ```
//!
//! * **Tenant → shard** is a stable FNV-1a hash of the tenant name modulo
//!   the shard count ([`Fleet::shard_for`]) — no coordination, no lookup
//!   table, and the mapping survives worker restarts, so each tenant's
//!   completion caches stay warm on exactly one worker.
//! * **Forwarding** is a connection state of the router's epoll reactor:
//!   keep-alive upstream sockets in its own epoll set, health-aware
//!   checkout, the worker's response spliced back (`splice_response`),
//!   and the [`retry_wait`](restore_util::retry_wait) backoff on reactor
//!   timers, jittered per request id. Only
//!   transport errors retry — worker status codes (including 429/503) pass
//!   through byte-identically so end-to-end semantics match a direct
//!   worker connection.
//! * **Failover**: a monitor thread probes each worker's `/healthz`; a
//!   worker that stops answering (or whose process exits) is marked down,
//!   and — when the fleet owns its spawn command — re-execed against the
//!   same `--snapshot-dir`. The PR 9 boot scan is the worker's entire
//!   startup story: the respawned process loads the newest valid snapshot
//!   per tenant and is serving again in roughly one snapshot-load. While
//!   the window is open, forwards to that shard back off and retry inside
//!   the request's own deadline budget, so a request that arrives
//!   mid-failover *waits out* the respawn instead of failing.
//! * **Fleet metrics**: the router's `/metrics` grows a `fleet` section —
//!   per-shard up/down, forwarded/failed/retried counts, respawns, pool
//!   reuse, and each worker's self-reported q/s (scraped from its own
//!   `/metrics`). `GET /fleet/{i}/metrics` passes one worker's raw metrics
//!   document through for drill-down.
//!
//! The router is not a second server implementation: fleet mode is a
//! [`ServeConfig`](crate::ServeConfig) field, so the epoll reactor, the
//! incremental parser, admission control, deadline budgets, request ids,
//! and graceful drain are all the same code paths a worker runs.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use restore_util::json::JsonValue;
use restore_util::{fnv1a64, json_object, HealthState};

use crate::client::{header_lines, response_frame, ClientConfig};
use crate::http::{parse_digits, Request, Response};
use crate::server::Shared;

/// How to (re)spawn one worker process. The program must print a line
/// ending in its listening address (`… listening on 127.0.0.1:PORT`) on
/// stdout once bound — the `shard_router` binary's `--worker` mode does —
/// and should exit when its stdin reaches EOF (orphan cleanup).
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    pub program: PathBuf,
    pub args: Vec<String>,
}

/// One shard slot: a fixed address (externally managed worker), a spawn
/// command (fleet-managed worker, restarted on failure), or both (initial
/// address known, fleet still owns restarts).
#[derive(Clone, Debug, Default)]
pub struct ShardConfig {
    /// Address of an already-running worker; `None` means the fleet learns
    /// it from the spawned process's stdout.
    pub addr: Option<SocketAddr>,
    /// Spawn command; `None` disables failover re-exec for this shard
    /// (the fleet only marks it down and waits for [`Fleet::set_shard_addr`]).
    pub worker: Option<WorkerSpec>,
}

/// Fleet knobs. Defaults are sized for loopback worker fleets.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    pub shards: Vec<ShardConfig>,
    /// Client config for forwarded requests: its `read_timeout` is how long
    /// one attempt waits for its response.
    pub client: ClientConfig,
    /// Wall-clock budget of one forward across all attempts *and* the
    /// backoff waits between them ([`restore_util::retry_wait`]); when the
    /// next wait would cross it, the forward answers 503.
    pub retry_budget: Duration,
    /// Health-probe cadence of the monitor thread.
    pub health_interval: Duration,
}

/// Consecutive failed probes (or forwards) before a shard is marked down.
pub(crate) const DOWN_AFTER: u32 = 2;
/// How long one worker spawn may take to print its address and answer
/// `/healthz` before the attempt counts as failed.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: Vec::new(),
            client: ClientConfig::default(),
            // Long enough to ride out a failover window.
            retry_budget: Duration::from_secs(10),
            health_interval: Duration::from_millis(200),
        }
    }
}

/// Short-timeout config for health probes and metrics scrapes — a wedged
/// worker must cost the monitor 2 s, not the client default 30.
fn probe_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(2),
    }
}

fn probe_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    crate::client::HttpClient::connect_with(addr, probe_config())?.get(path)
}

/// One worker slot's runtime state. Its upstream sockets belong to the
/// router's reactor; the slot keeps the counters that describe them.
pub(crate) struct Shard {
    pub(crate) index: usize,
    /// The worker's address; a re-execed worker binds a fresh port.
    peer: Mutex<Option<SocketAddr>>,
    /// One health authority, fed by forward outcomes and monitor probes.
    pub(crate) health: HealthState,
    spec: Option<WorkerSpec>,
    child: Mutex<Option<Child>>,
    pub(crate) forwarded: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) retried: AtomicU64,
    respawns: AtomicU64,
    /// Idle upstream sockets now, checkouts answered by an idle socket and
    /// by a dial, and idle sockets dropped (stale address, closed by the
    /// worker, or past the idle bound) — `/metrics`' `pool` section.
    pub(crate) idle: AtomicU64,
    pub(crate) reused: AtomicU64,
    pub(crate) dialed: AtomicU64,
    pub(crate) discarded: AtomicU64,
}

impl Shard {
    pub(crate) fn peer(&self) -> Option<SocketAddr> {
        *self.peer.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_peer(&self, addr: SocketAddr) {
        *self.peer.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
    }

    fn probe_ok(&self) -> bool {
        match self.peer() {
            Some(addr) => matches!(probe_get(addr, "/healthz"), Ok((200, _))),
            None => false,
        }
    }

    fn kill_child(&self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mut c) = child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Has the fleet-spawned worker process exited?
    fn child_exited(&self) -> bool {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        match child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(Some(_))),
            None => false,
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.kill_child();
    }
}

/// A fleet of worker processes behind one router. Create with
/// [`Fleet::start`], hand the `Arc` to
/// [`ServeConfig::fleet`](crate::ServeConfig::fleet), and call
/// [`Fleet::shutdown`] after the router server drains.
pub struct Fleet {
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) config: FleetConfig,
    /// Set once by [`Fleet::shutdown`]: the monitor exits and stops
    /// respawning workers.
    stopping: AtomicBool,
    monitor: Mutex<Option<JoinHandle<()>>>,
    started: Instant,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards.len())
            .field(
                "addrs",
                &self.shards.iter().map(|s| s.peer()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Fleet {
    /// Spawns every shard with a [`WorkerSpec`] (waiting for each to come
    /// up healthy), registers fixed addresses, and starts the health
    /// monitor. Fails loudly if any shard has neither an address nor a
    /// spawn command, or if an initial spawn doesn't become healthy within
    /// 30 s.
    pub fn start(config: FleetConfig) -> io::Result<Arc<Self>> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one shard",
            ));
        }
        let mut shards = Vec::with_capacity(config.shards.len());
        for (index, shard_config) in config.shards.iter().enumerate() {
            if shard_config.addr.is_none() && shard_config.worker.is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard {index} has neither an address nor a worker spec"),
                ));
            }
            let shard = Arc::new(Shard {
                index,
                peer: Mutex::new(shard_config.addr),
                health: HealthState::new(),
                spec: shard_config.worker.clone(),
                child: Mutex::new(None),
                forwarded: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                retried: AtomicU64::new(0),
                respawns: AtomicU64::new(0),
                idle: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                dialed: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            });
            if shard_config.addr.is_none() {
                let spec = shard.spec.as_ref().expect("checked above");
                let (child, addr) = spawn_worker(spec)?;
                *shard.child.lock().unwrap_or_else(|e| e.into_inner()) = Some(child);
                shard.set_peer(addr);
                wait_healthy(addr).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("shard {index} worker at {addr} never became healthy: {e}"),
                    )
                })?;
                eprintln!("restore-serve: fleet shard {index} worker up at {addr}");
            }
            shards.push(shard);
        }
        let fleet = Arc::new(Self {
            shards,
            config,
            stopping: AtomicBool::new(false),
            monitor: Mutex::new(None),
            started: Instant::now(),
        });
        let weak: Weak<Fleet> = Arc::downgrade(&fleet);
        let handle = std::thread::spawn(move || monitor_loop(weak));
        *fleet.monitor.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        Ok(fleet)
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stable tenant → shard mapping: FNV-1a over the tenant name,
    /// modulo the shard count. Pure, so every router replica (and every
    /// test) computes the same placement.
    pub fn shard_for(&self, tenant: &str) -> usize {
        (fnv1a64(tenant.as_bytes()) % self.shards.len() as u64) as usize
    }

    pub fn shard_addr(&self, shard: usize) -> Option<SocketAddr> {
        self.shards.get(shard).and_then(|s| s.peer())
    }

    pub fn shard_is_up(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|s| s.health.is_up())
    }

    pub(crate) fn up_count(&self) -> usize {
        self.shards.iter().filter(|s| s.health.is_up()).count()
    }

    /// Re-registers a shard whose externally-managed worker moved (new
    /// process, new ephemeral port) and restores it to service
    /// immediately; idle sockets to the old address are dropped at their
    /// next checkout, and the monitor probes the new address from here on.
    pub fn set_shard_addr(&self, shard: usize, addr: SocketAddr) {
        if let Some(s) = self.shards.get(shard) {
            s.set_peer(addr);
            s.health.record_success();
        }
    }

    /// Chaos/test hook: kill shard `shard`'s fleet-spawned worker process.
    /// The monitor notices (process exit or failed probe), marks the shard
    /// down, and — because the spec is still present — re-execs it.
    /// Returns `false` when there is no live child to kill.
    pub fn kill_shard(&self, shard: usize) -> bool {
        let Some(s) = self.shards.get(shard) else {
            return false;
        };
        let had_child = {
            let child = s.child.lock().unwrap_or_else(|e| e.into_inner());
            child.is_some()
        };
        s.kill_child();
        had_child
    }

    /// Stops the monitor and kills every fleet-spawned worker. Idempotent.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        let handle = {
            let mut monitor = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
            monitor.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        for shard in &self.shards {
            shard.kill_child();
        }
    }

    /// The `fleet` section of the router's `/metrics`: shard counts and
    /// states, forward counters, pool reuse, and each live worker's
    /// self-reported totals scraped from its own `/metrics` (best effort —
    /// a down worker reports `null`).
    pub fn metrics_json(&self) -> JsonValue {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let (mut forwarded, mut failed, mut retried, mut respawns) = (0u64, 0u64, 0u64, 0u64);
        let per_shard: Vec<JsonValue> = self
            .shards
            .iter()
            .map(|shard| {
                let f = shard.forwarded.load(Ordering::Relaxed);
                forwarded += f;
                let shard_failed = shard.failed.load(Ordering::Relaxed);
                failed += shard_failed;
                let shard_retried = shard.retried.load(Ordering::Relaxed);
                retried += shard_retried;
                let shard_respawns = shard.respawns.load(Ordering::Relaxed);
                respawns += shard_respawns;
                let up = shard.health.is_up();
                let worker = shard.peer().filter(|_| up);
                let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
                json_object! {
                    "shard": shard.index, "addr": shard.peer().map(|a| a.to_string()),
                    "up": up, "forwarded": f, "failed": shard_failed,
                    "retried": shard_retried, "respawns": shard_respawns,
                    "times_down": shard.health.times_down(),
                    "queries_per_s": f as f64 / uptime,
                    "pool": json_object! {
                        "idle": load(&shard.idle), "reused": load(&shard.reused),
                        "dialed": load(&shard.dialed), "discarded": load(&shard.discarded),
                    },
                    "worker": worker.and_then(scrape_worker_metrics),
                }
            })
            .collect();
        json_object! {
            "shards": self.shards.len(), "up": self.up_count(),
            "forwarded": forwarded, "failed": failed, "retried": retried, "respawns": respawns,
            "per_shard": JsonValue::Arr(per_shard),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's self-reported request totals, scraped from its `/metrics`
/// with the short probe timeout; `None` when the scrape fails.
fn scrape_worker_metrics(addr: SocketAddr) -> Option<JsonValue> {
    let Ok((200, body)) = probe_get(addr, "/metrics") else {
        return None;
    };
    let root = restore_util::json::parse(&body)?;
    let total = root
        .get("requests")
        .and_then(|r| r.get("total"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let uptime = root
        .get("uptime_s")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
        .max(1e-9);
    Some(json_object! {
        "requests_total": total, "uptime_s": uptime, "queries_per_s": total / uptime,
    })
}

/// Splices the worker's response at the front of `buf` for the client:
/// the status line, every header but `Connection` and `X-Request-Id`, and
/// the body pass as they came; the router's own `Connection` (`close`
/// says which) and `X-Request-Id` replace the worker's. Returns the
/// bytes and whether the upstream socket may carry another request (the
/// worker did not answer `Connection: close` and sent nothing past the
/// body); `Ok(None)` while bytes are missing; framing errors are
/// [`response_frame`]'s.
pub(crate) fn splice_response(
    buf: &[u8],
    request_id: u64,
    close: bool,
) -> io::Result<Option<(Vec<u8>, bool)>> {
    let Some((head, _, end)) = response_frame(buf)? else {
        return Ok(None);
    };
    let status_line = head.split("\r\n").next().unwrap_or_default();
    let mut bytes = Vec::with_capacity(end + 64);
    let _ = write!(bytes, "{status_line}\r\n");
    let mut upstream_close = false;
    for (name, value) in header_lines(head) {
        if name.eq_ignore_ascii_case("connection") {
            upstream_close = value.eq_ignore_ascii_case("close");
        } else if !name.eq_ignore_ascii_case("x-request-id") {
            let _ = write!(bytes, "{name}: {value}\r\n");
        }
    }
    let connection = if close { "close" } else { "keep-alive" };
    let _ = write!(
        bytes,
        "Connection: {connection}\r\nX-Request-Id: {request_id}\r\n\r\n"
    );
    bytes.extend_from_slice(&buf[head.len() + 4..end]);
    Ok(Some((bytes, !upstream_close && end == buf.len())))
}

/// Spawns one worker process and reads its listening address: the first
/// stdout line's last whitespace-separated token must parse as a socket
/// address. The read happens on a helper thread so a silent child costs
/// `timeout`, not forever. The child keeps a piped stdin for its lifetime;
/// fleet teardown (or fleet process death) closes it, which a well-behaved
/// worker treats as EOF-exit.
fn spawn_worker(spec: &WorkerSpec) -> io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(&spec.program)
        .args(&spec.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = match rx.recv_timeout(SPAWN_TIMEOUT) {
        Ok(line) => line,
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "worker {} did not report an address within {SPAWN_TIMEOUT:?}",
                    spec.program.display()
                ),
            ));
        }
    };
    let addr = line
        .split_whitespace()
        .last()
        .and_then(|token| token.parse::<SocketAddr>().ok());
    match addr {
        Some(addr) => Ok((child, addr)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker address line unparseable: {line:?}"),
            ))
        }
    }
}

/// Polls `/healthz` until it answers 200 or [`SPAWN_TIMEOUT`] elapses.
fn wait_healthy(addr: SocketAddr) -> io::Result<()> {
    let deadline = Instant::now() + SPAWN_TIMEOUT;
    let mut last = String::from("never probed");
    while Instant::now() < deadline {
        match probe_get(addr, "/healthz") {
            Ok((200, _)) => return Ok(()),
            Ok((status, _)) => last = format!("status {status}"),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(io::Error::new(io::ErrorKind::TimedOut, last))
}

/// The monitor thread: probe every shard each interval, flip health on the
/// evidence, and re-exec dead fleet-owned workers against their snapshot
/// directory. Holds only a `Weak` on the fleet so an abandoned fleet (all
/// `Arc`s dropped) tears down instead of leaking a thread.
fn monitor_loop(fleet: Weak<Fleet>) {
    loop {
        let Some(fleet) = fleet.upgrade() else {
            return;
        };
        if fleet.stopping.load(Ordering::Acquire) {
            return;
        }
        for shard in &fleet.shards {
            check_shard(&fleet, shard);
        }
        let interval = fleet.config.health_interval;
        drop(fleet); // don't hold the fleet alive through the sleep
        std::thread::sleep(interval);
    }
}

/// One monitor round for one shard: child exit is a definitive down
/// signal; otherwise a `/healthz` probe decides. A shard that is down and
/// owns a spawn spec is re-execed (synchronously — respawn latency is
/// bounded by `SPAWN_TIMEOUT` and the fleet is small).
fn check_shard(fleet: &Fleet, shard: &Shard) {
    let exited = shard.child_exited();
    if !exited && shard.probe_ok() {
        if shard.health.record_success() {
            eprintln!(
                "restore-serve: fleet shard {} back up at {:?}",
                shard.index,
                shard.peer()
            );
        }
        return;
    }
    let went_down = if exited {
        shard.health.force_down()
    } else {
        shard.health.record_failure(DOWN_AFTER)
    };
    if went_down {
        eprintln!(
            "restore-serve: fleet shard {} down ({})",
            shard.index,
            if exited {
                "worker process exited"
            } else {
                "health probes failing"
            }
        );
    }
    if shard.health.is_up() || fleet.stopping.load(Ordering::Acquire) {
        return;
    }
    let Some(spec) = &shard.spec else {
        return; // externally managed: wait for set_shard_addr
    };
    shard.kill_child();
    match spawn_worker(spec).and_then(|(child, addr)| wait_healthy(addr).map(|()| (child, addr))) {
        Ok((child, addr)) => {
            *shard.child.lock().unwrap_or_else(|e| e.into_inner()) = Some(child);
            shard.set_peer(addr);
            shard.respawns.fetch_add(1, Ordering::Relaxed);
            shard.health.record_success();
            eprintln!(
                "restore-serve: fleet shard {} re-execed, up at {addr}",
                shard.index
            );
        }
        Err(e) => {
            eprintln!(
                "restore-serve: fleet shard {} respawn failed ({e}); retrying next round",
                shard.index
            );
        }
    }
}

/// Routing for a server in fleet mode: control-plane routes answer from
/// the router itself (health and metrics describe the *fleet*), and a
/// drill-down route passes one worker's metrics through raw. `/v1/*`
/// requests never get here: the reactor forwards them.
pub(crate) fn route_fleet(shared: &Shared, fleet: &Fleet, request: &Request) -> Response {
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (up, shards) = (fleet.up_count(), fleet.shard_count());
            let body = json_object! {
                "status": if up == shards { "ok" } else { "degraded" },
                "fleet": json_object! { "shards": shards, "up": up },
            };
            Response::json(200, body.to_json())
        }
        ("GET", ["metrics"]) => crate::server::metrics(shared, Some(fleet.metrics_json())),
        ("GET", ["fleet", index, "metrics"]) => {
            let Some(index) = parse_digits::<usize>(index) else {
                return Response::error(400, &format!("bad shard index {index:?}"));
            };
            let Some(addr) = fleet
                .shard_addr(index)
                .filter(|_| index < fleet.shard_count())
            else {
                return Response::error(404, &format!("no shard {index}"));
            };
            match probe_get(addr, "/metrics") {
                Ok((status, body)) => Response::json(status, body),
                Err(e) => Response::error(503, &format!("shard {index} metrics: {e}")),
            }
        }
        (_, ["healthz" | "metrics"]) => {
            Response::error(405, &format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_mapping_is_stable_and_total() {
        let config = FleetConfig {
            shards: vec![
                ShardConfig {
                    addr: Some("127.0.0.1:1".parse().unwrap()),
                    worker: None,
                },
                ShardConfig {
                    addr: Some("127.0.0.1:2".parse().unwrap()),
                    worker: None,
                },
            ],
            ..FleetConfig::default()
        };
        let fleet = Fleet::start(config).expect("fleet with fixed addrs");
        for tenant in ["alpha", "beta", "tenant with spaces", ""] {
            let shard = fleet.shard_for(tenant);
            assert!(shard < 2);
            assert_eq!(shard, fleet.shard_for(tenant), "mapping must be stable");
            assert_eq!(
                shard,
                (restore_util::fnv1a64(tenant.as_bytes()) % 2) as usize,
                "mapping is the documented hash"
            );
        }
        fleet.shutdown();
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(Fleet::start(FleetConfig::default()).is_err());
        let no_way_to_reach = FleetConfig {
            shards: vec![ShardConfig::default()],
            ..FleetConfig::default()
        };
        assert!(Fleet::start(no_way_to_reach).is_err());
    }

    #[test]
    fn a_shard_index_is_digits_only() {
        let fleet = Fleet::start(FleetConfig {
            shards: vec![ShardConfig {
                addr: Some("127.0.0.1:1".parse().unwrap()),
                worker: None,
            }],
            ..FleetConfig::default()
        })
        .expect("fleet with a fixed addr");
        let config = crate::ServeConfig {
            fleet: Some(Arc::clone(&fleet)),
            ..crate::ServeConfig::default()
        };
        let registry = Arc::new(restore_core::SnapshotRegistry::new());
        let router = crate::Server::bind("127.0.0.1:0", registry, config).expect("bind router");
        let status = |path| probe_get(router.local_addr(), path).expect(path).0;
        assert_eq!(status("/fleet/%2B0/metrics"), 400);
        assert_eq!(status("/fleet/0/metrics"), 503, "nothing at :1");
        assert_eq!(status("/fleet/1/metrics"), 404);
        assert!(router.shutdown());
        fleet.shutdown();
    }

    #[test]
    fn a_splice_rewrites_framing_but_keeps_retry_after_and_the_body() {
        let upstream = b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\nconnection: keep-alive\r\nX-Request-Id: 9\r\nRetry-After: 3\r\n\r\n{}";
        assert!(splice_response(&upstream[..upstream.len() - 1], 41, false)
            .unwrap()
            .is_none());
        let (bytes, reusable) = splice_response(upstream, 41, false).unwrap().unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\nRetry-After: 3\r\nConnection: keep-alive\r\nX-Request-Id: 41\r\n\r\n{}"
        );
        assert!(reusable);
        // A worker's `close`, or bytes past the body, retire the socket;
        // the client's `close` is the router's own line.
        let closing = String::from_utf8_lossy(upstream).replace("keep-alive", "close");
        let (bytes, reusable) = splice_response(closing.as_bytes(), 1, true)
            .unwrap()
            .unwrap();
        assert!(!reusable);
        assert!(String::from_utf8_lossy(&bytes).contains("\r\nConnection: close\r\n"));
        let trailing = [&upstream[..], b"HTTP"].concat();
        let (_, reusable) = splice_response(&trailing, 1, false).unwrap().unwrap();
        assert!(!reusable);
    }
}
