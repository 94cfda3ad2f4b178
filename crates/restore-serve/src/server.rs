//! The serving front-end: an epoll event-loop TCP/HTTP 1.1 server over a
//! shared [`SnapshotRegistry`], fronted by an ingress resilience plane.
//!
//! Request lifecycle:
//!
//! ```text
//!  reactor thread (crate::reactor — owns listener + every socket)
//!      │  accept (epoll-registered, no sleep tick) · nonblocking reads
//!      │  incremental parse: ReadingHead → ReadingBody → complete request
//!      │    │
//!      │    ▼ request id (parse order) · fault plan consult
//!      │  admission gate (max_in_flight) ──► 429 + Retry-After written
//!      │    │                                from the reactor, no worker
//!      │    ▼ Job{request, id, permit} ──► worker pool (queue + condvar)
//!      │                                     │ route — ONE registry view
//!      │                                     │ per-tenant token bucket 429
//!      │                                     │ deadline budget checks 503
//!      │                                     │ catch_unwind: panic → 500
//!      │    ┌────── Completion{response} ◄───┘ (+1 byte on the wake pipe)
//!      │    ▼
//!      │  write on writability (+X-Request-Id; keep-alive; pipelined
//!      │  carry re-parsed immediately after each response)
//!      ▼
//!  Server::shutdown(): stop flag + wake → close listener + idle conns,
//!  in-flight responses ride through drain, then the reactor exits
//! ```
//!
//! **Admission control.** At most [`ServeConfig::max_in_flight`] `/v1/*`
//! requests hold an admission permit (queued + executing) at once; excess
//! load is *shed* with an immediate 429 carrying a `Retry-After` computed
//! from an EWMA of recent service times, written straight from the reactor
//! without touching the worker pool. Control-plane routes (`/healthz`,
//! `/metrics`) bypass the gate so the service stays observable under
//! overload. A per-tenant token bucket ([`restore_util::RateLimiter`])
//! additionally bounds each tenant's sustained rate, so one hot tenant
//! degrades alone instead of starving the box.
//!
//! **Deadline budget.** [`ServeConfig::request_deadline`] is a per-request
//! wall-clock budget starting at the request's first byte, re-checked
//! at admission, before synthesis, and before the confidence tail. An
//! exhausted budget answers 503 with the stage reached and the
//! elapsed/budget milliseconds, releasing the connection instead of
//! holding it. The reactor enforces the same budget on the wire: a request
//! that stops arriving mid-parse is answered 400, and a client that stops
//! reading its response is cut.
//!
//! **Fault injection.** An optional seeded [`FaultPlan`] injects delays,
//! read/write errors, torn responses, and handler panics on a schedule
//! that is a pure function of `(seed, fault key)` — see [`crate::fault`].
//! Read/write faults act at the reactor's socket seam; delays and panics
//! ride the job into the worker pool (a panicking handler must never take
//! the reactor thread down).
//!
//! **Hot swap / drain semantics.** A request resolves its tenant against
//! one [`SnapshotRegistry::view`] and keeps the resulting `Arc<Snapshot>`
//! for its whole lifetime; `publish(tenant, v2)` makes v2 visible to the
//! *next* request while v1 drains under the in-flight `Arc` refs, and
//! `retire(tenant)` 404s new requests without disturbing running ones.
//! Concurrent requests needing the same cold chain share one synthesis
//! through the snapshot's single-flight `JoinCache`; nothing above it
//! dedupes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use restore_core::wire::{self, QueryRequest};
use restore_core::{CoreError, ReStore, SnapshotRegistry};
use restore_db::DbError;
use restore_util::json::JsonValue;
use restore_util::{derive_seed, json_object, RateLimitConfig, RateLimiter};

use crate::fault::{self, FaultAction, FaultConfig, FaultPlan};
use crate::http::{parse_digits, Request, Response};
use crate::reactor::{Epoll, Reactor, WakeHandle, TOKEN_LISTENER, TOKEN_WAKE};
use crate::store::SnapshotStore;

/// How long [`Server::shutdown`] waits for the reactor to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Server knobs. Defaults are sized for tests and modest deployments.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-request deadline budget, started at the request's first byte:
    /// a request that has not finished arriving within it is cut, and one
    /// that has not *started each processing stage* within it answers 503
    /// with partial-progress detail instead of holding the connection.
    pub request_deadline: Duration,
    /// Admission gate: at most this many `/v1/*` requests hold a permit
    /// (queued for or executing on the worker pool) concurrently; excess
    /// answers 429 + `Retry-After` immediately.
    pub max_in_flight: usize,
    /// Request-execution worker threads behind the reactor.
    pub workers: usize,
    /// Per-tenant token-bucket rate limit; `None` disables it.
    pub rate_limit: Option<RateLimitConfig>,
    /// Seeded deterministic fault injection; `None` (the default) disables
    /// it. **Test/chaos only** — never enable in production configs.
    pub fault: Option<FaultConfig>,
    /// Root of the versioned snapshot directory
    /// (`<dir>/<tenant>/v<NNNNN>.snap`). When set, [`Server::bind`] scans
    /// it and serves each tenant's newest *valid* version (corrupt or
    /// truncated files are skipped with a logged reason), and
    /// `POST /v1/{tenant}/rebuild` becomes available: retrain off-thread,
    /// save the next version atomically, publish through the registry.
    /// `None` (the default) disables persistence entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Fleet mode: when set, this server is a **shard router** — `/v1/*`
    /// requests forward to worker processes by stable tenant hash instead
    /// of executing locally, `/healthz` and `/metrics` describe the fleet,
    /// and `GET /fleet/{i}/metrics` drills into one worker. The reactor,
    /// admission gate, deadlines, request ids, and drain all behave
    /// exactly as in worker mode. See [`crate::router`].
    pub fleet: Option<Arc<crate::router::Fleet>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            request_deadline: Duration::from_secs(30),
            max_in_flight: 256,
            // At least a few workers even on a 1-core box: handlers can
            // block on single-flight waits and injected delays, and panic
            // containment is only provable with real concurrency.
            workers: restore_util::default_workers().max(4),
            rate_limit: None,
            fault: None,
            snapshot_dir: None,
            fleet: None,
        }
    }
}

#[derive(Default)]
struct TenantCounters {
    queries: AtomicU64,
    errors: AtomicU64,
    /// Requests shed by this tenant's token bucket.
    rate_limited: AtomicU64,
    /// `X-Request-Id` of the most recent error response (0 = none yet;
    /// request ids start at 1).
    last_error_request_id: AtomicU64,
}

impl TenantCounters {
    fn note_error(&self, request_id: u64) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.last_error_request_id
            .store(request_id, Ordering::Relaxed);
    }
}

/// Serving counters surfaced by `GET /metrics`.
#[derive(Default)]
pub(crate) struct Metrics {
    requests_total: AtomicU64,
    requests_in_flight: AtomicU64,
    panics_caught: AtomicU64,
    /// 429s issued by the admission gate and the per-tenant rate limiter.
    requests_shed: AtomicU64,
    /// 503s issued by deadline-budget checks.
    deadline_exceeded: AtomicU64,
    /// Faults the configured [`FaultPlan`] injected.
    faults_injected: AtomicU64,
    /// EWMA of admitted-request service time (nanoseconds, α = 1/8) — the
    /// basis of the admission gate's `Retry-After` hint.
    service_ewma_nanos: AtomicU64,
    // --- persistence counters (boot scan + rebuild pipeline) ---
    /// Snapshot files loaded and published (boot scan).
    snapshots_loaded: AtomicU64,
    /// Snapshot files written by the rebuild pipeline.
    snapshots_saved: AtomicU64,
    /// Cumulative snapshot load time, microseconds (reported as ms).
    snapshot_load_us: AtomicU64,
    snapshot_loaded_bytes: AtomicU64,
    snapshot_saved_bytes: AtomicU64,
    rebuilds_started: AtomicU64,
    rebuilds_completed: AtomicU64,
    rebuilds_failed: AtomicU64,
    per_tenant: Mutex<BTreeMap<String, Arc<TenantCounters>>>,
    // --- event-loop counters, maintained by the reactor ---
    /// Gauge: sockets currently owned by the reactor.
    pub(crate) open_connections: AtomicU64,
    /// Gauge: connections idle between requests.
    pub(crate) keepalive_idle: AtomicU64,
    pub(crate) accepts: AtomicU64,
    pub(crate) epoll_wakeups: AtomicU64,
    /// Nonblocking reads/writes that hit `EWOULDBLOCK` — the readiness
    /// loop working as intended (vs. blocking threads doing nothing).
    pub(crate) read_would_block: AtomicU64,
    pub(crate) write_would_block: AtomicU64,
}

impl Metrics {
    fn tenant(&self, name: &str) -> Arc<TenantCounters> {
        let mut map = self.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    pub(crate) fn record_service_time(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        // Racy load/store is fine for a heuristic hint; no CAS needed.
        let old = self.service_ewma_nanos.load(Ordering::Relaxed);
        self.service_ewma_nanos
            .store(old - old / 8 + sample / 8, Ordering::Relaxed);
    }
}

/// Decrements the in-flight gauge even when the handler panics.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Owned RAII admission permit; it rides inside a [`Job`] from the
/// reactor's dispatch decision to the end of worker execution, and
/// dropping it (including by panic, or with a job discarded at shutdown)
/// frees the slot.
struct AdmitPermit(Arc<AtomicU64>);

impl Drop for AdmitPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A request's wall-clock budget, started when its first bytes arrived.
/// Stages check it *before* starting work; a blown budget sheds the rest
/// of the request rather than interrupting a stage mid-flight.
#[derive(Clone, Copy)]
pub(crate) struct Budget {
    arrived: Instant,
    limit: Duration,
}

impl Budget {
    /// `Ok` while inside budget; `Err(elapsed)` once exhausted.
    fn check(&self) -> Result<(), Duration> {
        let elapsed = self.arrived.elapsed();
        if elapsed > self.limit {
            Err(elapsed)
        } else {
            Ok(())
        }
    }
}

/// A parsed request on its way from the reactor to a worker — or, in
/// fleet mode, to its shard, holding its admission permit until the
/// forward ends.
pub(crate) struct Job {
    pub(crate) token: u64,
    pub(crate) request: Request,
    pub(crate) request_id: u64,
    pub(crate) arrived: Instant,
    pub(crate) action: FaultAction,
    permit: Option<AdmitPermit>,
}

/// What a worker hands back to the reactor, which owns every socket.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) reply: Reply,
}

pub(crate) enum Reply {
    /// A finished response to write (applying any write-side fault
    /// action), then close if the flag says so.
    Respond(Response, bool, FaultAction),
    /// A fleet `/v1/*` job whose router-side fault seam ran on the worker;
    /// the reactor forwards it.
    Forward(Job),
}

/// The reactor's dispatch decision for one parsed request.
pub(crate) enum Decision {
    /// Cut the connection without an answer (injected read fault).
    Close,
    /// Answer straight from the reactor (admission shed), then close if
    /// the flag says so.
    Respond(Response, bool),
    /// The request was queued to the worker pool; a [`Completion`] will
    /// arrive via the wake handle.
    Dispatched,
    /// Fleet mode: the reactor forwards this admitted `/v1/*` request.
    Forward(Job),
}

struct JobQueueState {
    jobs: VecDeque<Job>,
    stopped: bool,
}

/// The reactor → worker handoff: a plain mutex + condvar queue. Depth is
/// bounded by the admission gate (`/v1/*` needs a permit to enqueue) plus
/// the trickle of control-plane requests.
struct JobQueue {
    state: Mutex<JobQueueState>,
    available: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(JobQueueState {
                jobs: VecDeque::new(),
                stopped: false,
            }),
            available: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.stopped {
            return; // job drops here; its permit releases
        }
        state.jobs.push_back(job);
        self.available.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.stopped {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Discards queued jobs (releasing their permits) and unparks every
    /// worker for exit.
    fn stop(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.stopped = true;
        state.jobs.clear();
        self.available.notify_all();
    }
}

pub(crate) struct Shared {
    registry: Arc<SnapshotRegistry>,
    pub(crate) config: ServeConfig,
    /// Set once by [`Server::shutdown`]: the reactor accepts no more
    /// connections and closes the idle ones, and every response closes its
    /// connection.
    pub(crate) stopping: AtomicBool,
    pub(crate) metrics: Metrics,
    /// When the server was bound: the start of `/metrics`' uptime.
    started: Instant,
    /// Parse-order request id counter; ids start at 1.
    request_ids: AtomicU64,
    /// `/v1/*` permits outstanding (bounded by `max_in_flight`). Shared
    /// with the owned permits so a permit outliving `Shared` is impossible
    /// to misaccount.
    admitted: Arc<AtomicU64>,
    limiter: Option<RateLimiter>,
    fault: Option<FaultPlan>,
    /// The versioned snapshot directory, when persistence is configured.
    store: Option<SnapshotStore>,
    /// Tenants with a rebuild in flight — one rebuild per tenant at a
    /// time; a second `POST …/rebuild` answers 409 instead of stacking
    /// training runs.
    rebuilds: Mutex<BTreeSet<String>>,
    jobs: JobQueue,
    completions: Mutex<Vec<Completion>>,
    /// Wakes the reactor out of `epoll_wait`: completions and shutdown.
    pub(crate) wake: WakeHandle,
    /// Set after the drain window: the reactor must exit now, dropping
    /// whatever connections remain.
    pub(crate) abandon: AtomicBool,
}

impl Shared {
    fn try_admit(&self) -> Option<AdmitPermit> {
        let prev = self.admitted.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.max_in_flight as u64 {
            self.admitted.fetch_sub(1, Ordering::AcqRel);
            None
        } else {
            Some(AdmitPermit(Arc::clone(&self.admitted)))
        }
    }

    /// How long a shed client should wait before retrying: one EWMA
    /// service time (the 429 builder rounds this up to at least 1 s).
    fn retry_after_hint(&self) -> Duration {
        Duration::from_nanos(self.metrics.service_ewma_nanos.load(Ordering::Relaxed))
    }

    /// The 503 every exhausted-budget stage answers: which stage the
    /// request reached and how far over budget it was — partial progress a
    /// retrying client can log instead of a connection silently held.
    fn deadline_response(&self, stage: &str, elapsed: Duration, budget: &Budget) -> Response {
        self.metrics
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        let body = json_object! {
            "error": "deadline budget exhausted", "stage": stage,
            "elapsed_ms": elapsed.as_millis() as u64,
            "budget_ms": budget.limit.as_millis() as u64,
        };
        Response::json(503, body.to_json())
    }

    /// The reactor's per-request entry point: accounts the request,
    /// consults the fault plan, applies the admission gate, and either
    /// answers on the spot or queues a [`Job`] for the worker pool.
    pub(crate) fn on_request(&self, token: u64, request: Request, arrived: Instant) -> Decision {
        self.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let request_id = self.request_ids.fetch_add(1, Ordering::Relaxed);
        let action = match &self.fault {
            None => FaultAction::None,
            Some(plan) => plan.action(fault::fault_key(
                &request.method,
                &request.path,
                &request.body,
                request.header("x-fault-key"),
            )),
        };
        if action != FaultAction::None {
            self.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        if action == FaultAction::ReadError {
            // Injected read failure: cut the connection before handling,
            // as if the request never finished arriving.
            return Decision::Close;
        }
        // Control-plane routes bypass admission (and, in the worker, rate
        // limiting) so the service stays observable while it sheds.
        let permit = if request.path.starts_with("/v1/") {
            match self.try_admit() {
                Some(permit) => Some(permit),
                None => {
                    self.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
                    let response =
                        Response::too_many_requests("server at capacity", self.retry_after_hint())
                            .with_header("X-Request-Id", request_id.to_string());
                    let close = request.wants_close() || self.stopping.load(Ordering::Acquire);
                    return Decision::Respond(response, close);
                }
            }
        } else {
            None
        };
        let job = Job {
            token,
            request,
            request_id,
            arrived,
            action,
            permit,
        };
        // A fleet forward visits the worker pool only to run a delay or
        // panic seam.
        let seam = matches!(action, FaultAction::Delay(_) | FaultAction::Panic);
        if self.config.fleet.is_some() && job.permit.is_some() && !seam {
            return Decision::Forward(job);
        }
        self.jobs.push(job);
        Decision::Dispatched
    }

    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *completions)
    }

    fn complete(&self, completion: Completion) {
        {
            let mut completions = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            completions.push(completion);
        }
        self.wake.wake();
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// accepting and drains in-flight connections.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The reactor thread, and the channel that disconnects when it exits
    /// (in a `Mutex` only to keep `Server` `Sync`; it is never locked).
    reactor: Option<(JoinHandle<()>, Mutex<Receiver<()>>)>,
}

impl Server {
    /// Binds and starts serving `registry` on `addr` (use port 0 for an
    /// ephemeral port; read it back via [`Server::local_addr`]). Fails
    /// loudly if the listener cannot be made nonblocking or the epoll
    /// set / wake pipe cannot be created — a server whose event loop
    /// can't run should never come up half-alive.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<SnapshotRegistry>,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let epoll = Epoll::new()?;
        let wake = WakeHandle::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        epoll.add(wake.as_raw_fd(), TOKEN_WAKE, true, false)?;
        let limiter = config.rate_limit.map(RateLimiter::new);
        let fault = config.fault.map(FaultPlan::new);
        let workers = config.workers.max(1);
        let (metrics, started) = (Metrics::default(), Instant::now());
        let store = config.snapshot_dir.as_deref().map(SnapshotStore::new);
        if let Some(store) = &store {
            boot_scan(store, &registry, &metrics);
        }
        let shared = Arc::new(Shared {
            registry,
            config,
            stopping: AtomicBool::new(false),
            metrics,
            started,
            request_ids: AtomicU64::new(1),
            admitted: Arc::new(AtomicU64::new(0)),
            limiter,
            fault,
            store,
            rebuilds: Mutex::new(BTreeSet::new()),
            jobs: JobQueue::new(),
            completions: Mutex::new(Vec::new()),
            wake,
            abandon: AtomicBool::new(false),
        });
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            // Workers are detached: shutdown stops the queue rather than
            // joining, so a handler stuck in external code cannot wedge
            // shutdown (the old per-connection threads had the same
            // property).
            std::thread::spawn(move || worker_loop(shared));
        }
        let reactor = {
            let shared = Arc::clone(&shared);
            let (exiting, exited) = mpsc::channel::<()>();
            let thread = std::thread::spawn(move || {
                // Dropped when the loop returns, which ends `drain`'s wait.
                let _exiting = exiting;
                Reactor::new(listener, epoll, shared).run()
            });
            (thread, Mutex::new(exited))
        };
        Ok(Self {
            addr,
            shared,
            reactor: Some(reactor),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn connections_active(&self) -> usize {
        self.shared.metrics.open_connections.load(Ordering::Relaxed) as usize
    }

    /// `/v1/*` requests currently holding an admission permit.
    pub fn requests_admitted(&self) -> usize {
        self.shared.admitted.load(Ordering::Acquire) as usize
    }

    /// Stops accepting, wakes the reactor, and waits up to ten seconds for
    /// in-flight connections to finish. Returns `true` when fully drained.
    pub fn shutdown(mut self) -> bool {
        self.drain(DRAIN_TIMEOUT)
    }

    /// [`Server::shutdown`] with its drain window: the reactor returns
    /// once its listener is closed and its last connection is, which
    /// disconnects the channel its thread holds.
    fn drain(&mut self, window: Duration) -> bool {
        let Some((reactor, exited)) = self.reactor.take() else {
            return true;
        };
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.wake.wake();
        let exited = exited.into_inner().unwrap_or_else(|e| e.into_inner());
        let drained = matches!(
            exited.recv_timeout(window),
            Err(RecvTimeoutError::Disconnected)
        );
        // Drain window over (or instantly drained): tell the reactor to
        // exit unconditionally, dropping whatever connections remain.
        self.shared.abandon.store(true, Ordering::Release);
        self.shared.wake.wake();
        let _ = reactor.join();
        self.shared.jobs.stop();
        drained
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain(DRAIN_TIMEOUT);
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(job) = shared.jobs.pop() {
        let handled = {
            let _in_flight = InFlight::enter(&shared.metrics.requests_in_flight);
            catch_unwind(AssertUnwindSafe(|| execute_job(&shared, &job)))
        };
        let (mut response, close) = match handled {
            Ok(None) => {
                let token = job.token;
                shared.complete(Completion {
                    token,
                    reply: Reply::Forward(job),
                });
                continue;
            }
            Ok(Some(response)) => {
                let close = job.request.wants_close() || shared.stopping.load(Ordering::Acquire);
                (response, close)
            }
            Err(_) => {
                // A handler panic (own or injected) answers 500 and closes this
                // connection; every other connection is unaffected.
                shared.metrics.panics_caught.fetch_add(1, Ordering::Relaxed);
                (
                    Response::error(500, "internal error: handler panicked"),
                    true,
                )
            }
        };
        response
            .headers
            .push(("X-Request-Id".to_string(), job.request_id.to_string()));
        // Write-side faults act at the reactor's socket seam.
        let action = match job.action {
            FaultAction::WriteError | FaultAction::TornResponse => job.action,
            _ => FaultAction::None,
        };
        let completion = Completion {
            token: job.token,
            reply: Reply::Respond(response, close, action),
        };
        // Release the admission permit before the response ships, matching
        // the thread-per-connection server: the slot frees as soon as the
        // work is done, not when the client finishes reading.
        drop(job);
        shared.complete(completion);
    }
}

/// The ingress pipeline for one dispatched request: fault panic/delay
/// seams, then routing under the deadline budget — or `None` for a fleet
/// `/v1/*` request, which goes back to the reactor to be forwarded. The
/// admission permit (if any) is already held by the surrounding [`Job`].
fn execute_job(shared: &Arc<Shared>, job: &Job) -> Option<Response> {
    let budget = Budget {
        arrived: job.arrived,
        limit: shared.config.request_deadline,
    };
    if job.action == FaultAction::Panic {
        panic!("injected fault panic (request {})", job.request_id);
    }
    // For `/v1/*` the injected delay runs *inside* the admitted section, so
    // a chaos plan can hold permits and drive the gate into shedding.
    if let FaultAction::Delay(d) = job.action {
        std::thread::sleep(d);
    }
    if !job.request.path.starts_with("/v1/") {
        return Some(route(shared, &job.request, job.request_id, &budget));
    }
    debug_assert!(job.permit.is_some(), "/v1/* dispatched without a permit");
    if let Err(elapsed) = budget.check() {
        return Some(shared.deadline_response("admission", elapsed, &budget));
    }
    if shared.config.fleet.is_some() {
        return None;
    }
    let started = Instant::now();
    let response = route(shared, &job.request, job.request_id, &budget);
    shared.metrics.record_service_time(started.elapsed());
    Some(response)
}

fn route(shared: &Arc<Shared>, request: &Request, request_id: u64, budget: &Budget) -> Response {
    // Fleet mode: this server is a shard router. Same reactor, parser,
    // admission, and deadlines; its `/v1/*` requests forward from the
    // reactor and never reach a route.
    if let Some(fleet) = &shared.config.fleet {
        return crate::router::route_fleet(shared, fleet, request);
    }
    let segments = request.segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let tenants = shared.registry.tenants().into_iter().map(JsonValue::from);
            let body =
                json_object! { "status": "ok", "tenants": JsonValue::Arr(tenants.collect()) };
            Response::json(200, body.to_json())
        }
        ("GET", ["metrics"]) => metrics(shared, None),
        ("POST", ["v1", tenant, "query"]) => tenant_request(shared, tenant, request_id, |snap| {
            execute_query(shared, snap, &request.body, budget)
        }),
        ("GET", ["v1", tenant, "tables", table]) => {
            tenant_request(shared, tenant, request_id, |snap| {
                completed_table(shared, snap, table, request, budget)
            })
        }
        ("POST", ["v1", tenant, "rebuild"]) => rebuild(shared, tenant, request),
        (_, ["v1", _, "query"])
        | (_, ["v1", _, "tables", _])
        | (_, ["v1", _, "rebuild"])
        | (_, ["healthz" | "metrics"]) => {
            Response::error(405, &format!("method {} not allowed here", request.method))
        }
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

/// Per-tenant rate limit check — after tenant resolution (unknown tenants
/// 404 first, so hostile tenant names cannot grow the bucket map), before
/// any work is done for the request.
fn rate_limit_check(
    shared: &Shared,
    tenant: &str,
    counters: &TenantCounters,
    request_id: u64,
) -> Result<(), Response> {
    let Some(limiter) = &shared.limiter else {
        return Ok(());
    };
    match limiter.try_acquire(tenant) {
        Ok(()) => Ok(()),
        Err(wait) => {
            shared.metrics.requests_shed.fetch_add(1, Ordering::Relaxed);
            counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            counters
                .last_error_request_id
                .store(request_id, Ordering::Relaxed);
            Err(Response::too_many_requests(
                &format!("tenant {tenant:?} over rate limit"),
                wait,
            ))
        }
    }
}

/// What every tenant route does around its handler: resolve the tenant
/// (404 if unknown), apply its rate limit, count the query, run `handle`
/// on its snapshot, and count any status ≥ 400 as the tenant's error.
fn tenant_request(
    shared: &Shared,
    tenant: &str,
    request_id: u64,
    handle: impl FnOnce(&restore_core::Snapshot) -> Response,
) -> Response {
    let Some(snapshot) = shared.registry.view().get(tenant).cloned() else {
        return Response::error(404, &format!("unknown tenant {tenant:?}"));
    };
    let counters = shared.metrics.tenant(tenant);
    if let Err(response) = rate_limit_check(shared, tenant, &counters, request_id) {
        return response;
    }
    counters.queries.fetch_add(1, Ordering::Relaxed);
    let response = handle(&snapshot);
    if response.status >= 400 {
        counters.note_error(request_id);
    }
    response
}

/// Parses and executes one query body against a snapshot, checking the
/// deadline budget before each expensive stage.
fn execute_query(
    shared: &Shared,
    snapshot: &restore_core::Snapshot,
    body: &str,
    budget: &Budget,
) -> Response {
    let request = match QueryRequest::from_json(body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    if let Err(elapsed) = budget.check() {
        return shared.deadline_response("synthesis", elapsed, budget);
    }
    let result = match snapshot.execute(&request.query, request.seed) {
        Ok(r) => r,
        Err(e) => return Response::error(core_error_status(&e), &e.to_string()),
    };
    let interval = match &request.confidence {
        None => None,
        Some(spec) => {
            if let Err(elapsed) = budget.check() {
                return shared.deadline_response("confidence", elapsed, budget);
            }
            match snapshot.confidence(&request.query.tables, &spec.query, spec.level, request.seed)
            {
                Ok(ci) => Some(ci),
                Err(e) => return Response::error(core_error_status(&e), &e.to_string()),
            }
        }
    };
    Response::json(200, wire::query_response_json(&result, interval.as_ref()))
}

fn completed_table(
    shared: &Shared,
    snapshot: &restore_core::Snapshot,
    table: &str,
    request: &Request,
    budget: &Budget,
) -> Response {
    let seed = match seed_param(request, "seed") {
        Ok(seed) => seed.unwrap_or(0),
        Err(response) => return response,
    };
    if let Err(elapsed) = budget.check() {
        return shared.deadline_response("synthesis", elapsed, budget);
    }
    match snapshot.completed_table(table, seed) {
        Ok(completed) => Response::json(200, wire::table_json(&completed)),
        Err(e) => Response::error(core_error_status(&e), &e.to_string()),
    }
}

/// Boot-time snapshot scan: serve each stored tenant's newest valid
/// version. Tenants already published (programmatically, before `bind`)
/// are left alone; corrupt/truncated/unreadable version files are skipped
/// with a logged reason and the scan falls back to the next-newest — a bad
/// file on disk must never keep the server from coming up.
fn boot_scan(store: &SnapshotStore, registry: &Arc<SnapshotRegistry>, metrics: &Metrics) {
    for tenant in store.tenants() {
        if registry.get(&tenant).is_some() {
            continue;
        }
        let (loaded, skipped) = store.load_latest(&tenant);
        for skip in &skipped {
            eprintln!(
                "restore-serve: boot scan skipping {}: {}",
                skip.path.display(),
                skip.reason
            );
        }
        if let Some(loaded) = loaded {
            metrics.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
            metrics
                .snapshot_load_us
                .fetch_add((loaded.load_ms * 1e3) as u64, Ordering::Relaxed);
            metrics
                .snapshot_loaded_bytes
                .fetch_add(loaded.bytes, Ordering::Relaxed);
            eprintln!(
                "restore-serve: serving tenant {:?} from v{:05} ({} bytes, {:.1} ms load)",
                loaded.tenant, loaded.version, loaded.bytes, loaded.load_ms
            );
            registry.publish(loaded.tenant, Arc::new(loaded.snapshot));
        }
    }
}

/// Removes the tenant from the in-flight rebuild set when the rebuild
/// thread exits — by any path, including a panic inside training.
struct RebuildGuard {
    shared: Arc<Shared>,
    tenant: String,
}

impl Drop for RebuildGuard {
    fn drop(&mut self) {
        let mut rebuilds = self
            .shared
            .rebuilds
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        rebuilds.remove(&self.tenant);
    }
}

/// `POST /v1/{tenant}/rebuild` — the background rebuild/republish
/// pipeline: answer 202 immediately, then, off the worker pool, retrain
/// version n+1 from the currently served snapshot while version n keeps
/// serving, save it atomically into the snapshot directory, and publish it
/// through the copy-on-write registry (in-flight requests finish on the
/// old snapshot under their own `Arc`).
///
/// Seeds default deterministically — `serve_seed` derives from the current
/// snapshot's serve seed and the new version number, `train_seed` from the
/// new serve seed — and can be pinned via `?train_seed=&serve_seed=`.
fn rebuild(shared: &Arc<Shared>, tenant: &str, request: &Request) -> Response {
    let Some(store) = shared.store.clone() else {
        return Response::error(
            503,
            "snapshot persistence is not configured (no snapshot dir)",
        );
    };
    let Some(snapshot) = shared.registry.view().get(tenant).cloned() else {
        return Response::error(404, &format!("unknown tenant {tenant:?}"));
    };
    let version = store.latest_version(tenant).unwrap_or(0).saturating_add(1);
    let serve_seed = match seed_param(request, "serve_seed") {
        Ok(Some(s)) => s,
        Ok(None) => derive_seed(snapshot.serve_seed(), version as u64),
        Err(response) => return response,
    };
    let train_seed = match seed_param(request, "train_seed") {
        Ok(Some(s)) => s,
        Ok(None) => derive_seed(serve_seed, 1),
        Err(response) => return response,
    };
    {
        let mut rebuilds = shared.rebuilds.lock().unwrap_or_else(|e| e.into_inner());
        if !rebuilds.insert(tenant.to_string()) {
            return Response::error(409, &format!("rebuild already in flight for {tenant:?}"));
        }
    }
    shared
        .metrics
        .rebuilds_started
        .fetch_add(1, Ordering::Relaxed);
    let guard = RebuildGuard {
        shared: Arc::clone(shared),
        tenant: tenant.to_string(),
    };
    std::thread::spawn(move || {
        run_rebuild(guard, store, snapshot, version, train_seed, serve_seed)
    });
    let body = json_object! {
        "status": "rebuilding", "tenant": tenant, "version": version,
        "train_seed": train_seed.to_string(), "serve_seed": serve_seed.to_string(),
    };
    Response::json(202, body.to_json())
}

fn seed_param(request: &Request, name: &str) -> Result<Option<u64>, Response> {
    match request.query_param(name) {
        None => Ok(None),
        Some(raw) => parse_digits(raw)
            .map(Some)
            .ok_or_else(|| Response::error(400, &format!("bad {name} {raw:?}"))),
    }
}

/// The rebuild thread body: retrain → seal → atomic save → publish.
fn run_rebuild(
    guard: RebuildGuard,
    store: SnapshotStore,
    base: Arc<restore_core::Snapshot>,
    version: u32,
    train_seed: u64,
    serve_seed: u64,
) {
    let shared = Arc::clone(&guard.shared);
    let tenant = guard.tenant.clone();
    let result = (|| -> Result<(), String> {
        let rs = ReStore::rebuild_from(&base, train_seed).map_err(|e| e.to_string())?;
        let sealed = rs.seal(serve_seed);
        let (path, bytes) = store
            .save_version(&tenant, version, &sealed)
            .map_err(|e| e.to_string())?;
        shared
            .metrics
            .snapshots_saved
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .snapshot_saved_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        shared.registry.publish(&tenant, Arc::new(sealed));
        eprintln!(
            "restore-serve: rebuilt tenant {tenant:?} as v{version:05} ({bytes} bytes) at {}",
            path.display()
        );
        Ok(())
    })();
    match result {
        Ok(()) => {
            shared
                .metrics
                .rebuilds_completed
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            shared
                .metrics
                .rebuilds_failed
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("restore-serve: rebuild of tenant {tenant:?} v{version:05} failed: {e}");
        }
    }
}

/// Client-visible status for an execution error: a table or column the
/// snapshot does not have is a lookup that found nothing → 404; any other
/// relational error (an ambiguous reference, a type mismatch, an invalid
/// join) is a malformed request → 400; the rest is a valid request the
/// snapshot cannot serve (no model, no path, …) → 422.
fn core_error_status(e: &CoreError) -> u16 {
    match e {
        CoreError::Db(DbError::UnknownTable(_) | DbError::UnknownColumn(_)) => 404,
        CoreError::Db(_) => 400,
        _ => 422,
    }
}

/// The `/metrics` document. `fleet` (router mode only) is slotted in as a
/// `fleet` section ahead of `tenants`.
pub(crate) fn metrics(shared: &Shared, fleet: Option<JsonValue>) -> Response {
    let uptime = shared.started.elapsed().as_secs_f64().max(1e-9);
    let m = &shared.metrics;
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let tenants: Vec<(String, JsonValue)> = {
        let map = m.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, c)| {
                let queries = load(&c.queries);
                let counters = json_object! {
                    "queries": queries, "errors": load(&c.errors),
                    "rate_limited": load(&c.rate_limited),
                    "last_error_request_id": load(&c.last_error_request_id),
                    "queries_per_s": queries as f64 / uptime,
                };
                (name.clone(), counters)
            })
            .collect()
    };
    // Aggregate completion-cache counters over the *current* registry view;
    // retired snapshots drop out of the aggregate as they drain.
    let view = shared.registry.view();
    let (mut hits, mut misses, mut waits, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    let (mut bytes, mut entries) = (0usize, 0usize);
    for snapshot in view.values() {
        let stats = snapshot.full_cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        waits += stats.waits;
        evictions += stats.evictions;
        bytes += stats.bytes;
        entries += stats.entries;
    }
    let mut doc = json_object! {
        "uptime_s": uptime,
        "connections": json_object! {
            "total": load(&m.accepts), "active": load(&m.open_connections),
        },
        "event_loop": json_object! {
            "open_connections": load(&m.open_connections),
            "keepalive_idle": load(&m.keepalive_idle),
            "accepts": load(&m.accepts), "epoll_wakeups": load(&m.epoll_wakeups),
            "read_would_block": load(&m.read_would_block),
            "write_would_block": load(&m.write_would_block),
        },
        "requests": json_object! {
            "total": load(&m.requests_total), "in_flight": load(&m.requests_in_flight),
            "admitted": shared.admitted.load(Ordering::Acquire), "shed": load(&m.requests_shed),
            "deadline_exceeded": load(&m.deadline_exceeded),
            "panics_caught": load(&m.panics_caught),
            "faults_injected": load(&m.faults_injected),
            "service_ewma_ms": load(&m.service_ewma_nanos) as f64 / 1e6,
        },
        "cache": json_object! {
            "hits": hits, "misses": misses, "waits": waits,
            "evictions": evictions, "bytes": bytes, "entries": entries,
        },
        "persistence": json_object! {
            "snapshots_loaded": load(&m.snapshots_loaded),
            "snapshots_saved": load(&m.snapshots_saved),
            "load_ms": load(&m.snapshot_load_us) as f64 / 1e3,
            "loaded_bytes": load(&m.snapshot_loaded_bytes),
            "saved_bytes": load(&m.snapshot_saved_bytes),
            "rebuilds": json_object! {
                "started": load(&m.rebuilds_started),
                "completed": load(&m.rebuilds_completed),
                "failed": load(&m.rebuilds_failed),
            },
        },
    };
    if let Some(fleet) = fleet {
        doc.push("fleet", fleet);
    }
    doc.push("tenants", JsonValue::Obj(tenants));
    Response::json(200, doc.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_query(query: &str) -> Request {
        let mut parser = crate::http::RequestParser::new();
        parser.extend(format!("GET /?{query} HTTP/1.1\r\n\r\n").as_bytes());
        parser.next_request(&crate::http::LIMITS).unwrap().unwrap()
    }

    #[test]
    fn a_seed_parameter_is_digits_only() {
        let seed = seed_param(&with_query("seed=5"), "seed");
        assert_eq!(seed.ok(), Some(Some(5)));
        for raw in ["%2B5", "-5", "%205", ""] {
            let refused = seed_param(&with_query(&format!("serve_seed={raw}")), "serve_seed");
            assert_eq!(refused.map_err(|r| r.status).err(), Some(400), "{raw:?}");
        }
    }

    /// The drain window bounds the wait: a request still on a worker when
    /// it closes makes the drain report `false`.
    #[test]
    fn a_drain_window_shorter_than_the_work_in_flight_reports_false() {
        use std::io::Write;
        let delay = FaultConfig {
            seed: 1,
            window: (1, 2),
            delay_prob: 1.0,
            delay: Duration::from_millis(500),
            ..FaultConfig::default()
        };
        let config = ServeConfig {
            fault: Some(delay),
            ..ServeConfig::default()
        };
        let registry = Arc::new(SnapshotRegistry::new());
        let mut server = Server::bind("127.0.0.1:0", registry, config).expect("bind");
        let mut client = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        let delayed = b"GET /healthz HTTP/1.1\r\nX-Fault-Key: 1\r\n\r\n";
        client.write_all(delayed).expect("write");
        let in_flight = &server.shared.metrics.requests_in_flight;
        while in_flight.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert!(!server.drain(Duration::from_millis(30)));
    }
}
