//! The epoll readiness event loop under the serving front-end — `std` only,
//! speaking to the kernel through a minimal `extern "C"` surface
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait`) against the libc `std`
//! already links. One reactor thread owns every socket: it
//! accepts, feeds nonblocking reads through the incremental
//! [`RequestParser`](crate::http::RequestParser), and writes responses back
//! on writability. Request *execution* never runs here — a parsed request
//! is handed to the worker pool via [`Shared::on_request`], and the worker's
//! completion is delivered back through a wake pipe ([`WakeHandle`]).
//!
//! Per-connection state machine:
//!
//! ```text
//!  KeepAliveIdle ──bytes──► ReadingHead ──head──► ReadingBody
//!        ▲                      │ (no body: skip)      │
//!        │                      ▼                      ▼
//!        │                  complete request ──► Dispatched (worker owns it)
//!        │                      │ fleet /v1/*          │ completion │ seam ran
//!        │                      ▼                      │            ▼
//!        │                AwaitingUpstream ◄───────────┼────────────┘
//!        │                      │ response spliced     │
//!        └── response flushed ◄─┴──── Writing ◄────────┘
//!             (pipelined carry re-parsed immediately)
//! ```
//!
//! In fleet mode the reactor is the router's forwarding transport too:
//! shards' upstream sockets share its epoll set (tokens with [`UPSTREAM`]
//! set), dials are nonblocking, responses are spliced back, and a retry
//! waits on a timer in the deadline sweep — the reactor never blocks.
//!
//! Deadlines are reactor-enforced: a request that stops arriving mid-parse
//! is answered 400 after [`ServeConfig::request_deadline`](crate::ServeConfig::request_deadline),
//! and a client that stops reading its response is cut on the same budget —
//! so neither a slow-loris sender nor a dead receiver can pin a connection
//! slot through graceful drain.

use std::collections::{HashMap, HashSet};
use std::ffi::c_int;
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use restore_util::retry_wait;

use crate::client::encode_request;
use crate::fault::FaultAction;
use crate::http::{encode_response, torn_prefix_len, ParseError, RequestParser, Response, LIMITS};
use crate::router::{splice_response, Fleet, Shard, DOWN_AFTER};
use crate::server::{Completion, Decision, Job, Metrics, Reply, Shared};

/// Raw syscall surface. Constants match the Linux UAPI headers; the
/// `epoll_event` layout is packed on x86_64 (and only there), exactly as
/// the kernel expects.
mod sys {
    use std::ffi::c_int;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;

    pub(super) const RLIMIT_NOFILE: c_int = 7;

    pub(super) const AF_INET: c_int = 2;
    pub(super) const AF_INET6: c_int = 10;
    pub(super) const SOCK_STREAM: c_int = 1;
    pub(super) const SOCK_NONBLOCK: c_int = 0o4000;
    pub(super) const SOCK_CLOEXEC: c_int = 0o2000000;
    pub(super) const EINPROGRESS: i32 = 115;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub(super) struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub(super) fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub(super) fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        pub(super) fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub(super) fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
    }
}

/// Starts a nonblocking TCP connect. Until the handshake is done a write
/// would block, and a failed handshake fails the write: the reactor never
/// waits in `connect`.
fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // A `sockaddr_in` or `sockaddr_in6`, laid out by hand.
    let mut sa = [0u8; 28];
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (sys::AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..].copy_from_slice(&a.scope_id().to_ne_bytes());
            (sys::AF_INET6, 28)
        }
    };
    sa[..2].copy_from_slice(&(family as u16).to_ne_bytes());
    let kind = sys::SOCK_STREAM | sys::SOCK_NONBLOCK | sys::SOCK_CLOEXEC;
    // SAFETY: takes no pointer; the result is checked before use.
    let fd = unsafe { sys::socket(family, kind, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just opened by this call and is owned by nothing
    // else, so the stream is its only owner and closes it exactly once.
    let stream = TcpStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
    // SAFETY: `sa` is a live buffer of at least `len` bytes, which the
    // kernel only reads.
    if unsafe { sys::connect(fd, sa.as_ptr(), len) } == 0 {
        return Ok(stream);
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(sys::EINPROGRESS) => Ok(stream),
        _ => Err(err),
    }
}

/// Raises the process soft fd limit to the hard limit (always permitted,
/// no privileges needed) and returns the resulting soft limit. Connection
/// counts are fd counts, so every connection-scale entry point — the
/// server-side bench phases and the soak tests — calls this first.
pub fn raise_fd_limit() -> io::Result<u64> {
    let mut lim = sys::RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` (two `u64`s, the
    // layout of `rlim_t` on Linux), and the kernel writes only that.
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur < lim.max {
        let want = sys::RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is a live `struct rlimit` the kernel only reads.
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } != 0 {
            return Err(io::Error::last_os_error());
        }
        lim.cur = lim.max;
    }
    Ok(lim.cur)
}

/// Safe wrapper over one epoll instance. Tokens are opaque `u64`s carried
/// in `epoll_event.data`; closing a registered fd deregisters it.
pub(crate) struct Epoll {
    fd: OwnedFd,
    events: Vec<sys::EpollEvent>,
}

fn interest_mask(read: bool, write: bool) -> u32 {
    let mut mask = 0;
    if read {
        mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if write {
        mask |= sys::EPOLLOUT;
    }
    mask
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: takes no pointer; the result is checked before use.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            // SAFETY: `fd` was just opened by this call and is owned by
            // nothing else, so the `OwnedFd` is its only owner and closes it
            // exactly once.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: the epoll fd is open for as long as `self` lives; `ev` is
        // a live `epoll_event` of the kernel's layout, which it only reads.
        // A bad `fd` is an error return, not undefined behaviour.
        if unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(crate) fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest_mask(read, write), token)
    }

    pub(crate) fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest_mask(read, write), token)
    }

    /// Blocks until readiness events arrive (or `timeout` elapses; `None`
    /// blocks indefinitely), filling `out` with `(token, event mask)`
    /// pairs. EINTR retries internally.
    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<(u64, u32)>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a deadline poll never wakes before its deadline
            // and then spins until the clock catches up.
            Some(d) => {
                let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                ms.min(i32::MAX as u128) as c_int
            }
        };
        let n = loop {
            // SAFETY: `events` is a live buffer of `events.len()` entries of
            // the kernel's `epoll_event` layout, and the kernel writes at
            // most `maxevents` = `events.len()` of them.
            let n = unsafe {
                sys::epoll_wait(
                    self.fd.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.events[..n] {
            out.push((ev.data, ev.events));
        }
        Ok(())
    }
}

/// A pipe the worker pool (and shutdown) use to pop the reactor out of
/// `epoll_wait`: a wake writes one byte, and the reactor, registered for
/// the read end, drains them. `std` opens both ends `O_CLOEXEC`, so a
/// re-exec'd worker process inherits neither. Both ends block. A drain
/// runs only on a readiness event, so its one read finds bytes waiting; a
/// wake blocks only once 64 KiB of wakes sit undrained — more than one per
/// connection — and the reactor, which never waits on a worker, drains
/// them on its next turn.
pub(crate) struct WakeHandle {
    reader: PipeReader,
    writer: PipeWriter,
}

impl WakeHandle {
    pub(crate) fn new() -> io::Result<Self> {
        let (reader, writer) = io::pipe()?;
        Ok(Self { reader, writer })
    }

    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.writer).write(&[1]);
    }

    /// Pushes `item` onto `queue`, which the reactor takes after it drains
    /// this pipe, and wakes it only if `queue` was empty: a push onto a
    /// non-empty queue is taken by the take that the earlier push's wake
    /// is still due to cause. One wake per batch of completions.
    pub(crate) fn push<T>(&self, queue: &Mutex<Vec<T>>, item: T) {
        let was_empty = {
            let mut queue = queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push(item);
            queue.len() == 1
        };
        if was_empty {
            self.wake();
        }
    }

    /// Reads what is pending, up to 512 wakes, in one read: any left over
    /// keep the (level-triggered) read end ready for the next wait.
    pub(crate) fn drain(&self) {
        let _ = (&self.reader).read(&mut [0u8; 512]);
    }
}

pub(crate) const TOKEN_LISTENER: u64 = 0;
pub(crate) const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Tokens of upstream (router → shard) sockets carry this bit.
const UPSTREAM: u64 = 1 << 63;
/// Idle keep-alive upstream sockets kept per shard.
const MAX_IDLE_PER_SHARD: usize = 16;
const READ_CHUNK: usize = 16 * 1024;
/// Upper bound on one park in `epoll_wait` while a connection carries a
/// deadline; the park already ends at the nearest one.
const READ_POLL: Duration = Duration::from_millis(100);

/// Where a connection is in its request/response cycle. `/metrics` exposes
/// the `KeepAliveIdle` population as `event_loop.keepalive_idle`.
enum Phase {
    /// Bytes of a request head are buffered; the terminator hasn't landed.
    ReadingHead,
    /// The head is complete; `Content-Length` body bytes are outstanding.
    ReadingBody,
    /// A worker owns the parsed request; the reactor keeps reading carry
    /// (bounded) but dispatches nothing else on this connection.
    Dispatched,
    /// Fleet mode: the request is out to its shard, or waiting out a retry
    /// backoff; carry is read as in `Dispatched`.
    AwaitingUpstream,
    /// Encoded response bytes are waiting on socket writability.
    Writing,
    /// Between requests: parser empty, nothing in flight.
    KeepAliveIdle,
}

struct Conn {
    stream: TcpStream,
    phase: Phase,
    parser: RequestParser,
    /// When the current (incomplete) request's first bytes arrived — the
    /// start of its deadline budget.
    partial_since: Option<Instant>,
    /// Cut-off for an incomplete request (slow-loris defense → 400).
    partial_deadline: Option<Instant>,
    /// Encoded response bytes not yet accepted by the kernel.
    pending: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// Cut-off for a client that stops reading its response.
    write_deadline: Option<Instant>,
    /// Reads suspended because the pipelined carry hit its bound.
    read_paused: bool,
    /// Peer sent FIN; never re-arm read interest (level-triggered EOF
    /// would spin), and close once nothing is left to answer.
    peer_eof: bool,
    /// Interest currently registered with epoll, to skip redundant MODs.
    registered: (bool, bool),
    /// The forward of phase `AwaitingUpstream`.
    forward: Option<Forward>,
}

impl Conn {
    /// The partial request's, the stalled write's and the forward's timer.
    fn timers(&self) -> [Option<Instant>; 3] {
        let forward = self.forward.as_ref().map(|f| f.timer);
        [self.partial_deadline, self.write_deadline, forward]
    }
}

impl Phase {
    /// A request is out (to a worker or a shard) or its response is.
    fn in_flight(&self) -> bool {
        matches!(
            self,
            Self::Dispatched | Self::AwaitingUpstream | Self::Writing
        )
    }
}

/// A `/v1/*` request on its way to its shard; holds the job's admission
/// permit until the response is staged for the client.
struct Forward {
    job: Job,
    shard: usize,
    attempt: u32,
    /// `min(retry budget, the request's remaining deadline)` from the
    /// start: no retry waits, and no response is awaited, past it.
    deadline: Instant,
    /// The upstream socket of the current attempt; `None` while backing off.
    upstream: Option<u64>,
    /// When the response wait, or the backoff before the next attempt, ends.
    timer: Instant,
}

/// A keep-alive socket to one shard, owned by the reactor.
struct Upstream {
    stream: TcpStream,
    shard: usize,
    /// The address dialed; a shard that moved retires its old sockets.
    peer: SocketAddr,
    /// The client whose forward this socket carries; `None` while idle.
    client: Option<u64>,
    /// The request being written, and how much of it the kernel took.
    out: Vec<u8>,
    written: usize,
    /// Response bytes read so far.
    buf: Vec<u8>,
    registered: (bool, bool),
}

impl Upstream {
    /// Moves the rest of the request out and, when `readable`, the response
    /// bytes in: `Ok(Some)` once the response is complete.
    fn exchange(
        &mut self,
        job: &Job,
        close: bool,
        readable: bool,
    ) -> io::Result<Option<(Vec<u8>, bool)>> {
        // A nonblocking socket never parks in a syscall: no EINTR here.
        let would_block = |e: &io::Error| e.kind() == io::ErrorKind::WouldBlock;
        while self.written < self.out.len() {
            match (&self.stream).write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if would_block(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        if !readable {
            return Ok(None);
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if would_block(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
            if let Some(spliced) = splice_response(&self.buf, job.request_id, close)? {
                return Ok(Some(spliced));
            }
        }
    }
}

/// What one state-machine step decided, computed under the `Conn` borrow
/// and acted on after it ends.
enum Step {
    /// Nothing further until more I/O (or a completion) arrives.
    Parked,
    /// Close without an answer (clean EOF between requests).
    CloseQuiet,
    /// Answer immediately from the reactor, then close if `bool` says so.
    Respond(Response, bool),
    /// A complete request is ready for the dispatch decision.
    Ready(crate::http::Request, Instant),
}

enum WriteOutcome {
    /// Connection closed (fatal error, injected fault, or `close` done).
    Closed,
    /// Bytes remain; EPOLLOUT is armed.
    Pending,
    /// Fully flushed and the connection stays open.
    DoneKeepAlive,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Tokens carrying a partial-request or stalled-write deadline — the
    /// only connections the poll timeout has to consider, so 10k idle
    /// sockets don't cost a 10k-entry scan per wakeup.
    deadlined: HashSet<u64>,
    next_token: u64,
    /// Fleet mode: the shards `/v1/*` requests forward to.
    fleet: Option<Arc<Fleet>>,
    upstreams: HashMap<u64, Upstream>,
    /// Per shard, its idle upstream tokens: a stack, hottest on top.
    idle: Vec<Vec<u64>>,
    next_upstream: u64,
}

impl Reactor {
    pub(crate) fn new(listener: TcpListener, epoll: Epoll, shared: Arc<Shared>) -> Self {
        let fleet = shared.config.fleet.clone();
        let shards = fleet.as_ref().map_or(0, |f| f.shard_count());
        Self {
            shared,
            epoll,
            listener: Some(listener),
            conns: HashMap::new(),
            deadlined: HashSet::new(),
            next_token: FIRST_CONN_TOKEN,
            fleet,
            upstreams: HashMap::new(),
            idle: vec![Vec::new(); shards],
            next_upstream: UPSTREAM,
        }
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<(u64, u32)> = Vec::new();
        loop {
            let timeout = self.poll_timeout();
            if self.epoll.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable for this loop;
                // fall through to the shutdown checks so we still exit.
                events.clear();
            }
            self.shared
                .metrics
                .epoll_wakeups
                .fetch_add(1, Ordering::Relaxed);
            for &(token, mask) in &events {
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    _ if token & UPSTREAM != 0 => self.upstream_event(token, mask),
                    _ => self.conn_event(token, mask),
                }
            }
            self.drain_completions();
            if self.shared.stopping.load(Ordering::Acquire) {
                self.on_shutdown();
                if self.listener.is_none() && self.conns.is_empty() {
                    return;
                }
            }
            self.expire_deadlines();
            if self.shared.abandon.load(Ordering::Acquire) {
                return;
            }
        }
    }

    /// Next `epoll_wait` timeout: indefinite unless some connection holds
    /// a deadline, then the nearest one (capped at [`READ_POLL`] so a clock
    /// oddity can never park the loop past its tick).
    fn poll_timeout(&self) -> Option<Duration> {
        if self.deadlined.is_empty() {
            return None;
        }
        let mut nearest: Option<Instant> = None;
        for token in &self.deadlined {
            let Some(conn) = self.conns.get(token) else {
                continue;
            };
            for deadline in conn.timers().into_iter().flatten() {
                nearest = Some(match nearest {
                    Some(n) => n.min(deadline),
                    None => deadline,
                });
            }
        }
        let nearest = nearest?;
        let delta = nearest.saturating_duration_since(Instant::now());
        Some(delta.min(READ_POLL))
    }

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    // Shutdown won the race: drop the socket; the listener
                    // itself closes on the next sweep.
                    if self.shared.stopping.load(Ordering::Acquire) {
                        continue;
                    }
                    self.shared.metrics.accepts.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .metrics
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .metrics
                        .keepalive_idle
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            phase: Phase::KeepAliveIdle,
                            parser: RequestParser::new(),
                            partial_since: None,
                            partial_deadline: None,
                            pending: Vec::new(),
                            written: 0,
                            close_after_write: false,
                            write_deadline: None,
                            read_paused: false,
                            peer_eof: false,
                            registered: (true, false),
                            forward: None,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (fd exhaustion under a
                    // connection flood): back off briefly instead of
                    // busy-spinning on the still-ready listener.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & sys::EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if mask & sys::EPOLLOUT != 0 {
            self.continue_write(token);
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            self.do_read(token);
        }
    }

    fn do_read(&mut self, token: u64) {
        let fatal = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.read_paused || conn.peer_eof {
                return;
            }
            let carry_bound = LIMITS.max_head_bytes + LIMITS.max_body_bytes + READ_CHUNK;
            let mut chunk = [0u8; READ_CHUNK];
            let mut fatal = false;
            loop {
                match (&conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        let was_empty = !conn.parser.has_partial();
                        conn.parser.extend(&chunk[..n]);
                        if was_empty {
                            conn.partial_since = Some(Instant::now());
                        }
                        if conn.phase.in_flight() && conn.parser.buffered() > carry_bound {
                            // A pipelining client outran the in-flight
                            // request; stop reading until its response
                            // ships rather than buffering without bound.
                            conn.read_paused = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.shared
                            .metrics
                            .read_would_block
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            fatal
        };
        if fatal {
            self.close_conn(token);
            return;
        }
        self.sync_interest(token);
        self.advance(token);
    }

    /// Pumps the parse → dispatch cycle while the connection is in a
    /// parsing phase. Iterative (not recursive) so a buffer full of
    /// pipelined requests can't grow the stack.
    fn advance(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.phase.in_flight() {
                    return;
                }
                match conn.parser.next_request(&LIMITS) {
                    Err(ParseError::TooLarge) => {
                        Step::Respond(Response::error(413, "request too large"), true)
                    }
                    Err(ParseError::Malformed(msg)) => {
                        Step::Respond(Response::error(400, &msg), true)
                    }
                    Ok(Some(request)) => {
                        let arrived = conn.partial_since.take().unwrap_or_else(Instant::now);
                        conn.partial_deadline = None;
                        Step::Ready(request, arrived)
                    }
                    Ok(None) if conn.parser.has_partial() => {
                        if conn.peer_eof {
                            Step::Respond(
                                Response::error(400, "connection closed mid-request"),
                                true,
                            )
                        } else {
                            let phase = if conn.parser.reading_body() {
                                Phase::ReadingBody
                            } else {
                                Phase::ReadingHead
                            };
                            set_phase(&self.shared.metrics, conn, phase);
                            let since = *conn.partial_since.get_or_insert_with(Instant::now);
                            if conn.partial_deadline.is_none() {
                                conn.partial_deadline =
                                    Some(since + self.shared.config.request_deadline);
                            }
                            Step::Parked
                        }
                    }
                    Ok(None) => {
                        set_phase(&self.shared.metrics, conn, Phase::KeepAliveIdle);
                        conn.partial_since = None;
                        conn.partial_deadline = None;
                        if conn.peer_eof {
                            Step::CloseQuiet
                        } else {
                            Step::Parked
                        }
                    }
                }
            };
            match step {
                Step::Parked => {
                    self.sync_deadline(token);
                    return;
                }
                Step::CloseQuiet => {
                    self.close_conn(token);
                    return;
                }
                Step::Respond(response, close) => {
                    self.sync_deadline(token);
                    match self.respond(token, response, close, FaultAction::None) {
                        WriteOutcome::DoneKeepAlive => continue,
                        _ => return,
                    }
                }
                Step::Ready(request, arrived) => {
                    self.sync_deadline(token);
                    match self.shared.on_request(token, request, arrived) {
                        Decision::Close => {
                            self.close_conn(token);
                            return;
                        }
                        Decision::Respond(response, close) => {
                            match self.respond(token, response, close, FaultAction::None) {
                                WriteOutcome::DoneKeepAlive => continue,
                                _ => return,
                            }
                        }
                        Decision::Dispatched => {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                set_phase(&self.shared.metrics, conn, Phase::Dispatched);
                            }
                            return;
                        }
                        // The loop's top returns while it is in flight.
                        Decision::Forward(job) => self.begin_forward(job),
                    }
                }
            }
        }
    }

    /// Stages an encoded response (applying write-side fault actions) and
    /// flushes as much as the socket will take right now.
    fn respond(
        &mut self,
        token: u64,
        response: Response,
        close: bool,
        action: FaultAction,
    ) -> WriteOutcome {
        self.stage(token, encode_response(&response, close), close, action)
    }

    /// [`Reactor::respond`] for response bytes already on hand.
    fn stage(
        &mut self,
        token: u64,
        mut bytes: Vec<u8>,
        mut close: bool,
        action: FaultAction,
    ) -> WriteOutcome {
        if action == FaultAction::WriteError {
            // Injected write failure: the work happened, the response is
            // dropped on the floor.
            self.close_conn(token);
            return WriteOutcome::Closed;
        }
        if action == FaultAction::TornResponse {
            bytes.truncate(torn_prefix_len(bytes.len()));
            close = true;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return WriteOutcome::Closed;
        };
        conn.pending = bytes;
        conn.written = 0;
        conn.close_after_write = close;
        self.flush_write(token)
    }

    fn continue_write(&mut self, token: u64) {
        let writing = matches!(
            self.conns.get(&token).map(|c| &c.phase),
            Some(Phase::Writing)
        );
        if !writing {
            return;
        }
        if let WriteOutcome::DoneKeepAlive = self.flush_write(token) {
            self.advance(token);
        }
    }

    fn flush_write(&mut self, token: u64) -> WriteOutcome {
        enum Flush {
            Done,
            Blocked,
            Fatal,
        }
        let flushed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return WriteOutcome::Closed;
            };
            loop {
                if conn.written >= conn.pending.len() {
                    break Flush::Done;
                }
                match (&conn.stream).write(&conn.pending[conn.written..]) {
                    Ok(0) => break Flush::Fatal,
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.shared
                            .metrics
                            .write_would_block
                            .fetch_add(1, Ordering::Relaxed);
                        break Flush::Blocked;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break Flush::Fatal,
                }
            }
        };
        match flushed {
            Flush::Fatal => {
                self.close_conn(token);
                WriteOutcome::Closed
            }
            Flush::Blocked => {
                let deadline = Instant::now() + self.shared.config.request_deadline;
                if let Some(conn) = self.conns.get_mut(&token) {
                    set_phase(&self.shared.metrics, conn, Phase::Writing);
                    if conn.write_deadline.is_none() {
                        conn.write_deadline = Some(deadline);
                    }
                }
                self.sync_deadline(token);
                self.sync_interest(token);
                WriteOutcome::Pending
            }
            Flush::Done => {
                let close = {
                    let conn = self.conns.get_mut(&token).expect("conn flushed above");
                    conn.pending.clear();
                    conn.written = 0;
                    conn.write_deadline = None;
                    conn.close_after_write
                };
                if close {
                    self.close_conn(token);
                    return WriteOutcome::Closed;
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.read_paused = false;
                    set_phase(&self.shared.metrics, conn, Phase::KeepAliveIdle);
                }
                self.sync_deadline(token);
                self.sync_interest(token);
                WriteOutcome::DoneKeepAlive
            }
        }
    }

    /// Delivers finished worker responses to their connections, and starts
    /// the forwards whose fault seam ran on a worker.
    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = self.shared.take_completions();
        for Completion { token, reply } in completions {
            // The connection may have died (reset, abandon) while the
            // worker ran; its completion simply evaporates.
            let dispatched = matches!(
                self.conns.get(&token).map(|c| &c.phase),
                Some(Phase::Dispatched)
            );
            if !dispatched {
                continue;
            }
            match reply {
                Reply::Respond(response, close, action) => {
                    self.respond(token, response, close, action);
                }
                Reply::Forward(job) => self.begin_forward(job),
            }
            self.advance(token);
        }
    }

    /// Starts forwarding `job` to its tenant's shard.
    fn begin_forward(&mut self, job: Job) {
        let (token, fleet) = (job.token, fleet(&self.fleet));
        let shard = fleet.shard_for(tenant(&job));
        let budget = self.shared.config.request_deadline;
        let left = budget.saturating_sub(job.arrived.elapsed());
        let now = Instant::now();
        let deadline = now + left.min(fleet.config.retry_budget);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        set_phase(&self.shared.metrics, conn, Phase::AwaitingUpstream);
        conn.forward = Some(Forward {
            job,
            shard,
            attempt: 0,
            deadline,
            upstream: None,
            timer: now,
        });
        self.attempt(token, shard);
    }

    /// One forward attempt: the request goes out on an upstream socket of
    /// `shard`, and the response wait (`read_timeout`, capped by the
    /// deadline) starts.
    fn attempt(&mut self, token: u64, shard: usize) {
        let up = match self.checkout(shard) {
            Ok(up) => up,
            Err(e) => return self.retry_or_fail(token, e),
        };
        let wait = fleet(&self.fleet).config.client.read_timeout;
        let fwd = self.conns.get_mut(&token).and_then(|c| c.forward.as_mut());
        let fwd = fwd.expect("a forward attempts");
        fwd.upstream = Some(up);
        fwd.timer = (Instant::now() + wait).min(fwd.deadline);
        let u = self.upstreams.get_mut(&up).expect("checked out");
        let request = &fwd.job.request;
        let body = (!request.body.is_empty()).then_some(request.body.as_str());
        u.out = encode_request(&request.method, &request.target, body, &[]);
        (u.client, u.written) = (Some(token), 0);
        u.buf.clear();
        let outcome = u.exchange(&fwd.job, closing(&self.shared, &fwd.job), false);
        self.sync_deadline(token);
        self.settle(up, token, outcome);
    }

    /// An upstream socket to `shard`: the hottest idle one dialed to its
    /// current address, else a nonblocking dial. Fails fast with
    /// `NotConnected` while the shard is down or has no address.
    fn checkout(&mut self, shard: usize) -> io::Result<u64> {
        let s = shard_of(&self.fleet, shard);
        let Some(peer) = s.peer().filter(|_| s.health.is_up()) else {
            let down = format!("shard {shard} is down or has no address");
            return Err(io::Error::new(io::ErrorKind::NotConnected, down));
        };
        while let Some(up) = self.idle[shard].pop() {
            s.idle.fetch_sub(1, Ordering::Relaxed);
            if self.upstreams.get(&up).is_some_and(|u| u.peer == peer) {
                s.reused.fetch_add(1, Ordering::Relaxed);
                return Ok(up);
            }
            self.upstreams.remove(&up);
            s.discarded.fetch_add(1, Ordering::Relaxed);
        }
        let stream = connect_nonblocking(peer)?;
        stream.set_nodelay(true)?;
        let up = self.next_upstream;
        self.next_upstream += 1;
        self.epoll.add(stream.as_raw_fd(), up, true, false)?;
        s.dialed.fetch_add(1, Ordering::Relaxed);
        let upstream = Upstream {
            stream,
            shard,
            peer,
            client: None,
            out: Vec::new(),
            written: 0,
            buf: Vec::new(),
            registered: (true, false),
        };
        self.upstreams.insert(up, upstream);
        Ok(up)
    }

    fn upstream_event(&mut self, up: u64, mask: u32) {
        let Some(u) = self.upstreams.get_mut(&up) else {
            return;
        };
        let Some(client) = u.client else {
            // An idle socket turns readable only when the worker closed it
            // (or broke protocol): drop it.
            let s = shard_of(&self.fleet, u.shard);
            self.idle[u.shard].retain(|&t| t != up);
            self.upstreams.remove(&up);
            s.idle.fetch_sub(1, Ordering::Relaxed);
            s.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let fwd = self.conns[&client].forward.as_ref().expect("attached");
        let close = closing(&self.shared, &fwd.job);
        let outcome = u.exchange(&fwd.job, close, mask & !sys::EPOLLOUT != 0);
        self.settle(up, client, outcome);
        self.advance(client);
    }

    /// Acts on an exchange's outcome: a pending one re-arms the socket, a
    /// transport error retries or fails the forward, and a complete
    /// response finishes it, the socket going back on its shard's idle
    /// stack unless the worker retired it, the shard moved, or the stack
    /// is full.
    fn settle(&mut self, up: u64, client: u64, outcome: io::Result<Option<(Vec<u8>, bool)>>) {
        let u = self.upstreams.get_mut(&up).expect("in flight");
        let s = shard_of(&self.fleet, u.shard);
        match outcome {
            Ok(None) => {
                let want = (true, u.written < u.out.len());
                let fd = u.stream.as_raw_fd();
                if u.registered != want && self.epoll.modify(fd, up, true, want.1).is_ok() {
                    u.registered = want;
                }
            }
            Err(e) => {
                self.upstreams.remove(&up);
                self.retry_or_fail(client, e);
            }
            Ok(Some((bytes, reusable))) => {
                s.health.record_success();
                s.forwarded.fetch_add(1, Ordering::Relaxed);
                u.client = None;
                let idle = &mut self.idle[u.shard];
                let keep = reusable && s.peer() == Some(u.peer);
                if keep && idle.len() < MAX_IDLE_PER_SHARD {
                    idle.push(up);
                    s.idle.fetch_add(1, Ordering::Relaxed);
                } else {
                    s.discarded.fetch_add(u64::from(keep), Ordering::Relaxed);
                    self.upstreams.remove(&up);
                }
                self.finish_forward(client, bytes);
            }
        }
    }

    /// A failed attempt feeds the shard's health (a health-gate refusal is
    /// not new evidence), then either backs off on a timer for the next
    /// attempt or, when the wait would cross the deadline, answers 503.
    fn retry_or_fail(&mut self, token: u64, error: io::Error) {
        let Some(fwd) = self.conns.get_mut(&token).and_then(|c| c.forward.as_mut()) else {
            return;
        };
        let s = shard_of(&self.fleet, fwd.shard);
        if error.kind() != io::ErrorKind::NotConnected {
            s.health.record_failure(DOWN_AFTER);
        }
        fwd.upstream = None;
        let wait = retry_wait(fwd.job.request_id, fwd.attempt);
        if Instant::now() + wait <= fwd.deadline {
            s.retried.fetch_add(1, Ordering::Relaxed);
            fwd.attempt += 1;
            fwd.timer = Instant::now() + wait;
            return self.sync_deadline(token);
        }
        s.failed.fetch_add(1, Ordering::Relaxed);
        let (index, tenant) = (s.index, tenant(&fwd.job));
        let message = format!("shard {index} unavailable for tenant {tenant:?}: {error}");
        let refused = Response::error(503, &message)
            .with_header("Retry-After", "1")
            .with_header("X-Request-Id", fwd.job.request_id.to_string());
        let bytes = encode_response(&refused, closing(&self.shared, &fwd.job));
        self.finish_forward(token, bytes);
    }

    /// Ends a forward: its permit releases, and `bytes` are staged.
    fn finish_forward(&mut self, token: u64, bytes: Vec<u8>) {
        let Some(fwd) = self.conns.get_mut(&token).and_then(|c| c.forward.take()) else {
            return;
        };
        let metrics = &self.shared.metrics;
        metrics.record_service_time(fwd.job.arrived.elapsed());
        let (close, action) = (closing(&self.shared, &fwd.job), fwd.job.action);
        drop(fwd);
        self.sync_deadline(token);
        self.stage(token, bytes, close, action);
    }

    /// Cuts connections whose partial request or stalled response write
    /// outlived the request deadline.
    fn expire_deadlines(&mut self) {
        if self.deadlined.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<u64> = self
            .deadlined
            .iter()
            .copied()
            .filter(|token| {
                let timers = self.conns.get(token).map(Conn::timers).unwrap_or_default();
                timers.into_iter().flatten().any(|d| d <= now)
            })
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let [partial, write, _] = conn.timers().map(|d| d.is_some_and(|d| d <= now));
            if write {
                self.close_conn(token);
            } else if partial {
                conn.partial_deadline = None;
                let late = Response::error(400, "request did not complete in time");
                self.respond(token, late, true, FaultAction::None);
            } else {
                // The response wait fails the attempt, or the backoff
                // before the next one is over.
                let fwd = conn.forward.as_mut().expect("a forward timer");
                match (fwd.upstream.take(), fwd.shard) {
                    (Some(up), _) => {
                        self.upstreams.remove(&up);
                        let late = "shard did not answer within the response wait";
                        let late = io::Error::new(io::ErrorKind::TimedOut, late);
                        self.retry_or_fail(token, late);
                    }
                    (None, shard) => self.attempt(token, shard),
                }
                self.advance(token);
            }
        }
    }

    /// Shutdown sweep: close the listener (new connects are refused from
    /// here on) and every connection with no response in flight — a
    /// half-received request is not in-flight work, and graceful drain
    /// must not wait on a stalled sender. `Dispatched`, `AwaitingUpstream`
    /// and `Writing` connections ride through the drain and close with
    /// their response.
    fn on_shutdown(&mut self) {
        self.listener = None;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| !conn.phase.in_flight())
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn sync_deadline(&mut self, token: u64) {
        let has = self
            .conns
            .get(&token)
            .is_some_and(|c| c.timers().iter().any(Option::is_some));
        if has {
            self.deadlined.insert(token);
        } else {
            self.deadlined.remove(&token);
        }
    }

    /// Re-registers the connection's epoll interest when it changed.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let read = !conn.peer_eof && !conn.read_paused;
        let write = matches!(conn.phase, Phase::Writing) && conn.written < conn.pending.len();
        if conn.registered == (read, write) {
            return;
        }
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), token, read, write)
            .is_ok()
        {
            conn.registered = (read, write);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.deadlined.remove(&token);
            self.shared
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            if matches!(conn.phase, Phase::KeepAliveIdle) {
                self.shared
                    .metrics
                    .keepalive_idle
                    .fetch_sub(1, Ordering::Relaxed);
            }
            // A forward's socket is mid-exchange: it cannot be reused.
            if let Some(up) = conn.forward.and_then(|f| f.upstream) {
                self.upstreams.remove(&up);
            }
            // Dropping `conn` closes the socket (auto-deregistering it
            // from epoll).
        }
    }
}

fn fleet(fleet: &Option<Arc<Fleet>>) -> &Fleet {
    fleet.as_deref().expect("only a fleet router forwards")
}

fn shard_of(shards: &Option<Arc<Fleet>>, index: usize) -> &Shard {
    &fleet(shards).shards[index]
}

/// The tenant of a `/v1/{tenant}/…` job.
fn tenant(job: &Job) -> &str {
    let path = &job.request.path["/v1/".len()..];
    path.split('/').next().unwrap_or_default()
}

/// Whether the client's connection closes after this job's response.
fn closing(shared: &Shared, job: &Job) -> bool {
    job.request.wants_close() || shared.stopping.load(Ordering::Acquire)
}

fn set_phase(metrics: &Metrics, conn: &mut Conn, phase: Phase) {
    let was_idle = matches!(conn.phase, Phase::KeepAliveIdle);
    let is_idle = matches!(phase, Phase::KeepAliveIdle);
    if was_idle && !is_idle {
        metrics.keepalive_idle.fetch_sub(1, Ordering::Relaxed);
    } else if !was_idle && is_idle {
        metrics.keepalive_idle.fetch_add(1, Ordering::Relaxed);
    }
    conn.phase = phase;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn raise_fd_limit_is_idempotent_and_nonzero() {
        let first = raise_fd_limit().expect("raise");
        let second = raise_fd_limit().expect("raise again");
        assert!(first > 0);
        assert_eq!(first, second, "already at the hard limit");
    }

    #[test]
    fn wake_pipe_wakes_epoll_and_drains() {
        let mut epoll = Epoll::new().expect("epoll");
        let wake = WakeHandle::new().expect("pipe");
        epoll
            .add(wake.as_raw_fd(), TOKEN_WAKE, true, false)
            .expect("register");
        let mut events = Vec::new();
        let mut wait = |epoll: &mut Epoll, timeout| {
            epoll.wait(&mut events, Some(timeout)).expect("wait");
            events.clone()
        };
        // Nothing pending: a short wait times out empty.
        assert!(wait(&mut epoll, Duration::from_millis(10)).is_empty());
        // One wake, and many: each time epoll reports the read end readable
        // once, and one drain clears it.
        for wakes in [1, 300] {
            for _ in 0..wakes {
                wake.wake();
            }
            let got = wait(&mut epoll, Duration::from_secs(5));
            assert_eq!(got.len(), 1, "{wakes} wakes");
            assert_eq!(got[0].0, TOKEN_WAKE);
            assert_ne!(got[0].1 & sys::EPOLLIN, 0);
            wake.drain();
            // Drained: readiness is gone (level-triggered would re-report).
            let after = wait(&mut epoll, Duration::from_millis(10));
            assert!(after.is_empty(), "{wakes} wakes took more than one drain");
        }
    }

    #[test]
    fn pushes_before_a_take_leave_one_wake() {
        let wake = WakeHandle::new().expect("pipe");
        let queue = Mutex::new(Vec::new());
        // The bytes in the pipe, plus one marker so the read never blocks.
        let pending = || {
            wake.wake();
            (&wake.reader).read(&mut [0u8; 512]).expect("read") - 1
        };
        for k in [1, 5, 300] {
            for item in 0..k {
                wake.push(&queue, item);
            }
            // One byte for the push onto the empty queue, none after it.
            assert_eq!(pending(), 1, "{k} pushes");
            let taken = std::mem::take(&mut *queue.lock().unwrap());
            assert_eq!(taken, (0..k).collect::<Vec<_>>());
        }
        assert_eq!(pending(), 0);
    }

    #[test]
    fn epoll_reports_socket_readability_with_token() {
        let mut epoll = Epoll::new().expect("epoll");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(server_side.as_raw_fd(), 42, true, false)
            .expect("register");
        let mut events = Vec::new();
        client.write_all(b"ping").expect("write");
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events
            .iter()
            .any(|&(token, mask)| { token == 42 && mask & sys::EPOLLIN != 0 }));
        let mut buf = [0u8; 8];
        let n = (&server_side).read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
        // Write interest on a fresh socket reports writable immediately.
        epoll
            .modify(server_side.as_raw_fd(), 42, true, true)
            .expect("modify");
        epoll
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events
            .iter()
            .any(|&(token, mask)| token == 42 && mask & sys::EPOLLOUT != 0));
    }
}
