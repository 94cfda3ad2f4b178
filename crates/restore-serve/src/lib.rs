//! # restore-serve — the network serving front-end
//!
//! Turns a set of [`Snapshot`](restore_core::Snapshot)s — sealed builds —
//! into a deployable service: a `std`-only TCP/HTTP 1.1 server (hand-rolled
//! incremental request parsing, no external dependencies) over a
//! hot-swappable, multi-tenant [`SnapshotRegistry`](restore_core::SnapshotRegistry).
//! One epoll reactor thread (`reactor`) owns every socket and holds tens
//! of thousands of idle keep-alive connections; request execution runs on
//! a small worker pool behind an admission gate.
//!
//! ```no_run
//! use std::sync::Arc;
//! use restore_core::SnapshotRegistry;
//! use restore_serve::{ServeConfig, Server};
//!
//! let registry = Arc::new(SnapshotRegistry::new());
//! // registry.publish("housing", Arc::new(restore.seal(7)));
//! let server = Server::bind("127.0.0.1:8080", Arc::clone(&registry), ServeConfig::default())?;
//! println!("serving on {}", server.local_addr());
//! // … later: registry.publish("housing", v2)  — hot swap, zero downtime
//! server.shutdown();                           // graceful drain
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## API
//!
//! Execute an AQP query (optionally with a §6 confidence interval) against
//! tenant `housing`:
//!
//! ```text
//! curl -s localhost:8080/v1/housing/query -d '{
//!   "tables": ["neighborhood", "apartment"],
//!   "filter": {"cmp": ["ge", {"col": "rent"}, {"lit": 2000}]},
//!   "group_by": ["state"],
//!   "aggregates": [{"fn": "avg", "col": "rent"}],
//!   "seed": 7,
//!   "confidence": {"kind": "avg", "table": "apartment",
//!                  "column": "rent", "level": 0.95}
//! }'
//! # → {"group_cols":1,"columns":["state","avg_rent"],"rows":[["CA",2066.66…]],
//! #    "scalar":null,"confidence":{"lo":…,"hi":…,"estimate":…,"theoretical":null}}
//! ```
//!
//! Fetch a completed table (all real rows + reweighted synthesized rows):
//!
//! ```text
//! curl -s 'localhost:8080/v1/housing/tables/apartment?seed=1'
//! # → {"name":"apartment","n_rows":1234,"columns":[{"name":"id","dtype":"INT"},…],
//! #    "rows":[[1,…],…]}
//! ```
//!
//! Liveness and counters:
//!
//! ```text
//! curl -s localhost:8080/healthz   # {"status":"ok","tenants":["housing"]}
//! curl -s localhost:8080/metrics   # cache hits/misses, in-flight, per-tenant q/s
//! ```
//!
//! ## Guarantees
//!
//! * **Bit-stable responses** — a response body is a pure function of
//!   `(snapshot, request body)`: execution inherits the snapshot's
//!   determinism contract and the wire encoding renders floats with
//!   shortest-round-trip precision (`tests/http_serving.rs` pins HTTP
//!   bodies byte-identical to direct [`Snapshot::execute`](restore_core::Snapshot::execute)).
//! * **Hot swap without downtime** — `publish(tenant, v2)` swaps the
//!   registry atomically; in-flight requests finish on v1 under their own
//!   `Arc`, new requests see v2, and no request ever observes a torn
//!   registry.
//! * **Panic containment** — a panicking handler answers 500 on its own
//!   connection and leaves every other connection serving; a request
//!   waiting on a cache flight whose leader panicked runs the synthesis
//!   itself.
//! * **Graceful shutdown** — a stop flag and an eventfd wake pop the
//!   reactor out of `epoll_wait`, the listener and idle keep-alive sockets
//!   close immediately, and in-flight responses ride through the drain;
//!   the reactor thread exits once its last connection closes, which is
//!   what [`Server::shutdown`] waits for.
//! * **Bounded overload** — an admission gate
//!   ([`ServeConfig::max_in_flight`]) and a per-tenant token bucket
//!   ([`ServeConfig::rate_limit`]) shed excess load with 429 +
//!   `Retry-After` instead of queueing without bound; per-request deadline
//!   budgets answer 503 with stage detail instead of holding connections;
//!   every response carries an accept-order `X-Request-Id` that `/metrics`
//!   threads into the per-tenant error counters. See the "Resilience
//!   plane" section of `ARCHITECTURE.md`.
//! * **Deterministic chaos** — a seeded [`FaultPlan`]
//!   ([`ServeConfig::fault`]) injects delays, read/write errors, torn
//!   responses, and handler panics as a pure function of `(seed, fault
//!   key)`, so the chaos soak in `tests/resilience.rs` reproduces
//!   bit-identically across runs and worker counts.
//!
//! ## Fleet mode
//!
//! One process is one core budget. The [`router`] module scales out
//! horizontally: a router — the same `Server`, in fleet mode — maps each
//! tenant to one of N worker processes by stable FNV-1a hash and forwards
//! from its reactor over keep-alive upstream sockets, with health probes
//! and snapshot-directory re-exec failover. Status and body bytes are a
//! direct worker connection's. The `shard_router` binary runs a router and
//! its workers from one snapshot directory (its doc lists the flags);
//! in-process it is three calls: [`router::Fleet::start`] with a
//! [`router::FleetConfig`], the `Arc<Fleet>` in [`ServeConfig::fleet`], and
//! `Server::bind` as usual. The "Fleet path" section of `ARCHITECTURE.md`
//! has the routes (`/fleet/{i}/metrics`) and the failover rules.

#![warn(unreachable_pub)]

mod client;
mod fault;
pub mod http;
mod reactor;
pub mod router;
mod server;
mod store;

pub use client::{ClientConfig, HttpClient, HttpResponse};
pub use fault::{FaultAction, FaultConfig, FaultPlan};
pub use reactor::raise_fd_limit;
pub use server::{ServeConfig, Server};
pub use store::SnapshotStore;
