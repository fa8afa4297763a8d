//! `uu-server`: a long-running estimation server over the shared catalog.
//!
//! The paper's workflow (Chung et al., SIGMOD 2016) is interactive: an
//! analyst repeatedly issues aggregate queries against an integrated dataset
//! and reads unknown-unknowns-corrected answers back. This crate is that
//! deployment shape — one resident process owning a [`uu_query::Catalog`]
//! behind a **transport-agnostic service layer**, with two wire fronts over
//! the same dispatch (std-only; the build is offline).
//!
//! * [`service`] — the server core: [`service::Service`] (catalog, limits,
//!   counters, named sessions, prepared queries) and
//!   [`service::Service::dispatch`], a total `Request → Response` function
//!   with no socket types anywhere. Every front routes through it.
//! * [`protocol`] — the typed request/response structs and their wire
//!   encoding, shared by server, client, tests and benches.
//! * [`server`] — the transport layer: listener setup, the reactor thread,
//!   and the worker pool (one worker per core by default; no
//!   per-connection spawn) that runs dispatches for complete frames only.
//! * [`reactor`] — the readiness-driven I/O core: one thread owns every
//!   socket in non-blocking mode (epoll on Linux, poll fallback), assembles
//!   frames incrementally in per-connection buffers, and applies write
//!   backpressure, so 10k mostly-idle connections cost no worker threads.
//! * [`pgwire`] — the pgwire-lite front: hand-rolled PostgreSQL wire
//!   messages (startup/auth-ok, simple query, error responses) over the same
//!   service, plus the raw-socket driver the tests and CI use instead of
//!   `psql`.
//! * [`client`] — a blocking client for the JSON protocol.
//! * [`json`] — the minimal JSON substrate with exact `f64` round-trips.
//! * `metrics` — the `--metrics-port` scraper front: a tiny HTTP/1.0
//!   responder serving the Prometheus text exposition rendered by the
//!   service (per-verb/stage latency histograms plus connection gauges).
//!
//! # Quick start
//!
//! ```
//! use uu_server::server::{spawn, ServerConfig};
//! use uu_server::Client;
//!
//! let handle = spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.ping().unwrap();
//! client.shutdown().unwrap();
//! handle.join();
//! ```

// `deny` (not `forbid`) so the one FFI module behind the reactor's
// readiness syscalls can opt in with a scoped `allow`; everything else in
// the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
mod metrics;
pub mod pgwire;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use server::{spawn, spawn_with_catalog, ServerConfig, ServerHandle};
pub use service::{Service, SessionCtx};
