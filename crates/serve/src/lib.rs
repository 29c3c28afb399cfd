//! The batch evaluation server.
//!
//! `monityre-serve` turns the evaluation stack — [`monityre_core`]'s
//! `Scenario` + `EvalCache` + `SweepExecutor` — into a long-running TCP
//! service speaking a line-delimited JSON protocol (one request per line,
//! one response per line, see [`protocol`]). The paper's tools answer
//! questions like "where is the break-even under these conditions?"; this
//! crate lets a fleet of clients batch such questions against one warm
//! process instead of paying a cold start per evaluation.
//!
//! Design pillars (each pinned by a test):
//!
//! * **Bit-identity** — a served result is byte-identical to the same
//!   evaluation serialized in-process: both sides build the same payload
//!   types and serialize through the same `serde_json`.
//! * **Backpressure, not buffering** — each connection handler evaluates
//!   its own request once an admission gate grants it one of
//!   [`ServerConfig::workers`] permits; at most
//!   [`ServerConfig::queue_capacity`] handlers wait for one, and beyond
//!   that the request is shed immediately with a structured `queue_full`
//!   error, never blocked indefinitely or dropped silently.
//! * **Deadlines** — each request may carry `deadline_ms`; expiry is
//!   honoured while waiting for admission *and* mid-sweep, via the
//!   cooperative cancellation hook on `SweepExecutor::map_cancellable`.
//! * **Graceful shutdown** — a `shutdown` op (or [`ServerHandle::shutdown`])
//!   stops the acceptor, admits and answers every waiting and in-flight
//!   job, and joins all threads.
//! * **Fault tolerance, proven by injection** — the server compiles in
//!   inert fault hooks (armed via [`ServerConfig`] or the
//!   `MONITYRE_FAULTS` env var, see [`monityre_faults`]); the
//!   [`RetryingClient`] retries with backoff and idempotency keys so a
//!   chaos run returns the same bytes a fault-free run would, which
//!   `tests/chaos.rs` pins.
//! * **Continuous self-observation** — a background scrape loop samples
//!   every registry metric into fixed-memory time-series rings (the
//!   `series` op), an SLO engine turns them into a multi-window
//!   burn-rate readiness answer (the `health` op), and a wall-clock
//!   sampler attributes time across phases (the `profile` op).
//!
//! ```no_run
//! use monityre_serve::{Client, Op, Request, ServerConfig};
//!
//! let handle = ServerConfig::default().start().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let response = client.request(&Request::new(Op::Breakeven)).unwrap();
//! assert!(response.is_ok());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod client;
mod dedup;
pub mod protocol;
pub mod server;
pub mod stats;
mod worker;

pub use client::{Client, ClientError, RetryPolicy, RetryingClient, DEFAULT_IO_TIMEOUT};
pub use monityre_ingest::{ReplayReport, TelemetryPoint, VehicleWindow};
pub use monityre_obs::{
    FlameRow, FlameTable, HealthReport, ObjectiveHealth, SeriesPoint, SeriesSlice, SloKind,
    SloSpec, TraceContext,
};
pub use protocol::{
    decode_request_line, decode_response_line, ErrorCode, Op, Params, Payload, ProtocolError,
    Request, Response, ScenarioSpec, WireError, MAX_INGEST_POINTS, MAX_LINE_BYTES,
};
pub use server::{ServerConfig, ServerHandle};
pub use stats::{CacheCounts, OpLatency, StatsSnapshot};
pub use worker::evaluate;
