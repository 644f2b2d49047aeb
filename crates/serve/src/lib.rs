//! `tps-serve` — the resident two-phase selection service.
//!
//! The paper's offline phase exists so the online phase is cheap per
//! request; this crate finally amortises it. A [`Server`] loads a `World`
//! and its `OfflineArtifacts` **once** and then answers online selections
//! over a line-delimited JSON protocol on a loopback `TcpListener`
//! (std-only networking — no new dependencies). The moving parts, each in
//! its own module:
//!
//! * [`queue`] — bounded admission: beyond `queue_depth + max_inflight`
//!   outstanding requests the server answers `overloaded` immediately,
//!   never queueing unboundedly.
//! * [`cache`] — LRU result cache keyed by the canonical request
//!   [`protocol::fingerprint`]; a hit replays the stored payload
//!   byte-identically. A single-flight gate collapses concurrent
//!   identical requests into one execution.
//! * [`protocol`] — the wire format: requests, hand-assembled response
//!   envelopes (so cached bytes survive verbatim), and the fingerprint.
//! * [`server`] — one blocking reader and one writer thread per
//!   connection, the worker pool (run through `tps_core::parallel`),
//!   per-request deadlines and epoch budgets (evaluated by the budget
//!   engine, surfaced as response violations), and graceful drain: on
//!   `shutdown`/SIGTERM every admitted request is still answered, then
//!   one aggregate `TraceReport` is flushed with per-request sub-traces
//!   under `serve.request` root spans.
//! * [`client`] — a minimal blocking line client for the CLI and tests,
//!   plus [`client::RetryClient`], which reconnects and resends on
//!   connection faults (safe because selection is deterministic and
//!   cached: a retried request is answered byte-identically).
//! * [`netfault`] — deterministic connection-fault injection
//!   ([`NetFaultPlan`], mirroring `tps_core::fault::FaultPlan`): the
//!   n-th response line can be severed, half-written, garbled, or
//!   stalled. An empty plan is byte-transparent.
//! * [`accesslog`] — a structured JSONL access log written off the
//!   critical path by a bounded writer thread; a full channel drops the
//!   record (counted, `serve.access_log_dropped`) instead of blocking a
//!   worker.
//! * [`window`] — tick-advanced rolling latency histograms feeding live
//!   p50/p95/p99 and the `serve.slo_violations` burn counter; together
//!   with the `{"op":"metrics"}` OpenMetrics scrape they make the server
//!   observable without draining it.
//!
//! Determinism contract: for a fixed set of select requests (and cache
//! capacity at least the number of distinct fingerprints), responses,
//! `executed`, and `cache_hits` are identical at any `max_inflight` — and
//! each response is bit-identical to a one-shot `two_phase_select` of the
//! same request. The live metrics scrape inherits the same contract for
//! its counter lines; wall-clock histograms and occupancy gauges are
//! explicitly outside it.

pub mod accesslog;
pub mod cache;
pub mod client;
pub mod netfault;
pub mod protocol;
pub mod queue;
mod server;
pub mod window;

pub use accesslog::{AccessLog, AccessLogCounters, AccessRecord};
pub use client::{Client, RetryClient, RetryPolicy};
pub use netfault::{NetFaultKind, NetFaultPlan, NetFaultSite, NetFaultSpec};
pub use protocol::{Request, SelectionResult};
pub use server::{
    install_signal_drain, GenerationState, ReloadSource, ServeConfig, ServeStats, ServeSummary,
    Server,
};
pub use window::{RollingWindow, WindowPercentiles};
