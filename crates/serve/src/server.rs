//! The resident selection server.
//!
//! [`Server::run`] owns three groups of scoped threads:
//!
//! * **Accept loop** (run inline). It polls the nonblocking listener,
//!   sleeping 2 ms when nothing is pending, and checks the drain and
//!   reload signals between polls. No request waits on that sleep: it
//!   only delays the start of a new connection.
//! * **One reader and one writer thread per connection.** The reader
//!   blocks in `read`, so a request line is parsed and admitted as soon
//!   as its bytes arrive. A 50 ms read timeout lets it notice a drain and
//!   enforce the slow-loris deadline on a partial line. Control ops run
//!   on the reader thread of the connection that sent them, `reload`
//!   included, so a reload stalls only that connection's later lines.
//!   The writer owns the socket's write half, so a slow peer blocks only
//!   its own replies. Both threads are panic-isolated: a poisoned
//!   connection costs one `serve.conn_errors`, never the server.
//! * **Worker pool** of `max_inflight` selection workers driven through
//!   `tps_core::parallel::map_indexed` — the same layer the pipeline
//!   uses, so the service's concurrency shares one deterministic thread
//!   budget.
//!
//! Requests flow reader → bounded queue → worker → writer; every admitted
//! request is answered exactly once, including through a drain.
//!
//! The server is observable while live, not just at drain: the
//! `{"op":"metrics"}` control op renders an OpenMetrics snapshot of the
//! registry mid-flight (deterministic counters byte-stable for a fixed
//! request history at any `max_inflight`, wall-clock and occupancy
//! exposed as histograms/gauges), an optional JSONL access log records
//! every admitted request off the critical path, and a rolling latency
//! window feeds live percentiles plus an SLO burn counter.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tps_core::fault::{self, FaultPlan};
use tps_core::parallel::ParallelConfig;
use tps_core::pipeline::{two_phase_select_traced, OfflineArtifacts, PipelineConfig};
use tps_core::recall::RecallConfig;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::telemetry::{budget, Telemetry, TraceReport};
use tps_zoo::{World, ZooOracle, ZooTrainer};

use crate::accesslog::{AccessLog, AccessRecord};
use crate::cache::{CacheEntry, ResultCache};
use crate::netfault::{NetFaultKind, NetFaultPlan, NetFaultSite};
use crate::protocol::{self, Request, SelectionResult};
use crate::queue::{Admission, BoundedQueue};
use crate::window::{RollingWindow, WindowPercentiles, LATENCY_METRIC, SLOT_MS, WINDOW_SLOTS};
use std::collections::BTreeMap;

/// Process-wide drain flag set by the SIGTERM/SIGINT handler.
static SIGNALLED: AtomicBool = AtomicBool::new(false);
/// Process-wide reload flag set by the SIGHUP handler; the accept loop
/// polls it and performs a generation hot-swap (like a reload request).
static RELOAD_SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Install a SIGTERM/SIGINT handler that asks the running [`Server`] to
/// drain gracefully (finish queued work, flush the aggregate trace, exit
/// 0) instead of dying mid-request, plus a SIGHUP handler that requests a
/// generation reload. Std-only: the handlers just store atomic flags the
/// accept loop polls.
#[cfg(unix)]
pub fn install_signal_drain() {
    unsafe extern "C" fn mark(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    unsafe extern "C" fn mark_reload(_sig: i32) {
        RELOAD_SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler: unsafe extern "C" fn(i32) = mark;
    let reload_handler: unsafe extern "C" fn(i32) = mark_reload;
    #[allow(clippy::fn_to_numeric_cast)]
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
        signal(SIGHUP, reload_handler as usize);
    }
}

#[cfg(not(unix))]
pub fn install_signal_drain() {}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Selection workers — requests executing concurrently.
    pub max_inflight: usize,
    /// Waiting line on top of `max_inflight`; occupancy beyond
    /// `queue_depth + max_inflight` is rejected as `overloaded`.
    pub queue_depth: usize,
    /// Result-cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Threads per selection for the pipeline's internal fan-out.
    pub threads: usize,
    /// Default recall size `K` when a request does not specify one.
    pub top_k: usize,
    /// Default fine-selection threshold.
    pub threshold: f64,
    /// Default stage count (`None` → the world's stage count).
    pub stages: Option<usize>,
    /// ANN exactness knob applied to every request's coarse recall
    /// (server-global, so it does not participate in result fingerprints).
    pub ann: tps_core::ann::AnnConfig,
    /// JSONL access-log path (`None` disables logging). Written by a
    /// bounded background thread — a slow disk drops records (counted in
    /// `serve.access_log_dropped`), it never blocks admission.
    pub access_log: Option<String>,
    /// Latency objective in milliseconds: each answered request slower
    /// than this burns one `serve.slo_violations`. `None` disables the
    /// counter's accrual (it stays 0).
    pub slo_ms: Option<u64>,
    /// Longest request line accepted (bytes, newline excluded). Longer
    /// lines get a structured `malformed` error and the connection is
    /// closed instead of buffering without bound.
    pub max_line_bytes: usize,
    /// Slow-loris defense: a connection holding a *partial* request line
    /// longer than this is counted in `serve.conn_errors` and closed.
    /// Idle connections with an empty buffer are unaffected, so
    /// keep-alive clients (`tps top`) can sit between requests forever.
    /// `None` disables the timeout.
    pub stall_timeout_ms: Option<u64>,
    /// Deterministic response-path fault schedule (chaos testing). The
    /// default empty plan is byte-transparent.
    pub net_faults: Arc<NetFaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 2,
            queue_depth: 16,
            cache_capacity: 64,
            threads: 1,
            top_k: 10,
            threshold: 0.0,
            stages: None,
            ann: tps_core::ann::AnnConfig::default(),
            access_log: None,
            slo_ms: None,
            max_line_bytes: 1 << 20,
            stall_timeout_ms: Some(30_000),
            net_faults: Arc::new(NetFaultPlan::empty()),
        }
    }
}

/// Deterministic request accounting. Every select request lands in exactly
/// one of the six outcome buckets, so
/// `requests == executed + cache_hits + rejected + drain_rejected +
/// deadline_rejected + errors` always holds (control ops are not counted).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Select requests received (control ops excluded).
    pub requests: u64,
    /// Selections actually run.
    pub executed: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests rejected `overloaded` at admission.
    pub rejected: u64,
    /// Requests rejected because the server was draining.
    pub drain_rejected: u64,
    /// Requests whose deadline expired before execution started.
    pub deadline_rejected: u64,
    /// Malformed requests and failed selections.
    pub errors: u64,
    /// Completed selections that overran their deadline (still answered).
    pub deadline_violations: u64,
    /// Completed selections that overran their epoch budget (still
    /// answered).
    pub budget_violations: u64,
    /// Highest queue occupancy (`waiting + inflight`) observed.
    pub queue_peak: u64,
    /// Admission capacity (`queue_depth + max_inflight`).
    pub queue_capacity: u64,
    /// Epoch-equivalents spent by executed selections (cache hits are
    /// free — that is the point of the cache).
    pub total_epochs: f64,
    /// Retry-backoff epoch share of `total_epochs`.
    pub retry_epochs: f64,
    /// Successful generation hot-swaps (reload requests + SIGHUP).
    #[serde(default)]
    pub reloads: u64,
    /// Current artifact generation (1-based; `reloads + 1` always).
    #[serde(default)]
    pub generation: u64,
    /// Answered requests slower than the configured `--slo-ms` objective
    /// (always 0 when no objective is set).
    #[serde(default)]
    pub slo_violations: u64,
    /// Access-log records submitted by workers.
    #[serde(default)]
    pub access_log_records: u64,
    /// Access-log lines flushed by the writer thread.
    #[serde(default)]
    pub access_log_written: u64,
    /// Access-log records dropped because the bounded channel was full.
    #[serde(default)]
    pub access_log_dropped: u64,
    /// Point-in-time: requests waiting in the queue (refreshed on the
    /// stats op and at drain, not cumulative).
    #[serde(default)]
    pub queue_waiting: u64,
    /// Point-in-time: requests currently executing.
    #[serde(default)]
    pub queue_inflight: u64,
    /// Point-in-time: entries resident in the result cache.
    #[serde(default)]
    pub cache_entries: u64,
    /// Lines that never became a request: unparseable JSON or an
    /// over-length request line. Counted outside the admission identity —
    /// `requests` only counts parsed select requests.
    #[serde(default)]
    pub malformed: u64,
    /// Connections that ended abnormally: EOF mid-line, over-length
    /// close, stalled partial request, reader/worker panic, or an
    /// injected response fault.
    #[serde(default)]
    pub conn_errors: u64,
}

/// What a drained server hands back: final stats plus one aggregate
/// [`TraceReport`] with every executed request nested under a
/// `serve.request` root span.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counter snapshot.
    pub stats: ServeStats,
    /// Aggregate trace (budget-checkable via `tps trace check`).
    pub trace: TraceReport,
    /// Trailing-window latency percentiles at drain time.
    pub window: WindowPercentiles,
}

/// One immutable artifact snapshot a server answers requests from.
/// Requests pin the `Arc` at admission, so a hot-swap never changes the
/// artifacts under an in-flight selection — old-generation requests
/// finish (and are answered) on the old artifacts.
pub struct GenerationState {
    /// Swap epoch: 1 for the artifacts the server was bound with, +1 per
    /// successful reload. (A server loading from a versioned store will
    /// typically note the store generation id in logs; the fingerprint
    /// uses this monotonic epoch, which also covers non-store reloads.)
    pub generation: u64,
    /// The world answering this generation's requests.
    pub world: World,
    /// The offline artifacts answering this generation's requests.
    pub artifacts: OfflineArtifacts,
}

/// Produces the next `(world, artifacts)` pair for a hot-swap.
pub type ReloadSource = Box<dyn Fn() -> Result<(World, OfflineArtifacts), String> + Send + Sync>;

/// One admitted selection request.
struct Job {
    id: u64,
    target: usize,
    /// The generation pinned at admission; execution uses it even if a
    /// swap lands while the job waits in the queue.
    gen: Arc<GenerationState>,
    config: PipelineConfig,
    plan: Option<FaultPlan>,
    fingerprint: String,
    deadline_ms: Option<u64>,
    max_epochs: Option<f64>,
    hold_ms: u64,
    accepted: Instant,
    reply: mpsc::Sender<String>,
}

/// State shared between the accept loop, readers, and workers.
struct Shared {
    queue: BoundedQueue<Job>,
    cache: Mutex<ResultCache>,
    /// Fingerprints currently executing — the single-flight set. Lock
    /// order: `flight` before `cache`, always.
    flight: Mutex<HashSet<String>>,
    flight_done: Condvar,
    stats: Mutex<ServeStats>,
    records: Mutex<Vec<(String, u64, TraceReport)>>,
    /// Rolling latency window feeding live percentiles and SLO burn.
    window: Mutex<RollingWindow>,
    /// Optional JSONL access log (bounded, never blocks workers).
    access: Option<AccessLog>,
}

enum Lookup {
    Hit {
        entry: CacheEntry,
        /// Whether the hit waited on a single-flight leader (`"flight"`
        /// in the access log) or was served straight from the cache.
        waited: bool,
    },
    Lead,
}

/// A bound, resident selection server over hot-swappable artifacts.
pub struct Server {
    /// The current generation; swapped atomically by `reload`.
    state: Mutex<Arc<GenerationState>>,
    /// Where `reload` gets the next generation from (absent → reload is
    /// answered with an error).
    reload_source: Option<ReloadSource>,
    config: ServeConfig,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Bind the listener over generation 1 of the given artifacts (cloned
    /// into the server's own swappable state).
    pub fn bind(
        world: &World,
        artifacts: &OfflineArtifacts,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            state: Mutex::new(Arc::new(GenerationState {
                generation: 1,
                world: world.clone(),
                artifacts: artifacts.clone(),
            })),
            reload_source: None,
            config,
            listener,
            addr,
        })
    }

    /// Attach a reload source enabling `{"op":"reload"}` and SIGHUP
    /// hot-swaps.
    pub fn with_reload_source(mut self, source: ReloadSource) -> Self {
        self.reload_source = Some(source);
        self
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pin the current generation.
    fn current(&self) -> Arc<GenerationState> {
        self.state.lock().unwrap().clone()
    }

    /// Load the next generation from the reload source and swap it in.
    /// In-flight and queued jobs keep the `Arc` they pinned at admission;
    /// only requests admitted after the swap see the new generation. The
    /// result cache needs no explicit flush — the generation is folded
    /// into every fingerprint, so old entries simply stop matching.
    fn reload(&self, sh: &Shared) -> Result<u64, String> {
        let source = self
            .reload_source
            .as_ref()
            .ok_or_else(|| "no reload source configured".to_string())?;
        let (world, artifacts) = source()?;
        let mut state = self.state.lock().unwrap();
        let generation = state.generation + 1;
        *state = Arc::new(GenerationState {
            generation,
            world,
            artifacts,
        });
        drop(state);
        let mut stats = sh.stats.lock().unwrap();
        stats.reloads += 1;
        stats.generation = generation;
        Ok(generation)
    }

    /// Serve until a `shutdown` request or SIGTERM/SIGINT, then drain:
    /// queued and in-flight selections finish and are answered, the
    /// aggregate trace is assembled, and the summary is returned.
    pub fn run(&self) -> std::io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let workers = self.config.max_inflight.max(1);
        let access = match &self.config.access_log {
            Some(path) => Some(AccessLog::create(path)?),
            None => None,
        };
        let shared = Shared {
            queue: BoundedQueue::new(self.config.queue_depth, workers),
            cache: Mutex::new(ResultCache::new(self.config.cache_capacity)),
            flight: Mutex::new(HashSet::new()),
            flight_done: Condvar::new(),
            stats: Mutex::new(ServeStats {
                queue_capacity: (self.config.queue_depth + workers) as u64,
                generation: self.current().generation,
                ..ServeStats::default()
            }),
            records: Mutex::new(Vec::new()),
            window: Mutex::new(RollingWindow::new(WINDOW_SLOTS, SLOT_MS)),
            access,
        };
        let pool: Vec<usize> = (0..workers).collect();
        crossbeam::thread::scope(|s| {
            let sh = &shared;
            s.spawn(move || {
                tps_core::parallel::map_indexed(&pool, workers, |_, _| self.worker(sh));
            });
            loop {
                if SIGNALLED.load(Ordering::SeqCst) {
                    shared.queue.drain();
                }
                if RELOAD_SIGNALLED.swap(false, Ordering::SeqCst) {
                    // SIGHUP: best-effort swap; a missing source or failed
                    // load keeps serving the current generation.
                    let _ = self.reload(sh);
                }
                if shared.queue.draining() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let (tx, rx) = mpsc::channel::<String>();
                        if let Ok(write_half) = stream.try_clone() {
                            let faults = Arc::clone(&self.config.net_faults);
                            // Both halves are panic-isolated: a connection
                            // dying — however badly — must never take the
                            // accept loop (or the scope) down with it.
                            s.spawn(move || {
                                let body = std::panic::AssertUnwindSafe(|| {
                                    writer_loop(sh, &faults, write_half, rx)
                                });
                                if catch_panic(body).is_err() {
                                    bump_conn_errors(sh);
                                }
                            });
                            s.spawn(move || {
                                let body = std::panic::AssertUnwindSafe(|| {
                                    self.reader_loop(sh, stream, tx)
                                });
                                if catch_panic(body).is_err() {
                                    bump_conn_errors(sh);
                                }
                            });
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        })
        .expect("server threads do not panic");
        Ok(self.summarize(shared))
    }

    fn summarize(&self, shared: Shared) -> ServeSummary {
        let mut stats = shared.stats.into_inner().unwrap();
        stats.queue_peak = shared.queue.peak() as u64;
        stats.generation = self.current().generation;
        let (waiting, inflight) = shared.queue.occupancy();
        stats.queue_waiting = waiting as u64;
        stats.queue_inflight = inflight as u64;
        stats.cache_entries = shared.cache.into_inner().unwrap().len() as u64;
        if let Some(access) = shared.access {
            // Joining the writer thread closes the accounting exactly:
            // records == written + dropped from here on.
            let counters = access.close();
            stats.access_log_records = counters.records;
            stats.access_log_written = counters.written;
            stats.access_log_dropped = counters.dropped;
        }
        let records = shared.records.into_inner().unwrap();
        let mut trace = aggregate_records(records);
        for (name, value) in self.deterministic_counters(&stats) {
            trace.counters.insert(name, value);
        }
        // The drain trace additionally records peak occupancy, capacity,
        // and worker count as counters — the overload budget rules read
        // them. The live metrics op exposes these as gauges instead, so
        // its counter lines stay byte-stable across `max_inflight`.
        trace
            .counters
            .insert("serve.queue_depth".to_string(), stats.queue_peak as f64);
        trace.counters.insert(
            "serve.queue_capacity".to_string(),
            stats.queue_capacity as f64,
        );
        trace.counters.insert(
            "serve.workers".to_string(),
            self.config.max_inflight.max(1) as f64,
        );
        let mut window = shared.window.into_inner().unwrap();
        let percentiles = window.percentiles();
        trace
            .histograms
            .insert(LATENCY_METRIC.to_string(), window.snapshot());
        ServeSummary {
            stats,
            trace,
            window: percentiles,
        }
    }

    /// The serve counters that are byte-stable for a fixed request
    /// history at any `max_inflight` — shared between the drain trace and
    /// the live metrics op. Access-log counters appear only when the log
    /// is configured, mirroring the "absent counter ⇒ budget rule skips"
    /// convention.
    fn deterministic_counters(&self, stats: &ServeStats) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = [
            ("serve.requests", stats.requests as f64),
            ("serve.executed", stats.executed as f64),
            ("serve.cache_hits", stats.cache_hits as f64),
            ("serve.rejected", stats.rejected as f64),
            ("serve.drain_rejected", stats.drain_rejected as f64),
            ("serve.deadline_rejected", stats.deadline_rejected as f64),
            ("serve.errors", stats.errors as f64),
            (
                "serve.deadline_violations",
                stats.deadline_violations as f64,
            ),
            ("serve.budget_violations", stats.budget_violations as f64),
            ("serve.total_epochs", stats.total_epochs),
            ("serve.retry_epochs", stats.retry_epochs),
            ("serve.reloads", stats.reloads as f64),
            ("serve.generation", stats.generation as f64),
            ("serve.slo_violations", stats.slo_violations as f64),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        if self.config.access_log.is_some() {
            out.push((
                "serve.access_log_records".to_string(),
                stats.access_log_records as f64,
            ));
            out.push((
                "serve.access_log_written".to_string(),
                stats.access_log_written as f64,
            ));
            out.push((
                "serve.access_log_dropped".to_string(),
                stats.access_log_dropped as f64,
            ));
        }
        // Chaos counters appear only once something abnormal happened, so
        // a fault-free run's trace and scrape stay byte-identical to a
        // build without the chaos layer.
        if stats.malformed > 0 {
            out.push(("serve.malformed".to_string(), stats.malformed as f64));
        }
        if stats.conn_errors > 0 {
            out.push(("serve.conn_errors".to_string(), stats.conn_errors as f64));
        }
        out
    }

    /// Render a live OpenMetrics snapshot for the `{"op":"metrics"}`
    /// control op — no drain required. Deterministic counters come from
    /// the same fingerprint-sorted aggregation as the drain trace, so for
    /// a fixed request history the counter lines are byte-identical at
    /// any `max_inflight`; wall-clock histograms and point-in-time values
    /// (occupancy, window percentiles, config echoes) ride along as
    /// histograms and gauges, outside the determinism contract.
    fn render_metrics(&self, sh: &Shared) -> String {
        let records = sh.records.lock().unwrap().clone();
        let mut trace = aggregate_records(records);
        let stats = self.stats_snapshot(sh);
        for (name, value) in self.deterministic_counters(&stats) {
            trace.counters.insert(name, value);
        }
        let (percentiles, latency) = {
            let mut window = sh.window.lock().unwrap();
            (window.percentiles(), window.snapshot())
        };
        trace.histograms.insert(LATENCY_METRIC.to_string(), latency);
        let mut gauges = BTreeMap::new();
        gauges.insert(
            "serve.queue_waiting".to_string(),
            stats.queue_waiting as f64,
        );
        gauges.insert(
            "serve.queue_inflight".to_string(),
            stats.queue_inflight as f64,
        );
        gauges.insert(
            "serve.queue_occupancy".to_string(),
            (stats.queue_waiting + stats.queue_inflight) as f64,
        );
        gauges.insert("serve.queue_peak".to_string(), stats.queue_peak as f64);
        gauges.insert(
            "serve.queue_capacity".to_string(),
            stats.queue_capacity as f64,
        );
        gauges.insert(
            "serve.workers".to_string(),
            self.config.max_inflight.max(1) as f64,
        );
        gauges.insert(
            "serve.cache_entries".to_string(),
            stats.cache_entries as f64,
        );
        gauges.insert("serve.window_count".to_string(), percentiles.count as f64);
        gauges.insert("serve.window_p50_us".to_string(), percentiles.p50_us as f64);
        gauges.insert("serve.window_p95_us".to_string(), percentiles.p95_us as f64);
        gauges.insert("serve.window_p99_us".to_string(), percentiles.p99_us as f64);
        tps_core::telemetry::openmetrics::render_with_gauges(&trace, &gauges)
    }

    /// One point-in-time stats snapshot: cumulative counters plus current
    /// queue occupancy, cache size, and access-log accounting.
    fn stats_snapshot(&self, sh: &Shared) -> ServeStats {
        let (waiting, inflight) = sh.queue.occupancy();
        let cache_entries = sh.cache.lock().unwrap().len() as u64;
        let access = sh.access.as_ref().map(AccessLog::counters);
        let mut stats = sh.stats.lock().unwrap();
        stats.queue_peak = sh.queue.peak() as u64;
        stats.generation = self.current().generation;
        stats.queue_waiting = waiting as u64;
        stats.queue_inflight = inflight as u64;
        stats.cache_entries = cache_entries;
        if let Some(access) = access {
            stats.access_log_records = access.records;
            stats.access_log_written = access.written;
            stats.access_log_dropped = access.dropped;
        }
        stats.clone()
    }

    fn worker(&self, sh: &Shared) {
        while let Some(job) = sh.queue.pop() {
            // A panicking selection must not kill the worker pool; the
            // slot is released either way so the drain still completes.
            if catch_panic(std::panic::AssertUnwindSafe(|| self.process(sh, job))).is_err() {
                bump_conn_errors(sh);
            }
            sh.queue.done();
        }
    }

    fn process(&self, sh: &Shared, job: Job) {
        let queue_wait_us = job.accepted.elapsed().as_micros() as u64;
        let picked_up = Instant::now();
        if job.hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(job.hold_ms));
        }
        if let Some(deadline) = job.deadline_ms {
            if job.accepted.elapsed() >= Duration::from_millis(deadline) {
                sh.stats.lock().unwrap().deadline_rejected += 1;
                let _ = job.reply.send(protocol::error_envelope(
                    job.id,
                    "deadline_exceeded",
                    &format!("deadline of {deadline}ms expired before execution"),
                ));
                self.finish_request(
                    sh,
                    &job,
                    queue_wait_us,
                    picked_up,
                    "none",
                    "deadline_rejected",
                    "rejected",
                    0,
                    0.0,
                );
                return;
            }
        }
        let caching = sh.cache.lock().unwrap().enabled();
        let lookup = if caching {
            self.lookup_or_lead(sh, &job.fingerprint)
        } else {
            Lookup::Lead
        };
        let mut casualties = 0usize;
        let (entry, cache_kind) = match lookup {
            Lookup::Hit { entry, waited } => {
                sh.stats.lock().unwrap().cache_hits += 1;
                (entry, if waited { "flight" } else { "hit" })
            }
            Lookup::Lead => {
                let started = Instant::now();
                let executed = self.execute(&job);
                let elapsed_us = started.elapsed().as_micros() as u64;
                match executed {
                    Ok((entry, report)) => {
                        casualties = report.casualties.len();
                        self.finish_lead(sh, &job.fingerprint, caching, Some(&entry));
                        {
                            let mut stats = sh.stats.lock().unwrap();
                            stats.executed += 1;
                            stats.total_epochs += entry.total_epochs;
                            stats.retry_epochs += entry.retry_epochs;
                        }
                        sh.records.lock().unwrap().push((
                            job.fingerprint.clone(),
                            elapsed_us,
                            report,
                        ));
                        (entry, if caching { "miss" } else { "none" })
                    }
                    Err(err) => {
                        self.finish_lead(sh, &job.fingerprint, caching, None);
                        sh.stats.lock().unwrap().errors += 1;
                        let _ = job.reply.send(protocol::error_envelope(
                            job.id,
                            "error",
                            &err.to_string(),
                        ));
                        self.finish_request(
                            sh,
                            &job,
                            queue_wait_us,
                            picked_up,
                            if caching { "miss" } else { "none" },
                            "error",
                            "none",
                            0,
                            0.0,
                        );
                        return;
                    }
                }
            }
        };
        let mut violations = Vec::new();
        let mut deadline_outcome = "none";
        if let Some(deadline) = job.deadline_ms {
            let elapsed = job.accepted.elapsed();
            if elapsed > Duration::from_millis(deadline) {
                sh.stats.lock().unwrap().deadline_violations += 1;
                violations.push(format!(
                    "deadline: completed after {}ms, budget was {}ms",
                    elapsed.as_millis(),
                    deadline
                ));
                deadline_outcome = "violated";
            } else {
                deadline_outcome = "met";
            }
        }
        if let Some(max_epochs) = job.max_epochs {
            let overruns = epoch_budget_violations(entry.total_epochs, max_epochs);
            if !overruns.is_empty() {
                sh.stats.lock().unwrap().budget_violations += overruns.len() as u64;
                violations.extend(overruns);
            }
        }
        let _ = job.reply.send(protocol::ok_envelope(
            job.id,
            &entry.result_json,
            &violations,
            job.gen.generation,
        ));
        // Epochs are charged only when this request led the execution —
        // cache hits are free, which the access log makes visible.
        let epochs = if cache_kind == "hit" || cache_kind == "flight" {
            0.0
        } else {
            entry.total_epochs
        };
        self.finish_request(
            sh,
            &job,
            queue_wait_us,
            picked_up,
            cache_kind,
            "ok",
            deadline_outcome,
            casualties,
            epochs,
        );
    }

    /// Terminal bookkeeping for every admitted request, whatever its
    /// outcome: observe the rolling latency window, burn the SLO counter,
    /// and submit one access-log record (never blocking).
    #[allow(clippy::too_many_arguments)]
    fn finish_request(
        &self,
        sh: &Shared,
        job: &Job,
        queue_wait_us: u64,
        picked_up: Instant,
        cache: &'static str,
        status: &'static str,
        deadline: &'static str,
        casualties: usize,
        epochs: f64,
    ) {
        let total_us = job.accepted.elapsed().as_micros() as u64;
        let exec_us = picked_up.elapsed().as_micros() as u64;
        sh.window.lock().unwrap().observe_us(total_us);
        if let Some(slo_ms) = self.config.slo_ms {
            if total_us > slo_ms.saturating_mul(1_000) {
                sh.stats.lock().unwrap().slo_violations += 1;
            }
        }
        if let Some(access) = &sh.access {
            access.log(&AccessRecord {
                id: job.id,
                fingerprint: job.fingerprint.clone(),
                generation: job.gen.generation,
                queue_wait_us,
                exec_us,
                cache,
                status,
                deadline,
                casualties,
                epochs,
            });
        }
    }

    /// Single-flight gate: return a cached entry, or claim leadership for
    /// this fingerprint. Concurrent identical requests wait for the leader
    /// and then hit its cache entry, so `executed` counts distinct
    /// fingerprints — deterministically, at any `max_inflight`.
    fn lookup_or_lead(&self, sh: &Shared, fingerprint: &str) -> Lookup {
        let mut flight = sh.flight.lock().unwrap();
        let mut waited = false;
        loop {
            {
                let mut cache = sh.cache.lock().unwrap();
                if let Some(entry) = cache.get(fingerprint) {
                    return Lookup::Hit { entry, waited };
                }
                if !flight.contains(fingerprint) {
                    flight.insert(fingerprint.to_string());
                    return Lookup::Lead;
                }
            }
            waited = true;
            // Timeout only as lost-wakeup insurance; the loop re-checks.
            flight = sh
                .flight_done
                .wait_timeout(flight, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    /// Publish the leader's result (if any) and release the fingerprint,
    /// atomically with respect to `lookup_or_lead`.
    fn finish_lead(
        &self,
        sh: &Shared,
        fingerprint: &str,
        caching: bool,
        entry: Option<&CacheEntry>,
    ) {
        if !caching {
            return;
        }
        let mut flight = sh.flight.lock().unwrap();
        if let Some(entry) = entry {
            sh.cache
                .lock()
                .unwrap()
                .insert(fingerprint.to_string(), entry.clone());
        }
        flight.remove(fingerprint);
        sh.flight_done.notify_all();
    }

    fn execute(&self, job: &Job) -> tps_core::error::Result<(CacheEntry, TraceReport)> {
        let (tel, sink) = Telemetry::recording();
        let gen = &*job.gen;
        let oracle = ZooOracle::new(&gen.world, job.target)?;
        let trainer = ZooTrainer::new(&gen.world, job.target)?.with_telemetry(tel.clone());
        let (oracle, mut trainer) = fault::wrap_pair(oracle, trainer, job.plan.as_ref());
        let outcome =
            two_phase_select_traced(&gen.artifacts, &oracle, &mut trainer, &job.config, &tel)?;
        let total_epochs = outcome.ledger.total();
        let retry_epochs = outcome.ledger.retry_epochs();
        let result = SelectionResult::new(&gen.world, &gen.artifacts, job.target, outcome);
        let result_json = serde_json::to_string(&result)
            .map_err(|e| tps_core::error::SelectionError::Backend(format!("serialize: {e}")))?;
        let mut report = sink.report();
        strip_stage_counters(&mut report);
        Ok((
            CacheEntry {
                result_json,
                total_epochs,
                retry_epochs,
            },
            report,
        ))
    }

    /// Read one connection's request lines until EOF, an oversized or
    /// stalled line, or a drain, dispatching each line as it completes.
    fn reader_loop(&self, sh: &Shared, mut stream: TcpStream, tx: mpsc::Sender<String>) {
        // The listener is nonblocking, and some platforms hand that flag
        // on to accepted sockets; this reader must block in `read`.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let max_line = self.config.max_line_bytes.max(1);
        let stall = self.config.stall_timeout_ms.map(Duration::from_millis);
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        // Set while `buf` holds an unterminated partial line — the only
        // state the slow-loris timeout applies to.
        let mut partial_since: Option<Instant> = None;
        loop {
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = buf.drain(..=pos).collect();
                if raw.len() - 1 > max_line {
                    self.reject_oversized(sh, &tx, max_line);
                    return;
                }
                let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
                let line = line.trim();
                if !line.is_empty() {
                    self.handle_line(sh, line, &tx);
                }
            }
            if buf.len() > max_line {
                // No newline yet and already over the cap: reject now
                // instead of buffering a garbage client without bound.
                self.reject_oversized(sh, &tx, max_line);
                return;
            }
            if buf.is_empty() {
                partial_since = None;
            } else if partial_since.is_none() {
                partial_since = Some(Instant::now());
            }
            if let (Some(stall), Some(since)) = (stall, partial_since) {
                if since.elapsed() >= stall {
                    // Slow loris: a partial request line held open too
                    // long. Close without an envelope — the peer is not
                    // speaking the protocol.
                    bump_conn_errors(sh);
                    return;
                }
            }
            if sh.queue.draining() {
                return;
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if !buf.is_empty() {
                        // EOF mid-line: the client died mid-request.
                        bump_conn_errors(sh);
                    }
                    return;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    bump_conn_errors(sh);
                    return;
                }
            }
        }
    }

    /// Structured rejection for an over-length request line; the caller
    /// closes the connection (the buffer may hold arbitrary garbage).
    fn reject_oversized(&self, sh: &Shared, tx: &mpsc::Sender<String>, max_line: usize) {
        if let Ok(mut stats) = sh.stats.lock() {
            stats.malformed += 1;
            stats.conn_errors += 1;
        }
        let _ = tx.send(protocol::error_envelope(
            0,
            "malformed",
            &format!("request line exceeds {max_line} bytes"),
        ));
    }

    fn handle_line(&self, sh: &Shared, line: &str, tx: &mpsc::Sender<String>) {
        let req: Request = match serde_json::from_str(line) {
            Ok(req) => req,
            Err(e) => {
                // Never a request: counted as `malformed`, outside the
                // admission identity (the connection survives — a typo'd
                // line should not cost the client its session).
                sh.stats.lock().unwrap().malformed += 1;
                let _ = tx.send(protocol::error_envelope(
                    0,
                    "malformed",
                    &format!("bad request: {e}"),
                ));
                return;
            }
        };
        match req.op.as_str() {
            "ping" => {
                let generation = self.current().generation;
                let _ = tx.send(protocol::ok_envelope(
                    req.id,
                    "{\"pong\":true}",
                    &[],
                    generation,
                ));
            }
            "stats" => {
                let snapshot = self.stats_snapshot(sh);
                let json = serde_json::to_string(&snapshot).unwrap_or_else(|_| "{}".to_string());
                let _ = tx.send(protocol::ok_envelope(
                    req.id,
                    &json,
                    &[],
                    snapshot.generation,
                ));
            }
            "metrics" => {
                let text = self.render_metrics(sh);
                let generation = self.current().generation;
                let _ = tx.send(protocol::ok_envelope(
                    req.id,
                    &protocol::exposition_result(&text),
                    &[],
                    generation,
                ));
            }
            "reload" => match self.reload(sh) {
                Ok(generation) => {
                    let _ = tx.send(protocol::ok_envelope(
                        req.id,
                        "{\"reloaded\":true}",
                        &[],
                        generation,
                    ));
                }
                Err(e) => {
                    // The old generation keeps serving; the client gets a
                    // distinct status so monitoring can tell "your request
                    // was bad" from "the swap was refused".
                    let _ = tx.send(protocol::error_envelope(req.id, "reload_failed", &e));
                }
            },
            "shutdown" => {
                let generation = self.current().generation;
                let _ = tx.send(protocol::ok_envelope(
                    req.id,
                    "{\"draining\":true}",
                    &[],
                    generation,
                ));
                sh.queue.drain();
            }
            "" | "select" => self.handle_select(sh, req, tx),
            other => {
                let mut stats = sh.stats.lock().unwrap();
                stats.requests += 1;
                stats.errors += 1;
                drop(stats);
                let _ = tx.send(protocol::error_envelope(
                    req.id,
                    "error",
                    &format!("unknown op `{other}`"),
                ));
            }
        }
    }

    fn handle_select(&self, sh: &Shared, req: Request, tx: &mpsc::Sender<String>) {
        sh.stats.lock().unwrap().requests += 1;
        // Pin the generation at admission: everything below (target
        // resolution, fingerprint, execution) speaks about this snapshot.
        let gen = self.current();
        let fail = |detail: String| {
            sh.stats.lock().unwrap().errors += 1;
            let _ = tx.send(protocol::error_envelope(req.id, "error", &detail));
        };
        let target = match req.target.as_deref() {
            None => return fail("missing target".to_string()),
            Some(name) => match resolve_target(&gen.world, name) {
                Some(target) => target,
                None => return fail(format!("unknown target `{name}`")),
            },
        };
        let plan = match (req.fault_plan.as_deref(), req.fault_seed) {
            (Some(_), Some(_)) => {
                return fail("fault_plan and fault_seed are mutually exclusive".to_string())
            }
            (Some(text), None) => match FaultPlan::parse(text) {
                Ok(plan) => Some(plan),
                Err(e) => return fail(format!("bad fault_plan: {e}")),
            },
            (None, Some(seed)) => Some(FaultPlan::seeded(seed, gen.world.n_models(), 4, 3)),
            (None, None) => None,
        };
        let top_k = req.top_k.unwrap_or(self.config.top_k);
        let threshold = req.threshold.unwrap_or(self.config.threshold);
        let stages = req
            .stages
            .unwrap_or_else(|| self.config.stages.unwrap_or(gen.world.stages));
        let plan_text = plan.as_ref().map(FaultPlan::to_text).unwrap_or_default();
        let fingerprint =
            protocol::fingerprint(gen.generation, target, top_k, threshold, stages, &plan_text);
        let job = Job {
            id: req.id,
            target,
            gen,
            config: PipelineConfig {
                recall: RecallConfig {
                    top_k,
                    ..RecallConfig::default()
                },
                fine: FineSelectionConfig {
                    threshold,
                    ..FineSelectionConfig::default()
                },
                total_stages: stages,
                parallel: ParallelConfig {
                    threads: self.config.threads,
                },
                ann: self.config.ann,
            },
            plan,
            fingerprint,
            deadline_ms: req.deadline_ms,
            max_epochs: req.max_epochs,
            hold_ms: req.hold_ms.unwrap_or(0),
            accepted: Instant::now(),
            reply: tx.clone(),
        };
        let id = job.id;
        match sh.queue.admit(job) {
            Admission::Queued => {}
            Admission::Overloaded => {
                sh.stats.lock().unwrap().rejected += 1;
                let _ = tx.send(protocol::error_envelope(
                    id,
                    "overloaded",
                    "queue at capacity",
                ));
            }
            Admission::Draining => {
                sh.stats.lock().unwrap().drain_rejected += 1;
                let _ = tx.send(protocol::error_envelope(
                    id,
                    "draining",
                    "server is draining",
                ));
            }
        }
    }
}

/// Fold per-request reports into one aggregate trace in fingerprint
/// order, not completion order: the result must be identical however the
/// scheduler interleaved the workers — the property both the drain trace
/// and the live metrics op rely on.
fn aggregate_records(mut records: Vec<(String, u64, TraceReport)>) -> TraceReport {
    records.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut trace = TraceReport::empty();
    for (_, elapsed_us, report) in records {
        trace.absorb("serve.request", elapsed_us, report);
    }
    trace
}

fn resolve_target(world: &World, name: &str) -> Option<usize> {
    if let Some(target) = world.target_by_name(name) {
        return Some(target);
    }
    match name.parse::<usize>() {
        Ok(index) if index < world.n_targets() => Some(index),
        _ => None,
    }
}

fn writer_loop(
    sh: &Shared,
    plan: &NetFaultPlan,
    mut stream: TcpStream,
    rx: mpsc::Receiver<String>,
) {
    for line in rx {
        match plan.next(NetFaultSite::Response) {
            None => {
                let sent = stream
                    .write_all(line.as_bytes())
                    .and_then(|_| stream.write_all(b"\n"))
                    .and_then(|_| stream.flush());
                if sent.is_err() {
                    // client gone; senders never block on the channel
                    bump_conn_errors(sh);
                    return;
                }
            }
            // Every injected response fault severs the connection after
            // acting, so a retrying client deterministically reconnects
            // and resends rather than waiting on a half-poisoned stream.
            Some(NetFaultKind::Disconnect) => {
                bump_conn_errors(sh);
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            Some(NetFaultKind::Partial) => {
                bump_conn_errors(sh);
                let half = line.len() / 2;
                let _ = stream.write_all(&line.as_bytes()[..half]);
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            Some(NetFaultKind::Garbage) => {
                bump_conn_errors(sh);
                let _ = stream.write_all(b"\x7f\x00garbage\xfe\xff not json\n");
                let _ = stream.flush();
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            Some(NetFaultKind::Stall) => {
                bump_conn_errors(sh);
                std::thread::sleep(Duration::from_millis(plan.stall_ms()));
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Count a connection-level failure (peer error, injected fault, or a
/// panic caught at a thread boundary).
fn bump_conn_errors(sh: &Shared) {
    if let Ok(mut stats) = sh.stats.lock() {
        stats.conn_errors += 1;
    }
}

/// Run `f` with panics contained to this call. Used at every connection
/// and worker thread boundary so one poisoned request cannot unwind
/// through the crossbeam scope and abort the whole server.
fn catch_panic<F: FnOnce()>(f: std::panic::AssertUnwindSafe<F>) -> std::thread::Result<()> {
    std::panic::catch_unwind(f)
}

/// Evaluate a per-request epoch budget through the budget engine —
/// the same `tps trace check` machinery, pointed at a two-counter report.
fn epoch_budget_violations(total_epochs: f64, max_epochs: f64) -> Vec<String> {
    let spec = budget::parse_spec(
        "version = 1\n\
         [[rule]]\n\
         name = \"serve-request-epochs\"\n\
         expect = \"serve.request.total_epochs <= serve.request.max_epochs\"\n",
    )
    .expect("static per-request budget spec parses");
    let mut report = TraceReport::empty();
    report
        .counters
        .insert("serve.request.total_epochs".to_string(), total_epochs);
    report
        .counters
        .insert("serve.request.max_epochs".to_string(), max_epochs);
    budget::check(&report, &spec)
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect()
}

/// Drop per-stage counters (`<prefix>.stage<N>.<suffix>`) from a
/// per-request report before it is absorbed into the aggregate trace:
/// summing stage counters across requests would mix unrelated stages and
/// break the per-stage budget rules, which only make sense per run.
fn strip_stage_counters(report: &mut TraceReport) {
    report.counters.retain(|name, _| !is_stage_counter(name));
}

fn is_stage_counter(name: &str) -> bool {
    let mut rest = name;
    while let Some(i) = rest.find(".stage") {
        let after = &rest[i + ".stage".len()..];
        let digits = after.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 && after.as_bytes().get(digits) == Some(&b'.') {
            return true;
        }
        rest = after;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counter_pattern_matches_only_stage_names() {
        assert!(is_stage_counter("fine.stage0.pool"));
        assert!(is_stage_counter("fine.stage12.survivors"));
        assert!(!is_stage_counter("fine.stages"));
        assert!(!is_stage_counter("recall.proxy_epochs"));
        assert!(!is_stage_counter("zoo.train.stages"));
        assert!(!is_stage_counter("serve.stage_fright"));
    }

    #[test]
    fn per_request_budget_flags_only_overruns() {
        assert!(epoch_budget_violations(10.0, 10.0).is_empty());
        assert!(epoch_budget_violations(9.5, 10.0).is_empty());
        let violations = epoch_budget_violations(12.0, 10.0);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("serve-request-epochs"),
            "{violations:?}"
        );
    }
}
