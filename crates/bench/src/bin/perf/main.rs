//! `perf` — the benchmark of the two-phase selection service.
//!
//! One process runs one workload at one seed and prints, as its last
//! stdout line, one JSON object: `correct`, `attempted`, `failed`, and
//! every metric by name with its unit. `--trace 0` prints the end-to-end
//! metrics (tracing off); `--trace 1` prints the per-layer metrics of a
//! separate traced run. A record line before it carries the seed, the
//! host's thread count, every correctness gate and the metrics that are
//! reported but not gated. A failed gate exits 1; bad arguments exit 2.
//!
//! ```text
//! perf --workload serve-miss|serve-hot|zoo-20k|live-churn
//!      [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! See `README.md` next to this file for the workloads, the metrics and
//! the spread behind each regression bound.

mod layers;
mod serve;
mod stats;
mod wire;
mod zoo;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Layers;
use tps_core::parallel::split_seed;

const USAGE: &str = "usage: perf --workload serve-miss|serve-hot|zoo-20k|live-churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads; names are stable identifiers other documents cite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMiss,
    ServeHot,
    Zoo20k,
    LiveChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeMiss,
        Workload::ServeHot,
        Workload::Zoo20k,
        Workload::LiveChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMiss => "serve-miss",
            Workload::ServeHot => "serve-hot",
            Workload::Zoo20k => "zoo-20k",
            Workload::LiveChurn => "live-churn",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer run instead of an end-to-end run.
    pub trace: bool,
    /// Directory for the server's access log during traced runs.
    pub scratch: PathBuf,
}

/// Workload sizes. [`Scale::FULL`] is the benchmark; the smoke tests run a
/// reduced one so a debug build finishes in seconds.
pub struct Scale {
    /// Divides every open-loop arrival rate.
    pub rate_div: f64,
    /// `zoo-20k`: 4-member families and singletons.
    pub zoo_families: usize,
    pub zoo_singletons: usize,
    /// Set-up repeats: at least `setup_min_reps`, then more while the
    /// total stays under `setup_budget` (at most [`SETUP_MAX_REPS`]).
    pub setup_min_reps: usize,
    pub setup_budget: Duration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rate_div: 1.0,
        zoo_families: 4500,
        zoo_singletons: 2000,
        setup_min_reps: 3,
        setup_budget: Duration::from_secs(2),
    };
}

const SETUP_MAX_REPS: usize = 15;

/// Run `f` (one full set-up) repeatedly per `scale` and return the last
/// result with every repeat's wall-clock seconds. Earlier results are
/// dropped before the next repeat starts, so peak memory is one set-up's.
pub fn repeat_setup<T>(scale: &Scale, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begun = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < scale.setup_min_reps
        || (times.len() < SETUP_MAX_REPS && begun.elapsed() < scale.setup_budget)
    {
        drop(last.take());
        let started = Instant::now();
        last = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), times)
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn gate(name: &'static str, ok: bool, detail: impl Into<String>) -> Gate {
    Gate {
        name,
        ok,
        detail: detail.into(),
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the load generator attempted (selects and reloads).
    pub attempted: u64,
    /// Operations not answered `ok`.
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// The metrics of the result line: end-to-end, or per-layer if traced.
    pub metrics: Vec<Metric>,
    /// Reported on the record line, not gated.
    pub details: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The end-to-end metrics every workload reports. Latency percentiles and
/// throughput are computed per time window and read at the favourable
/// quartile across windows ([`stats::favourable`]); the whole-run
/// percentiles go on the record line.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// `(when, latency)` per request in seconds, `when` counted from the
    /// start of the measured phase.
    pub latencies: Vec<(f64, f64)>,
    /// Width of a latency window, in seconds.
    pub window_s: f64,
    /// Completions per second in each throughput window.
    pub throughput: Vec<f64>,
    /// Per selection of the workload's fixed evaluation set.
    pub epochs: Vec<f64>,
    pub regret: Vec<f64>,
    /// Peak resident set, in MB, after a fixed amount of work.
    pub rss_mb: f64,
}

impl EndToEnd {
    fn latencies_s(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, l)| l).collect()
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let ms = |p| {
            let per_window =
                stats::per_window(&self.latencies, self.window_s, |v| stats::percentile(v, p));
            stats::favourable(&per_window, true).unwrap_or(f64::NAN) * 1e3
        };
        vec![
            metric(
                "setup_s",
                stats::median(&self.setup_s).unwrap_or(f64::NAN),
                "s",
            ),
            metric("latency_p50_ms", ms(50.0), "ms"),
            metric("latency_p90_ms", ms(90.0), "ms"),
            metric(
                "throughput_rps",
                stats::favourable(&self.throughput, false).unwrap_or(f64::NAN),
                "1/s",
            ),
            metric(
                "epochs_per_select",
                stats::mean(&self.epochs).unwrap_or(f64::NAN),
                "epochs",
            ),
            metric(
                "regret_pct",
                stats::mean(&self.regret).unwrap_or(f64::NAN) * 100.0,
                "%",
            ),
            metric("rss_peak_mb", self.rss_mb, "MB"),
        ]
    }

    /// Whole-run percentiles, reported but not gated.
    pub fn details(&self) -> Vec<Metric> {
        let all = self.latencies_s();
        let ms = |p| stats::percentile(&all, p).unwrap_or(f64::NAN) * 1e3;
        vec![
            metric("run_latency_p50_ms", ms(50.0), "ms"),
            metric("run_latency_p90_ms", ms(90.0), "ms"),
            metric("latency_p99_ms", ms(99.0), "ms"),
            metric("latency_max_ms", ms(100.0), "ms"),
            metric("latency_samples", all.len() as f64, "count"),
            metric("throughput_windows", self.throughput.len() as f64, "count"),
            metric("setup_reps", self.setup_s.len() as f64, "count"),
        ]
    }
}

/// Wall-clock seconds of each offline step of the last set-up.
#[derive(Debug, Clone, Default)]
pub struct Offline {
    pub world_s: f64,
    pub curves_s: f64,
    pub similarity_s: f64,
    pub cluster_s: f64,
    pub trends_s: f64,
}

impl Offline {
    /// Fill the derivation steps from a recorded offline-build trace.
    pub fn with_spans(&self, report: &tps_core::telemetry::TraceReport) -> Self {
        let mut out = self.clone();
        let secs = |name| {
            report
                .spans_named(name)
                .iter()
                .map(|s| s.elapsed_us as f64 / 1e6)
                .sum::<f64>()
        };
        out.similarity_s = secs("offline.similarity");
        out.cluster_s = secs("offline.cluster");
        out.trends_s = secs("offline.trends");
        out
    }
}

/// The per-layer metrics every workload reports from a traced run.
pub struct PerLayer {
    /// One split per replayed selection.
    pub layers: Vec<Layers>,
    pub offline: Offline,
    /// Traced over untraced median latency, minus one, in percent.
    pub overhead_pct: f64,
    /// Median share of each replayed request's execution time that the
    /// layers do not cover.
    pub unattributed: Vec<f64>,
}

impl PerLayer {
    pub fn metrics(&self) -> Vec<Metric> {
        let med = |f: fn(&Layers) -> f64| {
            stats::median(&self.layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let avg = |f: fn(&Layers) -> f64| {
            stats::mean(&self.layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        vec![
            metric("recall.proxy_predict_us", med(|l| l.proxy_predict_us), "us"),
            metric("recall.leep_us", med(|l| l.leep_us), "us"),
            metric("recall.rest_us", med(|l| l.recall_rest_us), "us"),
            metric("recall.proxy_evals", avg(|l| l.proxy_evals), "count"),
            metric("select.train_us", med(|l| l.train_us), "us"),
            metric("select.rest_us", med(|l| l.select_rest_us), "us"),
            metric("select.stages", avg(|l| l.stages), "count"),
            metric("select.train_epochs", avg(|l| l.train_epochs), "epochs"),
            metric("protocol.serialize_us", med(|l| l.serialize_us), "us"),
            metric(
                "protocol.response_bytes",
                avg(|l| l.response_bytes),
                "bytes",
            ),
            metric("offline.world_s", self.offline.world_s, "s"),
            metric("offline.curves_s", self.offline.curves_s, "s"),
            metric("offline.similarity_s", self.offline.similarity_s, "s"),
            metric("offline.cluster_s", self.offline.cluster_s, "s"),
            metric("offline.trends_s", self.offline.trends_s, "s"),
            metric("trace.overhead_pct", self.overhead_pct, "%"),
            metric(
                "trace.unattributed_share",
                stats::median(&self.unattributed).unwrap_or(f64::NAN),
                "share",
            ),
        ]
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seeded 64 bits (a [`split_seed`] output) mapped to `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`split_seed`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (split_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Run one workload.
pub fn run(workload: Workload, opts: &Opts, scale: &Scale) -> Result<Outcome, String> {
    match workload {
        Workload::Zoo20k => zoo::run(opts, scale),
        served => serve::run(served, opts, scale),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The record line: run identity, gates and ungated details.
fn record_line(workload: Workload, opts: &Opts, outcome: &Outcome) -> String {
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let gates: Vec<String> = outcome
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":{}}}",
                g.name,
                g.ok,
                serde_json::to_string(&g.detail).expect("a string serializes")
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_threads\":{},\
         \"gates\":[{}],\"details\":{}}}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_threads,
        gates.join(","),
        json_metrics(&outcome.details)
    )
}

/// The result line the benchmark contract reads.
fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    )
}

fn parse_args(args: &[String]) -> Result<(Workload, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 18.0,
        trace: false,
        scratch: PathBuf::from(".bench_build").join("perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match run(workload, &opts, &Scale::FULL) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf: {} failed: {e}", workload.name());
            std::process::exit(1);
        }
    };
    for g in outcome.gates.iter().filter(|g| !g.ok) {
        eprintln!("perf: gate {} failed: {}", g.name, g.detail);
    }
    println!("{}", record_line(workload, &opts, &outcome));
    println!("{}", result_line(&outcome));
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gates that compare wall-clock against a limit; a debug build on a
    /// shared host says nothing about them.
    const TIMING_GATES: [&str; 1] = ["gen.late_p90_us"];

    const SMOKE: Scale = Scale {
        rate_div: 10.0,
        zoo_families: 60,
        zoo_singletons: 40,
        setup_min_reps: 1,
        setup_budget: Duration::ZERO,
    };

    fn benchmark_json() -> serde_json::Value {
        serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()[section]
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("a name").to_string(),
                    m["unit"].as_str().expect("a unit").to_string(),
                )
            })
            .collect()
    }

    fn smoke(workload: Workload) {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Opts {
                seed: 3,
                seconds: 1.0,
                trace,
                scratch: std::env::temp_dir().join(format!(
                    "tps-perf-smoke-{}-{}",
                    std::process::id(),
                    workload.name()
                )),
            };
            let outcome = run(workload, &opts, &SMOKE).expect("the workload runs");
            for g in &outcome.gates {
                assert!(
                    g.ok || TIMING_GATES.contains(&g.name),
                    "{} trace={trace}: gate {} failed: {}",
                    workload.name(),
                    g.name,
                    g.detail
                );
            }
            assert!(outcome.attempted >= 1);
            assert!(outcome.failed <= outcome.attempted);
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                emitted,
                declared(section),
                "{} trace={trace}: metrics must match BENCHMARK.json {section}",
                workload.name()
            );
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            let line = result_line(&outcome);
            let parsed: serde_json::Value = serde_json::from_str(&line).expect("result parses");
            assert!(parsed["metrics"].as_object().is_some());
        }
    }

    #[test]
    fn smoke_serve_miss() {
        smoke(Workload::ServeMiss);
    }

    #[test]
    fn smoke_serve_hot() {
        smoke(Workload::ServeHot);
    }

    #[test]
    fn smoke_zoo_20k() {
        smoke(Workload::Zoo20k);
    }

    #[test]
    fn smoke_live_churn() {
        smoke(Workload::LiveChurn);
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let names: Vec<String> = benchmark_json()["workloads"]
            .as_array()
            .expect("a workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("a name").to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, o) = parse_args(&args("--workload zoo-20k --seed 9 --seconds 2.5 --trace 1"))
            .expect("valid arguments");
        assert_eq!(w, Workload::Zoo20k);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload serve-hot --trace 2",
            "--workload serve-hot --seconds 0",
            "--workload serve-hot --seed",
            "--workload serve-hot --color red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }

    /// The `[profile.release]` table of a manifest: its settings, trimmed,
    /// without blank lines and comments.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark's own package must build with the release profile the
    /// workspace ships, or it would measure a different binary.
    #[test]
    fn release_profile_matches_the_workspace() {
        let ours = release_profile(include_str!("Cargo.toml"));
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert_eq!(
            ours, workspace,
            "copy the workspace's [profile.release] into the benchmark's Cargo.toml"
        );
        assert_eq!(release_profile("[a]\nx = 1\n"), Vec::<&str>::new());
        assert_eq!(
            release_profile("[profile.release]\n# c\nlto = \"thin\"\n\n[b]\ny = 2\n"),
            vec!["lto = \"thin\""]
        );
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
