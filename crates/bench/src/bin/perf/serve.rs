//! The served workloads: `serve-miss`, `serve-hot` and `live-churn`.
//!
//! Each binds a `tps_serve::Server` in-process (`Server::bind` + `run`, the
//! same server `tps serve` runs) and drives it through [`crate::wire`]:
//! an open loop at a fixed rate for two thirds of the run, then a closed
//! loop with [`CLOSED_DEPTH`] requests outstanding. The worlds are fixed;
//! `--seed` picks the request order (and `live-churn`'s arrival jitter),
//! so every seed measures the same work.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tps_core::incremental::DeltaEngine;
use tps_core::parallel::{split_seed, ParallelConfig};
use tps_core::pipeline::{two_phase_select, OfflineArtifacts, OfflineConfig, PipelineConfig};
use tps_core::recall::RecallConfig;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::telemetry::Telemetry;
use tps_serve::protocol::{extract_result, status_of};
use tps_serve::{ReloadSource, SelectionResult, ServeConfig, ServeSummary, Server};
use tps_zoo::churn::{Churn, WorldUpdate};
use tps_zoo::{SyntheticConfig, World, ZooOracle, ZooTrainer};

use crate::layers::{self, Layers};
use crate::wire::{self, Plan, Report};
use crate::{
    gate, metric, permutation, repeat_setup, stats, unit, EndToEnd, Gate, Metric, Offline, Opts,
    Outcome, PerLayer, Scale, Workload,
};

/// Seed of the fixed worlds (the bench crate's pinned experiment seed).
const WORLD_SEED: u64 = 19;
/// Seed of `live-churn`'s event stream, fixed so every run applies the
/// same writes.
const CHURN_SEED: u64 = 11;
/// Every `VERIFY_EVERY`-th select's reply is checked byte for byte.
const VERIFY_EVERY: u64 = 50;
/// Selects kept outstanding in the closed loop. At 8 the loop flips
/// between two TCP pacing modes mid-run (see README), so throughput would
/// measure which mode a run landed in; at 4 every run measures the same
/// thing.
const CLOSED_DEPTH: usize = 4;
/// Windows behind the reported latency percentiles (open loop) and
/// throughput (closed loop); see [`crate::EndToEnd`].
const LATENCY_WINDOW: Duration = Duration::from_secs(2);
const THROUGHPUT_WINDOW: Duration = Duration::from_millis(500);
/// Latency objective behind `slo_miss_share`.
const SLO_S: f64 = 0.050;
/// The generator may wake at most this late (p90) for the run to count.
/// Not p99: on 2 cores, `live-churn` selects due just as a reload finishes
/// wait ~3 ms for a core while both drain the backlog, whatever the
/// generator does; the p99 is reported instead.
const MAX_LATE_P90_US: f64 = 1_000.0;

/// One distinct select request.
#[derive(Debug, Clone, Copy)]
struct Select {
    target: usize,
    top_k: usize,
    stages: usize,
    threshold: f64,
}

impl Select {
    fn fields(&self, world: &World) -> String {
        format!(
            "\"target\":\"{}\",\"top_k\":{},\"stages\":{},\"threshold\":{:?}",
            world.targets[self.target].name, self.top_k, self.stages, self.threshold
        )
    }

    /// The pipeline configuration the server builds for this request under
    /// `ServeConfig::default()`.
    fn config(&self) -> PipelineConfig {
        PipelineConfig {
            recall: RecallConfig {
                top_k: self.top_k,
                ..RecallConfig::default()
            },
            fine: FineSelectionConfig {
                threshold: self.threshold,
                ..FineSelectionConfig::default()
            },
            total_stages: self.stages,
            parallel: ParallelConfig { threads: 1 },
            ann: Default::default(),
        }
    }
}

/// How a workload picks the select for each sequence number.
enum Order {
    /// Walk a seeded permutation of the distinct requests, so no request
    /// repeats until all have been sent.
    Cycle(Vec<usize>),
    /// Draw uniformly (seeded) from the distinct requests.
    Draw(u64),
}

/// A served workload's traffic.
struct Spec {
    rate_hz: f64,
    /// Draw each open-loop arrival uniformly within its slot.
    jitter: bool,
    reload_every: Option<Duration>,
    seed: u64,
    selects: Vec<Select>,
    order: Order,
    /// Fixed evaluation set (indices into `selects`) behind
    /// `epochs_per_select` and `regret_pct`.
    eval: Vec<usize>,
    /// Also verify the first occurrence of every distinct request.
    verify_firsts: bool,
}

impl Spec {
    fn new(kind: Workload, world: &World, seed: u64, scale: &Scale) -> Spec {
        let stages = world.stages;
        let grid = |top_ks: &[usize], stage_counts: &[usize], thresholds: &[f64]| {
            let mut out = Vec::new();
            for &top_k in top_ks {
                for &stages in stage_counts {
                    for &threshold in thresholds {
                        for target in 0..world.n_targets() {
                            out.push(Select {
                                target,
                                top_k,
                                stages,
                                threshold,
                            });
                        }
                    }
                }
            }
            out
        };
        match kind {
            Workload::ServeMiss => {
                // 16 targets × 10 recall sizes × 3 stage counts × 10
                // thresholds = 4800 fingerprints, far more than the 64-entry
                // cache holds.
                let thresholds: Vec<f64> = (0..10).map(|i| f64::from(i) / 100.0).collect();
                let selects = grid(&(6..=15).collect::<Vec<_>>(), &[3, 4, 5], &thresholds);
                Spec {
                    rate_hz: 200.0 / scale.rate_div,
                    jitter: false,
                    reload_every: None,
                    seed,
                    order: Order::Cycle(permutation(selects.len(), seed)),
                    eval: (0..selects.len()).step_by(VERIFY_EVERY as usize).collect(),
                    selects,
                    verify_firsts: false,
                }
            }
            Workload::ServeHot => {
                let selects = grid(&[10, 8], &[stages], &[0.0]);
                Spec {
                    rate_hz: 500.0 / scale.rate_div,
                    jitter: false,
                    reload_every: None,
                    seed,
                    order: Order::Draw(seed),
                    eval: (0..selects.len()).collect(),
                    selects,
                    verify_firsts: true,
                }
            }
            Workload::LiveChurn => {
                let selects = grid(&[8, 10, 12], &[stages], &[0.0]);
                Spec {
                    rate_hz: 100.0 / scale.rate_div,
                    jitter: true,
                    reload_every: Some(Duration::from_millis(250)),
                    seed,
                    order: Order::Draw(seed),
                    eval: (0..selects.len()).collect(),
                    selects,
                    verify_firsts: false,
                }
            }
            Workload::Zoo20k => unreachable!("zoo-20k is not served"),
        }
    }

    /// Open-loop due times over `open`, one per `1 / rate_hz`. A reply
    /// completes only when the next request arrives (the server holds its
    /// `\n` back; see README), so on a rigid grid every queued reply's
    /// latency is a multiple of the gap and `live-churn`'s p90 flips
    /// between neighbouring multiples from run to run. With `jitter`, each
    /// arrival is drawn uniformly within its slot instead.
    fn arrivals(&self, open: Duration) -> Vec<Duration> {
        let gap = 1.0 / self.rate_hz;
        let n = (open.as_secs_f64() * self.rate_hz).floor() as u64;
        (0..n)
            .map(|i| {
                let within = if self.jitter {
                    unit(split_seed(self.seed, i))
                } else {
                    0.0
                };
                Duration::from_secs_f64(gap * (i as f64 + within))
            })
            .collect()
    }

    /// Reload dues over `span`, one per `reload_every`.
    fn reloads(&self, span: Duration) -> Vec<Duration> {
        let Some(period) = self.reload_every else {
            return Vec::new();
        };
        (1..)
            .map(|k: u32| period * k)
            .take_while(|&due| due < span)
            .collect()
    }

    fn pick(&self, seq: u64) -> usize {
        match &self.order {
            Order::Cycle(perm) => perm[(seq % perm.len() as u64) as usize],
            Order::Draw(seed) => (split_seed(*seed, seq) % self.selects.len() as u64) as usize,
        }
    }

    /// Sequence numbers that first send each distinct request, when the
    /// workload verifies those (empty otherwise).
    fn firsts(&self) -> HashSet<u64> {
        let mut firsts = HashSet::new();
        if self.verify_firsts {
            let mut seen = HashSet::new();
            for seq in 0..1_000_000 {
                if seen.insert(self.pick(seq)) {
                    firsts.insert(seq);
                }
                if seen.len() == self.selects.len() {
                    break;
                }
            }
        }
        firsts
    }
}

/// The 445-model synthetic world of `serve-miss` and `live-churn`.
fn synthetic_world() -> World {
    World::synthetic(&SyntheticConfig {
        seed: WORLD_SEED,
        n_families: 100,
        family_size: (2, 6),
        n_singletons: 45,
        n_benchmarks: 12,
        n_targets: 16,
        stages: 5,
    })
}

/// A world with its offline artifacts (and, for `live-churn`, the delta
/// engine that maintains them).
struct Bundle {
    world: World,
    artifacts: OfflineArtifacts,
    engine: Option<DeltaEngine>,
    offline: Offline,
}

fn build(kind: Workload, tel: &Telemetry) -> Result<Bundle, String> {
    let started = Instant::now();
    let world = match kind {
        Workload::ServeHot => World::nlp(WORLD_SEED),
        _ => synthetic_world(),
    };
    let world_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (matrix, curves) = world.build_offline().map_err(|e| e.to_string())?;
    let curves_s = started.elapsed().as_secs_f64();
    let config = OfflineConfig::default();
    let artifacts =
        OfflineArtifacts::build_traced(matrix, &curves, &config, tel).map_err(|e| e.to_string())?;
    let engine = match kind {
        Workload::LiveChurn => Some(
            DeltaEngine::from_curve_set(artifacts.clone(), &curves, config)
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    Ok(Bundle {
        world,
        artifacts,
        engine,
        offline: Offline {
            world_s,
            curves_s,
            ..Offline::default()
        },
    })
}

/// Wall-clock of one reload's three steps, in microseconds.
#[derive(Debug, Clone, Copy)]
struct ReloadCost {
    churn_us: f64,
    apply_us: f64,
    clone_us: f64,
}

/// What `live-churn`'s reload source advances: the world, its delta
/// engine, the event stream, and a log of what each reload did.
struct ChurnState {
    world: World,
    engine: DeltaEngine,
    churn: Churn,
    events: Vec<WorldUpdate>,
    costs: Vec<ReloadCost>,
}

/// Each reload applies one churn event to the world, feeds the matching
/// update to the delta engine, and hands the server a copy.
fn reload_source(state: Arc<Mutex<ChurnState>>) -> ReloadSource {
    Box::new(move || {
        let mut st = state
            .lock()
            .map_err(|_| "churn state poisoned".to_string())?;
        let st = &mut *st;
        let t0 = Instant::now();
        let event = st.churn.next_update(&st.world);
        let update = st.world.apply_churn(&event)?;
        let t1 = Instant::now();
        st.engine.apply_update(&update).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let next = (st.world.clone(), st.engine.artifacts().clone());
        let t3 = Instant::now();
        st.events.push(event);
        st.costs.push(ReloadCost {
            churn_us: (t1 - t0).as_secs_f64() * 1e6,
            apply_us: (t2 - t1).as_secs_f64() * 1e6,
            clone_us: (t3 - t2).as_secs_f64() * 1e6,
        });
        Ok(next)
    })
}

/// A bound server, plus the churn state its reload source advances.
struct Bound {
    server: Server,
    churn: Option<Arc<Mutex<ChurnState>>>,
}

fn bind(bundle: &Bundle, access_log: Option<&PathBuf>) -> Result<Bound, String> {
    let config = ServeConfig {
        access_log: access_log.map(|p| p.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let server =
        Server::bind(&bundle.world, &bundle.artifacts, config).map_err(|e| e.to_string())?;
    Ok(match &bundle.engine {
        None => Bound {
            server,
            churn: None,
        },
        Some(engine) => {
            let state = Arc::new(Mutex::new(ChurnState {
                world: bundle.world.clone(),
                engine: engine.clone(),
                churn: Churn::new(CHURN_SEED),
                events: Vec::new(),
                costs: Vec::new(),
            }));
            Bound {
                server: server.with_reload_source(reload_source(Arc::clone(&state))),
                churn: Some(state),
            }
        }
    })
}

/// One load run against one bound server.
struct Phase {
    report: Report,
    summary: ServeSummary,
    events: Vec<WorldUpdate>,
    costs: Vec<ReloadCost>,
}

fn drive(bound: Bound, plan: &Plan<'_>) -> Result<Phase, String> {
    let Bound { server, churn } = bound;
    let addr = server.addr().to_string();
    let (report, summary) = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let report = wire::drive(&addr, plan);
        // Shut down whatever happened above, or the scope never joins.
        let shutdown = wire::control(&addr, "shutdown");
        let summary = handle.join().expect("server thread does not panic");
        let shutdown = shutdown.map_err(|e| format!("shutdown: {e}"))?;
        if status_of(&shutdown) != Some("ok") {
            return Err(format!("shutdown refused: {shutdown}"));
        }
        Ok((
            report.map_err(|e| format!("load: {e}"))?,
            summary.map_err(|e| format!("server: {e}"))?,
        ))
    })?;
    let (events, costs) = match churn {
        Some(state) => {
            let st = state
                .lock()
                .map_err(|_| "churn state poisoned".to_string())?;
            (st.events.clone(), st.costs.clone())
        }
        None => (Vec::new(), Vec::new()),
    };
    Ok(Phase {
        report,
        summary,
        events,
        costs,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl Phase {
    /// `(when due, latency)` of each answered select of one loop, in
    /// seconds; latency runs from when the select was due to the last
    /// byte of its reply.
    fn latencies(&self, closed: bool) -> Vec<(f64, f64)> {
        self.report
            .selects
            .iter()
            .zip(&self.report.replies)
            .filter(|(s, _)| s.closed == closed)
            .filter_map(|(s, r)| {
                let r = r.as_ref()?;
                Some((secs(s.due - self.report.open_start), secs(r.done - s.due)))
            })
            .collect()
    }

    /// Open-loop latencies alone, in seconds.
    fn open_latencies(&self) -> Vec<f64> {
        self.latencies(false).into_iter().map(|(_, l)| l).collect()
    }

    /// How late the generator woke to send each open-loop select, in µs.
    fn late_us(&self) -> Vec<f64> {
        self.open_sends(|s| s.woke - s.due)
    }

    /// How long each open-loop select's `write` took, in µs. The kernel
    /// delivers loopback segments inside it, so a burst of replies can
    /// stretch one write; the request's latency still counts from `due`.
    fn send_us(&self) -> Vec<f64> {
        self.open_sends(|s| s.sent - s.woke)
    }

    fn open_sends(&self, f: impl Fn(&wire::Sent) -> Duration) -> Vec<f64> {
        self.report
            .selects
            .iter()
            .filter(|s| !s.closed)
            .map(|s| secs(f(s)) * 1e6)
            .collect()
    }

    fn failed(&self) -> u64 {
        let selects = self
            .report
            .replies
            .iter()
            .filter(|r| !r.as_ref().is_some_and(|r| r.ok));
        let reloads = self
            .report
            .reloads
            .iter()
            .filter(|(_, r)| !r.as_ref().is_some_and(|r| r.ok));
        (selects.count() + reloads.count()) as u64
    }

    fn attempted(&self) -> u64 {
        (self.report.selects.len() + self.report.reloads.len()) as u64
    }
}

/// Byte-identical one-shot twin of a served selection.
fn twin(world: &World, artifacts: &OfflineArtifacts, sel: &Select) -> Result<String, String> {
    let oracle = ZooOracle::new(world, sel.target).map_err(|e| e.to_string())?;
    let mut trainer = ZooTrainer::new(world, sel.target).map_err(|e| e.to_string())?;
    let outcome = two_phase_select(artifacts, &oracle, &mut trainer, &sel.config())
        .map_err(|e| e.to_string())?;
    serde_json::to_string(&SelectionResult::new(world, artifacts, sel.target, outcome))
        .map_err(|e| e.to_string())
}

/// Replay one selection layer by layer: its payload and layer split.
fn replay(
    world: &World,
    artifacts: &OfflineArtifacts,
    sel: &Select,
) -> Result<(String, Layers), String> {
    let oracle = ZooOracle::new(world, sel.target).map_err(|e| e.to_string())?;
    let mut trainer = ZooTrainer::new(world, sel.target).map_err(|e| e.to_string())?;
    layers::replay(artifacts, &oracle, &mut trainer, &sel.config(), |o| {
        serde_json::to_string(&SelectionResult::new(world, artifacts, sel.target, o))
            .expect("a selection result serializes")
    })
    .map_err(|e| e.to_string())
}

/// What checking the kept replies found.
#[derive(Default)]
struct Verified {
    checked: usize,
    mismatches: Vec<String>,
    /// Traced runs: the layer split of each checked request, by sequence
    /// number.
    layers: Vec<(u64, Layers)>,
}

/// Check every kept reply against its one-shot twin on the generation
/// that served it, re-deriving later `live-churn` generations by replaying
/// the recorded events.
fn verify(bundle: &Bundle, spec: &Spec, phase: &Phase, traced: bool) -> Result<Verified, String> {
    let mut kept: Vec<(u64, u64, &str)> = phase
        .report
        .replies
        .iter()
        .enumerate()
        .filter_map(|(seq, r)| {
            let r = r.as_ref()?;
            Some((r.generation?, seq as u64, r.line.as_deref()?))
        })
        .collect();
    kept.sort_unstable_by_key(|&(generation, seq, _)| (generation, seq));
    let mut out = Verified::default();
    let mut world = bundle.world.clone();
    let mut engine = bundle.engine.clone();
    let mut generation = 1;
    let mut twins: HashMap<usize, String> = HashMap::new();
    for (g, seq, line) in kept {
        while generation < g {
            let event = phase.events.get(generation as usize - 1).ok_or_else(|| {
                format!("reply from generation {g} but only {generation} replayed")
            })?;
            let update = world.apply_churn(event)?;
            engine
                .as_mut()
                .ok_or("a generation past 1 without a delta engine")?
                .apply_update(&update)
                .map_err(|e| e.to_string())?;
            generation += 1;
            twins.clear();
        }
        let artifacts = engine.as_ref().map_or(&bundle.artifacts, |e| e.artifacts());
        let index = spec.pick(seq);
        let sel = &spec.selects[index];
        let want = match twins.entry(index) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(twin(&world, artifacts, sel)?),
        };
        out.checked += 1;
        if extract_result(line) != Some(want.as_str()) {
            out.mismatches
                .push(format!("select {seq} (generation {g})"));
        }
        if traced {
            let (payload, layers) = replay(&world, artifacts, sel)?;
            if payload != *want {
                out.mismatches
                    .push(format!("layered replay of select {seq}"));
            }
            out.layers.push((seq, layers));
        }
    }
    Ok(out)
}

/// Mean epochs and regret over the workload's fixed evaluation set, on
/// the generation-1 world.
fn quality(bundle: &Bundle, spec: &Spec) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    let (mut epochs, mut regret) = (Vec::new(), Vec::new());
    for &i in &spec.eval {
        let sel = &spec.selects[i];
        let oracle = ZooOracle::new(&bundle.world, sel.target).map_err(|e| e.to_string())?;
        let mut trainer = ZooTrainer::new(&bundle.world, sel.target).map_err(|e| e.to_string())?;
        let outcome = two_phase_select(&bundle.artifacts, &oracle, &mut trainer, &sel.config())
            .map_err(|e| e.to_string())?;
        let top = *best
            .entry(sel.target)
            .or_insert_with(|| bundle.world.best_model_for_target(sel.target).1);
        epochs.push(outcome.ledger.total());
        regret.push(
            top - bundle
                .world
                .target_accuracy(outcome.selection.winner, sel.target),
        );
    }
    Ok((epochs, regret))
}

/// One access-log line: `(id, queue_wait_us, exec_us, cache)`.
fn access_records(path: &PathBuf) -> Result<Vec<(u64, f64, f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("access log: {e}"))?;
    text.lines()
        .map(|line| {
            let v: serde_json::Value =
                serde_json::from_str(line).map_err(|e| format!("access log line: {e}"))?;
            let num = |k: &str| v[k].as_f64().ok_or(format!("access log: no {k}"));
            Ok((
                v["id"].as_u64().ok_or("access log: no id")?,
                num("queue_wait_us")?,
                num("exec_us")?,
                v["cache"].as_str().unwrap_or("").to_string(),
            ))
        })
        .collect()
}

/// Serve-layer split of a traced phase: client latency = queue wait +
/// execution (both from the server's access log) + residual (parse,
/// envelope, write, network and generator slack).
fn serve_layers(
    phase: &Phase,
    access: &[(u64, f64, f64, String)],
) -> (Vec<Metric>, HashMap<u64, f64>) {
    let (mut wait, mut exec, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let mut miss_exec = HashMap::new();
    let (mut hits, mut flights) = (0usize, 0usize);
    for (id, queue_wait_us, exec_us, cache) in access {
        let Some((sent, Some(reply))) = phase
            .report
            .selects
            .get(*id as usize)
            .zip(phase.report.replies.get(*id as usize))
        else {
            continue;
        };
        let latency_us = secs(reply.done - sent.due) * 1e6;
        wait.push(*queue_wait_us);
        exec.push(*exec_us);
        residual.push(latency_us - queue_wait_us - exec_us);
        match cache.as_str() {
            "hit" => hits += 1,
            "flight" => flights += 1,
            "miss" => {
                miss_exec.insert(*id, *exec_us);
            }
            _ => {}
        }
    }
    let n = wait.len().max(1) as f64;
    let p = |v: &[f64], q| stats::percentile(v, q).unwrap_or(f64::NAN);
    let metrics = vec![
        metric("serve.queue_wait_p50_us", p(&wait, 50.0), "us"),
        metric("serve.queue_wait_p90_us", p(&wait, 90.0), "us"),
        metric("serve.exec_p50_us", p(&exec, 50.0), "us"),
        metric("serve.exec_p90_us", p(&exec, 90.0), "us"),
        metric("serve.residual_p50_us", p(&residual, 50.0), "us"),
        metric("serve.residual_p90_us", p(&residual, 90.0), "us"),
        metric("serve.cache_hit_share", hits as f64 / n, "share"),
        metric("serve.flight_share", flights as f64 / n, "share"),
        metric(
            "serve.queue_peak",
            phase.summary.stats.queue_peak as f64,
            "count",
        ),
        metric("serve.access_records", wait.len() as f64, "count"),
    ];
    (metrics, miss_exec)
}

/// Correctness gates of one phase.
fn gates(kind: Workload, spec: &Spec, phase: &Phase, verified: &Verified) -> Vec<Gate> {
    let report = &phase.report;
    let stats = &phase.summary.stats;
    let sent = report.selects.len() as u64;
    let answered = report.replies.iter().flatten().count() as u64
        + report.reloads.iter().filter(|(_, r)| r.is_some()).count() as u64;
    let outcomes = stats.executed
        + stats.cache_hits
        + stats.rejected
        + stats.drain_rejected
        + stats.deadline_rejected
        + stats.errors;
    let late_p90 = stats::percentile(&phase.late_us(), 90.0).unwrap_or(0.0);
    let shape = match kind {
        Workload::ServeMiss | Workload::ServeHot => {
            // Every repeat of a fingerprint hits: `serve-hot`'s 8 fit the
            // cache, and `serve-miss` repeats none until its permutation
            // wraps (and then misses, its working set exceeding the cache).
            let distinct = (0..sent)
                .map(|seq| spec.pick(seq))
                .collect::<HashSet<_>>()
                .len();
            let want = match kind {
                Workload::ServeHot => sent - distinct as u64,
                _ => 0,
            };
            gate(
                "workload.shape",
                stats.cache_hits == want,
                format!(
                    "{} cache hits in {sent} selects over {distinct} fingerprints, want {want}",
                    stats.cache_hits
                ),
            )
        }
        _ => {
            let ok = stats.reloads == report.reloads.len() as u64 && !report.reloads.is_empty();
            gate(
                "workload.shape",
                ok,
                format!(
                    "{} reloads applied of {} sent",
                    stats.reloads,
                    report.reloads.len()
                ),
            )
        }
    };
    vec![
        gate(
            "answered",
            answered == phase.attempted(),
            format!("{answered} replies to {} operations", phase.attempted()),
        ),
        gate(
            "accounting",
            stats.requests == sent && stats.requests == outcomes,
            format!(
                "server saw {} selects of {sent}; outcome buckets sum to {outcomes}",
                stats.requests
            ),
        ),
        gate(
            "byte_identical",
            verified.checked > 0 && verified.mismatches.is_empty(),
            format!(
                "{} of {} sampled replies differ from one-shot runs {:?}",
                verified.mismatches.len(),
                verified.checked,
                &verified.mismatches[..verified.mismatches.len().min(5)]
            ),
        ),
        gate(
            "gen.late_p90_us",
            late_p90 <= MAX_LATE_P90_US,
            format!("generator woke {late_p90:.1} us late at p90"),
        ),
        shape,
    ]
}

/// Metrics reported on the record line for one phase.
fn phase_details(phase: &Phase) -> Vec<Metric> {
    let open = phase.open_latencies();
    let closed: Vec<f64> = phase.latencies(true).into_iter().map(|(_, l)| l).collect();
    let all: Vec<f64> = open.iter().chain(&closed).copied().collect();
    let slow = all.iter().filter(|&&l| l > SLO_S).count() as u64;
    let attempted = phase.attempted().max(1) as f64;
    let us = |v: &[f64], q| stats::percentile(v, q).unwrap_or(f64::NAN);
    let ms = |v: &[f64], q| us(v, q) * 1e3;
    let mut out = vec![
        metric("open_sent", open.len() as f64, "count"),
        metric("closed_sent", closed.len() as f64, "count"),
        metric("closed_latency_p50_ms", ms(&closed, 50.0), "ms"),
        metric("failed_share", phase.failed() as f64 / attempted, "share"),
        metric(
            "slo_miss_share",
            (phase.failed() + slow) as f64 / attempted,
            "share",
        ),
        metric("gen.late_p50_us", us(&phase.late_us(), 50.0), "us"),
        metric("gen.late_p90_us", us(&phase.late_us(), 90.0), "us"),
        metric("gen.late_p99_us", us(&phase.late_us(), 99.0), "us"),
        metric("gen.late_max_us", us(&phase.late_us(), 100.0), "us"),
        metric("gen.send_p99_us", us(&phase.send_us(), 99.0), "us"),
        metric(
            "server.executed",
            phase.summary.stats.executed as f64,
            "count",
        ),
        metric(
            "server.cache_hits",
            phase.summary.stats.cache_hits as f64,
            "count",
        ),
    ];
    if !phase.report.reloads.is_empty() {
        let updates: Vec<f64> = phase
            .report
            .reloads
            .iter()
            .filter_map(|(due, r)| r.as_ref().map(|r| secs(r.done - *due)))
            .collect();
        let costs = |f: fn(&ReloadCost) -> f64| phase.costs.iter().map(f).collect::<Vec<f64>>();
        out.extend([
            metric("reloads", phase.report.reloads.len() as f64, "count"),
            metric("update_p50_ms", ms(&updates, 50.0), "ms"),
            metric("update_max_ms", ms(&updates, 100.0), "ms"),
            metric("churn.world_us", us(&costs(|c| c.churn_us), 50.0), "us"),
            metric(
                "incremental.apply_p50_us",
                us(&costs(|c| c.apply_us), 50.0),
                "us",
            ),
            metric(
                "incremental.apply_max_us",
                us(&costs(|c| c.apply_us), 100.0),
                "us",
            ),
            metric("reload.clone_us", us(&costs(|c| c.clone_us), 50.0), "us"),
        ]);
    }
    out
}

/// Run one served workload. A traced run drives two servers back to back
/// with the same requests, the first plain and the second writing its
/// access log, so the tracing overhead is measured within the run.
pub fn run(kind: Workload, opts: &Opts, scale: &Scale) -> Result<Outcome, String> {
    // Set-up: world generation, offline build and bind.
    let (setup, setup_s) = repeat_setup(scale, || -> Result<(Bundle, Bound), String> {
        let (tel, sink) = if opts.trace {
            let (tel, sink) = Telemetry::recording();
            (tel, Some(sink))
        } else {
            (Telemetry::disabled(), None)
        };
        let mut bundle = build(kind, &tel)?;
        if let Some(sink) = sink {
            bundle.offline = bundle.offline.with_spans(&sink.report());
        }
        let bound = bind(&bundle, None)?;
        Ok((bundle, bound))
    });
    let (bundle, bound) = setup?;

    let spec = Spec::new(kind, &bundle.world, opts.seed, scale);
    let fields: Vec<String> = spec
        .selects
        .iter()
        .map(|s| s.fields(&bundle.world))
        .collect();
    let firsts = spec.firsts();
    let body = |seq: u64| fields[spec.pick(seq)].as_str();
    let keep = |seq: u64| seq.is_multiple_of(VERIFY_EVERY) || firsts.contains(&seq);
    let span = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let open = span.mul_f64(2.0 / 3.0);
    let arrivals = spec.arrivals(open);
    let reloads = spec.reloads(span);
    let plan = Plan {
        arrivals: &arrivals,
        open,
        closed: span - open,
        depth: CLOSED_DEPTH,
        reloads: &reloads,
        body: &body,
        keep: &keep,
    };
    let plain = drive(bound, &plan)?;
    let verified = verify(&bundle, &spec, &plain, false)?;
    let mut outcome = Outcome {
        attempted: plain.attempted(),
        failed: plain.failed(),
        gates: gates(kind, &spec, &plain, &verified),
        details: [metric("models", bundle.world.n_models() as f64, "count")]
            .into_iter()
            .chain(phase_details(&plain))
            .collect(),
        ..Outcome::default()
    };

    if !opts.trace {
        let (epochs, regret) = quality(&bundle, &spec)?;
        let e2e = EndToEnd {
            setup_s,
            latencies: plain.latencies(false),
            window_s: LATENCY_WINDOW.as_secs_f64(),
            throughput: stats::per_window(
                &plain.latencies(true),
                THROUGHPUT_WINDOW.as_secs_f64(),
                |v| stats::closed_loop_rate(v, CLOSED_DEPTH),
            ),
            epochs,
            regret,
            rss_mb: plain.report.open_rss_mb,
        };
        outcome.metrics = e2e.metrics();
        outcome.details.extend(e2e.details());
        return Ok(outcome);
    }

    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let log = opts.scratch.join(format!(
        "access-{}-{}.jsonl",
        kind.name(),
        std::process::id()
    ));
    let traced = drive(bind(&bundle, Some(&log))?, &plan)?;
    let access = access_records(&log);
    std::fs::remove_file(&log).map_err(|e| format!("access log: {e}"))?;
    // Only succeeds once the directory is empty; another run may share it.
    let _ = std::fs::remove_dir(&opts.scratch);
    let access = access?;
    let replayed = verify(&bundle, &spec, &traced, true)?;
    outcome.gates.extend(gates(kind, &spec, &traced, &replayed));
    outcome.attempted += traced.attempted();
    outcome.failed += traced.failed();
    let (serve_metrics, miss_exec) = serve_layers(&traced, &access);
    outcome.details.extend(serve_metrics);
    let unattributed = replayed
        .layers
        .iter()
        .filter_map(|(seq, l)| {
            miss_exec
                .get(seq)
                .map(|exec| 1.0 - l.attributed_us() / exec)
        })
        .collect();
    let p50 = |p: &Phase| stats::median(&p.open_latencies()).unwrap_or(f64::NAN);
    outcome.metrics = PerLayer {
        layers: replayed.layers.into_iter().map(|(_, l)| l).collect(),
        offline: bundle.offline.clone(),
        overhead_pct: (p50(&traced) / p50(&plain) - 1.0) * 100.0,
        unattributed,
    }
    .metrics();
    Ok(outcome)
}
