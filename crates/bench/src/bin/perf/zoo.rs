//! `zoo-20k`: selection over a 20,000-model zoo, in-process.
//!
//! The zoo is 4,500 tight 4-member families around well-separated anchors
//! plus 2,000 singletons over 8 benchmarks, built with
//! `StreamingOfflineBuilder` in ANN-indexed mode (the shape the `ann`
//! Criterion bench uses). `World::synthetic` cannot stand in at this size:
//! it anchors families on benchmark domains, so ~20k models percolate into
//! a handful of clusters and recall degenerates to a proxy call or two.
//!
//! The substrate is defined here through the public `ProxyOracle` and
//! `TargetTrainer` traits. A model's accuracy on a target is a fixed
//! function of its benchmark vector, so the best model — and therefore
//! the regret of every selection — is known exactly.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use tps_core::ann::{AnnConfig, AnnMode};
use tps_core::curve::LearningCurve;
use tps_core::error::{Result, SelectionError};
use tps_core::ids::ModelId;
use tps_core::parallel::{split_seed, ParallelConfig};
use tps_core::pipeline::{
    two_phase_select, OfflineArtifacts, OfflineConfig, PipelineConfig, PipelineOutcome,
};
use tps_core::proxy::PredictionMatrix;
use tps_core::recall::RecallConfig;
use tps_core::stream::StreamingOfflineBuilder;
use tps_core::telemetry::Telemetry;
use tps_core::traits::{ProxyOracle, TargetTrainer};
use tps_core::trend::mine_trends;

use crate::layers::{self, Layers};
use crate::{
    gate, metric, permutation, repeat_setup, stats, unit, EndToEnd, Gate, Offline, Opts, Outcome,
    PerLayer, Scale,
};

const DIMS: usize = 8;
const TARGETS: usize = 16;
const TOP_KS: [usize; 2] = [10, 20];
/// Fine-tuning stages (the benchmark curves are 3 stages long).
const STAGES: usize = 3;
/// Target samples, source labels and target labels of every prediction
/// matrix — the size of a cached-inference proxy eval.
const SAMPLES: usize = 512;
const SOURCE_LABELS: usize = 8;
const TARGET_LABELS: usize = 4;
/// The zoo is fixed; `--seed` only orders the selections.
const ZOO_SEED: u64 = 17;
/// Window behind the reported latency percentiles and throughput (see
/// [`crate::EndToEnd`]); a selection takes ~0.2 s, so ~10 per window.
const WINDOW: Duration = Duration::from_secs(2);

fn indexed() -> AnnConfig {
    AnnConfig {
        mode: AnnMode::Indexed,
        ..AnnConfig::default()
    }
}

/// The zoo's ground truth: each model's benchmark vector and each target's
/// accuracy weights and labels.
struct Zoo {
    vectors: Vec<[f64; DIMS]>,
    weights: Vec<[f64; DIMS]>,
    labels: Vec<Vec<usize>>,
    /// Best accuracy on each target over the whole zoo.
    best: Vec<f64>,
}

impl Zoo {
    fn generate(families: usize, singletons: usize) -> Zoo {
        let mut n = 0u64;
        let mut draw = || {
            n += 1;
            unit(split_seed(ZOO_SEED.wrapping_mul(0x1000_0000_01b3) ^ n, 0))
        };
        let mut vectors = Vec::with_capacity(4 * families + singletons);
        for _ in 0..families {
            let anchor: [f64; DIMS] = std::array::from_fn(|_| 0.05 + 0.89 * draw());
            for _ in 0..4 {
                vectors.push(anchor.map(|a| a + 0.002 * draw()));
            }
        }
        for _ in 0..singletons {
            vectors.push(std::array::from_fn(|_| 0.02 + 0.96 * draw()));
        }
        let weights: Vec<[f64; DIMS]> = (0..TARGETS)
            .map(|_| std::array::from_fn(|_| draw().powi(2)))
            .collect();
        let labels = (0..TARGETS)
            .map(|_| {
                (0..SAMPLES)
                    .map(|_| (draw() * TARGET_LABELS as f64) as usize % TARGET_LABELS)
                    .collect()
            })
            .collect();
        let mut zoo = Zoo {
            vectors,
            weights,
            labels,
            best: Vec::new(),
        };
        zoo.best = (0..TARGETS)
            .map(|t| {
                (0..zoo.vectors.len())
                    .map(|m| zoo.accuracy(m, t))
                    .fold(f64::MIN, f64::max)
            })
            .collect();
        zoo
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Final accuracy of model `m` fine-tuned on target `t`: a weighted
    /// mean of its benchmark accuracies plus a small model-specific term.
    fn accuracy(&self, m: usize, t: usize) -> f64 {
        let w = &self.weights[t];
        let dot: f64 = w.iter().zip(&self.vectors[m]).map(|(a, b)| a * b).sum();
        let own = unit(split_seed((m as u64) << 8 | t as u64, 0)) - 0.5;
        (0.25 + 0.7 * dot / w.iter().sum::<f64>() + 0.03 * own).clamp(0.01, 0.99)
    }

    /// Validation accuracy after `stage + 1` stages: models converge at
    /// different speeds, so early stages can mislead the halving.
    fn val(&self, m: usize, t: usize, stage: usize) -> f64 {
        let speed = 0.5 + 1.5 * unit(split_seed(m as u64 ^ 0x5bd1_e995, 0));
        let done = ((stage.min(STAGES - 1) + 1) as f64 / STAGES as f64).powf(speed);
        self.accuracy(m, t) * (0.6 + 0.4 * done)
    }

    /// Benchmark learning curves of model `m`, in benchmark order.
    fn curves(&self, m: usize) -> Result<Vec<LearningCurve>> {
        self.vectors[m]
            .iter()
            .map(|&v| LearningCurve::new(vec![0.7 * v, 0.9 * v, v], v))
            .collect()
    }

    fn check(&self, model: ModelId) -> Result<usize> {
        let m = model.index();
        if m >= self.len() {
            return Err(SelectionError::UnknownId {
                what: "model",
                id: m,
            });
        }
        Ok(m)
    }
}

struct Oracle<'z> {
    zoo: &'z Zoo,
    target: usize,
}

impl ProxyOracle for Oracle<'_> {
    /// Each sample puts the model's accuracy worth of mass on a source
    /// label tied to the sample's target label, so LEEP tracks accuracy.
    fn predictions(&self, model: ModelId) -> Result<PredictionMatrix> {
        let m = self.zoo.check(model)?;
        let q = self.zoo.accuracy(m, self.target);
        let mut rows = Vec::with_capacity(SAMPLES * SOURCE_LABELS);
        for (i, &y) in self.zoo.labels[self.target].iter().enumerate() {
            let salt = ((m * SAMPLES + i) as u64) << 4 | self.target as u64;
            let mut row: [f64; SOURCE_LABELS] = std::array::from_fn(|z| {
                (1.0 - q) * (0.5 + unit(split_seed(salt << 4 | z as u64, 0)))
            });
            row[(2 * y + m % 2) % SOURCE_LABELS] += 4.0 * q;
            let sum: f64 = row.iter().sum();
            rows.extend(row.iter().map(|p| p / sum));
        }
        PredictionMatrix::new(SOURCE_LABELS, rows)
    }

    fn target_labels(&self) -> &[usize] {
        &self.zoo.labels[self.target]
    }

    fn n_target_labels(&self) -> usize {
        TARGET_LABELS
    }
}

struct Trainer<'z> {
    zoo: &'z Zoo,
    target: usize,
    trained: HashMap<usize, usize>,
}

impl TargetTrainer for Trainer<'_> {
    fn advance(&mut self, model: ModelId) -> Result<f64> {
        let m = self.zoo.check(model)?;
        let stage = self.trained.entry(m).or_insert(0);
        *stage += 1;
        Ok(self.zoo.val(m, self.target, *stage - 1))
    }

    fn test(&mut self, model: ModelId) -> Result<f64> {
        let m = self.zoo.check(model)?;
        match self.trained.get(&m) {
            Some(&stage) if stage > 0 => Ok(0.99 * self.zoo.val(m, self.target, stage - 1)),
            _ => Err(SelectionError::InvalidConfig(
                "test() before any training stage".into(),
            )),
        }
    }

    fn stages_trained(&self, model: ModelId) -> usize {
        self.trained.get(&model.index()).copied().unwrap_or(0)
    }
}

/// The zoo with its streamed, indexed offline artifacts.
struct Built {
    zoo: Zoo,
    artifacts: OfflineArtifacts,
    offline: Offline,
    push_s: f64,
    finish_s: f64,
}

fn build(scale: &Scale, tel: &Telemetry) -> Result<Built> {
    let started = Instant::now();
    let zoo = Zoo::generate(scale.zoo_families, scale.zoo_singletons);
    let world_s = started.elapsed().as_secs_f64();
    let mut builder = StreamingOfflineBuilder::new(
        (0..DIMS).map(|j| format!("bench-{j}")).collect(),
        OfflineConfig {
            ann: indexed(),
            ..OfflineConfig::default()
        },
    )?;
    let (mut curves_s, mut push_s) = (0.0, 0.0);
    for m in 0..zoo.len() {
        let started = Instant::now();
        let curves = zoo.curves(m)?;
        curves_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        builder.push_model(format!("model-{m}"), &curves)?;
        push_s += started.elapsed().as_secs_f64();
    }
    let started = Instant::now();
    let artifacts = builder.finish_traced(tel)?;
    let finish_s = started.elapsed().as_secs_f64();
    Ok(Built {
        zoo,
        artifacts,
        offline: Offline {
            world_s,
            curves_s,
            ..Offline::default()
        },
        push_s,
        finish_s,
    })
}

/// Seconds spent mining every model's convergence trends. The streamed
/// build mines them inside `push_model`, where the `offline.trends` span
/// does not reach, so a traced run times the same mining on its own.
fn trend_mining_s(zoo: &Zoo) -> Result<f64> {
    let config = OfflineConfig::default();
    let mut busy = Duration::ZERO;
    for m in 0..zoo.len() {
        let curves = zoo.curves(m)?;
        let started = Instant::now();
        mine_trends(&curves, config.trend_stages, &config.trend)?;
        busy += started.elapsed();
    }
    Ok(busy.as_secs_f64())
}

fn config(top_k: usize) -> PipelineConfig {
    PipelineConfig {
        recall: RecallConfig {
            top_k,
            ..RecallConfig::default()
        },
        total_stages: STAGES,
        parallel: ParallelConfig { threads: 1 },
        ann: indexed(),
        ..PipelineConfig::default()
    }
}

fn select(built: &Built, (target, top_k): (usize, usize)) -> Result<PipelineOutcome> {
    let oracle = Oracle {
        zoo: &built.zoo,
        target,
    };
    let mut trainer = Trainer {
        zoo: &built.zoo,
        target,
        trained: HashMap::new(),
    };
    two_phase_select(&built.artifacts, &oracle, &mut trainer, &config(top_k))
}

/// Why `outcome` is not a valid selection of `top_k` models, if it is not:
/// ledger arithmetic, the winner's provenance, Algorithm 1's halving cap
/// and the indexed recall's sublinear proxy fan-out.
fn invalid(outcome: &PipelineOutcome, top_k: usize, n_models: usize) -> Option<String> {
    let c = &outcome.counters;
    let ann = indexed();
    let log2 = (usize::BITS - (n_models.max(2) - 1).leading_zeros()) as usize;
    if outcome.ledger.total() != c.total_epochs || c.proxy_epochs + c.train_epochs != c.total_epochs
    {
        return Some(format!(
            "ledger {} vs counters {c:?}",
            outcome.ledger.total()
        ));
    }
    if outcome.recall.recalled.len() != top_k.min(n_models) {
        return Some(format!("recalled {} of top_k {top_k}", c.recalled));
    }
    if !outcome.recall.recalled.contains(&outcome.selection.winner) {
        return Some("winner was not recalled".to_string());
    }
    for (pool, kept) in c.pool_per_stage.iter().zip(&c.survivors_per_stage) {
        if *pool > 1 && *kept > (pool / 2).max(1) {
            return Some(format!("stage kept {kept} of {pool}"));
        }
    }
    if c.proxy_evals > ann.seed_reps + ann.k * log2 {
        return Some(format!(
            "{} proxy evals exceed the ANN fan-out",
            c.proxy_evals
        ));
    }
    None
}

/// What a timed selection loop saw.
#[derive(Default)]
struct Loop {
    /// `(when started, latency)` per selection, in seconds.
    latencies: Vec<(f64, f64)>,
    selections: u64,
    errors: Vec<String>,
    invalid: Vec<String>,
    mismatches: Vec<String>,
    /// Traced loops: the layer split of every selection, and the share of
    /// its wall-clock the split does not cover.
    layers: Vec<Layers>,
    unattributed: Vec<f64>,
}

impl Loop {
    fn median_latency(&self) -> f64 {
        let all: Vec<f64> = self.latencies.iter().map(|&(_, l)| l).collect();
        stats::median(&all).unwrap_or(f64::NAN)
    }

    fn gates(&self, what: &str) -> Vec<Gate> {
        let list = |v: &[String]| format!("{} {:?}", v.len(), &v[..v.len().min(3)]);
        vec![
            gate(
                "no_errors",
                self.errors.is_empty(),
                format!("{what}: {}", list(&self.errors)),
            ),
            gate(
                "invariants",
                self.invalid.is_empty(),
                format!("{what}: {}", list(&self.invalid)),
            ),
            gate(
                "byte_identical",
                self.mismatches.is_empty(),
                format!(
                    "{what}: {} of {} selections differ",
                    self.mismatches.len(),
                    self.selections
                ),
            ),
        ]
    }
}

/// Run selections in a closed loop for `span`, walking the seeded `order`
/// over `pairs`. Each outcome is checked against the first outcome of its
/// pair (`reference`, filled as pairs are first seen). A traced loop runs
/// each selection phase by phase through [`layers::replay`] instead.
fn run_loop(
    built: &Built,
    pairs: &[(usize, usize)],
    order: &[usize],
    span: Duration,
    traced: bool,
    reference: &mut HashMap<usize, PipelineOutcome>,
) -> Loop {
    let mut out = Loop::default();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed() < span || i == 0 {
        let p = order[i % order.len()];
        i += 1;
        let (target, top_k) = pairs[p];
        out.selections += 1;
        let t0 = Instant::now();
        let when = (t0 - started).as_secs_f64();
        let result = if traced {
            let oracle = Oracle {
                zoo: &built.zoo,
                target,
            };
            let mut trainer = Trainer {
                zoo: &built.zoo,
                target,
                trained: HashMap::new(),
            };
            // The zoo has no wire protocol; the serialised outcome stands in
            // for the response a service would send.
            let mut kept = None;
            layers::replay(
                &built.artifacts,
                &oracle,
                &mut trainer,
                &config(top_k),
                |o| {
                    let payload = serde_json::to_string(&o).expect("an outcome serializes");
                    kept = Some(o);
                    payload
                },
            )
            .map(|(_, l)| {
                let wall_us = t0.elapsed().as_secs_f64() * 1e6;
                out.unattributed.push(1.0 - l.attributed_us() / wall_us);
                out.latencies.push((when, (wall_us - l.serialize_us) / 1e6));
                out.layers.push(l);
                kept.expect("replay serialized its outcome")
            })
        } else {
            select(built, (target, top_k)).inspect(|_| {
                out.latencies.push((when, t0.elapsed().as_secs_f64()));
            })
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                out.errors
                    .push(format!("target {target} top_k {top_k}: {e}"));
                continue;
            }
        };
        if let Some(why) = invalid(&outcome, top_k, built.zoo.len()) {
            out.invalid
                .push(format!("target {target} top_k {top_k}: {why}"));
        }
        match reference.get(&p) {
            Some(first) if *first != outcome => {
                out.mismatches
                    .push(format!("target {target} top_k {top_k}"));
            }
            Some(_) => {}
            None => {
                reference.insert(p, outcome);
            }
        }
    }
    out
}

/// Run `zoo-20k`. A traced run spends the first half of its time in the
/// plain loop and the second half replaying selections phase by phase.
pub fn run(opts: &Opts, scale: &Scale) -> std::result::Result<Outcome, String> {
    let (built, setup_s) = repeat_setup(scale, || -> Result<(Built, Option<Offline>)> {
        if opts.trace {
            let (tel, sink) = Telemetry::recording();
            let built = build(scale, &tel)?;
            let offline = built.offline.with_spans(&sink.report());
            Ok((built, Some(offline)))
        } else {
            Ok((build(scale, &Telemetry::disabled())?, None))
        }
    });
    let (built, offline) = built.map_err(|e| format!("zoo build: {e}"))?;
    let offline = match offline {
        Some(offline) => Some(Offline {
            trends_s: trend_mining_s(&built.zoo).map_err(|e| format!("trend mining: {e}"))?,
            ..offline
        }),
        None => None,
    };

    let pairs: Vec<(usize, usize)> = (0..TARGETS).flat_map(|t| TOP_KS.map(|k| (t, k))).collect();
    let order = permutation(pairs.len(), opts.seed);
    let span = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut reference = HashMap::new();
    let plain = run_loop(&built, &pairs, &order, span, false, &mut reference);
    // Re-run the first selection once, so determinism is checked even when
    // the loop never came back to a pair.
    let again = run_loop(
        &built,
        &pairs,
        &order[..1],
        Duration::ZERO,
        false,
        &mut reference,
    );

    let mut outcome = Outcome {
        attempted: plain.selections + again.selections,
        failed: (plain.errors.len() + again.errors.len()) as u64,
        gates: plain.gates("loop"),
        details: vec![
            metric("models", built.zoo.len() as f64, "count"),
            metric(
                "clusters",
                built.artifacts.clustering.n_clusters() as f64,
                "count",
            ),
            metric("offline.stream_push_s", built.push_s, "s"),
            metric("offline.stream_finish_s", built.finish_s, "s"),
        ],
        ..Outcome::default()
    };
    outcome.gates.extend(again.gates("repeat"));

    if let Some(offline) = offline {
        let traced = run_loop(&built, &pairs, &order, span, true, &mut reference);
        outcome.attempted += traced.selections;
        outcome.failed += traced.errors.len() as u64;
        outcome.gates.extend(traced.gates("replay"));
        outcome.metrics = PerLayer {
            overhead_pct: (traced.median_latency() / plain.median_latency() - 1.0) * 100.0,
            layers: traced.layers,
            offline,
            unattributed: traced.unattributed,
        }
        .metrics();
        return Ok(outcome);
    }

    // Quality over every (target, top_k) pair, whether or not the timed
    // loop reached it.
    let (mut epochs, mut regret) = (Vec::new(), Vec::new());
    for (p, &pair) in pairs.iter().enumerate() {
        let o = match reference.entry(p) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                e.insert(select(&built, pair).map_err(|e| format!("zoo select: {e}"))?)
            }
        };
        epochs.push(o.ledger.total());
        regret
            .push(built.zoo.best[pair.0] - built.zoo.accuracy(o.selection.winner.index(), pair.0));
    }
    let window_s = WINDOW.as_secs_f64();
    let throughput = stats::per_window(&plain.latencies, window_s, |v| {
        stats::closed_loop_rate(v, 1)
    });
    let e2e = EndToEnd {
        setup_s,
        latencies: plain.latencies,
        window_s,
        throughput,
        epochs,
        regret,
        rss_mb: crate::rss_peak_mb(),
    };
    outcome.metrics = e2e.metrics();
    outcome.details.extend(e2e.details());
    Ok(outcome)
}
