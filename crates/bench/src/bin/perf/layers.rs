//! Per-layer attribution of one selection, measured from outside the
//! program: the request is replayed one-shot through the public phase
//! functions (`coarse_recall_ann_traced`, `fine_selection_traced`,
//! `assemble_outcome`) with timing wrappers around the substrate, then
//! serialised. Callers check that the replay's bytes equal the plain
//! `two_phase_select` run, so the split describes the code path that
//! actually serves the request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tps_core::error::Result;
use tps_core::ids::ModelId;
use tps_core::pipeline::{assemble_outcome, OfflineArtifacts, PipelineConfig, PipelineOutcome};
use tps_core::proxy::leep::leep;
use tps_core::recall::coarse_recall_ann_traced;
use tps_core::select::fine::fine_selection_traced;
use tps_core::telemetry::Telemetry;
use tps_core::traits::{ProxyOracle, TargetTrainer};

/// Where one selection's time went, in microseconds, plus its work counts.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Inside `ProxyOracle::predictions` (the model's inference pass).
    pub proxy_predict_us: f64,
    /// Inside `leep` on those predictions.
    pub leep_us: f64,
    /// The rest of coarse recall: Eq. 3/4, normalisation, top-K and the
    /// ANN candidate search.
    pub recall_rest_us: f64,
    /// Inside the trainer (`advance`, `advance_many`, `test`).
    pub train_us: f64,
    /// The rest of fine selection: filtering, halving and bookkeeping.
    pub select_rest_us: f64,
    /// Serialising the response payload.
    pub serialize_us: f64,
    /// Response payload size.
    pub response_bytes: f64,
    /// Proxy evaluations in recall.
    pub proxy_evals: f64,
    /// Fine-selection stages run.
    pub stages: f64,
    /// Training epochs charged by fine selection.
    pub train_epochs: f64,
}

impl Layers {
    /// Time attributed to the layers of this split.
    pub fn attributed_us(&self) -> f64 {
        self.proxy_predict_us
            + self.leep_us
            + self.recall_rest_us
            + self.train_us
            + self.select_rest_us
            + self.serialize_us
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A trainer that forwards every call and accumulates the time spent in it.
struct TimedTrainer<'t> {
    inner: &'t mut dyn TargetTrainer,
    busy: Duration,
}

impl TimedTrainer<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn TargetTrainer) -> R) -> R {
        let started = Instant::now();
        let out = f(&mut *self.inner);
        self.busy += started.elapsed();
        out
    }
}

impl TargetTrainer for TimedTrainer<'_> {
    fn advance(&mut self, model: ModelId) -> Result<f64> {
        self.timed(|t| t.advance(model))
    }

    fn test(&mut self, model: ModelId) -> Result<f64> {
        self.timed(|t| t.test(model))
    }

    fn stages_trained(&self, model: ModelId) -> usize {
        self.inner.stages_trained(model)
    }

    fn epochs_per_stage(&self) -> f64 {
        self.inner.epochs_per_stage()
    }

    fn advance_many(&mut self, pool: &[ModelId], threads: usize) -> Result<Vec<f64>> {
        self.timed(|t| t.advance_many(pool, threads))
    }
}

/// Replay one selection phase by phase and serialise its outcome with
/// `serialize`. Returns the serialised payload and the layer split. The
/// phases run exactly as `two_phase_select_traced` wires them.
pub fn replay(
    artifacts: &OfflineArtifacts,
    oracle: &(dyn ProxyOracle + Sync),
    trainer: &mut dyn TargetTrainer,
    config: &PipelineConfig,
    serialize: impl FnOnce(PipelineOutcome) -> String,
) -> Result<(String, Layers)> {
    let threads = config.parallel.resolve();
    let off = Telemetry::disabled();
    let (predict_ns, leep_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let started = Instant::now();
    let recall = coarse_recall_ann_traced(
        &artifacts.matrix,
        &artifacts.clustering,
        &artifacts.similarity,
        &config.recall,
        &config.ann,
        artifacts.ann.as_ref(),
        threads,
        |rep| {
            let t = Instant::now();
            let predictions = oracle.predictions(rep);
            predict_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let t = Instant::now();
            let score = leep(
                &predictions?,
                oracle.target_labels(),
                oracle.n_target_labels(),
            );
            leep_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            score
        },
        &off,
    )?;
    let recall_us = us(started.elapsed());

    let mut timed = TimedTrainer {
        inner: trainer,
        busy: Duration::ZERO,
    };
    let started = Instant::now();
    let selection = fine_selection_traced(
        &mut timed,
        &recall.recalled,
        config.total_stages,
        &artifacts.trends,
        &config.fine,
        threads,
        &off,
    )?;
    let select_us = us(started.elapsed());
    let train_us = us(timed.busy);

    let outcome = assemble_outcome(recall, selection);
    let proxy_evals = outcome.counters.proxy_evals as f64;
    let stages = outcome.counters.stages as f64;
    let train_epochs = outcome.counters.train_epochs;
    let started = Instant::now();
    let payload = serialize(outcome);
    let serialize_us = us(started.elapsed());

    let proxy_predict_us = predict_ns.into_inner() as f64 / 1e3;
    let leep_us = leep_ns.into_inner() as f64 / 1e3;
    let layers = Layers {
        proxy_predict_us,
        leep_us,
        recall_rest_us: recall_us - proxy_predict_us - leep_us,
        train_us,
        select_rest_us: select_us - train_us,
        serialize_us,
        response_bytes: payload.len() as f64,
        proxy_evals,
        stages,
        train_epochs,
    };
    Ok((payload, layers))
}
