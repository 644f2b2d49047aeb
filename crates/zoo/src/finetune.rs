//! Substrate implementations of the `tps-core` traits for a [`World`]:
//! incremental fine-tuning on a target dataset ([`ZooTrainer`]) and
//! prediction-matrix generation for proxy scoring ([`ZooOracle`]).

use crate::features::{synthesize_features, FEATURE_DIM};
use crate::predictions::synthesize_predictions;
use crate::transfer::TransferRun;
use crate::world::World;
use tps_core::error::{Result, SelectionError};
use tps_core::ids::ModelId;
use tps_core::proxy::PredictionMatrix;
use tps_core::telemetry::Telemetry;
use tps_core::traits::{FeatureOracle, ProxyOracle, TargetTrainer};

/// Incremental fine-tuning of the world's models on one target dataset.
///
/// Each model's full trajectory is lazily materialised from the transfer
/// law on first touch; `advance` walks it one stage at a time, `test` reads
/// the test trace at the model's current stage — exactly the view a real
/// training loop would provide (a model stopped early has an early-stopped
/// test accuracy).
#[derive(Debug)]
pub struct ZooTrainer<'w> {
    world: &'w World,
    target: usize,
    runs: Vec<Option<TransferRun>>,
    stages_trained: Vec<usize>,
    tel: Telemetry,
}

impl<'w> ZooTrainer<'w> {
    /// Create a trainer for `world.targets[target]`.
    pub fn new(world: &'w World, target: usize) -> Result<Self> {
        if target >= world.n_targets() {
            return Err(SelectionError::UnknownId {
                what: "target dataset",
                id: target,
            });
        }
        Ok(Self {
            world,
            target,
            runs: vec![None; world.n_models()],
            stages_trained: vec![0; world.n_models()],
            tel: Telemetry::disabled(),
        })
    }

    /// Record `zoo.train.{stages, runs}` counters on `tel` (per training
    /// stage advanced / per transfer run materialised). Counter values are
    /// identical whether stages are advanced serially or via the parallel
    /// `advance_many` fan-out.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    fn check_model(&self, model: ModelId) -> Result<()> {
        if model.index() >= self.world.n_models() {
            return Err(SelectionError::UnknownId {
                what: "model",
                id: model.index(),
            });
        }
        Ok(())
    }

    fn run_for(&mut self, model: ModelId) -> Result<&TransferRun> {
        self.check_model(model)?;
        let idx = model.index();
        if self.runs[idx].is_none() {
            self.runs[idx] = Some(self.world.target_run(model, self.target));
            self.tel.incr("zoo.train.runs");
        }
        Ok(self.runs[idx].as_ref().expect("just filled"))
    }

    /// Models in `pool` whose transfer run is not yet materialised, deduped,
    /// in pool order. Validates like a serial `advance` loop: the first
    /// invalid model (in pool order) errors before any run is synthesised.
    fn missing_runs(&self, pool: &[ModelId]) -> Result<Vec<ModelId>> {
        let mut seen = vec![false; self.world.n_models()];
        let mut missing = Vec::new();
        for &m in pool {
            self.check_model(m)?;
            if self.runs[m.index()].is_none() && !seen[m.index()] {
                seen[m.index()] = true;
                missing.push(m);
            }
        }
        Ok(missing)
    }
}

impl TargetTrainer for ZooTrainer<'_> {
    fn advance(&mut self, model: ModelId) -> Result<f64> {
        self.check_model(model)?;
        let t = self.stages_trained[model.index()];
        let run = self.run_for(model)?;
        let val = run.vals[t.min(run.vals.len() - 1)];
        self.stages_trained[model.index()] += 1;
        self.tel.incr("zoo.train.stages");
        Ok(val)
    }

    fn test(&mut self, model: ModelId) -> Result<f64> {
        self.check_model(model)?;
        let t = self.stages_trained[model.index()];
        if t == 0 {
            return Err(SelectionError::InvalidConfig(
                "test() before any training stage".into(),
            ));
        }
        let run = self.run_for(model)?;
        Ok(run.tests[(t - 1).min(run.tests.len() - 1)])
    }

    fn stages_trained(&self, model: ModelId) -> usize {
        self.stages_trained[model.index()]
    }

    /// Parallel stage fan-out: the expensive part of `advance` is lazily
    /// materialising a model's transfer run, which is a pure function of
    /// `(world, model, target)` — so missing runs are synthesised across
    /// `threads` workers and the (cheap) stage bookkeeping stays serial.
    /// Bit-identical to the serial loop.
    fn advance_many(&mut self, pool: &[ModelId], threads: usize) -> Result<Vec<f64>> {
        // Serial semantics: the first invalid model (in pool order) errors
        // before any state changes for later models. Duplicates in `pool`
        // are fine — the run is only materialised once.
        let missing = self.missing_runs(pool)?;
        let world = self.world;
        let target = self.target;
        let runs =
            tps_core::parallel::map_indexed(&missing, threads, |_, &m| world.target_run(m, target));
        // Counted in bulk (outside the workers) so serial and parallel runs
        // record identical totals; `run_for` then sees the runs as present.
        self.tel.add("zoo.train.runs", missing.len() as f64);
        for (&m, run) in missing.iter().zip(runs) {
            self.runs[m.index()] = Some(run);
        }
        pool.iter().map(|&m| self.advance(m)).collect()
    }
}

/// Prediction-matrix oracle for one target dataset.
#[derive(Debug)]
pub struct ZooOracle<'w> {
    world: &'w World,
    target: usize,
    labels: Vec<usize>,
}

impl<'w> ZooOracle<'w> {
    /// Create an oracle for `world.targets[target]`.
    pub fn new(world: &'w World, target: usize) -> Result<Self> {
        if target >= world.n_targets() {
            return Err(SelectionError::UnknownId {
                what: "target dataset",
                id: target,
            });
        }
        let labels = world.targets[target].proxy_labels();
        Ok(Self {
            world,
            target,
            labels,
        })
    }
}

impl FeatureOracle for ZooOracle<'_> {
    fn features(&self, model: ModelId) -> Result<(Vec<f64>, usize, usize)> {
        if model.index() >= self.world.n_models() {
            return Err(SelectionError::UnknownId {
                what: "model",
                id: model.index(),
            });
        }
        let f = synthesize_features(
            &self.world.law,
            &self.world.models[model.index()],
            &self.world.targets[self.target],
            self.world.seed,
        );
        let n = self.labels.len();
        Ok((f, n, FEATURE_DIM))
    }
}

impl ProxyOracle for ZooOracle<'_> {
    fn predictions(&self, model: ModelId) -> Result<PredictionMatrix> {
        if model.index() >= self.world.n_models() {
            return Err(SelectionError::UnknownId {
                what: "model",
                id: model.index(),
            });
        }
        synthesize_predictions(
            &self.world.law,
            &self.world.models[model.index()],
            &self.world.targets[self.target],
            self.world.seed,
        )
    }

    fn target_labels(&self) -> &[usize] {
        &self.labels
    }

    fn n_target_labels(&self) -> usize {
        self.world.targets[self.target].n_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn trainer_walks_the_curve() {
        let w = World::cv(5);
        let mut t = ZooTrainer::new(&w, 0).unwrap();
        let m = ModelId(0);
        assert_eq!(t.stages_trained(m), 0);
        let v1 = t.advance(m).unwrap();
        let v2 = t.advance(m).unwrap();
        assert_eq!(t.stages_trained(m), 2);
        let run = w.target_run(m, 0);
        assert_eq!(v1, run.vals[0]);
        assert_eq!(v2, run.vals[1]);
        assert_eq!(t.test(m).unwrap(), run.tests[1]);
    }

    #[test]
    fn advance_many_matches_serial_advance() {
        let w = World::cv(5);
        let pool: Vec<ModelId> = (0..w.n_models()).map(ModelId::from).collect();
        let mut serial = ZooTrainer::new(&w, 0).unwrap();
        let mut expected = Vec::new();
        for _ in 0..3 {
            expected.push(
                pool.iter()
                    .map(|&m| serial.advance(m).unwrap())
                    .collect::<Vec<_>>(),
            );
        }
        for threads in [1, 2, 4] {
            let mut par = ZooTrainer::new(&w, 0).unwrap();
            for stage_vals in &expected {
                assert_eq!(&par.advance_many(&pool, threads).unwrap(), stage_vals);
            }
            assert_eq!(par.stages_trained(pool[0]), 3);
        }
        // Invalid ids error without touching state, like the serial loop.
        let mut t = ZooTrainer::new(&w, 0).unwrap();
        assert!(t.advance_many(&[ModelId(0), ModelId(1000)], 4).is_err());
        assert_eq!(t.stages_trained(ModelId(0)), 0);
    }

    #[test]
    fn faulted_advance_many_reports_first_pool_order_model() {
        use tps_core::error::FaultClass;
        use tps_core::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultyTrainer};
        let w = World::cv(5);
        // Faults on m1 and m3; the pool lists m3 first, so the batch must
        // report m3 for any thread count, not the lowest faulted id.
        let plan = FaultPlan::new(vec![
            FaultSpec {
                site: FaultSite::Advance,
                model: ModelId(1),
                attempt: 0,
                kind: FaultKind::Transient,
            },
            FaultSpec {
                site: FaultSite::Advance,
                model: ModelId(3),
                attempt: 0,
                kind: FaultKind::Permanent,
            },
        ]);
        let pool = vec![ModelId(3), ModelId(0), ModelId(1), ModelId(2)];
        for threads in [1, 2, 4] {
            let mut t = FaultyTrainer::new(ZooTrainer::new(&w, 0).unwrap(), plan.clone());
            let err = t.advance_many(&pool, threads).unwrap_err();
            assert_eq!(err.fault_model(), Some(3), "threads={threads}");
            assert_eq!(err.classify(), FaultClass::Permanent);
            // Transactional: the failed batch advanced nobody.
            for &m in &pool {
                assert_eq!(t.stages_trained(m), 0, "threads={threads}");
            }
            // The failed batch consumed every model's scripted attempt, so
            // the retry batch is clean and matches an unwrapped serial run.
            let vals = t.advance_many(&pool, threads).unwrap();
            let mut plain = ZooTrainer::new(&w, 0).unwrap();
            let expected: Vec<f64> = pool.iter().map(|&m| plain.advance(m).unwrap()).collect();
            assert_eq!(vals, expected, "threads={threads}");
        }
    }

    #[test]
    fn test_before_training_is_an_error() {
        let w = World::cv(5);
        let mut t = ZooTrainer::new(&w, 0).unwrap();
        assert!(t.test(ModelId(0)).is_err());
    }

    #[test]
    fn training_past_budget_clamps() {
        let w = World::cv(5); // 4 stages
        let mut t = ZooTrainer::new(&w, 1).unwrap();
        let m = ModelId(3);
        for _ in 0..6 {
            t.advance(m).unwrap();
        }
        let run = w.target_run(m, 1);
        assert_eq!(t.test(m).unwrap(), *run.tests.last().unwrap());
    }

    #[test]
    fn invalid_ids_rejected() {
        let w = World::cv(5);
        assert!(ZooTrainer::new(&w, 99).is_err());
        assert!(ZooOracle::new(&w, 99).is_err());
        let mut t = ZooTrainer::new(&w, 0).unwrap();
        assert!(t.advance(ModelId(1000)).is_err());
        let o = ZooOracle::new(&w, 0).unwrap();
        assert!(o.predictions(ModelId(1000)).is_err());
    }

    #[test]
    fn oracle_shapes_match_dataset() {
        let w = World::nlp(5);
        let target = w.target_by_name("mnli").unwrap();
        let o = ZooOracle::new(&w, target).unwrap();
        assert_eq!(o.n_target_labels(), 3);
        let p = o.predictions(ModelId(0)).unwrap();
        assert_eq!(p.n_samples(), o.target_labels().len());
        assert_eq!(p.n_source_labels(), w.models[0].n_source_labels);
    }
}
