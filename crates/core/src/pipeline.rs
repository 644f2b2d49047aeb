//! End-to-end two-phase selection (paper §II-B, Fig. 2).
//!
//! **Offline** (once per repository): build the performance matrix and curve
//! set by fine-tuning every model on the benchmark datasets, derive the
//! similarity matrix, the model clustering, and the per-model convergence
//! trend book — [`OfflineArtifacts`].
//!
//! **Online** (per target task): [`two_phase_select`] runs coarse-recall
//! (proxy scores for cluster representatives only) and hands the recalled
//! top-K to fine-selection, returning the chosen model with full epoch
//! accounting (`CR` proxy epochs + `FS` training epochs, the Table VI
//! "2PH" runtime).

use crate::ann::{AnnConfig, AnnIndex, AnnMode, AnnRepIndex};
use crate::budget::EpochLedger;
use crate::cluster::dbscan::{dbscan, DbscanConfig};
use crate::cluster::hierarchical::{hierarchical_k, hierarchical_threshold, Linkage};
use crate::cluster::kmeans::{kmeans, KMeansConfig};
use crate::cluster::knn::knn_threshold_components;
use crate::cluster::Clustering;
use crate::curve::CurveSet;
use crate::error::{Result, SelectionError};
use crate::fault::Casualty;
use crate::matrix::PerformanceMatrix;
use crate::parallel::ParallelConfig;
use crate::proxy::leep::leep;
use crate::recall::{coarse_recall_ann_traced, scored_cluster_set, RecallConfig, RecallOutcome};
use crate::select::fine::{fine_selection_traced, FineSelectionConfig};
use crate::select::SelectionOutcome;
use crate::similarity::SimilarityMatrix;
use crate::telemetry::Telemetry;
use crate::traits::{ProxyOracle, TargetTrainer};
use crate::trend::{TrendBook, TrendConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How to cluster the model repository offline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum ClusterMethod {
    /// Average-linkage agglomerative clustering cut at a distance threshold
    /// — the paper's configuration; naturally yields singleton clusters.
    HierarchicalThreshold(f64),
    /// Average-linkage agglomerative clustering cut to `k` clusters.
    HierarchicalK(usize),
    /// K-means with `k` clusters and a fixed seed (Table I / XI baseline).
    KMeans {
        /// Number of clusters.
        k: usize,
        /// RNG seed for k-means++ restarts.
        seed: u64,
    },
    /// DBSCAN at radius `eps` with `min_points` density — families become
    /// clusters, oddballs become singletons, no cluster count needed.
    Dbscan {
        /// Neighbourhood radius in Eq. 1 distance units.
        eps: f64,
        /// Core-point density (2 mirrors the paper's non-singleton notion).
        min_points: usize,
    },
}

/// Offline-phase configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OfflineConfig {
    /// `k` of the top-k similarity (Eq. 1); the paper picks 5 (Table X).
    pub similarity_top_k: usize,
    /// Clustering algorithm and granularity.
    pub cluster: ClusterMethod,
    /// Convergence-trend mining parameters.
    pub trend: TrendConfig,
    /// Stages to mine trends for (clamped to the recorded curves).
    pub trend_stages: usize,
    /// Worker threads for the pairwise-similarity and trend-mining loops
    /// (serial by default; results are identical for any thread count).
    pub parallel: ParallelConfig,
    /// ANN exactness knob. `Exact` (default) keeps the dense O(M²) build;
    /// `Indexed` builds an HNSW-style index instead, replacing the dense
    /// similarity matrix with lazy storage and dense agglomeration with
    /// thresholded-kNN components. Defaults for configs serialized before
    /// the field existed.
    #[serde(default)]
    pub ann: AnnConfig,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            similarity_top_k: 5,
            cluster: ClusterMethod::HierarchicalThreshold(0.05),
            trend: TrendConfig::default(),
            trend_stages: 8,
            parallel: ParallelConfig::serial(),
            ann: AnnConfig::default(),
        }
    }
}

/// Everything the online phases need, computed once per repository.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts {
    /// The performance matrix `Matrix(D, M)`.
    pub matrix: PerformanceMatrix,
    /// Eq. 1 model-similarity matrix.
    pub similarity: SimilarityMatrix,
    /// Model clustering `MC`.
    pub clustering: Clustering,
    /// Per-model convergence trends `CT`.
    pub trends: TrendBook,
    /// Representative ANN index over the scored clusters, present only on
    /// indexed builds — online recall reuses it instead of rebuilding one
    /// per query.
    pub ann: Option<AnnRepIndex>,
}

// Manual serde keeps exact-mode artifact JSON byte-identical to pre-index
// builds: the `ann` key is written only when an index exists, and absent
// keys deserialize to `None` (older artifact files keep loading).
impl Serialize for OfflineArtifacts {
    fn serialize_value(&self) -> serde::value::Value {
        let mut m = serde::value::Map::new();
        m.insert("matrix".into(), self.matrix.serialize_value());
        m.insert("similarity".into(), self.similarity.serialize_value());
        m.insert("clustering".into(), self.clustering.serialize_value());
        m.insert("trends".into(), self.trends.serialize_value());
        if let Some(ann) = &self.ann {
            m.insert("ann".into(), ann.serialize_value());
        }
        serde::value::Value::Object(m)
    }
}

impl Deserialize for OfflineArtifacts {
    fn deserialize_value(v: &serde::value::Value) -> std::result::Result<Self, serde::Error> {
        let m = serde::__private::expect_object(v, "OfflineArtifacts")?;
        let ann = match m.get("ann") {
            None | Some(serde::value::Value::Null) => None,
            Some(v) => Some(AnnRepIndex::deserialize_value(v)?),
        };
        Ok(Self {
            matrix: serde::__private::field(m, "matrix")?,
            similarity: serde::__private::field(m, "similarity")?,
            clustering: serde::__private::field(m, "clustering")?,
            trends: serde::__private::field(m, "trends")?,
            ann,
        })
    }
}

impl OfflineArtifacts {
    /// Build all offline artifacts from recorded fine-tuning results.
    pub fn build(
        matrix: PerformanceMatrix,
        curves: &CurveSet,
        config: &OfflineConfig,
    ) -> Result<Self> {
        Self::build_traced(matrix, curves, config, &Telemetry::disabled())
    }

    /// [`Self::build`] with telemetry: an `offline.build` span with
    /// `offline.{similarity, cluster, trends}` children timing each
    /// derivation step, plus `offline.{models, datasets, clusters}`
    /// counters. The artifacts are identical to the untraced build.
    pub fn build_traced(
        matrix: PerformanceMatrix,
        curves: &CurveSet,
        config: &OfflineConfig,
        tel: &Telemetry,
    ) -> Result<Self> {
        if curves.n_models() != matrix.n_models() || curves.n_datasets() != matrix.n_datasets() {
            return Err(SelectionError::DimensionMismatch {
                what: "curve set vs matrix",
                expected: matrix.n_models() * matrix.n_datasets(),
                got: curves.n_models() * curves.n_datasets(),
            });
        }
        let _span = tel.span("offline.build");
        tel.add("offline.models", matrix.n_models() as f64);
        tel.add("offline.datasets", matrix.n_datasets() as f64);
        let threads = config.parallel.resolve();
        let (similarity, clustering, ann) = match config.ann.mode {
            AnnMode::Exact => {
                let similarity = {
                    let _s = tel.span("offline.similarity");
                    SimilarityMatrix::from_performance_par(
                        &matrix,
                        config.similarity_top_k,
                        threads,
                    )?
                };
                let clustering = {
                    let _s = tel.span("offline.cluster");
                    cluster_models(&matrix, &similarity, config.cluster)?
                };
                (similarity, clustering, None)
            }
            AnnMode::Indexed => {
                config.ann.validate()?;
                let threshold = match config.cluster {
                    ClusterMethod::HierarchicalThreshold(t) => t,
                    other => {
                        return Err(SelectionError::InvalidConfig(format!(
                            "indexed offline build supports only \
                             HierarchicalThreshold clustering, got {other:?}"
                        )))
                    }
                };
                let vectors = Arc::new(matrix.model_vectors());
                let similarity = {
                    let _s = tel.span("offline.similarity");
                    SimilarityMatrix::lazy_from_vectors(
                        Arc::clone(&vectors),
                        config.similarity_top_k,
                    )?
                };
                let clustering = {
                    let _s = tel.span("offline.cluster");
                    let index = AnnIndex::build(
                        vectors.as_ref().clone(),
                        config.similarity_top_k,
                        &config.ann,
                    )?;
                    tel.add("ann.index_nodes", index.len() as f64);
                    tel.add("ann.knn_k", config.ann.k as f64);
                    let lists = index.knn_lists(config.ann.k, config.ann.ef_search, threads);
                    tel.add(
                        "ann.knn_edges",
                        lists.iter().map(Vec::len).sum::<usize>() as f64,
                    );
                    knn_threshold_components(matrix.n_models(), &lists, threshold)?
                };
                let reps = clustering.representatives(&matrix)?;
                let scored = scored_cluster_set(&clustering);
                let rep_index = AnnRepIndex::build(
                    &matrix,
                    &reps,
                    &scored,
                    config.similarity_top_k,
                    &config.ann,
                )?;
                (similarity, clustering, Some(rep_index))
            }
        };
        tel.add("offline.clusters", clustering.n_clusters() as f64);
        let trends = {
            let _s = tel.span("offline.trends");
            TrendBook::mine_par(curves, config.trend_stages, &config.trend, threads)?
        };
        Ok(Self {
            matrix,
            similarity,
            clustering,
            trends,
            ann,
        })
    }
}

/// Cluster the repository per the configured method.
pub fn cluster_models(
    matrix: &PerformanceMatrix,
    similarity: &SimilarityMatrix,
    method: ClusterMethod,
) -> Result<Clustering> {
    let n = matrix.n_models();
    match method {
        ClusterMethod::HierarchicalThreshold(t) => {
            hierarchical_threshold(&similarity.distance_matrix(), n, t, Linkage::Average)
        }
        ClusterMethod::HierarchicalK(k) => {
            hierarchical_k(&similarity.distance_matrix(), n, k, Linkage::Average)
        }
        ClusterMethod::KMeans { k, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            kmeans(
                &matrix.model_vectors(),
                &KMeansConfig {
                    k,
                    ..Default::default()
                },
                &mut rng,
            )
        }
        ClusterMethod::Dbscan { eps, min_points } => dbscan(
            &similarity.distance_matrix(),
            n,
            &DbscanConfig { eps, min_points },
        ),
    }
}

/// Online-phase configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Coarse-recall settings (`K = 10` in the paper).
    pub recall: RecallConfig,
    /// Fine-selection settings (0% threshold in the paper).
    pub fine: FineSelectionConfig,
    /// Total fine-tuning stages `T` (5 for NLP, 4 for CV in the paper).
    pub total_stages: usize,
    /// Worker threads for proxy scoring and per-stage training fan-out
    /// (serial by default; results are identical for any thread count).
    pub parallel: ParallelConfig,
    /// ANN exactness knob for coarse recall. `Exact` (default) proxy-scores
    /// every representative; `Indexed` restricts proxy scoring to seed
    /// clusters plus index neighbours (`O(k·log M)` fan-out). Defaults for
    /// configs serialized before the field existed.
    #[serde(default)]
    pub ann: AnnConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            recall: RecallConfig::default(),
            fine: FineSelectionConfig::default(),
            total_stages: 5,
            parallel: ParallelConfig::serial(),
            ann: AnnConfig::default(),
        }
    }
}

/// Deterministic accounting summary of one pipeline run, derived from the
/// phase outcomes. Unlike span timings (which are machine-dependent and
/// live only in the trace JSON), every field here is a pure function of the
/// selection trajectory — serial and parallel runs produce identical
/// values, so the struct participates in [`PipelineOutcome`]'s equality.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineCounters {
    /// Proxy evaluations run during coarse-recall (one per scored cluster
    /// representative).
    pub proxy_evals: usize,
    /// Models recalled into fine-selection.
    pub recalled: usize,
    /// Fine-selection stages run.
    pub stages: usize,
    /// Candidate-pool size at the start of each stage.
    pub pool_per_stage: Vec<usize>,
    /// Models removed (dominated + halving cut) at each stage.
    pub filtered_per_stage: Vec<usize>,
    /// Models surviving each stage (`pool - filtered`).
    pub survivors_per_stage: Vec<usize>,
    /// Epoch-equivalents spent on proxy inference.
    pub proxy_epochs: f64,
    /// Epochs spent fine-tuning.
    pub train_epochs: f64,
    /// Total epoch-equivalents — the Table VI "2PH Runtime".
    pub total_epochs: f64,
}

impl PipelineCounters {
    /// Derive the counters from the two phase outcomes and the combined
    /// ledger.
    pub fn from_phases(
        recall: &RecallOutcome,
        selection: &SelectionOutcome,
        ledger: &EpochLedger,
    ) -> Self {
        let pool_per_stage: Vec<usize> = selection.pool_history.iter().map(Vec::len).collect();
        let filtered_per_stage: Vec<usize> = (0..pool_per_stage.len())
            .map(|t| selection.events.iter().filter(|e| e.stage == t).count())
            .collect();
        let survivors_per_stage: Vec<usize> = pool_per_stage
            .iter()
            .zip(&filtered_per_stage)
            .map(|(&pool, &filtered)| pool - filtered)
            .collect();
        Self {
            proxy_evals: recall.cluster_proxy.iter().flatten().count(),
            recalled: recall.recalled.len(),
            stages: pool_per_stage.len(),
            pool_per_stage,
            filtered_per_stage,
            survivors_per_stage,
            proxy_epochs: ledger.proxy_epochs(),
            train_epochs: ledger.train_epochs(),
            total_epochs: ledger.total(),
        }
    }
}

/// Outcome of one end-to-end two-phase selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineOutcome {
    /// Coarse-recall phase result.
    pub recall: RecallOutcome,
    /// Fine-selection phase result.
    pub selection: SelectionOutcome,
    /// Combined epoch-equivalents (proxy inference + fine-tuning) — the
    /// Table VI "2PH Runtime".
    pub ledger: EpochLedger,
    /// Deterministic per-phase accounting (proxy evaluations, pool sizes,
    /// filter counts, epochs). Defaults for artifacts serialized before the
    /// field existed.
    #[serde(default)]
    pub counters: PipelineCounters,
    /// Models quarantined across both phases (recall first, then
    /// fine-selection in stage order). Empty on a fault-free run; defaults
    /// for artifacts serialized before the field existed.
    #[serde(default)]
    pub casualties: Vec<Casualty>,
}

/// Run the full online pipeline for one target task.
///
/// `oracle` supplies prediction matrices for LEEP; `trainer` fine-tunes on
/// the target dataset.
pub fn two_phase_select(
    artifacts: &OfflineArtifacts,
    oracle: &(dyn ProxyOracle + Sync),
    trainer: &mut dyn TargetTrainer,
    config: &PipelineConfig,
) -> Result<PipelineOutcome> {
    two_phase_select_traced(artifacts, oracle, trainer, config, &Telemetry::disabled())
}

/// [`two_phase_select`] with telemetry: a `pipeline.two_phase_select` span
/// wrapping the `recall.coarse` and `select.fine` phase spans, plus every
/// counter those phases record. The returned outcome (including its
/// [`PipelineCounters`]) is identical to the untraced run for any thread
/// count; only span durations vary.
pub fn two_phase_select_traced(
    artifacts: &OfflineArtifacts,
    oracle: &(dyn ProxyOracle + Sync),
    trainer: &mut dyn TargetTrainer,
    config: &PipelineConfig,
    tel: &Telemetry,
) -> Result<PipelineOutcome> {
    let _span = tel.span("pipeline.two_phase_select");
    let threads = config.parallel.resolve();
    let recall = coarse_recall_ann_traced(
        &artifacts.matrix,
        &artifacts.clustering,
        &artifacts.similarity,
        &config.recall,
        &config.ann,
        artifacts.ann.as_ref(),
        threads,
        |rep| {
            let predictions = oracle.predictions(rep)?;
            leep(
                &predictions,
                oracle.target_labels(),
                oracle.n_target_labels(),
            )
        },
        tel,
    )?;
    let selection = fine_selection_traced(
        trainer,
        &recall.recalled,
        config.total_stages,
        &artifacts.trends,
        &config.fine,
        threads,
        tel,
    )?;
    Ok(assemble_outcome(recall, selection))
}

/// Combine the two phase outcomes into a [`PipelineOutcome`]: charge the
/// proxy epochs, merge the fine-selection ledger, derive the deterministic
/// counters and chain the casualty lists (recall first, then fine-selection
/// in stage order). Shared by [`two_phase_select_traced`] and by callers
/// that run and time the two phases separately.
pub fn assemble_outcome(recall: RecallOutcome, selection: SelectionOutcome) -> PipelineOutcome {
    let mut ledger = EpochLedger::new();
    ledger.charge_proxy(recall.proxy_epochs);
    ledger.merge(&selection.ledger);
    let counters = PipelineCounters::from_phases(&recall, &selection, &ledger);
    let casualties: Vec<Casualty> = recall
        .casualties
        .iter()
        .chain(&selection.casualties)
        .cloned()
        .collect();
    PipelineOutcome {
        recall,
        selection,
        ledger,
        counters,
        casualties,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::LearningCurve;
    use crate::ids::ModelId;
    use crate::proxy::PredictionMatrix;
    use crate::traits::test_support::ScriptedTrainer;

    /// 6 models: ids 0-2 a strong family, 3-4 a weak family, 5 a singleton.
    fn fixture() -> (OfflineArtifacts, usize) {
        let stages = 4;
        let strong = |seed: f64| {
            vec![
                0.80 + seed,
                0.82 + seed,
                0.20 + seed,
                0.22 + seed,
                0.81 + seed,
            ]
        };
        let weak = |seed: f64| {
            vec![
                0.40 + seed,
                0.42 + seed,
                0.35 + seed,
                0.36 + seed,
                0.41 + seed,
            ]
        };
        // Rows are datasets: build model columns then transpose.
        let cols = [
            strong(0.00),
            strong(0.01),
            strong(0.02),
            weak(0.00),
            weak(0.01),
            vec![0.60, 0.10, 0.55, 0.12, 0.58],
        ];
        let n_datasets = 5;
        let rows: Vec<Vec<f64>> = (0..n_datasets)
            .map(|d| cols.iter().map(|c| c[d]).collect())
            .collect();
        let matrix = PerformanceMatrix::new(
            (0..6).map(|i| format!("model-{i}")).collect(),
            (0..n_datasets).map(|i| format!("bench-{i}")).collect(),
            rows,
        )
        .unwrap();
        let curves = CurveSet::from_fn(6, n_datasets, |m, d| {
            let final_acc = matrix.accuracy(d, m);
            let vals = (0..stages)
                .map(|t| final_acc * (0.6 + 0.4 * (t + 1) as f64 / stages as f64))
                .collect();
            LearningCurve::new(vals, final_acc).unwrap()
        })
        .unwrap();
        let artifacts = OfflineArtifacts::build(
            matrix,
            &curves,
            &OfflineConfig {
                cluster: ClusterMethod::HierarchicalThreshold(0.08),
                trend: TrendConfig {
                    n_trends: 2,
                    max_iter: 32,
                },
                ..Default::default()
            },
        )
        .unwrap();
        (artifacts, stages)
    }

    struct FixtureOracle {
        labels: Vec<usize>,
    }

    impl ProxyOracle for FixtureOracle {
        fn predictions(&self, model: ModelId) -> Result<PredictionMatrix> {
            // Strong family (0-2) aligns with target labels; others are
            // uninformative.
            let informative = model.index() <= 2;
            let mut rows = Vec::new();
            for &y in &self.labels {
                if informative {
                    rows.extend_from_slice(if y == 0 { &[0.9, 0.1] } else { &[0.1, 0.9] });
                } else {
                    rows.extend_from_slice(&[0.5, 0.5]);
                }
            }
            PredictionMatrix::new(2, rows)
        }

        fn target_labels(&self) -> &[usize] {
            &self.labels
        }

        fn n_target_labels(&self) -> usize {
            2
        }
    }

    #[test]
    fn offline_artifacts_cluster_families() {
        let (artifacts, _) = fixture();
        let c = &artifacts.clustering;
        assert_eq!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(1)));
        assert_eq!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(2)));
        assert_eq!(c.cluster_of(ModelId(3)), c.cluster_of(ModelId(4)));
        assert_ne!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(3)));
        assert_ne!(c.cluster_of(ModelId(5)), c.cluster_of(ModelId(0)));
        assert!(!c.in_non_singleton(ModelId(5)));
    }

    #[test]
    fn end_to_end_selects_a_strong_model() {
        let (artifacts, stages) = fixture();
        let oracle = FixtureOracle {
            labels: vec![0, 1, 0, 1, 0, 1],
        };
        // Target curves: strong family performs well on the target, others
        // do not.
        let curves: Vec<Vec<f64>> = (0..6)
            .map(|m| {
                let ceiling = if m <= 2 { 0.85 + 0.01 * m as f64 } else { 0.4 };
                (0..stages)
                    .map(|t| ceiling * (0.7 + 0.3 * (t + 1) as f64 / stages as f64))
                    .collect()
            })
            .collect();
        let mut trainer = ScriptedTrainer::from_val_curves(curves);
        let out = two_phase_select(
            &artifacts,
            &oracle,
            &mut trainer,
            &PipelineConfig {
                recall: RecallConfig {
                    top_k: 3,
                    ..Default::default()
                },
                total_stages: stages,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.selection.winner.index() <= 2,
            "winner {:?}",
            out.selection.winner
        );
        // Proxy epochs: 2 non-singleton clusters scored at 0.5 each.
        assert_eq!(out.ledger.proxy_epochs(), 1.0);
        assert!(out.ledger.total() < 6.0 * stages as f64, "cheaper than BF");
        // The recall phase must rank the strong family first.
        assert!(out.recall.recalled.iter().all(|m| m.index() <= 2));
    }

    #[test]
    fn traced_run_matches_untraced_and_its_own_counters() {
        let (artifacts, stages) = fixture();
        let oracle = FixtureOracle {
            labels: vec![0, 1, 0, 1, 0, 1],
        };
        let curves: Vec<Vec<f64>> = (0..6)
            .map(|m| {
                let ceiling = if m <= 2 { 0.85 + 0.01 * m as f64 } else { 0.4 };
                (0..stages)
                    .map(|t| ceiling * (0.7 + 0.3 * (t + 1) as f64 / stages as f64))
                    .collect()
            })
            .collect();
        let config = PipelineConfig {
            recall: RecallConfig {
                top_k: 3,
                ..Default::default()
            },
            total_stages: stages,
            ..Default::default()
        };
        let mut plain_trainer = ScriptedTrainer::from_val_curves(curves.clone());
        let plain = two_phase_select(&artifacts, &oracle, &mut plain_trainer, &config).unwrap();

        let (tel, sink) = crate::telemetry::Telemetry::recording();
        let mut trainer = ScriptedTrainer::from_val_curves(curves);
        let out =
            two_phase_select_traced(&artifacts, &oracle, &mut trainer, &config, &tel).unwrap();
        // Tracing never changes the outcome.
        assert_eq!(out, plain);

        // Recorded counters agree with the outcome's own accounting.
        let report = sink.report();
        let c = &out.counters;
        assert_eq!(
            report.counter("recall.proxy_evals"),
            Some(c.proxy_evals as f64)
        );
        assert_eq!(report.counter("recall.recalled"), Some(c.recalled as f64));
        assert_eq!(report.counter("recall.proxy_epochs"), Some(c.proxy_epochs));
        assert_eq!(report.counter("fine.stages"), Some(c.stages as f64));
        assert_eq!(report.counter("select.train_epochs"), Some(c.train_epochs));
        for t in 0..c.stages {
            assert_eq!(
                report.counter(&crate::telemetry::stage_counter("fine", t, "pool")),
                Some(c.pool_per_stage[t] as f64),
                "stage {t} pool"
            );
            assert_eq!(
                report.counter(&crate::telemetry::stage_counter("fine", t, "survivors")),
                Some(c.survivors_per_stage[t] as f64),
                "stage {t} survivors"
            );
        }
        assert_eq!(c.proxy_epochs + c.train_epochs, c.total_epochs);
        assert_eq!(c.total_epochs, out.ledger.total());

        // The span tree nests as documented: pipeline > recall + fine, with
        // one select.stage per stage.
        let root = report.find_span("pipeline.two_phase_select").unwrap();
        assert!(root.find("recall.coarse").is_some());
        assert!(root.find("select.fine").is_some());
        assert_eq!(report.spans_named("select.stage").len(), c.stages);
    }

    #[test]
    fn artifacts_build_rejects_mismatched_curves() {
        let (artifacts, _) = fixture();
        let bad_curves =
            CurveSet::from_fn(2, 2, |_, _| LearningCurve::new(vec![0.5], 0.5).unwrap()).unwrap();
        assert!(OfflineArtifacts::build(
            artifacts.matrix.clone(),
            &bad_curves,
            &OfflineConfig::default()
        )
        .is_err());
    }

    fn fixture_inputs() -> (PerformanceMatrix, CurveSet, usize) {
        let stages = 4;
        let (artifacts, _) = fixture();
        let matrix = artifacts.matrix;
        let curves = CurveSet::from_fn(6, matrix.n_datasets(), |m, d| {
            let final_acc = matrix.accuracy(d, m);
            let vals = (0..stages)
                .map(|t| final_acc * (0.6 + 0.4 * (t + 1) as f64 / stages as f64))
                .collect();
            LearningCurve::new(vals, final_acc).unwrap()
        })
        .unwrap();
        (matrix, curves, stages)
    }

    #[test]
    fn indexed_offline_build_recovers_families_and_stores_index() {
        let (matrix, curves, _) = fixture_inputs();
        let config = OfflineConfig {
            cluster: ClusterMethod::HierarchicalThreshold(0.08),
            trend: TrendConfig {
                n_trends: 2,
                max_iter: 32,
            },
            ann: AnnConfig {
                mode: AnnMode::Indexed,
                ..AnnConfig::default()
            },
            ..Default::default()
        };
        let artifacts = OfflineArtifacts::build(matrix, &curves, &config).unwrap();
        let c = &artifacts.clustering;
        // Same family structure the dense build finds on this fixture.
        assert_eq!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(1)));
        assert_eq!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(2)));
        assert_eq!(c.cluster_of(ModelId(3)), c.cluster_of(ModelId(4)));
        assert_ne!(c.cluster_of(ModelId(0)), c.cluster_of(ModelId(3)));
        assert!(!c.in_non_singleton(ModelId(5)));
        assert!(artifacts.similarity.is_lazy());
        let rep_index = artifacts.ann.as_ref().expect("indexed build stores index");
        assert_eq!(rep_index.len(), 2, "two non-singleton clusters scored");
    }

    #[test]
    fn indexed_build_rejects_non_threshold_clustering() {
        let (matrix, curves, _) = fixture_inputs();
        let config = OfflineConfig {
            cluster: ClusterMethod::KMeans { k: 3, seed: 7 },
            ann: AnnConfig {
                mode: AnnMode::Indexed,
                ..AnnConfig::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            OfflineArtifacts::build(matrix, &curves, &config),
            Err(SelectionError::InvalidConfig(_))
        ));
    }

    #[test]
    fn indexed_end_to_end_selects_a_strong_model() {
        let (matrix, curves, stages) = fixture_inputs();
        let ann = AnnConfig {
            mode: AnnMode::Indexed,
            ..AnnConfig::default()
        };
        let artifacts = OfflineArtifacts::build(
            matrix,
            &curves,
            &OfflineConfig {
                cluster: ClusterMethod::HierarchicalThreshold(0.08),
                trend: TrendConfig {
                    n_trends: 2,
                    max_iter: 32,
                },
                ann,
                ..Default::default()
            },
        )
        .unwrap();
        let oracle = FixtureOracle {
            labels: vec![0, 1, 0, 1, 0, 1],
        };
        let target: Vec<Vec<f64>> = (0..6)
            .map(|m| {
                let ceiling = if m <= 2 { 0.85 + 0.01 * m as f64 } else { 0.4 };
                (0..stages)
                    .map(|t| ceiling * (0.7 + 0.3 * (t + 1) as f64 / stages as f64))
                    .collect()
            })
            .collect();
        let mut trainer = ScriptedTrainer::from_val_curves(target);
        let out = two_phase_select(
            &artifacts,
            &oracle,
            &mut trainer,
            &PipelineConfig {
                recall: RecallConfig {
                    top_k: 3,
                    ..Default::default()
                },
                total_stages: stages,
                ann,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.selection.winner.index() <= 2);
        assert!(out.recall.recalled.iter().all(|m| m.index() <= 2));
    }

    #[test]
    fn exact_artifacts_serialize_without_ann_key() {
        let (artifacts, _) = fixture();
        assert!(artifacts.ann.is_none());
        let json = serde_json::to_string(&artifacts).unwrap();
        assert!(
            !json.contains("\"ann\""),
            "exact artifacts must not gain keys"
        );
        let back: OfflineArtifacts = serde_json::from_str(&json).unwrap();
        assert_eq!(back.clustering, artifacts.clustering);
        assert!(back.ann.is_none());
    }

    #[test]
    fn indexed_artifacts_round_trip_with_index() {
        let (matrix, curves, _) = fixture_inputs();
        let config = OfflineConfig {
            cluster: ClusterMethod::HierarchicalThreshold(0.08),
            trend: TrendConfig {
                n_trends: 2,
                max_iter: 32,
            },
            ann: AnnConfig {
                mode: AnnMode::Indexed,
                ..AnnConfig::default()
            },
            ..Default::default()
        };
        let artifacts = OfflineArtifacts::build(matrix, &curves, &config).unwrap();
        let json = serde_json::to_string(&artifacts).unwrap();
        let back: OfflineArtifacts = serde_json::from_str(&json).unwrap();
        assert_eq!(back.similarity, artifacts.similarity);
        assert_eq!(back.clustering, artifacts.clustering);
        assert_eq!(back.ann, artifacts.ann);
    }

    #[test]
    fn cluster_method_variants_run() {
        let (artifacts, _) = fixture();
        for method in [
            ClusterMethod::HierarchicalThreshold(0.1),
            ClusterMethod::HierarchicalK(3),
            ClusterMethod::KMeans { k: 3, seed: 7 },
            ClusterMethod::Dbscan {
                eps: 0.08,
                min_points: 2,
            },
        ] {
            let c = cluster_models(&artifacts.matrix, &artifacts.similarity, method).unwrap();
            assert_eq!(c.n_models(), 6);
        }
    }
}
