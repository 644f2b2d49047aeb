//! The coarse-recall phase (paper §III): cheaply shrink the repository to a
//! handful of promising candidates for fine-tuning.
//!
//! For every **non-singleton** cluster the proxy score (LEEP) is computed
//! once, for the cluster's representative model, on the target dataset.
//! Then (after min-max normalisation to `[0, 1]`):
//!
//! * Eq. 3 — a model in a non-singleton cluster scores
//!   `acc(m) · proxy(T | m(c(m)))`;
//! * Eq. 4 — a model in a singleton cluster receives the representatives'
//!   proxy scores *propagated* and decayed by model similarity:
//!   `acc(m) · (1/|C_non|) Σ_k sim(m, m(C_k)) · proxy(T | m(C_k))`.
//!
//! The top-K models by recall score advance to fine-selection.

use crate::ann::{AnnConfig, AnnMode, AnnRepIndex};
use crate::cluster::Clustering;
use crate::error::{FaultClass, Result, SelectionError};
use crate::fault::{Casualty, RetryPolicy};
use crate::ids::ModelId;
use crate::matrix::PerformanceMatrix;
use crate::proxy::normalize_scores;
use crate::similarity::SimilarityMatrix;
use crate::telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Configuration for [`coarse_recall`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RecallConfig {
    /// How many models to recall (the paper settles on `K = 10`).
    pub top_k: usize,
    /// Epoch-equivalents charged per proxy-score computation. The paper
    /// counts inference as half a training epoch (§V-D: `0.5 · |MC|`).
    pub proxy_epoch_cost: f64,
    /// How transient proxy-eval failures are retried before the cluster is
    /// quarantined (every attempt, failed or not, is charged
    /// `proxy_epoch_cost`).
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl Default for RecallConfig {
    fn default() -> Self {
        Self {
            top_k: 10,
            proxy_epoch_cost: 0.5,
            retry: RetryPolicy::default(),
        }
    }
}

/// Result of the coarse-recall phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecallOutcome {
    /// Every model with its recall score, sorted descending (ties broken by
    /// model id for determinism).
    pub ranked: Vec<(ModelId, f64)>,
    /// The top-K models — input to fine-selection, in rank order.
    pub recalled: Vec<ModelId>,
    /// Normalised proxy score per cluster (`None` for singleton clusters,
    /// whose representatives are never scored directly).
    pub cluster_proxy: Vec<Option<f64>>,
    /// Representative model per cluster.
    pub representatives: Vec<ModelId>,
    /// Epoch-equivalents spent computing proxy scores (every attempt is
    /// charged, including retried and permanently-failed ones).
    pub proxy_epochs: f64,
    /// Representatives whose proxy eval failed permanently (or exhausted
    /// retries, or returned a non-finite score). Their clusters fall back
    /// to the Eq. 4 propagated score. Empty on fault-free runs; pre-fault
    /// JSON deserialises to empty.
    #[serde(default)]
    pub casualties: Vec<Casualty>,
}

impl RecallOutcome {
    /// Rank (0-based) of a model in the recall ordering, or `None` if the
    /// model was not part of the repository. Used for Table VII's `R@CR`.
    pub fn rank_of(&self, m: ModelId) -> Option<usize> {
        self.ranked.iter().position(|&(id, _)| id == m)
    }
}

/// Run the coarse-recall phase.
///
/// `proxy_for` computes the **raw** proxy score (e.g. LEEP) of one
/// representative model on the target dataset; it is called exactly once per
/// non-singleton cluster. Raw scores are min-max normalised across the
/// scored representatives before entering Eq. 3/4.
pub fn coarse_recall(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
    mut proxy_for: impl FnMut(ModelId) -> Result<f64>,
) -> Result<RecallOutcome> {
    let (representatives, scored_clusters) =
        prepare_recall(matrix, clustering, similarity, config)?;
    let first: Vec<Option<Result<f64>>> = vec![None; scored_clusters.len()];
    let resolved = resolve_scores(
        &representatives,
        &scored_clusters,
        first,
        &mut proxy_for,
        config.retry,
        &Telemetry::disabled(),
    )?;
    finish_recall(
        matrix,
        clustering,
        similarity,
        config,
        representatives,
        resolved,
    )
}

/// Parallel [`coarse_recall`]: the per-representative proxy scores are
/// computed across `threads` workers. Everything downstream of the raw
/// scores (normalisation, Eq. 3/4, ranking) is unchanged serial code, so
/// the outcome is bit-identical to the serial call — including which error
/// is reported when several representatives fail.
///
/// The proxy closure must be `Fn + Sync` here (the serial entry point keeps
/// accepting stateful `FnMut` closures).
pub fn coarse_recall_par(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
    threads: usize,
    proxy_for: impl Fn(ModelId) -> Result<f64> + Sync,
) -> Result<RecallOutcome> {
    coarse_recall_par_traced(
        matrix,
        clustering,
        similarity,
        config,
        threads,
        proxy_for,
        &Telemetry::disabled(),
    )
}

/// [`coarse_recall_par`] with telemetry: a `recall.coarse` span (with a
/// `recall.proxy_scoring` child around the representative fan-out) and the
/// `recall.{candidates, proxy_evals, proxy_epochs, recalled}` counters.
/// Counter values are identical for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn coarse_recall_par_traced(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
    threads: usize,
    proxy_for: impl Fn(ModelId) -> Result<f64> + Sync,
    tel: &Telemetry,
) -> Result<RecallOutcome> {
    let _span = tel.span("recall.coarse");
    let (representatives, scored_clusters) =
        prepare_recall(matrix, clustering, similarity, config)?;
    tel.add("recall.candidates", matrix.n_models() as f64);
    // Fan-out width of the proxy-scoring stage — deterministic, so its
    // histogram participates in drift gates and serial≡parallel checks.
    tel.observe("recall.fanout_width", scored_clusters.len() as f64);
    let resolved = {
        let _scoring = tel.span("recall.proxy_scoring");
        // First attempt per representative fans out across the workers;
        // retries and quarantine decisions run serially afterwards, in
        // cluster order, so the outcome is bit-identical to the serial
        // call for any thread count.
        let first: Vec<Option<Result<f64>>> =
            crate::parallel::map_indexed(&scored_clusters, threads, |_, &c| {
                Some(proxy_for(representatives[c]))
            });
        resolve_scores(
            &representatives,
            &scored_clusters,
            first,
            &mut |rep| proxy_for(rep),
            config.retry,
            tel,
        )?
    };
    tel.add("recall.proxy_evals", resolved.attempts as f64);
    if !resolved.casualties.is_empty() {
        tel.add("recall.quarantined", resolved.casualties.len() as f64);
    }
    let out = finish_recall(
        matrix,
        clustering,
        similarity,
        config,
        representatives,
        resolved,
    )?;
    tel.add("recall.proxy_epochs", out.proxy_epochs);
    tel.add("recall.recalled", out.recalled.len() as f64);
    tel.observe("recall.proxy_epochs_per_call", out.proxy_epochs);
    Ok(out)
}

/// [`coarse_recall_par_traced`] with an ANN-index candidate stage in front
/// of proxy scoring.
///
/// With [`AnnMode::Exact`] this *is* `coarse_recall_par_traced` — same
/// code path, byte-identical outcome and trace. With [`AnnMode::Indexed`]
/// the proxy fan-out shrinks from O(#reps) to O(k·log M): the
/// `seed_reps` scored clusters whose representatives have the highest
/// benchmark average accuracy are taken as seeds, the index around the
/// best seed is expanded to at most `k·⌈log₂ M⌉` further representatives,
/// and only that candidate set is proxy-scored. Every unscored cluster
/// falls back to the paper's Eq. 4 propagation, so every model still
/// receives a recall score. Candidate choice happens *before* any proxy
/// call, and all tie-breaks are `(value via total_cmp, then id)`, so the
/// outcome is bit-identical for any fixed `(seed, AnnConfig, threads)`.
///
/// `rep_index` is the prebuilt representative index from
/// `OfflineArtifacts` (indexed builds store one); when absent or stale it
/// is rebuilt here from the matrix. Indexed mode additionally emits the
/// `ann.{seeds, expanded, candidates, k, log2_m}` counters; exact mode
/// emits nothing new, preserving the trace-drift baseline.
#[allow(clippy::too_many_arguments)]
pub fn coarse_recall_ann_traced(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
    ann: &AnnConfig,
    rep_index: Option<&AnnRepIndex>,
    threads: usize,
    proxy_for: impl Fn(ModelId) -> Result<f64> + Sync,
    tel: &Telemetry,
) -> Result<RecallOutcome> {
    if ann.mode == AnnMode::Exact {
        return coarse_recall_par_traced(
            matrix, clustering, similarity, config, threads, proxy_for, tel,
        );
    }
    ann.validate()?;
    let _span = tel.span("recall.coarse");
    let (representatives, all_scored) = prepare_recall(matrix, clustering, similarity, config)?;
    tel.add("recall.candidates", matrix.n_models() as f64);
    let scored_clusters = ann_candidate_clusters(
        matrix,
        similarity,
        &representatives,
        &all_scored,
        ann,
        rep_index,
        tel,
    )?;
    tel.observe("recall.fanout_width", scored_clusters.len() as f64);
    let resolved = {
        let _scoring = tel.span("recall.proxy_scoring");
        let first: Vec<Option<Result<f64>>> =
            crate::parallel::map_indexed(&scored_clusters, threads, |_, &c| {
                Some(proxy_for(representatives[c]))
            });
        resolve_scores(
            &representatives,
            &scored_clusters,
            first,
            &mut |rep| proxy_for(rep),
            config.retry,
            tel,
        )?
    };
    tel.add("recall.proxy_evals", resolved.attempts as f64);
    if !resolved.casualties.is_empty() {
        tel.add("recall.quarantined", resolved.casualties.len() as f64);
    }
    let out = finish_recall(
        matrix,
        clustering,
        similarity,
        config,
        representatives,
        resolved,
    )?;
    tel.add("recall.proxy_epochs", out.proxy_epochs);
    tel.add("recall.recalled", out.recalled.len() as f64);
    tel.observe("recall.proxy_epochs_per_call", out.proxy_epochs);
    Ok(out)
}

/// `⌈log₂ max(n, 2)⌉` — the sublinearity budget's scale term.
fn ceil_log2(n: usize) -> usize {
    let n = n.max(2);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Choose which clusters indexed recall proxy-scores: `seed_reps` seeds by
/// representative benchmark accuracy plus at most `k·⌈log₂ M⌉` index
/// neighbours of the best seed. Returns cluster indices sorted ascending —
/// the same iteration order the exhaustive path uses, which keeps the
/// Eq. 4 float-summation order deterministic.
fn ann_candidate_clusters(
    matrix: &PerformanceMatrix,
    similarity: &SimilarityMatrix,
    representatives: &[ModelId],
    all_scored: &[usize],
    ann: &AnnConfig,
    rep_index: Option<&AnnRepIndex>,
    tel: &Telemetry,
) -> Result<Vec<usize>> {
    let width = ann.k.saturating_mul(ceil_log2(matrix.n_models()));
    tel.add("ann.k", ann.k as f64);
    tel.add("ann.log2_m", ceil_log2(matrix.n_models()) as f64);
    if all_scored.len() <= ann.seed_reps.saturating_add(width) {
        // The zoo is small enough that "sublinear" would cover everything;
        // score all clusters, exactly like the exhaustive path.
        tel.add("ann.seeds", all_scored.len() as f64);
        tel.add("ann.expanded", 0.0);
        tel.add("ann.candidates", all_scored.len() as f64);
        return Ok(all_scored.to_vec());
    }

    // Seeds: scored clusters whose representatives lead on benchmark
    // average accuracy (ties to the lower model id).
    let mut order: Vec<usize> = all_scored.to_vec();
    order.sort_by(|&a, &b| {
        matrix
            .avg_accuracy(representatives[b])
            .total_cmp(&matrix.avg_accuracy(representatives[a]))
            .then_with(|| representatives[a].cmp(&representatives[b]))
    });
    order.truncate(ann.seed_reps);
    let seeds = order;

    // Expand the index around the best seed's representative — before any
    // proxy call, so candidate choice stays independent of proxy quality.
    let built;
    let index = match rep_index {
        Some(idx) if idx.matches(all_scored) => idx,
        _ => {
            let sim_top_k = similarity.eq1_top_k().unwrap_or(5);
            built = AnnRepIndex::build(matrix, representatives, all_scored, sim_top_k, ann)?;
            &built
        }
    };
    let query = matrix.model_vector(representatives[seeds[0]]);
    let expanded = index.expand(&query, width, ann.ef_search);

    let mut candidates: Vec<usize> = seeds
        .iter()
        .copied()
        .chain(expanded.iter().copied())
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    tel.add("ann.seeds", seeds.len() as f64);
    tel.add("ann.expanded", expanded.len() as f64);
    tel.add("ann.candidates", candidates.len() as f64);
    Ok(candidates)
}

/// Proxy scores that survived the retry/quarantine pass, plus the cost and
/// casualty bookkeeping the pass produced.
struct ResolvedScores {
    /// Clusters whose representative produced a usable raw score.
    clusters: Vec<usize>,
    /// The raw scores, aligned with `clusters`.
    raw: Vec<f64>,
    /// Representatives lost on the way.
    casualties: Vec<Casualty>,
    /// Total proxy-eval attempts, successful or not — the quantity the
    /// paper's `0.5 · |MC|` accounting is charged on.
    attempts: usize,
}

/// Walk the scored clusters in order, resolving each representative's proxy
/// score with bounded retries. `first` optionally carries an already-made
/// first attempt per cluster (the parallel fan-out); `None` entries are
/// attempted lazily, which preserves the serial entry point's
/// short-circuiting. Transient failures are re-attempted via `attempt` up
/// to `retry.max_attempts` total; permanent failures, exhausted retries,
/// and non-finite scores quarantine the representative (its cluster drops
/// to the Eq. 4 fallback). Fatal errors propagate unchanged.
fn resolve_scores(
    representatives: &[ModelId],
    scored_clusters: &[usize],
    first: Vec<Option<Result<f64>>>,
    attempt: &mut dyn FnMut(ModelId) -> Result<f64>,
    retry: RetryPolicy,
    tel: &Telemetry,
) -> Result<ResolvedScores> {
    let mut resolved = ResolvedScores {
        clusters: Vec::with_capacity(scored_clusters.len()),
        raw: Vec::with_capacity(scored_clusters.len()),
        casualties: Vec::new(),
        attempts: 0,
    };
    for (&c, pre) in scored_clusters.iter().zip(first) {
        let rep = representatives[c];
        let mut tries = 1u32;
        let mut outcome = pre.unwrap_or_else(|| attempt(rep));
        resolved.attempts += 1;
        let quarantined_by = loop {
            match outcome {
                Ok(v) if v.is_finite() => {
                    resolved.clusters.push(c);
                    resolved.raw.push(v);
                    break None;
                }
                Ok(v) => {
                    tel.add("fault.corrupt_value", 1.0);
                    break Some(SelectionError::permanent_fault(
                        "oracle.proxy",
                        rep.index(),
                        SelectionError::InvalidValue {
                            what: "proxy score",
                            value: v,
                        },
                    ));
                }
                Err(e) => match e.classify() {
                    FaultClass::Fatal => return Err(e),
                    FaultClass::Transient if tries < retry.max_attempts => {
                        tel.add("fault.transient", 1.0);
                        tel.add("retry.attempts", 1.0);
                        tries += 1;
                        resolved.attempts += 1;
                        outcome = attempt(rep);
                    }
                    FaultClass::Transient => {
                        tel.add("fault.transient", 1.0);
                        break Some(e);
                    }
                    FaultClass::Permanent => {
                        tel.add("fault.permanent", 1.0);
                        break Some(e);
                    }
                },
            }
        };
        if let Some(cause) = quarantined_by {
            let casualty = Casualty::new(rep, "recall", &cause);
            tel.casualty(&casualty);
            resolved.casualties.push(casualty);
        }
    }
    if resolved.clusters.is_empty() {
        return Err(SelectionError::Empty("surviving proxy-scored clusters"));
    }
    Ok(resolved)
}

/// Shared validation + representative/cluster bookkeeping for both recall
/// entry points.
fn prepare_recall(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
) -> Result<(Vec<ModelId>, Vec<usize>)> {
    let n = matrix.n_models();
    if clustering.n_models() != n {
        return Err(SelectionError::DimensionMismatch {
            what: "clustering vs matrix models",
            expected: n,
            got: clustering.n_models(),
        });
    }
    if similarity.len() != n {
        return Err(SelectionError::DimensionMismatch {
            what: "similarity vs matrix models",
            expected: n,
            got: similarity.len(),
        });
    }
    if config.top_k == 0 {
        return Err(SelectionError::InvalidConfig("top_k must be >= 1".into()));
    }

    let representatives = clustering.representatives(matrix)?;
    Ok((representatives, scored_cluster_set(clustering)))
}

/// The clusters whose representatives recall proxy-scores: non-singleton
/// clusters, or — when the clustering is fully singleton (degenerate) —
/// every cluster, since otherwise no model could be ranked. Shared with
/// the offline build so the stored [`AnnRepIndex`] covers exactly this
/// set.
pub(crate) fn scored_cluster_set(clustering: &Clustering) -> Vec<usize> {
    let non_singleton = clustering.non_singleton_clusters();
    if non_singleton.is_empty() {
        (0..clustering.n_clusters()).collect()
    } else {
        non_singleton
    }
}

/// Turn raw representative proxy scores into the final [`RecallOutcome`].
fn finish_recall(
    matrix: &PerformanceMatrix,
    clustering: &Clustering,
    similarity: &SimilarityMatrix,
    config: &RecallConfig,
    representatives: Vec<ModelId>,
    resolved: ResolvedScores,
) -> Result<RecallOutcome> {
    let ResolvedScores {
        clusters: scored_clusters,
        raw,
        casualties,
        attempts,
    } = resolved;
    let n = matrix.n_models();
    let norm = normalize_scores(&raw);
    let mut cluster_proxy: Vec<Option<f64>> = vec![None; clustering.n_clusters()];
    for (&c, &p) in scored_clusters.iter().zip(&norm) {
        cluster_proxy[c] = Some(p);
    }

    // Recall scores per model.
    let mut ranked: Vec<(ModelId, f64)> = Vec::with_capacity(n);
    for m in matrix.model_ids() {
        let acc = matrix.avg_accuracy(m);
        let c = clustering.cluster_of(m);
        let score = match cluster_proxy[c] {
            // Eq. 3: member of a scored cluster.
            Some(p) => acc * p,
            // Eq. 4: propagate from scored representatives, decayed by
            // similarity.
            None => {
                let mut sum = 0.0;
                for (&k, &p) in scored_clusters.iter().zip(&norm) {
                    sum += similarity.similarity(m, representatives[k]) * p;
                }
                acc * sum / scored_clusters.len() as f64
            }
        };
        ranked.push((m, score));
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let recalled = ranked
        .iter()
        .take(config.top_k.min(n))
        .map(|&(m, _)| m)
        .collect();

    Ok(RecallOutcome {
        ranked,
        recalled,
        cluster_proxy,
        representatives,
        proxy_epochs: config.proxy_epoch_cost * attempts as f64,
        casualties,
    })
}

/// Baseline for Fig. 5: recall `top_k` models uniformly at random.
pub fn random_recall<R: rand::Rng + ?Sized>(
    n_models: usize,
    top_k: usize,
    rng: &mut R,
) -> Vec<ModelId> {
    use rand::seq::SliceRandom;
    let mut ids: Vec<ModelId> = (0..n_models).map(ModelId::from).collect();
    ids.shuffle(rng);
    ids.truncate(top_k.min(n_models));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 models, 2 datasets. Models 0,1 form a cluster; 2,3 are singletons.
    fn fixture() -> (PerformanceMatrix, Clustering, SimilarityMatrix) {
        let matrix = PerformanceMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec!["d0".into(), "d1".into()],
            vec![vec![0.9, 0.8, 0.5, 0.3], vec![0.9, 0.8, 0.5, 0.3]],
        )
        .unwrap();
        let clustering = Clustering::new(vec![0, 0, 1, 2]).unwrap();
        let similarity = SimilarityMatrix::from_performance(&matrix, 2).unwrap();
        (matrix, clustering, similarity)
    }

    #[test]
    fn scores_representative_once_per_non_singleton_cluster() {
        let (m, c, s) = fixture();
        let mut calls = Vec::new();
        let out = coarse_recall(&m, &c, &s, &RecallConfig::default(), |rep| {
            calls.push(rep);
            Ok(-0.5)
        })
        .unwrap();
        // Only cluster 0 is non-singleton; its representative is model 0
        // (highest avg accuracy).
        assert_eq!(calls, vec![ModelId(0)]);
        assert_eq!(out.representatives[0], ModelId(0));
        assert_eq!(out.proxy_epochs, 0.5);
        assert!(out.cluster_proxy[0].is_some());
        assert!(out.cluster_proxy[1].is_none());
    }

    #[test]
    fn eq3_and_eq4_combine_into_ranking() {
        let (m, c, s) = fixture();
        let out = coarse_recall(
            &m,
            &c,
            &s,
            &RecallConfig {
                top_k: 2,
                ..Default::default()
            },
            |_| Ok(-0.2),
        )
        .unwrap();
        // Single scored cluster -> its normalised proxy is 0.5 (constant
        // input convention). Cluster members score acc * 0.5; singletons
        // score acc * sim * 0.5, strictly less because sim < 1.
        assert_eq!(out.ranked[0].0, ModelId(0));
        assert_eq!(out.ranked[1].0, ModelId(1));
        assert_eq!(out.recalled, vec![ModelId(0), ModelId(1)]);
        // Singleton scores are positive but lower.
        let score_c = out
            .ranked
            .iter()
            .find(|&&(id, _)| id == ModelId(2))
            .unwrap()
            .1;
        assert!(score_c > 0.0 && score_c < out.ranked[1].1);
    }

    #[test]
    fn higher_proxy_cluster_wins() {
        // Two non-singleton clusters with equal accuracy; the one whose
        // representative scores better must rank first.
        let matrix = PerformanceMatrix::new(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec!["d0".into()],
            vec![vec![0.7, 0.7, 0.7, 0.7]],
        )
        .unwrap();
        let clustering = Clustering::new(vec![0, 0, 1, 1]).unwrap();
        let sim = SimilarityMatrix::from_performance(&matrix, 1).unwrap();
        let out = coarse_recall(
            &matrix,
            &clustering,
            &sim,
            &RecallConfig::default(),
            |rep| {
                Ok(if clustering.cluster_of(rep) == 1 {
                    -0.1
                } else {
                    -0.9
                })
            },
        )
        .unwrap();
        assert!(out.ranked[0].0.index() >= 2, "cluster 1 models should lead");
        assert_eq!(out.cluster_proxy[1], Some(1.0));
        assert_eq!(out.cluster_proxy[0], Some(0.0));
    }

    #[test]
    fn all_singletons_falls_back_to_scoring_everything() {
        let matrix = PerformanceMatrix::new(
            vec!["a".into(), "b".into()],
            vec!["d0".into()],
            vec![vec![0.9, 0.3]],
        )
        .unwrap();
        let clustering = Clustering::new(vec![0, 1]).unwrap();
        let sim = SimilarityMatrix::from_performance(&matrix, 1).unwrap();
        let mut calls = 0;
        let out = coarse_recall(&matrix, &clustering, &sim, &RecallConfig::default(), |_| {
            calls += 1;
            Ok(-0.3)
        })
        .unwrap();
        assert_eq!(calls, 2);
        assert_eq!(out.proxy_epochs, 1.0);
        assert_eq!(out.ranked[0].0, ModelId(0));
    }

    #[test]
    fn rank_of_reports_position() {
        let (m, c, s) = fixture();
        let out = coarse_recall(&m, &c, &s, &RecallConfig::default(), |_| Ok(-0.2)).unwrap();
        assert_eq!(out.rank_of(ModelId(0)), Some(0));
        assert_eq!(out.rank_of(ModelId(99)), None);
    }

    #[test]
    fn top_k_clamped_to_repository() {
        let (m, c, s) = fixture();
        let out = coarse_recall(
            &m,
            &c,
            &s,
            &RecallConfig {
                top_k: 100,
                ..Default::default()
            },
            |_| Ok(-0.2),
        )
        .unwrap();
        assert_eq!(out.recalled.len(), 4);
    }

    #[test]
    fn config_and_dimension_validation() {
        let (m, c, s) = fixture();
        assert!(coarse_recall(
            &m,
            &c,
            &s,
            &RecallConfig {
                top_k: 0,
                ..Default::default()
            },
            |_| Ok(0.0)
        )
        .is_err());
        let wrong = Clustering::new(vec![0, 0]).unwrap();
        assert!(coarse_recall(&m, &wrong, &s, &RecallConfig::default(), |_| Ok(0.0)).is_err());
    }

    #[test]
    fn proxy_errors_propagate() {
        let (m, c, s) = fixture();
        let err = coarse_recall(&m, &c, &s, &RecallConfig::default(), |_| {
            Err(SelectionError::Empty("proxy"))
        })
        .unwrap_err();
        assert_eq!(err, SelectionError::Empty("proxy"));
    }

    #[test]
    fn parallel_recall_matches_serial() {
        let (m, c, s) = fixture();
        let proxy = |rep: ModelId| Ok(-0.1 * (rep.index() as f64 + 1.0));
        let serial = coarse_recall(&m, &c, &s, &RecallConfig::default(), proxy).unwrap();
        for threads in [1, 2, 4] {
            let par =
                coarse_recall_par(&m, &c, &s, &RecallConfig::default(), threads, proxy).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        // Errors are deterministic too.
        let fail = |_| Err(SelectionError::Empty("proxy"));
        assert_eq!(
            coarse_recall_par(&m, &c, &s, &RecallConfig::default(), 4, fail).unwrap_err(),
            coarse_recall(&m, &c, &s, &RecallConfig::default(), fail).unwrap_err(),
        );
    }

    #[test]
    fn ann_exact_mode_is_byte_identical_to_legacy_path() {
        let (m, c, s) = fixture();
        let proxy = |rep: ModelId| Ok(-0.1 * (rep.index() as f64 + 1.0));
        let legacy = coarse_recall_par(&m, &c, &s, &RecallConfig::default(), 2, proxy).unwrap();
        let ann = coarse_recall_ann_traced(
            &m,
            &c,
            &s,
            &RecallConfig::default(),
            &AnnConfig::default(), // mode = Exact
            None,
            2,
            proxy,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(ann, legacy);
        assert_eq!(
            serde_json::to_string(&ann).unwrap(),
            serde_json::to_string(&legacy).unwrap()
        );
    }

    #[test]
    fn ann_indexed_mode_small_world_scores_everything() {
        // Fewer scored clusters than seeds + width: indexed recall must
        // collapse to the exhaustive candidate set and match it exactly.
        let (m, c, s) = fixture();
        let proxy = |rep: ModelId| Ok(-0.1 * (rep.index() as f64 + 1.0));
        let exact = coarse_recall_par(&m, &c, &s, &RecallConfig::default(), 1, proxy).unwrap();
        let cfg = AnnConfig {
            mode: AnnMode::Indexed,
            ..AnnConfig::default()
        };
        let indexed = coarse_recall_ann_traced(
            &m,
            &c,
            &s,
            &RecallConfig::default(),
            &cfg,
            None,
            1,
            proxy,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(indexed, exact);
    }

    #[test]
    fn ann_indexed_mode_bounds_proxy_fanout() {
        // 60 clusters of 2 models each; indexed recall must proxy-score at
        // most seed_reps + k·⌈log₂ M⌉ representatives, not all 60.
        let n = 120usize;
        let names: Vec<String> = (0..n).map(|i| format!("m{i}")).collect();
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|d| {
                (0..n)
                    .map(|i| (((i / 2) * 17 + d * 5) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect();
        let matrix =
            PerformanceMatrix::new(names, (0..3).map(|d| format!("d{d}")).collect(), rows).unwrap();
        let clustering = Clustering::new((0..n).map(|i| i / 2).collect()).unwrap();
        let similarity = SimilarityMatrix::lazy_from_performance(&matrix, 2).unwrap();
        let cfg = AnnConfig {
            mode: AnnMode::Indexed,
            k: 2,
            seed_reps: 3,
            ..AnnConfig::default()
        };
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let out = coarse_recall_ann_traced(
            &matrix,
            &clustering,
            &similarity,
            &RecallConfig::default(),
            &cfg,
            None,
            1,
            |rep| {
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(-0.1 * (rep.index() as f64 + 1.0))
            },
            &Telemetry::disabled(),
        )
        .unwrap();
        let bound = cfg.seed_reps + cfg.k * super::ceil_log2(n);
        let scored = calls.load(std::sync::atomic::Ordering::SeqCst);
        assert!(scored <= bound, "scored {scored} > bound {bound}");
        assert!(scored < 60, "fan-out was not reduced");
        // Every model still gets ranked (Eq. 4 covers unscored clusters).
        assert_eq!(out.ranked.len(), n);
        // Deterministic across repeat runs and thread counts.
        let again = coarse_recall_ann_traced(
            &matrix,
            &clustering,
            &similarity,
            &RecallConfig::default(),
            &cfg,
            None,
            4,
            |rep| Ok(-0.1 * (rep.index() as f64 + 1.0)),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn ceil_log2_scale_term() {
        assert_eq!(ceil_log2(0), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn random_recall_returns_distinct_models() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let picked = random_recall(10, 4, &mut rng);
        assert_eq!(picked.len(), 4);
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(random_recall(3, 10, &mut rng).len(), 3);
    }
}
