//! Model-similarity measures (paper §III-A, Eq. 1; Table I "text-based").
//!
//! Two models are similar when they would achieve similar fine-tuning
//! performance on a new task. The paper measures this in a data-driven way:
//! the average of the **top-k largest** absolute accuracy differences across
//! the benchmark datasets, subtracted from 1 (Eq. 1). Focusing on the
//! largest differences makes the measure sensitive to the datasets where the
//! two models genuinely disagree while ignoring the many datasets where all
//! reasonable models score alike.
//!
//! A text-based alternative (Table I) embeds each model card into a vector
//! and compares by cosine; the paper uses SBERT, we substitute a hashed
//! bag-of-words embedding (see `DESIGN.md` §2).

use crate::error::{Result, SelectionError};
use crate::ids::ModelId;
use crate::matrix::PerformanceMatrix;
use crate::parallel::{pair_indices, try_map_indexed};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Performance-based model similarity, Eq. 1:
/// `sim(m1, m2) = 1 − avg(top_k |vec(m1) − vec(m2)|)`.
///
/// `k` is clamped to the vector length; the appendix-D experiment (Table X)
/// sweeps `k` and the paper settles on `k = 5`.
///
/// ```
/// use tps_core::similarity::performance_similarity;
/// let bert_a = [0.82, 0.90, 0.75];
/// let bert_b = [0.80, 0.91, 0.74];
/// let oddball = [0.51, 0.49, 0.40];
/// let close = performance_similarity(&bert_a, &bert_b, 2)?;
/// let far = performance_similarity(&bert_a, &oddball, 2)?;
/// assert!(close > far);
/// # Ok::<(), tps_core::error::SelectionError>(())
/// ```
pub fn performance_similarity(v1: &[f64], v2: &[f64], k: usize) -> Result<f64> {
    if v1.len() != v2.len() {
        return Err(SelectionError::DimensionMismatch {
            what: "performance vectors",
            expected: v1.len(),
            got: v2.len(),
        });
    }
    if v1.is_empty() {
        return Err(SelectionError::Empty("performance vectors"));
    }
    if k == 0 {
        return Err(SelectionError::InvalidConfig("top-k must be >= 1".into()));
    }
    let mut diffs: Vec<f64> = v1.iter().zip(v2).map(|(a, b)| (a - b).abs()).collect();
    let k = k.min(diffs.len());
    // Partial sort: only the k largest differences matter.
    diffs.sort_unstable_by(|a, b| b.total_cmp(a));
    let avg = diffs[..k].iter().sum::<f64>() / k as f64;
    Ok(1.0 - avg)
}

/// Eq. 1 similarity between two equal-length vectors, with `k` already
/// validated/clamped by the caller. Float-op sequence identical to
/// [`performance_similarity`] so dense and lazy storage agree bitwise.
#[inline]
fn eq1_similarity_unchecked(v1: &[f64], v2: &[f64], k: usize) -> f64 {
    let mut diffs: Vec<f64> = v1.iter().zip(v2).map(|(a, b)| (a - b).abs()).collect();
    let k = k.min(diffs.len());
    diffs.sort_unstable_by(|a, b| b.total_cmp(a));
    let avg = diffs[..k].iter().sum::<f64>() / k as f64;
    1.0 - avg
}

/// Backing storage for a [`SimilarityMatrix`].
enum SimStore {
    /// Row-major dense `n × n` values — the legacy layout; O(M²) memory,
    /// O(1) lookups.
    Dense(Vec<f64>),
    /// Per-model vectors plus the Eq. 1 `k`; entries are recomputed on
    /// demand. O(M·D) memory — the only layout that survives 10⁵–10⁶
    /// model zoos — at O(D log D) per lookup.
    Lazy {
        vectors: Arc<Vec<Vec<f64>>>,
        top_k: usize,
    },
}

/// A symmetric `|M| × |M|` model-similarity matrix with unit diagonal.
///
/// Two storage layouts share this one type: the legacy dense matrix, and a
/// lazy vector-backed form for index-assisted builds where materialising
/// O(M²) floats is exactly what we are trying to avoid (see
/// `DESIGN.md` §5.6).
pub struct SimilarityMatrix {
    n: usize,
    store: SimStore,
    /// Lazily-computed distance view (`1 − sim`), shared by all callers;
    /// clustering asks for the distance matrix several times per build.
    dist_cache: Mutex<Option<Arc<Vec<f64>>>>,
}

impl SimilarityMatrix {
    fn from_parts(n: usize, sim: Vec<f64>) -> Self {
        Self {
            n,
            store: SimStore::Dense(sim),
            dist_cache: Mutex::new(None),
        }
    }

    /// A lazy vector-backed matrix: Eq. 1 entries are computed on demand
    /// from the shared per-model vectors instead of being materialised.
    pub fn lazy_from_vectors(vectors: Arc<Vec<Vec<f64>>>, top_k: usize) -> Result<Self> {
        if vectors.is_empty() {
            return Err(SelectionError::Empty("model vectors"));
        }
        if top_k == 0 {
            return Err(SelectionError::InvalidConfig("top-k must be >= 1".into()));
        }
        let dims = vectors[0].len();
        if dims == 0 {
            return Err(SelectionError::Empty("performance vectors"));
        }
        for v in vectors.iter() {
            if v.len() != dims {
                return Err(SelectionError::DimensionMismatch {
                    what: "performance vectors",
                    expected: dims,
                    got: v.len(),
                });
            }
        }
        Ok(Self {
            n: vectors.len(),
            store: SimStore::Lazy { vectors, top_k },
            dist_cache: Mutex::new(None),
        })
    }

    /// Lazy [`Self::from_performance`]: O(M·D) memory instead of O(M²).
    pub fn lazy_from_performance(matrix: &PerformanceMatrix, top_k: usize) -> Result<Self> {
        Self::lazy_from_vectors(Arc::new(matrix.model_vectors()), top_k)
    }

    /// The Eq. 1 `k` of a lazy matrix; `None` for dense storage (which has
    /// forgotten the metric it was built with).
    pub fn eq1_top_k(&self) -> Option<usize> {
        match &self.store {
            SimStore::Dense(_) => None,
            SimStore::Lazy { top_k, .. } => Some(*top_k),
        }
    }

    /// Whether entries are recomputed on demand (vector-backed storage).
    pub fn is_lazy(&self) -> bool {
        matches!(self.store, SimStore::Lazy { .. })
    }

    /// Compute the Eq. 1 similarity matrix from a performance matrix.
    pub fn from_performance(matrix: &PerformanceMatrix, top_k: usize) -> Result<Self> {
        let vecs = matrix.model_vectors();
        Self::from_vectors_with(&vecs, |_, _, a, b| performance_similarity(a, b, top_k))
    }

    /// Parallel [`Self::from_performance`]: the `O(|M|²)` pairwise loop is
    /// split across `threads` workers. Bit-identical to the serial result.
    pub fn from_performance_par(
        matrix: &PerformanceMatrix,
        top_k: usize,
        threads: usize,
    ) -> Result<Self> {
        let vecs = matrix.model_vectors();
        Self::from_vectors_with_par(&vecs, threads, |_, _, a, b| {
            performance_similarity(a, b, top_k)
        })
    }

    /// Compute a similarity matrix from arbitrary model vectors via cosine —
    /// used for the text-based similarity of Table I. Per-model L2 norms
    /// are computed once up front rather than once per pair, so the O(M²)
    /// loop does O(M) norm work instead of O(M²).
    pub fn from_vectors_cosine(vecs: &[Vec<f64>]) -> Result<Self> {
        let norms = l2_norms(vecs);
        Self::from_vectors_with(vecs, |i, j, a, b| {
            Ok(cosine_similarity_prenorm(a, b, norms[i], norms[j]))
        })
    }

    /// Parallel [`Self::from_vectors_cosine`]. Bit-identical to serial.
    pub fn from_vectors_cosine_par(vecs: &[Vec<f64>], threads: usize) -> Result<Self> {
        let norms = l2_norms(vecs);
        Self::from_vectors_with_par(vecs, threads, |i, j, a, b| {
            Ok(cosine_similarity_prenorm(a, b, norms[i], norms[j]))
        })
    }

    fn from_vectors_with(
        vecs: &[Vec<f64>],
        mut f: impl FnMut(usize, usize, &[f64], &[f64]) -> Result<f64>,
    ) -> Result<Self> {
        if vecs.is_empty() {
            return Err(SelectionError::Empty("model vectors"));
        }
        let n = vecs.len();
        let mut sim = vec![0.0; n * n];
        for i in 0..n {
            sim[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let s = f(i, j, &vecs[i], &vecs[j])?;
                sim[i * n + j] = s;
                sim[j * n + i] = s;
            }
        }
        Ok(Self::from_parts(n, sim))
    }

    fn from_vectors_with_par(
        vecs: &[Vec<f64>],
        threads: usize,
        f: impl Fn(usize, usize, &[f64], &[f64]) -> Result<f64> + Sync,
    ) -> Result<Self> {
        if vecs.is_empty() {
            return Err(SelectionError::Empty("model vectors"));
        }
        let n = vecs.len();
        // The pair list is enumerated in the exact order the serial double
        // loop visits it, so chunked workers also report the serial run's
        // first error.
        let pairs = pair_indices(n);
        let vals = try_map_indexed(&pairs, threads, |_, &(i, j)| f(i, j, &vecs[i], &vecs[j]))?;
        let mut sim = vec![0.0; n * n];
        for i in 0..n {
            sim[i * n + i] = 1.0;
        }
        for (&(i, j), s) in pairs.iter().zip(vals) {
            sim[i * n + j] = s;
            sim[j * n + i] = s;
        }
        Ok(Self::from_parts(n, sim))
    }

    /// Number of models.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no models (never constructible; kept for
    /// API completeness alongside [`Self::len`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity between two models.
    // `always`: recall's Eq. 4 loop makes one call per (model, scored
    // representative) pair, ~2.3M per selection on a 20k-model zoo, and
    // LLVM stops inlining this into a caller as large as `finish_recall`.
    #[inline(always)]
    pub fn similarity(&self, a: ModelId, b: ModelId) -> f64 {
        match &self.store {
            SimStore::Dense(sim) => sim[a.index() * self.n + b.index()],
            SimStore::Lazy { vectors, top_k } => {
                if a == b {
                    // Matches the dense constructors' explicit unit diagonal.
                    1.0
                } else {
                    eq1_similarity_unchecked(&vectors[a.index()], &vectors[b.index()], *top_k)
                }
            }
        }
    }

    /// Distance view: `1 − sim`, floored at zero (cosine similarity can
    /// exceed-free range but Eq. 1 can go slightly negative when vectors
    /// differ by more than 1 on average — impossible for accuracies, yet we
    /// stay defensive).
    #[inline]
    pub fn distance(&self, a: ModelId, b: ModelId) -> f64 {
        (1.0 - self.similarity(a, b)).max(0.0)
    }

    /// The full distance matrix, row-major — input to clustering/silhouette.
    ///
    /// Computed once and cached; subsequent calls (clustering reads it
    /// several times per offline build) hand back the same shared buffer.
    ///
    /// On lazy storage this **materialises the dense O(M²) view** — legacy
    /// callers (exact-mode clustering, silhouette sweeps) are welcome to
    /// it at small M, but the index-assisted paths never call this.
    pub fn distance_matrix(&self) -> Arc<Vec<f64>> {
        let mut cache = self.dist_cache.lock();
        if let Some(d) = cache.as_ref() {
            return Arc::clone(d);
        }
        let d: Arc<Vec<f64>> = match &self.store {
            SimStore::Dense(sim) => Arc::new(sim.iter().map(|s| (1.0 - s).max(0.0)).collect()),
            SimStore::Lazy { .. } => {
                let n = self.n;
                let mut dist = vec![0.0; n * n];
                for i in 0..n {
                    for j in (i + 1)..n {
                        let d = self.distance(ModelId(i as u32), ModelId(j as u32));
                        dist[i * n + j] = d;
                        dist[j * n + i] = d;
                    }
                }
                Arc::new(dist)
            }
        };
        *cache = Some(Arc::clone(&d));
        d
    }
}

// The distance cache is derived state: equality, cloning, debug output, and
// the serialized form all ignore it (and the serde shim's derive has no
// `skip`, hence the manual impls). Dense storage keeps the historical
// `{"n": ..., "sim": ...}` object layout byte-for-byte; lazy storage
// serializes as `{"n": ..., "top_k": ..., "vectors": ...}` and the
// deserializer dispatches on which key is present.

impl std::fmt::Debug for SimilarityMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.store {
            SimStore::Dense(sim) => f
                .debug_struct("SimilarityMatrix")
                .field("n", &self.n)
                .field("sim", sim)
                .finish(),
            SimStore::Lazy { vectors, top_k } => f
                .debug_struct("SimilarityMatrix")
                .field("n", &self.n)
                .field("top_k", top_k)
                .field("vectors", vectors)
                .finish(),
        }
    }
}

impl Clone for SimilarityMatrix {
    fn clone(&self) -> Self {
        let store = match &self.store {
            SimStore::Dense(sim) => SimStore::Dense(sim.clone()),
            SimStore::Lazy { vectors, top_k } => SimStore::Lazy {
                vectors: Arc::clone(vectors),
                top_k: *top_k,
            },
        };
        Self {
            n: self.n,
            store,
            // Share the already-computed view instead of recomputing it.
            dist_cache: Mutex::new(self.dist_cache.lock().clone()),
        }
    }
}

impl PartialEq for SimilarityMatrix {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        match (&self.store, &other.store) {
            (SimStore::Dense(a), SimStore::Dense(b)) => a == b,
            (
                SimStore::Lazy {
                    vectors: va,
                    top_k: ka,
                },
                SimStore::Lazy {
                    vectors: vb,
                    top_k: kb,
                },
            ) => ka == kb && va == vb,
            // Mixed storage: semantic comparison, entry by entry. O(M²),
            // but mixed equality only appears in tests at small M.
            _ => (0..self.n as u32).all(|i| {
                (0..self.n as u32).all(|j| {
                    self.similarity(ModelId(i), ModelId(j))
                        == other.similarity(ModelId(i), ModelId(j))
                })
            }),
        }
    }
}

impl Serialize for SimilarityMatrix {
    fn serialize_value(&self) -> serde::value::Value {
        let mut m = serde::value::Map::new();
        m.insert("n".into(), self.n.serialize_value());
        match &self.store {
            SimStore::Dense(sim) => {
                m.insert("sim".into(), sim.serialize_value());
            }
            SimStore::Lazy { vectors, top_k } => {
                m.insert("top_k".into(), top_k.serialize_value());
                m.insert("vectors".into(), vectors.serialize_value());
            }
        }
        serde::value::Value::Object(m)
    }
}

impl Deserialize for SimilarityMatrix {
    fn deserialize_value(v: &serde::value::Value) -> std::result::Result<Self, serde::Error> {
        let m = serde::__private::expect_object(v, "SimilarityMatrix")?;
        if m.contains_key("sim") {
            Ok(Self::from_parts(
                serde::__private::field(m, "n")?,
                serde::__private::field(m, "sim")?,
            ))
        } else {
            let n: usize = serde::__private::field(m, "n")?;
            let top_k: usize = serde::__private::field(m, "top_k")?;
            let vectors: Vec<Vec<f64>> = serde::__private::field(m, "vectors")?;
            let matrix = Self::lazy_from_vectors(Arc::new(vectors), top_k)
                .map_err(|e| serde::Error::custom(format!("invalid lazy matrix: {e}")))?;
            if matrix.n != n {
                return Err(serde::Error::custom(format!(
                    "lazy matrix count mismatch: n={n} but {} vectors",
                    matrix.n
                )));
            }
            Ok(matrix)
        }
    }
}

/// Cosine similarity of two equal-length vectors; 0 for zero vectors.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// L2 norm of a vector (same accumulation order as [`cosine_similarity`]'s
/// internal norm loop, so pre-normed cosine stays bit-identical).
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Per-model L2 norms, computed once for a whole vector set — the cached
/// input to [`cosine_similarity_prenorm`].
pub fn l2_norms(vecs: &[Vec<f64>]) -> Vec<f64> {
    vecs.iter().map(|v| l2_norm(v)).collect()
}

/// Cosine similarity with both norms supplied by the caller (from
/// [`l2_norms`]), so an O(M²) pairwise loop does not recompute each
/// model's norm M times. Bit-identical to [`cosine_similarity`]: the dot
/// product accumulates in the same element order and `norm_a * norm_b`
/// equals the `na.sqrt() * nb.sqrt()` it replaces.
pub fn cosine_similarity_prenorm(a: &[f64], b: &[f64], norm_a: f64, norm_b: f64) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    let mut dot = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
    }
    dot / (norm_a * norm_b)
}

/// Embed a model-card text into a fixed-size vector via hashed bag-of-words
/// (the SBERT substitute for Table I's text-based similarity).
///
/// Tokens are lowercased alphanumeric runs; each token increments one of
/// `dim` buckets chosen by an FNV-1a hash. The embedding is L2-normalised so
/// downstream cosine similarity is a true angular measure.
pub fn embed_text(card: &str, dim: usize) -> Vec<f64> {
    assert!(dim > 0, "embedding dimension must be positive");
    let mut v = vec![0.0f64; dim];
    for token in card
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
    {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in token.bytes() {
            let b = b.to_ascii_lowercase();
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        v[(h % dim as u64) as usize] += 1.0;
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_identical_vectors_similarity_one() {
        let v = vec![0.5, 0.7, 0.9];
        assert!((performance_similarity(&v, &v, 2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_uses_topk_largest_differences() {
        let a = vec![0.9, 0.5, 0.5, 0.5];
        let b = vec![0.1, 0.5, 0.5, 0.5];
        // top-1 difference is 0.8 -> sim 0.2
        assert!((performance_similarity(&a, &b, 1).unwrap() - 0.2).abs() < 1e-12);
        // top-2 averages 0.8 and 0.0 -> sim 0.6
        assert!((performance_similarity(&a, &b, 2).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn eq1_k_clamped_to_len() {
        let a = vec![0.9, 0.1];
        let b = vec![0.1, 0.9];
        let s = performance_similarity(&a, &b, 100).unwrap();
        assert!((s - (1.0 - 0.8)).abs() < 1e-12);
    }

    #[test]
    fn eq1_rejects_bad_input() {
        assert!(performance_similarity(&[0.1], &[0.1, 0.2], 1).is_err());
        assert!(performance_similarity(&[], &[], 1).is_err());
        assert!(performance_similarity(&[0.1], &[0.2], 0).is_err());
    }

    #[test]
    fn similarity_matrix_symmetric_unit_diag() {
        let m = PerformanceMatrix::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec!["d0".into(), "d1".into()],
            vec![vec![0.9, 0.8, 0.1], vec![0.85, 0.8, 0.2]],
        )
        .unwrap();
        let s = SimilarityMatrix::from_performance(&m, 2).unwrap();
        assert_eq!(s.len(), 3);
        for i in 0..3 {
            assert_eq!(s.similarity(ModelId(i as u32), ModelId(i as u32)), 1.0);
            for j in 0..3 {
                assert_eq!(
                    s.similarity(ModelId(i as u32), ModelId(j as u32)),
                    s.similarity(ModelId(j as u32), ModelId(i as u32))
                );
            }
        }
        // a and b are much more similar than a and c.
        assert!(s.similarity(ModelId(0), ModelId(1)) > s.similarity(ModelId(0), ModelId(2)));
    }

    #[test]
    fn distance_complements_similarity() {
        let m = PerformanceMatrix::new(
            vec!["a".into(), "b".into()],
            vec!["d0".into()],
            vec![vec![0.9, 0.4]],
        )
        .unwrap();
        let s = SimilarityMatrix::from_performance(&m, 1).unwrap();
        let d = s.distance(ModelId(0), ModelId(1));
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(s.distance_matrix()[1], d);
    }

    #[test]
    fn parallel_constructors_match_serial() {
        let vecs: Vec<Vec<f64>> = (0..23)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 7 + j * 3) % 11) as f64 / 11.0)
                    .collect()
            })
            .collect();
        let serial_perf = {
            let m = PerformanceMatrix::new(
                (0..6).map(|j| format!("m{j}")).collect(),
                (0..23).map(|i| format!("d{i}")).collect(),
                vecs.clone(),
            )
            .unwrap();
            (
                SimilarityMatrix::from_performance(&m, 3).unwrap(),
                SimilarityMatrix::from_performance_par(&m, 3, 4).unwrap(),
            )
        };
        assert_eq!(serial_perf.0, serial_perf.1);
        let serial_cos = SimilarityMatrix::from_vectors_cosine(&vecs).unwrap();
        for threads in [1, 2, 4, 7] {
            let par = SimilarityMatrix::from_vectors_cosine_par(&vecs, threads).unwrap();
            assert_eq!(par, serial_cos, "threads={threads}");
        }
    }

    #[test]
    fn distance_matrix_is_cached_and_shared() {
        let m = PerformanceMatrix::new(
            vec!["a".into(), "b".into()],
            vec!["d0".into()],
            vec![vec![0.9, 0.4]],
        )
        .unwrap();
        let s = SimilarityMatrix::from_performance(&m, 1).unwrap();
        let d1 = s.distance_matrix();
        let d2 = s.distance_matrix();
        assert!(std::sync::Arc::ptr_eq(&d1, &d2));
        // Clones share the computed view rather than recomputing it.
        let c = s.clone();
        assert!(std::sync::Arc::ptr_eq(&d1, &c.distance_matrix()));
    }

    #[test]
    fn lazy_storage_matches_dense() {
        let m = PerformanceMatrix::new(
            (0..5).map(|j| format!("m{j}")).collect(),
            (0..4).map(|i| format!("d{i}")).collect(),
            (0..4)
                .map(|d| (0..5).map(|j| ((d * 5 + j) % 7) as f64 / 7.0).collect())
                .collect(),
        )
        .unwrap();
        let dense = SimilarityMatrix::from_performance(&m, 3).unwrap();
        let lazy = SimilarityMatrix::lazy_from_performance(&m, 3).unwrap();
        assert!(lazy.is_lazy() && !dense.is_lazy());
        assert_eq!(lazy.eq1_top_k(), Some(3));
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(
                    dense.similarity(ModelId(i), ModelId(j)),
                    lazy.similarity(ModelId(i), ModelId(j)),
                    "entry ({i}, {j})"
                );
            }
        }
        // Semantic cross-storage equality and identical materialised view.
        assert_eq!(dense, lazy);
        assert_eq!(*dense.distance_matrix(), *lazy.distance_matrix());
    }

    #[test]
    fn lazy_storage_serde_round_trip() {
        let m = PerformanceMatrix::new(
            vec!["a".into(), "b".into()],
            vec!["d0".into(), "d1".into()],
            vec![vec![0.9, 0.4], vec![0.7, 0.6]],
        )
        .unwrap();
        let lazy = SimilarityMatrix::lazy_from_performance(&m, 2).unwrap();
        let json = serde_json::to_string(&lazy).unwrap();
        let back: SimilarityMatrix = serde_json::from_str(&json).unwrap();
        assert!(back.is_lazy());
        assert_eq!(lazy, back);
        // Dense round trip keeps the historical layout working too.
        let dense = SimilarityMatrix::from_performance(&m, 2).unwrap();
        let djson = serde_json::to_string(&dense).unwrap();
        let dback: SimilarityMatrix = serde_json::from_str(&djson).unwrap();
        assert!(!dback.is_lazy());
        assert_eq!(dense, dback);
    }

    #[test]
    fn prenorm_cosine_matches_plain_cosine() {
        let vecs: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..5).map(|j| ((i * 3 + j) % 13) as f64 / 13.0).collect())
            .collect();
        let norms = l2_norms(&vecs);
        for i in 0..vecs.len() {
            for j in 0..vecs.len() {
                let plain = cosine_similarity(&vecs[i], &vecs[j]);
                let pre = cosine_similarity_prenorm(&vecs[i], &vecs[j], norms[i], norms[j]);
                assert_eq!(plain, pre, "pair ({i}, {j})");
            }
        }
        assert_eq!(cosine_similarity_prenorm(&[0.0], &[1.0], 0.0, 1.0), 0.0);
    }

    #[test]
    fn cosine_behaviour() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn text_embedding_discriminates() {
        let bert1 = embed_text("BERT base uncased fine-tuned on QQP", 64);
        let bert2 = embed_text("BERT base fine-tuned on QQP dataset", 64);
        let vit = embed_text("Vision transformer patch16 trained on imagenet-21k", 64);
        assert!(cosine_similarity(&bert1, &bert2) > cosine_similarity(&bert1, &vit));
    }

    #[test]
    fn text_embedding_is_normalised() {
        let v = embed_text("hello world hello", 32);
        let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn text_embedding_empty_is_zero() {
        let v = embed_text("  --- ", 8);
        assert!(v.iter().all(|&x| x == 0.0));
    }
}
