//! The performance matrix `Matrix(D, M)` (paper §II-A).
//!
//! `Matrix(D, M)[i][j] = p(d_i | m_j)` is the test accuracy of pre-trained
//! model `m_j` after fine-tuning on benchmark dataset `d_i`. The matrix is
//! built **offline** once and powers everything downstream: model
//! performance vectors (for similarity/clustering), per-model average
//! accuracy (the prior term of the recall score), and the convergence-trend
//! mining of the fine-selection phase.

use crate::error::{Result, SelectionError};
use crate::ids::{DatasetId, ModelId};
use serde::{Deserialize, Serialize};

/// Dense `|D| × |M|` matrix of fine-tuning test accuracies, stored row-major
/// by dataset. Deserialisation runs the same checks as [`Self::new`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PerformanceMatrix {
    model_names: Vec<String>,
    dataset_names: Vec<String>,
    /// `acc[i * n_models + j]` = accuracy of model `j` on dataset `i`.
    acc: Vec<f64>,
}

impl PerformanceMatrix {
    /// Build a matrix from row-major accuracy data (`rows` = datasets).
    ///
    /// Every accuracy must be finite and in `[0, 1]`.
    pub fn new(
        model_names: Vec<String>,
        dataset_names: Vec<String>,
        rows: Vec<Vec<f64>>,
    ) -> Result<Self> {
        validate(&model_names, &dataset_names, rows.iter().map(Vec::as_slice))?;
        Ok(Self {
            model_names,
            dataset_names,
            acc: rows.concat(),
        })
    }

    /// Incremental builder; useful when the matrix is filled by a fine-tuning
    /// loop one `(dataset, model)` cell at a time.
    pub fn builder(model_names: Vec<String>, dataset_names: Vec<String>) -> MatrixBuilder {
        let cells = vec![None; model_names.len() * dataset_names.len()];
        MatrixBuilder {
            model_names,
            dataset_names,
            cells,
        }
    }

    /// Number of models `|M|`.
    #[inline]
    pub fn n_models(&self) -> usize {
        self.model_names.len()
    }

    /// Number of benchmark datasets `|D|`.
    #[inline]
    pub fn n_datasets(&self) -> usize {
        self.dataset_names.len()
    }

    /// All model ids, in index order.
    pub fn model_ids(&self) -> impl Iterator<Item = ModelId> + '_ {
        (0..self.n_models()).map(ModelId::from)
    }

    /// All dataset ids, in index order.
    pub fn dataset_ids(&self) -> impl Iterator<Item = DatasetId> + '_ {
        (0..self.n_datasets()).map(DatasetId::from)
    }

    /// Name of a model.
    pub fn model_name(&self, m: ModelId) -> &str {
        &self.model_names[m.index()]
    }

    /// Name of a dataset.
    pub fn dataset_name(&self, d: DatasetId) -> &str {
        &self.dataset_names[d.index()]
    }

    /// Look up a model by name.
    pub fn model_by_name(&self, name: &str) -> Option<ModelId> {
        self.model_names
            .iter()
            .position(|n| n == name)
            .map(ModelId::from)
    }

    /// Look up a dataset by name.
    pub fn dataset_by_name(&self, name: &str) -> Option<DatasetId> {
        self.dataset_names
            .iter()
            .position(|n| n == name)
            .map(DatasetId::from)
    }

    /// `p(d_i | m_j)`: accuracy of model `m` fine-tuned on dataset `d`.
    #[inline]
    pub fn accuracy(&self, d: DatasetId, m: ModelId) -> f64 {
        debug_assert!(d.index() < self.n_datasets() && m.index() < self.n_models());
        self.acc[d.index() * self.n_models() + m.index()]
    }

    /// The model's performance vector
    /// `vec(m_j) = (p(d_1|m_j), …, p(d_|D||m_j))` (paper §III-A), allocated.
    pub fn model_vector(&self, m: ModelId) -> Vec<f64> {
        let n = self.n_models();
        (0..self.n_datasets())
            .map(|i| self.acc[i * n + m.index()])
            .collect()
    }

    /// All model performance vectors, as rows of a `|M| × |D|` matrix. This
    /// is the input layout expected by the clustering algorithms.
    pub fn model_vectors(&self) -> Vec<Vec<f64>> {
        self.model_ids().map(|m| self.model_vector(m)).collect()
    }

    /// Average accuracy of a model across all benchmark datasets —
    /// `acc(m_j)` in the recall score (paper Eq. 2).
    pub fn avg_accuracy(&self, m: ModelId) -> f64 {
        let v = self.model_vector(m);
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// The dataset row `(p(d | m_1), …, p(d | m_|M|))`, borrowed.
    pub fn dataset_row(&self, d: DatasetId) -> &[f64] {
        let n = self.n_models();
        &self.acc[d.index() * n..(d.index() + 1) * n]
    }

    /// For every dataset, the model achieving maximum accuracy on it
    /// (ties broken by lowest index). Used for Table III's
    /// "No. Maximum(Acc)" column.
    pub fn best_model_per_dataset(&self) -> Vec<ModelId> {
        self.dataset_ids()
            .map(|d| {
                let row = self.dataset_row(d);
                let j = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                ModelId::from(j)
            })
            .collect()
    }

    /// Restrict the matrix to a subset of datasets (used by the
    /// benchmark-compaction extension). Dataset order follows `keep`.
    pub fn select_datasets(&self, keep: &[DatasetId]) -> Result<Self> {
        if keep.is_empty() {
            return Err(SelectionError::Empty("dataset subset"));
        }
        let mut names = Vec::with_capacity(keep.len());
        let mut rows = Vec::with_capacity(keep.len());
        for &d in keep {
            if d.index() >= self.n_datasets() {
                return Err(SelectionError::UnknownId {
                    what: "dataset",
                    id: d.index(),
                });
            }
            names.push(self.dataset_names[d.index()].clone());
            rows.push(self.dataset_row(d).to_vec());
        }
        Self::new(self.model_names.clone(), names, rows)
    }
}

/// The checks every [`PerformanceMatrix`] passes, whether built by
/// [`PerformanceMatrix::new`] or deserialised: non-empty names, exactly one
/// `|M|`-long row per dataset, every accuracy finite and in `[0, 1]`.
fn validate<'a>(
    model_names: &[String],
    dataset_names: &[String],
    rows: impl ExactSizeIterator<Item = &'a [f64]>,
) -> Result<()> {
    if model_names.is_empty() {
        return Err(SelectionError::Empty("model names"));
    }
    if dataset_names.is_empty() {
        return Err(SelectionError::Empty("dataset names"));
    }
    if rows.len() != dataset_names.len() {
        return Err(SelectionError::DimensionMismatch {
            what: "performance rows",
            expected: dataset_names.len(),
            got: rows.len(),
        });
    }
    let n = model_names.len();
    for row in rows {
        if row.len() != n {
            return Err(SelectionError::DimensionMismatch {
                what: "performance row",
                expected: n,
                got: row.len(),
            });
        }
        if let Some(&v) = row
            .iter()
            .find(|v| !v.is_finite() || !(0.0..=1.0).contains(*v))
        {
            return Err(SelectionError::InvalidValue {
                what: "accuracy",
                value: v,
            });
        }
    }
    Ok(())
}

impl Deserialize for PerformanceMatrix {
    fn deserialize_value(v: &serde::value::Value) -> std::result::Result<Self, serde::Error> {
        let m = serde::__private::expect_object(v, "PerformanceMatrix")?;
        let model_names: Vec<String> = serde::__private::field(m, "model_names")?;
        let dataset_names: Vec<String> = serde::__private::field(m, "dataset_names")?;
        let acc: Vec<f64> = serde::__private::field(m, "acc")?;
        // `max(1)`: with no models `validate` fails before reading a row.
        validate(
            &model_names,
            &dataset_names,
            acc.chunks(model_names.len().max(1)),
        )
        .map_err(|e| serde::Error::custom(format!("invalid performance matrix: {e}")))?;
        Ok(Self {
            model_names,
            dataset_names,
            acc,
        })
    }
}

/// Cell-at-a-time builder for [`PerformanceMatrix`].
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    model_names: Vec<String>,
    dataset_names: Vec<String>,
    cells: Vec<Option<f64>>,
}

impl MatrixBuilder {
    /// Record one fine-tuning result.
    pub fn record(&mut self, d: DatasetId, m: ModelId, accuracy: f64) -> Result<()> {
        if m.index() >= self.model_names.len() {
            return Err(SelectionError::UnknownId {
                what: "model",
                id: m.index(),
            });
        }
        if d.index() >= self.dataset_names.len() {
            return Err(SelectionError::UnknownId {
                what: "dataset",
                id: d.index(),
            });
        }
        if !accuracy.is_finite() || !(0.0..=1.0).contains(&accuracy) {
            return Err(SelectionError::InvalidValue {
                what: "accuracy",
                value: accuracy,
            });
        }
        self.cells[d.index() * self.model_names.len() + m.index()] = Some(accuracy);
        Ok(())
    }

    /// Finish the matrix; every cell must have been recorded.
    pub fn build(self) -> Result<PerformanceMatrix> {
        let n = self.model_names.len();
        let mut rows = Vec::with_capacity(self.dataset_names.len());
        for (i, chunk) in self.cells.chunks(n).enumerate() {
            let mut row = Vec::with_capacity(n);
            for (j, cell) in chunk.iter().enumerate() {
                match cell {
                    Some(v) => row.push(*v),
                    None => {
                        return Err(SelectionError::InvalidConfig(format!(
                            "missing cell: dataset {i}, model {j}"
                        )))
                    }
                }
            }
            rows.push(row);
        }
        PerformanceMatrix::new(self.model_names, self.dataset_names, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PerformanceMatrix {
        PerformanceMatrix::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec!["d0".into(), "d1".into()],
            vec![vec![0.9, 0.5, 0.1], vec![0.8, 0.6, 0.2]],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let m = small();
        assert_eq!(m.n_models(), 3);
        assert_eq!(m.n_datasets(), 2);
        assert_eq!(m.accuracy(DatasetId(1), ModelId(0)), 0.8);
        assert_eq!(m.model_vector(ModelId(1)), vec![0.5, 0.6]);
        assert!((m.avg_accuracy(ModelId(2)) - 0.15).abs() < 1e-12);
        assert_eq!(m.dataset_row(DatasetId(0)), &[0.9, 0.5, 0.1]);
    }

    #[test]
    fn name_lookup() {
        let m = small();
        assert_eq!(m.model_by_name("b"), Some(ModelId(1)));
        assert_eq!(m.model_by_name("zz"), None);
        assert_eq!(m.dataset_by_name("d1"), Some(DatasetId(1)));
        assert_eq!(m.model_name(ModelId(2)), "c");
        assert_eq!(m.dataset_name(DatasetId(0)), "d0");
    }

    #[test]
    fn best_model_per_dataset() {
        let m = small();
        assert_eq!(m.best_model_per_dataset(), vec![ModelId(0), ModelId(0)]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = PerformanceMatrix::new(
            vec!["a".into(), "b".into()],
            vec!["d0".into()],
            vec![vec![0.9]],
        )
        .unwrap_err();
        assert!(matches!(err, SelectionError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_out_of_range_accuracy() {
        let err = PerformanceMatrix::new(vec!["a".into()], vec!["d0".into()], vec![vec![1.5]])
            .unwrap_err();
        assert!(matches!(err, SelectionError::InvalidValue { .. }));
    }

    #[test]
    fn rejects_nan() {
        let err = PerformanceMatrix::new(vec!["a".into()], vec!["d0".into()], vec![vec![f64::NAN]])
            .unwrap_err();
        assert!(matches!(err, SelectionError::InvalidValue { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            PerformanceMatrix::new(vec![], vec!["d".into()], vec![]),
            Err(SelectionError::Empty("model names"))
        ));
        assert!(matches!(
            PerformanceMatrix::new(vec!["m".into()], vec![], vec![]),
            Err(SelectionError::Empty("dataset names"))
        ));
    }

    #[test]
    fn deserialize_validates_like_new() {
        let json = serde_json::to_string(&small()).unwrap();
        let back: PerformanceMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, small());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let names = r#""model_names":["a","b","c"],"dataset_names":["d0","d1"]"#;
        for acc in ["[1.5,0.5,0.1,0.8,0.6,-0.2]", "[0.9,0.5,0.1,0.8]"] {
            let bad = format!("{{{names},\"acc\":{acc}}}");
            assert!(
                serde_json::from_str::<PerformanceMatrix>(&bad).is_err(),
                "{bad} loaded"
            );
        }
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = PerformanceMatrix::builder(
            vec!["a".into(), "b".into()],
            vec!["d0".into(), "d1".into()],
        );
        for (d, m, v) in [(0, 0, 0.1), (0, 1, 0.2), (1, 0, 0.3), (1, 1, 0.4)] {
            b.record(DatasetId(d), ModelId(m), v).unwrap();
        }
        let mat = b.build().unwrap();
        assert_eq!(mat.accuracy(DatasetId(1), ModelId(1)), 0.4);
    }

    #[test]
    fn builder_detects_missing_cell() {
        let b = PerformanceMatrix::builder(vec!["a".into()], vec!["d0".into()]);
        assert!(matches!(b.build(), Err(SelectionError::InvalidConfig(_))));
    }

    #[test]
    fn builder_rejects_unknown_ids() {
        let mut b = PerformanceMatrix::builder(vec!["a".into()], vec!["d0".into()]);
        assert!(b.record(DatasetId(0), ModelId(5), 0.5).is_err());
        assert!(b.record(DatasetId(5), ModelId(0), 0.5).is_err());
    }

    #[test]
    fn select_datasets_reorders() {
        let m = small();
        let sub = m.select_datasets(&[DatasetId(1), DatasetId(0)]).unwrap();
        assert_eq!(sub.n_datasets(), 2);
        assert_eq!(sub.dataset_name(DatasetId(0)), "d1");
        assert_eq!(sub.accuracy(DatasetId(0), ModelId(0)), 0.8);
    }

    #[test]
    fn select_datasets_rejects_bad_id() {
        let m = small();
        assert!(m.select_datasets(&[DatasetId(9)]).is_err());
        assert!(m.select_datasets(&[]).is_err());
    }
}
