//! # tps-core — Two-Phase Recall-and-Select Model Selection
//!
//! A Rust implementation of the two-phase (coarse-recall + fine-selection)
//! model-selection framework of Cui et al., *"A Two-Phase Recall-and-Select
//! Framework for Fast Model Selection"* (ICDE 2024).
//!
//! Given a repository of pre-trained models and a new target task, the
//! framework picks a strong model to fine-tune **without** fine-tuning the
//! whole repository:
//!
//! 1. **Offline** — every model is fine-tuned once on a fixed set of
//!    benchmark datasets, producing a [`matrix::PerformanceMatrix`] and a
//!    [`curve::CurveSet`] of learning curves. Models are clustered by
//!    performance [`similarity`] ([`cluster`]), and each model's
//!    [`trend::ConvergenceTrends`] are mined from its curves.
//! 2. **Coarse-recall** — a LEEP [`proxy`] score is computed on the target
//!    dataset *only for each cluster's representative model*; Eq. 2–4
//!    [`recall`] scores rank the repository and the top-K advance.
//! 3. **Fine-selection** — the recalled models are fine-tuned under
//!    successive halving, augmented with trend-based final-performance
//!    prediction so that clearly-dominated models are dropped after the
//!    first validation ([`select::fine`]).
//!
//! The crate is substrate-agnostic: anything implementing
//! [`traits::TargetTrainer`] + [`traits::ProxyOracle`] can be selected
//! over. The companion crates `tps-zoo` (synthetic world model) and
//! `tps-nn` (real micro neural networks) provide two substrates.
//!
//! ## Quick start
//!
//! ```
//! use tps_core::prelude::*;
//!
//! // A 3-model, 2-dataset repository measured offline.
//! let matrix = PerformanceMatrix::new(
//!     vec!["bert-ft-qqp".into(), "bert-base".into(), "weak".into()],
//!     vec!["cola".into(), "sst2".into()],
//!     vec![vec![0.82, 0.80, 0.41], vec![0.90, 0.88, 0.47]],
//! )?;
//! let similarity = SimilarityMatrix::from_performance(&matrix, 2)?;
//! let clustering = tps_core::cluster::hierarchical::hierarchical_threshold(
//!     &similarity.distance_matrix(), 3, 0.1, Linkage::Average)?;
//! assert_eq!(clustering.cluster_of(ModelId(0)), clustering.cluster_of(ModelId(1)));
//! # Ok::<(), tps_core::error::SelectionError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ann;
pub mod benchsel;
pub mod budget;
pub mod cluster;
pub mod curve;
pub mod error;
pub mod fault;
pub mod ids;
pub mod incremental;
pub mod matrix;
pub mod parallel;
pub mod pipeline;
pub mod proxy;
pub mod recall;
pub mod select;
pub mod similarity;
pub mod stats;
pub mod stream;
pub mod telemetry;
pub mod traits;
pub mod trend;

/// One-stop imports for typical use of the framework.
pub mod prelude {
    pub use crate::ann::{AnnConfig, AnnIndex, AnnMode, AnnRepIndex};
    pub use crate::budget::EpochLedger;
    pub use crate::cluster::hierarchical::Linkage;
    pub use crate::cluster::Clustering;
    pub use crate::curve::{CurveSet, LearningCurve};
    pub use crate::error::{FaultClass, Result, SelectionError};
    pub use crate::fault::{
        Casualty, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultyOracle, FaultyTrainer,
        RetryPolicy,
    };
    pub use crate::ids::{DatasetId, ModelId};
    pub use crate::incremental::{DeltaEngine, Update, UpdateReport};
    pub use crate::matrix::PerformanceMatrix;
    pub use crate::parallel::ParallelConfig;
    pub use crate::pipeline::{
        two_phase_select, two_phase_select_traced, ClusterMethod, OfflineArtifacts, OfflineConfig,
        PipelineConfig, PipelineCounters, PipelineOutcome,
    };
    pub use crate::proxy::{leep::leep, PredictionMatrix};
    pub use crate::recall::{coarse_recall, coarse_recall_par, RecallConfig, RecallOutcome};
    pub use crate::select::{
        brute::{brute_force, brute_force_par},
        fine::{fine_selection, fine_selection_par, FineSelectionConfig},
        halving::{successive_halving, successive_halving_par},
        SelectionOutcome,
    };
    pub use crate::similarity::SimilarityMatrix;
    pub use crate::stream::StreamingOfflineBuilder;
    pub use crate::telemetry::{RecordingSink, Telemetry, TelemetrySink, TraceReport};
    pub use crate::traits::{ProxyOracle, TargetTrainer};
    pub use crate::trend::{ConvergenceTrends, TrendBook, TrendConfig};
}
