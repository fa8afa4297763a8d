//! # uu-core — estimating the impact of unknown unknowns
//!
//! Rust implementation of the estimators from *"Estimating the Impact of
//! Unknown Unknowns on Aggregate Query Results"* (Chung, Mortensen, Binnig,
//! Kraska — SIGMOD 2016). Given an integrated sample `S` drawn from an
//! unknown ground truth `D` by overlapping data sources, these estimators
//! predict the impact `Δ = φ_D − φ_K` of the entities that **no** source
//! observed on an aggregate query result.
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`sample`] | §2 | [`sample::SampleView`]: the observation multiset with values and lineage |
//! | [`estimate`] | §2.3 | the [`estimate::SumEstimator`] trait and result types |
//! | [`naive`] | §3.1 | Chao92 count × mean substitution (Eq. 8) |
//! | [`frequency`] | §3.2 | Chao92 count × singleton mean (Eq. 9–10) |
//! | [`bucket`] | §3.3 | static (equi-width/height) and dynamic buckets (Alg. 1) |
//! | [`montecarlo`] | §3.4 | sampling-process simulation + KL grid search (Alg. 2–3) |
//! | [`bound`] | §4 | the SUM estimation-error upper bound (Eq. 19) |
//! | [`aggregates`] | §5 | COUNT, AVG, MIN/MAX strategies |
//! | [`combined`] | §3.5, App. D | frequency-in-bucket, Monte-Carlo-in-bucket |
//! | [`engine`] | infrastructure | the estimator registry: [`engine::EstimatorKind`], [`engine::EstimationSession`] |
//! | [`profile`] | infrastructure | [`profile::ViewProfile`]: shared, lazily-memoized per-view statistics for batched estimation; [`profile::ProfileCache`]: cross-query reuse |
//! | [`recommend`] | §6.5 | estimator-selection policy (coverage gate, streaker detection) |
//! | [`policy`] | §6.5 (extension) | the policy packaged as a self-selecting estimator |
//! | [`capture`] | related work | capture–recapture COUNT baselines over source lineage |
//! | [`sensitivity`] | extension | leave-one-source-out influence diagnostics |
//! | [`bootstrap`] | extension | bootstrap percentile intervals for Δ estimates |
//! | [`monitor`] | extension | streaming estimation + data-collection stopping rule |
//!
//! ## Quick start
//!
//! ```
//! use uu_core::sample::SampleView;
//! use uu_core::estimate::SumEstimator;
//! use uu_core::bucket::DynamicBucketEstimator;
//!
//! // The paper's toy example (Appendix F), before source s5 arrives:
//! // A (1000 employees) seen once, B (2000) twice, D (10000) four times.
//! let sample = SampleView::from_value_multiplicities([
//!     (1000.0, 1),
//!     (2000.0, 2),
//!     (10_000.0, 4),
//! ]);
//! let bucket = DynamicBucketEstimator::default();
//! let corrected = bucket.estimate_sum(&sample).unwrap();
//! assert!((corrected - 14_500.0).abs() < 1e-6); // Table 2, column 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod bootstrap;
pub mod bound;
pub mod bucket;
pub mod capture;
pub mod combined;
pub mod engine;
pub mod estimate;
pub mod frequency;
pub mod monitor;
pub mod montecarlo;
pub mod naive;
pub mod policy;
pub mod profile;
pub mod recommend;
pub mod sample;
pub mod sensitivity;

/// Zero-dependency observability (see [`uu_stats::obs`]).
///
/// Hosted at the bottom of the dependency graph (`uu-stats`) so every
/// layer — species ladder, profile machinery, query execution, server — can
/// open trace spans and feed the shared latency histograms through one TLS
/// surface.
pub use uu_stats::obs;

pub use bucket::DynamicBucketEstimator;
pub use engine::{EstimationSession, EstimatorKind};
pub use estimate::{DeltaEstimate, SumEstimator};
pub use frequency::FrequencyEstimator;
pub use montecarlo::{MonteCarloConfig, MonteCarloEstimator};
pub use naive::NaiveEstimator;
pub use policy::PolicyEstimator;
pub use profile::ViewProfile;
pub use sample::SampleView;
