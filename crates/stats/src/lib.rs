//! # uu-stats — statistical substrate for unknown-unknowns estimation
//!
//! This crate implements, from scratch, every piece of numerical machinery the
//! estimators of *"Estimating the Impact of Unknown Unknowns on Aggregate Query
//! Results"* (Chung et al., SIGMOD 2016) rest on:
//!
//! * [`freq`] — frequency statistics (`f1` singletons, `f2` doubletons, …) of an
//!   observation multiset, maintained incrementally.
//! * [`coverage`] — the Good–Turing sample-coverage estimator `Ĉ = 1 − f1/n`.
//! * [`species`] — species-richness estimators: Chao92 (the paper's workhorse),
//!   plus Chao84, first/second-order jackknife and the bootstrap estimator as
//!   baselines.
//! * [`cv`] — the coefficient-of-variation estimate `γ̂²` of Chao & Lee (1992)
//!   (Eq. 5–6 of the paper).
//! * [`bound`] — the McAllester–Schapire high-probability upper bound on the
//!   missing probability mass `M0` (Eq. 16).
//! * [`kl`] — smoothed discrete Kullback–Leibler divergence used by the
//!   Monte-Carlo estimator's distance function.
//! * [`linalg`] — a small dense-matrix toolkit (Gaussian elimination with
//!   partial pivoting, least-squares via normal equations).
//! * [`surface`] — 2-D quadratic least-squares surface fitting with
//!   box-constrained minimisation (Algorithm 3, line 11–12).
//! * [`descriptive`] — means, variances, medians, Spearman rank correlation.
//! * [`exact`] — correctly rounded exact sums, the one definition of every
//!   SUM of observed values.
//! * [`sampling`] — weighted sampling with and without replacement.
//! * [`rng`] — a self-contained, seedable xoshiro256\*\* generator so results
//!   are bit-for-bit reproducible across platforms and independent of external
//!   crate version churn.
//! * [`obs`] — zero-dependency observability (re-exported as
//!   `uu_core::obs`): per-request trace spans plus mergeable log-bucketed
//!   latency histograms. Hosted here, below every instrumented layer, so
//!   the species ladder, the profile machinery and the server can all open
//!   spans.
//!
//! Everything is pure computation over `f64`/`u64` on the calling thread;
//! there is no I/O, no thread and no external runtime dependency ([`obs`]
//! reads clocks and atomics, nothing else).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod coverage;
pub mod cv;
pub mod descriptive;
pub mod exact;
pub mod freq;
pub mod kl;
pub mod linalg;
pub mod obs;
pub mod rng;
pub mod sampling;
pub mod species;
pub mod surface;

pub use bound::good_turing_mass_bound;
pub use coverage::sample_coverage;
pub use freq::FrequencyStatistics;
pub use rng::Rng;
pub use species::{chao92, CountEstimate};
