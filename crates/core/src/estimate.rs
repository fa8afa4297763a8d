//! Estimator trait and result types (paper §2.3).
//!
//! The goal is `φ̂_D = φ_K + Δ̂(S)` (Eq. 2): estimate the impact of unknown
//! unknowns `Δ` and add it to the closed-world answer.
//!
//! # Symbol table (paper Appendix A ↔ this crate)
//!
//! | Paper | Meaning | Here |
//! |---|---|---|
//! | `D`, `N = \|D\|` | ground truth and its size | only in `uu-datagen` (estimators never see it) |
//! | `S`, `n = \|S\|` | observed sample with duplicates | [`crate::sample::SampleView`], [`crate::sample::SampleView::n`] |
//! | `K`, `c = \|K\|` | integrated database of unique entities | the unique items of a `SampleView`, [`crate::sample::SampleView::c`] |
//! | `U`, `M0` | unknown unknowns and their probability mass | what `Δ̂` accounts for; `M0` bound in [`uu_stats::bound`] |
//! | `s_j`, `n_j` | source `j` and its contribution | [`crate::sample::SampleView::source_sizes`] |
//! | `φ` | aggregate query result | [`crate::sample::SampleView::observed_sum`] (φ_K, the correctly rounded exact sum of the values, [`uu_stats::exact`]) |
//! | `Δ` | impact of unknown unknowns | [`DeltaEstimate::delta`] |
//! | `f_j`, `F` | frequency statistics | [`uu_stats::freq::FrequencyStatistics`] |
//! | `ρ` | publicity–value correlation | `uu-datagen` population knob |
//! | `γ` | coefficient of variation (skew) | [`uu_stats::cv`] |
//! | `C` | sample coverage (`1 − M0`) | [`uu_stats::coverage`] |

use crate::profile::ProfileSnapshot;
use crate::sample::SampleView;

/// Result of a SUM-impact estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEstimate {
    /// The estimated impact `Δ̂`. `None` when the estimator is undefined for
    /// the sample (e.g. its count estimator divides by zero because every
    /// observation is a singleton) — a caller typically falls back to the
    /// observed result in that case.
    pub delta: Option<f64>,
    /// The population-richness estimate `N̂` backing the value estimate, when
    /// the estimator produces one.
    pub n_hat: Option<f64>,
}

impl DeltaEstimate {
    /// An undefined estimate.
    pub const UNDEFINED: DeltaEstimate = DeltaEstimate {
        delta: None,
        n_hat: None,
    };

    /// A defined estimate.
    pub fn new(delta: f64, n_hat: f64) -> Self {
        DeltaEstimate {
            delta: Some(delta),
            n_hat: Some(n_hat),
        }
    }

    /// `|Δ̂|`, mapping undefined to `+∞` — the objective value used by the
    /// dynamic bucket splitter (an undefined bucket must never look
    /// attractive).
    pub fn abs_or_infinite(&self) -> f64 {
        self.delta.map(f64::abs).unwrap_or(f64::INFINITY)
    }

    /// True if the estimator produced a value.
    pub fn is_defined(&self) -> bool {
        self.delta.is_some()
    }
}

/// An estimator of the impact of unknown unknowns on a SUM aggregate.
///
/// Implementations are deterministic: randomised estimators (Monte-Carlo)
/// carry their seed in their configuration.
pub trait SumEstimator {
    /// Short display name used by harnesses and reports.
    fn name(&self) -> &'static str;

    /// Estimates `Δ̂(S)`.
    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate;

    /// Convenience: the corrected query answer `φ̂_D = φ_K + Δ̂`.
    ///
    /// Returns `None` when the estimator is undefined for this sample.
    fn estimate_sum(&self, sample: &SampleView) -> Option<f64> {
        self.estimate_delta(sample)
            .delta
            .map(|d| sample.observed_sum() + d)
    }

    /// The corrected answer, falling back to the observed (closed-world)
    /// answer when the estimator is undefined.
    fn estimate_sum_or_observed(&self, sample: &SampleView) -> f64 {
        self.estimate_sum(sample)
            .unwrap_or_else(|| sample.observed_sum())
    }

    /// Estimates `Δ̂` consuming the shared statistics of a [`ProfileSnapshot`].
    ///
    /// The default implementation ignores the memo and runs the direct path;
    /// estimators whose statistics the profile caches (naïve, frequency,
    /// bucket, Monte-Carlo, policy) override it to reuse them. Overrides MUST
    /// return bit-for-bit the same result as
    /// `self.estimate_delta(profile.view())` — the profile memoizes, it never
    /// approximates.
    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        self.estimate_delta(profile.view())
    }

    /// Profile-aware convenience: the corrected answer `φ̂_D = φ_K + Δ̂`
    /// computed from shared statistics. `None` when the estimator is
    /// undefined for the profiled view.
    fn estimate_sum_profiled(&self, profile: &ProfileSnapshot) -> Option<f64> {
        self.estimate_delta_profiled(profile)
            .delta
            .map(|d| profile.view().observed_sum() + d)
    }
}

impl<T: SumEstimator + ?Sized> SumEstimator for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        (**self).estimate_delta(sample)
    }

    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        (**self).estimate_delta_profiled(profile)
    }
}

impl<T: SumEstimator + ?Sized> SumEstimator for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        (**self).estimate_delta(sample)
    }

    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        (**self).estimate_delta_profiled(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);

    impl SumEstimator for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn estimate_delta(&self, _sample: &SampleView) -> DeltaEstimate {
            DeltaEstimate::new(self.0, 42.0)
        }
    }

    struct Never;

    impl SumEstimator for Never {
        fn name(&self) -> &'static str {
            "never"
        }
        fn estimate_delta(&self, _sample: &SampleView) -> DeltaEstimate {
            DeltaEstimate::UNDEFINED
        }
    }

    fn sample() -> SampleView {
        SampleView::from_value_multiplicities([(10.0, 2), (20.0, 1)])
    }

    #[test]
    fn estimate_sum_adds_delta_to_observed() {
        let s = sample();
        assert_eq!(Fixed(5.0).estimate_sum(&s), Some(35.0));
        assert_eq!(Fixed(5.0).estimate_sum_or_observed(&s), 35.0);
    }

    #[test]
    fn undefined_estimators_fall_back() {
        let s = sample();
        assert_eq!(Never.estimate_sum(&s), None);
        assert_eq!(Never.estimate_sum_or_observed(&s), 30.0);
    }

    #[test]
    fn abs_or_infinite_semantics() {
        assert_eq!(DeltaEstimate::new(-3.0, 1.0).abs_or_infinite(), 3.0);
        assert_eq!(DeltaEstimate::UNDEFINED.abs_or_infinite(), f64::INFINITY);
        assert!(!DeltaEstimate::UNDEFINED.is_defined());
    }

    #[test]
    fn blanket_impls_for_refs_and_boxes() {
        let s = sample();
        let boxed: Box<dyn SumEstimator> = Box::new(Fixed(1.0));
        assert_eq!(boxed.name(), "fixed");
        assert_eq!(boxed.estimate_sum(&s), Some(31.0));
        let by_ref = &Fixed(2.0);
        assert_eq!(by_ref.estimate_sum(&s), Some(32.0));
    }
}
