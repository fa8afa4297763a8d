//! The frequency estimator (paper §3.2, Eq. 9–10).
//!
//! Singletons — entities observed exactly once — are the best indicator of
//! what is still missing: popular, high-value entities stop being singletons
//! quickly, so the *average value of the singletons* is a better proxy for
//! the values of unknown unknowns than the global mean.
//!
//! ```text
//! Δ_freq = (φ_f1 / f1) · (N̂_Chao92 − c)  =  φ_f1 · (c + γ̂²n) / (n − f1)
//! ```
//!
//! With `γ̂² = 0` this collapses to the even simpler Good–Turing form
//! `Δ = φ_f1 · c / (n − f1)` (Eq. 10), available via
//! [`FrequencyEstimator::good_turing`].

use crate::estimate::{DeltaEstimate, SumEstimator};
use crate::profile::ProfileSnapshot;
use crate::sample::SampleView;
use uu_stats::species::{chao92, coverage_only, CountEstimate, SpeciesEstimator};

/// Singleton-mean estimator.
///
/// # Examples
///
/// ```
/// use uu_core::sample::SampleView;
/// use uu_core::frequency::FrequencyEstimator;
/// use uu_core::estimate::SumEstimator;
///
/// // Toy example after s5 (Table 2): expect exactly 13 450.
/// let s = SampleView::from_value_multiplicities([
///     (1000.0, 2), (2000.0, 2), (10_000.0, 4), (300.0, 1),
/// ]);
/// let est = FrequencyEstimator::default().estimate_sum(&s).unwrap();
/// assert!((est - 13_450.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FrequencyEstimator {
    /// Force `γ̂² = 0` (the pure Good–Turing variant of Eq. 10).
    pub assume_zero_skew: bool,
}

impl FrequencyEstimator {
    /// The Eq. 10 variant: `Δ = φ_f1 · c / (n − f1)`.
    pub fn good_turing() -> Self {
        FrequencyEstimator {
            assume_zero_skew: true,
        }
    }

    /// Which species estimator backs this variant's count.
    const fn count_estimator(&self) -> SpeciesEstimator {
        if self.assume_zero_skew {
            SpeciesEstimator::CoverageOnly
        } else {
            SpeciesEstimator::Chao92
        }
    }

    /// Eq. 9 given an already-computed count estimate.
    fn delta_with_count(sample: &SampleView, count: CountEstimate) -> DeltaEstimate {
        let Some(n_hat) = count.value() else {
            return DeltaEstimate::UNDEFINED;
        };
        let f1 = sample.freq().singletons() as f64;
        if f1 == 0.0 {
            // No singletons: nothing indicates missing data; Eq. 9 gives 0
            // because φ_f1 = 0 (and indeed N̂ = c when coverage is 1).
            return DeltaEstimate::new(0.0, n_hat);
        }
        let missing = (n_hat - sample.c() as f64).max(0.0);
        let singleton_mean = sample.singleton_sum() / f1;
        DeltaEstimate::new(singleton_mean * missing, n_hat)
    }
}

impl SumEstimator for FrequencyEstimator {
    fn name(&self) -> &'static str {
        if self.assume_zero_skew {
            "freq-gt"
        } else {
            "freq"
        }
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        let f = sample.freq();
        let count = if self.assume_zero_skew {
            coverage_only(f)
        } else {
            chao92(f)
        };
        FrequencyEstimator::delta_with_count(sample, count)
    }

    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        let count = profile.species(self.count_estimator());
        FrequencyEstimator::delta_with_count(profile.view(), count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_before() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)])
    }

    fn toy_after() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 2), (2000.0, 2), (10_000.0, 4), (300.0, 1)])
    }

    #[test]
    fn table2_before_s5() {
        // Δ = 1000·(3 + (1/6)·7)/(7−1) = 1000·(25/6)/6 ≈ 694.44 ⇒ ≈ 13 694.
        let sum = FrequencyEstimator::default()
            .estimate_sum(&toy_before())
            .unwrap();
        assert!((sum - (13_000.0 + 1000.0 * (25.0 / 6.0) / 6.0)).abs() < 1e-9);
        assert!((sum - 13_694.4).abs() < 0.1, "sum {sum}");
    }

    #[test]
    fn table2_after_s5() {
        let sum = FrequencyEstimator::default()
            .estimate_sum(&toy_after())
            .unwrap();
        assert!((sum - 13_450.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn eq9_closed_form_matches() {
        let s = toy_before();
        let (n, c, f1) = (7.0, 3.0, 1.0);
        let gamma2 = 1.0 / 6.0;
        let closed = 1000.0 * (c + gamma2 * n) / (n - f1);
        let d = FrequencyEstimator::default()
            .estimate_delta(&s)
            .delta
            .unwrap();
        assert!((d - closed).abs() < 1e-9);
    }

    #[test]
    fn good_turing_variant_eq10() {
        // Δ = φ_f1 · c / (n − f1) = 1000·3/6 = 500.
        let d = FrequencyEstimator::good_turing()
            .estimate_delta(&toy_before())
            .delta
            .unwrap();
        assert!((d - 500.0).abs() < 1e-9);
    }

    #[test]
    fn no_singletons_means_zero_delta() {
        let s = SampleView::from_value_multiplicities([(5.0, 2), (7.0, 3)]);
        let d = FrequencyEstimator::default().estimate_delta(&s);
        assert_eq!(d.delta, Some(0.0));
        assert_eq!(d.n_hat, Some(2.0));
    }

    #[test]
    fn undefined_when_all_singletons() {
        let s = SampleView::from_value_multiplicities([(5.0, 1), (7.0, 1)]);
        assert!(!FrequencyEstimator::default()
            .estimate_delta(&s)
            .is_defined());
        assert!(!FrequencyEstimator::good_turing()
            .estimate_delta(&s)
            .is_defined());
    }

    #[test]
    fn robust_against_popular_giants() {
        // A huge entity observed many times: the naïve mean is dragged up,
        // the singleton mean is not.
        let s = SampleView::from_value_multiplicities([
            (1_000_000.0, 50), // famous giant
            (10.0, 1),
            (12.0, 1),
            (11.0, 2),
        ]);
        let freq = FrequencyEstimator::default()
            .estimate_delta(&s)
            .delta
            .unwrap();
        let naive = crate::naive::NaiveEstimator::default()
            .estimate_delta(&s)
            .delta
            .unwrap();
        assert!(
            freq < naive / 100.0,
            "frequency ({freq}) should be far below naive ({naive})"
        );
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(FrequencyEstimator::default().name(), "freq");
        assert_eq!(FrequencyEstimator::good_turing().name(), "freq-gt");
    }
}
