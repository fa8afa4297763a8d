//! The naïve estimator (paper §3.1, Eq. 3 & 8).
//!
//! Two sub-problems: (1) *how many* unique entities are missing — answered by
//! a species-richness estimator (Chao92 by default) — and (2) *what values*
//! they carry — answered by mean substitution: assume every missing entity
//! has the average observed value `φ_K / c`.
//!
//! ```text
//! Δ_naive = (φ_K / c) · (N̂ − c)
//! ```
//!
//! Mean substitution ignores the publicity–value correlation, so the naïve
//! estimator systematically over-estimates when popular entities are also
//! large (§6.1) — exactly the failure mode the later estimators address.

use crate::estimate::{DeltaEstimate, SumEstimator};
use crate::profile::ProfileSnapshot;
use crate::sample::SampleView;
use uu_stats::species::SpeciesEstimator;

/// Mean-substitution estimator with a pluggable species (count) estimator.
///
/// # Examples
///
/// ```
/// use uu_core::sample::SampleView;
/// use uu_core::naive::NaiveEstimator;
/// use uu_core::estimate::SumEstimator;
///
/// // Toy example before s5 (Table 2): expect ≈ 16 009.
/// let s = SampleView::from_value_multiplicities([
///     (1000.0, 1), (2000.0, 2), (10_000.0, 4),
/// ]);
/// let est = NaiveEstimator::default().estimate_sum(&s).unwrap();
/// assert!((est - 16_009.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NaiveEstimator {
    /// Which species-richness estimator supplies `N̂` (default: Chao92).
    pub species: SpeciesEstimator,
}

impl Default for NaiveEstimator {
    fn default() -> Self {
        NaiveEstimator {
            species: SpeciesEstimator::Chao92,
        }
    }
}

impl NaiveEstimator {
    /// Naïve estimator with an explicit species baseline (used by the
    /// species-ablation bench).
    pub fn with_species(species: SpeciesEstimator) -> Self {
        NaiveEstimator { species }
    }

    /// The mean-substitution delta for an externally supplied count estimate
    /// `n_hat` — shared with the Monte-Carlo estimator, which plugs its own
    /// `N̂_MC` into the same value model (§3.4.2).
    pub fn delta_for_count(sample: &SampleView, n_hat: f64) -> DeltaEstimate {
        NaiveEstimator::delta_from_stats(sample.c(), sample.observed_sum(), n_hat)
    }

    /// [`NaiveEstimator::delta_for_count`] from the raw statistics it
    /// consumes, without a materialised [`SampleView`]. The dense bucket
    /// splitter derives `c` and `φ_K` of candidate sub-ranges from presorted
    /// columns; the float operations here match the view-based path exactly.
    pub fn delta_from_stats(c: u64, observed_sum: f64, n_hat: f64) -> DeltaEstimate {
        let c = c as f64;
        if c == 0.0 {
            return DeltaEstimate::UNDEFINED;
        }
        let missing = (n_hat - c).max(0.0);
        let mean = observed_sum / c;
        DeltaEstimate::new(mean * missing, n_hat)
    }
}

impl SumEstimator for NaiveEstimator {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        match self.species.estimate(sample.freq()).value() {
            Some(n_hat) => NaiveEstimator::delta_for_count(sample, n_hat),
            None => DeltaEstimate::UNDEFINED,
        }
    }

    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        match profile.species(self.species).value() {
            Some(n_hat) => NaiveEstimator::delta_for_count(profile.view(), n_hat),
            None => DeltaEstimate::UNDEFINED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_before() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)])
    }

    fn toy_after() -> SampleView {
        // s5 = {A, E}: A:2, B:2, D:4, E:1.
        SampleView::from_value_multiplicities([(1000.0, 2), (2000.0, 2), (10_000.0, 4), (300.0, 1)])
    }

    #[test]
    fn table2_before_s5() {
        // Δ = 13000·1·(3 + (1/6)·7) / (3·(7−1)) = 13000·(25/6)/18 ≈ 3009.26
        let d = NaiveEstimator::default().estimate_delta(&toy_before());
        let expect = 13_000.0 * (3.0 + 7.0 / 6.0) / 18.0;
        assert!((d.delta.unwrap() - expect).abs() < 1e-9);
        let sum = NaiveEstimator::default()
            .estimate_sum(&toy_before())
            .unwrap();
        assert!((sum - 16_009.0).abs() < 1.0, "sum {sum}");
    }

    #[test]
    fn table2_after_s5() {
        // Δ = 13300·1·(4 + 0·9) / (4·(9−1)) = 13300/8 = 1662.5 ⇒ 14 962.5.
        let sum = NaiveEstimator::default()
            .estimate_sum(&toy_after())
            .unwrap();
        assert!((sum - 14_962.5).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn eq8_closed_form_matches_definition() {
        // Eq. 8: Δ = φK·f1·(c + γ̂²n) / (c·(n − f1)) — check against the
        // two-step (count × value) implementation.
        let s = toy_before();
        let (n, c, f1) = (7.0, 3.0, 1.0);
        let gamma2 = 1.0 / 6.0;
        let closed_form = 13_000.0 * f1 * (c + gamma2 * n) / (c * (n - f1));
        let d = NaiveEstimator::default().estimate_delta(&s).delta.unwrap();
        assert!((d - closed_form).abs() < 1e-9);
    }

    #[test]
    fn undefined_when_all_singletons() {
        let s = SampleView::from_value_multiplicities([(1.0, 1), (2.0, 1)]);
        let d = NaiveEstimator::default().estimate_delta(&s);
        assert!(!d.is_defined());
        assert_eq!(NaiveEstimator::default().estimate_sum_or_observed(&s), 3.0);
    }

    #[test]
    fn undefined_on_empty_sample() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        assert!(!NaiveEstimator::default().estimate_delta(&s).is_defined());
    }

    #[test]
    fn complete_sample_has_zero_delta() {
        // No singletons ⇒ Ĉ = 1 ⇒ N̂ = c ⇒ Δ = 0.
        let s = SampleView::from_value_multiplicities([(10.0, 3), (20.0, 2), (30.0, 4)]);
        let d = NaiveEstimator::default().estimate_delta(&s);
        assert_eq!(d.delta, Some(0.0));
        assert_eq!(NaiveEstimator::default().estimate_sum(&s), Some(60.0));
    }

    #[test]
    fn delta_is_nonnegative_for_positive_values() {
        let s = toy_before();
        for species in SpeciesEstimator::ALL {
            let d = NaiveEstimator::with_species(species).estimate_delta(&s);
            if let Some(delta) = d.delta {
                assert!(delta >= 0.0, "{}: {delta}", species.name());
            }
        }
    }

    #[test]
    fn delta_for_count_clamps_below_c() {
        // A count estimate below c must not produce a negative correction.
        let s = toy_before();
        let d = NaiveEstimator::delta_for_count(&s, 1.0);
        assert_eq!(d.delta, Some(0.0));
    }
}
