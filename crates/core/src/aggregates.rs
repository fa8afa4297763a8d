//! Estimation strategies for COUNT, AVG, MIN and MAX (paper §5).
//!
//! * **COUNT** only needs the unknown-unknowns *count*: any species estimator
//!   (or the Monte-Carlo count) answers it directly.
//! * **AVG** is asymptotically fine uncorrected (law of large numbers) but
//!   biased under publicity–value correlation; the bucket-weighted average of
//!   per-bucket means corrects the bias.
//! * **MIN/MAX** cannot be extrapolated, but we can say *when to trust the
//!   observed extreme*: if the extreme value-range bucket is estimated to be
//!   complete (unknown count ≈ 0), the observed extreme is reported as
//!   trustworthy.

use crate::bucket::{BucketReport, DynamicBucketEstimator};
use crate::montecarlo::MonteCarloEstimator;
use crate::profile::ProfileSnapshot;
use crate::sample::SampleView;
use uu_stats::species::SpeciesEstimator;

// ---------------------------------------------------------------------------
// COUNT
// ---------------------------------------------------------------------------

/// Estimates `SELECT COUNT(*) FROM D` with a species estimator.
/// `None` when the estimator is undefined for the sample.
pub fn count_estimate(sample: &SampleView, species: SpeciesEstimator) -> Option<f64> {
    species.estimate(sample.freq()).value()
}

/// Estimates the COUNT with the Monte-Carlo count (robust to streakers).
pub fn count_estimate_monte_carlo(
    sample: &SampleView,
    estimator: &MonteCarloEstimator,
) -> Option<f64> {
    estimator.estimate_count(sample)
}

// ---------------------------------------------------------------------------
// AVG
// ---------------------------------------------------------------------------

/// The observed and bias-corrected average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgEstimate {
    /// Closed-world `AVG` over unique observed entities (`φ_K / c`).
    pub observed: f64,
    /// Bucket-corrected estimate: per-bucket means weighted by the estimated
    /// per-bucket totals `N̂_b` (§5: "weighted average of averages by the
    /// number of unique data items per bucket").
    pub corrected: f64,
}

/// Estimates `SELECT AVG(attr) FROM D` with the dynamic bucket correction.
///
/// `None` for an empty sample. Buckets whose count estimate is undefined fall
/// back to their observed unique count (no extrapolation for that range).
pub fn avg_estimate(sample: &SampleView, buckets: &DynamicBucketEstimator) -> Option<AvgEstimate> {
    let observed = sample.mean_value()?;
    avg_from_reports(observed, &buckets.bucketize(sample))
}

/// [`avg_estimate`] consuming the shared statistics of a [`ProfileSnapshot`]
/// (the memoized default bucket partition). Bit-for-bit identical to the
/// direct path with [`DynamicBucketEstimator::default`].
pub fn avg_estimate_profiled(profile: &ProfileSnapshot) -> Option<AvgEstimate> {
    let observed = profile.view().mean_value()?;
    avg_from_reports(observed, profile.bucket_reports())
}

fn avg_from_reports(observed: f64, reports: &[BucketReport]) -> Option<AvgEstimate> {
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for b in reports {
        debug_assert!(b.c > 0, "dynamic buckets never come back empty");
        let bucket_mean = b.observed_sum / b.c as f64;
        let n_hat = b.estimate.n_hat.unwrap_or(b.c as f64);
        weighted += n_hat * bucket_mean;
        weight += n_hat;
    }
    if weight <= 0.0 {
        return None;
    }
    Some(AvgEstimate {
        observed,
        corrected: weighted / weight,
    })
}

// ---------------------------------------------------------------------------
// MIN / MAX
// ---------------------------------------------------------------------------

/// Trust verdict for an observed extreme value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtremeReport {
    /// The extreme bucket appears complete: the observed extreme is reported
    /// as the true MIN/MAX.
    Trusted(f64),
    /// Unknown unknowns are likely in the extreme value range — the observed
    /// extreme should not be taken as final.
    Untrusted {
        /// The observed extreme value.
        observed: f64,
        /// Estimated number of missing entities in the extreme bucket
        /// (`None` when that bucket's estimator is undefined).
        estimated_missing: Option<f64>,
    },
}

impl ExtremeReport {
    /// True when the observed extreme is endorsed.
    pub fn is_trusted(&self) -> bool {
        matches!(self, ExtremeReport::Trusted(_))
    }

    /// The observed extreme, regardless of trust.
    pub fn observed(&self) -> f64 {
        match *self {
            ExtremeReport::Trusted(v) => v,
            ExtremeReport::Untrusted { observed, .. } => observed,
        }
    }
}

/// Default threshold under which a bucket's unknown count is treated as
/// "complete" (the paper reports an extreme only when the estimate "is zero";
/// 0.5 rounds the fractional Chao92 count to that intent).
pub const EXTREME_TRUST_THRESHOLD: f64 = 0.5;

fn extreme_report(
    sample: &SampleView,
    buckets: &DynamicBucketEstimator,
    threshold: f64,
    take_max: bool,
) -> Option<ExtremeReport> {
    extreme_from_reports(sample, &buckets.bucketize(sample), threshold, take_max)
}

fn extreme_from_reports(
    sample: &SampleView,
    reports: &[BucketReport],
    threshold: f64,
    take_max: bool,
) -> Option<ExtremeReport> {
    let bucket = if take_max {
        reports.last()?
    } else {
        reports.first()?
    };
    let observed = if take_max {
        sample.max_value()?
    } else {
        sample.min_value()?
    };
    match bucket.unknown_count() {
        Some(missing) if missing < threshold => Some(ExtremeReport::Trusted(observed)),
        Some(missing) => Some(ExtremeReport::Untrusted {
            observed,
            estimated_missing: Some(missing),
        }),
        None => Some(ExtremeReport::Untrusted {
            observed,
            estimated_missing: None,
        }),
    }
}

/// MAX with trust reporting: divides the sample into dynamic buckets and
/// endorses the observed maximum only when the highest bucket's unknown
/// count estimate is below `threshold` (§5). `None` for an empty sample.
pub fn max_report(
    sample: &SampleView,
    buckets: &DynamicBucketEstimator,
    threshold: f64,
) -> Option<ExtremeReport> {
    extreme_report(sample, buckets, threshold, true)
}

/// MIN with trust reporting (mirror of [`max_report`]).
pub fn min_report(
    sample: &SampleView,
    buckets: &DynamicBucketEstimator,
    threshold: f64,
) -> Option<ExtremeReport> {
    extreme_report(sample, buckets, threshold, false)
}

/// [`max_report`] consuming the shared statistics of a [`ProfileSnapshot`].
pub fn max_report_profiled(profile: &ProfileSnapshot, threshold: f64) -> Option<ExtremeReport> {
    extreme_from_reports(profile.view(), profile.bucket_reports(), threshold, true)
}

/// [`min_report`] consuming the shared statistics of a [`ProfileSnapshot`].
pub fn min_report_profiled(profile: &ProfileSnapshot, threshold: f64) -> Option<ExtremeReport> {
    extreme_from_reports(profile.view(), profile.bucket_reports(), threshold, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_sample() -> SampleView {
        // Everything observed several times: no unknowns anywhere.
        SampleView::from_value_multiplicities((0..10).map(|i| (10.0 * (i + 1) as f64, 4u64)))
    }

    fn toy_after() -> SampleView {
        SampleView::from_value_multiplicities([(300.0, 1), (1000.0, 2), (2000.0, 2), (10_000.0, 4)])
    }

    #[test]
    fn count_via_species() {
        let s = toy_after();
        // Chao92: N̂ = 4.5.
        let n = count_estimate(&s, SpeciesEstimator::Chao92).unwrap();
        assert!((n - 4.5).abs() < 1e-9);
        // Undefined case propagates.
        let singles = SampleView::from_value_multiplicities([(1.0, 1), (2.0, 1)]);
        assert_eq!(count_estimate(&singles, SpeciesEstimator::Chao92), None);
    }

    #[test]
    fn avg_on_complete_sample_matches_observed() {
        let s = complete_sample();
        let avg = avg_estimate(&s, &DynamicBucketEstimator::default()).unwrap();
        assert!((avg.observed - 55.0).abs() < 1e-9);
        assert!((avg.corrected - avg.observed).abs() < 1e-6);
    }

    #[test]
    fn avg_corrects_toward_underrepresented_buckets() {
        // Toy example: the incomplete bucket is the low-valued {E, A} one, so
        // the corrected average must drop below the observed average.
        let s = toy_after();
        let avg = avg_estimate(&s, &DynamicBucketEstimator::default()).unwrap();
        assert!((avg.observed - 13_300.0 / 4.0).abs() < 1e-9);
        assert!(
            avg.corrected < avg.observed,
            "corrected {} should undercut observed {}",
            avg.corrected,
            avg.observed
        );
    }

    #[test]
    fn avg_empty_is_none() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        assert!(avg_estimate(&s, &DynamicBucketEstimator::default()).is_none());
    }

    #[test]
    fn extremes_trusted_on_complete_sample() {
        let s = complete_sample();
        let b = DynamicBucketEstimator::default();
        assert_eq!(
            max_report(&s, &b, EXTREME_TRUST_THRESHOLD),
            Some(ExtremeReport::Trusted(100.0))
        );
        assert_eq!(
            min_report(&s, &b, EXTREME_TRUST_THRESHOLD),
            Some(ExtremeReport::Trusted(10.0))
        );
    }

    #[test]
    fn min_untrusted_when_low_bucket_is_incomplete() {
        // Toy example: the {E, A} bucket expects one more unknown company, so
        // the observed min (300) must not be endorsed.
        let s = toy_after();
        let b = DynamicBucketEstimator::default();
        let report = min_report(&s, &b, EXTREME_TRUST_THRESHOLD).unwrap();
        assert!(!report.is_trusted());
        assert_eq!(report.observed(), 300.0);
        match report {
            ExtremeReport::Untrusted {
                estimated_missing, ..
            } => {
                assert!((estimated_missing.unwrap() - 1.0).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn max_trusted_when_high_bucket_is_complete() {
        // Toy example: {D} is complete (f1 = 0 there).
        let s = toy_after();
        let b = DynamicBucketEstimator::default();
        assert_eq!(
            max_report(&s, &b, EXTREME_TRUST_THRESHOLD),
            Some(ExtremeReport::Trusted(10_000.0))
        );
    }

    #[test]
    fn all_singletons_yields_untrusted_with_unknown_missing() {
        let s = SampleView::from_value_multiplicities([(1.0, 1), (5.0, 1), (9.0, 1)]);
        let b = DynamicBucketEstimator::default();
        let report = max_report(&s, &b, EXTREME_TRUST_THRESHOLD).unwrap();
        match report {
            ExtremeReport::Untrusted {
                observed,
                estimated_missing,
            } => {
                assert_eq!(observed, 9.0);
                assert_eq!(estimated_missing, None);
            }
            _ => panic!("expected untrusted"),
        }
    }

    #[test]
    fn empty_sample_has_no_reports() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        let b = DynamicBucketEstimator::default();
        assert!(max_report(&s, &b, EXTREME_TRUST_THRESHOLD).is_none());
        assert!(min_report(&s, &b, EXTREME_TRUST_THRESHOLD).is_none());
        assert!(count_estimate(&s, SpeciesEstimator::Chao92).is_none());
    }
}
