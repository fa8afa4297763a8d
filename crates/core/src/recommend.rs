//! Estimator selection policy (paper §6.5, Appendix E).
//!
//! The paper's operational guidance, encoded:
//!
//! 1. Don't surface any estimate below 40% predicted sample coverage
//!    (Chao & Lee report reliable behaviour only for `C ≥ 0.395`).
//! 2. With *enough* (≥ 5, App. E) *evenly contributing* sources, the
//!    non-parametric **bucket** estimator is the most accurate.
//! 3. With few sources or a *streaker* (one source dominating `S`), Chao92's
//!    with-replacement assumption collapses — use the **Monte-Carlo**
//!    estimator, which replays the actual process.

use crate::sample::SampleView;
use uu_stats::coverage::{sample_coverage, RECOMMENDED_MIN_COVERAGE};
use uu_stats::descriptive::gini;

/// Signals extracted from a sample to drive estimator selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diagnostics {
    /// Good–Turing sample coverage `Ĉ` (`None` for an empty sample).
    pub coverage: Option<f64>,
    /// Number of contributing (non-empty) sources; 0 when lineage is absent.
    pub contributing_sources: usize,
    /// Largest single-source share of all observations (`None` without
    /// lineage).
    pub max_source_share: Option<f64>,
    /// Gini coefficient of the per-source contributions (`None` without
    /// lineage). 0 = perfectly even, → 1 = one source does everything.
    pub source_gini: Option<f64>,
}

/// A source counts as a streaker when it contributed more than this share of
/// the whole sample …
pub const STREAKER_SHARE_THRESHOLD: f64 = 0.4;
/// … or when the overall contribution imbalance (Gini) exceeds this.
pub const STREAKER_GINI_THRESHOLD: f64 = 0.6;
/// Appendix E: at least this many independent sources are needed before the
/// integrated sample approximates sampling with replacement.
pub const MIN_SOURCES_FOR_BUCKET: usize = 5;

impl Diagnostics {
    /// True when the contribution pattern looks streaker-like.
    pub fn has_streaker(&self) -> bool {
        self.max_source_share
            .is_some_and(|s| s > STREAKER_SHARE_THRESHOLD)
            || self
                .source_gini
                .is_some_and(|g| g > STREAKER_GINI_THRESHOLD)
    }

    /// True when predicted coverage clears the paper's 40% gate.
    pub fn coverage_ok(&self) -> bool {
        self.coverage.is_some_and(|c| c >= RECOMMENDED_MIN_COVERAGE)
    }
}

/// Which estimator the paper's guidance selects for a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// Coverage below 40%: any estimate would be speculative — collect more
    /// data first (estimates may still be computed, but should be flagged).
    CollectMoreData,
    /// Healthy multi-source sample: use the dynamic bucket estimator.
    Bucket,
    /// Streakers or too few sources: use the Monte-Carlo estimator.
    MonteCarlo,
}

/// Extracts selection signals from a sample.
pub fn diagnose(sample: &SampleView) -> Diagnostics {
    let coverage = sample_coverage(sample.freq());
    let sizes: Vec<f64> = sample
        .source_sizes()
        .iter()
        .filter(|&&s| s > 0)
        .map(|&s| s as f64)
        .collect();
    let total: f64 = sizes.iter().sum();
    let max_source_share = if total > 0.0 {
        sizes
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .map(|m| m / total)
    } else {
        None
    };
    Diagnostics {
        coverage,
        contributing_sources: sizes.len(),
        max_source_share,
        source_gini: gini(&sizes),
    }
}

/// Applies the §6.5 policy.
///
/// Without lineage the source structure is unknown; the bucket estimator is
/// recommended by default (it does not need lineage), trusting the caller to
/// know their sources are independent and even.
pub fn recommend(sample: &SampleView) -> Recommendation {
    recommendation_for(sample, &diagnose(sample))
}

/// The §6.5 policy applied to already-extracted diagnostics of `sample` —
/// the entry point for callers holding memoized diagnostics, such as
/// [`crate::profile::ProfileSnapshot::recommendation`].
pub fn recommendation_for(sample: &SampleView, d: &Diagnostics) -> Recommendation {
    if !d.coverage_ok() {
        return Recommendation::CollectMoreData;
    }
    if sample.has_lineage() && (d.has_streaker() || d.contributing_sources < MIN_SOURCES_FOR_BUCKET)
    {
        return Recommendation::MonteCarlo;
    }
    Recommendation::Bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::StreamAccumulator;

    fn even_sample(sources: u32, per: u64) -> SampleView {
        let mut acc = StreamAccumulator::new();
        for s in 0..sources {
            for i in 0..per {
                // Overlapping ids so coverage is high.
                acc.push(i % 12, (i + 1) as f64, s);
            }
        }
        acc.view()
    }

    #[test]
    fn healthy_sample_gets_bucket() {
        let v = even_sample(10, 8);
        let d = diagnose(&v);
        assert!(d.coverage_ok());
        assert!(!d.has_streaker());
        assert_eq!(d.contributing_sources, 10);
        assert_eq!(recommend(&v), Recommendation::Bucket);
    }

    #[test]
    fn streaker_gets_monte_carlo() {
        let mut acc = StreamAccumulator::new();
        // Source 0 contributes 50 observations, the others 2 each.
        for i in 0..50u64 {
            acc.push(i % 20, (i + 1) as f64, 0);
        }
        for s in 1..6u32 {
            acc.push(1, 2.0, s);
            acc.push(2, 3.0, s);
        }
        let v = acc.view();
        let d = diagnose(&v);
        assert!(d.max_source_share.unwrap() > STREAKER_SHARE_THRESHOLD);
        assert!(d.has_streaker());
        assert_eq!(recommend(&v), Recommendation::MonteCarlo);
    }

    #[test]
    fn too_few_sources_get_monte_carlo() {
        let v = even_sample(3, 10);
        assert_eq!(recommend(&v), Recommendation::MonteCarlo);
    }

    #[test]
    fn low_coverage_asks_for_more_data() {
        // All singletons: coverage 0.
        let mut acc = StreamAccumulator::new();
        for i in 0..20u64 {
            acc.push(i, i as f64 + 1.0, (i % 8) as u32);
        }
        let v = acc.view();
        assert_eq!(recommend(&v), Recommendation::CollectMoreData);
    }

    #[test]
    fn lineage_free_samples_default_to_bucket() {
        let v = crate::sample::SampleView::from_value_multiplicities([(1.0, 3), (2.0, 4)]);
        let d = diagnose(&v);
        assert_eq!(d.contributing_sources, 0);
        assert_eq!(d.max_source_share, None);
        assert_eq!(recommend(&v), Recommendation::Bucket);
    }

    #[test]
    fn empty_sample_diagnostics() {
        let v = crate::sample::SampleView::from_value_multiplicities(std::iter::empty());
        let d = diagnose(&v);
        assert_eq!(d.coverage, None);
        assert!(!d.coverage_ok());
        assert_eq!(recommend(&v), Recommendation::CollectMoreData);
    }

    #[test]
    fn gini_detects_gradual_imbalance() {
        let mut acc = StreamAccumulator::new();
        // Geometric contributions: 32, 16, 8, 4, 2, 1 — very uneven.
        let mut sizes = vec![32u64, 16, 8, 4, 2, 1];
        let mut sid = 0u32;
        while let Some(k) = sizes.pop() {
            for i in 0..k {
                acc.push(i % 10, (i + 1) as f64, sid);
            }
            sid += 1;
        }
        let d = diagnose(&acc.view());
        assert!(d.source_gini.unwrap() > 0.4, "gini {:?}", d.source_gini);
    }
}
