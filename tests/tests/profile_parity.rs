//! Property tests pinning the guarantee of the `ProfileSnapshot` layer:
//! for arbitrary samples, every registry kind's profiled estimate equals its
//! direct `estimate_delta`/`estimate_sum`/`estimate_count` result
//! **bit-for-bit** (exact `f64` equality, no tolerance), and repeated profile
//! reads return identical memoized values without recomputing anything.

use proptest::prelude::*;
use uu_core::engine::EstimatorKind;
use uu_core::estimate::SumEstimator;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::profile::ProfileSnapshot;
use uu_core::sample::{SampleView, StreamAccumulator};
use uu_stats::species::SpeciesEstimator;

/// Every registry kind (fast Monte-Carlo grid so the property stays quick).
fn registry_kinds() -> Vec<EstimatorKind> {
    let mut kinds = EstimatorKind::standard(MonteCarloConfig::fast());
    kinds.push(EstimatorKind::Policy);
    kinds
}

/// Exact-equality parity assertions for one kind over one view sharing one
/// profile.
fn assert_parity(
    kind: EstimatorKind,
    view: &SampleView,
    profile: &ProfileSnapshot,
) -> Result<(), TestCaseError> {
    let est = kind.build();
    prop_assert_eq!(
        est.estimate_delta_profiled(profile),
        est.estimate_delta(view),
        "delta parity broke for {:?}",
        kind
    );
    prop_assert_eq!(
        est.estimate_sum_profiled(profile),
        est.estimate_sum(view),
        "sum parity broke for {:?}",
        kind
    );
    prop_assert_eq!(
        kind.estimate_count_profiled(profile),
        kind.estimate_count(view),
        "count parity broke for {:?}",
        kind
    );
    Ok(())
}

proptest! {
    /// Lineage-free samples from arbitrary (value, multiplicity) pairs —
    /// the minimal estimator input.
    #[test]
    fn profiled_equals_direct_on_value_multiplicity_samples(
        pairs in proptest::collection::vec((0.0f64..10_000.0, 1u64..8), 0..60)
    ) {
        let view = SampleView::from_value_multiplicities(pairs.iter().copied());
        let profile = ProfileSnapshot::new(view.clone());
        for kind in registry_kinds() {
            assert_parity(kind, &view, &profile)?;
        }
    }

    /// Lineage-bearing samples from arbitrary observation streams — the
    /// regime where Monte-Carlo and the policy's streaker detection are
    /// actually exercised.
    #[test]
    fn profiled_equals_direct_on_lineage_streams(
        obs in proptest::collection::vec((0u64..25, 0u32..6), 1..160)
    ) {
        let mut acc = StreamAccumulator::new();
        for &(item, source) in &obs {
            acc.push(item, (item as f64 + 1.0) * 3.5, source);
        }
        let view = acc.view();
        let profile = ProfileSnapshot::new(view.clone());
        for kind in registry_kinds() {
            assert_parity(kind, &view, &profile)?;
        }
    }

    /// Memoization invariant: repeated reads return identical values and do
    /// not rebuild anything.
    #[test]
    fn repeated_profile_reads_are_identical_and_free(
        pairs in proptest::collection::vec((0.0f64..1000.0, 1u64..6), 1..50)
    ) {
        let view = SampleView::from_value_multiplicities(pairs.iter().copied());
        let profile = ProfileSnapshot::new(view.clone());
        // First pass builds, second pass must hit the memo bit-for-bit.
        let first: Vec<_> = SpeciesEstimator::ALL
            .iter()
            .map(|&e| profile.species(e))
            .collect();
        let delta1 = profile.bucket_delta();
        let rec1 = profile.recommendation();
        let diag1 = profile.diagnostics();
        let ranks1: Vec<u64> = profile.rank_multiplicities().to_vec();
        let sorted1: Vec<f64> = profile.sorted_items().iter().map(|i| i.value).collect();
        let builds = profile.metrics().total_builds();

        let second: Vec<_> = SpeciesEstimator::ALL
            .iter()
            .map(|&e| profile.species(e))
            .collect();
        prop_assert_eq!(first, second);
        prop_assert_eq!(delta1, profile.bucket_delta());
        prop_assert_eq!(rec1, profile.recommendation());
        prop_assert_eq!(diag1, profile.diagnostics());
        let _ = profile.bucket_reports();
        prop_assert_eq!(ranks1, profile.rank_multiplicities().to_vec());
        let sorted2: Vec<f64> = profile.sorted_items().iter().map(|i| i.value).collect();
        prop_assert_eq!(sorted1, sorted2);
        prop_assert_eq!(profile.metrics().total_builds(), builds,
            "repeated reads must not rebuild statistics");
    }
}
