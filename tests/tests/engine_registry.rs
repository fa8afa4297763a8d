//! Registry parity: the engine is the single estimator-construction site, so
//! an engine-built estimator must be indistinguishable from a directly
//! constructed one — same names, same `DeltaEstimate`s on seeded samples —
//! and the query executor's `Auto` method must agree with §6.5's
//! `recommend`.

use uu_core::bucket::DynamicBucketEstimator;
use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_core::estimate::{DeltaEstimate, SumEstimator};
use uu_core::frequency::FrequencyEstimator;
use uu_core::montecarlo::{MonteCarloConfig, MonteCarloEstimator};
use uu_core::naive::NaiveEstimator;
use uu_core::policy::PolicyEstimator;
use uu_core::profile::ProfileSnapshot;
use uu_core::recommend::{recommend, Recommendation};
use uu_core::sample::{replay_checkpoints, SampleView};
use uu_datagen::realworld;
use uu_datagen::scenario;
use uu_integration_tests::{toy_after, toy_before};
use uu_query::exec::{execute_sql, CorrectionMethod};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

/// Seeded views covering the regimes that exercise every estimator: the toy
/// example (no lineage), a healthy synthetic grid cell, a streaker workload,
/// and a real-data stand-in.
fn parity_views() -> Vec<SampleView> {
    let mut views = vec![toy_before(), toy_after()];
    let s = scenario::figure6(10, 1.0, 1.0, 99);
    views.extend(
        replay_checkpoints(s.stream(), &[150, 400])
            .into_iter()
            .map(|(_, v)| v),
    );
    let gdp = realworld::us_gdp(7);
    views.extend(
        replay_checkpoints(gdp.stream(), &[60])
            .into_iter()
            .map(|(_, v)| v),
    );
    views
}

/// Directly constructed counterpart of each registry kind.
fn direct(kind: EstimatorKind) -> Box<dyn SumEstimator> {
    match kind {
        EstimatorKind::Naive => Box::new(NaiveEstimator::default()),
        EstimatorKind::Frequency => Box::new(FrequencyEstimator::default()),
        EstimatorKind::Bucket => Box::new(DynamicBucketEstimator::default()),
        EstimatorKind::MonteCarlo(cfg) => Box::new(MonteCarloEstimator::new(cfg)),
        EstimatorKind::Policy => Box::new(PolicyEstimator::default()),
    }
}

#[test]
fn engine_built_estimators_match_direct_construction() {
    let views = parity_views();
    let kinds = {
        let mut ks = EstimatorKind::standard(MonteCarloConfig::fast());
        ks.push(EstimatorKind::Policy);
        ks
    };
    for kind in kinds {
        let built = kind.build();
        let by_hand = direct(kind);
        assert_eq!(built.name(), by_hand.name(), "{kind:?}");
        for (i, view) in views.iter().enumerate() {
            let a: DeltaEstimate = built.estimate_delta(view);
            let b: DeltaEstimate = by_hand.estimate_delta(view);
            assert_eq!(a, b, "{kind:?} diverges on view {i}");
        }
    }
}

#[test]
fn session_reports_the_same_estimates_as_standalone_builds() {
    let views = parity_views();
    let session = EstimationSession::standard(MonteCarloConfig::fast());
    for view in &views {
        for result in session.run(view) {
            let standalone = result.kind.build().estimate_delta(view);
            assert_eq!(result.delta, standalone, "{:?}", result.kind);
            assert_eq!(
                result.corrected,
                standalone.delta.map(|d| view.observed_sum() + d)
            );
        }
    }
}

/// Every registry kind, with both Monte-Carlo configurations that appear in
/// practice (fast for tests, default for the policy's internal routing).
fn all_parity_kinds() -> Vec<EstimatorKind> {
    let mut kinds = EstimatorKind::standard(MonteCarloConfig::fast());
    kinds.push(EstimatorKind::MonteCarlo(MonteCarloConfig::default()));
    kinds.push(EstimatorKind::Policy);
    kinds
}

/// The tentpole guarantee: for every `EstimatorKind`, the profile path —
/// shared, memoized statistics — produces bit-for-bit the same Δ and SUM as
/// the direct path, whether the profile is cold (per estimator) or warm
/// (shared by all of them).
#[test]
fn profiled_estimates_match_direct_for_every_kind() {
    let views = parity_views();
    for (i, view) in views.iter().enumerate() {
        // Warm profile: shared across all kinds, statistics memoized by
        // whichever estimator touches them first.
        let shared = ProfileSnapshot::new(view.clone());
        for kind in all_parity_kinds() {
            let est = kind.build();
            let direct: DeltaEstimate = est.estimate_delta(view);
            let cold_profile = ProfileSnapshot::new(view.clone());
            assert_eq!(
                est.estimate_delta_profiled(&cold_profile),
                direct,
                "{kind:?} cold-profile divergence on view {i}"
            );
            assert_eq!(
                est.estimate_delta_profiled(&shared),
                direct,
                "{kind:?} warm-profile divergence on view {i}"
            );
            assert_eq!(
                est.estimate_sum_profiled(&shared),
                est.estimate_sum(view),
                "{kind:?} SUM divergence on view {i}"
            );
        }
    }
}

/// COUNT parity: the profiled count dispatch equals the direct dispatch for
/// every kind on every seeded view.
#[test]
fn profiled_counts_match_direct_for_every_kind() {
    let views = parity_views();
    for (i, view) in views.iter().enumerate() {
        let shared = ProfileSnapshot::new(view.clone());
        for kind in all_parity_kinds() {
            assert_eq!(
                kind.estimate_count_profiled(&shared),
                kind.estimate_count(view),
                "{kind:?} COUNT divergence on view {i}"
            );
        }
    }
}

/// A session over the full registry shares one statistics pass per view: one
/// sort, one bucket split and one species ladder at most.
#[test]
fn session_shares_one_statistics_pass_per_view() {
    for (i, view) in parity_views().iter().enumerate() {
        let profile = ProfileSnapshot::new(view.clone());
        let results = EstimationSession::new(all_parity_kinds()).run_profiled(&profile);
        assert_eq!(results.len(), all_parity_kinds().len());
        let m = profile.metrics();
        assert!(m.sort_builds <= 1, "view {i}: {} sorts", m.sort_builds);
        assert!(m.bucket_builds <= 1, "view {i}: {} splits", m.bucket_builds);
        assert!(
            m.species_builds <= 1,
            "view {i}: {} species ladders",
            m.species_builds
        );
    }
}

#[test]
fn by_name_round_trips_every_registry_entry() {
    for kind in EstimatorKind::all() {
        assert_eq!(EstimatorKind::by_name(kind.name()), Ok(kind));
    }
    assert!(EstimatorKind::by_name("no-such-estimator").is_err());
}

fn table_from_stream(
    stream: impl Iterator<Item = (u64, f64, u32)>,
    upto: usize,
) -> IntegratedTable {
    let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
    let mut t = IntegratedTable::new("t", schema, "k").unwrap();
    for (item, value, source) in stream.take(upto) {
        t.insert_observation(
            source,
            vec![Value::from(format!("e{item}")), Value::from(value)],
        )
        .unwrap();
    }
    t
}

/// `CorrectionMethod::Auto` must land on exactly the estimator `recommend`
/// names, across all three recommendation outcomes.
#[test]
fn auto_method_agrees_with_recommend() {
    // Healthy grid cell → Bucket; streaker → MonteCarlo; the all-singleton
    // table below → CollectMoreData.
    let healthy = table_from_stream(scenario::figure6(10, 1.0, 1.0, 5).stream(), 400);
    let streaker = table_from_stream(realworld::us_gdp(7).stream(), 60);
    let sparse = {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for i in 0..12u32 {
            t.insert_observation(i % 5, vec![Value::from(format!("e{i}")), Value::from(1.0)])
                .unwrap();
        }
        t
    };

    for table in [&healthy, &streaker, &sparse] {
        let r = execute_sql(table, "SELECT SUM(v) FROM t", CorrectionMethod::Auto)
            .unwrap()
            .remove(0)
            .result;
        match r.recommendation {
            Recommendation::Bucket => assert_eq!(r.method, "bucket"),
            Recommendation::MonteCarlo => assert_eq!(r.method, "monte-carlo"),
            Recommendation::CollectMoreData => {
                assert_eq!(r.method, "withheld(coverage<40%)");
                assert_eq!(r.corrected, None);
            }
        }
        // The result's recommendation is recomputed from the same view the
        // executor corrected — it must match a fresh recommend() call.
        let view = table
            .sample_view(Some("v"), &uu_query::predicate::Predicate::True)
            .unwrap();
        assert_eq!(r.recommendation, recommend(&view));
    }
    // The three fixtures genuinely exercise all three outcomes.
    let outcomes: Vec<Recommendation> = [&healthy, &streaker, &sparse]
        .iter()
        .map(|t| {
            let v = t
                .sample_view(Some("v"), &uu_query::predicate::Predicate::True)
                .unwrap();
            recommend(&v)
        })
        .collect();
    assert_eq!(
        outcomes,
        vec![
            Recommendation::Bucket,
            Recommendation::MonteCarlo,
            Recommendation::CollectMoreData
        ]
    );
}

/// The COUNT dispatch of the engine matches the executor's corrected COUNT.
#[test]
fn count_dispatch_parity_through_sql() {
    let table = table_from_stream(scenario::figure6(10, 1.0, 1.0, 5).stream(), 400);
    let view = table
        .sample_view(None, &uu_query::predicate::Predicate::True)
        .unwrap();
    for (method, kind) in [
        (CorrectionMethod::Naive, EstimatorKind::Naive),
        (CorrectionMethod::Bucket, EstimatorKind::Bucket),
        (
            CorrectionMethod::MonteCarlo(MonteCarloConfig::fast()),
            EstimatorKind::MonteCarlo(MonteCarloConfig::fast()),
        ),
    ] {
        let r = execute_sql(&table, "SELECT COUNT(*) FROM t", method)
            .unwrap()
            .remove(0)
            .result;
        assert_eq!(r.corrected, kind.estimate_count(&view), "{kind:?}");
        assert_eq!(r.method, kind.count_method_name(), "{kind:?}");
    }
}
