//! Tests for the engineering extensions built on top of the paper:
//! the self-selecting policy estimator, bootstrap intervals, the stopping
//! rule monitor, per-bucket bounds, GROUP BY execution, and behaviour on
//! negative attribute values (the §3.3.2 aside the paper does not evaluate).

use uu_core::bootstrap::{bootstrap_interval, BootstrapConfig};
use uu_core::bound::{bucketed_sum_upper_bound, sum_upper_bound, UpperBoundConfig};
use uu_core::bucket::DynamicBucketEstimator;
use uu_core::estimate::SumEstimator;
use uu_core::monitor::{EstimateMonitor, StoppingRule};
use uu_core::naive::NaiveEstimator;
use uu_core::policy::PolicyEstimator;
use uu_core::recommend::Recommendation;
use uu_core::sample::{replay_checkpoints, SampleView};
use uu_datagen::realworld;
use uu_datagen::scenario;

/// The policy estimator should match MC under streakers and bucket on
/// healthy streams — and never do worse than the worst of the two.
#[test]
fn policy_tracks_the_right_estimator_per_scenario() {
    let policy = PolicyEstimator::default();

    let healthy = scenario::figure6(20, 1.0, 1.0, 31);
    let (_, view) = replay_checkpoints(healthy.stream(), &[400]).remove(0);
    assert_eq!(policy.selected(&view), Recommendation::Bucket);
    let bucket = DynamicBucketEstimator::default().estimate_sum(&view);
    assert_eq!(policy.estimate_sum(&view), bucket);

    let streaked = scenario::streakers_only(3, 31);
    let (_, view) = replay_checkpoints(streaked.stream(), &[150]).remove(0);
    assert_eq!(policy.selected(&view), Recommendation::MonteCarlo);
    let truth = streaked.population.ground_truth_sum();
    let policy_est = policy.estimate_sum(&view).unwrap();
    let naive_est = NaiveEstimator::default().estimate_sum(&view).unwrap();
    assert!(
        (policy_est - truth).abs() <= (naive_est - truth).abs(),
        "policy ({policy_est}) should not lose to naive ({naive_est})"
    );
}

/// Bootstrap intervals on a real stream: narrow late, wide early, and the
/// truth should usually be bracketed once the estimate stabilises.
#[test]
fn bootstrap_interval_narrows_along_the_stream() {
    let d = realworld::tech_employment(5);
    let views = replay_checkpoints(d.stream(), &[150, 500]);
    let est = DynamicBucketEstimator::default();
    let cfg = BootstrapConfig {
        replicates: 100,
        ..Default::default()
    };
    let early = bootstrap_interval(&views[0].1, &est, cfg).unwrap();
    let late = bootstrap_interval(&views[1].1, &est, cfg).unwrap();
    let rel = |ci: &uu_core::bootstrap::BootstrapInterval| (ci.hi - ci.lo) / ci.median;
    assert!(
        rel(&late) < rel(&early),
        "interval failed to narrow: {} -> {}",
        rel(&early),
        rel(&late)
    );
}

/// The stopping rule should fire while answers still repeat themselves and
/// before the stream is exhausted on a saturating workload.
#[test]
fn monitor_stops_on_saturating_stream() {
    let s = scenario::figure6(10, 1.0, 1.0, 77); // 500 answers over N=100
    let mut monitor = EstimateMonitor::new(
        DynamicBucketEstimator::default(),
        25,
        StoppingRule::default(),
    );
    let mut stopped_at = None;
    for (item, value, source) in s.stream() {
        monitor.push(item, value, source);
        if monitor.should_stop() {
            stopped_at = Some(monitor.latest().unwrap().n);
            break;
        }
    }
    let n = stopped_at.expect("the monitor should stop before the stream ends");
    assert!(n < 500, "stopped too late: {n}");
    // And the estimate at stop is decent.
    let estimate = monitor.latest().unwrap().estimate.unwrap();
    let truth = s.population.ground_truth_sum();
    assert!(
        (estimate - truth).abs() / truth < 0.2,
        "stopped on a bad estimate: {estimate} vs {truth}"
    );
}

/// Per-bucket bounds are bounds: above the truth (at the bound's confidence)
/// and never looser than the global product bound.
#[test]
fn bucketed_bound_tightens_without_breaking() {
    let mut holds = 0;
    let mut tighter = 0;
    let reps = 10;
    for seed in 0..reps {
        let s = scenario::section64(40 + seed);
        let truth = s.population.ground_truth_sum();
        let (_, view) = replay_checkpoints(s.stream(), &[800]).remove(0);
        let buckets = DynamicBucketEstimator::default();
        let global = sum_upper_bound(&view, UpperBoundConfig::default()).unwrap();
        let bucketed =
            bucketed_sum_upper_bound(&view, &buckets, UpperBoundConfig::default()).unwrap();
        assert!(bucketed.phi_d_bound <= global.phi_d_bound + 1e-9);
        if bucketed.phi_d_bound >= truth {
            holds += 1;
        }
        if bucketed.phi_d_bound < global.phi_d_bound - 1e-9 {
            tighter += 1;
        }
    }
    assert!(
        holds >= reps - 1,
        "bucketed bound violated truth {holds}/{reps}"
    );
    // Tightening needs well-separated value clusters (see the unit test in
    // uu-core); on this near-saturated workload we only require that it
    // happens at all and never the reverse.
    assert!(
        tighter >= 1,
        "bucketed bound never tighter: {tighter}/{reps}"
    );
}

/// Negative attribute values (net losses): the estimators stay defined, the
/// dynamic bucket objective still only accepts improvements of Σ|Δ|, and the
/// corrected sum moves the observed sum toward the truth on average.
#[test]
fn negative_values_are_handled() {
    let d = realworld::tech_net_income(11);
    let truth = d.ground_truth_sum();
    let (_, view) = replay_checkpoints(d.stream(), &[400]).remove(0);
    assert!(
        view.min_value().unwrap() < 0.0,
        "sample should contain losses"
    );

    let naive = NaiveEstimator::default();
    let bucket = DynamicBucketEstimator::default();
    let naive_sum = naive.estimate_sum(&view).unwrap();
    let bucket_sum = bucket.estimate_sum(&view).unwrap();
    assert!(naive_sum.is_finite() && bucket_sum.is_finite());

    // Bucket never exceeds the unsplit |Δ| by construction.
    let nd = naive.estimate_delta(&view).abs_or_infinite();
    let bd = bucket.estimate_delta(&view).abs_or_infinite();
    assert!(bd <= nd + 1e-9);

    // The buckets partition into loss and profit ranges, so the reports
    // expose where the unknowns sit.
    let reports = bucket.bucketize(&view);
    assert!(!reports.is_empty());
    let total_c: u64 = reports.iter().map(|b| b.c).sum();
    assert_eq!(total_c, view.c());

    // Mixed-sign corrections have no direction guarantee (losses can cancel
    // the missing profits), but the estimate must stay in the truth's
    // neighbourhood rather than explode.
    assert!(
        (bucket_sum - truth).abs() / truth.abs() < 0.5,
        "bucket {bucket_sum} strayed from truth {truth}"
    );
    assert!(
        (naive_sum - truth).abs() / truth.abs() < 1.0,
        "naive {naive_sum} exploded"
    );
}

/// GROUP BY end-to-end over a generated workload: per-state corrected GDP
/// sums add up to the ungrouped corrected sum within estimator variance.
#[test]
fn grouped_sql_over_generated_data() {
    use uu_query::exec::{execute_sql, CorrectionMethod};
    use uu_query::schema::{ColumnType, Schema};
    use uu_query::table::IntegratedTable;
    use uu_query::value::Value;

    let d = realworld::us_gdp(21);
    let schema = Schema::new([
        ("state", ColumnType::Str),
        ("gdp", ColumnType::Float),
        ("region", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("us_states", schema, "state").unwrap();
    for (item, value, source) in d.stream() {
        let (name, _) = realworld::US_STATE_GDP_2015_MUSD[item as usize];
        // Two coarse regions split by alphabetical half for test purposes.
        let region = if name < "M" { "early" } else { "late" };
        table
            .insert_observation(
                source,
                vec![Value::from(name), Value::from(value), Value::from(region)],
            )
            .unwrap();
    }
    let groups = execute_sql(
        &table,
        "SELECT SUM(gdp) FROM us_states GROUP BY region",
        CorrectionMethod::Naive,
    )
    .unwrap();
    assert_eq!(groups.len(), 2);
    let grouped_observed: f64 = groups.iter().map(|g| g.result.observed).sum();
    let whole = execute_sql(
        &table,
        "SELECT SUM(gdp) FROM us_states",
        CorrectionMethod::Naive,
    )
    .unwrap()
    .remove(0)
    .result;
    assert!((grouped_observed - whole.observed).abs() < 1e-6);
    for g in &groups {
        if let Some(corrected) = g.result.corrected {
            assert!(corrected >= g.result.observed - 1e-9);
        }
    }
}

/// SQL parsing must never panic, whatever the input (fuzz-ish property).
#[test]
fn sql_parser_is_panic_free_on_garbage() {
    use uu_query::sql::parse;
    let samples = [
        "",
        " ",
        "SELECT",
        "SELECT SUM",
        "SELECT SUM(",
        "SELECT SUM(x) FROM t WHERE",
        "))((",
        "'",
        "''",
        "O'Brien",
        "SELECT SUM(x) FROM t WHERE a = 'b",
        "SELECT SUM(x) FROM t GROUP",
        "SELECT SUM(x) FROM t GROUP BY",
        "<= >= !=",
        "1234",
        "-",
        "-.",
        "SELECT COUNT(*) FROM t WHERE x = 1e",
        "é ü 漢字",
        "SELECT SUM(привет) FROM таблица",
    ];
    for s in samples {
        let _ = parse(s); // Result either way; must not panic.
    }
}

/// A smoke test that every estimator admits being boxed and mixed in one
/// heterogeneous collection (object safety of the public trait).
#[test]
fn estimators_are_object_safe_and_composable() {
    let sample = SampleView::from_value_multiplicities([(10.0, 2), (20.0, 3), (30.0, 1)]);
    let ests: Vec<Box<dyn SumEstimator>> = vec![
        Box::new(NaiveEstimator::default()),
        Box::new(uu_core::frequency::FrequencyEstimator::default()),
        Box::new(DynamicBucketEstimator::default()),
        Box::new(PolicyEstimator::default()),
        Box::new(uu_core::combined::frequency_in_bucket()),
    ];
    for est in &ests {
        let _ = est.estimate_delta(&sample);
        assert!(!est.name().is_empty());
    }
}
