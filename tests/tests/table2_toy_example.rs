//! Appendix F, Table 2: the paper's fully worked toy example, end to end.
//!
//! The universe has five companies {A, B, C, D, E}; C is never observed by
//! any source (the unknown unknown). Four sources report A, B, D with
//! multiplicities 1/2/4; a fifth source later adds {A, E}. The paper prints
//! the exact estimates of every estimator before and after s5 — these tests
//! assert them to the digit, both against the raw estimator API and through
//! the SQL engine.

use uu_core::bucket::DynamicBucketEstimator;
use uu_core::estimate::SumEstimator;
use uu_core::frequency::FrequencyEstimator;
use uu_core::naive::NaiveEstimator;
use uu_integration_tests::{toy_after, toy_before};
use uu_query::exec::{execute_sql, CorrectionMethod};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

const GROUND_TRUTH: f64 = 1000.0 + 2000.0 + 900.0 + 10_000.0 + 300.0; // 14 200

#[test]
fn observed_sums_match_the_paper() {
    assert_eq!(toy_before().observed_sum(), 13_000.0);
    assert_eq!(toy_after().observed_sum(), 13_300.0);
}

#[test]
fn statistics_row_matches_the_paper() {
    let before = toy_before();
    assert_eq!(
        (before.n(), before.c(), before.freq().singletons()),
        (7, 3, 1)
    );
    let gamma2 = uu_stats::cv::cv_squared(before.freq()).unwrap();
    assert!((gamma2 - 0.1667).abs() < 1e-3, "γ̂² = {gamma2}");

    // Note: the paper's Table 2 header prints "n = 10" after s5, but every
    // formula in the table uses n = 9 — s5 = {A, E}. We follow the formulas.
    let after = toy_after();
    assert_eq!((after.n(), after.c(), after.freq().singletons()), (9, 4, 1));
    assert_eq!(uu_stats::cv::cv_squared(after.freq()), Some(0.0));
}

#[test]
fn naive_row() {
    let naive = NaiveEstimator::default();
    let before = naive.estimate_sum(&toy_before()).unwrap();
    assert!((before - 16_009.0).abs() < 0.5, "before {before}"); // paper: ≈ 16009
    let after = naive.estimate_sum(&toy_after()).unwrap();
    assert!((after - 14_962.5).abs() < 0.5, "after {after}"); // paper: ≈ 14962
}

#[test]
fn frequency_row() {
    let freq = FrequencyEstimator::default();
    let before = freq.estimate_sum(&toy_before()).unwrap();
    assert!((before - 13_694.0).abs() < 0.5, "before {before}"); // paper: ≈ 13694
    let after = freq.estimate_sum(&toy_after()).unwrap();
    assert!((after - 13_450.0).abs() < 1e-9, "after {after}"); // paper: = 13450
}

#[test]
fn bucket_row() {
    let bucket = DynamicBucketEstimator::default();
    let before = bucket.estimate_sum(&toy_before()).unwrap();
    assert!((before - 14_500.0).abs() < 1e-9, "before {before}"); // paper: = 14500
    let after = bucket.estimate_sum(&toy_after()).unwrap();
    assert!((after - 13_950.0).abs() < 1e-9, "after {after}"); // paper: = 13950
}

#[test]
fn bucket_is_the_most_accurate_as_the_paper_concludes() {
    for sample in [toy_before(), toy_after()] {
        let naive = NaiveEstimator::default().estimate_sum(&sample).unwrap();
        let freq = FrequencyEstimator::default().estimate_sum(&sample).unwrap();
        let bucket = DynamicBucketEstimator::default()
            .estimate_sum(&sample)
            .unwrap();
        let err = |e: f64| (e - GROUND_TRUTH).abs();
        assert!(err(bucket) < err(naive), "bucket should beat naive");
        assert!(err(bucket) < err(freq), "bucket should beat frequency");
    }
}

/// The same numbers through the full integration path: sources → table →
/// SQL → corrected result.
#[test]
fn end_to_end_through_the_query_engine() {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
    ]);
    let mut table = IntegratedTable::new("k", schema, "company").unwrap();
    fn push(table: &mut IntegratedTable, src: u32, name: &str, emp: f64) {
        table
            .insert_observation(src, vec![Value::from(name), Value::from(emp)])
            .unwrap();
    }
    // Sources s1..s4 (A:1, B:2, D:4).
    push(&mut table, 0, "A", 1000.0);
    push(&mut table, 0, "B", 2000.0);
    push(&mut table, 1, "B", 2000.0);
    for s in 0..4 {
        push(&mut table, s, "D", 10_000.0);
    }

    let sql = "SELECT SUM(employees) FROM k";
    let naive = execute_sql(&table, sql, CorrectionMethod::Naive)
        .unwrap()
        .remove(0)
        .result;
    assert!((naive.corrected.unwrap() - 16_009.0).abs() < 0.5);
    let bucket = execute_sql(&table, sql, CorrectionMethod::Bucket)
        .unwrap()
        .remove(0)
        .result;
    assert!((bucket.corrected.unwrap() - 14_500.0).abs() < 1e-9);

    // s5 arrives: {A, E}.
    push(&mut table, 4, "A", 1000.0);
    push(&mut table, 4, "E", 300.0);

    let naive = execute_sql(&table, sql, CorrectionMethod::Naive)
        .unwrap()
        .remove(0)
        .result;
    assert!((naive.corrected.unwrap() - 14_962.5).abs() < 1e-6);
    let freq = execute_sql(&table, sql, CorrectionMethod::Frequency)
        .unwrap()
        .remove(0)
        .result;
    assert!((freq.corrected.unwrap() - 13_450.0).abs() < 1e-6);
    let bucket = execute_sql(&table, sql, CorrectionMethod::Bucket)
        .unwrap()
        .remove(0)
        .result;
    assert!((bucket.corrected.unwrap() - 13_950.0).abs() < 1e-6);

    // Adding s5 improved every estimator, exactly as the table reads.
    assert!((bucket.corrected.unwrap() - GROUND_TRUTH).abs() < 300.0);
}
