//! Property tests pinning the columnar tentpole: for arbitrary integrated
//! tables — NULLs, NaN/±inf cells, duplicate values, Int cells in Float
//! columns, string columns — the vectorized path behind
//! [`IntegratedTable::sample_view`] / [`IntegratedTable::grouped_sample_views`]
//! must return **bit-for-bit** the same selections, the same groups and the
//! same value-sort permutations as the per-record reference path
//! (`uu_bench::oracle`), and predicate errors must surface identically.
//! Group keys include INTs beyond 2^53, which grouping must keep exact.
//!
//! Values are compared by `f64::to_bits`, not `==`, so `-0.0` vs `0.0`
//! drift would be caught; NaN-bearing *attribute* columns are exercised
//! through `COUNT(*)`-shaped selections (attribute `None`), since observed
//! items themselves require finite values.
//!
//! The same tables also pin the one query route end to end: every row of
//! `exec::execute_sql` must equal what the core estimators compute directly
//! on the oracle's view of that universe.

use proptest::prelude::*;
use uu_bench::oracle;
use uu_core::bound::{sum_upper_bound, UpperBoundConfig};
use uu_core::engine::EstimatorKind;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::sample::SampleView;
use uu_query::exec::{execute_sql, CorrectionMethod, ExecError, QueryResult};
use uu_query::predicate::{CmpOp, Predicate};
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

/// One generated observation row, as selector integers (the protocol
/// round-trip suite's style: cheap to shrink, easy to steer into corners).
/// Nested pairs keep within the vendored proptest's tuple arities.
type RowSel = ((u64, u32, u64, i32), (u64, i32, u64));

/// A float with all the interesting corners: specials, signed zero,
/// heavy duplication (small integer grid) and plain fractions.
fn float_from(selector: u64, mantissa: i32) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => (mantissa % 7) as f64, // duplicates
        6 => mantissa as f64 * 0.25,
        _ => mantissa as f64 * 1e12,
    }
}

/// A cell for the predicate column (`Float` typed, so it may also hold
/// `Int` cells, which the kernels must widen exactly like the row path).
/// Group keys beyond 2^53: `Int`s that collide once widened to `f64`, and
/// `Float(2^60)` beside the `Int` whose entity key equals it.
fn pred_cell(selector: u64, mantissa: i32) -> Value {
    match selector % 14 {
        8 => Value::Null,
        9 => Value::Int(mantissa as i64),
        10 => Value::Int((mantissa as i64) << 40), // widening beyond f32 range
        11 => Value::Int((1 << 53) + (mantissa % 3) as i64),
        12 => Value::Float((1u64 << 60) as f64),
        13 => Value::Int(1_152_921_504_606_847_000),
        _ => Value::Float(float_from(selector, mantissa)),
    }
}

/// A cell for the aggregation column: finite or NULL only (observed items
/// assert finite values on both paths).
fn attr_cell(selector: u64, mantissa: i32) -> Value {
    match selector % 6 {
        0 => Value::Null,
        1 => Value::Float(-0.0),
        2 => Value::Float((mantissa % 5) as f64),
        3 => Value::Int(mantissa as i64),
        _ => Value::Float(mantissa as f64 * 0.5),
    }
}

const STATES: [&str; 4] = ["CA", "WA", "NY", ""];

/// The observations behind a table with entity-key duplication
/// (multiplicities), a specials-bearing Float predicate column, a finite
/// attribute column and a small-pool string column.
fn observations(rows: &[RowSel]) -> Vec<(u32, Vec<Value>)> {
    rows.iter()
        .map(
            |&((entity, source, pred_sel, pred_m), (attr_sel, attr_m, str_sel))| {
                (
                    source % 5,
                    vec![
                        Value::from(format!("e{}", entity % 24)),
                        pred_cell(pred_sel, pred_m),
                        attr_cell(attr_sel, attr_m),
                        Value::from(STATES[str_sel as usize % STATES.len()]),
                    ],
                )
            },
        )
        .collect()
}

/// The table under test and the row oracle, both fed the same
/// observations; the rows the table builds from its columns must already
/// equal the oracle's, value for value.
fn table_from(rows: &[RowSel]) -> (IntegratedTable, oracle::RowTable) {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("pred", ColumnType::Float),
        ("attr", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("t", schema.clone(), "company").unwrap();
    for (source, values) in observations(rows) {
        table.insert_observation(source, values).unwrap();
    }
    let reference =
        oracle::RowTable::from_observations(schema, "company", observations(rows)).unwrap();
    reference.assert_same_entities(&table).unwrap();
    (table, reference)
}

/// A literal for comparisons: finite/special floats, ints, NULL, and a
/// string (type-mismatched against the Float `pred` column → unknown).
fn literal_from(selector: u64, mantissa: i32) -> Value {
    match selector % 12 {
        8 => Value::Null,
        9 => Value::Int((mantissa % 7) as i64),
        10 => Value::Str(STATES[mantissa.unsigned_abs() as usize % STATES.len()].into()),
        11 => Value::Float(f64::NAN),
        _ => Value::Float(float_from(selector, mantissa)),
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A small predicate tree over both the numeric and the string column, with
/// AND/OR/NOT combinators so the Kleene bitmap algebra is exercised against
/// the row evaluator's three-valued logic.
fn predicate_from(sel: &[u64; 6], mantissa: i32) -> Predicate {
    let leaf_num = Predicate::cmp(
        "pred",
        OPS[sel[0] as usize % OPS.len()],
        literal_from(sel[1], mantissa),
    );
    let leaf_str = Predicate::cmp(
        "state",
        OPS[sel[2] as usize % OPS.len()],
        Value::Str(STATES[sel[3] as usize % STATES.len()].into()),
    );
    let combined = match sel[4] % 4 {
        0 => leaf_num,
        1 => leaf_num.and(leaf_str),
        2 => leaf_num.or(leaf_str),
        _ => leaf_num.and(leaf_str.not()),
    };
    match sel[5] % 3 {
        0 => combined.not(),
        _ => combined,
    }
}

/// Bit-for-bit equality of two views: same length, and per item identical
/// value bits, multiplicity and per-source lineage.
fn assert_views_equal(
    columnar: &SampleView,
    rows: &SampleView,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        columnar.items().len(),
        rows.items().len(),
        "len: {}",
        context
    );
    for (a, b) in columnar.items().iter().zip(rows.items()) {
        prop_assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "value bits: {}",
            context
        );
        prop_assert_eq!(a.multiplicity, b.multiplicity, "multiplicity: {}", context);
        prop_assert_eq!(&a.source_counts, &b.source_counts, "lineage: {}", context);
    }
    Ok(())
}

/// Reference stable argsort of a view's items by value (what
/// `items_sorted_by_value` realises).
fn reference_argsort(view: &SampleView) -> Vec<u32> {
    let items = view.items();
    let mut idx: Vec<u32> = (0..items.len() as u32).collect();
    idx.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
    idx
}

/// Every correction method the one-route property runs, beside the engine
/// kind the oracle calls the core estimators with (`None` = no correction).
fn correction_methods() -> [(CorrectionMethod, Option<EstimatorKind>); 5] {
    let mc = MonteCarloConfig::fast();
    [
        (CorrectionMethod::None, None),
        (CorrectionMethod::Naive, Some(EstimatorKind::Naive)),
        (CorrectionMethod::Frequency, Some(EstimatorKind::Frequency)),
        (CorrectionMethod::Bucket, Some(EstimatorKind::Bucket)),
        (
            CorrectionMethod::MonteCarlo(mc),
            Some(EstimatorKind::MonteCarlo(mc)),
        ),
    ]
}

/// Bit-for-bit equality of one `execute_sql` row with the core estimators
/// run directly on the oracle view of its universe: SUM reads
/// `observed_sum`, `estimate_sum`, `estimate_delta(..).n_hat` and the §4
/// bound; COUNT reads `c` and `estimate_count`.
fn assert_matches_estimators(
    got: &QueryResult,
    sum: bool,
    view: &SampleView,
    kind: Option<EstimatorKind>,
    context: &str,
) -> Result<(), TestCaseError> {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let (observed, corrected, n_hat, upper_bound, method) = if sum {
        let bound = sum_upper_bound(view, UpperBoundConfig::default()).map(|b| b.phi_d_bound);
        match kind {
            Some(kind) => {
                let est = kind.build();
                let n_hat = est.estimate_delta(view).n_hat;
                let corrected = est.estimate_sum(view);
                (view.observed_sum(), corrected, n_hat, bound, est.name())
            }
            None => (view.observed_sum(), None, None, bound, "none"),
        }
    } else {
        match kind {
            Some(kind) => {
                let n_hat = kind.estimate_count(view);
                (
                    view.c() as f64,
                    n_hat,
                    n_hat,
                    None,
                    kind.count_method_name(),
                )
            }
            None => (view.c() as f64, None, None, None, "none"),
        }
    };
    prop_assert_eq!(
        got.observed.to_bits(),
        observed.to_bits(),
        "observed: {}",
        context
    );
    prop_assert_eq!(
        bits(got.corrected),
        bits(corrected),
        "corrected: {}",
        context
    );
    prop_assert_eq!(bits(got.n_hat), bits(n_hat), "n_hat: {}", context);
    prop_assert_eq!(
        bits(got.upper_bound),
        bits(upper_bound),
        "upper bound: {}",
        context
    );
    prop_assert_eq!(got.method, method, "method: {}", context);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Ungrouped selections: the columnar path equals the row path for both
    /// `AGG(attr)` and `COUNT(*)` shapes, and the selection's sort
    /// permutation equals a from-scratch stable argsort of the view.
    #[test]
    fn selection_and_sort_match_the_row_path(
        rows in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            0..60,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 6),
        mantissa in -40i32..40,
    ) {
        let (table, reference_rows) = table_from(&rows);
        let predicate = predicate_from(&[psel[0], psel[1], psel[2], psel[3], psel[4], psel[5]], mantissa);
        for attr in [Some("attr"), None] {
            let reference = reference_rows.sample_view(attr, &predicate).unwrap();
            let (view, sorted) = table.sample_view_with_sorted(attr, &predicate).unwrap();
            assert_views_equal(&view, &reference, &format!("attr={attr:?}"))?;
            prop_assert_eq!(
                &sorted,
                &reference_argsort(&view),
                "sort permutation must be the stable argsort (attr={:?})",
                attr
            );
        }
    }

    /// Grouped selections: same groups in the same order (keys compared by
    /// entity representation, so a NaN group must meet its NaN twin), each
    /// with a bit-for-bit identical view and a stable-argsort permutation.
    /// Grouping by the specials-bearing Float column and by the string
    /// column are both exercised.
    #[test]
    fn grouped_selections_match_the_row_path(
        rows in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            0..60,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 6),
        mantissa in -40i32..40,
    ) {
        let (table, reference_rows) = table_from(&rows);
        let predicate = predicate_from(&[psel[0], psel[1], psel[2], psel[3], psel[4], psel[5]], mantissa);
        for group_column in ["pred", "state"] {
            let reference =
                reference_rows.grouped_sample_views(Some("attr"), &predicate, group_column).unwrap();
            let grouped = table
                .grouped_sample_views_with_sorted(Some("attr"), &predicate, group_column)
                .unwrap();
            prop_assert_eq!(grouped.len(), reference.len(), "group count: {}", group_column);
            for ((value, view, sorted), (ref_value, ref_view)) in grouped.iter().zip(&reference) {
                prop_assert_eq!(
                    value.entity_key(),
                    ref_value.entity_key(),
                    "group key: {}",
                    group_column
                );
                assert_views_equal(view, ref_view, &format!("group {value:?} of {group_column}"))?;
                prop_assert_eq!(
                    sorted,
                    &reference_argsort(view),
                    "group sort permutation: {}",
                    group_column
                );
            }
        }
    }

    /// The one query route against an independent oracle: SUM and
    /// `COUNT(*)`, ungrouped and grouped by the specials-bearing `pred`
    /// column, under `None`, naive, frequency, bucket and Monte-Carlo —
    /// every row `exec::execute_sql` returns equals, bit for bit, the core
    /// estimators run directly on the per-record oracle view of that
    /// universe. Predicates travel as SQL text; a literal with no SQL
    /// spelling (NaN, ±inf) must come back as a parse error.
    #[test]
    fn execute_sql_matches_the_estimators_on_the_row_views(
        rows in proptest::collection::vec(
            ((0u64..1000, 0u32..5, 0u64..1_000_000, -40i32..40),
             (0u64..1_000_000, -40i32..40, 0u64..1_000_000)),
            0..60,
        ),
        psel in proptest::collection::vec(0u64..1_000_000, 6),
        mantissa in -40i32..40,
    ) {
        let (table, reference_rows) = table_from(&rows);
        let predicate = predicate_from(&[psel[0], psel[1], psel[2], psel[3], psel[4], psel[5]], mantissa);
        for (aggregate, attr) in [("SUM(attr)", Some("attr")), ("COUNT(*)", None)] {
            for group_by in [None, Some("pred")] {
                let mut sql = format!("SELECT {aggregate} FROM t WHERE {predicate}");
                if let Some(group_column) = group_by {
                    sql.push_str(&format!(" GROUP BY {group_column}"));
                }
                let Ok(query) = parse(&sql) else {
                    let err = execute_sql(&table, &sql, CorrectionMethod::None).unwrap_err();
                    prop_assert!(matches!(err, ExecError::Parse(_)), "{}: {:?}", sql, err);
                    continue;
                };
                let universes = match group_by {
                    None => vec![(
                        Value::Null,
                        reference_rows.sample_view(attr, &query.predicate).unwrap(),
                    )],
                    Some(group_column) => reference_rows
                        .grouped_sample_views(attr, &query.predicate, group_column)
                        .unwrap(),
                };
                for (method, kind) in correction_methods() {
                    let got = execute_sql(&table, &sql, method).unwrap();
                    prop_assert_eq!(got.len(), universes.len(), "universes: {}", sql);
                    for (row, (key, view)) in got.iter().zip(&universes) {
                        let context = format!("{sql} [{key}] under {method:?}");
                        prop_assert_eq!(row.key.entity_key(), key.entity_key(), "key: {}", context);
                        assert_matches_estimators(&row.result, attr.is_some(), view, kind, &context)?;
                    }
                }
            }
        }
    }
}

#[test]
fn unknown_predicate_columns_error_identically() {
    let (table, reference_rows) = table_from(&[((0, 0, 0, 1), (0, 1, 0))]);
    let bad = Predicate::cmp("nope", CmpOp::Eq, Value::from(1.0));
    let columnar = table.sample_view(Some("attr"), &bad).unwrap_err();
    let rows = reference_rows.sample_view(Some("attr"), &bad).unwrap_err();
    assert_eq!(columnar.to_string(), rows.to_string());

    // An empty table never evaluates the predicate, on either path.
    let (empty, empty_rows) = table_from(&[]);
    assert!(empty.sample_view(Some("attr"), &bad).is_ok());
    assert!(empty_rows.sample_view(Some("attr"), &bad).is_ok());
}

/// The key index against the row rule, on a FLOAT key column: typed keys
/// while every key is exact, entity-key strings once an INT beyond 2^53
/// arrives, and first-record-wins cells either way.
#[test]
fn float_key_index_matches_the_row_table() {
    let two53 = 1i64 << 53;
    let nan_b = f64::from_bits(f64::NAN.to_bits() | 0xBEEF);
    let cases: [Vec<Value>; 6] = [
        vec![Value::Int(two53), Value::Float(two53 as f64)],
        vec![Value::Int(two53), Value::Int(two53 + 1)],
        vec![
            Value::Int(1_152_921_504_606_847_000),
            Value::Float(2f64.powi(60)),
        ],
        vec![Value::Int(5), Value::Float(5.0)],
        vec![Value::Float(-0.0), Value::Float(0.0)],
        vec![Value::Float(f64::NAN), Value::Float(nan_b)],
    ];
    let schema = Schema::new([("k", ColumnType::Float), ("x", ColumnType::Int)]);
    for keys in cases {
        // Every key twice, interleaved, so re-observations hit both index
        // modes.
        let observations: Vec<(u32, Vec<Value>)> = keys
            .iter()
            .chain(&keys)
            .enumerate()
            .map(|(i, key)| (i as u32 % 3, vec![key.clone(), Value::Int(i as i64)]))
            .collect();
        let mut table = IntegratedTable::new("t", schema.clone(), "k").unwrap();
        for (source, values) in observations.clone() {
            table.insert_observation(source, values).unwrap();
        }
        let reference =
            oracle::RowTable::from_observations(schema.clone(), "k", observations).unwrap();
        reference
            .assert_same_entities(&table)
            .unwrap_or_else(|e| panic!("{keys:?}: {e}"));
        let grouped = table
            .grouped_sample_views(None, &Predicate::True, "k")
            .unwrap();
        let want = reference
            .grouped_sample_views(None, &Predicate::True, "k")
            .unwrap();
        assert_eq!(grouped.len(), want.len(), "{keys:?}");
        for ((key, view), (ref_key, ref_view)) in grouped.iter().zip(&want) {
            assert!(oracle::identical(key, ref_key), "{key:?} vs {ref_key:?}");
            assert_eq!(view, ref_view);
        }
    }
}
