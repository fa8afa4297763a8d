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

use proptest::prelude::*;
use uu_bench::oracle;
use uu_core::sample::SampleView;
use uu_query::predicate::{CmpOp, Predicate};
use uu_query::schema::{ColumnType, Schema};
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

/// Builds a table with entity-key duplication (multiplicities), a
/// specials-bearing Float predicate column, a finite attribute column and a
/// small-pool string column.
fn table_from(rows: &[RowSel]) -> IntegratedTable {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("pred", ColumnType::Float),
        ("attr", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("t", schema, "company").unwrap();
    for &((entity, source, pred_sel, pred_m), (attr_sel, attr_m, str_sel)) in rows {
        table
            .insert_observation(
                source % 5,
                vec![
                    Value::from(format!("e{}", entity % 24)),
                    pred_cell(pred_sel, pred_m),
                    attr_cell(attr_sel, attr_m),
                    Value::from(STATES[str_sel as usize % STATES.len()]),
                ],
            )
            .unwrap();
    }
    table
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
        let table = table_from(&rows);
        let predicate = predicate_from(&[psel[0], psel[1], psel[2], psel[3], psel[4], psel[5]], mantissa);
        for attr in [Some("attr"), None] {
            let reference = oracle::sample_view_rows(&table, attr, &predicate).unwrap();
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
        let table = table_from(&rows);
        let predicate = predicate_from(&[psel[0], psel[1], psel[2], psel[3], psel[4], psel[5]], mantissa);
        for group_column in ["pred", "state"] {
            let reference =
                oracle::grouped_sample_views_rows(&table, Some("attr"), &predicate, group_column)
                    .unwrap();
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
}

#[test]
fn unknown_predicate_columns_error_identically() {
    let table = table_from(&[((0, 0, 0, 1), (0, 1, 0))]);
    let bad = Predicate::cmp("nope", CmpOp::Eq, Value::from(1.0));
    let columnar = table.sample_view(Some("attr"), &bad).unwrap_err();
    let rows = oracle::sample_view_rows(&table, Some("attr"), &bad).unwrap_err();
    assert_eq!(columnar.to_string(), rows.to_string());

    // An empty table never evaluates the predicate, on either path.
    let empty = table_from(&[]);
    assert!(empty.sample_view(Some("attr"), &bad).is_ok());
    assert!(oracle::sample_view_rows(&empty, Some("attr"), &bad).is_ok());
}
