//! Ad-hoc timing of the incremental append path's pieces (run with
//! `cargo run --release -p uu-query --example append_profile`): the cold
//! selection build, the bare table append (projection growth + permutation
//! merge, with and without dictionary-growing keys), and the full
//! catalog-level append (delta + snapshot re-freeze) followed by the cached
//! query it keeps warm.

use std::time::Instant;

use uu_query::catalog::Catalog;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

const ROWS: usize = 1920;

fn build_table(name: &str) -> IntegratedTable {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("g", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new(name, schema, "k").unwrap();
    for i in 0..ROWS {
        t.insert_observation(
            (i % 8) as u32,
            vec![
                Value::from(format!("e{i}")),
                Value::from((i % 40 + 1) as f64 * 10.0),
                Value::from(format!("g{}", i % 8)),
            ],
        )
        .unwrap();
    }
    t
}

/// A 100-observation batch whose entity keys start at `start` — fresh keys
/// when `start >= ROWS`, re-observations of existing rows otherwise.
fn batch(start: usize) -> Vec<(u32, Vec<Value>)> {
    (start..start + 100)
        .map(|i| {
            (
                (i % 8) as u32,
                vec![
                    Value::from(format!("e{i}")),
                    Value::from((i % 40 + 1) as f64),
                    Value::from(format!("g{}", i % 8)),
                ],
            )
        })
        .collect()
}

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(build_table("t")).unwrap();
    let sql = "SELECT SUM(v) FROM t";

    let start = Instant::now();
    let _ = catalog.selection_sql(sql).unwrap();
    println!("cold selection build: {:?}", start.elapsed());

    // Bare table appends, no cached selections: projection growth only.
    let mut bare = build_table("bare");
    bare.warm_projection(Some("v")).unwrap();
    for round in 0..3 {
        let start = Instant::now();
        bare.append_batch(batch(10_000 + round * 100)).unwrap();
        let fresh = start.elapsed();
        let start = Instant::now();
        bare.append_batch(batch(0)).unwrap();
        let touched = start.elapsed();
        println!("bare append_batch 100 rows: fresh keys {fresh:?}, touched rows {touched:?}");
    }

    // Catalog appends with a warm cached selection: delta + re-freeze.
    for round in 0..5 {
        let start = Instant::now();
        let (_, refrozen) = catalog
            .append_observations("t", batch(10_000 + round * 100))
            .unwrap();
        let append = start.elapsed();
        assert_eq!(refrozen, 1);
        let start = Instant::now();
        let (_, hit) = catalog.selection_sql(sql).unwrap();
        let query = start.elapsed();
        assert!(hit);
        println!("round {round}: append 100 rows {append:?}, cached query {query:?}");
    }
}
