//! Row vs columnar kernels on the cold query path.
//!
//! Builds one integrated table (~entity-deduplicated rows with lineage) and
//! measures the three primitives every cold query pays, on both paths:
//!
//! * **select** — predicate evaluation + view assembly:
//!   `oracle::sample_view_rows` (per-record `Predicate::eval` over boxed values)
//!   vs `sample_view` (bitmap kernels over the cached projection).
//! * **mask** — the predicate kernel alone, `selection_mask_bits` (the
//!   selection bitmap a cold miss freezes, without item assembly).
//! * **sort** — the value sort behind the frequency ladder / buckets:
//!   a from-scratch stable sort of the selected items vs
//!   `sample_view_with_sorted` (filtering the projection's memoized
//!   full-column permutation).
//! * **projection_build** — the one-off cost of materializing the columnar
//!   buffers (paid once per `(instance, version)`, amortized across every
//!   query until the next mutation).
//!
//! Like the other harness benches, every case is re-timed explicitly and
//! written as machine-readable JSON to `BENCH_columnar_scan.json` (in
//! `$BENCH_JSON_DIR` when set), including the row/columnar speedups.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uu_bench::oracle;
use uu_query::predicate::{CmpOp, Predicate};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_stats::rng::Rng;

const ENTITIES: usize = 20_000;
const SOURCES: u32 = 6;

fn table() -> IntegratedTable {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("g", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new("t", schema, "k").unwrap();
    let mut rng = Rng::new(0xC01);
    for i in 0..ENTITIES {
        // Skewed multiplicities: popular entities observed by more sources.
        let observations = 1 + (rng.next_below(SOURCES as usize)) as u32;
        let value = if i % 97 == 0 {
            Value::Null // validity bitmap is exercised, not just dense floats
        } else {
            Value::from((rng.next_below(5_000)) as f64 * 0.5)
        };
        let group = format!("g{}", i % 7);
        for s in 0..observations {
            t.insert_observation(
                s,
                vec![
                    Value::from(format!("e{i}")),
                    value.clone(),
                    Value::from(group.as_str()),
                ],
            )
            .unwrap();
        }
    }
    t
}

/// ~half the rows pass: a numeric range AND a string exclusion, so both the
/// numeric widening kernel and the dictionary kernel are on the hot path.
fn predicate() -> Predicate {
    Predicate::cmp("v", CmpOp::Gt, Value::from(600.0))
        .and(Predicate::cmp("v", CmpOp::Le, Value::from(2_000.0)))
        .and(
            Predicate::cmp("g", CmpOp::Ne, Value::from("g3"))
                .not()
                .not(),
        )
}

fn bench_columnar_scan(c: &mut Criterion) {
    let table = table();
    let pred = predicate();
    // Warm the projection + sort permutation so the steady-state cases
    // measure the kernels, not the one-off build (recorded separately).
    table.warm_projection(Some("v")).unwrap();
    let selected = table.sample_view(Some("v"), &pred).unwrap().items().len();
    assert!(selected > 0, "the predicate must select something");

    let mut group = c.benchmark_group("columnar_scan");
    group.sample_size(10);
    group.bench_function("select_rows", |b| {
        b.iter(|| {
            let view = oracle::sample_view_rows(&table, Some("v"), &pred).unwrap();
            black_box(view.items().len())
        })
    });
    group.bench_function("select_columnar", |b| {
        b.iter(|| {
            let view = table.sample_view(Some("v"), &pred).unwrap();
            black_box(view.items().len())
        })
    });
    group.bench_function("mask_columnar", |b| {
        b.iter(|| black_box(table.selection_mask_bits(Some("v"), &pred).unwrap()))
    });
    group.bench_function("sort_rows", |b| {
        b.iter(|| {
            let view = oracle::sample_view_rows(&table, Some("v"), &pred).unwrap();
            black_box(view.items_sorted_by_value().len())
        })
    });
    group.bench_function("sort_columnar", |b| {
        b.iter(|| {
            let (view, sorted) = table.sample_view_with_sorted(Some("v"), &pred).unwrap();
            black_box((view.items().len(), sorted.len()))
        })
    });
    group.finish();

    // Explicit timed runs for the machine-readable record.
    let samples = 20;
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    let mut record = |name: &str, mut run: Box<dyn FnMut() + '_>| {
        run(); // warm-up
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        for _ in 0..samples {
            let start = Instant::now();
            run();
            let ns = start.elapsed().as_secs_f64() * 1e9;
            best = best.min(ns);
            total += ns;
        }
        results.push((name.to_string(), total / samples as f64, best));
    };
    record(
        "select_rows",
        Box::new(|| {
            black_box(
                oracle::sample_view_rows(&table, Some("v"), &pred)
                    .unwrap()
                    .items()
                    .len(),
            );
        }),
    );
    record(
        "select_columnar",
        Box::new(|| {
            black_box(table.sample_view(Some("v"), &pred).unwrap().items().len());
        }),
    );
    record(
        "mask_columnar",
        Box::new(|| {
            black_box(table.selection_mask_bits(Some("v"), &pred).unwrap());
        }),
    );
    record(
        "sort_rows",
        Box::new(|| {
            let view = oracle::sample_view_rows(&table, Some("v"), &pred).unwrap();
            black_box(view.items_sorted_by_value().len());
        }),
    );
    record(
        "sort_columnar",
        Box::new(|| {
            let (view, sorted) = table.sample_view_with_sorted(Some("v"), &pred).unwrap();
            black_box((view.items().len(), sorted.len()));
        }),
    );
    // Projection build timed on pre-made clones (a clone starts cold), so
    // the clone itself stays outside the measurement.
    {
        let mut fresh: Vec<IntegratedTable> = (0..samples + 1).map(|_| table.clone()).collect();
        record(
            "projection_build",
            Box::new(move || {
                let t = fresh.pop().expect("one clone per run");
                black_box(t.projection().rows());
            }),
        );
    }

    let mean_of = |name: &str| {
        results
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, mean, _)| *mean)
            .unwrap()
    };
    let select_speedup = mean_of("select_rows") / mean_of("select_columnar");
    let sort_speedup = mean_of("sort_rows") / mean_of("sort_columnar");
    let (builds, reuses) = table.projection_metrics();

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"columnar_scan\",\n  \"entities\": {ENTITIES},\n  \"selected\": {selected},\n  \"samples\": {samples},\n"
    ));
    json.push_str(&format!(
        "  \"projection\": {{ \"builds\": {builds}, \"reuses\": {reuses}, \"bytes\": {} }},\n",
        table.projection_bytes()
    ));
    json.push_str(&format!(
        "  \"speedup\": {{ \"select\": {select_speedup:.2}, \"sort\": {sort_speedup:.2} }},\n"
    ));
    json.push_str("  \"scan_ns\": {\n");
    for (i, (name, mean, min)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {{ \"mean\": {mean:.0}, \"min\": {min:.0} }}{sep}\n"
        ));
    }
    json.push_str("  }\n}\n");

    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_columnar_scan.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\ncolumnar_scan: wrote {}", path.display()),
        Err(e) => println!("\ncolumnar_scan: could not write {}: {e}", path.display()),
    }
    println!(
        "columnar_scan: select {select_speedup:.1}x, sort {sort_speedup:.1}x over the row path"
    );
}

criterion_group!(benches, bench_columnar_scan);
criterion_main!(benches);
