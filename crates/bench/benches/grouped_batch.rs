//! Grouped batched execution: `K` estimators × `G` groups.
//!
//! The point of the `ViewProfile` layer: a multi-estimator run over a grouped
//! workload costs **one statistics pass per group** (one sort, one bucket
//! split, one Chao92) instead of one per estimator per group. The first group
//! compares the direct per-estimator path against the shared-profile session
//! path on identical group views; the second drives the same workload through
//! the SQL executor's `GROUP BY` path. A final accounting section reads the
//! `ViewProfile` instrumentation counters to report exactly how many
//! statistics builds the shared pass performed versus the unshared
//! equivalent.
//!
//! Beyond the printed tables, the bench re-times every variant explicitly
//! (including the cross-query `ProfileCache` hit path) and writes the
//! results as machine-readable JSON to `BENCH_grouped_batch.json` (in
//! `$BENCH_JSON_DIR` when set, the working directory otherwise), so the perf
//! trajectory across PRs is recorded, not just eyeballed.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_core::estimate::SumEstimator;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::profile::ViewProfile;
use uu_core::sample::{SampleView, StreamAccumulator};
use uu_query::exec::{
    execute_sql, results_from_selection, selection, CorrectionMethod, GroupResult,
    QueryProfileCache,
};
use uu_query::query::AggregateQuery;
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_stats::rng::Rng;

const GROUPS: usize = 8;
const PER_GROUP: usize = 240;

/// One lineage-bearing sample view per group, with overlapping entities so
/// every estimator (including Monte-Carlo) is defined.
fn group_views(groups: usize, per: usize, seed: u64) -> Vec<SampleView> {
    (0..groups)
        .map(|g| {
            let mut rng = Rng::new(seed ^ (g as u64).wrapping_mul(0x9E37_79B9));
            let mut acc = StreamAccumulator::new();
            for i in 0..per {
                let item = rng.next_below(40 + g * 5);
                let source = (i % 8) as u32;
                acc.push(item as u64, (item + 1) as f64 * 10.0, source);
            }
            acc.view()
        })
        .collect()
}

/// `query` answered through `cache`: one lookup, then the answer step over
/// the thawed snapshots.
fn cached_rows(
    table: &IntegratedTable,
    query: &AggregateQuery,
    cache: &QueryProfileCache,
) -> Vec<GroupResult> {
    let (snapshots, _) = selection(table, query, cache).unwrap();
    results_from_selection(query, &snapshots, CorrectionMethod::Bucket)
}

/// The same workload as an integrated SQL table with a group column.
fn grouped_table(groups: usize, per: usize, seed: u64) -> IntegratedTable {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("g", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new("t", schema, "k").unwrap();
    for g in 0..groups {
        let mut rng = Rng::new(seed ^ (g as u64).wrapping_mul(0x9E37_79B9));
        for i in 0..per {
            let item = rng.next_below(40 + g * 5);
            t.insert_observation(
                (i % 8) as u32,
                vec![
                    Value::from(format!("g{g}e{item}")),
                    Value::from((item + 1) as f64 * 10.0),
                    Value::from(format!("g{g}")),
                ],
            )
            .unwrap();
        }
    }
    t
}

fn bench_grouped(c: &mut Criterion) {
    let views = group_views(GROUPS, PER_GROUP, 3);
    // The full registry (naive, freq, bucket, monte-carlo, policy) with the
    // fast Monte-Carlo grid.
    let session = EstimationSession::new({
        let mut kinds = EstimatorKind::standard(MonteCarloConfig::fast());
        kinds.push(EstimatorKind::Policy);
        kinds
    });
    let kinds = session.kinds();

    let mut group = c.benchmark_group(format!("grouped_batch/k{}_g{GROUPS}", kinds.len()));
    group.sample_size(10);
    group.bench_function("direct_per_estimator", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for view in &views {
                for kind in &kinds {
                    if let Some(s) = kind.build().estimate_sum(black_box(view)) {
                        acc += s;
                    }
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("shared_profile_session", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for view in &views {
                let profile = ViewProfile::new(view);
                for r in session.run_profiled(&profile) {
                    if let Some(s) = r.corrected {
                        acc += s;
                    }
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    let table = grouped_table(GROUPS, PER_GROUP, 3);
    let mut group = c.benchmark_group("grouped_batch/sql_group_by");
    group.sample_size(10);
    for (id, method) in [
        ("bucket", CorrectionMethod::Bucket),
        ("auto", CorrectionMethod::Auto),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let rows = execute_sql(&table, "SELECT SUM(v) FROM t GROUP BY g", method).unwrap();
                black_box(rows.len())
            })
        });
    }
    // The cross-query hit path: the selection's profiles are frozen once,
    // repeated queries thaw them instead of rebuilding views + statistics.
    let cache = QueryProfileCache::new(8);
    let grouped_query = parse("SELECT SUM(v) FROM t GROUP BY g").unwrap();
    let _ = cached_rows(&table, &grouped_query, &cache);
    group.bench_function("bucket_cached", |b| {
        b.iter(|| {
            let rows = cached_rows(&table, &grouped_query, &cache);
            black_box(rows.len())
        })
    });
    group.finish();

    // Statistics-pass accounting via the profile instrumentation counters:
    // shared = one profile per group fanning out all K estimators; unshared =
    // one profile per (group, estimator), i.e. what per-estimator
    // recomputation costs. Counted: value sorts, species-estimator
    // evaluations and bucket splits — the expensive per-view passes.
    let passes = |m: uu_core::profile::ProfileMetrics| {
        m.sort_builds + m.species_computations + m.bucket_builds
    };
    let mut shared_passes = 0;
    let mut unshared_passes = 0;
    for view in &views {
        let profile = ViewProfile::new(view);
        let _ = session.run_profiled(&profile);
        shared_passes += passes(profile.metrics());
        for kind in &kinds {
            let solo = ViewProfile::new(view);
            let _ = kind.build().estimate_delta_profiled(&solo);
            unshared_passes += passes(solo.metrics());
        }
    }
    println!(
        "\ngrouped_batch/statistics_passes: shared {shared_passes} sort/species/bucket passes vs \
         unshared {unshared_passes} over {GROUPS} groups x {} estimators ({:.1}x fewer)",
        kinds.len(),
        unshared_passes as f64 / shared_passes as f64
    );
    assert!(
        unshared_passes >= 2 * shared_passes,
        "sharing must at least halve the statistics passes \
         (shared {shared_passes}, unshared {unshared_passes})"
    );

    // Machine-readable record: explicit timed runs of every variant (the
    // stand-in criterion only prints), plus the accounting counters.
    let samples = 10;
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
        "direct_per_estimator",
        Box::new(|| {
            let mut acc = 0.0;
            for view in &views {
                for kind in &kinds {
                    if let Some(s) = kind.build().estimate_sum(black_box(view)) {
                        acc += s;
                    }
                }
            }
            black_box(acc);
        }),
    );
    record(
        "shared_profile_session",
        Box::new(|| {
            let mut acc = 0.0;
            for view in &views {
                let profile = ViewProfile::new(view);
                for r in session.run_profiled(&profile) {
                    if let Some(s) = r.corrected {
                        acc += s;
                    }
                }
            }
            black_box(acc);
        }),
    );
    record(
        "sql_group_by_bucket",
        Box::new(|| {
            let rows = execute_sql(
                &table,
                "SELECT SUM(v) FROM t GROUP BY g",
                CorrectionMethod::Bucket,
            )
            .unwrap();
            black_box(rows.len());
        }),
    );
    record(
        "sql_group_by_auto",
        Box::new(|| {
            let rows = execute_sql(
                &table,
                "SELECT SUM(v) FROM t GROUP BY g",
                CorrectionMethod::Auto,
            )
            .unwrap();
            black_box(rows.len());
        }),
    );
    record(
        "sql_group_by_bucket_cached",
        Box::new(|| {
            let rows = cached_rows(&table, &grouped_query, &cache);
            black_box(rows.len());
        }),
    );

    let cache_metrics = cache.metrics();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"grouped_batch\",\n  \"groups\": {GROUPS},\n  \"per_group\": {PER_GROUP},\n  \"estimators\": {},\n  \"samples\": {samples},\n",
        kinds.len()
    ));
    json.push_str(&format!(
        "  \"statistics_passes\": {{ \"shared\": {shared_passes}, \"unshared\": {unshared_passes} }},\n"
    ));
    json.push_str(&format!(
        "  \"profile_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }},\n",
        cache_metrics.hits, cache_metrics.misses, cache_metrics.evictions
    ));
    json.push_str("  \"timings_ns\": {\n");
    for (i, (name, mean, min)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {{ \"mean\": {mean:.0}, \"min\": {min:.0} }}{sep}\n"
        ));
    }
    json.push_str("  }\n}\n");

    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_grouped_batch.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\ngrouped_batch: wrote {}", path.display()),
        Err(e) => println!("\ngrouped_batch: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_grouped);
criterion_main!(benches);
