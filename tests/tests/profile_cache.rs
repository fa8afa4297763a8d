//! Cross-query profile reuse: the `ProfileCache` consulted by
//! `exec::selection` (and through it by `Catalog::execute_sql`) must (a)
//! return bit-for-bit the uncached results, (b) hit on repeated identical
//! queries — counter-asserted, including that a hit performs zero
//! statistics builds, (c) evict least-recently-used entries at capacity,
//! and (d) invalidate on table mutation so results always reflect the
//! current table state.

use std::sync::{Arc, Barrier};

use uu_core::engine::{EstimationSession, NamedEstimate};
use uu_core::profile::{ProfileMetrics, ProfileSnapshot};
use uu_query::catalog::Catalog;
use uu_query::exec::{
    execute_sql, freeze_selection, results_from_selection, selection, CorrectionMethod,
    GroupResult, QueryProfileCache, QueryResult,
};
use uu_query::query::AggregateQuery;
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

fn tech_table() -> IntegratedTable {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new("companies", schema, "company").unwrap();
    let rows: [(u32, &str, f64, &str); 9] = [
        (0, "A", 1000.0, "CA"),
        (0, "B", 2000.0, "CA"),
        (0, "D", 10_000.0, "WA"),
        (1, "B", 2000.0, "CA"),
        (1, "D", 10_000.0, "WA"),
        (2, "D", 10_000.0, "WA"),
        (3, "D", 10_000.0, "WA"),
        (4, "A", 1000.0, "CA"),
        (4, "E", 300.0, "CA"),
    ];
    for (src, name, emp, state) in rows {
        t.insert_observation(
            src,
            vec![Value::from(name), Value::from(emp), Value::from(state)],
        )
        .unwrap();
    }
    t
}

/// `query` answered through `cache`: the selection is fetched (frozen and
/// inserted on a miss) and answered, one row per universe.
fn cached_rows(
    table: &IntegratedTable,
    query: &AggregateQuery,
    method: CorrectionMethod,
    cache: &QueryProfileCache,
) -> Vec<GroupResult> {
    let (snapshots, _) = selection(table, query, cache).unwrap();
    results_from_selection(query, &snapshots, method)
}

/// The single `Null`-keyed row of an ungrouped answer.
fn single(mut rows: Vec<GroupResult>) -> QueryResult {
    assert_eq!(rows.len(), 1);
    assert!(rows[0].key.is_null());
    rows.pop().unwrap().result
}

/// Exact-equality comparison of the fields a cached run could plausibly
/// corrupt.
fn assert_same(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.observed.to_bits(), b.observed.to_bits());
    assert_eq!(a.corrected, b.corrected);
    assert_eq!(a.n_hat, b.n_hat);
    assert_eq!(a.upper_bound, b.upper_bound);
    assert_eq!(a.method, b.method);
    assert_eq!(a.recommendation, b.recommendation);
}

#[test]
fn repeated_queries_hit_and_match_the_uncached_path() {
    let table = tech_table();
    let cache = QueryProfileCache::new(16);
    let sql = "SELECT SUM(employees) FROM companies WHERE employees < 5000";
    let query = parse(sql).unwrap();

    let uncached = single(execute_sql(&table, sql, CorrectionMethod::Bucket).unwrap());
    let first = single(cached_rows(
        &table,
        &query,
        CorrectionMethod::Bucket,
        &cache,
    ));
    let second = single(cached_rows(
        &table,
        &query,
        CorrectionMethod::Bucket,
        &cache,
    ));
    assert_same(&uncached, &first);
    assert_same(&first, &second);

    let m = cache.metrics();
    assert_eq!(m.misses, 1, "first run misses");
    assert_eq!(m.hits, 1, "second run hits");
    assert_eq!(m.len, 1);

    // One cached selection serves every aggregate and correction method.
    for (sql, method) in [
        (
            "SELECT AVG(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Bucket,
        ),
        (
            "SELECT MIN(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Bucket,
        ),
        (
            "SELECT SUM(employees) FROM companies WHERE employees < 5000",
            CorrectionMethod::Naive,
        ),
    ] {
        let query = parse(sql).unwrap();
        let cached = single(cached_rows(&table, &query, method, &cache));
        let direct = single(execute_sql(&table, sql, method).unwrap());
        assert_same(&direct, &cached);
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "same universe: no further misses");
    assert_eq!(m.hits, 4);
}

#[test]
fn a_cache_hit_rebuilds_no_statistics() {
    // What the executor does on a hit: run estimators over the cached
    // snapshot in place. Even a full 5-estimator session pass must leave
    // the snapshot's build counters where the capture left them.
    let table = tech_table();
    let view = table
        .sample_view(Some("employees"), &uu_query::predicate::Predicate::True)
        .unwrap();
    let snapshot = ProfileSnapshot::capture(view);
    let captured = snapshot.metrics();
    let results = EstimationSession::all().run_profiled(&snapshot);
    assert_eq!(results.len(), 5);
    assert!(results.iter().any(|r| r.corrected.is_some()));
    assert_eq!(
        snapshot.metrics(),
        captured,
        "the hit path must reuse every frozen statistic"
    );
}

/// Every float of a named estimate, as bits.
fn estimate_bits(e: &NamedEstimate) -> (&'static str, [Option<u64>; 3]) {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    (
        e.name,
        [bits(e.delta.delta), bits(e.delta.n_hat), bits(e.corrected)],
    )
}

#[test]
fn threads_answer_from_one_shared_selection_in_place() {
    // Eight threads answer from one cached selection at once: each runs the
    // answer step and a full session fan-out over the shared snapshots.
    // Every answer must equal a fresh uncached execution bit for bit, and no
    // shared snapshot may build anything: the memo is read in place.
    let table = tech_table();
    let cache = QueryProfileCache::new(8);
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";
    let query = parse(sql).unwrap();
    let (shared, _) = selection(&table, &query, &cache).unwrap();
    let captured: Vec<ProfileMetrics> = shared.iter().map(|(_, s)| s.metrics()).collect();
    let session = EstimationSession::all();
    let methods = [
        CorrectionMethod::Naive,
        CorrectionMethod::Frequency,
        CorrectionMethod::Bucket,
        CorrectionMethod::Auto,
    ];
    let fresh = freeze_selection(&table, &query).unwrap();
    let expected_estimates: Vec<Vec<_>> = fresh
        .iter()
        .map(|(_, s)| session.run_profiled(s).iter().map(estimate_bits).collect())
        .collect();
    let threads = 8;
    let barrier = Barrier::new(threads);
    let (table, cache, query, session) = (&table, &cache, &query, &session);
    let (shared, barrier, expected_estimates) = (&shared, &barrier, &expected_estimates);
    std::thread::scope(|s| {
        for &method in methods.iter().cycle().take(threads) {
            s.spawn(move || {
                // Every thread reads the shared snapshots at the same time.
                barrier.wait();
                let (hit, was_cached) = selection(table, query, cache).unwrap();
                assert!(was_cached);
                assert!(Arc::ptr_eq(&hit, shared), "one shared selection");
                let rows = results_from_selection(query, &hit, method);
                let direct = execute_sql(table, sql, method).unwrap();
                assert_eq!(rows.len(), direct.len());
                for (row, want) in rows.iter().zip(&direct) {
                    assert_eq!(row.key, want.key);
                    assert_same(&want.result, &row.result);
                    assert_eq!(
                        row.result.corrected.map(f64::to_bits),
                        want.result.corrected.map(f64::to_bits)
                    );
                }
                for ((_, snapshot), want) in hit.iter().zip(expected_estimates) {
                    let got: Vec<_> = session
                        .run_profiled(snapshot)
                        .iter()
                        .map(estimate_bits)
                        .collect();
                    assert_eq!(&got, want);
                }
            });
        }
    });
    let after: Vec<ProfileMetrics> = shared.iter().map(|(_, s)| s.metrics()).collect();
    assert_eq!(after, captured, "hits must not build statistics");
}

#[test]
fn threads_build_a_refrozen_selection_once_on_first_read() {
    // An append re-freezes a cached grouped selection without building a
    // statistic. Eight threads then read it at once: the first read of each
    // slot builds it under that snapshot's own lock, and every other thread
    // waits for and shares that build. Every answer equals a fresh uncached
    // execution bit for bit.
    let mut catalog = Catalog::new();
    catalog.register(tech_table()).unwrap();
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";
    let query = parse(sql).unwrap();
    catalog.selection_query(&query).unwrap();
    // New entities in both existing groups and in a new one, so every
    // universe is re-frozen or born from the delta.
    let delta = [
        (5, "F", 500.0, "CA"),
        (5, "G", 7000.0, "WA"),
        (6, "H", 50.0, "TX"),
    ];
    let batch = delta
        .iter()
        .map(|&(src, name, emp, state)| {
            let cells = vec![Value::from(name), Value::from(emp), Value::from(state)];
            (src, cells)
        })
        .collect();
    let (_, refrozen) = catalog.append_observations("companies", batch).unwrap();
    assert_eq!(refrozen, 1);
    let (shared, hit) = catalog.selection_query(&query).unwrap();
    assert!(hit, "the append re-froze the selection");
    assert_eq!(shared.len(), 3);
    for (group, snapshot) in shared.iter() {
        assert_eq!(snapshot.metrics().total_builds(), 0, "{group}");
    }
    let table = catalog.get("companies").unwrap();
    let session = EstimationSession::all();
    let fresh = freeze_selection(table, &query).unwrap();
    let expected_estimates: Vec<Vec<_>> = fresh
        .iter()
        .map(|(_, s)| session.run_profiled(s).iter().map(estimate_bits).collect())
        .collect();
    let methods = [
        CorrectionMethod::Naive,
        CorrectionMethod::Frequency,
        CorrectionMethod::Bucket,
        CorrectionMethod::Auto,
    ];
    let threads = 8;
    let barrier = Barrier::new(threads);
    let (catalog, query, session) = (&catalog, &query, &session);
    let (shared, barrier, expected_estimates) = (&shared, &barrier, &expected_estimates);
    std::thread::scope(|s| {
        for &method in methods.iter().cycle().take(threads) {
            s.spawn(move || {
                barrier.wait();
                let (hit, was_cached) = catalog.selection_query(query).unwrap();
                assert!(was_cached);
                assert!(Arc::ptr_eq(&hit, shared), "one shared selection");
                let rows = results_from_selection(query, &hit, method);
                let direct = execute_sql(table, sql, method).unwrap();
                assert_eq!(rows.len(), direct.len());
                for (row, want) in rows.iter().zip(&direct) {
                    assert_eq!(row.key, want.key);
                    assert_same(&want.result, &row.result);
                    assert_eq!(
                        row.result.corrected.map(f64::to_bits),
                        want.result.corrected.map(f64::to_bits)
                    );
                }
                for ((_, snapshot), want) in hit.iter().zip(expected_estimates) {
                    let got: Vec<_> = session
                        .run_profiled(snapshot)
                        .iter()
                        .map(estimate_bits)
                        .collect();
                    assert_eq!(&got, want);
                }
            });
        }
    });
    for (group, snapshot) in shared.iter() {
        let m = snapshot.metrics();
        assert_eq!(m.sort_builds, 0, "{group}: the re-freeze carried the order");
        assert_eq!(m.bucket_builds, 1, "{group}");
        assert_eq!(m.diagnostics_builds, 1, "{group}");
        assert_eq!(m.species_builds, 1, "{group}");
    }
}

#[test]
fn grouped_queries_cache_per_group_universes() {
    let table = tech_table();
    let cache = QueryProfileCache::new(8);
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";
    let query = parse(sql).unwrap();

    let direct = execute_sql(&table, sql, CorrectionMethod::Naive).unwrap();
    let cached1 = cached_rows(&table, &query, CorrectionMethod::Naive, &cache);
    let cached2 = cached_rows(&table, &query, CorrectionMethod::Naive, &cache);

    assert_eq!(direct.len(), cached1.len());
    for ((d, c1), c2) in direct.iter().zip(&cached1).zip(&cached2) {
        assert_eq!(d.key, c1.key);
        assert_eq!(c1.key, c2.key);
        assert_same(&d.result, &c1.result);
        assert_same(&c1.result, &c2.result);
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "one entry for the whole grouped selection");
    assert_eq!(m.hits, 1);
}

#[test]
fn capacity_bound_evicts_lru_selections() {
    let table = tech_table();
    let cache = QueryProfileCache::new(2);
    let queries = [
        "SELECT SUM(employees) FROM companies WHERE employees < 1500",
        "SELECT SUM(employees) FROM companies WHERE employees < 2500",
        "SELECT SUM(employees) FROM companies WHERE employees < 99999",
    ];
    for sql in queries {
        let q = parse(sql).unwrap();
        let _ = single(cached_rows(&table, &q, CorrectionMethod::Bucket, &cache));
    }
    let m = cache.metrics();
    assert_eq!(m.misses, 3);
    assert_eq!(m.evictions, 1, "third insert evicts the LRU entry");
    assert_eq!(m.len, 2);
    // The oldest selection was evicted: running it again misses …
    let q0 = parse(queries[0]).unwrap();
    let _ = single(cached_rows(&table, &q0, CorrectionMethod::Bucket, &cache));
    assert_eq!(cache.metrics().misses, 4);
    // … while the most recent one still hits.
    let q2 = parse(queries[2]).unwrap();
    let _ = single(cached_rows(&table, &q2, CorrectionMethod::Bucket, &cache));
    assert_eq!(cache.metrics().hits, 1);
}

#[test]
fn catalog_mutation_invalidates_and_results_track_the_new_state() {
    let mut catalog = Catalog::new();
    catalog.register(tech_table()).unwrap();
    let sql = "SELECT COUNT(*) FROM companies";

    let before = single(catalog.execute_sql(sql, CorrectionMethod::Naive).unwrap());
    assert_eq!(before.observed, 4.0);
    let _ = single(catalog.execute_sql(sql, CorrectionMethod::Naive).unwrap());
    assert_eq!(catalog.cache().metrics().hits, 1);

    // Mutate: a brand-new entity arrives.
    catalog
        .get_mut("companies")
        .unwrap()
        .insert_observation(
            5,
            vec![Value::from("F"), Value::from(750.0), Value::from("OR")],
        )
        .unwrap();
    assert!(
        catalog.cache().metrics().invalidations > 0,
        "get_mut must invalidate the table's entries"
    );

    let after = single(catalog.execute_sql(sql, CorrectionMethod::Naive).unwrap());
    assert_eq!(after.observed, 5.0, "cached result reflects the new row");
    // And the fresh state is itself cached again.
    let again = single(catalog.execute_sql(sql, CorrectionMethod::Naive).unwrap());
    assert_eq!(again.observed, 5.0);
    assert_eq!(catalog.cache().metrics().hits, 2);
}

#[test]
fn distinct_tables_with_equal_name_and_version_do_not_share_entries() {
    // Two tables named "companies", both at version 9, different contents:
    // the per-object instance id must keep their cache entries apart even
    // through one shared cache.
    let a = tech_table();
    let mut b = IntegratedTable::new(
        "companies",
        Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]),
        "company",
    )
    .unwrap();
    for i in 0..9u32 {
        b.insert_observation(
            i % 3,
            vec![
                Value::from(format!("X{}", i % 5)),
                Value::from(77.0),
                Value::from("NV"),
            ],
        )
        .unwrap();
    }
    assert_eq!(a.version(), b.version());
    assert_ne!(a.instance(), b.instance());

    let cache = QueryProfileCache::new(8);
    let sql = "SELECT SUM(employees) FROM companies";
    let query = parse(sql).unwrap();
    let ra = single(cached_rows(&a, &query, CorrectionMethod::None, &cache));
    let rb = single(cached_rows(&b, &query, CorrectionMethod::None, &cache));
    assert_eq!(ra.observed, 13_300.0);
    assert_eq!(rb.observed, 5.0 * 77.0);
    assert_eq!(cache.metrics().misses, 2, "no cross-table hit");

    // A clone is a new table object too: it may diverge from the original.
    let c = a.clone();
    assert_ne!(a.instance(), c.instance());
    let _ = single(cached_rows(&c, &query, CorrectionMethod::None, &cache));
    assert_eq!(cache.metrics().misses, 3);
}

#[test]
fn predicate_fingerprints_are_column_case_insensitive() {
    // Predicate evaluation matches columns case-insensitively, so the two
    // spellings denote the same estimation universe and must share an entry.
    let table = tech_table();
    let cache = QueryProfileCache::new(8);
    let lower = parse("SELECT SUM(employees) FROM companies WHERE employees < 5000").unwrap();
    let upper = parse("SELECT SUM(employees) FROM companies WHERE EMPLOYEES < 5000").unwrap();
    let r1 = single(cached_rows(
        &table,
        &lower,
        CorrectionMethod::Bucket,
        &cache,
    ));
    let r2 = single(cached_rows(
        &table,
        &upper,
        CorrectionMethod::Bucket,
        &cache,
    ));
    assert_same(&r1, &r2);
    let m = cache.metrics();
    assert_eq!(m.misses, 1, "one universe, one entry");
    assert_eq!(m.hits, 1);
}

#[test]
fn grouped_cached_without_group_by_degrades_to_single_null_group() {
    let table = tech_table();
    let cache = QueryProfileCache::new(4);
    let query = parse("SELECT SUM(employees) FROM companies").unwrap();
    let rows = cached_rows(&table, &query, CorrectionMethod::Bucket, &cache);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].key.is_null());
    let direct = single(
        execute_sql(
            &table,
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap(),
    );
    assert_same(&direct, &rows[0].result);
}
