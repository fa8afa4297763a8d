//! End-to-end loopback latency of `uu-server`.
//!
//! Spawns an in-process server over a pre-loaded catalog, drives it with the
//! protocol client over 127.0.0.1 and measures full round-trips (encode →
//! TCP → decode → execute → respond): the cold path (selection built from
//! the table), the `ProfileCache` hit path (selection read from frozen
//! snapshots — the repeated-query workload the server exists for), the
//! **prepared-query path** (named session, parse + selection frozen at
//! `prepare`, repeats skip both the parser and the cache lookup), the
//! uncached path, a grouped query, and the **traced** path (`"trace":true`
//! on the cache-hit query, paying span capture plus wire encoding — its
//! delta against `cache_hit` is the full tracing cost), plus the
//! **saturation** case: the
//! same cache-hit round-trip re-measured while ~1k idle connections are
//! parked on the reactor (`UU_BENCH_IDLE` overrides the count) — the
//! readiness-driven connection layer must keep the active client's latency
//! flat. The **incremental-append** cases run against a dedicated third
//! table: `append_then_hit` (warm query → `append_stream` 100 new-entity
//! rows → re-query; the timed part is the post-append query, which must
//! land on the re-frozen snapshot instead of paying a cold rebuild; its
//! denominator `append_cold_freeze` times that cold rebuild, an uncached
//! query at the same table size) and
//! `append_stream_sustained` (a stream of small 10-row appends — the timed
//! part is the append itself, i.e. the full delta-maintenance cost). Both
//! are measured only through the explicit record below — not the criterion
//! group — so the table's growth stays bounded by the sample count. The
//! `wal_append` case re-runs the sustained stream against a twin server
//! armed with a data dir, so its ratio against `append_stream_sustained` is
//! the pure durability (WAL) overhead. Like
//! `grouped_batch`, every variant is re-timed explicitly and written as
//! machine-readable JSON to `BENCH_server_roundtrip.json` (in
//! `$BENCH_JSON_DIR` when set).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uu_query::catalog::Catalog;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_server::client::Client;
use uu_server::server::{spawn_with_catalog, ServerConfig};
use uu_stats::rng::Rng;

const GROUPS: usize = 8;
const PER_GROUP: usize = 240;
const SQL: &str = "SELECT SUM(v) FROM t";
const GROUPED_SQL: &str = "SELECT SUM(v) FROM t GROUP BY g";
/// A twin table left completely untouched until the `cold_columnar`
/// measurement: its one round-trip pays the first column sort, the
/// vectorized selection and the statistics, with no cache anywhere.
const COLD_SQL: &str = "SELECT SUM(v) FROM t_cold";
/// A third twin reserved for the incremental-append cases, so the appends
/// never perturb the tables behind the cache-hit measurements.
const APPEND_SQL: &str = "SELECT SUM(v) FROM t_app";
const ESTIMATORS: &[&str] = &["bucket", "naive", "freq"];

fn build_table(name: &str) -> IntegratedTable {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("g", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new(name, schema, "k").unwrap();
    for g in 0..GROUPS {
        let mut rng = Rng::new(3 ^ (g as u64).wrapping_mul(0x9E37_79B9));
        for i in 0..PER_GROUP {
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

/// The grouped_batch workload as a server-side catalog.
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(build_table("t")).unwrap();
    catalog.register(build_table("t_cold")).unwrap();
    catalog.register(build_table("t_app")).unwrap();
    catalog
}

/// A CSV batch of `rows` observations over brand-new entity keys
/// (`a{start}`, `a{start+1}`, …). Fresh keys keep every cached selection on
/// the pure-append fast path: nothing previously frozen is ever touched, so
/// re-freezing in place is always legal.
fn append_csv(start: u64, rows: u64) -> String {
    let mut csv = String::from("worker,k,v,g\n");
    for id in start..start + rows {
        let (worker, v, g) = (id % 8, (id % 40) + 1, id % GROUPS as u64);
        csv.push_str(&format!("{worker},a{id},{v}.0,g{g}\n"));
    }
    csv
}

fn bench_server(c: &mut Criterion) {
    let handle = spawn_with_catalog(ServerConfig::default(), catalog()).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Cold round-trip, measured once per distinct selection: warm queries
    // would pollute it, so take it before anything touches the cache.
    let start = Instant::now();
    let cold = client.query(SQL, ESTIMATORS, true).unwrap();
    let cold_ns = start.elapsed().as_secs_f64() * 1e9;
    assert!(!cold.cache_hit);
    let start = Instant::now();
    let grouped_cold = client.query(GROUPED_SQL, ESTIMATORS, true).unwrap();
    let grouped_cold_ns = start.elapsed().as_secs_f64() * 1e9;
    assert!(!grouped_cold.cache_hit);
    // Fully cold columnar round-trip: first contact with `t_cold` ever, so
    // the time includes the column's first sort permutation + vectorized
    // selection + the freeze of every statistic.
    let start = Instant::now();
    let cold_columnar = client.query(COLD_SQL, ESTIMATORS, false).unwrap();
    let cold_columnar_ns = start.elapsed().as_secs_f64() * 1e9;
    assert!(!cold_columnar.cache_hit);
    // Warm the append table's selection once: every `append_then_hit`
    // iteration below must find it already frozen and re-freeze it in place.
    let warm_app = client.query(APPEND_SQL, ESTIMATORS, true).unwrap();
    assert!(!warm_app.cache_hit);

    // Prepared-query session: the same SQL frozen behind a named session.
    client
        .session_open("bench", ESTIMATORS)
        .expect("session_open");
    client.prepare("bench", "q", SQL).expect("prepare");

    let mut group = c.benchmark_group("server_roundtrip/loopback");
    group.sample_size(10);
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            let reply = client.query(SQL, ESTIMATORS, true).unwrap();
            assert!(reply.cache_hit);
            black_box(reply.groups.len())
        })
    });
    group.bench_function("prepared_hit", |b| {
        b.iter(|| {
            let reply = client.execute_prepared("bench", "q").unwrap();
            assert!(reply.cache_hit);
            black_box(reply.groups.len())
        })
    });
    group.bench_function("uncached", |b| {
        b.iter(|| {
            let reply = client.query(SQL, ESTIMATORS, false).unwrap();
            black_box(reply.groups.len())
        })
    });
    group.bench_function("grouped_cache_hit", |b| {
        b.iter(|| {
            let reply = client.query(GROUPED_SQL, ESTIMATORS, true).unwrap();
            assert!(reply.cache_hit);
            black_box(reply.groups.len())
        })
    });
    // The fully-traced cost: same cache-hit round-trip with `"trace":true`,
    // so the reply carries the span tree. The delta against `cache_hit` is
    // the price of span capture + wire encoding; `cache_hit` itself runs
    // with histograms recording but tracing off, which is the default-path
    // overhead the regression gate pins at 1.10x.
    group.bench_function("traced_query", |b| {
        b.iter(|| {
            let reply = client.query_traced(SQL, ESTIMATORS, true).unwrap();
            assert!(reply.cache_hit);
            assert!(reply.trace.is_some());
            black_box(reply.groups.len())
        })
    });
    group.bench_function("ping", |b| b.iter(|| client.ping().unwrap()));
    group.finish();

    // Explicit timed runs for the machine-readable record.
    let samples = 30;
    let mut results: Vec<(String, f64, f64)> = vec![
        ("cold".to_string(), cold_ns, cold_ns),
        ("grouped_cold".to_string(), grouped_cold_ns, grouped_cold_ns),
        (
            "cold_columnar".to_string(),
            cold_columnar_ns,
            cold_columnar_ns,
        ),
    ];
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
    let appended = std::cell::Cell::new(0u64);
    {
        let client = std::cell::RefCell::new(&mut client);
        record(
            "cache_hit",
            Box::new(|| {
                let reply = client.borrow_mut().query(SQL, ESTIMATORS, true).unwrap();
                black_box(reply.elapsed_us);
            }),
        );
        // The saturation comparison's explicit N=0 point: same path as
        // `cache_hit`, named so the idle0/idle1k pair is self-contained.
        record(
            "cache_hit_idle0",
            Box::new(|| {
                let reply = client.borrow_mut().query(SQL, ESTIMATORS, true).unwrap();
                black_box(reply.elapsed_us);
            }),
        );
        record(
            "prepared_hit",
            Box::new(|| {
                let reply = client.borrow_mut().execute_prepared("bench", "q").unwrap();
                black_box(reply.elapsed_us);
            }),
        );
        record(
            "uncached",
            Box::new(|| {
                let reply = client.borrow_mut().query(SQL, ESTIMATORS, false).unwrap();
                black_box(reply.elapsed_us);
            }),
        );
        record(
            "grouped_cache_hit",
            Box::new(|| {
                let reply = client
                    .borrow_mut()
                    .query(GROUPED_SQL, ESTIMATORS, true)
                    .unwrap();
                black_box(reply.elapsed_us);
            }),
        );
        record(
            "traced_query",
            Box::new(|| {
                let reply = client
                    .borrow_mut()
                    .query_traced(SQL, ESTIMATORS, true)
                    .unwrap();
                black_box(reply.trace.map(|t| t.len()));
            }),
        );
        record(
            "ping",
            Box::new(|| {
                client.borrow_mut().ping().unwrap();
            }),
        );
        // A stream of small appends with no query in between: the honest
        // ingest cost of the delta path (CSV parse + batched dictionary
        // growth + sorted merge-insert + statistics re-freeze per batch).
        record(
            "append_stream_sustained",
            Box::new(|| {
                let start = appended.get();
                appended.set(start + 10);
                let outcome = client
                    .borrow_mut()
                    .append_stream("t_app", "worker", &append_csv(start, 10))
                    .unwrap();
                black_box(outcome.observations);
            }),
        );
    }
    // --- saturation: park ~1k idle connections on the reactor and
    // re-measure the cache-hit path. The parked sockets never send a byte,
    // so they must cost the active client nothing. ---
    let idle_target: usize = std::env::var("UU_BENCH_IDLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    // Both ends of every parked connection live in this process.
    let _ = uu_server::reactor::raise_nofile_limit(2 * idle_target as u64 + 512);
    let idles: Vec<std::net::TcpStream> = (0..idle_target)
        .map_while(|_| std::net::TcpStream::connect(handle.addr()).ok())
        .collect();
    let parked = idles.len();
    // Wait until the reactor has accepted the whole herd (connect()
    // completes on the kernel backlog, ahead of the server's accept).
    let accept_deadline = Instant::now() + std::time::Duration::from_secs(30);
    while client.stats().unwrap().conn.open < parked as u64 + 1 {
        if Instant::now() >= accept_deadline {
            println!("server_roundtrip: only part of the idle herd was accepted in time");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut group = c.benchmark_group("server_roundtrip/saturation");
    group.sample_size(10);
    group.bench_function("cache_hit_idle1k", |b| {
        b.iter(|| {
            let reply = client.query(SQL, ESTIMATORS, true).unwrap();
            assert!(reply.cache_hit);
            black_box(reply.groups.len())
        })
    });
    group.finish();
    {
        let client = std::cell::RefCell::new(&mut client);
        record(
            "cache_hit_idle1k",
            Box::new(|| {
                let reply = client.borrow_mut().query(SQL, ESTIMATORS, true).unwrap();
                black_box(reply.elapsed_us);
            }),
        );
    }
    drop(idles);

    // Incremental maintenance's payoff case: each sample appends a 100-row
    // batch of new entities (untimed — the maintenance cost is what
    // `append_stream_sustained` measures) and then times the very next
    // query. Without delta maintenance that query is a full cold freeze of
    // `t_app`; with it, the re-frozen snapshot answers as a cache hit. The
    // cold freeze is timed right after, at the same table size, as an
    // uncached query (`append_cold_freeze`): the ratio of the two is what
    // the regression gate pins at 0.25x.
    {
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut cold_best = f64::INFINITY;
        let mut cold_total = 0.0;
        for _ in 0..samples {
            let start_row = appended.get();
            appended.set(start_row + 100);
            client
                .append_stream("t_app", "worker", &append_csv(start_row, 100))
                .unwrap();
            let start = Instant::now();
            let reply = client.query(APPEND_SQL, ESTIMATORS, true).unwrap();
            let ns = start.elapsed().as_secs_f64() * 1e9;
            assert!(reply.cache_hit, "append must re-freeze, not evict");
            black_box(reply.elapsed_us);
            best = best.min(ns);
            total += ns;
            let start = Instant::now();
            let reply = client.query(APPEND_SQL, ESTIMATORS, false).unwrap();
            let ns = start.elapsed().as_secs_f64() * 1e9;
            black_box(reply.elapsed_us);
            cold_best = cold_best.min(ns);
            cold_total += ns;
        }
        results.push(("append_then_hit".to_string(), total / samples as f64, best));
        results.push((
            "append_cold_freeze".to_string(),
            cold_total / samples as f64,
            cold_best,
        ));
    }

    // --- durability tax: the same sustained 10-row append stream against a
    // twin server running with a data dir, so every batch also pays the WAL
    // encode + CRC + write under the default batch fsync policy. The ratio
    // against `append_stream_sustained` is what the regression gate pins at
    // 1.5x. ---
    {
        let data_dir = std::env::temp_dir().join(format!("uu-bench-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let config = ServerConfig {
            data_dir: Some(data_dir.clone()),
            ..ServerConfig::default()
        };
        let wal_handle = spawn_with_catalog(config, catalog()).expect("spawn WAL server");
        let mut wal_client = Client::connect(wal_handle.addr()).expect("connect WAL server");
        // Warm the same selection the WAL-off stream re-freezes on every
        // batch (mirrors the APPEND_SQL warm-up above) so the only cost
        // difference between the two cases is the log itself.
        let warm = wal_client.query(APPEND_SQL, ESTIMATORS, true).unwrap();
        assert!(!warm.cache_hit);
        let mut wal_appended = 0u64;
        let mut wal_batch = |wal_client: &mut Client| {
            let outcome = wal_client
                .append_stream("t_app", "worker", &append_csv(wal_appended, 10))
                .unwrap();
            wal_appended += 10;
            black_box(outcome.observations);
        };
        wal_batch(&mut wal_client); // warm-up
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        for _ in 0..samples {
            let start = Instant::now();
            wal_batch(&mut wal_client);
            let ns = start.elapsed().as_secs_f64() * 1e9;
            best = best.min(ns);
            total += ns;
        }
        results.push(("wal_append".to_string(), total / samples as f64, best));
        wal_client.shutdown().unwrap();
        wal_handle.join();
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    let stats = client.stats().unwrap();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"server_roundtrip\",\n  \"groups\": {GROUPS},\n  \"per_group\": {PER_GROUP},\n  \"estimators\": {},\n  \"samples\": {samples},\n",
        ESTIMATORS.len()
    ));
    json.push_str(&format!(
        "  \"server\": {{ \"workers\": {}, \"requests\": {} }},\n",
        stats.workers, stats.requests
    ));
    json.push_str(&format!(
        "  \"profile_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"bytes\": {} }},\n",
        stats.cache.hits, stats.cache.misses, stats.cache.evictions, stats.cache.bytes
    ));
    json.push_str(&format!(
        "  \"projection\": {{ \"builds\": {}, \"reuses\": {}, \"bytes\": {} }},\n",
        stats.projection.builds, stats.projection.reuses, stats.projection.bytes
    ));
    json.push_str(&format!(
        "  \"conn\": {{ \"backend\": \"{}\", \"idle_parked\": {parked}, \"peak_open\": {}, \"backpressure\": {} }},\n",
        stats.conn.backend, stats.conn.peak_open, stats.conn.backpressure
    ));
    json.push_str(&format!(
        "  \"incremental\": {{ \"delta_batches\": {}, \"rows_appended\": {}, \"permutation_merges\": {}, \"snapshots_refrozen\": {}, \"fallback_rebuilds\": {} }},\n",
        stats.incremental.delta_batches,
        stats.incremental.rows_appended,
        stats.incremental.permutation_merges,
        stats.incremental.snapshots_refrozen,
        stats.incremental.fallback_rebuilds
    ));
    json.push_str("  \"roundtrip_ns\": {\n");
    for (i, (name, mean, min)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {{ \"mean\": {mean:.0}, \"min\": {min:.0} }}{sep}\n"
        ));
    }
    json.push_str("  }\n}\n");

    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_server_roundtrip.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nserver_roundtrip: wrote {}", path.display()),
        Err(e) => println!(
            "\nserver_roundtrip: could not write {}: {e}",
            path.display()
        ),
    }

    client.shutdown().unwrap();
    handle.join();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
