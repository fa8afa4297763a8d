//! Loopback integration tests for `uu-server`.
//!
//! The server must be a transparent wire wrapper around the shared
//! [`Catalog`]: every answer it returns is compared **bit-for-bit** against
//! the corresponding direct `Catalog` call on an identically-loaded local
//! catalog (the canonical JSON rendering makes NaN-bearing results
//! comparable). Error paths answer with structured codes and never cost the
//! connection; the repeated-query path must hit the profile cache (counter
//! asserted) and its round-trip latency is recorded to `BENCH_server.json`.
//!
//! The concurrent-connection and idle-herd tests live in
//! `server_concurrency.rs`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use uu_core::engine::EstimationSession;
use uu_query::catalog::Catalog;
use uu_query::csv::load_observations;
use uu_query::exec::CorrectionMethod;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_server::client::{Client, ClientError};
use uu_server::protocol::{ErrorCode, LoadCsvRequest, Request, Response, WireEstimate, WireResult};
use uu_server::server::{spawn, ServerConfig};

/// The toy observation log (Appendix F plus a state column).
const TOY_CSV: &str = "\
worker,company,employees,state
0,A,1000,CA
0,B,2000,CA
0,D,10000,WA
1,B,2000,CA
1,D,10000,WA
2,D,10000,WA
3,D,10000,WA
4,A,1000,CA
4,E,300,CA
";

fn toy_schema() -> Schema {
    Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
        ("state", ColumnType::Str),
    ])
}

/// A local catalog loaded through the same CSV path the server uses.
fn direct_catalog() -> Catalog {
    let mut table = IntegratedTable::new("companies", toy_schema(), "company").unwrap();
    load_observations(&mut table, TOY_CSV, "worker").unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    catalog
}

/// Loads the toy table into a running server over the wire.
fn load_toy(client: &mut Client) {
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "companies".into(),
            columns: vec![
                ("company".into(), "str".into()),
                ("employees".into(), "float".into()),
                ("state".into(), "str".into()),
            ],
            entity_column: "company".into(),
            source_column: "worker".into(),
            csv: TOY_CSV.into(),
            append: false,
        }))
        .unwrap();
    assert!(
        matches!(
            response,
            Response::Loaded {
                observations: 9,
                entities: 4,
                ..
            }
        ),
        "{}",
        response.encode()
    );
}

/// The direct-call expectation for one query: executed through the exact
/// catalog methods the server routes through, with the per-estimator session
/// fan-out over the same cached selection.
fn expected_rows(catalog: &Catalog, sql: &str, estimators: &[&str]) -> Vec<WireResult> {
    let kinds: Vec<_> = estimators
        .iter()
        .map(|n| uu_core::engine::EstimatorKind::by_name(n).unwrap())
        .collect();
    let method = match kinds.first() {
        None => CorrectionMethod::None,
        Some(uu_core::engine::EstimatorKind::Naive) => CorrectionMethod::Naive,
        Some(uu_core::engine::EstimatorKind::Frequency) => CorrectionMethod::Frequency,
        Some(uu_core::engine::EstimatorKind::Bucket) => CorrectionMethod::Bucket,
        Some(uu_core::engine::EstimatorKind::MonteCarlo(cfg)) => CorrectionMethod::MonteCarlo(*cfg),
        Some(uu_core::engine::EstimatorKind::Policy) => CorrectionMethod::Auto,
    };
    let query = uu_query::sql::parse(sql).unwrap();
    let (snapshots, _) = catalog.selection_query(&query).unwrap();
    let rows = catalog.execute_sql(sql, method).unwrap();
    let session = EstimationSession::new(kinds.clone());
    rows.iter()
        .zip(snapshots.iter())
        .map(|(row, (_, snapshot))| {
            let estimates = if kinds.is_empty() {
                Vec::new()
            } else {
                session
                    .run_profiled(&snapshot.profile())
                    .iter()
                    .map(WireEstimate::from_named)
                    .collect()
            };
            WireResult::from_result(&row.result, estimates)
        })
        .collect()
}

#[test]
fn server_answers_match_direct_catalog_calls_bit_for_bit() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let catalog = direct_catalog();

    let cases: &[(&str, &[&str])] = &[
        (
            "SELECT SUM(employees) FROM companies",
            &["bucket", "naive", "freq", "monte-carlo"],
        ),
        ("SELECT SUM(employees) FROM companies", &["naive"]),
        ("SELECT COUNT(*) FROM companies", &["naive"]),
        ("SELECT AVG(employees) FROM companies", &["bucket"]),
        ("SELECT MIN(employees) FROM companies", &["bucket"]),
        ("SELECT MAX(employees) FROM companies", &["bucket"]),
        (
            "SELECT SUM(employees) FROM companies WHERE employees < 5000",
            &["freq", "policy"],
        ),
        (
            "SELECT SUM(employees) FROM companies GROUP BY state",
            &["bucket", "naive"],
        ),
        (
            "SELECT AVG(employees) FROM companies WHERE employees > 99999",
            &["bucket"],
        ),
        ("SELECT COUNT(*) FROM companies", &[]),
    ];
    for (sql, estimators) in cases {
        let expected = expected_rows(&catalog, sql, estimators);
        for cached in [true, false] {
            let reply = client.query(sql, estimators, cached).unwrap();
            assert_eq!(
                reply.groups.len(),
                expected.len(),
                "{sql} (cached={cached})"
            );
            for (group, want) in reply.groups.iter().zip(&expected) {
                assert_eq!(
                    group.result.canonical(),
                    want.canonical(),
                    "{sql} (cached={cached})"
                );
            }
        }
    }
    client.shutdown().unwrap();
    handle.join();
}

/// `cached: false` freezes the selection exactly as a cache miss would but
/// leaves the cache alone: no lookup, no insertion. Grouping by a Float
/// column holding NaN and ±0.0 (one group: both zeros share an entity key)
/// must still answer bit for bit what the cached path answers, per-group
/// estimates included, and errors must carry the same code and message.
#[test]
fn uncached_queries_leave_the_cache_untouched_and_answer_like_cached_ones() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "t".into(),
            columns: vec![
                ("k".into(), "str".into()),
                ("v".into(), "float".into()),
                ("f".into(), "float".into()),
            ],
            entity_column: "k".into(),
            source_column: "worker".into(),
            csv: "worker,k,v,f\n0,a,1,NaN\n1,a,1,NaN\n0,b,2,0.0\n1,b,2,0.0\n\
                  2,c,3,-0.0\n0,d,4,5\n1,d,4,5\n2,e,6,NaN\n"
                .into(),
            append: false,
        }))
        .unwrap();
    assert!(
        matches!(response, Response::Loaded { .. }),
        "{}",
        response.encode()
    );
    let sql = "SELECT SUM(v) FROM t GROUP BY f";
    let estimators = ["bucket", "naive", "freq"];
    let cache_state = |client: &mut Client| {
        let c = client.stats().unwrap().cache;
        (c.hits, c.misses, c.insertions, c.len)
    };
    let render = |reply: &uu_server::protocol::QueryReply| -> Vec<(String, String)> {
        reply
            .groups
            .iter()
            .map(|g| (format!("{:?}", g.key), g.result.canonical()))
            .collect()
    };

    let before = cache_state(&mut client);
    let cold_uncached = client.query(sql, &estimators, false).unwrap();
    assert!(!cold_uncached.cache_hit);
    assert_eq!(cache_state(&mut client), before, "uncached cold query");
    assert_eq!(cold_uncached.groups.len(), 3, "NaN, 0 and 5");

    let cached = client.query(sql, &estimators, true).unwrap();
    assert!(!cached.cache_hit);
    let warm = cache_state(&mut client);
    let uncached = client.query(sql, &estimators, false).unwrap();
    assert!(!uncached.cache_hit);
    assert_eq!(cache_state(&mut client), warm, "uncached warm query");
    assert!(cached.groups.iter().all(|g| g.result.estimates.len() == 3));
    assert_eq!(render(&uncached), render(&cached));
    assert_eq!(render(&cold_uncached), render(&cached));

    for bad in [
        "SELECT SUM(v) FROM nope",
        "SELECT SUM(nope) FROM t",
        "SELECT SUM(v) FROM t WHERE nope = 1",
        "SELECT SUM(v) FROM t GROUP BY nope",
    ] {
        let error = |client: &mut Client, cached| match client.query(bad, &estimators, cached) {
            Err(ClientError::Server(e)) => e,
            other => panic!("{bad} (cached={cached}): expected an error, got {other:?}"),
        };
        let uncached = error(&mut client, false);
        assert_eq!(uncached, error(&mut client, true), "{bad}");
    }
    handle.shutdown();
}

#[test]
fn repeated_query_hits_the_cache_and_latency_is_recorded() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";

    let start = Instant::now();
    let cold = client.query(sql, &["bucket"], true).unwrap();
    let cold_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(!cold.cache_hit, "first execution builds the selection");
    let hits_before = client.stats().unwrap().cache.hits;

    let mut hit_us = f64::INFINITY;
    let mut warm = None;
    for _ in 0..10 {
        let start = Instant::now();
        warm = Some(client.query(sql, &["bucket"], true).unwrap());
        hit_us = hit_us.min(start.elapsed().as_secs_f64() * 1e6);
    }
    let warm = warm.unwrap();
    assert!(warm.cache_hit, "second round-trip serves from the cache");
    let stats = client.stats().unwrap();
    assert!(
        stats.cache.hits > hits_before,
        "hit counter must increment ({} -> {})",
        hits_before,
        stats.cache.hits
    );
    // Identical groups, bit for bit.
    for (a, b) in cold.groups.iter().zip(&warm.groups) {
        assert_eq!(a.result.canonical(), b.result.canonical());
    }

    // Record the loopback latency like the benches do.
    let record = format!(
        "{{ \"bench\": \"server_integration\", \"cold_roundtrip_us\": {cold_us:.1}, \
         \"hit_roundtrip_us_min\": {hit_us:.1}, \"cache_hits\": {}, \"cache_misses\": {} }}\n",
        stats.cache.hits, stats.cache.misses
    );
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_server.json");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    assert!(written.is_ok(), "cannot append to {}", path.display());

    client.shutdown().unwrap();
    handle.join();
}

/// The acceptance pin for the prepared-query path: a prepared
/// `execute_prepared`, an ad-hoc `query`, and a direct
/// `Catalog::execute_sql` call answer bit-for-bit identically for the
/// same SQL — across ungrouped and grouped shapes.
#[test]
fn prepared_adhoc_and_direct_catalog_answers_agree_bit_for_bit() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let catalog = direct_catalog();
    let estimators = ["bucket", "naive"];
    client.session_open("parity", &estimators).unwrap();

    let cases = [
        ("q1", "SELECT SUM(employees) FROM companies"),
        (
            "q2",
            "SELECT AVG(employees) FROM companies WHERE employees < 5000",
        ),
        ("q3", "SELECT SUM(employees) FROM companies GROUP BY state"),
    ];
    for (name, sql) in cases {
        let (universes, _) = client.prepare("parity", name, sql).unwrap();
        let adhoc = client.query(sql, &estimators, true).unwrap();
        let mut prepared = None;
        for _ in 0..3 {
            prepared = Some(client.execute_prepared("parity", name).unwrap());
        }
        let prepared = prepared.unwrap();
        assert!(
            prepared.cache_hit,
            "{sql}: repeated prepared executes are hits"
        );
        assert_eq!(prepared.groups.len() as u64, universes, "{sql}");
        assert_eq!(prepared.grouped, adhoc.grouped, "{sql}");

        // Prepared vs ad-hoc: identical canonical rows.
        assert_eq!(prepared.groups.len(), adhoc.groups.len(), "{sql}");
        for (p, a) in prepared.groups.iter().zip(&adhoc.groups) {
            assert_eq!(p.result.canonical(), a.result.canonical(), "{sql}");
        }
        // Prepared vs direct catalog calls (the expected_rows helper routes
        // through selection_query + execute_sql — and for the ungrouped
        // cases also pin the single-row shape of `execute_sql` below).
        let expected = expected_rows(&catalog, sql, &estimators);
        for (p, want) in prepared.groups.iter().zip(&expected) {
            assert_eq!(p.result.canonical(), want.canonical(), "{sql}");
        }
        if !prepared.grouped {
            let mut direct = catalog.execute_sql(sql, CorrectionMethod::Bucket).unwrap();
            assert_eq!(direct.len(), 1, "{sql}");
            let direct = direct.remove(0).result;
            let got = prepared.single().unwrap();
            assert_eq!(got.observed.to_bits(), direct.observed.to_bits(), "{sql}");
            assert_eq!(
                got.corrected.map(f64::to_bits),
                direct.corrected.map(f64::to_bits),
                "{sql}"
            );
        }
    }

    // Per-session counters surfaced in stats.
    let stats = client.stats().unwrap();
    let session = stats.sessions.iter().find(|s| s.name == "parity").unwrap();
    assert_eq!(session.estimators, vec!["bucket", "naive"]);
    assert_eq!(session.prepared, 3);
    assert_eq!(session.executes, 9);
    assert!(session.frozen_hits >= 6, "repeats hit frozen snapshots");
    client.session_close("parity").unwrap();
    handle.shutdown();
}

/// Satellite pin: the frame bound is configurable, oversized lines answer a
/// structured `frame_too_large` error, and within-bound requests still work.
#[test]
fn oversized_frames_answer_frame_too_large() {
    let config = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();

    // A request line beyond the bound: structured error, then the server
    // drops the connection (it can never find the line boundary).
    let huge = format!(
        r#"{{"op":"query","sql":"SELECT SUM(x) FROM t -- {}"}}"#,
        "x".repeat(8192)
    );
    match client.send_raw(&huge) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::FrameTooLarge, "{}", e.message);
            assert!(e.message.contains("4096"), "{}", e.message);
        }
        other => panic!("expected frame_too_large, got {other:?}"),
    }
    // Fresh connection: normal requests keep working under the bound.
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn the_frame_bound_applies_to_the_accumulated_line_not_per_chunk() {
    let config = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    // 8 KiB with no newline, sent in 1 KiB chunks: every individual read
    // is under the bound, the accumulated partial frame is not — the
    // server must answer `frame_too_large` without ever seeing a line end.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let chunk = [b'x'; 1024];
    for _ in 0..8 {
        if stream.write_all(&chunk).is_err() {
            break; // the server may already have answered and closed
        }
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let line = text.lines().next().unwrap_or_default();
    match Response::decode(line) {
        Ok(Response::Error(e)) => {
            assert_eq!(e.code, ErrorCode::FrameTooLarge, "{}", e.message);
            assert!(e.message.contains("4096"), "{}", e.message);
        }
        other => panic!("expected frame_too_large, got {other:?} from {text:?}"),
    }
    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_after_the_timeout_and_active_ones_survive() {
    let handle = spawn(ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    // A connection dribbling bytes but never completing a frame is idle
    // too: only complete frames reset the deadline.
    let mut dribbler = TcpStream::connect(handle.addr()).unwrap();
    let mut active = Client::connect(handle.addr()).unwrap();
    // The active connection outlives several windows because every request
    // resets its deadline…
    for _ in 0..8 {
        active.ping().unwrap();
        let _ = dribbler.write_all(b"x");
        std::thread::sleep(Duration::from_millis(50));
    }
    // …while the idle one was silently closed: EOF, no farewell frame.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match idle.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!(
            "idle connection got {n} bytes instead of a silent close: {:?}",
            String::from_utf8_lossy(&buf[..n])
        ),
    }
    dribbler
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match dribbler.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("dribbling connection got {n} bytes instead of a silent close"),
    }
    let stats = active.stats().unwrap();
    assert!(
        stats.conn.idle_reaped >= 2,
        "idle_reaped={} after two reapable connections",
        stats.conn.idle_reaped
    );
    active.ping().unwrap();
    handle.shutdown();
}

#[test]
fn server_info_reports_identity_and_sessions() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let info = client.server_info().unwrap();
    assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(info.protocol, uu_server::protocol::PROTOCOL_VERSION);
    assert_eq!(info.fronts, vec!["json".to_string()]);
    assert_eq!(info.active_sessions, 0);
    assert!(info.workers >= 1);
    client.session_open("s", &["bucket"]).unwrap();
    let info = client.server_info().unwrap();
    assert_eq!(info.active_sessions, 1);
    handle.shutdown();
}

#[test]
fn warm_verb_prefills_the_cache() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let sql = "SELECT SUM(employees) FROM companies GROUP BY state";
    let (universes, already) = client.warm(sql).unwrap();
    assert_eq!(universes, 2);
    assert!(!already);
    let (_, already) = client.warm(sql).unwrap();
    assert!(already, "second warm is a no-op");
    let reply = client.query(sql, &["bucket"], true).unwrap();
    assert!(reply.cache_hit, "query after warm is a pure hit");
    let stats = client.stats().unwrap();
    assert!(
        stats.projection.reuses >= 1,
        "warm reads the columns (reuses={})",
        stats.projection.reuses
    );
    assert!(
        stats.projection.bytes > 0,
        "the column store reports its footprint"
    );
    handle.shutdown();
}

#[test]
fn unknown_estimator_is_a_structured_error_and_the_connection_survives() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);

    match client.query("SELECT SUM(employees) FROM companies", &["chao2000"], true) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownEstimator);
            assert!(e.message.contains("chao2000"), "{}", e.message);
            assert_eq!(
                e.accepted,
                vec!["naive", "freq", "bucket", "monte-carlo", "policy"]
            );
        }
        other => panic!("expected a structured error, got {other:?}"),
    }
    // Same connection, next request works.
    let reply = client
        .query("SELECT SUM(employees) FROM companies", &["bucket"], true)
        .unwrap();
    assert_eq!(reply.single().unwrap().observed, 13_300.0);
    handle.shutdown();
}

#[test]
fn malformed_and_invalid_requests_answer_with_codes_not_disconnects() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);

    let expect_code = |response: Response, code: ErrorCode| match response {
        Response::Error(e) => assert_eq!(e.code, code, "{}", e.message),
        other => panic!("expected {code:?}, got {}", other.encode()),
    };
    expect_code(
        client.send_raw("this is not json").unwrap(),
        ErrorCode::MalformedRequest,
    );
    expect_code(
        client.send_raw(r#"{"op":"fly_to_the_moon"}"#).unwrap(),
        ErrorCode::MalformedRequest,
    );
    expect_code(
        client
            .send_raw(r#"{"op":"query","sql":"SELEKT stuff"}"#)
            .unwrap(),
        ErrorCode::Parse,
    );
    expect_code(
        client
            .send_raw(r#"{"op":"query","sql":"SELECT SUM(x) FROM missing"}"#)
            .unwrap(),
        ErrorCode::UnknownTable,
    );
    expect_code(
        client
            .send_raw(r#"{"op":"query","sql":"SELECT SUM(nope) FROM companies"}"#)
            .unwrap(),
        ErrorCode::Table,
    );
    // Re-registering without append is refused; appending works.
    let reload = |append| {
        Request::LoadCsv(LoadCsvRequest {
            table: "companies".into(),
            columns: vec![
                ("company".into(), "str".into()),
                ("employees".into(), "float".into()),
                ("state".into(), "str".into()),
            ],
            entity_column: "company".into(),
            source_column: "worker".into(),
            csv: "worker,company,employees,state\n7,F,50,CA\n".into(),
            append,
        })
    };
    expect_code(
        client.request(&reload(false)).unwrap(),
        ErrorCode::DuplicateTable,
    );
    match client.request(&reload(true)).unwrap() {
        Response::Loaded {
            observations,
            entities,
            ..
        } => {
            assert_eq!(observations, 1);
            assert_eq!(entities, 5);
        }
        other => panic!("{}", other.encode()),
    }
    // The connection survived all of it.
    let reply = client
        .query("SELECT COUNT(*) FROM companies", &["naive"], true)
        .unwrap();
    assert_eq!(reply.single().unwrap().observed, 5.0);
    handle.shutdown();
}

/// A megabyte of `[` inside one request line must cost that request a
/// `malformed_request` reply, not overflow a worker's stack and abort the
/// whole server process.
#[test]
fn deeply_nested_request_is_malformed_and_the_server_stays_up() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let deep = format!(r#"{{"op":"query","sql":{}"#, "[".repeat(1_000_000));
    match client.send_raw(&deep) {
        Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::MalformedRequest, "{}", e.message),
        other => panic!("expected malformed_request, got {other:?}"),
    }
    // The same connection and a fresh one both still get answers.
    client.ping().unwrap();
    Client::connect(handle.addr()).unwrap().ping().unwrap();
    handle.shutdown();
}

#[test]
fn byte_budget_config_bounds_the_cache_and_is_reported() {
    let config = ServerConfig {
        cache_bytes: Some(1), // absurdly small: every new selection evicts the old
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let a = "SELECT SUM(employees) FROM companies";
    let b = "SELECT SUM(employees) FROM companies GROUP BY state";
    client.query(a, &["bucket"], true).unwrap();
    client.query(b, &["bucket"], true).unwrap();
    client.query(a, &["bucket"], true).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.byte_budget, Some(1.0));
    assert!(
        stats.cache.evictions >= 2,
        "a 1-byte budget evicts on every alternation (evictions={})",
        stats.cache.evictions
    );
    assert_eq!(stats.cache.len, 1, "only the newest selection is retained");
    handle.shutdown();
}

#[test]
fn ttl_config_expires_idle_selections() {
    let config = ServerConfig {
        cache_ttl: Some(std::time::Duration::from_millis(20)),
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_toy(&mut client);
    let sql = "SELECT SUM(employees) FROM companies";
    let cold = client.query(sql, &["bucket"], true).unwrap();
    assert!(!cold.cache_hit);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let after = client.query(sql, &["bucket"], true).unwrap();
    assert!(!after.cache_hit, "the TTL expired the selection");
    assert_eq!(
        after.single().unwrap().canonical(),
        cold.single().unwrap().canonical(),
        "expiry only costs time, never changes answers"
    );
    let stats = client.stats().unwrap();
    assert!(stats.cache.expirations >= 1);
    assert_eq!(stats.cache.ttl_ms, Some(20.0));
    handle.shutdown();
}

#[test]
fn shutdown_verb_drains_the_server() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join();
    // The listener is gone; a fresh connection must fail (possibly after the
    // OS drains the backlog, hence the retry loop).
    let refused = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        match Client::connect(addr) {
            Err(_) => true,
            Ok(mut c) => c.ping().is_err(),
        }
    });
    assert!(refused, "server kept serving after shutdown");
}
