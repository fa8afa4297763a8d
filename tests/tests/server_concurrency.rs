//! Concurrent-connection tests for `uu-server`.
//!
//! N line-JSON clients issue interleaved cached/uncached and grouped
//! queries concurrently **while M pgwire clients hammer the pgwire-lite
//! front of the same server**; every reply on either front must be
//! bit-for-bit identical to its expectation, and every request is served
//! by the fixed worker pool the `stats` reply reports. A second test parks
//! ≥1k idle connections (scalable to 10k via `UU_IDLE_CONNS`) on the
//! reactor and pins that they never reach a worker: they add nothing to the
//! server's request or frame counters. A third dribbles requests one byte
//! per write and pins that incremental frame assembly answers bit-for-bit
//! identically on both fronts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_query::catalog::Catalog;
use uu_query::csv::load_observations;
use uu_query::exec::CorrectionMethod;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_server::client::Client;
use uu_server::pgwire::{panel_rows, PgClient, PgRow};
use uu_server::protocol::{LoadCsvRequest, QueryRequest, Request, Response, WireEstimate};
use uu_server::server::{spawn, ServerConfig};

const CLIENTS: usize = 8;
const PG_CLIENTS: usize = 4;
const ROUNDS: usize = 5;
const PG_SQL: &str = "SELECT SUM(value) FROM sightings";
const PG_GROUPED_SQL: &str = "SELECT SUM(value) FROM sightings GROUP BY grp";

/// A multi-source observation log large enough that statistics work is
/// non-trivial: 6 sources × 80 draws over 3 groups.
fn observation_log() -> String {
    let mut csv = String::from("worker,item,value,grp\n");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for worker in 0..6u32 {
        for _ in 0..80 {
            let grp = next() % 3;
            let item = next() % (14 + 6 * grp);
            csv.push_str(&format!(
                "{worker},g{grp}i{item},{},g{grp}\n",
                (item + 1) * 10
            ));
        }
    }
    csv
}

fn schema() -> Schema {
    Schema::new([
        ("item", ColumnType::Str),
        ("value", ColumnType::Float),
        ("grp", ColumnType::Str),
    ])
}

type Case = (&'static str, &'static [&'static str], bool);

const CASES: &[Case] = &[
    (
        "SELECT SUM(value) FROM sightings",
        &["bucket", "naive"],
        true,
    ),
    (
        "SELECT SUM(value) FROM sightings",
        &["bucket", "naive"],
        false,
    ),
    (
        "SELECT SUM(value) FROM sightings GROUP BY grp",
        &["bucket"],
        true,
    ),
    (
        "SELECT SUM(value) FROM sightings GROUP BY grp",
        &["bucket"],
        false,
    ),
    ("SELECT COUNT(*) FROM sightings", &["naive"], true),
    (
        "SELECT AVG(value) FROM sightings WHERE value < 150",
        &["bucket"],
        true,
    ),
    (
        "SELECT SUM(value) FROM sightings GROUP BY grp",
        &["policy", "freq"],
        true,
    ),
];

fn method_for(kinds: &[EstimatorKind]) -> CorrectionMethod {
    match kinds.first() {
        None => CorrectionMethod::None,
        Some(EstimatorKind::Naive) => CorrectionMethod::Naive,
        Some(EstimatorKind::Frequency) => CorrectionMethod::Frequency,
        Some(EstimatorKind::Bucket) => CorrectionMethod::Bucket,
        Some(EstimatorKind::MonteCarlo(cfg)) => CorrectionMethod::MonteCarlo(*cfg),
        Some(EstimatorKind::Policy) => CorrectionMethod::Auto,
    }
}

/// The direct expectation: canonical renderings per group, via the exact
/// catalog surface the server routes through.
fn expected(catalog: &Catalog, case: &Case) -> Vec<String> {
    let (sql, estimators, _) = case;
    let kinds: Vec<_> = estimators
        .iter()
        .map(|n| EstimatorKind::by_name(n).unwrap())
        .collect();
    let query = uu_query::sql::parse(sql).unwrap();
    let (snapshots, _) = catalog.selection_query(&query).unwrap();
    let rows = catalog.execute_sql(sql, method_for(&kinds)).unwrap();
    let session = EstimationSession::new(kinds);
    rows.iter()
        .zip(snapshots.iter())
        .map(|(row, (_, snapshot))| {
            let estimates = session
                .run_profiled(snapshot)
                .iter()
                .map(WireEstimate::from_named)
                .collect();
            uu_server::protocol::WireResult::from_result(&row.result, estimates).canonical()
        })
        .collect()
}

#[test]
fn concurrent_clients_get_direct_catalog_answers_within_the_thread_budget() {
    let csv = observation_log();
    let handle = spawn(ServerConfig {
        pgwire_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();

    // Load over the wire…
    let mut admin = Client::connect(handle.addr()).unwrap();
    let response = admin
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "sightings".into(),
            columns: vec![
                ("item".into(), "str".into()),
                ("value".into(), "float".into()),
                ("grp".into(), "str".into()),
            ],
            entity_column: "item".into(),
            source_column: "worker".into(),
            csv: csv.clone(),
            append: false,
        }))
        .unwrap();
    assert!(
        matches!(response, Response::Loaded { .. }),
        "{}",
        response.encode()
    );

    // …and build the identical local catalog + expectations up front.
    let mut table = IntegratedTable::new("sightings", schema(), "item").unwrap();
    load_observations(&mut table, &csv, "worker").unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    let expectations: Arc<Vec<Vec<String>>> =
        Arc::new(CASES.iter().map(|case| expected(&catalog, case)).collect());

    // pgwire expectations: the same per-estimator answers the JSON front
    // gives, laid out by the shared `panel_rows` formatter.
    let pg_expect = |sql: &str| -> (Vec<String>, Vec<PgRow>) {
        let mut probe = Client::connect(handle.addr()).unwrap();
        let replies: Vec<(&'static str, _)> = EstimatorKind::all()
            .into_iter()
            .map(|kind| (kind.name(), probe.query(sql, &[kind.name()], true).unwrap()))
            .collect();
        panel_rows(&replies)
    };
    let pg_expectations = Arc::new(vec![
        (PG_SQL, pg_expect(PG_SQL)),
        (PG_GROUPED_SQL, pg_expect(PG_GROUPED_SQL)),
    ]);

    let addr = handle.addr();
    let pg_addr = handle.pgwire_addr().expect("pgwire front enabled");
    let pg_clients: Vec<_> = (0..PG_CLIENTS)
        .map(|id| {
            let pg_expectations = Arc::clone(&pg_expectations);
            std::thread::spawn(move || {
                let mut client = PgClient::connect(pg_addr).expect("pgwire connect");
                for round in 0..ROUNDS {
                    for (i, (sql, (want_columns, want_rows))) in pg_expectations.iter().enumerate()
                    {
                        let result = client
                            .simple_query(sql)
                            .unwrap_or_else(|e| panic!("pg client {id}: {sql}: {e}"));
                        assert_eq!(
                            &result.columns, want_columns,
                            "pg client {id} round {round} case {i}"
                        );
                        assert_eq!(
                            &result.rows, want_rows,
                            "pg client {id} round {round}: {sql}"
                        );
                    }
                }
            })
        })
        .collect();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let expectations = Arc::clone(&expectations);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    // Offset the case order per client so cached and
                    // uncached executions of the same SQL interleave across
                    // connections.
                    for step in 0..CASES.len() {
                        let idx = (id + round + step) % CASES.len();
                        let (sql, estimators, cached) = CASES[idx];
                        let reply = client
                            .query(sql, estimators, cached)
                            .unwrap_or_else(|e| panic!("client {id}: {sql}: {e}"));
                        let got: Vec<String> =
                            reply.groups.iter().map(|g| g.result.canonical()).collect();
                        assert_eq!(
                            got, expectations[idx],
                            "client {id} round {round}: {sql} (cached={cached})"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    for client in pg_clients {
        client.join().expect("pgwire client thread");
    }

    let stats = admin.stats().unwrap();
    assert!(
        stats.connections >= (CLIENTS + PG_CLIENTS + 1) as u64,
        "all clients on both fronts were served (connections={})",
        stats.connections
    );
    assert_eq!(stats.tables, vec!["sightings".to_string()]);
    // Every one of those requests was computed by the fixed pool of one
    // worker per core; no query opens threads of its own (the
    // `no_production_crate_calls_thread_scope` test pins that).
    assert_eq!(
        stats.workers,
        ServerConfig::default().effective_workers() as u64
    );
    let served = (CLIENTS * ROUNDS * CASES.len() + PG_CLIENTS * ROUNDS * 2) as u64;
    assert!(
        stats.requests >= served,
        "requests {} < the {served} the clients sent",
        stats.requests
    );

    admin.shutdown().unwrap();
    handle.join();
}

/// ≥1k mostly-idle connections parked on the reactor must never reach a
/// worker — no frame, no request — which is the whole point of the
/// readiness-driven connection layer. Scale with `UU_IDLE_CONNS=10000`.
#[test]
fn a_thousand_idle_connections_cost_no_requests() {
    let n: usize = std::env::var("UU_IDLE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    // Client and server sockets live in this one process: budget two fds
    // per parked connection plus slack. Best effort — if the hard limit is
    // lower we find out from the connect loop, with a clear message.
    let _ = uu_server::reactor::raise_nofile_limit(2 * n as u64 + 512);
    let handle = spawn(ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut admin = Client::connect(addr).unwrap();

    let idles: Vec<TcpStream> = (0..n)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connection {i} of {n}: {e}"))
        })
        .collect();
    // Wait until the reactor has accepted every parked socket (connect()
    // completes on the kernel backlog, ahead of the server's accept).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = admin.stats().unwrap();
        if stats.conn.open > n as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {} of {} idle connections accepted",
            stats.conn.open,
            n + 1
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let before = admin.stats().unwrap();
    // An active client keeps getting served promptly among the idle herd.
    const PINGS: u64 = 20;
    let mut active = Client::connect(addr).unwrap();
    for _ in 0..PINGS {
        active.ping().unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    let after = admin.stats().unwrap();

    assert!(
        after.conn.peak_open >= n as u64 + 2,
        "peak_open {} never saw the idle herd",
        after.conn.peak_open
    );
    // The only traffic between the two snapshots is the probe's: its pings
    // plus the `stats` request that took the second snapshot (counted as it
    // arrives, before the reply is built). The idle herd adds nothing.
    let probe = PINGS + 1;
    assert_eq!(
        after.requests - before.requests,
        probe,
        "idle sockets reached the workers"
    );
    assert_eq!(
        after.conn.frames_in - before.conn.frames_in,
        probe,
        "idle sockets delivered frames"
    );

    drop(idles);
    admin.shutdown().unwrap();
    handle.join();
}

/// Writes `bytes` one byte per `write` call, with pauses, so the reactor
/// sees the frame arrive in (at least mostly) single-byte reads.
fn dribble(stream: &mut TcpStream, bytes: &[u8]) {
    for &b in bytes {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Reads one line-JSON response (through the trailing newline).
fn read_json_line(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut b = [0u8; 1];
    loop {
        let n = stream.read(&mut b).unwrap();
        assert!(n > 0, "peer closed before a full line");
        out.push(b[0]);
        if b[0] == b'\n' {
            return out;
        }
    }
}

/// Reads whole pgwire messages until (and including) `ReadyForQuery`.
fn read_pg_until_ready(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let mut header = [0u8; 5];
        stream.read_exact(&mut header).unwrap();
        let len = i32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
        let mut body = vec![0u8; len - 4];
        stream.read_exact(&mut body).unwrap();
        out.extend_from_slice(&header);
        out.extend_from_slice(&body);
        if header[0] == b'Z' {
            return out;
        }
    }
}

/// A pgwire v3 `StartupMessage` (no SSL probe — optional in the protocol).
fn pg_startup_bytes() -> Vec<u8> {
    let mut params = Vec::new();
    params.extend_from_slice(&196_608i32.to_be_bytes());
    params.extend_from_slice(b"user\0uu\0database\0uu\0\0");
    let mut out = Vec::new();
    out.extend_from_slice(&((params.len() as i32 + 4).to_be_bytes()));
    out.extend_from_slice(&params);
    out
}

/// A pgwire simple-query (`Q`) message.
fn pg_query_bytes(sql: &str) -> Vec<u8> {
    let mut out = vec![b'Q'];
    out.extend_from_slice(&((sql.len() as i32 + 5).to_be_bytes()));
    out.extend_from_slice(sql.as_bytes());
    out.push(0);
    out
}

/// Byte-at-a-time writes must assemble into exactly the frames whole writes
/// produce, on both fronts: deterministic responses (ping, pgwire panels)
/// compare bit-for-bit; query replies compare on their canonical group
/// renders (the reply carries a wall-clock `elapsed_us`).
#[test]
fn byte_at_a_time_writes_assemble_identical_responses_on_both_fronts() {
    let handle = spawn(ServerConfig {
        pgwire_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let pg_addr = handle.pgwire_addr().expect("pgwire front enabled");

    let mut admin = Client::connect(addr).unwrap();
    let response = admin
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "t".into(),
            columns: vec![("k".into(), "str".into()), ("v".into(), "float".into())],
            entity_column: "k".into(),
            source_column: "worker".into(),
            csv: "worker,k,v\n0,A,10\n0,B,20\n1,A,10\n1,C,30\n".into(),
            append: false,
        }))
        .unwrap();
    assert!(matches!(response, Response::Loaded { .. }));
    let sql = "SELECT SUM(v) FROM t";
    // Warm the cache so whole and dribbled queries are both cache hits.
    admin.query(sql, &["bucket"], true).unwrap();

    let ping_line = b"{\"op\":\"ping\"}\n".to_vec();
    let query_line = {
        let mut line = Request::Query(QueryRequest {
            sql: sql.into(),
            estimators: vec!["bucket".into()],
            cached: true,
            trace: false,
        })
        .encode();
        line.push('\n');
        line.into_bytes()
    };

    // --- JSON front: whole writes vs dribbled writes ---
    let mut whole = TcpStream::connect(addr).unwrap();
    whole.set_nodelay(true).unwrap();
    whole.write_all(&ping_line).unwrap();
    let whole_ping = read_json_line(&mut whole);
    whole.write_all(&query_line).unwrap();
    let whole_query = read_json_line(&mut whole);

    let mut dribbled = TcpStream::connect(addr).unwrap();
    dribbled.set_nodelay(true).unwrap();
    dribble(&mut dribbled, &ping_line);
    let dribbled_ping = read_json_line(&mut dribbled);
    dribble(&mut dribbled, &query_line);
    let dribbled_query = read_json_line(&mut dribbled);

    assert_eq!(whole_ping, dribbled_ping, "ping responses diverged");
    let canonical_groups = |raw: &[u8]| -> Vec<String> {
        let line = std::str::from_utf8(raw).unwrap();
        match Response::decode(line.trim_end()).unwrap() {
            Response::Query(reply) => {
                assert!(reply.cache_hit, "expected a cache hit: {line}");
                reply.groups.iter().map(|g| g.result.canonical()).collect()
            }
            other => panic!("expected a query reply, got {}", other.encode()),
        }
    };
    assert_eq!(
        canonical_groups(&whole_query),
        canonical_groups(&dribbled_query),
        "query answers diverged"
    );

    // --- pgwire front: the full byte stream compares bit-for-bit ---
    let mut whole = TcpStream::connect(pg_addr).unwrap();
    whole.set_nodelay(true).unwrap();
    whole.write_all(&pg_startup_bytes()).unwrap();
    let whole_startup = read_pg_until_ready(&mut whole);
    whole.write_all(&pg_query_bytes(sql)).unwrap();
    let whole_panel = read_pg_until_ready(&mut whole);

    let mut dribbled = TcpStream::connect(pg_addr).unwrap();
    dribbled.set_nodelay(true).unwrap();
    dribble(&mut dribbled, &pg_startup_bytes());
    let dribbled_startup = read_pg_until_ready(&mut dribbled);
    dribble(&mut dribbled, &pg_query_bytes(sql));
    let dribbled_panel = read_pg_until_ready(&mut dribbled);

    assert_eq!(whole_startup, dribbled_startup, "startup replies diverged");
    assert_eq!(whole_panel, dribbled_panel, "panel bytes diverged");

    admin.shutdown().unwrap();
    handle.join();
}
