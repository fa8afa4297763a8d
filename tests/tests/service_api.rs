//! The transport-agnostic service layer, exercised **without any socket**:
//! a [`Service`] is a complete server once you hold one, and
//! `Service::dispatch` must answer exactly what a real connection would get.
//!
//! Also pins the layering by grep: `service.rs` must stay free of transport
//! types (`TcpStream`, `TcpListener`, framing buffers) — the whole point of
//! the redesign is that the service compiles without knowing any wire
//! exists.

use uu_query::catalog::Catalog;
use uu_query::csv::load_observations;
use uu_query::exec::CorrectionMethod;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_server::protocol::{ErrorCode, QueryRequest, Request, Response};
use uu_server::{Service, SessionCtx};

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

fn toy_catalog() -> Catalog {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("companies", schema, "company").unwrap();
    load_observations(&mut table, TOY_CSV, "worker").unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    catalog
}

fn service() -> Service {
    Service::new(toy_catalog(), 0)
}

fn expect_error(response: Response, code: ErrorCode) {
    match response {
        Response::Error(e) => assert_eq!(e.code, code, "{}", e.message),
        other => panic!("expected {code:?}, got {}", other.encode()),
    }
}

/// The layering pin: no socket or framing type may appear in the service
/// module. Both fronts (`server.rs` line-JSON, `pgwire.rs`) own their
/// transports; `service.rs` owns the meaning.
#[test]
fn service_module_is_free_of_transport_types() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("crates/server/src/service.rs");
    let source = std::fs::read_to_string(&path).expect("service.rs readable");
    for forbidden in [
        "TcpStream",
        "TcpListener",
        "UdpSocket",
        "SocketAddr",
        "std::net",
        "read_line",
        "BufReader",
        "set_read_timeout",
    ] {
        assert!(
            !source.contains(forbidden),
            "service.rs must stay transport-agnostic but mentions {forbidden:?}"
        );
    }
}

#[test]
fn dispatch_answers_ping_stats_and_info_without_a_socket() {
    let service = service();
    let mut ctx = SessionCtx::new();
    assert!(matches!(
        service.dispatch(&mut ctx, Request::Ping),
        Response::Pong
    ));
    let Response::Info(info) = service.dispatch(&mut ctx, Request::ServerInfo) else {
        panic!("expected server_info");
    };
    assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(info.active_sessions, 0);
    assert!(
        info.fronts.is_empty(),
        "no transport registered a front on an embedded service"
    );
    let Response::Stats(stats) = service.dispatch(&mut ctx, Request::Stats) else {
        panic!("expected stats");
    };
    assert_eq!(stats.tables, vec!["companies".to_string()]);
    assert!(stats.requests >= 2, "dispatch itself counts requests");
}

#[test]
fn dispatched_queries_match_direct_catalog_calls_bit_for_bit() {
    let service = service();
    let mut ctx = SessionCtx::new();
    let catalog = toy_catalog();
    for sql in [
        "SELECT SUM(employees) FROM companies",
        "SELECT AVG(employees) FROM companies",
        "SELECT SUM(employees) FROM companies WHERE employees < 5000",
    ] {
        let direct = catalog
            .execute_sql_cached(sql, CorrectionMethod::Bucket)
            .unwrap();
        let response = service.dispatch(
            &mut ctx,
            Request::Query(QueryRequest {
                sql: sql.to_string(),
                estimators: vec!["bucket".to_string()],
                cached: true,
                trace: false,
            }),
        );
        let Response::Query(reply) = response else {
            panic!("expected query reply for {sql}");
        };
        let got = reply.single().unwrap();
        assert_eq!(got.observed.to_bits(), direct.observed.to_bits(), "{sql}");
        assert_eq!(
            got.corrected.map(f64::to_bits),
            direct.corrected.map(f64::to_bits),
            "{sql}"
        );
        assert_eq!(got.method, direct.method, "{sql}");
    }
}

#[test]
fn named_sessions_pin_estimators_and_surface_counters() {
    let service = service();
    let mut ctx = SessionCtx::new();
    let sql = "SELECT SUM(employees) FROM companies";

    // Open, prepare, execute twice, check counters.
    let opened = service.dispatch(
        &mut ctx,
        Request::SessionOpen {
            name: "s1".into(),
            estimators: vec!["bucket".into(), "naive".into()],
        },
    );
    match opened {
        Response::SessionOpened { name, estimators } => {
            assert_eq!(name, "s1");
            assert_eq!(estimators, vec!["bucket", "naive"]);
        }
        other => panic!("{}", other.encode()),
    }
    let prepared = service.dispatch(
        &mut ctx,
        Request::Prepare {
            session: "s1".into(),
            name: "q".into(),
            sql: sql.into(),
        },
    );
    match prepared {
        Response::Prepared {
            universes,
            already_cached,
            ..
        } => {
            assert_eq!(universes, 1);
            assert!(!already_cached, "first prepare builds the selection");
        }
        other => panic!("{}", other.encode()),
    }
    let mut replies = Vec::new();
    for _ in 0..2 {
        let response = service.dispatch(
            &mut ctx,
            Request::ExecutePrepared {
                session: "s1".into(),
                name: "q".into(),
            },
        );
        let Response::Query(reply) = response else {
            panic!("expected query reply");
        };
        assert!(reply.cache_hit, "prepared executes reuse frozen snapshots");
        replies.push(reply);
    }
    assert_eq!(
        replies[0].single().unwrap().canonical(),
        replies[1].single().unwrap().canonical()
    );
    // The pinned session applies bucket as the primary correction and fans
    // out both estimators.
    let result = replies[0].single().unwrap();
    assert_eq!(result.method, "bucket");
    assert_eq!(result.estimates.len(), 2);

    let Response::Stats(stats) = service.dispatch(&mut ctx, Request::Stats) else {
        panic!("expected stats");
    };
    let s1 = stats.sessions.iter().find(|s| s.name == "s1").unwrap();
    assert_eq!(s1.estimators, vec!["bucket", "naive"]);
    assert_eq!(s1.prepared, 1);
    assert_eq!(s1.executes, 2);
    assert!(
        s1.frozen_hits >= 2,
        "both executes were pure frozen-snapshot hits (got {})",
        s1.frozen_hits
    );

    // Deallocate + close; the session disappears from stats.
    assert!(matches!(
        service.dispatch(
            &mut ctx,
            Request::Deallocate {
                session: "s1".into(),
                name: "q".into()
            }
        ),
        Response::Deallocated { .. }
    ));
    assert!(matches!(
        service.dispatch(&mut ctx, Request::SessionClose { name: "s1".into() }),
        Response::SessionClosed {
            prepared_dropped: 0,
            ..
        }
    ));
    let Response::Stats(stats) = service.dispatch(&mut ctx, Request::Stats) else {
        panic!("expected stats");
    };
    assert!(stats.sessions.is_empty());
}

#[test]
fn prepared_statements_refreeze_after_table_mutations() {
    let service = service();
    let mut ctx = SessionCtx::new();
    service.dispatch(
        &mut ctx,
        Request::SessionOpen {
            name: "s".into(),
            estimators: vec!["naive".into()],
        },
    );
    service.dispatch(
        &mut ctx,
        Request::Prepare {
            session: "s".into(),
            name: "count".into(),
            sql: "SELECT COUNT(*) FROM companies".into(),
        },
    );
    let execute = Request::ExecutePrepared {
        session: "s".into(),
        name: "count".into(),
    };
    let Response::Query(before) = service.dispatch(&mut ctx, execute.clone()) else {
        panic!("expected query reply");
    };
    assert_eq!(before.single().unwrap().observed, 4.0);

    // Mutate the table through the admin verb; the frozen selection is now
    // stale and must be re-captured — with the *new* answer.
    let load = Request::LoadCsv(uu_server::protocol::LoadCsvRequest {
        table: "companies".into(),
        columns: Vec::new(),
        entity_column: "company".into(),
        source_column: "worker".into(),
        csv: "worker,company,employees,state\n7,F,50,CA\n".into(),
        append: true,
    });
    assert!(matches!(
        service.dispatch(&mut ctx, load),
        Response::Loaded { entities: 5, .. }
    ));
    let Response::Query(after) = service.dispatch(&mut ctx, execute) else {
        panic!("expected query reply");
    };
    assert_eq!(
        after.single().unwrap().observed,
        5.0,
        "a stale frozen selection must never answer for a mutated table"
    );
}

#[test]
fn session_error_paths_answer_structured_codes() {
    let service = service();
    let mut ctx = SessionCtx::new();
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "ghost".into(),
                name: "q".into(),
                sql: "SELECT COUNT(*) FROM companies".into(),
            },
        ),
        ErrorCode::UnknownSession,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::SessionClose {
                name: "ghost".into(),
            },
        ),
        ErrorCode::UnknownSession,
    );
    service.dispatch(
        &mut ctx,
        Request::SessionOpen {
            name: "s".into(),
            estimators: vec!["bucket".into()],
        },
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::SessionOpen {
                name: "s".into(),
                estimators: Vec::new(),
            },
        ),
        ErrorCode::DuplicateSession,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::SessionOpen {
                name: "t".into(),
                estimators: vec!["chao2000".into()],
            },
        ),
        ErrorCode::UnknownEstimator,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::ExecutePrepared {
                session: "s".into(),
                name: "nope".into(),
            },
        ),
        ErrorCode::UnknownPrepared,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s".into(),
                name: "bad".into(),
                sql: "SELEKT".into(),
            },
        ),
        ErrorCode::Parse,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s".into(),
                name: "bad".into(),
                sql: "SELECT COUNT(*) FROM missing".into(),
            },
        ),
        ErrorCode::UnknownTable,
    );
    service.dispatch(
        &mut ctx,
        Request::Prepare {
            session: "s".into(),
            name: "q".into(),
            sql: "SELECT COUNT(*) FROM companies".into(),
        },
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s".into(),
                name: "q".into(),
                sql: "SELECT COUNT(*) FROM companies".into(),
            },
        ),
        ErrorCode::DuplicatePrepared,
    );
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Deallocate {
                session: "s".into(),
                name: "nope".into(),
            },
        ),
        ErrorCode::UnknownPrepared,
    );
    // Every error above was counted, and dispatch stays usable.
    let Response::Stats(stats) = service.dispatch(&mut ctx, Request::Stats) else {
        panic!("expected stats");
    };
    assert!(stats.errors >= 8, "errors counted (got {})", stats.errors);
    assert!(matches!(
        service.dispatch(&mut ctx, Request::Ping),
        Response::Pong
    ));
}

/// Regression: a `Float(NaN)` group key must reach its own universe's
/// estimates on both paths — the uncached path once paired rows with
/// universes by derived `PartialEq` (NaN != NaN) and panicked.
#[test]
fn nan_group_keys_do_not_panic_the_uncached_path() {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("f", ColumnType::Float),
    ]);
    let mut table = IntegratedTable::new("t", schema, "k").unwrap();
    let csv = "worker,k,v,f\n0,a,1,NaN\n1,a,1,NaN\n0,b,2,5\n1,b,2,5\n";
    load_observations(&mut table, csv, "worker").unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    let service = Service::new(catalog, 0);
    let mut ctx = SessionCtx::new();
    for cached in [false, true] {
        let response = service.dispatch(
            &mut ctx,
            Request::Query(QueryRequest {
                sql: "SELECT SUM(v) FROM t GROUP BY f".into(),
                estimators: vec!["naive".into()],
                cached,
                trace: false,
            }),
        );
        let Response::Query(reply) = response else {
            panic!("expected query reply (cached={cached})");
        };
        assert_eq!(reply.groups.len(), 2, "cached={cached}");
        assert!(reply.groups.iter().all(|g| g.result.estimates.len() == 1));
    }
}

#[test]
fn session_and_prepared_registries_are_bounded() {
    let service = service();
    let mut ctx = SessionCtx::new();
    // Fill the session registry (empty estimator lists keep it cheap).
    for i in 0..uu_server::service::MAX_SESSIONS {
        let response = service.dispatch(
            &mut ctx,
            Request::SessionOpen {
                name: format!("s{i}"),
                estimators: Vec::new(),
            },
        );
        assert!(matches!(response, Response::SessionOpened { .. }), "{i}");
    }
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::SessionOpen {
                name: "one-too-many".into(),
                estimators: Vec::new(),
            },
        ),
        ErrorCode::ResourceLimit,
    );
    // Closing one frees a slot.
    service.dispatch(&mut ctx, Request::SessionClose { name: "s0".into() });
    assert!(matches!(
        service.dispatch(
            &mut ctx,
            Request::SessionOpen {
                name: "one-too-many".into(),
                estimators: Vec::new(),
            },
        ),
        Response::SessionOpened { .. }
    ));

    // Fill one session's prepared registry (same SQL: one cache entry, the
    // rest are thaws).
    for i in 0..uu_server::service::MAX_PREPARED_PER_SESSION {
        let response = service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s1".into(),
                name: format!("q{i}"),
                sql: "SELECT COUNT(*) FROM companies".into(),
            },
        );
        assert!(matches!(response, Response::Prepared { .. }), "{i}");
    }
    expect_error(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s1".into(),
                name: "one-too-many".into(),
                sql: "SELECT COUNT(*) FROM companies".into(),
            },
        ),
        ErrorCode::ResourceLimit,
    );
    // Deallocating frees a slot.
    service.dispatch(
        &mut ctx,
        Request::Deallocate {
            session: "s1".into(),
            name: "q0".into(),
        },
    );
    assert!(matches!(
        service.dispatch(
            &mut ctx,
            Request::Prepare {
                session: "s1".into(),
                name: "one-too-many".into(),
                sql: "SELECT COUNT(*) FROM companies".into(),
            },
        ),
        Response::Prepared { .. }
    ));
}

#[test]
fn sessions_are_shared_across_client_contexts() {
    let service = service();
    let mut analyst = SessionCtx::new();
    let mut reader = SessionCtx::new();
    service.dispatch(
        &mut analyst,
        Request::SessionOpen {
            name: "shared".into(),
            estimators: vec!["bucket".into()],
        },
    );
    service.dispatch(
        &mut analyst,
        Request::Prepare {
            session: "shared".into(),
            name: "q".into(),
            sql: "SELECT SUM(employees) FROM companies".into(),
        },
    );
    // A *different* connection context executes the statement: named
    // sessions are server-side state, not connection state.
    let response = service.dispatch(
        &mut reader,
        Request::ExecutePrepared {
            session: "shared".into(),
            name: "q".into(),
        },
    );
    let Response::Query(reply) = response else {
        panic!("expected query reply");
    };
    assert_eq!(reply.single().unwrap().observed, 13_300.0);
}
