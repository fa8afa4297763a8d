//! Golden wire bytes: one fixed instance of every `Request` and `Response`
//! variant, encoded and compared against literal lines.
//!
//! `protocol_roundtrip` only checks `decode ∘ encode`, so a renamed or
//! reordered key would still pass it. These literals pin the bytes clients
//! actually see: key names, key order (`Json::Obj` keeps insertion order),
//! the `null` spelling of absent optionals, the omitted-when-`None` keys and
//! the `"NaN"`/`"inf"`/`"-inf"` float markers. Each literal also decodes back
//! to its instance, and the minimal lines at the bottom pin every decode
//! default (a key that may be left out, and the value it then takes).

use uu_core::obs::{
    CacheMetrics, ConnStats, IncrementalStats, ProjectionStats, ServiceStats, StorageStats,
};
use uu_query::value::Value;
use uu_server::protocol::{
    ErrorCode, GroupReply, LoadCsvRequest, MetricsReply, QueryReply, QueryRequest, Request,
    Response, ServerInfoReply, StatsReply, WireCacheStats, WireConnStats, WireDiagnostics,
    WireError, WireEstimate, WireExtreme, WireResult, WireSessionStats, WireSpan, WireStageMetrics,
    WireValue,
};

fn s(text: &str) -> String {
    text.to_string()
}

fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Query(QueryRequest {
                sql: s("SELECT SUM(employees) FROM companies"),
                estimators: vec![s("bucket"), s("naive")],
                cached: false,
                trace: true,
            }),
            r#"{"op":"query","sql":"SELECT SUM(employees) FROM companies","estimators":["bucket","naive"],"cached":false,"trace":true}"#,
        ),
        (
            Request::LoadCsv(LoadCsvRequest {
                table: s("companies"),
                columns: vec![(s("company"), s("str")), (s("employees"), s("float"))],
                entity_column: s("company"),
                source_column: s("worker"),
                csv: s("worker,company,employees\n0,A,1000\n"),
                append: true,
            }),
            r#"{"op":"load_csv","table":"companies","columns":[["company","str"],["employees","float"]],"entity_column":"company","source_column":"worker","append":true,"csv":"worker,company,employees\n0,A,1000\n"}"#,
        ),
        (
            Request::AppendStream {
                table: s("companies"),
                source_column: s("worker"),
                csv: s("worker,company,employees\n5,F,\"7\"\n"),
            },
            r#"{"op":"append_stream","table":"companies","source_column":"worker","csv":"worker,company,employees\n5,F,\"7\"\n"}"#,
        ),
        (
            Request::Warm {
                sql: s("SELECT SUM(employees) FROM companies"),
            },
            r#"{"op":"warm","sql":"SELECT SUM(employees) FROM companies"}"#,
        ),
        (
            Request::SessionOpen {
                name: s("analyst-1"),
                estimators: vec![s("bucket"), s("monte-carlo")],
            },
            r#"{"op":"session_open","name":"analyst-1","estimators":["bucket","monte-carlo"]}"#,
        ),
        (
            Request::SessionClose {
                name: s("analyst-1"),
            },
            r#"{"op":"session_close","name":"analyst-1"}"#,
        ),
        (
            Request::Prepare {
                session: s("analyst-1"),
                name: s("q1"),
                sql: s("SELECT SUM(employees) FROM companies WHERE employees < 5000"),
            },
            r#"{"op":"prepare","session":"analyst-1","name":"q1","sql":"SELECT SUM(employees) FROM companies WHERE employees < 5000"}"#,
        ),
        (
            Request::ExecutePrepared {
                session: s("analyst-1"),
                name: s("q1"),
            },
            r#"{"op":"execute_prepared","session":"analyst-1","name":"q1"}"#,
        ),
        (
            Request::Deallocate {
                session: s("analyst-1"),
                name: s("q1"),
            },
            r#"{"op":"deallocate","session":"analyst-1","name":"q1"}"#,
        ),
        (Request::ServerInfo, r#"{"op":"server_info"}"#),
        (Request::Stats, r#"{"op":"stats"}"#),
        (Request::Metrics, r#"{"op":"metrics"}"#),
        (Request::Ping, r#"{"op":"ping"}"#),
        (Request::Checkpoint, r#"{"op":"checkpoint"}"#),
        (Request::Shutdown, r#"{"op":"shutdown"}"#),
    ]
}

/// Table 2's bucket-corrected answer with every optional field populated.
fn full_result() -> WireResult {
    WireResult {
        query: s("SELECT SUM(employees) FROM companies"),
        observed: 13_300.0,
        corrected: Some(13_950.000000000002),
        method: s("bucket"),
        n_hat: Some(5.5),
        upper_bound: Some(f64::INFINITY),
        extreme: Some(WireExtreme {
            trusted: false,
            observed: 300.0,
            estimated_missing: Some(0.75),
        }),
        diagnostics: WireDiagnostics {
            coverage: Some(0.8),
            contributing_sources: 5,
            max_source_share: Some(1.0 / 3.0),
            source_gini: Some(-0.0),
        },
        recommendation: s("bucket"),
        estimates: vec![
            WireEstimate {
                name: s("naive"),
                delta: Some(1_662.5),
                n_hat: Some(4.5),
                corrected: Some(14_962.5),
            },
            WireEstimate {
                name: s("freq"),
                delta: Some(f64::NEG_INFINITY),
                n_hat: None,
                corrected: None,
            },
        ],
    }
}

/// An answer with every optional field absent and a NaN observation.
fn empty_result() -> WireResult {
    WireResult {
        query: s("SELECT AVG(employees) FROM companies WHERE employees > 99999"),
        observed: f64::NAN,
        corrected: None,
        method: s("none"),
        n_hat: None,
        upper_bound: None,
        extreme: None,
        diagnostics: WireDiagnostics {
            coverage: None,
            contributing_sources: 0,
            max_source_share: None,
            source_gini: None,
        },
        recommendation: s("collect-more-data"),
        estimates: Vec::new(),
    }
}

fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Query(QueryReply {
                sql: s("SELECT SUM(employees) FROM companies"),
                cache_hit: true,
                elapsed_us: 123,
                grouped: false,
                groups: vec![GroupReply {
                    key: WireValue(Value::Null),
                    result: full_result(),
                }],
                trace: Some(vec![
                    WireSpan {
                        stage: s("request"),
                        label: None,
                        parent: None,
                        start_ns: 0,
                        dur_ns: 870_000,
                    },
                    WireSpan {
                        stage: s("estimator_fanout"),
                        label: Some(s("bucket")),
                        parent: Some(0),
                        start_ns: 12_500,
                        dur_ns: 700_000,
                    },
                ]),
            }),
            r#"{"ok":true,"op":"query","sql":"SELECT SUM(employees) FROM companies","cache_hit":true,"elapsed_us":123,"grouped":false,"groups":[{"key":null,"result":{"query":"SELECT SUM(employees) FROM companies","observed":13300,"corrected":13950.000000000002,"method":"bucket","n_hat":5.5,"upper_bound":"inf","extreme":{"trusted":false,"observed":300,"estimated_missing":0.75},"diagnostics":{"coverage":0.8,"contributing_sources":5,"max_source_share":0.3333333333333333,"source_gini":-0},"recommendation":"bucket","estimates":[{"name":"naive","delta":1662.5,"n_hat":4.5,"corrected":14962.5},{"name":"freq","delta":"-inf","n_hat":null,"corrected":null}]}}],"trace":[{"stage":"request","parent":null,"start_ns":0,"dur_ns":870000},{"stage":"estimator_fanout","label":"bucket","parent":0,"start_ns":12500,"dur_ns":700000}]}"#,
        ),
        (
            Response::Query(QueryReply {
                sql: s("SELECT SUM(employees) FROM companies GROUP BY state"),
                cache_hit: false,
                elapsed_us: 0,
                grouped: true,
                groups: vec![
                    GroupReply {
                        key: WireValue(Value::Str(s("CA"))),
                        result: empty_result(),
                    },
                    GroupReply {
                        key: WireValue(Value::Int(-3)),
                        result: empty_result(),
                    },
                    GroupReply {
                        key: WireValue(Value::Float(2.5)),
                        result: empty_result(),
                    },
                ],
                trace: None,
            }),
            r#"{"ok":true,"op":"query","sql":"SELECT SUM(employees) FROM companies GROUP BY state","cache_hit":false,"elapsed_us":0,"grouped":true,"groups":[{"key":{"t":"str","v":"CA"},"result":{"query":"SELECT AVG(employees) FROM companies WHERE employees > 99999","observed":"NaN","corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}},{"key":{"t":"int","v":-3},"result":{"query":"SELECT AVG(employees) FROM companies WHERE employees > 99999","observed":"NaN","corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}},{"key":{"t":"float","v":2.5},"result":{"query":"SELECT AVG(employees) FROM companies WHERE employees > 99999","observed":"NaN","corrected":null,"method":"none","n_hat":null,"upper_bound":null,"extreme":null,"diagnostics":{"coverage":null,"contributing_sources":0,"max_source_share":null,"source_gini":null},"recommendation":"collect-more-data","estimates":[]}}]}"#,
        ),
        (
            Response::Loaded {
                table: s("companies"),
                observations: 9,
                entities: 4,
            },
            r#"{"ok":true,"op":"load_csv","table":"companies","observations":9,"entities":4}"#,
        ),
        (
            Response::Appended {
                table: s("companies"),
                observations: 80,
                entities: 54,
                refrozen: 3,
                incremental: true,
            },
            r#"{"ok":true,"op":"append_stream","table":"companies","observations":80,"entities":54,"refrozen":3,"incremental":true}"#,
        ),
        (
            Response::Warmed {
                sql: s("SELECT SUM(employees) FROM companies"),
                universes: 4,
                already_cached: true,
            },
            r#"{"ok":true,"op":"warm","sql":"SELECT SUM(employees) FROM companies","universes":4,"already_cached":true}"#,
        ),
        (
            Response::SessionOpened {
                name: s("analyst-1"),
                estimators: vec![s("bucket"), s("naive")],
            },
            r#"{"ok":true,"op":"session_open","name":"analyst-1","estimators":["bucket","naive"]}"#,
        ),
        (
            Response::SessionClosed {
                name: s("analyst-1"),
                prepared_dropped: 2,
            },
            r#"{"ok":true,"op":"session_close","name":"analyst-1","prepared_dropped":2}"#,
        ),
        (
            Response::Prepared {
                session: s("analyst-1"),
                name: s("q1"),
                sql: s("SELECT SUM(employees) FROM companies"),
                universes: 1,
                already_cached: false,
            },
            r#"{"ok":true,"op":"prepare","session":"analyst-1","name":"q1","sql":"SELECT SUM(employees) FROM companies","universes":1,"already_cached":false}"#,
        ),
        (
            Response::Deallocated {
                session: s("analyst-1"),
                name: s("q1"),
            },
            r#"{"ok":true,"op":"deallocate","session":"analyst-1","name":"q1"}"#,
        ),
        (
            Response::Info(ServerInfoReply {
                version: s("0.1.0"),
                protocol: 7,
                uptime_ms: 90_000,
                active_sessions: 3,
                fronts: vec![s("json"), s("pgwire")],
                workers: 4,
                data_dir: Some(s("/var/lib/uu")),
                durability: s("batch"),
                last_checkpoint_age_ms: Some(1_234.5),
            }),
            r#"{"ok":true,"op":"server_info","version":"0.1.0","protocol":7,"uptime_ms":90000,"active_sessions":3,"fronts":["json","pgwire"],"workers":4,"data_dir":"/var/lib/uu","durability":"batch","last_checkpoint_age_ms":1234.5}"#,
        ),
        (
            Response::Info(ServerInfoReply {
                version: s("0.1.0"),
                protocol: 7,
                uptime_ms: 12,
                active_sessions: 0,
                fronts: vec![s("json")],
                workers: 2,
                data_dir: None,
                durability: s("off"),
                last_checkpoint_age_ms: None,
            }),
            r#"{"ok":true,"op":"server_info","version":"0.1.0","protocol":7,"uptime_ms":12,"active_sessions":0,"fronts":["json"],"workers":2,"data_dir":null,"durability":"off","last_checkpoint_age_ms":null}"#,
        ),
        (
            Response::Stats(Box::new(StatsReply {
                protocol: 8,
                tables: vec![s("companies"), s("t")],
                workers: 4,
                service: ServiceStats {
                    connections: 10,
                    requests: 25,
                    errors: 2,
                },
                uptime_ms: 1234,
                sessions: vec![WireSessionStats {
                    name: s("analyst-1"),
                    estimators: vec![s("bucket")],
                    prepared: 2,
                    executes: 40,
                    frozen_hits: 38,
                    age_ms: 600,
                }],
                cache: WireCacheStats {
                    counters: CacheMetrics {
                        hits: 7,
                        misses: 3,
                        insertions: 3,
                        evictions: 1,
                        invalidations: 11,
                        expirations: 12,
                        len: 2,
                        bytes: 4096,
                    },
                    capacity: 128,
                    byte_budget: Some(1e6),
                    ttl_ms: None,
                },
                projection: ProjectionStats {
                    builds: 3,
                    reuses: 17,
                    bytes: 65_536,
                },
                conn: WireConnStats {
                    counters: ConnStats {
                        open: 1003,
                        peak_open: 1005,
                        frames_in: 90,
                        frames_out: 92,
                        bytes_in: 16_384,
                        bytes_out: 65_000,
                        idle_reaped: 4,
                        backpressure: 1,
                        queue_depth_peak: 17,
                        queue_wait_us_total: 4_200,
                        queue_wait_us_max: 950,
                    },
                    backend: s("epoll"),
                },
                incremental: IncrementalStats {
                    delta_batches: 6,
                    rows_appended: 600,
                    permutation_merges: 13,
                    snapshots_refrozen: 5,
                    fallback_rebuilds: 1,
                },
                storage: StorageStats {
                    wal_records: 8,
                    wal_bytes: 12_288,
                    fsyncs: 9,
                    checkpoints: 2,
                    recovered_tables: 14,
                    replayed_records: 15,
                    truncated_tail_bytes: 16,
                },
            })),
            r#"{"ok":true,"op":"stats","protocol":8,"tables":["companies","t"],"workers":4,"connections":10,"requests":25,"errors":2,"uptime_ms":1234,"sessions":[{"name":"analyst-1","estimators":["bucket"],"prepared":2,"executes":40,"frozen_hits":38,"age_ms":600}],"cache":{"hits":7,"misses":3,"insertions":3,"evictions":1,"invalidations":11,"expirations":12,"len":2,"bytes":4096,"capacity":128,"byte_budget":1000000,"ttl_ms":null},"projection":{"builds":3,"reuses":17,"bytes":65536},"conn":{"open":1003,"peak_open":1005,"frames_in":90,"frames_out":92,"bytes_in":16384,"bytes_out":65000,"idle_reaped":4,"backpressure":1,"queue_depth_peak":17,"queue_wait_us_total":4200,"queue_wait_us_max":950,"backend":"epoll"},"incremental":{"delta_batches":6,"rows_appended":600,"permutation_merges":13,"snapshots_refrozen":5,"fallback_rebuilds":1},"storage":{"wal_records":8,"wal_bytes":12288,"fsyncs":9,"checkpoints":2,"recovered_tables":14,"replayed_records":15,"truncated_tail_bytes":16}}"#,
        ),
        (
            Response::Metrics(MetricsReply {
                entries: vec![WireStageMetrics {
                    verb: s("query"),
                    stage: s("request"),
                    count: 41,
                    p50_us: 420.5,
                    p90_us: 1_000.0,
                    p99_us: 2_830.0,
                    max_us: 2_831.25,
                    mean_us: 600.125,
                }],
            }),
            r#"{"ok":true,"op":"metrics","entries":[{"verb":"query","stage":"request","count":41,"p50_us":420.5,"p90_us":1000,"p99_us":2830,"max_us":2831.25,"mean_us":600.125}]}"#,
        ),
        (Response::Pong, r#"{"ok":true,"op":"ping"}"#),
        (
            Response::Checkpointed {
                tables: 2,
                bytes: 40_960,
            },
            r#"{"ok":true,"op":"checkpoint","tables":2,"bytes":40960}"#,
        ),
        (Response::Bye, r#"{"ok":true,"op":"shutdown"}"#),
        (
            Response::Error(WireError {
                code: ErrorCode::UnknownEstimator,
                message: s("unknown estimator \"chao2000\""),
                accepted: vec![s("naive"), s("bucket")],
            }),
            r#"{"ok":false,"error":{"code":"unknown_estimator","message":"unknown estimator \"chao2000\"","accepted":["naive","bucket"]}}"#,
        ),
        (
            Response::Error(WireError::new(ErrorCode::MalformedRequest, "bad line")),
            r#"{"ok":false,"error":{"code":"malformed_request","message":"bad line","accepted":[]}}"#,
        ),
    ]
}

/// Every request encodes to its golden line and decodes back to itself.
#[test]
fn requests_encode_to_the_golden_lines() {
    for (request, line) in golden_requests() {
        assert_eq!(request.encode(), line);
        assert_eq!(Request::decode(line).unwrap(), request, "{line}");
    }
}

/// Every response encodes to its golden line and decodes back to itself.
/// NaN-bearing instances are not `==` to themselves, so those are pinned by
/// re-encoding the decoded value instead.
#[test]
fn responses_encode_to_the_golden_lines() {
    for (response, line) in golden_responses() {
        assert_eq!(response.encode(), line);
        let decoded = Response::decode(line).unwrap();
        assert_eq!(decoded.encode(), line);
        if !line.contains("\"NaN\"") {
            assert_eq!(decoded, response, "{line}");
        }
    }
}

/// Keys a client may leave out of a request, and the values they take.
#[test]
fn minimal_request_lines_decode_to_the_defaults() {
    let query = |estimators: Vec<String>, cached: bool| {
        Request::Query(QueryRequest {
            sql: s("S"),
            estimators,
            cached,
            trace: false,
        })
    };
    for (line, expected) in [
        (r#"{"op":"query","sql":"S"}"#, query(Vec::new(), true)),
        (
            r#"{"op":"query","sql":"S","estimators":null,"cached":null,"trace":null}"#,
            query(Vec::new(), true),
        ),
        (
            r#"{"trace":false,"cached":false,"sql":"S","op":"query"}"#,
            query(Vec::new(), false),
        ),
        (
            r#"{"op":"query","sql":"S","estimators":["freq"],"extra":1}"#,
            query(vec![s("freq")], true),
        ),
        (
            r#"{"op":"load_csv","table":"t","columns":[["k","str"]],"entity_column":"k","source_column":"w","csv":"c"}"#,
            Request::LoadCsv(LoadCsvRequest {
                table: s("t"),
                columns: vec![(s("k"), s("str"))],
                entity_column: s("k"),
                source_column: s("w"),
                csv: s("c"),
                append: false,
            }),
        ),
        (
            r#"{"op":"session_open","name":"a"}"#,
            Request::SessionOpen {
                name: s("a"),
                estimators: Vec::new(),
            },
        ),
        (
            r#"{"op":"session_open","name":"a","estimators":null}"#,
            Request::SessionOpen {
                name: s("a"),
                estimators: Vec::new(),
            },
        ),
    ] {
        assert_eq!(Request::decode(line).unwrap(), expected, "{line}");
    }
}

/// Keys a server may leave out of a response, and the values they take.
#[test]
fn minimal_response_lines_decode_to_the_defaults() {
    let result = r#"{"query":"q","observed":1,"method":"none","diagnostics":{"contributing_sources":0},"recommendation":"bucket","estimates":[{"name":"naive"}]}"#;
    let query_line = format!(
        r#"{{"ok":true,"op":"query","sql":"S","elapsed_us":1,"groups":[{{"key":null,"result":{result}}}]}}"#
    );
    let expected_result = WireResult {
        query: s("q"),
        observed: 1.0,
        corrected: None,
        method: s("none"),
        n_hat: None,
        upper_bound: None,
        extreme: None,
        diagnostics: WireDiagnostics {
            coverage: None,
            contributing_sources: 0,
            max_source_share: None,
            source_gini: None,
        },
        recommendation: s("bucket"),
        estimates: vec![WireEstimate {
            name: s("naive"),
            delta: None,
            n_hat: None,
            corrected: None,
        }],
    };
    let cases = [
        (
            query_line,
            Response::Query(QueryReply {
                sql: s("S"),
                cache_hit: false,
                elapsed_us: 1,
                grouped: false,
                groups: vec![GroupReply {
                    key: WireValue(Value::Null),
                    result: expected_result,
                }],
                trace: None,
            }),
        ),
        (
            s(
                r#"{"ok":true,"op":"query","sql":"S","cache_hit":null,"elapsed_us":1,"grouped":null,"groups":[],"trace":[{"stage":"request","start_ns":1,"dur_ns":2}]}"#,
            ),
            Response::Query(QueryReply {
                sql: s("S"),
                cache_hit: false,
                elapsed_us: 1,
                grouped: false,
                groups: Vec::new(),
                trace: Some(vec![WireSpan {
                    stage: s("request"),
                    label: None,
                    parent: None,
                    start_ns: 1,
                    dur_ns: 2,
                }]),
            }),
        ),
        (
            s(r#"{"ok":true,"op":"warm","sql":"S","universes":1}"#),
            Response::Warmed {
                sql: s("S"),
                universes: 1,
                already_cached: false,
            },
        ),
        (
            s(r#"{"ok":true,"op":"prepare","session":"a","name":"q","sql":"S","universes":2}"#),
            Response::Prepared {
                session: s("a"),
                name: s("q"),
                sql: s("S"),
                universes: 2,
                already_cached: false,
            },
        ),
        (
            s(
                r#"{"ok":true,"op":"server_info","version":"v","protocol":7,"uptime_ms":0,"active_sessions":0,"fronts":[],"workers":1,"durability":"off"}"#,
            ),
            Response::Info(ServerInfoReply {
                version: s("v"),
                protocol: 7,
                uptime_ms: 0,
                active_sessions: 0,
                fronts: Vec::new(),
                workers: 1,
                data_dir: None,
                durability: s("off"),
                last_checkpoint_age_ms: None,
            }),
        ),
        (
            s(r#"{"ok":false,"error":{"code":"parse","message":"m"}}"#),
            Response::Error(WireError::new(ErrorCode::Parse, "m")),
        ),
        (
            s(r#"{"ok":false,"error":{"code":"parse","message":"m","accepted":null}}"#),
            Response::Error(WireError::new(ErrorCode::Parse, "m")),
        ),
    ];
    for (line, expected) in cases {
        assert_eq!(Response::decode(&line).unwrap(), expected, "{line}");
    }
}

/// Keys that carry no default: leaving any one out is a decode error.
#[test]
fn required_keys_have_no_default() {
    for bad in [
        r#"{"op":"query"}"#,
        r#"{"op":"load_csv","table":"t","entity_column":"k","source_column":"w","csv":"c"}"#,
        r#"{"op":"append_stream","table":"t","source_column":"w"}"#,
        r#"{"op":"prepare","session":"a","name":"q"}"#,
        r#"{"op":"query","sql":"S","cached":1}"#,
    ] {
        assert!(Request::decode(bad).is_err(), "{bad}");
    }
    for bad in [
        r#"{"ok":true,"op":"query","sql":"S","groups":[]}"#,
        r#"{"ok":true,"op":"append_stream","table":"t","observations":1,"entities":1,"refrozen":0}"#,
        r#"{"ok":true,"op":"session_open","name":"a"}"#,
        r#"{"ok":true,"op":"warm","sql":"S"}"#,
        r#"{"ok":true,"op":"metrics"}"#,
        r#"{"ok":false,"error":{"code":"parse"}}"#,
        r#"{"ok":false,"error":{"code":"no_such_code","message":"m"}}"#,
        r#"{"ok":true,"op":"query","sql":"S","elapsed_us":1,"groups":[{"key":{"t":"int"},"result":null}]}"#,
    ] {
        assert!(Response::decode(bad).is_err(), "{bad}");
    }
}
