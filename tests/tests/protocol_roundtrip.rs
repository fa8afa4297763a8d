//! Property tests for the wire protocol: every `Request` / `Response`
//! variant — including the session/prepared verbs and NaN/±inf estimate
//! payloads — must survive `encode` → `decode` exactly.
//!
//! Structural equality (`==`) pins finite payloads; NaN-bearing payloads are
//! pinned through a second encode (`encode(decode(encode(x))) == encode(x)`),
//! which is exactly the bit-for-bit canonical-text guarantee the parity
//! tests rely on.

use proptest::prelude::*;
use uu_core::obs::{
    CacheMetrics, ConnStats, IncrementalStats, ProjectionStats, ServiceStats, StorageStats,
};
use uu_query::value::Value;
use uu_server::protocol::{
    ErrorCode, GroupReply, LoadCsvRequest, MetricsReply, QueryReply, QueryRequest, Request,
    Response, ServerInfoReply, StatsReply, WireCacheStats, WireConnStats, WireDiagnostics,
    WireError, WireEstimate, WireExtreme, WireResult, WireSessionStats, WireSpan, WireStageMetrics,
    WireValue, PROTOCOL_VERSION,
};

/// An interesting `f64` from two generated numbers: finite values of many
/// magnitudes plus the non-finite and signed-zero corners.
fn float_from(selector: u64, mantissa: f64) -> f64 {
    match selector % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => mantissa,
        5 => -mantissa * 1e300,
        6 => mantissa * f64::MIN_POSITIVE,
        _ => 1.0 / mantissa.abs().max(1e-12),
    }
}

fn opt_float(selector: u64, mantissa: f64) -> Option<f64> {
    if selector % 9 == 8 {
        None
    } else {
        Some(float_from(selector, mantissa))
    }
}

fn value_from(selector: u64, text: &str, number: f64) -> Value {
    match selector % 4 {
        0 => Value::Null,
        1 => Value::Int(selector as i64 - 500),
        2 => Value::Float(number),
        _ => Value::Str(text.to_string()),
    }
}

fn request_from(selector: u64, text: &str, text2: &str, flag: bool) -> Request {
    match selector % 12 {
        0 => Request::Query(QueryRequest {
            sql: text.to_string(),
            estimators: vec![text2.to_string()],
            cached: flag,
            trace: selector % 3 == 0,
        }),
        1 => Request::LoadCsv(LoadCsvRequest {
            table: text.to_string(),
            columns: vec![(text2.to_string(), "float".to_string())],
            entity_column: text2.to_string(),
            source_column: "worker".to_string(),
            csv: format!("worker,{text2}\n0,{text}\n"),
            append: flag,
        }),
        2 => Request::Warm {
            sql: text.to_string(),
        },
        3 => Request::SessionOpen {
            name: text.to_string(),
            estimators: if flag {
                vec![text2.to_string(), "bucket".to_string()]
            } else {
                Vec::new()
            },
        },
        4 => Request::SessionClose {
            name: text.to_string(),
        },
        5 => Request::Prepare {
            session: text.to_string(),
            name: text2.to_string(),
            sql: format!("SELECT SUM(v) FROM {text}"),
        },
        6 => Request::ExecutePrepared {
            session: text.to_string(),
            name: text2.to_string(),
        },
        7 => Request::Deallocate {
            session: text.to_string(),
            name: text2.to_string(),
        },
        8 => Request::ServerInfo,
        9 => Request::AppendStream {
            table: text.to_string(),
            source_column: text2.to_string(),
            csv: format!("{text2},k,v\n0,{text},1\n"),
        },
        10 => Request::Checkpoint,
        _ => [
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ][selector as usize % 4]
            .clone(),
    }
}

fn wire_result(sel: &[u64], text: &str, numbers: &[f64]) -> WireResult {
    WireResult {
        query: text.to_string(),
        observed: float_from(sel[0], numbers[0]),
        corrected: opt_float(sel[1], numbers[1]),
        method: "bucket".to_string(),
        n_hat: opt_float(sel[2], numbers[2]),
        upper_bound: opt_float(sel[3], numbers[0] + numbers[1]),
        extreme: if sel[4] % 3 == 0 {
            Some(WireExtreme {
                trusted: sel[4] % 2 == 0,
                observed: float_from(sel[5], numbers[2]),
                estimated_missing: opt_float(sel[6], numbers[0]),
            })
        } else {
            None
        },
        diagnostics: WireDiagnostics {
            coverage: opt_float(sel[5], numbers[1]),
            contributing_sources: sel[6],
            max_source_share: opt_float(sel[7], numbers[2]),
            source_gini: opt_float(sel[0].wrapping_add(4), numbers[0]),
        },
        recommendation: "collect-more-data".to_string(),
        estimates: vec![WireEstimate {
            name: "naive".to_string(),
            delta: opt_float(sel[1].wrapping_add(1), numbers[1]),
            n_hat: opt_float(sel[2].wrapping_add(2), numbers[2]),
            corrected: opt_float(sel[3].wrapping_add(3), numbers[0]),
        }],
    }
}

/// A generated span tree: `None`, an empty tree, or a two-span parent/child
/// chain with an optional label.
fn trace_from(selector: u64, text: &str, sel: &[u64]) -> Option<Vec<WireSpan>> {
    match selector % 3 {
        0 => None,
        1 => Some(Vec::new()),
        _ => Some(vec![
            WireSpan {
                stage: "request".to_string(),
                label: None,
                parent: None,
                start_ns: sel[0],
                dur_ns: sel[1],
            },
            WireSpan {
                stage: "estimator_fanout".to_string(),
                label: if sel[2] % 2 == 0 {
                    Some(text.to_string())
                } else {
                    None
                },
                parent: Some(0),
                start_ns: sel[0].wrapping_add(sel[3]),
                dur_ns: sel[4],
            },
        ]),
    }
}

fn response_from(selector: u64, sel: &[u64], text: &str, numbers: &[f64], flag: bool) -> Response {
    match selector % 13 {
        0 => Response::Query(QueryReply {
            sql: text.to_string(),
            cache_hit: flag,
            elapsed_us: sel[0],
            grouped: flag,
            groups: vec![GroupReply {
                key: WireValue(value_from(sel[1], text, numbers[0])),
                result: wire_result(sel, text, numbers),
            }],
            trace: trace_from(sel[2], text, sel),
        }),
        1 => Response::Loaded {
            table: text.to_string(),
            observations: sel[0],
            entities: sel[1],
        },
        2 => Response::Warmed {
            sql: text.to_string(),
            universes: sel[0],
            already_cached: flag,
        },
        3 => Response::SessionOpened {
            name: text.to_string(),
            estimators: vec!["bucket".to_string()],
        },
        4 => Response::SessionClosed {
            name: text.to_string(),
            prepared_dropped: sel[0],
        },
        5 => Response::Prepared {
            session: text.to_string(),
            name: "q".to_string(),
            sql: format!("SELECT SUM(v) FROM {text}"),
            universes: sel[0],
            already_cached: flag,
        },
        6 => Response::Deallocated {
            session: text.to_string(),
            name: "q".to_string(),
        },
        7 => Response::Info(ServerInfoReply {
            version: "0.1.0".to_string(),
            protocol: PROTOCOL_VERSION,
            uptime_ms: sel[0],
            active_sessions: sel[1],
            fronts: if flag {
                vec!["json".to_string(), "pgwire".to_string()]
            } else {
                Vec::new()
            },
            workers: sel[2],
            data_dir: if flag {
                Some(format!("/var/lib/uu/{text}"))
            } else {
                None
            },
            durability: if flag { "batch" } else { "off" }.to_string(),
            last_checkpoint_age_ms: opt_float(sel[3], numbers[0].abs()),
        }),
        8 => Response::Stats(Box::new(StatsReply {
            protocol: PROTOCOL_VERSION,
            tables: vec![text.to_string()],
            workers: sel[0],
            service: ServiceStats {
                connections: sel[1],
                requests: sel[2],
                errors: sel[3],
            },
            uptime_ms: sel[4],
            sessions: vec![WireSessionStats {
                name: text.to_string(),
                estimators: vec!["bucket".to_string()],
                prepared: sel[5],
                executes: sel[6],
                frozen_hits: sel[7],
                age_ms: sel[0],
            }],
            cache: WireCacheStats {
                counters: CacheMetrics {
                    hits: sel[1],
                    misses: sel[2],
                    insertions: sel[3],
                    evictions: sel[4],
                    invalidations: sel[5],
                    expirations: sel[6],
                    len: sel[7],
                    bytes: sel[0],
                },
                capacity: sel[1],
                byte_budget: opt_float(sel[2], numbers[0].abs()),
                ttl_ms: opt_float(sel[3], numbers[1].abs()),
            },
            projection: ProjectionStats {
                builds: sel[2],
                reuses: sel[3],
                bytes: sel[4],
            },
            conn: WireConnStats {
                counters: ConnStats {
                    open: sel[5],
                    peak_open: sel[6],
                    frames_in: sel[7],
                    frames_out: sel[0],
                    bytes_in: sel[1],
                    bytes_out: sel[2],
                    idle_reaped: sel[3],
                    backpressure: sel[4],
                    queue_depth_peak: sel[5],
                    queue_wait_us_total: sel[6],
                    queue_wait_us_max: sel[7],
                },
                backend: if sel[5] % 2 == 0 {
                    "epoll".to_string()
                } else {
                    "poll".to_string()
                },
            },
            incremental: IncrementalStats {
                delta_batches: sel[6],
                rows_appended: sel[7],
                permutation_merges: sel[0],
                snapshots_refrozen: sel[1],
                fallback_rebuilds: sel[2],
            },
            storage: StorageStats {
                wal_records: sel[3],
                wal_bytes: sel[4],
                fsyncs: sel[5],
                checkpoints: sel[6],
                recovered_tables: sel[7],
                replayed_records: sel[0],
                truncated_tail_bytes: sel[1],
            },
        })),
        9 => Response::Appended {
            table: text.to_string(),
            observations: sel[0],
            entities: sel[1],
            refrozen: sel[2],
            incremental: flag,
        },
        11 => Response::Checkpointed {
            tables: sel[0],
            bytes: sel[1],
        },
        10 => Response::Metrics(MetricsReply {
            entries: if flag {
                vec![WireStageMetrics {
                    verb: "query".to_string(),
                    stage: "request".to_string(),
                    count: sel[0],
                    p50_us: numbers[0],
                    p90_us: numbers[1],
                    p99_us: numbers[2],
                    max_us: numbers[2] * 2.0,
                    mean_us: numbers[0] / 3.0,
                }]
            } else {
                Vec::new()
            },
        }),
        _ => match selector % 4 {
            0 => Response::Pong,
            1 => Response::Bye,
            2 => Response::Error(WireError::new(
                ErrorCode::all()[sel[0] as usize % ErrorCode::all().len()],
                text.to_string(),
            )),
            _ => Response::Error(WireError {
                code: ErrorCode::UnknownEstimator,
                message: text.to_string(),
                accepted: vec!["naive".to_string(), "bucket".to_string()],
            }),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Every request variant survives encode → decode structurally.
    #[test]
    fn requests_round_trip(
        selector in 0u64..1_000_000,
        text in "[ -~]{0,24}",
        text2 in "[a-z][a-z0-9_-]{0,10}",
        flag in proptest::bool::ANY,
    ) {
        let request = request_from(selector, &text, &text2, flag);
        let line = request.encode();
        prop_assert!(!line.contains('\n'), "one request per line: {line}");
        let decoded = Request::decode(&line);
        prop_assert!(decoded.is_ok(), "{line}: {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), request, "{}", line);
    }

    /// Every response variant — NaN/±inf payloads included — survives
    /// encode → decode: the canonical line is a fixed point, and NaN-free
    /// payloads additionally compare structurally equal.
    #[test]
    fn responses_round_trip(
        selector in 0u64..1_000_000,
        sel in proptest::collection::vec(0u64..1_000_000, 8),
        text in "[ -~]{0,24}",
        numbers in proptest::collection::vec(0.000001f64..1e9, 3),
        flag in proptest::bool::ANY,
    ) {
        let response = response_from(selector, &sel, &text, &numbers, flag);
        let line = response.encode();
        prop_assert!(!line.contains('\n'), "one response per line: {line}");
        let decoded = Response::decode(&line);
        prop_assert!(decoded.is_ok(), "{line}: {decoded:?}");
        let decoded = decoded.unwrap();
        // The canonical rendering is a fixed point (pins NaN payloads, which
        // are structurally un-comparable with ==).
        prop_assert_eq!(decoded.encode(), line.clone());
        if !line.contains("\"NaN\"") {
            prop_assert_eq!(decoded, response, "{}", line);
        }
    }
}
