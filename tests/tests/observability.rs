//! Integration tests for the observability subsystem (PR 9): traced query
//! round-trips, the `metrics` verb, the Prometheus scraper front, the
//! slow-query log, the reactor queue counters, and a property test pinning
//! histogram shard merging against a single-shard oracle.
//!
//! The stage histograms are process-global (per-thread shards in one
//! registry), so assertions here are monotone — "at least N samples",
//! "contains this series" — never exact global counts, which sibling tests
//! in the same process would perturb.

use std::io::{Read as _, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use uu_core::obs;
use uu_core::obs::{Shard, Stage, Verb};
use uu_query::catalog::Catalog;
use uu_query::csv::load_observations;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_server::client::Client;
use uu_server::protocol::{LoadCsvRequest, QueryRequest, Request, Response, WireSpan};
use uu_server::server::{spawn, ServerConfig};
use uu_server::{Service, SessionCtx};

const SQL: &str = "SELECT SUM(employees) FROM companies";

/// A synthetic observation log large enough that the instrumented stages
/// (freeze, kernels, estimator fan-out) dominate the service time — the
/// span-coverage assertion below needs real work, not just dispatch glue.
fn big_csv() -> String {
    let mut csv = String::from("worker,company,employees,state\n");
    for i in 0..3000u32 {
        let company = i % 600;
        let worker = i % 7;
        let employees = 100 + (i * 37) % 9000;
        let state = if company % 2 == 0 { "CA" } else { "WA" };
        csv.push_str(&format!("{worker},c{company},{employees},{state}\n"));
    }
    csv
}

fn load_big(client: &mut Client) {
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
            csv: big_csv(),
            append: false,
        }))
        .unwrap();
    assert!(
        matches!(response, Response::Loaded { .. }),
        "{}",
        response.encode()
    );
}

/// Stage names present in a span tree.
fn stages(spans: &[WireSpan]) -> Vec<&str> {
    spans.iter().map(|s| s.stage.as_str()).collect()
}

/// The share of a reply's service time (`elapsed_us`) covered by the direct
/// children of its `request` umbrella span.
fn child_coverage(spans: &[WireSpan], elapsed_us: u64) -> f64 {
    let request_idx = spans
        .iter()
        .position(|s| s.stage == "request")
        .expect("request umbrella span");
    let child_sum_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(request_idx as u64))
        .map(|s| s.dur_ns)
        .sum();
    child_sum_ns as f64 / (elapsed_us * 1_000) as f64
}

/// The `"trace": true` option returns the server-side span tree, and its
/// direct children of the `request` umbrella span account for at least 90%
/// of the reported service time (best of up to five cold queries) — the
/// acceptance bar for the span taxonomy actually tiling the query path.
#[test]
fn traced_cold_query_returns_a_span_tree_covering_the_service_time() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_big(&mut client);

    let cold = client
        .query_traced(SQL, &["bucket", "naive"], true)
        .unwrap();
    assert!(!cold.cache_hit, "first traced query must be cold");
    let spans = cold.trace.as_deref().expect("traced reply carries spans");
    let names = stages(spans);
    for required in [
        "request",
        "parse",
        "cache_probe",
        "bucket_partition",
        "estimator_fanout",
        "serialize",
    ] {
        assert!(
            names.contains(&required),
            "cold trace misses stage {required:?}: {names:?}"
        );
    }
    // Every stage name on the wire is a registered taxonomy name.
    for span in spans {
        assert!(
            Stage::parse_name(&span.stage).is_some(),
            "unknown stage {:?} on the wire",
            span.stage
        );
    }
    // Parent links point backwards (spans arrive in start order).
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            assert!((parent as usize) < i, "span {i} has forward parent link");
        }
    }

    // A preemption between two child spans leaves a gap no stage owns, so
    // one run can fall short under CPU load; a stage without a span falls
    // short on every run. Take the best of a few fresh cold queries (each
    // predicate is a new selection, so each is a miss over the same rows).
    let mut best = child_coverage(spans, cold.elapsed_us);
    for k in 1..=4 {
        if best >= 0.90 {
            break;
        }
        let sql = format!("{SQL} WHERE employees > {k}");
        let again = client
            .query_traced(&sql, &["bucket", "naive"], true)
            .unwrap();
        assert!(!again.cache_hit, "each repeat must be cold");
        let spans = again.trace.as_deref().expect("traced reply carries spans");
        best = best.max(child_coverage(spans, again.elapsed_us));
    }
    assert!(
        best >= 0.90,
        "span tree accounts for at best {:.1}% of the service time (<90%)",
        best * 100.0
    );

    // The hot path traces too, and an untraced query stays trace-free.
    let hot = client
        .query_traced(SQL, &["bucket", "naive"], true)
        .unwrap();
    assert!(hot.cache_hit);
    let hot_spans = hot.trace.as_deref().expect("hot traced reply");
    assert!(stages(hot_spans).contains(&"cache_probe"));
    let untraced = client.query(SQL, &["bucket"], true).unwrap();
    assert!(untraced.trace.is_none(), "untraced reply must omit spans");

    handle.shutdown();
}

/// The `metrics` verb returns per-(verb, stage) digests with sane quantile
/// ordering, covering both the query verb and the append path.
#[test]
fn metrics_verb_reports_stage_digests() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    load_big(&mut client);
    for _ in 0..3 {
        client.query(SQL, &["bucket"], true).unwrap();
    }
    client
        .append_stream(
            "companies",
            "worker",
            "worker,company,employees,state\n9,zzz,500,CA\n",
        )
        .unwrap();

    let metrics = client.metrics().unwrap();
    assert!(!metrics.entries.is_empty());
    for entry in &metrics.entries {
        assert!(Verb::parse_name(&entry.verb).is_some(), "{:?}", entry.verb);
        assert!(
            Stage::parse_name(&entry.stage).is_some(),
            "{:?}",
            entry.stage
        );
        assert!(entry.count > 0, "empty digests are not reported");
        assert!(
            entry.p50_us <= entry.p90_us && entry.p90_us <= entry.p99_us,
            "quantiles out of order in {}/{}",
            entry.verb,
            entry.stage
        );
    }
    let query_request = metrics
        .entries
        .iter()
        .find(|e| e.verb == "query" && e.stage == "request")
        .expect("query/request digest present");
    assert!(query_request.count >= 3);
    assert!(query_request.max_us > 0.0 && query_request.mean_us > 0.0);
    assert!(
        metrics
            .entries
            .iter()
            .any(|e| e.verb == "append_stream" && e.stage == "request"),
        "append_stream verb missing from digests"
    );

    handle.shutdown();
}

/// Scrapes `--metrics-port` over real HTTP and runs promtool-style lexical
/// checks on the exposition: histogram series for both the `query` and
/// `append_stream` verbs, cumulative non-decreasing buckets ending in
/// `+Inf`, and `_count` consistent with the `+Inf` bucket.
#[test]
fn prometheus_endpoint_serves_lexically_valid_histograms() {
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let metrics_addr = handle.metrics_addr().expect("metrics front enabled");
    let mut client = Client::connect(handle.addr()).unwrap();
    load_big(&mut client);
    client.query(SQL, &["bucket"], true).unwrap();
    client.query(SQL, &["bucket"], true).unwrap();
    client
        .append_stream(
            "companies",
            "worker",
            "worker,company,employees,state\n9,yyy,400,WA\n",
        )
        .unwrap();

    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 200 OK\r\n"), "{raw}");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .expect("HTTP body");

    // Lexical pass: every line is a comment or `name{labels} value` with a
    // parseable value.
    let mut series: Vec<(&str, &str)> = Vec::new(); // (name-with-labels, value)
    for line in body.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value in {line:?}"
        );
        let name = key.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        series.push((key, value));
    }
    assert_eq!(
        body.matches("# TYPE uu_stage_duration_seconds histogram")
            .count(),
        1,
        "exactly one TYPE line for the stage histogram family"
    );

    // Histogram checks per verb: buckets cumulative, +Inf-terminated, and
    // consistent with _count.
    for verb in ["query", "append_stream"] {
        let series_for = |suffix: &str| -> Vec<(&str, f64)> {
            series
                .iter()
                .filter(|(key, _)| {
                    key.starts_with(&format!("uu_stage_duration_seconds{suffix}"))
                        && key.contains(&format!("verb=\"{verb}\""))
                        && key.contains("stage=\"request\"")
                })
                .map(|(key, value)| (*key, value.parse::<f64>().unwrap()))
                .collect()
        };
        let buckets = series_for("_bucket");
        assert!(!buckets.is_empty(), "no {verb} histogram buckets");
        let mut last = f64::NEG_INFINITY;
        for (key, value) in &buckets {
            assert!(*value >= last, "non-cumulative bucket {key}");
            last = *value;
        }
        let (inf_key, inf_value) = buckets.last().unwrap();
        assert!(inf_key.contains("le=\"+Inf\""), "last bucket is {inf_key}");
        let counts = series_for("_count");
        assert_eq!(counts.len(), 1, "one _count per series");
        assert_eq!(counts[0].1, *inf_value, "_count matches the +Inf bucket");
        assert_eq!(series_for("_sum").len(), 1, "one _sum per series");
    }

    // The server-wide gauges ride along.
    for gauge in ["uu_connections_open", "uu_requests_total"] {
        assert!(body.contains(gauge), "missing {gauge}");
    }

    // Unknown paths 404 without killing the front.
    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    stream.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 404"), "{raw}");

    handle.shutdown();
}

/// A shared in-memory sink for the slow-query log.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn service_with_toy_table() -> Service {
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
        ("state", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("companies", schema, "company").unwrap();
    load_observations(&mut table, &big_csv(), "worker").unwrap();
    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    Service::new(catalog, 0)
}

fn query_request(trace: bool) -> Request {
    Request::Query(QueryRequest {
        sql: SQL.to_string(),
        estimators: vec!["bucket".to_string()],
        cached: true,
        trace,
    })
}

/// Crossing the slow-query threshold emits exactly one JSON line whose span
/// tree parses; requests under the threshold (or non-query verbs) emit
/// nothing.
#[test]
fn slow_query_log_emits_one_json_line_with_a_span_tree() {
    let service = service_with_toy_table();
    let sink = SharedBuf::default();
    // Threshold zero: every query crosses it.
    service.set_slow_query_log(Duration::from_millis(0), Box::new(sink.clone()));
    let mut ctx = SessionCtx::new();

    // Non-query verbs never log.
    assert!(matches!(
        service.dispatch(&mut ctx, Request::Ping),
        Response::Pong
    ));
    assert!(sink.0.lock().unwrap().is_empty(), "ping must not log");

    let response = service.dispatch(&mut ctx, query_request(false));
    assert!(matches!(response, Response::Query(_)));

    let logged = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = logged.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one record: {logged:?}");
    let record = uu_server::json::parse(lines[0]).expect("record is valid JSON");
    assert_eq!(record.get("verb").and_then(|v| v.as_str()), Some("query"));
    assert_eq!(record.get("sql").and_then(|v| v.as_str()), Some(SQL));
    assert_eq!(
        record.get("cache_hit").and_then(|v| v.as_bool()),
        Some(false)
    );
    assert!(record.get("elapsed_us").and_then(|v| v.as_u64()).is_some());
    assert!(record.get("ts_ms").and_then(|v| v.as_i64()).is_some());
    let spans = record
        .get("trace")
        .and_then(|v| v.as_arr())
        .expect("trace array");
    assert!(!spans.is_empty(), "slow record carries the span tree");
    for span in spans {
        let stage = span.get("stage").and_then(|v| v.as_str()).unwrap();
        assert!(Stage::parse_name(stage).is_some(), "{stage:?}");
        assert!(span.get("dur_ns").and_then(|v| v.as_u64()).is_some());
        assert!(span.get("start_ns").and_then(|v| v.as_u64()).is_some());
    }
    assert!(
        spans
            .iter()
            .any(|s| s.get("stage").and_then(|v| v.as_str()) == Some("request")),
        "umbrella span present"
    );

    // A sky-high threshold suppresses logging entirely.
    let quiet = SharedBuf::default();
    service.set_slow_query_log(Duration::from_secs(3600), Box::new(quiet.clone()));
    let response = service.dispatch(&mut ctx, query_request(false));
    assert!(matches!(response, Response::Query(_)));
    assert!(
        quiet.0.lock().unwrap().is_empty(),
        "fast query must not cross a 1h threshold"
    );
}

/// A cold ungrouped miss runs the selection kernel once: the cached
/// selection keeps the bitmap its view was built from instead of scanning
/// again for it.
#[test]
fn traced_cold_miss_runs_one_selection_kernel() {
    let service = service_with_toy_table();
    let mut ctx = SessionCtx::new();
    let reply = match service.dispatch(&mut ctx, query_request(true)) {
        Response::Query(reply) => reply,
        other => panic!("unexpected reply {}", other.encode()),
    };
    assert!(!reply.cache_hit, "first query must be cold");
    let spans = reply.trace.as_deref().expect("traced reply carries spans");
    let kernels = stages(spans)
        .into_iter()
        .filter(|&stage| stage == "selection_kernel")
        .count();
    assert_eq!(kernels, 1, "{:?}", stages(spans));
}

/// The reactor exports queue counters through `stats`: the work-queue
/// high-water mark moves (every request enqueues), and the queue-wait
/// counters stay internally consistent.
#[test]
fn stats_report_queue_depth_and_wait() {
    let handle = spawn(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..5 {
        client.ping().unwrap();
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.conn.queue_depth_peak >= 1,
        "every dispatched frame passes through the queue"
    );
    assert!(
        stats.conn.queue_wait_us_max <= stats.conn.queue_wait_us_total,
        "per-request max cannot exceed the total"
    );
    handle.shutdown();
}

/// Merging per-worker histogram shards must be exact: bucket counts, count,
/// sum and min/max all reproduce a single-shard oracle fed the same samples,
/// for any partitioning of the samples across shards — including the 0 ns
/// and `u64::MAX` (overflow-bucket) corners.
const CORNER_POOL: [u64; 10] = [
    0,
    1,
    249,
    250,
    251,
    1_000,
    1_000_000,
    u64::MAX / 2,
    u64::MAX - 1,
    u64::MAX,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shard_merge_matches_single_shard_oracle(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..120),
        shard_count in 1usize..6,
        corner_picks in proptest::collection::vec(0usize..10, 0..8),
    ) {
        // Mix arbitrary durations with the exact corner values.
        let mut samples: Vec<u64> = raw.clone();
        samples.extend(corner_picks.iter().map(|&i| CORNER_POOL[i]));

        let oracle = Shard::new();
        let shards: Vec<Shard> = (0..shard_count).map(|_| Shard::new()).collect();
        for (i, &ns) in samples.iter().enumerate() {
            oracle.record_ns(Verb::Query, Stage::Request, ns);
            // Deterministic partition across shards.
            shards[i % shard_count].record_ns(Verb::Query, Stage::Request, ns);
        }

        let expected = oracle.snapshot_cell(Verb::Query, Stage::Request);
        let mut merged = obs::HistogramSnapshot::default();
        for shard in &shards {
            merged.merge(&shard.snapshot_cell(Verb::Query, Stage::Request));
        }

        prop_assert_eq!(merged.count, expected.count);
        prop_assert_eq!(merged.sum_ns, expected.sum_ns);
        prop_assert_eq!(merged.min_ns, expected.min_ns);
        prop_assert_eq!(merged.max_ns, expected.max_ns);
        prop_assert_eq!(&merged.buckets[..], &expected.buckets[..]);
        prop_assert_eq!(merged.count, samples.len() as u64);
        // Exact min/max, not bucket bounds.
        prop_assert_eq!(merged.min_ns, *samples.iter().min().unwrap());
        prop_assert_eq!(merged.max_ns, *samples.iter().max().unwrap());
        // Quantiles stay inside the observed range even at the overflow
        // bucket (u64::MAX lands past the last finite bound).
        prop_assert!(merged.quantile_ns(0.5) >= merged.min_ns);
        prop_assert!(merged.quantile_ns(0.5) <= merged.max_ns);
    }
}
