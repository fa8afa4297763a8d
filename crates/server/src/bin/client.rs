//! The `uu-client` binary: one-shot protocol commands plus a `demo`
//! subcommand that drives a full load-query-repeat session over loopback
//! (the CI smoke test) — including a named-session prepared-query exercise —
//! and appends a latency record to `BENCH_server.json`.
//!
//! ```text
//! uu-client ping         --addr HOST:PORT
//! uu-client info         --addr HOST:PORT
//! uu-client stats        --addr HOST:PORT
//! uu-client warm         --addr HOST:PORT --sql SQL
//! uu-client query        --addr HOST:PORT --sql SQL [--estimators a,b,c] [--uncached]
//! uu-client trace        --addr HOST:PORT --sql SQL [--estimators a,b,c] [--uncached]
//! uu-client metrics      --addr HOST:PORT
//! uu-client load-csv     --addr HOST:PORT --table T --columns k:str,v:float \
//!                        --entity k --source worker --file data.csv [--append]
//! uu-client append       --addr HOST:PORT --table T --source worker --file data.csv
//! uu-client pgwire-probe --addr HOST:PGWIRE_PORT --sql SQL
//! uu-client checkpoint   --addr HOST:PORT
//! uu-client shutdown     --addr HOST:PORT
//! uu-client demo         --addr HOST:PORT [--json PATH] [--shutdown]
//! ```
//!
//! `pgwire-probe` speaks raw PostgreSQL wire messages over a plain socket
//! (startup + simple query) — the CI driver for the pgwire front, no `psql`
//! dependency.

use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use uu_server::client::{Client, ClientError};
use uu_server::protocol::{
    ErrorCode, LoadCsvRequest, MetricsReply, QueryReply, Request, Response, WireSpan,
};

fn usage() -> &'static str {
    "usage: uu-client <ping|info|stats|metrics|warm|query|trace|load-csv|append|checkpoint|pgwire-probe|shutdown|demo> --addr HOST:PORT [options]\n\
     \n\
     query:        --sql SQL [--estimators a,b,c] [--uncached]\n\
     trace:        --sql SQL [--estimators a,b,c] [--uncached]   # query + server-side span tree\n\
     metrics:      per-(verb, stage) latency digests (p50/p90/p99/max)\n\
     warm:         --sql SQL\n\
     load-csv:     --table T --columns name:type,... --entity COL --source COL --file PATH [--append]\n\
     append:       --table T --source COL --file PATH   # incremental append_stream\n\
     checkpoint:   snapshot every table and truncate the WAL (needs --data-dir on the server)\n\
     pgwire-probe: --sql SQL   # raw-socket pgwire simple query (--addr is the pgwire port)\n\
     demo:         [--json PATH] [--shutdown]   # full load-query-repeat smoke session"
}

struct Args {
    command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| usage().to_string())?;
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut pending: Option<String> = None;
    for arg in argv {
        if let Some(name) = pending.take() {
            flags.insert(name, arg);
            continue;
        }
        match arg.as_str() {
            "--uncached" | "--append" | "--shutdown" => switches.push(arg),
            flag if flag.starts_with("--") => pending = Some(flag[2..].to_string()),
            other => return Err(format!("unexpected argument {other:?}\n\n{}", usage())),
        }
    }
    if let Some(name) = pending {
        return Err(format!("--{name} requires a value"));
    }
    Ok(Args {
        command,
        flags,
        switches,
    })
}

impl Args {
    fn addr(&self) -> Result<&str, String> {
        self.flags
            .get("addr")
            .map(String::as_str)
            .ok_or_else(|| "--addr HOST:PORT is required".to_string())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn print_reply(reply: &QueryReply) {
    println!(
        "cache_hit={} elapsed_us={} grouped={}",
        reply.cache_hit, reply.elapsed_us, reply.grouped
    );
    for group in &reply.groups {
        let r = &group.result;
        println!(
            "  {} | observed={} corrected={} method={} recommendation={}",
            r.query,
            r.observed,
            r.corrected
                .map_or_else(|| "none".to_string(), |v| v.to_string()),
            r.method,
            r.recommendation,
        );
        for e in &r.estimates {
            println!(
                "    Δ[{}]={} n_hat={}",
                e.name,
                e.delta
                    .map_or_else(|| "undef".to_string(), |v| v.to_string()),
                e.n_hat
                    .map_or_else(|| "undef".to_string(), |v| v.to_string()),
            );
        }
    }
}

/// Renders the server-side span tree: one line per span, indented by depth,
/// with start offset and duration right-aligned in microseconds.
fn print_trace(spans: &[WireSpan]) {
    println!("trace: {} spans", spans.len());
    println!("{:>12} {:>12}  span", "start_us", "dur_us");
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            // Spans arrive in start order, so a valid parent precedes its
            // child; anything else is treated as a root.
            Some(p) if (p as usize) < i => children[p as usize].push(i),
            _ => roots.push(i),
        }
    }
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let span = &spans[i];
        let label = span
            .label
            .as_deref()
            .map(|l| format!(" [{l}]"))
            .unwrap_or_default();
        println!(
            "{:>12.1} {:>12.1}  {}{}{label}",
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            "  ".repeat(depth),
            span.stage,
        );
        for &child in children[i].iter().rev() {
            stack.push((child, depth + 1));
        }
    }
}

/// Renders the per-(verb, stage) latency digests as an aligned table.
fn print_metrics(metrics: &MetricsReply) {
    if metrics.entries.is_empty() {
        println!("no samples recorded yet");
        return;
    }
    println!(
        "{:<18} {:<18} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "verb", "stage", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us"
    );
    for e in &metrics.entries {
        println!(
            "{:<18} {:<18} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
            e.verb, e.stage, e.count, e.p50_us, e.p90_us, e.p99_us, e.max_us, e.mean_us
        );
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.command == "demo" {
        return demo(&args);
    }
    if args.command == "pgwire-probe" {
        return pgwire_probe(&args);
    }
    let mut client = Client::connect(args.addr()?).map_err(|e| format!("cannot connect: {e}"))?;
    let fail = |e: ClientError| e.to_string();
    match args.command.as_str() {
        "ping" => {
            client.ping().map_err(fail)?;
            println!("pong");
        }
        "info" => {
            let info = client.server_info().map_err(fail)?;
            println!(
                "version={} protocol={} uptime_ms={} active_sessions={} fronts={} workers={} data_dir={} durability={} last_checkpoint_age_ms={}",
                info.version,
                info.protocol,
                info.uptime_ms,
                info.active_sessions,
                info.fronts.join(","),
                info.workers,
                info.data_dir.as_deref().unwrap_or("none"),
                info.durability,
                info.last_checkpoint_age_ms
                    .map_or_else(|| "none".to_string(), |ms| format!("{ms:.0}")),
            );
        }
        "stats" => {
            let stats = client.stats().map_err(fail)?;
            println!("{}", Response::Stats(Box::new(stats)).encode());
        }
        "warm" => {
            let (universes, already) = client.warm(args.required("sql")?).map_err(fail)?;
            println!("warmed universes={universes} already_cached={already}");
        }
        "query" => {
            let estimators: Vec<&str> = args
                .flags
                .get("estimators")
                .map(|s| s.split(',').filter(|e| !e.is_empty()).collect())
                .unwrap_or_else(|| vec!["bucket"]);
            let reply = client
                .query(args.required("sql")?, &estimators, !args.has("--uncached"))
                .map_err(fail)?;
            print_reply(&reply);
        }
        "trace" => {
            let estimators: Vec<&str> = args
                .flags
                .get("estimators")
                .map(|s| s.split(',').filter(|e| !e.is_empty()).collect())
                .unwrap_or_else(|| vec!["bucket"]);
            let reply = client
                .query_traced(args.required("sql")?, &estimators, !args.has("--uncached"))
                .map_err(fail)?;
            print_reply(&reply);
            match reply.trace.as_deref() {
                Some(spans) => print_trace(spans),
                None => println!("(server returned no trace)"),
            }
        }
        "metrics" => {
            let metrics = client.metrics().map_err(fail)?;
            print_metrics(&metrics);
        }
        "load-csv" => {
            let columns = args
                .required("columns")?
                .split(',')
                .map(|pair| {
                    pair.split_once(':')
                        .map(|(name, ty)| (name.to_string(), ty.to_string()))
                        .ok_or_else(|| format!("bad column spec {pair:?} (want name:type)"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let csv = std::fs::read_to_string(args.required("file")?)
                .map_err(|e| format!("cannot read CSV: {e}"))?;
            let response = client
                .request(&Request::LoadCsv(LoadCsvRequest {
                    table: args.required("table")?.to_string(),
                    columns,
                    entity_column: args.required("entity")?.to_string(),
                    source_column: args.required("source")?.to_string(),
                    csv,
                    append: args.has("--append"),
                }))
                .map_err(fail)?;
            println!("{}", response.encode());
        }
        "append" => {
            let csv = std::fs::read_to_string(args.required("file")?)
                .map_err(|e| format!("cannot read CSV: {e}"))?;
            let outcome = client
                .append_stream(args.required("table")?, args.required("source")?, &csv)
                .map_err(fail)?;
            println!(
                "appended observations={} entities={} refrozen={}",
                outcome.observations, outcome.entities, outcome.refrozen,
            );
        }
        "checkpoint" => {
            let (tables, bytes) = client.checkpoint().map_err(fail)?;
            println!("checkpointed tables={tables} bytes={bytes}");
        }
        "shutdown" => {
            client.shutdown().map_err(fail)?;
            println!("server shutting down");
        }
        other => return Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
    Ok(())
}

/// Raw-socket pgwire simple query: startup (with the SSL decline), one `Q`
/// message, rows printed as tab-separated text. This is what CI drives the
/// pgwire front with instead of depending on `psql`.
fn pgwire_probe(args: &Args) -> Result<(), String> {
    let mut client = uu_server::pgwire::PgClient::connect(args.addr()?)
        .map_err(|e| format!("cannot connect: {e}"))?;
    let result = client
        .simple_query(args.required("sql")?)
        .map_err(|e| e.to_string())?;
    println!("{}", result.columns.join("\t"));
    for row in &result.rows {
        let cells: Vec<String> = row
            .iter()
            .map(|cell| cell.clone().unwrap_or_else(|| "NULL".to_string()))
            .collect();
        println!("{}", cells.join("\t"));
    }
    println!("{}", result.command_tag);
    Ok(())
}

/// The toy observation log (Appendix F of the paper) with a state column so
/// grouped queries exercise multiple universes.
const DEMO_CSV: &str = "\
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

const DEMO_SQL: &str = "SELECT SUM(employees) FROM companies";
const DEMO_GROUPED_SQL: &str = "SELECT SUM(employees) FROM companies GROUP BY state";
const DEMO_HIT_SAMPLES: usize = 20;

fn check(condition: bool, what: &str) -> Result<(), String> {
    if condition {
        println!("ok: {what}");
        Ok(())
    } else {
        Err(format!("FAILED: {what}"))
    }
}

/// Full load-query-repeat session over loopback; exits non-zero on any
/// deviation. This is what CI runs against a freshly started server.
fn demo(args: &Args) -> Result<(), String> {
    let addr = args.addr()?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    client.ping().map_err(|e| e.to_string())?;
    println!("ok: connected to {addr}");

    // 1. Load the toy observation log.
    let response = client
        .request(&Request::LoadCsv(LoadCsvRequest {
            table: "companies".to_string(),
            columns: vec![
                ("company".to_string(), "str".to_string()),
                ("employees".to_string(), "float".to_string()),
                ("state".to_string(), "str".to_string()),
            ],
            entity_column: "company".to_string(),
            source_column: "worker".to_string(),
            csv: DEMO_CSV.to_string(),
            append: false,
        }))
        .map_err(|e| e.to_string())?;
    match response {
        Response::Loaded {
            observations,
            entities,
            ..
        } => {
            check(observations == 9, "loaded 9 observations")?;
            check(entities == 4, "4 unique entities")?;
        }
        other => return Err(format!("unexpected load response: {}", other.encode())),
    }

    // 2. Cold query: SUM with the full estimator panel.
    let estimators = ["bucket", "naive", "freq", "monte-carlo"];
    let start = Instant::now();
    let cold = client
        .query(DEMO_SQL, &estimators, true)
        .map_err(|e| e.to_string())?;
    let cold_us = start.elapsed().as_secs_f64() * 1e6;
    check(!cold.cache_hit, "first execution misses the cache")?;
    let cold_result = cold.single().ok_or("ungrouped reply expected")?.clone();
    check(
        cold_result.observed == 13_300.0,
        "observed SUM is 13300 (closed world)",
    )?;
    check(
        cold_result
            .corrected
            .is_some_and(|c| (c - 13_950.0).abs() < 1e-6),
        "bucket-corrected SUM is 13950 (paper Table 2)",
    )?;
    check(
        cold_result.estimates.len() == estimators.len(),
        "per-estimator deltas for every requested estimator",
    )?;

    // 3. Repeat the query: the selection must come from the profile cache.
    let mut hit_us = Vec::with_capacity(DEMO_HIT_SAMPLES);
    let mut repeat = None;
    for _ in 0..DEMO_HIT_SAMPLES {
        let start = Instant::now();
        let reply = client
            .query(DEMO_SQL, &estimators, true)
            .map_err(|e| e.to_string())?;
        hit_us.push(start.elapsed().as_secs_f64() * 1e6);
        repeat = Some(reply);
    }
    let repeat = repeat.expect("at least one repeat");
    check(repeat.cache_hit, "repeated query hits the profile cache")?;
    check(
        repeat.single().map(|r| r.canonical()) == Some(cold_result.canonical()),
        "repeated answer is bit-for-bit identical to the cold answer",
    )?;

    // 4. Grouped query, cold then hot.
    let start = Instant::now();
    let grouped_cold = client
        .query(DEMO_GROUPED_SQL, &["bucket"], true)
        .map_err(|e| e.to_string())?;
    let grouped_cold_us = start.elapsed().as_secs_f64() * 1e6;
    check(
        grouped_cold.grouped && grouped_cold.groups.len() == 2,
        "grouped query returns one universe per state",
    )?;
    let start = Instant::now();
    let grouped_hot = client
        .query(DEMO_GROUPED_SQL, &["bucket"], true)
        .map_err(|e| e.to_string())?;
    let grouped_hit_us = start.elapsed().as_secs_f64() * 1e6;
    check(
        grouped_hot.cache_hit,
        "repeated grouped query hits the cache",
    )?;

    // 5. Unknown estimator: structured error, connection stays usable.
    match client.query(DEMO_SQL, &["chao2000"], true) {
        Err(ClientError::Server(e)) => {
            check(
                e.code == ErrorCode::UnknownEstimator,
                "unknown estimator answers with code unknown_estimator",
            )?;
            check(
                e.accepted.iter().any(|n| n == "bucket"),
                "error lists the accepted estimator names",
            )?;
        }
        other => return Err(format!("expected structured error, got {other:?}")),
    }
    client.ping().map_err(|e| e.to_string())?;
    println!("ok: connection usable after unknown-estimator error");

    // 6. Malformed request: structured error, connection stays usable.
    match client
        .send_raw("this is not json")
        .map_err(|e| e.to_string())?
    {
        Response::Error(e) => check(
            e.code == ErrorCode::MalformedRequest,
            "garbage line answers with code malformed_request",
        )?,
        other => return Err(format!("expected error, got {}", other.encode())),
    }
    client.ping().map_err(|e| e.to_string())?;
    println!("ok: connection usable after malformed request");

    // 7. Uncached execution agrees bit-for-bit with the cached path.
    let uncached = client
        .query(DEMO_SQL, &estimators, false)
        .map_err(|e| e.to_string())?;
    check(!uncached.cache_hit, "uncached execution bypasses the cache")?;
    check(
        uncached.single().map(|r| r.canonical()) == Some(cold_result.canonical()),
        "uncached answer is bit-for-bit identical to the cached answer",
    )?;

    // 8. Named session + prepared query: repeats must be cache-hit fast and
    // bit-for-bit identical to the ad-hoc answer.
    let resolved = client
        .session_open("demo-session", &estimators)
        .map_err(|e| e.to_string())?;
    check(
        resolved.len() == estimators.len(),
        "session pins the full estimator panel",
    )?;
    let (universes, _) = client
        .prepare("demo-session", "q1", DEMO_SQL)
        .map_err(|e| e.to_string())?;
    check(universes == 1, "prepared statement froze one universe")?;
    let mut prepared_us = Vec::with_capacity(DEMO_HIT_SAMPLES);
    let mut prepared_reply = None;
    for _ in 0..DEMO_HIT_SAMPLES {
        let start = Instant::now();
        let reply = client
            .execute_prepared("demo-session", "q1")
            .map_err(|e| e.to_string())?;
        prepared_us.push(start.elapsed().as_secs_f64() * 1e6);
        prepared_reply = Some(reply);
    }
    let prepared_reply = prepared_reply.expect("at least one prepared execute");
    check(
        prepared_reply.cache_hit,
        "prepared repeats serve from frozen snapshots",
    )?;
    check(
        prepared_reply.single().map(|r| r.canonical()) == Some(cold_result.canonical()),
        "prepared answer is bit-for-bit identical to the ad-hoc answer",
    )?;
    let session_stats = client.stats().map_err(|e| e.to_string())?;
    let demo_session = session_stats
        .sessions
        .iter()
        .find(|s| s.name == "demo-session")
        .ok_or("stats lists the open session")?;
    check(
        demo_session.executes >= DEMO_HIT_SAMPLES as u64,
        "per-session execute counter advanced",
    )?;
    client
        .deallocate("demo-session", "q1")
        .map_err(|e| e.to_string())?;
    match client.execute_prepared("demo-session", "q1") {
        Err(ClientError::Server(e)) => check(
            e.code == ErrorCode::UnknownPrepared,
            "deallocated statement answers unknown_prepared",
        )?,
        other => return Err(format!("expected unknown_prepared, got {other:?}")),
    }
    let dropped = client
        .session_close("demo-session")
        .map_err(|e| e.to_string())?;
    check(dropped == 0, "deallocate already emptied the session")?;

    // 9. Counters.
    let stats = client.stats().map_err(|e| e.to_string())?;
    check(
        stats.cache.hits >= DEMO_HIT_SAMPLES as u64,
        "cache hit counter advanced",
    )?;
    check(
        stats.tables == vec!["companies".to_string()],
        "stats lists the table",
    )?;
    check(stats.errors >= 2, "both provoked errors were counted")?;
    println!(
        "stats: requests={} connections={} cache hits={} misses={} evictions={} workers={}",
        stats.requests,
        stats.connections,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.workers,
    );

    // 10. Incremental append: new entity arrives via `append_stream`, warm
    // cache entries re-freeze in place, and the next query reflects the
    // delta without a cold rebuild.
    let outcome = client
        .append_stream(
            "companies",
            "worker",
            "worker,company,employees,state\n5,F,500,CA\n6,F,500,CA\n",
        )
        .map_err(|e| e.to_string())?;
    check(outcome.observations == 2, "append ingested 2 observations")?;
    check(outcome.entities == 5, "table now holds 5 entities")?;
    let after = client
        .query(DEMO_SQL, &estimators, true)
        .map_err(|e| e.to_string())?;
    check(
        after.single().is_some_and(|r| r.observed == 13_800.0),
        "post-append SUM includes the delta (13800)",
    )?;
    check(
        outcome.refrozen >= 1,
        "append re-froze at least one cached selection",
    )?;
    check(
        after.cache_hit,
        "post-append query hits the re-frozen cache entry",
    )?;
    let grouped_after = client
        .query(DEMO_GROUPED_SQL, &["bucket"], true)
        .map_err(|e| e.to_string())?;
    check(
        grouped_after.groups.len() == 2,
        "post-append grouped query still returns one universe per state",
    )?;
    let inc = client.stats().map_err(|e| e.to_string())?.incremental;
    check(
        inc.delta_batches >= 1 && inc.rows_appended >= 2,
        "incremental counters recorded the append",
    )?;

    // 11. Latency record, including the prepared-vs-adhoc comparison.
    let hit_mean = hit_us.iter().sum::<f64>() / hit_us.len() as f64;
    let hit_min = hit_us.iter().cloned().fold(f64::INFINITY, f64::min);
    let prepared_mean = prepared_us.iter().sum::<f64>() / prepared_us.len() as f64;
    let prepared_min = prepared_us.iter().cloned().fold(f64::INFINITY, f64::min);
    let record = format!(
        "{{ \"bench\": \"server_smoke\", \"samples\": {DEMO_HIT_SAMPLES}, \
         \"cold_roundtrip_us\": {cold_us:.1}, \"hit_roundtrip_us_mean\": {hit_mean:.1}, \
         \"hit_roundtrip_us_min\": {hit_min:.1}, \"prepared_hit_us_mean\": {prepared_mean:.1}, \
         \"prepared_hit_us_min\": {prepared_min:.1}, \"grouped_cold_us\": {grouped_cold_us:.1}, \
         \"grouped_hit_us\": {grouped_hit_us:.1}, \"cache_hits\": {}, \"cache_misses\": {} }}\n",
        stats.cache.hits, stats.cache.misses
    );
    let path = args.flags.get("json").cloned().unwrap_or_else(|| {
        let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
        format!("{dir}/BENCH_server.json")
    });
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("cannot append latency record to {path}: {e}"))?;
    println!("ok: appended latency record to {path}");
    print!("{record}");

    // 12. Optionally stop the server.
    if args.has("--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        println!("ok: server shutting down");
    }
    println!("demo: all checks passed");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
