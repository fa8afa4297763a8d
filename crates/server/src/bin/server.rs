//! The `uu-server` binary: bind, serve, exit on the `shutdown` verb.
//!
//! ```text
//! uu-server [--addr HOST:PORT] [--port-file PATH] [--workers N]
//!           [--pgwire-port PORT] [--pgwire-port-file PATH]
//!           [--metrics-port PORT] [--slow-query-ms N] [--slow-query-log PATH]
//!           [--max-frame-bytes N] [--idle-timeout-ms N]
//!           [--cache-capacity N] [--cache-bytes N] [--cache-ttl-ms N]
//!           [--data-dir DIR] [--fsync always|batch|off]
//!           [--checkpoint-rows N] [--checkpoint-bytes N]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the resolved address is
//! printed on stdout (`uu-server listening on …`) and, with `--port-file`,
//! written to a file so scripts can discover it race-free. `--pgwire-port`
//! additionally enables the pgwire-lite front on the same host (port 0 works
//! there too, discoverable via `--pgwire-port-file`), so `psql` and the
//! `uu-client pgwire-probe` raw-socket driver can talk to the same catalog.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use uu_server::server::{spawn, ServerConfig};
use uu_store::FsyncPolicy;

fn usage() -> &'static str {
    "usage: uu-server [--addr HOST:PORT] [--port-file PATH] [--workers N]\n\
     \x20                [--pgwire-port PORT] [--pgwire-port-file PATH]\n\
     \x20                [--metrics-port PORT] [--slow-query-ms N]\n\
     \x20                [--slow-query-log PATH]\n\
     \x20                [--max-frame-bytes N] [--idle-timeout-ms N]\n\
     \x20                [--cache-capacity N] [--cache-bytes N] [--cache-ttl-ms N]\n\
     \x20                [--data-dir DIR] [--fsync always|batch|off]\n\
     \x20                [--checkpoint-rows N] [--checkpoint-bytes N]\n\
     \n\
     Serves the line-delimited JSON estimation protocol (see README,\n\
     \"Service architecture\"); --pgwire-port also enables the pgwire-lite\n\
     front (psql-compatible simple queries) on the same host.\n\
     --metrics-port serves the Prometheus text exposition on\n\
     http://HOST:PORT/metrics. --slow-query-ms logs queries at or over the\n\
     threshold as JSON lines (full span tree) to --slow-query-log (default:\n\
     stderr).\n\
     --idle-timeout-ms reaps connections with no complete frame for the\n\
     window (default: never).\n\
     --data-dir DIR arms durability: committed loads/appends are WAL-logged\n\
     under DIR, checkpoints snapshot each table there, and a restart on the\n\
     same DIR recovers every committed batch (see README, \"Durability\").\n\
     --fsync picks the WAL sync policy (always | batch | off; default batch);\n\
     --checkpoint-rows / --checkpoint-bytes tune the automatic checkpoint\n\
     triggers (defaults: 50000 rows, 16 MiB of WAL).\n\
     --workers N sizes the request-worker pool, the server's only\n\
     concurrency: each worker computes one request at a time on its own\n\
     thread (0 means one worker per core).\n\
     Defaults: --addr 127.0.0.1:7878, pgwire off, metrics off, no slow-query\n\
     log, one worker per core, 16 MiB frame bound, no idle timeout, cache\n\
     capacity 128 entries, no byte budget, no TTL, durability off."
}

struct Parsed {
    config: ServerConfig,
    port_file: Option<String>,
    pgwire_port_file: Option<String>,
}

fn parse_args() -> Result<Parsed, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file = None;
    let mut pgwire_port_file = None;
    let mut pgwire_port: Option<u16> = None;
    let mut metrics_port: Option<u16> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--port-file" => port_file = Some(value("--port-file")?),
            "--pgwire-port" => {
                pgwire_port = Some(
                    value("--pgwire-port")?
                        .parse()
                        .map_err(|_| "--pgwire-port expects a port number".to_string())?,
                )
            }
            "--pgwire-port-file" => pgwire_port_file = Some(value("--pgwire-port-file")?),
            "--metrics-port" => {
                metrics_port = Some(
                    value("--metrics-port")?
                        .parse()
                        .map_err(|_| "--metrics-port expects a port number".to_string())?,
                )
            }
            "--slow-query-ms" => {
                config.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|_| "--slow-query-ms expects an integer".to_string())?,
                )
            }
            "--slow-query-log" => config.slow_query_log = Some(value("--slow-query-log")?),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes = value("--max-frame-bytes")?
                    .parse()
                    .map_err(|_| "--max-frame-bytes expects an integer".to_string())?
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Some(Duration::from_millis(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| "--idle-timeout-ms expects an integer".to_string())?,
                ))
            }
            "--cache-capacity" => {
                config.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity expects an integer".to_string())?
            }
            "--cache-bytes" => {
                config.cache_bytes = Some(
                    value("--cache-bytes")?
                        .parse()
                        .map_err(|_| "--cache-bytes expects an integer".to_string())?,
                )
            }
            "--cache-ttl-ms" => {
                config.cache_ttl = Some(Duration::from_millis(
                    value("--cache-ttl-ms")?
                        .parse()
                        .map_err(|_| "--cache-ttl-ms expects an integer".to_string())?,
                ))
            }
            "--data-dir" => config.data_dir = Some(value("--data-dir")?.into()),
            "--fsync" => {
                config.fsync = FsyncPolicy::parse(&value("--fsync")?)
                    .ok_or_else(|| "--fsync expects always, batch or off".to_string())?
            }
            "--checkpoint-rows" => {
                config.checkpoint_rows = value("--checkpoint-rows")?
                    .parse()
                    .map_err(|_| "--checkpoint-rows expects an integer".to_string())?
            }
            "--checkpoint-bytes" => {
                config.checkpoint_bytes = value("--checkpoint-bytes")?
                    .parse()
                    .map_err(|_| "--checkpoint-bytes expects an integer".to_string())?
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    // The auxiliary fronts bind the same host as the JSON front.
    let host = config
        .addr
        .rsplit_once(':')
        .map(|(host, _)| host.to_string())
        .unwrap_or_else(|| "127.0.0.1".to_string());
    if let Some(port) = pgwire_port {
        config.pgwire_addr = Some(format!("{host}:{port}"));
    }
    if let Some(port) = metrics_port {
        config.metrics_addr = Some(format!("{host}:{port}"));
    }
    Ok(Parsed {
        config,
        port_file,
        pgwire_port_file,
    })
}

fn write_port_file(path: &str, addr: std::net::SocketAddr) -> Result<(), String> {
    std::fs::write(path, format!("{addr}\n"))
        .map_err(|e| format!("uu-server: cannot write port file {path}: {e}"))
}

fn main() -> ExitCode {
    let parsed = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let config = parsed.config;
    // Best effort: a C10K front wants headroom above the usual 1024-fd soft
    // limit. Failure is fine — the reactor degrades to whatever fds we get.
    let _ = uu_server::reactor::raise_nofile_limit(65_536);
    let workers = config.effective_workers();
    let handle = match spawn(config.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("uu-server: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    if let Some(path) = parsed.port_file {
        if let Err(message) = write_port_file(&path, addr) {
            eprintln!("{message}");
            handle.shutdown();
            return ExitCode::FAILURE;
        }
    }
    if let (Some(path), Some(pg_addr)) = (parsed.pgwire_port_file, handle.pgwire_addr()) {
        if let Err(message) = write_port_file(&path, pg_addr) {
            eprintln!("{message}");
            handle.shutdown();
            return ExitCode::FAILURE;
        }
    }
    println!(
        "uu-server listening on {addr} (pgwire={}, metrics={}, workers={workers}, max_frame_bytes={}, idle_timeout_ms={}, cache_capacity={}, cache_bytes={}, cache_ttl_ms={}, data_dir={}, fsync={})",
        handle
            .pgwire_addr()
            .map_or_else(|| "off".to_string(), |a| a.to_string()),
        handle
            .metrics_addr()
            .map_or_else(|| "off".to_string(), |a| a.to_string()),
        if config.max_frame_bytes == 0 {
            uu_server::service::DEFAULT_MAX_FRAME_BYTES
        } else {
            config.max_frame_bytes
        },
        config
            .idle_timeout
            .map_or_else(|| "none".to_string(), |t| t.as_millis().to_string()),
        config.cache_capacity,
        config
            .cache_bytes
            .map_or_else(|| "none".to_string(), |b| b.to_string()),
        config
            .cache_ttl
            .map_or_else(|| "none".to_string(), |t| t.as_millis().to_string()),
        config
            .data_dir
            .as_ref()
            .map_or_else(|| "none".to_string(), |d| d.display().to_string()),
        if config.data_dir.is_some() {
            config.fsync.as_str()
        } else {
            "off"
        },
    );
    let _ = std::io::stdout().flush();
    handle.join();
    println!("uu-server: shut down");
    ExitCode::SUCCESS
}
