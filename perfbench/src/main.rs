//! `perfbench`: the fixed-work end-to-end benchmark of `uu-server`.
//!
//! ```text
//! perfbench --workload hot_read|cold_read|ingest_read|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed` before any clock starts; each
//! workload runs a fixed number of operations (scaled by `--seconds`), checks
//! every reply against an in-process twin, and prints one JSON object as its
//! last stdout line. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. See README.md for the workloads and metrics.

mod data;
mod layers;
mod report;
mod server;
mod trace;
mod workloads;

use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["hot_read", "cold_read", "ingest_read"];

use report::Run;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds expects an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match server::serve(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload hot_read|cold_read|ingest_read|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // `all` runs every workload in turn, one result line each, tagged with
    // the workload's name.
    let names = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut code = ExitCode::SUCCESS;
    for name in names {
        let mut run = Run::new(name, args.seed, args.trace);
        let result = match name {
            "hot_read" => workloads::read(&mut run, workloads::ReadKind::Hot, args.seconds),
            "cold_read" => workloads::read(&mut run, workloads::ReadKind::Cold, args.seconds),
            "ingest_read" => workloads::ingest(&mut run),
            other => Err(format!("unknown workload {other:?}")),
        };
        run.cleanup();
        match result {
            Ok(()) => {
                let line = run.result_json();
                match args.workload.as_str() {
                    "all" => println!("{{\"workload\": \"{name}\", {}", &line[1..]),
                    _ => println!("{line}"),
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
