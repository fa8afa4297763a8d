//! The query executor (`uu_query::exec`) computes on its caller's thread:
//!
//! 1. **Grouped parity** — a grouped SQL query whose groups each run a
//!    Monte-Carlo grid returns, group for group, bit-for-bit what the
//!    ungrouped query restricted to that group (`WHERE g = …`) returns.
//! 2. **Containment** — no production crate (stats, core, datagen, query,
//!    store, server) calls `std::thread::scope`: the server's concurrency is
//!    its worker pool, one request per worker, and no query opens threads
//!    of its own. Only tooling (`uu-bench`'s replication fan-out) may.

use uu_core::montecarlo::MonteCarloConfig;
use uu_query::exec::{execute_sql, CorrectionMethod};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_stats::rng::Rng;

/// A table with several groups of lineage-bearing entities, sized so the
/// Monte-Carlo estimator is defined in every group.
fn grouped_table(groups: usize, per_group: usize, seed: u64) -> IntegratedTable {
    let schema = Schema::new([
        ("k", ColumnType::Str),
        ("v", ColumnType::Float),
        ("g", ColumnType::Str),
    ]);
    let mut t = IntegratedTable::new("t", schema, "k").unwrap();
    for g in 0..groups {
        let mut rng = Rng::new(seed ^ (g as u64).wrapping_mul(0x9E37_79B9));
        for i in 0..per_group {
            let item = rng.next_below(25 + g * 3);
            t.insert_observation(
                (i % 7) as u32,
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

#[test]
fn nested_grouped_monte_carlo_is_bit_for_bit_serial() {
    let table = grouped_table(6, 160, 11);
    let mc = CorrectionMethod::MonteCarlo(MonteCarloConfig::fast());

    let grouped =
        execute_sql(&table, "SELECT SUM(v) FROM t GROUP BY g", mc).expect("grouped query runs");
    assert_eq!(grouped.len(), 6);

    // Reference: every group evaluated on its own through the ungrouped
    // path (`WHERE g = …` selects exactly the group's estimation universe).
    for row in &grouped {
        let Value::Str(g) = &row.key else {
            panic!("group keys are strings")
        };
        let reference = execute_sql(&table, &format!("SELECT SUM(v) FROM t WHERE g = '{g}'"), mc)
            .expect("reference query runs")
            .remove(0)
            .result;
        assert_eq!(row.result.observed, reference.observed, "group {g}");
        assert_eq!(row.result.corrected, reference.corrected, "group {g}");
        assert_eq!(row.result.n_hat, reference.n_hat, "group {g}");
        assert_eq!(row.result.upper_bound, reference.upper_bound, "group {g}");
    }

    // Two identical runs agree with each other too.
    let again =
        execute_sql(&table, "SELECT SUM(v) FROM t GROUP BY g", mc).expect("grouped query runs");
    for (a, b) in grouped.iter().zip(&again) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.result.corrected, b.result.corrected);
    }
}

/// The lines of `source` the project counts as production code: everything
/// above the first `#[cfg(test)]` (as `scripts/nontest_lines.sh` counts).
fn production_part(source: &str) -> String {
    source
        .lines()
        .take_while(|line| line.trim_start() != "#[cfg(test)]")
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn no_production_crate_calls_thread_scope() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut offenders = Vec::new();
    for krate in ["stats", "core", "datagen", "query", "store", "server"] {
        let mut stack = vec![crates.join(krate).join("src")];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("crate sources readable") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let source = std::fs::read_to_string(&path).expect("source readable");
                    if production_part(&source).contains("thread::scope") {
                        offenders.push(path.display().to_string());
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "production code opens scoped threads: {offenders:?}"
    );
}
