//! Cross-crate guarantees of the shared work-stealing executor
//! (`uu_core::exec`):
//!
//! 1. **Nested determinism** — a grouped SQL query whose groups each run a
//!    parallel Monte-Carlo grid (the deepest nesting the workspace produces)
//!    returns bit-for-bit the results of the fully serial evaluation.
//! 2. **Bounded workers** — that same nested workload never drives the
//!    executor past its configured thread budget (asserted via the
//!    executor's own instrumentation).
//! 3. **Containment** — `std::thread::scope` appears nowhere in the
//!    workspace outside the executor module, so no parallel region can
//!    bypass the shared budget.

use uu_core::exec;
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
    let parallel_mc = CorrectionMethod::MonteCarlo(MonteCarloConfig::fast());
    let serial_mc = CorrectionMethod::MonteCarlo(MonteCarloConfig {
        parallel: false,
        ..MonteCarloConfig::fast()
    });

    // Parallel grouped run: groups fan out on the executor, each group's
    // Monte-Carlo grid nests inside a worker.
    let grouped = execute_sql(&table, "SELECT SUM(v) FROM t GROUP BY g", parallel_mc)
        .expect("grouped query runs");
    assert_eq!(grouped.len(), 6);

    // Serial reference: every group evaluated on its own through the
    // ungrouped path (`WHERE g = …` selects exactly the group's estimation
    // universe) with the serial Monte-Carlo grid.
    for row in &grouped {
        let Value::Str(g) = &row.key else {
            panic!("group keys are strings")
        };
        let reference = execute_sql(
            &table,
            &format!("SELECT SUM(v) FROM t WHERE g = '{g}'"),
            serial_mc,
        )
        .expect("reference query runs")
        .remove(0)
        .result;
        assert_eq!(row.result.observed, reference.observed, "group {g}");
        assert_eq!(row.result.corrected, reference.corrected, "group {g}");
        assert_eq!(row.result.n_hat, reference.n_hat, "group {g}");
        assert_eq!(row.result.upper_bound, reference.upper_bound, "group {g}");
    }

    // Two identical parallel runs agree with each other too (scheduling is
    // never observable).
    let again = execute_sql(&table, "SELECT SUM(v) FROM t GROUP BY g", parallel_mc)
        .expect("grouped query runs");
    for (a, b) in grouped.iter().zip(&again) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.result.corrected, b.result.corrected);
    }

    // Worker-budget instrumentation, checked in the same #[test] so no other
    // test of this binary drives the global executor concurrently (the
    // single-caller bound is `peak_workers <= threads`; concurrent callers
    // are allowed up to `callers + threads - 1`).
    let m = exec::global().metrics();
    assert!(m.regions > 0, "the workload must schedule through the pool");
    assert!(m.tasks > 0);
    assert!(
        m.peak_workers <= m.threads,
        "nested grouped+MonteCarlo run used {} workers, budget is {}",
        m.peak_workers,
        m.threads
    );
}

#[test]
fn thread_scope_is_confined_to_the_executor_module() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut offenders = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("examples")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("workspace sources readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).expect("source readable");
                if source.contains("thread::scope") && !path.ends_with("stats/src/exec.rs") {
                    offenders.push(path.display().to_string());
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "thread::scope outside the executor module (uu_core::exec): {offenders:?}"
    );
}
