//! Quickstart: correct a SUM query for unknown unknowns.
//!
//! Builds the paper's toy integration scenario (Appendix F) by hand — five
//! data sources reporting US tech companies — and runs aggregate queries
//! with open-world correction through the SQL front-end.
//!
//! Run with: `cargo run -p uu-examples --bin quickstart`

use uu_query::exec::{execute_sql, CorrectionMethod, QueryResult};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

/// Answers an ungrouped query: the single row `execute_sql` returns for it.
fn answer(table: &IntegratedTable, sql: &str, method: CorrectionMethod) -> QueryResult {
    let mut rows = execute_sql(table, sql, method).expect("query runs");
    rows.remove(0).result
}

fn main() {
    // One integrated table, entity-keyed by company name. Each observation
    // records which source mentioned the company (the lineage the estimators
    // feed on).
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
    ]);
    let mut table =
        IntegratedTable::new("us_tech_companies", schema, "company").expect("key column exists");

    // Appendix F, after source s5: A seen by s1 & s5, B by s1 & s2,
    // D by s1..s4, E only by s5. The true universe also contains company C,
    // which no source mentions — the unknown unknown.
    let observations: [(u32, &str, f64); 9] = [
        (0, "A", 1000.0),
        (0, "B", 2000.0),
        (0, "D", 10_000.0),
        (1, "B", 2000.0),
        (1, "D", 10_000.0),
        (2, "D", 10_000.0),
        (3, "D", 10_000.0),
        (4, "A", 1000.0),
        (4, "E", 300.0),
    ];
    for (source, company, employees) in observations {
        table
            .insert_observation(source, vec![Value::from(company), Value::from(employees)])
            .expect("valid row");
    }

    let ground_truth = 1000.0 + 2000.0 + 900.0 + 10_000.0 + 300.0; // incl. hidden company C

    println!("== Unknown unknowns, quickstart ==");
    println!("ground truth (incl. the company no source mentions): {ground_truth}");
    println!();

    let sql = "SELECT SUM(employees) FROM us_tech_companies";
    println!("{sql}");
    for method in [
        ("closed world", CorrectionMethod::None),
        ("naive", CorrectionMethod::Naive),
        ("frequency", CorrectionMethod::Frequency),
        ("bucket", CorrectionMethod::Bucket),
    ] {
        let r = answer(&table, sql, method.1);
        match r.corrected {
            Some(corrected) => println!(
                "  {:<13} observed = {:>8.1}   corrected = {:>8.1}   (error vs truth: {:>+6.1})",
                method.0,
                r.observed,
                corrected,
                corrected - ground_truth
            ),
            None => println!(
                "  {:<13} observed = {:>8.1}   (error vs truth: {:>+6.1})",
                method.0,
                r.observed,
                r.observed - ground_truth
            ),
        }
    }

    println!();
    let count = answer(
        &table,
        "SELECT COUNT(*) FROM us_tech_companies",
        CorrectionMethod::Naive,
    );
    println!(
        "COUNT(*): observed = {} unique companies, Chao92 estimates {:.2} exist",
        count.observed,
        count.corrected.unwrap()
    );

    let max = answer(
        &table,
        "SELECT MAX(employees) FROM us_tech_companies",
        CorrectionMethod::Bucket,
    );
    let min = answer(
        &table,
        "SELECT MIN(employees) FROM us_tech_companies",
        CorrectionMethod::Bucket,
    );
    println!();
    println!(
        "MAX(employees) = {} -> {}",
        max.observed,
        if max.extreme.map(|e| e.is_trusted()).unwrap_or(false) {
            "trusted (high bucket looks complete)"
        } else {
            "NOT trusted"
        }
    );
    println!(
        "MIN(employees) = {} -> {}",
        min.observed,
        if min.extreme.map(|e| e.is_trusted()).unwrap_or(false) {
            "trusted"
        } else {
            "NOT trusted (the low bucket likely misses a small company)"
        }
    );

    println!();
    println!(
        "diagnostics: coverage = {:.2}, sources = {}, recommendation = {:?}",
        max.diagnostics.coverage.unwrap_or(f64::NAN),
        max.diagnostics.contributing_sources,
        max.recommendation
    );
}
