//! Open-world SQL over an integrated table.
//!
//! Loads the simulated US-GDP crowdsourcing run into an `IntegratedTable`
//! (state names as entity keys, the 50 real 2015 GDP values) and issues SQL
//! with `CorrectionMethod::Auto`: the executor diagnoses the source
//! imbalance, picks the right estimator, and annotates the result with the
//! upper bound and MIN/MAX trust reports.
//!
//! Run with: `cargo run --release -p uu-examples --bin sql_open_world`

use uu_datagen::realworld::{us_gdp, US_STATE_GDP_2015_MUSD};
use uu_query::exec::{execute_sql, CorrectionMethod};
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

fn main() {
    let dataset = us_gdp(3);
    let schema = Schema::new([
        ("state", ColumnType::Str),
        ("gdp", ColumnType::Float),
        ("size_class", ColumnType::Str),
    ]);
    let mut table = IntegratedTable::new("us_states", schema, "state").expect("schema ok");

    // Feed the crowd answers into the table. Item ids index the population,
    // which was built from US_STATE_GDP_2015_MUSD in the same order.
    for (item, value, source) in dataset.stream() {
        let (name, _) = US_STATE_GDP_2015_MUSD[item as usize];
        let size_class = if value > 400_000.0 { "large" } else { "small" };
        table
            .insert_observation(
                source,
                vec![
                    Value::from(name),
                    Value::from(value),
                    Value::from(size_class),
                ],
            )
            .expect("valid row");
    }

    println!(
        "== open-world SQL over {} crowd answers ==",
        dataset.sample.len()
    );
    println!("ground truth SUM(gdp) = {:.0}", dataset.ground_truth_sum());
    println!();

    let queries = [
        "SELECT SUM(gdp) FROM us_states",
        "SELECT COUNT(*) FROM us_states",
        "SELECT AVG(gdp) FROM us_states",
        "SELECT MAX(gdp) FROM us_states",
        "SELECT MIN(gdp) FROM us_states",
        "SELECT SUM(gdp) FROM us_states WHERE gdp > 500000",
    ];
    for sql in queries {
        // An ungrouped query answers with a single row.
        let r = execute_sql(&table, sql, CorrectionMethod::Auto)
            .expect("query runs")
            .remove(0)
            .result;
        println!("{sql}");
        print!("  observed = {:.1}", r.observed);
        match r.corrected {
            Some(c) => print!("   corrected[{}] = {:.1}", r.method, c),
            None => print!("   (no correction: {})", r.method),
        }
        if let Some(b) = r.upper_bound {
            print!("   upper-bound = {b:.1}");
        }
        if let Some(e) = r.extreme {
            print!(
                "   extreme = {}",
                if e.is_trusted() {
                    "TRUSTED"
                } else {
                    "not trusted"
                }
            );
        }
        println!();
        println!(
            "  sources = {}, max-share = {:.0}%, recommendation = {:?}",
            r.diagnostics.contributing_sources,
            r.diagnostics.max_source_share.unwrap_or(0.0) * 100.0,
            r.recommendation
        );
        println!();
    }

    // GROUP BY: one open-world-corrected aggregate per group — each group is
    // its own estimation universe (how many *large* states are we missing?).
    let sql = "SELECT SUM(gdp) FROM us_states GROUP BY size_class";
    println!("{sql}");
    for group in execute_sql(&table, sql, CorrectionMethod::Naive).expect("query runs") {
        println!(
            "  {} -> observed = {:.1}, corrected = {}",
            group.key,
            group.result.observed,
            group
                .result
                .corrected
                .map(|c| format!("{c:.1}"))
                .unwrap_or_else(|| "-".to_string()),
        );
    }
}
