//! End-to-end tests of the adoption tooling: CSV ingestion → catalog →
//! corrected SQL, plus the source-sensitivity diagnostic, with a proptest
//! round-trip on the CSV layer.

use proptest::prelude::*;
use uu_core::naive::NaiveEstimator;
use uu_core::sample::replay_checkpoints;
use uu_core::sensitivity::leave_one_source_out;
use uu_datagen::realworld;
use uu_query::catalog::Catalog;
use uu_query::csv::{load_observations, parse_csv};
use uu_query::exec::CorrectionMethod;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;

/// A CSV observation log of the Appendix F toy example flows through
/// ingestion, catalog registration, and corrected SQL to the Table 2 number.
#[test]
fn csv_to_catalog_to_corrected_sql() {
    let csv = "\
worker,company,employees
0,A,1000
0,B,2000
0,D,10000
1,B,2000
1,D,10000
2,D,10000
3,D,10000
4,A,1000
4,E,300
";
    let schema = Schema::new([
        ("company", ColumnType::Str),
        ("employees", ColumnType::Float),
    ]);
    let mut table = IntegratedTable::new("companies", schema, "company").unwrap();
    assert_eq!(load_observations(&mut table, csv, "worker").unwrap(), 9);

    let mut catalog = Catalog::new();
    catalog.register(table).unwrap();
    let r = catalog
        .execute_sql(
            "SELECT SUM(employees) FROM companies",
            CorrectionMethod::Bucket,
        )
        .unwrap()
        .remove(0)
        .result;
    assert_eq!(r.observed, 13_300.0);
    assert!((r.corrected.unwrap() - 13_950.0).abs() < 1e-6); // Table 2
}

/// The sensitivity diagnostic flags the GDP streaker as the most influential
/// source — the §2.2 independence failure made visible.
#[test]
fn sensitivity_flags_the_gdp_streaker() {
    let d = realworld::us_gdp(13);
    let (_, view) = replay_checkpoints(d.stream(), &[60]).remove(0);
    let report = leave_one_source_out(&view, &NaiveEstimator::default()).unwrap();
    let top = report.most_influential().unwrap();
    // The streaker is the source with the 45-state dump.
    let max_contribution = report
        .influences
        .iter()
        .map(|i| i.contribution)
        .max()
        .unwrap();
    assert_eq!(top.contribution, max_contribution);
    assert_eq!(top.contribution, 45);
    assert!(report.max_relative_shift().unwrap() > 0.10);
}

/// On a balanced multi-source workload no single source dominates.
#[test]
fn sensitivity_is_flat_on_balanced_sources() {
    let d = realworld::tech_employment(13);
    let (_, view) = replay_checkpoints(d.stream(), &[500]).remove(0);
    let report = leave_one_source_out(&view, &NaiveEstimator::default()).unwrap();
    // 100 workers with 5 answers each: every influence should be small.
    assert!(report.max_relative_shift().unwrap() < 0.10);
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

proptest! {
    /// Arbitrary field content survives a serialize → parse round-trip.
    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec(
        proptest::collection::vec("[ -~]{0,12}", 1..5), 1..10)
    ) {
        // Constant column count per document.
        let width = rows[0].len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width.max(1), String::new());
                r
            })
            .collect();
        let doc: String = rows
            .iter()
            .map(|r| r.iter().map(|f| csv_escape(f)).collect::<Vec<_>>().join(","))
            .map(|line| format!("{line}\n"))
            .collect();
        let parsed = parse_csv(&doc).unwrap();
        // A document of entirely empty fields in one column parses to one
        // empty-string field per row; general equality otherwise.
        prop_assert_eq!(parsed.len(), rows.len());
        for (got, want) in parsed.iter().zip(&rows) {
            prop_assert_eq!(got, want);
        }
    }

    /// The loader is panic-free on arbitrary input.
    #[test]
    fn csv_loader_is_panic_free(input in "[ -~\n\"]*") {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut table = IntegratedTable::new("t", schema, "k").unwrap();
        let _ = load_observations(&mut table, &input, "worker");
    }
}

/// Catalog + grouped SQL over two tables loaded from CSV.
#[test]
fn catalog_hosts_multiple_tables() {
    let mut catalog = Catalog::new();
    for name in ["east", "west"] {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new(name, schema, "k").unwrap();
        let csv = "worker,k,v\n0,a,1\n0,b,2\n1,a,1\n1,b,2\n";
        load_observations(&mut t, csv, "worker").unwrap();
        catalog.register(t).unwrap();
    }
    assert_eq!(catalog.table_names(), vec!["east", "west"]);
    for name in ["east", "west"] {
        let r = catalog
            .execute_sql(
                &format!("SELECT SUM(v) FROM {name}"),
                CorrectionMethod::Naive,
            )
            .unwrap()
            .remove(0)
            .result;
        assert_eq!(r.observed, 3.0);
        assert_eq!(r.corrected, Some(3.0)); // complete: every entity seen twice
    }
    // And values keep their table identity.
    catalog
        .get_mut("east")
        .unwrap()
        .insert_observation(7, vec![Value::from("c"), Value::from(9.0)])
        .unwrap();
    let east = catalog
        .execute_sql("SELECT COUNT(*) FROM east", CorrectionMethod::None)
        .unwrap()
        .remove(0)
        .result;
    let west = catalog
        .execute_sql("SELECT COUNT(*) FROM west", CorrectionMethod::None)
        .unwrap()
        .remove(0)
        .result;
    assert_eq!(east.observed, 3.0);
    assert_eq!(west.observed, 2.0);
}
