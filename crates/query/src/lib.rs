//! # uu-query — open-world aggregate query processing
//!
//! A small, self-contained aggregate query engine over *integrated* tables:
//! tables assembled from multiple overlapping data sources, with per-entity
//! lineage (which source mentioned which entity, how often). On top of the
//! closed-world answer, the executor attaches the unknown-unknowns
//! correction of `uu-core`: `SELECT SUM(attr) FROM t` returns both the
//! observed sum `φ_K` and the corrected estimate `φ̂_D = φ_K + Δ̂`, plus the
//! §4 upper bound and the §6.5 estimator recommendation.
//!
//! Modules:
//!
//! * [`value`] / [`schema`] / [`record`] — a minimal typed row model.
//! * [`table`] — [`table::IntegratedTable`]: entity-deduplicated storage with
//!   observation lineage (the paper's `K` view over the multiset `S`).
//! * [`columnar`] — columnar projections and the vectorized predicate /
//!   sort kernels behind the cold query path.
//! * [`predicate`] — a typed predicate AST (`WHERE` clauses).
//! * [`query`] — aggregate query description + fluent builder.
//! * [`sql`] — a hand-written parser for the paper's query form
//!   `SELECT AGG(attr) FROM table [WHERE predicate]`.
//! * [`exec`] — closed-world + open-world execution: every query freezes its
//!   selection's estimation universes and answers from them.
//! * [`catalog`] — multiple named tables with cached SQL dispatch.
//! * [`csv`] — minimal RFC-4180 CSV ingestion of observation logs.
//!
//! ```
//! use uu_query::table::IntegratedTable;
//! use uu_query::schema::{ColumnType, Schema};
//! use uu_query::value::Value;
//! use uu_query::exec::{execute_sql, CorrectionMethod};
//!
//! let schema = Schema::new([("company", ColumnType::Str), ("employees", ColumnType::Float)]);
//! let mut table = IntegratedTable::new("us_tech_companies", schema, "company").unwrap();
//! for (source, company, employees) in [
//!     (0, "A", 1000.0), (0, "B", 2000.0), (0, "D", 10_000.0),
//!     (1, "B", 2000.0), (1, "D", 10_000.0),
//!     (2, "D", 10_000.0), (3, "D", 10_000.0),
//! ] {
//!     table.insert_observation(source, vec![Value::from(company), Value::from(employees)]).unwrap();
//! }
//! let rows = execute_sql(
//!     &table,
//!     "SELECT SUM(employees) FROM us_tech_companies",
//!     CorrectionMethod::Bucket,
//! ).unwrap();
//! // An ungrouped query answers with a single NULL-keyed row.
//! assert!(rows[0].key.is_null());
//! let result = &rows[0].result;
//! assert_eq!(result.observed, 13_000.0);
//! assert!((result.corrected.unwrap() - 14_500.0).abs() < 1e-6); // Table 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod csv;
pub mod exec;
pub mod predicate;
pub mod query;
pub mod record;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use exec::{
    execute_sql, freeze_selection, results_from_selection, selection, selection_bytes,
    CorrectionMethod, GroupResult, QueryProfileCache, QueryResult, SelectionSnapshots,
};
pub use predicate::{CmpOp, Predicate};
pub use query::{AggregateFunction, AggregateQuery};
pub use schema::{ColumnType, Schema};
pub use table::IntegratedTable;
pub use value::Value;
