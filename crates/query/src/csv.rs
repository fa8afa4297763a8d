//! Minimal RFC-4180 CSV ingestion for observation logs.
//!
//! Real integration pipelines usually arrive as flat files of *observations*
//! — one row per (source, entity, attributes) sighting, duplicates included.
//! [`load_observations`] streams such a file into an [`IntegratedTable`],
//! preserving the lineage the estimators need. The parser is deliberately
//! strict RFC 4180 (quoted fields, doubled-quote escapes, CRLF/ LF), with no
//! external dependency.

use crate::schema::{ColumnType, Schema};
use crate::table::{IntegratedTable, TableError};
use crate::value::Value;

/// Errors raised while parsing or loading CSV data.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// Structural CSV problem (unbalanced quotes, stray quote, …).
    Malformed {
        /// 1-based line where the problem surfaced.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The header is missing a required column.
    MissingColumn(String),
    /// A row has a different field count than the header.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field failed to parse under the declared column type.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: String,
        /// Raw field content.
        content: String,
    },
    /// The table rejected a record.
    Table(TableError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Malformed { line, message } => {
                write!(f, "malformed CSV at line {line}: {message}")
            }
            CsvError::MissingColumn(c) => write!(f, "CSV header is missing column {c:?}"),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line} has {got} fields, header has {expected}")
            }
            CsvError::BadField {
                line,
                column,
                content,
            } => {
                write!(
                    f,
                    "line {line}, column {column:?}: cannot parse {content:?}"
                )
            }
            CsvError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<TableError> for CsvError {
    fn from(e: TableError) -> Self {
        CsvError::Table(e)
    }
}

/// Parses an RFC-4180 document into rows of fields.
///
/// Handles quoted fields, `""` escapes, embedded separators/newlines in
/// quoted fields, and both LF and CRLF line endings. A trailing newline does
/// not produce an empty final record.
pub fn parse_csv(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut line = 1usize;
    let mut in_quotes = false;
    let mut field_started_quoted = false;
    let mut chars = input.chars().peekable();

    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                other => field.push(other),
            }
            continue;
        }
        match ch {
            '"' => {
                if field.is_empty() && !field_started_quoted {
                    in_quotes = true;
                    field_started_quoted = true;
                } else {
                    return Err(CsvError::Malformed {
                        line,
                        message: "quote in the middle of an unquoted field".into(),
                    });
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                field_started_quoted = false;
            }
            '\r' => {
                // Only meaningful as part of CRLF; swallow if LF follows.
                if chars.peek() == Some(&'\n') {
                    continue;
                }
                return Err(CsvError::Malformed {
                    line,
                    message: "lone carriage return".into(),
                });
            }
            '\n' => {
                row.push(std::mem::take(&mut field));
                rows.push(std::mem::take(&mut row));
                field_started_quoted = false;
                line += 1;
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(CsvError::Malformed {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Loads an observation log into `table`.
///
/// The header row must contain `source_column` (parsed as an unsigned
/// integer source id) plus one column per schema column, matched by name
/// case-insensitively; extra CSV columns are ignored. Empty fields become
/// NULL. The rows load as one append batch: on any error none of them is
/// applied. Returns the number of observations loaded.
///
/// # Examples
///
/// ```
/// use uu_query::csv::load_observations;
/// use uu_query::schema::{ColumnType, Schema};
/// use uu_query::table::IntegratedTable;
///
/// let schema = Schema::new([("company", ColumnType::Str), ("employees", ColumnType::Float)]);
/// let mut table = IntegratedTable::new("t", schema, "company").unwrap();
/// let csv = "worker,company,employees\n0,A,1000\n0,B,2000\n1,B,2000\n";
/// assert_eq!(load_observations(&mut table, csv, "worker").unwrap(), 3);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.total_observations(), 3);
/// ```
pub fn load_observations(
    table: &mut IntegratedTable,
    csv: &str,
    source_column: &str,
) -> Result<usize, CsvError> {
    let batch = parse_observations(table.schema(), csv, source_column)?;
    let loaded = batch.len();
    table.append_batch(batch)?;
    Ok(loaded)
}

/// Parses an observation log into `(source id, record values)` pairs under
/// `schema`, without touching a table — the shared decode step of
/// [`load_observations`] and the server's `append_stream` path (which hands
/// the batch to the catalog's delta-maintenance layer instead of inserting
/// row by row). Header rules match [`load_observations`] exactly.
pub fn parse_observations(
    schema: &Schema,
    csv: &str,
    source_column: &str,
) -> Result<Vec<(u32, Vec<Value>)>, CsvError> {
    let rows = parse_csv(csv)?;
    let Some((header, body)) = rows.split_first() else {
        return Ok(Vec::new());
    };
    let find = |name: &str| {
        header
            .iter()
            .position(|h| h.trim().eq_ignore_ascii_case(name))
    };
    let source_idx =
        find(source_column).ok_or_else(|| CsvError::MissingColumn(source_column.to_string()))?;
    // Map each schema column to a CSV column.
    let mut mapping = Vec::with_capacity(schema.len());
    for col in schema.columns() {
        let idx = find(&col.name).ok_or_else(|| CsvError::MissingColumn(col.name.clone()))?;
        mapping.push((idx, col.name.clone(), col.ty));
    }

    let mut batch = Vec::with_capacity(body.len());
    for (row_no, row) in body.iter().enumerate() {
        let line = row_no + 2; // header is line 1
        if row.len() != header.len() {
            return Err(CsvError::RaggedRow {
                line,
                got: row.len(),
                expected: header.len(),
            });
        }
        let source: u32 = row[source_idx]
            .trim()
            .parse()
            .map_err(|_| CsvError::BadField {
                line,
                column: source_column.to_string(),
                content: row[source_idx].clone(),
            })?;
        let mut values = Vec::with_capacity(mapping.len());
        for (idx, name, ty) in &mapping {
            let raw = row[*idx].trim();
            let value = if raw.is_empty() {
                Value::Null
            } else {
                match ty {
                    ColumnType::Int => {
                        raw.parse::<i64>()
                            .map(Value::Int)
                            .map_err(|_| CsvError::BadField {
                                line,
                                column: name.clone(),
                                content: raw.to_string(),
                            })?
                    }
                    ColumnType::Float => {
                        raw.parse::<f64>()
                            .map(Value::Float)
                            .map_err(|_| CsvError::BadField {
                                line,
                                column: name.clone(),
                                content: raw.to_string(),
                            })?
                    }
                    ColumnType::Str => Value::Str(row[*idx].clone()),
                }
            };
            values.push(value);
        }
        batch.push((source, values));
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn parses_plain_rows() {
        let rows = parse_csv("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parses_quotes_escapes_and_crlf() {
        let input = "name,note\r\n\"Smith, John\",\"said \"\"hi\"\"\"\r\n\"multi\nline\",x\r\n";
        let rows = parse_csv(input).unwrap();
        assert_eq!(rows[1][0], "Smith, John");
        assert_eq!(rows[1][1], "said \"hi\"");
        assert_eq!(rows[2][0], "multi\nline");
    }

    #[test]
    fn no_trailing_phantom_row() {
        assert_eq!(parse_csv("a\n").unwrap().len(), 1);
        assert_eq!(parse_csv("a").unwrap().len(), 1);
        assert_eq!(parse_csv("").unwrap().len(), 0);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            parse_csv("a,\"unterminated\n"),
            Err(CsvError::Malformed { .. })
        ));
        assert!(matches!(
            parse_csv("a,b\"mid\n"),
            Err(CsvError::Malformed { .. })
        ));
        assert!(matches!(
            parse_csv("a\rb\n"),
            Err(CsvError::Malformed { .. })
        ));
    }

    fn tech_table() -> IntegratedTable {
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
        ]);
        IntegratedTable::new("t", schema, "company").unwrap()
    }

    #[test]
    fn loads_toy_example_from_csv() {
        let csv = "\
worker,company,employees
0,A,1000
0,B,2000
0,D,10000
1,B,2000
1,D,10000
2,D,10000
3,D,10000
";
        let mut table = tech_table();
        assert_eq!(load_observations(&mut table, csv, "worker").unwrap(), 7);
        assert_eq!(table.len(), 3);
        assert_eq!(table.total_observations(), 7);
        let view = table
            .sample_view(Some("employees"), &crate::predicate::Predicate::True)
            .unwrap();
        assert_eq!(view.observed_sum(), 13_000.0);
        assert_eq!(view.source_sizes(), &[3, 2, 1, 1]);
    }

    #[test]
    fn extra_columns_are_ignored_and_order_is_free() {
        let csv = "employees,ignored,worker,company\n100,x,7,Acme\n";
        let mut table = tech_table();
        assert_eq!(load_observations(&mut table, csv, "worker").unwrap(), 1);
        let entity = table.entity(&Value::from("Acme")).unwrap();
        assert_eq!(entity.source_counts, vec![(7, 1)]);
    }

    #[test]
    fn empty_fields_become_null() {
        let csv = "worker,company,employees\n0,A,\n";
        let mut table = tech_table();
        load_observations(&mut table, csv, "worker").unwrap();
        assert!(table
            .entity(&Value::from("A"))
            .unwrap()
            .record
            .value(1)
            .is_null());
    }

    #[test]
    fn loader_errors() {
        let mut table = tech_table();
        assert!(matches!(
            load_observations(&mut table, "company,employees\nA,1\n", "worker"),
            Err(CsvError::MissingColumn(c)) if c == "worker"
        ));
        assert!(matches!(
            load_observations(&mut table, "worker,company\n0,A\n", "worker"),
            Err(CsvError::MissingColumn(c)) if c == "employees"
        ));
        assert!(matches!(
            load_observations(&mut table, "worker,company,employees\n0,A\n", "worker"),
            Err(CsvError::RaggedRow {
                line: 2,
                got: 2,
                expected: 3
            })
        ));
        assert!(matches!(
            load_observations(&mut table, "worker,company,employees\nx,A,1\n", "worker"),
            Err(CsvError::BadField { .. })
        ));
        assert!(matches!(
            load_observations(&mut table, "worker,company,employees\n0,A,abc\n", "worker"),
            Err(CsvError::BadField { .. })
        ));
    }

    #[test]
    fn empty_document_loads_nothing() {
        let mut table = tech_table();
        assert_eq!(load_observations(&mut table, "", "worker").unwrap(), 0);
    }
}
