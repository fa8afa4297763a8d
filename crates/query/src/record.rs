//! Schema-aligned records.

use crate::schema::Schema;
use crate::value::Value;

/// A row whose values align positionally with a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    values: Vec<Value>,
}

/// Why a record was rejected by a schema.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// Value count differs from the schema's column count.
    ArityMismatch {
        /// Columns the schema declares.
        expected: usize,
        /// Values the record carries.
        got: usize,
    },
    /// A value does not conform to its column's declared type.
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// The rejected value.
        value: Value,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::ArityMismatch { expected, got } => {
                write!(f, "record has {got} values, schema expects {expected}")
            }
            RecordError::TypeMismatch { column, value } => {
                write!(f, "value {value} does not fit column {column:?}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl Record {
    /// Validates `values` against `schema` and builds the record.
    pub fn new(schema: &Schema, values: Vec<Value>) -> Result<Self, RecordError> {
        if values.len() != schema.len() {
            return Err(RecordError::ArityMismatch {
                expected: schema.len(),
                got: values.len(),
            });
        }
        for (col, value) in schema.columns().iter().zip(&values) {
            if !col.ty.accepts(value) {
                return Err(RecordError::TypeMismatch {
                    column: col.name.clone(),
                    value: value.clone(),
                });
            }
        }
        Ok(Record { values })
    }

    /// The value at column index `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values in schema order, by value.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema() -> Schema {
        Schema::new([("name", ColumnType::Str), ("employees", ColumnType::Float)])
    }

    #[test]
    fn valid_record() {
        let r = Record::new(&schema(), vec![Value::from("IBM"), Value::Int(100)]).unwrap();
        assert_eq!(r.value(0), &Value::from("IBM"));
        // Int accepted into a Float column.
        assert_eq!(r.value(1).as_f64(), Some(100.0));
    }

    #[test]
    fn arity_mismatch() {
        let err = Record::new(&schema(), vec![Value::from("IBM")]).unwrap_err();
        assert_eq!(
            err,
            RecordError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("1 values"));
    }

    #[test]
    fn type_mismatch() {
        let err = Record::new(&schema(), vec![Value::Int(3), Value::Int(100)]).unwrap_err();
        match err {
            RecordError::TypeMismatch { column, .. } => assert_eq!(column, "name"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nulls_are_accepted_everywhere() {
        let r = Record::new(&schema(), vec![Value::Null, Value::Null]).unwrap();
        assert!(r.value(0).is_null());
    }
}
