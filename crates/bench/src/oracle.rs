//! The row oracle: a per-record reference table built from the same raw
//! observations a suite feeds an [`IntegratedTable`], sharing none of its
//! storage.
//!
//! [`RowTable`] keeps today's textbook row model — one [`Entity`] per
//! distinct `Value::entity_key`, first record wins, lineage sorted by
//! source — and extracts sample views one record at a time: each entity is
//! tested with [`Predicate::eval`] and its cells are widened with
//! `Value::as_f64`. The columnar kernels behind
//! [`IntegratedTable::sample_view`] and
//! [`IntegratedTable::grouped_sample_views`], and the rows
//! [`IntegratedTable::entities`] builds from the columns, must match it bit
//! for bit; the parity suites and the `columnar_scan` bench compare against
//! it.

use std::collections::HashMap;

use uu_core::sample::{ObservedItem, SampleView};
use uu_query::predicate::Predicate;
use uu_query::record::Record;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::{Entity, IntegratedTable, TableError};
use uu_query::value::Value;

/// An entity-deduplicated table kept as rows.
#[derive(Debug, Clone)]
pub struct RowTable {
    schema: Schema,
    key_col: usize,
    rows: Vec<Entity>,
    index: HashMap<String, usize>,
}

impl RowTable {
    /// An empty table deduplicating on `key_column`.
    pub fn new(schema: Schema, key_column: &str) -> Result<RowTable, TableError> {
        let key_col = schema
            .index_of(key_column)
            .ok_or_else(|| TableError::UnknownKeyColumn(key_column.to_string()))?;
        Ok(RowTable {
            schema,
            key_col,
            rows: Vec::new(),
            index: HashMap::new(),
        })
    }

    /// A table holding `observations`, inserted in order.
    pub fn from_observations(
        schema: Schema,
        key_column: &str,
        observations: impl IntoIterator<Item = (u32, Vec<Value>)>,
    ) -> Result<RowTable, TableError> {
        let mut table = RowTable::new(schema, key_column)?;
        for (source, values) in observations {
            table.insert(source, values)?;
        }
        Ok(table)
    }

    /// Records that `source` mentioned the entity described by `values`:
    /// a new entity key stores the record, a known one only counts the
    /// observation.
    pub fn insert(&mut self, source: u32, values: Vec<Value>) -> Result<(), TableError> {
        let record = Record::new(&self.schema, values)?;
        let key = record.value(self.key_col);
        if key.is_null() {
            return Err(TableError::NullKey);
        }
        let row = *self.index.entry(key.entity_key()).or_insert_with(|| {
            self.rows.push(Entity {
                record,
                source_counts: Vec::new(),
            });
            self.rows.len() - 1
        });
        let counts = &mut self.rows[row].source_counts;
        match counts.binary_search_by_key(&source, |&(s, _)| s) {
            Ok(pos) => counts[pos].1 += 1,
            Err(pos) => counts.insert(pos, (source, 1)),
        }
        Ok(())
    }

    /// The entities in row order.
    pub fn entities(&self) -> &[Entity] {
        &self.rows
    }

    /// Checks that `table.entities()` are these rows value for value: the
    /// same `Value` variants, float bits (NaN payloads and `-0.0`
    /// included) and lineage, in the same order.
    pub fn assert_same_entities(&self, table: &IntegratedTable) -> Result<(), String> {
        if table.len() != self.rows.len() {
            return Err(format!(
                "{} entities, rows say {}",
                table.len(),
                self.rows.len()
            ));
        }
        for (row, (got, want)) in table.entities().zip(&self.rows).enumerate() {
            let same_cells = got
                .record
                .values()
                .iter()
                .zip(want.record.values())
                .all(|(a, b)| identical(a, b));
            if !same_cells || got.source_counts != want.source_counts {
                return Err(format!("row {row}: {got:?} vs {want:?}"));
            }
        }
        Ok(())
    }

    /// Resolves the aggregate column exactly as the table does: unknown
    /// and TEXT columns are errors, `None` is `COUNT(*)`.
    fn attr_index(&self, attr_column: Option<&str>) -> Result<Option<usize>, TableError> {
        let Some(name) = attr_column else {
            return Ok(None);
        };
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::UnknownColumn(name.to_string()))?;
        match self.schema.column(idx).ty {
            ColumnType::Int | ColumnType::Float => Ok(Some(idx)),
            ColumnType::Str => Err(TableError::NonNumericColumn(name.to_string())),
        }
    }

    /// The entities passing `predicate` whose attribute is non-NULL, each
    /// with its item, in table order.
    fn selected_items(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<Vec<(&Entity, ObservedItem)>, TableError> {
        let attr_idx = self.attr_index(attr_column)?;
        let mut out = Vec::new();
        for entity in &self.rows {
            if !predicate.eval(&self.schema, &entity.record)? {
                continue;
            }
            let value = match attr_idx {
                Some(idx) => match entity.record.value(idx).as_f64() {
                    Some(v) => v,
                    None => continue, // NULL attribute: excluded from AGG
                },
                None => 0.0,
            };
            let item = ObservedItem {
                value,
                multiplicity: entity.multiplicity(),
                source_counts: entity.source_counts.clone(),
            };
            out.push((entity, item));
        }
        Ok(out)
    }

    /// Reference for [`IntegratedTable::sample_view`].
    pub fn sample_view(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<SampleView, TableError> {
        let items = self.selected_items(attr_column, predicate)?;
        Ok(SampleView::from_observed_items(
            items.into_iter().map(|(_, item)| item).collect(),
        ))
    }

    /// Reference for [`IntegratedTable::grouped_sample_views`]: groups
    /// keyed by the group cell's `Value::entity_key`, sorted by that key,
    /// each holding its items in table order and represented by its first
    /// member's value.
    pub fn grouped_sample_views(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<(Value, SampleView)>, TableError> {
        let group_idx = self
            .schema
            .index_of(group_column)
            .ok_or_else(|| TableError::UnknownColumn(group_column.to_string()))?;
        let mut groups: HashMap<String, (Value, Vec<ObservedItem>)> = HashMap::new();
        for (entity, item) in self.selected_items(attr_column, predicate)? {
            let group_value = entity.record.value(group_idx);
            groups
                .entry(group_value.entity_key())
                .or_insert_with(|| (group_value.clone(), Vec::new()))
                .1
                .push(item);
        }
        let mut out: Vec<(Value, SampleView)> = groups
            .into_values()
            .map(|(value, items)| (value, SampleView::from_observed_items(items)))
            .collect();
        out.sort_by_key(|(value, _)| value.entity_key());
        Ok(out)
    }
}

/// Value-for-value identity: the same variant, and for floats the same
/// bits, so `Int(1)` ≠ `Float(1.0)`, `-0.0` ≠ `0.0` and NaN payloads count.
pub fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}
