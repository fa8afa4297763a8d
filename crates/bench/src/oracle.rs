//! Per-record reference implementations of the table's sample-view
//! extraction, written over the public [`IntegratedTable`] API: each entity
//! is tested with [`Predicate::eval`] and its cells are widened with
//! `Value::as_f64`, one record at a time. The columnar kernels behind
//! [`IntegratedTable::sample_view`] and
//! [`IntegratedTable::grouped_sample_views`] must match these bit for bit;
//! the parity suites and the `columnar_scan` bench compare against them.

use std::collections::HashMap;

use uu_core::sample::{ObservedItem, SampleView};
use uu_query::predicate::Predicate;
use uu_query::schema::ColumnType;
use uu_query::table::{Entity, IntegratedTable, TableError};
use uu_query::value::Value;

/// Resolves the aggregate column exactly as the table does: unknown and
/// TEXT columns are errors, `None` is `COUNT(*)`.
fn attr_index(
    table: &IntegratedTable,
    attr_column: Option<&str>,
) -> Result<Option<usize>, TableError> {
    let Some(name) = attr_column else {
        return Ok(None);
    };
    let schema = table.schema();
    let idx = schema
        .index_of(name)
        .ok_or_else(|| TableError::UnknownColumn(name.to_string()))?;
    match schema.column(idx).ty {
        ColumnType::Int | ColumnType::Float => Ok(Some(idx)),
        ColumnType::Str => Err(TableError::NonNumericColumn(name.to_string())),
    }
}

/// The entities passing `predicate` whose attribute is non-NULL, each with
/// its item, in table order.
fn selected_items<'t>(
    table: &'t IntegratedTable,
    attr_column: Option<&str>,
    predicate: &Predicate,
) -> Result<Vec<(&'t Entity, ObservedItem)>, TableError> {
    let attr_idx = attr_index(table, attr_column)?;
    let mut out = Vec::new();
    for entity in table.entities() {
        if !predicate.eval(table.schema(), &entity.record)? {
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
pub fn sample_view_rows(
    table: &IntegratedTable,
    attr_column: Option<&str>,
    predicate: &Predicate,
) -> Result<SampleView, TableError> {
    let items = selected_items(table, attr_column, predicate)?;
    Ok(SampleView::from_observed_items(
        items.into_iter().map(|(_, item)| item).collect(),
    ))
}

/// Reference for [`IntegratedTable::grouped_sample_views`]: groups keyed by
/// the group cell's `Value::entity_key`, sorted by that key, each holding
/// its items in table order and represented by its first member's value.
pub fn grouped_sample_views_rows(
    table: &IntegratedTable,
    attr_column: Option<&str>,
    predicate: &Predicate,
    group_column: &str,
) -> Result<Vec<(Value, SampleView)>, TableError> {
    let group_idx = table
        .schema()
        .index_of(group_column)
        .ok_or_else(|| TableError::UnknownColumn(group_column.to_string()))?;
    let mut groups: HashMap<String, (Value, Vec<ObservedItem>)> = HashMap::new();
    for (entity, item) in selected_items(table, attr_column, predicate)? {
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
