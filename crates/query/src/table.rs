//! Integrated tables: entity-deduplicated storage with observation lineage.
//!
//! An [`IntegratedTable`] is the paper's `K` (one row per unique entity)
//! together with the information that defines the multiset `S`: how many
//! times each entity was observed, by which source. The end user queries the
//! deduplicated view; the estimators consume the lineage.
//!
//! The table is stored as columns only (a [`Projection`]): cells in
//! primitive buffers, a multiplicity column, a per-row lineage list and an
//! entity-key index. Every write — [`IntegratedTable::append_batch`],
//! [`IntegratedTable::insert_observation`] and
//! [`IntegratedTable::restore`] — goes through the store's one column
//! writer. Rows ([`Entity`]) are built on demand from the columns, for the
//! few callers that want them: re-freezing a cached selection, checkpoints
//! and tooling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::columnar::{self, GroupKey, Projection};
use crate::predicate::{Predicate, PredicateError};
use crate::record::{Record, RecordError};
use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use uu_core::obs::{ProjectionCounters, ProjectionStats};
use uu_core::sample::{ObservedItem, SampleView};

/// Errors raised by table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// The designated entity-key column does not exist.
    UnknownKeyColumn(String),
    /// A record failed schema validation.
    Record(RecordError),
    /// The entity key of a record is NULL.
    NullKey,
    /// A column referenced by a query does not exist.
    UnknownColumn(String),
    /// The aggregate attribute column is not numeric.
    NonNumericColumn(String),
    /// A predicate failed to evaluate.
    Predicate(PredicateError),
    /// Persisted rows handed to [`IntegratedTable::restore`] repeat an
    /// entity key — live tables are entity-deduplicated, so the snapshot
    /// does not describe a table this code wrote.
    DuplicateEntity(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::UnknownKeyColumn(c) => write!(f, "unknown key column {c:?}"),
            TableError::Record(e) => write!(f, "invalid record: {e}"),
            TableError::NullKey => write!(f, "entity key must not be NULL"),
            TableError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            TableError::NonNumericColumn(c) => {
                write!(
                    f,
                    "column {c:?} is not numeric; aggregates need INT or FLOAT"
                )
            }
            TableError::Predicate(e) => write!(f, "predicate error: {e}"),
            TableError::DuplicateEntity(k) => {
                write!(f, "persisted rows repeat entity key {k:?}")
            }
        }
    }
}

impl std::error::Error for TableError {}

impl From<RecordError> for TableError {
    fn from(e: RecordError) -> Self {
        TableError::Record(e)
    }
}

impl From<PredicateError> for TableError {
    fn from(e: PredicateError) -> Self {
        TableError::Predicate(e)
    }
}

/// One unique entity with its lineage, built from the table's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// The record under the table schema (first observation wins; upstream
    /// data cleaning is assumed, per the paper's §2).
    pub record: Record,
    /// `(source_id, observation_count)` — sorted by source id.
    pub source_counts: Vec<(u32, u32)>,
}

impl Entity {
    /// Total observations of this entity across sources.
    pub fn multiplicity(&self) -> u64 {
        self.source_counts.iter().map(|&(_, k)| k as u64).sum()
    }
}

/// What an accepted append batch changed, in terms every delta-maintained
/// cache layer needs: the version window, the row window, and which
/// pre-existing rows had their lineage (hence multiplicity) bumped by
/// duplicate keys in the batch. Every append is delta-maintained; a layer
/// that cannot absorb a delta drops its own state instead (see
/// `exec::refreeze_selection`).
#[derive(Debug, Clone, PartialEq)]
pub struct AppendDelta {
    /// Table version before the batch was applied.
    pub version_before: u64,
    /// Table version after (`version_before` + accepted observations).
    pub version_after: u64,
    /// Entity count before the batch.
    pub rows_before: usize,
    /// Entity count after.
    pub rows_after: usize,
    /// Indices (< `rows_before`, ascending, deduplicated) of pre-existing
    /// entities the batch re-observed. Their records are unchanged — first
    /// record wins — but their multiplicities grew.
    pub touched: Vec<u32>,
    /// Sort permutations absorbed by merge instead of a re-sort.
    pub perm_merges: u64,
}

/// Process-unique table-instance ids, so profile-cache keys can tell two
/// same-named tables apart (a per-instance insert counter alone could
/// coincide).
static TABLE_INSTANCES: AtomicU64 = AtomicU64::new(0);

fn next_instance() -> u64 {
    TABLE_INSTANCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Persisted entity rows: `(record values, (source, count) lineage)` in
/// original row order — the shape [`IntegratedTable::restore`] consumes
/// and checkpoints produce.
pub type EntityRows = Vec<(Vec<Value>, Vec<(u32, u32)>)>;

/// An integrated, entity-deduplicated table with lineage.
#[derive(Debug)]
pub struct IntegratedTable {
    name: String,
    schema: Schema,
    key_col: usize,
    /// The column store: the table's only copy of its data.
    columns: Projection,
    /// Mutation counter: bumped by every accepted observation. Part of the
    /// cross-query [`uu_core::profile::ProfileKey`], so cached profiles of an
    /// older table state can never be returned.
    version: u64,
    /// Process-unique identity (fresh per constructor call *and* per clone),
    /// also part of the cache key: two distinct tables that happen to share a
    /// name and a version can never serve each other's cached profiles.
    instance: u64,
    /// Column-store telemetry: `builds` is 1 when the columns were written
    /// from persisted rows ([`IntegratedTable::restore`]), `reuses` counts
    /// the reads they served; `bytes` is measured on snapshot.
    counters: ProjectionCounters,
}

impl Clone for IntegratedTable {
    /// Clones the contents but assigns a **fresh instance id**: the clone is
    /// a different table that may diverge from the original, so it must not
    /// share cached profiles with it. Its counters start at zero.
    fn clone(&self) -> Self {
        IntegratedTable {
            name: self.name.clone(),
            schema: self.schema.clone(),
            key_col: self.key_col,
            columns: self.columns.clone(),
            version: self.version,
            instance: next_instance(),
            counters: ProjectionCounters::default(),
        }
    }
}

impl IntegratedTable {
    /// Creates an empty table. `key_column` names the column whose value
    /// identifies an entity (entity resolution is assumed done upstream).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
    ) -> Result<Self, TableError> {
        let key_col = schema
            .index_of(key_column)
            .ok_or_else(|| TableError::UnknownKeyColumn(key_column.to_string()))?;
        Ok(IntegratedTable {
            name: name.into(),
            columns: Projection::new(&schema, key_col),
            schema,
            key_col,
            version: 0,
            instance: next_instance(),
            counters: ProjectionCounters::default(),
        })
    }

    /// Table name (matched case-insensitively by the executor).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mutation counter: 0 for a fresh table, +1 per accepted
    /// observation. Together with [`IntegratedTable::instance`] it identifies
    /// a table *state* in profile-cache keys.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this table object (fresh per construction
    /// and per clone).
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The entity-key column's name.
    pub fn key_column(&self) -> &str {
        &self.schema.columns()[self.key_col].name
    }

    /// Validates `values` as a record of this table with a non-NULL key.
    fn checked_cells(&self, values: Vec<Value>) -> Result<Vec<Value>, TableError> {
        let record = Record::new(&self.schema, values)?;
        if record.value(self.key_col).is_null() {
            return Err(TableError::NullKey);
        }
        Ok(record.into_values())
    }

    /// Rebuilds a table from persisted state: entities in their original
    /// row order (values + per-source lineage counts) and the version
    /// counter they were persisted at. Row order matters — selection masks
    /// and sort permutations persisted alongside the table index into it.
    /// The instance id is fresh (this is a new table object); the caller
    /// re-keys any persisted cache entries against it.
    pub fn restore(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
        entities: EntityRows,
        version: u64,
    ) -> Result<Self, TableError> {
        let mut table = IntegratedTable::new(name, schema, key_column)?;
        let staged = entities
            .into_iter()
            .map(|(values, source_counts)| Ok((table.checked_cells(values)?, source_counts)))
            .collect::<Result<Vec<_>, TableError>>()?;
        if let Some(&row) = table.columns.extend_for_append(staged).0.first() {
            let key = table.columns.cell(table.key_col, row as usize);
            return Err(TableError::DuplicateEntity(key.entity_key()));
        }
        table.version = version;
        table.counters.builds.store(1, Ordering::Relaxed);
        Ok(table)
    }

    /// Records that `source_id` mentioned the entity described by `values`:
    /// an append batch of one.
    ///
    /// If the entity (by key column) is new, the record is stored; otherwise
    /// only the lineage is updated (first record wins — the paper assumes
    /// upstream fusion resolved value conflicts).
    pub fn insert_observation(
        &mut self,
        source_id: u32,
        values: Vec<Value>,
    ) -> Result<(), TableError> {
        let cells = self.checked_cells(values)?;
        self.version += 1;
        self.columns
            .extend_for_append([(cells, vec![(source_id, 1)])]);
        Ok(())
    }

    /// Applies a batch of observations as an *append*: the version bumps
    /// once per accepted observation (exactly as repeated
    /// [`IntegratedTable::insert_observation`] calls would), the columns
    /// grow in place — buffers extend, dictionaries widen, built sort
    /// permutations absorb the delta by sorted merge. The returned
    /// [`AppendDelta`] tells downstream caches (profile snapshots, selection
    /// masks) what changed.
    ///
    /// The batch is validated in full before anything is applied: on error
    /// the table is unchanged.
    pub fn append_batch(
        &mut self,
        batch: Vec<(u32, Vec<Value>)>,
    ) -> Result<AppendDelta, TableError> {
        let staged = batch
            .into_iter()
            .map(|(source_id, values)| Ok((self.checked_cells(values)?, vec![(source_id, 1)])))
            .collect::<Result<Vec<_>, TableError>>()?;
        let version_before = self.version;
        let rows_before = self.len();
        self.version += staged.len() as u64;
        let (mut touched, perm_merges) = self.columns.extend_for_append(staged);
        touched.retain(|&row| (row as usize) < rows_before);
        Ok(AppendDelta {
            version_before,
            version_after: self.version,
            rows_before,
            rows_after: self.len(),
            touched,
            perm_merges: perm_merges as u64,
        })
    }

    /// The entity at row index `row` (table order), built from the columns.
    pub fn entity_at(&self, row: usize) -> Entity {
        Entity {
            record: self.record_at(row),
            source_counts: self.columns.lineage(row).to_vec(),
        }
    }

    /// The record at row `row`, built from the columns.
    pub(crate) fn record_at(&self, row: usize) -> Record {
        let cells = (0..self.schema.len()).map(|col| self.columns.cell(col, row));
        Record::new(&self.schema, cells.collect()).expect("column cells fit the schema")
    }

    /// The column store, for row-at-a-time readers in this crate.
    pub(crate) fn columns(&self) -> &Projection {
        &self.columns
    }

    /// Number of unique entities (`c = |K|`).
    pub fn len(&self) -> usize {
        self.columns.rows()
    }

    /// True when the table has no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total observations across all sources (`n = |S|`).
    pub fn total_observations(&self) -> u64 {
        self.columns.mults().iter().sum()
    }

    /// The unique entities in row order, each built from the columns as the
    /// iterator reaches it.
    pub fn entities(&self) -> impl ExactSizeIterator<Item = Entity> + '_ {
        (0..self.len()).map(|row| self.entity_at(row))
    }

    /// Looks up an entity by its key value. A key of a type the key column
    /// cannot hold (or a string the column has never seen) finds nothing.
    pub fn entity(&self, key: &Value) -> Option<Entity> {
        self.columns.find(key).map(|row| self.entity_at(row))
    }

    /// Resolves and validates the aggregate attribute column.
    fn checked_attr(&self, attr_column: Option<&str>) -> Result<Option<usize>, TableError> {
        match attr_column {
            Some(name) => {
                let idx = self
                    .schema
                    .index_of(name)
                    .ok_or_else(|| TableError::UnknownColumn(name.to_string()))?;
                match self.schema.column(idx).ty {
                    ColumnType::Int | ColumnType::Float => Ok(Some(idx)),
                    ColumnType::Str => Err(TableError::NonNumericColumn(name.to_string())),
                }
            }
            None => Ok(None), // COUNT(*): values are irrelevant
        }
    }

    /// The column store, counting the read.
    fn read(&self) -> &Projection {
        self.counters.reuses.fetch_add(1, Ordering::Relaxed);
        &self.columns
    }

    /// The column store's telemetry (see [`ProjectionStats`]).
    pub fn projection_stats(&self) -> ProjectionStats {
        ProjectionStats {
            bytes: self.columns.approx_bytes() as u64,
            ..self.counters.snapshot()
        }
    }

    /// Pre-builds the aggregate column's sort permutation, when one is
    /// given, so a later cold query finds it ready.
    pub fn warm_projection(&self, attr_column: Option<&str>) -> Result<(), TableError> {
        if let Some(idx) = self.checked_attr(attr_column)? {
            let _ = self.columns.sort_perm(idx);
        }
        Ok(())
    }

    /// Builds the estimator input for `AGG(attr_column) WHERE predicate`:
    /// entities passing the predicate, with the attribute as the value and
    /// full lineage. Entities whose attribute is NULL are skipped (SQL
    /// aggregate semantics).
    ///
    /// Runs over the columns; results are bit-for-bit those of per-record
    /// predicate evaluation (the `uu_bench::oracle` reference).
    pub fn sample_view(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<SampleView, TableError> {
        Ok(self.columnar_view(attr_column, predicate, false)?.0)
    }

    /// [`IntegratedTable::sample_view`] plus the selection's value-sort
    /// permutation (indices into the view's items, ascending, stable),
    /// derived from the column's memoized full-column sort — the input
    /// to [`uu_core::profile::ProfileSnapshot::capture_presorted`].
    pub fn sample_view_with_sorted(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<(SampleView, Vec<u32>), TableError> {
        let (view, sorted, _) = self.columnar_view(attr_column, predicate, true)?;
        Ok((view, sorted))
    }

    /// [`IntegratedTable::sample_view_with_sorted`] plus the selection bitmap
    /// the items were drawn from (see
    /// [`IntegratedTable::selection_mask_bits`]) — everything a cached
    /// selection freezes, from one pass of the selection kernel.
    pub fn sample_view_with_sorted_and_mask(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<(SampleView, Vec<u32>, Vec<u64>), TableError> {
        self.columnar_view(attr_column, predicate, true)
    }

    /// The view, its value-sort permutation (empty unless `want_sorted`),
    /// and the selection bitmap it was built from (empty for an empty
    /// table).
    fn columnar_view(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        want_sorted: bool,
    ) -> Result<(SampleView, Vec<u32>, Vec<u64>), TableError> {
        let attr_idx = self.checked_attr(attr_column)?;
        // An empty table evaluates the predicate on no record, so even an
        // unknown predicate column is not an error there — skip compilation
        // to match.
        if self.is_empty() {
            return Ok((
                SampleView::from_observed_items(Vec::new()),
                Vec::new(),
                Vec::new(),
            ));
        }
        let proj = self.read();
        let selected = self.selected_bits(proj, attr_idx, predicate)?;
        let count = columnar::count_ones(&selected);
        let mut items = Vec::with_capacity(count);
        columnar::for_each_set(&selected, |row| items.extend(proj.item(row, attr_idx)));
        let sorted = if want_sorted {
            let _span = uu_core::obs::span(uu_core::obs::Stage::PresortedFilter);
            columnar::sorted_idx_filtered(proj, attr_idx, &selected, count)
        } else {
            Vec::new()
        };
        Ok((SampleView::from_observed_items(items), sorted, selected))
    }

    /// The selection kernel: predicate truth over `proj`, ANDed with the
    /// aggregate column's validity (NULL attributes are excluded from AGG).
    fn selected_bits(
        &self,
        proj: &Projection,
        attr_idx: Option<usize>,
        predicate: &Predicate,
    ) -> Result<Vec<u64>, TableError> {
        let _span = uu_core::obs::span(uu_core::obs::Stage::SelectionKernel);
        let mut selected = proj.selection_mask(&self.schema, predicate)?;
        if let Some(idx) = attr_idx {
            columnar::and_in_place(&mut selected, proj.valid_bits(idx));
        }
        Ok(selected)
    }

    /// The combined selection bitmap a [`IntegratedTable::sample_view`] call
    /// selects its items from: predicate truth ANDed with the aggregate
    /// column's validity. Bit `i` set ⇔ entity `i` contributes an item, in
    /// table order — exactly the membership a cached selection must remember
    /// to place delta items without rescanning. Empty for an empty table.
    pub fn selection_mask_bits(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
    ) -> Result<Vec<u64>, TableError> {
        let attr_idx = self.checked_attr(attr_column)?;
        if self.is_empty() {
            return Ok(Vec::new());
        }
        self.selected_bits(self.read(), attr_idx, predicate)
    }

    /// Like [`IntegratedTable::sample_view`], but partitioned by the distinct
    /// values of `group_column`. Returns `(group value, view)` pairs sorted
    /// by the group key's entity representation.
    ///
    /// Entities whose group value is NULL form their own group (SQL groups
    /// NULLs together).
    pub fn grouped_sample_views(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<(Value, SampleView)>, TableError> {
        Ok(self
            .columnar_grouped(attr_column, predicate, group_column, false)?
            .into_iter()
            .map(|(value, view, _)| (value, view))
            .collect())
    }

    /// [`IntegratedTable::grouped_sample_views`] plus each group's
    /// value-sort permutation (see
    /// [`IntegratedTable::sample_view_with_sorted`]).
    pub fn grouped_sample_views_with_sorted(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
    ) -> Result<Vec<(Value, SampleView, Vec<u32>)>, TableError> {
        self.columnar_grouped(attr_column, predicate, group_column, true)
    }

    fn columnar_grouped(
        &self,
        attr_column: Option<&str>,
        predicate: &Predicate,
        group_column: &str,
        want_sorted: bool,
    ) -> Result<Vec<(Value, SampleView, Vec<u32>)>, TableError> {
        let group_idx = self
            .schema
            .index_of(group_column)
            .ok_or_else(|| TableError::UnknownColumn(group_column.to_string()))?;
        let attr_idx = self.checked_attr(attr_column)?;
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let proj = self.read();
        let selected = self.selected_bits(proj, attr_idx, predicate)?;
        // One pass over the selected rows assigns groups; each row remembers
        // its group and its item index within it, so the memoized column
        // sort can be scattered into per-group permutations in a second
        // single pass. A group column holding an INT beyond 2^53 keys on the
        // exact entity-key string, which the widened floats cannot reproduce.
        let exact_keys = proj.lossy_ints(group_idx);
        let rows = self.len();
        let mut row_group = vec![u32::MAX; rows];
        let mut row_slot = vec![0u32; rows];
        let mut by_key: HashMap<GroupKey, u32> = HashMap::new();
        let mut by_exact_key: HashMap<String, u32> = HashMap::new();
        let mut reps: Vec<Value> = Vec::new();
        let mut buckets: Vec<Vec<ObservedItem>> = Vec::new();
        columnar::for_each_set(&selected, |row| {
            let cell = || proj.cell(group_idx, row);
            let fresh = reps.len() as u32;
            let g = if exact_keys {
                *by_exact_key.entry(cell().entity_key()).or_insert(fresh)
            } else {
                *by_key
                    .entry(proj.group_key(group_idx, row))
                    .or_insert(fresh)
            };
            if g == fresh {
                reps.push(cell());
                buckets.push(Vec::new());
            }
            let bucket = &mut buckets[g as usize];
            row_group[row] = g;
            row_slot[row] = bucket.len() as u32;
            bucket.extend(proj.item(row, attr_idx));
        });
        let sorted: Vec<Vec<u32>> = if !want_sorted {
            vec![Vec::new(); buckets.len()]
        } else {
            match attr_idx {
                // No aggregate column: every value ties, stable order is
                // item order.
                None => buckets
                    .iter()
                    .map(|b| (0..b.len() as u32).collect())
                    .collect(),
                Some(c) => {
                    let mut sorted: Vec<Vec<u32>> = buckets
                        .iter()
                        .map(|b| Vec::with_capacity(b.len()))
                        .collect();
                    for &r in proj.sort_perm(c) {
                        let row = r as usize;
                        if row_group[row] != u32::MAX {
                            sorted[row_group[row] as usize].push(row_slot[row]);
                        }
                    }
                    sorted
                }
            }
        };
        let mut out: Vec<(Value, SampleView, Vec<u32>)> = reps
            .into_iter()
            .zip(buckets.into_iter().map(SampleView::from_observed_items))
            .zip(sorted)
            .map(|((value, view), idx)| (value, view, idx))
            .collect();
        out.sort_by_key(|(value, _, _)| value.entity_key());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn tech_table() -> IntegratedTable {
        let schema = Schema::new([
            ("company", ColumnType::Str),
            ("employees", ColumnType::Float),
            ("state", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("us_tech_companies", schema, "company").unwrap();
        let rows = [
            (0u32, "A", 1000.0, "CA"),
            (0, "B", 2000.0, "CA"),
            (0, "D", 10_000.0, "WA"),
            (1, "B", 2000.0, "CA"),
            (1, "D", 10_000.0, "WA"),
            (2, "D", 10_000.0, "WA"),
            (3, "D", 10_000.0, "WA"),
        ];
        for (src, name, emp, state) in rows {
            t.insert_observation(
                src,
                vec![Value::from(name), Value::from(emp), Value::from(state)],
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn version_counts_accepted_observations_only() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        assert_eq!(t.version(), 0);
        t.insert_observation(0, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        t.insert_observation(1, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        assert_eq!(t.version(), 2);
        // A rejected observation must not bump the version.
        let _ = t.insert_observation(0, vec![Value::Null, Value::from(1.0)]);
        assert_eq!(t.version(), 2);
    }

    #[test]
    fn deduplicates_entities_and_tracks_lineage() {
        let t = tech_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_observations(), 7);
        let d = t.entity(&Value::from("D")).unwrap();
        assert_eq!(d.multiplicity(), 4);
        assert_eq!(d.source_counts, vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn first_record_wins_on_conflict() {
        let mut t = tech_table();
        t.insert_observation(
            5,
            vec![Value::from("A"), Value::from(9_999.0), Value::from("NY")],
        )
        .unwrap();
        let a = t.entity(&Value::from("A")).unwrap();
        assert_eq!(a.record.value(1).as_f64(), Some(1000.0));
        assert_eq!(a.multiplicity(), 2);
    }

    #[test]
    fn sample_view_matches_toy_example() {
        let t = tech_table();
        let v = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        assert_eq!(v.n(), 7);
        assert_eq!(v.c(), 3);
        assert_eq!(v.observed_sum(), 13_000.0);
        assert_eq!(v.source_sizes(), &[3, 2, 1, 1]);
    }

    #[test]
    fn sample_view_with_predicate() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA"));
        let v = t.sample_view(Some("employees"), &pred).unwrap();
        assert_eq!(v.c(), 2);
        assert_eq!(v.observed_sum(), 3000.0);
    }

    #[test]
    fn sample_view_errors() {
        let t = tech_table();
        assert!(matches!(
            t.sample_view(Some("missing"), &Predicate::True),
            Err(TableError::UnknownColumn(_))
        ));
        assert!(matches!(
            t.sample_view(Some("company"), &Predicate::True),
            Err(TableError::NonNumericColumn(_))
        ));
    }

    #[test]
    fn count_star_view_needs_no_column() {
        let t = tech_table();
        let v = t.sample_view(None, &Predicate::True).unwrap();
        assert_eq!(v.c(), 3);
        assert_eq!(v.n(), 7);
    }

    #[test]
    fn null_attributes_are_skipped() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        t.insert_observation(0, vec![Value::from("a"), Value::from(1.0)])
            .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::Null])
            .unwrap();
        let v = t.sample_view(Some("x"), &Predicate::True).unwrap();
        assert_eq!(v.c(), 1);
        // COUNT(*) still sees both entities.
        let all = t.sample_view(None, &Predicate::True).unwrap();
        assert_eq!(all.c(), 2);
    }

    #[test]
    fn null_keys_are_rejected() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        let err = t
            .insert_observation(0, vec![Value::Null, Value::from(1.0)])
            .unwrap_err();
        assert_eq!(err, TableError::NullKey);
    }

    #[test]
    fn unknown_key_column_is_rejected() {
        let schema = Schema::new([("k", ColumnType::Str)]);
        assert!(matches!(
            IntegratedTable::new("t", schema, "nope"),
            Err(TableError::UnknownKeyColumn(_))
        ));
    }

    #[test]
    fn grouped_views_partition_by_column() {
        let t = tech_table();
        let groups = t
            .grouped_sample_views(Some("employees"), &Predicate::True, "state")
            .unwrap();
        assert_eq!(groups.len(), 2);
        // Sorted by key: CA before WA.
        assert_eq!(groups[0].0, Value::from("CA"));
        assert_eq!(groups[0].1.c(), 2);
        assert_eq!(groups[0].1.observed_sum(), 3000.0);
        assert_eq!(groups[1].0, Value::from("WA"));
        assert_eq!(groups[1].1.n(), 4);
    }

    #[test]
    fn grouped_views_respect_predicate_and_errors() {
        let t = tech_table();
        let pred = Predicate::cmp("employees", CmpOp::Gt, Value::from(1500.0));
        let groups = t
            .grouped_sample_views(Some("employees"), &pred, "state")
            .unwrap();
        let total: u64 = groups.iter().map(|(_, v)| v.c()).sum();
        assert_eq!(total, 2); // B and D survive
        assert!(matches!(
            t.grouped_sample_views(Some("employees"), &Predicate::True, "nope"),
            Err(TableError::UnknownColumn(_))
        ));
    }

    #[test]
    fn null_group_values_form_their_own_group() {
        let schema = Schema::new([
            ("k", ColumnType::Str),
            ("v", ColumnType::Float),
            ("g", ColumnType::Str),
        ]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        t.insert_observation(
            0,
            vec![Value::from("a"), Value::from(1.0), Value::from("x")],
        )
        .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::from(2.0), Value::Null])
            .unwrap();
        t.insert_observation(1, vec![Value::from("c"), Value::from(3.0), Value::Null])
            .unwrap();
        let groups = t
            .grouped_sample_views(Some("v"), &Predicate::True, "g")
            .unwrap();
        assert_eq!(groups.len(), 2);
        let null_group = groups.iter().find(|(k, _)| k.is_null()).unwrap();
        assert_eq!(null_group.1.c(), 2);
    }

    #[test]
    fn columnar_path_matches_rows_and_caches_the_projection() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA")).or(Predicate::cmp(
            "employees",
            CmpOp::Ge,
            Value::from(10_000.0),
        )
        .not());
        let columnar = t.sample_view(Some("employees"), &pred).unwrap();
        // Per record: A (CA, 1000, seen once) and B (CA, 2000, seen twice)
        // pass; D (WA, 10 000) fails both disjuncts.
        let rows = SampleView::from_observed_items(vec![
            ObservedItem {
                value: 1000.0,
                multiplicity: 1,
                source_counts: vec![(0, 1)],
            },
            ObservedItem {
                value: 2000.0,
                multiplicity: 2,
                source_counts: vec![(0, 1), (1, 1)],
            },
        ]);
        assert_eq!(columnar, rows);
        // Every read is served by the columns; nothing was restored.
        let _ = t.sample_view(None, &Predicate::True).unwrap();
        let stats = t.projection_stats();
        assert_eq!(stats.builds, 0);
        assert_eq!(stats.reuses, 2);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn sorted_permutation_matches_items_sorted_by_value() {
        let t = tech_table();
        let pred = Predicate::cmp("employees", CmpOp::Lt, Value::from(10_000.0));
        let (view, sorted) = t.sample_view_with_sorted(Some("employees"), &pred).unwrap();
        let items = view.items();
        let via_perm: Vec<f64> = sorted.iter().map(|&i| items[i as usize].value).collect();
        let reference: Vec<f64> = view
            .items_sorted_by_value()
            .iter()
            .map(|i| i.value)
            .collect();
        assert_eq!(via_perm, reference);
        // COUNT(*): all values tie, the stable order is item order.
        let (view, sorted) = t.sample_view_with_sorted(None, &Predicate::True).unwrap();
        assert_eq!(sorted, (0..view.items().len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn grouped_with_sorted_matches_rows() {
        let t = tech_table();
        let grouped = t
            .grouped_sample_views_with_sorted(Some("employees"), &Predicate::True, "state")
            .unwrap();
        // Per record: CA holds A and B, WA holds D.
        let reference = [
            (
                "CA",
                t.sample_view(
                    Some("employees"),
                    &Predicate::cmp("state", CmpOp::Eq, Value::from("CA")),
                ),
            ),
            (
                "WA",
                t.sample_view(
                    Some("employees"),
                    &Predicate::cmp("state", CmpOp::Eq, Value::from("WA")),
                ),
            ),
        ];
        assert_eq!(grouped.len(), reference.len());
        for ((value, view, sorted), (rvalue, rview)) in grouped.iter().zip(reference) {
            assert_eq!(value, &Value::from(rvalue));
            assert_eq!(view, &rview.unwrap());
            let via_perm: Vec<f64> = sorted
                .iter()
                .map(|&i| view.items()[i as usize].value)
                .collect();
            let want: Vec<f64> = view
                .items_sorted_by_value()
                .iter()
                .map(|i| i.value)
                .collect();
            assert_eq!(via_perm, want);
        }
    }

    #[test]
    fn empty_table_ignores_unknown_predicate_columns() {
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let t = IntegratedTable::new("t", schema, "k").unwrap();
        let pred = Predicate::cmp("missing", CmpOp::Eq, Value::Int(1));
        // Per-record evaluation never runs the predicate on an empty table,
        // so the columnar path must not error either.
        assert!(t.sample_view(Some("x"), &pred).unwrap().is_empty());
    }

    #[test]
    fn lossy_int_group_column_falls_back_to_exact_grouping() {
        let schema = Schema::new([("k", ColumnType::Str), ("g", ColumnType::Float)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        // Two INTs beyond 2^53 that collide once widened to f64.
        let a = (1i64 << 53) + 1;
        let b = 1i64 << 53;
        t.insert_observation(0, vec![Value::from("a"), Value::Int(a)])
            .unwrap();
        t.insert_observation(0, vec![Value::from("b"), Value::Int(b)])
            .unwrap();
        let grouped = t.grouped_sample_views(None, &Predicate::True, "g").unwrap();
        let keys: Vec<Value> = grouped.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Value::Int(b), Value::Int(a)]);
        assert!(grouped.iter().all(|(_, view)| view.c() == 1));
    }

    #[test]
    fn warm_projection_builds_buffers_and_checks_columns() {
        let t = tech_table();
        let cold = t.projection_stats().bytes;
        t.warm_projection(Some("employees")).unwrap();
        // The sort permutation now counts toward the store's bytes.
        assert!(t.projection_stats().bytes > cold);
        let _ = t.sample_view(Some("employees"), &Predicate::True).unwrap();
        let stats = t.projection_stats();
        assert_eq!((stats.builds, stats.reuses), (0, 1));
        assert!(matches!(
            t.warm_projection(Some("missing")),
            Err(TableError::UnknownColumn(_))
        ));
        assert!(matches!(
            t.warm_projection(Some("company")),
            Err(TableError::NonNumericColumn(_))
        ));
    }

    #[test]
    fn append_batch_matches_repeated_inserts_without_a_rebuild() {
        let mut incremental = tech_table();
        let mut oracle = incremental.clone();
        // Warm the sort permutation on both tables.
        incremental.warm_projection(Some("employees")).unwrap();
        oracle.warm_projection(Some("employees")).unwrap();
        let batch: Vec<(u32, Vec<Value>)> = vec![
            // New entity, duplicate of "D" (touched row), new entity.
            (
                4,
                vec![Value::from("E"), Value::from(50.0), Value::from("NY")],
            ),
            (
                4,
                vec![Value::from("D"), Value::from(1.0), Value::from("??")],
            ),
            (5, vec![Value::from("F"), Value::Null, Value::from("NY")]),
        ];
        let delta = incremental.append_batch(batch.clone()).unwrap();
        assert_eq!(delta.version_before, 7);
        assert_eq!(delta.version_after, 10);
        assert_eq!((delta.rows_before, delta.rows_after), (3, 5));
        assert_eq!(delta.touched, vec![2]); // "D" is row 2
        assert_eq!(delta.perm_merges, 1);
        for (src, values) in batch {
            oracle.insert_observation(src, values).unwrap();
        }
        assert_eq!(incremental.version(), oracle.version());
        let inc = incremental
            .sample_view_with_sorted(Some("employees"), &Predicate::True)
            .unwrap();
        let want = oracle
            .sample_view_with_sorted(Some("employees"), &Predicate::True)
            .unwrap();
        assert_eq!(inc, want);
        // First record still wins: D's original record survived the append.
        let d = incremental.entity(&Value::from("D")).unwrap();
        assert_eq!(d.record.value(1).as_f64(), Some(10_000.0));
        assert_eq!(d.multiplicity(), 5);
    }

    #[test]
    fn append_batch_validates_before_applying_anything() {
        let mut t = tech_table();
        let before = t.version();
        let err = t
            .append_batch(vec![
                (
                    0,
                    vec![Value::from("G"), Value::from(1.0), Value::from("TX")],
                ),
                (0, vec![Value::Null, Value::from(2.0), Value::from("TX")]),
            ])
            .unwrap_err();
        assert_eq!(err, TableError::NullKey);
        assert_eq!(t.version(), before);
        assert_eq!(t.len(), 3);
        assert!(t.entity(&Value::from("G")).is_none());
    }

    #[test]
    fn selection_mask_bits_mirror_sample_view_membership() {
        let t = tech_table();
        let pred = Predicate::cmp("state", CmpOp::Eq, Value::from("CA"));
        let mask = t.selection_mask_bits(Some("employees"), &pred).unwrap();
        // Rows 0 ("A") and 1 ("B") are CA with non-NULL employees.
        assert_eq!(mask, vec![0b011]);
        let empty = IntegratedTable::new("e", Schema::new([("k", ColumnType::Str)]), "k").unwrap();
        assert!(empty
            .selection_mask_bits(None, &Predicate::True)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn view_mask_is_the_selection_mask() {
        let t = tech_table();
        let empty = IntegratedTable::new("e", Schema::new([("k", ColumnType::Str)]), "k").unwrap();
        let ca = Predicate::cmp("state", CmpOp::Eq, Value::from("CA"));
        for (table, attr, pred) in [
            (&t, Some("employees"), &ca),
            (&t, Some("employees"), &Predicate::True),
            (&t, None, &ca),
            (&empty, None, &Predicate::True),
        ] {
            let (view, sorted, mask) = table.sample_view_with_sorted_and_mask(attr, pred).unwrap();
            let (ref_view, ref_sorted) = table.sample_view_with_sorted(attr, pred).unwrap();
            assert_eq!(view, ref_view);
            assert_eq!(sorted, ref_sorted);
            assert_eq!(mask, table.selection_mask_bits(attr, pred).unwrap());
        }
    }

    /// Loads `keys` into a table with a FLOAT key column, one observation
    /// each (source = position).
    fn float_keyed(keys: &[Value]) -> IntegratedTable {
        let schema = Schema::new([("k", ColumnType::Float), ("x", ColumnType::Int)]);
        let mut t = IntegratedTable::new("t", schema, "k").unwrap();
        for (i, key) in keys.iter().enumerate() {
            t.insert_observation(i as u32, vec![key.clone(), Value::Int(i as i64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn float_key_index_dedups_by_entity_key() {
        let two53 = 1i64 << 53;
        let nan_a = f64::NAN;
        let nan_b = f64::from_bits(f64::NAN.to_bits() | 0xBEEF);
        let cases: [(&str, Vec<Value>, usize); 6] = [
            (
                "2^53 as INT and FLOAT",
                vec![Value::Int(two53), Value::Float(two53 as f64)],
                1,
            ),
            (
                "2^53 and 2^53 + 1",
                vec![Value::Int(two53), Value::Int(two53 + 1)],
                2,
            ),
            (
                "lossy INT equal to 2^60 by entity key",
                vec![
                    Value::Int(1_152_921_504_606_847_000),
                    Value::Float(2f64.powi(60)),
                ],
                1,
            ),
            ("5 and 5.0", vec![Value::Int(5), Value::Float(5.0)], 1),
            (
                "-0.0 and 0.0",
                vec![Value::Float(-0.0), Value::Float(0.0)],
                1,
            ),
            (
                "NaN payloads",
                vec![Value::Float(nan_a), Value::Float(nan_b)],
                1,
            ),
        ];
        for (what, keys, want) in cases {
            // The row rule: entities are distinct entity keys, first record
            // wins, lineage gathers every source.
            let mut row_keys: Vec<String> = Vec::new();
            for key in &keys {
                if !row_keys.contains(&key.entity_key()) {
                    row_keys.push(key.entity_key());
                }
            }
            assert_eq!(row_keys.len(), want, "{what}: the row rule");
            let t = float_keyed(&keys);
            assert_eq!(t.len(), want, "{what}");
            for (entity, key) in t.entities().zip(&row_keys) {
                assert_eq!(&entity.record.value(0).entity_key(), key, "{what}");
            }
            // The first record's exact cell survives, and every key finds
            // its entity.
            let first = t.entity_at(0);
            match (first.record.value(0), &keys[0]) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (got, want) => assert_eq!(got, want, "{what}"),
            }
            for key in &keys {
                let found = t.entity(key).expect("every key finds its entity");
                assert_eq!(found.record.value(0).entity_key(), key.entity_key());
            }
            if want == 1 {
                assert_eq!(first.source_counts, vec![(0, 1), (1, 1)], "{what}");
            }
        }
    }

    #[test]
    fn unseen_text_key_finds_nothing() {
        let t = tech_table();
        assert!(t.entity(&Value::from("never seen")).is_none());
        assert!(t.entity(&Value::Int(1)).is_none());
        assert_eq!(t.entity(&Value::from("B")).unwrap().multiplicity(), 2);
    }

    #[test]
    fn restore_rejects_repeated_keys() {
        let schema = Schema::new([("k", ColumnType::Str)]);
        let rows: EntityRows = vec![
            (vec![Value::from("a")], vec![(0, 1)]),
            (vec![Value::from("a")], vec![(1, 1)]),
        ];
        assert_eq!(
            IntegratedTable::restore("t", schema, "k", rows, 2).unwrap_err(),
            TableError::DuplicateEntity("a".into())
        );
    }

    #[test]
    fn loading_one_at_a_time_stays_linear() {
        const KEYS: usize = 50_000;
        let schema = Schema::new([("k", ColumnType::Str), ("x", ColumnType::Float)]);
        let batch: Vec<(u32, Vec<Value>)> = (0..KEYS)
            .map(|i| {
                // Spread first characters so new strings land all over the
                // dictionary's lexicographic order.
                let key = format!("{:x}-{i}", (i * 7919) % 4096);
                (
                    (i % 5) as u32,
                    vec![Value::from(key), Value::from(i as f64)],
                )
            })
            .collect();
        let timed = |load: &dyn Fn(&mut IntegratedTable)| {
            let mut t = IntegratedTable::new("t", schema.clone(), "k").unwrap();
            let start = std::time::Instant::now();
            load(&mut t);
            (t, start.elapsed())
        };
        let (batched, batched_time) = timed(&|t| {
            t.append_batch(batch.clone()).unwrap();
        });
        let (single, single_time) = timed(&|t| {
            for (source, values) in batch.clone() {
                t.insert_observation(source, values).unwrap();
            }
        });
        assert_eq!(single.len(), KEYS);
        assert_eq!(single.version(), batched.version());
        assert!(single.entities().eq(batched.entities()));
        let pred = Predicate::cmp("k", CmpOp::Lt, Value::from("8"));
        assert_eq!(
            single.sample_view_with_sorted(Some("x"), &pred).unwrap(),
            batched.sample_view_with_sorted(Some("x"), &pred).unwrap()
        );
        // The clone of the batch is inside both timings. A per-insert
        // rebuild of anything O(table) costs ~1 000x here.
        assert!(
            single_time <= batched_time * 10,
            "one at a time {single_time:?} vs batched {batched_time:?}"
        );
    }

    #[test]
    fn bad_records_are_rejected() {
        let mut t = tech_table();
        let err = t.insert_observation(0, vec![Value::from("X")]).unwrap_err();
        assert!(matches!(
            err,
            TableError::Record(RecordError::ArityMismatch { .. })
        ));
    }
}
