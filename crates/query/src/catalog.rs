//! A catalog of integrated tables, for multi-table databases.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::exec::{
    freeze_selection, refreeze_selection, results_from_selection, selection, selection_bytes,
    selection_key, CachedSelection, CorrectionMethod, ExecError, GroupResult, QueryProfileCache,
    SelectionSnapshots,
};
use crate::sql::parse;
use crate::table::{AppendDelta, IntegratedTable};
use crate::value::Value;

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A table with this (case-insensitive) name is already registered.
    DuplicateTable(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateTable(name) => {
                write!(f, "table {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Incremental-maintenance counters, updated by
/// [`Catalog::append_observations`].
#[derive(Debug, Default)]
struct IncrementalCounters {
    delta_batches: AtomicU64,
    rows_appended: AtomicU64,
    permutation_merges: AtomicU64,
    snapshots_refrozen: AtomicU64,
    fallback_rebuilds: AtomicU64,
}

/// A point-in-time snapshot of the incremental-maintenance telemetry — the
/// numbers behind the server `stats` verb's `incremental` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Append batches applied through the delta path.
    pub delta_batches: u64,
    /// Observations accepted by those batches.
    pub rows_appended: u64,
    /// Sort permutations absorbed by merge instead of a re-sort.
    pub permutation_merges: u64,
    /// Per-universe profile snapshots re-frozen from delta rows alone.
    pub snapshots_refrozen: u64,
    /// Cached selections dropped to a rebuild instead (stale version, a
    /// predicate that no longer evaluates, or a grouped selection with a
    /// touched row).
    pub fallback_rebuilds: u64,
}

/// A set of named integrated tables with SQL dispatch.
///
/// # Examples
///
/// ```
/// use uu_query::catalog::Catalog;
/// use uu_query::exec::CorrectionMethod;
/// use uu_query::schema::{ColumnType, Schema};
/// use uu_query::table::IntegratedTable;
/// use uu_query::value::Value;
///
/// let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
/// let mut t = IntegratedTable::new("sales", schema, "k").unwrap();
/// t.insert_observation(0, vec![Value::from("a"), Value::from(10.0)]).unwrap();
/// t.insert_observation(1, vec![Value::from("a"), Value::from(10.0)]).unwrap();
///
/// let mut catalog = Catalog::new();
/// catalog.register(t).unwrap();
/// let rows = catalog.execute_sql("SELECT SUM(v) FROM sales", CorrectionMethod::None).unwrap();
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].result.observed, 10.0);
/// ```
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, IntegratedTable>,
    /// Cross-query profile cache behind [`Catalog::execute_sql`] and
    /// [`Catalog::selection_query`].
    /// Keys carry the table version, and [`Catalog::get_mut`] invalidates a
    /// table's entries eagerly, so the cache can never serve a stale state.
    /// [`Catalog::append_observations`] instead *re-freezes* a table's
    /// entries at the new version, keeping them warm across appends.
    cache: QueryProfileCache,
    /// Telemetry for the append path.
    incremental: IncrementalCounters,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// An empty catalog over a caller-configured profile cache — the hook for
    /// server frontends that size the cache from a byte budget
    /// (`QueryProfileCache::with_byte_budget`) or add a TTL
    /// (`QueryProfileCache::with_ttl`). `Catalog::new` keeps the default
    /// plain-LRU policy.
    pub fn with_cache(cache: QueryProfileCache) -> Self {
        Catalog {
            tables: HashMap::new(),
            cache,
            incremental: IncrementalCounters::default(),
        }
    }

    /// Registers a table under its own name (case-insensitive).
    pub fn register(&mut self, table: IntegratedTable) -> Result<(), CatalogError> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(CatalogError::DuplicateTable(table.name().to_string()));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Looks a table up by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&IntegratedTable> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Mutable lookup (e.g. to keep inserting observations). Invalidates the
    /// table's cached profiles — the caller may mutate it, and the version
    /// bump would strand the old entries in the cache anyway.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut IntegratedTable> {
        let key = name.to_ascii_lowercase();
        let table = self.tables.get_mut(&key)?;
        self.cache.invalidate_table(&key);
        Some(table)
    }

    /// Appends a batch of observations to a registered table through the
    /// delta-maintenance path: the table applies the batch as an append
    /// (growing its columns and sort permutations in place) and
    /// every cached selection of the table is re-frozen at the new version
    /// from the delta rows alone, instead of being evicted. Selections that
    /// cannot be maintained incrementally are dropped (counted as fallback
    /// rebuilds) — the next query rebuilds them, so results are identical
    /// either way. Returns the table's [`AppendDelta`] and the number of
    /// selections re-frozen.
    ///
    /// This is the append notification [`Catalog::get_mut`]'s whole-table
    /// eviction is too coarse for: `append_stream` and CSV appends route
    /// here.
    pub fn append_observations(
        &mut self,
        name: &str,
        batch: Vec<(u32, Vec<Value>)>,
    ) -> Result<(AppendDelta, u64), ExecError> {
        let key = name.to_ascii_lowercase();
        let delta = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?
            .append_batch(batch)?;
        self.incremental
            .delta_batches
            .fetch_add(1, Ordering::Relaxed);
        self.incremental.rows_appended.fetch_add(
            delta.version_after - delta.version_before,
            Ordering::Relaxed,
        );
        self.incremental
            .permutation_merges
            .fetch_add(delta.perm_merges, Ordering::Relaxed);
        let table = self.tables.get(&key).expect("table was just appended to");
        let mut refrozen = 0u64;
        for (mut entry_key, selection) in self.cache.drain_table(&key) {
            let fresh = (entry_key.instance == table.instance()
                && entry_key.version == delta.version_before)
                .then(|| refreeze_selection(table, &selection, &delta))
                .flatten();
            match fresh {
                Some(refreshed) => {
                    entry_key.version = delta.version_after;
                    self.incremental
                        .snapshots_refrozen
                        .fetch_add(refreshed.len() as u64, Ordering::Relaxed);
                    let refreshed = Arc::new(refreshed);
                    let bytes = selection_bytes(&refreshed);
                    self.cache.insert_weighted(entry_key, refreshed, bytes);
                    refrozen += 1;
                }
                None => {
                    self.incremental
                        .fallback_rebuilds
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok((delta, refrozen))
    }

    /// A snapshot of the incremental-maintenance counters.
    pub fn incremental_stats(&self) -> IncrementalStats {
        IncrementalStats {
            delta_batches: self.incremental.delta_batches.load(Ordering::Relaxed),
            rows_appended: self.incremental.rows_appended.load(Ordering::Relaxed),
            permutation_merges: self.incremental.permutation_merges.load(Ordering::Relaxed),
            snapshots_refrozen: self.incremental.snapshots_refrozen.load(Ordering::Relaxed),
            fallback_rebuilds: self.incremental.fallback_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// The embedded cross-query profile cache (for instrumentation; queries
    /// consult it automatically).
    pub fn cache(&self) -> &QueryProfileCache {
        &self.cache
    }

    /// Iterates over the registered tables in unspecified order — the
    /// walk a durable store's checkpoint takes.
    pub fn tables(&self) -> impl Iterator<Item = &IntegratedTable> {
        self.tables.values()
    }

    /// Registers a table recovered from durable storage together with the
    /// cached selections that were frozen against it, re-inserting each into
    /// the profile cache keyed at the restored table's (fresh) instance and
    /// version — so the first post-recovery query of a previously-hot
    /// selection is a cache hit. Selections whose shape no longer matches
    /// the table are the caller's responsibility to omit.
    pub fn restore_table(
        &mut self,
        table: IntegratedTable,
        selections: Vec<CachedSelection>,
    ) -> Result<(), CatalogError> {
        let key = table.name().to_ascii_lowercase();
        self.register(table)?;
        let table = self.tables.get(&key).expect("table was just registered");
        for selection in selections {
            let entry_key = selection_key(table, &selection);
            let selection = Arc::new(selection);
            let bytes = selection_bytes(&selection);
            self.cache.insert_weighted(entry_key, selection, bytes);
        }
        Ok(())
    }

    /// The cached selections currently frozen against `name`'s live state
    /// (matching instance *and* version — stale entries are skipped). This
    /// is the non-destructive export a durable store persists at checkpoint
    /// time so a restart can re-warm the cache.
    pub fn export_selections(&self, name: &str) -> Vec<SelectionSnapshots> {
        let key = name.to_ascii_lowercase();
        let Some(table) = self.tables.get(&key) else {
            return Vec::new();
        };
        self.cache
            .entries_for_table(&key)
            .into_iter()
            .filter(|(entry_key, _)| {
                entry_key.instance == table.instance() && entry_key.version == table.version()
            })
            .map(|(_, selection)| selection)
            .collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|t| t.name()).collect();
        names.sort_unstable();
        names
    }

    /// Parses `sql` and answers it against the referenced table through the
    /// embedded profile cache: a repeated query against an unchanged table
    /// reuses the selection's frozen statistics instead of re-deriving them.
    /// One [`GroupResult`] per group in group order; an ungrouped query gets
    /// a single `Null`-keyed row. Bit-for-bit identical to the uncached
    /// [`crate::exec::execute_sql`].
    pub fn execute_sql(
        &self,
        sql: &str,
        method: CorrectionMethod,
    ) -> Result<Vec<GroupResult>, ExecError> {
        let query = parse(sql)?;
        let (snapshots, _) = self.selection_query(&query)?;
        Ok(results_from_selection(&query, &snapshots, method))
    }

    /// The query's estimation universes as cached snapshots, plus whether
    /// they were served from the embedded cache (`true` = hit). A miss
    /// freezes and inserts the selection, so this is also the pre-warming
    /// step of [`Catalog::warm_sql`], the fetch-once surface for frontends
    /// that fan an `EstimationSession` out over the snapshots
    /// [`Catalog::execute_sql`] answers from, and the fetch path of prepared
    /// statements: given an already-parsed query, a repeated execute against
    /// an unchanged table pays neither the parser nor a statistics build.
    pub fn selection_query(
        &self,
        query: &crate::query::AggregateQuery,
    ) -> Result<(SelectionSnapshots, bool), ExecError> {
        let table = self
            .get(&query.table)
            .ok_or_else(|| ExecError::UnknownTable(query.table.clone()))?;
        selection(table, query, &self.cache)
    }

    /// [`Catalog::selection_query`] without the cache: the selection is
    /// frozen from the table exactly as a miss would freeze it, but the
    /// cache is neither read nor filled.
    pub fn freeze_query(
        &self,
        query: &crate::query::AggregateQuery,
    ) -> Result<SelectionSnapshots, ExecError> {
        let table = self
            .get(&query.table)
            .ok_or_else(|| ExecError::UnknownTable(query.table.clone()))?;
        freeze_selection(table, query)
    }

    /// Pre-warms the embedded cache for `sql` without computing an
    /// aggregate: the aggregate column's sort permutation is built first,
    /// then the selection's per-universe statistics are captured eagerly
    /// into `ProfileSnapshot`s — so the
    /// next execution of the same query is a pure cache hit, and a
    /// *different* query over the same table still finds the sort ready.
    /// Returns `(universes warmed, was already cached)`.
    pub fn warm_sql(&self, sql: &str) -> Result<(usize, bool), ExecError> {
        let query = parse(sql)?;
        let table = self
            .get(&query.table)
            .ok_or_else(|| ExecError::UnknownTable(query.table.clone()))?;
        table.warm_projection(query.column.as_deref())?;
        let (snapshots, hit) = self.selection_query(&query)?;
        Ok((snapshots.len(), hit))
    }

    /// Aggregated column-store telemetry across all registered tables:
    /// `(tables restored from persisted rows, reads served by the columns,
    /// column-store bytes)` — the numbers behind the server `stats` verb's
    /// `projection` block.
    pub fn projection_stats(&self) -> (u64, u64, usize) {
        self.tables
            .values()
            .fold((0, 0, 0), |(builds, reuses, bytes), t| {
                let (b, r) = t.projection_metrics();
                (builds + b, reuses + r, bytes + t.projection_bytes())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    fn table(name: &str) -> IntegratedTable {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut t = IntegratedTable::new(name, schema, "k").unwrap();
        for src in 0..3u32 {
            for i in 0..4 {
                t.insert_observation(
                    src,
                    vec![Value::from(format!("e{i}")), Value::from(i as f64)],
                )
                .unwrap();
            }
        }
        t
    }

    #[test]
    fn register_and_dispatch() {
        let mut catalog = Catalog::new();
        catalog.register(table("alpha")).unwrap();
        catalog.register(table("beta")).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.table_names(), vec!["alpha", "beta"]);
        let r = catalog
            .execute_sql("SELECT COUNT(*) FROM Alpha", CorrectionMethod::Naive)
            .unwrap();
        assert_eq!(r[0].result.observed, 4.0);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        assert_eq!(
            catalog.register(table("T")),
            Err(CatalogError::DuplicateTable("T".into()))
        );
    }

    #[test]
    fn unknown_table_is_reported() {
        let catalog = Catalog::new();
        let err = catalog
            .execute_sql("SELECT SUM(v) FROM missing", CorrectionMethod::None)
            .unwrap_err();
        assert!(matches!(err, ExecError::UnknownTable(name) if name == "missing"));
    }

    #[test]
    fn grouped_dispatch_works() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let groups = catalog
            .execute_sql("SELECT SUM(v) FROM t GROUP BY k", CorrectionMethod::None)
            .unwrap();
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn warm_sql_prefills_the_cache_for_cached_execution() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let sql = "SELECT SUM(v) FROM t GROUP BY k";
        let (universes, already) = catalog.warm_sql(sql).unwrap();
        assert_eq!(universes, 4);
        assert!(!already, "first warm builds the selection");
        let (again, already) = catalog.warm_sql(sql).unwrap();
        assert_eq!(again, 4);
        assert!(already, "second warm is a pure hit");
        let misses_before = catalog.cache().metrics().misses;
        let rows = catalog.execute_sql(sql, CorrectionMethod::Bucket).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            catalog.cache().metrics().misses,
            misses_before,
            "execution after warm never misses"
        );
    }

    #[test]
    fn selection_query_matches_cached_execution_identity() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let sql = "SELECT SUM(v) FROM t";
        let query = crate::sql::parse(sql).unwrap();
        let (snapshots, hit) = catalog.selection_query(&query).unwrap();
        assert!(!hit);
        assert_eq!(snapshots.len(), 1);
        assert!(snapshots[0].0.is_null());
        // The cached execution path consumes the very snapshots we fetched.
        let (snapshots_again, hit) = catalog.selection_query(&query).unwrap();
        assert!(hit);
        assert!(std::sync::Arc::ptr_eq(&snapshots, &snapshots_again));
        // Selections carry their byte weight into the cache accounting.
        assert!(catalog.cache().bytes() > 0);
    }

    #[test]
    fn selection_query_shares_the_cache_identity_with_execute_sql() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let sql = "SELECT SUM(v) FROM t WHERE v < 3";
        let parsed = crate::sql::parse(sql).unwrap();
        let (from_query, hit) = catalog.selection_query(&parsed).unwrap();
        assert!(!hit, "first fetch builds the selection");
        let hits = catalog.cache().metrics().hits;
        catalog.execute_sql(sql, CorrectionMethod::Bucket).unwrap();
        assert_eq!(
            catalog.cache().metrics().hits,
            hits + 1,
            "the parse-free fetch populated the entry the SQL route reads"
        );
        let reparsed = crate::sql::parse(sql).unwrap();
        let (from_sql, hit) = catalog.selection_query(&reparsed).unwrap();
        assert!(hit);
        assert!(std::sync::Arc::ptr_eq(&from_query, &from_sql));
        let missing = crate::sql::parse("SELECT SUM(v) FROM nope").unwrap();
        assert!(matches!(
            catalog.selection_query(&missing),
            Err(ExecError::UnknownTable(name)) if name == "nope"
        ));
    }

    #[test]
    fn with_cache_configures_policy_without_changing_results() {
        let cache = QueryProfileCache::new(4).with_byte_budget(1 << 20);
        let mut catalog = Catalog::with_cache(cache);
        catalog.register(table("t")).unwrap();
        assert_eq!(catalog.cache().byte_budget(), Some(1 << 20));
        let plain = Catalog::new();
        assert_eq!(plain.cache().byte_budget(), None);
        let r = catalog
            .execute_sql("SELECT COUNT(*) FROM t", CorrectionMethod::Naive)
            .unwrap();
        assert_eq!(r[0].result.observed, 4.0);
    }

    #[test]
    fn warm_sql_builds_the_columnar_layers_too() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let (_, _, cold_bytes) = catalog.projection_stats();
        catalog.warm_sql("SELECT SUM(v) FROM t").unwrap();
        // The aggregate column's sort permutation is built and held.
        let (builds, reads, bytes) = catalog.projection_stats();
        assert_eq!(builds, 0, "no table was restored from persisted rows");
        assert!(bytes > cold_bytes);
        // Cold queries of *other* predicates read the same columns.
        catalog
            .execute_sql("SELECT SUM(v) FROM t WHERE v > 1", CorrectionMethod::Bucket)
            .unwrap();
        let (_, reads_after, bytes_after) = catalog.projection_stats();
        assert!(reads_after > reads);
        assert_eq!(bytes_after, bytes, "no second permutation was built");
    }

    #[test]
    fn append_observations_refreezes_instead_of_evicting() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        let plain = "SELECT SUM(v) FROM t WHERE v < 3";
        let grouped = "SELECT SUM(v) FROM t GROUP BY k";
        let before_plain = catalog
            .execute_sql(plain, CorrectionMethod::Bucket)
            .unwrap()
            .remove(0)
            .result;
        let _ = catalog
            .execute_sql(grouped, CorrectionMethod::Bucket)
            .unwrap();
        // Append two new entities and re-observe an existing one.
        let (delta, refrozen) = catalog
            .append_observations(
                "T",
                vec![
                    (7, vec![Value::from("e9"), Value::from(9.0)]),
                    (7, vec![Value::from("e0"), Value::from(0.0)]),
                    (8, vec![Value::from("e8"), Value::from(8.0)]),
                ],
            )
            .unwrap();
        assert_eq!(delta.touched, vec![0]);
        // The ungrouped selection re-froze; the grouped one fell back
        // because the touched row sits inside it.
        assert_eq!(refrozen, 1);
        let stats = catalog.incremental_stats();
        assert_eq!(stats.delta_batches, 1);
        assert_eq!(stats.rows_appended, 3);
        assert_eq!(stats.snapshots_refrozen, 1);
        assert_eq!(stats.fallback_rebuilds, 1);
        // The refrozen entry serves the new version as a pure hit…
        let hits_before = catalog.cache().metrics().hits;
        let after_plain = catalog
            .execute_sql(plain, CorrectionMethod::Bucket)
            .unwrap()
            .remove(0)
            .result;
        assert_eq!(catalog.cache().metrics().hits, hits_before + 1);
        // …bit-for-bit equal to a from-scratch execution.
        let rebuilt =
            crate::exec::execute_sql(catalog.get("t").unwrap(), plain, CorrectionMethod::Bucket)
                .unwrap()
                .remove(0)
                .result;
        assert_eq!(after_plain.observed.to_bits(), rebuilt.observed.to_bits());
        assert_eq!(
            after_plain.corrected.map(f64::to_bits),
            rebuilt.corrected.map(f64::to_bits)
        );
        // e0's re-observation left the closed-world sum alone (no new item
        // entered the selection) but flowed into the frequency ladder.
        assert_eq!(after_plain.observed, before_plain.observed);
        let grouped_after = catalog
            .execute_sql(grouped, CorrectionMethod::Bucket)
            .unwrap();
        assert_eq!(grouped_after.len(), 6);
    }

    #[test]
    fn append_observations_counts_a_fallback_for_an_unevaluable_predicate() {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Float)]);
        let mut catalog = Catalog::new();
        catalog
            .register(IntegratedTable::new("t", schema, "k").unwrap())
            .unwrap();
        // On an empty table the unknown predicate column is never
        // evaluated, so the selection freezes (empty) and is cached.
        let sql = "SELECT SUM(v) FROM t WHERE missing = 1";
        let _ = catalog.execute_sql(sql, CorrectionMethod::None).unwrap();
        let (_, refrozen) = catalog
            .append_observations("t", vec![(7, vec![Value::from("e9"), Value::from(9.0)])])
            .unwrap();
        assert_eq!(refrozen, 0);
        assert_eq!(catalog.incremental_stats().fallback_rebuilds, 1);
        // The next query rebuilds and surfaces the error a from-scratch
        // execution reports.
        let cached = catalog.execute_sql(sql, CorrectionMethod::None);
        let rebuilt =
            crate::exec::execute_sql(catalog.get("t").unwrap(), sql, CorrectionMethod::None);
        assert!(cached.is_err());
        assert_eq!(cached.unwrap_err(), rebuilt.unwrap_err());
    }

    #[test]
    fn append_observations_to_unknown_table_errors() {
        let mut catalog = Catalog::new();
        assert!(matches!(
            catalog.append_observations("missing", Vec::new()),
            Err(ExecError::UnknownTable(name)) if name == "missing"
        ));
    }

    #[test]
    fn get_mut_allows_further_ingestion() {
        let mut catalog = Catalog::new();
        catalog.register(table("t")).unwrap();
        catalog
            .get_mut("t")
            .unwrap()
            .insert_observation(9, vec![Value::from("new"), Value::from(9.0)])
            .unwrap();
        let r = catalog
            .execute_sql("SELECT COUNT(*) FROM t", CorrectionMethod::None)
            .unwrap();
        assert_eq!(r[0].result.observed, 5.0);
    }
}
