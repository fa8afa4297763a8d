//! `uu_store` — the durability layer under the catalog.
//!
//! Three pieces, layered:
//!
//! 1. **Observation WAL** ([`wal`]): one CRC-framed record per committed
//!    `load_csv` / `append_stream` batch, written *before* the in-memory
//!    [`Catalog`] mutation and flushed per the [`FsyncPolicy`].
//! 2. **Snapshot checkpoints** ([`snapshot`]): an atomic per-table binary
//!    serialization of each [`IntegratedTable`] (rows, lineage, version)
//!    plus its current frozen `ProfileSnapshot` selections, after which the
//!    WAL truncates — every logged batch is now inside a snapshot.
//! 3. **Recovery** ([`Store::recover`]): load each valid snapshot, replay
//!    the WAL tail through the exact live ingestion paths
//!    ([`Catalog::append_observations`], staged fresh loads), truncate a
//!    torn final record, and re-insert the recovered selections into the
//!    profile cache so the first post-restart query is a cache hit.
//!
//! Everything is hand-rolled (CRC-32, little-endian codec) — the crate has
//! no dependencies beyond `uu-core`/`uu-query`.

pub mod codec;
pub mod crc32;
pub mod record;
pub mod snapshot;
pub mod wal;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::record::{Batch, WalRecord};
use crate::snapshot::{
    read_snapshot, snapshot_files, write_snapshot, SelectionData, TableSnapshot, UniverseData,
};
use crate::wal::Wal;
use uu_core::profile::ProfileSnapshot;
use uu_core::sample::SampleView;
use uu_query::catalog::Catalog;
use uu_query::exec::CachedSelection;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;

/// When WAL appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every record: survives machine crashes, slowest.
    Always,
    /// `fsync` on flush points (checkpoint, shutdown): survives process
    /// kills always, machine crashes up to the last flush. The default.
    #[default]
    Batch,
    /// Never `fsync`: survives process kills (the page cache outlives the
    /// process), nothing more.
    Off,
}

impl FsyncPolicy {
    /// Wire/flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        }
    }

    /// Parses the flag spelling.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" | "never" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure talking to the data directory.
    Io(std::io::Error),
    /// Data that passed the CRC but failed to decode or apply — real
    /// corruption (or a foreign file), never a torn write.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Monotone storage counters, exposed through the server's `stats` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// WAL records appended since startup.
    pub wal_records: u64,
    /// Framed WAL bytes appended since startup.
    pub wal_bytes: u64,
    /// `fsync`/`fdatasync` calls issued (WAL + snapshot files).
    pub fsyncs: u64,
    /// Checkpoints completed (threshold-triggered, explicit, or shutdown).
    pub checkpoints: u64,
    /// Tables restored from snapshots at startup.
    pub recovered_tables: u64,
    /// WAL records replayed at startup (applied or recognized as already
    /// inside a snapshot).
    pub replayed_records: u64,
    /// Torn tail bytes truncated from the WAL at startup.
    pub truncated_tail_bytes: u64,
}

/// What [`Store::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Tables restored from snapshot files.
    pub tables: u64,
    /// WAL records replayed.
    pub replayed_records: u64,
    /// Torn tail bytes truncated from the WAL.
    pub truncated_tail_bytes: u64,
}

/// The durable catalog store: one data directory holding the observation
/// WAL and one snapshot file per table. All mutating entry points are
/// called while the caller holds the catalog lock (the service layer's
/// write lock for logging, any lock for checkpointing), which is what
/// serializes WAL order against catalog mutation order.
pub struct Store {
    dir: PathBuf,
    policy: FsyncPolicy,
    checkpoint_rows: u64,
    checkpoint_bytes: u64,
    wal: Mutex<Wal>,
    /// WAL payloads scanned at open, consumed by [`Store::recover`].
    pending_replay: Mutex<Vec<Vec<u8>>>,
    last_checkpoint: Mutex<Option<Instant>>,
    /// Held across a whole checkpoint: callers may checkpoint concurrently
    /// under the catalog read lock, and each table's snapshot goes through
    /// one fixed temp file name.
    checkpointing: Mutex<()>,
    rows_since_checkpoint: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    snapshot_fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    recovered_tables: AtomicU64,
    replayed_records: AtomicU64,
    truncated_tail_bytes: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the data directory, scans the WAL, and
    /// truncates any torn tail. Follow with [`Store::recover`] before
    /// serving.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
        checkpoint_rows: u64,
        checkpoint_bytes: u64,
    ) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let wal_path = dir.join("observations.wal");
        let scan = wal::scan(&wal_path)?;
        let wal = Wal::open(&wal_path, policy, scan.valid_len)?;
        Ok(Store {
            dir,
            policy,
            checkpoint_rows: checkpoint_rows.max(1),
            checkpoint_bytes: checkpoint_bytes.max(1),
            wal: Mutex::new(wal),
            pending_replay: Mutex::new(scan.payloads),
            last_checkpoint: Mutex::new(None),
            checkpointing: Mutex::new(()),
            rows_since_checkpoint: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            snapshot_fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            recovered_tables: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
            truncated_tail_bytes: AtomicU64::new(scan.torn_bytes),
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Rebuilds `catalog` from the newest valid snapshot per table plus the
    /// WAL tail. Snapshot selections re-enter the profile cache keyed at
    /// the restored table's fresh instance id; WAL appends then replay
    /// through [`Catalog::append_observations`], whose re-freeze loop
    /// carries those selections forward to the final version — exactly as
    /// the live path did.
    pub fn recover(&self, catalog: &mut Catalog) -> Result<RecoveryReport, StoreError> {
        for path in snapshot_files(&self.dir)? {
            let snap = read_snapshot(&path)?;
            let schema = Schema::new(snap.columns.clone());
            let table = IntegratedTable::restore(
                snap.name.clone(),
                schema,
                &snap.key_column,
                snap.entities,
                snap.version,
            )
            .map_err(|e| StoreError::Corrupt(format!("snapshot {}: {e}", path.display())))?;
            let selections = snap
                .selections
                .into_iter()
                .map(|sel| {
                    let snapshots = sel
                        .universes
                        .into_iter()
                        .map(|u| {
                            let view = SampleView::from_observed_items(u.items);
                            (
                                u.group,
                                ProfileSnapshot::capture_presorted(view, u.sorted_idx),
                            )
                        })
                        .collect();
                    CachedSelection::from_parts(
                        sel.column,
                        sel.predicate,
                        sel.group_by,
                        sel.mask,
                        snapshots,
                    )
                })
                .collect();
            catalog
                .restore_table(table, selections)
                .map_err(|e| StoreError::Corrupt(format!("snapshot {}: {e}", path.display())))?;
            self.recovered_tables.fetch_add(1, Ordering::Relaxed);
        }

        let payloads = std::mem::take(&mut *self.pending_replay.lock().expect("replay lock"));
        let mut replayed = 0u64;
        let mut rows = 0u64;
        for payload in &payloads {
            let record = WalRecord::decode(payload)?;
            rows += record.rows();
            match record {
                WalRecord::FreshLoad {
                    table,
                    columns,
                    entity_column,
                    batch,
                } => {
                    // Already present ⇒ the load is inside the snapshot (a
                    // crash landed between the snapshot rename and the WAL
                    // truncate) — skip. Otherwise replay exactly like the
                    // live path: stage, insert, register only on success
                    // (a failure was rejected live too, deterministically).
                    if catalog.get(&table).is_none() {
                        if let Ok(mut staged) =
                            IntegratedTable::new(&table, Schema::new(columns), &entity_column)
                        {
                            let clean = batch.into_iter().all(|(src, values)| {
                                staged.insert_observation(src, values).is_ok()
                            });
                            if clean {
                                let _ = catalog.register(staged);
                            }
                        }
                    }
                    replayed += 1;
                }
                WalRecord::Append {
                    table,
                    version_before,
                    batch,
                } => {
                    let version = catalog.get(&table).map(|t| t.version());
                    match version {
                        None => {
                            return Err(StoreError::Corrupt(format!(
                                "WAL appends to unknown table {table:?}"
                            )))
                        }
                        // Inside the snapshot already.
                        Some(v) if version_before < v => {}
                        Some(v) if version_before == v => {
                            // An apply error replays the live outcome: the
                            // batch was rejected then too, with no mutation.
                            let _ = catalog.append_observations(&table, batch);
                        }
                        Some(v) => {
                            return Err(StoreError::Corrupt(format!(
                                "WAL gap for table {table:?}: log resumes at version \
                                 {version_before}, table recovered at {v}"
                            )))
                        }
                    }
                    replayed += 1;
                }
            }
        }
        self.replayed_records.store(replayed, Ordering::Relaxed);
        self.rows_since_checkpoint.store(rows, Ordering::Relaxed);
        Ok(RecoveryReport {
            tables: self.recovered_tables.load(Ordering::Relaxed),
            replayed_records: replayed,
            truncated_tail_bytes: self.truncated_tail_bytes.load(Ordering::Relaxed),
        })
    }

    fn log(&self, payload: Vec<u8>) -> Result<(), StoreError> {
        let mut wal = self.wal.lock().expect("wal lock");
        let bytes = wal.append(&payload)?;
        self.wal_records.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Logs a committed fresh `load_csv` batch. Call under the catalog
    /// write lock, after validation, before registration.
    pub fn log_fresh(
        &self,
        table: &str,
        columns: &[(String, ColumnType)],
        entity_column: &str,
        batch: &Batch,
    ) -> Result<(), StoreError> {
        self.log(record::encode_fresh(table, columns, entity_column, batch))
    }

    /// Logs an append batch at its version watermark. Call under the
    /// catalog write lock, before [`Catalog::append_observations`].
    pub fn log_append(
        &self,
        table: &str,
        version_before: u64,
        batch: &Batch,
    ) -> Result<(), StoreError> {
        self.log(record::encode_append(table, version_before, batch))
    }

    /// Writes a snapshot of every table (rows, lineage, version, current
    /// frozen selections), then truncates the WAL — its records are all
    /// inside the snapshots now. Returns `(tables, bytes written)`. The
    /// caller must hold the catalog lock (read suffices: appends take the
    /// write lock, so no record can land between the snapshots and the
    /// truncate). Concurrent calls run one at a time.
    pub fn checkpoint(&self, catalog: &Catalog) -> Result<(u64, u64), StoreError> {
        let _serial = self.checkpointing.lock().expect("checkpoint lock");
        let mut tables = 0u64;
        let mut bytes = 0u64;
        for table in catalog.tables() {
            let selections = catalog.export_selections(table.name());
            let snap = TableSnapshot {
                key: table.name().to_ascii_lowercase(),
                name: table.name().to_string(),
                columns: table
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| (c.name.clone(), c.ty))
                    .collect(),
                key_column: table.key_column().to_string(),
                version: table.version(),
                entities: table
                    .entities()
                    .map(|e| (e.record.values().to_vec(), e.source_counts.clone()))
                    .collect(),
                selections: selections
                    .iter()
                    .map(|sel| SelectionData {
                        column: sel.column().map(str::to_string),
                        predicate: sel.predicate().clone(),
                        group_by: sel.group_by().map(str::to_string),
                        mask: sel.mask().to_vec(),
                        universes: sel
                            .iter()
                            .map(|(group, snapshot)| UniverseData {
                                group: group.clone(),
                                items: snapshot.view().items().to_vec(),
                                sorted_idx: snapshot.sorted_indices().to_vec(),
                            })
                            .collect(),
                    })
                    .collect(),
            };
            let (written, syncs) = write_snapshot(&self.dir, &snap, self.policy)?;
            self.snapshot_fsyncs.fetch_add(syncs, Ordering::Relaxed);
            tables += 1;
            bytes += written;
        }
        self.wal.lock().expect("wal lock").truncate()?;
        self.rows_since_checkpoint.store(0, Ordering::Relaxed);
        *self.last_checkpoint.lock().expect("checkpoint lock") = Some(Instant::now());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok((tables, bytes))
    }

    /// Counts `rows_added` toward the checkpoint thresholds and runs a
    /// checkpoint when the row or WAL-byte threshold is crossed. Returns
    /// whether one ran.
    pub fn maybe_checkpoint(&self, catalog: &Catalog, rows_added: u64) -> Result<bool, StoreError> {
        let rows = self
            .rows_since_checkpoint
            .fetch_add(rows_added, Ordering::Relaxed)
            + rows_added;
        let wal_len = self.wal.lock().expect("wal lock").len();
        if rows >= self.checkpoint_rows || wal_len >= self.checkpoint_bytes {
            self.checkpoint(catalog)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Syncs pending WAL writes (a no-op under [`FsyncPolicy::Off`]).
    pub fn flush(&self) -> Result<(), StoreError> {
        self.wal.lock().expect("wal lock").sync()?;
        Ok(())
    }

    /// Time since the last completed checkpoint in this process.
    pub fn last_checkpoint_age(&self) -> Option<Duration> {
        self.last_checkpoint
            .lock()
            .expect("checkpoint lock")
            .map(|at| at.elapsed())
    }

    /// The monotone storage counters.
    pub fn stats(&self) -> StorageStats {
        let wal_syncs = self.wal.lock().expect("wal lock").syncs();
        StorageStats {
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            fsyncs: wal_syncs + self.snapshot_fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recovered_tables: self.recovered_tables.load(Ordering::Relaxed),
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            truncated_tail_bytes: self.truncated_tail_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_query::predicate::Predicate;
    use uu_query::value::Value;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uu-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn columns() -> Vec<(String, ColumnType)> {
        vec![
            ("company".to_string(), ColumnType::Str),
            ("employees".to_string(), ColumnType::Float),
        ]
    }

    fn batch(rows: &[(&str, f64)]) -> Batch {
        rows.iter()
            .map(|(name, emp)| (0u32, vec![Value::Str(name.to_string()), Value::Float(*emp)]))
            .collect()
    }

    fn load_live(catalog: &mut Catalog, store: &Store, rows: &[(&str, f64)]) {
        let batch = batch(rows);
        let mut staged =
            IntegratedTable::new("companies", Schema::new(columns()), "company").unwrap();
        for (src, values) in &batch {
            staged.insert_observation(*src, values.clone()).unwrap();
        }
        store
            .log_fresh("companies", &columns(), "company", &batch)
            .unwrap();
        catalog.register(staged).unwrap();
    }

    fn append_live(catalog: &mut Catalog, store: &Store, rows: &[(&str, f64)]) {
        let batch = batch(rows);
        let version = catalog.get("companies").unwrap().version();
        store.log_append("companies", version, &batch).unwrap();
        catalog.append_observations("companies", batch).unwrap();
    }

    const SQL: &str = "SELECT SUM(employees) FROM companies";

    fn results(catalog: &Catalog) -> String {
        format!(
            "{:?}",
            catalog
                .execute_sql(SQL, uu_query::exec::CorrectionMethod::Bucket)
                .unwrap()
        )
    }

    /// Whether `sql`'s selection is served from the catalog's cache.
    fn cached(catalog: &Catalog, sql: &str) -> bool {
        let query = uu_query::sql::parse(sql).unwrap();
        catalog.selection_query(&query).expect("query plans").1
    }

    #[test]
    fn wal_only_recovery_replays_every_batch() {
        let dir = scratch("wal-only");
        let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut catalog = Catalog::new();
        load_live(&mut catalog, &store, &[("a", 1.0), ("b", 2.0)]);
        append_live(&mut catalog, &store, &[("c", 3.0)]);
        append_live(&mut catalog, &store, &[("a", 1.0), ("d", 4.0)]);
        let want = results(&catalog);

        let reopened = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut recovered = Catalog::new();
        let report = reopened.recover(&mut recovered).unwrap();
        assert_eq!(report.tables, 0);
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.truncated_tail_bytes, 0);
        assert_eq!(
            recovered.get("companies").unwrap().version(),
            catalog.get("companies").unwrap().version()
        );
        assert_eq!(results(&recovered), want);
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_rewarms_the_cache() {
        let dir = scratch("checkpoint");
        let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut catalog = Catalog::new();
        load_live(&mut catalog, &store, &[("a", 1.0), ("b", 2.0)]);
        // Warm the cache so the checkpoint has a selection to carry.
        let _ = results(&catalog);
        let (tables, bytes) = store.checkpoint(&catalog).unwrap();
        assert_eq!(tables, 1);
        assert!(bytes > 0);
        append_live(&mut catalog, &store, &[("c", 3.0)]);
        let want = results(&catalog);

        let reopened = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut recovered = Catalog::new();
        let report = reopened.recover(&mut recovered).unwrap();
        assert_eq!(report.tables, 1);
        assert_eq!(report.replayed_records, 1);
        // The snapshot selection was re-keyed and re-frozen through the
        // replayed append: the first query is a cache hit.
        let hit = cached(&recovered, SQL);
        assert!(hit, "first post-recovery query must hit the warmed cache");
        assert_eq!(results(&recovered), want);
        // Clean-shutdown shape: checkpoint again, restart replays nothing.
        store.checkpoint(&catalog).unwrap();
        let clean = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut clean_catalog = Catalog::new();
        let report = clean.recover(&mut clean_catalog).unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(results(&clean_catalog), want);
    }

    #[test]
    fn grouped_and_predicated_selections_survive_a_round_trip() {
        let dir = scratch("grouped");
        let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut catalog = Catalog::new();
        let cols = vec![
            ("company".to_string(), ColumnType::Str),
            ("employees".to_string(), ColumnType::Float),
            ("state".to_string(), ColumnType::Str),
        ];
        let batch: Batch = [
            ("A", 1000.0, "CA"),
            ("B", 2000.0, "CA"),
            ("D", 10_000.0, "WA"),
            ("D", 10_000.0, "WA"),
        ]
        .iter()
        .map(|(n, e, s)| {
            (
                0u32,
                vec![
                    Value::Str(n.to_string()),
                    Value::Float(*e),
                    Value::Str(s.to_string()),
                ],
            )
        })
        .collect();
        let mut staged =
            IntegratedTable::new("companies", Schema::new(cols.clone()), "company").unwrap();
        for (src, values) in &batch {
            staged.insert_observation(*src, values.clone()).unwrap();
        }
        store
            .log_fresh("companies", &cols, "company", &batch)
            .unwrap();
        catalog.register(staged).unwrap();
        let grouped_sql =
            "SELECT SUM(employees) FROM companies WHERE employees > 100 GROUP BY state";
        let want = format!(
            "{:?}",
            catalog
                .execute_sql(grouped_sql, uu_query::exec::CorrectionMethod::Bucket)
                .unwrap()
        );
        store.checkpoint(&catalog).unwrap();

        let reopened = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut recovered = Catalog::new();
        reopened.recover(&mut recovered).unwrap();
        assert!(cached(&recovered, grouped_sql));
        let got = format!(
            "{:?}",
            recovered
                .execute_sql(grouped_sql, uu_query::exec::CorrectionMethod::Bucket)
                .unwrap()
        );
        assert_eq!(got, want);
        // The ungrouped full-table selection was never cached pre-restart,
        // so it misses — recovery must not invent cache entries.
        assert!(!cached(&recovered, SQL));
        let _ = Predicate::True; // keep the import honest under cfg(test)
    }

    #[test]
    fn counters_track_the_lifecycle() {
        let dir = scratch("counters");
        let store = Store::open(&dir, FsyncPolicy::Batch, u64::MAX, u64::MAX).unwrap();
        let mut catalog = Catalog::new();
        load_live(&mut catalog, &store, &[("a", 1.0)]);
        append_live(&mut catalog, &store, &[("b", 2.0)]);
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.wal_records, 2);
        assert!(stats.wal_bytes > 0);
        assert!(stats.fsyncs >= 1);
        assert_eq!(stats.checkpoints, 0);
        assert!(store.last_checkpoint_age().is_none());
        store.checkpoint(&catalog).unwrap();
        let stats = store.stats();
        assert_eq!(stats.checkpoints, 1);
        assert!(store.last_checkpoint_age().is_some());
    }
}
