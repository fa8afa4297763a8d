//! Atomic per-table snapshot checkpoints.
//!
//! One `t-<hex(table key)>.snap` file per table, written to a temp file,
//! synced, then renamed into place — a crash mid-checkpoint leaves the
//! previous snapshot intact. The whole payload sits in a single CRC-framed
//! block behind a magic header, so a snapshot is either wholly valid or
//! rejected. A snapshot carries the table itself (rows, lineage, version)
//! plus every frozen [`uu_core::profile::ProfileSnapshot`] selection that
//! was current at checkpoint time, which is what lets a restarted server
//! answer its first query from a warm cache.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{put_count, put_f64, put_str, put_u32, put_u64, Reader};
use crate::crc32::crc32;
use crate::record::{
    put_column_type, put_predicate, put_value, take_column_type, take_predicate, take_value,
};
use crate::{FsyncPolicy, StoreError};
use uu_core::sample::ObservedItem;
use uu_query::predicate::Predicate;
use uu_query::schema::ColumnType;
use uu_query::table::EntityRows;
use uu_query::value::Value;

/// Snapshot file magic + format version.
const MAGIC: &[u8; 8] = b"UUSNAP1\n";

/// One frozen estimation universe inside a selection: the group key, the
/// observed items behind its [`uu_core::sample::SampleView`], and the
/// value-sort permutation the snapshot was captured with.
pub struct UniverseData {
    /// Group key (`Null` for ungrouped selections).
    pub group: Value,
    /// The view's items, in item order.
    pub items: Vec<ObservedItem>,
    /// Stable ascending value-sort permutation over the items.
    pub sorted_idx: Vec<u32>,
}

/// One cached selection as serialized state: the query shape that defined
/// it plus its frozen universes.
pub struct SelectionData {
    /// Aggregate column (`None` = `COUNT(*)`), verbatim.
    pub column: Option<String>,
    /// The membership predicate.
    pub predicate: Predicate,
    /// `GROUP BY` column, verbatim.
    pub group_by: Option<String>,
    /// Row-membership bitmap (ungrouped selections; empty otherwise).
    pub mask: Vec<u64>,
    /// The frozen universes.
    pub universes: Vec<UniverseData>,
}

/// A whole table checkpoint. `R` holds the rows: [`EntityRows`] when read
/// back, any exact-size iterator of rows when written, so a checkpoint can
/// encode each row as the table builds it instead of collecting them.
pub struct TableSnapshot<R = EntityRows> {
    /// The catalog key (lowercased table name) — also the file identity.
    pub key: String,
    /// Display name, verbatim.
    pub name: String,
    /// Schema columns in order.
    pub columns: Vec<(String, ColumnType)>,
    /// The entity-key column name.
    pub key_column: String,
    /// The table's version counter at checkpoint time.
    pub version: u64,
    /// Entities in row order: `(record values, (source, count) lineage)`.
    pub entities: R,
    /// Every selection that was current (same instance and version) at
    /// checkpoint time.
    pub selections: Vec<SelectionData>,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The snapshot file path for a table key.
pub fn snapshot_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("t-{}.snap", hex(key.as_bytes())))
}

fn encode<R>(snapshot: TableSnapshot<R>) -> Vec<u8>
where
    R: IntoIterator<Item = (Vec<Value>, Vec<(u32, u32)>)>,
    R::IntoIter: ExactSizeIterator,
{
    let mut out = Vec::new();
    put_str(&mut out, &snapshot.key);
    put_str(&mut out, &snapshot.name);
    put_count(&mut out, snapshot.columns.len());
    for (name, ty) in &snapshot.columns {
        put_str(&mut out, name);
        put_column_type(&mut out, *ty);
    }
    put_str(&mut out, &snapshot.key_column);
    put_u64(&mut out, snapshot.version);
    let entities = snapshot.entities.into_iter();
    put_count(&mut out, entities.len());
    for (values, source_counts) in entities {
        put_count(&mut out, values.len());
        for value in &values {
            put_value(&mut out, value);
        }
        put_count(&mut out, source_counts.len());
        for (source, count) in &source_counts {
            put_u32(&mut out, *source);
            put_u32(&mut out, *count);
        }
    }
    put_count(&mut out, snapshot.selections.len());
    for selection in &snapshot.selections {
        match &selection.column {
            Some(column) => {
                out.push(1);
                put_str(&mut out, column);
            }
            None => out.push(0),
        }
        put_predicate(&mut out, &selection.predicate);
        match &selection.group_by {
            Some(group_by) => {
                out.push(1);
                put_str(&mut out, group_by);
            }
            None => out.push(0),
        }
        put_count(&mut out, selection.mask.len());
        for word in &selection.mask {
            put_u64(&mut out, *word);
        }
        put_count(&mut out, selection.universes.len());
        for universe in &selection.universes {
            put_value(&mut out, &universe.group);
            put_count(&mut out, universe.items.len());
            for item in &universe.items {
                put_f64(&mut out, item.value);
                put_u64(&mut out, item.multiplicity);
                put_count(&mut out, item.source_counts.len());
                for (source, count) in &item.source_counts {
                    put_u32(&mut out, *source);
                    put_u32(&mut out, *count);
                }
            }
            put_count(&mut out, universe.sorted_idx.len());
            for idx in &universe.sorted_idx {
                put_u32(&mut out, *idx);
            }
        }
    }
    out
}

fn take_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, StoreError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take_str()?)),
        tag => Err(StoreError::Corrupt(format!("unknown option tag {tag}"))),
    }
}

fn decode(payload: &[u8]) -> Result<TableSnapshot, StoreError> {
    let mut r = Reader::new(payload);
    let key = r.take_str()?;
    let name = r.take_str()?;
    let ncols = r.take_count(5)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col = r.take_str()?;
        let ty = take_column_type(&mut r)?;
        columns.push((col, ty));
    }
    let key_column = r.take_str()?;
    let version = r.take_u64()?;
    let nents = r.take_count(8)?;
    let mut entities = Vec::with_capacity(nents);
    for _ in 0..nents {
        let nvals = r.take_count(1)?;
        let mut values = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            values.push(take_value(&mut r)?);
        }
        let nsrc = r.take_count(8)?;
        let mut source_counts = Vec::with_capacity(nsrc);
        for _ in 0..nsrc {
            let source = r.take_u32()?;
            let count = r.take_u32()?;
            source_counts.push((source, count));
        }
        entities.push((values, source_counts));
    }
    let nsel = r.take_count(4)?;
    let mut selections = Vec::with_capacity(nsel);
    for _ in 0..nsel {
        let column = take_opt_str(&mut r)?;
        let predicate = take_predicate(&mut r)?;
        let group_by = take_opt_str(&mut r)?;
        let nwords = r.take_count(8)?;
        let mut mask = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            mask.push(r.take_u64()?);
        }
        let nuniv = r.take_count(4)?;
        let mut universes = Vec::with_capacity(nuniv);
        for _ in 0..nuniv {
            let group = take_value(&mut r)?;
            let nitems = r.take_count(20)?;
            let mut items = Vec::with_capacity(nitems);
            for _ in 0..nitems {
                let value = r.take_f64()?;
                let multiplicity = r.take_u64()?;
                let nsrc = r.take_count(8)?;
                let mut source_counts = Vec::with_capacity(nsrc);
                for _ in 0..nsrc {
                    let source = r.take_u32()?;
                    let count = r.take_u32()?;
                    source_counts.push((source, count));
                }
                items.push(ObservedItem {
                    value,
                    multiplicity,
                    source_counts,
                });
            }
            let nsorted = r.take_count(4)?;
            let mut sorted_idx = Vec::with_capacity(nsorted);
            for _ in 0..nsorted {
                sorted_idx.push(r.take_u32()?);
            }
            universes.push(UniverseData {
                group,
                items,
                sorted_idx,
            });
        }
        selections.push(SelectionData {
            column,
            predicate,
            group_by,
            mask,
            universes,
        });
    }
    r.finish()?;
    Ok(TableSnapshot {
        key,
        name,
        columns,
        key_column,
        version,
        entities,
        selections,
    })
}

/// Writes `snapshot` atomically (temp file + fsync + rename + directory
/// fsync, syncs skipped under [`FsyncPolicy::Off`]), counting each fsync in
/// `fsyncs`. Returns the file's byte size.
pub fn write_snapshot<R>(
    dir: &Path,
    snapshot: TableSnapshot<R>,
    policy: FsyncPolicy,
    fsyncs: &AtomicU64,
) -> std::io::Result<u64>
where
    R: IntoIterator<Item = (Vec<Value>, Vec<(u32, u32)>)>,
    R::IntoIter: ExactSizeIterator,
{
    let final_path = snapshot_path(dir, &snapshot.key);
    let payload = encode(snapshot);
    let mut framed = Vec::with_capacity(MAGIC.len() + 8 + payload.len());
    framed.extend_from_slice(MAGIC);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);

    let tmp_path = final_path.with_extension("snap.tmp");
    {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&framed)?;
        if policy != FsyncPolicy::Off {
            tmp.sync_all()?;
            fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    std::fs::rename(&tmp_path, &final_path)?;
    if policy != FsyncPolicy::Off {
        // Make the rename itself durable.
        if let Ok(dir_handle) = File::open(dir) {
            let _ = dir_handle.sync_all();
            fsyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(framed.len() as u64)
}

/// Reads and validates one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<TableSnapshot, StoreError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{} is not a snapshot file (bad magic)",
            path.display()
        )));
    }
    let len = u32::from_le_bytes(
        bytes[MAGIC.len()..MAGIC.len() + 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let crc = u32::from_le_bytes(
        bytes[MAGIC.len() + 4..MAGIC.len() + 8]
            .try_into()
            .expect("4 bytes"),
    );
    let payload = &bytes[MAGIC.len() + 8..];
    if payload.len() != len {
        return Err(StoreError::Corrupt(format!(
            "{}: payload is {} bytes, header promises {len}",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: payload CRC mismatch",
            path.display()
        )));
    }
    decode(payload)
}

/// Every `*.snap` file in `dir`, sorted by file name for deterministic
/// recovery order.
pub fn snapshot_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "snap") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_query::predicate::CmpOp;

    /// A fresh directory per test: the tests run on parallel threads and
    /// all write the same `companies` snapshot file.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uu-snap-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> TableSnapshot {
        TableSnapshot {
            key: "companies".to_string(),
            name: "Companies".to_string(),
            columns: vec![
                ("company".to_string(), ColumnType::Str),
                ("employees".to_string(), ColumnType::Float),
            ],
            key_column: "company".to_string(),
            version: 9,
            entities: vec![
                (
                    vec![Value::Str("A".to_string()), Value::Float(1000.0)],
                    vec![(0, 2), (3, 1)],
                ),
                (vec![Value::Str("B".to_string()), Value::Null], vec![(1, 1)]),
            ],
            selections: vec![SelectionData {
                column: Some("employees".to_string()),
                predicate: Predicate::cmp("employees", CmpOp::Gt, Value::Float(0.0)),
                group_by: None,
                mask: vec![0b01],
                universes: vec![UniverseData {
                    group: Value::Null,
                    items: vec![ObservedItem {
                        value: 1000.0,
                        multiplicity: 3,
                        source_counts: vec![(0, 2), (3, 1)],
                    }],
                    sorted_idx: vec![0],
                }],
            }],
        }
    }

    #[test]
    fn snapshots_round_trip_through_disk() {
        let dir = scratch("round-trip");
        let snapshot = sample();
        let bytes = write_snapshot(&dir, sample(), FsyncPolicy::Off, &AtomicU64::new(0)).unwrap();
        assert!(bytes > 0);
        let back = read_snapshot(&snapshot_path(&dir, "companies")).unwrap();
        assert_eq!(back.key, snapshot.key);
        assert_eq!(back.name, snapshot.name);
        assert_eq!(back.columns, snapshot.columns);
        assert_eq!(back.key_column, snapshot.key_column);
        assert_eq!(back.version, snapshot.version);
        assert_eq!(back.entities, snapshot.entities);
        assert_eq!(back.selections.len(), 1);
        let sel = &back.selections[0];
        assert_eq!(sel.column.as_deref(), Some("employees"));
        assert_eq!(sel.mask, vec![0b01]);
        assert_eq!(
            sel.universes[0].items,
            snapshot.selections[0].universes[0].items
        );
        assert_eq!(sel.universes[0].sorted_idx, vec![0]);
    }

    #[test]
    fn rewrite_replaces_atomically_and_corruption_is_detected() {
        let dir = scratch("rewrite");
        write_snapshot(&dir, sample(), FsyncPolicy::Off, &AtomicU64::new(0)).unwrap();
        let mut snapshot = sample();
        snapshot.version = 12;
        write_snapshot(&dir, snapshot, FsyncPolicy::Off, &AtomicU64::new(0)).unwrap();
        let path = snapshot_path(&dir, "companies");
        assert_eq!(read_snapshot(&path).unwrap().version, 12);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&path), Err(StoreError::Corrupt(_))));
    }
}
