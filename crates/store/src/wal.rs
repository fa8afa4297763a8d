//! The append-only observation WAL file.
//!
//! Framing is `[u32 payload length][u32 CRC-32 of payload][payload]`,
//! little-endian. Appends go through plain `write_all` with no userspace
//! buffering: once the syscall returns, the bytes are in the page cache and
//! survive a SIGKILL of the process — only a machine crash needs the fsync
//! the [`FsyncPolicy`] governs. A torn final frame (length or CRC mismatch,
//! or fewer bytes than the length promises) marks the end of the valid
//! prefix; [`scan`] reports it and recovery physically truncates it away.
//!
//! An I/O error never leaves the log in a state that could lose an
//! acknowledged record or revive a rejected one. A failed write is cut back
//! to the last good length, so the next record does not land behind a
//! partial frame that recovery would stop at. A failed fsync — and a failed
//! cut-back — *poisons* the log: the kernel may have dropped the dirty
//! pages, so no later append, sync or truncate is attempted, let alone
//! acknowledged (PostgreSQL's "fsyncgate" rule). A restart recovers from
//! whatever reached the disk.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::crc32::crc32;
use crate::FsyncPolicy;
use uu_core::obs::StorageCounters;

/// Frame header: `u32` length + `u32` CRC.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// What a WAL scan found: the CRC-valid frame payloads in order, the byte
/// length of that valid prefix, and how many torn tail bytes follow it.
pub struct WalScan {
    /// Payloads of every valid frame, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// File offset where the valid prefix ends.
    pub valid_len: u64,
    /// Bytes after the valid prefix (a torn final record, or garbage).
    pub torn_bytes: u64,
}

/// Reads every valid frame from the WAL at `path`. A missing file scans as
/// empty. The scan stops at the first length/CRC mismatch — everything
/// after it is a torn write to truncate, never an error.
pub fn scan(path: &Path) -> std::io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan_bytes(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(scan_bytes(&[])),
        Err(e) => Err(e),
    }
}

/// [`scan`] over the log's bytes.
fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = bytes.len() - pos;
        if rest < FRAME_HEADER_BYTES as usize {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let body_start = pos + FRAME_HEADER_BYTES as usize;
        if len > bytes.len() - body_start {
            break;
        }
        let payload = &bytes[body_start..body_start + len];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        pos = body_start + len;
    }
    WalScan {
        payloads,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    }
}

/// The file operations the log needs: implemented by [`File`], and by a
/// fault-injecting fake in the tests.
trait LogFile: Write + Seek {
    fn set_len(&self, len: u64) -> std::io::Result<()>;
    fn sync_data(&self) -> std::io::Result<()>;
    fn sync_all(&self) -> std::io::Result<()>;
}

impl LogFile for File {
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&self) -> std::io::Result<()> {
        File::sync_data(self)
    }

    fn sync_all(&self) -> std::io::Result<()> {
        File::sync_all(self)
    }
}

/// The open, append-position WAL file.
pub struct Wal {
    file: Box<dyn LogFile + Send>,
    policy: FsyncPolicy,
    len: u64,
    dirty: bool,
    /// The store's counters; every sync bumps `fsyncs`.
    counters: Arc<StorageCounters>,
    /// Set by an fsync error or a failed cut-back: every later operation
    /// fails.
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, truncating it to
    /// `valid_len` first when a scan found a torn tail. Syncs are counted
    /// in `counters.fsyncs`.
    pub fn open(
        path: &Path,
        policy: FsyncPolicy,
        valid_len: u64,
        counters: Arc<StorageCounters>,
    ) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let actual = file.metadata()?.len();
        if actual > valid_len {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Wal::with_file(
            Box::new(file),
            policy,
            valid_len.min(actual),
            counters,
        ))
    }

    fn with_file(
        file: Box<dyn LogFile + Send>,
        policy: FsyncPolicy,
        len: u64,
        counters: Arc<StorageCounters>,
    ) -> Wal {
        Wal {
            file,
            policy,
            len,
            dirty: false,
            counters,
            poisoned: false,
        }
    }

    /// Runs `op` unless the log is poisoned; an error from `op` poisons it.
    fn guarded(&mut self, op: impl FnOnce(&mut Wal) -> std::io::Result<()>) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "the WAL is poisoned by an earlier I/O error; restart to recover",
            ));
        }
        let result = op(self);
        self.poisoned |= result.is_err();
        result
    }

    /// Appends one framed record; under [`FsyncPolicy::Always`] the write is
    /// synced before returning. Returns the framed byte count. On error the
    /// record is not in the log, and no later record lands behind a partial
    /// frame.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        self.guarded(|_| Ok(()))?;
        let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_BYTES as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Err(e) = self.file.write_all(&frame) {
            // Cut the partial frame off (or poison the log trying).
            self.guarded(|wal| {
                wal.file.set_len(wal.len)?;
                wal.file.seek(SeekFrom::End(0)).map(drop)
            })?;
            return Err(e);
        }
        self.len += frame.len() as u64;
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            if let Err(e) = self.sync() {
                // The caller rejects this record: cut it off so a restart
                // cannot replay it. The log stays poisoned either way.
                self.len -= frame.len() as u64;
                let _ = self.file.set_len(self.len);
                return Err(e);
            }
        }
        Ok(frame.len() as u64)
    }

    /// Syncs pending writes to stable storage, honouring the policy
    /// ([`FsyncPolicy::Off`] never syncs). An fsync error poisons the log.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.guarded(|wal| {
            if wal.dirty && wal.policy != FsyncPolicy::Off {
                wal.file.sync_data()?;
                wal.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                wal.dirty = false;
            }
            Ok(())
        })
    }

    /// Empties the log — called right after a checkpoint made every logged
    /// batch redundant. Any error poisons the log.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.guarded(|wal| {
            wal.file.set_len(0)?;
            wal.file.seek(SeekFrom::Start(0))?;
            wal.len = 0;
            wal.dirty = false;
            if wal.policy != FsyncPolicy::Off {
                wal.file.sync_all()?;
                wal.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uu-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn frames_round_trip_through_scan() {
        let path = scratch("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Off, 0, Arc::default()).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"").unwrap();
        wal.append(b"third record, longer").unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(
            scan.payloads,
            vec![
                b"first".to_vec(),
                Vec::new(),
                b"third record, longer".to_vec()
            ]
        );
        assert_eq!(scan.valid_len, wal.len());
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_at_every_offset_and_truncated_on_open() {
        let path = scratch("torn.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Off, 0, Arc::default()).unwrap();
        wal.append(b"committed").unwrap();
        let prefix = wal.len();
        wal.append(b"the final record").unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in prefix as usize..full.len() {
            let torn_path = scratch("torn-cut.wal");
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let s = scan(&torn_path).unwrap();
            assert_eq!(s.payloads, vec![b"committed".to_vec()], "cut at {cut}");
            assert_eq!(s.valid_len, prefix);
            assert_eq!(s.torn_bytes, cut as u64 - prefix);
            // Re-opening truncates the torn bytes away.
            let reopened =
                Wal::open(&torn_path, FsyncPolicy::Off, s.valid_len, Arc::default()).unwrap();
            assert_eq!(reopened.len(), prefix);
            assert_eq!(std::fs::metadata(&torn_path).unwrap().len(), prefix);
        }
    }

    #[test]
    fn corrupt_crc_ends_the_valid_prefix() {
        let path = scratch("crc.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Off, 0, Arc::default()).unwrap();
        wal.append(b"good").unwrap();
        let keep = wal.len();
        wal.append(b"flipped").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.payloads, vec![b"good".to_vec()]);
        assert_eq!(s.valid_len, keep);
        assert!(s.torn_bytes > 0);
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = scratch("trunc.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Batch, 0, Arc::default()).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        assert!(wal.counters.fsyncs.load(Ordering::Relaxed) >= 1);
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // Appends continue normally after a truncate.
        wal.append(b"y").unwrap();
        assert_eq!(scan(&path).unwrap().payloads, vec![b"y".to_vec()]);
    }

    /// A fake disk: the bytes of one file plus the faults to inject.
    #[derive(Default)]
    struct Disk {
        bytes: Vec<u8>,
        pos: usize,
        /// Bytes the next writes may still place before failing (a short
        /// write, then ENOSPC); `None` = no limit.
        space: Option<usize>,
        fail_sync: bool,
        fail_set_len: bool,
    }

    /// A [`LogFile`] over a shared [`Disk`], so the test can inspect and
    /// steer it while the [`Wal`] owns the handle.
    struct FakeFile(std::sync::Arc<std::sync::Mutex<Disk>>);

    impl Write for FakeFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut disk = self.0.lock().unwrap();
            let n = disk.space.map_or(buf.len(), |space| space.min(buf.len()));
            if n == 0 {
                return Err(std::io::Error::other("no space left on device"));
            }
            if let Some(space) = &mut disk.space {
                *space -= n;
            }
            let pos = disk.pos;
            if disk.bytes.len() < pos + n {
                disk.bytes.resize(pos + n, 0);
            }
            disk.bytes[pos..pos + n].copy_from_slice(&buf[..n]);
            disk.pos += n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FakeFile {
        fn seek(&mut self, from: SeekFrom) -> std::io::Result<u64> {
            let mut disk = self.0.lock().unwrap();
            disk.pos = match from {
                SeekFrom::Start(n) => n as usize,
                SeekFrom::End(d) => (disk.bytes.len() as i64 + d) as usize,
                SeekFrom::Current(d) => (disk.pos as i64 + d) as usize,
            };
            Ok(disk.pos as u64)
        }
    }

    impl LogFile for FakeFile {
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            let mut disk = self.0.lock().unwrap();
            if disk.fail_set_len {
                return Err(std::io::Error::other("set_len failed"));
            }
            disk.bytes.resize(len as usize, 0);
            Ok(())
        }

        fn sync_data(&self) -> std::io::Result<()> {
            match self.0.lock().unwrap().fail_sync {
                true => Err(std::io::Error::other("fsync failed")),
                false => Ok(()),
            }
        }

        fn sync_all(&self) -> std::io::Result<()> {
            self.sync_data()
        }
    }

    fn faulty(policy: FsyncPolicy) -> (Wal, std::sync::Arc<std::sync::Mutex<Disk>>) {
        let disk = std::sync::Arc::new(std::sync::Mutex::new(Disk::default()));
        let file = Box::new(FakeFile(std::sync::Arc::clone(&disk)));
        (Wal::with_file(file, policy, 0, Arc::default()), disk)
    }

    fn payloads(disk: &std::sync::Mutex<Disk>) -> Vec<Vec<u8>> {
        let scan = scan_bytes(&disk.lock().unwrap().bytes);
        assert_eq!(scan.torn_bytes, 0, "no partial frame is left behind");
        scan.payloads
    }

    #[test]
    fn a_short_write_is_cut_back_so_later_appends_survive() {
        let (mut wal, disk) = faulty(FsyncPolicy::Off);
        wal.append(b"first").unwrap();
        disk.lock().unwrap().space = Some(5); // ENOSPC mid-frame
        assert!(wal.append(b"rejected").is_err());
        disk.lock().unwrap().space = None;
        wal.append(b"third").unwrap();
        assert_eq!(payloads(&disk), vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(wal.len(), disk.lock().unwrap().bytes.len() as u64);
    }

    #[test]
    fn a_failed_cut_back_poisons_the_log() {
        let (mut wal, disk) = faulty(FsyncPolicy::Off);
        wal.append(b"first").unwrap();
        {
            let mut disk = disk.lock().unwrap();
            disk.space = Some(3);
            disk.fail_set_len = true;
        }
        assert!(wal.append(b"rejected").is_err());
        {
            let mut disk = disk.lock().unwrap();
            disk.space = None;
            disk.fail_set_len = false;
        }
        assert!(
            wal.append(b"later").is_err(),
            "a poisoned log acknowledges nothing"
        );
        assert!(wal.sync().is_err());
        assert!(wal.truncate().is_err());
    }

    #[test]
    fn a_failed_fsync_poisons_and_keeps_the_rejected_record_out() {
        let (mut wal, disk) = faulty(FsyncPolicy::Always);
        wal.append(b"acknowledged").unwrap();
        disk.lock().unwrap().fail_sync = true;
        assert!(wal.append(b"rejected").is_err());
        assert_eq!(payloads(&disk), vec![b"acknowledged".to_vec()]);
        // The fault clears, but the log never retries and acknowledges.
        disk.lock().unwrap().fail_sync = false;
        assert!(wal.append(b"later").is_err());
        assert!(wal.sync().is_err());
        assert!(wal.truncate().is_err());
        assert_eq!(payloads(&disk), vec![b"acknowledged".to_vec()]);
    }

    #[test]
    fn a_failed_batch_sync_poisons_the_log() {
        let (mut wal, disk) = faulty(FsyncPolicy::Batch);
        wal.append(b"pending").unwrap();
        disk.lock().unwrap().fail_sync = true;
        assert!(wal.sync().is_err());
        disk.lock().unwrap().fail_sync = false;
        assert!(wal.sync().is_err());
        assert!(wal.append(b"later").is_err());
        assert_eq!(payloads(&disk), vec![b"pending".to_vec()]);
    }
}
