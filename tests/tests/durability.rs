//! Durability integration tests: the observation WAL, snapshot checkpoints
//! and crash recovery must never lose a committed batch.
//!
//! Three layers of coverage:
//!
//! 1. **Torn-tail exhaustion** — the WAL of a known batch sequence is
//!    truncated at *every* byte offset inside its final record; recovery
//!    must never panic, must report the exact torn-byte count, and must
//!    reproduce the pre-final-record state bit-for-bit.
//! 2. **SIGKILL mid-ingest** — a real `uu-server` child process is killed
//!    with SIGKILL while a client streams appends; a restart on the same
//!    `--data-dir` must recover every acknowledged batch (the replayed
//!    record count defines the reference run) and the first post-restart
//!    query on the previously-hot selection must be a profile-cache hit.
//! 3. **Clean shutdown** — the `shutdown` verb writes a final checkpoint,
//!    so a restart replays zero WAL records and still serves the first
//!    query from the re-warmed cache.
//! 4. **Concurrent checkpoints** — the `checkpoint` verb and `shutdown`
//!    both checkpoint under the catalog *read* lock, so two checkpoints may
//!    overlap each other and queries; each must succeed and leave a
//!    directory that recovers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use uu_query::catalog::Catalog;
use uu_query::exec::CorrectionMethod;
use uu_query::schema::{ColumnType, Schema};
use uu_query::table::IntegratedTable;
use uu_query::value::Value;
use uu_server::client::Client;
use uu_server::protocol::{LoadCsvRequest, Request, Response};
use uu_server::server::{spawn, ServerConfig};
use uu_server::service::{Service, SessionCtx};
use uu_store::{FsyncPolicy, Store};

const SQL: &str = "SELECT SUM(employees) FROM companies";

/// A fresh scratch directory per call (`std::env::temp_dir()` is shared, so
/// the name carries the pid and a counter).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("uu-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn columns() -> Vec<(String, ColumnType)> {
    vec![
        ("company".to_string(), ColumnType::Str),
        ("employees".to_string(), ColumnType::Float),
    ]
}

/// Deterministic batch `i`: one observation of a fresh entity.
fn batch(i: u32) -> Vec<(u32, Vec<Value>)> {
    vec![(
        i,
        vec![
            Value::Str(format!("E{i}")),
            Value::Float(100.0 + f64::from(i)),
        ],
    )]
}

/// The canonical answer for a catalog state (cached path, so the comparison
/// also exercises the replay-refrozen profile entries).
fn answer(catalog: &Catalog) -> String {
    format!(
        "{:?}",
        catalog.execute_sql(SQL, CorrectionMethod::Bucket).unwrap()
    )
}

/// A catalog holding `fresh + (records - 1)` appended batches, built through
/// the same staged paths the server uses — the recovery reference.
fn reference_catalog(records: u32) -> Catalog {
    let mut catalog = Catalog::new();
    let mut staged = IntegratedTable::new("companies", Schema::new(columns()), "company").unwrap();
    for (source, values) in &batch(0) {
        staged.insert_observation(*source, values.clone()).unwrap();
    }
    catalog.register(staged).unwrap();
    for i in 1..records {
        catalog.append_observations("companies", batch(i)).unwrap();
    }
    catalog
}

/// Layer 1: truncate the WAL at every byte offset of its final record.
/// Recovery must be total — no panic, no error, no lost committed batch —
/// and must account for every discarded byte.
#[test]
fn torn_wal_tail_never_loses_a_committed_batch() {
    const RECORDS: u32 = 4;

    // Write a WAL of RECORDS batches (1 fresh load + 3 appends) through the
    // real store API, tracking the byte length after each record so the
    // final record's frame boundaries are known exactly.
    let writer_dir = scratch("torn-writer");
    let store = Store::open(&writer_dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
    let mut catalog = Catalog::new();
    let first = batch(0);
    store
        .log_fresh("companies", &columns(), "company", &first)
        .unwrap();
    let mut staged = IntegratedTable::new("companies", Schema::new(columns()), "company").unwrap();
    for (source, values) in &first {
        staged.insert_observation(*source, values.clone()).unwrap();
    }
    catalog.register(staged).unwrap();
    for i in 1..RECORDS {
        let version_before = catalog.get("companies").unwrap().version();
        let b = batch(i);
        store.log_append("companies", version_before, &b).unwrap();
        catalog.append_observations("companies", b).unwrap();
    }
    store.flush().unwrap();
    let full = std::fs::read(writer_dir.join("observations.wal")).unwrap();
    let full_len = full.len();
    // Frame boundary of the final record: scan the length prefixes.
    let mut prefix_len = 0usize;
    for _ in 0..RECORDS - 1 {
        let len = u32::from_le_bytes(full[prefix_len..prefix_len + 4].try_into().unwrap());
        prefix_len += 8 + len as usize;
    }
    assert!(prefix_len < full_len, "final record must be non-empty");

    let want_partial = answer(&reference_catalog(RECORDS - 1));
    let want_full = answer(&reference_catalog(RECORDS));

    // Every cut inside the final record loses exactly that record — the
    // RECORDS-1 committed ones before it must survive bit-for-bit.
    for cut in prefix_len..full_len {
        let dir = scratch("torn-cut");
        std::fs::write(dir.join("observations.wal"), &full[..cut]).unwrap();
        let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut recovered = Catalog::new();
        let report = store.recover(&mut recovered).unwrap();
        assert_eq!(
            report.truncated_tail_bytes,
            (cut - prefix_len) as u64,
            "cut at byte {cut}"
        );
        assert_eq!(report.replayed_records, u64::from(RECORDS) - 1);
        assert_eq!(answer(&recovered), want_partial, "cut at byte {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The untruncated WAL recovers everything.
    let dir = scratch("torn-intact");
    std::fs::write(dir.join("observations.wal"), &full).unwrap();
    let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
    let mut recovered = Catalog::new();
    let report = store.recover(&mut recovered).unwrap();
    assert_eq!(report.truncated_tail_bytes, 0);
    assert_eq!(report.replayed_records, u64::from(RECORDS));
    assert_eq!(answer(&recovered), want_full);
}

const KILL_CSV: &str = "\
worker,company,employees
0,A,1000
0,B,2000
1,B,2000
1,D,10000
";

fn load_request() -> Request {
    Request::LoadCsv(LoadCsvRequest {
        table: "companies".to_string(),
        columns: vec![
            ("company".to_string(), "str".to_string()),
            ("employees".to_string(), "float".to_string()),
        ],
        entity_column: "company".to_string(),
        source_column: "worker".to_string(),
        csv: KILL_CSV.to_string(),
        append: false,
    })
}

fn append_csv(i: u32) -> String {
    format!("worker,company,employees\n{i},X{i},{}\n", 100 + i)
}

/// The `uu-server` binary next to this test executable, when the bins were
/// built (`target/<profile>/deps/<test>` → `target/<profile>/uu-server`).
fn server_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.parent()?.join("uu-server");
    bin.exists().then_some(bin)
}

/// Layer 2: SIGKILL a real server mid-ingest, restart on the same data dir,
/// and pin the recovered answer bit-for-bit against an unkilled reference
/// run that ingested exactly the replayed batches.
#[test]
fn sigkill_mid_append_recovers_every_acknowledged_batch() {
    let Some(bin) = server_bin() else {
        eprintln!("skipping: uu-server binary not built next to the test executable");
        return;
    };
    let data_dir = scratch("sigkill-data");
    let port_file = data_dir.join("port");

    let mut child = std::process::Command::new(&bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--data-dir")
        .arg(&data_dir)
        .arg("--fsync")
        .arg("off")
        .arg("--checkpoint-rows")
        .arg("1000000")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn uu-server");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if text.ends_with('\n') {
                break text.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // Load, make the selection hot through the cached path, then checkpoint
    // so the snapshot carries the cached selection and the WAL is empty.
    let mut client = Client::connect(&addr).unwrap();
    assert!(matches!(
        client.request(&load_request()).unwrap(),
        Response::Loaded { .. }
    ));
    let warm = client.query(SQL, &[], true).unwrap();
    assert!(!warm.cache_hit, "first query is the cold fill");
    assert!(client.query(SQL, &[], true).unwrap().cache_hit);
    let (tables, bytes) = client.checkpoint().unwrap();
    assert_eq!(tables, 1);
    assert!(bytes > 0);

    // Stream deterministic appends from a second connection until the
    // server dies under them.
    let appender_addr = addr.clone();
    let appender = std::thread::spawn(move || {
        let Ok(mut client) = Client::connect(&appender_addr) else {
            return;
        };
        for i in 0..100_000u32 {
            if client
                .append_stream("companies", "worker", &append_csv(i))
                .is_err()
            {
                break;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(200));
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();
    appender.join().unwrap();

    // Restart in-process on the same data dir.
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        fsync: FsyncPolicy::Off,
        ..ServerConfig::default()
    };
    let handle = spawn(config).expect("restart on the same --data-dir");
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.storage.recovered_tables >= 1,
        "snapshot recovery ran: {:?}",
        stats.storage
    );
    let replayed = stats.storage.replayed_records;
    let reply = client.query(SQL, &[], true).unwrap();
    assert!(
        reply.cache_hit,
        "first post-restart query must hit the re-warmed profile cache"
    );

    // Reference: an unkilled in-process service that ingests the load plus
    // exactly the batches the WAL preserved.
    let reference = Service::new(Catalog::new(), 0);
    let mut ctx = SessionCtx::new();
    assert!(matches!(
        reference.dispatch(&mut ctx, load_request()),
        Response::Loaded { .. }
    ));
    for i in 0..replayed {
        let response = reference.dispatch(
            &mut ctx,
            Request::AppendStream {
                table: "companies".to_string(),
                source_column: "worker".to_string(),
                csv: append_csv(i as u32),
            },
        );
        assert!(matches!(response, Response::Appended { .. }));
    }
    let want = match reference.dispatch(
        &mut ctx,
        Request::Query(uu_server::protocol::QueryRequest {
            sql: SQL.to_string(),
            estimators: Vec::new(),
            cached: true,
            trace: false,
        }),
    ) {
        Response::Query(reply) => reply,
        other => panic!("reference query failed: {}", other.encode()),
    };
    assert_eq!(
        format!("{:?}", reply.groups),
        format!("{:?}", want.groups),
        "recovered answer must be bit-for-bit the unkilled run's answer \
         ({replayed} replayed records)"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Layer 3: a clean `shutdown` flushes and checkpoints, so the next start
/// replays zero WAL records and still serves the first query hot.
#[test]
fn clean_shutdown_restarts_with_an_empty_wal_and_a_warm_cache() {
    let data_dir = scratch("clean-shutdown");

    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        fsync: FsyncPolicy::Batch,
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        client.request(&load_request()).unwrap(),
        Response::Loaded { .. }
    ));
    client
        .append_stream("companies", "worker", &append_csv(7))
        .unwrap();
    let before = client.query(SQL, &[], true).unwrap();
    client.shutdown().unwrap();
    handle.join();

    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        fsync: FsyncPolicy::Batch,
        ..ServerConfig::default()
    };
    let handle = spawn(config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.storage.replayed_records, 0,
        "clean shutdown leaves nothing to replay: {:?}",
        stats.storage
    );
    assert_eq!(stats.storage.recovered_tables, 1);
    let after = client.query(SQL, &[], true).unwrap();
    assert!(after.cache_hit, "restart re-warms the profile cache");
    assert_eq!(
        format!("{:?}", after.groups),
        format!("{:?}", before.groups),
        "restart preserves the answer bit-for-bit"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Layer 4: two threads checkpoint the same catalog at once while a third
/// queries it. Every checkpoint must succeed, and after every round the
/// directory must open and recover to the live answer.
#[test]
fn concurrent_checkpoints_all_succeed_and_recover() {
    const ROUNDS: u32 = 30;
    const CALLS: u32 = 20;
    let dir = scratch("concurrent-checkpoint");
    let store = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
    let mut catalog = Catalog::new();
    let first = batch(0);
    store
        .log_fresh("companies", &columns(), "company", &first)
        .unwrap();
    let mut staged = IntegratedTable::new("companies", Schema::new(columns()), "company").unwrap();
    for (source, values) in &first {
        staged.insert_observation(*source, values.clone()).unwrap();
    }
    catalog.register(staged).unwrap();
    for i in 1..40 {
        let version_before = catalog.get("companies").unwrap().version();
        let b = batch(i);
        store.log_append("companies", version_before, &b).unwrap();
        catalog.append_observations("companies", b).unwrap();
    }
    let want = answer(&catalog);

    for round in 0..ROUNDS {
        let errors: Vec<String> = std::thread::scope(|s| {
            let (store, catalog, want) = (&store, &catalog, &want);
            let checkpointers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        (0..CALLS)
                            .filter_map(|_| store.checkpoint(catalog).err())
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let reader = s.spawn(move || {
                for _ in 0..CALLS {
                    assert_eq!(&answer(catalog), want);
                }
            });
            reader.join().unwrap();
            checkpointers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert!(errors.is_empty(), "round {round}: {errors:?}");

        let reopened = Store::open(&dir, FsyncPolicy::Off, u64::MAX, u64::MAX).unwrap();
        let mut recovered = Catalog::new();
        reopened.recover(&mut recovered).unwrap();
        assert_eq!(answer(&recovered), want, "round {round}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
