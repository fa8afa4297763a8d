//! The transport layer: the readiness-driven reactor thread plus the
//! executor-backed worker pool.
//!
//! Everything the server *means* lives in [`crate::service`] — this module
//! only owns threads and queues; the sockets themselves live in
//! [`crate::reactor`]. One `uu-server-reactor` thread owns **all** sockets
//! of both fronts in non-blocking mode (epoll on Linux, `poll(2)` fallback),
//! performs buffered reads with incremental frame assembly, and pushes only
//! *complete* requests onto the work queue drained by a fixed pool of worker
//! threads sized to the shared executor budget (`UU_THREADS`). Each worker
//! runs its request inside [`Executor::run_inline`], so the statistics work
//! it triggers runs inline on the worker itself instead of borrowing pool
//! helpers: any number of connections — including 10,000+ mostly-idle ones —
//! never sees more than the executor budget of compute threads, which the
//! concurrent-connection integration test pins via
//! `exec::global().metrics().peak_workers`. Idle connections cost one
//! registered fd and **zero** worker or executor activity.
//!
//! Responses travel back as `Completion`s: a worker pushes the encoded
//! bytes plus the connection's reclaimed `SessionCtx`/scratch buffer and
//! wakes the reactor through the wakeup pipe; the reactor queues the bytes
//! on the connection under `EPOLLOUT`-driven write backpressure. The
//! pgwire framing lives in [`crate::pgwire`]; both fronts route through the
//! same [`Service::dispatch`].

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::Response;
use crate::reactor::{Completion, FrontKind, Payload, Reactor, Work};
use crate::service::Service;
use uu_query::catalog::Catalog;
use uu_query::exec::QueryProfileCache;
use uu_stats::exec::Executor;
use uu_store::{FsyncPolicy, Store};

/// How long a worker blocked on the work queue waits before re-checking the
/// shutdown flag (a safety net; shutdown also notifies the condvar).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration; every field has a production-safe default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Optional bind address for the pgwire-lite front (`--pgwire-port`);
    /// `None` leaves it disabled.
    pub pgwire_addr: Option<String>,
    /// Request-worker pool size; 0 means the shared executor budget
    /// (`UU_THREADS` / detected cores).
    pub workers: usize,
    /// Bound on one inbound frame (a JSON request line or a pgwire message);
    /// 0 means [`crate::service::DEFAULT_MAX_FRAME_BYTES`]. Oversized frames
    /// answer a structured `frame_too_large` error. The bound applies to the
    /// accumulated per-connection read buffer, not per-read chunks.
    pub max_frame_bytes: usize,
    /// Profile-cache entry capacity.
    pub cache_capacity: usize,
    /// Optional profile-cache byte budget (`--cache-bytes`).
    pub cache_bytes: Option<usize>,
    /// Optional profile-cache TTL (`--cache-ttl-ms`).
    pub cache_ttl: Option<Duration>,
    /// Optional idle-connection timeout (`--idle-timeout-ms`): a connection
    /// that completes no frame for the window is reaped — nothing is
    /// written, the socket just closes. `None` (the default) disables
    /// reaping.
    pub idle_timeout: Option<Duration>,
    /// Optional bind address for the Prometheus scraper front
    /// (`--metrics-port`); `None` leaves it disabled.
    pub metrics_addr: Option<String>,
    /// Optional slow-query threshold (`--slow-query-ms`): queries at or over
    /// it are logged as JSON lines with their full span tree. `None`
    /// disables slow-query logging.
    pub slow_query_ms: Option<u64>,
    /// Where slow-query records go (`--slow-query-log`): a file path
    /// (appended), or `None` for stderr. Ignored unless `slow_query_ms` is
    /// set.
    pub slow_query_log: Option<String>,
    /// Optional durability directory (`--data-dir`): arms the observation
    /// WAL + snapshot checkpoints and recovers the catalog from the
    /// directory's contents before the first connection is accepted. `None`
    /// (the default) keeps the catalog purely in memory.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy (`--fsync`): `always`, `batch` (default) or `off`.
    /// Ignored unless `data_dir` is set.
    pub fsync: FsyncPolicy,
    /// Rows appended since the last checkpoint that trigger the next one
    /// (`--checkpoint-rows`); 0 means the default.
    pub checkpoint_rows: u64,
    /// WAL size in bytes that triggers a checkpoint (`--checkpoint-bytes`);
    /// 0 means the default.
    pub checkpoint_bytes: u64,
}

/// Default row-count checkpoint trigger (`--checkpoint-rows`).
pub const DEFAULT_CHECKPOINT_ROWS: u64 = 50_000;

/// Default WAL-size checkpoint trigger (`--checkpoint-bytes`).
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 16 << 20;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            pgwire_addr: None,
            workers: 0,
            max_frame_bytes: 0,
            cache_capacity: uu_core::profile::DEFAULT_PROFILE_CACHE_CAPACITY,
            cache_bytes: None,
            cache_ttl: None,
            idle_timeout: None,
            metrics_addr: None,
            slow_query_ms: None,
            slow_query_log: None,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            checkpoint_rows: 0,
            checkpoint_bytes: 0,
        }
    }
}

impl ServerConfig {
    /// The profile cache this configuration describes.
    pub fn build_cache(&self) -> QueryProfileCache {
        let mut cache = QueryProfileCache::new(self.cache_capacity);
        if let Some(bytes) = self.cache_bytes {
            cache = cache.with_byte_budget(bytes);
        }
        if let Some(ttl) = self.cache_ttl {
            cache = cache.with_ttl(ttl);
        }
        cache
    }

    /// The effective worker-pool size: the configured value, **clamped to
    /// the shared executor budget**. Workers compute inline, so a pool
    /// larger than `UU_THREADS` would silently oversubscribe the very budget
    /// the executor exists to enforce (and invisibly to `peak_workers`,
    /// which only counts executor-spawned work).
    pub fn effective_workers(&self) -> usize {
        let budget = uu_core::exec::global().threads();
        if self.workers == 0 {
            budget
        } else {
            self.workers.min(budget)
        }
    }
}

/// Shared state between the reactor thread, the worker pool and the owner.
/// Transport-only: the meaning of requests lives in the [`Service`].
pub struct ServerState {
    service: Arc<Service>,
    shutdown: AtomicBool,
    work: Mutex<VecDeque<Work>>,
    work_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the reactor's wakeup pipe (a `UnixStream` pair — the
    /// read end lives in the reactor and is registered with the poller).
    waker: UnixStream,
}

impl ServerState {
    /// The transport-agnostic core every front dispatches through.
    pub(crate) fn service(&self) -> &Service {
        &self.service
    }

    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake every worker blocked on the queue and the reactor blocked in
        // its poll so both observe the flag.
        self.work_ready.notify_all();
        self.wake_reactor();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Queues one complete request for the worker pool (reactor side) and
    /// moves the queue-depth high-water mark.
    pub(crate) fn push_work(&self, work: Work) {
        let mut queue = self.work.lock().expect("work queue lock");
        queue.push_back(work);
        let depth = queue.len() as u64;
        drop(queue);
        self.service.note_queue_depth(depth);
        self.work_ready.notify_one();
    }

    /// Queues one finished response for the reactor (worker side) and wakes
    /// it.
    pub(crate) fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion queue lock")
            .push(completion);
        self.wake_reactor();
    }

    /// Drains the completion queue (reactor side).
    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completion queue lock"))
    }

    /// Writes one byte down the wakeup pipe; a full pipe means a wake is
    /// already pending, so `WouldBlock` is success.
    fn wake_reactor(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// A running server: bound addresses plus the thread handles.
pub struct ServerHandle {
    addr: SocketAddr,
    pgwire_addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    state: Arc<ServerState>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound line-JSON address (resolves port 0 to the actual ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound pgwire-lite address, when that front is enabled.
    pub fn pgwire_addr(&self) -> Option<SocketAddr> {
        self.pgwire_addr
    }

    /// The bound Prometheus scraper address, when that front is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The service behind this server, for embedded callers that want to
    /// dispatch without a socket.
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.state.service)
    }

    /// Asks the server to stop (idempotent; also triggered by the `shutdown`
    /// verb) without waiting for the threads.
    pub fn request_shutdown(&self) {
        self.state.initiate_shutdown();
    }

    /// Blocks until the server exits (a client sent `shutdown`, or
    /// [`ServerHandle::request_shutdown`] ran).
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// [`ServerHandle::request_shutdown`] + [`ServerHandle::join`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Don't leak the reactor if the owner forgets to join; the threads
        // observe the flag on the next wake.
        self.state.initiate_shutdown();
    }
}

/// Binds and starts a server over an empty catalog configured from `config`.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let catalog = Catalog::with_cache(config.build_cache());
    spawn_with_catalog(config, catalog)
}

/// Binds and starts a server over a pre-loaded catalog (benches, embedded
/// use). The catalog's own cache policy wins — `config`'s cache fields are
/// only used by [`spawn`].
pub fn spawn_with_catalog(config: ServerConfig, mut catalog: Catalog) -> io::Result<ServerHandle> {
    // Durability first: recover the catalog from the data directory before
    // any socket exists, so the first accepted connection already sees the
    // recovered tables (and re-warmed profile cache).
    let store = match &config.data_dir {
        Some(dir) => {
            let rows = if config.checkpoint_rows == 0 {
                DEFAULT_CHECKPOINT_ROWS
            } else {
                config.checkpoint_rows
            };
            let bytes = if config.checkpoint_bytes == 0 {
                DEFAULT_CHECKPOINT_BYTES
            } else {
                config.checkpoint_bytes
            };
            let store = Store::open(dir, config.fsync, rows, bytes).map_err(store_io)?;
            let report = store.recover(&mut catalog).map_err(store_io)?;
            if report.tables > 0 || report.replayed_records > 0 {
                eprintln!(
                    "uu-server: recovered {} table(s) from {}, replayed {} WAL record(s)",
                    report.tables,
                    dir.display(),
                    report.replayed_records,
                );
            }
            if report.truncated_tail_bytes > 0 {
                eprintln!(
                    "uu-server: discarded a torn {}-byte WAL tail (uncommitted final record)",
                    report.truncated_tail_bytes,
                );
            }
            Some(Arc::new(store))
        }
        None => None,
    };

    let listener = bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pgwire_listener = match &config.pgwire_addr {
        Some(addr) => Some(bind(addr)?),
        None => None,
    };
    let pgwire_addr = pgwire_listener
        .as_ref()
        .map(|l| l.local_addr())
        .transpose()?;

    let workers = config.effective_workers().max(1);
    let service = Arc::new(Service::new(catalog, config.max_frame_bytes));
    if let Some(store) = &store {
        service.set_store(Arc::clone(store));
    }
    service.set_workers(workers);
    service.register_front("json");
    if pgwire_listener.is_some() {
        service.register_front("pgwire");
    }
    if let Some(threshold_ms) = config.slow_query_ms {
        let sink: Box<dyn Write + Send> = match &config.slow_query_log {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => Box::new(io::stderr()),
        };
        service.set_slow_query_log(Duration::from_millis(threshold_ms), sink);
    }

    let (waker, wake_rx) = UnixStream::pair()?;
    waker.set_nonblocking(true)?;
    let state = Arc::new(ServerState {
        service,
        shutdown: AtomicBool::new(false),
        work: Mutex::new(VecDeque::new()),
        work_ready: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker,
    });

    // Build the reactor on this thread so bind/poller errors surface in the
    // spawn result rather than killing a detached thread.
    let mut listeners = vec![(listener, FrontKind::Json)];
    if let Some(listener) = pgwire_listener {
        listeners.push((listener, FrontKind::Pgwire));
    }
    let reactor = Reactor::new(Arc::clone(&state), listeners, wake_rx, config.idle_timeout)?;
    let reactor_handle = std::thread::Builder::new()
        .name("uu-server-reactor".to_string())
        .spawn(move || reactor.run())?;

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let worker_state = Arc::clone(&state);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("uu-server-worker-{i}"))
                .spawn(move || worker_loop(&worker_state))?,
        );
    }

    let mut metrics_addr = None;
    if let Some(bind_addr) = &config.metrics_addr {
        match crate::metrics::spawn_metrics(bind_addr, Arc::clone(&state)) {
            Ok((bound, handle)) => {
                metrics_addr = Some(bound);
                state.service.register_front("metrics");
                worker_handles.push(handle);
            }
            Err(e) => {
                // Stop the already-running reactor/workers before surfacing
                // the bind error so nothing leaks.
                state.initiate_shutdown();
                return Err(e);
            }
        }
    }

    Ok(ServerHandle {
        addr,
        pgwire_addr,
        metrics_addr,
        state,
        reactor: Some(reactor_handle),
        workers: worker_handles,
    })
}

/// Maps a storage failure into the `io::Result` spawn contract; corruption
/// becomes `InvalidData` so the operator sees the message, not a panic.
fn store_io(e: uu_store::StoreError) -> io::Error {
    match e {
        uu_store::StoreError::Io(e) => e,
        uu_store::StoreError::Corrupt(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
    }
}

fn bind(addr: &str) -> io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    TcpListener::bind(&addrs[..])
}

/// One resident worker: pop a complete request (either front), serve it
/// inside the executor's inline scope, push the completion, repeat. Workers
/// never touch sockets; idle connections never reach the queue — the pool's
/// size bounds *compute*, not connection count.
fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let work = {
            let mut queue = state.work.lock().expect("work queue lock");
            loop {
                if let Some(work) = queue.pop_front() {
                    break Some(work);
                }
                if state.is_shutting_down() {
                    break None;
                }
                let (guard, _timeout) = state
                    .work_ready
                    .wait_timeout(queue, POLL_INTERVAL)
                    .expect("work queue lock");
                queue = guard;
            }
        };
        let Some(work) = work else {
            return;
        };
        // The worker *is* the executor worker: statistics regions triggered
        // by this request run inline rather than borrowing executor helpers,
        // so `workers` threads never exceed the executor's thread budget.
        let completion = Executor::run_inline(|| execute(state, work));
        let shutdown = completion.shutdown;
        // Push before initiating shutdown so the reactor's drain still
        // flushes this response (the `shutdown` verb's `Bye`).
        state.push_completion(completion);
        if shutdown {
            state.initiate_shutdown();
        }
    }
}

/// Serves one complete request and encodes the response bytes. The
/// connection's `SessionCtx` and scratch buffer ride along and return in the
/// completion — no per-request allocation of either.
fn execute(state: &ServerState, work: Work) -> Completion {
    let mut ctx = work.ctx;
    let scratch = work.scratch;
    let queue_wait = work.enqueued.elapsed();
    let (bytes, close, shutdown) = match work.payload {
        Payload::JsonLine => {
            let line = String::from_utf8_lossy(&scratch);
            let response = state
                .service
                .dispatch_line_timed(&mut ctx, &line, Some(queue_wait));
            let bye = matches!(response, Response::Bye);
            let mut encoded = response.encode();
            encoded.push('\n');
            (encoded.into_bytes(), bye, bye)
        }
        Payload::PgQuery => {
            // The pgwire panel fans one SQL text into several dispatches;
            // attribute the wait to the connection counters once rather than
            // to an arbitrary inner request.
            state.service.note_queue_wait(queue_wait);
            let sql = String::from_utf8_lossy(&scratch).into_owned();
            let bytes = crate::pgwire::simple_query_bytes(&state.service, &mut ctx, &sql);
            (bytes, false, false)
        }
    };
    Completion {
        slot: work.slot,
        generation: work.generation,
        ctx,
        scratch,
        bytes,
        close,
        shutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = ServerConfig::default();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.pgwire_addr, None);
        assert_eq!(config.max_frame_bytes, 0);
        assert_eq!(config.idle_timeout, None, "idle reaping defaults off");
        assert!(config.effective_workers() >= 1);
        let cache = config.build_cache();
        assert_eq!(
            cache.capacity(),
            uu_core::profile::DEFAULT_PROFILE_CACHE_CAPACITY
        );
        assert_eq!(cache.byte_budget(), None);
        assert_eq!(cache.ttl(), None);
    }

    #[test]
    fn workers_clamp_to_the_executor_budget() {
        let budget = uu_core::exec::global().threads();
        let config = ServerConfig {
            workers: budget + 100,
            ..ServerConfig::default()
        };
        assert_eq!(config.effective_workers(), budget);
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        assert_eq!(config.effective_workers(), 1);
    }

    #[test]
    fn config_cache_flags_reach_the_cache() {
        let config = ServerConfig {
            cache_capacity: 7,
            cache_bytes: Some(1 << 16),
            cache_ttl: Some(Duration::from_millis(250)),
            ..ServerConfig::default()
        };
        let cache = config.build_cache();
        assert_eq!(cache.capacity(), 7);
        assert_eq!(cache.byte_budget(), Some(1 << 16));
        assert_eq!(cache.ttl(), Some(Duration::from_millis(250)));
    }
}
