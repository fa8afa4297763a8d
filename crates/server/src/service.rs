//! The transport-agnostic service layer.
//!
//! [`Service`] is the whole server with the sockets cut away: it owns the
//! shared [`Catalog`] behind its `RwLock`, the server-wide limits and
//! counters, and the registry of **named server-side sessions** (each with a
//! pinned estimator selection and its prepared queries).
//! [`Service::dispatch`] is a total function `(&Service, &mut SessionCtx,
//! Request) -> Response` — every front (the line-JSON framing in
//! [`crate::server`], the pgwire-lite framing in [`crate::pgwire`], an
//! embedded caller, a test) routes through this one function, so answers
//! cannot depend on which wire they arrived on. No socket, listener or
//! framing type appears in this module; a grep test pins that.
//!
//! # Named sessions and prepared queries
//!
//! A `session_open` creates a server-side session addressable by name from
//! any connection: the estimator selection is resolved once
//! (`EstimatorKind::by_name`) and the [`EstimationSession`] is built once.
//! `prepare` parses a SQL text once and eagerly captures its selection
//! snapshots; `execute_prepared` then skips the parser entirely and reuses
//! the statement's **frozen** [`SelectionSnapshots`] for as long as the
//! table's `(instance, version)` is unchanged — not even a profile-cache
//! lookup happens on that path (counted as `frozen_hits` in `stats`). When
//! the table has moved, the statement re-fetches through the catalog's
//! profile cache ([`Catalog::selection_query`]) and re-freezes. Either way
//! the computation step is [`uu_query::exec::results_from_selection`] — the
//! answer step of [`Catalog::execute_sql`] and of every other query route —
//! so a prepared execute, an ad-hoc `query`, and a direct catalog call
//! answer bit-for-bit identically.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::protocol::{
    ErrorCode, GroupReply, LoadCsvRequest, MetricsReply, QueryReply, QueryRequest, Request,
    Response, ServerInfoReply, StatsReply, Wire, WireCacheStats, WireConnStats, WireError,
    WireEstimate, WireResult, WireSessionStats, WireSpan, WireStageMetrics, WireValue,
    PROTOCOL_VERSION,
};
use uu_core::engine::{EstimationSession, EstimatorKind};
use uu_core::obs;
use uu_core::obs::{ConnCounters, ServiceCounters, Stage, Verb};
use uu_query::catalog::Catalog;
use uu_query::csv::parse_observations;
use uu_query::exec::{CorrectionMethod, GroupResult, SelectionSnapshots};
use uu_query::query::AggregateQuery;
use uu_query::schema::{ColumnType, Schema};
use uu_query::sql::parse;
use uu_query::table::{AppendDelta, IntegratedTable};
use uu_store::Store;

/// Default bound on one inbound frame (a JSON request line or a pgwire
/// message body). Whole CSV documents travel in one frame, so the default is
/// generous, but a peer streaming unframed bytes is cut off here instead of
/// growing server memory without limit.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Cap on concurrently open named sessions. Sessions deliberately survive
/// disconnects, so without a cap a client looping `session_open` with fresh
/// names would grow server memory without limit — the same reasoning as the
/// frame bound.
pub const MAX_SESSIONS: usize = 1024;

/// Cap on prepared statements per named session. Each statement pins its
/// frozen [`SelectionSnapshots`] (outside the profile cache's byte budget),
/// so the registry must be bounded.
pub const MAX_PREPARED_PER_SESSION: usize = 256;

/// Per-client state: everything a front must keep between requests on one
/// connection. Deliberately small — the heavyweight state (named sessions,
/// prepared queries) lives server-side in the [`Service`] so it survives
/// reconnects and is reachable from every front.
#[derive(Default)]
pub struct SessionCtx {
    /// Ad-hoc estimator memo: rebuilt only when a `query` request names a
    /// different estimator set than the previous one on this connection.
    adhoc: Option<(Vec<EstimatorKind>, EstimationSession)>,
}

impl SessionCtx {
    /// A fresh per-client context.
    pub fn new() -> Self {
        SessionCtx::default()
    }
}

/// One prepared query: the SQL parsed once at `prepare` time plus the frozen
/// selection. Interior mutability keeps re-freezing (after a table mutation)
/// off the session map's lock.
struct PreparedQuery {
    sql: String,
    query: AggregateQuery,
    /// The frozen selection and the table state it was captured against.
    frozen: Mutex<Option<FrozenSelection>>,
    executes: AtomicU64,
    frozen_hits: AtomicU64,
}

struct FrozenSelection {
    instance: u64,
    version: u64,
    snapshots: SelectionSnapshots,
}

/// One named server-side session: pinned estimators + prepared queries.
struct NamedSession {
    estimator_names: Vec<String>,
    kinds: Vec<EstimatorKind>,
    session: EstimationSession,
    prepared: Mutex<BTreeMap<String, Arc<PreparedQuery>>>,
    opened: Instant,
    executes: AtomicU64,
    frozen_hits: AtomicU64,
}

/// The transport-agnostic server core. See the module docs.
pub struct Service {
    catalog: RwLock<Catalog>,
    sessions: Mutex<BTreeMap<String, Arc<NamedSession>>>,
    max_frame_bytes: usize,
    started: Instant,
    workers: AtomicU64,
    fronts: Mutex<Vec<String>>,
    counters: ServiceCounters,
    /// Maintained by the reactor, the I/O thread that owns every socket.
    conn: ConnCounters,
    slow_query: Mutex<Option<SlowQueryLog>>,
    store: Mutex<Option<Arc<Store>>>,
}

/// Slow-query logging: requests whose `elapsed_us` crosses the threshold are
/// written as one JSON line each (verb, SQL, session, timings, span tree) to
/// the configured sink. Arming this also arms span capture for every query,
/// so the record carries the full trace even when the client did not ask for
/// one.
struct SlowQueryLog {
    threshold: Duration,
    sink: Box<dyn Write + Send>,
}

impl Service {
    /// A service over `catalog` with the given frame bound (`0` means
    /// [`DEFAULT_MAX_FRAME_BYTES`]).
    pub fn new(catalog: Catalog, max_frame_bytes: usize) -> Self {
        Service {
            catalog: RwLock::new(catalog),
            sessions: Mutex::new(BTreeMap::new()),
            max_frame_bytes: if max_frame_bytes == 0 {
                DEFAULT_MAX_FRAME_BYTES
            } else {
                max_frame_bytes
            },
            started: Instant::now(),
            workers: AtomicU64::new(0),
            fronts: Mutex::new(Vec::new()),
            counters: ServiceCounters::default(),
            conn: ConnCounters::default(),
            slow_query: Mutex::new(None),
            store: Mutex::new(None),
        }
    }

    /// The inbound frame bound fronts must enforce.
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Records the handler-pool size for `stats` / `server_info`.
    pub fn set_workers(&self, workers: usize) {
        self.workers.store(workers as u64, Ordering::Relaxed);
    }

    /// Registers an enabled front by name (reported by `server_info`).
    pub fn register_front(&self, name: &str) {
        let mut fronts = self.fronts.lock().expect("fronts lock");
        if !fronts.iter().any(|f| f == name) {
            fronts.push(name.to_string());
        }
    }

    /// Counts one accepted connection (any front) and moves the live/peak
    /// gauges.
    pub fn connection_opened(&self) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        let now_open = self.conn.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conn.peak_open.fetch_max(now_open, Ordering::Relaxed);
    }

    /// The connection-layer counters, bumped by the reactor.
    pub(crate) fn conn(&self) -> &ConnCounters {
        &self.conn
    }

    /// Records the time one request spent parked in the reactor's work queue
    /// before a worker picked it up.
    pub fn note_queue_wait(&self, wait: Duration) {
        let us = wait.as_micros() as u64;
        self.conn
            .queue_wait_us_total
            .fetch_add(us, Ordering::Relaxed);
        self.conn.queue_wait_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// Arms the slow-query log: every `query` / `execute_prepared` whose
    /// service time reaches `threshold` is appended to `sink` as one JSON
    /// line carrying the full span tree. Passing the sink by trait object
    /// keeps the service transport-agnostic — a file, stderr, or a test
    /// buffer all work.
    pub fn set_slow_query_log(&self, threshold: Duration, sink: Box<dyn Write + Send>) {
        *self.slow_query.lock().expect("slow-query lock") = Some(SlowQueryLog { threshold, sink });
    }

    /// Arms durability: every committed `load_csv`/`append_stream` batch is
    /// WAL-logged through `store` **before** the in-memory catalog mutation,
    /// `checkpoint` / clean `shutdown` write snapshots to its data dir, and
    /// `stats` / `server_info` report its counters.
    pub fn set_store(&self, store: Arc<Store>) {
        *self.store.lock().expect("store lock") = Some(store);
    }

    /// The armed durability store, when `--data-dir` configured one.
    pub fn store(&self) -> Option<Arc<Store>> {
        self.store.lock().expect("store lock").clone()
    }

    /// Whether slow-query logging is armed (and with what threshold).
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.slow_query
            .lock()
            .expect("slow-query lock")
            .as_ref()
            .map(|log| log.threshold)
    }

    /// Renders the Prometheus text-format exposition: the per-(verb, stage)
    /// latency histograms from [`uu_core::obs`] plus every numeric counter
    /// of [`Service::stats`], named by [`obs::CounterField::metric_name`].
    /// This is the body the `--metrics-port` HTTP front serves; keeping the
    /// rendering here means an embedded caller can scrape without a socket.
    pub fn render_prometheus(&self) -> String {
        let stats = self.stats();
        let mut out = obs::render_prometheus(&obs::snapshot());
        obs::render_counters(&mut out, None, &stats.service);
        obs::render_counters(&mut out, Some("cache"), &stats.cache.counters);
        obs::render_counters(&mut out, Some("projection"), &stats.projection);
        obs::render_counters(&mut out, Some("conn"), &stats.conn.counters);
        obs::render_counters(&mut out, Some("incremental"), &stats.incremental);
        obs::render_counters(&mut out, Some("storage"), &stats.storage);
        out
    }

    /// Counts an error produced by a front outside [`Service::dispatch`]
    /// (e.g. an oversized frame answered at the framing layer).
    pub fn note_error(&self) {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Decodes and dispatches one request line — the framing-free entry the
    /// line-JSON front uses. Decode failures are counted and answered like
    /// any other error.
    pub fn dispatch_line(&self, ctx: &mut SessionCtx, line: &str) -> Response {
        self.dispatch_line_timed(ctx, line, None)
    }

    /// [`Service::dispatch_line`] with the time the frame spent parked in
    /// the reactor's work queue, when the front measured it. The wait feeds
    /// the `queue_wait` histogram/conn counters and, when the request is
    /// traced, a synthetic root span — it is *not* part of the reply's
    /// `elapsed_us`, which remains pure service time.
    pub fn dispatch_line_timed(
        &self,
        ctx: &mut SessionCtx,
        line: &str,
        queue_wait: Option<Duration>,
    ) -> Response {
        match Request::decode(line) {
            Ok(request) => self.dispatch_timed(ctx, request, queue_wait),
            Err(e) => {
                self.counters.requests.fetch_add(1, Ordering::Relaxed);
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(WireError::new(ErrorCode::MalformedRequest, e.to_string()))
            }
        }
    }

    /// Dispatches one request: a total function with no transport types in
    /// its signature. Every front routes through here.
    pub fn dispatch(&self, ctx: &mut SessionCtx, request: Request) -> Response {
        self.dispatch_timed(ctx, request, None)
    }

    /// [`Service::dispatch`] plus the observability envelope: attributes the
    /// request to its [`Verb`], opens the `request` umbrella span, decides
    /// whether to capture a span tree (the client asked via `"trace": true`,
    /// or the slow-query log is armed), attaches the tree to traced query
    /// replies, and emits the slow-query record when the threshold is
    /// crossed.
    pub fn dispatch_timed(
        &self,
        ctx: &mut SessionCtx,
        request: Request,
        queue_wait: Option<Duration>,
    ) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let verb = verb_of(&request);
        let _verb_scope = obs::verb_scope(verb);
        if let Some(wait) = queue_wait {
            self.note_queue_wait(wait);
        }

        let is_query = matches!(request, Request::Query(_) | Request::ExecutePrepared { .. });
        let wants_trace = matches!(&request, Request::Query(q) if q.trace);
        let slow_armed = is_query && self.slow_query_threshold().is_some();
        let tracing = (wants_trace || slow_armed) && obs::trace_begin();
        if let Some(wait) = queue_wait {
            // Histogram always; becomes a root span too while tracing.
            obs::trace_push_complete(Stage::QueueWait, wait);
        }
        let slow_session = match &request {
            Request::ExecutePrepared { session, .. } => Some(session.clone()),
            _ => None,
        };

        let mut response = {
            let _span = obs::span(Stage::Request);
            self.dispatch_inner(ctx, request)
        };

        let trace = if tracing { obs::trace_take() } else { None };
        if wants_trace {
            if let (Some(trace), Response::Query(reply)) = (&trace, &mut response) {
                reply.trace = Some(wire_trace(trace));
            }
        }
        if slow_armed {
            self.maybe_log_slow(verb, slow_session.as_deref(), &response, trace.as_ref());
        }
        if matches!(response, Response::Error(_)) {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    /// Appends one JSON line to the slow-query sink when the reply's service
    /// time reached the armed threshold.
    fn maybe_log_slow(
        &self,
        verb: Verb,
        session: Option<&str>,
        response: &Response,
        trace: Option<&obs::Trace>,
    ) {
        let Response::Query(reply) = response else {
            return;
        };
        let mut guard = self.slow_query.lock().expect("slow-query lock");
        let Some(log) = guard.as_mut() else { return };
        if Duration::from_micros(reply.elapsed_us) < log.threshold {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as i64)
            .unwrap_or(0);
        let spans = trace.map(wire_trace).unwrap_or_default();
        let record = Json::obj([
            ("ts_ms", Json::Int(ts_ms)),
            ("verb", Json::Str(verb.as_str().to_string())),
            ("sql", Json::Str(reply.sql.clone())),
            (
                "session",
                match session {
                    Some(name) => Json::Str(name.to_string()),
                    None => Json::Null,
                },
            ),
            ("elapsed_us", Json::Int(reply.elapsed_us as i64)),
            ("cache_hit", Json::Bool(reply.cache_hit)),
            ("grouped", Json::Bool(reply.grouped)),
            ("trace", spans.to_json()),
        ]);
        let _ = writeln!(log.sink, "{}", record.render());
        let _ = log.sink.flush();
    }

    fn dispatch_inner(&self, ctx: &mut SessionCtx, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                // A clean shutdown leaves nothing to replay: flush the WAL
                // and write a final checkpoint so the next start recovers
                // purely from snapshots. Failures are logged, not fatal —
                // the WAL alone already preserves every committed batch.
                if let Some(store) = self.store() {
                    let catalog = self.catalog.read().expect("catalog lock");
                    let result = store
                        .flush()
                        .and_then(|()| store.checkpoint(&catalog).map(|_| ()));
                    if let Err(e) = result {
                        eprintln!("uu-server: final checkpoint failed: {e}");
                    }
                }
                Response::Bye
            }
            Request::Checkpoint => match self.store() {
                Some(store) => {
                    let catalog = self.catalog.read().expect("catalog lock");
                    match store.checkpoint(&catalog) {
                        Ok((tables, bytes)) => Response::Checkpointed { tables, bytes },
                        Err(e) => {
                            Response::Error(WireError::new(ErrorCode::Storage, e.to_string()))
                        }
                    }
                }
                None => Response::Error(WireError::new(
                    ErrorCode::Storage,
                    "durability is not armed (start the server with --data-dir)",
                )),
            },
            Request::Stats => Response::Stats(Box::new(self.stats())),
            Request::Metrics => Response::Metrics(self.metrics_reply()),
            Request::ServerInfo => Response::Info(self.server_info()),
            Request::Warm { sql } => {
                let catalog = self.catalog.read().expect("catalog lock");
                match catalog.warm_sql(&sql) {
                    Ok((universes, already_cached)) => Response::Warmed {
                        sql,
                        universes: universes as u64,
                        already_cached,
                    },
                    Err(e) => Response::Error(WireError::from_exec(&e)),
                }
            }
            Request::LoadCsv(load) => match self.load_csv(&load) {
                Ok(response) => response,
                Err(e) => Response::Error(e),
            },
            Request::AppendStream {
                table,
                source_column,
                csv,
            } => match self.append_stream(&table, &source_column, &csv) {
                Ok(response) => response,
                Err(e) => Response::Error(e),
            },
            Request::Query(query) => match self.run_query(&query, ctx) {
                Ok(reply) => Response::Query(reply),
                Err(e) => Response::Error(e),
            },
            Request::SessionOpen { name, estimators } => {
                match self.session_open(&name, &estimators) {
                    Ok(response) => response,
                    Err(e) => Response::Error(e),
                }
            }
            Request::SessionClose { name } => match self.session_close(&name) {
                Ok(response) => response,
                Err(e) => Response::Error(e),
            },
            Request::Prepare { session, name, sql } => match self.prepare(&session, &name, &sql) {
                Ok(response) => response,
                Err(e) => Response::Error(e),
            },
            Request::ExecutePrepared { session, name } => {
                match self.execute_prepared(&session, &name) {
                    Ok(reply) => Response::Query(reply),
                    Err(e) => Response::Error(e),
                }
            }
            Request::Deallocate { session, name } => match self.deallocate(&session, &name) {
                Ok(response) => response,
                Err(e) => Response::Error(e),
            },
        }
    }

    // -----------------------------------------------------------------------
    // Named sessions / prepared queries
    // -----------------------------------------------------------------------

    fn session(&self, name: &str) -> Result<Arc<NamedSession>, WireError> {
        self.sessions
            .lock()
            .expect("sessions lock")
            .get(name)
            .cloned()
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::UnknownSession,
                    format!("no open session named {name:?}"),
                )
            })
    }

    fn session_open(&self, name: &str, estimators: &[String]) -> Result<Response, WireError> {
        let kinds = estimators
            .iter()
            .map(|n| EstimatorKind::by_name(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| WireError::unknown_estimator(&e))?;
        let estimator_names: Vec<String> = kinds.iter().map(|k| k.name().to_string()).collect();
        let mut sessions = self.sessions.lock().expect("sessions lock");
        if sessions.contains_key(name) {
            return Err(WireError::new(
                ErrorCode::DuplicateSession,
                format!("session {name:?} is already open"),
            ));
        }
        if sessions.len() >= MAX_SESSIONS {
            return Err(WireError::new(
                ErrorCode::ResourceLimit,
                format!("too many open sessions (limit {MAX_SESSIONS}); close one first"),
            ));
        }
        sessions.insert(
            name.to_string(),
            Arc::new(NamedSession {
                estimator_names: estimator_names.clone(),
                session: EstimationSession::new(kinds.clone()),
                kinds,
                prepared: Mutex::new(BTreeMap::new()),
                opened: Instant::now(),
                executes: AtomicU64::new(0),
                frozen_hits: AtomicU64::new(0),
            }),
        );
        Ok(Response::SessionOpened {
            name: name.to_string(),
            estimators: estimator_names,
        })
    }

    fn session_close(&self, name: &str) -> Result<Response, WireError> {
        let session = self
            .sessions
            .lock()
            .expect("sessions lock")
            .remove(name)
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::UnknownSession,
                    format!("no open session named {name:?}"),
                )
            })?;
        let prepared_dropped = session.prepared.lock().expect("prepared lock").len() as u64;
        Ok(Response::SessionClosed {
            name: name.to_string(),
            prepared_dropped,
        })
    }

    fn prepare(&self, session_name: &str, name: &str, sql: &str) -> Result<Response, WireError> {
        let session = self.session(session_name)?;
        let query = parse(sql).map_err(|e| WireError::new(ErrorCode::Parse, e.to_string()))?;
        // Capture (and cache) the selection eagerly: a bad table name fails
        // here, at prepare time, and the first execute is already a pure
        // cache hit.
        let catalog = self.catalog.read().expect("catalog lock");
        let table = catalog
            .get(&query.table)
            .ok_or_else(|| WireError::new(ErrorCode::UnknownTable, query.table.clone()))?;
        let (instance, version) = (table.instance(), table.version());
        let (snapshots, already_cached) = catalog
            .selection_query(&query)
            .map_err(|e| WireError::from_exec(&e))?;
        let universes = snapshots.len() as u64;
        let mut prepared = session.prepared.lock().expect("prepared lock");
        if prepared.contains_key(name) {
            return Err(WireError::new(
                ErrorCode::DuplicatePrepared,
                format!("statement {name:?} is already prepared in session {session_name:?}"),
            ));
        }
        if prepared.len() >= MAX_PREPARED_PER_SESSION {
            return Err(WireError::new(
                ErrorCode::ResourceLimit,
                format!(
                    "session {session_name:?} holds the maximum of \
                     {MAX_PREPARED_PER_SESSION} prepared statements; deallocate one first"
                ),
            ));
        }
        prepared.insert(
            name.to_string(),
            Arc::new(PreparedQuery {
                sql: sql.to_string(),
                query,
                frozen: Mutex::new(Some(FrozenSelection {
                    instance,
                    version,
                    snapshots,
                })),
                executes: AtomicU64::new(0),
                frozen_hits: AtomicU64::new(0),
            }),
        );
        Ok(Response::Prepared {
            session: session_name.to_string(),
            name: name.to_string(),
            sql: sql.to_string(),
            universes,
            already_cached,
        })
    }

    fn deallocate(&self, session_name: &str, name: &str) -> Result<Response, WireError> {
        let session = self.session(session_name)?;
        session
            .prepared
            .lock()
            .expect("prepared lock")
            .remove(name)
            .ok_or_else(|| unknown_prepared(session_name, name))?;
        Ok(Response::Deallocated {
            session: session_name.to_string(),
            name: name.to_string(),
        })
    }

    fn execute_prepared(&self, session_name: &str, name: &str) -> Result<QueryReply, WireError> {
        let start = Instant::now();
        let session = self.session(session_name)?;
        let stmt = session
            .prepared
            .lock()
            .expect("prepared lock")
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_prepared(session_name, name))?;

        let catalog = self.catalog.read().expect("catalog lock");
        let table = catalog
            .get(&stmt.query.table)
            .ok_or_else(|| WireError::new(ErrorCode::UnknownTable, stmt.query.table.clone()))?;
        let (instance, version) = (table.instance(), table.version());
        // Reuse the frozen selection while the table state matches; re-fetch
        // through the profile cache (and re-freeze) otherwise.
        let mut frozen = stmt.frozen.lock().expect("frozen lock");
        let (snapshots, cache_hit) = match frozen.as_ref() {
            Some(f) if f.instance == instance && f.version == version => {
                stmt.frozen_hits.fetch_add(1, Ordering::Relaxed);
                session.frozen_hits.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(&f.snapshots), true)
            }
            _ => {
                let (snapshots, hit) = catalog
                    .selection_query(&stmt.query)
                    .map_err(|e| WireError::from_exec(&e))?;
                *frozen = Some(FrozenSelection {
                    instance,
                    version,
                    snapshots: Arc::clone(&snapshots),
                });
                (snapshots, hit)
            }
        };
        drop(frozen);
        stmt.executes.fetch_add(1, Ordering::Relaxed);
        session.executes.fetch_add(1, Ordering::Relaxed);

        let method = session
            .kinds
            .first()
            .copied()
            .map(correction_for)
            .unwrap_or(CorrectionMethod::None);
        let fan_out = (!session.kinds.is_empty()).then_some(&session.session);
        let (rows, estimates) = answer(&stmt.query, &snapshots, method, fan_out);
        let mut out = {
            let _span = obs::span(Stage::Serialize);
            reply(
                stmt.sql.clone(),
                cache_hit,
                0,
                stmt.query.group_by.is_some(),
                rows,
                estimates,
            )
        };
        out.elapsed_us = start.elapsed().as_micros() as u64;
        Ok(out)
    }

    // -----------------------------------------------------------------------
    // Ad-hoc queries (per-connection estimator memo)
    // -----------------------------------------------------------------------

    fn run_query(
        &self,
        request: &QueryRequest,
        ctx: &mut SessionCtx,
    ) -> Result<QueryReply, WireError> {
        let start = Instant::now();
        let query = {
            let _span = obs::span(Stage::Parse);
            parse(&request.sql).map_err(|e| WireError::new(ErrorCode::Parse, e.to_string()))?
        };
        let kinds = request
            .estimators
            .iter()
            .map(|name| EstimatorKind::by_name(name))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| WireError::unknown_estimator(&e))?;
        let method = kinds
            .first()
            .copied()
            .map(correction_for)
            .unwrap_or(CorrectionMethod::None);
        let grouped = query.group_by.is_some();

        // Reuse the connection's session when the estimator set is unchanged.
        if !kinds.is_empty()
            && !ctx
                .adhoc
                .as_ref()
                .is_some_and(|(memo_kinds, _)| memo_kinds == &kinds)
        {
            ctx.adhoc = Some((kinds.clone(), EstimationSession::new(kinds.clone())));
        }
        let session = (!kinds.is_empty()).then(|| &ctx.adhoc.as_ref().expect("built above").1);

        // Fetch-once: one selection per request feeds both the corrected
        // aggregate (the same answer step `Catalog::execute_sql` runs) and
        // the session fan-out. A cached query makes exactly one
        // cache lookup, so the counters record one miss per cold query and
        // one hit per repeat; an uncached one freezes the selection as a miss
        // would and leaves the cache untouched.
        let catalog = self.catalog.read().expect("catalog lock");
        let (snapshots, cache_hit) = if request.cached {
            catalog.selection_query(&query)
        } else {
            catalog
                .freeze_query(&query)
                .map(|snapshots| (snapshots, false))
        }
        .map_err(|e| WireError::from_exec(&e))?;
        let (rows, estimates) = answer(&query, &snapshots, method, session);
        let mut out = {
            let _span = obs::span(Stage::Serialize);
            reply(request.sql.clone(), cache_hit, 0, grouped, rows, estimates)
        };
        // Measured after serialization so a traced reply's span tree tiles
        // the whole reported service time.
        out.elapsed_us = start.elapsed().as_micros() as u64;
        Ok(out)
    }

    // -----------------------------------------------------------------------
    // Admin verbs
    // -----------------------------------------------------------------------

    /// Loads a CSV **atomically**: a fresh load is ingested into a staged
    /// table and only registered once the whole document succeeded; an
    /// `append` is parsed into a validated batch and applied through the
    /// catalog's delta path ([`Catalog::append_observations`]), which stages
    /// the batch the same way — a bad row half-way through a document can
    /// never leave a partially-loaded table behind, so a corrected retry
    /// with the same request is always safe. Routing the append through the
    /// delta path keeps warm state alive: projections grow in place and
    /// cached selections re-freeze instead of being evicted.
    fn load_csv(&self, load: &LoadCsvRequest) -> Result<Response, WireError> {
        let store = self.store();
        let mut catalog = self.catalog.write().expect("catalog lock");
        let exists = catalog.get(&load.table).is_some();
        if exists && !load.append {
            return Err(WireError::new(
                ErrorCode::DuplicateTable,
                format!(
                    "table {:?} is already registered (set \"append\": true to extend it)",
                    load.table
                ),
            ));
        }
        if exists {
            let (delta, _refrozen) = append_csv(
                store.as_deref(),
                &mut catalog,
                &load.table,
                &load.source_column,
                &load.csv,
            )?;
            return Ok(Response::Loaded {
                table: load.table.clone(),
                observations: delta.version_after - delta.version_before,
                entities: delta.rows_after as u64,
            });
        }
        let columns = load
            .columns
            .iter()
            .map(|(name, ty)| Ok((name.clone(), parse_column_type(ty)?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        let mut staged = IntegratedTable::new(
            &load.table,
            Schema::new(columns.clone()),
            &load.entity_column,
        )
        .map_err(|e| WireError::new(ErrorCode::Table, e.to_string()))?;
        let batch = parse_observations(staged.schema(), &load.csv, &load.source_column)
            .map_err(|e| WireError::new(ErrorCode::Csv, e.to_string()))?;
        // The whole batch in one append (validated in full first), keeping
        // the batch in hand for the WAL record. `CsvError::Table` displays
        // as the inner error, so the error text is `load_observations`'s.
        staged
            .append_batch(batch.clone())
            .map_err(|e| WireError::new(ErrorCode::Csv, e.to_string()))?;
        let observations = batch.len() as u64;
        let entities = staged.len() as u64;
        // Log only after every row validated: the WAL holds committed
        // batches, never half-loads.
        if let Some(store) = &store {
            store
                .log_fresh(&load.table, &columns, &load.entity_column, &batch)
                .map_err(storage_error)?;
        }
        catalog
            .register(staged)
            .map_err(|e| WireError::new(ErrorCode::DuplicateTable, e.to_string()))?;
        Ok(Response::Loaded {
            table: load.table.clone(),
            observations,
            entities,
        })
    }

    /// Appends an observation batch to an existing table through the
    /// incremental-maintenance path — `append_csv`, the same path an
    /// appending `load_csv` takes; only the reply differs.
    fn append_stream(
        &self,
        table: &str,
        source_column: &str,
        csv: &str,
    ) -> Result<Response, WireError> {
        let store = self.store();
        let mut catalog = self.catalog.write().expect("catalog lock");
        let (delta, refrozen) =
            append_csv(store.as_deref(), &mut catalog, table, source_column, csv)?;
        Ok(Response::Appended {
            table: table.to_string(),
            observations: delta.version_after - delta.version_before,
            entities: delta.rows_after as u64,
            refrozen,
            incremental: true,
        })
    }

    /// The `server_info` payload.
    pub fn server_info(&self) -> ServerInfoReply {
        let store = self.store();
        ServerInfoReply {
            version: env!("CARGO_PKG_VERSION").to_string(),
            protocol: PROTOCOL_VERSION,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            active_sessions: self.sessions.lock().expect("sessions lock").len() as u64,
            fronts: self.fronts.lock().expect("fronts lock").clone(),
            workers: self.workers.load(Ordering::Relaxed),
            data_dir: store.as_ref().map(|s| s.dir().display().to_string()),
            durability: store
                .as_ref()
                .map(|s| s.policy().as_str().to_string())
                .unwrap_or_else(|| "off".to_string()),
            last_checkpoint_age_ms: store
                .as_ref()
                .and_then(|s| s.last_checkpoint_age())
                .map(|age| age.as_secs_f64() * 1e3),
        }
    }

    /// The `stats` payload.
    pub fn stats(&self) -> StatsReply {
        let catalog = self.catalog.read().expect("catalog lock");
        let cache = catalog.cache();
        let sessions = self
            .sessions
            .lock()
            .expect("sessions lock")
            .iter()
            .map(|(name, s)| WireSessionStats {
                name: name.clone(),
                estimators: s.estimator_names.clone(),
                prepared: s.prepared.lock().expect("prepared lock").len() as u64,
                executes: s.executes.load(Ordering::Relaxed),
                frozen_hits: s.frozen_hits.load(Ordering::Relaxed),
                age_ms: s.opened.elapsed().as_millis() as u64,
            })
            .collect();
        StatsReply {
            protocol: PROTOCOL_VERSION,
            tables: catalog
                .table_names()
                .into_iter()
                .map(str::to_string)
                .collect(),
            workers: self.workers.load(Ordering::Relaxed),
            service: self.counters.snapshot(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            sessions,
            cache: WireCacheStats {
                counters: cache.metrics(),
                capacity: cache.capacity() as u64,
                byte_budget: cache.byte_budget().map(|b| b as f64),
                ttl_ms: cache.ttl().map(|t| t.as_secs_f64() * 1e3),
            },
            projection: catalog.projection_stats(),
            conn: WireConnStats {
                counters: self.conn.snapshot(),
                backend: crate::reactor::BACKEND.to_string(),
            },
            incremental: catalog.incremental_stats(),
            storage: self.store().map(|store| store.stats()).unwrap_or_default(),
        }
    }

    /// The `metrics` payload: one quantile digest per `(verb, stage)` pair
    /// that has recorded at least one sample, derived from the merged
    /// per-worker histogram shards. Quantiles are bucket upper bounds
    /// (clamped to the observed min/max), reported in microseconds.
    pub fn metrics_reply(&self) -> MetricsReply {
        let snapshot = obs::snapshot();
        let entries = snapshot
            .entries
            .iter()
            .map(|entry| WireStageMetrics {
                verb: entry.verb.as_str().to_string(),
                stage: entry.stage.as_str().to_string(),
                count: entry.hist.count,
                p50_us: entry.hist.quantile_ns(0.50) as f64 / 1e3,
                p90_us: entry.hist.quantile_ns(0.90) as f64 / 1e3,
                p99_us: entry.hist.quantile_ns(0.99) as f64 / 1e3,
                max_us: entry.hist.max_ns as f64 / 1e3,
                mean_us: entry.hist.mean_ns() as f64 / 1e3,
            })
            .collect();
        MetricsReply { entries }
    }
}

/// The [`Verb`] a request is attributed to in the stage histograms.
fn verb_of(request: &Request) -> Verb {
    match request {
        Request::Query(_) => Verb::Query,
        Request::ExecutePrepared { .. } => Verb::Prepared,
        Request::AppendStream { .. } => Verb::Append,
        Request::LoadCsv(_) => Verb::Load,
        Request::Warm { .. } => Verb::Warm,
        _ => Verb::Other,
    }
}

/// Converts a captured span tree to its wire form (parent links become
/// indices into the same array).
fn wire_trace(trace: &obs::Trace) -> Vec<WireSpan> {
    trace
        .spans
        .iter()
        .map(|span| WireSpan {
            stage: span.stage.as_str().to_string(),
            label: span.label.clone(),
            parent: span.parent.map(|p| p as u64),
            start_ns: span.start_ns,
            dur_ns: span.dur_ns,
        })
        .collect()
}

/// The rows-and-estimates step every query verb shares: the corrected
/// aggregate of each universe (the answer step behind
/// [`Catalog::execute_sql`]) and, given a session, its
/// per-estimator fan-out over the same snapshots.
fn answer(
    query: &AggregateQuery,
    snapshots: &SelectionSnapshots,
    method: CorrectionMethod,
    session: Option<&EstimationSession>,
) -> (Vec<GroupResult>, Vec<Vec<WireEstimate>>) {
    // The corrected aggregate is estimator work too: without this span the
    // correction, bound and recommendation of every universe go untraced.
    let rows = {
        let _span = obs::span(Stage::EstimatorFanout);
        uu_query::exec::results_from_selection(query, snapshots, method)
    };
    let estimates = snapshots
        .iter()
        .map(|(_, snapshot)| match session {
            Some(session) => session
                .run_profiled(snapshot)
                .iter()
                .map(WireEstimate::from_named)
                .collect(),
            None => Vec::new(),
        })
        .collect();
    (rows, estimates)
}

fn reply(
    sql: String,
    cache_hit: bool,
    elapsed_us: u64,
    grouped: bool,
    rows: Vec<GroupResult>,
    estimates: Vec<Vec<WireEstimate>>,
) -> QueryReply {
    debug_assert_eq!(rows.len(), estimates.len());
    let groups = rows
        .into_iter()
        .zip(estimates)
        .map(|(row, est)| GroupReply {
            key: WireValue(row.key),
            result: WireResult::from_result(&row.result, est),
        })
        .collect();
    QueryReply {
        sql,
        cache_hit,
        elapsed_us,
        grouped,
        groups,
        trace: None,
    }
}

/// The one append path behind both `load_csv` with `"append": true` and
/// `append_stream`: parse the CSV against the table's schema, log the batch
/// to the WAL, apply it through the catalog's delta path, then checkpoint
/// if the store says one is due. The caller holds the catalog write lock.
/// The batch is validated in full before any row is applied, so a failed
/// append leaves the table untouched. Returns the delta and how many cached
/// selections were re-frozen.
fn append_csv(
    store: Option<&Store>,
    catalog: &mut Catalog,
    table: &str,
    source_column: &str,
    csv: &str,
) -> Result<(AppendDelta, u64), WireError> {
    let existing = catalog
        .get(table)
        .ok_or_else(|| WireError::new(ErrorCode::UnknownTable, table))?;
    let version_before = existing.version();
    let batch = parse_observations(existing.schema(), csv, source_column)
        .map_err(|e| WireError::new(ErrorCode::Csv, e.to_string()))?;
    let rows = batch.len() as u64;
    // WAL before the in-memory mutation: a crash between the two replays
    // the batch; a crash before the write loses an unacknowledged request,
    // never a committed one.
    if let Some(store) = store {
        store
            .log_append(table, version_before, &batch)
            .map_err(storage_error)?;
    }
    let appended = catalog
        .append_observations(table, batch)
        .map_err(|e| WireError::from_exec(&e))?;
    if let Some(store) = store {
        if let Err(e) = store.maybe_checkpoint(catalog, rows) {
            eprintln!("uu-server: background checkpoint failed: {e}");
        }
    }
    Ok(appended)
}

fn storage_error(e: uu_store::StoreError) -> WireError {
    WireError::new(ErrorCode::Storage, e.to_string())
}

fn unknown_prepared(session: &str, name: &str) -> WireError {
    WireError::new(
        ErrorCode::UnknownPrepared,
        format!("no prepared statement {name:?} in session {session:?}"),
    )
}

/// The primary correction a registry kind applies to the aggregate.
pub(crate) fn correction_for(kind: EstimatorKind) -> CorrectionMethod {
    match kind {
        EstimatorKind::Naive => CorrectionMethod::Naive,
        EstimatorKind::Frequency => CorrectionMethod::Frequency,
        EstimatorKind::Bucket => CorrectionMethod::Bucket,
        EstimatorKind::MonteCarlo(cfg) => CorrectionMethod::MonteCarlo(cfg),
        EstimatorKind::Policy => CorrectionMethod::Auto,
    }
}

fn parse_column_type(ty: &str) -> Result<ColumnType, WireError> {
    match ty.to_ascii_lowercase().as_str() {
        "int" | "integer" => Ok(ColumnType::Int),
        "float" | "double" | "real" => Ok(ColumnType::Float),
        "str" | "string" | "text" => Ok(ColumnType::Str),
        other => Err(WireError::new(
            ErrorCode::MalformedRequest,
            format!("unknown column type {other:?} (expected int, float or str)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_mapping_covers_every_kind() {
        for kind in EstimatorKind::all() {
            let method = correction_for(kind);
            match kind {
                EstimatorKind::Policy => assert_eq!(method, CorrectionMethod::Auto),
                EstimatorKind::Naive => assert_eq!(method, CorrectionMethod::Naive),
                EstimatorKind::Frequency => assert_eq!(method, CorrectionMethod::Frequency),
                EstimatorKind::Bucket => assert_eq!(method, CorrectionMethod::Bucket),
                EstimatorKind::MonteCarlo(cfg) => {
                    assert_eq!(method, CorrectionMethod::MonteCarlo(cfg))
                }
            }
        }
    }

    #[test]
    fn column_types_parse_with_aliases() {
        assert_eq!(parse_column_type("int").unwrap(), ColumnType::Int);
        assert_eq!(parse_column_type("Float").unwrap(), ColumnType::Float);
        assert_eq!(parse_column_type("STRING").unwrap(), ColumnType::Str);
        assert!(parse_column_type("blob").is_err());
    }

    #[test]
    fn zero_frame_bound_falls_back_to_the_default() {
        let service = Service::new(Catalog::new(), 0);
        assert_eq!(service.max_frame_bytes(), DEFAULT_MAX_FRAME_BYTES);
        let service = Service::new(Catalog::new(), 1024);
        assert_eq!(service.max_frame_bytes(), 1024);
    }
}
