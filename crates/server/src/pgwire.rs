//! A pgwire-lite front: the PostgreSQL wire protocol (v3), hand-rolled.
//!
//! This is the proof that the service layer is genuinely transport-agnostic:
//! a second framing — startup/auth-ok, simple query (`Q`), error responses —
//! over the **same** [`Service::dispatch`] the line-JSON front uses, so
//! `psql -c "SELECT AVG(x) FROM t WHERE ..."` talks to the estimation server
//! with zero new dependencies. Scope is deliberately "lite": no TLS (an
//! `SSLRequest` is declined with `N`, exactly like a non-SSL postgres), no
//! auth (every startup is answered `AuthenticationOk`), no extended query
//! protocol (a `Parse`/`Bind` answers a clean error and the connection
//! stays usable — prepared queries live in the richer JSON protocol).
//!
//! A simple query answers **one row per registry estimator** with the
//! columns `estimator, estimate, lower, upper, recommendation` (plus a
//! leading `group` column for `GROUP BY` queries): `estimate` is the
//! estimator's unknown-unknowns-corrected aggregate, `lower` the
//! closed-world answer, `upper` the §4 upper bound where defined, and
//! `recommendation` the §6.5 policy verdict. Each row is produced by a real
//! `Request::Query` dispatch with that estimator as the primary correction,
//! so the numbers are bit-for-bit the JSON front's answers (floats render
//! with Rust's shortest round-trip form).
//!
//! Connections are owned by the readiness-driven reactor
//! ([`crate::reactor`]) like the JSON front's: `PgCodec` is the
//! **resumable** framing state machine — the reactor feeds it the
//! per-connection read buffer as bytes arrive (no blocking `read_exact`),
//! and each `PgStep` it yields is either protocol bytes to queue
//! (handshake, declines, errors) or one complete simple query to hand to
//! the worker pool. `peak_workers ≤ UU_THREADS` holds with both fronts live
//! and any number of idle connections parked.
//!
//! The module also carries [`PgClient`], a minimal raw-socket driver for the
//! protocol (startup + simple query) used by the loopback tests, the
//! `uu-client pgwire-probe` subcommand and the CI smoke script — no `psql`
//! dependency anywhere in the build.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{ErrorCode, QueryReply, QueryRequest, Request, Response, WireError};
use crate::service::{Service, SessionCtx};
use uu_core::engine::EstimatorKind;
use uu_query::value::Value;

/// Protocol version 3.0.
const PROTOCOL_V3: i32 = 196_608;
/// `SSLRequest` magic.
const SSL_REQUEST: i32 = 80_877_103;
/// `GSSENCRequest` magic.
const GSSENC_REQUEST: i32 = 80_877_104;
/// `CancelRequest` magic.
const CANCEL_REQUEST: i32 = 80_877_102;
/// Text type OID (everything is text in pgwire-lite).
const OID_TEXT: i32 = 25;

/// One text row: a cell per column, `None` = SQL NULL.
pub type PgRow = Vec<Option<String>>;

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

fn be_i32(bytes: &[u8]) -> i32 {
    i32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// One step the codec asks the reactor to take. Every yielded step consumed
/// exactly one complete inbound frame.
pub(crate) enum PgStep {
    /// Queue these protocol bytes (handshake replies, unsupported-message
    /// errors followed by `ReadyForQuery`) and keep framing.
    Reply(Vec<u8>),
    /// Like [`PgStep::Reply`] but counts a protocol error.
    ErrorReply(Vec<u8>),
    /// One complete simple query; the SQL bytes are in the scratch buffer.
    /// Hand it to the worker pool.
    Query,
    /// The peer ended the conversation cleanly (`Terminate`, or a
    /// `CancelRequest` connection): flush and close.
    Close,
    /// Unrecoverable framing state: queue these error bytes, flush, close.
    Fatal(Vec<u8>),
}

/// The **resumable** pgwire framing state machine: the reactor feeds it the
/// per-connection read buffer; it consumes at most one complete frame per
/// call and never blocks. Partial frames stay buffered — a peer dribbling
/// one byte per write assembles exactly the same frames as one sending them
/// whole.
pub(crate) struct PgCodec {
    /// Whether the startup handshake completed (startup packets have no
    /// type byte; ready-phase messages do).
    ready: bool,
}

impl PgCodec {
    pub(crate) fn new() -> Self {
        PgCodec { ready: false }
    }

    /// Tries to consume one frame from `buf`. Returns `None` when no
    /// complete frame is buffered yet. On [`PgStep::Query`] the SQL bytes
    /// are left in `scratch` (reused across frames, no per-query `String`).
    pub(crate) fn next_step(
        &mut self,
        buf: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
        max_frame: usize,
    ) -> Option<PgStep> {
        if !self.ready {
            if buf.len() < 4 {
                return None;
            }
            let len = be_i32(&buf[..4]);
            if len < 8 {
                return Some(PgStep::Fatal(error_bytes(
                    "08P01",
                    "malformed message length",
                )));
            }
            let len = len as usize;
            if len > max_frame {
                return Some(PgStep::Fatal(error_bytes(
                    "54000",
                    &format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
                )));
            }
            if buf.len() < len {
                return None;
            }
            let code = be_i32(&buf[4..8]);
            buf.drain(..len);
            match code {
                SSL_REQUEST | GSSENC_REQUEST => Some(PgStep::Reply(b"N".to_vec())),
                CANCEL_REQUEST => Some(PgStep::Close),
                PROTOCOL_V3 => {
                    self.ready = true;
                    Some(PgStep::Reply(startup_ok_bytes()))
                }
                other => Some(PgStep::Fatal(error_bytes(
                    "08P01",
                    &format!("unsupported protocol code {other}"),
                ))),
            }
        } else {
            if buf.len() < 5 {
                return None;
            }
            let kind = buf[0];
            let len = be_i32(&buf[1..5]);
            if len < 4 {
                return Some(PgStep::Fatal(error_bytes(
                    "08P01",
                    "malformed message length",
                )));
            }
            let len = len as usize;
            if len > max_frame {
                return Some(PgStep::Fatal(error_bytes(
                    "54000",
                    &format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
                )));
            }
            if buf.len() < 1 + len {
                return None;
            }
            let step = match kind {
                b'Q' => {
                    let body = &buf[5..1 + len];
                    let sql = body.split(|&b| b == 0).next().unwrap_or(body);
                    scratch.clear();
                    scratch.extend_from_slice(sql);
                    PgStep::Query
                }
                b'X' => PgStep::Close,
                other => {
                    // Extended-protocol or unknown message: answer a clean
                    // error, stay in sync (messages are length framed, so
                    // the body is skipped by the drain below).
                    let mut bytes = error_bytes(
                        "0A000",
                        &format!(
                            "message {:?} is not supported by pgwire-lite (simple query only)",
                            other as char
                        ),
                    );
                    bytes.extend_from_slice(&message(b'Z', b"I"));
                    PgStep::ErrorReply(bytes)
                }
            };
            buf.drain(..1 + len);
            Some(step)
        }
    }
}

/// AuthenticationOk + parameter status + backend key + ReadyForQuery.
fn startup_ok_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    // AuthenticationOk.
    out.extend_from_slice(&message(b'R', &0i32.to_be_bytes()));
    for (key, value) in [
        ("server_version", "14.0 (uu-server pgwire-lite)"),
        ("server_encoding", "UTF8"),
        ("client_encoding", "UTF8"),
    ] {
        let mut body = Vec::new();
        push_cstr(&mut body, key);
        push_cstr(&mut body, value);
        out.extend_from_slice(&message(b'S', &body));
    }
    // BackendKeyData (cancellation is not supported; a dummy key keeps
    // clients that expect the message happy).
    let mut body = Vec::new();
    body.extend_from_slice(&1i32.to_be_bytes());
    body.extend_from_slice(&0i32.to_be_bytes());
    out.extend_from_slice(&message(b'K', &body));
    out.extend_from_slice(&message(b'Z', b"I"));
    out
}

/// Answers one simple query as encoded bytes: one `Request::Query` dispatch
/// per registry estimator, all against the same cached selection, rendered
/// as one text row per (group ×) estimator. Errors become `ErrorResponse`
/// and the connection stays usable. Runs on a worker thread — no sockets.
pub(crate) fn simple_query_bytes(service: &Service, ctx: &mut SessionCtx, sql: &str) -> Vec<u8> {
    let mut out = if sql.trim().is_empty() {
        message(b'I', b"")
    } else {
        match panel(service, ctx, sql) {
            Ok((columns, rows)) => {
                let mut out = row_description(&columns);
                for row in &rows {
                    out.extend_from_slice(&data_row(row));
                }
                let mut tag = Vec::new();
                push_cstr(&mut tag, &format!("SELECT {}", rows.len()));
                out.extend_from_slice(&message(b'C', &tag));
                out
            }
            Err(e) => error_bytes(sqlstate(e.code), &e.message),
        }
    };
    out.extend_from_slice(&message(b'Z', b"I"));
    out
}

/// The full-panel answer for one SQL text: dispatches one query per registry
/// estimator through the service and lays the replies out as text rows.
fn panel(
    service: &Service,
    ctx: &mut SessionCtx,
    sql: &str,
) -> Result<(Vec<String>, Vec<PgRow>), WireError> {
    let mut replies: Vec<(&'static str, QueryReply)> = Vec::new();
    for kind in EstimatorKind::all() {
        let response = service.dispatch(
            ctx,
            Request::Query(QueryRequest {
                sql: sql.to_string(),
                estimators: vec![kind.name().to_string()],
                cached: true,
                trace: false,
            }),
        );
        match response {
            Response::Query(reply) => replies.push((kind.name(), reply)),
            Response::Error(e) => return Err(e),
            other => {
                return Err(WireError::new(
                    ErrorCode::Internal,
                    format!("unexpected dispatch response: {}", other.encode()),
                ))
            }
        }
    }
    Ok(panel_rows(&replies))
}

/// Renders per-estimator query replies as pgwire-lite text rows — shared
/// with the loopback tests so expectations are computed by the same code.
pub fn panel_rows(replies: &[(&'static str, QueryReply)]) -> (Vec<String>, Vec<PgRow>) {
    let grouped = replies.first().is_some_and(|(_, r)| r.grouped);
    let mut columns = Vec::new();
    if grouped {
        columns.push("group".to_string());
    }
    for name in ["estimator", "estimate", "lower", "upper", "recommendation"] {
        columns.push(name.to_string());
    }
    // Size by the widest reply: the per-estimator dispatches don't hold the
    // catalog lock across each other, so a concurrent mutation can change
    // the group set mid-panel — a reply with extra groups must still render
    // its rows rather than be silently truncated to the first reply's count.
    let n_groups = replies
        .iter()
        .map(|(_, r)| r.groups.len())
        .max()
        .unwrap_or(0);
    let mut rows = Vec::new();
    for gi in 0..n_groups {
        for (name, reply) in replies {
            let Some(group) = reply.groups.get(gi) else {
                continue;
            };
            let r = &group.result;
            let mut row = Vec::new();
            if grouped {
                row.push(render_group_key(&group.key.0));
            }
            row.push(Some((*name).to_string()));
            row.push(render_cell(r.corrected));
            row.push(Some(render_f64(r.observed)));
            row.push(render_cell(r.upper_bound));
            row.push(Some(r.recommendation.clone()));
            rows.push(row);
        }
    }
    (columns, rows)
}

/// A float cell, shortest round-trip form (`NaN` / `inf` / `-inf` for
/// non-finite values — the same spellings the JSON protocol uses).
pub fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-inf".to_string()
    } else {
        format!("{v}")
    }
}

/// An optional float cell (`None` ⇒ SQL NULL).
pub fn render_cell(v: Option<f64>) -> Option<String> {
    v.map(render_f64)
}

/// A group-key cell (`Null` ⇒ SQL NULL; strings unquoted).
pub fn render_group_key(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(render_f64(*f)),
        Value::Str(s) => Some(s.clone()),
    }
}

/// The SQLSTATE a wire error code maps to.
fn sqlstate(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::Parse => "42601",
        ErrorCode::UnknownTable => "42P01",
        ErrorCode::Table => "42703",
        ErrorCode::UnknownEstimator => "22023",
        ErrorCode::FrameTooLarge => "54000",
        _ => "XX000",
    }
}

// ---------------------------------------------------------------------------
// Message building
// ---------------------------------------------------------------------------

/// Frames one message: type byte + BE length (including itself) + body.
fn message(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(kind);
    out.extend_from_slice(&((body.len() as i32 + 4).to_be_bytes()));
    out.extend_from_slice(body);
    out
}

fn push_cstr(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

fn row_description(columns: &[String]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(columns.len() as i16).to_be_bytes());
    for column in columns {
        push_cstr(&mut body, column);
        body.extend_from_slice(&0i32.to_be_bytes()); // table OID
        body.extend_from_slice(&0i16.to_be_bytes()); // attribute number
        body.extend_from_slice(&OID_TEXT.to_be_bytes()); // type OID
        body.extend_from_slice(&(-1i16).to_be_bytes()); // type size (varlena)
        body.extend_from_slice(&(-1i32).to_be_bytes()); // type modifier
        body.extend_from_slice(&0i16.to_be_bytes()); // format: text
    }
    message(b'T', &body)
}

fn data_row(cells: &[Option<String>]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&(cells.len() as i16).to_be_bytes());
    for cell in cells {
        match cell {
            None => body.extend_from_slice(&(-1i32).to_be_bytes()),
            Some(text) => {
                body.extend_from_slice(&(text.len() as i32).to_be_bytes());
                body.extend_from_slice(text.as_bytes());
            }
        }
    }
    message(b'D', &body)
}

/// An `ErrorResponse` message with severity/SQLSTATE/message fields.
fn error_bytes(sqlstate: &str, message_text: &str) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(b'S');
    push_cstr(&mut body, "ERROR");
    body.push(b'V');
    push_cstr(&mut body, "ERROR");
    body.push(b'C');
    push_cstr(&mut body, sqlstate);
    body.push(b'M');
    push_cstr(&mut body, message_text);
    body.push(0);
    message(b'E', &body)
}

// ---------------------------------------------------------------------------
// Raw-socket driver (tests, uu-client pgwire-probe, CI smoke)
// ---------------------------------------------------------------------------

/// A simple-query result as text cells (`None` = SQL NULL).
#[derive(Debug, Clone, PartialEq)]
pub struct PgRows {
    /// Column names from the row description.
    pub columns: Vec<String>,
    /// One entry per data row.
    pub rows: Vec<PgRow>,
    /// The command-completion tag (e.g. `SELECT 5`), empty for an empty
    /// query.
    pub command_tag: String,
}

/// A server error surfaced on an otherwise-healthy connection.
#[derive(Debug, Clone, PartialEq)]
pub struct PgError {
    /// The SQLSTATE field.
    pub sqlstate: String,
    /// The human-readable message field.
    pub message: String,
}

impl std::fmt::Display for PgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pgwire error [{}]: {}", self.sqlstate, self.message)
    }
}

/// A minimal blocking pgwire client: SSL decline + startup + simple query.
/// This is the raw-socket driver the loopback tests and the CI smoke script
/// use instead of a `psql` dependency.
pub struct PgClient {
    stream: TcpStream,
}

impl PgClient {
    /// Connects and completes the startup handshake (sends an `SSLRequest`
    /// first, like `psql`, and expects the `N` decline).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<PgClient, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        // SSLRequest → expect 'N'.
        let mut ssl = Vec::new();
        ssl.extend_from_slice(&8i32.to_be_bytes());
        ssl.extend_from_slice(&SSL_REQUEST.to_be_bytes());
        stream
            .write_all(&ssl)
            .map_err(|e| format!("ssl request: {e}"))?;
        let mut n = [0u8; 1];
        stream
            .read_exact(&mut n)
            .map_err(|e| format!("ssl response: {e}"))?;
        if n[0] != b'N' {
            return Err(format!("expected SSL decline 'N', got {:?}", n[0] as char));
        }
        // StartupMessage with user/database parameters.
        let mut params = Vec::new();
        params.extend_from_slice(&PROTOCOL_V3.to_be_bytes());
        push_cstr(&mut params, "user");
        push_cstr(&mut params, "uu");
        push_cstr(&mut params, "database");
        push_cstr(&mut params, "uu");
        params.push(0);
        let mut startup = Vec::new();
        startup.extend_from_slice(&((params.len() as i32 + 4).to_be_bytes()));
        startup.extend_from_slice(&params);
        stream
            .write_all(&startup)
            .map_err(|e| format!("startup: {e}"))?;
        let mut client = PgClient { stream };
        // Drain AuthenticationOk / ParameterStatus / BackendKeyData until
        // ReadyForQuery.
        loop {
            let (kind, body) = client.read_message()?;
            match kind {
                b'R' => {
                    if body.len() < 4 || be_i32(&body[..4]) != 0 {
                        return Err("server demanded authentication".to_string());
                    }
                }
                b'S' | b'K' | b'N' => {}
                b'Z' => return Ok(client),
                b'E' => return Err(parse_error(&body).to_string()),
                other => return Err(format!("unexpected startup message {:?}", other as char)),
            }
        }
    }

    /// Runs one simple query. A server `ErrorResponse` returns `Err` but the
    /// connection stays usable for the next call.
    pub fn simple_query(&mut self, sql: &str) -> Result<PgRows, PgError> {
        let mut body = Vec::new();
        push_cstr(&mut body, sql);
        let io_err = |e: io::Error| PgError {
            sqlstate: "08000".to_string(),
            message: e.to_string(),
        };
        self.stream
            .write_all(&message(b'Q', &body))
            .map_err(io_err)?;
        self.stream.flush().map_err(io_err)?;
        let mut result = PgRows {
            columns: Vec::new(),
            rows: Vec::new(),
            command_tag: String::new(),
        };
        let mut error: Option<PgError> = None;
        loop {
            let (kind, body) = self.read_message().map_err(|e| PgError {
                sqlstate: "08000".to_string(),
                message: e,
            })?;
            let malformed = |what: &str| PgError {
                sqlstate: "08P01".to_string(),
                message: format!("malformed {what} message from server"),
            };
            match kind {
                b'T' => {
                    result.columns =
                        parse_row_description(&body).ok_or_else(|| malformed("RowDescription"))?
                }
                b'D' => result
                    .rows
                    .push(parse_data_row(&body).ok_or_else(|| malformed("DataRow"))?),
                b'C' => {
                    result.command_tag = body
                        .split(|&b| b == 0)
                        .next()
                        .map(|s| String::from_utf8_lossy(s).into_owned())
                        .unwrap_or_default()
                }
                b'I' => {} // EmptyQueryResponse
                b'E' => error = Some(parse_error(&body)),
                b'N' | b'S' => {}
                b'Z' => {
                    return match error {
                        Some(e) => Err(e),
                        None => Ok(result),
                    }
                }
                other => {
                    return Err(PgError {
                        sqlstate: "08P01".to_string(),
                        message: format!("unexpected message {:?}", other as char),
                    })
                }
            }
        }
    }

    fn read_message(&mut self) -> Result<(u8, Vec<u8>), String> {
        let mut header = [0u8; 5];
        self.stream
            .read_exact(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let len = be_i32(&header[1..5]);
        if len < 4 {
            return Err(format!("malformed message length {len}"));
        }
        let mut body = vec![0u8; len as usize - 4];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        Ok((header[0], body))
    }
}

/// Bounds-checked parse of a `RowDescription` body; `None` on truncation —
/// the driver may be pointed at an arbitrary server, so a malformed frame
/// must surface as an error, never a panic.
fn parse_row_description(body: &[u8]) -> Option<Vec<String>> {
    let count = i16::from_be_bytes([*body.first()?, *body.get(1)?]) as usize;
    let mut columns = Vec::with_capacity(count);
    let mut pos = 2;
    for _ in 0..count {
        let name_len = body.get(pos..)?.iter().position(|&b| b == 0)?;
        columns.push(String::from_utf8_lossy(&body[pos..pos + name_len]).into_owned());
        pos += name_len + 1 + 18; // name NUL + 6 fixed fields (4+2+4+2+4+2 bytes)
        if pos > body.len() {
            return None;
        }
    }
    Some(columns)
}

/// Bounds-checked parse of a `DataRow` body; `None` on truncation.
fn parse_data_row(body: &[u8]) -> Option<PgRow> {
    let count = i16::from_be_bytes([*body.first()?, *body.get(1)?]) as usize;
    let mut cells = Vec::with_capacity(count);
    let mut pos = 2;
    for _ in 0..count {
        let len = be_i32(body.get(pos..pos + 4)?);
        pos += 4;
        if len < 0 {
            cells.push(None);
        } else {
            let len = len as usize;
            cells.push(Some(
                String::from_utf8_lossy(body.get(pos..pos + len)?).into_owned(),
            ));
            pos += len;
        }
    }
    Some(cells)
}

fn parse_error(body: &[u8]) -> PgError {
    let mut error = PgError {
        sqlstate: String::new(),
        message: String::new(),
    };
    let mut pos = 0;
    while pos < body.len() && body[pos] != 0 {
        let field = body[pos];
        pos += 1;
        let end = body[pos..]
            .iter()
            .position(|&b| b == 0)
            .map(|i| pos + i)
            .unwrap_or(body.len());
        let value = String::from_utf8_lossy(&body[pos..end]).into_owned();
        match field {
            b'C' => error.sqlstate = value,
            b'M' => error.message = value,
            _ => {}
        }
        pos = end + 1;
    }
    error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{GroupReply, WireDiagnostics, WireResult, WireValue};

    fn result(corrected: Option<f64>) -> WireResult {
        WireResult {
            query: "SELECT SUM(v) FROM t".into(),
            observed: 13_300.0,
            corrected,
            method: "bucket".into(),
            n_hat: None,
            upper_bound: Some(20_000.5),
            extreme: None,
            diagnostics: WireDiagnostics {
                coverage: None,
                contributing_sources: 5,
                max_source_share: None,
                source_gini: None,
            },
            recommendation: "bucket".into(),
            estimates: Vec::new(),
        }
    }

    #[test]
    fn panel_rows_lay_out_one_row_per_estimator() {
        let reply = QueryReply {
            sql: "SELECT SUM(v) FROM t".into(),
            cache_hit: true,
            elapsed_us: 1,
            grouped: false,
            groups: vec![GroupReply {
                key: WireValue(Value::Null),
                result: result(Some(13_950.000000000002)),
            }],
            trace: None,
        };
        let (columns, rows) = panel_rows(&[("bucket", reply.clone()), ("naive", reply)]);
        assert_eq!(
            columns,
            vec!["estimator", "estimate", "lower", "upper", "recommendation"]
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_deref(), Some("bucket"));
        assert_eq!(rows[0][1].as_deref(), Some("13950.000000000002"));
        assert_eq!(rows[0][2].as_deref(), Some("13300"));
        assert_eq!(rows[0][3].as_deref(), Some("20000.5"));
        assert_eq!(rows[1][0].as_deref(), Some("naive"));
    }

    #[test]
    fn grouped_panels_lead_with_the_group_column() {
        let reply = QueryReply {
            sql: "SELECT SUM(v) FROM t GROUP BY g".into(),
            cache_hit: true,
            elapsed_us: 1,
            grouped: true,
            groups: vec![
                GroupReply {
                    key: WireValue(Value::Str("CA".into())),
                    result: result(None),
                },
                GroupReply {
                    key: WireValue(Value::Int(7)),
                    result: result(Some(1.0)),
                },
            ],
            trace: None,
        };
        let (columns, rows) = panel_rows(&[("bucket", reply)]);
        assert_eq!(columns[0], "group");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0].as_deref(), Some("CA"));
        assert_eq!(rows[0][2], None, "withheld estimate renders as NULL");
        assert_eq!(rows[1][0].as_deref(), Some("7"));
    }

    #[test]
    fn float_cells_render_non_finite_markers() {
        assert_eq!(render_f64(f64::NAN), "NaN");
        assert_eq!(render_f64(f64::INFINITY), "inf");
        assert_eq!(render_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(render_f64(0.1), "0.1");
        assert_eq!(render_cell(None), None);
    }

    #[test]
    fn row_description_and_data_row_round_trip_through_the_driver_parsers() {
        let columns = vec!["estimator".to_string(), "estimate".to_string()];
        let described = row_description(&columns);
        assert_eq!(described[0], b'T');
        assert_eq!(parse_row_description(&described[5..]), Some(columns));
        let cells = vec![Some("bucket".to_string()), None];
        let row = data_row(&cells);
        assert_eq!(row[0], b'D');
        assert_eq!(parse_data_row(&row[5..]), Some(cells));
    }

    #[test]
    fn truncated_frames_parse_to_none_not_panics() {
        // Every truncation point of a well-formed body must fail cleanly —
        // the driver can be pointed at an arbitrary server.
        let described = row_description(&["estimator".to_string()]);
        let body = &described[5..];
        for cut in 0..body.len() {
            assert_eq!(parse_row_description(&body[..cut]), None, "cut={cut}");
        }
        let row = data_row(&[Some("bucket".to_string()), None]);
        let body = &row[5..];
        for cut in 0..body.len() {
            assert_eq!(parse_data_row(&body[..cut]), None, "cut={cut}");
        }
        // A declared cell length beyond the body is rejected.
        let mut lying = vec![0, 1]; // one cell
        lying.extend_from_slice(&100i32.to_be_bytes()); // claims 100 bytes
        lying.extend_from_slice(b"short");
        assert_eq!(parse_data_row(&lying), None);
    }

    #[test]
    fn error_fields_round_trip_through_the_driver_parser() {
        let mut body = Vec::new();
        body.push(b'S');
        push_cstr(&mut body, "ERROR");
        body.push(b'C');
        push_cstr(&mut body, "42P01");
        body.push(b'M');
        push_cstr(&mut body, "unknown table \"t\"");
        body.push(0);
        let parsed = parse_error(&body);
        assert_eq!(parsed.sqlstate, "42P01");
        assert_eq!(parsed.message, "unknown table \"t\"");
    }

    fn startup_packet() -> Vec<u8> {
        let mut params = Vec::new();
        params.extend_from_slice(&PROTOCOL_V3.to_be_bytes());
        push_cstr(&mut params, "user");
        push_cstr(&mut params, "uu");
        params.push(0);
        let mut packet = Vec::new();
        packet.extend_from_slice(&((params.len() as i32 + 4).to_be_bytes()));
        packet.extend_from_slice(&params);
        packet
    }

    #[test]
    fn codec_assembles_the_handshake_and_query_byte_at_a_time() {
        // The same wire bytes, dribbled one byte per feed, must yield
        // exactly the same steps as arriving whole: this is the resumable
        // contract the reactor depends on.
        let mut wire = Vec::new();
        let mut ssl = Vec::new();
        ssl.extend_from_slice(&8i32.to_be_bytes());
        ssl.extend_from_slice(&SSL_REQUEST.to_be_bytes());
        wire.extend_from_slice(&ssl);
        wire.extend_from_slice(&startup_packet());
        let mut q = Vec::new();
        push_cstr(&mut q, "SELECT SUM(v) FROM t");
        wire.extend_from_slice(&message(b'Q', &q));
        wire.extend_from_slice(&message(b'X', b""));

        let mut codec = PgCodec::new();
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        let mut steps = Vec::new();
        for &b in &wire {
            buf.push(b);
            while let Some(step) = codec.next_step(&mut buf, &mut scratch, 16 << 20) {
                steps.push(step);
            }
        }
        assert!(buf.is_empty(), "every frame fully consumed");
        assert_eq!(steps.len(), 4);
        assert!(matches!(&steps[0], PgStep::Reply(b) if b == b"N"));
        assert!(matches!(&steps[1], PgStep::Reply(b) if b == &startup_ok_bytes()));
        assert!(matches!(steps[2], PgStep::Query));
        assert_eq!(scratch, b"SELECT SUM(v) FROM t");
        assert!(matches!(steps[3], PgStep::Close));
    }

    #[test]
    fn codec_bounds_apply_to_the_declared_frame_length() {
        // A header declaring a frame beyond the bound is fatal immediately —
        // no buffering of the oversized body.
        let mut codec = PgCodec::new();
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        buf.extend_from_slice(&(1_000_000i32).to_be_bytes());
        match codec.next_step(&mut buf, &mut scratch, 4096) {
            Some(PgStep::Fatal(bytes)) => {
                let e = parse_error(&bytes[5..]);
                assert_eq!(e.sqlstate, "54000");
                assert!(e.message.contains("4096"));
            }
            _ => panic!("expected a fatal step"),
        }
        // Same in the ready phase.
        let mut codec = PgCodec { ready: true };
        let mut buf = vec![b'Q'];
        buf.extend_from_slice(&(1_000_000i32).to_be_bytes());
        assert!(matches!(
            codec.next_step(&mut buf, &mut scratch, 4096),
            Some(PgStep::Fatal(_))
        ));
    }

    #[test]
    fn codec_rejects_malformed_lengths_and_unknown_messages() {
        let mut scratch = Vec::new();
        // Startup length below the minimum is malformed.
        let mut codec = PgCodec::new();
        let mut buf = 4i32.to_be_bytes().to_vec();
        match codec.next_step(&mut buf, &mut scratch, 4096) {
            Some(PgStep::Fatal(bytes)) => {
                assert_eq!(parse_error(&bytes[5..]).sqlstate, "08P01");
            }
            _ => panic!("expected a fatal step"),
        }
        // An unsupported ready-phase message answers an error plus
        // ReadyForQuery and the connection survives.
        let mut codec = PgCodec { ready: true };
        let mut buf = message(b'P', b"\0\0");
        buf.extend_from_slice(&message(b'X', b""));
        match codec.next_step(&mut buf, &mut scratch, 4096) {
            Some(PgStep::ErrorReply(bytes)) => {
                assert_eq!(parse_error(&bytes[5..]).sqlstate, "0A000");
                assert_eq!(&bytes[bytes.len() - 6..], &message(b'Z', b"I")[..]);
            }
            _ => panic!("expected an error-reply step"),
        }
        assert!(matches!(
            codec.next_step(&mut buf, &mut scratch, 4096),
            Some(PgStep::Close)
        ));
    }
}
