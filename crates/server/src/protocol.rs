//! The wire protocol: typed request/response structs shared by the server,
//! the `uu-client` binary, the integration tests and the benches.
//!
//! Framing is **one JSON object per line** in each direction. A client sends
//! a request line, the server answers with exactly one response line; the
//! connection then accepts the next request (errors are responses, never
//! connection drops). Every response carries `"ok"`; failures carry a
//! structured [`WireError`] with a stable machine-readable code — an unknown
//! estimator name, for instance, answers with code `unknown_estimator` plus
//! the full accepted-names list rather than killing the session.
//!
//! Numbers survive the wire bit-for-bit (see [`crate::json`]), which is what
//! lets the parity tests compare server answers against direct
//! [`uu_query::catalog::Catalog`] calls with `==`, not tolerances.
//!
//! Every record is declared once, through `wire_record!`: a field's name is
//! its wire key, its type picks the codec, and the order of declaration is
//! the order of keys on the wire. These declarations are the single source
//! of the protocol's field names — except for the `stats` counters, whose
//! blocks are declared in the `uu_core::obs` counter registry: the codec
//! walks each block's field table, so a counter added there reaches the
//! wire (and `/metrics`) with no edit here.

use std::ops::Deref;

use crate::json::{parse, Json, JsonError};
use uu_core::engine::{EstimatorKind, NamedEstimate, UnknownEstimator};
use uu_core::obs::{
    CacheMetrics, ConnStats, CounterBlock, IncrementalStats, ProjectionStats, ServiceStats,
    StorageStats,
};
use uu_core::recommend::Recommendation;
use uu_query::exec::{ExecError, QueryResult};
use uu_query::value::Value;

/// Protocol revision; bumped on incompatible changes. Servers echo it in
/// `stats` responses. Revision 2 added named server-side sessions, prepared
/// queries, `server_info`, per-session counters in `stats`, and the
/// `frame_too_large` error code. Revision 3 added the columnar-projection
/// counters (`projection` builds/reuses/bytes) to `stats`. Revision 4 added
/// the connection-layer counters (`conn` open/peak/frames/bytes/reaps/
/// backpressure/backend) to `stats`. Revision 5 added the `append_stream`
/// verb with its `appended` response and the incremental-maintenance
/// counters (`incremental` batches/rows/merges/refreezes/fallbacks) to
/// `stats`. Revision 6 added observability: the `metrics` verb with its
/// per-`(verb, stage)` latency digests, the `trace` flag on `query` with the
/// span tree it returns, and the worker-queue counters (peak depth, total
/// and largest wait) in `conn`.
/// Revision 7 added the durability layer: the `checkpoint` verb
/// with its `checkpointed` response, the `storage` counter block
/// (WAL/checkpoint/recovery) in `stats`, the `storage` error code, and the
/// `data_dir`/`durability`/`last_checkpoint_age_ms` fields in `server_info`.
/// Revision 8 removed the `exec` counter block from `stats`: the server
/// computes every request on its worker thread and opens no parallel
/// regions, so those counters had nothing left to count; `workers` reports
/// the pool size.
pub const PROTOCOL_VERSION: u64 = 8;

/// Decode failure for a request or response line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Field codec
// ---------------------------------------------------------------------------

/// How one value travels as a JSON value.
pub(crate) trait Wire: Sized {
    /// The value's JSON form.
    fn to_json(&self) -> Json;

    /// Reads the value back. A plain type mismatch is [`mistyped`]; the
    /// record field holding the value names it after its key.
    fn from_json(json: &Json) -> Result<Self, ProtoError>;

    /// What a record field of this type decodes to when its key is absent;
    /// `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

/// A type mismatch not yet attributed to a key (see [`field`]).
fn mistyped() -> ProtoError {
    ProtoError(String::new())
}

fn missing(key: &str) -> ProtoError {
    ProtoError(format!("missing or mistyped field {key:?}"))
}

/// Decodes `json`, the value found under `key`.
fn keyed<T: Wire>(key: &str, json: &Json) -> Result<T, ProtoError> {
    T::from_json(json).map_err(|e| if e.0.is_empty() { missing(key) } else { e })
}

/// Decodes the value under `key` of `obj`.
fn field<T: Wire>(obj: &Json, key: &str) -> Result<T, ProtoError> {
    match obj.get(key) {
        Some(json) => keyed(key, json),
        None => T::absent().ok_or_else(|| missing(key)),
    }
}

/// Decodes the value under `key` of `obj`; an absent or `null` key yields
/// `default`.
fn field_or<T: Wire>(obj: &Json, key: &str, default: T) -> Result<T, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(json) => keyed(key, json),
    }
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        json.as_u64().ok_or_else(mistyped)
    }
}

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        json.as_bool().ok_or_else(mistyped)
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        json.as_str().map(str::to_string).ok_or_else(mistyped)
    }
}

/// Floats go through the non-finite marker strings, so NaN/±inf survive.
impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::from_f64(*self)
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        json.as_f64_lossless().ok_or_else(mistyped)
    }
}

/// `None` travels as `null`; an absent key also decodes as `None`.
impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        if json.is_null() {
            Ok(None)
        } else {
            T::from_json(json).map(Some)
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        json.as_arr()
            .ok_or_else(mistyped)?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// A schema column: the two-element array `[name, type]`.
impl Wire for (String, String) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        match json.as_arr() {
            Some([name, ty]) => Ok((String::from_json(name)?, String::from_json(ty)?)),
            _ => Err(mistyped()),
        }
    }
}

/// A JSON object whose keys are a struct's fields, as declared through
/// [`wire_record!`] (or flattened into one of its enum lines).
trait Record: Sized {
    /// Appends one `(key, value)` pair per field, in declaration order.
    fn write_fields(&self, pairs: &mut Vec<(String, Json)>);

    /// Reads every field from the object `obj`.
    fn read_fields(obj: &Json) -> Result<Self, ProtoError>;
}

impl<T: Record> Wire for T {
    fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        self.write_fields(&mut pairs);
        Json::Obj(pairs)
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        T::read_fields(json)
    }
}

impl<T: Record> Record for Box<T> {
    fn write_fields(&self, pairs: &mut Vec<(String, Json)>) {
        (**self).write_fields(pairs);
    }
    fn read_fields(obj: &Json) -> Result<Self, ProtoError> {
        T::read_fields(obj).map(Box::new)
    }
}

/// Declares wire records. Each field's name is its wire key, its type picks
/// the codec ([`Wire`]), and keys travel in declaration order. A bracketed
/// rule after the type changes one field's handling:
///
/// * `[default: EXPR]` — an absent or `null` key decodes as `EXPR`;
/// * `[omit_none]` — a `None` leaves the key out of the line;
/// * `[flatten]` — the field's own [`Record`] keys go inline, in place of
///   one nested object, and the struct derefs to the field (so
///   `stats.cache.hits` reads through `WireCacheStats::counters`); at most
///   one field per struct.
///
/// Without a rule every key is required, except that an absent `Option`
/// field decodes as `None`.
///
/// * `pub struct` declarations become [`Record`]s: one JSON object each.
/// * A `pub enum` has one line shape per variant, told apart by the
///   variant's `= "tag"`. A tuple variant flattens its [`Record`] payload
///   into the line; a struct variant declares its fields inline, with the
///   same rules. At most one variant may be untagged; it is read back when
///   the caller passes no tag. The enum gets `tag`, `write_payload` (the
///   variant's fields, without the tag) and `read_payload`; the caller
///   frames the line around them.
/// * `@counters` attaches the codec to counter blocks of the
///   `uu_core::obs` registry: one key per declared field, in declaration
///   order, every key required.
macro_rules! wire_record {
    (@put $pairs:ident, $key:expr, $value:expr, [omit_none]) => {
        if let Some(value) = $value {
            $pairs.push(($key.to_string(), Wire::to_json(value)));
        }
    };
    (@put $pairs:ident, $key:expr, $value:expr, [flatten]) => {
        Record::write_fields($value, $pairs)
    };
    (@put $pairs:ident, $key:expr, $value:expr, [$(default: $default:expr)?]) => {
        $pairs.push(($key.to_string(), Wire::to_json($value)))
    };
    (@get $obj:ident, $key:expr, [default: $default:expr]) => {
        field_or($obj, $key, $default)
    };
    (@get $obj:ident, $key:expr, [flatten]) => {
        Record::read_fields($obj)
    };
    (@get $obj:ident, $key:expr, [$(omit_none)?]) => {
        field($obj, $key)
    };
    (@deref $name:ident, $field:ident: $ty:ty, [flatten]) => {
        impl Deref for $name {
            type Target = $ty;
            fn deref(&self) -> &$ty {
                &self.$field
            }
        }
    };
    (@deref $($other:tt)*) => {};
    (@tag) => {
        None
    };
    (@tag $tag:literal) => {
        Some($tag)
    };
    (@bind $binding:ident, $ty:ty) => {
        $binding
    };
    (@impl $name:path { $($field:ident $([$($rule:tt)*])?),* $(,)? }) => {
        impl Record for $name {
            fn write_fields(&self, pairs: &mut Vec<(String, Json)>) {
                $(wire_record!(@put pairs, stringify!($field), &self.$field, [$($($rule)*)?]);)*
            }
            fn read_fields(obj: &Json) -> Result<Self, ProtoError> {
                Ok(Self {
                    $($field: wire_record!(@get obj, stringify!($field), [$($($rule)*)?])?,)*
                })
            }
        }
    };
    (@counters $($block:ty),* $(,)?) => {$(
        impl Record for $block {
            fn write_fields(&self, pairs: &mut Vec<(String, Json)>) {
                for (declared, value) in Self::FIELDS.iter().zip(self.values()) {
                    pairs.push((declared.name.to_string(), value.to_json()));
                }
            }
            fn read_fields(obj: &Json) -> Result<Self, ProtoError> {
                let mut block = Self::default();
                for (declared, slot) in Self::FIELDS.iter().zip(block.values_mut()) {
                    *slot = field(obj, declared.name)?;
                }
                Ok(block)
            }
        }
    )*};
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($inner:ty))?
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $fty:ty $([$($rule:tt)*])?
                    ),* $(,)?
                })?
                $(= $tag:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($inner))? $({ $($(#[$fmeta])* $field: $fty),* })?,
            )*
        }

        impl $name {
            /// The variant's wire tag (`None` for the untagged variant).
            fn tag(&self) -> Option<&'static str> {
                match self {
                    $(Self::$variant { .. } => wire_record!(@tag $($tag)?),)*
                }
            }

            /// Appends the variant's payload fields (everything but the tag).
            fn write_payload(&self, pairs: &mut Vec<(String, Json)>) {
                match self {
                    $(
                        Self::$variant
                        $((wire_record!(@bind inner, $inner)))?
                        $({ $($field),* })? => {
                            $(<$inner as Record>::write_fields(inner, pairs);)?
                            $($(
                                wire_record!(@put pairs, stringify!($field), $field, [$($($rule)*)?]);
                            )*)?
                        }
                    )*
                }
            }

            /// Reads the variant that `tag` names from the object `obj`.
            fn read_payload(tag: Option<&str>, obj: &Json) -> Result<Self, ProtoError> {
                match tag {
                    $(
                        wire_record!(@tag $($tag)?) => Ok(Self::$variant
                            $((<$inner as Record>::read_fields(obj)?))?
                            $({ $(
                                $field: wire_record!(@get obj, stringify!($field), [$($($rule)*)?])?,
                            )* })?),
                    )*
                    other => Err(ProtoError(format!(
                        "unknown op {:?}",
                        other.unwrap_or_default()
                    ))),
                }
            }
        }
    };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty $([$($rule:tt)*])?
            ),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }
        wire_record!(@impl $name { $($field $([$($rule)*])?),* });
        $(wire_record!(@deref $name, $field: $ty, [$($($rule)*)?]);)*
    )*};
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

wire_record! {
    /// A `query` request: SQL plus estimator names.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryRequest {
        /// The SQL text (`SELECT <agg> FROM <table> [WHERE …] [GROUP BY …]`).
        pub sql: String,
        /// Estimator names, resolved via `EstimatorKind::by_name`. The first is
        /// the primary correction applied to the aggregate; every name also
        /// contributes a per-estimator Δ in the response. Empty (or absent)
        /// means "no correction" (closed-world answer only).
        pub estimators: Vec<String> [default: Vec::new()],
        /// Route through the catalog's profile cache (default). `false`
        /// freezes the selection from the table exactly as a cache miss would,
        /// but neither reads nor fills the cache; the answer is the same.
        pub cached: bool [default: true],
        /// Capture a per-stage span tree for this request and return it in the
        /// reply's `trace` field (protocol v6; default off).
        pub trace: bool [default: false],
    }

    /// A `load_csv` admin request: create (or extend) a table from an
    /// RFC-4180 observation log.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoadCsvRequest {
        /// Table name to register (or extend when `append`).
        pub table: String,
        /// Schema columns as `(name, type)` with type one of `int`/`float`/`str`.
        pub columns: Vec<(String, String)>,
        /// Column holding the entity identity.
        pub entity_column: String,
        /// CSV column holding the observing source id.
        pub source_column: String,
        /// Extend an existing table instead of requiring a fresh name
        /// (default off). Travels before the bulky `csv` document.
        pub append: bool [default: false],
        /// The CSV document (header row + observation rows).
        pub csv: String,
    }
}

wire_record! {
    /// One client request line: `{"op":<tag>, <payload fields>}`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Execute a query.
        Query(QueryRequest) = "query",
        /// Load observations into the catalog.
        LoadCsv(LoadCsvRequest) = "load_csv",
        /// Append an observation batch to an existing table through the
        /// incremental-maintenance path: cached projections grow in place,
        /// sort permutations absorb the delta by merge, and cached profile
        /// snapshots re-freeze instead of being evicted. The table's schema is
        /// fixed, so unlike `load_csv` no column list travels with the batch.
        AppendStream {
            /// Target table (must already be registered).
            table: String,
            /// CSV column holding the observing source id.
            source_column: String,
            /// The CSV document (header row + observation rows).
            csv: String,
        } = "append_stream",
        /// Pre-warm the profile cache for a query.
        Warm {
            /// The SQL whose selection should be captured.
            sql: String,
        } = "warm",
        /// Open a named server-side session with a pinned estimator selection.
        /// Sessions are addressed by name from any connection and hold the
        /// session's prepared queries.
        SessionOpen {
            /// Session name (unique among open sessions).
            name: String,
            /// Estimator names pinned for the session's lifetime; the first is
            /// the primary correction for every `execute_prepared`.
            estimators: Vec<String> [default: Vec::new()],
        } = "session_open",
        /// Close a named session, dropping its prepared queries.
        SessionClose {
            /// Session name.
            name: String,
        } = "session_close",
        /// Parse and freeze a query inside a named session: the SQL is parsed
        /// once and its selection snapshots are captured, so repeated
        /// `execute_prepared` calls skip the parser entirely.
        Prepare {
            /// Owning session.
            session: String,
            /// Statement name (unique within the session).
            name: String,
            /// The SQL text to freeze.
            sql: String,
        } = "prepare",
        /// Execute a prepared query; answers with the same `query` response
        /// shape as [`Request::Query`].
        ExecutePrepared {
            /// Owning session.
            session: String,
            /// Statement name.
            name: String,
        } = "execute_prepared",
        /// Drop one prepared query from a session.
        Deallocate {
            /// Owning session.
            session: String,
            /// Statement name.
            name: String,
        } = "deallocate",
        /// Server identity: version, uptime, active sessions, enabled fronts.
        ServerInfo = "server_info",
        /// Server, cache, connection and storage counters.
        Stats = "stats",
        /// Latency-histogram summary: p50/p90/p99/max per `(verb, stage)`
        /// (protocol v6). The full bucket data is served by the Prometheus
        /// endpoint; this verb carries the quantile digest.
        Metrics = "metrics",
        /// Liveness probe.
        Ping = "ping",
        /// Force a durability checkpoint: snapshot every table (rows, lineage,
        /// cached selections) to the data directory and truncate the
        /// observation WAL (protocol v7). Errors with code `storage` when the
        /// server runs without `--data-dir`.
        Checkpoint = "checkpoint",
        /// Stop accepting connections and exit once drained. A durable server
        /// flushes its WAL and writes a final checkpoint first, so a restart
        /// replays nothing.
        Shutdown = "shutdown",
    }
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut pairs = Vec::new();
        if let Some(op) = self.tag() {
            pairs.push(("op".to_string(), Json::Str(op.to_string())));
        }
        self.write_payload(&mut pairs);
        Json::Obj(pairs).render()
    }

    /// Parses one wire line into a request.
    pub fn decode(line: &str) -> Result<Request, ProtoError> {
        let json = parse(line)?;
        if !matches!(json, Json::Obj(_)) {
            return Err(ProtoError("request must be a JSON object".into()));
        }
        let op = json.get("op").and_then(Json::as_str);
        Request::read_payload(Some(op.ok_or_else(|| missing("op"))?), &json)
    }
}

// ---------------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------------

/// Stable machine-readable error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or decode.
    MalformedRequest,
    /// The SQL text failed to parse.
    Parse,
    /// The referenced table is not registered.
    UnknownTable,
    /// An estimator name failed `EstimatorKind::by_name`.
    UnknownEstimator,
    /// Schema/column/predicate problem.
    Table,
    /// CSV structure or field problem.
    Csv,
    /// `load_csv` without `append` over an existing table.
    DuplicateTable,
    /// The named server-side session does not exist.
    UnknownSession,
    /// `session_open` with a name that is already open.
    DuplicateSession,
    /// The named prepared query does not exist in the session.
    UnknownPrepared,
    /// `prepare` with a statement name that already exists in the session.
    DuplicatePrepared,
    /// An inbound frame exceeded the server's frame-size limit.
    FrameTooLarge,
    /// A server-side resource cap was hit (open sessions, prepared
    /// statements per session).
    ResourceLimit,
    /// A durability-layer failure: WAL append or checkpoint I/O, or a
    /// `checkpoint` request against a server running without `--data-dir`
    /// (protocol v7).
    Storage,
    /// Anything else (a bug if ever observed).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::Parse => "parse",
            ErrorCode::UnknownTable => "unknown_table",
            ErrorCode::UnknownEstimator => "unknown_estimator",
            ErrorCode::Table => "table",
            ErrorCode::Csv => "csv",
            ErrorCode::DuplicateTable => "duplicate_table",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::DuplicateSession => "duplicate_session",
            ErrorCode::UnknownPrepared => "unknown_prepared",
            ErrorCode::DuplicatePrepared => "duplicate_prepared",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::ResourceLimit => "resource_limit",
            ErrorCode::Storage => "storage",
            ErrorCode::Internal => "internal",
        }
    }

    /// Every code, for exhaustive round-trip tests.
    pub const fn all() -> [ErrorCode; 15] {
        [
            ErrorCode::MalformedRequest,
            ErrorCode::Parse,
            ErrorCode::UnknownTable,
            ErrorCode::UnknownEstimator,
            ErrorCode::Table,
            ErrorCode::Csv,
            ErrorCode::DuplicateTable,
            ErrorCode::UnknownSession,
            ErrorCode::DuplicateSession,
            ErrorCode::UnknownPrepared,
            ErrorCode::DuplicatePrepared,
            ErrorCode::FrameTooLarge,
            ErrorCode::ResourceLimit,
            ErrorCode::Storage,
            ErrorCode::Internal,
        ]
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed_request" => ErrorCode::MalformedRequest,
            "parse" => ErrorCode::Parse,
            "unknown_table" => ErrorCode::UnknownTable,
            "unknown_estimator" => ErrorCode::UnknownEstimator,
            "table" => ErrorCode::Table,
            "csv" => ErrorCode::Csv,
            "duplicate_table" => ErrorCode::DuplicateTable,
            "unknown_session" => ErrorCode::UnknownSession,
            "duplicate_session" => ErrorCode::DuplicateSession,
            "unknown_prepared" => ErrorCode::UnknownPrepared,
            "duplicate_prepared" => ErrorCode::DuplicatePrepared,
            "frame_too_large" => ErrorCode::FrameTooLarge,
            "resource_limit" => ErrorCode::ResourceLimit,
            "storage" => ErrorCode::Storage,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Error codes travel as their wire spelling.
impl Wire for ErrorCode {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        let code = json.as_str().ok_or_else(mistyped)?;
        ErrorCode::parse(code).ok_or_else(|| ProtoError(format!("unknown error code {code:?}")))
    }
}

wire_record! {
    /// A structured error response. The connection stays usable after any error.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireError {
        /// Machine-readable code.
        pub code: ErrorCode,
        /// Human-readable description.
        pub message: String,
        /// For [`ErrorCode::UnknownEstimator`]: every accepted name.
        pub accepted: Vec<String> [default: Vec::new()],
    }
}

impl WireError {
    /// A plain error with no accepted-names list.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            accepted: Vec::new(),
        }
    }

    /// The structured form of an `UnknownEstimator` failure: code plus the
    /// full accepted-names list from the registry.
    pub fn unknown_estimator(e: &UnknownEstimator) -> Self {
        WireError {
            code: ErrorCode::UnknownEstimator,
            message: e.to_string(),
            accepted: EstimatorKind::all()
                .iter()
                .map(|k| k.name().to_string())
                .collect(),
        }
    }

    /// Lowers a query-execution error onto the wire codes.
    pub fn from_exec(e: &ExecError) -> Self {
        let code = match e {
            ExecError::Parse(_) => ErrorCode::Parse,
            ExecError::UnknownTable(_) => ErrorCode::UnknownTable,
            ExecError::Table(_) => ErrorCode::Table,
            ExecError::TableNameMismatch { .. } => ErrorCode::Internal,
        };
        WireError::new(code, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A group key on the wire, type-tagged so numeric values round-trip without
/// int/float ambiguity.
#[derive(Debug, Clone, PartialEq)]
pub struct WireValue(pub Value);

/// `null`, or `{"t": <type tag>, "v": <value>}`.
impl Wire for WireValue {
    fn to_json(&self) -> Json {
        let (tag, value) = match &self.0 {
            Value::Null => return Json::Null,
            Value::Int(i) => ("int", Json::Int(*i)),
            Value::Float(f) => ("float", f.to_json()),
            Value::Str(s) => ("str", s.to_json()),
        };
        Json::obj([("t", Json::Str(tag.to_string())), ("v", value)])
    }

    fn from_json(json: &Json) -> Result<Self, ProtoError> {
        if json.is_null() {
            return Ok(WireValue(Value::Null));
        }
        let tag: String = field(json, "t")?;
        let v = json.get("v").ok_or_else(|| missing("v"))?;
        let value = match tag.as_str() {
            "int" => Value::Int(v.as_i64().ok_or_else(|| missing("v"))?),
            "float" => Value::Float(keyed("v", v)?),
            "str" => Value::Str(keyed("v", v)?),
            other => return Err(ProtoError(format!("unknown value tag {other:?}"))),
        };
        Ok(WireValue(value))
    }
}

wire_record! {
    /// One estimator's Δ within a query response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireEstimate {
        /// Registry name.
        pub name: String,
        /// The SUM-impact estimate `Δ̂` (`None` when undefined for the sample).
        pub delta: Option<f64>,
        /// Population-richness estimate `N̂`.
        pub n_hat: Option<f64>,
        /// `φ_K + Δ̂` over the universe's observed sum.
        pub corrected: Option<f64>,
    }

    /// §6.5 diagnostics on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireDiagnostics {
        /// Good–Turing coverage `Ĉ`.
        pub coverage: Option<f64>,
        /// Contributing (non-empty) sources.
        pub contributing_sources: u64,
        /// Largest single-source share.
        pub max_source_share: Option<f64>,
        /// Gini coefficient of source contributions.
        pub source_gini: Option<f64>,
    }

    /// §5 MIN/MAX trust report on the wire.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireExtreme {
        /// Whether the observed extreme is endorsed.
        pub trusted: bool,
        /// The observed extreme.
        pub observed: f64,
        /// Estimated missing entities in the extreme bucket (untrusted only).
        pub estimated_missing: Option<f64>,
    }

    /// One estimation universe's full answer (mirrors
    /// [`uu_query::exec::QueryResult`] plus the per-estimator Δs).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireResult {
        /// The executed query, pretty-printed (grouped results name the group).
        pub query: String,
        /// Closed-world answer.
        pub observed: f64,
        /// Corrected answer (`None` when withheld/undefined/not requested).
        pub corrected: Option<f64>,
        /// Name of the estimator behind `corrected`.
        pub method: String,
        /// Population richness `N̂`.
        pub n_hat: Option<f64>,
        /// §4 upper bound (SUM only).
        pub upper_bound: Option<f64>,
        /// §5 trust report (MIN/MAX only).
        pub extreme: Option<WireExtreme>,
        /// §6.5 diagnostics.
        pub diagnostics: WireDiagnostics,
        /// §6.5 recommendation (`bucket` / `monte-carlo` / `collect-more-data`).
        pub recommendation: String,
        /// Per-estimator SUM-impact Δs over this universe, in request order.
        pub estimates: Vec<WireEstimate>,
    }

    /// One group row of a query response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GroupReply {
        /// Group key (`Null` for ungrouped queries).
        pub key: WireValue,
        /// The group's answer.
        pub result: WireResult,
    }

    /// One node of a wire-encoded span tree (protocol v6).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireSpan {
        /// Stage name (`uu_core::obs::Stage::as_str`).
        pub stage: String,
        /// Optional fine-grained label (e.g. the estimator name inside the
        /// fan-out).
        pub label: Option<String> [omit_none],
        /// Index of the parent span in the reply's span list; `None` for roots.
        pub parent: Option<u64>,
        /// Start offset from the trace epoch, nanoseconds.
        pub start_ns: u64,
        /// Span duration, nanoseconds.
        pub dur_ns: u64,
    }

    /// A full `query` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QueryReply {
        /// Echo of the request SQL.
        pub sql: String,
        /// Whether the selection came out of the profile cache.
        pub cache_hit: bool [default: false],
        /// Server-side execution time in microseconds.
        pub elapsed_us: u64,
        /// Whether the query had a `GROUP BY` (ungrouped answers still arrive as
        /// one `Null`-keyed group).
        pub grouped: bool [default: false],
        /// Per-universe answers, in deterministic group order.
        pub groups: Vec<GroupReply>,
        /// The captured span tree, present only when the request asked for
        /// `"trace":true` (protocol v6). Spans are in open order; `parent`
        /// indices point into this list.
        pub trace: Option<Vec<WireSpan>> [omit_none],
    }

    /// Cache counters in a `stats` response, then the cache's configuration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireCacheStats {
        /// The profile-cache counters.
        pub counters: CacheMetrics [flatten],
        /// Configured entry capacity.
        pub capacity: u64,
        /// Configured byte budget, if any.
        pub byte_budget: Option<f64>,
        /// Configured TTL in milliseconds, if any.
        pub ttl_ms: Option<f64>,
    }

    /// Connection-layer (reactor) counters in a `stats` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireConnStats {
        /// The reactor's counters.
        pub counters: ConnStats [flatten],
        /// The readiness backend the reactor runs on (`epoll` on Linux,
        /// `poll` elsewhere).
        pub backend: String,
    }

    /// One named session's counters in a `stats` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireSessionStats {
        /// Session name.
        pub name: String,
        /// Pinned estimator names, in request order.
        pub estimators: Vec<String>,
        /// Prepared queries currently held.
        pub prepared: u64,
        /// `execute_prepared` calls served.
        pub executes: u64,
        /// Executions answered straight from a statement's frozen snapshots
        /// (no profile-cache lookup at all).
        pub frozen_hits: u64,
        /// Milliseconds since the session was opened.
        pub age_ms: u64,
    }

    /// A `stats` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StatsReply {
        /// Protocol revision.
        pub protocol: u64,
        /// Registered tables, sorted.
        pub tables: Vec<String>,
        /// Connection-handler pool size.
        pub workers: u64,
        /// Connections accepted, requests processed and requests answered
        /// with an error, since start.
        pub service: ServiceStats [flatten],
        /// Milliseconds since the server started.
        pub uptime_ms: u64,
        /// Per-session counters for every open named session, sorted by name.
        pub sessions: Vec<WireSessionStats>,
        /// Profile-cache counters.
        pub cache: WireCacheStats,
        /// Columnar-projection counters.
        pub projection: ProjectionStats,
        /// Connection-layer (reactor) counters.
        pub conn: WireConnStats,
        /// Incremental-maintenance counters.
        pub incremental: IncrementalStats,
        /// Durability-layer counters (protocol v7; all zeros without
        /// `--data-dir`).
        pub storage: StorageStats,
    }

    /// One `(verb, stage)` latency digest in a `metrics` response
    /// (protocol v6). Quantiles come from the merged log-bucketed histograms,
    /// so they carry the bucket resolution (≈ √2), not exact order statistics.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireStageMetrics {
        /// Protocol verb the durations were recorded under.
        pub verb: String,
        /// Pipeline stage name.
        pub stage: String,
        /// Number of recorded durations.
        pub count: u64,
        /// Median, microseconds.
        pub p50_us: f64,
        /// 90th percentile, microseconds.
        pub p90_us: f64,
        /// 99th percentile, microseconds.
        pub p99_us: f64,
        /// Largest recorded duration, microseconds.
        pub max_us: f64,
        /// Mean duration, microseconds.
        pub mean_us: f64,
    }

    /// A `metrics` response (protocol v6).
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricsReply {
        /// Non-empty `(verb, stage)` digests, in stable verb-major order.
        pub entries: Vec<WireStageMetrics>,
    }

    /// A `server_info` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServerInfoReply {
        /// Server (crate) version.
        pub version: String,
        /// Protocol revision.
        pub protocol: u64,
        /// Milliseconds since the server started.
        pub uptime_ms: u64,
        /// Open named sessions.
        pub active_sessions: u64,
        /// Enabled transport fronts (e.g. `json`, `pgwire`).
        pub fronts: Vec<String>,
        /// Connection-handler pool size.
        pub workers: u64,
        /// The durability data directory, when the server runs with
        /// `--data-dir` (protocol v7).
        pub data_dir: Option<String>,
        /// Durability mode: `off` without a data directory, else the fsync
        /// policy (`always`/`batch`/`off` — the latter meaning "WAL without
        /// fsync") (protocol v7).
        pub durability: String,
        /// Milliseconds since the last completed checkpoint; `None` when no
        /// checkpoint has run in this process (protocol v7).
        pub last_checkpoint_age_ms: Option<f64>,
    }
}

wire_record!(@counters
    ServiceStats,
    CacheMetrics,
    ConnStats,
    ProjectionStats,
    IncrementalStats,
    StorageStats,
);

/// The wire spelling of a recommendation.
pub fn recommendation_name(r: Recommendation) -> &'static str {
    match r {
        Recommendation::CollectMoreData => "collect-more-data",
        Recommendation::Bucket => "bucket",
        Recommendation::MonteCarlo => "monte-carlo",
    }
}

impl WireEstimate {
    /// Converts a session result.
    pub fn from_named(e: &NamedEstimate) -> Self {
        WireEstimate {
            name: e.name.to_string(),
            delta: e.delta.delta,
            n_hat: e.delta.n_hat,
            corrected: e.corrected,
        }
    }
}

impl WireResult {
    /// Converts an executor result plus the session's per-estimator Δs.
    pub fn from_result(r: &QueryResult, estimates: Vec<WireEstimate>) -> Self {
        WireResult {
            query: r.query.clone(),
            observed: r.observed,
            corrected: r.corrected,
            method: r.method.to_string(),
            n_hat: r.n_hat,
            upper_bound: r.upper_bound,
            extreme: r.extreme.map(|e| WireExtreme {
                trusted: e.is_trusted(),
                observed: e.observed(),
                estimated_missing: match e {
                    uu_core::aggregates::ExtremeReport::Trusted(_) => None,
                    uu_core::aggregates::ExtremeReport::Untrusted {
                        estimated_missing, ..
                    } => estimated_missing,
                },
            }),
            diagnostics: WireDiagnostics {
                coverage: r.diagnostics.coverage,
                contributing_sources: r.diagnostics.contributing_sources as u64,
                max_source_share: r.diagnostics.max_source_share,
                source_gini: r.diagnostics.source_gini,
            },
            recommendation: recommendation_name(r.recommendation).to_string(),
            estimates,
        }
    }

    /// Canonical single-line rendering — handy for bit-for-bit comparisons
    /// in tests (NaN-bearing results compare equal by text).
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }
}

impl QueryReply {
    /// The single result of an ungrouped reply.
    pub fn single(&self) -> Option<&WireResult> {
        if self.grouped {
            None
        } else {
            self.groups.first().map(|g| &g.result)
        }
    }
}

wire_record! {
    /// One server response line: `{"ok":true,"op":<tag>, <payload fields>}`,
    /// or `{"ok":false,"error":{<WireError fields>}}` for the untagged
    /// [`Response::Error`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Answer to [`Request::Query`].
        Query(QueryReply) = "query",
        /// Answer to [`Request::LoadCsv`].
        Loaded {
            /// Table written.
            table: String,
            /// Observations ingested by this request.
            observations: u64,
            /// Entities now in the table.
            entities: u64,
        } = "load_csv",
        /// Answer to [`Request::AppendStream`]. An appending
        /// [`Request::LoadCsv`] rides the same server-side delta path but keeps
        /// answering with [`Response::Loaded`] for compatibility.
        Appended {
            /// Table extended.
            table: String,
            /// Observations ingested by this request.
            observations: u64,
            /// Entities now in the table.
            entities: u64,
            /// Cached selections re-frozen in place by this append.
            refrozen: u64,
            /// Always `true`: appends always take the delta path. Kept so
            /// protocol v7 frames stay byte-identical.
            incremental: bool,
        } = "append_stream",
        /// Answer to [`Request::Warm`].
        Warmed {
            /// Echo of the SQL.
            sql: String,
            /// Estimation universes captured.
            universes: u64,
            /// Whether the selection was already cached.
            already_cached: bool [default: false],
        } = "warm",
        /// Answer to [`Request::SessionOpen`].
        SessionOpened {
            /// Session name.
            name: String,
            /// Pinned estimator names as resolved by the registry.
            estimators: Vec<String>,
        } = "session_open",
        /// Answer to [`Request::SessionClose`].
        SessionClosed {
            /// Session name.
            name: String,
            /// Prepared queries dropped with the session.
            prepared_dropped: u64,
        } = "session_close",
        /// Answer to [`Request::Prepare`].
        Prepared {
            /// Owning session.
            session: String,
            /// Statement name.
            name: String,
            /// Echo of the frozen SQL.
            sql: String,
            /// Estimation universes captured by the frozen selection.
            universes: u64,
            /// Whether the selection was already in the profile cache.
            already_cached: bool [default: false],
        } = "prepare",
        /// Answer to [`Request::Deallocate`].
        Deallocated {
            /// Owning session.
            session: String,
            /// Statement name.
            name: String,
        } = "deallocate",
        /// Answer to [`Request::ServerInfo`].
        Info(ServerInfoReply) = "server_info",
        /// Answer to [`Request::Stats`] (boxed: the reply is by far the widest
        /// variant and would otherwise bloat every `Response`).
        Stats(Box<StatsReply>) = "stats",
        /// Answer to [`Request::Metrics`] (protocol v6).
        Metrics(MetricsReply) = "metrics",
        /// Answer to [`Request::Ping`].
        Pong = "ping",
        /// Answer to [`Request::Checkpoint`] (protocol v7).
        Checkpointed {
            /// Tables snapshotted.
            tables: u64,
            /// Snapshot bytes written.
            bytes: u64,
        } = "checkpoint",
        /// Answer to [`Request::Shutdown`]; the server drains and exits.
        Bye = "shutdown",
        /// Any failure; the connection stays usable.
        Error(WireError),
    }
}

impl Response {
    /// Renders the response as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let json = match self.tag() {
            Some(op) => {
                let mut pairs = vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("op".to_string(), Json::Str(op.to_string())),
                ];
                self.write_payload(&mut pairs);
                Json::Obj(pairs)
            }
            None => {
                let mut error = Vec::new();
                self.write_payload(&mut error);
                Json::obj([("ok", Json::Bool(false)), ("error", Json::Obj(error))])
            }
        };
        json.render()
    }

    /// Parses one wire line into a response.
    pub fn decode(line: &str) -> Result<Response, ProtoError> {
        let json = parse(line)?;
        if field(&json, "ok")? {
            let op = json.get("op").and_then(Json::as_str);
            Response::read_payload(Some(op.ok_or_else(|| missing("op"))?), &json)
        } else {
            let error = json.get("error").ok_or_else(|| missing("error"))?;
            Response::read_payload(None, error)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Query(QueryRequest {
                sql: "SELECT SUM(v) FROM t WHERE v < 10 GROUP BY g".into(),
                estimators: vec!["bucket".into(), "naive".into()],
                cached: false,
                trace: false,
            }),
            Request::Query(QueryRequest {
                sql: "SELECT SUM(v) FROM t".into(),
                estimators: vec!["bucket".into()],
                cached: true,
                trace: true,
            }),
            Request::LoadCsv(LoadCsvRequest {
                table: "t".into(),
                columns: vec![("k".into(), "str".into()), ("v".into(), "float".into())],
                entity_column: "k".into(),
                source_column: "worker".into(),
                csv: "worker,k,v\n0,A,1\n".into(),
                append: true,
            }),
            Request::AppendStream {
                table: "t".into(),
                source_column: "worker".into(),
                csv: "worker,k,v\n0,B,2\n1,C,3\n".into(),
            },
            Request::Warm {
                sql: "SELECT SUM(v) FROM t".into(),
            },
            Request::SessionOpen {
                name: "analyst-1".into(),
                estimators: vec!["bucket".into(), "monte-carlo".into()],
            },
            Request::SessionOpen {
                name: "bare".into(),
                estimators: Vec::new(),
            },
            Request::SessionClose {
                name: "analyst-1".into(),
            },
            Request::Prepare {
                session: "analyst-1".into(),
                name: "q1".into(),
                sql: "SELECT SUM(v) FROM t WHERE v < 10".into(),
            },
            Request::ExecutePrepared {
                session: "analyst-1".into(),
                name: "q1".into(),
            },
            Request::Deallocate {
                session: "analyst-1".into(),
                name: "q1".into(),
            },
            Request::ServerInfo,
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Checkpoint,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.encode();
            assert!(!line.contains('\n'), "one request per line: {line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn query_request_defaults() {
        let req = Request::decode(r#"{"op":"query","sql":"SELECT COUNT(*) FROM t"}"#).unwrap();
        match req {
            Request::Query(q) => {
                assert!(q.cached, "cached defaults on");
                assert!(q.estimators.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_decode_to_errors() {
        for bad in [
            "not json",
            "42",
            r#"{"sql":"SELECT"}"#,
            r#"{"op":"launch_missiles"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","sql":7}"#,
            r#"{"op":"query","sql":"x","estimators":"bucket"}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let result = WireResult {
            query: "SELECT SUM(v) FROM t".into(),
            observed: 13_300.0,
            corrected: Some(13_950.000000000002),
            method: "bucket".into(),
            n_hat: Some(5.5),
            upper_bound: None,
            extreme: Some(WireExtreme {
                trusted: false,
                observed: 300.0,
                estimated_missing: Some(0.75),
            }),
            diagnostics: WireDiagnostics {
                coverage: Some(0.8),
                contributing_sources: 5,
                max_source_share: Some(1.0 / 3.0),
                source_gini: None,
            },
            recommendation: "bucket".into(),
            estimates: vec![WireEstimate {
                name: "naive".into(),
                delta: Some(1_662.5),
                n_hat: Some(4.5),
                corrected: Some(14_962.5),
            }],
        };
        let responses = [
            Response::Query(QueryReply {
                sql: "SELECT SUM(v) FROM t".into(),
                cache_hit: true,
                elapsed_us: 123,
                grouped: false,
                groups: vec![GroupReply {
                    key: WireValue(Value::Null),
                    result: result.clone(),
                }],
                trace: None,
            }),
            Response::Query(QueryReply {
                sql: "SELECT SUM(v) FROM t".into(),
                cache_hit: false,
                elapsed_us: 870,
                grouped: false,
                groups: vec![GroupReply {
                    key: WireValue(Value::Null),
                    result: result.clone(),
                }],
                trace: Some(vec![
                    WireSpan {
                        stage: "request".into(),
                        label: None,
                        parent: None,
                        start_ns: 0,
                        dur_ns: 870_000,
                    },
                    WireSpan {
                        stage: "estimator_fanout".into(),
                        label: Some("bucket".into()),
                        parent: Some(0),
                        start_ns: 12_500,
                        dur_ns: 700_000,
                    },
                ]),
            }),
            Response::Query(QueryReply {
                sql: "SELECT SUM(v) FROM t GROUP BY g".into(),
                cache_hit: false,
                elapsed_us: 0,
                grouped: true,
                groups: vec![
                    GroupReply {
                        key: WireValue(Value::Str("CA".into())),
                        result: result.clone(),
                    },
                    GroupReply {
                        key: WireValue(Value::Int(-3)),
                        result: result.clone(),
                    },
                    GroupReply {
                        key: WireValue(Value::Float(2.5)),
                        result,
                    },
                ],
                trace: None,
            }),
            Response::Metrics(MetricsReply {
                entries: vec![
                    WireStageMetrics {
                        verb: "query".into(),
                        stage: "request".into(),
                        count: 41,
                        p50_us: 420.5,
                        p90_us: 1_000.0,
                        p99_us: 2_830.0,
                        max_us: 2_831.25,
                        mean_us: 600.125,
                    },
                    WireStageMetrics {
                        verb: "append_stream".into(),
                        stage: "refreeze".into(),
                        count: 3,
                        p50_us: 90.0,
                        p90_us: 120.0,
                        p99_us: 120.0,
                        max_us: 118.75,
                        mean_us: 99.5,
                    },
                ],
            }),
            Response::Metrics(MetricsReply {
                entries: Vec::new(),
            }),
            Response::Loaded {
                table: "t".into(),
                observations: 9,
                entities: 4,
            },
            Response::Appended {
                table: "t".into(),
                observations: 100,
                entities: 54,
                refrozen: 3,
                incremental: true,
            },
            Response::Appended {
                table: "t".into(),
                observations: 2,
                entities: 54,
                refrozen: 0,
                incremental: false,
            },
            Response::Warmed {
                sql: "SELECT SUM(v) FROM t".into(),
                universes: 4,
                already_cached: true,
            },
            Response::SessionOpened {
                name: "analyst-1".into(),
                estimators: vec!["bucket".into(), "naive".into()],
            },
            Response::SessionClosed {
                name: "analyst-1".into(),
                prepared_dropped: 2,
            },
            Response::Prepared {
                session: "analyst-1".into(),
                name: "q1".into(),
                sql: "SELECT SUM(v) FROM t".into(),
                universes: 1,
                already_cached: false,
            },
            Response::Deallocated {
                session: "analyst-1".into(),
                name: "q1".into(),
            },
            Response::Info(ServerInfoReply {
                version: "0.1.0".into(),
                protocol: PROTOCOL_VERSION,
                uptime_ms: 12,
                active_sessions: 3,
                fronts: vec!["json".into(), "pgwire".into()],
                workers: 4,
                data_dir: None,
                durability: "off".into(),
                last_checkpoint_age_ms: None,
            }),
            Response::Info(ServerInfoReply {
                version: "0.1.0".into(),
                protocol: PROTOCOL_VERSION,
                uptime_ms: 90_000,
                active_sessions: 0,
                fronts: vec!["json".into()],
                workers: 2,
                data_dir: Some("/var/lib/uu".into()),
                durability: "batch".into(),
                last_checkpoint_age_ms: Some(1_234.5),
            }),
            Response::Checkpointed {
                tables: 2,
                bytes: 40_960,
            },
            Response::Pong,
            Response::Bye,
            Response::Error(WireError::unknown_estimator(&UnknownEstimator {
                name: "chao2000".into(),
            })),
            Response::Error(WireError::new(ErrorCode::Parse, "bad SQL")),
        ];
        for resp in responses {
            let line = resp.encode();
            assert!(!line.contains('\n'), "one response per line: {line}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn stats_reply_round_trips() {
        let stats = Response::Stats(Box::new(StatsReply {
            protocol: PROTOCOL_VERSION,
            tables: vec!["companies".into(), "t".into()],
            workers: 4,
            service: ServiceStats {
                connections: 10,
                requests: 25,
                errors: 2,
            },
            uptime_ms: 1234,
            sessions: vec![WireSessionStats {
                name: "analyst-1".into(),
                estimators: vec!["bucket".into()],
                prepared: 2,
                executes: 40,
                frozen_hits: 38,
                age_ms: 600,
            }],
            cache: WireCacheStats {
                counters: CacheMetrics {
                    hits: 7,
                    misses: 3,
                    insertions: 3,
                    evictions: 1,
                    invalidations: 0,
                    expirations: 0,
                    len: 2,
                    bytes: 4096,
                },
                capacity: 128,
                byte_budget: Some(1e6),
                ttl_ms: None,
            },
            projection: ProjectionStats {
                builds: 3,
                reuses: 17,
                bytes: 65_536,
            },
            conn: WireConnStats {
                counters: ConnStats {
                    open: 1003,
                    peak_open: 1005,
                    frames_in: 90,
                    frames_out: 92,
                    bytes_in: 16_384,
                    bytes_out: 65_000,
                    idle_reaped: 4,
                    backpressure: 1,
                    queue_depth_peak: 17,
                    queue_wait_us_total: 4_200,
                    queue_wait_us_max: 950,
                },
                backend: "epoll".into(),
            },
            incremental: IncrementalStats {
                delta_batches: 6,
                rows_appended: 600,
                permutation_merges: 11,
                snapshots_refrozen: 5,
                fallback_rebuilds: 1,
            },
            storage: StorageStats {
                wal_records: 8,
                wal_bytes: 12_288,
                fsyncs: 9,
                checkpoints: 2,
                recovered_tables: 1,
                replayed_records: 3,
                truncated_tail_bytes: 17,
            },
        }));
        assert_eq!(Response::decode(&stats.encode()).unwrap(), stats);
    }

    #[test]
    fn checkpoint_and_storage_decode_strictly() {
        // Responses: every field required, no defaulting.
        for bad in [
            r#"{"ok":true,"op":"checkpoint"}"#,
            r#"{"ok":true,"op":"checkpoint","tables":1}"#,
            r#"{"ok":true,"op":"checkpoint","tables":1,"bytes":"many"}"#,
        ] {
            assert!(Response::decode(bad).is_err(), "{bad:?}");
        }
        // A stats line whose storage block lost a counter fails decode.
        let Response::Stats(_) = Response::decode(
            &Response::Stats(Box::new(StatsReply {
                protocol: PROTOCOL_VERSION,
                tables: Vec::new(),
                workers: 1,
                service: ServiceStats {
                    connections: 0,
                    requests: 0,
                    errors: 0,
                },
                uptime_ms: 0,
                sessions: Vec::new(),
                cache: WireCacheStats {
                    counters: CacheMetrics {
                        hits: 0,
                        misses: 0,
                        insertions: 0,
                        evictions: 0,
                        invalidations: 0,
                        expirations: 0,
                        len: 0,
                        bytes: 0,
                    },
                    capacity: 0,
                    byte_budget: None,
                    ttl_ms: None,
                },
                projection: ProjectionStats {
                    builds: 0,
                    reuses: 0,
                    bytes: 0,
                },
                conn: WireConnStats {
                    counters: ConnStats {
                        open: 0,
                        peak_open: 0,
                        frames_in: 0,
                        frames_out: 0,
                        bytes_in: 0,
                        bytes_out: 0,
                        idle_reaped: 0,
                        backpressure: 0,
                        queue_depth_peak: 0,
                        queue_wait_us_total: 0,
                        queue_wait_us_max: 0,
                    },
                    backend: "poll".into(),
                },
                incremental: IncrementalStats {
                    delta_batches: 0,
                    rows_appended: 0,
                    permutation_merges: 0,
                    snapshots_refrozen: 0,
                    fallback_rebuilds: 0,
                },
                storage: StorageStats::default(),
            }))
            .encode(),
        )
        .unwrap() else {
            panic!("expected stats reply");
        };
        let gutted = r#"{"ok":true,"op":"stats","protocol":8,"tables":[],"workers":1,"connections":0,"requests":0,"errors":0,"uptime_ms":0,"sessions":[],"cache":{"hits":0,"misses":0,"insertions":0,"evictions":0,"invalidations":0,"expirations":0,"len":0,"bytes":0,"capacity":0,"byte_budget":null,"ttl_ms":null},"projection":{"builds":0,"reuses":0,"bytes":0},"conn":{"open":0,"peak_open":0,"frames_in":0,"frames_out":0,"bytes_in":0,"bytes_out":0,"idle_reaped":0,"backpressure":0,"queue_depth_peak":0,"queue_wait_us_total":0,"queue_wait_us_max":0,"backend":"poll"},"incremental":{"delta_batches":0,"rows_appended":0,"permutation_merges":0,"snapshots_refrozen":0,"fallback_rebuilds":0},"storage":{"wal_records":0,"wal_bytes":0,"fsyncs":0,"checkpoints":0,"recovered_tables":0,"replayed_records":0}}"#;
        assert!(
            Response::decode(gutted).is_err(),
            "storage block missing truncated_tail_bytes must fail decode"
        );
    }

    #[test]
    fn malformed_append_lines_decode_to_errors() {
        for bad in [
            // requests: every field is required
            r#"{"op":"append_stream"}"#,
            r#"{"op":"append_stream","table":"t"}"#,
            r#"{"op":"append_stream","table":"t","source_column":"worker"}"#,
            r#"{"op":"append_stream","table":7,"source_column":"worker","csv":"x"}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?}");
        }
        for bad in [
            // responses: strict decode, no defaulting
            r#"{"ok":true,"op":"append_stream","table":"t"}"#,
            r#"{"ok":true,"op":"append_stream","table":"t","observations":1,"entities":1,"refrozen":0}"#,
            r#"{"ok":true,"op":"append_stream","table":"t","observations":1,"entities":1,"refrozen":0,"incremental":1}"#,
        ] {
            assert!(Response::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_error_code_round_trips_its_wire_spelling() {
        for code in ErrorCode::all() {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("no_such_code"), None);
    }

    #[test]
    fn unknown_estimator_error_lists_every_registry_name() {
        let err = WireError::unknown_estimator(&UnknownEstimator {
            name: "bogus".into(),
        });
        assert_eq!(err.code, ErrorCode::UnknownEstimator);
        assert_eq!(
            err.accepted,
            vec!["naive", "freq", "bucket", "monte-carlo", "policy"]
        );
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn nan_observed_round_trips_via_canonical_text() {
        let r = WireResult {
            query: "SELECT AVG(v) FROM t WHERE v > 99999".into(),
            observed: f64::NAN,
            corrected: None,
            method: "none".into(),
            n_hat: None,
            upper_bound: None,
            extreme: None,
            diagnostics: WireDiagnostics {
                coverage: None,
                contributing_sources: 0,
                max_source_share: None,
                source_gini: None,
            },
            recommendation: "collect-more-data".into(),
            estimates: Vec::new(),
        };
        let reply = Response::Query(QueryReply {
            sql: r.query.clone(),
            cache_hit: false,
            elapsed_us: 1,
            grouped: false,
            groups: vec![GroupReply {
                key: WireValue(Value::Null),
                result: r.clone(),
            }],
            trace: None,
        });
        let Response::Query(decoded) = Response::decode(&reply.encode()).unwrap() else {
            panic!("expected query reply");
        };
        let back = decoded.single().unwrap();
        assert!(back.observed.is_nan());
        assert_eq!(back.canonical(), r.canonical());
    }
}
