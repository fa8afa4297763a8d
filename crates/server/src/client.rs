//! A blocking client for the wire protocol, used by the `uu-client` binary,
//! the loopback integration tests and the `server_roundtrip` bench.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    MetricsReply, ProtoError, QueryReply, QueryRequest, Request, Response, ServerInfoReply,
    StatsReply, WireError,
};

/// Client-side failure: transport, framing, or a structured server error
/// surfaced through [`Client::expect_ok`]-style helpers.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's line failed to decode (a protocol bug).
    Proto(ProtoError),
    /// The server closed the connection.
    Closed,
    /// The server answered with a structured error.
    Server(WireError),
    /// The server answered with a different response kind than expected.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Server(e) => {
                write!(f, "server error [{}]: {}", e.code.as_str(), e.message)
            }
            ClientError::Unexpected(got) => write!(f, "unexpected response: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Outcome of an `append_stream` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Observations ingested by the batch.
    pub observations: u64,
    /// Entities now in the table.
    pub entities: u64,
    /// Cached selections re-frozen in place by this append.
    pub refrozen: u64,
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send_raw(&request.encode())
    }

    /// Sends a raw line (malformed-input tests) and reads one response line.
    pub fn send_raw(&mut self, line: &str) -> Result<Response, ClientError> {
        let mut framed = line.to_string();
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::Closed);
        }
        Ok(Response::decode(reply.trim_end())?)
    }

    /// Executes a query, returning the reply or the server's structured
    /// error as [`ClientError::Server`].
    pub fn query(
        &mut self,
        sql: &str,
        estimators: &[&str],
        cached: bool,
    ) -> Result<QueryReply, ClientError> {
        self.query_opts(sql, estimators, cached, false)
    }

    /// Executes a query with the `"trace": true` option: the reply carries
    /// the server-side span tree in [`QueryReply::trace`].
    pub fn query_traced(
        &mut self,
        sql: &str,
        estimators: &[&str],
        cached: bool,
    ) -> Result<QueryReply, ClientError> {
        self.query_opts(sql, estimators, cached, true)
    }

    /// [`Client::query`] with every protocol option explicit.
    pub fn query_opts(
        &mut self,
        sql: &str,
        estimators: &[&str],
        cached: bool,
        trace: bool,
    ) -> Result<QueryReply, ClientError> {
        let response = self.request(&Request::Query(QueryRequest {
            sql: sql.to_string(),
            estimators: estimators.iter().map(|s| s.to_string()).collect(),
            cached,
            trace,
        }))?;
        match response {
            Response::Query(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Fetches the per-(verb, stage) latency digests.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Appends a CSV observation batch to an existing table through the
    /// incremental-maintenance path.
    pub fn append_stream(
        &mut self,
        table: &str,
        source_column: &str,
        csv: &str,
    ) -> Result<AppendOutcome, ClientError> {
        match self.request(&Request::AppendStream {
            table: table.to_string(),
            source_column: source_column.to_string(),
            csv: csv.to_string(),
        })? {
            Response::Appended {
                observations,
                entities,
                refrozen,
                ..
            } => Ok(AppendOutcome {
                observations,
                entities,
                refrozen,
            }),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(*stats),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Pre-warms the cache for `sql`; returns `(universes, already_cached)`.
    pub fn warm(&mut self, sql: &str) -> Result<(u64, bool), ClientError> {
        match self.request(&Request::Warm {
            sql: sql.to_string(),
        })? {
            Response::Warmed {
                universes,
                already_cached,
                ..
            } => Ok((universes, already_cached)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Opens a named server-side session with a pinned estimator selection;
    /// returns the resolved estimator names.
    pub fn session_open(
        &mut self,
        name: &str,
        estimators: &[&str],
    ) -> Result<Vec<String>, ClientError> {
        match self.request(&Request::SessionOpen {
            name: name.to_string(),
            estimators: estimators.iter().map(|s| s.to_string()).collect(),
        })? {
            Response::SessionOpened { estimators, .. } => Ok(estimators),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Closes a named session; returns how many prepared queries it dropped.
    pub fn session_close(&mut self, name: &str) -> Result<u64, ClientError> {
        match self.request(&Request::SessionClose {
            name: name.to_string(),
        })? {
            Response::SessionClosed {
                prepared_dropped, ..
            } => Ok(prepared_dropped),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Prepares a statement inside a named session; returns
    /// `(universes, already_cached)`.
    pub fn prepare(
        &mut self,
        session: &str,
        name: &str,
        sql: &str,
    ) -> Result<(u64, bool), ClientError> {
        match self.request(&Request::Prepare {
            session: session.to_string(),
            name: name.to_string(),
            sql: sql.to_string(),
        })? {
            Response::Prepared {
                universes,
                already_cached,
                ..
            } => Ok((universes, already_cached)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Executes a prepared statement; the reply shape matches
    /// [`Client::query`].
    pub fn execute_prepared(
        &mut self,
        session: &str,
        name: &str,
    ) -> Result<QueryReply, ClientError> {
        match self.request(&Request::ExecutePrepared {
            session: session.to_string(),
            name: name.to_string(),
        })? {
            Response::Query(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Drops one prepared statement from a session.
    pub fn deallocate(&mut self, session: &str, name: &str) -> Result<(), ClientError> {
        match self.request(&Request::Deallocate {
            session: session.to_string(),
            name: name.to_string(),
        })? {
            Response::Deallocated { .. } => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Fetches the server identity (version, uptime, sessions, fronts).
    pub fn server_info(&mut self) -> Result<ServerInfoReply, ClientError> {
        match self.request(&Request::ServerInfo)? {
            Response::Info(info) => Ok(info),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Forces a snapshot checkpoint (requires the server to run with
    /// `--data-dir`); returns `(tables, bytes)` written.
    pub fn checkpoint(&mut self) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::Checkpoint)? {
            Response::Checkpointed { tables, bytes } => Ok((tables, bytes)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Unexpected(other.encode())),
        }
    }
}
