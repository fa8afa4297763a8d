//! The server under test runs in a child process: this binary re-executes
//! itself with `serve`, which calls `uu_server::spawn` exactly as the
//! `uu-server` binary does. The parent talks to it over loopback only.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use uu_server::protocol::{Request, Response, StatsReply};
use uu_server::server::{spawn, ServerConfig};
use uu_store::FsyncPolicy;

/// Child-side entry: `perfbench serve <data-dir> <port-file>`. Durable with
/// `--fsync batch` and the default checkpoint triggers; every other knob
/// keeps its production default (128-entry profile cache, workers = cores).
pub fn serve(args: &[String]) -> Result<(), String> {
    let [data_dir, port_file] = args else {
        return Err("usage: perfbench serve DATA_DIR PORT_FILE".into());
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(PathBuf::from(data_dir)),
        fsync: FsyncPolicy::Batch,
        ..ServerConfig::default()
    };
    let handle = spawn(config).map_err(|e| format!("serve: {e}"))?;
    // Write-then-rename so the parent never reads a half-written address.
    let tmp = format!("{port_file}.tmp");
    std::fs::write(&tmp, handle.addr().to_string()).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, port_file).map_err(|e| e.to_string())?;
    handle.join();
    Ok(())
}

/// A running server child.
pub struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a server over `data_dir` and waits until it listens.
    pub fn start(data_dir: &Path) -> Result<Server, String> {
        let port_file = data_dir.with_extension("port");
        let _ = std::fs::remove_file(&port_file);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(data_dir)
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn server: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                return Ok(Server { child, addr });
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server did not start within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Wire, String> {
        Wire::connect(&self.addr)
    }

    /// Peak resident set of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "VmHWM missing from /proc status".to_string())
    }

    /// Clean stop through the `shutdown` verb (final checkpoint), then wait.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = self
            .connect()
            .and_then(|mut w| w.call(&Request::Shutdown))
            .and_then(|r| match r {
                Response::Bye => Ok(()),
                other => Err(format!("shutdown answered {}", other.encode())),
            });
        self.child.wait().map_err(|e| e.to_string())?;
        result
    }

    /// Hard stop (the data directory is discarded afterwards).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Never leave a child behind, whatever path the run took.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-JSON connection with its seams visible: encode, the socket
/// round trip, and decode are separate calls so the traced run can time
/// each. Semantically identical to `uu_server::Client::request`.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Wire {
    pub fn connect(addr: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire {
            reader,
            writer: stream,
            reply: String::new(),
        })
    }

    /// Writes one encoded request line (with its newline) and reads the reply
    /// line; returns it without the newline.
    pub fn roundtrip(&mut self, framed: &str) -> Result<&str, String> {
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| e.to_string())?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Encode + round trip + decode.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let framed = framed(request);
        let line = self.roundtrip(&framed)?;
        Response::decode(line).map_err(|e| e.to_string())
    }

    pub fn stats(&mut self) -> Result<StatsReply, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(format!("stats answered {}", other.encode())),
        }
    }
}

/// The request as one newline-terminated wire line.
pub fn framed(request: &Request) -> String {
    let mut line = request.encode();
    line.push('\n');
    line
}

/// Copies the flat data directory `from` into a fresh `to` (a crash image
/// when taken between two acknowledged batches).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let meta = entry
            .map_err(|e| e.to_string())?
            .metadata()
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
