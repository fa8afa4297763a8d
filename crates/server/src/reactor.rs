//! The readiness-driven connection layer.
//!
//! One reactor thread owns **every** socket of both fronts in non-blocking
//! mode behind a `Poller` (epoll on Linux, a portable `poll(2)` fallback
//! selectable with `UU_REACTOR=poll`). It performs buffered reads with
//! incremental frame assembly — the line-JSON and pgwire framings are
//! resumable state machines over per-connection read/write buffers, never
//! blocking `read_line`/`read_exact` — and hands only *complete* requests to
//! the executor-backed worker pool in [`crate::server`]. Responses come back
//! as `Completion`s through a wakeup pipe and are flushed under
//! `EPOLLOUT`-driven write backpressure.
//!
//! Scalability contract: 10,000+ mostly-idle connections cost one registered
//! fd each and **zero** worker or executor activity (`peak_workers ≤
//! UU_THREADS` keeps holding — pinned by `server_concurrency`). Per-request
//! allocation churn is avoided by moving each connection's [`SessionCtx`]
//! and scratch buffer *into* the `Work` item and back out of its
//! `Completion` — buffers are reused across frames, never reallocated per
//! line.
//!
//! Backpressure rules:
//! * a connection with a request in flight has read interest **disabled**
//!   (one in-flight request per connection — the natural limit of a
//!   request/response protocol);
//! * a connection whose unflushed write backlog exceeds
//!   `WRITE_HIGH_WATER` also has read interest disabled (and the trip is
//!   counted in `stats.conn.backpressure`) until the peer drains it;
//! * the frame bound applies to the *accumulated* read buffer, not to
//!   per-read chunks — a peer dribbling an unframed stream is cut off at
//!   `max_frame_bytes` no matter how small its writes are.
//!
//! `--idle-timeout-ms` arms a `DeadlineQueue` entry per connection; a
//! connection with no *complete* frame for the window is reaped silently
//! (nothing written, socket closed).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::pgwire::{PgCodec, PgStep};
use crate::protocol::{ErrorCode, Response, WireError};
use crate::server::ServerState;
use crate::service::SessionCtx;

/// Unflushed-bytes threshold past which a connection's read interest is
/// dropped until the peer drains its responses.
pub(crate) const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Upper bound on one blocking wait, so the loop re-checks the shutdown flag
/// even if every wake mechanism failed.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// How much past the frame bound the read buffer may grow before reads
/// pause: one frame plus a read chunk of slack for the next frame's bytes.
const READ_SLACK: usize = 64 * 1024;

/// Keep per-connection scratch/read buffers across frames, but return
/// pathological capacity to the allocator.
const BUFFER_KEEP: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Raw OS surface (the only unsafe code in the crate)
// ---------------------------------------------------------------------------

/// Hand-declared FFI for `epoll(7)`, `poll(2)` and `{get,set}rlimit(2)` —
/// the build is offline (no `libc` crate), so the handful of syscalls the
/// reactor needs are declared here and wrapped in safe functions. Nothing
/// outside this module touches `unsafe`.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLLRDHUP: u32 = 0x2000;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: i32 = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: i32 = 3;
    #[cfg(target_os = "linux")]
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI has no
    /// padding between `events` and `data`.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct rlimit` (LP64: both members are 64-bit).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct RLimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A fresh close-on-exec epoll instance.
    #[cfg(target_os = "linux")]
    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: no pointers; returns a fresh fd or -1.
        cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// One `epoll_ctl` operation; `event` may be `None` for `EPOLL_CTL_DEL`.
    #[cfg(target_os = "linux")]
    pub fn epoll_control(
        epfd: i32,
        op: i32,
        fd: i32,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is either null (DEL ignores it) or a live, properly
        // repr(C) event the kernel only reads.
        cvt(unsafe { epoll_ctl(epfd, op, fd, ptr) }).map(|_| ())
    }

    /// Blocking `epoll_wait` into `events`; returns the ready count.
    #[cfg(target_os = "linux")]
    pub fn epoll_wait_events(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: the out-pointer and capacity describe the live slice.
        let n =
            cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) })?;
        Ok(n as usize)
    }

    /// Blocking `poll(2)` over `fds`; returns the ready count.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the pointer and length describe the live slice; the kernel
        // writes only `revents`.
        let n = cvt(unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) })?;
        Ok(n as usize)
    }

    /// Closes a raw fd the module itself opened (the epoll instance).
    pub fn close_fd(fd: i32) {
        // SAFETY: only called on fds owned by this module, exactly once.
        unsafe {
            close(fd);
        }
    }

    /// The current `RLIMIT_NOFILE` soft/hard pair.
    pub fn get_nofile_limit() -> io::Result<RLimit> {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: out-pointer to a live struct the kernel fills.
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        Ok(lim)
    }

    /// Sets the `RLIMIT_NOFILE` soft/hard pair.
    pub fn set_nofile_limit(lim: RLimit) -> io::Result<()> {
        // SAFETY: in-pointer to a live struct the kernel only reads.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }).map(|_| ())
    }
}

/// Raises the process's soft `RLIMIT_NOFILE` toward `target` (clamped to the
/// hard limit) and returns the resulting soft limit. A no-op when the soft
/// limit already covers `target`. Used by the saturation bench, the
/// many-idle tests and `uu-server` startup so parking thousands of
/// connections doesn't trip the default 1024-fd soft cap.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let lim = sys::get_nofile_limit()?;
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = target.min(lim.rlim_max);
    sys::set_nofile_limit(sys::RLimit {
        rlim_cur: want,
        rlim_max: lim.rlim_max,
    })?;
    Ok(want)
}

// ---------------------------------------------------------------------------
// Poller: epoll with a poll(2) fallback
// ---------------------------------------------------------------------------

/// One readiness event, backend-agnostic. Hangups and errors are folded into
/// `readable` so the next `read()` observes the close/error directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
}

enum Backend {
    /// Level-triggered epoll; fd owned here.
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    },
    /// Portable fallback: interest map rebuilt into a `pollfd` array per
    /// wait. Selected with `UU_REACTOR=poll` (and on non-Linux targets).
    Poll {
        interest: HashMap<usize, (RawFd, bool, bool)>,
    },
}

/// A minimal readiness poller over raw fds, keyed by caller tokens.
pub(crate) struct Poller {
    backend: Backend,
}

impl Poller {
    /// Picks the platform backend; `UU_REACTOR=poll` forces the fallback.
    pub fn new() -> io::Result<Poller> {
        let force_poll = std::env::var("UU_REACTOR").is_ok_and(|v| v == "poll");
        #[cfg(target_os = "linux")]
        if !force_poll {
            let epfd = sys::epoll_create()?;
            return Ok(Poller {
                backend: Backend::Epoll {
                    epfd,
                    buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
                },
            });
        }
        let _ = force_poll;
        Ok(Poller {
            backend: Backend::Poll {
                interest: HashMap::new(),
            },
        })
    }

    /// The backend's name, reported in `stats.conn.backend`.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_mask(readable: bool, writable: bool) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if readable {
            mask |= sys::EPOLLIN;
        }
        if writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// Starts watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: Self::epoll_mask(readable, writable),
                    data: token as u64,
                };
                sys::epoll_control(*epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev))
            }
            Backend::Poll { interest } => {
                interest.insert(token, (fd, readable, writable));
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(
        &mut self,
        fd: RawFd,
        token: usize,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = sys::EpollEvent {
                    events: Self::epoll_mask(readable, writable),
                    data: token as u64,
                };
                sys::epoll_control(*epfd, sys::EPOLL_CTL_MOD, fd, Some(&mut ev))
            }
            Backend::Poll { interest } => {
                interest.insert(token, (fd, readable, writable));
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Dropping the fd deregisters implicitly on epoll,
    /// but the explicit call keeps both backends in lockstep.
    pub fn deregister(&mut self, fd: RawFd, token: usize) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let _ = sys::epoll_control(*epfd, sys::EPOLL_CTL_DEL, fd, None);
            }
            Backend::Poll { interest } => {
                interest.remove(&token);
                let _ = fd;
            }
        }
    }

    /// Waits up to `timeout` and appends ready events to `events` (cleared
    /// first). `EINTR` surfaces as zero events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, buf } => {
                let n = match sys::epoll_wait_events(*epfd, buf, timeout_ms) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
                for ev in buf.iter().take(n) {
                    // Copy out of the (packed) struct before testing bits.
                    let bits = ev.events;
                    let data = ev.data;
                    events.push(Event {
                        token: data as usize,
                        readable: bits
                            & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                            != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { interest } => {
                let mut fds = Vec::with_capacity(interest.len());
                let mut tokens = Vec::with_capacity(interest.len());
                for (&token, &(fd, readable, writable)) in interest.iter() {
                    let mut mask = 0i16;
                    if readable {
                        mask |= sys::POLLIN;
                    }
                    if writable {
                        mask |= sys::POLLOUT;
                    }
                    fds.push(sys::PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                    tokens.push(token);
                }
                let n = match sys::poll_fds(&mut fds, timeout_ms) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                    Err(e) => return Err(e),
                };
                if n > 0 {
                    for (pfd, &token) in fds.iter().zip(&tokens) {
                        if pfd.revents == 0 {
                            continue;
                        }
                        events.push(Event {
                            token,
                            readable: pfd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP)
                                != 0,
                            writable: pfd.revents & sys::POLLOUT != 0,
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            sys::close_fd(*epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// Deadline queue (idle-timeout reaping)
// ---------------------------------------------------------------------------

/// A lazy min-heap of `(due, slot, generation)` reap candidates. Entries are
/// never removed eagerly: popping validates the generation against the live
/// slot (stale entries for recycled slots drop out) and a connection that
/// made progress since arming is simply re-armed at its true deadline. The
/// due time only arms on *complete* frames, so a byte-dribbling peer that
/// never finishes a frame is reaped on schedule.
#[derive(Default)]
pub(crate) struct DeadlineQueue {
    heap: BinaryHeap<Reverse<(Instant, usize, u64)>>,
}

impl DeadlineQueue {
    /// Arms a reap check for `(slot, generation)` at `due`.
    pub fn push(&mut self, due: Instant, slot: usize, generation: u64) {
        self.heap.push(Reverse((due, slot, generation)));
    }

    /// The earliest armed check, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((due, _, _))| *due)
    }

    /// Pops the next check that is due at `now`, or `None`.
    pub fn pop_expired(&mut self, now: Instant) -> Option<(usize, u64)> {
        match self.heap.peek() {
            Some(Reverse((due, _, _))) if *due <= now => {
                let Reverse((_, slot, generation)) = self.heap.pop().expect("peeked");
                Some((slot, generation))
            }
            _ => None,
        }
    }

    /// Number of armed checks (stale ones included).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Incremental JSON line framing
// ---------------------------------------------------------------------------

/// Outcome of trying to take one request line out of a read buffer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum JsonFrame {
    /// No complete, non-blank line buffered yet.
    None,
    /// `line_out` now holds one complete line (newline and any `\r` struck).
    Line,
    /// The peer exceeded the frame bound — on the *accumulated* buffer if no
    /// newline ever arrived, or on the line itself if one did.
    Oversized,
}

/// Takes the next complete request line out of `buf` into the reused
/// `line_out` (no per-frame allocation), skipping blank lines. The frame
/// bound is enforced on the line and on the accumulated unframed buffer.
pub(crate) fn take_json_line(
    buf: &mut Vec<u8>,
    line_out: &mut Vec<u8>,
    max_frame: usize,
) -> JsonFrame {
    loop {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                // The bound is on the line itself, not read-chunk
                // granularity: a complete-but-oversized line is rejected too.
                if pos > max_frame {
                    return JsonFrame::Oversized;
                }
                line_out.clear();
                line_out.extend_from_slice(&buf[..pos]);
                if line_out.last() == Some(&b'\r') {
                    line_out.pop();
                }
                buf.drain(..=pos);
                if line_out.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                return JsonFrame::Line;
            }
            None => {
                // Accumulated-buffer bound: a peer streaming unframed bytes
                // is cut off here even though no single read chunk was large.
                if buf.len() > max_frame {
                    return JsonFrame::Oversized;
                }
                return JsonFrame::None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Work / completion exchange with the worker pool
// ---------------------------------------------------------------------------

/// What kind of complete request the reactor framed.
pub(crate) enum Payload {
    /// One line-JSON request; the line bytes are in `scratch`.
    JsonLine,
    /// One pgwire simple query; the SQL bytes are in `scratch`.
    PgQuery,
}

/// One complete request handed to the worker pool. Carries the connection's
/// [`SessionCtx`] and scratch buffer *by move* so the worker needs no locks
/// and the buffers are reused across frames.
pub(crate) struct Work {
    pub slot: usize,
    pub generation: u64,
    pub payload: Payload,
    pub ctx: SessionCtx,
    pub scratch: Vec<u8>,
    /// When the reactor queued this request — the worker's pop time minus
    /// this is the queue wait reported to the service's observability layer.
    pub enqueued: Instant,
}

/// The worker's answer, routed back through the reactor's wakeup pipe.
pub(crate) struct Completion {
    pub slot: usize,
    pub generation: u64,
    pub ctx: SessionCtx,
    pub scratch: Vec<u8>,
    /// Encoded response bytes to queue on the connection.
    pub bytes: Vec<u8>,
    /// Flush `bytes`, then close the connection.
    pub close: bool,
    /// The request asked the whole server to shut down.
    pub shutdown: bool,
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Which front a connection speaks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrontKind {
    Json,
    Pgwire,
}

enum Codec {
    Json,
    Pg(PgCodec),
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    generation: u64,
    codec: Codec,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Per-client dispatch state; `None` while moved into a [`Work`].
    ctx: Option<SessionCtx>,
    /// Reused frame buffer; `None` while moved into a [`Work`].
    scratch: Option<Vec<u8>>,
    /// A request is in flight in the worker pool.
    busy: bool,
    /// Flush pending writes, then close.
    closing: bool,
    /// The peer half-closed; serve what's buffered, then close.
    peer_closed: bool,
    /// Completion of the last *complete* frame (arms the idle deadline).
    last_frame: Instant,
    /// Registered interest, to skip redundant `reregister` calls.
    want_read: bool,
    want_write: bool,
    /// Read interest is currently parked behind the write high-water mark
    /// (edge-counts `stats.conn.backpressure`).
    backpressured: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64, front: FrontKind, now: Instant) -> Conn {
        Conn {
            stream,
            generation,
            codec: match front {
                FrontKind::Json => Codec::Json,
                FrontKind::Pgwire => Codec::Pg(PgCodec::new()),
            },
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            ctx: Some(SessionCtx::new()),
            scratch: Some(Vec::new()),
            busy: false,
            closing: false,
            peer_closed: false,
            last_frame: now,
            want_read: true,
            want_write: false,
            backpressured: false,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

/// The I/O thread's state: listeners, the poller, the connection slab and
/// the idle-deadline queue. Constructed on the spawning thread (so bind and
/// poller errors surface in `spawn`'s `io::Result`), then moved into the
/// `uu-server-reactor` thread.
pub(crate) struct Reactor {
    state: Arc<ServerState>,
    poller: Poller,
    listeners: Vec<(TcpListener, FrontKind)>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    deadlines: DeadlineQueue,
    idle_timeout: Option<Duration>,
    max_frame: usize,
    events: Vec<Event>,
}

impl Reactor {
    /// Token of the wakeup pipe's read end.
    fn wake_token(&self) -> usize {
        self.listeners.len()
    }

    /// First token of the connection slab.
    fn conn_base(&self) -> usize {
        self.listeners.len() + 1
    }

    pub fn new(
        state: Arc<ServerState>,
        listeners: Vec<(TcpListener, FrontKind)>,
        wake_rx: UnixStream,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Reactor> {
        let mut poller = Poller::new()?;
        for (i, (listener, _)) in listeners.iter().enumerate() {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), i, true, false)?;
        }
        wake_rx.set_nonblocking(true)?;
        poller.register(wake_rx.as_raw_fd(), listeners.len(), true, false)?;
        state.service().set_reactor_backend(poller.backend_name());
        let max_frame = state.service().max_frame_bytes();
        Ok(Reactor {
            state,
            poller,
            listeners,
            wake_rx,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            deadlines: DeadlineQueue::default(),
            idle_timeout,
            max_frame,
            events: Vec::new(),
        })
    }

    /// The reactor thread's body: wait, accept, read/frame/dispatch, flush,
    /// reap — until shutdown, then drain.
    pub fn run(mut self) {
        while !self.state.is_shutting_down() {
            let timeout = self.wait_timeout();
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                // A failed wait is unrecoverable for a readiness loop.
                eprintln!("uu-server reactor: poll failed: {e}");
                self.state.initiate_shutdown();
                self.events = events;
                break;
            }
            for ev in events.iter().copied() {
                if ev.token < self.listeners.len() {
                    self.accept(ev.token);
                } else if ev.token == self.wake_token() {
                    self.drain_wake();
                } else {
                    self.on_conn_event(ev);
                }
            }
            self.events = events;
            self.process_completions();
            self.reap_idle();
        }
        self.drain_on_shutdown();
    }

    fn wait_timeout(&self) -> Duration {
        match self.deadlines.next_deadline() {
            Some(due) => due.saturating_duration_since(Instant::now()).min(MAX_WAIT),
            None => MAX_WAIT,
        }
    }

    // -- accept -------------------------------------------------------------

    fn accept(&mut self, listener_idx: usize) {
        loop {
            let accepted = self.listeners[listener_idx].0.accept();
            let front = self.listeners[listener_idx].1;
            match accepted {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.add_conn(stream, front);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE and transient errors: retry on the next
                // readiness report instead of spinning.
                Err(_) => break,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream, front: FrontKind) {
        let now = Instant::now();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        self.next_generation += 1;
        let generation = self.next_generation;
        let token = self.conn_base() + slot;
        if self
            .poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.state.service().connection_opened();
        self.conns[slot] = Some(Conn::new(stream, generation, front, now));
        if let Some(timeout) = self.idle_timeout {
            self.deadlines.push(now + timeout, slot, generation);
        }
    }

    // -- wakeup pipe ----------------------------------------------------------

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    // -- per-connection events ------------------------------------------------

    fn on_conn_event(&mut self, ev: Event) {
        let slot = ev.token - self.conn_base();
        if !matches!(self.conns.get(slot), Some(Some(_))) {
            return;
        }
        if ev.writable {
            self.flush(slot);
        }
        if ev.readable && self.conns[slot].is_some() {
            self.do_read(slot);
        }
        if self.conns[slot].is_some() {
            self.pump(slot);
            self.after_progress(slot);
        }
    }

    /// Reads until `WouldBlock`, the buffer cap, EOF or error.
    fn do_read(&mut self, slot: usize) {
        let cap = self.max_frame + READ_SLACK;
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("checked live");
            if conn.read_buf.len() >= cap {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    break;
                }
            }
        }
        if total > 0 {
            self.state.service().note_bytes_in(total as u64);
        }
    }

    /// Frames as many complete requests as backpressure allows and
    /// dispatches at most one (a request/response protocol has exactly one
    /// request in flight per connection).
    fn pump(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("checked live");
            if conn.busy || conn.closing || conn.unflushed() >= WRITE_HIGH_WATER {
                return;
            }
            match &mut conn.codec {
                Codec::Json => {
                    let scratch = conn.scratch.as_mut().expect("scratch present when idle");
                    match take_json_line(&mut conn.read_buf, scratch, self.max_frame) {
                        JsonFrame::None => return,
                        JsonFrame::Line => {
                            self.note_frame(slot);
                            self.dispatch(slot, Payload::JsonLine);
                            return;
                        }
                        JsonFrame::Oversized => {
                            // Can't resynchronise on a line boundary we never
                            // saw: answer structured, flush, drop.
                            let max_frame = self.max_frame;
                            let conn = self.conns[slot].as_mut().expect("checked live");
                            let mut encoded = Response::Error(WireError::new(
                                ErrorCode::FrameTooLarge,
                                format!("request line exceeds {max_frame} bytes"),
                            ))
                            .encode();
                            encoded.push('\n');
                            conn.write_buf.extend_from_slice(encoded.as_bytes());
                            conn.closing = true;
                            self.state.service().note_error();
                            self.state.service().note_frame_out();
                            return;
                        }
                    }
                }
                Codec::Pg(_) => {
                    let scratch = conn.scratch.as_mut().expect("scratch present when idle");
                    let mut scratch_taken = std::mem::take(scratch);
                    let Codec::Pg(codec) = &mut conn.codec else {
                        unreachable!("matched above");
                    };
                    let step =
                        codec.next_step(&mut conn.read_buf, &mut scratch_taken, self.max_frame);
                    *conn.scratch.as_mut().expect("present") = scratch_taken;
                    match step {
                        None => return,
                        Some(PgStep::Reply(bytes)) => {
                            conn.write_buf.extend_from_slice(&bytes);
                            self.note_frame(slot);
                            self.state.service().note_frame_out();
                        }
                        Some(PgStep::ErrorReply(bytes)) => {
                            conn.write_buf.extend_from_slice(&bytes);
                            self.note_frame(slot);
                            self.state.service().note_error();
                            self.state.service().note_frame_out();
                        }
                        Some(PgStep::Query) => {
                            self.note_frame(slot);
                            self.dispatch(slot, Payload::PgQuery);
                            return;
                        }
                        Some(PgStep::Close) => {
                            self.note_frame(slot);
                            let conn = self.conns[slot].as_mut().expect("checked live");
                            conn.closing = true;
                            return;
                        }
                        Some(PgStep::Fatal(bytes)) => {
                            conn.write_buf.extend_from_slice(&bytes);
                            conn.closing = true;
                            self.state.service().note_error();
                            self.state.service().note_frame_out();
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Counts one complete inbound frame and re-arms the idle deadline.
    fn note_frame(&mut self, slot: usize) {
        let now = Instant::now();
        let conn = self.conns[slot].as_mut().expect("checked live");
        conn.last_frame = now;
        let generation = conn.generation;
        self.state.service().note_frame_in();
        if let Some(timeout) = self.idle_timeout {
            self.deadlines.push(now + timeout, slot, generation);
        }
    }

    fn dispatch(&mut self, slot: usize, payload: Payload) {
        let conn = self.conns[slot].as_mut().expect("checked live");
        let ctx = conn.ctx.take().expect("ctx present when idle");
        let scratch = conn.scratch.take().expect("scratch present when idle");
        conn.busy = true;
        let generation = conn.generation;
        self.state.push_work(Work {
            slot,
            generation,
            payload,
            ctx,
            scratch,
            enqueued: Instant::now(),
        });
    }

    // -- completions ----------------------------------------------------------

    fn process_completions(&mut self) {
        for completion in self.state.take_completions() {
            self.on_completion(completion);
        }
    }

    fn on_completion(&mut self, c: Completion) {
        let live = self.conns.get_mut(c.slot).and_then(Option::as_mut);
        let Some(conn) = live.filter(|conn| conn.generation == c.generation) else {
            // The connection died (or the slot was recycled) while the
            // request was in flight; the response has nowhere to go.
            return;
        };
        conn.busy = false;
        conn.ctx = Some(c.ctx);
        let mut scratch = c.scratch;
        scratch.clear();
        if scratch.capacity() > BUFFER_KEEP {
            scratch.shrink_to(BUFFER_KEEP);
        }
        conn.scratch = Some(scratch);
        conn.write_buf.extend_from_slice(&c.bytes);
        if c.close {
            conn.closing = true;
        }
        self.state.service().note_frame_out();
        self.flush(c.slot);
        if self.conns[c.slot].is_some() {
            self.pump(c.slot);
            self.after_progress(c.slot);
        }
    }

    // -- flushing / interest / close ------------------------------------------

    /// Writes as much of the backlog as the socket accepts.
    fn flush(&mut self, slot: usize) {
        let mut total = 0usize;
        loop {
            let conn = self.conns[slot].as_mut().expect("checked live");
            if conn.write_pos >= conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.write_buf.capacity() > BUFFER_KEEP {
                    conn.write_buf.shrink_to(BUFFER_KEEP);
                }
                break;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    self.close_conn(slot);
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    break;
                }
            }
        }
        if total > 0 {
            self.state.service().note_bytes_out(total as u64);
        }
    }

    /// Settles a connection after any progress: closes it if it's done,
    /// otherwise reconciles poller interest with its state.
    fn after_progress(&mut self, slot: usize) {
        let token = self.conn_base() + slot;
        let read_cap = self.max_frame + READ_SLACK;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let flushed = conn.unflushed() == 0;
        if (conn.closing || conn.peer_closed) && !conn.busy && flushed {
            // `closing`: response flushed, nothing more to say.
            // `peer_closed`: everything completable was pumped (pump ran
            // before this), no more input can arrive.
            self.close_conn(slot);
            return;
        }
        let want_write = !flushed;
        let backlogged = conn.unflushed() >= WRITE_HIGH_WATER;
        let want_read = !conn.closing
            && !conn.peer_closed
            && !conn.busy
            && !backlogged
            && conn.read_buf.len() < read_cap;
        let mut tripped = false;
        if backlogged && !conn.backpressured {
            conn.backpressured = true;
            tripped = true;
        } else if !backlogged {
            conn.backpressured = false;
        }
        let mut reregister = None;
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            reregister = Some(conn.stream.as_raw_fd());
        }
        if tripped {
            self.state.service().note_backpressure();
        }
        if let Some(fd) = reregister {
            if self
                .poller
                .reregister(fd, token, want_read, want_write)
                .is_err()
            {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let token = self.conn_base() + slot;
        self.poller.deregister(conn.stream.as_raw_fd(), token);
        self.free.push(slot);
        self.state.service().connection_closed();
        // Dropping `conn` closes the socket.
    }

    // -- idle reaping ---------------------------------------------------------

    fn reap_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        while let Some((slot, generation)) = self.deadlines.pop_expired(now) {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != generation {
                continue;
            }
            if conn.busy {
                // In flight counts as progress; check again a window later.
                self.deadlines.push(now + timeout, slot, generation);
                continue;
            }
            let due = conn.last_frame + timeout;
            if due > now {
                // Re-armed by a later frame; keep the single live entry.
                self.deadlines.push(due, slot, generation);
                continue;
            }
            // Reap: answer nothing, close cleanly.
            self.state.service().note_idle_reaped();
            self.close_conn(slot);
        }
    }

    // -- shutdown drain -------------------------------------------------------

    /// Stops accepting, then gives in-flight requests up to one second to
    /// complete and flush (the `shutdown` verb's `Bye` must reach its
    /// client) before closing everything.
    fn drain_on_shutdown(&mut self) {
        for (i, (listener, _)) in self.listeners.iter().enumerate() {
            self.poller.deregister(listener.as_raw_fd(), i);
        }
        self.listeners.clear();
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            self.process_completions();
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_some() {
                    self.flush(slot);
                }
            }
            let pending = self
                .conns
                .iter()
                .flatten()
                .any(|c| c.busy || c.unflushed() > 0);
            if !pending || Instant::now() >= deadline {
                break;
            }
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, Duration::from_millis(10));
            self.events = events;
            self.drain_wake();
        }
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_queue_orders_and_validates_lazily() {
        let mut q = DeadlineQueue::default();
        let t0 = Instant::now();
        // Pushed out of order (re-arms are non-monotonic in arrival order).
        q.push(t0 + Duration::from_millis(30), 2, 20);
        q.push(t0 + Duration::from_millis(10), 0, 7);
        q.push(t0 + Duration::from_millis(20), 1, 9);
        assert_eq!(q.next_deadline(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(q.len(), 3);
        // Nothing due yet.
        assert_eq!(q.pop_expired(t0), None);
        // Everything due pops in deadline order.
        let late = t0 + Duration::from_millis(50);
        assert_eq!(q.pop_expired(late), Some((0, 7)));
        assert_eq!(q.pop_expired(late), Some((1, 9)));
        assert_eq!(q.pop_expired(late), Some((2, 20)));
        assert_eq!(q.pop_expired(late), None);
        assert_eq!(q.next_deadline(), None);
    }

    #[test]
    fn json_lines_assemble_incrementally_and_reuse_the_scratch_buffer() {
        let mut buf = Vec::new();
        let mut line = Vec::new();
        // Byte-at-a-time arrival: no frame until the newline lands.
        for &b in b"{\"op\":\"ping\"}" {
            buf.push(b);
            assert_eq!(take_json_line(&mut buf, &mut line, 1024), JsonFrame::None);
        }
        buf.push(b'\n');
        assert_eq!(take_json_line(&mut buf, &mut line, 1024), JsonFrame::Line);
        assert_eq!(line, b"{\"op\":\"ping\"}");
        assert!(buf.is_empty());
        // The scratch buffer is reused, not reallocated, across frames.
        let cap_before = line.capacity();
        let ptr_before = line.as_ptr();
        buf.extend_from_slice(b"\r\n  \r\n{\"op\":\"x\"}\r\n");
        assert_eq!(take_json_line(&mut buf, &mut line, 1024), JsonFrame::Line);
        assert_eq!(line, b"{\"op\":\"x\"}", "blank lines skipped, CR struck");
        assert_eq!(line.capacity(), cap_before);
        assert_eq!(line.as_ptr(), ptr_before);
    }

    #[test]
    fn frame_bound_applies_to_the_accumulated_buffer_not_per_chunk() {
        let max = 64;
        let mut buf = Vec::new();
        let mut line = Vec::new();
        // Dribble 1-byte chunks with no newline: every individual chunk is
        // tiny, but the accumulated buffer must trip the bound.
        for i in 0..=max {
            buf.push(b'x');
            let got = take_json_line(&mut buf, &mut line, max);
            if i < max {
                assert_eq!(got, JsonFrame::None, "at {i} accumulated bytes");
            } else {
                assert_eq!(got, JsonFrame::Oversized, "accumulated bound tripped");
            }
        }
        // A complete line over the bound is oversized too.
        let mut buf = vec![b'y'; max + 1];
        buf.push(b'\n');
        assert_eq!(
            take_json_line(&mut buf, &mut line, max),
            JsonFrame::Oversized
        );
        // And one exactly at the bound is fine.
        let mut buf = vec![b'z'; max];
        buf.push(b'\n');
        assert_eq!(take_json_line(&mut buf, &mut line, max), JsonFrame::Line);
        assert_eq!(line.len(), max);
    }

    #[test]
    fn poller_reports_readiness_on_both_backends() {
        // The wakeup-pipe shape: a UnixStream pair, read end registered.
        for force_poll in [false, true] {
            if force_poll {
                std::env::set_var("UU_REACTOR", "poll");
            } else {
                std::env::remove_var("UU_REACTOR");
            }
            let mut poller = Poller::new().expect("poller");
            if force_poll {
                assert_eq!(poller.backend_name(), "poll");
                std::env::remove_var("UU_REACTOR");
            }
            let (mut tx, rx) = UnixStream::pair().expect("socketpair");
            rx.set_nonblocking(true).expect("nonblocking");
            poller
                .register(rx.as_raw_fd(), 42, true, false)
                .expect("register");
            let mut events = Vec::new();
            // Nothing readable yet.
            poller
                .wait(&mut events, Duration::from_millis(0))
                .expect("wait");
            assert!(events.iter().all(|e| e.token != 42 || !e.readable));
            tx.write_all(b"!").expect("wake write");
            poller
                .wait(&mut events, Duration::from_millis(1000))
                .expect("wait");
            let ev = events
                .iter()
                .find(|e| e.token == 42)
                .expect("event for token");
            assert!(ev.readable);
            // Interest can be rewritten and withdrawn.
            poller
                .reregister(rx.as_raw_fd(), 42, false, false)
                .expect("reregister");
            poller.deregister(rx.as_raw_fd(), 42);
        }
    }

    #[test]
    fn nofile_limit_raises_toward_the_hard_cap() {
        let lim = sys::get_nofile_limit().expect("getrlimit");
        // Asking for what we already have is a no-op success.
        let got = raise_nofile_limit(lim.rlim_cur).expect("no-op raise");
        assert!(got >= lim.rlim_cur);
        // Asking beyond the hard cap clamps instead of failing.
        let got = raise_nofile_limit(u64::MAX).expect("clamped raise");
        assert!(got <= sys::get_nofile_limit().expect("getrlimit").rlim_max);
        assert!(got >= lim.rlim_cur);
    }
}
