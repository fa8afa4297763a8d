//! The three workloads. Each one generates its inputs from the seed and
//! builds an in-process twin `Service` from the same inputs (the answer
//! oracle). It then runs several *segments*: each segment starts a fresh
//! server process, sets it up, runs a fixed share of the operations and
//! restarts on a crash image. Every reply is checked. Figures pool all
//! segments, so one slow stretch of the machine or one unlucky process start
//! moves them little. Every segment does the same work, so the counters it
//! leaves in `stats` must repeat exactly from one segment to the next.
//!
//! `hot_read` and `cold_read` load their table through the durable
//! `append_stream` path during set-up, read, and are then killed: the data
//! directory they leave is the crash image. `ingest_read` streams appends
//! while a second client reads another table, and copies its crash image
//! mid-stream.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use uu_server::protocol::{GroupReply, Request, Response, StatsReply};
use uu_server::server::ServerConfig;
use uu_server::{Service, SessionCtx};
use uu_stats::rng::Rng;

use crate::data::{band_selections, Selection, Shape, Table};
use crate::layers;
use crate::report::{mean, median, quantile, Run, Tally};
use crate::server::{copy_dir, dir_bytes, Server, Wire};
use crate::trace::Tracer;

/// The read workloads' table: 280 000 observations from 20 sources over
/// 120 000 entities.
const READ_SHAPE: Shape = Shape {
    entities: 120_000,
    sources: 20,
    per_source: 14_000,
    bands: 2_000,
};
/// Set-up loads the read table in 350 requests of this many rows. A
/// checkpoint fires every 63 appends (50 400 rows), five in all: 1.4% of
/// the requests, so the load's p99 falls among the checkpoint stalls rather
/// than on their edge. The last 34 appends form the crash image's WAL tail.
const READ_CHUNK_ROWS: usize = 800;
/// `hot_read`: distinct cached queries (every 4th grouped), segments, and
/// requests per segment per second of `--seconds`.
const HOT_SET: usize = 64;
const HOT_SEGMENTS: usize = 4;
const HOT_OPS_PER_SECOND: usize = 1_050;
/// `cold_read`: distinct selections (four times the 128-entry cache) and
/// segments; each segment runs two whole cycles per 20 s of `--seconds`.
const COLD_SET: usize = 512;
const COLD_SEGMENTS: usize = 3;

/// `ingest_read`: table B (read) and table A (appended).
const B_SHAPE: Shape = Shape {
    entities: 60_000,
    sources: 20,
    per_source: 7_500,
    bands: 2_000,
};
const A_SHAPE: Shape = Shape {
    entities: 50_000,
    sources: 20,
    per_source: 13_000,
    bands: 2_000,
};
const INGEST_SEGMENTS: usize = 4;

const A_BASE_ROWS: usize = 100_000;
/// 2 000 appends. Set-up appends 230 000 rows (four checkpoints), so the
/// stream's checkpoints fire after appends 249, 874 and 1 499.
const A_BATCHES: usize = 2_000;
/// The crash image: 50 batches past the stream's third checkpoint.
const A_CRASH_AT: usize = 1_549;
/// Cached selections on the appended table, re-frozen by every append; on
/// the read workloads, the queries asked first after a restart.
const PROBES: usize = 4;
const B_SET: usize = 64;
/// B's queries per segment before the stream (idle reference) and during
/// it (fewer than A's batches; a guard checks that B ends first).
const B_IDLE_OPS: usize = 1_000;
const B_STREAM_OPS: usize = 1_600;

/// Restarts on the crash image per segment.
const RECOVERIES: usize = 3;
/// `ingest_read` set-up loads in requests of this many rows (small requests
/// keep the server's transient memory, and so its peak RSS, independent of
/// which worker serves which load).
const SETUP_CHUNK_ROWS: usize = 10_000;
/// `ingest_read` appends carry this many observations (new and re-observed
/// entities).
const STREAM_BATCH_ROWS: usize = 80;
/// Consecutive chunks each loop is split into. A rate or p50 is taken per
/// chunk and averaged over all chunks of all segments: the host's speed
/// drifts over seconds, and averaging figures taken at different times
/// cancels more of that drift than taking their median does.
const CHUNKS: usize = 5;
/// p99s are taken per window of at least this many consecutive operations
/// (so ten lie beyond each), and averaged over windows.
const P99_WINDOW: usize = 1_000;

/// Mean over windows of `P99_WINDOW` or more consecutive samples of each
/// window's p99 (one window when there are fewer samples).
fn windowed_p99(samples: &[f64]) -> f64 {
    let windows = (samples.len() / P99_WINDOW).max(1);
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let (lo, hi) = (
                w * samples.len() / windows,
                (w + 1) * samples.len() / windows,
            );
            quantile(&mut samples[lo..hi].to_vec(), 0.99)
        })
        .collect();
    mean(&p99s)
}

/// The in-process twin: a `Service` over its own catalog, fed the same
/// requests as the server.
pub struct Twin {
    pub service: Service,
    pub ctx: SessionCtx,
}

impl Twin {
    fn new() -> Twin {
        Twin {
            service: Service::new(
                uu_query::Catalog::with_cache(ServerConfig::default().build_cache()),
                0,
            ),
            ctx: SessionCtx::new(),
        }
    }

    fn call(&mut self, request: &Request) -> Response {
        self.service.dispatch(&mut self.ctx, request.clone())
    }

    fn answer(&mut self, sel: &Selection) -> Result<Vec<GroupReply>, String> {
        match self.call(&sel.request) {
            Response::Query(reply) => Ok(reply.groups),
            other => Err(format!("twin answered {} with {}", sel.sql, other.encode())),
        }
    }

    fn answers(&mut self, sels: &[Selection]) -> Result<Vec<Vec<GroupReply>>, String> {
        sels.iter().map(|s| self.answer(s)).collect()
    }

    fn ingest(&mut self, request: &Request) -> Result<(), String> {
        match self.call(request) {
            Response::Loaded { .. } | Response::Appended { .. } => Ok(()),
            other => Err(format!("twin ingest failed: {}", other.encode())),
        }
    }
}

/// Bit-for-bit answer equality (canonical text, so NaN equals NaN).
pub fn same_answer(a: &[GroupReply], b: &[GroupReply]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.key.0 == y.key.0
                && (x.result == y.result || x.result.canonical() == y.result.canonical())
        })
}

/// Mean over the selections `sels` of each one's relative error
/// |corrected SUM − true SUM| / true SUM; a grouped selection's error is
/// Σ|corrected − true| / Σ true over its groups. Every selection weighs the
/// same, however wide.
fn mean_rel_error(sels: &[Selection], answers: &[Vec<GroupReply>]) -> f64 {
    let mut sum = 0.0;
    for (sel, groups) in sels.iter().zip(answers) {
        let (mut error, mut truth) = (0.0, 0.0);
        for g in groups {
            let slot = match &g.key.0 {
                uu_query::Value::Int(r) if sel.grouped => *r as usize,
                _ => 0,
            };
            error += (g.result.corrected.unwrap_or(g.result.observed) - sel.truth[slot]).abs();
            truth += sel.truth[slot];
        }
        sum += error / truth;
    }
    sum / sels.len() as f64
}

/// Rows and CSV bytes carried by an ingest request.
fn ingest_size(request: &Request) -> (u64, u64) {
    let csv = match request {
        Request::LoadCsv(load) => &load.csv,
        Request::AppendStream { csv, .. } => csv,
        _ => return (0, 0),
    };
    (csv.lines().count() as u64 - 1, csv.len() as u64)
}

/// One ingest request over the wire; checks the acknowledged count (and the
/// re-frozen count for appends when `refrozen` is given).
fn ingest_op(
    tally: &mut Tally,
    wire: &mut Wire,
    request: &Request,
    refrozen: Option<u64>,
) -> Result<f64, String> {
    let rows = ingest_size(request).0;
    let t = Instant::now();
    let response = wire.call(request)?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    let ok = match &response {
        Response::Loaded { observations, .. } => *observations == rows,
        Response::Appended {
            observations,
            refrozen: got,
            ..
        } => *observations == rows && refrozen.is_none_or(|want| *got == want),
        _ => false,
    };
    tally.op(ok, || {
        format!("ingest of {rows} rows answered {}", response.encode())
    });
    Ok(us)
}

/// Queries `sels` once each, checking the cache outcome and the answers.
fn query_all(
    tally: &mut Tally,
    wire: &mut Wire,
    sels: &[Selection],
    expected: &[Vec<GroupReply>],
    want_hit: bool,
    what: &str,
) -> Result<(), String> {
    for (sel, want) in sels.iter().zip(expected) {
        let response = wire.call(&sel.request)?;
        let ok = matches!(&response, Response::Query(r)
            if r.cache_hit == want_hit && same_answer(&r.groups, want));
        tally.op(ok, || {
            format!(
                "{what} {} (want cache_hit={want_hit}) answered {}",
                sel.sql,
                response.encode()
            )
        });
    }
    Ok(())
}

/// Lets the appender park the reader between two of its requests while it
/// copies the crash image, so no read overlaps that pause.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    pause: bool,
    parked: bool,
    done: bool,
}

impl Gate {
    /// Reader side, before each request: waits out a pause. Returns the
    /// seconds spent parked.
    fn pass(&self) -> f64 {
        let mut s = self.state.lock().expect("gate lock");
        if !s.pause {
            return 0.0;
        }
        let t = Instant::now();
        s.parked = true;
        self.changed.notify_all();
        while s.pause {
            s = self.changed.wait(s).expect("gate lock");
        }
        s.parked = false;
        t.elapsed().as_secs_f64()
    }

    /// Reader side, after its last request (or on any early exit).
    fn finish(&self) {
        self.state.lock().expect("gate lock").done = true;
        self.changed.notify_all();
    }

    /// Appender side: runs `f` while the reader is parked or finished.
    fn hold<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut s = self.state.lock().expect("gate lock");
        s.pause = true;
        while !(s.parked || s.done) {
            s = self.changed.wait(s).expect("gate lock");
        }
        drop(s);
        let out = f();
        self.state.lock().expect("gate lock").pause = false;
        self.changed.notify_all();
        out
    }
}

/// Marks the reader finished however its thread leaves, so the appender
/// never waits for a reader that is gone.
struct Finished<'a>(&'a Gate);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// One traced request: the client's encode + decode and socket round
/// trip, and the service time the server reported in the reply.
pub struct TracedOp {
    pub sel: usize,
    pub latency_us: f64,
    pub codec_us: f64,
    pub rtt_us: f64,
    pub server_us: f64,
}

/// Per-request figures of a read loop.
#[derive(Default)]
pub struct ReadLoop {
    pub latency_us: Vec<f64>,
    /// Completion time of each request, seconds since the loop started
    /// (time parked at a [`Gate`] left out).
    pub done_s: Vec<f64>,
    /// Latencies of the untraced requests of a traced loop.
    pub untraced_us: Vec<f64>,
    pub traced: Vec<TracedOp>,
}

/// A closed loop of `ops` queries cycling through `order` (indices into
/// `sels`), each checked for `want_hit` and against `expected`. With a
/// tracer, every second whole cycle is traced, so traced and untraced
/// requests see the same mix at nearly the same time. With a gate, the loop
/// waits out the appender's pauses between requests.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    tally: &mut Tally,
    wire: &mut Wire,
    sels: &[Selection],
    expected: &[Vec<GroupReply>],
    order: &[usize],
    ops: usize,
    want_hit: bool,
    mut tracer: Option<&mut Tracer>,
    gate: Option<&Gate>,
) -> Result<ReadLoop, String> {
    let mut out = ReadLoop {
        latency_us: Vec::with_capacity(ops),
        done_s: Vec::with_capacity(ops),
        ..ReadLoop::default()
    };
    let start = Instant::now();
    let mut parked = 0.0;
    for i in 0..ops {
        if let Some(gate) = gate {
            parked += gate.pass();
        }
        let k = order[i % order.len()];
        let request = &sels[k].request;
        let traced = (i / order.len()) % 2 == 1;
        let t = Instant::now();
        let response = match tracer.as_deref_mut().filter(|_| traced) {
            None => {
                let line = request.encode() + "\n";
                Response::decode(wire.roundtrip(&line)?).map_err(|e| e.to_string())?
            }
            Some(tr) => {
                let rid = tr.spans.len() as u64;
                let root = tr.open("client.request", rid, None);
                let (line, enc) = tr.time("protocol.client_encode", rid, Some(root), || {
                    request.encode() + "\n"
                });
                let rt = tr.open("transport.roundtrip", rid, Some(root));
                let reply = wire.roundtrip(&line)?.to_string();
                let rtt_us = tr.close(rt);
                let (decoded, dec) = tr.time("protocol.client_decode", rid, Some(root), || {
                    Response::decode(&reply)
                });
                tr.close(root);
                let decoded = decoded.map_err(|e| e.to_string())?;
                out.traced.push(TracedOp {
                    sel: k,
                    latency_us: 0.0,
                    codec_us: enc + dec,
                    rtt_us,
                    server_us: match &decoded {
                        Response::Query(r) => r.elapsed_us as f64,
                        _ => 0.0,
                    },
                });
                decoded
            }
        };
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        out.latency_us.push(latency_us);
        out.done_s.push(start.elapsed().as_secs_f64() - parked);
        match out.traced.last_mut().filter(|_| traced && tracer.is_some()) {
            Some(op) => op.latency_us = latency_us,
            None => out.untraced_us.push(latency_us),
        }
        let ok = matches!(&response, Response::Query(r)
            if r.cache_hit == want_hit && same_answer(&r.groups, &expected[k]));
        tally.op(ok, || {
            format!(
                "{} (want cache_hit={want_hit}) answered {}",
                sels[k].sql,
                response.encode()
            )
        });
    }
    Ok(out)
}

/// The order a closed loop cycles through `n` distinct queries: one seeded
/// permutation, repeated. With `n` above the LRU capacity every request
/// finds its entry evicted.
fn cycle_order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Figures of one ingest pass: per request, its latency, rows, and
/// completion time (seconds since the first request, pauses excluded).
struct Ingest {
    latency_us: Vec<f64>,
    rows: Vec<f64>,
    done_s: Vec<f64>,
}

/// Sends `batches` over `wire`, checking each acknowledgement. After batch
/// `k`, `pause(k, ..)` runs outside the clock: its time is left out of the
/// completion times.
fn stream(
    tally: &mut Tally,
    wire: &mut Wire,
    batches: &[Request],
    refrozen: Option<u64>,
    mut pause: impl FnMut(usize, &mut Tally, &mut Wire) -> Result<(), String>,
) -> Result<Ingest, String> {
    let mut latency_us = Vec::with_capacity(batches.len());
    let mut rows = Vec::with_capacity(batches.len());
    let mut done_s = Vec::with_capacity(batches.len());
    let mut paused = 0.0;
    let start = Instant::now();
    for (k, request) in batches.iter().enumerate() {
        let first_load = matches!(request, Request::LoadCsv(_));
        latency_us.push(ingest_op(
            tally,
            wire,
            request,
            if first_load { None } else { refrozen },
        )?);
        rows.push(ingest_size(request).0 as f64);
        done_s.push(start.elapsed().as_secs_f64() - paused);
        let t = Instant::now();
        pause(k, tally, wire)?;
        paused += t.elapsed().as_secs_f64();
    }
    Ok(Ingest {
        latency_us,
        rows,
        done_s,
    })
}

/// Queries the cached `probes` right after the crash image was copied: the
/// answers the restarted server must reproduce bit for bit.
fn answers_at_crash(
    tally: &mut Tally,
    wire: &mut Wire,
    probes: &[Selection],
    expected: &[Vec<GroupReply>],
) -> Result<Vec<Vec<GroupReply>>, String> {
    let mut answers = Vec::with_capacity(probes.len());
    for (sel, want) in probes.iter().zip(expected) {
        let response = wire.call(&sel.request)?;
        let ok = matches!(&response, Response::Query(r)
            if r.cache_hit && same_answer(&r.groups, want));
        tally.op(ok, || {
            format!("at crash image {} answered {}", sel.sql, response.encode())
        });
        if let Response::Query(r) = response {
            answers.push(r.groups);
        }
    }
    Ok(answers)
}

/// The `PROBES` cached selections an append stream keeps re-freezing: band
/// ranges of about 250–750 entities (`widths` in bands), marked by a
/// redundant `region >= 0` term so no workload query shares their cache
/// entry.
fn probe_selections(table: &Table, widths: (u32, u32), rng: &mut Rng) -> Vec<Selection> {
    band_selections(table, PROBES, widths.0, widths.1, 0, rng)
        .into_iter()
        .map(Selection::probe)
        .collect()
}

/// Chunk rates and chunk p50s of operations with `weight` units each,
/// completing at `done_s`.
fn chunks(latency_us: &[f64], weight: &[f64], done_s: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = latency_us.len();
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    for c in 0..CHUNKS {
        let (lo, hi) = (c * n / CHUNKS, (c + 1) * n / CHUNKS);
        let started = if lo == 0 { 0.0 } else { done_s[lo - 1] };
        rates.push(weight[lo..hi].iter().sum::<f64>() / (done_s[hi - 1] - started));
        p50s.push(median(&mut latency_us[lo..hi].to_vec()));
    }
    (rates, p50s)
}

/// Counters one segment leaves in `stats` and on disk. Every segment does
/// the same work from the same inputs, so these must be equal in all of
/// them.
#[derive(Debug, PartialEq)]
struct Counts {
    checkpoints: u64,
    fsyncs: u64,
    wal_bytes: u64,
    snapshots_refrozen: u64,
    fallback_rebuilds: u64,
    cache_hits: u64,
    cache_misses: u64,
    disk_bytes: u64,
}

/// What the segments of one run collect.
#[derive(Default)]
struct Segments {
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Reads as measured (untraced).
    reads: Vec<ReadLoop>,
    ingests: Vec<Ingest>,
    hits: u64,
    misses: u64,
    frames: u64,
    queue_wait_us: u64,
    /// Per segment: mean traced minus mean untraced request latency.
    overhead_us: Vec<f64>,
    /// Per segment, its counters; per restart, the WAL records replayed.
    counts: Vec<Counts>,
    replayed: Vec<u64>,
    /// The last segment's final stats and data-directory size.
    last: Option<(StatsReply, u64)>,
}

impl Segments {
    fn cache_delta(&mut self, before: &StatsReply, after: &StatsReply) {
        self.hits += after.cache.hits - before.cache.hits;
        self.misses += after.cache.misses - before.cache.misses;
        self.frames += after.conn.frames_in - before.conn.frames_in;
        self.queue_wait_us += after.conn.queue_wait_us_total - before.conn.queue_wait_us_total;
    }

    /// Records the end of a segment's measured work: the server's peak RSS,
    /// its final `stats` and the size of its data directory.
    fn end(&mut self, server: &Server, stats: StatsReply, dir: &Path) -> Result<(), String> {
        self.rss_mb.push(server.peak_rss_mb()?);
        let disk_bytes = dir_bytes(dir)?;
        self.counts.push(Counts {
            checkpoints: stats.storage.checkpoints,
            fsyncs: stats.storage.fsyncs,
            wal_bytes: stats.storage.wal_bytes,
            snapshots_refrozen: stats.incremental.snapshots_refrozen,
            fallback_rebuilds: stats.incremental.fallback_rebuilds,
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            disk_bytes,
        });
        self.last = Some((stats, disk_bytes));
        Ok(())
    }

    /// The same-seed repeatability check: every segment's counters, and
    /// every restart's replayed records, must equal the first one's.
    fn check_repeatable(&self, run: &mut Run) {
        if let Some(i) = self.counts.iter().position(|c| *c != self.counts[0]) {
            eprintln!(
                "perfbench: segment 0 left {:?}, segment {i} left {:?}",
                self.counts[0], self.counts[i]
            );
            run.guard(false, "counters differ between segments of the same work");
        }
        run.guard(
            self.replayed.iter().all(|&r| r == self.replayed[0]),
            "restarts on equal crash images replayed different record counts",
        );
    }

    /// Sets every end-to-end metric plus the stats-derived layer figures.
    fn report(&mut self, run: &mut Run, user_bytes: u64) {
        self.check_repeatable(run);
        run.set("setup_s", median(&mut self.setup_s));
        run.set("recovery_s", mean(&self.recovery_s));
        // A process's peak depends on which worker's allocator arena served
        // the big requests, so single peaks are bimodal: average them.
        run.set("peak_rss_mb", mean(&self.rss_mb));

        let (mut rates, mut p50s, mut all) = (Vec::new(), Vec::new(), Vec::new());
        for r in &self.reads {
            let (rate, p50) = chunks(&r.latency_us, &vec![1.0; r.latency_us.len()], &r.done_s);
            rates.extend(rate);
            p50s.extend(p50);
            all.extend_from_slice(&r.latency_us);
        }
        run.set("queries_per_s", mean(&rates));
        run.set("query_p50_us", mean(&p50s));
        run.set("query_p99_us", windowed_p99(&all));

        let (mut rates, mut p50s, mut all) = (Vec::new(), Vec::new(), Vec::new());
        for i in &self.ingests {
            let (rate, p50) = chunks(&i.latency_us, &i.rows, &i.done_s);
            rates.extend(rate);
            p50s.extend(p50);
            all.extend_from_slice(&i.latency_us);
        }
        run.set("appended_rows_per_s", mean(&rates));
        run.set("append_p50_us", mean(&p50s));
        run.set("append_p99_us", windowed_p99(&all));

        run.set(
            "query.cache_hit_ratio",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
        );
        run.set(
            "conn.queue_wait_us",
            self.queue_wait_us as f64 / self.frames.max(1) as f64,
        );
        if !self.overhead_us.is_empty() {
            run.set("trace.overhead_us", median(&mut self.overhead_us));
        }
        let (stats, disk) = self.last.as_ref().expect("at least one segment");
        let refrozen = stats.incremental.snapshots_refrozen;
        let fallback = stats.incremental.fallback_rebuilds;
        run.set("disk_bytes_per_user_byte", *disk as f64 / user_bytes as f64);
        run.set(
            "store.wal_bytes_per_user_byte",
            stats.storage.wal_bytes as f64 / user_bytes as f64,
        );
        run.set("store.fsyncs", stats.storage.fsyncs as f64);
        run.set("store.checkpoints", stats.storage.checkpoints as f64);
        run.set("incremental.snapshots_refrozen", refrozen as f64);
        run.set(
            "incremental.refreeze_ratio",
            if refrozen + fallback == 0 {
                0.0
            } else {
                refrozen as f64 / (refrozen + fallback) as f64
            },
        );
        run.set("query.projection_builds", stats.projection.builds as f64);
    }
}

/// Reads of one segment, kept for the end-to-end figures; with a tracer
/// the per-request tracing overhead is recorded too.
#[allow(clippy::too_many_arguments)]
fn segment_reads(
    run: &mut Run,
    seg: &mut Segments,
    wire: &mut Wire,
    sels: &[Selection],
    expected: &[Vec<GroupReply>],
    order: &[usize],
    ops: usize,
    want_hit: bool,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let reads = read_loop(
        &mut run.ops,
        wire,
        sels,
        expected,
        order,
        ops,
        want_hit,
        tracer,
        None,
    )?;
    if !reads.traced.is_empty() {
        let traced = reads.traced.iter().map(|op| op.latency_us).sum::<f64>();
        let untraced = reads.untraced_us.iter().sum::<f64>();
        seg.overhead_us
            .push(traced / reads.traced.len() as f64 - untraced / reads.untraced_us.len() as f64);
    }
    seg.reads.push(reads);
    Ok(())
}

/// Restarts [`RECOVERIES`] times on copies of the crash image, each timed
/// from spawn to the first answered query; every `probes` answer must equal
/// `expected`.
fn recover(
    run: &mut Run,
    seg: &mut Segments,
    crash: &Path,
    probes: &[Selection],
    expected: &[Vec<GroupReply>],
) -> Result<(), String> {
    for _ in 0..RECOVERIES {
        let dir = run.work.join("recover");
        copy_dir(crash, &dir)?;
        let t = Instant::now();
        let server = Server::start(&dir)?;
        let mut wire = server.connect()?;
        let mut answers = Vec::with_capacity(probes.len());
        for sel in probes {
            answers.push(wire.call(&sel.request)?);
            if answers.len() == 1 {
                seg.recovery_s.push(t.elapsed().as_secs_f64());
            }
        }
        for ((sel, want), response) in probes.iter().zip(expected).zip(&answers) {
            let ok = matches!(response, Response::Query(q) if same_answer(&q.groups, want));
            run.ops.op(ok, || {
                format!("post-recovery {} answered {}", sel.sql, response.encode())
            });
        }
        let replayed = wire.stats()?.storage.replayed_records;
        run.guard(replayed > 0, "recovery replayed zero WAL records");
        run.set("store.replayed_records", replayed as f64);
        seg.replayed.push(replayed);
        server.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// A fresh, empty data directory for segment `i`.
fn segment_dir(run: &Run, i: usize) -> Result<PathBuf, String> {
    let dir = run.work.join(format!("data-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&run.work).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// p99 of the later half of each loop minus p99 of its earlier half,
/// median over loops: the read stall of a workload without a writer, near
/// 0 unless something in the read path itself stalls periodically.
fn half_stall_us(reads: &[ReadLoop]) -> f64 {
    let (mut early, mut late) = (Vec::new(), Vec::new());
    for r in reads {
        let (a, b) = r.latency_us.split_at(r.latency_us.len() / 2);
        early.push(quantile(&mut a.to_vec(), 0.99));
        late.push(quantile(&mut b.to_vec(), 0.99));
    }
    median(&mut late) - median(&mut early)
}

#[derive(Clone, Copy)]
pub enum ReadKind {
    Hot,
    Cold,
}

/// `hot_read` and `cold_read`.
pub fn read(run: &mut Run, kind: ReadKind, seconds: u64) -> Result<(), String> {
    // ---- inputs (before any clock) ----
    let table = Table::generate("obs", READ_SHAPE, run.seed);
    let loads = table.chunked_load(table.obs.len(), READ_CHUNK_ROWS);
    let user_bytes: u64 = loads.iter().map(|r| ingest_size(r).1).sum();
    let mut rng = Rng::new(run.seed ^ 0x5E1E_C700);
    let seconds = seconds as usize;
    let (sels, segments, ops, want_hit) = match kind {
        ReadKind::Hot => (
            band_selections(&table, HOT_SET, 5, 40, 4, &mut rng),
            HOT_SEGMENTS,
            // Whole cycles in each traced and untraced half.
            (HOT_OPS_PER_SECOND * seconds).div_ceil(2 * HOT_SET) * 2 * HOT_SET,
            true,
        ),
        ReadKind::Cold => (
            band_selections(&table, COLD_SET, 10, 120, 0, &mut rng),
            COLD_SEGMENTS,
            2 * COLD_SET * seconds.div_ceil(20),
            false,
        ),
    };
    let order = cycle_order(sels.len(), &mut rng);
    // Cold set-up warms the columnar projection with a query outside the set
    // (narrower than any generated selection).
    let warm = match kind {
        ReadKind::Hot => sels.clone(),
        ReadKind::Cold => vec![Selection::band_range(&table, 0, 4, false)],
    };
    // After a restart, the narrowest queries are asked first.
    let probes = &sels[..PROBES];

    // ---- twin: the same requests; answers fetched in loop order ----
    let mut twin = Twin::new();
    for load in &loads {
        twin.ingest(load)?;
    }
    let expected_warm = twin.answers(&warm)?;
    let mut expected = vec![Vec::new(); sels.len()];
    for &k in &order {
        expected[k] = twin.answer(&sels[k])?;
    }
    run.set("sum_rel_error", mean_rel_error(&sels, &expected));

    // ---- segments ----
    let crash = run.work.join("crash");
    let mut tracer = run.trace.then(Tracer::new);
    let mut seg = Segments::default();
    for i in 0..segments {
        let dir = segment_dir(run, i)?;
        let t = Instant::now();
        let server = Server::start(&dir)?;
        let mut wire = server.connect()?;
        // No selection is cached yet, so no append re-freezes anything.
        let load = stream(&mut run.ops, &mut wire, &loads, Some(0), |_, _, _| Ok(()))?;
        query_all(
            &mut run.ops,
            &mut wire,
            &warm,
            &expected_warm,
            false,
            "warm-up",
        )?;
        seg.setup_s.push(t.elapsed().as_secs_f64());
        seg.ingests.push(load);

        let before = wire.stats()?;
        segment_reads(
            run,
            &mut seg,
            &mut wire,
            &sels,
            &expected,
            &order,
            ops,
            want_hit,
            tracer.as_mut(),
        )?;
        let after = wire.stats()?;
        seg.cache_delta(&before, &after);
        seg.end(&server, after, &dir)?;
        // The directory the killed server leaves is the crash image: the
        // snapshots of its last checkpoint and the WAL records after it.
        server.kill();
        let _ = std::fs::remove_dir_all(&crash);
        std::fs::rename(&dir, &crash).map_err(|e| e.to_string())?;
        recover(run, &mut seg, &crash, probes, &expected[..PROBES])?;
    }
    match kind {
        ReadKind::Hot => run.guard(seg.misses == 0, "hot_read had a cache miss"),
        ReadKind::Cold => run.guard(seg.hits == 0, "cold_read had a cache hit"),
    }
    run.set("service.read_stall_p99_us", half_stall_us(&seg.reads));
    seg.report(run, user_bytes);

    // ---- traced run: in-process layer replays ----
    if let Some(mut tr) = tracer {
        let last = seg.reads.last().expect("at least one segment");
        layers::service_replay(run, &mut tr, &mut twin, &sels, &last.traced);
        let mut lt = layers::LayerTwin::new(&run.work.join("twin-store"))?;
        // The server re-freezes nothing during this load. The layer twin
        // caches the first ungrouped queries after a tenth of it, so the
        // re-freeze layer is timed on this table too.
        let cached: Vec<Selection> = sels
            .iter()
            .filter(|s| !s.grouped)
            .take(PROBES)
            .cloned()
            .collect();
        let tenth = loads.len() / 10;
        lt.replay_ingest(&mut tr, &loads[..tenth], &[])?;
        lt.replay_ingest(&mut tr, &loads[tenth..], &cached)?;
        lt.replay_selections(run, &mut tr, &sels)?;
        lt.replay_recovery(run, &mut tr, &crash)?;
        lt.report(run);
        layers::finish(run, &tr)?;
    }
    Ok(())
}

/// `ingest_read` (fixed work, whatever `--seconds` says: the stream must
/// span three checkpoints).
pub fn ingest(run: &mut Run) -> Result<(), String> {
    // ---- inputs ----
    let b = Table::generate("b", B_SHAPE, run.seed ^ 0xB);
    let a = Table::generate("a", A_SHAPE, run.seed ^ 0xA);
    let mut loads = b.chunked_load(b.obs.len(), SETUP_CHUNK_ROWS);
    loads.extend(a.chunked_load(A_BASE_ROWS, SETUP_CHUNK_ROWS));
    let batches = a.append_requests(A_BASE_ROWS, STREAM_BATCH_ROWS, A_BATCHES);
    let user_bytes: u64 = loads.iter().chain(&batches).map(|r| ingest_size(r).1).sum();
    let mut rng = Rng::new(run.seed ^ 0x1A6E_5700);
    let a_sels = probe_selections(&a, (10, 30), &mut rng);
    let b_sels = band_selections(&b, B_SET, 5, 40, 4, &mut rng);
    let b_order = cycle_order(b_sels.len(), &mut rng);

    // ---- twin: B, A's base, then A's stream up to the crash image ----
    let mut twin = Twin::new();
    for load in &loads {
        twin.ingest(load)?;
    }
    let expected_a_base = twin.answers(&a_sels)?;
    let expected_b = twin.answers(&b_sels)?;
    for batch in &batches[..=A_CRASH_AT] {
        twin.ingest(batch)?;
    }
    let expected_crash = twin.answers(&a_sels)?;
    run.set("sum_rel_error", mean_rel_error(&b_sels, &expected_b));

    // ---- segments ----
    let crash = run.work.join("crash");
    let mut tracer = run.trace.then(Tracer::new);
    let mut seg = Segments::default();
    let (mut idle, mut idle_p99, mut during_p99) = (None, Vec::new(), Vec::new());
    for i in 0..INGEST_SEGMENTS {
        let dir = segment_dir(run, i)?;
        let t = Instant::now();
        let server = Server::start(&dir)?;
        let mut wire_a = server.connect()?;
        for load in &loads {
            ingest_op(&mut run.ops, &mut wire_a, load, Some(0))?;
        }
        query_all(
            &mut run.ops,
            &mut wire_a,
            &a_sels,
            &expected_a_base,
            false,
            "warm-up",
        )?;
        query_all(
            &mut run.ops,
            &mut wire_a,
            &b_sels,
            &expected_b,
            false,
            "warm-up",
        )?;
        seg.setup_s.push(t.elapsed().as_secs_f64());

        // B alone first: the idle reference for the read stall.
        let mut wire_b = server.connect()?;
        segment_reads(
            run,
            &mut seg,
            &mut wire_b,
            &b_sels,
            &expected_b,
            &b_order,
            B_IDLE_OPS,
            true,
            tracer.as_mut(),
        )?;
        let idle_reads = seg.reads.pop().expect("idle reads");
        idle_p99.push(quantile(&mut idle_reads.latency_us.clone(), 0.99));
        idle = Some(idle_reads);

        let before = wire_a.stats()?;
        let (mut tally_a, mut tally_b) = (Tally::default(), Tally::default());
        let mut crash_answers = Vec::new();
        let barrier = std::sync::Barrier::new(2);
        let gate = Gate::default();
        let ((ingest, a_end), (during, b_end)) = std::thread::scope(|scope| {
            let appender = scope.spawn(|| {
                barrier.wait();
                // B is parked while the crash image is copied and queried.
                let ingest = stream(
                    &mut tally_a,
                    &mut wire_a,
                    &batches,
                    Some(PROBES as u64),
                    |k, tally, wire| {
                        if k != A_CRASH_AT {
                            return Ok(());
                        }
                        gate.hold(|| {
                            copy_dir(&dir, &crash)?;
                            crash_answers = answers_at_crash(tally, wire, &a_sels, &expected_crash)?;
                            Ok(())
                        })
                    },
                );
                (ingest, Instant::now())
            });
            let reader = scope.spawn(|| {
                let _finished = Finished(&gate);
                barrier.wait();
                let during = read_loop(
                    &mut tally_b,
                    &mut wire_b,
                    &b_sels,
                    &expected_b,
                    &b_order,
                    B_STREAM_OPS,
                    true,
                    None,
                    Some(&gate),
                );
                (during, Instant::now())
            });
            (
                appender.join().expect("appender thread"),
                reader.join().expect("reader thread"),
            )
        });
        let (ingest, during) = (ingest?, during?);
        run.guard(
            b_end <= a_end,
            "ingest_read reader finished after the append stream",
        );
        run.ops.merge(tally_a);
        run.ops.merge(tally_b);
        let after = wire_a.stats()?;
        seg.cache_delta(&before, &after);
        run.guard(
            after.storage.checkpoints - before.storage.checkpoints >= 3,
            "ingest_read stream took fewer than 3 checkpoints",
        );
        // Ungrouped cached selections stay warm across every append.
        for sel in &a_sels {
            let response = wire_a.call(&sel.request)?;
            let ok = matches!(&response, Response::Query(r) if r.cache_hit);
            run.ops.op(ok, || {
                format!("post-stream {} answered {}", sel.sql, response.encode())
            });
        }
        during_p99.push(quantile(&mut during.latency_us.clone(), 0.99));
        seg.reads.push(during);
        seg.ingests.push(ingest);
        seg.end(&server, after, &dir)?;
        server.shutdown()?;
        let _ = std::fs::remove_dir_all(&dir);
        recover(run, &mut seg, &crash, &a_sels, &crash_answers)?;
    }
    run.guard(seg.misses == 0, "ingest_read reader had a cache miss");
    run.set(
        "service.read_stall_p99_us",
        median(&mut during_p99) - median(&mut idle_p99),
    );
    seg.report(run, user_bytes);

    if let Some(mut tr) = tracer {
        let idle = idle.expect("at least one segment");
        layers::service_replay(run, &mut tr, &mut twin, &b_sels, &idle.traced);
        let mut lt = layers::LayerTwin::new(&run.work.join("twin-store"))?;
        lt.replay_ingest(&mut tr, &loads, &[])?;
        // Per-layer ingest figures cover the stream only.
        lt.clear_figures();
        lt.replay_ingest(&mut tr, &batches, &a_sels)?;
        lt.replay_selections(run, &mut tr, &b_sels)?;
        lt.replay_recovery(run, &mut tr, &crash)?;
        lt.report(run);
        layers::finish(run, &tr)?;
    }
    Ok(())
}
