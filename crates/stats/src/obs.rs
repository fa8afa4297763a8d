//! Zero-dependency observability: per-request trace spans and mergeable
//! log-bucketed latency histograms (re-exported as `uu_core::obs`).
//!
//! Two instruments share one API surface, [`span`]:
//!
//! * **Histograms, always on.** Every [`SpanGuard`] drop records the span's
//!   duration into a lock-free per-thread shard keyed by `(verb, stage)`.
//!   Shards are `[AtomicU64]` bucket arrays registered in a global list and
//!   merged on read ([`snapshot`]), so the record path is two relaxed
//!   `fetch_add`s plus a `fetch_min`/`fetch_max` — no locks, no allocation.
//!   Buckets are powers of √2 (64 buckets: 63 finite upper bounds from
//!   250 ns to ≈ 9 min, plus overflow), which keeps quantile error below
//!   ~20 % across nine decades.
//! * **Traces, off by default.** When a trace is installed on the current
//!   thread ([`trace_begin`]), each guard additionally appends a
//!   [`TraceSpan`] — stage, optional label, parent index, start offset and
//!   duration — to a per-request arena, producing the span tree the wire
//!   protocol returns for `"trace":true` queries. When no trace is
//!   installed the only extra cost over the histogram path is one
//!   thread-local read.
//!
//! Instrumentation lives at the bottom of the dependency graph (this crate)
//! so the statistics layers, `uu-core`, `uu-query` and `uu-server` can all
//! open spans. A request runs start to finish on one server worker thread,
//! so every nested span lands in its trace; a span recorded on any other
//! thread (one a library caller spawned itself) degrades gracefully to a
//! histogram-only record.
//!
//! # The counter registry
//!
//! Every numeric counter of the server's `stats` reply is declared once,
//! at the bottom of this module, in a `counters!` block: a field name, its
//! doc comment (the Prometheus help text) and its [`CounterKind`],
//! `Counter` (only grows) or `Gauge`. Each block yields a plain snapshot struct of `u64`s
//! (e.g. [`CacheMetrics`]), its live twin of `AtomicU64`s (e.g.
//! [`CacheCounters`], with a `snapshot()` method) and the [`CounterBlock`]
//! field table that the wire codec and [`render_counters`] both walk.

use std::cell::{Cell as StdCell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of histogram buckets: 63 finite √2-spaced upper bounds plus one
/// overflow bucket.
pub const BUCKETS: usize = 64;

/// Smallest finite bucket upper bound, in nanoseconds.
const BASE_NS: f64 = 250.0;

/// The named pipeline stages a span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Time a request frame spent in the reactor's work queue before a
    /// worker picked it up.
    QueueWait,
    /// SQL parsing.
    Parse,
    /// Profile-cache lookup (hit or miss).
    CacheProbe,
    /// Vectorized selection kernels over a table's columns.
    SelectionKernel,
    /// Filtering a presorted index instead of re-sorting.
    PresortedFilter,
    /// Sorting observation values inside a profile.
    ValueSort,
    /// The paper's §3.3 Algorithm 1 dynamic bucket partition.
    BucketPartition,
    /// The species-richness estimator ladder (Chao92 and baselines).
    SpeciesLadder,
    /// Running the requested estimator panel over frozen profiles.
    EstimatorFanout,
    /// Freezing a selection into profile snapshots (cold path).
    Freeze,
    /// Incrementally re-freezing cached snapshots after an append.
    Refreeze,
    /// Building the wire reply from estimator results.
    Serialize,
    /// The whole request, decode to encode.
    Request,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 13] = [
        Stage::QueueWait,
        Stage::Parse,
        Stage::CacheProbe,
        Stage::SelectionKernel,
        Stage::PresortedFilter,
        Stage::ValueSort,
        Stage::BucketPartition,
        Stage::SpeciesLadder,
        Stage::EstimatorFanout,
        Stage::Freeze,
        Stage::Refreeze,
        Stage::Serialize,
        Stage::Request,
    ];

    /// Stable snake_case name used on the wire and in metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::CacheProbe => "cache_probe",
            Stage::SelectionKernel => "selection_kernel",
            Stage::PresortedFilter => "presorted_filter",
            Stage::ValueSort => "value_sort",
            Stage::BucketPartition => "bucket_partition",
            Stage::SpeciesLadder => "species_ladder",
            Stage::EstimatorFanout => "estimator_fanout",
            Stage::Freeze => "freeze",
            Stage::Refreeze => "refreeze",
            Stage::Serialize => "serialize",
            Stage::Request => "request",
        }
    }

    /// Inverse of [`Stage::as_str`].
    pub fn parse_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.as_str() == name)
    }
}

/// The protocol verb a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Verb {
    /// Ad-hoc `query`.
    Query,
    /// `execute_prepared` inside a named session.
    Prepared,
    /// Incremental `append_stream`.
    Append,
    /// Bulk `load_csv`.
    Load,
    /// Cache `warm`.
    Warm,
    /// Everything else (ping, stats, session management, …).
    #[default]
    Other,
}

impl Verb {
    /// Every verb, in display order.
    pub const ALL: [Verb; 6] = [
        Verb::Query,
        Verb::Prepared,
        Verb::Append,
        Verb::Load,
        Verb::Warm,
        Verb::Other,
    ];

    /// Stable wire-protocol name used in metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Prepared => "execute_prepared",
            Verb::Append => "append_stream",
            Verb::Load => "load_csv",
            Verb::Warm => "warm",
            Verb::Other => "other",
        }
    }

    /// Inverse of [`Verb::as_str`].
    pub fn parse_name(name: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.as_str() == name)
    }
}

const STAGES: usize = Stage::ALL.len();
const VERBS: usize = Verb::ALL.len();

/// Finite bucket upper bounds in nanoseconds: `round(250 · 2^(i/2))`.
pub fn bucket_bounds_ns() -> &'static [u64; BUCKETS - 1] {
    static BOUNDS: OnceLock<[u64; BUCKETS - 1]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [0u64; BUCKETS - 1];
        for (i, slot) in bounds.iter_mut().enumerate() {
            *slot = (BASE_NS * 2f64.powf(i as f64 / 2.0)).round() as u64;
        }
        bounds
    })
}

/// The bucket index (`0..BUCKETS`) a duration of `ns` nanoseconds falls in:
/// the first bucket whose upper bound is ≥ `ns`, or the overflow bucket.
pub fn bucket_index(ns: u64) -> usize {
    bucket_bounds_ns().partition_point(|&bound| bound < ns)
}

/// One `(verb, stage)` histogram cell: bucket counts plus running
/// count/sum/min/max, all relaxed atomics.
struct HistCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// One thread's worth of `(verb, stage)` histogram cells.
///
/// The global record path goes through a thread-local shard registered in a
/// process-wide list ([`snapshot`] merges them), but shards can also be
/// built standalone — the merge property tests construct several manual
/// shards and compare against a single-shard oracle.
pub struct Shard {
    cells: Vec<HistCell>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard::new()
    }
}

impl Shard {
    /// A shard with every cell empty.
    pub fn new() -> Shard {
        Shard {
            cells: (0..STAGES * VERBS).map(|_| HistCell::new()).collect(),
        }
    }

    fn cell(&self, verb: Verb, stage: Stage) -> &HistCell {
        let verb_idx = Verb::ALL.iter().position(|v| *v == verb).unwrap_or(0);
        let stage_idx = Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0);
        &self.cells[verb_idx * STAGES + stage_idx]
    }

    /// Records one duration under `(verb, stage)`.
    pub fn record(&self, verb: Verb, stage: Stage, duration: Duration) {
        self.record_ns(verb, stage, saturating_ns(duration));
    }

    /// Records one duration, given directly in nanoseconds.
    pub fn record_ns(&self, verb: Verb, stage: Stage, ns: u64) {
        self.cell(verb, stage).record_ns(ns);
    }

    /// A point-in-time copy of one `(verb, stage)` cell.
    pub fn snapshot_cell(&self, verb: Verb, stage: Stage) -> HistogramSnapshot {
        self.cell(verb, stage).snapshot()
    }
}

fn saturating_ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// A point-in-time, mergeable copy of one histogram cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_bounds_ns`]; the last bucket is
    /// overflow).
    pub buckets: [u64; BUCKETS],
    /// Total number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Smallest recorded duration; `u64::MAX` when empty.
    pub min_ns: u64,
    /// Largest recorded duration; `0` when empty.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds another snapshot into this one. Bucket counts, counts and sums
    /// add; min/max combine exactly, so merging k shards reproduces the
    /// single-shard result bit for bit.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        // Wrapping, to match the wrapping `fetch_add` on the record path:
        // wrapping addition is associative, so merging per-shard sums is bit
        // for bit the sum a single shard would have accumulated.
        self.sum_ns = self.sum_ns.wrapping_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, estimated as the
    /// upper bound of the bucket where the cumulative count crosses
    /// `q·count`, clamped to the observed `[min, max]` range. Returns 0 for
    /// an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                let bound = bucket_bounds_ns()
                    .get(i)
                    .copied()
                    .unwrap_or(self.max_ns.max(1));
                return bound.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean duration in nanoseconds; 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One `(verb, stage)` histogram in a merged [`snapshot`].
#[derive(Debug, Clone)]
pub struct MetricsEntry {
    /// The protocol verb.
    pub verb: Verb,
    /// The pipeline stage.
    pub stage: Stage,
    /// The merged histogram.
    pub hist: HistogramSnapshot,
}

/// A merged, point-in-time view of every registered shard.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Non-empty `(verb, stage)` histograms in `Verb::ALL` × `Stage::ALL`
    /// order.
    pub entries: Vec<MetricsEntry>,
}

fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ObsCtx {
    shard: Arc<Shard>,
    verb: StdCell<Verb>,
    trace: RefCell<Option<TraceBuf>>,
}

impl ObsCtx {
    fn new() -> ObsCtx {
        let shard = Arc::new(Shard::new());
        registry()
            .lock()
            .expect("obs registry poisoned")
            .push(Arc::clone(&shard));
        ObsCtx {
            shard,
            verb: StdCell::new(Verb::Other),
            trace: RefCell::new(None),
        }
    }
}

thread_local! {
    static CTX: ObsCtx = ObsCtx::new();
}

/// Merges every registered per-thread shard into one snapshot, skipping
/// empty cells.
pub fn snapshot() -> MetricsSnapshot {
    let shards: Vec<Arc<Shard>> = registry()
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut entries = Vec::new();
    for verb in Verb::ALL {
        for stage in Stage::ALL {
            let mut merged = HistogramSnapshot::default();
            for shard in &shards {
                merged.merge(&shard.snapshot_cell(verb, stage));
            }
            if merged.count > 0 {
                entries.push(MetricsEntry {
                    verb,
                    stage,
                    hist: merged,
                });
            }
        }
    }
    MetricsSnapshot { entries }
}

/// Records one duration under `(verb, stage)` into the current thread's
/// shard, without opening a span (used for externally-measured durations
/// such as the reactor queue wait).
pub fn record(verb: Verb, stage: Stage, duration: Duration) {
    CTX.with(|ctx| ctx.shard.record(verb, stage, duration));
}

/// Scopes the current thread's verb attribution; restores the previous verb
/// on drop.
pub struct VerbScope {
    prev: Verb,
}

/// Attributes subsequent spans on this thread to `verb` until the returned
/// guard drops.
pub fn verb_scope(verb: Verb) -> VerbScope {
    let prev = CTX.with(|ctx| ctx.verb.replace(verb));
    VerbScope { prev }
}

/// The verb currently attributed on this thread.
pub fn current_verb() -> Verb {
    CTX.with(|ctx| ctx.verb.get())
}

impl Drop for VerbScope {
    fn drop(&mut self) {
        CTX.with(|ctx| ctx.verb.set(self.prev));
    }
}

/// One node of a captured span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The stage this span timed.
    pub stage: Stage,
    /// Optional fine-grained label (e.g. the estimator name inside the
    /// fan-out).
    pub label: Option<String>,
    /// Index of the enclosing span in [`Trace::spans`], `None` for roots.
    pub parent: Option<usize>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// A captured per-request span tree, in span-open order (parents before
/// children).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The spans; `parent` indices point into this vector.
    pub spans: Vec<TraceSpan>,
}

struct TraceBuf {
    epoch: Instant,
    spans: Vec<TraceSpan>,
    stack: Vec<usize>,
}

/// Installs a trace arena on the current thread. Returns `false` (leaving
/// the existing trace untouched) if one is already active.
pub fn trace_begin() -> bool {
    CTX.with(|ctx| {
        let mut trace = ctx.trace.borrow_mut();
        if trace.is_some() {
            return false;
        }
        *trace = Some(TraceBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(32),
            stack: Vec::with_capacity(8),
        });
        true
    })
}

/// Removes the current thread's trace arena and returns the captured tree,
/// if one was installed.
pub fn trace_take() -> Option<Trace> {
    CTX.with(|ctx| {
        ctx.trace
            .borrow_mut()
            .take()
            .map(|buf| Trace { spans: buf.spans })
    })
}

/// Whether a trace arena is installed on the current thread.
pub fn trace_active() -> bool {
    CTX.with(|ctx| ctx.trace.borrow().is_some())
}

/// Appends an already-measured span (e.g. the reactor queue wait, measured
/// before the trace started) as a root node of the active trace, and
/// records it in the histograms. No-op on the trace side when tracing is
/// off.
pub fn trace_push_complete(stage: Stage, duration: Duration) {
    CTX.with(|ctx| {
        ctx.shard.record(ctx.verb.get(), stage, duration);
        if let Some(buf) = ctx.trace.borrow_mut().as_mut() {
            buf.spans.push(TraceSpan {
                stage,
                label: None,
                parent: None,
                start_ns: 0,
                dur_ns: saturating_ns(duration),
            });
        }
    });
}

/// Times a stage from construction to drop; see [`span`].
pub struct SpanGuard {
    stage: Stage,
    start: Instant,
    trace_idx: Option<usize>,
    histogram: bool,
}

/// Opens a span for `stage` on the current thread. The duration is recorded
/// into the `(current verb, stage)` histogram when the guard drops, and
/// into the active trace (if any) as a child of the innermost open span.
pub fn span(stage: Stage) -> SpanGuard {
    span_inner(stage, None, true)
}

/// Like [`span`], with a per-span label kept only in traces (the label is
/// not a histogram dimension). The label is materialized only when a trace
/// is active, so the disabled path never allocates.
pub fn span_labeled(stage: Stage, label: &str) -> SpanGuard {
    span_inner(stage, Some(label), true)
}

/// A span that appears in the active trace but skips the histograms — for
/// fine-grained children (e.g. one span per estimator inside the fan-out)
/// whose enclosing stage span already records the aggregate duration. When
/// tracing is off this is a no-op guard.
pub fn span_trace_only(stage: Stage, label: &str) -> SpanGuard {
    span_inner(stage, Some(label), false)
}

fn span_inner(stage: Stage, label: Option<&str>, histogram: bool) -> SpanGuard {
    let start = Instant::now();
    let trace_idx = CTX.with(|ctx| {
        let mut trace = ctx.trace.borrow_mut();
        let buf = trace.as_mut()?;
        let idx = buf.spans.len();
        let parent = buf.stack.last().copied();
        let start_ns = saturating_ns(start.duration_since(buf.epoch));
        buf.spans.push(TraceSpan {
            stage,
            label: label.map(str::to_string),
            parent,
            start_ns,
            dur_ns: 0,
        });
        buf.stack.push(idx);
        Some(idx)
    });
    SpanGuard {
        stage,
        start,
        trace_idx,
        histogram,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.histogram && self.trace_idx.is_none() {
            return;
        }
        let ns = saturating_ns(self.start.elapsed());
        let trace_idx = self.trace_idx;
        let stage = self.stage;
        let histogram = self.histogram;
        CTX.with(|ctx| {
            if histogram {
                ctx.shard.record_ns(ctx.verb.get(), stage, ns);
            }
            if let Some(idx) = trace_idx {
                if let Some(buf) = ctx.trace.borrow_mut().as_mut() {
                    if let Some(span) = buf.spans.get_mut(idx) {
                        span.dur_ns = ns;
                    }
                    if buf.stack.last() == Some(&idx) {
                        buf.stack.pop();
                    }
                }
            }
        });
    }
}

/// Renders a merged snapshot as Prometheus text exposition format
/// (one `histogram` family, `uu_stage_duration_seconds`, labeled by verb
/// and stage). Bucket `le` bounds are in seconds; counts are cumulative.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(
        "# HELP uu_stage_duration_seconds Time spent per pipeline stage, by protocol verb.\n",
    );
    out.push_str("# TYPE uu_stage_duration_seconds histogram\n");
    for entry in &snapshot.entries {
        let verb = entry.verb.as_str();
        let stage = entry.stage.as_str();
        let mut cumulative = 0u64;
        for (i, &n) in entry.hist.buckets.iter().enumerate() {
            cumulative += n;
            // Only materialize boundary lines with data at or below them,
            // plus the first boundary, to keep the exposition compact while
            // still ending every series with an explicit +Inf sample.
            if let Some(&bound) = bucket_bounds_ns().get(i) {
                if cumulative > 0 || i == 0 {
                    let _ = writeln!(
                        out,
                        "uu_stage_duration_seconds_bucket{{verb=\"{verb}\",stage=\"{stage}\",le=\"{}\"}} {cumulative}",
                        format_seconds(bound)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "uu_stage_duration_seconds_bucket{{verb=\"{verb}\",stage=\"{stage}\",le=\"+Inf\"}} {}",
            entry.hist.count
        );
        let _ = writeln!(
            out,
            "uu_stage_duration_seconds_sum{{verb=\"{verb}\",stage=\"{stage}\"}} {}",
            entry.hist.sum_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "uu_stage_duration_seconds_count{{verb=\"{verb}\",stage=\"{stage}\"}} {}",
            entry.hist.count
        );
    }
    out
}

/// Formats a nanosecond bound as seconds with enough digits to stay unique
/// and strictly increasing across the bucket ladder.
fn format_seconds(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    // Shortest round-trip float formatting keeps 250ns = 2.5e-7 exact and
    // monotone (every bound is a distinct f64).
    format!("{secs}")
}

/// How a declared counter moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Only grows from startup on; exported with a `_total` suffix.
    Counter,
    /// A current level or a high-water mark; exported as is.
    Gauge,
}

impl CounterKind {
    /// The Prometheus `# TYPE` of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            CounterKind::Counter => "counter",
            CounterKind::Gauge => "gauge",
        }
    }
}

/// One declared counter: its name, help text and kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterField {
    /// The field name, which is also its `stats` wire key.
    pub name: &'static str,
    /// The field's doc comment, exported as the Prometheus help text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: CounterKind,
}

impl CounterField {
    /// The Prometheus series name: `uu_<block>_<field>` (`uu_<field>` for a
    /// top-level field), plus `_total` for a counter whose name does not
    /// already end in it.
    pub fn metric_name(&self, block: Option<&str>) -> String {
        let mut name = match block {
            Some(block) => format!("uu_{block}_{}", self.name),
            None => format!("uu_{}", self.name),
        };
        if self.kind == CounterKind::Counter && !name.ends_with("_total") {
            name.push_str("_total");
        }
        name
    }
}

/// A snapshot struct declared through `counters!`.
pub trait CounterBlock: Default {
    /// The declared fields, in declaration order (the order of the keys on
    /// the wire).
    const FIELDS: &'static [CounterField];

    /// The field values, in [`CounterBlock::FIELDS`] order.
    fn values(&self) -> Vec<u64>;

    /// The fields themselves, in [`CounterBlock::FIELDS`] order.
    fn values_mut(&mut self) -> Vec<&mut u64>;

    /// Adds `other` field by field (e.g. to total per-table blocks).
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.values_mut().into_iter().zip(other.values()) {
            *mine += theirs;
        }
    }
}

/// Appends one `# HELP` / `# TYPE` / sample triple per field of `counters`
/// to a Prometheus text exposition. `block` is the block's key in the
/// `stats` reply, `None` for top-level fields.
pub fn render_counters<T: CounterBlock>(out: &mut String, block: Option<&str>, counters: &T) {
    use std::fmt::Write as _;
    for (field, value) in T::FIELDS.iter().zip(counters.values()) {
        let name = field.metric_name(block);
        let _ = writeln!(
            out,
            "# HELP {name} {}\n# TYPE {name} {}\n{name} {value}",
            field.help.trim(),
            field.kind.as_str()
        );
    }
}

/// Declares counter blocks: `pub struct Snapshot / Live { <doc> field: Kind, … }`
/// with `Kind` a [`CounterKind`]. See the module docs.
macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        pub struct $snapshot:ident / $live:ident {
            $($(#[doc = $fdoc:literal])+ $field:ident: $kind:ident,)+
        }
    )+) => {$(
        $(#[doc = $doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $($(#[doc = $fdoc])+ pub $field: u64,)+
        }

        #[doc = concat!("The live, relaxed atomics behind [`", stringify!($snapshot), "`].")]
        #[derive(Debug, Default)]
        pub struct $live {
            $($(#[doc = $fdoc])+ pub $field: AtomicU64,)+
        }

        impl $live {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl CounterBlock for $snapshot {
            const FIELDS: &'static [CounterField] = &[$(CounterField {
                name: stringify!($field),
                help: concat!($($fdoc),+),
                kind: CounterKind::$kind,
            },)+];

            fn values(&self) -> Vec<u64> {
                vec![$(self.$field),+]
            }

            fn values_mut(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$field),+]
            }
        }
    )+};
}

counters! {
    /// The server-wide request counters: the top-level numbers of `stats`.
    pub struct ServiceStats / ServiceCounters {
        /// Connections accepted since startup, across all fronts.
        connections: Counter,
        /// Requests dispatched since startup.
        requests: Counter,
        /// Requests answered with an error.
        errors: Counter,
    }

    /// A point-in-time snapshot of a profile cache's counters.
    pub struct CacheMetrics / CacheCounters {
        /// Lookups that found a live entry.
        hits: Counter,
        /// Lookups that found nothing (the caller then builds and inserts).
        misses: Counter,
        /// Entries inserted.
        insertions: Counter,
        /// Entries evicted by the capacity or byte-budget bound, least
        /// recently used first.
        evictions: Counter,
        /// Entries dropped by an explicit table invalidation or a clear.
        invalidations: Counter,
        /// Entries dropped on lookup because they outlived the configured
        /// TTL (those lookups also count as misses).
        expirations: Counter,
        /// Live entries.
        len: Gauge,
        /// Accounted bytes of the live entries (0 for unweighted inserts).
        bytes: Gauge,
    }

    /// Column-store counters, totalled over every registered table. The
    /// `stats` key keeps the `projection` spelling of protocol revision 3.
    pub struct ProjectionStats / ProjectionCounters {
        /// Tables whose columns were written from persisted rows: one per
        /// table restored from a snapshot.
        builds: Counter,
        /// Reads served by the columns.
        reuses: Counter,
        /// Bytes of the column stores.
        bytes: Gauge,
    }

    /// Connection-layer (reactor) counters.
    pub struct ConnStats / ConnCounters {
        /// Connections currently open.
        open: Gauge,
        /// High-water mark of concurrently open connections.
        peak_open: Gauge,
        /// Complete inbound frames assembled (JSON lines and pgwire
        /// messages).
        frames_in: Counter,
        /// Outbound replies queued.
        frames_out: Counter,
        /// Bytes read off sockets.
        bytes_in: Counter,
        /// Bytes written to sockets.
        bytes_out: Counter,
        /// Connections closed by the idle-timeout reaper.
        idle_reaped: Counter,
        /// Write-backpressure trips (reads paused at the high-water mark).
        backpressure: Counter,
        /// High-water mark of frames waiting in the worker queue.
        queue_depth_peak: Gauge,
        /// Total microseconds frames spent queued before a worker picked
        /// them up.
        queue_wait_us_total: Counter,
        /// Largest single queue wait in microseconds.
        queue_wait_us_max: Gauge,
    }

    /// Incremental-maintenance counters, aggregated over every append
    /// served since startup.
    pub struct IncrementalStats / IncrementalCounters {
        /// Append batches applied through the delta path.
        delta_batches: Counter,
        /// Observations accepted by those batches.
        rows_appended: Counter,
        /// Sort permutations absorbed by merge instead of a re-sort.
        permutation_merges: Counter,
        /// Per-universe profile snapshots carried across an append from
        /// delta rows alone (view and value order; the first reader builds
        /// the statistics).
        snapshots_refrozen: Counter,
        /// Cached selections dropped to a rebuild instead (stale version, a
        /// predicate that no longer evaluates, or a grouped selection with
        /// a touched row).
        fallback_rebuilds: Counter,
    }

    /// Durability-layer counters (all zeros without a data directory).
    pub struct StorageStats / StorageCounters {
        /// WAL records appended since startup.
        wal_records: Counter,
        /// Framed WAL bytes appended since startup.
        wal_bytes: Counter,
        /// fsync and fdatasync calls issued, WAL and snapshot files alike.
        fsyncs: Counter,
        /// Checkpoints completed (threshold-triggered, explicit, or at
        /// shutdown).
        checkpoints: Counter,
        /// Tables restored from snapshots at startup.
        recovered_tables: Counter,
        /// WAL records replayed at startup (applied, or recognized as
        /// already inside a snapshot).
        replayed_records: Counter,
        /// Torn tail bytes truncated from the WAL at startup.
        truncated_tail_bytes: Counter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing_powers_of_sqrt2() {
        let bounds = bucket_bounds_ns();
        assert_eq!(bounds[0], 250);
        for w in bounds.windows(2) {
            assert!(w[1] > w[0], "{w:?}");
            let ratio = w[1] as f64 / w[0] as f64;
            assert!((ratio - std::f64::consts::SQRT_2).abs() < 0.01, "{w:?}");
        }
    }

    #[test]
    fn bucket_index_places_bounds_inclusively() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(250), 0);
        assert_eq!(bucket_index(251), 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn shard_records_count_sum_min_max() {
        let shard = Shard::new();
        shard.record_ns(Verb::Query, Stage::Parse, 100);
        shard.record_ns(Verb::Query, Stage::Parse, 5_000);
        shard.record_ns(Verb::Append, Stage::Parse, 77);
        let snap = shard.snapshot_cell(Verb::Query, Stage::Parse);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_ns, 5_100);
        assert_eq!(snap.min_ns, 100);
        assert_eq!(snap.max_ns, 5_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 2);
        let other = shard.snapshot_cell(Verb::Append, Stage::Parse);
        assert_eq!(other.count, 1);
    }

    #[test]
    fn merge_is_exact() {
        let a = Shard::new();
        let b = Shard::new();
        let oracle = Shard::new();
        for (i, ns) in [0u64, 250, 251, 1_000_000, u64::MAX].iter().enumerate() {
            let target = if i % 2 == 0 { &a } else { &b };
            target.record_ns(Verb::Query, Stage::Request, *ns);
            oracle.record_ns(Verb::Query, Stage::Request, *ns);
        }
        let mut merged = a.snapshot_cell(Verb::Query, Stage::Request);
        merged.merge(&b.snapshot_cell(Verb::Query, Stage::Request));
        assert_eq!(merged, oracle.snapshot_cell(Verb::Query, Stage::Request));
    }

    #[test]
    fn quantiles_are_clamped_to_observed_range() {
        let shard = Shard::new();
        for _ in 0..100 {
            shard.record_ns(Verb::Query, Stage::Request, 1_000);
        }
        let snap = shard.snapshot_cell(Verb::Query, Stage::Request);
        assert_eq!(snap.quantile_ns(0.5), 1_000);
        assert_eq!(snap.quantile_ns(0.99), 1_000);
        assert_eq!(snap.quantile_ns(1.0), 1_000);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn spans_feed_histograms_and_traces() {
        let _verb = verb_scope(Verb::Warm);
        let before = snapshot()
            .entries
            .iter()
            .find(|e| e.verb == Verb::Warm && e.stage == Stage::ValueSort)
            .map(|e| e.hist.count)
            .unwrap_or(0);
        assert!(trace_begin());
        assert!(!trace_begin(), "nested trace_begin must not reset");
        {
            let _outer = span(Stage::Parse);
            let _inner = span_labeled(Stage::ValueSort, "col");
        }
        let trace = trace_take().expect("trace installed");
        assert!(trace_take().is_none());
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].stage, Stage::Parse);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].stage, Stage::ValueSort);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].label.as_deref(), Some("col"));
        let after = snapshot()
            .entries
            .iter()
            .find(|e| e.verb == Verb::Warm && e.stage == Stage::ValueSort)
            .map(|e| e.hist.count)
            .unwrap_or(0);
        assert_eq!(after, before + 1);
    }

    #[test]
    fn spans_without_trace_only_touch_histograms() {
        let _verb = verb_scope(Verb::Load);
        {
            let _span = span(Stage::Serialize);
        }
        assert!(trace_take().is_none());
    }

    #[test]
    fn verb_scope_nests_and_restores() {
        assert_eq!(current_verb(), Verb::Other);
        {
            let _outer = verb_scope(Verb::Query);
            assert_eq!(current_verb(), Verb::Query);
            {
                let _inner = verb_scope(Verb::Append);
                assert_eq!(current_verb(), Verb::Append);
            }
            assert_eq!(current_verb(), Verb::Query);
        }
        assert_eq!(current_verb(), Verb::Other);
    }

    #[test]
    fn prometheus_rendering_is_lexically_valid() {
        let shard = Shard::new();
        shard.record_ns(Verb::Query, Stage::Request, 1_000);
        shard.record_ns(Verb::Query, Stage::Request, 2_000_000);
        let snapshot = MetricsSnapshot {
            entries: vec![MetricsEntry {
                verb: Verb::Query,
                stage: Stage::Request,
                hist: shard.snapshot_cell(Verb::Query, Stage::Request),
            }],
        };
        let text = render_prometheus(&snapshot);
        assert!(text.starts_with("# HELP uu_stage_duration_seconds"));
        assert!(text.contains("# TYPE uu_stage_duration_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(
            text.contains("uu_stage_duration_seconds_count{verb=\"query\",stage=\"request\"} 2")
        );
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "{line}");
            assert!(
                name_labels.starts_with("uu_stage_duration_seconds"),
                "{line}"
            );
        }
    }

    #[test]
    fn counter_series_names_follow_one_rule() {
        let field = |name, kind| CounterField {
            name,
            help: "",
            kind,
        };
        let hits = field("hits", CounterKind::Counter);
        assert_eq!(hits.metric_name(Some("cache")), "uu_cache_hits_total");
        let waited = field("queue_wait_us_total", CounterKind::Counter);
        assert_eq!(
            waited.metric_name(Some("conn")),
            "uu_conn_queue_wait_us_total"
        );
        let open = field("open", CounterKind::Gauge);
        assert_eq!(open.metric_name(Some("conn")), "uu_conn_open");
        let requests = field("requests", CounterKind::Counter);
        assert_eq!(requests.metric_name(None), "uu_requests_total");
    }

    #[test]
    fn a_declared_block_snapshots_merges_and_renders_its_fields() {
        let live = CacheCounters::default();
        live.hits.fetch_add(3, Ordering::Relaxed);
        live.len.store(2, Ordering::Relaxed);
        let mut snap = live.snapshot();
        assert_eq!(snap.values(), [3, 0, 0, 0, 0, 0, 2, 0]);
        let names: Vec<&str> = CacheMetrics::FIELDS.iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            [
                "hits",
                "misses",
                "insertions",
                "evictions",
                "invalidations",
                "expirations",
                "len",
                "bytes"
            ]
        );
        assert_eq!(
            CacheMetrics::FIELDS[3].help.trim(),
            "Entries evicted by the capacity or byte-budget bound, least recently used first."
        );
        let mut text = String::new();
        render_counters(&mut text, Some("cache"), &snap);
        assert!(text.starts_with(
            "# HELP uu_cache_hits_total Lookups that found a live entry.\n\
             # TYPE uu_cache_hits_total counter\nuu_cache_hits_total 3\n"
        ));
        assert!(text.contains("# TYPE uu_cache_len gauge\nuu_cache_len 2\n"));
        assert_eq!(text.lines().count(), 3 * CacheMetrics::FIELDS.len());
        snap.merge(&snap.clone());
        assert_eq!((snap.hits, snap.len, snap.misses), (6, 4, 0));
    }

    #[test]
    fn stage_and_verb_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse_name(stage.as_str()), Some(stage));
        }
        for verb in Verb::ALL {
            assert_eq!(Verb::parse_name(verb.as_str()), Some(verb));
        }
    }
}
