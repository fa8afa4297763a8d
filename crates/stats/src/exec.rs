//! Shared work-stealing executor.
//!
//! Every parallel region of the workspace — the Monte-Carlo score grid, the
//! estimation-session fan-out, `GROUP BY` batches, harness repetitions, the
//! species-ladder warm-up — used to spawn its own statically-chunked scoped
//! threads. The regions nest (a parallel group batch whose groups run
//! parallel Monte-Carlo grids), and uncoordinated nesting can oversubscribe
//! up to cores² short-lived threads. This module is the single coordination
//! point that replaces all of them:
//!
//! * **One global worker budget.** [`global`] is lazily initialised with
//!   `available_parallelism` workers, overridden by the `UU_THREADS`
//!   environment variable when set. Worker threads are
//!   scoped per region — this file is the **only** place in the workspace
//!   that calls `std::thread::scope` — and a global token budget caps the
//!   executor-spawned helpers across *all* concurrent regions at
//!   `threads − 1`. Every region additionally runs on its caller's own
//!   thread, so a single requesting thread never sees more than `threads`
//!   live workers, and `M` concurrent requesting threads never more than
//!   `M + threads − 1` — regions can never stack up to cores².
//! * **Recursion-aware primitives.** [`Executor::for_each_indexed`],
//!   [`Executor::map_indexed`] and [`Executor::join`] detect (via a
//!   thread-local flag) that the calling thread is already an executor worker
//!   and then run inline instead of spawning: nested regions cost zero extra
//!   threads by construction.
//! * **Work stealing instead of static chunks.** Within a region each worker
//!   owns a deque-style index range; initial ranges are an even split, and a
//!   worker that drains its range steals the back half of a victim's
//!   remaining range (crossbeam-deque's steal-half policy, implemented over
//!   `std` since the build is offline). Degenerate inputs (`len < workers`)
//!   simply leave some workers stealing from the start — there are no empty
//!   trailing chunks, the historical bug of the static splitters.
//! * **Determinism.** The executor never reorders *results*: every primitive
//!   writes each task's output into its own slot, so outputs are in input
//!   order no matter which worker ran what. Callers keep per-task seeds
//!   (Monte-Carlo cells, harness repetitions), making parallel and serial
//!   executions bit-for-bit identical — pinned by the cross-crate parity
//!   tests.
//! * **Instrumentation.** [`Executor::metrics`] reports regions, tasks,
//!   steals and the peak number of concurrently live workers; the nested
//!   determinism test asserts `peak_workers ≤ threads` on a grouped query
//!   whose groups run Monte-Carlo grids.
//!
//! # Examples
//!
//! ```
//! use uu_stats::exec::Executor;
//!
//! let exec = Executor::with_threads(4);
//! let squares = exec.map_indexed((0u64..8).collect(), |i, x| (i as u64) + x * x);
//! assert_eq!(squares[3], 3 + 9);
//! let (a, b) = exec.join(|| 1 + 1, || "two");
//! assert_eq!((a, b), (2, "two"));
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A point-in-time snapshot of an executor's instrumentation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Configured worker budget (`UU_THREADS` or the detected core count).
    pub threads: usize,
    /// Parallel regions entered (`for_each_indexed`/`map_indexed`/`join`
    /// calls), whether they spawned or ran inline.
    pub regions: u64,
    /// Regions that actually spawned workers (the rest ran inline — nested,
    /// too small, a one-thread executor, or no tokens available).
    pub parallel_regions: u64,
    /// Individual tasks executed across all regions.
    pub tasks: u64,
    /// Steal-half operations performed by idle workers.
    pub steals: u64,
    /// Peak number of concurrently live workers (spawned helpers plus the
    /// participating callers). At most `threads` when one thread drives the
    /// executor; at most `callers + threads − 1` in general (the spawn
    /// budget is global, caller threads belong to the application).
    pub peak_workers: usize,
}

/// The shared work-stealing executor. See the [module docs](self).
#[derive(Debug)]
pub struct Executor {
    threads: usize,
    /// Remaining helper tokens; the global budget is `threads - 1` because
    /// the region's caller is always a participant.
    tokens: AtomicUsize,
    regions: AtomicU64,
    parallel_regions: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
    active: AtomicUsize,
    peak: AtomicUsize,
}

thread_local! {
    /// True while the current thread is participating in an executor region;
    /// primitives called under this flag run inline (recursion awareness).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Parses a `UU_THREADS`-style override. `None` (or an unparsable / zero
/// value) means "no override".
pub fn parse_thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn detected_threads() -> usize {
    parse_thread_override(std::env::var("UU_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();

/// The process-wide executor, lazily initialised on first use with the
/// `UU_THREADS` override (or the detected core count).
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| Executor::with_threads(detected_threads()))
}

/// RAII: marks the current thread as an executor worker and tracks the
/// live-worker high-water mark.
struct WorkerGuard<'a> {
    exec: &'a Executor,
    prev: bool,
}

impl<'a> WorkerGuard<'a> {
    fn enter(exec: &'a Executor) -> Self {
        let prev = IN_WORKER.with(|w| w.replace(true));
        let live = exec.active.fetch_add(1, Ordering::Relaxed) + 1;
        exec.peak.fetch_max(live, Ordering::Relaxed);
        WorkerGuard { exec, prev }
    }
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.exec.active.fetch_sub(1, Ordering::Relaxed);
        IN_WORKER.with(|w| w.set(self.prev));
    }
}

/// RAII: helper tokens borrowed from the global budget for one region.
struct Tokens<'a> {
    exec: &'a Executor,
    count: usize,
}

impl Drop for Tokens<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.exec.tokens.fetch_add(self.count, Ordering::Release);
        }
    }
}

/// Per-region work queue: one owned index range per worker, steal-half when a
/// worker's own range drains.
struct StealQueue {
    ranges: Vec<Mutex<(usize, usize)>>,
}

impl StealQueue {
    /// Splits `0..len` evenly over `workers` ranges (the remainder spread one
    /// index at a time, so no range is ever more than one longer than
    /// another and short inputs never produce phantom work).
    fn new(len: usize, workers: usize) -> Self {
        let base = len / workers;
        let rem = len % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut lo = 0;
        for w in 0..workers {
            let size = base + usize::from(w < rem);
            ranges.push(Mutex::new((lo, lo + size)));
            lo += size;
        }
        StealQueue { ranges }
    }

    /// The next index for worker `me`: own range first, then steal the back
    /// half of the first victim with remaining work. `None` when the whole
    /// region is drained (ranges only ever shrink).
    fn next(&self, me: usize, steals: &AtomicU64) -> Option<usize> {
        {
            let mut own = self.ranges[me].lock().expect("queue lock");
            if own.0 < own.1 {
                own.0 += 1;
                return Some(own.0 - 1);
            }
        }
        let workers = self.ranges.len();
        for offset in 1..workers {
            let victim = (me + offset) % workers;
            let stolen = {
                let mut range = self.ranges[victim].lock().expect("queue lock");
                let remaining = range.1 - range.0;
                if remaining == 0 {
                    None
                } else {
                    let take = remaining.div_ceil(2);
                    range.1 -= take;
                    Some((range.1, range.1 + take))
                }
            };
            if let Some((lo, hi)) = stolen {
                steals.fetch_add(1, Ordering::Relaxed);
                let mut own = self.ranges[me].lock().expect("queue lock");
                *own = (lo + 1, hi);
                return Some(lo);
            }
        }
        None
    }
}

impl Executor {
    /// An executor with an explicit worker budget (mostly for tests; real
    /// callers share [`global`]).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        Executor {
            threads,
            tokens: AtomicUsize::new(threads - 1),
            regions: AtomicU64::new(0),
            parallel_regions: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// The configured worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the calling thread is already an executor worker (so a new
    /// region would run inline).
    pub fn in_worker() -> bool {
        IN_WORKER.with(|w| w.get())
    }

    /// Runs `f` with the calling thread flagged as an executor participant:
    /// every region entered inside runs inline and spawns no helpers. This is
    /// the handoff point for callers that manage their own resident thread
    /// pool sized to the executor budget (e.g. a server's connection
    /// handlers) — their threads *are* the workers, so letting them borrow
    /// additional helpers would multiply the `UU_THREADS` budget by the pool
    /// size. The flag is restored on exit (panic-safe), and the inline
    /// regions still count toward `regions`/`tasks` instrumentation.
    pub fn run_inline<R>(f: impl FnOnce() -> R) -> R {
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0;
                IN_WORKER.with(|w| w.set(prev));
            }
        }
        let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
        f()
    }

    /// A snapshot of the instrumentation counters.
    pub fn metrics(&self) -> ExecMetrics {
        ExecMetrics {
            threads: self.threads,
            regions: self.regions.load(Ordering::Relaxed),
            parallel_regions: self.parallel_regions.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            peak_workers: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Borrows up to `want` helper tokens from the global budget.
    fn acquire(&self, want: usize) -> Tokens<'_> {
        let mut available = self.tokens.load(Ordering::Acquire);
        loop {
            let take = available.min(want);
            if take == 0 {
                return Tokens {
                    exec: self,
                    count: 0,
                };
            }
            match self.tokens.compare_exchange_weak(
                available,
                available - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Tokens {
                        exec: self,
                        count: take,
                    }
                }
                Err(now) => available = now,
            }
        }
    }

    /// Runs `f(i, &mut items[i])` for every index, on up to
    /// [`Executor::threads`] workers with steal-half balancing. Results are
    /// deterministic: each task writes only its own slot, so the outcome is
    /// independent of scheduling. Runs inline when the region is trivial,
    /// nested inside another region, or the executor has one thread.
    pub fn for_each_indexed<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(items.len() as u64, Ordering::Relaxed);

        if items.len() > 1 && self.threads > 1 && !Self::in_worker() {
            let tokens = self.acquire(self.threads.min(items.len()) - 1);
            if tokens.count > 0 {
                self.parallel_regions.fetch_add(1, Ordering::Relaxed);
                let workers = tokens.count + 1;
                let queue = StealQueue::new(items.len(), workers);
                let slots: Vec<Mutex<Option<&mut T>>> = items
                    .iter_mut()
                    .map(|item| Mutex::new(Some(item)))
                    .collect();
                std::thread::scope(|scope| {
                    for me in 1..workers {
                        let (queue, slots, f) = (&queue, &slots, &f);
                        scope.spawn(move || self.drive(me, queue, slots, f));
                    }
                    self.drive(0, &queue, &slots, &f);
                });
                return;
            }
        }

        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    }

    /// One worker's region loop: pop/steal indices, take the slot, run the
    /// task.
    fn drive<T, F>(&self, me: usize, queue: &StealQueue, slots: &[Mutex<Option<&mut T>>], f: &F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let _guard = WorkerGuard::enter(self);
        while let Some(i) = queue.next(me, &self.steals) {
            let item = slots[i]
                .lock()
                .expect("slot lock")
                .take()
                .expect("each index dispatched exactly once");
            f(i, item);
        }
    }

    /// Consumes `items` and returns `f(i, item)` per item, **in input
    /// order**, computed on the executor like [`Executor::for_each_indexed`].
    pub fn map_indexed<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        enum Slot<I, O> {
            Todo(I),
            Done(O),
            Taken,
        }
        let mut slots: Vec<Slot<I, O>> = items.into_iter().map(Slot::Todo).collect();
        self.for_each_indexed(&mut slots, |i, slot| {
            match std::mem::replace(slot, Slot::Taken) {
                Slot::Todo(input) => *slot = Slot::Done(f(i, input)),
                _ => unreachable!("each slot is dispatched exactly once"),
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(out) => out,
                _ => unreachable!("every slot was computed"),
            })
            .collect()
    }

    /// Runs the two closures, `b` on a pool worker when one is free and the
    /// caller is not already inside a region; inline (`a` then `b`) otherwise.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        self.regions.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(2, Ordering::Relaxed);

        if self.threads > 1 && !Self::in_worker() {
            let tokens = self.acquire(1);
            if tokens.count == 1 {
                self.parallel_regions.fetch_add(1, Ordering::Relaxed);
                return std::thread::scope(|scope| {
                    let handle = scope.spawn(|| {
                        let _guard = WorkerGuard::enter(self);
                        b()
                    });
                    let ra = {
                        let _guard = WorkerGuard::enter(self);
                        a()
                    };
                    let rb = match handle.join() {
                        Ok(rb) => rb,
                        Err(payload) => std::panic::resume_unwind(payload),
                    };
                    (ra, rb)
                });
            }
        }

        (a(), b())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let exec = Executor::with_threads(4);
        let out = exec.map_indexed((0..100u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_visits_every_index_exactly_once() {
        let exec = Executor::with_threads(8);
        let mut hits = vec![0u32; 57];
        exec.for_each_indexed(&mut hits, |_, h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn degenerate_inputs_smaller_than_the_worker_budget() {
        // The historical static splitters produced empty trailing chunks for
        // len < threads; the queue split must hand out exactly `len` tasks.
        let exec = Executor::with_threads(8);
        for len in 0..5usize {
            let out = exec.map_indexed((0..len).collect(), |_, x| x + 1);
            assert_eq!(out, (1..=len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_run_inline_and_respect_the_budget() {
        let exec = Executor::with_threads(3);
        let out = exec.map_indexed((0..12u64).collect(), |_, x| {
            // Nested region: must run inline on the same worker.
            let inner: u64 = exec
                .map_indexed((0..x).collect::<Vec<u64>>(), |_, y| y)
                .iter()
                .sum();
            assert!(Executor::in_worker() || exec.threads() == 1);
            inner
        });
        let expect: Vec<u64> = (0..12u64).map(|x| x * (x.saturating_sub(1)) / 2).collect();
        assert_eq!(out, expect);
        assert!(exec.metrics().peak_workers <= exec.threads());
    }

    #[test]
    fn join_returns_both_results() {
        let exec = Executor::with_threads(2);
        let (a, (b, c)) = exec.join(|| 40 + 2, || exec.join(|| "left", || "right"));
        assert_eq!(a, 42);
        assert_eq!((b, c), ("left", "right"));
        assert!(exec.metrics().peak_workers <= exec.threads());
    }

    #[test]
    fn steal_queue_drains_uneven_splits() {
        let queue = StealQueue::new(10, 4);
        let steals = AtomicU64::new(0);
        let mut drained = std::collections::BTreeSet::new();
        for me in 0..4 {
            while let Some(i) = queue.next(me, &steals) {
                assert!(drained.insert(i), "index {i} dispatched twice");
            }
        }
        assert_eq!(drained, (0..10).collect());
    }

    #[test]
    fn stealing_takes_the_back_half() {
        let queue = StealQueue::new(8, 2);
        let steals = AtomicU64::new(0);
        // Worker 1 drains its own range [4, 8) then steals half of [0, 4).
        for expect in 4..8 {
            assert_eq!(queue.next(1, &steals), Some(expect));
        }
        assert_eq!(queue.next(1, &steals), Some(2));
        assert_eq!(steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn metrics_count_regions_tasks_and_threads() {
        let exec = Executor::with_threads(2);
        let _ = exec.map_indexed(vec![1, 2, 3], |_, x: i32| x);
        let _ = exec.join(|| (), || ());
        let m = exec.metrics();
        assert_eq!(m.threads, 2);
        assert_eq!(m.regions, 2);
        assert_eq!(m.tasks, 5);
        assert!(m.peak_workers <= 2);
    }

    #[test]
    fn single_thread_executor_is_fully_inline() {
        let exec = Executor::with_threads(1);
        let out = exec.map_indexed((0..6).collect(), |i, x: usize| i * 10 + x);
        assert_eq!(out, vec![0, 11, 22, 33, 44, 55]);
        assert_eq!(exec.metrics().parallel_regions, 0);
    }

    #[test]
    fn run_inline_pins_regions_to_the_calling_thread() {
        let exec = Executor::with_threads(4);
        assert!(!Executor::in_worker());
        let before = exec.metrics().parallel_regions;
        let out = Executor::run_inline(|| {
            assert!(Executor::in_worker());
            let inner = exec.map_indexed((0..32u64).collect(), |_, x| x * 2);
            assert_eq!(inner[5], 10);
            7
        });
        assert_eq!(out, 7);
        // The region inside ran inline: no helper was spawned.
        assert_eq!(exec.metrics().parallel_regions, before);
        // The flag is restored afterwards.
        assert!(!Executor::in_worker());
    }

    #[test]
    fn run_inline_restores_the_flag_on_panic() {
        let result = std::panic::catch_unwind(|| {
            Executor::run_inline(|| panic!("boom"));
        });
        assert!(result.is_err());
        assert!(!Executor::in_worker());
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("banana")), None);
        assert_eq!(parse_thread_override(Some("4")), Some(4));
        assert_eq!(parse_thread_override(Some(" 12 ")), Some(12));
    }

    #[test]
    fn global_executor_is_a_singleton_with_positive_budget() {
        let a = global() as *const Executor;
        let b = global() as *const Executor;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn map_results_are_deterministic_across_runs() {
        let exec = Executor::with_threads(4);
        let work: Vec<u64> = (0..200).collect();
        let run = || {
            exec.map_indexed(work.clone(), |i, x| {
                // Per-task seed mixing, the pattern all call sites use.
                let mut h = x ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
                h ^= h >> 33;
                h.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            })
        };
        assert_eq!(run(), run());
    }
}
