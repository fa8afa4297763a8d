//! Shared per-view derived statistics ([`ProfileSnapshot`]).
//!
//! Every estimator in the suite derives its answer from the same handful of
//! per-sample statistics: the frequency ladder's species estimates (naïve,
//! frequency, Monte-Carlo's search box), the value-sorted item order and the
//! bucket partition (bucket, policy, AVG/MIN/MAX), the §6.5 diagnostics and
//! recommendation (policy, the query executor), and the rank-aligned
//! multiplicities (Monte-Carlo). Computed per estimator, a session over `K`
//! estimators would pay `K` sorts, `K` Chao92 evaluations and up to `K`
//! bucket splits per view.
//!
//! A [`ProfileSnapshot`] owns one [`SampleView`] and memoizes those
//! statistics in thread-safe slots, each computed **at most once** on first
//! read and shared by every estimator through
//! [`crate::estimate::SumEstimator`]'s `*_profiled` methods.
//! [`ProfileSnapshot::new`] computes nothing up front, so a one-shot caller
//! pays only for what its estimators read;
//! [`ProfileSnapshot::capture`] fills every slot eagerly, which is how the
//! query executor freezes one snapshot per estimation universe (per group in
//! a `GROUP BY`).
//!
//! Profiled and direct paths are **bit-for-bit identical** — the profile only
//! memoizes, it never approximates. Parity is pinned for every registry kind
//! by `tests/tests/engine_registry.rs` and a property test.
//!
//! [`ProfileSnapshot::metrics`] exposes how many times each statistic was
//! *built*, which is how the grouped-batch benchmark demonstrates that `K`
//! estimators × `G` groups cost `G` statistics passes instead of `K × G`.
//!
//! # Cross-query reuse
//!
//! Because a snapshot owns its view, it outlives the query that built it.
//! [`ProfileCache`] is the bounded LRU map the query executor consults —
//! keyed by [`ProfileKey`] (table version, predicate fingerprint, group
//! key) — before freezing a selection from scratch. A cache hit reads the
//! captured snapshot in place: no statistic is rebuilt and nothing is
//! copied (counter-asserted by the cache tests). Entries are invalidated
//! naturally by the table version in the key and explicitly via
//! [`ProfileCache::invalidate_table`] on catalog mutation.
//!
//! # Examples
//!
//! ```
//! use uu_core::engine::EstimationSession;
//! use uu_core::profile::ProfileSnapshot;
//! use uu_core::sample::SampleView;
//!
//! let sample = SampleView::from_value_multiplicities([
//!     (1000.0, 1), (2000.0, 2), (10_000.0, 4),
//! ]);
//! let profile = ProfileSnapshot::new(sample);
//! let results = EstimationSession::all().run_profiled(&profile);
//! assert_eq!(results.len(), 5);
//! // All five estimators shared ONE sort and ONE bucket split.
//! let m = profile.metrics();
//! assert_eq!(m.sort_builds, 1);
//! assert_eq!(m.bucket_builds, 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::bucket::{delta_over_buckets, BucketReport, DynamicBucketEstimator};
use crate::estimate::DeltaEstimate;
use crate::recommend::{diagnose, recommendation_for, Diagnostics, Recommendation};
use crate::sample::{ObservedItem, SampleView};
use uu_stats::species::{CountEstimate, SpeciesCache, SpeciesEstimator};

/// Number of species estimators a profile memoizes.
const LADDER: usize = SpeciesEstimator::ALL.len();

/// A point-in-time snapshot of a profile's instrumentation counters.
///
/// Each field counts how many times the corresponding statistic was actually
/// computed — at most 1, by construction. A cache hit leaves them all
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileMetrics {
    /// Value-sorts of the item order performed (0 or 1).
    pub sort_builds: u64,
    /// Dynamic bucket partitions computed (0 or 1).
    pub bucket_builds: u64,
    /// §6.5 diagnostics extractions performed (0 or 1).
    pub diagnostics_builds: u64,
    /// Rank-multiplicity vectors materialised (0 or 1).
    pub rank_builds: u64,
    /// Species ladders evaluated (0 or 1; one evaluation covers every
    /// [`SpeciesEstimator`]).
    pub species_builds: u64,
}

impl ProfileMetrics {
    /// Total statistics builds across all kinds.
    pub fn total_builds(&self) -> u64 {
        self.sort_builds
            + self.bucket_builds
            + self.diagnostics_builds
            + self.rank_builds
            + self.species_builds
    }
}

/// One owned [`SampleView`] with its lazily memoized derived statistics —
/// the profile every `*_profiled` estimator reads, and the unit the
/// cross-query [`ProfileCache`] stores.
///
/// Each statistic is computed on first read (from any thread —
/// initialisation is serialised per statistic) and kept for the snapshot's
/// lifetime, so a shared snapshot is read in place by any number of
/// concurrent queries. Reading a built statistic writes nothing.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    view: SampleView,
    species: OnceLock<[CountEstimate; LADDER]>,
    /// Indices into `view.items()` in ascending-value order (stable
    /// `total_cmp`, exactly [`SampleView::items_sorted_by_value`]'s order).
    sorted_idx: OnceLock<Vec<u32>>,
    buckets: OnceLock<Vec<BucketReport>>,
    diagnostics: OnceLock<Diagnostics>,
    ranks: OnceLock<Vec<u64>>,
    sort_builds: Builds,
    bucket_builds: Builds,
    diagnostics_builds: Builds,
    rank_builds: Builds,
    species_builds: Builds,
}

/// Heap bytes of a memoized vector (0 while the slot is empty).
fn slot_bytes<T>(slot: &OnceLock<Vec<T>>) -> usize {
    slot.get()
        .map_or(0, |v| std::mem::size_of_val(v.as_slice()))
}

/// How many times one memo slot was built. A clone carries the count, so
/// a cloned snapshot reports the builds behind the statistics it holds.
#[derive(Debug, Default)]
struct Builds(AtomicU64);

impl Builds {
    /// Runs `build` and counts it: the body of every memo slot's
    /// initialiser.
    fn count<T>(&self, build: impl FnOnce() -> T) -> T {
        self.0.fetch_add(1, Ordering::Relaxed);
        build()
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Builds {
    fn clone(&self) -> Self {
        Builds(AtomicU64::new(self.get()))
    }
}

impl ProfileSnapshot {
    /// A profile over `view` with nothing computed yet.
    pub fn new(view: SampleView) -> Self {
        ProfileSnapshot::with_order(view, OnceLock::new())
    }

    fn with_order(view: SampleView, sorted_idx: OnceLock<Vec<u32>>) -> Self {
        ProfileSnapshot {
            view,
            species: OnceLock::new(),
            sorted_idx,
            buckets: OnceLock::new(),
            diagnostics: OnceLock::new(),
            ranks: OnceLock::new(),
            sort_builds: Builds::default(),
            bucket_builds: Builds::default(),
            diagnostics_builds: Builds::default(),
            rank_builds: Builds::default(),
            species_builds: Builds::default(),
        }
    }

    /// Consumes a view and computes every statistic eagerly.
    pub fn capture(view: SampleView) -> Self {
        ProfileSnapshot::freeze(view, OnceLock::new())
    }

    /// [`ProfileSnapshot::capture`] with the value-sort permutation supplied
    /// by the caller instead of recomputed: columnar tables derive each
    /// selection's order by filtering a memoized full-column sort, and this
    /// entry point freezes that permutation directly. `sorted_idx` must hold
    /// indices into `view.items()` in ascending-value order exactly as a
    /// stable `total_cmp` sort would produce them (the invariant the
    /// `columnar_parity` suite pins); statistics are bit-for-bit those of
    /// `capture`, and `sort_builds` stays 0.
    pub fn capture_presorted(view: SampleView, sorted_idx: Vec<u32>) -> Self {
        debug_assert_eq!(
            sorted_idx.len(),
            view.items().len(),
            "permutation covers the view"
        );
        ProfileSnapshot::freeze(view, OnceLock::from(sorted_idx))
    }

    /// Builds a profile, then warms it: every statistic in order on the
    /// calling thread — sort and bucket partition, diagnostics, rank
    /// multiplicities, the species ladder. Values are identical to lazy
    /// computation; warming only moves the cost.
    fn freeze(view: SampleView, sorted_idx: OnceLock<Vec<u32>>) -> Self {
        let _span = crate::obs::span(crate::obs::Stage::Freeze);
        let profile = ProfileSnapshot::with_order(view, sorted_idx);
        let _ = profile.bucket_reports();
        let _ = profile.diagnostics();
        let _ = profile.rank_multiplicities();
        let _ = profile.species_ladder();
        profile
    }

    /// The profiled view.
    pub fn view(&self) -> &SampleView {
        &self.view
    }

    /// Returns `self`: the snapshot is its own profile. The accessor stays
    /// because callers outside this workspace (the perfbench harness) spell
    /// the cache-hit fan-out `session.run_profiled(&snapshot.profile())`.
    pub fn profile(&self) -> &Self {
        self
    }

    fn species_ladder(&self) -> &[CountEstimate; LADDER] {
        self.species.get_or_init(|| {
            self.species_builds
                .count(|| SpeciesCache::new(self.view.freq()).all_estimates())
        })
    }

    /// The memoized estimate of `estimator` over the view's frequency ladder
    /// (identical to `estimator.estimate(view.freq())`). The first read
    /// evaluates the whole ladder.
    pub fn species(&self, estimator: SpeciesEstimator) -> CountEstimate {
        self.species_ladder()[estimator.index()]
    }

    /// The value-sort permutation: indices into the view's items, ascending
    /// by value (stable `total_cmp`), sorted at most once. Persisting it
    /// alongside the items lets a durable-storage layer re-freeze the
    /// snapshot bit-for-bit through [`ProfileSnapshot::capture_presorted`]
    /// without re-sorting.
    pub fn sorted_indices(&self) -> &[u32] {
        self.sorted_idx.get_or_init(|| {
            self.sort_builds.count(|| {
                let _span = crate::obs::span(crate::obs::Stage::ValueSort);
                let items = self.view.items();
                let mut idx: Vec<u32> = (0..items.len() as u32).collect();
                idx.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
                idx
            })
        })
    }

    /// The view's items in ascending-value order — the working order of the
    /// bucket estimators, materialised from [`Self::sorted_indices`].
    pub fn sorted_items(&self) -> Vec<&ObservedItem> {
        let items = self.view.items();
        self.sorted_indices()
            .iter()
            .map(|&i| &items[i as usize])
            .collect()
    }

    /// The default dynamic bucket partition (Algorithm 1 with the naïve inner
    /// estimator — exactly what [`DynamicBucketEstimator::default`]
    /// produces), computed at most once.
    pub fn bucket_reports(&self) -> &[BucketReport] {
        self.buckets.get_or_init(|| {
            self.bucket_builds.count(|| {
                let sorted = self.sorted_items();
                let _span = crate::obs::span(crate::obs::Stage::BucketPartition);
                DynamicBucketEstimator::default().bucketize_sorted(&sorted)
            })
        })
    }

    /// The default bucket estimator's Δ (identical to
    /// `DynamicBucketEstimator::default().estimate_delta(view)`), summed over
    /// the memoized partition.
    pub fn bucket_delta(&self) -> DeltaEstimate {
        delta_over_buckets(self.bucket_reports())
    }

    /// Memoized §6.5 selection signals (identical to `diagnose(view)`).
    pub fn diagnostics(&self) -> Diagnostics {
        *self
            .diagnostics
            .get_or_init(|| self.diagnostics_builds.count(|| diagnose(&self.view)))
    }

    /// The §6.5 estimator recommendation (identical to `recommend(view)`),
    /// derived from the memoized diagnostics.
    pub fn recommendation(&self) -> Recommendation {
        recommendation_for(&self.view, &self.diagnostics())
    }

    /// Memoized rank-aligned multiplicities (descending), the Monte-Carlo
    /// indexing of the observed sample.
    pub fn rank_multiplicities(&self) -> &[u64] {
        self.ranks
            .get_or_init(|| self.rank_builds.count(|| self.view.rank_multiplicities()))
    }

    /// A snapshot of the instrumentation counters.
    pub fn metrics(&self) -> ProfileMetrics {
        ProfileMetrics {
            sort_builds: self.sort_builds.get(),
            bucket_builds: self.bucket_builds.get(),
            diagnostics_builds: self.diagnostics_builds.get(),
            rank_builds: self.rank_builds.get(),
            species_builds: self.species_builds.get(),
        }
    }

    /// Delta-maintains the snapshot under an append: `bumps` are
    /// already-observed items that gained observations (same value, higher
    /// multiplicity — see [`SampleView::extended`]), `appended` are brand-new
    /// items in row order. The owned view updates from the delta alone, and
    /// the frozen value-sort permutation absorbs the appended items by a
    /// sorted merge-insert — `O(k log k + c)` for a `k`-item delta instead of
    /// the `O(c log c)` re-sort `capture` would pay — before the dependent
    /// statistics (species ladder, bucket partition, diagnostics, ranks)
    /// re-freeze over the presorted items.
    ///
    /// Bit-for-bit identical to capturing the extended view from scratch:
    /// appended items carry strictly higher indices than every frozen item,
    /// so an old-wins-ties merge reproduces the stable `total_cmp` sort
    /// exactly, and bumps never move an item (values are unchanged).
    pub fn refreeze(&self, bumps: &[(usize, ObservedItem)], appended: Vec<ObservedItem>) -> Self {
        let _span = crate::obs::span(crate::obs::Stage::Refreeze);
        let old_len = self.view.items().len() as u32;
        let appended_len = appended.len() as u32;
        let view = self.view.extended(bumps, appended);
        let items = view.items();
        // Stable-sort the delta indices by value (ties keep row order), then
        // merge into the frozen permutation with old-first on ties.
        let mut delta_idx: Vec<u32> = (old_len..old_len + appended_len).collect();
        delta_idx.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
        let mut merged = Vec::with_capacity(items.len());
        let mut old_iter = self.sorted_indices().iter().copied().peekable();
        let mut new_iter = delta_idx.into_iter().peekable();
        loop {
            match (old_iter.peek(), new_iter.peek()) {
                (Some(&o), Some(&n)) => {
                    if items[o as usize]
                        .value
                        .total_cmp(&items[n as usize].value)
                        .is_le()
                    {
                        merged.push(o);
                        old_iter.next();
                    } else {
                        merged.push(n);
                        new_iter.next();
                    }
                }
                (Some(&o), None) => {
                    merged.push(o);
                    old_iter.next();
                }
                (None, Some(&n)) => {
                    merged.push(n);
                    new_iter.next();
                }
                (None, None) => break,
            }
        }
        ProfileSnapshot::capture_presorted(view, merged)
    }

    /// Approximate heap footprint of the snapshot in bytes: the owned view's
    /// items (with their lineage vectors) plus the statistics built so far. The
    /// figure backs [`ProfileCache`]'s byte-budget mode, so it only needs to
    /// scale faithfully with the view size, not account for every allocator
    /// header.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let item_bytes: usize = self
            .view
            .items()
            .iter()
            .map(|item| size_of::<ObservedItem>() + size_of_val(item.source_counts.as_slice()))
            .sum();
        // The frequency ladder `f_1..f_max` lives behind the view too; its
        // heap buffer is one `u64` per multiplicity level.
        let ladder_bytes = self.view.freq().max_multiplicity() as usize * size_of::<u64>();
        size_of::<Self>()
            + item_bytes
            + size_of_val(self.view.source_sizes())
            + ladder_bytes
            + slot_bytes(&self.sorted_idx)
            + slot_bytes(&self.buckets)
            + slot_bytes(&self.ranks)
    }
}

/// Cache key for cross-query profile reuse: one estimation-universe identity.
///
/// The profiled statistics depend only on which entities enter the view —
/// the table's contents (pinned by `version`), the aggregate attribute
/// column, the predicate and the grouping — never on the aggregate function
/// or correction method, so one entry serves SUM/COUNT/AVG/MIN/MAX and every
/// estimator alike.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Table name (canonicalised by the caller, e.g. lower-cased).
    pub table: String,
    /// Process-unique identity of the table *object*: two distinct tables
    /// that share a name (and coincidentally a version) must not serve each
    /// other's entries.
    pub instance: u64,
    /// Table mutation counter; any insert bumps it, so stale entries can
    /// never be returned even before explicit invalidation evicts them.
    pub version: u64,
    /// Aggregate attribute column (`None` for `COUNT(*)`).
    pub column: Option<String>,
    /// Canonical fingerprint of the `WHERE` predicate.
    pub predicate: String,
    /// `GROUP BY` column, when the entry holds per-group universes.
    pub group_by: Option<String>,
}

/// A point-in-time snapshot of a [`ProfileCache`]'s instrumentation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (the caller then builds and inserts).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the capacity or byte-budget bound (least recently
    /// used first).
    pub evictions: u64,
    /// Entries dropped by [`ProfileCache::invalidate_table`] /
    /// [`ProfileCache::clear`].
    pub invalidations: u64,
    /// Entries dropped on lookup because they outlived the configured TTL
    /// (those lookups also count as misses).
    pub expirations: u64,
    /// Current number of live entries.
    pub len: usize,
    /// Current accounted weight of all live entries in bytes (0 unless
    /// callers insert through [`ProfileCache::insert_weighted`]).
    pub bytes: usize,
}

/// A bounded, thread-safe LRU cache for cross-query profile reuse.
///
/// Generic over the stored value so the query layer can cache whole
/// selections (e.g. `Arc<Vec<(group key, ProfileSnapshot)>>`) while this
/// crate stays oblivious to SQL types; values are cloned out on hit, so `V`
/// should be an `Arc` (or otherwise cheap to clone).
///
/// Three bounds compose (all optional beyond the entry capacity):
///
/// * **Entry capacity** — [`ProfileCache::new`], the default policy.
/// * **Byte budget** — [`ProfileCache::with_byte_budget`]: entries inserted
///   through [`ProfileCache::insert_weighted`] carry a weight (for query
///   selections, the summed [`ProfileSnapshot::approx_bytes`]); the LRU
///   entries are evicted while the accounted total exceeds the budget. The
///   most recent entry is always retained, so a single oversized selection
///   still caches.
/// * **TTL** — [`ProfileCache::with_ttl`]: a lookup that finds an entry older
///   than the TTL drops it and reports a miss, so long-running servers shed
///   selections that stopped being queried.
#[derive(Debug)]
pub struct ProfileCache<V> {
    capacity: usize,
    byte_budget: Option<usize>,
    ttl: Option<Duration>,
    inner: Mutex<CacheInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    expirations: AtomicU64,
}

/// One cached entry with its LRU/TTL/byte-budget bookkeeping.
#[derive(Debug)]
struct CacheEntry<V> {
    value: V,
    /// Last-used tick; orders LRU eviction.
    last_used: u64,
    /// Accounted weight (0 for unweighted inserts).
    bytes: usize,
    /// Insertion time; compared against the TTL on lookup.
    inserted: Instant,
}

#[derive(Debug)]
struct CacheInner<V> {
    map: HashMap<ProfileKey, CacheEntry<V>>,
    tick: u64,
    /// Sum of the live entries' accounted weights.
    bytes: usize,
}

/// Default capacity of [`ProfileCache::default`].
pub const DEFAULT_PROFILE_CACHE_CAPACITY: usize = 128;

impl<V> Default for ProfileCache<V> {
    fn default() -> Self {
        ProfileCache::new(DEFAULT_PROFILE_CACHE_CAPACITY)
    }
}

impl<V> ProfileCache<V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        ProfileCache {
            capacity: capacity.max(1),
            byte_budget: None,
            ttl: None,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    /// Adds a byte budget: LRU entries are evicted while the accounted
    /// weight (supplied via [`ProfileCache::insert_weighted`]) exceeds
    /// `bytes`. The newest entry is always retained.
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// Adds a time-to-live: entries older than `ttl` are dropped on lookup
    /// (counted under `expirations`, and the lookup reports a miss).
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured byte budget, when the cache runs in byte-budget mode.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// The configured TTL, when one is set.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Looks up a universe, refreshing its recency on hit. An entry that
    /// outlived the configured TTL is dropped and reported as a miss.
    pub fn get(&self, key: &ProfileKey) -> Option<V>
    where
        V: Clone,
    {
        let mut inner = self.inner.lock().expect("profile cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                if self.ttl.is_some_and(|ttl| entry.inserted.elapsed() > ttl) {
                    let bytes = entry.bytes;
                    inner.map.remove(key);
                    inner.bytes -= bytes;
                    self.expirations.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry with no accounted weight — the
    /// entry-capacity bound alone applies to it.
    pub fn insert(&self, key: ProfileKey, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Inserts (or replaces) an entry carrying an accounted weight of
    /// `bytes`, then evicts least-recently-used entries while either bound
    /// (entry capacity, byte budget) is exceeded. The just-inserted entry is
    /// never evicted by the byte budget: an oversized selection still serves
    /// repeats, it just won't keep neighbours.
    pub fn insert_weighted(&self, key: ProfileKey, value: V, bytes: usize) {
        let mut inner = self.inner.lock().expect("profile cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            CacheEntry {
                value,
                last_used: tick,
                bytes,
                inserted: Instant::now(),
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        loop {
            let over_capacity = inner.map.len() > self.capacity;
            let over_budget = self
                .byte_budget
                .is_some_and(|budget| inner.bytes > budget && inner.map.len() > 1);
            if !over_capacity && !over_budget {
                break;
            }
            let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = inner.map.remove(&lru) {
                inner.bytes -= entry.bytes;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry belonging to `table` (same canonical form as the
    /// keys), returning how many were removed. Called on catalog mutation;
    /// the version field of [`ProfileKey`] already guarantees stale entries
    /// are unreachable, so this is about reclaiming memory promptly.
    pub fn invalidate_table(&self, table: &str) -> usize {
        let mut inner = self.inner.lock().expect("profile cache lock");
        let before = inner.map.len();
        inner.map.retain(|key, _| key.table != table);
        let removed = before - inner.map.len();
        inner.bytes = inner.map.values().map(|entry| entry.bytes).sum();
        self.invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Removes and returns every entry belonging to `table` (same canonical
    /// form as the keys), value included — the walk behind incremental
    /// append: the caller re-freezes each drained selection against the new
    /// table state and re-inserts it, instead of evicting and paying a cold
    /// rebuild on next touch. Not counted under `invalidations`; re-inserted
    /// entries count as ordinary insertions.
    pub fn drain_table(&self, table: &str) -> Vec<(ProfileKey, V)> {
        let mut inner = self.inner.lock().expect("profile cache lock");
        let keys: Vec<ProfileKey> = inner
            .map
            .keys()
            .filter(|key| key.table == table)
            .cloned()
            .collect();
        let mut drained = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(entry) = inner.map.remove(&key) {
                inner.bytes -= entry.bytes;
                drained.push((key, entry.value));
            }
        }
        drained
    }

    /// Clones every entry belonging to `table` (same canonical form as the
    /// keys), leaving the cache untouched — the non-destructive sibling of
    /// [`ProfileCache::drain_table`], used by durable-storage checkpoints
    /// that persist the live selections without perturbing recency or
    /// metrics. Order is unspecified.
    pub fn entries_for_table(&self, table: &str) -> Vec<(ProfileKey, V)>
    where
        V: Clone,
    {
        let inner = self.inner.lock().expect("profile cache lock");
        inner
            .map
            .iter()
            .filter(|(key, _)| key.table == table)
            .map(|(key, entry)| (key.clone(), entry.value.clone()))
            .collect()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("profile cache lock");
        let removed = inner.map.len();
        inner.map.clear();
        inner.bytes = 0;
        self.invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("profile cache lock").map.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current accounted weight of the live entries in bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("profile cache lock").bytes
    }

    /// A snapshot of the instrumentation counters.
    pub fn metrics(&self) -> CacheMetrics {
        let (len, bytes) = {
            let inner = self.inner.lock().expect("profile cache lock");
            (inner.map.len(), inner.bytes)
        };
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            len,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::SumEstimator;
    use crate::recommend::recommend;
    use crate::sample::StreamAccumulator;

    fn toy() -> SampleView {
        SampleView::from_value_multiplicities([(300.0, 1), (1000.0, 2), (2000.0, 2), (10_000.0, 4)])
    }

    fn lineage_sample() -> SampleView {
        let mut acc = StreamAccumulator::new();
        for source in 0..8u32 {
            for item in 0..10u64 {
                acc.push(item % 7, (item + 1) as f64 * 10.0, source);
            }
        }
        acc.view()
    }

    #[test]
    fn statistics_match_their_direct_counterparts() {
        let v = lineage_sample();
        let p = ProfileSnapshot::new(v.clone());
        for est in SpeciesEstimator::ALL {
            assert_eq!(p.species(est), est.estimate(v.freq()), "{}", est.name());
        }
        let direct_sorted: Vec<f64> = v.items_sorted_by_value().iter().map(|i| i.value).collect();
        let cached_sorted: Vec<f64> = p.sorted_items().iter().map(|i| i.value).collect();
        assert_eq!(direct_sorted, cached_sorted);
        assert_eq!(
            p.bucket_reports(),
            DynamicBucketEstimator::default().bucketize(&v).as_slice()
        );
        assert_eq!(
            p.bucket_delta(),
            DynamicBucketEstimator::default().estimate_delta(&v)
        );
        assert_eq!(p.diagnostics(), diagnose(&v));
        assert_eq!(p.recommendation(), recommend(&v));
        assert_eq!(p.rank_multiplicities(), v.rank_multiplicities().as_slice());
    }

    #[test]
    fn each_statistic_builds_at_most_once() {
        let p = ProfileSnapshot::new(toy());
        for _ in 0..3 {
            let _ = p.sorted_items();
            let _ = p.bucket_reports();
            let _ = p.bucket_delta();
            let _ = p.diagnostics();
            let _ = p.recommendation();
            let _ = p.rank_multiplicities();
            let _ = p.species(SpeciesEstimator::Chao92);
            let _ = p.species(SpeciesEstimator::Bootstrap);
        }
        let m = p.metrics();
        assert_eq!(m.sort_builds, 1);
        assert_eq!(m.bucket_builds, 1);
        assert_eq!(m.diagnostics_builds, 1);
        assert_eq!(m.rank_builds, 1);
        assert_eq!(m.species_builds, 1);
    }

    #[test]
    fn a_lazy_profile_builds_only_what_is_read() {
        let p = ProfileSnapshot::new(lineage_sample());
        let _ = p.species(SpeciesEstimator::Chao92);
        assert_eq!(p.metrics().total_builds(), 1, "only the species ladder");
        assert_eq!(p.metrics().species_builds, 1);
    }

    #[test]
    fn repeated_reads_return_identical_values() {
        let p = ProfileSnapshot::new(toy());
        assert_eq!(p.bucket_delta(), p.bucket_delta());
        assert_eq!(p.recommendation(), p.recommendation());
        assert_eq!(
            p.species(SpeciesEstimator::Chao92),
            p.species(SpeciesEstimator::Chao92)
        );
        // Slice accessors hand out the same memoized allocation.
        assert!(std::ptr::eq(p.bucket_reports(), p.bucket_reports()));
        assert!(std::ptr::eq(p.sorted_indices(), p.sorted_indices()));
        assert!(std::ptr::eq(
            p.rank_multiplicities(),
            p.rank_multiplicities()
        ));
    }

    #[test]
    fn empty_view_profile_is_well_defined() {
        let p = ProfileSnapshot::new(SampleView::from_value_multiplicities(std::iter::empty()));
        assert!(p.bucket_reports().is_empty());
        assert_eq!(p.bucket_delta(), DeltaEstimate::UNDEFINED);
        assert_eq!(p.recommendation(), Recommendation::CollectMoreData);
        assert!(p.rank_multiplicities().is_empty());
        assert!(p.sorted_items().is_empty());
    }

    #[test]
    fn concurrent_access_builds_each_statistic_once() {
        let p = ProfileSnapshot::new(lineage_sample());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _ = p.bucket_delta();
                    let _ = p.species(SpeciesEstimator::Chao92);
                    let _ = p.recommendation();
                    let _ = p.rank_multiplicities();
                });
            }
        });
        let m = p.metrics();
        assert_eq!(m.sort_builds, 1);
        assert_eq!(m.bucket_builds, 1);
        assert_eq!(m.species_builds, 1);
    }

    /// What a capture builds: every statistic exactly once.
    const CAPTURED: ProfileMetrics = ProfileMetrics {
        sort_builds: 1,
        bucket_builds: 1,
        diagnostics_builds: 1,
        rank_builds: 1,
        species_builds: 1,
    };

    #[test]
    fn warm_builds_everything_once_and_changes_nothing() {
        let v = lineage_sample();
        let lazy = ProfileSnapshot::new(v.clone());
        let captured = ProfileSnapshot::capture(v);
        assert_eq!(captured.metrics(), CAPTURED);
        // Warming is transparent: every statistic equals the lazy value.
        for est in SpeciesEstimator::ALL {
            assert_eq!(captured.species(est), lazy.species(est));
        }
        assert_eq!(captured.sorted_indices(), lazy.sorted_indices());
        assert_eq!(captured.bucket_reports(), lazy.bucket_reports());
        assert_eq!(captured.bucket_delta(), lazy.bucket_delta());
        assert_eq!(captured.diagnostics(), lazy.diagnostics());
        assert_eq!(captured.recommendation(), lazy.recommendation());
        assert_eq!(captured.rank_multiplicities(), lazy.rank_multiplicities());
    }

    #[test]
    fn snapshot_reads_are_bit_for_bit_and_build_free() {
        let v = lineage_sample();
        let snapshot = ProfileSnapshot::capture(v.clone());
        assert_eq!(snapshot.view(), &v);
        for est in SpeciesEstimator::ALL {
            assert_eq!(snapshot.species(est), est.estimate(v.freq()));
        }
        assert_eq!(
            snapshot.bucket_delta(),
            DynamicBucketEstimator::default().estimate_delta(&v)
        );
        assert_eq!(snapshot.recommendation(), recommend(&v));
        let sorted: Vec<f64> = snapshot.sorted_items().iter().map(|i| i.value).collect();
        let direct: Vec<f64> = v.items_sorted_by_value().iter().map(|i| i.value).collect();
        assert_eq!(sorted, direct);
        // The hit path never rebuilds a statistic.
        assert_eq!(snapshot.metrics(), CAPTURED);
    }

    fn sorted_permutation(v: &SampleView) -> Vec<u32> {
        let items = v.items();
        let mut idx: Vec<u32> = (0..items.len() as u32).collect();
        idx.sort_by(|&a, &b| items[a as usize].value.total_cmp(&items[b as usize].value));
        idx
    }

    #[test]
    fn presorted_profile_reuses_the_permutation_without_sorting() {
        let v = lineage_sample();
        let reference = ProfileSnapshot::new(v.clone());
        let presorted = ProfileSnapshot::capture_presorted(v.clone(), sorted_permutation(&v));
        assert_eq!(presorted.sorted_indices(), reference.sorted_indices());
        assert_eq!(presorted.metrics().sort_builds, 0);
        assert_eq!(presorted.bucket_delta(), reference.bucket_delta());
        assert_eq!(presorted.recommendation(), reference.recommendation());
    }

    #[test]
    fn capture_presorted_matches_capture_bit_for_bit() {
        let v = lineage_sample();
        let idx = sorted_permutation(&v);
        let a = ProfileSnapshot::capture(v.clone());
        let b = ProfileSnapshot::capture_presorted(v, idx);
        for est in SpeciesEstimator::ALL {
            assert_eq!(a.species(est), b.species(est));
        }
        assert_eq!(a.bucket_reports(), b.bucket_reports());
        assert_eq!(a.bucket_delta(), b.bucket_delta());
        assert_eq!(a.diagnostics(), b.diagnostics());
        assert_eq!(a.recommendation(), b.recommendation());
        assert_eq!(a.rank_multiplicities(), b.rank_multiplicities());
        assert_eq!(a.approx_bytes(), b.approx_bytes());
    }

    #[test]
    fn refreeze_matches_capture_of_the_extended_view() {
        let v = lineage_sample();
        let frozen = ProfileSnapshot::capture(v.clone());
        // One duplicate observation of item 0, two brand-new items (one of
        // them tying an existing value so the merge's tie-break is exercised).
        let mut bumped = v.items()[0].clone();
        bumped.multiplicity += 1;
        if let Some(first) = bumped.source_counts.first_mut() {
            first.1 += 1;
        }
        let tie_value = v.items()[2].value;
        let appended = vec![
            ObservedItem {
                value: tie_value,
                multiplicity: 1,
                source_counts: vec![(3, 1)],
            },
            ObservedItem {
                value: -5.0,
                multiplicity: 2,
                source_counts: vec![(0, 2)],
            },
        ];
        let refrozen = frozen.refreeze(&[(0, bumped.clone())], appended.clone());
        let mut rebuilt_items = v.items().to_vec();
        rebuilt_items[0] = bumped;
        rebuilt_items.extend(appended);
        let rebuilt = ProfileSnapshot::capture(SampleView::from_observed_items(rebuilt_items));
        assert_eq!(refrozen.view(), rebuilt.view());
        assert_eq!(refrozen.sorted_indices(), rebuilt.sorted_indices());
        let (a, b) = (&refrozen, &rebuilt);
        for est in SpeciesEstimator::ALL {
            assert_eq!(a.species(est), b.species(est));
        }
        assert_eq!(a.bucket_reports(), b.bucket_reports());
        assert_eq!(a.bucket_delta(), b.bucket_delta());
        assert_eq!(a.diagnostics(), b.diagnostics());
        assert_eq!(a.recommendation(), b.recommendation());
        assert_eq!(a.rank_multiplicities(), b.rank_multiplicities());
    }

    #[test]
    fn refreeze_from_an_empty_snapshot_bootstraps_cleanly() {
        let empty =
            ProfileSnapshot::capture(SampleView::from_value_multiplicities(std::iter::empty()));
        let appended = vec![
            ObservedItem {
                value: 2.0,
                multiplicity: 1,
                source_counts: vec![(0, 1)],
            },
            ObservedItem {
                value: 1.0,
                multiplicity: 3,
                source_counts: vec![(1, 3)],
            },
        ];
        let refrozen = empty.refreeze(&[], appended.clone());
        let rebuilt = ProfileSnapshot::capture(SampleView::from_observed_items(appended));
        assert_eq!(refrozen.view(), rebuilt.view());
        assert_eq!(refrozen.sorted_indices(), rebuilt.sorted_indices());
    }

    #[test]
    fn drain_table_hands_back_entries_with_their_bytes_released() {
        let cache: ProfileCache<u32> = ProfileCache::new(8).with_byte_budget(1000);
        cache.insert_weighted(key("t", 0, "a"), 1, 100);
        cache.insert_weighted(key("t", 0, "b"), 2, 60);
        cache.insert_weighted(key("u", 0, "a"), 3, 40);
        let mut drained = cache.drain_table("t");
        drained.sort_by(|(ka, _), (kb, _)| ka.predicate.cmp(&kb.predicate));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].1, 1);
        assert_eq!(drained[1].1, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 40);
        assert_eq!(
            cache.metrics().invalidations,
            0,
            "a drain is not an invalidation"
        );
        // Re-inserting at a new version is an ordinary insertion.
        for (mut k, v) in drained {
            k.version += 1;
            cache.insert_weighted(k, v, 10);
        }
        assert_eq!(cache.get(&key("t", 1, "a")), Some(1));
    }

    #[test]
    fn snapshot_of_empty_view_is_well_defined() {
        let p = ProfileSnapshot::capture(SampleView::from_value_multiplicities(std::iter::empty()));
        assert_eq!(p.bucket_delta(), DeltaEstimate::UNDEFINED);
        assert_eq!(p.recommendation(), Recommendation::CollectMoreData);
        assert!(p.sorted_items().is_empty());
    }

    fn key(table: &str, version: u64, predicate: &str) -> ProfileKey {
        ProfileKey {
            table: table.to_string(),
            instance: 0,
            version,
            column: Some("v".to_string()),
            predicate: predicate.to_string(),
            group_by: None,
        }
    }

    #[test]
    fn cache_hits_misses_and_counts() {
        let cache: ProfileCache<u32> = ProfileCache::new(4);
        assert_eq!(cache.get(&key("t", 0, "p")), None);
        cache.insert(key("t", 0, "p"), 7);
        assert_eq!(cache.get(&key("t", 0, "p")), Some(7));
        // A different version is a different universe.
        assert_eq!(cache.get(&key("t", 1, "p")), None);
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.insertions, m.len), (1, 2, 1, 1));
    }

    #[test]
    fn cache_evicts_least_recently_used_at_capacity() {
        let cache: ProfileCache<u32> = ProfileCache::new(2);
        cache.insert(key("t", 0, "a"), 1);
        cache.insert(key("t", 0, "b"), 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(&key("t", 0, "a")), Some(1));
        cache.insert(key("t", 0, "c"), 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key("t", 0, "b")), None, "LRU entry evicted");
        assert_eq!(cache.get(&key("t", 0, "a")), Some(1));
        assert_eq!(cache.get(&key("t", 0, "c")), Some(3));
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_but_keeps_the_newest_entry() {
        let cache: ProfileCache<u32> = ProfileCache::new(64).with_byte_budget(100);
        cache.insert_weighted(key("t", 0, "a"), 1, 40);
        cache.insert_weighted(key("t", 0, "b"), 2, 40);
        assert_eq!(cache.bytes(), 80);
        // 120 > 100: "a" (LRU) must go.
        cache.insert_weighted(key("t", 0, "c"), 3, 40);
        assert_eq!(cache.get(&key("t", 0, "a")), None);
        assert_eq!(cache.get(&key("t", 0, "b")), Some(2));
        assert_eq!(cache.get(&key("t", 0, "c")), Some(3));
        assert_eq!(cache.bytes(), 80);
        // A single oversized entry evicts everything else but stays itself.
        cache.insert_weighted(key("t", 0, "huge"), 9, 500);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key("t", 0, "huge")), Some(9));
        let m = cache.metrics();
        assert_eq!(m.bytes, 500);
        assert_eq!(m.evictions, 3);
    }

    #[test]
    fn replacing_an_entry_reaccounts_its_weight() {
        let cache: ProfileCache<u32> = ProfileCache::new(8).with_byte_budget(1000);
        cache.insert_weighted(key("t", 0, "a"), 1, 300);
        cache.insert_weighted(key("t", 0, "a"), 2, 120);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 120);
        assert_eq!(cache.get(&key("t", 0, "a")), Some(2));
    }

    #[test]
    fn unweighted_inserts_ignore_the_byte_budget() {
        let cache: ProfileCache<u32> = ProfileCache::new(8).with_byte_budget(1);
        cache.insert(key("t", 0, "a"), 1);
        cache.insert(key("t", 0, "b"), 2);
        assert_eq!(cache.len(), 2, "zero-weight entries never exceed a budget");
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn ttl_expires_entries_on_lookup() {
        let cache: ProfileCache<u32> =
            ProfileCache::new(8).with_ttl(std::time::Duration::from_millis(15));
        cache.insert_weighted(key("t", 0, "a"), 1, 10);
        assert_eq!(cache.get(&key("t", 0, "a")), Some(1), "fresh entry hits");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(cache.get(&key("t", 0, "a")), None, "expired entry dropped");
        let m = cache.metrics();
        assert_eq!(m.expirations, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.len, 0);
        assert_eq!(m.bytes, 0, "expired entry's weight is released");
    }

    #[test]
    fn invalidation_releases_accounted_bytes() {
        let cache: ProfileCache<u32> = ProfileCache::new(8).with_byte_budget(1000);
        cache.insert_weighted(key("t", 0, "a"), 1, 100);
        cache.insert_weighted(key("u", 0, "a"), 2, 50);
        assert_eq!(cache.invalidate_table("t"), 1);
        assert_eq!(cache.bytes(), 50);
        cache.clear();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn snapshot_approx_bytes_scales_with_the_view() {
        let small = ProfileSnapshot::capture(SampleView::from_value_multiplicities(
            (0..10).map(|i| (i as f64, 1)),
        ));
        let large = ProfileSnapshot::capture(SampleView::from_value_multiplicities(
            (0..1000).map(|i| (i as f64, 1)),
        ));
        assert!(small.approx_bytes() > 0);
        assert!(large.approx_bytes() > 10 * small.approx_bytes());
    }

    #[test]
    fn cache_invalidation_is_per_table() {
        let cache: ProfileCache<u32> = ProfileCache::new(8);
        cache.insert(key("t", 0, "a"), 1);
        cache.insert(key("t", 0, "b"), 2);
        cache.insert(key("u", 0, "a"), 3);
        assert_eq!(cache.invalidate_table("t"), 2);
        assert_eq!(cache.get(&key("t", 0, "a")), None);
        assert_eq!(cache.get(&key("u", 0, "a")), Some(3));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.metrics().invalidations, 3);
    }
}
