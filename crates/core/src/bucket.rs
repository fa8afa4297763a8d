//! Bucket estimators (paper §3.3, Appendix B).
//!
//! Buckets divide the observed value range into sub-ranges that are estimated
//! independently and summed: `Δ_bucket = Σ_b Δ(b)` (Eq. 11). This confines
//! the publicity–value correlation — each bucket's mean substitution only
//! sees values of its own magnitude — at the price of thinner statistics per
//! bucket.
//!
//! * [`StaticBucketEstimator`] — fixed equi-width or equi-height buckets
//!   (§3.3.1). Simple, but the right bucket count depends on the unknown
//!   publicity distribution; buckets that end up empty or all-singleton make
//!   the whole estimate undefined (the "missing data points" of Figures 8–9).
//! * [`DynamicBucketEstimator`] — the paper's conservative splitter
//!   (Algorithm 1): starting from one bucket covering everything, recursively
//!   accept only splits that *strictly decrease* the total `Σ_b |Δ(b)|`.
//!   The legitimacy of "smaller is better" rests on the split lemma
//!   (Eq. 13–14): under an even split the count estimate can only grow, so an
//!   increase signals estimation error while a decrease signals genuine
//!   structure.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::estimate::{DeltaEstimate, SumEstimator};
use crate::naive::NaiveEstimator;
use crate::profile::ProfileSnapshot;
use crate::sample::{ObservedItem, SampleView};
use uu_stats::species::chao92_from_counts;

/// Per-bucket diagnostics produced by [`DynamicBucketEstimator::bucketize`]
/// and consumed by the AVG/MIN/MAX strategies (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketReport {
    /// Smallest value in the bucket.
    pub lo: f64,
    /// Largest value in the bucket.
    pub hi: f64,
    /// Unique entities in the bucket.
    pub c: u64,
    /// Observations in the bucket.
    pub n: u64,
    /// Singletons in the bucket.
    pub f1: u64,
    /// Observed SUM over the bucket's unique entities.
    pub observed_sum: f64,
    /// The bucket's Δ estimate (and its `N̂`).
    pub estimate: DeltaEstimate,
}

impl BucketReport {
    /// Estimated number of unknown unknowns in this bucket (`N̂ − c`),
    /// `None` when the bucket's estimator is undefined.
    pub fn unknown_count(&self) -> Option<f64> {
        self.estimate.n_hat.map(|nh| (nh - self.c as f64).max(0.0))
    }
}

/// Builds a sub-sample from a sorted slice of items.
fn subview(items: &[&ObservedItem]) -> SampleView {
    SampleView::from_observed_items(items.iter().map(|&i| i.clone()).collect())
}

/// Sums per-bucket estimates into the total `Δ_bucket = Σ_b Δ(b)` (Eq. 11).
///
/// Any undefined bucket — or an empty partition — makes the total undefined,
/// matching [`DynamicBucketEstimator::estimate_delta`]'s semantics. Shared by
/// the direct path and [`ProfileSnapshot::bucket_delta`], so the two agree
/// bit-for-bit by construction.
pub fn delta_over_buckets(buckets: &[BucketReport]) -> DeltaEstimate {
    if buckets.is_empty() {
        return DeltaEstimate::UNDEFINED;
    }
    let mut delta = 0.0;
    let mut n_hat = 0.0;
    for b in buckets {
        match (b.estimate.delta, b.estimate.n_hat) {
            (Some(d), Some(nh)) => {
                delta += d;
                n_hat += nh;
            }
            _ => return DeltaEstimate::UNDEFINED,
        }
    }
    DeltaEstimate::new(delta, n_hat)
}

fn report_for(items: &[&ObservedItem], estimate: DeltaEstimate) -> BucketReport {
    let c = items.len() as u64;
    let n: u64 = items.iter().map(|i| i.multiplicity).sum();
    let f1 = items.iter().filter(|i| i.multiplicity == 1).count() as u64;
    // Folded from +0.0, as `SampleView::from_observed_items` does
    // (`Iterator::sum` starts at −0.0, which differs for all-−0.0 input).
    let observed_sum = items.iter().fold(0.0, |acc, i| acc + i.value);
    BucketReport {
        lo: items.first().map(|i| i.value).unwrap_or(f64::NAN),
        hi: items.last().map(|i| i.value).unwrap_or(f64::NAN),
        c,
        n,
        f1,
        observed_sum,
        estimate,
    }
}

// ---------------------------------------------------------------------------
// Dynamic buckets (Algorithm 1)
// ---------------------------------------------------------------------------

/// The paper's dynamic bucket estimator (§3.3.2, Algorithm 1).
///
/// The inner estimator applied per bucket defaults to [`NaiveEstimator`]
/// (what the paper evaluates); [`crate::combined`] wires in the frequency and
/// Monte-Carlo estimators for the Appendix D ablations.
///
/// # Examples
///
/// ```
/// use uu_core::sample::SampleView;
/// use uu_core::bucket::DynamicBucketEstimator;
/// use uu_core::estimate::SumEstimator;
///
/// // Toy example after s5 (Table 2): expect exactly 13 950.
/// let s = SampleView::from_value_multiplicities([
///     (300.0, 1), (1000.0, 2), (2000.0, 2), (10_000.0, 4),
/// ]);
/// let est = DynamicBucketEstimator::default().estimate_sum(&s).unwrap();
/// assert!((est - 13_950.0).abs() < 1e-6);
/// ```
pub struct DynamicBucketEstimator {
    inner: Box<dyn SumEstimator + Send + Sync>,
    /// True when `inner` is the stock [`NaiveEstimator`] — the configuration
    /// whose partition [`ProfileSnapshot`] memoizes, letting the profiled path
    /// reuse it instead of re-splitting.
    inner_is_default: bool,
}

impl Default for DynamicBucketEstimator {
    fn default() -> Self {
        DynamicBucketEstimator {
            inner: Box::new(NaiveEstimator::default()),
            inner_is_default: true,
        }
    }
}

impl std::fmt::Debug for DynamicBucketEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicBucketEstimator")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl DynamicBucketEstimator {
    /// Uses `inner` as the per-bucket Δ estimator.
    pub fn with_inner(inner: impl SumEstimator + Send + Sync + 'static) -> Self {
        DynamicBucketEstimator {
            inner: Box::new(inner),
            inner_is_default: false,
        }
    }

    /// Runs Algorithm 1 and returns the final buckets with their estimates,
    /// ordered by value range. Returns an empty vector for an empty sample.
    pub fn bucketize(&self, sample: &SampleView) -> Vec<BucketReport> {
        if sample.is_empty() {
            return Vec::new();
        }
        self.bucketize_sorted(&sample.items_sorted_by_value())
    }

    /// [`Self::bucketize`] over an externally sorted item list (ascending by
    /// value) — the entry point for callers holding a memoized sort, such as
    /// [`ProfileSnapshot::bucket_reports`].
    ///
    /// With the stock naïve inner estimator this runs the vectorized dense
    /// splitter (prefix counts over the presorted column, no per-candidate
    /// [`SampleView`] materialisation); custom inner estimators fall back to
    /// the row reference path ([`Self::bucketize_sorted_rows`]). Results are
    /// bit-for-bit identical either way.
    pub fn bucketize_sorted(&self, sorted: &[&ObservedItem]) -> Vec<BucketReport> {
        if sorted.is_empty() {
            return Vec::new();
        }
        if self.inner_is_default {
            return bucketize_sorted_dense(sorted);
        }
        self.bucketize_sorted_rows(sorted)
    }

    /// The row reference implementation of [`Self::bucketize_sorted`]: every
    /// candidate sub-range is materialised as a [`SampleView`] and handed to
    /// the inner estimator. Kept as the parity oracle for the dense path (and
    /// as the only path for custom inner estimators, whose statistics aren't
    /// expressible as prefix counts). Range estimates are memoized, so the
    /// inner estimator runs at most once per distinct range however often
    /// the candidate loop revisits it.
    pub fn bucketize_sorted_rows(&self, sorted: &[&ObservedItem]) -> Vec<BucketReport> {
        if sorted.is_empty() {
            return Vec::new();
        }
        let ranges = split_ranges_with(
            sorted.len(),
            |k| sorted[k - 1].value == sorted[k].value,
            memoized(|lo, hi| self.inner.estimate_delta(&subview(&sorted[lo..hi]))),
        );
        ranges
            .into_iter()
            .map(|(lo, hi, est)| report_for(&sorted[lo..hi], est))
            .collect()
    }
}

/// `delta_of` run at most once per distinct range. Worth its hash probe only
/// when `delta_of` is not O(1): a bucket's candidates re-evaluate every
/// prefix (left child) or suffix (right child) range its parent's
/// candidate loop already saw.
fn memoized(
    mut delta_of: impl FnMut(usize, usize) -> DeltaEstimate,
) -> impl FnMut(usize, usize) -> DeltaEstimate {
    let mut memo: HashMap<(usize, usize), DeltaEstimate> = HashMap::new();
    move |lo, hi| *memo.entry((lo, hi)).or_insert_with(|| delta_of(lo, hi))
}

/// Algorithm 1 over index ranges of a sorted item list of length `len`:
/// `same_value(k)` reports whether positions `k-1` and `k` hold the same
/// value (items sharing a value stay together), `delta_of(lo, hi)` produces
/// the Δ estimate of the half-open range. Returns the final `(lo, hi, Δ)`
/// ranges sorted by `lo`. A bucket of m items calls `delta_of` O(m) times
/// per level, and may call it again for a range it has already seen:
/// memoizing is the caller's choice (see [`memoized`]: the dense fast
/// path's O(1) `delta_of` is cheaper than a hash probe).
///
/// Shared by the row reference path and the dense columnar path — both
/// traverse identical split sequences by construction, so any divergence can
/// only come from the per-range Δ computation itself (pinned by tests).
fn split_ranges_with(
    len: usize,
    same_value: impl Fn(usize) -> bool,
    mut delta_of: impl FnMut(usize, usize) -> DeltaEstimate,
) -> Vec<(usize, usize, DeltaEstimate)> {
    let full = (0usize, len);

    // δ_min tracks the total Σ|Δ| over the current bucketing.
    let mut delta_min = delta_of(full.0, full.1).abs_or_infinite();
    let mut todo: VecDeque<(usize, usize)> = VecDeque::from([full]);
    let mut done: Vec<(usize, usize, DeltaEstimate)> = Vec::new();

    while let Some((lo, hi)) = todo.pop_front() {
        let own = delta_of(lo, hi);
        let own_abs = own.abs_or_infinite();
        if !own_abs.is_finite() {
            // An undefined bucket can never be improved by the strict
            // comparison below; keep it whole.
            done.push((lo, hi, own));
            continue;
        }
        // Total of all other buckets.
        let delta_tmp = delta_min - own_abs;
        let mut best: Option<usize> = None;
        // Candidate split points: boundaries between distinct values
        // ("for unique r ∈ b: split(b, r.value)"); splitting after the
        // last distinct value would leave t2 empty and is skipped.
        for k in (lo + 1)..hi {
            if same_value(k) {
                continue; // items sharing a value stay together
            }
            let cand =
                delta_tmp + delta_of(lo, k).abs_or_infinite() + delta_of(k, hi).abs_or_infinite();
            if cand < delta_min {
                delta_min = cand;
                best = Some(k);
            }
        }
        match best {
            Some(k) => {
                todo.push_back((lo, k));
                todo.push_back((k, hi));
            }
            None => done.push((lo, hi, own)),
        }
    }
    done.sort_by_key(|&(lo, _, _)| lo);
    done
}

/// The presorted columnar layout the dense splitter runs over: the value
/// column plus exclusive prefix arrays of the statistics the naïve/Chao92
/// pipeline consumes. Every statistic of a candidate range `[lo, hi)` is
/// two array reads and a subtraction. That is exact for `n`, `f1` and
/// `Σ m(m−1)`, which are integer sums. The one float statistic, the range
/// sum `φ_K`, goes through [`DenseSorted::range_sum`], which returns the
/// bits of the sequential fold over `values[lo..hi]` that
/// [`SampleView::from_observed_items`] computes: a prefix difference when
/// [`exact_prefix_sums`] proves every partial sum exact, the fold itself
/// otherwise.
struct DenseSorted {
    values: Vec<f64>,
    /// `prefix_n[i]` = Σ multiplicity over items `[0, i)`.
    prefix_n: Vec<u64>,
    /// `prefix_f1[i]` = singleton count over items `[0, i)`.
    prefix_f1: Vec<u64>,
    /// `prefix_sii[i]` = Σ m(m−1) over items `[0, i)` — identical to the
    /// ladder sum `Σ_i i(i−1)f_i` of the range, exactly, in u64.
    prefix_sii: Vec<u64>,
    /// `prefix_sum[i]` = Σ value over items `[0, i)`, present only when every
    /// range sum read from it is exact (see [`exact_prefix_sums`]).
    prefix_sum: Option<Vec<f64>>,
}

impl DenseSorted {
    fn new(sorted: &[&ObservedItem]) -> Self {
        let len = sorted.len();
        let mut values = Vec::with_capacity(len);
        let mut prefix_n = Vec::with_capacity(len + 1);
        let mut prefix_f1 = Vec::with_capacity(len + 1);
        let mut prefix_sii = Vec::with_capacity(len + 1);
        let (mut n, mut f1, mut sii) = (0u64, 0u64, 0u64);
        prefix_n.push(0);
        prefix_f1.push(0);
        prefix_sii.push(0);
        for item in sorted {
            values.push(item.value);
            n += item.multiplicity;
            f1 += u64::from(item.multiplicity == 1);
            sii += item.multiplicity * (item.multiplicity - 1);
            prefix_n.push(n);
            prefix_f1.push(f1);
            prefix_sii.push(sii);
        }
        let prefix_sum = exact_prefix_sums(&values);
        DenseSorted {
            values,
            prefix_n,
            prefix_f1,
            prefix_sii,
            prefix_sum,
        }
    }

    /// Σ `values[lo..hi]`, bit-for-bit the sequential fold from +0.0 that
    /// [`SampleView::from_observed_items`] computes over the same items. O(1)
    /// from the prefix array when it exists; O(hi − lo) otherwise — the
    /// only bit-exact option for values off any short binary grid.
    fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        match &self.prefix_sum {
            Some(prefix) => prefix[hi] - prefix[lo],
            None => self.values[lo..hi].iter().fold(0.0, |acc, v| acc + v),
        }
    }

    /// The naïve(Chao92) Δ of range `[lo, hi)` — what the row path computes
    /// as `NaiveEstimator::default().estimate_delta(&subview(..))`, without
    /// building the subview.
    fn delta_of(&self, lo: usize, hi: usize) -> DeltaEstimate {
        let c = (hi - lo) as u64;
        let n = self.prefix_n[hi] - self.prefix_n[lo];
        let f1 = self.prefix_f1[hi] - self.prefix_f1[lo];
        let sii = self.prefix_sii[hi] - self.prefix_sii[lo];
        match chao92_from_counts(n, c, f1, sii).value() {
            Some(n_hat) => NaiveEstimator::delta_from_stats(c, self.range_sum(lo, hi), n_hat),
            None => DeltaEstimate::UNDEFINED,
        }
    }

    fn report(&self, lo: usize, hi: usize, estimate: DeltaEstimate) -> BucketReport {
        BucketReport {
            lo: self.values.get(lo).copied().unwrap_or(f64::NAN),
            hi: if hi > lo {
                self.values[hi - 1]
            } else {
                f64::NAN
            },
            c: (hi - lo) as u64,
            n: self.prefix_n[hi] - self.prefix_n[lo],
            f1: self.prefix_f1[hi] - self.prefix_f1[lo],
            observed_sum: self.range_sum(lo, hi),
            estimate,
        }
    }
}

/// Exclusive prefix sums of `values` (folded from +0.0), or `None` unless
/// every sum of every sub-range is exact in `f64`.
///
/// The test: every value and `Σ|v|` are finite, and `Σ|v| ≤ 2^52·2^q`,
/// where `q` is the smallest exponent of any value's lowest set bit (an
/// all-zero column passes trivially). Every value is then an integer
/// multiple of `2^q`, and so is every partial sum of every sub-range, with
/// magnitude at most `Σ|v|` — representable, so each addition and each
/// prefix difference is exact, and `prefix[hi] − prefix[lo]` equals the
/// sequential fold over `values[lo..hi]` bit for bit. (The computed `Σ|v|`
/// is itself exact under the bound: rounding is monotone, so a partial sum
/// past `2^53·2^q` would have rounded to at least that.) Zeros agree in sign
/// too: both sides start from +0.0, and an exact zero from `x + y` or
/// `x − x` is +0.0 unless both operands are −0.0.
///
/// Integer columns, Table 2, and grids such as multiples of 0.5 or 7.5 pass;
/// arbitrary decimals like 0.1 do not.
fn exact_prefix_sums(values: &[f64]) -> Option<Vec<f64>> {
    let mut q = i32::MAX;
    let mut abs_sum = 0.0f64;
    for &v in values {
        if !v.is_finite() {
            return None;
        }
        if v != 0.0 {
            q = q.min(lowest_set_bit_exp(v));
        }
        abs_sum += v.abs();
    }
    // `pow2` is +∞ for the largest `q`, where finiteness alone bounds Σ|v|.
    let limit = if q == i32::MAX { 0.0 } else { pow2(52 + q) };
    if !(abs_sum.is_finite() && abs_sum <= limit) {
        return None;
    }
    let mut prefix = Vec::with_capacity(values.len() + 1);
    let mut acc = 0.0;
    prefix.push(acc);
    for &v in values {
        acc += v;
        prefix.push(acc);
    }
    Some(prefix)
}

/// The exponent `e` of the lowest set bit of finite, non-zero `v`: `v` is an
/// odd integer times `2^e`.
fn lowest_set_bit_exp(v: f64) -> i32 {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1u64 << 52) - 1);
    let (significand, exp) = if biased == 0 {
        (fraction, -1074) // subnormal
    } else {
        (fraction | (1u64 << 52), biased - 1075)
    };
    exp + significand.trailing_zeros() as i32
}

/// `2^e` for `e ≥ −1022` (a normal power of two); +∞ past the `f64` range.
fn pow2(e: i32) -> f64 {
    debug_assert!(e >= -1022);
    if e > 1023 {
        f64::INFINITY
    } else {
        f64::from_bits(((e + 1023) as u64) << 52)
    }
}

/// The dense columnar splitter: one pass to build [`DenseSorted`], then
/// Algorithm 1 with O(1) candidate evaluation — so a level of the split
/// costs O(m) for a bucket of m items — whenever the range sums come from
/// the prefix array. Off that grid each candidate folds its range in
/// O(m), so the Δ estimates are [`memoized`]. No intermediate
/// `SampleView`/`ObservedItem` allocation anywhere on the path.
fn bucketize_sorted_dense(sorted: &[&ObservedItem]) -> Vec<BucketReport> {
    let dense = DenseSorted::new(sorted);
    let same_value = |k: usize| dense.values[k - 1] == dense.values[k];
    let delta_of = |lo, hi| dense.delta_of(lo, hi);
    let ranges = if dense.prefix_sum.is_some() {
        split_ranges_with(sorted.len(), same_value, delta_of)
    } else {
        split_ranges_with(sorted.len(), same_value, memoized(delta_of))
    };
    ranges
        .into_iter()
        .map(|(lo, hi, est)| dense.report(lo, hi, est))
        .collect()
}

impl SumEstimator for DynamicBucketEstimator {
    fn name(&self) -> &'static str {
        "bucket"
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        if sample.is_empty() {
            return DeltaEstimate::UNDEFINED;
        }
        delta_over_buckets(&self.bucketize(sample))
    }

    fn estimate_delta_profiled(&self, profile: &ProfileSnapshot) -> DeltaEstimate {
        if self.inner_is_default {
            // The profile memoizes exactly this partition.
            return profile.bucket_delta();
        }
        // Custom inner estimator: the partition differs, but the sort is
        // still shareable.
        if profile.view().is_empty() {
            return DeltaEstimate::UNDEFINED;
        }
        delta_over_buckets(&self.bucketize_sorted(&profile.sorted_items()))
    }
}

// ---------------------------------------------------------------------------
// Static buckets (§3.3.1, Appendix B)
// ---------------------------------------------------------------------------

/// Partitioning rule for [`StaticBucketEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticStrategy {
    /// `nb` buckets of equal value-range width (Eq. 12).
    EquiWidth,
    /// `nb` buckets of (approximately) equal unique-item count, after sorting
    /// by value.
    EquiHeight,
}

/// Fixed-bucketing estimator (§3.3.1).
///
/// Matches the paper's semantics for pathological partitions: a bucket that
/// is *empty* or whose estimate is undefined (all singletons) makes the whole
/// estimate undefined — these are the missing data points in Figures 8–9.
pub struct StaticBucketEstimator {
    strategy: StaticStrategy,
    num_buckets: usize,
    inner: Box<dyn SumEstimator + Send + Sync>,
}

impl std::fmt::Debug for StaticBucketEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticBucketEstimator")
            .field("strategy", &self.strategy)
            .field("num_buckets", &self.num_buckets)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl StaticBucketEstimator {
    /// Creates a static bucketing estimator with the naïve inner estimator.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets == 0`.
    pub fn new(strategy: StaticStrategy, num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        StaticBucketEstimator {
            strategy,
            num_buckets,
            inner: Box::new(NaiveEstimator::default()),
        }
    }

    /// Replaces the per-bucket estimator.
    pub fn with_inner(mut self, inner: impl SumEstimator + Send + Sync + 'static) -> Self {
        self.inner = Box::new(inner);
        self
    }

    /// Partitions the sorted items into the configured buckets. Buckets may
    /// be empty (for equi-width partitions of sparse ranges); empty buckets
    /// carry an undefined estimate.
    pub fn bucketize(&self, sample: &SampleView) -> Vec<BucketReport> {
        if sample.is_empty() {
            return Vec::new();
        }
        let sorted = sample.items_sorted_by_value();
        let groups: Vec<Vec<&ObservedItem>> = match self.strategy {
            StaticStrategy::EquiWidth => {
                let min = sorted.first().expect("non-empty").value;
                let max = sorted.last().expect("non-empty").value;
                let width = (max - min) / self.num_buckets as f64;
                let mut groups: Vec<Vec<&ObservedItem>> = vec![Vec::new(); self.num_buckets];
                for &item in &sorted {
                    let idx = if width > 0.0 {
                        (((item.value - min) / width) as usize).min(self.num_buckets - 1)
                    } else {
                        0 // all values identical
                    };
                    groups[idx].push(item);
                }
                groups
            }
            StaticStrategy::EquiHeight => {
                let per = sorted.len().div_ceil(self.num_buckets);
                sorted.chunks(per.max(1)).map(|ch| ch.to_vec()).collect()
            }
        };
        groups
            .into_iter()
            .map(|g| {
                let est = if g.is_empty() {
                    DeltaEstimate::UNDEFINED
                } else {
                    self.inner.estimate_delta(&subview(&g))
                };
                report_for(&g, est)
            })
            .collect()
    }
}

impl SumEstimator for StaticBucketEstimator {
    fn name(&self) -> &'static str {
        match self.strategy {
            StaticStrategy::EquiWidth => "static-eqwidth",
            StaticStrategy::EquiHeight => "static-eqheight",
        }
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        if sample.is_empty() {
            return DeltaEstimate::UNDEFINED;
        }
        delta_over_buckets(&self.bucketize(sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::FrequencyEstimator;
    use proptest::prelude::*;

    fn toy_before() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)])
    }

    fn toy_after() -> SampleView {
        SampleView::from_value_multiplicities([(300.0, 1), (1000.0, 2), (2000.0, 2), (10_000.0, 4)])
    }

    #[test]
    fn table2_before_s5() {
        // Paper: buckets {A,B} and {D}; Δ = 1500 ⇒ 14 500.
        let est = DynamicBucketEstimator::default();
        let sum = est.estimate_sum(&toy_before()).unwrap();
        assert!((sum - 14_500.0).abs() < 1e-6, "sum {sum}");
        let buckets = est.bucketize(&toy_before());
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].c, 2); // {A, B}
        assert_eq!(buckets[1].c, 1); // {D}
        assert!((buckets[0].estimate.delta.unwrap() - 1500.0).abs() < 1e-9);
        assert_eq!(buckets[1].estimate.delta, Some(0.0));
    }

    #[test]
    fn table2_after_s5() {
        // Paper: Δ = 650 ⇒ 13 950 (bucket {A,E} contributes everything).
        let est = DynamicBucketEstimator::default();
        let sum = est.estimate_sum(&toy_after()).unwrap();
        assert!((sum - 13_950.0).abs() < 1e-6, "sum {sum}");
        let buckets = est.bucketize(&toy_after());
        // The low bucket must contain exactly {E, A}.
        assert_eq!(buckets[0].c, 2);
        assert_eq!(buckets[0].lo, 300.0);
        assert_eq!(buckets[0].hi, 1000.0);
        assert!((buckets[0].estimate.delta.unwrap() - 650.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_never_exceeds_the_unsplit_estimate() {
        // The splitter only accepts strict improvements of Σ|Δ|.
        let samples = [toy_before(), toy_after()];
        for s in &samples {
            let naive = NaiveEstimator::default()
                .estimate_delta(s)
                .abs_or_infinite();
            let bucket = DynamicBucketEstimator::default()
                .estimate_delta(s)
                .abs_or_infinite();
            assert!(bucket <= naive + 1e-9, "bucket {bucket} > naive {naive}");
        }
    }

    #[test]
    fn buckets_partition_the_items() {
        let est = DynamicBucketEstimator::default();
        let s = toy_after();
        let buckets = est.bucketize(&s);
        let total_c: u64 = buckets.iter().map(|b| b.c).sum();
        let total_n: u64 = buckets.iter().map(|b| b.n).sum();
        assert_eq!(total_c, s.c());
        assert_eq!(total_n, s.n());
        // Ranges are ordered and non-overlapping.
        for w in buckets.windows(2) {
            assert!(w[0].hi < w[1].lo);
        }
    }

    #[test]
    fn empty_sample_is_undefined() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        assert!(!DynamicBucketEstimator::default()
            .estimate_delta(&s)
            .is_defined());
        assert!(DynamicBucketEstimator::default().bucketize(&s).is_empty());
    }

    #[test]
    fn all_singletons_is_undefined_single_bucket() {
        let s = SampleView::from_value_multiplicities([(1.0, 1), (2.0, 1), (3.0, 1)]);
        let est = DynamicBucketEstimator::default();
        assert!(!est.estimate_delta(&s).is_defined());
        let buckets = est.bucketize(&s);
        assert_eq!(buckets.len(), 1, "undefined bucket must not split");
    }

    #[test]
    fn identical_values_cannot_be_split() {
        let s = SampleView::from_value_multiplicities([(5.0, 1), (5.0, 2), (5.0, 3)]);
        let est = DynamicBucketEstimator::default();
        let buckets = est.bucketize(&s);
        assert_eq!(buckets.len(), 1);
    }

    #[test]
    fn frequency_inner_works() {
        let est = DynamicBucketEstimator::with_inner(FrequencyEstimator::default());
        let d = est.estimate_delta(&toy_before());
        assert!(d.is_defined());
        // Inner freq on bucket {A,B}: φ_f1 = 1000, Δ = 1000·(2+0·3)/(3−1) = 1000.
        // Bucket total 1000 < whole-sample freq Δ? whole: 1000·(25/6)/6 ≈ 694.
        // The splitter keeps whichever is smaller in absolute terms.
        assert!(d.delta.unwrap() <= 1000.0 + 1e-9);
    }

    #[test]
    fn unknown_count_accessor() {
        let est = DynamicBucketEstimator::default();
        let buckets = est.bucketize(&toy_before());
        // {A,B}: N̂ = 3, c = 2 ⇒ one unknown company.
        assert!((buckets[0].unknown_count().unwrap() - 1.0).abs() < 1e-9);
        assert!((buckets[1].unknown_count().unwrap() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn equiwidth_buckets_partition_value_range() {
        let s = toy_after();
        let est = StaticBucketEstimator::new(StaticStrategy::EquiWidth, 2);
        let buckets = est.bucketize(&s);
        assert_eq!(buckets.len(), 2);
        // Width = (10000-300)/2 = 4850: bucket 1 gets E,A,B; bucket 2 gets D.
        assert_eq!(buckets[0].c, 3);
        assert_eq!(buckets[1].c, 1);
    }

    #[test]
    fn equiwidth_with_empty_bucket_is_undefined() {
        // Values cluster at the extremes; middle bucket is empty.
        let s = SampleView::from_value_multiplicities([(0.0, 2), (1.0, 3), (100.0, 2)]);
        let est = StaticBucketEstimator::new(StaticStrategy::EquiWidth, 10);
        assert!(!est.estimate_delta(&s).is_defined());
    }

    #[test]
    fn equiheight_buckets_have_balanced_counts() {
        let s = SampleView::from_value_multiplicities((0..20).map(|i| (i as f64 * 10.0, 2u64)));
        let est = StaticBucketEstimator::new(StaticStrategy::EquiHeight, 4);
        let buckets = est.bucketize(&s);
        assert_eq!(buckets.len(), 4);
        assert!(buckets.iter().all(|b| b.c == 5));
    }

    #[test]
    fn single_bucket_static_equals_naive() {
        let s = toy_before();
        let naive = NaiveEstimator::default().estimate_delta(&s).delta.unwrap();
        for strategy in [StaticStrategy::EquiWidth, StaticStrategy::EquiHeight] {
            let est = StaticBucketEstimator::new(strategy, 1);
            let d = est.estimate_delta(&s).delta.unwrap();
            assert!((d - naive).abs() < 1e-9, "{strategy:?}");
        }
    }

    #[test]
    fn constant_valued_sample_equiwidth() {
        // Degenerate width 0: everything lands in bucket 0.
        let s = SampleView::from_value_multiplicities([(5.0, 2), (5.0, 3)]);
        let est = StaticBucketEstimator::new(StaticStrategy::EquiWidth, 3);
        assert!(!est.estimate_delta(&s).is_defined()); // buckets 1,2 empty
        let one = StaticBucketEstimator::new(StaticStrategy::EquiWidth, 1);
        assert!(one.estimate_delta(&s).is_defined());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        StaticBucketEstimator::new(StaticStrategy::EquiWidth, 0);
    }

    /// Every field of every report, floats as their bit patterns:
    /// `PartialEq` on `f64` treats +0.0 and −0.0 as equal, so comparing
    /// reports directly cannot pin "same bits".
    type ReportBits = (u64, u64, u64, u64, u64, u64, Option<u64>, Option<u64>);

    fn report_bits(reports: &[BucketReport]) -> Vec<ReportBits> {
        reports
            .iter()
            .map(|r| {
                (
                    r.lo.to_bits(),
                    r.hi.to_bits(),
                    r.c,
                    r.n,
                    r.f1,
                    r.observed_sum.to_bits(),
                    r.estimate.delta.map(f64::to_bits),
                    r.estimate.n_hat.map(f64::to_bits),
                )
            })
            .collect()
    }

    /// Dense and row splitters over the same sorted items, as bits.
    fn both_paths(s: &SampleView) -> (Vec<ReportBits>, Vec<ReportBits>) {
        let sorted = s.items_sorted_by_value();
        let est = DynamicBucketEstimator::default();
        (
            report_bits(&est.bucketize_sorted(&sorted)),
            report_bits(&est.bucketize_sorted_rows(&sorted)),
        )
    }

    /// Maps a generated `(raw, sign)` pair onto one value shape: signed
    /// zeros (mostly −0.0, beside ±1 so sums cross zero and ±0.1 so some
    /// columns take the fallback), multiples of 0.5 and of 7.5, integers of
    /// 2^46..2^51 whose Σ|v| straddles the 2^52 exactness guard, coarse
    /// multiples of 2^40, and off-grid floats (decimals and wide-exponent
    /// bit patterns) that take the sequential fallback.
    fn shaped_value(shape: u32, raw: u64, negative: bool) -> f64 {
        let v = match shape {
            0 => [-0.0, -0.0, 1.0, 0.1][(raw % 4) as usize],
            1 => (raw % 2_000) as f64 * 0.5,
            2 => (raw % 1_000) as f64 * 7.5,
            3 => ((1u64 << (46 + raw % 6)) + (raw >> 8) % (1 << 20)) as f64,
            4 => (raw % (1 << 20)) as f64 * 2f64.powi(40),
            5 => (raw % 100_000) as f64 * 0.1,
            _ => {
                // Finite, normal, exponents spread over ±2^40.
                let exp = 1023 - 40 + raw % 81;
                f64::from_bits((exp << 52) | (raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12))
            }
        };
        if negative {
            -v
        } else {
            v
        }
    }

    #[test]
    fn exactness_guard_accepts_grids_and_rejects_the_rest() {
        assert!(exact_prefix_sums(&[]).is_some());
        assert!(exact_prefix_sums(&[0.0, -0.0, 0.0]).is_some());
        assert!(exact_prefix_sums(&[300.0, 1000.0, 2000.0, 10_000.0]).is_some());
        let grid: Vec<f64> = (1..=1_000).map(|i| f64::from(i) * 7.5).collect();
        assert!(exact_prefix_sums(&grid).is_some());
        assert!(exact_prefix_sums(&[0.5, -1.5, 2.0]).is_some());
        assert!(exact_prefix_sums(&[f64::MIN_POSITIVE / 4.0, 1e-310]).is_some());
        assert!(exact_prefix_sums(&[2f64.powi(1000), -2f64.powi(1020)]).is_some());
        // Σ|v| = 2^52 exactly passes; one more unit does not.
        assert!(exact_prefix_sums(&[2f64.powi(51), 2f64.powi(51) - 1.0, 1.0]).is_some());
        assert!(exact_prefix_sums(&[2f64.powi(51), 2f64.powi(51), 1.0]).is_none());
        // Magnitude, not the signed total, is what is bounded.
        assert!(exact_prefix_sums(&[2f64.powi(52), -2f64.powi(52), 1.0]).is_none());
        assert!(exact_prefix_sums(&[0.1, 0.2]).is_none());
        assert!(exact_prefix_sums(&[1.0, f64::INFINITY]).is_none());
        assert!(exact_prefix_sums(&[1.0, f64::NAN]).is_none());
        assert!(exact_prefix_sums(&[f64::MAX, f64::MAX]).is_none());
    }

    #[test]
    fn range_sum_is_the_sequential_fold_bit_for_bit() {
        let columns: [&[f64]; 5] = [
            &[-0.0, -0.0, 0.0, 1.0, -1.0, 7.5, 15.0],
            &[-0.0, -0.0, 0.1, 0.2, -0.3, 0.1],
            &[-1.5, -0.0, 0.5, 2.0, 2.0],
            &[1.0, 2f64.powi(52), -2f64.powi(52), 3.0, 2f64.powi(53)],
            &[2f64.powi(51), 2f64.powi(51), 1.0, -1.0, 1.0],
        ];
        for (i, values) in columns.iter().enumerate() {
            let items: Vec<ObservedItem> = values
                .iter()
                .map(|&value| ObservedItem {
                    value,
                    multiplicity: 2,
                    source_counts: Vec::new(),
                })
                .collect();
            let refs: Vec<&ObservedItem> = items.iter().collect();
            let dense = DenseSorted::new(&refs);
            // The first three columns sit on a short grid; the rest overflow
            // the guard (or are off-grid) and use the fallback.
            assert_eq!(dense.prefix_sum.is_some(), i != 1 && i < 3, "column {i}");
            for lo in 0..=values.len() {
                for hi in lo..=values.len() {
                    let fold = values[lo..hi].iter().fold(0.0, |acc, v| acc + v);
                    assert_eq!(
                        dense.range_sum(lo, hi).to_bits(),
                        fold.to_bits(),
                        "column {i} range {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_zero_sums_start_from_positive_zero() {
        // Every value −0.0: `Iterator::sum` would give −0.0 and a −0.0 Δ;
        // `SampleView` folds from +0.0, and so must both splitters.
        let s = SampleView::from_value_multiplicities([(-0.0, 1), (-0.0, 1), (-0.0, 3)]);
        let (dense, rows) = both_paths(&s);
        assert_eq!(dense, rows);
        assert_eq!(dense.len(), 1);
        assert_eq!(dense[0].5, s.observed_sum().to_bits());
        assert_eq!(dense[0].5, 0.0f64.to_bits());
        assert_eq!(dense[0].6, Some(0.0f64.to_bits()));
    }

    #[test]
    fn dense_path_taken_only_for_default_inner() {
        // `with_inner` must stay on the row reference path even when handed
        // a NaiveEstimator, because `inner_is_default` is what the dense
        // splitter's Chao92 specialisation keys on.
        let s = toy_after();
        let sorted = s.items_sorted_by_value();
        let custom = DynamicBucketEstimator::with_inner(NaiveEstimator::default());
        let stock = DynamicBucketEstimator::default();
        assert_eq!(
            report_bits(&custom.bucketize_sorted(&sorted)),
            report_bits(&stock.bucketize_sorted(&sorted))
        );
        assert_eq!(
            report_bits(&stock.bucketize_sorted(&sorted)),
            report_bits(&stock.bucketize_sorted_rows(&sorted))
        );
    }

    proptest! {
        /// The dense columnar splitter is bit-for-bit identical to the row
        /// reference (subview-materialising) splitter: same ranges, same
        /// per-bucket statistics, same `f64` bits in every Δ and N̂.
        #[test]
        fn dense_splitter_matches_row_reference(
            pairs in proptest::collection::vec((0.0f64..10_000.0, 1u64..8), 0..60)
        ) {
            let s = SampleView::from_value_multiplicities(pairs.iter().copied());
            let (dense, rows) = both_paths(&s);
            prop_assert_eq!(dense, rows);
        }

        /// Same property over quantized values, so duplicate-value runs (the
        /// `same_value` candidate suppression) are actually exercised.
        #[test]
        fn dense_splitter_matches_row_reference_with_duplicates(
            pairs in proptest::collection::vec((0u32..8, 1u64..6), 0..80)
        ) {
            let s = SampleView::from_value_multiplicities(
                pairs.iter().map(|&(v, m)| (f64::from(v) * 10.0, m)));
            let (dense, rows) = both_paths(&s);
            prop_assert_eq!(dense, rows);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same property over the value shapes of [`shaped_value`], which
        /// land on both sides of the prefix-sum exactness guard.
        #[test]
        fn dense_splitter_matches_row_reference_on_shaped_values(
            shape in 0u32..7,
            pairs in proptest::collection::vec((0u64..u64::MAX, 0u8..4, 1u64..6), 0..64)
        ) {
            let s = SampleView::from_value_multiplicities(
                pairs.iter().map(|&(raw, sign, m)| (shaped_value(shape, raw, sign == 0), m)));
            let (dense, rows) = both_paths(&s);
            prop_assert_eq!(dense, rows);
        }
    }
}
