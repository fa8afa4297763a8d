//! The estimator-facing view of an integrated sample.
//!
//! A [`SampleView`] is the paper's pair `(K, S)`: the set of unique observed
//! entities with their attribute values (the integrated database `K`), plus
//! how often each entity was observed across data sources (the multiset `S`)
//! and, when lineage is available, how much each source contributed
//! (`n_1 … n_l` — required by the Monte-Carlo estimator).
//!
//! [`StreamAccumulator`] maintains the same information incrementally so an
//! arrival stream can be evaluated at many prefixes in overall `O(n + k·c)`
//! for `k` checkpoints.

use std::collections::BTreeMap;

use uu_stats::descriptive::sample_stddev;
use uu_stats::exact::ExactSum;
use uu_stats::freq::FrequencyStatistics;

/// One unique observed entity with its observation lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedItem {
    /// Attribute value `attr(r)`.
    pub value: f64,
    /// Total observations of this entity across all sources.
    pub multiplicity: u64,
    /// `(source_id, observations)` pairs; empty when lineage is unknown.
    pub source_counts: Vec<(u32, u32)>,
}

/// Immutable estimator input: unique items, multiplicities, values, lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleView {
    items: Vec<ObservedItem>,
    freq: FrequencyStatistics,
    /// Contribution of each source (`n_j`); empty when lineage is unknown.
    source_sizes: Vec<u64>,
    observed_sum: ExactSum,
    singleton_sum: ExactSum,
}

impl SampleView {
    /// Builds a view from `(value, multiplicity)` pairs without lineage.
    ///
    /// Pairs with zero multiplicity are ignored. This is the minimal input
    /// for the naïve, frequency and bucket estimators; the Monte-Carlo
    /// estimator additionally needs lineage (see
    /// [`SampleView::from_observed_items`] or [`StreamAccumulator`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use uu_core::sample::SampleView;
    ///
    /// let s = SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2)]);
    /// assert_eq!(s.n(), 3);
    /// assert_eq!(s.c(), 2);
    /// assert_eq!(s.observed_sum(), 3000.0);
    /// assert_eq!(s.singleton_sum(), 1000.0);
    /// ```
    pub fn from_value_multiplicities<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (f64, u64)>,
    {
        let items = pairs
            .into_iter()
            .filter(|&(_, m)| m > 0)
            .map(|(value, multiplicity)| ObservedItem {
                value,
                multiplicity,
                source_counts: Vec::new(),
            })
            .collect();
        Self::from_observed_items(items)
    }

    /// Builds a view from fully specified observed items.
    ///
    /// # Panics
    ///
    /// Panics if any item has a non-finite value, zero multiplicity, or
    /// lineage counts that do not add up to its multiplicity (when lineage is
    /// present).
    pub fn from_observed_items(items: Vec<ObservedItem>) -> Self {
        let mut source_sizes: Vec<u64> = Vec::new();
        let mut observed_sum = ExactSum::new();
        let mut singleton_sum = ExactSum::new();
        for item in &items {
            assert!(item.value.is_finite(), "attribute values must be finite");
            assert!(
                item.multiplicity > 0,
                "observed items need multiplicity > 0"
            );
            observed_sum.add(item.value);
            if item.multiplicity == 1 {
                singleton_sum.add(item.value);
            }
            if !item.source_counts.is_empty() {
                let total: u64 = item.source_counts.iter().map(|&(_, k)| k as u64).sum();
                assert_eq!(
                    total, item.multiplicity,
                    "lineage counts must sum to the multiplicity"
                );
                for &(sid, k) in &item.source_counts {
                    let sid = sid as usize;
                    if sid >= source_sizes.len() {
                        source_sizes.resize(sid + 1, 0);
                    }
                    source_sizes[sid] += k as u64;
                }
            }
        }
        let freq = FrequencyStatistics::from_multiplicities(items.iter().map(|i| i.multiplicity));
        SampleView {
            items,
            freq,
            source_sizes,
            observed_sum,
            singleton_sum,
        }
    }

    /// Delta-extends the view: `bumps` replaces already-observed items (same
    /// value, higher multiplicity / extended lineage — an appended duplicate
    /// observation), `appended` adds brand-new items at the end. Everything
    /// derived updates from the delta alone: frequency ladder rungs move
    /// in `O(1)` per bump
    /// ([`FrequencyStatistics::bump`] / [`FrequencyStatistics::observe_item`]),
    /// per-source sizes apply integer lineage deltas, the exact sums add the
    /// appended values, and a bump that ends a singleton subtracts its value
    /// from the singleton sum.
    ///
    /// The result is bit-identical to `from_observed_items` over the final
    /// item list; a proptest pins that.
    ///
    /// # Panics
    ///
    /// Panics on the [`SampleView::from_observed_items`] invariants, on a
    /// bump index out of range, and on a bump that changes an item's value
    /// or lowers its multiplicity.
    pub fn extended(&self, bumps: &[(usize, ObservedItem)], appended: Vec<ObservedItem>) -> Self {
        let mut items = self.items.clone();
        let mut freq = self.freq.clone();
        let mut source_sizes = self.source_sizes.clone();
        let mut observed_sum = self.observed_sum.clone();
        let mut singleton_sum = self.singleton_sum.clone();
        for (idx, item) in bumps {
            let old = &items[*idx];
            assert_eq!(
                old.value.to_bits(),
                item.value.to_bits(),
                "a bump may not change an item's value"
            );
            freq.bump(old.multiplicity, item.multiplicity);
            if old.multiplicity == 1 && item.multiplicity > 1 {
                singleton_sum.sub(old.value);
            }
            if !item.source_counts.is_empty() {
                let total: u64 = item.source_counts.iter().map(|&(_, k)| k as u64).sum();
                assert_eq!(
                    total, item.multiplicity,
                    "lineage counts must sum to the multiplicity"
                );
                let mut old_counts = old.source_counts.iter().peekable();
                for &(sid, k) in &item.source_counts {
                    let before = match old_counts.peek() {
                        Some(&&(old_sid, old_k)) if old_sid == sid => {
                            old_counts.next();
                            old_k as u64
                        }
                        _ => 0,
                    };
                    let sid = sid as usize;
                    if sid >= source_sizes.len() {
                        source_sizes.resize(sid + 1, 0);
                    }
                    source_sizes[sid] += k as u64 - before;
                }
                assert!(
                    old_counts.next().is_none(),
                    "a bump may not drop a lineage source"
                );
            }
            items[*idx] = item.clone();
        }
        for item in &appended {
            assert!(item.value.is_finite(), "attribute values must be finite");
            assert!(
                item.multiplicity > 0,
                "observed items need multiplicity > 0"
            );
            freq.observe_item(item.multiplicity);
            observed_sum.add(item.value);
            if item.multiplicity == 1 {
                singleton_sum.add(item.value);
            }
            if !item.source_counts.is_empty() {
                let total: u64 = item.source_counts.iter().map(|&(_, k)| k as u64).sum();
                assert_eq!(
                    total, item.multiplicity,
                    "lineage counts must sum to the multiplicity"
                );
                for &(sid, k) in &item.source_counts {
                    let sid = sid as usize;
                    if sid >= source_sizes.len() {
                        source_sizes.resize(sid + 1, 0);
                    }
                    source_sizes[sid] += k as u64;
                }
            }
        }
        items.extend(appended);
        SampleView {
            items,
            freq,
            source_sizes,
            observed_sum,
            singleton_sum,
        }
    }

    /// The unique observed items (order unspecified).
    pub fn items(&self) -> &[ObservedItem] {
        &self.items
    }

    /// Cached frequency statistics of the observation multiset.
    pub fn freq(&self) -> &FrequencyStatistics {
        &self.freq
    }

    /// Total observations `n = |S|`.
    pub fn n(&self) -> u64 {
        self.freq.n()
    }

    /// Unique observed entities `c = |K|`.
    pub fn c(&self) -> u64 {
        self.freq.c()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `φ_K = Σ_{r ∈ K} attr(r)` — the closed-world SUM over unique
    /// entities, the correctly rounded exact sum ([`uu_stats::exact`]).
    pub fn observed_sum(&self) -> f64 {
        self.observed_sum.to_f64()
    }

    /// `φ_{f1}` — the SUM over singleton entities only (frequency
    /// estimator), the correctly rounded exact sum.
    pub fn singleton_sum(&self) -> f64 {
        self.singleton_sum.to_f64()
    }

    /// Mean attribute value over unique entities (`φ_K / c`); `None` if empty.
    pub fn mean_value(&self) -> Option<f64> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.observed_sum() / self.items.len() as f64)
        }
    }

    /// Sample standard deviation `σ_K` of the unique values (Eq. 18);
    /// `None` for fewer than two unique entities.
    pub fn value_stddev(&self) -> Option<f64> {
        let values: Vec<f64> = self.items.iter().map(|i| i.value).collect();
        sample_stddev(&values)
    }

    /// Smallest observed attribute value; `None` if empty.
    pub fn min_value(&self) -> Option<f64> {
        self.items
            .iter()
            .map(|i| i.value)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Largest observed attribute value; `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.items
            .iter()
            .map(|i| i.value)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// Per-source contribution sizes `[n_1, …, n_l]`; empty when the sample
    /// was built without lineage.
    pub fn source_sizes(&self) -> &[u64] {
        &self.source_sizes
    }

    /// True when per-source lineage is available.
    pub fn has_lineage(&self) -> bool {
        !self.source_sizes.is_empty()
    }

    /// Rank-aligned multiplicities (descending), the Monte-Carlo "indexing"
    /// of the observed sample.
    pub fn rank_multiplicities(&self) -> Vec<u64> {
        self.freq.rank_multiplicities()
    }

    /// A sub-sample containing only the items whose value lies in
    /// `[lo, hi]` (inclusive). Lineage is carried over; per-source sizes are
    /// recomputed from the surviving items.
    pub fn subset_by_value(&self, lo: f64, hi: f64) -> SampleView {
        let items = self
            .items
            .iter()
            .filter(|i| i.value >= lo && i.value <= hi)
            .cloned()
            .collect();
        SampleView::from_observed_items(items)
    }

    /// Items sorted ascending by value — the working order of the bucket
    /// estimators.
    pub fn items_sorted_by_value(&self) -> Vec<&ObservedItem> {
        let mut refs: Vec<&ObservedItem> = self.items.iter().collect();
        refs.sort_by(|a, b| a.value.total_cmp(&b.value));
        refs
    }
}

/// Incrementally maintained sample over an observation stream.
///
/// # Examples
///
/// ```
/// use uu_core::sample::StreamAccumulator;
///
/// let mut acc = StreamAccumulator::new();
/// acc.push(7, 1000.0, 0); // worker 0 reports entity 7 (value 1000)
/// acc.push(7, 1000.0, 1); // worker 1 reports it too
/// acc.push(9, 500.0, 1);
/// let view = acc.view();
/// assert_eq!(view.n(), 3);
/// assert_eq!(view.c(), 2);
/// assert_eq!(view.source_sizes(), &[1, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamAccumulator {
    /// item key → (value, per-source counts). Ordered maps, so a view lists
    /// its items in key order, the same in every process.
    entries: BTreeMap<u64, (f64, BTreeMap<u32, u32>)>,
    total: u64,
}

impl StreamAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation: `source` mentioned entity `item` with
    /// attribute `value`.
    ///
    /// The first reported value wins; the paper assumes entity resolution and
    /// value fusion happen upstream ("we used the average" — any such policy
    /// can be applied before pushing).
    pub fn push(&mut self, item: u64, value: f64, source: u32) {
        assert!(value.is_finite(), "attribute values must be finite");
        let entry = self
            .entries
            .entry(item)
            .or_insert_with(|| (value, BTreeMap::new()));
        *entry.1.entry(source).or_insert(0) += 1;
        self.total += 1;
    }

    /// Observations so far.
    pub fn n(&self) -> u64 {
        self.total
    }

    /// Unique entities so far.
    pub fn c(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Materialises an immutable [`SampleView`] of the current state, items
    /// in item-key order.
    pub fn view(&self) -> SampleView {
        let items = self
            .entries
            .values()
            .map(|(value, sources)| {
                let source_counts: Vec<(u32, u32)> =
                    sources.iter().map(|(&s, &k)| (s, k)).collect();
                let multiplicity = source_counts.iter().map(|&(_, k)| k as u64).sum();
                ObservedItem {
                    value: *value,
                    multiplicity,
                    source_counts,
                }
            })
            .collect();
        SampleView::from_observed_items(items)
    }
}

/// Replays an `(item, value, source)` stream and materialises a
/// [`SampleView`] at each requested checkpoint (observation count).
///
/// This is the access pattern of every figure in the paper — "estimate vs.
/// number of crowd answers". Checkpoints must be ascending; checkpoints
/// beyond the stream length are ignored.
///
/// # Examples
///
/// ```
/// use uu_core::sample::replay_checkpoints;
///
/// let stream = (0..10u64).map(|i| (i % 4, 1.5 * i as f64, (i % 3) as u32));
/// let views = replay_checkpoints(stream, &[2, 10]);
/// assert_eq!(views.len(), 2);
/// assert_eq!(views[0].1.n(), 2);
/// assert_eq!(views[1].1.c(), 4);
/// ```
pub fn replay_checkpoints(
    stream: impl Iterator<Item = (u64, f64, u32)>,
    checkpoints: &[usize],
) -> Vec<(usize, SampleView)> {
    debug_assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let mut acc = StreamAccumulator::new();
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut next = 0usize;
    let mut seen = 0usize;
    for (item, value, source) in stream {
        acc.push(item, value, source);
        seen += 1;
        while next < checkpoints.len() && checkpoints[next] == seen {
            out.push((seen, acc.view()));
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_before() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)])
    }

    #[test]
    fn toy_example_statistics() {
        let s = toy_before();
        assert_eq!(s.n(), 7);
        assert_eq!(s.c(), 3);
        assert_eq!(s.freq().singletons(), 1);
        assert_eq!(s.observed_sum(), 13_000.0);
        assert_eq!(s.singleton_sum(), 1000.0);
        assert_eq!(s.min_value(), Some(1000.0));
        assert_eq!(s.max_value(), Some(10_000.0));
        assert!(!s.has_lineage());
    }

    #[test]
    fn accumulator_views_list_items_in_key_order_whatever_the_arrival_order() {
        // Values whose float sum depends on the order it is taken in; the
        // stream visits every key in 0..101, out of order.
        let value_of = |item: u64| 0.1 + item as f64 * 1e-3 + 1e9 * (item % 3) as f64;
        let observations: Vec<(u64, f64, u32)> = (0..200u64)
            .map(|i| {
                let item = (i * 37) % 101;
                (item, value_of(item), (i % 5) as u32)
            })
            .collect();
        let mut forward = StreamAccumulator::new();
        let mut backward = StreamAccumulator::new();
        for &(item, value, source) in &observations {
            forward.push(item, value, source);
        }
        for &(item, value, source) in observations.iter().rev() {
            backward.push(item, value, source);
        }
        let (a, b) = (forward.view(), backward.view());
        assert_eq!(a.items(), b.items());
        assert_eq!(a.observed_sum().to_bits(), b.observed_sum().to_bits());
        let values: Vec<f64> = a.items().iter().map(|i| i.value).collect();
        assert_eq!(values, (0..101).map(value_of).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sample() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean_value(), None);
        assert_eq!(s.value_stddev(), None);
        assert_eq!(s.min_value(), None);
    }

    #[test]
    fn zero_multiplicities_filtered() {
        let s = SampleView::from_value_multiplicities([(5.0, 0), (7.0, 2)]);
        assert_eq!(s.c(), 1);
        assert_eq!(s.observed_sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "values must be finite")]
    fn non_finite_value_rejected() {
        let _ = SampleView::from_value_multiplicities([(f64::NAN, 1)]);
    }

    #[test]
    #[should_panic(expected = "lineage counts must sum")]
    fn inconsistent_lineage_rejected() {
        let _ = SampleView::from_observed_items(vec![ObservedItem {
            value: 1.0,
            multiplicity: 3,
            source_counts: vec![(0, 1)],
        }]);
    }

    #[test]
    fn subset_by_value_recomputes_everything() {
        let s = toy_before();
        let low = s.subset_by_value(0.0, 2500.0);
        assert_eq!(low.c(), 2);
        assert_eq!(low.n(), 3);
        assert_eq!(low.observed_sum(), 3000.0);
        assert_eq!(low.singleton_sum(), 1000.0);
        let high = s.subset_by_value(2500.0, f64::INFINITY);
        assert_eq!(high.c(), 1);
        assert_eq!(high.n(), 4);
        assert_eq!(high.freq().singletons(), 0);
    }

    #[test]
    fn sorted_items_ascending() {
        let s = toy_before();
        let sorted = s.items_sorted_by_value();
        let values: Vec<f64> = sorted.iter().map(|i| i.value).collect();
        assert_eq!(values, vec![1000.0, 2000.0, 10_000.0]);
    }

    #[test]
    fn stream_accumulator_builds_lineage() {
        let mut acc = StreamAccumulator::new();
        // Toy example: sources s1..s4 with A:1 (s1), B:2 (s1,s2), D:4 (all).
        acc.push(0, 1000.0, 0);
        acc.push(1, 2000.0, 0);
        acc.push(1, 2000.0, 1);
        for sid in 0..4 {
            acc.push(3, 10_000.0, sid);
        }
        let v = acc.view();
        assert_eq!(v.n(), 7);
        assert_eq!(v.c(), 3);
        assert_eq!(v.source_sizes(), &[3, 2, 1, 1]);
        assert!(v.has_lineage());
        assert_eq!(v.observed_sum(), 13_000.0);
    }

    #[test]
    fn stream_first_value_wins() {
        let mut acc = StreamAccumulator::new();
        acc.push(1, 10.0, 0);
        acc.push(1, 99.0, 1); // conflicting report, resolved upstream normally
        let v = acc.view();
        assert_eq!(v.items()[0].value, 10.0);
        assert_eq!(v.n(), 2);
    }

    #[test]
    fn subset_preserves_source_sizes_of_survivors() {
        let mut acc = StreamAccumulator::new();
        acc.push(1, 10.0, 0);
        acc.push(2, 500.0, 0);
        acc.push(2, 500.0, 1);
        let v = acc.view();
        let big = v.subset_by_value(100.0, 1000.0);
        assert_eq!(big.source_sizes(), &[1, 1]);
    }

    proptest! {
        #[test]
        fn observed_sum_matches_manual(
            pairs in proptest::collection::vec((0.0f64..1000.0, 1u64..6), 0..80)
        ) {
            let s = SampleView::from_value_multiplicities(pairs.iter().copied());
            let manual: f64 = pairs.iter().map(|&(v, _)| v).sum();
            prop_assert!((s.observed_sum() - manual).abs() < 1e-9);
            let n: u64 = pairs.iter().map(|&(_, m)| m).sum();
            prop_assert_eq!(s.n(), n);
        }

        #[test]
        fn extended_matches_from_scratch_rebuild(
            base in proptest::collection::vec((0.0f64..100.0, 1u64..4, 0u32..3), 0..40),
            dup_hits in proptest::collection::vec((0usize..40, 0u32..3), 0..20),
            fresh in proptest::collection::vec((0.0f64..100.0, 1u64..4, 0u32..3), 0..20),
        ) {
            // Base items with single-source lineage.
            let item = |&(v, m, s): &(f64, u64, u32)| ObservedItem {
                value: v,
                multiplicity: m,
                source_counts: vec![(s, m as u32)],
            };
            let base_items: Vec<ObservedItem> = base.iter().map(item).collect();
            let view = SampleView::from_observed_items(base_items.clone());
            // Duplicate observations bump existing items (value unchanged).
            let mut final_items = base_items;
            let mut bumped: std::collections::HashMap<usize, ObservedItem> =
                std::collections::HashMap::new();
            if !final_items.is_empty() {
                for &(slot, src) in &dup_hits {
                    let slot = slot % final_items.len();
                    let it = &mut final_items[slot];
                    it.multiplicity += 1;
                    match it.source_counts.binary_search_by_key(&src, |&(s, _)| s) {
                        Ok(i) => it.source_counts[i].1 += 1,
                        Err(i) => it.source_counts.insert(i, (src, 1)),
                    }
                    bumped.insert(slot, it.clone());
                }
            }
            let appended: Vec<ObservedItem> = fresh.iter().map(item).collect();
            final_items.extend(appended.iter().cloned());
            let bumps: Vec<(usize, ObservedItem)> = {
                let mut b: Vec<_> = bumped.into_iter().collect();
                b.sort_by_key(|&(i, _)| i);
                b
            };
            let inc = view.extended(&bumps, appended);
            let rebuilt = SampleView::from_observed_items(final_items);
            prop_assert_eq!(inc.items(), rebuilt.items());
            prop_assert_eq!(inc.freq(), rebuilt.freq());
            prop_assert_eq!(inc.source_sizes(), rebuilt.source_sizes());
            prop_assert_eq!(inc.observed_sum().to_bits(), rebuilt.observed_sum().to_bits());
            prop_assert_eq!(inc.singleton_sum().to_bits(), rebuilt.singleton_sum().to_bits());
        }

        #[test]
        fn stream_view_is_consistent(
            obs in proptest::collection::vec((0u64..30, 0u32..6), 1..300)
        ) {
            let mut acc = StreamAccumulator::new();
            for &(item, source) in &obs {
                acc.push(item, item as f64 * 3.0, source);
            }
            let v = acc.view();
            prop_assert_eq!(v.n(), obs.len() as u64);
            prop_assert_eq!(v.n(), acc.n());
            prop_assert_eq!(v.c(), acc.c());
            let lineage_total: u64 = v.source_sizes().iter().sum();
            prop_assert_eq!(lineage_total, v.n());
        }
    }
}
