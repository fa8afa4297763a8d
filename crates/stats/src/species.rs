//! Species-richness estimators.
//!
//! Given the `f`-statistics of a sample, these estimators predict `N̂`, the
//! total number of classes in the underlying population — observed plus
//! unobserved. [`chao92`] is the estimator the paper builds on (chosen for its
//! robustness to skewed publicity distributions); the others are classic
//! ecology baselines included for ablation benchmarks and cross-checks.

use crate::coverage::sample_coverage;
use crate::freq::FrequencyStatistics;

/// The outcome of a species-richness estimation.
///
/// Coverage-based estimators are genuinely undefined for some samples (e.g.
/// Chao92 when every observation is a singleton, where `Ĉ = 0` divides by
/// zero). The paper exploits this: buckets that only contain singletons have
/// an *infinite* estimate and are therefore never chosen by the dynamic
/// splitter. `CountEstimate` makes that state explicit instead of letting
/// `NaN`/`inf` propagate silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountEstimate {
    /// A finite estimate of the population richness (always `≥ c`).
    Estimate(f64),
    /// The estimator is undefined for this sample.
    Undefined,
}

impl CountEstimate {
    /// The finite estimate, if defined.
    pub fn value(self) -> Option<f64> {
        match self {
            CountEstimate::Estimate(v) => Some(v),
            CountEstimate::Undefined => None,
        }
    }

    /// The estimate, mapping `Undefined` to `+∞` (the interpretation used by
    /// the bucket-splitting objective).
    pub fn or_infinite(self) -> f64 {
        self.value().unwrap_or(f64::INFINITY)
    }

    /// True if the estimator produced a finite value.
    pub fn is_defined(self) -> bool {
        matches!(self, CountEstimate::Estimate(_))
    }

    fn from_raw(v: f64, c: f64) -> Self {
        if v.is_finite() {
            // Richness can never be below the number of classes already seen.
            CountEstimate::Estimate(v.max(c))
        } else {
            CountEstimate::Undefined
        }
    }
}

/// The Chao92 (Chao & Lee, JASA 1992) coverage-based richness estimator —
/// paper Eq. 7:
///
/// ```text
/// N̂ = c/Ĉ + n(1−Ĉ)/Ĉ · γ̂²
/// ```
///
/// Undefined for empty samples and when `Ĉ = 0` (all singletons).
///
/// # Examples
///
/// ```
/// use uu_stats::freq::FrequencyStatistics;
/// use uu_stats::species::chao92;
///
/// // Toy example before s5 (n=7, c=3, f1=1, γ̂²=1/6):
/// // N̂ = 3/(6/7) + 7·(1/7)/(6/7)·(1/6) = 3.5 + 7/36 ≈ 3.694
/// let f = FrequencyStatistics::from_multiplicities([1, 2, 4]);
/// let n_hat = chao92(&f).value().unwrap();
/// assert!((n_hat - (3.5 + 7.0 / 36.0)).abs() < 1e-9);
/// ```
pub fn chao92(f: &FrequencyStatistics) -> CountEstimate {
    chao92_from_counts(f.n(), f.c(), f.singletons(), f.sum_i_i_minus_one_f_i())
}

/// [`chao92`] from the four raw counts it actually consumes, without a
/// materialised [`FrequencyStatistics`]. The dense bucket-splitting path
/// evaluates thousands of candidate sub-ranges whose counts come from prefix
/// arrays; this entry point keeps that path allocation-free while staying
/// bit-for-bit identical to `chao92` (the float operations are performed in
/// exactly the same order as `sample_coverage` + `cv_squared`).
pub fn chao92_from_counts(n: u64, c: u64, f1: u64, sum_i_i_minus_one_f_i: u64) -> CountEstimate {
    if n == 0 {
        return CountEstimate::Undefined;
    }
    let coverage = (1.0 - f1 as f64 / n as f64).clamp(0.0, 1.0);
    if coverage <= 0.0 {
        return CountEstimate::Undefined;
    }
    let nf = n as f64;
    let cf = c as f64;
    // γ̂² is undefined only when coverage is 0 or n < 2; in the n < 2 case the
    // skew correction is vacuous, so fall back to 0 (pure coverage estimate).
    let gamma2 = if n < 2 {
        0.0
    } else {
        let sum = sum_i_i_minus_one_f_i as f64;
        ((cf / coverage) * sum / (nf * (nf - 1.0)) - 1.0).max(0.0)
    };
    let n_hat = cf / coverage + nf * (1.0 - coverage) / coverage * gamma2;
    CountEstimate::from_raw(n_hat, cf)
}

/// Chao92 with the skew correction forced to zero: `N̂ = c/Ĉ`.
///
/// This is the pure Good–Turing coverage estimate the paper invokes for the
/// simplified frequency estimator (Eq. 10) and for the upper bound (Eq. 17,
/// "we can omit γ̂ as it only makes the Chao92 converge faster").
pub fn coverage_only(f: &FrequencyStatistics) -> CountEstimate {
    let Some(coverage) = sample_coverage(f) else {
        return CountEstimate::Undefined;
    };
    if coverage <= 0.0 {
        return CountEstimate::Undefined;
    }
    CountEstimate::from_raw(f.c() as f64 / coverage, f.c() as f64)
}

/// The Chao84 (a.k.a. Chao1) lower-bound estimator:
/// `N̂ = c + f1²/(2 f2)`, with the bias-corrected form
/// `c + f1(f1−1)/2` when no doubletons were observed.
pub fn chao84(f: &FrequencyStatistics) -> CountEstimate {
    if f.is_empty() {
        return CountEstimate::Undefined;
    }
    let c = f.c() as f64;
    let f1 = f.singletons() as f64;
    let f2 = f.doubletons() as f64;
    let n_hat = if f2 > 0.0 {
        c + f1 * f1 / (2.0 * f2)
    } else {
        c + f1 * (f1 - 1.0) / 2.0
    };
    CountEstimate::from_raw(n_hat, c)
}

/// First-order jackknife estimator: `N̂ = c + f1·(n−1)/n`.
pub fn jackknife1(f: &FrequencyStatistics) -> CountEstimate {
    if f.is_empty() {
        return CountEstimate::Undefined;
    }
    let n = f.n() as f64;
    let c = f.c() as f64;
    let f1 = f.singletons() as f64;
    CountEstimate::from_raw(c + f1 * (n - 1.0) / n, c)
}

/// Second-order jackknife estimator:
/// `N̂ = c + f1(2n−3)/n − f2(n−2)²/(n(n−1))`.
///
/// Undefined for `n < 2`.
pub fn jackknife2(f: &FrequencyStatistics) -> CountEstimate {
    if f.n() < 2 {
        return CountEstimate::Undefined;
    }
    let n = f.n() as f64;
    let c = f.c() as f64;
    let f1 = f.singletons() as f64;
    let f2 = f.doubletons() as f64;
    let n_hat = c + f1 * (2.0 * n - 3.0) / n - f2 * (n - 2.0) * (n - 2.0) / (n * (n - 1.0));
    CountEstimate::from_raw(n_hat, c)
}

/// The bootstrap richness estimator: `N̂ = c + Σ_j f_j (1 − j/n)^n`.
pub fn bootstrap(f: &FrequencyStatistics) -> CountEstimate {
    if f.is_empty() {
        return CountEstimate::Undefined;
    }
    let n = f.n() as f64;
    let c = f.c() as f64;
    let extra: f64 = f
        .iter()
        .map(|(j, fj)| fj as f64 * (1.0 - j as f64 / n).powf(n))
        .sum();
    CountEstimate::from_raw(c + extra, c)
}

/// A named species estimator, for harnesses that sweep across baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeciesEstimator {
    /// Chao & Lee 1992 coverage + CV estimator (the paper's default).
    Chao92,
    /// Pure Good–Turing coverage estimate `c/Ĉ`.
    CoverageOnly,
    /// Chao 1984 `f1²/2f2` lower bound.
    Chao84,
    /// First-order jackknife.
    Jackknife1,
    /// Second-order jackknife.
    Jackknife2,
    /// Smith & van Belle bootstrap.
    Bootstrap,
}

impl SpeciesEstimator {
    /// All implemented estimators, in presentation order.
    pub const ALL: [SpeciesEstimator; 6] = [
        SpeciesEstimator::Chao92,
        SpeciesEstimator::CoverageOnly,
        SpeciesEstimator::Chao84,
        SpeciesEstimator::Jackknife1,
        SpeciesEstimator::Jackknife2,
        SpeciesEstimator::Bootstrap,
    ];

    /// Stable dense index of this estimator within [`Self::ALL`], used as the
    /// slot key by [`SpeciesCache`].
    pub const fn index(self) -> usize {
        match self {
            SpeciesEstimator::Chao92 => 0,
            SpeciesEstimator::CoverageOnly => 1,
            SpeciesEstimator::Chao84 => 2,
            SpeciesEstimator::Jackknife1 => 3,
            SpeciesEstimator::Jackknife2 => 4,
            SpeciesEstimator::Bootstrap => 5,
        }
    }

    /// Applies the estimator to a sample.
    pub fn estimate(self, f: &FrequencyStatistics) -> CountEstimate {
        match self {
            SpeciesEstimator::Chao92 => chao92(f),
            SpeciesEstimator::CoverageOnly => coverage_only(f),
            SpeciesEstimator::Chao84 => chao84(f),
            SpeciesEstimator::Jackknife1 => jackknife1(f),
            SpeciesEstimator::Jackknife2 => jackknife2(f),
            SpeciesEstimator::Bootstrap => bootstrap(f),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SpeciesEstimator::Chao92 => "chao92",
            SpeciesEstimator::CoverageOnly => "coverage",
            SpeciesEstimator::Chao84 => "chao84",
            SpeciesEstimator::Jackknife1 => "jackknife1",
            SpeciesEstimator::Jackknife2 => "jackknife2",
            SpeciesEstimator::Bootstrap => "bootstrap",
        }
    }
}

/// A thread-safe, lazily filled memo of species estimates over one frequency
/// ladder.
///
/// Every estimator in the paper's suite ultimately asks the same question —
/// "what does Chao92 (or a baseline) say about this ladder?" — and a batched
/// session asks it once per estimator per view. The cache borrows the ladder,
/// computes each requested [`SpeciesEstimator`] at most once, and returns the
/// memoized [`CountEstimate`] (a `Copy` value) on every subsequent call, so
/// repeated estimation over a shared view is free after the first pass.
///
/// # Examples
///
/// ```
/// use uu_stats::freq::FrequencyStatistics;
/// use uu_stats::species::{SpeciesCache, SpeciesEstimator};
///
/// let f = FrequencyStatistics::from_multiplicities([1u64, 2, 4]);
/// let cache = SpeciesCache::new(&f);
/// let a = cache.estimate(SpeciesEstimator::Chao92);
/// let b = cache.estimate(SpeciesEstimator::Chao92);
/// assert_eq!(a, b);
/// assert_eq!(cache.computations(), 1); // second call was a cache hit
/// ```
#[derive(Debug)]
pub struct SpeciesCache<'a> {
    freq: &'a FrequencyStatistics,
    slots: [std::sync::OnceLock<CountEstimate>; 6],
    computations: std::sync::atomic::AtomicU64,
}

impl<'a> SpeciesCache<'a> {
    /// An empty cache over `freq`.
    pub fn new(freq: &'a FrequencyStatistics) -> Self {
        SpeciesCache {
            freq,
            slots: Default::default(),
            computations: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The ladder this cache memoizes over.
    pub fn freq(&self) -> &'a FrequencyStatistics {
        self.freq
    }

    /// The memoized estimate of `estimator` over the ladder, computed on
    /// first use.
    pub fn estimate(&self, estimator: SpeciesEstimator) -> CountEstimate {
        *self.slots[estimator.index()].get_or_init(|| {
            self.computations
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            estimator.estimate(self.freq)
        })
    }

    /// How many estimates were actually computed (cache misses) so far.
    pub fn computations(&self) -> u64 {
        self.computations.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Eagerly evaluates the whole ladder — every [`SpeciesEstimator`], in
    /// order, on the calling thread. Afterwards every
    /// [`SpeciesCache::estimate`] call is a cache hit.
    pub fn warm(&self) {
        let _span = crate::obs::span(crate::obs::Stage::SpeciesLadder);
        for est in SpeciesEstimator::ALL {
            let _ = self.estimate(est);
        }
    }

    /// The memoized estimates of the full ladder, in [`SpeciesEstimator::ALL`]
    /// order, warming the cache first.
    pub fn all_estimates(&self) -> [CountEstimate; SpeciesEstimator::ALL.len()] {
        self.warm();
        SpeciesEstimator::ALL.map(|est| self.estimate(est))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_before() -> FrequencyStatistics {
        FrequencyStatistics::from_multiplicities([1, 2, 4])
    }

    fn toy_after() -> FrequencyStatistics {
        FrequencyStatistics::from_multiplicities([2, 2, 4, 1])
    }

    #[test]
    fn chao92_toy_before_s5() {
        // c/Ĉ = 3.5, correction = 7·(1/7)/(6/7)·(1/6) = (7/6)·(1/6) = 7/36.
        let n_hat = chao92(&toy_before()).value().unwrap();
        assert!((n_hat - (3.5 + 7.0 / 36.0)).abs() < 1e-9, "{n_hat}");
    }

    #[test]
    fn chao92_toy_after_s5() {
        // γ̂² = 0 ⇒ N̂ = c/Ĉ = 4/(8/9) = 4.5.
        let n_hat = chao92(&toy_after()).value().unwrap();
        assert!((n_hat - 4.5).abs() < 1e-9, "{n_hat}");
    }

    #[test]
    fn chao92_undefined_for_all_singletons() {
        let f = FrequencyStatistics::from_multiplicities([1, 1, 1, 1]);
        assert_eq!(chao92(&f), CountEstimate::Undefined);
        assert_eq!(chao92(&f).or_infinite(), f64::INFINITY);
    }

    #[test]
    fn chao92_undefined_for_empty() {
        let f = FrequencyStatistics::from_multiplicities(std::iter::empty());
        assert_eq!(chao92(&f), CountEstimate::Undefined);
    }

    #[test]
    fn complete_sample_estimates_close_to_c() {
        // Every item seen 5 times: coverage 1, no singletons ⇒ N̂ = c exactly
        // for the coverage-based estimators.
        let f = FrequencyStatistics::from_multiplicities(vec![5u64; 40]);
        assert!((chao92(&f).value().unwrap() - 40.0).abs() < 1e-9);
        assert!((coverage_only(&f).value().unwrap() - 40.0).abs() < 1e-9);
        assert!((chao84(&f).value().unwrap() - 40.0).abs() < 1e-9);
        assert!((jackknife1(&f).value().unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn chao84_bias_corrected_without_doubletons() {
        // c=3, f1=2 (and one item seen 3 times), f2=0 ⇒ N̂ = 3 + 2·1/2 = 4.
        let f = FrequencyStatistics::from_multiplicities([1, 1, 3]);
        assert!((chao84(&f).value().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn jackknife2_matches_hand_computation() {
        // multiplicities [1,1,2]: n=4, c=3, f1=2, f2=1.
        // N̂ = 3 + 2·5/4 − 1·4/(4·3) = 3 + 2.5 − 1/3.
        let f = FrequencyStatistics::from_multiplicities([1, 1, 2]);
        let expect = 3.0 + 2.5 - 1.0 / 3.0;
        assert!((jackknife2(&f).value().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn bootstrap_matches_hand_computation() {
        // multiplicities [1,3]: n=4, c=2.
        // extra = (1−1/4)^4 + (1−3/4)^4 = 0.31640625 + 0.00390625.
        let f = FrequencyStatistics::from_multiplicities([1, 3]);
        let expect = 2.0 + 0.75f64.powi(4) + 0.25f64.powi(4);
        assert!((bootstrap(&f).value().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn all_estimators_enumerate_and_name() {
        let f = toy_before();
        for est in SpeciesEstimator::ALL {
            let _ = est.estimate(&f);
            assert!(!est.name().is_empty());
        }
    }

    #[test]
    fn index_is_dense_and_matches_all_order() {
        for (i, est) in SpeciesEstimator::ALL.iter().enumerate() {
            assert_eq!(est.index(), i);
        }
    }

    #[test]
    fn cache_matches_direct_estimates_and_counts_misses() {
        let f = toy_before();
        let cache = SpeciesCache::new(&f);
        for est in SpeciesEstimator::ALL {
            assert_eq!(cache.estimate(est), est.estimate(&f), "{}", est.name());
        }
        assert_eq!(cache.computations(), 6);
        // Every repeated read is a hit.
        for est in SpeciesEstimator::ALL {
            let _ = cache.estimate(est);
        }
        assert_eq!(cache.computations(), 6);
        assert_eq!(cache.freq().n(), 7);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let f = FrequencyStatistics::from_multiplicities([1, 2, 2, 4, 5]);
        let cache = SpeciesCache::new(&f);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for est in SpeciesEstimator::ALL {
                        assert_eq!(cache.estimate(est), est.estimate(cache.freq()));
                    }
                });
            }
        });
        // OnceLock guarantees each slot initialises exactly once.
        assert_eq!(cache.computations(), 6);
    }

    #[test]
    fn warm_evaluates_the_whole_ladder_once() {
        let f = toy_before();
        let cache = SpeciesCache::new(&f);
        cache.warm();
        assert_eq!(cache.computations(), 6);
        let all = cache.all_estimates();
        assert_eq!(cache.computations(), 6, "warm repeats must be cache hits");
        for (est, got) in SpeciesEstimator::ALL.iter().zip(all) {
            assert_eq!(got, est.estimate(&f));
        }
    }

    proptest! {
        /// The dense-counts entry point is the same function as `chao92`,
        /// bit-for-bit, for every reachable ladder.
        #[test]
        fn chao92_from_counts_matches_chao92(
            ms in proptest::collection::vec(1u64..20, 0..150)
        ) {
            let f = FrequencyStatistics::from_multiplicities(ms);
            let dense = chao92_from_counts(
                f.n(), f.c(), f.singletons(), f.sum_i_i_minus_one_f_i());
            prop_assert_eq!(dense, chao92(&f));
        }

        #[test]
        fn estimates_are_at_least_c(ms in proptest::collection::vec(1u64..20, 1..150)) {
            let f = FrequencyStatistics::from_multiplicities(ms);
            for est in SpeciesEstimator::ALL {
                if let Some(v) = est.estimate(&f).value() {
                    prop_assert!(v >= f.c() as f64 - 1e-9,
                        "{} produced {} < c = {}", est.name(), v, f.c());
                    prop_assert!(v.is_finite());
                }
            }
        }

        #[test]
        fn chao92_defined_whenever_a_duplicate_exists(
            ms in proptest::collection::vec(1u64..20, 1..100)
        ) {
            let has_dup = ms.iter().any(|&m| m >= 2);
            let f = FrequencyStatistics::from_multiplicities(ms);
            prop_assert_eq!(chao92(&f).is_defined(), has_dup);
        }
    }
}
