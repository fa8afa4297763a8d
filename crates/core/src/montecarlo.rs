//! The Monte-Carlo estimator (paper §3.4, Algorithms 2–3).
//!
//! Chao92-based estimators assume `S` approximates a sample *with*
//! replacement, which breaks when sources are few or wildly uneven
//! ("streakers"). The Monte-Carlo estimator instead *simulates the actual
//! sampling process*: it posits a population of `θ_N` items under an
//! exponential publicity distribution with skew `θ_λ`, replays the observed
//! per-source sizes `[n_1 … n_l]` as without-replacement draws, and scores
//! each `(θ_N, θ_λ)` by the KL divergence between the simulated and observed
//! rank-frequency statistics. A quadratic surface fitted to the score grid is
//! minimised to pick `N̂_MC`; the final Δ uses mean substitution with that
//! count (§3.4.2: "we use our naïve estimation technique with N̂_MC").
//!
//! Each grid cell draws from its own seed, derived from the cell's
//! coordinates, so a cell's score never depends on the order cells are
//! scored in.

use crate::estimate::{DeltaEstimate, SumEstimator};
use crate::naive::NaiveEstimator;
use crate::profile::ViewProfile;
use crate::sample::SampleView;
use uu_stats::kl::smoothed_rank_divergence;
use uu_stats::rng::Rng;
use uu_stats::sampling::FenwickSampler;
use uu_stats::species::{chao92, SpeciesEstimator};
use uu_stats::surface::QuadraticSurface;

/// Tunable parameters of the Monte-Carlo estimator. `Default` reproduces the
/// paper's Algorithm 3 settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Simulation repetitions per grid cell (`nbRuns`).
    pub nb_runs: usize,
    /// Lower bound of the skew grid `θ_λ` (paper: −0.4).
    pub lambda_lo: f64,
    /// Upper bound of the skew grid `θ_λ` (paper: 0.4).
    pub lambda_hi: f64,
    /// Step of the skew grid (paper: 0.1).
    pub lambda_step: f64,
    /// Number of steps between `c` and `N̂_Chao92` on the count grid
    /// (paper: 10, i.e. 11 grid points).
    pub n_grid_steps: usize,
    /// Smoothing mass for missing rank entries in the KL distance.
    pub smoothing_epsilon: f64,
    /// Lattice resolution for minimising the fitted surface.
    pub surface_resolution: usize,
    /// Seed for the simulation streams (the estimator is deterministic).
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            nb_runs: 5,
            lambda_lo: -0.4,
            lambda_hi: 0.4,
            lambda_step: 0.1,
            n_grid_steps: 10,
            smoothing_epsilon: 1e-4,
            surface_resolution: 101,
            seed: 0x4D43_5345, // "MCSE"
        }
    }
}

impl MonteCarloConfig {
    /// A cheaper configuration for unit tests and debug builds.
    pub fn fast() -> Self {
        MonteCarloConfig {
            nb_runs: 2,
            n_grid_steps: 5,
            lambda_step: 0.2,
            surface_resolution: 41,
            ..Default::default()
        }
    }

    fn lambda_grid(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut lambda = self.lambda_lo;
        while lambda <= self.lambda_hi + 1e-9 {
            out.push(lambda);
            lambda += self.lambda_step;
        }
        out
    }
}

/// The Monte-Carlo estimator.
///
/// Requires per-source lineage ([`SampleView::source_sizes`]); without it the
/// sampling process cannot be replayed and the estimate is undefined.
///
/// # Examples
///
/// ```
/// use uu_core::sample::StreamAccumulator;
/// use uu_core::montecarlo::{MonteCarloConfig, MonteCarloEstimator};
/// use uu_core::estimate::SumEstimator;
///
/// let mut acc = StreamAccumulator::new();
/// for source in 0..6u32 {
///     for item in 0..5u64 {
///         acc.push(item * 7 % 11, (item + 1) as f64 * 100.0, source);
///     }
/// }
/// let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
/// let d = est.estimate_delta(&acc.view());
/// assert!(d.is_defined());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MonteCarloEstimator {
    /// Simulation parameters.
    pub config: MonteCarloConfig,
}

impl MonteCarloEstimator {
    /// Creates the estimator with an explicit configuration.
    pub fn new(config: MonteCarloConfig) -> Self {
        MonteCarloEstimator { config }
    }

    /// The count estimate `N̂_MC` (Algorithm 3). `None` when the sample is
    /// empty, lacks lineage, or Chao92 (which bounds the search box) is
    /// undefined.
    pub fn estimate_count(&self, sample: &SampleView) -> Option<f64> {
        if sample.is_empty() || !sample.has_lineage() {
            return None;
        }
        let n_chao = chao92(sample.freq()).value()?;
        self.grid_search(sample, n_chao, &sample.rank_multiplicities())
    }

    /// [`Self::estimate_count`] consuming the shared statistics of a
    /// [`ViewProfile`] (memoized Chao92 and rank multiplicities). Bit-for-bit
    /// identical to the direct path.
    pub fn estimate_count_profiled(&self, profile: &ViewProfile<'_>) -> Option<f64> {
        let sample = profile.view();
        if sample.is_empty() || !sample.has_lineage() {
            return None;
        }
        let n_chao = profile.species(SpeciesEstimator::Chao92).value()?;
        self.grid_search(sample, n_chao, profile.rank_multiplicities())
    }

    /// Algorithm 3's grid search, given the Chao92 search-box bound and the
    /// observed rank statistics.
    fn grid_search(&self, sample: &SampleView, n_chao: f64, observed_ranks: &[u64]) -> Option<f64> {
        let c = sample.c() as f64;
        if n_chao - c < 1.0 {
            // Search box collapses: the sample already looks complete.
            return Some(c);
        }

        // Grid axes (Algorithm 3, lines 3-4).
        let theta_n: Vec<f64> = (0..=self.config.n_grid_steps)
            .map(|i| c + (n_chao - c) * i as f64 / self.config.n_grid_steps as f64)
            .collect();
        let theta_lambda = self.config.lambda_grid();

        let source_sizes: Vec<usize> = sample
            .source_sizes()
            .iter()
            .map(|&s| s as usize)
            .filter(|&s| s > 0)
            .collect();

        // Score every cell (each deterministically seeded by its coordinates).
        let cells: Vec<(f64, f64)> = theta_n
            .iter()
            .flat_map(|&tn| theta_lambda.iter().map(move |&tl| (tn, tl)))
            .collect();
        let scores: Vec<f64> = cells
            .iter()
            .map(|&(tn, tl)| self.average_distance(tn, tl, observed_ranks, &source_sizes))
            .collect();

        let points: Vec<(f64, f64, f64)> = cells
            .iter()
            .zip(&scores)
            .map(|(&(tn, tl), &score)| (tn, tl, score))
            .collect();

        // Minimise the fitted surface on the search box (lines 11-12); fall
        // back to the best raw cell if the fit is degenerate.
        match QuadraticSurface::fit(&points) {
            Ok(surface) => {
                let (n_mc, _, _) = surface.argmin_on_box(
                    (c, n_chao),
                    (self.config.lambda_lo, self.config.lambda_hi),
                    self.config.surface_resolution,
                );
                Some(n_mc)
            }
            Err(_) => points
                .iter()
                .filter(|p| p.2.is_finite())
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .map(|p| p.0),
        }
    }

    /// Algorithm 2: the average KL distance between the observed sample and
    /// `nb_runs` simulated integrations under `(θ_N, θ_λ)`.
    fn average_distance(
        &self,
        theta_n: f64,
        theta_lambda: f64,
        observed_ranks: &[u64],
        source_sizes: &[usize],
    ) -> f64 {
        let n_items = (theta_n.round() as usize).max(1);
        // Publicity p_i ∝ exp(−θ_λ·i), shifted by the max exponent so the
        // weights stay in (0, 1] and never overflow for |θ_λ|·N ≫ 700.
        let max_exp = if theta_lambda >= 0.0 {
            0.0
        } else {
            -theta_lambda * (n_items as f64 - 1.0)
        };
        let weights: Vec<f64> = (0..n_items)
            .map(|i| (-theta_lambda * i as f64 - max_exp).exp())
            .collect();

        // Cell-specific deterministic stream: mix the grid coordinates into
        // the seed so the order cells are scored in cannot change results.
        let cell_tag = (n_items as u64) << 20 ^ ((theta_lambda * 1e6) as i64 as u64);
        let mut rng = Rng::new(self.config.seed ^ cell_tag.wrapping_mul(0x9E37_79B9));

        let mut sampler = FenwickSampler::new(&weights);
        let mut counts = vec![0u64; n_items];
        let mut total = 0.0;
        for _ in 0..self.config.nb_runs {
            counts.iter_mut().for_each(|c| *c = 0);
            for &nj in source_sizes {
                // c ≥ n_j always (a source's items are distinct), and
                // θ_N ≥ c, so every source fits in the simulated population.
                let drawn = sampler.draw_source(nj.min(n_items), &weights, &mut rng);
                for idx in drawn {
                    counts[idx] += 1;
                }
            }
            let mut simulated_ranks: Vec<u64> = counts.iter().copied().filter(|&k| k > 0).collect();
            simulated_ranks.sort_unstable_by(|a, b| b.cmp(a));
            total += smoothed_rank_divergence(
                observed_ranks,
                &simulated_ranks,
                self.config.smoothing_epsilon,
            );
        }
        total / self.config.nb_runs as f64
    }
}

impl SumEstimator for MonteCarloEstimator {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn estimate_delta(&self, sample: &SampleView) -> DeltaEstimate {
        match self.estimate_count(sample) {
            Some(n_mc) => NaiveEstimator::delta_for_count(sample, n_mc),
            None => DeltaEstimate::UNDEFINED,
        }
    }

    fn estimate_delta_profiled(&self, profile: &ViewProfile<'_>) -> DeltaEstimate {
        match self.estimate_count_profiled(profile) {
            Some(n_mc) => NaiveEstimator::delta_for_count(profile.view(), n_mc),
            None => DeltaEstimate::UNDEFINED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::StreamAccumulator;
    use uu_datagen::integration::{ArrivalOrder, IntegratedSample};
    use uu_datagen::population::{Population, Publicity, ValueSpec};

    fn accumulate(pop: &Population, sample: &IntegratedSample, upto: usize) -> SampleView {
        let mut acc = StreamAccumulator::new();
        for obs in sample.prefix(upto) {
            acc.push(
                obs.item_id as u64,
                pop.value(obs.item_id),
                obs.source_id as u32,
            );
        }
        acc.view()
    }

    fn skewed_scenario(w: usize, per: usize, seed: u64) -> (Population, IntegratedSample) {
        let pop = Population::builder(100)
            .values(ValueSpec::Arithmetic {
                start: 10.0,
                step: 10.0,
            })
            .publicity(Publicity::Exponential { lambda: 1.0 })
            .correlation(1.0)
            .build(seed);
        let mut rng = Rng::new(seed);
        let sizes = vec![per; w];
        let s = IntegratedSample::integrate(&pop, &sizes, ArrivalOrder::RoundRobin, &mut rng);
        (pop, s)
    }

    #[test]
    fn undefined_without_lineage() {
        let s = SampleView::from_value_multiplicities([(1.0, 2), (2.0, 1)]);
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        assert_eq!(est.estimate_count(&s), None);
        assert!(!est.estimate_delta(&s).is_defined());
    }

    #[test]
    fn undefined_on_empty() {
        let s = SampleView::from_value_multiplicities(std::iter::empty());
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        assert_eq!(est.estimate_count(&s), None);
    }

    #[test]
    fn count_stays_inside_the_search_box() {
        let (pop, stream) = skewed_scenario(20, 15, 1);
        let view = accumulate(&pop, &stream, 300);
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        let n_mc = est.estimate_count(&view).unwrap();
        let c = view.c() as f64;
        let n_chao = uu_stats::species::chao92(view.freq()).value().unwrap();
        assert!(n_mc >= c - 1e-9, "n_mc {n_mc} < c {c}");
        assert!(n_mc <= n_chao + 1e-9, "n_mc {n_mc} > chao {n_chao}");
    }

    #[test]
    fn complete_sample_returns_c() {
        // Every item seen many times: Chao92 ≈ c, box collapses.
        let mut acc = StreamAccumulator::new();
        for source in 0..10u32 {
            for item in 0..20u64 {
                acc.push(item, item as f64, source);
            }
        }
        let view = acc.view();
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        let n_mc = est.estimate_count(&view).unwrap();
        assert!((n_mc - 20.0).abs() < 1.0, "n_mc {n_mc}");
    }

    #[test]
    fn deterministic_across_calls() {
        let (pop, stream) = skewed_scenario(10, 20, 2);
        let view = accumulate(&pop, &stream, 200);
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        let a = est.estimate_count(&view).unwrap();
        let b = est.estimate_count(&view).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recovers_population_scale_under_healthy_sampling() {
        let (pop, stream) = skewed_scenario(25, 20, 3);
        let view = accumulate(&pop, &stream, 500);
        let est = MonteCarloEstimator::new(MonteCarloConfig::default());
        let n_mc = est.estimate_count(&view).unwrap();
        // True N = 100; accept a generous band — the estimator is coarse.
        assert!(
            (60.0..160.0).contains(&n_mc),
            "n_mc {n_mc} far from true N = 100 (c = {})",
            view.c()
        );
    }

    #[test]
    fn robust_to_streakers_only() {
        // Two exhaustive streakers: Chao92 wildly overestimates (all
        // f-statistics collapse to doubletons after the second pass at
        // half-way), MC should stay near the observed count.
        let pop = Population::builder(100)
            .values(ValueSpec::Arithmetic {
                start: 10.0,
                step: 10.0,
            })
            .publicity(Publicity::Exponential { lambda: 1.0 })
            .correlation(1.0)
            .build(5);
        let mut rng = Rng::new(5);
        let sources = vec![
            uu_datagen::source::draw_exhaustive_source(&pop, 0, &mut rng),
            uu_datagen::source::draw_exhaustive_source(&pop, 1, &mut rng),
        ];
        let stream =
            IntegratedSample::from_sources(sources, ArrivalOrder::SourceBySource, &mut rng);
        // Mid-second-streaker: n = 150, half the items are doubletons.
        let view = accumulate(&pop, &stream, 150);
        let est = MonteCarloEstimator::new(MonteCarloConfig::default());
        let n_mc = est.estimate_count(&view).unwrap();
        let n_chao = uu_stats::species::chao92(view.freq()).value().unwrap();
        assert!(
            n_mc <= n_chao,
            "MC ({n_mc}) must not exceed the Chao92 bound ({n_chao})"
        );
        // The defining behaviour: MC hugs c, Chao92 runs away.
        let c = view.c() as f64;
        assert!(
            (n_mc - c).abs() < (n_chao - c).abs(),
            "MC ({n_mc}) should sit closer to c ({c}) than Chao92 ({n_chao})"
        );
    }

    #[test]
    fn negative_lambda_cells_do_not_overflow() {
        // A large simulated population with the most negative skew would
        // overflow exp() without the max-exponent shift; the estimate must
        // stay finite and in range.
        let mut acc = StreamAccumulator::new();
        // 2000 unique items, a few duplicated so Chao92 is defined but large.
        for item in 0..2000u64 {
            acc.push(item, item as f64 + 1.0, (item % 40) as u32);
        }
        for item in 0..100u64 {
            acc.push(item, item as f64 + 1.0, 40);
        }
        let view = acc.view();
        let est = MonteCarloEstimator::new(MonteCarloConfig::fast());
        let n_mc = est.estimate_count(&view).expect("defined");
        assert!(n_mc.is_finite());
        assert!(n_mc >= view.c() as f64 - 1e-9);
    }

    #[test]
    fn lambda_grid_has_paper_shape() {
        let cfg = MonteCarloConfig::default();
        let grid = cfg.lambda_grid();
        assert_eq!(grid.len(), 9);
        assert!((grid[0] + 0.4).abs() < 1e-9);
        assert!((grid[8] - 0.4).abs() < 1e-9);
    }
}
