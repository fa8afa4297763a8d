//! Monte-Carlo estimator ablations: simulation repetitions and grid
//! resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uu_core::estimate::SumEstimator;
use uu_core::montecarlo::{MonteCarloConfig, MonteCarloEstimator};
use uu_core::sample::replay_checkpoints;
use uu_datagen::scenario::figure6;

fn bench_mc(c: &mut Criterion) {
    let s = figure6(10, 1.0, 1.0, 21);
    let (_, view) = replay_checkpoints(s.stream(), &[400]).remove(0);

    let mut group = c.benchmark_group("mc_ablation/nb_runs");
    group.sample_size(10);
    for nb_runs in [2usize, 5, 10] {
        let est = MonteCarloEstimator::new(MonteCarloConfig {
            nb_runs,
            ..Default::default()
        });
        group.bench_function(format!("runs{nb_runs}"), |b| {
            b.iter(|| black_box(est.estimate_delta(black_box(&view))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mc_ablation/grid_steps");
    group.sample_size(10);
    for steps in [5usize, 10, 20] {
        let est = MonteCarloEstimator::new(MonteCarloConfig {
            n_grid_steps: steps,
            ..Default::default()
        });
        group.bench_function(format!("steps{steps}"), |b| {
            b.iter(|| black_box(est.estimate_delta(black_box(&view))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mc);
criterion_main!(benches);
