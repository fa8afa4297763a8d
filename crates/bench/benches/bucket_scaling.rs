//! Ablation: dynamic-bucket cost versus sample size, and dynamic vs. static
//! splitting (the design choice of §3.3.2).
//!
//! The scaling sweep times `DynamicBucketEstimator::estimate_delta` at
//! c = 1k, 2k, 4k, … 1M distinct values (doubling) on three value shapes:
//!
//! * **int** — distinct integers with random gaps;
//! * **grid** — multiples of 7.5;
//! * **offgrid** — multiples of 0.1, which no short binary grid holds.
//!
//! Every case is re-timed explicitly and written as machine-readable JSON to
//! `BENCH_bucket_scaling.json` (in `$BENCH_JSON_DIR` when set), one case per
//! line with its mean and min in ns. `scripts/check_bucket_scaling.sh` gates
//! the same-run ratio time(2c)/time(c), averaged over the sweep, on every
//! shape.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uu_core::bucket::{DynamicBucketEstimator, StaticBucketEstimator, StaticStrategy};
use uu_core::estimate::SumEstimator;
use uu_core::sample::SampleView;
use uu_stats::rng::Rng;

/// The smallest and largest c of the sweep; sizes double from the first.
const C_MIN: usize = 1_000;
const C_MAX: usize = 1_024_000;
/// Each case runs until both bounds are met (after one warm-up run).
const MIN_SAMPLES: usize = 5;
const MIN_TOTAL_NS: f64 = 200e6;

/// `unique` distinct values of the named shape, each seen 1–4 times.
fn shaped_sample(shape: &str, unique: usize, seed: u64) -> SampleView {
    let mut rng = Rng::new(seed);
    let mut int_value = 0u64;
    SampleView::from_value_multiplicities((0..unique).map(|i| {
        let mult = 1 + rng.next_below(4) as u64;
        let value = match shape {
            "int" => {
                int_value += 1 + rng.next_below(100) as u64;
                int_value as f64
            }
            "grid" => (i as f64 + 1.0) * 7.5,
            "offgrid" => (i as f64 + 1.0) * 0.1,
            other => unreachable!("unknown shape {other}"),
        };
        (value, mult)
    }))
}

/// Mean and min ns of `est.estimate_delta(view)`, plus the sample count.
fn time_delta(est: &DynamicBucketEstimator, view: &SampleView) -> (f64, f64, usize) {
    black_box(est.estimate_delta(view)); // warm-up
    let (mut total, mut best, mut samples) = (0.0, f64::INFINITY, 0);
    while samples < MIN_SAMPLES || total < MIN_TOTAL_NS {
        let start = Instant::now();
        black_box(est.estimate_delta(black_box(view)));
        let ns = start.elapsed().as_secs_f64() * 1e9;
        total += ns;
        best = best.min(ns);
        samples += 1;
    }
    (total / samples as f64, best, samples)
}

fn bench_scaling() {
    let est = DynamicBucketEstimator::default();
    let mut lines = Vec::new();
    for shape in ["int", "grid", "offgrid"] {
        let mut c = C_MIN;
        while c <= C_MAX {
            let view = shaped_sample(shape, c, 7);
            let (mean, min, samples) = time_delta(&est, &view);
            println!(
                "bucket_scaling/{shape}/c{c}: mean {:.3} ms, min {:.3} ms ({samples} samples)",
                mean / 1e6,
                min / 1e6
            );
            lines.push(format!(
                "    \"{shape}/c{c}\": {{ \"shape\": \"{shape}\", \"c\": {c}, \"samples\": {samples}, \"mean\": {mean:.0}, \"min\": {min:.0} }}"
            ));
            c *= 2;
        }
    }

    let mut json = String::from("{\n  \"bench\": \"bucket_scaling\",\n  \"dynamic_ns\": {\n");
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  }\n}\n");
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_bucket_scaling.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nbucket_scaling: wrote {}", path.display()),
        Err(e) => println!("\nbucket_scaling: could not write {}: {e}", path.display()),
    }
}

fn bench_bucket(c: &mut Criterion) {
    bench_scaling();

    let mut group = c.benchmark_group("bucket_scaling/dynamic_vs_static_c200");
    group.sample_size(20);
    let view = shaped_sample("grid", 200, 11);
    group.bench_function("dynamic", |b| {
        let est = DynamicBucketEstimator::default();
        b.iter(|| black_box(est.estimate_delta(black_box(&view))))
    });
    for nb in [2usize, 10] {
        group.bench_function(format!("eqwidth_{nb}"), |b| {
            let est = StaticBucketEstimator::new(StaticStrategy::EquiWidth, nb);
            b.iter(|| black_box(est.estimate_delta(black_box(&view))))
        });
        group.bench_function(format!("eqheight_{nb}"), |b| {
            let est = StaticBucketEstimator::new(StaticStrategy::EquiHeight, nb);
            b.iter(|| black_box(est.estimate_delta(black_box(&view))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bucket);
criterion_main!(benches);
