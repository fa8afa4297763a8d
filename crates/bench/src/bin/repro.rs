//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--reps R] [--seed S] [--fast]
//! repro all [--fast]
//! ```
//!
//! Experiments: `fig2 fig4 fig5a fig5b fig5c fig6 fig7a fig7b fig7c fig7d
//! fig7e fig7f fig8 fig9 fig10 fig11 table2 runtime`.
//!
//! Each experiment prints the series/rows of the corresponding figure or
//! table; the `table2_toy_example` and `paper_claims` integration tests pin
//! the paper's numbers and claims against the same generators. `--fast`
//! shrinks repetition counts and the Monte-Carlo grid (useful for smoke
//! runs); the defaults are the full-fidelity settings.

use std::time::Instant;

use uu_bench::{cell, mean_series, print_series, run_from_stream, standard_estimators};
use uu_core::aggregates::{avg_estimate, max_report, min_report, EXTREME_TRUST_THRESHOLD};
use uu_core::bound::{sum_upper_bound, UpperBoundConfig};
use uu_core::bucket::{StaticBucketEstimator, StaticStrategy};
use uu_core::combined::{frequency_in_bucket, monte_carlo_in_bucket};
use uu_core::engine::{self, EstimatorKind};
use uu_core::estimate::SumEstimator;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::sample::replay_checkpoints;
use uu_datagen::realworld;
use uu_datagen::scenario;

#[derive(Clone)]
struct Opts {
    reps: u64,
    seed: u64,
    fast: bool,
    csv_dir: Option<std::path::PathBuf>,
}

impl Opts {
    fn mc(&self) -> MonteCarloConfig {
        if self.fast {
            MonteCarloConfig::fast()
        } else {
            MonteCarloConfig::default()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut opts = Opts {
        reps: 0, // 0 = per-experiment default
        seed: 42,
        fast: false,
        csv_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                opts.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs a number"));
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--fast" => opts.fast = true,
            "--csv" => {
                let dir = it
                    .next()
                    .unwrap_or_else(|| usage("--csv needs a directory"));
                opts.csv_dir = Some(std::path::PathBuf::from(dir));
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let experiment = experiment.unwrap_or_else(|| usage("missing experiment name"));
    run_experiment(&experiment, &opts);
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro <fig2|fig4|fig5a|fig5b|fig5c|fig6|fig7a|fig7b|fig7c|fig7d|fig7e|fig7f|\
         fig8|fig9|fig10|fig11|table2|count|runtime|all> \
         [--reps R] [--seed S] [--fast] [--csv DIR]"
    );
    std::process::exit(2);
}

fn run_experiment(name: &str, opts: &Opts) {
    let started = Instant::now();
    match name {
        "fig2" => fig2(opts),
        "fig4" => fig4(opts),
        "fig5a" => fig5a(opts),
        "fig5b" => fig5b(opts),
        "fig5c" => fig5c(opts),
        "fig6" => fig6(opts),
        "fig7a" => fig7a(opts),
        "fig7b" => fig7b(opts),
        "fig7c" => fig7c(opts),
        "fig7d" => fig7d(opts),
        "fig7e" => fig7ef(opts, true),
        "fig7f" => fig7ef(opts, false),
        "fig8" => fig8(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig11" => fig11(opts),
        "table2" => table2(),
        "runtime" => runtime(opts),
        "count" => count_ablation(opts),
        "all" => {
            for exp in [
                "table2", "fig2", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7a", "fig7b",
                "fig7c", "fig7d", "fig7e", "fig7f", "fig8", "fig9", "fig10", "fig11", "count",
                "runtime",
            ] {
                run_experiment(exp, opts);
                println!();
            }
            return;
        }
        other => usage(&format!("unknown experiment {other:?}")),
    }
    eprintln!("[{name} done in {:.2?}]", started.elapsed());
}

/// Prints a series and, with `--csv DIR`, also writes `DIR/<name>.csv`.
fn emit(series: &uu_bench::MeanSeries, opts: &Opts, name: &str) {
    print_series(series);
    if let Some(dir) = &opts.csv_dir {
        match uu_bench::write_series_csv(series, dir, name) {
            Ok(path) => eprintln!("[csv -> {}]", path.display()),
            Err(e) => eprintln!("[csv write failed: {e}]"),
        }
    }
}

fn reps_or(opts: &Opts, default: u64) -> u64 {
    if opts.reps > 0 {
        opts.reps
    } else if opts.fast {
        (default / 5).max(1)
    } else {
        default
    }
}

fn checkpoints(step: usize, max: usize) -> Vec<usize> {
    (1..=max / step).map(|i| i * step).collect()
}

// ---------------------------------------------------------------------------
// Real-data figures
// ---------------------------------------------------------------------------

/// Figure 2: the motivating gap — observed SUM vs. ground truth on the US
/// tech-employment stream.
fn fig2(opts: &Opts) {
    println!("== Figure 2: employees in the US tech sector (observed vs. ground truth) ==");
    let d = realworld::tech_employment(opts.seed);
    let truth = d.ground_truth_sum();
    println!("{}", d.question);
    println!(
        "{:>8} {:>13} {:>13} {:>9}",
        "answers", "observed", "truth", "gap%"
    );
    for (n, view) in replay_checkpoints(d.stream(), &checkpoints(50, d.sample.len())) {
        let obs = view.observed_sum();
        println!(
            "{:>8} {} {} {:>8.1}%",
            n,
            cell(Some(obs)),
            cell(Some(truth)),
            (truth - obs) / truth * 100.0
        );
    }
}

fn real_dataset_figure(
    title: &str,
    make: impl Fn(u64) -> realworld::RealWorldDataset + Sync,
    step: usize,
    opts: &Opts,
    csv_name: &str,
) {
    println!("== {title} ==");
    let estimators = standard_estimators(opts.mc());
    let reps = reps_or(opts, 5);
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let d = make(seed);
            let truth = d.ground_truth_sum();
            let cps = checkpoints(step, d.sample.len());
            run_from_stream(truth, d.stream(), &cps)
        },
        &estimators,
    );
    println!("(mean over {reps} seeded runs)");
    emit(&series, opts, csv_name);
}

/// Figure 4: all four estimators on US tech employment.
fn fig4(opts: &Opts) {
    real_dataset_figure(
        "Figure 4: US tech-sector employment",
        realworld::tech_employment,
        50,
        opts,
        "fig4",
    );
}

/// Figure 5(a): US tech revenue.
fn fig5a(opts: &Opts) {
    real_dataset_figure(
        "Figure 5(a): US tech-sector revenue",
        realworld::tech_revenue,
        40,
        opts,
        "fig5a",
    );
}

/// Figure 5(b): GDP per US state, with a streaker.
fn fig5b(opts: &Opts) {
    real_dataset_figure(
        "Figure 5(b): GDP per US state (streaker: one worker reports 45 states first)",
        realworld::us_gdp,
        20,
        opts,
        "fig5b",
    );
}

/// Figure 5(c): Proton beam.
fn fig5c(opts: &Opts) {
    real_dataset_figure(
        "Figure 5(c): proton-beam study participants",
        realworld::proton_beam,
        60,
        opts,
        "fig5c",
    );
}

// ---------------------------------------------------------------------------
// Synthetic grids
// ---------------------------------------------------------------------------

/// Figure 6: 3×3 grid — workers {100, 10, 5} × regimes {(λ0,ρ0), (λ4,ρ1),
/// (λ4,ρ0)}; paper averages 50 repetitions.
fn fig6(opts: &Opts) {
    println!("== Figure 6: synthetic grid (N = 100, values 10..1000, truth 50 500) ==");
    let reps = reps_or(opts, 50);
    println!("(mean over {reps} seeded runs per cell)");
    let estimators = standard_estimators(opts.mc());
    for (regime, lambda, rho) in [
        ("lambda=0, rho=0 (ideal)", 0.0, 0.0),
        ("lambda=4, rho=1 (realistic)", 4.0, 1.0),
        ("lambda=4, rho=0 (rare events)", 4.0, 0.0),
    ] {
        for w in [100usize, 10, 5] {
            println!();
            println!("-- w = {w}, {regime} --");
            let series = mean_series(
                reps,
                opts.seed,
                |seed| {
                    let s = scenario::figure6(w, lambda, rho, seed);
                    let truth = s.population.ground_truth_sum();
                    run_from_stream(truth, s.stream(), &checkpoints(100, 500))
                },
                &estimators,
            );
            emit(&series, opts, &format!("fig6_w{w}_l{lambda}_r{rho}"));
        }
    }
}

/// Figure 7(a): streakers only — sources that each contribute all 100 items,
/// one after another.
fn fig7a(opts: &Opts) {
    println!("== Figure 7(a): streakers only (each source provides all N = 100 items) ==");
    let reps = reps_or(opts, 20);
    println!("(mean over {reps} seeded runs)");
    let estimators = standard_estimators(opts.mc());
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let s = scenario::streakers_only(5, seed);
            let truth = s.population.ground_truth_sum();
            run_from_stream(truth, s.stream(), &checkpoints(50, 500))
        },
        &estimators,
    );
    emit(&series, opts, "fig7a");
}

/// Figure 7(b): a streaker injected at n = 160.
fn fig7b(opts: &Opts) {
    println!("== Figure 7(b): streaker injected at n = 160 ==");
    let reps = reps_or(opts, 20);
    println!("(mean over {reps} seeded runs)");
    let estimators = standard_estimators(opts.mc());
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let s = scenario::streaker_injected(seed);
            let truth = s.population.ground_truth_sum();
            run_from_stream(truth, s.stream(), &checkpoints(40, 500))
        },
        &estimators,
    );
    emit(&series, opts, "fig7b");
}

/// Figure 7(c): the §4 upper bound vs. observed and bucket estimates.
fn fig7c(opts: &Opts) {
    println!("== Figure 7(c): estimation upper bound (lambda=1, rho=1, w=20) ==");
    let reps = reps_or(opts, 50);
    println!("(mean over {reps} seeded runs; bound at 99% confidence, z = 3)");
    println!(
        "{:>8} {:>13} {:>13} {:>13} {:>13}",
        "n", "observed", "bucket", "upper-bound", "truth"
    );
    let cps = checkpoints(100, 1000);
    let bucket = EstimatorKind::Bucket.build();
    let mut truth_acc = 0.0;
    let mut rows: Vec<(f64, f64, f64, u64)> = vec![(0.0, 0.0, 0.0, 0); cps.len()];
    for rep in 0..reps {
        let s = scenario::section64(opts.seed + rep);
        truth_acc += s.population.ground_truth_sum();
        for (k, (_, view)) in replay_checkpoints(s.stream(), &cps).iter().enumerate() {
            rows[k].0 += view.observed_sum();
            rows[k].1 += bucket.estimate_sum_or_observed(view);
            if let Some(b) = sum_upper_bound(view, UpperBoundConfig::default()) {
                rows[k].2 += b.phi_d_bound;
                rows[k].3 += 1;
            }
        }
    }
    let truth = truth_acc / reps as f64;
    for (k, &n) in cps.iter().enumerate() {
        let (obs, bkt, bound, bn) = rows[k];
        let bound = if bn > 0 {
            Some(bound / bn as f64)
        } else {
            None
        };
        println!(
            "{:>8} {} {} {} {}",
            n,
            cell(Some(obs / reps as f64)),
            cell(Some(bkt / reps as f64)),
            cell(bound),
            cell(Some(truth))
        );
    }
}

/// Figure 7(d): AVG — observed vs. bucket-corrected.
fn fig7d(opts: &Opts) {
    println!("== Figure 7(d): AVG query (lambda=1, rho=1, w=20; true avg = 505) ==");
    let reps = reps_or(opts, 50);
    println!("(mean over {reps} seeded runs)");
    println!(
        "{:>8} {:>13} {:>13} {:>13}",
        "n", "observed-avg", "bucket-avg", "truth"
    );
    let cps = checkpoints(100, 1000);
    let bucket = engine::bucket_estimator();
    let mut rows: Vec<(f64, f64)> = vec![(0.0, 0.0); cps.len()];
    let mut truth_acc = 0.0;
    for rep in 0..reps {
        let s = scenario::section64(opts.seed + rep);
        truth_acc += s.population.ground_truth_avg().unwrap();
        for (k, (_, view)) in replay_checkpoints(s.stream(), &cps).iter().enumerate() {
            let avg = avg_estimate(view, &bucket).expect("non-empty view");
            rows[k].0 += avg.observed;
            rows[k].1 += avg.corrected;
        }
    }
    let truth = truth_acc / reps as f64;
    for (k, &n) in cps.iter().enumerate() {
        println!(
            "{:>8} {} {} {}",
            n,
            cell(Some(rows[k].0 / reps as f64)),
            cell(Some(rows[k].1 / reps as f64)),
            cell(Some(truth))
        );
    }
}

/// Figures 7(e) MAX / 7(f) MIN: how often the extreme strategy reports, and
/// how often the report is the true extreme (the paper's heat-map + rate).
fn fig7ef(opts: &Opts, take_max: bool) {
    let (label, figure) = if take_max {
        ("MAX", "7(e)")
    } else {
        ("MIN", "7(f)")
    };
    println!("== Figure {figure}: {label} query trust reporting (lambda=1, rho=1, w=20) ==");
    let reps = reps_or(opts, 200);
    println!("({reps} seeded runs; paper uses 1000)");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>12}",
        "n", "reported%", "correct%", "avg-reported", "true-extreme"
    );
    let cps = checkpoints(100, 1000);
    let bucket = engine::bucket_estimator();
    let mut reported = vec![0u64; cps.len()];
    let mut correct = vec![0u64; cps.len()];
    let mut value_acc = vec![0.0f64; cps.len()];
    let mut truth_acc = 0.0;
    for rep in 0..reps {
        let s = scenario::section64(opts.seed + rep);
        let truth = if take_max {
            s.population.ground_truth_max().unwrap()
        } else {
            s.population.ground_truth_min().unwrap()
        };
        truth_acc += truth;
        for (k, (_, view)) in replay_checkpoints(s.stream(), &cps).iter().enumerate() {
            let report = if take_max {
                max_report(view, &bucket, EXTREME_TRUST_THRESHOLD)
            } else {
                min_report(view, &bucket, EXTREME_TRUST_THRESHOLD)
            };
            if let Some(r) = report {
                if r.is_trusted() {
                    reported[k] += 1;
                    value_acc[k] += r.observed();
                    if r.observed() == truth {
                        correct[k] += 1;
                    }
                }
            }
        }
    }
    for (k, &n) in cps.iter().enumerate() {
        let rep_pct = reported[k] as f64 / reps as f64 * 100.0;
        let cor_pct = if reported[k] > 0 {
            correct[k] as f64 / reported[k] as f64 * 100.0
        } else {
            f64::NAN
        };
        let avg_val = if reported[k] > 0 {
            value_acc[k] / reported[k] as f64
        } else {
            f64::NAN
        };
        println!(
            "{:>8} {:>9.1}% {:>11.1}% {:>14.1} {:>12.1}",
            n,
            rep_pct,
            cor_pct,
            avg_val,
            truth_acc / reps as f64
        );
    }
}

// ---------------------------------------------------------------------------
// Appendix figures
// ---------------------------------------------------------------------------

fn static_bucket_estimators() -> Vec<uu_bench::NamedEstimator> {
    vec![
        ("naive(1bkt)", EstimatorKind::Naive.build()),
        ("dynamic", EstimatorKind::Bucket.build()),
        (
            "eqw-2",
            Box::new(StaticBucketEstimator::new(StaticStrategy::EquiWidth, 2)),
        ),
        (
            "eqw-6",
            Box::new(StaticBucketEstimator::new(StaticStrategy::EquiWidth, 6)),
        ),
        (
            "eqw-10",
            Box::new(StaticBucketEstimator::new(StaticStrategy::EquiWidth, 10)),
        ),
        (
            "eqh-6",
            Box::new(StaticBucketEstimator::new(StaticStrategy::EquiHeight, 6)),
        ),
        (
            "eqh-10",
            Box::new(StaticBucketEstimator::new(StaticStrategy::EquiHeight, 10)),
        ),
    ]
}

/// Figure 8 (App. B): static buckets on the tech-employment workload —
/// skewed and correlated, so more buckets help (until they go empty).
fn fig8(opts: &Opts) {
    println!("== Figure 8 (App. B): static buckets on US tech employment ==");
    let reps = reps_or(opts, 5);
    println!("(mean over {reps} seeded runs; '-' = undefined: empty/singleton-only bucket)");
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let d = realworld::tech_employment(seed);
            let truth = d.ground_truth_sum();
            let cps = checkpoints(50, d.sample.len());
            run_from_stream(truth, d.stream(), &cps)
        },
        &static_bucket_estimators(),
    );
    emit(&series, opts, "fig8");
}

/// Figure 9 (App. B): static buckets on the uniform synthetic workload —
/// splitting hurts when the publicity is uniform.
fn fig9(opts: &Opts) {
    println!("== Figure 9 (App. B): static buckets on Sum(10:10:1000), uniform publicity ==");
    let reps = reps_or(opts, 20);
    println!("(mean over {reps} seeded runs; '-' = undefined: empty/singleton-only bucket)");
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let s = scenario::figure9(seed);
            let truth = s.population.ground_truth_sum();
            run_from_stream(truth, s.stream(), &checkpoints(50, 500))
        },
        &static_bucket_estimators(),
    );
    emit(&series, opts, "fig9");
}

/// Figure 10 (App. D): combined estimators on tech employment.
fn fig10(opts: &Opts) {
    println!("== Figure 10 (App. D): combined estimators on US tech employment ==");
    // MC-in-bucket evaluates a Monte-Carlo estimate per candidate split and
    // is by far the slowest configuration (~30 s per repetition).
    let reps = reps_or(opts, 3);
    println!("(mean over {reps} seeded runs)");
    let estimators: Vec<uu_bench::NamedEstimator> = vec![
        ("bucket", EstimatorKind::Bucket.build()),
        ("freq-in-bkt", Box::new(frequency_in_bucket())),
        ("mc-in-bkt", Box::new(monte_carlo_in_bucket(opts.mc()))),
        ("mc", EstimatorKind::MonteCarlo(opts.mc()).build()),
        ("freq", EstimatorKind::Frequency.build()),
    ];
    let series = mean_series(
        reps,
        opts.seed,
        |seed| {
            let d = realworld::tech_employment(seed);
            let truth = d.ground_truth_sum();
            let cps = checkpoints(100, d.sample.len());
            run_from_stream(truth, d.stream(), &cps)
        },
        &estimators,
    );
    emit(&series, opts, "fig10");
}

/// Figure 11 (App. E): number-of-sources sweep at λ = 4, ρ = 1.
fn fig11(opts: &Opts) {
    println!("== Figure 11 (App. E): sources sweep (lambda=4, rho=1) ==");
    let reps = reps_or(opts, 20);
    println!("(mean over {reps} seeded runs)");
    let estimators = standard_estimators(opts.mc());
    for w in [2usize, 3, 4, 5] {
        println!();
        println!("-- w = {w} sources, 60 items each --");
        let series = mean_series(
            reps,
            opts.seed,
            |seed| {
                let s = scenario::sources_sweep(w, seed);
                let truth = s.population.ground_truth_sum();
                run_from_stream(truth, s.stream(), &checkpoints(60, w * 60))
            },
            &estimators,
        );
        emit(&series, opts, &format!("fig11_w{w}"));
    }
}

// ---------------------------------------------------------------------------
// Table 2 and the runtime comparison
// ---------------------------------------------------------------------------

/// Table 2 (App. F): the toy example, exact numbers.
fn table2() {
    use uu_core::sample::SampleView;
    println!("== Table 2 (App. F): toy example, paper value vs. computed ==");
    let before = SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)]);
    let after = SampleView::from_value_multiplicities([
        (1000.0, 2),
        (2000.0, 2),
        (10_000.0, 4),
        (300.0, 1),
    ]);
    println!("ground truth phi_D = 14200 (companies A, B, C, D, E; C never observed)");
    println!(
        "{:<10} {:>16} {:>12} {:>16} {:>12}",
        "estimator", "before s5", "paper", "after s5", "paper"
    );
    println!(
        "{:<10} {:>16.1} {:>12} {:>16.1} {:>12}",
        "observed",
        before.observed_sum(),
        "13000",
        after.observed_sum(),
        "13300"
    );
    let rows: Vec<(EstimatorKind, &str, &str)> = vec![
        (EstimatorKind::Naive, "~16009", "~14962"),
        (EstimatorKind::Frequency, "~13694", "13450"),
        (EstimatorKind::Bucket, "14500", "13950"),
    ];
    for (kind, paper_before, paper_after) in rows {
        let est = kind.build();
        println!(
            "{:<10} {:>16.1} {:>12} {:>16.1} {:>12}",
            kind.name(),
            est.estimate_sum(&before).unwrap(),
            paper_before,
            est.estimate_sum(&after).unwrap(),
            paper_after
        );
    }
}

/// Ablation (§5 COUNT): count estimators — the species-richness family, the
/// Monte-Carlo count, and the capture–recapture baselines from the related
/// work — against the true N under three publicity regimes.
fn count_ablation(opts: &Opts) {
    use uu_core::capture::{lincoln_petersen, schnabel};
    use uu_stats::species::SpeciesEstimator;

    println!("== COUNT ablation: N-hat vs true N = 100 (w = 20 sources, n = 400) ==");
    let reps = reps_or(opts, 20);
    println!("(mean over {reps} seeded runs; '-' = undefined)");
    println!(
        "{:>28} {:>9} {:>9} {:>9}",
        "estimator", "lam=0", "lam=2", "lam=4"
    );
    let mc = EstimatorKind::MonteCarlo(opts.mc());
    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    for est in SpeciesEstimator::ALL {
        rows.push((est.name().to_string(), Vec::new()));
    }
    rows.push(("monte-carlo".to_string(), Vec::new()));
    rows.push(("lincoln-petersen".to_string(), Vec::new()));
    rows.push(("schnabel".to_string(), Vec::new()));

    for lambda in [0.0, 2.0, 4.0] {
        let mut acc: Vec<(f64, u64)> = vec![(0.0, 0); rows.len()];
        for rep in 0..reps {
            let s = scenario::synthetic(
                "count-ablation",
                20,
                20,
                lambda,
                0.0,
                uu_datagen::integration::ArrivalOrder::RoundRobin,
                opts.seed + rep,
            );
            let (_, view) = replay_checkpoints(s.stream(), &[400]).remove(0);
            let mut estimates: Vec<Option<f64>> = SpeciesEstimator::ALL
                .iter()
                .map(|est| est.estimate(view.freq()).value())
                .collect();
            estimates.push(mc.estimate_count(&view));
            estimates.push(lincoln_petersen(&view));
            estimates.push(schnabel(&view));
            for (slot, est) in acc.iter_mut().zip(&estimates) {
                if let Some(v) = est {
                    slot.0 += v;
                    slot.1 += 1;
                }
            }
        }
        for (row, (sum, count)) in rows.iter_mut().zip(&acc) {
            row.1.push(if *count > 0 {
                Some(sum / *count as f64)
            } else {
                None
            });
        }
    }
    for (name, values) in &rows {
        print!("{name:>28}");
        for v in values {
            match v {
                Some(x) => print!(" {x:>9.1}"),
                None => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    println!("(true N = 100 in every column)");
}

/// §6.1.5: wall-clock runtime of one estimate per estimator on the
/// tech-employment sample at 500 answers (paper: MC ≈ 3.5 s ≫ bucket ≈ 0.2 s;
/// we assert the shape, not the milliseconds — see also the criterion bench).
fn runtime(opts: &Opts) {
    println!("== §6.1.5: single-estimate runtime on tech employment @ 500 answers ==");
    let d = realworld::tech_employment(opts.seed);
    let (_, view) = replay_checkpoints(d.stream(), &[500]).remove(0);
    println!("sample: n = {}, c = {}", view.n(), view.c());
    for (name, est) in standard_estimators(opts.mc()) {
        let start = Instant::now();
        let result = est.estimate_sum(&view);
        let elapsed = start.elapsed();
        println!(
            "{:<12} {:>12.3?}   estimate = {}",
            name,
            elapsed,
            cell(result)
        );
    }
}
