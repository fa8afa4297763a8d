//! Harness utilities shared by the `repro` binary and the criterion benches.
//!
//! Every figure in the paper is a *series*: estimates as a function of the
//! number of integrated answers, usually averaged over seeded repetitions.
//! [`mean_series`] runs that protocol for any workload generator and any set
//! of estimators and [`print_series`] renders it as the aligned text table
//! the harness prints in place of the paper's plots.

pub mod oracle;

use uu_core::engine::{BoxedEstimator, EstimatorKind};
use uu_core::estimate::SumEstimator;
use uu_core::montecarlo::MonteCarloConfig;
use uu_core::sample::{replay_checkpoints, SampleView};

/// A named boxed estimator.
pub type NamedEstimator = (&'static str, BoxedEstimator);

/// Turns registry kinds into named harness estimators.
pub fn named_estimators(kinds: impl IntoIterator<Item = EstimatorKind>) -> Vec<NamedEstimator> {
    kinds.into_iter().map(|k| (k.name(), k.build())).collect()
}

/// The four estimators the paper's figures compare, in presentation order.
pub fn standard_estimators(mc: MonteCarloConfig) -> Vec<NamedEstimator> {
    named_estimators(EstimatorKind::standard(mc))
}

/// One repetition of a workload: its ground truth and checkpointed views.
pub struct Run {
    /// Ground-truth value of the aggregate under study.
    pub truth: f64,
    /// `(n, view)` pairs at the requested checkpoints.
    pub views: Vec<(usize, SampleView)>,
}

/// Builds a [`Run`] from a stream and a ground truth.
pub fn run_from_stream(
    truth: f64,
    stream: impl Iterator<Item = (u64, f64, u32)>,
    checkpoints: &[usize],
) -> Run {
    Run {
        truth,
        views: replay_checkpoints(stream, checkpoints),
    }
}

/// A series of mean estimates over repetitions.
pub struct MeanSeries {
    /// Checkpoints that actually materialised (streams can be shorter than
    /// requested).
    pub checkpoints: Vec<usize>,
    /// Mean ground truth across repetitions.
    pub truth: f64,
    /// Mean observed (closed-world) aggregate per checkpoint.
    pub observed: Vec<f64>,
    /// Estimator names, aligned with `estimates`.
    pub names: Vec<&'static str>,
    /// `estimates[e][k]`: mean estimate of estimator `e` at checkpoint `k`,
    /// averaged over the repetitions where it was defined (`None` if it was
    /// never defined there).
    pub estimates: Vec<Vec<Option<f64>>>,
    /// `spreads[e][k]`: population standard deviation across the defined
    /// repetitions (the error bars the paper omits "for readability";
    /// included in the CSV output).
    pub spreads: Vec<Vec<Option<f64>>>,
}

/// One repetition's evaluated results: the ground truth and, per checkpoint,
/// `(n, observed, corrected sums per estimator)`.
struct RepOutcome {
    truth: f64,
    points: Vec<(usize, f64, Vec<Option<f64>>)>,
}

/// Evaluates one seeded repetition. Each checkpoint view gets one
/// [`uu_core::profile::ViewProfile`], shared across every estimator of the
/// harness.
fn run_rep(
    seed: u64,
    make: &(impl Fn(u64) -> Run + Sync),
    estimators: &[NamedEstimator],
) -> RepOutcome {
    let run = make(seed);
    let points = run
        .views
        .iter()
        .map(|&(n, ref view)| {
            let profile = uu_core::profile::ViewProfile::new(view);
            let sums = estimators
                .iter()
                .map(|(_, est)| est.estimate_sum_profiled(&profile))
                .collect();
            (n, view.observed_sum(), sums)
        })
        .collect();
    RepOutcome {
        truth: run.truth,
        points,
    }
}

/// Evaluates all repetitions, one contiguous run of seeds per core. Each
/// repetition keeps its deterministic seed `base_seed + rep` and the runs
/// are joined in seed order, so the result is bit-identical to a serial
/// loop.
fn run_reps(
    reps: u64,
    base_seed: u64,
    make: &(impl Fn(u64) -> Run + Sync),
    estimators: &[NamedEstimator],
) -> Vec<RepOutcome> {
    let seeds: Vec<u64> = (0..reps).map(|rep| base_seed + rep).collect();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let run = seeds.len().div_ceil(cores).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(run)
            .map(|run| {
                s.spawn(move || {
                    let outcomes = run.iter().map(|&seed| run_rep(seed, make, estimators));
                    outcomes.collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replication panicked"))
            .collect()
    })
}

/// Runs `reps` seeded repetitions of a workload and averages the corrected
/// sums of every estimator at every checkpoint.
///
/// Repetition `rep` always uses seed `base_seed + rep`. Repetitions run on
/// all cores and are folded in repetition order, so the series does not
/// depend on the core count.
pub fn mean_series(
    reps: u64,
    base_seed: u64,
    make: impl Fn(u64) -> Run + Sync,
    estimators: &[NamedEstimator],
) -> MeanSeries {
    let mut checkpoints: Vec<usize> = Vec::new();
    let mut observed_acc: Vec<f64> = Vec::new();
    // (Σx, Σx², count) per estimator per checkpoint.
    let mut est_acc: Vec<Vec<(f64, f64, u64)>> = vec![Vec::new(); estimators.len()];
    let mut truth_acc = 0.0;

    for outcome in run_reps(reps, base_seed, &make, estimators) {
        truth_acc += outcome.truth;
        if checkpoints.is_empty() {
            checkpoints = outcome.points.iter().map(|&(n, _, _)| n).collect();
            observed_acc = vec![0.0; checkpoints.len()];
            for acc in &mut est_acc {
                acc.resize(checkpoints.len(), (0.0, 0.0, 0));
            }
        }
        for (k, (_, observed, sums)) in outcome.points.iter().enumerate() {
            observed_acc[k] += observed;
            for (e, v) in sums.iter().enumerate() {
                if let Some(v) = *v {
                    est_acc[e][k].0 += v;
                    est_acc[e][k].1 += v * v;
                    est_acc[e][k].2 += 1;
                }
            }
        }
    }

    let mut estimates = Vec::with_capacity(est_acc.len());
    let mut spreads = Vec::with_capacity(est_acc.len());
    for col in est_acc {
        let mut means = Vec::with_capacity(col.len());
        let mut sds = Vec::with_capacity(col.len());
        for (sum, sumsq, cnt) in col {
            if cnt > 0 {
                let mean = sum / cnt as f64;
                // Population variance; guard tiny negatives from rounding.
                let var = (sumsq / cnt as f64 - mean * mean).max(0.0);
                means.push(Some(mean));
                sds.push(Some(var.sqrt()));
            } else {
                means.push(None);
                sds.push(None);
            }
        }
        estimates.push(means);
        spreads.push(sds);
    }

    MeanSeries {
        checkpoints,
        truth: truth_acc / reps as f64,
        observed: observed_acc.iter().map(|v| v / reps as f64).collect(),
        names: estimators.iter().map(|&(n, _)| n).collect(),
        estimates,
        spreads,
    }
}

/// Formats an optional estimate into a fixed-width cell.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(x) if x.abs() >= 1e7 => format!("{x:>13.3e}"),
        Some(x) => format!("{x:>13.1}"),
        None => format!("{:>13}", "-"),
    }
}

/// Prints a [`MeanSeries`] as an aligned table with a ground-truth footer.
pub fn print_series(series: &MeanSeries) {
    print!("{:>8} {:>13}", "n", "observed");
    for name in &series.names {
        print!(" {name:>13}");
    }
    println!();
    for (k, &n) in series.checkpoints.iter().enumerate() {
        print!("{:>8} {}", n, cell(Some(series.observed[k])));
        for est in &series.estimates {
            print!(" {}", cell(est[k]));
        }
        println!();
    }
    println!("ground truth: {:.1}", series.truth);
}

/// Renders a [`MeanSeries`] as CSV
/// (`n,observed,<est>,<est>_sd,…,truth`), for external plotting with error
/// bars. Undefined estimates become empty fields.
pub fn series_to_csv(series: &MeanSeries) -> String {
    let mut out = String::from("n,observed");
    for name in &series.names {
        out.push_str(&format!(",{name},{name}_sd"));
    }
    out.push_str(",truth\n");
    for (k, &n) in series.checkpoints.iter().enumerate() {
        out.push_str(&format!("{n},{}", series.observed[k]));
        for (est, sd) in series.estimates.iter().zip(&series.spreads) {
            out.push(',');
            if let Some(v) = est[k] {
                out.push_str(&format!("{v}"));
            }
            out.push(',');
            if let Some(v) = sd[k] {
                out.push_str(&format!("{v}"));
            }
        }
        out.push_str(&format!(",{}\n", series.truth));
    }
    out
}

/// Writes [`series_to_csv`] output to `dir/name.csv`, creating `dir` if
/// needed. Returns the written path.
pub fn write_series_csv(
    series: &MeanSeries,
    dir: &std::path::Path,
    name: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, series_to_csv(series))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_datagen::scenario::figure6;

    #[test]
    fn mean_series_runs_and_averages() {
        let estimators = standard_estimators(MonteCarloConfig::fast());
        let series = mean_series(
            2,
            10,
            |seed| {
                let s = figure6(10, 1.0, 1.0, seed);
                let truth = s.population.ground_truth_sum();
                run_from_stream(truth, s.stream(), &[100, 300])
            },
            &estimators,
        );
        assert_eq!(series.checkpoints, vec![100, 300]);
        assert_eq!(series.names, vec!["naive", "freq", "bucket", "monte-carlo"]);
        assert!((series.truth - 50_500.0).abs() < 1e-9);
        assert!(series.observed[0] > 0.0);
        // At n=300 of a healthy workload every estimator should be defined.
        for est in &series.estimates {
            assert!(est[1].is_some());
        }
        // Two distinct seeds ⇒ nonzero spread for a defined estimator.
        assert!(series.spreads[0][1].unwrap() > 0.0);
    }

    #[test]
    fn mean_series_is_deterministic_across_runs() {
        // Repetitions run on one thread per core; per-repetition seeds and
        // the in-order fold must make scheduling irrelevant, so two runs
        // agree bit-for-bit.
        let estimators = standard_estimators(MonteCarloConfig::fast());
        let make = |seed: u64| {
            let s = figure6(10, 1.0, 1.0, seed);
            let truth = s.population.ground_truth_sum();
            run_from_stream(truth, s.stream(), &[100, 200, 300])
        };
        let a = mean_series(4, 42, make, &estimators);
        let b = mean_series(4, 42, make, &estimators);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.observed, b.observed);
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.spreads, b.spreads);
    }

    #[test]
    fn cell_formats() {
        assert!(cell(None).contains('-'));
        assert!(cell(Some(12.34)).contains("12.3"));
        assert!(cell(Some(5.0e9)).contains('e'));
    }

    #[test]
    fn csv_rendering_shape() {
        let series = MeanSeries {
            checkpoints: vec![10, 20],
            truth: 100.0,
            observed: vec![40.0, 70.0],
            names: vec!["naive", "bucket"],
            estimates: vec![vec![Some(90.0), Some(95.0)], vec![None, Some(99.0)]],
            spreads: vec![vec![Some(1.0), Some(2.0)], vec![None, Some(0.5)]],
        };
        let csv = series_to_csv(&series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,observed,naive,naive_sd,bucket,bucket_sd,truth");
        assert_eq!(lines[1], "10,40,90,1,,,100");
        assert_eq!(lines[2], "20,70,95,2,99,0.5,100");
    }

    #[test]
    fn csv_writes_to_disk() {
        let series = MeanSeries {
            checkpoints: vec![1],
            truth: 1.0,
            observed: vec![1.0],
            names: vec!["x"],
            estimates: vec![vec![Some(1.0)]],
            spreads: vec![vec![Some(0.0)]],
        };
        let dir = std::env::temp_dir().join("uu-bench-csv-test");
        let path = write_series_csv(&series, &dir, "smoke").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("n,observed,x,x_sd,truth"));
        let _ = std::fs::remove_file(path);
    }
}
