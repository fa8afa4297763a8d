//! Run bookkeeping: operation and failure counts, metrics with units, the
//! scratch directory, and the final JSON line.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, printed with `--trace 0` (name, unit).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("appended_rows_per_s", "1/s"),
    ("append_p50_us", "us"),
    ("append_p99_us", "us"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("sum_rel_error", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1` (name, unit).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("transport.residual_us", "us"),
    ("protocol.codec_us", "us"),
    ("conn.queue_wait_us", "us"),
    ("service.dispatch_us", "us"),
    ("service.read_stall_p99_us", "us"),
    ("query.parse_us", "us"),
    ("query.selection_us", "us"),
    ("query.cache_hit_ratio", "ratio"),
    ("query.projection_builds", "count"),
    ("query.csv_parse_us", "us"),
    ("query.append_batch_us", "us"),
    ("core.freeze_us", "us"),
    ("core.bucket_partition_us", "us"),
    ("core.species_us", "us"),
    ("core.estimator_fanout_us", "us"),
    ("core.refreeze_us", "us"),
    ("incremental.snapshots_refrozen", "count"),
    ("incremental.refreeze_ratio", "ratio"),
    ("store.wal_append_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.recover_ms", "ms"),
    ("store.replayed_records", "count"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.fsyncs", "count"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead_us", "us"),
];

/// Operations attempted and failed; one per client thread, merged at the
/// end.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed and logs why.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed operation: {}", what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub ops: Tally,
    /// Guard violations (fail the run's `correct`).
    pub violations: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// `perfbench-runs/` under the working directory (the checkout root).
    pub root: PathBuf,
    /// This run's scratch directory, removed at exit.
    pub work: PathBuf,
}

impl Run {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Run {
        let root = PathBuf::from("perfbench-runs");
        let work = root.join(format!("work-{workload}-{seed}-{}", std::process::id()));
        Run {
            workload: workload.to_string(),
            seed,
            trace,
            ops: Tally::default(),
            violations: Vec::new(),
            metrics: BTreeMap::new(),
            root,
            work,
        }
    }

    /// A workload-shape guard: `ok == false` marks the run incorrect.
    pub fn guard(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: workload-shape guard failed: {what}");
            self.violations.push(what.to_string());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }

    /// The result line: the mode's full metric list, every value finite.
    pub fn result_json(&mut self) -> String {
        let list: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in list {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.violations.push(format!("metric {name} = {other:?}"));
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.ops.failed == 0 && self.violations.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.attempted.max(1),
            self.ops.failed,
            parts.join(", ")
        )
    }
}

/// `q`-quantile (nearest rank) of `samples`, sorting them in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}
