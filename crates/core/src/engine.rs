//! Central estimator registry and session runner.
//!
//! Every consumer that needs "an estimator by choice" — the query executor's
//! `CorrectionMethod`, the bench harness, the `repro` binary, the examples —
//! goes through this module instead of constructing estimators by hand. One
//! construction site means a new estimator (or a changed default) lands in
//! exactly one place and is immediately available to SQL execution, the
//! harness tables, and the policy router alike.
//!
//! * [`EstimatorKind`] — the closed set of selectable estimators, carrying
//!   any per-estimator configuration (the Monte-Carlo grid settings).
//! * [`EstimatorKind::build`] — the single `kind → Box<dyn SumEstimator>`
//!   constructor.
//! * [`EstimatorKind::by_name`] / [`EstimatorKind::name`] — a stable
//!   name↔kind registry (with the historical aliases accepted on input).
//! * [`EstimationSession`] — builds a set of kinds once and runs sample
//!   views through all of them, returning named [`DeltaEstimate`]s. Each run
//!   builds one [`ProfileSnapshot`] and runs every estimator over its shared
//!   statistics, so a session of `K` estimators costs one statistics pass
//!   per view instead of `K`.
//!
//! ```
//! use uu_core::engine::{EstimationSession, EstimatorKind};
//! use uu_core::sample::SampleView;
//!
//! let sample = SampleView::from_value_multiplicities([
//!     (1000.0, 1), (2000.0, 2), (10_000.0, 4),
//! ]);
//! let session = EstimationSession::new([
//!     EstimatorKind::by_name("naive").unwrap(),
//!     EstimatorKind::Bucket,
//! ]);
//! let results = session.run(&sample);
//! assert_eq!(results[1].name, "bucket");
//! assert!((results[1].corrected.unwrap() - 14_500.0).abs() < 1e-6);
//! ```

use std::fmt;

use crate::bucket::DynamicBucketEstimator;
use crate::estimate::{DeltaEstimate, SumEstimator};
use crate::frequency::FrequencyEstimator;
use crate::montecarlo::{MonteCarloConfig, MonteCarloEstimator};
use crate::naive::NaiveEstimator;
use crate::policy::PolicyEstimator;
use crate::profile::ProfileSnapshot;
use crate::recommend::Recommendation;
use crate::sample::SampleView;
use uu_stats::species::SpeciesEstimator;

/// A boxed, thread-safe SUM estimator as produced by the registry.
pub type BoxedEstimator = Box<dyn SumEstimator + Send + Sync>;

/// The closed set of selectable estimators, with their configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Chao92 count × mean substitution (§3.1).
    Naive,
    /// Chao92 count × singleton mean (§3.2).
    Frequency,
    /// Dynamic value-range buckets (§3.3) — the paper's default.
    Bucket,
    /// Sampling-process simulation with a KL grid search (§3.4).
    MonteCarlo(MonteCarloConfig),
    /// The §6.5 selection policy packaged as an estimator: bucket on healthy
    /// samples, Monte-Carlo under streakers/few sources.
    Policy,
}

/// `by_name` lookup failure, listing the accepted names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownEstimator {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown estimator {:?} (expected one of: {})",
            self.name,
            EstimatorKind::all()
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownEstimator {}

impl EstimatorKind {
    /// Stable display name; identical to the built estimator's
    /// [`SumEstimator::name`].
    pub const fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Naive => "naive",
            EstimatorKind::Frequency => "freq",
            EstimatorKind::Bucket => "bucket",
            EstimatorKind::MonteCarlo(_) => "monte-carlo",
            EstimatorKind::Policy => "policy",
        }
    }

    /// Every registered kind, default-configured, in presentation order.
    pub fn all() -> Vec<EstimatorKind> {
        let mut kinds = EstimatorKind::standard(MonteCarloConfig::default());
        kinds.push(EstimatorKind::Policy);
        kinds
    }

    /// The four estimators the paper's figures compare, in presentation
    /// order, with an explicit Monte-Carlo configuration.
    pub fn standard(mc: MonteCarloConfig) -> Vec<EstimatorKind> {
        vec![
            EstimatorKind::Naive,
            EstimatorKind::Frequency,
            EstimatorKind::Bucket,
            EstimatorKind::MonteCarlo(mc),
        ]
    }

    /// Resolves a display name (or historical alias) to a kind,
    /// case-insensitively. `MonteCarlo` resolves with the default grid
    /// configuration.
    pub fn by_name(name: &str) -> Result<EstimatorKind, UnknownEstimator> {
        match name.to_ascii_lowercase().as_str() {
            "naive" => Ok(EstimatorKind::Naive),
            "freq" | "frequency" => Ok(EstimatorKind::Frequency),
            "bucket" | "dynamic-bucket" => Ok(EstimatorKind::Bucket),
            "monte-carlo" | "montecarlo" | "mc" => {
                Ok(EstimatorKind::MonteCarlo(MonteCarloConfig::default()))
            }
            "policy" | "auto" => Ok(EstimatorKind::Policy),
            _ => Err(UnknownEstimator {
                name: name.to_string(),
            }),
        }
    }

    /// The single `kind → estimator` constructor.
    pub fn build(&self) -> BoxedEstimator {
        match *self {
            EstimatorKind::Naive => Box::new(NaiveEstimator::default()),
            EstimatorKind::Frequency => Box::new(FrequencyEstimator::default()),
            EstimatorKind::Bucket => Box::new(DynamicBucketEstimator::default()),
            EstimatorKind::MonteCarlo(cfg) => Box::new(MonteCarloEstimator::new(cfg)),
            EstimatorKind::Policy => Box::new(PolicyEstimator::default()),
        }
    }

    /// COUNT dispatch: the population-count estimate `N̂` this kind backs a
    /// `SELECT COUNT(*)` correction with (§5). `None` when undefined.
    ///
    /// Delegates to [`Self::estimate_count_profiled`] over a fresh profile —
    /// one dispatch body serves both paths, so they cannot diverge.
    pub fn estimate_count(&self, sample: &SampleView) -> Option<f64> {
        self.estimate_count_profiled(&ProfileSnapshot::new(sample.clone()))
    }

    /// [`Self::estimate_count`] consuming the shared statistics of a
    /// [`ProfileSnapshot`] — the memoized Chao92 estimate, bucket partition,
    /// rank multiplicities and §6.5 recommendation. Bit-for-bit identical to
    /// the direct path.
    pub fn estimate_count_profiled(&self, profile: &ProfileSnapshot) -> Option<f64> {
        match *self {
            // The closed-form value estimators share the Chao92 count.
            EstimatorKind::Naive | EstimatorKind::Frequency => {
                profile.species(SpeciesEstimator::Chao92).value()
            }
            EstimatorKind::Bucket => profile.bucket_delta().n_hat,
            EstimatorKind::MonteCarlo(cfg) => {
                MonteCarloEstimator::new(cfg).estimate_count_profiled(profile)
            }
            EstimatorKind::Policy => match profile.recommendation() {
                Recommendation::Bucket => EstimatorKind::Bucket.estimate_count_profiled(profile),
                Recommendation::MonteCarlo => {
                    EstimatorKind::MonteCarlo(MonteCarloConfig::default())
                        .estimate_count_profiled(profile)
                }
                Recommendation::CollectMoreData => None,
            },
        }
    }

    /// Display name of the count estimator behind [`Self::estimate_count`].
    pub const fn count_method_name(&self) -> &'static str {
        match self {
            EstimatorKind::Naive | EstimatorKind::Frequency => "chao92",
            EstimatorKind::Bucket => "bucket",
            EstimatorKind::MonteCarlo(_) => "monte-carlo",
            EstimatorKind::Policy => "policy",
        }
    }
}

/// The default-configured dynamic bucket estimator, typed concretely for the
/// §5 AVG/MIN/MAX helpers in [`crate::aggregates`] that need bucket reports
/// rather than the [`SumEstimator`] interface.
pub fn bucket_estimator() -> DynamicBucketEstimator {
    DynamicBucketEstimator::default()
}

/// One estimator's result within a session run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NamedEstimate {
    /// Which registry entry produced this estimate.
    pub kind: EstimatorKind,
    /// The entry's stable display name.
    pub name: &'static str,
    /// The impact estimate `Δ̂`.
    pub delta: DeltaEstimate,
    /// The corrected SUM `φ_K + Δ̂`; `None` when the estimator is undefined
    /// for the sample.
    pub corrected: Option<f64>,
}

/// A set of registry estimators, built once, run against any number of
/// sample views.
pub struct EstimationSession {
    entries: Vec<(EstimatorKind, BoxedEstimator)>,
}

impl EstimationSession {
    /// Builds each requested kind once.
    pub fn new(kinds: impl IntoIterator<Item = EstimatorKind>) -> Self {
        EstimationSession {
            entries: kinds.into_iter().map(|k| (k, k.build())).collect(),
        }
    }

    /// Session over [`EstimatorKind::standard`].
    pub fn standard(mc: MonteCarloConfig) -> Self {
        EstimationSession::new(EstimatorKind::standard(mc))
    }

    /// Session over [`EstimatorKind::all`].
    pub fn all() -> Self {
        EstimationSession::new(EstimatorKind::all())
    }

    /// The kinds in this session, in run order.
    pub fn kinds(&self) -> Vec<EstimatorKind> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }

    /// The display names, aligned with [`Self::run`]'s output.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(k, _)| k.name()).collect()
    }

    /// Runs the sample through every estimator of the session.
    ///
    /// Builds one lazy [`ProfileSnapshot`] over a copy of the view and shares
    /// it across all estimators — the frequency ladder's species estimates,
    /// the value sort and the bucket partition are each computed at most
    /// once, no matter how many estimators the session holds. Results are identical to running
    /// each estimator directly (pinned by the registry parity tests).
    pub fn run(&self, sample: &SampleView) -> Vec<NamedEstimate> {
        self.run_profiled(&ProfileSnapshot::new(sample.clone()))
    }

    /// [`Self::run`] over a caller-supplied profile, so repeated sessions (or
    /// other consumers, e.g. the query executor) can share one statistics
    /// pass per view. Results are in session order.
    pub fn run_profiled(&self, profile: &ProfileSnapshot) -> Vec<NamedEstimate> {
        let observed = profile.view().observed_sum();
        self.entries
            .iter()
            .zip(self.deltas_profiled(profile))
            .map(|(&(kind, _), delta)| NamedEstimate {
                kind,
                name: kind.name(),
                delta,
                corrected: delta.delta.map(|d| observed + d),
            })
            .collect()
    }

    /// Each session estimator's Δ over the shared profile, in session order.
    fn deltas_profiled(&self, profile: &ProfileSnapshot) -> Vec<DeltaEstimate> {
        let _span = crate::obs::span(crate::obs::Stage::EstimatorFanout);
        self.entries
            .iter()
            .map(|(kind, estimator)| {
                let _span =
                    crate::obs::span_trace_only(crate::obs::Stage::EstimatorFanout, kind.name());
                estimator.estimate_delta_profiled(profile)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::StreamAccumulator;

    fn toy() -> SampleView {
        SampleView::from_value_multiplicities([(1000.0, 1), (2000.0, 2), (10_000.0, 4)])
    }

    fn lineage_sample() -> SampleView {
        let mut acc = StreamAccumulator::new();
        for source in 0..8u32 {
            for item in 0..10u64 {
                acc.push(item, (item + 1) as f64 * 10.0, source);
            }
        }
        acc.view()
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for kind in EstimatorKind::all() {
            let resolved = EstimatorKind::by_name(kind.name()).unwrap();
            assert_eq!(resolved, kind, "round trip failed for {:?}", kind);
        }
    }

    #[test]
    fn by_name_accepts_aliases_case_insensitively() {
        assert_eq!(
            EstimatorKind::by_name("Frequency").unwrap(),
            EstimatorKind::Frequency
        );
        assert_eq!(
            EstimatorKind::by_name("MC").unwrap(),
            EstimatorKind::MonteCarlo(MonteCarloConfig::default())
        );
        assert_eq!(
            EstimatorKind::by_name("auto").unwrap(),
            EstimatorKind::Policy
        );
    }

    #[test]
    fn by_name_rejects_unknown_names() {
        let err = EstimatorKind::by_name("chao2000").unwrap_err();
        assert_eq!(err.name, "chao2000");
        let msg = err.to_string();
        assert!(msg.contains("chao2000"), "{msg}");
        assert!(msg.contains("monte-carlo"), "{msg}");
    }

    #[test]
    fn built_estimator_names_match_registry_names() {
        for kind in EstimatorKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn all_lists_each_kind_once() {
        let all = EstimatorKind::all();
        assert_eq!(all.len(), 5);
        let names: Vec<&str> = all.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["naive", "freq", "bucket", "monte-carlo", "policy"]
        );
    }

    #[test]
    fn session_runs_every_kind_and_names_align() {
        let session = EstimationSession::all();
        let results = session.run(&toy());
        assert_eq!(results.len(), 5);
        assert_eq!(
            session.names(),
            vec!["naive", "freq", "bucket", "monte-carlo", "policy"]
        );
        for (r, name) in results.iter().zip(session.names()) {
            assert_eq!(r.name, name);
        }
        // Bucket on the toy example reproduces Table 2's 14 500.
        let bucket = &results[2];
        assert!((bucket.corrected.unwrap() - 14_500.0).abs() < 1e-6);
        // Monte-Carlo has no lineage here: undefined, corrected = None.
        assert_eq!(results[3].corrected, None);
    }

    #[test]
    fn count_dispatch_matches_component_estimators() {
        let v = lineage_sample();
        let chao = SpeciesEstimator::Chao92.estimate(v.freq()).value();
        assert_eq!(EstimatorKind::Naive.estimate_count(&v), chao);
        assert_eq!(EstimatorKind::Frequency.estimate_count(&v), chao);
        assert_eq!(
            EstimatorKind::Bucket.estimate_count(&v),
            DynamicBucketEstimator::default().estimate_delta(&v).n_hat
        );
        let mc = MonteCarloConfig::fast();
        assert_eq!(
            EstimatorKind::MonteCarlo(mc).estimate_count(&v),
            MonteCarloEstimator::new(mc).estimate_count(&v)
        );
        // Healthy sample: the policy routes its count through the bucket.
        assert_eq!(
            EstimatorKind::Policy.estimate_count(&v),
            EstimatorKind::Bucket.estimate_count(&v)
        );
    }

    #[test]
    fn count_method_names_are_stable() {
        assert_eq!(EstimatorKind::Naive.count_method_name(), "chao92");
        assert_eq!(EstimatorKind::Frequency.count_method_name(), "chao92");
        assert_eq!(EstimatorKind::Bucket.count_method_name(), "bucket");
        assert_eq!(
            EstimatorKind::MonteCarlo(MonteCarloConfig::default()).count_method_name(),
            "monte-carlo"
        );
        assert_eq!(EstimatorKind::Policy.count_method_name(), "policy");
    }

    #[test]
    fn session_results_match_direct_builds() {
        let v = toy();
        for kind in EstimatorKind::all() {
            let direct = kind.build().estimate_delta(&v);
            let session = EstimationSession::new([kind]);
            assert_eq!(session.run(&v)[0].delta, direct);
        }
    }
}
