//! Cross-crate property tests: the split lemma (Appendix C), estimator
//! invariants over generated samples, SQL round-trips and determinism.

use proptest::prelude::*;
use uu_core::bucket::DynamicBucketEstimator;
use uu_core::estimate::SumEstimator;
use uu_core::frequency::FrequencyEstimator;
use uu_core::naive::NaiveEstimator;
use uu_core::sample::{replay_checkpoints, SampleView};
use uu_datagen::scenario::figure6;
use uu_query::predicate::{CmpOp, Predicate};
use uu_query::query::AggregateQuery;
use uu_query::sql::parse;
use uu_query::value::Value;

/// Appendix C: under an even split (n and c halved, f1 split by α), the
/// Chao92 count estimate can only grow:
/// `nc/(n−f1) ≤ (n/2·c/2)/(n/2−αf1) + (n/2·c/2)/(n/2−(1−α)f1)`.
#[test]
fn split_lemma_holds_on_a_grid() {
    for n in [10.0f64, 50.0, 200.0, 1000.0] {
        for c_frac in [0.2, 0.5, 0.9] {
            let c = n * c_frac;
            for f1_frac in [0.0, 0.2, 0.4, 0.49] {
                let f1 = n * f1_frac; // f1 < n/2 keeps both denominators positive
                let before = n * c / (n - f1);
                for alpha_step in 0..=20 {
                    let alpha = alpha_step as f64 / 20.0;
                    let after = (n / 2.0 * c / 2.0) / (n / 2.0 - alpha * f1)
                        + (n / 2.0 * c / 2.0) / (n / 2.0 - (1.0 - alpha) * f1);
                    assert!(
                        after >= before - 1e-9,
                        "lemma violated: n={n} c={c} f1={f1} alpha={alpha}: {after} < {before}"
                    );
                }
            }
        }
    }
}

/// The minimum of the split expression is at α = 0.5 and equals the
/// before-split estimate (Appendix C's second claim).
#[test]
fn split_lemma_minimum_at_even_split() {
    let (n, c, f1) = (100.0f64, 60.0, 20.0);
    let before = n * c / (n - f1);
    let at = |alpha: f64| {
        (n / 2.0 * c / 2.0) / (n / 2.0 - alpha * f1)
            + (n / 2.0 * c / 2.0) / (n / 2.0 - (1.0 - alpha) * f1)
    };
    assert!((at(0.5) - before).abs() < 1e-9);
    assert!(at(0.3) > at(0.5));
    assert!(at(0.9) > at(0.5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dynamic bucket total |Δ| never exceeds the unsplit inner
    /// estimator's |Δ| — Algorithm 1 only accepts strict improvements.
    #[test]
    fn bucket_never_worse_than_inner(
        pairs in proptest::collection::vec((1.0f64..10_000.0, 1u64..6), 2..40)
    ) {
        let sample = SampleView::from_value_multiplicities(pairs);
        let naive = NaiveEstimator::default().estimate_delta(&sample).abs_or_infinite();
        let bucket = DynamicBucketEstimator::default().estimate_delta(&sample).abs_or_infinite();
        prop_assert!(bucket <= naive + 1e-6, "bucket {} > naive {}", bucket, naive);
    }

    /// Corrected sums never fall below the observed sum for non-negative
    /// attribute values (Δ̂ ≥ 0 in that case for all estimators).
    #[test]
    fn corrections_are_non_negative_for_positive_values(
        pairs in proptest::collection::vec((0.0f64..1_000.0, 1u64..6), 1..40)
    ) {
        let sample = SampleView::from_value_multiplicities(pairs);
        let observed = sample.observed_sum();
        let ests: [Box<dyn SumEstimator>; 3] = [
            Box::new(NaiveEstimator::default()),
            Box::new(FrequencyEstimator::default()),
            Box::new(DynamicBucketEstimator::default()),
        ];
        for est in ests {
            if let Some(corrected) = est.estimate_sum(&sample) {
                prop_assert!(
                    corrected >= observed - 1e-9,
                    "{} corrected below observed", est.name()
                );
            }
        }
    }

    /// Estimators are insensitive to item enumeration order.
    #[test]
    fn estimators_are_permutation_invariant(
        pairs in proptest::collection::vec((1.0f64..1_000.0, 1u64..5), 2..25),
        seed in 0u64..100,
    ) {
        let mut shuffled = pairs.clone();
        let mut rng = uu_stats::rng::Rng::new(seed);
        rng.shuffle(&mut shuffled);
        let a = SampleView::from_value_multiplicities(pairs);
        let b = SampleView::from_value_multiplicities(shuffled);
        for est in [
            Box::new(NaiveEstimator::default()) as Box<dyn SumEstimator>,
            Box::new(FrequencyEstimator::default()),
            Box::new(DynamicBucketEstimator::default()),
        ] {
            let da = est.estimate_delta(&a).delta;
            let db = est.estimate_delta(&b).delta;
            match (da, db) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-6 * (1.0 + x.abs())),
                (None, None) => {}
                _ => prop_assert!(false, "{}: definedness differs", est.name()),
            }
        }
    }

    /// Every SUM is the correctly rounded exact sum, so shuffling the items
    /// changes no bit: not of `φ_K` or `φ_{f1}`, not of a bucket report, not
    /// of any Δ. Values mix off-grid decimals, ±0.0, integers and
    /// magnitudes from 2^-1074 to 2^1000, where a sequential fold's
    /// rounding depends on the order it adds in.
    #[test]
    fn sums_and_estimates_keep_their_bits_under_permutation(
        raws in proptest::collection::vec((0u64..u64::MAX, 0u32..4, 1u64..5), 1..40),
        seed in 0u64..1_000,
    ) {
        let value = |raw: u64, shape: u32| {
            let magnitude = match shape {
                0 => (raw % 1_000_000) as f64 / 1_000.0,
                1 => 0.0,
                2 => (raw % 1_000_000) as f64,
                // Biased exponent 0 (subnormal) to 2023 (2^1000).
                _ => f64::from_bits((raw % 2024) << 52 | (raw >> 12)),
            };
            if raw >> 63 == 1 { -magnitude } else { magnitude }
        };
        let pairs: Vec<(f64, u64)> = raws.iter().map(|&(raw, shape, m)| (value(raw, shape), m)).collect();
        let mut shuffled = pairs.clone();
        uu_stats::rng::Rng::new(seed).shuffle(&mut shuffled);
        let a = SampleView::from_value_multiplicities(pairs);
        let b = SampleView::from_value_multiplicities(shuffled);
        prop_assert_eq!(a.observed_sum().to_bits(), b.observed_sum().to_bits());
        prop_assert_eq!(a.singleton_sum().to_bits(), b.singleton_sum().to_bits());
        let report_bits = |s: &SampleView| -> Vec<_> {
            DynamicBucketEstimator::default()
                .bucketize(s)
                .iter()
                .map(|r| {
                    (
                        (r.lo.to_bits(), r.hi.to_bits(), r.c, r.n, r.f1),
                        r.observed_sum.to_bits(),
                        r.estimate.delta.map(f64::to_bits),
                        r.estimate.n_hat.map(f64::to_bits),
                    )
                })
                .collect()
        };
        prop_assert_eq!(report_bits(&a), report_bits(&b));
        for est in [
            Box::new(NaiveEstimator::default()) as Box<dyn SumEstimator>,
            Box::new(FrequencyEstimator::default()),
            Box::new(DynamicBucketEstimator::default()),
        ] {
            let da = est.estimate_delta(&a).delta.map(f64::to_bits);
            let db = est.estimate_delta(&b).delta.map(f64::to_bits);
            prop_assert_eq!(da, db, "{}", est.name());
        }
    }

    /// Dynamic buckets always partition the sample: every unique item lands
    /// in exactly one bucket, ranges are ordered and disjoint, and the value
    /// range [min, max] is covered.
    #[test]
    fn buckets_partition_and_cover(
        pairs in proptest::collection::vec((0.0f64..5_000.0, 1u64..5), 1..35)
    ) {
        let sample = SampleView::from_value_multiplicities(pairs);
        let reports = DynamicBucketEstimator::default().bucketize(&sample);
        prop_assert!(!reports.is_empty());
        let total_c: u64 = reports.iter().map(|b| b.c).sum();
        let total_n: u64 = reports.iter().map(|b| b.n).sum();
        prop_assert_eq!(total_c, sample.c());
        prop_assert_eq!(total_n, sample.n());
        prop_assert_eq!(reports.first().unwrap().lo, sample.min_value().unwrap());
        prop_assert_eq!(reports.last().unwrap().hi, sample.max_value().unwrap());
        for w in reports.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "overlapping buckets");
        }
    }

    /// Scaling every attribute value by a positive constant scales every
    /// estimator's Δ by the same constant (the statistics only depend on
    /// multiplicities; the value model is linear).
    #[test]
    fn estimates_are_scale_equivariant(
        pairs in proptest::collection::vec((1.0f64..1_000.0, 1u64..5), 2..25),
        scale in 0.5f64..20.0,
    ) {
        let base = SampleView::from_value_multiplicities(pairs.iter().copied());
        let scaled = SampleView::from_value_multiplicities(
            pairs.iter().map(|&(v, m)| (v * scale, m)),
        );
        for est in [
            Box::new(NaiveEstimator::default()) as Box<dyn SumEstimator>,
            Box::new(FrequencyEstimator::default()),
        ] {
            let a = est.estimate_delta(&base).delta;
            let b = est.estimate_delta(&scaled).delta;
            match (a, b) {
                (Some(x), Some(y)) => prop_assert!(
                    (x * scale - y).abs() < 1e-6 * (1.0 + y.abs()),
                    "{}: {} * {} != {}", est.name(), x, scale, y
                ),
                (None, None) => {}
                _ => prop_assert!(false, "definedness changed under scaling"),
            }
        }
    }

    /// SQL pretty-print → parse is the identity on structured queries.
    #[test]
    fn sql_roundtrip(
        agg in 0usize..5,
        col in "[a-z][a-z0-9_]{0,8}",
        table in "[a-z][a-z0-9_]{0,8}",
        lit in -1_000i64..1_000,
        use_pred in proptest::bool::ANY,
    ) {
        let builder = match agg {
            0 => AggregateQuery::sum(col.clone()),
            1 => AggregateQuery::count_star(),
            2 => AggregateQuery::avg(col.clone()),
            3 => AggregateQuery::min(col.clone()),
            _ => AggregateQuery::max(col.clone()),
        };
        let builder = if use_pred {
            builder.filter(
                Predicate::cmp("a", CmpOp::Ge, Value::Int(lit))
                    .or(Predicate::cmp("b", CmpOp::Ne, Value::from("x'y")).not()),
            )
        } else {
            builder
        };
        let q = builder.from(table);
        // Keywords could collide with generated identifiers; skip those.
        for kw in ["select", "from", "where", "and", "or", "not", "true", "null",
                   "sum", "count", "avg", "min", "max"] {
            prop_assume!(!q.table.eq_ignore_ascii_case(kw));
            prop_assume!(q.column.as_deref().map_or(true, |c| !c.eq_ignore_ascii_case(kw)));
        }
        let reparsed = parse(&q.to_string());
        prop_assert_eq!(reparsed.as_ref(), Ok(&q), "sql: {}", q.to_string());
    }
}

/// Full-pipeline determinism: identical seeds produce identical estimate
/// series through datagen → accumulation → every estimator.
#[test]
fn pipeline_is_deterministic() {
    let series = |seed: u64| -> Vec<(Option<f64>, Option<f64>)> {
        let s = figure6(10, 4.0, 1.0, seed);
        let checkpoints: Vec<usize> = (1..=5).map(|i| i * 100).collect();
        replay_checkpoints(s.stream(), &checkpoints)
            .into_iter()
            .map(|(_, view)| {
                (
                    NaiveEstimator::default().estimate_sum(&view),
                    DynamicBucketEstimator::default().estimate_sum(&view),
                )
            })
            .collect()
    };
    assert_eq!(series(42), series(42));
    assert_ne!(series(42), series(43), "different seeds should differ");
}
