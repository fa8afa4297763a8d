//! Exact sums of `f64` values.
//!
//! Every SUM of observed attribute values — `φ_K`, the singleton sum
//! `φ_{f1}`, a bucket's sum and each candidate range sum of the bucket
//! splitter — is the *correctly rounded exact sum*: the real sum of the
//! values, rounded once to the nearest `f64`, ties to even. Exact addition
//! is associative and commutative, so the result never depends on the order
//! of the items, and a sum can be extended, reduced or differenced without
//! summing again.
//!
//! * [`ExactSum`] accumulates values one at a time. It is a two's-complement
//!   fixed-point integer in units of 2^-1074 (the least subnormal), wide
//!   enough for every finite `f64` plus 2^77 terms of headroom.
//! * [`PrefixSums`] holds the exclusive prefix sums of a column, so that
//!   any range sum is one exact subtraction plus one rounding. Each partial
//!   sum is an integer multiple of 2^q, q being the column's lowest set bit:
//!   an `i128` when the column's bit span fits (integer columns, short
//!   grids, decimals such as 0.1·i up to millions of rows), a window of
//!   [`ExactSum`] limbs otherwise. Both forms give the same bits.
//!
//! The accumulator follows the fixed-point idea of Neal's superaccumulator
//! (arXiv:1505.05571), with eager carries.
//!
//! ```
//! use uu_stats::exact::ExactSum;
//!
//! let sum: ExactSum = [0.1; 10].into_iter().collect();
//! assert_eq!(sum.to_f64(), 1.0); // the sequential fold gives 0.9999999999999999
//! ```

/// 64-bit limbs of an [`ExactSum`]: 2098 bits hold any finite `f64` in
/// units of 2^-1074; the rest is headroom for 2^77 terms and the sign.
const LIMBS: usize = 34;

/// A finite value's magnitude as `mant · 2^shift` units of 2^-1074, with
/// `mant < 2^53` (`mant == 0` for ±0.0).
#[inline]
fn decompose(v: f64) -> (u64, u32) {
    assert!(v.is_finite(), "exact sums take finite values only");
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 {
        (fraction, 0) // subnormal
    } else {
        (fraction | 1 << 52, biased - 1)
    }
}

/// The exact sum of finite `f64` values, read back correctly rounded.
///
/// Adding and subtracting are exact and order-free: any sequence of
/// [`ExactSum::add`] and [`ExactSum::sub`] calls that adds up to the same
/// multiset of values leaves the same state, and [`ExactSum::to_f64`]
/// rounds it once.
#[derive(Clone, PartialEq, Eq)]
pub struct ExactSum {
    /// Little-endian two's complement, limb 0 holding units 2^-1074 and up.
    limbs: [u64; LIMBS],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }
}

impl std::fmt::Debug for ExactSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ExactSum").field(&self.to_f64()).finish()
    }
}

impl ExactSum {
    /// The empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let (mant, shift) = decompose(v);
        let limb = (shift / 64) as usize;
        let term = u128::from(mant) << (shift % 64);
        let pair = u128::from(self.limbs[limb]) | u128::from(self.limbs[limb + 1]) << 64;
        let (pair, carry) = if v.is_sign_negative() {
            pair.overflowing_sub(term)
        } else {
            pair.overflowing_add(term)
        };
        self.limbs[limb] = pair as u64;
        self.limbs[limb + 1] = (pair >> 64) as u64;
        if carry {
            // Ripple the carry (or borrow) up until a limb absorbs it.
            for l in &mut self.limbs[limb + 2..] {
                let (next, again) = if v.is_sign_negative() {
                    l.overflowing_sub(1)
                } else {
                    l.overflowing_add(1)
                };
                *l = next;
                if !again {
                    break;
                }
            }
        }
    }

    /// Subtracts `v` exactly: the state is as if `v` had never been added.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    pub fn sub(&mut self, v: f64) {
        self.add(-v);
    }

    /// The sum rounded to the nearest `f64`, ties to even: +0.0 when it is
    /// zero (an empty sum included), ±∞ past `f64::MAX`.
    pub fn to_f64(&self) -> f64 {
        round_limbs(&self.limbs, 0)
    }
}

impl FromIterator<f64> for ExactSum {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sum = ExactSum::new();
        for v in values {
            sum.add(v);
        }
        sum
    }
}

/// Exclusive prefix sums of a column of finite values: `range(lo, hi)` is
/// the [`ExactSum`] of `values[lo..hi]`, rounded, in O(1).
#[derive(Debug)]
pub struct PrefixSums {
    form: Form,
}

#[derive(Debug)]
enum Form {
    /// `prefix[i] · unit` is the sum of the first `i` values, `unit` being
    /// the column's lowest set bit.
    Narrow { prefix: Vec<i128>, unit: f64 },
    /// Limbs `[i·width, (i+1)·width)` hold the sum of the first `i` values
    /// in two's complement, the first of them at `2^scale` units.
    Wide {
        limbs: Vec<u64>,
        width: usize,
        scale: u32,
    },
}

impl PrefixSums {
    /// The prefix sums of `values`, in the narrow form whenever every
    /// partial sum fits an `i128` multiple of the column's lowest set bit.
    ///
    /// # Panics
    ///
    /// Panics if a value is not finite.
    pub fn new(values: &[f64]) -> Self {
        // q: the lowest set bit over the column; top: one past the highest.
        let (mut q, mut top) = (u32::MAX, 0u32);
        for &v in values {
            let (mant, shift) = decompose(v);
            if mant != 0 {
                q = q.min(shift + mant.trailing_zeros());
                top = top.max(shift + 64 - mant.leading_zeros());
            }
        }
        if q == u32::MAX {
            // All zero.
            return PrefixSums {
                form: Form::Narrow {
                    prefix: vec![0; values.len() + 1],
                    unit: 1.0,
                },
            };
        }
        // Every partial sum is below Σ|v| < len · 2^top in magnitude.
        let len_bits = usize::BITS - values.len().leading_zeros();
        let form = if top - q + len_bits <= 127 {
            let mut prefix = Vec::with_capacity(values.len() + 1);
            let mut acc = 0i128;
            prefix.push(acc);
            for &v in values {
                let (mant, shift) = decompose(v);
                if mant != 0 {
                    let low = mant.trailing_zeros();
                    let term = i128::from(mant >> low) << (shift + low - q);
                    acc += if v.is_sign_negative() { -term } else { term };
                }
                prefix.push(acc);
            }
            Form::Narrow {
                prefix,
                unit: round(false, 1, q, false),
            }
        } else {
            // Keep the limbs that can hold a partial sum and its sign.
            let first = (q / 64) as usize;
            let end = ((top + len_bits + 1).div_ceil(64) as usize).min(LIMBS);
            let width = end - first;
            let mut limbs = Vec::with_capacity((values.len() + 1) * width);
            let mut acc = ExactSum::new();
            limbs.extend_from_slice(&acc.limbs[first..end]);
            for &v in values {
                acc.add(v);
                limbs.extend_from_slice(&acc.limbs[first..end]);
            }
            Form::Wide {
                limbs,
                width,
                scale: 64 * first as u32,
            }
        };
        PrefixSums { form }
    }

    /// The correctly rounded exact sum of `values[lo..hi]`, for
    /// `lo <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi > values.len()`.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi, "range {lo}..{hi} is reversed");
        match &self.form {
            Form::Narrow { prefix, unit } => {
                // The cast rounds once, to nearest, ties to even, and scaling
                // by powers of two is then exact, or overflows as the exact
                // sum would. A result below 2^-1022 is under 2^52 units, so
                // its cast did not round.
                let sum = prefix[hi] - prefix[lo];
                match i64::try_from(sum) {
                    Ok(small) => small as f64 * unit,
                    Err(_) => {
                        // Keep the top 63 bits and fold the rest into a
                        // sticky lowest bit: still more than 53 bits, so the
                        // cast rounds as it would the whole magnitude.
                        let magnitude = sum.unsigned_abs();
                        let cut = 65 - magnitude.leading_zeros();
                        let sticky = magnitude & ((1 << cut) - 1) != 0;
                        let kept = (magnitude >> cut) as i64 | i64::from(sticky);
                        let pow2_cut = f64::from_bits(u64::from(1023 + cut) << 52);
                        let rounded = kept as f64 * pow2_cut * unit;
                        if sum < 0 {
                            -rounded
                        } else {
                            rounded
                        }
                    }
                }
            }
            Form::Wide {
                limbs,
                width,
                scale,
            } => {
                let (a, b) = (
                    &limbs[hi * width..][..*width],
                    &limbs[lo * width..][..*width],
                );
                let mut diff = [0u64; LIMBS];
                let mut borrow = false;
                for ((d, &x), &y) in diff.iter_mut().zip(a).zip(b) {
                    let (s, b1) = x.overflowing_sub(y);
                    let (s, b2) = s.overflowing_sub(u64::from(borrow));
                    *d = s;
                    borrow = b1 || b2;
                }
                round_limbs(&diff[..*width], *scale)
            }
        }
    }

    /// True when the partial sums are `i128`s.
    #[cfg(test)]
    fn is_narrow(&self) -> bool {
        matches!(self.form, Form::Narrow { .. })
    }
}

/// Rounds a two's-complement integer of `limbs` (little-endian) times
/// `2^scale` units of 2^-1074.
fn round_limbs(limbs: &[u64], scale: u32) -> f64 {
    let negative = limbs.last().is_some_and(|&top| top >> 63 == 1);
    let mut negated = [0u64; LIMBS];
    let magnitude = if negative {
        let mut carry = true;
        for (n, &l) in negated.iter_mut().zip(limbs) {
            let (s, c) = (!l).overflowing_add(u64::from(carry));
            *n = s;
            carry = c;
        }
        &negated[..limbs.len()]
    } else {
        limbs
    };
    match magnitude.iter().rposition(|&l| l != 0) {
        None => 0.0,
        Some(0) => round(negative, u128::from(magnitude[0]), scale, false),
        Some(i) => round(
            negative,
            u128::from(magnitude[i]) << 64 | u128::from(magnitude[i - 1]),
            scale + 64 * (i as u32 - 1),
            magnitude[..i - 1].iter().any(|&l| l != 0),
        ),
    }
}

/// Rounds `±(window · 2^scale + r)` units of 2^-1074 to the nearest `f64`,
/// ties to even, where `window != 0`, `0 ≤ r < 2^scale`, and `sticky` says
/// whether `r != 0`. A set `sticky` needs `window ≥ 2^64`, so that the
/// rounding bit lies inside the window.
fn round(negative: bool, window: u128, scale: u32, sticky: bool) -> f64 {
    debug_assert!(window != 0 && (!sticky || window >> 64 != 0));
    let top = 127 - window.leading_zeros(); // the leading bit's place in the window
    let bits = if top + scale <= 52 {
        // Below 2^53 units a value is exact, and its units are its bits
        // (subnormals and the lowest normal binade alike).
        (window << scale) as u64
    } else if top <= 52 {
        // Exact: at most 53 significant bits.
        (u64::from(top + scale - 52) << 52) + (window << (52 - top)) as u64
    } else {
        let cut = top - 52;
        let mant = (window >> cut) as u64;
        let rest = window & ((1 << cut) - 1);
        let half = 1u128 << (cut - 1);
        let up = rest > half || (rest == half && (sticky || mant & 1 == 1));
        // A carry out of the significand moves into the exponent field.
        (u64::from(top + scale - 52) << 52) + mant + u64::from(up)
    };
    let magnitude = f64::from_bits(bits.min(f64::INFINITY.to_bits()));
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test-only reference: the exact sum as a bit vector in units of
    /// 2^-1074, built and rounded bit by bit with none of the code above.
    fn reference_sum(values: &[f64]) -> f64 {
        const BITS: usize = 2200;
        // Positive and negative parts, little-endian bits.
        let mut parts = [vec![0u8; BITS], vec![0u8; BITS]];
        for &v in values {
            // |v| = m · 2^-e with m an integer below 2^53.
            let (mut m, mut e) = (v.abs(), 0i32);
            while m != m.trunc() {
                m *= 2.0;
                e += 1;
            }
            while m >= 9_007_199_254_740_992.0 {
                m /= 2.0;
                e -= 1;
            }
            let (mut m, at) = (m as u64, (1074 - e) as usize);
            let part = &mut parts[usize::from(v < 0.0)];
            let (mut i, mut carry) = (at, 0u8);
            while m != 0 || carry != 0 {
                let s = part[i] + (m & 1) as u8 + carry;
                part[i] = s & 1;
                carry = s >> 1;
                m >>= 1;
                i += 1;
            }
        }
        let [pos, neg] = parts;
        let greater = (0..BITS).rev().find(|&i| pos[i] != neg[i]);
        let Some(g) = greater else { return 0.0 };
        let (big, small, negative) = if pos[g] == 1 {
            (pos, neg, false)
        } else {
            (neg, pos, true)
        };
        let mut diff = vec![0u8; BITS];
        let mut borrow = 0i8;
        for i in 0..BITS {
            let d = big[i] as i8 - small[i] as i8 - borrow;
            diff[i] = d.rem_euclid(2) as u8;
            borrow = i8::from(d < 0);
        }
        let t = (0..BITS).rev().find(|&i| diff[i] == 1).expect("non-zero");
        let magnitude = if t < 53 {
            let m = (0..=t).rev().fold(0u64, |m, i| 2 * m + diff[i] as u64);
            m as f64 * 5e-324 // exact: a multiple of 2^-1074 below 2^-1021
        } else {
            let mut m = (t - 52..=t).rev().fold(0u64, |m, i| 2 * m + diff[i] as u64);
            let round_bit = diff[t - 53] == 1;
            let sticky = diff[..t - 53].contains(&1);
            if round_bit && (sticky || m % 2 == 1) {
                m += 1;
            }
            let mut x = m as f64;
            let mut e = t as i32 - 52 - 1074;
            while e > 0 {
                x *= 2.0;
                e -= 1;
            }
            while e < 0 {
                x *= 0.5;
                e += 1;
            }
            x
        };
        if negative {
            -magnitude
        } else {
            magnitude
        }
    }

    fn exact(values: &[f64]) -> f64 {
        values.iter().copied().collect::<ExactSum>().to_f64()
    }

    fn assert_same(values: &[f64], want: f64) {
        let got = exact(values);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{values:?}: {got:e} vs {want:e}"
        );
        assert_eq!(reference_sum(values).to_bits(), want.to_bits(), "reference");
    }

    #[test]
    fn named_cases() {
        let p53 = 2f64.powi(53);
        assert_same(&[0.1; 10], 1.0);
        assert_same(&[p53, 1.0, 1.0], p53 + 2.0);
        assert_same(&[1e100, 1.0, -1e100], 1.0);
        assert_same(&[f64::MAX, f64::MAX, -f64::MAX], f64::MAX);
        assert_same(&[f64::MAX, f64::MAX], f64::INFINITY);
        assert_same(&[-f64::MAX, -f64::MAX], f64::NEG_INFINITY);
        // Ties go to the even significand: 2^53 + 1 and 2^53 + 3.
        assert_same(&[p53, 1.0], p53);
        assert_same(&[p53, 3.0], p53 + 4.0);
        assert_same(&[p53, 1.0, 2f64.powi(-60)], p53 + 2.0);
        // Subnormals only.
        let tiny = f64::from_bits(1);
        assert_same(
            &[tiny, tiny, 1e-310],
            f64::from_bits(2 + 1e-310f64.to_bits()),
        );
        assert_same(
            &[f64::MIN_POSITIVE, -tiny],
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
        );
    }

    #[test]
    fn zero_sums_are_positive_zero() {
        for values in [
            &[][..],
            &[-0.0, -0.0],
            &[0.0, -0.0],
            &[1.5, -1.5],
            &[-1e300, 1e300],
        ] {
            assert_eq!(exact(values).to_bits(), 0.0f64.to_bits(), "{values:?}");
        }
    }

    #[test]
    fn subtracting_undoes_adding() {
        let mut sum: ExactSum = [0.1, 2.5e-300, -7.0, 1e200].into_iter().collect();
        let before = sum.clone();
        for v in [3.3, -1e-320, 6e307] {
            sum.add(v);
        }
        for v in [6e307, 3.3, -1e-320] {
            sum.sub(v);
        }
        assert_eq!(sum, before);
        assert_eq!(ExactSum::new(), [5.0, -5.0].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "finite values only")]
    fn non_finite_values_are_rejected() {
        ExactSum::new().add(f64::NAN);
    }

    /// A value across the whole exponent range, either sign.
    fn spread_value(raw: u64, shape: u32) -> f64 {
        let v = match shape {
            0 => (raw % 100_000) as f64 * 0.1,
            1 => (raw % 1_000_000) as f64,
            2 => [0.0, -0.0][(raw % 2) as usize],
            // Any finite bit pattern: subnormals up to 2^1023.
            _ => f64::from_bits(raw % 0x7ff0_0000_0000_0000),
        };
        if raw >> 63 == 1 {
            -v
        } else {
            v
        }
    }

    #[test]
    fn both_prefix_forms_match_the_exact_sum_of_each_range() {
        let columns: [(&[f64], bool); 8] = [
            (&[], true),
            (&[-0.0, 0.0, -0.0], true),
            (&[0.1, 0.2, -0.3, 0.1, 1e6], true),
            (&[5e-324, 1e-310, -3e-320, f64::MIN_POSITIVE], true),
            (&[f64::MAX, f64::MAX, -f64::MAX], true),
            (&[-f64::MAX, -f64::MAX, 1e300], true),
            (
                &[5e-324, 1.0, 2f64.powi(1000), -2f64.powi(1000), -0.5],
                false,
            ),
            (&[f64::MAX, f64::MAX, -f64::MAX, 1e-300], false),
        ];
        for (values, narrow) in columns {
            let prefix = PrefixSums::new(values);
            assert_eq!(prefix.is_narrow(), narrow, "{values:?}");
            for lo in 0..=values.len() {
                for hi in lo..=values.len() {
                    let want = reference_sum(&values[lo..hi]);
                    assert_eq!(
                        prefix.range(lo, hi).to_bits(),
                        want.to_bits(),
                        "{values:?} {lo}..{hi}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn exact_sum_matches_the_reference(
            raws in proptest::collection::vec((0u64..u64::MAX, 0u32..5), 0..24),
        ) {
            let values: Vec<f64> = raws.iter().map(|&(raw, shape)| spread_value(raw, shape)).collect();
            prop_assert_eq!(exact(&values).to_bits(), reference_sum(&values).to_bits());
            let mut reversed = values.clone();
            reversed.reverse();
            prop_assert_eq!(exact(&reversed).to_bits(), exact(&values).to_bits());
        }

        #[test]
        fn prefix_ranges_are_exact_sums(
            raws in proptest::collection::vec((0u64..u64::MAX, 0u32..5), 0..16),
            mode in 0u32..3,
            window in 0u64..2040,
        ) {
            let values: Vec<f64> = raws
                .iter()
                .map(|&(raw, shape)| match mode {
                    // Mostly wide: bit patterns from the whole range.
                    0 => spread_value(raw, shape),
                    // Narrow: decimals, integers and zeros.
                    1 => spread_value(raw, shape % 3),
                    // Narrow: any bit pattern within 8 binades, from the
                    // subnormals up to overflow, either sign.
                    _ => f64::from_bits((raw & 1) << 63 | (window + raw % 8) << 52 | raw >> 12),
                })
                .collect();
            let prefix = PrefixSums::new(&values);
            if mode != 0 {
                prop_assert!(prefix.is_narrow());
            }
            for lo in 0..=values.len() {
                for hi in lo..=values.len() {
                    prop_assert_eq!(prefix.range(lo, hi).to_bits(), exact(&values[lo..hi]).to_bits());
                }
            }
        }
    }
}
