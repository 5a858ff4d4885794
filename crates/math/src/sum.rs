//! Compensated summation.
//!
//! SSE/PMSE accumulations (paper Eq. 9–10) sum many numbers that span
//! orders of magnitude (squared residuals of 1e-8 next to 1e-2). Naive
//! summation loses digits; compensated summation carries the exact
//! rounding error of every addition, computed by Knuth's TwoSum, in a
//! second accumulator, which keeps the accumulated error at machine
//! epsilon independent of length (the bits of Neumaier's improved Kahan
//! summation, without its branch).

/// Running compensated sum: Knuth's TwoSum error of each addition summed
/// into a compensation term, added to the sum when it is read.
///
/// Neumaier's form computes the same error with a branch: Fast2Sum on
/// the pair ordered by magnitude. For finite operands whose sum does not
/// overflow both forms give the exact error of `s + x`, an exactly
/// representable real, which has one float, and a zero error comes out
/// `+0` in both. So every finite sum has Neumaier's bits, and a sum that
/// overflows or meets ±∞ or NaN stays non-finite (a seeded property test
/// holds the two forms bit for bit).
///
/// # Examples
///
/// ```
/// use resilience_math::sum::CompensatedSum;
/// let mut s = CompensatedSum::new();
/// s.add(1e16);
/// s.add(1.0);
/// s.add(-1e16);
/// assert_eq!(s.value(), 1.0); // naive summation would return 0.0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    /// Creates an empty sum.
    #[must_use]
    pub fn new() -> Self {
        CompensatedSum::default()
    }

    /// Adds one term, with no branch: `t = s + x`, `z = t − s`, and the
    /// error `(s − (t − z)) + (x − z)`.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        let z = t - self.sum;
        self.compensation += (self.sum - (t - z)) + (x - z);
        self.sum = t;
    }

    /// Current compensated value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for CompensatedSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = CompensatedSum::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for CompensatedSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Compensated sum of squared residuals `Σ (a_i − b_i)²` — the exact shape
/// of the paper's Eq. 9.
///
/// # Panics
///
/// Panics when the slices differ in length.
///
/// # Examples
///
/// ```
/// use resilience_math::sum::sum_squared_diff;
/// assert_eq!(sum_squared_diff(&[1.0, 2.0], &[0.0, 0.0]), 5.0);
/// ```
#[must_use]
pub fn sum_squared_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sum_squared_diff: length mismatch");
    let mut s = CompensatedSum::new();
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s.add(d * d);
    }
    s.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_recovers_cancellation() {
        let mut s = CompensatedSum::new();
        for _ in 0..10 {
            s.add(0.1);
        }
        assert!((s.value() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn kahan_extreme_magnitudes() {
        let sum = |v: &[f64]| v.iter().copied().collect::<CompensatedSum>().value();
        assert_eq!(sum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum(&[1.0, 1e100, 1.0, -1e100]), 2.0);
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(CompensatedSum::new().value(), 0.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: CompensatedSum = [1.0, 2.0, 3.0].into_iter().collect();
        s.extend([4.0, 5.0]);
        assert_eq!(s.value(), 15.0);
    }

    #[test]
    fn sse_shape() {
        let observed = [1.0, 0.99, 0.98, 0.99];
        let predicted = [1.0, 0.985, 0.982, 0.991];
        let want = 0.0 + 0.005f64.powi(2) + 0.002f64.powi(2) + 0.001f64.powi(2);
        assert!((sum_squared_diff(&observed, &predicted) - want).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sse_length_mismatch_panics() {
        let _ = sum_squared_diff(&[1.0], &[1.0, 2.0]);
    }

    /// Neumaier's improved Kahan summation, with its branch: the reference
    /// [`CompensatedSum::add`] must match bit for bit.
    #[derive(Default)]
    struct Neumaier {
        sum: f64,
        compensation: f64,
    }

    impl Neumaier {
        fn add(&mut self, x: f64) {
            let t = self.sum + x;
            if self.sum.abs() >= x.abs() {
                self.compensation += (self.sum - t) + x;
            } else {
                self.compensation += (x - t) + self.sum;
            }
            self.sum = t;
        }

        fn value(&self) -> f64 {
            self.sum + self.compensation
        }
    }

    /// SplitMix64: the test's own seeded stream.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn sign(&mut self) -> f64 {
            if self.next() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        }

        /// A finite float from a random full-range bit pattern.
        fn finite(&mut self) -> f64 {
            loop {
                let x = f64::from_bits(self.next());
                if x.is_finite() {
                    return x;
                }
            }
        }

        /// A mantissa in `[1, 2)`.
        fn mantissa(&mut self) -> f64 {
            f64::from_bits(0x3FF0_0000_0000_0000 | (self.next() >> 12))
        }
    }

    /// 1–64 terms that mix ±0, subnormals, magnitudes near 1e±300 and
    /// within a factor 2 of `f64::MAX` (two of which overflow), moderate
    /// values, exact cancellations (`x, small, −x` and the negation of an
    /// earlier term) and random full-range finite floats.
    fn terms(rng: &mut Stream) -> Vec<f64> {
        let len = 1 + rng.below(64) as usize;
        let mut terms: Vec<f64> = Vec::with_capacity(len + 2);
        while terms.len() < len {
            let x = match rng.below(9) {
                0 => rng.sign() * 0.0,
                1 => rng.sign() * f64::from_bits(1 + rng.below((1 << 52) - 1)),
                2 => rng.sign() * rng.mantissa() * 1e300,
                3 => rng.sign() * rng.mantissa() * 1e-300,
                4 => rng.sign() * rng.mantissa() * 2f64.powi(rng.below(121) as i32 - 60),
                5 if !terms.is_empty() => -terms[rng.below(terms.len() as u64) as usize],
                6 => {
                    let big = rng.sign() * rng.mantissa() * 2f64.powi(rng.below(80) as i32);
                    terms.push(big);
                    terms.push(rng.sign() * rng.mantissa());
                    -big
                }
                7 => rng.sign() * rng.mantissa() * 2f64.powi(1023),
                _ => rng.finite(),
            };
            terms.push(x);
        }
        terms
    }

    /// TwoSum equals Neumaier's branch form bit for bit on every prefix of
    /// 20 000 seeded sequences: every finite value has equal bits, and a
    /// non-finite one stays non-finite.
    #[test]
    fn two_sum_keeps_neumaier_bits() {
        let mut rng = Stream(0x5EED_2022);
        let (mut finite, mut non_finite) = (0, 0);
        for case in 0..20_000 {
            let terms = terms(&mut rng);
            let (mut two_sum, mut reference) = (CompensatedSum::new(), Neumaier::default());
            for (k, &x) in terms.iter().enumerate() {
                two_sum.add(x);
                reference.add(x);
                let (got, want) = (two_sum.value(), reference.value());
                if want.is_finite() {
                    finite += 1;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case}, term {k}: {got:e} vs {want:e} over {terms:?}"
                    );
                } else {
                    non_finite += 1;
                    assert!(
                        !got.is_finite(),
                        "case {case}, term {k}: {got:e} vs {want:e} over {terms:?}"
                    );
                }
            }
        }
        // Both branches of the contract are exercised.
        assert!(
            finite > 100_000 && non_finite > 10_000,
            "{finite} / {non_finite}"
        );
    }
}
