//! Compensated summation.
//!
//! SSE/PMSE accumulations (paper Eq. 9–10) sum many numbers that span
//! orders of magnitude (squared residuals of 1e-8 next to 1e-2). Naive
//! summation loses digits; the Neumaier variant of Kahan summation keeps
//! the accumulated error at machine epsilon independent of length.

/// Running compensated sum (Neumaier's improved Kahan algorithm).
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

    /// Adds one term.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
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
}
