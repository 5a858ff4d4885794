//! Piecewise-linear interpolation over sampled curves.
//!
//! The empirical (“actual”) side of the paper's interval metrics treats the
//! observed monthly series as a piecewise-linear curve; this module holds
//! the shared interpolation helper plus the argmin used to find the trough
//! time `t_d`.

use crate::MathError;

/// A piecewise-linear interpolant over strictly increasing abscissae.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Builds an interpolant from samples.
    ///
    /// # Errors
    ///
    /// * [`MathError::Shape`] when the slices differ in length or have
    ///   fewer than two points.
    /// * [`MathError::Domain`] when `xs` is not strictly increasing or any
    ///   value is non-finite.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::interp::LinearInterp;
    /// let f = LinearInterp::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0])?;
    /// assert_eq!(f.eval(0.5), 1.0);
    /// # Ok::<(), resilience_math::MathError>(())
    /// ```
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, MathError> {
        if xs.len() != ys.len() {
            return Err(MathError::shape(
                "LinearInterp::new",
                format!("{} abscissae vs {} ordinates", xs.len(), ys.len()),
            ));
        }
        if xs.len() < 2 {
            return Err(MathError::shape(
                "LinearInterp::new",
                "need at least two samples",
            ));
        }
        for w in xs.windows(2) {
            if !(w[1] > w[0]) {
                return Err(MathError::domain(
                    "LinearInterp::new",
                    "abscissae must be strictly increasing",
                ));
            }
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(MathError::domain(
                "LinearInterp::new",
                "samples must be finite",
            ));
        }
        Ok(LinearInterp { xs, ys })
    }

    /// Evaluates the interpolant; clamps outside the sample range
    /// (constant extrapolation).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // Binary search for the containing segment.
        let idx = match self.xs.partition_point(|&v| v <= x) {
            0 => 1,
            i => i,
        };
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The sample abscissae.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The sample ordinates.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Index of the minimum value (first occurrence). Returns `None` for empty
/// input or when every value is NaN.
///
/// # Examples
///
/// ```
/// use resilience_math::interp::argmin;
/// assert_eq!(argmin(&[3.0, 1.0, 2.0, 1.0]), Some(1));
/// assert_eq!(argmin(&[]), None);
/// ```
#[must_use]
pub fn argmin(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tent() -> LinearInterp {
        LinearInterp::new(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 0.0]).unwrap()
    }

    #[test]
    fn eval_at_knots() {
        let f = tent();
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(2.0), 0.0);
    }

    #[test]
    fn eval_between_knots() {
        let f = tent();
        assert_eq!(f.eval(0.25), 0.5);
        assert_eq!(f.eval(1.5), 1.0);
    }

    #[test]
    fn eval_clamps_outside() {
        let f = tent();
        assert_eq!(f.eval(-5.0), 0.0);
        assert_eq!(f.eval(10.0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(LinearInterp::new(vec![0.0], vec![1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterp::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn many_knots_binary_search() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let f = LinearInterp::new(xs, ys).unwrap();
        for &x in &[0.5, 17.25, 50.0, 99.999] {
            assert!((f.eval(x) - (2.0 * x + 1.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn argmin_basic() {
        let v = [0.99, 0.95, 0.97, 0.95, 1.02];
        assert_eq!(argmin(&v), Some(1), "first trough wins");
    }

    #[test]
    fn argmin_skips_nan() {
        assert_eq!(argmin(&[f64::NAN, 2.0, 1.0]), Some(2));
        assert_eq!(argmin(&[f64::NAN, f64::NAN]), None);
    }
}
