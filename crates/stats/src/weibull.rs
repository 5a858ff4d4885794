//! Weibull distribution.

use crate::{ContinuousDistribution, StatsError};

/// Weibull distribution with shape `k > 0` and scale `λ > 0`.
///
/// This is the richer mixture component of the paper (its Eq. 23):
/// `F(t) = 1 − exp(−(t/λ)^k)` for `t ≥ 0`. With `k = 1` it reduces to
/// [`crate::Exponential`]; `k > 1` gives the S-shaped recovery ramps that
/// make the Wei-Exp / Exp-Wei / Wei-Wei mixtures outperform Exp-Exp in the
/// paper's Table III.
///
/// # Examples
///
/// ```
/// use resilience_stats::{ContinuousDistribution, Weibull};
/// let w = Weibull::new(2.0, 5.0)?;
/// // At t = λ the CDF is 1 − 1/e regardless of shape.
/// assert!((w.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with shape `k` and scale `λ`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both parameters are
    /// finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        if !(shape > 0.0) || !shape.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "Weibull",
                param: "shape",
                value: shape,
                constraint: "shape > 0 and finite",
            });
        }
        if !(scale > 0.0) || !scale.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "Weibull",
                param: "scale",
                value: scale,
                constraint: "scale > 0 and finite",
            });
        }
        Ok(Weibull { shape, scale })
    }

    /// The shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDistribution for Weibull {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-2.0, 1.0).is_err());
        assert!(Weibull::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn reduces_to_exponential_at_shape_one() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        let e = crate::Exponential::new(0.5).unwrap();
        for &x in &[0.0, 0.5, 1.0, 4.0, 10.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-14, "x = {x}");
            assert!((w.survival(x) - e.survival(x)).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn accessors() {
        let w = Weibull::new(2.0, 5.0).unwrap();
        assert_eq!(w.shape(), 2.0);
        assert_eq!(w.scale(), 5.0);
    }
}
