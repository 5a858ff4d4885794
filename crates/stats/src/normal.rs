//! Normal (Gaussian) distribution.

use crate::{ContinuousDistribution, StatsError};
use resilience_math::special::{erf, erfc, inv_erf};

/// Normal distribution with mean `μ` and standard deviation `σ > 0`.
///
/// Used by the inference layer for the `z_{1−α/2}` critical values in the
/// paper's confidence-interval construction (its Eq. 13), and by the
/// residual-normality diagnostic.
///
/// # Examples
///
/// ```
/// use resilience_stats::{ContinuousDistribution, Normal};
/// let n = Normal::standard();
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
/// let z = n.quantile(0.975)?;
/// assert!((z - 1.959963984540054).abs() < 1e-9);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `std_dev` is finite
    /// and positive and `mean` is finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "Normal",
                param: "mean",
                value: mean,
                constraint: "mean finite",
            });
        }
        if !(std_dev > 0.0) || !std_dev.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "Normal",
                param: "std_dev",
                value: std_dev,
                constraint: "std_dev > 0 and finite",
            });
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    #[must_use]
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
    }

    /// Quantile function (inverse CDF) at probability `p ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// * [`StatsError::InvalidProbability`] when `p ∉ (0, 1)`.
    /// * [`StatsError::Numerical`] when the inverse error function fails.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidProbability {
                what: "Normal::quantile",
                value: p,
            });
        }
        let z = std::f64::consts::SQRT_2 * inv_erf(2.0 * p - 1.0)?;
        Ok(self.mean + self.std_dev * z)
    }

    fn z(&self, x: f64) -> f64 {
        (x - self.mean) / self.std_dev
    }
}

impl Default for Normal {
    fn default() -> Self {
        Normal::standard()
    }
}

impl ContinuousDistribution for Normal {
    fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf(self.z(x) / std::f64::consts::SQRT_2))
    }

    fn survival(&self, x: f64) -> f64 {
        0.5 * erfc(self.z(x) / std::f64::consts::SQRT_2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn standard_matches_default() {
        assert_eq!(Normal::standard(), Normal::default());
    }

    #[test]
    fn cdf_reference_values() {
        let n = Normal::standard();
        // Φ(1) = 0.8413447460685429, Φ(1.96) = 0.9750021048517795.
        assert!((n.cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((n.cdf(1.96) - 0.975_002_104_851_779_5).abs() < 1e-12);
        assert!((n.cdf(-1.0) - (1.0 - 0.841_344_746_068_542_9)).abs() < 1e-12);
    }

    #[test]
    fn quantile_critical_values() {
        let n = Normal::standard();
        // The z-values used by 90/95/99% confidence intervals.
        assert!((n.quantile(0.95).unwrap() - 1.644_853_626_951_472_7).abs() < 1e-9);
        assert!((n.quantile(0.975).unwrap() - 1.959_963_984_540_054).abs() < 1e-9);
        assert!((n.quantile(0.995).unwrap() - 2.575_829_303_548_901).abs() < 1e-8);
    }

    #[test]
    fn quantile_roundtrip_nonstandard() {
        let n = Normal::new(10.0, 2.5).unwrap();
        for &p in &[0.05, 0.3, 0.5, 0.7, 0.99] {
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-11, "p = {p}");
        }
    }

    #[test]
    fn survival_tail_accuracy() {
        let n = Normal::standard();
        // S(6) ≈ 9.865876450377018e-10; the 1 − cdf form would lose digits.
        let s = n.survival(6.0);
        assert!((s - 9.865_876_450_377_018e-10).abs() / s < 1e-9);
    }
}
