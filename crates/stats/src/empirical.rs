//! Empirical cumulative distribution functions.

use crate::StatsError;

/// An empirical CDF built from a sample.
///
/// The residual diagnostics in `resilience-core` use it for their
/// Kolmogorov–Smirnov normality check.
///
/// # Examples
///
/// ```
/// use resilience_stats::EmpiricalCdf;
/// let cdf = EmpiricalCdf::new(vec![3.0, 1.0, 2.0])?;
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(1.0), 1.0 / 3.0);
/// assert_eq!(cdf.eval(2.5), 2.0 / 3.0);
/// assert_eq!(cdf.eval(9.0), 1.0);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds an empirical CDF from a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NotEnoughData`] for an empty sample and
    /// [`StatsError::InvalidParameter`] when the sample contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::NotEnoughData {
                what: "EmpiricalCdf",
                needed: 1,
                got: 0,
            });
        }
        if sample.iter().any(|v| v.is_nan()) {
            return Err(StatsError::InvalidParameter {
                what: "EmpiricalCdf",
                param: "sample",
                value: f64::NAN,
                constraint: "no NaN values",
            });
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ok(EmpiricalCdf { sorted: sample })
    }

    /// Evaluates `F̂(x) = (#{ x_i ≤ x }) / n`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty samples); provided for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Kolmogorov–Smirnov statistic against a reference CDF:
    /// `sup_x |F̂(x) − F(x)|` evaluated at the jump points.
    pub fn ks_statistic<F: Fn(f64) -> f64>(&self, reference: F) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = reference(x);
            let before = i as f64 / n;
            let after = (i + 1) as f64 / n;
            d = d.max((f - before).abs()).max((after - f).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(EmpiricalCdf::new(vec![]).is_err());
        assert!(EmpiricalCdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn step_function_values() {
        let cdf = EmpiricalCdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75); // duplicates both counted
        assert_eq!(cdf.eval(3.9), 0.75);
        assert_eq!(cdf.eval(4.0), 1.0);
    }

    #[test]
    fn len_and_is_empty() {
        let cdf = EmpiricalCdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.len(), 3);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn ks_statistic_zero_against_self_like_cdf() {
        // Sample at the quantile midpoints of U(0,1) has tiny KS distance.
        let n = 1000;
        let sample: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let cdf = EmpiricalCdf::new(sample).unwrap();
        let d = cdf.ks_statistic(|x| x.clamp(0.0, 1.0));
        assert!(d < 1.0 / n as f64 + 1e-12);
    }

    #[test]
    fn ks_statistic_detects_wrong_reference() {
        let sample: Vec<f64> = (0..100).map(|i| (i as f64 + 0.5) / 100.0).collect();
        let cdf = EmpiricalCdf::new(sample).unwrap();
        // Compare against a very different CDF (point mass near 0).
        let d = cdf.ks_statistic(|x| if x >= 0.0 { 1.0 } else { 0.0 });
        assert!(d > 0.9);
    }
}
