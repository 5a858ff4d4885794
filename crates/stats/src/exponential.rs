//! Exponential distribution.

use crate::{ContinuousDistribution, StatsError};

/// Exponential distribution with rate `λ > 0`.
///
/// This is the simpler of the two mixture components the paper evaluates
/// (its Eq. 23 with `k = 1`): `F(t) = 1 − e^{−λt}` for `t ≥ 0`.
///
/// # Examples
///
/// ```
/// use resilience_stats::{ContinuousDistribution, Exponential};
/// let e = Exponential::new(0.5)?;
/// assert!((e.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `rate` is finite
    /// and positive.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(StatsError::InvalidParameter {
                what: "Exponential",
                param: "rate",
                value: rate,
                constraint: "rate > 0 and finite",
            });
        }
        Ok(Exponential { rate })
    }

    /// The rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDistribution for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn negative_support_clamps() {
        let e = Exponential::new(1.0).unwrap();
        assert_eq!(e.cdf(-1.0), 0.0);
        assert_eq!(e.survival(-1.0), 1.0);
    }

    #[test]
    fn memorylessness() {
        // S(s + t) = S(s)·S(t).
        let e = Exponential::new(0.3).unwrap();
        let (s, t) = (1.2, 3.4);
        assert!((e.survival(s + t) - e.survival(s) * e.survival(t)).abs() < 1e-14);
    }
}
