//! The [`ContinuousDistribution`] trait.
//!
//! The mixture resilience model (paper Eq. 7) composes two CDFs `F₁`,
//! `F₂` through `S₁(t) + trend(t)·F₂(t)`. The mixtures evaluate their
//! components in the log domain (`resilience-core::mixture`); this trait
//! is what the closed-form reference for that kernel, and the normality
//! diagnostic's Kolmogorov–Smirnov statistic, read.

/// A continuous probability distribution on (a subset of) the real line.
///
/// # Conventions
///
/// `cdf` must be nondecreasing with limits 0 and 1; evaluation outside
/// the support clamps rather than errors (e.g. `Exponential::cdf(-1.0)`
/// is 0), which is what the mixture model needs when it sweeps `t` from
/// the hazard time onward.
pub trait ContinuousDistribution {
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Survival (reliability) function `S(x) = 1 − F(x)`.
    ///
    /// Override when a cancellation-free form exists.
    fn survival(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit exponential through the trait's defaults.
    struct HalfLine;

    impl ContinuousDistribution for HalfLine {
        fn cdf(&self, x: f64) -> f64 {
            if x < 0.0 {
                0.0
            } else {
                1.0 - (-x).exp()
            }
        }
    }

    #[test]
    fn default_survival() {
        let d = HalfLine;
        assert!((d.survival(1.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(d.survival(-1.0), 1.0);
    }
}
