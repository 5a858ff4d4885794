//! Critical values and confidence-interval helpers.
//!
//! The paper's confidence band (its Eq. 12–13) is
//! `ΔP(t_i) ± z_{1−α/2}·σ` with `σ² = SSE/(n−2)`; this module supplies the
//! normal critical value, a reusable symmetric-interval helper, the
//! empirical coverage of a set of intervals, and the Kolmogorov–Smirnov
//! p-value the residual diagnostics use.

use crate::{Normal, StatsError};

/// Two-sided standard-normal critical value `z_{1−α/2}`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] unless `alpha ∈ (0, 1)`.
///
/// # Examples
///
/// ```
/// use resilience_stats::inference::z_critical;
/// let z = z_critical(0.05)?; // 95 % confidence
/// assert!((z - 1.959963984540054).abs() < 1e-8);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn z_critical(alpha: f64) -> Result<f64, StatsError> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(StatsError::InvalidProbability {
            what: "z_critical",
            value: alpha,
        });
    }
    Normal::standard().quantile(1.0 - alpha / 2.0)
}

/// A symmetric confidence interval `center ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Interval center.
    pub center: f64,
    /// Interval half width (non-negative).
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower limit.
    #[must_use]
    pub fn lower(&self) -> f64 {
        self.center - self.half_width
    }

    /// Upper limit.
    #[must_use]
    pub fn upper(&self) -> f64 {
        self.center + self.half_width
    }

    /// Whether the interval contains `x` (inclusive).
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower() && x <= self.upper()
    }

    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        2.0 * self.half_width
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.6}, {:.6}]", self.lower(), self.upper())
    }
}

/// Builds the paper's Eq. 13 interval: `center ± z_{1−α/2}·σ`.
///
/// # Errors
///
/// * [`StatsError::InvalidProbability`] unless `alpha ∈ (0, 1)`.
/// * [`StatsError::InvalidParameter`] when `sigma` is negative or
///   non-finite.
///
/// # Examples
///
/// ```
/// use resilience_stats::inference::normal_interval;
/// let ci = normal_interval(0.0, 1.0, 0.05)?;
/// assert!(ci.contains(1.9));
/// assert!(!ci.contains(2.1));
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn normal_interval(
    center: f64,
    sigma: f64,
    alpha: f64,
) -> Result<ConfidenceInterval, StatsError> {
    if !(sigma >= 0.0) || !sigma.is_finite() {
        return Err(StatsError::InvalidParameter {
            what: "normal_interval",
            param: "sigma",
            value: sigma,
            constraint: "sigma >= 0 and finite",
        });
    }
    let z = z_critical(alpha)?;
    Ok(ConfidenceInterval {
        center,
        half_width: z * sigma,
    })
}

/// Asymptotic p-value of the one-sample Kolmogorov–Smirnov statistic:
/// `Q(λ) = 2·Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}` evaluated at
/// `λ = (√n + 0.12 + 0.11/√n)·d` (the Stephens correction).
///
/// Used by the residual diagnostics in `resilience-core` to judge
/// whether residuals are plausibly Gaussian.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `d ∉ [0, 1]` or
/// `n == 0`.
///
/// # Examples
///
/// ```
/// use resilience_stats::inference::ks_p_value;
/// // A tiny distance on a large sample is entirely consistent.
/// assert!(ks_p_value(0.01, 100)? > 0.99);
/// // A large distance is not.
/// assert!(ks_p_value(0.5, 100)? < 1e-6);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn ks_p_value(d: f64, n: usize) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&d) {
        return Err(StatsError::InvalidParameter {
            what: "ks_p_value",
            param: "d",
            value: d,
            constraint: "d in [0, 1]",
        });
    }
    if n == 0 {
        return Err(StatsError::NotEnoughData {
            what: "ks_p_value",
            needed: 1,
            got: 0,
        });
    }
    if d == 0.0 {
        return Ok(1.0);
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    Ok((2.0 * sum).clamp(0.0, 1.0))
}

/// Empirical coverage: the fraction of `observed` values whose paired
/// interval contains them — the paper's EC measure.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when the slices are empty or
/// lengths differ.
pub fn empirical_coverage(
    observed: &[f64],
    intervals: &[ConfidenceInterval],
) -> Result<f64, StatsError> {
    if observed.is_empty() || observed.len() != intervals.len() {
        return Err(StatsError::NotEnoughData {
            what: "empirical_coverage",
            needed: observed.len().max(1),
            got: intervals.len(),
        });
    }
    let inside = observed
        .iter()
        .zip(intervals)
        .filter(|(x, ci)| ci.contains(**x))
        .count();
    Ok(inside as f64 / observed.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_critical_reference_values() {
        assert!((z_critical(0.10).unwrap() - 1.644_853_626_951_472_7).abs() < 1e-8);
        assert!((z_critical(0.05).unwrap() - 1.959_963_984_540_054).abs() < 1e-8);
        assert!((z_critical(0.01).unwrap() - 2.575_829_303_548_901).abs() < 1e-8);
    }

    #[test]
    fn z_critical_rejects_bad_alpha() {
        assert!(z_critical(0.0).is_err());
        assert!(z_critical(1.0).is_err());
        assert!(z_critical(-0.1).is_err());
    }

    #[test]
    fn confidence_interval_geometry() {
        let ci = ConfidenceInterval {
            center: 1.0,
            half_width: 0.5,
        };
        assert_eq!(ci.lower(), 0.5);
        assert_eq!(ci.upper(), 1.5);
        assert_eq!(ci.width(), 1.0);
        assert!(ci.contains(0.5) && ci.contains(1.5));
        assert!(!ci.contains(0.49));
        assert!(ci.to_string().starts_with('['));
    }

    #[test]
    fn normal_interval_widths_scale_with_sigma() {
        let narrow = normal_interval(0.0, 0.1, 0.05).unwrap();
        let wide = normal_interval(0.0, 0.2, 0.05).unwrap();
        assert!((wide.half_width - 2.0 * narrow.half_width).abs() < 1e-12);
        assert!(normal_interval(0.0, -1.0, 0.05).is_err());
    }

    #[test]
    fn ks_p_value_limits() {
        assert_eq!(ks_p_value(0.0, 50).unwrap(), 1.0);
        assert!(ks_p_value(1.0, 50).unwrap() < 1e-20);
        assert!(ks_p_value(-0.1, 50).is_err());
        assert!(ks_p_value(0.5, 0).is_err());
    }

    #[test]
    fn ks_p_value_monotone_in_d() {
        let mut prev = 1.0;
        for i in 1..20 {
            let d = i as f64 * 0.05;
            let p = ks_p_value(d, 40).unwrap();
            assert!(p <= prev + 1e-12, "p must decrease with d");
            prev = p;
        }
    }

    #[test]
    fn ks_p_value_reference() {
        // The classic 5% critical value for large n is d ≈ 1.358/√n;
        // at that distance the p-value should be near 0.05.
        let n = 400;
        let d = 1.358 / (n as f64).sqrt();
        let p = ks_p_value(d, n).unwrap();
        assert!((p - 0.05).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn empirical_coverage_counts() {
        let obs = [0.0, 1.0, 2.0, 10.0];
        let cis: Vec<ConfidenceInterval> = obs
            .iter()
            .map(|&x| ConfidenceInterval {
                center: if x > 5.0 { 0.0 } else { x },
                half_width: 0.5,
            })
            .collect();
        // First three covered, the 10.0 one not.
        let ec = empirical_coverage(&obs, &cis).unwrap();
        assert!((ec - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empirical_coverage_rejects_mismatch() {
        assert!(empirical_coverage(&[], &[]).is_err());
        let ci = ConfidenceInterval {
            center: 0.0,
            half_width: 1.0,
        };
        assert!(empirical_coverage(&[1.0, 2.0], &[ci]).is_err());
    }
}
