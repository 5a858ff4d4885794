//! Descriptive statistics.
//!
//! These are the building blocks of the paper's goodness-of-fit measures:
//! the naive predictor `R̄(t)` in adjusted R² (its Eq. 11) is a sample
//! mean, and `SSY` is a centered sum of squares.

use crate::StatsError;
use resilience_math::sum::CompensatedSum;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] for an empty slice.
///
/// # Examples
///
/// ```
/// use resilience_stats::describe::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0])?, 2.0);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn mean(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::NotEnoughData {
            what: "mean",
            needed: 1,
            got: 0,
        });
    }
    let s: CompensatedSum = values.iter().copied().collect();
    Ok(s.value() / values.len() as f64)
}

/// Sample variance with Bessel's correction (`n − 1` denominator),
/// computed with a numerically stable two-pass algorithm.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when fewer than two observations
/// are given.
///
/// # Examples
///
/// ```
/// use resilience_stats::describe::variance;
/// assert_eq!(variance(&[1.0, 2.0, 3.0])?, 1.0);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn variance(values: &[f64]) -> Result<f64, StatsError> {
    if values.len() < 2 {
        return Err(StatsError::NotEnoughData {
            what: "variance",
            needed: 2,
            got: values.len(),
        });
    }
    let m = mean(values)?;
    let mut s = CompensatedSum::new();
    for &v in values {
        let d = v - m;
        s.add(d * d);
    }
    Ok(s.value() / (values.len() - 1) as f64)
}

/// Sample standard deviation (Bessel-corrected).
///
/// # Errors
///
/// Same conditions as [`variance`].
pub fn std_dev(values: &[f64]) -> Result<f64, StatsError> {
    Ok(variance(values)?.sqrt())
}

/// Centered sum of squares `Σ (x_i − x̄)²` — the paper's `SSY`.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] for an empty slice.
pub fn centered_sum_of_squares(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::NotEnoughData {
            what: "centered_sum_of_squares",
            needed: 1,
            got: 0,
        });
    }
    let m = mean(values)?;
    let mut s = CompensatedSum::new();
    for &v in values {
        let d = v - m;
        s.add(d * d);
    }
    Ok(s.value())
}

/// Linear-interpolated sample quantile (type-7, the R default) for
/// `q ∈ [0, 1]`.
///
/// # Errors
///
/// * [`StatsError::NotEnoughData`] for an empty slice.
/// * [`StatsError::InvalidProbability`] when `q ∉ [0, 1]`.
/// * [`StatsError::InvalidParameter`] when the data contain NaN.
///
/// # Examples
///
/// ```
/// use resilience_stats::describe::quantile;
/// let q = quantile(&[1.0, 2.0, 3.0, 4.0], 0.5)?;
/// assert_eq!(q, 2.5);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn quantile(values: &[f64], q: f64) -> Result<f64, StatsError> {
    check_quantile(values, q)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
    quantile_sorted(&sorted, q)
}

/// The errors of [`quantile`], in its order.
fn check_quantile(values: &[f64], q: f64) -> Result<(), StatsError> {
    if values.is_empty() {
        return Err(StatsError::NotEnoughData {
            what: "quantile",
            needed: 1,
            got: 0,
        });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidProbability {
            what: "quantile",
            value: q,
        });
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::InvalidParameter {
            what: "quantile",
            param: "values",
            value: f64::NAN,
            constraint: "no NaN values",
        });
    }
    Ok(())
}

/// [`quantile`] by selection instead of a sort: `scratch` takes a copy of
/// `values`, in which only the one or two order statistics that
/// [`quantile_sorted`] interpolates between are put in place, in linear
/// time. The result is [`quantile`]'s, bit for bit. Its stable sort keeps
/// equal values in their order, which shows only in the sign of a zero, so
/// a zero read at a rank takes the sign of the zero the stable sort puts
/// there.
///
/// # Errors
///
/// Same conditions as [`quantile`].
///
/// # Examples
///
/// ```
/// use resilience_stats::describe::{quantile, quantile_select};
/// // Sorted stably: [0.0, −0.0, −0.0, 1.0, 4.0].
/// let values = [4.0, 0.0, -0.0, 1.0, -0.0];
/// let mut scratch = Vec::new();
/// let q = quantile_select(&values, 0.5, &mut scratch)?;
/// assert_eq!(q.to_bits(), quantile(&values, 0.5)?.to_bits());
/// assert!(q == 0.0 && q.is_sign_negative());
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn quantile_select(values: &[f64], q: f64, scratch: &mut Vec<f64>) -> Result<f64, StatsError> {
    check_quantile(values, q)?;
    let h = q * (values.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    scratch.clear();
    scratch.extend_from_slice(values);
    let order = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaN after check");
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, order);
    let at_lo = stable_zero(values, lo, at_lo);
    if lo == hi {
        return Ok(at_lo);
    }
    // Everything above rank `lo` is at least its value, so rank `hi = lo + 1`
    // holds their least.
    let at_hi = above
        .iter()
        .copied()
        .min_by(order)
        .expect("rank hi lies above rank lo");
    let at_hi = stable_zero(values, hi, at_hi);
    let frac = h - lo as f64;
    Ok(at_lo * (1.0 - frac) + at_hi * frac)
}

/// The value a stable sort of `values` by `partial_cmp` puts at `rank`,
/// given the value `v` that belongs there: `v` itself, unless it is a zero,
/// which then has the sign of the `(rank − b)`-th zero of `values` in their
/// order, where `b` values lie below zero.
fn stable_zero(values: &[f64], rank: usize, v: f64) -> f64 {
    if v != 0.0 {
        return v;
    }
    let below = values.iter().filter(|x| **x < 0.0).count();
    values
        .iter()
        .copied()
        .filter(|x| *x == 0.0)
        .nth(rank - below)
        .expect("a zero's rank lies among the zeros")
}

/// [`quantile`] of values already sorted ascending, as [`quantile`] sorts
/// its copy (a stable sort by `partial_cmp`): the same interpolation, so
/// several quantiles can share one sort.
///
/// # Errors
///
/// * [`StatsError::NotEnoughData`] for an empty slice.
/// * [`StatsError::InvalidProbability`] when `q ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use resilience_stats::describe::{quantile, quantile_sorted};
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile_sorted(&sorted, 0.25)?, quantile(&[4.0, 2.0, 1.0, 3.0], 0.25)?);
/// # Ok::<(), resilience_stats::StatsError>(())
/// ```
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64, StatsError> {
    if sorted.is_empty() {
        return Err(StatsError::NotEnoughData {
            what: "quantile",
            needed: 1,
            got: 0,
        });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidProbability {
            what: "quantile",
            value: q,
        });
    }
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return Ok(sorted[lo]);
    }
    let frac = h - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Sample median (50 % quantile).
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    quantile(values, 0.5)
}

/// Lag-`k` sample autocorrelation.
///
/// Useful for inspecting residual structure after a model fit (white
/// residuals ⇒ the model captured the curve's dynamics).
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] when `values.len() <= k + 1` and
/// [`StatsError::InvalidParameter`] when the series is constant.
pub fn autocorrelation(values: &[f64], k: usize) -> Result<f64, StatsError> {
    if values.len() <= k + 1 {
        return Err(StatsError::NotEnoughData {
            what: "autocorrelation",
            needed: k + 2,
            got: values.len(),
        });
    }
    let m = mean(values)?;
    let mut num = 0.0;
    for i in k..values.len() {
        num += (values[i] - m) * (values[i - k] - m);
    }
    let mut den = 0.0;
    for &v in values {
        den += (v - m) * (v - m);
    }
    if den == 0.0 {
        return Err(StatsError::InvalidParameter {
            what: "autocorrelation",
            param: "values",
            value: 0.0,
            constraint: "series must not be constant",
        });
    }
    Ok(num / den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShift64;

    /// Selection reads the quantile [`quantile`]'s stable sort does, sign
    /// bit included: seeded samples drawn from a few values, so that most
    /// ranks are ties, among them `−0.0` and `+0.0` in a mixed order.
    #[test]
    fn quantile_select_matches_the_stable_sort_bit_for_bit() {
        let pool = [-1.5, -0.0, 0.0, 0.25, 0.25, 1.0, -0.0, 0.0];
        let mut scratch = Vec::new();
        let mut zero_reads = 0;
        for seed in 0..40 {
            let mut rng = XorShift64::stream(0x005E_1EC7, seed);
            for m in [1, 2, 20, 21, 200] {
                let values: Vec<f64> = (0..m).map(|_| pool[rng.next_index(pool.len())]).collect();
                for q in [0.0, 0.025, 0.5, 0.975, 1.0] {
                    let want = quantile(&values, q).unwrap();
                    let got = quantile_select(&values, q, &mut scratch).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{values:?} at {q}");
                    zero_reads += usize::from(want == 0.0);
                }
            }
        }
        assert!(zero_reads > 50, "{zero_reads}");
        assert!(quantile_select(&[], 0.5, &mut scratch).is_err());
        assert!(quantile_select(&[1.0], 1.5, &mut scratch).is_err());
        assert!(quantile_select(&[1.0, f64::NAN], 0.5, &mut scratch).is_err());
    }

    #[test]
    fn mean_basic_and_empty() {
        assert_eq!(mean(&[2.0, 4.0, 6.0]).unwrap(), 4.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn mean_is_stable_for_large_offsets() {
        let values: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 7) as f64).collect();
        let m = mean(&values).unwrap();
        let exact = 1e9 + (0..1000).map(|i| (i % 7) as f64).sum::<f64>() / 1000.0;
        assert!((m - exact).abs() < 1e-6);
    }

    #[test]
    fn variance_known_values() {
        assert_eq!(variance(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 5.0 / 3.0);
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn std_dev_is_sqrt_variance() {
        let v = [3.0, 7.0, 7.0, 19.0];
        assert!((std_dev(&v).unwrap() - variance(&v).unwrap().sqrt()).abs() < 1e-15);
    }

    #[test]
    fn centered_ss_matches_variance() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let ssy = centered_sum_of_squares(&v).unwrap();
        assert!((ssy - 3.0 * variance(&v).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn quantile_type7() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&v, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&v, 0.5).unwrap(), 2.5);
        assert_eq!(quantile(&v, 0.25).unwrap(), 1.75);
    }

    #[test]
    fn quantile_rejects_bad_input() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn autocorrelation_of_alternating_series() {
        let v = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let r1 = autocorrelation(&v, 1).unwrap();
        assert!(
            r1 < -0.8,
            "alternating series has strong negative lag-1: {r1}"
        );
        let r2 = autocorrelation(&v, 2).unwrap();
        assert!(r2 > 0.5);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let v = [1.0, 3.0, 2.0, 5.0, 4.0];
        assert!((autocorrelation(&v, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_errors() {
        assert!(autocorrelation(&[1.0, 2.0], 1).is_err());
        assert!(autocorrelation(&[2.0, 2.0, 2.0, 2.0], 1).is_err());
    }
}
