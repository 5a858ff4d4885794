//! Special functions: the error function family (the normal CDF and
//! quantile behind the Eq. 13 bands).
//!
//! Implementations follow the classical algorithms: `erf`/`erfc` through
//! the regularized incomplete gamma function `P(1/2, x²)` (whose prefactor
//! takes `ln Γ` from the Lanczos approximation), evaluated by its power
//! series below `x² < 3/2` and its continued fraction above. `inv_erf` inverts
//! `erf` with Brent's method plus a Newton polish. Accuracies are on the
//! order of 1e-12 or better over the domains the workspace exercises, and
//! each routine is unit-tested against high-precision reference values.

use crate::MathError;

/// Lanczos coefficients (g = 7, n = 9), Boost/GSL-compatible.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// `ln Γ(x)` for `x > 0` (callers guarantee it) by the Lanczos
/// approximation, with reflection below `1/2`; absolute error is below
/// 1e-12 for `x ∈ (0, 1e10)`. The incomplete gamma function's prefactor.
fn ln_gamma_unchecked(x: f64) -> f64 {
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma_unchecked(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The error function `erf(x)`, accurate to ~1e-13 over the real line.
///
/// Computed from the regularized incomplete gamma function via
/// `erf(x) = sign(x) · P(1/2, x²)`.
///
/// # Examples
///
/// ```
/// use resilience_math::special::erf;
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// assert_eq!(erf(0.0), 0.0);
/// ```
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    if x.is_nan() {
        return f64::NAN;
    }
    let p = reg_gamma_p_unchecked(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, computed
/// without cancellation for large positive `x`.
///
/// # Examples
///
/// ```
/// use resilience_math::special::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-15);
/// assert!(erfc(10.0) > 0.0 && erfc(10.0) < 1e-40);
/// ```
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= 0.0 {
        // No cancellation on this side: erf(x) ≤ 0 so 1 − erf(x) ≥ 1.
        return 1.0 - erf(x);
    }
    // For x > 0 use Q(1/2, x²) which avoids the 1 − erf cancellation.
    reg_gamma_q_unchecked(0.5, x * x)
}

/// Inverse of the error function: returns `x` with `erf(x) = p` for
/// `p ∈ (−1, 1)`.
///
/// Uses the Giles (2010) polynomial approximation refined by two Newton
/// steps, giving ~1e-14 relative accuracy.
///
/// # Errors
///
/// Returns [`MathError::Domain`] when `p ∉ (−1, 1)`.
///
/// # Examples
///
/// ```
/// use resilience_math::special::{erf, inv_erf};
/// let x = inv_erf(0.5)?;
/// assert!((erf(x) - 0.5).abs() < 1e-13);
/// # Ok::<(), resilience_math::MathError>(())
/// ```
pub fn inv_erf(p: f64) -> Result<f64, MathError> {
    if !(p > -1.0 && p < 1.0) {
        return Err(MathError::domain(
            "inv_erf",
            format!("p must be in (-1, 1), got {p}"),
        ));
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    let target = p.abs();
    // Bracket the root of erf(x) = target: erf(6) = 1 − 2e-17, so [0, 6]
    // covers every representable target < 1; expand defensively anyway.
    let mut hi = 1.0;
    while erf(hi) < target && hi < 64.0 {
        hi *= 2.0;
    }
    let root = crate::roots::brent(|x| erf(x) - target, 0.0, hi, 1e-15, 200)
        .map_err(|_| MathError::domain("inv_erf", format!("failed to invert erf at p = {p}")))?;
    let mut x = root.x;
    // Newton polish: f(x) = erf(x) − target, f'(x) = 2/√π · exp(−x²).
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..2 {
        let err = erf(x) - target;
        let deriv = two_over_sqrt_pi * (-x * x).exp();
        if deriv == 0.0 {
            break;
        }
        x -= err / deriv;
    }
    Ok(if p < 0.0 { -x } else { x })
}

fn reg_gamma_p_unchecked(a: f64, x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

fn reg_gamma_q_unchecked(a: f64, x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of P(a, x), valid and fast for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma_unchecked(a);
    let mut ap = a;
    let mut term = 1.0 / a;
    let mut sum = term;
    for _ in 0..500 {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (a * x.ln() - x - ln_ga).exp()
}

/// Continued-fraction evaluation of Q(a, x) (modified Lentz), valid for
/// x ≥ a + 1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma_unchecked(a);
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (a * x.ln() - x - ln_ga).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    const TOL: f64 = 1e-11;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n−1)!
        let factorials = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (i, &f) in factorials.iter().enumerate() {
            let x = (i + 1) as f64;
            assert!(
                approx_eq(ln_gamma_unchecked(x), f64::ln(f), TOL, TOL),
                "ln_gamma({x})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integers() {
        let gamma = |x: f64| ln_gamma_unchecked(x).exp();
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(approx_eq(gamma(0.5), sqrt_pi, TOL, TOL));
        assert!(approx_eq(gamma(1.5), 0.5 * sqrt_pi, TOL, TOL));
        assert!(approx_eq(gamma(2.5), 0.75 * sqrt_pi, TOL, TOL));
    }

    #[test]
    fn ln_gamma_small_argument_reflection() {
        // Γ(0.1) = 9.513507698668732...
        assert!(approx_eq(
            ln_gamma_unchecked(0.1).exp(),
            9.513_507_698_668_732,
            1e-10,
            1e-10
        ));
    }

    #[test]
    fn ln_gamma_large_argument() {
        // Stirling series with the 1/(12x) correction gives
        // ln Γ(100.5) ≈ 361.43554047 to ~1e-8.
        assert!(approx_eq(
            ln_gamma_unchecked(100.5),
            361.435_540_47,
            1e-6,
            1e-10
        ));
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun.
        let cases = [
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!(approx_eq(erf(x), want, 1e-12, 1e-12), "erf({x})");
            assert!(approx_eq(erf(-x), -want, 1e-12, 1e-12), "erf(-{x})");
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[0.0, 0.3, 1.0, 2.5, 5.0] {
            assert!(approx_eq(erfc(x), 1.0 - erf(x), 1e-12, 1e-10), "erfc({x})");
        }
    }

    #[test]
    fn erfc_large_argument_no_underflow_to_garbage() {
        let v = erfc(8.0);
        // erfc(8) ≈ 1.1224297172982928e-29
        assert!(approx_eq(v, 1.122_429_717_298_292_8e-29, 0.0, 1e-8));
    }

    #[test]
    fn inv_erf_roundtrip() {
        for &p in &[-0.999, -0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.999] {
            let x = inv_erf(p).unwrap();
            assert!(approx_eq(erf(x), p, 1e-13, 1e-12), "roundtrip p={p}");
        }
    }

    #[test]
    fn inv_erf_zero() {
        assert_eq!(inv_erf(0.0).unwrap(), 0.0);
    }

    #[test]
    fn inv_erf_rejects_out_of_range() {
        assert!(inv_erf(1.0).is_err());
        assert!(inv_erf(-1.0).is_err());
        assert!(inv_erf(1.5).is_err());
        assert!(inv_erf(f64::NAN).is_err());
    }
}
