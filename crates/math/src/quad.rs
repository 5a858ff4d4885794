//! One-dimensional numerical quadrature.
//!
//! The interval-based resilience metrics of the paper (its Eq. 14–21) are
//! integrals of a fitted performance curve `P(t)`. The bathtub models have
//! closed-form areas (paper Eq. 3 and 6) but the mixture models do not, so
//! the metrics layer falls back to [`adaptive_simpson`].
//!
//! It integrates a callable `f: f64 -> f64` over a finite interval
//! `[a, b]` and rejects non-finite integrand values with
//! [`MathError::NonFinite`] rather than silently propagating NaN into a
//! reported metric.

use crate::MathError;

/// Adaptive Simpson quadrature with error target `tol` and recursion depth
/// limit `max_depth`.
///
/// This is the workhorse integrator for the mixture-model metrics: it
/// concentrates points near the curve's trough where curvature is highest.
///
/// # Errors
///
/// * [`MathError::Domain`] when `a > b` or `tol ≤ 0`.
/// * [`MathError::NonFinite`] when the integrand returns NaN/∞.
/// * [`MathError::NoConvergence`] when the depth limit is reached before
///   the tolerance is met.
///
/// # Examples
///
/// ```
/// use resilience_math::quad::adaptive_simpson;
/// let area = adaptive_simpson(|x| (-x).exp(), 0.0, 10.0, 1e-12, 40)?;
/// assert!((area - (1.0 - (-10.0f64).exp())).abs() < 1e-10);
/// # Ok::<(), resilience_math::MathError>(())
/// ```
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_depth: usize,
) -> Result<f64, MathError> {
    check_interval("adaptive_simpson", a, b)?;
    if !(tol > 0.0) {
        return Err(MathError::domain(
            "adaptive_simpson",
            format!("tolerance must be positive, got {tol}"),
        ));
    }
    if a == b {
        return Ok(0.0);
    }
    let fa = eval(&mut f, a, "adaptive_simpson")?;
    let fb = eval(&mut f, b, "adaptive_simpson")?;
    let m = 0.5 * (a + b);
    let fm = eval(&mut f, m, "adaptive_simpson")?;
    let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
    adaptive_step(&mut f, a, b, fa, fm, fb, whole, tol, max_depth)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_step<F: FnMut(f64) -> f64>(
    f: &mut F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> Result<f64, MathError> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = eval(f, lm, "adaptive_simpson")?;
    let frm = eval(f, rm, "adaptive_simpson")?;
    let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
    let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
    let delta = left + right - whole;
    if delta.abs() <= 15.0 * tol {
        // Richardson extrapolation removes the leading error term.
        return Ok(left + right + delta / 15.0);
    }
    if depth == 0 {
        return Err(MathError::NoConvergence {
            what: "adaptive_simpson",
            iterations: 0,
            last_error: delta.abs(),
        });
    }
    let l = adaptive_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
    let r = adaptive_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
    Ok(l + r)
}

fn check_interval(what: &'static str, a: f64, b: f64) -> Result<(), MathError> {
    if !a.is_finite() || !b.is_finite() {
        return Err(MathError::domain(
            what,
            format!("interval endpoints must be finite, got [{a}, {b}]"),
        ));
    }
    if a > b {
        return Err(MathError::domain(
            what,
            format!("interval is reversed: [{a}, {b}]"),
        ));
    }
    Ok(())
}

fn eval<F: FnMut(f64) -> f64>(f: &mut F, x: f64, what: &'static str) -> Result<f64, MathError> {
    let y = f(x);
    if y.is_finite() {
        Ok(y)
    } else {
        Err(MathError::NonFinite { what, at: x })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn adaptive_simpson_smooth() {
        let v = adaptive_simpson(f64::sin, 0.0, std::f64::consts::PI, 1e-12, 30).unwrap();
        assert!(approx_eq(v, 2.0, 1e-10, 1e-10));
    }

    #[test]
    fn adaptive_simpson_peaked_integrand() {
        // Narrow Gaussian bump: ∫ exp(−200(x−0.5)²) over [0,1] = √(π/200)·erf-ish ≈ 0.12533141.
        let v = adaptive_simpson(
            |x| (-200.0 * (x - 0.5) * (x - 0.5)).exp(),
            0.0,
            1.0,
            1e-12,
            40,
        )
        .unwrap();
        // Exact value √(π/200)·erf(0.5·√200); erf(7.07…) = 1 to machine precision.
        let exact =
            (std::f64::consts::PI / 200.0).sqrt() * crate::special::erf(0.5 * 200f64.sqrt());
        assert!(approx_eq(v, exact, 1e-9, 1e-9));
    }

    #[test]
    fn adaptive_simpson_depth_exhaustion() {
        // |x|^0.1 has an endpoint singularity in derivatives; with depth 1 the
        // tolerance can't be met.
        let r = adaptive_simpson(|x: f64| x.abs().powf(0.1), -1.0, 1.0, 1e-14, 1);
        assert!(matches!(r, Err(MathError::NoConvergence { .. })));
    }

    #[test]
    fn adaptive_simpson_rejects_bad_tol() {
        assert!(adaptive_simpson(|x| x, 0.0, 1.0, 0.0, 10).is_err());
        assert!(adaptive_simpson(|x| x, 0.0, 1.0, -1.0, 10).is_err());
    }

    #[test]
    fn adaptive_simpson_matches_closed_form_on_resilience_like_curve() {
        // A V-shaped dip-and-recover curve similar to what the models produce:
        // 1 − 0.05·exp(−0.015(t − 10)²) over [0, 40].
        let f = |t: f64| 1.0 - 0.05 * (-0.3 * (t - 10.0).powi(2) / 20.0).exp();
        let v = adaptive_simpson(f, 0.0, 40.0, 1e-12, 40).unwrap();
        let k: f64 = 0.015;
        let exact = 40.0
            - 0.05 * (std::f64::consts::PI / k).sqrt() / 2.0
                * (crate::special::erf(30.0 * k.sqrt()) + crate::special::erf(10.0 * k.sqrt()));
        assert!(approx_eq(v, exact, 1e-10, 0.0));
    }

    #[test]
    fn non_finite_endpoints_rejected() {
        assert!(adaptive_simpson(|x| x, 0.0, f64::INFINITY, 1e-10, 10).is_err());
    }
}
