//! Scalar root finding.
//!
//! The workspace needs roots in two places: inverting `erf` (the normal
//! quantile, [`crate::special::inv_erf`]) and solving the recovery-time
//! equations of the models (paper Eq. 2 and Eq. 5 cover the closed-form
//! cases; the general path solves `P(t) = level` numerically).

use crate::MathError;

/// Result of a successful root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Abscissa of the root.
    pub x: f64,
    /// Function value at `x` (should be ~0).
    pub f_x: f64,
    /// Number of iterations used.
    pub iterations: usize,
}

/// Brent's method: inverse-quadratic interpolation with bisection fallback.
///
/// The workspace's root finder — superlinear on smooth functions and never
/// worse than bisection.
///
/// # Errors
///
/// * [`MathError::NoBracket`] when `[lo, hi]` does not bracket a sign change.
/// * [`MathError::NoConvergence`] when `max_iter` is exhausted.
/// * [`MathError::Domain`] for invalid intervals or tolerances.
///
/// # Examples
///
/// ```
/// use resilience_math::roots::brent;
/// // Recovery-time-style problem: when does the curve re-cross 0.99?
/// let p = |t: f64| 1.0 - 0.05 * (-(t - 10.0).powi(2) / 30.0).exp() - 0.99;
/// let r = brent(p, 10.0, 40.0, 1e-12, 100)?;
/// assert!(r.f_x.abs() < 1e-10);
/// # Ok::<(), resilience_math::MathError>(())
/// ```
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Root, MathError> {
    check_args("brent", lo, hi, tol)?;
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            f_x: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            f_x: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(MathError::NoBracket {
            what: "brent",
            f_lo: fa,
            f_hi: fb,
        });
    }
    // Ensure |f(b)| <= |f(a)|: b is the best iterate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0;
    for i in 1..=max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(Root {
                x: b,
                f_x: fb,
                iterations: i,
            });
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo_bound = (3.0 * a + b) / 4.0;
        let between = (lo_bound.min(b)..=lo_bound.max(b)).contains(&s);
        let cond = !between
            || (mflag && (s - b).abs() >= 0.5 * (b - c).abs())
            || (!mflag && (s - b).abs() >= 0.5 * (c - d).abs())
            || (mflag && (b - c).abs() < tol)
            || (!mflag && (c - d).abs() < tol);
        if cond {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(MathError::NoConvergence {
        what: "brent",
        iterations: max_iter,
        last_error: fb.abs(),
    })
}

fn check_args(what: &'static str, lo: f64, hi: f64, tol: f64) -> Result<(), MathError> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(MathError::domain(
            what,
            format!("need finite lo < hi, got [{lo}, {hi}]"),
        ));
    }
    if !(tol > 0.0) {
        return Err(MathError::domain(
            what,
            format!("tolerance must be positive, got {tol}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_cubic(x: f64) -> f64 {
        (x - 1.0) * (x + 2.0) * (x - 5.0)
    }

    #[test]
    fn brent_finds_simple_root_of_cubic() {
        // Interval chosen so no bisection midpoint lands on the root.
        let r = brent(f_cubic, 4.1, 6.3, 1e-13, 200).unwrap();
        assert!((r.x - 5.0).abs() < 1e-9);
        // Bisection alone needs ~44 halvings to shrink 2.2 below 1e-13.
        assert!(r.iterations < 44, "{} iterations", r.iterations);
    }

    #[test]
    fn brent_endpoint_root_short_circuits() {
        let r = brent(|x| x, 0.0, 1.0, 1e-12, 10).unwrap();
        assert_eq!(r.x, 0.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn brent_rejects_bad_interval() {
        assert!(brent(|x| x, 1.0, 0.0, 1e-12, 10).is_err());
        assert!(brent(|x| x, 0.0, 1.0, -1.0, 10).is_err());
    }

    #[test]
    fn brent_handles_flat_regions() {
        // Nearly flat away from the root.
        let f = |x: f64| (x - 2.0).powi(7);
        let r = brent(f, 0.0, 5.0, 1e-10, 300).unwrap();
        assert!(
            (r.x - 2.0).abs() < 1e-2,
            "multiple root located approximately"
        );
    }

    #[test]
    fn brent_no_bracket() {
        assert!(matches!(
            brent(|x| x * x + 0.5, -1.0, 1.0, 1e-12, 100),
            Err(MathError::NoBracket { .. })
        ));
    }
    #[test]
    fn recovery_time_style_problem() {
        // P(t) = 1 − 0.04·exp(−((t−12)/8)²); find when P returns to 0.995
        // after the trough at t = 12.
        let level = 0.995;
        let p = |t: f64| 1.0 - 0.04 * (-((t - 12.0) / 8.0).powi(2)).exp() - level;
        let r = brent(p, 12.0, 60.0, 1e-12, 200).unwrap();
        assert!(r.x > 12.0);
        // Check P(r.x) == level.
        let val = 1.0 - 0.04 * (-((r.x - 12.0) / 8.0).powi(2)).exp();
        assert!((val - level).abs() < 1e-10);
    }
}
