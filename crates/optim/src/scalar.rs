//! One-dimensional minimization: golden-section and Brent's parabolic
//! method.
//!
//! Golden-section locates a fitted curve's trough when the model has no
//! analytic minimum (`ResilienceModel::trough_time` in `resilience-core`),
//! and the fit tests use it as the reference search over the mixtures'
//! ln β, which the fit itself solves in closed form. Brent's method fits
//! Competing Risks: its profile over ln β runs [`brent_min`] in the
//! bracket of each local minimum of a 25-node grid
//! (`resilience-core`'s `bathtub::competing_risks`). The tests' dense
//! references use it too, over 1 001 ln β nodes for Competing Risks and
//! over the Quadratic's surface troughs.

use crate::OptimError;

/// Result of a scalar minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarMinimum {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Function value at the minimum.
    pub f_x: f64,
    /// Iterations used.
    pub iterations: usize,
}

const GOLDEN_RATIO_CONJUGATE: f64 = 0.618_033_988_749_894_9;

/// Golden-section search on a unimodal function over `[lo, hi]`.
///
/// Linear convergence but completely derivative-free and robust.
///
/// # Errors
///
/// * [`OptimError::InvalidConfig`] for a bad interval/tolerance.
/// * [`OptimError::BudgetExhausted`] if `max_iter` is hit (the best point
///   so far is carried in the error).
///
/// # Examples
///
/// ```
/// use resilience_optim::scalar::golden_section;
/// let m = golden_section(|x| (x - 2.5) * (x - 2.5), 0.0, 10.0, 1e-10, 200)?;
/// assert!((m.x - 2.5).abs() < 1e-8);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn golden_section<F: Fn(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<ScalarMinimum, OptimError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(OptimError::config(
            "golden_section",
            format!("need finite lo < hi, got [{lo}, {hi}]"),
        ));
    }
    if !(tol > 0.0) {
        return Err(OptimError::config(
            "golden_section",
            "tolerance must be positive",
        ));
    }
    let mut a = lo;
    let mut b = hi;
    let mut x1 = b - GOLDEN_RATIO_CONJUGATE * (b - a);
    let mut x2 = a + GOLDEN_RATIO_CONJUGATE * (b - a);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for i in 1..=max_iter {
        if (b - a).abs() < tol * (1.0 + a.abs() + b.abs()) {
            let (x, f_x) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
            return Ok(ScalarMinimum {
                x,
                f_x,
                iterations: i,
            });
        }
        if f1 < f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - GOLDEN_RATIO_CONJUGATE * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + GOLDEN_RATIO_CONJUGATE * (b - a);
            f2 = f(x2);
        }
    }
    let (x, f_x) = if f1 < f2 { (x1, f1) } else { (x2, f2) };
    Err(OptimError::BudgetExhausted {
        best_params: vec![x],
        best_value: f_x,
        evaluations: max_iter + 2,
    })
}

/// Brent's parabolic-interpolation minimizer on `[lo, hi]`.
///
/// Superlinear on smooth functions, falling back to golden-section steps
/// when the parabola misbehaves. This is the recommended scalar minimizer.
///
/// # Errors
///
/// Same conditions as [`golden_section`].
///
/// # Examples
///
/// ```
/// use resilience_optim::scalar::brent_min;
/// // Trough of a resilience-like dip curve.
/// let m = brent_min(|t: f64| -(-((t - 12.0) / 5.0).powi(2)).exp(), 0.0, 40.0, 1e-10, 200)?;
/// assert!((m.x - 12.0).abs() < 1e-6);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn brent_min<F: Fn(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<ScalarMinimum, OptimError> {
    if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
        return Err(OptimError::config(
            "brent_min",
            format!("need finite lo < hi, got [{lo}, {hi}]"),
        ));
    }
    if !(tol > 0.0) {
        return Err(OptimError::config(
            "brent_min",
            "tolerance must be positive",
        ));
    }
    const CGOLD: f64 = 0.381_966_011_250_105;
    let mut a = lo;
    let mut b = hi;
    let mut x = a + CGOLD * (b - a);
    let mut w = x;
    let mut v = x;
    let mut fx = f(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    for i in 1..=max_iter {
        let m = 0.5 * (a + b);
        let tol1 = tol * x.abs() + 1e-15;
        let tol2 = 2.0 * tol1;
        if (x - m).abs() <= tol2 - 0.5 * (b - a) {
            return Ok(ScalarMinimum {
                x,
                f_x: fx,
                iterations: i,
            });
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Try parabolic interpolation through (v, w, x).
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let e_old = e;
            e = d;
            if p.abs() < (0.5 * q * e_old).abs() && p > q * (a - x) && p < q * (b - x) {
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = if m > x { tol1 } else { -tol1 };
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x < m { b - x } else { a - x };
            d = CGOLD * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else if d > 0.0 {
            x + tol1
        } else {
            x - tol1
        };
        let fu = f(u);
        if fu <= fx {
            if u < x {
                b = x;
            } else {
                a = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    Err(OptimError::BudgetExhausted {
        best_params: vec![x],
        best_value: fx,
        evaluations: max_iter + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_quadratic_minimum() {
        let m = golden_section(|x| (x - 3.0).powi(2) + 1.0, -10.0, 10.0, 1e-10, 200).unwrap();
        assert!((m.x - 3.0).abs() < 1e-7);
        assert!((m.f_x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn golden_rejects_bad_interval() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-8, 100).is_err());
        assert!(golden_section(|x| x, 0.0, 1.0, -1.0, 100).is_err());
    }

    #[test]
    fn golden_budget_carries_best() {
        let r = golden_section(|x| (x - 3.0).powi(2), -1e6, 1e6, 1e-15, 3);
        match r {
            Err(OptimError::BudgetExhausted { best_params, .. }) => {
                assert_eq!(best_params.len(), 1);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn brent_matches_golden_with_fewer_iterations() {
        let f = |x: f64| (x - 1.7).powi(2) + 0.5 * (3.0 * x).sin().powi(2) * 0.0 + 2.0;
        let g = golden_section(f, -5.0, 5.0, 1e-10, 500).unwrap();
        let b = brent_min(f, -5.0, 5.0, 1e-10, 500).unwrap();
        assert!((g.x - b.x).abs() < 1e-5);
        assert!(b.iterations <= g.iterations);
    }

    #[test]
    fn brent_on_asymmetric_function() {
        // Minimum of x·ln(x) at x = 1/e.
        let m = brent_min(|x: f64| x * x.ln(), 0.01, 2.0, 1e-12, 200).unwrap();
        assert!((m.x - (-1.0f64).exp()).abs() < 1e-7);
    }

    #[test]
    fn brent_endpoint_minimum() {
        // Monotone increasing: minimum at the left endpoint.
        let m = brent_min(|x| x, 2.0, 5.0, 1e-10, 200).unwrap();
        assert!((m.x - 2.0).abs() < 1e-4);
    }

    #[test]
    fn brent_rejects_bad_input() {
        assert!(brent_min(|x| x, 5.0, 2.0, 1e-8, 100).is_err());
        assert!(brent_min(|x| x, 0.0, 1.0, 0.0, 100).is_err());
    }
}
