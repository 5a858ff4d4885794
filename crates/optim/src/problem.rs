//! The least-squares problem trait and its forward-difference Jacobian.

use crate::OptimError;
use resilience_math::linalg::Matrix;

/// A least-squares problem: a map from parameters to a residual vector
/// `r(θ)`, minimized as `‖r(θ)‖²`.
///
/// The resilience fitting layer implements this once per model: residuals
/// are `R(t_i) − P(t_i; θ)` exactly as in the paper's Eq. 8.
pub trait LeastSquares {
    /// Number of parameters.
    fn n_params(&self) -> usize;

    /// Number of residuals (observations).
    fn n_residuals(&self) -> usize;

    /// Writes the residual vector for `params` into `out`.
    ///
    /// Implementations may return non-finite entries to signal an invalid
    /// region; the optimizers treat such points as infinitely bad.
    fn residuals(&self, params: &[f64], out: &mut [f64]);

    /// Sum of squared residuals at `params`.
    fn sse(&self, params: &[f64]) -> f64 {
        let mut r = vec![0.0; self.n_residuals()];
        self.residuals(params, &mut r);
        r.iter().map(|v| v * v).sum()
    }

    /// Analytic Jacobian opt-in: writes `J[i][j] = ∂r_i/∂θ_j` into `out`
    /// and returns `Some(())`, or returns `None` when no closed form is
    /// available (the optimizers then fall back to [`forward_jacobian`]).
    ///
    /// `out` is an `n_residuals × n_params` matrix owned by the caller and
    /// reused across iterations; implementations must fill every entry.
    /// Entries may be non-finite to signal an invalid region — callers
    /// treat that exactly like a non-finite finite-difference probe.
    fn jacobian_into(&self, params: &[f64], out: &mut Matrix) -> Option<()> {
        let _ = (params, out);
        None
    }
}

/// A [`LeastSquares`] problem defined by closures, for quick construction
/// in examples and tests.
///
/// # Examples
///
/// ```
/// use resilience_optim::problem::{ClosureLeastSquares, LeastSquares};
/// let ts = vec![0.0, 1.0, 2.0];
/// let ys = vec![1.0, 0.5, 0.25];
/// let p = ClosureLeastSquares::new(1, ts.len(), move |params, out| {
///     for (i, (&t, &y)) in ts.iter().zip(&ys).enumerate() {
///         out[i] = y - (-params[0] * t).exp();
///     }
/// });
/// assert_eq!(p.n_params(), 1);
/// assert!(p.sse(&[std::f64::consts::LN_2]) < 1e-4);
/// ```
pub struct ClosureLeastSquares<F> {
    n_params: usize,
    n_residuals: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> ClosureLeastSquares<F> {
    /// Wraps a residual closure.
    pub fn new(n_params: usize, n_residuals: usize, f: F) -> Self {
        ClosureLeastSquares {
            n_params,
            n_residuals,
            f,
        }
    }
}

impl<F: Fn(&[f64], &mut [f64])> LeastSquares for ClosureLeastSquares<F> {
    fn n_params(&self) -> usize {
        self.n_params
    }

    fn n_residuals(&self) -> usize {
        self.n_residuals
    }

    fn residuals(&self, params: &[f64], out: &mut [f64]) {
        (self.f)(params, out);
    }
}

/// Forward-difference Jacobian of a least-squares problem: `J[i][j] =
/// ∂r_i/∂θ_j`.
///
/// Uses forward differences (one extra residual evaluation per parameter)
/// because LM re-evaluates the Jacobian every iteration and the fits here
/// are cheap but numerous.
///
/// # Errors
///
/// Returns [`OptimError::BadStartingPoint`] when residuals are non-finite
/// at the base point or a probe point.
pub fn forward_jacobian<P: LeastSquares + ?Sized>(
    problem: &P,
    params: &[f64],
) -> Result<Matrix, OptimError> {
    let m = problem.n_residuals();
    let n = problem.n_params();
    let mut base = vec![0.0; m];
    problem.residuals(params, &mut base);
    if base.iter().any(|v| !v.is_finite()) {
        return Err(OptimError::BadStartingPoint { value: f64::NAN });
    }
    let eps = f64::EPSILON.sqrt();
    let mut jac = Matrix::zeros(m, n);
    let mut probe_params = params.to_vec();
    let mut probe = vec![0.0; m];
    for j in 0..n {
        let h = eps * (1.0 + params[j].abs());
        probe_params[j] = params[j] + h;
        problem.residuals(&probe_params, &mut probe);
        probe_params[j] = params[j];
        if probe.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::BadStartingPoint { value: f64::NAN });
        }
        for i in 0..m {
            jac[(i, j)] = (probe[i] - base[i]) / h;
        }
    }
    Ok(jac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_problem_dimensions() {
        let p = ClosureLeastSquares::new(2, 3, |_, out| out.fill(1.0));
        assert_eq!(p.n_params(), 2);
        assert_eq!(p.n_residuals(), 3);
        assert_eq!(p.sse(&[0.0, 0.0]), 3.0);
    }

    #[test]
    fn jacobian_of_linear_residuals_is_design_matrix() {
        // r_i = y_i − (a + b·t_i) ⇒ ∂r/∂a = −1, ∂r/∂b = −t_i.
        let ts = [0.0, 1.0, 2.0];
        let p = ClosureLeastSquares::new(2, 3, move |params, out| {
            for (i, &t) in ts.iter().enumerate() {
                out[i] = 5.0 - (params[0] + params[1] * t);
            }
        });
        let j = forward_jacobian(&p, &[0.0, 0.0]).unwrap();
        for i in 0..3 {
            assert!((j[(i, 0)] + 1.0).abs() < 1e-6);
            assert!((j[(i, 1)] + ts[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn jacobian_rejects_invalid_region() {
        let p = ClosureLeastSquares::new(1, 1, |params, out| {
            out[0] = if params[0] < 0.0 { f64::NAN } else { params[0] };
        });
        assert!(forward_jacobian(&p, &[-1.0]).is_err());
        assert!(forward_jacobian(&p, &[1.0]).is_ok());
    }

    #[test]
    fn sse_default_impl() {
        let p = ClosureLeastSquares::new(1, 2, |params, out| {
            out[0] = params[0];
            out[1] = 2.0 * params[0];
        });
        assert_eq!(p.sse(&[3.0]), 9.0 + 36.0);
    }
}
