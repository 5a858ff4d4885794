//! Numerical foundations for the `predictive-resilience` workspace.
//!
//! This crate is a small, dependency-free numerics toolbox written from
//! scratch for the reproduction of *Predictive Resilience Modeling*
//! (Silva et al., RWS 2022). It provides exactly the machinery the higher
//! layers need:
//!
//! * [`special`] — the error function family (`erf`, `erfc`, `inv_erf`)
//!   behind the normal distribution in `resilience-stats`.
//! * [`quad`] — adaptive Simpson quadrature for the interval-based
//!   resilience metrics of curves without a closed-form area.
//! * [`roots`] — Brent root finding for the inverse error function and
//!   recovery-time solving.
//! * [`poly`] — polynomial evaluation and the quadratic root formula used
//!   by the quadratic bathtub model.
//! * [`linalg`] — small dense matrices with the LU solver used by the
//!   Levenberg–Marquardt optimizer in `resilience-optim`.
//! * [`sum`] — compensated (TwoSum) summation used to keep
//!   goodness-of-fit accumulations stable.
//! * [`interp`] — piecewise-linear interpolation over sampled curves.
//!
//! # Examples
//!
//! ```
//! use resilience_math::quad::adaptive_simpson;
//!
//! // ∫₀^π sin t dt = 2
//! let area = adaptive_simpson(f64::sin, 0.0, std::f64::consts::PI, 1e-12, 30)?;
//! assert!((area - 2.0).abs() < 1e-10);
//! # Ok::<(), resilience_math::MathError>(())
//! ```

// `!(x > 0.0)`-style comparisons are used deliberately throughout this
// crate: unlike `x <= 0.0`, they also reject NaN, which is exactly the
// validation semantics parameter checks need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod interp;
pub mod linalg;
pub mod poly;
pub mod quad;
pub mod roots;
pub mod special;
pub mod sum;

pub use error::MathError;

/// Returns `true` when two floats agree to within `abs_tol` or `rel_tol`
/// (whichever is looser), treating NaN as never close.
///
/// This is the comparison helper used throughout the workspace's tests.
///
/// # Examples
///
/// ```
/// use resilience_math::approx_eq;
/// assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12, 1e-12));
/// assert!(!approx_eq(1.0, 1.1, 1e-12, 1e-12));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, abs_tol: f64, rel_tol: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a == b {
        return true;
    }
    if a.is_infinite() || b.is_infinite() {
        return false;
    }
    let diff = (a - b).abs();
    diff <= abs_tol || diff <= rel_tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_exact() {
        assert!(approx_eq(1.5, 1.5, 0.0, 0.0));
    }

    #[test]
    fn approx_eq_abs_tolerance() {
        assert!(approx_eq(0.0, 1e-13, 1e-12, 0.0));
    }

    #[test]
    fn approx_eq_rel_tolerance() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 0.0, 1e-11));
    }

    #[test]
    fn approx_eq_rejects_nan() {
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0, 1.0));
        assert!(!approx_eq(1.0, f64::NAN, 1.0, 1.0));
    }

    #[test]
    fn approx_eq_infinities() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0, 0.0));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1e300, 1.0));
    }
}
