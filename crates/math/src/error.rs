//! Error type shared by the numerical routines in this crate.

use std::fmt;

/// Errors produced by the numerical routines in `resilience-math`.
///
/// Every fallible public function in this crate returns
/// `Result<_, MathError>`. The variants carry enough context to diagnose
/// which precondition failed without capturing large payloads.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MathError {
    /// An argument was outside the mathematical domain of the function
    /// (e.g. `inv_erf(1.5)`, a negative variance, an empty interval).
    Domain {
        /// Name of the offending routine.
        what: &'static str,
        /// Human-readable description of the violated precondition.
        detail: String,
    },
    /// An iterative method exhausted its iteration budget before reaching
    /// the requested tolerance.
    NoConvergence {
        /// Name of the offending routine.
        what: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Best error estimate at the time of failure, if meaningful.
        last_error: f64,
    },
    /// A root-bracketing method was given an interval whose endpoints do
    /// not bracket a sign change.
    NoBracket {
        /// Name of the offending routine.
        what: &'static str,
        /// Function value at the lower endpoint.
        f_lo: f64,
        /// Function value at the upper endpoint.
        f_hi: f64,
    },
    /// A linear system was singular (or numerically indistinguishable from
    /// singular) and could not be solved.
    Singular {
        /// Name of the offending routine.
        what: &'static str,
        /// Size of the system.
        n: usize,
    },
    /// A function evaluation produced a NaN or infinity where a finite
    /// value was required.
    NonFinite {
        /// Name of the offending routine.
        what: &'static str,
        /// The point at which the non-finite value was observed.
        at: f64,
    },
    /// Dimension mismatch between inputs (e.g. matrix shapes).
    Shape {
        /// Name of the offending routine.
        what: &'static str,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::Domain { what, detail } => {
                write!(f, "{what}: domain error: {detail}")
            }
            MathError::NoConvergence {
                what,
                iterations,
                last_error,
            } => write!(
                f,
                "{what}: failed to converge after {iterations} iterations (last error {last_error:e})"
            ),
            MathError::NoBracket { what, f_lo, f_hi } => write!(
                f,
                "{what}: interval does not bracket a root (f(lo) = {f_lo:e}, f(hi) = {f_hi:e})"
            ),
            MathError::Singular { what, n } => {
                write!(f, "{what}: {n}x{n} system is singular")
            }
            MathError::NonFinite { what, at } => {
                write!(f, "{what}: non-finite function value at t = {at}")
            }
            MathError::Shape { what, detail } => {
                write!(f, "{what}: shape mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for MathError {}

impl MathError {
    /// Convenience constructor for [`MathError::Domain`].
    pub fn domain(what: &'static str, detail: impl Into<String>) -> Self {
        MathError::Domain {
            what,
            detail: detail.into(),
        }
    }

    /// Convenience constructor for [`MathError::Shape`].
    pub fn shape(what: &'static str, detail: impl Into<String>) -> Self {
        MathError::Shape {
            what,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_domain() {
        let e = MathError::domain("ln_gamma", "x must be positive");
        assert_eq!(e.to_string(), "ln_gamma: domain error: x must be positive");
    }

    #[test]
    fn display_no_convergence() {
        let e = MathError::NoConvergence {
            what: "brent",
            iterations: 100,
            last_error: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("brent"));
        assert!(s.contains("100"));
    }

    #[test]
    fn display_no_bracket() {
        let e = MathError::NoBracket {
            what: "bisection",
            f_lo: 1.0,
            f_hi: 2.0,
        };
        assert!(e.to_string().contains("does not bracket"));
    }

    #[test]
    fn display_singular() {
        let e = MathError::Singular { what: "lu", n: 3 };
        assert_eq!(e.to_string(), "lu: 3x3 system is singular");
    }

    #[test]
    fn display_non_finite() {
        let e = MathError::NonFinite {
            what: "simpson",
            at: 0.5,
        };
        assert!(e.to_string().contains("non-finite"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MathError::domain("f", "bad"));
        assert!(e.to_string().contains("bad"));
    }
}
