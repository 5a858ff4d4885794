//! Domain guards: finite-in/finite-out checks for every model
//! evaluation and pipeline boundary.
//!
//! The optimizer explores the internal parameter space freely, and an
//! off-domain point can turn a prediction, an SSE, or a metric into NaN
//! or ±∞. IEEE semantics then propagate that NaN silently through every
//! downstream computation. This module stops the propagation at the
//! boundaries: each guard converts a non-finite value into a structured
//! [`CoreError::Numerical`] naming the routine and the kind of
//! [`Violation`], so callers see a typed error instead of garbage.
//!
//! Guards sit at **per-fit and per-call boundaries**, never inside the
//! SSE objective or the Nelder–Mead iteration loop — the hot path keeps
//! its zero-allocation contract (DESIGN.md §7) because the success path
//! of every guard allocates nothing; only the (cold) error path formats
//! a message. The policy is documented in DESIGN.md §8.
//!
//! # Examples
//!
//! ```
//! use resilience_core::guard;
//!
//! assert_eq!(guard::finite_input("demo", 1.5)?, 1.5);
//! assert!(guard::finite_output("demo", f64::NAN).is_err());
//! # Ok::<(), resilience_core::CoreError>(())
//! ```

use crate::model::ResilienceModel;
use crate::CoreError;

/// The kinds of numerical-domain violation the guard layer detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Violation {
    /// An input (time, observation, parameter) was NaN or infinite.
    NonFiniteInput,
    /// A computed result (prediction, SSE, metric) was NaN or infinite.
    NonFiniteOutput,
}

impl Violation {
    /// Short label for error messages.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Violation::NonFiniteInput => "non-finite input",
            Violation::NonFiniteOutput => "non-finite output",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Checks that a scalar input is finite, passing it through unchanged.
///
/// # Errors
///
/// Returns [`CoreError::Numerical`] with [`Violation::NonFiniteInput`]
/// when `value` is NaN or infinite.
pub fn finite_input(what: &'static str, value: f64) -> Result<f64, CoreError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(CoreError::guard(
            what,
            Violation::NonFiniteInput,
            format!("got {value}"),
        ))
    }
}

/// Checks that a computed scalar is finite, passing it through unchanged.
///
/// # Errors
///
/// Returns [`CoreError::Numerical`] with [`Violation::NonFiniteOutput`]
/// when `value` is NaN or infinite.
pub fn finite_output(what: &'static str, value: f64) -> Result<f64, CoreError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(CoreError::guard(
            what,
            Violation::NonFiniteOutput,
            format!("got {value}"),
        ))
    }
}

/// Checks that every element of a computed slice is finite.
///
/// # Errors
///
/// Returns [`CoreError::Numerical`] with [`Violation::NonFiniteOutput`]
/// naming the first offending index.
pub fn finite_outputs(what: &'static str, values: &[f64]) -> Result<(), CoreError> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(CoreError::guard(
            what,
            Violation::NonFiniteOutput,
            format!("element {i} is {}", values[i]),
        )),
    }
}

/// Domain-checked model evaluation: finite time in, finite prediction
/// out.
///
/// # Errors
///
/// Returns [`CoreError::Numerical`] when `t` is non-finite
/// ([`Violation::NonFiniteInput`]) or `P(t)` is non-finite
/// ([`Violation::NonFiniteOutput`]).
pub fn guarded_predict(model: &dyn ResilienceModel, t: f64) -> Result<f64, CoreError> {
    finite_input(model.name(), t)?;
    let p = model.predict(t);
    if p.is_finite() {
        Ok(p)
    } else {
        Err(CoreError::guard(
            model.name(),
            Violation::NonFiniteOutput,
            format!("P({t}) = {p}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::QuadraticModel;

    #[test]
    fn scalar_guards_pass_and_fail() {
        assert_eq!(finite_input("t", 2.0).unwrap(), 2.0);
        assert_eq!(finite_output("t", -3.5).unwrap(), -3.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(finite_input("t", bad).is_err());
            assert!(finite_output("t", bad).is_err());
        }
    }

    #[test]
    fn slice_guards_name_offending_index() {
        assert!(finite_outputs("v", &[1.0, 2.0]).is_ok());
        let e = finite_outputs("v", &[1.0, f64::NAN, 3.0]).unwrap_err();
        assert!(e.to_string().contains("element 1"), "{e}");
        assert!(e.to_string().contains("non-finite output"), "{e}");
    }

    #[test]
    fn guarded_predict_checks_both_directions() {
        let m = QuadraticModel::new(1.0, -0.012, 0.0004).unwrap();
        assert!((guarded_predict(&m, 5.0).unwrap() - m.predict(5.0)).abs() < 1e-15);
        assert!(guarded_predict(&m, f64::NAN).is_err());

        struct NanModel;
        impl ResilienceModel for NanModel {
            fn name(&self) -> &'static str {
                "NanModel"
            }
            fn params(&self) -> Vec<f64> {
                vec![]
            }
            fn predict(&self, _t: f64) -> f64 {
                f64::NAN
            }
        }
        let e = guarded_predict(&NanModel, 1.0).unwrap_err();
        assert!(matches!(
            e,
            CoreError::Numerical {
                violation: Violation::NonFiniteOutput,
                ..
            }
        ));
    }

    #[test]
    fn violation_labels_unique() {
        assert_ne!(
            Violation::NonFiniteInput.label(),
            Violation::NonFiniteOutput.label()
        );
    }
}
