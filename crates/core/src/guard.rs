//! Domain guards: finite-in/finite-out checks at the pipeline's
//! boundaries.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn violation_labels_unique() {
        assert_ne!(
            Violation::NonFiniteInput.label(),
            Violation::NonFiniteOutput.label()
        );
    }
}
