//! Mixture component distributions.

use crate::CoreError;
use resilience_stats::{Exponential, Weibull};

/// Which distribution family a mixture component uses: the paper's
/// Exponential and Weibull (its Eq. 23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// Exponential(rate) — 1 parameter.
    Exponential,
    /// Weibull(shape, scale) — 2 parameters.
    Weibull,
}

impl ComponentKind {
    /// Number of parameters for this component.
    #[must_use]
    pub fn n_params(&self) -> usize {
        match self {
            ComponentKind::Exponential => 1,
            ComponentKind::Weibull => 2,
        }
    }

    /// Short label used in the paper's tables (`Exp`, `Wei`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ComponentKind::Exponential => "Exp",
            ComponentKind::Weibull => "Wei",
        }
    }

    /// Builds the concrete component from its parameter slice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for the wrong parameter
    /// count or infeasible values.
    pub fn build(&self, params: &[f64]) -> Result<BuiltComponent, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "MixtureComponent",
                format!(
                    "{} takes {} parameters, got {}",
                    self.label(),
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        // The distribution constructors own the feasibility rules.
        let law = match self {
            ComponentKind::Exponential => Law::exponential(Exponential::new(params[0])?),
            ComponentKind::Weibull => Law::weibull(Weibull::new(params[0], params[1])?),
        };
        Ok(BuiltComponent(law))
    }

    /// Allocation-free variant of [`ComponentKind::build`] for the
    /// fitting hot path: returns `None` instead of constructing an error
    /// for the wrong parameter count or infeasible values.
    #[must_use]
    pub fn try_build(&self, params: &[f64]) -> Option<BuiltComponent> {
        if params.len() != self.n_params() {
            return None;
        }
        // The distribution constructors carry static-str errors, so even
        // the failure path here allocates nothing.
        let law = match self {
            ComponentKind::Exponential => Law::exponential(Exponential::new(params[0]).ok()?),
            ComponentKind::Weibull => Law::weibull(Weibull::new(params[0], params[1]).ok()?),
        };
        Some(BuiltComponent(law))
    }

    /// Data-driven candidate parameter sets for a component expected to
    /// transition around time `t_scale`.
    #[must_use]
    pub fn candidate_params(&self, t_scale: f64) -> Vec<Vec<f64>> {
        let t = t_scale.max(1.0);
        match self {
            ComponentKind::Exponential => vec![vec![1.0 / t], vec![2.0 / t], vec![0.5 / t]],
            ComponentKind::Weibull => vec![vec![1.5, t], vec![2.5, t], vec![1.0, 2.0 * t]],
        }
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A constructed mixture component, evaluated in the log domain through
/// its cumulative hazard `z(t)`: survival `e^{−z}`, CDF `−expm1(−z)`, and
/// `z = 0` on `t ≤ 0` (DESIGN.md §11).
///
/// Every evaluator takes `ln t` next to `t`: a mixture computes it once
/// per time point and shares it between both components and the
/// `β·ln t` trend. No evaluation calls `powf`; the `powf` forms of
/// [`resilience_stats::Weibull`] and [`resilience_stats::Exponential`]
/// stay the reference the kernel is tested against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuiltComponent(Law);

/// The per-parameter-point invariants of one component.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Law {
    /// `z = rate·t`.
    Exponential { rate: f64 },
    /// `z = exp(k·ln t − k·ln λ)`, with `ln λ` and `k·ln λ` computed once
    /// at build time.
    Weibull {
        shape: f64,
        scale: f64,
        ln_scale: f64,
        shape_ln_scale: f64,
    },
}

impl Law {
    fn exponential(d: Exponential) -> Law {
        Law::Exponential { rate: d.rate() }
    }

    fn weibull(d: Weibull) -> Law {
        let (shape, scale) = (d.shape(), d.scale());
        let ln_scale = scale.ln();
        Law::Weibull {
            shape,
            scale,
            ln_scale,
            shape_ln_scale: shape * ln_scale,
        }
    }
}

impl BuiltComponent {
    /// Cumulative hazard `z(t)` given `ln_t = ln t`; 0 for `t ≤ 0`.
    #[inline]
    fn hazard(&self, t: f64, ln_t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match self.0 {
            Law::Exponential { rate } => rate * t,
            Law::Weibull {
                shape,
                shape_ln_scale,
                ..
            } => (shape * ln_t - shape_ln_scale).exp(),
        }
    }

    /// CDF at `t`, given `ln_t = ln t` (any value when `t ≤ 0`).
    #[inline]
    pub(crate) fn cdf_at(&self, t: f64, ln_t: f64) -> f64 {
        cdf_from_hazard(self.hazard(t, ln_t))
    }

    /// Survival at `t`, given `ln_t = ln t` (any value when `t ≤ 0`).
    #[inline]
    pub(crate) fn survival_at(&self, t: f64, ln_t: f64) -> f64 {
        (-self.hazard(t, ln_t)).exp()
    }

    /// CDF at `t`.
    #[must_use]
    pub fn cdf(&self, t: f64) -> f64 {
        self.cdf_at(t, t.ln())
    }

    /// Survival at `t`.
    #[must_use]
    pub fn survival(&self, t: f64) -> f64 {
        self.survival_at(t, t.ln())
    }

    /// Partials of the CDF with respect to the component's *external*
    /// parameters at `t`, given `ln_t = ln t`, written into
    /// `out[..n_params]`. Returns the cumulative hazard `z(t)` it used, so
    /// the caller forms `F(t)` with [`cdf_from_hazard`] instead of
    /// evaluating it again.
    ///
    /// Closed forms:
    ///
    /// * Exponential(λ): `F = 1 − e^{−λt}` on `t ≥ 0`, so
    ///   `∂F/∂λ = t·e^{−λt}` (0 for `t < 0`).
    /// * Weibull(k, λ): `F = 1 − e^{−z}` with `z = (t/λ)^k` on `t > 0`,
    ///   so `∂F/∂k = e^{−z}·z·(ln t − ln λ)` and `∂F/∂λ = −e^{−z}·k·z/λ`
    ///   (both 0 for `t ≤ 0`, guarding the `0·(−∞)` NaN at `t = 0`).
    pub(crate) fn cdf_gradient(&self, t: f64, ln_t: f64, out: &mut [f64]) -> f64 {
        let z = self.hazard(t, ln_t);
        let damp = (-z).exp();
        match self.0 {
            Law::Exponential { .. } => {
                out[0] = if t >= 0.0 { t * damp } else { 0.0 };
            }
            Law::Weibull {
                shape,
                scale,
                ln_scale,
                ..
            } => {
                if t > 0.0 {
                    out[0] = damp * z * (ln_t - ln_scale);
                    out[1] = -damp * shape * z / scale;
                } else {
                    out[0] = 0.0;
                    out[1] = 0.0;
                }
            }
        }
        z
    }
}

/// `F = 1 − e^{−z}` from the cumulative hazard `z`, without cancellation
/// for small `z`.
#[inline]
pub(crate) fn cdf_from_hazard(z: f64) -> f64 {
    -(-z).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts() {
        assert_eq!(ComponentKind::Exponential.n_params(), 1);
        assert_eq!(ComponentKind::Weibull.n_params(), 2);
    }

    #[test]
    fn build_validates_count_and_values() {
        assert!(ComponentKind::Exponential.build(&[1.0, 2.0]).is_err());
        assert!(ComponentKind::Exponential.build(&[-1.0]).is_err());
        assert!(ComponentKind::Weibull.build(&[1.0]).is_err());
        assert!(ComponentKind::Weibull.build(&[2.0, 3.0]).is_ok());
    }

    #[test]
    fn built_cdf_dispatch() {
        let e = ComponentKind::Exponential.build(&[0.5]).unwrap();
        assert!((e.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        let w = ComponentKind::Weibull.build(&[2.0, 5.0]).unwrap();
        assert!((w.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        assert!((e.survival(2.0) + e.cdf(2.0) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn try_build_agrees_with_build() {
        for kind in [ComponentKind::Exponential, ComponentKind::Weibull] {
            for params in kind.candidate_params(8.0) {
                assert_eq!(kind.try_build(&params), Some(kind.build(&params).unwrap()));
            }
        }
        assert_eq!(ComponentKind::Exponential.try_build(&[1.0, 2.0]), None);
        assert_eq!(ComponentKind::Exponential.try_build(&[-1.0]), None);
        assert_eq!(ComponentKind::Weibull.try_build(&[f64::NAN, 1.0]), None);
    }

    #[test]
    fn candidates_are_buildable() {
        for kind in [ComponentKind::Exponential, ComponentKind::Weibull] {
            for params in kind.candidate_params(12.0) {
                assert!(kind.build(&params).is_ok(), "{kind}: {params:?}");
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ComponentKind::Exponential.label(), "Exp");
        assert_eq!(ComponentKind::Weibull.label(), "Wei");
    }
}
