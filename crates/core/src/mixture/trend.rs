//! Recovery trend functions `a₂(t)` for the mixture model.

/// The recovery trend `a₂(t; β)` of the paper's Eq. 7. The paper
/// considers four increasing forms characteristic of economic recovery:
/// `{β, βt, e^{βt}, β·ln t}`, and evaluates `β·ln t` in its Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trend {
    /// `a₂(t) = β` — recovery saturates at a constant level.
    Constant,
    /// `a₂(t) = β·t` — linear growth.
    Linear,
    /// `a₂(t) = e^{βt}` — exponential growth (note: equals 1 at `t = 0`
    /// regardless of β).
    Exponential,
    /// `a₂(t) = β·ln t` (0 for `t ≤ 1`) — the slowly compounding growth
    /// the paper uses for its recession experiments.
    ///
    /// # The `t ≤ 1` convention
    ///
    /// `ln t` is singular at `t → 0⁺` and negative on `(0, 1)`; a raw
    /// `β·ln t` would send the recovery term to −∞ at the hazard onset
    /// and make it *subtract* performance before the first month. The
    /// convention here clamps `a₂` to exactly 0 on `t ≤ 1`. The clamped
    /// form is **continuous at `t = 1`** — both branches evaluate to 0
    /// there (`β·ln 1 = 0`), so the mixture curve `P(t)` has no jump;
    /// only the derivative `a₂′` is discontinuous (0 vs `β/t`), which
    /// the least-squares fitter sees as a flat region, not a cliff. See
    /// DESIGN.md §8.
    Logarithmic,
}

impl Trend {
    /// All four trends in the paper's order.
    pub const ALL: [Trend; 4] = [
        Trend::Constant,
        Trend::Linear,
        Trend::Exponential,
        Trend::Logarithmic,
    ];

    /// Evaluates `a₂(t; β)`.
    ///
    /// The logarithmic trend is defined as 0 for `t ≤ 1` (clamp
    /// convention; see [`Trend::Logarithmic`] and DESIGN.md §8) so the
    /// mixture stays finite at the hazard onset and the value is
    /// continuous — though not differentiable — at `t = 1`.
    #[must_use]
    pub fn eval(&self, beta: f64, t: f64) -> f64 {
        self.eval_at(beta, t, t.ln())
    }

    /// [`Trend::eval`] given `ln_t = ln t`, which the mixture kernel
    /// computes once per time point and shares with its components.
    #[inline]
    pub(crate) fn eval_at(&self, beta: f64, t: f64, ln_t: f64) -> f64 {
        match self {
            Trend::Constant => beta,
            Trend::Linear => beta * t,
            Trend::Exponential => (beta * t).exp(),
            Trend::Logarithmic => {
                if t <= 1.0 {
                    0.0
                } else {
                    beta * ln_t
                }
            }
        }
    }

    /// Partial derivative `∂a₂/∂β` at `(β, t)`, given `ln_t = ln t` —
    /// used by the analytic mixture Jacobian.
    ///
    /// The logarithmic trend's clamp makes `a₂` identically 0 on
    /// `t ≤ 1`, so its β-derivative is 0 there and `ln t` beyond.
    #[inline]
    pub(crate) fn beta_gradient(&self, beta: f64, t: f64, ln_t: f64) -> f64 {
        match self {
            Trend::Constant => 1.0,
            Trend::Linear => t,
            Trend::Exponential => t * (beta * t).exp(),
            Trend::Logarithmic => {
                if t <= 1.0 {
                    0.0
                } else {
                    ln_t
                }
            }
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Trend::Constant => "β",
            Trend::Linear => "βt",
            Trend::Exponential => "e^{βt}",
            Trend::Logarithmic => "β·ln t",
        }
    }
}

impl std::fmt::Display for Trend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_time() {
        assert_eq!(Trend::Constant.eval(0.7, 0.0), 0.7);
        assert_eq!(Trend::Constant.eval(0.7, 100.0), 0.7);
    }

    #[test]
    fn linear_scales_with_time() {
        assert_eq!(Trend::Linear.eval(0.5, 4.0), 2.0);
        assert_eq!(Trend::Linear.eval(0.5, 0.0), 0.0);
    }

    #[test]
    fn exponential_is_one_at_origin() {
        assert_eq!(Trend::Exponential.eval(0.3, 0.0), 1.0);
        assert!((Trend::Exponential.eval(0.1, 10.0) - 1.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn logarithmic_zero_before_one() {
        assert_eq!(Trend::Logarithmic.eval(2.0, 0.0), 0.0);
        assert_eq!(Trend::Logarithmic.eval(2.0, 1.0), 0.0);
        assert!((Trend::Logarithmic.eval(2.0, std::f64::consts::E) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn logarithmic_is_continuous_at_one() {
        // Both branches evaluate to 0 at t = 1; approaching from either
        // side must not jump.
        let beta = 2.0;
        let eps = 1e-9;
        assert_eq!(Trend::Logarithmic.eval(beta, 1.0), 0.0);
        assert_eq!(Trend::Logarithmic.eval(beta, 1.0 - eps), 0.0);
        let above = Trend::Logarithmic.eval(beta, 1.0 + eps);
        assert!(above.abs() < 1e-8, "jump at t = 1⁺: {above}");
    }

    #[test]
    fn all_trends_finite_near_origin() {
        // The raw β·ln t would be −∞ at t = 0; the clamp keeps every
        // trend finite over the whole observation range.
        for trend in Trend::ALL {
            for i in 0..=100 {
                let t = i as f64 * 0.02; // 0.0 ..= 2.0, straddling t = 1
                let v = trend.eval(0.4, t);
                assert!(v.is_finite(), "{trend} at t = {t}: {v}");
            }
        }
    }

    #[test]
    fn all_trends_increasing_for_positive_beta() {
        for trend in Trend::ALL {
            let early = trend.eval(0.4, 2.0);
            let late = trend.eval(0.4, 30.0);
            assert!(late >= early, "{trend} decreased");
        }
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> = Trend::ALL.iter().map(Trend::label).collect();
        assert_eq!(labels.len(), 4);
    }
}
