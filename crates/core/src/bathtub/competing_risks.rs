//! The competing-risks bathtub model (paper Eq. 4–6).

use crate::model::{ModelFamily, ResilienceModel, Sign};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;

/// Competing-risks resilience curve `P(t) = 2γt + α/(1 + βt)` with
/// `α, β, γ > 0` — the Hjorth (1980) bathtub hazard adopted by the
/// paper's Eq. 4.
///
/// The decreasing Pareto-like term `α/(1+βt)` models degradation easing
/// off while the linear term `2γt` models recovery taking over; the sum
/// can express increasing, decreasing, near-constant, and bathtub shapes,
/// which is why the paper finds it the more flexible of its two bathtub
/// forms.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::CompetingRisksModel;
/// use resilience_core::ResilienceModel;
///
/// let m = CompetingRisksModel::new(1.0, 0.2, 0.005)?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);   // P(0) = α
/// assert!(m.is_bathtub());
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompetingRisksModel {
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl CompetingRisksModel {
    /// Creates a competing-risks model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless all three
    /// parameters are finite and positive.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Result<Self, CoreError> {
        for (name, v) in [("α", alpha), ("β", beta), ("γ", gamma)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CoreError::params(
                    "CompetingRisks",
                    format!("need {name} > 0 and finite, got {v}"),
                ));
            }
        }
        Ok(CompetingRisksModel { alpha, beta, gamma })
    }

    /// The initial level `α = P(0)`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The degradation decay rate `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Half the recovery slope `γ` (the linear term is `2γt`).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Whether the curve is bathtub-shaped (initially decreasing):
    /// `P'(0) = 2γ − αβ < 0`.
    #[must_use]
    pub fn is_bathtub(&self) -> bool {
        2.0 * self.gamma < self.alpha * self.beta
    }

    /// Closed-form trough location: `P'(t) = 2γ − αβ/(1+βt)² = 0` gives
    /// `t_d = (√(αβ/(2γ)) − 1)/β`, or 0 when the curve is monotone
    /// increasing.
    #[must_use]
    pub fn trough(&self) -> f64 {
        if !self.is_bathtub() {
            return 0.0;
        }
        ((self.alpha * self.beta / (2.0 * self.gamma)).sqrt() - 1.0) / self.beta
    }

    /// Minimum performance `P(t_d)`.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        self.predict_inner(self.trough())
    }

    /// Closed-form recovery time (paper Eq. 5): the post-trough time at
    /// which `P(t) = level`, i.e. the larger root of
    /// `2βγ·t² + (2γ − level·β)·t + (α − level) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSolution`] when `level` is below the curve
    /// minimum.
    pub fn recovery_time(&self, level: f64) -> Result<f64, CoreError> {
        let (a, b, g) = (self.alpha, self.beta, self.gamma);
        // Discriminant of the quadratic above — identical to Eq. 5's
        // β²L² + 4βγL − 8αβγ + 4γ².
        let disc = b * b * level * level + 4.0 * b * g * level - 8.0 * a * b * g + 4.0 * g * g;
        if disc < 0.0 {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::recovery_time",
                format!(
                    "level {level} is below the curve minimum {}",
                    self.minimum()
                ),
            ));
        }
        let t = (level * b - 2.0 * g + disc.sqrt()) / (4.0 * b * g);
        if t < 0.0 {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::recovery_time",
                format!("recovery root {t} is negative"),
            ));
        }
        Ok(t)
    }

    fn predict_inner(&self, t: f64) -> f64 {
        2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t)
    }

    /// Allocation-free mirror of the `new` constraints, used by the
    /// fitting hot path.
    fn feasible(alpha: f64, beta: f64, gamma: f64) -> bool {
        alpha > 0.0
            && alpha.is_finite()
            && beta > 0.0
            && beta.is_finite()
            && gamma > 0.0
            && gamma.is_finite()
    }

    /// Antiderivative (paper Eq. 6): `γt² + (α/β)·ln(1+βt)`.
    fn antiderivative(&self, t: f64) -> f64 {
        self.gamma * t * t + (self.alpha / self.beta) * (1.0 + self.beta * t).ln()
    }
}

impl ResilienceModel for CompetingRisksModel {
    fn name(&self) -> &'static str {
        "Competing Risks"
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta, self.gamma]
    }

    fn predict(&self, t: f64) -> f64 {
        self.predict_inner(t)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = 2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t);
        }
    }

    /// Closed-form area (paper Eq. 6) between the endpoints.
    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() {
            return Err(CoreError::arg(
                "CompetingRisksModel::area",
                format!("need finite a <= b, got [{a}, {b}]"),
            ));
        }
        if 1.0 + self.beta * a <= 0.0 {
            return Err(CoreError::arg(
                "CompetingRisksModel::area",
                format!("lower endpoint {a} is outside the model domain t > −1/β"),
            ));
        }
        Ok(self.antiderivative(b) - self.antiderivative(a))
    }

    fn trough_time(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a < b) {
            return Err(CoreError::arg(
                "CompetingRisksModel::trough_time",
                format!("need a < b, got [{a}, {b}]"),
            ));
        }
        Ok(self.trough().clamp(a, b))
    }

    fn time_to_recover(&self, level: f64, from: f64, horizon: f64) -> Result<f64, CoreError> {
        let t = self.recovery_time(level)?;
        if t < from {
            return Ok(from);
        }
        if t > horizon {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::time_to_recover",
                format!("recovery at t = {t} is beyond horizon {horizon}"),
            ));
        }
        Ok(t)
    }
}

/// The [`ModelFamily`] for [`CompetingRisksModel`].
///
/// Internal parameterization: `[ln α, ln β, ln γ]` (all-positive region).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompetingRisksFamily;

impl ModelFamily for CompetingRisksFamily {
    fn name(&self) -> &'static str {
        "Competing Risks"
    }

    fn n_params(&self) -> usize {
        3
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            3,
            "CompetingRisksFamily expects 3 internal params"
        );
        assert_eq!(
            out.len(),
            3,
            "CompetingRisksFamily writes 3 external params"
        );
        for (o, v) in out.iter_mut().zip(internal) {
            *o = v.exp();
        }
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if params.len() != 3 || !CompetingRisksModel::feasible(params[0], params[1], params[2]) {
            return false;
        }
        let model = CompetingRisksModel {
            alpha: params[0],
            beta: params[1],
            gamma: params[2],
        };
        model.predict_into(ts, out);
        true
    }

    /// Hand-derived partials through the all-log internal map
    /// `θ_j = e^{u_j}` (so `∂θ_j/∂u_j = θ_j`):
    ///
    /// * `∂P/∂u₀ = α/(1+βt)`
    /// * `∂P/∂u₁ = −αβt/(1+βt)²`
    /// * `∂P/∂u₂ = 2γt`
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        if internal.len() != 3
            || params.len() != 3
            || !CompetingRisksModel::feasible(params[0], params[1], params[2])
        {
            return false;
        }
        let (alpha, beta, gamma) = (params[0], params[1], params[2]);
        let two_gamma = 2.0 * gamma;
        for (i, &t) in ts.iter().enumerate() {
            let denom = 1.0 + beta * t;
            out[(i, 0)] = alpha / denom;
            out[(i, 1)] = -alpha * beta * t / (denom * denom);
            out[(i, 2)] = two_gamma * t;
        }
        true
    }

    /// `α` and `γ` are linear and positive: `P(t) = α·1/(1+βt) + γ·2t`.
    /// The search moves over `ln β` alone.
    fn linear_coefficients(&self) -> &'static [Sign] {
        &[Sign::Positive, Sign::Positive]
    }

    /// At `nonlinear = [ln β]`: the columns `1/(1+βt)` and `2t`, and a
    /// zero offset.
    fn linear_design_into(
        &self,
        nonlinear: &[f64],
        ts: &[f64],
        ln_ts: &[f64],
        offset: &mut [f64],
        columns: &mut [f64],
    ) -> bool {
        let n = ts.len();
        let &[ln_beta] = nonlinear else {
            return false;
        };
        let beta = ln_beta.exp();
        if !(beta > 0.0 && beta.is_finite())
            || ln_ts.len() != n
            || offset.len() != n
            || columns.len() != 2 * n
        {
            return false;
        }
        offset.fill(0.0);
        let (decay, recovery) = columns.split_at_mut(n);
        for ((d, r), &t) in decay.iter_mut().zip(recovery).zip(ts) {
            *d = 1.0 / (1.0 + beta * t);
            *r = 2.0 * t;
        }
        true
    }

    /// `[ln β]`, the middle internal coordinate.
    fn nonlinear_coordinates(&self, internal: &[f64]) -> Vec<f64> {
        internal.get(1).map(|&u| vec![u]).unwrap_or_default()
    }

    /// `[ln α, ln β, ln γ]`, with `ln β` copied as is.
    fn join_linear(&self, nonlinear: &[f64], coefficients: &[f64]) -> Option<Vec<f64>> {
        match (nonlinear, coefficients) {
            (&[ln_beta], &[alpha, gamma]) => Some(vec![alpha.ln(), ln_beta, gamma.ln()]),
            _ => None,
        }
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("CompetingRisks", "expected 3 parameters"));
        }
        CompetingRisksModel::new(params[0], params[1], params[2])?;
        Ok(params.iter().map(|v| v.ln()).collect())
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("CompetingRisks", "expected 3 parameters"));
        }
        Ok(Box::new(CompetingRisksModel::new(
            params[0], params[1], params[2],
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let nominal = series.nominal().max(1e-6);
        let t_end = series.times()[series.len() - 1].max(1.0);
        let mut guesses = Vec::new();
        if let Some((t_d, p_d)) = series.trough() {
            // Recovery slope from trough to the end of the data.
            let end_val = series.values()[series.len() - 1];
            let slope = ((end_val - p_d) / (t_end - t_d).max(1.0)).max(1e-6);
            let gamma = 0.5 * slope;
            // β from the trough equation (1+βt_d)² = αβ/(2γ), solved on a
            // coarse grid (closed form is messy; the optimizer refines).
            for beta in [0.02, 0.05, 0.1, 0.2, 0.5, 1.0] {
                guesses.push(vec![nominal, beta, gamma.max(1e-8)]);
            }
        }
        // Generic fallbacks spanning decay scales.
        guesses.push(vec![nominal, 0.1, 0.1 * nominal / t_end]);
        guesses.push(vec![nominal, 1.0, 0.01 * nominal / t_end]);
        guesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CompetingRisksModel {
        // Bathtub: αβ = 0.2 > 2γ = 0.01.
        CompetingRisksModel::new(1.0, 0.2, 0.005).unwrap()
    }

    #[test]
    fn constructor_requires_positive_parameters() {
        assert!(CompetingRisksModel::new(0.0, 0.1, 0.1).is_err());
        assert!(CompetingRisksModel::new(1.0, -0.1, 0.1).is_err());
        assert!(CompetingRisksModel::new(1.0, 0.1, 0.0).is_err());
        assert!(CompetingRisksModel::new(f64::NAN, 0.1, 0.1).is_err());
    }

    #[test]
    fn predict_form() {
        let m = model();
        for &t in &[0.0, 1.0, 10.0, 47.0] {
            let want = 2.0 * 0.005 * t + 1.0 / (1.0 + 0.2 * t);
            assert!((m.predict(t) - want).abs() < 1e-15);
        }
        assert_eq!(m.predict(0.0), 1.0);
    }

    #[test]
    fn bathtub_detection_and_trough() {
        let m = model();
        assert!(m.is_bathtub());
        // t_d = (√(αβ/2γ) − 1)/β = (√20 − 1)/0.2.
        let want = (20f64.sqrt() - 1.0) / 0.2;
        assert!((m.trough() - want).abs() < 1e-10);
        // Verify it's a genuine minimum.
        let td = m.trough();
        assert!(m.predict(td) < m.predict(td - 1.0));
        assert!(m.predict(td) < m.predict(td + 1.0));
        // Monotone case: 2γ >= αβ.
        let mono = CompetingRisksModel::new(1.0, 0.01, 0.1).unwrap();
        assert!(!mono.is_bathtub());
        assert_eq!(mono.trough(), 0.0);
    }

    #[test]
    fn recovery_time_closed_form_eq5() {
        let m = model();
        let level = 0.9;
        let t = m.recovery_time(level).unwrap();
        assert!(t > m.trough(), "recovery is after the trough");
        assert!(
            (m.predict(t) - level).abs() < 1e-10,
            "P({t}) = {}",
            m.predict(t)
        );
        // Unreachable level.
        assert!(m.recovery_time(0.1).is_err());
    }

    #[test]
    fn area_closed_form_eq6_matches_quadrature() {
        let m = model();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-12, 40)
                .unwrap();
        assert!((analytic - numeric).abs() < 1e-8);
        assert!(m.area(5.0, 1.0).is_err());
    }

    #[test]
    fn time_to_recover_window_logic() {
        let m = model();
        let t = m.recovery_time(0.95).unwrap();
        assert!((m.time_to_recover(0.95, 0.0, 100.0).unwrap() - t).abs() < 1e-12);
        assert_eq!(m.time_to_recover(0.95, t + 5.0, 100.0).unwrap(), t + 5.0);
        assert!(m.time_to_recover(0.95, 0.0, t - 1.0).is_err());
    }

    #[test]
    fn family_roundtrip() {
        let fam = CompetingRisksFamily;
        let params = vec![1.03, 0.17, 0.0042];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(fam.params_to_internal(&[1.0, -0.1, 0.1]).is_err());
    }

    #[test]
    fn family_internal_always_feasible() {
        let fam = CompetingRisksFamily;
        for &a in &[-10.0, 0.0, 5.0] {
            let p = fam.internal_to_params(&[a, -a, a / 2.0]);
            assert!(CompetingRisksModel::new(p[0], p[1], p[2]).is_ok());
        }
    }

    #[test]
    fn initial_guesses_feasible() {
        let s = resilience_data::recessions::Recession::R1990_93.payroll_index();
        let fam = CompetingRisksFamily;
        let guesses = fam.initial_guesses(&s);
        assert!(guesses.len() >= 3);
        for g in &guesses {
            assert!(
                CompetingRisksModel::new(g[0], g[1], g[2]).is_ok(),
                "infeasible guess {g:?}"
            );
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = CompetingRisksFamily;
        let internal = [0.01_f64, -1.6, -5.3];
        let mut params = [0.0; 3];
        fam.internal_to_params_into(&internal, &mut params);

        let ts = [0.0, 3.0, 11.0, 40.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        assert!(!fam.predict_params_into(&[1.0, -0.1, 0.1], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.0, 0.1], &ts, &mut out));
    }

    #[test]
    fn name_and_params() {
        let m = model();
        assert_eq!(m.name(), "Competing Risks");
        assert_eq!(m.params(), vec![1.0, 0.2, 0.005]);
    }
}
