//! The quadratic bathtub model (paper Eq. 1–3).

use crate::model::{ModelFamily, ResilienceModel, Sign, SSE_BATCH_WIDTH};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::poly::{quadratic_roots, Polynomial};
use resilience_math::sum::CompensatedSum;

/// Quadratic bathtub resilience curve `P(t) = α + βt + γt²`
/// (paper Eq. 1).
///
/// Bathtub-shaped exactly when `α, γ > 0` and `−2√(αγ) < β < 0`; this
/// type enforces those constraints at construction, which is what the
/// paper's Eq. 1 requires for a degradation-then-recovery interpretation.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::QuadraticModel;
/// use resilience_core::ResilienceModel;
///
/// // Trough at t = 10 with value 0.95: α = 1, β = −0.01, γ = 0.0005.
/// let m = QuadraticModel::new(1.0, -0.01, 0.0005)?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
/// assert!((m.trough() - 10.0).abs() < 1e-12);
/// assert!(m.predict(10.0) < 1.0);
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticModel {
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl QuadraticModel {
    /// Creates a quadratic bathtub model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless `α > 0`, `γ > 0`,
    /// and `−2√(αγ) < β < 0` (the bathtub validity region of Eq. 1).
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Result<Self, CoreError> {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(CoreError::params(
                "Quadratic",
                format!("need α > 0, got {alpha}"),
            ));
        }
        if !(gamma > 0.0) || !gamma.is_finite() {
            return Err(CoreError::params(
                "Quadratic",
                format!("need γ > 0, got {gamma}"),
            ));
        }
        let lower = -2.0 * (alpha * gamma).sqrt();
        if !(beta > lower && beta < 0.0) {
            return Err(CoreError::params(
                "Quadratic",
                format!("need −2√(αγ) = {lower} < β < 0, got {beta}"),
            ));
        }
        Ok(QuadraticModel { alpha, beta, gamma })
    }

    /// The intercept `α` (performance at `t = 0`).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The linear coefficient `β` (< 0).
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The quadratic coefficient `γ` (> 0).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Closed-form trough location `t_d = −β/(2γ)`.
    #[must_use]
    pub fn trough(&self) -> f64 {
        -self.beta / (2.0 * self.gamma)
    }

    /// Minimum performance `P(t_d) = α − β²/(4γ)`.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        self.alpha - self.beta * self.beta / (4.0 * self.gamma)
    }

    /// Closed-form recovery time (paper Eq. 2): the post-trough time at
    /// which `P(t) = level`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSolution`] when `level` is below the curve
    /// minimum (never reached).
    pub fn recovery_time(&self, level: f64) -> Result<f64, CoreError> {
        let roots = quadratic_roots(self.gamma, self.beta, self.alpha - level)?;
        let trough = self.trough();
        roots.into_iter().find(|&t| t >= trough).ok_or_else(|| {
            CoreError::no_solution(
                "QuadraticModel::recovery_time",
                format!(
                    "level {level} is below the curve minimum {}",
                    self.minimum()
                ),
            )
        })
    }

    fn polynomial(&self) -> Polynomial {
        Polynomial::new(vec![self.alpha, self.beta, self.gamma])
    }

    /// Allocation-free mirror of the `new` constraints, used by the
    /// fitting hot path (`new` reports the same conditions with
    /// diagnostics, which costs a `String`).
    fn feasible(alpha: f64, beta: f64, gamma: f64) -> bool {
        alpha > 0.0
            && alpha.is_finite()
            && gamma > 0.0
            && gamma.is_finite()
            && beta > -2.0 * (alpha * gamma).sqrt()
            && beta < 0.0
    }
}

impl ResilienceModel for QuadraticModel {
    fn name(&self) -> &'static str {
        "Quadratic"
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta, self.gamma]
    }

    fn predict(&self, t: f64) -> f64 {
        self.alpha + self.beta * t + self.gamma * t * t
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = self.alpha + self.beta * t + self.gamma * t * t;
        }
    }

    /// Closed-form area (paper Eq. 3): `αt + βt²/2 + γt³/3` evaluated
    /// between the endpoints.
    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() {
            return Err(CoreError::arg(
                "QuadraticModel::area",
                format!("need finite a <= b, got [{a}, {b}]"),
            ));
        }
        Ok(self.polynomial().integral(a, b))
    }

    fn trough_time(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a < b) {
            return Err(CoreError::arg(
                "QuadraticModel::trough_time",
                format!("need a < b, got [{a}, {b}]"),
            ));
        }
        Ok(self.trough().clamp(a, b))
    }

    fn time_to_recover(&self, level: f64, from: f64, horizon: f64) -> Result<f64, CoreError> {
        let t = self.recovery_time(level)?;
        if t < from {
            // Already recovered before the window.
            return Ok(from);
        }
        if t > horizon {
            return Err(CoreError::no_solution(
                "QuadraticModel::time_to_recover",
                format!("recovery at t = {t} is beyond horizon {horizon}"),
            ));
        }
        Ok(t)
    }
}

/// The [`ModelFamily`] for [`QuadraticModel`].
///
/// Internal parameterization: `[ln α, logit s, ln γ]` with
/// `β = −2√(αγ)·s`, which maps all of ℝ³ onto the bathtub validity
/// region.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadraticFamily;

impl QuadraticFamily {
    fn external(alpha: f64, s: f64, gamma: f64) -> Vec<f64> {
        let beta = -2.0 * (alpha * gamma).sqrt() * s;
        vec![alpha, beta, gamma]
    }
}

impl ModelFamily for QuadraticFamily {
    fn name(&self) -> &'static str {
        "Quadratic"
    }

    fn n_params(&self) -> usize {
        3
    }

    fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
        assert_eq!(
            internal.len(),
            3,
            "QuadraticFamily expects 3 internal params"
        );
        let alpha = internal[0].exp();
        // Numerically safe logistic clamped strictly inside (0, 1).
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(1e-9, 1.0 - 1e-9);
        let gamma = internal[2].exp();
        QuadraticFamily::external(alpha, s, gamma)
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            3,
            "QuadraticFamily expects 3 internal params"
        );
        assert_eq!(out.len(), 3, "QuadraticFamily writes 3 external params");
        let alpha = internal[0].exp();
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(1e-9, 1.0 - 1e-9);
        let gamma = internal[2].exp();
        out[0] = alpha;
        out[1] = -2.0 * (alpha * gamma).sqrt() * s;
        out[2] = gamma;
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if params.len() != 3 || !QuadraticModel::feasible(params[0], params[1], params[2]) {
            return false;
        }
        let model = QuadraticModel {
            alpha: params[0],
            beta: params[1],
            gamma: params[2],
        };
        model.predict_into(ts, out);
        true
    }

    /// Hand-derived partials through the internal map `α = e^{u₀}`,
    /// `s = σ(u₁)` (clamped), `γ = e^{u₂}`, `β = −2√(αγ)·s`:
    ///
    /// * `∂P/∂u₀ = α + (β/2)·t` — both `α` and `√α` scale with `e^{u₀}`,
    ///   and `∂β/∂u₀ = β/2`.
    /// * `∂P/∂u₁ = −2√(αγ)·s(1−s)·t` — the logistic derivative, zero
    ///   where the clamp is active (the map is flat there).
    /// * `∂P/∂u₂ = (β/2)·t + γt²` — mirror of `u₀` plus the quadratic
    ///   term.
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        if internal.len() != 3
            || params.len() != 3
            || !QuadraticModel::feasible(params[0], params[1], params[2])
        {
            return false;
        }
        let (alpha, beta, gamma) = (params[0], params[1], params[2]);
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(1e-9, 1.0 - 1e-9);
        let ds = if s > 1e-9 && s < 1.0 - 1e-9 {
            s * (1.0 - s)
        } else {
            0.0
        };
        let slope_u1 = -2.0 * (alpha * gamma).sqrt() * ds;
        let half_beta = 0.5 * beta;
        for (i, &t) in ts.iter().enumerate() {
            out[(i, 0)] = alpha + half_beta * t;
            out[(i, 1)] = slope_u1 * t;
            out[(i, 2)] = half_beta * t + gamma * t * t;
        }
        true
    }

    fn sse_batch_into(&self, internals: &[f64], ts: &[f64], ys: &[f64], out: &mut [f64]) -> bool {
        const W: usize = SSE_BATCH_WIDTH;
        assert_eq!(
            internals.len(),
            3 * out.len(),
            "QuadraticFamily::sse_batch_into: internals.len() must be 3 * out.len()"
        );
        assert_eq!(ts.len(), ys.len(), "sse_batch_into: ts/ys length mismatch");
        for (chunk_idx, chunk) in out.chunks_mut(W).enumerate() {
            let base = chunk_idx * W;
            let k = chunk.len();
            // SoA lanes: one stack array per parameter so the t-loop below
            // reads contiguous lanes the autovectorizer can keep in registers.
            let mut alphas = [0.0; W];
            let mut betas = [0.0; W];
            let mut gammas = [0.0; W];
            let mut live = [false; W];
            for i in 0..k {
                let u = &internals[(base + i) * 3..(base + i) * 3 + 3];
                // Identical arithmetic to `internal_to_params_into`.
                let alpha = u[0].exp();
                let s = (1.0 / (1.0 + (-u[1]).exp())).clamp(1e-9, 1.0 - 1e-9);
                let gamma = u[2].exp();
                let beta = -2.0 * (alpha * gamma).sqrt() * s;
                alphas[i] = alpha;
                betas[i] = beta;
                gammas[i] = gamma;
                live[i] = QuadraticModel::feasible(alpha, beta, gamma);
            }
            let mut sums = [CompensatedSum::new(); W];
            let mut finite = [true; W];
            for (&t, &y) in ts.iter().zip(ys) {
                for i in 0..k {
                    // Same association as the scalar `predict_into`.
                    let pred = alphas[i] + betas[i] * t + gammas[i] * t * t;
                    if !pred.is_finite() {
                        finite[i] = false;
                    }
                    let d = y - pred;
                    sums[i].add(d * d);
                }
            }
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = if live[i] && finite[i] {
                    sums[i].value()
                } else {
                    f64::INFINITY
                };
            }
        }
        true
    }

    /// All three parameters are linear (Eq. 1); `α` and `γ` are positive.
    /// No nonlinear coordinate is left, so a fit is one least-squares
    /// solve whenever [`ModelFamily::join_linear`] accepts its optimum.
    fn linear_coefficients(&self) -> &'static [Sign] {
        &[Sign::Positive, Sign::Free, Sign::Positive]
    }

    /// The columns `1, t, t²` and a zero offset.
    fn linear_design_into(
        &self,
        nonlinear: &[f64],
        ts: &[f64],
        ln_ts: &[f64],
        offset: &mut [f64],
        columns: &mut [f64],
    ) -> bool {
        super::polynomial_design_into(2, nonlinear, ts, ln_ts, offset, columns)
    }

    /// `[ln α, logit s, ln γ]` when the coefficients lie strictly inside
    /// the region `internal_to_params` maps onto: `α, γ > 0` and
    /// `s = −β/(2√(αγ))` strictly inside its clamp `[1e-9, 1 − 1e-9]`.
    /// Elsewhere the constrained optimum lies on the region's boundary,
    /// which only the search reaches, so `None`.
    fn join_linear(&self, nonlinear: &[f64], coefficients: &[f64]) -> Option<Vec<f64>> {
        let &[alpha, beta, gamma] = coefficients else {
            return None;
        };
        if !(nonlinear.is_empty() && alpha > 0.0 && gamma > 0.0) {
            return None;
        }
        let s = -beta / (2.0 * (alpha * gamma).sqrt());
        (s > 1e-9 && s < 1.0 - 1e-9).then(|| vec![alpha.ln(), (s / (1.0 - s)).ln(), gamma.ln()])
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("Quadratic", "expected 3 parameters"));
        }
        let (alpha, beta, gamma) = (params[0], params[1], params[2]);
        // Validate via the constructor.
        QuadraticModel::new(alpha, beta, gamma)?;
        let s = -beta / (2.0 * (alpha * gamma).sqrt());
        let s = s.clamp(1e-9, 1.0 - 1e-9);
        Ok(vec![alpha.ln(), (s / (1.0 - s)).ln(), gamma.ln()])
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("Quadratic", "expected 3 parameters"));
        }
        Ok(Box::new(QuadraticModel::new(
            params[0], params[1], params[2],
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let mut guesses = Vec::new();
        let nominal = series.nominal().max(1e-6);
        // Guess 1: the unconstrained least-squares optimum, the exact fit's
        // solve, projected into the region.
        if let Some(c) = super::polynomial_ols(series, 2) {
            let alpha = c[0].max(1e-6);
            let gamma = c[2].max(1e-9);
            let s = (-c[1] / (2.0 * (alpha * gamma).sqrt())).clamp(0.05, 0.95);
            guesses.push(QuadraticFamily::external(alpha, s, gamma));
        }
        // Guess 2: trough geometry. P(t) ≈ P_d + γ(t − t_d)² ⇒
        // γ = (P(0) − P_d)/t_d², β = −2γt_d, α = P(0).
        if let Some((t_d, p_d)) = series.trough() {
            if t_d > 0.0 && p_d < nominal {
                let gamma = ((nominal - p_d) / (t_d * t_d)).max(1e-9);
                let s = (t_d * (gamma / nominal).sqrt()).clamp(0.05, 0.95);
                guesses.push(QuadraticFamily::external(nominal, s, gamma));
            }
        }
        // Guess 3: a generic shallow bathtub.
        let t_end = series.times()[series.len() - 1].max(1.0);
        let gamma = 0.02 * nominal / (t_end * t_end);
        guesses.push(QuadraticFamily::external(nominal, 0.5, gamma));
        guesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> QuadraticModel {
        QuadraticModel::new(1.0, -0.01, 0.0005).unwrap()
    }

    #[test]
    fn constructor_enforces_bathtub_region() {
        assert!(QuadraticModel::new(0.0, -0.01, 0.1).is_err()); // α = 0
        assert!(QuadraticModel::new(1.0, -0.01, 0.0).is_err()); // γ = 0
        assert!(QuadraticModel::new(1.0, 0.01, 0.1).is_err()); // β > 0
        assert!(QuadraticModel::new(1.0, 0.0, 0.1).is_err()); // β = 0
                                                              // β below −2√(αγ): −2√(0.1) ≈ −0.632.
        assert!(QuadraticModel::new(1.0, -0.7, 0.1).is_err());
        assert!(QuadraticModel::new(1.0, -0.6, 0.1).is_ok());
    }

    #[test]
    fn predict_matches_polynomial() {
        let m = model();
        for &t in &[0.0, 5.0, 10.0, 20.0, 47.0] {
            let want = 1.0 - 0.01 * t + 0.0005 * t * t;
            assert!((m.predict(t) - want).abs() < 1e-15);
        }
    }

    #[test]
    fn trough_and_minimum_closed_forms() {
        let m = model();
        assert!((m.trough() - 10.0).abs() < 1e-12);
        assert!((m.minimum() - (1.0 - 0.0001 / 0.002)).abs() < 1e-12);
        // The trough really is a minimum.
        assert!(m.predict(10.0) < m.predict(9.0));
        assert!(m.predict(10.0) < m.predict(11.0));
    }

    #[test]
    fn recovery_time_closed_form_eq2() {
        let m = model();
        // Recovery back to the nominal level 1: γt² + βt = 0 ⇒ t = −β/γ = 20.
        let t = m.recovery_time(1.0).unwrap();
        assert!((t - 20.0).abs() < 1e-9);
        assert!((m.predict(t) - 1.0).abs() < 1e-12);
        // Below the minimum: unreachable.
        assert!(m.recovery_time(0.9).is_err());
    }

    #[test]
    fn non_finite_recovery_level_is_a_typed_error() {
        use crate::fit::{fit_least_squares, FitConfig};
        use resilience_data::recessions::Recession;
        let series = Recession::R1990_93.payroll_index();
        let fit = fit_least_squares(&QuadraticFamily, &series, &FitConfig::default()).unwrap();
        let m = QuadraticModel::new(fit.params[0], fit.params[1], fit.params[2]).unwrap();
        assert!(matches!(m.recovery_time(f64::NAN), Err(CoreError::Math(_))));
        assert!(matches!(
            m.time_to_recover(f64::NAN, 0.0, 40.0),
            Err(CoreError::Math(_))
        ));
    }

    #[test]
    fn area_closed_form_eq3_matches_quadrature() {
        let m = model();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-12, 40)
                .unwrap();
        assert!((analytic - numeric).abs() < 1e-9);
        assert!(m.area(5.0, 1.0).is_err());
    }

    #[test]
    fn time_to_recover_respects_window() {
        let m = model();
        assert!((m.time_to_recover(1.0, 10.0, 48.0).unwrap() - 20.0).abs() < 1e-9);
        // Window starts after recovery: clamps to `from`.
        assert_eq!(m.time_to_recover(1.0, 30.0, 48.0).unwrap(), 30.0);
        // Horizon before recovery: error.
        assert!(m.time_to_recover(1.0, 0.0, 15.0).is_err());
    }

    #[test]
    fn family_roundtrip_internal_external() {
        let fam = QuadraticFamily;
        let params = vec![1.02, -0.013, 0.0004];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{params:?} vs {back:?}");
        }
    }

    #[test]
    fn family_internal_always_feasible() {
        let fam = QuadraticFamily;
        for &a in &[-5.0, 0.0, 3.0] {
            for &b in &[-20.0, 0.0, 20.0] {
                for &c in &[-10.0, 0.0, 2.0] {
                    let p = fam.internal_to_params(&[a, b, c]);
                    assert!(
                        QuadraticModel::new(p[0], p[1], p[2]).is_ok(),
                        "infeasible from internal [{a}, {b}, {c}]: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn family_rejects_infeasible_external() {
        let fam = QuadraticFamily;
        assert!(fam.params_to_internal(&[1.0, 0.5, 0.1]).is_err());
        assert!(fam.params_to_internal(&[1.0, -0.1]).is_err());
        assert!(fam.build(&[1.0, 0.5, 0.1]).is_err());
    }

    #[test]
    fn initial_guesses_are_feasible_and_nonempty() {
        let values: Vec<f64> = (0..48)
            .map(|i| {
                let t = i as f64;
                1.0 - 0.012 * t + 0.0004 * t * t
            })
            .collect();
        let s = PerformanceSeries::monthly("q", values).unwrap();
        let fam = QuadraticFamily;
        let guesses = fam.initial_guesses(&s);
        assert!(!guesses.is_empty());
        for g in &guesses {
            assert!(
                QuadraticModel::new(g[0], g[1], g[2]).is_ok(),
                "infeasible guess {g:?}"
            );
        }
        // The OLS guess should be essentially exact on noiseless data.
        let g0 = &guesses[0];
        assert!((g0[0] - 1.0).abs() < 1e-6);
        assert!((g0[1] + 0.012).abs() < 1e-6);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = QuadraticFamily;
        let internal = [0.02, -0.3, -7.5];
        let mut params = [0.0; 3];
        fam.internal_to_params_into(&internal, &mut params);
        assert_eq!(params.to_vec(), fam.internal_to_params(&internal));

        let ts = [0.0, 5.0, 10.0, 20.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        // Infeasible params: β > 0.
        assert!(!fam.predict_params_into(&[1.0, 0.5, 0.1], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.0, -0.01], &ts, &mut out));
    }

    #[test]
    fn model_trait_object_usable() {
        let fam = QuadraticFamily;
        let m = fam.build(&[1.0, -0.01, 0.0005]).unwrap();
        assert_eq!(m.name(), "Quadratic");
        assert_eq!(m.n_params(), 3);
        assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
    }
}
