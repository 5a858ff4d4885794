//! The quadratic bathtub model (paper Eq. 1–3).

use crate::model::{ModelFamily, ResilienceModel, Sign};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::poly::{quadratic_roots, Polynomial};
use resilience_math::sum::CompensatedSum;

/// The clamp [`QuadraticFamily`]'s internal map applies to
/// `s = −β/(2√(αγ))`: `s = 0` is the bathtub cone's face `β = 0`, `s = 1`
/// its surface `β² = 4αγ`, and no internal point reaches either.
const S_MIN: f64 = 1e-9;
const S_MAX: f64 = 1.0 - 1e-9;

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

    /// `[ln α, logit s, ln γ]`, with `s` clamped as the internal map
    /// clamps it.
    fn internal(alpha: f64, s: f64, gamma: f64) -> [f64; 3] {
        let s = s.clamp(S_MIN, S_MAX);
        [alpha.ln(), (s / (1.0 - s)).ln(), gamma.ln()]
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
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(S_MIN, S_MAX);
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
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(S_MIN, S_MAX);
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
        let s = (1.0 / (1.0 + (-internal[1]).exp())).clamp(S_MIN, S_MAX);
        let ds = if s > S_MIN && s < S_MAX {
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
        _ln_ts: &[f64],
        offset: &mut [f64],
        columns: &mut [f64],
    ) -> bool {
        super::polynomial_design_into(2, nonlinear, ts, offset, columns)
    }

    /// `[ln α, logit s, ln γ]` when the coefficients lie strictly inside
    /// the region `internal_to_params` maps onto: `α, γ > 0` and
    /// `s = −β/(2√(αγ))` strictly inside its clamp `[1e-9, 1 − 1e-9]`.
    /// Elsewhere the constrained optimum lies on the region's boundary
    /// ([`ModelFamily::boundary_optimum`]), so `None`.
    fn join_linear(&self, nonlinear: &[f64], coefficients: &[f64]) -> Option<Vec<f64>> {
        let &[alpha, beta, gamma] = coefficients else {
            return None;
        };
        if !(nonlinear.is_empty() && alpha > 0.0 && gamma > 0.0) {
            return None;
        }
        let s = -beta / (2.0 * (alpha * gamma).sqrt());
        (s > S_MIN && s < S_MAX).then(|| QuadraticFamily::internal(alpha, s, gamma).to_vec())
    }

    /// The least-squares optimum over the closed bathtub cone
    /// `{α, γ ≥ 0, β ≤ 0, β² ≤ 4αγ}`, moved to the nearest point the
    /// internal map reaches (DESIGN.md §11, "The bathtub cone's
    /// boundary"). `None` on fewer than three times, where the design is
    /// rank deficient.
    fn boundary_optimum(&self, ts: &[f64], ys: &[f64]) -> Option<Vec<f64>> {
        boundary_optimum(ts, ys).map(|internal| internal.to_vec())
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("Quadratic", "expected 3 parameters"));
        }
        let (alpha, beta, gamma) = (params[0], params[1], params[2]);
        // Validate via the constructor.
        QuadraticModel::new(alpha, beta, gamma)?;
        let s = -beta / (2.0 * (alpha * gamma).sqrt());
        Ok(QuadraticFamily::internal(alpha, s, gamma).to_vec())
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("Quadratic", "expected 3 parameters"));
        }
        Ok(Box::new(QuadraticModel::new(
            params[0], params[1], params[2],
        )?))
    }

    /// Only a fit on fewer than three times searches (its design is rank
    /// deficient): every other one is one solve, in the region or on its
    /// boundary.
    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let mut guesses = Vec::new();
        let nominal = series.nominal().max(1e-6);
        // Guess 1: trough geometry. P(t) ≈ P_d + γ(t − t_d)² ⇒
        // γ = (P(0) − P_d)/t_d², β = −2γt_d, α = P(0).
        if let Some((t_d, p_d)) = series.trough() {
            if t_d > 0.0 && p_d < nominal {
                let gamma = ((nominal - p_d) / (t_d * t_d)).max(1e-9);
                let s = (t_d * (gamma / nominal).sqrt()).clamp(0.05, 0.95);
                guesses.push(QuadraticFamily::external(nominal, s, gamma));
            }
        }
        // Guess 2: a generic shallow bathtub.
        let t_end = series.times()[series.len() - 1].max(1.0);
        let gamma = 0.02 * nominal / (t_end * t_end);
        guesses.push(QuadraticFamily::external(nominal, 0.5, gamma));
        guesses
    }
}

/// What a boundary candidate's zero `α` or `γ` is raised to: positive, so
/// its logarithm is finite, and small enough that `α·γ` stays a normal
/// number while the term it adds to the curve vanishes in rounding.
const RAISED_ZERO: f64 = 1e-150;

/// Where the search of the surface for its trough `ρ = r/T` stops: beyond
/// it the curve is the constant the face already offers, and `(u − ρ)⁴`
/// is still finite.
const RHO_MAX: f64 = 1e75;

/// The least-squares optimum of `P(t) = α + βt + γt²` over the closed
/// bathtub cone `K = {α, γ ≥ 0, β ≤ 0, β² ≤ 4αγ}`, as the internal point
/// of its nearest representable neighbour (DESIGN.md §11, "The bathtub
/// cone's boundary"). `None` on fewer than three times or lengths that
/// disagree.
///
/// When the unconstrained optimum lies outside `K`, the optimum lies on
/// its boundary, and the candidates are the optimum of each piece:
///
/// * the face `β = 0`, `P = α + γt²`: a two-column non-negative least
///   squares over `[1, t²]`;
/// * the surface `β² = 4αγ`, `P = γ(t − r)²` with trough `r ≥ 0`, where
///   `γ(r) = max(0, Σy(t−r)²/Σ(t−r)⁴)`: at `r = 0` and at each sign change
///   of the stationarity polynomial, of degree at most 4 in `ρ = r/T`.
///
/// Each candidate moves to its nearest representable point (`s` clamped
/// to `1e-9` on the face and `1 − 1e-9` on the surface, a zero `α` or `γ`
/// raised to [`RAISED_ZERO`]) and is scored with the full objective; the
/// least SSE wins, the first one on a tie. `K` is convex, so least
/// squares over it has no local minimum but the global one.
fn boundary_optimum(ts: &[f64], ys: &[f64]) -> Option<[f64; 3]> {
    if ts.len() < 3 || ys.len() != ts.len() {
        return None;
    }
    // u = t/T keeps every power sum within n of the others.
    let scale = ts.iter().fold(0.0_f64, |m, t| m.max(t.abs()));
    let [mut s0, mut s1, mut s2, mut s3, mut s4, mut y0, mut y1, mut y2] = [0.0; 8];
    for (&t, &v) in ts.iter().zip(ys) {
        let u = t / scale;
        let u2 = u * u;
        s0 += 1.0;
        s1 += u;
        s2 += u2;
        s3 += u2 * u;
        s4 += u2 * u2;
        y0 += v;
        y1 += v * u;
        y2 += v * u2;
    }
    // A curvature `g` in `u` is `γ = g/T²` in `t`.
    let gamma = |g: f64| g / (scale * scale);

    // The face: NNLS over [1, u²]. Both columns, or else the one column
    // that removes more of Σy².
    let det = s0 * s4 - s2 * s2;
    let (a, g) = ((y0 * s4 - y2 * s2) / det, (s0 * y2 - s2 * y0) / det);
    let (a, g) = if det > 0.0 && a >= 0.0 && g >= 0.0 {
        (a, g)
    } else if y0.max(0.0).powi(2) / s0 >= y2.max(0.0).powi(2) / s4 {
        ((y0 / s0).max(0.0), 0.0)
    } else {
        (0.0, (y2 / s4).max(0.0))
    };
    let mut best = Scored::of(ts, ys, a, S_MIN, gamma(g));

    // The surface: r = 0, then every stationary trough.
    let mut surface = |rho: f64, g: f64| {
        if g > 0.0 && g.is_finite() {
            best.keep(Scored::of(ts, ys, g * rho * rho, S_MAX, gamma(g)));
        }
    };
    surface(0.0, y2 / s4);
    let stationary = Polynomial::new(vec![
        y1 * s4 - y2 * s3,
        3.0 * y2 * s2 - 2.0 * y1 * s3 - y0 * s4,
        3.0 * (y0 * s3 - y2 * s1),
        y2 * s0 + 2.0 * y1 * s1 - 3.0 * y0 * s2,
        y0 * s1 - y1 * s0,
    ]);
    for rho in stationary.sign_changes(0.0, stationary.root_bound().min(RHO_MAX)) {
        let (mut num, mut den) = (0.0, 0.0);
        for (&t, &v) in ts.iter().zip(ys) {
            let d = t / scale - rho;
            num += v * d * d;
            den += d * d * d * d;
        }
        surface(rho, num / den);
    }
    best.sse.is_finite().then_some(best.internal)
}

/// A boundary candidate's internal point and its SSE.
struct Scored {
    internal: [f64; 3],
    sse: f64,
}

impl Scored {
    /// The candidate `(α, s, γ)` at its nearest representable point,
    /// scored as the fit's objective scores it: `+∞` where the point is
    /// infeasible or the SSE is not finite.
    fn of(ts: &[f64], ys: &[f64], alpha: f64, s: f64, gamma: f64) -> Scored {
        let internal = QuadraticFamily::internal(alpha.max(RAISED_ZERO), s, gamma.max(RAISED_ZERO));
        let mut p = [0.0; 3];
        QuadraticFamily.internal_to_params_into(&internal, &mut p);
        let mut sse = f64::INFINITY;
        if QuadraticModel::feasible(p[0], p[1], p[2]) {
            let mut sum = CompensatedSum::new();
            for (&t, &v) in ts.iter().zip(ys) {
                let d = v - (p[0] + p[1] * t + p[2] * t * t);
                sum.add(d * d);
            }
            if sum.value().is_finite() {
                sse = sum.value();
            }
        }
        Scored { internal, sse }
    }

    /// Keeps `other` when it scores strictly less.
    fn keep(&mut self, other: Scored) {
        if other.sse < self.sse {
            *self = other;
        }
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
