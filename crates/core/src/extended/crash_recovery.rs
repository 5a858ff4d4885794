//! An L/K-capable extension: sudden crash with saturating partial
//! recovery.

use crate::model::{ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;

/// Crash-and-saturating-recovery resilience curve:
///
/// ```text
/// P(t) = 1 − (1 − p_min)·(t/t_c)^k                 for t < t_c
/// P(t) = p∞ − (p∞ − p_min)·e^{−ρ(t − t_c)}          for t ≥ t_c
/// ```
///
/// Five parameters: crash time `t_c > 0`, trough level `p_min`, recovery
/// asymptote `p∞ > p_min` (which may sit below the nominal 1 — the L/K
/// signature of permanent loss), recovery rate `ρ > 0`, and crash
/// sharpness `k ≥ 1` (larger = more of the drop concentrated just before
/// `t_c`). The curve is continuous at `t_c` by construction.
///
/// This is the "additional modeling effort" the paper's conclusion calls
/// for on its 2020-21 data: both of the paper's families assume a
/// *gradual* single decline, which an abrupt crash followed by a
/// flattening grind violates.
///
/// # Examples
///
/// ```
/// use resilience_core::extended::CrashRecoveryModel;
/// use resilience_core::ResilienceModel;
///
/// let m = CrashRecoveryModel::new(2.0, 0.85, 0.96, 0.15, 3.0)?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
/// assert!((m.predict(2.0) - 0.85).abs() < 1e-12);  // the trough
/// assert!(m.predict(50.0) < 0.97);                 // permanent loss
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRecoveryModel {
    crash_time: f64,
    p_min: f64,
    p_inf: f64,
    rate: f64,
    sharpness: f64,
}

impl CrashRecoveryModel {
    /// Creates a crash-recovery model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless `t_c > 0`,
    /// `0 < p_min < p_inf`, `ρ > 0`, and `k ≥ 1`.
    pub fn new(
        crash_time: f64,
        p_min: f64,
        p_inf: f64,
        rate: f64,
        sharpness: f64,
    ) -> Result<Self, CoreError> {
        if !(crash_time > 0.0) || !crash_time.is_finite() {
            return Err(CoreError::params(
                "CrashRecovery",
                format!("need t_c > 0, got {crash_time}"),
            ));
        }
        if !(p_min > 0.0) || !(p_inf > p_min) || !p_inf.is_finite() {
            return Err(CoreError::params(
                "CrashRecovery",
                format!("need 0 < p_min < p_inf, got p_min = {p_min}, p_inf = {p_inf}"),
            ));
        }
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(CoreError::params(
                "CrashRecovery",
                format!("need ρ > 0, got {rate}"),
            ));
        }
        if !(sharpness >= 1.0) || !sharpness.is_finite() {
            return Err(CoreError::params(
                "CrashRecovery",
                format!("need k >= 1, got {sharpness}"),
            ));
        }
        Ok(CrashRecoveryModel {
            crash_time,
            p_min,
            p_inf,
            rate,
            sharpness,
        })
    }

    /// Allocation-free mirror of the `new` constraints, used by the
    /// fitting hot path.
    fn feasible(params: &[f64]) -> bool {
        params.len() == 5
            && params[0] > 0.0
            && params[0].is_finite()
            && params[1] > 0.0
            && params[2] > params[1]
            && params[2].is_finite()
            && params[3] > 0.0
            && params[3].is_finite()
            && params[4] >= 1.0
            && params[4].is_finite()
    }

    /// The trough level `p_min`.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        self.p_min
    }

    /// The recovery asymptote `p∞` (long-run performance).
    #[must_use]
    pub fn asymptote(&self) -> f64 {
        self.p_inf
    }

    /// Closed-form time of recovery to `level`:
    /// `t_c − ln((p∞ − level)/(p∞ − p_min))/ρ` for
    /// `p_min ≤ level < p∞`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSolution`] when `level ≥ p∞` (never
    /// reached — the permanent-loss case) or `level < p_min`.
    pub fn recovery_time(&self, level: f64) -> Result<f64, CoreError> {
        if level >= self.p_inf {
            return Err(CoreError::no_solution(
                "CrashRecoveryModel::recovery_time",
                format!("level {level} is at/above the asymptote {}", self.p_inf),
            ));
        }
        if level <= self.p_min {
            return Ok(self.crash_time);
        }
        let ratio = (self.p_inf - level) / (self.p_inf - self.p_min);
        Ok(self.crash_time - ratio.ln() / self.rate)
    }
}

impl ResilienceModel for CrashRecoveryModel {
    fn name(&self) -> &'static str {
        "Crash Recovery"
    }

    fn params(&self) -> Vec<f64> {
        vec![
            self.crash_time,
            self.p_min,
            self.p_inf,
            self.rate,
            self.sharpness,
        ]
    }

    fn predict(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 1.0;
        }
        if t < self.crash_time {
            1.0 - (1.0 - self.p_min) * (t / self.crash_time).powf(self.sharpness)
        } else {
            self.p_inf - (self.p_inf - self.p_min) * (-self.rate * (t - self.crash_time)).exp()
        }
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = if t < 0.0 {
                1.0
            } else if t < self.crash_time {
                1.0 - (1.0 - self.p_min) * (t / self.crash_time).powf(self.sharpness)
            } else {
                self.p_inf - (self.p_inf - self.p_min) * (-self.rate * (t - self.crash_time)).exp()
            };
        }
    }

    /// Closed-form area: power-law segment before `t_c`, exponential
    /// segment after.
    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() || a < 0.0 {
            return Err(CoreError::arg(
                "CrashRecoveryModel::area",
                format!("need finite 0 <= a <= b, got [{a}, {b}]"),
            ));
        }
        // ∫ pre-crash: t − (1−p_min)·t_c/(k+1)·(t/t_c)^{k+1}
        let pre = |t: f64| {
            t - (1.0 - self.p_min) * self.crash_time / (self.sharpness + 1.0)
                * (t / self.crash_time).powf(self.sharpness + 1.0)
        };
        // ∫ post-crash from t_c: p∞·x + (p∞ − p_min)/ρ·(e^{−ρx} − 1),
        // with x = t − t_c.
        let post = |t: f64| {
            let x = t - self.crash_time;
            self.p_inf * x + (self.p_inf - self.p_min) / self.rate * ((-self.rate * x).exp() - 1.0)
        };
        let eval = |t: f64| {
            if t <= self.crash_time {
                pre(t)
            } else {
                pre(self.crash_time) + post(t)
            }
        };
        Ok(eval(b) - eval(a))
    }

    fn trough_time(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a < b) {
            return Err(CoreError::arg(
                "CrashRecoveryModel::trough_time",
                format!("need a < b, got [{a}, {b}]"),
            ));
        }
        Ok(self.crash_time.clamp(a, b))
    }

    fn time_to_recover(&self, level: f64, from: f64, horizon: f64) -> Result<f64, CoreError> {
        let t = self.recovery_time(level)?;
        if t < from {
            return Ok(from);
        }
        if t > horizon {
            return Err(CoreError::no_solution(
                "CrashRecoveryModel::time_to_recover",
                format!("recovery at t = {t} is beyond horizon {horizon}"),
            ));
        }
        Ok(t)
    }
}

/// The [`ModelFamily`] for [`CrashRecoveryModel`].
///
/// Internal parameterization keeps every constraint structural:
/// `t_c = e^{i₀}`, `p_min = e^{i₁}·s` with a logistic share of `p_inf`,
/// handled as: `p_inf = e^{i₂}`, `p_min = p_inf·σ(i₁)`, `ρ = e^{i₃}`,
/// `k = 1 + e^{i₄}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashRecoveryFamily;

impl CrashRecoveryFamily {
    fn sigmoid(x: f64) -> f64 {
        let s = if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        };
        s.clamp(1e-9, 1.0 - 1e-9)
    }
}

impl ModelFamily for CrashRecoveryFamily {
    fn name(&self) -> &'static str {
        "Crash Recovery"
    }

    fn n_params(&self) -> usize {
        5
    }

    /// The crash discontinuity makes the pre/post-crash segments trade
    /// off through the shared `p_inf`, so give this five-parameter
    /// landscape the same doubled walk as the other extended shape.
    fn nm_iteration_scale(&self) -> usize {
        2
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            5,
            "CrashRecoveryFamily expects 5 internal params"
        );
        assert_eq!(out.len(), 5, "CrashRecoveryFamily writes 5 external params");
        let p_inf = internal[2].exp();
        out[0] = internal[0].exp();
        out[1] = p_inf * CrashRecoveryFamily::sigmoid(internal[1]);
        out[2] = p_inf;
        out[3] = internal[3].exp();
        out[4] = 1.0 + internal[4].exp();
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if !CrashRecoveryModel::feasible(params) {
            return false;
        }
        let model = CrashRecoveryModel {
            crash_time: params[0],
            p_min: params[1],
            p_inf: params[2],
            rate: params[3],
            sharpness: params[4],
        };
        model.predict_into(ts, out);
        true
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 5 {
            return Err(CoreError::params("CrashRecovery", "expected 5 parameters"));
        }
        CrashRecoveryModel::new(params[0], params[1], params[2], params[3], params[4])?;
        let share = (params[1] / params[2]).clamp(1e-9, 1.0 - 1e-9);
        Ok(vec![
            params[0].ln(),
            (share / (1.0 - share)).ln(),
            params[2].ln(),
            params[3].ln(),
            (params[4] - 1.0).max(1e-12).ln(),
        ])
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 5 {
            return Err(CoreError::params("CrashRecovery", "expected 5 parameters"));
        }
        Ok(Box::new(CrashRecoveryModel::new(
            params[0], params[1], params[2], params[3], params[4],
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let (t_d, p_d) = series.trough().unwrap_or((1.0, 0.9 * series.nominal()));
        let t_d = t_d.max(0.5);
        let end_val = series.values()[series.len() - 1];
        let p_inf = end_val.max(p_d + 1e-3) * 1.01;
        let t_end = series.times()[series.len() - 1].max(2.0);
        let mut guesses = Vec::new();
        for rate in [0.05, 0.15, 0.5] {
            for sharpness in [1.5, 3.0, 6.0] {
                guesses.push(vec![t_d, p_d.max(1e-3), p_inf, rate, sharpness]);
            }
        }
        // A fallback assuming the crash is at 10% of the window.
        guesses.push(vec![0.1 * t_end, 0.8, 1.0, 0.1, 2.0]);
        guesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_least_squares, FitConfig};
    use crate::validate::r2_adjusted;
    use resilience_data::recessions::Recession;

    fn model() -> CrashRecoveryModel {
        CrashRecoveryModel::new(2.0, 0.85, 0.96, 0.15, 3.0).unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(CrashRecoveryModel::new(0.0, 0.8, 0.9, 0.1, 2.0).is_err());
        assert!(CrashRecoveryModel::new(1.0, 0.9, 0.8, 0.1, 2.0).is_err()); // p_min > p_inf
        assert!(CrashRecoveryModel::new(1.0, 0.0, 0.9, 0.1, 2.0).is_err());
        assert!(CrashRecoveryModel::new(1.0, 0.8, 0.9, 0.0, 2.0).is_err());
        assert!(CrashRecoveryModel::new(1.0, 0.8, 0.9, 0.1, 0.5).is_err()); // k < 1
    }

    #[test]
    fn continuous_at_crash_time() {
        let m = model();
        let eps = 1e-9;
        let before = m.predict(2.0 - eps);
        let after = m.predict(2.0 + eps);
        assert!((before - after).abs() < 1e-6);
        assert!((m.predict(2.0) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn approaches_asymptote_not_nominal() {
        let m = model();
        assert!((m.predict(1000.0) - 0.96).abs() < 1e-10);
        assert!(m.predict(1000.0) < 1.0, "permanent loss");
    }

    #[test]
    fn recovery_time_closed_form() {
        let m = model();
        let t = m.recovery_time(0.93).unwrap();
        assert!((m.predict(t) - 0.93).abs() < 1e-10);
        assert!(m.recovery_time(0.97).is_err()); // above asymptote
        assert_eq!(m.recovery_time(0.5).unwrap(), 2.0); // below trough
    }

    #[test]
    fn area_matches_quadrature_across_the_kink() {
        let m = model();
        for (a, b) in [(0.0, 1.5), (0.0, 10.0), (1.0, 23.0), (5.0, 20.0)] {
            let analytic = m.area(a, b).unwrap();
            let numeric =
                resilience_math::quad::adaptive_simpson(|t| m.predict(t), a, b, 1e-11, 44).unwrap();
            assert!(
                (analytic - numeric).abs() < 1e-7,
                "[{a}, {b}]: {analytic} vs {numeric}"
            );
        }
        assert!(model().area(-1.0, 3.0).is_err());
    }

    #[test]
    fn family_roundtrip() {
        let fam = CrashRecoveryFamily;
        let params = vec![2.0, 0.85, 0.96, 0.15, 3.0];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{params:?} vs {back:?}");
        }
    }

    #[test]
    fn family_internal_always_feasible() {
        let fam = CrashRecoveryFamily;
        for &a in &[-3.0, 0.0, 2.0] {
            for &b in &[-5.0, 0.0, 5.0] {
                let p = fam.internal_to_params(&[a, b, -0.05, -1.0, 0.5]);
                assert!(
                    CrashRecoveryModel::new(p[0], p[1], p[2], p[3], p[4]).is_ok(),
                    "infeasible {p:?}"
                );
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = CrashRecoveryFamily;
        let params = [2.0, 0.85, 0.96, 0.15, 3.0];

        let ts = [0.0, 1.0, 2.0, 10.0, 40.0];
        let mut out = [f64::NAN; 5];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        assert!(!fam.predict_params_into(&[1.0, 0.9, 0.8, 0.1, 2.0], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.0, 0.8, 0.9, 0.1], &ts, &mut out));
    }

    #[test]
    fn fits_covid_l_shape_where_paper_families_fail() {
        let series = Recession::R2020_21.payroll_index();
        let train = series.split_at(21).unwrap().train;
        let config = FitConfig::default();
        let fit = fit_least_squares(&CrashRecoveryFamily, &train, &config).unwrap();
        let r2 = r2_adjusted(fit.model.as_ref(), &train, 5).unwrap();
        assert!(
            r2 > 0.9,
            "crash-recovery should capture the L shape: r2 = {r2}"
        );
    }

    #[test]
    fn initial_guesses_feasible() {
        let series = Recession::R2020_21.payroll_index();
        let fam = CrashRecoveryFamily;
        for g in fam.initial_guesses(&series) {
            assert!(fam.build(&g).is_ok(), "infeasible guess {g:?}");
        }
    }
}
