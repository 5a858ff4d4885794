//! A W-capable extension: competing-risks curve plus a delayed second
//! degradation episode.

use crate::model::{ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;

/// Competing-risks resilience curve with a delayed second dip:
///
/// ```text
/// P(t) = 2γt + α/(1 + βt) − d·h(t − τ)
/// h(x) = (x/w)·e^{1 − x/w}   for x > 0, else 0
/// ```
///
/// The base term is the paper's competing-risks model (its Eq. 4); the
/// hump `d·h` subtracts a second degradation episode of depth `d`
/// centered `w` months after its onset `τ`. Six parameters, all
/// positive. With `d → 0` it reduces to the paper's model, so it can
/// only fit better in-sample — the question the W experiment answers is
/// *how much* better on double-dip data.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::CompetingRisksModel;
/// use resilience_core::extended::DoubleBathtubModel;
/// use resilience_core::ResilienceModel;
///
/// let m = DoubleBathtubModel::new(1.0, 0.05, 0.012, 0.06, 20.0, 6.0)?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
/// // The second episode (onset τ = 20, peaking at τ + w = 26) pulls the
/// // curve below the single-episode baseline by exactly its depth.
/// let base = CompetingRisksModel::new(1.0, 0.05, 0.012)?;
/// assert!((base.predict(26.0) - m.predict(26.0) - 0.06).abs() < 1e-12);
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleBathtubModel {
    alpha: f64,
    beta: f64,
    gamma: f64,
    depth: f64,
    onset: f64,
    width: f64,
}

impl DoubleBathtubModel {
    /// Creates a double-bathtub model with base parameters `α, β, γ`
    /// (first episode), second-episode depth `d`, onset `τ`, and width
    /// `w`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless every parameter is
    /// finite and positive.
    pub fn new(
        alpha: f64,
        beta: f64,
        gamma: f64,
        depth: f64,
        onset: f64,
        width: f64,
    ) -> Result<Self, CoreError> {
        for (name, v) in [
            ("α", alpha),
            ("β", beta),
            ("γ", gamma),
            ("d", depth),
            ("τ", onset),
            ("w", width),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CoreError::params(
                    "DoubleBathtub",
                    format!("need {name} > 0 and finite, got {v}"),
                ));
            }
        }
        Ok(DoubleBathtubModel {
            alpha,
            beta,
            gamma,
            depth,
            onset,
            width,
        })
    }

    /// The second-episode hump `h(t − τ)` scaled by depth.
    fn second_dip(&self, t: f64) -> f64 {
        let x = t - self.onset;
        if x <= 0.0 {
            return 0.0;
        }
        let u = x / self.width;
        self.depth * u * (1.0 - u).exp()
    }

    /// Closed-form integral of the second dip from `τ` to `t`:
    /// `d·w·e·(1 − e^{−u}(1+u))` with `u = (t−τ)/w`.
    fn second_dip_integral(&self, t: f64) -> f64 {
        let x = t - self.onset;
        if x <= 0.0 {
            return 0.0;
        }
        let u = x / self.width;
        self.depth * self.width * std::f64::consts::E * (1.0 - (-u).exp() * (1.0 + u))
    }

    /// Allocation-free mirror of the `new` constraints, used by the
    /// fitting hot path.
    fn feasible(params: &[f64]) -> bool {
        params.len() == 6 && params.iter().all(|&v| v > 0.0 && v.is_finite())
    }

    /// Onset time of the second episode.
    #[must_use]
    pub fn onset(&self) -> f64 {
        self.onset
    }

    /// Depth of the second episode (performance lost at its peak).
    #[must_use]
    pub fn depth(&self) -> f64 {
        self.depth
    }
}

impl ResilienceModel for DoubleBathtubModel {
    fn name(&self) -> &'static str {
        "Double Bathtub"
    }

    fn params(&self) -> Vec<f64> {
        vec![
            self.alpha, self.beta, self.gamma, self.depth, self.onset, self.width,
        ]
    }

    fn predict(&self, t: f64) -> f64 {
        2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t) - self.second_dip(t)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = 2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t) - self.second_dip(t);
        }
    }

    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() {
            return Err(CoreError::arg(
                "DoubleBathtubModel::area",
                format!("need finite a <= b, got [{a}, {b}]"),
            ));
        }
        if 1.0 + self.beta * a <= 0.0 {
            return Err(CoreError::arg(
                "DoubleBathtubModel::area",
                format!("lower endpoint {a} outside the model domain"),
            ));
        }
        let base =
            |t: f64| self.gamma * t * t + (self.alpha / self.beta) * (1.0 + self.beta * t).ln();
        Ok(base(b) - base(a) - (self.second_dip_integral(b) - self.second_dip_integral(a)))
    }
}

/// The [`ModelFamily`] for [`DoubleBathtubModel`]: all six parameters
/// positive (log transforms).
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleBathtubFamily;

impl ModelFamily for DoubleBathtubFamily {
    fn name(&self) -> &'static str {
        "Double Bathtub"
    }

    fn n_params(&self) -> usize {
        6
    }

    /// Two dips resolve sequentially: the simplex settles the first
    /// episode before the second's depth/onset/width move, so the walk
    /// runs roughly twice as long as a single-episode fit (the 1981-83
    /// double-dip recession needs ~1000 iterations where the paper
    /// families finish near 150).
    fn nm_iteration_scale(&self) -> usize {
        2
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            6,
            "DoubleBathtubFamily expects 6 internal params"
        );
        assert_eq!(out.len(), 6, "DoubleBathtubFamily writes 6 external params");
        for (o, v) in out.iter_mut().zip(internal) {
            *o = v.exp();
        }
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if !DoubleBathtubModel::feasible(params) {
            return false;
        }
        let model = DoubleBathtubModel {
            alpha: params[0],
            beta: params[1],
            gamma: params[2],
            depth: params[3],
            onset: params[4],
            width: params[5],
        };
        model.predict_into(ts, out);
        true
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 6 {
            return Err(CoreError::params("DoubleBathtub", "expected 6 parameters"));
        }
        DoubleBathtubModel::new(
            params[0], params[1], params[2], params[3], params[4], params[5],
        )?;
        Ok(params.iter().map(|v| v.ln()).collect())
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 6 {
            return Err(CoreError::params("DoubleBathtub", "expected 6 parameters"));
        }
        Ok(Box::new(DoubleBathtubModel::new(
            params[0], params[1], params[2], params[3], params[4], params[5],
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let nominal = series.nominal().max(1e-6);
        let t_end = series.times()[series.len() - 1].max(4.0);
        let values = series.values();
        // Locate two candidate troughs: global min, and the deepest local
        // min in the half not containing the global one.
        let (t1, p1) = series.trough().unwrap_or((t_end / 4.0, nominal));
        let mid = series.len() / 2;
        let (other_half, offset) = if (t1 as usize) < mid {
            (&values[mid..], mid)
        } else {
            (&values[..mid], 0)
        };
        let (i2, p2) = other_half
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &v)| (i + offset, v))
            .unwrap_or((series.len() / 2, nominal));
        let t2 = series.times()[i2];
        let (first_t, second_t, second_depth) = if t1 < t2 {
            (t1, t2, (nominal - p2).max(1e-3))
        } else {
            (t2, t1, (nominal - p1).max(1e-3))
        };
        let mut guesses = Vec::new();
        for beta in [0.1, 0.3, 0.8] {
            for width in [4.0, 8.0, 14.0] {
                guesses.push(vec![
                    nominal,
                    beta,
                    (0.05 * nominal / t_end).max(1e-6),
                    second_depth,
                    (second_t - width).max(first_t + 1.0).max(1.0),
                    width,
                ]);
            }
        }
        guesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_least_squares, FitConfig};
    use resilience_data::recessions::Recession;

    fn model() -> DoubleBathtubModel {
        DoubleBathtubModel::new(1.0, 0.5, 0.002, 0.03, 18.0, 8.0).unwrap()
    }

    #[test]
    fn rejects_nonpositive_parameters() {
        assert!(DoubleBathtubModel::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0).is_err());
        assert!(DoubleBathtubModel::new(1.0, 1.0, 1.0, 1.0, -1.0, 1.0).is_err());
        assert!(DoubleBathtubModel::new(1.0, 1.0, 1.0, 1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn reduces_to_competing_risks_before_onset() {
        let m = model();
        let cr = crate::bathtub::CompetingRisksModel::new(1.0, 0.5, 0.002).unwrap();
        for &t in &[0.0, 5.0, 17.9] {
            assert!((m.predict(t) - cr.predict(t)).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn second_dip_peaks_at_onset_plus_width() {
        let m = model();
        // Hump maximum at τ + w = 26 with value d.
        let at_peak = m.second_dip(26.0);
        assert!((at_peak - 0.03).abs() < 1e-12);
        assert!(m.second_dip(22.0) < at_peak);
        assert!(m.second_dip(40.0) < at_peak);
        assert_eq!(m.second_dip(10.0), 0.0);
    }

    #[test]
    fn produces_two_local_minima() {
        // Base bathtub troughs near t ≈ 9; second episode peaks at
        // τ + w = 26 — well separated, so the curve is a genuine W.
        let m = DoubleBathtubModel::new(1.0, 0.05, 0.012, 0.06, 20.0, 6.0).unwrap();
        let v: Vec<f64> = (0..48).map(|i| m.predict(i as f64)).collect();
        let mut minima = 0;
        for i in 1..47 {
            if v[i] < v[i - 1] - 1e-9 && v[i] < v[i + 1] - 1e-9 {
                minima += 1;
            }
        }
        assert!(minima >= 2, "expected a W, found {minima} local minima");
    }

    #[test]
    fn closed_form_area_matches_quadrature() {
        let m = model();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-11, 42)
                .unwrap();
        assert!((analytic - numeric).abs() < 1e-7, "{analytic} vs {numeric}");
        // Window straddling the onset.
        let a2 = m.area(10.0, 30.0).unwrap();
        let n2 = resilience_math::quad::adaptive_simpson(|t| m.predict(t), 10.0, 30.0, 1e-11, 42)
            .unwrap();
        assert!((a2 - n2).abs() < 1e-7);
    }

    #[test]
    fn family_roundtrip_and_feasibility() {
        let fam = DoubleBathtubFamily;
        let params = vec![1.0, 0.5, 0.002, 0.03, 18.0, 8.0];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(fam.params_to_internal(&[1.0; 5]).is_err());
        assert!(fam.build(&[1.0, 1.0, 1.0, 1.0, 1.0, -1.0]).is_err());
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = DoubleBathtubFamily;
        let params = [1.0, 0.5, 0.002, 0.03, 18.0, 8.0];

        let ts = [0.0, 10.0, 26.0, 47.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        assert!(!fam.predict_params_into(&[1.0, 1.0, 1.0, 1.0, 1.0, -1.0], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.0; 5], &ts, &mut out));
    }

    #[test]
    fn fits_w_shaped_recession_better_than_single_bathtub() {
        let series = Recession::R1980.payroll_index();
        let train = series.split_at(43).unwrap().train;
        let config = FitConfig::default();
        let single =
            fit_least_squares(&crate::bathtub::CompetingRisksFamily, &train, &config).unwrap();
        let double = fit_least_squares(&DoubleBathtubFamily, &train, &config).unwrap();
        assert!(
            double.sse < 0.6 * single.sse,
            "double ({}) should clearly beat single ({}) on the W shape",
            double.sse,
            single.sse
        );
    }

    #[test]
    fn initial_guesses_feasible() {
        let series = Recession::R1980.payroll_index();
        let fam = DoubleBathtubFamily;
        for g in fam.initial_guesses(&series) {
            assert!(fam.build(&g).is_ok(), "infeasible guess {g:?}");
        }
    }
}
