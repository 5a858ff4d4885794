//! Quartic polynomial model — a workspace extension for W-shaped curves.
//!
//! The paper's Table I shows both bathtub families failing on the 1980
//! W-shaped recession (low or negative adjusted R²): a single
//! degradation-and-recovery episode cannot express two troughs. A quartic
//! polynomial can (it allows two local minima separated by a local
//! maximum), making it the natural minimal extension — exactly the
//! "additional modeling efforts that can capture these more general
//! scenarios" the paper's abstract calls for. DESIGN.md §5 tracks this as
//! an extension experiment.

use super::Monomials;
use crate::model::{Design, ExactOptimum, ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::poly::Polynomial;
use std::sync::Arc;

/// Unconstrained quartic resilience curve
/// `P(t) = c₀ + c₁t + c₂t² + c₃t³ + c₄t⁴`.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::QuarticModel;
/// use resilience_core::ResilienceModel;
///
/// let m = QuarticModel::new([1.0, -0.02, 0.001, 0.0, 0.0])?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarticModel {
    coeffs: [f64; 5],
}

impl QuarticModel {
    /// Creates a quartic model from ascending coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] when any coefficient is
    /// non-finite.
    pub fn new(coeffs: [f64; 5]) -> Result<Self, CoreError> {
        if coeffs.iter().any(|c| !c.is_finite()) {
            return Err(CoreError::params("Quartic", "coefficients must be finite"));
        }
        Ok(QuarticModel { coeffs })
    }

    /// Ascending coefficients `[c₀, c₁, c₂, c₃, c₄]`.
    #[must_use]
    pub fn coeffs(&self) -> [f64; 5] {
        self.coeffs
    }

    fn polynomial(&self) -> Polynomial {
        Polynomial::new(self.coeffs.to_vec())
    }
}

impl ResilienceModel for QuarticModel {
    fn name(&self) -> &'static str {
        "Quartic"
    }

    fn params(&self) -> Vec<f64> {
        self.coeffs.to_vec()
    }

    fn predict(&self, t: f64) -> f64 {
        // Horner.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * t + c)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * t + c);
        }
    }

    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() {
            return Err(CoreError::arg(
                "QuarticModel::area",
                format!("need finite a <= b, got [{a}, {b}]"),
            ));
        }
        Ok(self.polynomial().integral(a, b))
    }
}

/// The [`ModelFamily`] for [`QuarticModel`]: unconstrained and linear in
/// all five coefficients, so a fit is one least-squares solve — Householder
/// QR on the monomial design, with no search and no polish (DESIGN.md §11).
/// Only a rank-deficient design (fewer than five distinct times) falls back
/// to the search, from the flat guess.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuarticFamily;

impl ModelFamily for QuarticFamily {
    fn name(&self) -> &'static str {
        "Quartic"
    }

    fn n_params(&self) -> usize {
        5
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(internal.len(), 5, "QuarticFamily expects 5 internal params");
        out.copy_from_slice(internal);
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_params_into requires ts and out of equal length"
        );
        if params.len() != 5 || params.iter().any(|c| !c.is_finite()) {
            return false;
        }
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = params.iter().rev().fold(0.0, |acc, &c| acc * t + c);
        }
        true
    }

    /// All five coefficients are linear and unconstrained, so a fit is
    /// their least-squares solve over `1, t, …, t⁴`, whose Householder
    /// factorization the design holds. `None` on fewer than five distinct
    /// times, where the design is rank deficient: the fit then searches.
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        Some(Arc::new(QuarticDesign {
            ts,
            monomials: Monomials::new(ts, 5)?,
        }))
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 5 {
            return Err(CoreError::params("Quartic", "expected 5 parameters"));
        }
        Ok(params.to_vec())
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 5 {
            return Err(CoreError::params("Quartic", "expected 5 parameters"));
        }
        Ok(Box::new(QuarticModel::new([
            params[0], params[1], params[2], params[3], params[4],
        ])?))
    }

    /// The flat curve at the nominal level. The fit asks for guesses only
    /// when its exact solve fails, and then the least-squares fit they
    /// could offer fails too.
    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![series.nominal(), 0.0, 0.0, 0.0, 0.0]]
    }
}

/// The Quartic's exact fit at fixed times ([`ModelFamily::design`]).
struct QuarticDesign<'a> {
    ts: &'a [f64],
    monomials: Monomials,
}

impl Design for QuarticDesign<'_> {
    /// The least-squares coefficients, where they and their SSE are finite.
    fn optimum(&self, ys: &[f64]) -> Option<Result<ExactOptimum, CoreError>> {
        let internal = self.monomials.coefficients(ys)?;
        super::solved(&QuarticFamily, self.ts, ys, internal).map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_finite() {
        assert!(QuarticModel::new([1.0, f64::NAN, 0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn horner_matches_naive() {
        let m = QuarticModel::new([1.0, -0.5, 0.25, -0.125, 0.0625]).unwrap();
        for &t in &[-1.0_f64, 0.0, 0.5, 2.0] {
            let naive = 1.0 - 0.5 * t + 0.25 * t * t - 0.125 * t.powi(3) + 0.0625 * t.powi(4);
            assert!((m.predict(t) - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn area_matches_quadrature() {
        let m = QuarticModel::new([1.0, -0.02, 0.002, -5e-5, 4e-7]).unwrap();
        let analytic = m.area(0.0, 40.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 40.0, 1e-12, 40)
                .unwrap();
        assert!((analytic - numeric).abs() < 1e-8);
    }

    #[test]
    fn can_express_two_troughs() {
        // P(t) with minima near t = 1 and t = 3: derivative ∝ (t−1)(t−2)(t−3).
        // ∫ 4(t−1)(t−2)(t−3) dt = t⁴ − 8t³ + 22t² − 24t (+ c).
        let m = QuarticModel::new([1.0, -0.24, 0.22, -0.08, 0.01]).unwrap();
        let p1 = m.predict(1.0);
        let p2 = m.predict(2.0);
        let p3 = m.predict(3.0);
        assert!(p1 < p2 && p3 < p2, "W shape: {p1}, {p2}, {p3}");
    }

    #[test]
    fn exact_fit_recovers_a_noiseless_quartic() {
        // One least-squares solve reproduces noiseless quartic data: no
        // search, one evaluation (the rescoring).
        use crate::fit::{fit_least_squares, FitConfig};
        let coeffs = [1.0, -0.04, 0.003, -6e-5, 4e-7];
        let truth = QuarticModel::new(coeffs).unwrap();
        let values: Vec<f64> = (0..48).map(|i| truth.predict(i as f64)).collect();
        let s = PerformanceSeries::monthly("w", values).unwrap();
        let fit = fit_least_squares(&QuarticFamily, &s, &FitConfig::default()).unwrap();
        assert_eq!((fit.evaluations, fit.total_evaluations), (1, 1));
        assert!(fit.converged);
        for (got, want) in fit.params.iter().zip(coeffs) {
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "{:?}",
                fit.params
            );
        }
        assert!(fit.sse < 1e-25, "{}", fit.sse);
    }

    #[test]
    fn too_few_times_fall_back_to_the_search() {
        // Four times cannot fix five coefficients: the design is rank
        // deficient, so the fit searches from the flat guess instead.
        use crate::fit::{fit_least_squares, FitConfig};
        let s = PerformanceSeries::monthly("short", vec![1.0, 0.97, 0.96, 0.99]).unwrap();
        let fit = fit_least_squares(&QuarticFamily, &s, &FitConfig::default()).unwrap();
        assert!(fit.total_evaluations > 1);
        assert!(fit.sse < 1e-6, "{}", fit.sse);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = QuarticFamily;
        let internal = [1.0, -0.24, 0.22, -0.08, 0.01];
        let mut params = [0.0; 5];
        fam.internal_to_params_into(&internal, &mut params);

        let ts = [0.0, 1.0, 2.5, 4.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        assert!(!fam.predict_params_into(&[1.0, f64::NAN, 0.0, 0.0, 0.0], &ts, &mut out));
    }

    #[test]
    fn family_identity_transform() {
        let fam = QuarticFamily;
        let p = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(fam.internal_to_params(&p), p);
        assert_eq!(fam.params_to_internal(&p).unwrap(), p);
        assert!(fam.params_to_internal(&[1.0]).is_err());
    }
}
