//! Model selection: information criteria and forward-chaining cross
//! validation.
//!
//! The paper notes that "model selection is ultimately a subjective
//! choice… a primary consideration is the tradeoff between model
//! complexity and predictive accuracy" (§III-B). This module makes that
//! tradeoff quantitative with the standard tools: AIC/AICc/BIC computed
//! from the Gaussian least-squares likelihood, and expanding-window
//! (forward-chaining) cross validation that scores each family purely on
//! out-of-sample prediction — the criterion the paper's PMSE gestures at,
//! averaged over many split points instead of one.

use crate::fit::{fit_least_squares, FitConfig};
use crate::guard::Violation;
use crate::model::ModelFamily;
use crate::validate;
use crate::CoreError;
use resilience_data::PerformanceSeries;

/// Information criteria for a least-squares fit under the Gaussian
/// likelihood: `AIC = n·ln(SSE/n) + 2k`, the small-sample `AICc`, and
/// `BIC = n·ln(SSE/n) + k·ln n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InformationCriteria {
    /// Akaike information criterion.
    pub aic: f64,
    /// Small-sample corrected AIC.
    pub aicc: f64,
    /// Bayesian (Schwarz) information criterion.
    pub bic: f64,
}

/// Computes [`InformationCriteria`] from a fit's SSE.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] when `n ≤ k + 2` (AICc
/// denominator) or `sse ≤ 0` (a perfect fit has −∞ criteria; callers
/// should treat that case separately).
pub fn information_criteria(
    sse: f64,
    n: usize,
    n_params: usize,
) -> Result<InformationCriteria, CoreError> {
    if !(sse > 0.0) || !sse.is_finite() {
        return Err(CoreError::arg(
            "information_criteria",
            format!("need finite SSE > 0, got {sse}"),
        ));
    }
    if n <= n_params + 2 {
        return Err(CoreError::arg(
            "information_criteria",
            format!("need n > k + 2, got n = {n}, k = {n_params}"),
        ));
    }
    let nf = n as f64;
    let k = n_params as f64;
    let base = nf * (sse / nf).ln();
    let aic = base + 2.0 * k;
    let aicc = aic + 2.0 * k * (k + 1.0) / (nf - k - 1.0);
    let bic = base + k * nf.ln();
    Ok(InformationCriteria { aic, aicc, bic })
}

/// Result of forward-chaining cross validation for one family.
#[derive(Debug, Clone, PartialEq)]
pub struct CvScore {
    /// Family name.
    pub family_name: &'static str,
    /// Mean squared one-step-block prediction error across folds.
    pub mean_pmse: f64,
    /// Per-fold PMSE values (one per split point).
    pub fold_pmse: Vec<f64>,
    /// Number of folds that failed to fit (excluded from the mean).
    pub failed_folds: usize,
}

/// Expanding-window cross validation: fit on `[0, split)`, score squared
/// prediction error on the next `horizon` observations, for every split
/// in `min_train ..= n − horizon` stepping by `step`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] for degenerate geometry or when
/// every fold fails.
pub fn forward_chain_cv(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    min_train: usize,
    horizon: usize,
    step: usize,
    config: &FitConfig,
) -> Result<CvScore, CoreError> {
    let n = series.len();
    if horizon == 0 || step == 0 {
        return Err(CoreError::arg(
            "forward_chain_cv",
            "horizon and step must be positive",
        ));
    }
    if min_train < 4 || min_train + horizon > n {
        return Err(CoreError::arg(
            "forward_chain_cv",
            format!("need 4 <= min_train and min_train + horizon <= n, got {min_train} + {horizon} vs {n}"),
        ));
    }
    let mut fold_pmse = Vec::new();
    let mut failed = 0usize;
    let mut split = min_train;
    while split + horizon <= n {
        match series.split_at(split) {
            Ok(parts) => match fit_least_squares(family, &parts.train, config) {
                Ok(fit) => {
                    // Score only the next `horizon` points.
                    let times = &parts.test.times()[..horizon];
                    let values = &parts.test.values()[..horizon];
                    let mut acc = 0.0;
                    for (&t, &y) in times.iter().zip(values) {
                        let d = y - fit.model.predict(t);
                        acc += d * d;
                    }
                    let p = acc / horizon as f64;
                    if p.is_finite() {
                        fold_pmse.push(p);
                    } else {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            },
            Err(_) => failed += 1,
        }
        split += step;
    }
    if fold_pmse.is_empty() {
        return Err(CoreError::arg(
            "forward_chain_cv",
            format!("all {failed} folds failed"),
        ));
    }
    let mean = fold_pmse.iter().sum::<f64>() / fold_pmse.len() as f64;
    Ok(CvScore {
        family_name: family.name(),
        mean_pmse: mean,
        fold_pmse,
        failed_folds: failed,
    })
}

/// One ranked row of a model-selection table.
#[derive(Debug, Clone)]
pub struct SelectionRow {
    /// Family name.
    pub family_name: &'static str,
    /// Number of parameters.
    pub n_params: usize,
    /// Training SSE.
    pub sse: f64,
    /// Adjusted R² on the training data.
    pub r2_adj: f64,
    /// Information criteria (None for an exactly-zero SSE fit).
    pub criteria: Option<InformationCriteria>,
}

/// Machine-readable classification of why a family was excluded from a
/// ranking. Callers branching on degradation (dashboards, alerting)
/// should match on this rather than parse [`FamilyFailure::reason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Fitting or scoring returned a genuine error.
    Error,
    /// The family exceeded its time budget (see
    /// [`crate::runtime::ExecPolicy::family_budget`]).
    TimedOut,
    /// The run was cancelled via a
    /// [`CancelToken`](resilience_optim::CancelToken).
    Cancelled,
    /// The family's fit panicked; the panic was isolated to this family.
    Panicked,
    /// The fit was never attempted: the family's circuit breaker was open
    /// when the job was scheduled
    /// (see [`crate::runtime::BreakerPolicy`]).
    Skipped,
}

impl FailureKind {
    /// The telemetry classification for this failure
    /// ([`resilience_obs::Event::FitFailed`]).
    pub fn code(self) -> resilience_obs::FailureCode {
        match self {
            FailureKind::Error => resilience_obs::FailureCode::Error,
            FailureKind::TimedOut => resilience_obs::FailureCode::TimedOut,
            FailureKind::Cancelled => resilience_obs::FailureCode::Cancelled,
            FailureKind::Panicked => resilience_obs::FailureCode::Panicked,
            FailureKind::Skipped => resilience_obs::FailureCode::Skipped,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Error => write!(f, "error"),
            FailureKind::TimedOut => write!(f, "timed out"),
            FailureKind::Cancelled => write!(f, "cancelled"),
            FailureKind::Panicked => write!(f, "panicked"),
            FailureKind::Skipped => write!(f, "skipped"),
        }
    }
}

/// A family that could not be ranked, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyFailure {
    /// Family name.
    pub family_name: &'static str,
    /// Human-readable reason the family was excluded from the ranking.
    pub reason: String,
    /// Machine-readable failure classification.
    pub kind: FailureKind,
}

/// The full outcome of [`rank_models`]: ranked rows plus an explicit
/// record of every family that failed, so a selection table can show
/// "failed: …" rows instead of silently shrinking.
#[derive(Debug, Clone)]
pub struct Ranking {
    /// Successfully fitted families, ranked by AICc (ascending; ties and
    /// zero-SSE fits sort first).
    pub rows: Vec<SelectionRow>,
    /// Families that failed to fit or score, in input order.
    pub failures: Vec<FamilyFailure>,
    /// `true` when at least one family failed — the ranking is usable but
    /// incomplete (graceful degradation; see `DESIGN.md` §9). Always
    /// equals `!failures.is_empty()`; carried explicitly so report layers
    /// can surface the flag without re-deriving it.
    pub degraded: bool,
}

/// Scores one successfully fitted family into a [`SelectionRow`]: the
/// non-finite-SSE guard, adjusted R², and information criteria.
///
/// Shared by [`rank_models`] and
/// [`crate::runtime::rank_models_supervised`], which own the fan-out and
/// failure handling around it.
pub(crate) fn score_family(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    fit: &crate::fit::FittedModel,
) -> Result<SelectionRow, FamilyFailure> {
    let fail = |stage: &str, e: CoreError| FamilyFailure {
        family_name: family.name(),
        reason: format!("{stage}: {e}"),
        kind: FailureKind::Error,
    };
    // Guard layer (DESIGN.md §8): a family whose winning SSE is
    // non-finite must land in `failures` with a structured error, never
    // be ranked with NaN (NaN-keyed sorts are arbitrary and silently
    // poison the table).
    if !fit.sse.is_finite() {
        return Err(fail(
            "guard",
            CoreError::guard(
                "rank_models",
                Violation::NonFiniteOutput,
                format!("final SSE is {}", fit.sse),
            ),
        ));
    }
    let r2 = validate::r2_adjusted(fit.model.as_ref(), series, family.n_params())
        .map_err(|e| fail("adjusted R²", e))?;
    if !r2.is_finite() {
        return Err(fail(
            "guard",
            CoreError::guard(
                "rank_models",
                Violation::NonFiniteOutput,
                format!("adjusted R² is {r2}"),
            ),
        ));
    }
    let criteria = information_criteria(fit.sse, series.len(), family.n_params()).ok();
    Ok(SelectionRow {
        family_name: family.name(),
        n_params: family.n_params(),
        sse: fit.sse,
        r2_adj: r2,
        criteria,
    })
}

/// Sorts ranked rows by AICc (ascending; zero-SSE fits, whose criteria
/// are `None`, sort first).
pub(crate) fn sort_rows(rows: &mut [SelectionRow]) {
    rows.sort_by(|a, b| {
        let ka = a.criteria.map(|c| c.aicc).unwrap_or(f64::NEG_INFINITY);
        let kb = b.criteria.map(|c| c.aicc).unwrap_or(f64::NEG_INFINITY);
        ka.total_cmp(&kb)
    });
}

/// Fits each family to the full series and ranks them by AICc (ascending;
/// ties and zero-SSE fits sort first).
///
/// Fits run in parallel according to `config.parallelism`: with two or
/// more threads, the starts of every family's fit race at once on the
/// call's one crew, longest search first, and each fit then finishes on
/// the calling thread (a one-cell ranking has fewer cells than threads;
/// see [`rank_fleet_supervised`](crate::runtime::rank_fleet_supervised));
/// results are identical for every thread count. Families
/// that fail — including by panicking, which is isolated per family —
/// are reported in [`Ranking::failures`] with the underlying error, not
/// silently omitted.
///
/// This is [`crate::runtime::rank_models_supervised`] with no time
/// budget, no retry policy, and an unbounded control.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] when *no* family fits.
pub fn rank_models(
    families: &[&dyn ModelFamily],
    series: &PerformanceSeries,
    config: &FitConfig,
) -> Result<Ranking, CoreError> {
    crate::runtime::rank_models_supervised(
        families,
        series,
        config,
        &crate::runtime::ExecPolicy::default(),
        &resilience_optim::Control::unbounded(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
    use resilience_data::recessions::Recession;

    #[test]
    fn criteria_formulas() {
        let ic = information_criteria(0.01, 48, 3).unwrap();
        let base = 48.0 * (0.01f64 / 48.0).ln();
        assert!((ic.aic - (base + 6.0)).abs() < 1e-12);
        assert!((ic.bic - (base + 3.0 * 48f64.ln())).abs() < 1e-12);
        assert!(ic.aicc > ic.aic);
    }

    #[test]
    fn criteria_reject_degenerate() {
        assert!(information_criteria(0.0, 48, 3).is_err());
        assert!(information_criteria(1.0, 5, 3).is_err());
        assert!(information_criteria(f64::NAN, 48, 3).is_err());
    }

    #[test]
    fn bic_penalizes_parameters_harder_for_large_n() {
        let few = information_criteria(0.01, 100, 2).unwrap();
        let many = information_criteria(0.01, 100, 6).unwrap();
        assert!((many.bic - few.bic) > (many.aic - few.aic));
    }

    #[test]
    fn rank_models_prefers_parsimony_on_simple_data() {
        // Noiseless quadratic truth: both quadratic (3 params) and quartic
        // (5 params) fit essentially exactly; AICc should rank by SSE and
        // parameter count such that the quartic does not beat the
        // quadratic purely by overfitting.
        use crate::model::ResilienceModel;
        let truth = crate::bathtub::QuadraticModel::new(1.0, -0.012, 0.0004).unwrap();
        let mut w = 0.7_f64;
        let values: Vec<f64> = (0..48)
            .map(|i| {
                w = (w * 113.0).fract();
                truth.predict(i as f64) + 0.002 * (w - 0.5)
            })
            .collect();
        let series = PerformanceSeries::monthly("q", values).unwrap();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let ranking = rank_models(&families, &series, &FitConfig::default()).unwrap();
        assert_eq!(ranking.rows.len(), 2);
        assert!(ranking.failures.is_empty());
        assert!(!ranking.degraded);
        assert_eq!(
            ranking.rows[0].family_name, "Quadratic",
            "parsimony should win on quadratic truth: {:?}",
            ranking.rows
        );
    }

    #[test]
    fn rank_models_reports_failures_with_reasons() {
        // A family whose every start is infeasible: params_to_internal
        // always errors, so fitting has no starts and fails.
        struct Hopeless;
        impl ModelFamily for Hopeless {
            fn name(&self) -> &'static str {
                "Hopeless"
            }
            fn n_params(&self) -> usize {
                3
            }
            fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
                out.copy_from_slice(internal);
            }
            fn params_to_internal(&self, _params: &[f64]) -> Result<Vec<f64>, CoreError> {
                Err(CoreError::arg("Hopeless", "never feasible"))
            }
            fn build(
                &self,
                _params: &[f64],
            ) -> Result<Box<dyn crate::model::ResilienceModel>, CoreError> {
                Err(CoreError::arg("Hopeless", "never feasible"))
            }
            fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
                vec![vec![1.0, 1.0, 1.0]]
            }
        }
        let series = Recession::R1990_93.payroll_index();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &Hopeless];
        let ranking = rank_models(&families, &series, &FitConfig::default()).unwrap();
        assert_eq!(ranking.rows.len(), 1);
        assert_eq!(ranking.failures.len(), 1);
        assert_eq!(ranking.failures[0].family_name, "Hopeless");
        assert_eq!(ranking.failures[0].kind, FailureKind::Error);
        assert!(ranking.degraded);
        assert!(
            ranking.failures[0].reason.starts_with("fit: "),
            "reason should name the failing stage: {}",
            ranking.failures[0].reason
        );
        // With *only* failing families the call errors outright.
        let none: Vec<&dyn ModelFamily> = vec![&Hopeless];
        assert!(rank_models(&none, &series, &FitConfig::default()).is_err());
    }

    #[test]
    fn rank_models_reports_nan_objective_family_as_failure() {
        // A family whose predictions are always NaN: the SSE objective
        // sees a NaN curve at every start, so the fit must fail and the
        // family must land in `failures` — never be ranked with a NaN
        // SSE.
        struct NanObjective;
        impl ModelFamily for NanObjective {
            fn name(&self) -> &'static str {
                "NaN-objective"
            }
            fn n_params(&self) -> usize {
                2
            }
            fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
                out.copy_from_slice(internal);
            }
            fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
                Ok(params.to_vec())
            }
            fn predict_params_into(&self, _params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
                out.fill(f64::NAN);
                true
            }
            fn build(
                &self,
                _params: &[f64],
            ) -> Result<Box<dyn crate::model::ResilienceModel>, CoreError> {
                struct NanModel;
                impl crate::model::ResilienceModel for NanModel {
                    fn name(&self) -> &'static str {
                        "NaN-objective"
                    }
                    fn params(&self) -> Vec<f64> {
                        vec![f64::NAN, f64::NAN]
                    }
                    fn predict(&self, _t: f64) -> f64 {
                        f64::NAN
                    }
                }
                Ok(Box::new(NanModel))
            }
            fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
                vec![vec![0.5, 0.5], vec![1.0, 1.0]]
            }
        }
        let series = Recession::R1990_93.payroll_index();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &NanObjective];
        let ranking = rank_models(&families, &series, &FitConfig::default()).unwrap();
        assert_eq!(ranking.rows.len(), 1);
        assert_eq!(ranking.rows[0].family_name, "Quadratic");
        assert!(ranking.rows[0].sse.is_finite());
        assert_eq!(ranking.failures.len(), 1);
        assert_eq!(ranking.failures[0].family_name, "NaN-objective");
        assert!(
            !ranking.failures[0].reason.is_empty(),
            "failure must carry a reason"
        );
    }

    #[test]
    fn rank_models_parallelism_is_bit_identical() {
        use resilience_optim::Parallelism;
        let series = Recession::R1990_93.payroll_index();
        let families: Vec<&dyn ModelFamily> =
            vec![&QuadraticFamily, &QuarticFamily, &CompetingRisksFamily];
        let run = |p: Parallelism| {
            rank_models(
                &families,
                &series,
                &FitConfig {
                    parallelism: p,
                    ..FitConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(Parallelism::Serial);
        for p in [
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let par = run(p);
            assert_eq!(par.rows.len(), serial.rows.len(), "{p:?}");
            for (a, b) in par.rows.iter().zip(&serial.rows) {
                assert_eq!(a.family_name, b.family_name, "{p:?}");
                assert_eq!(a.sse, b.sse, "{p:?}");
                assert_eq!(a.r2_adj, b.r2_adj, "{p:?}");
                assert_eq!(a.criteria, b.criteria, "{p:?}");
            }
        }
    }

    #[test]
    fn forward_chain_cv_runs_and_averages() {
        let series = Recession::R1990_93.payroll_index();
        let cv =
            forward_chain_cv(&QuadraticFamily, &series, 30, 3, 5, &FitConfig::default()).unwrap();
        assert!(!cv.fold_pmse.is_empty());
        assert!(cv.mean_pmse > 0.0);
        let mean = cv.fold_pmse.iter().sum::<f64>() / cv.fold_pmse.len() as f64;
        assert!((mean - cv.mean_pmse).abs() < 1e-15);
    }

    #[test]
    fn forward_chain_cv_validates_geometry() {
        let series = Recession::R1990_93.payroll_index();
        let cfg = FitConfig::default();
        assert!(forward_chain_cv(&QuadraticFamily, &series, 30, 0, 5, &cfg).is_err());
        assert!(forward_chain_cv(&QuadraticFamily, &series, 2, 3, 5, &cfg).is_err());
        assert!(forward_chain_cv(&QuadraticFamily, &series, 47, 3, 5, &cfg).is_err());
    }

    #[test]
    fn cv_separates_families_on_u_shape() {
        // On the smooth 1990-93 curve both bathtub families should CV
        // reasonably; the test checks the machinery orders finite scores.
        let series = Recession::R1990_93.payroll_index();
        let cfg = FitConfig::default();
        let q = forward_chain_cv(&QuadraticFamily, &series, 36, 3, 4, &cfg).unwrap();
        let cr = forward_chain_cv(&CompetingRisksFamily, &series, 36, 3, 4, &cfg).unwrap();
        assert!(q.mean_pmse.is_finite());
        assert!(cr.mean_pmse.is_finite());
    }
}
