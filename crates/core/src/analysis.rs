//! High-level drivers that reproduce the paper's experiments.
//!
//! Each function corresponds to a table/figure of the paper:
//!
//! * [`evaluate_model`] — fit + goodness-of-fit row (Tables I and III).
//! * [`evaluate_models`] — several families on one data set.
//! * [`metrics_comparison`] — the actual/predicted/relative-error rows of
//!   Tables II and IV.
//! * [`band_series`] — fit + confidence band traces (Figs. 3–6).

use crate::fit::{fit_least_squares, FitConfig, FittedModel};
use crate::guard;
use crate::metrics::{actual_metric, predicted_metric, relative_error, MetricContext, MetricKind};
use crate::model::ModelFamily;
use crate::validate::{gof_report, GofReport};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_stats::inference::ConfidenceInterval;

/// The result of fitting and validating one family on one data set: a
/// row of the paper's Table I / Table III.
pub struct ModelEvaluation {
    /// Family name.
    pub family_name: &'static str,
    /// The fitted model and diagnostics.
    pub fit: FittedModel,
    /// Goodness-of-fit measures.
    pub gof: GofReport,
    /// Number of training observations.
    pub n_train: usize,
    /// Number of held-out observations (the paper's ℓ).
    pub horizon: usize,
}

impl std::fmt::Debug for ModelEvaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEvaluation")
            .field("family", &self.family_name)
            .field("gof", &self.gof)
            .field("n_train", &self.n_train)
            .field("horizon", &self.horizon)
            .finish()
    }
}

/// Fits `family` to all but the last `holdout` observations of `series`
/// and reports goodness of fit (train SSE, test PMSE, train adjusted R²,
/// EC of the `1−alpha` band over all observations).
///
/// # Errors
///
/// Propagates split, fit, and validation failures.
pub fn evaluate_model(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    holdout: usize,
    alpha: f64,
) -> Result<ModelEvaluation, CoreError> {
    if holdout == 0 || holdout + 2 > series.len() {
        return Err(CoreError::arg(
            "evaluate_model",
            format!(
                "holdout {holdout} leaves no usable training prefix of series with {} points",
                series.len()
            ),
        ));
    }
    let split = series.split_at(series.len() - holdout)?;
    let fit = fit_least_squares(family, &split.train, &FitConfig::default())?;
    let gof = gof_report(fit.model.as_ref(), &split, series, alpha)?;
    // Guard layer (DESIGN.md §8): no evaluation row leaves this driver
    // with a silent NaN — every table the paper reports is built on
    // these five numbers.
    guard::finite_outputs(
        "evaluate_model",
        &[gof.sse, gof.pmse, gof.r2_adj, gof.ec, gof.sigma],
    )?;
    Ok(ModelEvaluation {
        family_name: family.name(),
        n_train: split.train.len(),
        horizon: holdout,
        fit,
        gof,
    })
}

/// Evaluates several families on the same series (one table column per
/// family). Families that fail to fit are reported as errors in place.
pub fn evaluate_models(
    families: &[&dyn ModelFamily],
    series: &PerformanceSeries,
    holdout: usize,
    alpha: f64,
) -> Vec<Result<ModelEvaluation, CoreError>> {
    families
        .iter()
        .map(|f| evaluate_model(*f, series, holdout, alpha))
        .collect()
}

/// One metric row of the paper's Tables II / IV: the actual value plus
/// each model's prediction and relative error.
#[derive(Debug, Clone)]
pub struct MetricComparison {
    /// Which metric.
    pub kind: MetricKind,
    /// Value computed from the observed curve.
    pub actual: f64,
    /// Per-model `(family name, predicted, relative error)` triples, in
    /// the order the evaluations were supplied.
    pub predictions: Vec<(&'static str, f64, f64)>,
}

/// Computes all eight interval-based metrics in predictive mode for each
/// fitted model (the paper's Tables II and IV), with Eq. 21's weight `α
/// = weight`.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] when `evaluations` is empty, mixes
///   holdout horizons, or holds out too much of `series` to leave a
///   training prefix.
/// * Propagates metric computation failures.
pub fn metrics_comparison(
    evaluations: &[ModelEvaluation],
    series: &PerformanceSeries,
    weight: f64,
) -> Result<Vec<MetricComparison>, CoreError> {
    if evaluations.is_empty() {
        return Err(CoreError::arg("metrics_comparison", "no evaluations given"));
    }
    let holdout = evaluations[0].horizon;
    if evaluations.iter().any(|e| e.horizon != holdout) {
        return Err(CoreError::arg(
            "metrics_comparison",
            "evaluations use different holdout horizons",
        ));
    }
    if holdout + 2 > series.len() {
        return Err(CoreError::arg(
            "metrics_comparison",
            format!(
                "holdout {holdout} leaves no usable training prefix of series with {} points",
                series.len()
            ),
        ));
    }
    let split = series.split_at(series.len() - holdout)?;
    let mut rows = Vec::with_capacity(MetricKind::ALL.len());
    for kind in MetricKind::ALL {
        let mut actual_value: Option<f64> = None;
        let mut predictions = Vec::with_capacity(evaluations.len());
        for eval in evaluations {
            let ctx = MetricContext::predictive(&split, series, eval.fit.model.as_ref(), weight)?;
            let actual = actual_metric(series, kind, &ctx)?;
            let predicted = predicted_metric(eval.fit.model.as_ref(), kind, &ctx)?;
            let delta = relative_error(actual, predicted)?;
            // The actual value may differ microscopically across models
            // when t_min comes from the model; report the first.
            actual_value.get_or_insert(actual);
            predictions.push((eval.family_name, predicted, delta));
        }
        rows.push(MetricComparison {
            kind,
            actual: actual_value.expect("at least one evaluation"),
            predictions,
        });
    }
    Ok(rows)
}

/// Fit trace for a figure: times, observed values, model predictions,
/// and the `1−alpha` confidence band (paper Figs. 3–6).
#[derive(Debug, Clone)]
pub struct BandSeries {
    /// Observation times.
    pub times: Vec<f64>,
    /// Observed values.
    pub observed: Vec<f64>,
    /// Model predictions at the observation times.
    pub predicted: Vec<f64>,
    /// Confidence band intervals.
    pub band: Vec<ConfidenceInterval>,
}

/// Builds the plotted series of the paper's fit figures from an
/// evaluation.
///
/// # Errors
///
/// Propagates band-construction failures.
pub fn band_series(
    eval: &ModelEvaluation,
    series: &PerformanceSeries,
    alpha: f64,
) -> Result<BandSeries, CoreError> {
    let model = eval.fit.model.as_ref();
    let band = crate::validate::confidence_band(model, series.times(), eval.gof.sigma, alpha)?;
    Ok(BandSeries {
        times: series.times().to_vec(),
        observed: series.values().to_vec(),
        predicted: model.predict_many(series.times()),
        band,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use resilience_data::recessions::Recession;

    #[test]
    fn evaluate_quadratic_on_u_shaped_recession() {
        let s = Recession::R1990_93.payroll_index();
        let eval = evaluate_model(&QuadraticFamily, &s, 5, 0.05).unwrap();
        assert_eq!(eval.n_train, 43);
        assert_eq!(eval.horizon, 5);
        assert!(eval.gof.r2_adj > 0.85, "r2 = {}", eval.gof.r2_adj);
        assert!(eval.gof.ec > 0.85, "ec = {}", eval.gof.ec);
    }

    #[test]
    fn evaluate_rejects_bad_holdout() {
        let s = Recession::R1990_93.payroll_index();
        assert!(evaluate_model(&QuadraticFamily, &s, 0, 0.05).is_err());
        assert!(evaluate_model(&QuadraticFamily, &s, 47, 0.05).is_err());
    }

    #[test]
    fn evaluate_models_runs_both_bathtubs() {
        let s = Recession::R1990_93.payroll_index();
        let fams: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        let evals = evaluate_models(&fams, &s, 5, 0.05);
        assert_eq!(evals.len(), 2);
        for e in evals {
            let e = e.unwrap();
            assert!(e.gof.r2_adj > 0.8, "{}: {}", e.family_name, e.gof.r2_adj);
        }
    }

    #[test]
    fn metrics_comparison_shape() {
        let s = Recession::R1990_93.payroll_index();
        let evals: Vec<ModelEvaluation> = vec![
            evaluate_model(&QuadraticFamily, &s, 5, 0.05).unwrap(),
            evaluate_model(&CompetingRisksFamily, &s, 5, 0.05).unwrap(),
        ];
        let rows = metrics_comparison(&evals, &s, 0.5).unwrap();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.predictions.len(), 2);
            assert!(row.actual.is_finite());
            for (name, pred, delta) in &row.predictions {
                assert!(pred.is_finite(), "{name} {}", row.kind);
                assert!(delta.is_finite() && *delta >= 0.0);
            }
        }
    }

    #[test]
    fn metrics_predictions_close_on_well_fit_data() {
        // For the U-shaped 1990-93 curve the paper reports relative
        // errors below 0.01 on most metrics; assert a loose version.
        // The "lost" metrics divide by near-zero actual losses on this
        // recovered curve, so — as the paper observes for its normalized
        // loss metric — their relative errors blow up. Assert on the
        // five preserved-type metrics instead.
        let s = Recession::R1990_93.payroll_index();
        let evals = vec![evaluate_model(&CompetingRisksFamily, &s, 5, 0.05).unwrap()];
        let rows = metrics_comparison(&evals, &s, 0.5).unwrap();
        let preserved_kinds = [
            MetricKind::PerformancePreserved,
            MetricKind::NormalizedAveragePreserved,
            MetricKind::PreservedFromMinimum,
            MetricKind::AveragePreserved,
            MetricKind::WeightedBeforeAfterMinimum,
        ];
        let small_delta_count = rows
            .iter()
            .filter(|r| preserved_kinds.contains(&r.kind) && r.predictions[0].2 < 0.2)
            .count();
        assert!(
            small_delta_count >= 4,
            "expected most preserved metrics to predict well, got {small_delta_count}/5"
        );
    }

    #[test]
    fn metrics_comparison_validates_input() {
        let s = Recession::R1990_93.payroll_index();
        assert!(metrics_comparison(&[], &s, 0.5).is_err());
        let mut evals = vec![
            evaluate_model(&QuadraticFamily, &s, 5, 0.05).unwrap(),
            evaluate_model(&CompetingRisksFamily, &s, 3, 0.05).unwrap(),
        ];
        assert!(metrics_comparison(&evals, &s, 0.5).is_err());
        evals.truncate(1);
        assert!(metrics_comparison(&evals, &s, 0.5).is_ok());
        // A horizon longer than the compared series is an error, not an
        // underflow.
        let long = [evaluate_model(&QuadraticFamily, &s, 30, 0.05).unwrap()];
        let short = Recession::R2020_21.payroll_index();
        assert_eq!(short.len(), 24);
        let err = metrics_comparison(&long, &short, 0.5).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidArgument { .. }),
            "expected InvalidArgument, got {err}"
        );
    }

    #[test]
    fn band_series_dimensions() {
        let s = Recession::R2001_05.payroll_index();
        let eval = evaluate_model(&QuadraticFamily, &s, 5, 0.05).unwrap();
        let b = band_series(&eval, &s, 0.05).unwrap();
        assert_eq!(b.times.len(), 48);
        assert_eq!(b.observed.len(), 48);
        assert_eq!(b.predicted.len(), 48);
        assert_eq!(b.band.len(), 48);
        // The band brackets the prediction.
        for (p, ci) in b.predicted.iter().zip(&b.band) {
            assert!(ci.contains(*p));
        }
    }

    #[test]
    fn debug_output_mentions_family() {
        let s = Recession::R1990_93.payroll_index();
        let eval = evaluate_model(&QuadraticFamily, &s, 5, 0.05).unwrap();
        assert!(format!("{eval:?}").contains("Quadratic"));
    }
}
