//! Forward forecasting: extend a fitted resilience curve beyond the
//! observed data with uncertainty intervals.
//!
//! This is the operational form of the paper's motivation — "project when
//! the system will recover to a specified level of performance" — as a
//! single call: fit on everything observed so far, then emit point
//! forecasts with Eq. 13-style intervals for the next months, plus a
//! recovery outlook for user-specified performance levels.

use crate::fit::{fit_least_squares, FitConfig, FittedModel};
use crate::model::ModelFamily;
use crate::validate::{residual_sigma, sse};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_stats::inference::{normal_interval, ConfidenceInterval};

/// One forecast step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastPoint {
    /// Forecast time.
    pub t: f64,
    /// Point prediction `P(t)`.
    pub predicted: f64,
    /// `1 − α` interval around the prediction (Eq. 13 construction with
    /// the training residual σ).
    pub interval: ConfidenceInterval,
}

/// A fitted model's forecast over a future horizon.
pub struct Forecast {
    /// The fitted model used for the forecast.
    pub fit: FittedModel,
    /// Residual σ from the training fit (Eq. 12).
    pub sigma: f64,
    /// Forecast points, one per future month.
    pub points: Vec<ForecastPoint>,
}

impl std::fmt::Debug for Forecast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Forecast")
            .field("model", &self.fit.model.name())
            .field("sigma", &self.sigma)
            .field("horizon", &self.points.len())
            .finish()
    }
}

/// Fits `family` to the entire observed series and forecasts the next
/// `horizon` time steps (continuing the series' mean step size).
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] when `horizon == 0`.
/// * Propagates fit and inference failures.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::CompetingRisksFamily;
/// use resilience_core::forecast::forecast;
/// use resilience_data::recessions::Recession;
///
/// let observed = Recession::R1990_93.payroll_index();
/// let fc = forecast(&CompetingRisksFamily, &observed, 12, 0.05)?;
/// assert_eq!(fc.points.len(), 12);
/// // Forecasts continue past the last observed month (t = 47).
/// assert!(fc.points[0].t > 47.0);
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
pub fn forecast(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    horizon: usize,
    alpha: f64,
) -> Result<Forecast, CoreError> {
    if horizon == 0 {
        return Err(CoreError::arg("forecast", "horizon must be positive"));
    }
    let fit = fit_least_squares(family, series, &FitConfig::default())?;
    let sigma = residual_sigma(sse(fit.model.as_ref(), series), series.len())?;
    let times = series.times();
    let last_t = times[times.len() - 1];
    let mean_step = (times[times.len() - 1] - times[0]) / (times.len() - 1) as f64;
    let points = (1..=horizon)
        .map(|k| {
            let t = last_t + k as f64 * mean_step;
            let predicted = fit.model.predict(t);
            let interval = normal_interval(predicted, sigma, alpha)?;
            Ok(ForecastPoint {
                t,
                predicted,
                interval,
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(Forecast { fit, sigma, points })
}

/// Recovery outlook: for each performance level, the forecast time (if
/// any, within `horizon_months` past the data) at which the fitted model
/// reaches it.
///
/// # Errors
///
/// Propagates fit failures; returns [`CoreError::InvalidArgument`] for an
/// empty level list or zero horizon.
pub fn recovery_outlook(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    levels: &[f64],
    horizon_months: f64,
) -> Result<Vec<(f64, Option<f64>)>, CoreError> {
    if levels.is_empty() {
        return Err(CoreError::arg("recovery_outlook", "no levels given"));
    }
    if !(horizon_months > 0.0) {
        return Err(CoreError::arg(
            "recovery_outlook",
            "horizon must be positive",
        ));
    }
    let fit = fit_least_squares(family, series, &FitConfig::default())?;
    let times = series.times();
    let (t_min, _) = series
        .trough()
        .ok_or_else(|| CoreError::arg("recovery_outlook", "series is empty"))?;
    let horizon_end = times[times.len() - 1] + horizon_months;
    Ok(levels
        .iter()
        .map(|&level| {
            let t = fit.model.time_to_recover(level, t_min, horizon_end).ok();
            (level, t)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use resilience_data::recessions::Recession;

    #[test]
    fn forecast_extends_beyond_data() {
        let series = Recession::R1990_93.payroll_index();
        let fc = forecast(&CompetingRisksFamily, &series, 6, 0.05).unwrap();
        assert_eq!(fc.points.len(), 6);
        assert_eq!(fc.points[0].t, 48.0);
        assert_eq!(fc.points[5].t, 53.0);
        for p in &fc.points {
            assert!(p.interval.contains(p.predicted));
            assert!(p.predicted.is_finite());
        }
        assert!(fc.sigma > 0.0);
    }

    #[test]
    fn forecast_continues_the_recovery_trend() {
        // 1990-93 ends in a growth phase: the forecast should keep
        // rising.
        let series = Recession::R1990_93.payroll_index();
        let fc = forecast(&CompetingRisksFamily, &series, 12, 0.05).unwrap();
        let first = fc.points.first().unwrap().predicted;
        let last = fc.points.last().unwrap().predicted;
        assert!(last > first, "recovery should continue: {first} -> {last}");
    }

    #[test]
    fn forecast_rejects_zero_horizon() {
        let series = Recession::R1990_93.payroll_index();
        assert!(forecast(&QuadraticFamily, &series, 0, 0.05).is_err());
    }

    #[test]
    fn recovery_outlook_orders_levels() {
        let series = Recession::R1990_93.payroll_index();
        let outlook =
            recovery_outlook(&CompetingRisksFamily, &series, &[1.0, 1.05, 5.0], 120.0).unwrap();
        // Recovery to 1.0 happens before recovery to 1.05.
        let t_nominal = outlook[0].1.expect("recovers to nominal");
        let t_above = outlook[1].1.expect("reaches 1.05 eventually (linear term)");
        assert!(t_nominal < t_above);
        // An absurd level is not reached within the horizon.
        assert!(outlook[2].1.is_none());
    }

    #[test]
    fn recovery_outlook_validates() {
        let series = Recession::R1990_93.payroll_index();
        assert!(recovery_outlook(&QuadraticFamily, &series, &[], 10.0).is_err());
        assert!(recovery_outlook(&QuadraticFamily, &series, &[1.0], 0.0).is_err());
    }

    #[test]
    fn debug_impl() {
        let series = Recession::R1990_93.payroll_index();
        let fc = forecast(&QuadraticFamily, &series, 3, 0.05).unwrap();
        let s = format!("{fc:?}");
        assert!(s.contains("Quadratic"));
        assert!(s.contains('3'));
    }
}
