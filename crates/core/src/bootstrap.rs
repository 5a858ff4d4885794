//! Residual-bootstrap confidence bands — a nonparametric alternative to
//! the paper's Eq. 12–13 normal-theory band (listed as future work in
//! DESIGN.md §5).
//!
//! The Eq. 13 band assumes homoscedastic Gaussian residuals and ignores
//! parameter uncertainty; the residual bootstrap instead refits the model
//! on `B` synthetic series (fitted curve + resampled residuals) and reads
//! the band off the percentiles of the replicate predictions. It is wider
//! where the fit constrains the curve weakly (extrapolation beyond the
//! training window) — exactly the region the predictive metrics use.

use crate::fit::{fit_from, guarded_params, FitConfig};
use crate::model::ModelFamily;
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_obs::CounterId;
use resilience_optim::parallel::{catch_job, crew, run_each};
use resilience_optim::{Control, Parallelism};
use resilience_stats::describe::quantile_select;
use resilience_stats::XorShift64;
use std::sync::Mutex;

/// A pointwise bootstrap *prediction* band: each limit reflects both
/// parameter uncertainty (replicate refits) and observation noise (a
/// residual draw), so — like the paper's Eq. 13 band — it targets where
/// observations fall, not just the mean curve.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapBand {
    /// Evaluation times.
    pub times: Vec<f64>,
    /// Point predictions of the base fit.
    pub center: Vec<f64>,
    /// Lower band limits (`α/2` percentile of replicates).
    pub lower: Vec<f64>,
    /// Upper band limits (`1 − α/2` percentile of replicates).
    pub upper: Vec<f64>,
    /// Number of successful replicates.
    pub replicates: usize,
    /// Number of replicates whose refit failed (excluded).
    pub failed: usize,
}

impl BootstrapBand {
    /// Whether the observation `y` at index `i` falls inside the band.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn contains(&self, i: usize, y: f64) -> bool {
        y >= self.lower[i] && y <= self.upper[i]
    }

    /// Empirical coverage of a series by this band.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when the band is empty or
    /// the lengths differ.
    pub fn coverage(&self, series: &PerformanceSeries) -> Result<f64, CoreError> {
        if self.times.is_empty() {
            return Err(CoreError::arg(
                "BootstrapBand::coverage",
                "band is empty: no evaluation times",
            ));
        }
        if series.len() != self.times.len() {
            return Err(CoreError::arg(
                "BootstrapBand::coverage",
                format!(
                    "{} observations vs {} band points",
                    series.len(),
                    self.times.len()
                ),
            ));
        }
        let inside = series
            .values()
            .iter()
            .enumerate()
            .filter(|(i, y)| self.contains(*i, **y))
            .count();
        Ok(inside as f64 / series.len() as f64)
    }
}

/// The Nelder–Mead iteration cap of a replicate refit, in place of the
/// band's own: replicate surfaces are small perturbations of the original,
/// and each refit starts at the base optimum.
const REFIT_MAX_ITERATIONS: usize = 800;

/// Configuration for [`bootstrap_band`].
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates.
    pub replicates: usize,
    /// Significance level (0.05 → 95 % band).
    pub alpha: f64,
    /// Deterministic seed for the residual resampling. Replicate `i`
    /// draws from its own counter-derived stream
    /// ([`XorShift64::stream`]`(seed, i)`), so the band depends only on
    /// the seed — never on scheduling or thread count.
    pub seed: u64,
    /// Thread fan-out across replicates: the band's second crew, beside
    /// the base fit's of `FitConfig::parallelism`, since the replicates
    /// borrow what the base fit makes. Every setting produces bit-identical
    /// bands; a replicate that refits races its starts on a one-thread crew
    /// of its own, so the fan-out happens at exactly one level.
    pub parallelism: Parallelism,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            replicates: 200,
            alpha: 0.05,
            seed: 0x0B007,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Computes a residual-bootstrap band for `family` fit to `series`,
/// evaluated at every observation time.
///
/// The base fit uses `base_config`. Each replicate refits a synthetic
/// series (the fitted curve plus resampled residuals). The family's design
/// ([`ModelFamily::design`]) is built once, at the series' times, for the
/// base fit and every replicate. A design with an exact fit gives each
/// replicate its optimum of the replicate's values, under the fit's guard.
/// Otherwise, or where the design gives no optimum, the replicate refits
/// over the band's design (a mixture's profiled search reads its `ln t`)
/// with the same configuration, on its replicate's thread, from the base
/// optimum, and with its Nelder–Mead iterations capped at 800 (times the
/// family's [`ModelFamily::nm_iteration_scale`]). A replicate whose refit
/// errors, panics (isolated at the replicate) or predicts a non-finite
/// value counts as failed and is left out of the band.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for a bad configuration or when too
///   few replicates succeed (< 20 or < half of the requested number).
/// * Propagates the base fit's errors.
pub fn bootstrap_band(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    base_config: &FitConfig,
    config: &BootstrapConfig,
) -> Result<BootstrapBand, CoreError> {
    bootstrap_band_with(family, series, base_config, config, &Control::unbounded())
}

/// [`bootstrap_band`] under a [`Control`]'s telemetry sink.
///
/// Only the control's observer is used: deadline and cancellation are
/// stripped, so the run always completes. The sink receives the base
/// fit's solver trace and, once every replicate has run, the
/// `bootstrap_replicates_ok` and `bootstrap_replicates_failed` counters.
/// Replicate refits themselves run unobserved — hundreds of
/// near-identical solver traces would drown the log without adding
/// information.
///
/// # Errors
///
/// Same as [`bootstrap_band`].
pub fn bootstrap_band_with(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    base_config: &FitConfig,
    config: &BootstrapConfig,
    control: &Control,
) -> Result<BootstrapBand, CoreError> {
    if config.replicates < 20 {
        return Err(CoreError::arg(
            "bootstrap_band",
            format!("need at least 20 replicates, got {}", config.replicates),
        ));
    }
    if !(config.alpha > 0.0 && config.alpha < 1.0) {
        return Err(CoreError::arg(
            "bootstrap_band",
            format!("alpha must be in (0, 1), got {}", config.alpha),
        ));
    }
    let control = control.observer_only();
    let n = series.len();
    let times = series.times();
    // The base fit and every replicate fit the same times, so the family's
    // design is the band's.
    let design = family.design(times);
    // The base fit is observed: its solver trace anchors the log.
    let base = crew(base_config.parallelism, |crew| {
        fit_from(
            crew,
            family,
            series,
            design.as_ref(),
            None,
            base_config,
            &control,
        )
    })?;
    let fitted = base.model.predict_many(times);
    let residuals: Vec<f64> = series
        .values()
        .iter()
        .zip(&fitted)
        .map(|(y, f)| y - f)
        .collect();

    // Replicate refits always start at the base optimum.
    let mut refit_config = base_config.clone();
    refit_config.max_iterations = REFIT_MAX_ITERATIONS;
    let base_optimum = std::slice::from_ref(&base.params);
    // Replicate `rep` fills `row` with its predictions, or returns `None`
    // when it fails. It owns a counter-derived RNG stream, so its draws are
    // a pure function of (seed, replicate index): replicates can run on any
    // thread, in any order, and still produce the same band.
    let replicate = |rep: usize, row: &mut [f64]| -> Option<()> {
        let mut rng = XorShift64::stream(config.seed, rep as u64);
        // The synthetic series' values, in the row its predictions replace.
        for (y, f) in row.iter_mut().zip(&fitted) {
            *y = f + residuals[rng.next_index(n)];
        }
        // As `PerformanceSeries::new` would reject them.
        if row.iter().any(|y| !y.is_finite()) {
            return None;
        }
        match design.as_ref().and_then(|design| design.optimum(row)) {
            // The exact fit's point under its guard; a family predicts from
            // exactly the parameters it would build a model from.
            Some(exact) => {
                let exact = exact.ok()?;
                let params = guarded_params(family, &exact.internal, exact.sse).ok()?;
                family
                    .predict_params_into(&params, times, row)
                    .then_some(())?;
            }
            None => {
                let synth =
                    PerformanceSeries::new(series.name(), times.to_vec(), row.to_vec()).ok()?;
                // The fan-out happens across replicates, not inside them:
                // the refit races its starts on a crew of one thread, which
                // opens no scope.
                let fit = crew(Parallelism::Serial, |crew| {
                    fit_from(
                        crew,
                        family,
                        &synth,
                        design.as_ref(),
                        Some(base_optimum),
                        &refit_config,
                        &Control::unbounded(),
                    )
                })
                .ok()?;
                fit.model.predict_into(times, row);
            }
        }
        for p in row.iter_mut() {
            // Prediction band: parameter uncertainty (the refit) plus
            // observation noise (one more residual draw) — the bootstrap
            // analogue of the paper's Eq. 13 band, which also targets
            // observations rather than the mean curve.
            *p += residuals[rng.next_index(n)];
        }
        // Guard layer (DESIGN.md §8): a replicate whose refit produced a
        // non-finite prediction counts as failed — it must not reach the
        // quantile computation, which would otherwise reject the entire
        // band over one bad replicate.
        row.iter().all(|p| p.is_finite()).then_some(())
    };
    // One row of `n` predictions per replicate, in one buffer, with whether
    // the replicate succeeded. Each replicate locks only its own row.
    let mut predictions = vec![0.0; n * config.replicates];
    let rows: Vec<Mutex<(&mut [f64], bool)>> = predictions
        .chunks_exact_mut(n)
        .map(|row| Mutex::new((row, false)))
        .collect();
    run_each(config.parallelism, config.replicates, |rep| {
        let mut slot = rows[rep]
            .lock()
            .expect("replicates catch their panics, so no row is poisoned");
        let (row, ok) = &mut *slot;
        // Refit failure and replicate panic degrade identically: one failed
        // replicate, never a lost band.
        *ok = catch_job(rep, || replicate(rep, row).is_some()).unwrap_or(false);
    });
    // The design is the replicates': the limits do not read it.
    drop(design);
    let rows: Vec<&[f64]> = rows
        .into_iter()
        .filter_map(|slot| {
            let (row, ok) = slot
                .into_inner()
                .expect("replicates catch their panics, so no row is poisoned");
            ok.then_some(&*row)
        })
        .collect();
    let ok = rows.len();
    let failed = config.replicates - ok;
    control.count(CounterId::BootstrapReplicatesOk, ok as u64);
    control.count(CounterId::BootstrapReplicatesFailed, failed as u64);

    if ok < 20 || ok * 2 < config.replicates {
        return Err(CoreError::arg(
            "bootstrap_band",
            format!(
                "only {ok}/{} replicates refit successfully",
                config.replicates
            ),
        ));
    }
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    let (mut values, mut scratch) = (Vec::with_capacity(ok), Vec::with_capacity(ok));
    for i in 0..n {
        // The replicates' predictions at time i, in replicate order, each
        // finite (the guard above): each limit selects the order statistics
        // it reads.
        values.clear();
        values.extend(rows.iter().map(|row| row[i]));
        lower.push(quantile_select(&values, config.alpha / 2.0, &mut scratch)?);
        upper.push(quantile_select(
            &values,
            1.0 - config.alpha / 2.0,
            &mut scratch,
        )?);
    }
    Ok(BootstrapBand {
        times: times.to_vec(),
        center: fitted,
        lower,
        upper,
        replicates: ok,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::QuadraticFamily;
    use crate::mixture::{ComponentKind, MixtureFamily, Trend};
    use resilience_data::recessions::Recession;

    fn quick_config() -> BootstrapConfig {
        BootstrapConfig {
            replicates: 60,
            ..BootstrapConfig::default()
        }
    }

    #[test]
    fn band_brackets_center_and_covers_data() {
        let series = Recession::R1990_93.payroll_index();
        let band = bootstrap_band(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
        )
        .unwrap();
        assert_eq!(band.times.len(), series.len());
        for i in 0..band.times.len() {
            assert!(band.lower[i] <= band.upper[i]);
            // Center generally inside, allowing percentile wiggle.
            assert!(band.center[i] >= band.lower[i] - 0.01);
            assert!(band.center[i] <= band.upper[i] + 0.01);
        }
        let coverage = band.coverage(&series).unwrap();
        assert!(coverage > 0.5, "coverage = {coverage}");
    }

    #[test]
    fn band_is_deterministic_under_seed() {
        let series = Recession::R1990_93.payroll_index();
        let a = bootstrap_band(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
        )
        .unwrap();
        let b = bootstrap_band(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
        )
        .unwrap();
        assert_eq!(a.lower, b.lower);
        assert_eq!(a.upper, b.upper);
    }

    /// Quadratic, and Wei-Exp, whose replicate refits search its profiled
    /// components from the base optimum (DESIGN.md §11).
    #[test]
    fn band_is_invariant_to_thread_count() {
        let series = Recession::R1990_93.payroll_index();
        let wei_exp = MixtureFamily {
            f1: ComponentKind::Weibull,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        let families: [&dyn ModelFamily; 2] = [&QuadraticFamily, &wei_exp];
        for family in families {
            let run = |p: Parallelism| {
                bootstrap_band(
                    family,
                    &series,
                    &FitConfig::default(),
                    &BootstrapConfig {
                        parallelism: p,
                        ..quick_config()
                    },
                )
                .unwrap()
            };
            let serial = run(Parallelism::Serial);
            let name = family.name();
            for p in [
                Parallelism::Fixed(1),
                Parallelism::Fixed(4),
                Parallelism::Auto,
            ] {
                let par = run(p);
                assert_eq!(par.lower, serial.lower, "{name} {p:?}");
                assert_eq!(par.upper, serial.upper, "{name} {p:?}");
                assert_eq!(par.replicates, serial.replicates, "{name} {p:?}");
            }
        }
    }

    #[test]
    fn rejects_bad_configuration() {
        let series = Recession::R1990_93.payroll_index();
        let mut cfg = quick_config();
        cfg.replicates = 5;
        assert!(bootstrap_band(&QuadraticFamily, &series, &FitConfig::default(), &cfg).is_err());
        let mut cfg = quick_config();
        cfg.alpha = 0.0;
        assert!(bootstrap_band(&QuadraticFamily, &series, &FitConfig::default(), &cfg).is_err());
    }

    #[test]
    fn coverage_validates_length() {
        let series = Recession::R1990_93.payroll_index();
        let band = bootstrap_band(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
        )
        .unwrap();
        let short = Recession::R2020_21.payroll_index();
        assert!(band.coverage(&short).is_err());
    }

    #[test]
    fn coverage_rejects_an_empty_band() {
        let empty = BootstrapBand {
            times: vec![],
            center: vec![],
            lower: vec![],
            upper: vec![],
            replicates: 0,
            failed: 0,
        };
        let series = Recession::R1990_93.payroll_index();
        let err = empty.coverage(&series).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn telemetry_reports_replicate_counters() {
        use resilience_obs::{CounterId, Event, RecordingObserver};
        use std::sync::Arc;
        let series = Recession::R1990_93.payroll_index();
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::unbounded().observe(rec.clone());
        let band = bootstrap_band_with(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
            &control,
        )
        .unwrap();
        let events = rec.take();
        // The base fit's span anchors the log.
        assert!(events.iter().any(|e| matches!(e, Event::FitStarted { .. })));
        // Ok + failed counters account for every replicate.
        let counted = |id: CounterId| -> u64 {
            events
                .iter()
                .filter_map(|e| match *e {
                    Event::Counter { id: c, delta } if c == id => Some(delta),
                    _ => None,
                })
                .sum()
        };
        assert_eq!(
            counted(CounterId::BootstrapReplicatesFailed),
            band.failed as u64
        );
        assert_eq!(
            counted(CounterId::BootstrapReplicatesOk)
                + counted(CounterId::BootstrapReplicatesFailed),
            60
        );
    }

    #[test]
    fn observed_band_is_identical_to_unobserved() {
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;
        let series = Recession::R1990_93.payroll_index();
        let plain = bootstrap_band(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
        )
        .unwrap();
        let control = Control::unbounded().observe(Arc::new(RecordingObserver::new()));
        let traced = bootstrap_band_with(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &quick_config(),
            &control,
        )
        .unwrap();
        assert_eq!(traced, plain);
    }
}
