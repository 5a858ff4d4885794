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

use crate::fit::{fit_from, fit_least_squares_with, FitConfig};
use crate::model::ModelFamily;
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_obs::{CounterId, Event};
use resilience_optim::parallel::run_indexed_catch;
use resilience_optim::{Control, Parallelism};
use resilience_stats::describe::quantile_sorted;
use resilience_stats::XorShift64;

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
    /// Fit configuration for the replicate refits. Defaults to a single
    /// start at the base fit's optimum with a reduced iteration budget —
    /// replicate surfaces are small perturbations of the original.
    pub refit: FitConfig,
    /// Thread fan-out across replicates. Every setting produces
    /// bit-identical bands; the replicate refits themselves run serially
    /// so the fan-out happens at exactly one level.
    pub parallelism: Parallelism,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        let mut refit = FitConfig::default();
        refit.nelder_mead.max_iterations = 800;
        refit.max_starts = 1;
        BootstrapConfig {
            replicates: 200,
            alpha: 0.05,
            seed: 0x0B007,
            refit,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Computes a residual-bootstrap band for `family` fit to `series`,
/// evaluated at every observation time.
///
/// This is [`bootstrap_band_checkpointed`] with an unbounded control: it
/// always runs to completion in one call. A replicate whose refit panics
/// counts as a failed replicate (isolated at the job boundary), like one
/// whose refit errors.
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
/// Only the control's observer is used: the run always completes in one
/// call (deadline and cancellation are stripped — use
/// [`bootstrap_band_checkpointed`] for pausable runs). The sink receives
/// the base fit's solver trace, a [`Event::BootstrapChunkDone`] progress
/// event after each replicate chunk, and ok/failed replicate counters.
/// Replicate refits themselves run unobserved — hundreds of near-identical
/// solver traces would drown the log without adding information.
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
    let mut checkpoint = None;
    bootstrap_band_checkpointed(
        family,
        series,
        base_config,
        config,
        &mut checkpoint,
        &control.observer_only(),
    )?
    // An unbounded control can never pause the run, so the engine always
    // returns a finished band here; defensive rather than `unwrap`.
    .ok_or_else(|| CoreError::arg("bootstrap_band", "unbounded run returned no band"))
}

/// Resumable state of an interrupted [`bootstrap_band_checkpointed`] run:
/// the base fit's curve and residuals plus every replicate prediction
/// accumulated so far.
///
/// Opaque by design — callers only thread it back into the next call.
/// Because each replicate is a pure function of `(seed, replicate
/// index)`, a run resumed from a checkpoint is **bit-identical** to an
/// uninterrupted one.
#[derive(Debug, Clone)]
pub struct BootstrapCheckpoint {
    next_rep: usize,
    failed: usize,
    times: Vec<f64>,
    fitted: Vec<f64>,
    residuals: Vec<f64>,
    seed_params: Vec<f64>,
    /// Each successful replicate's predictions, in replicate order.
    predictions: Vec<Vec<f64>>,
}

impl BootstrapCheckpoint {
    /// Number of replicates already processed (successful or failed).
    #[must_use]
    pub fn replicates_done(&self) -> usize {
        self.next_rep
    }
}

/// [`bootstrap_band`] that can pause at a deadline and resume later.
///
/// On the first call pass `&mut None`: the base fit runs (always to
/// completion — it is the minimum unit of progress) and replicates are
/// processed in chunks. After each chunk the `control` is polled; if it
/// signals a stop, the accumulated state is saved into `checkpoint` and
/// the call returns `Ok(None)`. Calling again with the same arguments and
/// the saved checkpoint resumes exactly where the run left off. Every
/// call completes at least one chunk, so a caller looping on an expired
/// deadline still terminates.
///
/// The finished band is bit-identical to an uninterrupted
/// [`bootstrap_band`] run regardless of how many times the run was
/// paused, because each replicate's draws come from its own
/// counter-derived stream ([`XorShift64::stream`]`(seed, rep)`). On
/// completion the checkpoint is cleared back to `None`.
///
/// A replicate whose refit panics is isolated at the job boundary and
/// counted as failed, exactly like a replicate whose refit errors.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for a bad configuration, a checkpoint
///   inconsistent with `series`/`config`, or (on the final chunk) too few
///   successful replicates.
/// * Propagates the base fit's errors.
pub fn bootstrap_band_checkpointed(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    base_config: &FitConfig,
    config: &BootstrapConfig,
    checkpoint: &mut Option<BootstrapCheckpoint>,
    control: &Control,
) -> Result<Option<BootstrapBand>, CoreError> {
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
    let n = series.len();
    if checkpoint.is_none() {
        // The base fit is observed (its solver trace anchors the log) but
        // never deadline-stopped: it is the minimum unit of progress.
        let base = fit_least_squares_with(family, series, base_config, &control.observer_only())?;
        let times = series.times().to_vec();
        let fitted = base.model.predict_many(&times);
        let residuals: Vec<f64> = series
            .values()
            .iter()
            .zip(&fitted)
            .map(|(y, f)| y - f)
            .collect();
        *checkpoint = Some(BootstrapCheckpoint {
            next_rep: 0,
            failed: 0,
            times,
            fitted,
            residuals,
            seed_params: base.params,
            predictions: Vec::with_capacity(config.replicates),
        });
    }
    let cp = checkpoint.as_mut().expect("checkpoint initialized above");
    if cp.times.len() != n || cp.next_rep > config.replicates {
        return Err(CoreError::arg(
            "bootstrap_band",
            format!(
                "checkpoint does not match this run: {} band points for {} observations, \
                 {} of {} replicates done",
                cp.times.len(),
                n,
                cp.next_rep,
                config.replicates
            ),
        ));
    }

    // Replicate refits always start at the base optimum, and run
    // serially — the fan-out happens across replicates, not inside them.
    let mut refit_config = config.refit.clone();
    refit_config.max_starts = refit_config.max_starts.max(1);
    refit_config.parallelism = Parallelism::Serial;

    while cp.next_rep < config.replicates {
        let remaining = config.replicates - cp.next_rep;
        // Unbounded runs take everything in one chunk (no reason to pay
        // per-chunk pool setup); bounded runs use chunks large enough to
        // keep every worker busy but small enough that the deadline check
        // between chunks is responsive.
        let chunk = if control.is_unbounded() {
            remaining
        } else {
            let threads = config.parallelism.threads_for(remaining);
            remaining.min((threads * 8).max(32))
        };
        let start = cp.next_rep;
        let (times, fitted, residuals) = (&cp.times, &cp.fitted, &cp.residuals);
        let base_optimum = std::slice::from_ref(&cp.seed_params);
        // Each replicate owns a counter-derived RNG stream, so its draws
        // are a pure function of (seed, replicate index): replicates can
        // run on any thread, in any order, across any pause/resume split,
        // and still produce the same band.
        let replicate_preds =
            run_indexed_catch(config.parallelism, chunk, |j| -> Option<Vec<f64>> {
                let rep = start + j;
                let mut rng = XorShift64::stream(config.seed, rep as u64);
                let synth_values: Vec<f64> = (0..n)
                    .map(|i| fitted[i] + residuals[rng.next_index(n)])
                    .collect();
                let synth =
                    PerformanceSeries::new(series.name(), times.clone(), synth_values).ok()?;
                let fit = fit_from(
                    family,
                    &synth,
                    Some(base_optimum),
                    None,
                    &refit_config,
                    &Control::unbounded(),
                )
                .ok()?;
                let mut preds = vec![0.0; n];
                fit.model.predict_into(times, &mut preds);
                for p in &mut preds {
                    // Prediction band: parameter uncertainty (the refit) plus
                    // observation noise (one more residual draw) — the bootstrap
                    // analogue of the paper's Eq. 13 band, which also targets
                    // observations rather than the mean curve.
                    *p += residuals[rng.next_index(n)];
                }
                // Guard layer (DESIGN.md §8): a replicate whose refit
                // produced a non-finite prediction counts as failed — it
                // must not reach the quantile computation, which would
                // otherwise reject the entire band over one bad replicate.
                if preds.iter().any(|p| !p.is_finite()) {
                    return None;
                }
                Some(preds)
            });
        let failed_before = cp.failed;
        for outcome in replicate_preds {
            match outcome {
                Ok(Some(preds)) => cp.predictions.push(preds),
                // Refit failure and replicate panic degrade identically:
                // one failed replicate, never a lost band.
                Ok(None) | Err(_) => cp.failed += 1,
            }
        }
        cp.next_rep += chunk;
        let chunk_failed = cp.failed - failed_before;
        control.count(
            CounterId::BootstrapReplicatesOk,
            (chunk - chunk_failed) as u64,
        );
        control.count(CounterId::BootstrapReplicatesFailed, chunk_failed as u64);
        control.emit(Event::BootstrapChunkDone {
            done: cp.next_rep as u32,
            total: config.replicates as u32,
            failed: cp.failed as u32,
        });
        // The stop check runs *after* the chunk: every call makes at
        // least one chunk of progress even under an expired deadline.
        if cp.next_rep < config.replicates && control.stop_cause().is_some() {
            return Ok(None);
        }
    }

    let ok = config.replicates - cp.failed;
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
    let mut values = Vec::with_capacity(ok);
    for i in 0..n {
        // The replicates' predictions at time i, in replicate order. Each is
        // finite (the guard above), so one stable sort, the one `quantile`
        // gives its copy, serves both percentiles.
        values.clear();
        values.extend(cp.predictions.iter().map(|preds| preds[i]));
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite replicate predictions"));
        lower.push(quantile_sorted(&values, config.alpha / 2.0)?);
        upper.push(quantile_sorted(&values, 1.0 - config.alpha / 2.0)?);
    }
    let finished = checkpoint.take().expect("checkpoint present");
    Ok(Some(BootstrapBand {
        times: finished.times,
        center: finished.fitted,
        lower,
        upper,
        replicates: ok,
        failed: finished.failed,
    }))
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
    fn checkpointed_resume_is_bit_identical_to_uninterrupted() {
        use std::time::Duration;
        let series = Recession::R1990_93.payroll_index();
        // Fixed(2) workers → 32-replicate chunks, so 64 replicates take
        // exactly two chunked calls under an always-expired deadline.
        let cfg = BootstrapConfig {
            replicates: 64,
            parallelism: Parallelism::Fixed(2),
            ..BootstrapConfig::default()
        };
        let uninterrupted =
            bootstrap_band(&QuadraticFamily, &series, &FitConfig::default(), &cfg).unwrap();

        let expired = Control::with_deadline(Duration::ZERO);
        let mut checkpoint = None;
        // First call: base fit + one chunk, then pauses.
        let first = bootstrap_band_checkpointed(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &cfg,
            &mut checkpoint,
            &expired,
        )
        .unwrap();
        assert!(first.is_none(), "expired deadline must pause the run");
        let cp = checkpoint.as_ref().expect("pause must leave a checkpoint");
        assert_eq!(cp.replicates_done(), 32);

        // Resume until done; minimum-progress guarantees termination.
        let mut resumed = None;
        for _ in 0..10 {
            if let Some(band) = bootstrap_band_checkpointed(
                &QuadraticFamily,
                &series,
                &FitConfig::default(),
                &cfg,
                &mut checkpoint,
                &expired,
            )
            .unwrap()
            {
                resumed = Some(band);
                break;
            }
        }
        let resumed = resumed.expect("run must finish within 10 chunked calls");
        assert!(checkpoint.is_none(), "completion must clear the checkpoint");
        assert_eq!(resumed, uninterrupted);
    }

    #[test]
    fn telemetry_reports_chunk_progress_and_replicate_counters() {
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
        // An unbounded run takes all replicates in one chunk.
        let chunks: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::BootstrapChunkDone {
                    done,
                    total,
                    failed,
                } => Some((*done, *total, *failed)),
                _ => None,
            })
            .collect();
        assert_eq!(chunks, vec![(60, 60, band.failed as u32)]);
        // Ok + failed counters account for every replicate.
        let total_counted: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::BootstrapReplicatesOk | CounterId::BootstrapReplicatesFailed,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(total_counted, 60);
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

    #[test]
    fn checkpoint_from_a_different_series_is_rejected() {
        use std::time::Duration;
        let series = Recession::R1990_93.payroll_index();
        let cfg = BootstrapConfig {
            replicates: 64,
            parallelism: Parallelism::Fixed(2),
            ..BootstrapConfig::default()
        };
        let mut checkpoint = None;
        let paused = bootstrap_band_checkpointed(
            &QuadraticFamily,
            &series,
            &FitConfig::default(),
            &cfg,
            &mut checkpoint,
            &Control::with_deadline(Duration::ZERO),
        )
        .unwrap();
        assert!(paused.is_none());
        // Resuming against a series of a different length must error, not
        // silently mix two runs.
        let other = Recession::R2020_21.payroll_index();
        assert_ne!(other.len(), series.len());
        assert!(bootstrap_band_checkpointed(
            &QuadraticFamily,
            &other,
            &FitConfig::default(),
            &cfg,
            &mut checkpoint,
            &Control::unbounded(),
        )
        .is_err());
    }
}
