//! Least-squares model fitting (paper Eq. 8).
//!
//! The pipeline minimizes `Σᵢ (R(tᵢ) − P(tᵢ; θ))²` over each family's
//! feasible parameter set. Because the SSE surfaces are nonconvex
//! (especially for mixtures), fitting runs multi-start Nelder–Mead from
//! the family's data-driven guesses in the *internal* (unconstrained)
//! space, then optionally polishes the winner with Levenberg–Marquardt.

use crate::guard::{self, Violation};
use crate::model::{ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::sum::sum_squared_diff;
use resilience_obs::{Event, HistogramId};
use resilience_optim::levenberg_marquardt::{LevenbergMarquardt, LmConfig};
use resilience_optim::multi_start::multi_start_nelder_mead_with_control;
use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
use resilience_optim::problem::LeastSquares;
use resilience_optim::report::{OptimReport, TerminationReason};
use resilience_optim::{Control, Objective, OptimError, Parallelism};
use std::cell::RefCell;

/// Default evaluation budget under which a converged warm-start probe
/// short-circuits the cold multi-start phase (see [`WarmStart`]).
pub const DEFAULT_WARM_EVAL_BUDGET: usize = 600;

/// Warm-start seeding for [`fit_least_squares`].
///
/// When present in [`FitConfig::warm_start`], the fit first runs a single
/// Nelder–Mead probe seeded from `params` (typically a previous point-fit
/// optimum — bootstrap replicates and runtime retries resample *around*
/// the same basin, so the old optimum is almost always in it). A probe
/// that converges within `max_evaluations` objective evaluations
/// short-circuits the cold multi-start entirely; otherwise the cold phase
/// runs as usual and the better of the two results wins, with the warm
/// result keeping ties (it is conceptually start 0).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// External (feasible) parameters to seed from.
    pub params: Vec<f64>,
    /// Evaluation budget for the short-circuit test.
    pub max_evaluations: usize,
}

impl WarmStart {
    /// Warm start from `params` with [`DEFAULT_WARM_EVAL_BUDGET`].
    #[must_use]
    pub fn new(params: Vec<f64>) -> Self {
        WarmStart {
            params,
            max_evaluations: DEFAULT_WARM_EVAL_BUDGET,
        }
    }
}

/// Configuration for [`fit_least_squares`].
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Nelder–Mead settings for the multi-start phase.
    pub nelder_mead: NelderMeadConfig,
    /// Whether to polish the multi-start winner with Levenberg–Marquardt.
    pub lm_polish: bool,
    /// Levenberg–Marquardt settings for the polish phase.
    pub lm: LmConfig,
    /// Cap on the number of starting points taken from
    /// [`ModelFamily::initial_guesses`].
    pub max_starts: usize,
    /// Thread fan-out for the multi-start phase. Every setting produces
    /// bit-identical results; see `DESIGN.md` §Performance & determinism.
    pub parallelism: Parallelism,
    /// Optional warm start (previous optimum); see [`WarmStart`].
    pub warm_start: Option<WarmStart>,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            // Basin-finding tolerances: Nelder–Mead only needs to land in
            // the right basin, because the Levenberg–Marquardt polish
            // (analytic Jacobians, DESIGN.md §11) drives the winner to
            // machine-precision optimality far faster than simplex
            // contraction would. Tightening these back to {1e-13, 1e-9}
            // reproduces the pre-§11 fits but costs ~2.5x the wall clock
            // for SSE changes below 1e-10.
            // The iteration cap only binds for the 5–6 parameter extended
            // families (the paper's 3-parameter families converge by
            // tolerance near ~150 iterations); those families scale it
            // via [`ModelFamily::nm_iteration_scale`] — 600×2 covers the
            // ~1000 iterations a double-episode fit needs to settle.
            nelder_mead: NelderMeadConfig {
                max_iterations: 600,
                f_tol: 1e-7,
                x_tol: 1e-5,
                ..NelderMeadConfig::default()
            },
            lm_polish: true,
            lm: LmConfig::default(),
            max_starts: 24,
            parallelism: Parallelism::Auto,
            warm_start: None,
        }
    }
}

/// A fitted resilience model together with fit diagnostics.
pub struct FittedModel {
    /// The fitted model.
    pub model: Box<dyn ResilienceModel>,
    /// External (feasible) parameters.
    pub params: Vec<f64>,
    /// Sum of squared errors on the fitting data (paper Eq. 9).
    pub sse: f64,
    /// Number of objective evaluations consumed across all starts.
    pub evaluations: usize,
    /// Whether the winning Nelder–Mead run *or* the Levenberg–Marquardt
    /// polish terminated by convergence (rather than hitting an iteration
    /// budget). The default Nelder–Mead tolerances are basin-finding
    /// loose, so the polish converging is the usual certificate. A
    /// non-converged fit is still usable — it is the best point found —
    /// but it is what [`crate::runtime::RetryPolicy`] retries with
    /// jittered starts.
    pub converged: bool,
}

impl std::fmt::Debug for FittedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedModel")
            .field("name", &self.model.name())
            .field("params", &self.params)
            .field("sse", &self.sse)
            .field("evaluations", &self.evaluations)
            .field("converged", &self.converged)
            .finish()
    }
}

/// The SSE objective over a family's internal space, with reusable
/// scratch so one evaluation allocates nothing. Implements the optimizer
/// [`Objective`] trait: scalar evaluation for the simplex updates, and a
/// batched evaluation that routes whole simplexes through the family's
/// single-pass [`ModelFamily::sse_batch_into`] kernel when it has one
/// (bit-identical to the scalar path by that method's contract).
struct SseObjective<'a> {
    family: &'a dyn ModelFamily,
    times: &'a [f64],
    observed: &'a [f64],
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> SseObjective<'a> {
    fn new(family: &'a dyn ModelFamily, times: &'a [f64], observed: &'a [f64]) -> Self {
        SseObjective {
            family,
            times,
            observed,
            scratch: RefCell::new((vec![0.0; family.n_params()], vec![0.0; times.len()])),
        }
    }
}

impl Objective for SseObjective<'_> {
    fn eval(&self, internal: &[f64]) -> f64 {
        let mut guard = self.scratch.borrow_mut();
        let (params, predicted) = &mut *guard;
        self.family.internal_to_params_into(internal, params);
        if !self
            .family
            .predict_params_into(params, self.times, predicted)
        {
            return f64::INFINITY;
        }
        if predicted.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        sum_squared_diff(self.observed, predicted)
    }

    fn eval_batch(&self, points: &[f64], n_dims: usize, out: &mut [f64]) {
        assert_eq!(
            points.len(),
            n_dims * out.len(),
            "eval_batch requires points.len() == n_dims * out.len()"
        );
        debug_assert_eq!(n_dims, self.family.n_params());
        if !self
            .family
            .sse_batch_into(points, self.times, self.observed, out)
        {
            for (o, x) in out.iter_mut().zip(points.chunks_exact(n_dims)) {
                *o = self.eval(x);
            }
        }
    }
}

/// The least-squares residual problem `r_i = y_i − P(t_i; θ(u))` over the
/// internal space, for the Levenberg–Marquardt polish. Forwards the
/// family's analytic Jacobian (negated, per the residual sign) when it
/// has one.
struct FamilyResiduals<'a> {
    family: &'a dyn ModelFamily,
    times: &'a [f64],
    observed: &'a [f64],
    params_scratch: RefCell<Vec<f64>>,
}

impl LeastSquares for FamilyResiduals<'_> {
    fn n_params(&self) -> usize {
        self.family.n_params()
    }

    fn n_residuals(&self) -> usize {
        self.observed.len()
    }

    fn residuals(&self, internal: &[f64], out: &mut [f64]) {
        // Predictions are written straight into the residual buffer, then
        // flipped in place, so LM's residual sweeps allocate nothing.
        let params = &mut *self.params_scratch.borrow_mut();
        self.family.internal_to_params_into(internal, params);
        if self.family.predict_params_into(params, self.times, out) {
            for (r, &y) in out.iter_mut().zip(self.observed) {
                *r = y - *r;
            }
        } else {
            out.fill(f64::NAN);
        }
    }

    fn jacobian_into(&self, internal: &[f64], out: &mut Matrix) -> Option<()> {
        let params = &mut *self.params_scratch.borrow_mut();
        self.family.internal_to_params_into(internal, params);
        if !self
            .family
            .predict_jacobian_into(internal, params, self.times, out)
        {
            return None;
        }
        // The family writes ∂P/∂u; residuals are y − P, so J = −∂P/∂u.
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                out[(i, j)] = -out[(i, j)];
            }
        }
        Some(())
    }
}

/// Fits `family` to `series` by least squares (paper Eq. 8).
///
/// # Errors
///
/// * [`CoreError::Fit`] when every start fails (e.g. the family cannot
///   represent any curve near the data).
/// * [`CoreError::Numerical`] when the winning SSE or parameters are
///   non-finite (guard layer; should not happen since the objective maps
///   infeasible points to +∞, defensive).
/// * [`CoreError::InvalidParameters`] when the winning parameters fail to
///   rebuild (should not happen; defensive).
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::QuadraticFamily;
/// use resilience_core::fit::{fit_least_squares, FitConfig};
/// use resilience_data::PerformanceSeries;
///
/// // Noiseless quadratic data is recovered exactly.
/// let values: Vec<f64> = (0..40)
///     .map(|i| {
///         let t = i as f64;
///         1.0 - 0.012 * t + 0.0004 * t * t
///     })
///     .collect();
/// let series = PerformanceSeries::monthly("demo", values)?;
/// let fit = fit_least_squares(&QuadraticFamily, &series, &FitConfig::default())?;
/// assert!(fit.sse < 1e-10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fit_least_squares(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
) -> Result<FittedModel, CoreError> {
    fit_least_squares_with(family, series, config, &Control::unbounded())
}

/// [`fit_least_squares`] under an execution [`Control`] (deadline and/or
/// cancellation token).
///
/// Every solver in the multi-start phase polls the control between
/// iterations, so a fit whose objective loops forever at the iteration
/// level — or simply takes too long — returns [`CoreError::TimedOut`] /
/// [`CoreError::Cancelled`] instead of hanging the caller. A stop during
/// the optional Levenberg–Marquardt polish is *not* an error: the
/// multi-start winner is already a valid fit, so the polish is skipped
/// and that winner is returned.
///
/// # Errors
///
/// Everything [`fit_least_squares`] returns, plus [`CoreError::TimedOut`]
/// and [`CoreError::Cancelled`] when the control stops the multi-start
/// phase.
pub fn fit_least_squares_with(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    control: &Control,
) -> Result<FittedModel, CoreError> {
    let observed = series.values();
    let times = series.times();
    let n_params = family.n_params();

    // SSE objective over the internal space; infeasible parameters map to
    // +∞ so the simplex contracts away from them. Each instance owns
    // scratch buffers (zero heap allocations per evaluation); the factory
    // hands every worker thread of the multi-start phase its own instance.
    let make_objective = || SseObjective::new(family, times, observed);

    // Families whose landscapes need longer simplex walks scale the
    // configured iteration cap (see [`ModelFamily::nm_iteration_scale`]);
    // for the paper families the factor is 1 and this is `config`'s cap
    // unchanged. Applies to the warm probe and the cold phase alike.
    let nm_config = NelderMeadConfig {
        max_iterations: config
            .nelder_mead
            .max_iterations
            .saturating_mul(family.nm_iteration_scale()),
        ..config.nelder_mead.clone()
    };

    let traced = control.observed();
    let map_stop = |e: OptimError| match e {
        OptimError::TimedOut { .. } => CoreError::timed_out("fit_least_squares"),
        OptimError::Cancelled { .. } => CoreError::cancelled("fit_least_squares"),
        other => CoreError::Fit(other),
    };

    // Warm-start probe: one serial Nelder–Mead run seeded from the
    // provided optimum. Seeded this close, it usually converges in a
    // fraction of the cold phase's budget and short-circuits it entirely
    // (see [`WarmStart`]). A probe that fails to convert or start is not
    // an error — the cold phase below covers for it — but a deadline or
    // cancellation stop propagates like any other.
    let mut warm_report: Option<OptimReport> = None;
    let mut fit_started_emitted = false;
    let mut short_circuit = false;
    if let Some(warm) = &config.warm_start {
        if let Ok(internal) = family.params_to_internal(&warm.params) {
            if traced {
                control.emit(Event::FitStarted {
                    family: family.name(),
                    starts: 1,
                });
                fit_started_emitted = true;
            }
            let objective = make_objective();
            match NelderMead::new(nm_config.clone())
                .minimize_with_control(&objective, &internal, control)
            {
                Ok(report) => {
                    short_circuit = report.termination == TerminationReason::Converged
                        && report.evaluations <= warm.max_evaluations;
                    warm_report = Some(report);
                }
                Err(e) if e.is_stop() => return Err(map_stop(e)),
                Err(_) => {}
            }
        }
    }

    let cold = if short_circuit {
        None
    } else {
        // Collect internal starting points from the family's guesses.
        let starts: Vec<Vec<f64>> = family
            .initial_guesses(series)
            .into_iter()
            .filter_map(|g| family.params_to_internal(&g).ok())
            .take(config.max_starts)
            .collect();
        if starts.is_empty() && warm_report.is_none() {
            return Err(CoreError::Fit(
                resilience_optim::OptimError::AllStartsFailed { attempts: 0 },
            ));
        }
        if traced && !fit_started_emitted {
            control.emit(Event::FitStarted {
                family: family.name(),
                starts: starts.len() as u32,
            });
        }
        if starts.is_empty() {
            None
        } else {
            match multi_start_nelder_mead_with_control(
                &make_objective,
                &starts,
                &nm_config,
                config.parallelism,
                control,
            ) {
                Ok(report) => Some(report),
                Err(e) if e.is_stop() => return Err(map_stop(e)),
                // Every cold start failed: fatal only without a warm fit.
                Err(e) => match warm_report {
                    Some(_) => None,
                    None => return Err(map_stop(e)),
                },
            }
        }
    };

    // Reduce: the warm result is conceptually start 0, so it wins ties
    // (same strict `<` rule as the multi-start driver).
    let best = match (warm_report, cold) {
        (Some(w), Some(c)) => {
            if c.value < w.value {
                c
            } else {
                w
            }
        }
        (Some(w), None) => w,
        (None, Some(c)) => c,
        (None, None) => unreachable!("guarded by the empty-starts check above"),
    };
    let nm_converged = best.termination == TerminationReason::Converged;
    let mut lm_converged = false;
    let mut best_internal = best.params;
    let mut best_sse = best.value;
    let mut evaluations = best.evaluations;

    if config.lm_polish {
        // The residual problem carries the family's analytic Jacobian when
        // it has one (all six paper families; DESIGN.md §11), so LM skips
        // its finite-difference sweeps; reusable scratch keeps the polish
        // allocation-free per iteration either way.
        let problem = FamilyResiduals {
            family,
            times,
            observed,
            params_scratch: RefCell::new(vec![0.0; n_params]),
        };
        // A failed or stopped polish is not a fit failure: the multi-start
        // winner above is already a complete answer, so `Err` here (LM
        // divergence, deadline, cancellation) just skips the refinement.
        if let Ok(report) = LevenbergMarquardt::new(config.lm.clone()).minimize_with_control(
            &problem,
            &best_internal,
            control,
        ) {
            evaluations += report.evaluations;
            lm_converged = report.termination == TerminationReason::Converged;
            if report.value < best_sse {
                best_sse = report.value;
                best_internal = report.params;
            }
        }
    }
    let converged = nm_converged || lm_converged;

    // Guard layer (DESIGN.md §8): the optimizer can only hand back a
    // finite SSE because the objective maps off-domain points to +∞, but
    // a regression anywhere in that chain would otherwise leak NaN into
    // every downstream table. Fail loudly instead.
    if !best_sse.is_finite() {
        return Err(CoreError::guard(
            "fit_least_squares",
            Violation::NonFiniteOutput,
            format!("final SSE for {} is {best_sse}", family.name()),
        ));
    }
    let params = family.internal_to_params(&best_internal);
    guard::finite_outputs(family.name(), &params)?;
    let model = family.build(&params)?;
    if traced {
        // The fit span closes here; `evaluations` is the winning start
        // plus polish (counter events above carry the per-start totals).
        control.emit(Event::FitFinished {
            family: family.name(),
            sse: best_sse,
            evaluations: evaluations as u64,
            converged,
        });
        control.emit(Event::Hist {
            id: HistogramId::EvalsPerFit,
            value: evaluations as u64,
        });
    }
    Ok(FittedModel {
        model,
        params,
        sse: best_sse,
        evaluations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use crate::mixture::MixtureFamily;

    fn quadratic_series(noise: f64) -> PerformanceSeries {
        let mut wiggle = 0.41_f64;
        let values: Vec<f64> = (0..48)
            .map(|i| {
                let t = i as f64;
                wiggle = (wiggle * 137.0).fract();
                1.0 - 0.012 * t + 0.0004 * t * t + noise * (wiggle - 0.5)
            })
            .collect();
        PerformanceSeries::monthly("quad", values).unwrap()
    }

    #[test]
    fn quadratic_family_recovers_exact_parameters() {
        let s = quadratic_series(0.0);
        let fit = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        assert!(fit.sse < 1e-12, "sse = {}", fit.sse);
        assert!((fit.params[0] - 1.0).abs() < 1e-4);
        assert!((fit.params[1] + 0.012).abs() < 1e-5);
        assert!((fit.params[2] - 0.0004).abs() < 1e-6);
    }

    #[test]
    fn quadratic_family_fits_noisy_data() {
        let s = quadratic_series(0.002);
        let fit = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        // SSE should be on the order of n·(noise/2)²·(1/3) ≈ 1e-5.
        assert!(fit.sse < 1e-4, "sse = {}", fit.sse);
        assert!((fit.params[1] + 0.012).abs() < 2e-3);
    }

    #[test]
    fn competing_risks_recovers_exact_parameters() {
        let truth = crate::bathtub::CompetingRisksModel::new(1.0, 0.2, 0.0008).unwrap();
        use crate::model::ResilienceModel;
        let values: Vec<f64> = (0..48).map(|i| truth.predict(i as f64)).collect();
        let s = PerformanceSeries::monthly("cr", values).unwrap();
        let fit = fit_least_squares(&CompetingRisksFamily, &s, &FitConfig::default()).unwrap();
        assert!(fit.sse < 1e-10, "sse = {}", fit.sse);
        assert!((fit.params[0] - 1.0).abs() < 1e-3, "{:?}", fit.params);
        assert!((fit.params[1] - 0.2).abs() < 0.05, "{:?}", fit.params);
    }

    #[test]
    fn mixture_fits_recession_data_well() {
        let s = resilience_data::recessions::Recession::R1990_93.payroll_index();
        let fam = &MixtureFamily::paper_combinations()[1]; // Wei-Exp
        let fit = fit_least_squares(fam, &s, &FitConfig::default()).unwrap();
        // 48 points spanning a 2% dip: a good fit is SSE ≲ 1e-3.
        assert!(fit.sse < 5e-3, "sse = {}", fit.sse);
        assert_eq!(fit.model.name(), "Wei-Exp");
    }

    #[test]
    fn fit_is_deterministic() {
        let s = quadratic_series(0.002);
        let a = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        let b = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.sse, b.sse);
    }

    #[test]
    fn fit_parallelism_is_bit_identical() {
        let s = quadratic_series(0.002);
        let serial = fit_least_squares(
            &QuadraticFamily,
            &s,
            &FitConfig {
                parallelism: Parallelism::Serial,
                ..FitConfig::default()
            },
        )
        .unwrap();
        for p in [
            Parallelism::Fixed(1),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let fit = fit_least_squares(
                &QuadraticFamily,
                &s,
                &FitConfig {
                    parallelism: p,
                    ..FitConfig::default()
                },
            )
            .unwrap();
            assert_eq!(fit.params, serial.params, "{p:?}");
            assert_eq!(fit.sse, serial.sse, "{p:?}");
            assert_eq!(fit.evaluations, serial.evaluations, "{p:?}");
        }
    }

    #[test]
    fn lm_polish_never_hurts() {
        let s = quadratic_series(0.002);
        let with = fit_least_squares(
            &QuadraticFamily,
            &s,
            &FitConfig {
                lm_polish: true,
                ..FitConfig::default()
            },
        )
        .unwrap();
        let without = fit_least_squares(
            &QuadraticFamily,
            &s,
            &FitConfig {
                lm_polish: false,
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert!(with.sse <= without.sse + 1e-15);
    }

    #[test]
    fn debug_impl_mentions_name() {
        let s = quadratic_series(0.0);
        let fit = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        let dbg = format!("{fit:?}");
        assert!(dbg.contains("Quadratic"));
        assert!(dbg.contains("converged"));
    }

    #[test]
    fn expired_deadline_is_a_typed_timeout() {
        let s = quadratic_series(0.002);
        let err = fit_least_squares_with(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &Control::with_deadline(std::time::Duration::ZERO),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::TimedOut { what } if what == "fit_least_squares"),
            "{err}"
        );
    }

    #[test]
    fn cancellation_is_a_typed_cancel() {
        let token = resilience_optim::CancelToken::new();
        token.cancel();
        let s = quadratic_series(0.002);
        let err = fit_least_squares_with(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &Control::with_token(&token),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled { .. }), "{err}");
    }

    #[test]
    fn unbounded_control_is_bit_identical_to_plain_fit() {
        let s = quadratic_series(0.002);
        let plain = fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        let controlled = fit_least_squares_with(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &Control::unbounded(),
        )
        .unwrap();
        assert_eq!(plain.params, controlled.params);
        assert_eq!(plain.sse, controlled.sse);
        assert_eq!(plain.evaluations, controlled.evaluations);
        assert!(plain.converged);
    }
}
