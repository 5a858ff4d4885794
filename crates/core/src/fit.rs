//! Least-squares model fitting (paper Eq. 8).
//!
//! The pipeline minimizes `Σᵢ (R(tᵢ) − P(tᵢ; θ))²` over each family's
//! feasible parameter set. Because the SSE surfaces are nonconvex
//! (especially for mixtures), fitting runs multi-start Nelder–Mead from
//! the family's data-driven guesses in the *internal* (unconstrained)
//! space, then optionally polishes the winner with Levenberg–Marquardt.
//! Coefficients a family is linear in are solved exactly at every point
//! of the search instead of searched; a family linear in all of them is
//! fit by one least-squares solve (DESIGN.md §11).

use crate::guard::{self, Violation};
use crate::model::{ModelFamily, ResilienceModel, Sign};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::{least_squares_qr, Matrix};
use resilience_math::sum::{sum_squared_diff, CompensatedSum};
use resilience_obs::{CounterId, Event, HistogramId};
use resilience_optim::levenberg_marquardt::{LevenbergMarquardt, LmConfig};
use resilience_optim::multi_start::{multi_start, StartReduction};
use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
use resilience_optim::problem::LeastSquares;
use resilience_optim::report::{OptimReport, TerminationReason};
use resilience_optim::{Control, OptimError, Parallelism};
use std::cell::RefCell;

/// The evaluation budget under which a converged warm probe
/// short-circuits the cold starts (see [`FitPlan::new`]).
const WARM_EVAL_BUDGET: usize = 600;

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
    /// [`ModelFamily::initial_guesses`], applied after a family with
    /// linear coefficients has merged the guesses that coincide in its
    /// nonlinear coordinates.
    pub max_starts: usize,
    /// Worker threads. A single fit runs its starts on this many; the
    /// ranker ([`crate::runtime::rank_fleet_supervised`], behind
    /// [`crate::selection::rank_models`]) spends them on its jobs when a
    /// wave has at least as many cells as threads, and otherwise on the
    /// starts of all the wave's fits in one pool. Every setting produces
    /// bit-identical results; see `DESIGN.md` §7 (threading model).
    pub parallelism: Parallelism,
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
    /// Objective evaluations of the winning Nelder–Mead run plus the
    /// Levenberg–Marquardt polish, plus one when a profiled fit rescores
    /// its lifted winner (DESIGN.md §11); an exact fit's one, its
    /// rescoring. The losing starts are not counted here;
    /// [`FittedModel::total_evaluations`] counts them.
    pub evaluations: usize,
    /// Every objective evaluation the fit spent: the warm probe, every
    /// cold start (winner and losers), the lift and the polish. A solver
    /// run that failed or was stopped is not counted, so this equals the
    /// total of the fit's observed `objective_evals` counters.
    pub total_evaluations: usize,
    /// Whether the winning Nelder–Mead run *or* the Levenberg–Marquardt
    /// polish terminated by convergence (rather than hitting an iteration
    /// budget); always for an exact fit. The default Nelder–Mead
    /// tolerances are basin-finding loose, so the polish converging is
    /// the usual certificate. A non-converged fit is still usable — it is
    /// the best point found — but it is what
    /// [`crate::runtime::RetryPolicy`] retries with jittered starts.
    pub converged: bool,
}

impl std::fmt::Debug for FittedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedModel")
            .field("name", &self.model.name())
            .field("params", &self.params)
            .field("sse", &self.sse)
            .field("evaluations", &self.evaluations)
            .field("total_evaluations", &self.total_evaluations)
            .field("converged", &self.converged)
            .finish()
    }
}

/// The SSE objective over a family's internal space, with reusable
/// scratch so one evaluation allocates nothing.
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

    /// The SSE at the internal point `internal`, or `+∞` where the family
    /// cannot predict or predicts a non-finite value.
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
}

/// The variable-projection objective (DESIGN.md §11) of a family with
/// linear coefficients ([`ModelFamily::linear_coefficients`]): Nelder–Mead
/// moves over the nonlinear coordinates `u`, and at each `u` the
/// coefficients are solved exactly by [`solve_linear_coefficients`]. Reuses
/// its offset and column buffers, so an evaluation allocates nothing.
struct ProfiledObjective<'a> {
    family: &'a dyn ModelFamily,
    times: &'a [f64],
    ln_times: &'a [f64],
    observed: &'a [f64],
    /// The offset, whose first `k` entries hold the coefficients after a
    /// solve, and the `k` columns.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> ProfiledObjective<'a> {
    fn new(
        family: &'a dyn ModelFamily,
        times: &'a [f64],
        ln_times: &'a [f64],
        observed: &'a [f64],
    ) -> Self {
        let (n, k) = (times.len(), family.linear_coefficients().len());
        ProfiledObjective {
            family,
            times,
            ln_times,
            observed,
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n * k])),
        }
    }

    /// The profiled SSE at `u`, or `+∞` where the profile is undefined.
    fn eval(&self, u: &[f64]) -> f64 {
        self.solve(u).unwrap_or(f64::INFINITY)
    }

    /// The SSE the optimal coefficients at `u` leave, or `None` where the
    /// profile is undefined. The coefficients stay in the scratch, for
    /// [`ProfiledObjective::coefficients`].
    fn solve(&self, u: &[f64]) -> Option<f64> {
        let mut guard = self.scratch.borrow_mut();
        let (offset, columns) = &mut *guard;
        if !self
            .family
            .linear_design_into(u, self.times, self.ln_times, offset, columns)
        {
            return None;
        }
        solve_linear_coefficients(
            self.observed,
            offset,
            columns,
            self.family.linear_coefficients(),
        )
    }

    /// The coefficients of the last successful [`ProfiledObjective::solve`].
    fn coefficients(&self) -> Vec<f64> {
        let k = self.family.linear_coefficients().len();
        self.scratch.borrow().0[..k].to_vec()
    }

    /// The full internal point at the nonlinear point `u`
    /// ([`ModelFamily::join_linear`] of `u` and its optimal coefficients),
    /// rescored with the full objective so that the SSE is the fitted
    /// model's own. `None` where the profile is undefined or the family
    /// cannot represent the coefficients.
    fn lift_point(&self, u: &[f64]) -> Option<(Vec<f64>, f64)> {
        self.solve(u)?;
        let internal = self.family.join_linear(u, &self.coefficients())?;
        let value = SseObjective::new(self.family, self.times, self.observed).eval(&internal);
        Some((internal, value))
    }

    /// Lifts a Nelder–Mead winner `u` back to the full internal vector,
    /// leaving `u` untouched, and rescores it — one more evaluation. `None`
    /// only if the profile is undefined at `u`, which a finite winner rules
    /// out.
    fn lift(&self, best: OptimReport) -> Option<OptimReport> {
        let (params, value) = self.lift_point(&best.params)?;
        Some(OptimReport {
            params,
            value,
            evaluations: best.evaluations + 1,
            ..best
        })
    }
}

/// The least-squares coefficient of one design column and the SSE it
/// leaves: for `observed ≈ offset + β·column`,
/// `β = ⟨observed − offset, column⟩ / ⟨column, column⟩` and
/// `SSE = Σ (observed − offset − β·column)²`, each sum compensated.
///
/// Returns `None` — which the fit's profiled objective maps to `+∞`, like
/// an infeasible point — when the slice lengths disagree, the column
/// vanishes (its squared norm is zero, subnormal or non-finite), `β` is
/// not finite, `β ≤ 0` (the families' coefficient is positive), or the
/// SSE is not finite.
///
/// # Examples
///
/// ```
/// use resilience_core::fit::solve_linear_coefficient;
/// let (beta, sse) = solve_linear_coefficient(&[1.0, 3.0], &[0.0, 1.0], &[0.5, 1.0]).unwrap();
/// assert_eq!((beta, sse), (2.0, 0.0));
/// assert!(solve_linear_coefficient(&[1.0, 3.0], &[0.0, 1.0], &[0.0, 0.0]).is_none());
/// ```
#[must_use]
pub fn solve_linear_coefficient(
    observed: &[f64],
    offset: &[f64],
    column: &[f64],
) -> Option<(f64, f64)> {
    if offset.len() != observed.len() || column.len() != observed.len() {
        return None;
    }
    let (mut rg, mut gg) = (CompensatedSum::new(), CompensatedSum::new());
    for ((&y, &o), &g) in observed.iter().zip(offset).zip(column) {
        rg.add((y - o) * g);
        gg.add(g * g);
    }
    let gg = gg.value();
    if !(gg >= f64::MIN_POSITIVE && gg.is_finite()) {
        return None;
    }
    let beta = rg.value() / gg;
    if !(beta > 0.0 && beta.is_finite()) {
        return None;
    }
    let mut sse = CompensatedSum::new();
    for ((&y, &o), &g) in observed.iter().zip(offset).zip(column) {
        let d = (y - o) - beta * g;
        sse.add(d * d);
    }
    let sse = sse.value();
    sse.is_finite().then_some((beta, sse))
}

/// The least-squares coefficients of `k = signs.len()` design columns and
/// the SSE they leave: for `observed ≈ offset + Σⱼ cⱼ·xⱼ`, with column `xⱼ`
/// at `columns[j·n .. (j + 1)·n]` (`n = observed.len()`), returns the SSE
/// and leaves `c` in `offset[..k]`.
///
/// One positive column is [`solve_linear_coefficient`], bit for bit, which
/// only reads `offset` and `columns` before `β` overwrites `offset[0]`. Any
/// other design is solved by Householder QR ([`least_squares_qr`]): it
/// overwrites `offset` with `observed − offset` and then with the
/// solution and the rotated residual, and `columns` with its factors.
///
/// Returns `None` — which the fit's profiled objective maps to `+∞`, like
/// an infeasible point — when the lengths disagree, the design is rank
/// deficient, a coefficient is not finite or breaks its [`Sign`], or the
/// SSE is not finite. Allocates nothing.
///
/// # Examples
///
/// ```
/// use resilience_core::fit::solve_linear_coefficients;
/// use resilience_core::model::Sign;
/// // 1 + 2t at t = 0, 1, 2, as two columns over a zero offset.
/// let mut offset = [0.0; 3];
/// let mut columns = [1.0, 1.0, 1.0, 0.0, 1.0, 2.0];
/// let sse = solve_linear_coefficients(&[1.0, 3.0, 5.0], &mut offset, &mut columns, &[Sign::Free; 2]);
/// assert!(sse.unwrap() < 1e-28);
/// assert!((offset[0] - 1.0).abs() < 1e-14 && (offset[1] - 2.0).abs() < 1e-14);
/// ```
pub fn solve_linear_coefficients(
    observed: &[f64],
    offset: &mut [f64],
    columns: &mut [f64],
    signs: &[Sign],
) -> Option<f64> {
    if let [Sign::Positive] = signs {
        let (beta, sse) = solve_linear_coefficient(observed, offset, columns)?;
        offset[0] = beta;
        return Some(sse);
    }
    if offset.len() != observed.len() {
        return None;
    }
    for (o, &y) in offset.iter_mut().zip(observed) {
        *o = y - *o;
    }
    let sse = least_squares_qr(columns, offset, signs.len())?;
    let signed = offset.iter().zip(signs).all(|(&c, sign)| match sign {
        Sign::Positive => c > 0.0,
        Sign::Free => true,
    });
    signed.then_some(sse)
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
/// The fit runs its three phases in a row: the plan (an exact solve, or
/// the starts), every start in one [`multi_start`] pool of
/// `config.parallelism` threads, and the finish (reduce, lift, polish,
/// guard). A family with no nonlinear coordinate left (Quadratic, Quartic;
/// DESIGN.md §11) skips the search and the polish: its fit is one solve,
/// the least-squares optimum when the family can represent it, and
/// otherwise the optimum on its region's boundary
/// ([`ModelFamily::boundary_optimum`], the Quadratic's bathtub cone), and
/// the control is polled once before it is rescored. Only a design with
/// fewer distinct times than coefficients searches.
///
/// # Errors
///
/// Everything [`fit_least_squares`] returns, plus [`CoreError::TimedOut`]
/// and [`CoreError::Cancelled`] when the control stops the multi-start
/// phase or an exact fit.
pub fn fit_least_squares_with(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    control: &Control,
) -> Result<FittedModel, CoreError> {
    fit_from(family, series, None, None, config, control)
}

/// [`fit_least_squares_with`] searching from `guesses` instead of the
/// family's own [`ModelFamily::initial_guesses`] (`None`): a retry's
/// jittered points, or a bootstrap replicate's base optimum. A `warm`
/// point, a retry's best fit so far, is probed first (see
/// [`FitPlan::new`]).
pub(crate) fn fit_from(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    guesses: Option<&[Vec<f64>]>,
    warm: Option<&[f64]>,
    config: &FitConfig,
    control: &Control,
) -> Result<FittedModel, CoreError> {
    let ln_times = if reads_ln_table(family) {
        ln_table(series.times())
    } else {
        Vec::new()
    };
    let plan = FitPlan::new(family, series, &ln_times, guesses, warm, config, control)?;
    let cold = multi_start(config.parallelism, plan.starts(), control, |i, c| {
        plan.minimize_start(i, c)
    });
    plan.finish(cold, config, control)
}

/// Whether `family` solves linear coefficients exactly instead of
/// searching them (DESIGN.md §11).
fn profiles(family: &dyn ModelFamily) -> bool {
    (1..=family.n_params()).contains(&family.linear_coefficients().len())
}

/// Whether a fit of `family` may read the `ln t` table: only a profiled
/// search over nonlinear coordinates does. An exact fit's design is
/// polynomial, and a fit over every coordinate has no design.
pub(crate) fn reads_ln_table(family: &dyn ModelFamily) -> bool {
    (1..family.n_params()).contains(&family.linear_coefficients().len())
}

/// `ln t` for every time: the table a profiled search's design reads
/// (DESIGN.md §11).
pub(crate) fn ln_table(times: &[f64]) -> Vec<f64> {
    times.iter().map(|t| t.ln()).collect()
}

/// The typed error of a Nelder–Mead phase, or of an exact fit's poll, that
/// failed or stopped.
fn phase_error(e: OptimError) -> CoreError {
    match e {
        OptimError::TimedOut { .. } => CoreError::timed_out("fit_least_squares"),
        OptimError::Cancelled { .. } => CoreError::cancelled("fit_least_squares"),
        other => CoreError::Fit(other),
    }
}

/// A fit between its plan and its finish.
///
/// [`FitPlan::new`] is the plan phase: an exact solve, or else the warm
/// probe, if any, and the cold starts. Each start then runs on its own
/// through [`FitPlan::minimize_start`], in any order and on any thread, and
/// its result goes into a [`StartReduction`]. [`FitPlan::finish`] reduces,
/// lifts, polishes and guards. [`fit_least_squares_with`] runs the phases
/// in a row; the ranker plans every family of a small wave, runs all their
/// starts in one pool, then finishes each (DESIGN.md §13). Both give
/// bit-identical fits and event logs.
pub(crate) struct FitPlan<'a> {
    family: &'a dyn ModelFamily,
    series: &'a PerformanceSeries,
    /// `ln t` per time when the search is profiled (DESIGN.md §11): it
    /// then moves over the nonlinear coordinates alone.
    ln_times: Option<&'a [f64]>,
    optimizer: NelderMead,
    /// An exact fit's internal point and SSE: the plan then has no warm
    /// probe and no starts.
    exact: Option<(Vec<f64>, f64)>,
    /// The warm probe's result, when it ran and did not fail.
    warm: Option<OptimReport>,
    /// The cold starts' search points, [`FitPlan::dim`] coordinates each.
    starts: Vec<f64>,
    dim: usize,
}

impl<'a> FitPlan<'a> {
    /// The plan phase: an exact solve, or the warm probe and the cold
    /// starts.
    ///
    /// A profiled family with no nonlinear coordinate is solved exactly
    /// when [`ModelFamily::join_linear`] accepts the least-squares
    /// coefficients, or else when [`ModelFamily::boundary_optimum`] gives
    /// the optimum on its region's boundary; the plan logs its
    /// `fit_started` with zero starts and computes no guesses. A rejected
    /// solve logs and counts nothing, and the fit searches every internal
    /// coordinate, as a family without linear coefficients does.
    ///
    /// Otherwise a `warm` point (external parameters, typically a previous
    /// optimum in the same basin) is probed first: one serial Nelder–Mead
    /// run from it. A probe that converges within [`WARM_EVAL_BUDGET`]
    /// evaluations is the whole plan, with no cold starts; otherwise the
    /// cold starts follow and the better result wins, the probe keeping
    /// ties (it is conceptually start 0). The starts are `guesses`, or the
    /// family's own when `None`, in the search space: every internal
    /// coordinate, or for a profiled family its nonlinear coordinates, in
    /// which case guesses that coincide there are merged, keeping the
    /// first, before `config.max_starts` applies. Guesses that do not convert are
    /// dropped. `ln_times` is [`ln_table`] of the series' times when
    /// [`reads_ln_table`], and may be empty otherwise.
    ///
    /// # Errors
    ///
    /// A stop during the warm probe, and [`OptimError::AllStartsFailed`]
    /// when no guess converts to a start and there is no warm result.
    pub(crate) fn new(
        family: &'a dyn ModelFamily,
        series: &'a PerformanceSeries,
        ln_times: &'a [f64],
        guesses: Option<&[Vec<f64>]>,
        warm: Option<&[f64]>,
        config: &FitConfig,
        control: &Control,
    ) -> Result<FitPlan<'a>, CoreError> {
        let traced = control.observed();
        let (n_params, k) = (family.n_params(), family.linear_coefficients().len());
        let mut profiled = profiles(family);
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
        let mut plan = FitPlan {
            family,
            series,
            ln_times: None,
            optimizer: NelderMead::new(nm_config),
            exact: None,
            warm: None,
            starts: Vec::new(),
            dim: 0,
        };
        if profiled && k == n_params {
            let (times, observed) = (series.times(), series.values());
            let finite = |(_, sse): &(Vec<f64>, f64)| sse.is_finite();
            let solved = ProfiledObjective::new(family, times, ln_times, observed)
                .lift_point(&[])
                .filter(finite)
                .or_else(|| {
                    let internal = family.boundary_optimum(times, observed)?;
                    let sse = SseObjective::new(family, times, observed).eval(&internal);
                    Some((internal, sse))
                })
                .filter(finite);
            if solved.is_some() {
                if traced {
                    control.emit(Event::FitStarted {
                        family: family.name(),
                        starts: 0,
                    });
                }
                plan.exact = solved;
                return Ok(plan);
            }
            profiled = false;
        }
        plan.ln_times = profiled.then_some(ln_times);
        let dim = if profiled { n_params - k } else { n_params };
        plan.dim = dim;

        // Warm probe: seeded this close, it usually converges in a fraction
        // of the cold phase's budget and short-circuits it entirely. A probe
        // that fails to convert or start is not an error — the cold phase
        // covers for it — but a deadline or cancellation stop propagates
        // like any other.
        let mut fit_started_emitted = false;
        if let Some(warm) = warm {
            if let Some(internal) = plan.search_point(warm) {
                if traced {
                    control.emit(Event::FitStarted {
                        family: family.name(),
                        starts: 1,
                    });
                    fit_started_emitted = true;
                }
                match plan.minimize(&internal, control) {
                    Ok(report) => {
                        let short_circuit = report.termination == TerminationReason::Converged
                            && report.evaluations <= WARM_EVAL_BUDGET;
                        plan.warm = Some(report);
                        if short_circuit {
                            return Ok(plan);
                        }
                    }
                    Err(e) if e.is_stop() => return Err(phase_error(e)),
                    Err(_) => {}
                }
            }
        }

        let own;
        let guesses = match guesses {
            Some(guesses) => guesses,
            None => {
                own = family.initial_guesses(series);
                &own
            }
        };
        let mut starts = Vec::new();
        let mut n_starts = 0;
        for point in guesses.iter().filter_map(|g| plan.search_point(g)) {
            if n_starts == config.max_starts {
                break;
            }
            if !(profiled && starts.chunks_exact(dim).any(|s| s == point)) {
                starts.extend_from_slice(&point);
                n_starts += 1;
            }
        }
        // Every planned fit of a pooled wave holds its starts until its
        // finish, so keep only what they use.
        starts.shrink_to_fit();
        plan.starts = starts;
        if n_starts == 0 && plan.warm.is_none() {
            return Err(CoreError::Fit(OptimError::AllStartsFailed { attempts: 0 }));
        }
        if traced && !fit_started_emitted {
            control.emit(Event::FitStarted {
                family: family.name(),
                starts: n_starts as u32,
            });
        }
        Ok(plan)
    }

    /// `params` in the search space, or `None` when they do not convert.
    fn search_point(&self, params: &[f64]) -> Option<Vec<f64>> {
        let internal = self.family.params_to_internal(params).ok()?;
        let point = match self.ln_times {
            Some(_) => self.family.nonlinear_coordinates(&internal),
            None => internal,
        };
        debug_assert_eq!(point.len(), self.dim, "{}", self.family.name());
        Some(point)
    }

    /// The number of cold starts (zero for an exact fit and after a
    /// short-circuiting warm probe).
    pub(crate) fn starts(&self) -> usize {
        self.starts.len().checked_div(self.dim).unwrap_or(0)
    }

    /// The dimension of the Nelder–Mead search (zero for an exact fit).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Nelder–Mead from `x0` over a private instance of the fit's
    /// objective: the full SSE, or the profiled one. Either maps
    /// infeasible points to +∞, so the simplex contracts away from them,
    /// and owns scratch buffers, so an evaluation allocates nothing.
    fn minimize(&self, x0: &[f64], control: &Control) -> Result<OptimReport, OptimError> {
        let (times, observed) = (self.series.times(), self.series.values());
        match self.ln_times {
            Some(ln_times) => {
                let objective = ProfiledObjective::new(self.family, times, ln_times, observed);
                self.optimizer
                    .minimize(&|u: &[f64]| objective.eval(u), x0, control)
            }
            None => {
                let objective = SseObjective::new(self.family, times, observed);
                self.optimizer
                    .minimize(&|x: &[f64]| objective.eval(x), x0, control)
            }
        }
    }

    /// Runs cold start `i` under `control`.
    pub(crate) fn minimize_start(
        &self,
        i: usize,
        control: &Control,
    ) -> Result<OptimReport, OptimError> {
        self.minimize(&self.starts[i * self.dim..(i + 1) * self.dim], control)
    }

    /// The finish phase: reduces the warm result and `cold`, the reduction
    /// of every cold start, lifts a profiled winner, polishes it and
    /// guards the result. An exact fit polls `control` once (scope
    /// `"fit"`), counts its one evaluation, the rescoring, and is guarded
    /// the same way, unpolished.
    ///
    /// # Errors
    ///
    /// A stopped cold start or exact fit, every cold start failing without
    /// a warm result, and the guard errors of [`fit_least_squares`].
    pub(crate) fn finish(
        self,
        cold: StartReduction,
        config: &FitConfig,
        control: &Control,
    ) -> Result<FittedModel, CoreError> {
        let FitPlan {
            family,
            series,
            ln_times,
            exact,
            warm,
            starts,
            ..
        } = self;
        let (times, observed) = (series.times(), series.values());
        if let Some((internal, sse)) = exact {
            control.check_stop("fit", 0).map_err(phase_error)?;
            control.count(CounterId::ObjectiveEvals, 1);
            return finished(family, control, internal, sse, 1, 1, true);
        }
        let mut total_evaluations = warm.as_ref().map_or(0, |w| w.evaluations) + cold.evaluations();
        let cold = if starts.is_empty() {
            None
        } else {
            match cold.finish() {
                Ok(report) => Some(report),
                Err(e) if e.is_stop() => return Err(phase_error(e)),
                // Every cold start failed: fatal only without a warm fit.
                Err(e) => match warm {
                    Some(_) => None,
                    None => return Err(phase_error(e)),
                },
            }
        };
        // Reduce: the warm result is conceptually start 0, so it wins ties
        // (same strict `<` rule as the start reduction).
        let best = match (warm, cold) {
            (Some(w), Some(c)) => {
                if c.value < w.value {
                    c
                } else {
                    w
                }
            }
            (Some(w), None) => w,
            (None, Some(c)) => c,
            (None, None) => unreachable!("a plan has a warm result or cold starts"),
        };
        // A profiled winner is lifted back to the full internal vector
        // (DESIGN.md §11).
        let best = match ln_times {
            Some(ln_times) => {
                let lifted = ProfiledObjective::new(family, times, ln_times, observed)
                    .lift(best)
                    .ok_or_else(|| {
                        CoreError::guard(
                            "fit_least_squares",
                            Violation::NonFiniteOutput,
                            format!("no linear coefficients at the {} winner", family.name()),
                        )
                    })?;
                control.count(CounterId::ObjectiveEvals, 1);
                total_evaluations += 1;
                lifted
            }
            None => best,
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
                params_scratch: RefCell::new(vec![0.0; family.n_params()]),
            };
            // A failed or stopped polish is not a fit failure: the multi-start
            // winner above is already a complete answer, so `Err` here (LM
            // divergence, deadline, cancellation) just skips the refinement.
            if let Ok(report) = LevenbergMarquardt::new(config.lm.clone()).minimize(
                &problem,
                &best_internal,
                control,
            ) {
                evaluations += report.evaluations;
                total_evaluations += report.evaluations;
                lm_converged = report.termination == TerminationReason::Converged;
                if report.value < best_sse {
                    best_sse = report.value;
                    best_internal = report.params;
                }
            }
        }
        finished(
            family,
            control,
            best_internal,
            best_sse,
            evaluations,
            total_evaluations,
            nm_converged || lm_converged,
        )
    }
}

/// A fit's last step: guards the winner, builds its model and closes the
/// fit span.
fn finished(
    family: &dyn ModelFamily,
    control: &Control,
    internal: Vec<f64>,
    sse: f64,
    evaluations: usize,
    total_evaluations: usize,
    converged: bool,
) -> Result<FittedModel, CoreError> {
    // Guard layer (DESIGN.md §8): the optimizer can only hand back a
    // finite SSE because the objective maps off-domain points to +∞, but
    // a regression anywhere in that chain would otherwise leak NaN into
    // every downstream table. Fail loudly instead.
    if !sse.is_finite() {
        return Err(CoreError::guard(
            "fit_least_squares",
            Violation::NonFiniteOutput,
            format!("final SSE for {} is {sse}", family.name()),
        ));
    }
    let params = family.internal_to_params(&internal);
    guard::finite_outputs(family.name(), &params)?;
    let model = family.build(&params)?;
    if control.observed() {
        // The fit span closes here; `evaluations` is the winning start
        // plus polish (counter events above carry the per-start totals).
        control.emit(Event::FitFinished {
            family: family.name(),
            sse,
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
        sse,
        evaluations,
        total_evaluations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use crate::mixture::MixtureFamily;
    use resilience_data::recessions::Recession;

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

    /// Two points: fewer distinct times than the Quadratic's three
    /// coefficients, so its design is rank deficient and the fit searches.
    fn rank_deficient_series() -> PerformanceSeries {
        PerformanceSeries::monthly("two points", vec![1.0, 0.98]).unwrap()
    }

    #[test]
    fn fit_parallelism_is_bit_identical() {
        use crate::bathtub::QuarticFamily;
        let mixtures = MixtureFamily::paper_combinations();
        let recession = Recession::R1990_93.payroll_index();
        // (family, series, whether the fit is one exact solve)
        let mut cases: Vec<(&dyn ModelFamily, PerformanceSeries, bool)> = vec![
            (&QuadraticFamily, quadratic_series(0.002), true),
            (&QuadraticFamily, rank_deficient_series(), false),
            (&CompetingRisksFamily, recession.clone(), false),
            (&QuarticFamily, recession.clone(), true),
        ];
        for family in &mixtures {
            cases.push((family, recession.clone(), false));
        }
        for (family, s, exact) in &cases {
            let fit_with = |parallelism| {
                let config = FitConfig {
                    parallelism,
                    ..FitConfig::default()
                };
                fit_least_squares(*family, s, &config).unwrap()
            };
            let serial = fit_with(Parallelism::Serial);
            assert_eq!(serial.total_evaluations == 1, *exact, "{}", family.name());
            for p in [
                Parallelism::Fixed(1),
                Parallelism::Fixed(2),
                Parallelism::Fixed(4),
                Parallelism::Auto,
            ] {
                let fit = fit_with(p);
                let name = family.name();
                assert_eq!(fit.params, serial.params, "{name} {p:?}");
                assert_eq!(fit.sse.to_bits(), serial.sse.to_bits(), "{name} {p:?}");
                assert_eq!(fit.evaluations, serial.evaluations, "{name} {p:?}");
            }
        }
    }

    /// At random feasible component points of each paper mixture, the
    /// profiled SSE is the minimum over the coefficient: no greater than
    /// the full objective at `β*`, `β*/2` and `2β*`, and `β*` is where a
    /// golden-section search over `ln β` on the full objective lands.
    #[test]
    fn profiled_sse_is_the_minimum_over_the_coefficient() {
        use crate::mixture::ComponentKind;
        use resilience_optim::scalar::golden_section;
        use resilience_stats::XorShift64;

        let s = Recession::R1990_93.payroll_index();
        let (times, observed) = (s.times(), s.values());
        let ln_times: Vec<f64> = times.iter().map(|t| t.ln()).collect();
        let mut rng = XorShift64::new(0x0B57_A7E5);
        for family in MixtureFamily::paper_combinations() {
            let profile = ProfiledObjective::new(&family, times, &ln_times, observed);
            let full = SseObjective::new(&family, times, observed);
            let mut checked = 0;
            for case in 0..200 {
                let mut u = Vec::new();
                for kind in [family.f1, family.f2] {
                    let mut draw = |lo: f64, hi: f64| (lo + (hi - lo) * rng.next_f64()).ln();
                    match kind {
                        ComponentKind::Exponential => u.push(draw(0.005, 0.5)),
                        ComponentKind::Weibull => u.extend([draw(0.5, 5.0), draw(2.0, 60.0)]),
                    }
                }
                let Some(sse) = profile.solve(&u) else {
                    continue;
                };
                let beta = profile.coefficients()[0];
                let full_at = |b: f64| {
                    let mut x = u.clone();
                    x.push(b.ln());
                    full.eval(&x)
                };
                let name = family.name();
                // At β* the two objectives differ only by rounding.
                assert!(
                    sse <= full_at(beta) * (1.0 + 1e-12),
                    "{name} case {case}: {sse:e} vs {:e}",
                    full_at(beta)
                );
                for b in [0.5 * beta, 2.0 * beta] {
                    assert!(sse <= full_at(b), "{name} case {case}: β = {b:e}");
                }
                let m = golden_section(|v| full_at(v.exp()), -20.0, 10.0, 1e-12, 500).unwrap();
                let rel = (m.x.exp() - beta).abs() / beta;
                assert!(
                    rel <= 1e-6,
                    "{name} case {case}: β* = {beta:e}, rel {rel:e}"
                );
                checked += 1;
            }
            assert!(checked >= 100, "{}: only {checked} points", family.name());
        }
    }

    #[test]
    fn undefined_profiles_are_infinite_not_panics() {
        let family = MixtureFamily::paper_combinations()[1]; // Wei-Exp
        let u = [1.5_f64.ln(), 12.0_f64.ln(), 0.05_f64.ln()];
        let times: Vec<f64> = (0..48).map(f64::from).collect();
        let ln_times: Vec<f64> = times.iter().map(|t| t.ln()).collect();
        let ones = vec![1.0; times.len()];
        let zeros = vec![0.0; times.len()];

        // Data at zero lies below the degradation term, so β* < 0.
        let below = ProfiledObjective::new(&family, &times, &ln_times, &zeros);
        assert!(below.solve(&u).is_none());
        assert_eq!(below.eval(&u), f64::INFINITY);

        let profile = ProfiledObjective::new(&family, &times, &ln_times, &ones);
        assert!(profile.eval(&u).is_finite());
        // F₂'s rate so small that the column squares to zero.
        let vanishing = [u[0], u[1], -700.0];
        assert_eq!(profile.eval(&vanishing), f64::INFINITY);
        // Infeasible and wrong-length points.
        assert_eq!(profile.eval(&[f64::NAN, u[1], u[2]]), f64::INFINITY);
        assert_eq!(profile.eval(&u[..2]), f64::INFINITY);

        // The log trend is zero on t ≤ 1, so there the column is zero.
        let early = [0.0, 0.25, 0.5, 1.0];
        let ln_early = early.map(f64::ln);
        let clamped = ProfiledObjective::new(&family, &early, &ln_early, &ones[..4]);
        assert_eq!(clamped.eval(&u), f64::INFINITY);

        assert!(solve_linear_coefficient(&[1.0, 2.0], &[1.0], &[1.0, 1.0]).is_none());
        assert!(solve_linear_coefficient(&[1.0], &[0.0], &[f64::INFINITY]).is_none());
        assert!(solve_linear_coefficient(&[1.0], &[f64::NAN], &[1.0]).is_none());
        assert!(solve_linear_coefficient(&[1.0], &[0.0], &[1e-160]).is_none());
    }

    #[test]
    fn profiled_mixtures_merge_starts_that_share_their_components() {
        use crate::mixture::Trend;
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;

        let s = Recession::R1990_93.payroll_index();
        let starts = |family: &dyn ModelFamily| {
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            let _ = fit_least_squares_with(family, &s, &FitConfig::default(), &control);
            rec.take()
                .iter()
                .find_map(|e| match e {
                    Event::FitStarted { starts, .. } => Some(*starts),
                    _ => None,
                })
                .expect("a fit_started event")
        };
        for family in MixtureFamily::paper_combinations() {
            assert_eq!(family.initial_guesses(&s).len(), 18);
            assert_eq!(starts(&family), 9, "{}", family.name());
        }
        let exponential_trend = MixtureFamily {
            trend: Trend::Exponential,
            ..MixtureFamily::paper_combinations()[1]
        };
        assert!(exponential_trend.linear_coefficients().is_empty());
        assert_eq!(starts(&exponential_trend), 18);
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
        assert!(dbg.contains(&format!("evaluations: {}", fit.evaluations)));
        assert!(dbg.contains(&format!("total_evaluations: {}", fit.total_evaluations)));
    }

    /// `total_evaluations` is every evaluation a fit spent — the total of
    /// its observed `objective_evals` counters — at every thread count,
    /// while `evaluations` keeps counting the winner, the lift and the
    /// polish only. Pinned on 1990-93, with a warm-started Competing Risks
    /// refit whose probe short-circuits the cold phase. The `e^{βt}`
    /// Wei-Exp has no linear coefficient, so its Nelder–Mead searches
    /// every coordinate of the full objective.
    #[test]
    fn total_evaluations_equal_the_observed_counter_total() {
        use crate::bathtub::QuarticFamily;
        use crate::mixture::Trend;
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;

        let s = Recession::R1990_93.payroll_index();
        let mixtures = MixtureFamily::paper_combinations();
        let exponential_trend = MixtureFamily {
            trend: Trend::Exponential,
            ..mixtures[1]
        };
        let mut families: Vec<&dyn ModelFamily> =
            vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
        families.extend(mixtures.iter().map(|m| m as &dyn ModelFamily));
        families.push(&exponential_trend);
        // (all evaluations, winner + lift + polish); Quartic is not in the
        // smoke gate's `evals_per_fit`, so only its total is pinned. The
        // exact fits spend one evaluation, their rescoring.
        let expected = [
            (1, Some(1)),
            (277, Some(41)),
            (1, None),
            (981, Some(130)),
            (1751, Some(182)),
            (1851, Some(182)),
            (6902, Some(344)),
            (5999, Some(402)),
        ];
        let observed_fit = |family: &dyn ModelFamily, config: &FitConfig, warm: Option<&[f64]>| {
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            let fit = fit_from(family, &s, None, warm, config, &control).unwrap();
            let counted: u64 = rec
                .take()
                .iter()
                .filter_map(|e| match e {
                    Event::Counter {
                        id: CounterId::ObjectiveEvals,
                        delta,
                    } => Some(*delta),
                    _ => None,
                })
                .sum();
            assert_eq!(fit.total_evaluations as u64, counted, "{}", family.name());
            fit
        };
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
            let config = FitConfig {
                parallelism,
                ..FitConfig::default()
            };
            assert_eq!(families.len(), expected.len());
            for (family, (total, winner)) in families.iter().zip(expected) {
                let fit = observed_fit(*family, &config, None);
                let name = family.name();
                assert_eq!(fit.total_evaluations, total, "{name} {parallelism:?}");
                if let Some(winner) = winner {
                    assert_eq!(fit.evaluations, winner, "{name} {parallelism:?}");
                }
            }
            let cold = observed_fit(&CompetingRisksFamily, &config, None);
            let warm = observed_fit(&CompetingRisksFamily, &config, Some(&cold.params));
            assert!(warm.total_evaluations < cold.total_evaluations);
            assert_eq!(warm.total_evaluations, warm.evaluations, "{parallelism:?}");
        }
    }

    /// What an exact fit logs and counts: its plan's `fit_started` with no
    /// starts, one evaluation (the rescoring), `fit_finished` and
    /// `evals_per_fit`; under an expired deadline, its finish's one poll.
    /// A rejected solve leaves no trace: the rank-deficient fit's log
    /// opens with the search's two starts.
    #[test]
    fn exact_fits_log_one_evaluation_and_rejected_solves_nothing() {
        use resilience_obs::{RecordingObserver, StopKind};
        use std::sync::Arc;

        let observed = |series: &PerformanceSeries, control: Control| {
            let rec = Arc::new(RecordingObserver::new());
            let fit = fit_least_squares_with(
                &QuadraticFamily,
                series,
                &FitConfig::default(),
                &control.observe(rec.clone()),
            );
            (fit, rec.take())
        };
        let quadratic = quadratic_series(0.002);
        let (fit, events) = observed(&quadratic, Control::unbounded());
        let fit = fit.unwrap();
        let family = "Quadratic";
        assert_eq!(
            events,
            [
                Event::FitStarted { family, starts: 0 },
                Event::Counter {
                    id: CounterId::ObjectiveEvals,
                    delta: 1
                },
                Event::FitFinished {
                    family,
                    sse: fit.sse,
                    evaluations: 1,
                    converged: true
                },
                Event::Hist {
                    id: HistogramId::EvalsPerFit,
                    value: 1
                },
            ]
        );

        let (fit, events) = observed(
            &quadratic,
            Control::with_deadline(std::time::Duration::ZERO),
        );
        assert!(matches!(fit, Err(CoreError::TimedOut { .. })));
        assert_eq!(
            events,
            [
                Event::FitStarted { family, starts: 0 },
                Event::Stop {
                    scope: "fit",
                    kind: StopKind::Deadline,
                    evaluations: 0
                },
            ]
        );

        let (fit, events) = observed(&rank_deficient_series(), Control::unbounded());
        let fit = fit.unwrap();
        assert_eq!((fit.total_evaluations, fit.evaluations), (345, 188));
        assert_eq!(events[0], Event::FitStarted { family, starts: 2 });
        assert_eq!(events[1], Event::StartBegan { index: 0 });
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
