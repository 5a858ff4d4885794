//! Least-squares model fitting (paper Eq. 8).
//!
//! The pipeline minimizes `Σᵢ (R(tᵢ) − P(tᵢ; θ))²` over each family's
//! feasible parameter set. Because the mixtures' SSE surfaces are
//! nonconvex, their fits run multi-start Nelder–Mead from the family's
//! data-driven guesses in the *internal* (unconstrained) space, then
//! optionally polish the winner with Levenberg–Marquardt. Coefficients a
//! family is linear in are solved exactly at every point of the search
//! instead of searched. The bathtub families search nothing (DESIGN.md
//! §11): the Quadratic and the Quartic, linear in every coefficient, are
//! one least-squares solve each, and Competing Risks, linear in all but
//! `β`, is one deterministic profile over `ln β`
//! ([`ModelFamily::design`]).

use crate::guard::{self, Violation};
use crate::model::{Design, ExactOptimum, ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::sum::{sum_squared_diff, CompensatedSum};
use resilience_obs::{CounterId, Event, ExitReason, HistogramId, SolverKind};
use resilience_optim::levenberg_marquardt;
use resilience_optim::multi_start::{multi_start, Race, Search, StartReduction};
use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig, NelderMeadRun};
use resilience_optim::parallel::{crew, Crew};
use resilience_optim::problem::LeastSquares;
use resilience_optim::report::{OptimReport, TerminationReason};
use resilience_optim::{Control, OptimError, Parallelism};
use std::cell::RefCell;
use std::sync::Arc;

/// The evaluations of a raced start's first leg (DESIGN.md §11, "Racing
/// the starts"): it pauses at the first iteration boundary at which it has
/// spent this many.
const RACE_CUT: usize = 50;

/// The raced starts that run on from the cut, the least values at the cut.
/// A profiled search with this many starts or fewer keeps every one.
const RACE_KEEP: usize = 4;

/// Nelder–Mead's basin-finding tolerances on the objective and on the
/// simplex. Nelder–Mead only needs to land in the right basin, because the
/// Levenberg–Marquardt polish (analytic Jacobians, DESIGN.md §11) drives
/// the winner to machine-precision optimality far faster than simplex
/// contraction would. Tightening them back to {1e-13, 1e-9} reproduces the
/// pre-§11 fits but costs ~2.5x the wall clock for SSE changes below
/// 1e-10.
const NM_F_TOL: f64 = 1e-7;
const NM_X_TOL: f64 = 1e-5;

/// Configuration for [`fit_least_squares`].
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Nelder–Mead's iteration cap per run, scaled by
    /// [`ModelFamily::nm_iteration_scale`]. An exact fit (Quadratic,
    /// Quartic, Competing Risks' profile) runs no Nelder–Mead.
    pub max_iterations: usize,
    /// Whether to polish the multi-start winner with Levenberg–Marquardt.
    /// An exact fit is never polished.
    pub lm_polish: bool,
    /// Worker threads: the size of the one crew that a call taking this
    /// config opens ([`fit_least_squares_with`],
    /// [`crate::runtime::fit_with_retry`],
    /// [`crate::runtime::rank_fleet_supervised`],
    /// [`crate::selection::forward_chain_cv`]); every race, retry and fold
    /// of the call runs on it. A lone fit races its starts on this many.
    /// The ranker, behind [`crate::selection::rank_models`], spends them on
    /// its jobs when a wave has at least as many cells as threads, and
    /// otherwise on the starts of all the wave's fits, one phase per leg of
    /// their races. One call opens a second crew: a bootstrap band's
    /// replicates run on [`crate::bootstrap::BootstrapConfig::parallelism`]
    /// threads. Every setting produces bit-identical results; see
    /// `DESIGN.md` §7 (threading model).
    pub parallelism: Parallelism,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            // The iteration cap only binds for the 5–6 parameter extended
            // families (the paper's 3-parameter families converge by
            // tolerance near ~150 iterations); those families scale it
            // via [`ModelFamily::nm_iteration_scale`] — 600×2 covers the
            // ~1000 iterations a double-episode fit needs to settle.
            max_iterations: 600,
            lm_polish: true,
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
    /// its lifted winner (DESIGN.md §11); an exact fit's rescoring, after
    /// every evaluation of its profile if it has one. The losing starts
    /// are not counted here; [`FittedModel::total_evaluations`] counts
    /// them.
    pub evaluations: usize,
    /// Every objective evaluation the fit spent: every start (winner,
    /// losers and the starts that retired at a race's cut), the lift and
    /// the polish, or an exact fit's profile and rescoring. A solver run
    /// that failed or was stopped is not counted, so this equals the total
    /// of the fit's observed `objective_evals` counters.
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

/// The most parameters a family scored by [`sse_at`] may have.
const SSE_AT_MAX_PARAMS: usize = 8;

/// The predictions [`sse_at`] holds at once.
const SSE_AT_CHUNK: usize = 64;

/// The fit's own SSE at the internal point `internal` of `family`, bit for
/// bit as the search's objective scores it: `+∞` where the family cannot
/// predict or predicts a non-finite value. A sum that overflows comes out
/// non-finite, possibly NaN: a fit's guard rejects it, and a caller that
/// compares scores reads it as `+∞`. An exact fit scores its point with it
/// ([`ExactOptimum::sse`]), a profiled fit its lifted winner, and the
/// Quadratic's boundary solve each of its candidates.
///
/// It allocates nothing: the parameters live in a fixed array, and the
/// family predicts [`SSE_AT_CHUNK`] times at a time, whose squared
/// residuals are summed in index order. That gives the objective's bits
/// only for a family that predicts point by point, so that its prediction
/// at a time does not depend on the other times it is asked about, and
/// refuses a point whatever the times; every family that calls it (the
/// bathtub families and the profiled mixtures) does.
///
/// # Panics
///
/// When the family has more than [`SSE_AT_MAX_PARAMS`] parameters, or the
/// times and the values differ in length.
pub(crate) fn sse_at(
    family: &dyn ModelFamily,
    times: &[f64],
    observed: &[f64],
    internal: &[f64],
) -> f64 {
    assert_eq!(times.len(), observed.len(), "sse_at: length mismatch");
    let mut params = [0.0; SSE_AT_MAX_PARAMS];
    let params = &mut params[..family.n_params()];
    family.internal_to_params_into(internal, params);
    let mut predicted = [0.0; SSE_AT_CHUNK];
    let mut sse = CompensatedSum::new();
    for (ts, ys) in times
        .chunks(SSE_AT_CHUNK)
        .zip(observed.chunks(SSE_AT_CHUNK))
    {
        let predicted = &mut predicted[..ts.len()];
        if !family.predict_params_into(params, ts, predicted)
            || predicted.iter().any(|v| !v.is_finite())
        {
            return f64::INFINITY;
        }
        for (y, p) in ys.iter().zip(predicted.iter()) {
            let d = y - p;
            sse.add(d * d);
        }
    }
    sse.value()
}

/// The variable-projection objective (DESIGN.md §11) over a profiled
/// search's design ([`Design::profiled`]): Nelder–Mead moves over the
/// other coordinates `u`, and at each `u` the coefficient is solved exactly
/// by [`solve_linear_coefficient`]. Reuses its offset and column buffers,
/// so an evaluation allocates nothing.
struct ProfiledObjective<'a> {
    design: &'a dyn Design,
    observed: &'a [f64],
    /// The offset and the column.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> ProfiledObjective<'a> {
    fn new(design: &'a dyn Design, observed: &'a [f64]) -> Self {
        let n = observed.len();
        ProfiledObjective {
            design,
            observed,
            scratch: RefCell::new((vec![0.0; n], vec![0.0; n])),
        }
    }

    /// The profiled SSE at `u`, or `+∞` where the profile is undefined.
    fn eval(&self, u: &[f64]) -> f64 {
        self.solve(u).map_or(f64::INFINITY, |(_, sse)| sse)
    }

    /// The optimal coefficient at `u` and the SSE it leaves, or `None`
    /// where the profile is undefined.
    fn solve(&self, u: &[f64]) -> Option<(f64, f64)> {
        let mut guard = self.scratch.borrow_mut();
        let (offset, column) = &mut *guard;
        if !self.design.linear_columns_into(u, offset, column) {
            return None;
        }
        solve_linear_coefficient(self.observed, offset, column)
    }

    /// Lifts a Nelder–Mead winner `u` back to the full internal vector
    /// `[u, ln c]`, with `c` its optimal coefficient, and rescores it with
    /// `family`'s full objective at `times`, so that the SSE is the fitted
    /// model's own — one more evaluation. `None` only if the profile is
    /// undefined at `u`, which a finite winner rules out.
    fn lift(
        &self,
        family: &dyn ModelFamily,
        times: &[f64],
        best: OptimReport,
    ) -> Option<OptimReport> {
        let (coefficient, _) = self.solve(&best.params)?;
        let mut params = best.params;
        params.push(coefficient.ln());
        let value = sse_at(family, times, self.observed, &params);
        Some(OptimReport {
            params,
            value,
            evaluations: best.evaluations + 1,
            ..best
        })
    }
}

/// A fit's search objective: the full SSE over every internal
/// coordinate, or a profiled family's variable-projection SSE.
enum Objective<'a> {
    Full(SseObjective<'a>),
    Profiled(ProfiledObjective<'a>),
}

impl Objective<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        match self {
            Objective::Full(objective) => objective.eval(x),
            Objective::Profiled(objective) => objective.eval(x),
        }
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
/// The fit opens one crew of `config.parallelism` threads and runs its
/// three phases in a row: the plan (an exact fit, or the starts), the
/// starts' race on the crew ([`multi_start`], DESIGN.md §11, "Racing the
/// starts"), and the finish (reduce, lift, polish, guard). An exact fit
/// ([`Design::optimum`]) skips the search and the polish, and
/// its finish polls the control once before it counts and logs its work
/// (DESIGN.md §11, "Exact fits"): the Quadratic and the Quartic are one
/// solve each, and Competing Risks is one profile over `ln β`, whose one
/// `converged` line (solver `profile`) carries the profile's evaluations
/// and Brent iterations. Only a design with fewer distinct times than
/// coefficients searches.
///
/// # Errors
///
/// Everything [`fit_least_squares`] returns, plus [`CoreError::TimedOut`]
/// and [`CoreError::Cancelled`] when the control stops the multi-start
/// phase or an exact fit, and a profile's own error when none of its
/// points is finite.
pub fn fit_least_squares_with(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    control: &Control,
) -> Result<FittedModel, CoreError> {
    crew(config.parallelism, |crew| {
        fit_from(crew, family, series, None, None, config, control)
    })
}

/// [`fit_least_squares_with`] on the caller's `crew`, over the family's
/// `design` at the series' times, when the caller holds one (`None`: the
/// fit builds its own, see [`FitPlan::new`]), searching from `guesses`
/// instead of the family's own [`ModelFamily::initial_guesses`] (`None`): a
/// retry's incumbent and its jittered copies, or a bootstrap replicate's
/// base optimum. Every guess is a numbered start of the one race. It reads
/// no `config.parallelism`: its race runs on `crew`, and a panic in a start
/// is re-raised with the lowest panicking start's payload.
pub(crate) fn fit_from<'a>(
    crew: &Crew<'_, 'a>,
    family: &'a dyn ModelFamily,
    series: &'a PerformanceSeries,
    design: Option<&Arc<dyn Design + 'a>>,
    guesses: Option<&[Vec<f64>]>,
    config: &FitConfig,
    control: &Control,
) -> Result<FittedModel, CoreError> {
    let plan = FitPlan::new(family, series, design.cloned(), guesses, config, control)?;
    let lone = Lone {
        plan,
        control: control.clone(),
    };
    let (Lone { plan, .. }, race) = multi_start(crew, [lone]).next().expect("one search");
    let race = race.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    plan.finish(race.finish(control), config, control)
}

/// A lone fit's search: its plan, whose starts run under one control.
struct Lone<'a> {
    plan: FitPlan<'a>,
    control: Control,
}

impl Search for Lone<'_> {
    fn race(&self) -> Race {
        self.plan.race(&self.control)
    }

    fn control(&self) -> &Control {
        &self.control
    }

    fn first_leg(
        &self,
        i: usize,
        budget: usize,
        control: &Control,
    ) -> Result<NelderMeadRun, OptimError> {
        self.plan.first_leg(i, budget, control)
    }

    fn second_leg(
        &self,
        _: usize,
        run: &mut NelderMeadRun,
        control: &Control,
    ) -> Result<bool, OptimError> {
        self.plan.second_leg(run, control)
    }
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
/// [`FitPlan::new`] is the plan phase: an exact solve, or else the
/// starts, which it only lists: every Nelder–Mead run of a fit is a start
/// of its race. The starts race on the caller's crew ([`FitPlan::race`],
/// [`multi_start`]): each runs its legs on its own through
/// [`FitPlan::first_leg`] and [`FitPlan::second_leg`], in any order and on
/// any thread, and the race leaves a [`StartReduction`]. [`FitPlan::finish`] reduces, lifts, polishes and
/// guards. A lone fit ([`fit_from`]) races its one search; the ranker
/// plans every job of a small wave, races all their searches at once, then
/// finishes each (DESIGN.md §13). Both give bit-identical fits and event
/// logs.
pub(crate) struct FitPlan<'a> {
    family: &'a dyn ModelFamily,
    series: &'a PerformanceSeries,
    /// The family's design when the search is profiled (DESIGN.md §11):
    /// it then moves over every internal coordinate but the last.
    profile: Option<Arc<dyn Design + 'a>>,
    optimizer: NelderMead,
    /// An exact fit: the plan then has no starts.
    exact: Option<ExactOptimum>,
    /// The starts' search points, [`FitPlan::dim`] coordinates each.
    starts: Vec<f64>,
    dim: usize,
}

impl<'a> FitPlan<'a> {
    /// The plan phase: an exact fit, or the starts. It runs no search and
    /// polls no control.
    ///
    /// The plan reads the times through `design`, the family's design at
    /// the series' times ([`ModelFamily::design`]), or when that is `None`
    /// through a design it builds at them. A design with an exact fit
    /// ([`Design::optimum`]) gives the optimum of the series' values: the
    /// plan logs its `fit_started` with zero starts, computes no guesses
    /// and keeps no design, and the family's error is the plan's. A family
    /// without a design, or whose design gives no optimum, logs and counts
    /// nothing here, and the fit searches; a plan whose search is profiled
    /// ([`Design::profiled`]) keeps its design for it.
    ///
    /// Otherwise the starts are `guesses`, or the family's own when
    /// `None`, in the search space: every internal coordinate, or for a
    /// family that profiles its last coefficient every other one, in which
    /// case guesses that coincide there are merged, keeping the first.
    /// Guesses that do not convert are dropped, and the plan logs its
    /// `fit_started` with the number of starts left. Start 0 is the first
    /// guess that converts, and it wins every tie ([`StartReduction`]): a
    /// retry passes its incumbent first.
    ///
    /// # Errors
    ///
    /// An exact fit's error, and [`OptimError::AllStartsFailed`] when no
    /// guess converts to a start.
    pub(crate) fn new(
        family: &'a dyn ModelFamily,
        series: &'a PerformanceSeries,
        design: Option<Arc<dyn Design + 'a>>,
        guesses: Option<&[Vec<f64>]>,
        config: &FitConfig,
        control: &Control,
    ) -> Result<FitPlan<'a>, CoreError> {
        let traced = control.observed();
        // Families whose landscapes need longer simplex walks scale the
        // configured iteration cap (see [`ModelFamily::nm_iteration_scale`]);
        // for the paper families the factor is 1 and this is `config`'s cap
        // unchanged.
        let nm_config = NelderMeadConfig {
            max_iterations: config
                .max_iterations
                .saturating_mul(family.nm_iteration_scale()),
            f_tol: NM_F_TOL,
            x_tol: NM_X_TOL,
        };
        let mut plan = FitPlan {
            family,
            series,
            profile: None,
            optimizer: NelderMead::new(nm_config),
            exact: None,
            starts: Vec::new(),
            dim: 0,
        };
        let design = design.or_else(|| family.design(series.times()));
        if let Some(exact) = design
            .as_ref()
            .and_then(|design| design.optimum(series.values()))
        {
            plan.exact = Some(exact?);
            if traced {
                control.emit(Event::FitStarted {
                    family: family.name(),
                    starts: 0,
                });
            }
            return Ok(plan);
        }
        plan.profile = design.filter(|design| design.profiled());
        let profiled = plan.profile.is_some();
        let dim = family.n_params() - usize::from(profiled);
        plan.dim = dim;
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
            if !(profiled && starts.chunks_exact(dim).any(|s| s == point)) {
                starts.extend_from_slice(&point);
                n_starts += 1;
            }
        }
        // Every planned fit of a pooled wave holds its starts until its
        // finish, so keep only what they use.
        starts.shrink_to_fit();
        plan.starts = starts;
        if n_starts == 0 {
            return Err(CoreError::Fit(OptimError::AllStartsFailed { attempts: 0 }));
        }
        if traced {
            control.emit(Event::FitStarted {
                family: family.name(),
                starts: n_starts as u32,
            });
        }
        Ok(plan)
    }

    /// `params` in the search space, its first [`FitPlan::dim`] internal
    /// coordinates, or `None` when they do not convert.
    fn search_point(&self, params: &[f64]) -> Option<Vec<f64>> {
        let mut point = self.family.params_to_internal(params).ok()?;
        point.truncate(self.dim);
        debug_assert_eq!(point.len(), self.dim, "{}", self.family.name());
        Some(point)
    }

    /// The number of starts (zero for an exact fit).
    pub(crate) fn starts(&self) -> usize {
        self.starts.len().checked_div(self.dim).unwrap_or(0)
    }

    /// The dimension of the Nelder–Mead search (zero for an exact fit).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// A private instance of the fit's objective: the full SSE, or the
    /// profiled one. Either maps infeasible points to +∞, so the simplex
    /// contracts away from them, and owns scratch buffers, so an
    /// evaluation allocates nothing.
    fn objective(&self) -> Objective<'_> {
        let (times, observed) = (self.series.times(), self.series.values());
        match &self.profile {
            Some(design) => Objective::Profiled(ProfiledObjective::new(&**design, observed)),
            None => Objective::Full(SseObjective::new(self.family, times, observed)),
        }
    }

    /// The race over the starts (DESIGN.md §11, "Racing the
    /// starts"): a profiled search with more than [`RACE_KEEP`] starts
    /// keeps the [`RACE_KEEP`] best after [`RACE_CUT`] evaluations each;
    /// any other search keeps every start, which is the plain multi-start.
    pub(crate) fn race(&self, control: &Control) -> Race {
        let keep = if self.profile.is_some() {
            RACE_KEEP
        } else {
            usize::MAX
        };
        Race::new(self.starts(), keep, RACE_CUT, control.observed())
    }

    /// Start `i`'s first leg under `control`: its Nelder–Mead run,
    /// begun and advanced to `budget` evaluations.
    pub(crate) fn first_leg(
        &self,
        i: usize,
        budget: usize,
        control: &Control,
    ) -> Result<NelderMeadRun, OptimError> {
        let objective = self.objective();
        let f = |x: &[f64]| objective.eval(x);
        let mut run =
            self.optimizer
                .begin(&f, &self.starts[i * self.dim..(i + 1) * self.dim], control)?;
        self.optimizer.advance(&f, &mut run, budget, control)?;
        Ok(run)
    }

    /// A surviving start's second leg under `control`: its paused
    /// `run`, advanced to its end.
    pub(crate) fn second_leg(
        &self,
        run: &mut NelderMeadRun,
        control: &Control,
    ) -> Result<bool, OptimError> {
        let objective = self.objective();
        self.optimizer
            .advance(&|x: &[f64]| objective.eval(x), run, usize::MAX, control)
    }

    /// The finish phase: takes the winner of `reduction`, the reduction of
    /// every start, lifts a profiled winner, polishes it and guards the
    /// result. An exact fit polls `control` once (scope `"fit"`), logs its
    /// profile's `converged` line if it has one, counts its evaluations (the
    /// profile's and the rescoring) and is guarded the same way, unpolished.
    ///
    /// # Errors
    ///
    /// A stopped start or exact fit, every start failing, and the guard
    /// errors of [`fit_least_squares`].
    pub(crate) fn finish(
        self,
        reduction: StartReduction,
        config: &FitConfig,
        control: &Control,
    ) -> Result<FittedModel, CoreError> {
        let FitPlan {
            family,
            series,
            profile,
            exact,
            ..
        } = self;
        let (times, observed) = (series.times(), series.values());
        if let Some(ExactOptimum {
            internal,
            sse,
            profile,
        }) = exact
        {
            control.check_stop("fit", 0).map_err(phase_error)?;
            let mut evaluations = 1;
            if let Some(profile) = profile {
                control.emit(Event::Converged {
                    solver: SolverKind::Profile,
                    iterations: profile.iterations as u64,
                    evaluations: profile.evaluations as u64,
                    value: profile.value,
                    reason: ExitReason::Converged,
                });
                evaluations += profile.evaluations;
            }
            control.count(CounterId::ObjectiveEvals, evaluations as u64);
            return finished(
                family,
                control,
                internal,
                sse,
                evaluations,
                evaluations,
                true,
            );
        }
        let mut total_evaluations = reduction.evaluations();
        let best = reduction.finish().map_err(phase_error)?;
        // A profiled winner is lifted back to the full internal vector
        // (DESIGN.md §11).
        let best = match profile {
            Some(design) => {
                let lifted = ProfiledObjective::new(&*design, observed)
                    .lift(family, times, best)
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
            // it has one (the Quadratic and the mixtures; DESIGN.md §11), so LM skips
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
            if let Ok(report) = levenberg_marquardt::minimize(&problem, &best_internal, control) {
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

/// The guard of a fit's winner at the internal point `internal`, whose SSE
/// is `sse` (DESIGN.md §8): the SSE and the external parameters must be
/// finite. Returns the parameters, which the fit then builds its model
/// from; a bootstrap replicate predicts from them directly.
///
/// The optimizer can only hand back a finite SSE because the objective
/// maps off-domain points to +∞, but a regression anywhere in that chain
/// would otherwise leak NaN into every downstream table. Fail loudly
/// instead.
pub(crate) fn guarded_params(
    family: &dyn ModelFamily,
    internal: &[f64],
    sse: f64,
) -> Result<Vec<f64>, CoreError> {
    if !sse.is_finite() {
        return Err(CoreError::guard(
            "fit_least_squares",
            Violation::NonFiniteOutput,
            format!("final SSE for {} is {sse}", family.name()),
        ));
    }
    let params = family.internal_to_params(internal);
    guard::finite_outputs(family.name(), &params)?;
    Ok(params)
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
    let params = guarded_params(family, &internal, sse)?;
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
        let mut rng = XorShift64::new(0x0B57_A7E5);
        for family in MixtureFamily::paper_combinations() {
            let design = family.design(times).expect("a profiled design");
            let profile = ProfiledObjective::new(&*design, observed);
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
                let Some((beta, sse)) = profile.solve(&u) else {
                    continue;
                };
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
        let design = family.design(&times).expect("a profiled design");
        let ones = vec![1.0; times.len()];
        let zeros = vec![0.0; times.len()];

        // Data at zero lies below the degradation term, so β* < 0.
        let below = ProfiledObjective::new(&*design, &zeros);
        assert!(below.solve(&u).is_none());
        assert_eq!(below.eval(&u), f64::INFINITY);

        let profile = ProfiledObjective::new(&*design, &ones);
        assert!(profile.eval(&u).is_finite());
        // F₂'s rate so small that the column squares to zero.
        let vanishing = [u[0], u[1], -700.0];
        assert_eq!(profile.eval(&vanishing), f64::INFINITY);
        // Infeasible and wrong-length points.
        assert_eq!(profile.eval(&[f64::NAN, u[1], u[2]]), f64::INFINITY);
        assert_eq!(profile.eval(&u[..2]), f64::INFINITY);

        // The log trend is zero on t ≤ 1, so there the column is zero.
        let early = [0.0, 0.25, 0.5, 1.0];
        let early = family.design(&early).expect("a profiled design");
        let clamped = ProfiledObjective::new(&*early, &ones[..4]);
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
        // 18 data-driven guesses, which merge to 9 starts, and the
        // screen's best node.
        for family in MixtureFamily::paper_combinations() {
            assert_eq!(family.initial_guesses(&s).len(), 19);
            assert_eq!(starts(&family), 10, "{}", family.name());
        }
        // A search over β has no screen, and merges nothing.
        let exponential_trend = MixtureFamily {
            trend: Trend::Exponential,
            ..MixtureFamily::paper_combinations()[1]
        };
        assert!(exponential_trend.design(s.times()).is_none());
        assert_eq!(exponential_trend.initial_guesses(&s).len(), 18);
        assert_eq!(starts(&exponential_trend), 18);
    }

    #[test]
    fn lm_polish_never_hurts() {
        let fit = |family: &dyn ModelFamily, s: &PerformanceSeries, lm_polish: bool| {
            let config = FitConfig {
                lm_polish,
                ..FitConfig::default()
            };
            fit_least_squares(family, s, &config).unwrap()
        };
        // Exp-Exp searches 1990-93, and its polish spends two evaluations
        // (981 against 979) on a lower SSE.
        let s = Recession::R1990_93.payroll_index();
        let exp_exp = &MixtureFamily::paper_combinations()[0];
        assert_eq!(exp_exp.name(), "Exp-Exp");
        let (with, without) = (fit(exp_exp, &s, true), fit(exp_exp, &s, false));
        assert!(
            with.total_evaluations > without.total_evaluations,
            "the polish ran"
        );
        assert!(with.sse <= without.sse, "{} > {}", with.sse, without.sse);
        // The Quadratic's one exact solve never reads the flag.
        let s = quadratic_series(0.002);
        let (with, without) = (
            fit(&QuadraticFamily, &s, true),
            fit(&QuadraticFamily, &s, false),
        );
        assert_eq!(with.sse.to_bits(), without.sse.to_bits());
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&with.params), bits(&without.params));
        assert_eq!((with.total_evaluations, without.total_evaluations), (1, 1));
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
    /// its observed `objective_evals` counters, the retired starts' of a
    /// raced mixture included — at every thread count, while
    /// `evaluations` keeps counting the winner, the lift and the polish
    /// only. Pinned on 1990-93, with an Exp-Exp refit seeded with its cold
    /// optimum as its only guess, whose one start is all its work. The
    /// `e^{βt}` Wei-Exp has no linear coefficient, so its Nelder–Mead
    /// searches every coordinate of the full objective.
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
        // exact fits spend one evaluation, their rescoring, after Competing
        // Risks' profile.
        let expected = [
            (1, Some(1)),
            (47, Some(47)),
            (1, None),
            (727, Some(106)),
            (995, Some(177)),
            (1263, Some(213)),
            (3571, Some(672)),
            (5999, Some(402)),
        ];
        let observed_fit =
            |family: &dyn ModelFamily, config: &FitConfig, guesses: Option<&[Vec<f64>]>| {
                let rec = Arc::new(RecordingObserver::new());
                let control = Control::unbounded().observe(rec.clone());
                let fit = crew(config.parallelism, |crew| {
                    fit_from(crew, family, &s, None, guesses, config, &control)
                })
                .unwrap();
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
            let cold = observed_fit(&mixtures[0], &config, None);
            let refit = observed_fit(
                &mixtures[0],
                &config,
                Some(std::slice::from_ref(&cold.params)),
            );
            assert!(refit.total_evaluations < cold.total_evaluations);
            assert_eq!(
                refit.total_evaluations, refit.evaluations,
                "{parallelism:?}"
            );
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

    /// What a profiled fit logs and counts: its plan's `fit_started` with
    /// no starts, then in its finish the profile's one `converged` line,
    /// one `objective_evals` of the profile's evaluations plus the
    /// rescoring, `fit_finished` and `evals_per_fit`; under an expired
    /// deadline, its finish's one poll and nothing of the profile. Starting
    /// points change nothing: the profile reads none.
    #[test]
    fn profiled_fits_log_their_work_on_one_solver_line() {
        use resilience_obs::{ExitReason, RecordingObserver, StopKind};
        use std::sync::Arc;

        let s = Recession::R1990_93.payroll_index();
        let observed = |control: Control, guesses: Option<&[Vec<f64>]>| {
            let rec = Arc::new(RecordingObserver::new());
            let control = control.observe(rec.clone());
            let fit = crew(Parallelism::Auto, |crew| {
                fit_from(
                    crew,
                    &CompetingRisksFamily,
                    &s,
                    None,
                    guesses,
                    &FitConfig::default(),
                    &control,
                )
            });
            (fit, rec.take())
        };
        let (fit, events) = observed(Control::unbounded(), None);
        let fit = fit.unwrap();
        let family = "Competing Risks";
        let profile = CompetingRisksFamily
            .design(s.times())
            .unwrap()
            .optimum(s.values())
            .unwrap()
            .unwrap()
            .profile
            .unwrap();
        let total = profile.evaluations + 1;
        assert_eq!((fit.evaluations, fit.total_evaluations), (total, total));
        assert!(fit.converged);
        assert_eq!(
            events,
            [
                Event::FitStarted { family, starts: 0 },
                Event::Converged {
                    solver: SolverKind::Profile,
                    iterations: profile.iterations as u64,
                    evaluations: profile.evaluations as u64,
                    value: profile.value,
                    reason: ExitReason::Converged,
                },
                Event::Counter {
                    id: CounterId::ObjectiveEvals,
                    delta: total as u64
                },
                Event::FitFinished {
                    family,
                    sse: fit.sse,
                    evaluations: total as u64,
                    converged: true
                },
                Event::Hist {
                    id: HistogramId::EvalsPerFit,
                    value: total as u64
                },
            ]
        );
        let (seeded, seeded_events) = observed(Control::unbounded(), Some(&[vec![1.0, 0.5, 0.01]]));
        assert_eq!(seeded.unwrap().params, fit.params);
        assert_eq!(seeded_events, events);

        let (fit, events) = observed(Control::with_deadline(std::time::Duration::ZERO), None);
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
