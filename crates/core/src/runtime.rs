//! Supervised execution: deadlines, retry-with-backoff, panic isolation,
//! and graceful degradation (DESIGN.md §9).
//!
//! The fitting pipeline is deterministic but not immune to pathological
//! inputs: a family whose SSE surface traps the simplex can burn its full
//! iteration budget, a buggy family implementation can panic, and a
//! multi-series sweep can blow through a caller's latency budget. This
//! module layers *policies* over the raw fitting entry points:
//!
//! * [`fit_with_retry`] — re-runs a non-converged fit from jittered
//!   starting points with deterministically growing jitter (the
//!   parameter-space analogue of exponential backoff).
//! * [`rank_models_supervised`] — [`crate::selection::rank_models`] under
//!   an [`ExecPolicy`]: per-family time budgets, optional retry, and
//!   per-family panic isolation. Failures degrade the [`Ranking`]
//!   (`degraded: true`, typed [`FailureKind`] reasons) instead of
//!   poisoning it.
//!
//! Everything here preserves the workspace's determinism contract: retry
//! jitter comes from counter-derived RNG streams (never wall-clock), so a
//! retried fit is a pure function of the data, the config, and the
//! policy. Deadlines are the only nondeterministic input, and they only
//! select *which* typed outcome you get (a result, or a
//! `TimedOut`/`Cancelled` failure row) — never the numeric content of a
//! successful result.

use crate::chaos::{ChaosFault, ChaosPlan};
use crate::fit::{
    fit_from, fit_least_squares_with, ln_table, reads_ln_table, FitConfig, FitPlan, FittedModel,
};
use crate::model::ModelFamily;
use crate::selection::{
    score_family, sort_rows, FailureKind, FamilyFailure, Ranking, SelectionRow,
};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_obs::{replay, CounterId, Event, FailureCode, HistogramId, RecordingObserver};
use resilience_optim::multi_start::{run_start, StartReduction};
use resilience_optim::parallel::{catch_job, run_each, run_indexed_catch, JobPanic};
use resilience_optim::{Parallelism, StopCause};
use resilience_stats::XorShift64;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

pub use resilience_optim::{CancelToken, Control};

/// Deterministic retry for non-converged fits.
///
/// Attempt 1 uses the family's own starting points. Each later attempt
/// perturbs every starting point with zero-mean jitter whose amplitude
/// grows geometrically — exponential backoff in parameter space — so
/// retries explore progressively wider basins. The jitter for attempt
/// `k` is drawn from the counter-derived stream
/// `XorShift64::stream(base_seed, k)`, so the whole retry schedule is a
/// pure function of this policy: no wall-clock, no global RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1; 1 disables retry).
    pub max_attempts: usize,
    /// Seed for the jitter streams.
    pub base_seed: u64,
    /// Relative jitter amplitude on the first retry (attempt 2).
    pub initial_jitter: f64,
    /// Geometric growth factor of the amplitude per further attempt.
    pub growth: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_seed: 0x5EED,
            initial_jitter: 0.05,
            growth: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Jitter amplitude for 1-based `attempt` (attempt 1 is unjittered).
    fn amplitude(&self, attempt: usize) -> f64 {
        debug_assert!(attempt >= 2);
        self.initial_jitter * self.growth.powi(attempt as i32 - 2)
    }
}

/// Execution policy for a supervised multi-family run.
///
/// The default is fully permissive — no budget, no retry — so
/// [`rank_models_supervised`] under `ExecPolicy::default()` and an
/// unbounded [`Control`] behaves exactly like the plain
/// [`rank_models`](crate::selection::rank_models) (which delegates here).
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Wall-clock budget for each family's fit. The clock starts when the
    /// family's own work starts, not when the ranking call starts: when
    /// its job begins on a worker, or, in a wave that pools the starts of
    /// all its fits ([`rank_fleet_supervised`]), when the family's first
    /// start begins, and for a family with none, when its job finishes.
    /// Time spent queueing behind other families' work never counts. The
    /// budget is capped by the caller's overall [`Control`] deadline,
    /// never extending it. `None` means no per-family limit.
    pub family_budget: Option<Duration>,
    /// Retry schedule for non-converged fits. `None` means single-shot.
    pub retry: Option<RetryPolicy>,
    /// Per-family circuit breaker for fleet runs
    /// ([`rank_fleet_supervised`]). `None` disables breaking: every job
    /// always runs.
    pub breaker: Option<BreakerPolicy>,
    /// Deterministic fault-injection plan (chaos testing, DESIGN.md §14).
    /// `None` injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl ExecPolicy {
    /// Whether the policy supervises whole fleet cells (a breaker or a
    /// chaos plan is configured): a cell in which every family failed is
    /// then quarantined, with a `cell_quarantined` event, rather than
    /// merely left without survivors.
    #[must_use]
    pub fn supervises_cells(&self) -> bool {
        self.breaker.is_some() || self.chaos.is_some()
    }
}

/// Per-family circuit breaker for fleet runs (DESIGN.md §14).
///
/// The breaker is the classic Closed → Open → HalfOpen machine, made
/// deterministic: fleet cells execute in fixed-size *waves*, skip
/// decisions for a wave are frozen from the state at wave start, and all
/// state transitions happen in the serial post-wave reduction in input
/// order on a logical clock (the flattened job index) — no wall-clock
/// anywhere, so breaker behavior is bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures (per family) that trip Closed → Open.
    pub threshold: u32,
    /// Skipped jobs an Open breaker waits before probing (Open →
    /// HalfOpen). Logical cooldown: it ticks once per job the breaker
    /// skips, never on wall-clock.
    pub cooldown: u32,
    /// Cells per execution wave. Smaller waves react faster (a breaker
    /// tripped in one wave protects the next) at the cost of more
    /// scheduling barriers.
    pub wave: usize,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            threshold: 3,
            cooldown: 4,
            wave: 8,
        }
    }
}

/// Outcome of [`fit_with_retry`]: the winning fit plus how many attempts
/// it took.
#[derive(Debug)]
pub struct SupervisedFit {
    /// The best fit found across all attempts (lowest SSE; the first
    /// converged attempt wins outright and stops the schedule).
    pub fit: FittedModel,
    /// Number of attempts actually made (1 when the first fit converged).
    pub attempts: usize,
}

/// Number of jittered starting points generated around a best-so-far
/// optimum on warm retries (attempts ≥ 2 that already have a fit). Far
/// fewer than the cold grids (up to 24 starts): the center is already in
/// the right basin, the jitter only has to escape a simplex stall.
const WARM_RETRY_STARTS: usize = 8;

/// The starting points of retry `attempt` (≥ 2): the family's own
/// guesses, or with a `center` (the best fit so far) `WARM_RETRY_STARTS`
/// copies of it, each jittered by zero-mean noise, guess by guess and
/// coordinate by coordinate, drawn from `XorShift64::stream(base_seed,
/// attempt)` — resampling the basin already found rather than
/// re-exploring from scratch. A fresh stream per (seed, attempt) keeps
/// every retry schedule a pure function of the policy. Jitter is relative
/// (`1 + |g|`) so parameters spanning orders of magnitude are all
/// perturbed proportionally; infeasible jittered guesses are dropped by
/// the fit, like infeasible data-driven ones.
fn jittered_guesses(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    policy: &RetryPolicy,
    attempt: usize,
    center: Option<&[f64]>,
) -> Vec<Vec<f64>> {
    let amplitude = policy.amplitude(attempt);
    let mut rng = XorShift64::stream(policy.base_seed, attempt as u64);
    let mut guesses = match center {
        Some(center) => vec![center.to_vec(); WARM_RETRY_STARTS],
        None => family.initial_guesses(series),
    };
    for g in guesses.iter_mut().flatten() {
        *g += amplitude * (2.0 * rng.next_f64() - 1.0) * (1.0 + g.abs());
    }
    guesses
}

/// Fits `family` to `series`, retrying from jittered starting points when
/// the fit fails or does not converge.
///
/// The schedule keeps the best successful fit by SSE across attempts and
/// stops early at the first converged one. Deadline/cancellation stops
/// ([`CoreError::is_stop`]) abort the schedule immediately and propagate
/// — a stop is a property of the whole run, not of one attempt.
///
/// # Errors
///
/// * [`CoreError::TimedOut`] / [`CoreError::Cancelled`] when `control`
///   stops an attempt.
/// * The last attempt's error when every attempt fails.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::QuadraticFamily;
/// use resilience_core::fit::FitConfig;
/// use resilience_core::runtime::{fit_with_retry, Control, RetryPolicy};
/// use resilience_data::PerformanceSeries;
///
/// let values: Vec<f64> = (0..40)
///     .map(|i| {
///         let t = i as f64;
///         1.0 - 0.012 * t + 0.0004 * t * t
///     })
///     .collect();
/// let series = PerformanceSeries::monthly("demo", values)?;
/// let sup = fit_with_retry(
///     &QuadraticFamily,
///     &series,
///     &FitConfig::default(),
///     &RetryPolicy::default(),
///     &Control::unbounded(),
/// )?;
/// assert_eq!(sup.attempts, 1); // clean data converges first try
/// assert!(sup.fit.converged);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fit_with_retry(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    policy: &RetryPolicy,
    control: &Control,
) -> Result<SupervisedFit, CoreError> {
    let first = first_attempt(family, Some(policy), None, control, || {
        fit_least_squares_with(family, series, config, control)
    });
    retry_after(family, series, config, policy, control, None, first)
}

/// Chaos context threaded into the retry loop by the supervised jobs:
/// which plan governs this job, which fleet cell it belongs to, and
/// whether a job-boundary exhaustion fault is in force.
struct ChaosCtx<'a> {
    plan: &'a ChaosPlan,
    cell: u32,
    exhaust: bool,
}

impl ChaosCtx<'_> {
    /// The fault that fails attempt `attempt` before it fits, if any: an
    /// exhaustion fault fails every attempt, so the schedule runs (and is
    /// charged) to its policy bound; a transient fault fails this attempt
    /// only, and the next draws its own stream and may succeed. The
    /// transient is accounted with a `chaos_injected` event. The error is
    /// a plain deterministic one, not a stop: the retry schedule treats it
    /// like any other failed attempt.
    fn attempt_fault(
        &self,
        family: &dyn ModelFamily,
        attempt: usize,
        control: &Control,
        what: &'static str,
    ) -> Option<CoreError> {
        if !self.exhaust {
            if !self
                .plan
                .transient(self.cell, family.name(), attempt as u32)
            {
                return None;
            }
            control.emit(Event::ChaosInjected {
                kind: resilience_obs::ChaosKind::Transient,
                family: family.name(),
            });
            control.count(CounterId::ChaosInjected, 1);
        }
        Some(CoreError::arg(what, "chaos: injected fault"))
    }
}

/// Attempt 1 of a job: the error of a retry policy that allows no
/// attempt, a chaos fault, or `run` — the fit, or in a pooled wave its
/// plan.
fn first_attempt<T>(
    family: &dyn ModelFamily,
    retry: Option<&RetryPolicy>,
    chaos: Option<&ChaosCtx<'_>>,
    control: &Control,
    run: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let what = match retry {
        Some(retry) if retry.max_attempts == 0 => {
            return Err(CoreError::arg(
                "fit_with_retry",
                "max_attempts must be >= 1",
            ))
        }
        Some(_) => "fit_with_retry",
        None => "fit",
    };
    match chaos.and_then(|ctx| ctx.attempt_fault(family, 1, control, what)) {
        Some(fault) => Err(fault),
        None => run(),
    }
}

/// A job's fit after attempt 1, whose outcome is `first`: with the
/// retries `policy.retry` asks for, if any.
fn retried(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
    chaos: Option<&ChaosCtx<'_>>,
    first: Result<FittedModel, CoreError>,
) -> Result<FittedModel, CoreError> {
    match &policy.retry {
        Some(retry) => {
            retry_after(family, series, config, retry, control, chaos, first).map(|s| s.fit)
        }
        None => first,
    }
}

/// The retry schedule after attempt 1, whose outcome is `first`: attempts
/// 2 to `policy.max_attempts` until one converges, keeping the best fit by
/// SSE. With zero attempts allowed, `first` is [`first_attempt`]'s error
/// and nothing more runs.
fn retry_after(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    config: &FitConfig,
    policy: &RetryPolicy,
    control: &Control,
    chaos: Option<&ChaosCtx<'_>>,
    first: Result<FittedModel, CoreError>,
) -> Result<SupervisedFit, CoreError> {
    let mut best: Option<FittedModel> = None;
    let mut last_err: Option<CoreError> = None;
    let mut attempt = 1;
    let mut outcome = first;
    loop {
        match outcome {
            Ok(fit) => {
                let done = fit.converged;
                if best.as_ref().is_none_or(|b| fit.sse < b.sse) {
                    best = Some(fit);
                }
                if done {
                    break;
                }
            }
            Err(e) if e.is_stop() => return Err(e),
            Err(e) => last_err = Some(e),
        }
        if attempt >= policy.max_attempts {
            break;
        }
        // A stopped run exits *before* charging the retry: the attempt
        // would be dead on arrival, and a cancellation (or an expired
        // deadline) is a property of the whole run, not a failure this
        // family should burn budget on. Polling here — ahead of the retry
        // event/counter — keeps the telemetry honest: no
        // `retry_scheduled` is ever logged for an attempt that cannot run.
        if let Some(cause) = control.stop_cause() {
            return Err(match cause {
                StopCause::DeadlineExceeded => CoreError::timed_out("fit_with_retry"),
                StopCause::Cancelled => CoreError::cancelled("fit_with_retry"),
            });
        }
        attempt += 1;
        control.emit(Event::RetryScheduled {
            family: family.name(),
            attempt: attempt as u32,
        });
        control.count(CounterId::Retries, 1);
        if let Some(fault) =
            chaos.and_then(|ctx| ctx.attempt_fault(family, attempt, control, "fit_with_retry"))
        {
            outcome = Err(fault);
            continue;
        }
        // With a best-so-far fit, retries warm-start from its optimum
        // (the probe usually short-circuits the whole cold phase) and
        // jitter *around* it; without one, the cold grid is all there
        // is. Either way the schedule stays a pure function of the
        // policy — the warm center is itself deterministic.
        let center = best.as_ref().map(|fit| fit.params.as_slice());
        let guesses = jittered_guesses(family, series, policy, attempt, center);
        outcome = fit_from(family, series, Some(&guesses), center, config, control);
    }
    match best {
        Some(fit) => {
            control.emit(Event::Hist {
                id: HistogramId::AttemptsPerFit,
                value: attempt as u64,
            });
            Ok(SupervisedFit {
                fit,
                attempts: attempt,
            })
        }
        // All attempts errored; `last_err` is necessarily set.
        None => Err(last_err
            .unwrap_or_else(|| CoreError::arg("fit_with_retry", "no attempt produced a fit"))),
    }
}

/// [`rank_models`](crate::selection::rank_models) under an [`ExecPolicy`]
/// and an execution [`Control`]: a one-cell [`rank_fleet_supervised`].
///
/// Each family fits in its own supervised job:
///
/// * a panic inside the family is caught at the job boundary and becomes
///   a [`FailureKind::Panicked`] failure row;
/// * `policy.family_budget` narrows the caller's control to a per-family
///   deadline, so one runaway family costs at most its budget and
///   surfaces as [`FailureKind::TimedOut`];
/// * `policy.retry` re-runs non-converged fits from jittered starts.
///
/// Failures never abort the ranking: surviving families are ranked as
/// usual and the result carries `degraded: true` plus one typed failure
/// row per lost family (graceful degradation, DESIGN.md §9).
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] when *no* family fits.
/// * [`CoreError::TimedOut`] / [`CoreError::Cancelled`] when the
///   *caller's* control stopped the run and nothing survived.
pub fn rank_models_supervised(
    families: &[&dyn ModelFamily],
    series: &PerformanceSeries,
    config: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
) -> Result<Ranking, CoreError> {
    let mut cells = rank_fleet_supervised(
        families,
        std::slice::from_ref(series),
        config,
        policy,
        control,
    );
    cells.pop().expect("one outcome per cell").into_result()
}

/// The control a family's job fits under: the caller's control with the
/// job's event buffer attached and its chaos fault applied, narrowed to
/// `ExecPolicy::family_budget` when the family's solver work begins.
struct JobControl {
    base: Control,
    budget: Option<Duration>,
    started: OnceLock<Control>,
}

impl JobControl {
    /// Sets up job (`cell`, `family`): attaches `recorder`, draws the
    /// job's chaos fault (DESIGN.md §14) and applies it. The fault's
    /// accounting event goes into the job's recorder *before* the fault
    /// takes effect, so even a forced panic or an observer loss leaves the
    /// injection on the record — the smoke gate reconciles injected faults
    /// against these events.
    ///
    /// # Panics
    ///
    /// On purpose, under a forced-panic fault.
    fn new<'p>(
        family: &dyn ModelFamily,
        policy: &'p ExecPolicy,
        control: &Control,
        recorder: Option<&Arc<RecordingObserver>>,
        cell: u32,
    ) -> (JobControl, Option<ChaosCtx<'p>>) {
        let observed = match recorder {
            Some(rec) => control.with_observer(rec.clone()),
            None => control.clone(),
        };
        let fault = policy
            .chaos
            .as_ref()
            .and_then(|plan| plan.job_fault(cell, family.name()));
        let base = match fault {
            None => observed,
            Some(fault) => {
                observed.emit(Event::ChaosInjected {
                    kind: fault.kind(),
                    family: family.name(),
                });
                observed.count(CounterId::ChaosInjected, 1);
                match fault {
                    ChaosFault::ForcedPanic => {
                        panic!("chaos: forced panic in {}", family.name())
                    }
                    // Zero budget makes the solver's *first* cancellation
                    // point fire — the timeout travels through the real
                    // stop machinery, deterministically, with no
                    // wall-clock in any stored value.
                    ChaosFault::DeadlineBlowout => observed.narrowed(Duration::ZERO),
                    // The fit proceeds untraced: result paths must survive
                    // losing their telemetry sink.
                    ChaosFault::ObserverLoss => observed.unobserved(),
                    ChaosFault::RetryExhaustion => observed,
                }
            }
        };
        let chaos = policy.chaos.as_ref().map(|plan| ChaosCtx {
            plan,
            cell,
            exhaust: fault == Some(ChaosFault::RetryExhaustion),
        });
        let job = JobControl {
            base,
            budget: policy.family_budget,
            started: OnceLock::new(),
        };
        (job, chaos)
    }

    /// The control with the family budget's clock running: the first call
    /// starts it. Every later call, from any thread, shares its deadline.
    fn started(&self) -> &Control {
        match self.budget {
            None => &self.base,
            Some(budget) => self.started.get_or_init(|| self.base.narrowed(budget)),
        }
    }
}

/// A family's fit outcome as its ranking row, or as the typed failure
/// that replaces the row.
fn score(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    outcome: Result<FittedModel, CoreError>,
) -> Result<SelectionRow, FamilyFailure> {
    let fit = outcome.map_err(|e| {
        let kind = match e {
            CoreError::TimedOut { .. } => FailureKind::TimedOut,
            CoreError::Cancelled { .. } => FailureKind::Cancelled,
            _ => FailureKind::Error,
        };
        FamilyFailure {
            family_name: family.name(),
            reason: format!("fit: {e}"),
            kind,
        }
    })?;
    score_family(family, series, &fit)
}

/// The failure row of a job its open breaker skipped.
fn skipped(family: &dyn ModelFamily) -> FamilyFailure {
    FamilyFailure {
        family_name: family.name(),
        reason: "breaker open: fit skipped".into(),
        kind: FailureKind::Skipped,
    }
}

/// One supervised series × family job, whole, for a wave that fans out
/// over its jobs: sets up the job's control (the family budget's clock
/// starts here, on the worker, so queueing behind other jobs does not
/// consume a family's budget), fits — with retry when the policy asks for
/// it — and scores.
fn supervised_family_job(
    family: &dyn ModelFamily,
    series: &PerformanceSeries,
    inner: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
    recorder: Option<&Arc<RecordingObserver>>,
    cell: u32,
) -> Result<SelectionRow, FamilyFailure> {
    let (job, chaos) = JobControl::new(family, policy, control, recorder, cell);
    let control = job.started();
    let first = first_attempt(
        family,
        policy.retry.as_ref(),
        chaos.as_ref(),
        control,
        || fit_least_squares_with(family, series, inner, control),
    );
    let outcome = retried(
        family,
        series,
        inner,
        policy,
        control,
        chaos.as_ref(),
        first,
    );
    score(family, series, outcome)
}

/// The outcome of one wave job: its row or failure, or its panic.
type JobOutcome = Result<Result<SelectionRow, FamilyFailure>, JobPanic>;

/// One job of a wave that pools its starts, between its plan and its
/// finish (see [`pooled_wave`]).
struct PooledJob<'a> {
    family: &'a dyn ModelFamily,
    series: &'a PerformanceSeries,
    control: JobControl,
    chaos: Option<ChaosCtx<'a>>,
    /// Attempt 1: its planned fit, or the error that ended it before any
    /// start ran (a chaos fault, a planning failure, a retry policy that
    /// allows no attempt).
    first: Result<FitPlan<'a>, CoreError>,
    /// What attempt 1's starts left as they finished, in any order.
    run: Mutex<StartsRun>,
}

/// The running state of one job's pooled starts.
#[derive(Default)]
struct StartsRun {
    reduction: StartReduction,
    /// Each start's event buffer by start index, when observed.
    events: Vec<Option<Vec<Event>>>,
    /// The lowest-index start that panicked, with its message.
    panic: Option<JobPanic>,
}

impl<'a> PooledJob<'a> {
    /// The plan phase, on the calling thread: the job's control and chaos
    /// draw, then attempt 1 up to its starts.
    #[allow(clippy::too_many_arguments)]
    fn new(
        family: &'a dyn ModelFamily,
        series: &'a PerformanceSeries,
        ln_times: &'a [f64],
        config: &FitConfig,
        policy: &'a ExecPolicy,
        control: &Control,
        recorder: Option<&Arc<RecordingObserver>>,
        cell: u32,
    ) -> PooledJob<'a> {
        let (job, chaos) = JobControl::new(family, policy, control, recorder, cell);
        // Attempt 1 has no warm point, so its plan does no solver work and
        // leaves the family budget's clock alone. An exact fit's solve
        // does none either: it polls the control in its finish.
        let first = first_attempt(
            family,
            policy.retry.as_ref(),
            chaos.as_ref(),
            &job.base,
            || FitPlan::new(family, series, ln_times, None, None, config, &job.base),
        );
        let starts = first.as_ref().map_or(0, FitPlan::starts);
        // One buffer slot per start, filled as the starts finish.
        let events = if job.base.observed() {
            (0..starts).map(|_| None).collect()
        } else {
            Vec::new()
        };
        PooledJob {
            family,
            series,
            control: job,
            chaos,
            first,
            run: Mutex::new(StartsRun {
                events,
                ..StartsRun::default()
            }),
        }
    }

    /// Attempt 1's cold starts: none unless it is a planned fit.
    fn starts(&self) -> usize {
        self.first.as_ref().map_or(0, FitPlan::starts)
    }

    /// The dimension of attempt 1's search (0 unless it is a planned fit).
    fn dim(&self) -> usize {
        self.first.as_ref().map_or(0, FitPlan::dim)
    }

    /// Attempt 1's start `i`, on a pool worker. A panic is confined to the
    /// start and fails the job at its finish.
    fn run_start(&self, i: usize) {
        let Ok(plan) = &self.first else {
            unreachable!("only planned fits have starts")
        };
        let control = self.control.started();
        let start = catch_job(i, || run_start(i, control, |c| plan.minimize_start(i, c)));
        let mut run = self.run.lock().expect("start state poisoned");
        match start {
            Ok(start) => {
                if let Some(events) = start.events {
                    run.events[i] = Some(events);
                }
                run.reduction.add(i, start.result);
            }
            Err(panic) => {
                if run.panic.as_ref().is_none_or(|p| i < p.index) {
                    run.panic = Some(panic);
                }
            }
        }
    }

    /// The finish phase, on the calling thread: replays the start buffers
    /// in start order, finishes attempt 1, runs the retries the policy
    /// asks for and scores. A panicked start fails the job with the lowest
    /// panicking start's message, and none of the start buffers, as when
    /// its fit's own pool re-raises that panic.
    fn finish(self, job: usize, config: &FitConfig, policy: &ExecPolicy) -> JobOutcome {
        let run = self.run.into_inner().expect("start state poisoned");
        if let Some(panic) = run.panic {
            return Err(JobPanic {
                index: job,
                message: panic.message,
            });
        }
        catch_job(job, || {
            let control = self.control.started();
            let first = self.first.and_then(|plan| {
                if let Some(sink) = control.observer() {
                    for events in run.events.iter().flatten() {
                        replay(events, sink.as_ref());
                    }
                }
                plan.finish(run.reduction, config, control)
            });
            let outcome = retried(
                self.family,
                self.series,
                config,
                policy,
                control,
                self.chaos.as_ref(),
                first,
            );
            score(self.family, self.series, outcome)
        })
    }
}

/// Runs a wave with fewer cells than `config.parallelism` has threads:
///
/// 1. plans every job on the calling thread, in input order, with its
///    chaos draw and attempt 1 up to its starts — an exact fit's plan is
///    its solve, with no start;
/// 2. runs every start of every planned fit in one pool, longest search
///    first: jobs by descending search dimension, ties in input order,
///    each job's starts in start order — an order the plans fix, never
///    the timing; a job with no start waits for its finish;
/// 3. finishes the jobs on the calling thread, in input order: replays
///    each job's start buffers in start order, reduces, polishes, retries
///    and scores.
///
/// Rows, failures and the event log equal a run of the jobs one after
/// another, because the reduction of each job's starts is index-ordered
/// whatever order they finish in, and every buffer is replayed in start
/// order.
#[allow(clippy::too_many_arguments)]
fn pooled_wave(
    families: &[&dyn ModelFamily],
    cells: &[PerformanceSeries],
    first_cell: usize,
    config: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
    skip: &[bool],
    recorders: Option<&[Arc<RecordingObserver>]>,
) -> Vec<JobOutcome> {
    let nf = families.len();
    let ln_tables: Vec<Vec<f64>> = if families.iter().any(|f| reads_ln_table(*f)) {
        cells.iter().map(|s| ln_table(s.times())).collect()
    } else {
        vec![Vec::new(); cells.len()]
    };
    let jobs: Vec<Option<Result<PooledJob<'_>, JobPanic>>> = (0..cells.len() * nf)
        .map(|j| {
            (!skip[j]).then(|| {
                catch_job(j, || {
                    PooledJob::new(
                        families[j % nf],
                        &cells[j / nf],
                        &ln_tables[j / nf],
                        config,
                        policy,
                        control,
                        recorders.map(|recs| &recs[j]),
                        (first_cell + j / nf) as u32,
                    )
                })
            })
        })
        .collect();

    // The dispatch order, a function of the plans: jobs by descending
    // search dimension, ties in input order, each job's starts in start
    // order. `ends[s]` is one past the last pool index of `order[s]`.
    let mut order: Vec<&PooledJob<'_>> = jobs
        .iter()
        .flatten()
        .flatten()
        .filter(|job| job.starts() > 0)
        .collect();
    order.sort_by_key(|job| std::cmp::Reverse(job.dim()));
    let ends: Vec<usize> = order
        .iter()
        .scan(0, |end, job| {
            *end += job.starts();
            Some(*end)
        })
        .collect();
    run_each(config.parallelism, ends.last().copied().unwrap_or(0), |k| {
        let slot = ends.partition_point(|&end| end <= k);
        let job = order[slot];
        job.run_start(k + job.starts() - ends[slot]);
    });

    jobs.into_iter()
        .enumerate()
        .map(|(j, job)| match job {
            None => Ok(Err(skipped(families[j % nf]))),
            Some(Err(panic)) => Err(panic),
            Some(Ok(job)) => job.finish(j, config, policy),
        })
        .collect()
}

/// Outcome of one fleet cell under [`rank_fleet_supervised`].
#[derive(Debug)]
pub enum CellOutcome {
    /// At least one family ranked (possibly degraded).
    Ranked(Ranking),
    /// Every family failed, but the run itself was not stopped: the cell
    /// is quarantined. Fleet stores park quarantined cells in a sentinel
    /// column instead of retrying them.
    Quarantined {
        /// The typed per-family failures, in input order.
        failures: Vec<FamilyFailure>,
    },
    /// The caller's control stopped the run and nothing survived.
    Stopped(CoreError),
}

impl CellOutcome {
    /// Collapses to the single-series [`rank_models_supervised`] result
    /// shape: a quarantined cell maps to the `InvalidArgument` of a
    /// ranking in which no family fit.
    pub fn into_result(self) -> Result<Ranking, CoreError> {
        match self {
            CellOutcome::Ranked(ranking) => Ok(ranking),
            CellOutcome::Quarantined { .. } => {
                Err(CoreError::arg("rank_models", "no family produced a fit"))
            }
            CellOutcome::Stopped(e) => Err(e),
        }
    }

    /// The quarantined failures, if this cell was quarantined.
    pub fn quarantined(&self) -> Option<&[FamilyFailure]> {
        match self {
            CellOutcome::Quarantined { failures } => Some(failures),
            _ => None,
        }
    }
}

/// Circuit-breaker state for one family (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { cooldown: u32 },
    HalfOpen,
}

#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    consecutive: u32,
}

impl Breaker {
    fn closed() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
        }
    }

    /// A successful fit: reset the failure streak; a HalfOpen probe
    /// success recloses the breaker.
    fn on_success(&mut self, family: &'static str, clock: u64, control: &Control) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            control.emit(Event::BreakerClosed { family, clock });
        }
        self.consecutive = 0;
    }

    /// A failed fit: extend the streak; trip Closed → Open at the
    /// threshold, and reopen on a failed HalfOpen probe. Cancellation is
    /// excluded by the caller — a stopped run is not the family's fault.
    fn on_failure(
        &mut self,
        policy: &BreakerPolicy,
        family: &'static str,
        clock: u64,
        control: &Control,
    ) {
        self.consecutive += 1;
        let trip = match self.state {
            BreakerState::Closed => self.consecutive >= policy.threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                cooldown: policy.cooldown.max(1),
            };
            control.emit(Event::BreakerOpened {
                family,
                consecutive: self.consecutive,
                clock,
            });
            control.count(CounterId::BreakerOpened, 1);
        }
    }

    /// A skipped job while Open ticks the logical cooldown; at zero the
    /// breaker half-opens (the next wave runs one probe).
    fn on_skip(&mut self, family: &'static str, clock: u64, control: &Control) {
        if let BreakerState::Open { cooldown } = self.state {
            let cooldown = cooldown - 1;
            if cooldown == 0 {
                self.state = BreakerState::HalfOpen;
                control.emit(Event::BreakerHalfOpen { family, clock });
                control.count(CounterId::BreakerHalfOpen, 1);
            } else {
                self.state = BreakerState::Open { cooldown };
            }
        }
    }
}

/// The ranker: ranks every series in `series_list` under one policy,
/// with work-stealing over the *flattened* series × family job list
/// (DESIGN.md §13), plus per-family circuit breaking, cell quarantine,
/// and chaos injection when the policy asks for them (DESIGN.md §14).
/// [`rank_models_supervised`] and
/// [`rank_models`](crate::selection::rank_models) are one-cell calls of
/// this function.
///
/// The fan-out happens at exactly one level, chosen per wave. A wave with
/// at least as many cells as `config.parallelism` has threads hands its
/// jobs out one at a time from a shared atomic counter
/// ([`run_indexed_catch`]), so a cell whose families are all cheap does
/// not leave workers idle while one expensive series × family pair
/// finishes; each fit's multi-start runs serial. A smaller wave — every
/// one-cell ranking at two or more threads is one — has too few cells to
/// keep the threads busy on a handful of very unequal family jobs. It
/// plans every job on the calling thread, runs the starts of all its fits
/// in one pool, longest search first, and finishes each job on the
/// calling thread in input order; retries after attempt 1 run there too,
/// with the caller's `parallelism`. Both paths give the same rows,
/// failures and event log.
///
/// Cells execute in fixed-size waves (`policy.breaker.wave`; one single
/// wave when no breaker is configured). Within a wave, jobs run under
/// work-stealing; skip decisions are frozen from the breaker state at
/// wave start, and every state transition happens in the serial post-wave
/// reduction, in flattened input order, on a logical clock (the flattened
/// job index). The reduction opens each job's frame with a `job` event
/// naming its cell and family, replays the job's event buffer into the
/// caller's sink, emits `fit_failed` / `worker_panic` for lost families,
/// and sorts the survivors. Result: rankings, event logs, and breaker
/// behavior are all bit-identical across reruns and thread counts, and
/// without a breaker or chaos plan each cell's outcome and events equal
/// a one-cell call on that series, apart from the cell index on its
/// `job` lines.
///
/// Returns one outcome per series, in input order. A cell none of whose
/// families produced a row is [`CellOutcome::Stopped`] when the caller's
/// control stopped the run, and **quarantined** otherwise: downstream
/// stores park it in a sentinel column instead of burning retry budget
/// on it, and the other cells still rank.
pub fn rank_fleet_supervised(
    families: &[&dyn ModelFamily],
    series_list: &[PerformanceSeries],
    config: &FitConfig,
    policy: &ExecPolicy,
    control: &Control,
) -> Vec<CellOutcome> {
    let inner = FitConfig {
        parallelism: Parallelism::Serial,
        ..config.clone()
    };
    let threads = config.parallelism.threads_for(usize::MAX);
    let nf = families.len();
    let supervised = policy.supervises_cells();
    let wave_cells = policy
        .breaker
        .as_ref()
        .map_or(usize::MAX, |b| b.wave.max(1));
    let mut breakers: Vec<Breaker> = vec![Breaker::closed(); nf];
    let mut cells: Vec<CellOutcome> = Vec::with_capacity(series_list.len());

    let mut wave_start = 0usize;
    while wave_start < series_list.len() {
        let wave_end = wave_start.saturating_add(wave_cells).min(series_list.len());
        let wave_jobs = (wave_end - wave_start) * nf;
        // Skip mask frozen from the state at wave start. A HalfOpen
        // breaker lets exactly one probe job (the first of its family in
        // flattened order) through; everything else of that family waits
        // on the probe's verdict.
        let mut probed = vec![false; nf];
        let skip: Vec<bool> = (0..wave_jobs)
            .map(|j| {
                let f = j % nf;
                match breakers[f].state {
                    BreakerState::Closed => false,
                    BreakerState::Open { .. } => true,
                    BreakerState::HalfOpen => {
                        if probed[f] {
                            true
                        } else {
                            probed[f] = true;
                            false
                        }
                    }
                }
            })
            .collect();
        // Per-job event buffers, replayed into the caller's sink in input
        // order below. Created outside the jobs: a panicking family keeps
        // the events it buffered before dying.
        let recorders: Option<Vec<Arc<RecordingObserver>>> = control.observed().then(|| {
            (0..wave_jobs)
                .map(|_| Arc::new(RecordingObserver::new()))
                .collect()
        });
        // One fan-out level per wave: over the wave's jobs, or — when the
        // wave has fewer cells than threads — over the starts of all its
        // fits at once.
        let outcomes = if wave_end - wave_start < threads {
            pooled_wave(
                families,
                &series_list[wave_start..wave_end],
                wave_start,
                config,
                policy,
                control,
                &skip,
                recorders.as_deref(),
            )
        } else {
            run_indexed_catch(config.parallelism, wave_jobs, |j| {
                if skip[j] {
                    return Err(skipped(families[j % nf]));
                }
                supervised_family_job(
                    families[j % nf],
                    &series_list[wave_start + j / nf],
                    &inner,
                    policy,
                    control,
                    recorders.as_ref().map(|recs| &recs[j]),
                    (wave_start + j / nf) as u32,
                )
            })
        };

        // Serial reduction in flattened input order: open each job's
        // frame, replay its event buffer, update the breaker machine, and
        // assemble cells. The job's verdicts below fall inside its frame.
        let mut outcomes = outcomes.into_iter();
        for (w, cell) in (wave_start..wave_end).enumerate() {
            let mut rows = Vec::new();
            let mut failures = Vec::new();
            for f in 0..nf {
                let j = w * nf + f;
                let clock = (cell * nf + f) as u64;
                let family = families[f].name();
                control.emit(Event::JobStarted {
                    cell: cell as u32,
                    family,
                });
                if let (Some(recs), Some(sink)) = (recorders.as_ref(), control.observer()) {
                    replay(&recs[j].take(), sink.as_ref());
                }
                let outcome = outcomes.next().expect("one outcome per wave job");
                match outcome {
                    Ok(Ok(row)) => {
                        breakers[f].on_success(family, clock, control);
                        rows.push(row);
                    }
                    Ok(Err(failure)) => {
                        control.emit(Event::FitFailed {
                            family: failure.family_name,
                            kind: failure.kind.code(),
                        });
                        match failure.kind {
                            FailureKind::Skipped => breakers[f].on_skip(family, clock, control),
                            // A cancelled run is a property of the whole
                            // fleet, not evidence against this family.
                            FailureKind::Cancelled => {}
                            _ => {
                                if let Some(bp) = &policy.breaker {
                                    breakers[f].on_failure(bp, family, clock, control);
                                }
                            }
                        }
                        failures.push(failure);
                    }
                    Err(panic) => {
                        control.emit(Event::WorkerPanic {
                            scope: family,
                            index: f as u32,
                        });
                        control.emit(Event::FitFailed {
                            family,
                            kind: FailureCode::Panicked,
                        });
                        if let Some(bp) = &policy.breaker {
                            breakers[f].on_failure(bp, family, clock, control);
                        }
                        failures.push(FamilyFailure {
                            family_name: family,
                            reason: format!("fit: {}", panic.message),
                            kind: FailureKind::Panicked,
                        });
                    }
                }
            }
            if rows.is_empty() {
                // A stopped run with no survivors propagates the stop;
                // otherwise the cell is quarantined.
                match control.stop_cause() {
                    Some(StopCause::DeadlineExceeded) => {
                        cells.push(CellOutcome::Stopped(CoreError::timed_out("rank_models")));
                    }
                    Some(StopCause::Cancelled) => {
                        cells.push(CellOutcome::Stopped(CoreError::cancelled("rank_models")));
                    }
                    None => {
                        if supervised && !failures.is_empty() {
                            control.emit(Event::CellQuarantined {
                                cell: cell as u32,
                                failures: failures.len() as u32,
                            });
                            control.count(CounterId::CellsQuarantined, 1);
                        }
                        cells.push(CellOutcome::Quarantined { failures });
                    }
                }
            } else {
                sort_rows(&mut rows);
                let degraded = !failures.is_empty();
                cells.push(CellOutcome::Ranked(Ranking {
                    rows,
                    failures,
                    degraded,
                }));
            }
        }
        wave_start = wave_end;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
    use crate::model::ResilienceModel;

    fn quadratic_series() -> PerformanceSeries {
        let mut wiggle = 0.41_f64;
        let values: Vec<f64> = (0..48)
            .map(|i| {
                let t = i as f64;
                wiggle = (wiggle * 137.0).fract();
                1.0 - 0.012 * t + 0.0004 * t * t + 0.002 * (wiggle - 0.5)
            })
            .collect();
        PerformanceSeries::monthly("quad", values).unwrap()
    }

    #[test]
    fn retry_is_a_no_op_for_converging_fits() {
        let s = quadratic_series();
        let sup = fit_with_retry(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &RetryPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        assert_eq!(sup.attempts, 1);
        assert!(sup.fit.converged);
        // ... and bit-identical to the plain fit.
        let plain =
            crate::fit::fit_least_squares(&QuadraticFamily, &s, &FitConfig::default()).unwrap();
        assert_eq!(sup.fit.params, plain.params);
        assert_eq!(sup.fit.sse, plain.sse);
    }

    /// A fit configuration whose 3-iteration Nelder–Mead and skipped
    /// polish leave a searching fit non-converged.
    fn starved() -> FitConfig {
        let mut config = FitConfig::default();
        config.nelder_mead.max_iterations = 3;
        config.lm_polish = false;
        config
    }

    #[test]
    fn retry_recovers_from_a_starved_iteration_budget() {
        // A tiny iteration budget leaves the first attempt of a searching
        // family non-converged; the schedule must keep trying (from
        // jittered starts) and return the best SSE seen, with attempts > 1.
        let s = quadratic_series();
        let config = starved();
        let sup = fit_with_retry(
            &CompetingRisksFamily,
            &s,
            &config,
            &RetryPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        assert_eq!(sup.attempts, RetryPolicy::default().max_attempts);
        assert!(!sup.fit.converged);
        // Best-by-SSE: never worse than the single-shot fit.
        let single = crate::fit::fit_least_squares(&CompetingRisksFamily, &s, &config).unwrap();
        assert!(sup.fit.sse <= single.sse);

        // An exact fit has no iteration to starve: it converges on attempt
        // 1, with its one evaluation, and is never retried.
        let exact = fit_with_retry(
            &QuadraticFamily,
            &s,
            &config,
            &RetryPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        assert_eq!(exact.attempts, 1);
        assert!(exact.fit.converged);
        assert_eq!((exact.fit.evaluations, exact.fit.total_evaluations), (1, 1));
    }

    #[test]
    fn retry_schedule_is_deterministic() {
        let s = quadratic_series();
        let config = starved();
        let run = || {
            fit_with_retry(
                &CompetingRisksFamily,
                &s,
                &config,
                &RetryPolicy::default(),
                &Control::unbounded(),
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.fit.params, b.fit.params);
        assert_eq!(a.fit.sse, b.fit.sse);
    }

    #[test]
    fn retry_rejects_zero_attempts_and_propagates_stops() {
        let s = quadratic_series();
        let zero = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(fit_with_retry(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &zero,
            &Control::unbounded()
        )
        .is_err());
        // An expired deadline aborts the schedule instead of retrying
        // through it.
        let err = fit_with_retry(
            &QuadraticFamily,
            &s,
            &FitConfig::default(),
            &RetryPolicy::default(),
            &Control::with_deadline(Duration::ZERO),
        )
        .unwrap_err();
        assert!(err.is_stop(), "{err}");
    }

    #[test]
    fn supervised_ranking_with_default_policy_matches_rank_models() {
        let s = quadratic_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let plain = crate::selection::rank_models(&families, &s, &FitConfig::default()).unwrap();
        let supervised = rank_models_supervised(
            &families,
            &s,
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        assert_eq!(plain.rows.len(), supervised.rows.len());
        for (a, b) in plain.rows.iter().zip(&supervised.rows) {
            assert_eq!(a.family_name, b.family_name);
            assert_eq!(a.sse, b.sse);
        }
        assert!(!supervised.degraded);
    }

    #[test]
    fn supervised_ranking_event_log_is_invariant_to_thread_count() {
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;
        let s = quadratic_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let trace = |p: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let config = FitConfig {
                parallelism: p,
                ..FitConfig::default()
            };
            rank_models_supervised(
                &families,
                &s,
                &config,
                &ExecPolicy::default(),
                &Control::unbounded().observe(rec.clone()),
            )
            .unwrap();
            rec.take()
        };
        let serial = trace(Parallelism::Serial);
        assert!(!serial.is_empty());
        for p in [Parallelism::Fixed(2), Parallelism::Fixed(4)] {
            assert_eq!(trace(p), serial, "{p:?}");
        }
    }

    fn batch_series() -> Vec<PerformanceSeries> {
        // Three distinct recovery stories so the flattened job list mixes
        // cheap and expensive cells.
        [
            ("a", 0.009, 0.00030),
            ("b", 0.014, 0.00045),
            ("c", 0.006, 0.00020),
        ]
        .iter()
        .map(|&(name, drift, curve)| {
            let mut wiggle = 0.17_f64;
            let values: Vec<f64> = (0..40)
                .map(|i| {
                    let t = i as f64;
                    wiggle = (wiggle * 193.0).fract();
                    1.0 - drift * t + curve * t * t + 0.002 * (wiggle - 0.5)
                })
                .collect();
            PerformanceSeries::monthly(name, values).unwrap()
        })
        .collect()
    }

    #[test]
    fn fleet_cells_equal_one_cell_calls_in_rows_and_event_log() {
        use resilience_obs::RecordingObserver;
        // Under the default policy and under a retry policy whose starved
        // iteration budget forces retries, each fleet cell's rows are
        // bit-identical to a one-cell call on its series, and the fleet's
        // event log is the concatenation of the one-cell logs.
        // Competing Risks searches, so the starved budget retries it;
        // Quartic's exact fits run alongside as zero-start jobs.
        let series_list = batch_series();
        let families: Vec<&dyn ModelFamily> = vec![&CompetingRisksFamily, &QuarticFamily];
        let starved = starved();
        let retry = ExecPolicy {
            retry: Some(RetryPolicy::default()),
            ..ExecPolicy::default()
        };
        let default = (FitConfig::default(), ExecPolicy::default());
        for (config, policy) in [(&default.0, &default.1), (&starved, &retry)] {
            let rec = Arc::new(RecordingObserver::new());
            let fleet = rank_fleet_supervised(
                &families,
                &series_list,
                config,
                policy,
                &Control::unbounded().observe(rec.clone()),
            );
            let fleet_log = rec.take();
            let retried = fleet_log
                .iter()
                .any(|e| matches!(e, Event::RetryScheduled { .. }));
            assert_eq!(retried, policy.retry.is_some(), "{policy:?}");
            assert_eq!(fleet.len(), series_list.len());
            let mut concatenated = Vec::new();
            for (i, (series, outcome)) in series_list.iter().zip(fleet).enumerate() {
                let one = Arc::new(RecordingObserver::new());
                let standalone = rank_models_supervised(
                    &families,
                    series,
                    config,
                    policy,
                    &Control::unbounded().observe(one.clone()),
                )
                .unwrap();
                // A one-cell call is cell 0: renumber its `job` lines to
                // the fleet index.
                concatenated.extend(one.take().into_iter().map(|e| match e {
                    Event::JobStarted { cell: 0, family } => Event::JobStarted {
                        cell: i as u32,
                        family,
                    },
                    e => e,
                }));
                let ranking = outcome.into_result().unwrap();
                assert_eq!(ranking.rows.len(), standalone.rows.len());
                for (a, b) in ranking.rows.iter().zip(&standalone.rows) {
                    assert_eq!(a.family_name, b.family_name);
                    assert_eq!(a.sse.to_bits(), b.sse.to_bits());
                    assert_eq!(a.r2_adj.to_bits(), b.r2_adj.to_bits());
                }
            }
            assert_eq!(fleet_log, concatenated, "{policy:?}");
        }
    }

    #[test]
    fn fleet_results_and_events_are_invariant_to_thread_count() {
        use resilience_obs::RecordingObserver;
        let series_list = batch_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let run = |p: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let config = FitConfig {
                parallelism: p,
                ..FitConfig::default()
            };
            let rankings = rank_fleet_supervised(
                &families,
                &series_list,
                &config,
                &ExecPolicy::default(),
                &Control::unbounded().observe(rec.clone()),
            );
            let bits: Vec<Vec<(&'static str, u64)>> = rankings
                .into_iter()
                .map(|r| {
                    r.into_result()
                        .unwrap()
                        .rows
                        .into_iter()
                        .map(|row| (row.family_name, row.sse.to_bits()))
                        .collect()
                })
                .collect();
            (bits, rec.take())
        };
        let (serial_bits, serial_events) = run(Parallelism::Serial);
        assert!(!serial_events.is_empty());
        // Fixed(2) and Fixed(3) fan out over the 3 cells' family jobs;
        // Fixed(4) has more threads than cells, so it pools the starts of
        // every fit instead. Both paths must reproduce the serial run.
        for p in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(4),
        ] {
            let (bits, events) = run(p);
            assert_eq!(bits, serial_bits, "{p:?}");
            assert_eq!(events, serial_events, "{p:?}");
        }
    }

    #[test]
    fn fleet_degrades_per_cell_instead_of_aborting() {
        // No families at all: every series fails on its own, in its own
        // slot — the fleet call itself still returns one outcome per
        // series.
        let series_list = batch_series();
        let batch = rank_fleet_supervised(
            &[],
            &series_list,
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::unbounded(),
        );
        assert_eq!(batch.len(), series_list.len());
        for outcome in batch {
            assert!(matches!(
                outcome.into_result(),
                Err(CoreError::InvalidArgument { .. })
            ));
        }
        // And an empty fleet is an empty result, not an error.
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily];
        assert!(rank_fleet_supervised(
            &families,
            &[],
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .is_empty());
    }

    #[test]
    fn retry_telemetry_reports_schedule_and_attempts() {
        use resilience_obs::{CounterId, Event, HistogramId, RecordingObserver};
        use std::sync::Arc;
        let s = quadratic_series();
        let config = starved();
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::unbounded().observe(rec.clone());
        let sup = fit_with_retry(
            &CompetingRisksFamily,
            &s,
            &config,
            &RetryPolicy::default(),
            &control,
        )
        .unwrap();
        assert_eq!(sup.attempts, 3);
        let events = rec.take();
        let retries: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                Event::RetryScheduled { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![2, 3]);
        let retry_count: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::Retries,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(retry_count, 2);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Hist {
                id: HistogramId::AttemptsPerFit,
                value: 3,
            }
        )));
    }

    /// Delegates everything to [`QuadraticFamily`] but cancels `token`
    /// inside `initial_guesses` and returns no guesses, so the attempt
    /// fails with a plain (non-stop) error while the run is now
    /// cancelled — the exact state the retry loop must not charge.
    struct CancelInsideFit {
        token: CancelToken,
    }

    impl ModelFamily for CancelInsideFit {
        fn name(&self) -> &'static str {
            "CancelInsideFit"
        }
        fn n_params(&self) -> usize {
            QuadraticFamily.n_params()
        }
        fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
            QuadraticFamily.internal_to_params(internal)
        }
        fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
            QuadraticFamily.params_to_internal(params)
        }
        fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
            QuadraticFamily.build(params)
        }
        fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
            self.token.cancel();
            Vec::new()
        }
    }

    #[test]
    fn cancellation_exits_the_retry_schedule_without_charging_an_attempt() {
        use resilience_obs::RecordingObserver;
        // Regression: the retry loop used to emit `retry_scheduled` and
        // charge the Retries counter at the top of every attempt >= 2,
        // even when the run was already cancelled — a dead-on-arrival
        // attempt billed to the family. Cancellation must exit the
        // schedule immediately, with zero retry telemetry.
        let s = quadratic_series();
        let token = CancelToken::new();
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::with_token(&token).observe(rec.clone());
        let err = fit_with_retry(
            &CancelInsideFit {
                token: token.clone(),
            },
            &s,
            &FitConfig::default(),
            &RetryPolicy::default(),
            &control,
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Cancelled { .. }),
            "expected Cancelled, got {err}"
        );
        let events = rec.take();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::RetryScheduled { .. })),
            "cancelled run must not schedule retries: {events:?}"
        );
        assert!(
            !events.iter().any(|e| matches!(
                e,
                Event::Counter {
                    id: CounterId::Retries,
                    ..
                }
            )),
            "cancelled run must not charge the Retries counter: {events:?}"
        );
    }

    /// Delegates to [`QuadraticFamily`] but refuses to fit any series
    /// whose name starts with `bad` (empty guess pool → a plain error),
    /// so failures are a pure function of the cell.
    struct FailsOnBadCells;

    impl ModelFamily for FailsOnBadCells {
        fn name(&self) -> &'static str {
            "FailsOnBadCells"
        }
        fn n_params(&self) -> usize {
            QuadraticFamily.n_params()
        }
        fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
            QuadraticFamily.internal_to_params(internal)
        }
        fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
            QuadraticFamily.params_to_internal(params)
        }
        fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
            QuadraticFamily.build(params)
        }
        fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
            if series.name().starts_with("bad") {
                Vec::new()
            } else {
                QuadraticFamily.initial_guesses(series)
            }
        }
    }

    fn breaker_series(n_bad_then_good: (usize, usize)) -> Vec<PerformanceSeries> {
        let (bad, good) = n_bad_then_good;
        (0..bad + good)
            .map(|i| {
                let name = if i < bad {
                    format!("bad{i}")
                } else {
                    format!("good{i}")
                };
                let values: Vec<f64> = (0..40)
                    .map(|t| {
                        let t = t as f64;
                        1.0 - 0.011 * t + 0.00035 * t * t
                    })
                    .collect();
                PerformanceSeries::monthly(name, values).unwrap()
            })
            .collect()
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recloses() {
        use resilience_obs::RecordingObserver;
        // 8 failing cells then 8 healthy ones, wave = 2, threshold = 2,
        // cooldown = 2: the flaky family must trip Open, skip (saving its
        // budget), half-open, fail its probe while cells stay bad, and
        // reclose once a probe lands on a healthy cell. The healthy
        // family keeps every cell ranked throughout.
        let series_list = breaker_series((8, 8));
        let families: Vec<&dyn ModelFamily> = vec![&FailsOnBadCells, &QuadraticFamily];
        let policy = ExecPolicy {
            breaker: Some(BreakerPolicy {
                threshold: 2,
                cooldown: 2,
                wave: 2,
            }),
            ..ExecPolicy::default()
        };
        let run = |p: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let config = FitConfig {
                parallelism: p,
                ..FitConfig::default()
            };
            let outcomes = rank_fleet_supervised(
                &families,
                &series_list,
                &config,
                &policy,
                &Control::unbounded().observe(rec.clone()),
            );
            (outcomes, rec.take())
        };
        let (outcomes, events) = run(Parallelism::Serial);
        assert_eq!(outcomes.len(), 16);
        // Every cell ranks (the healthy family always fits); bad cells
        // are degraded by a failure or a breaker skip.
        let mut skips = 0;
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                CellOutcome::Ranked(r) => {
                    assert!(!r.rows.is_empty(), "cell {i} has no rows");
                    skips += r
                        .failures
                        .iter()
                        .filter(|f| f.kind == FailureKind::Skipped)
                        .count();
                }
                other => panic!("cell {i}: unexpected {other:?}"),
            }
        }
        assert!(skips > 0, "breaker never skipped a job");
        let opened = events
            .iter()
            .filter(|e| matches!(e, Event::BreakerOpened { .. }))
            .count();
        let half_open = events
            .iter()
            .filter(|e| matches!(e, Event::BreakerHalfOpen { .. }))
            .count();
        let closed = events
            .iter()
            .filter(|e| matches!(e, Event::BreakerClosed { .. }))
            .count();
        assert!(opened >= 2, "expected trip + failed-probe reopen: {opened}");
        assert!(half_open >= 2, "expected repeated cooldowns: {half_open}");
        assert_eq!(closed, 1, "exactly one successful probe recloses");
        // Skipped failures carry the typed kind end to end.
        assert!(events.iter().any(|e| matches!(
            e,
            Event::FitFailed {
                kind: FailureCode::Skipped,
                ..
            }
        )));
        // The whole schedule — results, events, breaker transitions — is
        // invariant to thread count.
        for p in [Parallelism::Fixed(2), Parallelism::Fixed(3)] {
            let (other, other_events) = run(p);
            assert_eq!(other_events, events, "{p:?}");
            for (a, b) in outcomes.iter().zip(&other) {
                match (a, b) {
                    (CellOutcome::Ranked(x), CellOutcome::Ranked(y)) => {
                        assert_eq!(x.rows.len(), y.rows.len());
                        for (ra, rb) in x.rows.iter().zip(&y.rows) {
                            assert_eq!(ra.sse.to_bits(), rb.sse.to_bits());
                        }
                        assert_eq!(x.failures.len(), y.failures.len());
                    }
                    _ => panic!("outcome shape diverged under {p:?}"),
                }
            }
        }
    }

    #[test]
    fn all_family_failure_quarantines_the_cell() {
        use resilience_obs::RecordingObserver;
        // Only the flaky family, all cells bad: every cell quarantines
        // (bad fits and, once the breaker trips, skips).
        let series_list = breaker_series((6, 0));
        let families: Vec<&dyn ModelFamily> = vec![&FailsOnBadCells];
        let policy = ExecPolicy {
            breaker: Some(BreakerPolicy {
                threshold: 2,
                cooldown: 2,
                wave: 2,
            }),
            ..ExecPolicy::default()
        };
        let rec = Arc::new(RecordingObserver::new());
        let outcomes = rank_fleet_supervised(
            &families,
            &series_list,
            &FitConfig::default(),
            &policy,
            &Control::unbounded().observe(rec.clone()),
        );
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, CellOutcome::Quarantined { .. })));
        let events = rec.take();
        let quarantines = events
            .iter()
            .filter(|e| matches!(e, Event::CellQuarantined { .. }))
            .count();
        assert_eq!(quarantines, series_list.len());
        let counted: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::CellsQuarantined,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(counted, series_list.len() as u64);
        // A quarantined cell collapses to the no-survivor error.
        assert!(outcomes
            .into_iter()
            .all(|o| matches!(o.into_result(), Err(CoreError::InvalidArgument { .. }))));
    }

    #[test]
    fn chaos_runs_are_bit_identical_and_fully_accounted() {
        use crate::chaos::ChaosPlan;
        use resilience_obs::RecordingObserver;
        let series_list = batch_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let policy = ExecPolicy {
            retry: Some(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }),
            breaker: Some(BreakerPolicy {
                threshold: 2,
                cooldown: 2,
                wave: 2,
            }),
            chaos: Some(ChaosPlan {
                seed: 11,
                panic_per_mille: 250,
                deadline_per_mille: 250,
                exhaustion_per_mille: 150,
                observer_loss_per_mille: 150,
                transient_per_mille: 200,
            }),
            ..ExecPolicy::default()
        };
        let run = |p: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let config = FitConfig {
                parallelism: p,
                ..FitConfig::default()
            };
            let outcomes = rank_fleet_supervised(
                &families,
                &series_list,
                &config,
                &policy,
                &Control::unbounded().observe(rec.clone()),
            );
            (outcomes, rec.take())
        };
        let (outcomes, events) = run(Parallelism::Serial);
        assert_eq!(outcomes.len(), series_list.len());
        // Every injected fault is accounted: one ChaosInjected counter
        // increment per ChaosInjected event, no more, no fewer.
        let injected_events = events
            .iter()
            .filter(|e| matches!(e, Event::ChaosInjected { .. }))
            .count() as u64;
        let injected_counted: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::ChaosInjected,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert!(injected_events > 0, "plan injected nothing — dead test");
        assert_eq!(injected_counted, injected_events);
        // Chaos is deterministic: reruns and thread counts change nothing.
        let (rerun, rerun_events) = run(Parallelism::Serial);
        assert_eq!(rerun_events, events);
        assert_eq!(format!("{rerun:?}"), format!("{outcomes:?}"));
        for p in [Parallelism::Fixed(2), Parallelism::Fixed(3)] {
            let (par, par_events) = run(p);
            assert_eq!(par_events, events, "{p:?}");
            assert_eq!(format!("{par:?}"), format!("{outcomes:?}"), "{p:?}");
        }
    }

    /// A constant curve `y = c` fitted from the given starting guesses:
    /// a family whose starts can be made to fail, panic or dawdle one by
    /// one. Its prediction sleeps for `nap`, panics, naming `c`, once `c`
    /// exceeds `panic_above`, and is non-finite everywhere when `finite`
    /// is false.
    struct ConstantProbe {
        name: &'static str,
        guesses: &'static [f64],
        panic_above: f64,
        finite: bool,
        nap: Duration,
    }

    impl ConstantProbe {
        fn new(name: &'static str, guesses: &'static [f64]) -> ConstantProbe {
            ConstantProbe {
                name,
                guesses,
                panic_above: f64::INFINITY,
                finite: true,
                nap: Duration::ZERO,
            }
        }
    }

    struct Constant(f64);

    impl ResilienceModel for Constant {
        fn name(&self) -> &'static str {
            "Constant"
        }
        fn params(&self) -> Vec<f64> {
            vec![self.0]
        }
        fn predict(&self, _t: f64) -> f64 {
            self.0
        }
    }

    impl ModelFamily for ConstantProbe {
        fn name(&self) -> &'static str {
            self.name
        }
        fn n_params(&self) -> usize {
            1
        }
        fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
            internal.to_vec()
        }
        fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
            Ok(params.to_vec())
        }
        fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
            Ok(Box::new(Constant(params[0])))
        }
        fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
            self.guesses.iter().map(|&g| vec![g]).collect()
        }
        fn predict_params_into(&self, params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
            std::thread::sleep(self.nap);
            let c = params[0];
            if c > self.panic_above {
                panic!("injected panic at c = {c}");
            }
            out.fill(if self.finite { c } else { f64::NAN });
            true
        }
    }

    /// A one-cell ranking's rows and failures (as their `Debug` text: SSE
    /// and R² print with every bit) and its event log.
    fn one_cell_trace(
        families: &[&dyn ModelFamily],
        series: &PerformanceSeries,
        config: &FitConfig,
        policy: &ExecPolicy,
        parallelism: Parallelism,
    ) -> (String, Vec<Event>) {
        use resilience_obs::RecordingObserver;
        let rec = Arc::new(RecordingObserver::new());
        let config = FitConfig {
            parallelism,
            ..config.clone()
        };
        let ranking = rank_models_supervised(
            families,
            series,
            &config,
            policy,
            &Control::unbounded().observe(rec.clone()),
        );
        (format!("{ranking:?}"), rec.take())
    }

    /// Every thread count gives the serial one-cell ranking: rows,
    /// failures and event log. `Serial` runs the jobs one after another;
    /// every other level here has more threads than the cell count, so it
    /// pools the starts of all the families. Returns the serial trace.
    fn assert_pooled_matches_serial(
        families: &[&dyn ModelFamily],
        series: &PerformanceSeries,
        config: &FitConfig,
        policy: &ExecPolicy,
    ) -> (String, Vec<Event>) {
        let serial = one_cell_trace(families, series, config, policy, Parallelism::Serial);
        for p in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let (ranking, events) = one_cell_trace(families, series, config, policy, p);
            assert_eq!(ranking, serial.0, "{p:?}");
            assert_eq!(events, serial.1, "{p:?}");
        }
        serial
    }

    fn paper_families(mixtures: &[crate::mixture::MixtureFamily]) -> Vec<&dyn ModelFamily> {
        let mut families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        families.extend(mixtures.iter().map(|m| m as &dyn ModelFamily));
        families
    }

    #[test]
    fn pooled_ranking_of_the_paper_families_matches_serial() {
        let series = resilience_data::recessions::Recession::R1990_93.payroll_index();
        let mixtures = crate::mixture::MixtureFamily::paper_combinations();
        let (ranking, events) = assert_pooled_matches_serial(
            &paper_families(&mixtures),
            &series,
            &FitConfig::default(),
            &ExecPolicy::default(),
        );
        assert!(ranking.contains("degraded: false"), "{ranking}");
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::StartBegan { .. }))
            .count();
        // Quadratic's exact fit has none, Competing Risks' 8 guesses merge
        // into 6 starts in ln β, and each mixture has 9 (DESIGN.md §11).
        assert_eq!(starts, 6 + 4 * 9);
    }

    #[test]
    fn pooled_ranking_with_retries_matches_serial() {
        let series = resilience_data::recessions::Recession::R1990_93.payroll_index();
        let mixtures = crate::mixture::MixtureFamily::paper_combinations();
        let policy = ExecPolicy {
            retry: Some(RetryPolicy::default()),
            ..ExecPolicy::default()
        };
        let (_, events) =
            assert_pooled_matches_serial(&paper_families(&mixtures), &series, &starved(), &policy);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::RetryScheduled { attempt: 2, .. })));
    }

    #[test]
    fn pooled_ranking_under_chaos_matches_serial() {
        use resilience_obs::ChaosKind;
        let series = resilience_data::recessions::Recession::R1990_93.payroll_index();
        let mixtures = crate::mixture::MixtureFamily::paper_combinations();
        let mut families = paper_families(&mixtures);
        families.push(&QuarticFamily);
        // The first seed whose one cell draws every job fault and a
        // transient on some unfaulted family's first attempt.
        let plan = (0..10_000)
            .map(|seed| ChaosPlan {
                seed,
                panic_per_mille: 120,
                deadline_per_mille: 120,
                exhaustion_per_mille: 120,
                observer_loss_per_mille: 120,
                transient_per_mille: 300,
            })
            .find(|plan| {
                let faults: Vec<_> = families
                    .iter()
                    .map(|f| plan.job_fault(0, f.name()))
                    .collect();
                [
                    ChaosFault::ForcedPanic,
                    ChaosFault::DeadlineBlowout,
                    ChaosFault::RetryExhaustion,
                    ChaosFault::ObserverLoss,
                ]
                .iter()
                .all(|k| faults.contains(&Some(*k)))
                    && families
                        .iter()
                        .zip(&faults)
                        .any(|(f, fault)| fault.is_none() && plan.transient(0, f.name(), 1))
            })
            .expect("a seed that draws every fault");
        let policy = ExecPolicy {
            retry: Some(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }),
            chaos: Some(plan),
            ..ExecPolicy::default()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (ranking, events) =
            assert_pooled_matches_serial(&families, &series, &FitConfig::default(), &policy);
        std::panic::set_hook(hook);
        for kind in [
            ChaosKind::Panic,
            ChaosKind::Deadline,
            ChaosKind::Exhaustion,
            ChaosKind::ObserverLoss,
            ChaosKind::Transient,
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::ChaosInjected { kind: k, .. } if *k == kind)),
                "{kind:?} not injected"
            );
        }
        for kind in ["Panicked", "TimedOut", "Error"] {
            assert!(ranking.contains(kind), "no {kind} failure: {ranking}");
        }
    }

    #[test]
    fn pooled_ranking_with_a_panicking_start_matches_serial() {
        // Starts 2 and 3 panic; the family fails with start 2's message,
        // the one a serial run raises.
        let probe = ConstantProbe {
            panic_above: 5.0,
            ..ConstantProbe::new("Probe", &[0.5, 0.6, 7.0, 9.0])
        };
        let series = quadratic_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &probe, &CompetingRisksFamily];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (ranking, events) = assert_pooled_matches_serial(
            &families,
            &series,
            &FitConfig::default(),
            &ExecPolicy::default(),
        );
        std::panic::set_hook(hook);
        assert!(
            ranking.contains(r#"reason: "fit: injected panic at c = 7", kind: Panicked"#),
            "{ranking}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::WorkerPanic { scope: "Probe", .. })));
    }

    #[test]
    fn pooled_ranking_with_a_family_whose_starts_all_fail_matches_serial() {
        let never = ConstantProbe {
            finite: false,
            ..ConstantProbe::new("NeverFinite", &[0.5, 1.0, 1.5, 2.0, 2.5])
        };
        let series = quadratic_series();
        let families: Vec<&dyn ModelFamily> = vec![&never, &QuadraticFamily, &QuarticFamily];
        let (ranking, _) = assert_pooled_matches_serial(
            &families,
            &series,
            &FitConfig::default(),
            &ExecPolicy::default(),
        );
        assert!(
            ranking.contains(
                r#"reason: "fit: fit failed: all 5 multi-start attempts failed", kind: Error"#
            ),
            "{ranking}"
        );
    }

    /// A family budget's clock starts with the family's own work, so time
    /// spent waiting for a worker never counts. The slow family's two
    /// starts fill both workers until its budget runs out, and it times
    /// out; the fast family queued behind them still gets its whole budget
    /// and ranks, as it does when the jobs run one after another.
    #[test]
    fn family_budgets_do_not_count_time_queued_behind_other_families() {
        let slow = ConstantProbe {
            nap: Duration::from_millis(5),
            ..ConstantProbe::new("Slow", &[0.5, 1.5])
        };
        let fast = ConstantProbe::new("Fast", &[1.0]);
        let families: Vec<&dyn ModelFamily> = vec![&slow, &fast];
        let policy = ExecPolicy {
            family_budget: Some(Duration::from_millis(50)),
            ..ExecPolicy::default()
        };
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
            let config = FitConfig {
                parallelism,
                ..FitConfig::default()
            };
            let ranking = rank_models_supervised(
                &families,
                &quadratic_series(),
                &config,
                &policy,
                &Control::unbounded(),
            )
            .unwrap();
            assert_eq!(ranking.rows.len(), 1, "{parallelism:?}: {ranking:?}");
            assert_eq!(ranking.rows[0].family_name, "Fast");
            assert_eq!(ranking.failures.len(), 1, "{parallelism:?}");
            assert_eq!(ranking.failures[0].family_name, "Slow");
            assert_eq!(ranking.failures[0].kind, FailureKind::TimedOut);
        }
    }

    #[test]
    fn whole_run_stop_with_no_survivors_propagates_the_stop() {
        let s = quadratic_series();
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &QuarticFamily];
        let err = rank_models_supervised(
            &families,
            &s,
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::with_deadline(Duration::ZERO),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::TimedOut { what } if what == "rank_models"),
            "{err}"
        );
    }
}
