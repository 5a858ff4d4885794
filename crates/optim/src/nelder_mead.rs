//! Nelder–Mead downhill simplex minimization.
//!
//! The derivative-free workhorse of the fitting pipeline: robust to the
//! noisy, occasionally non-finite objectives that arise when a resilience
//! model is probed near its validity boundary. Non-finite objective values
//! are treated as `+∞`, so the simplex simply contracts away from invalid
//! regions.

use crate::control::Control;
use crate::report::{OptimReport, TerminationReason};
use crate::OptimError;
use resilience_obs::{CounterId, Event, ExitReason, SolverKind};

/// Relative size of the initial simplex around the starting point.
const INITIAL_STEP: f64 = 0.1;
/// Reflection coefficient.
const ALPHA: f64 = 1.0;
/// Expansion coefficient.
const GAMMA: f64 = 2.0;
/// Contraction coefficient.
const RHO: f64 = 0.5;
/// Shrink coefficient.
const SIGMA: f64 = 0.5;

/// The stopping rule of [`NelderMead`]. The simplex itself uses the
/// standard coefficients (reflection 1, expansion 2, contraction and
/// shrink ½) and an initial step of 0.1 × (1 + |x₀ᵢ|) along each axis.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum number of iterations (each iteration is 1–`n+2`
    /// evaluations).
    pub max_iterations: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex's coordinate spread.
    pub x_tol: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            max_iterations: 2000,
            f_tol: 1e-12,
            x_tol: 1e-10,
        }
    }
}

impl NelderMeadConfig {
    fn validate(&self) -> Result<(), OptimError> {
        if self.max_iterations == 0 {
            return Err(OptimError::config(
                "NelderMead",
                "max_iterations must be > 0",
            ));
        }
        if !(self.f_tol > 0.0) || !(self.x_tol > 0.0) {
            return Err(OptimError::config(
                "NelderMead",
                "tolerances must be positive",
            ));
        }
        Ok(())
    }
}

/// The Nelder–Mead simplex optimizer.
///
/// # Examples
///
/// ```
/// use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
/// use resilience_optim::Control;
/// // Rosenbrock's banana.
/// let f = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
/// let report = NelderMead::new(NelderMeadConfig {
///     max_iterations: 5000,
///     ..NelderMeadConfig::default()
/// })
/// .minimize(&f, &[-1.2, 1.0], &Control::unbounded())?;
/// assert!((report.params[0] - 1.0).abs() < 1e-4);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NelderMead {
    config: NelderMeadConfig,
}

impl NelderMead {
    /// Creates an optimizer with the given configuration.
    #[must_use]
    pub fn new(config: NelderMeadConfig) -> Self {
        NelderMead { config }
    }

    /// Minimizes `f` starting from `x0` under an execution [`Control`]:
    /// [`NelderMead::begin`], [`NelderMead::advance`] to the run's end and
    /// [`NelderMeadRun::finish`].
    ///
    /// `f` is any `Fn(&[f64]) -> f64`, scored one point at a time: `x0`,
    /// then the initial simplex's vertices in axis order, then per
    /// iteration a reflection, an expansion or contraction, and on a
    /// shrink each moved vertex in simplex order. Non-finite objective
    /// values are treated as `+∞` (the simplex moves away from them); only
    /// a non-finite value at `x0` itself is an error.
    ///
    /// The iteration loop (and the initial simplex) is a cooperative
    /// cancellation point: when the control's deadline passes or its token
    /// fires, the run stops within one iteration and returns a typed error
    /// instead of its best-so-far point. Pass [`Control::unbounded`] for an
    /// uncontrolled run.
    ///
    /// # Errors
    ///
    /// * [`OptimError::InvalidConfig`] for bad configuration or empty `x0`.
    /// * [`OptimError::BadStartingPoint`] when `f(x0)` is non-finite.
    /// * [`OptimError::TimedOut`] / [`OptimError::Cancelled`] on a stop.
    pub fn minimize<F: Fn(&[f64]) -> f64>(
        &self,
        f: &F,
        x0: &[f64],
        control: &Control,
    ) -> Result<OptimReport, OptimError> {
        let mut run = self.begin(f, x0, control)?;
        self.advance(f, &mut run, usize::MAX, control)?;
        Ok(run.finish(control))
    }

    /// The first step of a run: scores `x0`, polls the control, and builds
    /// and sorts the initial simplex (`x0` plus a step along each axis).
    ///
    /// # Errors
    ///
    /// As [`NelderMead::minimize`], apart from a stop inside the
    /// iterations.
    pub fn begin<F: Fn(&[f64]) -> f64>(
        &self,
        f: &F,
        x0: &[f64],
        control: &Control,
    ) -> Result<NelderMeadRun, OptimError> {
        self.config.validate()?;
        if x0.is_empty() {
            return Err(OptimError::config("NelderMead", "empty starting point"));
        }
        let n = x0.len();
        let dim = u32::try_from(n)
            .map_err(|_| OptimError::config("NelderMead", "too many coordinates"))?;
        let width = n + 1;
        let mut evaluations = 0;
        let f0 = score(f, x0, &mut evaluations);
        if !f0.is_finite() {
            return Err(OptimError::BadStartingPoint { value: f0 });
        }
        control.check_stop(SolverKind::NelderMead.stop_scope(), evaluations)?;
        let mut simplex = Vec::with_capacity(width * width);
        simplex.extend_from_slice(x0);
        simplex.push(f0);
        for i in 0..n {
            let row = simplex.len();
            simplex.extend_from_slice(x0);
            simplex[row + i] += INITIAL_STEP * (1.0 + x0[i].abs());
            let fv = score(f, &simplex[row..row + n], &mut evaluations);
            simplex.push(fv);
        }
        sort_rows(&mut simplex, width);
        Ok(NelderMeadRun {
            dim,
            simplex,
            iterations: 0,
            evaluations,
            steps: [0; 4],
            termination: None,
        })
    }

    /// The iterations of `run`, a run this optimizer began: runs until
    /// the run ends, or pauses at the first iteration boundary at which it
    /// has spent at least `until` evaluations. Returns whether the run has
    /// ended. A run that has ended stays as it is.
    ///
    /// A run pauses only between iterations and keeps its whole state, so
    /// a run advanced to its end in any number of calls equals one
    /// advanced in one, bit for bit: its point, value, counts and events.
    /// The buffers the iterations reuse are allocated once per call, and
    /// no iteration allocates.
    ///
    /// # Errors
    ///
    /// [`OptimError::TimedOut`] / [`OptimError::Cancelled`] when the
    /// control stops the run at an iteration boundary.
    pub fn advance<F: Fn(&[f64]) -> f64>(
        &self,
        f: &F,
        run: &mut NelderMeadRun,
        until: usize,
        control: &Control,
    ) -> Result<bool, OptimError> {
        if run.termination.is_some() {
            return Ok(true);
        }
        let n = run.dim();
        let width = n + 1;
        let worst = n * width;
        let scope = SolverKind::NelderMead.stop_scope();
        let cfg = &self.config;
        // Work buffers reused across iterations — the simplex update loop
        // below performs no heap allocation (the stop poll is one atomic
        // load plus one clock read).
        let mut scratch = vec![0.0; 3 * n];
        let (centroid, rest) = scratch.split_at_mut(n);
        let (reflected, extra) = rest.split_at_mut(n);
        let NelderMeadRun {
            simplex,
            iterations,
            evaluations,
            steps,
            ..
        } = &mut *run;
        let termination = loop {
            control.check_stop(scope, *evaluations)?;
            if *iterations >= cfg.max_iterations {
                break TerminationReason::MaxIterations;
            }
            if *evaluations >= until {
                return Ok(false);
            }
            *iterations += 1;
            let best = simplex[n];
            let worst_value = simplex[worst + n];
            // Convergence: objective spread and coordinate spread.
            let f_spread = (worst_value - best).abs();
            let x_spread = (0..n)
                .map(|j| {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for vertex in simplex.chunks_exact(width) {
                        lo = lo.min(vertex[j]);
                        hi = hi.max(vertex[j]);
                    }
                    hi - lo
                })
                .fold(0.0f64, f64::max);
            if f_spread <= cfg.f_tol * (1.0 + best.abs()) && x_spread <= cfg.x_tol {
                break TerminationReason::Converged;
            }

            // Centroid of all but the worst vertex.
            centroid.fill(0.0);
            for vertex in simplex.chunks_exact(width).take(n) {
                for (c, x) in centroid.iter_mut().zip(vertex) {
                    *c += x;
                }
            }
            for c in centroid.iter_mut() {
                *c /= n as f64;
            }

            // Reflection: x_c + α(x_c − x_worst).
            for j in 0..n {
                reflected[j] = centroid[j] + ALPHA * (centroid[j] - simplex[worst + j]);
            }
            let fr = score(f, reflected, evaluations);
            if fr < simplex[n] {
                // Expansion.
                for j in 0..n {
                    extra[j] = centroid[j] + ALPHA * GAMMA * (centroid[j] - simplex[worst + j]);
                }
                let fe = score(f, extra, evaluations);
                if fe < fr {
                    tally(&mut steps[EXPANSION]);
                    simplex[worst..worst + n].copy_from_slice(extra);
                    simplex[worst + n] = fe;
                } else {
                    tally(&mut steps[REFLECTION]);
                    simplex[worst..worst + n].copy_from_slice(reflected);
                    simplex[worst + n] = fr;
                }
            } else if fr < simplex[worst - 1] {
                tally(&mut steps[REFLECTION]);
                simplex[worst..worst + n].copy_from_slice(reflected);
                simplex[worst + n] = fr;
            } else {
                // Contraction (outside if reflection helped at all, inside
                // otherwise).
                let t = if fr < simplex[worst + n] {
                    ALPHA * RHO
                } else {
                    -RHO
                };
                for j in 0..n {
                    extra[j] = centroid[j] + t * (centroid[j] - simplex[worst + j]);
                }
                let fc = score(f, extra, evaluations);
                if fc < simplex[worst + n].min(fr) {
                    tally(&mut steps[CONTRACTION]);
                    simplex[worst..worst + n].copy_from_slice(extra);
                    simplex[worst + n] = fc;
                } else {
                    tally(&mut steps[SHRINK]);
                    // Shrink toward the best vertex in place (each
                    // coordinate update only reads its own old value).
                    let (best, rest) = simplex.split_at_mut(width);
                    for vertex in rest.chunks_exact_mut(width) {
                        for (x, b) in vertex.iter_mut().zip(&best[..n]) {
                            *x = b + SIGMA * (*x - b);
                        }
                        let value = score(f, &vertex[..n], evaluations);
                        vertex[n] = value;
                    }
                }
            }
            sort_rows(simplex, width);
        };
        run.termination = Some(termination);
        Ok(true)
    }
}

/// Indices of the step tallies in [`NelderMeadRun`].
const REFLECTION: usize = 0;
const EXPANSION: usize = 1;
const CONTRACTION: usize = 2;
const SHRINK: usize = 3;

/// One more step of a kind, saturating.
fn tally(step: &mut u32) {
    *step = step.saturating_add(1);
}

/// `f(x)` with one more evaluation counted, a non-finite value read as
/// `+∞`.
fn score<F: Fn(&[f64]) -> f64>(f: &F, x: &[f64], evaluations: &mut usize) -> f64 {
    *evaluations += 1;
    let v = f(x);
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Sorts the rows of `simplex`, `width` values each with the objective
/// value last, by value, keeping the order of equal values: a stable
/// insertion sort, which for the few rows of a simplex moves the least.
fn sort_rows(simplex: &mut [f64], width: usize) {
    let rows = simplex.len() / width;
    for i in 1..rows {
        let mut j = i;
        while j > 0 && simplex[j * width - 1] > simplex[(j + 1) * width - 1] {
            let (before, after) = simplex.split_at_mut(j * width);
            before[(j - 1) * width..].swap_with_slice(&mut after[..width]);
            j -= 1;
        }
    }
}

/// One Nelder–Mead run between its steps ([`NelderMead::begin`],
/// [`NelderMead::advance`], then [`NelderMeadRun::finish`] or
/// [`NelderMeadRun::retire`]): its simplex, packed into one buffer of
/// `dim + 1` rows, each a vertex's `dim` coordinates and its value, sorted
/// by value; its iteration and evaluation counts; its step tallies; and
/// how it ended, once it has.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadRun {
    simplex: Vec<f64>,
    iterations: usize,
    evaluations: usize,
    /// Accepted reflections, expansions, contractions and shrinks,
    /// saturating: a paused run is held as small as it can be.
    steps: [u32; 4],
    dim: u32,
    termination: Option<TerminationReason>,
}

impl NelderMeadRun {
    /// The least value the run has seen: its best vertex's.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.simplex[self.dim()]
    }

    /// The number of coordinates.
    fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Iterations so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Objective evaluations so far.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Whether the run has ended: converged or out of iterations.
    #[must_use]
    pub fn ended(&self) -> bool {
        self.termination.is_some()
    }

    /// Closes a run that has ended: its report, after logging its
    /// `converged` line and flushing its evaluation and step counters when
    /// the control is observed.
    ///
    /// # Panics
    ///
    /// When the run has not ended.
    #[must_use]
    pub fn finish(self, control: &Control) -> OptimReport {
        let termination = self
            .termination
            .expect("NelderMeadRun::finish: the run has not ended");
        self.log(termination.exit_reason(), control);
        OptimReport {
            params: self.simplex[..self.dim()].to_vec(),
            value: self.value(),
            iterations: self.iterations,
            evaluations: self.evaluations,
            termination,
        }
    }

    /// Closes a paused run that will not resume, as [`NelderMeadRun::finish`]
    /// closes one that ended, with the exit reason
    /// [`ExitReason::Retired`]: its
    /// `converged` line carries its counts and its best value so far.
    pub fn retire(self, control: &Control) {
        self.log(ExitReason::Retired, control);
    }

    /// The run's `converged` line and counter flushes.
    fn log(&self, reason: ExitReason, control: &Control) {
        if control.observed() {
            control.emit(Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: self.iterations as u64,
                evaluations: self.evaluations as u64,
                value: self.value(),
                reason,
            });
            control.count(CounterId::ObjectiveEvals, self.evaluations as u64);
            control.count(CounterId::NmReflections, self.steps[REFLECTION].into());
            control.count(CounterId::NmExpansions, self.steps[EXPANSION].into());
            control.count(CounterId::NmContractions, self.steps[CONTRACTION].into());
            control.count(CounterId::NmShrinks, self.steps[SHRINK].into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(p: &[f64]) -> f64 {
        p.iter().map(|x| x * x).sum()
    }

    #[test]
    fn minimizes_sphere() {
        let r = NelderMead::new(NelderMeadConfig::default())
            .minimize(&sphere, &[3.0, -4.0, 5.0], &Control::unbounded())
            .unwrap();
        assert!(r.converged());
        assert!(r.value < 1e-10);
        for p in &r.params {
            assert!(p.abs() < 1e-4);
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        let f = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let r = NelderMead::new(NelderMeadConfig {
            max_iterations: 10_000,
            ..NelderMeadConfig::default()
        })
        .minimize(&f, &[-1.2, 1.0], &Control::unbounded())
        .unwrap();
        assert!((r.params[0] - 1.0).abs() < 1e-4, "{:?}", r.params);
        assert!((r.params[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn one_dimensional_works() {
        let f = |p: &[f64]| (p[0] - 7.0).powi(2) + 2.0;
        let r = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &[0.0], &Control::unbounded())
            .unwrap();
        assert!((r.params[0] - 7.0).abs() < 1e-5);
        assert!((r.value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn avoids_invalid_regions() {
        // Objective undefined (NaN) for x < 0; minimum at x = 1.
        let f = |p: &[f64]| {
            if p[0] < 0.0 {
                f64::NAN
            } else {
                (p[0] - 1.0).powi(2)
            }
        };
        let r = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &[0.5], &Control::unbounded())
            .unwrap();
        assert!((r.params[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rejects_bad_start() {
        let f = |_: &[f64]| f64::NAN;
        assert!(matches!(
            NelderMead::new(NelderMeadConfig::default()).minimize(
                &f,
                &[0.0],
                &Control::unbounded()
            ),
            Err(OptimError::BadStartingPoint { .. })
        ));
    }

    #[test]
    fn rejects_empty_start_and_bad_config() {
        let f = sphere;
        assert!(NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &[], &Control::unbounded())
            .is_err());
        let bad = NelderMeadConfig {
            f_tol: 0.0,
            ..NelderMeadConfig::default()
        };
        assert!(NelderMead::new(bad)
            .minimize(&f, &[1.0], &Control::unbounded())
            .is_err());
        let bad2 = NelderMeadConfig {
            max_iterations: 0,
            ..NelderMeadConfig::default()
        };
        assert!(NelderMead::new(bad2)
            .minimize(&f, &[1.0], &Control::unbounded())
            .is_err());
    }

    #[test]
    fn budget_exit_reports_max_iterations() {
        let f = |p: &[f64]| (p[0] - 1.0).powi(2);
        let r = NelderMead::new(NelderMeadConfig {
            max_iterations: 2,
            ..NelderMeadConfig::default()
        })
        .minimize(&f, &[100.0], &Control::unbounded())
        .unwrap();
        assert_eq!(r.termination, TerminationReason::MaxIterations);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn evaluation_count_is_tracked() {
        let r = NelderMead::new(NelderMeadConfig::default())
            .minimize(&sphere, &[1.0, 1.0], &Control::unbounded())
            .unwrap();
        assert!(r.evaluations >= r.iterations);
    }

    #[test]
    fn flat_objective_converges_immediately() {
        let f = |_: &[f64]| 5.0;
        let r = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &[1.0, 2.0], &Control::unbounded())
            .unwrap();
        assert!(r.converged());
        assert_eq!(r.value, 5.0);
    }

    #[test]
    fn expired_deadline_times_out_instead_of_iterating() {
        use std::time::Duration;
        // A slow objective (~50 µs/eval) with a huge budget: an already
        // expired deadline must cut the run off almost immediately.
        let f = |p: &[f64]| {
            let mut acc = p[0];
            for k in 0..2_000 {
                acc = (acc + f64::from(k)).sin();
            }
            (p[0] - 1.0).powi(2) + acc.abs() * 1e-12
        };
        let nm = NelderMead::new(NelderMeadConfig {
            max_iterations: 10_000_000,
            ..NelderMeadConfig::default()
        });
        let control = Control::with_deadline(Duration::ZERO);
        assert!(matches!(
            nm.minimize(&f, &[100.0], &control),
            Err(OptimError::TimedOut { .. })
        ));
    }

    #[test]
    fn cancel_token_stops_the_run() {
        use crate::control::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let control = Control::with_token(&token);
        assert!(matches!(
            NelderMead::new(NelderMeadConfig::default()).minimize(&sphere, &[3.0, -4.0], &control),
            Err(OptimError::Cancelled { .. })
        ));
    }

    #[test]
    fn telemetry_is_bounded_whatever_the_iteration_count() {
        use resilience_obs::{CounterId, Event, RecordingObserver, SolverKind};
        use std::sync::Arc;
        for max_iterations in [2, 20, 200, 20_000] {
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            let report = NelderMead::new(NelderMeadConfig {
                max_iterations,
                ..NelderMeadConfig::default()
            })
            .minimize(&sphere, &[3.0, -4.0, 5.0], &control)
            .unwrap();
            let events = rec.take();

            // One terminal event carrying the report's totals, then at
            // most one flush per counter: nothing per iteration.
            let terminal: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Converged {
                        solver,
                        iterations,
                        evaluations,
                        ..
                    } => Some((*solver, *iterations, *evaluations)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                terminal,
                vec![(
                    SolverKind::NelderMead,
                    report.iterations as u64,
                    report.evaluations as u64
                )]
            );
            let counters: Vec<(CounterId, u64)> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Counter { id, delta } => Some((*id, *delta)),
                    _ => None,
                })
                .collect();
            assert!(counters.len() <= 5, "{counters:?}");
            assert_eq!(events.len(), 1 + counters.len(), "{events:?}");
            // The flushed eval counter matches the report.
            let evals: u64 = counters
                .iter()
                .filter(|(id, _)| *id == CounterId::ObjectiveEvals)
                .map(|&(_, delta)| delta)
                .sum();
            assert_eq!(evals, report.evaluations as u64);
            // Step-type counters account for every stepped iteration; the
            // final pass that only detects convergence takes no step.
            let steps: u64 = counters
                .iter()
                .filter(|(id, _)| *id != CounterId::ObjectiveEvals)
                .map(|&(_, delta)| delta)
                .sum();
            let stepped = if report.converged() {
                report.iterations - 1
            } else {
                report.iterations
            };
            assert_eq!(steps, stepped as u64, "max_iterations={max_iterations}");
        }
    }

    #[test]
    fn telemetry_is_identical_to_untraced_run() {
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;
        let plain = NelderMead::new(NelderMeadConfig::default())
            .minimize(&sphere, &[3.0, -4.0], &Control::unbounded())
            .unwrap();
        let control = Control::unbounded().observe(Arc::new(RecordingObserver::new()));
        let traced = NelderMead::new(NelderMeadConfig::default())
            .minimize(&sphere, &[3.0, -4.0], &control)
            .unwrap();
        assert_eq!(plain, traced);
    }

    /// A run paused at any evaluation count and resumed to its end is the
    /// one-shot run, bit for bit: its report, and with an observer its
    /// `converged` line and counter flushes.
    #[test]
    fn a_resumed_run_equals_a_one_shot_run() {
        use resilience_obs::RecordingObserver;
        use resilience_stats::XorShift64;
        use std::sync::Arc;
        let rosenbrock = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let two_basins = |p: &[f64]| {
            let x = p[0];
            ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2) + 0.5 * p[1] * p[1]
        };
        type Objective<'a> = &'a dyn Fn(&[f64]) -> f64;
        let objectives: [(&str, Objective<'_>, usize); 3] = [
            ("sphere", &sphere, 3),
            ("rosenbrock", &rosenbrock, 2),
            ("two basins", &two_basins, 2),
        ];
        let nm = NelderMead::new(NelderMeadConfig {
            max_iterations: 400,
            ..NelderMeadConfig::default()
        });
        let mut rng = XorShift64::new(0x0005_EED5);
        for (name, f, dim) in objectives {
            for _ in 0..3 {
                let x0: Vec<f64> = (0..dim).map(|_| 8.0 * rng.next_f64() - 4.0).collect();
                let traced = |run: &dyn Fn(&Control) -> OptimReport| {
                    let rec = Arc::new(RecordingObserver::new());
                    let report = run(&Control::unbounded().observe(rec.clone()));
                    (report, rec.take())
                };
                let one_shot = traced(&|c| nm.minimize(&f, &x0, c).unwrap());
                for cut in 0..=one_shot.0.evaluations + 1 {
                    let resumed = traced(&|c| {
                        let mut run = nm.begin(&f, &x0, c).unwrap();
                        let ended = nm.advance(&f, &mut run, cut, c).unwrap();
                        assert!(ended || run.evaluations() >= cut, "{name} cut {cut}");
                        assert!(nm.advance(&f, &mut run, usize::MAX, c).unwrap());
                        run.finish(c)
                    });
                    assert_eq!(resumed, one_shot, "{name} from {x0:?}, cut {cut}");
                }
            }
        }
    }

    /// A run pauses at the first iteration boundary past its budget, and
    /// a retired run logs its counts and best value with the reason
    /// `retired`.
    #[test]
    fn a_paused_run_stops_at_an_iteration_boundary_and_retires() {
        use resilience_obs::RecordingObserver;
        use std::sync::Arc;
        let nm = NelderMead::new(NelderMeadConfig::default());
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::unbounded().observe(rec.clone());
        let x0 = [3.0, -4.0, 5.0];
        let mut run = nm.begin(&sphere, &x0, &control).unwrap();
        assert_eq!((run.iterations(), run.evaluations()), (0, 4));
        assert!(!nm.advance(&sphere, &mut run, 20, &control).unwrap());
        // An iteration spends at most n + 2 = 5 evaluations.
        assert!((20..25).contains(&run.evaluations()), "{run:?}");
        assert!(!run.ended());
        assert!(rec.take().is_empty(), "a paused run logs nothing");
        let (iterations, evaluations, value) = (run.iterations(), run.evaluations(), run.value());
        run.retire(&control);
        let events = rec.take();
        assert_eq!(
            events[0],
            Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: iterations as u64,
                evaluations: evaluations as u64,
                value,
                reason: ExitReason::Retired,
            }
        );
        assert!(events.contains(&Event::Counter {
            id: CounterId::ObjectiveEvals,
            delta: evaluations as u64,
        }));
    }

    #[test]
    fn handles_badly_scaled_problems() {
        // Coordinates at very different scales.
        let f = |p: &[f64]| (p[0] - 1e4).powi(2) / 1e8 + (p[1] - 1e-4).powi(2) * 1e8;
        let r = NelderMead::new(NelderMeadConfig {
            max_iterations: 20_000,
            ..NelderMeadConfig::default()
        })
        .minimize(&f, &[9e3, 2e-4], &Control::unbounded())
        .unwrap();
        assert!(r.value < 1e-6, "value = {}", r.value);
    }
}
