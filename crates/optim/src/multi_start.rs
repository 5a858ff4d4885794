//! The multi-start driver: a race over one search's starts, in shared
//! pieces and their composition.
//!
//! The resilience fits are nonconvex (the mixture SSE surface in
//! particular has local minima corresponding to "all degradation" or "all
//! recovery" explanations). The paper does not describe its seeding; we
//! make fitting deterministic and robust by running Nelder–Mead from each
//! family's data-driven starting points and keeping the best result.
//!
//! A search with more starts than it keeps races them (DESIGN.md §11,
//! "Racing the starts"): every start runs a first leg of at least
//! `budget` evaluations, the `keep` best at the cut run on to their end,
//! and the rest retire. A search that keeps every start runs each to its
//! end in its first leg, which is the plain multi-start.
//!
//! * [`StartLeg`] runs one start's legs, buffering its events privately
//!   when the control is observed.
//! * [`Race`] holds one search between and after its legs: the cut's
//!   board of at most `keep` paused starts, and the closed starts'
//!   reduction and event buffers.
//! * [`StartReduction`] folds start results, fed in any order, into the
//!   winner a serial loop in start order would keep.
//! * [`multi_start`] runs both legs of one search, each as one phase of
//!   one [`crew`], replays the buffers in start order and reduces.
//!
//! A caller that pools the starts of several searches — the one-cell
//! ranker in `resilience-core` — uses the pieces directly; both it and
//! [`multi_start`] give bit-identical winners and event logs for every
//! thread count and completion order.

use crate::control::Control;
use crate::nelder_mead::NelderMeadRun;
use crate::parallel::{crew, Parallelism};
use crate::report::OptimReport;
use crate::OptimError;
use resilience_obs::{replay, Event, HistogramId, RecordingObserver};
use std::sync::{Arc, Mutex};

/// One start of a race: its Nelder–Mead run, paused at the cut or
/// ended, or the error that ended it, and when its control was observed
/// the private buffer its events go to.
#[derive(Debug)]
pub struct StartLeg {
    index: usize,
    run: Result<NelderMeadRun, OptimError>,
    recorder: Option<Arc<RecordingObserver>>,
}

impl StartLeg {
    /// Start `index`'s first leg under `control`: `run` begins the start's
    /// run and advances it to the race's [`Race::budget`].
    ///
    /// When the control is observed, the start records into a private
    /// buffer instead of the shared sink: a `start` line, then whatever
    /// its run emits, in both legs and when it closes. Replaying the
    /// buffers in start order makes the log independent of which thread
    /// ran which start, and when.
    pub fn first<R>(index: usize, control: &Control, run: R) -> StartLeg
    where
        R: FnOnce(&Control) -> Result<NelderMeadRun, OptimError>,
    {
        let recorder = control
            .observed()
            .then(|| Arc::new(RecordingObserver::new()));
        let run = buffered(control, recorder.as_ref(), |c| {
            c.emit(Event::StartBegan {
                index: index as u32,
            });
            run(c)
        });
        StartLeg {
            index,
            run,
            recorder,
        }
    }

    /// The second leg of a survivor of the cut: `advance` runs its paused
    /// run on to its end.
    pub fn second<A>(&mut self, control: &Control, advance: A)
    where
        A: FnOnce(&mut NelderMeadRun, &Control) -> Result<bool, OptimError>,
    {
        let StartLeg { run, recorder, .. } = self;
        if let Ok(paused) = run {
            if let Err(e) = buffered(control, recorder.as_ref(), |c| advance(paused, c)) {
                *run = Err(e);
            }
        }
    }

    /// The start's index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }
}

/// `f` under `control`, or when a start's `recorder` is given under
/// `control` with the recorder as its sink.
fn buffered<T>(
    control: &Control,
    recorder: Option<&Arc<RecordingObserver>>,
    f: impl FnOnce(&Control) -> T,
) -> T {
    match recorder {
        Some(rec) => f(&control.with_observer(rec.clone())),
        None => f(control),
    }
}

/// One search's race, between and after its legs.
///
/// Starts are filed as their first legs end, in any order
/// ([`Race::file`]). A start that failed is no candidate and closes at
/// once. A start that ended is closed at once too, but competes at the
/// cut with its final value: if it survives, it is already done. The
/// candidates rank by their least value so far, ties to the lower index,
/// and the board keeps the best `keep`; a paused start that falls off it
/// retires there and then, so the race never holds more than `keep`
/// paused runs, in a board allocated once. [`Race::cut`] leaves the paused
/// survivors, in start order, for their second legs, and [`Race::finish`]
/// replays every buffer in start order and hands over the reduction.
///
/// What the race keeps is order-independent: the board at the cut holds
/// the best `keep` candidates whatever order they were filed in, and every
/// other start retires, so the winner, the work counts and the event log
/// are those of a serial race in start order.
#[derive(Debug)]
pub struct Race {
    starts: usize,
    keep: usize,
    budget: usize,
    /// The best candidates so far, least (value, index) first: a paused
    /// start's run, or `None` for one that ended and is closed.
    board: Vec<(f64, usize, Option<NelderMeadRun>)>,
    reduction: StartReduction,
    /// Each filed start's event buffer by start index, when observed.
    recorders: Vec<Option<Arc<RecordingObserver>>>,
}

impl Race {
    /// The race over `starts` starts that keeps the best `keep` (at least
    /// one) after a first leg of `budget` evaluations. With `starts ≤
    /// keep` nothing is cut: every first leg runs to its end
    /// ([`Race::budget`] is `usize::MAX`) and the board holds nothing. The
    /// board's storage is allocated here, once; the buffer slots only
    /// when `observed`.
    #[must_use]
    pub fn new(starts: usize, keep: usize, budget: usize, observed: bool) -> Race {
        let keep = keep.max(1);
        let (keep, budget) = if starts > keep {
            (keep, budget)
        } else {
            (0, usize::MAX)
        };
        Race {
            starts,
            keep,
            budget,
            board: Vec::with_capacity(keep),
            reduction: StartReduction::default(),
            recorders: if observed {
                (0..starts).map(|_| None).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// The number of starts.
    #[must_use]
    pub fn starts(&self) -> usize {
        self.starts
    }

    /// The evaluations of a first leg: a run pauses at the first
    /// iteration boundary at which it has spent this many.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Files a start whose first leg is over, closing what leaves the
    /// race: the start itself when it failed, ended or ranks below the
    /// board, and a paused start it pushes off the board. `control` is
    /// the search's control, under which the start ran.
    pub fn file(&mut self, leg: StartLeg, control: &Control) {
        let StartLeg {
            index,
            run,
            recorder,
        } = leg;
        if let Some(rec) = recorder {
            self.recorders[index] = Some(rec);
        }
        let run = match run {
            Ok(run) => run,
            Err(e) => return self.close(index, Err(e), control),
        };
        let value = run.value();
        let paused = if run.ended() {
            self.close(index, Ok(run), control);
            None
        } else {
            Some(run)
        };
        let at = self
            .board
            .partition_point(|&(v, i, _)| v < value || (v == value && i < index));
        if at >= self.keep {
            if let Some(run) = paused {
                self.close(index, Ok(run), control);
            }
            return;
        }
        if self.board.len() == self.keep {
            if let Some((_, out, Some(run))) = self.board.pop() {
                self.close(out, Ok(run), control);
            }
        }
        self.board.insert(at, (value, index, paused));
    }

    /// The cut, once every first leg is filed: keeps the paused
    /// survivors, in start order, and returns how many there are.
    pub fn cut(&mut self) -> usize {
        self.board.retain(|(_, _, run)| run.is_some());
        self.board.sort_by_key(|&(_, index, _)| index);
        self.board.len()
    }

    /// Paused survivor `s` (in start order) for its second leg.
    ///
    /// # Panics
    ///
    /// When survivor `s` does not exist or was taken already.
    pub fn survivor(&mut self, s: usize) -> StartLeg {
        let (_, index, run) = &mut self.board[s];
        let run = run.take().expect("each survivor runs its second leg once");
        StartLeg {
            index: *index,
            run: Ok(run),
            recorder: self.recorders.get(*index).cloned().flatten(),
        }
    }

    /// Closes a survivor whose second leg is over.
    pub fn close_survivor(&mut self, leg: StartLeg, control: &Control) {
        self.close(leg.index, leg.run, control);
    }

    /// Replays every start's buffer into `control`'s sink, in start
    /// order, and returns the reduction.
    #[must_use]
    pub fn finish(self, control: &Control) -> StartReduction {
        if let Some(sink) = control.observer() {
            for rec in self.recorders.iter().flatten() {
                replay(&rec.take(), sink.as_ref());
            }
        }
        self.reduction
    }

    /// Closes start `index`: an ended run is finished and reduced, a
    /// paused one retires, counting its evaluations but never winning,
    /// and an error is reduced as it is. A closed run logs its evaluation
    /// and iteration histograms.
    fn close(&mut self, index: usize, run: Result<NelderMeadRun, OptimError>, control: &Control) {
        let recorder = self.recorders.get(index).and_then(Option::as_ref);
        let reduction = &mut self.reduction;
        buffered(control, recorder, |c| match run {
            Ok(run) => {
                let (evaluations, iterations) = (run.evaluations(), run.iterations());
                if run.ended() {
                    reduction.add(index, Ok(run.finish(c)));
                } else {
                    run.retire(c);
                    reduction.retire(evaluations);
                }
                c.emit(Event::Hist {
                    id: HistogramId::EvalsPerStart,
                    value: evaluations as u64,
                });
                c.emit(Event::Hist {
                    id: HistogramId::IterationsPerStart,
                    value: iterations as u64,
                });
            }
            Err(e) => reduction.add(index, Err(e)),
        });
    }
}

/// The running reduction over one search's start results.
///
/// Results may arrive in any order; the outcome is the one a serial loop
/// in start order with a strict `value <` comparison would keep:
///
/// * the winner has the least value, and ties go to the lowest start
///   index;
/// * a retired start ([`StartReduction::retire`]) counts its evaluations
///   and never wins;
/// * a stopped start (deadline or cancellation) is a property of the
///   whole run, not of one unlucky start: if any start stopped, the
///   lowest-index stop is the outcome, reported as a typed error — never
///   as a silently partial "best of the starts that finished";
/// * other failed starts (a non-finite objective at the start point) are
///   skipped and counted; only if every start fails is that an error.
///
/// # Examples
///
/// ```
/// use resilience_optim::multi_start::StartReduction;
/// use resilience_optim::report::{OptimReport, TerminationReason};
///
/// let report = |value: f64| OptimReport {
///     params: vec![value],
///     value,
///     iterations: 1,
///     evaluations: 10,
///     termination: TerminationReason::Converged,
/// };
/// let mut reduction = StartReduction::default();
/// reduction.add(2, Ok(report(1.0)));
/// reduction.add(0, Ok(report(1.0)));
/// reduction.add(1, Ok(report(3.0)));
/// reduction.retire(50);
/// assert_eq!(reduction.evaluations(), 80);
/// // Start 0 ties start 2 and wins by index.
/// assert_eq!(reduction.finish()?.params, [1.0]);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
#[derive(Debug, Default)]
pub struct StartReduction {
    best: Option<(usize, OptimReport)>,
    stop: Option<(usize, OptimError)>,
    failures: usize,
    evaluations: usize,
}

impl StartReduction {
    /// Folds in start `index`'s result. Each index is added at most once.
    pub fn add(&mut self, index: usize, result: Result<OptimReport, OptimError>) {
        match result {
            Ok(report) => {
                self.evaluations += report.evaluations;
                let wins = match &self.best {
                    None => true,
                    // An earlier start keeps its place unless the later
                    // one is strictly better.
                    Some((i, best)) if index < *i => !(best.value < report.value),
                    Some((_, best)) => report.value < best.value,
                };
                if wins {
                    self.best = Some((index, report));
                }
            }
            Err(e) if e.is_stop() => {
                if self.stop.as_ref().is_none_or(|(i, _)| index < *i) {
                    self.stop = Some((index, e));
                }
            }
            Err(_) => self.failures += 1,
        }
    }

    /// Folds in a start that retired at the cut after `evaluations`
    /// evaluations: its work counts, and it never wins.
    pub fn retire(&mut self, evaluations: usize) {
        self.evaluations += evaluations;
    }

    /// Objective evaluations of every successful or retired start so far,
    /// winner and losers: the work their `objective_evals` counters
    /// report. A failed or stopped start is not counted.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The reduced outcome.
    ///
    /// # Errors
    ///
    /// * [`OptimError::TimedOut`] / [`OptimError::Cancelled`]: the
    ///   lowest-index stopped start's error.
    /// * [`OptimError::AllStartsFailed`] when no start produced a finite
    ///   optimum (including when no start was added).
    pub fn finish(self) -> Result<OptimReport, OptimError> {
        if let Some((_, stop)) = self.stop {
            return Err(stop);
        }
        self.best
            .map(|(_, report)| report)
            .ok_or(OptimError::AllStartsFailed {
                attempts: self.failures,
            })
    }
}

/// Runs `race`, both legs of every start, and reduces the results,
/// bit-identically for every thread count.
///
/// Both legs run on one [`crew`], so the search spawns its helpers once.
/// The first legs are one phase: `first(i, budget, control)` begins start
/// `i`'s run and advances it to `budget` evaluations, and each leg is
/// filed as it ends. After the cut the paused survivors are a second
/// phase, in which `second(i, run, control)` advances start `i`'s run to
/// its end. Both closures must be `Sync`, but the objective they minimize
/// need not be: build it inside them, so every leg gets a private
/// instance (and private scratch buffers). A panic in a leg reaches the
/// caller as [`Crew::run_each`](crate::parallel::Crew::run_each) raises
/// it, and a panic in a first leg before any second leg runs.
///
/// The control is shared by every start: once the deadline passes or the
/// token fires, in-flight starts stop at their next iteration and pending
/// starts return immediately, and [`StartReduction::finish`] reports the
/// stop.
///
/// # Examples
///
/// ```
/// use resilience_optim::multi_start::{multi_start, Race};
/// use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
/// use resilience_optim::{Control, Parallelism};
///
/// // Two-basin objective: global minimum at x = 3, local at x = -2.
/// let f = |p: &[f64]| {
///     let x = p[0];
///     ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
/// };
/// let starts = [-3.0, -2.5, 0.0, 1.0, 4.0, 6.0];
/// let nm = NelderMead::new(NelderMeadConfig::default());
/// let control = Control::unbounded();
/// // Six starts, twenty evaluations each, the best two run on.
/// let race = Race::new(starts.len(), 2, 20, false);
/// let best = multi_start(
///     Parallelism::Auto,
///     race,
///     &control,
///     |i, budget, c| {
///         let mut run = nm.begin(&f, &starts[i..=i], c)?;
///         nm.advance(&f, &mut run, budget, c)?;
///         Ok(run)
///     },
///     |_, run, c| nm.advance(&f, run, usize::MAX, c),
/// )
/// .finish()?;
/// assert!((best.params[0] - 3.0).abs() < 1e-4);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn multi_start<B, A>(
    parallelism: Parallelism,
    race: Race,
    control: &Control,
    first: B,
    second: A,
) -> StartReduction
where
    B: Fn(usize, usize, &Control) -> Result<NelderMeadRun, OptimError> + Sync,
    A: Fn(usize, &mut NelderMeadRun, &Control) -> Result<bool, OptimError> + Sync,
{
    let starts = race.starts();
    let budget = race.budget();
    let race = Mutex::new(race);
    crew(parallelism, |crew| {
        crew.run_each(starts, |i| {
            let leg = StartLeg::first(i, control, |c| first(i, budget, c));
            lock(&race).file(leg, control);
        });
        let survivors = lock(&race).cut();
        crew.run_each(survivors, |s| {
            let mut leg = lock(&race).survivor(s);
            let i = leg.index();
            leg.second(control, |run, c| second(i, run, c));
            lock(&race).close_survivor(leg, control);
        });
    });
    race.into_inner()
        .expect("race state poisoned")
        .finish(control)
}

/// The race behind `race`'s lock.
fn lock(race: &Mutex<Race>) -> std::sync::MutexGuard<'_, Race> {
    race.lock().expect("race state poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nelder_mead::{NelderMead, NelderMeadConfig};
    use crate::report::TerminationReason;

    /// The serial driver: every start in order, first strictly better value
    /// wins. An independent implementation that the production driver must
    /// match bit for bit at every thread count.
    fn serial_oracle<F: Fn(&[f64]) -> f64>(
        f: &F,
        starts: &[Vec<f64>],
        config: &NelderMeadConfig,
    ) -> Result<OptimReport, OptimError> {
        let optimizer = NelderMead::new(config.clone());
        let mut best: Option<OptimReport> = None;
        let mut failures = 0usize;
        for start in starts {
            match optimizer.minimize(f, start, &Control::unbounded()) {
                Ok(report) => {
                    if best.as_ref().is_none_or(|b| report.value < b.value) {
                        best = Some(report);
                    }
                }
                Err(_) => failures += 1,
            }
        }
        best.ok_or(OptimError::AllStartsFailed { attempts: failures })
    }

    /// Multi-start Nelder–Mead from `starts` with the default config, each
    /// start minimizing a private objective from `make`, keeping every
    /// start.
    fn nm<F, G>(
        make: G,
        starts: &[Vec<f64>],
        parallelism: Parallelism,
        control: &Control,
    ) -> Result<OptimReport, OptimError>
    where
        F: Fn(&[f64]) -> f64,
        G: Fn() -> F + Sync,
    {
        raced(make, starts, usize::MAX, 0, parallelism, control)
    }

    /// [`nm`] as a race that keeps `keep` starts after `budget`
    /// evaluations.
    fn raced<F, G>(
        make: G,
        starts: &[Vec<f64>],
        keep: usize,
        budget: usize,
        parallelism: Parallelism,
        control: &Control,
    ) -> Result<OptimReport, OptimError>
    where
        F: Fn(&[f64]) -> f64,
        G: Fn() -> F + Sync,
    {
        let optimizer = NelderMead::new(NelderMeadConfig::default());
        let race = Race::new(starts.len(), keep, budget, control.observed());
        multi_start(
            parallelism,
            race,
            control,
            |i, budget, c| {
                let f = make();
                let mut run = optimizer.begin(&f, &starts[i], c)?;
                optimizer.advance(&f, &mut run, budget, c)?;
                Ok(run)
            },
            |_, run, c| optimizer.advance(&make(), run, usize::MAX, c),
        )
        .finish()
    }

    fn serial<F: Fn(&[f64]) -> f64 + Copy + Sync>(
        f: F,
        starts: &[Vec<f64>],
    ) -> Result<OptimReport, OptimError> {
        nm(|| f, starts, Parallelism::Serial, &Control::unbounded())
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // f has a local min near x = -2 (value ≈ 2.5) and the global min
        // at x = 3 (value 0).
        let f = |p: &[f64]| {
            let x = p[0];
            ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
        };
        // A single start near the wrong basin converges locally…
        let local = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &[-2.5], &Control::unbounded())
            .unwrap();
        assert!((local.params[0] + 2.0).abs() < 0.2);
        // …but multi-start finds the global one.
        let starts = vec![vec![-2.5], vec![0.5], vec![5.0]];
        let best = serial(f, &starts).unwrap();
        assert!((best.params[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn multi_start_skips_bad_starts() {
        let f = |p: &[f64]| {
            if p[0] < 0.0 {
                f64::NAN
            } else {
                (p[0] - 1.0).powi(2)
            }
        };
        let starts = vec![vec![-5.0], vec![2.0]];
        let best = serial(f, &starts).unwrap();
        assert!((best.params[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn multi_start_all_failed() {
        let f = |_: &[f64]| f64::NAN;
        let starts = vec![vec![0.0], vec![1.0]];
        assert!(matches!(
            serial(f, &starts),
            Err(OptimError::AllStartsFailed { attempts: 2 })
        ));
    }

    #[test]
    fn no_starts_is_all_starts_failed() {
        let f = |p: &[f64]| p[0];
        assert!(matches!(
            serial(f, &[]),
            Err(OptimError::AllStartsFailed { attempts: 0 })
        ));
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let f = |p: &[f64]| {
            let x = p[0];
            let y = p[1];
            (x - 3.0).powi(2) * (x + 2.0).powi(2) + (y + 1.0).powi(2) + 0.1 * x.sin()
        };
        let starts: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![f64::from(i) - 4.0, 0.3 * f64::from(i)])
            .collect();
        let serial = serial_oracle(&f, &starts, &NelderMeadConfig::default()).unwrap();
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(1),
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let par = nm(|| f, &starts, p, &Control::unbounded()).unwrap();
            assert_eq!(par.params, serial.params, "{p:?}");
            assert_eq!(par.value, serial.value, "{p:?}");
            assert_eq!(par.evaluations, serial.evaluations, "{p:?}");
        }
    }

    #[test]
    fn parallel_tie_break_keeps_earliest_start() {
        // Both starts sit exactly at distinct global minima with the same
        // value; the earliest start must win regardless of thread count.
        let f = |p: &[f64]| (p[0] * p[0] - 1.0).powi(2);
        let starts = vec![vec![1.0], vec![-1.0]];
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            let best = nm(|| f, &starts, p, &Control::unbounded()).unwrap();
            assert!(best.params[0] > 0.0, "{p:?}: {:?}", best.params);
        }
    }

    #[test]
    fn parallel_all_failed_counts_attempts() {
        let make = || |_: &[f64]| f64::NAN;
        let starts = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert!(matches!(
            nm(make, &starts, Parallelism::Fixed(2), &Control::unbounded()),
            Err(OptimError::AllStartsFailed { attempts: 3 })
        ));
    }

    #[test]
    fn stopped_multi_start_reports_timeout_not_all_starts_failed() {
        use std::time::Duration;
        let make = || |p: &[f64]| (p[0] - 1.0).powi(2);
        let starts = vec![vec![0.0], vec![5.0], vec![-3.0]];
        let control = Control::with_deadline(Duration::ZERO);
        for p in [Parallelism::Serial, Parallelism::Fixed(2)] {
            assert!(matches!(
                nm(make, &starts, p, &control),
                Err(OptimError::TimedOut { .. })
            ));
        }
    }

    #[test]
    fn event_logs_are_identical_across_thread_counts() {
        let make = || {
            |p: &[f64]| {
                let x = p[0];
                ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
            }
        };
        let starts: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i) - 3.0]).collect();
        let trace = |parallelism: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            nm(make, &starts, parallelism, &control).unwrap();
            rec.take()
        };
        let serial = trace(Parallelism::Serial);
        assert!(serial
            .iter()
            .any(|e| matches!(e, Event::StartBegan { index: 5 })));
        assert!(serial.iter().any(|e| matches!(
            e,
            Event::Hist {
                id: HistogramId::EvalsPerStart,
                ..
            }
        )));
        for p in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            assert_eq!(trace(p), serial, "{p:?}");
        }
    }

    #[test]
    fn stopped_run_still_replays_its_stop_events() {
        use resilience_obs::StopKind;
        use std::time::Duration;
        let make = || |p: &[f64]| (p[0] - 1.0).powi(2);
        let starts = vec![vec![0.0], vec![5.0]];
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::with_deadline(Duration::ZERO).observe(rec.clone());
        let result = nm(make, &starts, Parallelism::Fixed(2), &control);
        assert!(matches!(result, Err(OptimError::TimedOut { .. })));
        let events = rec.take();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Stop {
                kind: StopKind::Deadline,
                ..
            }
        )));
    }

    #[test]
    fn parallel_objective_factories_may_carry_state() {
        // Each start gets a private, non-Sync objective (interior
        // mutability) — the pattern fit_least_squares uses for scratch
        // buffers.
        use std::cell::Cell;
        let make = || {
            let calls = Cell::new(0usize);
            move |p: &[f64]| {
                calls.set(calls.get() + 1);
                (p[0] - 2.0).powi(2)
            }
        };
        let starts = vec![vec![0.0], vec![4.0], vec![9.0]];
        let best = nm(make, &starts, Parallelism::Fixed(3), &Control::unbounded()).unwrap();
        assert!((best.params[0] - 2.0).abs() < 1e-5);
    }

    /// The race against an oracle written from its rules: every start
    /// runs to the cut, the `keep` least values at the cut (ties to the
    /// lower index) run on, a start that failed is no candidate, one that
    /// ended before the cut competes with its final report, and every
    /// other start retires, counting its evaluations, never winning and
    /// logging `retired`. Serial and pooled races give the same winner,
    /// work and log.
    #[test]
    fn a_race_keeps_the_best_at_the_cut_and_retires_the_rest() {
        use resilience_obs::ExitReason;
        let two_basins = |p: &[f64]| {
            let x = p[0];
            ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
        };
        // Start 0 is infeasible at its point; start 1 ends after two
        // iterations, before any cut; starts 2 and 3 are one run, so they
        // tie at every cut.
        let starts = [0.5, -2.4, 3.4, 3.4, -3.0, 1.0, 6.0, 2.2];
        let objective = |i: usize| {
            move |p: &[f64]| {
                if i == 0 {
                    f64::NAN
                } else {
                    two_basins(p)
                }
            }
        };
        let full = NelderMead::new(NelderMeadConfig::default());
        let capped = NelderMead::new(NelderMeadConfig {
            max_iterations: 2,
            ..NelderMeadConfig::default()
        });
        let optimizer = |i: usize| if i == 1 { &capped } else { &full };
        let unbounded = Control::unbounded();
        let mut retirements = 0;
        for keep in [1, 2, 3, 8] {
            for budget in [0, 12, 30, 80] {
                // The oracle: (value at the cut, index, run) per candidate.
                let mut candidates = Vec::new();
                for (i, x0) in starts.iter().enumerate() {
                    let f = objective(i);
                    if let Ok(mut run) = optimizer(i).begin(&f, &[*x0], &unbounded) {
                        let until = if starts.len() > keep {
                            budget
                        } else {
                            usize::MAX
                        };
                        optimizer(i)
                            .advance(&f, &mut run, until, &unbounded)
                            .unwrap();
                        candidates.push((run.value(), i, run));
                    }
                }
                candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let (mut spent, mut best, mut retired) =
                    (0, None::<(usize, OptimReport)>, Vec::new());
                let survivors: Vec<usize> = candidates.iter().take(keep).map(|c| c.1).collect();
                for (rank, (_, i, mut run)) in candidates.into_iter().enumerate() {
                    if rank >= keep && !run.ended() {
                        spent += run.evaluations();
                        retired.push(i);
                        continue;
                    }
                    optimizer(i)
                        .advance(&objective(i), &mut run, usize::MAX, &unbounded)
                        .unwrap();
                    let report = run.finish(&unbounded);
                    spent += report.evaluations;
                    let wins = rank < keep
                        && best.as_ref().is_none_or(|(j, b)| {
                            report.value < b.value || (report.value == b.value && i < *j)
                        });
                    if wins {
                        best = Some((i, report));
                    }
                }
                // Start 3 ties start 2 at every cut and never outranks it.
                assert!(!survivors.contains(&3) || survivors.contains(&2));
                assert!(!survivors.contains(&0), "a failed start is no candidate");
                if keep == 8 {
                    assert!(retired.is_empty());
                }
                retirements += retired.len();
                let race = |parallelism: Parallelism| {
                    let rec = Arc::new(RecordingObserver::new());
                    let control = Control::unbounded().observe(rec.clone());
                    let race = Race::new(starts.len(), keep, budget, true);
                    let reduction = multi_start(
                        parallelism,
                        race,
                        &control,
                        |i, budget, c| {
                            let f = objective(i);
                            let mut run = optimizer(i).begin(&f, &starts[i..=i], c)?;
                            optimizer(i).advance(&f, &mut run, budget, c)?;
                            Ok(run)
                        },
                        |i, run, c| optimizer(i).advance(&objective(i), run, usize::MAX, c),
                    );
                    let spent = reduction.evaluations();
                    (reduction.finish().unwrap(), spent, rec.take())
                };
                let (report, evaluations, log) = race(Parallelism::Serial);
                let case = format!("keep {keep}, budget {budget}");
                assert_eq!(Some(&report), best.as_ref().map(|(_, b)| b), "{case}");
                assert_eq!(evaluations, spent, "{case}");
                let logged_retired: Vec<u32> = log
                    .iter()
                    .scan(0, |start, e| {
                        if let Event::StartBegan { index } = e {
                            *start = *index;
                        }
                        Some(match e {
                            Event::Converged {
                                reason: ExitReason::Retired,
                                ..
                            } => Some(*start),
                            _ => None,
                        })
                    })
                    .flatten()
                    .collect();
                retired.sort_unstable();
                let retired: Vec<u32> = retired.iter().map(|&i| i as u32).collect();
                assert_eq!(logged_retired, retired, "{case}");
                for p in [
                    Parallelism::Fixed(2),
                    Parallelism::Fixed(3),
                    Parallelism::Auto,
                ] {
                    assert_eq!(
                        race(p),
                        (report.clone(), evaluations, log.clone()),
                        "{case} {p:?}"
                    );
                }
            }
        }
        assert!(retirements > 20, "{retirements}");
    }

    /// A stop in either leg of a race is the race's outcome, never a
    /// partial best.
    #[test]
    fn a_stop_in_either_leg_is_the_outcome() {
        use crate::control::CancelToken;
        let starts: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i) - 2.5]).collect();
        let optimizer = NelderMead::new(NelderMeadConfig::default());
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
            for stop_in_second_leg in [false, true] {
                let token = CancelToken::new();
                let control = Control::with_token(&token);
                let f = |p: &[f64]| (p[0] - 1.0).powi(2);
                let outcome = multi_start(
                    parallelism,
                    Race::new(starts.len(), 2, 10, false),
                    &control,
                    |i, budget, c| {
                        if !stop_in_second_leg && i == 3 {
                            token.cancel();
                        }
                        let mut run = optimizer.begin(&f, &starts[i], c)?;
                        optimizer.advance(&f, &mut run, budget, c)?;
                        Ok(run)
                    },
                    |_, run, c| {
                        token.cancel();
                        optimizer.advance(&f, run, usize::MAX, c)
                    },
                )
                .finish();
                assert!(
                    matches!(outcome, Err(OptimError::Cancelled { .. })),
                    "{parallelism:?} {stop_in_second_leg}: {outcome:?}"
                );
            }
        }
    }

    /// The reduction's outcome does not depend on the order results
    /// arrive in: shuffled completion orders of a fixed set of start
    /// results — value ties, stops and failures included — give the
    /// index-ordered winner, the lowest-index stop and the all-failed
    /// count, and the same evaluation total.
    #[test]
    fn reduction_is_independent_of_completion_order() {
        use resilience_stats::XorShift64;
        let ok = |value: f64, tag: f64| {
            Ok(OptimReport {
                params: vec![tag],
                value,
                iterations: 1,
                evaluations: 7,
                termination: TerminationReason::Converged,
            })
        };
        let stopped = |evaluations| Err(OptimError::TimedOut { evaluations });
        let bad = || Err(OptimError::BadStartingPoint { value: f64::NAN });
        // Each case: the results by start index, the outcome (the winner's
        // tag, or the error) and the evaluations of the successful starts.
        type Case = (
            Vec<Result<OptimReport, OptimError>>,
            Result<f64, OptimError>,
            usize,
        );
        let cases: Vec<Case> = vec![
            // Ties at 1.0 (starts 1, 3) and at 0.5 (starts 4, 5): start 4.
            (
                vec![
                    ok(2.0, 0.0),
                    ok(1.0, 1.0),
                    bad(),
                    ok(1.0, 3.0),
                    ok(0.5, 4.0),
                    ok(0.5, 5.0),
                ],
                Ok(4.0),
                35,
            ),
            // Two stops: the lowest-index one, whatever finished first.
            (
                vec![ok(0.1, 0.0), bad(), stopped(3), ok(0.0, 3.0), stopped(9)],
                Err(OptimError::TimedOut { evaluations: 3 }),
                14,
            ),
            (
                vec![bad(), bad(), bad()],
                Err(OptimError::AllStartsFailed { attempts: 3 }),
                0,
            ),
        ];
        let mut rng = XorShift64::new(0x5EED_57A7);
        for (case, (results, expected, spent)) in cases.iter().enumerate() {
            for round in 0..40 {
                // Round 0 is start order, round 1 its reverse, then shuffles.
                let mut order: Vec<usize> = (0..results.len()).collect();
                match round {
                    0 => {}
                    1 => order.reverse(),
                    _ => {
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.next_index(i + 1));
                        }
                    }
                }
                let mut reduction = StartReduction::default();
                for &i in &order {
                    reduction.add(i, results[i].clone());
                }
                assert_eq!(reduction.evaluations(), *spent, "case {case} {order:?}");
                let outcome = reduction.finish().map(|r| r.params[0]);
                assert_eq!(&outcome, expected, "case {case} {order:?}");
            }
        }
    }
}
