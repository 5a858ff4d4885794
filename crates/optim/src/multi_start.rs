//! The multi-start driver: races over searches' starts, in shared pieces
//! and the one driver that composes them.
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
//! * [`Race`] holds one search between and after its legs: the cut's
//!   board of at most `keep` paused starts, and the closed starts'
//!   reduction and event buffers, one per start when observed.
//! * [`StartReduction`] folds start results, fed in any order, into the
//!   winner a serial loop in start order would keep.
//! * [`Search`] is one search as the driver sees it: its race, the
//!   control its legs run under, and the legs.
//! * [`multi_start`] races any number of searches on the caller's
//!   [`Crew`]: every start's first leg in one phase, each race cut on the
//!   calling thread, every survivor's second leg in a second phase.
//!
//! [`multi_start`] is the workspace's one race driver: a lone fit races
//! one search on its call's crew, and a small fleet wave all of its fits'
//! searches at once. Its winners and, once each race replays its buffers
//! in start order ([`Race::finish`]), its event logs are bit-identical for
//! every thread count and completion order.

use crate::control::Control;
use crate::nelder_mead::NelderMeadRun;
use crate::parallel::{caught, Crew};
use crate::report::OptimReport;
use crate::OptimError;
use resilience_obs::{replay, Event, HistogramId, RecordingObserver};
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard};

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
/// Starts are filed as their first legs end, in any order. A start that
/// failed is no candidate and closes at once. A start that ended is closed
/// at once too, but competes at the cut with its final value: if it
/// survives, it is already done. The candidates rank by their least value
/// so far, ties to the lower index, and the board keeps the best `keep`; a
/// paused start that falls off it retires there and then, so the race
/// never holds more than `keep` paused runs, in a board allocated once.
/// The cut leaves the paused survivors, in start order, for their second
/// legs, and [`Race::finish`] replays every buffer in start order and
/// hands over the reduction.
///
/// When the search's control is observed, each start records into a
/// private buffer instead of the shared sink: a `start` line, then
/// whatever its run emits, in both legs and when it closes. Replaying the
/// buffers in start order makes the log independent of which thread ran
/// which start, and when.
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
    /// one) after a first leg of `budget` evaluations: a run pauses at the
    /// first iteration boundary at which it has spent that many. With
    /// `starts ≤ keep` nothing is cut: every first leg runs to its end and
    /// the board holds nothing. The board's storage is allocated here,
    /// once; the buffer slots only when `observed`.
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

    /// Files start `index`, whose first leg ended with `run` and recorded
    /// into `recorder`, closing what leaves the race: the start itself when
    /// it failed, ended or ranks below the board, and a paused start it
    /// pushes off the board. `control` is the search's control, under
    /// which the start ran.
    fn file(
        &mut self,
        index: usize,
        run: Result<NelderMeadRun, OptimError>,
        recorder: Option<Arc<RecordingObserver>>,
        control: &Control,
    ) {
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
    fn cut(&mut self) -> usize {
        self.board.retain(|(_, _, run)| run.is_some());
        self.board.sort_by_key(|&(_, index, _)| index);
        self.board.len()
    }

    /// Paused survivor `s` (in start order) for its second leg: its start
    /// index, its run and its buffer.
    fn survivor(&mut self, s: usize) -> (usize, NelderMeadRun, Option<Arc<RecordingObserver>>) {
        let (_, index, run) = &mut self.board[s];
        let run = run.take().expect("each survivor runs its second leg once");
        (*index, run, self.recorders.get(*index).cloned().flatten())
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

/// One search as [`multi_start`] races it: a race over starts whose legs
/// run in any order, on any thread of the caller's crew. The legs must be
/// `Sync`, but the objective they minimize need not be: build it inside
/// them, so every leg gets a private instance (and private scratch
/// buffers).
pub trait Search {
    /// The race over the search's starts, asked once, on the calling
    /// thread, before any leg runs.
    fn race(&self) -> Race;

    /// The control that the search's starts run and are filed under,
    /// asked as each leg begins, on the thread that runs it: a clock the
    /// search keeps can start with its first start.
    fn control(&self) -> &Control;

    /// Start `i`'s first leg under `control`: begins its run and advances
    /// it to `budget` evaluations, or fails at its start point or stops.
    fn first_leg(
        &self,
        i: usize,
        budget: usize,
        control: &Control,
    ) -> Result<NelderMeadRun, OptimError>;

    /// Survivor `i`'s second leg under `control`: advances its paused
    /// `run` to its end, or stops.
    fn second_leg(
        &self,
        i: usize,
        run: &mut NelderMeadRun,
        control: &Control,
    ) -> Result<bool, OptimError>;
}

/// Races `searches`, given in dispatch order, on `crew`, and hands each
/// back, in that order, with its race, bit-identically for every thread
/// count.
///
/// Every start's first leg is one job of one phase: the searches in the
/// order given, each search's starts in start order. Each leg is filed
/// with its race as it ends, under the search's [`Search::control`]. Then
/// each race is cut on the calling thread, and every survivor's second leg
/// is one job of a second phase, in the same order. A search with no start
/// adds no job, and when no search has one the crew runs no phase. The
/// phases own the searches, behind one `Arc` the driver takes back once
/// the second returns, so a search may borrow only what existed before the
/// crew; no phase keeps a result slot per start. A call without starts
/// only asks each search for its race, and a lone search comes back
/// without a heap allocation: the driver keeps the first search out of
/// the vector it collects the others into.
///
/// A start's panic stays inside its search: the search keeps the payload
/// of its lowest-index start that panicked, and runs no second leg when a
/// first leg panicked. Its race then comes back as that payload, which a
/// lone search's caller re-raises ([`std::panic::resume_unwind`]) as a
/// serial loop over its starts would raise it. Otherwise the race has
/// closed every start: [`Race::finish`] replays its buffers in start order
/// and hands over the reduction.
///
/// The control is shared by every start of a search: once the deadline
/// passes or the token fires, in-flight starts stop at their next
/// iteration and pending starts return immediately, and
/// [`StartReduction::finish`] reports the stop.
///
/// # Examples
///
/// ```
/// use resilience_optim::multi_start::{multi_start, Race, Search};
/// use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig, NelderMeadRun};
/// use resilience_optim::{parallel::crew, Control, OptimError, Parallelism};
///
/// // Two-basin objective: global minimum at x = 3, local at x = -2.
/// fn f(p: &[f64]) -> f64 {
///     ((p[0] - 3.0) * (p[0] + 2.0)).powi(2) + 0.1 * (p[0] - 3.0).powi(2)
/// }
/// struct Starts(Vec<f64>, NelderMead, Control);
/// impl Search for Starts {
///     // Six starts, twenty evaluations each, the best two run on.
///     fn race(&self) -> Race {
///         Race::new(self.0.len(), 2, 20, self.2.observed())
///     }
///     fn control(&self) -> &Control {
///         &self.2
///     }
///     fn first_leg(&self, i: usize, n: usize, c: &Control) -> Result<NelderMeadRun, OptimError> {
///         let mut run = self.1.begin(&f, &self.0[i..=i], c)?;
///         self.1.advance(&f, &mut run, n, c).map(|_| run)
///     }
///     fn second_leg(&self, _: usize, run: &mut NelderMeadRun, c: &Control) -> Result<bool, OptimError> {
///         self.1.advance(&f, run, usize::MAX, c)
///     }
/// }
/// let nm = NelderMead::new(NelderMeadConfig::default());
/// let starts = Starts(vec![-3.0, -2.5, 0.0, 1.0, 4.0, 6.0], nm, Control::unbounded());
/// let mut raced = crew(Parallelism::Auto, |crew| multi_start(crew, [starts]));
/// let (starts, race) = raced.next().expect("one search");
/// let race = race.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
/// let best = race.finish(&starts.2).finish()?;
/// assert!((best.params[0] - 3.0).abs() < 1e-4);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn multi_start<'env, S>(
    crew: &Crew<'_, 'env>,
    searches: impl IntoIterator<Item = S>,
) -> impl Iterator<Item = (S, std::thread::Result<Race>)>
where
    S: Search + Send + Sync + 'env,
{
    let mut raced = searches.into_iter().map(|search| {
        let race = search.race();
        (search, Ok(race))
    });
    // The first search stays out of the vector, so that a lone search
    // comes back without one.
    let first = raced.next();
    let rest: Vec<(S, std::thread::Result<Race>)> = raced.collect();
    let starts =
        |(_, race): &(S, std::thread::Result<Race>)| race.as_ref().map_or(0, |race| race.starts);
    if first.iter().chain(&rest).all(|raced| starts(raced) == 0) {
        return first.into_iter().chain(rest);
    }
    let counts = first.iter().chain(&rest).map(starts).collect();
    let runs: Vec<Running<S>> = first.into_iter().chain(rest).map(Running::new).collect();
    let runs = Arc::new(runs);
    legs(crew, &runs, counts, Running::first_leg);
    let survivors = runs.iter().map(Running::cut).collect();
    legs(crew, &runs, survivors, Running::second_leg);
    let raced: Vec<_> = Arc::into_inner(runs)
        .expect("the crew drops its phases' jobs")
        .into_iter()
        .map(Running::into_parts)
        .collect();
    None.into_iter().chain(raced)
}

/// Runs leg `i` of search `s` for every `i < counts[s]` of every `s`, as
/// one phase of `crew`, in that order. The phase holds a handle on `runs`,
/// which it drops before it returns.
fn legs<'env, S>(
    crew: &Crew<'_, 'env>,
    runs: &Arc<Vec<Running<S>>>,
    counts: Vec<usize>,
    leg: fn(&Running<S>, usize),
) where
    S: Search + Send + Sync + 'env,
{
    // `ends[s]` is one past the last phase index of search `s`.
    let ends: Vec<usize> = counts
        .into_iter()
        .scan(0, |end, count| {
            *end += count;
            Some(*end)
        })
        .collect();
    let runs = Arc::clone(runs);
    crew.run_each(ends.last().copied().unwrap_or(0), move |k| {
        let s = ends.partition_point(|&end| end <= k);
        let first = s.checked_sub(1).map_or(0, |s| ends[s]);
        leg(&runs[s], k - first);
    });
}

/// A start's index and its panic's payload.
type Panic = (usize, Box<dyn Any + Send>);

/// One search in [`multi_start`]'s phases: the search, its first legs'
/// budget, and behind one lock its race and its lowest-index start that
/// panicked.
struct Running<S> {
    search: S,
    budget: usize,
    state: Mutex<(Race, Option<Panic>)>,
}

impl<S: Search> Running<S> {
    /// A search and its race, which no leg has run.
    fn new((search, race): (S, std::thread::Result<Race>)) -> Running<S> {
        let race = race.unwrap_or_else(|_| unreachable!("no leg has run"));
        Running {
            budget: race.budget,
            search,
            state: Mutex::new((race, None)),
        }
    }

    /// The search's race and panic.
    fn lock(&self) -> MutexGuard<'_, (Race, Option<Panic>)> {
        self.state.lock().expect("race state poisoned")
    }

    /// The search and its race, every start closed and every buffer
    /// filed, or the payload of its lowest-index start that panicked.
    fn into_parts(self) -> (S, std::thread::Result<Race>) {
        let (race, panic) = self.state.into_inner().expect("race state poisoned");
        let race = panic.map_or(Ok(race), |(_, payload)| Err(payload));
        (self.search, race)
    }

    /// Start `i`'s first leg, on a crew thread, filed as it ends.
    fn first_leg(&self, i: usize) {
        let control = self.search.control();
        let recorder = control
            .observed()
            .then(|| Arc::new(RecordingObserver::new()));
        let run = caught(|| {
            buffered(control, recorder.as_ref(), |c| {
                c.emit(Event::StartBegan { index: i as u32 });
                self.search.first_leg(i, self.budget, c)
            })
        });
        let mut state = self.lock();
        match run {
            Ok(run) => state.0.file(i, run, recorder, control),
            Err(payload) => panicked(&mut state.1, i, payload),
        }
    }

    /// The cut, on the calling thread once every first leg is over: the
    /// number of paused survivors, or none when a first leg panicked.
    fn cut(&self) -> usize {
        let mut state = self.lock();
        if state.1.is_some() {
            0
        } else {
            state.0.cut()
        }
    }

    /// Survivor `s`'s second leg, on a crew thread, closed as it ends.
    fn second_leg(&self, s: usize) {
        let control = self.search.control();
        let (i, mut run, recorder) = self.lock().0.survivor(s);
        let run = caught(move || {
            buffered(control, recorder.as_ref(), |c| {
                self.search.second_leg(i, &mut run, c)
            })
            .map(|_| run)
        });
        let mut state = self.lock();
        match run {
            Ok(run) => state.0.close(i, run, control),
            Err(payload) => panicked(&mut state.1, i, payload),
        }
    }
}

/// Keeps start `i`'s panic in `first` when it is the lowest-index one.
fn panicked(first: &mut Option<Panic>, i: usize, payload: Box<dyn Any + Send>) {
    if first.as_ref().is_none_or(|&(j, _)| i < j) {
        *first = Some((i, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nelder_mead::{NelderMead, NelderMeadConfig};
    use crate::parallel::{crew, Parallelism};
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

    /// A start's first leg, as a test writes it.
    type First<'f> =
        &'f (dyn Fn(usize, usize, &Control) -> Result<NelderMeadRun, OptimError> + Sync);
    /// A survivor's second leg, as a test writes it.
    type Second<'f> =
        &'f (dyn Fn(usize, &mut NelderMeadRun, &Control) -> Result<bool, OptimError> + Sync);

    /// A search of `starts` starts that keeps `keep` after `budget`
    /// evaluations, whose legs are two closures.
    struct Legs<'f> {
        starts: usize,
        keep: usize,
        budget: usize,
        control: Control,
        first: First<'f>,
        second: Second<'f>,
    }

    impl Search for Legs<'_> {
        fn race(&self) -> Race {
            Race::new(self.starts, self.keep, self.budget, self.control.observed())
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
            (self.first)(i, budget, control)
        }
        fn second_leg(
            &self,
            i: usize,
            run: &mut NelderMeadRun,
            control: &Control,
        ) -> Result<bool, OptimError> {
            (self.second)(i, run, control)
        }
    }

    /// The race of `(starts, keep, budget)` whose legs are `first` and
    /// `second`, alone on a crew of `parallelism`: a panic re-raised, the
    /// buffers replayed into `control`'s sink, and the reduction.
    fn race_alone(
        parallelism: Parallelism,
        (starts, keep, budget): (usize, usize, usize),
        control: &Control,
        first: First<'_>,
        second: Second<'_>,
    ) -> StartReduction {
        let legs = Legs {
            starts,
            keep,
            budget,
            control: control.clone(),
            first,
            second,
        };
        let (_, race) = crew(parallelism, |crew| multi_start(crew, [legs]))
            .next()
            .expect("one search");
        race.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            .finish(control)
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
        race_alone(
            parallelism,
            (starts.len(), keep, budget),
            control,
            &|i, budget, c| {
                let f = make();
                let mut run = optimizer.begin(&f, &starts[i], c)?;
                optimizer.advance(&f, &mut run, budget, c)?;
                Ok(run)
            },
            &|_, run, c| optimizer.advance(&make(), run, usize::MAX, c),
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
                    let reduction = race_alone(
                        parallelism,
                        (starts.len(), keep, budget),
                        &control,
                        &|i, budget, c| {
                            let f = objective(i);
                            let mut run = optimizer(i).begin(&f, &starts[i..=i], c)?;
                            optimizer(i).advance(&f, &mut run, budget, c)?;
                            Ok(run)
                        },
                        &|i, run, c| optimizer(i).advance(&objective(i), run, usize::MAX, c),
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
                let outcome = race_alone(
                    parallelism,
                    (starts.len(), 2, 10),
                    &control,
                    &|i, budget, c| {
                        if !stop_in_second_leg && i == 3 {
                            token.cancel();
                        }
                        let mut run = optimizer.begin(&f, &starts[i], c)?;
                        optimizer.advance(&f, &mut run, budget, c)?;
                        Ok(run)
                    },
                    &|_, run, c| {
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

    /// Three searches share one crew: one whose start 2 panics in its first
    /// leg, one that races and one that keeps every start. At every thread
    /// count each search that did not panic has the winner, evaluations and
    /// replayed log of its lone serial run, and the panicking search hands
    /// back start 2's payload and runs no second leg.
    #[test]
    fn searches_on_one_crew_race_as_they_do_alone() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let two_basins = |p: &[f64]| {
            let x = p[0];
            ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
        };
        let starts: Vec<f64> = (0..8).map(|i| f64::from(i) - 3.3).collect();
        let optimizer = NelderMead::new(NelderMeadConfig::default());
        let first = |i: usize, budget: usize, c: &Control| {
            let mut run = optimizer.begin(&two_basins, &starts[i..=i], c)?;
            optimizer.advance(&two_basins, &mut run, budget, c)?;
            Ok(run)
        };
        let second = |_: usize, run: &mut NelderMeadRun, c: &Control| {
            optimizer.advance(&two_basins, run, usize::MAX, c)
        };
        let panicking = |i: usize, budget: usize, c: &Control| {
            if i == 2 {
                std::panic::panic_any(format!("start {i}"));
            }
            first(i, budget, c)
        };
        let second_legs = AtomicUsize::new(0);
        let counted = |i: usize, run: &mut NelderMeadRun, c: &Control| {
            second_legs.fetch_add(1, Ordering::Relaxed);
            second(i, run, c)
        };
        // (starts, keep, budget): the panicking search would race too.
        let shapes = [(6, 2, 10), (8, 3, 12), (5, usize::MAX, 0)];
        let observed = || {
            let rec = Arc::new(RecordingObserver::new());
            (Control::unbounded().observe(rec.clone()), rec)
        };
        // The lone serial runs of the two searches that do not panic.
        let alone: Vec<_> = shapes[1..]
            .iter()
            .map(|&shape| {
                let (control, rec) = observed();
                let reduction = race_alone(Parallelism::Serial, shape, &control, &first, &second);
                let spent = reduction.evaluations();
                (reduction.finish().unwrap(), spent, rec.take())
            })
            .collect();
        assert!(alone[0].2.iter().any(|e| matches!(
            e,
            Event::Converged {
                reason: resilience_obs::ExitReason::Retired,
                ..
            }
        )));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Auto,
        ] {
            let legs: [(First<'_>, Second<'_>); 3] =
                [(&panicking, &counted), (&first, &second), (&first, &second)];
            let searches: Vec<_> = shapes
                .iter()
                .zip(legs)
                .map(|(&(starts, keep, budget), (first, second))| {
                    let (control, rec) = observed();
                    let legs = Legs {
                        starts,
                        keep,
                        budget,
                        control,
                        first,
                        second,
                    };
                    (legs, rec)
                })
                .collect();
            let (searches, recorders): (Vec<_>, Vec<_>) = searches.into_iter().unzip();
            let mut raced = crew(parallelism, |crew| multi_start(crew, searches));
            let (_, race) = raced.next().unwrap();
            let payload = race.expect_err("start 2 panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("start 2"),
                "{parallelism:?}"
            );
            assert_eq!(second_legs.load(Ordering::Relaxed), 0, "{parallelism:?}");
            for (((legs, race), rec), lone) in raced.zip(&recorders[1..]).zip(&alone) {
                let reduction = race.unwrap().finish(&legs.control);
                let spent = reduction.evaluations();
                let run = (reduction.finish().unwrap(), spent, rec.take());
                assert_eq!(&run, lone, "{parallelism:?}");
            }
        }
        std::panic::set_hook(hook);
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
