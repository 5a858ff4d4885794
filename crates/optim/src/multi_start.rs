//! The multi-start driver, in two shared pieces and their composition.
//!
//! The resilience fits are nonconvex (the mixture SSE surface in
//! particular has local minima corresponding to "all degradation" or "all
//! recovery" explanations). The paper does not describe its seeding; we
//! make fitting deterministic and robust by running the local optimizer
//! from each family's data-driven starting points and keeping the best
//! result.
//!
//! * [`run_start`] runs one start, buffering its events privately when
//!   the control is observed.
//! * [`StartReduction`] folds start results, fed in any order, into the
//!   winner a serial loop in start order would keep.
//! * [`multi_start`] runs every start of one search in one
//!   [`run_indexed`] pool, replays the buffers in start order and reduces.
//!
//! A caller that pools the starts of several searches — the one-cell
//! ranker in `resilience-core` — uses the two pieces directly; both it
//! and [`multi_start`] give bit-identical winners and event logs for
//! every thread count and completion order.

use crate::control::Control;
use crate::parallel::{run_indexed, Parallelism};
use crate::report::OptimReport;
use crate::OptimError;
use resilience_obs::{replay, Event, HistogramId, RecordingObserver};
use std::sync::Arc;

/// One start's result and, when its control was observed, the events it
/// recorded, for the caller to replay in start order.
#[derive(Debug)]
pub struct StartRun {
    /// The solver's report or error.
    pub result: Result<OptimReport, OptimError>,
    /// The start's events (its `start` line, the solver's lines and its
    /// per-start histograms), or `None` when unobserved.
    pub events: Option<Vec<Event>>,
}

/// Runs start `index` through `run` under `control`.
///
/// When the control is observed, the start records into a private buffer
/// instead of the shared sink: a `start` line, whatever `run` emits, and
/// on success the start's evaluation and iteration histograms. Replaying
/// the buffers in start order makes the log independent of which thread
/// ran which start, and when.
pub fn run_start<R>(index: usize, control: &Control, run: R) -> StartRun
where
    R: FnOnce(&Control) -> Result<OptimReport, OptimError>,
{
    if !control.observed() {
        return StartRun {
            result: run(control),
            events: None,
        };
    }
    let rec = Arc::new(RecordingObserver::new());
    let sub = control.with_observer(rec.clone());
    sub.emit(Event::StartBegan {
        index: index as u32,
    });
    let result = run(&sub);
    if let Ok(report) = &result {
        sub.emit(Event::Hist {
            id: HistogramId::EvalsPerStart,
            value: report.evaluations as u64,
        });
        sub.emit(Event::Hist {
            id: HistogramId::IterationsPerStart,
            value: report.iterations as u64,
        });
    }
    StartRun {
        result,
        events: Some(rec.take()),
    }
}

/// The running reduction over one search's start results.
///
/// Results may arrive in any order; the outcome is the one a serial loop
/// in start order with a strict `value <` comparison would keep:
///
/// * the winner has the least value, and ties go to the lowest start
///   index;
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
/// assert_eq!(reduction.evaluations(), 30);
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

    /// Objective evaluations of every successful start so far, winner and
    /// losers: the work their `objective_evals` counters report. A failed
    /// or stopped start is not counted.
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

/// Runs `run(i, control)` for every start `i` in `0..starts` and reduces
/// the results, bit-identically for every thread count.
///
/// The starts share one [`run_indexed`] pool; each goes through
/// [`run_start`], and the buffers are replayed into `control`'s sink in
/// start order before the [`StartReduction`] sees the results. `run` must
/// be `Sync`, but the objective it minimizes need not be: build it inside
/// `run`, so every start gets a private instance (and private scratch
/// buffers).
///
/// The control is shared by every start: once the deadline passes or the
/// token fires, in-flight starts stop at their next iteration and pending
/// starts return immediately, and [`StartReduction::finish`] reports the
/// stop.
///
/// # Examples
///
/// ```
/// use resilience_optim::multi_start::multi_start;
/// use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
/// use resilience_optim::{Control, Parallelism};
///
/// // Two-basin objective: global minimum at x = 3, local at x = -2.
/// let f = |p: &[f64]| {
///     let x = p[0];
///     ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
/// };
/// let starts = [-3.0, 0.0, 4.0];
/// let nm = NelderMead::new(NelderMeadConfig::default());
/// let best = multi_start(Parallelism::Auto, starts.len(), &Control::unbounded(), |i, c| {
///     nm.minimize(&f, &starts[i..=i], c)
/// })
/// .finish()?;
/// assert!((best.params[0] - 3.0).abs() < 1e-4);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn multi_start<R>(
    parallelism: Parallelism,
    starts: usize,
    control: &Control,
    run: R,
) -> StartReduction
where
    R: Fn(usize, &Control) -> Result<OptimReport, OptimError> + Sync,
{
    let runs = run_indexed(parallelism, starts, |i| {
        run_start(i, control, |c| run(i, c))
    });
    let mut reduction = StartReduction::default();
    for (i, start) in runs.into_iter().enumerate() {
        if let (Some(events), Some(sink)) = (&start.events, control.observer()) {
            replay(events, sink.as_ref());
        }
        reduction.add(i, start.result);
    }
    reduction
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
    /// start minimizing a private objective from `make`.
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
        let optimizer = NelderMead::new(NelderMeadConfig::default());
        multi_start(parallelism, starts.len(), control, |i, c| {
            optimizer.minimize(&make(), &starts[i], c)
        })
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
