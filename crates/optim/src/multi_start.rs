//! The multi-start Nelder–Mead driver.
//!
//! The resilience fits are nonconvex (the mixture SSE surface in
//! particular has local minima corresponding to "all degradation" or "all
//! recovery" explanations). The paper does not describe its seeding; we
//! make fitting deterministic and robust by running the local optimizer
//! from each family's data-driven starting points and keeping the best
//! result.

use crate::control::Control;
use crate::nelder_mead::{NelderMead, NelderMeadConfig};
use crate::objective::Objective;
use crate::parallel::{run_indexed, Parallelism};
use crate::report::OptimReport;
use crate::OptimError;
use resilience_obs::{replay, Event, HistogramId, RecordingObserver};
use std::sync::Arc;

/// Runs Nelder–Mead from every start and returns the best report,
/// bit-identically for every thread count.
///
/// Because stateful objectives (e.g. ones carrying reusable scratch
/// buffers) are rarely `Sync`, this takes an objective *factory*: each
/// start invokes `make_objective()` for a private objective instance, so
/// the factory must be `Sync` but the objectives it makes need not be.
///
/// Every start is minimized independently; the winner is then reduced in
/// **start order** with a strict `value <` comparison, so ties keep the
/// earliest start and the result does not depend on scheduling. Starts
/// whose objective is non-finite are skipped; only if *every* start fails
/// does this error.
///
/// The control is shared by every start: once the deadline passes or the
/// token fires, in-flight starts stop at their next iteration and pending
/// starts return immediately. A stopped run is reported as a typed error
/// — never as a silently partial "best of the starts that finished" — so
/// a timed-out fit is always distinguishable from a converged one.
///
/// # Errors
///
/// * [`OptimError::InvalidConfig`] when `starts` is empty.
/// * [`OptimError::TimedOut`] / [`OptimError::Cancelled`] when the
///   control stopped the run.
/// * [`OptimError::AllStartsFailed`] when no start produced a finite
///   optimum.
///
/// # Examples
///
/// ```
/// use resilience_optim::multi_start::multi_start_nelder_mead;
/// use resilience_optim::nelder_mead::NelderMeadConfig;
/// use resilience_optim::{Control, Parallelism};
///
/// // Two-basin objective: global minimum at x = 3, local at x = -2.
/// let make = || {
///     |p: &[f64]| {
///         let x = p[0];
///         ((x - 3.0) * (x + 2.0)).powi(2) + 0.1 * (x - 3.0).powi(2)
///     }
/// };
/// let starts = vec![vec![-3.0], vec![0.0], vec![4.0]];
/// let best = multi_start_nelder_mead(
///     &make,
///     &starts,
///     &NelderMeadConfig::default(),
///     Parallelism::Auto,
///     &Control::unbounded(),
/// )?;
/// assert!((best.params[0] - 3.0).abs() < 1e-4);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn multi_start_nelder_mead<F, G>(
    make_objective: &G,
    starts: &[Vec<f64>],
    config: &NelderMeadConfig,
    parallelism: Parallelism,
    control: &Control,
) -> Result<OptimReport, OptimError>
where
    F: Objective,
    G: Fn() -> F + Sync,
{
    if starts.is_empty() {
        return Err(OptimError::config(
            "multi_start_nelder_mead",
            "no starts given",
        ));
    }
    let optimizer = NelderMead::new(config.clone());
    let observed = control.observed();
    // When observed, each start records into its own private buffer; the
    // buffers are replayed into the parent sink in start order below, so
    // the event log is byte-identical for every thread count.
    let results = run_indexed(parallelism, starts.len(), |i| {
        let f = make_objective();
        if observed {
            let rec = Arc::new(RecordingObserver::new());
            let sub = control.with_observer(rec.clone());
            sub.emit(Event::StartBegan { index: i as u32 });
            let result = optimizer.minimize(&f, &starts[i], &sub);
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
            (result, Some(rec.take()))
        } else {
            (optimizer.minimize(&f, &starts[i], control), None)
        }
    });
    // Replay every buffer before the reduction: a stopped run propagates a
    // typed error below, and its trace (including the stop event) must
    // reach the sink first.
    if let Some(sink) = control.observer() {
        for (_, buffer) in &results {
            if let Some(events) = buffer {
                replay(events, sink.as_ref());
            }
        }
    }
    let mut best: Option<OptimReport> = None;
    let mut failures = 0usize;
    for (result, _) in results {
        match result {
            Ok(report) => {
                let better = match &best {
                    Some(b) => report.value < b.value,
                    None => true,
                };
                if better {
                    best = Some(report);
                }
            }
            // A stop is a property of the whole multi-start run, not of
            // one unlucky start: propagate it.
            Err(e) if e.is_stop() => return Err(e),
            Err(_) => failures += 1,
        }
    }
    best.ok_or(OptimError::AllStartsFailed { attempts: failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial driver: every start in order, first strictly better value
    /// wins. An independent implementation that the production driver must
    /// match bit for bit at every thread count.
    fn serial_oracle<F: Objective>(
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

    /// The production driver, serial and unbounded.
    fn serial<F: Objective + Copy + Sync>(
        f: F,
        starts: &[Vec<f64>],
    ) -> Result<OptimReport, OptimError> {
        multi_start_nelder_mead(
            &|| f,
            starts,
            &NelderMeadConfig::default(),
            Parallelism::Serial,
            &Control::unbounded(),
        )
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
    fn multi_start_rejects_empty() {
        let f = |p: &[f64]| p[0];
        assert!(serial(f, &[]).is_err());
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
        let cfg = NelderMeadConfig::default();
        let serial = serial_oracle(&f, &starts, &cfg).unwrap();
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(1),
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let par =
                multi_start_nelder_mead(&|| f, &starts, &cfg, p, &Control::unbounded()).unwrap();
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
            let best = multi_start_nelder_mead(
                &|| f,
                &starts,
                &NelderMeadConfig::default(),
                p,
                &Control::unbounded(),
            )
            .unwrap();
            assert!(best.params[0] > 0.0, "{p:?}: {:?}", best.params);
        }
    }

    #[test]
    fn parallel_all_failed_counts_attempts() {
        let make = || |_: &[f64]| f64::NAN;
        let starts = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert!(matches!(
            multi_start_nelder_mead(
                &make,
                &starts,
                &NelderMeadConfig::default(),
                Parallelism::Fixed(2),
                &Control::unbounded(),
            ),
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
                multi_start_nelder_mead(&make, &starts, &NelderMeadConfig::default(), p, &control),
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
        let cfg = NelderMeadConfig::default();
        let trace = |parallelism: Parallelism| {
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            multi_start_nelder_mead(&make, &starts, &cfg, parallelism, &control).unwrap();
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
        let result = multi_start_nelder_mead(
            &make,
            &starts,
            &NelderMeadConfig::default(),
            Parallelism::Fixed(2),
            &control,
        );
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
        let best = multi_start_nelder_mead(
            &make,
            &starts,
            &NelderMeadConfig::default(),
            Parallelism::Fixed(3),
            &Control::unbounded(),
        )
        .unwrap();
        assert!((best.params[0] - 2.0).abs() < 1e-5);
    }
}
