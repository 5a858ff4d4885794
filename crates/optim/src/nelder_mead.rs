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
use resilience_obs::{CounterId, Event, SolverKind};
use std::cell::Cell;

/// Configuration for [`NelderMead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum number of iterations (each iteration is 1–`n+2`
    /// evaluations).
    pub max_iterations: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex's coordinate spread.
    pub x_tol: f64,
    /// Relative size of the initial simplex around the starting point.
    pub initial_step: f64,
    /// Reflection coefficient (standard value 1).
    pub alpha: f64,
    /// Expansion coefficient (standard value 2).
    pub gamma: f64,
    /// Contraction coefficient (standard value 0.5).
    pub rho: f64,
    /// Shrink coefficient (standard value 0.5).
    pub sigma: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            max_iterations: 2000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.1,
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
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
        if !(self.initial_step > 0.0) {
            return Err(OptimError::config(
                "NelderMead",
                "initial_step must be positive",
            ));
        }
        if !(self.alpha > 0.0)
            || !(self.gamma > 1.0)
            || !(0.0..1.0).contains(&self.rho)
            || !(0.0..1.0).contains(&self.sigma)
        {
            return Err(OptimError::config(
                "NelderMead",
                "need alpha > 0, gamma > 1, 0 < rho < 1, 0 < sigma < 1",
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

    /// Minimizes `f` starting from `x0` under an execution [`Control`].
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
        self.config.validate()?;
        if x0.is_empty() {
            return Err(OptimError::config("NelderMead", "empty starting point"));
        }
        let n = x0.len();
        // Behind a Cell (not `mut`) so the cancellation points below can
        // read the count while `eval` is live.
        let evaluations = Cell::new(0usize);
        let eval = |x: &[f64]| -> f64 {
            evaluations.set(evaluations.get() + 1);
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };
        let f0 = eval(x0);
        if !f0.is_finite() {
            return Err(OptimError::BadStartingPoint { value: f0 });
        }
        // Build the initial simplex: x0 plus a step along each axis.
        let scope = SolverKind::NelderMead.stop_scope();
        control.check_stop(scope, evaluations.get())?;
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        simplex.push((x0.to_vec(), f0));
        for i in 0..n {
            let mut vertex = x0.to_vec();
            vertex[i] += self.config.initial_step * (1.0 + x0[i].abs());
            let fv = eval(&vertex);
            simplex.push((vertex, fv));
        }
        let sort = |s: &mut Vec<(Vec<f64>, f64)>| {
            s.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN: mapped to +inf"));
        };
        sort(&mut simplex);

        let cfg = &self.config;
        let mut iterations = 0usize;
        // Step-type tallies, batched as plain integer locals and flushed as
        // counter events only at termination — the iteration loop stays
        // allocation-free whether or not a sink is attached.
        let (mut reflections, mut expansions, mut contractions, mut shrinks) =
            (0u64, 0u64, 0u64, 0u64);
        // Work buffers reused across iterations — the simplex update loop
        // below performs no heap allocation (the stop poll is one atomic
        // load plus one clock read).
        let mut centroid = vec![0.0; n];
        let mut reflected = vec![0.0; n];
        let mut extra = vec![0.0; n];
        let termination = loop {
            control.check_stop(scope, evaluations.get())?;
            if iterations >= cfg.max_iterations {
                break TerminationReason::MaxIterations;
            }
            iterations += 1;
            let best = simplex[0].1;
            let worst = simplex[n].1;
            // Convergence: objective spread and coordinate spread.
            let f_spread = (worst - best).abs();
            let x_spread = (0..n)
                .map(|j| {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for (v, _) in &simplex {
                        lo = lo.min(v[j]);
                        hi = hi.max(v[j]);
                    }
                    hi - lo
                })
                .fold(0.0f64, f64::max);
            if f_spread <= cfg.f_tol * (1.0 + best.abs()) && x_spread <= cfg.x_tol {
                break TerminationReason::Converged;
            }

            // Centroid of all but the worst vertex.
            centroid.fill(0.0);
            for (v, _) in simplex.iter().take(n) {
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            // Reflection: x_c + α(x_c − x_worst).
            for j in 0..n {
                reflected[j] = centroid[j] + cfg.alpha * (centroid[j] - simplex[n].0[j]);
            }
            let fr = eval(&reflected);
            if fr < simplex[0].1 {
                // Expansion.
                for j in 0..n {
                    extra[j] =
                        centroid[j] + cfg.alpha * cfg.gamma * (centroid[j] - simplex[n].0[j]);
                }
                let fe = eval(&extra);
                if fe < fr {
                    expansions += 1;
                    simplex[n].0.copy_from_slice(&extra);
                    simplex[n].1 = fe;
                } else {
                    reflections += 1;
                    simplex[n].0.copy_from_slice(&reflected);
                    simplex[n].1 = fr;
                }
            } else if fr < simplex[n - 1].1 {
                reflections += 1;
                simplex[n].0.copy_from_slice(&reflected);
                simplex[n].1 = fr;
            } else {
                // Contraction (outside if reflection helped at all, inside
                // otherwise).
                let t = if fr < simplex[n].1 {
                    cfg.alpha * cfg.rho
                } else {
                    -cfg.rho
                };
                for j in 0..n {
                    extra[j] = centroid[j] + t * (centroid[j] - simplex[n].0[j]);
                }
                let fc = eval(&extra);
                if fc < simplex[n].1.min(fr) {
                    contractions += 1;
                    simplex[n].0.copy_from_slice(&extra);
                    simplex[n].1 = fc;
                } else {
                    shrinks += 1;
                    // Shrink toward the best vertex in place (each
                    // coordinate update only reads its own old value).
                    let (best, rest) = simplex.split_first_mut().expect("simplex non-empty");
                    for entry in rest {
                        for (x, b) in entry.0.iter_mut().zip(&best.0) {
                            *x = b + cfg.sigma * (*x - b);
                        }
                        entry.1 = eval(&entry.0);
                    }
                }
            }
            sort(&mut simplex);
        };

        let (params, value) = simplex.swap_remove(0);
        if control.observed() {
            control.emit(Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: iterations as u64,
                evaluations: evaluations.get() as u64,
                value,
                reason: termination.exit_reason(),
            });
            control.count(CounterId::ObjectiveEvals, evaluations.get() as u64);
            control.count(CounterId::NmReflections, reflections);
            control.count(CounterId::NmExpansions, expansions);
            control.count(CounterId::NmContractions, contractions);
            control.count(CounterId::NmShrinks, shrinks);
        }
        Ok(OptimReport {
            params,
            value,
            iterations,
            evaluations: evaluations.get(),
            termination,
        })
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
