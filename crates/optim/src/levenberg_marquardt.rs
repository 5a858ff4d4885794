//! Levenberg–Marquardt damped least squares.
//!
//! Fast local refinement for the paper's Eq. 8 once Nelder–Mead has placed
//! the iterate in the right basin. Uses the Marquardt scaling
//! `(JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr` with multiplicative damping adaptation,
//! and the problem's analytic Jacobian when it has one, else a
//! forward-difference Jacobian from [`crate::problem::forward_jacobian`].

use crate::control::Control;
use crate::problem::{forward_jacobian, LeastSquares};
use crate::report::{OptimReport, TerminationReason};
use crate::OptimError;
use resilience_math::linalg::{norm2, Matrix};
use resilience_obs::{CounterId, Event, SolverKind};

/// Maximum number of outer iterations.
const MAX_ITERATIONS: usize = 200;
/// Convergence tolerance on the relative SSE decrease.
const F_TOL: f64 = 1e-14;
/// Convergence tolerance on the step norm.
const X_TOL: f64 = 1e-12;
/// Initial damping factor λ.
const INITIAL_LAMBDA: f64 = 1e-3;
/// Multiplicative damping adaptation factor.
const LAMBDA_FACTOR: f64 = 8.0;
/// Upper bound on λ before declaring stagnation.
const MAX_LAMBDA: f64 = 1e12;

/// Minimizes `‖r(θ)‖²` from the starting point `x0` under an execution
/// [`Control`].
///
/// Each outer iteration and each damped inner step is a cooperative
/// cancellation point. Pass [`Control::unbounded`] for an uncontrolled
/// run. The damping starts at λ = 10⁻³ and moves by a factor of 8; the
/// run stops after 200 outer iterations, on a relative SSE decrease below
/// 10⁻¹⁴ or a relative step below 10⁻¹², or when λ passes 10¹² without an
/// improving step.
///
/// # Errors
///
/// * [`OptimError::InvalidConfig`] for a dimension mismatch.
/// * [`OptimError::BadStartingPoint`] when residuals are non-finite at
///   `x0`.
/// * [`OptimError::Numerical`] when the damped normal equations are
///   singular beyond recovery.
/// * [`OptimError::TimedOut`] / [`OptimError::Cancelled`] on a stop.
///
/// # Examples
///
/// ```
/// use resilience_optim::levenberg_marquardt;
/// use resilience_optim::problem::ClosureLeastSquares;
/// use resilience_optim::Control;
///
/// // Fit y = a·e^{−b·t} to noiseless data (a = 2, b = 0.3).
/// let data: Vec<(f64, f64)> = (0..25)
///     .map(|i| (i as f64, 2.0 * (-0.3 * i as f64).exp()))
///     .collect();
/// let n = data.len();
/// let problem = ClosureLeastSquares::new(2, n, move |p, out| {
///     for (i, &(t, y)) in data.iter().enumerate() {
///         out[i] = y - p[0] * (-p[1] * t).exp();
///     }
/// });
/// let report = levenberg_marquardt::minimize(&problem, &[1.0, 0.1], &Control::unbounded())?;
/// assert!((report.params[0] - 2.0).abs() < 1e-8);
/// assert!((report.params[1] - 0.3).abs() < 1e-8);
/// # Ok::<(), resilience_optim::OptimError>(())
/// ```
pub fn minimize<P: LeastSquares + ?Sized>(
    problem: &P,
    x0: &[f64],
    control: &Control,
) -> Result<OptimReport, OptimError> {
    if x0.len() != problem.n_params() {
        return Err(OptimError::config(
            "LevenbergMarquardt",
            format!(
                "problem has {} parameters, x0 has {}",
                problem.n_params(),
                x0.len()
            ),
        ));
    }
    let m = problem.n_residuals();
    let n = problem.n_params();
    if m < n {
        return Err(OptimError::config(
            "LevenbergMarquardt",
            format!("underdetermined: {m} residuals for {n} parameters"),
        ));
    }
    let mut x = x0.to_vec();
    let mut residuals = vec![0.0; m];
    problem.residuals(&x, &mut residuals);
    let mut evaluations = 1usize;
    if residuals.iter().any(|v| !v.is_finite()) {
        return Err(OptimError::BadStartingPoint { value: f64::NAN });
    }
    let mut sse = norm2(&residuals).powi(2);
    let mut lambda = INITIAL_LAMBDA;
    let mut iterations = 0usize;
    let mut termination = TerminationReason::MaxIterations;
    // Damping-adaptation tallies, flushed as counter events only at
    // termination so the solve/step loop stays allocation-free.
    let (mut damping_up, mut damping_down) = (0u64, 0u64);
    // Reused across iterations by the analytic-Jacobian path; the
    // finite-difference fallback replaces it wholesale.
    let mut analytic_jac = Matrix::zeros(m, n);

    let scope = SolverKind::LevenbergMarquardt.stop_scope();
    while iterations < MAX_ITERATIONS {
        control.check_stop(scope, evaluations)?;
        iterations += 1;
        // Analytic Jacobian when the problem provides one (free in
        // objective evaluations); otherwise forward differences at a
        // cost of n residual evaluations.
        let jac = if problem.jacobian_into(&x, &mut analytic_jac).is_some() {
            if !analytic_jac.is_finite() {
                return Err(OptimError::BadStartingPoint { value: f64::NAN });
            }
            &analytic_jac
        } else {
            analytic_jac = forward_jacobian(problem, &x)?;
            evaluations += n;
            &analytic_jac
        };
        let jtj = jac.gram();
        // A direction whose curvature is below ε² of the largest is flat
        // to working precision: Marquardt's relative damping would leave
        // it all but undamped and send the step off along it (a
        // competing-risks γ at 1e-20, whose column 2γt is 1e-20 of the
        // others), so it gets the absolute floor of an exactly flat one.
        let flat = (0..n).map(|i| jtj[(i, i)]).fold(0.0, f64::max) * f64::EPSILON * f64::EPSILON;
        // The Newton direction for ½‖r‖² is −(JᵀJ)⁻¹Jᵀr; fold the sign
        // into the right-hand side.
        let mut jtr = jac.transpose_matvec(&residuals)?;
        for v in &mut jtr {
            *v = -*v;
        }
        // Inner loop: increase λ until a step decreases the SSE.
        let mut stepped = false;
        while lambda <= MAX_LAMBDA {
            control.check_stop(scope, evaluations)?;
            // (JᵀJ + λ diag(JᵀJ)) δ = Jᵀr
            let mut damped = jtj.clone();
            for i in 0..n {
                let d = jtj[(i, i)];
                // Guard flat directions with an absolute floor.
                damped[(i, i)] = d + lambda * if d > flat { d } else { 1.0 };
            }
            let delta = match damped.solve(&jtr) {
                Ok(d) => d,
                Err(_) => {
                    lambda *= LAMBDA_FACTOR;
                    damping_up += 1;
                    continue;
                }
            };
            let candidate: Vec<f64> = x.iter().zip(&delta).map(|(xi, di)| xi + di).collect();
            let mut cand_res = vec![0.0; m];
            problem.residuals(&candidate, &mut cand_res);
            evaluations += 1;
            let cand_sse = if cand_res.iter().all(|v| v.is_finite()) {
                norm2(&cand_res).powi(2)
            } else {
                f64::INFINITY
            };
            if cand_sse < sse {
                // Accept and relax damping.
                let step_norm = norm2(&delta);
                let improvement = sse - cand_sse;
                x = candidate;
                residuals = cand_res;
                sse = cand_sse;
                lambda = (lambda / LAMBDA_FACTOR).max(1e-12);
                damping_down += 1;
                stepped = true;
                if improvement <= F_TOL * (1.0 + sse) || step_norm <= X_TOL * (1.0 + norm2(&x)) {
                    termination = TerminationReason::Converged;
                }
                break;
            }
            lambda *= LAMBDA_FACTOR;
            damping_up += 1;
        }
        if !stepped {
            // Damping maxed out without any acceptable step: the
            // iterate is at (or numerically at) a local minimum.
            termination = TerminationReason::Stalled;
            break;
        }
        if termination == TerminationReason::Converged {
            break;
        }
    }

    if control.observed() {
        control.emit(Event::Converged {
            solver: SolverKind::LevenbergMarquardt,
            iterations: iterations as u64,
            evaluations: evaluations as u64,
            value: sse,
            reason: termination.exit_reason(),
        });
        control.count(CounterId::ObjectiveEvals, evaluations as u64);
        control.count(CounterId::LmDampingUp, damping_up);
        control.count(CounterId::LmDampingDown, damping_down);
    }
    Ok(OptimReport {
        params: x,
        value: sse,
        iterations,
        evaluations,
        termination,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ClosureLeastSquares;

    fn exp_decay_problem(
        a: f64,
        b: f64,
        n: usize,
    ) -> ClosureLeastSquares<impl Fn(&[f64], &mut [f64])> {
        let data: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, a * (-b * i as f64).exp()))
            .collect();
        ClosureLeastSquares::new(2, n, move |p, out| {
            for (i, &(t, y)) in data.iter().enumerate() {
                out[i] = y - p[0] * (-p[1] * t).exp();
            }
        })
    }

    #[test]
    fn fits_exponential_decay_exactly() {
        let p = exp_decay_problem(2.0, 0.3, 30);
        let r = minimize(&p, &[1.0, 0.1], &Control::unbounded()).unwrap();
        assert!(r.value < 1e-20, "sse = {}", r.value);
        assert!((r.params[0] - 2.0).abs() < 1e-8);
        assert!((r.params[1] - 0.3).abs() < 1e-8);
    }

    #[test]
    fn linear_problem_one_step() {
        // Linear least squares should converge essentially immediately.
        let ts: Vec<f64> = (0..10).map(f64::from).collect();
        let p = ClosureLeastSquares::new(2, 10, move |params, out| {
            for (i, &t) in ts.iter().enumerate() {
                out[i] = (3.0 + 2.0 * t) - (params[0] + params[1] * t);
            }
        });
        let r = minimize(&p, &[0.0, 0.0], &Control::unbounded()).unwrap();
        assert!(r.value < 1e-18);
        assert!(r.iterations <= 5);
        assert!((r.params[0] - 3.0).abs() < 1e-9);
        assert!((r.params[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_recovers_parameters_approximately() {
        // Deterministic "noise" from a simple recurrence so the test is
        // reproducible without rand.
        let mut noise = 0.017_f64;
        let data: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                noise = (noise * 97.0).fract() * 0.02 - 0.01;
                let t = i as f64 * 0.2;
                (t, 1.5 * (-0.4 * t).exp() + noise)
            })
            .collect();
        let n = data.len();
        let p = ClosureLeastSquares::new(2, n, move |params, out| {
            for (i, &(t, y)) in data.iter().enumerate() {
                out[i] = y - params[0] * (-params[1] * t).exp();
            }
        });
        let r = minimize(&p, &[1.0, 0.1], &Control::unbounded()).unwrap();
        assert!((r.params[0] - 1.5).abs() < 0.05, "{:?}", r.params);
        assert!((r.params[1] - 0.4).abs() < 0.05);
    }

    #[test]
    fn rejects_underdetermined_and_mismatched() {
        let p = ClosureLeastSquares::new(3, 2, |_, out| out.fill(0.0));
        assert!(minimize(&p, &[0.0, 0.0, 0.0], &Control::unbounded()).is_err());
        let p2 = ClosureLeastSquares::new(2, 5, |_, out| out.fill(0.0));
        assert!(minimize(&p2, &[0.0], &Control::unbounded()).is_err());
    }

    #[test]
    fn rejects_non_finite_start() {
        let p = ClosureLeastSquares::new(1, 2, |params, out| {
            out.fill(if params[0] < 0.0 { f64::NAN } else { params[0] });
        });
        assert!(matches!(
            minimize(&p, &[-1.0], &Control::unbounded()),
            Err(OptimError::BadStartingPoint { .. })
        ));
    }

    #[test]
    fn already_optimal_terminates_quickly() {
        let p = exp_decay_problem(2.0, 0.3, 20);
        let r = minimize(&p, &[2.0, 0.3], &Control::unbounded()).unwrap();
        assert!(r.iterations <= 3);
        assert!(r.value < 1e-20);
    }

    #[test]
    fn stalls_gracefully_on_flat_residuals() {
        // Residuals independent of parameters: J = 0, no step improves.
        let p = ClosureLeastSquares::new(1, 3, |_, out| {
            out.copy_from_slice(&[1.0, -1.0, 0.5]);
        });
        let r = minimize(&p, &[0.0], &Control::unbounded()).unwrap();
        assert_eq!(r.termination, TerminationReason::Stalled);
        assert!((r.value - 2.25).abs() < 1e-12);
    }

    #[test]
    fn expired_deadline_times_out() {
        use std::time::Duration;
        let p = exp_decay_problem(2.0, 0.3, 30);
        let control = Control::with_deadline(Duration::ZERO);
        assert!(matches!(
            minimize(&p, &[1.0, 0.1], &control),
            Err(OptimError::TimedOut { .. })
        ));
    }

    #[test]
    fn telemetry_counts_damping_adjustments() {
        use resilience_obs::{CounterId, Event, RecordingObserver, SolverKind};
        use std::sync::Arc;
        let p = exp_decay_problem(2.0, 0.3, 30);
        let rec = Arc::new(RecordingObserver::new());
        let control = Control::unbounded().observe(rec.clone());
        let report = minimize(&p, &[1.0, 0.1], &control).unwrap();
        let events = rec.take();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Converged {
                solver: SolverKind::LevenbergMarquardt,
                ..
            }
        )));
        // Every accepted outer step relaxes the damping exactly once.
        let down: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::LmDampingDown,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert!(down >= 1 && down <= report.iterations as u64);
        let evals: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    id: CounterId::ObjectiveEvals,
                    delta,
                } => Some(*delta),
                _ => None,
            })
            .sum();
        assert_eq!(evals, report.evaluations as u64);
    }
}
