//! Resilient-execution acceptance suite (DESIGN.md §9): deadlines turn
//! runaway fits into typed `TimedOut` errors, cancel tokens stop runs
//! from another thread, and panicking families degrade a ranking instead
//! of poisoning it.
//!
//! The hostile families here model real failure modes: an objective so
//! slow it effectively hangs (`SleepyFamily`) and a buggy family
//! implementation that panics (`PanickyFamily`).

// Sanctioned wall-clock: this suite *measures* that deadlines fire
// promptly; nothing here is a stored result (`clippy.toml` bans
// `Instant` in result paths).
#![allow(clippy::disallowed_types)]

use resilience_core::bathtub::QuadraticFamily;
use resilience_core::fit::{fit_least_squares_with, FitConfig};
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_core::runtime::{rank_models_supervised, CancelToken, Control, ExecPolicy};
use resilience_core::selection::FailureKind;
use resilience_core::CoreError;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_optim::Parallelism;
use std::time::{Duration, Instant};

/// A constant-curve family whose every objective evaluation sleeps: the
/// closest safe stand-in for an objective that hangs. Its fit can only
/// finish fast by hitting a cooperative cancellation point.
struct SleepyFamily {
    nap: Duration,
}

struct ConstantModel(f64);

impl ResilienceModel for ConstantModel {
    fn name(&self) -> &'static str {
        "Sleepy"
    }
    fn params(&self) -> Vec<f64> {
        vec![self.0]
    }
    fn predict(&self, _t: f64) -> f64 {
        self.0
    }
}

impl ModelFamily for SleepyFamily {
    fn name(&self) -> &'static str {
        "Sleepy"
    }
    fn n_params(&self) -> usize {
        1
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        out.copy_from_slice(internal);
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(params.to_vec())
    }
    fn predict_params_into(&self, params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
        std::thread::sleep(self.nap);
        out.fill(params[0]);
        true
    }
    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Ok(Box::new(ConstantModel(params[0])))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0]]
    }
}

/// A family whose objective panics: a buggy implementation that must be
/// isolated, never allowed to take down a multi-family run. It has three
/// starts, so at two or more threads its multi-start panics on worker
/// threads too.
struct PanickyFamily;

impl ModelFamily for PanickyFamily {
    fn name(&self) -> &'static str {
        "Panicky"
    }
    fn n_params(&self) -> usize {
        1
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        out.copy_from_slice(internal);
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(params.to_vec())
    }
    fn predict_params_into(&self, _params: &[f64], _ts: &[f64], _out: &mut [f64]) -> bool {
        panic!("injected panic in Panicky::predict_params_into");
    }
    fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Err(CoreError::params("Panicky", "never buildable"))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0], vec![2.0], vec![3.0]]
    }
}

/// A generous-but-finite optimizer budget: the fit should only ever end
/// via the control, not by exhausting iterations.
fn patient_config() -> FitConfig {
    let mut config = FitConfig {
        lm_polish: false,
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    config.max_iterations = 10_000_000;
    config
}

/// Acceptance: a hanging objective under a 50 ms deadline returns
/// `CoreError::TimedOut` — promptly, instead of running for hours.
#[test]
fn hanging_objective_times_out_under_a_50ms_deadline() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(20),
    };
    let started = Instant::now();
    let err = fit_least_squares_with(
        &sleepy,
        &series,
        &patient_config(),
        &Control::with_deadline(Duration::from_millis(50)),
    )
    .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CoreError::TimedOut { what } if what == "fit_least_squares"),
        "expected a typed timeout, got {err}"
    );
    // Cooperative stop: within one iteration of the deadline. Very
    // generous bound so slow CI machines cannot flake it.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// A cancel token fired from another thread stops a running fit with a
/// typed `Cancelled` error.
#[test]
fn cancel_token_stops_a_running_fit_from_another_thread() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(5),
    };
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        })
    };
    let err = fit_least_squares_with(
        &sleepy,
        &series,
        &patient_config(),
        &Control::with_token(&token),
    )
    .unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(err, CoreError::Cancelled { .. }),
        "expected a typed cancellation, got {err}"
    );
}

/// Acceptance: a panicking family yields a degraded ranking with the
/// surviving rows — the panic is isolated, classified, and reported with
/// its own message at every thread count.
#[test]
fn panicking_family_degrades_the_ranking_instead_of_poisoning_it() {
    // Silence the default panic hook for the injected panic; failures in
    // this test still fail it (the hook only controls printing).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let series = Recession::R1990_93.payroll_index();
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &PanickyFamily];
    let outcomes: Vec<_> = [Parallelism::Serial, Parallelism::Fixed(2)]
        .into_iter()
        .map(|parallelism| {
            let config = FitConfig {
                parallelism,
                ..FitConfig::default()
            };
            let outcome = rank_models_supervised(
                &families,
                &series,
                &config,
                &ExecPolicy::default(),
                &Control::unbounded(),
            );
            (parallelism, outcome)
        })
        .collect();
    std::panic::set_hook(hook);
    for (parallelism, outcome) in outcomes {
        let ranking = outcome.unwrap();
        assert!(ranking.degraded, "{parallelism:?}");
        assert_eq!(ranking.rows.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.rows[0].family_name, "Quadratic");
        assert!(ranking.rows[0].sse.is_finite());
        assert_eq!(ranking.failures.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.failures[0].family_name, "Panicky");
        assert_eq!(ranking.failures[0].kind, FailureKind::Panicked);
        assert_eq!(
            ranking.failures[0].reason, "fit: injected panic in Panicky::predict_params_into",
            "{parallelism:?}: the reason must carry the panic message"
        );
    }
}

/// A per-family time budget converts one runaway family into a
/// `TimedOut` failure row while the healthy families rank normally.
#[test]
fn family_budget_times_out_the_slow_family_only() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(20),
    };
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &sleepy];
    let policy = ExecPolicy {
        family_budget: Some(Duration::from_millis(50)),
        ..ExecPolicy::default()
    };
    // Serial runs the jobs one after another; Fixed(2) pools both
    // families' starts.
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
        let config = FitConfig {
            parallelism,
            ..FitConfig::default()
        };
        let ranking =
            rank_models_supervised(&families, &series, &config, &policy, &Control::unbounded())
                .unwrap();
        assert!(ranking.degraded, "{parallelism:?}");
        assert_eq!(ranking.rows.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.rows[0].family_name, "Quadratic");
        assert_eq!(ranking.failures.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.failures[0].family_name, "Sleepy");
        assert_eq!(ranking.failures[0].kind, FailureKind::TimedOut);
    }
}
