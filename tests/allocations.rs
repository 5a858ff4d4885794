//! Allocation-regression tests for the fitting hot path and the log reader.
//!
//! The SSE objective contract (DESIGN.md §Performance & determinism):
//! after setup, one objective evaluation — `internal_to_params_into` +
//! `predict_params_into` over reusable scratch — performs **zero** heap
//! allocations, and the Nelder–Mead iteration loop allocates nothing
//! beyond its setup buffers. A counting global allocator makes both
//! contracts a hard test instead of a code-review convention.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::extended::{CrashRecoveryFamily, DoubleBathtubFamily};
use resilience_core::fit::{
    fit_least_squares, fit_least_squares_with, solve_linear_coefficients, FitConfig,
};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{fit_with_retry, RetryPolicy};
use resilience_data::recessions::Recession;
use resilience_obs::{
    parse_log, Event, ExitReason, JsonlObserver, NullObserver, Observer, SolverKind,
};
use resilience_optim::{Control, Parallelism};
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    // Per thread, because cargo runs tests on parallel threads: a shared
    // counter would also count other tests' allocations. Every measured
    // window runs on its test's own thread (`Parallelism::Serial`).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is tearing down its locals,
    // when no test is measuring any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-
// initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Minimum allocation delta over `reps` runs of `f`, so that one-time lazy
/// initialisation inside the first run does not count as `f`'s footprint.
fn min_delta(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps)
        .map(|_| {
            let before = allocations();
            f();
            allocations() - before
        })
        .min()
        .expect("reps > 0")
}

/// Every family the pipeline fits, paper and extended.
fn all_families(mixtures: &[MixtureFamily]) -> Vec<&dyn ModelFamily> {
    let mut families: Vec<&dyn ModelFamily> = vec![
        &QuadraticFamily,
        &CompetingRisksFamily,
        &QuarticFamily,
        &DoubleBathtubFamily,
        &CrashRecoveryFamily,
    ];
    for fam in mixtures {
        families.push(fam);
    }
    families
}

/// One SSE-objective evaluation allocates nothing, for every family: the
/// exact scratch-buffer pattern `fit_least_squares` uses. The same holds
/// for the profiled objective of the families with linear coefficients,
/// one column (the mixtures) or several (the bathtub families), at
/// feasible and infeasible points and, for Competing Risks' two columns,
/// on a face of its sign bounds.
#[test]
fn sse_objective_is_allocation_free() {
    let series = Recession::R1990_93.payroll_index();
    let times = series.times();
    let observed = series.values();
    let mixtures = MixtureFamily::paper_combinations();

    for family in all_families(&mixtures) {
        // Setup (allowed to allocate): a feasible internal point and the
        // scratch buffers.
        let guess = family.initial_guesses(&series).remove(0);
        let internal = family
            .params_to_internal(&guess)
            .expect("first guess is feasible");
        let scratch = RefCell::new((vec![0.0; family.n_params()], vec![0.0; times.len()]));
        let objective = |x: &[f64]| -> f64 {
            let mut guard = scratch.borrow_mut();
            let (params, predicted) = &mut *guard;
            family.internal_to_params_into(x, params);
            if !family.predict_params_into(params, times, predicted) {
                return f64::INFINITY;
            }
            observed
                .iter()
                .zip(predicted.iter())
                .map(|(y, p)| (y - p) * (y - p))
                .sum()
        };
        // Warm-up call outside the measured window.
        let warm = objective(&internal);
        assert!(
            warm.is_finite(),
            "{}: objective at a feasible point",
            family.name()
        );

        let mut acc = 0.0;
        let delta = min_delta(3, || {
            for _ in 0..100 {
                acc += objective(&internal);
            }
        });
        assert!(acc.is_finite());
        assert_eq!(
            delta,
            0,
            "{}: SSE objective allocated {delta} times over 100 calls",
            family.name(),
        );

        // The infeasible path must be allocation-free too (it runs
        // constantly while the simplex probes outside the feasible set).
        let bad = vec![f64::NAN; internal.len()];
        let mut bad_params = vec![0.0; family.n_params()];
        let mut bad_pred = vec![0.0; times.len()];
        family.internal_to_params_into(&bad, &mut bad_params);
        let delta = min_delta(3, || {
            for _ in 0..100 {
                assert!(!family.predict_params_into(&bad_params, times, &mut bad_pred));
            }
        });
        assert_eq!(
            delta,
            0,
            "{}: infeasible probe allocated {delta} times over 100 calls",
            family.name(),
        );

        let signs = family.linear_coefficients();
        if signs.is_empty() {
            continue;
        }
        // The profiled objective of a family with linear coefficients: the
        // design hook over reusable offset and column buffers, then the
        // closed form (one column) or the QR solve (k columns).
        let ln_times: Vec<f64> = times.iter().map(|t| t.ln()).collect();
        let (n, k) = (times.len(), signs.len());
        let u = family.nonlinear_coordinates(&internal);
        let buffers = RefCell::new((vec![0.0; n], vec![0.0; n * k]));
        let profiled = |x: &[f64], ys: &[f64]| -> f64 {
            let mut guard = buffers.borrow_mut();
            let (offset, columns) = &mut *guard;
            if !family.linear_design_into(x, times, &ln_times, offset, columns) {
                return f64::INFINITY;
            }
            solve_linear_coefficients(ys, offset, columns, signs).unwrap_or(f64::INFINITY)
        };
        assert!(
            profiled(&u, observed).is_finite(),
            "{}: profiled objective",
            family.name()
        );
        // A NaN point, or for a family with no nonlinear coordinate a point
        // of the wrong length, is infeasible.
        let nan_u = vec![f64::NAN; u.len().max(1)];
        assert_eq!(
            profiled(&nan_u, observed),
            f64::INFINITY,
            "{}",
            family.name()
        );
        let mut points = vec![
            ("feasible", u.clone(), observed.to_vec()),
            ("infeasible", nan_u, observed.to_vec()),
        ];
        if k == 2 {
            // A point on a face of the sign bounds: under a slow decay the
            // two-column optimum of a falling line has γ < 0, which maps
            // to +∞.
            let falling: Vec<f64> = times.iter().map(|t| 1.0 - 0.002 * t).collect();
            let face = vec![-8.0];
            assert_eq!(
                profiled(&face, &falling),
                f64::INFINITY,
                "{}",
                family.name()
            );
            points.push(("face", face, falling));
        }
        for (path, x, ys) in &points {
            let mut acc = 0.0;
            let delta = min_delta(3, || {
                for _ in 0..100 {
                    acc += profiled(x, ys);
                }
            });
            assert_eq!(
                delta,
                0,
                "{}: {path} profiled objective allocated {delta} times over 100 calls",
                family.name(),
            );
        }
    }
}

/// `predict_into` allocates nothing for a built model.
#[test]
fn predict_into_is_allocation_free() {
    let series = Recession::R1990_93.payroll_index();
    let times = series.times();
    let fit = fit_least_squares(&QuadraticFamily, &series, &FitConfig::default()).unwrap();
    let mut out = vec![0.0; times.len()];
    fit.model.predict_into(times, &mut out);

    let delta = min_delta(3, || {
        for _ in 0..100 {
            fit.model.predict_into(times, &mut out);
        }
    });
    assert_eq!(
        delta, 0,
        "predict_into allocated {delta} times over 100 calls"
    );
}

/// The Nelder–Mead iteration loop allocates nothing: a fit capped at 5×
/// the iterations allocates exactly as much as one capped at 1× (all
/// allocation is setup, none is per-iteration).
#[test]
fn nelder_mead_iterations_do_not_allocate() {
    let series = Recession::R1990_93.payroll_index();
    // One-start Wei-Exp: unconverged at both caps (it converges after
    // ~150 iterations), so both runs stop at their caps.
    let family = &MixtureFamily::paper_combinations()[1];

    let count_fit = |max_iterations: usize| -> u64 {
        let mut config = FitConfig {
            lm_polish: false,
            parallelism: Parallelism::Serial,
            max_starts: 1,
            ..FitConfig::default()
        };
        config.nelder_mead.max_iterations = max_iterations;
        min_delta(5, || {
            let fit = fit_least_squares(family, &series, &config).unwrap();
            assert!(fit.sse.is_finite());
            assert!(!fit.converged, "cap {max_iterations} does not bind");
        })
    };

    // Warm-up to populate any lazily initialized state.
    count_fit(20);
    let short = count_fit(20);
    let long = count_fit(100);
    assert_eq!(
        short, long,
        "5x the Nelder-Mead iterations changed the allocation count \
         ({short} vs {long}) - the iteration loop allocates"
    );
}

/// The warm probe (DESIGN.md §11) allocates only at setup: a retried fit
/// capped at 3× the iterations allocates exactly as much as one capped
/// at 1×. At both caps neither attempt 1 nor attempt 2's probe from its
/// optimum converges, so both runs take the probe and then the one cold
/// start (at 80 the probe would short-circuit).
#[test]
fn warm_start_fit_path_does_not_allocate_per_iteration() {
    let series = Recession::R1990_93.payroll_index();
    let family = &MixtureFamily::paper_combinations()[1];
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };

    let count_fit = |max_iterations: usize| -> u64 {
        let mut config = FitConfig {
            lm_polish: false,
            parallelism: Parallelism::Serial,
            max_starts: 1,
            ..FitConfig::default()
        };
        config.nelder_mead.max_iterations = max_iterations;
        min_delta(5, || {
            let sup =
                fit_with_retry(family, &series, &config, &policy, &Control::unbounded()).unwrap();
            assert!(sup.fit.sse.is_finite());
            assert_eq!(sup.attempts, 2);
            assert!(!sup.fit.converged, "cap {max_iterations} does not bind");
        })
    };

    // Warm-up to populate any lazily initialized state.
    count_fit(20);
    let short = count_fit(20);
    let long = count_fit(60);
    assert_eq!(
        short, long,
        "3x the iterations changed the retried fit's allocation \
         count ({short} vs {long}) - the warm path allocates per iteration"
    );
}

/// The JSONL sink's encode path reuses one line buffer under its lock
/// (DESIGN.md §15): once that buffer has grown to cover the longest
/// event shape, recording any event performs zero heap allocations —
/// the float formatter writes into stack scratch and the interned
/// family names are `&'static str`. Exercised over every event shape
/// in the vocabulary via [`Event::examples`].
#[test]
fn jsonl_encode_is_allocation_free_in_steady_state() {
    let observer = JsonlObserver::new(std::io::sink());
    let examples = Event::examples();
    // Warm-up (allowed to allocate): every shape once, growing the
    // reused line buffer to its steady-state capacity.
    for event in &examples {
        observer.record(event);
    }

    let delta = min_delta(3, || {
        for _ in 0..10 {
            for event in &examples {
                observer.record(event);
            }
        }
    });
    assert_eq!(
        delta, 0,
        "JSONL encode allocated {delta} times over 10 passes of the \
         full event vocabulary"
    );
    let (_, dropped) = observer.into_parts();
    assert_eq!(dropped, 0, "sink writes never fail");
}

/// Attaching the default telemetry sink must not cost the hot path
/// anything: `Control::observe` drops disabled sinks at attach time, so a
/// `NullObserver`-observed fit takes the same code path — and the exact
/// same allocation count — as an unobserved one (DESIGN.md §10).
#[test]
fn null_observer_keeps_the_fit_allocation_footprint() {
    let series = Recession::R1990_93.payroll_index();
    // One-start Wei-Exp: unconverged at this cap, so the run stops at it
    // and the per-iteration path dominates.
    let family = &MixtureFamily::paper_combinations()[1];
    let mut config = FitConfig {
        lm_polish: false,
        parallelism: Parallelism::Serial,
        max_starts: 1,
        ..FitConfig::default()
    };
    config.nelder_mead.max_iterations = 100;

    let count_fit = |control: &Control| -> u64 {
        min_delta(5, || {
            let fit = fit_least_squares_with(family, &series, &config, control).unwrap();
            assert!(fit.sse.is_finite());
            assert!(!fit.converged, "the cap does not bind");
        })
    };

    let unobserved = Control::unbounded();
    let null_observed = Control::unbounded().observe(Arc::new(NullObserver));
    // Warm-up to populate any lazily initialized state.
    count_fit(&unobserved);
    let plain = count_fit(&unobserved);
    let nulled = count_fit(&null_observed);
    assert_eq!(
        plain, nulled,
        "a NullObserver-observed fit allocated differently ({nulled}) \
         from an unobserved one ({plain})"
    );
}

/// The log reader borrows every key and string value from the input and
/// reuses one field buffer for the whole log (DESIGN.md §15, "Reading
/// logs"): 100 000 `converged` lines, each with two string tags and a
/// float, cost only the ~17 doublings of the returned `Vec<Event>`, not
/// an allocation per line.
#[test]
fn parse_log_allocates_per_log_not_per_line() {
    const LINES: u64 = 100_000;
    let mut text = String::new();
    for i in 0..LINES {
        Event::Converged {
            solver: SolverKind::NelderMead,
            iterations: i + 1,
            evaluations: 2 * i + 6,
            value: 1.0 / (i as f64 + 3.0),
            reason: ExitReason::Converged,
        }
        .write_json(&mut text);
        text.push('\n');
    }

    let before = allocations();
    let events = parse_log(&text).expect("encoder output parses");
    let delta = allocations() - before;
    assert_eq!(events.len() as u64, LINES);
    assert!(
        delta < 64,
        "parsing {LINES} converged lines allocated {delta} times"
    );
}
