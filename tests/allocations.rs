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
use resilience_core::bootstrap::{bootstrap_band, BootstrapConfig};
use resilience_core::extended::{CrashRecoveryFamily, DoubleBathtubFamily};
use resilience_core::fit::{
    fit_least_squares, fit_least_squares_with, solve_linear_coefficient, FitConfig,
};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::{Design, ModelFamily};
use resilience_core::runtime::{fit_with_retry, rank_fleet_supervised, ExecPolicy, RetryPolicy};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
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
/// for the profiled objective of the families that profile their last
/// coefficient (the mixtures), at feasible and infeasible points.
#[test]
fn sse_objective_is_allocation_free() {
    let series = Recession::R1990_93.payroll_index();
    let times = series.times();
    let observed = series.values();
    let mixtures = MixtureFamily::paper_combinations();

    for family in all_families(&mixtures) {
        // Setup (allowed to allocate): a feasible internal point (the first
        // guess, or the optimum of a family that has no guess because it
        // never searches) and the scratch buffers.
        let guess = match family.initial_guesses(&series).into_iter().next() {
            Some(guess) => guess,
            None => {
                fit_least_squares(family, &series, &FitConfig::default())
                    .expect("fits")
                    .params
            }
        };
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

        let Some(design) = family.design(times).filter(|design| design.profiled()) else {
            continue;
        };
        // The profiled objective: the design's columns over reusable offset
        // and column buffers, then the closed form of the one coefficient.
        let n = times.len();
        let u = internal[..internal.len() - 1].to_vec();
        let buffers = RefCell::new((vec![0.0; n], vec![0.0; n]));
        let profiled = |x: &[f64], ys: &[f64]| -> f64 {
            let mut guard = buffers.borrow_mut();
            let (offset, column) = &mut *guard;
            if !design.linear_columns_into(x, offset, column) {
                return f64::INFINITY;
            }
            solve_linear_coefficient(ys, offset, column).map_or(f64::INFINITY, |(_, sse)| sse)
        };
        assert!(
            profiled(&u, observed).is_finite(),
            "{}: profiled objective",
            family.name()
        );
        // A NaN point is infeasible.
        let nan_u = vec![f64::NAN; u.len()];
        assert_eq!(
            profiled(&nan_u, observed),
            f64::INFINITY,
            "{}",
            family.name()
        );
        let points = [("feasible", u.clone()), ("infeasible", nan_u)];
        for (path, x) in &points {
            let mut acc = 0.0;
            let delta = min_delta(3, || {
                for _ in 0..100 {
                    acc += profiled(x, observed);
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

/// A Competing Risks profile evaluation allocates nothing: two profiles
/// that spend different numbers of evaluations, both ending with positive
/// coefficients (so both re-solve them by QR), allocate exactly as much,
/// their rescoring included. The design has served two fits before, so
/// this pins the path of a shared design's later fits: the fixed points
/// read from its node table, the Brent points through the fit's own decay
/// column. A design's first fit, which computes every point,
/// allocates as much (`competing_risks_node_table_is_built_once`).
#[test]
fn competing_risks_profile_evaluations_do_not_allocate() {
    let recession = Recession::R1990_93.payroll_index();
    let times = recession.times();
    let bathtub: Vec<f64> = times
        .iter()
        .map(|t| 0.8 / (1.0 + 0.3 * t) + 0.01 * t)
        .collect();
    let design = CompetingRisksFamily
        .design(times)
        .expect("Competing Risks has a design");
    for _ in 0..2 {
        assert!(design.optimum(&bathtub).expect("a profile").is_ok());
    }
    let profile = |ys: &[f64]| {
        let mut evaluations = 0;
        let delta = min_delta(3, || {
            let exact = design
                .optimum(ys)
                .expect("Competing Risks profiles")
                .expect("a finite profile");
            assert!(exact.internal.iter().all(|u| *u > -100.0), "{exact:?}");
            evaluations = exact.profile.expect("a profile's work").evaluations;
        });
        (evaluations, delta)
    };
    let (a, b) = (profile(recession.values()), profile(&bathtub));
    assert_ne!(a.0, b.0, "the two profiles must differ in work");
    assert_eq!(
        a.1, b.1,
        "evaluations {} and {} allocate differently",
        a.0, b.0
    );
}

/// Competing Risks' node table keeps the memory rule (DESIGN.md §13,
/// "Shared designs"): a fresh design's first fit allocates 4 times, as
/// before the design could hold a table (the fit's decay column, the QR
/// re-solve's columns, its point and the QR's coefficients); its second
/// fit builds the table once, one allocation more; every later fit
/// allocates as the first. So a design that serves one fit, as in every
/// one-cell ranking, holds no table.
#[test]
fn competing_risks_node_table_is_built_once() {
    let series = Recession::R1990_93.payroll_index();
    let fit = |design: &Arc<dyn Design + '_>| {
        let before = allocations();
        let exact = design
            .optimum(series.values())
            .expect("Competing Risks profiles")
            .expect("a finite profile");
        let delta = allocations() - before;
        assert_eq!(exact.profile.expect("a profile's work").evaluations, 46);
        delta
    };
    let design = || {
        CompetingRisksFamily
            .design(series.times())
            .expect("Competing Risks has a design")
    };
    // Warm-up on a design of its own, outside the measured fits.
    fit(&design());
    let design = design();
    let counts: [u64; 5] = std::array::from_fn(|_| fit(&design));
    assert_eq!(counts, [4, 5, 4, 4, 4], "a fresh design's fits #1–#5");
}

/// An exact fit through `fit_least_squares` allocates a fixed count,
/// counted when this test was written: 5 for the Quadratic and the
/// Quartic, and 8 for Competing Risks, whose profile makes 4 of them. Each
/// was one more (6, 6 and 9) while the race driver handed a lone search
/// with no start back in a vector of one.
#[test]
fn an_exact_fit_allocates_a_fixed_count() {
    let series = Recession::R1990_93.payroll_index();
    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let exact: [(&dyn ModelFamily, u64); 3] = [
        (&QuadraticFamily, 5),
        (&QuarticFamily, 5),
        (&CompetingRisksFamily, 8),
    ];
    for (family, count) in exact {
        let delta = min_delta(3, || {
            let fit = fit_least_squares(family, &series, &config).expect("the fit");
            assert!(fit.converged && fit.total_evaluations <= 50);
        });
        assert_eq!(
            delta,
            count,
            "{}: an exact fit allocated {delta} times",
            family.name()
        );
    }
}

/// An exact fit scores its point without allocating: the Quartic's optimum
/// and an interior Quadratic optimum each allocate once, for the point
/// itself (the solve's right-hand side, cut to its coefficients), and
/// nothing for the point's SSE under the fit's objective.
#[test]
fn scoring_an_exact_point_allocates_nothing() {
    let series = Recession::R1990_93.payroll_index();
    let times = series.times();
    // A bathtub (`s = 0.3`), whose least-squares optimum is interior.
    let bathtub: Vec<f64> = times
        .iter()
        .map(|t| 1.0 - 0.012 * t + 0.0004 * t * t)
        .collect();
    let exact: [(&dyn ModelFamily, &[f64]); 2] = [
        (&QuadraticFamily, &bathtub),
        (&QuarticFamily, series.values()),
    ];
    for (family, ys) in exact {
        let design = family.design(times).expect("an exact family");
        let delta = min_delta(3, || {
            let exact = design
                .optimum(ys)
                .expect("a solve")
                .expect("a finite point");
            assert!(
                exact.sse.is_finite() && exact.profile.is_none(),
                "{exact:?}"
            );
        });
        assert_eq!(
            delta,
            1,
            "{}: an exact point allocated {delta} times",
            family.name()
        );
    }
}

/// A serial 200-replicate Quadratic band on 1990-93 allocates 766 times
/// (counted when this test was written; 1 169 before an exact point was
/// scored without allocating, 2 528 before the replicates shared one
/// factored design and one buffer of predictions): ~3.8 per replicate, the
/// base fit and the band's buffers included. The bound is 1.5× that count,
/// so replicates that build a series, a fit, a prediction vector or a
/// scoring buffer each again fail it.
#[test]
fn serial_quadratic_band_allocations_are_bounded() {
    let series = Recession::R1990_93.payroll_index();
    let fit_config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let band_config = BootstrapConfig {
        parallelism: Parallelism::Serial,
        ..BootstrapConfig::default()
    };
    let delta = min_delta(3, || {
        let band =
            bootstrap_band(&QuadraticFamily, &series, &fit_config, &band_config).expect("the band");
        assert_eq!(band.replicates, 200);
    });
    assert!(delta <= 1_150, "a serial band allocated {delta} times");
}

/// A serial `rank_fleet_supervised` pass of the Quadratic, Competing Risks
/// and the Quartic over the 360-cell grid of `BENCH_fleet_full.json`
/// allocates 7 065 times (counted when this test was written, with three
/// Competing Risks node tables; 8 142 while each of its 1 080 exact fits
/// handed its search back in a vector): ~6.5 per job, the shared designs,
/// rows and the reduction included. The bound is 1.5× that count, so a
/// job path that grows by some 3.3 allocations per job fails it. Smaller
/// steps pass it and are pinned exactly elsewhere: the driver's vector
/// (+1 per job) by `an_exact_fit_allocates_a_fixed_count`, a design built
/// per job (+2.1 per job: 9 339 when a wave shares none) by the design
/// counts of `tests/runtime_resilience.rs`, and the node table's one build
/// by `competing_risks_node_table_is_built_once`.
#[test]
fn serial_scenario_fleet_allocations_are_bounded() {
    let grid = ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
        ],
        lengths: vec![32, 48, 96],
        seeds: vec![42, 43, 44, 45],
    };
    let cells: Vec<_> = grid
        .cells()
        .map(|cell| cell.generate().expect("grid cell generates"))
        .collect();
    let families: [&dyn ModelFamily; 3] = [&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let delta = min_delta(3, || {
        let outcomes = rank_fleet_supervised(
            &families,
            &cells,
            &config,
            &ExecPolicy::default(),
            &Control::unbounded(),
        );
        assert_eq!(outcomes.len(), 360);
    });
    assert!(
        delta <= 10_600,
        "a serial 360-cell pass allocated {delta} times"
    );
}

/// The Nelder–Mead iteration loop allocates nothing, also in a run that
/// pauses at the race's cut and resumes (DESIGN.md §11, "Racing the
/// starts"): a fit capped at 5× the iterations allocates exactly as much
/// as one capped at 1× (all allocation is setup, none is per-iteration).
#[test]
fn nelder_mead_iterations_do_not_allocate() {
    let series = Recession::R1990_93.payroll_index();
    // Wei-Wei's ten starts race. A first leg of 50 evaluations takes at
    // most 46 iterations, so at both caps every start reaches the same
    // cut, and the four survivors pause, resume and stop at the cap: the
    // winner is unconverged at both.
    let family = &MixtureFamily::paper_combinations()[3];

    let count_fit = |max_iterations: usize| -> u64 {
        let mut config = FitConfig {
            lm_polish: false,
            parallelism: Parallelism::Serial,
            ..FitConfig::default()
        };
        config.max_iterations = max_iterations;
        min_delta(5, || {
            let fit = fit_least_squares(family, &series, &config).unwrap();
            assert!(fit.sse.is_finite());
            assert!(!fit.converged, "cap {max_iterations} does not bind");
        })
    };

    // Warm-up to populate any lazily initialized state.
    count_fit(60);
    let short = count_fit(60);
    let long = count_fit(300);
    assert_eq!(
        short, long,
        "5x the Nelder-Mead iterations changed the allocation count \
         ({short} vs {long}) - the iteration loop allocates"
    );
}

/// A retried fit allocates only at setup: capped at 3× the iterations, it
/// allocates exactly as much as capped at 1×. At both caps attempt 1 does
/// not converge, and neither does attempt 2, which races the incumbent, as
/// its start 0, and the incumbent's jittered copies (DESIGN.md §11). Both
/// caps let every first leg reach the cut.
#[test]
fn retried_fit_path_does_not_allocate_per_iteration() {
    let series = Recession::R1990_93.payroll_index();
    let family = &MixtureFamily::paper_combinations()[3];
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };

    let count_fit = |max_iterations: usize| -> u64 {
        let mut config = FitConfig {
            lm_polish: false,
            parallelism: Parallelism::Serial,
            ..FitConfig::default()
        };
        config.max_iterations = max_iterations;
        min_delta(5, || {
            let sup =
                fit_with_retry(family, &series, &config, &policy, &Control::unbounded()).unwrap();
            assert!(sup.fit.sse.is_finite());
            assert_eq!(sup.attempts, 2);
            assert!(!sup.fit.converged, "cap {max_iterations} does not bind");
        })
    };

    // Warm-up to populate any lazily initialized state.
    count_fit(60);
    let short = count_fit(60);
    let long = count_fit(180);
    assert_eq!(
        short, long,
        "3x the iterations changed the retried fit's allocation \
         count ({short} vs {long}) - the retried path allocates per iteration"
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
    // Wei-Wei: the winning start is unconverged at this cap, so the fit
    // stops at it and the per-iteration path dominates.
    let family = &MixtureFamily::paper_combinations()[3];
    let mut config = FitConfig {
        lm_polish: false,
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    config.max_iterations = 100;

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

/// The separable screen (DESIGN.md §11) holds its nodes' columns in
/// fixed blocks on the stack: a screen allocates its guess and nothing
/// else, for every paper mixture.
#[test]
fn the_screen_allocates_only_its_guess() {
    let series = Recession::R1990_93.payroll_index();
    for family in MixtureFamily::paper_combinations() {
        let delta = min_delta(3, || {
            let guess = family.screen_guess(&series).expect("a screened node");
            assert_eq!(guess.len(), family.n_params());
        });
        assert_eq!(
            delta,
            1,
            "{}'s screen allocated {delta} times",
            family.name()
        );
    }
}

/// A serial 1990-93 Wei-Wei fit, its ten raced starts (DESIGN.md §11,
/// "Racing the starts") with the lift and the polish, allocated 195 times
/// when its bound was set at about 1.5× that count: a start that allocates
/// per leg beyond its objective and its buffers, or a race that holds
/// more than it keeps, fails it.
#[test]
fn serial_wei_wei_fit_allocations_are_bounded() {
    let series = Recession::R1990_93.payroll_index();
    let family = &MixtureFamily::paper_combinations()[3];
    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let delta = min_delta(3, || {
        let fit = fit_least_squares(family, &series, &config).expect("the fit");
        assert!(fit.converged);
    });
    assert!(delta <= 290, "a serial Wei-Wei fit allocated {delta} times");
}
