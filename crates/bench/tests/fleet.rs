//! Fleet repeatability contract, end to end (DESIGN.md §13): the same
//! grid must produce byte-identical results stores across reruns and
//! across worker counts, one triple of runs must satisfy every gate set
//! that checks it, and each fleet cell must agree bit for bit with a
//! standalone per-series ranking.
//!
//! The grids here are deliberately tiny — the contract is about identity,
//! not scale, and these run in debug builds under `cargo test`. The
//! 64-cell CI grid runs in release via `scripts/verify.sh`
//! (`bench --smoke`).

use resilience_bench::chaos::chaos_policy;
use resilience_bench::fleet::{
    run_fleet, run_triple, smoke_grid, FleetReport, FleetRun, FleetStore,
};
use resilience_bench::obs_smoke::ObsSmokeReport;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::chaos::ChaosPlan;
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{
    rank_models_supervised, BreakerPolicy, CellOutcome, Control, ExecPolicy, RetryPolicy,
};
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_obs::{AttemptSpan, CounterId, Event, FitOutcome, SolverKind, SpanTree};
use resilience_optim::Parallelism;
use resilience_stats::XorShift64;

fn tiny_grid() -> ScenarioGrid {
    ScenarioGrid {
        scenarios: vec![
            GridScenario::Shape(ShapeKind::V),
            GridScenario::PoissonOutages,
        ],
        noises: vec![NoiseLevel::Gaussian { sd: 0.001 }],
        lengths: vec![32],
        seeds: vec![42, 43],
    }
}

fn families() -> Vec<&'static dyn ModelFamily> {
    vec![&QuadraticFamily, &CompetingRisksFamily]
}

#[test]
fn one_triple_feeds_the_fleet_and_obs_gate_sets() {
    let runs = run_triple(&tiny_grid(), &families(), &ExecPolicy::default());
    let [serial, rerun, fixed2] = &runs;
    assert_eq!(serial.store.columns_json(), rerun.store.columns_json());
    assert_eq!(serial.store.digest(), fixed2.store.digest());
    assert_eq!(serial.report.to_json(), fixed2.report.to_json());
    let fleet = FleetReport::check(&families(), &runs);
    assert!(fleet.gates_pass(), "{}", fleet.summary());
    assert_eq!(fleet.max_delta.sse_rerun, 0.0);
    assert_eq!(fleet.max_delta.r2_rerun, 0.0);
    assert_eq!(fleet.max_delta.sse_parallel, 0.0);
    assert_eq!(fleet.max_delta.r2_parallel, 0.0);
    let (obs, artifacts) = ObsSmokeReport::check(&families(), &runs);
    assert!(obs.gates_pass(), "{}", obs.summary());
    assert_eq!(artifacts.serial_jsonl, serial.events_jsonl());
}

#[test]
fn fleet_cells_match_standalone_supervised_ranking() {
    // The flattened series × family fan-out must not change any answer:
    // every cell's winner and SSE bits equal a standalone
    // rank_models_supervised call on the same generated series.
    let grid = tiny_grid();
    let fams = families();
    let fleet = run_fleet(&grid, &fams, Parallelism::Fixed(2), &ExecPolicy::default());
    for cell in grid.cells() {
        let series = cell.generate().unwrap();
        let standalone = rank_models_supervised(
            &fams,
            &series,
            &FitConfig::default(),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .unwrap();
        let top = &standalone.rows[0];
        let i = cell.index;
        assert_eq!(fleet.store.winner[i], top.family_name, "cell {i}");
        assert_eq!(fleet.store.sse_bits[i], top.sse.to_bits(), "cell {i}");
        assert_eq!(fleet.store.r2_bits[i], top.r2_adj.to_bits(), "cell {i}");
        assert_eq!(fleet.store.ranked[i] as usize, standalone.rows.len());
    }
}

#[test]
fn smoke_grid_meets_the_ci_floor() {
    let grid = smoke_grid();
    assert!(grid.len() >= 64, "CI grid must cover at least 64 cells");
    // Every cell decodes and generates (the release-mode gate fits them
    // all; here we only prove the grid is well-formed in debug time).
    let names: std::collections::BTreeSet<String> = grid.cells().map(|c| c.series_name()).collect();
    assert_eq!(names.len(), grid.len(), "cell names must be unique");
    for cell in grid.cells() {
        let series = cell.generate().unwrap();
        assert_eq!(series.len(), cell.n);
    }
}

#[test]
fn store_columns_stay_aligned() {
    let grid = tiny_grid();
    let store: FleetStore = run_fleet(
        &grid,
        &families(),
        Parallelism::Serial,
        &ExecPolicy::default(),
    )
    .store;
    assert_eq!(store.len(), grid.len());
    for col_len in [
        store.scenario.len(),
        store.noise.len(),
        store.n.len(),
        store.seed.len(),
        store.winner.len(),
        store.sse_bits.len(),
        store.r2_bits.len(),
        store.ranked.len(),
        store.failed.len(),
    ] {
        assert_eq!(col_len, store.len());
    }
}

/// Fit shapes [`check_tree_against_runtime`] met, so a caller can
/// require that a plan exercised them.
#[derive(Debug, Default)]
struct Shapes {
    lost: u32,
    failed: u32,
    quarantined: u32,
}

/// The one evaluation an attempt spends outside its solver runs, if it
/// has one: the rescoring of an exact fit (its `fit_started` announced no
/// starts, and no stop cut it short) or of a profiled winner lifted back
/// to every coordinate, which the Levenberg–Marquardt polish always
/// follows (DESIGN.md §11): a fit whose design at its `times` is profiled.
fn rescorings(family: &dyn ModelFamily, times: &[f64], attempt: &AttemptSpan) -> u64 {
    let exact = attempt.starts == Some(0) && attempt.stopped.is_none();
    let lifted = family.design(times).is_some_and(|design| design.profiled())
        && attempt
            .solvers
            .iter()
            .any(|s| s.solver == Some(SolverKind::LevenbergMarquardt));
    u64::from(exact || lifted)
}

/// Checks the span tree built from `run`'s log against the runtime's own
/// outcome for every cell: one tree cell per grid cell, one fit per
/// family, no cell stopped, every fit's terminal state and every
/// quarantine mark as the `CellOutcome` says. Every attempt's evaluations
/// must also equal the sum of its solver spans' plus its [`rescorings`]:
/// a solver that a stop cut short is charged from its stop line.
fn check_tree_against_runtime(
    run: &FleetRun,
    grid: &ScenarioGrid,
    families: &[&dyn ModelFamily],
    context: &str,
) -> Shapes {
    let tree = SpanTree::build(&run.events);
    assert_eq!(tree.cells.len(), run.outcomes.len(), "{context}");
    let names: Vec<&str> = families.iter().map(|f| f.name()).collect();
    let mut shapes = Shapes::default();
    for (i, ((cell, outcome), spec)) in tree
        .cells
        .iter()
        .zip(&run.outcomes)
        .zip(grid.cells())
        .enumerate()
    {
        assert_eq!(cell.cell as usize, i, "{context}");
        let series = spec.generate().expect("grid cells generate");
        let fitted: Vec<&str> = cell.fits.iter().map(|f| f.family).collect();
        assert_eq!(fitted, names, "{context}: cell {i}");
        let (rows, failures) = match outcome {
            CellOutcome::Ranked(r) => (r.rows.iter().map(|r| r.family_name).collect(), &r.failures),
            CellOutcome::Quarantined { failures } => (Vec::new(), failures),
            CellOutcome::Stopped(e) => panic!("{context}: cell {i} stopped: {e}"),
        };
        for (fit, family) in cell.fits.iter().zip(families) {
            let failure = failures.iter().find(|f| f.family_name == fit.family);
            match fit.outcome {
                FitOutcome::Completed { .. } => {
                    assert!(
                        rows.contains(&fit.family),
                        "{context}: cell {i}: {}",
                        fit.family
                    );
                }
                FitOutcome::Failed(code) => {
                    shapes.failed += 1;
                    assert_eq!(
                        failure.map(|f| f.kind.code()),
                        Some(code),
                        "{context}: cell {i}"
                    );
                }
                // Observer loss: the job ran, but its telemetry did not.
                FitOutcome::Lost => {
                    shapes.lost += 1;
                    assert!(
                        rows.contains(&fit.family) || failure.is_some(),
                        "{context}: cell {i}: {}",
                        fit.family
                    );
                }
            }
            for attempt in &fit.attempts {
                let solver_evals: u64 = attempt.solvers.iter().map(|s| s.evaluations).sum();
                assert_eq!(
                    attempt.evaluations,
                    solver_evals + rescorings(*family, series.times(), attempt),
                    "{context}: cell {i} {} attempt {}",
                    fit.family,
                    attempt.attempt
                );
            }
        }
        let parked = matches!(outcome, CellOutcome::Quarantined { .. });
        assert_eq!(cell.quarantined.is_some(), parked, "{context}: cell {i}");
        shapes.quarantined += u32::from(parked);
    }
    shapes
}

#[test]
fn chaos_span_tree_agrees_with_the_runtime_cell_by_cell() {
    // Under the CI chaos plan, the tree built from the log agrees with
    // the runtime's own outcome for every one of the 64 cells.
    let fams = families();
    let grid = smoke_grid();
    let run = run_fleet(&grid, &fams, Parallelism::Fixed(2), &chaos_policy());
    assert_eq!(run.outcomes.len(), 64);
    let shapes = check_tree_against_runtime(&run, &grid, &fams, "CI chaos plan");
    // The plan exercised every shape the check covers.
    assert!(
        shapes.lost > 0 && shapes.failed > 0 && shapes.quarantined > 0,
        "{shapes:?}"
    );
}

/// A per-mille rate drawn uniformly from 0–200.
fn per_mille(rng: &mut XorShift64) -> u16 {
    rng.next_index(201) as u16
}

#[test]
fn random_chaos_plans_keep_the_supervisor_contract() {
    // Seeded draws of the chaos plan, the breaker, the retry schedule
    // and the worker count, on a 16-cell subset of the CI grid. The
    // invariants are checked directly: the CI gate set pins the fixed
    // plan's retry ceiling and requires that plan to fire.
    let grid = ScenarioGrid {
        lengths: vec![32],
        seeds: vec![42, 43],
        ..smoke_grid()
    };
    let fams = families();
    let jobs = (grid.len() * fams.len()) as u64;
    assert_eq!(grid.len(), 16);
    let mut rng = XorShift64::new(0xC4A0_5EED);
    let mut seen = Shapes::default();
    for draw in 0..8 {
        let plan = ChaosPlan {
            seed: rng.next_u64(),
            panic_per_mille: per_mille(&mut rng),
            deadline_per_mille: per_mille(&mut rng),
            exhaustion_per_mille: per_mille(&mut rng),
            observer_loss_per_mille: per_mille(&mut rng),
            transient_per_mille: per_mille(&mut rng),
        };
        let max_attempts = 1 + rng.next_index(3);
        let policy = ExecPolicy {
            family_budget: None,
            retry: Some(RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            }),
            breaker: Some(BreakerPolicy {
                threshold: 1 + rng.next_index(4) as u32,
                cooldown: 1 + rng.next_index(4) as u32,
                wave: 1 + rng.next_index(16),
            }),
            chaos: Some(plan),
        };
        let workers = 2 + rng.next_index(3);
        let context = format!("draw {draw} (Fixed({workers}), {policy:?})");

        let serial = run_fleet(&grid, &fams, Parallelism::Serial, &policy);
        let parallel = run_fleet(&grid, &fams, Parallelism::Fixed(workers), &policy);
        assert!(!parallel.aborted(), "{context}");
        assert_eq!(
            serial.store.columns_json(),
            parallel.store.columns_json(),
            "{context}"
        );
        assert!(
            serial.events_jsonl() == parallel.events_jsonl(),
            "{context}: the serial and parallel logs differ"
        );

        let injected = serial
            .events
            .iter()
            .filter(|e| matches!(e, Event::ChaosInjected { .. }))
            .count() as u64;
        assert_eq!(
            serial.report.counter(CounterId::ChaosInjected),
            injected,
            "{context}"
        );
        let retries = serial.report.counter(CounterId::Retries);
        assert!(
            retries <= (max_attempts as u64 - 1) * jobs,
            "{context}: {retries} retries"
        );
        let shapes = check_tree_against_runtime(&serial, &grid, &fams, &context);
        seen.lost += shapes.lost;
        seen.failed += shapes.failed;
        seen.quarantined += shapes.quarantined;
    }
    // Together the draws exercised every shape the check covers.
    assert!(
        seen.lost > 0 && seen.failed > 0 && seen.quarantined > 0,
        "{seen:?}"
    );
}
