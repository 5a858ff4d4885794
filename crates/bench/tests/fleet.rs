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
use resilience_bench::fleet::{run_fleet, run_triple, smoke_grid, FleetReport, FleetStore};
use resilience_bench::obs_smoke::ObsSmokeReport;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{
    rank_fleet_supervised, rank_models_supervised, CellOutcome, Control, ExecPolicy,
};
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_data::PerformanceSeries;
use resilience_obs::{FitOutcome, RecordingObserver, SpanTree};
use resilience_optim::Parallelism;
use std::sync::Arc;

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

#[test]
fn chaos_span_tree_agrees_with_the_runtime_cell_by_cell() {
    // Under the CI chaos plan, the tree built from the log has one cell
    // per grid cell, one fit per family, and every fit and quarantine
    // mark agrees with the runtime's own outcome for that cell.
    let fams = families();
    let names: Vec<&str> = fams.iter().map(|f| f.name()).collect();
    let series: Vec<PerformanceSeries> = smoke_grid()
        .cells()
        .map(|c| c.generate().unwrap())
        .collect();
    let config = FitConfig {
        parallelism: Parallelism::Fixed(2),
        ..FitConfig::default()
    };
    let rec = Arc::new(RecordingObserver::new());
    let outcomes = rank_fleet_supervised(
        &fams,
        &series,
        &config,
        &chaos_policy(),
        &Control::unbounded().observe(rec.clone()),
    );
    let tree = SpanTree::build(&rec.take());
    assert_eq!(tree.cells.len(), 64);
    assert_eq!(outcomes.len(), 64);
    let (mut lost, mut failed, mut quarantined) = (0, 0, 0);
    for (i, (cell, outcome)) in tree.cells.iter().zip(&outcomes).enumerate() {
        assert_eq!(cell.cell as usize, i);
        let fitted: Vec<&str> = cell.fits.iter().map(|f| f.family).collect();
        assert_eq!(fitted, names, "cell {i}");
        let (rows, failures) = match outcome {
            CellOutcome::Ranked(r) => (r.rows.iter().map(|r| r.family_name).collect(), &r.failures),
            CellOutcome::Quarantined { failures } => (Vec::new(), failures),
            CellOutcome::Stopped(e) => panic!("cell {i} stopped: {e}"),
        };
        for fit in &cell.fits {
            let failure = failures.iter().find(|f| f.family_name == fit.family);
            match fit.outcome {
                FitOutcome::Completed { .. } => {
                    assert!(rows.contains(&fit.family), "cell {i}: {}", fit.family);
                }
                FitOutcome::Failed(code) => {
                    failed += 1;
                    assert_eq!(failure.map(|f| f.kind.code()), Some(code), "cell {i}");
                }
                // Observer loss: the job ran, but its telemetry did not.
                FitOutcome::Lost => {
                    lost += 1;
                    assert!(
                        rows.contains(&fit.family) || failure.is_some(),
                        "cell {i}: {}",
                        fit.family
                    );
                }
            }
        }
        let parked = matches!(outcome, CellOutcome::Quarantined { .. });
        assert_eq!(cell.quarantined.is_some(), parked, "cell {i}");
        quarantined += u32::from(parked);
    }
    // The plan exercised every shape the check covers.
    assert!(
        lost > 0 && failed > 0 && quarantined > 0,
        "{lost} {failed} {quarantined}"
    );
}
