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

use resilience_bench::fleet::{run_fleet, run_triple, smoke_grid, FleetReport, FleetStore};
use resilience_bench::obs_smoke::ObsSmokeReport;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy};
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_optim::Parallelism;

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
