//! `--seed 42` reproduces the repository's own inputs bit for bit; any
//! other seed, and every further draw, re-draws the stochastic inputs but
//! keeps every shape.

use resilience_core::bootstrap::BootstrapConfig;
use resilience_core::runtime::RetryPolicy;
use resilience_data::recessions::Recession;
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_data::PerformanceSeries;
use resilience_optim::Parallelism;
use resilience_perf::inputs::{self, DEFAULT_SEED};

const OTHER_SEED: u64 = 7;

fn bits(series: &PerformanceSeries) -> Vec<u64> {
    series.values().iter().map(|v| v.to_bits()).collect()
}

/// The CI grid exactly as the repository's fleet smoke defines it.
fn repo_ci_grid() -> ScenarioGrid {
    ScenarioGrid {
        scenarios: vec![
            GridScenario::Shape(ShapeKind::V),
            GridScenario::Shape(ShapeKind::W),
            GridScenario::StepOutage,
            GridScenario::PoissonOutages,
        ],
        noises: vec![NoiseLevel::Clean, NoiseLevel::Gaussian { sd: 0.001 }],
        lengths: vec![32, 48],
        seeds: vec![42, 43, 44, 45],
    }
}

/// The full grid exactly as the repository's fleet sweep defines it.
fn repo_full_grid() -> ScenarioGrid {
    ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
        ],
        lengths: vec![32, 48, 96],
        seeds: vec![42, 43, 44, 45],
    }
}

#[test]
fn default_seed_reproduces_the_recession_curves() {
    for r in Recession::ALL {
        let ours = inputs::recession(r, DEFAULT_SEED, 0);
        let theirs = r.payroll_index();
        assert_eq!(ours.name(), theirs.name());
        assert_eq!(bits(&ours), bits(&theirs), "{r}");
    }
}

#[test]
fn default_seed_reproduces_the_fleet_grids() {
    for (ours, theirs, cells) in [
        (inputs::ci_grid(DEFAULT_SEED, 0), repo_ci_grid(), 64),
        (inputs::full_grid(DEFAULT_SEED), repo_full_grid(), 360),
    ] {
        assert_eq!(ours, theirs);
        assert_eq!(ours.len(), cells);
        for (a, b) in inputs::generate(&ours)
            .iter()
            .zip(inputs::generate(&theirs).iter())
        {
            assert_eq!(a.name(), b.name());
            assert_eq!(bits(a), bits(b), "{}", a.name());
        }
    }
}

#[test]
fn default_seed_keeps_the_library_seeds() {
    let policy = inputs::chaos_policy();
    assert_eq!(policy.chaos.expect("chaos plan").seed, 0x0C4A_0511);
    assert_eq!(
        policy.retry.expect("retry policy").base_seed,
        RetryPolicy::default().base_seed
    );
    assert_eq!(
        inputs::bootstrap_config(DEFAULT_SEED, Parallelism::Serial).seed,
        BootstrapConfig::default().seed
    );
}

#[test]
fn another_seed_redraws_noise_but_keeps_lengths() {
    for r in Recession::ALL {
        let base = inputs::recession(r, DEFAULT_SEED, 0);
        let other = inputs::recession(r, OTHER_SEED, 0);
        assert_eq!(other.len(), base.len(), "{r}");
        assert_ne!(bits(&other), bits(&base), "{r}: noise not re-drawn");
    }
}

#[test]
fn other_seeds_and_draws_redraw_grid_cells_but_keep_their_shape() {
    let base_ci = inputs::ci_grid(DEFAULT_SEED, 0);
    for (base, other, cells) in [
        (base_ci.clone(), inputs::ci_grid(OTHER_SEED, 0), 64),
        (base_ci, inputs::ci_grid(DEFAULT_SEED, 1), 64),
        (
            inputs::full_grid(DEFAULT_SEED),
            inputs::full_grid(OTHER_SEED),
            360,
        ),
    ] {
        assert_eq!(other.len(), cells);
        let (base_cells, other_cells) = (inputs::generate(&base), inputs::generate(&other));
        let mut poisson_redrawn = false;
        for ((cell, a), b) in base.cells().zip(&base_cells).zip(&other_cells) {
            assert_eq!(a.len(), b.len(), "{}", a.name());
            let changed = bits(a) != bits(b);
            // Every noisy cell draws a fresh noise stream. A clean Poisson
            // cell may draw no outage under either seed, so only some of
            // them must differ.
            if cell.noise != "clean" {
                assert!(changed, "{}: noise not re-drawn", a.name());
            } else if cell.scenario == "poisson-outages" {
                poisson_redrawn |= changed;
            }
        }
        assert!(poisson_redrawn, "Poisson schedules not re-drawn");
    }
}

#[test]
fn further_draws_redraw_the_recession_noise() {
    for r in Recession::ALL {
        let first = inputs::recession(r, DEFAULT_SEED, 0);
        let second = inputs::recession(r, DEFAULT_SEED, 1);
        assert_eq!(second.len(), first.len(), "{r}");
        assert_ne!(bits(&second), bits(&first), "{r}: draw 1 repeats draw 0");
    }
    assert_eq!(
        inputs::recessions(OTHER_SEED).len(),
        Recession::ALL.len() * inputs::RECESSION_DRAWS as usize
    );
}

#[test]
fn another_seed_redraws_the_bootstrap_resamples() {
    assert_ne!(
        inputs::bootstrap_config(DEFAULT_SEED, Parallelism::Serial).seed,
        inputs::bootstrap_config(OTHER_SEED, Parallelism::Serial).seed
    );
}
