//! Seeded workload inputs.
//!
//! Every stochastic input the workloads feed the library — observation
//! noise streams, Poisson outage schedules and bootstrap resamples — is
//! keyed by a base seed baked into the library or the benchmark. [`derive`]
//! maps each base seed through the benchmark's `--seed` and a draw index:
//! draw 0 under the default seed leaves it untouched, so `--seed 42`
//! reproduces the repository's own inputs bit for bit, and any other seed
//! re-draws all of them. Shapes, lengths, rates and cell counts never
//! depend on the seed.
//!
//! Workloads whose operation takes one small input — a recession curve,
//! the 64-cell chaos grid — cycle through several draws of it, so that no
//! single draw decides the median call: with one draw per curve, one
//! re-drawn curve that needed a third more evaluations moved the
//! `recession-rank` median by 9%.
//!
//! The chaos supervision policy is the one fixed part: its fault plan and
//! its retry jitter decide which jobs fail, and so how much a pass logs and
//! parses. Re-drawing the plan moved the median pass from 81 to 195 ms
//! across ten seeds, and re-drawing the jitter alone moved the failure
//! share between 48 and 65 of 128 family jobs. Like the grid's axes, the
//! policy is part of the `traced-chaos-fleet` workload's definition.

use resilience_core::bootstrap::BootstrapConfig;
use resilience_core::chaos::ChaosPlan;
use resilience_core::runtime::{BreakerPolicy, ExecPolicy, RetryPolicy};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{GridScenario, Noise, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_data::PerformanceSeries;
use resilience_optim::Parallelism;

/// The seed under which draw 0 of every input equals the repository's own.
pub const DEFAULT_SEED: u64 = 42;

/// Noise draws of each recession curve per `recession-rank` cycle.
pub const RECESSION_DRAWS: u64 = 4;

/// Draws of the 64-cell grid per `traced-chaos-fleet` cycle (odd, so the
/// median pass falls inside one draw's calls rather than between two).
pub const CHAOS_DRAWS: u64 = 3;

/// The seed axis of the repository's fleet grids.
const GRID_SEEDS: [u64; 4] = [42, 43, 44, 45];

/// The chaos-smoke plan's own seed (`bench fleet --chaos-smoke`).
const CHAOS_SEED: u64 = 0x0C4A_0511;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stream seed for `base` in draw `draw` under benchmark seed `seed`:
/// `base` itself for draw 0 at [`DEFAULT_SEED`], an independent mix of all
/// three otherwise.
#[must_use]
pub fn derive(base: u64, seed: u64, draw: u64) -> u64 {
    if seed == DEFAULT_SEED && draw == 0 {
        base
    } else {
        splitmix64(base ^ splitmix64(seed ^ splitmix64(draw)))
    }
}

/// Draw `draw` of one recession's payroll curve under `seed`. Draw 0 at
/// [`DEFAULT_SEED`] is `Recession::payroll_index()`.
///
/// # Panics
///
/// Never: the embedded recession specs are valid for every noise seed.
#[must_use]
pub fn recession(r: Recession, seed: u64, draw: u64) -> PerformanceSeries {
    let mut spec = r.scenario();
    spec.noise = match spec.noise {
        Noise::Gaussian { sd, seed: base } => Noise::Gaussian {
            sd,
            seed: derive(base, seed, draw),
        },
        Noise::Uniform {
            amplitude,
            seed: base,
        } => Noise::Uniform {
            amplitude,
            seed: derive(base, seed, draw),
        },
        Noise::None => Noise::None,
    };
    spec.generate(r.label())
        .expect("recession specs are valid for any noise seed")
}

/// [`RECESSION_DRAWS`] draws of all seven curves, draw-major, each draw in
/// chronological order.
#[must_use]
pub fn recessions(seed: u64) -> Vec<PerformanceSeries> {
    (0..RECESSION_DRAWS)
        .flat_map(|d| Recession::ALL.iter().map(move |&r| recession(r, seed, d)))
        .collect()
}

fn grid_seeds(seed: u64, draw: u64) -> Vec<u64> {
    GRID_SEEDS.iter().map(|&s| derive(s, seed, draw)).collect()
}

/// Draw `draw` of the 64-cell CI grid (4 scenarios × 2 noises × n∈{32,48}
/// × 4 seeds).
#[must_use]
pub fn ci_grid(seed: u64, draw: u64) -> ScenarioGrid {
    ScenarioGrid {
        scenarios: vec![
            GridScenario::Shape(ShapeKind::V),
            GridScenario::Shape(ShapeKind::W),
            GridScenario::StepOutage,
            GridScenario::PoissonOutages,
        ],
        noises: vec![NoiseLevel::Clean, NoiseLevel::Gaussian { sd: 0.001 }],
        lengths: vec![32, 48],
        seeds: grid_seeds(seed, draw),
    }
}

/// The 360-cell full grid (10 scenarios × 3 noises × n∈{32,48,96} × 4
/// seeds).
#[must_use]
pub fn full_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
        ],
        lengths: vec![32, 48, 96],
        seeds: grid_seeds(seed, 0),
    }
}

/// Generates every cell of `grid` in index order.
///
/// # Panics
///
/// Never for the grids above: every grid scenario generates at every
/// length and seed.
#[must_use]
pub fn generate(grid: &ScenarioGrid) -> Vec<PerformanceSeries> {
    grid.cells()
        .map(|c| c.generate().expect("grid cells generate"))
        .collect()
}

/// The chaos-smoke supervision policy: plan, retry ×2, breaker 2/2/8, no
/// wall-clock budget. Fixed at every seed (see the module docs).
#[must_use]
pub fn chaos_policy() -> ExecPolicy {
    ExecPolicy {
        family_budget: None,
        retry: Some(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        }),
        breaker: Some(BreakerPolicy {
            threshold: 2,
            cooldown: 2,
            wave: 8,
        }),
        chaos: Some(ChaosPlan {
            seed: CHAOS_SEED,
            panic_per_mille: 70,
            deadline_per_mille: 60,
            exhaustion_per_mille: 50,
            observer_loss_per_mille: 100,
            transient_per_mille: 150,
        }),
    }
}

/// `BootstrapConfig::default()` with the resampling seed re-drawn and the
/// replicate fan-out set to `parallelism`.
#[must_use]
pub fn bootstrap_config(seed: u64, parallelism: Parallelism) -> BootstrapConfig {
    let default = BootstrapConfig::default();
    BootstrapConfig {
        seed: derive(default.seed, seed, 0),
        parallelism,
        ..default
    }
}
