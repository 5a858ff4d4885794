//! The fleet gate runner (DESIGN.md §13): one fleet pass, the triple of
//! passes every CI gate set checks, and the repeatability gate set.
//!
//! A *fleet run* generates every cell of a [`ScenarioGrid`]
//! (scenarios × noise models × lengths × seeds), fits all of them through
//! `rank_fleet_supervised` — work-stealing over the flattened
//! series × family job list — under an [`ExecPolicy`], and streams the
//! per-cell outcomes into a columnar [`FleetStore`]. The store keeps
//! winning SSE and adjusted R² as raw `f64` bits, so "same results" is
//! exact byte equality, never an epsilon.
//!
//! [`run_triple`] runs the same fleet three times ([`PASSES`]: serial,
//! serial again, `Fixed(2)` workers). Each gate set is a check over one
//! triple: [`FleetReport::check`] here, and the chaos
//! ([`crate::chaos`]) and observability ([`crate::obs_smoke`]) sets next
//! door. The repeatability set gates on
//!
//! 1. **rerun identity**: the two serial stores serialize to identical
//!    bytes (winners, SSE bits, obs roll-up);
//! 2. **parallel identity**: the `Fixed(2)` store and roll-up match the
//!    serial ones byte for byte.
//!
//! Per-cell deltas and the max-delta summary are recorded in
//! `BENCH_fleet.json` even though the gates force them to zero: if a
//! future change breaks bit-identity, the baseline diff shows *where* and
//! *by how much*, not just that a boolean flipped. Nothing here reads a
//! clock: the JSON is a pure function of the grid, so CI can regenerate it
//! and `git diff` stays clean.

use crate::harness::{evals_per_fit, json_escape, median_u64};
use resilience_core::fit::FitConfig;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_fleet_supervised, CellOutcome, Control, ExecPolicy};
use resilience_core::selection::Ranking;
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};
use resilience_data::PerformanceSeries;
use resilience_obs::{Event, RecordingObserver, RunReport, SpanTree};
use resilience_optim::Parallelism;
use std::sync::Arc;

/// Sentinel bits recorded for a cell whose ranking failed outright (no
/// family produced a fit). `u64::MAX` is not the bit pattern of any
/// finite `f64`, so failed cells can never collide with a real SSE.
pub const FAILED_BITS: u64 = u64::MAX;

/// Sentinel bits for a *quarantined* cell: the supervisor saw every
/// family fail under chaos/breaker supervision and parked the cell
/// instead of aborting the fleet (DESIGN.md §14). Distinct from
/// [`FAILED_BITS`] so a baseline diff separates "legacy hard failure"
/// from "quarantined by the supervisor"; like it, never a finite `f64`.
pub const QUARANTINED_BITS: u64 = u64::MAX - 1;

/// Per-cell work attribution derived from the run's span tree
/// ([`SpanTree::build`] over the recorded events): the observability
/// plane's answer to "where did the evaluations go", stored next to the
/// fit results so baseline diffs localize work regressions to cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellWork {
    /// Objective evaluations attributed to the cell.
    pub evaluations: u64,
    /// Retry attempts attributed to the cell.
    pub retries: u64,
}

/// Work attributed to span-tree cell `cell` (zero when the tree has no
/// such cell — e.g. a store assembled without telemetry).
#[must_use]
pub fn cell_work(tree: &SpanTree, cell: usize) -> CellWork {
    tree.cells
        .get(cell)
        .map_or_else(CellWork::default, |c| CellWork {
            evaluations: c.evaluations(),
            retries: c.retries(),
        })
}

/// Columnar results store for one fleet run: one entry per grid cell, in
/// cell-index order, kept as per-column vectors (struct-of-arrays) so a
/// baseline diff reads column-wise and the serialized form is compact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStore {
    /// Scenario axis label per cell.
    pub scenario: Vec<String>,
    /// Noise axis label per cell.
    pub noise: Vec<String>,
    /// Grid length per cell.
    pub n: Vec<usize>,
    /// Cell seed.
    pub seed: Vec<u64>,
    /// Winning family name, or `(failed)` when no family fit.
    pub winner: Vec<String>,
    /// Winner's SSE as raw `f64` bits ([`FAILED_BITS`] on failure).
    pub sse_bits: Vec<u64>,
    /// Winner's adjusted R² as raw `f64` bits ([`FAILED_BITS`] on
    /// failure).
    pub r2_bits: Vec<u64>,
    /// Families that produced a ranked row for this cell.
    pub ranked: Vec<u32>,
    /// Families that failed (degraded ranking) for this cell.
    pub failed: Vec<u32>,
    /// Typed failure count for a quarantined cell, `0` otherwise — the
    /// sentinel column chaos fleets park all-failing cells in.
    pub quarantined: Vec<u32>,
    /// Objective evaluations attributed to the cell by the span tree.
    pub evals: Vec<u64>,
    /// Retry attempts attributed to the cell by the span tree.
    pub retries: Vec<u64>,
}

impl FleetStore {
    /// Empty store with room for `cells` entries per column.
    #[must_use]
    pub fn with_capacity(cells: usize) -> FleetStore {
        FleetStore {
            scenario: Vec::with_capacity(cells),
            noise: Vec::with_capacity(cells),
            n: Vec::with_capacity(cells),
            seed: Vec::with_capacity(cells),
            winner: Vec::with_capacity(cells),
            sse_bits: Vec::with_capacity(cells),
            r2_bits: Vec::with_capacity(cells),
            ranked: Vec::with_capacity(cells),
            failed: Vec::with_capacity(cells),
            quarantined: Vec::with_capacity(cells),
            evals: Vec::with_capacity(cells),
            retries: Vec::with_capacity(cells),
        }
    }

    /// Number of cells stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenario.len()
    }

    /// Whether the store has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenario.is_empty()
    }

    /// Appends one cell's outcome. `ranking: None` records a failed cell
    /// (sentinel bits, zero ranked rows). `work` is the span-tree
    /// attribution for the cell ([`cell_work`]).
    pub fn push(
        &mut self,
        cell: &resilience_data::scenario::GridCell,
        ranking: Option<&Ranking>,
        work: CellWork,
    ) {
        self.scenario.push(cell.scenario.clone());
        self.noise.push(cell.noise.clone());
        self.n.push(cell.n);
        self.seed.push(cell.seed);
        match ranking {
            Some(r) => {
                let top = &r.rows[0];
                self.winner.push(top.family_name.to_string());
                self.sse_bits.push(top.sse.to_bits());
                self.r2_bits.push(top.r2_adj.to_bits());
                self.ranked.push(r.rows.len() as u32);
                self.failed.push(r.failures.len() as u32);
            }
            None => {
                self.winner.push("(failed)".to_string());
                self.sse_bits.push(FAILED_BITS);
                self.r2_bits.push(FAILED_BITS);
                self.ranked.push(0);
                self.failed.push(0);
            }
        }
        self.quarantined.push(0);
        self.evals.push(work.evaluations);
        self.retries.push(work.retries);
    }

    /// Appends one *quarantined* cell: every family failed under
    /// supervision, the supervisor parked the cell, and the store records
    /// the typed failure count in the sentinel column
    /// ([`QUARANTINED_BITS`] in the bit columns). `work` still records
    /// the evaluations the cell burned before quarantine.
    pub fn push_quarantined(
        &mut self,
        cell: &resilience_data::scenario::GridCell,
        failures: u32,
        work: CellWork,
    ) {
        self.scenario.push(cell.scenario.clone());
        self.noise.push(cell.noise.clone());
        self.n.push(cell.n);
        self.seed.push(cell.seed);
        self.winner.push("(quarantined)".to_string());
        self.sse_bits.push(QUARANTINED_BITS);
        self.r2_bits.push(QUARANTINED_BITS);
        self.ranked.push(0);
        self.failed.push(failures);
        self.quarantined.push(failures.max(1));
        self.evals.push(work.evaluations);
        self.retries.push(work.retries);
    }

    /// The per-column JSON object — the byte string the repeatability
    /// gates compare and the digest hashes.
    #[must_use]
    pub fn columns_json(&self) -> String {
        fn str_col(name: &str, vals: &[String], out: &mut Vec<String>) {
            let items: Vec<String> = vals
                .iter()
                .map(|v| format!("\"{}\"", json_escape(v)))
                .collect();
            out.push(format!("    \"{name}\": [{}]", items.join(", ")));
        }
        fn num_col<T: std::fmt::Display>(name: &str, vals: &[T], out: &mut Vec<String>) {
            let items: Vec<String> = vals.iter().map(T::to_string).collect();
            out.push(format!("    \"{name}\": [{}]", items.join(", ")));
        }
        let mut cols = Vec::new();
        str_col("scenario", &self.scenario, &mut cols);
        str_col("noise", &self.noise, &mut cols);
        num_col("n", &self.n, &mut cols);
        num_col("seed", &self.seed, &mut cols);
        str_col("winner", &self.winner, &mut cols);
        num_col("sse_bits", &self.sse_bits, &mut cols);
        num_col("r2_bits", &self.r2_bits, &mut cols);
        num_col("ranked", &self.ranked, &mut cols);
        num_col("failed", &self.failed, &mut cols);
        num_col("quarantined", &self.quarantined, &mut cols);
        num_col("evals", &self.evals, &mut cols);
        num_col("retries", &self.retries, &mut cols);
        format!("{{\n{}\n  }}", cols.join(",\n"))
    }

    /// FNV-1a digest of [`FleetStore::columns_json`] — a one-line
    /// fingerprint for logs and quick baseline comparisons.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.columns_json().as_bytes())
    }
}

/// 64-bit FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One fleet pass: the columnar store plus the observed work roll-up.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-cell results, in cell-index order.
    pub store: FleetStore,
    /// Aggregated telemetry for the whole pass (deterministic work
    /// counters — no wall-clock): the view of `tree`.
    pub report: RunReport,
    /// The span tree of `events`, built once per pass.
    pub tree: SpanTree,
    /// Every event of the pass in replay order — the input for JSONL
    /// export and log diffing.
    pub events: Vec<Event>,
    /// The runtime's own outcome for each cell, in cell-index order.
    pub outcomes: Vec<CellOutcome>,
}

impl FleetRun {
    /// Whether any cell came back [`CellOutcome::Stopped`] — a fleet
    /// abort.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, CellOutcome::Stopped(_)))
    }

    /// The pass's events serialized as JSONL, byte-identical across runs
    /// of the same grid.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            event.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Runs one fleet pass: generates every grid cell, ranks all of them via
/// `rank_fleet_supervised` under `parallelism` and `policy`, and collects
/// the store and the observed roll-up.
///
/// A cell in which every family failed never aborts the fleet. Under a
/// breaker or chaos plan the supervisor quarantines it (the store's
/// `(quarantined)` sentinel row); otherwise it is a `(failed)` row.
///
/// # Panics
///
/// Panics when a grid cell's spec fails to generate (grid specs are
/// valid by construction) or when `families` is empty.
#[must_use]
pub fn run_fleet(
    grid: &ScenarioGrid,
    families: &[&dyn ModelFamily],
    parallelism: Parallelism,
    policy: &ExecPolicy,
) -> FleetRun {
    assert!(!families.is_empty(), "fleet needs at least one family");
    let cells: Vec<_> = grid.cells().collect();
    let series: Vec<PerformanceSeries> = cells
        .iter()
        .map(|c| {
            c.generate()
                .unwrap_or_else(|e| panic!("grid cell {}: {e}", c.series_name()))
        })
        .collect();
    let config = FitConfig {
        parallelism,
        ..FitConfig::default()
    };
    let rec = Arc::new(RecordingObserver::new());
    let outcomes = rank_fleet_supervised(
        families,
        &series,
        &config,
        policy,
        &Control::unbounded().observe(rec.clone()),
    );
    let events = rec.take();
    let tree = SpanTree::build(&events);
    let supervised = policy.supervises_cells();
    let mut store = FleetStore::with_capacity(cells.len());
    for (i, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
        let work = cell_work(&tree, i);
        match outcome {
            CellOutcome::Ranked(ranking) => store.push(cell, Some(ranking), work),
            CellOutcome::Quarantined { failures } if supervised => {
                store.push_quarantined(cell, failures.len() as u32, work);
            }
            CellOutcome::Quarantined { .. } | CellOutcome::Stopped(_) => {
                store.push(cell, None, work);
            }
        }
    }
    FleetRun {
        store,
        report: RunReport::from_tree(&tree),
        tree,
        events,
        outcomes,
    }
}

/// The three passes of every gate set: serial, a serial rerun, and
/// `Fixed(2)` workers.
pub const PASSES: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Serial,
    Parallelism::Fixed(2),
];

/// Runs the fleet once per [`PASSES`] entry under `policy`: the triple
/// every gate set checks.
///
/// # Panics
///
/// Panics when a grid cell fails to generate or `families` is empty (see
/// [`run_fleet`]).
#[must_use]
pub fn run_triple(
    grid: &ScenarioGrid,
    families: &[&dyn ModelFamily],
    policy: &ExecPolicy,
) -> [FleetRun; 3] {
    PASSES.map(|p| run_fleet(grid, families, p, policy))
}

/// Max-delta summary across all cells of the repeatability evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDelta {
    /// Largest |SSE(run 1) − SSE(run 2)| over cells (serial rerun).
    pub sse_rerun: f64,
    /// Largest |R²(run 1) − R²(run 2)| over cells (serial rerun).
    pub r2_rerun: f64,
    /// Largest |SSE(serial) − SSE(Fixed(2))| over cells.
    pub sse_parallel: f64,
    /// Largest |R²(serial) − R²(Fixed(2))| over cells.
    pub r2_parallel: f64,
}

/// Variance band across the seed axis for one (scenario, noise, n) group:
/// how much the winning fit moves between independent realizations of the
/// same story. This is *expected* spread (different noise draws), as
/// opposed to the per-cell deltas, which gate on exact repeatability of
/// identical inputs.
#[derive(Debug, Clone)]
pub struct VarianceBand {
    /// Scenario axis label.
    pub scenario: String,
    /// Noise axis label.
    pub noise: String,
    /// Grid length.
    pub n: usize,
    /// Number of seeds in the group.
    pub seeds: usize,
    /// Mean winning SSE across seeds.
    pub sse_mean: f64,
    /// Smallest winning SSE across seeds.
    pub sse_min: f64,
    /// Largest winning SSE across seeds.
    pub sse_max: f64,
    /// Whether every seed crowned the same family.
    pub winner_unanimous: bool,
}

/// The repeatability gate set behind `BENCH_fleet.json`: one fleet's
/// results plus the identity gates and delta/variance summaries over a
/// [`run_triple`].
#[derive(Debug)]
pub struct FleetReport {
    /// Family names fitted in every cell.
    pub families: Vec<String>,
    /// The canonical (first serial run) results store.
    pub store: FleetStore,
    /// |SSE delta| per cell between the two serial runs.
    pub delta_sse_rerun: Vec<f64>,
    /// |R² delta| per cell between the two serial runs.
    pub delta_r2_rerun: Vec<f64>,
    /// |SSE delta| per cell between serial and `Fixed(2)`.
    pub delta_sse_parallel: Vec<f64>,
    /// |R² delta| per cell between serial and `Fixed(2)`.
    pub delta_r2_parallel: Vec<f64>,
    /// Gate 1: the two serial stores serialized to identical bytes.
    pub identical_rerun: bool,
    /// Gate 2: the `Fixed(2)` store matched the serial bytes.
    pub identical_parallel: bool,
    /// Gate 3: all three obs roll-ups serialized to identical bytes.
    pub identical_rollup: bool,
    /// Max-delta summary over all cells.
    pub max_delta: MaxDelta,
    /// Seed-axis variance bands per (scenario, noise, n) group.
    pub bands: Vec<VarianceBand>,
    /// Work roll-up of the canonical run (deterministic counters).
    pub rollup: RunReport,
    /// Total work across all three runs ([`RunReport::merge`] of the
    /// per-run roll-ups).
    pub total: RunReport,
    /// Median evals-per-fit of the canonical run.
    pub median_evals_per_fit: u64,
}

impl FleetReport {
    /// Checks the repeatability gates over a [`run_triple`] of the fleet
    /// and assembles the report.
    #[must_use]
    pub fn check(families: &[&dyn ModelFamily], runs: &[FleetRun; 3]) -> FleetReport {
        let [run1, run2, run3] = runs;
        let bytes1 = run1.store.columns_json();
        let identical_rerun = bytes1 == run2.store.columns_json();
        let identical_parallel = bytes1 == run3.store.columns_json();
        let rollup1 = run1.report.to_json();
        let identical_rollup = rollup1 == run2.report.to_json() && rollup1 == run3.report.to_json();

        let delta_sse_rerun = bit_deltas(&run1.store.sse_bits, &run2.store.sse_bits);
        let delta_r2_rerun = bit_deltas(&run1.store.r2_bits, &run2.store.r2_bits);
        let delta_sse_parallel = bit_deltas(&run1.store.sse_bits, &run3.store.sse_bits);
        let delta_r2_parallel = bit_deltas(&run1.store.r2_bits, &run3.store.r2_bits);
        let max_delta = MaxDelta {
            sse_rerun: max_of(&delta_sse_rerun),
            r2_rerun: max_of(&delta_r2_rerun),
            sse_parallel: max_of(&delta_sse_parallel),
            r2_parallel: max_of(&delta_r2_parallel),
        };

        let mut total = run1.report.clone();
        total.merge(&run2.report);
        total.merge(&run3.report);

        FleetReport {
            families: families.iter().map(|f| f.name().to_string()).collect(),
            store: run1.store.clone(),
            delta_sse_rerun,
            delta_r2_rerun,
            delta_sse_parallel,
            delta_r2_parallel,
            identical_rerun,
            identical_parallel,
            identical_rollup,
            max_delta,
            bands: variance_bands(&run1.store),
            rollup: run1.report.clone(),
            total,
            median_evals_per_fit: median_u64(&evals_per_fit(&run1.events)).unwrap_or(0),
        }
    }

    /// Whether every repeatability gate held.
    #[must_use]
    pub fn gates_pass(&self) -> bool {
        self.identical_rerun && self.identical_parallel && self.identical_rollup
    }

    /// One-line verdict for the CI log.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fleet  cells={} families={} rerun={} parallel={} rollup={} digest={:016x} \
             median_evals_per_fit={}",
            self.store.len(),
            self.families.len(),
            self.identical_rerun,
            self.identical_parallel,
            self.identical_rollup,
            self.store.digest(),
            self.median_evals_per_fit,
        )
    }

    /// The `BENCH_fleet.json` document. Contains no wall-clock and no
    /// machine identifiers: regenerating on any machine from the same
    /// grid produces the same bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn delta_col(name: &str, vals: &[f64], out: &mut Vec<String>) {
            let items: Vec<String> = vals.iter().map(|v| format!("{v:e}")).collect();
            out.push(format!("    \"{name}\": [{}]", items.join(", ")));
        }
        let families: Vec<String> = self
            .families
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let mut deltas = Vec::new();
        delta_col("sse_rerun", &self.delta_sse_rerun, &mut deltas);
        delta_col("r2_rerun", &self.delta_r2_rerun, &mut deltas);
        delta_col("sse_parallel", &self.delta_sse_parallel, &mut deltas);
        delta_col("r2_parallel", &self.delta_r2_parallel, &mut deltas);
        let bands: Vec<String> = self
            .bands
            .iter()
            .map(|b| {
                format!(
                    "    {{\"scenario\": \"{}\", \"noise\": \"{}\", \"n\": {}, \"seeds\": {}, \
                     \"sse_mean\": {:e}, \"sse_min\": {:e}, \"sse_max\": {:e}, \
                     \"winner_unanimous\": {}}}",
                    json_escape(&b.scenario),
                    json_escape(&b.noise),
                    b.n,
                    b.seeds,
                    b.sse_mean,
                    b.sse_min,
                    b.sse_max,
                    b.winner_unanimous
                )
            })
            .collect();
        format!(
            "{{\n  \"benchmark\": \"fleet\",\n  \"cells\": {},\n  \"families\": [{}],\n  \
             \"runs\": {},\n  \"identical_rerun\": {},\n  \"identical_parallel\": {},\n  \
             \"identical_rollup\": {},\n  \"store_digest\": \"{:016x}\",\n  \
             \"max_delta\": {{\"sse_rerun\": {:e}, \"r2_rerun\": {:e}, \"sse_parallel\": {:e}, \
             \"r2_parallel\": {:e}}},\n  \"median_evals_per_fit\": {},\n  \"columns\": {},\n  \
             \"deltas\": {{\n{}\n  }},\n  \"variance_bands\": [\n{}\n  ],\n  \
             \"rollup\": {},\n  \"total\": {}\n}}\n",
            self.store.len(),
            families.join(", "),
            PASSES.len(),
            self.identical_rerun,
            self.identical_parallel,
            self.identical_rollup,
            self.store.digest(),
            self.max_delta.sse_rerun,
            self.max_delta.r2_rerun,
            self.max_delta.sse_parallel,
            self.max_delta.r2_parallel,
            self.median_evals_per_fit,
            self.store.columns_json(),
            deltas.join(",\n"),
            bands.join(",\n"),
            self.rollup.to_json(),
            self.total.to_json(),
        )
    }
}

/// Per-cell |a − b| on bit-stored values; failed or quarantined cells
/// (sentinel bits on either side) count as zero delta — the winner
/// column already exposes them.
fn bit_deltas(a: &[u64], b: &[u64]) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x >= QUARANTINED_BITS || y >= QUARANTINED_BITS {
                0.0
            } else {
                (f64::from_bits(x) - f64::from_bits(y)).abs()
            }
        })
        .collect()
}

fn max_of(vals: &[f64]) -> f64 {
    vals.iter().copied().fold(0.0, f64::max)
}

/// Groups the store's cells by (scenario, noise, n) in first-seen order
/// and summarizes the winning SSE across the seed axis.
#[must_use]
pub fn variance_bands(store: &FleetStore) -> Vec<VarianceBand> {
    let mut order: Vec<(String, String, usize)> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..store.len() {
        let key = (
            store.scenario[i].clone(),
            store.noise[i].clone(),
            store.n[i],
        );
        match order.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(i),
            None => {
                order.push(key);
                groups.push(vec![i]);
            }
        }
    }
    order
        .into_iter()
        .zip(groups)
        .filter_map(|((scenario, noise, n), members)| {
            let sses: Vec<f64> = members
                .iter()
                .filter(|&&i| store.sse_bits[i] < QUARANTINED_BITS)
                .map(|&i| f64::from_bits(store.sse_bits[i]))
                .collect();
            if sses.is_empty() {
                return None;
            }
            let winner_unanimous = members
                .iter()
                .all(|&i| store.winner[i] == store.winner[members[0]]);
            Some(VarianceBand {
                scenario,
                noise,
                n,
                seeds: members.len(),
                sse_mean: sses.iter().sum::<f64>() / sses.len() as f64,
                sse_min: sses.iter().copied().fold(f64::INFINITY, f64::min),
                sse_max: sses.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                winner_unanimous,
            })
        })
        .collect()
}

/// The CI smoke grid: 4 scenarios × 2 noises × 2 lengths × 4 seeds =
/// 64 cells — the floor the `bench --smoke` fleet gates must cover.
#[must_use]
pub fn smoke_grid() -> ScenarioGrid {
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

/// The full sweep grid: every grid scenario × 3 noises × 3 lengths ×
/// 4 seeds = 360 cells.
#[must_use]
pub fn full_grid() -> ScenarioGrid {
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

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};

    /// Tiny grid so the repeatability loop stays fast in debug builds.
    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            scenarios: vec![GridScenario::Shape(ShapeKind::V), GridScenario::StepOutage],
            noises: vec![NoiseLevel::Gaussian { sd: 0.001 }],
            lengths: vec![32],
            seeds: vec![42, 43],
        }
    }

    fn families() -> Vec<&'static dyn ModelFamily> {
        vec![&QuadraticFamily, &CompetingRisksFamily]
    }

    #[test]
    fn fleet_gates_pass_and_the_baseline_is_reproducible() {
        let grid = tiny_grid();
        let check = || {
            FleetReport::check(
                &families(),
                &run_triple(&grid, &families(), &ExecPolicy::default()),
            )
        };
        let report = check();
        assert!(report.gates_pass());
        assert_eq!(report.store.len(), grid.len());
        assert_eq!(report.max_delta.sse_rerun, 0.0);
        assert_eq!(report.max_delta.sse_parallel, 0.0);
        assert!(report.delta_sse_rerun.iter().all(|&d| d == 0.0));
        // The merged total counts three runs' worth of work.
        let per_run: u64 = report.rollup.counters.iter().map(|(_, v)| *v).sum();
        let total: u64 = report.total.counters.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 3 * per_run);
        // Variance bands: one per (scenario, noise, n) group, spanning
        // both seeds, with min ≤ mean ≤ max.
        assert_eq!(report.bands.len(), 2);
        for band in &report.bands {
            assert_eq!(band.seeds, 2);
            assert!(band.sse_min <= band.sse_mean && band.sse_mean <= band.sse_max);
        }
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"fleet\"",
            "\"cells\": 4",
            "\"runs\": 3",
            "\"identical_rerun\": true",
            "\"identical_parallel\": true",
            "\"identical_rollup\": true",
            "\"store_digest\"",
            "\"max_delta\"",
            "\"scenario\": [",
            "\"sse_bits\": [",
            "\"variance_bands\"",
            "\"rollup\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(
            !json.contains("wall"),
            "baseline must not record wall-clock"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // And the document is reproducible byte for byte.
        assert_eq!(json, check().to_json());
    }

    #[test]
    fn store_records_failed_cells_with_sentinel_bits() {
        let grid = tiny_grid();
        let cell = grid.cell(0);
        let mut store = FleetStore::with_capacity(1);
        store.push(&cell, None, CellWork::default());
        assert_eq!(store.winner[0], "(failed)");
        assert_eq!(store.sse_bits[0], FAILED_BITS);
        assert_eq!(store.ranked[0], 0);
        assert_eq!(store.evals[0], 0);
        // Failed cells contribute zero delta and drop out of bands.
        assert_eq!(bit_deltas(&store.sse_bits, &store.sse_bits), vec![0.0]);
        assert!(variance_bands(&store).is_empty());
    }

    #[test]
    fn work_columns_agree_with_the_rollup() {
        let grid = tiny_grid();
        let run = run_fleet(
            &grid,
            &families(),
            Parallelism::Serial,
            &ExecPolicy::default(),
        );
        // One span-tree cell per grid cell, and the per-cell work columns
        // sum to the per-family attribution of the aggregated report.
        assert_eq!(run.store.evals.len(), grid.len());
        let column_total: u64 = run.store.evals.iter().sum();
        let family_total: u64 = run.report.families.iter().map(|f| f.evaluations).sum();
        assert_eq!(column_total, family_total);
        assert!(column_total > 0, "fleet did no work?");
        let retries_total: u64 = run.store.retries.iter().sum();
        let family_retries: u64 = run.report.families.iter().map(|f| f.retries).sum();
        assert_eq!(retries_total, family_retries);
        // The columns serialize into the gated byte string.
        assert!(run.store.columns_json().contains("\"evals\": ["));
        assert!(run.store.columns_json().contains("\"retries\": ["));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
