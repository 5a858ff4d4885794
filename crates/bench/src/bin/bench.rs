//! Micro-benchmark binary: serial-vs-parallel timings for the two
//! fan-out stages of the fitting pipeline, written as JSON baselines.
//!
//! ```sh
//! cargo run --release -p resilience-bench --bin bench
//! ```
//!
//! Writes `BENCH_fitting.json` (`rank_models` over the six paper
//! families), `BENCH_bootstrap.json` (`bootstrap_band`, 200 replicates),
//! and `BENCH_scenarios.json` (the scenario × noise × length ranking
//! sweep) to the working directory. Each file records the machine's
//! core count, timing or fit-quality data per configuration, and whether
//! the parallel outputs were bit-identical to the serial ones (they must
//! always be — see DESIGN.md §Performance & determinism).
//!
//! Flags: `--smoke` (fast determinism + work-profile guard),
//! `--scenario-smoke` (canonical scenario set generates and ranks
//! deterministically), `--scenarios` (write only the scenario sweep
//! baseline), `fleet` (full fleet sweep + repeatability gates →
//! `BENCH_fleet_full.json`), `fleet --fleet-smoke` (the 64-cell CI fleet
//! with double-run and serial-vs-`Fixed(2)` identity gates →
//! `BENCH_fleet.json`).

use resilience_bench::chaos::{evaluate_chaos_fleet, ChaosReport};
use resilience_bench::fleet::{evaluate_fleet, full_grid, smoke_grid, FleetReport};
use resilience_bench::harness::{
    bench_with_budget, median_u64, FamilyTiming, Measurement, ScenarioCell, ScenarioSweepReport,
    SpeedupReport,
};
use resilience_bench::obs_smoke::{evaluate_obs_smoke, ObsSmokeArtifacts, ObsSmokeReport};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::{
    bootstrap_band, bootstrap_band_with, BootstrapBand, BootstrapConfig,
};
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy};
use resilience_core::selection::{rank_models, Ranking};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{catalog, Drift, EventProcess, Noise, ScenarioSpec, ShapeKind};
use resilience_obs::{Event, HistogramId, RecordingObserver, RunReport};
use resilience_optim::Parallelism;
use std::sync::Arc;

const WARMUP: usize = 1;
const SAMPLES: usize = 5;
/// Wall-clock cap per benchmarked configuration. Generous — a healthy
/// run never hits it — but it bounds the damage of a pathological
/// regression: a 100× slowdown costs one budget per configuration, not
/// 100× the whole sweep (execution-deadline discipline, DESIGN.md §9).
const BUDGET: std::time::Duration = std::time::Duration::from_secs(120);

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The six families the paper fits: the two bathtub curves (§IV-A) and
/// the four mixture combinations (§IV-B).
fn paper_families(mixtures: &[MixtureFamily]) -> Vec<&dyn ModelFamily> {
    let mut families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
    for fam in mixtures {
        families.push(fam);
    }
    families
}

/// Aggregates an observed run's event buffer into named counter totals
/// for the `BENCH_*.json` baseline. The timed passes stay unobserved;
/// this comes from one extra correctness pass.
fn run_counters(report: &RunReport) -> Vec<(String, u64)> {
    report
        .counters
        .iter()
        .map(|(id, v)| (id.as_str().to_string(), *v))
        .collect()
}

/// Raw `evals_per_fit` observations in fit order, straight from the
/// event stream (the [`RunReport`] histogram buckets them; the baseline
/// keeps the exact values so regressions diff per fit).
fn evals_per_fit(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Hist {
                id: HistogramId::EvalsPerFit,
                value,
            } => Some(*value),
            _ => None,
        })
        .collect()
}

fn rankings_identical(a: &Ranking, b: &Ranking) -> bool {
    a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.family_name == y.family_name
                && x.sse.to_bits() == y.sse.to_bits()
                && x.r2_adj.to_bits() == y.r2_adj.to_bits()
        })
}

fn bands_identical(a: &BootstrapBand, b: &BootstrapBand) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.lower) == bits(&b.lower)
        && bits(&a.upper) == bits(&b.upper)
        && a.replicates == b.replicates
}

fn bench_fitting() -> SpeedupReport {
    let series = Recession::R1990_93.payroll_index();
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    let config = |p: Parallelism| FitConfig {
        parallelism: p,
        ..FitConfig::default()
    };

    let serial_out =
        rank_models(&families, &series, &config(Parallelism::Serial)).expect("serial rank_models");
    let parallel_out =
        rank_models(&families, &series, &config(Parallelism::Auto)).expect("parallel rank_models");
    let identical = rankings_identical(&serial_out, &parallel_out);

    // One observed pass for the work counters (objective evals, solver
    // iteration mix); supervised ranking under the default policy is
    // numerically identical to plain rank_models.
    let rec = Arc::new(RecordingObserver::new());
    rank_models_supervised(
        &families,
        &series,
        &config(Parallelism::Serial),
        &ExecPolicy::default(),
        &Control::unbounded().observe(rec.clone()),
    )
    .expect("observed rank_models");
    let events = rec.take();
    let fit_evals = evals_per_fit(&events);
    let observed = RunReport::from_events(events);
    let counters = run_counters(&observed);

    // Per-family timing attribution: each family fitted alone, serial.
    let per_family: Vec<FamilyTiming> = families
        .iter()
        .map(|fam| {
            let cfg = config(Parallelism::Serial);
            let m = bench_with_budget(fam.name(), WARMUP, SAMPLES, BUDGET, || {
                fit_least_squares(*fam, &series, &cfg).expect("family fit")
            });
            FamilyTiming {
                name: fam.name().to_string(),
                evaluations: observed
                    .families
                    .iter()
                    .find(|f| f.name == fam.name())
                    .map_or(0, |f| f.evaluations),
                median_ns: m.median_ns(),
            }
        })
        .collect();

    let time = |name: &str, p: Parallelism| -> Measurement {
        let cfg = config(p);
        bench_with_budget(name, WARMUP, SAMPLES, BUDGET, || {
            rank_models(&families, &series, &cfg).expect("rank_models")
        })
    };
    SpeedupReport {
        benchmark: "rank_models".into(),
        cores: cores(),
        serial: time("serial", Parallelism::Serial),
        parallel: time("parallel_auto", Parallelism::Auto),
        identical,
        counters,
        evals_per_fit: fit_evals,
        per_family,
        context: vec![
            ("series".into(), "1990-93 payroll index".into()),
            ("families".into(), families.len().to_string()),
        ],
    }
}

fn bench_bootstrap() -> SpeedupReport {
    let series = Recession::R1990_93.payroll_index();
    let fit_config = FitConfig::default();
    let config = |p: Parallelism| BootstrapConfig {
        parallelism: p,
        ..BootstrapConfig::default()
    };

    let serial_out = bootstrap_band(
        &QuadraticFamily,
        &series,
        &fit_config,
        &config(Parallelism::Serial),
    )
    .expect("serial bootstrap_band");
    let parallel_out = bootstrap_band(
        &QuadraticFamily,
        &series,
        &fit_config,
        &config(Parallelism::Auto),
    )
    .expect("parallel bootstrap_band");
    let identical = bands_identical(&serial_out, &parallel_out);

    // One observed pass for the work counters (replicate ok/failed, base
    // fit evals).
    let rec = Arc::new(RecordingObserver::new());
    bootstrap_band_with(
        &QuadraticFamily,
        &series,
        &fit_config,
        &config(Parallelism::Serial),
        &Control::unbounded().observe(rec.clone()),
    )
    .expect("observed bootstrap_band");
    let events = rec.take();
    let fit_evals = evals_per_fit(&events);
    let counters = run_counters(&RunReport::from_events(events));

    let time = |name: &str, p: Parallelism| -> Measurement {
        let cfg = config(p);
        bench_with_budget(name, WARMUP, SAMPLES, BUDGET, || {
            bootstrap_band(&QuadraticFamily, &series, &fit_config, &cfg).expect("bootstrap_band")
        })
    };
    SpeedupReport {
        benchmark: "bootstrap_band".into(),
        cores: cores(),
        serial: time("serial", Parallelism::Serial),
        parallel: time("parallel_auto", Parallelism::Auto),
        identical,
        counters,
        evals_per_fit: fit_evals,
        per_family: Vec::new(),
        context: vec![
            ("series".into(), "1990-93 payroll index".into()),
            ("family".into(), "Quadratic".into()),
            (
                "replicates".into(),
                BootstrapConfig::default().replicates.to_string(),
            ),
        ],
    }
}

/// Writes the baseline JSON, or refuses — without touching any existing
/// file — when the parallel output was not bit-identical to the serial
/// one. A broken determinism contract must never silently replace a good
/// baseline with a tainted one.
fn write_report(path: &str, report: &SpeedupReport) -> bool {
    if !report.identical {
        eprintln!(
            "{}: parallel output differs from serial — determinism contract broken; \
             refusing to overwrite {path}",
            report.benchmark
        );
        return false;
    }
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "{:14} cores={} serial={:.1}ms parallel={:.1}ms speedup={:.2}x identical={} -> {path}",
        report.benchmark,
        report.cores,
        report.serial.min_ns() as f64 / 1e6,
        report.parallel.min_ns() as f64 / 1e6,
        report.speedup(),
        report.identical,
    );
    true
}

/// The scenario × noise × length grid behind `BENCH_scenarios.json`:
/// four scenario stories (a V shape, a W shape, a step outage, and a
/// stochastic Poisson outage process) at two noise settings and two grid
/// lengths.
fn scenario_grid() -> Vec<(String, String, ScenarioSpec)> {
    let noises = [
        ("clean", Noise::None),
        (
            "gaussian-1e-3",
            Noise::Gaussian {
                sd: 0.001,
                seed: 42,
            },
        ),
    ];
    let lengths = [48usize, 96];
    let mut grid = Vec::new();
    for n in lengths {
        for (noise_label, noise) in noises {
            let poisson = ScenarioSpec {
                n,
                shocks: Vec::new(),
                events: Some(EventProcess {
                    outage_rate: 0.08,
                    mean_restore: 5.0,
                    mean_depth: 0.05,
                    max_depth: 0.2,
                    seed: 42,
                    max_events: EventProcess::DEFAULT_MAX_EVENTS,
                }),
                drift: Drift::None,
                noise,
                floor: Some(0.0),
            };
            let cells: [(String, ScenarioSpec); 4] = [
                ("shape-V".into(), ShapeKind::V.scenario(n, 42)),
                ("shape-W".into(), ShapeKind::W.scenario(n, 42)),
                ("step-outage".into(), {
                    let mut s = catalog::step_outage(42);
                    s.n = n;
                    s
                }),
                ("poisson-outages".into(), poisson),
            ];
            for (name, mut spec) in cells {
                spec.noise = noise;
                grid.push((name, noise_label.to_string(), spec));
            }
        }
    }
    grid
}

/// Scenario-sweep baseline: every grid cell is generated, ranked under
/// `rank_models_supervised` serially and with `Fixed(2)` consumers, the
/// two rankings are required to be bit-identical, and the winner's fit
/// quality is recorded.
fn bench_scenarios() -> ScenarioSweepReport {
    let families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let config = |p: Parallelism| FitConfig {
        parallelism: p,
        ..FitConfig::default()
    };
    let rank = |series: &resilience_data::PerformanceSeries, p: Parallelism| -> Ranking {
        rank_models_supervised(
            &families,
            series,
            &config(p),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .expect("scenario rank_models_supervised")
    };

    let mut identical = true;
    let mut cells = Vec::new();
    for (name, noise_label, spec) in scenario_grid() {
        let series = spec
            .generate(format!("{name}/{noise_label}/n{}", spec.n))
            .expect("scenario grid specs are valid");
        let serial = rank(&series, Parallelism::Serial);
        let fixed2 = rank(&series, Parallelism::Fixed(2));
        if !rankings_identical(&serial, &fixed2) {
            eprintln!(
                "scenario sweep: {name}/{noise_label}/n{} rankings differ",
                spec.n
            );
            identical = false;
        }
        let top = &serial.rows[0];
        cells.push(ScenarioCell {
            scenario: name,
            noise: noise_label,
            n: spec.n,
            winner: top.family_name.to_string(),
            r2_adj: top.r2_adj,
            sse: top.sse,
        });
    }
    ScenarioSweepReport {
        cores: cores(),
        identical,
        cells,
    }
}

/// Writes the scenario-sweep baseline, refusing — like [`write_report`]
/// — when any cell broke the determinism contract.
fn write_scenario_report(path: &str, report: &ScenarioSweepReport) -> bool {
    if !report.identical {
        eprintln!(
            "scenario_sweep: serial vs Fixed(2) rankings differ — determinism contract broken; \
             refusing to overwrite {path}"
        );
        return false;
    }
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "scenario_sweep cells={} identical={} -> {path}",
        report.cells.len(),
        report.identical
    );
    true
}

/// Fast scenario-engine guard for `scripts/verify.sh`: the canonical
/// scenario set must generate deterministically (two generations are
/// bit-identical) and rank deterministically (serial vs `Fixed(2)`
/// supervised rankings bit-identical) for every scenario.
fn scenario_smoke() -> bool {
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
    let config = |p: Parallelism| FitConfig {
        parallelism: p,
        ..FitConfig::default()
    };
    let mut ok = true;
    for (name, spec) in catalog::canonical_set(42) {
        let series = spec.generate(name.clone()).expect("canonical scenario");
        let again = spec.generate(name.clone()).expect("canonical scenario");
        let same_bits = series
            .values()
            .iter()
            .zip(again.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits {
            eprintln!("scenario smoke: {name} regenerated with different bits");
            ok = false;
        }
        let serial = rank_models_supervised(
            &families,
            &series,
            &config(Parallelism::Serial),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .expect("serial scenario ranking");
        let fixed2 = rank_models_supervised(
            &families,
            &series,
            &config(Parallelism::Fixed(2)),
            &ExecPolicy::default(),
            &Control::unbounded(),
        )
        .expect("fixed(2) scenario ranking");
        if !rankings_identical(&serial, &fixed2) {
            eprintln!("scenario smoke: {name} serial vs Fixed(2) rankings differ");
            ok = false;
        }
    }
    println!("scenario smoke: canonical set deterministic={ok}");
    ok
}

/// CI ceiling for the median evals-per-fit of one `rank_models` pass
/// over the six paper families on 1990-93 (scripts/verify.sh `--smoke`).
/// The §11 speed layer (basin-finding Nelder–Mead + analytic-Jacobian
/// polish) lands the median at 449, the mean of the middle pair 263 and
/// 635 of the six families' counts; the ceiling leaves headroom for
/// tolerance tweaks while still catching a regression to the pre-§11
/// exhaustive-simplex profile (median well above 2000).
const SMOKE_EVALS_PER_FIT_CEILING: u64 = 1200;

/// Fast determinism + work-profile guard for `scripts/verify.sh`: one
/// serial-vs-`Fixed(2)` `rank_models` comparison must be bit-identical,
/// and the median evals-per-fit must stay under
/// [`SMOKE_EVALS_PER_FIT_CEILING`]. No baseline files are touched.
fn smoke() -> bool {
    let series = Recession::R1990_93.payroll_index();
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    let config = |p: Parallelism| FitConfig {
        parallelism: p,
        ..FitConfig::default()
    };

    let serial =
        rank_models(&families, &series, &config(Parallelism::Serial)).expect("serial rank_models");
    let fixed2 = rank_models(&families, &series, &config(Parallelism::Fixed(2)))
        .expect("fixed(2) rank_models");
    let identical = rankings_identical(&serial, &fixed2);

    let rec = Arc::new(RecordingObserver::new());
    rank_models_supervised(
        &families,
        &series,
        &config(Parallelism::Serial),
        &ExecPolicy::default(),
        &Control::unbounded().observe(rec.clone()),
    )
    .expect("observed rank_models");
    let evals = evals_per_fit(&rec.take());
    let median = median_u64(&evals).unwrap_or(0);

    println!(
        "smoke: identical={identical} evals_per_fit={evals:?} median={median} (ceiling {SMOKE_EVALS_PER_FIT_CEILING})"
    );
    if !identical {
        eprintln!("smoke: serial vs Fixed(2) rank_models outputs differ — determinism broken");
    }
    if median > SMOKE_EVALS_PER_FIT_CEILING {
        eprintln!(
            "smoke: median evals-per-fit {median} exceeds ceiling {SMOKE_EVALS_PER_FIT_CEILING}"
        );
    }
    identical && median <= SMOKE_EVALS_PER_FIT_CEILING
}

/// Runs the fleet repeatability evaluation on `grid`, writes the
/// baseline to `path` when every gate holds, and reports the verdict.
/// Wall-clock goes to stdout only — the JSON is a pure function of the
/// grid, so repeated CI runs regenerate identical bytes.
fn run_fleet_mode(path: &str, report: &FleetReport) -> bool {
    if !report.gates_pass() {
        eprintln!(
            "fleet: repeatability gates failed (rerun={} parallel={} rollup={}) — \
             refusing to overwrite {path}",
            report.identical_rerun, report.identical_parallel, report.identical_rollup
        );
        return false;
    }
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let wall_ms: Vec<String> = report
        .wall_ns
        .iter()
        .map(|ns| format!("{:.1}", *ns as f64 / 1e6))
        .collect();
    println!(
        "fleet          cells={} families={} runs={} gates=pass digest={:016x} \
         median_evals_per_fit={} wall_ms=[{}] -> {path}",
        report.store.len(),
        report.families.len(),
        report.runs,
        report.store.digest(),
        report.median_evals_per_fit,
        wall_ms.join(", "),
    );
    true
}

/// Runs the chaos-smoke evaluation (`bench fleet --chaos-smoke`): the
/// 64-cell CI grid under the fixed chaos plan, gated on no-abort,
/// well-formed survivors, byte-identical stores + event JSONL across
/// serial ×2 and `Fixed(2)` passes, accounted injection, and bounded
/// retries. Writes `BENCH_chaos.json` only when every gate holds.
fn run_chaos_mode(path: &str, report: &ChaosReport) -> bool {
    if !report.gates_pass() {
        eprintln!(
            "chaos: gates failed (no_abort={} well_formed={} rerun={} parallel={} \
             accounted={} retries_bounded={}; injected={} breaker_opened={} half_open={} \
             quarantined={} retries={}/{}) — refusing to overwrite {path}",
            report.no_abort,
            report.well_formed,
            report.identical_rerun,
            report.identical_parallel,
            report.chaos_accounted,
            report.retries_bounded,
            report.chaos_injected,
            report.breaker_opened,
            report.breaker_half_open,
            report.cells_quarantined,
            report.retries,
            report.retry_ceiling,
        );
        return false;
    }
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "chaos          cells={} injected={} breaker_opened={} half_open={} quarantined={} \
         retries={}/{} gates=pass digest={:016x} -> {path}",
        report.store.len(),
        report.chaos_injected,
        report.breaker_opened,
        report.breaker_half_open,
        report.cells_quarantined,
        report.retries,
        report.retry_ceiling,
        report.store.digest(),
    );
    true
}

/// Runs the observability gate evaluation (`bench fleet --obs-smoke`):
/// the 64-cell CI grid three times, gated on byte-identical logs, span
/// trees, metrics expositions, and stores plus full work attribution and
/// per-family evaluation ceilings. Writes `BENCH_obs.json` only when
/// every gate holds; with `OBS_SMOKE_DIR` set, also writes the three
/// JSONL logs and the metrics/tree renders there so CI can exercise
/// `obsctl` against real output.
fn run_obs_mode(path: &str, report: &ObsSmokeReport, artifacts: &ObsSmokeArtifacts) -> bool {
    if let Ok(dir) = std::env::var("OBS_SMOKE_DIR") {
        let dir = std::path::Path::new(&dir);
        let write = |name: &str, bytes: &str| {
            std::fs::write(dir.join(name), bytes)
                .unwrap_or_else(|e| panic!("write {}/{name}: {e}", dir.display()));
        };
        write("fleet_serial.jsonl", &artifacts.serial_jsonl);
        write("fleet_rerun.jsonl", &artifacts.rerun_jsonl);
        write("fleet_fixed2.jsonl", &artifacts.fixed2_jsonl);
        write("metrics.prom", &artifacts.metrics_text);
        write("tree.txt", &artifacts.tree_text);
    }
    if !report.gates_pass() {
        eprintln!(
            "obs: gates failed (log={} tree={} metrics={} store={} cells={} \
             attributed={} budget={}) — refusing to overwrite {path}",
            report.identical_log,
            report.identical_tree,
            report.identical_metrics,
            report.identical_store,
            report.cells_covered,
            report.work_attributed,
            report.within_budget,
        );
        for w in &report.family_work {
            if w.evaluations > w.ceiling {
                eprintln!(
                    "obs: {} burned {} evaluations (ceiling {})",
                    w.family, w.evaluations, w.ceiling
                );
            }
        }
        return false;
    }
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let work: Vec<String> = report
        .family_work
        .iter()
        .map(|w| format!("{}={}/{}", w.family, w.evaluations, w.ceiling))
        .collect();
    println!(
        "obs            cells={} events={} gates=pass evals=[{}] -> {path}",
        report.cells,
        report.events,
        work.join(", "),
    );
    true
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        if !smoke() {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--scenario-smoke") {
        if !scenario_smoke() {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--obs-smoke") {
        // `bench fleet --obs-smoke`: the 64-cell CI grid through the
        // observability gates (byte-identical logs / span trees / metrics
        // across serial ×2 + Fixed(2), full work attribution, per-family
        // evaluation ceilings) → `BENCH_obs.json`. Checked before the
        // `fleet` branch: the invocation carries the `fleet` word too.
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        let (report, artifacts) = evaluate_obs_smoke(&smoke_grid(), &families);
        if !run_obs_mode("BENCH_obs.json", &report, &artifacts) {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--chaos-smoke") {
        // `bench fleet --chaos-smoke`: the 64-cell CI grid under the
        // fixed chaos plan with the breaker armed → `BENCH_chaos.json`.
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        // Forced panics are the *point* of this mode; the supervisor
        // catches every one. Silence the default hook so CI logs carry
        // the verdict, not dozens of intentional backtraces.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = evaluate_chaos_fleet(&smoke_grid(), &families);
        std::panic::set_hook(hook);
        if !run_chaos_mode("BENCH_chaos.json", &report) {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "fleet" || a == "--fleet-smoke") {
        // `bench fleet --fleet-smoke` (or bare `--fleet-smoke`): the
        // 64-cell CI grid with the two bathtub families, double-run +
        // Fixed(2) identity gates, written as the checked-in baseline.
        // `bench fleet` alone: the 360-cell full sweep with the quartic
        // added, written alongside it.
        let smoke = std::env::args().any(|a| a == "--fleet-smoke");
        let (path, grid, families): (&str, _, Vec<&dyn ModelFamily>) = if smoke {
            (
                "BENCH_fleet.json",
                smoke_grid(),
                vec![&QuadraticFamily, &CompetingRisksFamily],
            )
        } else {
            (
                "BENCH_fleet_full.json",
                full_grid(),
                vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily],
            )
        };
        if !run_fleet_mode(path, &evaluate_fleet(&grid, &families)) {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--scenarios") {
        if !write_scenario_report("BENCH_scenarios.json", &bench_scenarios()) {
            std::process::exit(1);
        }
        return;
    }
    println!(
        "predictive-resilience micro-bench (warmup {WARMUP}, min of {SAMPLES}, {} cores)",
        cores()
    );
    let mut ok = true;
    ok &= write_report("BENCH_fitting.json", &bench_fitting());
    ok &= write_report("BENCH_bootstrap.json", &bench_bootstrap());
    ok &= write_scenario_report("BENCH_scenarios.json", &bench_scenarios());
    if !ok {
        std::process::exit(1);
    }
}
