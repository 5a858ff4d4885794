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
//! Flags:
//!
//! * `--smoke` — the CI gate runner: the `rank_models` determinism +
//!   work-profile guard (median evals-per-fit and per-family evaluation
//!   ceilings), the canonical scenario guard, then one plain and
//!   one chaos triple of the 64-cell fleet checked by the fleet, obs and
//!   chaos gate sets. Each of `BENCH_fleet.json`, `BENCH_obs.json` and
//!   `BENCH_chaos.json` is rewritten only when its own gates pass; with
//!   `OBS_SMOKE_DIR` set, the plain triple's logs and renders and the
//!   chaos triple's canonical log land there.
//! * `--scenarios` — write only the scenario sweep baseline.
//! * `fleet` — the 360-cell sweep + repeatability gates →
//!   `BENCH_fleet_full.json`.

use resilience_bench::chaos::{chaos_policy, ChaosReport};
use resilience_bench::fleet::{full_grid, run_triple, smoke_grid, FleetReport, FleetRun};
use resilience_bench::harness::{
    bench_with_budget, evals_per_fit, median_u64, FamilyTiming, Measurement, ScenarioCell,
    ScenarioSweepReport, SpeedupReport,
};
use resilience_bench::obs_smoke::{ObsSmokeArtifacts, ObsSmokeReport};
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
use resilience_obs::{RecordingObserver, RunReport};
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

/// Writes one baseline when its own gates pass, or refuses — without
/// touching the committed file — when they do not: a broken determinism
/// contract must never silently replace a good baseline with a tainted
/// one. Prints the one-line verdict either way.
fn write_baseline(path: &str, pass: bool, verdict: &str, json: &str) -> bool {
    if !pass {
        eprintln!("{verdict}\n  gates failed — refusing to overwrite {path}");
        return false;
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{verdict} -> {path}");
    true
}

fn write_report(path: &str, report: &SpeedupReport) -> bool {
    let verdict = format!(
        "{:14} cores={} serial={:.1}ms parallel={:.1}ms speedup={:.2}x identical={}",
        report.benchmark,
        report.cores,
        report.serial.min_ns() as f64 / 1e6,
        report.parallel.min_ns() as f64 / 1e6,
        report.speedup(),
        report.identical,
    );
    write_baseline(path, report.identical, &verdict, &report.to_json())
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

fn write_scenario_report(path: &str, report: &ScenarioSweepReport) -> bool {
    let verdict = format!(
        "scenario_sweep cells={} identical={}",
        report.cells.len(),
        report.identical
    );
    write_baseline(path, report.identical, &verdict, &report.to_json())
}

/// Fast scenario-engine guard of `--smoke`: the canonical
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
/// over the six paper families on 1990-93 (`bench --smoke`).
/// The §11 speed layer (basin-finding Nelder–Mead, analytic-Jacobian
/// polish, the mixtures' profiled coefficient) lands the median at 188,
/// the mean of the middle pair 182 and 194 of the six families' counts;
/// the ceiling leaves headroom for tolerance tweaks while still catching
/// a regression to the pre-§11 exhaustive-simplex profile (median well
/// above 2000).
const SMOKE_EVALS_PER_FIT_CEILING: u64 = 1200;

/// CI ceilings on each paper family's objective evaluations over every
/// start of the same observed pass, about 1.5× the 1990-93 totals
/// (Quadratic 746, Competing Risks 1 734, Exp-Exp 981, Wei-Exp 1 751,
/// Exp-Wei 1 851, Wei-Wei 6 902) — the obs gate's headroom. The four
/// mixtures are ~97% of a ranking's time, so these gate the work that
/// costs it, where the median above is set by the cheap families. A
/// mixture that loses its profiled coefficient and searches β again
/// (4 839, 11 159, 14 283 and 15 793) fails its ceiling.
const SMOKE_FAMILY_EVAL_CEILINGS: [(&str, u64); 6] = [
    ("Quadratic", 1_150),
    ("Competing Risks", 2_600),
    ("Exp-Exp", 1_500),
    ("Wei-Exp", 2_600),
    ("Exp-Wei", 2_800),
    ("Wei-Wei", 10_400),
];

/// Fast determinism + work-profile guard of `--smoke`: one
/// serial-vs-`Fixed(2)` `rank_models` comparison must be bit-identical,
/// the median evals-per-fit must stay under
/// [`SMOKE_EVALS_PER_FIT_CEILING`], and each family's evaluations under
/// its [`SMOKE_FAMILY_EVAL_CEILINGS`] entry.
fn rank_models_smoke() -> bool {
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
    let events = rec.take();
    let evals = evals_per_fit(&events);
    let median = median_u64(&evals).unwrap_or(0);
    let observed = RunReport::from_events(events);
    let mut within = true;
    let budget: Vec<String> = SMOKE_FAMILY_EVAL_CEILINGS
        .iter()
        .map(|&(name, ceiling)| {
            let used = observed
                .families
                .iter()
                .find(|f| f.name == name)
                .map_or(0, |f| f.evaluations);
            if used > ceiling {
                eprintln!("smoke: {name} spent {used} evaluations, over its ceiling {ceiling}");
                within = false;
            }
            format!("{name}={used}/{ceiling}")
        })
        .collect();

    println!(
        "smoke: identical={identical} evals_per_fit={evals:?} median={median} (ceiling {SMOKE_EVALS_PER_FIT_CEILING}) evals=[{}]",
        budget.join(", ")
    );
    if !identical {
        eprintln!("smoke: serial vs Fixed(2) rank_models outputs differ — determinism broken");
    }
    if median > SMOKE_EVALS_PER_FIT_CEILING {
        eprintln!(
            "smoke: median evals-per-fit {median} exceeds ceiling {SMOKE_EVALS_PER_FIT_CEILING}"
        );
    }
    identical && median <= SMOKE_EVALS_PER_FIT_CEILING && within
}

/// Writes the plain triple's logs and renders, and the chaos triple's
/// canonical log, to `OBS_SMOKE_DIR`, when set, so CI can exercise
/// `obsctl` against real output.
fn write_obs_artifacts(artifacts: &ObsSmokeArtifacts, chaos: &FleetRun) {
    let Ok(dir) = std::env::var("OBS_SMOKE_DIR") else {
        return;
    };
    let dir = std::path::Path::new(&dir);
    for (name, bytes) in [
        ("fleet_serial.jsonl", &artifacts.serial_jsonl),
        ("fleet_rerun.jsonl", &artifacts.rerun_jsonl),
        ("fleet_fixed2.jsonl", &artifacts.fixed2_jsonl),
        ("metrics.prom", &artifacts.metrics_text),
        ("tree.txt", &artifacts.tree_text),
        ("fleet_chaos.jsonl", &chaos.events_jsonl()),
    ] {
        std::fs::write(dir.join(name), bytes)
            .unwrap_or_else(|e| panic!("write {}/{name}: {e}", dir.display()));
    }
}

/// The CI gate runner (`bench --smoke`): every gate set, each fleet
/// configuration run once as a triple (serial ×2, `Fixed(2)`). The plain
/// triple feeds the fleet and obs gates, the chaos triple the chaos gates.
fn smoke() -> bool {
    let mut ok = rank_models_smoke();
    ok &= scenario_smoke();

    let grid = smoke_grid();
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
    let plain = run_triple(&grid, &families, &ExecPolicy::default());
    let fleet = FleetReport::check(&families, &plain);
    ok &= write_baseline(
        "BENCH_fleet.json",
        fleet.gates_pass(),
        &fleet.summary(),
        &fleet.to_json(),
    );
    let (obs, artifacts) = ObsSmokeReport::check(&families, &plain);
    ok &= write_baseline(
        "BENCH_obs.json",
        obs.gates_pass(),
        &obs.summary(),
        &obs.to_json(),
    );

    // Forced panics are the *point* of the chaos triple; the supervisor
    // catches every one. Silence the default hook so CI logs carry the
    // verdict, not dozens of intentional backtraces.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaos_runs = run_triple(&grid, &families, &chaos_policy());
    std::panic::set_hook(hook);
    write_obs_artifacts(&artifacts, &chaos_runs[0]);
    let chaos = ChaosReport::check(&families, &chaos_runs);
    ok &= write_baseline(
        "BENCH_chaos.json",
        chaos.gates_pass(),
        &chaos.summary(),
        &chaos.to_json(),
    );
    ok
}

/// The 360-cell full sweep (the smoke families plus the quartic) with
/// the repeatability gates → `BENCH_fleet_full.json`.
fn full_fleet() -> bool {
    let families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let runs = run_triple(&full_grid(), &families, &ExecPolicy::default());
    let report = FleetReport::check(&families, &runs);
    write_baseline(
        "BENCH_fleet_full.json",
        report.gates_pass(),
        &report.summary(),
        &report.to_json(),
    )
}

/// The default mode: timed serial-vs-parallel baselines.
fn micro_bench() -> bool {
    println!(
        "predictive-resilience micro-bench (warmup {WARMUP}, min of {SAMPLES}, {} cores)",
        cores()
    );
    let mut ok = true;
    ok &= write_report("BENCH_fitting.json", &bench_fitting());
    ok &= write_report("BENCH_bootstrap.json", &bench_bootstrap());
    ok &= write_scenario_report("BENCH_scenarios.json", &bench_scenarios());
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => micro_bench(),
        ["--smoke"] => smoke(),
        ["--scenarios"] => write_scenario_report("BENCH_scenarios.json", &bench_scenarios()),
        ["fleet"] => full_fleet(),
        _ => {
            eprintln!("usage: bench [--smoke | --scenarios | fleet]");
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
