//! The gate runner: every determinism and work gate of the workspace in
//! one run, each writing its baseline only when its own gates pass.
//!
//! ```sh
//! cargo run --release -p resilience-bench --bin bench -- --smoke
//! ```
//!
//! `--smoke` is the only invocation. In order, it runs
//!
//! 1. the `rank_models` gate over the six paper families on 1990-93:
//!    serial vs `Fixed(2)` bit-identity, the median evals-per-fit and each
//!    family's evaluations under their ceilings → `BENCH_fitting.json`;
//! 2. the `bootstrap_band` gate: serial vs `Fixed(2)` bit-identity of the
//!    200-replicate Quadratic band → `BENCH_bootstrap.json`;
//! 3. the canonical scenario guard;
//! 4. one plain and one chaos triple of the 64-cell fleet, checked by the
//!    fleet, obs and chaos gate sets → `BENCH_fleet.json`,
//!    `BENCH_obs.json`, `BENCH_chaos.json`;
//! 5. the repeatability gates over a triple of the 360-cell fleet →
//!    `BENCH_fleet_full.json`.
//!
//! Every baseline records counts, bits and verdicts, never a clock, so a
//! second run rewrites each one byte for byte; timings come from `perf`,
//! the repository benchmark. With `OBS_SMOKE_DIR` set, the plain triple's
//! logs and renders and the chaos triple's canonical log land there.
//!
//! Exit status: 0 when every gate passed, 1 when a gate failed, 2 for a
//! usage error, an unusable `OBS_SMOKE_DIR` or a failed write.

use resilience_bench::chaos::{chaos_policy, ChaosReport};
use resilience_bench::fleet::{full_grid, run_triple, smoke_grid, FleetReport, FleetRun};
use resilience_bench::harness::{evals_per_fit, median_u64, WorkReport};
use resilience_bench::obs_smoke::{ObsSmokeArtifacts, ObsSmokeReport};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::{
    bootstrap_band, bootstrap_band_with, BootstrapBand, BootstrapConfig,
};
use resilience_core::fit::FitConfig;
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy};
use resilience_core::selection::{rank_models, Ranking};
use resilience_data::recessions::Recession;
use resilience_data::scenario::catalog;
use resilience_obs::{RecordingObserver, RunReport};
use resilience_optim::Parallelism;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Exit code for usage and IO errors, as in `obsctl` (1 is a failed
/// gate).
const FAILURE: u8 = 2;

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
/// for the `BENCH_*.json` baseline.
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

/// Writes `bytes` to `path`, reporting a failure on stderr.
fn write(path: &Path, bytes: &[u8]) -> Result<(), ExitCode> {
    std::fs::write(path, bytes).map_err(|e| {
        eprintln!("bench: write {}: {e}", path.display());
        ExitCode::from(FAILURE)
    })
}

/// Writes one baseline when its own gates pass, or refuses — without
/// touching the committed file — when they do not: a broken determinism
/// contract must never silently replace a good baseline with a tainted
/// one. Prints the one-line verdict either way.
fn write_baseline(path: &str, pass: bool, verdict: &str, json: &str) -> Result<bool, ExitCode> {
    if !pass {
        eprintln!("{verdict}\n  gates failed — refusing to overwrite {path}");
        return Ok(false);
    }
    write(Path::new(path), json.as_bytes())?;
    println!("{verdict} -> {path}");
    Ok(true)
}

/// CI ceiling for the median evals-per-fit of one `rank_models` pass
/// over the six paper families on 1990-93.
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

/// The work half of the `rank_models` gate: the median of the observed
/// evals-per-fit must stay under [`SMOKE_EVALS_PER_FIT_CEILING`] and each
/// family's evaluations under its [`SMOKE_FAMILY_EVAL_CEILINGS`] entry.
/// Returns one message per broken gate. An empty list of observations, a
/// ceiling family the pass never reported and an observed family without
/// a ceiling each break it too, so a pass that lost its observer or a
/// renamed family cannot pass every ceiling with zero work.
fn work_gate_failures(evals_per_fit: &[u64], per_family: &[(String, u64)]) -> Vec<String> {
    let mut failures = Vec::new();
    match median_u64(evals_per_fit) {
        None => failures.push("evals_per_fit is empty: the observed pass recorded no fit".into()),
        Some(median) if median > SMOKE_EVALS_PER_FIT_CEILING => failures.push(format!(
            "median evals-per-fit {median} exceeds ceiling {SMOKE_EVALS_PER_FIT_CEILING}"
        )),
        Some(_) => {}
    }
    for &(name, ceiling) in &SMOKE_FAMILY_EVAL_CEILINGS {
        match per_family.iter().find(|(family, _)| family == name) {
            None => failures.push(format!("{name} is missing from the observed pass")),
            Some(&(_, used)) if used > ceiling => failures.push(format!(
                "{name} spent {used} evaluations, over its ceiling {ceiling}"
            )),
            Some(_) => {}
        }
    }
    for (name, _) in per_family {
        if !SMOKE_FAMILY_EVAL_CEILINGS.iter().any(|&(c, _)| c == name) {
            failures.push(format!("{name} has no evaluation ceiling"));
        }
    }
    failures
}

/// The `rank_models` gate → `BENCH_fitting.json`: one
/// serial-vs-`Fixed(2)` comparison over the six paper families on
/// 1990-93 must be bit-identical, and one observed serial pass must pass
/// [`work_gate_failures`]. The observed pass also supplies the baseline's
/// counters and per-family evaluations; supervised ranking under the
/// default policy is numerically identical to plain `rank_models`.
fn rank_models_gate() -> Result<bool, ExitCode> {
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
    if !identical {
        eprintln!("rank_models: serial vs Fixed(2) outputs differ — determinism broken");
    }

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
    let observed = RunReport::from_events(events);
    let per_family: Vec<(String, u64)> = observed
        .families
        .iter()
        .map(|f| (f.name.to_string(), f.evaluations))
        .collect();
    let failures = work_gate_failures(&evals, &per_family);
    for failure in &failures {
        eprintln!("rank_models: {failure}");
    }

    let budget: Vec<String> = SMOKE_FAMILY_EVAL_CEILINGS
        .iter()
        .map(
            |&(name, ceiling)| match per_family.iter().find(|(family, _)| family == name) {
                Some((_, used)) => format!("{name}={used}/{ceiling}"),
                None => format!("{name}=missing/{ceiling}"),
            },
        )
        .collect();
    let verdict = format!(
        "rank_models identical={identical} evals_per_fit={evals:?} median={} (ceiling {SMOKE_EVALS_PER_FIT_CEILING}) evals=[{}]",
        median_u64(&evals).map_or_else(|| "none".to_string(), |m| m.to_string()),
        budget.join(", ")
    );
    let report = WorkReport {
        benchmark: "rank_models".into(),
        identical,
        counters: run_counters(&observed),
        evals_per_fit: evals,
        per_family,
        context: vec![
            ("series".into(), "1990-93 payroll index".into()),
            ("families".into(), families.len().to_string()),
        ],
    };
    write_baseline(
        "BENCH_fitting.json",
        identical && failures.is_empty(),
        &verdict,
        &report.to_json(),
    )
}

/// The `bootstrap_band` gate → `BENCH_bootstrap.json`: the default
/// 200-replicate Quadratic band on 1990-93 must be bit-identical serial
/// and with `Fixed(2)` workers. One observed serial pass supplies the
/// baseline's counters (replicates ok/failed, base-fit evaluations).
fn bootstrap_gate() -> Result<bool, ExitCode> {
    let series = Recession::R1990_93.payroll_index();
    let fit_config = FitConfig::default();
    let config = |p: Parallelism| BootstrapConfig {
        parallelism: p,
        ..BootstrapConfig::default()
    };
    let band = |p: Parallelism| {
        bootstrap_band(&QuadraticFamily, &series, &fit_config, &config(p)).expect("bootstrap_band")
    };
    let identical = bands_identical(&band(Parallelism::Serial), &band(Parallelism::Fixed(2)));
    if !identical {
        eprintln!("bootstrap_band: serial vs Fixed(2) bands differ — determinism broken");
    }

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
    let replicates = BootstrapConfig::default().replicates;
    let report = WorkReport {
        benchmark: "bootstrap_band".into(),
        identical,
        evals_per_fit: evals_per_fit(&events),
        counters: run_counters(&RunReport::from_events(events)),
        per_family: Vec::new(),
        context: vec![
            ("series".into(), "1990-93 payroll index".into()),
            ("family".into(), "Quadratic".into()),
            ("replicates".into(), replicates.to_string()),
        ],
    };
    let verdict = format!(
        "bootstrap_band identical={identical} replicates={replicates} evals_per_fit={:?}",
        report.evals_per_fit
    );
    write_baseline(
        "BENCH_bootstrap.json",
        identical,
        &verdict,
        &report.to_json(),
    )
}

/// The canonical scenario guard: the canonical scenario set must
/// generate deterministically (two generations are bit-identical) and
/// rank deterministically (serial vs `Fixed(2)` supervised rankings
/// bit-identical) for every scenario.
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

/// Writes the plain triple's logs and renders, and the chaos triple's
/// canonical log, to `dir`, so CI can exercise `obsctl` against real
/// output.
fn write_obs_artifacts(
    dir: &Path,
    artifacts: &ObsSmokeArtifacts,
    chaos: &FleetRun,
) -> Result<(), ExitCode> {
    for (name, bytes) in [
        ("fleet_serial.jsonl", &artifacts.serial_jsonl),
        ("fleet_rerun.jsonl", &artifacts.rerun_jsonl),
        ("fleet_fixed2.jsonl", &artifacts.fixed2_jsonl),
        ("metrics.prom", &artifacts.metrics_text),
        ("tree.txt", &artifacts.tree_text),
        ("fleet_chaos.jsonl", &chaos.events_jsonl()),
    ] {
        write(&dir.join(name), bytes.as_bytes())?;
    }
    Ok(())
}

/// Every gate set, in the order of the module docs. A failed gate keeps
/// the run going, so one run reports every broken gate; a failed write
/// stops it.
fn smoke(obs_dir: Option<&Path>) -> Result<bool, ExitCode> {
    let mut ok = rank_models_gate()?;
    ok &= bootstrap_gate()?;
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
    )?;
    let (obs, artifacts) = ObsSmokeReport::check(&families, &plain);
    ok &= write_baseline(
        "BENCH_obs.json",
        obs.gates_pass(),
        &obs.summary(),
        &obs.to_json(),
    )?;

    // Forced panics are the *point* of the chaos triple; the supervisor
    // catches every one. Silence the default hook so CI logs carry the
    // verdict, not dozens of intentional backtraces.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaos_runs = run_triple(&grid, &families, &chaos_policy());
    std::panic::set_hook(hook);
    if let Some(dir) = obs_dir {
        write_obs_artifacts(dir, &artifacts, &chaos_runs[0])?;
    }
    let chaos = ChaosReport::check(&families, &chaos_runs);
    ok &= write_baseline(
        "BENCH_chaos.json",
        chaos.gates_pass(),
        &chaos.summary(),
        &chaos.to_json(),
    )?;

    // The 360-cell sweep: the smoke families plus the quartic.
    let families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let full = FleetReport::check(
        &families,
        &run_triple(&full_grid(), &families, &ExecPolicy::default()),
    );
    ok &= write_baseline(
        "BENCH_fleet_full.json",
        full.gates_pass(),
        &full.summary(),
        &full.to_json(),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--smoke"] {
        eprintln!("usage: bench --smoke");
        return ExitCode::from(FAILURE);
    }
    // Checked before any gate runs, so an unusable directory cannot stop
    // the run halfway with some baselines rewritten and others not.
    let obs_dir = std::env::var_os("OBS_SMOKE_DIR").map(std::path::PathBuf::from);
    if let Some(dir) = &obs_dir {
        if !dir.is_dir() {
            eprintln!("bench: OBS_SMOKE_DIR {}: not a directory", dir.display());
            return ExitCode::from(FAILURE);
        }
    }
    match smoke(obs_dir.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(code) => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1990-93 observations: evals per fit, and each paper family's
    /// evaluations.
    fn observed() -> (Vec<u64>, Vec<(String, u64)>) {
        let per_family = [
            ("Quadratic", 746),
            ("Competing Risks", 1_734),
            ("Exp-Exp", 981),
            ("Wei-Exp", 1_751),
            ("Exp-Wei", 1_851),
            ("Wei-Wei", 6_902),
        ];
        (
            vec![263, 194, 130, 182, 182, 344],
            per_family
                .iter()
                .map(|&(name, evals)| (name.to_string(), evals))
                .collect(),
        )
    }

    #[test]
    fn work_gate_passes_the_committed_profile_and_fails_over_a_ceiling() {
        let (mut evals, mut per_family) = observed();
        assert!(work_gate_failures(&evals, &per_family).is_empty());
        per_family[2].1 = 4_839;
        evals.iter_mut().for_each(|e| *e += 2_000);
        assert_eq!(
            work_gate_failures(&evals, &per_family),
            [
                "median evals-per-fit 2188 exceeds ceiling 1200",
                "Exp-Exp spent 4839 evaluations, over its ceiling 1500",
            ]
        );
    }

    #[test]
    fn work_gate_fails_on_a_missing_family_or_an_empty_list() {
        let (evals, per_family) = observed();
        assert_eq!(
            work_gate_failures(&[], &per_family),
            ["evals_per_fit is empty: the observed pass recorded no fit"]
        );
        let mut renamed = per_family.clone();
        renamed[5].0 = "Weibull-Weibull".into();
        assert_eq!(
            work_gate_failures(&evals, &renamed),
            [
                "Wei-Wei is missing from the observed pass",
                "Weibull-Weibull has no evaluation ceiling",
            ]
        );
        assert_eq!(
            work_gate_failures(&evals, &per_family[..5]),
            ["Wei-Wei is missing from the observed pass"]
        );
    }
}
