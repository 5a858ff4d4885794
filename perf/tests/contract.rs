//! Runs every workload, untraced and traced, at the smallest size
//! (`--seconds 0`) and checks the output against `BENCHMARK.json`: the
//! metric names and units, exact work counts that repeat across runs, and
//! each workload's known share of failed family fits.

use resilience_perf::clock::Stopwatch;
use resilience_perf::json::{self, Json};
use resilience_perf::workloads::Workload;
use std::process::Command;

struct Run {
    notes: Vec<String>,
    result: Json,
}

fn perf(workload: Workload, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "42",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perf starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().expect("a result line");
    let result = json::parse(&last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{last}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    Run {
        notes: lines,
        result,
    }
}

/// `(name, unit)` of every metric a run printed, in order.
fn printed(run: &Run) -> Vec<(String, String)> {
    run.result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {m:?}");
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn value(run: &Run, name: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn fail_frac(run: &Run) -> &str {
    run.notes
        .iter()
        .flat_map(|l| l.split_whitespace())
        .find_map(|w| w.strip_prefix("fail_frac="))
        .expect("a fail_frac note")
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn every_workload_meets_the_benchmark_contract() {
    let watch = Stopwatch::start();
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(is_metric_name(name), "bad metric name {name}");
    }
    let listed: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("a workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);

    let expected_failures = [
        (Workload::RecessionRank, "0/168"),
        (Workload::ScenarioFleet, "3/1080"),
        (Workload::BootstrapBand, "0/200"),
        (Workload::TracedChaosFleet, "136/384"),
    ];
    let mut traced = Vec::new();
    for (workload, failures) in expected_failures {
        let run = perf(workload, false);
        assert_eq!(printed(&run), end_to_end, "{}", workload.name());
        assert_eq!(fail_frac(&run), failures, "{}", workload.name());
        let run = perf(workload, true);
        assert_eq!(printed(&run), per_layer, "{}", workload.name());
        assert_eq!(fail_frac(&run), failures, "{}", workload.name());
        traced.push(run);
    }

    // The probes are the same in every traced run, so their exact work
    // counts must repeat run after run.
    let exact: Vec<&String> = per_layer
        .iter()
        .map(|(name, _)| name)
        .filter(|n| {
            n.ends_with(".evals")
                || n.ends_with(".winner_evals")
                || (n.starts_with("runtime.") && !n.ends_with("_frac"))
                || n.as_str() == "obs.events_per_cell"
                || n.as_str() == "obs.jsonl_bytes_per_cell"
        })
        .collect();
    assert!(exact.len() >= 20, "{exact:?}");
    for run in &traced[1..] {
        for name in &exact {
            assert_eq!(value(run, name), value(&traced[0], name), "{name}");
        }
    }
    assert!(
        watch.elapsed_s() < 60.0,
        "contract runs took {:.1} s",
        watch.elapsed_s()
    );
}
