//! End-to-end tests for the `obsctl` binary: each subcommand is run as a
//! real subprocess against synthetic JSONL logs, pinning the exit-code
//! contract (0 ok/identical, 1 diff found, 2 usage/IO/parse errors).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A synthetic two-cell fleet log: each cell fits Quadratic then Glacial,
/// each fit inside the `job` frame that names its cell.
const LOG: &str = "\
{\"ev\":\"job\",\"cell\":0,\"family\":\"Quadratic\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Quadratic\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":12}\n\
{\"ev\":\"fit_finished\",\"family\":\"Quadratic\",\"sse\":0.5,\"evals\":12,\"converged\":true}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":12}\n\
{\"ev\":\"job\",\"cell\":0,\"family\":\"Glacial\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Glacial\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":30}\n\
{\"ev\":\"fit_finished\",\"family\":\"Glacial\",\"sse\":1.5,\"evals\":30,\"converged\":false}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":30}\n\
{\"ev\":\"job\",\"cell\":1,\"family\":\"Quadratic\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Quadratic\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":8}\n\
{\"ev\":\"fit_finished\",\"family\":\"Quadratic\",\"sse\":0.25,\"evals\":8,\"converged\":true}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":8}\n\
{\"ev\":\"job\",\"cell\":1,\"family\":\"Glacial\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Glacial\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":40}\n\
{\"ev\":\"fit_finished\",\"family\":\"Glacial\",\"sse\":2.5,\"evals\":40,\"converged\":false}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":40}\n";

/// `LOG` with one field changed (the second Glacial fit's eval count).
const LOG_DRIFTED: &str = "\
{\"ev\":\"job\",\"cell\":0,\"family\":\"Quadratic\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Quadratic\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":12}\n\
{\"ev\":\"fit_finished\",\"family\":\"Quadratic\",\"sse\":0.5,\"evals\":12,\"converged\":true}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":12}\n\
{\"ev\":\"job\",\"cell\":0,\"family\":\"Glacial\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Glacial\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":30}\n\
{\"ev\":\"fit_finished\",\"family\":\"Glacial\",\"sse\":1.5,\"evals\":30,\"converged\":false}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":30}\n\
{\"ev\":\"job\",\"cell\":1,\"family\":\"Quadratic\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Quadratic\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":8}\n\
{\"ev\":\"fit_finished\",\"family\":\"Quadratic\",\"sse\":0.25,\"evals\":8,\"converged\":true}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":8}\n\
{\"ev\":\"job\",\"cell\":1,\"family\":\"Glacial\"}\n\
{\"ev\":\"fit_started\",\"family\":\"Glacial\",\"starts\":3}\n\
{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":44}\n\
{\"ev\":\"fit_finished\",\"family\":\"Glacial\",\"sse\":2.5,\"evals\":44,\"converged\":false}\n\
{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":44}\n";

/// Writes `contents` to a unique file under the target temp dir and
/// returns its path.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("obsctl-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

fn obsctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obsctl"))
        .args(args)
        .output()
        .expect("run obsctl")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn report_renders_the_family_table() {
    let log = fixture("report.jsonl", LOG);
    let out = obsctl(&["report", log.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("Quadratic"), "missing family: {text}");
    assert!(text.contains("Glacial"), "missing family: {text}");
    let json = obsctl(&["report", log.to_str().unwrap(), "--json"]);
    assert_eq!(code(&json), 0);
    assert!(stdout(&json).contains("\"families\""));
}

#[test]
fn tree_reconstructs_cells_and_honors_depth_and_cells_flags() {
    let log = fixture("tree.jsonl", LOG);
    let out = obsctl(&["tree", log.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(
        text.starts_with("fleet: 2 cells, 4 fits, 90 evals"),
        "unexpected header: {text}"
    );
    assert!(text.contains("cell 0: 2 fits"));
    assert!(text.contains("  Quadratic: evals=12"));

    let shallow = stdout(&obsctl(&[
        "tree",
        log.to_str().unwrap(),
        "--cells",
        "1",
        "--depth",
        "1",
    ]));
    assert!(shallow.contains("cell 0:"));
    assert!(!shallow.contains("cell 1:"), "cells cap ignored: {shallow}");
    assert!(shallow.contains("(1 more cells)"));
    assert!(
        !shallow.contains("Quadratic:"),
        "depth cap ignored: {shallow}"
    );
}

#[test]
fn top_ranks_hottest_cells_and_families() {
    let log = fixture("top.jsonl", LOG);
    let out = obsctl(&["top", log.to_str().unwrap(), "--limit", "1"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    // Cell 1 (8 + 40 evals) outworks cell 0 (12 + 30); Glacial (70)
    // outworks Quadratic (20).
    assert!(text.contains("cell 1"), "wrong hottest cell: {text}");
    assert!(!text.contains("cell 0"), "limit ignored: {text}");
    assert!(text.contains("Glacial"), "wrong hottest family: {text}");

    let by_retries = obsctl(&["top", log.to_str().unwrap(), "--by", "retries"]);
    assert_eq!(code(&by_retries), 0);
    assert!(stdout(&by_retries).contains("retries="));
}

#[test]
fn diff_of_identical_logs_is_empty_with_exit_zero() {
    let a = fixture("diff-a.jsonl", LOG);
    let b = fixture("diff-b.jsonl", LOG);
    let out = obsctl(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).is_empty(), "identical diff must print nothing");

    let report = obsctl(&["diff", a.to_str().unwrap(), b.to_str().unwrap(), "--report"]);
    assert_eq!(code(&report), 0);
    assert!(stdout(&report).is_empty());
}

#[test]
fn diff_of_drifted_logs_names_the_field_with_exit_one() {
    let a = fixture("drift-a.jsonl", LOG);
    let b = fixture("drift-b.jsonl", LOG_DRIFTED);
    let out = obsctl(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let text = stdout(&out);
    assert!(text.contains("line 18"), "wrong line: {text}");
    assert!(text.contains("n: 40 -> 44"), "field not localized: {text}");

    let report = obsctl(&["diff", a.to_str().unwrap(), b.to_str().unwrap(), "--report"]);
    assert_eq!(code(&report), 1);
    let text = stdout(&report);
    assert!(
        text.contains("family.Glacial.evaluations"),
        "report diff missing path: {text}"
    );
}

#[test]
fn export_emits_the_metrics_exposition() {
    let log = fixture("export.jsonl", LOG);
    let out = obsctl(&["export", log.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("resilience_events_total 20"));
    assert!(text.contains("resilience_objective_evals_total 90"));
    assert!(text.contains("resilience_family_evaluations_total{family=\"Glacial\"} 70"));
    assert!(text.contains("# TYPE resilience_evals_per_fit histogram"));
    // Deterministic: a second export renders identical bytes.
    assert_eq!(text, stdout(&obsctl(&["export", log.to_str().unwrap()])));
}

#[test]
fn usage_and_io_errors_exit_two() {
    assert_eq!(code(&obsctl(&[])), 2);
    assert_eq!(code(&obsctl(&["bogus"])), 2);
    assert_eq!(code(&obsctl(&["tree"])), 2);
    assert_eq!(code(&obsctl(&["diff", "only-one.jsonl"])), 2);
    assert_eq!(code(&obsctl(&["report", "/nonexistent/run.jsonl"])), 2);
    let malformed = fixture("malformed.jsonl", "{\"ev\":\"not_a_real_event\"}\n");
    assert_eq!(code(&obsctl(&["tree", malformed.to_str().unwrap()])), 2);
    let bad_flag = obsctl(&["tree", "x.jsonl", "--cells", "many"]);
    assert_eq!(code(&bad_flag), 2);
}

#[test]
fn unreadable_log_error_names_the_path() {
    let out = obsctl(&["report", "/nonexistent/obsctl/input.jsonl"]);
    assert_eq!(code(&out), 2);
    let text = stderr(&out);
    assert!(
        text.contains("/nonexistent/obsctl/input.jsonl"),
        "stderr must name the missing path: {text}"
    );
}

#[test]
fn malformed_line_error_names_its_line_number() {
    // A line that is not JSON, and a per-iteration line from the old log
    // format: solvers no longer write one, so its tag is unknown.
    let cases = [
        ("malformed-line.jsonl", "this is not json", "line 21"),
        (
            "iteration-line.jsonl",
            r#"{"ev":"iteration","solver":"nm","iter":1,"evals":3,"best":0.5}"#,
            r#"line 21: unknown event tag "iteration""#,
        ),
    ];
    for (name, line, expected) in cases {
        let log = fixture(name, &format!("{LOG}{line}\n"));
        let out = obsctl(&["report", log.to_str().unwrap()]);
        assert_eq!(code(&out), 2, "{name}");
        let text = stderr(&out);
        assert!(
            text.contains(expected),
            "stderr must name the line and its error: {text}"
        );
    }
}

#[test]
fn a_huge_cell_index_renders_one_cell() {
    // A cell index is an id, not a length: the tree never allocates
    // cells up to it.
    let log = fixture(
        "huge-cell.jsonl",
        "{\"ev\":\"cell_quarantined\",\"cell\":4000000000,\"failures\":1}\n",
    );
    let tree = obsctl(&["tree", log.to_str().unwrap()]);
    assert_eq!(code(&tree), 0, "{}", stderr(&tree));
    let text = stdout(&tree);
    assert!(text.starts_with("fleet: 1 cells, 0 fits"), "{text}");
    assert!(text.contains("cell 4000000000: 0 fits"), "{text}");
    let top = obsctl(&["top", log.to_str().unwrap()]);
    assert_eq!(code(&top), 0, "{}", stderr(&top));
    assert!(stdout(&top).contains("cell 4000000000"), "{}", stdout(&top));
}

#[test]
fn overflowing_integer_field_exits_two_without_a_panic() {
    // `1e300` has a zero fraction; a saturating `as u64` cast would have
    // fed u64::MAX into the report instead of rejecting the line.
    let log = fixture(
        "overflow.jsonl",
        "{\"ev\":\"hist\",\"id\":\"evals_per_fit\",\"value\":1e300}\n",
    );
    let out = obsctl(&["report", log.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    let text = stderr(&out);
    assert!(text.contains("line 1"), "stderr: {text}");
    assert!(!text.contains("panicked"), "must fail cleanly: {text}");
}

#[test]
fn work_totals_past_u64_max_saturate_in_the_report() {
    // Each line parses, but the two deltas sum past u64::MAX: the report
    // saturates the total instead of panicking on overflow.
    let line = "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":18446744073709549568}\n";
    let log = fixture("saturate.jsonl", &line.repeat(2));
    let out = obsctl(&["report", log.to_str().unwrap(), "--json"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(
        stdout(&out).contains(&u64::MAX.to_string()),
        "{}",
        stdout(&out)
    );
}

/// The log of a raced mixture fit (DESIGN.md §11, "Racing the starts"):
/// `obsctl tree` shows each start that lost at the cut with the exit
/// reason `retired`, and charges its work to its fit, so the fit's
/// evaluations are all of the fit's and none is unattributed.
#[test]
fn tree_shows_the_retired_starts_of_a_raced_fit() {
    use resilience_core::fit::{fit_least_squares_with, FitConfig};
    use resilience_core::mixture::MixtureFamily;
    use resilience_core::runtime::Control;
    use resilience_data::recessions::Recession;
    use resilience_obs::JsonlObserver;
    use std::sync::Arc;

    let sink = Arc::new(JsonlObserver::new(Vec::new()));
    let fit = fit_least_squares_with(
        &MixtureFamily::paper_combinations()[3],
        &Recession::R1990_93.payroll_index(),
        &FitConfig::default(),
        &Control::unbounded().observe(sink.clone()),
    )
    .expect("Wei-Wei fits 1990-93");
    let (bytes, dropped) = Arc::into_inner(sink).expect("one owner").into_parts();
    assert_eq!(dropped, 0);
    let log = fixture("raced.jsonl", &String::from_utf8(bytes).expect("utf8 log"));
    let out = obsctl(&["tree", log.to_str().unwrap(), "--depth", "4"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with(&format!(
            "fleet: 1 cells, 1 fits, {} evals, 0 retries, 0 unattributed evals",
            fit.total_evaluations
        )),
        "{text}"
    );
    let retired = text.matches("exit=retired").count();
    assert!(
        (1..10).contains(&retired),
        "{retired} retired starts: {text}"
    );
}
