//! Observability control tool: query, diff, and export JSONL telemetry
//! logs produced by [`resilience_obs::JsonlObserver`].
//!
//! ```sh
//! obsctl report <run.jsonl> [--json]          # per-family run report
//! obsctl tree <run.jsonl> [--cells N] [--depth N]  # span-tree render
//! obsctl top <run.jsonl> [--by evals|retries] [--limit K]
//! obsctl diff <a.jsonl> <b.jsonl> [--report]  # empty output ⇔ identical
//! obsctl export <run.jsonl>                   # Prometheus-style metrics
//! ```
//!
//! Everything here replays a recorded log; nothing re-runs a fit, so the
//! tool works on logs from any machine and any session. `report`
//! aggregates the log into the per-family run report; the other
//! subcommands are the analysis plane on top:
//! `tree` reconstructs the fleet → cell → fit → attempt → solver
//! hierarchy from logical clocks alone, `top` ranks the hottest
//! cells/families by attributed work, `diff` compares two logs line- and
//! field-wise (or their aggregated reports with `--report`), and
//! `export` renders the deterministic metrics exposition.
//!
//! Exit status: 0 on success (for `diff`: the inputs are identical),
//! 1 when `diff` found differences, 2 for usage errors, unreadable
//! files, or malformed logs.

use resilience_obs::{
    diff_logs, diff_reports, parse_log, render_field_diffs, render_line_diffs, Event,
    MetricsSnapshot, RunReport, SpanTree, WorkMetric,
};
use std::process::ExitCode;

/// Exit code for usage/IO/parse errors (1 is reserved for "diff found").
const FAILURE: u8 = 2;

/// Writes `text` to stdout. A closed pipe (the downstream reader exited,
/// e.g. `obsctl tree … | head`) is a normal unix condition, not an
/// error: the rest of the output is dropped and the command's own exit
/// code stands. Any other write failure exits 2.
fn emit(text: &str) -> Result<(), ExitCode> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => {
            eprintln!("obsctl: write stdout: {e}");
            Err(ExitCode::from(FAILURE))
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: obsctl <command> [args]");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  report <run.jsonl> [--json]            aggregate the log into a run report");
    eprintln!("  tree   <run.jsonl> [--cells N] [--depth N]");
    eprintln!("                                         render the span tree (depth 1-4)");
    eprintln!("  top    <run.jsonl> [--by evals|retries] [--limit K]");
    eprintln!("                                         hottest cells and families by work");
    eprintln!("  diff   <a.jsonl> <b.jsonl> [--report]  compare two logs (or their reports);");
    eprintln!("                                         empty output and exit 0 iff identical");
    eprintln!("  export <run.jsonl>                     Prometheus-style metrics exposition");
    ExitCode::from(FAILURE)
}

/// Reads and parses one JSONL log, reporting errors on stderr.
fn load(path: &str) -> Result<Vec<Event>, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("obsctl: read {path}: {e}");
        ExitCode::from(FAILURE)
    })?;
    parse_log(&text).map_err(|e| {
        eprintln!("obsctl: {path}: {e}");
        ExitCode::from(FAILURE)
    })
}

/// Parses a flag's value argument (`--cells 8`) as a `usize`.
fn parse_count(flag: &str, value: Option<&String>) -> Result<usize, ExitCode> {
    let Some(value) = value else {
        eprintln!("obsctl: {flag} needs a value");
        return Err(ExitCode::from(FAILURE));
    };
    value.parse().map_err(|_| {
        eprintln!("obsctl: {flag} {value}: not a number");
        ExitCode::from(FAILURE)
    })
}

fn cmd_report(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            _ if arg.starts_with('-') => {
                eprintln!("obsctl: report: unknown flag {arg}");
                return usage();
            }
            _ if path.is_some() => {
                eprintln!("obsctl: report: more than one log path given");
                return usage();
            }
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else { return usage() };
    let events = match load(path) {
        Ok(events) => events,
        Err(code) => return code,
    };
    let report = RunReport::from_events(events);
    let text = if json {
        format!("{}\n", report.to_json())
    } else {
        report.render_table()
    };
    match emit(&text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn cmd_tree(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut max_cells = usize::MAX;
    let mut max_depth = 4usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cells" => match parse_count("--cells", iter.next()) {
                Ok(n) => max_cells = n,
                Err(code) => return code,
            },
            "--depth" => match parse_count("--depth", iter.next()) {
                Ok(n) => max_depth = n,
                Err(code) => return code,
            },
            _ if arg.starts_with('-') => {
                eprintln!("obsctl: tree: unknown flag {arg}");
                return usage();
            }
            _ if path.is_some() => {
                eprintln!("obsctl: tree: more than one log path given");
                return usage();
            }
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else { return usage() };
    let events = match load(path) {
        Ok(events) => events,
        Err(code) => return code,
    };
    match emit(&SpanTree::build(&events).render(max_cells, max_depth)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn cmd_top(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut metric = WorkMetric::Evaluations;
    let mut limit = 10usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--by" => match iter.next().map(String::as_str) {
                Some("evals") => metric = WorkMetric::Evaluations,
                Some("retries") => metric = WorkMetric::Retries,
                Some(other) => {
                    eprintln!("obsctl: top: --by {other}: expected evals or retries");
                    return ExitCode::from(FAILURE);
                }
                None => {
                    eprintln!("obsctl: top: --by needs a value");
                    return ExitCode::from(FAILURE);
                }
            },
            "--limit" => match parse_count("--limit", iter.next()) {
                Ok(n) => limit = n,
                Err(code) => return code,
            },
            _ if arg.starts_with('-') => {
                eprintln!("obsctl: top: unknown flag {arg}");
                return usage();
            }
            _ if path.is_some() => {
                eprintln!("obsctl: top: more than one log path given");
                return usage();
            }
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else { return usage() };
    let events = match load(path) {
        Ok(events) => events,
        Err(code) => return code,
    };
    let tree = SpanTree::build(&events);
    let unit = match metric {
        WorkMetric::Evaluations => "evals",
        WorkMetric::Retries => "retries",
    };
    use std::fmt::Write;
    let mut text = String::new();
    let _ = writeln!(text, "hottest cells by {unit}:");
    for (cell, work) in tree.hottest_cells(limit, metric) {
        let _ = writeln!(text, "  cell {cell:<6} {unit}={work}");
    }
    let _ = writeln!(text, "hottest families by {unit}:");
    for (family, work) in tree.hottest_families(limit, metric) {
        let _ = writeln!(text, "  {family:<28} {unit}={work}");
    }
    match emit(&text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// How many differing lines `diff` prints before summarizing the rest.
const DIFF_LIMIT: usize = 20;

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut as_report = false;
    for arg in args {
        match arg.as_str() {
            "--report" => as_report = true,
            _ if arg.starts_with('-') => {
                eprintln!("obsctl: diff: unknown flag {arg}");
                return usage();
            }
            _ => paths.push(arg),
        }
    }
    let [left_path, right_path] = paths.as_slice() else {
        eprintln!("obsctl: diff needs exactly two log paths");
        return usage();
    };
    if as_report {
        let (left, right) = match (load(left_path), load(right_path)) {
            (Ok(l), Ok(r)) => (l, r),
            (Err(code), _) | (_, Err(code)) => return code,
        };
        let diffs = diff_reports(
            &RunReport::from_events(left),
            &RunReport::from_events(right),
        );
        if diffs.is_empty() {
            return ExitCode::SUCCESS;
        }
        return match emit(&render_field_diffs(&diffs)) {
            Ok(()) => ExitCode::from(1),
            Err(code) => code,
        };
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("obsctl: read {path}: {e}");
            ExitCode::from(FAILURE)
        })
    };
    let (left, right) = match (read(left_path), read(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let diffs = diff_logs(&left, &right);
    if diffs.is_empty() {
        return ExitCode::SUCCESS;
    }
    match emit(&render_line_diffs(&diffs, DIFF_LIMIT)) {
        Ok(()) => ExitCode::from(1),
        Err(code) => code,
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("obsctl: export needs exactly one log path");
        return usage();
    };
    let events = match load(path) {
        Ok(events) => events,
        Err(code) => return code,
    };
    let report = RunReport::from_events(events);
    match emit(&MetricsSnapshot::from_report(&report).render()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match command.as_str() {
        "report" => cmd_report(rest),
        "tree" => cmd_tree(rest),
        "top" => cmd_top(rest),
        "diff" => cmd_diff(rest),
        "export" => cmd_export(rest),
        "-h" | "--help" => usage(),
        other => {
            eprintln!("obsctl: unknown command {other}");
            usage()
        }
    }
}
