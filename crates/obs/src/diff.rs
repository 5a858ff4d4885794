//! Byte- and field-level diffing of event logs and run reports.
//!
//! The determinism contract (DESIGN.md §10/§13) says two runs of the same
//! configuration produce byte-identical JSONL logs; [`diff_logs`] is the
//! tool that *checks* that contract and explains violations. Lines are
//! compared byte-for-byte first; for lines that differ, the flat JSON
//! objects are decomposed into raw `key: value` tokens so the output names
//! the exact fields that moved. [`diff_reports`] does the analogous
//! structural comparison on aggregated [`RunReport`]s.
//!
//! Empty output ⇔ identical inputs, so CI can gate on "diff is empty".

use crate::event::{CounterId, HistogramId};
use crate::report::RunReport;
use std::fmt::Write as _;

/// One differing field inside a line or report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Field name (JSON key, or a dotted path for report diffs).
    pub key: String,
    /// Raw value on the left side (`None` when the key is absent).
    pub left: Option<String>,
    /// Raw value on the right side (`None` when the key is absent).
    pub right: Option<String>,
}

/// One differing line between two logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDiff {
    /// 1-based line number.
    pub line: usize,
    /// The left line (`None` when the left log is shorter).
    pub left: Option<String>,
    /// The right line (`None` when the right log is shorter).
    pub right: Option<String>,
    /// Field-level decomposition when both lines exist and both parse as
    /// flat JSON objects; empty otherwise.
    pub fields: Vec<FieldDiff>,
}

/// Splits a flat (non-nested values are fine; nested objects/arrays are
/// kept as raw tokens) JSON object into `(key, raw value)` pairs in
/// document order. Returns `None` when `line` is not an object.
fn flat_fields(line: &str) -> Option<Vec<(String, String)>> {
    let bytes = line.trim().as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return None;
    }
    let inner = &line.trim()[1..line.trim().len() - 1];
    let mut fields = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        // Key: a JSON string literal.
        if !rest.starts_with('"') {
            return None;
        }
        let key_end = scan_string(rest)?;
        let key = rest[1..key_end].to_string();
        rest = rest[key_end + 1..].trim_start();
        rest = rest.strip_prefix(':')?.trim_start();
        // Value: raw token up to the next top-level comma.
        let mut depth = 0usize;
        let mut end = rest.len();
        let mut i = 0;
        while i < rest.len() {
            match rest.as_bytes()[i] {
                b'"' => i += scan_string(&rest[i..])?,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.checked_sub(1)?,
                b',' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push((key, rest[..end].trim().to_string()));
        rest = rest[end..].trim_start();
        rest = match rest.strip_prefix(',') {
            Some(r) => r.trim_start(),
            None if rest.is_empty() => rest,
            None => return None,
        };
    }
    Some(fields)
}

/// Index of the closing quote of the string literal starting at `s[0]`.
fn scan_string(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

fn field_diffs(left: &str, right: &str) -> Vec<FieldDiff> {
    let (Some(lf), Some(rf)) = (flat_fields(left), flat_fields(right)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (key, lv) in &lf {
        match rf.iter().find(|(k, _)| k == key) {
            Some((_, rv)) if rv == lv => {}
            Some((_, rv)) => out.push(FieldDiff {
                key: key.clone(),
                left: Some(lv.clone()),
                right: Some(rv.clone()),
            }),
            None => out.push(FieldDiff {
                key: key.clone(),
                left: Some(lv.clone()),
                right: None,
            }),
        }
    }
    for (key, rv) in &rf {
        if !lf.iter().any(|(k, _)| k == key) {
            out.push(FieldDiff {
                key: key.clone(),
                left: None,
                right: Some(rv.clone()),
            });
        }
    }
    out
}

/// Compares two JSONL logs line by line. Returns one entry per differing
/// line; an empty result means the logs are byte-identical (ignoring a
/// trailing newline).
pub fn diff_logs(left: &str, right: &str) -> Vec<LineDiff> {
    let l: Vec<&str> = left.lines().collect();
    let r: Vec<&str> = right.lines().collect();
    let mut out = Vec::new();
    for i in 0..l.len().max(r.len()) {
        let lv = l.get(i).copied();
        let rv = r.get(i).copied();
        if lv == rv {
            continue;
        }
        let fields = match (lv, rv) {
            (Some(a), Some(b)) => field_diffs(a, b),
            _ => Vec::new(),
        };
        out.push(LineDiff {
            line: i + 1,
            left: lv.map(str::to_string),
            right: rv.map(str::to_string),
            fields,
        });
    }
    out
}

/// Renders log diffs as text, at most `limit` lines of detail (a trailer
/// reports the omitted count). Empty input renders as the empty string.
pub fn render_line_diffs(diffs: &[LineDiff], limit: usize) -> String {
    let mut out = String::new();
    for d in diffs.iter().take(limit) {
        match (&d.left, &d.right) {
            (Some(_), Some(_)) if !d.fields.is_empty() => {
                let _ = writeln!(out, "line {}:", d.line);
                for f in &d.fields {
                    let _ = writeln!(
                        out,
                        "  {}: {} -> {}",
                        f.key,
                        f.left.as_deref().unwrap_or("<absent>"),
                        f.right.as_deref().unwrap_or("<absent>")
                    );
                }
            }
            (Some(l), Some(r)) => {
                let _ = writeln!(out, "line {}:\n  - {l}\n  + {r}", d.line);
            }
            (Some(l), None) => {
                let _ = writeln!(out, "line {}: only in left:\n  - {l}", d.line);
            }
            (None, Some(r)) => {
                let _ = writeln!(out, "line {}: only in right:\n  + {r}", d.line);
            }
            (None, None) => {}
        }
    }
    if diffs.len() > limit {
        let _ = writeln!(out, "... ({} more differing lines)", diffs.len() - limit);
    }
    out
}

/// Structurally compares two aggregated reports. Returns one entry per
/// differing field (dotted paths like `family.Quadratic.evaluations` or
/// `histogram.evals_per_fit.count`); an empty result means the reports
/// agree on every aggregate.
pub fn diff_reports(left: &RunReport, right: &RunReport) -> Vec<FieldDiff> {
    let mut out = Vec::new();
    let mut push = |key: String, l: Option<String>, r: Option<String>| {
        if l != r {
            out.push(FieldDiff {
                key,
                left: l,
                right: r,
            });
        }
    };

    push(
        "events".into(),
        Some(left.events.to_string()),
        Some(right.events.to_string()),
    );
    for id in CounterId::ALL {
        push(
            format!("counter.{}", id.as_str()),
            Some(left.counter(id).to_string()),
            Some(right.counter(id).to_string()),
        );
    }
    for id in HistogramId::ALL {
        let l = left.histogram(id);
        let r = right.histogram(id);
        push(
            format!("histogram.{}", id.as_str()),
            l.map(|h| {
                format!(
                    "count={} sum={} min={} max={} buckets={:?}",
                    h.count, h.sum, h.min, h.max, h.buckets
                )
            }),
            r.map(|h| {
                format!(
                    "count={} sum={} min={} max={} buckets={:?}",
                    h.count, h.sum, h.min, h.max, h.buckets
                )
            }),
        );
    }
    let mut names: Vec<&'static str> = left.families.iter().map(|f| f.name).collect();
    for f in &right.families {
        if !names.contains(&f.name) {
            names.push(f.name);
        }
    }
    for name in names {
        let l = left.families.iter().find(|f| f.name == name);
        let r = right.families.iter().find(|f| f.name == name);
        type StatColumn = (&'static str, fn(&crate::report::FamilyStats) -> String);
        let stats: [StatColumn; 9] = [
            ("fits_started", |f| f.fits_started.to_string()),
            ("fits_completed", |f| f.fits_completed.to_string()),
            ("converged_fits", |f| f.converged_fits.to_string()),
            ("iterations", |f| f.iterations.to_string()),
            ("evaluations", |f| f.evaluations.to_string()),
            ("retries", |f| f.retries.to_string()),
            ("failures", |f| f.failures().to_string()),
            ("panics", |f| f.panics.to_string()),
            ("best_sse", |f| format!("{:?}", f.best_sse)),
        ];
        for (stat, get) in stats {
            push(format!("family.{name}.{stat}"), l.map(get), r.map(get));
        }
    }
    out
}

/// Renders report field diffs as text; empty input renders as the empty
/// string.
pub fn render_field_diffs(diffs: &[FieldDiff]) -> String {
    let mut out = String::new();
    for f in diffs {
        let _ = writeln!(
            out,
            "{}: {} -> {}",
            f.key,
            f.left.as_deref().unwrap_or("<absent>"),
            f.right.as_deref().unwrap_or("<absent>")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, Event, FailureCode};
    use crate::parse::intern;

    #[test]
    fn identical_logs_diff_empty() {
        let log = "{\"ev\":\"start\",\"index\":0}\n{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":3}\n";
        assert!(diff_logs(log, log).is_empty());
        assert_eq!(render_line_diffs(&diff_logs(log, log), 10), "");
    }

    #[test]
    fn field_level_diff_names_the_changed_key() {
        let a = "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":3}\n";
        let b = "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":4}\n";
        let diffs = diff_logs(a, b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].line, 1);
        assert_eq!(
            diffs[0].fields,
            vec![FieldDiff {
                key: "n".into(),
                left: Some("3".into()),
                right: Some("4".into()),
            }]
        );
        let text = render_line_diffs(&diffs, 10);
        assert!(text.contains("n: 3 -> 4"), "{text}");
    }

    #[test]
    fn length_mismatch_reports_extra_lines() {
        let a = "{\"ev\":\"start\",\"index\":0}\n";
        let b = "{\"ev\":\"start\",\"index\":0}\n{\"ev\":\"start\",\"index\":1}\n";
        let diffs = diff_logs(a, b);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].line, 2);
        assert!(diffs[0].left.is_none());
        let text = render_line_diffs(&diffs, 10);
        assert!(text.contains("only in right"), "{text}");
    }

    #[test]
    fn flat_fields_handles_strings_and_escapes() {
        let fields = flat_fields(
            "{\"ev\":\"fit_failed\",\"family\":\"We \\\"ird\\\", name\",\"kind\":\"error\"}",
        )
        .unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[1].1, "\"We \\\"ird\\\", name\"");
        assert!(flat_fields("not json").is_none());
    }

    #[test]
    fn report_diff_is_empty_for_identical_reports() {
        let events = vec![
            Event::FitStarted {
                family: intern("Quadratic"),
                starts: 2,
            },
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 5,
            },
            Event::FitFailed {
                family: intern("Quadratic"),
                kind: FailureCode::Error,
            },
        ];
        let a = RunReport::from_events(events.clone());
        let b = RunReport::from_events(events);
        assert!(diff_reports(&a, &b).is_empty());
    }

    #[test]
    fn report_diff_names_dotted_paths() {
        let a = RunReport::from_events(vec![Event::Counter {
            id: CounterId::ObjectiveEvals,
            delta: 5,
        }]);
        let b = RunReport::from_events(vec![
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 6,
            },
            Event::FitFailed {
                family: intern("Glacial"),
                kind: FailureCode::Skipped,
            },
        ]);
        let diffs = diff_reports(&a, &b);
        let keys: Vec<&str> = diffs.iter().map(|d| d.key.as_str()).collect();
        assert!(keys.contains(&"events"), "{keys:?}");
        assert!(keys.contains(&"counter.objective_evals"), "{keys:?}");
        assert!(keys.contains(&"family.Glacial.failures"), "{keys:?}");
        let text = render_field_diffs(&diffs);
        assert!(text.contains("counter.objective_evals: 5 -> 6"), "{text}");
        assert!(
            text.contains("family.Glacial.failures: <absent> -> 1"),
            "{text}"
        );
    }
}
