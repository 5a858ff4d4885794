//! The pieces the gate runner's baselines share: the [`WorkReport`] that
//! `BENCH_fitting.json` and `BENCH_bootstrap.json` serialize, the exact
//! evals-per-fit observations of an event log, their median, and JSON
//! string escaping.
//!
//! Nothing here reads a clock. Every field a baseline records is a count,
//! a bit-identity verdict or a label, so regenerating it from the same
//! inputs rewrites the same bytes and `git diff` stays clean. Timings come
//! from `perf`, the repository benchmark (`perf/README.md`).

use resilience_obs::{Event, HistogramId};

/// The work one pipeline stage does and whether its parallel output was
/// bit-identical to the serial one, serialized to a `BENCH_*.json` file
/// by the `bench` binary.
#[derive(Debug, Clone)]
pub struct WorkReport {
    /// Benchmark name (e.g. `rank_models`).
    pub benchmark: String,
    /// Whether the parallel run produced bit-identical results to the
    /// serial run (checked by the caller on the actual outputs).
    pub identical: bool,
    /// Deterministic work counters (objective evaluations, solver
    /// iterations, …) of one observed serial pass, so a regression shows
    /// as a baseline diff of the work, not of the machine.
    pub counters: Vec<(String, u64)>,
    /// Raw `evals_per_fit` histogram observations of the observed pass,
    /// in fit order — the per-fit work profile the warm-start and
    /// analytic-Jacobian layer (DESIGN.md §11) is meant to shrink.
    pub evals_per_fit: Vec<u64>,
    /// Objective evaluations per family in the observed pass, in fit
    /// order; empty when the benchmark runs a single family already
    /// named in `context`.
    pub per_family: Vec<(String, u64)>,
    /// Free-form context keys (series name, replicate count, …).
    pub context: Vec<(String, String)>,
}

impl WorkReport {
    /// Full JSON document for this report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
            .collect();
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let evals: Vec<String> = self.evals_per_fit.iter().map(u64::to_string).collect();
        let per_family: Vec<String> = self
            .per_family
            .iter()
            .map(|(name, evaluations)| {
                format!(
                    "{{\"name\": \"{}\", \"evaluations\": {evaluations}}}",
                    json_escape(name)
                )
            })
            .collect();
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"identical\": {},\n  \"counters\": {{{}}},\n  \"evals_per_fit\": [{}],\n  \"per_family\": [{}],\n  \"context\": {{{}}}\n}}\n",
            json_escape(&self.benchmark),
            self.identical,
            counters.join(", "),
            evals.join(", "),
            per_family.join(", "),
            context.join(", ")
        )
    }
}

/// Raw evals-per-fit observations of an event log, in replay (= fit)
/// order — the exact values, where the histogram only buckets them.
#[must_use]
pub fn evals_per_fit(events: &[Event]) -> Vec<u64> {
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

/// Median of a set of integer observations: the middle one for odd
/// counts, the average of the two middle ones (rounded half up) for even
/// counts. Returns `None` for an empty set.
#[must_use]
pub fn median_u64(samples: &[u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        // Overflow-safe midpoint of the two middle samples, rounding .5
        // up: lo + ceil((hi - lo) / 2).
        let (lo, hi) = (sorted[mid - 1], sorted[mid]);
        lo + (hi - lo).div_ceil(2)
    } else {
        sorted[mid]
    })
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_u64_averages_the_middle_pair_of_an_even_count() {
        assert_eq!(median_u64(&[]), None);
        assert_eq!(median_u64(&[5]), Some(5));
        assert_eq!(median_u64(&[30, 10, 20]), Some(20));
        assert_eq!(median_u64(&[40, 10, 30, 20]), Some(25));
        assert_eq!(median_u64(&[1, 2]), Some(2)); // .5 rounds half up
        assert_eq!(median_u64(&[u64::MAX, u64::MAX - 2]), Some(u64::MAX - 1));
    }

    #[test]
    fn json_contains_fields_and_parses_shapewise() {
        let report = WorkReport {
            benchmark: "rank_models".into(),
            identical: true,
            counters: vec![("objective_evals".into(), 1234)],
            evals_per_fit: vec![400, 350],
            per_family: vec![("Quadratic".into(), 400)],
            context: vec![("series".into(), "1990-93".into())],
        };
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"rank_models\"",
            "\"identical\": true",
            "\"objective_evals\": 1234",
            "\"evals_per_fit\": [400, 350]",
            "\"per_family\": [{\"name\": \"Quadratic\", \"evaluations\": 400}]",
            "\"series\": \"1990-93\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(
            !json.contains("_ns"),
            "baseline must not record time: {json}"
        );
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }
}
