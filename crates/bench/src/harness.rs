//! Hermetic micro-benchmark harness: warmup + min-of-N wall-clock timing
//! over [`std::time::Instant`], with hand-rolled JSON output.
//!
//! criterion cannot be fetched in the offline build environment, so this
//! module provides the minimal subset the workspace needs: run a closure
//! a few warmup iterations, sample it N times, keep every sample, and
//! report the minimum (the least-noise estimator for wall-clock
//! micro-benchmarks), plus median and mean for context. The `bench`
//! binary serializes [`SpeedupReport`]s to `BENCH_*.json` files that
//! track the repo's perf trajectory.

// Wall-clock is this module's whole job (timing closures); `clippy.toml`
// bans `Instant` elsewhere so it cannot leak into result paths.
#![allow(clippy::disallowed_types)]

use resilience_obs::{Event, HistogramId};
use std::time::Instant;

/// Timing samples for one benchmarked operation.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Operation label.
    pub name: String,
    /// Wall-clock nanoseconds per sample, in execution order.
    pub samples_ns: Vec<u128>,
}

impl Measurement {
    /// Fastest sample — the standard micro-benchmark estimator, since
    /// noise is strictly additive.
    ///
    /// # Panics
    ///
    /// Panics when there are no samples.
    #[must_use]
    pub fn min_ns(&self) -> u128 {
        *self.samples_ns.iter().min().expect("at least one sample")
    }

    /// Median sample: the middle sample for odd counts, the average of
    /// the two middle samples (rounded half up) for even counts. Taking
    /// only the upper-middle sample would bias even-count medians high.
    ///
    /// # Panics
    ///
    /// Panics when there are no samples.
    #[must_use]
    pub fn median_ns(&self) -> u128 {
        assert!(!self.samples_ns.is_empty(), "at least one sample");
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            // Overflow-safe midpoint of the two middle samples, rounding
            // .5 up: lo + ceil((hi - lo) / 2).
            let (lo, hi) = (sorted[mid - 1], sorted[mid]);
            lo + (hi - lo).div_ceil(2)
        } else {
            sorted[mid]
        }
    }

    /// Mean sample, rounded to the nearest nanosecond. Plain integer
    /// division would silently floor, drifting summary stats low.
    ///
    /// # Panics
    ///
    /// Panics when there are no samples.
    #[must_use]
    pub fn mean_ns(&self) -> u128 {
        assert!(!self.samples_ns.is_empty(), "at least one sample");
        let n = self.samples_ns.len() as u128;
        // Accumulate quotient and remainder separately so the mean is
        // overflow-safe even for samples near `u128::MAX`.
        let mut whole = 0u128;
        let mut rem = 0u128;
        for &s in &self.samples_ns {
            whole += s / n;
            rem += s % n;
        }
        whole + (rem + n / 2) / n
    }

    /// JSON object with the summary statistics and raw samples.
    #[must_use]
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples_ns.iter().map(u128::to_string).collect();
        format!(
            "{{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples_ns\": [{}]}}",
            json_escape(&self.name),
            self.min_ns(),
            self.median_ns(),
            self.mean_ns(),
            samples.join(", ")
        )
    }
}

/// Runs `f` for `warmup` untimed iterations, then `samples` timed ones.
///
/// The closure's return value goes through [`std::hint::black_box`] so
/// the optimizer cannot elide the work.
///
/// # Panics
///
/// Panics when `samples == 0`.
pub fn bench<T, F: FnMut() -> T>(
    name: &str,
    warmup: usize,
    samples: usize,
    mut f: F,
) -> Measurement {
    assert!(samples > 0, "bench requires at least one sample");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let samples_ns = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    Measurement {
        name: name.to_string(),
        samples_ns,
    }
}

/// [`bench`], but sampling stops once `budget` of timed wall-clock has
/// been spent — the bench-harness analogue of the library's execution
/// deadlines (DESIGN.md §9), so one slow configuration cannot stall a
/// whole bench sweep.
///
/// The first timed sample always runs (minimum progress), so the
/// returned [`Measurement`] is never empty; `samples` stays the upper
/// bound. Warmup iterations are untimed and do not count against the
/// budget.
///
/// # Panics
///
/// Panics when `samples == 0`.
pub fn bench_with_budget<T, F: FnMut() -> T>(
    name: &str,
    warmup: usize,
    samples: usize,
    budget: std::time::Duration,
    mut f: F,
) -> Measurement {
    assert!(samples > 0, "bench requires at least one sample");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples_ns = Vec::with_capacity(samples);
    let sweep_start = Instant::now();
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(f());
        samples_ns.push(start.elapsed().as_nanos());
        if sweep_start.elapsed() >= budget {
            break;
        }
    }
    Measurement {
        name: name.to_string(),
        samples_ns,
    }
}

/// Per-family work/time attribution inside one benchmarked operation
/// (DESIGN.md §11): wall-clock drifts with the machine, so baselines are
/// diffed family-by-family to tell "one family got slower" from "the
/// machine got slower".
#[derive(Debug, Clone)]
pub struct FamilyTiming {
    /// Family name as reported by the fit events.
    pub name: String,
    /// Objective evaluations charged to this family in the observed
    /// correctness pass (deterministic).
    pub evaluations: u64,
    /// Median wall-clock of fitting this family alone, serial.
    pub median_ns: u128,
}

impl FamilyTiming {
    /// JSON object for this family's row.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"evaluations\": {}, \"median_ns\": {}}}",
            json_escape(&self.name),
            self.evaluations,
            self.median_ns
        )
    }
}

/// A serial-vs-parallel comparison for one pipeline stage, serialized to
/// a `BENCH_*.json` file by the `bench` binary.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Benchmark name (e.g. `rank_models`).
    pub benchmark: String,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// speedups are only meaningful relative to this.
    pub cores: usize,
    /// Timing of the serial configuration.
    pub serial: Measurement,
    /// Timing of the parallel configuration.
    pub parallel: Measurement,
    /// Whether the parallel run produced bit-identical results to the
    /// serial run (checked by the caller on the actual outputs).
    pub identical: bool,
    /// Deterministic work counters for the benchmarked operation
    /// (objective evaluations, solver iterations, …), recorded once from
    /// an observed correctness pass — never from the timed passes, which
    /// run unobserved. Wall-clock drifts with the machine; these do not,
    /// so a perf regression can be split into "more work" vs "slower
    /// work" by diffing baselines.
    pub counters: Vec<(String, u64)>,
    /// Raw `evals_per_fit` histogram observations from the observed
    /// correctness pass, in fit order — the per-fit work profile the
    /// warm-start/analytic-Jacobian layer (DESIGN.md §11) is meant to
    /// shrink. Deterministic, so regressions diff exactly.
    pub evals_per_fit: Vec<u64>,
    /// Per-family work and timing attribution; empty when the benchmark
    /// runs a single family already named in `context`.
    pub per_family: Vec<FamilyTiming>,
    /// Free-form context keys (series name, replicate count, …).
    pub context: Vec<(String, String)>,
}

impl SpeedupReport {
    /// Serial-over-parallel speedup from the min-of-N estimates.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial.min_ns() as f64 / self.parallel.min_ns().max(1) as f64
    }

    /// Full JSON document for this comparison.
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
        let per_family: Vec<String> = self.per_family.iter().map(FamilyTiming::to_json).collect();
        format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"cores\": {},\n  \"identical\": {},\n  \"speedup\": {:.3},\n  \"serial\": {},\n  \"parallel\": {},\n  \"counters\": {{{}}},\n  \"evals_per_fit\": [{}],\n  \"per_family\": [{}],\n  \"context\": {{{}}}\n}}\n",
            json_escape(&self.benchmark),
            self.cores,
            self.identical,
            self.speedup(),
            self.serial.to_json(),
            self.parallel.to_json(),
            counters.join(", "),
            evals.join(", "),
            per_family.join(", "),
            context.join(", ")
        )
    }
}

/// One cell of the scenario × noise × length sweep: the winning family
/// and its fit quality for a single generated scenario series.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Scenario name from the catalog (e.g. `shape-V`, `step-outage`).
    pub scenario: String,
    /// Noise configuration label (e.g. `clean`, `gaussian-1e-3`).
    pub noise: String,
    /// Grid length of the generated series.
    pub n: usize,
    /// Family ranked first by `rank_models_supervised`.
    pub winner: String,
    /// Winner's adjusted R².
    pub r2_adj: f64,
    /// Winner's sum of squared errors.
    pub sse: f64,
}

impl ScenarioCell {
    /// JSON object for this cell.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"noise\": \"{}\", \"n\": {}, \"winner\": \"{}\", \"r2_adj\": {:.12}, \"sse\": {:.12e}}}",
            json_escape(&self.scenario),
            json_escape(&self.noise),
            self.n,
            json_escape(&self.winner),
            self.r2_adj,
            self.sse
        )
    }
}

/// Baseline for the scenario sweep (`BENCH_scenarios.json`): the full
/// shape × noise × length grid fed through `rank_models_supervised`,
/// plus the determinism verdict of re-ranking every cell under a
/// different consumer count.
#[derive(Debug, Clone)]
pub struct ScenarioSweepReport {
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub cores: usize,
    /// Whether every cell's ranking was bit-identical between the serial
    /// and fixed-parallel passes.
    pub identical: bool,
    /// One row per (scenario, noise, length) grid point.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioSweepReport {
    /// Full JSON document for the sweep baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| format!("    {}", c.to_json()))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"scenario_sweep\",\n  \"cores\": {},\n  \"identical\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            self.cores,
            self.identical,
            cells.join(",\n")
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

/// Median of a set of integer observations under the same convention as
/// [`Measurement::median_ns`]: middle sample for odd counts, average of
/// the two middle samples (rounded half up) for even counts. Returns
/// `None` for an empty set.
#[must_use]
pub fn median_u64(samples: &[u64]) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
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
    fn bench_collects_requested_samples() {
        let mut calls = 0usize;
        let m = bench("noop", 2, 5, || {
            calls += 1;
            calls
        });
        assert_eq!(m.samples_ns.len(), 5);
        assert_eq!(calls, 7, "2 warmup + 5 timed");
        assert!(m.min_ns() <= m.median_ns());
        assert!(m.min_ns() <= m.mean_ns());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn bench_rejects_zero_samples() {
        bench("empty", 0, 0, || ());
    }

    #[test]
    fn budgeted_bench_always_keeps_one_sample() {
        // A zero budget stops after the mandatory first sample.
        let mut calls = 0usize;
        let m = bench_with_budget("tight", 1, 50, std::time::Duration::ZERO, || {
            calls += 1;
            calls
        });
        assert_eq!(m.samples_ns.len(), 1);
        assert_eq!(calls, 2, "1 warmup + 1 timed");
    }

    #[test]
    fn budgeted_bench_honors_the_sample_cap_under_a_loose_budget() {
        let m = bench_with_budget("loose", 0, 5, std::time::Duration::from_secs(60), || 1 + 1);
        assert_eq!(m.samples_ns.len(), 5);
    }

    #[test]
    fn measurement_statistics() {
        let m = Measurement {
            name: "m".into(),
            samples_ns: vec![30, 10, 20],
        };
        assert_eq!(m.min_ns(), 10);
        assert_eq!(m.median_ns(), 20);
        assert_eq!(m.mean_ns(), 20);
    }

    #[test]
    fn single_sample_statistics_collapse_to_the_sample() {
        let m = Measurement {
            name: "one".into(),
            samples_ns: vec![37],
        };
        assert_eq!(m.min_ns(), 37);
        assert_eq!(m.median_ns(), 37);
        assert_eq!(m.mean_ns(), 37);
    }

    #[test]
    fn even_count_median_averages_the_middle_pair() {
        // The old estimator returned the upper-middle sample (30 here),
        // biasing even-count medians high.
        let m = Measurement {
            name: "even".into(),
            samples_ns: vec![40, 10, 30, 20],
        };
        assert_eq!(m.median_ns(), 25);
        // A .5 midpoint rounds to nearest (half up).
        let m = Measurement {
            name: "half".into(),
            samples_ns: vec![2, 1],
        };
        assert_eq!(m.median_ns(), 2);
    }

    #[test]
    fn mean_rounds_to_nearest_instead_of_flooring() {
        let m = Measurement {
            name: "round".into(),
            samples_ns: vec![1, 2], // 1.5 → 2, not 1
        };
        assert_eq!(m.mean_ns(), 2);
        let m = Measurement {
            name: "floorish".into(),
            samples_ns: vec![1, 1, 2], // 4/3 ≈ 1.33 → 1
        };
        assert_eq!(m.mean_ns(), 1);
    }

    #[test]
    fn mean_is_overflow_safe_for_extreme_samples() {
        let m = Measurement {
            name: "huge".into(),
            samples_ns: vec![u128::MAX, u128::MAX, u128::MAX],
        };
        assert_eq!(m.mean_ns(), u128::MAX);
        let m = Measurement {
            name: "mixed".into(),
            samples_ns: vec![u128::MAX, u128::MAX - 2],
        };
        assert_eq!(m.mean_ns(), u128::MAX - 1);
    }

    #[test]
    fn median_u64_shares_the_measurement_convention() {
        assert_eq!(median_u64(&[]), None);
        assert_eq!(median_u64(&[5]), Some(5));
        assert_eq!(median_u64(&[30, 10, 20]), Some(20));
        assert_eq!(median_u64(&[40, 10, 30, 20]), Some(25));
        assert_eq!(median_u64(&[1, 2]), Some(2)); // .5 rounds half up
        assert_eq!(median_u64(&[u64::MAX, u64::MAX - 2]), Some(u64::MAX - 1));
    }

    #[test]
    fn json_contains_fields_and_parses_shapewise() {
        let report = SpeedupReport {
            benchmark: "rank_models".into(),
            cores: 4,
            serial: Measurement {
                name: "serial".into(),
                samples_ns: vec![400],
            },
            parallel: Measurement {
                name: "parallel".into(),
                samples_ns: vec![100],
            },
            identical: true,
            counters: vec![("objective_evals".into(), 1234)],
            evals_per_fit: vec![400, 350],
            per_family: vec![FamilyTiming {
                name: "Quadratic".into(),
                evaluations: 400,
                median_ns: 99,
            }],
            context: vec![("series".into(), "1990-93".into())],
        };
        assert!((report.speedup() - 4.0).abs() < 1e-12);
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"rank_models\"",
            "\"cores\": 4",
            "\"identical\": true",
            "\"speedup\": 4.000",
            "\"min_ns\": 400",
            "\"objective_evals\": 1234",
            "\"evals_per_fit\": [400, 350]",
            "\"name\": \"Quadratic\", \"evaluations\": 400, \"median_ns\": 99",
            "\"series\": \"1990-93\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn scenario_sweep_json_is_structurally_sound() {
        let report = ScenarioSweepReport {
            cores: 8,
            identical: true,
            cells: vec![
                ScenarioCell {
                    scenario: "shape-V".into(),
                    noise: "clean".into(),
                    n: 48,
                    winner: "Quadratic".into(),
                    r2_adj: 0.987654321,
                    sse: 1.5e-4,
                },
                ScenarioCell {
                    scenario: "step-outage".into(),
                    noise: "gaussian-1e-3".into(),
                    n: 96,
                    winner: "Competing Risks".into(),
                    r2_adj: 0.9,
                    sse: 2.0e-3,
                },
            ],
        };
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"scenario_sweep\"",
            "\"cores\": 8",
            "\"identical\": true",
            "\"scenario\": \"shape-V\"",
            "\"noise\": \"gaussian-1e-3\"",
            "\"winner\": \"Competing Risks\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }
}
