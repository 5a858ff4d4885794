//! The observability gate set of `bench --smoke`: the work-budget
//! regression gate behind `BENCH_obs.json`.
//!
//! A check over the same [`run_triple`](crate::fleet::run_triple) of the
//! CI fleet that feeds the repeatability gates — twice serial, once with
//! `Fixed(2)` workers — that gates on the *observability plane itself*
//! being deterministic, not just the fit results:
//!
//! 1. **identical_log** — the three JSONL event logs are byte-identical;
//! 2. **identical_tree** — the [`SpanTree`](resilience_obs::SpanTree)
//!    renders are byte-identical;
//! 3. **identical_metrics** — the Prometheus-style expositions are
//!    byte-identical;
//! 4. **identical_store** — the columnar stores (now carrying the
//!    span-tree work columns) are byte-identical;
//! 5. **cells_covered** — the span tree reconstructs exactly one cell
//!    per grid cell, with zero unattributed evaluations;
//! 6. **work_attributed** — the per-cell work columns, which the span
//!    tree attributes, sum to the flat `objective_evals` counter, which no
//!    attribution rule touches: the tree charges every evaluation the
//!    counters counted to a cell;
//! 7. **within_budget** — each family's evaluation total stays under its
//!    committed ceiling ([`EVAL_CEILINGS`]), so an optimizer regression
//!    that silently doubles the work budget fails CI;
//! 8. **log_bounded** — the canonical log holds at most
//!    [`EVENTS_PER_FIT_CEILING`] events per family fit, so a per-iteration
//!    event that creeps back into the log fails CI.
//!
//! The JSON baseline is a pure function of the grid: counter totals,
//! histogram bucket vectors and percentiles, per-family work against
//! ceilings, the top-K hottest cells, and FNV-1a digests of the
//! canonical log and of its span-tree render, so a log or a
//! reconstruction that changes by one byte changes the baseline. No
//! wall-clock, no machine identifiers — CI regenerates it and `git diff`
//! stays clean.

use crate::fleet::{fnv1a, FleetRun, PASSES};
use crate::harness::json_escape;
use resilience_core::model::ModelFamily;
use resilience_obs::{CounterId, Histogram, HistogramId, MetricsSnapshot, WorkMetric};

/// Committed per-family evaluation ceilings for the 64-cell smoke grid
/// (`smoke_grid()` × the two bathtub families). Calibrated at roughly
/// 1.5× the measured totals of the §11 speed layer, where every bathtub
/// fit is exact (Quadratic 64: one evaluation per fit, 52 inside the
/// bathtub region and 12 on its boundary; Competing Risks 3 074, its
/// profile over `ln β` and the rescoring), so a Quadratic fit that
/// searches again (16 945 when the boundary searched) or a Competing Risks
/// fit that searches `ln β` again (18 458) fails.
pub const EVAL_CEILINGS: &[(&str, u64)] = &[("Quadratic", 96), ("Competing Risks", 4_600)];

/// Ceiling applied to a family with no [`EVAL_CEILINGS`] entry: generous
/// enough for any single family on the smoke grid, tight enough that a
/// runaway solver loop still trips the gate.
pub const DEFAULT_EVAL_CEILING: u64 = 300_000;

/// Committed ceiling on the canonical log's events per family fit. An
/// observed solver run writes a bounded number of lines whatever its
/// iteration count; every fit of the smoke grid is exact, and its log
/// measures 5.52 per fit (706 events, 128 fits: a fit's job, start,
/// finish and counter lines, and a Competing Risks profile's one
/// `converged` line), and the ceiling is about 1.5× that. A log with a
/// line per solver iteration (Brent's 20–40 in a Competing Risks fit)
/// fails the gate.
pub const EVENTS_PER_FIT_CEILING: u64 = 8;

/// The `log_bounded` gate: `events` within [`EVENTS_PER_FIT_CEILING`]
/// per fit, over a log with at least one fit.
#[must_use]
pub fn log_bounded(events: u64, fits: u64) -> bool {
    fits > 0 && events <= EVENTS_PER_FIT_CEILING * fits
}

/// The evaluation ceiling for `family` ([`EVAL_CEILINGS`] lookup with the
/// [`DEFAULT_EVAL_CEILING`] fallback).
#[must_use]
pub fn eval_ceiling(family: &str) -> u64 {
    EVAL_CEILINGS
        .iter()
        .find(|(name, _)| *name == family)
        .map_or(DEFAULT_EVAL_CEILING, |(_, c)| *c)
}

/// One family's measured work against its committed ceiling.
#[derive(Debug, Clone)]
pub struct FamilyWork {
    /// Family name.
    pub family: String,
    /// Objective evaluations the canonical run attributed to the family.
    pub evaluations: u64,
    /// Committed ceiling ([`eval_ceiling`]).
    pub ceiling: u64,
}

/// Byte artifacts of the evaluation — the logs and renders the CI step
/// writes to disk so `obsctl` can be exercised against real output.
#[derive(Debug)]
pub struct ObsSmokeArtifacts {
    /// Canonical (first serial) run's JSONL event log.
    pub serial_jsonl: String,
    /// Second serial run's JSONL event log.
    pub rerun_jsonl: String,
    /// `Fixed(2)` run's JSONL event log.
    pub fixed2_jsonl: String,
    /// Canonical run's metrics exposition ([`MetricsSnapshot::render`]).
    pub metrics_text: String,
    /// Canonical run's span-tree render (all cells, full depth).
    pub tree_text: String,
}

/// The observability gate evaluation behind `BENCH_obs.json`.
#[derive(Debug)]
pub struct ObsSmokeReport {
    /// Grid cells evaluated.
    pub cells: usize,
    /// Family names fitted in every cell.
    pub families: Vec<String>,
    /// Events in the canonical run's log.
    pub events: u64,
    /// Family fits in the canonical run's span tree.
    pub fits: u64,
    /// Gate 1: the three JSONL logs are byte-identical.
    pub identical_log: bool,
    /// Gate 2: the three span-tree renders are byte-identical.
    pub identical_tree: bool,
    /// Gate 3: the three metrics expositions are byte-identical.
    pub identical_metrics: bool,
    /// Gate 4: the three columnar stores are byte-identical.
    pub identical_store: bool,
    /// Gate 5: one span-tree cell per grid cell, zero unattributed work.
    pub cells_covered: bool,
    /// Gate 6: work columns sum to the `objective_evals` counter.
    pub work_attributed: bool,
    /// Gate 7: every family under its evaluation ceiling.
    pub within_budget: bool,
    /// Gate 8: the log within [`EVENTS_PER_FIT_CEILING`] events per fit.
    pub log_bounded: bool,
    /// Counter totals of the canonical run, in [`resilience_obs::CounterId`] order.
    pub counters: Vec<(String, u64)>,
    /// Histograms of the canonical run, in [`HistogramId`] order.
    pub histograms: Vec<(String, Histogram)>,
    /// Per-family work against ceilings.
    pub family_work: Vec<FamilyWork>,
    /// Top-K hottest cells by evaluations `(cell, evaluations)`.
    pub hottest_cells: Vec<(u32, u64)>,
    /// Hottest families by evaluations `(family, evaluations)`.
    pub hottest_families: Vec<(String, u64)>,
    /// Span-tree cells reconstructed from the canonical log.
    pub tree_cells: usize,
    /// Evaluations the span tree could not attribute to any cell.
    pub unattributed_evals: u64,
    /// FNV-1a digest ([`fnv1a`]) of the canonical run's JSONL log, which
    /// the baseline pins byte for byte.
    pub log_digest: u64,
    /// FNV-1a digest of the canonical run's span-tree render (all cells,
    /// full depth), which pins what the tree reconstructs from the log.
    pub tree_digest: u64,
}

/// How many hottest cells the baseline records.
const TOP_K: usize = 5;

impl ObsSmokeReport {
    /// Whether every observability gate held.
    #[must_use]
    pub fn gates_pass(&self) -> bool {
        self.identical_log
            && self.identical_tree
            && self.identical_metrics
            && self.identical_store
            && self.cells_covered
            && self.work_attributed
            && self.within_budget
            && self.log_bounded
    }

    /// The `BENCH_obs.json` document — a pure function of the grid, so
    /// CI regenerates it and `git diff` stays clean.
    #[must_use]
    pub fn to_json(&self) -> String {
        let families: Vec<String> = self
            .families
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("    \"{}\": {v}", json_escape(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                format!(
                    "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                    json_escape(name),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                    buckets.join(", ")
                )
            })
            .collect();
        let work: Vec<String> = self
            .family_work
            .iter()
            .map(|w| {
                format!(
                    "    {{\"family\": \"{}\", \"evaluations\": {}, \"ceiling\": {}}}",
                    json_escape(&w.family),
                    w.evaluations,
                    w.ceiling
                )
            })
            .collect();
        let hottest_cells: Vec<String> = self
            .hottest_cells
            .iter()
            .map(|(cell, evals)| format!("    {{\"cell\": {cell}, \"evals\": {evals}}}"))
            .collect();
        let hottest_families: Vec<String> = self
            .hottest_families
            .iter()
            .map(|(family, evals)| {
                format!(
                    "    {{\"family\": \"{}\", \"evals\": {evals}}}",
                    json_escape(family)
                )
            })
            .collect();
        format!(
            "{{\n  \"benchmark\": \"obs\",\n  \"cells\": {},\n  \"families\": [{}],\n  \
             \"runs\": {},\n  \"events\": {},\n  \"fits\": {},\n  \
             \"events_per_fit\": {:.2},\n  \"events_per_fit_ceiling\": {},\n  \
             \"gates\": {{\"identical_log\": {}, \
             \"identical_tree\": {}, \"identical_metrics\": {}, \"identical_store\": {}, \
             \"cells_covered\": {}, \"work_attributed\": {}, \"within_budget\": {}, \
             \"log_bounded\": {}}},\n  \
             \"tree_cells\": {},\n  \"unattributed_evals\": {},\n  \"log_digest\": \"{:016x}\",\n  \
             \"tree_digest\": \"{:016x}\",\n  \"counters\": {{\n{}\n  }},\n  \
             \"histograms\": {{\n{}\n  }},\n  \"family_work\": [\n{}\n  ],\n  \
             \"hottest_cells\": [\n{}\n  ],\n  \"hottest_families\": [\n{}\n  ]\n}}\n",
            self.cells,
            families.join(", "),
            PASSES.len(),
            self.events,
            self.fits,
            self.events_per_fit(),
            EVENTS_PER_FIT_CEILING,
            self.identical_log,
            self.identical_tree,
            self.identical_metrics,
            self.identical_store,
            self.cells_covered,
            self.work_attributed,
            self.within_budget,
            self.log_bounded,
            self.tree_cells,
            self.unattributed_evals,
            self.log_digest,
            self.tree_digest,
            counters.join(",\n"),
            histograms.join(",\n"),
            work.join(",\n"),
            hottest_cells.join(",\n"),
            hottest_families.join(",\n"),
        )
    }

    /// Checks the eight observability gates over a
    /// [`run_triple`](crate::fleet::run_triple) of the fleet and assembles
    /// the baseline aggregates (see the module docs), plus the byte
    /// artifacts the gates compared.
    #[must_use]
    pub fn check(
        families: &[&dyn ModelFamily],
        runs: &[FleetRun; 3],
    ) -> (ObsSmokeReport, ObsSmokeArtifacts) {
        let [run1, run2, run3] = runs;
        let cells = run1.store.len();
        let log1 = run1.events_jsonl();
        let log2 = run2.events_jsonl();
        let log3 = run3.events_jsonl();
        let identical_log = log1 == log2 && log1 == log3;

        let tree = &run1.tree;
        let render = |run: &FleetRun| run.tree.render(usize::MAX, 4);
        let tree_text = tree.render(usize::MAX, 4);
        let identical_tree = tree_text == render(run2) && tree_text == render(run3);

        let metrics_text = MetricsSnapshot::from_report(&run1.report).render();
        let identical_metrics = metrics_text == MetricsSnapshot::from_report(&run2.report).render()
            && metrics_text == MetricsSnapshot::from_report(&run3.report).render();

        let store_bytes = run1.store.columns_json();
        let identical_store =
            store_bytes == run2.store.columns_json() && store_bytes == run3.store.columns_json();

        let cells_covered = tree.cells.len() == cells && tree.unattributed_evaluations == 0;
        let column_total: u64 = run1.store.evals.iter().sum();
        let work_attributed =
            column_total == run1.report.counter(CounterId::ObjectiveEvals) && column_total > 0;

        let family_work: Vec<FamilyWork> = run1
            .report
            .families
            .iter()
            .map(|f| FamilyWork {
                family: f.name.to_string(),
                evaluations: f.evaluations,
                ceiling: eval_ceiling(f.name),
            })
            .collect();
        let within_budget = family_work.iter().all(|w| w.evaluations <= w.ceiling);
        let fits = tree.fits();

        let report = ObsSmokeReport {
            cells,
            families: families.iter().map(|f| f.name().to_string()).collect(),
            events: tree.events,
            fits,
            identical_log,
            identical_tree,
            identical_metrics,
            identical_store,
            cells_covered,
            work_attributed,
            within_budget,
            log_bounded: log_bounded(tree.events, fits),
            counters: run1
                .report
                .counters
                .iter()
                .map(|(id, v)| (id.as_str().to_string(), *v))
                .collect(),
            histograms: HistogramId::ALL
                .iter()
                .map(|id| {
                    let h = run1
                        .report
                        .histograms
                        .iter()
                        .find(|(hid, _)| hid == id)
                        .map_or_else(Histogram::default, |(_, h)| h.clone());
                    (id.as_str().to_string(), h)
                })
                .collect(),
            family_work,
            hottest_cells: tree.hottest_cells(TOP_K, WorkMetric::Evaluations),
            hottest_families: tree
                .hottest_families(TOP_K, WorkMetric::Evaluations)
                .into_iter()
                .map(|(name, evals)| (name.to_string(), evals))
                .collect(),
            tree_cells: tree.cells.len(),
            unattributed_evals: tree.unattributed_evaluations,
            log_digest: fnv1a(log1.as_bytes()),
            tree_digest: fnv1a(tree_text.as_bytes()),
        };
        let artifacts = ObsSmokeArtifacts {
            serial_jsonl: log1,
            rerun_jsonl: log2,
            fixed2_jsonl: log3,
            metrics_text,
            tree_text,
        };
        (report, artifacts)
    }

    /// Mean events per family fit in the canonical log (0 without one).
    #[must_use]
    pub fn events_per_fit(&self) -> f64 {
        if self.fits == 0 {
            0.0
        } else {
            self.events as f64 / self.fits as f64
        }
    }

    /// One-line verdict for the CI log, with each family's work against
    /// its ceiling.
    #[must_use]
    pub fn summary(&self) -> String {
        let work: Vec<String> = self
            .family_work
            .iter()
            .map(|w| format!("{}={}/{}", w.family, w.evaluations, w.ceiling))
            .collect();
        format!(
            "obs    cells={} events={} per_fit={:.2}/{} log={} tree={} metrics={} store={} \
             covered={} attributed={} budget={} bounded={} evals=[{}]",
            self.cells,
            self.events,
            self.events_per_fit(),
            EVENTS_PER_FIT_CEILING,
            self.identical_log,
            self.identical_tree,
            self.identical_metrics,
            self.identical_store,
            self.cells_covered,
            self.work_attributed,
            self.within_budget,
            self.log_bounded,
            work.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::run_triple;
    use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use resilience_core::runtime::ExecPolicy;
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};

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

    fn check() -> (ObsSmokeReport, ObsSmokeArtifacts) {
        let runs = run_triple(&tiny_grid(), &families(), &ExecPolicy::default());
        ObsSmokeReport::check(&families(), &runs)
    }

    #[test]
    fn gates_hold_and_the_baseline_is_reproducible() {
        let grid = tiny_grid();
        let (report, artifacts) = check();
        assert!(report.gates_pass(), "gates failed: {report:?}");
        assert_eq!(report.cells, grid.len());
        assert_eq!(report.tree_cells, grid.len());
        assert_eq!(report.unattributed_evals, 0);
        assert_eq!(artifacts.serial_jsonl, artifacts.rerun_jsonl);
        assert_eq!(artifacts.serial_jsonl, artifacts.fixed2_jsonl);
        assert!(artifacts.metrics_text.starts_with("# TYPE"));
        assert!(artifacts.tree_text.starts_with("fleet:"));

        assert!(report.hottest_cells.len() <= TOP_K);
        assert!(!report.hottest_cells.is_empty());
        for pair in report.hottest_cells.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "hottest cells not sorted: {pair:?}");
        }
        let total: u64 = report.family_work.iter().map(|w| w.evaluations).sum();
        let hottest_sum: u64 = report.hottest_cells.iter().map(|(_, e)| e).sum();
        assert!(hottest_sum <= total);

        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"obs\"",
            "\"cells\": 4",
            "\"runs\": 3",
            "\"gates\": {\"identical_log\": true",
            "\"tree_digest\": \"",
            "\"within_budget\": true",
            "\"log_bounded\": true",
            "\"events_per_fit_ceiling\": 8",
            "\"counters\": {",
            "\"objective_evals\":",
            "\"histograms\": {",
            "\"evals_per_fit\":",
            "\"family_work\": [",
            "\"ceiling\":",
            "\"hottest_cells\": [",
            "\"hottest_families\": [",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(
            !json.contains("wall"),
            "baseline must not record wall-clock"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json, check().0.to_json());
    }

    #[test]
    fn a_log_with_a_line_per_iteration_fails_the_volume_gate() {
        // The smoke grid's 128 fits: 5.52 events per fit passes, and a
        // line per Brent iteration of each Competing Risks profile (20–40
        // more per fit) fails, as does the log that wrote every
        // Nelder–Mead iteration (179 per start, thousands per fit).
        assert!(log_bounded(706, 128));
        assert!(log_bounded(EVENTS_PER_FIT_CEILING * 128, 128));
        assert!(!log_bounded(EVENTS_PER_FIT_CEILING * 128 + 1, 128));
        assert!(!log_bounded(706 + 64 * 20, 128));
        assert!(!log_bounded(179 * 128, 128));
        assert!(!log_bounded(0, 0), "a log without fits proves nothing");

        let (mut report, _) = check();
        assert!(report.log_bounded, "{report:?}");
        assert!(report.fits > 0);
        report.events = 179 * report.fits;
        report.log_bounded = log_bounded(report.events, report.fits);
        assert!(!report.gates_pass());
        assert!(report.to_json().contains("\"log_bounded\": false"));
        assert!(report.summary().contains("per_fit=179.00/8"));
    }

    #[test]
    fn ceilings_cover_the_smoke_families() {
        assert_eq!(eval_ceiling("Quadratic"), 96);
        assert_eq!(eval_ceiling("Competing Risks"), 4_600);
        assert_eq!(eval_ceiling("Never Heard Of It"), DEFAULT_EVAL_CEILING);
    }
}
