//! Aggregating an event stream into a human- and machine-readable run report.
//!
//! A [`RunReport`] is a view of a [`SpanTree`] ([`RunReport::from_tree`]):
//! per-family totals, global counters, and histograms. The tree's builder
//! files each event under the job its ids name and folds the counter and
//! histogram totals, which no attribution rule touches, as it goes; the
//! per-family totals are then one fold over the tree's fits, the same
//! fold [`SpanTree::hottest_families`] ranks. [`RunReport::from_events`]
//! builds the tree from a log (from a [`RecordingObserver`] or a parsed
//! JSONL file) in one pass and takes the view.
//!
//! All rate-style derived quantities are typed as `Option<f64>` and return
//! `None` instead of dividing by zero, so reports are `NaN`-free by
//! construction.
//!
//! [`RecordingObserver`]: crate::observer::RecordingObserver
//! [`SpanTree`]: crate::span::SpanTree
//! [`SpanTree::hottest_families`]: crate::span::SpanTree::hottest_families

use crate::event::{write_f64, write_json_str, CounterId, Event, HistogramId};
use crate::span::{Builder, SpanTree};
use std::fmt::Write as _;

/// Power-of-two bucketed histogram over `u64` observations.
///
/// Bucket `i` holds values whose bit length is `i` (bucket 0 holds the value
/// 0, bucket 1 holds 1, bucket 2 holds 2–3, ... bucket 16 holds everything
/// ≥ 32768). Exact count/sum/min/max are kept alongside, which is what the
/// report actually renders; buckets exist for shape inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (meaningless when `count == 0`).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Power-of-two buckets by bit length, saturating at the last bucket.
    pub buckets: [u64; 17],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 17],
        }
    }
}

impl Histogram {
    /// Records one observation. The running sum saturates instead of
    /// overflowing so a hostile or corrupt event stream cannot panic the
    /// aggregation (parsed logs additionally reject out-of-range values).
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bits = (64 - value.leading_zeros()) as usize;
        self.buckets[bits.min(self.buckets.len() - 1)] += 1;
    }

    /// Mean observation, or `None` when nothing was observed.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Folds `other`'s observations into this histogram (count/sum add,
    /// min/max widen, buckets add element-wise).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
    }

    /// Inclusive upper bound of bucket `i`: bucket 0 holds only the value 0,
    /// bucket `i` (1 ≤ i ≤ 15) holds values with bit length `i` (upper bound
    /// `2^i − 1`), and the saturating tail bucket reports `u64::MAX`.
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=15 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1), or `None` when
    /// nothing was observed.
    ///
    /// The estimate is the inclusive upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q · count)`, clamped to the exact
    /// observed maximum — so `quantile(1.0)` is always exactly `max`, and
    /// every estimate is an observed-or-larger value within the bucket's
    /// power-of-two resolution.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(Self::bucket_upper_bound(i).min(self.max));
            }
        }
        // Bucket counts always sum to `count`, so the loop returns.
        Some(self.max)
    }

    /// Median upper bound (`quantile(0.5)`).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 90th-percentile upper bound (`quantile(0.9)`).
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.9)
    }

    /// 99th-percentile upper bound (`quantile(0.99)`).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// Aggregated telemetry for one model family, folded over its fits in
/// the span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FamilyStats {
    /// Family name.
    pub name: &'static str,
    /// Attempts that logged a `fit_started`.
    pub fits_started: u64,
    /// Attempts that logged a `fit_finished` (a usable model came back).
    pub fits_completed: u64,
    /// Completed fits whose winning solve met its tolerance.
    pub converged_fits: u64,
    /// Iterations of the family's solver spans.
    pub iterations: u64,
    /// Objective evaluations of the family's attempts (counter deltas plus
    /// work recorded by stop events).
    pub evaluations: u64,
    /// Attempts beyond each fit's first.
    pub retries: u64,
    /// Fits lost to a deadline.
    pub failed_timeout: u64,
    /// Fits lost to cancellation.
    pub failed_cancelled: u64,
    /// Fits lost to a deterministic error.
    pub failed_error: u64,
    /// Worker panics attributed to this family.
    pub panics: u64,
    /// Fits skipped because the family's circuit breaker was open.
    pub skipped: u64,
    /// Best (lowest) SSE across completed fits.
    pub best_sse: Option<f64>,
}

impl FamilyStats {
    /// Fraction of completed fits that converged; `None` when the family
    /// never completed a fit (never `NaN`).
    pub fn convergence_rate(&self) -> Option<f64> {
        if self.fits_completed == 0 {
            None
        } else {
            Some(self.converged_fits as f64 / self.fits_completed as f64)
        }
    }

    /// Mean objective evaluations per started fit; `None` when no fit
    /// started (never `NaN`).
    pub fn mean_evals_per_fit(&self) -> Option<f64> {
        if self.fits_started == 0 {
            None
        } else {
            Some(self.evaluations as f64 / self.fits_started as f64)
        }
    }

    /// Total failed fits across all failure kinds (breaker skips count:
    /// a skipped family produced no usable model for its cell).
    pub fn failures(&self) -> u64 {
        self.failed_timeout + self.failed_cancelled + self.failed_error + self.panics + self.skipped
    }
}

/// The nonzero totals, indexed by [`CounterId::index`], in
/// [`CounterId::ALL`] order.
pub(crate) fn nonzero_counters(totals: [u64; CounterId::ALL.len()]) -> Vec<(CounterId, u64)> {
    CounterId::ALL
        .into_iter()
        .zip(totals)
        .filter(|(_, v)| *v > 0)
        .collect()
}

/// The histograms with an observation, indexed by [`HistogramId::index`],
/// in [`HistogramId::ALL`] order.
pub(crate) fn nonempty_histograms(
    histograms: [Histogram; HistogramId::ALL.len()],
) -> Vec<(HistogramId, Histogram)> {
    HistogramId::ALL
        .into_iter()
        .zip(histograms)
        .filter(|(_, h)| h.count > 0)
        .collect()
}

/// Aggregation of one event log.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-family totals, in the order of each family's first fit.
    pub families: Vec<FamilyStats>,
    /// Global counter totals, in [`CounterId::ALL`] order, zero entries
    /// omitted.
    pub counters: Vec<(CounterId, u64)>,
    /// Histograms with at least one observation, in [`HistogramId::ALL`]
    /// order.
    pub histograms: Vec<(HistogramId, Histogram)>,
    /// Total events consumed.
    pub events: u64,
}

impl RunReport {
    /// Folds an event stream into a report: builds its span tree, then
    /// takes [`RunReport::from_tree`].
    pub fn from_events<I>(events: I) -> RunReport
    where
        I: IntoIterator<Item = Event>,
    {
        let mut builder = Builder::default();
        for event in events {
            builder.consume(&event);
        }
        RunReport::from_tree(&builder.finish())
    }

    /// The report of a log whose span tree is `tree`: the per-family fold
    /// over its fits, and its counters, histograms and event count.
    #[must_use]
    pub fn from_tree(tree: &SpanTree) -> RunReport {
        RunReport {
            families: tree.family_stats(),
            counters: tree.counters.clone(),
            histograms: tree.histograms.clone(),
            events: tree.events,
        }
    }

    /// Folds `other` into this report: fleet-level aggregation across the
    /// per-run (or per-shard) reports of a batch sweep.
    ///
    /// Per-family totals add by family name (preserving this report's
    /// first-seen order, with `other`'s new families appended),
    /// `best_sse` keeps the minimum, and counters and histograms add in
    /// their canonical id order. Evaluations, iterations and counters
    /// saturate at `u64::MAX`, as a histogram's sum does.
    pub fn merge(&mut self, other: &RunReport) {
        for of in &other.families {
            match self.families.iter_mut().find(|f| f.name == of.name) {
                Some(f) => {
                    f.fits_started += of.fits_started;
                    f.fits_completed += of.fits_completed;
                    f.converged_fits += of.converged_fits;
                    f.iterations = f.iterations.saturating_add(of.iterations);
                    f.evaluations = f.evaluations.saturating_add(of.evaluations);
                    f.retries += of.retries;
                    f.failed_timeout += of.failed_timeout;
                    f.failed_cancelled += of.failed_cancelled;
                    f.failed_error += of.failed_error;
                    f.panics += of.panics;
                    f.skipped += of.skipped;
                    f.best_sse = match (f.best_sse, of.best_sse) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => self.families.push(of.clone()),
            }
        }
        let mut counters = [0u64; CounterId::ALL.len()];
        for (id, v) in self.counters.iter().chain(&other.counters) {
            counters[id.index()] = counters[id.index()].saturating_add(*v);
        }
        self.counters = nonzero_counters(counters);
        let mut histograms: [Histogram; HistogramId::ALL.len()] = Default::default();
        for (id, h) in self.histograms.iter().chain(&other.histograms) {
            histograms[id.index()].merge(h);
        }
        self.histograms = nonempty_histograms(histograms);
        self.events += other.events;
    }

    /// Total value of one counter (0 when absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == id)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram by id, if it saw any observations.
    pub fn histogram(&self, id: HistogramId) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(h, _)| *h == id)
            .map(|(_, h)| h)
    }

    /// Renders the per-family table plus counter/histogram footers as plain
    /// monospace text.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>5} {:>9} {:>9} {:>11} {:>7} {:>5} {:>6} {:>6} {:>12}",
            "family",
            "fits",
            "done",
            "conv",
            "iters",
            "evals",
            "retries",
            "t/o",
            "cancel",
            "panic",
            "best_sse"
        );
        for f in &self.families {
            let conv = match f.convergence_rate() {
                Some(r) => format!("{:.0}%", r * 100.0),
                None => "-".into(),
            };
            let best = match f.best_sse {
                Some(s) => format!("{s:.4e}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>5} {:>9} {:>9} {:>11} {:>7} {:>5} {:>6} {:>6} {:>12}",
                f.name,
                f.fits_started,
                f.fits_completed,
                conv,
                f.iterations,
                f.evaluations,
                f.retries,
                f.failed_timeout,
                f.failed_cancelled,
                f.panics,
                best
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (id, v) in &self.counters {
                let _ = writeln!(out, "  {:<28} {v}", id.as_str());
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (id, h) in &self.histograms {
                let mean = h.mean().expect("rendered histograms are non-empty");
                let p50 = h.p50().expect("rendered histograms are non-empty");
                let p90 = h.p90().expect("rendered histograms are non-empty");
                let p99 = h.p99().expect("rendered histograms are non-empty");
                let _ = writeln!(
                    out,
                    "  {:<28} n={} min={} mean={mean:.1} p50<={p50} p90<={p90} p99<={p99} max={}",
                    id.as_str(),
                    h.count,
                    h.min,
                    h.max
                );
            }
        }
        out
    }

    /// Machine-readable JSON rendering of the report. Rates that would
    /// divide by zero serialize as `null`, never `NaN`.
    pub fn to_json(&self) -> String {
        fn opt_f64(out: &mut String, x: Option<f64>) {
            match x {
                Some(v) => write_f64(out, v),
                None => out.push_str("null"),
            }
        }

        let mut out = String::from("{\"families\":[");
        for (i, f) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(&mut out, f.name);
            let _ = write!(
                out,
                ",\"fits_started\":{},\"fits_completed\":{},\"converged_fits\":{},\
                 \"iterations\":{},\"evaluations\":{},\"retries\":{},\
                 \"failed_timeout\":{},\"failed_cancelled\":{},\"failed_error\":{},\
                 \"panics\":{},\"skipped\":{}",
                f.fits_started,
                f.fits_completed,
                f.converged_fits,
                f.iterations,
                f.evaluations,
                f.retries,
                f.failed_timeout,
                f.failed_cancelled,
                f.failed_error,
                f.panics,
                f.skipped
            );
            out.push_str(",\"convergence_rate\":");
            opt_f64(&mut out, f.convergence_rate());
            out.push_str(",\"mean_evals_per_fit\":");
            opt_f64(&mut out, f.mean_evals_per_fit());
            out.push_str(",\"best_sse\":");
            opt_f64(&mut out, f.best_sse);
            out.push('}');
        }
        out.push_str("],\"counters\":{");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", id.as_str());
        }
        out.push_str("},\"histograms\":{");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                id.as_str(),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            opt_f64(&mut out, h.mean());
            out.push('}');
        }
        let _ = write!(out, "}},\"events\":{}", self.events);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ExitReason, FailureCode, SolverKind, StopKind};
    use crate::parse::intern;

    fn sample_events() -> Vec<Event> {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        vec![
            Event::FitStarted {
                family: q,
                starts: 2,
            },
            Event::StartBegan { index: 0 },
            Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: 10,
                evaluations: 30,
                value: 1.0,
                reason: ExitReason::Converged,
            },
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 30,
            },
            Event::Hist {
                id: HistogramId::EvalsPerStart,
                value: 30,
            },
            Event::FitFinished {
                family: q,
                sse: 1.0,
                evaluations: 30,
                converged: true,
            },
            Event::FitStarted {
                family: g,
                starts: 1,
            },
            Event::Stop {
                scope: intern("nelder_mead"),
                kind: StopKind::Deadline,
                evaluations: 4,
            },
            Event::FitFailed {
                family: g,
                kind: FailureCode::TimedOut,
            },
            Event::RetryScheduled {
                family: g,
                attempt: 2,
            },
        ]
    }

    #[test]
    fn aggregates_per_family_spans() {
        let report = RunReport::from_events(sample_events());
        assert_eq!(report.families.len(), 2);

        let q = &report.families[0];
        assert_eq!(q.name, "Quadratic");
        assert_eq!(q.fits_started, 1);
        assert_eq!(q.fits_completed, 1);
        assert_eq!(q.converged_fits, 1);
        assert_eq!(q.iterations, 10);
        assert_eq!(q.evaluations, 30);
        assert_eq!(q.convergence_rate(), Some(1.0));
        assert_eq!(q.best_sse, Some(1.0));

        let g = &report.families[1];
        assert_eq!(g.fits_started, 1);
        assert_eq!(g.fits_completed, 0);
        assert_eq!(g.failed_timeout, 1);
        assert_eq!(g.retries, 1);
        // The stop event's evaluations are charged to the open span.
        assert_eq!(g.evaluations, 4);
        // Satellite: zero completed fits yields None, not NaN.
        assert_eq!(g.convergence_rate(), None);

        assert_eq!(report.counter(CounterId::ObjectiveEvals), 34);
        assert_eq!(report.counter(CounterId::Timeouts), 1);
        let h = report.histogram(HistogramId::EvalsPerStart).unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (1, 30, 30, 30));
        assert_eq!(h.mean(), Some(30.0));
    }

    #[test]
    fn json_is_nan_free_for_empty_families() {
        let report = RunReport::from_events(vec![Event::FitFailed {
            family: intern("Buggy"),
            kind: FailureCode::Panicked,
        }]);
        let json = report.to_json();
        assert!(!json.contains("NaN") && !json.contains("nan"), "{json}");
        assert!(json.contains("\"convergence_rate\":null"), "{json}");
        assert!(json.contains("\"panics\":1"), "{json}");
    }

    #[test]
    fn table_renders_dashes_for_missing_rates() {
        let report = RunReport::from_events(vec![Event::FitFailed {
            family: intern("Buggy"),
            kind: FailureCode::Error,
        }]);
        let table = report.render_table();
        assert!(table.contains("Buggy"), "{table}");
        assert!(table.contains(" - "), "{table}");
        assert!(!table.contains("NaN"), "{table}");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1 << 20] {
            h.observe(v);
        }
        assert_eq!(h.buckets[0], 1); // value 0
        assert_eq!(h.buckets[1], 1); // value 1
        assert_eq!(h.buckets[2], 2); // values 2, 3
        assert_eq!(h.buckets[16], 1); // saturating tail
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 20);
    }

    #[test]
    fn merge_aggregates_families_counters_and_histograms() {
        let a = RunReport::from_events(sample_events());
        let b = RunReport::from_events(vec![
            Event::FitStarted {
                family: intern("Quadratic"),
                starts: 1,
            },
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 6,
            },
            Event::Hist {
                id: HistogramId::EvalsPerStart,
                value: 6,
            },
            Event::FitFinished {
                family: intern("Quadratic"),
                sse: 0.5,
                evaluations: 6,
                converged: true,
            },
            Event::FitStarted {
                family: intern("Quartic"),
                starts: 1,
            },
            Event::FitFinished {
                family: intern("Quartic"),
                sse: 2.0,
                evaluations: 1,
                converged: false,
            },
        ]);
        let mut merged = a.clone();
        merged.merge(&b);
        // First-seen order of `a` is preserved; b's new family appends.
        let names: Vec<&str> = merged.families.iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["Quadratic", "Glacial", "Quartic"]);
        let q = &merged.families[0];
        assert_eq!(q.fits_started, 2);
        assert_eq!(q.fits_completed, 2);
        assert_eq!(q.converged_fits, 2);
        assert_eq!(q.evaluations, 36);
        assert_eq!(q.best_sse, Some(0.5)); // minimum wins
        assert_eq!(
            merged.counter(CounterId::ObjectiveEvals),
            a.counter(CounterId::ObjectiveEvals) + 6
        );
        let h = merged.histogram(HistogramId::EvalsPerStart).unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 36, 6, 30));
        assert_eq!(merged.events, a.events + b.events);
        // Merging an empty report is a no-op on content.
        let mut same = a.clone();
        same.merge(&RunReport::default());
        assert_eq!(same.to_json(), a.to_json());
    }

    #[test]
    fn histogram_quantiles_match_hand_computed_fixtures() {
        // Values 1..=10 land in buckets: b1={1}, b2={2,3}, b3={4..7}, b4={8,9,10}.
        let mut h = Histogram::default();
        for v in 1..=10u64 {
            h.observe(v);
        }
        assert_eq!(h.buckets[1..=4], [1, 2, 4, 3]);
        // rank(0.5) = ceil(5.0) = 5 → cumulative 1,3,7 → bucket 3, bound 7.
        assert_eq!(h.p50(), Some(7));
        // rank(0.9) = 9 → bucket 4, bound 15, clamped to max 10.
        assert_eq!(h.p90(), Some(10));
        // rank(0.99) = ceil(9.9) = 10 → bucket 4 → 10.
        assert_eq!(h.p99(), Some(10));
        assert_eq!(h.quantile(1.0), Some(10));
        // rank clamps to at least 1: the smallest quantile is bucket 1's bound.
        assert_eq!(h.quantile(0.001), Some(1));

        // All-zero observations sit in bucket 0 with bound 0.
        let mut zeros = Histogram::default();
        for _ in 0..4 {
            zeros.observe(0);
        }
        assert_eq!((zeros.p50(), zeros.p99()), (Some(0), Some(0)));

        // Tail bucket saturates: the bound is clamped to the observed max.
        let mut tail = Histogram::default();
        tail.observe(1 << 20);
        assert_eq!(tail.p50(), Some(1 << 20));
        assert_eq!(Histogram::bucket_upper_bound(16), u64::MAX);
        assert_eq!(Histogram::bucket_upper_bound(4), 15);

        // Empty histogram has no quantiles.
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn table_renders_histogram_percentiles() {
        let mut report = RunReport::from_events(Vec::new());
        let mut h = Histogram::default();
        for v in 1..=10u64 {
            h.observe(v);
        }
        report.histograms.push((HistogramId::EvalsPerFit, h));
        let table = report.render_table();
        assert!(table.contains("p50<=7 p90<=10 p99<=10"), "{table}");
    }

    #[test]
    fn histogram_merge_and_saturating_sum() {
        let mut a = Histogram::default();
        a.observe(3);
        let mut b = Histogram::default();
        b.observe(10);
        b.observe(u64::MAX); // saturates instead of panicking
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 3);
        assert_eq!(a.max, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn empty_report_is_well_formed() {
        let report = RunReport::from_events(Vec::new());
        assert!(report.families.is_empty());
        assert_eq!(report.events, 0);
        assert!(report.to_json().starts_with('{'));
        assert!(!report.render_table().is_empty());
    }
}
