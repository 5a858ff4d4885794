//! Deterministic Prometheus-style exposition of a run's totals.
//!
//! [`MetricsSnapshot::from_report`] converts a finished [`RunReport`]
//! (aggregated from a recorded or parsed log) into a snapshot, including
//! per-family series. The report is the one aggregation of a log's
//! counters; the snapshot only re-shapes it for exposition.
//!
//! [`MetricsSnapshot::render`] emits the text exposition format. The output
//! is a pure function of the snapshot: metric families appear in canonical
//! id order, every counter is printed (zeros included) so the shape never
//! depends on which events happened to fire, and only integer-valued
//! series are exposed — which keeps the bytes identical across runs and
//! platforms and lets CI `cmp` the file against a golden copy.

use crate::event::{CounterId, HistogramId};
use crate::report::{FamilyStats, Histogram, RunReport};
use std::fmt::Write as _;

/// Prefix for every exposed metric name.
const PREFIX: &str = "resilience_";

/// Point-in-time totals ready for text exposition.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Every counter total in [`CounterId::ALL`] order, zeros included.
    pub counters: [u64; CounterId::ALL.len()],
    /// Every histogram in [`HistogramId::ALL`] order, empties included.
    pub histograms: [Histogram; HistogramId::ALL.len()],
    /// Per-family totals.
    pub families: Vec<FamilyStats>,
    /// Events consumed.
    pub events: u64,
}

impl MetricsSnapshot {
    /// Builds a snapshot (including per-family series) from an aggregated
    /// report.
    pub fn from_report(report: &RunReport) -> MetricsSnapshot {
        let mut counters = [0u64; CounterId::ALL.len()];
        for (id, v) in &report.counters {
            counters[id.index()] = *v;
        }
        let mut histograms: [Histogram; HistogramId::ALL.len()] =
            std::array::from_fn(|_| Histogram::default());
        for (id, h) in &report.histograms {
            histograms[id.index()] = h.clone();
        }
        MetricsSnapshot {
            counters,
            histograms,
            families: report.families.clone(),
            events: report.events,
        }
    }

    /// Total for one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Renders the Prometheus-style text exposition.
    ///
    /// Deterministic by construction: fixed metric order, all counters
    /// printed, integer values only. Histograms emit cumulative
    /// power-of-two `_bucket{le="..."}` series plus `_sum`/`_count`, and —
    /// when non-empty — `_p50`/`_p90`/`_p99` gauges from
    /// [`Histogram::quantile`].
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);

        let _ = writeln!(out, "# TYPE {PREFIX}events_total counter");
        let _ = writeln!(out, "{PREFIX}events_total {}", self.events);

        for (slot, id) in CounterId::ALL.into_iter().enumerate() {
            let name = id.as_str();
            let _ = writeln!(out, "# TYPE {PREFIX}{name}_total counter");
            let _ = writeln!(out, "{PREFIX}{name}_total {}", self.counters[slot]);
        }

        for (slot, id) in HistogramId::ALL.into_iter().enumerate() {
            let name = id.as_str();
            let h = &self.histograms[slot];
            let _ = writeln!(out, "# TYPE {PREFIX}{name} histogram");
            let mut cumulative = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cumulative += n;
                if i + 1 == h.buckets.len() {
                    let _ = writeln!(out, "{PREFIX}{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                } else {
                    let _ = writeln!(
                        out,
                        "{PREFIX}{name}_bucket{{le=\"{}\"}} {cumulative}",
                        Histogram::bucket_upper_bound(i)
                    );
                }
            }
            let _ = writeln!(out, "{PREFIX}{name}_sum {}", h.sum);
            let _ = writeln!(out, "{PREFIX}{name}_count {}", h.count);
            if h.count > 0 {
                for (q, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                    let v = v.expect("non-empty histogram has quantiles");
                    let _ = writeln!(out, "# TYPE {PREFIX}{name}_{q} gauge");
                    let _ = writeln!(out, "{PREFIX}{name}_{q} {v}");
                }
            }
        }

        if !self.families.is_empty() {
            type StatColumn = (&'static str, fn(&FamilyStats) -> u64);
            let stats: [StatColumn; 7] = [
                ("family_fits_started_total", |f| f.fits_started),
                ("family_fits_completed_total", |f| f.fits_completed),
                ("family_converged_fits_total", |f| f.converged_fits),
                ("family_iterations_total", |f| f.iterations),
                ("family_evaluations_total", |f| f.evaluations),
                ("family_retries_total", |f| f.retries),
                ("family_failures_total", FamilyStats::failures),
            ];
            for (name, get) in stats {
                let _ = writeln!(out, "# TYPE {PREFIX}{name} counter");
                for f in &self.families {
                    let _ = writeln!(out, "{PREFIX}{name}{{family=\"{}\"}} {}", f.name, get(f));
                }
            }
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FailureCode, StopKind};
    use crate::parse::intern;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 30,
            },
            Event::Hist {
                id: HistogramId::EvalsPerFit,
                value: 30,
            },
            Event::Stop {
                scope: intern("nelder_mead"),
                kind: StopKind::Deadline,
                evaluations: 4,
            },
        ]
    }

    #[test]
    fn exposition_is_deterministic_and_complete() {
        let snapshot = MetricsSnapshot::from_report(&RunReport::from_events(sample_events()));
        let text = snapshot.render();
        // Every counter appears, including ones that never fired.
        for id in CounterId::ALL {
            assert!(
                text.contains(&format!("resilience_{}_total ", id.as_str())),
                "missing {}",
                id.as_str()
            );
        }
        assert!(
            text.contains("resilience_objective_evals_total 34"),
            "{text}"
        );
        // Cumulative buckets: value 30 has bit length 5, so buckets below
        // le=31 hold 0 and everything from le=31 on holds 1.
        assert!(text.contains("resilience_evals_per_fit_bucket{le=\"15\"} 0"));
        assert!(text.contains("resilience_evals_per_fit_bucket{le=\"31\"} 1"));
        assert!(text.contains("resilience_evals_per_fit_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("resilience_evals_per_fit_sum 30"));
        assert!(text.contains("resilience_evals_per_fit_count 1"));
        assert!(text.contains("resilience_evals_per_fit_p50 30"));
        // Rendering twice yields identical bytes.
        assert_eq!(text, snapshot.render());
    }

    #[test]
    fn from_report_carries_family_series() {
        let report = RunReport::from_events(vec![
            Event::FitStarted {
                family: intern("Quadratic"),
                starts: 2,
            },
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 12,
            },
            Event::FitFinished {
                family: intern("Quadratic"),
                sse: 1.0,
                evaluations: 12,
                converged: true,
            },
            Event::FitFailed {
                family: intern("Glacial"),
                kind: FailureCode::Skipped,
            },
        ]);
        let text = MetricsSnapshot::from_report(&report).render();
        assert!(
            text.contains("resilience_family_evaluations_total{family=\"Quadratic\"} 12"),
            "{text}"
        );
        assert!(
            text.contains("resilience_family_failures_total{family=\"Glacial\"} 1"),
            "{text}"
        );
    }
}
