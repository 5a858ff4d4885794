//! Deterministic telemetry for the `predictive-resilience` workspace.
//!
//! The fitting pipeline (parallel multi-start solvers, supervised ranking,
//! bootstrap bands) emits span-style [`Event`]s — `job` (the (cell,
//! family) frame the supervised runtime opens before each job's events),
//! `fit_started`, `start`, `converged`, `retry_scheduled`,
//! `deadline_exceeded`, `worker_panic` — plus monotonic counters (a
//! bootstrap band's replicates among them) and histograms, into any sink
//! implementing [`Observer`]. A solver run writes a bounded number of
//! events whatever its iteration count: nothing is written per iteration.
//!
//! Two properties are load-bearing and covered by tests:
//!
//! 1. **Determinism.** Events carry logical clocks only (iteration and
//!    evaluation counts, start/replicate indices) — never wall-clock
//!    values. Parallel pipeline stages buffer events per job
//!    ([`RecordingObserver`]) and replay them in index order, so serial and
//!    parallel runs of the same seed produce byte-identical JSONL logs.
//! 2. **Zero cost when off.** The default sink is [`NullObserver`], whose
//!    `enabled() == false` makes instrumented code skip event construction
//!    entirely; counters are batched as plain integer locals inside solvers
//!    and flushed once at termination, so the objective-evaluation hot path
//!    allocates nothing either way (asserted by the workspace's
//!    counting-allocator tests).
//!
//! Modules:
//!
//! * [`event`] — the event vocabulary and its flat JSON encoding.
//! * [`observer`] — the [`Observer`] trait, [`NullObserver`] and
//!   [`RecordingObserver`].
//! * [`jsonl`] — the JSONL file sink ([`JsonlObserver`]).
//! * [`parse`] — JSONL → [`Event`] parsing ([`parse_log`]) with string
//!   interning.
//! * [`report`] — [`RunReport`] aggregation: per-family totals (a fold
//!   over the [`SpanTree`]) as a table and machine-readable JSON, with
//!   `Option`-typed (`NaN`-free) rates.
//! * [`metrics`] — [`MetricsSnapshot`], a [`RunReport`]'s totals in a
//!   deterministic Prometheus-style exposition.
//! * [`span`] — [`SpanTree`] reconstruction of the fleet → cell → fit →
//!   attempt → solver hierarchy from a log, grouped by its `job` lines,
//!   with top-K work queries.
//! * [`diff`] — byte/field-level log and report diffing
//!   (empty output ⇔ identical).
//!
//! # Example
//!
//! ```
//! use resilience_obs::{Event, Observer, RecordingObserver, RunReport};
//!
//! let rec = RecordingObserver::new();
//! rec.record(&Event::FitStarted { family: "Quadratic", starts: 3 });
//! rec.record(&Event::FitFinished {
//!     family: "Quadratic",
//!     sse: 0.5,
//!     evaluations: 120,
//!     converged: true,
//! });
//! let report = RunReport::from_events(rec.take());
//! assert_eq!(report.families[0].convergence_rate(), Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diff;
pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod observer;
pub mod parse;
pub mod report;
pub mod span;

pub use diff::{
    diff_logs, diff_reports, render_field_diffs, render_line_diffs, FieldDiff, LineDiff,
};
pub use event::{
    ChaosKind, CounterId, Event, ExitReason, FailureCode, HistogramId, SolverKind, StopKind,
};
pub use jsonl::JsonlObserver;
pub use metrics::MetricsSnapshot;
pub use observer::{replay, NullObserver, Observer, RecordingObserver};
pub use parse::{intern, parse_line, parse_log, ParseError};
pub use report::{FamilyStats, Histogram, RunReport};
pub use span::{AttemptSpan, CellSpan, FitOutcome, FitSpan, SolverSpan, SpanTree, WorkMetric};
