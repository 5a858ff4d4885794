//! Span-tree reconstruction: from a flat event log to the hierarchy
//! fleet → cell → family fit → attempt → solver.
//!
//! [`SpanTree::build`] replays a log (recorded in-process or parsed from
//! JSONL) and groups its events by the ids they carry. The supervised
//! runtime replays each (cell, family) job's buffered events serially
//! and opens each job with a `job` line naming its cell and family; every
//! event up to the next `job` line belongs to that job, the reduction's
//! verdicts (`fit_failed`, `worker_panic`, breaker transitions,
//! `cell_quarantined`) included. Inside a job, attempt 1 opens at the
//! first `fit_started`, `chaos_injected`, `worker_panic` or solver-level
//! event, and `retry_scheduled` opens the attempt it names. A log without
//! `job` lines holds the standalone fits, retry loops or bootstrap bands
//! that one observer recorded, as implicit jobs in cell 0: the first
//! fit-level event opens one, and so does a fit-level event naming
//! another family than the open fit's, or a `fit_started` on an attempt
//! that already has one. Evaluations outside any job are unattributed.
//!
//! The builder also folds the counter and histogram totals of the events
//! it walks past, which no attribution rule touches.
//! [`RunReport`](crate::report::RunReport) is a view of the tree: its
//! per-family rows and [`SpanTree::hottest_families`] are one fold over
//! the tree's fits, and its counters and histograms are the tree's.
//!
//! No wall-clock values exist anywhere in the input (the workspace clippy
//! ban enforces this), so the tree built from a log is a pure function of
//! the log bytes: byte-identical logs yield byte-identical
//! [`SpanTree::render`] output regardless of the worker count that
//! produced them.

use crate::event::{
    ChaosKind, CounterId, Event, ExitReason, FailureCode, HistogramId, SolverKind, StopKind,
};
use crate::report::{nonempty_histograms, nonzero_counters, FamilyStats, Histogram};
use std::fmt::Write as _;

/// Which work column a top-K query ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkMetric {
    /// Objective evaluations attributed to the span.
    Evaluations,
    /// Retry attempts beyond the first.
    Retries,
}

/// One solver activation inside an attempt (a multi-start probe or a
/// polish pass).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpan {
    /// Emitting solver, once its `converged` line or a stop scoped to it
    /// ([`SolverKind::stop_scope`]) identified it.
    pub solver: Option<SolverKind>,
    /// Multi-start seed index when the span was opened by a `start` event.
    pub start_index: Option<u32>,
    /// Total iterations, known only from a `converged` line: a stop
    /// carries no iteration count.
    pub iterations: Option<u64>,
    /// Total objective evaluations, from the `converged` line or the stop.
    pub evaluations: u64,
    /// Termination reason when the solver exited normally.
    pub exit: Option<ExitReason>,
    /// Final objective value at normal termination.
    pub value: Option<f64>,
}

impl SolverSpan {
    fn new(start_index: Option<u32>) -> Self {
        Self {
            solver: None,
            start_index,
            iterations: None,
            evaluations: 0,
            exit: None,
            value: None,
        }
    }
}

/// One fit attempt (attempt 1 is the original try; retries follow).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSpan {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Multi-start pool size its `fit_started` announced: `Some(0)` for an
    /// exact fit, which searches nothing; `None` when no `fit_started`
    /// arrived (a faulted attempt, or telemetry lost).
    pub starts: Option<u32>,
    /// Solver activations inside this attempt, in order.
    pub solvers: Vec<SolverSpan>,
    /// Objective evaluations charged to this attempt (counter deltas plus
    /// work carried by stop events).
    pub evaluations: u64,
    /// Deadline/cancellation observed during the attempt, if any.
    pub stopped: Option<StopKind>,
    /// Chaos faults injected into this attempt.
    pub chaos: Vec<ChaosKind>,
    /// SSE and convergence of the attempt's `fit_finished`, if one
    /// arrived: each attempt of a retry loop can finish unconverged.
    pub finished: Option<(f64, bool)>,
}

impl AttemptSpan {
    fn new(attempt: u32) -> Self {
        Self {
            attempt,
            starts: None,
            solvers: Vec::new(),
            evaluations: 0,
            stopped: None,
            chaos: Vec::new(),
            finished: None,
        }
    }

    /// The open span of `solver`, opening one (and closing a mismatched
    /// predecessor) as needed.
    fn solver_mut(&mut self, solver: SolverKind) -> &mut SolverSpan {
        let reuse = self
            .solvers
            .last()
            .is_some_and(|s| s.exit.is_none() && s.solver.is_none_or(|k| k == solver));
        if !reuse {
            self.solvers.push(SolverSpan::new(None));
        }
        let span = self.solvers.last_mut().expect("span pushed above");
        span.solver = Some(solver);
        span
    }
}

/// How a family fit ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FitOutcome {
    /// A usable model came back.
    Completed {
        /// Final sum of squared errors.
        sse: f64,
        /// Evaluations the runtime charged to the winning solve.
        evaluations: u64,
        /// Whether the winning solve met its tolerance.
        converged: bool,
    },
    /// The fit terminated without a usable model.
    Failed(FailureCode),
    /// The log ended (or telemetry was lost) before a terminal event.
    Lost,
}

/// One family fit inside a cell: one job's span, with its retry attempts
/// nested inside.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSpan {
    /// Family name.
    pub family: &'static str,
    /// Attempts in order; empty for fits that never ran (breaker skips).
    pub attempts: Vec<AttemptSpan>,
    /// Terminal state.
    pub outcome: FitOutcome,
    /// Whether a worker panic was attributed to this fit.
    pub panicked: bool,
}

impl FitSpan {
    fn new(family: &'static str) -> Self {
        Self {
            family,
            attempts: Vec::new(),
            outcome: FitOutcome::Lost,
            panicked: false,
        }
    }

    /// The current attempt, opening attempt 1 on first use.
    fn attempt_mut(&mut self) -> &mut AttemptSpan {
        if self.attempts.is_empty() {
            self.attempts.push(AttemptSpan::new(1));
        }
        self.attempts.last_mut().expect("attempt pushed above")
    }

    /// Objective evaluations attributed to the fit (sum over attempts,
    /// saturating at `u64::MAX`).
    pub fn evaluations(&self) -> u64 {
        saturating_sum(self.attempts.iter().map(|a| a.evaluations))
    }

    /// Retry attempts beyond the first.
    pub fn retries(&self) -> u64 {
        (self.attempts.len() as u64).saturating_sub(1)
    }
}

/// One fleet cell: the family fits of one series, plus supervision facts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpan {
    /// Fleet cell index (0 for single-series runs).
    pub cell: u32,
    /// Family fits in replay order.
    pub fits: Vec<FitSpan>,
    /// Failure count at quarantine, when the supervisor parked the cell.
    pub quarantined: Option<u32>,
    /// Circuit-breaker transitions replayed inside this cell's jobs.
    pub breaker_transitions: u64,
}

impl CellSpan {
    fn new(cell: u32) -> Self {
        Self {
            cell,
            fits: Vec::new(),
            quarantined: None,
            breaker_transitions: 0,
        }
    }

    /// Objective evaluations attributed to the cell (sum over its fits,
    /// saturating at `u64::MAX`).
    pub fn evaluations(&self) -> u64 {
        saturating_sum(self.fits.iter().map(FitSpan::evaluations))
    }

    /// Retry attempts attributed to the cell.
    pub fn retries(&self) -> u64 {
        self.fits.iter().map(FitSpan::retries).sum()
    }

    fn work(&self, metric: WorkMetric) -> u64 {
        match metric {
            WorkMetric::Evaluations => self.evaluations(),
            WorkMetric::Retries => self.retries(),
        }
    }
}

/// The reconstructed hierarchy of one event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Cells in replay (flattened job) order.
    pub cells: Vec<CellSpan>,
    /// Evaluations observed outside any job.
    pub unattributed_evaluations: u64,
    /// Total events consumed.
    pub events: u64,
    /// Counter totals, in [`CounterId::ALL`] order, zero entries omitted.
    /// A stop adds the evaluations it carries to `objective_evals` (a
    /// stopped solver never flushed its counter) and one to `timeouts` or
    /// `cancellations`. [`RunReport`](crate::report::RunReport) shows them.
    pub(crate) counters: Vec<(CounterId, u64)>,
    /// Histograms with at least one observation, in [`HistogramId::ALL`]
    /// order.
    pub(crate) histograms: Vec<(HistogramId, Histogram)>,
}

/// The sum of `values`, saturating at `u64::MAX`: the evaluations and
/// iterations a log carries are parsed input, so their sum can exceed any
/// `u64`.
fn saturating_sum(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0, u64::saturating_add)
}

/// Builder state while replaying the log.
#[derive(Default)]
pub(crate) struct Builder {
    tree: SpanTree,
    /// Position in `tree.cells` of the open job's cell, whose last fit is
    /// the job's. `None` before the first job.
    job: Option<usize>,
    /// Whether the open job is implicit: the log has no `job` lines.
    implicit: bool,
    /// Counter totals, indexed by [`CounterId::index`].
    counters: [u64; CounterId::ALL.len()],
    /// Histograms, indexed by [`HistogramId::index`].
    histograms: [Histogram; HistogramId::ALL.len()],
}

impl Builder {
    /// Position of the cell named `index`: the last cell if it has that
    /// index, otherwise a new one.
    fn cell(&mut self, index: u32) -> usize {
        if self.tree.cells.last().is_none_or(|c| c.cell != index) {
            self.tree.cells.push(CellSpan::new(index));
        }
        self.tree.cells.len() - 1
    }

    /// Opens a job for `family` in cell `index`, with no attempts yet.
    fn open_job(&mut self, index: u32, family: &'static str, implicit: bool) {
        let c = self.cell(index);
        self.tree.cells[c].fits.push(FitSpan::new(family));
        self.job = Some(c);
        self.implicit = implicit;
    }

    /// The open job's fit for a fit-level event naming `family`. In a log
    /// without `job` lines, this opens an implicit job in cell 0 before
    /// the first such event, and again when the event names another
    /// family than the open fit's.
    fn fit(&mut self, family: &'static str) -> &mut FitSpan {
        let open = self.job.is_some_and(|c| {
            !self.implicit
                || self.tree.cells[c]
                    .fits
                    .last()
                    .is_some_and(|f| f.family == family)
        });
        if !open {
            self.open_job(0, family, true);
        }
        let c = self.job.expect("a job is open");
        self.tree.cells[c].fits.last_mut().expect("a job has a fit")
    }

    /// [`Builder::fit`] with its attempt 1 opened.
    fn running(&mut self, family: &'static str) -> &mut FitSpan {
        let fit = self.fit(family);
        fit.attempt_mut();
        fit
    }

    /// The open job's current attempt, if a job is open.
    fn attempt_mut(&mut self) -> Option<&mut AttemptSpan> {
        let fit = self.tree.cells[self.job?].fits.last_mut()?;
        Some(fit.attempt_mut())
    }

    /// Adds `delta` to counter `id`, saturating at `u64::MAX`: a log's
    /// deltas are parsed input, so their sum can exceed any `u64`.
    fn add(&mut self, id: CounterId, delta: u64) {
        let total = &mut self.counters[id.index()];
        *total = total.saturating_add(delta);
    }

    /// Charges `evaluations` to the open job's current attempt, which it
    /// returns, or to the unattributed total outside any job, saturating
    /// at `u64::MAX`.
    fn charge(&mut self, evaluations: u64) -> Option<&mut AttemptSpan> {
        if self.job.is_none() {
            let total = &mut self.tree.unattributed_evaluations;
            *total = total.saturating_add(evaluations);
        }
        let attempt = self.attempt_mut()?;
        attempt.evaluations = attempt.evaluations.saturating_add(evaluations);
        Some(attempt)
    }

    /// Files one event under its job.
    pub(crate) fn consume(&mut self, event: &Event) {
        self.tree.events += 1;
        match *event {
            Event::JobStarted { cell, family } => self.open_job(cell, family, false),
            // Each attempt announces its own pool. Without `job` lines, a
            // second `fit_started` on one attempt, with no retry between
            // them, begins the next standalone fit.
            Event::FitStarted { family, starts } => {
                let repeated = self
                    .fit(family)
                    .attempts
                    .last()
                    .is_some_and(|a| a.starts.is_some());
                if repeated && self.implicit {
                    self.open_job(0, family, true);
                }
                self.running(family).attempt_mut().starts = Some(starts);
            }
            Event::FitFinished {
                family,
                sse,
                evaluations,
                converged,
            } => {
                let fit = self.running(family);
                fit.attempt_mut().finished = Some((sse, converged));
                fit.outcome = FitOutcome::Completed {
                    sse,
                    evaluations,
                    converged,
                };
            }
            // Also the selection layer's verdict on a fit that finished.
            Event::FitFailed { family: f, kind } => self.fit(f).outcome = FitOutcome::Failed(kind),
            Event::StartBegan { index } => {
                if let Some(attempt) = self.attempt_mut() {
                    attempt.solvers.push(SolverSpan::new(Some(index)));
                }
            }
            Event::Converged {
                solver,
                iterations,
                evaluations,
                value,
                reason,
            } => {
                if let Some(attempt) = self.attempt_mut() {
                    let span = attempt.solver_mut(solver);
                    span.iterations = Some(iterations);
                    span.evaluations = evaluations;
                    span.exit = Some(reason);
                    span.value = Some(value);
                }
            }
            // A retry follows attempt 1, even one that left no events.
            Event::RetryScheduled { family, attempt: n } => {
                self.running(family).attempts.push(AttemptSpan::new(n));
            }
            Event::Stop {
                scope,
                kind,
                evaluations,
            } => {
                self.add(CounterId::ObjectiveEvals, evaluations);
                self.add(
                    match kind {
                        StopKind::Deadline => CounterId::Timeouts,
                        StopKind::Cancelled => CounterId::Cancellations,
                    },
                    1,
                );
                if let Some(attempt) = self.charge(evaluations) {
                    attempt.stopped = Some(kind);
                    // A solver stopped mid-run writes no `converged` line:
                    // its stop is the only record of it and its work.
                    if let Some(solver) = SolverKind::from_stop_scope(scope) {
                        attempt.solver_mut(solver).evaluations = evaluations;
                    }
                }
            }
            Event::WorkerPanic { scope, .. } => self.running(scope).panicked = true,
            Event::ChaosInjected { kind, family: f } => self.fit(f).attempt_mut().chaos.push(kind),
            Event::BreakerOpened { .. }
            | Event::BreakerHalfOpen { .. }
            | Event::BreakerClosed { .. } => {
                if let Some(c) = self.job {
                    self.tree.cells[c].breaker_transitions += 1;
                }
            }
            Event::CellQuarantined { cell, failures } => {
                let c = self.cell(cell);
                self.tree.cells[c].quarantined = Some(failures);
            }
            Event::Counter { id, delta } => {
                self.add(id, delta);
                if id == CounterId::ObjectiveEvals {
                    self.charge(delta);
                }
            }
            Event::Hist { id, value } => self.histograms[id.index()].observe(value),
        }
    }

    /// The tree of every event consumed so far.
    pub(crate) fn finish(self) -> SpanTree {
        SpanTree {
            counters: nonzero_counters(self.counters),
            histograms: nonempty_histograms(self.histograms),
            ..self.tree
        }
    }
}

impl SpanTree {
    /// Rebuilds the hierarchy from an event stream.
    pub fn build<'a, I>(events: I) -> SpanTree
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut builder = Builder::default();
        for event in events {
            builder.consume(event);
        }
        builder.finish()
    }

    /// Per-family totals, one fold over the fits, with families in the
    /// order of their first fit. An attempt counts as started when it has
    /// a `fit_started` and as completed when it has a `fit_finished`;
    /// iterations are its solver spans', and failures are each fit's
    /// verdict.
    pub(crate) fn family_stats(&self) -> Vec<FamilyStats> {
        let mut families: Vec<FamilyStats> = Vec::new();
        for fit in self.cells.iter().flat_map(|c| &c.fits) {
            let i = match families.iter().position(|f| f.name == fit.family) {
                Some(i) => i,
                None => {
                    families.push(FamilyStats {
                        name: fit.family,
                        ..FamilyStats::default()
                    });
                    families.len() - 1
                }
            };
            let f = &mut families[i];
            f.evaluations = f.evaluations.saturating_add(fit.evaluations());
            f.retries += fit.retries();
            for attempt in &fit.attempts {
                f.fits_started += u64::from(attempt.starts.is_some());
                let iterations = attempt.solvers.iter().filter_map(|s| s.iterations);
                f.iterations = f.iterations.saturating_add(saturating_sum(iterations));
                if let Some((sse, converged)) = attempt.finished {
                    f.fits_completed += 1;
                    f.converged_fits += u64::from(converged);
                    if sse.is_finite() && f.best_sse.is_none_or(|b| sse < b) {
                        f.best_sse = Some(sse);
                    }
                }
            }
            if let FitOutcome::Failed(kind) = fit.outcome {
                *match kind {
                    FailureCode::TimedOut => &mut f.failed_timeout,
                    FailureCode::Cancelled => &mut f.failed_cancelled,
                    FailureCode::Error => &mut f.failed_error,
                    FailureCode::Panicked => &mut f.panics,
                    FailureCode::Skipped => &mut f.skipped,
                } += 1;
            }
        }
        families
    }

    /// Total family fits across all cells.
    pub fn fits(&self) -> u64 {
        self.cells.iter().map(|c| c.fits.len() as u64).sum()
    }

    /// Total objective evaluations attributed anywhere in the tree,
    /// saturating at `u64::MAX`.
    pub fn evaluations(&self) -> u64 {
        let cells = self.cells.iter().map(CellSpan::evaluations);
        saturating_sum(cells).saturating_add(self.unattributed_evaluations)
    }

    /// Total retry attempts.
    pub fn retries(&self) -> u64 {
        self.cells.iter().map(CellSpan::retries).sum()
    }

    /// The `k` hottest cells by `metric`, hottest first; ties break toward
    /// the lower cell index, so the order is deterministic.
    pub fn hottest_cells(&self, k: usize, metric: WorkMetric) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .cells
            .iter()
            .map(|c| (c.cell, c.work(metric)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `k` hottest families by `metric`, aggregated across cells,
    /// hottest first; ties break toward first-seen order.
    pub fn hottest_families(&self, k: usize, metric: WorkMetric) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self
            .family_stats()
            .iter()
            .map(|f| {
                let work = match metric {
                    WorkMetric::Evaluations => f.evaluations,
                    WorkMetric::Retries => f.retries,
                };
                (f.name, work)
            })
            .collect();
        v.sort_by_key(|&(_, work)| std::cmp::Reverse(work));
        v.truncate(k);
        v
    }

    /// Renders the tree as indented monospace text. `max_cells` bounds the
    /// number of cells printed (a trailer reports the omitted count);
    /// `max_depth` bounds nesting: 1 = cells, 2 = fits, 3 = attempts,
    /// 4 = solvers.
    pub fn render(&self, max_cells: usize, max_depth: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} cells, {} fits, {} evals, {} retries, {} unattributed evals",
            self.cells.len(),
            self.fits(),
            self.evaluations(),
            self.retries(),
            self.unattributed_evaluations
        );
        for cell in self.cells.iter().take(max_cells) {
            let _ = write!(
                out,
                "cell {}: {} fits, {} evals, {} retries",
                cell.cell,
                cell.fits.len(),
                cell.evaluations(),
                cell.retries()
            );
            if let Some(failures) = cell.quarantined {
                let _ = write!(out, ", QUARANTINED ({failures} failures)");
            }
            if cell.breaker_transitions > 0 {
                let _ = write!(out, ", {} breaker transitions", cell.breaker_transitions);
            }
            out.push('\n');
            if max_depth < 2 {
                continue;
            }
            for fit in &cell.fits {
                let _ = write!(
                    out,
                    "  {}: evals={} attempts={}",
                    fit.family,
                    fit.evaluations(),
                    fit.attempts.len()
                );
                match &fit.outcome {
                    FitOutcome::Completed { sse, converged, .. } => {
                        let _ = write!(
                            out,
                            " ok sse={sse:.4e}{}",
                            if *converged { " converged" } else { "" }
                        );
                    }
                    FitOutcome::Failed(kind) => {
                        let _ = write!(out, " failed({})", kind.as_str());
                    }
                    FitOutcome::Lost => out.push_str(" lost"),
                }
                if fit.panicked {
                    out.push_str(" panicked");
                }
                out.push('\n');
                if max_depth < 3 {
                    continue;
                }
                for attempt in &fit.attempts {
                    let _ = write!(
                        out,
                        "    attempt {}: evals={}",
                        attempt.attempt, attempt.evaluations
                    );
                    if let Some(kind) = attempt.stopped {
                        let _ = write!(out, " stopped({})", kind.as_str());
                    }
                    for kind in &attempt.chaos {
                        let _ = write!(out, " chaos({})", kind.as_str());
                    }
                    out.push('\n');
                    if max_depth < 4 {
                        continue;
                    }
                    for span in &attempt.solvers {
                        let solver = span.solver.map_or("?", SolverKind::as_str);
                        let _ = write!(out, "      {solver}");
                        if let Some(i) = span.start_index {
                            let _ = write!(out, " start {i}");
                        }
                        match span.iterations {
                            Some(n) => {
                                let _ = write!(out, ": iters={n}");
                            }
                            None => out.push_str(": iters=?"),
                        }
                        let _ = write!(out, " evals={}", span.evaluations);
                        if let Some(exit) = span.exit {
                            let _ = write!(out, " exit={}", exit.as_str());
                        }
                        out.push('\n');
                    }
                }
            }
        }
        if self.cells.len() > max_cells {
            let _ = writeln!(out, "... ({} more cells)", self.cells.len() - max_cells);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HistogramId;
    use crate::parse::{intern, parse_log};

    fn job(cell: u32, family: &'static str) -> Event {
        Event::JobStarted { cell, family }
    }

    fn started(family: &'static str) -> Event {
        Event::FitStarted { family, starts: 4 }
    }

    fn evals(delta: u64) -> Event {
        Event::Counter {
            id: CounterId::ObjectiveEvals,
            delta,
        }
    }

    fn finished(family: &'static str, evaluations: u64) -> Event {
        Event::FitFinished {
            family,
            sse: 1.0,
            evaluations,
            converged: true,
        }
    }

    fn chaos(kind: ChaosKind, family: &'static str) -> Event {
        Event::ChaosInjected { kind, family }
    }

    #[test]
    fn selection_rejection_reterminates_the_completed_fit() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let events = vec![
            job(0, q),
            started(q),
            evals(7),
            finished(q, 7),
            // The selection layer rejected the numerically-complete fit:
            // a trailing verdict inside the same job.
            Event::FitFailed {
                family: q,
                kind: FailureCode::Error,
            },
            job(0, g),
            started(g),
            evals(5),
            finished(g, 5),
            job(1, q),
            started(q),
            evals(3),
            finished(q, 3),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.cells[0].fits.len(), 2);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(fit.outcome, FitOutcome::Failed(FailureCode::Error));
        assert_eq!(fit.evaluations(), 7, "rejected fit keeps its work");
        assert_eq!(tree.cells[1].fits.len(), 1);
    }

    #[test]
    fn cells_come_from_job_lines() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        // Two cells x two families; each `job` line names its cell.
        let events = vec![
            job(0, q),
            started(q),
            evals(10),
            finished(q, 10),
            job(0, g),
            started(g),
            evals(20),
            finished(g, 20),
            job(1, q),
            started(q),
            evals(30),
            finished(q, 30),
            job(1, g),
            started(g),
            evals(40),
            finished(g, 40),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.fits(), 4);
        assert_eq!(tree.cells[0].evaluations(), 30);
        assert_eq!(tree.cells[1].evaluations(), 70);
        assert_eq!(tree.evaluations(), 100);
        assert_eq!(tree.retries(), 0);
        assert_eq!(
            tree.hottest_cells(5, WorkMetric::Evaluations),
            vec![(1, 70), (0, 30)]
        );
        assert_eq!(
            tree.hottest_families(1, WorkMetric::Evaluations),
            vec![(g, 60)]
        );
    }

    #[test]
    fn retry_reemits_fit_started_within_the_same_fit() {
        let q = intern("Quadratic");
        let events = vec![
            job(0, q),
            started(q),
            Event::Stop {
                scope: intern("nelder_mead"),
                kind: StopKind::Deadline,
                evaluations: 7,
            },
            Event::RetryScheduled {
                family: q,
                attempt: 2,
            },
            // Re-emission for attempt 2, NOT a new cell: an exact fit.
            Event::FitStarted {
                family: q,
                starts: 0,
            },
            evals(13),
            finished(q, 13),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 1);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(fit.attempts.len(), 2);
        // Each attempt keeps its own pool size.
        assert_eq!(fit.attempts[0].starts, Some(4));
        assert_eq!(fit.attempts[1].starts, Some(0));
        assert_eq!(fit.attempts[0].evaluations, 7);
        assert_eq!(fit.attempts[0].stopped, Some(StopKind::Deadline));
        assert_eq!(fit.attempts[1].evaluations, 13);
        assert_eq!(fit.evaluations(), 20);
        assert_eq!(fit.retries(), 1);
        assert!(matches!(fit.outcome, FitOutcome::Completed { .. }));
    }

    #[test]
    fn a_log_without_job_lines_is_one_implicit_fit() {
        // A standalone retry loop whose unconverged attempts each finish
        // before the next is scheduled: still one fit in cell 0.
        let q = intern("Quadratic");
        let mut events = Vec::new();
        for attempt in 1..=3 {
            if attempt > 1 {
                events.push(Event::RetryScheduled { family: q, attempt });
            }
            events.extend([started(q), evals(9), finished(q, 9)]);
        }
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 1);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(tree.fits(), 1);
        let attempts: Vec<u32> = fit.attempts.iter().map(|a| a.attempt).collect();
        assert_eq!(attempts, vec![1, 2, 3]);
        assert_eq!(fit.evaluations(), 27);
        assert_eq!(tree.retries(), 2);
    }

    #[test]
    fn solver_spans_nest_inside_attempts() {
        let q = intern("Quadratic");
        let events = vec![
            started(q),
            Event::StartBegan { index: 0 },
            Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: 9,
                evaluations: 20,
                value: 1.5,
                reason: ExitReason::Converged,
            },
            Event::Converged {
                solver: SolverKind::LevenbergMarquardt,
                iterations: 3,
                evaluations: 9,
                value: 1.0,
                reason: ExitReason::Converged,
            },
            evals(29),
            finished(q, 29),
        ];
        let tree = SpanTree::build(&events);
        let attempt = &tree.cells[0].fits[0].attempts[0];
        assert_eq!(attempt.solvers.len(), 2);
        assert_eq!(attempt.solvers[0].solver, Some(SolverKind::NelderMead));
        assert_eq!(attempt.solvers[0].start_index, Some(0));
        assert_eq!(attempt.solvers[0].iterations, Some(9));
        assert_eq!(attempt.solvers[0].exit, Some(ExitReason::Converged));
        assert_eq!(
            attempt.solvers[1].solver,
            Some(SolverKind::LevenbergMarquardt)
        );
        assert_eq!(attempt.solvers[1].start_index, None);
        assert_eq!(attempt.solvers[1].iterations, Some(3));
        let solver_evals: u64 = attempt.solvers.iter().map(|s| s.evaluations).sum();
        assert_eq!(solver_evals, attempt.evaluations);
    }

    #[test]
    fn a_solver_stopped_mid_run_is_named_by_its_stop() {
        // Start 0 converges; start 1's Nelder–Mead run hits the deadline
        // mid-run, so its only record is the stop line.
        let q = intern("Quadratic");
        let nm = |iterations, evaluations| Event::Converged {
            solver: SolverKind::NelderMead,
            iterations,
            evaluations,
            value: 1.5,
            reason: ExitReason::Converged,
        };
        let events = vec![
            job(0, q),
            started(q),
            Event::StartBegan { index: 0 },
            nm(9, 20),
            evals(20),
            Event::StartBegan { index: 1 },
            Event::Stop {
                scope: intern("nelder_mead"),
                kind: StopKind::Deadline,
                evaluations: 6,
            },
            Event::FitFailed {
                family: q,
                kind: FailureCode::TimedOut,
            },
        ];
        let tree = SpanTree::build(&events);
        let attempt = &tree.cells[0].fits[0].attempts[0];
        assert_eq!(attempt.stopped, Some(StopKind::Deadline));
        assert_eq!(attempt.evaluations, 26);
        let stopped = &attempt.solvers[1];
        assert_eq!(stopped.solver, Some(SolverKind::NelderMead));
        assert_eq!(stopped.start_index, Some(1));
        assert_eq!(stopped.evaluations, 6);
        assert_eq!(
            stopped.iterations, None,
            "a stop carries no iteration count"
        );
        assert_eq!(stopped.exit, None);
        let solver_evals: u64 = attempt.solvers.iter().map(|s| s.evaluations).sum();
        assert_eq!(solver_evals, attempt.evaluations);
        let rendered = tree.render(1, 4);
        assert!(
            rendered.contains("nm start 1: iters=? evals=6\n"),
            "{rendered}"
        );
        assert!(
            rendered.contains("nm start 0: iters=9 evals=20 exit=converged\n"),
            "{rendered}"
        );

        // A stop scoped to a pipeline stage names no solver.
        let events = vec![
            started(q),
            Event::StartBegan { index: 0 },
            Event::Stop {
                scope: intern("fit"),
                kind: StopKind::Cancelled,
                evaluations: 0,
            },
        ];
        let tree = SpanTree::build(&events);
        let span = &tree.cells[0].fits[0].attempts[0].solvers[0];
        assert_eq!(span.solver, None);
    }

    #[test]
    fn chaos_skip_and_quarantine_shapes() {
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let events = vec![
            // Cell 0: retry-exhaustion chaos on Quadratic — no fit_started
            // at all, just chaos, a scheduled retry, and the verdict.
            job(0, q),
            chaos(ChaosKind::Exhaustion, q),
            Event::Counter {
                id: CounterId::ChaosInjected,
                delta: 1,
            },
            Event::RetryScheduled {
                family: q,
                attempt: 2,
            },
            Event::FitFailed {
                family: q,
                kind: FailureCode::Error,
            },
            // Glacial was skipped by an open breaker: verdict only.
            job(0, g),
            Event::FitFailed {
                family: g,
                kind: FailureCode::Skipped,
            },
            Event::BreakerOpened {
                family: q,
                consecutive: 2,
                clock: 0,
            },
            Event::CellQuarantined {
                cell: 0,
                failures: 2,
            },
            // Cell 1 runs clean.
            job(1, q),
            started(q),
            evals(11),
            finished(q, 11),
            job(1, g),
            started(g),
            evals(5),
            finished(g, 5),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 2);
        let c0 = &tree.cells[0];
        assert_eq!(c0.quarantined, Some(2));
        assert_eq!(c0.breaker_transitions, 1);
        assert_eq!(c0.fits.len(), 2);
        let exhausted = &c0.fits[0];
        assert_eq!(exhausted.family, q);
        assert_eq!(exhausted.attempts.len(), 2);
        assert_eq!(exhausted.attempts[0].chaos, vec![ChaosKind::Exhaustion]);
        assert_eq!(exhausted.outcome, FitOutcome::Failed(FailureCode::Error));
        let skipped = &c0.fits[1];
        assert!(skipped.attempts.is_empty());
        assert_eq!(skipped.outcome, FitOutcome::Failed(FailureCode::Skipped));
        assert_eq!(tree.cells[1].evaluations(), 16);
        assert_eq!(tree.hottest_cells(1, WorkMetric::Retries), vec![(0, 1)]);
        let rendered = tree.render(10, 4);
        assert!(rendered.contains("QUARANTINED (2 failures)"), "{rendered}");
        assert!(rendered.contains("failed(skipped)"), "{rendered}");
        assert!(rendered.contains("chaos(exhaustion)"), "{rendered}");
    }

    #[test]
    fn a_chaos_deadline_job_is_one_fit_in_one_cell() {
        // The injection opens the job's attempt before the fit's own
        // fit_started: still one fit, not a second cell.
        let q = intern("Quadratic");
        let g = intern("Glacial");
        let events = vec![
            job(0, q),
            chaos(ChaosKind::Deadline, q),
            started(q),
            Event::Stop {
                scope: intern("nelder_mead"),
                kind: StopKind::Deadline,
                evaluations: 4,
            },
            Event::FitFailed {
                family: q,
                kind: FailureCode::TimedOut,
            },
            job(0, g),
            started(g),
            evals(5),
            finished(g, 5),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 1);
        assert_eq!(tree.fits(), 2);
        let fit = &tree.cells[0].fits[0];
        assert_eq!(fit.attempts.len(), 1);
        assert_eq!(fit.attempts[0].chaos, vec![ChaosKind::Deadline]);
        assert_eq!(fit.attempts[0].stopped, Some(StopKind::Deadline));
        assert_eq!(fit.attempts[0].starts, Some(4));
        assert_eq!(fit.outcome, FitOutcome::Failed(FailureCode::TimedOut));
        assert_eq!(tree.cells[0].evaluations(), 9);
    }

    #[test]
    fn observer_loss_leaves_a_lost_fit() {
        let q = intern("Quadratic");
        let events = vec![
            // Cell 0: the observer was dropped after chaos_injected; the
            // job's own telemetry never reached the log.
            job(0, q),
            chaos(ChaosKind::ObserverLoss, q),
            // Cell 1 (single-family roster): same family again.
            job(1, q),
            chaos(ChaosKind::ObserverLoss, q),
            // Cell 2 runs clean.
            job(2, q),
            started(q),
            evals(3),
            finished(q, 3),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.cells.len(), 3);
        assert_eq!(tree.cells[0].fits[0].outcome, FitOutcome::Lost);
        assert_eq!(tree.cells[1].fits[0].outcome, FitOutcome::Lost);
        assert!(matches!(
            tree.cells[2].fits[0].outcome,
            FitOutcome::Completed { .. }
        ));
    }

    #[test]
    fn panic_verdicts_attach_to_the_failing_fit() {
        let q = intern("Quadratic");
        let events = vec![
            job(0, q),
            chaos(ChaosKind::Panic, q),
            Event::WorkerPanic { scope: q, index: 0 },
            Event::FitFailed {
                family: q,
                kind: FailureCode::Panicked,
            },
        ];
        let tree = SpanTree::build(&events);
        let fit = &tree.cells[0].fits[0];
        assert!(fit.panicked);
        assert_eq!(fit.outcome, FitOutcome::Failed(FailureCode::Panicked));
        assert_eq!(fit.attempts[0].chaos, vec![ChaosKind::Panic]);
    }

    #[test]
    fn a_huge_cell_index_names_one_cell() {
        for line in [
            r#"{"ev":"job","cell":4294967295,"family":"Quadratic"}"#,
            r#"{"ev":"cell_quarantined","cell":4294967295,"failures":1}"#,
        ] {
            let tree = SpanTree::build(&parse_log(line).unwrap());
            assert_eq!(tree.cells.len(), 1, "{line}");
            assert_eq!(tree.cells[0].cell, u32::MAX);
            let rendered = tree.render(usize::MAX, 4);
            assert!(rendered.contains("cell 4294967295: "), "{rendered}");
        }
    }

    #[test]
    fn work_outside_any_cell_is_unattributed() {
        let events = vec![
            evals(9),
            Event::Hist {
                id: HistogramId::EvalsPerFit,
                value: 9,
            },
        ];
        let tree = SpanTree::build(&events);
        assert!(tree.cells.is_empty());
        assert_eq!(tree.unattributed_evaluations, 9);
        assert_eq!(tree.evaluations(), 9);
        assert_eq!(tree.events, 2);
        let rendered = tree.render(5, 4);
        assert!(rendered.contains("9 unattributed evals"), "{rendered}");
    }
}
