//! The telemetry event vocabulary.
//!
//! Every observable fact in the fitting pipeline is one [`Event`] value.
//! Events are `Copy`, carry only stack data (`&'static str` names, integer
//! logical clocks, `f64` objective values), and **never** contain wall-clock
//! timestamps — determinism across serial and parallel runs depends on it.
//! Position in the log and evaluation counters are the only notions of
//! time. A solver run writes a bounded number of events whatever its
//! iteration count: its totals come once, at termination or at a stop.

use std::fmt::Write as _;

/// Which solver emitted a solver-scoped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Nelder–Mead downhill simplex.
    NelderMead,
    /// Levenberg–Marquardt damped least squares.
    LevenbergMarquardt,
    /// A deterministic one-dimensional profile: fixed nodes and a Brent
    /// search in each bracket (Competing Risks' `ln β`). Its one
    /// `converged` line carries its evaluations and Brent iterations.
    Profile,
}

impl SolverKind {
    /// Every solver, in declaration order.
    pub const ALL: [SolverKind; 3] = [
        SolverKind::NelderMead,
        SolverKind::LevenbergMarquardt,
        SolverKind::Profile,
    ];

    /// Stable short tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            SolverKind::NelderMead => "nm",
            SolverKind::LevenbergMarquardt => "lm",
            SolverKind::Profile => "profile",
        }
    }

    /// Inverse of [`SolverKind::as_str`].
    pub fn parse(s: &str) -> Option<SolverKind> {
        Some(match s {
            "nm" => SolverKind::NelderMead,
            "lm" => SolverKind::LevenbergMarquardt,
            "profile" => SolverKind::Profile,
            _ => return None,
        })
    }

    /// The `scope` of a stop raised inside this solver's run.
    pub const fn stop_scope(self) -> &'static str {
        match self {
            SolverKind::NelderMead => "nelder_mead",
            SolverKind::LevenbergMarquardt => "levenberg_marquardt",
            SolverKind::Profile => "profile",
        }
    }

    /// Inverse of [`SolverKind::stop_scope`]: the solver a stop's scope
    /// names, if it names one (a stop can also be scoped to a stage).
    pub fn from_stop_scope(scope: &str) -> Option<SolverKind> {
        SolverKind::ALL
            .into_iter()
            .find(|k| k.stop_scope() == scope)
    }
}

/// Why a solver or fit stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopKind {
    /// The deadline in the governing `Control` passed.
    Deadline,
    /// The cancellation token in the governing `Control` fired.
    Cancelled,
}

impl StopKind {
    /// Stable event tag; doubles as the JSONL `"ev"` value for stop events.
    pub const fn as_str(self) -> &'static str {
        match self {
            StopKind::Deadline => "deadline_exceeded",
            StopKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`StopKind::as_str`].
    pub fn parse(s: &str) -> Option<StopKind> {
        Some(match s {
            "deadline_exceeded" => StopKind::Deadline,
            "cancelled" => StopKind::Cancelled,
            _ => return None,
        })
    }
}

/// Terminal classification of a failed family fit (mirrors the runtime's
/// `FailureKind` without depending on the core crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCode {
    /// Deterministic fit error (bad inputs, no usable starts, ...).
    Error,
    /// The family exhausted its wall-clock budget.
    TimedOut,
    /// The run was cancelled while this family was fitting.
    Cancelled,
    /// The family's objective panicked.
    Panicked,
    /// The fit was never attempted: the family's circuit breaker was
    /// open when the job was scheduled (see `DESIGN.md` §14).
    Skipped,
}

impl FailureCode {
    /// Stable string tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            FailureCode::Error => "error",
            FailureCode::TimedOut => "timed_out",
            FailureCode::Cancelled => "cancelled",
            FailureCode::Panicked => "panicked",
            FailureCode::Skipped => "skipped",
        }
    }

    /// Inverse of [`FailureCode::as_str`].
    pub fn parse(s: &str) -> Option<FailureCode> {
        Some(match s {
            "error" => FailureCode::Error,
            "timed_out" => FailureCode::TimedOut,
            "cancelled" => FailureCode::Cancelled,
            "panicked" => FailureCode::Panicked,
            "skipped" => FailureCode::Skipped,
            _ => return None,
        })
    }
}

/// Which fault a [`Event::ChaosInjected`] record injected.
///
/// Mirrors the runtime's `ChaosFault` without depending on the core crate
/// (the same layering as [`FailureCode`] vs `FailureKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// The job's fit closure was forced to panic.
    Panic,
    /// The job's deadline was collapsed to zero before fitting.
    Deadline,
    /// One fit attempt was failed with a transient error (retryable).
    Transient,
    /// Every fit attempt was failed, exhausting the retry schedule.
    Exhaustion,
    /// The job's observer was dropped (telemetry loss, result kept).
    ObserverLoss,
}

impl ChaosKind {
    /// Every chaos fault kind, in canonical (report) order.
    pub const ALL: [ChaosKind; 5] = [
        ChaosKind::Panic,
        ChaosKind::Deadline,
        ChaosKind::Transient,
        ChaosKind::Exhaustion,
        ChaosKind::ObserverLoss,
    ];

    /// Stable string tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            ChaosKind::Panic => "panic",
            ChaosKind::Deadline => "deadline",
            ChaosKind::Transient => "transient",
            ChaosKind::Exhaustion => "exhaustion",
            ChaosKind::ObserverLoss => "observer_loss",
        }
    }

    /// Inverse of [`ChaosKind::as_str`].
    pub fn parse(s: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Why a solver terminated normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// The convergence tolerance was met.
    Converged,
    /// The iteration budget ran out first.
    MaxIterations,
    /// Progress stalled before the tolerance was met.
    Stalled,
    /// A raced start that lost at the cut: its line carries its work and
    /// its best value when it stopped (DESIGN.md §11, "Racing the
    /// starts").
    Retired,
}

impl ExitReason {
    /// Stable string tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            ExitReason::Converged => "converged",
            ExitReason::MaxIterations => "max_iterations",
            ExitReason::Stalled => "stalled",
            ExitReason::Retired => "retired",
        }
    }

    /// Inverse of [`ExitReason::as_str`].
    pub fn parse(s: &str) -> Option<ExitReason> {
        Some(match s {
            "converged" => ExitReason::Converged,
            "max_iterations" => ExitReason::MaxIterations,
            "stalled" => ExitReason::Stalled,
            "retired" => ExitReason::Retired,
            _ => return None,
        })
    }
}

/// Identifier of a monotonic counter.
///
/// Counters are batched inside solvers as plain integer locals and flushed
/// as [`Event::Counter`] deltas at solver termination, so the hot path never
/// pays for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterId {
    /// Objective-function evaluations.
    ObjectiveEvals,
    /// Nelder–Mead reflection steps accepted.
    NmReflections,
    /// Nelder–Mead expansion steps accepted.
    NmExpansions,
    /// Nelder–Mead contraction steps accepted.
    NmContractions,
    /// Nelder–Mead full-simplex shrinks.
    NmShrinks,
    /// Levenberg–Marquardt damping increases (rejected / failed steps).
    LmDampingUp,
    /// Levenberg–Marquardt damping decreases (accepted steps).
    LmDampingDown,
    /// Retry attempts scheduled by the runtime.
    Retries,
    /// Solver runs stopped by a deadline (one per `deadline_exceeded`
    /// line). A timed-out multi-start fit counts once per stopped start.
    Timeouts,
    /// Solver runs stopped by a cancellation (one per `cancelled` line).
    Cancellations,
    /// Bootstrap replicates that refit successfully.
    BootstrapReplicatesOk,
    /// Bootstrap replicates that failed to refit.
    BootstrapReplicatesFailed,
    /// Faults injected by a chaos plan.
    ChaosInjected,
    /// Circuit-breaker transitions into the Open state.
    BreakerOpened,
    /// Circuit-breaker transitions into the HalfOpen state.
    BreakerHalfOpen,
    /// Fleet cells quarantined by the supervisor.
    CellsQuarantined,
}

impl CounterId {
    /// Every counter, in canonical (report) order.
    pub const ALL: [CounterId; 16] = [
        CounterId::ObjectiveEvals,
        CounterId::NmReflections,
        CounterId::NmExpansions,
        CounterId::NmContractions,
        CounterId::NmShrinks,
        CounterId::LmDampingUp,
        CounterId::LmDampingDown,
        CounterId::Retries,
        CounterId::Timeouts,
        CounterId::Cancellations,
        CounterId::BootstrapReplicatesOk,
        CounterId::BootstrapReplicatesFailed,
        CounterId::ChaosInjected,
        CounterId::BreakerOpened,
        CounterId::BreakerHalfOpen,
        CounterId::CellsQuarantined,
    ];

    /// Stable string tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            CounterId::ObjectiveEvals => "objective_evals",
            CounterId::NmReflections => "nm_reflections",
            CounterId::NmExpansions => "nm_expansions",
            CounterId::NmContractions => "nm_contractions",
            CounterId::NmShrinks => "nm_shrinks",
            CounterId::LmDampingUp => "lm_damping_up",
            CounterId::LmDampingDown => "lm_damping_down",
            CounterId::Retries => "retries",
            CounterId::Timeouts => "timeouts",
            CounterId::Cancellations => "cancellations",
            CounterId::BootstrapReplicatesOk => "bootstrap_replicates_ok",
            CounterId::BootstrapReplicatesFailed => "bootstrap_replicates_failed",
            CounterId::ChaosInjected => "chaos_injected",
            CounterId::BreakerOpened => "breaker_opened",
            CounterId::BreakerHalfOpen => "breaker_half_open",
            CounterId::CellsQuarantined => "cell_quarantined",
        }
    }

    /// Inverse of [`CounterId::as_str`].
    pub fn parse(s: &str) -> Option<CounterId> {
        CounterId::ALL.into_iter().find(|id| id.as_str() == s)
    }

    /// Position in [`CounterId::ALL`], which lists the ids in declaration
    /// order.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// Identifier of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HistogramId {
    /// Objective evaluations consumed by a single multi-start start.
    EvalsPerStart,
    /// Iterations consumed by a single multi-start start.
    IterationsPerStart,
    /// Objective evaluations of one family fit's winning start plus its
    /// polish (`FittedModel::evaluations`), not the losing starts; each
    /// start's own count is in [`HistogramId::EvalsPerStart`].
    EvalsPerFit,
    /// Attempts (1 + retries) a family fit needed.
    AttemptsPerFit,
}

impl HistogramId {
    /// Every histogram, in canonical (report) order.
    pub const ALL: [HistogramId; 4] = [
        HistogramId::EvalsPerStart,
        HistogramId::IterationsPerStart,
        HistogramId::EvalsPerFit,
        HistogramId::AttemptsPerFit,
    ];

    /// Stable string tag used in the JSONL encoding.
    pub const fn as_str(self) -> &'static str {
        match self {
            HistogramId::EvalsPerStart => "evals_per_start",
            HistogramId::IterationsPerStart => "iterations_per_start",
            HistogramId::EvalsPerFit => "evals_per_fit",
            HistogramId::AttemptsPerFit => "attempts_per_fit",
        }
    }

    /// Inverse of [`HistogramId::as_str`].
    pub fn parse(s: &str) -> Option<HistogramId> {
        HistogramId::ALL.into_iter().find(|id| id.as_str() == s)
    }

    /// Position in [`HistogramId::ALL`], which lists the ids in
    /// declaration order.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// One telemetry event.
///
/// All time-like fields are logical clocks: iteration and evaluation
/// counts, start indices. Two runs of the same seed emit the same events in
/// the same order regardless of thread count (the pipeline buffers per-job
/// events and replays them in index order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The supervised runtime is about to replay one (cell, family) job:
    /// every event up to the next `job` line belongs to this job.
    JobStarted {
        /// Fleet cell index (0 for single-series runs).
        cell: u32,
        /// Family name (interned).
        family: &'static str,
    },
    /// A family fit began; `starts` is the number of multi-start seeds.
    FitStarted {
        /// Family name (interned).
        family: &'static str,
        /// Number of initial guesses in the multi-start pool.
        starts: u32,
    },
    /// A family fit finished with a usable model.
    FitFinished {
        /// Family name (interned).
        family: &'static str,
        /// Final sum of squared errors.
        sse: f64,
        /// Objective evaluations charged to the winning start plus polish.
        evaluations: u64,
        /// Whether the winning solve met its convergence tolerance.
        converged: bool,
    },
    /// A family fit terminated without a usable model.
    FitFailed {
        /// Family name (interned).
        family: &'static str,
        /// Failure classification.
        kind: FailureCode,
    },
    /// One multi-start seed began (emitted inside the start's own span).
    StartBegan {
        /// Index of the start in the seed pool.
        index: u32,
    },
    /// A solver terminated normally.
    Converged {
        /// Emitting solver.
        solver: SolverKind,
        /// Total iterations performed.
        iterations: u64,
        /// Total objective evaluations performed.
        evaluations: u64,
        /// Final objective value.
        value: f64,
        /// Why the solver stopped.
        reason: ExitReason,
    },
    /// The runtime scheduled a retry of a failed fit.
    RetryScheduled {
        /// Family name (interned).
        family: &'static str,
        /// Attempt number about to run (2 = first retry).
        attempt: u32,
    },
    /// A solver or pipeline stage hit its deadline or a cancellation.
    Stop {
        /// Where the stop was observed: a solver's
        /// [`SolverKind::stop_scope`], or a stage such as `"fit"`.
        scope: &'static str,
        /// Deadline or cancellation.
        kind: StopKind,
        /// Objective evaluations consumed up to the stop — this is how
        /// per-family wall-budget consumption is recorded without putting
        /// wall-clock values into the log.
        evaluations: u64,
    },
    /// A worker thread panicked and was isolated.
    WorkerPanic {
        /// Supervising scope (e.g. the family name in a ranking run).
        scope: &'static str,
        /// Job index within the scope.
        index: u32,
    },
    /// A chaos plan injected a fault into one (cell, family) job; the
    /// job's `job` line names the cell.
    ChaosInjected {
        /// Which fault was injected.
        kind: ChaosKind,
        /// Family name (interned).
        family: &'static str,
    },
    /// A family's circuit breaker tripped Closed → Open.
    BreakerOpened {
        /// Family name (interned).
        family: &'static str,
        /// Consecutive failures observed at the trip.
        consecutive: u32,
        /// Logical clock of the trip (flattened job index).
        clock: u64,
    },
    /// A family's circuit breaker cooled down Open → HalfOpen.
    BreakerHalfOpen {
        /// Family name (interned).
        family: &'static str,
        /// Logical clock of the transition (flattened job index).
        clock: u64,
    },
    /// A family's HalfOpen probe succeeded; the breaker reclosed.
    BreakerClosed {
        /// Family name (interned).
        family: &'static str,
        /// Logical clock of the transition (flattened job index).
        clock: u64,
    },
    /// A fleet cell was quarantined: every family failed, so the cell is
    /// parked in the store's sentinel column instead of burning budget.
    CellQuarantined {
        /// Fleet cell index.
        cell: u32,
        /// Family failures recorded against the cell at quarantine.
        failures: u32,
    },
    /// Monotonic counter increment (flushed in batches by emitters).
    Counter {
        /// Which counter.
        id: CounterId,
        /// Increment (≥ 1; zero-delta counters are not emitted).
        delta: u64,
    },
    /// One histogram observation.
    Hist {
        /// Which histogram.
        id: HistogramId,
        /// Observed value.
        value: u64,
    },
}

/// Writes `x` into `out` so that parsing recovers the exact bits.
///
/// Finite values use Rust's shortest round-trip `Display`; non-finite values
/// are encoded as the JSON strings `"inf"`, `"-inf"`, `"nan"`.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` keeps a trailing `.0` on integral values, so the token is
        // unambiguously a float on the way back in.
        let _ = write!(out, "{x:?}");
    } else if x.is_nan() {
        out.push_str("\"nan\"");
    } else if x > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Writes a JSON string literal. Family names are plain identifiers in
/// practice, but escape defensively anyway.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// The event's `"ev"` tag in the JSONL encoding.
    pub const fn tag(&self) -> &'static str {
        match self {
            Event::JobStarted { .. } => "job",
            Event::FitStarted { .. } => "fit_started",
            Event::FitFinished { .. } => "fit_finished",
            Event::FitFailed { .. } => "fit_failed",
            Event::StartBegan { .. } => "start",
            Event::Converged { .. } => "converged",
            Event::RetryScheduled { .. } => "retry_scheduled",
            Event::Stop { kind, .. } => kind.as_str(),
            Event::WorkerPanic { .. } => "worker_panic",
            Event::ChaosInjected { .. } => "chaos_injected",
            Event::BreakerOpened { .. } => "breaker_opened",
            Event::BreakerHalfOpen { .. } => "breaker_half_open",
            Event::BreakerClosed { .. } => "breaker_closed",
            Event::CellQuarantined { .. } => "cell_quarantined",
            Event::Counter { .. } => "counter",
            Event::Hist { .. } => "hist",
        }
    }

    /// Appends the single-line JSON encoding of this event to `out`
    /// (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"ev\":\"");
        out.push_str(self.tag());
        out.push('"');
        match *self {
            Event::JobStarted { cell, family } => {
                let _ = write!(out, ",\"cell\":{cell},\"family\":");
                write_json_str(out, family);
            }
            Event::FitStarted { family, starts } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"starts\":{starts}");
            }
            Event::FitFinished {
                family,
                sse,
                evaluations,
                converged,
            } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                out.push_str(",\"sse\":");
                write_f64(out, sse);
                let _ = write!(out, ",\"evals\":{evaluations},\"converged\":{converged}");
            }
            Event::FitFailed { family, kind } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"kind\":\"{}\"", kind.as_str());
            }
            Event::StartBegan { index } => {
                let _ = write!(out, ",\"index\":{index}");
            }
            Event::Converged {
                solver,
                iterations,
                evaluations,
                value,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"solver\":\"{}\",\"iters\":{iterations},\"evals\":{evaluations},\"value\":",
                    solver.as_str()
                );
                write_f64(out, value);
                let _ = write!(out, ",\"reason\":\"{}\"", reason.as_str());
            }
            Event::RetryScheduled { family, attempt } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            Event::Stop {
                scope,
                kind: _,
                evaluations,
            } => {
                out.push_str(",\"scope\":");
                write_json_str(out, scope);
                let _ = write!(out, ",\"evals\":{evaluations}");
            }
            Event::WorkerPanic { scope, index } => {
                out.push_str(",\"scope\":");
                write_json_str(out, scope);
                let _ = write!(out, ",\"index\":{index}");
            }
            Event::ChaosInjected { kind, family } => {
                let _ = write!(out, ",\"kind\":\"{}\",\"family\":", kind.as_str());
                write_json_str(out, family);
            }
            Event::BreakerOpened {
                family,
                consecutive,
                clock,
            } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"consecutive\":{consecutive},\"clock\":{clock}");
            }
            Event::BreakerHalfOpen { family, clock } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"clock\":{clock}");
            }
            Event::BreakerClosed { family, clock } => {
                out.push_str(",\"family\":");
                write_json_str(out, family);
                let _ = write!(out, ",\"clock\":{clock}");
            }
            Event::CellQuarantined { cell, failures } => {
                let _ = write!(out, ",\"cell\":{cell},\"failures\":{failures}");
            }
            Event::Counter { id, delta } => {
                let _ = write!(out, ",\"id\":\"{}\",\"n\":{delta}", id.as_str());
            }
            Event::Hist { id, value } => {
                let _ = write!(out, ",\"id\":\"{}\",\"value\":{value}", id.as_str());
            }
        }
        out.push('}');
    }

    /// Convenience: the JSON encoding as an owned string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }

    /// At least one example value per [`Event`] variant, covering every
    /// enum payload tag (`ChaosKind::ALL`, `CounterId::ALL`, ...) and the
    /// non-finite float encodings.
    ///
    /// The round-trip test in `tests/telemetry.rs` feeds every example
    /// through `write_json` → `parse`, so an event variant cannot ship
    /// without parse support: adding a variant breaks the exhaustive
    /// `match` below until an example is added here.
    pub fn examples() -> Vec<Event> {
        let family = "Quadratic";
        let mut out = vec![
            Event::JobStarted { cell: 7, family },
            Event::FitStarted { family, starts: 8 },
            Event::FitFinished {
                family,
                sse: 1.25e-4,
                evaluations: 512,
                converged: true,
            },
            Event::StartBegan { index: 3 },
            Event::Converged {
                solver: SolverKind::LevenbergMarquardt,
                iterations: 12,
                evaluations: 96,
                value: f64::INFINITY,
                reason: ExitReason::Converged,
            },
            Event::RetryScheduled { family, attempt: 2 },
            Event::WorkerPanic {
                scope: family,
                index: 1,
            },
            Event::BreakerOpened {
                family,
                consecutive: 3,
                clock: 42,
            },
            Event::BreakerHalfOpen { family, clock: 50 },
            Event::BreakerClosed { family, clock: 58 },
            Event::CellQuarantined {
                cell: 9,
                failures: 2,
            },
        ];
        for kind in [
            FailureCode::Error,
            FailureCode::TimedOut,
            FailureCode::Cancelled,
            FailureCode::Panicked,
            FailureCode::Skipped,
        ] {
            out.push(Event::FitFailed { family, kind });
        }
        for solver in SolverKind::ALL {
            let (value, reason) = match solver {
                SolverKind::NelderMead => (f64::NAN, ExitReason::Stalled),
                SolverKind::LevenbergMarquardt => (-0.5, ExitReason::Stalled),
                // The one solver line of every Competing Risks fit.
                SolverKind::Profile => (6.404e-5, ExitReason::Converged),
            };
            out.push(Event::Converged {
                solver,
                iterations: 1,
                evaluations: 2,
                value,
                reason,
            });
        }
        for reason in [
            ExitReason::Converged,
            ExitReason::MaxIterations,
            ExitReason::Stalled,
            ExitReason::Retired,
        ] {
            out.push(Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: 3,
                evaluations: 30,
                value: f64::NEG_INFINITY,
                reason,
            });
        }
        for kind in [StopKind::Deadline, StopKind::Cancelled] {
            out.push(Event::Stop {
                scope: "nelder_mead",
                kind,
                evaluations: 11,
            });
        }
        for kind in ChaosKind::ALL {
            out.push(Event::ChaosInjected { kind, family });
        }
        for id in CounterId::ALL {
            out.push(Event::Counter { id, delta: 5 });
        }
        for id in HistogramId::ALL {
            out.push(Event::Hist { id, value: 1 << 20 });
        }

        // Compile-time exhaustiveness guard: a new Event variant fails this
        // match until it is represented above.
        for e in &out {
            match e {
                Event::JobStarted { .. }
                | Event::FitStarted { .. }
                | Event::FitFinished { .. }
                | Event::FitFailed { .. }
                | Event::StartBegan { .. }
                | Event::Converged { .. }
                | Event::RetryScheduled { .. }
                | Event::Stop { .. }
                | Event::WorkerPanic { .. }
                | Event::ChaosInjected { .. }
                | Event::BreakerOpened { .. }
                | Event::BreakerHalfOpen { .. }
                | Event::BreakerClosed { .. }
                | Event::CellQuarantined { .. }
                | Event::Counter { .. }
                | Event::Hist { .. } => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        assert_eq!(
            Event::FitStarted {
                family: "Quadratic",
                starts: 3
            }
            .tag(),
            "fit_started"
        );
        assert_eq!(
            Event::Stop {
                scope: "nelder_mead",
                kind: StopKind::Deadline,
                evaluations: 10
            }
            .tag(),
            "deadline_exceeded"
        );
        assert_eq!(
            Event::Stop {
                scope: "fit",
                kind: StopKind::Cancelled,
                evaluations: 0
            }
            .tag(),
            "cancelled"
        );
    }

    #[test]
    fn ids_round_trip_through_strings() {
        for id in CounterId::ALL {
            assert_eq!(CounterId::parse(id.as_str()), Some(id));
            assert_eq!(CounterId::ALL[id.index()], id);
        }
        for id in HistogramId::ALL {
            assert_eq!(HistogramId::parse(id.as_str()), Some(id));
            assert_eq!(HistogramId::ALL[id.index()], id);
        }
        for k in [
            SolverKind::NelderMead,
            SolverKind::LevenbergMarquardt,
            SolverKind::Profile,
        ] {
            assert_eq!(SolverKind::parse(k.as_str()), Some(k));
            assert_eq!(SolverKind::from_stop_scope(k.stop_scope()), Some(k));
        }
        assert_eq!(SolverKind::from_stop_scope("fit"), None);
        assert_eq!(SolverKind::parse("ms"), None);
        for r in [
            ExitReason::Converged,
            ExitReason::MaxIterations,
            ExitReason::Stalled,
            ExitReason::Retired,
        ] {
            assert_eq!(ExitReason::parse(r.as_str()), Some(r));
        }
        for f in [
            FailureCode::Error,
            FailureCode::TimedOut,
            FailureCode::Cancelled,
            FailureCode::Panicked,
            FailureCode::Skipped,
        ] {
            assert_eq!(FailureCode::parse(f.as_str()), Some(f));
        }
        for k in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(k.as_str()), Some(k));
        }
        for k in [StopKind::Deadline, StopKind::Cancelled] {
            assert_eq!(StopKind::parse(k.as_str()), Some(k));
        }
    }

    #[test]
    fn json_encoding_is_flat_and_escaped() {
        let e = Event::FitFinished {
            family: "Comp\"Risks",
            sse: 1.5,
            evaluations: 42,
            converged: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"fit_finished\",\"family\":\"Comp\\\"Risks\",\"sse\":1.5,\
             \"evals\":42,\"converged\":true}"
        );
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        for (value, token) in [
            (f64::INFINITY, "\"value\":\"inf\""),
            (f64::NEG_INFINITY, "\"value\":\"-inf\""),
            (f64::NAN, "\"value\":\"nan\""),
        ] {
            let e = Event::Converged {
                solver: SolverKind::NelderMead,
                iterations: 1,
                evaluations: 2,
                value,
                reason: ExitReason::Stalled,
            };
            assert!(e.to_json().contains(token), "{}", e.to_json());
        }
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let e = Event::Converged {
            solver: SolverKind::LevenbergMarquardt,
            iterations: 5,
            evaluations: 6,
            value: 2.0,
            reason: ExitReason::MaxIterations,
        };
        assert!(e.to_json().contains("\"value\":2.0"));
    }
}
