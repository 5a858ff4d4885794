//! Cooperative cancellation and deadlines for the iteration loops.
//!
//! Every solver in this crate takes a [`Control`] in its one entry point
//! and threads it through its iteration loop. The loop polls
//! [`Control::stop_cause`] at well-defined cancellation points — once per
//! simplex iteration, LM outer/inner step, and multi-start start — and
//! returns a typed [`OptimError::TimedOut`]/[`OptimError::Cancelled`]
//! instead of running to its full budget. The check is allocation-free (one atomic load plus
//! one `Instant::now()` read), so the zero-allocation hot path of the
//! fitting pipeline is preserved.
//!
//! Cancellation is **cooperative**: a single objective evaluation that
//! never returns cannot be interrupted. The guarantee is that the solver
//! stops within one iteration (a bounded number of objective evaluations)
//! of the deadline or cancel signal.

// This module is the workspace's one sanctioned home for deadline
// wall-clock (`clippy.toml` bans `std::time::Instant` everywhere else):
// deadlines *gate* execution, they never flow into stored results.
#![allow(clippy::disallowed_types)]

use crate::OptimError;
use resilience_obs::{CounterId, Event, Observer, StopKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperative cancellation.
///
/// Cloning the token shares the flag: cancelling any clone cancels them
/// all. Typical use: the caller keeps one clone and hands another to a
/// long-running fit via [`Control::with_token`].
///
/// # Examples
///
/// ```
/// use resilience_optim::control::CancelToken;
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Signals cancellation to every clone of this token.
    ///
    /// Idempotent; there is no way to un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a supervised run was stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// A [`CancelToken`] fired.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
}

impl StopCause {
    /// The matching typed error, carrying the evaluations consumed so far.
    #[must_use]
    pub fn into_error(self, evaluations: usize) -> OptimError {
        match self {
            StopCause::Cancelled => OptimError::Cancelled { evaluations },
            StopCause::DeadlineExceeded => OptimError::TimedOut { evaluations },
        }
    }

    /// The matching telemetry stop kind.
    #[must_use]
    pub fn stop_kind(self) -> StopKind {
        match self {
            StopCause::Cancelled => StopKind::Cancelled,
            StopCause::DeadlineExceeded => StopKind::Deadline,
        }
    }
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Execution control for one solver call: an optional cancel token plus
/// an optional wall-clock deadline.
///
/// The default ([`Control::unbounded`]) never stops anything, so an
/// uncontrolled solver call costs only the poll.
///
/// # Examples
///
/// ```
/// use resilience_optim::control::{CancelToken, Control};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let control = Control::with_deadline(Duration::from_millis(50)).token(&token);
/// assert!(control.stop_cause().is_none());
/// token.cancel();
/// assert!(control.stop_cause().is_some());
/// ```
#[derive(Clone, Default)]
pub struct Control {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    /// Telemetry sink. `None` means unobserved — [`Control::observe`]
    /// stores `None` for disabled sinks (e.g. `NullObserver`), so the
    /// observed-with-a-null-sink path is byte-for-byte the unobserved one.
    observer: Option<Arc<dyn Observer>>,
}

impl std::fmt::Debug for Control {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Control")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl Control {
    /// A control that never stops the run.
    #[must_use]
    pub fn unbounded() -> Self {
        Control::default()
    }

    /// A control whose deadline is `budget` from now.
    ///
    /// A budget so large that the deadline overflows `Instant` is treated
    /// as unbounded.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Control {
            deadline: Instant::now().checked_add(budget),
            ..Control::unbounded()
        }
    }

    /// A control driven by `token`.
    #[must_use]
    pub fn with_token(token: &CancelToken) -> Self {
        Control::unbounded().token(token)
    }

    /// Attaches a cancel token (builder style).
    #[must_use]
    pub fn token(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// A copy of this control whose deadline is the *earlier* of the
    /// existing one and `budget` from now. The cancel token (if any) is
    /// shared. This is how a supervisor gives each sub-task its own time
    /// budget without ever extending the caller's overall deadline.
    #[must_use]
    pub fn narrowed(&self, budget: Duration) -> Control {
        let new = Instant::now().checked_add(budget);
        Control {
            cancel: self.cancel.clone(),
            deadline: match (self.deadline, new) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            observer: self.observer.clone(),
        }
    }

    /// Polls the stop condition: cancellation first, then the deadline.
    ///
    /// Allocation-free: one atomic load and one monotonic clock read.
    #[must_use]
    pub fn stop_cause(&self) -> Option<StopCause> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopCause::DeadlineExceeded);
            }
        }
        None
    }

    /// Attaches a telemetry sink (builder style).
    ///
    /// A disabled sink (one whose [`Observer::enabled`] returns `false`,
    /// i.e. `NullObserver`) is stored as *no* sink, so instrumented code
    /// sees [`Control::observed`] `== false` and skips event construction
    /// and per-job buffering entirely — the null-observed hot path is the
    /// unobserved hot path.
    #[must_use]
    pub fn observe(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer.enabled().then_some(observer);
        self
    }

    /// A copy of this control with its sink replaced by `observer` (same
    /// token and deadline). This is how parallel stages give each job its
    /// own recording buffer for index-ordered replay.
    #[must_use]
    pub fn with_observer(&self, observer: Arc<dyn Observer>) -> Control {
        self.clone().observe(observer)
    }

    /// A copy of this control that keeps only the sink: no token, no
    /// deadline. Used by pipeline stages that must run to completion (e.g.
    /// the bootstrap base fit) but should still be traced.
    #[must_use]
    pub fn observer_only(&self) -> Control {
        Control {
            cancel: None,
            deadline: None,
            observer: self.observer.clone(),
        }
    }

    /// A copy of this control that keeps the token and deadline but drops
    /// the sink: the dual of [`Control::observer_only`]. The chaos
    /// harness uses this to model observer write failures — the fit still
    /// runs (and still stops on deadline/cancel), but its telemetry is
    /// lost for the rest of the job.
    #[must_use]
    pub fn unobserved(&self) -> Control {
        Control {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            observer: None,
        }
    }

    /// Whether an enabled telemetry sink is attached.
    ///
    /// Instrumented code checks this once per span and skips telemetry
    /// work when `false`.
    #[must_use]
    pub fn observed(&self) -> bool {
        self.observer.is_some()
    }

    /// The attached sink, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// Records `event` into the attached sink (no-op when unobserved).
    pub fn emit(&self, event: Event) {
        if let Some(observer) = &self.observer {
            observer.record(&event);
        }
    }

    /// Records a counter increment, skipping zero deltas (no-op when
    /// unobserved). Solvers batch counts in plain integer locals and flush
    /// them here at termination.
    pub fn count(&self, id: CounterId, delta: u64) {
        if delta > 0 {
            self.emit(Event::Counter { id, delta });
        }
    }

    /// Polls the stop condition and, on a stop, emits a telemetry stop
    /// event (tagged `deadline_exceeded` / `cancelled`, carrying the
    /// evaluations consumed so far as its logical clock) before returning
    /// the typed error.
    ///
    /// This is the solvers' cancellation point: allocation-free on the
    /// continue path.
    pub fn check_stop(&self, scope: &'static str, evaluations: usize) -> Result<(), OptimError> {
        match self.stop_cause() {
            None => Ok(()),
            Some(cause) => {
                self.emit(Event::Stop {
                    scope,
                    kind: cause.stop_kind(),
                    evaluations: evaluations as u64,
                });
                Err(cause.into_error(evaluations))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let c = Control::unbounded();
        assert!(c.stop_cause().is_none());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let control = Control::with_token(&token);
        assert!(control.stop_cause().is_none());
        token.cancel();
        assert_eq!(control.stop_cause(), Some(StopCause::Cancelled));
        // Idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_stops() {
        let control = Control::with_deadline(Duration::ZERO);
        assert_eq!(control.stop_cause(), Some(StopCause::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_stop() {
        let control = Control::with_deadline(Duration::from_secs(3600));
        assert!(control.stop_cause().is_none());
    }

    #[test]
    fn cancellation_takes_precedence_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let control = Control::with_deadline(Duration::ZERO).token(&token);
        assert_eq!(control.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn huge_budget_saturates_to_unbounded_deadline() {
        let control = Control::with_deadline(Duration::MAX);
        // The deadline overflowed and was dropped; only the (absent)
        // token can stop this run.
        assert!(control.stop_cause().is_none());
    }

    #[test]
    fn narrowed_takes_the_earlier_deadline_and_keeps_the_token() {
        // Narrowing an unbounded control installs the budget.
        let c = Control::unbounded().narrowed(Duration::ZERO);
        assert_eq!(c.stop_cause(), Some(StopCause::DeadlineExceeded));
        // Narrowing cannot extend an already-expired deadline.
        let c = Control::with_deadline(Duration::ZERO).narrowed(Duration::from_secs(3600));
        assert_eq!(c.stop_cause(), Some(StopCause::DeadlineExceeded));
        // The token is shared, not copied by value.
        let token = CancelToken::new();
        let c = Control::with_token(&token).narrowed(Duration::from_secs(3600));
        assert!(c.stop_cause().is_none());
        token.cancel();
        assert_eq!(c.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn null_observer_is_stored_as_unobserved() {
        use resilience_obs::{NullObserver, RecordingObserver};
        let c = Control::unbounded().observe(Arc::new(NullObserver));
        assert!(!c.observed());
        let c = Control::unbounded().observe(Arc::new(RecordingObserver::new()));
        assert!(c.observed());
    }

    #[test]
    fn check_stop_emits_a_stop_event_with_the_logical_clock() {
        use resilience_obs::{Event, RecordingObserver, StopKind};
        let rec = Arc::new(RecordingObserver::new());
        let token = CancelToken::new();
        token.cancel();
        let c = Control::with_token(&token).observe(rec.clone());
        assert!(matches!(
            c.check_stop("unit_test", 42),
            Err(OptimError::Cancelled { evaluations: 42 })
        ));
        assert_eq!(
            rec.take(),
            vec![Event::Stop {
                scope: "unit_test",
                kind: StopKind::Cancelled,
                evaluations: 42
            }]
        );
        // The continue path emits nothing.
        let c = Control::unbounded().observe(rec.clone());
        assert!(c.check_stop("unit_test", 1).is_ok());
        assert!(rec.is_empty());
    }

    #[test]
    fn count_skips_zero_deltas() {
        use resilience_obs::{CounterId, RecordingObserver};
        let rec = Arc::new(RecordingObserver::new());
        let c = Control::unbounded().observe(rec.clone());
        c.count(CounterId::ObjectiveEvals, 0);
        assert!(rec.is_empty());
        c.count(CounterId::ObjectiveEvals, 5);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn observer_only_strips_token_and_deadline_but_keeps_the_sink() {
        use resilience_obs::RecordingObserver;
        let token = CancelToken::new();
        token.cancel();
        let c = Control::with_deadline(Duration::ZERO)
            .token(&token)
            .observe(Arc::new(RecordingObserver::new()));
        let inner = c.observer_only();
        assert!(inner.stop_cause().is_none());
        assert!(inner.observed());
    }

    #[test]
    fn narrowed_and_with_observer_carry_the_sink() {
        use resilience_obs::RecordingObserver;
        let rec = Arc::new(RecordingObserver::new());
        let c = Control::unbounded().observe(rec.clone());
        assert!(c.narrowed(Duration::from_secs(1)).observed());
        let swapped = c.with_observer(Arc::new(RecordingObserver::new()));
        swapped.emit(resilience_obs::Event::StartBegan { index: 0 });
        // The original sink did not receive the swapped control's event.
        assert!(rec.is_empty());
    }

    #[test]
    fn stop_cause_maps_to_typed_errors() {
        assert!(matches!(
            StopCause::DeadlineExceeded.into_error(7),
            OptimError::TimedOut { evaluations: 7 }
        ));
        assert!(matches!(
            StopCause::Cancelled.into_error(3),
            OptimError::Cancelled { evaluations: 3 }
        ));
    }
}
