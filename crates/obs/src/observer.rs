//! The [`Observer`] sink trait and the in-process sinks.
//!
//! Two sinks ship with the crate:
//!
//! * [`NullObserver`] — the default. Reports `enabled() == false`, so
//!   instrumented code skips event construction entirely; the hot path is
//!   byte-for-byte the unobserved path (asserted by the counting-allocator
//!   tests in the workspace root).
//! * [`RecordingObserver`] — buffers events in memory. Also the building
//!   block for deterministic parallel telemetry: each parallel job records
//!   into its own buffer and the coordinator replays buffers in index order.
//!
//! The JSONL file sink lives in [`crate::jsonl`].

use crate::event::Event;
use std::sync::Mutex;

/// A telemetry sink.
///
/// Implementations must be `Send + Sync`: parallel pipeline stages share one
/// observer behind an `Arc`. `record` takes `&self`; sinks provide their own
/// interior mutability.
pub trait Observer: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Whether this sink wants events at all.
    ///
    /// Instrumented code checks this once per span and skips event
    /// construction (and per-job buffering) when it returns `false`.
    /// Defaults to `true`; only [`NullObserver`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// The do-nothing sink; `enabled()` is `false` so instrumentation is skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn record(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink that appends every event to a `Vec`.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Mutex<Vec<Event>>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("recording observer poisoned")
            .clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("recording observer poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .expect("recording observer poisoned")
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Observer for RecordingObserver {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("recording observer poisoned")
            .push(*event);
    }
}

/// Replays `events` into `sink` in order. A convenience for the
/// per-job-buffer / index-ordered-replay pattern.
pub fn replay(events: &[Event], sink: &dyn Observer) {
    for e in events {
        sink.record(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, Event};

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
    }

    #[test]
    fn recording_observer_buffers_in_order() {
        let rec = RecordingObserver::new();
        for delta in 1..=3 {
            rec.record(&Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta,
            });
        }
        let events = rec.take();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2],
            Event::Counter {
                id: CounterId::ObjectiveEvals,
                delta: 3
            }
        );
        assert!(rec.is_empty());
    }

    #[test]
    fn replay_preserves_order() {
        let src = RecordingObserver::new();
        src.record(&Event::StartBegan { index: 0 });
        src.record(&Event::StartBegan { index: 1 });
        let dst = RecordingObserver::new();
        replay(&src.take(), &dst);
        assert_eq!(
            dst.events(),
            vec![
                Event::StartBegan { index: 0 },
                Event::StartBegan { index: 1 }
            ]
        );
    }
}
