//! Bench-side spans around calls into the library's layers.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public function; nothing is instrumented inside
//! the library. A span's name is `layer.function`, so its layer is the
//! part before the first dot. Spans stay in memory while the traced run
//! executes and are written out as JSON when it ends. Self time is a
//! span's duration minus the durations of its direct children; the
//! benchmark has a single client thread, so children never overlap.

use crate::clock::Stopwatch;
use crate::json::quote;
use std::fmt::Write as _;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// `layer.function`.
    pub name: &'static str,
    /// The workload (or probe group) the span belongs to.
    pub workload: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall-clock duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A tracer created with [`Tracer::off`] records nothing
/// and reads no clock, so untraced runs pass one through the same code.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<Stopwatch>,
    /// Label attached to spans opened from now on.
    pub workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn on(workload: &'static str) -> Tracer {
        Tracer {
            clock: Some(Stopwatch::start()),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            clock: None,
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let Some(clock) = &self.clock else { return };
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            start_ns: clock.elapsed_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced `end` is a bug in the
    /// benchmark).
    pub fn end(&mut self) {
        let Some(clock) = &self.clock else { return };
        let id = self
            .open
            .pop()
            .expect("Tracer::end without a matching begin");
        self.spans[id].end_ns = clock.elapsed_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Total self time per layer, sorted by layer name.
    #[must_use]
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match totals.iter_mut().find(|(layer, _)| *layer == span.layer()) {
                Some((_, total)) => *total += own,
                None => totals.push((span.layer(), own)),
            }
        }
        totals.sort_unstable_by_key(|(layer, _)| *layer);
        totals
    }

    /// The spans and per-layer self times as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{}",
                i,
                quote(span.name),
                quote(span.workload),
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("], \"layer_self_ns\": {");
        let layers: Vec<String> = self
            .layer_self_ns()
            .iter()
            .map(|(layer, ns)| format!("{}: {ns}", quote(layer)))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::on("w");
        t.begin("bench.op");
        t.begin("runtime.call");
        t.span("fit.inner", || std::hint::black_box(0));
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns() - spans[2].duration_ns());
        assert_eq!(own[2], spans[2].duration_ns());
        let total: u64 = t.layer_self_ns().iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, spans[0].duration_ns());
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("bench.op", || 7), 7);
        t.end();
        assert!(t.spans().is_empty());
    }
}
