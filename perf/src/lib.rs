//! Closed-loop benchmark of the predictive-resilience library.
//!
//! The `perf` binary times the library from outside, through its public
//! entry points, on four workloads ([`workloads::Workload`]), each driven
//! by one client thread with at most two library worker threads. A run
//! either measures the end-to-end metrics with tracing off
//! ([`run::end_to_end`]) or replays part of the workload with bench-side
//! spans and runs the per-layer probes ([`run::traced`]). Every operation's
//! output is checked bit for bit against a serial reference computed after
//! the timed loop. See the crate README for the metric dictionary and the
//! comparison procedure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod heap;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
