//! The benchmark's only wall-clock site.
//!
//! `clippy.toml` bans `std::time::Instant` so that wall-clock never leaks
//! into stored results; timing is this module's whole job, so it carries
//! the one allow. Everything else in the crate measures through
//! [`Stopwatch`] and [`time_ns`].

#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` once and returns its result with the wall-clock nanoseconds it
/// took. The result passes through [`std::hint::black_box`] so the work
/// cannot be optimized away.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let watch = Stopwatch::start();
    let out = std::hint::black_box(f());
    (out, watch.elapsed_ns())
}
