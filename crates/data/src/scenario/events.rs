//! Deterministic Poisson outage/restore event processes.
//!
//! Following Dobson's *Models, metrics, and formulas for electric power
//! system resilience events* (PAPERS.md), outages arrive as a Poisson
//! process, each carries an exponentially distributed magnitude, and
//! restoration completes after an exponentially distributed repair time
//! — producing the staircase performance curves of real utility data.
//!
//! Determinism discipline: every outage event draws from its own
//! counter-derived [`XorShift64`] stream (`stream(seed, k)` for event
//! `k`), never from a shared sequential generator. A realized event list
//! is therefore a pure function of `(spec, horizon)` — bit-identical
//! across runs, platforms, and thread counts, and event `k`'s draws
//! cannot shift when another event's sampling changes.

use crate::scenario::shock::Shock;
use crate::DataError;
use resilience_stats::XorShift64;

/// One realized outage event: performance drops by `depth` at `at` and
/// restores instantly at `restore_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Outage start time.
    pub at: f64,
    /// Restoration time.
    pub restore_at: f64,
    /// Performance lost while the outage is active.
    pub depth: f64,
}

/// A stochastic outage/restore event process with Poisson arrivals.
///
/// # Examples
///
/// ```
/// use resilience_data::scenario::EventProcess;
///
/// let process = EventProcess {
///     outage_rate: 0.1,
///     mean_restore: 4.0,
///     mean_depth: 0.05,
///     max_depth: 0.2,
///     seed: 7,
///     max_events: 1024,
/// };
/// let a = process.realize(200.0)?;
/// let b = process.realize(200.0)?;
/// assert_eq!(a, b); // pure function of (spec, horizon)
/// assert!(!a.is_empty());
/// # Ok::<(), resilience_data::DataError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventProcess {
    /// Expected outages per time unit (Poisson arrival rate, > 0).
    pub outage_rate: f64,
    /// Mean repair time (exponentially distributed restore delays, > 0).
    pub mean_restore: f64,
    /// Mean outage magnitude (exponentially distributed depths, > 0).
    pub mean_depth: f64,
    /// Hard cap on a single outage's depth (≥ `0`, keeps stacked events
    /// from driving performance arbitrarily negative).
    pub max_depth: f64,
    /// Stream seed: same seed ⇒ identical realization.
    pub seed: u64,
    /// Upper bound on realized events (backstop against degenerate
    /// rate/horizon combinations).
    pub max_events: usize,
}

impl EventProcess {
    /// A conservative default event budget.
    pub const DEFAULT_MAX_EVENTS: usize = 4096;

    /// Validates rates and bounds.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSeries`] for non-positive rates,
    /// depths, or event budgets.
    pub fn validate(&self) -> Result<(), DataError> {
        let what = "EventProcess";
        for (name, v) in [
            ("outage_rate", self.outage_rate),
            ("mean_restore", self.mean_restore),
            ("mean_depth", self.mean_depth),
            ("max_depth", self.max_depth),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(DataError::invalid(
                    what,
                    format!("{name} must be positive and finite, got {v}"),
                ));
            }
        }
        if self.max_events == 0 {
            return Err(DataError::invalid(what, "max_events must be positive"));
        }
        Ok(())
    }

    /// Realizes the event list over `[0, horizon]`.
    ///
    /// Event `k` draws its inter-arrival gap, repair time, and magnitude
    /// from the counter-derived stream `XorShift64::stream(seed, k)`, so
    /// the realization is deterministic and schedule-invariant.
    ///
    /// # Errors
    ///
    /// Propagates validation failures; rejects a non-positive or
    /// non-finite horizon.
    pub fn realize(&self, horizon: f64) -> Result<Vec<Outage>, DataError> {
        self.validate()?;
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(DataError::invalid(
                "EventProcess::realize",
                format!("horizon must be positive and finite, got {horizon}"),
            ));
        }
        let mut outages = Vec::new();
        let mut t = 0.0;
        for k in 0..self.max_events {
            let mut stream = XorShift64::stream(self.seed, k as u64);
            t += exp_draw(&mut stream) / self.outage_rate;
            if t > horizon {
                break;
            }
            let duration = exp_draw(&mut stream) * self.mean_restore;
            let depth = (exp_draw(&mut stream) * self.mean_depth).min(self.max_depth);
            // A zero-magnitude or zero-length draw would fail Shock
            // validation; nudge to the smallest meaningful event.
            outages.push(Outage {
                at: t,
                restore_at: t + duration.max(1e-9),
                depth: depth.max(1e-12),
            });
        }
        Ok(outages)
    }

    /// Realizes the process and renders each event as a rectangular
    /// [`Shock::Outage`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventProcess::realize`].
    pub fn shocks(&self, horizon: f64) -> Result<Vec<Shock>, DataError> {
        Ok(self
            .realize(horizon)?
            .iter()
            .map(|o| Shock::Outage {
                at: o.at,
                restore_at: o.restore_at,
                depth: o.depth,
            })
            .collect())
    }
}

/// Standard exponential deviate via inverse CDF. `next_f64` yields
/// `u ∈ [0, 1)`, so `1 − u ∈ (0, 1]` and the log is always finite.
fn exp_draw(rng: &mut XorShift64) -> f64 {
    -(1.0 - rng.next_f64()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(seed: u64) -> EventProcess {
        EventProcess {
            outage_rate: 0.05,
            mean_restore: 3.0,
            mean_depth: 0.04,
            max_depth: 0.15,
            seed,
            max_events: EventProcess::DEFAULT_MAX_EVENTS,
        }
    }

    #[test]
    fn realization_is_deterministic() {
        let p = process(11);
        assert_eq!(p.realize(500.0).unwrap(), p.realize(500.0).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            process(1).realize(500.0).unwrap(),
            process(2).realize(500.0).unwrap()
        );
    }

    #[test]
    fn events_are_ordered_and_bounded() {
        let p = process(3);
        let events = p.realize(400.0).unwrap();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[1].at > w[0].at);
        }
        for e in &events {
            assert!(e.at > 0.0 && e.at <= 400.0);
            assert!(e.restore_at > e.at);
            assert!(e.depth > 0.0 && e.depth <= p.max_depth);
        }
    }

    #[test]
    fn shorter_horizon_is_a_prefix() {
        // Counter-derived streams: truncating the horizon only drops
        // events, never changes the surviving ones.
        let p = process(5);
        let long = p.realize(600.0).unwrap();
        let short = p.realize(300.0).unwrap();
        assert!(short.len() < long.len());
        assert_eq!(&long[..short.len()], &short[..]);
    }

    #[test]
    fn max_events_caps_the_realization() {
        let p = EventProcess {
            max_events: 3,
            ..process(9)
        };
        assert!(p.realize(100_000.0).unwrap().len() <= 3);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        for bad in [
            EventProcess {
                outage_rate: 0.0,
                ..process(1)
            },
            EventProcess {
                mean_restore: -1.0,
                ..process(1)
            },
            EventProcess {
                mean_depth: f64::NAN,
                ..process(1)
            },
            EventProcess {
                max_events: 0,
                ..process(1)
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
        assert!(process(1).validate().is_ok());
        assert!(process(1).realize(-5.0).is_err());
    }
}
