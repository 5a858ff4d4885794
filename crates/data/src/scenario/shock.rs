//! Shock primitives and recovery trends — the atoms of the scenario
//! grammar.
//!
//! A [`Shock`] is one disruption episode expressed as a time-varying
//! *performance loss* `loss_at(t) ≥ 0`; a scenario sums the losses of
//! all its shocks and subtracts them from the nominal level. A
//! [`Recovery`] describes how the loss decays after the episode's worst
//! point. Composing a handful of these atoms reproduces every curve the
//! repo previously hardcoded (the V/U/W/L/J/K recession letters) and an
//! unbounded space beyond them (cyber outages, grid storms, supply
//! shocks, cascading failures).

use crate::DataError;

/// Cubic smoothstep `3u² − 2u³`, clamped to `[0, 1]`.
#[must_use]
pub fn smoothstep(u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    u * u * (3.0 - 2.0 * u)
}

/// How a shock's loss decays after its worst point.
///
/// `remaining(since)` is the fraction of the peak loss still present
/// `since` time units after the trough; every profile starts at exactly
/// `1.0` so the loss is continuous through the trough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recovery {
    /// Exponential approach back to baseline: `exp(−rate·since)` of the
    /// loss remains. Characteristic of V-shaped rebounds.
    Exponential {
        /// Recovery rate per time unit (> 0).
        rate: f64,
    },
    /// Smoothstep recovery completing over a fixed duration: S-shaped,
    /// characteristic of U-shaped recoveries.
    Smoothstep {
        /// Time from trough to full recovery (> 0).
        duration: f64,
    },
    /// Logistic (sigmoid) recovery: slow start, fast middle, saturating
    /// finish — restoration that must be organized before it scales
    /// (mutual-aid crews, phased restarts).
    Logistic {
        /// Steepness of the sigmoid (> 0).
        rate: f64,
        /// Time after the trough at which half the loss is recovered
        /// (> 0).
        midpoint: f64,
    },
    /// Partial (K-shaped) recovery: only `fraction` of the loss is ever
    /// recovered, exponentially at `rate`; the rest is permanent.
    Partial {
        /// Fraction of the loss that recovers, in `(0, 1]`.
        fraction: f64,
        /// Recovery rate of the recovering fraction (> 0).
        rate: f64,
    },
    /// No recovery: the loss is permanent (L-shaped step changes).
    None,
}

impl Recovery {
    /// Fraction of the peak loss still present `since` time units after
    /// the trough. Exactly `1.0` at `since = 0` for every profile.
    #[must_use]
    pub fn remaining(&self, since: f64) -> f64 {
        match self {
            Recovery::Exponential { rate } => (-rate * since).exp(),
            Recovery::Smoothstep { duration } => 1.0 - smoothstep((since / duration).min(1.0)),
            Recovery::Logistic { rate, midpoint } => {
                (1.0 + (-rate * midpoint).exp()) / (1.0 + (rate * (since - midpoint)).exp())
            }
            Recovery::Partial { fraction, rate } => 1.0 - fraction * (1.0 - (-rate * since).exp()),
            Recovery::None => 1.0,
        }
    }

    pub(crate) fn validate(&self, what: &'static str) -> Result<(), DataError> {
        // A rate of +∞ makes `rate · 0` NaN at the trough, so rates must be
        // finite as well as positive.
        match *self {
            Recovery::Exponential { rate } if !(rate > 0.0 && rate.is_finite()) => {
                Err(DataError::invalid(
                    what,
                    format!("recovery rate must be positive and finite, got {rate}"),
                ))
            }
            Recovery::Smoothstep { duration } if !(duration > 0.0) => Err(DataError::invalid(
                what,
                format!("recovery duration must be positive, got {duration}"),
            )),
            Recovery::Logistic { rate, midpoint }
                if !(rate > 0.0 && rate.is_finite() && midpoint > 0.0) =>
            {
                Err(DataError::invalid(
                    what,
                    format!("logistic recovery needs a positive finite rate and midpoint > 0, got {rate}/{midpoint}"),
                ))
            }
            Recovery::Partial { fraction, rate }
                if !(fraction > 0.0 && fraction <= 1.0 && rate > 0.0 && rate.is_finite()) =>
            {
                Err(DataError::invalid(
                    what,
                    format!(
                        "partial recovery needs fraction in (0, 1] and a positive finite rate, got {fraction}/{rate}"
                    ),
                ))
            }
            _ => Ok(()),
        }
    }
}

/// One disruption episode, expressed as a non-negative performance loss
/// over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shock {
    /// Smooth decline into a trough followed by a recovery trend — the
    /// general-purpose dip behind the V/U/W/J recession letters.
    Pulse {
        /// Time at which degradation begins.
        start: f64,
        /// Time of the loss maximum.
        trough: f64,
        /// Peak performance loss (e.g. 0.03 = 3 %).
        depth: f64,
        /// Decline sharpness: the decline progress is
        /// `smoothstep(u^sharpness)`; values < 1 front-load the drop
        /// (crashes), values > 1 delay it.
        sharpness: f64,
        /// Recovery trend after the trough.
        recovery: Recovery,
    },
    /// Instantaneous drop at `at` followed by a recovery trend — a
    /// breaker trip, a failover, a cyber take-down.
    Step {
        /// Time of the drop.
        at: f64,
        /// Performance lost at the drop.
        depth: f64,
        /// Recovery trend after the drop.
        recovery: Recovery,
    },
    /// Linear decline from `start` to `end` (slow-burn degradation),
    /// then a recovery trend.
    Ramp {
        /// Time at which degradation begins.
        start: f64,
        /// Time of the loss maximum (> `start`).
        end: f64,
        /// Peak performance loss.
        depth: f64,
        /// Recovery trend after `end`.
        recovery: Recovery,
    },
    /// Rectangular outage: full loss from `at` until `restore_at`, then
    /// instant restoration — the staircase performance curves of
    /// Dobson's power-system resilience events, and the shape the
    /// Poisson event process emits.
    Outage {
        /// Outage start.
        at: f64,
        /// Restoration time (> `at`).
        restore_at: f64,
        /// Performance lost while the outage is active.
        depth: f64,
    },
}

impl Shock {
    /// Performance lost to this shock at time `t` (non-negative, at most
    /// its depth).
    #[must_use]
    pub fn loss_at(&self, t: f64) -> f64 {
        match self {
            Shock::Pulse {
                start,
                trough,
                depth,
                sharpness,
                recovery,
            } => {
                if t <= *start {
                    return 0.0;
                }
                if t < *trough {
                    let u = (t - start) / (trough - start);
                    return depth * smoothstep(u.powf(*sharpness));
                }
                depth * recovery.remaining(t - trough)
            }
            Shock::Step {
                at,
                depth,
                recovery,
            } => {
                if t < *at {
                    0.0
                } else {
                    depth * recovery.remaining(t - at)
                }
            }
            Shock::Ramp {
                start,
                end,
                depth,
                recovery,
            } => {
                if t <= *start {
                    0.0
                } else if t < *end {
                    depth * (t - start) / (end - start)
                } else {
                    depth * recovery.remaining(t - end)
                }
            }
            Shock::Outage {
                at,
                restore_at,
                depth,
            } => {
                if t < *at || t >= *restore_at {
                    0.0
                } else {
                    *depth
                }
            }
        }
    }

    /// Validates the shock's geometry and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSeries`] for non-positive depths,
    /// inverted time windows, or invalid recovery parameters.
    pub fn validate(&self, what: &'static str) -> Result<(), DataError> {
        let check_depth = |depth: f64| -> Result<(), DataError> {
            if !(depth > 0.0) || !depth.is_finite() {
                return Err(DataError::invalid(
                    what,
                    format!("depth must be positive and finite, got {depth}"),
                ));
            }
            Ok(())
        };
        match self {
            Shock::Pulse {
                start,
                trough,
                depth,
                sharpness,
                recovery,
            } => {
                if !(*start >= 0.0) || !(*trough > *start) {
                    return Err(DataError::invalid(
                        what,
                        format!("need 0 <= start < trough, got start={start}, trough={trough}"),
                    ));
                }
                check_depth(*depth)?;
                if !(*sharpness > 0.0) {
                    return Err(DataError::invalid(
                        what,
                        format!("sharpness must be positive, got {sharpness}"),
                    ));
                }
                recovery.validate(what)
            }
            Shock::Step {
                at,
                depth,
                recovery,
            } => {
                if !(*at >= 0.0) {
                    return Err(DataError::invalid(
                        what,
                        format!("step time must be non-negative, got {at}"),
                    ));
                }
                check_depth(*depth)?;
                recovery.validate(what)
            }
            Shock::Ramp {
                start,
                end,
                depth,
                recovery,
            } => {
                if !(*start >= 0.0) || !(*end > *start) {
                    return Err(DataError::invalid(
                        what,
                        format!("need 0 <= start < end, got start={start}, end={end}"),
                    ));
                }
                check_depth(*depth)?;
                recovery.validate(what)
            }
            Shock::Outage {
                at,
                restore_at,
                depth,
            } => {
                if !(*at >= 0.0) || !(*restore_at > *at) {
                    return Err(DataError::invalid(
                        what,
                        format!("need 0 <= at < restore_at, got at={at}, restore_at={restore_at}"),
                    ));
                }
                check_depth(*depth)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(recovery: Recovery) -> Shock {
        Shock::Pulse {
            start: 0.0,
            trough: 10.0,
            depth: 0.05,
            sharpness: 1.0,
            recovery,
        }
    }

    #[test]
    fn pulse_loss_profile() {
        let d = pulse(Recovery::Exponential { rate: 0.2 });
        assert_eq!(d.loss_at(0.0), 0.0);
        assert_eq!(d.loss_at(-1.0), 0.0);
        assert!((d.loss_at(10.0) - 0.05).abs() < 1e-12);
        // Monotone decline into the trough.
        assert!(d.loss_at(3.0) < d.loss_at(7.0));
        // Monotone recovery afterwards.
        assert!(d.loss_at(15.0) > d.loss_at(25.0));
        assert!(d.loss_at(100.0) < 1e-8);
    }

    #[test]
    fn smoothstep_recovery_completes() {
        let d = Shock::Pulse {
            start: 0.0,
            trough: 5.0,
            depth: 0.1,
            sharpness: 1.0,
            recovery: Recovery::Smoothstep { duration: 10.0 },
        };
        assert!((d.loss_at(5.0) - 0.1).abs() < 1e-12);
        assert!((d.loss_at(10.0) - 0.05).abs() < 1e-12); // midpoint
        assert_eq!(d.loss_at(15.0), 0.0);
        assert_eq!(d.loss_at(50.0), 0.0);
    }

    #[test]
    fn sharpness_front_loads_decline() {
        let with_sharpness = |sharpness: f64| Shock::Pulse {
            start: 0.0,
            trough: 10.0,
            depth: 0.1,
            sharpness,
            recovery: Recovery::Exponential { rate: 0.1 },
        };
        let sharp = with_sharpness(0.5);
        let gentle = with_sharpness(2.0);
        // Early in the decline the sharp pulse has lost more.
        assert!(sharp.loss_at(2.0) > gentle.loss_at(2.0));
    }

    #[test]
    fn every_recovery_starts_at_exactly_one() {
        let profiles = [
            Recovery::Exponential { rate: 0.3 },
            Recovery::Smoothstep { duration: 8.0 },
            Recovery::Logistic {
                rate: 0.7,
                midpoint: 5.0,
            },
            Recovery::Partial {
                fraction: 0.6,
                rate: 0.3,
            },
            Recovery::None,
        ];
        for r in profiles {
            assert_eq!(r.remaining(0.0), 1.0, "{r:?}");
        }
    }

    #[test]
    fn logistic_recovery_is_sigmoid() {
        let r = Recovery::Logistic {
            rate: 1.0,
            midpoint: 5.0,
        };
        // Monotone decreasing, ~half recovered at the midpoint, nearly
        // complete far past it.
        assert!(r.remaining(2.0) > r.remaining(5.0));
        assert!((r.remaining(5.0) - 0.5).abs() < 0.01);
        assert!(r.remaining(30.0) < 1e-6);
    }

    #[test]
    fn partial_recovery_leaves_permanent_loss() {
        let r = Recovery::Partial {
            fraction: 0.6,
            rate: 0.5,
        };
        // The asymptote is 1 − fraction, never zero.
        assert!((r.remaining(1e6) - 0.4).abs() < 1e-9);
        let d = pulse(r);
        assert!((d.loss_at(1e6) - 0.05 * 0.4).abs() < 1e-9);
    }

    #[test]
    fn step_drops_instantly_and_recovers() {
        let s = Shock::Step {
            at: 4.0,
            depth: 0.5,
            recovery: Recovery::Exponential { rate: 0.5 },
        };
        assert_eq!(s.loss_at(3.999), 0.0);
        assert_eq!(s.loss_at(4.0), 0.5);
        assert!(s.loss_at(10.0) < 0.5);
        assert!(s.loss_at(10.0) > 0.0);
    }

    #[test]
    fn ramp_declines_linearly() {
        let s = Shock::Ramp {
            start: 0.0,
            end: 10.0,
            depth: 0.4,
            recovery: Recovery::None,
        };
        assert_eq!(s.loss_at(0.0), 0.0);
        assert!((s.loss_at(5.0) - 0.2).abs() < 1e-12);
        assert!((s.loss_at(10.0) - 0.4).abs() < 1e-12);
        // Recovery::None: the loss is permanent.
        assert!((s.loss_at(100.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn outage_is_rectangular() {
        let s = Shock::Outage {
            at: 2.0,
            restore_at: 5.0,
            depth: 0.25,
        };
        assert_eq!(s.loss_at(1.0), 0.0);
        assert_eq!(s.loss_at(2.0), 0.25);
        assert_eq!(s.loss_at(4.999), 0.25);
        assert_eq!(s.loss_at(5.0), 0.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad: [Shock; 6] = [
            Shock::Pulse {
                start: 5.0,
                trough: 5.0,
                depth: 0.1,
                sharpness: 1.0,
                recovery: Recovery::None,
            },
            Shock::Pulse {
                start: 0.0,
                trough: 5.0,
                depth: -0.1,
                sharpness: 1.0,
                recovery: Recovery::None,
            },
            Shock::Step {
                at: -1.0,
                depth: 0.1,
                recovery: Recovery::None,
            },
            Shock::Ramp {
                start: 3.0,
                end: 2.0,
                depth: 0.1,
                recovery: Recovery::None,
            },
            Shock::Outage {
                at: 2.0,
                restore_at: 2.0,
                depth: 0.1,
            },
            Shock::Step {
                at: 0.0,
                depth: 0.1,
                recovery: Recovery::Partial {
                    fraction: 1.5,
                    rate: 0.1,
                },
            },
        ];
        for s in bad {
            assert!(s.validate("test").is_err(), "{s:?} accepted");
        }
        assert!(pulse(Recovery::Exponential { rate: 0.2 })
            .validate("test")
            .is_ok());
    }

    #[test]
    fn nan_parameters_are_rejected() {
        let s = Shock::Step {
            at: f64::NAN,
            depth: 0.1,
            recovery: Recovery::None,
        };
        assert!(s.validate("test").is_err());
        let s = Shock::Outage {
            at: 0.0,
            restore_at: 3.0,
            depth: f64::NAN,
        };
        assert!(s.validate("test").is_err());
    }
}
