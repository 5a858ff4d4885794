//! Composable scenario engine: declarative disruption/recovery specs.
//!
//! The paper's evaluation is fixed to seven U.S. recession curves; this
//! module replaces that closed generator with an open grammar. A
//! [`ScenarioSpec`] names a grid length, a list of [`Shock`] primitives
//! (smooth pulses, instantaneous steps, slow-burn ramps, rectangular
//! outages), a secular [`Drift`], a deterministic [`Noise`] model, and —
//! optionally — a stochastic Poisson [`EventProcess`] whose realized
//! outages are appended to the shock list. Any disruption/recovery story
//! (recession, cyber outage, grid storm, pandemic, cascading failure)
//! becomes a declarative spec over these atoms; the seven embedded
//! recessions of [`crate::recessions`] and the letter shapes of
//! [`ShapeKind`] are themselves expressed through this grammar, pinned
//! bit-identical to their pre-grammar output by `tests/scenarios.rs`.
//!
//! # Determinism
//!
//! Generation is a pure function of the spec: noise streams are seeded
//! [`XorShift64`] sequences and every stochastic outage event draws from
//! its own counter-derived substream, so generated series are
//! bit-identical across runs, platforms, and thread counts (DESIGN.md
//! §12).
//!
//! # Examples
//!
//! ```
//! use resilience_data::scenario::{Drift, Noise, Recovery, ScenarioSpec, Shock};
//!
//! // A 48-month V-shaped disruption with 4 % secular growth.
//! let spec = ScenarioSpec {
//!     n: 48,
//!     shocks: vec![Shock::Pulse {
//!         start: 0.0,
//!         trough: 12.0,
//!         depth: 0.05,
//!         sharpness: 1.2,
//!         recovery: Recovery::Exponential { rate: 0.2 },
//!     }],
//!     events: None,
//!     drift: Drift::Linear { total: 0.04 },
//!     noise: Noise::Gaussian { sd: 0.001, seed: 7 },
//!     floor: None,
//! };
//! let series = spec.generate("v-shape")?;
//! let (t_min, _) = series.trough().unwrap();
//! assert!((t_min - 12.0).abs() <= 3.0);
//! # Ok::<(), resilience_data::DataError>(())
//! ```

pub mod catalog;
pub mod events;
pub mod grid;
pub mod shock;

pub use catalog::ShapeKind;
pub use events::{EventProcess, Outage};
pub use grid::{GridCell, GridScenario, NoiseLevel, ScenarioGrid};
pub use shock::{smoothstep, Recovery, Shock};

use crate::series::PerformanceSeries;
use crate::DataError;
use resilience_stats::XorShift64;

/// Secular background trend added to the nominal level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drift {
    /// No background trend.
    None,
    /// Linear drift accruing `total` from the first to the last grid
    /// point (positive for systems that out-grow their pre-hazard peak).
    Linear {
        /// Total drift accrued over the horizon.
        total: f64,
    },
}

impl Drift {
    /// Drift offset at time `t` over a grid ending at `horizon`.
    #[must_use]
    pub fn offset_at(&self, t: f64, horizon: f64) -> f64 {
        match self {
            Drift::None => 0.0,
            Drift::Linear { total } => total * t / horizon,
        }
    }

    fn validate(&self) -> Result<(), DataError> {
        match self {
            Drift::None => Ok(()),
            Drift::Linear { total } if !total.is_finite() => Err(DataError::invalid(
                "ScenarioSpec",
                format!("drift total must be finite, got {total}"),
            )),
            Drift::Linear { .. } => Ok(()),
        }
    }
}

/// Deterministic observation-noise model.
///
/// Noise is suppressed at the first grid point so normalization stays
/// exact (`P(t_0) = 1` absent shocks at the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// Noise-free generation.
    None,
    /// Additive Gaussian noise with standard deviation `sd`, drawn
    /// sequentially from a seeded [`XorShift64`] (one deviate per grid
    /// point after the first).
    Gaussian {
        /// Standard deviation (≥ 0).
        sd: f64,
        /// Stream seed: same seed ⇒ identical noise.
        seed: u64,
    },
    /// Additive uniform noise on `[-amplitude, amplitude]`.
    Uniform {
        /// Half-width of the noise band (≥ 0).
        amplitude: f64,
        /// Stream seed.
        seed: u64,
    },
}

impl Noise {
    fn seed(&self) -> u64 {
        match self {
            Noise::None => 0,
            Noise::Gaussian { seed, .. } | Noise::Uniform { seed, .. } => *seed,
        }
    }

    fn sample(&self, rng: &mut XorShift64) -> f64 {
        match self {
            Noise::None => 0.0,
            Noise::Gaussian { sd, .. } => sd * rng.next_gaussian(),
            Noise::Uniform { amplitude, .. } => amplitude * (2.0 * rng.next_f64() - 1.0),
        }
    }

    fn validate(&self) -> Result<(), DataError> {
        let check = |name: &str, v: f64| -> Result<(), DataError> {
            if !(v >= 0.0) || !v.is_finite() {
                return Err(DataError::invalid(
                    "ScenarioSpec",
                    format!("{name} must be non-negative and finite, got {v}"),
                ));
            }
            Ok(())
        };
        match self {
            Noise::None => Ok(()),
            Noise::Gaussian { sd, .. } => check("noise sd", *sd),
            Noise::Uniform { amplitude, .. } => check("noise amplitude", *amplitude),
        }
    }
}

/// A declarative specification of a full resilience scenario.
///
/// See the [module docs](self) for the grammar and a worked example.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of grid observations (monthly/hourly grid `0, 1, …, n−1`).
    pub n: usize,
    /// Deterministic disruption episodes.
    pub shocks: Vec<Shock>,
    /// Optional stochastic outage/restore process; its realized events
    /// are appended to `shocks` at generation time.
    pub events: Option<EventProcess>,
    /// Secular background trend.
    pub drift: Drift,
    /// Observation-noise model.
    pub noise: Noise,
    /// Optional hard floor clamped onto generated values (stacked
    /// stochastic outages cannot drive performance below it).
    pub floor: Option<f64>,
}

impl ScenarioSpec {
    /// Validates the spec without generating.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSeries`] for fewer than 4 points, a
    /// spec with neither shocks nor an event process, or any invalid
    /// shock, drift, noise, event, or floor parameter.
    pub fn validate(&self) -> Result<(), DataError> {
        if self.n < 4 {
            return Err(DataError::invalid(
                "ScenarioSpec::generate",
                "need at least 4 points",
            ));
        }
        if self.shocks.is_empty() && self.events.is_none() {
            return Err(DataError::invalid(
                "ScenarioSpec::generate",
                "need at least one shock or an event process",
            ));
        }
        for shock in &self.shocks {
            shock.validate("ScenarioSpec::generate")?;
        }
        if let Some(events) = &self.events {
            events.validate()?;
        }
        self.drift.validate()?;
        self.noise.validate()?;
        if let Some(floor) = self.floor {
            if !floor.is_finite() {
                return Err(DataError::invalid(
                    "ScenarioSpec::generate",
                    format!("floor must be finite, got {floor}"),
                ));
            }
        }
        Ok(())
    }

    /// Generates the scenario as a [`PerformanceSeries`] over the grid
    /// `0, 1, …, n−1`.
    ///
    /// The first observation carries no noise, so a scenario with no
    /// shock active at `t = 0` starts at exactly the nominal level 1.0.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScenarioSpec::validate`].
    pub fn generate(&self, name: impl Into<String>) -> Result<PerformanceSeries, DataError> {
        self.validate()?;
        let horizon = (self.n - 1) as f64;
        let realized: Vec<Shock> = match &self.events {
            Some(process) => process.shocks(horizon)?,
            None => Vec::new(),
        };
        let mut rng = XorShift64::new(self.noise.seed());
        let values: Vec<f64> = (0..self.n)
            .map(|i| {
                let t = i as f64;
                let loss: f64 = self
                    .shocks
                    .iter()
                    .chain(realized.iter())
                    .map(|s| s.loss_at(t))
                    .sum();
                let drift = self.drift.offset_at(t, horizon);
                let noise = if i == 0 {
                    0.0
                } else {
                    self.noise.sample(&mut rng)
                };
                let value = 1.0 - loss + drift + noise;
                match self.floor {
                    Some(floor) => value.max(floor),
                    None => value,
                }
            })
            .collect();
        PerformanceSeries::monthly(name, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v_spec() -> ScenarioSpec {
        ScenarioSpec {
            n: 48,
            shocks: vec![Shock::Pulse {
                start: 0.0,
                trough: 12.0,
                depth: 0.05,
                sharpness: 1.2,
                recovery: Recovery::Exponential { rate: 0.2 },
            }],
            events: None,
            drift: Drift::Linear { total: 0.04 },
            noise: Noise::Gaussian { sd: 0.001, seed: 7 },
            floor: None,
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = v_spec().generate("a").unwrap();
        let b = v_spec().generate("b").unwrap();
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn first_point_is_exactly_nominal() {
        let s = v_spec().generate("v").unwrap();
        assert_eq!(s.values()[0], 1.0);
    }

    #[test]
    fn generate_validates() {
        let mut spec = v_spec();
        spec.n = 3;
        assert!(spec.generate("x").is_err()); // too short
        let mut spec = v_spec();
        spec.shocks.clear();
        assert!(spec.generate("x").is_err()); // neither shocks nor events
        let mut spec = v_spec();
        spec.noise = Noise::Gaussian { sd: -1.0, seed: 1 };
        assert!(spec.generate("x").is_err());
        let mut spec = v_spec();
        spec.drift = Drift::Linear {
            total: f64::INFINITY,
        };
        assert!(spec.generate("x").is_err());
        let mut spec = v_spec();
        spec.floor = Some(f64::NAN);
        assert!(spec.generate("x").is_err());
    }

    #[test]
    fn infinite_recovery_rates_fail_validation_and_name_the_rate() {
        let rate = f64::INFINITY;
        for recovery in [
            Recovery::Exponential { rate },
            Recovery::Logistic {
                rate,
                midpoint: 5.0,
            },
            Recovery::Partial {
                fraction: 0.6,
                rate,
            },
        ] {
            let mut spec = v_spec();
            spec.shocks[0] = Shock::Pulse {
                start: 0.0,
                trough: 12.0,
                depth: 0.05,
                sharpness: 1.2,
                recovery,
            };
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(&err, DataError::InvalidSeries { detail, .. } if detail.contains("rate")),
                "{recovery:?}: {err}"
            );
        }
    }

    #[test]
    fn event_only_scenario_is_valid() {
        let spec = ScenarioSpec {
            n: 200,
            shocks: Vec::new(),
            events: Some(EventProcess {
                outage_rate: 0.05,
                mean_restore: 4.0,
                mean_depth: 0.05,
                max_depth: 0.2,
                seed: 9,
                max_events: EventProcess::DEFAULT_MAX_EVENTS,
            }),
            drift: Drift::None,
            noise: Noise::None,
            floor: Some(0.0),
        };
        let s = spec.generate("poisson").unwrap();
        assert_eq!(s.len(), 200);
        assert!(s.values().iter().all(|v| v.is_finite() && *v >= 0.0));
        // Some outage visibly degrades performance.
        assert!(s.values().iter().any(|v| *v < 1.0));
    }

    #[test]
    fn floor_clamps_stacked_outages() {
        let spec = ScenarioSpec {
            n: 100,
            shocks: Vec::new(),
            events: Some(EventProcess {
                outage_rate: 2.0, // dense arrivals: outages overlap
                mean_restore: 10.0,
                mean_depth: 0.8,
                max_depth: 1.0,
                seed: 21,
                max_events: EventProcess::DEFAULT_MAX_EVENTS,
            }),
            drift: Drift::None,
            noise: Noise::None,
            floor: Some(0.0),
        };
        let s = spec.generate("stacked").unwrap();
        assert!(s.values().iter().all(|v| *v >= 0.0));
        assert!(s.values().contains(&0.0), "floor never engaged");
    }

    #[test]
    fn uniform_noise_stays_in_band() {
        let spec = ScenarioSpec {
            noise: Noise::Uniform {
                amplitude: 0.002,
                seed: 3,
            },
            ..v_spec()
        };
        let clean = ScenarioSpec {
            noise: Noise::None,
            ..v_spec()
        };
        let noisy = spec.generate("noisy").unwrap();
        let base = clean.generate("clean").unwrap();
        for (a, b) in noisy.values().iter().zip(base.values()) {
            assert!((a - b).abs() <= 0.002 + 1e-12);
        }
    }

    #[test]
    fn drift_none_matches_zero_linear() {
        let none = ScenarioSpec {
            drift: Drift::None,
            ..v_spec()
        };
        let zero = ScenarioSpec {
            drift: Drift::Linear { total: 0.0 },
            ..v_spec()
        };
        assert_eq!(
            none.generate("a").unwrap().values(),
            zero.generate("b").unwrap().values()
        );
    }
}
