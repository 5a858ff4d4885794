//! The seven U.S. recession payroll curves of the paper's Fig. 2,
//! expressed as declarative [`ScenarioSpec`]s over the scenario grammar.
//!
//! # Provenance and substitution
//!
//! The paper plots normalized payroll employment ("payroll employment
//! index") for seven U.S. recessions from the BLS Current Employment
//! Statistics program: 1974-76, 1980, 1981-83, 1990-93, 2001-05, 2007-09
//! (48 monthly observations each) and 2020-21 (24 observations). The paper
//! ships no machine-readable table, so this module generates
//! **deterministic synthetic equivalents** from parametric scenario
//! specifications tuned to the published figure: trough depth and month,
//! recovery speed and profile, terminal level, and the economist's letter
//! classification. Every qualitative property the evaluation depends on is
//! preserved:
//!
//! | Recession | Shape | Trough (month, level) | End level |
//! |-----------|-------|----------------------|-----------|
//! | 1974-76   | V     | ~16, ~0.972          | ~1.055    |
//! | 1980      | W     | two dips (~6, ~26)   | ~0.99     |
//! | 1981-83   | V/U   | ~17, ~0.969          | ~1.095    |
//! | 1990-93   | U     | ~11, ~0.988          | ~1.035    |
//! | 2001-05   | U     | ~28, ~0.978          | ~1.005    |
//! | 2007-09   | U     | ~25, ~0.937          | ~0.96     |
//! | 2020-21   | L/K   | ~2, ~0.853           | ~0.96     |
//!
//! The specs are pinned bit-identical to the pre-grammar generator by
//! `tests/scenarios.rs`. Users who obtain the real BLS series can load it
//! with [`crate::csv::read_series`] and pass it through the identical
//! pipeline.

use crate::scenario::{Drift, Noise, Recovery, ScenarioSpec, ShapeKind, Shock};
use crate::series::PerformanceSeries;

/// One of the seven U.S. recessions used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum Recession {
    /// November 1973 – 1976 recovery window (V-shaped).
    R1974_76,
    /// January 1980 recession, running into the 1981 recession
    /// (W-shaped).
    R1980,
    /// July 1981 – 1983 recovery window (deep V).
    R1981_83,
    /// July 1990 – 1993 recovery window (shallow U).
    R1990_93,
    /// March 2001 – 2005 recovery window (long shallow U).
    R2001_05,
    /// December 2007 – 2009+ window (deep U).
    R2007_09,
    /// March 2020 COVID-19 window (L/K-shaped, 24 months).
    R2020_21,
}

impl Recession {
    /// All seven recessions in chronological order.
    pub const ALL: [Recession; 7] = [
        Recession::R1974_76,
        Recession::R1980,
        Recession::R1981_83,
        Recession::R1990_93,
        Recession::R2001_05,
        Recession::R2007_09,
        Recession::R2020_21,
    ];

    /// Human-readable label matching the paper's tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Recession::R1974_76 => "1974-76",
            Recession::R1980 => "1980",
            Recession::R1981_83 => "1981-83",
            Recession::R1990_93 => "1990-93",
            Recession::R2001_05 => "2001-05",
            Recession::R2007_09 => "2007-09",
            Recession::R2020_21 => "2020-21",
        }
    }

    /// The economist's letter classification used in the paper's
    /// discussion.
    #[must_use]
    pub fn shape(&self) -> ShapeKind {
        match self {
            Recession::R1974_76 | Recession::R1981_83 => ShapeKind::V,
            Recession::R1980 => ShapeKind::W,
            Recession::R1990_93 | Recession::R2001_05 | Recession::R2007_09 => ShapeKind::U,
            Recession::R2020_21 => ShapeKind::L,
        }
    }

    /// Number of monthly observations (48, except 24 for 2020-21),
    /// matching the paper's Table I.
    #[must_use]
    pub fn n_observations(&self) -> usize {
        match self {
            Recession::R2020_21 => 24,
            _ => 48,
        }
    }

    /// The declarative scenario specification behind the synthetic curve.
    #[must_use]
    pub fn scenario(&self) -> ScenarioSpec {
        let exp = |rate: f64| Recovery::Exponential { rate };
        let smooth = |duration: f64| Recovery::Smoothstep { duration };
        let pulse =
            |start: f64, trough: f64, depth: f64, sharpness: f64, rec: Recovery| Shock::Pulse {
                start,
                trough,
                depth,
                sharpness,
                recovery: rec,
            };
        let spec =
            |n: usize, shocks: Vec<Shock>, drift_total: f64, sd: f64, seed: u64| ScenarioSpec {
                n,
                shocks,
                events: None,
                drift: Drift::Linear { total: drift_total },
                noise: Noise::Gaussian { sd, seed },
                floor: None,
            };
        match self {
            Recession::R1974_76 => spec(
                48,
                vec![pulse(0.0, 16.0, 0.048, 1.2, exp(0.18))],
                0.06,
                0.0006,
                1974,
            ),
            Recession::R1980 => spec(
                48,
                vec![
                    pulse(0.0, 6.0, 0.030, 1.1, exp(0.5)),
                    pulse(14.0, 26.0, 0.032, 1.1, exp(0.25)),
                ],
                0.005,
                0.0006,
                1980,
            ),
            Recession::R1981_83 => spec(
                48,
                vec![pulse(0.0, 17.0, 0.065, 1.3, exp(0.15))],
                0.095,
                0.0006,
                1981,
            ),
            Recession::R1990_93 => spec(
                48,
                vec![pulse(0.0, 11.0, 0.021, 1.0, smooth(30.0))],
                0.036,
                0.0005,
                1990,
            ),
            Recession::R2001_05 => spec(
                48,
                vec![pulse(0.0, 28.0, 0.028, 1.0, smooth(24.0))],
                0.012,
                0.0005,
                2001,
            ),
            Recession::R2007_09 => spec(
                48,
                vec![pulse(0.0, 25.0, 0.078, 1.1, smooth(60.0))],
                0.01,
                0.0006,
                2007,
            ),
            // COVID-19: the crash is concentrated in a single month
            // (sharpness 3 keeps month 1 near nominal), followed by a
            // fast partial rebound and a slow, nearly flat grind — the
            // L/K structure that defeats both model families in the
            // paper's Tables I and III.
            Recession::R2020_21 => spec(
                24,
                vec![
                    pulse(0.0, 2.0, 0.090, 3.0, exp(0.5)),
                    pulse(0.0, 2.0, 0.058, 3.0, exp(0.01)),
                ],
                0.0,
                0.0008,
                2020,
            ),
        }
    }

    /// The synthetic normalized payroll-employment curve (the analogue of
    /// one line in the paper's Fig. 2).
    ///
    /// The series is deterministic: calling this twice yields identical
    /// values.
    ///
    /// # Panics
    ///
    /// Never panics: the embedded specifications are validated by the
    /// test suite.
    #[must_use]
    pub fn payroll_index(&self) -> PerformanceSeries {
        self.scenario()
            .generate(self.label())
            .expect("embedded recession specs are valid")
    }

    /// Another noise draw of the curve: its [`Recession::scenario`] with
    /// the noise stream seeded by `noise_seed` instead of the curve's own
    /// seed, which gives [`Recession::payroll_index`] itself. A pure
    /// function of the seed, for oracles over many draws of one curve.
    ///
    /// # Panics
    ///
    /// Never panics: the embedded specifications are valid for every
    /// noise seed.
    #[must_use]
    pub fn noise_draw(&self, noise_seed: u64) -> PerformanceSeries {
        let mut spec = self.scenario();
        spec.noise = match spec.noise {
            Noise::Gaussian { sd, .. } => Noise::Gaussian {
                sd,
                seed: noise_seed,
            },
            Noise::Uniform { amplitude, .. } => Noise::Uniform {
                amplitude,
                seed: noise_seed,
            },
            Noise::None => Noise::None,
        };
        spec.generate(self.label())
            .expect("recession specs are valid for any noise seed")
    }
}

impl std::fmt::Display for Recession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_recessions_with_correct_lengths() {
        assert_eq!(Recession::ALL.len(), 7);
        for r in Recession::ALL {
            let s = r.payroll_index();
            assert_eq!(s.len(), r.n_observations(), "{r}");
            assert_eq!(s.name(), r.label());
        }
    }

    #[test]
    fn the_curves_own_noise_seed_draws_the_curve() {
        for r in Recession::ALL {
            let Noise::Gaussian { seed, .. } = r.scenario().noise else {
                panic!("{r}: the curves carry Gaussian noise");
            };
            assert_eq!(r.noise_draw(seed), r.payroll_index(), "{r}");
            let other = r.noise_draw(seed ^ 1);
            assert_eq!(other.times(), r.payroll_index().times());
            assert_ne!(other.values(), r.payroll_index().values(), "{r}");
        }
    }

    #[test]
    fn curves_are_deterministic() {
        for r in Recession::ALL {
            assert_eq!(r.payroll_index().values(), r.payroll_index().values());
        }
    }

    #[test]
    fn all_start_at_nominal_one() {
        for r in Recession::ALL {
            assert_eq!(r.payroll_index().values()[0], 1.0, "{r}");
        }
    }

    #[test]
    fn trough_depths_match_paper_figure() {
        let expect = [
            (Recession::R1974_76, 0.96, 0.985),
            (Recession::R1980, 0.96, 0.99),
            (Recession::R1981_83, 0.955, 0.98),
            (Recession::R1990_93, 0.982, 0.993),
            (Recession::R2001_05, 0.97, 0.988),
            (Recession::R2007_09, 0.925, 0.95),
            (Recession::R2020_21, 0.84, 0.87),
        ];
        for (r, lo, hi) in expect {
            let (_, p_min) = r.payroll_index().trough().unwrap();
            assert!(
                p_min > lo && p_min < hi,
                "{r}: trough {p_min} outside ({lo}, {hi})"
            );
        }
    }

    #[test]
    fn trough_months_match_paper_figure() {
        let expect = [
            (Recession::R1974_76, 12.0, 22.0),
            (Recession::R1981_83, 14.0, 24.0),
            (Recession::R1990_93, 8.0, 16.0),
            (Recession::R2001_05, 24.0, 34.0),
            (Recession::R2007_09, 22.0, 30.0),
            (Recession::R2020_21, 1.0, 4.0),
        ];
        for (r, lo, hi) in expect {
            let (t_min, _) = r.payroll_index().trough().unwrap();
            assert!(
                t_min >= lo && t_min <= hi,
                "{r}: trough month {t_min} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn strong_recoveries_exceed_nominal() {
        for r in [
            Recession::R1974_76,
            Recession::R1981_83,
            Recession::R1990_93,
        ] {
            let s = r.payroll_index();
            let last = s.values()[s.len() - 1];
            assert!(last > 1.02, "{r}: end level {last}");
        }
        // 1981-83 is the strongest recovery in the figure (~1.095).
        let s81 = Recession::R1981_83.payroll_index();
        assert!(s81.values()[47] > 1.07);
    }

    #[test]
    fn weak_recoveries_stay_below_nominal() {
        for r in [Recession::R2007_09, Recession::R2020_21] {
            let s = r.payroll_index();
            let last = s.values()[s.len() - 1];
            assert!(last < 1.0, "{r}: end level {last}");
        }
    }

    #[test]
    fn w_shape_recession_has_double_dip() {
        let s = Recession::R1980.payroll_index();
        let v = s.values();
        // There is a local recovery between the two troughs: find the max
        // between months 8 and 16 and confirm it exceeds both neighbors'
        // minima by a visible margin.
        let mid_max = v[8..=16].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let first_min = v[2..=8].iter().cloned().fold(f64::INFINITY, f64::min);
        let second_min = v[16..=32].iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(mid_max > first_min + 0.004, "no rebound between dips");
        assert!(mid_max > second_min + 0.004, "no second dip");
    }

    #[test]
    fn covid_crash_is_immediate() {
        let s = Recession::R2020_21.payroll_index();
        let v = s.values();
        // >10 % loss within two months — the L-shape signature that breaks
        // the bathtub fits in the paper's Table I.
        assert!(v[2] < 0.88, "month-2 level {}", v[2]);
    }

    #[test]
    fn shapes_classification() {
        assert_eq!(Recession::R1980.shape(), ShapeKind::W);
        assert_eq!(Recession::R2020_21.shape(), ShapeKind::L);
        assert_eq!(Recession::R1990_93.shape(), ShapeKind::U);
    }

    #[test]
    fn values_stay_in_plausible_band() {
        for r in Recession::ALL {
            for (t, v) in r.payroll_index().iter() {
                assert!((0.8..1.15).contains(&v), "{r} at t={t}: {v}");
            }
        }
    }
}
