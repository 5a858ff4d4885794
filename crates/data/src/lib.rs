//! Data substrate for the `predictive-resilience` workspace: performance
//! time series, a composable scenario engine (shock grammar, recovery
//! trends, stochastic outage processes), the seven U.S. recession curves
//! expressed as scenario specs, and minimal CSV I/O.
//!
//! # Data provenance
//!
//! The paper evaluates on normalized payroll-employment curves for seven
//! U.S. recessions from the BLS Current Employment Statistics program
//! (its Fig. 2). The paper does not ship a machine-readable table, so this
//! crate generates **deterministic synthetic curves** matching the
//! published shapes — trough depth and timing, recovery slope, terminal
//! level, and the V/U/W/L classification — from documented parametric
//! profiles (see [`recessions`]). Users with the real BLS series can load
//! it through [`csv::read_series`] and run every fit unchanged. DESIGN.md
//! §2 records this substitution and why it preserves the paper's findings.
//!
//! Every random draw here — series noise, outage processes — comes from a
//! seeded [`resilience_stats::XorShift64`], so a generated series is a
//! pure function of its spec.
//!
//! # Examples
//!
//! ```
//! use resilience_data::recessions::Recession;
//!
//! let series = Recession::R1990_93.payroll_index();
//! assert_eq!(series.len(), 48);
//! // Month zero is the employment peak, normalized to 1.
//! assert!((series.values()[0] - 1.0).abs() < 0.01);
//! // The curve dips below 1 and recovers above it.
//! let (t_min, p_min) = series.trough().unwrap();
//! assert!(p_min < 0.995);
//! assert!(t_min > 0.0);
//! ```

// `!(x > 0.0)`-style comparisons are used deliberately throughout this
// crate: unlike `x <= 0.0`, they also reject NaN, which is exactly the
// validation semantics parameter checks need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod error;
pub mod fault;
pub mod recessions;
pub mod scenario;
pub mod series;

pub use error::DataError;
pub use fault::{Fault, FaultError};
pub use series::{PerformanceSeries, TrainTestSplit};
