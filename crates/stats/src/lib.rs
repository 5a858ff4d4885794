//! Probability distributions and statistical utilities for the
//! `predictive-resilience` workspace.
//!
//! The mixture resilience models of *Predictive Resilience Modeling*
//! (Silva et al., RWS 2022) compose cumulative distribution functions —
//! the paper evaluates Exponential and Weibull components (its Eq. 23) —
//! and the validation layer needs normal critical values for confidence
//! intervals (its Eq. 13). This crate supplies:
//!
//! * [`distribution`] — the [`ContinuousDistribution`] trait: a CDF and
//!   its survival function.
//! * Concrete distributions: [`Exponential`] and [`Weibull`] (the
//!   mixture components' closed forms, the reference the log-domain
//!   mixture kernel is checked against), and [`Normal`] (its quantile
//!   gives the critical values, its CDF the normality diagnostic).
//! * [`empirical`] — empirical CDFs from samples.
//! * [`describe`] — descriptive statistics (means, variances, quantiles,
//!   autocorrelation).
//! * [`inference`] — normal critical values, confidence-interval helpers,
//!   empirical coverage and the Kolmogorov–Smirnov p-value.
//! * [`rng`] — the workspace's canonical deterministic PRNG
//!   ([`XorShift64`], and [`SplitMix64`], which seeds its streams).
//!
//! # Examples
//!
//! ```
//! use resilience_stats::{ContinuousDistribution, Weibull};
//!
//! let w = Weibull::new(1.5, 10.0)?; // shape k, scale λ
//! assert!((w.cdf(0.0) - 0.0).abs() < 1e-15);
//! assert!(w.cdf(10.0) > 0.6 && w.cdf(10.0) < 0.7); // 1 − 1/e ≈ 0.632
//! # Ok::<(), resilience_stats::StatsError>(())
//! ```

// `!(x > 0.0)`-style comparisons are used deliberately throughout this
// crate: unlike `x <= 0.0`, they also reject NaN, which is exactly the
// validation semantics parameter checks need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod describe;
pub mod distribution;
pub mod empirical;
pub mod error;
pub mod inference;
pub mod rng;

mod exponential;
mod normal;
mod weibull;

pub use distribution::ContinuousDistribution;
pub use empirical::EmpiricalCdf;
pub use error::StatsError;
pub use exponential::Exponential;
pub use normal::Normal;
pub use rng::{SplitMix64, XorShift64};
pub use weibull::Weibull;
