//! Predictive resilience modeling: the core library of the
//! `predictive-resilience` workspace.
//!
//! This crate implements the contribution of *Predictive Resilience
//! Modeling* (Silva, Hermosillo Hidalgo, Linkov, Fiondella — 2022
//! Resilience Week): fitting parametric models to the degradation-and-
//! recovery curves of disrupted systems **before recovery completes**, so
//! that performance, recovery time, and interval-based resilience metrics
//! can be *predicted* rather than only scored retrospectively.
//!
//! # The two model families
//!
//! * [`bathtub`] — resilience curves shaped like bathtub hazard functions
//!   from reliability engineering: the [`bathtub::QuadraticModel`]
//!   (`P(t) = α + βt + γt²`, paper Eq. 1–3) and the
//!   [`bathtub::CompetingRisksModel`] (`P(t) = 2γt + α/(1+βt)`, the
//!   Hjorth-style competing-risks form, paper Eq. 4–6).
//! * [`mixture`] — mixtures `P(t) = a₁(t)(1−F₁(t)) + a₂(t)F₂(t)` (paper
//!   Eq. 7) with Exponential/Weibull components and recovery trends
//!   `a₂(t) ∈ {β, βt, e^{βt}, β·ln t}`.
//!
//! # Pipeline
//!
//! 1. [`fit`] — least-squares estimation (paper Eq. 8) via multi-start
//!    Nelder–Mead with optional Levenberg–Marquardt polish, in a
//!    transformed parameter space that enforces each family's validity
//!    constraints.
//! 2. [`validate`] — SSE, predictive MSE, adjusted R² (Eq. 9–11),
//!    confidence bands and empirical coverage (Eq. 12–13).
//! 3. [`metrics`] — the eight interval-based resilience metrics
//!    (Eq. 14–21) in both *actual* (observed curve) and *predicted*
//!    (fitted model) form, with relative errors (Eq. 22).
//! 4. [`analysis`] — one-call drivers that reproduce the paper's tables.
//! 5. [`runtime`] — supervised execution: deadlines and cancellation,
//!    retry-with-backoff for non-converged fits, panic isolation, and
//!    degraded-but-usable rankings when individual families fail.
//!
//! # Quickstart
//!
//! ```
//! use resilience_core::analysis::evaluate_model;
//! use resilience_core::bathtub::CompetingRisksFamily;
//! use resilience_data::recessions::Recession;
//!
//! let series = Recession::R1990_93.payroll_index();
//! // Fit on all but the last 5 months, predict the rest (paper Table I).
//! let eval = evaluate_model(&CompetingRisksFamily, &series, 5, 0.05)?;
//! assert!(eval.gof.r2_adj > 0.9, "U-shaped curves fit well");
//! # Ok::<(), resilience_core::CoreError>(())
//! ```

// `!(x > 0.0)`-style comparisons are used deliberately throughout this
// crate: unlike `x <= 0.0`, they also reject NaN, which is exactly the
// validation semantics parameter checks need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod bathtub;
pub mod bootstrap;
pub mod chaos;
pub mod diagnostics;
pub mod error;
pub mod extended;
pub mod fit;
pub mod forecast;
pub mod guard;
pub mod metrics;
pub mod mixture;
pub mod model;
pub mod report;
pub mod runtime;
pub mod selection;
pub mod validate;

pub use error::CoreError;
pub use model::{ModelFamily, ResilienceModel};
