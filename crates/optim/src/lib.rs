//! Derivative-free and least-squares optimizers for the
//! `predictive-resilience` workspace.
//!
//! The paper fits every resilience model by least-squares estimation (its
//! Eq. 8). The Rust ecosystem offers no batteries-included nonlinear LSE
//! stack, so this crate implements the required machinery from scratch:
//!
//! * [`problem`] — the least-squares problem trait plus numerical
//!   differentiation (forward/central gradients, Jacobians).
//! * [`nelder_mead`] — the Nelder–Mead downhill simplex, the workspace's
//!   robust derivative-free workhorse. It minimizes any
//!   `Fn(&[f64]) -> f64` and scores one point at a time.
//! * [`levenberg_marquardt`] — damped Gauss–Newton for fast local
//!   refinement of least-squares fits.
//! * [`scalar`] — golden-section and Brent minimization for 1-D
//!   subproblems (e.g. locating a curve's trough).
//! * [`multi_start`] — the multi-start driver: a start runner that buffers
//!   each start's events, a start reduction that keeps the winner a
//!   serial loop would keep whatever order the starts finish in, and
//!   their composition over one pool, bit-identical for every thread
//!   count.
//! * [`parallel`] — a `std`-only scoped thread pool ([`Parallelism`],
//!   [`parallel::run_indexed`]) whose index-ordered results make parallel
//!   runs bit-identical to serial ones, plus a panic-isolating variant
//!   ([`parallel::run_indexed_catch`]) for supervised fan-out and a
//!   slot-free one ([`parallel::run_each`]) for jobs that keep their own
//!   results.
//! * [`control`] — cooperative execution control ([`Control`],
//!   [`CancelToken`]): per-call deadlines and cancellation tokens that
//!   every iterative solver polls between iterations, turning runaway
//!   fits into typed [`OptimError::TimedOut`] / [`OptimError::Cancelled`]
//!   errors instead of hangs.
//!
//! # Examples
//!
//! Fitting a 2-parameter exponential decay with Nelder–Mead:
//!
//! ```
//! use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
//! use resilience_optim::Control;
//!
//! let data: Vec<(f64, f64)> = (0..20)
//!     .map(|i| {
//!         let t = i as f64;
//!         (t, 3.0 * (-0.25 * t).exp())
//!     })
//!     .collect();
//! let sse = |p: &[f64]| -> f64 {
//!     data.iter()
//!         .map(|&(t, y)| {
//!             let pred = p[0] * (-p[1] * t).exp();
//!             (y - pred) * (y - pred)
//!         })
//!         .sum()
//! };
//! let report = NelderMead::new(NelderMeadConfig::default())
//!     .minimize(&sse, &[1.0, 0.1], &Control::unbounded())?;
//! assert!((report.params[0] - 3.0).abs() < 1e-4);
//! assert!((report.params[1] - 0.25).abs() < 1e-4);
//! # Ok::<(), resilience_optim::OptimError>(())
//! ```

// `!(x > 0.0)`-style comparisons are used deliberately throughout this
// crate: unlike `x <= 0.0`, they also reject NaN, which is exactly the
// validation semantics parameter checks need.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod control;
pub mod error;
pub mod levenberg_marquardt;
pub mod multi_start;
pub mod nelder_mead;
pub mod parallel;
pub mod problem;
pub mod report;
pub mod scalar;

pub use control::{CancelToken, Control, StopCause};
pub use error::OptimError;
pub use parallel::{JobPanic, Parallelism};
pub use report::{OptimReport, TerminationReason};
