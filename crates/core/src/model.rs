//! The [`ResilienceModel`] and [`ModelFamily`] abstractions.
//!
//! A *family* is a parameterization (quadratic bathtub, Wei-Exp mixture,
//! …); a *model* is a family instantiated with concrete parameters —
//! usually by [`crate::fit::fit_least_squares`]. The validation and
//! metrics layers operate on `dyn ResilienceModel`, so every table in the
//! paper is generated by one generic pipeline.

use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::quad;
use std::sync::Arc;

/// A fitted (or manually constructed) resilience curve `P(t)`.
///
/// Implementations must be deterministic pure functions of their
/// parameters. Time follows the workspace convention: `t = 0` is the
/// hazard onset (employment peak in the recession data) and the unit is
/// months.
///
/// Models are `Send + Sync` so fitted curves can be shared across the
/// worker threads of the parallel fitting engine.
pub trait ResilienceModel: Send + Sync {
    /// Short family name as used in the paper's tables (e.g.
    /// `"Quadratic"`, `"Wei-Exp"`).
    fn name(&self) -> &'static str;

    /// The model parameters in family order.
    fn params(&self) -> Vec<f64>;

    /// Number of parameters (used by adjusted R², paper Eq. 11).
    fn n_params(&self) -> usize {
        self.params().len()
    }

    /// Predicted performance at time `t`.
    fn predict(&self, t: f64) -> f64;

    /// Predicted performance at each time in `ts`, written into `out`.
    ///
    /// This is the allocation-free core of the SSE hot path: callers own
    /// the output buffer and reuse it across objective evaluations. The
    /// default loops over [`ResilienceModel::predict`] and performs no
    /// heap allocation; implementations must preserve that contract.
    ///
    /// # Panics
    ///
    /// Panics when `ts.len() != out.len()`.
    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = self.predict(t);
        }
    }

    /// Predicted performance at each time in `ts`.
    fn predict_many(&self, ts: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; ts.len()];
        self.predict_into(ts, &mut out);
        out
    }

    /// Area under the curve `∫ₐᵇ P(t) dt`.
    ///
    /// The default integrates numerically with adaptive Simpson;
    /// families with closed forms (paper Eq. 3 and 6) override this.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Math`] when quadrature fails (non-finite
    /// model values inside the interval).
    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        Ok(quad::adaptive_simpson(
            |t| self.predict(t),
            a,
            b,
            1e-10,
            40,
        )?)
    }

    /// Time of minimum performance within `[a, b]`.
    ///
    /// The default scans a fine grid then polishes with golden-section;
    /// families with closed-form troughs override this.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] for a degenerate interval.
    fn trough_time(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a < b) {
            return Err(CoreError::arg(
                "trough_time",
                format!("need a < b, got [{a}, {b}]"),
            ));
        }
        // Grid scan to isolate the basin…
        const GRID: usize = 256;
        let mut best_t = a;
        let mut best_v = self.predict(a);
        for i in 1..=GRID {
            let t = a + (b - a) * i as f64 / GRID as f64;
            let v = self.predict(t);
            if v < best_v {
                best_v = v;
                best_t = t;
            }
        }
        let h = (b - a) / GRID as f64;
        let lo = (best_t - h).max(a);
        let hi = (best_t + h).min(b);
        match resilience_optim::scalar::golden_section(|t| self.predict(t), lo, hi, 1e-10, 200) {
            Ok(m) => Ok(m.x),
            Err(_) => Ok(best_t),
        }
    }

    /// First time at or after `from` at which the curve recovers to
    /// `level` — the paper's `t_r` (its Eq. 2 and Eq. 5 give closed forms
    /// for the bathtub families, which override this).
    ///
    /// The default brackets the crossing numerically within
    /// `[from, horizon]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSolution`] when the curve does not reach
    /// `level` within the horizon.
    fn time_to_recover(&self, level: f64, from: f64, horizon: f64) -> Result<f64, CoreError> {
        if !(from < horizon) {
            return Err(CoreError::arg(
                "time_to_recover",
                format!("need from < horizon, got [{from}, {horizon}]"),
            ));
        }
        let f = |t: f64| self.predict(t) - level;
        // Scan for a sign change from below to above.
        const GRID: usize = 512;
        let mut prev_t = from;
        let mut prev_v = f(from);
        if prev_v >= 0.0 {
            return Ok(from);
        }
        for i in 1..=GRID {
            let t = from + (horizon - from) * i as f64 / GRID as f64;
            let v = f(t);
            if v >= 0.0 {
                let root = resilience_math::roots::brent(f, prev_t, t, 1e-10, 200)
                    .map_err(CoreError::Math)?;
                return Ok(root.x);
            }
            prev_t = t;
            prev_v = v;
        }
        let _ = prev_v;
        Err(CoreError::no_solution(
            "time_to_recover",
            format!("curve stays below {level} up to t = {horizon}"),
        ))
    }

    /// Residuals `R(t_i) − P(t_i)` against an observed series — the
    /// quantity minimized by the paper's Eq. 8.
    fn residuals(&self, series: &PerformanceSeries) -> Vec<f64> {
        series.iter().map(|(t, r)| r - self.predict(t)).collect()
    }
}

/// A parameterized family of resilience models, fit by
/// [`crate::fit::fit_least_squares`].
///
/// Families define their own mapping between an unconstrained *internal*
/// parameter vector (what the optimizer sees) and the *external*
/// parameters (what the model uses). This is how validity constraints —
/// e.g. the quadratic bathtub's `−2√(αγ) < β < 0` — are enforced without
/// constrained optimization.
///
/// Families are `Send + Sync` so [`crate::selection::rank_models`] can
/// fan fits out across worker threads.
pub trait ModelFamily: Send + Sync {
    /// Family name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Number of (external) model parameters.
    fn n_params(&self) -> usize;

    /// Maps an internal (unconstrained) vector to feasible external
    /// parameters, writing them into `out`. Must accept any finite
    /// internal vector of the right length. The fitting hot path calls
    /// this once per objective evaluation, so it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `internal.len()` or `out.len()` differs from
    /// [`ModelFamily::n_params`].
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]);

    /// [`ModelFamily::internal_to_params_into`] into a new vector.
    ///
    /// # Panics
    ///
    /// Panics when `internal.len()` differs from [`ModelFamily::n_params`].
    fn internal_to_params(&self, internal: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_params()];
        self.internal_to_params_into(internal, &mut out);
        out
    }

    /// Evaluates the curve for `params` at each time in `ts`, writing
    /// into `out`; returns `false` (leaving `out` unspecified) when the
    /// parameters are infeasible for this family.
    ///
    /// This fuses [`ModelFamily::build`] + [`ResilienceModel::predict_into`]
    /// for the SSE objective: overriding families validate and evaluate
    /// on the stack, so an objective call allocates nothing — not even
    /// the error value a failed `build` would carry. The default
    /// delegates to `build` (which boxes) and is correct for any family.
    ///
    /// # Panics
    ///
    /// Panics when `ts.len() != out.len()`.
    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        match self.build(params) {
            Ok(model) => {
                model.predict_into(ts, out);
                true
            }
            Err(_) => false,
        }
    }

    /// Analytic partials of the curve with respect to the *internal*
    /// parameters: writes `out[(i, j)] = ∂P(t_i; θ(u)) / ∂u_j` (already
    /// chain-ruled through the internal→external map) and returns `true`,
    /// or returns `false` (leaving `out` unspecified) when the family has
    /// no closed form or `params` is infeasible.
    ///
    /// `params` must equal `internal_to_params(internal)`; the caller
    /// computes it anyway for the residuals, so it is passed in rather
    /// than recomputed. The Levenberg–Marquardt polish negates these
    /// entries to get the residual Jacobian of `y_i − P(t_i)`. The
    /// default opts out; families implementing it skip one
    /// finite-difference residual pass per parameter per LM iteration.
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        let _ = (internal, params, ts, out);
        false
    }

    /// A batched SSE kernel that no family has: it returns `false` and
    /// leaves `out` untouched.
    ///
    /// No fit calls it (clippy's `disallowed-methods` forbids the call in
    /// the workspace). Every fit scores one point at a time, through
    /// [`ModelFamily::predict_params_into`]. The hook stays for the
    /// repository benchmark's kernel probe (`perf/src/probes.rs`), which
    /// times eight scalar evaluations when it returns `false`.
    fn sse_batch_into(&self, internals: &[f64], ts: &[f64], ys: &[f64], out: &mut [f64]) -> bool {
        let _ = (internals, ts, ys, out);
        false
    }

    /// Multiplier applied to the configured Nelder–Mead iteration cap
    /// when fitting this family.
    ///
    /// The default basin-finding cap is sized for the paper's
    /// three-parameter families, which converge by tolerance well under
    /// it. Families whose landscapes genuinely need longer simplex walks
    /// (the double-episode extended shapes, whose second dip only
    /// resolves after the first has settled) return a larger factor so
    /// they get the budget without inflating every other family's
    /// worst-case work.
    fn nm_iteration_scale(&self) -> usize {
        1
    }

    /// What a fit of this family reads of the times `ts` alone, built once
    /// (DESIGN.md §11): a design either gives the family's exact fit
    /// ([`Design::optimum`]), when a solve or a deterministic profile finds
    /// the least-squares optimum without a search, or serves a profiled
    /// search ([`Design::profiled`]). The Quadratic's and the Quartic's
    /// designs hold the Householder factorization of their monomial
    /// columns, Competing Risks' holds what its profile reads of the times
    /// alone, and a mixture's holds `ln t`. A fit builds one design, unless
    /// its caller holds one for its times: a bootstrap band builds one for
    /// its base fit and all its replicates, and a fleet wave one for each
    /// time grid that two or more of its fits of the family share.
    ///
    /// The default is `None`: the fit searches every internal coordinate.
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        let _ = ts;
        None
    }

    /// Maps feasible external parameters back to the internal space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for infeasible external
    /// parameters.
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError>;

    /// Builds a model from external parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] when the parameters
    /// violate the family's constraints.
    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError>;

    /// Data-driven starting points in the *external* space.
    ///
    /// Implementations should return several diverse, feasible guesses;
    /// the fit driver runs the optimizer from each.
    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>>;
}

/// What a family's fit reads of fixed times alone ([`ModelFamily::design`]).
///
/// One design may serve many fits, on several threads at once (a bootstrap
/// band's replicates, the cells of a fleet wave that share its times), so
/// what it gives for given values or a given point must not depend on
/// which fits it served before.
pub trait Design: Send + Sync {
    /// The family's least-squares fit of `ys`, one value per time of the
    /// design: the Quadratic's and the Quartic's one solve, Competing
    /// Risks' profile over `ln β`. The fit takes the point as it is: no
    /// starts, no search, no polish, no retry, and any starting points the
    /// fit is passed are ignored.
    ///
    /// `None` where the design gives no exact fit (a profiled search's
    /// design, or a rank-deficient one): the fit then searches. The default
    /// gives none.
    ///
    /// # Errors
    ///
    /// The inner `Err` is a typed error where the family has no point to
    /// give (a profile none of whose points is finite). The fit returns
    /// it: there is no search to fall back to.
    fn optimum(&self, ys: &[f64]) -> Option<Result<ExactOptimum, CoreError>> {
        let _ = ys;
        None
    }

    /// Whether the design serves a profiled search: the curve is linear in
    /// its last parameter, a positive coefficient whose internal coordinate
    /// is its logarithm, so the fit searches the other internal coordinates
    /// alone and solves the coefficient exactly at every point of the
    /// search, over the columns [`Design::linear_columns_into`] writes
    /// (DESIGN.md §11, "Profiling out the linear coefficient"). The default
    /// is `false`.
    fn profiled(&self) -> bool {
        false
    }

    /// Writes the offset and the column of the last coefficient (see
    /// [`Design::profiled`]) at the point `nonlinear` of the other internal
    /// coordinates, one entry per time of the design, so that
    /// `P(t) = offset(t) + c·column(t)`. Returns `true`, or `false`
    /// (leaving the outputs unspecified) when the design serves no profiled
    /// search, the point is infeasible, or the lengths disagree; it never
    /// panics. The default serves none.
    ///
    /// Must allocate nothing: it runs once per objective evaluation.
    fn linear_columns_into(
        &self,
        nonlinear: &[f64],
        offset: &mut [f64],
        column: &mut [f64],
    ) -> bool {
        let _ = (nonlinear, offset, column);
        false
    }
}

/// An exact fit's point ([`Design::optimum`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOptimum {
    /// The internal point.
    pub internal: Vec<f64>,
    /// Its SSE under the fit's own objective, the one its search would
    /// score the point with, so that it is the fitted model's own.
    pub sse: f64,
    /// The work of the profile that found the point, which the fit logs on
    /// one `converged` line (solver `profile`); `None` for a solve, which
    /// logs no solver line.
    pub profile: Option<ProfileWork>,
}

/// The work of a deterministic profile ([`ExactOptimum::profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileWork {
    /// Objective evaluations.
    pub evaluations: usize,
    /// Iterations of its scalar searches.
    pub iterations: usize,
    /// The least profiled SSE it scored.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A curve with a known closed form for testing the trait defaults:
    /// P(t) = 1 − d·exp(−((t−m)/w)²).
    struct GaussianDip {
        d: f64,
        m: f64,
        w: f64,
    }

    impl ResilienceModel for GaussianDip {
        fn name(&self) -> &'static str {
            "GaussianDip"
        }

        fn params(&self) -> Vec<f64> {
            vec![self.d, self.m, self.w]
        }

        fn predict(&self, t: f64) -> f64 {
            1.0 - self.d * (-((t - self.m) / self.w).powi(2)).exp()
        }
    }

    fn dip() -> GaussianDip {
        GaussianDip {
            d: 0.05,
            m: 12.0,
            w: 6.0,
        }
    }

    #[test]
    fn default_predict_many() {
        let m = dip();
        let ys = m.predict_many(&[0.0, 12.0, 24.0]);
        assert_eq!(ys.len(), 3);
        assert!((ys[1] - 0.95).abs() < 1e-12);
    }

    #[test]
    fn default_predict_into_matches_predict_many() {
        let m = dip();
        let ts = [0.0, 6.0, 12.0, 24.0];
        let mut out = [f64::NAN; 4];
        m.predict_into(&ts, &mut out);
        assert_eq!(out.to_vec(), m.predict_many(&ts));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn predict_into_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        dip().predict_into(&[0.0, 1.0, 2.0], &mut out);
    }

    #[test]
    fn default_area_matches_reference() {
        let m = dip();
        // ∫(1 − d·gauss) = (b−a) − d·w·√π·(erf part); over a wide window
        // the erf term ≈ d·w·√π.
        let a = m.area(-40.0, 64.0).unwrap();
        let expected = 104.0 - 0.05 * 6.0 * std::f64::consts::PI.sqrt();
        assert!((a - expected).abs() < 1e-6, "{a} vs {expected}");
    }

    #[test]
    fn default_trough_time() {
        let m = dip();
        let t = m.trough_time(0.0, 48.0).unwrap();
        assert!((t - 12.0).abs() < 1e-4);
        assert!(m.trough_time(5.0, 5.0).is_err());
    }

    #[test]
    fn default_time_to_recover() {
        let m = dip();
        // Recovery to 0.99 after the trough at 12.
        let t = m.time_to_recover(0.99, 12.0, 100.0).unwrap();
        assert!(t > 12.0);
        assert!((m.predict(t) - 0.99).abs() < 1e-8);
    }

    #[test]
    fn time_to_recover_already_above() {
        let m = dip();
        assert_eq!(m.time_to_recover(0.9, 12.0, 100.0).unwrap(), 12.0);
    }

    #[test]
    fn time_to_recover_unreachable() {
        let m = dip();
        assert!(m.time_to_recover(2.0, 0.0, 100.0).is_err());
        assert!(m.time_to_recover(0.99, 10.0, 5.0).is_err());
    }

    #[test]
    fn residuals_shape() {
        let m = dip();
        let series =
            PerformanceSeries::monthly("s", m.predict_many(&[0.0, 1.0, 2.0, 3.0])).unwrap();
        let r = m.residuals(&series);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn n_params_default() {
        assert_eq!(dip().n_params(), 3);
    }
}
