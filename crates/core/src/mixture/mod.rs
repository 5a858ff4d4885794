//! Mixture-distribution resilience models (paper §II-B, Eq. 7).
//!
//! The curve is a competition between a degradation process and a
//! recovery process:
//!
//! ```text
//! P(t) = a₁(t)·(1 − F₁(t)) + a₂(t)·F₂(t)
//! ```
//!
//! with `a₁(t) = 1` (the paper's simplification), `F₁` the degradation
//! CDF, `F₂` the recovery CDF, and `a₂(t)` an increasing recovery trend.
//! The paper's Table III evaluates the four pairings of Exponential and
//! Weibull components under `a₂(t) = β·ln t`; this module supports any
//! [`ComponentKind`] pairing under any [`Trend`].

mod component;
mod trend;

use component::cdf_from_hazard;
pub use component::{BuiltComponent, ComponentKind};
pub use trend::Trend;

use crate::model::{Design, ModelFamily, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use std::sync::Arc;

/// A fitted mixture resilience model (paper Eq. 7 with `a₁ = 1`).
///
/// # Examples
///
/// ```
/// use resilience_core::mixture::{ComponentKind, MixtureModel, Trend};
/// use resilience_core::ResilienceModel;
///
/// // Wei-Exp with a logarithmic recovery trend, the paper's best
/// // performing combination on the 1990-93 data.
/// let m = MixtureModel::new(
///     ComponentKind::Weibull, vec![2.0, 15.0],
///     ComponentKind::Exponential, vec![0.08],
///     Trend::Logarithmic, 0.30,
/// )?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12); // starts at nominal
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureModel {
    f1_kind: ComponentKind,
    f1_params: Vec<f64>,
    f2_kind: ComponentKind,
    f2_params: Vec<f64>,
    curve: Curve,
    name: &'static str,
}

impl MixtureModel {
    /// Creates a mixture model from its components, trend, and trend
    /// coefficient `β`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for infeasible component
    /// parameters or a non-finite/non-positive `β`.
    pub fn new(
        f1_kind: ComponentKind,
        f1_params: Vec<f64>,
        f2_kind: ComponentKind,
        f2_params: Vec<f64>,
        trend: Trend,
        beta: f64,
    ) -> Result<Self, CoreError> {
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(CoreError::params(
                "Mixture",
                format!("trend coefficient β must be positive and finite, got {beta}"),
            ));
        }
        let curve = Curve {
            f1: f1_kind.build(&f1_params)?,
            f2: f2_kind.build(&f2_params)?,
            trend,
            beta,
        };
        Ok(MixtureModel {
            f1_kind,
            f1_params,
            f2_kind,
            f2_params,
            curve,
            name: combo_name(f1_kind, f2_kind),
        })
    }

    /// The recovery trend.
    #[must_use]
    pub fn trend(&self) -> Trend {
        self.curve.trend
    }

    /// The trend coefficient `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.curve.beta
    }
}

impl ResilienceModel for MixtureModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.f1_params.clone();
        p.extend_from_slice(&self.f2_params);
        p.push(self.curve.beta);
        p
    }

    fn predict(&self, t: f64) -> f64 {
        self.curve.predict(t)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        self.curve.predict_into(ts, out);
    }
}

/// One mixture curve at one parameter point: the per-point evaluator
/// behind every prediction path — [`MixtureModel`] and the fitting
/// objective's `predict_params_into` — so both share one expression and
/// agree bit for bit.
///
/// `ln t` is computed once per time point and shared by both components
/// and the `β·ln t` trend; the Weibull cumulative hazard is
/// `exp(k·ln t − k·ln λ)`, so no evaluation calls `powf` (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq)]
struct Curve {
    f1: BuiltComponent,
    f2: BuiltComponent,
    trend: Trend,
    beta: f64,
}

impl Curve {
    /// The curve at external parameters `[F₁ params…, F₂ params…, β]`,
    /// or `None` when they are infeasible. Allocation-free.
    fn try_new(family: &MixtureFamily, params: &[f64]) -> Option<Curve> {
        if params.len() != family.n_params() {
            return None;
        }
        let (p1, p2, beta) = family.split_params(params);
        if !(beta > 0.0) || !beta.is_finite() {
            return None;
        }
        Some(Curve {
            f1: family.f1.try_build(p1)?,
            f2: family.f2.try_build(p2)?,
            trend: family.trend,
            beta,
        })
    }

    #[inline]
    fn degradation(&self, t: f64, ln_t: f64) -> f64 {
        self.f1.survival_at(t, ln_t)
    }

    #[inline]
    fn recovery(&self, t: f64, ln_t: f64) -> f64 {
        self.trend.eval_at(self.beta, t, ln_t) * self.f2.cdf_at(t, ln_t)
    }

    #[inline]
    fn predict(&self, t: f64) -> f64 {
        let ln_t = t.ln();
        self.degradation(t, ln_t) + self.recovery(t, ln_t)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = self.predict(t);
        }
    }
}

/// Table label for a component pairing (e.g. `"Wei-Exp"`).
#[must_use]
pub fn combo_name(f1: ComponentKind, f2: ComponentKind) -> &'static str {
    use ComponentKind as K;
    match (f1, f2) {
        (K::Exponential, K::Exponential) => "Exp-Exp",
        (K::Exponential, K::Weibull) => "Exp-Wei",
        (K::Weibull, K::Exponential) => "Wei-Exp",
        (K::Weibull, K::Weibull) => "Wei-Wei",
    }
}

/// Weibull shapes on the screen's grid, log-spaced over
/// [`SCREEN_SHAPE_RANGE`].
const SCREEN_SHAPES: usize = 5;

/// Cumulative hazards at the last time on the screen's grid, log-spaced
/// over [`SCREEN_HAZARD_RANGE`].
const SCREEN_HAZARDS: usize = 7;

/// The range of the screen's Weibull shapes.
const SCREEN_SHAPE_RANGE: (f64, f64) = (0.2, 12.0);

/// The range of the screen's cumulative hazards at the last time.
const SCREEN_HAZARD_RANGE: (f64, f64) = (1e-3, 1e2);

/// The most nodes a component has on the screen's grid: a Weibull's.
const SCREEN_NODES: usize = SCREEN_SHAPES * SCREEN_HAZARDS;

/// The time points the screen holds per node at once, on the stack.
const SCREEN_BLOCK: usize = 16;

/// Point `i` of `m` log-spaced over `range`.
fn log_spaced(range: (f64, f64), i: usize, m: usize) -> f64 {
    let (lo, hi) = (range.0.ln(), range.1.ln());
    (lo + (hi - lo) * i as f64 / (m - 1) as f64).exp()
}

/// The screen's node `j` of a `kind` component, whose cumulative hazard at
/// the last time `t_end` is `z`: an Exponential's rate `z / t_end`, or a
/// Weibull's shape `k` and scale `t_end·z^(−1/k)`, shape-major. Only the
/// first [`ComponentKind::n_params`] values are used.
fn screen_node(kind: ComponentKind, j: usize, t_end: f64) -> [f64; 2] {
    let z = log_spaced(SCREEN_HAZARD_RANGE, j % SCREEN_HAZARDS, SCREEN_HAZARDS);
    match kind {
        ComponentKind::Exponential => [z / t_end, 0.0],
        ComponentKind::Weibull => {
            let k = log_spaced(SCREEN_SHAPE_RANGE, j / SCREEN_HAZARDS, SCREEN_SHAPES);
            [k, t_end * z.powf(-1.0 / k)]
        }
    }
}

/// The number of a `kind` component's nodes on the screen's grid.
fn screen_nodes(kind: ComponentKind) -> usize {
    match kind {
        ComponentKind::Exponential => SCREEN_HAZARDS,
        ComponentKind::Weibull => SCREEN_NODES,
    }
}

/// The [`ModelFamily`] for mixture models with fixed component kinds and
/// trend.
///
/// Parameters are ordered `[F₁ params…, F₂ params…, β]`, all positive;
/// the internal space log-transforms every one of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureFamily {
    /// Degradation component kind.
    pub f1: ComponentKind,
    /// Recovery component kind.
    pub f2: ComponentKind,
    /// Recovery trend.
    pub trend: Trend,
}

impl MixtureFamily {
    /// The paper's four evaluated combinations (Exp/Wei pairings) under
    /// the logarithmic trend of its Table III.
    #[must_use]
    pub fn paper_combinations() -> Vec<MixtureFamily> {
        use ComponentKind as K;
        [
            (K::Exponential, K::Exponential),
            (K::Weibull, K::Exponential),
            (K::Exponential, K::Weibull),
            (K::Weibull, K::Weibull),
        ]
        .into_iter()
        .map(|(f1, f2)| MixtureFamily {
            f1,
            f2,
            trend: Trend::Logarithmic,
        })
        .collect()
    }

    /// Whether the curve is linear in β: under every trend but `e^{βt}`.
    fn linear_in_beta(&self) -> bool {
        self.trend != Trend::Exponential
    }

    fn split_params<'a>(&self, params: &'a [f64]) -> (&'a [f64], &'a [f64], f64) {
        let n1 = self.f1.n_params();
        let n2 = self.f2.n_params();
        (&params[..n1], &params[n1..n1 + n2], params[n1 + n2])
    }

    /// The best node of the separable screen (DESIGN.md §11, "The
    /// separable screen"), as a full parameter vector with its optimal
    /// `β`, or `None` when the family does not profile `β`, the last time
    /// is not positive, or no node has a positive `β`.
    ///
    /// Each component takes its nodes from a grid over its cumulative
    /// hazard at the last time `T`, 7 values log-spaced over [10⁻³, 10²]:
    /// an Exponential's rate is `z/T`, and a Weibull crosses them with 5
    /// shapes `k` log-spaced over [0.2, 12], with scale `T·z^(−1/k)`.
    /// Every pair of an `F₁` node and an `F₂` node is scored by its
    /// profiled SSE, and the least wins, ties to the lower pair index. A
    /// pair's offset `1 − F₁` depends on its `F₁` node alone and its column
    /// `a₂(1, t)·F₂(t)` on its `F₂` node alone, so the pair costs one dot
    /// product of the two: with `r = y − offset` and column `g`,
    /// `β = ⟨r, g⟩/⟨g, g⟩` and `SSE = ⟨r, r⟩ − β·⟨r, g⟩`.
    ///
    /// A pure function of the series' times and values, blocked over time
    /// on the stack: it allocates only the guess it returns.
    #[must_use]
    pub fn screen_guess(&self, series: &PerformanceSeries) -> Option<Vec<f64>> {
        let (ts, ys) = (series.times(), series.values());
        let t_end = *ts.last()?;
        if !(self.linear_in_beta() && t_end > 0.0 && t_end.is_finite()) {
            return None;
        }
        let (n1, n2) = (screen_nodes(self.f1), screen_nodes(self.f2));
        let nodes = |kind: ComponentKind| {
            let mut built = [None; SCREEN_NODES];
            for (j, node) in built.iter_mut().enumerate().take(screen_nodes(kind)) {
                *node = kind.try_build(&screen_node(kind, j, t_end)[..kind.n_params()]);
            }
            built
        };
        let (f1, f2) = (nodes(self.f1), nodes(self.f2));
        // ⟨r, r⟩ per F₁ node, ⟨g, g⟩ and ⟨y, g⟩ per F₂ node, and ⟨o, g⟩
        // per pair, summed block by block in time order.
        let mut rr = [0.0; SCREEN_NODES];
        let mut gg = [0.0; SCREEN_NODES];
        let mut yg = [0.0; SCREEN_NODES];
        let mut og = [[0.0; SCREEN_NODES]; SCREEN_NODES];
        let mut offsets = [[0.0; SCREEN_BLOCK]; SCREEN_NODES];
        let mut columns = [[0.0; SCREEN_BLOCK]; SCREEN_NODES];
        let mut ln_ts = [0.0; SCREEN_BLOCK];
        for (ts, ys) in ts.chunks(SCREEN_BLOCK).zip(ys.chunks(SCREEN_BLOCK)) {
            let m = ts.len();
            for (l, &t) in ln_ts.iter_mut().zip(ts) {
                *l = t.ln();
            }
            let points = || ts.iter().zip(&ln_ts).zip(ys);
            for ((f1, offset), rr) in f1.iter().zip(&mut offsets).zip(&mut rr).take(n1) {
                let Some(f1) = f1 else { continue };
                for (o, ((&t, &ln_t), &y)) in offset.iter_mut().zip(points()) {
                    *o = f1.survival_at(t, ln_t);
                    *rr += (y - *o) * (y - *o);
                }
            }
            let columns_of_f2 = columns.iter_mut().zip(&mut gg).zip(&mut yg);
            for (f2, ((column, gg), yg)) in f2.iter().zip(columns_of_f2).take(n2) {
                let Some(f2) = f2 else { continue };
                for (g, ((&t, &ln_t), &y)) in column.iter_mut().zip(points()) {
                    *g = self.trend.eval_at(1.0, t, ln_t) * f2.cdf_at(t, ln_t);
                    *gg += *g * *g;
                    *yg += y * *g;
                }
            }
            for (og, offset) in og.iter_mut().zip(&offsets).take(n1) {
                for (og, column) in og.iter_mut().zip(&columns).take(n2) {
                    *og += offset[..m]
                        .iter()
                        .zip(&column[..m])
                        .map(|(o, g)| o * g)
                        .sum::<f64>();
                }
            }
        }
        let mut best: Option<(f64, usize, usize, f64)> = None;
        for (a, (rr, og)) in rr.iter().zip(&og).enumerate().take(n1) {
            if f1[a].is_none() {
                continue;
            }
            for (b, ((gg, yg), og)) in gg.iter().zip(&yg).zip(og).enumerate().take(n2) {
                if f2[b].is_none() || !(*gg >= f64::MIN_POSITIVE && gg.is_finite()) {
                    continue;
                }
                let rg = yg - og;
                let beta = rg / gg;
                let sse = rr - beta * rg;
                if beta > 0.0
                    && beta.is_finite()
                    && sse.is_finite()
                    && best.is_none_or(|(least, ..)| sse < least)
                {
                    best = Some((sse, a, b, beta));
                }
            }
        }
        let (_, a, b, beta) = best?;
        let mut guess = Vec::with_capacity(self.n_params());
        guess.extend_from_slice(&screen_node(self.f1, a, t_end)[..self.f1.n_params()]);
        guess.extend_from_slice(&screen_node(self.f2, b, t_end)[..self.f2.n_params()]);
        guess.push(beta);
        Some(guess)
    }
}

impl ModelFamily for MixtureFamily {
    fn name(&self) -> &'static str {
        combo_name(self.f1, self.f2)
    }

    fn n_params(&self) -> usize {
        self.f1.n_params() + self.f2.n_params() + 1
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            self.n_params(),
            "internal dimension mismatch"
        );
        assert_eq!(out.len(), self.n_params(), "external dimension mismatch");
        for (o, &v) in out.iter_mut().zip(internal) {
            *o = v.exp();
        }
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_params_into requires ts and out of equal length"
        );
        match Curve::try_new(self, params) {
            Some(curve) => {
                curve.predict_into(ts, out);
                true
            }
            None => false,
        }
    }

    /// Hand-derived partials of `P(t) = (1 − F₁(t)) + a₂(β, t)·F₂(t)`,
    /// chain-ruled through the all-log internal map (`∂θ/∂u = θ`; every
    /// Exp/Wei parameter and β is positive):
    ///
    /// * degradation params: `∂P/∂u_j = −θ_j·∂F₁/∂θ_j`
    /// * recovery params: `∂P/∂u_j = a₂(β, t)·θ_j·∂F₂/∂θ_j`
    /// * trend coefficient: `∂P/∂u_β = β·(∂a₂/∂β)·F₂(t)`
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        if internal.len() != self.n_params() {
            return false;
        }
        let Some(curve) = Curve::try_new(self, params) else {
            return false;
        };
        let (p1, p2, beta) = self.split_params(params);
        let (n1, n2) = (self.f1.n_params(), self.f2.n_params());
        let mut g = [0.0_f64; 2]; // component gradient scratch (≤ 2 params)
        for (i, &t) in ts.iter().enumerate() {
            let ln_t = t.ln();
            let trend = self.trend.eval_at(beta, t, ln_t);
            curve.f1.cdf_gradient(t, ln_t, &mut g[..n1]);
            for (j, &gj) in g[..n1].iter().enumerate() {
                out[(i, j)] = -p1[j] * gj;
            }
            let z2 = curve.f2.cdf_gradient(t, ln_t, &mut g[..n2]);
            for (j, &gj) in g[..n2].iter().enumerate() {
                out[(i, n1 + j)] = trend * p2[j] * gj;
            }
            out[(i, n1 + n2)] =
                beta * self.trend.beta_gradient(beta, t, ln_t) * cdf_from_hazard(z2);
        }
        true
    }

    /// β, the last parameter, is linear and positive under every trend but
    /// `e^{βt}`, so under those the design serves a profiled search: it
    /// holds `ln t` at each time, which every evaluation of the search
    /// reads. `None` under `e^{βt}`: the fit searches β too.
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        if !self.linear_in_beta() {
            return None;
        }
        Some(Arc::new(LinearDesign {
            family: self,
            ts,
            ln_ts: ts.iter().map(|t| t.ln()).collect(),
        }))
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "Mixture",
                format!(
                    "expected {} parameters, got {}",
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        params
            .iter()
            .map(|&v| {
                if v > 0.0 {
                    Ok(v.ln())
                } else {
                    Err(CoreError::params(
                        "Mixture",
                        format!("parameter {v} must be positive"),
                    ))
                }
            })
            .collect()
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != self.n_params() {
            return Err(CoreError::params(
                "Mixture",
                format!(
                    "expected {} parameters, got {}",
                    self.n_params(),
                    params.len()
                ),
            ));
        }
        let (p1, p2, beta) = self.split_params(params);
        Ok(Box::new(MixtureModel::new(
            self.f1,
            p1.to_vec(),
            self.f2,
            p2.to_vec(),
            self.trend,
            beta,
        )?))
    }

    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        let t_end = series.times()[series.len() - 1].max(2.0);
        let (t_d, _) = series.trough().unwrap_or((t_end / 3.0, series.nominal()));
        let t_d = t_d.max(1.0);
        let end_val = series.values()[series.len() - 1].max(0.1);
        // β scaled so a₂(t_end)·1 ≈ the end level.
        let beta_guess = match self.trend {
            Trend::Constant => end_val,
            Trend::Linear => end_val / t_end,
            Trend::Exponential => (end_val.ln() / t_end).abs().max(1e-4),
            Trend::Logarithmic => end_val / t_end.ln(),
        };
        let mut guesses = Vec::new();
        for p1 in self.f1.candidate_params(t_d) {
            for p2 in self.f2.candidate_params(0.5 * (t_d + t_end)) {
                for scale in [1.0, 0.5] {
                    let mut g = p1.clone();
                    g.extend_from_slice(&p2);
                    g.push(beta_guess * scale);
                    guesses.push(g);
                }
            }
        }
        // The screen's best node goes last, so it loses every tie.
        guesses.extend(self.screen_guess(series));
        guesses
    }
}

/// A profiled mixture's design ([`MixtureFamily::design`]).
struct LinearDesign<'a> {
    family: &'a MixtureFamily,
    ts: &'a [f64],
    /// `ln t` at each time.
    ln_ts: Vec<f64>,
}

impl Design for LinearDesign<'_> {
    fn profiled(&self) -> bool {
        true
    }

    /// `offset = 1 − F₁(t)` and `column = a₂(1, t)·F₂(t)`, so that
    /// `P(t) = offset + β·column`; the components are built from
    /// `exp(nonlinear)` exactly as `internal_to_params_into` would.
    fn linear_columns_into(
        &self,
        nonlinear: &[f64],
        offset: &mut [f64],
        column: &mut [f64],
    ) -> bool {
        let family = self.family;
        let (n1, n2) = (family.f1.n_params(), family.f2.n_params());
        let n = self.ts.len();
        if nonlinear.len() != n1 + n2 || offset.len() != n || column.len() != n {
            return false;
        }
        let mut p = [0.0_f64; 4];
        for (o, &v) in p.iter_mut().zip(nonlinear) {
            *o = v.exp();
        }
        let (Some(f1), Some(f2)) = (
            family.f1.try_build(&p[..n1]),
            family.f2.try_build(&p[n1..n1 + n2]),
        ) else {
            return false;
        };
        for (i, (&t, &ln_t)) in self.ts.iter().zip(&self.ln_ts).enumerate() {
            offset[i] = f1.survival_at(t, ln_t);
            column[i] = family.trend.eval_at(1.0, t, ln_t) * f2.cdf_at(t, ln_t);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wei_exp() -> MixtureModel {
        MixtureModel::new(
            ComponentKind::Weibull,
            vec![2.0, 15.0],
            ComponentKind::Exponential,
            vec![0.08],
            Trend::Logarithmic,
            0.30,
        )
        .unwrap()
    }

    #[test]
    fn starts_at_nominal_one() {
        // a₁(0)(1 − F₁(0)) = 1, and the log trend is 0 at t = 0.
        assert!((wei_exp().predict(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_beta_and_params() {
        assert!(MixtureModel::new(
            ComponentKind::Exponential,
            vec![1.0],
            ComponentKind::Exponential,
            vec![1.0],
            Trend::Logarithmic,
            0.0,
        )
        .is_err());
        assert!(MixtureModel::new(
            ComponentKind::Exponential,
            vec![-1.0],
            ComponentKind::Exponential,
            vec![1.0],
            Trend::Logarithmic,
            0.5,
        )
        .is_err());
    }

    #[test]
    fn dips_then_recovers() {
        let m = wei_exp();
        let early = m.predict(0.0);
        let trough_region: f64 = (5..25)
            .map(|i| m.predict(i as f64))
            .fold(f64::INFINITY, f64::min);
        let late = m.predict(47.0);
        assert!(trough_region < early, "curve must dip below nominal");
        assert!(late > trough_region, "curve must recover from the trough");
    }

    #[test]
    fn params_order_and_count() {
        let m = wei_exp();
        assert_eq!(m.params(), vec![2.0, 15.0, 0.08, 0.30]);
        assert_eq!(m.n_params(), 4);
        assert_eq!(m.name(), "Wei-Exp");
    }

    #[test]
    fn family_dimensions() {
        for fam in MixtureFamily::paper_combinations() {
            let want = match fam.name() {
                "Exp-Exp" => 3,
                "Wei-Exp" | "Exp-Wei" => 4,
                "Wei-Wei" => 5,
                other => panic!("unexpected combo {other}"),
            };
            assert_eq!(fam.n_params(), want, "{}", fam.name());
        }
    }

    #[test]
    fn family_roundtrip() {
        let fam = MixtureFamily {
            f1: ComponentKind::Weibull,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        let params = vec![1.7, 12.0, 0.05, 0.25];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn family_build_validates() {
        let fam = MixtureFamily {
            f1: ComponentKind::Exponential,
            f2: ComponentKind::Exponential,
            trend: Trend::Logarithmic,
        };
        assert!(fam.build(&[1.0, 1.0, 0.5]).is_ok());
        assert!(fam.build(&[1.0, 1.0]).is_err());
        assert!(fam.build(&[1.0, -1.0, 0.5]).is_err());
    }

    #[test]
    fn initial_guesses_buildable() {
        let s = resilience_data::recessions::Recession::R1990_93.payroll_index();
        for fam in MixtureFamily::paper_combinations() {
            let guesses = fam.initial_guesses(&s);
            assert!(!guesses.is_empty(), "{}", fam.name());
            for g in &guesses {
                assert!(
                    fam.build(g).is_ok(),
                    "{}: infeasible guess {g:?}",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let ts = [0.0, 0.5, 1.0, 4.0, 15.0, 40.0];
        for fam in MixtureFamily::paper_combinations() {
            let n = fam.n_params();
            // Shapes/scales for Weibull slots, rates for Exponential ones.
            let mut external: Vec<f64> = [fam.f1, fam.f2]
                .iter()
                .flat_map(|kind| match kind {
                    ComponentKind::Exponential => vec![0.05],
                    ComponentKind::Weibull => vec![1.7, 12.0],
                })
                .collect();
            external.push(0.25);
            let internal = fam.params_to_internal(&external).unwrap();
            let mut params = vec![0.0; n];
            fam.internal_to_params_into(&internal, &mut params);

            let mut out = [f64::NAN; 6];
            assert!(fam.predict_params_into(&params, &ts, &mut out));
            let model = fam.build(&params).unwrap();
            assert_eq!(out.to_vec(), model.predict_many(&ts), "{}", fam.name());
            let mut into = [f64::NAN; 6];
            model.predict_into(&ts, &mut into);
            assert_eq!(into, out, "{}", fam.name());

            // Infeasible: a negative first parameter, a bad β, and the
            // wrong parameter count.
            let mut bad = params.clone();
            bad[0] = -bad[0];
            assert!(!fam.predict_params_into(&bad, &ts, &mut out));
            let mut bad = params.clone();
            bad[n - 1] = 0.0;
            assert!(!fam.predict_params_into(&bad, &ts, &mut out));
            assert!(!fam.predict_params_into(&params[..n - 1], &ts, &mut out));
        }
    }

    #[test]
    fn linear_design_reconstructs_the_curve() {
        let ts = [0.0, 0.5, 1.0, 4.0, 15.0, 40.0];
        let (mut offset, mut column, mut curve) = ([0.0; 6], [0.0; 6], [0.0; 6]);
        for base in MixtureFamily::paper_combinations() {
            for trend in Trend::ALL {
                let fam = MixtureFamily { trend, ..base };
                let mut external: Vec<f64> = [fam.f1, fam.f2]
                    .iter()
                    .flat_map(|kind| match kind {
                        ComponentKind::Exponential => vec![0.05],
                        ComponentKind::Weibull => vec![1.7, 12.0],
                    })
                    .collect();
                let beta = 0.25;
                external.push(beta);
                let internal = fam.params_to_internal(&external).unwrap();
                let u = &internal[..internal.len() - 1];
                let Some(design) = fam.design(&ts) else {
                    assert_eq!(trend, Trend::Exponential, "{}", fam.name());
                    continue;
                };
                assert_ne!(trend, Trend::Exponential, "{}", fam.name());
                assert!(design.profiled() && design.optimum(&[1.0; 6]).is_none());
                assert!(design.linear_columns_into(u, &mut offset, &mut column));
                let params = fam.internal_to_params(&internal);
                assert!(fam.predict_params_into(&params, &ts, &mut curve));
                for i in 0..ts.len() {
                    let rebuilt = offset[i] + params[params.len() - 1] * column[i];
                    assert!(
                        (rebuilt - curve[i]).abs() <= 1e-15 * curve[i].abs(),
                        "{} {trend} t={}: {rebuilt} vs {}",
                        fam.name(),
                        ts[i],
                        curve[i]
                    );
                }
                // Infeasible points and mismatched buffers are refusals.
                let nan = vec![f64::NAN; u.len()];
                assert!(!design.linear_columns_into(&nan, &mut offset, &mut column));
                assert!(!design.linear_columns_into(&internal, &mut offset, &mut column));
                assert!(!design.linear_columns_into(u, &mut offset[..5], &mut column));
                let short = fam.design(&ts[..5]).unwrap();
                assert!(!short.linear_columns_into(u, &mut offset, &mut column));
            }
        }
    }

    /// Drift oracle for the log-domain kernel (DESIGN.md §11): mixture
    /// predictions and component CDF partials against the `powf` closed
    /// forms of `resilience_stats`, on a seeded grid of (k, λ, rate, β) at
    /// t = 0, t ∈ (0, 1), t = 1 and t > 1.
    #[test]
    fn log_domain_kernel_matches_the_powf_reference() {
        use resilience_stats::{ContinuousDistribution, Exponential, Weibull, XorShift64};
        const BOUND: f64 = 1e-13;
        let rel = |got: f64, want: f64| {
            if got == want {
                0.0
            } else {
                (got - want).abs() / want.abs()
            }
        };
        let ts: [f64; 12] = [
            0.0, 0.1, 0.5, 0.9, 1.0, 1.5, 3.0, 7.0, 15.0, 24.0, 36.0, 47.0,
        ];
        let mut rng = XorShift64::new(0x00D2_1F7E);
        let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        for case in 0..400 {
            let (k1, lam1) = (uniform(0.5, 5.0), uniform(2.0, 40.0));
            let (k2, lam2) = (uniform(0.5, 5.0), uniform(2.0, 40.0));
            let (rate1, rate2) = (uniform(0.01, 0.5), uniform(0.01, 0.5));
            let beta = uniform(0.05, 1.0);
            let w1 = Weibull::new(k1, lam1).unwrap();
            let w2 = Weibull::new(k2, lam2).unwrap();
            let e1 = Exponential::new(rate1).unwrap();
            let e2 = Exponential::new(rate2).unwrap();
            let degradations: [(ComponentKind, Vec<f64>, &dyn ContinuousDistribution); 2] = [
                (ComponentKind::Exponential, vec![rate1], &e1),
                (ComponentKind::Weibull, vec![k1, lam1], &w1),
            ];
            let recoveries: [(ComponentKind, Vec<f64>, &dyn ContinuousDistribution); 2] = [
                (ComponentKind::Exponential, vec![rate2], &e2),
                (ComponentKind::Weibull, vec![k2, lam2], &w2),
            ];
            for (kind1, p1, d1) in &degradations {
                for (kind2, p2, d2) in &recoveries {
                    let m = MixtureModel::new(
                        *kind1,
                        p1.clone(),
                        *kind2,
                        p2.clone(),
                        Trend::Logarithmic,
                        beta,
                    )
                    .unwrap();
                    for &t in &ts {
                        let trend = if t <= 1.0 { 0.0 } else { beta * t.ln() };
                        let want = d1.survival(t) + trend * d2.cdf(t);
                        let r = rel(m.predict(t), want);
                        assert!(r <= BOUND, "case {case} {} t={t}: {r:e}", m.name());
                    }
                }
            }
            // CDF partials against the closed forms evaluated with `powf`.
            // Both forms share the partials' conditioning, so the relative
            // error is divided by it: `e^{−z}` turns an absolute error in
            // `z` into a relative one (factor `1 + z`), and `∂F/∂k`'s
            // `ln(t/λ)` cancels near `t = λ` (factor
            // `(|ln t| + |ln λ|) / |ln(t/λ)|`).
            let weibull = ComponentKind::Weibull.build(&[k1, lam1]).unwrap();
            let exponential = ComponentKind::Exponential.build(&[rate1]).unwrap();
            let mut g = [0.0; 2];
            for &t in &ts {
                let (dk, dlam, cond_k, cond_lam) = if t > 0.0 {
                    let r = t / lam1;
                    let z = r.powf(k1);
                    let damp = (-z).exp();
                    let cancel = (t.ln().abs() + lam1.ln().abs()) / r.ln().abs();
                    (
                        damp * z * r.ln(),
                        -damp * k1 * z / lam1,
                        (1.0 + z) * cancel.max(1.0),
                        1.0 + z,
                    )
                } else {
                    (0.0, 0.0, 1.0, 1.0)
                };
                weibull.cdf_gradient(t, t.ln(), &mut g);
                for (got, want, cond) in [(g[0], dk, cond_k), (g[1], dlam, cond_lam)] {
                    let r = rel(got, want) / cond;
                    assert!(r <= BOUND, "case {case} Weibull partial t={t}: {r:e}");
                }
                exponential.cdf_gradient(t, t.ln(), &mut g);
                let r = rel(g[0], t * (-rate1 * t).exp());
                assert!(r <= BOUND, "case {case} Exponential partial t={t}: {r:e}");
            }
        }
    }

    #[test]
    fn paper_combination_names() {
        let names: Vec<&str> = MixtureFamily::paper_combinations()
            .iter()
            .map(|f| f.name())
            .collect();
        assert_eq!(names, vec!["Exp-Exp", "Wei-Exp", "Exp-Wei", "Wei-Wei"]);
    }

    #[test]
    fn mixture_finite_and_continuous_across_t_one_for_all_trends() {
        // Regression for the log-trend t ≤ 1 clamp: the mixture P(t)
        // must stay finite everywhere and continuous across t = 1 for
        // every trend form (the clamp kinks the derivative, never the
        // value).
        for trend in Trend::ALL {
            let m = MixtureModel::new(
                ComponentKind::Weibull,
                vec![2.0, 15.0],
                ComponentKind::Exponential,
                vec![0.08],
                trend,
                0.30,
            )
            .unwrap();
            // Dense sweep over [0, 47] including fractional times.
            for i in 0..=470 {
                let t = i as f64 * 0.1;
                let v = m.predict(t);
                assert!(v.is_finite(), "{trend} at t = {t}: {v}");
            }
            // Continuity at t = 1: values an ε apart must be close.
            let eps = 1e-7;
            let below = m.predict(1.0 - eps);
            let at = m.predict(1.0);
            let above = m.predict(1.0 + eps);
            assert!(
                (at - below).abs() < 1e-5 && (above - at).abs() < 1e-5,
                "{trend}: P jumps across t = 1 ({below} / {at} / {above})"
            );
        }
    }

    #[test]
    fn exponential_trend_is_one_at_origin() {
        // With the exponential trend, P(0) = 1 + F₂(0) = 1 (F₂(0) = 0).
        let m = MixtureModel::new(
            ComponentKind::Exponential,
            vec![0.1],
            ComponentKind::Exponential,
            vec![0.05],
            Trend::Exponential,
            0.001,
        )
        .unwrap();
        assert!((m.predict(0.0) - 1.0).abs() < 1e-12);
    }
}
