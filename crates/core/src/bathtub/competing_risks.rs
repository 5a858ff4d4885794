//! The competing-risks bathtub model (paper Eq. 4–6).

use super::RAISED_ZERO;
use crate::fit::sse_at;
use crate::guard::Violation;
use crate::model::{Design, ExactOptimum, ModelFamily, ProfileWork, ResilienceModel};
use crate::CoreError;
use resilience_data::PerformanceSeries;
use resilience_math::sum::CompensatedSum;
use resilience_optim::scalar::brent_min;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Competing-risks resilience curve `P(t) = 2γt + α/(1 + βt)` with
/// `α, β, γ > 0` — the Hjorth (1980) bathtub hazard adopted by the
/// paper's Eq. 4.
///
/// The decreasing Pareto-like term `α/(1+βt)` models degradation easing
/// off while the linear term `2γt` models recovery taking over; the sum
/// can express increasing, decreasing, near-constant, and bathtub shapes,
/// which is why the paper finds it the more flexible of its two bathtub
/// forms.
///
/// # Examples
///
/// ```
/// use resilience_core::bathtub::CompetingRisksModel;
/// use resilience_core::ResilienceModel;
///
/// let m = CompetingRisksModel::new(1.0, 0.2, 0.005)?;
/// assert!((m.predict(0.0) - 1.0).abs() < 1e-12);   // P(0) = α
/// assert!(m.is_bathtub());
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompetingRisksModel {
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl CompetingRisksModel {
    /// Creates a competing-risks model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless all three
    /// parameters are finite and positive.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Result<Self, CoreError> {
        for (name, v) in [("α", alpha), ("β", beta), ("γ", gamma)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CoreError::params(
                    "CompetingRisks",
                    format!("need {name} > 0 and finite, got {v}"),
                ));
            }
        }
        Ok(CompetingRisksModel { alpha, beta, gamma })
    }

    /// The initial level `α = P(0)`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The degradation decay rate `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Half the recovery slope `γ` (the linear term is `2γt`).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Whether the curve is bathtub-shaped (initially decreasing):
    /// `P'(0) = 2γ − αβ < 0`.
    #[must_use]
    pub fn is_bathtub(&self) -> bool {
        2.0 * self.gamma < self.alpha * self.beta
    }

    /// Closed-form trough location: `P'(t) = 2γ − αβ/(1+βt)² = 0` gives
    /// `t_d = (√(αβ/(2γ)) − 1)/β`, or 0 when the curve is monotone
    /// increasing.
    #[must_use]
    pub fn trough(&self) -> f64 {
        if !self.is_bathtub() {
            return 0.0;
        }
        ((self.alpha * self.beta / (2.0 * self.gamma)).sqrt() - 1.0) / self.beta
    }

    /// Minimum performance `P(t_d)`.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        self.predict_inner(self.trough())
    }

    /// Closed-form recovery time (paper Eq. 5): the post-trough time at
    /// which `P(t) = level`, i.e. the larger root of
    /// `2βγ·t² + (2γ − level·β)·t + (α − level) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSolution`] when `level` is below the curve
    /// minimum.
    pub fn recovery_time(&self, level: f64) -> Result<f64, CoreError> {
        let (a, b, g) = (self.alpha, self.beta, self.gamma);
        // Discriminant of the quadratic above — identical to Eq. 5's
        // β²L² + 4βγL − 8αβγ + 4γ².
        let disc = b * b * level * level + 4.0 * b * g * level - 8.0 * a * b * g + 4.0 * g * g;
        if disc < 0.0 {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::recovery_time",
                format!(
                    "level {level} is below the curve minimum {}",
                    self.minimum()
                ),
            ));
        }
        let t = (level * b - 2.0 * g + disc.sqrt()) / (4.0 * b * g);
        if t < 0.0 {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::recovery_time",
                format!("recovery root {t} is negative"),
            ));
        }
        Ok(t)
    }

    fn predict_inner(&self, t: f64) -> f64 {
        2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t)
    }

    /// Allocation-free mirror of the `new` constraints, used by the
    /// fitting hot path.
    fn feasible(alpha: f64, beta: f64, gamma: f64) -> bool {
        alpha > 0.0
            && alpha.is_finite()
            && beta > 0.0
            && beta.is_finite()
            && gamma > 0.0
            && gamma.is_finite()
    }

    /// Antiderivative (paper Eq. 6): `γt² + (α/β)·ln(1+βt)`, with
    /// `ln(1+βt)` as `ln_1p(βt)`, which keeps its digits as `β → 0`, where
    /// the term tends to `αt`.
    fn antiderivative(&self, t: f64) -> f64 {
        self.gamma * t * t + (self.alpha / self.beta) * (self.beta * t).ln_1p()
    }
}

impl ResilienceModel for CompetingRisksModel {
    fn name(&self) -> &'static str {
        "Competing Risks"
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.beta, self.gamma]
    }

    fn predict(&self, t: f64) -> f64 {
        self.predict_inner(t)
    }

    fn predict_into(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(
            ts.len(),
            out.len(),
            "predict_into requires ts and out of equal length"
        );
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = 2.0 * self.gamma * t + self.alpha / (1.0 + self.beta * t);
        }
    }

    /// Closed-form area (paper Eq. 6) between the endpoints.
    fn area(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a <= b) || !a.is_finite() || !b.is_finite() {
            return Err(CoreError::arg(
                "CompetingRisksModel::area",
                format!("need finite a <= b, got [{a}, {b}]"),
            ));
        }
        if 1.0 + self.beta * a <= 0.0 {
            return Err(CoreError::arg(
                "CompetingRisksModel::area",
                format!("lower endpoint {a} is outside the model domain t > −1/β"),
            ));
        }
        Ok(self.antiderivative(b) - self.antiderivative(a))
    }

    fn trough_time(&self, a: f64, b: f64) -> Result<f64, CoreError> {
        if !(a < b) {
            return Err(CoreError::arg(
                "CompetingRisksModel::trough_time",
                format!("need a < b, got [{a}, {b}]"),
            ));
        }
        Ok(self.trough().clamp(a, b))
    }

    fn time_to_recover(&self, level: f64, from: f64, horizon: f64) -> Result<f64, CoreError> {
        let t = self.recovery_time(level)?;
        if t < from {
            return Ok(from);
        }
        if t > horizon {
            return Err(CoreError::no_solution(
                "CompetingRisksModel::time_to_recover",
                format!("recovery at t = {t} is beyond horizon {horizon}"),
            ));
        }
        Ok(t)
    }
}

/// The [`ModelFamily`] for [`CompetingRisksModel`].
///
/// Internal parameterization: `[ln α, ln β, ln γ]` (all-positive region).
/// A fit is one profile over `ln β` ([`ModelFamily::design`]), so
/// the family has no starting points.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompetingRisksFamily;

impl ModelFamily for CompetingRisksFamily {
    fn name(&self) -> &'static str {
        "Competing Risks"
    }

    fn n_params(&self) -> usize {
        3
    }

    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        assert_eq!(
            internal.len(),
            3,
            "CompetingRisksFamily expects 3 internal params"
        );
        assert_eq!(
            out.len(),
            3,
            "CompetingRisksFamily writes 3 external params"
        );
        for (o, v) in out.iter_mut().zip(internal) {
            *o = v.exp();
        }
    }

    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        if params.len() != 3 || !CompetingRisksModel::feasible(params[0], params[1], params[2]) {
            return false;
        }
        let model = CompetingRisksModel {
            alpha: params[0],
            beta: params[1],
            gamma: params[2],
        };
        model.predict_into(ts, out);
        true
    }

    /// The least-squares optimum over `α, γ ≥ 0` and `ln β`: the SSE
    /// profiled over `ln β` (α and γ by non-negative least squares) at 25
    /// nodes and the `β → 0` line, Brent in the bracket of each local
    /// minimum (DESIGN.md §11, "The Competing Risks profile"). Its point
    /// is the fit, whatever its SSE: a non-finite one fails the fit's
    /// guard. The design holds what the profile reads of the times alone:
    /// `T = max|t|`, the recovery column `u = t/T`, `Σu²`, the `ln β` of
    /// the `β → 0` candidate and the least time, and from its second fit on
    /// the decay columns at the candidate and the nodes, with their sums.
    /// Elsewhere the decay column is each evaluation's own.
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        Some(Arc::new(ProfileDesign::new(ts)))
    }

    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("CompetingRisks", "expected 3 parameters"));
        }
        CompetingRisksModel::new(params[0], params[1], params[2])?;
        Ok(params.iter().map(|v| v.ln()).collect())
    }

    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        if params.len() != 3 {
            return Err(CoreError::params("CompetingRisks", "expected 3 parameters"));
        }
        Ok(Box::new(CompetingRisksModel::new(
            params[0], params[1], params[2],
        )?))
    }

    /// None: every fit is the profile, which needs no starting point.
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        Vec::new()
    }
}

/// Competing Risks' exact fit at fixed times: [`profile_optimum`] of the
/// values at them, over the parts of the profile that depend on the times
/// alone, computed once.
struct ProfileDesign<'a> {
    ts: &'a [f64],
    /// `T = max|t|`, or 1 when every time is 0: the recovery column is
    /// `u = t/T`, as long as the decay column `1/(1+βt)` is at most 1.
    scale: f64,
    /// The recovery column `u = t/T`.
    u: Vec<f64>,
    /// `Σu²`, summed in index order.
    uu: f64,
    /// The `ln β` of the `β → 0` candidate, `β·T = 2⁻⁶⁰`.
    ln_beta_limit: f64,
    /// The least time: `1 + βt` is positive at every time when it is at
    /// this one, since it rounds monotonically in `t` for `β ≥ 0`.
    t_min: f64,
    /// The fits the design has served.
    fits: AtomicUsize,
    /// The decay columns at the profile's fixed points, built at the
    /// design's second fit: a design that serves one fit never holds them.
    table: OnceLock<NodeTable>,
}

impl<'a> ProfileDesign<'a> {
    fn new(ts: &'a [f64]) -> ProfileDesign<'a> {
        let scale = ts.iter().fold(0.0_f64, |m, t| m.max(t.abs()));
        let scale = if scale > 0.0 { scale } else { 1.0 };
        let u: Vec<f64> = ts.iter().map(|t| t / scale).collect();
        ProfileDesign {
            ts,
            scale,
            uu: u.iter().fold(0.0, |uu, u| uu + u * u),
            u,
            ln_beta_limit: (LIMIT_BETA_T / scale).ln(),
            t_min: ts.iter().fold(f64::INFINITY, |m, &t| m.min(t)),
            fits: AtomicUsize::new(0),
            table: OnceLock::new(),
        }
    }

    /// The `ln β` the profile scores first, whatever the values: the
    /// `β → 0` candidate, then the [`NODES`] nodes.
    fn fixed_points(&self) -> [f64; FIXED] {
        let step = (LN_BETA_MAX - LN_BETA_MIN) / (NODES - 1) as f64;
        std::array::from_fn(|k| match k {
            0 => self.ln_beta_limit,
            k => LN_BETA_MIN + step * (k - 1) as f64,
        })
    }

    /// Counts a fit, and gives it the node table from the design's second
    /// fit on, building it at the first fit that asks.
    fn table(&self) -> Option<&NodeTable> {
        (self.fits.fetch_add(1, Ordering::Relaxed) > 0)
            .then(|| self.table.get_or_init(|| NodeTable::new(self)))
    }

    /// Writes the decay column `1/(1+βt)` at `ln β` into `decay` and
    /// returns its sums `Σd²` and `Σd·u`, each summed in index order, or
    /// `None` (leaving `decay` as it was) where the curve is undefined,
    /// `1 + βt ≤ 0`.
    fn decay_into(&self, ln_beta: f64, decay: &mut [f64]) -> Option<Sums> {
        let beta = ln_beta.exp();
        if !(1.0 + beta * self.t_min > 0.0) {
            return None;
        }
        for (d, &t) in decay.iter_mut().zip(self.ts) {
            *d = 1.0 / (1.0 + beta * t);
        }
        let [mut dd, mut du] = [0.0; 2];
        for (&d, &u) in decay.iter().zip(&self.u) {
            dd += d * d;
            du += d * u;
        }
        Some(Sums { dd, du })
    }
}

impl Design for ProfileDesign<'_> {
    fn optimum(&self, ys: &[f64]) -> Option<Result<ExactOptimum, CoreError>> {
        Some(profile_optimum(self, ys))
    }
}

/// A decay column's sums that depend on the times alone.
#[derive(Debug, Clone, Copy)]
struct Sums {
    /// `Σd²`.
    dd: f64,
    /// `Σd·u`.
    du: f64,
}

/// The decay columns at the profile's [`FIXED`] fixed points
/// ([`ProfileDesign::fixed_points`]), one after another, and their sums,
/// each computed by [`ProfileDesign::decay_into`] as an evaluation computes
/// it: a fit that reads them scores every fixed point with the bits it
/// would compute.
struct NodeTable {
    columns: Vec<f64>,
    /// Each point's sums, or `None` where the curve is undefined.
    sums: [Option<Sums>; FIXED],
}

impl NodeTable {
    fn new(design: &ProfileDesign<'_>) -> NodeTable {
        let n = design.ts.len();
        let points = design.fixed_points();
        let mut columns = vec![0.0; FIXED * n];
        let sums =
            std::array::from_fn(|k| design.decay_into(points[k], &mut columns[k * n..(k + 1) * n]));
        NodeTable { columns, sums }
    }

    /// Fixed point `k`'s decay column and its sums.
    fn column(&self, k: usize) -> Option<(&[f64], Sums)> {
        let n = self.columns.len() / FIXED;
        self.sums[k].map(|sums| (&self.columns[k * n..(k + 1) * n], sums))
    }
}

/// The profile's `ln β` nodes: [`NODES`] evenly spaced over
/// `[LN_BETA_MIN, LN_BETA_MAX]`, 2 apart. Poisson-outage series can hold
/// their optimum in a dip of the profile narrower than 4 in `ln β`, which
/// nodes 4 apart step over.
const LN_BETA_MIN: f64 = -40.0;
const LN_BETA_MAX: f64 = 8.0;
const NODES: usize = 25;

/// The profile's fixed points: the `β → 0` candidate and the nodes.
const FIXED: usize = NODES + 1;

/// Brent's relative tolerance on `ln β` in each bracket, and its iteration
/// cap (a bracket 4 wide needs about 45 golden-section steps).
const BRENT_TOL: f64 = 1e-10;
const BRENT_MAX_ITERATIONS: usize = 200;

/// How far below each neighbour, relative to its own SSE, a node must lie
/// to start a Brent search: in the `β → 0` tail the profile is flat to
/// rounding, whose wiggles would otherwise start searches of some 40
/// evaluations each there, where the `β → 0` candidate already stands.
const FLAT: f64 = 1e-12;

/// `β·max|t|` at the `β → 0` candidate: small enough that `1 + βt` rounds
/// to 1 at every time, so the curve is the line `α + 2γt` exactly, and far
/// from underflow.
const LIMIT_BETA_T: f64 = 1.0 / (1u64 << 60) as f64;

/// Competing Risks' least-squares optimum over `α, γ ≥ 0` and `ln β`
/// (DESIGN.md §11, "The Competing Risks profile"): the internal point
/// `[ln α, ln β, ln γ]`, its SSE under the fit's objective, and the
/// profile's work (its evaluations, its Brent iterations and its least
/// profiled SSE).
///
/// The curve is linear in `α` and `γ`, so the fit is one-dimensional in
/// `ln β`. [`Profile::eval`] scores an `ln β` by a two-column non-negative
/// least squares. The profile scores the `β → 0` limit (the line
/// `α + 2γt`, at `β = 2⁻⁶⁰/max|t|`), then [`NODES`] nodes over
/// `[−40, 8]` (these [`FIXED`] points from the design's [`NodeTable`] from
/// its second fit on), then runs Brent in the bracket of every node that lies below
/// each of its neighbours by more than [`FLAT`] of its SSE (unless an SSE
/// of 0 has been scored), and keeps the least SSE it scored, the first on
/// a tie.
/// When both winning coefficients are positive they are solved again by
/// the polynomial families' Householder QR
/// ([`super::solve_linear_coefficients`]), and kept when both stay
/// positive; a zero one is raised to [`RAISED_ZERO`], which the internal
/// map can take the logarithm of.
///
/// # Errors
///
/// [`CoreError::Numerical`] when no point of the profile is finite.
fn profile_optimum(design: &ProfileDesign<'_>, ys: &[f64]) -> Result<ExactOptimum, CoreError> {
    let profile = Profile::new(design, ys);
    let points = design.fixed_points();
    let values: [f64; FIXED] = std::array::from_fn(|k| profile.fixed(k, points[k]));
    let (nodes, values) = (&points[1..], &values[1..]);
    let mut iterations = 0;
    for i in 0..NODES {
        let (lo, hi) = (i.saturating_sub(1), (i + 1).min(NODES - 1));
        let below = |j: usize| j == i || values[i] < values[j] - FLAT * values[i];
        // A zero SSE (data the curve reproduces) leaves nothing to search
        // for, and the profile around it is rounding alone.
        if below(lo) && below(hi) && profile.best.get().sse > 0.0 {
            iterations += brent_min(
                |ln_beta| profile.eval(ln_beta),
                nodes[lo],
                nodes[hi],
                BRENT_TOL,
                BRENT_MAX_ITERATIONS,
            )
            .map_or(BRENT_MAX_ITERATIONS, |m| m.iterations);
        }
    }

    let (best, evaluations) = (profile.best.get(), profile.evaluations.get());
    // Its scratch goes before the re-solve's columns come.
    drop(profile);
    if !best.sse.is_finite() {
        return Err(CoreError::guard(
            "fit_least_squares",
            Violation::NonFiniteOutput,
            "no point of the Competing Risks profile has a finite SSE",
        ));
    }
    let beta = best.ln_beta.exp();
    let mut alpha = best.alpha;
    let mut gamma = best.slope / (2.0 * design.scale);
    let ts = design.ts;
    if alpha > 0.0 && gamma > 0.0 {
        let n = ts.len();
        let mut columns = vec![0.0; 2 * n];
        for (i, &t) in ts.iter().enumerate() {
            columns[i] = 1.0 / (1.0 + beta * t);
            columns[n + i] = 2.0 * t;
        }
        if let Some(&[a, g]) = super::solve_linear_coefficients(ys, &mut columns, 2).as_deref() {
            if a > 0.0 && g > 0.0 {
                (alpha, gamma) = (a, g);
            }
        }
    }
    let internal = vec![
        alpha.max(RAISED_ZERO).ln(),
        best.ln_beta,
        gamma.max(RAISED_ZERO).ln(),
    ];
    Ok(ExactOptimum {
        sse: sse_at(&CompetingRisksFamily, ts, ys, &internal),
        internal,
        profile: Some(ProfileWork {
            evaluations,
            iterations,
            value: best.sse,
        }),
    })
}

/// The least profiled SSE scored so far, where, and its coefficients.
#[derive(Debug, Clone, Copy)]
struct Best {
    sse: f64,
    ln_beta: f64,
    alpha: f64,
    /// The coefficient of `t/T`: `γ = slope/(2T)`.
    slope: f64,
}

/// Competing Risks' SSE profiled over `ln β`: at each `ln β`, `α` and `γ`
/// by a two-column non-negative least squares over the decay column and
/// the design's recovery column. Owns its scratch, so an evaluation
/// allocates nothing; counts its evaluations and keeps the best one.
struct Profile<'a> {
    design: &'a ProfileDesign<'a>,
    ys: &'a [f64],
    /// The design's node table, when it has one for this fit.
    table: Option<&'a NodeTable>,
    /// `Σy·u`, summed in index order: it does not depend on `β`.
    yu: f64,
    /// The decay column of the current evaluation.
    decay: RefCell<Vec<f64>>,
    evaluations: Cell<usize>,
    best: Cell<Best>,
}

impl<'a> Profile<'a> {
    fn new(design: &'a ProfileDesign<'a>, ys: &'a [f64]) -> Self {
        Profile {
            design,
            ys,
            table: design.table(),
            yu: design.u.iter().zip(ys).fold(0.0, |yu, (&u, &y)| yu + y * u),
            decay: RefCell::new(vec![0.0; design.ts.len()]),
            evaluations: Cell::new(0),
            best: Cell::new(Best {
                sse: f64::INFINITY,
                ln_beta: f64::NAN,
                alpha: f64::NAN,
                slope: f64::NAN,
            }),
        }
    }

    /// [`Profile::eval`] at fixed point `k`, `ln β`, from the design's node
    /// table when the fit has one.
    fn fixed(&self, k: usize, ln_beta: f64) -> f64 {
        match self.table {
            Some(table) => self.score(ln_beta, table.column(k)),
            None => self.eval(ln_beta),
        }
    }

    /// The least SSE over `α, γ ≥ 0` at `ln β`, or `+∞` where the curve is
    /// undefined (`1 + βt ≤ 0`) or the SSE is not finite.
    fn eval(&self, ln_beta: f64) -> f64 {
        let mut decay = self.decay.borrow_mut();
        let sums = self.design.decay_into(ln_beta, &mut decay);
        self.score(ln_beta, sums.map(|sums| (&decay[..], sums)))
    }

    /// Scores `ln β` over its decay column and the column's sums, `None`
    /// where the curve is undefined: `Σy·d`, the coefficients, and the SSE,
    /// summed over the residuals, compensated, not read off the normal
    /// equations, so that it keeps its digits near zero.
    fn score(&self, ln_beta: f64, column: Option<(&[f64], Sums)>) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        let Some((decay, Sums { dd, du })) = column else {
            return f64::INFINITY;
        };
        let (u, uu) = (&self.design.u, self.design.uu);
        let yd = decay
            .iter()
            .zip(self.ys)
            .fold(0.0, |yd, (&d, &y)| yd + y * d);
        let (alpha, slope) = nnls(dd, du, uu, yd, self.yu);
        let mut sse = CompensatedSum::new();
        for ((&d, &u), &y) in decay.iter().zip(u).zip(self.ys) {
            let r = y - alpha * d - slope * u;
            sse.add(r * r);
        }
        let sse = sse.value();
        if !sse.is_finite() {
            return f64::INFINITY;
        }
        if sse < self.best.get().sse {
            self.best.set(Best {
                sse,
                ln_beta,
                alpha,
                slope,
            });
        }
        sse
    }
}

/// The non-negative least-squares coefficients of two columns `d` and `u`
/// from their normal equations (`dd = ⟨d, d⟩`, `du = ⟨d, u⟩`, …): both
/// columns when their coefficients are non-negative, else the one column
/// that removes more of `Σy²`, at a non-negative coefficient. A pair whose
/// Gram determinant is below `1e-12` of `dd·uu` counts as collinear.
fn nnls(dd: f64, du: f64, uu: f64, yd: f64, yu: f64) -> (f64, f64) {
    let det = dd * uu - du * du;
    if det > 1e-12 * dd * uu {
        let (a, c) = ((yd * uu - yu * du) / det, (dd * yu - du * yd) / det);
        if a >= 0.0 && c >= 0.0 {
            return (a, c);
        }
    }
    let one = |y: f64, s: f64| if s > 0.0 { (y / s).max(0.0) } else { 0.0 };
    let (a, c) = (one(yd, dd), one(yu, uu));
    if a * yd >= c * yu {
        (a, 0.0)
    } else {
        (0.0, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CompetingRisksModel {
        // Bathtub: αβ = 0.2 > 2γ = 0.01.
        CompetingRisksModel::new(1.0, 0.2, 0.005).unwrap()
    }

    #[test]
    fn constructor_requires_positive_parameters() {
        assert!(CompetingRisksModel::new(0.0, 0.1, 0.1).is_err());
        assert!(CompetingRisksModel::new(1.0, -0.1, 0.1).is_err());
        assert!(CompetingRisksModel::new(1.0, 0.1, 0.0).is_err());
        assert!(CompetingRisksModel::new(f64::NAN, 0.1, 0.1).is_err());
    }

    #[test]
    fn predict_form() {
        let m = model();
        for &t in &[0.0, 1.0, 10.0, 47.0] {
            let want = 2.0 * 0.005 * t + 1.0 / (1.0 + 0.2 * t);
            assert!((m.predict(t) - want).abs() < 1e-15);
        }
        assert_eq!(m.predict(0.0), 1.0);
    }

    #[test]
    fn bathtub_detection_and_trough() {
        let m = model();
        assert!(m.is_bathtub());
        // t_d = (√(αβ/2γ) − 1)/β = (√20 − 1)/0.2.
        let want = (20f64.sqrt() - 1.0) / 0.2;
        assert!((m.trough() - want).abs() < 1e-10);
        // Verify it's a genuine minimum.
        let td = m.trough();
        assert!(m.predict(td) < m.predict(td - 1.0));
        assert!(m.predict(td) < m.predict(td + 1.0));
        // Monotone case: 2γ >= αβ.
        let mono = CompetingRisksModel::new(1.0, 0.01, 0.1).unwrap();
        assert!(!mono.is_bathtub());
        assert_eq!(mono.trough(), 0.0);
    }

    #[test]
    fn recovery_time_closed_form_eq5() {
        let m = model();
        let level = 0.9;
        let t = m.recovery_time(level).unwrap();
        assert!(t > m.trough(), "recovery is after the trough");
        assert!(
            (m.predict(t) - level).abs() < 1e-10,
            "P({t}) = {}",
            m.predict(t)
        );
        // Unreachable level.
        assert!(m.recovery_time(0.1).is_err());
    }

    #[test]
    fn area_closed_form_eq6_matches_quadrature() {
        let m = model();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-12, 40)
                .unwrap();
        assert!((analytic - numeric).abs() < 1e-8);
        assert!(m.area(5.0, 1.0).is_err());
    }

    #[test]
    fn time_to_recover_window_logic() {
        let m = model();
        let t = m.recovery_time(0.95).unwrap();
        assert!((m.time_to_recover(0.95, 0.0, 100.0).unwrap() - t).abs() < 1e-12);
        assert_eq!(m.time_to_recover(0.95, t + 5.0, 100.0).unwrap(), t + 5.0);
        assert!(m.time_to_recover(0.95, 0.0, t - 1.0).is_err());
    }

    #[test]
    fn family_roundtrip() {
        let fam = CompetingRisksFamily;
        let params = vec![1.03, 0.17, 0.0042];
        let internal = fam.params_to_internal(&params).unwrap();
        let back = fam.internal_to_params(&internal);
        for (a, b) in params.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(fam.params_to_internal(&[1.0, -0.1, 0.1]).is_err());
    }

    #[test]
    fn family_internal_always_feasible() {
        let fam = CompetingRisksFamily;
        for &a in &[-10.0, 0.0, 5.0] {
            let p = fam.internal_to_params(&[a, -a, a / 2.0]);
            assert!(CompetingRisksModel::new(p[0], p[1], p[2]).is_ok());
        }
    }

    /// Eq. 6 keeps its digits as `β → 0`: against adaptive Simpson at
    /// every `β`, and against the limit `αt + γt²` where `βT` is below
    /// 1e-12, where the two differ by less than `βT/2` relative.
    #[test]
    fn area_keeps_its_digits_as_beta_vanishes() {
        let (alpha, gamma, end) = (0.97, 0.0004, 48.0);
        for beta in [1e-3, 1e-12, 1e-17, 1e-20] {
            let m = CompetingRisksModel::new(alpha, beta, gamma).unwrap();
            let area = m.area(0.0, end).unwrap();
            let simpson =
                resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, end, 1e-13, 50)
                    .unwrap();
            assert!(
                (area - simpson).abs() <= 1e-12 * simpson,
                "β = {beta:e}: {area} vs Simpson {simpson}"
            );
            if beta * end < 1e-12 {
                let limit = alpha * end + gamma * end * end;
                assert!(
                    (area - limit).abs() <= 1e-12 * limit,
                    "β = {beta:e}: {area} vs the limit {limit}"
                );
            }
        }
    }

    fn profile_fit(ys: &[f64]) -> (CompetingRisksModel, ProfileWork) {
        let ts: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let exact = CompetingRisksFamily
            .design(&ts)
            .expect("Competing Risks has a design")
            .optimum(ys)
            .expect("Competing Risks profiles")
            .unwrap();
        let p = CompetingRisksFamily.internal_to_params(&exact.internal);
        let model = CompetingRisksModel::new(p[0], p[1], p[2]).unwrap();
        (model, exact.profile.expect("a profile's work"))
    }

    #[test]
    fn profile_recovers_a_bathtub_and_counts_its_work() {
        let truth = model();
        let ys: Vec<f64> = (0..48).map(|i| truth.predict(f64::from(i))).collect();
        let (fit, report) = profile_fit(&ys);
        assert!(report.value < 1e-24, "{report:?}");
        for (got, want) in fit.params().iter().zip(truth.params()) {
            assert!((got - want).abs() <= 1e-6 * want, "{got} vs {want}");
        }
        // The limit and the nodes, then Brent, one evaluation per
        // iteration, in at least one bracket.
        assert!(report.iterations > 0);
        assert_eq!(report.evaluations, 1 + NODES + report.iterations);
    }

    /// Whether `v` is [`RAISED_ZERO`] through the internal map's `exp ∘ ln`.
    fn raised(v: f64) -> bool {
        (v / RAISED_ZERO - 1.0).abs() < 1e-12
    }

    #[test]
    fn profile_faces_and_the_line_limit_are_finite() {
        // A constant: the β → 0 line with γ = 0 reproduces it exactly.
        let (fit, report) = profile_fit(&[1.0; 32]);
        assert_eq!(report.value, 0.0);
        assert!(raised(fit.gamma()), "{fit:?}");
        assert!(fit.beta() * 31.0 < f64::EPSILON / 2.0, "{fit:?}");
        // A rising line: α + 2γt with both positive, at the β → 0 limit.
        let rising: Vec<f64> = (0..40).map(|i| 0.9 + 0.003 * f64::from(i)).collect();
        let (fit, report) = profile_fit(&rising);
        assert!(report.value < 1e-28, "{report:?}");
        assert!((fit.gamma() - 0.0015).abs() < 1e-12, "{fit:?}");
        // A falling line: γ = 0 on the face, the decay term alone.
        let falling: Vec<f64> = (0..40).map(|i| 1.0 - 0.002 * f64::from(i)).collect();
        let (fit, report) = profile_fit(&falling);
        assert!(report.value.is_finite());
        assert!(raised(fit.gamma()), "{fit:?}");
        // Data at or below zero: α = 0 on the other face.
        let (fit, _) = profile_fit(&[0.0; 8]);
        assert!(raised(fit.alpha()) && raised(fit.gamma()), "{fit:?}");
    }

    #[test]
    fn profile_with_no_finite_point_is_a_typed_error() {
        let ys: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 1e300 } else { -1e300 })
            .collect();
        let ts: Vec<f64> = (0..16).map(f64::from).collect();
        let design = CompetingRisksFamily.design(&ts).unwrap();
        let err = design.optimum(&ys).unwrap();
        assert!(matches!(err, Err(CoreError::Numerical { .. })), "{err:?}");
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let fam = CompetingRisksFamily;
        let internal = [0.01_f64, -1.6, -5.3];
        let mut params = [0.0; 3];
        fam.internal_to_params_into(&internal, &mut params);

        let ts = [0.0, 3.0, 11.0, 40.0];
        let mut out = [f64::NAN; 4];
        assert!(fam.predict_params_into(&params, &ts, &mut out));
        let model = fam.build(&params).unwrap();
        assert_eq!(out.to_vec(), model.predict_many(&ts));

        assert!(!fam.predict_params_into(&[1.0, -0.1, 0.1], &ts, &mut out));
        assert!(!fam.predict_params_into(&[1.0, 0.1], &ts, &mut out));
    }

    #[test]
    fn name_and_params() {
        let m = model();
        assert_eq!(m.name(), "Competing Risks");
        assert_eq!(m.params(), vec![1.0, 0.2, 0.005]);
    }
}
