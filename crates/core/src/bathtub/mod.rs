//! Bathtub-shaped resilience models (paper §II-A).
//!
//! In reliability engineering a bathtub-shaped hazard first decreases
//! (infant mortality), bottoms out, then increases (wear-out). The paper
//! reuses that *shape* directly as a resilience curve: performance falls
//! from the nominal level, troughs, and recovers. Two parameterizations
//! are evaluated:
//!
//! * [`QuadraticModel`] — `P(t) = α + βt + γt²` (paper Eq. 1), bathtub-
//!   shaped iff `α, γ > 0` and `−2√(αγ) < β < 0`; recovery time and area
//!   under the curve have closed forms (Eq. 2–3).
//! * [`CompetingRisksModel`] — `P(t) = 2γt + α/(1+βt)` (the Hjorth
//!   competing-risks form behind Eq. 4), able to express increasing,
//!   decreasing, constant, and bathtub shapes; Eq. 5–6 give its recovery
//!   time and area.
//!
//! [`QuarticModel`] is a workspace extension (DESIGN.md §5): a degree-4
//! polynomial that *can* express the W-shaped double dips both paper
//! families fail on (its Table I, 1980 data).

mod competing_risks;
mod quadratic;
mod quartic;

pub use competing_risks::{CompetingRisksFamily, CompetingRisksModel};
pub use quadratic::{QuadraticFamily, QuadraticModel};
pub use quartic::{QuarticFamily, QuarticModel};

use crate::fit::sse_at;
use crate::model::{ExactOptimum, ModelFamily};
use resilience_math::linalg::{least_squares_qr, qr_factor, qr_solve};

/// What an optimum's zero `α` or `γ` is raised to, on the Quadratic's
/// boundary and on a face of the Competing Risks profile: positive, so its
/// logarithm is finite, and small enough that the Quadratic's `α·γ` stays
/// a normal number while the term it adds to the curve vanishes in
/// rounding.
const RAISED_ZERO: f64 = 1e-150;

/// The least-squares coefficients of the `k` design columns in `columns`
/// (column `j` at `columns[j·n .. (j + 1)·n]`, where `n = ys.len()`), by
/// Householder QR ([`least_squares_qr`], which overwrites `columns`):
/// Competing Risks' re-solve of its two columns at its optimal `β`, a
/// design used once. `None` where the lengths disagree, the design is rank
/// deficient or a result is not finite.
fn solve_linear_coefficients(ys: &[f64], columns: &mut [f64], k: usize) -> Option<Vec<f64>> {
    let mut solution = ys.to_vec();
    least_squares_qr(columns, &mut solution, k)?;
    solution.truncate(k);
    Some(solution)
}

/// The monomial columns `1, t, …, t^{k−1}` at fixed times, factored once by
/// Householder QR ([`qr_factor`]): the design of the Quadratic's and the
/// Quartic's exact fits, which [`Monomials::coefficients`] solves for each
/// set of values ([`qr_solve`]), as [`solve_linear_coefficients`] would
/// solve the columns themselves, bit for bit.
///
/// QR is backward stable column by column and exactly equivariant under
/// power-of-two column scaling, so the monomials `tʲ` need no rescaled
/// variable `u = t/T`: only the normal equations did, because they square
/// the condition number.
struct Monomials {
    /// The factorization of the `n × k` columns, then `R`'s diagonal.
    factors: Vec<f64>,
    k: usize,
}

impl Monomials {
    /// `None` on fewer than `k` distinct times, where the design is rank
    /// deficient.
    fn new(ts: &[f64], k: usize) -> Option<Monomials> {
        let n = ts.len();
        let mut factors = vec![0.0; (n + 1) * k];
        for j in 0..k {
            for (i, &t) in ts.iter().enumerate() {
                factors[j * n + i] = if j == 0 {
                    1.0
                } else {
                    factors[(j - 1) * n + i] * t
                };
            }
        }
        let (columns, diag) = factors.split_at_mut(n * k);
        qr_factor(columns, n, diag)?;
        Some(Monomials { factors, k })
    }

    /// The least-squares coefficients `c₀ … c_{k−1}` of the polynomial
    /// `Σⱼ cⱼ·tʲ` through `ys`, one value per time; `None` where the lengths
    /// disagree or a result is not finite.
    fn coefficients(&self, ys: &[f64]) -> Option<Vec<f64>> {
        let (columns, diag) = self.factors.split_at(self.factors.len() - self.k);
        let mut solution = ys.to_vec();
        qr_solve(columns, diag, &mut solution)?;
        solution.truncate(self.k);
        Some(solution)
    }
}

/// A solve's internal point as an exact fit
/// ([`crate::model::Design::optimum`]), scored with the fit's own
/// objective; `None` where that SSE is not finite, which rejects the
/// solve.
fn solved(
    family: &dyn ModelFamily,
    ts: &[f64],
    ys: &[f64],
    internal: Vec<f64>,
) -> Option<ExactOptimum> {
    let sse = sse_at(family, ts, ys, &internal);
    sse.is_finite().then_some(ExactOptimum {
        internal,
        sse,
        profile: None,
    })
}
