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

/// What an optimum's zero `α` or `γ` is raised to, on the Quadratic's
/// boundary and on a face of the Competing Risks profile: positive, so its
/// logarithm is finite, and small enough that the Quadratic's `α·γ` stays
/// a normal number while the term it adds to the curve vanishes in
/// rounding.
const RAISED_ZERO: f64 = 1e-150;

/// Writes the monomial design `tʲ`, column `j` at
/// `columns[j·n .. (j + 1)·n]` for `j < columns.len() / n`, where
/// `n = ts.len()`: the columns of the polynomial families' linear
/// coefficients.
fn monomial_columns_into(ts: &[f64], columns: &mut [f64]) {
    let n = ts.len();
    for j in 0..columns.len() / n.max(1) {
        for (i, &t) in ts.iter().enumerate() {
            columns[j * n + i] = if j == 0 {
                1.0
            } else {
                columns[(j - 1) * n + i] * t
            };
        }
    }
}

/// The polynomial families' [`crate::ModelFamily::linear_design_into`]:
/// no nonlinear coordinate, a zero offset and the monomial columns. `false`
/// on a nonempty `nonlinear` or on lengths that disagree. It reads no
/// `ln t` table: an exact fit builds none.
fn polynomial_design_into(
    degree: usize,
    nonlinear: &[f64],
    ts: &[f64],
    offset: &mut [f64],
    columns: &mut [f64],
) -> bool {
    let n = ts.len();
    if !nonlinear.is_empty() || n == 0 || offset.len() != n || columns.len() != n * (degree + 1) {
        return false;
    }
    offset.fill(0.0);
    monomial_columns_into(ts, columns);
    true
}
