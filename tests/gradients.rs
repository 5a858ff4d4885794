//! Gradient checks for the analytic Jacobians (DESIGN.md §11).
//!
//! Every family that implements
//! [`ModelFamily::predict_jacobian_into`] is compared against central
//! differences of the full internal → external → predict chain at many
//! randomized (seeded) feasible internal points, so a sign slip or a
//! missing chain-rule factor in any hand-derived partial fails loudly
//! with the offending case in the message.

use resilience_core::bathtub::QuadraticFamily;
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_math::linalg::Matrix;
use resilience_stats::XorShift64;

const CASES: usize = 40;

/// Central-difference step: `eps^(1/3)` balances truncation against
/// round-off for second-order differences, scaled by `1 + |u|` so that
/// large coordinates get proportionally large steps.
fn fd_step(u: f64) -> f64 {
    f64::EPSILON.cbrt() * (1.0 + u.abs())
}

fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Evaluation grid: monthly samples over a three-year window, matching
/// the recession series' scale.
fn time_grid() -> Vec<f64> {
    (0..=36).map(f64::from).collect()
}

/// Predicts through the same chain the optimizer differentiates:
/// internal point → external parameters → curve values.
fn predict_internal(family: &dyn ModelFamily, internal: &[f64], ts: &[f64], out: &mut [f64]) {
    let n = family.n_params();
    let mut params = vec![0.0; n];
    family.internal_to_params_into(internal, &mut params);
    assert!(
        family.predict_params_into(&params, ts, out),
        "{}: infeasible at internal {internal:?}",
        family.name()
    );
}

/// Checks one family's analytic Jacobian against central differences at
/// `CASES` internal points drawn by `draw`.
fn check_family(family: &dyn ModelFamily, seed: u64, draw: impl Fn(&mut XorShift64) -> Vec<f64>) {
    let ts = time_grid();
    let n = family.n_params();
    let mut rng = XorShift64::new(seed);
    let mut params = vec![0.0; n];
    let mut jac = Matrix::zeros(ts.len(), n);
    let mut plus = vec![0.0; ts.len()];
    let mut minus = vec![0.0; ts.len()];

    for case in 0..CASES {
        let internal = draw(&mut rng);
        family.internal_to_params_into(&internal, &mut params);
        assert!(
            family.predict_jacobian_into(&internal, &params, &ts, &mut jac),
            "{}: no analytic Jacobian at case {case}",
            family.name()
        );

        for j in 0..n {
            let h = fd_step(internal[j]);
            let mut probe = internal.clone();
            probe[j] = internal[j] + h;
            predict_internal(family, &probe, &ts, &mut plus);
            probe[j] = internal[j] - h;
            predict_internal(family, &probe, &ts, &mut minus);

            for (i, &t) in ts.iter().enumerate() {
                let fd = (plus[i] - minus[i]) / (2.0 * h);
                let analytic = jac[(i, j)];
                let tol = 5e-6 * (1.0 + analytic.abs().max(fd.abs()));
                assert!(
                    (analytic - fd).abs() <= tol,
                    "{} case {case} ∂P/∂u{j} at t={t}: analytic {analytic} vs fd {fd} \
                     (internal {internal:?})",
                    family.name()
                );
            }
        }
    }
}

/// Quadratic internal points, kept away from the logistic clamp at
/// `σ(u1) ∈ [1e-9, 1 − 1e-9]` where the analytic derivative is
/// (correctly) zero but a finite difference straddles the kink.
fn quadratic_point(rng: &mut XorShift64) -> Vec<f64> {
    vec![
        uniform(rng, -2.0, 2.0),  // ln α
        uniform(rng, -4.0, 4.0),  // logit s
        uniform(rng, -8.0, -2.0), // ln γ
    ]
}

/// Mixture internal points: log of every positive parameter. Rates stay
/// in `[e^-4, 1]`, Weibull shapes in `[e^-0.5, e^1.2]`, scales in
/// `[1, e^3.5]`, and the trend's β in `[e^-2, e]`.
fn mixture_point(family: &MixtureFamily, rng: &mut XorShift64) -> Vec<f64> {
    let n = family.n_params();
    let mut u = Vec::with_capacity(n);
    for kind in [family.f1, family.f2] {
        match kind.n_params() {
            1 => u.push(uniform(rng, -4.0, 0.0)), // ln rate
            _ => {
                u.push(uniform(rng, -0.5, 1.2)); // ln shape
                u.push(uniform(rng, 0.0, 3.5)); // ln scale
            }
        }
    }
    u.push(uniform(rng, -2.0, 1.0)); // ln β
    u
}

#[test]
fn quadratic_jacobian_matches_central_differences() {
    check_family(&QuadraticFamily, 0xC0DE_0001, quadratic_point);
}

#[test]
fn all_four_paper_mixture_jacobians_match_central_differences() {
    for (k, family) in MixtureFamily::paper_combinations().into_iter().enumerate() {
        check_family(&family, 0xC0DE_0010 + k as u64, |rng| {
            mixture_point(&family, rng)
        });
    }
}
