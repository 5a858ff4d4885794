//! Property-style tests on the workspace's core invariants.
//!
//! Each property is exercised over many randomized cases drawn from a
//! seeded [`XorShift64`] stream, so failures are reproducible (the case
//! index and drawn values appear in the assertion message) and the suite
//! is hermetic — no proptest dependency.

use resilience_core::bathtub::{
    CompetingRisksFamily, CompetingRisksModel, QuadraticFamily, QuadraticModel,
};
use resilience_core::fit::{fit_least_squares_with, FitConfig};
use resilience_core::metrics::{actual_metric, MetricContext, MetricKind};
use resilience_core::mixture::{ComponentKind, MixtureModel, Trend};
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_data::csv::{read_series, write_series};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{Drift, EventProcess, Noise, Recovery, ScenarioSpec, Shock};
use resilience_data::{DataError, PerformanceSeries};
use resilience_obs::{
    intern, parse_line, parse_log, Event, FailureCode, RecordingObserver, RunReport, SpanTree,
    StopKind,
};
use resilience_optim::{Control, Parallelism};
use resilience_stats::{ContinuousDistribution, Exponential, Normal, Weibull, XorShift64};
use std::sync::Arc;

const CASES: usize = 200;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Vector of uniform draws with a random length in `[min_len, max_len)`.
fn uniform_vec(rng: &mut XorShift64, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.next_index(max_len - min_len);
    (0..len).map(|_| uniform(rng, lo, hi)).collect()
}

/// Feasible quadratic bathtub parameters (α, β, γ) via the same
/// (α, s, γ) construction the family uses.
fn quadratic_params(rng: &mut XorShift64) -> (f64, f64, f64) {
    let alpha = uniform(rng, 0.1, 10.0);
    let s = uniform(rng, 0.05, 0.95);
    let gamma = uniform(rng, 1e-6, 0.1);
    let beta = -2.0 * (alpha * gamma).sqrt() * s;
    (alpha, beta, gamma)
}

/// The quadratic trough formula matches a numerical minimum.
#[test]
fn quadratic_trough_is_a_minimum() {
    let mut rng = XorShift64::new(0xA001);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let t_d = m.trough();
        assert!(t_d > 0.0, "case {case}: ({alpha}, {beta}, {gamma})");
        let p_d = m.predict(t_d);
        assert!(m.predict(t_d - 0.1) >= p_d, "case {case}");
        assert!(m.predict(t_d + 0.1) >= p_d, "case {case}");
        assert!((m.minimum() - p_d).abs() < 1e-10, "case {case}");
    }
}

/// Eq. 2: the closed-form recovery time satisfies P(t_r) = level and
/// lies at/after the trough.
#[test]
fn quadratic_recovery_time_solves_curve() {
    let mut rng = XorShift64::new(0xA002);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let frac = uniform(&mut rng, 0.01, 0.99);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        // A level strictly between the minimum and the initial value.
        let level = m.minimum() + frac * (alpha - m.minimum());
        if level > m.minimum() {
            let t_r = m.recovery_time(level).unwrap();
            assert!(t_r >= m.trough() - 1e-9, "case {case}");
            assert!(
                (m.predict(t_r) - level).abs() < 1e-6 * (1.0 + level.abs()),
                "case {case}: ({alpha}, {beta}, {gamma}), frac {frac}"
            );
        }
    }
}

/// Eq. 3: the closed-form area equals numerical quadrature.
#[test]
fn quadratic_area_matches_quadrature() {
    let mut rng = XorShift64::new(0xA003);
    for case in 0..CASES {
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let span = uniform(&mut rng, 1.0, 100.0);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let analytic = m.area(0.0, span).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, span, 1e-10, 40)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Quadratic family: internal → external always lands in the bathtub
/// validity region, and the roundtrip is the identity.
#[test]
fn quadratic_family_transform_roundtrip() {
    let mut rng = XorShift64::new(0xA004);
    for case in 0..CASES {
        let a = uniform(&mut rng, -8.0, 4.0);
        let b = uniform(&mut rng, -12.0, 12.0);
        let c = uniform(&mut rng, -12.0, 2.0);
        let fam = QuadraticFamily;
        let params = fam.internal_to_params(&[a, b, c]);
        // Feasible by construction.
        assert!(
            QuadraticModel::new(params[0], params[1], params[2]).is_ok(),
            "case {case}: {params:?}"
        );
        let back = fam.params_to_internal(&params).unwrap();
        let again = fam.internal_to_params(&back);
        for (x, y) in params.iter().zip(&again) {
            assert!(
                (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                "case {case}: {params:?} vs {again:?}"
            );
        }
    }
}

/// Eq. 5/6: competing-risks closed forms match numerics for random
/// positive parameters.
#[test]
fn competing_risks_closed_forms() {
    let mut rng = XorShift64::new(0xA005);
    for case in 0..CASES {
        let alpha = uniform(&mut rng, 0.2, 5.0);
        let beta = uniform(&mut rng, 0.01, 2.0);
        let gamma = uniform(&mut rng, 1e-5, 0.05);
        let m = CompetingRisksModel::new(alpha, beta, gamma).unwrap();
        // Area (Eq. 6).
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-10, 40)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
        // Recovery time (Eq. 5) for a reachable level.
        let level = m.minimum() + 0.5 * (alpha - m.minimum()).abs() + 1e-6;
        if let Ok(t_r) = m.recovery_time(level) {
            assert!(
                (m.predict(t_r) - level).abs() < 1e-6 * (1.0 + level),
                "case {case}"
            );
        }
    }
}

/// Mixture models always start at the nominal level 1 for trends that
/// vanish (or equal 1) at t = 0.
#[test]
fn mixture_starts_at_nominal() {
    let mut rng = XorShift64::new(0xA006);
    for case in 0..CASES {
        let rate1 = uniform(&mut rng, 0.01, 2.0);
        let rate2 = uniform(&mut rng, 0.01, 2.0);
        let beta = uniform(&mut rng, 0.01, 2.0);
        for trend in [Trend::Logarithmic, Trend::Linear] {
            let m = MixtureModel::new(
                ComponentKind::Exponential,
                vec![rate1],
                ComponentKind::Exponential,
                vec![rate2],
                trend,
                beta,
            )
            .unwrap();
            assert!((m.predict(0.0) - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

/// Metric identities hold for arbitrary observed curves: preserved +
/// lost = nominal rectangle; normalized pair sums to 1; averages are
/// consistent with totals.
#[test]
fn metric_identities() {
    let mut rng = XorShift64::new(0xA007);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.5, 1.5, 12, 40);
        let series = PerformanceSeries::monthly("prop", values).unwrap();
        let n = series.len();
        let t_end = (n - 1) as f64;
        let (t_min, _) = series.trough().unwrap();
        // Keep t_min strictly interior for the weighted metric.
        let t_min = t_min.clamp(0.5, t_end - 0.5);
        let ctx = MetricContext {
            t_start: t_end - 4.0,
            t_end,
            nominal: series.value_at(t_end - 4.0).unwrap(),
            t_min,
            t_full_start: 0.0,
            weight: 0.5,
        }
        .validated()
        .unwrap();
        let preserved = actual_metric(&series, MetricKind::PerformancePreserved, &ctx).unwrap();
        let lost = actual_metric(&series, MetricKind::PerformanceLost, &ctx).unwrap();
        let rect = ctx.nominal * (ctx.t_end - ctx.t_start);
        assert!((preserved + lost - rect).abs() < 1e-9, "case {case}");
        let np = actual_metric(&series, MetricKind::NormalizedAveragePreserved, &ctx).unwrap();
        let nl = actual_metric(&series, MetricKind::NormalizedAverageLost, &ctx).unwrap();
        assert!((np + nl - 1.0).abs() < 1e-9, "case {case}");
        let avg = actual_metric(&series, MetricKind::AveragePreserved, &ctx).unwrap();
        assert!(
            (avg * (ctx.t_end - ctx.t_start) - preserved).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// CSV round trips arbitrary finite series exactly enough to be
/// indistinguishable (shortest-roundtrip float formatting).
#[test]
fn csv_roundtrip() {
    let mut rng = XorShift64::new(0xA008);
    for case in 0..CASES {
        let values = uniform_vec(&mut rng, 0.0, 10.0, 2, 50);
        let series = PerformanceSeries::monthly("rt", values).unwrap();
        let mut buf = Vec::new();
        write_series(&mut buf, &series).unwrap();
        let back = read_series(buf.as_slice(), "rt").unwrap();
        assert_eq!(series.values(), back.values(), "case {case}");
        assert_eq!(series.times(), back.times(), "case {case}");
    }
}

/// The normal quantile (the critical values' source) inverts its CDF
/// across random parameters.
#[test]
fn distribution_quantile_roundtrip() {
    let mut rng = XorShift64::new(0xA009);
    for case in 0..CASES {
        let mean = uniform(&mut rng, 0.3, 5.0);
        let sd = uniform(&mut rng, 0.1, 20.0);
        let p = uniform(&mut rng, 0.01, 0.99);
        let n = Normal::new(mean, sd).unwrap();
        let xn = n.quantile(p).unwrap();
        assert!((n.cdf(xn) - p).abs() < 1e-9, "case {case}");
    }
}

/// Survival + CDF = 1 over the support for all stats distributions used
/// by the mixture layer.
#[test]
fn survival_complements_cdf() {
    let mut rng = XorShift64::new(0xA00A);
    for case in 0..CASES {
        let x = uniform(&mut rng, 0.0, 50.0);
        let k = uniform(&mut rng, 0.5, 4.0);
        let lam = uniform(&mut rng, 0.2, 10.0);
        let w = Weibull::new(k, lam).unwrap();
        assert!(
            (w.cdf(x) + w.survival(x) - 1.0).abs() < 1e-10,
            "case {case}"
        );
        let e = Exponential::new(1.0 / lam).unwrap();
        assert!(
            (e.cdf(x) + e.survival(x) - 1.0).abs() < 1e-10,
            "case {case}"
        );
    }
}

/// Crash-recovery closed forms: continuity at the kink, recovery-time
/// inversion, and area vs quadrature, across random parameters.
#[test]
fn crash_recovery_closed_forms() {
    use resilience_core::extended::CrashRecoveryModel;
    let mut rng = XorShift64::new(0xA00B);
    for case in 0..CASES {
        let t_c = uniform(&mut rng, 0.5, 10.0);
        let p_min_share = uniform(&mut rng, 0.3, 0.95);
        let p_inf = uniform(&mut rng, 0.5, 1.2);
        let rate = uniform(&mut rng, 0.01, 1.0);
        let sharpness = uniform(&mut rng, 1.0, 8.0);
        let p_min = p_inf * p_min_share;
        let m = CrashRecoveryModel::new(t_c, p_min, p_inf, rate, sharpness).unwrap();
        // Continuity at the crash time.
        assert!(
            (m.predict(t_c - 1e-9) - m.predict(t_c + 1e-9)).abs() < 1e-6,
            "case {case}"
        );
        // Recovery-time inversion for a mid-level.
        let level = p_min + 0.5 * (p_inf - p_min);
        let t_r = m.recovery_time(level).unwrap();
        assert!((m.predict(t_r) - level).abs() < 1e-9, "case {case}");
        // Area against quadrature across the kink.
        let analytic = m.area(0.0, t_c + 20.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, t_c + 20.0, 1e-10, 44)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Double-bathtub closed-form area matches quadrature for random
/// parameters, including windows straddling the second-episode onset.
#[test]
fn double_bathtub_area() {
    use resilience_core::extended::DoubleBathtubModel;
    let mut rng = XorShift64::new(0xA00C);
    for case in 0..CASES {
        let alpha = uniform(&mut rng, 0.3, 3.0);
        let beta = uniform(&mut rng, 0.02, 1.0);
        let gamma = uniform(&mut rng, 1e-5, 0.02);
        let depth = uniform(&mut rng, 0.005, 0.1);
        let onset = uniform(&mut rng, 5.0, 30.0);
        let width = uniform(&mut rng, 2.0, 15.0);
        let m = DoubleBathtubModel::new(alpha, beta, gamma, depth, onset, width).unwrap();
        let analytic = m.area(0.0, 47.0).unwrap();
        let numeric =
            resilience_math::quad::adaptive_simpson(|t| m.predict(t), 0.0, 47.0, 1e-10, 44)
                .unwrap();
        assert!(
            (analytic - numeric).abs() < 1e-6 * (1.0 + analytic.abs()),
            "case {case}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

/// Nelder–Mead never returns a point worse than its starting point.
#[test]
fn nelder_mead_never_worsens() {
    use resilience_optim::nelder_mead::{NelderMead, NelderMeadConfig};
    use resilience_optim::Control;
    let mut rng = XorShift64::new(0xA00E);
    for case in 0..CASES {
        let x0 = uniform_vec(&mut rng, -5.0, 5.0, 1, 4);
        let shift = uniform(&mut rng, -3.0, 3.0);
        let f = move |p: &[f64]| p.iter().map(|x| (x - shift) * (x - shift)).sum::<f64>();
        let start_value = f(&x0);
        let report = NelderMead::new(NelderMeadConfig::default())
            .minimize(&f, &x0, &Control::unbounded())
            .unwrap();
        assert!(report.value <= start_value + 1e-12, "case {case}");
    }
}

/// Information criteria order models by SSE at fixed complexity.
#[test]
fn criteria_monotone_in_sse() {
    use resilience_core::selection::information_criteria;
    let mut rng = XorShift64::new(0xA00F);
    for case in 0..CASES {
        let sse1 = uniform(&mut rng, 1e-8, 1.0);
        let factor = uniform(&mut rng, 1.01, 100.0);
        let a = information_criteria(sse1, 48, 3).unwrap();
        let b = information_criteria(sse1 * factor, 48, 3).unwrap();
        assert!(a.aic < b.aic, "case {case}");
        assert!(a.aicc < b.aicc, "case {case}");
        assert!(a.bic < b.bic, "case {case}");
    }
}

/// Fitting noiseless quadratic data recovers parameters for random
/// feasible truths (an expensive case-count-limited property).
#[test]
fn fit_recovers_random_quadratic_truth() {
    let mut rng = XorShift64::new(0xA010);
    let mut tested = 0usize;
    for case in 0..64 {
        // Scale the curve into a plausible window so every truth is
        // identifiable from 40 monthly samples.
        let (alpha, beta, gamma) = quadratic_params(&mut rng);
        let m = QuadraticModel::new(alpha, beta, gamma).unwrap();
        let trough = m.trough();
        // Only test truths whose trough is inside the sampled window.
        if !(trough > 2.0 && trough < 35.0) {
            continue;
        }
        let values: Vec<f64> = (0..40).map(|i| m.predict(i as f64)).collect();
        if !values.iter().all(|v| *v > 0.0) {
            continue;
        }
        let series = PerformanceSeries::monthly("truth", values).unwrap();
        let fit = resilience_core::fit::fit_least_squares(
            &QuadraticFamily,
            &series,
            &resilience_core::fit::FitConfig::default(),
        )
        .unwrap();
        let ssy: f64 = series
            .values()
            .iter()
            .map(|v| (v - alpha) * (v - alpha))
            .sum();
        assert!(
            fit.sse < 1e-9 * (1.0 + ssy),
            "case {case}: sse = {}, truth ({alpha}, {beta}, {gamma})",
            fit.sse
        );
        tested += 1;
    }
    assert!(
        tested >= 10,
        "only {tested} feasible cases — widen the sampler"
    );
}

/// How far an exact fit's residual may lean on one of its design
/// columns, relative to `‖y‖·‖xⱼ‖`: rounding. The draws below reach
/// 1.3e-15 on the polynomial columns and 1.1e-15 on Competing Risks'
/// (whose coefficients are solved at the `β` its profile stopped at); on
/// a face, Competing Risks leans away from the column by 1.5e-6 or more.
const EXACT_SLACK: f64 = 1e-12;

/// `⟨r, x⟩ / (‖y‖·‖x‖)`: how far the residual `r` of a fit to `y` leans on
/// the design column `x`.
fn lean(r: &[f64], y: &[f64], x: &[f64]) -> f64 {
    let dot: f64 = r.iter().zip(x).map(|(a, b)| a * b).sum();
    let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
    dot / (norm(y) * norm(x))
}

/// The residual of `fit` on `series`.
fn residual(fit: &resilience_core::fit::FittedModel, series: &PerformanceSeries) -> Vec<f64> {
    series
        .iter()
        .map(|(t, y)| y - fit.model.predict(t))
        .collect()
}

/// How far a Quadratic fit on the bathtub cone's boundary may lean on a
/// bathtub direction, relative to `‖y‖·‖x‖`: the clamp of `s` to
/// `[1e-9, 1 − 1e-9]` moves the fit off the cone's optimum, and the draws
/// below lean up to 3.2e-10.
const CLAMPED_SLACK: f64 = 1e-8;

/// Whether a Quadratic fit sits at the clamp of `s = −β/(2√(αγ))`: on the
/// face `β = 0` (`s = 1e-9`) or the surface `β² = 4αγ` (`s = 1 − 1e-9`) of
/// the bathtub cone, moved to the nearest representable point.
fn at_the_clamp(params: &[f64]) -> bool {
    let s = -params[1] / (2.0 * (params[0] * params[2]).sqrt());
    s <= 1e-9 * (1.0 + 1e-6) || 1.0 - s <= 1e-9 * (1.0 + 1e-6)
}

/// The boundary half of the KKT certificate of a Quadratic fit: the
/// residual `r` leans on no direction that stays in the bathtub cone
/// `{α, γ ≥ 0, β ≤ 0, β² ≤ 4αγ}`. Those directions are generated by
/// `(t − ρ)²` for `ρ ≥ 0` and, as `ρ → ∞`, the constant `1`, so
/// `⟨r, (t − ρ)²⟩ ≤ 0` over a dense `ρ` grid and `⟨r, 1⟩ ≤ 0`; and `r` is
/// orthogonal to the fitted curve. Returns the largest lean seen.
fn bathtub_leans(fitted: &resilience_core::fit::FittedModel, series: &PerformanceSeries) -> f64 {
    let (ts, y) = (series.times(), series.values());
    let r = residual(fitted, series);
    let scale = ts[ts.len() - 1];
    let mut worst = lean(&r, y, &vec![1.0; ts.len()]);
    for i in 0..=480 {
        let rho = if i == 0 {
            0.0
        } else {
            scale * 10f64.powf(-6.0 + 12.0 * f64::from(i - 1) / 479.0)
        };
        let trough: Vec<f64> = ts.iter().map(|t| (t - rho) * (t - rho)).collect();
        worst = worst.max(lean(&r, y, &trough));
    }
    worst.max(lean(&r, y, &fitted.model.predict_many(ts)).abs())
}

/// The KKT certificate of a Competing Risks fit: its residual leans on
/// neither linear column, `1/(1+βt)` at the fit's own `β` and `2t`, by
/// more than [`EXACT_SLACK`], except that on a face of its profile's NNLS
/// (the coefficient is the raised zero, 1e-150) it may lean away from that
/// column: `⟨r, 2t⟩ ≤ slack` at `γ = 0`, `⟨r, 1/(1+βt)⟩ ≤ slack` at
/// `α = 0`. Returns whether `α` and `γ` sit on a face.
fn competing_risks_certificate(
    fit: &resilience_core::fit::FittedModel,
    series: &PerformanceSeries,
) -> [bool; 2] {
    let (ts, y) = (series.times(), series.values());
    let (alpha, beta, gamma) = (fit.params[0], fit.params[1], fit.params[2]);
    let r = residual(fit, series);
    let decay: Vec<f64> = ts.iter().map(|t| 1.0 / (1.0 + beta * t)).collect();
    let recovery: Vec<f64> = ts.iter().map(|t| 2.0 * t).collect();
    [(alpha, &decay, "α"), (gamma, &recovery, "γ")].map(|(coefficient, column, label)| {
        let lean = lean(&r, y, column);
        let face = coefficient < 1e-100;
        assert!(
            if face {
                lean <= EXACT_SLACK
            } else {
                lean.abs() <= EXACT_SLACK
            },
            "{}: Competing Risks ({label} = {coefficient:e}) leans {lean:e} on its {label} column",
            series.name()
        );
        face
    })
}

/// Seeded series from the scenario grammar — every grid scenario, every
/// noise level of the grids and a heavier one, n ∈ {32, 48, 96}, four
/// seeds: 480 draws. Every Quartic and every Quadratic fit is one solve.
/// A Quartic fit, and a Quadratic fit inside the bathtub region, leaves a
/// residual orthogonal to each design column (`1, t, …`), the interior
/// half of the KKT certificate: the normal equations hold to rounding. A
/// Quadratic fit at the clamp meets the boundary half ([`bathtub_leans`]),
/// so every Quadratic fit is the least-squares optimum over the closed
/// bathtub cone, up to the clamp. A Competing Risks fit meets the normal
/// equations on its `α` column `1/(1+βt)` at its own `β` and on its `γ`
/// column `2t`, except on a face of its profile's NNLS: where `γ` (or `α`)
/// is the raised zero, the residual may only lean away from that column
/// (KKT on the bound), `⟨r, 2t⟩ ≤ slack` (or `⟨r, 1/(1+βt)⟩ ≤ slack`).
#[test]
fn exact_fits_satisfy_the_normal_equations() {
    use resilience_core::bathtub::QuarticFamily;
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
    let mut rng = XorShift64::new(0xE4AC_7F17);
    let grid = ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
            NoiseLevel::Gaussian { sd: 0.01 },
        ],
        lengths: vec![32, 48, 96],
        seeds: (0..4).map(|_| rng.next_u64()).collect(),
    };
    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let fit = |family: &dyn ModelFamily, series: &PerformanceSeries| {
        fit_least_squares_with(family, series, &config, &Control::unbounded()).unwrap()
    };
    let (mut clamped, mut faces) = (0, 0);
    for cell in grid.cells() {
        let series = cell.generate().unwrap();
        let (ts, y) = (series.times(), series.values());
        let name = cell.series_name();
        let monomial = |j: i32| -> Vec<f64> { ts.iter().map(|t| t.powi(j)).collect() };

        let quartic = fit(&QuarticFamily, &series);
        assert_eq!(quartic.total_evaluations, 1, "{name}: Quartic searched");
        let quadratic = fit(&QuadraticFamily, &series);
        assert_eq!(quadratic.total_evaluations, 1, "{name}: Quadratic searched");
        let leans = bathtub_leans(&quadratic, &series);
        assert!(
            leans <= CLAMPED_SLACK,
            "{name}: Quadratic {:?} leans {leans:e} on a bathtub direction",
            quadratic.params
        );
        let mut polynomial = vec![(quartic, 4)];
        if at_the_clamp(&quadratic.params) {
            clamped += 1;
        } else {
            polynomial.push((quadratic, 2));
        }
        for (fitted, degree) in polynomial {
            let r = residual(&fitted, &series);
            for j in 0..=degree {
                let lean = lean(&r, y, &monomial(j));
                assert!(
                    lean.abs() <= EXACT_SLACK,
                    "{name}: {} leans {lean:e} on t^{j}",
                    fitted.model.name()
                );
            }
        }

        let cr = fit(&CompetingRisksFamily, &series);
        faces += competing_risks_certificate(&cr, &series)
            .into_iter()
            .filter(|&face| face)
            .count();
    }
    // Both halves of the Quadratic certificate, and both paths of Competing
    // Risks, were exercised.
    assert!(
        clamped > 0 && clamped <= grid.len() / 2,
        "{clamped} Quadratic fits at the clamp"
    );
    assert!(faces > 0 && faces < grid.len() / 4, "{faces} faces");
}

/// The SSE of the Quadratic `(α, s, γ)` moved to its nearest
/// representable point, as the fit's boundary solve moves it: `s` clamped
/// to `[1e-9, 1 − 1e-9]`, a zero `α` or `γ` raised to `1e-150`.
fn clamped_sse(series: &PerformanceSeries, alpha: f64, s: f64, gamma: f64) -> f64 {
    let s = s.clamp(1e-9, 1.0 - 1e-9);
    let internal = [
        alpha.max(1e-150).ln(),
        (s / (1.0 - s)).ln(),
        gamma.max(1e-150).ln(),
    ];
    let params = QuadraticFamily.internal_to_params(&internal);
    let model = QuadraticFamily.build(&params).expect("representable");
    resilience_core::validate::sse(model.as_ref(), series)
}

/// A reference for the Quadratic's boundary solve that shares none of its
/// algebra: the least clamped SSE over the face `β = 0` (NNLS over
/// `[1, t²]` by QR and its one-column faces) and over the surface
/// `P = γ(t − r)²`, searched on a 1 201-node grid of `ln(r/T)` over
/// `[ln 1e-6, ln 1e6]`, plus `r = 0`, with `brent_min` in the bracket of
/// every grid minimum.
fn reference_boundary_sse(series: &PerformanceSeries) -> f64 {
    use resilience_math::linalg::least_squares_qr;
    use resilience_optim::scalar::brent_min;
    let (ts, y) = (series.times(), series.values());
    let n = ts.len();
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, z)| x * z).sum::<f64>();
    let ones = vec![1.0; n];
    let squares: Vec<f64> = ts.iter().map(|t| t * t).collect();

    let mut faces = Vec::new();
    let mut columns: Vec<f64> = ones.iter().chain(&squares).copied().collect();
    let mut rhs = y.to_vec();
    if least_squares_qr(&mut columns, &mut rhs, 2).is_some() && rhs[0] >= 0.0 && rhs[1] >= 0.0 {
        faces.push((rhs[0], rhs[1]));
    }
    faces.push(((dot(y, &ones) / n as f64).max(0.0), 0.0));
    faces.push((0.0, (dot(y, &squares) / dot(&squares, &squares)).max(0.0)));
    let mut best = faces
        .iter()
        .map(|&(a, g)| clamped_sse(series, a, 1e-9, g))
        .fold(f64::INFINITY, f64::min);

    let curvature = |r: f64| {
        let trough: Vec<f64> = ts.iter().map(|t| (t - r) * (t - r)).collect();
        (dot(y, &trough) / dot(&trough, &trough)).max(0.0)
    };
    let surface = |r: f64| {
        let g = curvature(r);
        ts.iter()
            .zip(y)
            .map(|(t, v)| (v - g * (t - r) * (t - r)).powi(2))
            .sum::<f64>()
    };
    let scale = ts[n - 1];
    let nodes: Vec<f64> = (0..1201)
        .map(|i| (1e-6_f64).ln() + (1e12_f64).ln() * f64::from(i) / 1200.0)
        .collect();
    let values: Vec<f64> = nodes.iter().map(|x| surface(scale * x.exp())).collect();
    let mut troughs = vec![0.0];
    for i in 0..nodes.len() {
        let left = if i == 0 { f64::INFINITY } else { values[i - 1] };
        let right = values.get(i + 1).copied().unwrap_or(f64::INFINITY);
        if values[i] <= left && values[i] <= right {
            let lo = nodes[i.saturating_sub(1)];
            let hi = nodes[(i + 1).min(nodes.len() - 1)];
            let m = brent_min(|x| surface(scale * x.exp()), lo, hi, 1e-12, 500).unwrap();
            troughs.push(scale * m.x.exp());
        }
    }
    for r in troughs {
        let g = curvature(r);
        if g > 0.0 {
            best = best.min(clamped_sse(series, g * r * r, 1.0, g));
        }
    }
    best
}

/// The Quadratic's closed-form boundary solve (its stationarity quartic)
/// reaches the SSE of a dense trough search ([`reference_boundary_sse`])
/// within 1e-12 relative plus a rounding floor of 1e-13·‖y‖², either way
/// (the draws agree within 3.0e-14), on 240 seeded grid draws and on 200
/// bootstrap resamples of the 1990-93 Quadratic fit. Draws whose
/// unconstrained optimum is a bathtub check the boundary solve too: it is
/// the optimum over the boundary whatever the data. On the others the fit
/// is the boundary solve, bit for bit.
#[test]
fn boundary_solve_matches_a_dense_trough_search() {
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
    let mut rng = XorShift64::new(0xB0_7A7B);
    let grid = ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Uniform { amplitude: 0.002 },
            NoiseLevel::Gaussian { sd: 0.01 },
        ],
        lengths: vec![32, 48],
        seeds: (0..4).map(|_| rng.next_u64()).collect(),
    };
    let mut draws: Vec<PerformanceSeries> = grid.cells().map(|c| c.generate().unwrap()).collect();
    let base_series = Recession::R1990_93.payroll_index();
    let base = fit_least_squares_with(
        &QuadraticFamily,
        &base_series,
        &FitConfig::default(),
        &Control::unbounded(),
    )
    .unwrap();
    let fitted = base.model.predict_many(base_series.times());
    let residuals: Vec<f64> = base_series
        .values()
        .iter()
        .zip(&fitted)
        .map(|(v, f)| v - f)
        .collect();
    let n = base_series.len();
    for rep in 0..200 {
        let mut stream = XorShift64::stream(0x0B007, rep);
        let values = (0..n)
            .map(|i| fitted[i] + residuals[stream.next_index(n)])
            .collect();
        draws.push(
            PerformanceSeries::new("1990-93 resample", base_series.times().to_vec(), values)
                .unwrap(),
        );
    }
    let mut on_boundary = [0, 0];
    for (i, series) in draws.iter().enumerate() {
        let y = series.values();
        let internal = QuadraticFamily
            .boundary_optimum(series.times(), y)
            .expect("three or more times");
        let model = QuadraticFamily
            .build(&QuadraticFamily.internal_to_params(&internal))
            .unwrap();
        let closed = resilience_core::validate::sse(model.as_ref(), series);
        let reference = reference_boundary_sse(series);
        let floor = 1e-13 * y.iter().map(|v| v * v).sum::<f64>();
        let gap = (closed - reference).abs() - floor;
        assert!(
            gap <= 1e-12 * reference,
            "draw {i} ({}): closed form {closed:e}, reference {reference:e}",
            series.name()
        );
        let fit = fit_least_squares_with(
            &QuadraticFamily,
            series,
            &FitConfig::default(),
            &Control::unbounded(),
        )
        .unwrap();
        if at_the_clamp(&fit.params) {
            assert_eq!(fit.sse.to_bits(), closed.to_bits(), "draw {i}");
            on_boundary[usize::from(i >= 240)] += 1;
        }
    }
    // 92 grid draws and 39 resamples have no bathtub optimum.
    assert!(
        on_boundary[0] >= 40 && on_boundary[1] >= 20,
        "{on_boundary:?} boundary fits"
    );
}

/// The least SSE of `α·x₀ + γ·x₁` over `α, γ ≥ 0`, by enumerating the
/// active sets of the non-negative least squares: both columns (by their
/// 2×2 normal equations, kept when both coefficients come out
/// non-negative), each column alone (kept when its coefficient is
/// non-negative), and neither. Each SSE is summed over the residuals.
fn nnls_by_active_sets(y: &[f64], x0: &[f64], x1: &[f64]) -> f64 {
    let n = y.len();
    let sse = |a: f64, g: f64| -> f64 {
        let mut sum = 0.0;
        for i in 0..n {
            let r = y[i] - a * x0[i] - g * x1[i];
            sum += r * r;
        }
        sum
    };
    let [mut s00, mut s01, mut s11, mut y0, mut y1, mut yy] = [0.0; 6];
    for i in 0..n {
        s00 += x0[i] * x0[i];
        s01 += x0[i] * x1[i];
        s11 += x1[i] * x1[i];
        y0 += y[i] * x0[i];
        y1 += y[i] * x1[i];
        yy += y[i] * y[i];
    }
    // Neither column: the SSE is Σy².
    let mut best = yy;
    if s00 > 0.0 && y0 >= 0.0 {
        best = best.min(sse(y0 / s00, 0.0));
    }
    if s11 > 0.0 && y1 >= 0.0 {
        best = best.min(sse(0.0, y1 / s11));
    }
    let det = s00 * s11 - s01 * s01;
    let (a, g) = ((y0 * s11 - y1 * s01) / det, (s00 * y1 - s01 * y0) / det);
    if det > 0.0 && a >= 0.0 && g >= 0.0 {
        best = best.min(sse(a, g));
    }
    best
}

/// The least value of `profile` over `ln β ∈ [−40, 8]`: 1 001 nodes, and
/// `brent_min` in the bracket of every node no higher than its neighbours.
fn dense_ln_beta_minimum(profile: impl Fn(f64) -> f64) -> f64 {
    use resilience_optim::scalar::brent_min;
    let nodes: Vec<f64> = (0..1001)
        .map(|i| -40.0 + 48.0 * f64::from(i) / 1000.0)
        .collect();
    let values: Vec<f64> = nodes.iter().map(|&x| profile(x)).collect();
    let mut best = values.iter().copied().fold(f64::INFINITY, f64::min);
    for i in 0..nodes.len() {
        let (lo, hi) = (i.saturating_sub(1), (i + 1).min(nodes.len() - 1));
        if values[i] <= values[lo] && values[i] <= values[hi] && lo < hi {
            let m = brent_min(&profile, nodes[lo], nodes[hi], 1e-12, 500).unwrap();
            best = best.min(m.f_x);
        }
    }
    best
}

/// A reference for the Competing Risks profile that shares none of its
/// code: the least SSE over a dense `ln β` grid of the NNLS profile
/// ([`nnls_by_active_sets`]), and as explicit candidates the `β → 0` limit
/// (the line `α + 2γt` at `β = 0`), the face `γ = 0` (its own dense
/// profile, `α/(1+βt)` alone) and the face `α = 0` (the line `2γt`).
fn reference_competing_risks_sse(ts: &[f64], y: &[f64]) -> f64 {
    let recovery: Vec<f64> = ts.iter().map(|t| 2.0 * t).collect();
    let zeros = vec![0.0; ts.len()];
    let decay = std::cell::RefCell::new(zeros.clone());
    let with_decay = |ln_beta: f64, x1: &[f64]| {
        let beta = ln_beta.exp();
        let mut d = decay.borrow_mut();
        for (d, t) in d.iter_mut().zip(ts) {
            *d = 1.0 / (1.0 + beta * t);
        }
        nnls_by_active_sets(y, &d, x1)
    };
    let profile = dense_ln_beta_minimum(|x| with_decay(x, &recovery));
    let decay_face = dense_ln_beta_minimum(|x| with_decay(x, &zeros));
    let line = nnls_by_active_sets(y, &vec![1.0; ts.len()], &recovery);
    let recovery_face = nnls_by_active_sets(y, &zeros, &recovery);
    profile.min(decay_face).min(line).min(recovery_face)
}

/// Every Competing Risks fit reaches the SSE of the dense reference
/// ([`reference_competing_risks_sse`]) × (1 + 1e-9), plus a rounding floor
/// of 1e-24·‖y‖² for data the family reproduces, on the seven recessions,
/// their 42- and 45-point prefixes (of those that are longer), a seeded
/// sample of 40 grid cells, four Poisson-outage cells that hold their
/// optimum in a narrow dip, and two lines that put the optimum on each
/// face, and meets the face certificate ([`competing_risks_certificate`])
/// on both faces. The fits stay within 8.3e-14 relative of the
/// reference, and 10 of the 65 beat it.
#[test]
fn competing_risks_profile_matches_a_dense_reference() {
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
    let mut rng = XorShift64::new(0xC0_4E7E);
    let grid = ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![NoiseLevel::Clean, NoiseLevel::Gaussian { sd: 0.01 }],
        lengths: vec![32, 48],
        seeds: vec![rng.next_u64()],
    };
    let mut inputs: Vec<PerformanceSeries> = grid.cells().map(|c| c.generate().unwrap()).collect();
    for r in Recession::ALL {
        let series = r.payroll_index();
        for n in [42, 45].into_iter().filter(|&n| n < series.len()) {
            let prefix = series.values()[..n].to_vec();
            inputs
                .push(PerformanceSeries::monthly(format!("{}[..{n}]", r.label()), prefix).unwrap());
        }
        inputs.push(series);
    }
    // Two Poisson-outage cells whose optimum sits in a dip of the profile
    // narrower than 4 in ln β, between nodes 4 apart (7.8e-4 and 4.7e-5
    // above the reference there).
    let dips = ScenarioGrid {
        scenarios: vec![GridScenario::PoissonOutages],
        noises: vec![NoiseLevel::Clean, NoiseLevel::Gaussian { sd: 0.001 }],
        lengths: vec![32],
        seeds: vec![5_987_250_696_523_113_887, 17_631_520_177_611_387_716],
    };
    inputs.extend(dips.cells().map(|c| c.generate().unwrap()));
    let rising: Vec<f64> = (0..40).map(|i| 0.004 * f64::from(i)).collect();
    let falling: Vec<f64> = (0..40).map(|i| 1.0 - 0.002 * f64::from(i)).collect();
    inputs.push(PerformanceSeries::monthly("rising through 0", rising).unwrap());
    inputs.push(PerformanceSeries::monthly("falling", falling).unwrap());

    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let mut faces = [0, 0];
    for series in &inputs {
        let (ts, y) = (series.times(), series.values());
        let fit = fit_least_squares_with(
            &CompetingRisksFamily,
            series,
            &config,
            &Control::unbounded(),
        )
        .unwrap();
        let reference = reference_competing_risks_sse(ts, y);
        let floor = 1e-24 * y.iter().map(|v| v * v).sum::<f64>();
        assert!(
            fit.sse <= reference * (1.0 + 1e-9) + floor,
            "{}: Competing Risks SSE {:e} above the reference {reference:e}",
            series.name(),
            fit.sse
        );
        for (count, face) in faces
            .iter_mut()
            .zip(competing_risks_certificate(&fit, series))
        {
            *count += usize::from(face);
        }
    }
    assert!(faces[0] > 0 && faces[1] > 0, "faces α, γ: {faces:?}");
}

/// Real log lines: every event shape in the vocabulary, then the logs of
/// observed fits of the two bathtub families the fleet gates run
/// (Quadratic and Competing Risks) on the 1990–93 series.
fn real_log_lines() -> Vec<String> {
    let mut lines: Vec<String> = Event::examples().iter().map(Event::to_json).collect();
    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let families: [&dyn ModelFamily; 2] = [&QuadraticFamily, &CompetingRisksFamily];
    for family in families {
        let recorder = Arc::new(RecordingObserver::new());
        fit_least_squares_with(
            family,
            &Recession::R1990_93.payroll_index(),
            &config,
            &Control::unbounded().observe(recorder.clone()),
        )
        .expect("bathtub fit");
        lines.extend(recorder.take().iter().map(Event::to_json));
    }
    lines
}

/// Characters a mutation inserts: the JSON structure characters, digits,
/// and multi-byte chars of two, three and four bytes.
const INSERTED: [char; 9] = ['"', '\\', '{', '0', '7', '9', 'é', '→', '😀'];

/// One to three char-level edits: truncate, delete, duplicate, insert.
fn mutate(rng: &mut XorShift64, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..1 + rng.next_index(3) {
        let n = chars.len();
        match rng.next_index(4) {
            0 => chars.truncate(rng.next_index(n + 1)),
            1 if n > 0 => {
                chars.remove(rng.next_index(n));
            }
            2 if n > 0 => {
                let at = rng.next_index(n);
                chars.insert(at, chars[at]);
            }
            _ => {
                let c = INSERTED[rng.next_index(INSERTED.len())];
                chars.insert(rng.next_index(n + 1), c);
            }
        }
    }
    chars.into_iter().collect()
}

/// Runs `f` on `input`, failing the test with the input if it panics.
fn no_panic<T>(case: usize, input: &str, f: impl Fn(&str) -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(input)))
        .unwrap_or_else(|_| panic!("case {case}: panicked on {input:?}"))
}

/// Hostile input to the log reader: mutated real lines, alone and inside
/// a log. Nothing panics; a failure is a `ParseError` carrying the bad
/// line's 1-based number; a success survives encode → parse → encode, and
/// its span tree and run report build without a panic, the tree with no
/// more cells than the log has events.
#[test]
fn log_reader_survives_mutated_lines() {
    let lines = real_log_lines();
    let mut rng = XorShift64::new(0xA011);
    let mut accepted = 0;
    for case in 0..10_000 {
        let base = &lines[rng.next_index(lines.len())];
        let line = mutate(&mut rng, base);
        let alone = no_panic(case, &line, parse_line);
        if let Err(e) = &alone {
            assert_eq!(e.line, 0, "case {case}: a standalone line has no number");
        }

        // The mutated line at 1-based `at`, between real lines and blanks;
        // the log reader trims each line before parsing it.
        let before = rng.next_index(4);
        let mut text = String::new();
        let mut expected = Vec::new();
        for _ in 0..before {
            let good = &lines[rng.next_index(lines.len())];
            expected.push(good.clone());
            text.push_str(good);
            text.push('\n');
        }
        text.push('\n');
        let at = before + 2;
        text.push_str(&line);
        text.push_str("\n\n");
        let good = &lines[rng.next_index(lines.len())];
        text.push_str(good);

        let log = no_panic(case, &text, parse_log);
        if let Ok(events) = &log {
            let tree = no_panic(case, &text, |_| SpanTree::build(events));
            assert!(
                tree.cells.len() <= events.len(),
                "case {case}: {} cells from {} events in {text:?}",
                tree.cells.len(),
                events.len()
            );
            no_panic(case, &text, |_| {
                RunReport::from_events(events.iter().copied())
            });
        }
        let trimmed = line.trim();
        match (trimmed.is_empty(), parse_line(trimmed)) {
            (true, _) => {
                expected.push(good.clone());
                let reencoded: Vec<String> = log
                    .expect("blank lines are skipped")
                    .iter()
                    .map(Event::to_json)
                    .collect();
                assert_eq!(reencoded, expected, "case {case}");
            }
            (false, Err(e)) => {
                let err = log.expect_err("the bad line fails the log");
                assert_eq!(err.line, at, "case {case}: {line:?}");
                assert_eq!(err.message, e.message, "case {case}: {line:?}");
            }
            (false, Ok(event)) => {
                accepted += 1;
                let encoded = event.to_json();
                let again = parse_line(&encoded)
                    .unwrap_or_else(|e| panic!("case {case}: {encoded} does not reparse: {e}"));
                assert_eq!(again.to_json(), encoded, "case {case}: {line:?}");
                expected.push(encoded);
                expected.push(good.clone());
                let reencoded: Vec<String> = log
                    .unwrap_or_else(|e| panic!("case {case}: {e}"))
                    .iter()
                    .map(Event::to_json)
                    .collect();
                assert_eq!(reencoded, expected, "case {case}");
            }
        }
    }
    // Some mutations (a duplicated digit, an inserted one) keep the line
    // valid, so the success branch runs too.
    assert!(accepted > 100, "only {accepted} mutated lines parsed");
}

/// Hostile input to the CSV loader: `write_series` output mutated at
/// char level (so rows merge, split, lose or gain digits, commas and
/// multi-byte chars). Nothing panics; a failure is a typed parse or
/// series error, never I/O; a success keeps every non-header row, each
/// field equal to the stored number, and drops at most one header — the
/// first non-blank line, and only when neither of its fields is a number.
#[test]
fn csv_loader_survives_mutated_documents() {
    let mut rng = XorShift64::new(0xA012);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..3000 {
        let values = uniform_vec(&mut rng, 0.0, 2.0, 2, 12);
        let series = PerformanceSeries::monthly("fuzz", values).unwrap();
        let mut clean = Vec::new();
        write_series(&mut clean, &series).unwrap();
        let doc = mutate(&mut rng, std::str::from_utf8(&clean).unwrap());
        let rows: Vec<&str> = doc
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        match no_panic(case, &doc, |d| read_series(d.as_bytes(), "fuzz")) {
            Err(DataError::Parse { line, .. }) => {
                rejected += 1;
                assert!(
                    (1..=doc.lines().count()).contains(&line),
                    "case {case}: line {line} of {doc:?}"
                );
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    !matches!(e, DataError::Io(_)),
                    "case {case}: {e} on {doc:?}"
                );
            }
            Ok(back) => {
                accepted += 1;
                let headers = rows.len() - back.len();
                assert!(
                    headers <= 1,
                    "case {case}: {headers} rows dropped from {doc:?}"
                );
                let number = |field: &str| field.trim().parse::<f64>().ok();
                if headers == 1 {
                    let (a, b) = rows[0].split_once(',').unwrap();
                    assert!(
                        number(a).is_none() && number(b).is_none(),
                        "case {case}: data row {:?} taken for a header",
                        rows[0]
                    );
                }
                for (row, (t, v)) in rows[headers..].iter().zip(back.iter()) {
                    let (a, b) = row.split_once(',').unwrap();
                    assert_eq!(number(a), Some(t), "case {case}: {row:?}");
                    assert_eq!(number(b), Some(v), "case {case}: {row:?}");
                }
            }
        }
    }
    // Digit edits keep many documents loadable, so both branches run.
    assert!(accepted > 300, "only {accepted} mutated documents loaded");
    assert!(rejected > 300, "only {rejected} mutated documents rejected");
}

/// Values a hostile spec field draws from: signed zeros and ones,
/// subnormals, huge and infinite magnitudes, and NaN.
const HOSTILE: [f64; 13] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    5e-324,
    -5e-324,
    1e-310,
    1e300,
    -1e300,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// One spec field: a hostile value one time in four, otherwise an
/// ordinary one in `[lo, hi)`, so that valid specs are common too.
fn spec_field(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    if rng.next_index(4) == 0 {
        HOSTILE[rng.next_index(HOSTILE.len())]
    } else {
        uniform(rng, lo, hi)
    }
}

fn fuzz_recovery(rng: &mut XorShift64) -> Recovery {
    match rng.next_index(5) {
        0 => Recovery::Exponential {
            rate: spec_field(rng, 0.0, 1.0),
        },
        1 => Recovery::Smoothstep {
            duration: spec_field(rng, 0.0, 30.0),
        },
        2 => Recovery::Logistic {
            rate: spec_field(rng, 0.0, 2.0),
            midpoint: spec_field(rng, 0.0, 20.0),
        },
        3 => Recovery::Partial {
            fraction: spec_field(rng, 0.0, 1.0),
            rate: spec_field(rng, 0.0, 1.0),
        },
        _ => Recovery::None,
    }
}

fn fuzz_shock(rng: &mut XorShift64) -> Shock {
    match rng.next_index(4) {
        0 => Shock::Pulse {
            start: spec_field(rng, 0.0, 20.0),
            trough: spec_field(rng, 0.0, 40.0),
            depth: spec_field(rng, 0.0, 0.5),
            sharpness: spec_field(rng, 0.0, 3.0),
            recovery: fuzz_recovery(rng),
        },
        1 => Shock::Step {
            at: spec_field(rng, 0.0, 40.0),
            depth: spec_field(rng, 0.0, 0.5),
            recovery: fuzz_recovery(rng),
        },
        2 => Shock::Ramp {
            start: spec_field(rng, 0.0, 20.0),
            end: spec_field(rng, 0.0, 40.0),
            depth: spec_field(rng, 0.0, 0.5),
            recovery: fuzz_recovery(rng),
        },
        _ => Shock::Outage {
            at: spec_field(rng, 0.0, 40.0),
            restore_at: spec_field(rng, 0.0, 60.0),
            depth: spec_field(rng, 0.0, 0.5),
        },
    }
}

/// A spec covering every shock, recovery, noise, drift and event-process
/// variant, with hostile or ordinary fields and a hostile or usual length.
fn fuzz_spec(rng: &mut XorShift64) -> ScenarioSpec {
    const LENGTHS: [usize; 6] = [0, 3, 4, 5, 48, 200];
    const MAX_EVENTS: [usize; 4] = [0, 1, 7, EventProcess::DEFAULT_MAX_EVENTS];
    let n = LENGTHS[rng.next_index(LENGTHS.len())];
    let shocks = (0..rng.next_index(3)).map(|_| fuzz_shock(rng)).collect();
    let events = (rng.next_index(3) == 0).then(|| EventProcess {
        outage_rate: spec_field(rng, 0.0, 0.5),
        mean_restore: spec_field(rng, 0.0, 10.0),
        mean_depth: spec_field(rng, 0.0, 0.2),
        max_depth: spec_field(rng, 0.0, 0.5),
        seed: rng.next_u64(),
        max_events: MAX_EVENTS[rng.next_index(MAX_EVENTS.len())],
    });
    let drift = match rng.next_index(2) {
        0 => Drift::None,
        _ => Drift::Linear {
            total: spec_field(rng, -0.1, 0.1),
        },
    };
    let noise = match rng.next_index(3) {
        0 => Noise::None,
        1 => Noise::Gaussian {
            sd: spec_field(rng, 0.0, 0.01),
            seed: rng.next_u64(),
        },
        _ => Noise::Uniform {
            amplitude: spec_field(rng, 0.0, 0.01),
            seed: rng.next_u64(),
        },
    };
    let floor = (rng.next_index(2) == 0).then(|| spec_field(rng, -1.0, 1.0));
    ScenarioSpec {
        n,
        shocks,
        events,
        drift,
        noise,
        floor,
    }
}

/// Hostile scenario specs. Nothing panics; `Ok` is exactly `n` finite
/// values; a failure is a typed `InvalidSeries` error. Specs have no text
/// form, so there is no round trip to check.
#[test]
fn scenario_specs_survive_hostile_fields() {
    let mut rng = XorShift64::new(0xA013);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..10_000 {
        let spec = fuzz_spec(&mut rng);
        let generated =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.generate("fuzz")))
                .unwrap_or_else(|_| panic!("case {case}: generate panicked on {spec:?}"));
        match generated {
            Ok(series) => {
                accepted += 1;
                assert_eq!(series.len(), spec.n, "case {case}: {spec:?}");
                assert!(
                    series.values().iter().all(|v| v.is_finite()),
                    "case {case}: {spec:?}"
                );
            }
            Err(DataError::InvalidSeries { .. }) => rejected += 1,
            Err(e) => panic!("case {case}: untyped failure {e} on {spec:?}"),
        }
    }
    // Ordinary fields keep many specs valid, so both branches run.
    assert!(accepted > 500, "only {accepted} specs generated");
    assert!(rejected > 1000, "only {rejected} specs rejected");
}

/// A Competing Risks fit's bits, or its error's text.
type ProfileBits = Result<(Vec<u64>, u64, usize, usize, u64), String>;

/// Competing Risks' node table keeps every bit (DESIGN.md §11, "The
/// Competing Risks profile"): on one design, fit #1 computes every point
/// of the profile, #2 builds the table of the fixed points and reads it,
/// and #3 reads it, and the three give the same optimum to the bit: its
/// internal point, its SSE and its profile's work, or the same error. On
/// the 1 080 cells of the 360-cell grid's axes at seeds 42–53, and on
/// the 1 163 series the hostile specs of
/// `scenario_specs_survive_hostile_fields` generate, 80 of which have no
/// finite point of the profile.
#[test]
fn competing_risks_node_table_keeps_every_bit() {
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
    let grid = ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
        ],
        lengths: vec![32, 48, 96],
        seeds: (42..54).collect(),
    };
    let mut inputs: Vec<PerformanceSeries> = grid.cells().map(|c| c.generate().unwrap()).collect();
    assert_eq!(inputs.len(), 1_080);
    let mut rng = XorShift64::new(0xA013);
    for _ in 0..10_000 {
        if let Ok(series) = fuzz_spec(&mut rng).generate("fuzz") {
            inputs.push(series);
        }
    }
    assert!(inputs.len() > 1_580, "{} series", inputs.len());
    let mut failed = 0;
    for (case, series) in inputs.iter().enumerate() {
        let design = CompetingRisksFamily
            .design(series.times())
            .expect("Competing Risks has a design");
        let fit = || -> ProfileBits {
            let exact = design
                .optimum(series.values())
                .expect("Competing Risks profiles")
                .map_err(|e| e.to_string())?;
            let work = exact.profile.expect("a profile's work");
            Ok((
                exact.internal.iter().map(|v| v.to_bits()).collect(),
                exact.sse.to_bits(),
                work.evaluations,
                work.iterations,
                work.value.to_bits(),
            ))
        };
        let [first, second, third] = [fit(), fit(), fit()];
        failed += usize::from(first.is_err());
        assert!(
            second == first && third == first,
            "case {case}, {}: fits #1–#3 {first:?} / {second:?} / {third:?}",
            series.name()
        );
    }
    // Both outcomes are compared.
    assert!(
        failed > 0 && failed < inputs.len() / 10,
        "{failed} profiles failed"
    );
}

/// Family and scope names that need escaping, or that are multi-byte,
/// survive the round trip through one log line each.
#[test]
fn escaped_and_multibyte_names_round_trip() {
    let names = [
        "Comp\"Risks",
        "back\\slash",
        "two\nlines",
        "bell\u{7}",
        "Exponentielle é",
        "Exp→Wei",
        "Wei-Wei 🦀",
    ];
    let mut events = Vec::new();
    for name in names {
        let name = intern(name);
        events.push(Event::FitStarted {
            family: name,
            starts: 3,
        });
        events.push(Event::FitFailed {
            family: name,
            kind: FailureCode::Error,
        });
        events.push(Event::Stop {
            scope: name,
            kind: StopKind::Cancelled,
            evaluations: 4,
        });
        events.push(Event::WorkerPanic {
            scope: name,
            index: 1,
        });
    }
    let mut text = String::new();
    for event in &events {
        let line = event.to_json();
        assert!(!line.contains('\n'), "{line}: one line per event");
        assert_eq!(parse_line(&line), Ok(*event), "{line}");
        text.push_str(&line);
        text.push('\n');
    }
    assert_eq!(parse_log(&text), Ok(events));
}
