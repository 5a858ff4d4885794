//! Integration tests for the workspace extensions (DESIGN.md §5): the
//! W/L-capable models, model selection, the bootstrap band, and residual
//! diagnostics — each exercised end to end on the recession data.

use resilience_core::analysis::evaluate_model;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::{bootstrap_band, BootstrapBand, BootstrapConfig};
use resilience_core::diagnostics::residual_diagnostics;
use resilience_core::extended::{CrashRecoveryFamily, DoubleBathtubFamily};
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::mixture::{ComponentKind, MixtureFamily, Trend};
use resilience_core::model::ModelFamily;
use resilience_core::selection::{information_criteria, rank_models};
use resilience_data::recessions::Recession;
use resilience_optim::Parallelism;

/// The double-bathtub extension substantially improves the in-sample fit
/// on the W-shaped 1980 recession relative to both paper families.
#[test]
fn double_bathtub_recovers_w_shape() {
    let series = Recession::R1980.payroll_index();
    let single = evaluate_model(&CompetingRisksFamily, &series, 5, 0.05).unwrap();
    let double = evaluate_model(&DoubleBathtubFamily, &series, 5, 0.05).unwrap();
    assert!(
        double.gof.r2_adj > single.gof.r2_adj + 0.25,
        "double {} vs single {}",
        double.gof.r2_adj,
        single.gof.r2_adj
    );
    assert!(double.gof.sse < 0.6 * single.gof.sse);
}

/// The crash-recovery extension takes 2020-21 from unfittable to nearly
/// perfect.
#[test]
fn crash_recovery_recovers_l_shape() {
    let series = Recession::R2020_21.payroll_index();
    let bathtub = evaluate_model(&CompetingRisksFamily, &series, 3, 0.05).unwrap();
    let crash = evaluate_model(&CrashRecoveryFamily, &series, 3, 0.05).unwrap();
    assert!(bathtub.gof.r2_adj < 0.5);
    assert!(crash.gof.r2_adj > 0.95, "r2 = {}", crash.gof.r2_adj);
    // And its prediction over the held-out months is better too.
    assert!(crash.gof.pmse < bathtub.gof.pmse);
}

/// AICc ranking puts a structurally-matched family first on each
/// signature data set.
#[test]
fn selection_matches_structure_to_shape() {
    let families: Vec<&dyn ModelFamily> = vec![
        &QuadraticFamily,
        &CompetingRisksFamily,
        &DoubleBathtubFamily,
        &CrashRecoveryFamily,
    ];
    let config = FitConfig::default();

    let w = Recession::R1980.payroll_index();
    let rows = rank_models(&families, &w, &config).unwrap().rows;
    assert_eq!(
        rows[0].family_name, "Double Bathtub",
        "W shape should pick the two-episode model: {rows:?}"
    );

    let l = Recession::R2020_21.payroll_index();
    let rows = rank_models(&families, &l, &config).unwrap().rows;
    assert_eq!(
        rows[0].family_name, "Crash Recovery",
        "L shape should pick the crash model: {rows:?}"
    );
}

/// Information criteria are consistent with their definitions across a
/// real fit.
#[test]
fn information_criteria_track_fit_quality() {
    let series = Recession::R1990_93.payroll_index();
    let good = fit_least_squares(&CompetingRisksFamily, &series, &FitConfig::default()).unwrap();
    let bad_sse = good.sse * 100.0;
    let good_ic = information_criteria(good.sse, series.len(), 3).unwrap();
    let bad_ic = information_criteria(bad_sse, series.len(), 3).unwrap();
    assert!(good_ic.aic < bad_ic.aic);
    assert!(good_ic.bic < bad_ic.bic);
}

/// The bootstrap prediction band is deterministic, at least as wide as
/// needed to cover most data, and wider in the extrapolation region than
/// at the training start.
#[test]
fn bootstrap_band_end_to_end() {
    let series = Recession::R1990_93.payroll_index();
    let cfg = BootstrapConfig {
        replicates: 80,
        ..BootstrapConfig::default()
    };
    let band = bootstrap_band(&QuadraticFamily, &series, &FitConfig::default(), &cfg).unwrap();
    assert!(band.replicates >= 60);
    let coverage = band.coverage(&series).unwrap();
    assert!(coverage >= 0.8, "coverage = {coverage}");
}

/// The FNV-1a digest (offset 0xcbf29ce484222325, prime 0x100000001b3)
/// of a band's bounds: the little-endian bytes of each bound's bits,
/// `lower` then `upper`.
fn band_digest(band: &BootstrapBand) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for v in band.lower.iter().chain(&band.upper) {
        for b in v.to_bits().to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// The 60-replicate Wei-Wei band on the W-shaped 1980 curve: its
/// replicates' Nelder–Mead walks hit the refit's 800-iteration cap, so
/// the band moves with the cap (at 600 its bits differ). It is the same
/// at `Fixed(2)` as serially, and its bounds keep the [`band_digest`]
/// recorded when the base fit's starts began to race (DESIGN.md §11,
/// "Racing the starts"): the base fit stays in its flat-F₁ basin, but its
/// last bits moved.
#[test]
fn wei_wei_band_on_1980_keeps_the_refit_iteration_cap() {
    let wei_wei = MixtureFamily {
        f1: ComponentKind::Weibull,
        f2: ComponentKind::Weibull,
        trend: Trend::Logarithmic,
    };
    let series = Recession::R1980.payroll_index();
    let band = |parallelism| {
        let cfg = BootstrapConfig {
            replicates: 60,
            parallelism,
            ..BootstrapConfig::default()
        };
        bootstrap_band(&wei_wei, &series, &FitConfig::default(), &cfg).unwrap()
    };
    let serial = band(Parallelism::Serial);
    assert_eq!(band(Parallelism::Fixed(2)), serial);
    assert_eq!(serial.replicates, 60);
    let digest = band_digest(&serial);
    assert_eq!(digest, 0xdb04_dd83_04b3_6e2f, "digest {digest:#018x}");
}

/// The default 200-replicate band of each exact family on each of the 7
/// recessions: every replicate succeeds, and the bounds keep the
/// [`band_digest`] recorded at commit 587d147, before a band's replicates
/// shared one factored design, serially and at `Fixed(2)`. On 1990-93, 39
/// of the Quadratic's 200 replicates land on the bathtub cone's boundary.
#[test]
fn exact_family_bands_keep_their_digests() {
    let digests: [(&dyn ModelFamily, [u64; 7]); 3] = [
        (
            &QuadraticFamily,
            [
                0x6e78_5440_778e_70fd,
                0x14c5_1dde_3449_38af,
                0x9102_6dd6_786c_d1d9,
                0x694d_6971_a7fc_dea4,
                0xbde2_9474_7ce9_9da5,
                0x4dc6_40d7_aa05_2168,
                0x6019_2c1c_a414_dac8,
            ],
        ),
        (
            &QuarticFamily,
            [
                0x5a4a_08f3_7698_61c9,
                0x21de_36b4_2b4a_aa3f,
                0x1817_f289_d521_5e6d,
                0x3752_58f9_60f3_0ff4,
                0xb257_ea76_acb1_56dd,
                0x7329_b6f4_3e31_6f61,
                0xed8f_89f7_672f_640b,
            ],
        ),
        (
            &CompetingRisksFamily,
            [
                0x86e4_cb51_2455_aefd,
                0xb09a_7101_4732_31ea,
                0x54c7_ea0c_d26f_48c3,
                0x2521_4399_6c11_fd88,
                0xe095_653a_606e_ef9a,
                0xd78d_68f8_2fb8_9de5,
                0xd321_76b8_cca0_d7cf,
            ],
        ),
    ];
    for (family, want) in digests {
        for (recession, want) in Recession::ALL.into_iter().zip(want) {
            let series = recession.payroll_index();
            let band = |parallelism| {
                let cfg = BootstrapConfig {
                    parallelism,
                    ..BootstrapConfig::default()
                };
                bootstrap_band(family, &series, &FitConfig::default(), &cfg).unwrap()
            };
            let serial = band(Parallelism::Serial);
            let label = format!("{} {}", family.name(), recession.label());
            assert_eq!(band(Parallelism::Fixed(2)), serial, "{label}");
            assert_eq!((serial.replicates, serial.failed), (200, 0), "{label}");
            let digest = band_digest(&serial);
            assert_eq!(digest, want, "{label}: digest {digest:#018x}");
        }
    }
}

/// Residual diagnostics flag the W misfit that adjusted R² alone
/// understates, and clear the well-fit U case.
#[test]
fn diagnostics_separate_adequate_from_inadequate() {
    let config = FitConfig::default();

    let u = Recession::R1990_93.payroll_index();
    let u_fit = fit_least_squares(&CompetingRisksFamily, &u, &config).unwrap();
    let u_diag = residual_diagnostics(u_fit.model.as_ref(), &u).unwrap();

    let w = Recession::R1980.payroll_index();
    let w_fit = fit_least_squares(&CompetingRisksFamily, &w, &config).unwrap();
    let w_diag = residual_diagnostics(w_fit.model.as_ref(), &w).unwrap();

    assert!(
        w_diag.lag1_autocorrelation > u_diag.lag1_autocorrelation,
        "misfit must leave more residual structure: W {} vs U {}",
        w_diag.lag1_autocorrelation,
        u_diag.lag1_autocorrelation
    );
    assert!(!w_diag.looks_unstructured());
}

/// Point metrics computed from a fitted model approximate the observed
/// trough geometry on well-fit data.
#[test]
fn point_metrics_match_observed_trough() {
    use resilience_core::metrics::point_metrics;
    let series = Recession::R1990_93.payroll_index();
    let fit = fit_least_squares(&CompetingRisksFamily, &series, &FitConfig::default()).unwrap();
    let pm = point_metrics(fit.model.as_ref(), 0.0, 47.0).unwrap();
    let (t_obs, p_obs) = series.trough().unwrap();
    // The U-shaped curve has a nearly flat bottom, so the fitted trough
    // location is only weakly identified; allow a wide window.
    assert!(
        (pm.time_to_trough - t_obs).abs() <= 8.0,
        "model trough {} vs observed {}",
        pm.time_to_trough,
        t_obs
    );
    assert!((pm.robustness - p_obs / series.nominal()).abs() < 0.02);
    assert!(pm.rapidity > 0.0);
}
