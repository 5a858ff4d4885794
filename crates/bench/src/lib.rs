//! Shared experiment drivers for the reproduction harness.
//!
//! Each public function regenerates one table or figure of *Predictive
//! Resilience Modeling* (Silva et al., RWS 2022) and returns it as a
//! rendered text block. The `repro` binary prints them; the `bench`
//! binary runs the determinism and work gates ([`fleet`], [`obs_smoke`],
//! [`chaos`], and the shared [`harness`]) and writes their `BENCH_*.json`
//! baselines. Timings come from `perf`, the repository benchmark. DESIGN.md
//! §4 maps each experiment to the modules it exercises.

pub mod chaos;
pub mod fleet;
pub mod harness;
pub mod obs_smoke;

use resilience_core::analysis::{band_series, evaluate_model, metrics_comparison, ModelEvaluation};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::report::{fmt_metric, fmt_percent, Table};
use resilience_core::CoreError;
use resilience_data::recessions::Recession;
use resilience_data::scenario::ShapeKind;
use resilience_data::PerformanceSeries;

/// Confidence level used throughout the paper (95 % intervals).
pub const ALPHA: f64 = 0.05;

/// Eq. 21 weight used in the paper's Tables II and IV.
pub const METRIC_WEIGHT: f64 = 0.5;

/// Holdout horizon for the bathtub experiments (the paper fits the first
/// `n − 5` months; its Fig. 3 marks the boundary at t = 42 of 48).
#[must_use]
pub fn bathtub_holdout(series: &PerformanceSeries) -> usize {
    // 2020-21 has only 24 observations; hold out proportionally fewer.
    if series.len() >= 40 {
        5
    } else {
        3
    }
}

/// Holdout for the mixture experiments: the paper trains on 90 % of each
/// series.
#[must_use]
pub fn mixture_holdout(series: &PerformanceSeries) -> usize {
    let train = ((series.len() as f64) * 0.9).round() as usize;
    (series.len() - train).max(1)
}

/// Fig. 2 — the seven recession curves as aligned columns.
///
/// # Errors
///
/// Never fails on the embedded data; the `Result` accommodates future
/// user-supplied series.
pub fn fig2() -> Result<String, CoreError> {
    let curves: Vec<PerformanceSeries> = Recession::ALL
        .iter()
        .map(Recession::payroll_index)
        .collect();
    let mut headers = vec!["month".to_string()];
    headers.extend(curves.iter().map(|c| c.name().to_string()));
    let mut table = Table::new(headers);
    let max_len = curves.iter().map(PerformanceSeries::len).max().unwrap_or(0);
    for i in 0..max_len {
        let mut row = vec![i.to_string()];
        for c in &curves {
            row.push(if i < c.len() {
                format!("{:.4}", c.values()[i])
            } else {
                String::new()
            });
        }
        table.add_row(row);
    }
    Ok(format!(
        "Figure 2: Payroll change in U.S. recessions from peak employment\n\n{table}"
    ))
}

/// Evaluates the two bathtub families on one recession.
///
/// # Errors
///
/// Propagates fit/validation failures.
pub fn bathtub_evaluations(series: &PerformanceSeries) -> Result<Vec<ModelEvaluation>, CoreError> {
    let holdout = bathtub_holdout(series);
    Ok(vec![
        evaluate_model(&QuadraticFamily, series, holdout, ALPHA)?,
        evaluate_model(&CompetingRisksFamily, series, holdout, ALPHA)?,
    ])
}

/// Table I — validation of prediction using the two bathtub functions on
/// all seven recessions.
///
/// # Errors
///
/// Propagates fit/validation failures.
pub fn table1() -> Result<String, CoreError> {
    let mut table = Table::new(
        [
            "U.S. Recession",
            "n",
            "Measure",
            "Quadratic",
            "Competing Risks",
        ]
        .map(String::from)
        .to_vec(),
    );
    for recession in Recession::ALL {
        let series = recession.payroll_index();
        let evals = bathtub_evaluations(&series)?;
        let (q, cr) = (&evals[0].gof, &evals[1].gof);
        let rows: [(&str, String, String); 4] = [
            ("SSE", fmt_metric(q.sse), fmt_metric(cr.sse)),
            ("PMSE", fmt_metric(q.pmse), fmt_metric(cr.pmse)),
            ("r2_adj", fmt_metric(q.r2_adj), fmt_metric(cr.r2_adj)),
            ("EC", fmt_percent(q.ec), fmt_percent(cr.ec)),
        ];
        for (i, (measure, qv, crv)) in rows.into_iter().enumerate() {
            table.add_row(vec![
                if i == 0 {
                    recession.label().into()
                } else {
                    String::new()
                },
                if i == 0 {
                    series.len().to_string()
                } else {
                    String::new()
                },
                measure.to_string(),
                qv,
                crv,
            ]);
        }
    }
    Ok(format!(
        "Table I: Validation of prediction using two bathtub functions on data from seven U.S. recessions\n\n{table}"
    ))
}

/// Renders a fit-figure (observed, fitted, 95 % band) as a text series.
///
/// # Errors
///
/// Propagates fit/band failures.
pub fn fit_figure(
    title: &str,
    series: &PerformanceSeries,
    family: &dyn ModelFamily,
    holdout: usize,
) -> Result<String, CoreError> {
    let eval = evaluate_model(family, series, holdout, ALPHA)?;
    let band = band_series(&eval, series, ALPHA)?;
    let mut table = Table::new(
        ["t", "observed", "fitted", "ci_lower", "ci_upper", "inside"]
            .map(String::from)
            .to_vec(),
    );
    for (i, &t) in band.times.iter().enumerate() {
        let ci = &band.band[i];
        table.add_row(vec![
            format!("{t}"),
            format!("{:.5}", band.observed[i]),
            format!("{:.5}", band.predicted[i]),
            format!("{:.5}", ci.lower()),
            format!("{:.5}", ci.upper()),
            if ci.contains(band.observed[i]) {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    let train_boundary = series.times()[series.len() - holdout - 1];
    Ok(format!(
        "{title}\n(model: {}, training window ends at t = {train_boundary}, EC = {})\n\n{table}",
        eval.family_name,
        fmt_percent(eval.gof.ec)
    ))
}

/// Fig. 3 — quadratic model fit to the 2001-05 recession with 95 % CI.
///
/// # Errors
///
/// Propagates fit/band failures.
pub fn fig3() -> Result<String, CoreError> {
    let series = Recession::R2001_05.payroll_index();
    let holdout = bathtub_holdout(&series);
    fit_figure(
        "Figure 3: Quadratic model fit to 2001-05 U.S. recession data",
        &series,
        &QuadraticFamily,
        holdout,
    )
}

/// Fig. 4 — competing-risks model fit to the 1990-93 recession with 95 %
/// CI.
///
/// # Errors
///
/// Propagates fit/band failures.
pub fn fig4() -> Result<String, CoreError> {
    let series = Recession::R1990_93.payroll_index();
    let holdout = bathtub_holdout(&series);
    fit_figure(
        "Figure 4: Competing risks model fit to 1990-93 U.S. recession data",
        &series,
        &CompetingRisksFamily,
        holdout,
    )
}

fn metrics_table(
    title: &str,
    series: &PerformanceSeries,
    evals: Vec<ModelEvaluation>,
) -> Result<String, CoreError> {
    let mut headers = vec!["Metric".to_string(), "Actual".to_string()];
    for e in &evals {
        headers.push(e.family_name.to_string());
        headers.push(format!("δ ({})", e.family_name));
    }
    let rows = metrics_comparison(&evals, series, METRIC_WEIGHT)?;
    let mut table = Table::new(headers);
    for row in rows {
        let mut cells = vec![row.kind.label().to_string(), fmt_metric(row.actual)];
        for (_, predicted, delta) in &row.predictions {
            cells.push(fmt_metric(*predicted));
            cells.push(fmt_metric(*delta));
        }
        table.add_row(cells);
    }
    Ok(format!("{title}\n\n{table}"))
}

/// Table II — interval-based resilience metrics for the two bathtub
/// models on the 1990-93 recession.
///
/// # Errors
///
/// Propagates fit/metric failures.
pub fn table2() -> Result<String, CoreError> {
    let series = Recession::R1990_93.payroll_index();
    let evals = bathtub_evaluations(&series)?;
    metrics_table(
        "Table II: Interval-based resilience metrics using bathtub shaped functions and 1990-93 U.S. recession data (α = 0.5)",
        &series,
        evals,
    )
}

/// Evaluates the paper's four mixture combinations on one recession.
///
/// # Errors
///
/// Propagates fit/validation failures.
pub fn mixture_evaluations(series: &PerformanceSeries) -> Result<Vec<ModelEvaluation>, CoreError> {
    let holdout = mixture_holdout(series);
    MixtureFamily::paper_combinations()
        .iter()
        .map(|fam| evaluate_model(fam, series, holdout, ALPHA))
        .collect()
}

/// Table III — validation of prediction using mixture distributions on
/// all seven recessions.
///
/// # Errors
///
/// Propagates fit/validation failures.
pub fn table3() -> Result<String, CoreError> {
    let mut table = Table::new(
        [
            "U.S. Recession",
            "Measure",
            "Exp-Exp",
            "Wei-Exp",
            "Exp-Wei",
            "Wei-Wei",
        ]
        .map(String::from)
        .to_vec(),
    );
    for recession in Recession::ALL {
        let series = recession.payroll_index();
        let evals = mixture_evaluations(&series)?;
        type Extractor = Box<dyn Fn(&ModelEvaluation) -> String>;
        let measures: [(&str, Extractor); 4] = [
            ("SSE", Box::new(|e| fmt_metric(e.gof.sse))),
            ("PMSE", Box::new(|e| fmt_metric(e.gof.pmse))),
            ("r2_adj", Box::new(|e| fmt_metric(e.gof.r2_adj))),
            ("EC", Box::new(|e| fmt_percent(e.gof.ec))),
        ];
        for (i, (name, extract)) in measures.iter().enumerate() {
            let mut row = vec![
                if i == 0 {
                    recession.label().into()
                } else {
                    String::new()
                },
                (*name).to_string(),
            ];
            for e in &evals {
                row.push(extract(e));
            }
            table.add_row(row);
        }
    }
    Ok(format!(
        "Table III: Validation of prediction using mixture distributions on data from seven U.S. recessions (a2(t) = β·ln t)\n\n{table}"
    ))
}

/// Fig. 5 — Weibull-Exponential mixture fit to the 1990-93 recession.
///
/// # Errors
///
/// Propagates fit/band failures.
pub fn fig5() -> Result<String, CoreError> {
    let series = Recession::R1990_93.payroll_index();
    let holdout = mixture_holdout(&series);
    fit_figure(
        "Figure 5: Weibull-Exponential mixture fit to 1990-93 U.S. recession data",
        &series,
        &MixtureFamily::paper_combinations()[1],
        holdout,
    )
}

/// Fig. 6 — Exp-Wei and Wei-Wei mixture fits to the 1981-83 recession.
///
/// # Errors
///
/// Propagates fit/band failures.
pub fn fig6() -> Result<String, CoreError> {
    let series = Recession::R1981_83.payroll_index();
    let holdout = mixture_holdout(&series);
    let combos = MixtureFamily::paper_combinations();
    let exp_wei = fit_figure(
        "Figure 6a: Exponential-Weibull mixture fit to 1981-83 U.S. recession data",
        &series,
        &combos[2],
        holdout,
    )?;
    let wei_wei = fit_figure(
        "Figure 6b: Weibull-Weibull mixture fit to 1981-83 U.S. recession data",
        &series,
        &combos[3],
        holdout,
    )?;
    Ok(format!("{exp_wei}\n\n{wei_wei}"))
}

/// Table IV — interval-based resilience metrics for the four mixture
/// combinations on the 1990-93 recession.
///
/// # Errors
///
/// Propagates fit/metric failures.
pub fn table4() -> Result<String, CoreError> {
    let series = Recession::R1990_93.payroll_index();
    let evals = mixture_evaluations(&series)?;
    metrics_table(
        "Table IV: Interval-based resilience metrics using mixture distributions and 1990-93 U.S. recession data (α = 0.5)",
        &series,
        evals,
    )
}

/// Extension experiment — a controlled sweep over canonical V/U/W/L/J/K
/// shapes, fitting both bathtub families plus the quartic extension, to
/// reproduce the paper's conclusion (V/U fit, W/L/K break the two paper
/// families) and show the quartic recovering the W case.
///
/// # Errors
///
/// Propagates fit failures.
pub fn shape_sweep() -> Result<String, CoreError> {
    let mut table = Table::new(
        [
            "Shape",
            "Quadratic r2_adj",
            "Competing Risks r2_adj",
            "Quartic r2_adj",
        ]
        .map(String::from)
        .to_vec(),
    );
    for kind in ShapeKind::ALL {
        let series = kind.scenario(48, 42).generate(kind.to_string())?;
        let mut row = vec![kind.to_string()];
        for fam in [
            &QuadraticFamily as &dyn ModelFamily,
            &CompetingRisksFamily,
            &QuarticFamily,
        ] {
            let cell = match evaluate_model(fam, &series, 5, ALPHA) {
                Ok(e) => fmt_metric(e.gof.r2_adj),
                Err(_) => "fit failed".to_string(),
            };
            row.push(cell);
        }
        table.add_row(row);
    }
    Ok(format!(
        "Extension: adjusted R² of bathtub families (and the quartic extension) across canonical recession shapes\n\n{table}"
    ))
}

/// Extension experiment — ablation over the four recovery trends a₂(t)
/// for the Wei-Exp mixture on every recession.
///
/// # Errors
///
/// Propagates fit failures.
pub fn trend_ablation() -> Result<String, CoreError> {
    use resilience_core::mixture::{ComponentKind, Trend};
    let mut table = Table::new(
        ["U.S. Recession", "a2=β", "a2=βt", "a2=e^{βt}", "a2=β·ln t"]
            .map(String::from)
            .to_vec(),
    );
    for recession in Recession::ALL {
        let series = recession.payroll_index();
        let holdout = mixture_holdout(&series);
        let mut row = vec![recession.label().to_string()];
        for trend in Trend::ALL {
            let fam = MixtureFamily {
                f1: ComponentKind::Weibull,
                f2: ComponentKind::Exponential,
                trend,
            };
            let cell = match evaluate_model(&fam, &series, holdout, ALPHA) {
                Ok(e) => fmt_metric(e.gof.r2_adj),
                Err(_) => "fit failed".to_string(),
            };
            row.push(cell);
        }
        table.add_row(row);
    }
    Ok(format!(
        "Extension: Wei-Exp mixture adjusted R² under the four recovery trends of paper Eq. 7\n\n{table}"
    ))
}

/// Extension experiment — the W-shaped 1980 recession refit with the
/// [`resilience_core::extended::DoubleBathtubModel`]: the "additional
/// modeling effort" the paper's conclusion calls for.
///
/// # Errors
///
/// Propagates fit failures.
pub fn w_extension() -> Result<String, CoreError> {
    use resilience_core::extended::DoubleBathtubFamily;
    let series = Recession::R1980.payroll_index();
    let holdout = bathtub_holdout(&series);
    let mut table = Table::new(
        ["Model", "params", "SSE", "PMSE", "r2_adj", "EC"]
            .map(String::from)
            .to_vec(),
    );
    for fam in [
        &QuadraticFamily as &dyn ModelFamily,
        &CompetingRisksFamily,
        &DoubleBathtubFamily,
    ] {
        let e = evaluate_model(fam, &series, holdout, ALPHA)?;
        table.add_row(vec![
            e.family_name.to_string(),
            e.fit.params.len().to_string(),
            fmt_metric(e.gof.sse),
            fmt_metric(e.gof.pmse),
            fmt_metric(e.gof.r2_adj),
            fmt_percent(e.gof.ec),
        ]);
    }
    Ok(format!(
        "Extension: the W-shaped 1980 recession under the double-bathtub model\n\
         (the paper's families assume one degradation episode; the extension adds a delayed second episode)\n\n{table}"
    ))
}

/// Extension experiment — the L/K-shaped 2020-21 recession refit with the
/// [`resilience_core::extended::CrashRecoveryModel`].
///
/// # Errors
///
/// Propagates fit failures.
pub fn l_extension() -> Result<String, CoreError> {
    use resilience_core::extended::CrashRecoveryFamily;
    let series = Recession::R2020_21.payroll_index();
    let holdout = bathtub_holdout(&series);
    let mut table = Table::new(
        ["Model", "params", "SSE", "PMSE", "r2_adj", "EC"]
            .map(String::from)
            .to_vec(),
    );
    for fam in [
        &QuadraticFamily as &dyn ModelFamily,
        &CompetingRisksFamily,
        &CrashRecoveryFamily,
    ] {
        let e = evaluate_model(fam, &series, holdout, ALPHA)?;
        table.add_row(vec![
            e.family_name.to_string(),
            e.fit.params.len().to_string(),
            fmt_metric(e.gof.sse),
            fmt_metric(e.gof.pmse),
            fmt_metric(e.gof.r2_adj),
            fmt_percent(e.gof.ec),
        ]);
    }
    Ok(format!(
        "Extension: the L/K-shaped 2020-21 (COVID-19) recession under the crash-recovery model\n\
         (sudden crash + saturating partial recovery, with the asymptote free to sit below nominal)\n\n{table}"
    ))
}

/// Extension experiment — model selection across all candidate families
/// on each recession: AICc-ranked with BIC and adjusted R² shown.
///
/// # Errors
///
/// Propagates fit failures.
pub fn selection_table() -> Result<String, CoreError> {
    use resilience_core::extended::{CrashRecoveryFamily, DoubleBathtubFamily};
    use resilience_core::fit::FitConfig;
    use resilience_core::selection::rank_models;
    let mixtures = MixtureFamily::paper_combinations();
    let mut table = Table::new(
        [
            "U.S. Recession",
            "AICc rank",
            "Model",
            "k",
            "AICc",
            "BIC",
            "r2_adj",
        ]
        .map(String::from)
        .to_vec(),
    );
    for recession in Recession::ALL {
        let series = recession.payroll_index();
        let mut families: Vec<&dyn ModelFamily> = vec![
            &QuadraticFamily,
            &CompetingRisksFamily,
            &QuarticFamily,
            &DoubleBathtubFamily,
            &CrashRecoveryFamily,
        ];
        for fam in &mixtures {
            families.push(fam);
        }
        let ranking = rank_models(&families, &series, &FitConfig::default())?;
        for failure in &ranking.failures {
            table.add_row(vec![
                String::new(),
                "-".into(),
                failure.family_name.to_string(),
                "-".into(),
                format!("failed: {}", failure.reason),
                String::new(),
                String::new(),
            ]);
        }
        for (rank, row) in ranking.rows.iter().take(3).enumerate() {
            let (aicc, bic) = row
                .criteria
                .map(|c| (format!("{:.2}", c.aicc), format!("{:.2}", c.bic)))
                .unwrap_or_else(|| ("-inf".into(), "-inf".into()));
            table.add_row(vec![
                if rank == 0 {
                    recession.label().into()
                } else {
                    String::new()
                },
                (rank + 1).to_string(),
                row.family_name.to_string(),
                row.n_params.to_string(),
                aicc,
                bic,
                fmt_metric(row.r2_adj),
            ]);
        }
    }
    Ok(format!(
        "Extension: AICc model ranking (top 3) across all candidate families per recession\n\n{table}"
    ))
}

/// Extension experiment — normal-theory (Eq. 13) band vs residual
/// bootstrap prediction band on the 1990-93 data.
///
/// # Errors
///
/// Propagates fit/bootstrap failures.
pub fn bootstrap_comparison() -> Result<String, CoreError> {
    use resilience_core::bootstrap::{bootstrap_band, BootstrapConfig};
    use resilience_core::fit::FitConfig;
    let series = Recession::R1990_93.payroll_index();
    let eval = evaluate_model(&QuadraticFamily, &series, bathtub_holdout(&series), ALPHA)?;
    let band = band_series(&eval, &series, ALPHA)?;
    let boot = bootstrap_band(
        &QuadraticFamily,
        &series,
        &FitConfig::default(),
        &BootstrapConfig::default(),
    )?;
    let normal_ec = eval.gof.ec;
    let boot_ec = boot.coverage(&series)?;
    let normal_width: f64 =
        band.band.iter().map(|ci| ci.width()).sum::<f64>() / band.band.len() as f64;
    let boot_width: f64 = boot
        .lower
        .iter()
        .zip(&boot.upper)
        .map(|(l, u)| u - l)
        .sum::<f64>()
        / boot.lower.len() as f64;
    let mut table = Table::new(
        ["Band", "mean width", "empirical coverage"]
            .map(String::from)
            .to_vec(),
    );
    table.add_row(vec![
        "Normal theory (Eq. 13)".into(),
        format!("{normal_width:.5}"),
        fmt_percent(normal_ec),
    ]);
    table.add_row(vec![
        format!("Residual bootstrap ({} replicates)", boot.replicates),
        format!("{boot_width:.5}"),
        fmt_percent(boot_ec),
    ]);
    Ok(format!(
        "Extension: 95% interval construction on 1990-93 (quadratic model)\n\n{table}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holdouts_match_paper_conventions() {
        let long = Recession::R1990_93.payroll_index();
        assert_eq!(bathtub_holdout(&long), 5);
        assert_eq!(mixture_holdout(&long), 5); // 48 − round(43.2)
        let short = Recession::R2020_21.payroll_index();
        assert_eq!(bathtub_holdout(&short), 3);
        assert_eq!(mixture_holdout(&short), 2); // 24 − round(21.6)
    }

    #[test]
    fn fig2_lists_all_recessions() {
        let out = fig2().unwrap();
        for r in Recession::ALL {
            assert!(out.contains(r.label()), "missing {r}");
        }
        assert!(out.lines().count() > 48);
    }
}
