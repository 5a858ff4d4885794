//! Graceful degradation: ranking a family pool that contains a
//! pathologically slow family and an outright buggy (panicking) one.
//!
//! Production model sweeps cannot assume every candidate family is
//! well-behaved. This example runs `rank_models_supervised` with a
//! per-family time budget over a pool where one family's objective is
//! slow enough to blow the budget and another panics. Both are converted
//! into typed failure rows; the healthy families rank normally and the
//! result is flagged `degraded` (DESIGN.md §9).
//!
//! ```sh
//! cargo run --release --example degraded_ranking
//! ```

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::FitConfig;
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy, RetryPolicy};
use resilience_core::CoreError;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_optim::Parallelism;
use std::time::Duration;

/// A constant-curve family whose every objective evaluation sleeps —
/// a stand-in for a family whose SSE surface is pathologically expensive.
struct GlacialFamily;

struct ConstantModel(f64);

impl ResilienceModel for ConstantModel {
    fn name(&self) -> &'static str {
        "Glacial"
    }
    fn params(&self) -> Vec<f64> {
        vec![self.0]
    }
    fn predict(&self, _t: f64) -> f64 {
        self.0
    }
}

impl ModelFamily for GlacialFamily {
    fn name(&self) -> &'static str {
        "Glacial"
    }
    fn n_params(&self) -> usize {
        1
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        out.copy_from_slice(internal);
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(params.to_vec())
    }
    fn predict_params_into(&self, params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
        std::thread::sleep(Duration::from_millis(25));
        out.fill(params[0]);
        true
    }
    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Ok(Box::new(ConstantModel(params[0])))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0]]
    }
}

/// A buggy family whose objective panics mid-fit.
struct BuggyFamily;

impl ModelFamily for BuggyFamily {
    fn name(&self) -> &'static str {
        "Buggy"
    }
    fn n_params(&self) -> usize {
        1
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        out.copy_from_slice(internal);
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(params.to_vec())
    }
    fn predict_params_into(&self, _params: &[f64], _ts: &[f64], _out: &mut [f64]) -> bool {
        panic!("unhandled edge case in Buggy::predict_params_into");
    }
    fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Err(CoreError::params("Buggy", "never buildable"))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0]]
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The injected panic is part of the demonstration; keep its default
    // backtrace spew out of the report.
    std::panic::set_hook(Box::new(|_| {}));

    let series = Recession::R1990_93.payroll_index();
    let glacial = GlacialFamily;
    let families: Vec<&dyn ModelFamily> = vec![
        &QuadraticFamily,
        &CompetingRisksFamily,
        &glacial,
        &BuggyFamily,
    ];

    let config = FitConfig {
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    let policy = ExecPolicy {
        family_budget: Some(Duration::from_millis(100)),
        retry: Some(RetryPolicy::default()),
        ..ExecPolicy::default()
    };

    println!(
        "supervised ranking on {series}: {} candidates, 100 ms budget per family\n",
        families.len()
    );
    let ranking =
        rank_models_supervised(&families, &series, &config, &policy, &Control::unbounded())?;

    println!(
        "{:16} {:>12} {:>10} {:>10}",
        "model", "SSE", "r2_adj", "AICc"
    );
    for row in &ranking.rows {
        let aicc = row
            .criteria
            .map(|c| format!("{:.1}", c.aicc))
            .unwrap_or_else(|| "-inf".into());
        println!(
            "{:16} {:>12.3e} {:>10.4} {:>10}",
            row.family_name, row.sse, row.r2_adj, aicc
        );
    }

    println!("\ndegradation report (degraded = {}):", ranking.degraded);
    for failure in &ranking.failures {
        println!(
            "  {:12} [{}] {}",
            failure.family_name, failure.kind, failure.reason
        );
    }
    println!(
        "\n{} of {} families survived; the ranking is usable but flagged, and every\n\
         loss is classified (timed out / panicked / error) for the report layer.",
        ranking.rows.len(),
        families.len()
    );
    Ok(())
}
