//! Telemetry: the degraded-ranking scenario re-run under a recording
//! observer, aggregated into a per-family run report.
//!
//! Same pool as `degraded_ranking` — two healthy families, one whose
//! objective is pathologically slow (blows its 100 ms budget), one that
//! panics — but this time the run is observed: every solver run's totals,
//! retry, stop, and failure land in an in-memory event log, which the
//! [`RunReport`] aggregation turns into the table printed at the end.
//! The log is deterministic (logical clocks only, never wall-clock), so
//! apart from which families time out, re-running prints the same trace.
//!
//! ```sh
//! cargo run --release --example traced_ranking
//! # additionally write the raw event log, then aggregate it with obsctl:
//! EVENT_LOG_PATH=run.jsonl cargo run --release --example traced_ranking
//! cargo run --release -p resilience-bench --bin obsctl -- report run.jsonl
//! ```

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::FitConfig;
use resilience_core::model::{ModelFamily, ResilienceModel};
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy, RetryPolicy};
use resilience_core::CoreError;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_obs::{replay, Event, JsonlObserver, RecordingObserver, RunReport};
use resilience_optim::Parallelism;
use std::sync::Arc;
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

    let recorder = Arc::new(RecordingObserver::new());
    let control = Control::unbounded().observe(recorder.clone());

    println!(
        "traced supervised ranking on {series}: {} candidates, 100 ms budget per family\n",
        families.len()
    );
    let ranking = rank_models_supervised(&families, &series, &config, &policy, &control)?;
    let events = recorder.take();

    // A few raw events first — the report below is an aggregation of
    // exactly this stream.
    println!("event log: {} events; first spans:", events.len());
    for event in events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::FitStarted { .. }
                    | Event::FitFinished { .. }
                    | Event::FitFailed { .. }
                    | Event::RetryScheduled { .. }
                    | Event::Stop { .. }
                    | Event::WorkerPanic { .. }
            )
        })
        .take(12)
    {
        println!("  {}", event.to_json());
    }

    if let Ok(path) = std::env::var("EVENT_LOG_PATH") {
        let sink = JsonlObserver::create(std::path::Path::new(&path))?;
        replay(&events, &sink);
        drop(sink);
        println!("\nwrote the full event log to {path} (inspect with `obsctl report`)");
    }

    let report = RunReport::from_events(events);
    println!("\n{}", report.render_table());

    println!(
        "ranking degraded = {}; every failure above is also a typed row in the\n\
         ranking itself — the telemetry adds the how (retries, stops, iteration\n\
         counts), not the what.",
        ranking.degraded
    );
    Ok(())
}
