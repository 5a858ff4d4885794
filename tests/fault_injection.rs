//! Fault-injection harness: every deliberately corrupted input —
//! hostile CSV rows, NaN/Inf values, non-monotone times, empty held-out
//! suffixes, NaN-returning objectives — must flow through the full
//! pipeline as a structured error or a documented fallback. Zero
//! panics, zero silent NaN/Inf in any public API return.
//!
//! The fault vocabulary lives in `resilience_data::fault`; this harness
//! drives it through parsing, series construction, fitting, selection,
//! evaluation, and the bootstrap.

use resilience_core::analysis::{evaluate_model, evaluate_models};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::model::{Design, ExactOptimum, ModelFamily, ResilienceModel};
use resilience_core::runtime::{
    rank_fleet_supervised, rank_models_supervised, Control, ExecPolicy,
};
use resilience_core::selection::{rank_models, FailureKind, Ranking};
use resilience_core::validate::pmse_at;
use resilience_core::CoreError;
use resilience_data::csv::read_series;
use resilience_data::fault::{Fault, FaultError};
use resilience_data::recessions::Recession;
use resilience_data::scenario::catalog;
use resilience_data::PerformanceSeries;
use resilience_obs::{Event, RecordingObserver};
use resilience_optim::Parallelism;
use std::sync::{Arc, Mutex};

/// A family whose curve is NaN everywhere: the worst-case objective.
struct NanObjectiveFamily;

impl ModelFamily for NanObjectiveFamily {
    fn name(&self) -> &'static str {
        "NaN-objective"
    }
    fn n_params(&self) -> usize {
        2
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        out.copy_from_slice(internal);
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(params.to_vec())
    }
    fn predict_params_into(&self, _params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
        out.fill(f64::NAN);
        true
    }
    fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        struct NanModel;
        impl ResilienceModel for NanModel {
            fn name(&self) -> &'static str {
                "NaN-objective"
            }
            fn params(&self) -> Vec<f64> {
                vec![f64::NAN, f64::NAN]
            }
            fn predict(&self, _t: f64) -> f64 {
                f64::NAN
            }
        }
        Ok(Box::new(NanModel))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![0.5, 0.5], vec![1.0, 2.0]]
    }
}

/// A family whose predictions overflow to ±∞: Inf instead of NaN.
struct ExplosiveFamily;

impl ModelFamily for ExplosiveFamily {
    fn name(&self) -> &'static str {
        "Explosive"
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
    fn predict_params_into(&self, _params: &[f64], _ts: &[f64], out: &mut [f64]) -> bool {
        out.fill(f64::INFINITY);
        true
    }
    fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Err(CoreError::params("Explosive", "never buildable"))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0]]
    }
}

/// Corrupt CSV documents: the parser rejects each with a typed error,
/// never a panic and never a series carrying NaN.
#[test]
fn corrupt_csv_yields_structured_errors() {
    for fault in Fault::ALL {
        let doc = fault.to_csv();
        let e = read_series(doc.as_bytes(), fault.label())
            .expect_err(&format!("{fault}: parser accepted corrupt CSV"));
        assert!(e.to_string().len() > 10, "{fault}: unhelpful error {e}");
    }
}

/// NaN/Inf values and broken time grids are rejected at the series
/// boundary, so no downstream layer ever sees them.
#[test]
fn numeric_faults_rejected_at_series_boundary() {
    for fault in Fault::ALL {
        let mut times: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let mut values = vec![1.0, 0.98, 0.96, 0.94, 0.95, 0.97, 0.99, 1.0];
        fault.inject(&mut times, &mut values).unwrap();
        let e = PerformanceSeries::new(fault.label(), times, values)
            .expect_err(&format!("{fault}: constructor accepted corrupt data"));
        assert!(e.to_string().len() > 10, "{fault}");
    }
}

/// The corrupt-input matrix over scenario-generated series: every fault
/// injected into a step-outage, double-dip, or slow-burn scenario curve
/// is caught at the series boundary — the scenario engine gives the
/// fault vocabulary an unbounded supply of victims, and none of them
/// open a hole in the validation layer.
#[test]
fn numeric_faults_rejected_on_scenario_series() {
    let scenarios = [
        ("step-outage", catalog::step_outage(7)),
        ("double-dip", catalog::double_dip(7)),
        ("slow-burn", catalog::slow_burn(7)),
    ];
    for (name, spec) in scenarios {
        let clean = spec.generate(name).expect("scenario generates");
        // The clean control must pass — otherwise the matrix proves
        // nothing.
        assert!(
            PerformanceSeries::new(name, clean.times().to_vec(), clean.values().to_vec()).is_ok(),
            "{name}: clean scenario series rejected"
        );
        for fault in Fault::ALL {
            let (times, values) = fault.corrupt_series(&clean).unwrap();
            let e = PerformanceSeries::new(fault.label(), times, values).expect_err(&format!(
                "{name}/{fault}: constructor accepted corrupt data"
            ));
            assert!(e.to_string().len() > 10, "{name}/{fault}");
        }
    }
}

/// A series shorter than the corruption window is a typed refusal
/// ([`FaultError::SeriesTooShort`]), never a silent no-op: a harness
/// that "corrupts" nothing would let robustness tests pass on clean
/// data.
#[test]
fn corruption_window_underflow_is_a_typed_error() {
    let short = PerformanceSeries::monthly("short", vec![1.0, 0.98]).unwrap();
    for fault in Fault::ALL {
        assert_eq!(
            fault.corrupt_series(&short),
            Err(FaultError::SeriesTooShort { len: 2, min: 3 }),
            "{fault}"
        );
    }
    // The boundary case: three points is the smallest corruptible series.
    let min = PerformanceSeries::monthly("min", vec![1.0, 0.98, 0.97]).unwrap();
    for fault in Fault::ALL {
        assert!(fault.corrupt_series(&min).is_ok(), "{fault}");
    }
}

/// Empty held-out suffixes: every entry point that consumes a split or
/// horizon rejects the degenerate geometry with a typed error.
#[test]
fn empty_holdout_suffix_is_rejected_everywhere() {
    let series = Recession::R1990_93.payroll_index();
    // A split keeping every point leaves an empty test suffix.
    assert!(series.split_at(series.len()).is_err());
    assert!(series.split_fraction(1.0).is_err());
    // Zero-holdout evaluation.
    assert!(evaluate_model(&QuadraticFamily, &series, 0, 0.05).is_err());
    // Slice-level PMSE over an empty test set.
    let fit = fit_least_squares(&QuadraticFamily, &series, &FitConfig::default()).unwrap();
    let e = pmse_at(fit.model.as_ref(), &[], &[]).unwrap_err();
    assert!(e.to_string().contains("empty test set"), "{e}");
}

/// A NaN-returning objective: fitting fails with a structured error (the
/// objective maps NaN curves to +∞, so every start is rejected), and the
/// family lands in `Ranking::failures` rather than poisoning the table.
#[test]
fn nan_objective_degrades_to_structured_errors() {
    let series = Recession::R1990_93.payroll_index();
    for family in [&NanObjectiveFamily as &dyn ModelFamily, &ExplosiveFamily] {
        let e = fit_least_squares(family, &series, &FitConfig::default())
            .expect_err("a non-finite objective must not produce a fit");
        assert!(e.to_string().len() > 10, "{}", family.name());
    }
    let families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &NanObjectiveFamily, &ExplosiveFamily];
    let ranking = rank_models(&families, &series, &FitConfig::default()).unwrap();
    assert_eq!(ranking.rows.len(), 1);
    assert_eq!(ranking.rows[0].family_name, "Quadratic");
    assert_eq!(ranking.failures.len(), 2);
    for failure in &ranking.failures {
        assert!(!failure.reason.is_empty(), "{}", failure.family_name);
    }
    // Every ranked number is finite — the NaN families contributed none.
    for row in &ranking.rows {
        assert!(row.sse.is_finite());
        assert!(row.r2_adj.is_finite());
    }
}

/// End-to-end: the CSV → series → fit → evaluate pipeline either
/// succeeds with all-finite outputs or fails with a typed error, for
/// clean and mildly pathological (but parseable) inputs alike.
#[test]
fn pipeline_outputs_are_finite_or_typed_errors() {
    let docs: &[&str] = &[
        // Clean U-shaped curve.
        "time,value\n0,1.0\n1,0.99\n2,0.97\n3,0.95\n4,0.94\n5,0.95\n6,0.97\n7,0.99\n8,1.0\n9,1.01\n10,1.02\n11,1.02\n",
        // Constant series: fit may fail (SSY = 0 kills adjusted R²), but
        // only through a typed error.
        "time,value\n0,1\n1,1\n2,1\n3,1\n4,1\n5,1\n6,1\n7,1\n8,1\n9,1\n",
        // Monotone decline with no recovery.
        "time,value\n0,1.0\n1,0.98\n2,0.96\n3,0.94\n4,0.92\n5,0.90\n6,0.88\n7,0.86\n8,0.84\n9,0.82\n",
    ];
    for doc in docs {
        let series = read_series(doc.as_bytes(), "pipeline").expect("parseable document");
        let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        for outcome in evaluate_models(&families, &series, 3, 0.05) {
            match outcome {
                Ok(eval) => {
                    assert!(eval.fit.sse.is_finite());
                    assert!(eval.fit.params.iter().all(|p| p.is_finite()));
                    for v in [
                        eval.gof.sse,
                        eval.gof.pmse,
                        eval.gof.r2_adj,
                        eval.gof.ec,
                        eval.gof.sigma,
                    ] {
                        assert!(v.is_finite(), "silent non-finite GoF value");
                    }
                }
                Err(e) => {
                    assert!(e.to_string().len() > 10, "unhelpful error: {e}");
                }
            }
        }
    }
}

/// Faulted series can never be smuggled into the fitting layer: the only
/// constructor-free path is the slice API, and the guard layer catches a
/// NaN escaping there.
#[test]
fn guard_layer_catches_nan_at_the_metric_boundary() {
    use resilience_core::metrics::relative_error;
    assert!(relative_error(f64::NAN, 1.0).is_err());
    assert!(relative_error(1.0, f64::INFINITY).is_err());
}

static QUADRATIC: QuadraticFamily = QuadraticFamily;

/// The Quadratic, but for its exact design: building one panics on 24
/// times, and one built on 20 times gives no optimum, so the fit searches.
/// It keeps the number of times of every design built for it.
struct FaultyDesigns {
    builds: Mutex<Vec<usize>>,
}

/// A design with no optimum, as a rank-deficient one.
struct NoOptimum;

impl Design for NoOptimum {
    fn optimum(&self, _ys: &[f64]) -> Option<Result<ExactOptimum, CoreError>> {
        None
    }
}

impl ModelFamily for FaultyDesigns {
    fn name(&self) -> &'static str {
        "Faulty Quadratic"
    }
    fn n_params(&self) -> usize {
        QUADRATIC.n_params()
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        QUADRATIC.internal_to_params_into(internal, out);
    }
    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        QUADRATIC.predict_params_into(params, ts, out)
    }
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        self.builds.lock().unwrap().push(ts.len());
        match ts.len() {
            24 => panic!("design fault on {} times", ts.len()),
            20 => Some(Arc::new(NoOptimum)),
            _ => QUADRATIC.design(ts),
        }
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        QUADRATIC.params_to_internal(params)
    }
    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        QUADRATIC.build(params)
    }
    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        QUADRATIC.initial_guesses(series)
    }
}

/// A ranking's rows (family and SSE bits) and failures, or its error.
fn render(result: &Result<Ranking, CoreError>) -> String {
    match result {
        Ok(ranking) => {
            let rows = ranking
                .rows
                .iter()
                .map(|row| format!("{} {:x};", row.family_name, row.sse.to_bits()));
            let failures = ranking
                .failures
                .iter()
                .map(|f| format!("failed {} {:?} {};", f.family_name, f.kind, f.reason));
            rows.chain(failures).collect()
        }
        Err(e) => format!("error: {e}"),
    }
}

/// A fleet whose grids share designs, one of which cannot be built: the
/// design of the 24-time grid panics, so exactly that grid's three jobs of
/// the family fail, as they do in one-cell rankings that never share, with
/// the same failure rows and events. The 20-time grid's shared design has
/// no optimum, so its fits search. The 32-time grid shares a working
/// design, the lone 28-time cell builds its own, and the rest of the fleet
/// ranks, at every thread count.
#[test]
fn a_shared_design_that_panics_fails_only_its_grids_jobs() {
    let lengths = [24, 32, 20, 24, 28, 32, 20, 24];
    let fleet: Vec<PerformanceSeries> = lengths
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut wiggle = 0.23 + 0.05 * i as f64;
            let values = (0..n)
                .map(|k| {
                    let t = f64::from(k);
                    wiggle = (wiggle * 181.0).fract();
                    1.0 - 0.02 * t + 0.0007 * t * t + 0.003 * (wiggle - 0.5)
                })
                .collect();
            PerformanceSeries::monthly(format!("cell {i}"), values).unwrap()
        })
        .collect();
    let faulty = FaultyDesigns {
        builds: Mutex::new(Vec::new()),
    };
    let families: Vec<&dyn ModelFamily> = vec![&faulty, &CompetingRisksFamily];
    let policy = ExecPolicy::default();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs: Vec<_> = [Parallelism::Serial, Parallelism::Fixed(2)]
        .into_iter()
        .map(|parallelism| {
            let config = FitConfig {
                parallelism,
                ..FitConfig::default()
            };
            faulty.builds.lock().unwrap().clear();
            let rec = Arc::new(RecordingObserver::new());
            let control = Control::unbounded().observe(rec.clone());
            let outcomes = rank_fleet_supervised(&families, &fleet, &config, &policy, &control);
            let mut builds = std::mem::take(&mut *faulty.builds.lock().unwrap());
            builds.sort_unstable();
            let one_cell: Vec<_> = fleet
                .iter()
                .map(|series| {
                    let rec = Arc::new(RecordingObserver::new());
                    let control = Control::unbounded().observe(rec.clone());
                    let ranking =
                        rank_models_supervised(&families, series, &config, &policy, &control);
                    (ranking, rec.take())
                })
                .collect();
            (parallelism, outcomes, rec.take(), builds, one_cell)
        })
        .collect();
    std::panic::set_hook(hook);
    for (parallelism, outcomes, log, builds, one_cell) in runs {
        // The 24-time grid's shared build panics and each of its three fits
        // builds again; the 20- and 32-time grids are built once, shared.
        assert_eq!(builds, [20, 24, 24, 24, 24, 28, 32], "{parallelism:?}");
        let mut one_cell_log = Vec::new();
        for (i, (outcome, (one, events))) in outcomes.into_iter().zip(one_cell).enumerate() {
            let ranking = outcome.into_result();
            assert_eq!(render(&ranking), render(&one), "{parallelism:?}: cell {i}");
            let ranking = ranking.unwrap();
            let faulty_failed = ranking.failures.iter().any(|f| {
                f.family_name == "Faulty Quadratic"
                    && f.kind == FailureKind::Panicked
                    && f.reason == "fit: design fault on 24 times"
            });
            assert_eq!(faulty_failed, lengths[i] == 24, "{parallelism:?}: cell {i}");
            assert_eq!(ranking.rows.len(), 2 - usize::from(faulty_failed));
            // A design with no optimum leaves the fit to its starts.
            let searched = events.iter().any(|e| {
                matches!(
                    e,
                    Event::FitStarted { family: "Faulty Quadratic", starts } if *starts > 0
                )
            });
            assert_eq!(searched, lengths[i] == 20, "{parallelism:?}: cell {i}");
            one_cell_log.extend(events.into_iter().map(|e| match e {
                Event::JobStarted { cell: 0, family } => Event::JobStarted {
                    cell: i as u32,
                    family,
                },
                e => e,
            }));
        }
        assert_eq!(log, one_cell_log, "{parallelism:?}");
    }
}
