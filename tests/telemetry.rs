//! End-to-end telemetry determinism (DESIGN.md §10).
//!
//! The telemetry contract: events carry logical clocks only (iteration
//! and evaluation counts, start/family indices) — never wall-clock — so
//! the JSONL encoding of an observed run is **byte-identical** across
//! thread counts and across re-runs. These tests pin that contract on a
//! real multi-family ranking, round-trip the log through the parser, and
//! check that a degraded run (stops, failures) aggregates into a
//! NaN-free run report.

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::fit::{fit_least_squares_with, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_models_supervised, Control, ExecPolicy, RetryPolicy};
use resilience_data::recessions::Recession;
use resilience_obs::{
    parse_line, parse_log, replay, CounterId, Event, JsonlObserver, MetricsSnapshot,
    RecordingObserver, RunReport, SpanTree,
};
use resilience_optim::Parallelism;
use std::sync::Arc;

fn families() -> Vec<&'static dyn ModelFamily> {
    vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily]
}

/// One observed supervised ranking over the 1990–93 payroll series.
fn traced_ranking(parallelism: Parallelism) -> Vec<Event> {
    let series = Recession::R1990_93.payroll_index();
    let config = FitConfig {
        parallelism,
        ..FitConfig::default()
    };
    let policy = ExecPolicy {
        family_budget: None,
        retry: Some(RetryPolicy::default()),
        ..ExecPolicy::default()
    };
    let recorder = Arc::new(RecordingObserver::new());
    let fams = families();
    rank_models_supervised(
        &fams,
        &series,
        &config,
        &policy,
        &Control::unbounded().observe(recorder.clone()),
    )
    .expect("ranking succeeds");
    recorder.take()
}

/// Encodes events exactly as the file sink would: one JSON line each.
fn to_jsonl(events: &[Event]) -> String {
    let sink = JsonlObserver::new(Vec::new());
    replay(events, &sink);
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

/// The tentpole determinism claim: the serial and 4-thread event logs of
/// the same seeded ranking are byte-identical after JSONL encoding.
#[test]
fn event_log_bytes_are_identical_across_thread_counts() {
    let serial = to_jsonl(&traced_ranking(Parallelism::Serial));
    assert!(!serial.is_empty());
    for p in [
        Parallelism::Fixed(2),
        Parallelism::Fixed(3),
        Parallelism::Fixed(4),
    ] {
        let parallel = to_jsonl(&traced_ranking(p));
        assert_eq!(parallel, serial, "{p:?} log diverged from serial");
    }
}

/// Re-running the identical configuration reproduces the identical log —
/// no wall-clock, no global state.
#[test]
fn event_log_is_reproducible_across_runs() {
    let a = to_jsonl(&traced_ranking(Parallelism::Fixed(2)));
    let b = to_jsonl(&traced_ranking(Parallelism::Fixed(2)));
    assert_eq!(a, b);
}

/// Every event the pipeline emits survives the JSONL round trip, and the
/// reparsed log aggregates to the same report as the in-memory events.
#[test]
fn jsonl_round_trip_preserves_the_log() {
    let events = traced_ranking(Parallelism::Serial);
    let text = to_jsonl(&events);
    let reparsed = parse_log(&text).expect("log parses");
    assert_eq!(reparsed, events);

    let direct = RunReport::from_events(events);
    let via_file = RunReport::from_events(reparsed);
    assert_eq!(direct.to_json(), via_file.to_json());
    assert_eq!(direct.render_table(), via_file.render_table());
}

/// Exhaustive parse round-trip over the full event vocabulary: every
/// variant of [`Event::examples`] — all counter/histogram ids, failure
/// codes, solver kinds, exit reasons, stop kinds, chaos kinds, plus
/// non-finite float payloads — encodes to one JSON line, reparses, and
/// re-encodes to the identical bytes. Byte-level comparison sidesteps
/// `NaN != NaN` while still pinning the whole codec.
#[test]
fn every_event_shape_survives_the_jsonl_round_trip() {
    let examples = Event::examples();
    assert!(examples.len() > 40, "vocabulary shrank? {}", examples.len());
    for event in &examples {
        let mut line = String::new();
        event.write_json(&mut line);
        let reparsed = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let mut again = String::new();
        reparsed.write_json(&mut again);
        assert_eq!(line, again, "round trip changed the encoding");
    }
}

/// The analysis plane inherits the byte-identity contract: the span tree
/// and the metrics exposition rebuilt from serial and `Fixed(2)` logs of
/// the same ranking render identical bytes (DESIGN.md §15).
#[test]
fn span_tree_and_metrics_are_identical_across_thread_counts() {
    let serial = traced_ranking(Parallelism::Serial);
    let fixed2 = traced_ranking(Parallelism::Fixed(2));

    let tree = SpanTree::build(&serial);
    assert_eq!(tree.cells.len(), 1, "one series ⇒ one cell");
    assert_eq!(tree.fits(), families().len() as u64);
    assert_eq!(tree.unattributed_evaluations, 0);
    assert_eq!(
        tree.render(usize::MAX, 4),
        SpanTree::build(&fixed2).render(usize::MAX, 4),
        "span tree diverged across thread counts"
    );

    let exposition = MetricsSnapshot::from_report(&RunReport::from_events(serial)).render();
    assert!(exposition.contains("resilience_objective_evals_total"));
    assert_eq!(
        exposition,
        MetricsSnapshot::from_report(&RunReport::from_events(fixed2)).render(),
        "metrics exposition diverged across thread counts"
    );
}

/// The aggregated report accounts for real solver work: every family
/// span completes, objective evaluations were counted, and the JSON
/// document is NaN-free.
#[test]
fn ranking_report_accounts_for_solver_work() {
    let events = traced_ranking(Parallelism::Serial);
    let report = RunReport::from_events(events);
    assert_eq!(report.families.len(), families().len());
    for fam in &report.families {
        assert_eq!(fam.fits_started, 1, "{}", fam.name);
        assert_eq!(fam.fits_completed, 1, "{}", fam.name);
        assert!(fam.evaluations > 0, "{}", fam.name);
        assert!(fam.best_sse.is_some(), "{}", fam.name);
    }
    assert!(report.counter(CounterId::ObjectiveEvals) > 0);
    let json = report.to_json();
    assert!(!json.contains("NaN") && !json.contains("nan"), "{json}");
}

/// A log whose `objective_evals` deltas sum past `u64::MAX` (each line
/// alone parses) reads `u64::MAX` wherever they are summed: outside a job
/// and inside one, in the tree, the report and a merge of reports. An
/// unchecked sum panics a debug build on overflow and wraps in release.
#[test]
fn work_totals_past_u64_max_saturate() {
    let line = "{\"ev\":\"counter\",\"id\":\"objective_evals\",\"n\":18446744073709549568}\n";
    let bare = parse_log(&line.repeat(2)).expect("each line parses");
    let tree = SpanTree::build(&bare);
    assert_eq!(tree.unattributed_evaluations, u64::MAX);
    assert_eq!(tree.evaluations(), u64::MAX);
    let mut report = RunReport::from_events(bare);
    assert_eq!(report.counter(CounterId::ObjectiveEvals), u64::MAX);
    report.merge(&report.clone());
    assert_eq!(report.counter(CounterId::ObjectiveEvals), u64::MAX);

    // Inside a job, with a stop that charges its evaluations too.
    let in_job = format!(
        "{{\"ev\":\"job\",\"cell\":0,\"family\":\"Quadratic\"}}\n{line}\
         {{\"ev\":\"deadline_exceeded\",\"scope\":\"nm\",\"evals\":18446744073709549568}}\n"
    );
    let in_job = parse_log(&in_job).expect("each line parses");
    let tree = SpanTree::build(&in_job);
    assert_eq!(tree.cells[0].fits[0].evaluations(), u64::MAX);
    assert_eq!(tree.cells[0].evaluations(), u64::MAX);
    assert_eq!(tree.evaluations(), u64::MAX);
    let mut report = RunReport::from_events(in_job);
    assert_eq!(report.families[0].evaluations, u64::MAX);
    assert_eq!(report.counter(CounterId::ObjectiveEvals), u64::MAX);
    report.merge(&report.clone());
    assert_eq!(report.families[0].evaluations, u64::MAX);
}

/// One observer of four standalone fits on the 1990–93 series, so a log
/// without `job` lines: Competing Risks, Exp-Exp, and the Quartic twice.
fn four_standalone_fits() -> Vec<Event> {
    let series = Recession::R1990_93.payroll_index();
    let mixtures = MixtureFamily::paper_combinations();
    let recorder = Arc::new(RecordingObserver::new());
    let control = Control::unbounded().observe(recorder.clone());
    let fams: [&dyn ModelFamily; 4] = [
        &CompetingRisksFamily,
        &mixtures[0],
        &QuarticFamily,
        &QuarticFamily,
    ];
    for family in fams {
        fit_least_squares_with(family, &series, &FitConfig::default(), &control)
            .expect("the family fits 1990-93");
    }
    recorder.take()
}

/// The span tree keeps one observer's standalone fits apart: a fit-level
/// event naming another family, or a second `fit_started` on one attempt,
/// opens the next implicit fit in cell 0.
#[test]
fn standalone_fits_on_one_observer_are_separate_spans() {
    let tree = SpanTree::build(&four_standalone_fits());
    assert_eq!(tree.cells.len(), 1);
    let fits: Vec<(&str, u64)> = tree.cells[0]
        .fits
        .iter()
        .map(|f| (f.family, f.evaluations()))
        .collect();
    assert_eq!(
        fits,
        [
            ("Competing Risks", 47),
            ("Exp-Exp", 727),
            ("Quartic", 1),
            ("Quartic", 1)
        ]
    );
    assert_eq!(tree.unattributed_evaluations, 0);
}

/// The report folds those four fits into one row per family.
#[test]
fn standalone_fits_on_one_observer_report_per_family() {
    let report = RunReport::from_events(four_standalone_fits());
    // (family, fits started, fits completed, iterations, evaluations)
    let rows: Vec<(&str, u64, u64, u64, u64)> = report
        .families
        .iter()
        .map(|f| {
            (
                f.name,
                f.fits_started,
                f.fits_completed,
                f.iterations,
                f.evaluations,
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("Competing Risks", 1, 1, 20, 47),
            ("Exp-Exp", 1, 1, 376, 727),
            ("Quartic", 2, 2, 0, 2)
        ]
    );
}

/// A degraded run — a family whose fit panics — still yields a parseable
/// log and a report whose zero-completed family renders without NaN
/// (satellite: division-by-zero guard on per-family rates).
#[test]
fn degraded_run_report_is_nan_free() {
    use resilience_core::model::ResilienceModel;
    use resilience_core::CoreError;
    use resilience_data::PerformanceSeries;

    struct PanickingFamily;
    impl ModelFamily for PanickingFamily {
        fn name(&self) -> &'static str {
            "Panicking"
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
            panic!("injected failure");
        }
        fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
            Err(CoreError::params("Panicking", "never buildable"))
        }
        fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
            vec![vec![1.0]]
        }
    }

    // Silence the injected panic's backtrace, then restore the hook so
    // other tests in this binary report normally.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let series = Recession::R1990_93.payroll_index();
    let panicking = PanickingFamily;
    let fams: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &panicking];
    let recorder = Arc::new(RecordingObserver::new());
    let ranking = rank_models_supervised(
        &fams,
        &series,
        &FitConfig::default(),
        &ExecPolicy::default(),
        &Control::unbounded().observe(recorder.clone()),
    )
    .expect("healthy family survives");
    std::panic::set_hook(prev);
    assert!(ranking.degraded);

    let events = recorder.take();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::WorkerPanic { index: 1, .. })));
    let text = to_jsonl(&events);
    let report = RunReport::from_events(parse_log(&text).expect("degraded log parses"));
    let failed = report
        .families
        .iter()
        .find(|f| f.name == "Panicking")
        .expect("failed family has a report row");
    assert_eq!(failed.fits_completed, 0);
    assert_eq!(failed.panics, 1);
    // Zero completed fits: the rate is typed as absent, never 0/0.
    assert_eq!(failed.convergence_rate(), None);
    // The fit *started* (the span opened before the panic), so the
    // per-start mean is a real 0, not a division by zero.
    assert_eq!(failed.fits_started, 1);
    assert_eq!(failed.mean_evals_per_fit(), Some(0.0));
    for doc in [report.to_json(), report.render_table()] {
        assert!(!doc.contains("NaN"), "{doc}");
    }
}
