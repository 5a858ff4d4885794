//! Resilient-execution acceptance suite (DESIGN.md §9): deadlines turn
//! runaway fits into typed `TimedOut` errors, cancel tokens stop runs
//! from another thread, and panicking families degrade a ranking instead
//! of poisoning it.
//!
//! The hostile families here model real failure modes: an objective so
//! slow it effectively hangs (`SleepyFamily`) and a buggy family
//! implementation that panics (`PanickyFamily`).

// Sanctioned wall-clock: this suite *measures* that deadlines fire
// promptly; nothing here is a stored result (`clippy.toml` bans
// `Instant` in result paths).
#![allow(clippy::disallowed_types)]

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::{bootstrap_band, BootstrapConfig};
use resilience_core::chaos::ChaosPlan;
use resilience_core::fit::{fit_least_squares_with, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::{Design, ModelFamily, ResilienceModel};
use resilience_core::runtime::{
    rank_fleet_supervised, rank_models_supervised, BreakerPolicy, CancelToken, CellOutcome,
    Control, ExecPolicy, RetryPolicy,
};
use resilience_core::selection::{FailureKind, FamilyFailure, Ranking};
use resilience_core::CoreError;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_obs::{replay, Event, JsonlObserver, RecordingObserver};
use resilience_optim::Parallelism;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A constant-curve family whose every objective evaluation sleeps: the
/// closest safe stand-in for an objective that hangs. Its fit can only
/// finish fast by hitting a cooperative cancellation point.
struct SleepyFamily {
    nap: Duration,
}

struct ConstantModel(f64);

impl ResilienceModel for ConstantModel {
    fn name(&self) -> &'static str {
        "Sleepy"
    }
    fn params(&self) -> Vec<f64> {
        vec![self.0]
    }
    fn predict(&self, _t: f64) -> f64 {
        self.0
    }
}

impl ModelFamily for SleepyFamily {
    fn name(&self) -> &'static str {
        "Sleepy"
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
        std::thread::sleep(self.nap);
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

/// A family whose objective panics: a buggy implementation that must be
/// isolated, never allowed to take down a multi-family run. It has three
/// starts, so at two or more threads its multi-start panics on worker
/// threads too.
struct PanickyFamily;

impl ModelFamily for PanickyFamily {
    fn name(&self) -> &'static str {
        "Panicky"
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
        panic!("injected panic in Panicky::predict_params_into");
    }
    fn build(&self, _params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        Err(CoreError::params("Panicky", "never buildable"))
    }
    fn initial_guesses(&self, _series: &PerformanceSeries) -> Vec<Vec<f64>> {
        vec![vec![1.0], vec![2.0], vec![3.0]]
    }
}

/// A generous-but-finite optimizer budget: the fit should only ever end
/// via the control, not by exhausting iterations.
fn patient_config() -> FitConfig {
    let mut config = FitConfig {
        lm_polish: false,
        parallelism: Parallelism::Serial,
        ..FitConfig::default()
    };
    config.max_iterations = 10_000_000;
    config
}

/// Acceptance: a hanging objective under a 50 ms deadline returns
/// `CoreError::TimedOut` — promptly, instead of running for hours.
#[test]
fn hanging_objective_times_out_under_a_50ms_deadline() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(20),
    };
    let started = Instant::now();
    let err = fit_least_squares_with(
        &sleepy,
        &series,
        &patient_config(),
        &Control::with_deadline(Duration::from_millis(50)),
    )
    .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CoreError::TimedOut { what } if what == "fit_least_squares"),
        "expected a typed timeout, got {err}"
    );
    // Cooperative stop: within one iteration of the deadline. Very
    // generous bound so slow CI machines cannot flake it.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// A cancel token fired from another thread stops a running fit with a
/// typed `Cancelled` error.
#[test]
fn cancel_token_stops_a_running_fit_from_another_thread() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(5),
    };
    let token = CancelToken::new();
    // A thread of the test's own, outside any crew: the canceller must
    // run beside the fit it stops.
    #[allow(clippy::disallowed_methods)]
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        })
    };
    let err = fit_least_squares_with(
        &sleepy,
        &series,
        &patient_config(),
        &Control::with_token(&token),
    )
    .unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(err, CoreError::Cancelled { .. }),
        "expected a typed cancellation, got {err}"
    );
}

/// Acceptance: a panicking family yields a degraded ranking with the
/// surviving rows — the panic is isolated, classified, and reported with
/// its own message at every thread count.
#[test]
fn panicking_family_degrades_the_ranking_instead_of_poisoning_it() {
    // Silence the default panic hook for the injected panic; failures in
    // this test still fail it (the hook only controls printing).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let series = Recession::R1990_93.payroll_index();
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &PanickyFamily];
    let outcomes: Vec<_> = [Parallelism::Serial, Parallelism::Fixed(2)]
        .into_iter()
        .map(|parallelism| {
            let config = FitConfig {
                parallelism,
                ..FitConfig::default()
            };
            let outcome = rank_models_supervised(
                &families,
                &series,
                &config,
                &ExecPolicy::default(),
                &Control::unbounded(),
            );
            (parallelism, outcome)
        })
        .collect();
    std::panic::set_hook(hook);
    for (parallelism, outcome) in outcomes {
        let ranking = outcome.unwrap();
        assert!(ranking.degraded, "{parallelism:?}");
        assert_eq!(ranking.rows.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.rows[0].family_name, "Quadratic");
        assert!(ranking.rows[0].sse.is_finite());
        assert_eq!(ranking.failures.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.failures[0].family_name, "Panicky");
        assert_eq!(ranking.failures[0].kind, FailureKind::Panicked);
        assert_eq!(
            ranking.failures[0].reason, "fit: injected panic in Panicky::predict_params_into",
            "{parallelism:?}: the reason must carry the panic message"
        );
    }
}

/// A per-family time budget converts one runaway family into a
/// `TimedOut` failure row while the healthy families rank normally.
#[test]
fn family_budget_times_out_the_slow_family_only() {
    let series = Recession::R1990_93.payroll_index();
    let sleepy = SleepyFamily {
        nap: Duration::from_millis(20),
    };
    let families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &sleepy];
    let policy = ExecPolicy {
        family_budget: Some(Duration::from_millis(50)),
        ..ExecPolicy::default()
    };
    // Serial runs the jobs one after another; Fixed(2) pools both
    // families' starts.
    for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
        let config = FitConfig {
            parallelism,
            ..FitConfig::default()
        };
        let ranking =
            rank_models_supervised(&families, &series, &config, &policy, &Control::unbounded())
                .unwrap();
        assert!(ranking.degraded, "{parallelism:?}");
        assert_eq!(ranking.rows.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.rows[0].family_name, "Quadratic");
        assert_eq!(ranking.failures.len(), 1, "{parallelism:?}");
        assert_eq!(ranking.failures[0].family_name, "Sleepy");
        assert_eq!(ranking.failures[0].kind, FailureKind::TimedOut);
    }
}

/// A fleet built to share exact designs: ten cells on three time grids.
/// Grid A (32 monthly times) holds six cells, grid A′ (A with its last time
/// one bit up) three, and grid B (24 monthly times) one. A and A′ differ in
/// that bit alone, so they must not share a design. In 8-cell waves the
/// first wave holds A ×4, A′ ×3 and B, the second A ×2. The curves cycle
/// through a bathtub, a competing-risks dip, a step outage and a rising
/// line, whose Quadratic optimum lies on the bathtub cone's boundary.
fn shared_grid_fleet() -> Vec<PerformanceSeries> {
    let a: Vec<f64> = (0..32).map(f64::from).collect();
    let mut a_next = a.clone();
    a_next[31] = f64::from_bits(31f64.to_bits() + 1);
    let b: Vec<f64> = (0..24).map(f64::from).collect();
    let grids = [&a, &a_next, &a, &b, &a_next, &a, &a, &a_next, &a, &a];
    grids
        .iter()
        .enumerate()
        .map(|(i, ts)| {
            let mut wiggle = 0.31 + 0.07 * i as f64;
            let values = ts
                .iter()
                .map(|&t| {
                    wiggle = (wiggle * 173.0).fract();
                    let curve = match i % 4 {
                        0 => 1.0 - 0.02 * t + 0.0006 * t * t,
                        1 => 0.8 / (1.0 + 0.3 * t) + 0.006 * t,
                        2 if (4.0..12.0).contains(&t) => 0.7,
                        2 => 1.0,
                        _ => 0.9 + 0.002 * t,
                    };
                    curve + 0.002 * (wiggle - 0.5)
                })
                .collect();
            PerformanceSeries::new(format!("cell {i}"), ts.to_vec(), values).unwrap()
        })
        .collect()
}

/// `inner`, counting the designs built for it by their last time's bits.
/// It delegates every hook a fit calls.
struct Counted<'f> {
    inner: &'f dyn ModelFamily,
    builds: Mutex<Vec<u64>>,
}

impl Counted<'_> {
    /// The designs built since the last call, by their last time's bits,
    /// sorted.
    fn take(&self) -> Vec<u64> {
        let mut builds = std::mem::take(&mut *self.builds.lock().unwrap());
        builds.sort_unstable();
        builds
    }
}

impl ModelFamily for Counted<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn n_params(&self) -> usize {
        self.inner.n_params()
    }
    fn internal_to_params_into(&self, internal: &[f64], out: &mut [f64]) {
        self.inner.internal_to_params_into(internal, out);
    }
    fn predict_params_into(&self, params: &[f64], ts: &[f64], out: &mut [f64]) -> bool {
        self.inner.predict_params_into(params, ts, out)
    }
    fn predict_jacobian_into(
        &self,
        internal: &[f64],
        params: &[f64],
        ts: &[f64],
        out: &mut Matrix,
    ) -> bool {
        self.inner.predict_jacobian_into(internal, params, ts, out)
    }
    fn design<'a>(&'a self, ts: &'a [f64]) -> Option<Arc<dyn Design + 'a>> {
        let last = ts.last().map_or(0, |t| t.to_bits());
        self.builds.lock().unwrap().push(last);
        self.inner.design(ts)
    }
    fn params_to_internal(&self, params: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.inner.params_to_internal(params)
    }
    fn build(&self, params: &[f64]) -> Result<Box<dyn ResilienceModel>, CoreError> {
        self.inner.build(params)
    }
    fn initial_guesses(&self, series: &PerformanceSeries) -> Vec<Vec<f64>> {
        self.inner.initial_guesses(series)
    }
}

/// A ranking's rows (family, SSE and adjusted R² bits) and failures, or
/// its error.
fn render_ranking(result: &Result<Ranking, CoreError>) -> String {
    match result {
        Ok(ranking) => {
            let mut out = String::new();
            for row in &ranking.rows {
                out += &format!(
                    "{} {:x} {:x};",
                    row.family_name,
                    row.sse.to_bits(),
                    row.r2_adj.to_bits()
                );
            }
            out + &render_failures(&ranking.failures)
        }
        Err(e) => format!("error: {e}"),
    }
}

fn render_failures(failures: &[FamilyFailure]) -> String {
    failures
        .iter()
        .map(|f| format!("failed {} {:?} {};", f.family_name, f.kind, f.reason))
        .collect()
}

/// A log as the JSONL its sink would write.
fn jsonl(events: &[Event]) -> Vec<u8> {
    let sink = JsonlObserver::new(Vec::new());
    replay(events, &sink);
    let (bytes, dropped) = sink.into_parts();
    assert_eq!(dropped, 0);
    bytes
}

/// The fleet's outcomes and event log.
fn run_fleet(
    families: &[&dyn ModelFamily],
    cells: &[PerformanceSeries],
    config: &FitConfig,
    policy: &ExecPolicy,
) -> (Vec<CellOutcome>, Vec<Event>) {
    let rec = Arc::new(RecordingObserver::new());
    let control = Control::unbounded().observe(rec.clone());
    let outcomes = rank_fleet_supervised(families, cells, config, policy, &control);
    (outcomes, rec.take())
}

/// Cells that share a time grid share its designs, and nothing else
/// changes: under the default policy every cell's ranking, failures and
/// log equal a one-cell `rank_models_supervised` call on its series, which
/// never shares, at every thread count. The whole fleet fans out over its
/// jobs; its last two cells alone pool their fits at `Fixed(3)`. The fleet
/// builds one design per grid for each family, the exact ones and Exp-Exp's
/// profiled search alike: one shared design for A and one for A′, and B's
/// in its one fit.
#[test]
fn fleet_cells_that_share_designs_equal_one_cell_rankings() {
    let fleet = shared_grid_fleet();
    let exp_exp = MixtureFamily::paper_combinations()[0];
    let inner: [&dyn ModelFamily; 4] = [
        &QuadraticFamily,
        &CompetingRisksFamily,
        &QuarticFamily,
        &exp_exp,
    ];
    let counted = inner.map(|inner| Counted {
        inner,
        builds: Mutex::new(Vec::new()),
    });
    let families: Vec<&dyn ModelFamily> = counted.iter().map(|c| c as &dyn ModelFamily).collect();
    let policy = ExecPolicy::default();
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Fixed(2),
        Parallelism::Fixed(3),
    ] {
        let config = FitConfig {
            parallelism,
            ..FitConfig::default()
        };
        for cells in [&fleet[..], &fleet[8..]] {
            let (outcomes, log) = run_fleet(&families, cells, &config, &policy);
            let mut grids: Vec<u64> = cells
                .iter()
                .map(|c| c.times()[c.len() - 1].to_bits())
                .collect();
            grids.sort_unstable();
            grids.dedup();
            for family in &counted {
                assert_eq!(family.take(), grids, "{parallelism:?}: {}", family.name());
            }
            let mut one_cell_log = Vec::new();
            for (i, (series, outcome)) in cells.iter().zip(outcomes).enumerate() {
                let rec = Arc::new(RecordingObserver::new());
                let one = rank_models_supervised(
                    &families,
                    series,
                    &config,
                    &policy,
                    &Control::unbounded().observe(rec.clone()),
                );
                assert_eq!(
                    render_ranking(&outcome.into_result()),
                    render_ranking(&one),
                    "{parallelism:?}: cell {i}"
                );
                // A one-cell call is cell 0: renumber its `job` lines.
                one_cell_log.extend(rec.take().into_iter().map(|e| match e {
                    Event::JobStarted { cell: 0, family } => Event::JobStarted {
                        cell: i as u32,
                        family,
                    },
                    e => e,
                }));
            }
            counted.iter().for_each(|family| drop(family.take()));
            assert!(jsonl(&log) == jsonl(&one_cell_log), "{parallelism:?}");
        }
    }
}

/// A band builds one design for its base fit and all its replicates, a
/// profiled search's as well as an exact one's: a 20-replicate Exp-Exp band
/// builds one, and equals the band of the family it wraps, bit for bit.
#[test]
fn a_searching_band_builds_one_design() {
    let series = Recession::R1990_93.payroll_index();
    let exp_exp = MixtureFamily::paper_combinations()[0];
    let counted = Counted {
        inner: &exp_exp,
        builds: Mutex::new(Vec::new()),
    };
    let config = BootstrapConfig {
        replicates: 20,
        parallelism: Parallelism::Fixed(2),
        ..BootstrapConfig::default()
    };
    let band = bootstrap_band(&counted, &series, &FitConfig::default(), &config).unwrap();
    let last = series.times()[series.len() - 1].to_bits();
    assert_eq!(counted.take(), [last]);
    let plain = bootstrap_band(&exp_exp, &series, &FitConfig::default(), &config).unwrap();
    assert_eq!((band.replicates, band.failed), (20, 0));
    for (a, b) in [
        (&band.center, &plain.center),
        (&band.lower, &plain.lower),
        (&band.upper, &plain.upper),
    ] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Five rounds of the shared-grid fleet (50 cells) under the CI chaos
/// policy (forced panics, deadline blowouts, retry exhaustion, observer
/// loss and transient faults, two attempts, and breakers over 8-cell
/// waves), at every thread count: its outcomes and its JSONL log. Breakers
/// open, half-open and close, cells are quarantined, retries refit over
/// shared designs, the flattened waves share one crew, and at `Fixed(3)`
/// the last wave (two cells on grid A) pools its fits. A one-cell call
/// cannot stand in for a cell here, since the faults are drawn per fleet
/// cell and the breakers carry state from cell to cell, so the digests pin
/// the fleet as a ranker that builds every design inside its own fit
/// produced it, bit for bit.
#[test]
fn chaos_fleet_that_shares_designs_keeps_its_outcomes_and_log() {
    const OUTCOMES: u64 = 0x99D5_2501_2EB9_BBC3;
    const LOG: u64 = 0xF0A1_2F65_4F82_9849;
    let policy = ExecPolicy {
        family_budget: None,
        retry: Some(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        }),
        breaker: Some(BreakerPolicy {
            threshold: 2,
            cooldown: 2,
            wave: 8,
        }),
        chaos: Some(ChaosPlan {
            seed: 0x0C4A_0511,
            panic_per_mille: 70,
            deadline_per_mille: 60,
            exhaustion_per_mille: 50,
            observer_loss_per_mille: 100,
            transient_per_mille: 150,
        }),
    };
    let fleet: Vec<PerformanceSeries> = shared_grid_fleet().into_iter().cycle().take(50).collect();
    let families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs: Vec<_> = [
        Parallelism::Serial,
        Parallelism::Fixed(2),
        Parallelism::Fixed(3),
        Parallelism::Auto,
    ]
    .into_iter()
    .map(|parallelism| {
        let config = FitConfig {
            parallelism,
            ..FitConfig::default()
        };
        (parallelism, run_fleet(&families, &fleet, &config, &policy))
    })
    .collect();
    std::panic::set_hook(hook);
    for (parallelism, (outcomes, log)) in runs {
        let rendered: String = outcomes
            .iter()
            .map(|outcome| match outcome {
                CellOutcome::Ranked(ranking) => render_ranking(&Ok(ranking.clone())) + "\n",
                CellOutcome::Quarantined { failures } => {
                    format!("quarantined {}\n", render_failures(failures))
                }
                CellOutcome::Stopped(e) => format!("stopped {e}\n"),
            })
            .collect();
        let basis = 0xCBF2_9CE4_8422_2325;
        assert_eq!(
            (
                fnv1a(basis, rendered.as_bytes()),
                fnv1a(basis, &jsonl(&log))
            ),
            (OUTCOMES, LOG),
            "{parallelism:?}:\n{rendered}"
        );
    }
}
