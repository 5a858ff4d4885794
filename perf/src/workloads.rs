//! The four closed-loop workloads: their inputs, one operation each, and
//! the output fingerprint every operation is checked by.
//!
//! Each workload calls the library through public entry points only, with
//! `Parallelism::Fixed(workers())` inside the library and one client
//! thread outside it.

use crate::inputs;
use crate::trace::Tracer;
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::bootstrap_band;
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_fleet_supervised, CellOutcome, Control, ExecPolicy};
use resilience_core::selection::{rank_models, FamilyFailure, Ranking};
use resilience_core::validate::r2_adjusted;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_obs::{parse_log, JsonlObserver, MetricsSnapshot, RunReport, SpanTree};
use resilience_optim::Parallelism;
use std::cell::Cell;
use std::sync::Arc;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `rank_models` with the six paper families on one recession curve,
    /// cycling through noise draws of all seven: the paper's own traffic,
    /// dominated by the mixture fits.
    RecessionRank,
    /// `rank_fleet_supervised` over the 360-cell full grid with the three
    /// bathtub families: many short jobs, so scheduling and per-job
    /// supervision show; no mixture runs here.
    ScenarioFleet,
    /// `bootstrap_band` of the quadratic family on 1990-93: 200 single
    /// warm-started refits plus residual resampling.
    BootstrapBand,
    /// `rank_fleet_supervised` on the 64-cell CI grid under the chaos
    /// policy, logged through a JSONL observer into memory, then parsed,
    /// aggregated, turned into a span tree and rendered as metrics;
    /// cycling through draws of the grid.
    TracedChaosFleet,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::RecessionRank,
        Workload::ScenarioFleet,
        Workload::BootstrapBand,
        Workload::TracedChaosFleet,
    ];

    /// The command-line and metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecessionRank => "recession-rank",
            Workload::ScenarioFleet => "scenario-fleet",
            Workload::BootstrapBand => "bootstrap-band",
            Workload::TracedChaosFleet => "traced-chaos-fleet",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Library worker threads: two, and never more than the machine has.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// `FitConfig::default()` with the given fan-out.
#[must_use]
pub fn fit_config(parallelism: Parallelism) -> FitConfig {
    FitConfig {
        parallelism,
        ..FitConfig::default()
    }
}

/// Runs `f` with the default panic hook silenced. The chaos plan forces
/// panics inside fits on purpose and the supervisor catches every one;
/// without this each would print a backtrace.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// What one operation produced, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Fingerprint of everything the output is checked on: ranked rows
    /// with SSE and R² bits and typed failures for rankings and fleet
    /// cells, lower/upper bits for bands, JSONL bytes and the rendered
    /// metrics for traced passes.
    pub digest: u64,
    /// Completed throughput units: rankings, fleet cells or bands.
    pub units: u64,
    /// Family fits (or bootstrap replicates) attempted.
    pub jobs: u64,
    /// Family fits (or bootstrap replicates) that failed.
    pub job_failures: u64,
    /// Adjusted R² of each winning row.
    pub winner_r2: Vec<f64>,
}

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let chunks = bytes.chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in tail {
            self.word(u64::from(b));
        }
        self.word(bytes.len() as u64);
    }

    fn failures(&mut self, failures: &[FamilyFailure]) {
        self.word(failures.len() as u64);
        for f in failures {
            self.bytes(f.family_name.as_bytes());
            self.bytes(f.kind.to_string().as_bytes());
        }
    }

    fn ranking(&mut self, ranking: &Ranking) {
        self.word(ranking.rows.len() as u64);
        for row in &ranking.rows {
            self.bytes(row.family_name.as_bytes());
            self.word(row.sse.to_bits());
            self.word(row.r2_adj.to_bits());
        }
        self.failures(&ranking.failures);
    }
}

fn fleet_output(
    outcomes: &[CellOutcome],
    n_families: usize,
) -> Result<(Fingerprint, Output), String> {
    let mut fp = Fingerprint::new();
    let mut job_failures = 0;
    let mut winner_r2 = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            CellOutcome::Ranked(ranking) => {
                fp.word(0);
                fp.ranking(ranking);
                job_failures += ranking.failures.len() as u64;
                winner_r2.extend(ranking.rows.first().map(|r| r.r2_adj));
            }
            CellOutcome::Quarantined { failures } => {
                fp.word(1);
                fp.failures(failures);
                job_failures += failures.len() as u64;
            }
            CellOutcome::Stopped(e) => return Err(format!("fleet cell stopped: {e}")),
        }
    }
    let out = Output {
        digest: 0,
        units: outcomes.len() as u64,
        jobs: (outcomes.len() * n_families) as u64,
        job_failures,
        winner_r2,
    };
    Ok((fp, out))
}

/// A workload's generated inputs and constructed families.
#[derive(Debug)]
pub struct Setup {
    workload: Workload,
    seed: u64,
    mixtures: Vec<MixtureFamily>,
    /// One input set per distinct operation: a single curve, or a grid's
    /// cells.
    inputs: Vec<Vec<PerformanceSeries>>,
    policy: ExecPolicy,
    /// Length of the last JSONL log, so the next traced pass allocates its
    /// buffer at its final size instead of doubling its way there.
    jsonl_len: Cell<usize>,
}

impl Setup {
    /// Generates `workload`'s inputs for `seed` and constructs its
    /// families.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let (inputs, mixtures, policy) = match workload {
            Workload::RecessionRank => (
                inputs::recessions(seed)
                    .into_iter()
                    .map(|s| vec![s])
                    .collect(),
                MixtureFamily::paper_combinations(),
                ExecPolicy::default(),
            ),
            Workload::ScenarioFleet => (
                vec![inputs::generate(&inputs::full_grid(seed))],
                Vec::new(),
                ExecPolicy::default(),
            ),
            Workload::BootstrapBand => (
                vec![vec![inputs::recession(Recession::R1990_93, seed, 0)]],
                Vec::new(),
                ExecPolicy::default(),
            ),
            Workload::TracedChaosFleet => (
                (0..inputs::CHAOS_DRAWS)
                    .map(|d| inputs::generate(&inputs::ci_grid(seed, d)))
                    .collect(),
                Vec::new(),
                inputs::chaos_policy(),
            ),
        };
        Setup {
            workload,
            seed,
            mixtures,
            inputs,
            policy,
            jsonl_len: Cell::new(0),
        }
    }

    /// The families each operation fits.
    #[must_use]
    pub fn families(&self) -> Vec<&dyn ModelFamily> {
        let mut families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
        match self.workload {
            Workload::RecessionRank => {
                families.extend(self.mixtures.iter().map(|m| m as &dyn ModelFamily));
            }
            Workload::ScenarioFleet => families.push(&QuarticFamily),
            Workload::BootstrapBand => families.truncate(1),
            Workload::TracedChaosFleet => {}
        }
        families
    }

    /// Number of distinct operations. Operation `i` uses input set
    /// `i % cycle()`.
    #[must_use]
    pub fn cycle(&self) -> usize {
        self.inputs.len()
    }

    /// Runs operation `i` with the given library fan-out, recording a span
    /// around each call into a layer.
    ///
    /// # Errors
    ///
    /// Returns the library's error, or a description of an output that
    /// could not be produced (a stopped fleet cell, a dropped log line).
    pub fn call(
        &self,
        i: usize,
        parallelism: Parallelism,
        tracer: &mut Tracer,
    ) -> Result<Output, String> {
        let families = self.families();
        let config = fit_config(parallelism);
        let series = &self.inputs[i % self.inputs.len()];
        match self.workload {
            Workload::RecessionRank => {
                let ranking = tracer
                    .span("runtime.rank_models", || {
                        rank_models(&families, &series[0], &config)
                    })
                    .map_err(|e| e.to_string())?;
                let mut fp = Fingerprint::new();
                fp.ranking(&ranking);
                Ok(Output {
                    digest: fp.0,
                    units: 1,
                    jobs: families.len() as u64,
                    job_failures: ranking.failures.len() as u64,
                    winner_r2: ranking.rows.first().map(|r| r.r2_adj).into_iter().collect(),
                })
            }
            Workload::ScenarioFleet => {
                let outcomes = tracer.span("runtime.rank_fleet_supervised", || {
                    rank_fleet_supervised(
                        &families,
                        series,
                        &config,
                        &self.policy,
                        &Control::unbounded(),
                    )
                });
                let (fp, out) = fleet_output(&outcomes, families.len())?;
                Ok(Output {
                    digest: fp.0,
                    ..out
                })
            }
            Workload::BootstrapBand => {
                let band = tracer
                    .span("bootstrap.bootstrap_band", || {
                        bootstrap_band(
                            &QuadraticFamily,
                            &series[0],
                            &config,
                            &inputs::bootstrap_config(self.seed, parallelism),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let mut fp = Fingerprint::new();
                for v in band.lower.iter().chain(&band.upper) {
                    fp.word(v.to_bits());
                }
                fp.word(band.replicates as u64);
                fp.word(band.failed as u64);
                Ok(Output {
                    digest: fp.0,
                    units: 1,
                    jobs: (band.replicates + band.failed) as u64,
                    job_failures: band.failed as u64,
                    winner_r2: Vec::new(),
                })
            }
            Workload::TracedChaosFleet => self.chaos_pass(&families, series, &config, tracer),
        }
    }

    fn chaos_pass(
        &self,
        families: &[&dyn ModelFamily],
        series: &[PerformanceSeries],
        config: &FitConfig,
        tracer: &mut Tracer,
    ) -> Result<Output, String> {
        let sink = Arc::new(JsonlObserver::new(Vec::with_capacity(self.jsonl_len.get())));
        let outcomes = tracer.span("runtime.rank_fleet_supervised", || {
            let control = Control::unbounded().observe(sink.clone());
            quiet_panics(|| rank_fleet_supervised(families, series, config, &self.policy, &control))
        });
        let (bytes, dropped) = Arc::try_unwrap(sink)
            .map_err(|_| "JSONL sink still shared after the pass".to_string())?
            .into_parts();
        if dropped > 0 {
            return Err(format!("{dropped} JSONL lines dropped"));
        }
        self.jsonl_len.set(self.jsonl_len.get().max(bytes.len()));
        let text = String::from_utf8(bytes).map_err(|e| format!("JSONL is not UTF-8: {e}"))?;
        let events = tracer
            .span("obs.parse_log", || parse_log(&text))
            .map_err(|e| e.to_string())?;
        let report = tracer.span("obs.RunReport::from_events", || {
            RunReport::from_events(events.iter().copied())
        });
        let tree = tracer.span("obs.SpanTree::build", || SpanTree::build(&events));
        let metrics = tracer.span("obs.MetricsSnapshot::render", || {
            MetricsSnapshot::from_report(&report).render()
        });
        let (mut fp, out) = fleet_output(&outcomes, families.len())?;
        fp.bytes(text.as_bytes());
        fp.bytes(metrics.as_bytes());
        fp.word(tree.cells.len() as u64);
        Ok(Output {
            digest: fp.0,
            ..out
        })
    }

    /// Every distinct operation run serially, after the timed loop: the
    /// reference each timed output must match bit for bit. For
    /// `bootstrap-band` the reference also carries the adjusted R² of the
    /// base fit the band is built around.
    ///
    /// # Errors
    ///
    /// Returns the first operation that fails serially.
    pub fn reference(&self) -> Result<Vec<Output>, String> {
        (0..self.cycle())
            .map(|i| {
                let mut out = self.call(i, Parallelism::Serial, &mut Tracer::off())?;
                if self.workload == Workload::BootstrapBand {
                    let series = &self.inputs[0][0];
                    let fit = fit_least_squares(
                        &QuadraticFamily,
                        series,
                        &fit_config(Parallelism::Serial),
                    )
                    .map_err(|e| e.to_string())?;
                    let r2 = r2_adjusted(fit.model.as_ref(), series, QuadraticFamily.n_params())
                        .map_err(|e| e.to_string())?;
                    out.winner_r2.push(r2);
                }
                Ok(out)
            })
            .collect()
    }
}
