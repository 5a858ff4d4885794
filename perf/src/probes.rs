//! Decomposition probes behind the per-layer metrics.
//!
//! Each probe calls one layer's public entry points directly on the
//! 1990-93 curve, the 360-cell grid or the 64-cell chaos grid, so its
//! number can be set against the end-to-end metric it should move (the
//! dictionary in the crate README names the pairs). Times are medians of
//! repeated calls; work counts come from an observed call and repeat
//! exactly.

use crate::clock::time_ns;
use crate::inputs;
use crate::run::Metric;
use crate::stats::p50;
use crate::trace::Tracer;
use crate::workloads::{fit_config, quiet_panics, workers};
use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::bootstrap::bootstrap_band;
use resilience_core::fit::{fit_least_squares, fit_least_squares_with, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_fleet_supervised, Control, ExecPolicy};
use resilience_core::selection::rank_models;
use resilience_data::recessions::Recession;
use resilience_data::PerformanceSeries;
use resilience_math::linalg::Matrix;
use resilience_math::sum::sum_squared_diff;
use resilience_obs::{
    parse_log, CounterId, Event, JsonlObserver, MetricsSnapshot, Observer, RecordingObserver,
    RunReport, SpanTree,
};
use resilience_optim::Parallelism;
use std::sync::Arc;

/// Points scored per call by the batched SSE probe (the library's batch
/// width).
const BATCH: usize = 8;

/// Repetition counts for the probes.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Calls per timed probe of a single fit, ranking or observer pass.
    pub calls: usize,
    /// Passes per timed probe of the 360-cell fleet.
    pub fleet_passes: usize,
    /// Timed batches per kernel probe.
    pub kernel_batches: usize,
}

impl Reps {
    /// Full repetition counts.
    pub const FULL: Reps = Reps {
        calls: 5,
        fleet_passes: 2,
        kernel_batches: 5,
    };
    /// One of everything: exercises every probe at the smallest cost.
    pub const SMOKE: Reps = Reps {
        calls: 1,
        fleet_passes: 1,
        kernel_batches: 1,
    };
}

fn slug(family: &dyn ModelFamily) -> String {
    family.name().to_ascii_lowercase().replace(' ', "-")
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| time_ns(&mut f).1 as f64 / 1e6)
        .collect();
    p50(&samples).expect("at least one sample")
}

/// Nanoseconds per call of a cheap kernel: batches are doubled until one
/// takes a millisecond, then the median batch is divided by its length.
fn kernel_ns(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    while iters < 1 << 20 && time_ns(|| (0..iters).for_each(|_| f())).1 < 1_000_000 {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..batches.max(1))
        .map(|_| time_ns(|| (0..iters).for_each(|_| f())).1 as f64 / iters as f64)
        .collect();
    p50(&samples).expect("at least one sample")
}

fn counter(report: &RunReport, id: CounterId) -> u64 {
    report
        .counters
        .iter()
        .find(|(c, _)| *c == id)
        .map_or(0, |(_, v)| *v)
}

struct Probes<'t> {
    reps: Reps,
    seed: u64,
    tracer: &'t mut Tracer,
    metrics: Vec<Metric>,
}

impl Probes<'_> {
    fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// `model.F.*`: one objective-sized kernel call at the fitted optimum.
    /// Families without a batched or analytic kernel are timed on the path
    /// the library falls back to: scalar scoring point by point, and one
    /// forward-difference prediction per parameter.
    fn model(&mut self, family: &dyn ModelFamily, params: &[f64], series: &PerformanceSeries) {
        let (ts, ys) = (series.times(), series.values());
        let internal = family
            .params_to_internal(params)
            .expect("a fitted optimum maps back to the internal space");
        let p = internal.len();
        let name = slug(family);
        let batches = self.reps.kernel_batches;
        let mut predicted = vec![0.0; ts.len()];
        let mut scratch = vec![0.0; p];

        let predict_ns = self.tracer.span("model.predict_params_into", || {
            kernel_ns(batches, || {
                std::hint::black_box(family.predict_params_into(params, ts, &mut predicted));
            })
        });

        let points: Vec<f64> = (0..BATCH)
            .flat_map(|k| internal.iter().map(move |u| u + 1e-4 * k as f64))
            .collect();
        let mut sse = [0.0; BATCH];
        let batched = family.sse_batch_into(&points, ts, ys, &mut sse);
        let sse_ns = self.tracer.span("model.sse_batch_into", || {
            kernel_ns(batches, || {
                if batched {
                    family.sse_batch_into(&points, ts, ys, &mut sse);
                } else {
                    for (out, point) in sse.iter_mut().zip(points.chunks_exact(p)) {
                        family.internal_to_params_into(point, &mut scratch);
                        *out = if family.predict_params_into(&scratch, ts, &mut predicted) {
                            sum_squared_diff(ys, &predicted)
                        } else {
                            f64::INFINITY
                        };
                    }
                }
                std::hint::black_box(&sse);
            })
        });

        let mut jacobian = Matrix::zeros(ts.len(), p);
        let analytic = family.predict_jacobian_into(&internal, params, ts, &mut jacobian);
        let mut bumped = internal.clone();
        let jacobian_ns = self.tracer.span("model.predict_jacobian_into", || {
            kernel_ns(batches, || {
                if analytic {
                    family.predict_jacobian_into(&internal, params, ts, &mut jacobian);
                } else {
                    for j in 0..p {
                        bumped.copy_from_slice(&internal);
                        bumped[j] += 1e-7 * internal[j].abs().max(1.0);
                        family.internal_to_params_into(&bumped, &mut scratch);
                        family.predict_params_into(&scratch, ts, &mut predicted);
                    }
                }
                std::hint::black_box(&jacobian);
                std::hint::black_box(&predicted);
            })
        });

        self.push(format!("model.{name}.predict_ns"), predict_ns, "ns");
        self.push(format!("model.{name}.sse_batch8_ns"), sse_ns, "ns");
        self.push(format!("model.{name}.jacobian_ns"), jacobian_ns, "ns");
    }

    /// `fit.F.*`: serial fits with and without the LM polish, and the work
    /// counts of one observed fit. Returns the polished fit time and
    /// parameters.
    fn fit(&mut self, family: &dyn ModelFamily, series: &PerformanceSeries) -> (f64, Vec<f64>) {
        let serial = fit_config(Parallelism::Serial);
        let no_polish = FitConfig {
            lm_polish: false,
            ..serial.clone()
        };
        let calls = self.reps.calls;
        let fit_once = |config: &FitConfig| {
            fit_least_squares(family, series, config).expect("paper families fit 1990-93")
        };
        let ms = self.tracer.span("fit.fit_least_squares", || {
            median_ms(calls, || drop(fit_once(&serial)))
        });
        let nm_ms = self.tracer.span("fit.fit_least_squares", || {
            median_ms(calls, || drop(fit_once(&no_polish)))
        });

        let recorder = Arc::new(RecordingObserver::new());
        let fit = self.tracer.span("fit.fit_least_squares_with", || {
            fit_least_squares_with(
                family,
                series,
                &serial,
                &Control::unbounded().observe(recorder.clone()),
            )
            .expect("paper families fit 1990-93")
        });
        let events = recorder.take();
        let evals = counter(
            &RunReport::from_events(events.iter().copied()),
            CounterId::ObjectiveEvals,
        );
        let winner_evals = events
            .iter()
            .find_map(|e| match e {
                Event::FitFinished { evaluations, .. } => Some(*evaluations),
                _ => None,
            })
            .unwrap_or(0);

        let name = slug(family);
        self.push(format!("fit.{name}.ms"), ms, "ms");
        self.push(format!("fit.{name}.nm_ms"), nm_ms, "ms");
        self.push(format!("fit.{name}.evals"), evals as f64, "count");
        self.push(
            format!("fit.{name}.winner_evals"),
            winner_evals as f64,
            "count",
        );
        self.push(
            format!("fit.{name}.useful_frac"),
            winner_evals as f64 / evals.max(1) as f64,
            "ratio",
        );
        (ms, fit.params)
    }

    /// Serial and `Fixed(workers)` medians of one operation.
    fn serial_and_parallel(
        &mut self,
        name: &'static str,
        reps: usize,
        f: impl Fn(Parallelism),
    ) -> (f64, f64) {
        let w = workers();
        self.tracer.span(name, || {
            (
                median_ms(reps, || f(Parallelism::Serial)),
                median_ms(reps, || f(Parallelism::Fixed(w))),
            )
        })
    }

    fn efficiency(&mut self, workload: &str, serial_ms: f64, parallel_ms: f64) {
        self.push(
            format!("parallel.{workload}.efficiency"),
            serial_ms / (workers() as f64 * parallel_ms),
            "ratio",
        );
    }

    /// `obs.*` and `runtime.*` counts from the chaos fleet: the pass with
    /// no observer, a recording one and a JSONL one, then each stage of
    /// the log pipeline over the JSONL text.
    fn chaos(&mut self) {
        let cells = inputs::generate(&inputs::ci_grid(self.seed, 0));
        let families: [&dyn ModelFamily; 2] = [&QuadraticFamily, &CompetingRisksFamily];
        let policy = inputs::chaos_policy();
        let config = fit_config(Parallelism::Fixed(workers()));
        let pass = |observer: Option<Arc<dyn Observer>>| {
            let control = match observer {
                Some(o) => Control::unbounded().observe(o),
                None => Control::unbounded(),
            };
            quiet_panics(|| rank_fleet_supervised(&families, &cells, &config, &policy, &control))
        };

        let (mut none, mut recording, mut jsonl) = (Vec::new(), Vec::new(), Vec::new());
        let mut events = Vec::new();
        let mut text = String::new();
        self.tracer.begin("runtime.rank_fleet_supervised");
        for _ in 0..self.reps.calls * 2 + 1 {
            none.push(time_ns(|| pass(None)).1 as f64);
            let recorder = Arc::new(RecordingObserver::new());
            recording.push(time_ns(|| pass(Some(recorder.clone()))).1 as f64);
            events = recorder.take();
            let sink = Arc::new(JsonlObserver::new(Vec::new()));
            jsonl.push(time_ns(|| pass(Some(sink.clone()))).1 as f64);
            let bytes = Arc::try_unwrap(sink)
                .map_err(|_| ())
                .expect("the pass released the sink")
                .into_inner();
            text = String::from_utf8(bytes).expect("JSONL is UTF-8");
        }
        self.tracer.end();
        let base = p50(&none).expect("samples");
        self.push(
            "obs.recording_overhead_frac".into(),
            p50(&recording).expect("samples") / base - 1.0,
            "ratio",
        );
        self.push(
            "obs.jsonl_overhead_frac".into(),
            p50(&jsonl).expect("samples") / base - 1.0,
            "ratio",
        );

        let report = RunReport::from_events(events.iter().copied());
        for (name, id) in [
            ("runtime.retries", CounterId::Retries),
            ("runtime.breaker_opened", CounterId::BreakerOpened),
            ("runtime.cells_quarantined", CounterId::CellsQuarantined),
            ("runtime.chaos_injected", CounterId::ChaosInjected),
        ] {
            self.push(name.into(), counter(&report, id) as f64, "count");
        }
        let n_cells = cells.len() as f64;
        self.push(
            "obs.events_per_cell".into(),
            events.len() as f64 / n_cells,
            "count",
        );
        self.push(
            "obs.jsonl_bytes_per_cell".into(),
            text.len() as f64 / n_cells,
            "B",
        );

        let calls = self.reps.calls;
        let parsed = parse_log(&text).expect("the library's own log parses");
        let n_events = parsed.len().max(1) as f64;
        let parse_ms = self.tracer.span("obs.parse_log", || {
            median_ms(calls, || drop(parse_log(&text)))
        });
        let report_ms = self.tracer.span("obs.RunReport::from_events", || {
            median_ms(calls, || {
                drop(RunReport::from_events(parsed.iter().copied()))
            })
        });
        let tree_ms = self.tracer.span("obs.SpanTree::build", || {
            median_ms(calls, || drop(SpanTree::build(&parsed)))
        });
        let render_ms = self.tracer.span("obs.MetricsSnapshot::render", || {
            median_ms(calls, || {
                drop(MetricsSnapshot::from_report(&report).render())
            })
        });
        self.push(
            "obs.parse_ns_per_event".into(),
            parse_ms * 1e6 / n_events,
            "ns",
        );
        self.push(
            "obs.report_ns_per_event".into(),
            report_ms * 1e6 / n_events,
            "ns",
        );
        self.push(
            "obs.span_tree_ns_per_event".into(),
            tree_ms * 1e6 / n_events,
            "ns",
        );
        self.push("obs.render_us".into(), render_ms * 1e3, "us");
    }
}

/// Runs every probe and returns the per-layer metrics in dictionary order
/// (without the replay's `trace.overhead_frac`, which the traced run adds).
#[must_use]
pub fn run(seed: u64, reps: Reps, tracer: &mut Tracer) -> Vec<Metric> {
    tracer.workload = "probes";
    let mut probes = Probes {
        reps,
        seed,
        tracer,
        metrics: Vec::new(),
    };
    let series = inputs::recession(Recession::R1990_93, seed, 0);
    let mixtures = MixtureFamily::paper_combinations();
    let mut families: Vec<&dyn ModelFamily> =
        vec![&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    families.extend(mixtures.iter().map(|m| m as &dyn ModelFamily));

    let fits: Vec<(f64, Vec<f64>)> = families.iter().map(|f| probes.fit(*f, &series)).collect();
    for (family, (_, params)) in families.iter().zip(&fits) {
        probes.model(*family, params, &series);
    }
    let quadratic_ms = fits[0].0;
    let paper_fits_ms: f64 = families
        .iter()
        .zip(&fits)
        .filter(|(f, _)| f.name() != QuarticFamily.name())
        .map(|(_, (ms, _))| ms)
        .sum();

    // parallel.*: one operation of each workload, serial vs Fixed(workers).
    let paper: Vec<&dyn ModelFamily> = families
        .iter()
        .copied()
        .filter(|f| f.name() != QuarticFamily.name())
        .collect();
    let (rank_serial, rank_parallel) =
        probes.serial_and_parallel("runtime.rank_models", reps.calls, |p| {
            drop(rank_models(&paper, &series, &fit_config(p)));
        });
    probes.efficiency("recession-rank", rank_serial, rank_parallel);

    let grid = inputs::generate(&inputs::full_grid(seed));
    let fleet_families: [&dyn ModelFamily; 3] =
        [&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily];
    let (fleet_serial, fleet_parallel) =
        probes.serial_and_parallel("runtime.rank_fleet_supervised", reps.fleet_passes, |p| {
            drop(rank_fleet_supervised(
                &fleet_families,
                &grid,
                &fit_config(p),
                &ExecPolicy::default(),
                &Control::unbounded(),
            ));
        });
    probes.efficiency("scenario-fleet", fleet_serial, fleet_parallel);

    let band_calls = reps.calls * 2;
    let band = |p: Parallelism| {
        bootstrap_band(
            &QuadraticFamily,
            &series,
            &fit_config(p),
            &inputs::bootstrap_config(seed, p),
        )
        .expect("the 1990-93 quadratic band builds")
    };
    let (band_serial, band_parallel) =
        probes.serial_and_parallel("bootstrap.bootstrap_band", band_calls, |p| drop(band(p)));
    probes.efficiency("bootstrap-band", band_serial, band_parallel);

    // runtime: a serial fleet pass against the bare fits of the same jobs.
    let serial = fit_config(Parallelism::Serial);
    let bare = probes.tracer.span("fit.fit_least_squares", || {
        median_ms(reps.fleet_passes, || {
            for cell in &grid {
                for family in fleet_families {
                    drop(fit_least_squares(family, cell, &serial));
                }
            }
        })
    });
    probes.push(
        "runtime.supervision_overhead_frac".into(),
        fleet_serial / bare - 1.0,
        "ratio",
    );
    probes.chaos();

    let replicates = inputs::bootstrap_config(seed, Parallelism::Serial).replicates as f64;
    let coverage = band(Parallelism::Serial)
        .coverage(&series)
        .expect("band and series share the grid");
    probes.push("bootstrap.base_fit_ms".into(), quadratic_ms, "ms");
    probes.push(
        "bootstrap.replicate_us".into(),
        (band_serial - quadratic_ms) * 1e3 / replicates,
        "us",
    );
    probes.push("bootstrap.band_coverage".into(), coverage, "ratio");

    let (generate_ms, points) = probes.tracer.span("data.ScenarioSpec::generate", || {
        let mut points = 0;
        let ms = median_ms(reps.calls, || {
            let cells = inputs::generate(&inputs::full_grid(seed));
            let curves = inputs::recessions(seed);
            points = cells
                .iter()
                .chain(&curves)
                .map(PerformanceSeries::len)
                .sum();
        });
        (ms, points)
    });
    probes.push(
        "data.generate_ns_per_point".into(),
        generate_ms * 1e6 / points as f64,
        "ns",
    );
    probes.push(
        "trace.rank_reconcile_frac".into(),
        paper_fits_ms / rank_serial - 1.0,
        "ratio",
    );
    probes.metrics
}
