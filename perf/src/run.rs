//! One benchmark run: the timed closed loop (end-to-end metrics) or the
//! traced replay plus probes (per-layer metrics), checked against a serial
//! reference and reported as one JSON line.

use crate::clock::{time_ns, Stopwatch};
use crate::heap;
use crate::json::quote;
use crate::probes::{self, Reps};
use crate::rss::peak_rss_mib;
use crate::stats::{p50, p90};
use crate::trace::Tracer;
use crate::workloads::{workers, Output, Setup, Workload};
use resilience_optim::Parallelism;
use std::fmt::Write as _;

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The traced replay runs this share of the timed loop's length.
const REPLAY_SHARE: f64 = 0.1;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every operation matched the serial reference.
    pub correct: bool,
    /// Operations run.
    pub attempted: u64,
    /// Operations that errored or differed from the reference.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    fn broken(what: String) -> RunResult {
        RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: vec![what],
        }
    }

    /// The result as the single JSON line a run ends with.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(&m.name),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Timed operations of one loop: which input each used and its output
/// fingerprint (`None` when the call errored).
#[derive(Default)]
struct Calls {
    inputs: Vec<usize>,
    digests: Vec<Option<u64>>,
    units: u64,
    first_error: Option<String>,
}

impl Calls {
    fn record(&mut self, input: usize, result: Result<Output, String>) {
        self.inputs.push(input);
        match result {
            Ok(out) => {
                self.units += out.units;
                self.digests.push(Some(out.digest));
            }
            Err(e) => {
                self.first_error.get_or_insert(e);
                self.digests.push(None);
            }
        }
    }

    /// Operations whose output differs from `reference`.
    fn mismatches(&self, reference: &[Output]) -> u64 {
        self.inputs
            .iter()
            .zip(&self.digests)
            .filter(|(&i, d)| **d != Some(reference[i].digest))
            .count() as u64
    }
}

fn fail_note(reference: &[Output]) -> String {
    let jobs: u64 = reference.iter().map(|o| o.jobs).sum();
    let failures: u64 = reference.iter().map(|o| o.job_failures).sum();
    format!("fail_frac={failures}/{jobs}")
}

/// The closed loop: set up `workload` several times (input generation,
/// family construction, one warm-up cycle), then run whole cycles of its
/// operation from one client thread until `seconds` have passed, then
/// check every output against a serial reference. `seconds == 0` runs one
/// set-up and one cycle.
#[must_use]
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let parallel = Parallelism::Fixed(workers());
    let mut off = Tracer::off();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if seconds == 0 { 1 } else { SETUP_REPS } {
        // Free the previous set-up first so repeats do not stack memory.
        drop(setup.take());
        let watch = Stopwatch::start();
        let s = Setup::new(workload, seed);
        for i in 0..s.cycle() {
            if let Err(e) = s.call(i, parallel, &mut off) {
                return RunResult::broken(format!("warm-up call {i} failed: {e}"));
            }
        }
        setup_s.push(watch.elapsed_s());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let mut calls = Calls::default();
    let mut latency_ms = Vec::new();
    // Peak heap is read after the first timed cycle: every cycle does the
    // same work, and later the loop's own per-call records, which grow
    // with the number of calls and so with speed, would count too.
    let mut peak_heap = None;
    heap::reset_peak();
    let watch = Stopwatch::start();
    loop {
        for i in 0..setup.cycle() {
            let (result, ns) = time_ns(|| setup.call(i, parallel, &mut off));
            latency_ms.push(ns as f64 / 1e6);
            calls.record(i, result);
        }
        if peak_heap.is_none() {
            peak_heap = Some(heap::peak_bytes());
        }
        if seconds == 0 || watch.elapsed_s() >= seconds as f64 {
            break;
        }
    }
    let loop_s = watch.elapsed_s();
    let peak_heap = peak_heap.flatten();

    let reference = match setup.reference() {
        Ok(r) => r,
        Err(e) => return RunResult::broken(format!("serial reference failed: {e}")),
    };
    let failed = calls.mismatches(&reference);
    let r2: Vec<f64> = reference
        .iter()
        .flat_map(|o| o.winner_r2.iter().copied())
        .collect();
    // Per-call latency is printed but not gated: across ten runs of one
    // commit its median spread by up to 26% and its p90 by up to 27% as
    // the shared host's vCPUs changed speed from one minute to the next.
    // With one client in a closed loop, throughput carries the same
    // information as a mean over every call, and it spread less.
    let mut notes = vec![format!(
        "{} seed={seed} workers={} calls={} units={} loop_s={loop_s:.3} \
         latency_p50_ms={} latency_p90_ms={} {}",
        workload.name(),
        workers(),
        latency_ms.len(),
        calls.units,
        p50(&latency_ms).expect("at least one call"),
        p90(&latency_ms).expect("at least one call"),
        fail_note(&reference),
    )];
    notes.extend(
        calls
            .first_error
            .clone()
            .map(|e| format!("first error: {e}")),
    );

    let mut metrics = vec![
        Metric {
            name: "throughput_per_s".into(),
            value: calls.units as f64 / loop_s,
            unit: "op/s",
        },
        Metric {
            name: "r2_adj_mean".into(),
            value: r2.iter().sum::<f64>() / r2.len().max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "setup_s".into(),
            value: p50(&setup_s).expect("at least one set-up"),
            unit: "s",
        },
    ];
    match peak_heap {
        Some(bytes) => metrics.push(Metric {
            name: "peak_heap_mb".into(),
            value: bytes as f64 / (1024.0 * 1024.0),
            unit: "MiB",
        }),
        None => notes.push("peak_heap_mb unavailable: no counting allocator installed".into()),
    }
    notes.push(match peak_rss_mib() {
        Ok(mib) => format!("peak_rss_mb={mib}"),
        Err(reason) => format!("peak_rss_mb unavailable: {reason}"),
    });
    RunResult {
        correct: failed == 0,
        attempted: latency_ms.len() as u64,
        failed,
        metrics,
        notes,
    }
}

/// Where a traced run writes its spans.
#[must_use]
pub fn span_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.json", workload.name()))
}

/// The traced run: replays a tenth of the closed loop's length with a span
/// around every call into a layer, alternating each traced operation with
/// an untraced one to measure what the spans cost, then runs the
/// decomposition probes, checks the replay against the serial reference
/// and writes the spans out.
#[must_use]
pub fn traced(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let parallel = Parallelism::Fixed(workers());
    let mut tracer = Tracer::on(workload.name());
    let mut off = Tracer::off();
    let setup = tracer.span("data.Setup::new", || Setup::new(workload, seed));
    for i in 0..setup.cycle() {
        if let Err(e) = setup.call(i, parallel, &mut off) {
            return RunResult::broken(format!("warm-up call {i} failed: {e}"));
        }
    }

    let mut calls = Calls::default();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let budget_ns = seconds as f64 * REPLAY_SHARE * 1e9;
    loop {
        for i in 0..setup.cycle() {
            tracer.begin("bench.op");
            let (result, ns) = time_ns(|| setup.call(i, parallel, &mut tracer));
            tracer.end();
            traced_ns.push(ns as f64);
            calls.record(i, result);
            let (result, ns) = time_ns(|| setup.call(i, parallel, &mut off));
            untraced_ns.push(ns as f64);
            calls.record(i, result);
        }
        if traced_ns.iter().sum::<f64>() >= budget_ns {
            break;
        }
    }

    let reps = if seconds == 0 {
        Reps::SMOKE
    } else {
        Reps::FULL
    };
    let mut metrics = probes::run(seed, reps, &mut tracer);
    metrics.push(Metric {
        name: "trace.overhead_frac".into(),
        value: p50(&traced_ns).expect("samples") / p50(&untraced_ns).expect("samples") - 1.0,
        unit: "ratio",
    });

    let reference = match setup.reference() {
        Ok(r) => r,
        Err(e) => return RunResult::broken(format!("serial reference failed: {e}")),
    };
    let failed = calls.mismatches(&reference);
    let mut notes = vec![format!(
        "{} seed={seed} workers={} traced_calls={} {}",
        workload.name(),
        workers(),
        traced_ns.len(),
        fail_note(&reference),
    )];
    notes.extend(
        calls
            .first_error
            .clone()
            .map(|e| format!("first error: {e}")),
    );

    let layers = tracer.layer_self_ns();
    let total: u64 = layers.iter().map(|(_, ns)| ns).sum();
    let mut share = String::from("span self time by layer:");
    for (layer, ns) in &layers {
        let _ = write!(
            share,
            " {layer}={:.1}%",
            *ns as f64 * 100.0 / total.max(1) as f64
        );
    }
    notes.push(share);
    let path = span_path(workload, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.to_json()));
    notes.push(match written {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });

    RunResult {
        correct: failed == 0,
        attempted: calls.digests.len() as u64,
        failed,
        metrics,
        notes,
    }
}
