//! `perf`: the repository benchmark.
//!
//! ```sh
//! cargo run --release -q --manifest-path perf/Cargo.toml
//! cargo run --release -q --manifest-path perf/Cargo.toml -- \
//!     --workload recession-rank --seed 42 --seconds 5 --trace 0
//! ```
//!
//! With `--workload`, one run of that workload: `--trace 0` measures the
//! end-to-end metrics in a closed loop for `--seconds` seconds, `--trace 1`
//! replays a tenth of that with spans and runs the per-layer probes. Either
//! prints notes as `# ` lines and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--seconds 0` runs the
//! smallest complete version of each (one set-up, one cycle, one of each
//! probe). The exit code is 0 only when every output matched the serial
//! reference.
//!
//! Without `--workload`, each workload runs in its own child process, first
//! untraced and then traced, and the metrics are printed as two tables.

use resilience_perf::heap;
use resilience_perf::json::{self, Json};
use resilience_perf::run::{end_to_end, traced};
use resilience_perf::workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode, Stdio};

/// The system allocator, with every size change reported to
/// [`heap`] for the `peak_heap_mb` metric.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` correctly; the only addition is updating two
// atomic counters, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            heap::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            heap::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        heap::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                heap::grew(new_size - layout.size());
            } else {
                heap::shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Run length when none is given (matches `run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 5;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: resilience_perf::inputs::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Runs one workload as a child process and returns its result line.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start perf: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    let result = json::parse(last).map_err(|e| format!("{}: {e}", workload.name()))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: run failed: {last}", workload.name()));
    }
    Ok(result)
}

/// Prints one table: a row per metric, a column per workload.
fn table(title: &str, results: &[(Workload, Json)]) {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (_, result) in results {
        for (name, metric) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            if !rows.iter().any(|(n, _)| n == name) {
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                rows.push((name.clone(), unit.to_string()));
            }
        }
    }
    println!("\n{title}");
    print!("{:<40} {:<6}", "metric", "unit");
    for (w, _) in results {
        print!(" {:>19}", w.name());
    }
    println!();
    for (name, unit) in rows {
        print!("{name:<40} {unit:<6}");
        for (_, result) in results {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(&name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            match value {
                Some(v) => print!(" {v:>19.6}"),
                None => print!(" {:>19}", "-"),
            }
        }
        println!();
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for trace in [false, true] {
        let mut results = Vec::new();
        for w in Workload::ALL {
            match child(args, w, trace) {
                Ok(result) => results.push((w, result)),
                Err(e) => {
                    eprintln!("perf: {e}");
                    ok = false;
                }
            }
        }
        let title = if trace {
            "per-layer metrics (traced runs)".to_string()
        } else {
            format!(
                "end-to-end metrics (seed {}, {} s per workload)",
                args.seed, args.seconds
            )
        };
        table(&title, &results);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let result = if args.trace {
        traced(workload, args.seed, args.seconds)
    } else {
        end_to_end(workload, args.seed, args.seconds)
    };
    for note in &result.notes {
        println!("# {note}");
    }
    println!("{}", result.to_json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
