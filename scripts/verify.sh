#!/usr/bin/env sh
# Full offline verification: build, tests, formatting, lints.
# Run from the repository root. Fails fast on the first broken step.
#
# Test invocations run under a hard wall-clock timeout (the same
# execution-deadline discipline the library applies to itself, DESIGN.md
# §9): a hanging test kills the verification run with a clear signal
# instead of stalling CI until the job-level timeout reaps it.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Hard wall-clock caps (seconds): generous for the full suite, tight for
# the smoke suite. `timeout -k` follows the TERM with a KILL in case a
# test ignores the first signal.
TEST_TIMEOUT=1200
SMOKE_TIMEOUT=300

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace (hard cap ${TEST_TIMEOUT}s)"
timeout -k 30 "$TEST_TIMEOUT" cargo test -q --workspace

echo "==> cargo test -q --test fault_injection --test golden_oracle (hard cap ${TEST_TIMEOUT}s)"
timeout -k 30 "$TEST_TIMEOUT" cargo test -q --test fault_injection --test golden_oracle

echo "==> cargo test -q --test runtime_resilience (smoke, hard cap ${SMOKE_TIMEOUT}s)"
timeout -k 30 "$SMOKE_TIMEOUT" cargo test -q --test runtime_resilience

echo "==> telemetry smoke: traced example -> JSONL log -> obsctl report (hard cap ${SMOKE_TIMEOUT}s)"
EVENT_LOG_SMOKE="$(mktemp -t event_log_smoke.XXXXXX.jsonl)"
OBS_SMOKE_DIR="$(mktemp -d -t obs_smoke.XXXXXX)"
trap 'rm -f "$EVENT_LOG_SMOKE"; rm -rf "$OBS_SMOKE_DIR"' EXIT
EVENT_LOG_PATH="$EVENT_LOG_SMOKE" timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release --example traced_ranking > /dev/null
test -s "$EVENT_LOG_SMOKE" || {
    echo "telemetry smoke: example wrote no event log" >&2
    exit 1
}
# The log must parse and replay into a report (obsctl exits 2 on a
# malformed line), and the report must cover the example's family pool.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- report "$EVENT_LOG_SMOKE" \
    | grep -q "Quadratic" || {
    echo "telemetry smoke: obsctl report missing expected family row" >&2
    exit 1
}

echo "==> bench smoke: serial vs Fixed(2) identical + evals-per-fit ceiling (hard cap ${SMOKE_TIMEOUT}s)"
# One fast rank_models pass (DESIGN.md §11): fails when the parallel
# output is not bit-identical to the serial one, or when the median
# evals-per-fit regresses above the ceiling recorded in the bench binary.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- --smoke

echo "==> scenario smoke: canonical scenario set deterministic + serial/parallel identical (hard cap ${SMOKE_TIMEOUT}s)"
# Generates the canonical scenario catalog twice (bit-identical series),
# then ranks each series serially and with Fixed(2) workers (identical
# rankings) — the scenario-engine determinism contract end to end.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- --scenario-smoke

echo "==> fleet smoke: 64-cell grid, double-run + serial/Fixed(2) identity gates (hard cap ${SMOKE_TIMEOUT}s)"
# Runs the CI fleet three times (serial ×2, Fixed(2) ×1) and fails unless
# the columnar results stores and obs roll-ups are byte-identical across
# all runs; regenerates BENCH_fleet.json, which is a pure function of the
# grid — `git diff` must stay clean after this step.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- fleet --fleet-smoke

echo "==> chaos smoke: 64-cell grid under the fixed chaos plan, supervisor gates (hard cap ${SMOKE_TIMEOUT}s)"
# Runs the CI fleet three times (serial ×2, Fixed(2) ×1) under the fixed
# fault-injection plan with the circuit breaker armed (DESIGN.md §14).
# Fails unless: no cell aborts the fleet, every non-quarantined cell has
# a finite winning fit, the stores AND the raw event JSONL are
# byte-identical across all three runs, injections are exactly accounted
# in counters, and retries stay under the policy ceiling. Regenerates
# BENCH_chaos.json — a pure function of the grid and the plan.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- fleet --chaos-smoke

echo "==> obs smoke: observability gates + obsctl end-to-end (hard cap ${SMOKE_TIMEOUT}s)"
# Runs the CI fleet three times through the observability gates
# (DESIGN.md §15): the JSONL logs, span-tree renders, metrics
# expositions, and stores must be byte-identical across serial ×2 and
# Fixed(2), every evaluation must be attributed to a cell, and each
# family must stay under its committed evaluation ceiling. Regenerates
# BENCH_obs.json — a pure function of the grid — and drops the run's
# logs into OBS_SMOKE_DIR for the obsctl checks below.
OBS_SMOKE_DIR="$OBS_SMOKE_DIR" timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- fleet --obs-smoke

# obsctl diff of the serial vs rerun logs must be empty (exit 0); a
# non-empty diff means the telemetry plane itself is nondeterministic.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- diff \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" "$OBS_SMOKE_DIR/fleet_rerun.jsonl" || {
    echo "obs smoke: obsctl diff found drift between identical-config runs" >&2
    exit 1
}

# The exported metrics exposition must match the committed golden file
# byte for byte — the committed contract for dashboard scrapers.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- export \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" > "$OBS_SMOKE_DIR/export.prom"
cmp "$OBS_SMOKE_DIR/export.prom" tests/golden/obs_smoke_metrics.prom || {
    echo "obs smoke: metrics exposition drifted from tests/golden/obs_smoke_metrics.prom" >&2
    echo "(regenerate with: obsctl export <smoke log> > tests/golden/obs_smoke_metrics.prom)" >&2
    exit 1
}

# Span-tree and top-K queries run end-to-end on the real log.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- tree \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" --depth 1 \
    | grep -q "^fleet: 64 cells" || {
    echo "obs smoke: obsctl tree did not reconstruct the 64-cell fleet" >&2
    exit 1
}
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- top \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" --limit 3 \
    | grep -q "hottest cells by evals:" || {
    echo "obs smoke: obsctl top produced no ranking" >&2
    exit 1
}

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all checks passed"
