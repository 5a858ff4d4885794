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

echo "==> bench smoke: every CI gate set in one run (hard cap ${SMOKE_TIMEOUT}s)"
# One gate runner (DESIGN.md §11, §13-§15) that runs every gate set and
# fails when any of them breaks:
# * rank_models on 1990-93: serial vs Fixed(2) bit-identical, the
#   median evals-per-fit and each of the six families' evaluations under
#   the ceilings recorded in the bench binary -> BENCH_fitting.json;
# * bootstrap_band on 1990-93: serial vs Fixed(2) bit-identical ->
#   BENCH_bootstrap.json;
# * the canonical scenario set generates and ranks deterministically;
# * the 64-cell CI fleet runs as two triples (serial x2, Fixed(2)), one
#   plain and one under the fixed chaos plan with the breaker armed. The
#   plain triple feeds the fleet gates (byte-identical stores and obs
#   roll-ups) and the obs gates (byte-identical logs, span trees,
#   metrics; full attribution; per-family evaluation ceilings); the chaos
#   triple feeds the chaos gates (no abort, finite survivors,
#   byte-identical stores and event JSONL, exact injection accounting,
#   bounded retries) -> BENCH_fleet.json, BENCH_obs.json, BENCH_chaos.json;
# * the 360-cell fleet runs as one plain triple checked by the fleet
#   gates -> BENCH_fleet_full.json.
# Each baseline is rewritten only when its own gates pass. They are pure
# functions of their inputs, so regenerating them must be a no-op: copies
# taken before the run are kept in OBS_SMOKE_DIR and compared byte for
# byte afterwards. The plain triple's logs and the chaos triple's canonical
# log land in OBS_SMOKE_DIR for the obsctl checks below.
cp BENCH_*.json "$OBS_SMOKE_DIR/"
OBS_SMOKE_DIR="$OBS_SMOKE_DIR" timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- --smoke
drifted=""
for before in "$OBS_SMOKE_DIR"/BENCH_*.json; do
    name="$(basename "$before")"
    cmp -s "$before" "$name" || drifted="$drifted $name"
done
if [ -n "$drifted" ]; then
    echo "bench smoke: regenerating the baselines changed:$drifted" >&2
    echo "(a gate's output changed; review with: git diff --$drifted)" >&2
    exit 1
fi

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
# The chaos log, read back from JSONL, must group into exactly one cell
# per grid cell and one fit per (cell, family) job: injected faults,
# retries and quarantines must not split or merge cells.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- tree \
    "$OBS_SMOKE_DIR/fleet_chaos.jsonl" --depth 1 \
    | grep -q "^fleet: 64 cells, 128 fits," || {
    echo "obs smoke: obsctl tree did not group the chaos log into 64 cells of 2 fits" >&2
    exit 1
}
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- top \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" --limit 3 \
    | grep -q "hottest cells by evals:" || {
    echo "obs smoke: obsctl top produced no ranking" >&2
    exit 1
}

echo "==> perf: the repository benchmark's own tests (hard cap ${SMOKE_TIMEOUT}s)"
# perf/ is a workspace of its own, so the steps above never compile it.
# Building it here catches a change under crates/ that breaks one of its
# imports; its contract test runs the binary and checks that the fail
# shares and exact counts repeat.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo test --release --offline -q --manifest-path perf/Cargo.toml

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all checks passed"
