//! The chaos gate set of `bench --smoke` (DESIGN.md §14): a check over
//! a [`run_triple`](crate::fleet::run_triple) of the 64-cell CI grid
//! under [`chaos_policy`] — a **fixed** [`ChaosPlan`] with the circuit
//! breaker armed — gated on the supervisor's whole contract at once:
//!
//! 1. **no fleet abort**: every cell returns an outcome; chaos-injected
//!    panics, deadline blowouts and retry exhaustion never escape the
//!    supervisor;
//! 2. **well-formed survivors**: every non-quarantined cell carries a
//!    finite winning fit;
//! 3. **bit-identical chaos**: the store *and* the full event JSONL are
//!    byte-identical across two serial runs and a `Fixed(2)` run — fault
//!    injection is part of the determinism contract, not an exception to
//!    it;
//! 4. **bounded retries**: the `retries` counter never exceeds
//!    `(max_attempts − 1) × jobs`;
//! 5. **accounted injection**: the `chaos_injected` counter equals the
//!    number of `chaos_injected` events, and the plan actually fired
//!    (injections, breaker trips and quarantines are all non-zero — a
//!    chaos smoke that injects nothing proves nothing).
//!
//! The verdict is written to `BENCH_chaos.json`, with FNV-1a digests of
//! the canonical event log and of its span-tree render, and with no
//! wall-clock and no machine identifiers: regenerating it anywhere yields
//! the same bytes.

use crate::fleet::{fnv1a, FleetRun, FleetStore, PASSES, QUARANTINED_BITS};
use resilience_core::chaos::ChaosPlan;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{BreakerPolicy, ExecPolicy, RetryPolicy};
use resilience_obs::{CounterId, Event, RunReport};

/// The fixed chaos plan of the CI smoke. Rates are tuned so the 64-cell
/// grid exercises every supervisor path — forced panics, deadline
/// blowouts, retry exhaustion, observer loss, transient retry recovery,
/// breaker trips, and at least one quarantined cell — while most cells
/// still rank. Changing any constant changes `BENCH_chaos.json`
/// deliberately: the plan is part of the baseline.
#[must_use]
pub fn chaos_plan() -> ChaosPlan {
    ChaosPlan {
        seed: 0x0C4A_0511,
        panic_per_mille: 70,
        deadline_per_mille: 60,
        exhaustion_per_mille: 50,
        observer_loss_per_mille: 100,
        transient_per_mille: 150,
    }
}

/// The execution policy of the chaos smoke: a short retry schedule (so
/// the bounded-retry gate is non-trivial), a tight breaker (so trips
/// actually happen in 64 cells), and **no** wall-clock family budget —
/// chaos runs must stay pure functions of the plan.
#[must_use]
pub fn chaos_policy() -> ExecPolicy {
    ExecPolicy {
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
        chaos: Some(chaos_plan()),
    }
}

/// The chaos-smoke verdict: gates plus the exercised-path counts that
/// make `BENCH_chaos.json` diffable.
#[derive(Debug)]
pub struct ChaosReport {
    /// Family names fitted in every cell.
    pub families: Vec<String>,
    /// The fixed plan the smoke ran under.
    pub plan: ChaosPlan,
    /// Canonical (first serial run) store.
    pub store: FleetStore,
    /// Gate: no cell aborted the fleet in any run.
    pub no_abort: bool,
    /// Gate: every non-quarantined cell has a finite winning fit.
    pub well_formed: bool,
    /// Gate: serial rerun store + JSONL byte-identical.
    pub identical_rerun: bool,
    /// Gate: `Fixed(2)` store + JSONL byte-identical to serial.
    pub identical_parallel: bool,
    /// Gate: `chaos_injected` counter == number of chaos events, and the
    /// plan actually fired (injections, trips, quarantines all > 0).
    pub chaos_accounted: bool,
    /// Gate: retries ≤ (max_attempts − 1) × jobs.
    pub retries_bounded: bool,
    /// `chaos_injected` total of the canonical run.
    pub chaos_injected: u64,
    /// `breaker_opened` total of the canonical run.
    pub breaker_opened: u64,
    /// `breaker_half_open` total of the canonical run.
    pub breaker_half_open: u64,
    /// `cell_quarantined` total of the canonical run.
    pub cells_quarantined: u64,
    /// `retries` total of the canonical run.
    pub retries: u64,
    /// The retry ceiling the bounded gate compared against.
    pub retry_ceiling: u64,
    /// Work roll-up of the canonical run.
    pub rollup: RunReport,
    /// FNV-1a digest ([`fnv1a`]) of the canonical run's JSONL log, which
    /// the baseline pins byte for byte.
    pub log_digest: u64,
    /// FNV-1a digest of the canonical run's span-tree render (all cells,
    /// full depth), which pins what the tree reconstructs from the log.
    pub tree_digest: u64,
}

impl ChaosReport {
    /// Checks the chaos gates over a
    /// [`run_triple`](crate::fleet::run_triple) of the fleet under
    /// [`chaos_policy`] and assembles the report.
    #[must_use]
    pub fn check(families: &[&dyn ModelFamily], runs: &[FleetRun; 3]) -> ChaosReport {
        let [run1, run2, run3] = runs;
        let store = &run1.store;
        let bytes1 = store.columns_json();
        let log1 = run1.events_jsonl();
        let identical_rerun = bytes1 == run2.store.columns_json() && log1 == run2.events_jsonl();
        let identical_parallel = bytes1 == run3.store.columns_json() && log1 == run3.events_jsonl();

        let no_abort = runs.iter().all(|r| !r.aborted());
        let well_formed = (0..store.len()).all(|i| {
            let bits = store.sse_bits[i];
            if bits >= QUARANTINED_BITS {
                // Quarantined cells are parked, not ranked; a `(failed)`
                // sentinel would mean a non-quarantine hard failure, which
                // the no-abort + supervisor contract does not produce here.
                store.winner[i] == "(quarantined)"
            } else {
                f64::from_bits(bits).is_finite()
                    && f64::from_bits(store.r2_bits[i]).is_finite()
                    && store.ranked[i] > 0
            }
        });

        let chaos_injected = run1.report.counter(CounterId::ChaosInjected);
        let injected_events = run1
            .events
            .iter()
            .filter(|e| matches!(e, Event::ChaosInjected { .. }))
            .count() as u64;
        let breaker_opened = run1.report.counter(CounterId::BreakerOpened);
        let breaker_half_open = run1.report.counter(CounterId::BreakerHalfOpen);
        let cells_quarantined = run1.report.counter(CounterId::CellsQuarantined);
        let quarantined_cells = store.quarantined.iter().filter(|&&q| q > 0).count() as u64;
        let chaos_accounted = chaos_injected == injected_events
            && chaos_injected > 0
            && breaker_opened > 0
            && cells_quarantined == quarantined_cells
            && cells_quarantined > 0;

        let retries = run1.report.counter(CounterId::Retries);
        let max_attempts = chaos_policy().retry.map_or(1, |r| r.max_attempts) as u64;
        let retry_ceiling = (max_attempts - 1) * (store.len() * families.len()) as u64;

        ChaosReport {
            families: families.iter().map(|f| f.name().to_string()).collect(),
            plan: chaos_plan(),
            store: store.clone(),
            no_abort,
            well_formed,
            identical_rerun,
            identical_parallel,
            chaos_accounted,
            retries_bounded: retries <= retry_ceiling,
            chaos_injected,
            breaker_opened,
            breaker_half_open,
            cells_quarantined,
            retries,
            retry_ceiling,
            rollup: run1.report.clone(),
            log_digest: fnv1a(log1.as_bytes()),
            tree_digest: fnv1a(run1.tree.render(usize::MAX, 4).as_bytes()),
        }
    }

    /// One-line verdict for the CI log.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "chaos  cells={} no_abort={} well_formed={} rerun={} parallel={} accounted={} \
             injected={} breaker_opened={} half_open={} quarantined={} retries={}/{} \
             digest={:016x}",
            self.store.len(),
            self.no_abort,
            self.well_formed,
            self.identical_rerun,
            self.identical_parallel,
            self.chaos_accounted,
            self.chaos_injected,
            self.breaker_opened,
            self.breaker_half_open,
            self.cells_quarantined,
            self.retries,
            self.retry_ceiling,
            self.store.digest(),
        )
    }

    /// Whether every chaos gate held.
    #[must_use]
    pub fn gates_pass(&self) -> bool {
        self.no_abort
            && self.well_formed
            && self.identical_rerun
            && self.identical_parallel
            && self.chaos_accounted
            && self.retries_bounded
    }

    /// The `BENCH_chaos.json` document: gates, exercised-path counts, the
    /// plan, and the canonical store. No wall-clock, no machine
    /// identifiers — a pure function of the grid and the plan.
    #[must_use]
    pub fn to_json(&self) -> String {
        let families: Vec<String> = self
            .families
            .iter()
            .map(|f| format!("\"{}\"", crate::harness::json_escape(f)))
            .collect();
        let p = &self.plan;
        format!(
            "{{\n  \"benchmark\": \"chaos-fleet\",\n  \"cells\": {},\n  \"families\": [{}],\n  \
             \"runs\": {},\n  \"no_abort\": {},\n  \"well_formed\": {},\n  \
             \"identical_rerun\": {},\n  \"identical_parallel\": {},\n  \
             \"chaos_accounted\": {},\n  \"retries_bounded\": {},\n  \
             \"plan\": {{\"seed\": {}, \"panic_per_mille\": {}, \"deadline_per_mille\": {}, \
             \"exhaustion_per_mille\": {}, \"observer_loss_per_mille\": {}, \
             \"transient_per_mille\": {}}},\n  \
             \"chaos_injected\": {},\n  \"breaker_opened\": {},\n  \"breaker_half_open\": {},\n  \
             \"cells_quarantined\": {},\n  \"retries\": {},\n  \"retry_ceiling\": {},\n  \
             \"store_digest\": \"{:016x}\",\n  \"log_digest\": \"{:016x}\",\n  \
             \"tree_digest\": \"{:016x}\",\n  \"columns\": {},\n  \"rollup\": {}\n}}\n",
            self.store.len(),
            families.join(", "),
            PASSES.len(),
            self.no_abort,
            self.well_formed,
            self.identical_rerun,
            self.identical_parallel,
            self.chaos_accounted,
            self.retries_bounded,
            p.seed,
            p.panic_per_mille,
            p.deadline_per_mille,
            p.exhaustion_per_mille,
            p.observer_loss_per_mille,
            p.transient_per_mille,
            self.chaos_injected,
            self.breaker_opened,
            self.breaker_half_open,
            self.cells_quarantined,
            self.retries,
            self.retry_ceiling,
            self.store.digest(),
            self.log_digest,
            self.tree_digest,
            self.store.columns_json(),
            self.rollup.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, run_triple};
    use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
    use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid, ShapeKind};

    /// Small grid so the three-pass evaluation stays fast in debug
    /// builds; rates are high enough that chaos still fires on 16 cells.
    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            scenarios: vec![GridScenario::Shape(ShapeKind::V), GridScenario::StepOutage],
            noises: vec![NoiseLevel::Gaussian { sd: 0.001 }],
            lengths: vec![32],
            seeds: vec![42, 43, 44, 45, 46, 47, 48, 49],
        }
    }

    fn families() -> Vec<&'static dyn ModelFamily> {
        vec![&QuadraticFamily, &CompetingRisksFamily]
    }

    #[test]
    fn chaos_gates_pass_and_the_baseline_is_reproducible() {
        let grid = tiny_grid();
        let check = || {
            ChaosReport::check(
                &families(),
                &run_triple(&grid, &families(), &chaos_policy()),
            )
        };
        let report = check();
        assert!(report.no_abort);
        assert!(report.well_formed);
        assert!(report.identical_rerun);
        assert!(report.identical_parallel);
        assert!(report.retries_bounded);
        // The plan fired.
        assert!(report.chaos_injected > 0);
        let json = report.to_json();
        for needle in [
            "\"benchmark\": \"chaos-fleet\"",
            "\"plan\"",
            "\"chaos_injected\"",
            "\"tree_digest\": \"",
            "\"quarantined\": [",
            "\"rollup\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        assert!(
            !json.contains("wall"),
            "baseline must not record wall-clock"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json, check().to_json());
    }

    #[test]
    fn quarantined_cells_land_in_the_sentinel_column() {
        let grid = tiny_grid();
        let run = run_fleet(
            &grid,
            &families(),
            resilience_optim::Parallelism::Serial,
            &chaos_policy(),
        );
        let from_store = run.store.quarantined.iter().filter(|&&q| q > 0).count();
        let counted = run.report.counter(CounterId::CellsQuarantined);
        assert_eq!(from_store as u64, counted);
        for i in 0..run.store.len() {
            if run.store.quarantined[i] > 0 {
                assert_eq!(run.store.winner[i], "(quarantined)");
                assert_eq!(run.store.sse_bits[i], QUARANTINED_BITS);
            }
        }
    }
}
