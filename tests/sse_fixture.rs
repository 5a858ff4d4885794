//! Best-known-SSE oracle for the paper's fits: every (recession, family)
//! pair of the seven `payroll_index()` curves × the six paper families
//! must fit to an SSE no worse than the fixture's best-known value
//! (`tests/golden/paper_fit_sse.tsv`, whose header says how it was built
//! and lists the pairs where a search change found a better optimum).
//! The same holds for the 1 080 bathtub fits of the 360-cell scenario
//! grid (`tests/golden/fleet_full_sse.tsv`, with its regenerator below).
//!
//! Rank-order and claim tests pass whether or not a fit reaches the best
//! basin; this one fails as soon as a change to the fitting code settles
//! for a worse one.

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily, QuarticFamily};
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::runtime::{rank_fleet_supervised, CellOutcome, Control, ExecPolicy};
use resilience_core::validate::{r2_adjusted, sse};
use resilience_data::recessions::Recession;
use resilience_data::scenario::{GridScenario, NoiseLevel, ScenarioGrid};
use std::collections::BTreeMap;

/// How far above the best-known SSE a production fit may land: the
/// rounding noise between two searches that reach the same optimum.
const RELATIVE_SLACK: f64 = 1e-9;

const FIXTURE: &str = include_str!("golden/paper_fit_sse.tsv");

struct Row {
    recession: Recession,
    family: String,
    sse: f64,
    params: Vec<f64>,
}

fn rows() -> Vec<Row> {
    FIXTURE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 4, "malformed fixture row: {line}");
            let recession = *Recession::ALL
                .iter()
                .find(|r| r.label() == fields[0])
                .unwrap_or_else(|| panic!("unknown recession {}", fields[0]));
            Row {
                recession,
                family: fields[1].to_string(),
                sse: fields[2].parse().expect("fixture SSE"),
                params: fields[3]
                    .split(',')
                    .map(|v| v.parse().expect("fixture parameter"))
                    .collect(),
            }
        })
        .collect()
}

/// The six families the paper fits.
fn paper_families(mixtures: &[MixtureFamily]) -> Vec<&dyn ModelFamily> {
    let mut families: Vec<&dyn ModelFamily> = vec![&QuadraticFamily, &CompetingRisksFamily];
    for m in mixtures {
        families.push(m);
    }
    families
}

fn family<'a>(families: &[&'a dyn ModelFamily], name: &str) -> &'a dyn ModelFamily {
    *families
        .iter()
        .find(|f| f.name() == name)
        .unwrap_or_else(|| panic!("unknown family {name}"))
}

#[test]
fn fixture_covers_every_paper_fit_once() {
    let rows = rows();
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    assert_eq!(rows.len(), Recession::ALL.len() * families.len());
    for r in Recession::ALL {
        for f in &families {
            let n = rows
                .iter()
                .filter(|row| row.recession == r && row.family == f.name())
                .count();
            assert_eq!(n, 1, "{} {}", r.label(), f.name());
        }
    }
}

#[test]
fn fixture_parameters_reach_their_sse() {
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    for row in rows() {
        let model = family(&families, &row.family)
            .build(&row.params)
            .expect("feasible fixture point");
        let got = sse(model.as_ref(), &row.recession.payroll_index());
        assert!(
            got <= row.sse * (1.0 + RELATIVE_SLACK),
            "{} {}: parameters give {got:e}, fixture {:e}",
            row.recession.label(),
            row.family,
            row.sse
        );
    }
}

#[test]
fn production_fits_reach_the_best_known_sse() {
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    for row in rows() {
        let series = row.recession.payroll_index();
        let fit = fit_least_squares(
            family(&families, &row.family),
            &series,
            &FitConfig::default(),
        )
        .unwrap();
        assert!(
            fit.sse <= row.sse * (1.0 + RELATIVE_SLACK),
            "{} {}: production SSE {:e} above the best known {:e} ({:+.3e} relative)",
            row.recession.label(),
            row.family,
            fit.sse,
            row.sse,
            (fit.sse - row.sse) / row.sse
        );
    }
}

// ---------------------------------------------------------------------
// The 360-cell scenario grid (`tests/golden/fleet_full_sse.tsv`).
// ---------------------------------------------------------------------

const GRID_FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_full_sse.tsv"
);

/// The 360-cell sweep `bench --smoke` fits for `BENCH_fleet_full.json`
/// (`resilience_bench::fleet::full_grid`): every grid scenario × 3 noises
/// × 3 lengths × the seed axis 42–45.
fn full_grid() -> ScenarioGrid {
    ScenarioGrid {
        scenarios: GridScenario::ALL.to_vec(),
        noises: vec![
            NoiseLevel::Clean,
            NoiseLevel::Gaussian { sd: 0.001 },
            NoiseLevel::Uniform { amplitude: 0.002 },
        ],
        lengths: vec![32, 48, 96],
        seeds: vec![42, 43, 44, 45],
    }
}

/// The three families of the sweep.
fn grid_families() -> [&'static dyn ModelFamily; 3] {
    [&QuadraticFamily, &CompetingRisksFamily, &QuarticFamily]
}

/// `(cell, family) → SSE` rows of a grid fixture's text.
fn grid_rows(text: &str) -> BTreeMap<(String, String), f64> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 3, "malformed grid fixture row: {line}");
            let sse = fields[2].parse().expect("fixture SSE");
            ((fields[0].to_string(), fields[1].to_string()), sse)
        })
        .collect()
}

/// One production fit of the grid, alone on its cell.
struct GridFit {
    cell: String,
    family: &'static str,
    sse: f64,
    /// The fit's adjusted R², `NaN` where it has none (a constant cell).
    r2_adj: f64,
    evaluations: usize,
}

/// The series of the grid, in cell order.
fn grid_series() -> Vec<resilience_data::PerformanceSeries> {
    full_grid()
        .cells()
        .map(|cell| cell.generate().expect("grid cell generates"))
        .collect()
}

/// Every production fit of the grid, each a lone `fit_least_squares`, in
/// cell order then family order.
fn grid_fits() -> Vec<GridFit> {
    let mut fits = Vec::new();
    for series in grid_series() {
        for family in grid_families() {
            let fit = fit_least_squares(family, &series, &FitConfig::default())
                .unwrap_or_else(|e| panic!("{} {}: {e}", series.name(), family.name()));
            fits.push(GridFit {
                cell: series.name().to_string(),
                family: family.name(),
                sse: fit.sse,
                r2_adj: r2_adjusted(fit.model.as_ref(), &series, family.n_params())
                    .unwrap_or(f64::NAN),
                evaluations: fit.total_evaluations,
            });
        }
    }
    fits
}

#[test]
fn grid_fixture_covers_every_fit_once() {
    let rows = grid_rows(&std::fs::read_to_string(GRID_FIXTURE_PATH).expect("grid fixture"));
    let grid = full_grid();
    assert_eq!(rows.len(), grid.len() * grid_families().len());
    for cell in grid.cells() {
        for family in grid_families() {
            let key = (cell.series_name(), family.name().to_string());
            assert!(rows.contains_key(&key), "{key:?} missing");
        }
    }
}

/// Every Quadratic, Competing Risks and Quartic fit of the 360-cell grid
/// stays at or below its best-known SSE × (1 + 1e-9), and every Quadratic
/// fit is exact: one solve, inside the bathtub region or on its boundary,
/// and one evaluation.
///
/// The grid ranked as one `rank_fleet_supervised` pass, whose wave shares
/// each time grid's designs, and so from a design's second fit Competing
/// Risks' node table (DESIGN.md §11, "The Competing Risks profile"), ranks
/// every Competing Risks fit with the SSE and adjusted R² bits of the
/// fit alone on its cell, and fails exactly the fits that have no
/// adjusted R².
#[test]
fn grid_fits_reach_the_best_known_sse() {
    let rows = grid_rows(&std::fs::read_to_string(GRID_FIXTURE_PATH).expect("grid fixture"));
    let fits = grid_fits();
    let mut worse = Vec::new();
    for GridFit {
        cell,
        family,
        sse,
        evaluations,
        ..
    } in &fits
    {
        let best = rows[&(cell.clone(), family.to_string())];
        let within = *sse <= best * (1.0 + RELATIVE_SLACK);
        if !within {
            worse.push(format!(
                "{cell} {family}: production SSE {sse:e} above the best known {best:e} ({:+.3e} relative)",
                (sse - best) / best
            ));
        }
        if *family == QuadraticFamily.name() && *evaluations != 1 {
            worse.push(format!(
                "{cell} {family}: searched ({evaluations} evaluations)"
            ));
        }
    }

    let outcomes = rank_fleet_supervised(
        &grid_families(),
        &grid_series(),
        &FitConfig::default(),
        &ExecPolicy::default(),
        &Control::unbounded(),
    );
    let lone = fits
        .iter()
        .filter(|fit| fit.family == CompetingRisksFamily.name());
    for (outcome, fit) in outcomes.iter().zip(lone) {
        let row = match outcome {
            CellOutcome::Ranked(ranking) => ranking
                .rows
                .iter()
                .find(|row| row.family_name == fit.family),
            _ => None,
        };
        let fleet = row.map(|row| (row.sse.to_bits(), row.r2_adj.to_bits()));
        let alone = fit
            .r2_adj
            .is_finite()
            .then(|| (fit.sse.to_bits(), fit.r2_adj.to_bits()));
        if fleet != alone {
            worse.push(format!(
                "{} {}: fleet row {:?} against the fit alone (SSE {:e}, adjusted R² {:e})",
                fit.cell,
                fit.family,
                row.map(|row| (row.sse, row.r2_adj)),
                fit.sse,
                fit.r2_adj
            ));
        }
    }
    assert_eq!(outcomes.len(), fits.len() / grid_families().len());
    assert!(worse.is_empty(), "{}", worse.join("\n"));
}

/// Regenerates `tests/golden/fleet_full_sse.tsv`: each row becomes the
/// smaller of its current value and today's production SSE, the header
/// (every `#` line) is kept, and every row that moves by more than
/// 1e-9 relative either way is printed, for the header's lists.
///
/// ```sh
/// cargo test --release --test sse_fixture -- --ignored --nocapture regenerate_grid_fixture
/// ```
#[test]
#[ignore = "rewrites tests/golden/fleet_full_sse.tsv"]
fn regenerate_grid_fixture() {
    let old = std::fs::read_to_string(GRID_FIXTURE_PATH).unwrap_or_default();
    let rows = grid_rows(&old);
    let mut text: String = old
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    for GridFit {
        cell, family, sse, ..
    } in grid_fits()
    {
        let best = match rows.get(&(cell.clone(), family.to_string())) {
            Some(&known) => {
                let rel = (sse - known) / known;
                if rel.abs() > RELATIVE_SLACK {
                    println!("{cell}\t{family}\t{known:.6e} -> {sse:.6e} ({rel:+.3e})");
                }
                known.min(sse)
            }
            None => sse,
        };
        text.push_str(&format!("{cell}\t{family}\t{best:.17e}\n"));
    }
    std::fs::write(GRID_FIXTURE_PATH, text).expect("write the grid fixture");
}

// ---------------------------------------------------------------------
// Noise draws of the recession curves (`tests/golden/recession_draws_sse.tsv`).
// ---------------------------------------------------------------------

const DRAW_FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/recession_draws_sse.tsv"
);

/// One row of the draw fixture: a mixture fit to
/// `Recession::noise_draw(noise_seed)`.
struct DrawRow {
    recession: Recession,
    noise_seed: u64,
    family: String,
    sse: f64,
    params: Vec<f64>,
}

impl DrawRow {
    fn series(&self) -> resilience_data::PerformanceSeries {
        self.recession.noise_draw(self.noise_seed)
    }
}

/// The rows of a draw fixture's text.
fn draw_rows(text: &str) -> Vec<DrawRow> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 5, "malformed draw fixture row: {line}");
            DrawRow {
                recession: *Recession::ALL
                    .iter()
                    .find(|r| r.label() == fields[0])
                    .unwrap_or_else(|| panic!("unknown recession {}", fields[0])),
                noise_seed: fields[1].parse().expect("fixture noise seed"),
                family: fields[2].to_string(),
                sse: fields[3].parse().expect("fixture SSE"),
                params: fields[4]
                    .split(',')
                    .map(|v| v.parse().expect("fixture parameter"))
                    .collect(),
            }
        })
        .collect()
}

fn draw_fixture() -> Vec<DrawRow> {
    draw_rows(&std::fs::read_to_string(DRAW_FIXTURE_PATH).expect("draw fixture"))
}

/// Every curve has at least three draws of every mixture, and no draw
/// and mixture comes twice.
#[test]
fn draw_fixture_covers_every_curve_and_mixture() {
    let rows = draw_fixture();
    let mixtures = MixtureFamily::paper_combinations();
    for r in Recession::ALL {
        for m in &mixtures {
            let n = rows
                .iter()
                .filter(|row| row.recession == r && row.family == m.name())
                .count();
            assert!(n >= 3, "{} {}: {n} draws", r.label(), m.name());
        }
    }
    let mut keys: Vec<(&str, u64, &str)> = rows
        .iter()
        .map(|row| (row.recession.label(), row.noise_seed, row.family.as_str()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), rows.len(), "a draw and mixture repeats");
}

#[test]
fn draw_fixture_parameters_reach_their_sse() {
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    for row in draw_fixture() {
        let model = family(&families, &row.family)
            .build(&row.params)
            .expect("feasible fixture point");
        let got = sse(model.as_ref(), &row.series());
        assert!(
            got <= row.sse * (1.0 + RELATIVE_SLACK),
            "{} {} {}: parameters give {got:e}, fixture {:e}",
            row.recession.label(),
            row.noise_seed,
            row.family,
            row.sse
        );
    }
}

/// Every production mixture fit of the fixture's draws stays at or below
/// its best-known SSE × (1 + 1e-9): the race (DESIGN.md §11, "Racing the
/// starts") loses no fit of the closest calls of its sweep.
#[test]
fn production_fits_of_noise_draws_reach_the_best_known_sse() {
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    let mut worse = Vec::new();
    for row in draw_fixture() {
        let fit = fit_least_squares(
            family(&families, &row.family),
            &row.series(),
            &FitConfig::default(),
        )
        .unwrap();
        if fit.sse > row.sse * (1.0 + RELATIVE_SLACK) {
            worse.push(format!(
                "{} {} {}: production SSE {:e} above the best known {:e} ({:+.3e} relative)",
                row.recession.label(),
                row.noise_seed,
                row.family,
                fit.sse,
                row.sse,
                (fit.sse - row.sse) / row.sse
            ));
        }
    }
    assert!(worse.is_empty(), "{}", worse.join("\n"));
}

/// Regenerates `tests/golden/recession_draws_sse.tsv` over its own keys:
/// each row becomes the smaller of its SSE and today's production fit,
/// with the parameters that reached it, the header (every `#` line) is
/// kept, and every row that moves by more than 1e-9 relative either way
/// is printed, for the header's list.
///
/// ```sh
/// cargo test --release --test sse_fixture -- --ignored --nocapture regenerate_draw_fixture
/// ```
#[test]
#[ignore = "rewrites tests/golden/recession_draws_sse.tsv"]
fn regenerate_draw_fixture() {
    let old = std::fs::read_to_string(DRAW_FIXTURE_PATH).expect("draw fixture");
    let mixtures = MixtureFamily::paper_combinations();
    let families = paper_families(&mixtures);
    let mut text: String = old
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    for row in draw_rows(&old) {
        let fit = fit_least_squares(
            family(&families, &row.family),
            &row.series(),
            &FitConfig::default(),
        )
        .unwrap();
        let rel = (fit.sse - row.sse) / row.sse;
        if rel.abs() > RELATIVE_SLACK {
            println!(
                "{}\t{}\t{}\t{:.6e} -> {:.6e} ({rel:+.3e})",
                row.recession.label(),
                row.noise_seed,
                row.family,
                row.sse,
                fit.sse
            );
        }
        let (best, params) = if fit.sse < row.sse {
            (fit.sse, fit.params)
        } else {
            (row.sse, row.params)
        };
        let params: Vec<String> = params.iter().map(|p| format!("{p:e}")).collect();
        text.push_str(&format!(
            "{}\t{}\t{}\t{best:.17e}\t{}\n",
            row.recession.label(),
            row.noise_seed,
            row.family,
            params.join(",")
        ));
    }
    std::fs::write(DRAW_FIXTURE_PATH, text).expect("write the draw fixture");
}
