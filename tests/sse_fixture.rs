//! Best-known-SSE oracle for the paper's fits: every (recession, family)
//! pair of the seven `payroll_index()` curves × the six paper families
//! must fit to an SSE no worse than the fixture's best-known value
//! (`tests/golden/paper_fit_sse.tsv`, whose header says how it was built
//! and lists the pairs where a search change found a better optimum).
//!
//! Rank-order and claim tests pass whether or not a fit reaches the best
//! basin; this one fails as soon as a change to the fitting code settles
//! for a worse one.

use resilience_core::bathtub::{CompetingRisksFamily, QuadraticFamily};
use resilience_core::fit::{fit_least_squares, FitConfig};
use resilience_core::mixture::MixtureFamily;
use resilience_core::model::ModelFamily;
use resilience_core::validate::sse;
use resilience_data::recessions::Recession;

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
