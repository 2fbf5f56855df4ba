//! The shipped scenario files must stay in sync with the programmatic
//! fixtures: same catalogs, same queries, same designs.

use std::collections::BTreeSet;

use mvdesign::core::{evaluate, MaintenanceMode};
use mvdesign::prelude::Designer;
use mvdesign::workload::{paper_example, parse_scenario, tpch_lite};

fn load(path: &str) -> mvdesign::workload::Scenario {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run tests from the workspace root)"));
    parse_scenario(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn shipped_paper_scenario_matches_the_fixture() {
    let shipped = load("../../scenarios/paper.mvd");
    let fixture = paper_example();
    assert_eq!(shipped.catalog.len(), fixture.catalog.len());
    assert_eq!(shipped.workload.len(), fixture.workload.len());
    for q in fixture.workload.queries() {
        let other = shipped
            .workload
            .query(q.name())
            .unwrap_or_else(|| panic!("{} missing from shipped file", q.name()));
        assert_eq!(
            q.root().semantic_key(),
            other.root().semantic_key(),
            "{} differs",
            q.name()
        );
        assert_eq!(q.frequency(), other.frequency());
    }
    // Same design, same cost.
    let a = Designer::new()
        .design(&shipped.catalog, &shipped.workload)
        .expect("designs");
    let b = Designer::new()
        .design(&fixture.catalog, &fixture.workload)
        .expect("designs");
    assert!((a.cost.total - b.cost.total).abs() < 1e-6);
    assert_eq!(a.materialized.len(), b.materialized.len());
}

#[test]
fn design_with_alternative_algorithms_is_exposed_on_the_designer() {
    use mvdesign::core::{Designer, GeneticSelection, MaterializeNone};
    let scenario = paper_example();
    let genetic = Designer::new()
        .design_with(
            &scenario.catalog,
            &scenario.workload,
            &GeneticSelection::default(),
        )
        .expect("designs");
    let greedy = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    assert!(genetic.cost.total <= greedy.cost.total + 1e-9);
    let none = Designer::new()
        .design_with(&scenario.catalog, &scenario.workload, &MaterializeNone)
        .expect("designs");
    assert!(none.materialized.is_empty());
    let centralized_none = evaluate(
        &none.mvpp,
        &BTreeSet::new(),
        MaintenanceMode::SharedRecompute,
    );
    assert!((none.cost.total - centralized_none.total).abs() < 1e-6);
}

#[test]
fn shipped_tpch_scenario_matches_the_fixture() {
    let shipped = load("../../scenarios/tpch.mvd");
    let fixture = tpch_lite();
    assert_eq!(shipped.catalog.len(), fixture.catalog.len());
    assert_eq!(shipped.workload.len(), fixture.workload.len());
    for q in fixture.workload.queries() {
        let other = shipped
            .workload
            .query(q.name())
            .unwrap_or_else(|| panic!("{} missing from shipped file", q.name()));
        assert_eq!(
            q.root().semantic_key(),
            other.root().semantic_key(),
            "{} differs",
            q.name()
        );
    }
    let design = Designer::new()
        .design(&shipped.catalog, &shipped.workload)
        .expect("designs");
    assert!(!design.materialized.is_empty());
}
