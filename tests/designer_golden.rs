//! Golden designs: every candidate MVPP and every selected design of the
//! pinned scenarios, compared with `tests/corpus/designer_golden.txt`.
//!
//! The fixture was recorded at the commit *before* the MVPP merge was
//! indexed and the genetic search lost its second scoring path, so a pass
//! here means those changes reproduce the old designer bit for bit: node
//! order, labels, expressions, edges and roots of every rotation, and the
//! materialized labels, winning rotation and `f64` bits of every cost.
//!
//! `MVDESIGN_RECORD_GOLDEN=1 cargo test -p mvdesign --test designer_golden`
//! rewrites the fixture from the code under test; do that only for a change
//! that is *meant* to move a design, and say so in CHANGES.md.

use std::fmt::Write as _;

use mvdesign::algebra::{parse_query_with, AggExpr, AggFunc, AttrRef, Expr, JoinCondition, Query};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{
    generate_mvpps, Designer, DesignerConfig, ExhaustiveSelection, GenerateConfig,
    GeneticSelection, GreedySelection, Mvpp, SelectionAlgorithm, Workload,
};
use mvdesign::cost::{CostEstimator, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{
    degenerate_scenarios, paper_example, tpch_lite, Scenario, StarSchema, StarSchemaConfig,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/corpus/designer_golden.txt"
);

/// The star schema the genetic designs run on, and their seeds.
const GENETIC_SCENARIO: &str = "star-6x40";
const GENETIC_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// Scenarios small enough to enumerate every subset of, rotation by rotation.
const EXHAUSTIVE_SCENARIOS: [&str; 3] = ["paper", "star-4x4", "nested-aggregate"];

fn star(dimensions: usize, queries: usize) -> Scenario {
    StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions,
        queries,
        ..StarSchemaConfig::default()
    })
    .scenario()
}

/// A plan the merge cannot restructure (an aggregate under a join) beside
/// an SPJ query over the same two relations with the same join condition:
/// the one pinned workload where a join node exists that is *not* built
/// over the shared leaves, so reusing it would change `plain`'s answer.
fn nested_aggregate() -> Scenario {
    let mut catalog = Catalog::new();
    catalog
        .relation("Stores")
        .attr("store", AttrType::Int)
        .attr("city", AttrType::Text)
        .records(1_000.0)
        .blocks(100.0)
        .update_frequency(0.5)
        .finish()
        .expect("Stores is valid");
    catalog
        .relation("Sales")
        .attr("store", AttrType::Int)
        .attr("amount", AttrType::Int)
        .records(100_000.0)
        .blocks(10_000.0)
        .update_frequency(2.0)
        .finish()
        .expect("Sales is valid");
    let on = (
        AttrRef::new("Sales", "store"),
        AttrRef::new("Stores", "store"),
    );
    catalog
        .set_join_selectivity(on.0.clone(), on.1.clone(), 1.0 / 1_000.0)
        .expect("join selectivity is valid");
    let per_store = Expr::aggregate(
        Expr::base("Sales"),
        [AttrRef::new("Sales", "store")],
        [AggExpr::new(
            AggFunc::Sum,
            AttrRef::new("Sales", "amount"),
            "total",
        )],
    );
    let nested = Expr::join(
        per_store,
        Expr::base("Stores"),
        JoinCondition::on(on.0, on.1),
    );
    let plain = parse_query_with(
        "SELECT city, amount FROM Sales, Stores WHERE Sales.store = Stores.store",
        &catalog,
    )
    .expect("parses");
    let workload = Workload::new([
        Query::new("nested", 3.0, nested),
        Query::new("plain", 1.0, plain),
    ])
    .expect("two queries");
    Scenario { catalog, workload }
}

fn scenarios() -> Vec<(String, Scenario)> {
    let mut all = vec![
        ("paper".to_string(), paper_example()),
        ("tpch-lite".to_string(), tpch_lite()),
    ];
    for queries in [10, 20, 40, 80] {
        all.push((format!("star-6x{queries}"), star(6, queries)));
    }
    all.push(("star-4x4".to_string(), star(4, 4)));
    all.push(("nested-aggregate".to_string(), nested_aggregate()));
    for case in degenerate_scenarios() {
        all.push((case.name.to_string(), case.scenario));
    }
    all
}

/// FNV-1a, written out so the digest cannot move with the standard
/// library's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything that identifies an MVPP: the DOT rendering (node order,
/// labels, operator labels, edges, roots with their frequencies) plus each
/// node's full expression.
fn mvpp_line(scenario: &str, rotation: usize, mvpp: &Mvpp) -> String {
    let mut text = mvpp.to_dot("m");
    for node in mvpp.nodes() {
        let _ = writeln!(text, "{} {} = {}", node.id(), node.label(), node.expr());
    }
    format!(
        "mvpp {scenario} rotation={rotation} nodes={} fnv={:016x}",
        mvpp.len(),
        fnv1a(&text)
    )
}

fn design_line(scenario: &(String, Scenario), what: &str, algo: &dyn SelectionAlgorithm) -> String {
    let (name, s) = scenario;
    let design = Designer::new()
        .design_with(&s.catalog, &s.workload, algo)
        .expect("pinned scenarios design cleanly");
    let labels = design.materialized_labels();
    let costs: Vec<String> = design
        .candidate_costs
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    format!(
        "design {name} {what} views={} total={:016x} candidate={} costs={}",
        if labels.is_empty() {
            "-".to_string()
        } else {
            labels.join(",")
        },
        design.cost.total.to_bits(),
        design.candidate_index,
        costs.join(",")
    )
}

/// The fixture's lines, from the code under test.
fn current() -> Vec<String> {
    let mut lines = Vec::new();
    for scenario in &scenarios() {
        let (name, s) = scenario;
        let config = DesignerConfig::default();
        let est = CostEstimator::new(&s.catalog, config.estimation, PaperCostModel::default());
        let candidates = generate_mvpps(
            &s.workload,
            &est,
            &Planner::with_config(config.planner),
            GenerateConfig::default(),
        );
        for (rotation, mvpp) in candidates.iter().enumerate() {
            lines.push(mvpp_line(name, rotation, mvpp));
        }
        lines.push(design_line(scenario, "greedy", &GreedySelection::new()));
        if EXHAUSTIVE_SCENARIOS.contains(&name.as_str()) {
            lines.push(design_line(
                scenario,
                "exhaustive",
                &ExhaustiveSelection::default(),
            ));
        }
        if name == GENETIC_SCENARIO {
            for seed in GENETIC_SEEDS {
                let genetic = GeneticSelection {
                    seed,
                    ..GeneticSelection::default()
                };
                lines.push(design_line(
                    scenario,
                    &format!("genetic/seed={seed}"),
                    &genetic,
                ));
            }
        }
    }
    lines
}

#[test]
fn designs_match_the_recorded_fixture() {
    let lines = current();
    if std::env::var_os("MVDESIGN_RECORD_GOLDEN").is_some() {
        std::fs::write(FIXTURE, lines.join("\n") + "\n").expect("fixture is writable");
        return;
    }
    let recorded = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let recorded: Vec<&str> = recorded.lines().collect();
    for (want, got) in recorded.iter().zip(&lines) {
        assert_eq!(got, want, "the designer no longer reproduces this line");
    }
    assert_eq!(
        lines.len(),
        recorded.len(),
        "fixture and run differ in length"
    );
}
