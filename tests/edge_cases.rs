//! Hardening tests: degenerate statistics, extreme workloads, and inputs
//! the machinery must survive rather than excel at.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign::algebra::{
    parse_query_with, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Query,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, GenerateConfig, GreedySelection, MaintenanceMode,
    Mvpp, UpdateWeighting, Workload,
};
use mvdesign::cost::{CardinalityEstimator, CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, Database, ExecContext, Table};
use mvdesign::optimizer::Planner;
use mvdesign::prelude::Designer;

fn minimal_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.relation("R")
        .attr("k", AttrType::Int)
        .attr("x", AttrType::Int)
        .records(100.0)
        .blocks(10.0)
        .update_frequency(1.0)
        .finish()
        .expect("valid");
    c.relation("S")
        .attr("k", AttrType::Int)
        .records(100.0)
        .blocks(10.0)
        .update_frequency(1.0)
        .finish()
        .expect("valid");
    c
}

#[test]
fn zero_frequency_queries_are_tolerated() {
    let c = minimal_catalog();
    let q = parse_query_with("SELECT x FROM R", &c).expect("parses");
    let w = Workload::new([Query::new("never", 0.0, q)]).expect("valid");
    let design = Designer::new().design(&c, &w).expect("designs");
    // Nothing is worth materializing for a query that never runs.
    assert_eq!(design.cost.query_processing, 0.0);
    assert!(design.materialized.is_empty());
}

#[test]
fn zero_update_frequency_materializes_aggressively() {
    let mut c = minimal_catalog();
    c.set_update_frequency("R", 0.0).expect("known");
    c.set_update_frequency("S", 0.0).expect("known");
    let q = parse_query_with("SELECT x FROM R, S WHERE R.k = S.k", &c).expect("parses");
    let w = Workload::new([Query::new("hot", 100.0, q)]).expect("valid");
    let design = Designer::new().design(&c, &w).expect("designs");
    // Free maintenance: the root itself should be materialized.
    assert!(!design.materialized.is_empty());
    let root = design.mvpp.mvpp().roots()[0].2;
    assert!(design.materialized.contains(&root));
}

#[test]
fn empty_relations_do_not_divide_by_zero() {
    let mut c = Catalog::new();
    c.relation("Empty")
        .attr("x", AttrType::Int)
        .records(0.0)
        .blocks(0.0)
        .update_frequency(1.0)
        .finish()
        .expect("valid");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let q = Expr::select(
        Expr::base("Empty"),
        Predicate::cmp(AttrRef::new("Empty", "x"), CompareOp::Eq, 1),
    );
    let stats = est.stats(&q);
    assert_eq!(stats.records, 0.0);
    assert!(est.tree_cost(&q).is_finite());
    assert!(est.tree_cost(&q) >= 0.0);
}

#[test]
fn single_relation_workload_round_trips() {
    let c = minimal_catalog();
    let q = parse_query_with("SELECT x FROM R WHERE x > 5", &c).expect("parses");
    let w = Workload::new([Query::new("only", 3.0, q)]).expect("valid");
    let design = Designer::new().design(&c, &w).expect("designs");
    assert!(design.cost.total.is_finite());
}

#[test]
fn deep_selection_chains_fuse_and_survive() {
    let c = minimal_catalog();
    let mut e = Expr::base("R");
    for i in 0..64 {
        e = Expr::select(e, Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Ge, i));
    }
    // Selects over selects fuse into one predicate node.
    assert!(e.node_count() <= 3, "node count {}", e.node_count());
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    assert!(est.tree_cost(&e).is_finite());
}

#[test]
fn wide_disjunctions_estimate_within_bounds() {
    let c = minimal_catalog();
    let parts: Vec<Predicate> = (0..100)
        .map(|i| Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Eq, i))
        .collect();
    let p = Predicate::or(parts);
    let s = p.selectivity(&c);
    assert!((0.0..=1.0).contains(&s), "selectivity {s}");
}

#[test]
fn many_relation_query_falls_back_gracefully() {
    // 16 relations exceeds the default DP limit (12): greedy ordering.
    let mut c = Catalog::new();
    let mut from = Vec::new();
    for i in 0..16 {
        c.relation(format!("T{i}"))
            .attr("k", AttrType::Int)
            .records(100.0)
            .blocks(10.0)
            .update_frequency(1.0)
            .finish()
            .expect("valid");
        from.push(format!("T{i}"));
    }
    let mut conds = Vec::new();
    for i in 1..16 {
        conds.push(format!("T{}.k = T{i}.k", i - 1));
    }
    let sql = format!(
        "SELECT T0.k FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    );
    let q = parse_query_with(&sql, &c).expect("parses");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let plan = Planner::new().optimize(&q, &est);
    assert_eq!(plan.base_relations().len(), 16);
    assert!(est.tree_cost(&plan) <= est.tree_cost(&q));
}

#[test]
fn self_join_keeps_original_shape() {
    // Two occurrences of R: the join-ordering machinery refuses (correctly)
    // and the plan keeps its structure with selections pushed down.
    let c = minimal_catalog();
    let e = Expr::select(
        Expr::join(
            Expr::base("R"),
            Expr::base("R"),
            JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("R", "k")),
        ),
        Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Gt, 1),
    );
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let plan = Planner::new().optimize(&e, &est);
    assert_eq!(plan.base_relations().len(), 1);
    assert!(est.tree_cost(&plan).is_finite());
}

#[test]
fn evaluate_with_unrelated_ids_in_m_is_well_defined() {
    // Materializing every node including leaves: leaves are no-ops.
    let c = minimal_catalog();
    let q = parse_query_with("SELECT x FROM R, S WHERE R.k = S.k", &c).expect("parses");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mut mvpp = Mvpp::builder(est.cardinalities());
    mvpp.insert_query("Q", 1.0, &q);
    let a = AnnotatedMvpp::annotate(mvpp.finish(), &est, UpdateWeighting::Max);
    let everything: BTreeSet<_> = a.mvpp().nodes().iter().map(|n| n.id()).collect();
    let cost = evaluate(&a, &everything, MaintenanceMode::SharedRecompute);
    assert!(cost.total.is_finite());
    assert!(cost.query_processing > 0.0);
}

#[test]
fn duplicate_rows_and_text_aggregation_are_stable() {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "R",
        [AttrRef::new("R", "k"), AttrRef::new("R", "t")],
        vec![
            vec![
                mvdesign::algebra::Value::Int(1),
                mvdesign::algebra::Value::text("b"),
            ],
            vec![
                mvdesign::algebra::Value::Int(1),
                mvdesign::algebra::Value::text("a"),
            ],
            vec![
                mvdesign::algebra::Value::Int(1),
                mvdesign::algebra::Value::text("a"),
            ],
        ],
    ));
    // MIN/MAX over text, SUM over text (contributes zero), COUNT.
    let e = Expr::aggregate(
        Expr::base("R"),
        [AttrRef::new("R", "k")],
        [
            mvdesign::algebra::AggExpr::new(
                mvdesign::algebra::AggFunc::Min,
                AttrRef::new("R", "t"),
                "lo",
            ),
            mvdesign::algebra::AggExpr::new(
                mvdesign::algebra::AggFunc::Max,
                AttrRef::new("R", "t"),
                "hi",
            ),
            mvdesign::algebra::AggExpr::new(
                mvdesign::algebra::AggFunc::Sum,
                AttrRef::new("R", "t"),
                "s",
            ),
        ],
    );
    let out = execute(&e, &db, &ExecContext::default()).expect("executes");
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][1], mvdesign::algebra::Value::text("a"));
    assert_eq!(out.rows()[0][2], mvdesign::algebra::Value::text("b"));
    assert_eq!(out.rows()[0][3], mvdesign::algebra::Value::Int(0));
}

#[test]
fn identical_predicates_across_queries_share_leaf_filters_exactly() {
    // When every query applies the same filter, the leaf filter equals it and
    // no query re-applies anything: the σ appears exactly once in the DAG.
    let c = minimal_catalog();
    let sql = "SELECT x FROM R, S WHERE R.k = S.k AND R.x > 3";
    let q1 = parse_query_with(sql, &c).expect("parses");
    let q2 = parse_query_with(sql, &c).expect("parses");
    let w = Workload::new([Query::new("A", 2.0, q1), Query::new("B", 5.0, q2)]).expect("valid");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mvpp = &generate_mvpps(
        &w,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )[0];
    let sigma_count = mvpp
        .nodes()
        .iter()
        .filter(|n| matches!(&**n.expr(), Expr::Select { .. }))
        .count();
    assert_eq!(sigma_count, 1, "dot:\n{}", mvpp.to_dot("m"));
}

#[test]
fn greedy_trace_is_internally_consistent() {
    let scenario = mvdesign::workload::paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    let (set, trace) = GreedySelection::new().run(&design.mvpp);
    assert_eq!(set, design.materialized);
    // Every materialized node appears in the trace as Materialized and not
    // later removed.
    for id in &set {
        let verdicts: Vec<_> = trace
            .steps
            .iter()
            .filter(|s| s.node == *id)
            .map(|s| &s.verdict)
            .collect();
        assert!(
            verdicts
                .iter()
                .any(|v| matches!(v, mvdesign::core::TraceVerdict::Materialized)),
            "{id:?} missing from trace"
        );
        assert!(
            !verdicts
                .iter()
                .any(|v| matches!(v, mvdesign::core::TraceVerdict::RemovedRedundant)),
            "{id:?} removed but still in M"
        );
    }
}

#[test]
fn nan_and_negative_statistics_are_rejected_at_the_boundary() {
    let mut c = Catalog::new();
    assert!(c
        .relation("Bad")
        .attr("x", AttrType::Int)
        .update_frequency(f64::NAN)
        .finish()
        .is_err());
    let mut c2 = Catalog::new();
    c2.relation("R")
        .attr("x", AttrType::Int)
        .records(1.0)
        .blocks(1.0)
        .finish()
        .expect("valid");
    assert!(c2.set_default_selectivity(f64::INFINITY).is_err());
    assert!(c2.set_update_frequency("R", -1.0).is_err());
    assert!(c2
        .set_join_selectivity(AttrRef::new("R", "x"), AttrRef::new("R", "x"), f64::NAN)
        .is_err());
}

#[test]
fn mvpp_of_sixty_queries_stays_tractable() {
    // Stress: many queries over a small schema; generation + greedy must
    // finish quickly and produce a connected design.
    let c = minimal_catalog();
    let queries: Vec<Query> = (0..60)
        .map(|i| {
            let sql = format!("SELECT x FROM R, S WHERE R.k = S.k AND R.x > {}", i % 7);
            Query::new(
                format!("Q{i}"),
                1.0 + (i % 5) as f64,
                parse_query_with(&sql, &c).expect("parses"),
            )
        })
        .collect();
    let w = Workload::new(queries).expect("valid");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mvpps = generate_mvpps(
        &w,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 2 },
    );
    assert_eq!(mvpps.len(), 2);
    let a = AnnotatedMvpp::annotate(mvpps[0].clone(), &est, UpdateWeighting::Max);
    let (m, _) = GreedySelection::new().run(&a);
    let greedy = evaluate(&a, &m, MaintenanceMode::SharedRecompute).total;
    let none = evaluate(&a, &BTreeSet::new(), MaintenanceMode::SharedRecompute).total;
    assert!(greedy <= none);
    // Only 7 distinct filters exist, so the DAG must be far smaller than
    // 60 separate plans would suggest.
    assert!(a.mvpp().len() < 60, "nodes: {}", a.mvpp().len());
}

#[test]
fn arc_sharing_means_interning_is_cheap_for_identical_subtrees() {
    let shared: Arc<Expr> = Expr::base("R");
    let c = minimal_catalog();
    let est = CardinalityEstimator::new(&c, EstimationMode::Analytic);
    let mut mvpp = Mvpp::builder(&est);
    let a = mvpp.insert_query("Q1", 1.0, &shared);
    let b = mvpp.insert_query("Q2", 1.0, &shared);
    assert_eq!(a, b);
    assert_eq!(mvpp.finish().len(), 1);
}
