//! Cross-crate integration tests: SQL → optimizer → MVPP → selection →
//! evaluation, validated against the in-memory execution engine.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign::algebra::{parse_query_with, AttrRef, Expr, JoinCondition};
use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, GenerateConfig, GreedySelection, MaintenanceMode,
    UpdateWeighting, ViewCatalog, Workload,
};
use mvdesign::cost::{CardinalityEstimator, CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{
    execute, measure, profile_database, BufferPool, Database, ExecContext, Generator,
    GeneratorConfig,
};
use mvdesign::optimizer::Planner;
use mvdesign::prelude::Designer;
use mvdesign::workload::{paper_example, StarSchema, StarSchemaConfig};

/// A generated database for the paper's catalog, small enough for
/// nested-loop joins in tests.
fn paper_db() -> Database {
    let scenario = paper_example();
    Generator::with_config(GeneratorConfig {
        seed: 11,
        scale: 0.004,
        max_rows: 400,
    })
    .database(&scenario.catalog)
}

#[test]
fn optimizer_preserves_query_results_on_real_data() {
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let db = paper_db();
    let planner = Planner::new();
    for q in scenario.workload.queries() {
        let naive = execute(q.root(), &db, &ExecContext::default())
            .unwrap_or_else(|e| panic!("{} naive failed: {e}", q.name()));
        let optimized_plan = planner.optimize(q.root(), &est);
        let optimized = execute(&optimized_plan, &db, &ExecContext::default())
            .unwrap_or_else(|e| panic!("{} optimized failed: {e}", q.name()));
        assert_eq!(
            naive.canonicalized().rows(),
            optimized.canonicalized().rows(),
            "{} results changed after optimization",
            q.name()
        );
    }
}

#[test]
fn mvpp_merge_preserves_query_results_on_real_data() {
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let db = paper_db();
    let candidates = generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig::default(),
    );
    for (i, mvpp) in candidates.iter().enumerate() {
        for (name, _, root) in mvpp.roots() {
            let original = scenario
                .workload
                .query(name)
                .expect("root name comes from the workload");
            let expected =
                execute(original.root(), &db, &ExecContext::default()).expect("original executes");
            let merged = execute(mvpp.node(*root).expr(), &db, &ExecContext::default())
                .unwrap_or_else(|e| panic!("MVPP {i} {name} failed: {e}"));
            assert_eq!(
                expected.canonicalized().rows(),
                merged.canonicalized().rows(),
                "MVPP {i} changed the result of {name}"
            );
        }
    }
}

#[test]
fn measured_io_agrees_with_cost_model_on_actual_cardinalities() {
    // For a plan over data whose cardinalities we control, the engine's
    // measured block accesses should match the analytic model's shape:
    // optimized plans measure no more I/O than naive plans.
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let db = paper_db();
    let planner = Planner::new();
    for q in scenario.workload.queries() {
        let (_, io_naive) =
            measure(q.root(), &db, 10.0, &ExecContext::default()).expect("naive executes");
        let optimized = planner.optimize(q.root(), &est);
        let (_, io_opt) =
            measure(&optimized, &db, 10.0, &ExecContext::default()).expect("optimized executes");
        assert!(
            io_opt.total() <= io_naive.total() * 1.05,
            "{}: optimized measured {} vs naive {}",
            q.name(),
            io_opt.total(),
            io_naive.total()
        );
    }
}

#[test]
fn designer_end_to_end_on_paper_example() {
    let scenario = paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("paper workload designs");
    // The chosen design beats materialize-nothing and materialize-everything.
    let none = evaluate(
        &design.mvpp,
        &BTreeSet::new(),
        MaintenanceMode::SharedRecompute,
    );
    let all: BTreeSet<_> = design.mvpp.mvpp().roots().iter().map(|r| r.2).collect();
    let all_cost = evaluate(&design.mvpp, &all, MaintenanceMode::SharedRecompute);
    assert!(design.cost.total < none.total);
    assert!(design.cost.total < all_cost.total);
    // Candidate bookkeeping is consistent.
    assert_eq!(design.candidate_costs.len(), 4);
    assert!((design.candidate_costs[design.candidate_index] - design.cost.total).abs() < 1e-6);
}

#[test]
fn materialized_views_are_nondegenerate_tables() {
    // Materialize the chosen views as actual tables via the engine.
    let scenario = paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("paper workload designs");
    let db = paper_db();
    assert!(!design.materialized.is_empty());
    for id in &design.materialized {
        let node = design.mvpp.mvpp().node(*id);
        let view = execute(node.expr(), &db, &ExecContext::default()).expect("view computes");
        assert!(!view.attrs().is_empty());
    }
}

#[test]
fn star_schema_pipeline_runs_and_greedy_helps() {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        dimensions: 3,
        queries: 6,
        fact_records: 200_000.0,
        dimension_records: 2_000.0,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Analytic,
        PaperCostModel::default(),
    );
    let mvpps = generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig::default(),
    );
    assert!(!mvpps.is_empty());
    let annotated = AnnotatedMvpp::annotate(mvpps[0].clone(), &est, UpdateWeighting::Max);
    let (set, _) = GreedySelection::new().run(&annotated);
    let greedy = evaluate(&annotated, &set, MaintenanceMode::SharedRecompute);
    let none = evaluate(
        &annotated,
        &BTreeSet::new(),
        MaintenanceMode::SharedRecompute,
    );
    assert!(greedy.total <= none.total);
}

#[test]
fn merged_star_queries_still_execute_correctly() {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        dimensions: 3,
        queries: 5,
        fact_records: 50_000.0,
        dimension_records: 1_000.0,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Analytic,
        PaperCostModel::default(),
    );
    let db = Generator::with_config(GeneratorConfig {
        seed: 3,
        scale: 0.01,
        max_rows: 300,
    })
    .database(&scenario.catalog);
    let mvpp = &generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )[0];
    for (name, _, root) in mvpp.roots() {
        let original = scenario.workload.query(name).expect("known query");
        let a = execute(original.root(), &db, &ExecContext::default()).expect("original executes");
        let b = execute(mvpp.node(*root).expr(), &db, &ExecContext::default())
            .expect("merged executes");
        assert_eq!(
            a.canonicalized().rows(),
            b.canonicalized().rows(),
            "merge changed {name}"
        );
    }
}

#[test]
fn workload_with_disjoint_queries_still_designs() {
    // Queries with no overlap at all: the MVPP degenerates to a forest and
    // the machinery must still work.
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let q1 = parse_query_with(
        "SELECT name FROM Part WHERE supplier = 'acme'",
        &scenario.catalog,
    )
    .expect("parses");
    let q2 = parse_query_with(
        "SELECT name FROM Customer WHERE city = 'LA'",
        &scenario.catalog,
    )
    .expect("parses");
    let w = Workload::new([
        mvdesign::algebra::Query::new("A", 3.0, q1),
        mvdesign::algebra::Query::new("B", 4.0, q2),
    ])
    .expect("valid workload");
    let mvpps = generate_mvpps(&w, &est, &Planner::new(), GenerateConfig::default());
    assert_eq!(mvpps.len(), 2);
    for m in &mvpps {
        assert_eq!(m.roots().len(), 2);
    }
}

#[test]
fn single_query_workload_designs_without_sharing() {
    let scenario = paper_example();
    let q = scenario.workload.query("Q1").expect("Q1 exists").clone();
    let w = Workload::new([q]).expect("valid");
    let design = Designer::new()
        .design(&scenario.catalog, &w)
        .expect("designs");
    assert_eq!(design.candidate_costs.len(), 1);
    assert!(design.cost.total.is_finite());
}

#[test]
fn identical_duplicate_queries_share_everything() {
    let scenario = paper_example();
    let q1 = scenario.workload.query("Q1").expect("Q1").clone();
    let w = Workload::new([
        q1.clone(),
        mvdesign::algebra::Query::new("Q1b", 3.0, Arc::clone(q1.root())),
    ])
    .expect("valid");
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let mvpp = &generate_mvpps(
        &w,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )[0];
    // Both queries resolve to the same root node.
    let roots: BTreeSet<_> = mvpp.roots().iter().map(|r| r.2).collect();
    assert_eq!(roots.len(), 1);
}

#[test]
fn expr_for_paper_q1_round_trips_through_engine_and_estimator() {
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let q1 = scenario.workload.query("Q1").expect("Q1").root();
    let stats = est.stats(q1);
    assert!(stats.records > 0.0);
    let db = paper_db();
    execute(q1, &db, &ExecContext::default()).expect("Q1 executes on generated data");
}

#[test]
fn base_relation_expr_executes_directly() {
    let db = paper_db();
    let t = execute(&Expr::base("Customer"), &db, &ExecContext::default())
        .expect("customer table exists");
    assert!(!t.is_empty());
}

/// Profiling a star design's view definitions (star-6×10, seed 42, every
/// query a γ, on 0.4 % of scale factor 1) registers every `Fact.dN ⋈
/// DimN.id` pair they join on at `1 / max(V)`, so `Fact ⋈ Dim1` keeps every
/// Fact row, and no pair of dimensions, which never join; tables in pages
/// of 2 rows profile to the same catalog.
#[test]
fn the_star_profile_registers_exactly_the_joined_pairs() {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions: 6,
        queries: 10,
        aggregate_probability: 1.0,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    let mut db = Generator::with_config(GeneratorConfig {
        seed: 0x5eed,
        scale: 0.004,
        max_rows: usize::MAX,
    })
    .database(&scenario.catalog);
    let views = ViewCatalog::from_design(&design);
    let definitions = || views.views().iter().map(|(_, definition)| definition);
    let catalog = profile_database(&db, definitions());
    let distinct = |a: &AttrRef| 1.0 / catalog.selectivity(a.relation.as_str(), a.attr.as_str());
    let mut joined = Vec::new();
    for (key, js) in catalog.join_selectivities() {
        let (a, b) = (key.lo(), key.hi());
        assert_eq!(js, 1.0 / distinct(a).max(distinct(b)), "{a}~{b}");
        joined.push(format!("{a}~{b}"));
    }
    let want: Vec<String> = (0..6).map(|n| format!("Dim{n}.id~Fact.d{n}")).collect();
    assert_eq!(joined, want);
    let on = JoinCondition::on(AttrRef::new("Fact", "d1"), AttrRef::new("Dim1", "id"));
    let fact_dim1 = Expr::join(Expr::base("Fact"), Expr::base("Dim1"), on);
    let cards = CardinalityEstimator::new(&catalog, EstimationMode::Analytic);
    let facts = db.table("Fact").expect("generated").len() as f64;
    assert_eq!(cards.stats(&fact_dim1).records, facts);
    db.rehome(Some(&BufferPool::new(Some(64 << 20))), 2);
    assert_eq!(profile_database(&db, definitions()), catalog);
}
