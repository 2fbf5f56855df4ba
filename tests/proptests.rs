//! Property-based tests over randomly generated catalogs, queries and data:
//! rewrites preserve semantics, estimates stay well-formed, and the greedy
//! never beats the exhaustive optimum.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{
    evaluate, AnnotatedMvpp, ExhaustiveSelection, GreedySelection, MaintenanceMode, Mvpp,
    SelectionAlgorithm, UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig};
use mvdesign::optimizer::{push_selections, Planner};

/// A three-relation catalog whose statistics are drawn from the strategy.
fn make_catalog(sizes: [u32; 3], sel: f64) -> Catalog {
    let mut c = Catalog::new();
    for (i, name) in ["R0", "R1", "R2"].iter().enumerate() {
        c.relation(*name)
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .attr("t", AttrType::Text)
            .records(f64::from(sizes[i].max(4)))
            .blocks((f64::from(sizes[i].max(4)) / 10.0).ceil())
            .update_frequency(1.0)
            .selectivity("x", sel)
            .selectivity("t", sel)
            .finish()
            .expect("generated relation is valid");
    }
    for (a, b) in [("R0", "R1"), ("R1", "R2")] {
        let d = f64::from(sizes[0].max(sizes[1]).max(8));
        c.set_join_selectivity(AttrRef::new(a, "k"), AttrRef::new(b, "k"), 1.0 / d)
            .expect("generated join selectivity is valid");
    }
    c
}

/// Random SPJ expression over the three relations: a chain join with
/// optional selections and a projection.
#[derive(Debug, Clone)]
struct QuerySpec {
    joins: usize,                 // 0..=2 extra relations
    select_on: Vec<(usize, i64)>, // (relation index, literal)
    project: bool,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        0usize..=2,
        proptest::collection::vec((0usize..3, 0i64..6), 0..3),
        any::<bool>(),
    )
        .prop_map(|(joins, select_on, project)| QuerySpec {
            joins,
            select_on,
            project,
        })
}

fn build_query(spec: &QuerySpec) -> Arc<Expr> {
    let mut expr = Expr::base("R0");
    for i in 1..=spec.joins {
        let prev = format!("R{}", i - 1);
        let cur = format!("R{i}");
        expr = Expr::join(
            expr,
            Expr::base(cur.as_str()),
            JoinCondition::on(AttrRef::new(prev, "k"), AttrRef::new(cur, "k")),
        );
    }
    let mut preds = Vec::new();
    for (rel, lit) in &spec.select_on {
        if *rel <= spec.joins {
            preds.push(Predicate::cmp(
                AttrRef::new(format!("R{rel}"), "x"),
                CompareOp::Le,
                *lit,
            ));
        }
    }
    expr = Expr::select(expr, Predicate::and(preds));
    if spec.project {
        let mut attrs = vec![AttrRef::new("R0", "t")];
        if spec.joins >= 1 {
            attrs.push(AttrRef::new("R1", "x"));
        }
        expr = Expr::project(expr, attrs);
    }
    expr
}

fn small_db(catalog: &Catalog, seed: u64) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 1.0,
        max_rows: 60,
    })
    .database(catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selection_pushdown_preserves_results(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..200),
        seed in 0u64..1_000,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        let pushed = push_selections(&q);
        let a = execute(&q, &db, &ExecContext::default()).expect("original executes").canonicalized();
        let b = execute(&pushed, &db, &ExecContext::default()).expect("pushed executes").canonicalized();
        prop_assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn full_optimizer_preserves_results(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..200),
        seed in 0u64..1_000,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let opt = Planner::new().optimize(&q, &est);
        prop_assert!(est.tree_cost(&opt) <= est.tree_cost(&q) + 1e-9);
        let a = execute(&q, &db, &ExecContext::default()).expect("original executes").canonicalized();
        let b = execute(&opt, &db, &ExecContext::default()).expect("optimized executes").canonicalized();
        prop_assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn estimates_are_finite_and_monotone_under_selection(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
    ) {
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let q = build_query(&spec);
        let stats = est.stats(&q);
        prop_assert!(stats.records.is_finite() && stats.records >= 0.0);
        prop_assert!(stats.blocks.is_finite() && stats.blocks >= 0.0);
        // Adding a selection never increases the estimate.
        let filtered = Expr::select(
            Arc::clone(&q),
            Predicate::cmp(AttrRef::new("R0", "t"), CompareOp::Eq, "v0"),
        );
        // (Only valid if R0.t is still visible — skip when projected away.)
        if !spec.project {
            prop_assert!(est.stats(&filtered).records <= stats.records + 1e-9);
        }
        prop_assert!(est.tree_cost(&q).is_finite());
    }

    #[test]
    fn greedy_never_beats_exhaustive(
        sizes in proptest::array::uniform3(8u32..2_000),
        fq in proptest::array::uniform3(0.1f64..50.0),
        sel in 0.05f64..0.9,
    ) {
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        // Three overlapping queries over the chain join.
        let j01 = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let j012 = Expr::join(
            Arc::clone(&j01),
            Expr::base("R2"),
            JoinCondition::on(AttrRef::new("R1", "k"), AttrRef::new("R2", "k")),
        );
        let filtered = Expr::select(
            Arc::clone(&j01),
            Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Le, 2),
        );
        let mut mvpp = Mvpp::new();
        mvpp.insert_query("Q1", fq[0], &j01);
        mvpp.insert_query("Q2", fq[1], &j012);
        mvpp.insert_query("Q3", fq[2], &filtered);
        let a = AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max);
        let mode = MaintenanceMode::SharedRecompute;
        let greedy = evaluate(&a, &GreedySelection::new().select(&a, mode), mode).total;
        let optimum = evaluate(&a, &ExhaustiveSelection::default().select(&a, mode), mode).total;
        prop_assert!(greedy + 1e-6 >= optimum, "greedy {} beat optimum {}", greedy, optimum);
        // And the optimum is no worse than the trivial strategies.
        let none = evaluate(&a, &BTreeSet::new(), mode).total;
        prop_assert!(optimum <= none + 1e-6);
    }

    #[test]
    fn evaluation_is_monotone_in_query_frequency(
        sizes in proptest::array::uniform3(8u32..2_000),
        fq in 0.1f64..50.0,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let j01 = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let build = |f: f64| {
            let mut mvpp = Mvpp::new();
            mvpp.insert_query("Q", f, &j01);
            AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max)
        };
        let lo = build(fq);
        let hi = build(fq * 2.0);
        let mode = MaintenanceMode::SharedRecompute;
        for m in [BTreeSet::new(), lo.mvpp().interior().into_iter().collect::<BTreeSet<_>>()] {
            prop_assert!(
                evaluate(&hi, &m, mode).total >= evaluate(&lo, &m, mode).total - 1e-9
            );
        }
    }

    #[test]
    fn predicate_normalisation_is_stable_under_commutation(
        lits in proptest::collection::vec(0i64..5, 1..4),
    ) {
        let preds: Vec<Predicate> = lits
            .iter()
            .map(|l| Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Eq, *l))
            .collect();
        let mut reversed = preds.clone();
        reversed.reverse();
        prop_assert_eq!(Predicate::and(preds.clone()), Predicate::and(reversed.clone()));
        prop_assert_eq!(Predicate::or(preds), Predicate::or(reversed));
    }

    #[test]
    fn selectivity_is_always_a_probability(
        lits in proptest::collection::vec(0i64..5, 1..5),
        sel in 0.0f64..1.0,
    ) {
        let catalog = make_catalog([100, 100, 100], sel);
        let preds: Vec<Predicate> = lits
            .iter()
            .map(|l| Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Eq, *l))
            .collect();
        for p in [Predicate::and(preds.clone()), Predicate::or(preds)] {
            let s = p.selectivity(&catalog);
            prop_assert!((0.0..=1.0).contains(&s), "selectivity {} of {}", s, p);
        }
    }

    #[test]
    fn rendered_catalogs_reparse_identically(
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
        fu in 0.0f64..20.0,
    ) {
        let mut catalog = make_catalog(sizes, sel);
        catalog.set_update_frequency("R0", fu).expect("known relation");
        let text = mvdesign::workload::render_catalog(&catalog);
        let reparsed = mvdesign::workload::parse_scenario(&format!(
            "{text}\nquery q 1 {{\nSELECT t FROM R0\n}}"
        ))
        .expect("rendered catalog reparses");
        prop_assert_eq!(catalog, reparsed.catalog);
    }

    #[test]
    fn view_rewrite_preserves_results_on_random_queries(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..150),
        seed in 0u64..500,
    ) {
        use mvdesign::core::ViewCatalog;
        use mvdesign::engine::materialize_view;
        let catalog = make_catalog(sizes, 0.3);
        let mut db = small_db(&catalog, seed);
        let q = build_query(&spec);
        // Register every join subexpression of the query as a view.
        let mut views = ViewCatalog::new();
        let mut counter = 0;
        mvdesign::algebra::postorder(&q, &mut |n| {
            if matches!(&**n, Expr::Join { .. }) {
                counter += 1;
                views.register(format!("view{counter}"), Arc::clone(n));
            }
        });
        for (name, definition) in views.views().to_vec() {
            materialize_view(name, &definition, &mut db, &ExecContext::default()).expect("view materializes");
        }
        let direct = execute(&q, &db, &ExecContext::default()).expect("direct executes").canonicalized();
        let routed = execute(&views.rewrite(&q), &db, &ExecContext::default())
            .expect("routed executes")
            .canonicalized();
        prop_assert_eq!(direct.rows(), routed.rows());
    }

    #[test]
    fn dsl_parser_never_panics_on_arbitrary_text(
        text in "[ -~\\n]{0,400}",
    ) {
        // Any byte soup must produce Ok(_) or a structured error, never a
        // panic.
        let _ = mvdesign::workload::parse_scenario(&text);
    }

    #[test]
    fn sql_parser_never_panics_on_arbitrary_text(
        text in "[ -~]{0,200}",
    ) {
        let catalog = make_catalog([50, 50, 50], 0.3);
        let _ = mvdesign::algebra::parse_query_with(&text, &catalog);
    }

    #[test]
    fn aggregate_estimates_never_exceed_input_cardinality(
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
    ) {
        use mvdesign::algebra::{AggExpr, AggFunc};
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let join = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let agg = Expr::aggregate(
            Arc::clone(&join),
            [AttrRef::new("R0", "t")],
            [AggExpr::new(AggFunc::Sum, AttrRef::new("R1", "x"), "s")],
        );
        let input = est.stats(&join);
        let output = est.stats(&agg);
        prop_assert!(output.records <= input.records + 1e-9);
        prop_assert!(output.records >= 0.0);
        prop_assert!(est.op_cost(&agg).is_finite());
    }

    #[test]
    fn break_even_is_consistent_with_greedy_acceptance(
        sizes in proptest::array::uniform3(64u32..5_000),
        fq in 1.0f64..100.0,
    ) {
        use mvdesign::core::{break_even_update_weight, AnnotatedMvpp, Mvpp, UpdateWeighting};
        let catalog = make_catalog(sizes, 0.3);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let join = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let mut mvpp = Mvpp::new();
        mvpp.insert_query("Q", fq, &join);
        let a = AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max);
        let root = a.mvpp().roots()[0].2;
        let ustar = break_even_update_weight(&a, root);
        // The catalog's fu is 1.0; the Figure-9 weight is positive exactly
        // when 1.0 is below a (coarser, scan-free) version of U*. The
        // refined U* can only be larger.
        let w = a.annotation(root).weight;
        if w > 0.0 {
            prop_assert!(ustar >= 1.0, "w>0 but U*={} < fu", ustar);
        }
    }
}
