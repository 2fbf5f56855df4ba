//! Property and regression tests for the hash-consing expression arena.
//!
//! [`ExprArena`] decides semantic identity by interning; the canonical
//! string [`Expr::semantic_key`] is an independent oracle for the same
//! equivalence (join commutativity/associativity, predicate normalisation,
//! set-semantics projections). These tests drive random expression pairs —
//! and random semantics-preserving scrambles of one expression — through
//! both and require exact agreement.

use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, ExprArena, JoinCondition, Predicate,
};
use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, Designer, DesignerConfig, ExhaustiveSelection,
    GeneticSelection, GreedySelection, MaintenancePolicy, SelectionAlgorithm,
};
use mvdesign::cost::{CostEstimator, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{paper_example, tpch_lite, Scenario, StarSchema, StarSchemaConfig};

const RELS: [&str; 4] = ["A", "B", "C", "D"];

/// Builds a random SPJ expression from a byte recipe (a tiny stack
/// machine: push leaf / wrap select / wrap project / join top two). Schema
/// validity is irrelevant here: the arena and the key oracle are purely
/// syntactic.
fn build(recipe: &[u8]) -> Arc<Expr> {
    let rel = |op: u8| RELS[(op as usize / 4) % RELS.len()];
    let mut stack: Vec<Arc<Expr>> = vec![Expr::base(RELS[0])];
    for &op in recipe {
        match op % 4 {
            0 => stack.push(Expr::base(rel(op))),
            1 => {
                let e = stack.pop().expect("stack never empties");
                let p = Predicate::cmp(
                    AttrRef::new(rel(op), "x"),
                    CompareOp::Gt,
                    i64::from(op / 16) % 4,
                );
                stack.push(Expr::select(e, p));
            }
            2 => {
                let e = stack.pop().expect("stack never empties");
                stack.push(Expr::project(
                    e,
                    [AttrRef::new(rel(op), "k"), AttrRef::new(rel(op), "x")],
                ));
            }
            _ if stack.len() >= 2 => {
                let r = stack.pop().expect("len >= 2");
                let l = stack.pop().expect("len >= 2");
                let cond = if op & 4 == 0 {
                    JoinCondition::cross()
                } else {
                    JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k"))
                };
                stack.push(Expr::join(l, r, cond));
            }
            _ => stack.push(Expr::base(rel(op))),
        }
    }
    while stack.len() > 1 {
        let r = stack.pop().expect("len > 1");
        let l = stack.pop().expect("len > 1");
        stack.push(Expr::join(l, r, JoinCondition::cross()));
    }
    stack.pop().expect("exactly one root remains")
}

/// Rebuilds `e` with semantics-preserving syntactic noise: joins commute on
/// the given bit pattern and projection attribute lists reverse. The result
/// must stay in the same equivalence class.
fn scramble(e: &Arc<Expr>, flip: u64) -> Arc<Expr> {
    match &**e {
        Expr::Base(_) => Arc::clone(e),
        Expr::Select { input, predicate } => Arc::new(Expr::Select {
            input: scramble(input, flip >> 1),
            predicate: predicate.clone(),
        }),
        Expr::Project { input, attrs } => {
            let mut attrs = attrs.clone();
            attrs.reverse();
            Arc::new(Expr::Project {
                input: scramble(input, flip >> 1),
                attrs,
            })
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => Arc::new(Expr::Aggregate {
            input: scramble(input, flip >> 1),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }),
        Expr::Join { left, right, on } => {
            let l = scramble(left, flip >> 1);
            let r = scramble(right, flip >> 2);
            if flip & 1 == 1 {
                Expr::join(r, l, on.clone())
            } else {
                Expr::join(l, r, on.clone())
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interned identity must agree with the semantic-key oracle on
    /// arbitrary pairs — including every subexpression pair, which is where
    /// shared classes actually occur — and the memoized hash with
    /// [`Expr::semantic_hash`].
    #[test]
    fn arena_agrees_with_semantic_key(
        ra in proptest::collection::vec(any::<u8>(), 0..32),
        rb in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let (a, b) = (build(&ra), build(&rb));
        let mut arena = ExprArena::new();
        let mut seen: Vec<(_, String)> = Vec::new();
        for e in mvdesign::algebra::collect_subexprs(&a)
            .iter()
            .chain(mvdesign::algebra::collect_subexprs(&b).iter())
        {
            let id = arena.intern(e);
            prop_assert_eq!(arena.semantic_hash(id), e.semantic_hash());
            let key = e.semantic_key();
            for (other_id, other_key) in &seen {
                prop_assert_eq!(id == *other_id, &key == other_key);
            }
            seen.push((id, key));
        }
    }

    /// A scrambled copy (commuted joins, reversed projection lists) always
    /// lands on the class of the original.
    #[test]
    fn scrambled_expressions_share_a_class(
        recipe in proptest::collection::vec(any::<u8>(), 0..32),
        flip in any::<u64>(),
    ) {
        let e = build(&recipe);
        let noisy = scramble(&e, flip);
        prop_assert_eq!(noisy.semantic_key(), e.semantic_key());
        let mut arena = ExprArena::new();
        prop_assert_eq!(arena.intern(&e), arena.intern(&noisy));
    }

    /// Non-mutating lookup agrees with interning: the same id after, even
    /// for a differently-shaped member of the class.
    #[test]
    fn lookup_matches_intern(
        recipe in proptest::collection::vec(any::<u8>(), 0..32),
        flip in any::<u64>(),
    ) {
        let e = build(&recipe);
        let mut arena = ExprArena::new();
        let id = arena.intern(&e);
        let noisy = scramble(&e, flip);
        prop_assert_eq!(arena.lookup(&noisy), Some(id));
    }

    /// `classify`, the router's children-first probe, gives every node the
    /// class interning it would find — and none where interning would have
    /// to create one — whether the node's `Arc` was interned (half of the
    /// probe is `a` itself) or is new (a scrambled `b`). Its slots number
    /// the nodes in postorder.
    #[test]
    fn classify_agrees_with_intern(
        ra in proptest::collection::vec(any::<u8>(), 0..32),
        rb in proptest::collection::vec(any::<u8>(), 0..32),
        flip in any::<u64>(),
    ) {
        // γ over `b`, with a repeated aggregate: the probe lists the
        // aggregates in the other order and the keys twice.
        let gamma = |input: Arc<Expr>, reversed: bool| {
            let mut aggs = vec![
                AggExpr::new(AggFunc::Sum, AttrRef::new("A", "x"), "s"),
                AggExpr::count_star("n"),
                AggExpr::count_star("n"),
            ];
            let mut keys = vec![AttrRef::new("A", "k")];
            if reversed {
                aggs.reverse();
                keys.push(AttrRef::new("A", "k"));
            }
            Expr::aggregate(input, keys, aggs)
        };
        let a = build(&ra);
        let mut arena = ExprArena::new();
        arena.intern(&a);
        arena.intern(&gamma(build(&rb), false));
        let b = gamma(scramble(&build(&rb), flip), true);
        let probe = Expr::join(Arc::clone(&a), b, JoinCondition::cross());
        let classes = arena.classify(&probe);
        let nodes = mvdesign::algebra::collect_subexprs(&probe);
        prop_assert_eq!(classes.root(), nodes.len() - 1);
        for (k, node) in nodes.iter().enumerate() {
            let mut copy = arena.clone();
            let interned = copy.intern(node);
            let existing = (interned.index() < arena.len()).then_some(interned);
            prop_assert_eq!(classes.class(k), existing, "{}", node);
            let children: Vec<&Arc<Expr>> = classes.children(k).map(|c| &nodes[c]).collect();
            prop_assert!(children.len() == node.children().len());
            for (slot, child) in children.iter().zip(node.children()) {
                prop_assert!(Arc::ptr_eq(slot, child));
            }
            prop_assert_eq!(classes.below(k).count(), node.node_count() - 1);
        }
        // The scrambled γ is in the interned γ's class.
        prop_assert!(classes.class(nodes.len() - 2).is_some());
    }
}

fn tmp1() -> Arc<Expr> {
    Expr::select(
        Expr::base("Div"),
        Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
    )
}

#[test]
fn join_commutation_lands_on_the_same_exprid() {
    let on = JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did"));
    let a = Expr::join(Expr::base("Pd"), tmp1(), on.clone());
    let b = Expr::join(tmp1(), Expr::base("Pd"), on);
    let mut arena = ExprArena::new();
    assert_eq!(arena.intern(&a), arena.intern(&b));
}

/// Designs `scenario` with `algorithm` at parallelism 0 (all cores), 1
/// (sequential) and 4, and requires bit-identical costs and view sets: the
/// candidates share the estimator's class table and stats cache, so the
/// produced design must still be a pure function of its inputs.
fn assert_bit_identical_across_parallelism(
    scenario: &Scenario,
    algorithm: &dyn SelectionAlgorithm,
) {
    let designs: Vec<_> = [0usize, 1, 4]
        .into_iter()
        .map(|parallelism| {
            let designer = Designer::with_config(DesignerConfig {
                parallelism,
                ..Default::default()
            });
            designer
                .design_with(&scenario.catalog, &scenario.workload, algorithm)
                .expect("scenario designs")
        })
        .collect();
    let baseline = &designs[0];
    for d in &designs[1..] {
        assert_eq!(d.materialized, baseline.materialized);
        assert_eq!(d.candidate_index, baseline.candidate_index);
        assert_eq!(d.cost.total.to_bits(), baseline.cost.total.to_bits());
        assert_eq!(
            d.cost.query_processing.to_bits(),
            baseline.cost.query_processing.to_bits()
        );
        assert_eq!(
            d.cost.maintenance.to_bits(),
            baseline.cost.maintenance.to_bits()
        );
        let pairs = d.candidate_costs.iter().zip(&baseline.candidate_costs);
        assert_eq!(d.candidate_costs.len(), baseline.candidate_costs.len());
        for (a, b) in pairs {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The star schema the design benchmark pins: six dimensions, seed 42.
fn star_6(queries: usize) -> Scenario {
    StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions: 6,
        queries,
        ..StarSchemaConfig::default()
    })
    .scenario()
}

#[test]
fn paper_design_is_bit_identical_across_parallelism() {
    assert_bit_identical_across_parallelism(&paper_example(), &GreedySelection::new());
}

/// The design benchmark's scenarios under each selection algorithm it times.
#[test]
fn benchmark_designs_are_bit_identical_across_parallelism() {
    let algorithms: [&dyn SelectionAlgorithm; 3] = [
        &GreedySelection::new(),
        &GeneticSelection::default(),
        &ExhaustiveSelection::default(),
    ];
    for scenario in [tpch_lite(), star_6(40)] {
        for algorithm in algorithms {
            assert_bit_identical_across_parallelism(&scenario, algorithm);
        }
    }
}

/// Merging the candidates interns every class their nodes need into the
/// estimator's table; annotating and selecting them must intern none. That
/// is what keeps the fan-out's f64s independent of thread interleaving:
/// no worker can give a class a representative another worker's order
/// would not.
#[test]
fn annotating_and_selecting_candidates_interns_no_class() {
    let config = DesignerConfig::default();
    let policies = [
        MaintenancePolicy::Recompute,
        MaintenancePolicy::Incremental {
            update_fraction: 0.1,
        },
    ];
    for scenario in [paper_example(), tpch_lite(), star_6(40)] {
        let est = CostEstimator::new(
            &scenario.catalog,
            config.estimation,
            PaperCostModel::default(),
        );
        let planner = Planner::with_config(config.planner);
        let candidates = generate_mvpps(&scenario.workload, &est, &planner, config.generate);
        let classes = est.cardinalities().interned_classes();
        for mvpp in candidates {
            for policy in policies {
                let annotated = AnnotatedMvpp::annotate_with(
                    mvpp.clone(),
                    &est,
                    config.update_weighting,
                    policy,
                );
                let algorithms: [&dyn SelectionAlgorithm; 2] =
                    [&GreedySelection::new(), &GeneticSelection::default()];
                for algorithm in algorithms {
                    let set = algorithm.select(&annotated, config.maintenance);
                    evaluate(&annotated, &set, config.maintenance);
                }
            }
        }
        assert_eq!(est.cardinalities().interned_classes(), classes);
    }
}

#[test]
fn select_predicate_reordering_lands_on_the_same_exprid() {
    let p = Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA");
    let q = Predicate::cmp(AttrRef::new("Div", "size"), CompareOp::Gt, 10);
    let a = Expr::select(Expr::base("Div"), Predicate::and([p.clone(), q.clone()]));
    let b = Expr::select(Expr::base("Div"), Predicate::and([q, p]));
    let mut arena = ExprArena::new();
    assert_eq!(arena.intern(&a), arena.intern(&b));
}
