//! Equivalence guarantees for the memoized/parallel search engine: the
//! incremental evaluator must agree with full evaluation on arbitrary flip
//! and jump sequences, and every parallelised algorithm must produce the
//! same answer at any thread count.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mvdesign::algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{
    evaluate, evaluate_set, generate_mvpps, AnnotatedMvpp, Designer, DesignerConfig,
    ExhaustiveSelection, GenerateConfig, IncrementalEvaluator, MaintenanceMode, Mvpp, NodeId,
    NodeSet, SelectionAlgorithm, UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{paper_example, Scenario, StarSchema, StarSchemaConfig};

fn star(seed: u64, queries: usize) -> Scenario {
    StarSchema::with_config(StarSchemaConfig {
        seed,
        queries,
        dimensions: 4,
        ..StarSchemaConfig::default()
    })
    .scenario()
}

fn annotate(scenario: &Scenario) -> AnnotatedMvpp {
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Analytic,
        PaperCostModel::default(),
    );
    let mvpp = generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )
    .remove(0);
    AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any flip sequence leaves the incremental evaluator agreeing with a
    /// full `evaluate` of the same frontier, in both maintenance modes.
    #[test]
    fn incremental_flips_agree_with_full_evaluate(
        seed in 0_u64..1_000,
        flips in proptest::collection::vec(0_usize..64, 1..40),
    ) {
        let scenario = star(seed, 6);
        let a = annotate(&scenario);
        let interior = a.mvpp().interior();
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let mut eval = IncrementalEvaluator::new(&a, mode);
            let mut frontier: BTreeSet<_> = BTreeSet::new();
            for f in &flips {
                let v = interior[f % interior.len()];
                if !frontier.remove(&v) {
                    frontier.insert(v);
                }
                let incremental = eval.flip(v);
                let full = evaluate(&a, &frontier, mode);
                prop_assert!(
                    (incremental - full.total).abs() <= 1e-9,
                    "flip diverged: incremental {incremental} vs full {}",
                    full.total
                );
                prop_assert_eq!(eval.breakdown(), full);
            }
        }
    }

    /// Dense-set evaluation is interchangeable with the `BTreeSet` API.
    #[test]
    fn evaluate_set_matches_evaluate(
        seed in 0_u64..1_000,
        picks in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 64..=64_usize),
    ) {
        let scenario = star(seed, 5);
        let a = annotate(&scenario);
        let chosen: BTreeSet<_> = a
            .mvpp()
            .interior()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| picks[i % picks.len()])
            .map(|(_, v)| v)
            .collect();
        let dense = NodeSet::from_ids(a.mvpp().len(), chosen.iter().copied());
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let via_btree = evaluate(&a, &chosen, mode);
            let via_set = evaluate_set(&a, &dense, mode);
            prop_assert_eq!(via_btree, via_set);
        }
    }

    /// The exhaustive search returns the identical subset at any thread
    /// count (Gray-code partitioning is deterministic).
    #[test]
    fn exhaustive_is_thread_count_invariant(seed in 0_u64..500) {
        let scenario = star(seed, 6);
        let a = annotate(&scenario);
        let sequential = ExhaustiveSelection { max_nodes: 10, parallelism: 1 };
        let parallel = ExhaustiveSelection { max_nodes: 10, parallelism: 4 };
        let mode = MaintenanceMode::SharedRecompute;
        prop_assert_eq!(sequential.select(&a, mode), parallel.select(&a, mode));
    }

    /// The Gray-code walk picks exactly the subset a plain ascending-mask
    /// scan keeps (one full `evaluate` per subset, first strict minimum):
    /// the optimum, with the same tie-break.
    #[test]
    fn exhaustive_pick_is_the_brute_force_optimum(seed in 0_u64..500) {
        let scenario = star(seed, 2);
        let a = annotate(&scenario);
        let mode = MaintenanceMode::SharedRecompute;
        let candidates = a.mvpp().interior();
        let subset = |mask: u64| -> BTreeSet<_> {
            candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| *v)
                .collect()
        };
        let mut best = (f64::INFINITY, 0_u64);
        for mask in 0..1_u64 << candidates.len() {
            let cost = evaluate(&a, &subset(mask), mode).total;
            if cost < best.0 {
                best = (cost, mask);
            }
        }
        let exhaustive = ExhaustiveSelection {
            max_nodes: candidates.len(),
            ..ExhaustiveSelection::default()
        };
        prop_assert_eq!(exhaustive.select(&a, mode), subset(best.1));
    }

    /// Any sequence of arbitrary frontiers through one evaluator — the
    /// genetic search's only scoring path: each genome is a jump, not a
    /// flip — leaves `total()` bit-equal to a fresh `evaluate_set` at every
    /// step, whatever the memo has seen before.
    #[test]
    fn frontier_jumps_agree_with_evaluate_set_bit_for_bit(
        seed in 0_u64..1_000,
        frontiers in proptest::collection::vec(
            proptest::collection::vec(proptest::arbitrary::any::<bool>(), 64..=64_usize),
            1..24,
        ),
    ) {
        let scenario = star(seed, 6);
        let a = annotate(&scenario);
        let interior = a.mvpp().interior();
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let mut eval = IncrementalEvaluator::new(&a, mode);
            for picks in &frontiers {
                let frontier = NodeSet::from_ids(
                    a.mvpp().len(),
                    interior
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| picks[i % picks.len()])
                        .map(|(_, v)| *v),
                );
                eval.set_frontier(&frontier);
                let full = evaluate_set(&a, &frontier, mode);
                prop_assert_eq!(eval.total().to_bits(), full.total.to_bits());
                prop_assert_eq!(eval.breakdown(), full);
            }
        }
    }
}

/// The end-to-end designer fans candidate MVPPs across threads; the chosen
/// design, its cost breakdown, and the per-candidate costs must not depend
/// on the thread count.
#[test]
fn designer_is_thread_count_invariant() {
    for seed in [1_u64, 7, 99] {
        let scenario = star(seed, 8);
        let run = |parallelism: usize| {
            let designer = Designer::with_config(DesignerConfig {
                estimation: EstimationMode::Analytic,
                generate: GenerateConfig { max_rotations: 4 },
                parallelism,
                ..DesignerConfig::default()
            });
            designer
                .design(&scenario.catalog, &scenario.workload)
                .expect("star workload designs cleanly")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.materialized, par.materialized, "seed {seed}");
        assert_eq!(seq.cost, par.cost, "seed {seed}");
        assert_eq!(seq.candidate_index, par.candidate_index, "seed {seed}");
        assert_eq!(seq.candidate_costs, par.candidate_costs, "seed {seed}");
        assert_eq!(seq.trace, par.trace, "seed {seed}");
    }
}

/// Sanity: memoization actually kicks in — a flip cycle revisits cached
/// frontiers without re-walking any query.
#[test]
fn incremental_memoization_reuses_walks() {
    let scenario = star(3, 8);
    let a = annotate(&scenario);
    let mut eval = IncrementalEvaluator::new(&a, MaintenanceMode::SharedRecompute);
    let interior = a.mvpp().interior();
    for v in &interior {
        eval.flip(*v);
        eval.flip(*v);
    }
    let walks = eval.walks();
    for v in &interior {
        eval.flip(*v);
        eval.flip(*v);
    }
    assert_eq!(eval.walks(), walks, "repeat cycle must be fully memoized");
}

/// Two 1 000-block relations `R` and `S`, both shipped to the warehouse at
/// `t` per block; `Q1` (fq 10) reads `R ⋈ S`, `Q2` (fq 2) a selection over
/// it.
fn remote_join(t: f64) -> AnnotatedMvpp {
    let mut c = Catalog::new();
    for name in ["R", "S"] {
        c.relation(name)
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .records(10_000.0)
            .blocks(1_000.0)
            .update_frequency(1.0)
            .selectivity("x", 0.1)
            .transfer_cost(t)
            .finish()
            .unwrap();
    }
    c.set_join_selectivity(AttrRef::new("R", "k"), AttrRef::new("S", "k"), 1e-4)
        .unwrap();
    let join = Expr::join(
        Expr::base("R"),
        Expr::base("S"),
        JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
    );
    let filtered = Expr::select(
        join.clone(),
        Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Eq, 5),
    );
    let mut m = Mvpp::new();
    m.insert_query("Q1", 10.0, &join);
    m.insert_query("Q2", 2.0, &filtered);
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    AnnotatedMvpp::annotate(m, &est, UpdateWeighting::Max)
}

/// Shipping added to the central total of `m` at transfer cost 4, read
/// through `evaluate`, `evaluate_set` and `IncrementalEvaluator` alike.
fn shipping_at_4(m: &BTreeSet<NodeId>) -> [f64; 3] {
    let (central, remote) = (remote_join(0.0), remote_join(4.0));
    let mode = MaintenanceMode::SharedRecompute;
    let dense = NodeSet::from_ids(remote.mvpp().len(), m.iter().copied());
    let incremental = |a: &AnnotatedMvpp| {
        let mut eval = IncrementalEvaluator::new(a, mode);
        eval.set_frontier(&dense);
        eval.total()
    };
    [
        evaluate(&remote, m, mode).total - evaluate(&central, m, mode).total,
        evaluate_set(&remote, &dense, mode).total - evaluate_set(&central, &dense, mode).total,
        incremental(&remote) - incremental(&central),
    ]
}

/// With nothing stored, each run of Q1 and Q2 ships R and S once:
/// (10 + 2) · (1 000 + 1 000) · 4 = 96 000.
#[test]
fn remote_data_makes_unmaterialized_queries_costlier() {
    for extra in shipping_at_4(&BTreeSet::new()) {
        assert!((extra - 96_000.0).abs() < 1e-6, "{extra}");
    }
}

/// With the join stored at the warehouse the queries ship nothing; its one
/// refresh ships both relations once: 2 000 · 4 = 8 000.
#[test]
fn materialized_views_absorb_shipping() {
    let join = remote_join(4.0).mvpp().interior()[0];
    for extra in shipping_at_4(&[join].into()) {
        assert!((extra - 8_000.0).abs() < 1e-6, "{extra}");
    }
}

/// On the paper example with every relation remote, the all-virtual total
/// grows with the transfer cost, and at transfer cost 0 it is the central
/// total to the bit.
#[test]
fn shipping_grows_monotonically_with_link_cost() {
    let scenario = paper_example();
    let mvpp = generate_mvpps(
        &scenario.workload,
        &CostEstimator::new(
            &scenario.catalog,
            EstimationMode::Calibrated,
            PaperCostModel::default(),
        ),
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )
    .remove(0);
    let total = |catalog: &Catalog| {
        let est = CostEstimator::new(
            catalog,
            EstimationMode::Calibrated,
            PaperCostModel::default(),
        );
        let a = AnnotatedMvpp::annotate(mvpp.clone(), &est, UpdateWeighting::Max);
        evaluate(&a, &BTreeSet::new(), MaintenanceMode::SharedRecompute).total
    };
    let total_at = |t: f64| {
        let mut catalog = scenario.catalog.clone();
        for name in scenario.catalog.relation_names() {
            catalog.set_transfer_cost(name.as_str(), t).unwrap();
        }
        total(&catalog)
    };
    let central = total(&scenario.catalog);
    assert_eq!(total_at(0.0).to_bits(), central.to_bits());
    let mut previous = central;
    for t in [1.0, 5.0, 25.0] {
        let total = total_at(t);
        assert!(total > previous, "transfer cost {t}: {total} <= {previous}");
        previous = total;
    }
}

/// On the paper example with every relation remote at transfer cost 4, no
/// node of the MVPP ships more than its base inputs whole, and a selection
/// over a remote relation, filtered at the relation's site, ships strictly
/// less than filtering it at the warehouse would.
#[test]
fn at_source_filtering_never_ships_more() {
    let scenario = paper_example();
    let central = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let mvpp = generate_mvpps(
        &scenario.workload,
        &central,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )
    .remove(0);
    let mut catalog = scenario.catalog.clone();
    for name in scenario.catalog.relation_names() {
        catalog.set_transfer_cost(name.as_str(), 4.0).unwrap();
    }
    let remote = CostEstimator::new(
        &catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let mut filters = 0;
    for node in mvpp.nodes() {
        let expr = node.expr();
        let whole: f64 = expr
            .children()
            .into_iter()
            .filter(|input| input.is_base())
            .map(|input| 4.0 * central.stats(input).blocks)
            .sum();
        let shipped = remote.op_cost(expr) - central.op_cost(expr);
        assert!(
            shipped <= whole,
            "{}: ships {shipped} > {whole}",
            node.label()
        );
        if matches!(**expr, Expr::Select { .. }) && whole > 0.0 {
            assert!(shipped < whole, "{}: ships {shipped}", node.label());
            filters += 1;
        }
    }
    assert!(filters > 0, "the paper example filters a base relation");
}
