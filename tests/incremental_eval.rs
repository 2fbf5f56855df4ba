//! Equivalence guarantees for the memoized/parallel search engine: the
//! incremental evaluator must agree with full evaluation on arbitrary flip
//! and jump sequences, and every parallelised algorithm must produce the
//! same answer at any thread count.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mvdesign::core::{
    evaluate, evaluate_set, generate_mvpps, AnnotatedMvpp, Designer, DesignerConfig,
    ExhaustiveSelection, GenerateConfig, IncrementalEvaluator, MaintenanceMode, NodeSet,
    SelectionAlgorithm, UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{Scenario, StarSchema, StarSchemaConfig};

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
