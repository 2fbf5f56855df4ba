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
    ExhaustiveSelection, GenerateConfig, GeneticSelection, GreedySelection, IncrementalEvaluator,
    MaintenanceMode, MaintenancePolicy, Mvpp, NodeId, NodeSet, SelectionAlgorithm, UpdateWeighting,
    DEFAULT_DELTA_FRACTION,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{paper_example, Scenario, StarSchema, StarSchemaConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    annotate_with(scenario, MaintenancePolicy::Recompute)
}

fn annotate_with(scenario: &Scenario, policy: MaintenancePolicy) -> AnnotatedMvpp {
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
    AnnotatedMvpp::annotate_with(mvpp, &est, UpdateWeighting::Max, policy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any flip sequence leaves the incremental evaluator bit-equal to a
    /// full `evaluate_set` of the same frontier, in both maintenance modes.
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
            let mut frontier = NodeSet::for_mvpp(a.mvpp());
            for f in &flips {
                let v = interior[f % interior.len()];
                frontier.toggle(v);
                let incremental = eval.flip(v);
                let full = evaluate_set(&a, &frontier, mode);
                prop_assert_eq!(
                    incremental.to_bits(),
                    full.total.to_bits(),
                    "flip diverged: incremental {} vs full {}",
                    incremental,
                    full.total
                );
                prop_assert_eq!(eval.total().to_bits(), full.total.to_bits());
                prop_assert_eq!(eval.breakdown(), full);
            }
        }
    }

    /// Flips and small and large frontier moves, in any interleaving, leave
    /// `total()` bit-equal to a fresh `evaluate_set` of the same frontier —
    /// under both maintenance modes and both maintenance policies (under
    /// the incremental one, folding views leave the refresh pass). A small
    /// move toggles a few nodes and a large one jumps to an arbitrary
    /// frontier (both rebuild the closure, so the next flip recounts the
    /// evaluator's cover counts).
    #[test]
    fn interleaved_moves_agree_with_evaluate_set_bit_for_bit(
        seed in 0_u64..1_000,
        moves in proptest::collection::vec(
            (0_u8..3, proptest::collection::vec(proptest::arbitrary::any::<u16>(), 1..48)),
            1..32,
        ),
    ) {
        let scenario = star(seed, 6);
        let policies = [
            MaintenancePolicy::Recompute,
            MaintenancePolicy::Incremental { update_fraction: DEFAULT_DELTA_FRACTION },
        ];
        for policy in policies {
            let a = annotate_with(&scenario, policy);
            let interior = a.mvpp().interior();
            let pick = |x: u16| interior[x as usize % interior.len()];
            for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
                let mut eval = IncrementalEvaluator::new(&a, mode);
                let mut m = NodeSet::for_mvpp(a.mvpp());
                for (kind, xs) in &moves {
                    match kind {
                        0 => {
                            let v = pick(xs[0]);
                            m.toggle(v);
                            eval.flip(v);
                        }
                        1 => {
                            for &x in xs.iter().take(3) {
                                m.toggle(pick(x));
                            }
                            eval.set_frontier(&m);
                        }
                        _ => {
                            m = NodeSet::from_ids(
                                a.mvpp().len(),
                                xs.iter().filter(|x| *x & 1 == 0).map(|&x| pick(x >> 1)),
                            );
                            eval.set_frontier(&m);
                        }
                    }
                    let full = evaluate_set(&a, &m, mode);
                    prop_assert_eq!(
                        eval.total().to_bits(),
                        full.total.to_bits(),
                        "{:?} {:?} diverged after move {}: {} vs {}",
                        policy,
                        mode,
                        kind,
                        eval.total(),
                        full.total
                    );
                    prop_assert_eq!(eval.breakdown(), full);
                }
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
/// frontiers without re-walking any query, and so does a jump back to any
/// frontier `set_frontier` has been at before (the genetic search's path).
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

    let frontiers: Vec<NodeSet> = (1..=3)
        .map(|step| NodeSet::from_ids(a.mvpp().len(), interior.iter().copied().step_by(step)))
        .collect();
    for m in &frontiers {
        eval.set_frontier(m);
    }
    let walks = eval.walks();
    for m in frontiers.iter().rev().chain(&frontiers) {
        eval.set_frontier(m);
        assert_eq!(
            eval.total().to_bits(),
            evaluate_set(&a, m, MaintenanceMode::SharedRecompute)
                .total
                .to_bits()
        );
    }
    assert_eq!(eval.walks(), walks, "revisited frontiers must be memoized");
}

/// A left-deep join of 14 relations (13 join nodes under one root, more
/// than the evaluator's per-root memo indexes) beside a selection over its
/// first join, whose root sees two interior nodes.
fn wide_join() -> AnnotatedMvpp {
    let mut c = Catalog::new();
    let names: Vec<String> = (0..14).map(|i| format!("R{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        c.relation(name.as_str())
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .records(1_000.0 * (i + 1) as f64)
            .blocks(100.0 * (i + 1) as f64)
            .update_frequency(1.0)
            .selectivity("x", 0.1)
            .finish()
            .unwrap();
    }
    let key = |name: &str| AttrRef::new(name, "k");
    let mut joins = vec![Expr::base(names[0].as_str())];
    for pair in names.windows(2) {
        let (left, right) = (key(&pair[0]), key(&pair[1]));
        c.set_join_selectivity(left.clone(), right.clone(), 1e-3)
            .unwrap();
        let below = joins.last().unwrap().clone();
        joins.push(Expr::join(
            below,
            Expr::base(pair[1].as_str()),
            JoinCondition::on(left, right),
        ));
    }
    let filtered = Expr::select(
        joins[1].clone(),
        Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Eq, 5),
    );
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mut m = Mvpp::builder(est.cardinalities());
    m.insert_query("wide", 3.0, joins.last().unwrap());
    m.insert_query("narrow", 7.0, &filtered);
    AnnotatedMvpp::annotate(m.finish(), &est, UpdateWeighting::Max)
}

/// A root that sees more interior nodes than the memo indexes is walked on
/// every probe through the same path: flips and jumps still equal
/// `evaluate_set` to the bit, and revisiting a frontier walks that root
/// again but never the memoized one.
#[test]
fn roots_past_the_memo_cap_agree_bit_for_bit() {
    let a = wide_join();
    let interior = a.mvpp().interior();
    assert_eq!(interior.len(), 14);
    let wide = a.mvpp().roots()[0].2;
    let seen = a.mvpp().descendants(wide);
    assert_eq!(interior.iter().filter(|v| seen.contains(v)).count() + 1, 13);
    for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
        let mut eval = IncrementalEvaluator::new(&a, mode);
        let mut m = NodeSet::with_capacity(a.mvpp().len());
        let mut x = 0x2545f4914f6cdd1d_u64;
        for step in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = interior[(x % interior.len() as u64) as usize];
            if step % 3 == 0 {
                m = NodeSet::from_ids(
                    a.mvpp().len(),
                    interior
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| x >> i & 1 == 1)
                        .map(|(_, v)| *v),
                );
                eval.set_frontier(&m);
            } else {
                m.toggle(v);
                eval.flip(v);
            }
            let full = evaluate_set(&a, &m, mode);
            assert_eq!(eval.total().to_bits(), full.total.to_bits(), "{mode:?}");
            assert_eq!(eval.breakdown(), full);
        }
        // The top join is seen by the wide root alone: each flip walks it.
        let walks = eval.walks();
        for _ in 0..4 {
            eval.flip(wide);
        }
        assert_eq!(eval.walks(), walks + 4);
        // The narrow root's two nodes: after one cycle, all memoized.
        let narrow = a.mvpp().roots()[1].2;
        eval.flip(narrow);
        eval.flip(narrow);
        let walks = eval.walks();
        eval.flip(narrow);
        eval.flip(narrow);
        assert_eq!(eval.walks(), walks);
    }
}

/// The default designer's candidate MVPPs of a star schema at the default
/// seed, annotated as the designer annotates them, in rotation order.
fn designer_candidates(dimensions: usize, queries: usize) -> Vec<AnnotatedMvpp> {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        dimensions,
        queries,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let config = DesignerConfig::default();
    let est = CostEstimator::new(
        &scenario.catalog,
        config.estimation,
        PaperCostModel::default(),
    );
    generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::with_config(config.planner),
        config.generate,
    )
    .into_iter()
    .map(|mvpp| {
        AnnotatedMvpp::annotate_with(
            mvpp,
            &est,
            config.update_weighting,
            config.maintenance_policy,
        )
    })
    .collect()
}

/// `GeneticSelection::default().select` step for step: the same seeded
/// evolution (greedy, empty and random seeds; tournaments of two, uniform
/// crossover, per-gene mutation, elitism), every genome scored by
/// `set_frontier` on one evaluator. Returns the evaluator's walks and the
/// fittest set, which the caller checks against `select`'s.
fn genetic_walks(a: &AnnotatedMvpp, mode: MaintenanceMode) -> (u64, BTreeSet<NodeId>) {
    let ga = GeneticSelection::default();
    let candidates = a.mvpp().interior();
    let frontier = |genes: &[bool]| {
        NodeSet::from_ids(
            a.mvpp().len(),
            genes
                .iter()
                .zip(&candidates)
                .filter(|(g, _)| **g)
                .map(|(_, id)| *id),
        )
    };
    let mut eval = IncrementalEvaluator::new(a, mode);
    let mut scored = |genes: Vec<bool>| {
        eval.set_frontier(&frontier(&genes));
        (eval.total(), genes)
    };
    let mut rng = StdRng::seed_from_u64(ga.seed);
    let greedy = GreedySelection::new().run(a).0;
    let target = ga.population.max(4);
    let mut seeds = vec![
        candidates.iter().map(|c| greedy.contains(c)).collect(),
        vec![false; candidates.len()],
    ];
    while seeds.len() < target {
        seeds.push((0..candidates.len()).map(|_| rng.gen_bool(0.3)).collect());
    }
    let mut population: Vec<(f64, Vec<bool>)> = seeds.into_iter().map(&mut scored).collect();
    for _ in 0..ga.generations {
        population.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut next: Vec<(f64, Vec<bool>)> = population[..ga.elite.min(population.len())].to_vec();
        let mut offspring = Vec::new();
        while next.len() + offspring.len() < population.len() {
            let mut pick = || {
                let i = rng.gen_range(0..population.len());
                let j = rng.gen_range(0..population.len());
                if population[i].0 <= population[j].0 {
                    i
                } else {
                    j
                }
            };
            let (p1, p2) = (pick(), pick());
            let mut child: Vec<bool> = if rng.gen_bool(ga.crossover_rate) {
                population[p1]
                    .1
                    .iter()
                    .zip(&population[p2].1)
                    .map(|(a, b)| if rng.gen_bool(0.5) { *a } else { *b })
                    .collect()
            } else {
                population[p1.min(p2)].1.clone()
            };
            for gene in child.iter_mut() {
                if rng.gen_bool(ga.mutation_rate) {
                    *gene = !*gene;
                }
            }
            offspring.push(child);
        }
        next.extend(offspring.into_iter().map(&mut scored));
        population = next;
    }
    population.sort_by(|x, y| x.0.total_cmp(&y.0));
    let best = frontier(&population[0].1).to_btree();
    (eval.walks(), best)
}

/// `ExhaustiveSelection::default().select` on an MVPP small enough to
/// enumerate whole on one thread: every Gray-code subset of the interior
/// nodes, one flip per step, on one evaluator. Returns the evaluator's
/// walks and the cheapest set (least mask among ties).
fn exhaustive_walks(a: &AnnotatedMvpp, mode: MaintenanceMode) -> (u64, BTreeSet<NodeId>) {
    let candidates = a.mvpp().interior();
    assert!(candidates.len() <= ExhaustiveSelection::default().max_nodes);
    assert!(a.mvpp().len() < 64, "enumerated on one thread");
    let mut eval = IncrementalEvaluator::new(a, mode);
    let mut best = (eval.total(), 0_u64);
    for i in 1_u64..1 << candidates.len() {
        let cost = eval.flip(candidates[i.trailing_zeros() as usize]);
        let mask = i ^ (i >> 1);
        if cost < best.0 || (cost == best.0 && mask < best.1) {
            best = (cost, mask);
        }
    }
    let set = candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| best.1 & (1 << i) != 0)
        .map(|(_, v)| *v)
        .collect();
    (eval.walks(), set)
}

/// How many query walks the searches' evaluators make on the benchmark's
/// star schemas, candidate by candidate: the memo's key may change shape,
/// but what counts as the same frontier for a root must not. Each replica
/// is first checked to choose what its search chooses.
#[test]
fn search_walk_counts_are_pinned() {
    let mode = DesignerConfig::default().maintenance;
    let genetic: Vec<u64> = designer_candidates(6, 40)
        .iter()
        .map(|a| {
            let (walks, best) = genetic_walks(a, mode);
            assert_eq!(best, GeneticSelection::default().select(a, mode));
            walks
        })
        .collect();
    let exhaustive: Vec<u64> = designer_candidates(4, 4)
        .iter()
        .map(|a| {
            let (walks, best) = exhaustive_walks(a, mode);
            assert_eq!(best, ExhaustiveSelection::default().select(a, mode));
            walks
        })
        .collect();
    assert_eq!(genetic, GENETIC_STAR_6X40_WALKS);
    assert_eq!(exhaustive, EXHAUSTIVE_STAR_4X4_WALKS);
}

/// Walks per candidate of genetic search (default seed) on star-6×40.
const GENETIC_STAR_6X40_WALKS: [u64; 8] = [1524, 1542, 1537, 1530, 1516, 1519, 1520, 1527];
/// Walks per candidate of exhaustive search on star-4×4.
const EXHAUSTIVE_STAR_4X4_WALKS: [u64; 4] = [520, 520, 520, 520];

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
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mut m = Mvpp::builder(est.cardinalities());
    m.insert_query("Q1", 10.0, &join);
    m.insert_query("Q2", 2.0, &filtered);
    AnnotatedMvpp::annotate(m.finish(), &est, UpdateWeighting::Max)
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
