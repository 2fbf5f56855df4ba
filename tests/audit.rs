//! The correctness-audit suite.
//!
//! Property tests drive the structural validator, the three-way differential
//! cost oracle and the greedy-trace replay over hundreds of randomly
//! generated star-schema workloads; a named regression corpus under
//! `tests/corpus/` pins one scenario per previously fixed bug
//! (NaN-weight sort panics, zero-block catalog stats, a second evaluator's
//! SharedRecompute maintenance formula).

use proptest::prelude::*;

use mvdesign::catalog::{Catalog, CatalogError};
use mvdesign::core::{audit_annotated, check_greedy_trace, validate_mvpp, validate_schemas};
use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, ExhaustiveSelection, GenerateConfig, GeneticSelection,
    GreedySelection, MaintenanceMode, MaintenancePolicy, MaterializeAll, MaterializeNone,
    RandomSearch, SelectionAlgorithm, SimulatedAnnealing, UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{
    degenerate_scenarios, parse_scenario, DslError, Scenario, StarSchema, StarSchemaConfig,
};
use mvdesign_verify::{audit_scenario, check_prune_safety, remote_twin, AuditConfig};

fn corpus(name: &str) -> String {
    let path = format!("{}/../../tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn annotate(
    scenario: &Scenario,
    policy: MaintenancePolicy,
) -> (AnnotatedMvpp, CostEstimator<'_, PaperCostModel>) {
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let mvpp = generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )
    .remove(0);
    (
        AnnotatedMvpp::annotate_with(mvpp, &est, UpdateWeighting::Max, policy),
        est,
    )
}

/// The same MVPP as `a`, annotated under `policy` over `twin` — a catalog
/// that differs from the one `a` was annotated with only in transfer costs.
fn annotate_twin(a: &AnnotatedMvpp, twin: &Catalog, policy: MaintenancePolicy) -> AnnotatedMvpp {
    let est = CostEstimator::new(twin, EstimationMode::Calibrated, PaperCostModel::default());
    AnnotatedMvpp::annotate_with(a.mvpp().clone(), &est, UpdateWeighting::Max, policy)
}

const POLICIES: [MaintenancePolicy; 2] = [
    MaintenancePolicy::Recompute,
    MaintenancePolicy::Incremental {
        update_fraction: 0.25,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every oracle, on a random star-schema workload, under both
    /// maintenance policies: MVPP structural invariants, per-node schemas,
    /// the bit-exact three-way cost differential (`evaluate` ≡
    /// `evaluate_set` ≡ `IncrementalEvaluator`), the greedy trace replay
    /// with its same-branch pruning invariant and the bounded-loss prune
    /// tripwire; then the structural and cost oracles again on a twin
    /// annotation of the same MVPP whose catalog ships a seeded half of the
    /// relations from remote sites.
    #[test]
    fn random_star_workloads_audit_clean(
        seed in 0u64..10_000,
        dimensions in 2usize..5,
        queries in 3usize..7,
        aggregate_probability in 0.0f64..0.4,
    ) {
        let scenario = StarSchema::with_config(StarSchemaConfig {
            seed,
            dimensions,
            queries,
            aggregate_probability,
            ..StarSchemaConfig::default()
        })
        .scenario();
        for policy in POLICIES {
            let (a, _est) = annotate(&scenario, policy);
            let report = audit_annotated(&a, &scenario.catalog);
            prop_assert!(report.is_clean(), "{policy:?} audit: {report}");
            let report = check_prune_safety(&a);
            prop_assert!(report.is_clean(), "{policy:?} prune: {report}");
            let twin_catalog = remote_twin(&scenario.catalog, seed);
            let twin = annotate_twin(&a, &twin_catalog, policy);
            let report = audit_annotated(&twin, &twin_catalog);
            prop_assert!(report.is_clean(), "{policy:?} transfer-cost twin: {report}");
        }
    }
}

/// The structural validator and greedy replay hold on every degenerate
/// scenario (empty relations, zero frequencies, duplicated subexpressions).
#[test]
fn degenerate_scenarios_audit_clean() {
    for case in degenerate_scenarios() {
        for policy in POLICIES {
            let (a, _est) = annotate(&case.scenario, policy);
            let report = audit_annotated(&a, &case.scenario.catalog);
            assert!(report.is_clean(), "{}/{policy:?}: {report}", case.name);
            let report = check_greedy_trace(&a);
            assert!(report.is_clean(), "{}/{policy:?}: {report}", case.name);
        }
    }
}

/// Regression (NaN weight sorts): the corpus relations are large enough
/// that join cost estimates overflow f64 to infinity, so the node weight
/// `fq·Ca − fu·Cm` comes out `∞ − ∞ = NaN` — from perfectly valid, finite
/// catalog statistics. The weight/fitness sorts used
/// `partial_cmp(..).expect(..)` and panicked; they now use `total_cmp`, so
/// every selection algorithm must run to completion (the selected cost may
/// legitimately be non-finite — the point is termination, not optimality).
/// `max_nodes: 1` forces the exhaustive search down its weight-ranked
/// candidate-truncation path, where the panic lived.
#[test]
fn corpus_nan_weight_sort_runs_every_algorithm() {
    let scenario = parse_scenario(&corpus("nan-weight-sort.dsl")).expect("corpus parses");
    let (a, _est) = annotate(&scenario, MaintenancePolicy::Recompute);
    assert!(
        a.mvpp()
            .nodes()
            .iter()
            .any(|n| a.annotation(n.id()).weight.is_nan()),
        "corpus must actually produce a NaN weight, or this test proves nothing"
    );
    let truncating = ExhaustiveSelection {
        max_nodes: 1,
        parallelism: 1,
    };
    let algorithms: [&dyn SelectionAlgorithm; 8] = [
        &GreedySelection::new(),
        &MaterializeAll,
        &MaterializeNone,
        &ExhaustiveSelection::default(),
        &truncating,
        &RandomSearch::default(),
        &SimulatedAnnealing::default(),
        &GeneticSelection::default(),
    ];
    for algo in algorithms {
        let m = algo.select(&a, MaintenanceMode::SharedRecompute);
        // Termination and a well-formed selection are the contract; the cost
        // itself overflows by design.
        let _ = evaluate(&a, &m, MaintenanceMode::SharedRecompute).total;
    }
    let report = validate_mvpp(a.mvpp());
    assert!(report.is_clean(), "{report}");
}

/// Regression (zero-block stats): a populated relation claiming zero blocks
/// used to slip through the catalog builder and surface as NaN/∞ deep inside
/// selection. The builder now rejects it, so parsing the corpus file fails
/// with an error naming the block count.
#[test]
fn corpus_zero_blocks_relation_is_rejected() {
    let err = parse_scenario(&corpus("zero-blocks-relation.dsl"))
        .expect_err("zero blocks for 100 records must not validate");
    match err {
        DslError::Catalog { source, .. } => assert!(
            matches!(
                source,
                CatalogError::InvalidValue {
                    what: "block count (zero blocks for a populated relation)",
                    ..
                }
            ),
            "unexpected catalog error: {source}"
        ),
        other => panic!("expected a catalog validation error, got: {other}"),
    }
}

/// Regression (distributed SharedRecompute): a separate distributed
/// evaluator once billed full recomputation and dropped the incremental
/// maintenance terms, so under `MaintenancePolicy::Incremental` it disagreed
/// with the core evaluator. Transfer costs are now priced inside `op_cost`,
/// so the one core evaluator covers them: on this corpus scenario with a
/// transfer-cost twin catalog, its three cost paths stay bit-exact under
/// both policies, and the twin with every transfer cost at 0 annotates
/// every node exactly as the central catalog does.
#[test]
fn corpus_distributed_shared_recompute_bit_exact() {
    let scenario =
        parse_scenario(&corpus("distributed-shared-recompute.dsl")).expect("corpus parses");
    let twin_catalog = remote_twin(&scenario.catalog, 0xD15C);
    let mut local = twin_catalog.clone();
    for name in scenario.catalog.relation_names() {
        local.set_transfer_cost(name.as_str(), 0.0).expect("known");
    }
    for policy in POLICIES {
        let (a, _est) = annotate(&scenario, policy);
        let twin = annotate_twin(&a, &twin_catalog, policy);
        let report = audit_annotated(&twin, &twin_catalog);
        assert!(report.is_clean(), "{policy:?}: {report}");
        let none = std::collections::BTreeSet::new();
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            assert!(
                evaluate(&twin, &none, mode).total > evaluate(&a, &none, mode).total,
                "{policy:?}/{mode:?}: remote relations must cost more"
            );
        }
        let zero = annotate_twin(&a, &local, policy);
        for v in a.mvpp().interior() {
            assert_eq!(zero.annotation(v), a.annotation(v), "{policy:?}: {v:?}");
        }
    }
}

/// The full audit battery also accepts the corpus scenarios with honest
/// statistics, including the executable semantics oracle on generated data.
/// (`nan-weight-sort.dsl` is excluded: its joint-size override is poisoned
/// by design, so its costs are not meaningful to audit.)
#[test]
fn corpus_scenarios_pass_full_audit() {
    let config = AuditConfig::default();
    let name = "distributed-shared-recompute.dsl";
    let scenario = parse_scenario(&corpus(name)).expect("corpus parses");
    let report = audit_scenario(&scenario, &config);
    assert!(report.is_clean(), "{name}: {report}");
}

/// The oracles must catch bugs, not just bless healthy designs: dropping a
/// conjunct during a "rewrite" is flagged, and the structural validator
/// still accepts the honest design end-to-end.
#[test]
fn rewrite_oracle_detects_dropped_predicate() {
    use mvdesign::algebra::{AttrRef, CompareOp, Expr, Predicate};
    use mvdesign::core::check_query_rewrite;

    let scenario = parse_scenario(&corpus("nan-weight-sort.dsl")).expect("corpus parses");
    let original = scenario
        .workload
        .query("hot")
        .expect("hot exists")
        .root()
        .clone();
    // A "rewrite" that forgets the `val > 3` filter.
    let dishonest = Expr::select(
        Expr::join(
            Expr::base("Archive"),
            Expr::base("Live"),
            mvdesign::algebra::JoinCondition::on(
                AttrRef::new("Archive", "id"),
                AttrRef::new("Live", "id"),
            ),
        ),
        Predicate::cmp(AttrRef::new("Live", "val"), CompareOp::Gt, 4),
    );
    let report = check_query_rewrite(&original, &dishonest, &scenario.catalog);
    assert!(!report.is_clean(), "changed predicate must be flagged");

    let (a, _est) = annotate(&scenario, MaintenancePolicy::Recompute);
    let report = validate_mvpp(a.mvpp());
    assert!(report.is_clean(), "{report}");
    let report = validate_schemas(a.mvpp(), &scenario.catalog);
    assert!(report.is_clean(), "{report}");
}
