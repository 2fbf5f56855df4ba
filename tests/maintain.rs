//! Warehouse maintenance battery: on the paper's running example, random
//! append workloads under a random warehouse-wide refresh policy must
//! leave the warehouse answering every workload query exactly as a
//! warehouse *freshly built* over the grown database would — delta folds,
//! recomputes and skips are implementation detail, never answer-visible.
//! A second battery repeats the invariant with the stored views paged out
//! to a small buffer pool (`with_mem_budget`), so refresh folds into
//! views that must be pinned back in first.
//!
//! Deterministic companions pin the bookkeeping the proptests rely on:
//! append validation (`WarehouseError::BadRows`, and
//! `WarehouseError::UnknownRelation` for a materialized view), per-view
//! staleness, and the fold/recompute/skip split in [`RefreshReport`].

use std::sync::OnceLock;

use proptest::prelude::*;

use mvdesign::algebra::Value;
use mvdesign::catalog::Catalog;
use mvdesign::core::DesignResult;
use mvdesign::engine::{Database, Generator, GeneratorConfig};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{RefreshPolicy, Warehouse, WarehouseError};
use mvdesign::workload::{paper_example, tpch_lite};

/// The design is deterministic, so compute it once for every proptest case.
fn fixture() -> &'static (Catalog, DesignResult) {
    static FIXTURE: OnceLock<(Catalog, DesignResult)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = paper_example();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("paper example designs");
        (scenario.catalog, design)
    })
}

fn base_db(seed: u64) -> Database {
    let (catalog, _) = fixture();
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 0.004,
        max_rows: 400,
    })
    .database(catalog)
}

/// One append round: for each base relation, a deterministic prefix of a
/// twin-seeded generator's rows, sized by `quarters[i] ∈ 0..=4` quarters.
/// Returns `(relation, rows)` pairs so the same batch can be fed to the
/// warehouse under test and to the reference database.
fn append_batches(seed: u64, quarters: &[usize]) -> Vec<(String, Vec<Vec<Value>>)> {
    let twin = base_db(seed ^ 0xA99E);
    twin.iter()
        .enumerate()
        .filter_map(|(i, (name, src))| {
            let take = src.len() * quarters[i % quarters.len()].min(4) / 4;
            if take == 0 {
                return None;
            }
            Some((name.to_string(), src.rows()[..take].to_vec()))
        })
        .collect()
}

/// Asserts the warehouse answers every workload query exactly like a
/// reference warehouse freshly built over the same grown database.
fn assert_answers_match(warehouse: &Warehouse, reference: &Warehouse, label: &str) {
    let scenario = paper_example();
    for q in scenario.workload.queries() {
        let got = warehouse
            .query_expr(q.root())
            .expect("maintained warehouse answers")
            .canonicalized();
        let want = reference
            .query_expr(q.root())
            .expect("reference warehouse answers")
            .canonicalized();
        assert_eq!(
            got.rows(),
            want.rows(),
            "{label}: query {} diverges from fresh rebuild",
            q.name()
        );
    }
}

const POLICIES: [RefreshPolicy; 2] = [RefreshPolicy::Recompute, RefreshPolicy::Delta];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite invariant: append → refresh → query equals a freshly
    /// built warehouse over the grown database, for random append sizes,
    /// a random refresh policy, across two rounds (so folds chain on
    /// folds).
    #[test]
    fn maintained_warehouse_equals_fresh_rebuild(
        seed in 0u64..100,
        rounds in proptest::collection::vec(
            proptest::collection::vec(0usize..=4, 4..8), 1..3),
        policy in 0usize..POLICIES.len(),
    ) {
        let (catalog, design) = fixture();
        let mut warehouse = Warehouse::new(catalog.clone(), base_db(seed), design)
            .expect("warehouse builds");
        warehouse.set_refresh_policy(POLICIES[policy]);
        let views = warehouse.views().len();

        let mut grown = base_db(seed);
        for (r, quarters) in rounds.iter().enumerate() {
            for (relation, rows) in append_batches(seed + r as u64, quarters) {
                grown
                    .table_mut(relation.as_str())
                    .expect("reference relation")
                    .extend_rows(rows.clone());
                warehouse.append(relation, rows).expect("append is valid");
            }
            let report = warehouse.refresh().expect("refresh succeeds");
            prop_assert_eq!(
                report.recomputed + report.folded + report.skipped,
                views,
                "every view is accounted for in round {}", r
            );
        }

        let reference = Warehouse::new(catalog.clone(), grown, design)
            .expect("reference warehouse builds");
        assert_answers_match(&warehouse, &reference, "resident");
    }

    /// The same invariant under memory pressure: stored views are paged
    /// out to a small pool, so delta folds and recomputes read and replace
    /// views through pin/evict/reload.
    #[test]
    fn maintained_warehouse_equals_fresh_rebuild_under_mem_budget(
        seed in 0u64..100,
        quarters in proptest::collection::vec(0usize..=4, 4..8),
        policy in 0usize..POLICIES.len(),
    ) {
        let (catalog, design) = fixture();
        let budget = std::env::var("MVDESIGN_MEM_BUDGET")
            .ok()
            .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
            .unwrap_or(256);
        let mut warehouse = Warehouse::new(catalog.clone(), base_db(seed), design)
            .expect("warehouse builds")
            .with_mem_budget(Some(budget));
        warehouse.set_refresh_policy(POLICIES[policy]);
        let views = warehouse.views().len();

        let mut grown = base_db(seed);
        for (relation, rows) in append_batches(seed, &quarters) {
            grown
                .table_mut(relation.as_str())
                .expect("reference relation")
                .extend_rows(rows.clone());
            warehouse.append(relation, rows).expect("append is valid");
        }
        let report = warehouse.refresh().expect("refresh under budget succeeds");
        prop_assert_eq!(report.recomputed + report.folded + report.skipped, views);

        let reference = Warehouse::new(catalog.clone(), grown, design)
            .expect("reference warehouse builds")
            .with_mem_budget(Some(budget));
        assert_answers_match(&warehouse, &reference, "mem-budget");
    }
}

/// A warehouse built over the paper example, grown by one deterministic
/// append round, with refresh not yet run.
fn grown_warehouse(policy: RefreshPolicy) -> Warehouse {
    let (catalog, design) = fixture();
    let mut warehouse =
        Warehouse::new(catalog.clone(), base_db(11), design).expect("warehouse builds");
    warehouse.set_refresh_policy(policy);
    for (relation, rows) in append_batches(11, &[3, 2, 4, 1]) {
        warehouse.append(relation, rows).expect("append is valid");
    }
    warehouse
}

/// Under the default `Delta` policy at least one view folds its appends
/// instead of recomputing, and nothing is skipped while stale.
#[test]
fn delta_policy_folds_appends() {
    let mut warehouse = grown_warehouse(RefreshPolicy::Delta);
    assert!(warehouse.is_stale());
    let report = warehouse.refresh().expect("refresh succeeds");
    assert!(report.folded > 0, "no view folded its delta: {report:?}");
    assert!(!warehouse.is_stale());
}

/// Under `Recompute` every stale view recomputes — the delta path is a
/// policy, not a mandate.
#[test]
fn recompute_policy_never_folds() {
    let mut warehouse = grown_warehouse(RefreshPolicy::Recompute);
    let report = warehouse.refresh().expect("refresh succeeds");
    assert_eq!(
        report.folded, 0,
        "recompute policy must not fold: {report:?}"
    );
    assert!(report.recomputed > 0);
}

/// A second refresh with nothing stale touches no view at all.
#[test]
fn refresh_skips_fresh_views() {
    let mut warehouse = grown_warehouse(RefreshPolicy::Delta);
    warehouse.refresh().expect("first refresh");
    let report = warehouse.refresh().expect("second refresh");
    assert_eq!(report.folded + report.recomputed, 0, "{report:?}");
    assert!(report.skipped > 0);
}

/// Appending rows with the wrong arity is rejected with
/// [`WarehouseError::BadRows`] and leaves the warehouse fresh.
#[test]
fn append_rejects_malformed_rows() {
    let (catalog, design) = fixture();
    let mut warehouse =
        Warehouse::new(catalog.clone(), base_db(3), design).expect("warehouse builds");
    let relation = warehouse
        .database()
        .iter()
        .next()
        .map(|(n, _)| n.clone())
        .expect("a base relation exists");
    let err = warehouse
        .append(relation.clone(), vec![vec![Value::Int(1)]])
        .expect_err("arity mismatch is rejected");
    assert!(
        matches!(err, WarehouseError::BadRows { relation: ref r, .. } if *r == relation),
        "unexpected error: {err}"
    );
    assert!(
        !warehouse.is_stale(),
        "rejected append must not mark views stale"
    );
}

/// Appending to a materialized view is rejected as an unknown relation:
/// only a refresh writes a view, so its rows, version and freshness stay
/// as they were — and no later fold builds on a row no base relation holds.
/// TPC-H-lite, whose default design stores non-empty SPJ and roll-up views.
#[test]
fn append_rejects_materialized_views() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    let db = Generator::with_config(GeneratorConfig {
        seed: 77,
        scale: 0.01,
        ..GeneratorConfig::default()
    })
    .database(&scenario.catalog);
    let mut warehouse = Warehouse::new(scenario.catalog, db, &design).expect("warehouse builds");
    let views: Vec<_> = warehouse
        .views()
        .views()
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    let mut tried = 0;
    for view in views {
        let before = warehouse
            .database()
            .table(view.as_str())
            .expect("view stored")
            .rows()
            .to_vec();
        let Some(row) = before.first().cloned() else {
            continue;
        };
        let version = warehouse.versions().get(&view).copied();
        let err = warehouse
            .append(view.clone(), vec![row])
            .expect_err("a materialized view takes no appends");
        assert!(
            matches!(err, WarehouseError::UnknownRelation(ref r) if *r == view),
            "unexpected error: {err}"
        );
        let after = warehouse
            .database()
            .table(view.as_str())
            .expect("view stored");
        assert_eq!(after.rows(), before, "{view} changed");
        assert_eq!(warehouse.versions().get(&view).copied(), version);
        assert!(!warehouse.is_stale(), "{view} went stale");
        tried += 1;
    }
    assert!(tried > 0, "the fixture stores a non-empty view");
}
