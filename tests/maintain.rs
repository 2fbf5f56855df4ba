//! Warehouse maintenance battery: on the paper's running example, random
//! append workloads under a random warehouse-wide refresh policy must
//! leave the warehouse answering every workload query exactly as a
//! warehouse *freshly built* over the grown database would — delta folds,
//! recomputes and skips are implementation detail, never answer-visible.
//! A second battery repeats the invariant with the stored views paged out
//! to a small buffer pool (`with_mem_budget`), so refresh folds into
//! views that must be pinned back in first.
//!
//! A third battery checks refresh along the MVPP DAG view by view: on
//! random star designs and append scripts, every view after every pass
//! equals its isolated build, the view's own definition executed over the
//! base tables — row for row for a γ-view, as a bag for an SPJ view.
//!
//! Deterministic companions pin the bookkeeping the proptests rely on:
//! append validation (`WarehouseError::BadRows`, and
//! `WarehouseError::UnknownRelation` for a materialized view), per-view
//! staleness, the fold/recompute/skip split in [`RefreshReport`], that
//! no transient outlives the pass that computed it, and that eager
//! aggregation rebuilds γ-views without changing which views fold.
//!
//! [`RefreshReport`]: mvdesign::warehouse::RefreshReport

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use mvdesign::algebra::{Expr, Value};
use mvdesign::catalog::Catalog;
use mvdesign::core::DesignResult;
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig, Table};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{RefreshPolicy, Warehouse, WarehouseError};
use mvdesign::workload::{paper_example, tpch_lite, StarSchema, StarSchemaConfig};

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
    data(&fixture().0, seed)
}

fn data(catalog: &Catalog, seed: u64) -> Database {
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
    twin_batches(&fixture().0, seed, quarters)
}

/// [`append_batches`] over any catalog.
fn twin_batches(
    catalog: &Catalog,
    seed: u64,
    quarters: &[usize],
) -> Vec<(String, Vec<Vec<Value>>)> {
    let twin = data(catalog, seed ^ 0xA99E);
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

/// The battery's memory budget: `MVDESIGN_MEM_BUDGET` when set.
fn env_budget() -> Option<usize> {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
}

/// Asserts every stored view equals its isolated build: its definition
/// executed over the base tables alone, row for row for a γ-view and as a
/// bag for an SPJ view (an SPJ fold appends).
fn assert_views_match_isolated_builds(warehouse: &Warehouse, label: &str) {
    let views: BTreeSet<_> = warehouse.views().views().iter().map(|(n, _)| n).collect();
    let mut base = Database::new();
    for (name, table) in warehouse.database().iter() {
        if !views.contains(name) {
            base.insert_table(table.clone());
        }
    }
    for (name, definition) in warehouse.views().views() {
        let stored = warehouse
            .database()
            .table(name.as_str())
            .expect("view stored");
        let isolated = execute(definition, &base, &ExecContext::default())
            .unwrap_or_else(|e| panic!("{label}: {name} builds in isolation: {e}"));
        if matches!(**definition, Expr::Aggregate { .. }) {
            assert_eq!(stored.rows(), isolated.rows(), "{label}: γ-view {name}");
        } else {
            assert_eq!(
                stored.canonicalized().rows(),
                isolated.canonicalized().rows(),
                "{label}: view {name}"
            );
        }
    }
}

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
        let budget = env_budget().unwrap_or(256);
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

/// A star design: `aggregates` in {0, 1} sets the share of γ-queries to
/// none or half.
fn star(
    seed: u64,
    dimensions: usize,
    queries: usize,
    aggregates: usize,
) -> (Catalog, DesignResult) {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        seed,
        dimensions,
        queries,
        aggregate_probability: aggregates as f64 * 0.5,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("star designs");
    (scenario.catalog, design)
}

/// Builds a warehouse over `catalog`'s data for `seed` under `policy` (and
/// `MVDESIGN_MEM_BUDGET` when set), then runs one append round and one
/// refresh per entry of `rounds`; every view must equal its isolated build
/// after the build and after every refresh.
fn refresh_rounds_match_isolated_builds(
    catalog: &Catalog,
    design: &DesignResult,
    seed: u64,
    rounds: &[Vec<usize>],
    policy: RefreshPolicy,
) {
    let mut warehouse = Warehouse::new(catalog.clone(), data(catalog, seed), design)
        .expect("warehouse builds")
        .with_mem_budget(env_budget());
    warehouse.set_refresh_policy(policy);
    let views = warehouse.views().len();
    assert_views_match_isolated_builds(&warehouse, "build");
    for (r, quarters) in rounds.iter().enumerate() {
        for (relation, rows) in twin_batches(catalog, seed + r as u64, quarters) {
            warehouse.append(relation, rows).expect("append is valid");
        }
        let report = warehouse.refresh().expect("refresh succeeds");
        assert_eq!(
            report.recomputed + report.folded + report.skipped,
            views,
            "every view is accounted for in round {r}"
        );
        assert_views_match_isolated_builds(&warehouse, &format!("round {r}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DAG refresh ≡ isolated refresh: on a random star design — views
    /// routed through the views they contain, shared subplans computed once
    /// as transients — every view after the build and after every append
    /// round equals its own definition executed over the base tables. Runs
    /// under `MVDESIGN_MEM_BUDGET` when it is set.
    #[test]
    fn dag_refresh_equals_isolated_refresh(
        seed in 0u64..1000,
        dimensions in 3usize..=6,
        queries in 4usize..=10,
        aggregates in 0usize..2,
        rounds in proptest::collection::vec(
            proptest::collection::vec(0usize..=4, 2..8), 1..4),
        policy in 0usize..POLICIES.len(),
    ) {
        let (catalog, design) = star(seed, dimensions, queries, aggregates);
        refresh_rounds_match_isolated_builds(&catalog, &design, seed, &rounds, POLICIES[policy]);
    }
}

/// A view routed through a γ-view cannot fold through it: the γ fold
/// rewrites the child's groups rather than appending rows. Star seed 144
/// (5 dimensions, 4 queries, half of them γ) stores a roll-up view that
/// another γ-view re-aggregates; both go stale on every Fact append, so the
/// parent must fold its unrouted definition.
#[test]
fn a_view_over_a_folded_gamma_view_folds_its_definition() {
    let (catalog, design) = star(144, 5, 4, 1);
    let views = mvdesign::core::ViewCatalog::from_design(&design);
    let over_gamma = views.views().iter().any(|(name, definition)| {
        views.views().iter().any(|(child, child_def)| {
            let mut only = mvdesign::core::ViewCatalog::new();
            only.register(child.clone(), child_def.clone());
            child != name
                && matches!(**child_def, Expr::Aggregate { .. })
                && only.match_count(definition) > 0
        })
    });
    assert!(over_gamma, "the fixture routes a view through a γ-view");
    let rounds = vec![vec![4, 2, 3, 1, 4, 2, 3], vec![1, 3, 2, 4, 1, 3, 2]];
    refresh_rounds_match_isolated_builds(&catalog, &design, 144, &rounds, RefreshPolicy::Delta);
}

/// Eager aggregation is for rebuilds only. TPC-H-lite grown by appends to
/// Lineitem and Orders: under `Delta` the pass folds and recomputes exactly
/// the views it did when every rebuild ran its routed definition (five
/// folds, no recompute), none through an eager plan. Under `Recompute`
/// the three γ-over-join views are rebuilt eagerly, paged under
/// `MVDESIGN_MEM_BUDGET` when that is set. Every view equals its isolated
/// build after each pass.
#[test]
fn eager_aggregation_rebuilds_and_leaves_folds_alone() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("TPC-H-lite designs");
    let mut warehouse = Warehouse::new(
        scenario.catalog.clone(),
        data(&scenario.catalog, 3),
        &design,
    )
    .expect("warehouse builds")
    .with_mem_budget(env_budget());
    assert_eq!(warehouse.last_refresh().eager, 3);
    let twin = data(&scenario.catalog, 3 ^ 0xA99E);
    let grow = |warehouse: &mut Warehouse| {
        for relation in ["Lineitem", "Orders"] {
            let rows = twin.table(relation).expect("twin relation").rows();
            let half = rows[..rows.len() / 2].to_vec();
            warehouse.append(relation, half).expect("append is valid");
        }
    };
    grow(&mut warehouse);
    let report = warehouse.refresh().expect("delta refresh");
    assert_eq!(
        (report.folded, report.recomputed, report.eager),
        (5, 0, 0),
        "{report:?}"
    );
    assert_views_match_isolated_builds(&warehouse, "tpch-lite delta");
    warehouse.set_refresh_policy(RefreshPolicy::Recompute);
    grow(&mut warehouse);
    let report = warehouse.refresh().expect("recompute refresh");
    assert_eq!(report.eager, 3, "{report:?}");
    assert_views_match_isolated_builds(&warehouse, "tpch-lite recompute");
}

/// Live pool frames a table holds: one per page of each column.
fn frames(table: &Table) -> usize {
    table.pages().page_count() * table.attrs().len()
}

/// No transient outlives its pass. TPC-H-lite under a budget rebuilds the
/// four views over Lineitem, which share π(Lineitem): a transient sharing
/// Lineitem's pages. Star-6×10 rebuilds its views over Fact, which share
/// joins: transients paged into the pool.
#[test]
fn no_transient_outlives_its_pass() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    transients_end_with_their_pass(&scenario.catalog, &design, "Lineitem");
    let scenario = StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions: 6,
        queries: 10,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("star designs");
    transients_end_with_their_pass(&scenario.catalog, &design, "Fact");
}

/// Appends to `relation` of a budgeted warehouse and rebuilds the stale
/// views in one pass, which must compute a transient. Afterwards the pool
/// holds the frames it held before the pass, less the replaced views',
/// plus the committed views' — every live frame is a stored table's — and
/// the database holds exactly the base relations and the views.
fn transients_end_with_their_pass(catalog: &Catalog, design: &DesignResult, relation: &str) {
    let budget = env_budget().unwrap_or(64 * 1024);
    let mut warehouse = Warehouse::new(catalog.clone(), data(catalog, 5), design)
        .expect("warehouse builds")
        .with_mem_budget(Some(budget));
    warehouse.set_refresh_policy(RefreshPolicy::Recompute);
    let appended = data(catalog, 5 ^ 0xA99E)
        .table(relation)
        .expect("relation")
        .rows()[..100]
        .to_vec();
    warehouse
        .append(relation, appended)
        .expect("append is valid");
    let stale: Vec<_> = warehouse.stale_views().cloned().collect();
    let view_frames = |w: &Warehouse| -> usize {
        let db = w.database();
        stale
            .iter()
            .map(|v| frames(db.table(v.as_str()).expect("view")))
            .sum()
    };
    // A warehouse stores its base relations and its views, nothing else.
    let names =
        |w: &Warehouse| -> BTreeSet<_> { w.database().iter().map(|(n, _)| n.clone()).collect() };
    let stored: BTreeSet<_> = (data(catalog, 5).iter().map(|(n, _)| n.clone()))
        .chain(warehouse.views().views().iter().map(|(n, _)| n.clone()))
        .collect();
    assert_eq!(names(&warehouse), stored, "the build committed a transient");
    let pool = warehouse.buffer_pool().expect("budgeted").clone();
    let (pages_before, replaced) = (pool.stats().pages, view_frames(&warehouse));

    let report = warehouse.refresh().expect("refresh succeeds");
    assert!(
        report.transients > 0,
        "the pass shares a subplan: {report:?}"
    );
    assert_eq!(report.recomputed, stale.len(), "{report:?}");
    assert_eq!(
        pool.stats().pages,
        pages_before - replaced + view_frames(&warehouse),
        "a transient's pages outlived the pass"
    );
    let held: usize = warehouse.database().iter().map(|(_, t)| frames(t)).sum();
    assert_eq!(
        pool.stats().pages,
        held,
        "every live frame is a stored table's"
    );
    assert_eq!(names(&warehouse), stored, "the pass committed a transient");
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
