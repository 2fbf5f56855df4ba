//! End-to-end tests of the answering-queries-using-views loop: design →
//! materialize the chosen views as tables → route queries through them →
//! identical answers at lower measured I/O.
//!
//! Soundness of the matcher is the point of most of this file: a proptest
//! routes random SPJ/γ queries through random view sets and compares every
//! answer — header, order and bag — with the row-at-a-time reference over
//! the base tables alone; unit tests produce each refusal rule's
//! [`MissReason`]; and two pins hold the routings the benchmark depends on
//! (merged plans route as before, raw TPC-H-lite SQL reaches the views).
//! Two last proptests rebuild random γ-over-join plans by eager
//! aggregation, planned by the join DP refresh rebuilds use: over a join
//! cut in two (checked against the definition and against the matcher's
//! plan over the same partials) and over random join trees under a σ
//! (checked against the definition).
//! `MVDESIGN_MEM_BUDGET` (bytes) pages every table and bounds the operators,
//! the way `tests/maintain.rs` honours it, so compensated plans also run
//! over paged views.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::strategy::Strategy;
use rand::{rngs::StdRng, SeedableRng};

use mvdesign::algebra::{
    parse_query_with, AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Query,
    Value,
};
use mvdesign::catalog::{AttrType, Catalog, RelationStats};
use mvdesign::core::{
    Decision, DesignResult, MissReason, Mvpp, NodeId, Routed, ViewCatalog, Workload,
};
use mvdesign::cost::{CostEstimator, EstimationMode, MeasureCostModel};
use mvdesign::engine::{
    execute, materialize_view, measure, profile_database, BufferPool, Database, ExecContext,
    Generator, GeneratorConfig, Table,
};
use mvdesign::optimizer::Planner;
use mvdesign::prelude::Designer;
use mvdesign::warehouse::Warehouse;
use mvdesign::workload::{paper_example, tpch_catalog, tpch_lite, Scenario};
use mvdesign_verify::row_reference;

#[test]
fn rewritten_queries_match_and_cost_less() {
    let scenario = paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("paper workload designs");
    let views = ViewCatalog::from_design(&design);
    assert_eq!(views.len(), design.materialized.len());
    assert!(!views.is_empty());

    // Materialize the views as actual tables.
    let mut db = Generator::with_config(GeneratorConfig {
        seed: 21,
        scale: 0.004,
        max_rows: 400,
    })
    .database(&scenario.catalog);
    for (name, definition) in views.views() {
        materialize_view(name.clone(), definition, &mut db, &ExecContext::default())
            .expect("view materializes");
    }

    let mut any_rewritten = false;
    for q in scenario.workload.queries() {
        // Rewrite against the *merged* plan (the one the MVPP computes), so
        // the shared joins the design materialized are actually present in
        // the tree being rewritten.
        let (_, _, root) = design
            .mvpp
            .mvpp()
            .roots()
            .iter()
            .find(|(n, _, _)| n == q.name())
            .expect("query has a root");
        let merged = design.mvpp.mvpp().node(*root).expr();
        let rewritten = views.rewrite(merged);
        if views.match_count(merged) > 0 {
            any_rewritten = true;
            assert_ne!(rewritten.semantic_key(), merged.semantic_key());
        }

        let expected = execute(q.root(), &db, &ExecContext::default())
            .expect("original executes")
            .canonicalized();
        let got = execute(&rewritten, &db, &ExecContext::default())
            .expect("rewritten executes")
            .canonicalized();
        assert_eq!(
            expected.rows(),
            got.rows(),
            "{} changed after rewrite",
            q.name()
        );

        // Reading the stored view must not cost more than recomputing it.
        let (_, io_merged) =
            measure(merged, &db, 10.0, &ExecContext::default()).expect("merged measures");
        let (_, io_rewritten) =
            measure(&rewritten, &db, 10.0, &ExecContext::default()).expect("rewritten measures");
        assert!(
            io_rewritten.total() <= io_merged.total(),
            "{}: rewritten {} > merged {}",
            q.name(),
            io_rewritten.total(),
            io_merged.total()
        );
    }
    assert!(any_rewritten, "no query used any view");
}

#[test]
fn ad_hoc_query_not_in_the_workload_still_hits_the_views() {
    let scenario = paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    let views = ViewCatalog::from_design(&design);

    // An ad hoc query whose core is the materialized σOrder⋈Customer join
    // with the same (disjunctive) filter the MVPP pushed down.
    let merged_q4_root = design
        .mvpp
        .mvpp()
        .roots()
        .iter()
        .find(|(n, _, _)| n == "Q4")
        .map(|(_, _, id)| design.mvpp.mvpp().node(*id).expr())
        .expect("Q4 exists");
    // Build a *new* query over the same shared join: project different
    // attributes out of Q4's input subtree.
    let q4_input = match &**merged_q4_root {
        mvdesign::algebra::Expr::Project { input, .. } => input,
        other => panic!("expected projection root, got {other}"),
    };
    let ad_hoc = mvdesign::algebra::Expr::project(
        std::sync::Arc::clone(q4_input),
        [mvdesign::algebra::AttrRef::new("Customer", "name")],
    );
    assert!(
        views.match_count(&ad_hoc) > 0,
        "ad hoc query should reuse a view"
    );

    let mut db = Generator::with_config(GeneratorConfig {
        seed: 3,
        scale: 0.004,
        max_rows: 300,
    })
    .database(&scenario.catalog);
    for (name, definition) in views.views() {
        materialize_view(name.clone(), definition, &mut db, &ExecContext::default())
            .expect("materializes");
    }
    let direct = execute(&ad_hoc, &db, &ExecContext::default())
        .expect("direct")
        .canonicalized();
    let via_views = execute(&views.rewrite(&ad_hoc), &db, &ExecContext::default())
        .expect("rewritten")
        .canonicalized();
    assert_eq!(direct.rows(), via_views.rows());
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn mem_budget() -> Option<usize> {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
}

/// Materializes `views` into a copy of `base` and returns the database to
/// serve from with its context: resident and unbounded by default, every
/// table paged into a pool of `MVDESIGN_MEM_BUDGET` bytes when that is set.
fn serving(base: &Database, views: &ViewCatalog) -> (Database, ExecContext) {
    let mut db = base.clone();
    let mut ctx = ExecContext::default();
    for (name, definition) in views.views() {
        materialize_view(name.clone(), definition, &mut db, &ctx).expect("view materializes");
    }
    if let Some(bytes) = mem_budget() {
        db.rehome(Some(&BufferPool::new(Some(bytes))), 7);
        ctx.mem_budget = Some(bytes);
    }
    (db, ctx)
}

/// The answer a routed plan must give: the row-at-a-time reference over
/// the base tables, no views anywhere.
fn reference(query: &Arc<Expr>, base: &Database) -> Table {
    row_reference::execute(query, base).expect("reference executes")
}

/// Header, column order and bag of rows all equal.
fn assert_same_answer(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.attrs(), want.attrs(), "{what}: header differs");
    assert_eq!(
        got.canonicalized().rows(),
        want.canonicalized().rows(),
        "{what}: rows differ"
    );
}

fn view_scans(plan: &Arc<Expr>, views: &ViewCatalog) -> Vec<String> {
    let mut out = Vec::new();
    mvdesign::algebra::postorder(plan, &mut |n| {
        if let Expr::Base(r) = &**n {
            if views.views().iter().any(|(v, _)| v == r) {
                out.push(r.to_string());
            }
        }
    });
    out
}

fn scanned(routed: &Routed) -> Vec<String> {
    routed
        .decisions
        .iter()
        .filter_map(|d| d.scanned().map(ToString::to_string))
        .collect()
}

/// Routes `query`, executes the plan over base tables plus views and checks
/// it against the reference; also that `route`, `rewrite` and `match_count`
/// are one code path. Returns the routing for further assertions.
fn check_routed(
    query: &Arc<Expr>,
    views: &ViewCatalog,
    base: &Database,
    db: &Database,
    ctx: &ExecContext,
) -> Routed {
    let routed = views.route(query);
    assert_eq!(
        views.rewrite(query),
        routed.plan,
        "rewrite ≠ route for {query}"
    );
    let mut in_plan = view_scans(&routed.plan, views);
    assert_eq!(
        in_plan.len(),
        views.match_count(query),
        "match_count for {query}"
    );
    let mut decided = scanned(&routed);
    in_plan.sort();
    decided.sort();
    assert_eq!(in_plan, decided, "decisions ≠ scans for {query}");
    let got = execute(&routed.plan, db, ctx)
        .unwrap_or_else(|e| panic!("routed plan {} fails: {e}", routed.plan));
    assert_same_answer(
        &got,
        &reference(query, base),
        &format!("{query} routed as {}", routed.plan),
    );
    routed
}

fn design_of(scenario: &Scenario) -> DesignResult {
    Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("scenario designs")
}

fn small_db(catalog: &Catalog, seed: u64) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 0.0002,
        max_rows: 300,
    })
    .database(catalog)
}

fn sql(text: &str) -> Arc<Expr> {
    parse_query_with(text, &tpch_catalog()).expect("test SQL parses")
}

fn catalog_of(views: &[(&str, &str)]) -> ViewCatalog {
    let mut out = ViewCatalog::new();
    for (name, text) in views {
        assert!(out.register(*name, sql(text)), "{name} registers");
    }
    out
}

fn miss(view: Option<&str>, reason: MissReason) -> Decision {
    Decision::Miss {
        view: view.map(Into::into),
        reason,
    }
}

/// Routes `query` through `views` over TPC-H-lite data, checks the answer
/// and returns the routing.
fn route_over_tpch(views: &ViewCatalog, query: &Arc<Expr>) -> Routed {
    let base = small_db(&tpch_catalog(), 5);
    let (db, ctx) = serving(&base, views);
    check_routed(query, views, &base, &db, &ctx)
}

// ---------------------------------------------------------------------------
// Regressions: an exact class hit keeps the query's column order
// ---------------------------------------------------------------------------

#[test]
fn exact_hit_on_a_reordered_projection_keeps_the_query_order() {
    let views = catalog_of(&[(
        "v",
        "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE shipdate > 6/1/95",
    )]);
    let query = sql("SELECT price, qty, Lineitem.ok FROM Lineitem WHERE shipdate > 6/1/95");
    let routed = route_over_tpch(&views, &query);
    assert_eq!(routed.decisions, [Decision::Exact("v".into())]);
    assert_eq!(
        routed.plan.to_string(),
        "π[Lineitem.price,Lineitem.qty,Lineitem.ok](v)"
    );
    // The view's own order stays a bare scan: no π that `measure` would charge.
    assert_eq!(views.rewrite(&views.views()[0].1).to_string(), "v");
}

#[test]
fn exact_hit_on_reordered_aggregates_keeps_the_query_order() {
    let views = catalog_of(&[(
        "v",
        "SELECT priority, COUNT(*) AS n, MIN(ok) AS lo FROM Orders GROUP BY Orders.priority",
    )]);
    let query =
        sql("SELECT priority, MIN(ok) AS lo, COUNT(*) AS n FROM Orders GROUP BY Orders.priority");
    let routed = route_over_tpch(&views, &query);
    assert_eq!(routed.decisions, [Decision::Exact("v".into())]);
    assert_eq!(
        routed.plan.to_string(),
        "π[Orders.priority,#agg.lo,#agg.n](v)"
    );
}

// ---------------------------------------------------------------------------
// Containment: what compensates, and one refusal per rule
// ---------------------------------------------------------------------------

#[test]
fn a_narrower_range_is_answered_with_a_residual_selection() {
    let views = catalog_of(&[(
        "v",
        "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE qty > 3",
    )]);
    let routed = route_over_tpch(
        &views,
        &sql("SELECT price, Lineitem.ok FROM Lineitem WHERE qty > 20 AND price > 5"),
    );
    let [Decision::Compensated {
        view,
        residual,
        reaggregated: false,
    }] = &routed.decisions[..]
    else {
        panic!("expected one compensated hit, got {:?}", routed.decisions);
    };
    assert_eq!(view, "v");
    assert_eq!(residual.conjuncts().len(), 2, "{residual}");
    // The same range needs no residual, and the stored order no π.
    let same = sql("SELECT Lineitem.ok, qty, price FROM Lineitem WHERE qty > 3");
    assert_eq!(views.rewrite(&same).to_string(), "v");
}

#[test]
fn a_disjunct_of_a_pushed_down_disjunction_is_contained() {
    let la_or_big = Predicate::or([
        Predicate::cmp(AttrRef::new("Orders", "priority"), CompareOp::Eq, "v1"),
        Predicate::cmp(AttrRef::new("Orders", "ok"), CompareOp::Gt, 100),
    ]);
    let mut views = ViewCatalog::new();
    views.register("v", Expr::select(Expr::base("Orders"), la_or_big));
    let routed = route_over_tpch(
        &views,
        &sql("SELECT ok, ck FROM Orders WHERE priority = 'v1'"),
    );
    assert_eq!(scanned(&routed), ["v"]);
    assert_eq!(
        routed.plan.to_string(),
        "π[Orders.ok,Orders.ck](σ[Orders.priority='v1'](v))"
    );
}

#[test]
fn a_view_grouped_finer_is_rolled_up() {
    let views = catalog_of(&[(
        "v",
        "SELECT priority, ck, COUNT(*) AS n, SUM(ok) AS s, MAX(ok) AS hi \
         FROM Orders GROUP BY Orders.priority, Orders.ck",
    )]);
    let routed = route_over_tpch(
        &views,
        &sql(
            "SELECT priority, SUM(ok) AS s, COUNT(*) AS n, MAX(ok) AS hi \
              FROM Orders GROUP BY Orders.priority",
        ),
    );
    assert_eq!(
        routed.decisions,
        [Decision::Compensated {
            view: "v".into(),
            residual: Predicate::True,
            reaggregated: true,
        }]
    );
    assert_eq!(
        routed.plan.to_string(),
        "γ[Orders.priority; SUM(#agg.s) AS s,SUM(#agg.n) AS n,MAX(#agg.hi) AS hi](v)"
    );
}

#[test]
fn refused_when_the_predicate_is_not_implied() {
    let views = catalog_of(&[("v", "SELECT Lineitem.ok, qty FROM Lineitem WHERE qty > 5")]);
    let query = sql("SELECT Lineitem.ok, qty FROM Lineitem WHERE qty > 3");
    let routed = route_over_tpch(&views, &query);
    assert_eq!(
        routed.decisions,
        [miss(Some("v"), MissReason::PredicateNotImplied)]
    );
    assert!(Arc::ptr_eq(&routed.plan, &query));
}

#[test]
fn refused_when_a_needed_attribute_is_projected_away() {
    let views = catalog_of(&[(
        "v",
        "SELECT Lineitem.ok, qty FROM Lineitem WHERE shipdate > 6/1/95",
    )]);
    let price = MissReason::AttributeNotKept(AttrRef::new("Lineitem", "price"));
    let shipdate = MissReason::AttributeNotKept(AttrRef::new("Lineitem", "shipdate"));
    // Needed by the output list …
    let routed = route_over_tpch(
        &views,
        &sql("SELECT Lineitem.ok, price FROM Lineitem WHERE shipdate > 6/1/95"),
    );
    assert_eq!(routed.decisions, [miss(Some("v"), price)]);
    // … or by the residual selection.
    let routed = route_over_tpch(
        &views,
        &sql("SELECT Lineitem.ok FROM Lineitem WHERE shipdate > 9/1/95"),
    );
    assert_eq!(routed.decisions, [miss(Some("v"), shipdate)]);
}

#[test]
fn refused_when_the_join_pairs_differ() {
    let views = catalog_of(&[(
        "v",
        "SELECT Orders.ok, priority, qty FROM Orders, Lineitem WHERE Lineitem.ok = Orders.ok",
    )]);
    let routed = route_over_tpch(
        &views,
        &sql("SELECT priority, qty FROM Orders, Lineitem WHERE Lineitem.lk = Orders.ok"),
    );
    assert_eq!(
        routed.decisions,
        [miss(Some("v"), MissReason::JoinMismatch)]
    );
}

#[test]
fn refused_when_the_alias_differs() {
    let views = catalog_of(&[(
        "v",
        "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
    )]);
    let routed = route_over_tpch(
        &views,
        &sql("SELECT priority, COUNT(*) AS total FROM Orders GROUP BY Orders.priority"),
    );
    let total = AggExpr::count_star("total").output_attr();
    assert_eq!(
        routed.decisions,
        [miss(Some("v"), MissReason::AliasMismatch(total))]
    );
}

#[test]
fn refused_when_a_roll_up_needs_a_non_decomposable_aggregate() {
    let views = catalog_of(&[(
        "v",
        "SELECT priority, ck, AVG(ok) AS m, COUNT(*) AS n \
         FROM Orders GROUP BY Orders.priority, Orders.ck",
    )]);
    let m = AttrRef::new("#agg", "m");
    let routed = route_over_tpch(
        &views,
        &sql("SELECT priority, AVG(ok) AS m FROM Orders GROUP BY Orders.priority"),
    );
    assert_eq!(
        routed.decisions,
        [miss(Some("v"), MissReason::NotDecomposable(m))]
    );
    // On the view's own keys the stored average is the answer.
    let same =
        sql("SELECT ck, priority, AVG(ok) AS m FROM Orders GROUP BY Orders.ck, Orders.priority");
    assert_eq!(scanned(&route_over_tpch(&views, &same)), ["v"]);
    // An aggregate the view does not store cannot be rolled up either.
    let routed = route_over_tpch(
        &views,
        &sql("SELECT priority, MIN(ok) AS lo FROM Orders GROUP BY Orders.priority"),
    );
    let lo = AttrRef::new("#agg", "lo");
    assert_eq!(
        routed.decisions,
        [miss(Some("v"), MissReason::NotDecomposable(lo))]
    );
}

#[test]
fn refused_when_a_relation_repeats() {
    let views = catalog_of(&[("v", "SELECT ok, ck FROM Orders WHERE priority = 'v1'")]);
    let twice = Expr::project(
        Expr::join(
            Expr::base("Orders"),
            Expr::base("Orders"),
            JoinCondition::cross(),
        ),
        [AttrRef::new("Orders", "ok")],
    );
    let routed = views.route(&twice);
    assert_eq!(
        routed.decisions,
        [miss(None, MissReason::RepeatedRelation("Orders".into()))]
    );
    assert!(Arc::ptr_eq(&routed.plan, &twice));
}

#[test]
fn refused_above_an_interior_aggregation_but_matched_below_it() {
    let views = catalog_of(&[("v", "SELECT ok, priority FROM Orders WHERE ck >= 0")]);
    // The select order puts a π over the HAVING filter over the γ.
    let query = sql("SELECT COUNT(*) AS n, priority FROM Orders WHERE ck >= 0 \
         GROUP BY Orders.priority HAVING n > 1");
    let routed = route_over_tpch(&views, &query);
    assert_eq!(
        routed.decisions[0],
        miss(None, MissReason::InteriorAggregate)
    );
    assert_eq!(scanned(&routed), ["v"], "{:?}", routed.decisions);
    assert_eq!(
        routed.plan.to_string(),
        "π[#agg.n,Orders.priority](σ[#agg.n>1](γ[Orders.priority; COUNT(*) AS n](v)))"
    );
}

#[test]
fn the_remaining_refusals_say_why() {
    let views = catalog_of(&[(
        "g",
        "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
    )]);
    // Nothing stored reads a subset of these relations.
    let routed = route_over_tpch(&views, &sql("SELECT name FROM Nation"));
    assert_eq!(routed.decisions, [miss(None, MissReason::NoCandidate)]);
    // An aggregated view cannot stand in for its base relation.
    let routed = route_over_tpch(&views, &sql("SELECT ok FROM Orders"));
    assert_eq!(
        routed.decisions,
        [miss(Some("g"), MissReason::AggregatedView)]
    );
    // `SELECT *` lists no output to rebuild.
    let routed = views.route(&sql("SELECT * FROM Orders WHERE priority = 'v1'"));
    assert_eq!(routed.decisions, [miss(None, MissReason::OutputUnknown)]);
}

// ---------------------------------------------------------------------------
// Eager aggregation: a γ-view over part of the node's relations
// ---------------------------------------------------------------------------

/// The shape of TPC-H-lite's roll-up candidate, with every aggregate kind
/// that rolls up: revenue per segment and customer nation over the order
/// join.
const SEGMENT_NATION_VIEW: &str = "SELECT segment, Customer.nk, SUM(price) AS revenue, \
     COUNT(*) AS n, MIN(price) AS lo, MAX(price) AS hi \
     FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     GROUP BY Customer.segment, Customer.nk";

/// `select` and `filter` spliced into a query over the candidate's relations
/// joined to Nation.
fn by_nation(select: &str, filter: &str) -> Arc<Expr> {
    sql(&format!(
        "SELECT {select} FROM Nation, Customer, Orders, Lineitem \
         WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck \
         AND Lineitem.ok = Orders.ok {filter} GROUP BY Nation.name"
    ))
}

fn rolled_up_from(view: &str) -> Vec<Decision> {
    vec![Decision::Compensated {
        view: view.into(),
        residual: Predicate::True,
        reaggregated: true,
    }]
}

#[test]
fn a_dimension_joined_above_a_view_reads_its_groups() {
    let views = catalog_of(&[("v", SEGMENT_NATION_VIEW)]);
    let query = by_nation(
        "Nation.name, MAX(price) AS hi, SUM(price) AS revenue, COUNT(*) AS n, MIN(price) AS lo",
        "",
    );
    let base = small_db(&tpch_catalog(), 5);
    assert!(!reference(&query, &base).rows().is_empty());
    let routed = route_over_tpch(&views, &query);
    assert_eq!(routed.decisions, rolled_up_from("v"));
    assert_eq!(
        routed.plan.to_string(),
        "γ[Nation.name; MAX(#agg.hi) AS hi,SUM(#agg.revenue) AS revenue,\
         SUM(#agg.n) AS n,MIN(#agg.lo) AS lo]((v ⋈[Customer.nk=Nation.nk] Nation))"
    );
}

#[test]
fn a_residual_selection_on_the_dimension_stays_on_the_dimension() {
    let views = catalog_of(&[("v", SEGMENT_NATION_VIEW)]);
    let routed = route_over_tpch(
        &views,
        &by_nation(
            "Nation.name, COUNT(*) AS n",
            "AND Nation.name <> 'v3' AND (Nation.name = 'v0' OR segment = 'v1')",
        ),
    );
    assert_eq!(routed.decisions, rolled_up_from("v"));
    assert_eq!(
        routed.plan.to_string(),
        "γ[Nation.name; SUM(#agg.n) AS n]\
         (σ[(Customer.segment='v1' ∨ Nation.name='v0')]\
         ((v ⋈[Customer.nk=Nation.nk] σ[Nation.name<>'v3'](Nation))))"
    );
}

#[test]
fn eager_aggregation_refusals_say_why() {
    let views = catalog_of(&[("v", SEGMENT_NATION_VIEW)]);
    let refused = |query: Arc<Expr>, reason: MissReason| {
        let routed = route_over_tpch(&views, &query);
        assert_eq!(routed.decisions, [miss(Some("v"), reason)], "{query}");
        assert!(Arc::ptr_eq(&routed.plan, &query));
    };
    // AVG is stored finalized: it does not roll up over the joined groups.
    let avg = catalog_of(&[(
        "v",
        "SELECT Customer.nk, AVG(price) AS m FROM Customer, Orders, Lineitem \
         WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.nk",
    )]);
    let query = by_nation("Nation.name, AVG(price) AS m", "");
    let routed = route_over_tpch(&avg, &query);
    assert_eq!(
        routed.decisions,
        [miss(
            Some("v"),
            MissReason::NotDecomposable(AttrRef::new("#agg", "m"))
        )]
    );
    // An aggregate over a relation the view does not cover.
    refused(
        by_nation("Nation.name, MAX(Nation.rk) AS hi", ""),
        MissReason::NotDecomposable(AttrRef::new("#agg", "hi")),
    );
    // A crossing pair on an attribute the view does not group by.
    let no_nk = catalog_of(&[(
        "v",
        "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
         WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.segment",
    )]);
    let query = by_nation("Nation.name, SUM(price) AS revenue", "");
    let routed = route_over_tpch(&no_nk, &query);
    assert_eq!(
        routed.decisions,
        [miss(
            Some("v"),
            MissReason::AttributeNotKept(AttrRef::new("Customer", "nk"))
        )]
    );
    // A conjunct above the view on a column its groups do not keep …
    refused(
        by_nation(
            "Nation.name, SUM(price) AS revenue",
            "AND (Nation.name = 'v0' OR Orders.priority = 'v1')",
        ),
        MissReason::AttributeNotKept(AttrRef::new("Orders", "priority")),
    );
    // … and a narrower range over the view's own relations: its groups
    // cannot be filtered below their keys.
    refused(
        by_nation("Nation.name, SUM(price) AS revenue", "AND Lineitem.qty > 3"),
        MissReason::PredicateNotImplied,
    );
}

// ---------------------------------------------------------------------------
// Pins: the two routings the benchmark depends on
// ---------------------------------------------------------------------------

/// The routing merged plans have always had, re-implemented independently:
/// replace every maximal subtree whose semantic key equals a view's.
fn exact_oracle(expr: &Arc<Expr>, views: &ViewCatalog) -> Arc<Expr> {
    let key = expr.semantic_key();
    if let Some((name, _)) = views.views().iter().find(|(_, d)| d.semantic_key() == key) {
        return Expr::base(name.clone());
    }
    let kids: Vec<Arc<Expr>> = expr
        .children()
        .into_iter()
        .map(|c| exact_oracle(c, views))
        .collect();
    match &**expr {
        Expr::Base(_) => Arc::clone(expr),
        Expr::Select { predicate, .. } => Arc::new(Expr::Select {
            input: Arc::clone(&kids[0]),
            predicate: predicate.clone(),
        }),
        Expr::Project { attrs, .. } => Expr::project(Arc::clone(&kids[0]), attrs.clone()),
        Expr::Aggregate { group_by, aggs, .. } => {
            Expr::aggregate(Arc::clone(&kids[0]), group_by.clone(), aggs.clone())
        }
        Expr::Join { on, .. } => Expr::join(Arc::clone(&kids[0]), Arc::clone(&kids[1]), on.clone()),
    }
}

#[test]
fn merged_plans_route_exactly_as_before_containment() {
    for scenario in [tpch_lite(), paper_example()] {
        let design = design_of(&scenario);
        let views = ViewCatalog::from_design(&design);
        let mvpp = design.mvpp.mvpp();
        for (name, _, root) in mvpp.roots() {
            let merged = mvpp.node(*root).expr();
            assert_eq!(
                views.rewrite(merged),
                exact_oracle(merged, &views),
                "merged plan of {name} routes differently"
            );
        }
    }
}

/// Whether `id` is a roll-up candidate: a γ-node that is no query's root.
fn is_roll_up(mvpp: &Mvpp, id: NodeId) -> bool {
    matches!(&**mvpp.node(id).expr(), Expr::Aggregate { .. })
        && mvpp.roots().iter().all(|(_, _, root)| *root != id)
}

/// The labels of the roll-up candidates a design stores.
fn roll_ups(design: &DesignResult) -> Vec<String> {
    let mvpp = design.mvpp.mvpp();
    design
        .materialized
        .iter()
        .filter(|&&id| is_roll_up(mvpp, id))
        .map(|&id| mvpp.node(id).label().to_string())
        .collect()
}

#[test]
fn raw_tpch_lite_queries_reach_the_views() {
    let scenario = tpch_lite();
    let design = design_of(&scenario);
    let views = ViewCatalog::from_design(&design);
    // The greedy design stores the roll-up candidate over Customer ⋈ Orders
    // ⋈ Lineitem and not the join itself.
    let [candidate] = &roll_ups(&design)[..] else {
        panic!("one roll-up candidate expected: {:?}", roll_ups(&design));
    };
    assert!(
        !design.materialized_labels().contains(&"tmp5".to_string()),
        "{:?}",
        design.materialized_labels()
    );
    let base = small_db(&scenario.catalog, 11);
    let (db, ctx) = serving(&base, &views);
    // The same answers through the warehouse's front door, paged when
    // `MVDESIGN_MEM_BUDGET` says so.
    let warehouse = Warehouse::new(scenario.catalog.clone(), base.clone(), &design)
        .expect("warehouse builds")
        .with_mem_budget(mem_budget());
    let mvpp = design.mvpp.mvpp();
    for q in scenario.workload.queries() {
        let routed = check_routed(q.root(), &views, &base, &db, &ctx);
        assert!(!scanned(&routed).is_empty(), "{} reaches no view", q.name());
        let plan = routed.plan.to_string();
        match q.name() {
            "revenue_by_segment" | "revenue_by_nation" => {
                let want = if q.name() == "revenue_by_segment" {
                    format!("γ[Customer.segment; SUM(#agg.revenue) AS revenue]({candidate})")
                } else {
                    format!(
                        "γ[Nation.name; SUM(#agg.revenue) AS revenue]\
                         (({candidate} ⋈[Customer.nk=Nation.nk] Nation))"
                    )
                };
                assert_eq!(plan, want);
                assert_eq!(
                    routed.decisions,
                    [Decision::Compensated {
                        view: candidate.as_str().into(),
                        residual: Predicate::True,
                        reaggregated: true,
                    }]
                );
                // The merged plan holds the candidate verbatim: an exact hit
                // under the same roll-up, so both forms run one plan, which
                // reads no relation the candidate covers.
                let (_, _, root) = mvpp
                    .roots()
                    .iter()
                    .find(|(name, _, _)| name == q.name())
                    .expect("a merged root");
                let merged = views.route(mvpp.node(*root).expr());
                assert_eq!(merged.plan, routed.plan, "{}", q.name());
                assert_eq!(
                    merged.decisions,
                    [Decision::Exact(candidate.as_str().into())]
                );
                let mut read = Vec::new();
                mvdesign::algebra::postorder(&routed.plan, &mut |n| {
                    if let Expr::Base(r) = &**n {
                        read.push(r.to_string());
                    }
                });
                assert!(
                    read.iter()
                        .all(|r| !["Customer", "Orders", "Lineitem"].contains(&r.as_str())),
                    "{} reads {read:?}",
                    q.name()
                );
            }
            _ => assert!(
                matches!(&*routed.plan, Expr::Base(_)),
                "{} should be a bare view scan, got {plan}",
                q.name()
            ),
        }
        let served = warehouse.query_expr(q.root()).expect("warehouse answers");
        assert_same_answer(&served, &reference(q.root(), &base), q.name());
    }
}

#[test]
fn raw_paper_queries_reach_tmp2_and_tmp7() {
    let scenario = paper_example();
    let design = design_of(&scenario);
    let views = ViewCatalog::from_design(&design);
    let base = Generator::with_config(GeneratorConfig {
        seed: 21,
        scale: 0.004,
        max_rows: 300,
    })
    .database(&scenario.catalog);
    let (db, ctx) = serving(&base, &views);
    for (query, expected) in [
        ("Q1", vec!["tmp7"]),
        ("Q2", vec!["tmp7"]),
        ("Q3", vec!["tmp2", "tmp7"]),
        ("Q4", vec!["tmp2"]),
    ] {
        let q = scenario
            .workload
            .queries()
            .iter()
            .find(|q| q.name() == query)
            .expect("paper query");
        let mut hit = scanned(&check_routed(q.root(), &views, &base, &db, &ctx));
        hit.sort();
        assert_eq!(hit, expected, "{query}");
    }
}

// ---------------------------------------------------------------------------
// Soundness proptest
// ---------------------------------------------------------------------------

/// A TPC-H-lite-shaped join graph (Nation–Customer–Orders–Lineitem–Part)
/// with cardinalities and domains small enough that joins and groups are
/// populated at a few dozen rows per table.
fn tiny_catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut relation = |name: &str, attrs: &[(&str, AttrType, f64)], records: f64| {
        let mut b = c.relation(name);
        for (attr, ty, selectivity) in attrs {
            b = b.attr(*attr, *ty);
            if *selectivity > 0.0 {
                b = b.selectivity(*attr, *selectivity);
            }
        }
        b.records(records)
            .blocks((records / 10.0).ceil())
            .finish()
            .expect("tiny catalog");
    };
    use AttrType::{Date, Int, Text};
    relation("Nation", &[("nk", Int, 0.0), ("name", Text, 0.25)], 6.0);
    relation(
        "Customer",
        &[("ck", Int, 0.0), ("nk", Int, 0.0), ("segment", Text, 0.34)],
        12.0,
    );
    relation(
        "Orders",
        &[
            ("ok", Int, 0.0),
            ("ck", Int, 0.0),
            ("odate", Date, 0.1),
            ("priority", Text, 0.5),
        ],
        25.0,
    );
    relation(
        "Lineitem",
        &[
            ("ok", Int, 0.0),
            ("pk", Int, 0.0),
            ("qty", Int, 0.2),
            ("price", Int, 0.1),
            ("shipdate", Date, 0.1),
        ],
        40.0,
    );
    relation("Part", &[("pk", Int, 0.0), ("brand", Text, 0.34)], 8.0);
    for (a, b, domain) in EDGES.iter().map(|e| (e.2, e.3, e.4)) {
        c.set_join_selectivity(attr(a), attr(b), 1.0 / domain)
            .expect("tiny catalog");
    }
    c
}

const RELATIONS: [&str; 5] = ["Nation", "Customer", "Orders", "Lineitem", "Part"];

/// `(relation index, relation index, left attr, right attr, key domain)`.
const EDGES: [(usize, usize, &str, &str, f64); 4] = [
    (0, 1, "Nation.nk", "Customer.nk", 5.0),
    (1, 2, "Customer.ck", "Orders.ck", 8.0),
    (2, 3, "Orders.ok", "Lineitem.ok", 12.0),
    (3, 4, "Lineitem.pk", "Part.pk", 6.0),
];

fn attr(qualified: &str) -> AttrRef {
    AttrRef::parse(qualified).expect("qualified attribute")
}

/// The conjuncts queries and views draw from: few enough that a query's
/// predicate often equals, narrows or widens a view's.
fn conjunct_pool() -> Vec<Predicate> {
    let cmp = |a: &str, op, v: Value| Predicate::cmp(attr(a), op, v);
    let day = |m| Value::date(1996, m, 1);
    use CompareOp::{Eq, Gt, Le, Lt, Ne};
    vec![
        cmp("Lineitem.qty", Gt, 1.into()),
        cmp("Lineitem.qty", Gt, 2.into()),
        cmp("Lineitem.qty", Eq, 3.into()),
        cmp("Lineitem.price", Le, 6.into()),
        cmp("Lineitem.price", Lt, 4.into()),
        cmp("Lineitem.shipdate", Gt, day(4)),
        cmp("Lineitem.shipdate", Gt, day(8)),
        cmp("Orders.priority", Eq, "v0".into()),
        cmp("Orders.odate", Gt, day(6)),
        Predicate::or([
            cmp("Orders.priority", Eq, "v0".into()),
            cmp("Orders.odate", Gt, day(6)),
        ]),
        cmp("Customer.segment", Eq, "v1".into()),
        Predicate::or([
            cmp("Customer.segment", Eq, "v1".into()),
            cmp("Customer.segment", Eq, "v2".into()),
        ]),
        cmp("Part.brand", Ne, "v0".into()),
        cmp("Nation.name", Eq, "v1".into()),
        // Spans two relations: stays above every single-relation cover.
        Predicate::or([
            cmp("Customer.segment", Eq, "v1".into()),
            cmp("Orders.priority", Eq, "v1".into()),
        ]),
    ]
}

/// A random SPJ or γ expression over a connected piece of the join graph,
/// as indices a builder resolves — so shrinking stays meaningful.
#[derive(Debug, Clone)]
struct Spec {
    /// Interval of `RELATIONS` joined (the graph is a path).
    first: usize,
    len: usize,
    /// Indices into [`conjunct_pool`] (those over other relations are
    /// dropped), each with whether it is pushed onto its relation's leaf
    /// instead of staying on top.
    conjuncts: Vec<(usize, bool)>,
    /// Per join: swap its inputs.
    commuted: Vec<bool>,
    /// Join the interval right-to-left instead of left-to-right.
    reversed: bool,
    /// Output attributes (π) or group keys (γ), as indices into the attributes
    /// of the joined relations.
    attrs: Vec<usize>,
    /// `(function, argument, alias)` picks; empty for an SPJ expression.
    aggs: Vec<(usize, usize, usize)>,
    /// Put a reversing π over the γ.
    reorder: bool,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let core = (
        (0usize..5, 1usize..4),
        proptest::collection::vec((0usize..15, any::<bool>()), 0..3),
        proptest::collection::vec(any::<bool>(), 4..5),
        any::<bool>(),
    );
    let output = (
        proptest::collection::vec(0usize..16, 0..4),
        proptest::collection::vec((0usize..6, 0usize..16, 0usize..3), 0..3),
        any::<bool>(),
    );
    (core, output).prop_map(
        |(((first, len), conjuncts, commuted, reversed), (attrs, aggs, reorder))| Spec {
            first,
            len,
            conjuncts,
            commuted,
            reversed,
            attrs,
            aggs,
            reorder,
        },
    )
}

fn build(spec: &Spec, catalog: &Catalog) -> Arc<Expr> {
    let first = spec.first.min(RELATIONS.len() - 1);
    let last = (first + spec.len - 1).min(RELATIONS.len() - 1);
    let reads = |a: &AttrRef| RELATIONS[first..=last].contains(&a.relation.as_str());
    let pool = conjunct_pool();
    let mut conjuncts: Vec<(&Predicate, bool)> = spec
        .conjuncts
        .iter()
        .map(|(i, pushed)| (&pool[*i], *pushed))
        .filter(|(p, _)| p.attrs().into_iter().all(reads))
        .collect();
    conjuncts.dedup_by(|a, b| a.0 == b.0);

    let leaf = |i: usize| {
        let local = conjuncts
            .iter()
            .filter(|(p, pushed)| *pushed && p.attrs().iter().all(|a| a.relation == RELATIONS[i]));
        Expr::select(
            Expr::base(RELATIONS[i]),
            Predicate::and(local.map(|(p, _)| (*p).clone())),
        )
    };
    let order: Vec<usize> = if spec.reversed {
        (first..=last).rev().collect()
    } else {
        (first..=last).collect()
    };
    let mut tree = leaf(order[0]);
    for (step, pair) in order.windows(2).enumerate() {
        let edge = EDGES
            .iter()
            .find(|e| (e.0, e.1) == (pair[0].min(pair[1]), pair[0].max(pair[1])))
            .expect("neighbours on the path");
        let on = JoinCondition::on(attr(edge.2), attr(edge.3));
        tree = if spec.commuted[step] {
            Expr::join(leaf(pair[1]), tree, on)
        } else {
            Expr::join(tree, leaf(pair[1]), on)
        };
    }
    let on_top = conjuncts.iter().filter(|(p, pushed)| {
        !*pushed
            || p.attrs()
                .iter()
                .any(|a| a.relation != p.attrs()[0].relation)
    });
    let core = Expr::select(tree, Predicate::and(on_top.map(|(p, _)| (*p).clone())));

    let available: Vec<AttrRef> = RELATIONS[first..=last]
        .iter()
        .flat_map(|r| {
            let schema = &catalog.meta(r).expect("tiny relation").schema;
            schema
                .attributes()
                .iter()
                .map(|a| AttrRef::new(*r, a.name.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let pick = |i: usize| available[i % available.len()].clone();
    let mut attrs: Vec<AttrRef> = Vec::new();
    for a in spec.attrs.iter().map(|i| pick(*i)) {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    if spec.aggs.is_empty() {
        if attrs.is_empty() {
            attrs.push(pick(0));
        }
        return Expr::project(core, attrs);
    }
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let mut aggs: Vec<AggExpr> = Vec::new();
    for (func, arg, alias) in &spec.aggs {
        let alias = ["a", "b", "c"][*alias];
        if aggs.iter().any(|g| g.alias == alias) {
            continue;
        }
        aggs.push(match FUNCS.get(*func) {
            Some(f) => AggExpr::new(*f, pick(*arg), alias),
            None => AggExpr::count_star(alias),
        });
    }
    attrs.truncate(2);
    let grouped = Expr::aggregate(core, attrs.clone(), aggs.clone());
    if spec.reorder {
        let mut out: Vec<AttrRef> = aggs.iter().map(AggExpr::output_attr).collect();
        out.extend(attrs.into_iter().rev());
        Expr::project(grouped, out)
    } else {
        grouped
    }
}

/// A query a view should contain: the view's own core under an optional
/// extra conjunct, asking for a prefix of its attributes (for a γ-view: a
/// roll-up to fewer keys) and of its aggregates, listed back to front — so
/// a query that narrows nothing is in the view's class in another order.
fn narrowed_spec(view: &Spec, (attrs, aggs, conjunct): (usize, usize, usize)) -> Spec {
    let mut spec = view.clone();
    spec.attrs.truncate(attrs % (spec.attrs.len() + 1));
    spec.aggs.truncate((aggs % (spec.aggs.len() + 1)).max(1));
    if conjunct < conjunct_pool().len() {
        spec.conjuncts.push((conjunct, false));
    }
    spec.attrs.reverse();
    spec.aggs.reverse();
    spec.reversed = !spec.reversed;
    spec
}

/// One proptest case: hand-built views, a workload whose MVPP nodes (a
/// random subset, not only the designer's pick) are registered too, and as
/// queries: fresh ones, the workload's raw and merged plans, and one
/// narrowed from each hand-built view.
#[derive(Debug, Clone)]
struct Case {
    views: Vec<Spec>,
    narrowings: Vec<(usize, usize, usize)>,
    workload: Vec<Spec>,
    node_mask: u32,
    queries: Vec<Spec>,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(spec_strategy(), 0..4),
        proptest::collection::vec((0usize..4, 0usize..4, 0usize..30), 3..4),
        proptest::collection::vec(spec_strategy(), 0..4),
        any::<u32>(),
        proptest::collection::vec(spec_strategy(), 1..4),
        0u64..1000,
    )
        .prop_map(
            |(views, narrowings, workload, node_mask, queries, seed)| Case {
                views,
                narrowings,
                workload,
                node_mask,
                queries,
                seed,
            },
        )
}

/// Builds the case's view set and queries, routes every query and checks
/// it against the reference. Returns every decision taken and how many
/// roll-up candidates (γ-nodes that are no query's root) the workload's
/// MVPP holds.
fn run_case(case: &Case) -> (Vec<Decision>, usize) {
    let catalog = tiny_catalog();
    let mut views = ViewCatalog::new();
    for (i, spec) in case.views.iter().enumerate() {
        views.register(format!("hand{i}"), build(spec, &catalog));
    }
    let mut queries: Vec<Arc<Expr>> = case.queries.iter().map(|s| build(s, &catalog)).collect();
    let narrowed = case.views.iter().zip(&case.narrowings);
    queries.extend(narrowed.map(|(view, cut)| build(&narrowed_spec(view, *cut), &catalog)));
    let workload: Vec<Query> = case
        .workload
        .iter()
        .enumerate()
        .map(|(i, s)| Query::new(format!("w{i}"), (i + 1) as f64, build(s, &catalog)))
        .collect();
    queries.extend(workload.iter().map(|q| Arc::clone(q.root())));
    let mut candidates = 0;
    if let Ok(design) = Workload::new(workload)
        .map_err(|e| e.to_string())
        .and_then(|w| {
            Designer::new()
                .design(&catalog, &w)
                .map_err(|e| e.to_string())
        })
    {
        let mvpp = design.mvpp.mvpp();
        candidates = mvpp
            .interior()
            .into_iter()
            .filter(|&id| is_roll_up(mvpp, id))
            .count();
        for (bit, id) in mvpp.interior().into_iter().enumerate() {
            if case.node_mask >> (bit % 32) & 1 == 1 {
                let node = mvpp.node(id);
                views.register(node.label(), Arc::clone(node.expr()));
            }
        }
        // The merged plans contain the registered nodes verbatim.
        queries.extend(
            mvpp.roots()
                .iter()
                .map(|(_, _, r)| Arc::clone(mvpp.node(*r).expr())),
        );
    }
    let base = Generator::with_config(GeneratorConfig {
        seed: case.seed,
        scale: 1.0,
        max_rows: 40,
    })
    .database(&catalog);
    let (db, ctx) = serving(&base, &views);
    let decisions = queries
        .iter()
        .flat_map(|q| check_routed(q, &views, &base, &db, &ctx).decisions)
        .collect();
    (decisions, candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random queries × random view sets × generated data: whatever the
    /// matcher decides, the routed plan answers with the query's header in
    /// the query's order and the reference's bag of rows.
    #[test]
    fn routed_answers_equal_the_no_views_reference(case in case_strategy()) {
        run_case(&case);
    }
}

/// The proptest above is only as good as its generator: over a fixed sample
/// it must take every kind of decision, not just miss.
#[test]
fn the_soundness_generator_reaches_every_kind_of_decision() {
    let mut rng = StdRng::seed_from_u64(18);
    let strategy = case_strategy();
    let (mut exact, mut residual, mut plain, mut rolled) = (0, 0, 0, 0);
    let mut with_candidates = 0;
    let mut reasons: Vec<String> = Vec::new();
    for _ in 0..200 {
        let (decisions, candidates) = run_case(&strategy.sample(&mut rng));
        with_candidates += usize::from(candidates > 0);
        for decision in decisions {
            match decision {
                Decision::Exact(_) => exact += 1,
                Decision::Compensated {
                    reaggregated: true, ..
                } => rolled += 1,
                Decision::Compensated {
                    residual: Predicate::True,
                    ..
                } => plain += 1,
                Decision::Compensated { .. } => residual += 1,
                Decision::Miss { reason, .. } => {
                    let kind = format!("{reason:?}");
                    let kind = kind.split('(').next().expect("variant name").to_string();
                    if !reasons.contains(&kind) {
                        reasons.push(kind);
                    }
                }
            }
        }
    }
    eprintln!(
        "exact {exact}, contained {plain}, with residual {residual}, rolled up {rolled}; \
         {with_candidates} designs with roll-up candidates"
    );
    assert!(
        with_candidates > 20,
        "{with_candidates} designs with roll-up candidates"
    );
    assert!(
        exact > 20 && plain > 20 && residual > 20 && rolled > 5,
        "exact {exact}, contained {plain}, with residual {residual}, rolled up {rolled}"
    );
    for kind in [
        "NoCandidate",
        "PredicateNotImplied",
        "AttributeNotKept",
        "AggregatedView",
        "NotDecomposable",
    ] {
        assert!(
            reasons.iter().any(|r| r == kind),
            "{kind} never met: {reasons:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Eager aggregation of a γ over a join (refresh rebuilds)
// ---------------------------------------------------------------------------

/// A random `γ[G; A](X ⋈ Y)` over a piece of the tiny join graph: the
/// interval of `RELATIONS` cut in two, each side a chain join with some
/// leaf selections, the aggregate inputs all on one side.
#[derive(Debug, Clone)]
struct EagerSpec {
    first: usize,
    len: usize,
    /// Relations of the interval in the left side.
    cut: usize,
    /// Aggregate inputs on the right side rather than the left.
    inputs_right: bool,
    /// Group keys, as indices into the attributes of the interval.
    keys: Vec<usize>,
    /// `(function, argument)`: COUNT, SUM, MIN, MAX, or COUNT(*) past them,
    /// the argument an index into the input side's attributes.
    aggs: Vec<(usize, usize)>,
    /// Indices into [`conjunct_pool`], pushed onto their leaves.
    conjuncts: Vec<usize>,
    /// A relation of the interval whose table holds no rows.
    empty: Option<usize>,
    seed: u64,
}

fn eager_spec_strategy() -> impl Strategy<Value = EagerSpec> {
    (
        (0usize..4, 2usize..6, 1usize..5, any::<bool>()),
        proptest::collection::vec(0usize..16, 1..4),
        proptest::collection::vec((0usize..5, 0usize..16), 1..4),
        proptest::collection::vec(0usize..15, 0..3),
        0usize..25,
        0u64..1000,
    )
        .prop_map(
            |((first, len, cut, inputs_right), keys, aggs, conjuncts, empty, seed)| EagerSpec {
                first,
                len,
                cut,
                inputs_right,
                keys,
                aggs,
                conjuncts,
                // One case in five empties a relation.
                empty: (empty < 5).then_some(empty),
                seed,
            },
        )
}

/// The attributes of `relations`, in catalog order.
fn attributes_of(relations: &[usize], catalog: &Catalog) -> Vec<AttrRef> {
    relations
        .iter()
        .flat_map(|&r| {
            let schema = &catalog.meta(RELATIONS[r]).expect("tiny relation").schema;
            schema
                .attributes()
                .iter()
                .map(|a| AttrRef::new(RELATIONS[r], a.name.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The join along the path of `relations` (consecutive indices), each leaf
/// under the single-relation conjuncts of `conjuncts` over it.
fn chain(relations: &[usize], conjuncts: &[Predicate]) -> Arc<Expr> {
    let leaf = |r: usize| {
        let local = conjuncts
            .iter()
            .filter(|p| p.attrs().iter().all(|a| a.relation == RELATIONS[r]));
        Expr::select(Expr::base(RELATIONS[r]), Predicate::and(local.cloned()))
    };
    let mut tree = leaf(relations[0]);
    for pair in relations.windows(2) {
        tree = Expr::join(tree, leaf(pair[1]), edge(pair[0], pair[1]));
    }
    tree
}

/// The join pair between neighbours `a < b` of the path.
fn edge(a: usize, b: usize) -> JoinCondition {
    let e = EDGES
        .iter()
        .find(|e| (e.0, e.1) == (a, b))
        .expect("neighbours on the path");
    JoinCondition::on(attr(e.2), attr(e.3))
}

/// The spec's plan and its base data.
fn eager_case(spec: &EagerSpec, catalog: &Catalog) -> (Arc<Expr>, Database) {
    let first = spec.first.min(RELATIONS.len() - 2);
    let last = (first + spec.len - 1).min(RELATIONS.len() - 1);
    let relations: Vec<usize> = (first..=last).collect();
    let cut = spec.cut.clamp(1, relations.len() - 1);
    let (left, right) = relations.split_at(cut);
    let pool = conjunct_pool();
    let conjuncts: Vec<Predicate> = spec.conjuncts.iter().map(|&i| pool[i].clone()).collect();
    let join = Expr::join(
        chain(left, &conjuncts),
        chain(right, &conjuncts),
        edge(left[left.len() - 1], right[0]),
    );
    let everything = attributes_of(&relations, catalog);
    let mut keys: Vec<AttrRef> = Vec::new();
    for k in spec
        .keys
        .iter()
        .map(|&i| everything[i % everything.len()].clone())
    {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let inputs = attributes_of(if spec.inputs_right { right } else { left }, catalog);
    const FUNCS: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];
    let aggs: Vec<AggExpr> = spec
        .aggs
        .iter()
        .zip(["a", "b", "c"])
        .map(|(&(func, arg), alias)| match FUNCS.get(func) {
            Some(&f) => AggExpr::new(f, inputs[arg % inputs.len()].clone(), alias),
            None => AggExpr::count_star(alias),
        })
        .collect();
    let plan = Expr::aggregate(join, keys, aggs);
    let mut db = Generator::with_config(GeneratorConfig {
        seed: spec.seed,
        scale: 1.0,
        max_rows: 40,
    })
    .database(catalog);
    if let Some(r) = spec.empty.map(|i| relations[i % relations.len()]) {
        let attrs = db.table(RELATIONS[r]).expect("generated").attrs().to_vec();
        db.insert_table(Table::new(RELATIONS[r], attrs, Vec::new()));
    }
    (plan, db)
}

/// `plan`'s eager-aggregation plan from the join DP, priced over
/// `catalog` the way refresh rebuilds are.
fn eager_under(plan: &Arc<Expr>, catalog: &Catalog) -> Option<Arc<Expr>> {
    let est = CostEstimator::new(catalog, EstimationMode::Analytic, MeasureCostModel);
    Planner::new().eager(plan, |leaf| leaf.base_relations(), &est)
}

/// The per-key partials an eager plan starts from: its innermost γ, over
/// no other.
fn partials(eager: &Arc<Expr>) -> Arc<Expr> {
    let mut innermost = None;
    mvdesign::algebra::postorder(eager, &mut |e| {
        if innermost.is_none() && matches!(**e, Expr::Aggregate { .. }) {
            innermost = Some(Arc::clone(e));
        }
    });
    let innermost = innermost.unwrap_or_else(|| panic!("an eager plan groups: {eager}"));
    assert!(
        !Arc::ptr_eq(&innermost, eager),
        "grouped below the top: {eager}"
    );
    innermost
}

/// Runs one spec: the eager plan exists, equals the definition row for row,
/// and equals the plan the view matcher builds from the same partials
/// stored as a view. Returns whether the case had an empty join side and
/// whether both sides held duplicate join keys.
fn run_eager_case(spec: &EagerSpec) -> (bool, bool) {
    let catalog = tiny_catalog();
    let (plan, base) = eager_case(spec, &catalog);
    let eager = eager_under(&plan, &profile_database(&base, [&plan]))
        .unwrap_or_else(|| panic!("eager aggregation applies to {plan}"));
    let pre = partials(&eager);
    let mut views = ViewCatalog::new();
    assert!(views.register("pre", Arc::clone(&pre)));
    let (db, ctx) = serving(&base, &views);
    let run =
        |e: &Arc<Expr>| execute(e, &db, &ctx).unwrap_or_else(|err| panic!("{e} fails: {err}"));
    let want = run(&plan);
    let got = run(&eager);
    assert_eq!(got.attrs(), want.attrs(), "{plan} as {eager}: header");
    assert_eq!(got.rows(), want.rows(), "{plan} as {eager}: rows");
    assert_eq!(
        want.rows(),
        reference(&plan, &base).rows(),
        "{plan}: engine against the row reference"
    );
    let routed = views.route(&plan);
    assert!(
        routed.decisions.iter().any(|d| matches!(
            d,
            Decision::Compensated { view, reaggregated: true, .. } if view.as_str() == "pre"
        )),
        "{plan} routes through its own partials: {:?}",
        routed.decisions
    );
    let matched = run(&routed.plan);
    assert_eq!(
        matched.attrs(),
        got.attrs(),
        "{plan} routed as {}",
        routed.plan
    );
    assert_eq!(
        matched.rows(),
        got.rows(),
        "{plan} routed as {}",
        routed.plan
    );

    let Expr::Aggregate { input, .. } = &*plan else {
        unreachable!("built as a γ")
    };
    let Expr::Join { left, right, on } = &**input else {
        unreachable!("over a join")
    };
    let side_rows = |side: &Arc<Expr>| run(side).len();
    let empty_side = side_rows(left) == 0 || side_rows(right) == 0;
    let (a, b) = &on.pairs()[0];
    let duplicated = |side: &Arc<Expr>| {
        let table = run(side);
        let key = if table.attrs().contains(a) { a } else { b };
        let i = table
            .attrs()
            .iter()
            .position(|x| x == key)
            .expect("join key");
        let mut seen = std::collections::BTreeSet::new();
        !table.rows().iter().all(|row| seen.insert(row[i].clone()))
    };
    (empty_side, duplicated(left) && duplicated(right))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random γ-over-join plans (SUM, COUNT, COUNT(*), MIN, MAX; keys from
    /// either side; duplicate join keys on both sides; sometimes an empty
    /// side) rebuilt by the join DP's eager aggregation give the
    /// definition's rows, in its order, and the view matcher's plan over
    /// the DP's innermost partials stored as a view.
    #[test]
    fn eager_aggregation_equals_the_definition_and_the_matcher(spec in eager_spec_strategy()) {
        run_eager_case(&spec);
    }
}

/// The generator above reaches the cases it claims: an empty join side,
/// and duplicate join keys on both sides.
#[test]
fn the_eager_generator_reaches_empty_sides_and_duplicate_keys() {
    let mut rng = StdRng::seed_from_u64(38);
    let strategy = eager_spec_strategy();
    let (mut empty, mut duplicated) = (0, 0);
    for _ in 0..100 {
        let (e, d) = run_eager_case(&strategy.sample(&mut rng));
        empty += usize::from(e);
        duplicated += usize::from(d);
    }
    eprintln!("of 100 eager cases: {empty} with an empty join side, {duplicated} with duplicate join keys on both sides");
    assert!(
        empty > 5 && duplicated > 20,
        "empty {empty}, duplicated {duplicated}"
    );
}

// ---------------------------------------------------------------------------
// Eager aggregation over random join trees under a σ
// ---------------------------------------------------------------------------

/// The tiny path's relations at a million rows each, every attribute at
/// `selectivity` and, when given, every edge at `join_selectivity` (else the
/// `1 / max(|R|, |S|)` fallback prices the joins).
fn sized(selectivity: f64, join_selectivity: Option<f64>) -> Catalog {
    let mut c = Catalog::new();
    for (_, meta) in tiny_catalog().iter() {
        let mut meta = meta.clone();
        meta.stats = RelationStats::new(1e6, 1e5);
        meta.selectivities = meta
            .schema
            .attributes()
            .iter()
            .map(|a| (a.name.clone(), selectivity))
            .collect();
        c.insert_relation(meta).expect("tiny relation");
    }
    if let Some(js) = join_selectivity {
        for e in EDGES {
            c.set_join_selectivity(attr(e.2), attr(e.3), js)
                .expect("tiny edge");
        }
    }
    c
}

/// Sizes under which every group-by shrinks its input: many rows, one
/// distinct value per attribute, every join a cross product.
fn shrinking() -> Catalog {
    sized(1.0, Some(1.0))
}

/// Sizes under which every group-by shrinks its input, and a join pair
/// keeps a thousandth of the cross product, so joining along the path
/// prices below any cross product (under [`shrinking`] they tie) and a
/// join still grows the rows that a partial group-by shrinks.
fn path_shrinking() -> Catalog {
    sized(1.0, Some(1e-3))
}

/// Sizes under which no group-by shrinks anything: every value distinct.
fn distinct() -> Catalog {
    sized(1e-6, None)
}

/// A random `γ[G; A]` over a join tree of 3 or 4 relations of the tiny
/// path, possibly under a σ: the tree shaped by `splits`, the aggregate
/// inputs on one relation.
#[derive(Debug, Clone)]
struct ChainSpec {
    first: usize,
    len: usize,
    /// Per join, top-down: where it cuts its relations, and whether it
    /// swaps its inputs.
    splits: Vec<(usize, bool)>,
    /// The relation of the interval holding the aggregate inputs.
    inputs_at: usize,
    /// Group keys, as indices into the attributes of the interval.
    keys: Vec<usize>,
    /// `(function, argument)`: SUM, MIN, MAX or COUNT over an attribute of
    /// the inputs' relation; ignored when `count_star`.
    aggs: Vec<(usize, usize)>,
    /// `COUNT(*)` is the only aggregate.
    count_star: bool,
    /// Indices into [`conjunct_pool`], each on its leaf or on the σ under
    /// the γ.
    conjuncts: Vec<(usize, bool)>,
    /// Two relations of the interval a disjunction on the σ under the γ
    /// spans.
    spanning: Option<(usize, usize)>,
    /// A relation of the interval whose table holds no rows.
    empty: Option<usize>,
    seed: u64,
}

fn chain_spec_strategy() -> impl Strategy<Value = ChainSpec> {
    (
        (0usize..2, 3usize..5, 0usize..4, any::<bool>()),
        proptest::collection::vec((0usize..3, any::<bool>()), 3..4),
        proptest::collection::vec(0usize..16, 1..3),
        proptest::collection::vec((0usize..4, 0usize..16), 1..3),
        proptest::collection::vec((0usize..15, any::<bool>()), 0..3),
        (0usize..8, 0usize..4, 0usize..4, 0usize..25, 0u64..1000),
    )
        .prop_map(
            |(
                (first, len, inputs_at, count_star),
                splits,
                keys,
                aggs,
                conjuncts,
                (spans, a, b, empty, seed),
            )| ChainSpec {
                first,
                len,
                splits,
                inputs_at,
                keys,
                aggs,
                count_star,
                conjuncts,
                // Half the cases span two relations.
                spanning: (spans < 4).then_some((a, b)),
                // One case in ten empties a relation.
                empty: (empty < 3).then_some(empty),
                seed,
            },
        )
}

/// The join tree over `relations` (consecutive indices) cut by `splits`.
fn join_tree(
    relations: &[usize],
    splits: &mut impl Iterator<Item = (usize, bool)>,
    leaf: &dyn Fn(usize) -> Arc<Expr>,
) -> Arc<Expr> {
    if let [only] = relations {
        return leaf(*only);
    }
    let (split, swap) = splits.next().unwrap_or((0, false));
    let (l, r) = relations.split_at(split % (relations.len() - 1) + 1);
    let on = edge(l[l.len() - 1], r[0]);
    let (l, r) = (join_tree(l, splits, leaf), join_tree(r, splits, leaf));
    if swap {
        Expr::join(r, l, on)
    } else {
        Expr::join(l, r, on)
    }
}

/// The single-relation conjuncts of [`conjunct_pool`] over relation `r`.
fn local_conjuncts(r: usize) -> Vec<Predicate> {
    conjunct_pool()
        .into_iter()
        .filter(|p| p.attrs().iter().all(|a| a.relation == RELATIONS[r]))
        .collect()
}

/// The spec's plan and its base data.
fn chain_case(spec: &ChainSpec, catalog: &Catalog) -> (Arc<Expr>, Database) {
    let first = spec.first;
    let relations: Vec<usize> = (first..first + spec.len).collect();
    let pool = conjunct_pool();
    let reads = |p: &Predicate| {
        p.attrs()
            .iter()
            .all(|a| relations.iter().any(|&r| a.relation == RELATIONS[r]))
    };
    let chosen: Vec<(Predicate, bool)> = spec
        .conjuncts
        .iter()
        .map(|&(i, top)| (pool[i].clone(), top))
        .filter(|(p, _)| reads(p))
        .collect();
    let leaf = |r: usize| {
        let local = chosen
            .iter()
            .filter(|(p, top)| !top && p.attrs().iter().all(|a| a.relation == RELATIONS[r]))
            .map(|(p, _)| p.clone());
        Expr::select(Expr::base(RELATIONS[r]), Predicate::and(local))
    };
    let tree = join_tree(&relations, &mut spec.splits.iter().copied(), &leaf);
    let mut above: Vec<Predicate> = chosen
        .iter()
        .filter(|(p, top)| {
            *top || p
                .attrs()
                .iter()
                .map(|a| &a.relation)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1
        })
        .map(|(p, _)| p.clone())
        .collect();
    if let Some((a, b)) = spec.spanning {
        let (a, b) = (relations[a % spec.len], relations[b % spec.len]);
        if a != b {
            above.push(Predicate::or([
                local_conjuncts(a)[0].clone(),
                local_conjuncts(b)[0].clone(),
            ]));
        }
    }
    let everything = attributes_of(&relations, catalog);
    let mut keys: Vec<AttrRef> = Vec::new();
    for k in spec
        .keys
        .iter()
        .map(|&i| everything[i % everything.len()].clone())
    {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let inputs = attributes_of(&[relations[spec.inputs_at % spec.len]], catalog);
    const FUNCS: [AggFunc; 4] = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];
    let aggs: Vec<AggExpr> = if spec.count_star {
        vec![AggExpr::count_star("n")]
    } else {
        spec.aggs
            .iter()
            .zip(["a", "b"])
            .map(|(&(func, arg), alias)| {
                AggExpr::new(FUNCS[func], inputs[arg % inputs.len()].clone(), alias)
            })
            .collect()
    };
    let plan = Expr::aggregate(Expr::select(tree, Predicate::and(above)), keys, aggs);
    let mut db = Generator::with_config(GeneratorConfig {
        seed: spec.seed,
        scale: 1.0,
        max_rows: 40,
    })
    .database(catalog);
    if let Some(r) = spec.empty.map(|i| relations[i % relations.len()]) {
        let attrs = db.table(RELATIONS[r]).expect("generated").attrs().to_vec();
        db.insert_table(Table::new(RELATIONS[r], attrs, Vec::new()));
    }
    (plan, db)
}

/// The γ nodes of `plan`.
fn gammas(plan: &Arc<Expr>) -> usize {
    let mut n = 0;
    mvdesign::algebra::postorder(plan, &mut |e| {
        n += usize::from(matches!(**e, Expr::Aggregate { .. }));
    });
    n
}

/// Runs one spec: the DP's eager plan under [`shrinking`] sizes groups
/// before every join and equals the definition row for row, the definition
/// equals the row reference, and the eager plan under the data's profile
/// equals it too. Returns whether the case had 4 relations,
/// `COUNT(*)` alone, a conjunct spanning two relations, and a join pair
/// with duplicate keys on both sides.
fn run_chain_case(spec: &ChainSpec) -> (bool, bool, bool, bool) {
    let catalog = tiny_catalog();
    let (plan, base) = chain_case(spec, &catalog);
    let chain = eager_under(&plan, &shrinking())
        .unwrap_or_else(|| panic!("eager aggregation applies to {plan}"));
    assert_eq!(
        gammas(&chain),
        spec.len,
        "{plan} as {chain}: a γ per join and one on top"
    );
    let (db, ctx) = serving(&base, &ViewCatalog::new());
    let run =
        |e: &Arc<Expr>| execute(e, &db, &ctx).unwrap_or_else(|err| panic!("{e} fails: {err}"));
    let want = run(&plan);
    assert_eq!(
        want.rows(),
        reference(&plan, &base).rows(),
        "{plan}: engine against the row reference"
    );
    let mut forms = vec![chain];
    let profiled = eager_under(&plan, &profile_database(&base, [&plan]));
    forms.push(profiled.unwrap_or_else(|| panic!("eager aggregation applies to {plan}")));
    for form in forms {
        let got = run(&form);
        assert_eq!(got.attrs(), want.attrs(), "{plan} as {form}: header");
        assert_eq!(got.rows(), want.rows(), "{plan} as {form}: rows");
    }

    let Expr::Aggregate { input, .. } = &*plan else {
        unreachable!("built as a γ")
    };
    let spans = match &**input {
        Expr::Select { predicate, .. } => predicate.conjuncts().iter().any(|p| {
            let relations: std::collections::BTreeSet<_> =
                p.attrs().iter().map(|a| a.relation.clone()).collect();
            relations.len() > 1
        }),
        _ => false,
    };
    let duplicated = |a: &AttrRef| {
        let table = base.table(a.relation.as_str()).expect("base relation");
        let i = table.index_of(a).expect("join key");
        let mut seen = std::collections::BTreeSet::new();
        !table.rows().iter().all(|row| seen.insert(row[i].clone()))
    };
    let many_to_many = (spec.first..spec.first + spec.len - 1).any(|r| {
        let e = &EDGES[r];
        duplicated(&attr(e.2)) && duplicated(&attr(e.3))
    });
    (spec.len == 4, spec.count_star, spans, many_to_many)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random γ plans over 3- and 4-relation join trees (SUM, MIN, MAX,
    /// COUNT, or COUNT(*) alone; keys anywhere; σ on leaves and under the
    /// γ, some spanning two relations; duplicate join keys on both sides;
    /// sometimes an empty relation) rebuilt by the join DP's eager
    /// aggregation give the definition's rows, in its order.
    #[test]
    fn eager_chain_equals_the_definition(spec in chain_spec_strategy()) {
        run_chain_case(&spec);
    }
}

/// The generator above reaches the cases it claims.
#[test]
fn the_chain_generator_reaches_every_claimed_case() {
    let mut rng = StdRng::seed_from_u64(40);
    let strategy = chain_spec_strategy();
    let mut counts = [0; 4];
    for _ in 0..100 {
        let (four, count_star, spans, many_to_many) = run_chain_case(&strategy.sample(&mut rng));
        for (count, hit) in counts
            .iter_mut()
            .zip([four, count_star, spans, many_to_many])
        {
            *count += usize::from(hit);
        }
    }
    eprintln!("of 100 chain cases: [4 relations, COUNT(*) only, spanning conjunct, M:N join] = {counts:?}");
    assert!(counts.iter().all(|&c| c > 10), "{counts:?}");
}

/// The DP plans `γ[segment, nk; SUM(price)](Lineitem ⋈ (Customer ⋈
/// Orders))`, `tmp6`'s shape, under sizes where every group-by shrinks:
/// Lineitem grouped by `ok`, joined to Orders, grouped by `ck`, joined to
/// Customer; a σ under the γ goes down conjunct by conjunct. Then every
/// case the rule refuses over three relations, and the cases the DP plans
/// that the left-deep chain in tree order refused.
#[test]
fn eager_chain_shape_and_refusals() {
    let customer_orders = Expr::join(Expr::base("Customer"), Expr::base("Orders"), edge(1, 2));
    let tree = Expr::join(Expr::base("Lineitem"), customer_orders, edge(2, 3));
    let keys = [attr("Customer.segment"), attr("Customer.nk")];
    let sum = AggExpr::new(AggFunc::Sum, attr("Lineitem.price"), "r");
    let eager = |input: &Arc<Expr>, keys: &[AttrRef], aggs: &[AggExpr]| {
        let plan = Expr::aggregate(Arc::clone(input), keys.to_vec(), aggs.to_vec());
        eager_under(&plan, &path_shrinking())
    };
    let plan = eager(&tree, &keys, std::slice::from_ref(&sum)).expect("applies");
    assert_eq!(
        plan.to_string(),
        "γ[Customer.segment,Customer.nk; SUM(#agg.r) AS r]((γ[Orders.ck; SUM(#agg.r) AS r]((γ[Lineitem.ok; SUM(Lineitem.price) AS r](Lineitem) ⋈[Lineitem.ok=Orders.ok] Orders)) ⋈[Customer.ck=Orders.ck] Customer))"
    );
    // Under `shrinking()` every join pair keeps the whole cross product, so
    // crossing Lineitem with Customer prices as low as joining along the
    // path. The DP joins only sides a pair links, so the plan is the same
    // and holds no cross product.
    let definition = Expr::aggregate(Arc::clone(&tree), keys.to_vec(), [sum.clone()]);
    let plan = eager_under(&definition, &shrinking()).expect("applies");
    assert_eq!(
        plan.to_string(),
        "γ[Customer.segment,Customer.nk; SUM(#agg.r) AS r]((γ[Orders.ck; SUM(#agg.r) AS r]((γ[Lineitem.ok; SUM(Lineitem.price) AS r](Lineitem) ⋈[Lineitem.ok=Orders.ok] Orders)) ⋈[Customer.ck=Orders.ck] Customer))"
    );
    assert!(!plan.to_string().contains("⋈[×]"), "{plan}");

    let local = Predicate::cmp(attr("Lineitem.qty"), CompareOp::Gt, 1);
    let spanning = Predicate::or([
        Predicate::cmp(attr("Customer.segment"), CompareOp::Eq, "v1"),
        Predicate::cmp(attr("Orders.priority"), CompareOp::Eq, "v1"),
    ]);
    let filtered = Expr::select(Arc::clone(&tree), Predicate::and([local, spanning]));
    let plan = eager(&filtered, &keys, std::slice::from_ref(&sum)).expect("applies");
    assert_eq!(
        plan.to_string(),
        "γ[Customer.segment,Customer.nk; SUM(#agg.r) AS r](σ[(Customer.segment='v1' ∨ Orders.priority='v1')]((γ[Orders.ck,Orders.priority; SUM(#agg.r) AS r]((γ[Lineitem.ok; SUM(Lineitem.price) AS r](σ[Lineitem.qty>1](Lineitem)) ⋈[Lineitem.ok=Orders.ok] Orders)) ⋈[Customer.ck=Orders.ck] Customer)))"
    );

    // AVG does not roll up.
    let avg = AggExpr::new(AggFunc::Avg, attr("Lineitem.price"), "m");
    assert!(eager(&tree, &keys, &[avg]).is_none());
    // A global aggregate has no group keys.
    assert!(eager(&tree, &[], std::slice::from_ref(&sum)).is_none());
    // Inputs split over two relations: the pair holding them is grouped
    // first (the chain refused this).
    let both = [
        sum.clone(),
        AggExpr::new(AggFunc::Max, attr("Orders.odate"), "d"),
    ];
    let plan = eager(&tree, &keys, &both).expect("the pair holds both inputs");
    assert_eq!(
        partials(&plan).base_relations(),
        ["Lineitem", "Orders"]
            .map(mvdesign::algebra::RelName::new)
            .into()
    );
    // Two leaves read one relation.
    let twice = Expr::join(Arc::clone(&tree), Expr::base("Lineitem"), edge(2, 3));
    assert!(eager(&twice, &keys, std::slice::from_ref(&sum)).is_none());
    // A π between the γ and the join.
    let projected = Expr::project(Arc::clone(&tree), [keys[0].clone(), attr("Lineitem.price")]);
    assert!(eager(&projected, &keys[..1], std::slice::from_ref(&sum)).is_none());
    // Not a γ over a join.
    let over_lineitem = Expr::base("Lineitem");
    assert!(eager(
        &over_lineitem,
        &[attr("Lineitem.ok")],
        std::slice::from_ref(&sum)
    )
    .is_none());
    assert!(eager_under(&tree, &shrinking()).is_none());

    // A cross product is planned like any other join (the chain refused
    // relations no join pair connects).
    let cross = Expr::join(
        Expr::base("Lineitem"),
        Expr::base("Customer"),
        JoinCondition::cross(),
    );
    let definition = Expr::aggregate(cross, [attr("Customer.nk")], [sum.clone()]);
    let plan = eager_under(&definition, &path_shrinking()).expect("planned");
    assert_eq!(
        plan.to_string(),
        "γ[Customer.nk; SUM(#agg.r) AS r]((γ[; SUM(Lineitem.price) AS r](Lineitem) ⋈[×] Customer))"
    );
    // Its partial has no keys; over an empty Lineitem it has no group, so
    // the plan has no rows, as the definition has none.
    let mut base = Generator::with_config(GeneratorConfig {
        seed: 45,
        scale: 1.0,
        max_rows: 40,
    })
    .database(&tiny_catalog());
    for round in 0..2 {
        let (db, ctx) = serving(&base, &ViewCatalog::new());
        let run = |e: &Arc<Expr>| execute(e, &db, &ctx).expect("runs");
        let want = reference(&definition, &base);
        assert_eq!(run(&plan).rows(), want.rows(), "round {round}");
        let attrs = base.table("Lineitem").expect("generated").attrs().to_vec();
        base.insert_table(Table::new("Lineitem", attrs, Vec::new()));
    }
    // Where no group-by shrinks anything, the DP still plans, but prices
    // its plan above the definition, so a refresh keeps the definition
    // (the chain form refused).
    let plan = Expr::aggregate(Arc::clone(&tree), keys.to_vec(), [sum]);
    let sizes = distinct();
    let est = CostEstimator::new(&sizes, EstimationMode::Analytic, MeasureCostModel);
    let planned = eager_under(&plan, &sizes).expect("planned");
    assert!(est.tree_cost(&planned) > est.tree_cost(&plan), "{planned}");
}

/// A partial γ that shrinks nothing is skipped, as the left-deep chain
/// skipped it: `Lineitem` falls to its one `ok` group, but every value of
/// `Orders.ck` is distinct, so regrouping `γ(Lineitem) ⋈ Orders` by it only
/// adds its cost. The DP joins Customer to that join as it is.
#[test]
fn a_partial_group_by_that_shrinks_nothing_is_skipped() {
    let mut sizes = Catalog::new();
    for (name, meta) in tiny_catalog().iter() {
        let mut meta = meta.clone();
        meta.stats = RelationStats::new(1e3, 1e2);
        let selectivity = |a: &str| {
            if (name.as_str(), a) == ("Orders", "ck") {
                1e-9
            } else {
                1.0
            }
        };
        meta.selectivities = meta
            .schema
            .attributes()
            .iter()
            .map(|a| (a.name.clone(), selectivity(a.name.as_str())))
            .collect();
        sizes.insert_relation(meta).expect("tiny relation");
    }
    let orders_customer = Expr::join(Expr::base("Orders"), Expr::base("Customer"), edge(1, 2));
    let tree = Expr::join(Expr::base("Lineitem"), orders_customer, edge(2, 3));
    let sum = AggExpr::new(AggFunc::Sum, attr("Lineitem.price"), "r");
    let rolled = sum.rolled_up().expect("SUM rolls up");
    let definition = Expr::aggregate(tree, [attr("Customer.segment")], [sum]);
    let plan = eager_under(&definition, &sizes).expect("applies");
    let skipped = "γ[Customer.segment; SUM(#agg.r) AS r](((γ[Lineitem.ok; SUM(Lineitem.price) AS r](Lineitem) ⋈[Lineitem.ok=Orders.ok] Orders) ⋈[Customer.ck=Orders.ck] Customer))";
    assert_eq!(plan.to_string(), skipped);
    // The same join order with the middle γ prices higher.
    let Expr::Aggregate { input, .. } = &*plan else {
        panic!("{plan}")
    };
    let Expr::Join { left, right, on } = &**input else {
        panic!("{plan}")
    };
    let regrouped = Expr::aggregate(
        Expr::join(
            Expr::aggregate(Arc::clone(left), [attr("Orders.ck")], [rolled.clone()]),
            Arc::clone(right),
            on.clone(),
        ),
        [attr("Customer.segment")],
        [rolled],
    );
    let est = CostEstimator::new(&sizes, EstimationMode::Analytic, MeasureCostModel);
    assert!(
        est.tree_cost(&plan) < est.tree_cost(&regrouped),
        "{regrouped}"
    );
}

/// Over two relations: the cases the rule refuses, and which side the DP
/// groups when either could be.
#[test]
fn eager_aggregation_refusals_and_child_choice() {
    let sum = AggExpr::new(AggFunc::Sum, attr("Lineitem.price"), "r");
    // Inputs split over the two sides of a two-relation join: no subset
    // short of both holds them.
    let both = [
        sum.clone(),
        AggExpr::new(AggFunc::Max, attr("Orders.odate"), "d"),
    ];
    let lineitem_orders = Expr::join(Expr::base("Lineitem"), Expr::base("Orders"), edge(2, 3));
    let over = |keys: &[AttrRef], aggs: &[AggExpr]| {
        let plan = Expr::aggregate(Arc::clone(&lineitem_orders), keys.to_vec(), aggs.to_vec());
        eager_under(&plan, &path_shrinking())
    };
    assert!(over(&[attr("Orders.priority")], &both).is_none());
    // AVG does not roll up; a global aggregate has no group keys.
    let avg = AggExpr::new(AggFunc::Avg, attr("Lineitem.price"), "m");
    assert!(over(&[attr("Orders.priority")], &[avg]).is_none());
    assert!(over(&[], std::slice::from_ref(&sum)).is_none());
    assert!(over(&[attr("Orders.priority")], std::slice::from_ref(&sum)).is_some());
    // COUNT(*) alone: any side may be grouped, and the DP groups the one
    // that prices lowest, on whichever side of the join it sits. On the
    // tiny sizes that is Lineitem, whose 40 rows fall to its `ok` groups.
    let count = AggExpr::count_star("n");
    let by_priority = [attr("Orders.priority")];
    let tiny = tiny_catalog();
    let count_over = |l: &str, r: &str| {
        let join = Expr::join(Expr::base(l), Expr::base(r), edge(2, 3));
        Expr::aggregate(join, by_priority.clone(), [count.clone()])
    };
    for plan in [
        count_over("Lineitem", "Orders"),
        count_over("Orders", "Lineitem"),
    ] {
        let eager = eager_under(&plan, &tiny).expect("COUNT(*) rolls up");
        assert_eq!(
            partials(&eager).to_string(),
            "γ[Lineitem.ok; COUNT(*) AS n](Lineitem)",
            "{plan}"
        );
    }
    // Where no attribute has a known domain, no group-by shrinks, and the
    // DP groups the side with fewer rows, which costs least: Lineitem. The
    // one-level form grouped the side with more base rows, Orders.
    let mut orders_larger = Catalog::new();
    for (name, rows) in [("Orders", 50.0), ("Lineitem", 40.0)] {
        orders_larger
            .relation(name)
            .records(rows)
            .blocks(rows / 10.0)
            .finish()
            .expect("sized");
    }
    let eager = eager_under(&count_over("Lineitem", "Orders"), &orders_larger).expect("applies");
    assert_eq!(
        partials(&eager).to_string(),
        "γ[Lineitem.ok; COUNT(*) AS n](Lineitem)"
    );
    // A leaf that aggregates is grouped like any other relation (the
    // one-level form refused it): nothing above reads its aggregate.
    let grouped = Expr::aggregate(Expr::base("Lineitem"), [attr("Lineitem.ok")], [sum.clone()]);
    let over_groups = Expr::join(grouped, Expr::base("Orders"), edge(2, 3));
    let plan = Expr::aggregate(over_groups, by_priority, [count]);
    assert!(eager_under(&plan, &tiny).is_some());
}
