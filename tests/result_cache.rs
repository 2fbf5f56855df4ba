//! Result-cache battery: the warehouse keeps the answers of prepared
//! expressions (`query_expr`) and of SQL text (`query`, under the parsed
//! expression's key) between two changes of the stored relations their
//! plans read, and **every answer it serves — computed or kept — must
//! be bit-equal (header, row order, rows) to running the routed plan on the
//! asker's own state**. The oracle needs no off-switch:
//! `execute(&views.rewrite(e), database, &exec_context)` never touches the
//! cache.
//!
//! The proptest interleaves appends (to relations that do and do not feed
//! the queried views), refreshes under `Delta` and `Recompute`, and repeated
//! `query`/`query_expr` on the live warehouse *and* on snapshots held across
//! later writes. The pins name what the cache promises: what hits, what
//! misses at once, what is never stored (bare scans, anything under a
//! memory budget, parse errors), that a text and its parsed expression
//! share one entry, and that the byte caps hold.
//!
//! `MVDESIGN_MEM_BUDGET` (bytes) pages every table of the proptest's
//! warehouses, and a budgeted warehouse keeps nothing — CI's low-memory job
//! reruns the battery at 256 bytes, where every ask runs its plan.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use mvdesign::algebra::{parse_query_with, Expr, Value};
use mvdesign::catalog::Catalog;
use mvdesign::core::DesignResult;
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig, Table};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{
    RefreshPolicy, ResultCacheStats, Warehouse, WarehouseError, WarehouseSnapshot,
};
use mvdesign::workload::{paper_example, tpch_lite};

/// The cache's total byte cap (`MAX_TOTAL_BYTES` in
/// `crates/mvdesign/src/result_cache.rs`; DESIGN §18).
const TOTAL_CAP: usize = 8 * 1024 * 1024;
/// The largest answer kept (`MAX_ENTRY_BYTES`, same file).
const ENTRY_CAP: usize = 256 * 1024;

/// A query as a client submits it.
#[derive(Debug, Clone)]
enum Ask {
    Expr(Arc<Expr>),
    Sql(&'static str),
}

/// A scenario with its design and the queries the battery draws from: the
/// workload's raw roots, the designer's merged plans, and SQL text (the
/// workload's own plus ad hoc σ-literal variants no view was built for).
struct Pool {
    catalog: Catalog,
    design: DesignResult,
    asks: Vec<Ask>,
}

fn pool_of(scenario: mvdesign::workload::Scenario, sql: &[&'static str]) -> Pool {
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("scenario designs");
    let mvpp = design.mvpp.mvpp();
    let mut asks: Vec<Ask> = scenario
        .workload
        .queries()
        .iter()
        .map(|q| Ask::Expr(Arc::clone(q.root())))
        .collect();
    asks.extend(
        mvpp.roots()
            .iter()
            .map(|(_, _, root)| Ask::Expr(Arc::clone(mvpp.node(*root).expr()))),
    );
    for text in sql {
        parse_query_with(text, &scenario.catalog).expect("battery SQL parses");
        asks.push(Ask::Sql(text));
    }
    Pool {
        catalog: scenario.catalog,
        design,
        asks,
    }
}

const SEGMENT_SQL: &str = "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.segment";
const NATION_SQL: &str = "SELECT Nation.name, SUM(price) AS revenue \
     FROM Nation, Customer, Orders, Lineitem \
     WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     GROUP BY Nation.name";

fn tpch() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        pool_of(
            tpch_lite(),
            &[
                SEGMENT_SQL,
                NATION_SQL,
                "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
                "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE qty > 10",
                "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE qty > 30",
                "SELECT name FROM Supplier",
                "SELECT Orders.ok, segment FROM Customer, Orders WHERE Orders.ck = Customer.ck",
            ],
        )
    })
}

fn paper() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        pool_of(
            paper_example(),
            &[
                "SELECT name FROM Customer",
                "SELECT name FROM Customer WHERE city = 'v0'",
                "SELECT name FROM Customer WHERE city = 'v1'",
                "SELECT Customer.name, quantity FROM Customer, Order \
                 WHERE Customer.Cid = Order.Cid",
            ],
        )
    })
}

/// A few hundred rows per relation, at a scale where the foreign keys
/// still meet (TPC-H-lite's Customer ⋈ Orders ⋈ Lineitem join, which its roll-up
/// candidate aggregates, keeps nearly every `Lineitem` row).
const SMALL: (f64, usize) = (0.0002, 300);

fn data(catalog: &Catalog, seed: u64, (scale, max_rows): (f64, usize)) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale,
        max_rows,
    })
    .database(catalog)
}

fn mem_budget() -> Option<usize> {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
}

/// A resident warehouse over `pool`'s design. The pins use it whatever the
/// environment says: what hits and what misses is a statement about a cache
/// that has room.
fn resident(pool: &Pool, seed: u64, size: (f64, usize)) -> Warehouse {
    Warehouse::new(
        pool.catalog.clone(),
        data(&pool.catalog, seed, size),
        &pool.design,
    )
    .expect("warehouse builds")
}

fn parsed(ask: &Ask, catalog: &Catalog) -> Arc<Expr> {
    match ask {
        Ask::Expr(e) => Arc::clone(e),
        Ask::Sql(text) => parse_query_with(text, catalog).expect("battery SQL parses"),
    }
}

fn ask_warehouse(w: &Warehouse, ask: &Ask) -> Table {
    match ask {
        Ask::Expr(e) => w.query_expr(e),
        Ask::Sql(text) => w.query(text),
    }
    .expect("warehouse answers")
}

fn ask_snapshot(s: &WarehouseSnapshot, ask: &Ask) -> Table {
    match ask {
        Ask::Expr(e) => s.query_expr(e),
        Ask::Sql(text) => s.query(text),
    }
    .expect("snapshot answers")
}

/// Header, row order and rows: `Batch` equality is all three.
fn assert_bit_equal(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.attrs(), want.attrs(), "{what}: header differs");
    assert_eq!(
        got.batch(),
        want.batch(),
        "{what}: rows or their order differ"
    );
}

fn check_warehouse(w: &Warehouse, ask: &Ask, what: &str) {
    let e = parsed(ask, w.catalog());
    let want =
        execute(&w.views().rewrite(&e), w.database(), &w.exec_context()).expect("oracle executes");
    assert_bit_equal(&ask_warehouse(w, ask), &want, what);
}

fn check_snapshot(s: &WarehouseSnapshot, ctx: &ExecContext, ask: &Ask, what: &str) {
    let e = parsed(ask, s.catalog());
    let want = execute(&s.views().rewrite(&e), s.database(), ctx).expect("oracle executes");
    assert_bit_equal(&ask_snapshot(s, ask), &want, what);
}

fn ask_named(pool: &Pool, name: &str) -> Ask {
    let scenario_query = tpch_lite()
        .workload
        .queries()
        .iter()
        .find(|q| q.name() == name)
        .map(|q| Arc::clone(q.root()))
        .expect("tpch-lite query");
    assert!(
        pool.asks
            .iter()
            .any(|a| matches!(a, Ask::Expr(e) if *e == scenario_query)),
        "{name} is in the pool"
    );
    Ask::Expr(scenario_query)
}

/// Up to `rows` rows of `relation` from a twin database drawn from another
/// seed over the same value domains, so appended rows join like the
/// original ones.
fn twin_rows(catalog: &Catalog, relation: &str, seed: u64, rows: usize) -> Vec<Vec<Value>> {
    let twin = data(catalog, seed ^ 0xA99E, SMALL);
    let table = twin.table(relation).expect("twin relation");
    table.rows().iter().take(rows).cloned().collect()
}

fn delta(after: ResultCacheStats, before: ResultCacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.stale - before.stale,
    )
}

// ---------------------------------------------------------------------------
// Differential proptest
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Ask(usize),
    Append { rel: usize, rows: usize },
    Refresh,
    Hold,
    AskHeld { snap: usize, ask: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..100, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| {
        if kind < 40 {
            Op::Ask(a)
        } else if kind < 55 {
            Op::Append {
                rel: a,
                rows: 1 + b % 3,
            }
        } else if kind < 65 {
            Op::Refresh
        } else if kind < 75 {
            Op::Hold
        } else {
            Op::AskHeld { snap: a, ask: b }
        }
    })
}

fn run_case(pool: &Pool, seed: u64, recompute: bool, ops: &[Op]) {
    let mut w = Warehouse::new(
        pool.catalog.clone(),
        data(&pool.catalog, seed, SMALL),
        &pool.design,
    )
    .expect("warehouse builds")
    .with_mem_budget(mem_budget());
    if recompute {
        w.set_refresh_policy(RefreshPolicy::Recompute);
    }
    let ctx = w.exec_context();
    let relations: Vec<String> = pool
        .catalog
        .relation_names()
        .map(ToString::to_string)
        .collect();
    let mut held: Vec<WarehouseSnapshot> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Ask(a) => {
                let ask = &pool.asks[a % pool.asks.len()];
                check_warehouse(&w, ask, &format!("op {i}: live {ask:?}"));
            }
            Op::Append { rel, rows } => {
                let relation = &relations[rel % relations.len()];
                let batch = twin_rows(&pool.catalog, relation, seed + i as u64, rows);
                w.append(relation.as_str(), batch).expect("append applies");
            }
            Op::Refresh => {
                w.refresh().expect("refresh applies");
            }
            Op::Hold => held.push(w.snapshot()),
            Op::AskHeld { snap, ask } => {
                // With nothing held yet, ask the state as it is now through
                // a snapshot of it.
                if held.is_empty() {
                    held.push(w.snapshot());
                }
                let s = &held[snap % held.len()];
                let ask = &pool.asks[ask % pool.asks.len()];
                check_snapshot(s, &ctx, ask, &format!("op {i}: held {ask:?}"));
            }
        }
    }
    let stats = w.result_cache_stats();
    assert!(stats.bytes <= mem_budget().map_or(TOTAL_CAP, |_| 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole invariant: through any interleaving of writes, repeated
    /// asks and held snapshots, what the warehouse answers is what its
    /// routed plan computes on the asker's state.
    #[test]
    fn cached_answers_equal_the_routed_plan_on_the_askers_state(
        paper_scenario in any::<bool>(),
        recompute in any::<bool>(),
        seed in 0u64..40,
        ops in proptest::collection::vec(op_strategy(), 8..40),
    ) {
        let pool = if paper_scenario { paper() } else { tpch() };
        run_case(pool, seed, recompute, &ops);
    }
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

#[test]
fn second_ask_is_a_hit_and_shares_the_first_answers_columns() {
    let pool = tpch();
    let w = resident(pool, 3, SMALL);
    for ask in [
        ask_named(pool, "revenue_by_segment"),
        ask_named(pool, "revenue_by_nation"),
    ] {
        let before = w.result_cache_stats();
        let first = ask_warehouse(&w, &ask);
        assert_eq!(
            delta(w.result_cache_stats(), before),
            (0, 1, 0),
            "first ask of {ask:?} runs its plan"
        );
        let second = ask_warehouse(&w, &ask);
        assert_eq!(
            delta(w.result_cache_stats(), before),
            (1, 1, 0),
            "second ask of {ask:?} is answered from the cache"
        );
        assert_bit_equal(&second, &first, "kept answer");
        for (a, b) in first.batch().columns().iter().zip(second.batch().columns()) {
            assert!(Arc::ptr_eq(a, b), "a hit must hand out the kept columns");
        }
        // A snapshot shares the warehouse's cache and versions.
        let snap = w.snapshot();
        let third = ask_snapshot(&snap, &ask);
        assert_eq!(delta(snap.result_cache_stats(), before), (2, 1, 0));
        assert_bit_equal(&third, &first, "snapshot's kept answer");
    }
}

/// SQL text is kept like the expression it parses to: the second ask of a
/// text, on the warehouse or on a snapshot, is a hit that hands out the
/// kept columns.
#[test]
fn a_repeated_sql_text_is_a_hit_and_shares_the_first_answers_columns() {
    let pool = tpch();
    let w = resident(pool, 3, SMALL);
    let snap = w.snapshot();
    for text in [SEGMENT_SQL, NATION_SQL] {
        let ask = Ask::Sql(text);
        let before = w.result_cache_stats();
        let first = ask_warehouse(&w, &ask);
        assert_eq!(delta(w.result_cache_stats(), before), (0, 1, 0));
        let second = ask_warehouse(&w, &ask);
        let third = ask_snapshot(&snap, &ask);
        assert_eq!(
            delta(w.result_cache_stats(), before),
            (2, 1, 0),
            "the second and third ask of {text} are hits"
        );
        for kept in [&second, &third] {
            assert_bit_equal(kept, &first, "kept answer to SQL text");
            for (a, b) in first.batch().columns().iter().zip(kept.batch().columns()) {
                assert!(Arc::ptr_eq(a, b), "a hit must hand out the kept columns");
            }
        }
        check_warehouse(&w, &ask, "SQL text");
        check_snapshot(&snap, &w.exec_context(), &ask, "SQL text");
    }
    assert_eq!(w.statements_kept(), 2);
}

/// A text and `query_expr` of its parsed expression are one key, whichever
/// comes first.
#[test]
fn a_text_and_its_parsed_expression_share_one_entry() {
    let pool = tpch();
    let w = resident(pool, 4, SMALL);
    let before = w.result_cache_stats();
    let sql_first = Ask::Sql(SEGMENT_SQL);
    let expr_first = Ask::Sql(NATION_SQL);
    check_warehouse(&w, &sql_first, "text fills");
    check_warehouse(
        &w,
        &Ask::Expr(parsed(&sql_first, w.catalog())),
        "expression hits",
    );
    check_warehouse(
        &w,
        &Ask::Expr(parsed(&expr_first, w.catalog())),
        "expression fills",
    );
    check_warehouse(&w, &expr_first, "text hits");
    assert_eq!(delta(w.result_cache_stats(), before), (2, 2, 0));
    assert_eq!(w.result_cache_stats().entries, 2);
}

/// An append and a refresh the plan reads turn a repeated text into a
/// `stale` miss that returns the fresh answer; the text is not parsed again.
#[test]
fn a_repeated_text_after_a_refresh_is_a_stale_miss_with_the_fresh_answer() {
    let pool = tpch();
    let mut w = resident(pool, 6, SMALL);
    let ask = Ask::Sql(SEGMENT_SQL);
    let old = ask_warehouse(&w, &ask);
    w.append("Lineitem", twin_rows(&pool.catalog, "Lineitem", 6, 20))
        .expect("append applies");
    w.refresh().expect("refresh applies");
    let before = w.result_cache_stats();
    let fresh = ask_warehouse(&w, &ask);
    assert_eq!(delta(w.result_cache_stats(), before), (0, 1, 1));
    assert_ne!(
        fresh.batch(),
        old.batch(),
        "fixture: the refresh must change the answer"
    );
    check_warehouse(&w, &ask, "after the refresh");
    assert_eq!(delta(w.result_cache_stats(), before), (1, 1, 1));
    assert_eq!(w.statements_kept(), 1);
}

/// Under a memory budget SQL text keeps its statement but never an answer:
/// every ask runs its plan and equals the oracle.
#[test]
fn under_a_memory_budget_sql_text_runs_its_plan() {
    let budget = mem_budget().unwrap_or(64 * 1024);
    let pool = tpch();
    let w = resident(pool, 8, SMALL).with_mem_budget(Some(budget));
    let snap = w.snapshot();
    let texts: Vec<&Ask> = pool
        .asks
        .iter()
        .filter(|a| matches!(a, Ask::Sql(_)))
        .collect();
    for _ in 0..2 {
        for ask in &texts {
            check_warehouse(&w, ask, "budgeted SQL");
            check_snapshot(&snap, &w.exec_context(), ask, "budgeted SQL");
        }
    }
    assert_eq!(w.result_cache_stats(), ResultCacheStats::default());
    assert_eq!(w.statements_kept(), texts.len());
}

/// A text far longer than any statement worth keeping (here a class text
/// padded with 64 KiB of blanks) is parsed on every ask and adds no
/// statement; its answer is still kept under its parsed expression's key,
/// which the unpadded text shares.
#[test]
fn a_text_too_long_to_keep_adds_no_statement() {
    let pool = tpch();
    let w = resident(pool, 9, SMALL);
    let long: &'static str =
        Box::leak(format!("{SEGMENT_SQL}{}", " ".repeat(64 * 1024)).into_boxed_str());
    let ask = Ask::Sql(long);
    let before = w.result_cache_stats();
    for _ in 0..3 {
        check_warehouse(&w, &ask, "long text");
    }
    check_snapshot(&w.snapshot(), &w.exec_context(), &ask, "long text");
    assert_eq!(w.statements_kept(), 0);
    assert_eq!(delta(w.result_cache_stats(), before), (3, 1, 0));
    check_warehouse(&w, &Ask::Sql(SEGMENT_SQL), "unpadded text");
    assert_eq!(delta(w.result_cache_stats(), before), (4, 1, 0));
    assert_eq!(w.statements_kept(), 1);
}

/// A parse error is returned on every ask and never kept.
#[test]
fn malformed_sql_is_a_parse_error_every_time_and_keeps_no_statement() {
    let pool = tpch();
    let w = resident(pool, 10, SMALL);
    let snap = w.snapshot();
    for _ in 0..3 {
        for sql in ["SELEC oops", "SELECT nothing FROM Nowhere"] {
            assert!(matches!(w.query(sql), Err(WarehouseError::Parse(_))));
            assert!(matches!(snap.query(sql), Err(WarehouseError::Parse(_))));
        }
    }
    assert_eq!(w.statements_kept(), 0);
    assert_eq!(w.result_cache_stats(), ResultCacheStats::default());
}

/// No timing: a miss runs the plan exactly once and a hit not at all. A γ
/// that ran hands out freshly built columns; a hit hands out the kept ones.
#[test]
fn a_miss_executes_once_and_a_hit_not_at_all() {
    let pool = tpch();
    let w = resident(pool, 5, SMALL);
    let ask = ask_named(pool, "revenue_by_segment");
    let s0 = w.result_cache_stats();
    let computed = ask_warehouse(&w, &ask);
    let s1 = w.result_cache_stats();
    assert_eq!(delta(s1, s0), (0, 1, 0));
    for _ in 0..3 {
        let kept = ask_warehouse(&w, &ask);
        for (a, b) in computed
            .batch()
            .columns()
            .iter()
            .zip(kept.batch().columns())
        {
            assert!(Arc::ptr_eq(a, b), "a hit ran the plan");
        }
    }
    assert_eq!(delta(w.result_cache_stats(), s1), (3, 0, 0));
    check_warehouse(&w, &ask, "hit");
}

#[test]
fn an_append_invalidates_exactly_the_plans_that_read_the_relation() {
    let pool = tpch();
    let mut w = resident(pool, 7, SMALL);
    let segment = ask_named(pool, "revenue_by_segment"); // γ(candidate)
    let nation = ask_named(pool, "revenue_by_nation"); // γ(candidate ⋈ Nation)
    for ask in [&segment, &nation] {
        ask_warehouse(&w, ask);
    }

    // Lineitem feeds the roll-up candidate, but the stored candidate does
    // not change until the refresh: both entries keep hitting, and are exactly as stale as
    // running the plan would be.
    w.append("Lineitem", twin_rows(&pool.catalog, "Lineitem", 7, 5))
        .expect("append applies");
    let before = w.result_cache_stats();
    for ask in [&segment, &nation] {
        check_warehouse(&w, ask, "after an append the views have not seen");
    }
    assert_eq!(delta(w.result_cache_stats(), before), (2, 0, 0));

    // Nation is read directly by one routed plan: that one misses at once.
    w.append("Nation", twin_rows(&pool.catalog, "Nation", 7, 1))
        .expect("append applies");
    let before = w.result_cache_stats();
    check_warehouse(&w, &segment, "untouched by Nation");
    assert_eq!(delta(w.result_cache_stats(), before), (1, 0, 0));
    check_warehouse(&w, &nation, "reads Nation directly");
    assert_eq!(delta(w.result_cache_stats(), before), (1, 1, 1));

    // The refresh folds Lineitem's rows into the candidate's groups: both
    // miss once, as stale entries, then hit again.
    let report = w.refresh().expect("refresh applies");
    assert!(report.folded + report.recomputed > 0);
    let before = w.result_cache_stats();
    for ask in [&segment, &nation] {
        check_warehouse(&w, ask, "after the refresh");
    }
    assert_eq!(delta(w.result_cache_stats(), before), (0, 2, 2));
    for ask in [&segment, &nation] {
        check_warehouse(&w, ask, "kept after the refresh");
    }
    assert_eq!(delta(w.result_cache_stats(), before), (2, 2, 2));
}

#[test]
fn a_refresh_that_skips_a_view_keeps_its_entries() {
    let pool = tpch();
    let mut w = resident(pool, 9, SMALL);
    let segment = ask_named(pool, "revenue_by_segment");
    ask_warehouse(&w, &segment);
    // Supplier feeds nothing the segment plan reads.
    w.append("Supplier", twin_rows(&pool.catalog, "Supplier", 9, 2))
        .expect("append applies");
    let report = w.refresh().expect("refresh applies");
    assert!(report.skipped > 0, "{report:?}");
    let before = w.result_cache_stats();
    check_warehouse(&w, &segment, "across a refresh that skipped its view");
    assert_eq!(delta(w.result_cache_stats(), before), (1, 0, 0));
}

/// A refresh that folds an empty delta into a view leaves the view's pages
/// as they were, so it keeps the view's version and the answers read from
/// it. Paper example: a Division row outside `'LA'` makes `tmp7` =
/// σ[city='LA'](Division) ⋈ Product stale, and its fold appends nothing.
#[test]
fn a_refresh_that_leaves_a_views_pages_keeps_its_entries() {
    let pool = paper();
    let mut w = resident(pool, 13, SMALL);
    let q1 = paper_example()
        .workload
        .queries()
        .iter()
        .find(|q| q.name() == "Q1")
        .map(|q| Ask::Expr(Arc::clone(q.root())))
        .expect("paper Q1");
    assert_eq!(
        w.views().rewrite(&parsed(&q1, w.catalog())).to_string(),
        "π[Product.name](tmp7)",
        "fixture: Q1 reads tmp7 through a projection"
    );
    ask_warehouse(&w, &q1);
    let division = w.database().table("Division").expect("Division");
    let mut row = division.rows()[0].clone();
    let city = division
        .attrs()
        .iter()
        .position(|a| a.attr.as_str() == "city")
        .expect("Division.city");
    row[city] = Value::text("nowhere");
    let (pages, version) = (
        Arc::clone(w.database().table("tmp7").expect("tmp7").pages()),
        w.versions()["tmp7"],
    );
    w.append("Division", vec![row]).expect("append applies");
    assert!(w.stale_views().any(|v| v.as_str() == "tmp7"));
    let report = w.refresh().expect("refresh applies");
    assert!(report.folded > 0, "{report:?}");
    let stored = w.database().table("tmp7").expect("tmp7");
    assert!(
        Arc::ptr_eq(&pages, stored.pages()),
        "the empty fold kept the pages"
    );
    assert_eq!(w.versions()["tmp7"], version, "the version stays");
    let before = w.result_cache_stats();
    check_warehouse(&w, &q1, "across a refresh that left tmp7's pages");
    assert_eq!(delta(w.result_cache_stats(), before), (1, 0, 0));
}

#[test]
fn a_held_snapshot_and_a_fresh_one_alternate_on_one_key() {
    let pool = tpch();
    let mut w = resident(pool, 11, SMALL);
    let ctx = w.exec_context();
    let ask = ask_named(pool, "revenue_by_segment");
    let old = w.snapshot();
    let old_answer = ask_snapshot(&old, &ask);
    w.append("Lineitem", twin_rows(&pool.catalog, "Lineitem", 11, 20))
        .expect("append applies");
    w.refresh().expect("refresh applies");
    let new = w.snapshot();
    assert_ne!(
        ask_snapshot(&new, &ask).batch(),
        old_answer.batch(),
        "fixture: the refresh must change the answer"
    );
    for round in 0..3 {
        check_snapshot(&old, &ctx, &ask, &format!("round {round}: held snapshot"));
        assert_bit_equal(
            &ask_snapshot(&old, &ask),
            &old_answer,
            "held snapshot moved",
        );
        check_snapshot(&new, &ctx, &ask, &format!("round {round}: fresh snapshot"));
        check_warehouse(&w, &ask, &format!("round {round}: live"));
    }
}

#[test]
fn plans_that_route_to_a_bare_stored_relation_store_nothing() {
    let pool = tpch();
    let w = resident(pool, 13, SMALL);
    let mut bare = 0;
    for ask in &pool.asks {
        let routed = w.views().rewrite(&parsed(ask, w.catalog()));
        if !matches!(&*routed, Expr::Base(_)) {
            continue;
        }
        bare += 1;
        let before = w.result_cache_stats();
        for _ in 0..2 {
            check_warehouse(&w, ask, "bare scan");
        }
        let after = w.result_cache_stats();
        assert_eq!(delta(after, before), (0, 2, 0), "{ask:?} is never kept");
        assert_eq!((after.entries, after.bytes), (before.entries, before.bytes));
    }
    assert!(
        bare >= 4,
        "tpch-lite has four bare-scan classes, saw {bare}"
    );
}

#[test]
fn per_entry_and_total_caps_hold_under_a_flood_of_distinct_literals() {
    let pool = tpch();
    // 30 000 `Lineitem` rows; `price` is uniform over 0..30 000.
    let w = resident(pool, 17, (0.005, 30_000));
    let row_bytes = 3 * 8;

    // Each literal is its own expression, prepared once and asked once.
    let ask = |sql: &str| {
        let prepared = parse_query_with(sql, w.catalog()).expect("flood SQL parses");
        w.query_expr(&prepared).expect("answers")
    };
    let everything = ask("SELECT Lineitem.ok, qty, price FROM Lineitem WHERE price > 10");
    assert!(everything.len() * row_bytes > ENTRY_CAP, "fixture");
    let stats = w.result_cache_stats();
    assert_eq!((stats.skipped_large, stats.entries, stats.bytes), (1, 0, 0));

    // 150 distinct literals, each answer ≈ 4 000 rows ≈ 100 KB: nearly
    // twice what the cache may hold.
    let mut asked = 0usize;
    for i in 0..150 {
        let sql = format!(
            "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE price > {}",
            26_000 - i
        );
        let answer = ask(&sql);
        assert!(answer.len() * row_bytes < ENTRY_CAP, "fixture");
        asked += answer.len() * row_bytes;
        let stats = w.result_cache_stats();
        assert!(stats.bytes <= TOTAL_CAP, "{stats:?}");
    }
    let stats = w.result_cache_stats();
    assert!(
        asked > TOTAL_CAP,
        "fixture: the flood must overflow the cap"
    );
    assert!(stats.evictions > 0 && stats.entries > 0, "{stats:?}");
    assert_eq!(stats.entries as u64 + stats.evictions, 150, "{stats:?}");
    assert_eq!(
        (stats.hits, stats.skipped_large),
        (0, 1),
        "every literal was new"
    );
    // Least recently used went first: the last literal asked is still kept.
    ask("SELECT Lineitem.ok, qty, price FROM Lineitem WHERE price > 25851");
    assert_eq!(w.result_cache_stats().hits, 1);
}

/// A memory budget bounds what the warehouse holds resident, and kept
/// answers are outside the pool that accounts for it: a budgeted warehouse
/// keeps none, runs every ask (seen on the buffer pool every executed scan
/// goes through), and lets go of what it kept before the budget was set.
#[test]
fn under_a_memory_budget_nothing_is_kept() {
    let budget = mem_budget().unwrap_or(64 * 1024);
    let pool = tpch();
    let segment = ask_named(pool, "revenue_by_segment");
    let mut w = resident(pool, 19, SMALL);
    ask_warehouse(&w, &segment);
    assert_eq!(w.result_cache_stats().entries, 1);

    w.set_mem_budget(Some(budget));
    assert_eq!(w.result_cache_stats(), ResultCacheStats::default());
    let touches = |w: &Warehouse| {
        let s = w.buffer_pool().expect("budgeted").stats();
        s.hits + s.misses
    };
    let snap = w.snapshot();
    for _ in 0..2 {
        for ask in [&segment, &ask_named(pool, "revenue_by_nation")] {
            let t0 = touches(&w);
            ask_warehouse(&w, ask);
            let t1 = touches(&w);
            ask_snapshot(&snap, ask);
            assert!(t1 > t0 && touches(&w) > t1, "{ask:?} did not run its plan");
        }
        for ask in &pool.asks {
            check_warehouse(&w, ask, "budgeted");
        }
    }
    assert_eq!(w.result_cache_stats(), ResultCacheStats::default());

    // Resident again, the cache is back.
    w.set_mem_budget(None);
    for _ in 0..2 {
        check_warehouse(&w, &segment, "resident again");
    }
    assert_eq!(
        delta(w.result_cache_stats(), ResultCacheStats::default()),
        (1, 1, 0)
    );
}
