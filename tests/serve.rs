//! Serving-layer battery: random interleavings of concurrent reader
//! clients × appends × refreshes through `mvdesign-serve` must produce
//! answers **bag-equal to a sequential `Warehouse` replay** of the same
//! event schedule. The writer's publish version is the linearization
//! point: every answer carries the version it was served at, every applied
//! write carries the version it produced, so the concurrent history
//! collapses to "apply writes in version order, answer each query at its
//! version" — which is exactly what the replay executes, single-threaded.
//! Clients send a pinned third of their reads as SQL text and the rest as
//! the text's parsed expression, so both doors share one result cache. The
//! replay answers by running the routed plan with `execute` directly,
//! never through `Warehouse::{query, query_expr}`: the served side answers
//! repeated queries from the warehouse's result cache, and an oracle that
//! did too could be wrong in the same way.
//!
//! The battery runs every schedule twice: on a fully resident warehouse
//! and on a `with_mem_budget` one (tables paged into a shared buffer pool,
//! operators spilling), both replayed against a *resident* sequential
//! warehouse — so snapshot isolation is exercised across concurrent page
//! eviction too. `MVDESIGN_MEM_BUDGET` overrides the budget (the CI
//! low-memory job pins it to 256 bytes).
//!
//! Deterministic companions pin what the proptests rely on: a
//! snapshot-stability fixture (a reader holding a snapshot across a
//! published refresh sees the old, internally consistent state
//! end-to-end), a drain-on-shutdown check, a malformed-SQL check (a parse
//! error, not a dead reader), and a 64-client × 500 ms mixed
//! query/maintenance smoke.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mvdesign::algebra::{parse_query_with, Expr, ParseError, Value};
use mvdesign::catalog::Catalog;
use mvdesign::core::DesignResult;
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{Warehouse, WarehouseError, WarehouseSnapshot};
use mvdesign::workload::paper_example;
use mvdesign_serve::{ServeConfig, ServeError, ServeStats, Server};

// The compile-time thread-safety contract the serving layer rests on: a
// future non-`Send`/`Sync` field in any of these breaks this test file at
// compile time, in the PR that introduces it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WarehouseSnapshot>();
    assert_send_sync::<Database>();
    assert_send_sync::<mvdesign::engine::Table>();
    assert_send_sync::<mvdesign::engine::BufferPool>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<mvdesign::core::ViewCatalog>();
};

/// The design is deterministic; compute it once for every case.
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
        scale: 0.003,
        max_rows: 250,
    })
    .database(catalog)
}

/// The paged-variant pool budget: tiny enough to force eviction on this
/// data; the CI low-memory job overrides it down to 256 bytes.
fn mem_budget() -> usize {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
        .unwrap_or(4096)
}

/// The texts of the queries clients draw from: the four workload queries
/// (view-routed) plus ad hoc scans the design never saw.
const POOL_SQL: [&str; 6] = [
    "SELECT Product.name FROM Product, Division \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did",
    "SELECT Part.name FROM Product, Part, Division \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did \
     AND Part.Pid = Product.Pid",
    "SELECT Customer.name, Product.name, quantity \
     FROM Product, Division, Order, Customer \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did \
     AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid \
     AND date > 7/1/96",
    "SELECT Customer.city, date FROM Order, Customer \
     WHERE quantity > 100 AND Order.Cid = Customer.Cid",
    "SELECT name FROM Customer",
    "SELECT name FROM Customer WHERE city = 'v0'",
];

/// `POOL_SQL` parsed, entry for entry.
fn query_pool() -> &'static Vec<Arc<Expr>> {
    static POOL: OnceLock<Vec<Arc<Expr>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let (catalog, _) = fixture();
        let pool: Vec<Arc<Expr>> = POOL_SQL
            .iter()
            .map(|sql| parse_query_with(sql, catalog).expect("pool SQL parses"))
            .collect();
        let workload = paper_example().workload;
        for (query, parsed) in workload.queries().iter().zip(&pool) {
            assert_eq!(query.root(), parsed, "{} is the workload's", query.name());
        }
        pool
    })
}

/// One client-visible event.
#[derive(Debug, Clone, Copy)]
enum Op {
    Query(usize),
    Append { rel: usize, rows: usize },
    Refresh,
}

/// Decodes a proptest-sampled `(kind, arg)` pair: ~60% queries, ~25%
/// appends, ~15% refreshes.
fn decode(kind: usize, arg: usize, pool: usize, rels: usize) -> Op {
    if kind < 60 {
        Op::Query(arg % pool)
    } else if kind < 85 {
        Op::Append {
            rel: arg % rels,
            rows: 1 + kind % 3,
        }
    } else {
        Op::Refresh
    }
}

/// A served query, tagged with its linearization point.
#[derive(Debug)]
struct QueryRec {
    version: u64,
    pool: usize,
    rows: Vec<Vec<Value>>,
    /// Answered from the result cache.
    cached: bool,
}

/// An applied write, tagged with the version it produced.
#[derive(Debug)]
enum WriteRec {
    Append {
        version: u64,
        rel: String,
        rows: Vec<Vec<Value>>,
    },
    Refresh {
        version: u64,
    },
}

impl WriteRec {
    fn version(&self) -> u64 {
        match self {
            WriteRec::Append { version, .. } | WriteRec::Refresh { version } => *version,
        }
    }
}

/// Drives every client script against a live server (one OS thread per
/// client, so cross-client interleaving is scheduler-random), then shuts
/// the server down and returns the tagged history with the final stats.
fn run_serve(
    warehouse: Warehouse,
    scripts: &[Vec<Op>],
    readers: usize,
    seed: u64,
) -> (Vec<QueryRec>, Vec<WriteRec>, ServeStats) {
    let pool = query_pool();
    let rel_names: Vec<String> = base_db(seed).iter().map(|(n, _)| n.to_string()).collect();
    let twin = base_db(seed ^ 0xA99E);
    let twin_rows: Vec<Vec<Vec<Value>>> = rel_names
        .iter()
        .map(|n| twin.table(n).expect("twin relation").rows().to_vec())
        .collect();
    let server = Server::start(warehouse, ServeConfig { readers });
    let per_client: Vec<(Vec<QueryRec>, Vec<WriteRec>)> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(ci, script)| {
                let h = server.handle();
                let (rel_names, twin_rows) = (&rel_names, &twin_rows);
                s.spawn(move || {
                    let mut queries = Vec::new();
                    let mut writes = Vec::new();
                    for (oi, op) in script.iter().enumerate() {
                        match *op {
                            Op::Query(p) => {
                                let ticket = if (ci + oi) % 3 == 0 {
                                    h.query(POOL_SQL[p])
                                } else {
                                    h.query_expr(&pool[p])
                                };
                                let a = ticket.wait().expect("query answers");
                                queries.push(QueryRec {
                                    version: a.version,
                                    pool: p,
                                    rows: a.table.canonicalized().into_rows(),
                                    cached: a.cached,
                                });
                            }
                            Op::Append { rel, rows } => {
                                let src = &twin_rows[rel];
                                let start =
                                    (ci * 13 + oi * 7) % src.len().saturating_sub(rows).max(1);
                                let batch = src[start..(start + rows).min(src.len())].to_vec();
                                let applied = h
                                    .append(rel_names[rel].clone(), batch.clone())
                                    .wait()
                                    .expect("append applies");
                                writes.push(WriteRec::Append {
                                    version: applied.version,
                                    rel: rel_names[rel].clone(),
                                    rows: batch,
                                });
                            }
                            Op::Refresh => {
                                let applied = h.refresh().wait().expect("refresh applies");
                                writes.push(WriteRec::Refresh {
                                    version: applied.version,
                                });
                            }
                        }
                    }
                    (queries, writes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let stats = server.handle().stats();
    drop(server.shutdown());
    let mut queries = Vec::new();
    let mut writes = Vec::new();
    for (q, w) in per_client {
        queries.extend(q);
        writes.extend(w);
    }
    (queries, writes, stats)
}

/// The cache's counters account for every served query, asked as text or
/// as an expression, and every answer it gave was first computed for the
/// same query in this session. A budgeted warehouse keeps nothing.
fn assert_cache_accounting(queries: &[QueryRec], stats: &ServeStats, budgeted: bool, label: &str) {
    let cache = stats.result_cache;
    let cached = queries.iter().filter(|q| q.cached).count() as u64;
    assert_eq!(cache.hits, cached, "{label}: {cache:?}");
    let probes = if budgeted { 0 } else { queries.len() as u64 };
    assert_eq!(cache.hits + cache.misses, probes, "{label}: {cache:?}");
    for q in queries.iter().filter(|q| q.cached) {
        assert!(
            queries.iter().any(|f| !f.cached && f.pool == q.pool),
            "{label}: pool[{}] answered from the cache before anything filled it",
            q.pool
        );
    }
}

/// Replays the writes in version order on a sequential warehouse,
/// answering every query at its recorded version, and asserts bag
/// equality with the concurrently served answers.
fn replay_and_assert(
    mut reference: Warehouse,
    queries: Vec<QueryRec>,
    mut writes: Vec<WriteRec>,
    label: &str,
) {
    let pool = query_pool();
    writes.sort_by_key(WriteRec::version);
    for (i, w) in writes.iter().enumerate() {
        assert_eq!(
            w.version(),
            i as u64 + 1,
            "{label}: publish versions must be contiguous"
        );
    }
    let mut by_version: BTreeMap<u64, Vec<QueryRec>> = BTreeMap::new();
    for q in queries {
        by_version.entry(q.version).or_default().push(q);
    }
    let max_version = writes.len() as u64;
    let answer_at = |reference: &Warehouse, version: u64, recs: &[QueryRec]| {
        for rec in recs {
            let want = execute(
                &reference.views().rewrite(&pool[rec.pool]),
                reference.database(),
                &reference.exec_context(),
            )
            .expect("replay answers")
            .canonicalized()
            .into_rows();
            assert_eq!(
                rec.rows, want,
                "{label}: query pool[{}] served at version {version} diverges from the \
                 sequential replay",
                rec.pool
            );
        }
    };
    for (version, recs) in &by_version {
        assert!(
            *version <= max_version,
            "{label}: answer tagged with unpublished version {version}"
        );
        assert_eq!(*version, recs.first().expect("non-empty group").version);
    }
    if let Some(recs) = by_version.get(&0) {
        answer_at(&reference, 0, recs);
    }
    for w in &writes {
        match w {
            WriteRec::Append { rel, rows, .. } => reference
                .append(rel.clone(), rows.clone())
                .expect("replay append applies"),
            WriteRec::Refresh { .. } => {
                reference.refresh().expect("replay refresh applies");
            }
        }
        if let Some(recs) = by_version.get(&w.version()) {
            answer_at(&reference, w.version(), recs);
        }
    }
}

fn resident_warehouse(seed: u64) -> Warehouse {
    let (catalog, design) = fixture();
    Warehouse::new(catalog.clone(), base_db(seed), design).expect("warehouse builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole invariant: concurrent serve ≡ sequential replay, resident
    /// and under a memory budget (paged tables, spilling operators,
    /// concurrent eviction), for random clients × ops × interleavings.
    #[test]
    fn concurrent_serve_equals_sequential_replay(
        seed in 0u64..50,
        raw in proptest::collection::vec(
            proptest::collection::vec((0usize..100, 0usize..8), 2..7), 2..5),
    ) {
        let pool = query_pool().len();
        let rels = base_db(seed).len();
        let scripts: Vec<Vec<Op>> = raw
            .iter()
            .map(|ops| ops.iter().map(|&(k, a)| decode(k, a, pool, rels)).collect())
            .collect();

        let (queries, writes, stats) = run_serve(resident_warehouse(seed), &scripts, 3, seed);
        assert_cache_accounting(&queries, &stats, false, "resident");
        replay_and_assert(resident_warehouse(seed), queries, writes, "resident");

        let budgeted = resident_warehouse(seed).with_mem_budget(Some(mem_budget()));
        let (queries, writes, stats) = run_serve(budgeted, &scripts, 3, seed);
        assert_cache_accounting(&queries, &stats, true, "mem-budget");
        replay_and_assert(resident_warehouse(seed), queries, writes, "mem-budget");
    }
}

/// A reader holding a snapshot across a published refresh sees the old,
/// internally consistent state end-to-end: every answer it produces is
/// bit-identical to its pre-refresh answers, and its stored views still
/// match a recompute of their definitions over its own base tables.
#[test]
fn held_snapshot_is_stable_across_published_refresh() {
    let seed = 7;
    let server = Server::start(resident_warehouse(seed), ServeConfig { readers: 2 });
    let h = server.handle();
    let held = h.snapshot();
    assert_eq!(held.version(), 0);

    // Every query is asked twice on each side of the refresh: the second
    // ask may come from the result cache and must not differ.
    let pool = query_pool();
    let ask_twice = |q: &Arc<Expr>| {
        let [first, second] = [(); 2].map(|()| {
            held.query_expr(q)
                .expect("held snapshot answers")
                .canonicalized()
                .into_rows()
        });
        assert_eq!(first, second, "held snapshot's repeated answer differs");
        first
    };
    let before: Vec<Vec<Vec<Value>>> = pool.iter().map(ask_twice).collect();
    let customer_rows = held
        .database()
        .table("Customer")
        .expect("customer exists")
        .len();

    // A write burst: append to every view's input, then refresh — the
    // writer publishes two new snapshots while `held` stays pinned.
    let twin = base_db(seed ^ 0xA99E);
    let batch = twin.table("Customer").expect("twin").rows()[..3].to_vec();
    h.append("Customer", batch).wait().expect("append applies");
    let applied = h.refresh().wait().expect("refresh applies");
    assert_eq!(applied.version, 2);
    assert_eq!(h.snapshot().version(), 2, "publish chain advanced");

    // End-to-end stability of the held snapshot: same answers…
    for (q, want) in pool.iter().zip(&before) {
        assert_eq!(&ask_twice(q), want, "held snapshot changed an answer");
    }
    // …same base tables…
    assert_eq!(
        held.database()
            .table("Customer")
            .expect("customer exists")
            .len(),
        customer_rows,
        "held snapshot saw the append"
    );
    // …and internally consistent views: each stored view still equals a
    // recompute of its definition over the held snapshot's own base data.
    for (name, definition) in held.views().views() {
        let stored = held
            .database()
            .table(name.as_str())
            .expect("view stored")
            .canonicalized();
        let recomputed = execute(definition, held.database(), &ExecContext::default())
            .expect("view recomputes")
            .canonicalized();
        assert_eq!(
            stored.rows(),
            recomputed.rows(),
            "held snapshot view {name} is not internally consistent"
        );
    }

    // The new snapshot, meanwhile, reflects the applied maintenance.
    assert_eq!(
        h.snapshot()
            .database()
            .table("Customer")
            .expect("customer exists")
            .len(),
        customer_rows + 3
    );
    drop(server.shutdown());
}

/// A kept answer outlives every publish that leaves the relations its plan
/// reads alone — it is served at a later version than the one it was
/// computed at — and not the one that changes them.
#[test]
fn a_kept_answer_is_served_across_publishes_that_leave_its_inputs_alone() {
    let seed = 5;
    let server = Server::start(resident_warehouse(seed), ServeConfig { readers: 2 });
    let h = server.handle();
    let (catalog, _) = fixture();
    // Reads `Customer` and nothing else (no view covers it alone).
    let query = parse_query_with("SELECT name FROM Customer WHERE city = 'v0'", catalog)
        .expect("ad hoc SQL parses");
    let oracle = |version: u64| {
        let snapshot = h.snapshot();
        assert_eq!(snapshot.version(), version);
        execute(
            &snapshot.views().rewrite(&query),
            snapshot.database(),
            &ExecContext::default(),
        )
        .expect("oracle executes")
    };
    let twin = base_db(seed ^ 0xA99E);
    let rows = |relation: &str| twin.table(relation).expect("twin").rows()[..2].to_vec();

    let filled = h.query_expr(&query).wait().expect("answers");
    assert!(!filled.cached && filled.version == 0);
    assert_eq!(filled.table.batch(), oracle(0).batch());

    h.append("Part", rows("Part"))
        .wait()
        .expect("append applies");
    let kept = h.query_expr(&query).wait().expect("answers");
    assert!(
        kept.cached,
        "an append to Part leaves the Customer plan's entry valid"
    );
    assert!(
        kept.version > filled.version,
        "served at a later version than it was filled at"
    );
    assert_eq!(kept.table.batch(), oracle(1).batch());

    h.append("Customer", rows("Customer"))
        .wait()
        .expect("append applies");
    let recomputed = h.query_expr(&query).wait().expect("answers");
    assert!(!recomputed.cached && recomputed.version == 2);
    assert_eq!(recomputed.table.batch(), oracle(2).batch());

    let cache = h.stats().result_cache;
    assert!(cache.hits > 0, "{cache:?}");
    assert_eq!((cache.hits, cache.misses, cache.stale), (1, 2, 1));
    drop(server.shutdown());
}

/// Shutdown drains: every query accepted before shutdown is answered, even
/// with a single reader and a deep queue.
#[test]
fn shutdown_drains_every_accepted_query() {
    let server = Server::start(resident_warehouse(11), ServeConfig { readers: 1 });
    let h = server.handle();
    let pool = query_pool();
    let tickets: Vec<_> = (0..64)
        .map(|i| h.query_expr(&pool[i % pool.len()]))
        .collect();
    let warehouse = server.shutdown();
    assert!(!warehouse.is_stale());
    for (i, t) in tickets.into_iter().enumerate() {
        let a = t
            .wait()
            .unwrap_or_else(|e| panic!("query {i} dropped at shutdown: {e}"));
        assert_eq!(a.version, 0);
    }
}

/// Malformed SQL is an error for its asker, never a dead reader: an
/// integer or date literal out of range comes back as a parse error, the
/// one reader goes on answering, and shutdown joins every thread cleanly.
#[test]
fn out_of_range_sql_is_a_parse_error_and_the_server_keeps_serving() {
    let server = Server::start(resident_warehouse(5), ServeConfig { readers: 1 });
    let h = server.handle();
    for sql in [
        "SELECT name FROM Customer WHERE Customer.Cid > 99999999999999999999",
        "SELECT Customer.city, date FROM Order, Customer \
         WHERE date > 1/99999999999999999999/5 AND Order.Cid = Customer.Cid",
        "SELECT Customer.city, date FROM Order, Customer \
         WHERE date > 13/1/96 AND Order.Cid = Customer.Cid",
    ] {
        match h.query(sql).wait() {
            Err(ServeError::Warehouse(WarehouseError::Parse(ParseError::OutOfRange(_)))) => {}
            other => panic!("{sql}: expected an out-of-range parse error, got {other:?}"),
        }
    }
    let answer = h
        .query("SELECT name FROM Customer WHERE city = 'v0'")
        .wait()
        .expect("the reader still answers");
    assert_eq!(answer.version, 0);
    drop(server.shutdown());
}

/// The CI smoke: 64 simulated clients over a mixed query/maintenance load
/// for 500 ms — no assertion on throughput, only that every request
/// completes and the accounting adds up.
#[test]
fn smoke_64_clients_mixed_load() {
    let seed = 3;
    let server = Server::start(resident_warehouse(seed), ServeConfig { readers: 0 });
    let pool = query_pool();
    let twin = base_db(seed ^ 0xA99E);
    let customer: Vec<Vec<Value>> = twin.table("Customer").expect("twin").rows().to_vec();
    let deadline = Instant::now() + Duration::from_millis(500);
    const DRIVERS: usize = 4;
    const SESSIONS_PER_DRIVER: usize = 16;
    let served: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let h = server.handle();
                let customer = &customer;
                s.spawn(move || {
                    let mut answered = 0u64;
                    let mut tick = 0usize;
                    while Instant::now() < deadline {
                        let tickets: Vec<_> = (0..SESSIONS_PER_DRIVER)
                            .map(|session| {
                                tick += 1;
                                let roll = (d * 31 + session * 7 + tick * 13) % 100;
                                if roll < 90 {
                                    Some(h.query_expr(&pool[roll % pool.len()]))
                                } else if roll < 97 {
                                    let at = (tick * 3) % customer.len().saturating_sub(2).max(1);
                                    drop(h.append("Customer", customer[at..at + 2].to_vec()));
                                    None
                                } else {
                                    drop(h.refresh());
                                    None
                                }
                            })
                            .collect();
                        for t in tickets.into_iter().flatten() {
                            t.wait().expect("smoke query answers");
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver")).sum()
    });
    let stats = server.handle().stats();
    let warehouse = server.shutdown();
    assert!(served > 0, "smoke served no queries");
    assert!(stats.queries >= served);
    assert_eq!(
        stats.snapshots_published,
        stats.appends + stats.refreshes,
        "every applied write publishes exactly one snapshot"
    );
    assert_eq!(stats.latency.count, stats.queries);
    assert!(stats.latency.max_us > 0.0);
    // The recovered warehouse still answers every pool query after the
    // concurrent session (a final refresh folds any tail appends).
    let mut warehouse = warehouse;
    warehouse.refresh().expect("final refresh");
    for q in pool {
        warehouse
            .query_expr(q)
            .expect("recovered warehouse answers");
    }
}
