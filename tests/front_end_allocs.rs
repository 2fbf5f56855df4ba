//! Allocation ceilings for the SQL front end: parsing a TPC-H-lite class,
//! routing it through the designed views, and asking a warehouse the same
//! text again must not allocate more than the counts recorded here. The
//! third count is what a repeated text costs once its statement and answer
//! are kept: no parse and no routing, so far below the first two. One
//! sequential `Designer::design` call of each scenario the design benchmark
//! times has a ceiling here too.
//!
//! A counting global allocator counts heap allocations on the calling
//! thread only (a `const` thread-local `Cell`), so the test threads the
//! harness runs in parallel do not disturb each other's counts. Unlike a
//! timing, a count is deterministic: a change that makes the front end
//! allocate per name again fails here, on any host.
//!
//! Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mvdesign::algebra::parse_query_with;
use mvdesign::core::{Designer, DesignerConfig, ViewCatalog};
use mvdesign::engine::{Generator, GeneratorConfig};
use mvdesign::warehouse::Warehouse;
use mvdesign::workload::{paper_example, tpch_lite, Scenario, StarSchema, StarSchemaConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread; what it returns is dropped
/// after the count is taken.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let count = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    count
}

/// Each class's text as clients send it, with the most its parse, its
/// `rewrite` and a warm repeated `Warehouse::query` may allocate. Recorded
/// from this code; the parser that copied every name and the router that
/// re-classified every subtree took 46/44/99/120/76/95 and
/// 32/24/64/97/40/62, and a repeated `query` parsed and routed every time.
const CLASSES: [(&str, &str, u64, u64, u64); 6] = [
    (
        "recent_shipments",
        "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE shipdate > 6/1/95",
        10,
        17,
        0,
    ),
    (
        "orders_by_priority",
        "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
        12,
        10,
        0,
    ),
    (
        "revenue_by_segment",
        "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
         WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.segment",
        20,
        17,
        0,
    ),
    (
        "revenue_by_nation",
        "SELECT Nation.name, SUM(price) AS revenue FROM Nation, Customer, Orders, Lineitem \
         WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
         GROUP BY Nation.name",
        24,
        26,
        0,
    ),
    (
        "volume_by_brand",
        "SELECT brand, SUM(qty) AS volume FROM Part, Lineitem \
         WHERE Lineitem.pk = Part.pk GROUP BY Part.brand",
        16,
        13,
        0,
    ),
    (
        "supplier_nation_activity",
        "SELECT Nation.name, COUNT(*) AS shipments FROM Supplier, Nation, Lineitem \
         WHERE Supplier.nk = Nation.nk AND Lineitem.sk = Supplier.sk GROUP BY Nation.name",
        20,
        14,
        0,
    ),
];

#[test]
fn parse_and_rewrite_stay_under_their_allocation_ceilings() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch_lite designs");
    let views = ViewCatalog::from_design(&design);
    let db = Generator::with_config(GeneratorConfig {
        seed: 1,
        scale: 0.0002,
        max_rows: 300,
    })
    .database(&scenario.catalog);
    let warehouse = Warehouse::new(scenario.catalog.clone(), db, &design).expect("views build");
    let mut over = Vec::new();
    for (name, sql, parse_ceiling, rewrite_ceiling, repeat_ceiling) in CLASSES {
        // One uncounted round first: anything initialised once per process
        // is not a per-query cost, and the first `query` keeps the text's
        // statement and answer.
        let query = parse_query_with(sql, &scenario.catalog).expect("class SQL parses");
        drop(views.rewrite(&query));
        warehouse.query(sql).expect("class SQL answers");
        let parse = allocations(|| parse_query_with(sql, &scenario.catalog));
        let rewrite = allocations(|| views.rewrite(&query));
        let repeat = allocations(|| warehouse.query(sql));
        println!(
            "front-end allocs {name:<25} parse {parse:>4} (ceiling {parse_ceiling:>4})  \
             rewrite {rewrite:>4} (ceiling {rewrite_ceiling:>4})  \
             repeat {repeat:>4} (ceiling {repeat_ceiling:>4})"
        );
        if parse > parse_ceiling || rewrite > rewrite_ceiling || repeat > repeat_ceiling {
            over.push(format!(
                "{name}: parse {parse} > {parse_ceiling}, rewrite {rewrite} > {rewrite_ceiling} \
                 or repeat {repeat} > {repeat_ceiling}"
            ));
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}

/// The most one `Designer::design` call at `parallelism: 1` may allocate,
/// per scenario. Recorded from this code; when every candidate MVPP
/// interned its plans into an arena of its own and each class stored its
/// postorder, the same calls took 3 924, 9 419 and 45 464.
const DESIGNS: [(&str, u64); 3] = [
    ("paper", 2_785),
    ("tpch-lite", 5_569),
    ("star-6x40", 31_763),
];

#[test]
fn design_calls_stay_under_their_allocation_ceilings() {
    let star = StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions: 6,
        queries: 40,
        ..StarSchemaConfig::default()
    })
    .scenario();
    let scenarios: [Scenario; 3] = [paper_example(), tpch_lite(), star];
    let designer = Designer::with_config(DesignerConfig {
        parallelism: 1,
        ..Default::default()
    });
    let mut over = Vec::new();
    for ((name, ceiling), scenario) in DESIGNS.into_iter().zip(&scenarios) {
        let design = || {
            designer
                .design(&scenario.catalog, &scenario.workload)
                .expect("scenario designs")
        };
        // One uncounted call first, as for the front end above.
        drop(design());
        let count = allocations(design);
        println!("design allocs {name:<10} {count:>6} (ceiling {ceiling:>6})");
        if count > ceiling {
            over.push(format!("{name}: {count} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
