//! A spill failure inside the buffer pool does not end the warehouse.
//!
//! The pool evicts under its lock, and an eviction that cannot create or
//! write the spill file panics there. The lock is then poisoned; if every
//! later pin panicked on that, one bad spill directory would take every
//! reader down with it. The pool recovers the lock instead — each panic
//! point leaves its frames consistent — so once the fault clears the next
//! query answers and a retried refresh lands where a fresh build does.
//!
//! The budget is sized so that nothing is evicted before the refresh: the
//! pool has no spill file yet when the refresh's new view pages push it
//! over budget, with `MVDESIGN_SPILL_DIR` pointing below a regular file.
//! Operator state stays far below half the budget, so no operator spills
//! and the failure is the pool's. The spill directory is read from the
//! environment, which is process-wide: this binary holds one test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use mvdesign::algebra::Expr;
use mvdesign::engine::{Database, Generator, GeneratorConfig};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::Warehouse;
use mvdesign::workload::tpch_lite;

fn data(seed: u64) -> Database {
    let catalog = tpch_lite().catalog;
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 0.004,
        max_rows: 400,
    })
    .database(&catalog)
}

#[test]
fn a_spill_failure_in_the_pool_poisons_nothing_and_the_retry_rebuilds() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    let appended = data(7 ^ 0xFA11).table("Part").expect("Part").rows()[..200].to_vec();
    let build = |budget: usize| {
        let mut warehouse = Warehouse::new(scenario.catalog.clone(), data(7), &design)
            .expect("warehouse builds")
            .with_mem_budget(Some(budget));
        warehouse
            .append("Part", appended.clone())
            .expect("append is valid");
        warehouse
    };
    // What the appended warehouse holds resident, measured without a limit:
    // a budget of one byte more evicts nothing until the refresh writes.
    let held = build(usize::MAX / 2)
        .buffer_pool()
        .expect("budgeted")
        .stats()
        .resident_bytes;
    assert!(held >= 24 * 1024, "{held} B: operators would spill first");
    let mut warehouse = build(held + 1);
    let pool = warehouse.buffer_pool().expect("budgeted").stats();
    assert_eq!(pool.evictions, 0, "nothing spilled before the refresh");

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let blocker = scratch.join("pool_poison_blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    std::env::set_var("MVDESIGN_SPILL_DIR", blocker.join("spill"));
    let failed = catch_unwind(AssertUnwindSafe(|| warehouse.refresh()));
    assert!(failed.is_err(), "the pool's spill must fail the refresh");
    assert!(warehouse.is_stale(), "the failed refresh committed nothing");

    std::env::set_var("MVDESIGN_SPILL_DIR", scratch.join("pool_poison_spill"));
    for q in scenario.workload.queries() {
        warehouse
            .query_expr(q.root())
            .expect("the next query answers");
    }
    warehouse
        .refresh()
        .expect("the retry succeeds once the fault clears");
    assert!(!warehouse.is_stale());
    let mut grown = data(7);
    grown.table_mut("Part").expect("Part").extend_rows(appended);
    let reference =
        Warehouse::new(scenario.catalog, grown, &design).expect("reference warehouse builds");
    for (name, definition) in warehouse.views().views() {
        let got = warehouse.database().table(name.as_str()).expect("view");
        let want = reference.database().table(name.as_str()).expect("view");
        // A folded γ-view is its recomputation row for row; an SPJ fold
        // appends, so it is compared as a bag.
        if matches!(**definition, Expr::Aggregate { .. }) {
            assert_eq!(got.rows(), want.rows(), "{name} differs from a rebuild");
        } else {
            assert_eq!(
                got.canonicalized().rows(),
                want.canonicalized().rows(),
                "{name} differs from a rebuild"
            );
        }
    }
}
