//! A refresh pass that fails part-way leaves the warehouse as it found it.
//!
//! `Warehouse::refresh` folds each stale view's share of the appends since
//! the last pass into the stored view. If a pass committed the views it had
//! finished before a later one failed, the retry would split the same
//! appends again, read an already folded view as the old state and add them
//! a second time. This binary fails the operator spill of a budgeted
//! warehouse's refresh by pointing `MVDESIGN_SPILL_DIR` below a regular
//! file, and checks that the failed pass changed no stored view, staleness
//! or relation version, and that once the fault clears the retry lands on a
//! fresh rebuild. A second failing pass rebuilds the views over Lineitem,
//! which share π(Lineitem) as a transient (sharing Lineitem's pages): it
//! must leave the pool's pages and the database's relations as they were. The spill directory is read
//! from the environment, which is process-wide: this binary holds one test.

use std::collections::BTreeSet;
use std::path::Path;

use mvdesign::algebra::Expr;
use mvdesign::engine::{Database, ExecError, Generator, GeneratorConfig};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{RefreshPolicy, Warehouse, WarehouseError};
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
fn failed_refresh_commits_nothing_and_its_retry_folds_once() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    // 256 bytes: the pool spills its pages while the warehouse is built and
    // every keyed operator of the refresh spills to a new file.
    let mut warehouse = Warehouse::new(scenario.catalog.clone(), data(3), &design)
        .expect("warehouse builds")
        .with_mem_budget(Some(256));
    let appended = data(3 ^ 0xFA11).table("Part").expect("Part").rows()[..200].to_vec();
    let mut grown = data(3);
    grown
        .table_mut("Part")
        .expect("Part")
        .extend_rows(appended.clone());
    warehouse.append("Part", appended).expect("append is valid");

    let stored = |w: &Warehouse| -> Vec<_> {
        w.views()
            .views()
            .iter()
            .map(|(name, _)| {
                let table = w.database().table(name.as_str()).expect("view");
                (name.clone(), table.rows().to_vec())
            })
            .collect()
    };
    let views_before = stored(&warehouse);
    let stale_before: Vec<_> = warehouse.stale_views().cloned().collect();
    let versions_before = warehouse.versions().clone();
    assert!(
        !stale_before.is_empty(),
        "the Part append makes views stale"
    );

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let blocker = scratch.join("refresh_failure_blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    std::env::set_var("MVDESIGN_SPILL_DIR", blocker.join("spill"));
    let failed = warehouse.refresh();
    assert!(
        matches!(failed, Err(WarehouseError::Exec(ExecError::Spill(_)))),
        "operator spill must fail the pass: {failed:?}"
    );
    for ((name, before), (_, after)) in views_before.iter().zip(stored(&warehouse)) {
        assert!(
            *before == after,
            "the failed pass changed {name}: {} rows, then {}",
            before.len(),
            after.len()
        );
    }
    let stale_after: Vec<_> = warehouse.stale_views().cloned().collect();
    assert_eq!(stale_after, stale_before);
    assert_eq!(warehouse.versions(), &versions_before);

    let spill_dir = scratch.join("refresh_failure_spill");
    std::env::set_var("MVDESIGN_SPILL_DIR", &spill_dir);
    warehouse
        .refresh()
        .expect("the retry succeeds once the fault clears");
    assert!(!warehouse.is_stale());
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
    // A failing pass that had computed a transient drops it: the pool holds
    // the pages it held before, and no transient is among the relations.
    warehouse.set_refresh_policy(RefreshPolicy::Recompute);
    let lineitem = data(3 ^ 0xFA11).table("Lineitem").expect("Lineitem").rows()[..200].to_vec();
    warehouse
        .append("Lineitem", lineitem)
        .expect("append is valid");
    let pool = warehouse.buffer_pool().expect("budgeted").clone();
    // A warehouse stores its base relations and its views, nothing else.
    let names =
        |w: &Warehouse| -> BTreeSet<_> { w.database().iter().map(|(n, _)| n.clone()).collect() };
    let relations: BTreeSet<_> = (data(3).iter().map(|(n, _)| n.clone()))
        .chain(warehouse.views().views().iter().map(|(n, _)| n.clone()))
        .collect();
    let (pages_before, views_before) = (pool.stats().pages, stored(&warehouse));
    std::env::set_var("MVDESIGN_SPILL_DIR", blocker.join("spill"));
    let failed = warehouse.refresh();
    assert!(
        matches!(failed, Err(WarehouseError::Exec(ExecError::Spill(_)))),
        "operator spill must fail the pass: {failed:?}"
    );
    assert_eq!(
        pool.stats().pages,
        pages_before,
        "a transient outlived its pass"
    );
    assert_eq!(names(&warehouse), relations, "a transient was committed");
    assert!(
        stored(&warehouse) == views_before,
        "the failed pass changed a view"
    );
    std::env::set_var("MVDESIGN_SPILL_DIR", &spill_dir);
    let report = warehouse
        .refresh()
        .expect("the retry succeeds once the fault clears");
    assert!(
        report.transients > 0,
        "the pass shares π(Lineitem): {report:?}"
    );
    assert_eq!(names(&warehouse), relations, "a transient was committed");
}
