//! End-to-end test of the answering-queries-using-views loop: design →
//! materialize the chosen views as tables → rewrite queries against them →
//! identical answers at lower measured I/O.

use mvdesign::core::ViewCatalog;
use mvdesign::engine::{
    execute, materialize_view, measure, ExecContext, Generator, GeneratorConfig,
};
use mvdesign::prelude::Designer;
use mvdesign::workload::paper_example;

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
