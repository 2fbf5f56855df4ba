//! The ultimate end-to-end validation: simulate operating periods on the
//! execution engine and compare strategies by *observed* block I/O. The
//! paper's claim — the MVPP design beats both extremes — must hold on
//! measured numbers, not just on the estimator's.

use std::sync::Arc;

use mvdesign::core::ViewCatalog;
use mvdesign::engine::{ExecContext, Generator, GeneratorConfig};
use mvdesign::prelude::Designer;
use mvdesign::warehouse::{measured_design_cost, measured_period_cost, MeasuredPeriod};
use mvdesign::workload::paper_example;

fn strategies() -> (MeasuredPeriod, MeasuredPeriod, MeasuredPeriod) {
    let scenario = paper_example();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    let db = Generator::with_config(GeneratorConfig {
        seed: 4242,
        scale: 0.004,
        max_rows: 400,
    })
    .database(&scenario.catalog);

    // Nothing materialized: queries recompute from base tables.
    let none = measured_period_cost(&scenario.workload, &ViewCatalog::new(), &db, 10.0)
        .expect("no-view period runs");

    // The designer's choice.
    let designed = measured_design_cost(&design, &db, 10.0).expect("design period runs");

    // Materialize every (merged) query result.
    let mut all_views = ViewCatalog::new();
    for (name, _, root) in design.mvpp.mvpp().roots() {
        all_views.register(
            format!("q_{name}"),
            Arc::clone(design.mvpp.mvpp().node(*root).expr()),
        );
    }
    // Measure against the merged plans so every root hits its stored copy.
    let mut query_io = 0.0;
    let mut working = db.clone();
    let mut maintenance_io = 0.0;
    for (vname, definition) in all_views.views() {
        let (result, io) =
            mvdesign::engine::measure(definition, &working, 10.0, &ExecContext::default())
                .expect("view computes");
        maintenance_io += io.total();
        working.insert_table(mvdesign::engine::Table::new(
            vname.clone(),
            result.attrs().to_vec(),
            result.into_rows(),
        ));
    }
    for (_, fq, root) in design.mvpp.mvpp().roots() {
        let merged = design.mvpp.mvpp().node(*root).expr();
        let routed = all_views.rewrite(merged);
        let (_, io) = mvdesign::engine::measure(&routed, &working, 10.0, &ExecContext::default())
            .expect("query runs");
        query_io += fq * io.total();
    }
    let all = MeasuredPeriod {
        query_io,
        maintenance_io,
        total_io: query_io + maintenance_io,
    };
    (none, designed, all)
}

#[test]
fn measured_io_confirms_the_design_beats_no_materialization() {
    let (none, designed, _) = strategies();
    assert!(
        designed.total_io < none.total_io,
        "design {} ≥ none {}",
        designed.total_io,
        none.total_io
    );
    // And by a wide margin: the estimator predicted ≈5×; allow ≥2× measured.
    assert!(
        none.total_io / designed.total_io > 2.0,
        "ratio {:.2}",
        none.total_io / designed.total_io
    );
}

#[test]
fn measured_io_splits_between_queries_and_maintenance_sensibly() {
    let (none, designed, all) = strategies();
    // No views: zero maintenance, all cost in queries.
    assert_eq!(none.maintenance_io, 0.0);
    assert!(none.query_io > 0.0);
    // The design trades query I/O for maintenance I/O.
    assert!(designed.maintenance_io > 0.0);
    assert!(designed.query_io < none.query_io);
    // Materialize-all has the cheapest queries of the three.
    assert!(all.query_io <= designed.query_io);
    assert!(all.query_io < none.query_io);
}

#[test]
fn measured_ordering_matches_estimated_ordering() {
    // The estimator said: design < all-queries < none (on the paper
    // example). Measured I/O on generated data must preserve that ordering.
    let (none, designed, all) = strategies();
    assert!(
        designed.total_io <= all.total_io * 1.05,
        "design {} vs all {}",
        designed.total_io,
        all.total_io
    );
    assert!(
        all.total_io < none.total_io,
        "all {} vs none {}",
        all.total_io,
        none.total_io
    );
}

/// The benchmark's `period_io_blocks`, pinned where tier-1 sees it first:
/// the greedy TPC-H-lite design measured on the benchmark's quality data
/// (seed 0x5eed, 0.4 % of scale factor 1). `measure` charges by row counts
/// alone, so nothing the engine does to *columns* — pruning the ones a
/// plan's consumer never reads, say — may move it. Tier-1 runs it with
/// the optimiser on as well, the build the benchmark measures.
#[test]
fn measured_cost_of_the_greedy_tpch_lite_design_is_pinned() {
    let scenario = mvdesign::workload::tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("designs");
    let db = Generator::with_config(GeneratorConfig {
        seed: 0x5eed,
        scale: 0.004,
        max_rows: usize::MAX,
    })
    .database(&scenario.catalog);
    let measured = measured_design_cost(&design, &db, 10.0).expect("design period runs");
    assert_eq!(measured.total_io, 1_837_975.0);
}
