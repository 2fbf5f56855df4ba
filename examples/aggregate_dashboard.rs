//! An aggregation-heavy "dashboard" workload — the paper's future-work
//! territory (GROUP BY queries), plus two extensions working together:
//! incremental view maintenance and answering queries from the stored views.
//!
//! Run with: `cargo run -p mvdesign --example aggregate_dashboard`

use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, GenerateConfig, GeneticSelection, GreedySelection,
    MaintenanceMode, MaintenancePolicy, SelectionAlgorithm, UpdateWeighting, ViewCatalog, Workload,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, materialize_view, Generator, GeneratorConfig};
use mvdesign::optimizer::Planner;
use mvdesign::prelude::*;
use mvdesign::warehouse::Warehouse;

fn main() {
    // A sales mart: one fact table, two dimensions, dashboards that all
    // group over the same joins.
    let mut catalog = Catalog::new();
    catalog
        .relation("Sales")
        .attr("store", AttrType::Int)
        .attr("product", AttrType::Int)
        .attr("amount", AttrType::Int)
        .attr("day", AttrType::Date)
        .records(1_000_000.0)
        .blocks(100_000.0)
        .update_frequency(24.0) // hourly loads
        .selectivity("day", 0.25)
        .finish()
        .expect("valid relation");
    catalog
        .relation("Stores")
        .attr("store", AttrType::Int)
        .attr("city", AttrType::Text)
        .records(500.0)
        .blocks(50.0)
        .update_frequency(0.1)
        .selectivity("city", 0.05)
        .finish()
        .expect("valid relation");
    catalog
        .relation("Products")
        .attr("product", AttrType::Int)
        .attr("category", AttrType::Text)
        .records(20_000.0)
        .blocks(2_000.0)
        .update_frequency(0.1)
        .selectivity("category", 0.02)
        .finish()
        .expect("valid relation");
    catalog
        .set_join_selectivity(
            AttrRef::new("Sales", "store"),
            AttrRef::new("Stores", "store"),
            1.0 / 500.0,
        )
        .expect("valid join");
    catalog
        .set_join_selectivity(
            AttrRef::new("Sales", "product"),
            AttrRef::new("Products", "product"),
            1.0 / 20_000.0,
        )
        .expect("valid join");

    let q = |name: &str, fq: f64, sql: &str| {
        Query::new(name, fq, parse_query_with(sql, &catalog).expect("parses"))
    };
    let workload = Workload::new([
        q(
            "revenue_by_city",
            500.0,
            "SELECT city, SUM(amount) AS revenue FROM Sales, Stores \
             WHERE Sales.store = Stores.store GROUP BY Stores.city",
        ),
        q(
            "orders_by_city",
            200.0,
            "SELECT city, COUNT(*) AS orders FROM Sales, Stores \
             WHERE Sales.store = Stores.store GROUP BY Stores.city",
        ),
        q(
            "revenue_by_category",
            100.0,
            "SELECT category, SUM(amount) AS revenue FROM Sales, Products \
             WHERE Sales.product = Products.product GROUP BY Products.category",
        ),
        q(
            "big_ticket",
            20.0,
            "SELECT city, MAX(amount) AS biggest FROM Sales, Stores \
             WHERE Sales.store = Stores.store AND amount > 100 GROUP BY Stores.city",
        ),
    ])
    .expect("non-empty workload");

    println!("== aggregation dashboard: 4 GROUP BY queries, hourly fact loads ==\n");

    let est = CostEstimator::new(
        &catalog,
        EstimationMode::Analytic,
        PaperCostModel::default(),
    );
    let mvpp = generate_mvpps(&workload, &est, &Planner::new(), GenerateConfig::default())
        .into_iter()
        .next()
        .expect("candidates exist");

    // The maintenance policy decides what is worth materializing: with full
    // recomputation, refreshing an aggregate view means re-running the join;
    // with delta propagation it costs a fraction.
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>5}",
        "policy / algorithm", "query proc.", "maintenance", "total", "|M|"
    );
    for (label, policy) in [
        ("recompute, greedy", MaintenancePolicy::Recompute),
        (
            "incremental 5%, greedy",
            MaintenancePolicy::Incremental {
                update_fraction: 0.05,
            },
        ),
    ] {
        let a = AnnotatedMvpp::annotate_with(mvpp.clone(), &est, UpdateWeighting::Max, policy);
        let (m, _) = GreedySelection::new().run(&a);
        let c = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
        println!(
            "{label:<26} {:>14.0} {:>14.0} {:>14.0} {:>5}",
            c.query_processing,
            c.maintenance,
            c.total,
            m.len()
        );
    }
    let a = AnnotatedMvpp::annotate_with(
        mvpp.clone(),
        &est,
        UpdateWeighting::Max,
        MaintenancePolicy::Incremental {
            update_fraction: 0.05,
        },
    );
    let ga = GeneticSelection::default();
    let m = ga.select(&a, MaintenanceMode::SharedRecompute);
    let c = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
    println!(
        "{:<26} {:>14.0} {:>14.0} {:>14.0} {:>5}",
        "incremental 5%, genetic",
        c.query_processing,
        c.maintenance,
        c.total,
        m.len()
    );

    // Materialize the genetic design's views over generated data and answer
    // a dashboard query straight from a view.
    println!("\nmaterializing {} views over generated data…", m.len());
    let base = Generator::with_config(GeneratorConfig {
        seed: 99,
        scale: 0.002,
        max_rows: 1_500,
    })
    .database(&catalog);
    let mut db = base.clone();
    let mut views = ViewCatalog::new();
    for id in &m {
        let node = a.mvpp().node(*id);
        views.register(node.label(), std::sync::Arc::clone(node.expr()));
        println!("  {} = {}", node.label(), node.expr());
        materialize_view(node.label(), node.expr(), &mut db, &ExecContext::default())
            .expect("view materializes");
    }

    // Raw SQL, as a dashboard would send it: the registry says which views
    // answered each query, how it compensated, and why the others did not.
    for sql in [
        "SELECT city, SUM(amount) AS revenue FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        "SELECT city, MAX(amount) AS biggest FROM Sales, Stores \
         WHERE Sales.store = Stores.store AND amount > 500 GROUP BY Stores.city",
    ] {
        let query = parse_query_with(sql, &catalog).expect("parses");
        let routed = views.route(&query);
        println!("\n{sql}\n  runs as {}", routed.plan);
        for decision in &routed.decisions {
            println!("  {decision}");
        }
        let answer =
            execute(&routed.plan, &db, &ExecContext::default()).expect("dashboard answers");
        for row in answer.canonicalized().rows().iter().take(3) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("    {}", cells.join(" | "));
        }
    }

    // A period of dashboard traffic through a warehouse: each query arrives
    // in proportion to its frequency over data that does not change, so it
    // is computed once and then answered from the result cache.
    let design = Designer::new()
        .design(&catalog, &workload)
        .expect("dashboard workload designs");
    let warehouse = Warehouse::new(catalog, base, &design).expect("views materialize");
    for query in workload.queries() {
        for _ in 0..(query.frequency() / 10.0) as usize {
            warehouse
                .query_expr(query.root())
                .expect("dashboard answers");
        }
    }
    println!("\none period of dashboard traffic, asked through the warehouse:");
    println!("{}", warehouse.result_cache_stats());
}
