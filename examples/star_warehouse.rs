//! Designing views for a synthetic star-schema warehouse, comparing every
//! selection algorithm — the workload the paper's introduction motivates
//! (consolidated reporting over a fact table with dimension lookups).
//!
//! Run with: `cargo run -p mvdesign --example star_warehouse --release`

use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, ExhaustiveSelection, GenerateConfig, GeneticSelection,
    GreedySelection, MaintenanceMode, MaterializeAll, MaterializeNone, SelectionAlgorithm,
    UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{StarSchema, StarSchemaConfig};

fn main() {
    let config = StarSchemaConfig {
        seed: 2024,
        dimensions: 5,
        fact_records: 5_000_000.0,
        dimension_records: 20_000.0,
        queries: 10,
        max_joins: 3,
        ..StarSchemaConfig::default()
    };
    let scenario = StarSchema::with_config(config).scenario();
    println!("== star-schema warehouse ==");
    println!(
        "  {} relations, {} queries (Zipf frequencies {:.1} … {:.1})\n",
        scenario.catalog.len(),
        scenario.workload.len(),
        scenario
            .workload
            .queries()
            .first()
            .map_or(0.0, |q| q.frequency()),
        scenario
            .workload
            .queries()
            .last()
            .map_or(0.0, |q| q.frequency()),
    );

    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Analytic,
        PaperCostModel::default(),
    );
    let mvpps = generate_mvpps(
        &scenario.workload,
        &est,
        &Planner::new(),
        GenerateConfig::default(),
    );
    println!(
        "generated {} candidate MVPPs; using the best per algorithm\n",
        mvpps.len()
    );

    let annotated: Vec<AnnotatedMvpp> = mvpps
        .into_iter()
        .map(|m| AnnotatedMvpp::annotate(m, &est, UpdateWeighting::Max))
        .collect();

    let algorithms: Vec<Box<dyn SelectionAlgorithm>> = vec![
        Box::new(MaterializeNone),
        Box::new(MaterializeAll),
        Box::new(GreedySelection::new()),
        Box::new(GeneticSelection::default()),
        Box::new(ExhaustiveSelection {
            max_nodes: 14,
            ..ExhaustiveSelection::default()
        }),
    ];

    println!(
        "  {:<24} {:>14} {:>14} {:>14} {:>7}",
        "algorithm", "query proc.", "maintenance", "total", "|M|"
    );
    for algo in &algorithms {
        // Each algorithm gets the best candidate MVPP for itself.
        let mut best: Option<(f64, f64, f64, usize)> = None;
        for a in &annotated {
            let m = algo.select(a, MaintenanceMode::SharedRecompute);
            let cost = evaluate(a, &m, MaintenanceMode::SharedRecompute);
            if best.is_none_or(|(_, _, t, _)| cost.total < t) {
                best = Some((cost.query_processing, cost.maintenance, cost.total, m.len()));
            }
        }
        let (qp, maint, total, size) = best.expect("candidates exist");
        println!(
            "  {:<24} {:>14.0} {:>14.0} {:>14.0} {:>7}",
            algo.name(),
            qp,
            maint,
            total,
            size
        );
    }

    println!("\nreading the table:");
    println!("  materialize-none pays the full join cost on every query;");
    println!("  materialize-all pays to refresh every result on every update;");
    println!("  the MVPP algorithms hit the middle by sharing fact⋈dimension joins.");
}
