//! The distributed extension (paper §4.1): the same running example, but
//! with the member databases at remote sites. A relation's transfer cost —
//! block accesses per block shipped to the warehouse — is one catalog
//! statistic, so the ordinary `Designer` designs the distributed warehouse:
//! the paper's note that distributed cost "should incorporate the costs of
//! data transferring among different sites" made concrete.
//!
//! Run with: `cargo run -p mvdesign --example distributed_warehouse`

use mvdesign::prelude::*;
use mvdesign::workload::paper_example;

fn main() {
    let scenario = paper_example();
    // A sales system (Order/Customer) and a manufacturing system
    // (Product/Division/Part), both 3 block accesses per shipped block away.
    let mut remote = scenario.catalog.clone();
    for rel in ["Order", "Customer", "Product", "Division", "Part"] {
        remote.set_transfer_cost(rel, 3.0).expect("paper relation");
    }

    println!("== distributed warehouse: every relation remote, 3 per shipped block ==\n");
    println!(
        "  {:<8} {:>12} {:>12} {:>12}  materialized",
        "catalog", "query", "maintenance", "total"
    );
    for (label, catalog) in [("central", &scenario.catalog), ("remote", &remote)] {
        let design = Designer::new()
            .design(catalog, &scenario.workload)
            .expect("paper workload designs");
        let views: Vec<String> = design
            .materialized
            .iter()
            .map(|id| {
                let node = design.mvpp.mvpp().node(*id);
                let rels: Vec<String> = node
                    .expr()
                    .base_relations()
                    .into_iter()
                    .map(|r| r.as_str().to_string())
                    .collect();
                format!("{}[{}]", node.label(), rels.join("+"))
            })
            .collect();
        println!(
            "  {:<8} {:>12.0} {:>12.0} {:>12.0}  {{{}}}",
            label,
            design.cost.query_processing,
            design.cost.maintenance,
            design.cost.total,
            views.join(", ")
        );
    }
}
