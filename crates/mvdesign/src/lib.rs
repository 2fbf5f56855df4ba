//! `mvdesign` — materialized view design for data warehouses, reproducing
//! *“A Framework for Designing Materialized Views in Data Warehousing
//! Environment”* (J. Yang, K. Karlapalem, Q. Li; ICDCS 1997).
//!
//! A data warehouse answers a fixed set of analytical queries over base
//! relations that keep changing. Materializing every query's result gives
//! the fastest answers but the highest refresh bill; keeping everything
//! virtual does the opposite. The paper's insight is that queries overlap:
//! merging their plans into one **Multiple View Processing Plan** (MVPP) —
//! a DAG sharing common subexpressions — exposes *intermediate* results
//! (like `Product ⋈ σ(Division)`) whose materialization serves several
//! queries at a fraction of the maintenance cost.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`catalog`] | relation schemas, statistics, selectivities (`mvdesign-catalog`) |
//! | [`algebra`] | SPJ expressions, predicates, SQL parser (`mvdesign-algebra`) |
//! | [`cost`]    | cardinality estimation, block-access cost models (`mvdesign-cost`) |
//! | [`optimizer`] | push-down/pull-up rewrites, join ordering (`mvdesign-optimizer`) |
//! | [`engine`]  | in-memory executor, data generator, I/O simulator (`mvdesign-engine`) |
//! | [`core`]    | MVPP construction, view selection, cost evaluation (`mvdesign-core`) |
//! | [`workload`] | the paper's running example, synthetic star schemas (`mvdesign-workload`) |
//! | [`warehouse`] | an operational runtime: loads, refreshes, view-routed queries |
//!
//! # Quickstart
//!
//! ```
//! use mvdesign::prelude::*;
//!
//! // The paper's running example: Table 1 + queries Q1–Q4.
//! let scenario = mvdesign::workload::paper_example();
//! let design = Designer::new()
//!     .design(&scenario.catalog, &scenario.workload)
//!     .expect("paper workload is valid");
//!
//! // The designer materializes the two shared joins the paper picks
//! // (its tmp2 = Product⋈σDivision and tmp4 = σOrder⋈Customer).
//! assert_eq!(design.materialized.len(), 2);
//! println!("total cost: {}", design.cost.total);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod result_cache;
pub mod warehouse;

pub use mvdesign_algebra as algebra;
pub use mvdesign_catalog as catalog;
pub use mvdesign_core as core;
pub use mvdesign_cost as cost;
pub use mvdesign_engine as engine;
pub use mvdesign_optimizer as optimizer;
pub use mvdesign_workload as workload;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use mvdesign_algebra::{
        parse_query, parse_query_with, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Query,
    };
    pub use mvdesign_catalog::{AttrType, Catalog, RelationStats};
    pub use mvdesign_core::{
        evaluate, generate_mvpps, AnnotatedMvpp, CostBreakdown, Designer, DesignerConfig,
        ExhaustiveSelection, GreedySelection, MaintenanceMode, MaterializeAll, MaterializeNone,
        Mvpp, NodeId, SelectionAlgorithm, UpdateWeighting, Workload,
    };
    pub use mvdesign_cost::{CostEstimator, CostModel, EstimationMode, PaperCostModel};
    pub use mvdesign_engine::{execute, measure, Database, ExecContext, Generator, Table};
    pub use mvdesign_optimizer::Planner;
}
