//! Materialized view design via Multiple View Processing Plans (MVPPs).
//!
//! This crate implements the contribution of *“A Framework for Designing
//! Materialized Views in Data Warehousing Environment”* (Yang, Karlapalem &
//! Li, ICDCS 1997): given a set of warehouse queries with access frequencies
//! and base relations with update frequencies, decide **which intermediate
//! results to materialize** so the combined cost of query processing and
//! view maintenance is minimal.
//!
//! The pipeline mirrors the paper:
//!
//! 1. [`Workload`] — queries `q₁…qₖ` with frequencies `fq`, over a catalog
//!    whose relations carry update frequencies `fu`;
//! 2. [`generate_mvpps`] — the paper's Figure 4: merge individually-optimal
//!    plans on common subexpressions, once per rotation of the merge order,
//!    yielding `k` candidate [`Mvpp`] DAGs;
//! 3. [`AnnotatedMvpp`] — per-node statistics, access cost `Ca(v)`,
//!    maintenance cost `Cm(v)`, query/update weights and the node weight
//!    `w(v)`;
//! 4. [`GreedySelection`] — the paper's Figure 9 heuristic (with a full
//!    decision [trace](SelectionTrace)), alongside baselines
//!    ([`ExhaustiveSelection`], [`MaterializeAll`], [`MaterializeNone`]) and
//!    a genetic search ([`GeneticSelection`]);
//! 5. [`evaluate`] — total-cost evaluation of any materialization choice;
//! 6. [`Designer`] — the end-to-end loop: generate candidates, select views
//!    in each, keep the cheapest design.
//!
//! # Example
//!
//! ```
//! use mvdesign_core::{Designer, Workload};
//! use mvdesign_algebra::{parse_query_with, Query};
//! use mvdesign_catalog::{AttrType, Catalog};
//!
//! let mut catalog = Catalog::new();
//! catalog.relation("Div")
//!     .attr("Did", AttrType::Int).attr("city", AttrType::Text)
//!     .records(5_000.0).blocks(500.0)
//!     .update_frequency(1.0).selectivity("city", 0.02)
//!     .finish()?;
//! catalog.relation("Pd")
//!     .attr("Pid", AttrType::Int).attr("name", AttrType::Text).attr("Did", AttrType::Int)
//!     .records(30_000.0).blocks(3_000.0).update_frequency(1.0)
//!     .finish()?;
//! let q1 = parse_query_with(
//!     "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did", &catalog,
//! ).unwrap();
//! let workload = Workload::new([Query::new("Q1", 10.0, q1)]).unwrap();
//! let design = Designer::new().design(&catalog, &workload).unwrap();
//! assert!(design.cost.total.is_finite());
//! # Ok::<(), mvdesign_catalog::CatalogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotate;
mod audit;
mod designer;
mod evaluate;
mod generate;
mod greedy;
mod incremental;
mod mvpp;
mod nodeset;
mod parallel;
mod report;
mod rewrite;
mod search;
mod workload;

pub use crate::annotate::{
    AnnotatedMvpp, MaintenancePolicy, NodeAnnotation, UpdateWeighting, DEFAULT_DELTA_FRACTION,
};
pub use crate::audit::{
    audit_annotated, check_arena, check_cost_paths, check_greedy_trace, check_query_rewrite,
    greedy_no_prune, reference_greedy, validate_mvpp, validate_schemas, AuditReport,
    AuditViolation,
};
pub use crate::designer::{DesignError, DesignResult, Designer, DesignerConfig};
pub use crate::evaluate::{
    break_even_update_weight, evaluate, evaluate_set, mqp_batch_cost, query_cost, query_cost_set,
    CostBreakdown, MaintenanceMode,
};
pub use crate::generate::{generate_mvpps, merge_queries, GenerateConfig};
pub use crate::greedy::{GreedySelection, SelectionTrace, TraceStep, TraceVerdict};
pub use crate::incremental::IncrementalEvaluator;
pub use crate::mvpp::{Mvpp, MvppBuilder, MvppNode, NodeId};
pub use crate::nodeset::NodeSet;
pub use crate::report::{render_design, render_trace};
pub use crate::rewrite::{Decision, MissReason, Routed, ViewCatalog};
pub use crate::search::{
    ExhaustiveSelection, GeneticSelection, MaterializeAll, MaterializeNone, SelectionAlgorithm,
};
pub use crate::workload::{Workload, WorkloadError};
