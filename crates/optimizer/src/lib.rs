//! Single-query optimization for SPJ plans.
//!
//! The MVPP generation algorithm (paper §4.2, Figure 4) starts from an
//! *individual optimal plan* per query, temporarily pulls the select/project
//! operations above the joins while merging, and pushes them back down
//! afterwards. This crate supplies all three pieces:
//!
//! * [`pull_up`] — rewrite a plan so selections and the final projection sit
//!   above a pure join tree (Figure 4, step 2);
//! * [`push_selections`] / [`push_projections`] — the classic heuristic
//!   push-down rewrites (Figure 4, steps 5–6 use the same machinery with
//!   disjunction/union merging, implemented in `mvdesign-core`);
//! * [`Planner`] — cost-based join-order enumeration by one
//!   [`JoinGraph::order`] (dynamic programming over connected subsets, a
//!   cross product only between components; greedy beyond a size
//!   threshold), producing the "optimal query processing plan" (Figure 4,
//!   step 1).
//!
//! # Example
//!
//! ```
//! use mvdesign_algebra::parse_query;
//! use mvdesign_catalog::{AttrType, Catalog};
//! use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
//! use mvdesign_optimizer::Planner;
//!
//! let mut catalog = Catalog::new();
//! catalog.relation("Div")
//!     .attr("Did", AttrType::Int).attr("city", AttrType::Text)
//!     .records(5_000.0).blocks(500.0).selectivity("city", 0.02)
//!     .finish()?;
//! catalog.relation("Pd")
//!     .attr("Pid", AttrType::Int).attr("name", AttrType::Text).attr("Did", AttrType::Int)
//!     .records(30_000.0).blocks(3_000.0)
//!     .finish()?;
//! let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
//! let naive = parse_query(
//!     "SELECT Pd.name FROM Pd, Div WHERE Div.city = 'LA' AND Pd.Did = Div.Did",
//! ).unwrap();
//! let optimal = Planner::new().optimize(&naive, &est);
//! assert!(est.tree_cost(&optimal) <= est.tree_cost(&naive));
//! # Ok::<(), mvdesign_catalog::CatalogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod joinorder;
mod planner;
mod pulled;
mod pushdown;

pub use crate::joinorder::JoinGraph;
pub use crate::planner::{Planner, PlannerConfig};
pub use crate::pulled::{pull_up, PulledPlan};
pub use crate::pushdown::{push_projections, push_selections};
