//! Cardinality estimation and block-access cost models.
//!
//! The paper costs every operator in *block accesses* against a simple
//! storage model: selections are linear scans, joins are nested loops, and
//! materialized views are read by scanning their blocks. This crate provides:
//!
//! * [`CostModel`] — the operator-cost interface, with the paper's model
//!   ([`PaperCostModel`]), the engine's measured charges
//!   ([`MeasureCostModel`], which refresh plans are chosen by), plus
//!   buffered nested-loop and sort-merge alternatives for ablation studies;
//! * [`CardinalityEstimator`] — derives [`RelationStats`] for every
//!   subexpression, either purely from selectivities
//!   ([`EstimationMode::Analytic`]) or honouring the catalog's stated
//!   joint sizes the way the paper's Table 1 does
//!   ([`EstimationMode::Calibrated`]);
//! * [`CostEstimator`] — combines both to give per-operator and whole-tree
//!   costs (`Ca(v)` in the paper's notation).
//!
//! Estimates are memoised per *semantic-equivalence class*: the estimator
//! interns every expression into an
//! [`ExprArena`](mvdesign_algebra::ExprArena) and keeps one dense
//! `Vec<Option<RelationStats>>` indexed by
//! [`ExprId`](mvdesign_algebra::ExprId). (Earlier revisions layered a
//! thread-local pointer map over string-keyed hash buckets; the arena
//! replaces both.) The cache sits behind a mutex, so a single estimator is
//! `Sync` and can be shared by reference across search worker threads — all
//! of them warm, and profit from, the same cache.
//!
//! # Example
//!
//! ```
//! use mvdesign_algebra::{Expr, Predicate, CompareOp, AttrRef};
//! use mvdesign_catalog::{AttrType, Catalog};
//! use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
//!
//! let mut catalog = Catalog::new();
//! catalog.relation("Division")
//!     .attr("city", AttrType::Text)
//!     .records(5_000.0).blocks(500.0)
//!     .selectivity("city", 0.02)
//!     .finish()?;
//! let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
//! let tmp1 = Expr::select(
//!     Expr::base("Division"),
//!     Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "LA"),
//! );
//! assert_eq!(est.tree_cost(&tmp1), 500.0);   // one linear scan of Division
//! assert_eq!(est.stats(&tmp1).records, 100.0); // 2% survive
//! # Ok::<(), mvdesign_catalog::CatalogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimate;
mod explain;
mod model;

pub use crate::estimate::{CardinalityEstimator, CostEstimator, EstimationMode};
pub use crate::explain::explain;
pub use crate::model::{
    CostModel, MeasureCostModel, NestedLoopCostModel, PaperCostModel, SortMergeCostModel,
};

pub use mvdesign_catalog::RelationStats;
