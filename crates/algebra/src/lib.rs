//! Relational algebra for the select–project–join (SPJ) dialect the paper
//! works in, plus a small SQL-ish parser for writing warehouse queries the
//! way the paper does.
//!
//! The central type is [`Expr`], an immutable expression tree over base
//! relations with `select`, `project` and equi-`join` operators. Expressions
//! are cheap to share (`Arc` children) and support structural equality.
//!
//! Semantic identity — two expressions computing the same relation up to
//! join commutativity/associativity, predicate normalisation and
//! set-semantics projections/group-bys — is interned by [`ExprArena`]: every
//! equivalence class gets a dense [`ExprId`], so identity checks are integer
//! comparisons and per-class analyses index plain vectors. The MVPP merge,
//! the cost caches and the DOT renderer all share classes this way — this is
//! how the paper's "common subexpressions" (§3.1) are recognised.
//! [`Expr::semantic_key`] renders the same equivalence class as a canonical
//! string and remains the debug/rendering API (the audit layer uses it as an
//! independent oracle for the arena).
//!
//! # Example
//!
//! ```
//! use mvdesign_algebra::parse_query;
//!
//! // Query 1 of the paper.
//! let q1 = parse_query(
//!     "SELECT Pd.name FROM Pd, Div WHERE Div.city = 'LA' AND Pd.Did = Div.Did",
//! )?;
//! assert_eq!(q1.base_relations().len(), 2);
//! # Ok::<(), mvdesign_algebra::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod arena;
mod dot;
mod expr;
mod inthash;
mod predicate;
mod query;
mod schema_infer;
mod sql;
mod value;
mod visit;

pub use crate::aggregate::{roll_up_keys, AggExpr, AggFunc, AGG_RELATION};
pub use crate::arena::{Classes, ExprArena, ExprId};
pub use crate::dot::dot_graph;
pub use crate::expr::{Expr, JoinCondition};
pub use crate::inthash::{IntBuildHasher, IntHasher, IntMap};
pub use crate::predicate::{CompareOp, Comparison, Predicate, Rhs};
pub use crate::query::Query;
pub use crate::schema_infer::{output_attrs, InferError};
pub use crate::sql::{parse_query, parse_query_with, ParseError};
pub use crate::value::Value;
pub use crate::visit::{collect_subexprs, postorder};

pub use mvdesign_catalog::{AttrName, AttrRef, RelName};
