//! An in-memory SPJ execution engine.
//!
//! The paper evaluates its design against a hypothetical relational DBMS
//! whose operators are linear-search selection and nested-loop join. This
//! crate implements that DBMS in miniature so the rest of the workspace can
//! be *validated*, not just estimated:
//!
//! * [`execute`] runs any [`Expr`](mvdesign_algebra::Expr) against a
//!   [`Database`] with bag semantics under one [`ExecContext`] — rewrites
//!   (push-down, join reordering, MVPP merging) are property-tested to
//!   preserve results exactly;
//! * [`Generator`] synthesises databases whose value distributions match a
//!   catalog's selectivities, so estimated and observed cardinalities can be
//!   compared;
//! * [`measure`] runs the *same* plan walker while counting simulated block
//!   accesses with the disciplines the cost model assumes, grounding `Ca(v)`
//!   in observed behaviour.
//!
//! Execution is *columnar*: operators evaluate over [`Batch`]es of typed
//! [`Column`]s, resolving attribute offsets once per operator rather than
//! once per row. A [`Table`] names one [`PagedBatch`] — its columns as
//! pages — and still exposes the original row-major API, materialised on
//! request. The retired tuple-at-a-time engine is not
//! part of this crate: it lives in `mvdesign-verify` as the row-reference
//! differential oracle, and the audit plus the `engine_batch` property
//! suite check the two engines produce identical bags on every plan they
//! run.
//!
//! [`ExecContext`] is the one configuration type, taken by every entry
//! point; it holds the operator memory budget and nothing else. The join is
//! a hash join whose output is the nested loop's, row for row — the paper's
//! nested-loop discipline is an accounting, and lives in [`measure`]'s
//! per-operator charge. One query runs on one thread: a warehouse's cores
//! are shared out per query (`mvdesign-serve`'s reader pool) and per
//! candidate design (`Designer`), never per kernel.
//!
//! Storage has one spine, the page ([`storage`]): without a budget a
//! table's columns are held pages, one per column; under one they are cut
//! into fixed-size pages of a [`BufferPool`] with a byte budget and clock
//! eviction to a spill file, and pages leave the pool when nothing holds
//! them. Appends copy at most each column's tail page. The executor streams
//! pages whatever their home, and hash joins/aggregations whose state
//! outgrows [`ExecContext::mem_budget`] take Grace-style partitioned spill
//! paths. Eviction changes residency, never content, so results stay
//! bit-identical at any pool size — and [`measure`] reports each
//! operator's *measured* pool misses next to the modelled block charges,
//! grounding the paper's cost model in actual page traffic.
//!
//! # Example
//!
//! ```
//! use mvdesign_algebra::parse_query;
//! use mvdesign_engine::{Database, ExecContext, Table};
//! use mvdesign_algebra::{AttrRef, Value};
//!
//! let mut db = Database::new();
//! db.insert_table(Table::new(
//!     "Cust",
//!     [AttrRef::new("Cust", "name"), AttrRef::new("Cust", "city")],
//!     vec![
//!         vec![Value::text("ann"), Value::text("LA")],
//!         vec![Value::text("bob"), Value::text("SF")],
//!     ],
//! ));
//! let q = parse_query("SELECT name FROM Cust WHERE city = 'LA'").unwrap();
//! let result = mvdesign_engine::execute(&q, &db, &ExecContext::default())?;
//! assert_eq!(result.rows().len(), 1);
//! # Ok::<(), mvdesign_engine::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod datagen;
mod exec;
mod iosim;
mod profile;
pub mod storage;
mod table;

pub use crate::batch::{Batch, Column};
pub use crate::datagen::{Generator, GeneratorConfig};
pub use crate::exec::delta::{
    appended_since, grown, maintenance, refresh_view_delta, split_appends, DeltaMap, Maintenance,
    RefreshPolicy,
};
#[doc(hidden)]
pub use crate::exec::JoinAlgo;
pub use crate::exec::{
    execute, execute_shared, materialize_view, selection_mask, ExecContext, ExecError,
};
#[doc(hidden)]
pub use crate::iosim::measure as measure_paged;
pub use crate::iosim::{measure, IoReport, OpCharge};
pub use crate::profile::profile_database;
pub use crate::storage::{batch_bytes, BufferPool, PagedBatch, PoolStats, DEFAULT_PAGE_ROWS};
pub use crate::table::{Database, Table};
