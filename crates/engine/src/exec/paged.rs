//! View-based execution: one spine over resident and paged inputs.
//!
//! A [`View`] is either a fully resident [`Batch`] or a handle to a
//! [`PagedBatch`] whose pages live in a [`crate::storage::BufferPool`].
//! [`exec_view`] is the one recursion over the plan — plain execution and
//! the I/O simulator both run it; every operator kernel matches on its
//! input's residency:
//!
//! * **Resident** inputs delegate verbatim to the existing batch kernels
//!   ([`select_batch`], [`project_batch`], [`join_batch`],
//!   [`aggregate_batch`]) — resident execution is byte-for-byte the code
//!   that ran before this layer existed.
//! * **Paged** inputs stream. Selection pins one page per column at a
//!   time, masks and filters the chunk, and concatenates the per-page
//!   survivors with the representation-reproducing [`Column::concat`].
//!   Projection re-shares page handles without touching a page. Joins
//!   materialise only the key columns, reuse the shared index kernels, and
//!   gather payloads page-on-demand. Aggregation materialises only the
//!   grouping and aggregate-input columns.
//!
//! Because eviction never changes page *content* (see [`crate::storage`])
//! and the streaming kernels reproduce the resident kernels' output
//! representation exactly (pinned by `tests/engine_paged.rs`), results are
//! bit-identical at any pool budget, eviction order, or thread count.

use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, Expr, JoinCondition, Predicate};

use crate::batch::{Batch, Column};
use crate::storage::PagedBatch;
use crate::table::{Database, Table};

use super::morsel::run_tasks;
use super::{
    aggregate_batch, join_batch, join_indices, project_batch, select_batch, selection_mask,
    ExecContext, ExecError,
};

/// An operator input or output: resident columns or pool-backed pages.
#[derive(Debug, Clone)]
pub(crate) enum View {
    /// Fully in-memory columns.
    Resident(Batch),
    /// Page handles into a buffer pool.
    Paged(Arc<PagedBatch>),
}

impl View {
    /// The view of a base table: paged tables are shared by handle
    /// (zero-copy — no page is touched), resident tables by `Arc`'d
    /// columns.
    pub(crate) fn of_table(table: &Table) -> View {
        match table.paged() {
            Some(p) => View::Paged(Arc::clone(p)),
            None => View::Resident(table.batch().clone()),
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        match self {
            View::Resident(b) => b.rows(),
            View::Paged(p) => p.rows(),
        }
    }

    /// Index of an attribute in the header.
    pub(crate) fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        match self {
            View::Resident(b) => b.index_of(attr),
            View::Paged(p) => p.index_of(attr),
        }
    }

    /// Materialises the view as one resident batch (representation-exact
    /// for paged data).
    pub(crate) fn into_batch(self) -> Batch {
        match self {
            View::Resident(b) => b,
            View::Paged(p) => p.to_batch(),
        }
    }

    /// Fully materialises one column — the index kernels (join keys,
    /// aggregation inputs) need contiguous slices.
    pub(crate) fn materialize_column(&self, i: usize) -> Arc<Column> {
        match self {
            View::Resident(b) => Arc::clone(&b.columns()[i]),
            View::Paged(p) => p.materialize_column(i),
        }
    }

    /// The rows `idx`, in order, as a resident batch — [`Batch::gather`]
    /// or its page-on-demand twin.
    pub(crate) fn gather(&self, idx: &[usize]) -> Batch {
        match self {
            View::Resident(b) => b.gather(idx),
            View::Paged(p) => p.gather(idx),
        }
    }
}

/// Recursive view evaluation — the engine's one plan walker. `on_op` runs
/// after each operator's kernel with the operator, its input views and its
/// output: [`crate::execute`] passes a no-op closure (monomorphised away, so
/// serving pays nothing), [`crate::measure`] records the operator's charge.
/// Base scans share table handles and pin no page, so between two
/// consecutive `on_op` calls nothing but the later operator's kernel ran.
pub(crate) fn exec_view<F>(
    expr: &Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
    on_op: &mut F,
) -> Result<View, ExecError>
where
    F: FnMut(&Expr, &[&View], &View),
{
    match &**expr {
        Expr::Base(name) => db
            .table(name.as_str())
            .map(View::of_table)
            .ok_or_else(|| ExecError::UnknownRelation(name.clone())),
        Expr::Select { input, predicate } => {
            let v = exec_view(input, db, ctx, on_op)?;
            let out = select_view(&v, predicate, ctx)?;
            on_op(expr, &[&v], &out);
            Ok(out)
        }
        Expr::Project { input, attrs } => {
            let v = exec_view(input, db, ctx, on_op)?;
            let out = project_view(&v, attrs)?;
            on_op(expr, &[&v], &out);
            Ok(out)
        }
        Expr::Join { left, right, on } => {
            let l = exec_view(left, db, ctx, on_op)?;
            let r = exec_view(right, db, ctx, on_op)?;
            let out = join_view(&l, &r, on, ctx)?;
            on_op(expr, &[&l, &r], &out);
            Ok(out)
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let v = exec_view(input, db, ctx, on_op)?;
            let out = aggregate_view(&v, group_by, aggs, ctx)?;
            on_op(expr, &[&v], &out);
            Ok(out)
        }
    }
}

/// Stacks per-page result chunks into one resident batch.
/// [`Column::concat`] reproduces the representation the resident kernel's
/// single whole-batch gather builds: same-variant parts concatenate typed
/// (dictionary parts share their table), anything else re-canonicalises
/// through `Column::from_values` — exactly what a resident gather over a
/// `Mixed` column does.
fn vstack(attrs: &[AttrRef], chunks: &[Batch]) -> Batch {
    let columns = (0..attrs.len())
        .map(|c| {
            let parts: Vec<&Column> = chunks.iter().map(|b| b.column(c)).collect();
            Arc::new(Column::concat(&parts))
        })
        .collect();
    Batch::new(attrs.to_vec(), columns)
}

/// Selection over a view. Paged inputs stream: each page pins as a
/// zero-copy chunk, evaluates the (pure, per-row) predicate mask and
/// filters — one worker per page under a parallel context, with per-page
/// results concatenated in page (= row) order.
fn select_view(view: &View, predicate: &Predicate, ctx: &ExecContext) -> Result<View, ExecError> {
    match view {
        View::Resident(b) => select_batch(b, predicate, ctx).map(View::Resident),
        View::Paged(p) => {
            let pages = p.page_count();
            if pages == 0 {
                // Zero pages: rebuild the exact empty column variants.
                return Ok(View::Resident(p.to_batch()));
            }
            // Pages are the unit of fan-out, so each chunk evaluates its
            // mask single-threaded; the mask is bit-identical either way.
            let inner = ExecContext { threads: 1, ..*ctx };
            let parts = run_tasks(pages, ctx.effective_threads(), |pg| {
                let chunk = p.page_chunk(pg);
                let mask = selection_mask(predicate, &chunk, &inner)?;
                Ok(chunk.filter(&mask))
            });
            let mut chunks = Vec::with_capacity(pages);
            for part in parts {
                chunks.push(part?);
            }
            Ok(View::Resident(vstack(p.attrs(), &chunks)))
        }
    }
}

/// Projection over a view. Paged inputs re-share page handles — like the
/// resident kernel, O(#attrs) with no row movement, and the output stays
/// paged so downstream operators keep streaming.
fn project_view(view: &View, attrs: &[AttrRef]) -> Result<View, ExecError> {
    match view {
        View::Resident(b) => project_batch(b, attrs).map(View::Resident),
        View::Paged(p) => {
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    p.index_of(a)
                        .ok_or_else(|| ExecError::MissingAttr(a.clone()))
                })
                .collect::<Result<_, _>>()?;
            if idx.is_empty() {
                // A zero-column PagedBatch could not carry its row count
                // through later `Batch::new` calls — keep the degenerate
                // projection resident, where `select_columns` preserves it.
                return Ok(View::Resident(p.to_batch().select_columns(&idx)));
            }
            Ok(View::Paged(Arc::new(p.select_columns(&idx))))
        }
    }
}

/// Join over views. Two resident inputs delegate to the resident kernel;
/// otherwise only the key columns materialise (the index kernels need
/// contiguous slices), the shared [`join_indices`] dispatch produces the
/// match vectors, and both payloads gather page-on-demand.
fn join_view(l: &View, r: &View, on: &JoinCondition, ctx: &ExecContext) -> Result<View, ExecError> {
    if let (View::Resident(lb), View::Resident(rb)) = (l, r) {
        return join_batch(lb, rb, on, ctx).map(View::Resident);
    }
    // Same pair resolution as the resident kernel, so errors match.
    let mut pairs = Vec::with_capacity(on.pairs().len());
    for (a, b) in on.pairs() {
        let resolved = match (l.index_of(a), r.index_of(b)) {
            (Some(la), Some(rb)) => (la, rb),
            _ => match (l.index_of(b), r.index_of(a)) {
                (Some(lb), Some(ra)) => (lb, ra),
                _ => return Err(ExecError::MissingAttr(a.clone())),
            },
        };
        pairs.push(resolved);
    }
    let lkeys: Vec<Arc<Column>> = pairs
        .iter()
        .map(|&(li, _)| l.materialize_column(li))
        .collect();
    let rkeys: Vec<Arc<Column>> = pairs
        .iter()
        .map(|&(_, ri)| r.materialize_column(ri))
        .collect();
    let lcols: Vec<&Column> = lkeys.iter().map(Arc::as_ref).collect();
    let rcols: Vec<&Column> = rkeys.iter().map(Arc::as_ref).collect();
    let (lidx, ridx) = join_indices(l.rows(), r.rows(), &lcols, &rcols, ctx)?;
    Ok(View::Resident(Batch::hstack(
        &l.gather(&lidx),
        &r.gather(&ridx),
    )))
}

/// Aggregation over a view. Paged inputs materialise only the columns the
/// aggregation reads — grouping keys and aggregate inputs — and then run
/// the resident kernel over that pruned batch: aggregation output is built
/// value-by-value from those columns, so pruning cannot change it.
fn aggregate_view(
    view: &View,
    group_by: &[AttrRef],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<View, ExecError> {
    match view {
        View::Resident(b) => aggregate_batch(b, group_by, aggs, ctx).map(View::Resident),
        View::Paged(p) => {
            // Resolve in the resident kernel's order (grouping attributes,
            // then aggregate inputs) so the surfaced MissingAttr matches.
            let mut needed: Vec<usize> = Vec::new();
            for a in group_by {
                let i = p
                    .index_of(a)
                    .ok_or_else(|| ExecError::MissingAttr(a.clone()))?;
                if !needed.contains(&i) {
                    needed.push(i);
                }
            }
            for agg in aggs {
                if let Some(attr) = &agg.input {
                    let i = p
                        .index_of(attr)
                        .ok_or_else(|| ExecError::MissingAttr(attr.clone()))?;
                    if !needed.contains(&i) {
                        needed.push(i);
                    }
                }
            }
            if needed.is_empty() && !p.attrs().is_empty() {
                // COUNT(*) with no grouping reads no column, but the pruned
                // batch still has to carry the row count — keep one column.
                needed.push(0);
            }
            let attrs: Vec<AttrRef> = needed.iter().map(|&i| p.attrs()[i].clone()).collect();
            let columns: Vec<Arc<Column>> =
                needed.iter().map(|&i| p.materialize_column(i)).collect();
            let pruned = Batch::new(attrs, columns);
            aggregate_batch(&pruned, group_by, aggs, ctx).map(View::Resident)
        }
    }
}
