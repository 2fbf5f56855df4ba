//! View-based execution: one spine over resident and paged inputs.
//!
//! A [`View`] is either a fully resident [`Batch`] or a handle to a
//! [`PagedBatch`] whose pages live in a [`crate::storage::BufferPool`].
//! [`exec_view`] is the one recursion over the plan — plain execution and
//! the I/O simulator both run it; every operator kernel matches on its
//! input's residency:
//!
//! * **Resident** inputs run the batch kernels ([`selection_mask`],
//!   [`project_batch`], [`join_indices`], [`aggregate_batch`]) directly.
//! * **Paged** inputs stream. Selection pins one page per column at a
//!   time, masks and filters the chunk, and concatenates the per-page
//!   survivors with the representation-reproducing [`Column::concat`].
//!   Projection re-shares page handles without touching a page. Joins
//!   materialise only the key columns, reuse the shared index kernel, and
//!   gather payloads page-on-demand, one pin per run of indexes into a
//!   page ([`PagedBatch::gather`]).
//!
//! **Held state.** The join and the aggregation return, beside their
//! output, what they [`Held`]: the bytes of their keyed state (the join's
//! build-side table, the γ's group table) and whether they spilled to keep
//! it within half of [`ExecContext::mem_budget`]. The walker hands it to
//! `on_op`; [`crate::measure`] records it per operator.
//!
//! **Required columns.** The walker hands every operator the attribute set
//! its consumer will read ([`Needed`]) and the operator moves no other
//! column: γ asks its input for its group keys and aggregate inputs, ⋈ asks
//! each side for what its own consumer reads plus its join attributes and
//! gathers only the former, σ adds its predicate's attributes, π passes its
//! list. Pruning is [`View::keep`] — header work, resident or paged. The
//! root's consumer is the caller, who may read anything, so the root asks
//! for everything (`None`) and every returned table carries all of its
//! columns; row counts are never affected, so [`crate::measure`]'s charges
//! are not either.
//!
//! Because eviction never changes page *content* (see [`crate::storage`])
//! and the streaming kernels reproduce the resident kernels' output
//! representation exactly (pinned by `tests/engine_paged.rs`), results are
//! bit-identical at any pool budget and eviction order.

use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, Expr, JoinCondition, Predicate};

use crate::batch::{Batch, Column};
use crate::storage::PagedBatch;
use crate::table::{Database, Table};

use super::{
    aggregate_batch, join_indices, project_batch, selection_mask, ExecContext, ExecError, Held,
};

/// The attributes an operator's consumer will read, borrowed from the plan
/// — `None` for "all of them". A lower bound, not a schema: a name the
/// input does not carry is ignored here and reported, as ever, by the
/// operator that looks it up.
type Needed<'a, 'e> = Option<&'a [&'e AttrRef]>;

/// `needed` widened by an operator's own reads, for its input.
fn widen<'e>(
    needed: Needed<'_, 'e>,
    own: impl IntoIterator<Item = &'e AttrRef>,
) -> Option<Vec<&'e AttrRef>> {
    needed.map(|n| n.iter().copied().chain(own).collect())
}

/// Header positions of the columns a consumer reading `needed` can observe
/// — every column of that name, in header order, so `index_of` resolves as
/// it would on the full header. A non-empty header never prunes to nothing:
/// a column-less paged batch could not carry its row count.
fn kept_columns(attrs: &[AttrRef], needed: Needed<'_, '_>) -> Vec<usize> {
    let Some(needed) = needed else {
        return (0..attrs.len()).collect();
    };
    let mut idx: Vec<usize> = (0..attrs.len())
        .filter(|&i| needed.contains(&&attrs[i]))
        .collect();
    if idx.is_empty() && !attrs.is_empty() {
        idx.push(0);
    }
    idx
}

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

    /// The qualified attribute header.
    fn attrs(&self) -> &[AttrRef] {
        match self {
            View::Resident(b) => b.attrs(),
            View::Paged(p) => p.attrs(),
        }
    }

    /// Index of an attribute in the header.
    pub(crate) fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.attrs().iter().position(|a| a == attr)
    }

    /// The view without the columns a consumer reading `needed` cannot
    /// observe (see [`kept_columns`]) — header work, no row is touched.
    fn keep(self, needed: Needed<'_, '_>) -> View {
        let idx = kept_columns(self.attrs(), needed);
        if idx.len() == self.attrs().len() {
            return self;
        }
        match self {
            View::Resident(b) => View::Resident(b.select_columns(&idx)),
            View::Paged(p) => View::Paged(Arc::new(p.select_columns(&idx))),
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
/// after each operator's kernel with the operator, its input views, its
/// output and what the kernel [`Held`]: [`crate::execute`] passes a no-op
/// closure (monomorphised away, so serving pays nothing), [`crate::measure`]
/// records the operator's charge. Base scans share table handles and pin no
/// page, so between two consecutive `on_op` calls nothing but the later
/// operator's kernel ran.
pub(crate) fn exec_view<F>(
    expr: &Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
    on_op: &mut F,
) -> Result<View, ExecError>
where
    F: FnMut(&Expr, &[&View], &View, Held),
{
    walk(expr, db, ctx, None, on_op)
}

/// [`exec_view`]'s recursion: evaluates `expr` for a consumer that reads
/// only `needed` (see the module docs for what each operator asks of its
/// input). The views `on_op` sees may carry fewer columns than the
/// operator's full schema, never fewer rows.
fn walk<'e, F>(
    expr: &'e Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
    needed: Needed<'_, 'e>,
    on_op: &mut F,
) -> Result<View, ExecError>
where
    F: FnMut(&Expr, &[&View], &View, Held),
{
    let out = match &**expr {
        Expr::Base(name) => db
            .table(name.as_str())
            .map(View::of_table)
            .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?,
        Expr::Select { input, predicate } => {
            let below = widen(needed, predicate.attrs());
            let v = walk(input, db, ctx, below.as_deref(), on_op)?;
            let out = select_view(&v, predicate, needed)?;
            on_op(expr, &[&v], &out, Held::default());
            out
        }
        Expr::Project { input, attrs } => {
            let below: Vec<&AttrRef> = attrs.iter().collect();
            let v = walk(input, db, ctx, Some(&below), on_op)?;
            let out = project_view(&v, attrs)?;
            on_op(expr, &[&v], &out, Held::default());
            out
        }
        Expr::Join { left, right, on } => {
            let below = widen(needed, on.pairs().iter().flat_map(|(a, b)| [a, b]));
            let l = walk(left, db, ctx, below.as_deref(), on_op)?;
            let r = walk(right, db, ctx, below.as_deref(), on_op)?;
            let (out, held) = join_view(&l, &r, on, needed, ctx)?;
            on_op(expr, &[&l, &r], &out, held);
            out
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let below: Vec<&AttrRef> = group_by
                .iter()
                .chain(aggs.iter().filter_map(|a| a.input.as_ref()))
                .collect();
            let v = walk(input, db, ctx, Some(&below), on_op)?;
            let (out, held) = aggregate_view(&v, group_by, aggs, ctx)?;
            on_op(expr, &[&v], &out, held);
            out
        }
    };
    Ok(out.keep(needed))
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

/// Selection over a view: the mask reads the predicate's columns, the
/// filter moves only the columns `needed` keeps. Paged inputs stream: each
/// page pins as a zero-copy chunk, evaluates the (pure, per-row) predicate
/// mask and filters, and the per-page results concatenate in page (= row)
/// order.
fn select_view(
    view: &View,
    predicate: &Predicate,
    needed: Needed<'_, '_>,
) -> Result<View, ExecError> {
    let keep = kept_columns(view.attrs(), needed);
    match view {
        View::Resident(b) => {
            let mask = selection_mask(predicate, b)?;
            Ok(View::Resident(b.select_columns(&keep).filter(&mask)))
        }
        View::Paged(p) => {
            let pages = p.page_count();
            if pages == 0 {
                // Zero pages: rebuild the exact empty column variants.
                return Ok(View::Resident(p.to_batch().select_columns(&keep)));
            }
            let chunks = (0..pages)
                .map(|pg| {
                    let chunk = p.page_chunk(pg);
                    let mask = selection_mask(predicate, &chunk)?;
                    Ok(chunk.select_columns(&keep).filter(&mask))
                })
                .collect::<Result<Vec<_>, ExecError>>()?;
            let attrs: Vec<AttrRef> = keep.iter().map(|&i| p.attrs()[i].clone()).collect();
            Ok(View::Resident(vstack(&attrs, &chunks)))
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

/// Join over views. Only the key columns materialise (the index kernels
/// need contiguous slices; resident columns are shared, not copied),
/// [`join_indices`] produces the match vectors, and each
/// side gathers — page-on-demand when paged, one pin per run of indexes
/// into one page — only the columns `needed` keeps: the join attributes
/// themselves move only if the consumer reads them.
pub(crate) fn join_view(
    l: &View,
    r: &View,
    on: &JoinCondition,
    needed: Needed<'_, '_>,
    ctx: &ExecContext,
) -> Result<(View, Held), ExecError> {
    // Resolve each condition pair to (left index, right index).
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
    let (lidx, ridx, held) = join_indices(l.rows(), r.rows(), &lcols, &rcols, ctx)?;
    let out = Batch::hstack(
        &l.clone().keep(needed).gather(&lidx),
        &r.clone().keep(needed).gather(&ridx),
    );
    Ok((View::Resident(out), held))
}

/// Aggregation over a view. A paged input arrives pruned to the grouping
/// keys and aggregate inputs (the walker asked for exactly those), so
/// materialising it reads no other page; the resident kernel does the rest.
fn aggregate_view(
    view: &View,
    group_by: &[AttrRef],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<(View, Held), ExecError> {
    let (batch, held) = match view {
        View::Resident(b) => aggregate_batch(b, group_by, aggs, ctx)?,
        View::Paged(p) => aggregate_batch(&p.to_batch(), group_by, aggs, ctx)?,
    };
    Ok((View::Resident(batch), held))
}
