//! Page-streaming execution: one plan walker over [`PagedBatch`]es.
//!
//! Every operator input and output is a [`PagedBatch`] — a base table's
//! pages, held or pooled (see [`crate::storage`]), or an operator's result,
//! one held page per column. [`exec_view`] is the one recursion over the
//! plan — plain execution and the I/O simulator both run it — and every
//! operator kernel has one arm, which streams pages:
//!
//! * Selection pins one page per column at a time, masks and filters the
//!   chunk, and stacks the per-page survivors ([`PagedBatch::stack`]): one
//!   chunk's columns move, several concatenate exactly as the whole-column
//!   filter would have built them.
//! * Projection re-shares pages without touching one.
//! * Joins materialise only the key columns — one `Arc` clone for a held
//!   page — reuse the shared index kernel, and gather payloads one pin per
//!   run of indexes into a page ([`PagedBatch::gather`]; a held column is
//!   one run).
//! * Aggregation materialises its pruned input and runs the batch kernel.
//!
//! On held pages each arm does exactly the batch kernels' work
//! ([`selection_mask`], [`join_indices`], [`aggregate_batch`]).
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
//! list. Pruning is [`keep`] — header work. The root's consumer is the
//! caller, who may read anything, so the root asks for everything (`None`)
//! and every returned table carries all of its columns; row counts are
//! never affected, so [`crate::measure`]'s charges are not either.
//!
//! Because eviction never changes page *content* (see [`crate::storage`])
//! and the streaming kernels reproduce the batch kernels' output
//! representation exactly (pinned by `tests/engine_paged.rs`), results are
//! bit-identical at any pool budget and eviction order.

use std::sync::Arc;

use mvdesign_algebra::{AttrRef, Expr, JoinCondition, Predicate};

use crate::batch::{Batch, Column};
use crate::storage::PagedBatch;
use crate::table::Database;

use super::{aggregate_batch, join_indices, selection_mask, ExecContext, ExecError, Held};

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

/// `view` without the columns a consumer reading `needed` cannot observe
/// (see [`kept_columns`]) — header work, no page is touched.
fn keep(view: Arc<PagedBatch>, needed: Needed<'_, '_>) -> Arc<PagedBatch> {
    let idx = kept_columns(view.attrs(), needed);
    if idx.len() == view.attrs().len() {
        return view;
    }
    Arc::new(view.select_columns(&idx))
}

/// Recursive plan evaluation — the engine's one plan walker. `on_op` runs
/// after each operator's kernel with the operator, its inputs, its output
/// and what the kernel [`Held`]: [`crate::execute`] passes a no-op closure
/// (monomorphised away, so serving pays nothing), [`crate::measure`]
/// records the operator's charge. Base scans share table pages and pin
/// none, so between two consecutive `on_op` calls nothing but the later
/// operator's kernel ran.
pub(crate) fn exec_view<F>(
    expr: &Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
    on_op: &mut F,
) -> Result<Arc<PagedBatch>, ExecError>
where
    F: FnMut(&Expr, &[&PagedBatch], &PagedBatch, Held),
{
    walk(expr, db, ctx, None, on_op)
}

/// [`exec_view`]'s recursion: evaluates `expr` for a consumer that reads
/// only `needed` (see the module docs for what each operator asks of its
/// input). The batches `on_op` sees may carry fewer columns than the
/// operator's full schema, never fewer rows.
fn walk<'e, F>(
    expr: &'e Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
    needed: Needed<'_, 'e>,
    on_op: &mut F,
) -> Result<Arc<PagedBatch>, ExecError>
where
    F: FnMut(&Expr, &[&PagedBatch], &PagedBatch, Held),
{
    let out = match &**expr {
        Expr::Base(name) => db
            .table(name.as_str())
            .map(|t| Arc::clone(t.pages()))
            .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?,
        Expr::Select { input, predicate } => {
            let below = widen(needed, predicate.attrs());
            let v = walk(input, db, ctx, below.as_deref(), on_op)?;
            let out = PagedBatch::held(select_view(&v, predicate, needed)?);
            on_op(expr, &[&v], &out, Held::default());
            Arc::new(out)
        }
        Expr::Project { input, attrs } => {
            let below: Vec<&AttrRef> = attrs.iter().collect();
            let v = walk(input, db, ctx, Some(&below), on_op)?;
            let out = project_view(&v, attrs)?;
            on_op(expr, &[&v], &out, Held::default());
            Arc::new(out)
        }
        Expr::Join { left, right, on } => {
            let below = widen(needed, on.pairs().iter().flat_map(|(a, b)| [a, b]));
            let l = walk(left, db, ctx, below.as_deref(), on_op)?;
            let r = walk(right, db, ctx, below.as_deref(), on_op)?;
            let (out, held) = join_view(&l, &r, on, needed, ctx)?;
            let out = PagedBatch::held(out);
            on_op(expr, &[&l, &r], &out, held);
            Arc::new(out)
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
            let (out, held) = aggregate_batch(&v.to_batch(), group_by, aggs, ctx)?;
            let out = PagedBatch::held(out);
            on_op(expr, &[&v], &out, held);
            Arc::new(out)
        }
    };
    Ok(keep(out, needed))
}

/// Selection: the mask reads the predicate's columns, the filter moves only
/// the columns `needed` keeps. Each page pins as a zero-copy chunk,
/// evaluates the (pure, per-row) predicate mask and filters, and the
/// per-page results stack in page (= row) order. An empty input is one
/// empty chunk, so a predicate naming a missing attribute fails on it too.
fn select_view(
    view: &PagedBatch,
    predicate: &Predicate,
    needed: Needed<'_, '_>,
) -> Result<Batch, ExecError> {
    let keep = kept_columns(view.attrs(), needed);
    let chunks = (0..view.page_count().max(1))
        .map(|p| {
            let chunk = view.page_chunk(p);
            let mask = selection_mask(predicate, &chunk)?;
            Ok(chunk.select_columns(&keep).filter(&mask))
        })
        .collect::<Result<Vec<_>, ExecError>>()?;
    Ok(view.stack(&keep, chunks))
}

/// Projection: resolves attribute offsets once and re-shares the picked
/// columns' pages — O(#attrs), no row movement, and the output keeps the
/// input's pages so downstream operators keep streaming.
fn project_view(view: &PagedBatch, attrs: &[AttrRef]) -> Result<PagedBatch, ExecError> {
    let idx: Vec<usize> = attrs
        .iter()
        .map(|a| {
            view.index_of(a)
                .ok_or_else(|| ExecError::MissingAttr(a.clone()))
        })
        .collect::<Result<_, _>>()?;
    Ok(view.select_columns(&idx))
}

/// Join. Only the key columns materialise (the index kernels need
/// contiguous slices; a held column is shared, not copied),
/// [`join_indices`] produces the match vectors, and each side gathers — one
/// pin per run of indexes into one page — only the columns `needed` keeps:
/// the join attributes themselves move only if the consumer reads them.
pub(crate) fn join_view(
    l: &PagedBatch,
    r: &PagedBatch,
    on: &JoinCondition,
    needed: Needed<'_, '_>,
    ctx: &ExecContext,
) -> Result<(Batch, Held), ExecError> {
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
    let gather = |side: &PagedBatch, idx: &[usize]| {
        side.select_columns(&kept_columns(side.attrs(), needed))
            .gather(idx)
    };
    let out = Batch::hstack(&gather(l, &lidx), &gather(r, &ridx));
    Ok((out, held))
}
