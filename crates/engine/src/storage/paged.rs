//! Page-backed batches: the out-of-core counterpart of [`Batch`].
//!
//! A [`PagedBatch`] keeps the header and per-column page handles resident;
//! the data itself lives in a shared [`BufferPool`]. Execution streams it
//! page by page: [`PagedBatch::page_chunk`] pins one page per column and
//! wraps the shared `Arc`s as a zero-copy resident [`Batch`] — the page is
//! droppable again the moment the chunk is — while [`PagedBatch::gather`]
//! (join payloads) pins one page per run of indexes into it and copies the
//! run in one typed loop, and [`PagedBatch::value_at`] pins one page per
//! value.
//!
//! Reconstruction is representation-exact: pages are cut with the
//! variant-preserving [`Column::slice`] and reassembled with
//! [`Column::concat`], so `to_batch()` equals the original batch under the
//! derived (representation-sensitive) `PartialEq`, dictionary value tables
//! included — they stay resident and every page of a dictionary column
//! shares the one original `Arc` table.

use std::sync::Arc;

use mvdesign_algebra::{AttrRef, Value};

use crate::batch::{Batch, Column};

use super::page::{column_bytes, DEFAULT_PAGE_ROWS};
use super::pool::{BufferPool, PageId};

/// The representation of a paged column, kept resident so empty results
/// and empty tables rebuild the exact original column variant without
/// touching a page.
#[derive(Debug, Clone)]
pub(crate) enum ColKind {
    /// Pages are [`Column::Int`].
    Int,
    /// Pages are [`Column::Text`].
    Text,
    /// Pages are [`Column::Date`].
    Date,
    /// Pages are [`Column::Dict`] sharing this value table.
    Dict(Arc<[Arc<str>]>),
    /// Pages are [`Column::Mixed`].
    Mixed,
}

impl ColKind {
    fn of(col: &Column) -> Self {
        match col {
            Column::Int(_) => ColKind::Int,
            Column::Text(_) => ColKind::Text,
            Column::Date(_) => ColKind::Date,
            Column::Dict { values, .. } => ColKind::Dict(Arc::clone(values)),
            Column::Mixed(_) => ColKind::Mixed,
        }
    }

    fn empty_column(&self) -> Column {
        match self {
            ColKind::Int => Column::Int(Vec::new()),
            ColKind::Text => Column::Text(Vec::new()),
            ColKind::Date => Column::Date(Vec::new()),
            ColKind::Dict(values) => Column::Dict {
                codes: Vec::new(),
                values: Arc::clone(values),
            },
            ColKind::Mixed => Column::Mixed(Vec::new()),
        }
    }
}

/// One page-backed column: handles into the pool plus resident metadata.
#[derive(Debug, Clone)]
pub(crate) struct PagedColumn {
    pages: Vec<PageId>,
    kind: ColKind,
}

/// A header plus page-backed columns — see the module docs.
#[derive(Debug, Clone)]
pub struct PagedBatch {
    attrs: Vec<AttrRef>,
    cols: Vec<PagedColumn>,
    rows: usize,
    page_rows: usize,
    bytes: usize,
    pool: Arc<BufferPool>,
}

impl PagedBatch {
    /// Pages `batch` into `pool`, cutting every column into
    /// `page_rows`-row pages (clamped to at least 1;
    /// [`DEFAULT_PAGE_ROWS`] is the usual choice). Registration may
    /// already evict under a tight budget.
    pub fn from_batch(batch: &Batch, pool: &Arc<BufferPool>, page_rows: usize) -> Self {
        let page_rows = page_rows.max(1);
        let rows = batch.rows();
        let mut bytes = 0;
        let cols = batch
            .columns()
            .iter()
            .map(|c| {
                bytes += column_bytes(c);
                let kind = ColKind::of(c);
                let pages = (0..rows.div_ceil(page_rows))
                    .map(|p| {
                        let lo = p * page_rows;
                        pool.register(c.slice(lo..rows.min(lo + page_rows)))
                    })
                    .collect();
                PagedColumn { pages, kind }
            })
            .collect();
        Self {
            attrs: batch.attrs().to_vec(),
            cols,
            rows,
            page_rows,
            bytes,
            pool: Arc::clone(pool),
        }
    }

    /// Pages `batch` with the default page size.
    pub fn from_batch_default(batch: &Batch, pool: &Arc<BufferPool>) -> Self {
        Self::from_batch(batch, pool, DEFAULT_PAGE_ROWS)
    }

    /// The qualified attribute header.
    pub fn attrs(&self) -> &[AttrRef] {
        &self.attrs
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Pages per column (the block count of one full column scan).
    pub fn page_count(&self) -> usize {
        self.rows.div_ceil(self.page_rows)
    }

    /// Estimated data bytes across all columns (the number pool budgets
    /// are sized against).
    pub fn data_bytes(&self) -> usize {
        self.bytes
    }

    /// The pool holding this batch's pages.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Index of an attribute in the header.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.attrs.iter().position(|a| a == attr)
    }

    /// Pins page `p` of every column and wraps the shared page `Arc`s as a
    /// resident [`Batch`] — zero-copy: the chunk holds the pages pinned
    /// and releases them when dropped.
    pub(crate) fn page_chunk(&self, p: usize) -> Batch {
        let columns = self
            .cols
            .iter()
            .map(|c| self.pool.pin(c.pages[p]))
            .collect();
        Batch::new(self.attrs.clone(), columns)
    }

    /// Fully materialises column `i` (pins its pages in order and
    /// concatenates) — used for join keys and aggregate inputs, which the
    /// index kernels need contiguous.
    pub(crate) fn materialize_column(&self, i: usize) -> Arc<Column> {
        let col = &self.cols[i];
        match col.pages.len() {
            0 => Arc::new(col.kind.empty_column()),
            1 => self.pool.pin(col.pages[0]),
            _ => {
                let pages: Vec<Arc<Column>> =
                    col.pages.iter().map(|&id| self.pool.pin(id)).collect();
                let refs: Vec<&Column> = pages.iter().map(Arc::as_ref).collect();
                Arc::new(Column::concat(&refs))
            }
        }
    }

    /// Materialises the whole batch. Representation-exact: equals the
    /// batch this one was paged from.
    pub fn to_batch(&self) -> Batch {
        let columns = (0..self.cols.len())
            .map(|i| self.materialize_column(i))
            .collect();
        Batch::new(self.attrs.clone(), columns)
    }

    /// Selects columns by header index, sharing page handles (zero-copy —
    /// the paged analogue of [`Batch::select_columns`]).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[must_use]
    pub(crate) fn select_columns(&self, idx: &[usize]) -> PagedBatch {
        PagedBatch {
            attrs: idx.iter().map(|&i| self.attrs[i].clone()).collect(),
            cols: idx.iter().map(|&i| self.cols[i].clone()).collect(),
            rows: self.rows,
            page_rows: self.page_rows,
            bytes: self.bytes,
            pool: Arc::clone(&self.pool),
        }
    }

    /// A resident batch holding the rows `idx`, in order — the paged twin
    /// of [`Batch::gather`], representation-exact. Each column walks `idx`
    /// in *runs*, maximal stretches of consecutive indexes into one page,
    /// and pins each run's page once and copies the run in one typed loop:
    /// a join's ascending probe-side indexes over `n` pages pin `n` times,
    /// whatever the row count.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[must_use]
    pub(crate) fn gather(&self, idx: &[usize]) -> Batch {
        let columns = self
            .cols
            .iter()
            .map(|c| Arc::new(self.gather_column(c, idx)))
            .collect();
        Batch::new(self.attrs.clone(), columns)
    }

    /// Walks `idx` in runs and calls `copy(page, run, first)` once per run:
    /// the run's page, pinned once, the run's indexes, and the page's first
    /// row (so `i - first` is `i`'s offset in the page).
    fn for_each_run(
        &self,
        col: &PagedColumn,
        idx: &[usize],
        mut copy: impl FnMut(&Column, &[usize], usize),
    ) {
        let mut rest = idx;
        while let Some(&i) = rest.first() {
            let p = i / self.page_rows;
            let first = p * self.page_rows;
            let len = rest
                .iter()
                .position(|&j| j.wrapping_sub(first) >= self.page_rows)
                .unwrap_or(rest.len());
            copy(&self.pool.pin(col.pages[p]), &rest[..len], first);
            rest = &rest[len..];
        }
    }

    fn gather_column(&self, col: &PagedColumn, idx: &[usize]) -> Column {
        /// Appends the run's values to `out`, reading the page's storage
        /// through `get`.
        fn copy_run<T: Clone>(
            out: &mut Vec<T>,
            page: &Column,
            run: &[usize],
            first: usize,
            get: impl Fn(&Column) -> Option<&[T]>,
        ) {
            let src = get(page).expect("a paged column's pages share its representation");
            out.extend(run.iter().map(|&i| src[i - first].clone()));
        }
        match &col.kind {
            ColKind::Int | ColKind::Date => {
                let mut out = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut out, page, run, first, |c| match c {
                        Column::Int(v) | Column::Date(v) => Some(v),
                        _ => None,
                    });
                });
                match col.kind {
                    ColKind::Int => Column::Int(out),
                    _ => Column::Date(out),
                }
            }
            ColKind::Text => {
                let mut out = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut out, page, run, first, |c| match c {
                        Column::Text(v) => Some(v),
                        _ => None,
                    });
                });
                Column::Text(out)
            }
            ColKind::Dict(values) => {
                let mut codes = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut codes, page, run, first, |c| match c {
                        Column::Dict { codes, .. } => Some(codes),
                        _ => None,
                    });
                });
                Column::Dict {
                    codes,
                    values: Arc::clone(values),
                }
            }
            // Re-canonicalise exactly like the resident `Column::gather`
            // on a Mixed column.
            ColKind::Mixed => {
                let mut out = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    out.extend(run.iter().map(|&i| page.value(i - first)));
                });
                Column::from_values(out)
            }
        }
    }

    /// The value at row `i` of column `col` (pins the covering page).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn value_at(&self, col: usize, i: usize) -> Value {
        let page = self.pool.pin(self.cols[col].pages[i / self.page_rows]);
        page.value(i % self.page_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::Value;

    fn sample_batch() -> Batch {
        let table: Arc<[Arc<str>]> = vec![Arc::from("a"), Arc::from("b"), Arc::from("c")].into();
        let n = 23usize;
        Batch::new(
            vec![
                AttrRef::new("R", "i"),
                AttrRef::new("R", "t"),
                AttrRef::new("R", "d"),
                AttrRef::new("R", "m"),
            ],
            vec![
                Arc::new(Column::Int((0..n as i64).collect())),
                Arc::new(Column::dict(
                    (0..n).map(|i| (i % 3) as u32).collect(),
                    table,
                )),
                Arc::new(Column::Date((0..n as i64).map(|i| i * 10).collect())),
                Arc::new(Column::Mixed(
                    (0..n)
                        .map(|i| {
                            if i % 2 == 0 {
                                Value::Int(i as i64)
                            } else {
                                Value::text(format!("s{i}"))
                            }
                        })
                        .collect(),
                )),
            ],
        )
    }

    #[test]
    fn to_batch_is_representation_exact_at_any_budget() {
        let batch = sample_batch();
        for budget in [None, Some(10_000), Some(64)] {
            let pool = BufferPool::new(budget);
            let paged = PagedBatch::from_batch(&batch, &pool, 4);
            assert_eq!(paged.rows(), 23);
            assert_eq!(paged.page_count(), 6);
            let back = paged.to_batch();
            assert_eq!(back, batch, "budget {budget:?}");
            // Dictionary pages share the original value table pointer.
            assert!(Arc::ptr_eq(
                back.column(1).dict_values().unwrap(),
                batch.column(1).dict_values().unwrap()
            ));
        }
    }

    #[test]
    fn gather_matches_resident_gather_across_page_boundaries() {
        let batch = sample_batch();
        let pool = BufferPool::new(Some(64));
        let paged = PagedBatch::from_batch(&batch, &pool, 4);
        let idx = [3usize, 4, 5, 22, 0, 7, 7, 8, 15];
        assert_eq!(paged.gather(&idx), batch.gather(&idx));
        assert_eq!(paged.gather(&[]), batch.gather(&[]));
    }

    /// One column of every [`ColKind`]: `Int`, `Date`, `Text`, `Dict` and a
    /// `Mixed` column that really mixes variants.
    fn every_kind(n: usize) -> Batch {
        let table: Arc<[Arc<str>]> = vec![Arc::from("x"), Arc::from("y"), Arc::from("z")].into();
        let attrs = ["i", "d", "t", "c", "m"].map(|a| AttrRef::new("K", a));
        let columns = vec![
            Column::Int((0..n as i64).map(|i| i * 3 - 7).collect()),
            Column::Date((0..n as i64).map(|i| 9_000 + i).collect()),
            Column::Text((0..n).map(|i| Arc::from(format!("t{}", i % 11))).collect()),
            Column::dict((0..n).map(|i| (i % 3) as u32).collect(), table),
            Column::Mixed(
                (0..n)
                    .map(|i| match i % 3 {
                        0 => Value::Int(i as i64),
                        1 => Value::Date(i as i64),
                        _ => Value::text(format!("m{i}")),
                    })
                    .collect(),
            ),
        ];
        Batch::new(attrs.to_vec(), columns.into_iter().map(Arc::new).collect())
    }

    /// The index shapes a gather sees: a join's ascending probe side (with
    /// repeats), descending, random, empty, all inside one page, and a
    /// zig-zag across page boundaries.
    fn index_shape(shape: usize, n: usize, page_rows: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        match shape {
            0 => {
                let mut v: Vec<usize> = (0..2 * n).map(|_| draw(n)).collect();
                v.sort_unstable();
                v
            }
            1 => (0..n).rev().collect(),
            2 => (0..n).map(|_| draw(n)).collect(),
            3 => Vec::new(),
            4 => {
                let p = draw(n) / page_rows;
                let (lo, hi) = (p * page_rows, n.min((p + 1) * page_rows));
                (0..3 * (hi - lo)).map(|_| lo + draw(hi - lo)).collect()
            }
            _ => (0..n)
                .map(|k| if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 })
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The run gather is `Batch::gather`, representation-exact — the
        /// dictionary table shared by pointer — for every column kind, page
        /// size, pool budget and index shape; and it pins each column's
        /// page once per run of indexes into it.
        #[test]
        fn run_gather_is_batch_gather_with_one_pin_per_run(
            n in 1usize..300,
            page_sel in 0usize..4,
            bounded in proptest::prelude::any::<bool>(),
            shape in 0usize..6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let page_rows = [1, 3, 7, 4096][page_sel];
            let batch = every_kind(n);
            let pool = BufferPool::new(bounded.then_some(64));
            let paged = PagedBatch::from_batch(&batch, &pool, page_rows);
            let idx = index_shape(shape, n, page_rows, seed);
            let before = pool.stats();
            let got = paged.gather(&idx);
            let after = pool.stats();
            proptest::prop_assert_eq!(&got, &batch.gather(&idx));
            proptest::prop_assert!(Arc::ptr_eq(
                got.column(3).dict_values().expect("dictionary column"),
                batch.column(3).dict_values().expect("dictionary column"),
            ));
            let runs = (0..idx.len())
                .filter(|&k| k == 0 || idx[k] / page_rows != idx[k - 1] / page_rows)
                .count();
            let pins = (after.hits + after.misses) - (before.hits + before.misses);
            proptest::prop_assert_eq!(pins, (runs * batch.columns().len()) as u64);
        }
    }

    #[test]
    fn page_chunks_are_zero_copy_views_of_pool_pages() {
        let batch = sample_batch();
        let pool = BufferPool::unbounded();
        let paged = PagedBatch::from_batch(&batch, &pool, 8);
        let chunk = paged.page_chunk(1);
        assert_eq!(chunk.rows(), 8);
        assert_eq!(chunk.column(0), &batch.column(0).slice(8..16));
        // Pinning the same page again returns the same Arc.
        let again = paged.page_chunk(1);
        assert!(Arc::ptr_eq(&chunk.columns()[0], &again.columns()[0]));
    }

    #[test]
    fn empty_batches_round_trip_with_their_column_kinds() {
        let empty = Batch::new(
            vec![AttrRef::new("R", "a"), AttrRef::new("R", "b")],
            vec![
                Arc::new(Column::Text(Vec::new())),
                Arc::new(Column::Int(Vec::new())),
            ],
        );
        let pool = BufferPool::unbounded();
        let paged = PagedBatch::from_batch(&empty, &pool, 4);
        assert_eq!(paged.page_count(), 0);
        assert_eq!(paged.to_batch(), empty);
    }

    #[test]
    fn value_at_reads_through_the_pool() {
        let batch = sample_batch();
        let pool = BufferPool::new(Some(64));
        let paged = PagedBatch::from_batch(&batch, &pool, 4);
        for i in [0usize, 5, 13, 22] {
            for c in 0..4 {
                assert_eq!(paged.value_at(c, i), batch.column(c).value(i));
            }
        }
    }
}
