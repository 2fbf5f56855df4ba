//! Page-backed batches: the one representation of relation data.
//!
//! A [`PagedBatch`] is a header plus, per column, a list of pages and the
//! column's representation ([`ColKind`]). A page is either **held** — an
//! `Arc<Column>` the batches sharing it own, so pinning it is an `Arc`
//! clone — or **pooled**: a frame of a [`BufferPool`], pinned through the
//! pool and released when the last batch holding it drops. Only this module
//! knows which. A held batch has one page per column and no page bound;
//! a pooled one cuts every column into `page_rows`-row pages. Where new
//! pages go is the batch's *home*: its pool, or held without one.
//!
//! Execution streams pages: [`PagedBatch::page_chunk`] pins one page per
//! column and wraps the shared `Arc`s as a zero-copy [`Batch`] — the page
//! is droppable again the moment the chunk is — while
//! [`PagedBatch::gather`] (join payloads) pins one page per run of indexes
//! into it and copies the run in one typed loop, and
//! [`PagedBatch::value_at`] pins one page per value.
//!
//! **Appends** copy at most each column's tail page: the tail is filled up
//! to `page_rows` and new pages are added in the batch's home, while every
//! other page stays shared with whoever else holds the batch (snapshots).
//! A text value new to a dictionary column grows the value table; codes are
//! prefix-stable, so earlier pages keep theirs — and the table they were
//! cut under, a prefix of the column's — while the column's kind carries
//! the grown table. Every reconstruction attaches the kind's table.
//!
//! Reconstruction is representation-exact: pages are cut with the
//! variant-preserving [`Column::slice`] and reassembled per kind, so
//! `to_batch()` equals the batch the pages were cut from (and appended to)
//! under the derived (representation-sensitive) `PartialEq`, dictionary
//! value tables included — they stay resident and every page of a
//! dictionary column shares a prefix of one `Arc` table.

use std::sync::Arc;

use mvdesign_algebra::{AttrRef, Value};

use crate::batch::{Batch, Column};

use super::pool::{BufferPool, PooledPage};

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
    /// Pages are [`Column::Dict`] over this value table, or a prefix of it.
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

    /// An empty column of this kind with room for `capacity` rows.
    fn empty_column(&self, capacity: usize) -> Column {
        match self {
            ColKind::Int => Column::Int(Vec::with_capacity(capacity)),
            ColKind::Text => Column::Text(Vec::with_capacity(capacity)),
            ColKind::Date => Column::Date(Vec::with_capacity(capacity)),
            ColKind::Dict(values) => Column::Dict {
                codes: Vec::with_capacity(capacity),
                values: Arc::clone(values),
            },
            ColKind::Mixed => Column::Mixed(Vec::with_capacity(capacity)),
        }
    }

    /// Points a dictionary page at the kind's table — the same strings
    /// for every code the page holds, since tables only grow at the end.
    fn attach(&self, page: &mut Column) {
        if let (Column::Dict { values, .. }, ColKind::Dict(table)) = (page, self) {
            *values = Arc::clone(table);
        }
    }

    /// `page`, sharing the kind's dictionary table: the page itself when
    /// it already does (or is no dictionary page), a copy otherwise.
    fn attached(&self, mut page: Arc<Column>) -> Arc<Column> {
        match (&*page, self) {
            (Column::Dict { values, .. }, ColKind::Dict(table)) if !Arc::ptr_eq(values, table) => {
                self.attach(Arc::make_mut(&mut page));
                page
            }
            _ => page,
        }
    }
}

/// One page of a column (see the module docs).
#[derive(Debug, Clone)]
enum Page {
    Held(Arc<Column>),
    Pooled(Arc<PooledPage>),
}

impl Page {
    fn pin(&self) -> Arc<Column> {
        match self {
            Page::Held(col) => Arc::clone(col),
            Page::Pooled(page) => page.pin(),
        }
    }

    /// The page's column to write into: moved out when nothing else holds
    /// it, else copied — the one copy an append makes.
    fn into_owned(self) -> Column {
        match self {
            Page::Held(col) => Arc::unwrap_or_clone(col),
            Page::Pooled(page) => (*page.pin()).clone(),
        }
    }
}

/// One page-backed column: its pages plus resident metadata.
#[derive(Debug, Clone)]
pub(crate) struct PagedColumn {
    pages: Vec<Page>,
    kind: ColKind,
}

/// Rows a held page takes: all of them.
const HELD_PAGE_ROWS: usize = usize::MAX;

/// A header plus page-backed columns — see the module docs.
#[derive(Debug, Clone)]
pub struct PagedBatch {
    attrs: Vec<AttrRef>,
    cols: Vec<PagedColumn>,
    rows: usize,
    /// Rows per page; every page but a column's last is full.
    page_rows: usize,
    /// Where new pages go: this pool, or held without one.
    pool: Option<Arc<BufferPool>>,
}

/// One column's share of an append.
enum Grow {
    /// Rows in the representation of `kind`, the column's from now on;
    /// every page but the tail keeps its own.
    Tail { part: Column, kind: ColKind },
    /// The whole new column: its representation changed, so every page is
    /// cut again.
    Whole(Column),
}

impl PagedBatch {
    /// `columns` (of `rows` rows each) in a home: cut into `page_rows`-row
    /// pages of `pool` (clamped to at least 1), or — without a pool — held
    /// as one page per column, zero-copy.
    fn from_columns(
        attrs: Vec<AttrRef>,
        columns: impl IntoIterator<Item = Arc<Column>>,
        rows: usize,
        pool: Option<&Arc<BufferPool>>,
        page_rows: usize,
    ) -> Self {
        let page_rows = match pool {
            Some(_) => page_rows.max(1),
            None => HELD_PAGE_ROWS,
        };
        let mut batch = Self {
            attrs,
            cols: Vec::new(),
            rows,
            page_rows,
            pool: pool.cloned(),
        };
        batch.cols = columns
            .into_iter()
            .map(|col| PagedColumn {
                kind: ColKind::of(&col),
                pages: batch.cut(col),
            })
            .collect();
        batch
    }

    /// The batch's columns as held pages, zero-copy.
    pub(crate) fn held(batch: Batch) -> Self {
        let rows = batch.rows();
        let attrs = batch.attrs().to_vec();
        Self::from_columns(attrs, batch.into_columns(), rows, None, HELD_PAGE_ROWS)
    }

    /// The same rows in another home: cut into `page_rows`-row pages of
    /// `pool`, or held without one. A held batch moves to held by `Arc`
    /// clones; anything else goes one column at a time.
    pub(crate) fn rehome(&self, pool: Option<&Arc<BufferPool>>, page_rows: usize) -> Self {
        let columns = (0..self.cols.len()).map(|i| self.materialize_column(i));
        Self::from_columns(self.attrs.clone(), columns, self.rows, pool, page_rows)
    }

    /// `col` as pages of this batch's home: one held page (empty or not),
    /// or `page_rows`-row slices registered in the pool.
    fn cut(&self, col: Arc<Column>) -> Vec<Page> {
        let rows = col.len();
        match &self.pool {
            None => vec![Page::Held(col)],
            Some(pool) => (0..rows.div_ceil(self.page_rows))
                .map(|p| {
                    let lo = p * self.page_rows;
                    let page = col.slice(lo..rows.min(lo + self.page_rows));
                    Page::Pooled(Arc::new(pool.register(page)))
                })
                .collect(),
        }
    }

    /// A new page of this batch's home.
    fn new_page(&self, col: Column) -> Page {
        match &self.pool {
            None => Page::Held(Arc::new(col)),
            Some(pool) => Page::Pooled(Arc::new(pool.register(col))),
        }
    }

    /// The qualified attribute header.
    pub fn attrs(&self) -> &[AttrRef] {
        &self.attrs
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows per page (`usize::MAX` for a held batch: one page per column).
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Pages per column (the block count of one full column scan).
    pub fn page_count(&self) -> usize {
        self.rows.div_ceil(self.page_rows)
    }

    /// The pool new pages go to; `None` for a held batch.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Index of an attribute in the header.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.attrs.iter().position(|a| a == attr)
    }

    /// Rows on page `p`.
    fn page_len(&self, p: usize) -> usize {
        self.page_rows.min(self.rows - p * self.page_rows)
    }

    /// Pins page `p` of every column and wraps the shared page `Arc`s as a
    /// resident [`Batch`] — zero-copy: the chunk holds the pages pinned
    /// and releases them when dropped. Page 0 of an empty batch is its
    /// empty columns.
    pub(crate) fn page_chunk(&self, p: usize) -> Batch {
        let columns = self
            .cols
            .iter()
            .map(|c| match c.pages.get(p) {
                Some(page) => page.pin(),
                None => Arc::new(c.kind.empty_column(0)),
            })
            .collect();
        let rows = if self.rows == 0 { 0 } else { self.page_len(p) };
        Batch::with_rows(self.attrs.clone(), columns, rows)
    }

    /// Fully materialises column `i`: a held column is one `Arc` clone, a
    /// pooled one pins its pages in order and concatenates them. Used for
    /// join keys and aggregate inputs, which the index kernels need
    /// contiguous.
    pub(crate) fn materialize_column(&self, i: usize) -> Arc<Column> {
        let col = &self.cols[i];
        match col.pages.as_slice() {
            [] => Arc::new(col.kind.empty_column(0)),
            [only] => col.kind.attached(only.pin()),
            pages => {
                let pinned: Vec<Arc<Column>> = pages.iter().map(Page::pin).collect();
                Arc::new(concat_pages(&col.kind, &pinned))
            }
        }
    }

    /// Materialises the whole batch. Representation-exact: equals the
    /// batch this one was cut from, with every append made to it whole.
    pub fn to_batch(&self) -> Batch {
        let columns = (0..self.cols.len())
            .map(|i| self.materialize_column(i))
            .collect();
        Batch::with_rows(self.attrs.clone(), columns, self.rows)
    }

    /// Selects columns by header index, sharing pages (zero-copy — the
    /// paged analogue of [`Batch::select_columns`]).
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
            pool: self.pool.clone(),
        }
    }

    /// The first `rows` rows: every full page before them shared, the page
    /// they end inside sliced into a held page.
    ///
    /// # Panics
    ///
    /// Panics when `rows` exceeds the batch's.
    #[must_use]
    pub(crate) fn prefix(&self, rows: usize) -> PagedBatch {
        assert!(
            rows <= self.rows,
            "a prefix of {rows} rows of {}",
            self.rows
        );
        let (full, rest) = (rows / self.page_rows, rows % self.page_rows);
        let cols = self
            .cols
            .iter()
            .map(|c| {
                let mut pages = c.pages[..full].to_vec();
                if rest > 0 {
                    pages.push(Page::Held(Arc::new(c.pages[full].pin().slice(0..rest))));
                }
                PagedColumn {
                    pages,
                    kind: c.kind.clone(),
                }
            })
            .collect();
        PagedBatch {
            attrs: self.attrs.clone(),
            cols,
            rows,
            page_rows: self.page_rows,
            pool: self.pool.clone(),
        }
    }

    /// Stacks per-page results over the columns `keep` into one batch —
    /// what the whole-column kernel builds: one chunk's columns move,
    /// dictionary parts take the column's table, and the rest concatenate
    /// with [`Column::concat`] (same-variant parts typed, anything else
    /// re-canonicalised as a whole-column gather would).
    pub(crate) fn stack(&self, keep: &[usize], chunks: Vec<Batch>) -> Batch {
        let rows = chunks.iter().map(Batch::rows).sum();
        let mut parts: Vec<Vec<Arc<Column>>> = keep.iter().map(|_| Vec::new()).collect();
        for chunk in chunks {
            for (part, col) in parts.iter_mut().zip(chunk.into_columns()) {
                part.push(col);
            }
        }
        let columns = keep
            .iter()
            .zip(parts)
            .map(|(&i, part)| {
                let kind = &self.cols[i].kind;
                let mut part: Vec<Arc<Column>> =
                    part.into_iter().map(|c| kind.attached(c)).collect();
                match part.len() {
                    0 => Arc::new(kind.empty_column(0)),
                    1 => part.pop().expect("one part"),
                    _ => {
                        let refs: Vec<&Column> = part.iter().map(Arc::as_ref).collect();
                        Arc::new(Column::concat(&refs))
                    }
                }
            })
            .collect();
        let attrs = keep.iter().map(|&i| self.attrs[i].clone()).collect();
        Batch::with_rows(attrs, columns, rows)
    }

    /// A resident batch holding the rows `idx`, in order — the paged twin
    /// of [`Batch::gather`], representation-exact. Each column walks `idx`
    /// in *runs*, maximal stretches of consecutive indexes into one page,
    /// and pins each run's page once and copies the run in one typed loop:
    /// a join's ascending probe-side indexes over `n` pages pin `n` times,
    /// whatever the row count, and a held column is one run.
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
        Batch::with_rows(self.attrs.clone(), columns, idx.len())
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
            copy(&col.pages[p].pin(), &rest[..len], first);
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
        // One page is one run: the batch kernel's gather.
        if let ([only], false) = (col.pages.as_slice(), idx.is_empty()) {
            return col.kind.attached(only.pin()).gather(idx);
        }
        match &col.kind {
            ColKind::Int | ColKind::Date => {
                let mut out = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut out, page, run, first, ints);
                });
                match col.kind {
                    ColKind::Int => Column::Int(out),
                    _ => Column::Date(out),
                }
            }
            ColKind::Text => {
                let mut out = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut out, page, run, first, texts);
                });
                Column::Text(out)
            }
            ColKind::Dict(values) => {
                let mut codes = Vec::with_capacity(idx.len());
                self.for_each_run(col, idx, |page, run, first| {
                    copy_run(&mut codes, page, run, first, dict_codes);
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

    /// Pins page `p` of column `col` as stored: a page of a dictionary
    /// column may carry a prefix of the column's value table (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn page(&self, col: usize, p: usize) -> Arc<Column> {
        self.cols[col].pages[p].pin()
    }

    /// The value at row `i` of column `col` (pins the covering page).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn value_at(&self, col: usize, i: usize) -> Value {
        let page = self.cols[col].pages[i / self.page_rows].pin();
        page.value(i % self.page_rows)
    }

    /// Whether appending `v` to column `col` keeps its representation:
    /// typed columns admit their own variant, `Mixed` columns and an empty
    /// batch anything.
    pub(crate) fn admits(&self, col: usize, v: &Value) -> bool {
        self.rows == 0
            || matches!(
                (&self.cols[col].kind, v),
                (ColKind::Int, Value::Int(_))
                    | (ColKind::Date, Value::Date(_))
                    | (ColKind::Text | ColKind::Dict(_), Value::Text(_))
                    | (ColKind::Mixed, _)
            )
    }

    /// Appends row-major tuples, each column as [`Column::push`] would: a
    /// value the column's kind admits (a dictionary column's new strings
    /// grow its table) extends the tail page; any other turns the column
    /// `Mixed`, cut again in full.
    ///
    /// # Panics
    ///
    /// Panics when a row's arity differs from the header's.
    pub(crate) fn push_rows(&mut self, rows: Vec<Vec<Value>>) {
        let (n, width) = (rows.len(), self.attrs.len());
        let mut values: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
        for (i, row) in rows.into_iter().enumerate() {
            assert_eq!(
                row.len(),
                width,
                "row {i} has arity {} but the header has {width}",
                row.len()
            );
            for (col, v) in values.iter_mut().zip(row) {
                col.push(v);
            }
        }
        let grows = values
            .into_iter()
            .enumerate()
            .map(|(j, vals)| self.pushed(j, vals))
            .collect();
        self.grow(n, grows);
    }

    /// Column `j`'s share of [`PagedBatch::push_rows`]: the values pushed
    /// onto an empty column of its kind — a dictionary's new strings grow a
    /// copy of its table. Still of the kind, they extend the tail; else the
    /// column turns `Mixed`, whole.
    fn pushed(&self, j: usize, vals: Vec<Value>) -> Grow {
        let kind = &self.cols[j].kind;
        if let (ColKind::Mixed, true) = (kind, self.rows > 0) {
            // A non-empty `Mixed` column takes any value as it is.
            return Grow::Tail {
                part: Column::Mixed(vals),
                kind: ColKind::Mixed,
            };
        }
        let mut part = kind.empty_column(vals.len());
        for v in vals {
            part.push(v);
        }
        let grown = ColKind::of(&part);
        if self.rows == 0 {
            Grow::Whole(part)
        } else if std::mem::discriminant(&grown) == std::mem::discriminant(kind) {
            Grow::Tail { part, kind: grown }
        } else {
            let old = self.materialize_column(j);
            let values = (0..old.len()).map(|i| old.value(i));
            Grow::Whole(Column::Mixed(
                values
                    .chain((0..part.len()).map(|i| part.value(i)))
                    .collect(),
            ))
        }
    }

    /// Appends `part`'s rows (same header layout), each column as
    /// [`Column::concat`] of the stored column and the part's would: parts
    /// of the column's variant — a dictionary part under the column's very
    /// table, or any text part of a plain text column — extend the tail
    /// page; anything else re-canonicalises the whole column. Into an
    /// empty batch the part's columns go as they are.
    pub(crate) fn append(&mut self, part: &Batch) {
        if part.rows() == 0 {
            return;
        }
        let grows = (0..self.cols.len())
            .map(|j| self.concatenated(j, part.column(j)))
            .collect();
        self.grow(part.rows(), grows);
    }

    /// Column `j`'s share of [`PagedBatch::append`].
    fn concatenated(&self, j: usize, part: &Column) -> Grow {
        let kind = &self.cols[j].kind;
        if self.rows == 0 {
            return Grow::Whole(part.clone());
        }
        let tail = |part| Grow::Tail {
            part,
            kind: kind.clone(),
        };
        match (kind, part) {
            (ColKind::Int, Column::Int(_))
            | (ColKind::Date, Column::Date(_))
            | (ColKind::Text, Column::Text(_)) => tail(part.clone()),
            (ColKind::Dict(table), Column::Dict { values, .. }) if Arc::ptr_eq(table, values) => {
                tail(part.clone())
            }
            (ColKind::Text, Column::Dict { codes, values }) => tail(Column::Text(
                codes
                    .iter()
                    .map(|&c| Arc::clone(&values[c as usize]))
                    .collect(),
            )),
            _ => Grow::Whole(Column::concat(&[&self.materialize_column(j), part])),
        }
    }

    /// Applies one [`Grow`] per column for `added` rows.
    fn grow(&mut self, added: usize, grows: Vec<Grow>) {
        for (j, grow) in grows.into_iter().enumerate() {
            let pages = match grow {
                Grow::Whole(whole) => {
                    self.cols[j].kind = ColKind::of(&whole);
                    self.cut(Arc::new(whole))
                }
                Grow::Tail { part, kind } => {
                    let mut pages = std::mem::take(&mut self.cols[j].pages);
                    // Copy the tail page only if it has room.
                    let mut tail = match self.rows % self.page_rows {
                        0 => kind.empty_column(part.len().min(self.page_rows)),
                        _ => pages.pop().expect("a partial tail page").into_owned(),
                    };
                    kind.attach(&mut tail);
                    let mut at = 0;
                    while at < part.len() {
                        let take = (self.page_rows - tail.len()).min(part.len() - at);
                        extend_from(&mut tail, &part, at..at + take);
                        at += take;
                        if tail.len() == self.page_rows {
                            let room = (part.len() - at).min(self.page_rows);
                            let full = std::mem::replace(&mut tail, kind.empty_column(room));
                            pages.push(self.new_page(full));
                        }
                    }
                    if !tail.is_empty() {
                        pages.push(self.new_page(tail));
                    }
                    self.cols[j].kind = kind;
                    pages
                }
            };
            self.cols[j].pages = pages;
        }
        self.rows += added;
    }
}

fn ints(c: &Column) -> Option<&[i64]> {
    match c {
        Column::Int(v) | Column::Date(v) => Some(v),
        _ => None,
    }
}

fn texts(c: &Column) -> Option<&[Arc<str>]> {
    match c {
        Column::Text(v) => Some(v),
        _ => None,
    }
}

fn dict_codes(c: &Column) -> Option<&[u32]> {
    match c {
        Column::Dict { codes, .. } => Some(codes),
        _ => None,
    }
}

/// The pages of a column of `kind`, concatenated in the kind's
/// representation.
fn concat_pages(kind: &ColKind, pages: &[Arc<Column>]) -> Column {
    let mut out = kind.empty_column(pages.iter().map(|p| p.len()).sum());
    for page in pages {
        extend_from(&mut out, page, 0..page.len());
    }
    out
}

/// Appends `part[range]` to `tail`, a column of the same representation.
fn extend_from(tail: &mut Column, part: &Column, range: std::ops::Range<usize>) {
    match (tail, part) {
        (Column::Int(t), Column::Int(p)) | (Column::Date(t), Column::Date(p)) => {
            t.extend_from_slice(&p[range]);
        }
        (Column::Text(t), Column::Text(p)) => t.extend_from_slice(&p[range]),
        (Column::Dict { codes: t, .. }, Column::Dict { codes: p, .. }) => {
            t.extend_from_slice(&p[range]);
        }
        (Column::Mixed(t), Column::Mixed(p)) => t.extend_from_slice(&p[range]),
        _ => unreachable!("an appended part shares its column's representation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::Value;

    /// `batch` cut into `page_rows`-row pages of `pool`.
    fn paged(batch: &Batch, pool: &Arc<BufferPool>, page_rows: usize) -> PagedBatch {
        PagedBatch::held(batch.clone()).rehome(Some(pool), page_rows)
    }

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
            let paged = paged(&batch, &pool, 4);
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
    fn held_batches_are_one_shared_page_per_column() {
        let batch = sample_batch();
        let held = PagedBatch::held(batch.clone());
        assert_eq!((held.page_count(), held.pool().is_none()), (1, true));
        let back = held.to_batch();
        for (a, b) in back.columns().iter().zip(batch.columns()) {
            assert!(Arc::ptr_eq(a, b), "held pages are the batch's columns");
        }
        let idx = [22usize, 0, 7, 7];
        assert_eq!(held.gather(&idx), batch.gather(&idx));
        let pool = BufferPool::new(Some(64));
        let pooled = held.rehome(Some(&pool), 5);
        assert_eq!((pooled.page_count(), pooled.to_batch()), (5, batch.clone()));
        let again = pooled.rehome(None, 0);
        assert_eq!((again.page_count(), again.to_batch()), (1, batch));
    }

    #[test]
    fn gather_matches_resident_gather_across_page_boundaries() {
        let batch = sample_batch();
        let pool = BufferPool::new(Some(64));
        let paged = paged(&batch, &pool, 4);
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
            let paged = paged(&batch, &pool, page_rows);
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
        let paged = paged(&batch, &pool, 8);
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
        let paged = paged(&empty, &pool, 4);
        assert_eq!(paged.page_count(), 0);
        assert_eq!(paged.to_batch(), empty);
        assert_eq!(PagedBatch::held(empty.clone()).to_batch(), empty);
    }

    #[test]
    fn value_at_reads_through_the_pool() {
        let batch = sample_batch();
        let pool = BufferPool::new(Some(64));
        let paged = paged(&batch, &pool, 4);
        for i in [0usize, 5, 13, 22] {
            for c in 0..4 {
                assert_eq!(paged.value_at(c, i), batch.column(c).value(i));
            }
        }
    }

    #[test]
    fn prefix_shares_full_pages_and_slices_the_boundary() {
        let batch = sample_batch();
        let pool = BufferPool::unbounded();
        let paged = paged(&batch, &pool, 4);
        for rows in [0, 3, 4, 9, 23] {
            let prefix = paged.prefix(rows);
            let want = batch.columns().iter().map(|c| Arc::new(c.slice(0..rows)));
            let want = Batch::new(batch.attrs().to_vec(), want.collect());
            assert_eq!(prefix.to_batch(), want, "{rows} rows");
            for (p, c) in prefix.cols.iter().zip(&paged.cols) {
                for (a, b) in p.pages.iter().zip(&c.pages).take(rows / 4) {
                    assert!(Arc::ptr_eq(&a.pin(), &b.pin()), "a full page was copied");
                }
            }
        }
    }
}
