//! Tables and databases.
//!
//! A [`Table`] is a name over one shared [`PagedBatch`], the one
//! representation of relation data (see [`crate::storage`]): without a
//! memory budget its columns are held pages, one per column; under one they
//! are pages of a [`BufferPool`]. [`Table::rehome`] moves a table between
//! those homes; nothing else needs to know which it is. The engine streams
//! pages, while [`Table::batch`] and the row-major view ([`Table::rows`])
//! are materialised lazily and cached, so legacy callers and tests keep
//! working while the engine itself never touches tuples.
//! Dictionary-encoded text columns rehydrate the same way: strings are only
//! built (one `Arc` bump per cell) when the row façade is actually asked
//! for, never on the batch execution path.
//!
//! Tables are `Sync` and safe to share by reference across the serving
//! layer's reader threads: pages are immutable behind `Arc`s, and the lazy
//! caches are [`OnceLock`]s, so concurrent first calls race only on which
//! thread's (identical) materialisation wins publication. Cloning a table
//! shares its pages, so a snapshot of a database is O(tables); an append
//! copies at most each column's tail page and leaves every other page
//! shared with the snapshots that hold it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use mvdesign_algebra::{AttrRef, Value};
use mvdesign_catalog::RelName;

use crate::batch::Batch;
use crate::storage::{BufferPool, PagedBatch};

/// A materialized relation: a header of qualified attributes plus columnar
/// data (bag semantics — duplicates are kept).
#[derive(Debug)]
pub struct Table {
    name: RelName,
    pages: Arc<PagedBatch>,
    /// Lazily materialised batch backing [`Table::batch`].
    batch_cache: OnceLock<Batch>,
    /// Lazily materialised row-major view backing [`Table::rows`].
    row_cache: OnceLock<Vec<Vec<Value>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        // Cloning shares the pages and drops the caches — the clone
        // rebuilds them only if someone asks.
        Self::with_pages(self.name.clone(), Arc::clone(&self.pages))
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        // Materialisation is representation-exact, so a table equals its
        // twin in any home.
        self.name == other.name && self.batch() == other.batch()
    }
}

impl Eq for Table {}

impl Table {
    /// Creates a table from row-major tuples.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the header's — tables are
    /// built by the engine or by test fixtures, where that is a bug.
    pub fn new(
        name: impl Into<RelName>,
        attrs: impl IntoIterator<Item = AttrRef>,
        rows: Vec<Vec<Value>>,
    ) -> Self {
        let attrs: Vec<AttrRef> = attrs.into_iter().collect();
        Self::from_batch(name, Batch::from_rows(attrs, rows))
    }

    /// Wraps a finished batch as a named table: its columns become held
    /// pages, one per column (no data movement).
    pub fn from_batch(name: impl Into<RelName>, batch: Batch) -> Self {
        Self::with_pages(name, Arc::new(PagedBatch::held(batch)))
    }

    /// Names shared pages.
    pub(crate) fn with_pages(name: impl Into<RelName>, pages: Arc<PagedBatch>) -> Self {
        Self {
            name: name.into(),
            pages,
            batch_cache: OnceLock::new(),
            row_cache: OnceLock::new(),
        }
    }

    /// The table's name.
    pub fn name(&self) -> &RelName {
        &self.name
    }

    /// The qualified attribute header.
    pub fn attrs(&self) -> &[AttrRef] {
        self.pages.attrs()
    }

    /// The columnar data as one batch, materialised on first use and
    /// cached: held pages by `Arc` clone, pooled ones pinned and
    /// concatenated. The engine's execution spine never calls it (it
    /// streams pages instead); it exists for legacy callers, display, and
    /// the row façade.
    pub fn batch(&self) -> &Batch {
        self.batch_cache.get_or_init(|| self.pages.to_batch())
    }

    /// Consumes the table and returns its batch.
    pub fn into_batch(self) -> Batch {
        match self.batch_cache.into_inner() {
            Some(b) => b,
            None => self.pages.to_batch(),
        }
    }

    /// The table's pages.
    pub fn pages(&self) -> &Arc<PagedBatch> {
        &self.pages
    }

    /// The buffer pool the table's pages live in; `None` when they are
    /// held.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pages.pool()
    }

    /// Moves the table's pages to another home: `page_rows`-row pages of
    /// `pool`, where execution streams them (pin, evict, reload), or —
    /// without a pool — held, one page per column. Results are
    /// bit-identical in every home.
    pub fn rehome(&mut self, pool: Option<&Arc<BufferPool>>, page_rows: usize) {
        *self = Self::with_pages(
            self.name.clone(),
            Arc::new(self.pages.rehome(pool, page_rows)),
        );
    }

    /// The rows, materialised from the columns on first use and cached.
    pub fn rows(&self) -> &[Vec<Value>] {
        self.row_cache.get_or_init(|| self.batch().to_rows())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.pages.rows()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of an attribute in the header.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.pages.index_of(attr)
    }

    /// Whether appending `value` to column `col` keeps the column's
    /// representation: a typed column admits its own variant (a dictionary
    /// column any text), a `Mixed` column — or any column of an empty
    /// table — anything.
    pub fn admits(&self, col: usize, value: &Value) -> bool {
        self.pages.admits(col, value)
    }

    /// Appends row-major tuples to the columns (the warehouse's base-load
    /// path), each value as [`crate::Column::push`] would. Copies at most
    /// each column's tail page; new pages go where the table's live.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the header's.
    pub fn extend_rows(&mut self, rows: Vec<Vec<Value>>) {
        if rows.is_empty() {
            return;
        }
        self.mutate(|pages| pages.push_rows(rows));
    }

    /// Appends `part`'s rows (same header), each column as
    /// [`crate::Column::concat`] of the stored column and the part's would
    /// — how an SPJ view folds its insert delta.
    pub(crate) fn append(&mut self, part: &Batch) {
        if part.rows() > 0 {
            self.mutate(|pages| pages.append(part));
        }
    }

    /// Runs `write` on the table's own pages: the caches go first, so a
    /// held page is shared only with other holders of the table.
    fn mutate(&mut self, write: impl FnOnce(&mut PagedBatch)) {
        self.batch_cache = OnceLock::new();
        self.row_cache = OnceLock::new();
        write(Arc::make_mut(&mut self.pages));
    }

    /// A copy with rows sorted, for order-insensitive comparison in tests:
    /// two tables are bag-equal iff their canonicalized forms are equal.
    #[must_use]
    pub fn canonicalized(&self) -> Self {
        let mut rows = self.rows().to_vec();
        rows.sort();
        Self::new(self.name.clone(), self.attrs().to_vec(), rows)
    }

    /// Consumes the table and returns its rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        if let Some(rows) = self.row_cache.into_inner() {
            return rows;
        }
        match self.batch_cache.into_inner() {
            Some(b) => b.to_rows(),
            None => self.pages.to_batch().to_rows(),
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.attrs().iter().map(|a| a.to_string()).collect();
        writeln!(f, "{} [{} rows]", self.name, self.len())?;
        writeln!(f, "  {}", headers.join(" | "))?;
        for i in 0..self.len().min(20) {
            let cells: Vec<String> = self
                .batch()
                .columns()
                .iter()
                .map(|c| c.value(i).to_string())
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

/// A collection of named tables — the "member database" the warehouse reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    tables: BTreeMap<RelName, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a table under its own name.
    pub fn insert_table(&mut self, table: Table) -> Option<Table> {
        self.tables.insert(table.name().clone(), table)
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Removes a table, returning it.
    pub fn remove_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Looks up a table for in-place mutation (appends).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Iterates over tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &Table)> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the database has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Moves every table to another home (see [`Table::rehome`]).
    /// Queries over the database then stream pages through the pool, or
    /// read held pages — results stay bit-identical in every home.
    pub fn rehome(&mut self, pool: Option<&Arc<BufferPool>>, page_rows: usize) {
        for table in self.tables.values_mut() {
            table.rehome(pool, page_rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(
            "R",
            [AttrRef::new("R", "a"), AttrRef::new("R", "b")],
            vec![
                vec![Value::Int(2), Value::text("y")],
                vec![Value::Int(1), Value::text("x")],
            ],
        )
    }

    #[test]
    fn header_lookup() {
        let t = t();
        assert_eq!(t.index_of(&AttrRef::new("R", "b")), Some(1));
        assert_eq!(t.index_of(&AttrRef::new("R", "z")), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn canonicalized_sorts_rows() {
        let c = t().canonicalized();
        assert_eq!(c.rows()[0][0], Value::Int(1));
    }

    #[test]
    fn bag_equality_via_canonicalization() {
        let a = t();
        let mut rows = a.rows().to_vec();
        rows.reverse();
        let b = Table::new("R", a.attrs().to_vec(), rows);
        assert_ne!(a, b);
        assert_eq!(a.canonicalized(), b.canonicalized());
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let table = t();
        assert_eq!(
            table.rows(),
            [
                vec![Value::Int(2), Value::text("y")],
                vec![Value::Int(1), Value::text("x")],
            ]
        );
        assert_eq!(table.clone().into_rows(), table.rows());
    }

    #[test]
    fn extend_rows_appends_columnar() {
        let mut table = t();
        table.extend_rows(vec![vec![Value::Int(3), Value::text("z")]]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.rows()[2], vec![Value::Int(3), Value::text("z")]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ragged_rows_panic() {
        let _ = Table::new(
            "R",
            [AttrRef::new("R", "a")],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new();
        assert!(db.insert_table(t()).is_none());
        assert!(db.table("R").is_some());
        assert!(db.table("S").is_none());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn paged_table_round_trips_and_equals_its_resident_twin() {
        let resident = t();
        let mut paged = resident.clone();
        let pool = BufferPool::new(Some(64));
        paged.rehome(Some(&pool), 1);
        assert!(paged.pool().is_some());
        assert_eq!(paged.len(), 2);
        assert_eq!(paged, resident, "materialisation is representation-exact");
        assert_eq!(paged.rows(), resident.rows());
        paged.rehome(None, 1);
        assert!(paged.pool().is_none());
        assert_eq!(paged, resident);
    }

    #[test]
    fn database_page_out_pages_every_table() {
        let mut db = Database::new();
        db.insert_table(t());
        let pool = BufferPool::new(Some(128));
        db.rehome(Some(&pool), 1);
        assert!(db.table("R").expect("table exists").pool().is_some());
        db.rehome(None, 1);
        assert!(db.table("R").expect("table exists").pool().is_none());
    }

    #[test]
    fn admits_what_keeps_each_column_representation() {
        let table = t();
        assert!(table.admits(0, &Value::Int(9)));
        assert!(!table.admits(0, &Value::text("9")));
        assert!(table.admits(1, &Value::text("w")));
        assert!(!table.admits(1, &Value::Date(3)));
        let empty = Table::new("E", [AttrRef::new("E", "a")], Vec::new());
        assert!(empty.admits(0, &Value::text("anything")));
    }

    #[test]
    fn display_truncates() {
        let rows = (0..30)
            .map(|i| vec![Value::Int(i), Value::text("v")])
            .collect();
        let t = Table::new("R", [AttrRef::new("R", "a"), AttrRef::new("R", "b")], rows);
        let s = t.to_string();
        assert!(s.contains("… 10 more"));
    }
}
