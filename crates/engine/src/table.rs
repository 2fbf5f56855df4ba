//! In-memory tables and databases.
//!
//! Since the columnar refactor a [`Table`] is a thin façade over a
//! [`Batch`]: data lives in typed columns, and the row-major view that the
//! original API exposed ([`Table::rows`]) is materialised lazily and cached,
//! so legacy callers and tests keep working while the engine itself never
//! touches tuples. Dictionary-encoded text columns rehydrate the same way:
//! strings are only built (one `Arc` bump per cell) when the row façade is
//! actually asked for, never on the batch execution path.
//!
//! Tables are `Sync` and safe to share by reference across the serving
//! layer's reader threads: columns are immutable behind `Arc`s, and the
//! lazy row cache is a [`OnceLock`], so concurrent first calls to
//! [`Table::rows`] race only on which thread's (identical) materialisation
//! wins publication.
//!
//! Since the paged-storage refactor a table's data lives in one of two
//! homes: fully *resident* (the historical layout — one [`Batch`]) or
//! *paged* (a [`PagedBatch`] of fixed-size page handles into a shared
//! [`BufferPool`]). [`Table::page_out`] and [`Table::make_resident`] move
//! between the two; the engine's view-based spine streams paged tables
//! page-at-a-time, while legacy callers of [`Table::batch`] see a lazily
//! materialised (and cached) resident batch either way.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use mvdesign_algebra::{AttrRef, Value};
use mvdesign_catalog::RelName;

use crate::batch::Batch;
use crate::storage::{BufferPool, PagedBatch};

/// Where a table's columns live: resident in one batch, or cut into pages
/// owned by a buffer pool.
#[derive(Debug, Clone)]
enum TableData {
    Resident(Batch),
    Paged(Arc<PagedBatch>),
}

/// A materialized relation: a header of qualified attributes plus columnar
/// data (bag semantics — duplicates are kept).
#[derive(Debug)]
pub struct Table {
    name: RelName,
    data: TableData,
    /// Lazily materialised resident batch backing [`Table::batch`] when the
    /// data is paged (unused — never initialised — while resident).
    batch_cache: OnceLock<Batch>,
    /// Lazily materialised row-major view backing [`Table::rows`].
    row_cache: OnceLock<Vec<Vec<Value>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        // Cloning shares the (Arc'd) columns or page handles and drops the
        // caches — the clone rebuilds them only if someone asks.
        Self {
            name: self.name.clone(),
            data: self.data.clone(),
            batch_cache: OnceLock::new(),
            row_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        // Paged data compares through materialisation, which is
        // representation-exact — so a table equals its paged-out twin.
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

    /// Wraps a finished batch as a named table (no data movement).
    pub fn from_batch(name: impl Into<RelName>, batch: Batch) -> Self {
        Self {
            name: name.into(),
            data: TableData::Resident(batch),
            batch_cache: OnceLock::new(),
            row_cache: OnceLock::new(),
        }
    }

    /// Wraps an already-paged batch as a named table (shares the handles).
    pub fn from_paged(name: impl Into<RelName>, paged: Arc<PagedBatch>) -> Self {
        Self {
            name: name.into(),
            data: TableData::Paged(paged),
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
        match &self.data {
            TableData::Resident(b) => b.attrs(),
            TableData::Paged(p) => p.attrs(),
        }
    }

    /// The columnar data as one resident batch. For a paged table this
    /// pins and concatenates every page on first use and caches the result
    /// — the engine's execution spine never calls it on paged data (it
    /// streams pages instead); it exists for legacy callers, display, and
    /// the row façade.
    pub fn batch(&self) -> &Batch {
        match &self.data {
            TableData::Resident(b) => b,
            TableData::Paged(p) => self.batch_cache.get_or_init(|| p.to_batch()),
        }
    }

    /// Consumes the table and returns its batch (materialising if paged).
    pub fn into_batch(self) -> Batch {
        match self.data {
            TableData::Resident(b) => b,
            TableData::Paged(p) => match self.batch_cache.into_inner() {
                Some(b) => b,
                None => p.to_batch(),
            },
        }
    }

    /// The page handles, when the table is paged.
    pub(crate) fn paged(&self) -> Option<&Arc<PagedBatch>> {
        match &self.data {
            TableData::Resident(_) => None,
            TableData::Paged(p) => Some(p),
        }
    }

    /// The buffer pool owning this table's pages, when paged.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.paged().map(|p| p.pool())
    }

    /// Cuts the table's columns into pages owned by `pool` and drops the
    /// resident copy — subsequent execution streams pages (pin, evict,
    /// reload) instead of holding the data in memory. Results are
    /// bit-identical either way. Re-paging an already-paged table re-cuts
    /// it into the given pool.
    pub fn page_out(&mut self, pool: &Arc<BufferPool>, page_rows: usize) {
        let paged = PagedBatch::from_batch(self.batch(), pool, page_rows);
        self.data = TableData::Paged(Arc::new(paged));
        self.batch_cache = OnceLock::new();
        self.row_cache = OnceLock::new();
    }

    /// Brings a paged table fully back into memory, detaching it from its
    /// pool. A no-op on resident tables.
    pub fn make_resident(&mut self) {
        if matches!(self.data, TableData::Resident(_)) {
            return;
        }
        let batch = match self.batch_cache.take() {
            Some(b) => b,
            None => match &self.data {
                TableData::Paged(p) => p.to_batch(),
                TableData::Resident(_) => unreachable!("checked above"),
            },
        };
        self.data = TableData::Resident(batch);
    }

    /// The rows, materialised from the columns on first use and cached.
    pub fn rows(&self) -> &[Vec<Value>] {
        self.row_cache.get_or_init(|| self.batch().to_rows())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            TableData::Resident(b) => b.rows(),
            TableData::Paged(p) => p.rows(),
        }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of an attribute in the header.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        match &self.data {
            TableData::Resident(b) => b.index_of(attr),
            TableData::Paged(p) => p.index_of(attr),
        }
    }

    /// Appends row-major tuples to the columns (the warehouse's base-load
    /// path). A paged table is brought resident first — appends re-page via
    /// [`Table::page_out`] if the caller wants them paged again.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the header's.
    pub fn extend_rows(&mut self, rows: Vec<Vec<Value>>) {
        if rows.is_empty() {
            return;
        }
        self.make_resident();
        let TableData::Resident(batch) = &mut self.data else {
            unreachable!("make_resident leaves the table resident");
        };
        for row in rows {
            batch.push_row(row);
        }
        self.row_cache = OnceLock::new();
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
        match self.data {
            TableData::Resident(b) => b.to_rows(),
            TableData::Paged(p) => match self.batch_cache.into_inner() {
                Some(b) => b.to_rows(),
                None => p.to_batch().to_rows(),
            },
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

    /// Pages every table's columns out into `pool` (see [`Table::page_out`]).
    /// Queries over the database then stream pages through the pool —
    /// results stay bit-identical at any pool budget.
    pub fn page_out(&mut self, pool: &Arc<BufferPool>, page_rows: usize) {
        for table in self.tables.values_mut() {
            table.page_out(pool, page_rows);
        }
    }

    /// Pages out only the tables that are currently resident —
    /// already-paged tables keep their existing pages (and the pool keeps
    /// its statistics). The warehouse uses this to re-page freshly
    /// materialized views after a refresh without rebuilding untouched
    /// base-table pages.
    pub fn page_out_resident(&mut self, pool: &Arc<BufferPool>, page_rows: usize) {
        for table in self.tables.values_mut() {
            if table.pool().is_none() {
                table.page_out(pool, page_rows);
            }
        }
    }

    /// Brings every paged table fully back into memory (see
    /// [`Table::make_resident`]).
    pub fn make_resident(&mut self) {
        for table in self.tables.values_mut() {
            table.make_resident();
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
        paged.page_out(&pool, 1);
        assert!(paged.pool().is_some());
        assert_eq!(paged.len(), 2);
        assert_eq!(paged, resident, "materialisation is representation-exact");
        assert_eq!(paged.rows(), resident.rows());
        paged.make_resident();
        assert!(paged.pool().is_none());
        assert_eq!(paged, resident);
    }

    #[test]
    fn extend_rows_on_a_paged_table_goes_through_resident() {
        let mut table = t();
        let pool = BufferPool::unbounded();
        table.page_out(&pool, 1);
        table.extend_rows(vec![vec![Value::Int(3), Value::text("z")]]);
        assert_eq!(table.len(), 3);
        assert!(table.pool().is_none(), "appends land in a resident table");
        assert_eq!(table.rows()[2], vec![Value::Int(3), Value::text("z")]);
    }

    #[test]
    fn database_page_out_pages_every_table() {
        let mut db = Database::new();
        db.insert_table(t());
        let pool = BufferPool::new(Some(128));
        db.page_out(&pool, 1);
        assert!(db.table("R").expect("table exists").pool().is_some());
        db.make_resident();
        assert!(db.table("R").expect("table exists").pool().is_none());
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
