//! A small warehouse runtime tying the design together — the operational
//! side of the paper's Figure-1 architecture: base data arrives from the
//! member databases, materialized views are refreshed per period, and
//! queries (designed-for or ad hoc) are answered through the views.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mvdesign_algebra::{parse_query_with, Expr, ParseError, Value};
use mvdesign_catalog::{Catalog, RelName};
use mvdesign_core::{DesignResult, ViewCatalog};
use mvdesign_engine::{
    execute, measure, refresh_view_delta, split_appends, BufferPool, Database, ExecContext,
    ExecError, JoinAlgo, Table, DEFAULT_PAGE_ROWS,
};

pub use crate::result_cache::ResultCacheStats;
use crate::result_cache::{ResultCache, Versions};

/// Errors raised by [`Warehouse`] operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WarehouseError {
    /// SQL failed to parse.
    Parse(ParseError),
    /// Plan execution failed.
    Exec(ExecError),
    /// Rows were appended to a name that is not a base relation: the
    /// database holds no such table, or it is a materialized view.
    UnknownRelation(RelName),
    /// Appended rows do not fit the relation's schema (wrong arity or a
    /// value whose type mismatches the column it lands in).
    BadRows {
        /// The relation the rows were appended to.
        relation: RelName,
        /// What was wrong with the first offending row.
        reason: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Parse(e) => write!(f, "parse error: {e}"),
            WarehouseError::Exec(e) => write!(f, "execution error: {e}"),
            WarehouseError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            WarehouseError::BadRows { relation, reason } => {
                write!(f, "bad rows for `{relation}`: {reason}")
            }
        }
    }
}

impl Error for WarehouseError {}

impl From<ParseError> for WarehouseError {
    fn from(e: ParseError) -> Self {
        WarehouseError::Parse(e)
    }
}

impl From<ExecError> for WarehouseError {
    fn from(e: ExecError) -> Self {
        WarehouseError::Exec(e)
    }
}

/// An operational warehouse: base tables, the materialized views a
/// [`DesignResult`] chose, and query answering through them.
///
/// ```
/// use mvdesign::prelude::*;
/// use mvdesign::warehouse::Warehouse;
///
/// let scenario = mvdesign::workload::paper_example();
/// let design = Designer::new().design(&scenario.catalog, &scenario.workload)?;
/// let db = Generator::new().database(&scenario.catalog);
/// let mut warehouse = Warehouse::new(scenario.catalog, db, &design)
///     .expect("views materialize");
/// let answer = warehouse
///     .query("SELECT name FROM Customer WHERE city = 'v0'")
///     .expect("query answers");
/// # let _ = answer;
/// # Ok::<(), mvdesign::core::DesignError>(())
/// ```
#[derive(Debug)]
pub struct Warehouse {
    catalog: Arc<Catalog>,
    db: Database,
    views: Arc<ViewCatalog>,
    /// Views whose inputs changed since they were last (re)built.
    stale: BTreeSet<RelName>,
    /// Per-base-relation row counts at the last refresh — the appends since
    /// then are exactly the suffix past these marks (append-only capture).
    base_rows: BTreeMap<RelName, usize>,
    refreshes: u64,
    /// How stale views are brought up to date (default: [`RefreshPolicy::Delta`]).
    policy: RefreshPolicy,
    /// What the last refresh pass did per view.
    last_refresh: RefreshReport,
    /// The one configuration serve and refresh run under (default:
    /// unbounded memory; the paper's nested-loop discipline is [`measure`]'s
    /// charge, not a kernel). Its `mem_budget` is written only by
    /// [`Warehouse::set_mem_budget`], so it always agrees with `pool`.
    exec: ExecContext,
    /// Buffer pool backing paged tables when a memory budget is set.
    pool: Option<Arc<BufferPool>>,
    /// Content version of every stored relation: bumped by `append` (that
    /// base relation) and by `refresh` (each view it folds or recomputes).
    /// The warehouse is the only writer of `db`, so equal versions mean
    /// equal contents — what the result cache stamps its entries with.
    versions: Arc<Versions>,
    /// Answers kept per data version, shared with every snapshot.
    cache: Arc<ResultCache>,
}

/// How [`Warehouse::refresh`] brings a stale view up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Re-evaluate the view definition over the full base data (the paper's
    /// recomputation maintenance).
    Recompute,
    /// Fold only the appended deltas into the stored view
    /// ([`refresh_view_delta`]), falling back to recomputation for a view
    /// the appends cannot fold into (an `AVG`, or a grown γ below the root).
    /// A γ-view comes out bit-identical to [`RefreshPolicy::Recompute`]'s,
    /// row for row: its fold is a roll-up on the same aggregation kernel.
    /// An SPJ view is bag-equal: its fold appends the delta after the
    /// stored rows.
    #[default]
    Delta,
}

/// What one [`Warehouse::refresh`] pass did, per view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshReport {
    /// Views rebuilt from scratch (policy choice or delta fallback).
    pub recomputed: usize,
    /// Views maintained incrementally from append deltas.
    pub folded: usize,
    /// Views left untouched because none of their inputs changed.
    pub skipped: usize,
}

impl Warehouse {
    /// Builds a warehouse from base data and a finished design,
    /// materializing every chosen view immediately under the default
    /// [`ExecContext`].
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Exec`] when a view definition cannot be
    /// evaluated over `db`.
    pub fn new(
        catalog: Catalog,
        db: Database,
        design: &DesignResult,
    ) -> Result<Self, WarehouseError> {
        let views = ViewCatalog::from_design(design);
        let stale = views.views().iter().map(|(n, _)| n.clone()).collect();
        let mut warehouse = Self {
            catalog: Arc::new(catalog),
            db,
            views: Arc::new(views),
            stale,
            base_rows: BTreeMap::new(),
            refreshes: 0,
            policy: RefreshPolicy::default(),
            last_refresh: RefreshReport::default(),
            exec: ExecContext::default(),
            pool: None,
            versions: Arc::default(),
            cache: Arc::default(),
        };
        warehouse.refresh()?;
        Ok(warehouse)
    }

    // Exists for the frozen `benchmark/src/layers.rs`; goes with ROADMAP
    // item 1(e), beside `measure_paged`.
    #[doc(hidden)]
    pub fn new_with_join_algo(
        catalog: Catalog,
        db: Database,
        design: &DesignResult,
        _: JoinAlgo,
    ) -> Result<Self, WarehouseError> {
        Self::new(catalog, db, design)
    }

    /// The configuration serve and refresh currently run under.
    pub fn exec_context(&self) -> ExecContext {
        self.exec
    }

    /// Caps warehouse memory, returning the warehouse for chaining: every
    /// table moves into a [`BufferPool`] with this byte budget, serve and
    /// refresh stream pages through the pool, appends and refreshes write
    /// their pages into it, and the hash-join and aggregation operators
    /// spill to disk when their transient state outgrows the budget. `None`
    /// returns every table to held pages, one per column. Answers and
    /// stored views are bit-identical under every budget — only residency
    /// and wall-clock change. Under a budget the result cache keeps
    /// nothing: its bytes are not the pool's to account for.
    #[must_use]
    pub fn with_mem_budget(mut self, budget: Option<usize>) -> Self {
        self.set_mem_budget(budget);
        self
    }

    /// Sets the memory budget on an existing warehouse (see
    /// [`Warehouse::with_mem_budget`]).
    pub fn set_mem_budget(&mut self, budget: Option<usize>) {
        self.exec.mem_budget = budget;
        self.pool = budget.map(|bytes| BufferPool::new(Some(bytes)));
        self.db.rehome(self.pool.as_ref(), DEFAULT_PAGE_ROWS);
        if budget.is_some() {
            self.cache = Arc::default();
        }
    }

    /// The buffer pool backing paged tables, when a budget is set.
    pub fn buffer_pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// The base-plus-views database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The catalog queries are parsed against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The view registry.
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// Counters of the result cache this warehouse and its snapshots
    /// answer repeated queries from.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.cache.stats()
    }

    /// The content version of every stored relation written since the
    /// warehouse was built — bumped by each append to it and each refresh
    /// that rewrites it; what the result cache stamps its answers with.
    pub fn versions(&self) -> &BTreeMap<RelName, u64> {
        &self.versions
    }

    /// Rows appended to base relations since the last refresh — the data
    /// the stale views do not yet reflect.
    pub fn pending_rows(&self) -> usize {
        self.base_rows
            .iter()
            .map(|(name, mark)| {
                self.db
                    .table(name.as_str())
                    .map_or(0, |t| t.len().saturating_sub(*mark))
            })
            .sum()
    }

    /// An immutable, shareable picture of the warehouse's serve state:
    /// catalog, base-plus-views database and view registry, all behind
    /// `Arc`s. Taking a snapshot copies *no* table data — columns,
    /// dictionary value tables and page handles are `Arc`-shared with the
    /// live warehouse — so publishing one is a handful of pointer clones
    /// (O(tables), not O(rows)). A snapshot answers queries exactly like
    /// the warehouse did at the moment it was taken, no matter what the
    /// warehouse does afterwards: appends and refreshes replace tables in
    /// the live [`Database`] map but never mutate the shared columns.
    ///
    /// This is what the serving layer (`mvdesign-serve`) publishes to its
    /// reader tasks after every write — snapshot isolation for free out of
    /// the engine's copy-on-write column layout.
    pub fn snapshot(&self) -> WarehouseSnapshot {
        WarehouseSnapshot {
            catalog: Arc::clone(&self.catalog),
            db: Arc::new(self.db.clone()),
            views: Arc::clone(&self.views),
            exec: self.exec,
            versions: Arc::clone(&self.versions),
            cache: Arc::clone(&self.cache),
            version: 0,
            refreshes: self.refreshes,
            stale_views: self.stale.len(),
            pending_rows: self.pending_rows(),
        }
    }

    /// Whether any view's inputs changed since it was last (re)built.
    pub fn is_stale(&self) -> bool {
        !self.stale.is_empty()
    }

    /// The views whose inputs changed since the last refresh — exactly the
    /// ones the next [`Warehouse::refresh`] will touch.
    pub fn stale_views(&self) -> impl Iterator<Item = &RelName> {
        self.stale.iter()
    }

    /// How many refresh passes have run.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Sets the warehouse-wide maintenance policy. Stored views and answers
    /// are equal under every policy (row for row for γ-views, as bags for
    /// SPJ views) — only refresh work changes.
    pub fn set_refresh_policy(&mut self, policy: RefreshPolicy) {
        self.policy = policy;
    }

    /// What the most recent refresh pass did, per view.
    pub fn last_refresh(&self) -> RefreshReport {
        self.last_refresh
    }

    /// Appends rows to a base relation (a member-database load). Views
    /// reading the relation go stale until [`Warehouse::refresh`] runs —
    /// the paper's once-per-period update model; views over other relations
    /// stay fresh. Appends go straight into the table's pages
    /// ([`Table::extend_rows`]): at most each column's tail page is copied,
    /// and new pages land in the pool under a budget.
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::UnknownRelation`] when the relation is not
    /// a base relation — no table holds it, or it is a materialized view,
    /// which only [`Warehouse::refresh`] writes — and
    /// [`WarehouseError::BadRows`] when a row's arity or a value's type
    /// mismatches the table schema (nothing is appended).
    pub fn append(
        &mut self,
        relation: impl Into<RelName>,
        rows: Vec<Vec<Value>>,
    ) -> Result<(), WarehouseError> {
        let relation = relation.into();
        let is_view = self.views.views().iter().any(|(name, _)| *name == relation);
        let existing = self
            .db
            .table_mut(relation.as_str())
            .filter(|_| !is_view)
            .ok_or_else(|| WarehouseError::UnknownRelation(relation.clone()))?;
        if let Some(reason) = reject_rows(existing, &rows) {
            return Err(WarehouseError::BadRows { relation, reason });
        }
        if rows.is_empty() {
            return Ok(());
        }
        existing.extend_rows(rows);
        self.bump_version(&relation);
        for (name, definition) in self.views.views() {
            if definition.base_relations().contains(&relation) {
                self.stale.insert(name.clone());
            }
        }
        Ok(())
    }

    /// Brings every stale view up to date and snapshots the base state the
    /// views now reflect. Fresh views are skipped outright; stale ones are
    /// maintained per the [`RefreshPolicy`] — incrementally folding the
    /// appended deltas where the view allows, recomputing otherwise.
    /// Reports what happened per view.
    ///
    /// Views keep the engine's columnar layout: dictionary-encoded text
    /// columns move by `Arc` clone, so a materialized view shares its value
    /// tables with the base tables it was computed from — refreshing copies
    /// codes, never strings. An SPJ fold appends to the stored view's
    /// pages; under a budget every other new view is written into the pool
    /// while it is staged. A pass commits every view or none: a failed pass
    /// leaves views, staleness, versions and append marks as they were, so
    /// its retry folds the same appends into the same stored views.
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Exec`] when a view definition fails.
    pub fn refresh(&mut self) -> Result<RefreshReport, WarehouseError> {
        let mut report = RefreshReport::default();
        // `old` shares every pre-refresh page: staging adds no high-water.
        let (old, deltas) = split_appends(&self.db, &self.base_rows);
        let mut staged = Vec::new();
        for (name, definition) in self.views.views() {
            if !self.stale.contains(name) && self.db.table(name.as_str()).is_some() {
                report.skipped += 1;
                continue;
            }
            let folded = match (self.policy, old.table(name.as_str())) {
                (RefreshPolicy::Delta, Some(table)) => {
                    refresh_view_delta(table, definition, &old, &deltas, &self.exec)?
                }
                _ => None,
            };
            let mut table = match folded {
                Some(table) => {
                    report.folded += 1;
                    table
                }
                None => {
                    report.recomputed += 1;
                    let result = execute(definition, &self.db, &self.exec)?;
                    Table::from_batch(name.clone(), result.into_batch())
                }
            };
            if let Some(pool) = &self.pool {
                if !table.pool().is_some_and(|home| Arc::ptr_eq(home, pool)) {
                    table.rehome(Some(pool), DEFAULT_PAGE_ROWS);
                }
            }
            staged.push(table);
        }
        for table in staged {
            self.bump_version(table.name());
            self.db.insert_table(table);
        }
        self.snapshot_base_rows();
        self.stale.clear();
        self.refreshes += 1;
        self.last_refresh = report;
        Ok(report)
    }

    /// Marks the stored contents of `relation` as changed.
    fn bump_version(&mut self, relation: &RelName) {
        *Arc::make_mut(&mut self.versions)
            .entry(relation.clone())
            .or_insert(0) += 1;
    }

    /// Records the per-relation row counts the views now reflect; the next
    /// refresh treats anything past these marks as the append delta.
    fn snapshot_base_rows(&mut self) {
        let views: BTreeSet<&RelName> = self.views.views().iter().map(|(n, _)| n).collect();
        self.base_rows = self
            .db
            .iter()
            .filter(|(name, _)| !views.contains(name))
            .map(|(name, table)| (name.clone(), table.len()))
            .collect();
    }

    /// Answers a SQL query, routing it through the materialized views
    /// wherever one contains part of it ([`ViewCatalog::route`]). An answer
    /// read from a view reflects the last [`Warehouse::refresh`] —
    /// [`Warehouse::pending_rows`] says how much it lacks — exactly like a
    /// merged plan's. SQL text is an ad hoc question: its plan runs every
    /// time; parse it once and ask through [`Warehouse::query_expr`] to
    /// have a repeated question answered from the result cache.
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Parse`] for bad SQL and
    /// [`WarehouseError::Exec`] for execution failures.
    pub fn query(&self, sql: &str) -> Result<Table, WarehouseError> {
        let expr = parse_query_with(sql, &self.catalog)?;
        route_and_execute(&self.views, &self.db, &self.exec, None, &expr).map(|(table, _)| table)
    }

    /// Answers an already-built expression through the views. Asked again
    /// before the stored relations its plan reads have changed, it is
    /// answered from the result cache — unless a memory budget is set (see
    /// [`Warehouse::with_mem_budget`]).
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Exec`] for execution failures.
    pub fn query_expr(&self, expr: &Arc<Expr>) -> Result<Table, WarehouseError> {
        let kept = kept_answers(&self.exec, &self.cache, &self.versions);
        route_and_execute(&self.views, &self.db, &self.exec, kept, expr).map(|(table, _)| table)
    }
}

/// The result cache with the asker's relation versions, when the asker may
/// use it: not under a memory budget, because the budget bounds what the
/// warehouse holds resident and kept answers sit outside the buffer pool
/// that accounts for it.
fn kept_answers<'a>(
    exec: &ExecContext,
    cache: &'a ResultCache,
    versions: &'a Versions,
) -> Option<(&'a ResultCache, &'a Versions)> {
    exec.mem_budget.is_none().then_some((cache, versions))
}

/// The one query path both [`Warehouse`] and [`WarehouseSnapshot`] serve
/// through: with `kept` (the result cache and the asker's relation
/// versions), answer from the cache when it holds `expr` computed over the
/// asker's data; otherwise route the expression through the materialized
/// views, run the batch engine under the configured context and, with
/// `kept`, keep the answer. The flag says whether the cache answered.
///
/// The view registry is fixed for a warehouse's life, so the routed plan is
/// a function of `expr` alone and a hit skips routing too.
fn route_and_execute(
    views: &ViewCatalog,
    db: &Database,
    exec: &ExecContext,
    kept: Option<(&ResultCache, &Versions)>,
    expr: &Arc<Expr>,
) -> Result<(Table, bool), WarehouseError> {
    if let Some(table) = kept.and_then(|(cache, versions)| cache.get(expr, versions)) {
        return Ok((table, true));
    }
    let routed = views.rewrite(expr);
    let table = execute(&routed, db, exec)?;
    if let Some((cache, versions)) = kept {
        cache.put(expr, &routed, versions, &table);
    }
    Ok((table, false))
}

/// An immutable picture of a warehouse's serve state, produced by
/// [`Warehouse::snapshot`].
///
/// A snapshot owns nothing but `Arc`s: the catalog, the base-plus-views
/// [`Database`] and the [`ViewCatalog`] are all shared with the warehouse
/// that produced it (and with every other snapshot), so clones and
/// publishes are pointer work. It answers queries with the same routing
/// and execution context as the source warehouse — and keeps
/// answering from *its* state forever, however the source moves on.
///
/// The `version` field is a publish sequence number for whoever manages a
/// chain of snapshots (the serving layer tags each published snapshot with
/// a monotonically increasing version; [`Warehouse::snapshot`] itself
/// always returns version 0).
#[derive(Debug, Clone)]
pub struct WarehouseSnapshot {
    catalog: Arc<Catalog>,
    db: Arc<Database>,
    views: Arc<ViewCatalog>,
    exec: ExecContext,
    /// The source warehouse's relation versions when the snapshot was taken.
    versions: Arc<Versions>,
    cache: Arc<ResultCache>,
    version: u64,
    refreshes: u64,
    stale_views: usize,
    pending_rows: usize,
}

impl WarehouseSnapshot {
    /// Answers a SQL query against the snapshot's state, routing through
    /// the materialized views exactly like [`Warehouse::query`].
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Parse`] for bad SQL and
    /// [`WarehouseError::Exec`] for execution failures.
    pub fn query(&self, sql: &str) -> Result<Table, WarehouseError> {
        let expr = parse_query_with(sql, &self.catalog)?;
        route_and_execute(&self.views, &self.db, &self.exec, None, &expr).map(|(table, _)| table)
    }

    /// Answers an already-built expression against the snapshot's state
    /// (see [`Warehouse::query_expr`]).
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Exec`] for execution failures.
    pub fn query_expr(&self, expr: &Arc<Expr>) -> Result<Table, WarehouseError> {
        self.answer(expr).map(|(table, _)| table)
    }

    /// [`WarehouseSnapshot::query_expr`], also saying whether the answer
    /// came from the result cache (`true`) or the plan ran (`false`).
    ///
    /// # Errors
    ///
    /// Returns [`WarehouseError::Exec`] for execution failures.
    pub fn answer(&self, expr: &Arc<Expr>) -> Result<(Table, bool), WarehouseError> {
        let kept = kept_answers(&self.exec, &self.cache, &self.versions);
        route_and_execute(&self.views, &self.db, &self.exec, kept, expr)
    }

    /// Counters of the result cache, shared with the source warehouse and
    /// every other snapshot of it.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.cache.stats()
    }

    /// The snapshot's (frozen) base-plus-views database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The catalog queries are parsed against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The view registry routing queries.
    pub fn views(&self) -> &ViewCatalog {
        &self.views
    }

    /// The publish sequence number assigned by the layer that published
    /// this snapshot (0 straight out of [`Warehouse::snapshot`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Tags the snapshot with a publish sequence number (the serving
    /// layer's linearization point), returning it for chaining.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// How many refresh passes the source warehouse had run.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// How many views were stale (inputs changed, not yet refreshed) when
    /// the snapshot was taken.
    pub fn stale_views(&self) -> usize {
        self.stale_views
    }

    /// Rows appended to base relations but not yet folded into the views
    /// when the snapshot was taken — the answer-visible staleness of
    /// view-routed queries served from this snapshot.
    pub fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// Whether any view's inputs had changed since its last rebuild.
    pub fn is_stale(&self) -> bool {
        self.stale_views > 0
    }
}

// The serving layer shares snapshots (and the types inside them) across
// reader threads; catch a future non-`Send`/`Sync` field at the PR that
// introduces it, not in the async layer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WarehouseSnapshot>();
    assert_send_sync::<Database>();
    assert_send_sync::<Table>();
    assert_send_sync::<BufferPool>();
    assert_send_sync::<Catalog>();
    assert_send_sync::<ViewCatalog>();
    assert_send_sync::<Warehouse>();
};

/// Checks appended rows against a table's schema before any mutation:
/// every row must match the header arity, and every value must fit the
/// column it lands in ([`Table::admits`]: typed columns accept their own
/// variant; `Mixed` columns and empty tables accept anything). Returns a
/// description of the first offence, `None` when the rows are clean.
fn reject_rows(table: &Table, rows: &[Vec<Value>]) -> Option<String> {
    let attrs = table.attrs();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != attrs.len() {
            return Some(format!(
                "row {i} has arity {} but `{}` has {} attributes",
                row.len(),
                table.name(),
                attrs.len()
            ));
        }
        for (j, value) in row.iter().enumerate() {
            if !table.admits(j, value) {
                return Some(format!(
                    "row {i} value {value:?} does not fit column `{}`",
                    attrs[j]
                ));
            }
        }
    }
    None
}

/// Measured cost of one operating period: every workload query executed
/// through the views (weighted by its frequency) plus one refresh of every
/// view, all counted in *observed* simulated block I/O rather than estimates.
///
/// This is the end-to-end validation of the paper's objective function: run
/// the same period under different view sets and compare what the engine
/// actually reads and writes.
///
/// # Errors
///
/// Returns [`WarehouseError`] when a query or view fails to execute.
pub fn measured_period_cost(
    workload: &mvdesign_core::Workload,
    views: &ViewCatalog,
    db: &Database,
    records_per_block: f64,
) -> Result<MeasuredPeriod, WarehouseError> {
    let queries = workload.queries().iter().map(|q| (q.frequency(), q.root()));
    measured_period(views, queries, db, records_per_block)
}

/// Measured period cost of a finished design: the design's views serve the
/// *merged* query plans (the ones the MVPP computes), so shared
/// subexpressions route through the stored views exactly as the designer
/// assumed.
///
/// # Errors
///
/// Returns [`WarehouseError`] when a query or view fails to execute.
pub fn measured_design_cost(
    design: &DesignResult,
    db: &Database,
    records_per_block: f64,
) -> Result<MeasuredPeriod, WarehouseError> {
    let mvpp = design.mvpp.mvpp();
    let queries = mvpp
        .roots()
        .iter()
        .map(|(_, fq, root)| (*fq, mvpp.node(*root).expr()));
    let views = ViewCatalog::from_design(design);
    measured_period(&views, queries, db, records_per_block)
}

/// One refresh of every view, then every `(frequency, plan)` routed through
/// the views, counted under the paper's discipline: [`measure`] charges a
/// join `b(L)·b(R)`, the nested loop's reads, whatever kernel produced it.
fn measured_period<'a>(
    views: &ViewCatalog,
    queries: impl Iterator<Item = (f64, &'a Arc<Expr>)>,
    db: &Database,
    records_per_block: f64,
) -> Result<MeasuredPeriod, WarehouseError> {
    let ctx = ExecContext::default();
    // Materialize the views into a working copy so queries can read them.
    let mut working = db.clone();
    let mut maintenance_io = 0.0;
    for (name, definition) in views.views() {
        let (result, io) = measure(definition, &working, records_per_block, &ctx)?;
        maintenance_io += io.total();
        working.insert_table(Table::from_batch(name.clone(), result.into_batch()));
    }
    let mut query_io = 0.0;
    for (frequency, plan) in queries {
        let (_, io) = measure(&views.rewrite(plan), &working, records_per_block, &ctx)?;
        query_io += frequency * io.total();
    }
    Ok(MeasuredPeriod {
        query_io,
        maintenance_io,
        total_io: query_io + maintenance_io,
    })
}

/// Observed block I/O of one simulated period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPeriod {
    /// Frequency-weighted I/O of answering every workload query.
    pub query_io: f64,
    /// I/O of refreshing every materialized view once.
    pub maintenance_io: f64,
    /// `query_io + maintenance_io`.
    pub total_io: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_core::Designer;
    use mvdesign_engine::{Generator, GeneratorConfig};
    use mvdesign_workload::paper_example;

    fn warehouse() -> Warehouse {
        let scenario = paper_example();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("designs");
        let db = Generator::with_config(GeneratorConfig {
            seed: 77,
            scale: 0.003,
            max_rows: 250,
        })
        .database(&scenario.catalog);
        Warehouse::new(scenario.catalog, db, &design).expect("builds")
    }

    #[test]
    fn views_are_materialized_at_startup() {
        let w = warehouse();
        assert!(!w.is_stale());
        assert_eq!(w.refreshes(), 1);
        for (name, _) in w.views().views() {
            assert!(
                w.database().table(name.as_str()).is_some(),
                "view {name} missing"
            );
        }
    }

    #[test]
    fn queries_answer_through_views_and_match_direct_execution() {
        let w = warehouse();
        let scenario = paper_example();
        for q in scenario.workload.queries() {
            let direct = execute(q.root(), w.database(), &ExecContext::default())
                .expect("direct executes")
                .canonicalized();
            let via = w
                .query_expr(q.root())
                .expect("warehouse answers")
                .canonicalized();
            assert_eq!(direct.rows(), via.rows(), "{} differs", q.name());
        }
    }

    #[test]
    fn appends_go_stale_and_refresh_catches_up() {
        let mut w = warehouse();
        let customer_attrs = w
            .database()
            .table("Customer")
            .expect("customer exists")
            .attrs()
            .to_vec();
        let row: Vec<Value> = customer_attrs
            .iter()
            .map(|a| match a.attr.as_str() {
                "Cid" => Value::Int(999_999),
                _ => Value::text("fresh"),
            })
            .collect();
        let before = w.query("SELECT name FROM Customer").expect("counts").len();
        w.append("Customer", vec![row]).expect("appends");
        assert!(w.is_stale());
        let after = w.query("SELECT name FROM Customer").expect("counts").len();
        assert_eq!(after, before + 1);
        w.refresh().expect("refreshes");
        assert!(!w.is_stale());
        assert_eq!(w.refreshes(), 2);
    }

    #[test]
    fn materialized_views_share_dictionary_value_tables_with_base_tables() {
        let w = warehouse();
        // Collect every base-table dictionary value table by pointer.
        let base_tables: Vec<_> = w
            .database()
            .iter()
            .filter(|(name, _)| w.views().views().iter().all(|(v, _)| v != *name))
            .flat_map(|(_, t)| t.batch().columns().iter())
            .filter_map(|c| c.dict_values().cloned())
            .collect();
        assert!(
            !base_tables.is_empty(),
            "generated base data carries dictionary columns"
        );
        let mut shared = 0usize;
        for (name, _) in w.views().views() {
            let view = w.database().table(name.as_str()).expect("view stored");
            for col in view.batch().columns() {
                if let Some(values) = col.dict_values() {
                    assert!(
                        base_tables
                            .iter()
                            .any(|b| std::sync::Arc::ptr_eq(b, values)),
                        "view {name} rebuilt a dictionary instead of sharing it"
                    );
                    shared += 1;
                }
            }
        }
        assert!(
            shared > 0,
            "no view carries a dictionary column — sharing untested"
        );
    }

    #[test]
    fn budgeted_warehouse_matches_resident_and_repages_on_refresh() {
        let resident = warehouse();
        // A budget far smaller than the data forces eviction on every scan.
        let mut budgeted = warehouse().with_mem_budget(Some(4 * 1024));
        assert_eq!(budgeted.exec_context().mem_budget, Some(4 * 1024));
        let pool = Arc::clone(budgeted.buffer_pool().expect("pool exists"));
        let scenario = paper_example();
        for q in scenario.workload.queries() {
            let a = resident.query_expr(q.root()).expect("resident");
            let b = budgeted.query_expr(q.root()).expect("budgeted");
            assert_eq!(a.batch(), b.batch(), "{} differs under budget", q.name());
        }
        assert!(
            pool.stats().misses > 0,
            "a 4 KiB pool over this data must evict and re-read pages"
        );
        // Refresh writes the views it rebuilds into the same pool; answers
        // stay identical.
        budgeted.refresh().expect("budgeted refresh");
        assert!(budgeted
            .buffer_pool()
            .is_some_and(|p| Arc::ptr_eq(p, &pool)));
        for q in scenario.workload.queries() {
            let a = resident.query_expr(q.root()).expect("resident");
            let b = budgeted.query_expr(q.root()).expect("refreshed budgeted");
            assert_eq!(a.batch(), b.batch(), "{} differs after refresh", q.name());
        }
        // Lifting the budget returns every table to held pages.
        budgeted.set_mem_budget(None);
        assert_eq!(budgeted.exec_context().mem_budget, None);
        assert!(budgeted.buffer_pool().is_none());
        for (name, t) in resident.database().iter() {
            assert_eq!(
                Some(t),
                budgeted.database().table(name.as_str()),
                "table {name} differs after returning resident"
            );
        }
    }

    #[test]
    fn unknown_relation_append_is_rejected() {
        let mut w = warehouse();
        assert!(matches!(
            w.append("Ghost", vec![]),
            Err(WarehouseError::UnknownRelation(_))
        ));
    }

    #[test]
    fn bad_arity_append_is_rejected_without_mutating() {
        let mut w = warehouse();
        let before = w.database().table("Customer").expect("exists").len();
        let err = w
            .append("Customer", vec![vec![Value::Int(1)]])
            .expect_err("short row rejected");
        assert!(matches!(err, WarehouseError::BadRows { .. }), "{err}");
        assert!(err.to_string().contains("arity"), "{err}");
        assert_eq!(
            w.database().table("Customer").expect("exists").len(),
            before,
            "rejected rows must not land"
        );
        assert!(!w.is_stale(), "rejected appends leave views fresh");
    }

    #[test]
    fn bad_type_append_is_rejected_without_mutating() {
        let mut w = warehouse();
        let arity = w
            .database()
            .table("Customer")
            .expect("exists")
            .attrs()
            .len();
        // Cid is an integer column; a text value must not degrade it.
        let row: Vec<Value> = (0..arity).map(|_| Value::text("oops")).collect();
        let err = w
            .append("Customer", vec![row])
            .expect_err("mistyped row rejected");
        assert!(matches!(err, WarehouseError::BadRows { .. }), "{err}");
        assert!(!w.is_stale());
    }

    #[test]
    fn empty_append_is_a_fresh_no_op() {
        let mut w = warehouse();
        w.append("Customer", vec![]).expect("empty append ok");
        assert!(!w.is_stale(), "no rows, no staleness");
    }

    #[test]
    fn staleness_is_per_view_and_refresh_skips_fresh_views() {
        let mut w = warehouse();
        let customer_views: Vec<RelName> = w
            .views()
            .views()
            .iter()
            .filter(|(_, d)| d.base_relations().contains(&RelName::new("Customer")))
            .map(|(n, _)| n.clone())
            .collect();
        let total_views = w.views().views().len();
        assert!(
            !customer_views.is_empty() && customer_views.len() < total_views,
            "fixture needs a view over Customer and one not over it"
        );
        let row = customer_row(&w);
        w.append("Customer", vec![row]).expect("appends");
        let stale: Vec<RelName> = w.stale_views().cloned().collect();
        assert_eq!(stale, customer_views, "only Customer-fed views go stale");
        let report = w.refresh().expect("refreshes");
        assert_eq!(
            report.skipped,
            total_views - customer_views.len(),
            "fresh views are not touched"
        );
        assert_eq!(report.folded + report.recomputed, customer_views.len());
        assert!(!w.is_stale());
    }

    #[test]
    fn delta_refresh_folds_appends_and_matches_recompute() {
        let mut delta = warehouse();
        let mut recompute = warehouse();
        recompute.set_refresh_policy(RefreshPolicy::Recompute);
        let rows: Vec<Vec<Value>> = (0..5).map(|_| customer_row(&delta)).collect();
        delta.append("Customer", rows.clone()).expect("appends");
        recompute.append("Customer", rows).expect("appends");
        let dr = delta.refresh().expect("delta refresh");
        let rr = recompute.refresh().expect("recompute refresh");
        assert!(
            dr.folded > 0,
            "SPJ view over Customer folds its delta: {dr:?}"
        );
        assert_eq!(rr.folded, 0, "Recompute policy never folds: {rr:?}");
        for (name, _) in delta.views().views() {
            let a = delta
                .database()
                .table(name.as_str())
                .expect("view stored")
                .canonicalized();
            let b = recompute
                .database()
                .table(name.as_str())
                .expect("view stored")
                .canonicalized();
            assert_eq!(a.rows(), b.rows(), "view {name} differs across policies");
        }
        let scenario = paper_example();
        for q in scenario.workload.queries() {
            let a = delta.query_expr(q.root()).expect("delta").canonicalized();
            let b = recompute
                .query_expr(q.root())
                .expect("recompute")
                .canonicalized();
            assert_eq!(a.rows(), b.rows(), "{} differs across policies", q.name());
        }
    }

    /// A fresh Customer row matching the generated schema.
    fn customer_row(w: &Warehouse) -> Vec<Value> {
        w.database()
            .table("Customer")
            .expect("customer exists")
            .attrs()
            .iter()
            .map(|a| match a.attr.as_str() {
                "Cid" => Value::Int(1_000_000),
                _ => Value::text("fresh"),
            })
            .collect()
    }

    #[test]
    fn bad_sql_is_reported_as_parse_error() {
        let w = warehouse();
        assert!(matches!(
            w.query("SELEC oops"),
            Err(WarehouseError::Parse(_))
        ));
    }

    #[test]
    fn snapshot_answers_like_the_warehouse_and_shares_columns() {
        let w = warehouse();
        let snap = w.snapshot();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.refreshes(), w.refreshes());
        assert!(!snap.is_stale());
        assert_eq!(snap.pending_rows(), 0);
        let scenario = paper_example();
        for q in scenario.workload.queries() {
            let a = w.query_expr(q.root()).expect("warehouse answers");
            let b = snap.query_expr(q.root()).expect("snapshot answers");
            assert_eq!(a.batch(), b.batch(), "{} differs", q.name());
        }
        // Zero-copy: every snapshot column is the warehouse's column, by
        // pointer — publishing a snapshot moves no data.
        for (name, t) in w.database().iter() {
            let s = snap.database().table(name.as_str()).expect("table shared");
            for (a, b) in t.batch().columns().iter().zip(s.batch().columns()) {
                assert!(Arc::ptr_eq(a, b), "{name} copied a column");
            }
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_appends_and_refreshes() {
        let mut w = warehouse();
        let before = w.snapshot().with_version(7);
        assert_eq!(before.version(), 7);
        let count_sql = "SELECT name FROM Customer";
        let count_at_snap = before.query(count_sql).expect("counts").len();
        w.append("Customer", vec![customer_row(&w)])
            .expect("appends");
        assert_eq!(w.pending_rows(), 1);
        assert_eq!(w.snapshot().stale_views(), w.stale_views().count());
        w.refresh().expect("refreshes");
        assert_eq!(w.pending_rows(), 0);
        // The held snapshot still answers from the old state…
        assert_eq!(
            before.query(count_sql).expect("counts").len(),
            count_at_snap,
            "snapshot must not see the append"
        );
        // …while the live warehouse (and any new snapshot) see the row.
        assert_eq!(w.query(count_sql).expect("counts").len(), count_at_snap + 1);
        assert_eq!(
            w.snapshot().query(count_sql).expect("counts").len(),
            count_at_snap + 1
        );
    }
}
