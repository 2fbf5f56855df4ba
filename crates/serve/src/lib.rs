//! Multi-client serving layer over the mvdesign [`Warehouse`] — the
//! operational side of the paper's Figure-1 architecture under load: many
//! concurrent analysts querying through the materialized views while
//! maintenance (loads and refreshes) runs in the background.
//!
//! # Architecture
//!
//! ```text
//!  clients ──┐  query tickets            ┌─ reader worker ─┐
//!  clients ──┼──────────► shared queue ──┼─ reader worker ─┼─► answers
//!  clients ──┘                           └─ reader worker ─┘
//!      │                                        ▲ Arc<WarehouseSnapshot>
//!      │  append / refresh tickets              │   (RwLock pointer swap)
//!      └──────────► write channel ──► writer task (owns the Warehouse)
//! ```
//!
//! **Snapshot isolation.** Readers never touch the live [`Warehouse`]:
//! every query executes against an immutable [`WarehouseSnapshot`] —
//! catalog, database and view registry behind `Arc`s, so taking and
//! publishing one is pointer work, never a data copy. The single writer
//! task applies `append`/`refresh` on the warehouse it owns and then
//! *publishes* the next snapshot by swapping one `Arc` behind a `RwLock`.
//! Readers hold that lock only long enough to clone the `Arc`, so they are
//! wait-free with respect to maintenance *work*: a refresh can rebuild
//! every view without a reader ever blocking on it, and a reader holding a
//! snapshot across a published refresh keeps seeing its old, internally
//! consistent state end-to-end.
//!
//! **Linearization.** Every applied write publishes exactly one snapshot
//! and bumps the publish version; every answer carries the version it was
//! served at. Concurrent execution is therefore equivalent to the
//! sequential history "apply writes in version order; answer each query at
//! its version" — which is exactly what the test battery replays against
//! a plain single-threaded [`Warehouse`].
//!
//! **Shutdown.** [`Server::shutdown`] drains: the queue closes to new
//! submissions, readers finish every in-flight and queued query, the
//! writer applies every accepted write, and the warehouse (with all
//! maintenance applied) is handed back to the caller.
//!
//! ```
//! use mvdesign::prelude::*;
//! use mvdesign::warehouse::Warehouse;
//! use mvdesign_serve::{Server, ServeConfig};
//!
//! let scenario = mvdesign::workload::paper_example();
//! let design = Designer::new().design(&scenario.catalog, &scenario.workload)?;
//! let db = Generator::new().database(&scenario.catalog);
//! let warehouse = Warehouse::new(scenario.catalog, db, &design).expect("views build");
//!
//! let server = Server::start(warehouse, ServeConfig::default());
//! let handle = server.handle();
//! let answer = handle
//!     .query("SELECT name FROM Customer WHERE city = 'v0'")
//!     .wait()
//!     .expect("query answers");
//! println!("{} rows at snapshot v{}", answer.table.len(), answer.version);
//! let _warehouse = server.shutdown(); // drains in-flight queries
//! # Ok::<(), mvdesign::core::DesignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;

pub use stats::{LatencySummary, ServeStats};

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvdesign::algebra::{Expr, Value};
use mvdesign::engine::Table;
use mvdesign::warehouse::{RefreshReport, Warehouse, WarehouseError, WarehouseSnapshot};

use stats::Histogram;

// Everything the serving layer shares across threads must be Send + Sync;
// a future non-Sync field in any of these types should fail *this* crate's
// compile, not surface as a distant trait-bound error in user code.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WarehouseSnapshot>();
    assert_send_sync::<mvdesign::engine::Database>();
    assert_send_sync::<mvdesign::engine::Table>();
    assert_send_sync::<mvdesign::engine::BufferPool>();
    assert_send_sync::<mvdesign::catalog::Catalog>();
    assert_send_sync::<mvdesign::core::ViewCatalog>();
    assert_send_sync::<Shared>();
    assert_send_sync::<ServeHandle>();
};
const _: () = {
    const fn assert_send<T: Send>() {}
    // The writer task takes the warehouse onto its own thread.
    assert_send::<Warehouse>();
};

/// Errors surfaced by serve tickets.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying warehouse rejected the request (parse, execution,
    /// unknown relation, bad rows …).
    Warehouse(WarehouseError),
    /// The server is shutting down (or has shut down) and no longer
    /// accepts work.
    ShutDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Warehouse(e) => write!(f, "{e}"),
            ServeError::ShutDown => write!(f, "server is shut down"),
        }
    }
}

impl Error for ServeError {}

impl From<WarehouseError> for ServeError {
    fn from(e: WarehouseError) -> Self {
        ServeError::Warehouse(e)
    }
}

/// Knobs for [`Server::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeConfig {
    /// Reader worker threads answering queries; `0` (the default) means
    /// one per host core.
    pub readers: usize,
}

/// A completed query: the result table plus the linearization point it was
/// answered at.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The query result.
    pub table: Table,
    /// Publish version of the snapshot that served the answer (0 = the
    /// state the server started from).
    pub version: u64,
    /// Views that were stale in that snapshot — nonzero means the answer
    /// may predate some appended rows.
    pub stale_views: usize,
    /// Appended-but-unfolded base rows at that snapshot
    /// (staleness-at-answer, in rows).
    pub pending_rows: usize,
    /// Submission-to-completion latency, measured at the worker.
    pub elapsed: Duration,
    /// Whether the warehouse's result cache answered (the plan did not
    /// run): the same expression — or SQL text parsing to it — had been
    /// asked since the stored relations its plan reads last changed. Never
    /// set under a memory budget.
    pub cached: bool,
}

/// A completed write: the publish version it created.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    /// Publish version of the snapshot this write produced — version `v`
    /// means the write is the `v`-th in the writer's total order.
    pub version: u64,
    /// What the refresh pass did, for refresh writes.
    pub refresh: Option<RefreshReport>,
    /// Submission-to-completion latency, measured at the writer.
    pub elapsed: Duration,
}

enum Request {
    Sql(String),
    Expr(Arc<Expr>),
}

struct QueryJob {
    request: Request,
    submitted: Instant,
    reply: Sender<Result<Answer, ServeError>>,
}

enum WriteOp {
    Append {
        relation: String,
        rows: Vec<Vec<Value>>,
        submitted: Instant,
        reply: Sender<Result<Applied, ServeError>>,
    },
    Refresh {
        submitted: Instant,
        reply: Sender<Result<Applied, ServeError>>,
    },
    Stop,
}

struct QueueState {
    jobs: VecDeque<QueryJob>,
    closed: bool,
}

struct Shared {
    /// The published snapshot readers serve from. Writers hold the write
    /// lock only for the pointer swap; readers only to clone the `Arc`.
    snapshot: RwLock<Arc<WarehouseSnapshot>>,
    queue: Mutex<QueueState>,
    available: Condvar,
    queries: AtomicU64,
    appends: AtomicU64,
    refreshes: AtomicU64,
    snapshots_published: AtomicU64,
    stale_answers: AtomicU64,
    max_staleness_rows: AtomicU64,
    latency: Histogram,
}

impl Shared {
    fn current_snapshot(&self) -> Arc<WarehouseSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    fn publish(&self, snapshot: WarehouseSnapshot) {
        let snapshot = Arc::new(snapshot);
        *self.snapshot.write().expect("snapshot lock poisoned") = snapshot;
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running serve session: the reader pool, the writer task and the
/// published snapshot chain. Hand out [`ServeHandle`]s with
/// [`Server::handle`]; recover the warehouse with [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    write_tx: Sender<WriteOp>,
    readers: Vec<JoinHandle<()>>,
    writer: JoinHandle<Warehouse>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .field(
                "snapshots_published",
                &self.snapshots_published.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Takes ownership of a warehouse and starts serving it: publishes the
    /// initial snapshot (version 0), spawns the reader pool and the writer
    /// task.
    pub fn start(warehouse: Warehouse, config: ServeConfig) -> Self {
        let readers = if config.readers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.readers
        };
        let shared = Arc::new(Shared {
            snapshot: RwLock::new(Arc::new(warehouse.snapshot().with_version(0))),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            queries: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            stale_answers: AtomicU64::new(0),
            max_staleness_rows: AtomicU64::new(0),
            latency: Histogram::new(),
        });
        let reader_handles = (0..readers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mvdesign-serve-reader-{i}"))
                    .spawn(move || reader_loop(&shared))
                    .expect("reader thread spawns")
            })
            .collect();
        let (write_tx, write_rx) = channel();
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mvdesign-serve-writer".into())
                .spawn(move || writer_loop(warehouse, &write_rx, &shared))
                .expect("writer thread spawns")
        };
        Self {
            shared,
            write_tx,
            readers: reader_handles,
            writer,
        }
    }

    /// A cloneable client handle into this server.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            write_tx: self.write_tx.clone(),
        }
    }

    /// Graceful shutdown: stops accepting new work, drains every queued
    /// and in-flight query, applies every accepted write, then returns the
    /// warehouse with all maintenance applied. Outstanding tickets stay
    /// redeemable after the server is gone.
    pub fn shutdown(self) -> Warehouse {
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            queue.closed = true;
        }
        self.shared.available.notify_all();
        for reader in self.readers {
            reader.join().expect("reader thread panicked");
        }
        // Readers are gone; anything already sent on the write channel is
        // still applied before the writer sees Stop (channel order).
        let _ = self.write_tx.send(WriteOp::Stop);
        self.writer.join().expect("writer thread panicked")
    }
}

/// A cloneable, thread-safe client of a [`Server`]: non-blocking
/// submission, ticket-based completion.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    write_tx: Sender<WriteOp>,
}

impl ServeHandle {
    /// Submits a SQL query; returns immediately with a ticket.
    pub fn query(&self, sql: &str) -> QueryTicket {
        self.submit(Request::Sql(sql.to_string()))
    }

    /// Submits an already-built expression; returns immediately with a
    /// ticket.
    pub fn query_expr(&self, expr: &Arc<Expr>) -> QueryTicket {
        self.submit(Request::Expr(Arc::clone(expr)))
    }

    fn submit(&self, request: Request) -> QueryTicket {
        let (reply, rx) = channel();
        let job = QueryJob {
            request,
            submitted: Instant::now(),
            reply,
        };
        {
            let mut queue = self.shared.queue.lock().expect("queue lock poisoned");
            if queue.closed {
                drop(queue);
                let _ = job.reply.send(Err(ServeError::ShutDown));
                return QueryTicket { rx };
            }
            queue.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        QueryTicket { rx }
    }

    /// Submits an append (a member-database load) to the writer task;
    /// returns immediately with a ticket. Applied writes publish a new
    /// snapshot — later queries see the rows, earlier snapshots never do.
    pub fn append(&self, relation: impl Into<String>, rows: Vec<Vec<Value>>) -> WriteTicket {
        let (reply, rx) = channel();
        let op = WriteOp::Append {
            relation: relation.into(),
            rows,
            submitted: Instant::now(),
            reply,
        };
        if let Err(std::sync::mpsc::SendError(WriteOp::Append { reply, .. })) =
            self.write_tx.send(op)
        {
            let _ = reply.send(Err(ServeError::ShutDown));
        }
        WriteTicket { rx }
    }

    /// Submits a refresh pass (bring every stale view up to date) to the
    /// writer task; returns immediately with a ticket.
    pub fn refresh(&self) -> WriteTicket {
        let (reply, rx) = channel();
        let op = WriteOp::Refresh {
            submitted: Instant::now(),
            reply,
        };
        if let Err(std::sync::mpsc::SendError(WriteOp::Refresh { reply, .. })) =
            self.write_tx.send(op)
        {
            let _ = reply.send(Err(ServeError::ShutDown));
        }
        WriteTicket { rx }
    }

    /// The currently published snapshot — pin it to read a stable state
    /// across any number of concurrent writes.
    pub fn snapshot(&self) -> Arc<WarehouseSnapshot> {
        self.shared.current_snapshot()
    }

    /// A point-in-time picture of serve activity.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.shared.queries.load(Ordering::Relaxed),
            appends: self.shared.appends.load(Ordering::Relaxed),
            refreshes: self.shared.refreshes.load(Ordering::Relaxed),
            snapshots_published: self.shared.snapshots_published.load(Ordering::Relaxed),
            stale_answers: self.shared.stale_answers.load(Ordering::Relaxed),
            max_staleness_rows: self.shared.max_staleness_rows.load(Ordering::Relaxed),
            latency: self.shared.latency.summary(),
            result_cache: self.shared.current_snapshot().result_cache_stats(),
        }
    }
}

/// A pending query result. Redeem with [`QueryTicket::wait`].
#[derive(Debug)]
pub struct QueryTicket {
    rx: Receiver<Result<Answer, ServeError>>,
}

impl QueryTicket {
    /// Blocks until the query completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Warehouse`] when the query itself fails;
    /// [`ServeError::ShutDown`] when the server stopped before accepting
    /// it.
    pub fn wait(self) -> Result<Answer, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShutDown))
    }
}

/// A pending write acknowledgement. Redeem with [`WriteTicket::wait`].
#[derive(Debug)]
pub struct WriteTicket {
    rx: Receiver<Result<Applied, ServeError>>,
}

impl WriteTicket {
    /// Blocks until the writer has applied (and published) the write.
    ///
    /// # Errors
    ///
    /// [`ServeError::Warehouse`] when the warehouse rejected the write
    /// (nothing was applied or published); [`ServeError::ShutDown`] when
    /// the server stopped before accepting it.
    pub fn wait(self) -> Result<Applied, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShutDown))
    }
}

/// One reader worker: pop a query, pin the current snapshot, execute,
/// account, reply. Exits when the queue is closed *and* drained — so
/// shutdown answers everything already accepted.
fn reader_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.closed {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock poisoned");
            }
        };
        let snapshot = shared.current_snapshot();
        let result = match &job.request {
            Request::Sql(sql) => snapshot.answer_sql(sql),
            Request::Expr(expr) => snapshot.answer(expr),
        };
        let elapsed = job.submitted.elapsed();
        shared.queries.fetch_add(1, Ordering::Relaxed);
        shared
            .latency
            .record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        if snapshot.is_stale() {
            shared.stale_answers.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .max_staleness_rows
            .fetch_max(snapshot.pending_rows() as u64, Ordering::Relaxed);
        let answer = result.map(|(table, cached)| Answer {
            table,
            cached,
            version: snapshot.version(),
            stale_views: snapshot.stale_views(),
            pending_rows: snapshot.pending_rows(),
            elapsed,
        });
        // A dropped ticket just means the client lost interest.
        let _ = job.reply.send(answer.map_err(ServeError::from));
    }
}

/// The writer task: applies writes in channel order on the warehouse it
/// owns, publishing one snapshot per applied write. Returns the warehouse
/// on Stop.
fn writer_loop(mut warehouse: Warehouse, rx: &Receiver<WriteOp>, shared: &Shared) -> Warehouse {
    let mut version = 0u64;
    while let Ok(op) = rx.recv() {
        match op {
            WriteOp::Stop => break,
            WriteOp::Append {
                relation,
                rows,
                submitted,
                reply,
            } => {
                let outcome = warehouse.append(relation, rows).map(|()| {
                    version += 1;
                    shared.publish(warehouse.snapshot().with_version(version));
                    shared.appends.fetch_add(1, Ordering::Relaxed);
                    Applied {
                        version,
                        refresh: None,
                        elapsed: submitted.elapsed(),
                    }
                });
                let _ = reply.send(outcome.map_err(ServeError::from));
            }
            WriteOp::Refresh { submitted, reply } => {
                let outcome = warehouse.refresh().map(|report| {
                    version += 1;
                    shared.publish(warehouse.snapshot().with_version(version));
                    shared.refreshes.fetch_add(1, Ordering::Relaxed);
                    Applied {
                        version,
                        refresh: Some(report),
                        elapsed: submitted.elapsed(),
                    }
                });
                let _ = reply.send(outcome.map_err(ServeError::from));
            }
        }
    }
    warehouse
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign::engine::{Generator, GeneratorConfig};
    use mvdesign::prelude::Designer;
    use mvdesign::workload::paper_example;

    fn small_warehouse() -> Warehouse {
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
    fn queries_answer_and_versions_advance_with_writes() {
        let server = Server::start(small_warehouse(), ServeConfig { readers: 2 });
        let h = server.handle();
        let sql = "SELECT name FROM Customer";
        let before = h.query(sql).wait().expect("answers");
        assert_eq!(before.version, 0);
        assert_eq!(before.pending_rows, 0);
        assert!(!before.cached, "the first ask of a text runs its plan");

        // A fresh Customer row matching the generated schema.
        let row: Vec<Value> = h
            .snapshot()
            .database()
            .table("Customer")
            .expect("customer exists")
            .attrs()
            .iter()
            .map(|a| match a.attr.as_str() {
                "Cid" => Value::Int(5_000_000),
                _ => Value::text("served"),
            })
            .collect();
        let applied = h.append("Customer", vec![row]).wait().expect("applies");
        assert_eq!(applied.version, 1);
        let after = h.query(sql).wait().expect("answers");
        assert!(after.version >= 1, "query after ack sees the append");
        assert_eq!(after.table.len(), before.table.len() + 1);
        assert!(after.stale_views > 0, "append leaves views stale");
        assert_eq!(after.pending_rows, 1);
        assert!(!after.cached, "the append changed the relation it reads");

        let refreshed = h.refresh().wait().expect("refreshes");
        assert_eq!(refreshed.version, 2);
        assert!(refreshed.refresh.is_some());
        let fresh = h.query(sql).wait().expect("answers");
        assert_eq!(fresh.stale_views, 0);
        assert_eq!(fresh.pending_rows, 0);
        assert!(fresh.cached, "the refresh left Customer as it was");
        assert_eq!(fresh.table.batch(), after.table.batch());

        let stats = h.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.snapshots_published, 2);
        assert!(stats.stale_answers >= 1);
        assert_eq!(stats.max_staleness_rows, 1);
        assert_eq!(stats.latency.count, 3);
        assert!(stats.latency.max_us > 0.0);

        let warehouse = server.shutdown();
        assert_eq!(warehouse.refreshes(), 2, "initial build + served refresh");
        assert!(!warehouse.is_stale());
    }

    #[test]
    fn rejected_writes_publish_nothing() {
        let server = Server::start(small_warehouse(), ServeConfig { readers: 1 });
        let h = server.handle();
        let err = h
            .append("Ghost", vec![vec![Value::Int(1)]])
            .wait()
            .expect_err("unknown relation");
        assert!(matches!(
            err,
            ServeError::Warehouse(WarehouseError::UnknownRelation(_))
        ));
        let err = h
            .append("Customer", vec![vec![Value::Int(1)]])
            .wait()
            .expect_err("bad arity");
        assert!(matches!(
            err,
            ServeError::Warehouse(WarehouseError::BadRows { .. })
        ));
        assert_eq!(h.stats().snapshots_published, 0);
        assert_eq!(h.snapshot().version(), 0);
        server.shutdown();
    }

    #[test]
    fn bad_sql_comes_back_as_a_parse_error() {
        let server = Server::start(small_warehouse(), ServeConfig { readers: 1 });
        let err = server
            .handle()
            .query("SELEC oops")
            .wait()
            .expect_err("parse fails");
        assert!(matches!(
            err,
            ServeError::Warehouse(WarehouseError::Parse(_))
        ));
        server.shutdown();
    }

    #[test]
    fn work_after_shutdown_is_rejected_but_tickets_survive() {
        let server = Server::start(small_warehouse(), ServeConfig { readers: 1 });
        let h = server.handle();
        let pending = h.query("SELECT name FROM Customer");
        let warehouse = server.shutdown();
        assert!(!warehouse.is_stale());
        // The pre-shutdown ticket was drained and answers.
        assert!(pending.wait().is_ok(), "in-flight query drains");
        // New work is rejected cleanly.
        assert!(matches!(
            h.query("SELECT name FROM Customer").wait(),
            Err(ServeError::ShutDown)
        ));
        assert!(matches!(
            h.append("Customer", vec![]).wait(),
            Err(ServeError::ShutDown)
        ));
        assert!(matches!(h.refresh().wait(), Err(ServeError::ShutDown)));
    }
}
