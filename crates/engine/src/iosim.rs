//! Block-I/O simulation: execute a plan while counting the block accesses
//! the paper's cost model charges for.
//!
//! Accounting is per *logical batch*: each operator runs as one columnar
//! kernel call and is charged for its whole input/output in one step.
//! Because every charge is a function of row counts alone, the totals are
//! bit-identical to what the tuple-at-a-time engine reported — and stay
//! pinned across storage changes (dictionary encoding, selection vectors,
//! paged storage) that alter how a batch is represented but not how many
//! rows flow through each operator.
//!
//! Charges are recorded per operator in plan (post-)order by the plan
//! walker, and the join kernel emits the nested loop's rows whatever the
//! memory budget, so the paper's nested-loop accounting
//! (`Ca(⋈) = b(L)·b(R)`) is charged here, per operator, and nowhere decided
//! by which kernel ran; a regression test pins the exact charges resident
//! and under a spill-forcing budget.
//!
//! Next to the modelled charges every [`OpCharge`] carries a *measured*
//! one: [`measure`] reads the database's buffer-pool miss counters after
//! each operator kernel and records the growth since the previous one. A
//! pool miss is a page actually decoded from memory-or-spill — the closest
//! physical analogue of the block read the model predicts. A database of
//! held pages has no pool, so its misses read 0.
//!
//! A second measurement is what each operator *held*: the bytes of its
//! keyed state and whether it spilled ([`OpCharge::state_bytes`],
//! [`OpCharge::spilled`]). The engine decides to spill from an upper bound
//! on that state; the charge reports what the tables actually held, so a
//! test can check that an operator that did not spill stayed within half
//! the budget — "does not spill" never silently becomes "does not fit".
//!
//! There is no second plan recursion here: [`measure`] runs the executor's
//! own walker ([`exec_view`]) and does its accounting in the per-operator
//! callback, so what is charged is by construction what was executed.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_algebra::Expr;

use crate::exec::{exec_view, op_label, ExecContext, ExecError, Held};
use crate::storage::{BufferPool, PagedBatch};
use crate::table::{Database, Table};

/// One operator's charge, recorded in plan (post-)order. The final report
/// is the fold of these in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCharge {
    /// The operator's display label (`σ`, `π`, `⋈`, `γ`).
    pub op: &'static str,
    /// Modelled blocks read (the paper's per-batch charge).
    pub read: f64,
    /// Modelled blocks written for the operator's output.
    pub written: f64,
    /// Buffer-pool misses observed while the operator's kernel ran —
    /// pages actually decoded from memory-or-spill. A measurement, not a
    /// model; always zero over a database of held pages.
    pub pool_misses: u64,
    /// Bytes of keyed state the operator held at once, by capacity — a
    /// join's build-side hash table, a γ's group table with its
    /// representatives and accumulators; for a spilled operator, its
    /// largest partition's. Selection and projection hold none; the rows
    /// an operator reads and returns are not state. A measurement, like
    /// `pool_misses`: under [`ExecContext::mem_budget`] an operator that did
    /// not spill holds at most half the budget.
    pub state_bytes: usize,
    /// Whether the operator went spill-partitioned to stay within the
    /// budget.
    pub spilled: bool,
}

impl OpCharge {
    /// Modelled total block accesses for this operator.
    pub fn total(&self) -> f64 {
        self.read + self.written
    }
}

/// Observed I/O of one plan execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IoReport {
    /// Blocks read by selections, projections and join scans.
    pub blocks_read: f64,
    /// Blocks written for operator outputs.
    pub blocks_written: f64,
    /// Rows in the final result.
    pub rows_out: usize,
    /// Per-operator charges in plan (post-)order.
    charges: Vec<OpCharge>,
}

impl IoReport {
    /// Total block accesses — the unit of every cost in the paper.
    pub fn total(&self) -> f64 {
        self.blocks_read + self.blocks_written
    }

    /// The per-operator charges in plan (post-)order.
    pub fn charges(&self) -> &[OpCharge] {
        &self.charges
    }

    /// Charges summed per operator label — one [`OpCharge`] per distinct
    /// `op`, keyed and ordered by the label. State is a high-water, not a
    /// sum: `state_bytes` is the largest of the label's operators, and
    /// `spilled` whether any of them spilled.
    pub fn per_operator(&self) -> BTreeMap<&'static str, OpCharge> {
        let mut per_op: BTreeMap<&'static str, OpCharge> = BTreeMap::new();
        for c in &self.charges {
            let e = per_op.entry(c.op).or_insert(OpCharge {
                op: c.op,
                ..OpCharge::default()
            });
            e.read += c.read;
            e.written += c.written;
            e.pool_misses += c.pool_misses;
            e.state_bytes = e.state_bytes.max(c.state_bytes);
            e.spilled |= c.spilled;
        }
        per_op
    }
}

/// Executes `expr` against `db` under `ctx`, counting block accesses under
/// the paper's operator disciplines with `records_per_block` records packed
/// per block:
///
/// * selection / projection / aggregation read every input block and write
///   their output;
/// * join reads every (outer block, inner block) pair — the nested-loop
///   charge, which is where the paper's join discipline lives; the kernel
///   is a hash join — and writes its output.
///
/// Returns the result table together with the I/O report, so callers can
/// check both *what* was computed and *how much* it cost. The observed cost
/// is what the `mvdesign-cost` crate's `MeasureCostModel` estimates,
/// evaluated on actual (not estimated) cardinalities. Its `PaperCostModel`
/// differs for σ and π: it charges `b(in)` only, where these charges add
/// `b(out)`. Charges are per logical batch —
/// functions of row counts alone — so they are identical for every context;
/// each operator's observed buffer-pool misses (see the module docs) sit
/// next to them. Pools are discovered from the database's paged tables.
///
/// # Errors
///
/// Propagates [`ExecError`] from plan execution.
pub fn measure(
    expr: &Arc<Expr>,
    db: &Database,
    records_per_block: f64,
    ctx: &ExecContext,
) -> Result<(Table, IoReport), ExecError> {
    let mut pools: Vec<&Arc<BufferPool>> = Vec::new();
    for (_, table) in db.iter() {
        if let Some(pool) = table.pool() {
            if !pools.iter().any(|p| Arc::ptr_eq(p, pool)) {
                pools.push(pool);
            }
        }
    }
    let pool_misses = || pools.iter().map(|p| p.stats().misses).sum::<u64>();
    let bf = records_per_block.max(1.0);
    // Blocks occupied by `rows` records at `bf` records per block.
    let blocks = |rows: usize| (rows as f64 / bf).ceil();

    let mut report = IoReport::default();
    let mut misses_so_far = pool_misses();
    let result = exec_view(
        expr,
        db,
        ctx,
        &mut |op: &Expr, inputs: &[&PagedBatch], out: &PagedBatch, held: Held| {
            // Scans pin no page, so everything the pools missed since the
            // previous operator finished belongs to this operator's kernel.
            let misses_now = pool_misses();
            let charge = OpCharge {
                op: op_label(op),
                // One input reads its blocks; a join reads every block pair.
                read: inputs.iter().map(|v| blocks(v.rows())).product(),
                written: blocks(out.rows()),
                pool_misses: misses_now - misses_so_far,
                state_bytes: held.state_bytes,
                spilled: held.spilled,
            };
            misses_so_far = misses_now;
            report.blocks_read += charge.read;
            report.blocks_written += charge.written;
            report.charges.push(charge);
        },
    )?;
    let batch = result.to_batch();
    report.rows_out = batch.rows();
    let table = match &**expr {
        Expr::Base(name) => Table::from_batch(name.clone(), batch),
        _ => Table::from_batch(op_label(expr), batch),
    };
    Ok((table, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate, Value};

    /// Measures `e` at 10 records per block under the default context.
    fn measure10(e: &Arc<Expr>, db: &Database) -> (Table, IoReport) {
        measure(e, db, 10.0, &ExecContext::default()).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i % 10)])
            .collect();
        db.insert_table(Table::new(
            "R",
            [AttrRef::new("R", "id"), AttrRef::new("R", "k")],
            rows,
        ));
        let rows: Vec<Vec<Value>> = (0..50).map(|i| vec![Value::Int(i % 10)]).collect();
        db.insert_table(Table::new("S", [AttrRef::new("S", "k")], rows));
        db
    }

    #[test]
    fn select_reads_input_blocks() {
        let e = Expr::select(
            Expr::base("R"),
            Predicate::cmp(AttrRef::new("R", "id"), CompareOp::Lt, 10),
        );
        let (out, io) = measure10(&e, &db());
        assert_eq!(out.len(), 10);
        assert_eq!(io.blocks_read, 10.0); // 100 rows / 10 per block
        assert_eq!(io.blocks_written, 1.0); // 10 rows out
        assert_eq!(io.total(), 11.0);
    }

    #[test]
    fn join_reads_block_pairs() {
        let e = Expr::join(
            Expr::base("R"),
            Expr::base("S"),
            JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
        );
        let (out, io) = measure10(&e, &db());
        assert_eq!(out.len(), 500); // 100 × 50 / 10
        assert_eq!(io.blocks_read, 10.0 * 5.0);
        assert_eq!(io.blocks_written, 50.0);
    }

    #[test]
    fn measured_result_matches_plain_execution() {
        let e = Expr::join(
            Expr::base("R"),
            Expr::base("S"),
            JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
        );
        let (out, _) = measure10(&e, &db());
        let plain = execute(&e, &db(), &ExecContext::default()).unwrap();
        assert_eq!(out.canonicalized().rows(), plain.canonicalized().rows());
    }

    #[test]
    fn pushed_down_selection_costs_less() {
        let filter = Predicate::cmp(AttrRef::new("R", "id"), CompareOp::Lt, 10);
        let on = JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k"));
        let late = Expr::select(
            Expr::join(Expr::base("R"), Expr::base("S"), on.clone()),
            filter.clone(),
        );
        let early = Expr::join(Expr::select(Expr::base("R"), filter), Expr::base("S"), on);
        let (a, io_late) = measure10(&late, &db());
        let (b, io_early) = measure10(&early, &db());
        assert_eq!(a.canonicalized().rows(), b.canonicalized().rows());
        assert!(io_early.total() < io_late.total());
    }

    #[test]
    fn rows_out_reported() {
        let e = Expr::project(Expr::base("S"), [AttrRef::new("S", "k")]);
        let (_, io) = measure10(&e, &db());
        assert_eq!(io.rows_out, 50);
    }

    #[test]
    fn per_operator_sums_charges_by_label() {
        // σ over π over σ: the selection label occurs twice (the algebra
        // constructor only fuses *adjacent* selections), so `per_operator`
        // has a duplicate label to sum.
        let e = Expr::select(
            Expr::project(
                Expr::select(
                    Expr::base("R"),
                    Predicate::cmp(AttrRef::new("R", "id"), CompareOp::Lt, 10),
                ),
                [AttrRef::new("R", "id")],
            ),
            Predicate::cmp(AttrRef::new("R", "id"), CompareOp::Lt, 5),
        );
        let (out, io) = measure10(&e, &db());
        assert_eq!(out.len(), 5);
        assert_eq!(io.charges().len(), 3);
        let per_op = io.per_operator();
        let select = per_op.get("σ").expect("two selections recorded");
        assert_eq!(select.read, 10.0 + 1.0);
        assert_eq!(select.written, 1.0 + 1.0);
        assert_eq!(select.pool_misses, 0);
        let project = per_op.get("π").expect("one projection recorded");
        assert_eq!(project.read, 1.0);
        let total: f64 = per_op.values().map(OpCharge::total).sum();
        assert_eq!(total, io.total());
    }

    /// Cold scan over a paged single-column table with
    /// `records_per_block = page_rows`: the paper's predicted block reads
    /// for the scan equal the page count, which equals the observed pool
    /// misses exactly (one column ⇒ one page per block).
    #[test]
    fn paged_scan_misses_match_predicted_blocks_when_block_is_a_page() {
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        let resident_db = {
            let mut db = Database::new();
            db.insert_table(Table::new("S", [AttrRef::new("S", "k")], rows.clone()));
            db
        };
        // A zero-budget pool spills every page at registration, so each
        // scan pin decodes it again — the fully cold case.
        let mut cold_db = resident_db.clone();
        let cold_pool = BufferPool::new(Some(0));
        cold_db.rehome(Some(&cold_pool), 10);

        let e = Expr::select(
            Expr::base("S"),
            Predicate::cmp(AttrRef::new("S", "k"), CompareOp::Lt, 1000),
        );
        let (out, io) = measure10(&e, &cold_db);
        assert_eq!(out.len(), 100);
        let select = io.per_operator()["σ"];
        assert_eq!(select.read, 10.0, "predicted: 100 rows / 10 per block");
        assert_eq!(
            select.pool_misses, 10,
            "observed: 10 cold pages decoded for the scan"
        );
        // The modelled charges are storage-independent.
        let (_, resident_io) = measure10(&e, &resident_db);
        assert_eq!(io.blocks_read, resident_io.blocks_read);
        assert_eq!(io.blocks_written, resident_io.blocks_written);
    }

    /// γ over σ over ⋈ — one operator of each charged kind above a join.
    fn three_operator_plan() -> Arc<Expr> {
        Expr::aggregate(
            Expr::select(
                Expr::join(
                    Expr::base("R"),
                    Expr::base("S"),
                    JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
                ),
                Predicate::cmp(AttrRef::new("R", "id"), CompareOp::Lt, 80),
            ),
            [AttrRef::new("R", "k")],
            [mvdesign_algebra::AggExpr::count_star("n")],
        )
    }

    /// The walker regression: the plan reports the exact per-operator
    /// charges in plan post-order, the exact totals and zero misses over the
    /// resident database — and the same modelled charges, with `execute`'s
    /// own result batch, when a 256-byte operator budget sends the join and
    /// the aggregation down their spill paths. What changes with the budget
    /// is what the two held: everything in memory unbounded, at most half
    /// the budget at a time under it.
    #[test]
    fn charges_are_exact_in_post_order_at_any_budget() {
        let e = three_operator_plan();
        let db = db();
        let (base_table, base_io) = measure10(&e, &db);
        let modelled = |io: &IoReport| -> Vec<(&str, f64, f64, u64)> {
            io.charges()
                .iter()
                .map(|c| (c.op, c.read, c.written, c.pool_misses))
                .collect()
        };
        assert_eq!(
            modelled(&base_io),
            [
                ("⋈", 10.0 * 5.0, 50.0, 0), // 100 × 50 rows, 5 matches per R row
                ("σ", 50.0, 40.0, 0),       // 500 rows in, id < 80 keeps 400
                ("γ", 40.0, 1.0, 0),        // 400 rows in, 10 groups out
            ]
        );
        assert_eq!(base_io.blocks_read, 140.0);
        assert_eq!(base_io.blocks_written, 91.0);
        assert_eq!(base_io.rows_out, 10);
        for mem_budget in [None, Some(256)] {
            let ctx = ExecContext { mem_budget };
            let (table, io) = measure(&e, &db, 10.0, &ctx).unwrap();
            assert_eq!(modelled(&io), modelled(&base_io), "{ctx:?}");
            assert_eq!(io.total(), base_io.total(), "{ctx:?}");
            assert_eq!(table.batch(), base_table.batch(), "{ctx:?}");
            let plain = execute(&e, &db, &ctx).unwrap();
            assert_eq!(table.batch(), plain.batch(), "{ctx:?}: measure ≠ execute");
            let [join, select, group] = io.charges() else {
                panic!("three operators")
            };
            assert_eq!((select.state_bytes, select.spilled), (0, false));
            for held in [join, group] {
                assert_eq!(held.spilled, mem_budget.is_some(), "{ctx:?}: {held:?}");
                assert!(held.state_bytes > 0, "{ctx:?}: {held:?}");
                assert!(held.state_bytes <= mem_budget.map_or(usize::MAX, |b| b / 2));
            }
        }
    }
}
