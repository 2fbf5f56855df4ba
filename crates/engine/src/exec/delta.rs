//! Delta-propagation execution: the engine half of incremental view
//! maintenance.
//!
//! The symbolic rules live in [`mvdesign_algebra::delta`]; this module runs
//! them over the batch kernels. [`execute_delta`] pushes per-relation
//! [`Delta<Batch>`]s through σ/π/⋈ (selections and projections apply to both
//! delta sides, joins expand via `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR` against the *old*
//! database), and [`refresh_view_delta`] turns one stored view plus the
//! deltas into the view's new contents. An SPJ view cancels its deletes by
//! tuple id and appends its inserts — an insert-only fold is a page append
//! to the stored view, which copies at most each column's tail page. A
//! γ-view is a roll-up on the query's own aggregation kernel, so a folded
//! γ-view is bit-identical to its recomputation. Everything runs under the
//! caller's [`ExecContext`]: the roll-up spills under a budget like any γ.
//!
//! Unsupported shapes (per the algebra rules) return `Ok(None)`: the caller
//! recomputes. That fallback is the contract — delta maintenance is an
//! optimization, never a semantics change.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_algebra::delta::{maintenance_plan, Delta, DeltaMode, MaintenancePlan};
use mvdesign_algebra::{AggExpr, AggFunc, AttrRef, Expr, ExprArena, RelName};

use super::{
    aggregate_batch, assign_group_ids, execute, join_batch, project_batch, select_batch,
    ExecContext, ExecError, GroupKeys,
};
use crate::batch::{Batch, Column};
use crate::table::{Database, Table};

/// Per-relation deltas feeding one refresh pass.
pub type DeltaMap = BTreeMap<RelName, Delta<Batch>>;

/// Splits a database that has only *grown* since `snapshot` (per-relation
/// row counts taken at the last refresh) into the old state and the insert
/// deltas — the warehouse's append-only change capture.
///
/// Relations absent from `snapshot` (freshly materialized views, say) are
/// left as they are in the old state and produce no delta. A grown table
/// splits by page: its old prefix shares every full page before the mark
/// and slices only the page the mark falls in, and only the appended rows
/// are gathered into the insert delta. Dictionary value tables stay shared
/// with the live database.
pub fn split_appends(db: &Database, snapshot: &BTreeMap<RelName, usize>) -> (Database, DeltaMap) {
    let mut old = db.clone();
    let mut deltas = DeltaMap::new();
    for (rel, &snap) in snapshot {
        let Some(table) = db.table(rel.as_str()) else {
            continue;
        };
        let rows = table.len();
        if rows <= snap {
            continue;
        }
        let pages = table.pages();
        let appended: Vec<usize> = (snap..rows).collect();
        let empty = Batch::empty(table.attrs().to_vec());
        old.insert_table(Table::with_pages(rel.clone(), Arc::new(pages.prefix(snap))));
        deltas.insert(rel.clone(), Delta::new(pages.gather(&appended), empty));
    }
    (old, deltas)
}

/// Vertical concatenation in argument order; empty parts are skipped and a
/// single surviving part is returned by clone (sharing its columns).
fn vstack(attrs: &[AttrRef], parts: &[&Batch]) -> Batch {
    let live: Vec<&Batch> = parts.iter().copied().filter(|b| b.rows() > 0).collect();
    match live.len() {
        0 => Batch::empty(attrs.to_vec()),
        1 => live[0].clone(),
        _ => {
            let columns = (0..attrs.len())
                .map(|i| {
                    let cols: Vec<&Column> = live.iter().map(|b| b.column(i)).collect();
                    Arc::new(Column::concat(&cols))
                })
                .collect();
            Batch::new(attrs.to_vec(), columns)
        }
    }
}

/// Evaluates the delta of `expr` given the old database and per-relation
/// deltas. Returns `Ok(None)` when the expression cannot propagate the
/// deltas (deletions through a join, any aggregate — those fold only at a
/// view root via [`refresh_view_delta`]).
pub fn execute_delta(
    expr: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Option<Delta<Batch>>, ExecError> {
    match &**expr {
        Expr::Base(name) => match deltas.get(name) {
            Some(d) => Ok(Some(d.clone())),
            None => {
                let table = old
                    .table(name.as_str())
                    .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?;
                let empty = Batch::empty(table.attrs().to_vec());
                Ok(Some(Delta::new(empty.clone(), empty)))
            }
        },
        Expr::Select { input, predicate } => {
            let Some(d) = execute_delta(input, old, deltas, ctx)? else {
                return Ok(None);
            };
            let d = d.map(|side| select_batch(&side, predicate));
            Ok(Some(Delta::new(d.insert?, d.delete?)))
        }
        Expr::Project { input, attrs } => {
            let Some(d) = execute_delta(input, old, deltas, ctx)? else {
                return Ok(None);
            };
            let d = d.map(|side| project_batch(&side, attrs));
            Ok(Some(Delta::new(d.insert?, d.delete?)))
        }
        Expr::Join { left, right, on } => {
            let Some(dl) = execute_delta(left, old, deltas, ctx)? else {
                return Ok(None);
            };
            let Some(dr) = execute_delta(right, old, deltas, ctx)? else {
                return Ok(None);
            };
            // Deletions through a join need the counting algorithm; the
            // algebra layer routes such views to recomputation, and this
            // guard keeps direct callers honest too.
            if dl.delete.rows() > 0 || dr.delete.rows() > 0 {
                return Ok(None);
            }
            // ΔL⋈ΔR also fixes the joined schema for the empty fallback.
            let both = join_batch(&dl.insert, &dr.insert, on, ctx)?;
            let mut terms = Vec::with_capacity(2);
            if dl.insert.rows() > 0 {
                let old_right = execute(right, old, ctx)?.into_batch();
                terms.push(join_batch(&dl.insert, &old_right, on, ctx)?);
            }
            if dr.insert.rows() > 0 {
                let old_left = execute(left, old, ctx)?.into_batch();
                terms.push(join_batch(&old_left, &dr.insert, on, ctx)?);
            }
            let refs: Vec<&Batch> = terms.iter().chain([&both]).collect();
            let insert = vstack(both.attrs(), &refs);
            let delete = Batch::empty(both.attrs().to_vec());
            Ok(Some(Delta::new(insert, delete)))
        }
        Expr::Aggregate { .. } => Ok(None),
    }
}

/// Maintains one stored view incrementally: given its current contents, its
/// definition, the old base state and the per-relation deltas, returns the
/// view's new contents — or `Ok(None)` when the algebra rules (or a value
/// shape the fold cannot absorb) demand recomputation. The new contents
/// share the stored view's pages wherever they can: an insert-only SPJ
/// fold is an append to them, in the stored view's home; a γ-view's
/// roll-up is a new table of held pages.
///
/// The caller is responsible for the deltas being consistent with `old`
/// (deletes must name existing tuples); inconsistent inputs fall back to
/// `None` rather than producing a wrong view.
pub fn refresh_view_delta(
    old_view: &Table,
    definition: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Option<Table>, ExecError> {
    let mut changed: BTreeMap<RelName, DeltaMode> = BTreeMap::new();
    for (rel, d) in deltas {
        let mode = match (d.insert.rows() > 0, d.delete.rows() > 0) {
            (false, false) => continue,
            (_, true) => DeltaMode::InsertDelete,
            (true, false) => DeltaMode::InsertOnly,
        };
        changed.insert(rel.clone(), mode);
    }
    match maintenance_plan(&mut ExprArena::new(), definition, &changed) {
        MaintenancePlan::Noop => Ok(Some(old_view.clone())),
        MaintenancePlan::Recompute(_) => Ok(None),
        MaintenancePlan::Apply(_) => {
            let Some(d) = execute_delta(definition, old, deltas, ctx)? else {
                return Ok(None);
            };
            Ok(apply_spj(old_view, &d))
        }
        MaintenancePlan::FoldAggregate(_) => {
            let Expr::Aggregate {
                input,
                group_by,
                aggs,
            } = &**definition
            else {
                return Ok(None);
            };
            let Some(d) = execute_delta(input, old, deltas, ctx)? else {
                return Ok(None);
            };
            let (ins, _) = aggregate_batch(&d.insert, group_by, aggs, ctx)?;
            let (del, _) = aggregate_batch(&d.delete, group_by, aggs, ctx)?;
            let folded = roll_up(old_view.batch(), &ins, &del, group_by, aggs, ctx)?;
            Ok(folded.map(|batch| Table::from_batch(old_view.name().clone(), batch)))
        }
    }
}

/// Applies an SPJ view delta: cancels the deletes (one stored occurrence
/// per deleted tuple, the first — bag semantics) and appends the inserts,
/// so the surviving rows keep their stored order. Without deletes the
/// stored view's pages are kept and appended to.
fn apply_spj(old_view: &Table, d: &Delta<Batch>) -> Option<Table> {
    let mut view = match d.delete.rows() {
        0 => old_view.clone(),
        _ => {
            let stored = old_view.batch();
            let kept = stored.filter(&surviving(stored, &d.delete)?);
            Table::from_batch(old_view.name().clone(), kept)
        }
    };
    view.append(&d.insert);
    Some(view)
}

/// Which rows of `view` survive cancelling `delete`, or `None` when a
/// deleted tuple is not stored (the deltas disagree with the view). Pass 1
/// of the aggregation kernel over every column of `delete ⊎ view` numbers
/// the distinct tuples: a row hash confirmed with [`Column::eq_at`].
fn surviving(view: &Batch, delete: &Batch) -> Option<Vec<bool>> {
    let both = vstack(view.attrs(), &[delete, view]);
    let cols: Vec<&Column> = both.columns().iter().map(|c| &**c).collect();
    let keys = GroupKeys::new(&cols, both.rows());
    let ids = assign_group_ids(&keys, 0..both.rows(), usize::MAX)
        .expect("an unbounded group table takes every tuple");
    let (deleted, stored) = ids.gids.split_at(delete.rows());
    // Deletes pending per tuple: a stored row is cancelled while its
    // tuple's count is still positive, and kept once it has gone below 0.
    let mut pending = vec![0isize; ids.reps.len()];
    for &g in deleted {
        pending[g as usize] += 1;
    }
    let keep = stored
        .iter()
        .map(|&g| {
            pending[g as usize] -= 1;
            pending[g as usize] < 0
        })
        .collect();
    pending.iter().all(|&n| n <= 0).then_some(keep)
}

/// Folds per-group delta partials into the stored groups as one roll-up:
/// the aggregation kernel, every aggregate [`AggExpr::rolled_up`], over the
/// stored groups, the insert partials and the negated delete partials. It
/// emits groups in key order, as recomputation does, so the two are
/// bit-identical. A `COUNT` at zero drops its group; below zero, a delete
/// named a group that is not stored: the deltas disagree with the view.
fn roll_up(
    old_view: &Batch,
    ins: &Batch,
    del: &Batch,
    group_by: &[AttrRef],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<Option<Batch>, ExecError> {
    let attrs = old_view.attrs();
    // The partials come out of the same kernel with the same column layout.
    if ins.attrs() != attrs || del.attrs() != attrs {
        return Ok(None);
    }
    let rolled: Option<Vec<AggExpr>> = aggs.iter().map(AggExpr::rolled_up).collect();
    let (Some(rolled), Some(del)) = (rolled, negated(del, group_by.len(), aggs)) else {
        return Ok(None);
    };
    let stacked = vstack(attrs, &[old_view, ins, &del]);
    let (folded, _) = aggregate_batch(&stacked, group_by, &rolled, ctx)?;
    let Some(n) = aggs.iter().position(|a| a.func == AggFunc::Count) else {
        return Ok(Some(folded));
    };
    match folded.column(group_by.len() + n) {
        Column::Int(counts) if counts.iter().all(|&c| c >= 0) => {
            let live: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
            Ok(Some(folded.filter(&live)))
        }
        _ => Ok(None),
    }
}

/// The delete partials with their `COUNT`/`SUM` negated (wrapping, like
/// every sum), or `None` when a delete reaches any other aggregate — the
/// algebra rules let only those through with deletes.
fn negated(del: &Batch, keys: usize, aggs: &[AggExpr]) -> Option<Batch> {
    if del.rows() == 0 {
        return Some(del.clone());
    }
    let mut columns = del.columns().to_vec();
    for (col, agg) in columns[keys..].iter_mut().zip(aggs) {
        let (AggFunc::Count | AggFunc::Sum, Column::Int(v)) = (agg.func, &**col) else {
            return None;
        };
        *col = Arc::new(Column::Int(v.iter().map(|x| x.wrapping_neg()).collect()));
    }
    Some(Batch::new(del.attrs().to_vec(), columns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{CompareOp, JoinCondition, Predicate, Value};

    fn attr(rel: &str, a: &str) -> AttrRef {
        AttrRef::new(rel, a)
    }

    /// Builds a batch from rows, keeping the empty case well-typed.
    fn rows_to_batch(attrs: &[AttrRef], rows: Vec<Vec<Value>>) -> Batch {
        if rows.is_empty() {
            Batch::empty(attrs.to_vec())
        } else {
            Batch::from_rows(attrs.to_vec(), rows)
        }
    }

    fn table(name: &str, attrs: &[AttrRef], rows: Vec<Vec<Value>>) -> Table {
        Table::from_batch(name, rows_to_batch(attrs, rows))
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    /// R(k, v) with 3 old rows; S(k, w) with 2 old rows.
    fn fixture() -> (Database, Vec<AttrRef>, Vec<AttrRef>) {
        let r_attrs = vec![attr("R", "k"), attr("R", "v")];
        let s_attrs = vec![attr("S", "k"), attr("S", "w")];
        let mut db = Database::new();
        db.insert_table(table(
            "R",
            &r_attrs,
            vec![ints(&[1, 10]), ints(&[2, 20]), ints(&[1, 30])],
        ));
        db.insert_table(table("S", &s_attrs, vec![ints(&[1, 7]), ints(&[3, 8])]));
        (db, r_attrs, s_attrs)
    }

    fn insert_only(attrs: &[AttrRef], rows: Vec<Vec<Value>>) -> Delta<Batch> {
        Delta::new(rows_to_batch(attrs, rows), Batch::empty(attrs.to_vec()))
    }

    #[test]
    fn join_delta_matches_recompute_difference() {
        let (old, r_attrs, s_attrs) = fixture();
        let expr = Expr::join(
            Expr::base("R"),
            Expr::base("S"),
            JoinCondition::on(attr("R", "k"), attr("S", "k")),
        );
        let mut deltas = DeltaMap::new();
        deltas.insert(
            RelName::new("R"),
            insert_only(&r_attrs, vec![ints(&[3, 40])]),
        );
        deltas.insert(
            RelName::new("S"),
            insert_only(&s_attrs, vec![ints(&[1, 9]), ints(&[3, 6])]),
        );
        // New state for the recompute oracle.
        let mut new = old.clone();
        new.table_mut("R")
            .unwrap()
            .extend_rows(vec![ints(&[3, 40])]);
        new.table_mut("S")
            .unwrap()
            .extend_rows(vec![ints(&[1, 9]), ints(&[3, 6])]);

        let ctx = ExecContext::default();
        let d = execute_delta(&expr, &old, &deltas, &ctx)
            .unwrap()
            .expect("insert deltas propagate through joins");
        assert_eq!(d.delete.rows(), 0);

        let old_out = execute(&expr, &old, &ctx).unwrap();
        let new_out = execute(&expr, &new, &ctx).unwrap();
        let mut folded: Vec<Vec<Value>> = old_out.batch().to_rows();
        folded.extend(d.insert.to_rows());
        folded.sort();
        let mut want = new_out.batch().to_rows();
        want.sort();
        assert_eq!(folded, want, "old ∪ Δ must equal the recomputed join");
    }

    #[test]
    fn select_distributes_over_deletes() {
        let (old, r_attrs, _) = fixture();
        let expr = Expr::select(
            Expr::base("R"),
            Predicate::cmp(attr("R", "v"), CompareOp::Lt, 25),
        );
        let mut deltas = DeltaMap::new();
        deltas.insert(
            RelName::new("R"),
            Delta::new(
                rows_to_batch(&r_attrs, vec![ints(&[4, 5]), ints(&[4, 99])]),
                rows_to_batch(&r_attrs, vec![ints(&[2, 20])]),
            ),
        );
        let d = execute_delta(&expr, &old, &deltas, &ExecContext::default())
            .unwrap()
            .expect("σ passes deltas through");
        assert_eq!(d.insert.to_rows(), vec![ints(&[4, 5])]);
        assert_eq!(d.delete.to_rows(), vec![ints(&[2, 20])]);
    }

    #[test]
    fn join_refuses_deletes() {
        let (old, r_attrs, _) = fixture();
        let expr = Expr::join(
            Expr::base("R"),
            Expr::base("S"),
            JoinCondition::on(attr("R", "k"), attr("S", "k")),
        );
        let mut deltas = DeltaMap::new();
        deltas.insert(
            RelName::new("R"),
            Delta::new(
                Batch::empty(r_attrs.clone()),
                rows_to_batch(&r_attrs, vec![ints(&[1, 10])]),
            ),
        );
        let out = execute_delta(&expr, &old, &deltas, &ExecContext::default()).unwrap();
        assert!(out.is_none(), "join deltas with deletions must fall back");
    }

    #[test]
    fn spj_apply_cancels_deleted_rows() {
        let (old, r_attrs, _) = fixture();
        let expr = Expr::select(
            Expr::base("R"),
            Predicate::cmp(attr("R", "v"), CompareOp::Lt, 100),
        );
        let ctx = ExecContext::default();
        let view = execute(&expr, &old, &ctx).unwrap();
        let mut deltas = DeltaMap::new();
        deltas.insert(
            RelName::new("R"),
            Delta::new(
                rows_to_batch(&r_attrs, vec![ints(&[9, 90])]),
                rows_to_batch(&r_attrs, vec![ints(&[2, 20])]),
            ),
        );
        let new_view = refresh_view_delta(&view, &expr, &old, &deltas, &ctx)
            .unwrap()
            .expect("σ view maintains deletes");
        assert_eq!(
            new_view.rows(),
            [ints(&[1, 10]), ints(&[1, 30]), ints(&[9, 90])]
        );
    }

    #[test]
    fn aggregate_fold_matches_recompute() {
        let (old, r_attrs, _) = fixture();
        let expr = Expr::aggregate(
            Expr::base("R"),
            [attr("R", "k")],
            [
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, attr("R", "v"), "total"),
                AggExpr::new(AggFunc::Max, attr("R", "v"), "top"),
            ],
        );
        let ctx = ExecContext::default();
        let view = execute(&expr, &old, &ctx).unwrap();
        // The first append opens groups on both sides of the stored keys;
        // the second takes group 1's SUM past i64::MAX: the fold must place
        // and wrap exactly as the recomputation does.
        for appended in [
            vec![ints(&[1, 99]), ints(&[5, 1]), ints(&[0, 7])],
            vec![ints(&[1, i64::MAX]), ints(&[1, 99])],
        ] {
            let mut deltas = DeltaMap::new();
            deltas.insert(RelName::new("R"), insert_only(&r_attrs, appended.clone()));
            let folded = refresh_view_delta(&view, &expr, &old, &deltas, &ctx)
                .unwrap()
                .expect("count/sum/max fold inserts");

            let mut new = old.clone();
            new.table_mut("R").unwrap().extend_rows(appended);
            let want = execute(&expr, &new, &ctx).unwrap();
            assert_eq!(
                folded.batch(),
                want.batch(),
                "a folded γ-view is its recomputation"
            );
        }
    }

    #[test]
    fn aggregate_fold_drops_emptied_groups_on_delete() {
        let (old, r_attrs, _) = fixture();
        let expr = Expr::aggregate(
            Expr::base("R"),
            [attr("R", "k")],
            [
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, attr("R", "v"), "total"),
            ],
        );
        let ctx = ExecContext::default();
        let view = execute(&expr, &old, &ctx).unwrap();
        // Delete the only row of group k=2: the group must vanish.
        let mut deltas = DeltaMap::new();
        deltas.insert(
            RelName::new("R"),
            Delta::new(
                Batch::empty(r_attrs.clone()),
                rows_to_batch(&r_attrs, vec![ints(&[2, 20])]),
            ),
        );
        let folded = refresh_view_delta(&view, &expr, &old, &deltas, &ctx)
            .unwrap()
            .expect("count/sum fold deletes");
        assert_eq!(folded.rows(), [ints(&[1, 2, 40])]);
    }

    #[test]
    fn split_appends_slices_suffixes() {
        let (db, _, _) = fixture();
        let mut snapshot = BTreeMap::new();
        snapshot.insert(RelName::new("R"), 1usize);
        snapshot.insert(RelName::new("S"), 2usize);
        let (old, deltas) = split_appends(&db, &snapshot);
        assert_eq!(old.table("R").unwrap().len(), 1);
        assert_eq!(
            old.table("S").unwrap().len(),
            2,
            "unchanged S keeps all rows"
        );
        assert_eq!(deltas.len(), 1);
        let d = &deltas[&RelName::new("R")];
        assert_eq!(d.insert.to_rows(), vec![ints(&[2, 20]), ints(&[1, 30])]);
        assert_eq!(d.delete.rows(), 0);
    }
}
