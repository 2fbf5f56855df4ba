//! Delta-propagation execution: the engine half of incremental view
//! maintenance.
//!
//! The symbolic rules live in [`mvdesign_algebra::delta`]; this module runs
//! them over the batch kernels. [`execute_delta`] pushes per-relation
//! [`Delta<Batch>`]s through σ/π/⋈ (selections and projections apply to both
//! delta sides, joins expand via `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR` against the *old*
//! database), and [`refresh_view_delta`] turns one stored view plus the
//! deltas into the view's new contents — appending SPJ inserts, cancelling
//! SPJ deletes, and folding per-group aggregate partials. Everything reuses
//! the resident kernels under the caller's [`ExecContext`], so delta
//! refresh is deterministic at any memory budget, exactly like full
//! execution.
//!
//! Unsupported shapes (per the algebra rules) return `Ok(None)`: the caller
//! recomputes. That fallback is the contract — delta maintenance is an
//! optimization, never a semantics change.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_algebra::delta::{maintenance_plan, Delta, DeltaMode, MaintenancePlan};
use mvdesign_algebra::{AggExpr, AggFunc, AttrRef, Expr, ExprArena, RelName, Value};

use super::{
    aggregate_batch, execute, join_batch, project_batch, select_batch, ExecContext, ExecError,
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
/// left as they are in the old state and produce no delta. Appended suffixes
/// become insert-only deltas; the old state holds the prefix via column
/// slices, so dictionary value tables stay shared with the live database.
pub fn split_appends(db: &Database, snapshot: &BTreeMap<RelName, usize>) -> (Database, DeltaMap) {
    let mut old = db.clone();
    let mut deltas = DeltaMap::new();
    for (rel, &snap) in snapshot {
        let Some(table) = db.table(rel.as_str()) else {
            continue;
        };
        // `len` is cheap on paged tables; only changed tables materialize.
        let rows = table.len();
        if rows <= snap {
            continue;
        }
        let batch = table.batch();
        let insert = slice_rows(batch, snap..rows);
        let empty = Batch::empty(batch.attrs().to_vec());
        old.insert_table(Table::from_batch(rel.clone(), slice_rows(batch, 0..snap)));
        deltas.insert(rel.clone(), Delta::new(insert, empty));
    }
    (old, deltas)
}

/// A row range of a batch, variant-preserving (dictionary slices keep the
/// shared value table).
fn slice_rows(batch: &Batch, range: std::ops::Range<usize>) -> Batch {
    let columns = batch
        .columns()
        .iter()
        .map(|c| Arc::new(c.slice(range.clone())))
        .collect();
    Batch::new(batch.attrs().to_vec(), columns)
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
        Expr::Base(name) => {
            if let Some(d) = deltas.get(name) {
                return Ok(Some(d.clone()));
            }
            let table = old
                .table(name.as_str())
                .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?;
            let attrs = table.batch().attrs().to_vec();
            Ok(Some(Delta::new(
                Batch::empty(attrs.clone()),
                Batch::empty(attrs),
            )))
        }
        Expr::Select { input, predicate } => {
            let Some(d) = execute_delta(input, old, deltas, ctx)? else {
                return Ok(None);
            };
            Ok(Some(Delta::new(
                select_batch(&d.insert, predicate)?,
                select_batch(&d.delete, predicate)?,
            )))
        }
        Expr::Project { input, attrs } => {
            let Some(d) = execute_delta(input, old, deltas, ctx)? else {
                return Ok(None);
            };
            Ok(Some(Delta::new(
                project_batch(&d.insert, attrs)?,
                project_batch(&d.delete, attrs)?,
            )))
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
            let mut terms: Vec<Batch> = Vec::with_capacity(3);
            if dl.insert.rows() > 0 {
                let old_right = execute(right, old, ctx)?.into_batch();
                terms.push(join_batch(&dl.insert, &old_right, on, ctx)?);
            }
            if dr.insert.rows() > 0 {
                let old_left = execute(left, old, ctx)?.into_batch();
                terms.push(join_batch(&old_left, &dr.insert, on, ctx)?);
            }
            terms.push(both);
            let attrs = terms[terms.len() - 1].attrs().to_vec();
            let refs: Vec<&Batch> = terms.iter().collect();
            let insert = vstack(&attrs, &refs);
            let delete = Batch::empty(attrs);
            Ok(Some(Delta::new(insert, delete)))
        }
        Expr::Aggregate { .. } => Ok(None),
    }
}

/// Maintains one stored view incrementally: given its current contents, its
/// definition, the old base state and the per-relation deltas, returns the
/// view's new contents — or `Ok(None)` when the algebra rules (or a value
/// shape the fold cannot absorb) demand recomputation.
///
/// The caller is responsible for the deltas being consistent with `old`
/// (deletes must name existing tuples); inconsistent inputs fall back to
/// `None` rather than producing a wrong view.
pub fn refresh_view_delta(
    old_view: &Batch,
    definition: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Option<Batch>, ExecError> {
    let mut changed: BTreeMap<RelName, DeltaMode> = BTreeMap::new();
    for (rel, d) in deltas {
        let mode = match (d.insert.rows() > 0, d.delete.rows() > 0) {
            (false, false) => continue,
            (_, true) => DeltaMode::InsertDelete,
            (true, false) => DeltaMode::InsertOnly,
        };
        changed.insert(rel.clone(), mode);
    }
    if changed.is_empty() {
        return Ok(Some(old_view.clone()));
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
            Ok(fold_aggregate(old_view, &ins, &del, group_by, aggs))
        }
    }
}

/// Applies an SPJ view delta: appends the inserts and cancels the deletes
/// (one stored occurrence per deleted tuple — bag semantics).
fn apply_spj(old_view: &Batch, d: &Delta<Batch>) -> Option<Batch> {
    if d.delete.rows() == 0 {
        return Some(vstack(old_view.attrs(), &[old_view, &d.insert]));
    }
    let mut cancel: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    for row in d.delete.to_rows() {
        *cancel.entry(row).or_insert(0) += 1;
    }
    let mut rows = Vec::with_capacity(old_view.rows());
    for row in old_view.to_rows() {
        match cancel.get_mut(&row) {
            Some(n) if *n > 0 => *n -= 1,
            _ => rows.push(row),
        }
    }
    // Every delete must have cancelled a stored tuple; a miss means the
    // deltas disagree with the stored view.
    if cancel.values().any(|n| *n > 0) {
        return None;
    }
    rows.extend(d.insert.to_rows());
    Some(rows_to_batch(old_view.attrs(), rows))
}

/// Folds finalized per-group delta partials into the stored groups.
///
/// `COUNT`/`SUM` add (inserts) and subtract (deletes); `MIN`/`MAX` take the
/// extremum of the stored value and the insert partial — valid because the
/// algebra rules route deletions away from them. Groups whose `COUNT`
/// reaches zero are dropped; groups first seen in the delta are appended in
/// partial order. Row order is old-view order then appendees — deterministic
/// for a deterministic kernel, like everything else in the engine.
fn fold_aggregate(
    old_view: &Batch,
    ins: &Batch,
    del: &Batch,
    group_by: &[AttrRef],
    aggs: &[AggExpr],
) -> Option<Batch> {
    let attrs = old_view.attrs();
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|a| old_view.index_of(a))
        .collect::<Option<_>>()?;
    let agg_idx: Vec<usize> = aggs
        .iter()
        .map(|a| old_view.index_of(&a.output_attr()))
        .collect::<Option<_>>()?;
    // The partials come out of the same kernel with the same column layout.
    if ins.attrs() != attrs || del.attrs() != attrs {
        return None;
    }
    let count_col = aggs
        .iter()
        .position(|a| a.func == AggFunc::Count)
        .map(|i| agg_idx[i]);

    let key_of =
        |row: &[Value]| -> Vec<Value> { key_idx.iter().map(|&i| row[i].clone()).collect() };
    let mut rows: Vec<Vec<Value>> = old_view.to_rows();
    let mut index: BTreeMap<Vec<Value>, usize> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (key_of(r), i))
        .collect();

    for partial in ins.to_rows() {
        match index.get(&key_of(&partial)) {
            Some(&i) => {
                for (a, &j) in aggs.iter().zip(&agg_idx) {
                    rows[i][j] = combine(a.func, &rows[i][j], &partial[j], 1)?;
                }
            }
            None => {
                index.insert(key_of(&partial), rows.len());
                rows.push(partial);
            }
        }
    }
    let mut dropped = vec![false; rows.len()];
    for partial in del.to_rows() {
        // A deleted tuple's group must already be stored (or have just been
        // inserted); otherwise the deltas disagree with the old state.
        let &i = index.get(&key_of(&partial))?;
        for (a, &j) in aggs.iter().zip(&agg_idx) {
            rows[i][j] = combine(a.func, &rows[i][j], &partial[j], -1)?;
        }
        if let Some(c) = count_col {
            match rows[i][c] {
                Value::Int(n) if n <= 0 => dropped[i] = true,
                _ => {}
            }
        }
    }
    let rows: Vec<Vec<Value>> = rows
        .into_iter()
        .zip(dropped)
        .filter(|(_, d)| !*d)
        .map(|(r, _)| r)
        .collect();
    Some(rows_to_batch(attrs, rows))
}

/// Combines one stored aggregate value with one delta partial. `sign` is
/// `+1` for inserts, `-1` for deletes.
fn combine(func: AggFunc, stored: &Value, partial: &Value, sign: i64) -> Option<Value> {
    match func {
        AggFunc::Count | AggFunc::Sum => match (stored, partial) {
            // Wrapping, like the kernels that produced both sides (see
            // `AggFunc::Sum`): fold ≡ recompute must hold past i64::MAX too.
            (Value::Int(a), Value::Int(b)) => {
                Some(Value::Int(a.wrapping_add(sign.wrapping_mul(*b))))
            }
            _ => None,
        },
        AggFunc::Min if sign > 0 => Some(stored.clone().min(partial.clone())),
        AggFunc::Max if sign > 0 => Some(stored.clone().max(partial.clone())),
        // MIN/MAX deletes and AVG are routed to recomputation upstream.
        _ => None,
    }
}

/// Builds a batch from rows, keeping the empty case well-typed.
fn rows_to_batch(attrs: &[AttrRef], rows: Vec<Vec<Value>>) -> Batch {
    if rows.is_empty() {
        Batch::empty(attrs.to_vec())
    } else {
        Batch::from_rows(attrs.to_vec(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{CompareOp, JoinCondition, Predicate};

    fn attr(rel: &str, a: &str) -> AttrRef {
        AttrRef::new(rel, a)
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
        let view = execute(&expr, &old, &ctx).unwrap().into_batch();
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
            new_view.to_rows(),
            vec![ints(&[1, 10]), ints(&[1, 30]), ints(&[9, 90])]
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
        let view = execute(&expr, &old, &ctx).unwrap().into_batch();
        // The second append takes group 1's SUM past i64::MAX: the fold
        // must wrap exactly as the recomputation does.
        for appended in [
            vec![ints(&[1, 99]), ints(&[5, 1])],
            vec![ints(&[1, i64::MAX]), ints(&[1, 99])],
        ] {
            let mut deltas = DeltaMap::new();
            deltas.insert(RelName::new("R"), insert_only(&r_attrs, appended.clone()));
            let folded = refresh_view_delta(&view, &expr, &old, &deltas, &ctx)
                .unwrap()
                .expect("count/sum/max fold inserts");

            let mut new = old.clone();
            new.table_mut("R").unwrap().extend_rows(appended);
            let want = execute(&expr, &new, &ctx).unwrap().into_batch();
            let mut got_rows = folded.to_rows();
            got_rows.sort();
            let mut want_rows = want.to_rows();
            want_rows.sort();
            assert_eq!(got_rows, want_rows);
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
        let view = execute(&expr, &old, &ctx).unwrap().into_batch();
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
        assert_eq!(folded.to_rows(), vec![ints(&[1, 2, 40])]);
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
