//! Incremental view maintenance over append deltas.
//!
//! The warehouse only appends, so a change to a base relation is a
//! [`Batch`] of inserted rows ([`split_appends`] cuts it off the grown
//! table). [`refresh_view_delta`] turns one stored view plus those deltas
//! into the view's new contents, and one private function decides how:
//!
//! * no relation under the view gained rows: keep the stored table;
//! * a γ strictly below the root gained rows: recompute — it has no stored
//!   partials to fold into;
//! * a γ root whose every aggregate rolls up ([`AggExpr::rolled_up`]):
//!   fold; one that does not (`AVG`): recompute;
//! * otherwise: append the view's delta to the stored rows.
//!
//! The delta of a plan runs on the batch kernels: σ and π apply to it, and
//! a join expands as `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR` against the *old* database. An
//! SPJ fold is a page append to the stored view, which copies at most each
//! column's tail page. A γ fold is a roll-up on the query's own aggregation
//! kernel — self-maintainable under inserts: `COUNT`/`SUM`/`MIN`/`MAX`
//! re-aggregate from the stored groups and the delta's partials — so a
//! folded γ-view is bit-identical to its recomputation. Everything runs
//! under the caller's [`ExecContext`]: the roll-up spills under a budget
//! like any γ.
//!
//! A recompute is answered `Ok(None)` and the caller recomputes: delta
//! maintenance is an optimization, never a semantics change.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, Expr, RelName};

use super::{
    aggregate_batch, execute, join_batch, project_batch, select_batch, ExecContext, ExecError,
};
use crate::batch::{Batch, Column};
use crate::table::{Database, Table};

/// Per-relation append deltas feeding one refresh pass.
pub type DeltaMap = BTreeMap<RelName, Batch>;

/// Splits a database that has only *grown* since `snapshot` (per-relation
/// row counts taken at the last refresh) into the old state and the append
/// deltas — the warehouse's change capture.
///
/// Relations absent from `snapshot` (freshly materialized views, say) are
/// left as they are in the old state and produce no delta. A grown table
/// splits by page: its old prefix shares every full page before the mark
/// and slices only the page the mark falls in, and only the appended rows
/// are gathered into the delta. Dictionary value tables stay shared with
/// the live database.
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
        old.insert_table(Table::with_pages(rel.clone(), Arc::new(pages.prefix(snap))));
        deltas.insert(rel.clone(), pages.gather(&appended));
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

/// How a view takes the appends.
enum Maintenance<'a> {
    /// No relation under the view gained rows: keep the stored table.
    Noop,
    /// Append the view's delta to the stored rows.
    Append,
    /// Roll the delta's per-group partials of `input` up with the stored
    /// groups under `rolled`, each aggregate's rolled-up form.
    Fold {
        input: &'a Arc<Expr>,
        group_by: &'a [AttrRef],
        aggs: &'a [AggExpr],
        rolled: Vec<AggExpr>,
    },
    /// The delta cannot be folded: recompute the view.
    Recompute,
}

/// The one decision of how `view` is maintained under `deltas` (see the
/// module docs for the four cases).
fn maintenance<'a>(view: &'a Expr, deltas: &DeltaMap) -> Maintenance<'a> {
    /// Whether a relation under `e` gained rows, and whether one under a γ
    /// in `e` (`e` included) did.
    fn grown(e: &Expr, deltas: &DeltaMap) -> (bool, bool) {
        match e {
            Expr::Base(name) => (deltas.get(name).is_some_and(|d| d.rows() > 0), false),
            Expr::Select { input, .. } | Expr::Project { input, .. } => grown(input, deltas),
            Expr::Aggregate { input, .. } => {
                let (grew, _) = grown(input, deltas);
                (grew, grew)
            }
            Expr::Join { left, right, .. } => {
                let (l, l_agg) = grown(left, deltas);
                let (r, r_agg) = grown(right, deltas);
                (l || r, l_agg || r_agg)
            }
        }
    }
    let below_root = match view {
        Expr::Aggregate { input, .. } => input,
        _ => view,
    };
    match grown(below_root, deltas) {
        (false, _) => return Maintenance::Noop,
        (true, true) => return Maintenance::Recompute,
        (true, false) => {}
    }
    match view {
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => match aggs.iter().map(AggExpr::rolled_up).collect() {
            Some(rolled) => Maintenance::Fold {
                input,
                group_by,
                aggs,
                rolled,
            },
            None => Maintenance::Recompute,
        },
        _ => Maintenance::Append,
    }
}

/// Evaluates the delta of `expr` given the old database and the append
/// deltas. [`maintenance`] recomputes a view with a grown γ below its root,
/// so a γ reached here is untouched and its delta is empty.
fn execute_delta(
    expr: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    match &**expr {
        Expr::Base(name) => match deltas.get(name) {
            Some(d) => Ok(d.clone()),
            None => {
                let table = old
                    .table(name.as_str())
                    .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?;
                Ok(Batch::empty(table.attrs().to_vec()))
            }
        },
        Expr::Select { input, predicate } => {
            select_batch(&execute_delta(input, old, deltas, ctx)?, predicate)
        }
        Expr::Project { input, attrs } => {
            project_batch(&execute_delta(input, old, deltas, ctx)?, attrs)
        }
        Expr::Join { left, right, on } => {
            let dl = execute_delta(left, old, deltas, ctx)?;
            let dr = execute_delta(right, old, deltas, ctx)?;
            // ΔL⋈ΔR also fixes the joined schema for the empty fallback.
            let both = join_batch(&dl, &dr, on, ctx)?;
            let mut terms = Vec::with_capacity(2);
            if dl.rows() > 0 {
                let old_right = execute(right, old, ctx)?.into_batch();
                terms.push(join_batch(&dl, &old_right, on, ctx)?);
            }
            if dr.rows() > 0 {
                let old_left = execute(left, old, ctx)?.into_batch();
                terms.push(join_batch(&old_left, &dr, on, ctx)?);
            }
            let refs: Vec<&Batch> = terms.iter().chain([&both]).collect();
            Ok(vstack(both.attrs(), &refs))
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // The kernel over the empty input gives the γ's schema.
            let input = execute_delta(input, old, deltas, ctx)?;
            let (out, _) = aggregate_batch(&input, group_by, aggs, ctx)?;
            Ok(Batch::empty(out.attrs().to_vec()))
        }
    }
}

/// Maintains one stored view incrementally: given its current contents, its
/// definition, the old base state and the append deltas, returns the view's
/// new contents — or `Ok(None)` when the view must be recomputed. The new
/// contents share the stored view's pages wherever they can: an SPJ fold is
/// an append to them, in the stored view's home; a γ-view's roll-up is a
/// new table of held pages.
pub fn refresh_view_delta(
    old_view: &Table,
    definition: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Option<Table>, ExecError> {
    match maintenance(definition, deltas) {
        Maintenance::Noop => Ok(Some(old_view.clone())),
        Maintenance::Recompute => Ok(None),
        Maintenance::Append => {
            let mut view = old_view.clone();
            view.append(&execute_delta(definition, old, deltas, ctx)?);
            Ok(Some(view))
        }
        Maintenance::Fold {
            input,
            group_by,
            aggs,
            rolled,
        } => {
            let delta = execute_delta(input, old, deltas, ctx)?;
            let (partials, _) = aggregate_batch(&delta, group_by, aggs, ctx)?;
            let stored = old_view.batch();
            debug_assert_eq!(partials.attrs(), stored.attrs(), "one kernel, one layout");
            // The roll-up emits groups in key order, as recomputation does.
            let stacked = vstack(stored.attrs(), &[stored, &partials]);
            let (folded, _) = aggregate_batch(&stacked, group_by, &rolled, ctx)?;
            Ok(Some(Table::from_batch(old_view.name().clone(), folded)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{AggFunc, CompareOp, JoinCondition, Predicate, Value};

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

    /// One appended row for each named relation.
    fn appended_to(names: &[&str]) -> DeltaMap {
        names
            .iter()
            .map(|n| {
                let row = Batch::from_rows(vec![attr(n, "a")], vec![ints(&[1])]);
                (RelName::new(*n), row)
            })
            .collect()
    }

    fn spj() -> Arc<Expr> {
        Expr::project(
            Expr::join(
                Expr::select(
                    Expr::base("R"),
                    Predicate::cmp(attr("R", "a"), CompareOp::Lt, 10),
                ),
                Expr::base("S"),
                JoinCondition::on(attr("R", "k"), attr("S", "k")),
            ),
            [attr("R", "a"), attr("S", "b")],
        )
    }

    fn gamma(aggs: Vec<AggExpr>) -> Arc<Expr> {
        Expr::aggregate(Expr::base("R"), [attr("R", "g")], aggs)
    }

    #[test]
    fn untouched_relations_leave_the_view_unchanged() {
        assert!(matches!(
            maintenance(&spj(), &appended_to(&["T"])),
            Maintenance::Noop
        ));
        // A relation whose delta is empty did not grow.
        let mut empty = DeltaMap::new();
        empty.insert(RelName::new("R"), Batch::empty(vec![attr("R", "a")]));
        assert!(matches!(maintenance(&spj(), &empty), Maintenance::Noop));
    }

    #[test]
    fn select_project_append_inserts() {
        let view = Expr::project(
            Expr::select(
                Expr::base("R"),
                Predicate::cmp(attr("R", "a"), CompareOp::Eq, 1),
            ),
            [attr("R", "a")],
        );
        assert!(matches!(
            maintenance(&view, &appended_to(&["R"])),
            Maintenance::Append
        ));
    }

    #[test]
    fn insert_deltas_expand_through_joins() {
        assert!(matches!(
            maintenance(&spj(), &appended_to(&["R", "S"])),
            Maintenance::Append
        ));
    }

    #[test]
    fn count_sum_fold_inserts() {
        let view = gamma(vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Sum, attr("R", "v"), "total"),
        ]);
        let Maintenance::Fold { rolled, .. } = maintenance(&view, &appended_to(&["R"])) else {
            panic!("COUNT/SUM fold inserts");
        };
        let funcs: Vec<AggFunc> = rolled.iter().map(|a| a.func).collect();
        assert_eq!(funcs, [AggFunc::Sum, AggFunc::Sum], "COUNT rolls up as SUM");
    }

    #[test]
    fn min_max_fold_inserts() {
        let view = gamma(vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Min, attr("R", "v"), "low"),
            AggExpr::new(AggFunc::Max, attr("R", "v"), "high"),
        ]);
        assert!(matches!(
            maintenance(&view, &appended_to(&["R"])),
            Maintenance::Fold { .. }
        ));
    }

    #[test]
    fn avg_always_recomputes() {
        let view = gamma(vec![AggExpr::new(AggFunc::Avg, attr("R", "v"), "mean")]);
        assert!(matches!(
            maintenance(&view, &appended_to(&["R"])),
            Maintenance::Recompute
        ));
    }

    #[test]
    fn nested_aggregates_recompute() {
        let inner = gamma(vec![AggExpr::count_star("n")]);
        let view = Expr::select(
            Arc::clone(&inner),
            Predicate::cmp(attr("#agg", "n"), CompareOp::Gt, 5),
        );
        assert!(matches!(
            maintenance(&view, &appended_to(&["R"])),
            Maintenance::Recompute
        ));
        let rolled_again = Expr::aggregate(inner, [attr("R", "g")], [AggExpr::count_star("m")]);
        assert!(matches!(
            maintenance(&rolled_again, &appended_to(&["R"])),
            Maintenance::Recompute
        ));
        // A γ nothing was appended to does not stop the view above it
        // from appending.
        let view = Expr::join(
            gamma(vec![AggExpr::count_star("n")]),
            Expr::base("S"),
            JoinCondition::on(attr("R", "g"), attr("S", "k")),
        );
        assert!(matches!(
            maintenance(&view, &appended_to(&["S"])),
            Maintenance::Append
        ));
    }

    #[test]
    fn join_delta_matches_recompute_difference() {
        let (old, r_attrs, s_attrs) = fixture();
        let on = JoinCondition::on(attr("R", "k"), attr("S", "k"));
        let counts = Expr::aggregate(
            Expr::base("R"),
            [attr("R", "k")],
            [AggExpr::count_star("n")],
        );
        let r_rows = vec![ints(&[3, 40])];
        let s_rows = vec![ints(&[1, 9]), ints(&[3, 6])];
        // Both sides grow; then a γ nothing is appended to passes an empty
        // delta, and only the grown side's terms remain.
        for (expr, r_rows) in [
            (
                Expr::join(Expr::base("R"), Expr::base("S"), on.clone()),
                r_rows,
            ),
            (Expr::join(counts, Expr::base("S"), on), vec![]),
        ] {
            let mut deltas = DeltaMap::new();
            deltas.insert(RelName::new("R"), rows_to_batch(&r_attrs, r_rows.clone()));
            deltas.insert(RelName::new("S"), rows_to_batch(&s_attrs, s_rows.clone()));
            // New state for the recompute oracle.
            let mut new = old.clone();
            new.table_mut("R").unwrap().extend_rows(r_rows);
            new.table_mut("S").unwrap().extend_rows(s_rows.clone());

            let ctx = ExecContext::default();
            let d = execute_delta(&expr, &old, &deltas, &ctx).unwrap();

            let old_out = execute(&expr, &old, &ctx).unwrap();
            let new_out = execute(&expr, &new, &ctx).unwrap();
            let mut folded: Vec<Vec<Value>> = old_out.batch().to_rows();
            folded.extend(d.to_rows());
            folded.sort();
            let mut want = new_out.batch().to_rows();
            want.sort();
            assert_eq!(folded, want, "old ∪ Δ must equal the recomputed join");
        }
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
            deltas.insert(RelName::new("R"), rows_to_batch(&r_attrs, appended.clone()));
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
        assert_eq!(
            deltas[&RelName::new("R")].to_rows(),
            vec![ints(&[2, 20]), ints(&[1, 30])]
        );
    }
}
