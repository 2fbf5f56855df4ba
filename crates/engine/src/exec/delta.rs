//! Incremental view maintenance over append deltas.
//!
//! The warehouse only appends, so a change to a base relation is a
//! [`Batch`] of inserted rows ([`split_appends`] cuts it off the grown
//! table). [`maintenance`] is the one decision of how a stored view takes
//! them, from the relations that grew and the [`RefreshPolicy`]:
//!
//! * no relation under the view grew: [`Maintenance::Skip`] — keep the
//!   stored table;
//! * the policy is [`RefreshPolicy::Recompute`], a γ strictly below the
//!   root grew (it has no stored partials to fold into), or a γ root has
//!   an aggregate that does not roll up (`AVG`): [`Maintenance::Rebuild`];
//! * a γ root whose every aggregate rolls up ([`AggExpr::rolled_up`]):
//!   [`Maintenance::Fold`];
//! * otherwise: [`Maintenance::Append`] — the view's delta goes after the
//!   stored rows.
//!
//! [`refresh_view_delta`] carries out an append or a fold; a rebuild is
//! the caller's plain execution. The delta of a plan runs on the batch
//! kernels: σ and π apply to it, and a join expands as
//! `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR` against the *old* database. An append copies at
//! most each column's tail page of the stored view. A fold is a roll-up on
//! the query's own aggregation kernel — self-maintainable under inserts:
//! `COUNT`/`SUM`/`MIN`/`MAX` re-aggregate from the stored groups and the
//! delta's partials — so a folded γ-view is bit-identical to its
//! recomputation. Everything runs under the caller's [`ExecContext`]: the
//! roll-up spills under a budget like any γ.

use std::collections::{BTreeMap, BTreeSet};
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
        let prefix = table.pages().prefix(snap);
        old.insert_table(Table::with_pages(rel.clone(), Arc::new(prefix)));
        deltas.insert(rel.clone(), appended_since(table, snap));
    }
    (old, deltas)
}

/// The rows of `table` past its first `mark`, gathered into one batch: the
/// appends since a table had `mark` rows, or what an SPJ fold appended to a
/// view that had `mark` rows. Dictionary value tables stay shared.
pub fn appended_since(table: &Table, mark: usize) -> Batch {
    let appended: Vec<usize> = (mark..table.len()).collect();
    table.pages().gather(&appended)
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

/// How stale views may be brought up to date: the one input of
/// [`maintenance`] besides the view and what grew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Rebuild every view whose inputs grew (the paper's recomputation
    /// maintenance).
    Recompute,
    /// Fold the appends into every view that can take them and rebuild the
    /// rest. A γ-view comes out bit-identical to
    /// [`RefreshPolicy::Recompute`]'s, row for row: its fold is a roll-up
    /// on the same aggregation kernel. An SPJ view is bag-equal: its fold
    /// appends the delta after the stored rows.
    #[default]
    Delta,
}

/// How one stored view takes the appends, as [`maintenance`] decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// No relation under the view grew: keep the stored table.
    Skip,
    /// Append the view's delta to the stored rows ([`refresh_view_delta`]).
    Append,
    /// Roll the delta's per-group partials up with the stored groups
    /// ([`refresh_view_delta`]).
    Fold,
    /// Compute the view from scratch.
    Rebuild,
}

/// The one decision of how the view defined by `view` is maintained when
/// the relations in `grown` have gained rows, under `policy` (see the
/// module docs for the four cases).
pub fn maintenance(view: &Expr, grown: &BTreeSet<RelName>, policy: RefreshPolicy) -> Maintenance {
    /// Whether a relation under `e` grew, and whether one under a γ in `e`
    /// (`e` included) did.
    fn grown_under(e: &Expr, grown: &BTreeSet<RelName>) -> (bool, bool) {
        match e {
            Expr::Base(name) => (grown.contains(name), false),
            Expr::Select { input, .. } | Expr::Project { input, .. } => grown_under(input, grown),
            Expr::Aggregate { input, .. } => {
                let (grew, _) = grown_under(input, grown);
                (grew, grew)
            }
            Expr::Join { left, right, .. } => {
                let (l, l_agg) = grown_under(left, grown);
                let (r, r_agg) = grown_under(right, grown);
                (l || r, l_agg || r_agg)
            }
        }
    }
    let below_root = match view {
        Expr::Aggregate { input, .. } => input,
        _ => view,
    };
    match grown_under(below_root, grown) {
        (false, _) => Maintenance::Skip,
        (true, true) => Maintenance::Rebuild,
        (true, false) if policy == RefreshPolicy::Recompute => Maintenance::Rebuild,
        (true, false) => match view {
            Expr::Aggregate { aggs, .. } if aggs.iter().all(|a| a.rolled_up().is_some()) => {
                Maintenance::Fold
            }
            Expr::Aggregate { .. } => Maintenance::Rebuild,
            _ => Maintenance::Append,
        },
    }
}

/// Evaluates the delta of `expr` given the old database and the append
/// deltas. [`maintenance`] rebuilds a view with a grown γ below its root,
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

/// Carries out a [`Maintenance::Append`] or [`Maintenance::Fold`] of one
/// stored view: given its current contents, the plan it folds through (its
/// definition, or a routed form reading child views whose appended rows
/// `deltas` holds), the old base state and the append deltas, returns the
/// view's new contents. They share the stored view's pages wherever they
/// can: an append extends them, in the stored view's home; a γ-view's
/// roll-up is a new table of held pages, or the stored table itself when
/// the delta yields no group. `plan` must be one [`maintenance`] does not
/// rebuild under `deltas`; debug builds check it.
///
/// # Panics
///
/// When `plan` is a γ with an aggregate that does not roll up (`AVG`).
pub fn refresh_view_delta(
    stored: &Table,
    plan: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Result<Table, ExecError> {
    debug_assert_ne!(
        maintenance(plan, &grown(deltas), RefreshPolicy::Delta),
        Maintenance::Rebuild,
        "a view that cannot fold is rebuilt"
    );
    let Expr::Aggregate {
        input,
        group_by,
        aggs,
    } = &**plan
    else {
        let mut view = stored.clone();
        view.append(&execute_delta(plan, old, deltas, ctx)?);
        return Ok(view);
    };
    let delta = execute_delta(input, old, deltas, ctx)?;
    let (partials, _) = aggregate_batch(&delta, group_by, aggs, ctx)?;
    if partials.rows() == 0 {
        return Ok(stored.clone());
    }
    let rolled: Vec<AggExpr> = aggs
        .iter()
        .map(|a| a.rolled_up().expect("a folded aggregate rolls up"))
        .collect();
    let batch = stored.batch();
    debug_assert_eq!(partials.attrs(), batch.attrs(), "one kernel, one layout");
    // The roll-up emits groups in key order, as recomputation does.
    let stacked = vstack(batch.attrs(), &[batch, &partials]);
    let (folded, _) = aggregate_batch(&stacked, group_by, &rolled, ctx)?;
    Ok(Table::from_batch(stored.name().clone(), folded))
}

/// The relations whose delta holds a row.
pub fn grown(deltas: &DeltaMap) -> BTreeSet<RelName> {
    deltas
        .iter()
        .filter(|(_, delta)| delta.rows() > 0)
        .map(|(name, _)| name.clone())
        .collect()
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

    /// The named relations, as the set that grew.
    fn grew(names: &[&str]) -> BTreeSet<RelName> {
        names.iter().map(|n| RelName::new(*n)).collect()
    }

    /// The decision under the `Delta` policy.
    fn under_delta(view: &Expr, names: &[&str]) -> Maintenance {
        maintenance(view, &grew(names), RefreshPolicy::Delta)
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
        assert_eq!(under_delta(&spj(), &["T"]), Maintenance::Skip);
        // A relation whose delta is empty did not grow.
        let mut empty = DeltaMap::new();
        empty.insert(RelName::new("R"), Batch::empty(vec![attr("R", "a")]));
        assert_eq!(
            maintenance(&spj(), &grown(&empty), RefreshPolicy::Delta),
            Maintenance::Skip
        );
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
        assert_eq!(under_delta(&view, &["R"]), Maintenance::Append);
    }

    #[test]
    fn insert_deltas_expand_through_joins() {
        assert_eq!(under_delta(&spj(), &["R", "S"]), Maintenance::Append);
    }

    #[test]
    fn count_sum_fold_inserts() {
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Sum, attr("R", "v"), "total"),
        ];
        assert_eq!(under_delta(&gamma(aggs.clone()), &["R"]), Maintenance::Fold);
        // The fold's roll-up: COUNT rolls up as SUM.
        let funcs: Vec<AggFunc> = aggs
            .iter()
            .filter_map(AggExpr::rolled_up)
            .map(|a| a.func)
            .collect();
        assert_eq!(funcs, [AggFunc::Sum, AggFunc::Sum], "COUNT rolls up as SUM");
    }

    #[test]
    fn min_max_fold_inserts() {
        let view = gamma(vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Min, attr("R", "v"), "low"),
            AggExpr::new(AggFunc::Max, attr("R", "v"), "high"),
        ]);
        assert_eq!(under_delta(&view, &["R"]), Maintenance::Fold);
    }

    #[test]
    fn avg_always_recomputes() {
        let view = gamma(vec![AggExpr::new(AggFunc::Avg, attr("R", "v"), "mean")]);
        assert_eq!(under_delta(&view, &["R"]), Maintenance::Rebuild);
    }

    #[test]
    fn nested_aggregates_recompute() {
        let inner = gamma(vec![AggExpr::count_star("n")]);
        let view = Expr::select(
            Arc::clone(&inner),
            Predicate::cmp(attr("#agg", "n"), CompareOp::Gt, 5),
        );
        assert_eq!(under_delta(&view, &["R"]), Maintenance::Rebuild);
        let rolled_again = Expr::aggregate(inner, [attr("R", "g")], [AggExpr::count_star("m")]);
        assert_eq!(under_delta(&rolled_again, &["R"]), Maintenance::Rebuild);
        // A γ nothing was appended to does not stop the view above it
        // from appending.
        let view = Expr::join(
            gamma(vec![AggExpr::count_star("n")]),
            Expr::base("S"),
            JoinCondition::on(attr("R", "g"), attr("S", "k")),
        );
        assert_eq!(under_delta(&view, &["S"]), Maintenance::Append);
    }

    #[test]
    fn recompute_policy_rebuilds_only_what_grew() {
        let fold = gamma(vec![AggExpr::count_star("n")]);
        for view in [spj(), fold] {
            let decide =
                |names: &[&str]| maintenance(&view, &grew(names), RefreshPolicy::Recompute);
            assert_eq!(decide(&["R"]), Maintenance::Rebuild);
            assert_eq!(decide(&["T"]), Maintenance::Skip);
        }
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
            assert_eq!(
                maintenance(&expr, &grown(&deltas), RefreshPolicy::Delta),
                Maintenance::Fold,
                "count/sum/max fold inserts"
            );
            let folded = refresh_view_delta(&view, &expr, &old, &deltas, &ctx).unwrap();

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
