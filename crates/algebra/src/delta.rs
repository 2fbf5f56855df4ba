//! Delta propagation over the plan IR — the symbolic half of incremental
//! view maintenance.
//!
//! A change to a base relation is a [`Delta`]: a bag of inserted tuples and
//! a bag of deleted tuples. This module decides, per plan node, what kind of
//! delta reaches it when changes propagate up from the leaves
//! ([`label_deltas`]), and compresses the root's answer into the
//! [`MaintenancePlan`] a refresh pass should run ([`maintenance_plan`]).
//!
//! The rewrite rules are the classical ones:
//!
//! * **σ / π distribute** over both sides of a delta:
//!   `Δ(σp E) = σp(ΔE)` and `Δ(πa E) = πa(ΔE)`, for inserts and deletes
//!   alike.
//! * **⋈ expands** insert deltas as
//!   `Δ(L ⋈ R) = ΔL ⋈ R  ∪  L ⋈ ΔR  ∪  ΔL ⋈ ΔR` (old states on the
//!   un-deltaed side). Deletions flowing into a join would need the
//!   counting algorithm to cancel derived tuples, so they force
//!   recomputation.
//! * **γ folds** as a roll-up: the new view is the γ, under each
//!   aggregate's [`rolled_up`](crate::AggExpr::rolled_up) form, of the
//!   stored groups and the delta's per-group partials. `COUNT`/`SUM` absorb
//!   inserts and (negated) deletes by addition, `MIN`/`MAX` absorb inserts
//!   by taking the extremum but cannot absorb deletes (the extremum may
//!   have been deleted), and `AVG` is finalized as `SUM/COUNT` so it does
//!   not roll up at all. Deletions additionally need a `COUNT` column to
//!   witness groups emptying out.
//!
//! Anything outside these rules falls back to recomputation — the fallback
//! is part of the contract, not an error, and every [`MaintenancePlan::Recompute`]
//! carries the rule that forced it.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_catalog::RelName;

use crate::aggregate::AggFunc;
use crate::arena::{ExprArena, ExprId};
use crate::expr::Expr;

/// A change split into inserted and deleted tuples (bag semantics).
///
/// The type is generic so the same carrier serves symbolic sizes, row
/// vectors and the engine's columnar batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delta<T> {
    /// Tuples added by the change.
    pub insert: T,
    /// Tuples removed by the change.
    pub delete: T,
}

impl<T> Delta<T> {
    /// Creates a delta from its two sides.
    pub fn new(insert: T, delete: T) -> Self {
        Self { insert, delete }
    }

    /// A delta borrowing both sides.
    pub fn as_ref(&self) -> Delta<&T> {
        Delta {
            insert: &self.insert,
            delete: &self.delete,
        }
    }

    /// Applies `f` to both sides.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Delta<U> {
        Delta {
            insert: f(self.insert),
            delete: f(self.delete),
        }
    }
}

/// What kind of change reaches a node when base-relation deltas propagate
/// upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeltaMode {
    /// No changed relation below this node.
    Unchanged,
    /// Only insertions reach this node.
    InsertOnly,
    /// Insertions and deletions reach this node.
    InsertDelete,
}

impl DeltaMode {
    /// Whether the change carries deletions.
    pub fn has_deletes(self) -> bool {
        self == DeltaMode::InsertDelete
    }
}

/// Why a node cannot be maintained by delta propagation. Each constant is a
/// rule from the module-level table; the engine surfaces them unchanged when
/// it falls back to recomputation.
pub mod reason {
    /// Deletions flowing into a join need the counting algorithm.
    pub const JOIN_DELETE: &str =
        "deletions through a join need the counting algorithm; recomputing";
    /// `AVG` is stored finalized (`SUM/COUNT`) and cannot be re-opened.
    pub const AVG_FOLD: &str = "AVG cannot be folded from finalized partials; recomputing";
    /// `MIN`/`MAX` cannot absorb deletions (the extremum may be gone).
    pub const MINMAX_DELETE: &str = "MIN/MAX cannot absorb deletions; recomputing";
    /// Deletions need a `COUNT` column to witness emptied groups.
    pub const COUNT_WITNESS: &str =
        "deletions need a COUNT aggregate to witness emptied groups; recomputing";
    /// An aggregate below the view root has no stored partials to fold into.
    pub const NESTED_AGGREGATE: &str =
        "an aggregate below the view root cannot stream deltas; recomputing";
}

/// Per-node outcome of delta propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDelta {
    /// The node can pass the stated delta kind through.
    Mode(DeltaMode),
    /// The node blocks delta propagation for the stated rule.
    Recompute(&'static str),
}

/// The delta annotation of every node under one view root — the result of
/// [`label_deltas`], keyed by the arena's interned [`ExprId`]s.
#[derive(Debug, Clone)]
pub struct DeltaLabels {
    root: ExprId,
    modes: BTreeMap<ExprId, NodeDelta>,
}

impl DeltaLabels {
    /// The interned id of the labelled root.
    pub fn root_id(&self) -> ExprId {
        self.root
    }

    /// The root's delta outcome.
    pub fn root(&self) -> NodeDelta {
        self.modes[&self.root]
    }

    /// The outcome at one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of the labelled sub-DAG.
    pub fn node(&self, id: ExprId) -> NodeDelta {
        self.modes[&id]
    }
}

/// Annotates every node of `root`'s sub-DAG with the delta reaching it when
/// the relations in `changed` receive the stated change kinds. Shared
/// subexpressions are labelled once — the annotation rides on the interned
/// [`ExprArena`] classes.
pub fn label_deltas(
    arena: &mut ExprArena,
    root: &Arc<Expr>,
    changed: &BTreeMap<RelName, DeltaMode>,
) -> DeltaLabels {
    let root_id = arena.intern(root);
    let order: Vec<ExprId> = arena.postorder(root_id).to_vec();
    let mut modes: BTreeMap<ExprId, NodeDelta> = BTreeMap::new();
    for id in order {
        let children: Vec<NodeDelta> = arena.children(id).iter().map(|c| modes[c]).collect();
        let label = match &**arena.expr(id) {
            Expr::Base(name) => {
                NodeDelta::Mode(changed.get(name).copied().unwrap_or(DeltaMode::Unchanged))
            }
            // σ and π distribute over ∪ and ∖: the child's delta kind
            // passes through unchanged.
            Expr::Select { .. } | Expr::Project { .. } => children[0],
            Expr::Join { .. } => join_label(&children),
            Expr::Aggregate { aggs, .. } => match children[0] {
                NodeDelta::Recompute(r) => NodeDelta::Recompute(r),
                NodeDelta::Mode(DeltaMode::Unchanged) => NodeDelta::Mode(DeltaMode::Unchanged),
                NodeDelta::Mode(mode) => aggregate_label(mode, aggs),
            },
        };
        modes.insert(id, label);
    }
    DeltaLabels {
        root: root_id,
        modes,
    }
}

/// Combines the children of an (arena-flattened) join. Any recompute verdict
/// propagates; otherwise insert-only deltas expand via
/// `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR`, and deletions block.
fn join_label(children: &[NodeDelta]) -> NodeDelta {
    let mut mode = DeltaMode::Unchanged;
    for c in children {
        match c {
            NodeDelta::Recompute(r) => return NodeDelta::Recompute(r),
            NodeDelta::Mode(DeltaMode::Unchanged) => {}
            NodeDelta::Mode(DeltaMode::InsertOnly) => {
                if mode == DeltaMode::Unchanged {
                    mode = DeltaMode::InsertOnly;
                }
            }
            NodeDelta::Mode(DeltaMode::InsertDelete) => {
                return NodeDelta::Recompute(reason::JOIN_DELETE)
            }
        }
    }
    NodeDelta::Mode(mode)
}

/// Whether γ can fold the stated delta kind given its aggregate list: every
/// aggregate must roll up ([`rolled_up`](crate::AggExpr::rolled_up)).
fn aggregate_label(mode: DeltaMode, aggs: &[crate::AggExpr]) -> NodeDelta {
    if aggs.iter().any(|a| a.rolled_up().is_none()) {
        return NodeDelta::Recompute(reason::AVG_FOLD);
    }
    match mode {
        DeltaMode::Unchanged => NodeDelta::Mode(DeltaMode::Unchanged),
        DeltaMode::InsertOnly => NodeDelta::Mode(DeltaMode::InsertOnly),
        DeltaMode::InsertDelete => {
            if aggs
                .iter()
                .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
            {
                return NodeDelta::Recompute(reason::MINMAX_DELETE);
            }
            if !aggs.iter().any(|a| a.func == AggFunc::Count) {
                return NodeDelta::Recompute(reason::COUNT_WITNESS);
            }
            NodeDelta::Mode(DeltaMode::InsertDelete)
        }
    }
}

/// How a refresh pass should maintain one view given the changed relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePlan {
    /// No changed relation reaches the view: keep the stored table.
    Noop,
    /// SPJ view: compute the view delta and apply it (append the inserts,
    /// cancel the deletes).
    Apply(DeltaMode),
    /// The view root is γ over a delta-maintainable input: fold per-group
    /// partials into the stored groups.
    FoldAggregate(DeltaMode),
    /// Delta maintenance is impossible; recompute, for the stated rule.
    Recompute(&'static str),
}

/// Classifies the maintenance strategy for `view` under `changed` — the
/// decision `Warehouse::refresh` makes per stale view.
pub fn maintenance_plan(
    arena: &mut ExprArena,
    view: &Arc<Expr>,
    changed: &BTreeMap<RelName, DeltaMode>,
) -> MaintenancePlan {
    let labels = label_deltas(arena, view, changed);
    let root = labels.root_id();
    let mode = match labels.root() {
        NodeDelta::Recompute(r) => return MaintenancePlan::Recompute(r),
        NodeDelta::Mode(DeltaMode::Unchanged) => return MaintenancePlan::Noop,
        NodeDelta::Mode(mode) => mode,
    };
    // A γ strictly below the root has no stored partials to fold into: it
    // would have to re-derive its whole output to emit a delta.
    for id in arena.postorder(root) {
        if *id == root {
            continue;
        }
        if matches!(&**arena.expr(*id), Expr::Aggregate { .. })
            && labels.node(*id) != NodeDelta::Mode(DeltaMode::Unchanged)
        {
            return MaintenancePlan::Recompute(reason::NESTED_AGGREGATE);
        }
    }
    if matches!(&**arena.expr(root), Expr::Aggregate { .. }) {
        MaintenancePlan::FoldAggregate(mode)
    } else {
        MaintenancePlan::Apply(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggExpr, AttrRef, CompareOp, JoinCondition, Predicate};

    fn changed(pairs: &[(&str, DeltaMode)]) -> BTreeMap<RelName, DeltaMode> {
        pairs.iter().map(|(n, m)| (RelName::new(*n), *m)).collect()
    }

    fn spj() -> Arc<Expr> {
        Expr::project(
            Expr::join(
                Expr::select(
                    Expr::base("R"),
                    Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Lt, 10),
                ),
                Expr::base("S"),
                JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
            ),
            [AttrRef::new("R", "a"), AttrRef::new("S", "b")],
        )
    }

    #[test]
    fn select_project_distribute_both_delta_kinds() {
        let mut arena = ExprArena::new();
        let plan = Expr::project(
            Expr::select(
                Expr::base("R"),
                Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Eq, 1),
            ),
            [AttrRef::new("R", "a")],
        );
        for mode in [DeltaMode::InsertOnly, DeltaMode::InsertDelete] {
            let labels = label_deltas(&mut arena, &plan, &changed(&[("R", mode)]));
            assert_eq!(labels.root(), NodeDelta::Mode(mode));
        }
    }

    #[test]
    fn untouched_relations_leave_the_view_unchanged() {
        let mut arena = ExprArena::new();
        let plan = maintenance_plan(
            &mut arena,
            &spj(),
            &changed(&[("T", DeltaMode::InsertOnly)]),
        );
        assert_eq!(plan, MaintenancePlan::Noop);
    }

    #[test]
    fn insert_deltas_expand_through_joins() {
        let mut arena = ExprArena::new();
        let plan = maintenance_plan(
            &mut arena,
            &spj(),
            &changed(&[("R", DeltaMode::InsertOnly), ("S", DeltaMode::InsertOnly)]),
        );
        assert_eq!(plan, MaintenancePlan::Apply(DeltaMode::InsertOnly));
    }

    #[test]
    fn join_deletes_force_recompute() {
        let mut arena = ExprArena::new();
        let plan = maintenance_plan(
            &mut arena,
            &spj(),
            &changed(&[("R", DeltaMode::InsertDelete)]),
        );
        assert_eq!(plan, MaintenancePlan::Recompute(reason::JOIN_DELETE));
    }

    fn gamma(aggs: Vec<AggExpr>) -> Arc<Expr> {
        Expr::aggregate(Expr::base("R"), [AttrRef::new("R", "g")], aggs)
    }

    #[test]
    fn count_sum_fold_inserts_and_deletes() {
        let mut arena = ExprArena::new();
        let view = gamma(vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Sum, AttrRef::new("R", "v"), "total"),
        ]);
        for mode in [DeltaMode::InsertOnly, DeltaMode::InsertDelete] {
            let plan = maintenance_plan(&mut arena, &view, &changed(&[("R", mode)]));
            assert_eq!(plan, MaintenancePlan::FoldAggregate(mode));
        }
    }

    #[test]
    fn min_max_fold_inserts_but_not_deletes() {
        let mut arena = ExprArena::new();
        let view = gamma(vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Min, AttrRef::new("R", "v"), "low"),
        ]);
        assert_eq!(
            maintenance_plan(&mut arena, &view, &changed(&[("R", DeltaMode::InsertOnly)])),
            MaintenancePlan::FoldAggregate(DeltaMode::InsertOnly)
        );
        assert_eq!(
            maintenance_plan(
                &mut arena,
                &view,
                &changed(&[("R", DeltaMode::InsertDelete)])
            ),
            MaintenancePlan::Recompute(reason::MINMAX_DELETE)
        );
    }

    #[test]
    fn avg_always_recomputes() {
        let mut arena = ExprArena::new();
        let view = gamma(vec![AggExpr::new(
            AggFunc::Avg,
            AttrRef::new("R", "v"),
            "mean",
        )]);
        assert_eq!(
            maintenance_plan(&mut arena, &view, &changed(&[("R", DeltaMode::InsertOnly)])),
            MaintenancePlan::Recompute(reason::AVG_FOLD)
        );
    }

    #[test]
    fn deletes_without_count_witness_recompute() {
        let mut arena = ExprArena::new();
        let view = gamma(vec![AggExpr::new(
            AggFunc::Sum,
            AttrRef::new("R", "v"),
            "total",
        )]);
        assert_eq!(
            maintenance_plan(
                &mut arena,
                &view,
                &changed(&[("R", DeltaMode::InsertDelete)])
            ),
            MaintenancePlan::Recompute(reason::COUNT_WITNESS)
        );
    }

    #[test]
    fn nested_aggregates_recompute() {
        let mut arena = ExprArena::new();
        let inner = gamma(vec![AggExpr::count_star("n")]);
        let view = Expr::select(
            inner,
            Predicate::cmp(AttrRef::new("#agg", "n"), CompareOp::Gt, 5),
        );
        assert_eq!(
            maintenance_plan(&mut arena, &view, &changed(&[("R", DeltaMode::InsertOnly)])),
            MaintenancePlan::Recompute(reason::NESTED_AGGREGATE)
        );
    }

    #[test]
    fn delta_carrier_maps_both_sides() {
        let d = Delta::new(vec![1, 2], vec![3]).map(|v| v.len());
        assert_eq!(d, Delta::new(2, 1));
        assert_eq!(*d.as_ref().insert, 2);
    }
}
