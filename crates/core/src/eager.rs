//! Eager aggregation (Yan & Larson, VLDB 1995): plans for a γ over joins
//! that group before a join instead of only after the last one. A refresh
//! planner prices them, and the definition, with
//! [`CostEstimator`](mvdesign_cost::CostEstimator).
//!
//! * [`eager_aggregation`] groups one child of the join directly under the
//!   γ: `γ[G; rolled(A)](γ[keys; A](X) ⋈ Y)`.
//! * [`eager_chain`] goes along the whole join tree: it starts from the
//!   relation holding every aggregate input, joins one adjacent relation
//!   at a time, and groups after every join where that shrinks the rows.
//!
//! Every form gives the definition's rows: members of one partial group
//! carry the same values of everything read above it (the keys of
//! [`roll_up_keys`]), so they meet the same rows further up, and each
//! aggregate re-aggregates by [`AggExpr::rolled_up`]. The engine's γ emits
//! its groups sorted by key, so the order is the definition's too.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, Expr, JoinCondition, Predicate, RelName};
use mvdesign_cost::CardinalityEstimator;

use crate::rewrite::roll_up_keys;

/// Whether `expr` holds a γ.
fn aggregates(expr: &Arc<Expr>) -> bool {
    let mut found = false;
    mvdesign_algebra::postorder(expr, &mut |n| {
        found |= matches!(**n, Expr::Aggregate { .. });
    });
    found
}

/// `γ[G; A](X ⋈ Y)` rebuilt by eager aggregation: the child holding every
/// aggregate input is grouped first, by its keys in `G` and the attributes
/// the join compares (the key rule of the designer's roll-up candidates),
/// and the join reads those per-key partials instead of its rows:
/// `γ[G; rolled(A)](γ[keys; A](X) ⋈ Y)`, each aggregate re-aggregated by
/// [`AggExpr::rolled_up`]. The other child is
/// kept as it is, and so is the join's orientation. This is the rule
/// [`ViewCatalog::route`](crate::ViewCatalog::route) answers a γ-node by
/// from a γ-view over some of
/// its relations, with the partials computed in the plan instead of read
/// from a stored view; the result is the definition's, row for row.
///
/// When both children qualify (only `COUNT(*)`), the one whose base
/// relations hold more rows by `cards` is grouped. `None` when the rule does
/// not apply: the root is not a γ directly over a join (a σ or π between
/// them included), `G` is empty, an aggregate does not roll up (`AVG`), a
/// child already aggregates, a join pair does not link the two children,
/// or no child holds every aggregate input.
pub fn eager_aggregation(expr: &Arc<Expr>, cards: &CardinalityEstimator<'_>) -> Option<Arc<Expr>> {
    let Expr::Aggregate {
        input,
        group_by,
        aggs,
    } = &**expr
    else {
        return None;
    };
    let Expr::Join { left, right, on } = &**input else {
        return None;
    };
    let rolled: Vec<AggExpr> = aggs.iter().map(AggExpr::rolled_up).collect::<Option<_>>()?;
    if group_by.is_empty() || aggregates(left) || aggregates(right) {
        return None;
    }
    let left_relations = left.base_relations();
    let crossing = |(a, b): &(AttrRef, AttrRef)| {
        left_relations.contains(&a.relation) != left_relations.contains(&b.relation)
    };
    if !on.pairs().iter().all(crossing) {
        return None;
    }
    let holds_inputs = |s: &BTreeSet<RelName>| {
        aggs.iter()
            .filter_map(|a| a.input.as_ref())
            .all(|a| s.contains(&a.relation))
    };
    let right_relations = right.base_relations();
    let weight = |s: &BTreeSet<RelName>| base_rows(cards, s);
    let pre_left = match (
        holds_inputs(&left_relations),
        holds_inputs(&right_relations),
    ) {
        (true, true) => weight(&left_relations) >= weight(&right_relations),
        (true, false) => true,
        (false, true) => false,
        (false, false) => return None,
    };
    let (child, s) = if pre_left {
        (left, &left_relations)
    } else {
        (right, &right_relations)
    };
    let keys = roll_up_keys(s, [(&group_by[..], on.pairs(), &[][..])]);
    let partials = Expr::aggregate(Arc::clone(child), keys, aggs.clone());
    let joined = if pre_left {
        Expr::join(partials, Arc::clone(right), on.clone())
    } else {
        Expr::join(Arc::clone(left), partials, on.clone())
    };
    Some(Expr::aggregate(joined, group_by.clone(), rolled))
}

/// `γ[G; A]` over a join tree rebuilt by eager aggregation along the whole
/// tree. The tree's *leaves* are its maximal subtrees that are not joins.
/// The chain starts from the leaf holding every aggregate input (for
/// `COUNT(*)` alone, the one with the most rows by `cards`) and joins one
/// adjacent leaf at a time — the first in tree order that a join pair links
/// to the leaves joined so far — on every pair between the two. Before
/// each join the leaves joined so far are grouped by their keys in `G` and
/// every attribute of theirs a pair or conjunct still to come compares
/// (the key rule of [`eager_aggregation`]), under `A` the first time and
/// rolled up after, but only where `cards` estimates that the group-by
/// shrinks its input; the last join feeds `γ[G; rolled(A)]`. A σ directly
/// under the γ is pushed down: a conjunct over one leaf filters that leaf,
/// any other filters the first join whose two sides together cover what it
/// reads.
///
/// Over `L ⋈ (C ⋈ O)` grouped by Customer's attributes, with `L` holding
/// the inputs: `γ[G](γ[O.ck](γ[L.ok](L) ⋈ O) ⋈ C)`.
///
/// `None` when the rule does not apply: the root is not a γ over a join
/// (or a σ over one), `G` is empty, an aggregate does not roll up (`AVG`),
/// a leaf aggregates, two leaves read one relation, no leaf holds every
/// aggregate input, the join pairs do not connect every leaf, or no
/// group-by before a join shrinks.
pub fn eager_chain(expr: &Arc<Expr>, cards: &CardinalityEstimator<'_>) -> Option<Arc<Expr>> {
    let Expr::Aggregate {
        input,
        group_by,
        aggs,
    } = &**expr
    else {
        return None;
    };
    let rolled: Vec<AggExpr> = aggs.iter().map(AggExpr::rolled_up).collect::<Option<_>>()?;
    let (tree, mut pending) = match &**input {
        Expr::Select { input, predicate } => (input, predicate.conjuncts().to_vec()),
        _ => (input, Vec::new()),
    };
    if group_by.is_empty() || !matches!(**tree, Expr::Join { .. }) {
        return None;
    }
    let mut leaves = Vec::new();
    let mut pairs = Vec::new();
    flatten(tree, &mut leaves, &mut pairs);
    if leaves.iter().any(aggregates) {
        return None;
    }
    let relations: Vec<BTreeSet<RelName>> = leaves.iter().map(|l| l.base_relations()).collect();
    let mut seen = BTreeSet::new();
    if !relations.iter().flatten().all(|r| seen.insert(r)) {
        return None;
    }
    let inputs: Vec<&AttrRef> = aggs.iter().filter_map(|a| a.input.as_ref()).collect();
    let weight = |i: usize| base_rows(cards, &relations[i]);
    let start = match inputs.first() {
        Some(first) => {
            let i = relations.iter().position(|s| s.contains(&first.relation))?;
            if !inputs.iter().all(|a| relations[i].contains(&a.relation)) {
                return None;
            }
            i
        }
        // The first of the heaviest leaves.
        None => (0..leaves.len())
            .rev()
            .max_by(|&a, &b| weight(a).total_cmp(&weight(b)))?,
    };
    let rows = |plan: &Arc<Expr>| cards.stats(plan).records;
    let mut joined = relations[start].clone();
    let mut done = vec![false; leaves.len()];
    done[start] = true;
    let mut plan = filter(&leaves[start], &mut pending, &joined);
    let mut partial = false;
    for _ in 1..leaves.len() {
        let keys = roll_up_keys(&joined, [(&group_by[..], &pairs, &pending[..])]);
        let aggregated = if partial { &rolled } else { aggs };
        let grouped = Expr::aggregate(Arc::clone(&plan), keys, aggregated.iter().cloned());
        if rows(&grouped) < rows(&plan) {
            plan = grouped;
            partial = true;
        }
        let crosses = |i: usize, (a, b): &(AttrRef, AttrRef)| {
            (joined.contains(&a.relation) && relations[i].contains(&b.relation))
                || (joined.contains(&b.relation) && relations[i].contains(&a.relation))
        };
        let next = (0..leaves.len()).find(|&i| !done[i] && pairs.iter().any(|p| crosses(i, p)))?;
        let on = JoinCondition::new(pairs.iter().filter(|p| crosses(next, p)).cloned());
        let leaf = filter(&leaves[next], &mut pending, &relations[next]);
        done[next] = true;
        joined.extend(relations[next].iter().cloned());
        plan = filter(&Expr::join(plan, leaf, on), &mut pending, &joined);
    }
    (partial && pending.is_empty()).then(|| Expr::aggregate(plan, group_by.clone(), rolled))
}

/// Rows of the base relations `relations` in `cards`' catalog.
fn base_rows(cards: &CardinalityEstimator<'_>, relations: &BTreeSet<RelName>) -> f64 {
    let catalog = cards.catalog();
    relations
        .iter()
        .filter_map(|r| catalog.stats(r.as_str()))
        .map(|s| s.records)
        .sum()
}

/// Collects the leaves of the join tree `expr` (its maximal subtrees that
/// are not joins), left to right, and the pairs of its joins.
fn flatten(expr: &Arc<Expr>, leaves: &mut Vec<Arc<Expr>>, pairs: &mut Vec<(AttrRef, AttrRef)>) {
    match &**expr {
        Expr::Join { left, right, on } => {
            flatten(left, leaves, pairs);
            flatten(right, leaves, pairs);
            pairs.extend(on.pairs().iter().cloned());
        }
        _ => leaves.push(Arc::clone(expr)),
    }
}

/// `plan` under the conjuncts of `pending` that read only relations of
/// `covered`, which leave `pending`.
fn filter(
    plan: &Arc<Expr>,
    pending: &mut Vec<Predicate>,
    covered: &BTreeSet<RelName>,
) -> Arc<Expr> {
    let (now, later): (Vec<Predicate>, Vec<Predicate>) = pending
        .drain(..)
        .partition(|p| p.attrs().iter().all(|a| covered.contains(&a.relation)));
    *pending = later;
    Expr::select(Arc::clone(plan), Predicate::and(now))
}
