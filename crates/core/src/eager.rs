//! Eager aggregation (Yan & Larson, VLDB 1995): plans for a γ over joins
//! that group before a join instead of only after the last one, and the
//! block estimate a refresh planner chooses among them by.
//!
//! * [`eager_aggregation`] groups one child of the join directly under the
//!   γ: `γ[G; rolled(A)](γ[keys; A](X) ⋈ Y)`.
//! * [`eager_chain`] goes along the whole join tree: it starts from the
//!   relation holding every aggregate input, joins one adjacent relation
//!   at a time, and groups after every join where that shrinks the rows.
//! * [`estimate`] prices a plan the way `measure` charges it, from row
//!   counts and distinct counts a [`Statistics`] supplies.
//!
//! Every form gives the definition's rows: members of one partial group
//! carry the same values of everything read above it (the keys of
//! [`roll_up_keys`]), so they meet the same rows further up, and each
//! aggregate re-aggregates by [`AggExpr::rolled_up`]. The engine's γ emits
//! its groups sorted by key, so the order is the definition's too.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, CompareOp, Expr, JoinCondition, Predicate, RelName};

use crate::rewrite::roll_up_keys;

/// The sizes [`estimate`] and [`eager_chain`] read.
pub trait Statistics {
    /// Rows of the stored relation `relation` (a base relation or a view).
    fn rows(&self, relation: &RelName) -> f64;

    /// Distinct values of `attr` in the relation it names;
    /// [`f64::INFINITY`] when unknown (the row count of the plan reading
    /// it then bounds it).
    fn distinct(&self, attr: &AttrRef) -> f64;
}

/// A plan's estimated output rows and the blocks it reads and writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Rows the plan returns.
    pub rows: f64,
    /// Blocks charged by every operator of the plan.
    pub blocks: f64,
}

/// Estimates `plan` under `measure`'s charges at `records_per_block`: a
/// scan costs nothing, σ, π and γ cost `b(in) + b(out)`, a join
/// `b(L)·b(R) + b(out)`, with `b(n) = ⌈n / records_per_block⌉`.
///
/// Rows: a scan's come from `stats`; π keeps its input's; σ keeps a
/// textbook fraction per conjunct (1/10 for `=`, 9/10 for `≠`, 1/3 for a
/// range); a join divides the product of its inputs by the larger distinct
/// count of each pair; a γ returns the product of its keys' distinct
/// counts, at most its input (one row without keys). A distinct count is
/// at most the rows of the input holding it.
pub fn estimate(plan: &Arc<Expr>, stats: &impl Statistics, records_per_block: f64) -> Estimate {
    let bf = records_per_block.max(1.0);
    let blocks = |rows: f64| (rows / bf).ceil();
    let unary = |input: &Arc<Expr>, out: &dyn Fn(f64) -> f64| {
        let input = estimate(input, stats, records_per_block);
        let rows = out(input.rows);
        Estimate {
            rows,
            blocks: input.blocks + blocks(input.rows) + blocks(rows),
        }
    };
    match &**plan {
        Expr::Base(name) => Estimate {
            rows: stats.rows(name),
            blocks: 0.0,
        },
        Expr::Select { input, predicate } => unary(input, &|rows| rows * selectivity(predicate)),
        Expr::Project { input, .. } => unary(input, &|rows| rows),
        Expr::Aggregate {
            input, group_by, ..
        } => unary(input, &|rows| {
            if group_by.is_empty() {
                return 1.0;
            }
            let keys: f64 = group_by
                .iter()
                .map(|g| stats.distinct(g).min(rows))
                .product();
            keys.min(rows)
        }),
        Expr::Join { left, right, on } => {
            let l = estimate(left, stats, records_per_block);
            let r = estimate(right, stats, records_per_block);
            let left_relations = left.base_relations();
            let side = |a: &AttrRef| {
                if left_relations.contains(&a.relation) {
                    l.rows
                } else {
                    r.rows
                }
            };
            let distinct = |a: &AttrRef| stats.distinct(a).min(side(a)).max(1.0);
            let rows = on.pairs().iter().fold(l.rows * r.rows, |rows, (a, b)| {
                rows / distinct(a).max(distinct(b))
            });
            Estimate {
                rows,
                blocks: l.blocks + r.blocks + blocks(l.rows) * blocks(r.rows) + blocks(rows),
            }
        }
    }
}

/// The textbook fraction of rows `predicate` keeps.
fn selectivity(predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::True => 1.0,
        Predicate::Cmp(c) => match c.op {
            CompareOp::Eq => 0.1,
            CompareOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        },
        Predicate::And(ps) => ps.iter().map(selectivity).product(),
        Predicate::Or(ps) => 1.0 - ps.iter().map(|p| 1.0 - selectivity(p)).product::<f64>(),
    }
}

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
/// relations hold more rows by `rows` is grouped. `None` when the rule does
/// not apply: the root is not a γ directly over a join (a σ or π between
/// them included), `G` is empty, an aggregate does not roll up (`AVG`), a
/// child already aggregates, a join pair does not link the two children,
/// or no child holds every aggregate input.
pub fn eager_aggregation(expr: &Arc<Expr>, rows: impl Fn(&RelName) -> usize) -> Option<Arc<Expr>> {
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
    let weight = |s: &BTreeSet<RelName>| s.iter().map(&rows).sum::<usize>();
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
/// `COUNT(*)` alone, the one with the most rows by `stats`) and joins one
/// adjacent leaf at a time — the first in tree order that a join pair links
/// to the leaves joined so far — on every pair between the two. Before
/// each join the leaves joined so far are grouped by their keys in `G` and
/// every attribute of theirs a pair or conjunct still to come compares
/// (the key rule of [`eager_aggregation`]), under `A` the first time and
/// rolled up after, but only where [`estimate`] says the group-by shrinks
/// its input; the last join feeds `γ[G; rolled(A)]`. A σ directly under the γ is pushed down: a conjunct
/// over one leaf filters that leaf, any other filters the first join whose
/// two sides together cover what it reads.
///
/// Over `L ⋈ (C ⋈ O)` grouped by Customer's attributes, with `L` holding
/// the inputs: `γ[G](γ[O.ck](γ[L.ok](L) ⋈ O) ⋈ C)`.
///
/// `None` when the rule does not apply: the root is not a γ over a join
/// (or a σ over one), `G` is empty, an aggregate does not roll up (`AVG`),
/// a leaf aggregates, two leaves read one relation, no leaf holds every
/// aggregate input, the join pairs do not connect every leaf, or no
/// group-by before a join shrinks.
pub fn eager_chain(expr: &Arc<Expr>, stats: &impl Statistics) -> Option<Arc<Expr>> {
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
    let weight = |i: usize| relations[i].iter().map(|r| stats.rows(r)).sum::<f64>();
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
    let rows = |plan: &Arc<Expr>| estimate(plan, stats, 1.0).rows;
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
