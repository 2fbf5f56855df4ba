//! The paper's Figure-4 algorithm: generating multiple candidate MVPPs by
//! merging individually-optimal query plans on shared join patterns, one
//! candidate per rotation of the merge order.
//!
//! The steps map to the paper as follows:
//!
//! 1. an optimal plan per query (`mvdesign-optimizer`'s [`Planner`]);
//! 2. pull selects/projects above the joins ([`mvdesign_optimizer::pull_up`]);
//! 3. order plans by `fq(q)·Ca(q)` descending;
//! 4. merge plans into the current MVPP, reusing any existing join node
//!    whose relations and join conditions agree with the incoming plan
//!    (step 4.3's "divide the leaf nodes into subsets already joined in
//!    MVPP(n)");
//! 5. (and 6.) push selections (as per-leaf *disjunctions* across queries)
//!    and projections (as per-leaf attribute *unions*, plus join attributes)
//!    back down to the leaves; each query re-applies its own predicate above
//!    its join subtree when the shared leaf filter is weaker than its own;
//! 7. (the aggregate counterpart of 5–6, which the paper does not have)
//!    above every join that several γ roots share, add the roll-up candidate
//!    `γ[∪ keys; ∪ aggregates]` and rebuild those roots over it.
//!
//! With `k` queries, rotating the merge order yields `k` MVPPs (Figure 6);
//! [`crate::Designer`] then runs view selection on each and keeps the best.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mvdesign_algebra::{
    roll_up_keys, AggExpr, AttrRef, Expr, JoinCondition, Predicate, Query, RelName,
};
use mvdesign_cost::{CardinalityEstimator, CostEstimator, CostModel};
use mvdesign_optimizer::{pull_up, Planner};

use crate::mvpp::Mvpp;
use crate::rewrite::answer_from_groups;
use crate::workload::Workload;

/// Tuning knobs for [`generate_mvpps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateConfig {
    /// Maximum number of rotations (candidate MVPPs). The paper generates
    /// one per query; large workloads cap this.
    pub max_rotations: usize,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        Self { max_rotations: 8 }
    }
}

/// A query reduced to the paper's "pushed-up" merge form.
#[derive(Debug, Clone)]
struct PreparedQuery {
    name: String,
    fq: f64,
    bases: BTreeSet<RelName>,
    conds: BTreeSet<(AttrRef, AttrRef)>,
    /// Single-relation conjunctions, per relation.
    per_rel: BTreeMap<RelName, Predicate>,
    /// Conjuncts spanning several relations.
    residual: Vec<Predicate>,
    projection: Option<Vec<AttrRef>>,
    /// Final aggregation, when the query groups (`γ` re-applied above the
    /// shared joins, like the projection).
    aggregate: Option<(Vec<AttrRef>, Vec<AggExpr>)>,
    /// Which attributes the query ultimately needs from the base relations —
    /// `None` means all of them (a `SELECT *`).
    needs: Option<Vec<AttrRef>>,
    /// `fq · Ca(optimal plan)` — the ordering key of Figure 4, step 3.
    cost_key: f64,
    /// Set when the plan is not in SPJ normal form (e.g. an aggregation
    /// nested under a join): the merge machinery cannot restructure such a
    /// plan safely, so it is inserted verbatim and shares only via
    /// common-subexpression interning.
    raw: Option<Arc<Expr>>,
}

/// The shared, workload-wide leaf expressions (Figure 4, steps 5–6): each
/// base relation filtered by the *disjunction* of every query's predicate on
/// it and projected to the *union* of every needed attribute.
#[derive(Debug, Clone)]
struct SharedLeaves {
    exprs: BTreeMap<RelName, Arc<Expr>>,
    filters: BTreeMap<RelName, Predicate>,
}

/// Generates up to `k` candidate MVPPs for the workload (Figure 4).
pub fn generate_mvpps<M: CostModel>(
    workload: &Workload,
    est: &CostEstimator<'_, M>,
    planner: &Planner,
    config: GenerateConfig,
) -> Vec<Mvpp> {
    let mut prepared: Vec<PreparedQuery> = workload
        .queries()
        .iter()
        .map(|q| prepare(q, est, planner))
        .collect();
    // Step 3: descending fq·Ca, name as deterministic tie-break.
    prepared.sort_by(|a, b| {
        b.cost_key
            .total_cmp(&a.cost_key)
            .then_with(|| a.name.cmp(&b.name))
    });
    let leaves = shared_leaves(&prepared, est);
    let k = prepared.len().min(config.max_rotations).max(1);
    (0..k)
        .map(|r| {
            let order: Vec<&PreparedQuery> = prepared
                .iter()
                .cycle()
                .skip(r)
                .take(prepared.len())
                .collect();
            merge_prepared(&order, &leaves, est)
        })
        .collect()
}

/// Merges the workload's queries into a single MVPP in the given name
/// order — the paper's inner merge (Figure 4, step 4) exposed for tests and
/// figure reproduction. Unknown names are ignored.
pub fn merge_queries<M: CostModel>(
    workload: &Workload,
    order: &[&str],
    est: &CostEstimator<'_, M>,
    planner: &Planner,
) -> Mvpp {
    let prepared: Vec<PreparedQuery> = order
        .iter()
        .filter_map(|name| workload.query(name))
        .map(|q| prepare(q, est, planner))
        .collect();
    let leaves = shared_leaves(&prepared, est);
    let refs: Vec<&PreparedQuery> = prepared.iter().collect();
    merge_prepared(&refs, &leaves, est)
}

fn prepare<M: CostModel>(
    query: &Query,
    est: &CostEstimator<'_, M>,
    planner: &Planner,
) -> PreparedQuery {
    let optimal = planner.optimize(query.root(), est);
    let cost_key = query.frequency() * est.tree_cost(&optimal);
    let pulled = pull_up(&optimal);
    let raw = if is_pure_join_tree(&pulled.join_tree) {
        None
    } else {
        Some(Arc::clone(&optimal))
    };

    let mut conds = BTreeSet::new();
    flatten_conds(&pulled.join_tree, &mut conds);

    let mut per_rel: BTreeMap<RelName, Vec<Predicate>> = BTreeMap::new();
    let mut residual = Vec::new();
    let conjuncts = match pulled.predicate {
        Predicate::True => Vec::new(),
        Predicate::And(ps) => ps,
        other => vec![other],
    };
    for conjunct in conjuncts {
        let rels: BTreeSet<RelName> = conjunct
            .attrs()
            .iter()
            .map(|a| a.relation.clone())
            .collect();
        if rels.len() == 1 {
            per_rel
                .entry(rels.into_iter().next().expect("len checked"))
                .or_default()
                .push(conjunct);
        } else {
            residual.push(conjunct);
        }
    }

    // What the query needs from the bases: its projection, or — when an
    // aggregation defines the output — the group keys and aggregate inputs.
    let needs = match (&pulled.projection, &pulled.aggregate) {
        (_, Some((group_by, aggs))) => {
            let mut n: Vec<AttrRef> = group_by
                .iter()
                .filter(|a| a.relation.as_str() != mvdesign_algebra::AGG_RELATION)
                .cloned()
                .collect();
            n.extend(aggs.iter().filter_map(|a| a.input.clone()));
            Some(n)
        }
        (Some(p), None) => Some(p.clone()),
        (None, None) => None,
    };

    PreparedQuery {
        name: query.name().to_string(),
        fq: query.frequency(),
        bases: pulled.join_tree.base_relations(),
        conds,
        per_rel: per_rel
            .into_iter()
            .map(|(r, ps)| (r, Predicate::and(ps)))
            .collect(),
        residual,
        projection: pulled.projection,
        aggregate: pulled.aggregate,
        needs,
        cost_key,
        raw,
    }
}

/// Whether an expression consists of joins over base relations only.
fn is_pure_join_tree(expr: &Arc<Expr>) -> bool {
    match &**expr {
        Expr::Base(_) => true,
        Expr::Join { left, right, .. } => is_pure_join_tree(left) && is_pure_join_tree(right),
        _ => false,
    }
}

fn flatten_conds(expr: &Arc<Expr>, out: &mut BTreeSet<(AttrRef, AttrRef)>) {
    if let Expr::Join { left, right, on } = &**expr {
        out.extend(on.pairs().iter().cloned());
        flatten_conds(left, out);
        flatten_conds(right, out);
    }
}

fn shared_leaves<M: CostModel>(
    prepared: &[PreparedQuery],
    est: &CostEstimator<'_, M>,
) -> SharedLeaves {
    let catalog = est.cardinalities().catalog();
    let mut filters: BTreeMap<RelName, Predicate> = BTreeMap::new();
    let mut needed: BTreeMap<RelName, Option<BTreeSet<AttrRef>>> = BTreeMap::new();

    // Raw (non-SPJ) plans keep their own operators; they neither contribute
    // to nor consume the shared leaves.
    let prepared: Vec<&PreparedQuery> = prepared.iter().filter(|q| q.raw.is_none()).collect();
    let rels: BTreeSet<&RelName> = prepared.iter().flat_map(|q| q.bases.iter()).collect();
    for rel in rels {
        // Figure 4, step 5: the leaf filter is the disjunction of every
        // query's selection on this relation; a query with no selection
        // forces the filter to True.
        let mut alternatives = Vec::new();
        let mut unconstrained = false;
        for q in prepared.iter().filter(|q| q.bases.contains(rel)) {
            match q.per_rel.get(rel) {
                Some(p) => alternatives.push(p.clone()),
                None => unconstrained = true,
            }
        }
        let filter = if unconstrained {
            Predicate::True
        } else {
            Predicate::or(alternatives)
        };
        filters.insert(rel.clone(), filter);

        // Figure 4, step 6: union of projected attributes plus predicate and
        // join attributes. `None` means "all attributes" (a query without a
        // projection).
        let entry = needed
            .entry(rel.clone())
            .or_insert_with(|| Some(BTreeSet::new()));
        for q in prepared.iter().filter(|q| q.bases.contains(rel)) {
            let Some(set) = entry else { break };
            match &q.needs {
                None => {
                    *entry = None;
                    break;
                }
                Some(attrs) => {
                    set.extend(attrs.iter().filter(|a| a.relation == *rel).cloned());
                }
            }
        }
        if let Some(set) = entry {
            for q in prepared.iter().filter(|q| q.bases.contains(rel)) {
                if let Some(p) = q.per_rel.get(rel) {
                    set.extend(p.attrs().into_iter().cloned());
                }
                for p in &q.residual {
                    set.extend(
                        p.attrs()
                            .into_iter()
                            .filter(|a| a.relation == *rel)
                            .cloned(),
                    );
                }
                for (a, b) in &q.conds {
                    for side in [a, b] {
                        if side.relation == *rel {
                            set.insert(side.clone());
                        }
                    }
                }
            }
        }
    }

    let mut exprs = BTreeMap::new();
    for (rel, filter) in &filters {
        let mut e = Expr::select(Expr::base(rel.clone()), filter.clone());
        if let Some(Some(attrs)) = needed.get(rel) {
            let full_arity = catalog.schema(rel.as_str()).map(|s| s.arity());
            if full_arity.is_some_and(|n| attrs.len() < n) && !attrs.is_empty() {
                e = Expr::project(e, attrs.iter().cloned());
            }
        }
        exprs.insert(rel.clone(), e);
    }
    SharedLeaves { exprs, filters }
}

/// What step 4.3 asks of a join node of the MVPP under construction. None of
/// it depends on the asking query, and nodes only append, so it is worked
/// out once, when the node appears, not once per later query.
struct JoinNode {
    expr: Arc<Expr>,
    /// The base relations below the join.
    bases: BTreeSet<RelName>,
    /// Every join condition in its subtree.
    conds: BTreeSet<(AttrRef, AttrRef)>,
    /// Whether every non-join subtree is one of the workload's shared leaf
    /// expressions, so that reusing the node cannot change a query's result.
    ///
    /// Decided by interned identity: a subtree of an MVPP node is itself an
    /// MVPP node, and it is the shared leaf exactly when both are one class
    /// of the estimator's table — which stays true or false as the MVPP
    /// grows.
    over_shared_leaves: bool,
}

/// [`JoinNode`]s of an MVPP, by node index (`None` for every other node).
#[derive(Default)]
struct JoinIndex(Vec<Option<JoinNode>>);

impl JoinIndex {
    /// Indexes the nodes appended to `mvpp` since the last call.
    fn extend(&mut self, mvpp: &Mvpp, leaves: &SharedLeaves, classes: &CardinalityEstimator<'_>) {
        for node in &mvpp.nodes()[self.0.len()..] {
            let join = matches!(&**node.expr(), Expr::Join { .. }).then(|| {
                let mut conds = BTreeSet::new();
                flatten_conds(node.expr(), &mut conds);
                // Children precede their parents, so they are indexed.
                let over_shared_leaves = node.children().iter().all(|&c| match &self.0[c.0] {
                    Some(child) => child.over_shared_leaves,
                    None => {
                        let child = mvpp.node(c).expr();
                        let rel = child.base_relations().pop_first();
                        let leaf = rel.and_then(|r| leaves.exprs.get(&r));
                        leaf.is_some_and(|leaf| classes.class_of(leaf) == classes.class_of(child))
                    }
                });
                JoinNode {
                    expr: Arc::clone(node.expr()),
                    bases: node.expr().base_relations(),
                    conds,
                    over_shared_leaves,
                }
            });
            self.0.push(join);
        }
    }
}

/// Figure 4, step 4: merge the prepared plans in order over shared leaves,
/// then roll up the joins several aggregations share.
fn merge_prepared<M: CostModel>(
    order: &[&PreparedQuery],
    leaves: &SharedLeaves,
    est: &CostEstimator<'_, M>,
) -> Mvpp {
    let mut mvpp = Mvpp::builder(est.cardinalities());
    let mut joins = JoinIndex::default();
    for q in order {
        joins.extend(mvpp.mvpp(), leaves, est.cardinalities());
        let expr = build_query_expr(q, leaves, &joins, est);
        mvpp.insert_query(q.name.clone(), q.fq, &expr);
    }
    roll_up_shared_joins(mvpp.finish(), order, est.cardinalities())
}

/// The aggregate counterpart of steps 5–6. Steps 5–6 push the disjunction
/// of the queries' selections and the union of their projections down onto
/// the shared subtrees; this adds, above every join that two or more γ
/// roots read, the roll-up candidate `γ[∪ keys; ∪ aggregates]` over that
/// join, and rebuilds those roots over it. The candidate is annotated and
/// selected like any other node; nothing here decides whether it is kept.
///
/// A root is rebuilt by the view matcher's own rule
/// ([`crate::rewrite`]'s eager aggregation), so a merged plan and the same
/// query routed from SQL text read the candidate through the same plan.
/// A root whose aggregates do not roll up (`AVG`) stays as it was.
fn roll_up_shared_joins(
    mvpp: Mvpp,
    order: &[&PreparedQuery],
    classes: &CardinalityEstimator<'_>,
) -> Mvpp {
    let grouped = |q: &PreparedQuery| q.aggregate.is_some() && q.raw.is_none();
    if order.iter().filter(|q| grouped(q)).count() < 2 {
        return mvpp;
    }
    // The γ roots (indices into `order`) reading each join node.
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); mvpp.len()];
    for (i, (_, _, root)) in mvpp.roots().iter().enumerate() {
        if !grouped(order[i]) {
            continue;
        }
        for d in mvpp.descendants(*root) {
            if matches!(&**mvpp.node(d).expr(), Expr::Join { .. }) {
                readers[d.0].push(i);
            }
        }
    }
    let mut plans: Vec<Arc<Expr>> = mvpp
        .roots()
        .iter()
        .map(|(_, _, root)| Arc::clone(mvpp.node(*root).expr()))
        .collect();
    let mut folded = vec![false; plans.len()];
    for node in mvpp.nodes() {
        let shared_by = &readers[node.id().0];
        // The widest join each set of roots shares: a join whose parent join
        // is read by the same roots is inside that parent's candidate.
        if shared_by.len() < 2 || node.parents().iter().any(|p| readers[p.0] == *shared_by) {
            continue;
        }
        let open: Vec<usize> = shared_by.iter().copied().filter(|&i| !folded[i]).collect();
        let Some(candidate) = roll_up_candidate(node.expr(), open.iter().map(|&i| order[i])) else {
            continue;
        };
        let rebuilt: Vec<(usize, Arc<Expr>)> = open
            .into_iter()
            .filter_map(|i| {
                answer_from_groups(&plans[i], &candidate, Arc::clone(&candidate))
                    .ok()
                    .map(|plan| (i, plan))
            })
            .collect();
        if rebuilt.len() < 2 {
            continue;
        }
        for (i, plan) in rebuilt {
            plans[i] = plan;
            folded[i] = true;
        }
    }
    if !folded.contains(&true) {
        return mvpp;
    }
    let mut out = Mvpp::builder(classes);
    for (q, plan) in order.iter().zip(&plans) {
        out.insert_query(q.name.clone(), q.fq, plan);
    }
    out.finish()
}

/// `γ[keys; aggregates]` over `join` for the γ roots that read it. The keys
/// ([`roll_up_keys`], the rule eager aggregation groups a join input by
/// too) are each root's group keys on the join's relations `S`, plus every
/// attribute of `S` a root compares above the join: the join-side attribute
/// of each pair linking `S` to a relation joined above (the dimension joins
/// stay above the γ) and what its conjuncts spanning `S` and other
/// relations read. A root with an aggregate that does not roll up, one over
/// a relation outside `S`, or an alias another root gives a different
/// aggregate adds nothing. `None` when no root adds anything.
fn roll_up_candidate<'q>(
    join: &Arc<Expr>,
    roots: impl Iterator<Item = &'q PreparedQuery>,
) -> Option<Arc<Expr>> {
    let s = join.base_relations();
    let in_s = |a: &AttrRef| s.contains(&a.relation);
    let mut taken = Vec::new();
    let mut aggs: Vec<AggExpr> = Vec::new();
    for q in roots {
        let Some((group_by, q_aggs)) = &q.aggregate else {
            continue;
        };
        let folds = |a: &AggExpr| {
            a.rolled_up().is_some()
                && a.input.as_ref().is_none_or(in_s)
                && aggs.iter().all(|b| b.alias != a.alias || b == a)
        };
        if !q_aggs.iter().all(folds) {
            continue;
        }
        for a in q_aggs {
            if !aggs.contains(a) {
                aggs.push(a.clone());
            }
        }
        taken.push((&group_by[..], &q.conds, &q.residual[..]));
    }
    if aggs.is_empty() {
        return None;
    }
    let keys = roll_up_keys(&s, taken);
    Some(Expr::aggregate(Arc::clone(join), keys, aggs))
}

fn build_query_expr<M: CostModel>(
    q: &PreparedQuery,
    leaves: &SharedLeaves,
    joins: &JoinIndex,
    est: &CostEstimator<'_, M>,
) -> Arc<Expr> {
    if let Some(raw) = &q.raw {
        return Arc::clone(raw);
    }
    // Step 4.3.1–4.3.2: cover the query's relations with existing join
    // nodes whose relations AND conditions agree, largest first. The node's
    // conditions must be exactly the query's conditions among its relations;
    // both sides iterate in set order, so they compare element by element.
    let mut candidates: Vec<&JoinNode> = joins
        .0
        .iter()
        .flatten()
        .filter(|node| {
            node.over_shared_leaves
                && node.bases.is_subset(&q.bases)
                && q.conds
                    .iter()
                    .filter(|(a, b)| {
                        node.bases.contains(&a.relation) && node.bases.contains(&b.relation)
                    })
                    .eq(&node.conds)
        })
        .collect();
    candidates.sort_by_key(|node| std::cmp::Reverse(node.bases.len()));

    let mut covered: BTreeSet<RelName> = BTreeSet::new();
    let mut pieces: Vec<(BTreeSet<RelName>, Arc<Expr>)> = Vec::new();
    for node in candidates {
        if node.bases.len() < 2 || !node.bases.is_disjoint(&covered) {
            continue;
        }
        covered.extend(node.bases.iter().cloned());
        pieces.push((node.bases.clone(), Arc::clone(&node.expr)));
    }
    for rel in &q.bases {
        if !covered.contains(rel) {
            let leaf = leaves
                .exprs
                .get(rel)
                .cloned()
                .unwrap_or_else(|| Expr::base(rel.clone()));
            pieces.push(([rel.clone()].into(), leaf));
        }
    }

    // Step 4.3.2: join the pieces — connected pairs first, cheapest first.
    // (pair indices, op cost, connectedness, joined expr, covered bases)
    type BestJoin = (usize, usize, f64, bool, Arc<Expr>, BTreeSet<RelName>);
    while pieces.len() > 1 {
        let mut best: Option<BestJoin> = None;
        for i in 0..pieces.len() {
            for j in (i + 1)..pieces.len() {
                let pairs: Vec<(AttrRef, AttrRef)> = q
                    .conds
                    .iter()
                    .filter(|(a, b)| {
                        (pieces[i].0.contains(&a.relation) && pieces[j].0.contains(&b.relation))
                            || (pieces[j].0.contains(&a.relation)
                                && pieces[i].0.contains(&b.relation))
                    })
                    .cloned()
                    .collect();
                let connected = !pairs.is_empty();
                let expr = Expr::join(
                    Arc::clone(&pieces[i].1),
                    Arc::clone(&pieces[j].1),
                    JoinCondition::new(pairs),
                );
                let cost = est.op_cost(&expr);
                let better = match &best {
                    None => true,
                    Some((.., bcost, bconn, _, _)) => (connected, -cost) > (*bconn, -*bcost),
                };
                if better {
                    let mut bases = pieces[i].0.clone();
                    bases.extend(pieces[j].0.iter().cloned());
                    best = Some((i, j, cost, connected, expr, bases));
                }
            }
        }
        let (i, j, _, _, expr, bases) = best.expect("pieces.len() > 1");
        pieces.swap_remove(j);
        pieces.swap_remove(i);
        pieces.push((bases, expr));
    }
    let mut out = pieces.pop().map(|(_, e)| e).expect("at least one piece");

    // Re-apply the query's own predicate where the shared leaf filter is
    // weaker than its own conjunction, plus every multi-relation conjunct.
    let mut reapply: Vec<Predicate> = Vec::new();
    for (rel, pred) in &q.per_rel {
        if leaves.filters.get(rel) != Some(pred) {
            reapply.push(pred.clone());
        }
    }
    reapply.extend(q.residual.iter().cloned());
    out = Expr::select(out, Predicate::and(reapply));
    if let Some((group_by, aggs)) = &q.aggregate {
        out = Expr::aggregate(out, group_by.clone(), aggs.clone());
    }
    if let Some(attrs) = &q.projection {
        out = Expr::project(out, attrs.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::parse_query_with;
    use mvdesign_catalog::{AttrType, Catalog, RelationStats};
    use mvdesign_cost::{EstimationMode, PaperCostModel};

    /// The paper's Table 1 catalog (full five relations).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Pd")
            .attr("Pid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("Div")
            .attr("Did", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(1.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.relation("Ord")
            .attr("Pid", AttrType::Int)
            .attr("Cid", AttrType::Int)
            .attr("quantity", AttrType::Int)
            .attr("date", AttrType::Date)
            .records(50_000.0)
            .blocks(6_000.0)
            .update_frequency(1.0)
            .selectivity("quantity", 0.5)
            .selectivity("date", 0.5)
            .finish()
            .unwrap();
        c.relation("Cust")
            .attr("Cid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(20_000.0)
            .blocks(2_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("Pt")
            .attr("Tid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Pid", AttrType::Int)
            .attr("supplier", AttrType::Text)
            .records(80_000.0)
            .blocks(10_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        for (a, b, js) in [
            (("Pd", "Did"), ("Div", "Did"), 1.0 / 5_000.0),
            (("Pt", "Pid"), ("Pd", "Pid"), 1.0 / 30_000.0),
            (("Ord", "Cid"), ("Cust", "Cid"), 1.0 / 40_000.0),
            (("Ord", "Pid"), ("Pd", "Pid"), 1.0 / 30_000.0),
        ] {
            c.set_join_selectivity(AttrRef::new(a.0, a.1), AttrRef::new(b.0, b.1), js)
                .unwrap();
        }
        c.set_size_override(
            ["Pd".into(), "Div".into()],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        c.set_size_override(
            ["Pd".into(), "Div".into(), "Pt".into()],
            RelationStats::new(80_000.0, 20_000.0),
        )
        .unwrap();
        c.set_size_override(
            ["Ord".into(), "Cust".into()],
            RelationStats::new(25_000.0, 5_000.0),
        )
        .unwrap();
        c.set_size_override(
            ["Pd".into(), "Div".into(), "Ord".into(), "Cust".into()],
            RelationStats::new(25_000.0, 5_000.0),
        )
        .unwrap();
        c
    }

    fn workload(c: &Catalog) -> Workload {
        let q = |name: &str, fq: f64, sql: &str| {
            Query::new(name, fq, parse_query_with(sql, c).unwrap())
        };
        Workload::new([
            q("Q1", 10.0, "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did"),
            q(
                "Q2",
                0.5,
                "SELECT Pt.name FROM Pd, Pt, Div WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pt.Pid=Pd.Pid",
            ),
            q(
                "Q3",
                0.8,
                "SELECT Cust.name, Pd.name, quantity FROM Pd, Div, Ord, Cust \
                 WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pd.Pid=Ord.Pid AND Ord.Cid=Cust.Cid AND date>7/1/96",
            ),
            q(
                "Q4",
                5.0,
                "SELECT Cust.city, date FROM Ord, Cust WHERE quantity>100 AND Ord.Cid=Cust.Cid",
            ),
        ])
        .unwrap()
    }

    #[test]
    fn generates_one_mvpp_per_rotation() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mvpps = generate_mvpps(
            &workload(&c),
            &est,
            &Planner::new(),
            GenerateConfig::default(),
        );
        assert_eq!(mvpps.len(), 4);
        for m in &mvpps {
            assert_eq!(m.roots().len(), 4);
            assert_eq!(m.leaves().len(), 5);
        }
    }

    #[test]
    fn q1_and_q2_share_the_product_division_join() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let m = merge_queries(&workload(&c), &["Q1", "Q2"], &est, &Planner::new());
        // Find the join over exactly {Pd, Div}: it must serve both queries.
        let shared = m
            .nodes()
            .iter()
            .find(|n| {
                matches!(&**n.expr(), Expr::Join { .. })
                    && n.expr().base_relations().len() == 2
                    && n.expr().base_relations().contains("Pd")
            })
            .expect("Pd⋈Div node exists");
        assert_eq!(m.queries_using(shared.id()).len(), 2);
    }

    #[test]
    fn order_customer_join_is_shared_between_q3_and_q4() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let m = merge_queries(&workload(&c), &["Q4", "Q3"], &est, &Planner::new());
        let oc = m
            .nodes()
            .iter()
            .find(|n| {
                matches!(&**n.expr(), Expr::Join { .. })
                    && n.expr().base_relations() == ["Ord".into(), "Cust".into()].into()
            })
            .expect("Ord⋈Cust node exists");
        assert_eq!(m.queries_using(oc.id()).len(), 2, "dot:\n{}", m.to_dot("m"));
    }

    #[test]
    fn leaf_filters_are_disjunctions() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let m = merge_queries(
            &workload(&c),
            &["Q4", "Q3", "Q2", "Q1"],
            &est,
            &Planner::new(),
        );
        // Ord is filtered by (date>… ∨ quantity>…) at the leaf.
        let ord_sigma = m
            .nodes()
            .iter()
            .find(|n| {
                matches!(&**n.expr(), Expr::Select { input, .. } if input.is_base())
                    && n.expr().base_relations().contains("Ord")
            })
            .expect("σ over Ord exists");
        match &**ord_sigma.expr() {
            Expr::Select { predicate, .. } => {
                assert!(matches!(predicate, Predicate::Or(_)), "got {predicate}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn queries_reapply_their_own_filters_above_shared_joins() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let m = merge_queries(&workload(&c), &["Q4", "Q3"], &est, &Planner::new());
        // Q4's root subtree must still apply quantity>100 somewhere above
        // the shared (disjunction-filtered) Ord⋈Cust join.
        let (_, _, q4_root) = m
            .roots()
            .iter()
            .find(|(n, _, _)| n == "Q4")
            .expect("Q4 root");
        let has_quantity = format!("{}", m.node(*q4_root).expr()).contains("Ord.quantity>100");
        assert!(has_quantity, "Q4 expr: {}", m.node(*q4_root).expr());
    }

    #[test]
    fn rotations_produce_structurally_different_dags() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mvpps = generate_mvpps(
            &workload(&c),
            &est,
            &Planner::new(),
            GenerateConfig::default(),
        );
        let sizes: BTreeSet<usize> = mvpps.iter().map(Mvpp::len).collect();
        // Not all rotations need differ, but the machinery must not collapse
        // everything into one shape unless the workload forces it; here at
        // least the roots' expressions differ across some rotation.
        let first_keys: Vec<String> = mvpps[0]
            .roots()
            .iter()
            .map(|(_, _, id)| mvpps[0].node(*id).expr().semantic_key())
            .collect();
        let any_different = mvpps.iter().skip(1).any(|m| {
            m.roots()
                .iter()
                .map(|(_, _, id)| m.node(*id).expr().semantic_key())
                .collect::<Vec<_>>()
                != first_keys
        });
        assert!(any_different || sizes.len() > 1 || mvpps.len() == 1);
    }

    #[test]
    fn rotation_cap_limits_candidates() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mvpps = generate_mvpps(
            &workload(&c),
            &est,
            &Planner::new(),
            GenerateConfig { max_rotations: 2 },
        );
        assert_eq!(mvpps.len(), 2);
    }
}
