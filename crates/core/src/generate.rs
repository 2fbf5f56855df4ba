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
use mvdesign_optimizer::{pull_up, Planner, PulledPlan};

use crate::mvpp::{Mvpp, NodeId};
use crate::nodeset::NodeSet;
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
    /// The relations the query joins, as a [`Numbering`] relation set.
    bases: NodeSet,
    /// Every pair of its join conditions, as a [`Numbering`] pair set.
    conds: NodeSet,
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

/// The relations and join pairs of one generation call, numbered so that a
/// set of them is a [`NodeSet`]: relation `i` is the `i`-th name in name
/// order and pair `j` the `j`-th normalised pair in pair order, so a set
/// iterates in the order a `BTreeSet` of the names or pairs does. (A
/// [`NodeId`] in such a set is one of these numbers, not an MVPP node.)
/// Every plan of the call is numbered, so every relation and pair of a
/// merged MVPP has a number.
struct Numbering {
    rels: Vec<RelName>,
    pairs: Vec<(AttrRef, AttrRef)>,
    /// The numbers of each pair's two relations; `None` for a relation that
    /// no plan reads.
    sides: Vec<[Option<NodeId>; 2]>,
}

impl Numbering {
    /// Numbers every base relation and join pair of `plans`.
    fn new<'p>(plans: impl IntoIterator<Item = &'p Arc<Expr>>) -> Self {
        fn walk(
            expr: &Arc<Expr>,
            rels: &mut BTreeSet<RelName>,
            pairs: &mut BTreeSet<(AttrRef, AttrRef)>,
        ) {
            match &**expr {
                Expr::Base(r) => {
                    rels.insert(r.clone());
                }
                Expr::Join { on, .. } => pairs.extend(on.pairs().iter().cloned()),
                _ => {}
            }
            for child in expr.child_iter() {
                walk(child, rels, pairs);
            }
        }
        let (mut rels, mut pairs) = (BTreeSet::new(), BTreeSet::new());
        for plan in plans {
            walk(plan, &mut rels, &mut pairs);
        }
        let rels: Vec<RelName> = rels.into_iter().collect();
        let pairs: Vec<(AttrRef, AttrRef)> = pairs.into_iter().collect();
        let rel = |r: &RelName| rels.binary_search(r).ok().map(NodeId);
        let sides = pairs
            .iter()
            .map(|(a, b)| [rel(&a.relation), rel(&b.relation)])
            .collect();
        Self { rels, pairs, sides }
    }

    /// The number of a relation some plan reads.
    fn rel(&self, name: &RelName) -> NodeId {
        NodeId(
            self.rels
                .binary_search(name)
                .expect("every plan's relations are numbered"),
        )
    }

    /// The number of a pair some plan joins on.
    fn pair(&self, pair: &(AttrRef, AttrRef)) -> NodeId {
        NodeId(
            self.pairs
                .binary_search(pair)
                .expect("every plan's join pairs are numbered"),
        )
    }

    /// An empty relation set.
    fn no_rels(&self) -> NodeSet {
        NodeSet::with_capacity(self.rels.len())
    }

    /// The relations `expr` reads.
    fn bases(&self, expr: &Arc<Expr>) -> NodeSet {
        fn walk(numbering: &Numbering, expr: &Arc<Expr>, out: &mut NodeSet) {
            if let Expr::Base(r) = &**expr {
                out.insert(numbering.rel(r));
            }
            for child in expr.child_iter() {
                walk(numbering, child, out);
            }
        }
        let mut out = self.no_rels();
        walk(self, expr, &mut out);
        out
    }

    /// Every pair of the join conditions of `expr` and of the joins
    /// directly beneath it, down to the first non-join node.
    fn conds(&self, expr: &Arc<Expr>) -> NodeSet {
        fn walk(numbering: &Numbering, expr: &Arc<Expr>, out: &mut NodeSet) {
            if let Expr::Join { left, right, on } = &**expr {
                for pair in on.pairs() {
                    out.insert(numbering.pair(pair));
                }
                walk(numbering, left, out);
                walk(numbering, right, out);
            }
        }
        let mut out = NodeSet::with_capacity(self.pairs.len());
        walk(self, expr, &mut out);
        out
    }

    /// Whether pair `pair` links a relation of `x` with one of `y`.
    fn links(&self, pair: NodeId, x: &NodeSet, y: &NodeSet) -> bool {
        let [a, b] = self.sides[pair.0];
        let reads = |side: Option<NodeId>, set: &NodeSet| side.is_some_and(|r| set.contains(r));
        (reads(a, x) && reads(b, y)) || (reads(a, y) && reads(b, x))
    }

    /// The pairs of a pair set, in pair order.
    fn pairs_of<'n>(&'n self, set: &'n NodeSet) -> impl Iterator<Item = &'n (AttrRef, AttrRef)> {
        set.iter().map(|j| &self.pairs[j.0])
    }
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
    let (mut prepared, numbering) = prepare_all(workload.queries(), est, planner);
    // Step 3: descending fq·Ca, name as deterministic tie-break.
    prepared.sort_by(|a, b| {
        b.cost_key
            .total_cmp(&a.cost_key)
            .then_with(|| a.name.cmp(&b.name))
    });
    let leaves = shared_leaves(&prepared, &numbering, est);
    let k = prepared.len().min(config.max_rotations).max(1);
    (0..k)
        .map(|r| {
            let order: Vec<&PreparedQuery> = prepared
                .iter()
                .cycle()
                .skip(r)
                .take(prepared.len())
                .collect();
            merge_prepared(&order, &leaves, &numbering, est)
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
    let queries = order.iter().filter_map(|name| workload.query(name));
    let (prepared, numbering) = prepare_all(queries, est, planner);
    let leaves = shared_leaves(&prepared, &numbering, est);
    let refs: Vec<&PreparedQuery> = prepared.iter().collect();
    merge_prepared(&refs, &leaves, &numbering, est)
}

/// Plans every query (Figure 4, steps 1–2), numbers the relations and join
/// pairs of all the plans, and reduces each query to its merge form.
fn prepare_all<'q, M: CostModel>(
    queries: impl IntoIterator<Item = &'q Query>,
    est: &CostEstimator<'_, M>,
    planner: &Planner,
) -> (Vec<PreparedQuery>, Numbering) {
    let planned: Vec<Planned<'q>> = queries
        .into_iter()
        .map(|query| {
            let optimal = planner.optimize(query.root(), est);
            Planned {
                query,
                cost_key: query.frequency() * est.tree_cost(&optimal),
                pulled: pull_up(&optimal),
                optimal,
            }
        })
        .collect();
    let numbering = Numbering::new(
        planned
            .iter()
            .flat_map(|p| [&p.optimal, &p.pulled.join_tree]),
    );
    let prepared = planned
        .into_iter()
        .map(|p| prepare(p, &numbering))
        .collect();
    (prepared, numbering)
}

/// One query's optimal plan (Figure 4, step 1), pulled up (step 2).
struct Planned<'q> {
    query: &'q Query,
    optimal: Arc<Expr>,
    pulled: PulledPlan,
    /// `fq · Ca(optimal)`.
    cost_key: f64,
}

fn prepare(planned: Planned<'_>, numbering: &Numbering) -> PreparedQuery {
    let Planned {
        query,
        optimal,
        pulled,
        cost_key,
    } = planned;
    let raw = if is_pure_join_tree(&pulled.join_tree) {
        None
    } else {
        Some(optimal)
    };

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
        bases: numbering.bases(&pulled.join_tree),
        conds: numbering.conds(&pulled.join_tree),
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

fn shared_leaves<M: CostModel>(
    prepared: &[PreparedQuery],
    numbering: &Numbering,
    est: &CostEstimator<'_, M>,
) -> SharedLeaves {
    let catalog = est.cardinalities().catalog();
    let mut filters: BTreeMap<RelName, Predicate> = BTreeMap::new();
    let mut needed: BTreeMap<RelName, Option<BTreeSet<AttrRef>>> = BTreeMap::new();

    // Raw (non-SPJ) plans keep their own operators; they neither contribute
    // to nor consume the shared leaves.
    let prepared: Vec<&PreparedQuery> = prepared.iter().filter(|q| q.raw.is_none()).collect();
    let mut rels = numbering.no_rels();
    for q in &prepared {
        rels.union_with(&q.bases);
    }
    for r in rels.iter() {
        let rel = &numbering.rels[r.0];
        // Figure 4, step 5: the leaf filter is the disjunction of every
        // query's selection on this relation; a query with no selection
        // forces the filter to True.
        let mut alternatives = Vec::new();
        let mut unconstrained = false;
        for q in prepared.iter().filter(|q| q.bases.contains(r)) {
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
        for q in prepared.iter().filter(|q| q.bases.contains(r)) {
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
            for q in prepared.iter().filter(|q| q.bases.contains(r)) {
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
                for (a, b) in numbering.pairs_of(&q.conds) {
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
    /// The base relations below the join, as a [`Numbering`] relation set.
    bases: NodeSet,
    /// Every pair of the join conditions of the join subtree, as a
    /// [`Numbering`] pair set.
    conds: NodeSet,
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
    /// Indexes the nodes appended to `mvpp` since the last call. A join's
    /// relations and pairs are its join children's, those of the relations
    /// its other children read, and its own condition's.
    fn extend(
        &mut self,
        mvpp: &Mvpp,
        leaves: &SharedLeaves,
        numbering: &Numbering,
        classes: &CardinalityEstimator<'_>,
    ) {
        for node in &mvpp.nodes()[self.0.len()..] {
            let Expr::Join { on, .. } = &**node.expr() else {
                self.0.push(None);
                continue;
            };
            let mut bases = numbering.no_rels();
            let mut conds = NodeSet::from_ids(
                numbering.pairs.len(),
                on.pairs().iter().map(|pair| numbering.pair(pair)),
            );
            let mut over_shared_leaves = true;
            // Children precede their parents, so they are indexed.
            for &c in node.children() {
                match &self.0[c.0] {
                    Some(child) => {
                        bases.union_with(&child.bases);
                        conds.union_with(&child.conds);
                        over_shared_leaves &= child.over_shared_leaves;
                    }
                    None => {
                        let child = mvpp.node(c).expr();
                        let read = numbering.bases(child);
                        over_shared_leaves = over_shared_leaves && {
                            let rel = read.iter().next().map(|r| &numbering.rels[r.0]);
                            let leaf = rel.and_then(|r| leaves.exprs.get(r));
                            leaf.is_some_and(|leaf| {
                                classes.class_of(leaf) == classes.class_of(child)
                            })
                        };
                        bases.union_with(&read);
                    }
                }
            }
            self.0.push(Some(JoinNode {
                expr: Arc::clone(node.expr()),
                bases,
                conds,
                over_shared_leaves,
            }));
        }
    }
}

/// Figure 4, step 4: merge the prepared plans in order over shared leaves,
/// then roll up the joins several aggregations share.
fn merge_prepared<M: CostModel>(
    order: &[&PreparedQuery],
    leaves: &SharedLeaves,
    numbering: &Numbering,
    est: &CostEstimator<'_, M>,
) -> Mvpp {
    let mut mvpp = Mvpp::builder(est.cardinalities());
    let mut joins = JoinIndex::default();
    for q in order {
        joins.extend(mvpp.mvpp(), leaves, numbering, est.cardinalities());
        let expr = build_query_expr(q, leaves, &joins, numbering, est);
        mvpp.insert_query(q.name.clone(), q.fq, &expr);
    }
    roll_up_shared_joins(mvpp.finish(), order, numbering, est.cardinalities())
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
    numbering: &Numbering,
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
        let roots = open.iter().map(|&i| order[i]);
        let Some(candidate) = roll_up_candidate(node.expr(), roots, numbering) else {
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
    numbering: &'q Numbering,
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
        taken.push((&group_by[..], numbering.pairs_of(&q.conds), &q.residual[..]));
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
    numbering: &Numbering,
    est: &CostEstimator<'_, M>,
) -> Arc<Expr> {
    if let Some(raw) = &q.raw {
        return Arc::clone(raw);
    }
    // Step 4.3.1–4.3.2: cover the query's relations with existing join
    // nodes whose relations AND conditions agree, largest first. The node's
    // conditions must be exactly the query's conditions among its relations;
    // both sides iterate in pair order, so they compare element by element.
    let mut candidates: Vec<&JoinNode> = joins
        .0
        .iter()
        .flatten()
        .filter(|node| {
            node.over_shared_leaves
                && node.bases.is_subset(&q.bases)
                && q.conds
                    .iter()
                    .filter(|&pair| numbering.links(pair, &node.bases, &node.bases))
                    .eq(node.conds.iter())
        })
        .collect();
    candidates.sort_by_key(|node| std::cmp::Reverse(node.bases.len()));

    let mut covered = numbering.no_rels();
    let mut pieces: Vec<(NodeSet, Arc<Expr>)> = Vec::new();
    for node in candidates {
        if node.bases.len() < 2 || !node.bases.is_disjoint(&covered) {
            continue;
        }
        covered.union_with(&node.bases);
        pieces.push((node.bases.clone(), Arc::clone(&node.expr)));
    }
    for r in q.bases.iter() {
        if !covered.contains(r) {
            let rel = &numbering.rels[r.0];
            let leaf = leaves
                .exprs
                .get(rel)
                .cloned()
                .unwrap_or_else(|| Expr::base(rel.clone()));
            pieces.push((NodeSet::from_ids(numbering.rels.len(), [r]), leaf));
        }
    }

    // Step 4.3.2: join the pieces — connected pairs first, cheapest first.
    // (pair indices, op cost, connectedness, joined expr)
    type BestJoin = (usize, usize, f64, bool, Arc<Expr>);
    while pieces.len() > 1 {
        let mut best: Option<BestJoin> = None;
        for i in 0..pieces.len() {
            for j in (i + 1)..pieces.len() {
                let (x, y) = (&pieces[i].0, &pieces[j].0);
                let pairs: Vec<(AttrRef, AttrRef)> = q
                    .conds
                    .iter()
                    .filter(|&pair| numbering.links(pair, x, y))
                    .map(|pair| numbering.pairs[pair.0].clone())
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
                    Some((.., bcost, bconn, _)) => (connected, -cost) > (*bconn, -*bcost),
                };
                if better {
                    best = Some((i, j, cost, connected, expr));
                }
            }
        }
        let (i, j, _, _, expr) = best.expect("pieces.len() > 1");
        let (right, _) = pieces.swap_remove(j);
        let (mut bases, _) = pieces.swap_remove(i);
        bases.union_with(&right);
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
