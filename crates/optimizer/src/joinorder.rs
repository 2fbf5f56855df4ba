//! Cost-based join ordering: exact dynamic programming over subsets for
//! small queries, greedy pairing beyond. The same subset DP plans a γ over
//! the join by eager aggregation ([`JoinGraph::eager_order`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{roll_up_keys, AggExpr, AttrRef, Expr, JoinCondition, Predicate, RelName};
use mvdesign_cost::{CostEstimator, CostModel};

/// A plan and its cost.
type Plan = (f64, Arc<Expr>);

/// A join graph: annotated leaves (base relations with their pushed-down
/// selections, or any other subtree that is not a join), each covering a
/// set of base relations no other leaf covers, plus the equi-join
/// conditions connecting them.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    leaves: Vec<Arc<Expr>>,
    /// Per leaf, the base relations it covers.
    covers: Vec<BTreeSet<RelName>>,
    conds: Vec<(AttrRef, AttrRef)>,
    /// Per condition, the masks of the leaves covering its two sides.
    ends: Vec<(u64, u64)>,
}

/// The γ a subset DP plans eagerly: `γ[group_by; aggs]` over
/// `σ[conjuncts]` over the join.
struct Grouping<'a> {
    group_by: &'a [AttrRef],
    aggs: &'a [AggExpr],
    /// `aggs` re-aggregated over partial groups ([`AggExpr::rolled_up`]).
    rolled: Vec<AggExpr>,
    /// The leaves holding aggregate inputs: only a subset holding all of
    /// them is grouped under `aggs`.
    inputs: u64,
    conjuncts: Vec<Predicate>,
    /// Per conjunct, the leaves it reads.
    reads: Vec<u64>,
}

impl Grouping<'_> {
    /// The conjuncts `set` covers first when built from `parts` (none for
    /// a leaf): those reading only leaves of `set`, but not only leaves of
    /// one part.
    fn filter(&self, set: u64, parts: &[u64]) -> Predicate {
        let first = |&m: &u64| m & !set == 0 && parts.iter().all(|p| m & !p != 0);
        let covered = self.conjuncts.iter().zip(&self.reads);
        Predicate::and(covered.filter(|(_, m)| first(m)).map(|(c, _)| c.clone()))
    }
}

impl JoinGraph {
    /// Builds a join graph from leaves, each with the base relations it
    /// covers, and the conditions joining them.
    ///
    /// Returns `None` when the input is degenerate for ordering purposes:
    /// no leaves, more than 63 leaves, two leaves covering one base
    /// relation (self-joins keep their original order instead), or a
    /// condition naming a relation no leaf covers or comparing two
    /// attributes under one leaf, which no join would apply.
    pub fn new(
        leaves: Vec<(Arc<Expr>, BTreeSet<RelName>)>,
        conds: Vec<(AttrRef, AttrRef)>,
    ) -> Option<Self> {
        if leaves.is_empty() || leaves.len() > 63 {
            return None;
        }
        let (leaves, covers): (Vec<_>, Vec<_>) = leaves.into_iter().unzip();
        let mut seen = BTreeSet::new();
        if !covers.iter().flatten().all(|r| seen.insert(r)) {
            return None;
        }
        let mut graph = Self {
            leaves,
            covers,
            conds,
            ends: Vec::new(),
        };
        graph.ends = graph
            .conds
            .iter()
            .map(|(a, b)| Some((graph.mask_of([a])?, graph.mask_of([b])?)).filter(|(x, y)| x != y))
            .collect::<Option<_>>()?;
        Some(graph)
    }

    /// The leaves covering the relations of `attrs`, as a mask; `None`
    /// when no leaf covers one.
    fn mask_of<'a>(&self, attrs: impl IntoIterator<Item = &'a AttrRef>) -> Option<u64> {
        attrs.into_iter().try_fold(0, |mask, a| {
            let leaf = self.covers.iter().position(|c| c.contains(&a.relation))?;
            Some(mask | 1 << leaf)
        })
    }

    /// Join condition pairs connecting subset `a` with subset `b`.
    fn pairs_between(&self, a: u64, b: u64) -> Vec<(AttrRef, AttrRef)> {
        self.conds
            .iter()
            .zip(&self.ends)
            .filter(|(_, &(mx, my))| (mx & a != 0 && my & b != 0) || (mx & b != 0 && my & a != 0))
            .map(|(pair, _)| pair.clone())
            .collect()
    }

    /// Finds the cheapest join order by exact subset DP (when
    /// `len() <= dp_limit`) or greedily otherwise.
    pub fn optimal_order<M: CostModel>(
        &self,
        est: &CostEstimator<'_, M>,
        dp_limit: usize,
    ) -> Arc<Expr> {
        if self.leaves.len() == 1 {
            return Arc::clone(&self.leaves[0]);
        }
        if self.leaves.len() <= dp_limit {
            self.dp(est, None).0
        } else {
            self.greedy_order(est)
        }
    }

    /// The cheapest plan of `γ[group_by; aggs](σ[conjuncts](join))` that
    /// groups before a join: eager aggregation (Yan & Larson, VLDB 1995)
    /// planned by the subset DP, as Chaudhuri & Shim's "Including Group-By
    /// in Query Optimization" (VLDB 1994).
    ///
    /// Beside its cheapest plain plan, the DP keeps for each subset `S` of
    /// the leaves the cheapest plan under a partial `γ[keys(S); A]`, whose
    /// keys ([`roll_up_keys`]) are the group keys on `S` and every attribute
    /// of `S` a join pair or a conjunct compares outside `S`. The partial
    /// is either `A` over `S`'s plain plan, where `S` holds every aggregate
    /// input, or `A` rolled up ([`AggExpr::rolled_up`]) over a grouped
    /// subset joined, on the left, to a plain one. Two grouped sides are
    /// never joined. The DP keeps that join without the γ too, as a third
    /// plan of `S`, since cost alone cannot rank the two: the join left
    /// ungrouped prices below the same join regrouped, but a later join
    /// reads all its rows. So a partial γ that shrinks nothing is skipped.
    /// The result is `γ[group_by; rolled(A)]` over the cheapest such join
    /// covering every leaf. Each conjunct filters the first subset that
    /// covers what it reads: a leaf, or a join. Members of a partial group
    /// carry the same values of everything read above it, so they meet the
    /// same rows there, and the plan gives the definition's rows; the
    /// engine's γ emits its groups sorted by key, so in the definition's
    /// order too.
    ///
    /// `None` when the rule does not apply: fewer than two leaves or more
    /// than `dp_limit`, no group keys, an aggregate that does not roll up
    /// (`AVG`), a group key, aggregate input or conjunct reading a relation
    /// no leaf covers, or no subset short of every leaf holding the
    /// aggregate inputs.
    pub fn eager_order<M: CostModel>(
        &self,
        group_by: &[AttrRef],
        aggs: &[AggExpr],
        conjuncts: Vec<Predicate>,
        est: &CostEstimator<'_, M>,
        dp_limit: usize,
    ) -> Option<Arc<Expr>> {
        if group_by.is_empty() || !(2..=dp_limit).contains(&self.leaves.len()) {
            return None;
        }
        self.mask_of(group_by)?;
        let grouping = Grouping {
            group_by,
            aggs,
            rolled: aggs.iter().map(AggExpr::rolled_up).collect::<Option<_>>()?,
            inputs: self.mask_of(aggs.iter().filter_map(|a| a.input.as_ref()))?,
            reads: conjuncts
                .iter()
                .map(|c| self.mask_of(c.attrs()))
                .collect::<Option<_>>()?,
            conjuncts,
        };
        let (_, joined) = self.dp(est, Some(&grouping)).1?;
        Some(Expr::aggregate(joined, group_by.to_vec(), grouping.rolled))
    }

    /// `l ⋈ r` on `pairs`, under `filter`, with its cost.
    fn join_of<M: CostModel>(
        &self,
        est: &CostEstimator<'_, M>,
        l: &Plan,
        r: &Plan,
        pairs: Vec<(AttrRef, AttrRef)>,
        filter: Predicate,
    ) -> Plan {
        let expr = Expr::join(
            Arc::clone(&l.1),
            Arc::clone(&r.1),
            JoinCondition::new(pairs),
        );
        let mut cost = l.0 + r.0 + est.op_cost(&expr);
        if filter.is_true() {
            return (cost, expr);
        }
        let expr = Expr::select(expr, filter);
        cost += est.op_cost(&expr);
        (cost, expr)
    }

    /// The subset DP: the cheapest plain plan of the whole join and, with a
    /// `grouping` to plan, the cheapest join of every leaf holding a
    /// partial γ (see [`eager_order`](Self::eager_order)). Without one it
    /// keeps no grouped plans.
    fn dp<M: CostModel>(
        &self,
        est: &CostEstimator<'_, M>,
        grouping: Option<&Grouping<'_>>,
    ) -> (Arc<Expr>, Option<Plan>) {
        let n = self.leaves.len();
        let full: u64 = (1 << n) - 1;
        let mut best: Vec<Option<Plan>> = vec![None; 1 << n];
        // Per subset, with a `grouping`: the cheapest plan ending in the
        // subset's partial γ, and the cheapest join over a partial γ.
        let mut grouped: Vec<Option<Plan>> = vec![None; grouping.map_or(0, |_| 1 << n)];
        let mut open = grouped.clone();
        for (i, leaf) in self.leaves.iter().enumerate() {
            let leaf = match grouping {
                Some(g) => Expr::select(Arc::clone(leaf), g.filter(1 << i, &[])),
                None => Arc::clone(leaf),
            };
            best[1 << i] = Some((est.tree_cost(&leaf), leaf));
        }
        for set in 1..=full {
            // A leaf's plan, or none yet.
            let mut candidate: Option<Plan> = best[set as usize].take();
            let mut grouped_candidate: Option<Plan> = None;
            let mut open_candidate: Option<Plan> = None;
            // The partial γ of `set` short of every leaf: its keys, and
            // `plan` under it.
            let keys = grouping.filter(|_| set != full).map(|g| {
                let covered: BTreeSet<RelName> = (0..n)
                    .filter(|i| set & (1 << i) != 0)
                    .flat_map(|i| self.covers[i].iter().cloned())
                    .collect();
                roll_up_keys(&covered, [(g.group_by, &self.conds, &g.conjuncts[..])])
            });
            let partial = |keys: &[AttrRef], plan: &Plan, aggs: &[AggExpr]| -> Plan {
                let expr = Expr::aggregate(Arc::clone(&plan.1), keys.to_vec(), aggs.to_vec());
                (plan.0 + est.op_cost(&expr), expr)
            };
            let mut saw_connected = false;
            // Two passes: connected splits first; cross products only if the
            // subset admits no connected split at all.
            for pass in 0..2 {
                if pass == 1 && saw_connected {
                    break;
                }
                let mut sub = (set - 1) & set;
                while sub > 0 {
                    let other = set & !sub;
                    if sub < other {
                        // Each unordered split visited once; the paper's
                        // join-cost model is symmetric in its inputs, so
                        // operand order never changes the cost.
                        let pairs = self.pairs_between(sub, other);
                        let connected = !pairs.is_empty();
                        if connected {
                            saw_connected = true;
                        }
                        if (pass == 0) == connected {
                            let filter =
                                grouping.map_or(Predicate::True, |g| g.filter(set, &[sub, other]));
                            // The grouped side on the left, where the engine
                            // probes: the join kept as it is, and under the
                            // partial γ of `set`.
                            for (x, y) in [(sub, other), (other, sub)] {
                                let (Some(g), Some(r)) = (grouping, &best[y as usize]) else {
                                    continue;
                                };
                                for l in [&grouped[x as usize], &open[x as usize]] {
                                    let Some(l) = l else { continue };
                                    let joined =
                                        self.join_of(est, l, r, pairs.clone(), filter.clone());
                                    if let Some(keys) = &keys {
                                        keep_cheaper(
                                            &mut grouped_candidate,
                                            partial(keys, &joined, &g.rolled),
                                        );
                                    }
                                    keep_cheaper(&mut open_candidate, joined);
                                }
                            }
                            if let (Some(l), Some(r)) = (&best[sub as usize], &best[other as usize])
                            {
                                keep_cheaper(
                                    &mut candidate,
                                    self.join_of(est, l, r, pairs, filter),
                                );
                            }
                        }
                    }
                    sub = (sub - 1) & set;
                }
            }
            if let (Some(g), Some(keys)) = (grouping, &keys) {
                if g.inputs & !set == 0 {
                    let plain = candidate.as_ref().expect("every subset has a plain plan");
                    keep_cheaper(&mut grouped_candidate, partial(keys, plain, g.aggs));
                }
            }
            if grouping.is_some() {
                grouped[set as usize] = grouped_candidate;
                open[set as usize] = open_candidate;
            }
            best[set as usize] = candidate;
        }
        let plain = best[full as usize]
            .take()
            .map(|(_, e)| e)
            .expect("every subset with >=2 leaves has at least a cross-product plan");
        (plain, open.get_mut(full as usize).and_then(Option::take))
    }

    fn greedy_order<M: CostModel>(&self, est: &CostEstimator<'_, M>) -> Arc<Expr> {
        let mut parts: Vec<(u64, f64, Arc<Expr>)> = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, l)| (1 << i, est.tree_cost(l), Arc::clone(l)))
            .collect();
        while parts.len() > 1 {
            let mut best: Option<(usize, usize, f64, Arc<Expr>, bool)> = None;
            for i in 0..parts.len() {
                for j in (i + 1)..parts.len() {
                    let pairs = self.pairs_between(parts[i].0, parts[j].0);
                    let connected = !pairs.is_empty();
                    let (cost, expr) = self.join_of(
                        est,
                        &(parts[i].1, Arc::clone(&parts[i].2)),
                        &(parts[j].1, Arc::clone(&parts[j].2)),
                        pairs,
                        Predicate::True,
                    );
                    let better = match &best {
                        None => true,
                        Some((.., best_cost, _, best_conn)) => {
                            // Prefer connected joins; among equals, cheapest.
                            (connected, -cost) > (*best_conn, -*best_cost)
                        }
                    };
                    if better {
                        best = Some((i, j, cost, expr, connected));
                    }
                }
            }
            let (i, j, cost, expr, _) = best.expect("len > 1");
            let mask = parts[i].0 | parts[j].0;
            // Removing j first keeps index i valid because i < j.
            parts.swap_remove(j);
            parts.swap_remove(i);
            parts.push((mask, cost, expr));
        }
        parts.pop().expect("one part remains").2
    }
}

/// Keeps `cand` in `best` when it is strictly cheaper: the earlier plan
/// wins a tie.
fn keep_cheaper(best: &mut Option<Plan>, cand: Plan) {
    if best.as_ref().is_none_or(|b| cand.0 < b.0) {
        *best = Some(cand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{CompareOp, Predicate};
    use mvdesign_catalog::{AttrType, Catalog};
    use mvdesign_cost::{EstimationMode, PaperCostModel};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, records, blocks) in [
            ("Pd", 30_000.0, 3_000.0),
            ("Div", 5_000.0, 500.0),
            ("Pt", 80_000.0, 10_000.0),
        ] {
            c.relation(name)
                .attr("Pid", AttrType::Int)
                .attr("Did", AttrType::Int)
                .attr("city", AttrType::Text)
                .records(records)
                .blocks(blocks)
                .selectivity("city", 0.02)
                .finish()
                .unwrap();
        }
        c.set_join_selectivity(
            AttrRef::new("Pd", "Did"),
            AttrRef::new("Div", "Did"),
            1.0 / 5_000.0,
        )
        .unwrap();
        c.set_join_selectivity(
            AttrRef::new("Pt", "Pid"),
            AttrRef::new("Pd", "Pid"),
            1.0 / 30_000.0,
        )
        .unwrap();
        c
    }

    /// The graph of `leaves`, each covering its own base relations.
    fn graph(leaves: Vec<Arc<Expr>>, conds: Vec<(AttrRef, AttrRef)>) -> Option<JoinGraph> {
        let covered = leaves.into_iter().map(|l| {
            let bases = l.base_relations();
            (l, bases)
        });
        JoinGraph::new(covered.collect(), conds)
    }

    fn leaves_and_conds() -> (Vec<Arc<Expr>>, Vec<(AttrRef, AttrRef)>) {
        let selected_div = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        (
            vec![Expr::base("Pd"), selected_div, Expr::base("Pt")],
            vec![
                (AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
                (AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
            ],
        )
    }

    #[test]
    fn dp_prefers_selective_join_first() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let (leaves, conds) = leaves_and_conds();
        let g = graph(leaves, conds).unwrap();
        let plan = g.optimal_order(&est, 12);
        // The optimal plan joins (Pd ⋈ σDiv) before bringing in the huge Pt.
        match &*plan {
            Expr::Join { left, right, .. } => {
                let joined_first: BTreeSet<_> = if matches!(&**left, Expr::Join { .. }) {
                    left.base_relations()
                } else {
                    right.base_relations()
                };
                assert!(joined_first.contains("Div"), "plan: {plan}");
                assert!(joined_first.contains("Pd"), "plan: {plan}");
            }
            other => panic!("expected join, got {other}"),
        }
    }

    #[test]
    fn dp_and_greedy_agree_on_small_inputs() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let (leaves, conds) = leaves_and_conds();
        let g = graph(leaves, conds).unwrap();
        let dp = g.optimal_order(&est, 12);
        let greedy = g.optimal_order(&est, 1);
        assert!(est.tree_cost(&greedy) >= est.tree_cost(&dp));
        assert_eq!(dp.base_relations(), greedy.base_relations());
    }

    #[test]
    fn single_leaf_passes_through() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let g = graph(vec![Expr::base("Pd")], vec![]).unwrap();
        assert!(g.optimal_order(&est, 12).is_base());
    }

    #[test]
    fn disconnected_graph_still_plans_via_cross_product() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let g = graph(vec![Expr::base("Pd"), Expr::base("Div")], vec![]).unwrap();
        let plan = g.optimal_order(&est, 12);
        assert_eq!(plan.base_relations().len(), 2);
    }

    #[test]
    fn duplicate_relations_are_rejected() {
        assert!(graph(vec![Expr::base("Pd"), Expr::base("Pd")], vec![]).is_none());
        assert!(graph(vec![], vec![]).is_none());
    }

    #[test]
    fn dp_result_covers_all_relations() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let (leaves, conds) = leaves_and_conds();
        let g = graph(leaves, conds).unwrap();
        let plan = g.optimal_order(&est, 12);
        assert_eq!(plan.base_relations().len(), 3);
    }

    #[test]
    fn a_pair_no_join_applies_is_refused() {
        let leaves = || vec![Expr::base("Pd"), Expr::base("Div")];
        // A relation no leaf covers …
        let on_pt = vec![(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid"))];
        assert!(graph(leaves(), on_pt).is_none());
        // … and two attributes under one leaf.
        let within = vec![(AttrRef::new("Pd", "Pid"), AttrRef::new("Pd", "Did"))];
        assert!(graph(leaves(), within).is_none());
    }

    /// A scan of a stored view covers its definition's relations: a leaf
    /// `v` holding Div ⋈ Pd joins Pt on `Pd.Pid`.
    #[test]
    fn a_view_leaf_joins_on_a_relation_it_covers() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let covers = |rels: &[&str]| rels.iter().map(|r| RelName::new(*r)).collect();
        let leaves = vec![
            (Expr::base("v"), covers(&["Div", "Pd"])),
            (Expr::base("Pt"), covers(&["Pt"])),
        ];
        let on_pid = vec![(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid"))];
        let g = JoinGraph::new(leaves, on_pid).unwrap();
        assert_eq!(
            g.optimal_order(&est, 12).to_string(),
            "(v ⋈[Pd.Pid=Pt.Pid] Pt)"
        );
    }
}
