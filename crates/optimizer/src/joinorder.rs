//! Cost-based join ordering: exact dynamic programming over connected
//! pairs of subsets for small queries, greedy pairing beyond. One entry,
//! [`JoinGraph::order`], plans a σ over the join, and with a γ above it
//! plans that γ by eager aggregation too.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{roll_up_keys, AggExpr, AttrRef, Expr, JoinCondition, Predicate, RelName};
use mvdesign_cost::{CostEstimator, CostModel};

/// A plan and its cost.
type Plan = (f64, Arc<Expr>);

/// A join graph: leaves (base relations, or any other subtree that is not
/// a join), each covering a set of base relations no other leaf covers,
/// plus the equi-join conditions connecting them.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    leaves: Vec<Arc<Expr>>,
    /// Per leaf, the base relations it covers.
    covers: Vec<BTreeSet<RelName>>,
    conds: Vec<(AttrRef, AttrRef)>,
    /// Per condition, the masks of the leaves covering its two sides.
    ends: Vec<(u64, u64)>,
}

/// The conjuncts of the σ over the join, each with the leaves it reads.
struct Conjuncts {
    preds: Vec<Predicate>,
    reads: Vec<u64>,
}

impl Conjuncts {
    /// The conjuncts `set` covers first when built from `parts` (none for
    /// a leaf): those reading only leaves of `set`, but not only leaves of
    /// one part. This is the one σ placer: each conjunct filters the first
    /// leaf or join that covers what it reads.
    fn filter(&self, set: u64, parts: &[u64]) -> Predicate {
        let first = |&m: &u64| m & !set == 0 && parts.iter().all(|p| m & !p != 0);
        let covered = self.preds.iter().zip(&self.reads);
        Predicate::and(covered.filter(|(_, m)| first(m)).map(|(c, _)| c.clone()))
    }
}

/// The γ a subset DP plans eagerly: `γ[group_by; aggs]` over the join.
struct Grouping<'a> {
    group_by: &'a [AttrRef],
    aggs: &'a [AggExpr],
    /// `aggs` re-aggregated over partial groups ([`AggExpr::rolled_up`]).
    rolled: Vec<AggExpr>,
    /// The leaves holding aggregate inputs: only a subset holding all of
    /// them is grouped under `aggs`.
    inputs: u64,
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

    /// The leaves a condition links to a leaf of `mask`, as a mask.
    fn neighbours(&self, mask: u64) -> u64 {
        let across = |from: u64, to: u64| if from & mask != 0 { to } else { 0 };
        let ends = self.ends.iter();
        ends.fold(0, |acc, &(x, y)| acc | across(x, y) | across(y, x))
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

    /// The splits of `set` the DP joins, each unordered split once, in
    /// submask order: `(sub, other)`, both `planned`, that a condition
    /// links or, where `set` is a union of whole connected components, that
    /// are two such unions. So only a connected subset or a union of
    /// components gets a plan, and a cross product joins only components
    /// (Moerkotte & Neumann's connected pairs, VLDB 2006).
    fn splits<'a>(
        &'a self,
        set: u64,
        planned: impl Fn(u64) -> bool + 'a,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        let closed = self.neighbours(set) & !set == 0;
        let next = move |&sub: &u64| Some((sub - 1) & set).filter(|&s| s != 0);
        let subs = std::iter::successors(next(&set), next);
        // The paper's join-cost model is symmetric in its inputs, so
        // operand order never changes the cost.
        subs.map(move |sub| (sub, set & !sub))
            .filter(move |&(sub, other)| {
                sub < other
                    && planned(sub)
                    && planned(other)
                    && (closed || self.neighbours(sub) & other != 0)
            })
    }

    /// The cheapest plan of `σ[conjuncts]` over the join, by exact DP
    /// (when `len() <= dp_limit`) or greedily otherwise. Each conjunct
    /// filters the first leaf or join that covers what it reads.
    ///
    /// With a `grouping` `(G, A)`, the cheapest plan of
    /// `γ[G; A](σ[conjuncts](join))` that groups before a join: eager
    /// aggregation (Yan & Larson, VLDB 1995) planned by the same DP, as
    /// Chaudhuri & Shim's "Including Group-By in Query Optimization" (VLDB
    /// 1994). Beside its cheapest plain plan, the DP keeps for each subset
    /// `S` of the leaves the cheapest plan under a partial `γ[keys(S); A]`,
    /// whose keys ([`roll_up_keys`]) are the group keys on `S` and every
    /// attribute of `S` a join pair or a conjunct compares outside `S`. The
    /// partial is either `A` over `S`'s plain plan, where `S` holds every
    /// aggregate input, or `A` rolled up ([`AggExpr::rolled_up`]) over a
    /// grouped subset joined, on the left, to a plain one. Two grouped
    /// sides are never joined. The DP keeps that join without the γ too, as
    /// a third plan of `S`, since cost alone cannot rank the two: the join
    /// left ungrouped prices below the same join regrouped, but a later
    /// join reads all its rows. So a partial γ that shrinks nothing is
    /// skipped. The result is `γ[G; rolled(A)]` over the cheapest such join
    /// covering every leaf. Members of a partial group carry the same
    /// values of everything read above it, so they meet the same rows
    /// there, and the plan gives the definition's rows; the engine's γ
    /// emits its groups sorted by key, so in the definition's order too.
    ///
    /// All three plans of a subset are built from the same splits: two
    /// sides a condition links, or two unions of whole connected
    /// components. So on a connected graph no plan holds a cross product.
    ///
    /// `None` only with a `grouping`, where the rule does not apply: fewer
    /// than two leaves or more than `dp_limit`, no group keys, an aggregate
    /// that does not roll up (`AVG`), a group key, aggregate input or
    /// conjunct reading a relation no leaf covers, or no split of every
    /// leaf one of whose sides has a plan and holds the aggregate inputs.
    pub fn order<M: CostModel>(
        &self,
        conjuncts: Vec<Predicate>,
        grouping: Option<(&[AttrRef], &[AggExpr])>,
        est: &CostEstimator<'_, M>,
        dp_limit: usize,
    ) -> Option<Arc<Expr>> {
        let n = self.leaves.len();
        // Without a γ, a conjunct reading a relation no leaf covers filters
        // the whole join.
        let everything = grouping.is_none().then_some((1 << n) - 1);
        let reads = conjuncts
            .iter()
            .map(|c| self.mask_of(c.attrs()).or(everything));
        let conjuncts = Conjuncts {
            reads: reads.collect::<Option<_>>()?,
            preds: conjuncts,
        };
        let Some((group_by, aggs)) = grouping else {
            if n > dp_limit {
                return Some(self.greedy_order(est, &conjuncts));
            }
            return self.dp(est, &conjuncts, None).0.map(|(_, e)| e);
        };
        if group_by.is_empty() || !(2..=dp_limit).contains(&n) {
            return None;
        }
        self.mask_of(group_by)?;
        let grouping = Grouping {
            group_by,
            aggs,
            rolled: aggs.iter().map(AggExpr::rolled_up).collect::<Option<_>>()?,
            inputs: self.mask_of(aggs.iter().filter_map(|a| a.input.as_ref()))?,
        };
        let (_, joined) = self.dp(est, &conjuncts, Some(&grouping)).1?;
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

    /// The subset DP over [`splits`](Self::splits): the cheapest plain plan
    /// of the whole join and, with a `grouping` to plan, the cheapest join
    /// of every leaf holding a partial γ (see [`order`](Self::order)).
    /// Without one it keeps no grouped plans.
    fn dp<M: CostModel>(
        &self,
        est: &CostEstimator<'_, M>,
        conjuncts: &Conjuncts,
        grouping: Option<&Grouping<'_>>,
    ) -> (Option<Plan>, Option<Plan>) {
        let n = self.leaves.len();
        let full: u64 = (1 << n) - 1;
        let mut best: Vec<Option<Plan>> = vec![None; 1 << n];
        // Per subset, with a `grouping`: the cheapest plan ending in the
        // subset's partial γ, and the cheapest join over a partial γ.
        let mut grouped: Vec<Option<Plan>> = vec![None; grouping.map_or(0, |_| 1 << n)];
        let mut open = grouped.clone();
        for (i, leaf) in self.leaves.iter().enumerate() {
            let leaf = Expr::select(Arc::clone(leaf), conjuncts.filter(1 << i, &[]));
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
                roll_up_keys(&covered, [(g.group_by, &self.conds, &conjuncts.preds[..])])
            });
            let partial = |keys: &[AttrRef], plan: &Plan, aggs: &[AggExpr]| -> Plan {
                let expr = Expr::aggregate(Arc::clone(&plan.1), keys.to_vec(), aggs.to_vec());
                (plan.0 + est.op_cost(&expr), expr)
            };
            for (sub, other) in self.splits(set, |x| best[x as usize].is_some()) {
                let pairs = self.pairs_between(sub, other);
                let filter = conjuncts.filter(set, &[sub, other]);
                // The grouped side on the left, where the engine probes:
                // the join kept as it is, and under the partial γ of `set`.
                for (x, y) in [(sub, other), (other, sub)] {
                    let (Some(g), Some(r)) = (grouping, &best[y as usize]) else {
                        continue;
                    };
                    for l in [&grouped[x as usize], &open[x as usize]] {
                        let Some(l) = l else { continue };
                        let joined = self.join_of(est, l, r, pairs.clone(), filter.clone());
                        if let Some(keys) = &keys {
                            keep_cheaper(&mut grouped_candidate, partial(keys, &joined, &g.rolled));
                        }
                        keep_cheaper(&mut open_candidate, joined);
                    }
                }
                if let (Some(l), Some(r)) = (&best[sub as usize], &best[other as usize]) {
                    keep_cheaper(&mut candidate, self.join_of(est, l, r, pairs, filter));
                }
            }
            if let (Some(g), Some(keys), Some(plain)) = (grouping, &keys, &candidate) {
                if g.inputs & !set == 0 {
                    keep_cheaper(&mut grouped_candidate, partial(keys, plain, g.aggs));
                }
            }
            if grouping.is_some() {
                grouped[set as usize] = grouped_candidate;
                open[set as usize] = open_candidate;
            }
            best[set as usize] = candidate;
        }
        let open = open.get_mut(full as usize).and_then(Option::take);
        (best[full as usize].take(), open)
    }

    /// Greedy pairing: joins the cheapest linked pair of parts, or the
    /// cheapest pair where none is linked, until one part remains.
    fn greedy_order<M: CostModel>(
        &self,
        est: &CostEstimator<'_, M>,
        conjuncts: &Conjuncts,
    ) -> Arc<Expr> {
        let leaves = self.leaves.iter().enumerate().map(|(i, l)| {
            let leaf = Expr::select(Arc::clone(l), conjuncts.filter(1 << i, &[]));
            (1 << i, (est.tree_cost(&leaf), leaf))
        });
        let mut parts: Vec<(u64, Plan)> = leaves.collect();
        while parts.len() > 1 {
            let mut best: Option<(bool, usize, usize, Plan)> = None;
            for i in 0..parts.len() {
                for j in (i + 1)..parts.len() {
                    let ((a, l), (b, r)) = (&parts[i], &parts[j]);
                    let pairs = self.pairs_between(*a, *b);
                    let linked = !pairs.is_empty();
                    let plan = self.join_of(est, l, r, pairs, conjuncts.filter(a | b, &[*a, *b]));
                    // Linked joins first; among equals, the cheapest.
                    if best
                        .as_ref()
                        .is_none_or(|(was, .., p)| (linked, -plan.0) > (*was, -p.0))
                    {
                        best = Some((linked, i, j, plan));
                    }
                }
            }
            let (_, i, j, plan) = best.expect("len > 1");
            let mask = parts[i].0 | parts[j].0;
            // Removing j first keeps index i valid because i < j.
            parts.swap_remove(j);
            parts.swap_remove(i);
            parts.push((mask, plan));
        }
        parts.pop().map(|(_, (_, e))| e).expect("one part remains")
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
        for (a, b, js) in [
            (("Pd", "Did"), ("Div", "Did"), 1.0 / 5_000.0),
            (("Pt", "Pid"), ("Pd", "Pid"), 1.0 / 30_000.0),
        ] {
            c.set_join_selectivity(AttrRef::new(a.0, a.1), AttrRef::new(b.0, b.1), js)
                .unwrap();
        }
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

    /// Pd ⋈ σ[city='LA'](Div) ⋈ Pt.
    fn three() -> JoinGraph {
        let selected_div = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        let conds = vec![
            (AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
            (AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
        ];
        graph(
            vec![Expr::base("Pd"), selected_div, Expr::base("Pt")],
            conds,
        )
        .unwrap()
    }

    /// `g`'s plan over [`catalog`]: by the DP up to `dp_limit` leaves,
    /// greedily beyond.
    fn planned(g: &JoinGraph, dp_limit: usize) -> Arc<Expr> {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        g.order(Vec::new(), None, &est, dp_limit).unwrap()
    }

    /// The optimal plan joins (Pd ⋈ σDiv) before bringing in the huge Pt.
    #[test]
    fn dp_prefers_selective_join_first() {
        assert_eq!(
            planned(&three(), 12).to_string(),
            "((Pd ⋈[Div.Did=Pd.Did] σ[Div.city='LA'](Div)) ⋈[Pd.Pid=Pt.Pid] Pt)"
        );
    }

    #[test]
    fn dp_and_greedy_agree_on_small_inputs() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let (dp, greedy) = (planned(&three(), 12), planned(&three(), 1));
        assert!(est.tree_cost(&greedy) >= est.tree_cost(&dp));
        assert_eq!(dp.base_relations(), greedy.base_relations());
    }

    #[test]
    fn single_leaf_passes_through() {
        let g = graph(vec![Expr::base("Pd")], vec![]).unwrap();
        assert!(planned(&g, 12).is_base());
    }

    /// Two components, Pd ⋈ Div and Pt, are crossed whole; and over five
    /// leaves in a chain of three and a pair, the DP joins the chain's four
    /// pairs and the pair's one, and crosses only the two components.
    #[test]
    fn disconnected_graph_still_plans_via_cross_product() {
        let on_did = vec![(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did"))];
        let g = graph(
            vec![Expr::base("Pd"), Expr::base("Pt"), Expr::base("Div")],
            on_did,
        );
        assert_eq!(
            planned(&g.unwrap(), 12).to_string(),
            "(Pt ⋈[×] (Pd ⋈[Div.Did=Pd.Did] Div))"
        );
        let g = shaped(5, [(0, 1), (1, 2), (3, 4)]);
        let joined = joined_splits(&g);
        assert_eq!(joined.len(), 6);
        let crossed = joined
            .into_iter()
            .filter(|&(a, b)| g.pairs_between(a, b).is_empty());
        assert_eq!(crossed.collect::<Vec<_>>(), [(0b00111, 0b11000)]);
    }

    #[test]
    fn duplicate_relations_are_rejected() {
        assert!(graph(vec![Expr::base("Pd"), Expr::base("Pd")], vec![]).is_none());
        assert!(graph(vec![], vec![]).is_none());
    }

    #[test]
    fn dp_result_covers_all_relations() {
        assert_eq!(planned(&three(), 12).base_relations().len(), 3);
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
        let covers = |rels: &[&str]| rels.iter().map(|r| RelName::new(*r)).collect();
        let leaves = vec![
            (Expr::base("v"), covers(&["Div", "Pd"])),
            (Expr::base("Pt"), covers(&["Pt"])),
        ];
        let on_pid = vec![(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid"))];
        let g = JoinGraph::new(leaves, on_pid).unwrap();
        assert_eq!(planned(&g, 12).to_string(), "(v ⋈[Pd.Pid=Pt.Pid] Pt)");
    }

    /// A graph of `n` leaves `R0`, `R1`, … with one condition per `(i, j)`.
    fn shaped(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> JoinGraph {
        let rel = |i: usize| format!("R{i}");
        let leaves = (0..n).map(|i| Expr::base(rel(i).as_str())).collect();
        let on = |(i, j)| (AttrRef::new(rel(i), "k"), AttrRef::new(rel(j), "k"));
        graph(leaves, edges.into_iter().map(on).collect()).unwrap()
    }

    /// Every split the DP joins, subset by subset, through the iterator it
    /// consumes: a subset is planned when it is a leaf or has a split.
    fn joined_splits(g: &JoinGraph) -> Vec<(u64, u64)> {
        let mut planned = vec![false; 1 << g.leaves.len()];
        let mut joined = Vec::new();
        for set in 1..planned.len() as u64 {
            let before = joined.len();
            joined.extend(g.splits(set, |x| planned[x as usize]));
            planned[set as usize] = set.is_power_of_two() || joined.len() > before;
        }
        joined
    }

    /// On a connected graph the DP joins each connected-subgraph/complement
    /// pair once and nothing else: the closed forms of Moerkotte & Neumann
    /// (VLDB 2006) per shape.
    #[test]
    fn the_dp_joins_exactly_the_connected_pairs() {
        for n in 2..=8usize {
            let pow = |b: usize, e: usize| b.pow(e as u32);
            let chain = (1..n).map(|i| (i - 1, i));
            let clique = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
            let cases = [
                ("chain", shaped(n, chain.clone()), (pow(n, 3) - n) / 6),
                (
                    "star",
                    shaped(n, (1..n).map(|i| (0, i))),
                    (n - 1) * pow(2, n - 2),
                ),
                (
                    "cycle",
                    shaped(n, chain.chain([(n - 1, 0)])),
                    (pow(n, 3) - 2 * pow(n, 2) + n) / 2,
                ),
                (
                    "clique",
                    shaped(n, clique),
                    (pow(3, n) + 1 - pow(2, n + 1)) / 2,
                ),
            ];
            for (shape, g, pairs) in cases {
                let joined = joined_splits(&g);
                assert_eq!(joined.len(), pairs, "{shape} of {n}");
                assert!(joined
                    .iter()
                    .all(|&(a, b)| !g.pairs_between(a, b).is_empty()));
            }
        }
    }
}
