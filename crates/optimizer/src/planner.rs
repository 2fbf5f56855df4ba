//! The single-query planner: Figure 4, step 1 ("generate an optimal query
//! processing plan").

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{AggExpr, AttrRef, Expr, Predicate, RelName};
use mvdesign_cost::{CostEstimator, CostModel};

use crate::joinorder::JoinGraph;
use crate::pulled::{pull_up, PulledPlan};
use crate::pushdown::{push_projections, push_selections};

/// Tuning knobs for [`Planner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Largest number of join leaves planned with exact subset DP; larger
    /// queries fall back to greedy pairing, and are not planned eagerly
    /// ([`Planner::eager`]).
    pub max_dp_relations: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            max_dp_relations: 12,
        }
    }
}

/// Produces cost-optimal single-query plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// A planner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A planner with explicit configuration.
    pub fn with_config(config: PlannerConfig) -> Self {
        Self { config }
    }

    /// Rewrites `expr` into a cheaper equivalent plan:
    ///
    /// 1. pull selections, the γ and the final projection above the join
    ///    tree ([`pull_up`]),
    /// 2. order the joins cost-optimally ([`JoinGraph::order`]), each
    ///    conjunct filtering the first leaf or join that covers what it
    ///    reads,
    /// 3. re-apply the γ and the final projection,
    /// 4. push projections down to the leaves.
    ///
    /// Queries the join graph refuses (self-joins, a join pair inside one
    /// leaf, more than 63 leaves) fall back to plain selection push-down.
    /// The returned plan is never costlier than `expr` under `est`.
    pub fn optimize<M: CostModel>(
        &self,
        expr: &Arc<Expr>,
        est: &CostEstimator<'_, M>,
    ) -> Arc<Expr> {
        let candidate = push_projections(&self.reorder(expr, est), est.cardinalities().catalog());
        if est.tree_cost(&candidate) <= est.tree_cost(expr) {
            candidate
        } else {
            Arc::clone(expr)
        }
    }

    /// Steps 1–3 of [`optimize`](Self::optimize), a leaf that is not a base
    /// relation (a γ) reordered on its own; selection push-down where the
    /// join graph is refused.
    fn reorder<M: CostModel>(&self, expr: &Arc<Expr>, est: &CostEstimator<'_, M>) -> Arc<Expr> {
        let mut pulled = pull_up(expr);
        let conjuncts = pulled.predicate.conjuncts().to_vec();
        pulled.predicate = Predicate::True;
        let leaf = |l: &Arc<Expr>| match &**l {
            Expr::Base(_) => (Arc::clone(l), l.base_relations()),
            _ => (self.reorder(l, est), l.base_relations()),
        };
        let Some(join_tree) = self.order(&pulled.join_tree, conjuncts, None, leaf, est) else {
            return push_selections(expr);
        };
        PulledPlan {
            join_tree,
            ..pulled
        }
        .to_expr()
    }

    /// The eager-aggregation plan of `expr`, a `γ[G; A]` over a join tree
    /// (a σ between them included): [`JoinGraph::order`] with the γ, over
    /// the tree's leaves, its maximal subtrees that are not joins, each
    /// covering the base relations `covers` gives it. A σ directly under
    /// the γ goes down conjunct by conjunct. `None` where the rule does not
    /// apply, a π between the γ and the join included, and for more leaves
    /// than [`PlannerConfig::max_dp_relations`]. The plan is the cheapest
    /// the DP finds, not necessarily cheaper than `expr`.
    pub fn eager<M: CostModel>(
        &self,
        expr: &Arc<Expr>,
        covers: impl Fn(&Arc<Expr>) -> BTreeSet<RelName>,
        est: &CostEstimator<'_, M>,
    ) -> Option<Arc<Expr>> {
        let Expr::Aggregate {
            input,
            group_by,
            aggs,
        } = &**expr
        else {
            return None;
        };
        let (tree, conjuncts) = match &**input {
            Expr::Select { input, predicate } => (input, predicate.conjuncts().to_vec()),
            _ => (input, Vec::new()),
        };
        let leaf = |l: &Arc<Expr>| (Arc::clone(l), covers(l));
        self.order(tree, conjuncts, Some((group_by, aggs)), leaf, est)
    }

    /// [`JoinGraph::order`] over the leaves and conditions of the join tree
    /// `tree`, each leaf as `leaf` plans it, with the base relations it
    /// covers; `None` where the graph or the γ is refused.
    fn order<M: CostModel>(
        &self,
        tree: &Arc<Expr>,
        conjuncts: Vec<Predicate>,
        grouping: Option<(&[AttrRef], &[AggExpr])>,
        leaf: impl Fn(&Arc<Expr>) -> (Arc<Expr>, BTreeSet<RelName>),
        est: &CostEstimator<'_, M>,
    ) -> Option<Arc<Expr>> {
        let mut leaves = Vec::new();
        let mut conds = Vec::new();
        flatten(tree, &mut leaves, &mut conds);
        let leaves = leaves.iter().map(leaf).collect();
        JoinGraph::new(leaves, conds)?.order(conjuncts, grouping, est, self.config.max_dp_relations)
    }
}

/// Flattens a pure join tree into leaves and condition pairs.
fn flatten(expr: &Arc<Expr>, leaves: &mut Vec<Arc<Expr>>, conds: &mut Vec<(AttrRef, AttrRef)>) {
    match &**expr {
        Expr::Join { left, right, on } => {
            conds.extend(on.pairs().iter().cloned());
            flatten(left, leaves, conds);
            flatten(right, leaves, conds);
        }
        _ => leaves.push(Arc::clone(expr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{parse_query_with, AttrRef};
    use mvdesign_catalog::{AttrType, Catalog, RelName};
    use mvdesign_cost::{EstimationMode, PaperCostModel, RelationStats};

    /// The paper's full Table 1 catalog.
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
            [RelName::new("Pd"), RelName::new("Div")],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        c
    }

    /// The paper's Q3.
    const Q3: &str = "SELECT Cust.name, Pd.name, quantity FROM Pd, Div, Ord, Cust \
        WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pd.Pid=Ord.Pid AND Ord.Cid=Cust.Cid AND date>7/1/96";

    #[test]
    fn optimizer_never_worsens_a_plan() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        for sql in [
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            "SELECT Pt.name FROM Pd, Pt, Div WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pt.Pid=Pd.Pid",
            Q3,
            "SELECT Cust.city, date FROM Ord, Cust WHERE quantity>100 AND Ord.Cid=Cust.Cid",
        ] {
            let naive = parse_query_with(sql, &c).unwrap();
            let opt = Planner::new().optimize(&naive, &est);
            assert!(
                est.tree_cost(&opt) <= est.tree_cost(&naive),
                "optimizer worsened {sql}: {} -> {}",
                est.tree_cost(&naive),
                est.tree_cost(&opt)
            );
            assert_eq!(opt.base_relations(), naive.base_relations());
        }
    }

    /// Each σ in the plan of `sql` over [`catalog`], with the relations
    /// under it and whether it sits on a base relation, directly or
    /// through a π.
    fn selections(sql: &str) -> Vec<(Predicate, BTreeSet<RelName>, bool)> {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let opt = Planner::new().optimize(&parse_query_with(sql, &c).unwrap(), &est);
        let mut out = Vec::new();
        mvdesign_algebra::postorder(&opt, &mut |n| {
            if let Expr::Select { input, predicate } = &**n {
                let on_leaf = match &**input {
                    Expr::Project { input, .. } => input.is_base(),
                    leaf => matches!(leaf, Expr::Base(_)),
                };
                out.push((predicate.clone(), input.base_relations(), on_leaf));
            }
        });
        out
    }

    /// Also under a HAVING, whose σ over the γ leaves the join tree a γ
    /// leaf, planned on its own.
    #[test]
    fn selection_lands_on_its_leaf() {
        for sql in [
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            "SELECT Pd.name, COUNT(*) AS n FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did \
             GROUP BY Pd.name HAVING n > 1",
        ] {
            let selections = selections(sql);
            let on_div =
                |(_, rels, on_leaf): &(_, BTreeSet<_>, _)| *on_leaf && rels.contains("Div");
            assert!(selections.iter().any(on_div), "{selections:?}");
        }
    }

    /// A conjunct spanning two leaves filters the first join that covers
    /// them: the disjunction over Pd and Div sits on Pd ⋈ Div, below the
    /// join with Pt.
    #[test]
    fn spanning_selection_lands_on_its_join() {
        let selections = selections(
            "SELECT Pt.name FROM Pd, Div, Pt WHERE (Div.city='LA' OR Pd.name='x') \
             AND Pd.Did=Div.Did AND Pt.Pid=Pd.Pid",
        );
        let disjunctions = selections
            .into_iter()
            .filter(|(p, ..)| matches!(p, Predicate::Or(_)));
        let pd_div = BTreeSet::from([RelName::new("Div"), RelName::new("Pd")]);
        let under: Vec<_> = disjunctions.map(|(_, rels, _)| rels).collect();
        assert_eq!(under, [pd_div]);
    }

    #[test]
    fn q3_defers_expensive_relations() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let naive = parse_query_with(Q3, &c).unwrap();
        let opt = Planner::new().optimize(&naive, &est);
        // Sanity: strictly cheaper than the FROM-order plan for this query.
        assert!(est.tree_cost(&opt) < est.tree_cost(&naive));
    }

    #[test]
    fn single_relation_query_is_preserved() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let naive = parse_query_with("SELECT name FROM Cust WHERE city='LA'", &c).unwrap();
        let opt = Planner::new().optimize(&naive, &est);
        assert_eq!(opt.semantic_key(), naive.semantic_key());
    }
}
