//! The single-query planner: Figure 4, step 1 ("generate an optimal query
//! processing plan").

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{AttrRef, Expr, Predicate, RelName};
use mvdesign_cost::{CostEstimator, CostModel};

use crate::joinorder::JoinGraph;
use crate::pulled::pull_up;
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

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Rewrites `expr` into a cheaper equivalent plan:
    ///
    /// 1. pull selections/projection above the join tree,
    /// 2. push single-relation conjuncts onto their leaves,
    /// 3. enumerate join orders cost-optimally,
    /// 4. re-apply the residual predicate and the final projection,
    /// 5. push projections down to the leaves.
    ///
    /// Queries the machinery cannot restructure (self-joins, non-base
    /// leaves, a join pair inside one relation) fall back to plain
    /// selection push-down. The returned plan is
    /// never costlier than `expr` under `est`.
    pub fn optimize<M: CostModel>(
        &self,
        expr: &Arc<Expr>,
        est: &CostEstimator<'_, M>,
    ) -> Arc<Expr> {
        let candidate = self.restructure(expr, est);
        let candidate = push_projections(&candidate, est.cardinalities().catalog());
        if est.tree_cost(&candidate) <= est.tree_cost(expr) {
            candidate
        } else {
            Arc::clone(expr)
        }
    }

    /// The eager-aggregation plan of `expr`, a `γ[G; A]` over a join tree
    /// (a σ between them included): [`JoinGraph::eager_order`] over the
    /// tree's leaves, its maximal subtrees that are not joins, each
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
        let mut leaves = Vec::new();
        let mut conds = Vec::new();
        flatten(tree, &mut leaves, &mut conds);
        let leaves = leaves.iter().map(|l| (Arc::clone(l), covers(l))).collect();
        JoinGraph::new(leaves, conds)?.eager_order(
            group_by,
            aggs,
            conjuncts,
            est,
            self.config.max_dp_relations,
        )
    }

    fn restructure<M: CostModel>(&self, expr: &Arc<Expr>, est: &CostEstimator<'_, M>) -> Arc<Expr> {
        let pulled = pull_up(expr);

        // Collect join-tree leaves (bases) and flatten conditions.
        let mut leaves = Vec::new();
        let mut conds = Vec::new();
        flatten(&pulled.join_tree, &mut leaves, &mut conds);

        // Split the pulled predicate into per-leaf conjuncts and a residual.
        let mut per_leaf: Vec<Vec<Predicate>> = vec![Vec::new(); leaves.len()];
        let mut residual = Vec::new();
        let conjuncts = match pulled.predicate.clone() {
            Predicate::True => Vec::new(),
            Predicate::And(ps) => ps,
            other => vec![other],
        };
        'outer: for conjunct in conjuncts {
            let rels: std::collections::BTreeSet<_> = conjunct
                .attrs()
                .iter()
                .map(|a| a.relation.clone())
                .collect();
            if rels.len() == 1 {
                let rel = rels.into_iter().next().expect("len checked");
                for (i, leaf) in leaves.iter().enumerate() {
                    if leaf.base_relations().contains(&rel) {
                        per_leaf[i].push(conjunct);
                        continue 'outer;
                    }
                }
            }
            residual.push(conjunct);
        }
        let annotated = leaves.iter().zip(per_leaf).map(|(leaf, preds)| {
            let bases = leaf.base_relations();
            let leaf = Expr::select(Arc::clone(leaf), Predicate::and(preds));
            (bases.len() == 1).then_some((leaf, bases))
        });
        let graph = annotated
            .collect::<Option<_>>()
            .and_then(|annotated| JoinGraph::new(annotated, conds));
        let ordered = match graph {
            Some(graph) => graph.optimal_order(est, self.config.max_dp_relations),
            // Degenerate (a leaf over several relations, self-join, a pair
            // no join applies, >63 relations…): keep the original shape,
            // just push selections down.
            None => return push_selections(expr),
        };

        let mut out = Expr::select(ordered, Predicate::and(residual));
        if let Some((group_by, aggs)) = &pulled.aggregate {
            out = Expr::aggregate(out, group_by.clone(), aggs.clone());
        }
        if let Some(attrs) = &pulled.projection {
            out = Expr::project(out, attrs.clone());
        }
        out
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

    #[test]
    fn optimizer_never_worsens_a_plan() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        for sql in [
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            "SELECT Pt.name FROM Pd, Pt, Div WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pt.Pid=Pd.Pid",
            "SELECT Cust.name, Pd.name, quantity FROM Pd, Div, Ord, Cust \
             WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pd.Pid=Ord.Pid AND Ord.Cid=Cust.Cid AND date>7/1/96",
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

    #[test]
    fn selection_lands_on_its_leaf() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let naive = parse_query_with(
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            &c,
        )
        .unwrap();
        let opt = Planner::new().optimize(&naive, &est);
        let mut on_leaf = false;
        mvdesign_algebra::postorder(&opt, &mut |n| {
            if let Expr::Select { input, .. } = &**n {
                // Directly on the base, or separated only by a projection.
                let leafish = match &**input {
                    Expr::Base(_) => true,
                    Expr::Project { input: inner, .. } => inner.is_base(),
                    _ => false,
                };
                if leafish && input.base_relations().contains("Div") {
                    on_leaf = true;
                }
            }
        });
        assert!(on_leaf, "optimized: {opt}");
    }

    #[test]
    fn q3_defers_expensive_relations() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let naive = parse_query_with(
            "SELECT Cust.name, Pd.name, quantity FROM Pd, Div, Ord, Cust \
             WHERE Div.city='LA' AND Pd.Did=Div.Did AND Pd.Pid=Ord.Pid AND Ord.Cid=Cust.Cid AND date>7/1/96",
            &c,
        )
        .unwrap();
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
