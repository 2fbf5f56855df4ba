//! The paper's Figure-9 heuristic for choosing the set `M` of nodes to
//! materialize, with a full decision trace.

use std::collections::BTreeSet;

use crate::annotate::AnnotatedMvpp;
use crate::mvpp::NodeId;

/// What the algorithm decided about one candidate node.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceVerdict {
    /// `Cs > 0`: inserted into `M` (Figure 9, step 6).
    Materialized,
    /// `Cs ≤ 0`: rejected; same-branch nodes later in `LV` were pruned
    /// (Figure 9, step 7) unless some view folds deltas.
    Rejected {
        /// Nodes removed from `LV` without being considered.
        pruned: Vec<NodeId>,
    },
    /// Every parent is already materialized, so materializing this node
    /// saves nothing (the paper's "tmp1 is ignored" case).
    SkippedParentsMaterialized,
    /// Removed from `M` by the final cleanup (Figure 9, step 9:
    /// `D(v) ⊆ M`).
    RemovedRedundant,
}

/// One considered node: its label, the incremental saving `Cs`, the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The node considered.
    pub node: NodeId,
    /// Its label at the time (`tmp4`, `tmp2`, …).
    pub label: String,
    /// The computed `Cs` (zero for skip/cleanup steps, where it is not
    /// evaluated).
    pub cs: f64,
    /// The decision.
    pub verdict: TraceVerdict,
}

/// The full decision record of one greedy run — the §4.3 walkthrough
/// (`LV = ⟨tmp4, result4, tmp7, tmp2, result1, tmp1⟩ …`) in data form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionTrace {
    /// The initial `LV` (positive-weight interior nodes, weight-descending).
    pub initial_lv: Vec<NodeId>,
    /// Steps in decision order.
    pub steps: Vec<TraceStep>,
}

/// The paper's greedy view-selection algorithm (Figure 9).
///
/// Nodes are considered in descending weight order
/// (`w(v) = Σ fq·Ca(v) − Σ fu·Cm(v)`); a node is materialized when its
/// incremental saving
///
/// ```text
/// Cs = Σ_{q∈Ov} fq(q)·(Ca(v) − Σ_{u∈S*v∩M} Ca(u)) − U(v)·Cm(v)
/// ```
///
/// is positive. Rejecting a node prunes every remaining same-branch node
/// (if materializing `v` gains nothing, no ancestor/descendant with smaller
/// weight can gain either — paper §4.3). That argument rests on
/// `Cm(v) = Ca(v)` along the branch; when some view folds deltas
/// ([`NodeAnnotation::folds`](crate::NodeAnnotation::folds)) it prices
/// below its `Ca` and, under a shared refresh, apart from the recompute
/// pass, so nothing is pruned and every candidate is judged on its own
/// `Cs`. A final pass removes nodes whose parents are all materialized.
///
/// ```
/// use mvdesign_core::{AnnotatedMvpp, GreedySelection, Mvpp, UpdateWeighting};
/// use mvdesign_algebra::{AttrRef, Expr, JoinCondition};
/// use mvdesign_catalog::{AttrType, Catalog};
/// use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
///
/// let mut catalog = Catalog::new();
/// for name in ["A", "B"] {
///     catalog.relation(name)
///         .attr("k", AttrType::Int)
///         .records(10_000.0).blocks(1_000.0)
///         .update_frequency(1.0)
///         .finish()?;
/// }
/// let join = Expr::join(
///     Expr::base("A"), Expr::base("B"),
///     JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k")),
/// );
/// let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
/// let mut mvpp = Mvpp::builder(est.cardinalities());
/// mvpp.insert_query("hot", 100.0, &join); // read 100×, refreshed once
/// let annotated = AnnotatedMvpp::annotate(mvpp.finish(), &est, UpdateWeighting::Max);
/// let (chosen, trace) = GreedySelection::new().run(&annotated);
/// assert!(!chosen.is_empty());          // the join is worth materializing
/// assert!(!trace.steps.is_empty());     // and the decision is explained
/// # Ok::<(), mvdesign_catalog::CatalogError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySelection;

impl GreedySelection {
    /// Creates the algorithm with default settings.
    pub fn new() -> Self {
        Self
    }

    /// Runs the algorithm, returning the chosen set and the decision trace.
    pub fn run(&self, a: &AnnotatedMvpp) -> (BTreeSet<NodeId>, SelectionTrace) {
        let mut lv = a.weight_ordered_interior();
        let mvpp = a.mvpp();
        let prune = !(0..mvpp.len()).any(|i| a.annotation(NodeId(i)).folds);
        let mut trace = SelectionTrace {
            initial_lv: lv.clone(),
            steps: Vec::new(),
        };
        let mut m: BTreeSet<NodeId> = BTreeSet::new();

        while !lv.is_empty() {
            let v = lv.remove(0);
            let node = mvpp.node(v);

            // The paper ignores tmp1 because its parent tmp2 is already in
            // M: a node all of whose parents are materialized can never be
            // read by a query.
            let parents = node.parents();
            if !parents.is_empty() && parents.iter().all(|p| m.contains(p)) {
                trace.steps.push(TraceStep {
                    node: v,
                    label: node.label().to_string(),
                    cs: 0.0,
                    verdict: TraceVerdict::SkippedParentsMaterialized,
                });
                continue;
            }

            let ann = a.annotation(v);
            // Replicated saving: queries already read materialized
            // descendants of v, so those descendants' Ca no longer counts
            // toward v's saving. The cached descendant bitset iterates in
            // ascending id order — the same order the BTreeSet walk used —
            // so the sum is bit-identical.
            let replicated: f64 = a
                .descendant_set(v)
                .iter()
                .filter(|u| m.contains(u))
                .map(|u| a.annotation(u).ca)
                .sum();
            let cs = ann.fq_weight * (ann.ca - replicated) - ann.fu_weight * ann.cm;

            if cs > 0.0 {
                m.insert(v);
                trace.steps.push(TraceStep {
                    node: v,
                    label: node.label().to_string(),
                    cs,
                    verdict: TraceVerdict::Materialized,
                });
            } else {
                let pruned: Vec<NodeId> = if prune {
                    lv.iter()
                        .copied()
                        .filter(|w| a.same_branch(v, *w))
                        .collect()
                } else {
                    Vec::new()
                };
                lv.retain(|w| !pruned.contains(w));
                trace.steps.push(TraceStep {
                    node: v,
                    label: node.label().to_string(),
                    cs,
                    verdict: TraceVerdict::Rejected { pruned },
                });
            }
        }

        // Step 9: a node whose consumers are all materialized is redundant.
        let redundant: Vec<NodeId> = m
            .iter()
            .copied()
            .filter(|v| {
                let parents = mvpp.node(*v).parents();
                !parents.is_empty()
                    && parents.iter().all(|p| m.contains(p))
                    // …and no query is rooted at v itself.
                    && !mvpp.roots().iter().any(|(_, _, r)| r == v)
            })
            .collect();
        for v in redundant {
            m.remove(&v);
            trace.steps.push(TraceStep {
                node: v,
                label: mvpp.node(v).label().to_string(),
                cs: 0.0,
                verdict: TraceVerdict::RemovedRedundant,
            });
        }

        (m, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::UpdateWeighting;
    use crate::evaluate::{evaluate, MaintenanceMode};
    use crate::mvpp::Mvpp;
    use mvdesign_algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
    use mvdesign_catalog::{AttrType, Catalog, RelName, RelationStats};
    use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
    use std::sync::Arc;

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
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(1.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.relation("Pt")
            .attr("Tid", AttrType::Int)
            .attr("Pid", AttrType::Int)
            .records(80_000.0)
            .blocks(10_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
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
        c.set_size_override(
            [RelName::new("Pd"), RelName::new("Div")],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        c
    }

    fn tmp1() -> Arc<Expr> {
        Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        )
    }

    fn tmp2() -> Arc<Expr> {
        Expr::join(
            Expr::base("Pd"),
            tmp1(),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        )
    }

    fn tmp3() -> Arc<Expr> {
        Expr::join(
            tmp2(),
            Expr::base("Pt"),
            JoinCondition::on(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
        )
    }

    fn annotated() -> AnnotatedMvpp {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", 10.0, &tmp2());
        m.insert_query("Q2", 0.5, &tmp3());
        AnnotatedMvpp::annotate(m.finish(), &est, UpdateWeighting::Max)
    }

    #[test]
    fn greedy_materializes_shared_profitable_node() {
        let a = annotated();
        let (m, trace) = GreedySelection::new().run(&a);
        let shared = a.mvpp().find(&tmp2()).unwrap();
        assert!(m.contains(&shared), "greedy chose {m:?}, trace: {trace:?}");
    }

    #[test]
    fn tmp1_is_skipped_once_tmp2_is_materialized() {
        let a = annotated();
        let (m, trace) = GreedySelection::new().run(&a);
        let sigma = a.mvpp().find(&tmp1()).unwrap();
        assert!(!m.contains(&sigma));
        // It must have been skipped or pruned, never materialized.
        for step in &trace.steps {
            if step.node == sigma {
                assert_ne!(step.verdict, TraceVerdict::Materialized);
            }
        }
    }

    #[test]
    fn greedy_beats_materialize_nothing_here() {
        let a = annotated();
        let (m, _) = GreedySelection::new().run(&a);
        let greedy_cost = evaluate(&a, &m, MaintenanceMode::SharedRecompute).total;
        let none_cost = evaluate(&a, &BTreeSet::new(), MaintenanceMode::SharedRecompute).total;
        assert!(
            greedy_cost < none_cost,
            "greedy {greedy_cost} vs none {none_cost}"
        );
    }

    #[test]
    fn trace_initial_lv_is_weight_ordered() {
        let a = annotated();
        let (_, trace) = GreedySelection::new().run(&a);
        assert_eq!(trace.initial_lv, a.weight_ordered_interior());
        assert!(!trace.steps.is_empty());
    }

    #[test]
    fn cs_of_first_node_equals_its_weight() {
        // For the first considered node nothing is materialized yet, so
        // Cs = w(v).
        let a = annotated();
        let (_, trace) = GreedySelection::new().run(&a);
        let first = &trace.steps[0];
        let w = a.annotation(first.node).weight;
        assert!((first.cs - w).abs() < 1e-9);
    }
}
