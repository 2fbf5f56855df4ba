//! Total-cost evaluation of a materialization choice (paper §4.1):
//! `C_total = Σ_i fq(qi)·C(mv→qi) + Σ_j fu(rj)·C(rj→mv)`.

use std::collections::BTreeSet;

use crate::annotate::AnnotatedMvpp;
use crate::mvpp::NodeId;
use crate::nodeset::NodeSet;

/// How maintenance cost is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// One batch refresh recomputes the whole materialized sub-DAG per
    /// period, sharing common subexpressions between views. This matches the
    /// paper's Table 2, whose "materialize all queries" row charges the
    /// shared computation once.
    #[default]
    SharedRecompute,
    /// Each view recomputes independently from the base relations:
    /// `Σ_{v∈M} U(v)·Cm(v)` — the paper's formula read literally, and the
    /// estimate the Figure-9 greedy uses internally.
    Isolated,
}

/// The evaluated cost of one materialization choice.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// `Σ fq(qi) · C(mv→qi)`.
    pub query_processing: f64,
    /// Maintenance cost under the chosen [`MaintenanceMode`].
    pub maintenance: f64,
    /// `query_processing + maintenance`.
    pub total: f64,
    /// Frequency-weighted processing cost per query, in root order.
    pub per_query: Vec<(String, f64)>,
}

/// Evaluates the total cost of materializing exactly the nodes in `m`.
///
/// Query processing: each query computes from its nearest materialized
/// descendants — a node in `m` is *read* (scan cost) rather than recomputed;
/// shared nodes within one query are charged once. A query whose root is
/// itself materialized only pays the scan of its result.
///
/// Materializing a leaf (base relation) is a no-op: base relations are
/// already stored.
pub fn evaluate(a: &AnnotatedMvpp, m: &BTreeSet<NodeId>, mode: MaintenanceMode) -> CostBreakdown {
    let set = NodeSet::from_ids(a.mvpp().len(), m.iter().copied());
    evaluate_set(a, &set, mode)
}

/// [`evaluate`] over a dense [`NodeSet`] — the hot-path form used by the
/// search algorithms. Produces bit-identical results to [`evaluate`] (same
/// traversal and summation orders).
pub fn evaluate_set(a: &AnnotatedMvpp, m: &NodeSet, mode: MaintenanceMode) -> CostBreakdown {
    let mvpp = a.mvpp();
    let mut per_query = Vec::with_capacity(mvpp.roots().len());
    let mut query_processing = 0.0;
    for (name, fq, root) in mvpp.roots() {
        let one = query_cost_set(a, m, *root);
        let weighted = fq * one;
        query_processing += weighted;
        per_query.push((name.clone(), weighted));
    }

    let maintenance = maintenance_cost(a, m, mode);

    // `+ 0.0` normalises any IEEE negative zero out of the sums.
    CostBreakdown {
        query_processing: query_processing + 0.0,
        maintenance: maintenance + 0.0,
        total: query_processing + maintenance + 0.0,
        per_query,
    }
}

/// The maintenance term of [`evaluate_set`] alone (already `−0.0`-normalised).
pub(crate) fn maintenance_cost(a: &AnnotatedMvpp, m: &NodeSet, mode: MaintenanceMode) -> f64 {
    let mvpp = a.mvpp();
    let maintenance: f64 = match mode {
        MaintenanceMode::Isolated => m
            .iter()
            .filter(|v| !mvpp.node(*v).is_leaf())
            .map(|v| {
                let ann = a.annotation(v);
                ann.fu_weight * ann.cm
            })
            .sum(),
        MaintenanceMode::SharedRecompute => {
            // One refresh pass recomputes every node needed by some view it
            // rebuilds, charging each operator once (weighted by its own
            // update rate). A view that folds deltas stays out of the pass
            // and charges its own `fu·Cmᵟ`.
            // The "needed" closure is a few word-ORs over the cached
            // descendant bitsets; iteration is ascending-id, matching the
            // BTreeSet-based order exactly.
            let mut needed = NodeSet::with_capacity(mvpp.len());
            let mut folds = 0.0;
            for v in m.iter() {
                if mvpp.node(v).is_leaf() {
                    continue;
                }
                let ann = a.annotation(v);
                if ann.folds {
                    folds += ann.fu_weight * ann.delta_cm;
                    continue;
                }
                needed.insert(v);
                needed.union_with(a.descendant_set(v));
            }
            needed
                .iter()
                .map(|n| {
                    let ann = a.annotation(n);
                    ann.fu_weight * ann.op_cost
                })
                .sum::<f64>()
                + folds
        }
    };
    maintenance + 0.0
}

/// Cost of answering the workload with *multiple-query processing* instead
/// of materialization — the alternative the paper distinguishes itself from
/// in §3.2.
///
/// MQP executes the queries together as a batch, sharing common
/// subexpressions transiently (each DAG operator runs once per batch) but
/// persisting nothing. Queries arrive at their own frequencies, so the batch
/// must run as often as the most frequent query demands:
/// `C_mqp = max_q fq(q) · Σ_{v ∈ V} op_cost(v)`. There is no maintenance
/// term — nothing is stored.
///
/// The paper's argument (§3.2) is that for warehouse workloads — repeated
/// queries over slowly-changing data — materializing the shared temporaries
/// beats recomputing them per batch; [`evaluate`] vs this function makes
/// that comparison concrete.
pub fn mqp_batch_cost(a: &AnnotatedMvpp) -> f64 {
    let mvpp = a.mvpp();
    let batches = mvpp
        .roots()
        .iter()
        .map(|(_, fq, _)| *fq)
        .fold(0.0, f64::max);
    let batch: f64 = mvpp
        .interior()
        .into_iter()
        .map(|v| a.annotation(v).op_cost)
        .sum();
    batches * batch
}

/// The update frequency at which materializing `v` (alone) stops paying —
/// the closed-form piece of the "analytical model for a multiple view
/// processing environment" the paper's conclusion calls for.
///
/// Materializing `v` saves each using query `Ca(v) − scan(v)` per access and
/// costs one maintenance pass of `Cm(v)` per update period, so the break-even
/// update weight is
///
/// ```text
/// U*(v) = Σ_{q∈Ov} fq(q) · (Ca(v) − scan(v)) / Cm(v)
/// ```
///
/// Below `U*` the view wins; above it, recomputation wins. Returns
/// `f64::INFINITY` when maintenance is free (`Cm = 0`) and `0.0` when the
/// view never helps (`scan ≥ Ca`).
pub fn break_even_update_weight(a: &AnnotatedMvpp, v: NodeId) -> f64 {
    let ann = a.annotation(v);
    let per_access_saving = (ann.ca - ann.scan).max(0.0);
    if per_access_saving == 0.0 {
        return 0.0;
    }
    if ann.cm <= 0.0 {
        return f64::INFINITY;
    }
    ann.fq_weight * per_access_saving / ann.cm
}

/// Unweighted cost of answering the query rooted at `root` given
/// materialized set `m`.
pub fn query_cost(a: &AnnotatedMvpp, m: &BTreeSet<NodeId>, root: NodeId) -> f64 {
    let set = NodeSet::from_ids(a.mvpp().len(), m.iter().copied());
    query_cost_set(a, &set, root)
}

/// [`query_cost`] over a dense [`NodeSet`].
pub fn query_cost_set(a: &AnnotatedMvpp, m: &NodeSet, root: NodeId) -> f64 {
    if m.contains(root) && !a.mvpp().node(root).is_leaf() {
        return a.annotation(root).scan;
    }
    let mut visited = NodeSet::with_capacity(a.mvpp().len());
    walk(a, m, root, root, &mut visited)
}

fn walk(a: &AnnotatedMvpp, m: &NodeSet, v: NodeId, root: NodeId, visited: &mut NodeSet) -> f64 {
    if !visited.insert(v) {
        return 0.0;
    }
    let node = a.mvpp().node(v);
    if node.is_leaf() {
        // Base relations are read by the operator above them; the paper
        // assigns leaves zero cost.
        return 0.0;
    }
    if v != root && m.contains(v) {
        return a.annotation(v).scan;
    }
    let mut cost = a.annotation(v).op_cost;
    for c in node.children() {
        cost += walk(a, m, *c, root, visited);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::UpdateWeighting;
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
            .attr("name", AttrType::Text)
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

    fn tmp2() -> Arc<Expr> {
        Expr::join(
            Expr::base("Pd"),
            Expr::select(
                Expr::base("Div"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
            ),
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

    /// Q1 reads tmp2 (fq 10), Q2 reads tmp3 = tmp2 ⋈ Pt (fq 0.5).
    fn annotated() -> AnnotatedMvpp {
        annotated_with(crate::annotate::MaintenancePolicy::Recompute)
    }

    fn annotated_with(policy: crate::annotate::MaintenancePolicy) -> AnnotatedMvpp {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", 10.0, &tmp2());
        m.insert_query("Q2", 0.5, &tmp3());
        AnnotatedMvpp::annotate_with(m.finish(), &est, UpdateWeighting::Max, policy)
    }

    #[test]
    fn nothing_materialized_pays_full_recompute() {
        let a = annotated();
        let cost = evaluate(&a, &BTreeSet::new(), MaintenanceMode::SharedRecompute);
        assert_eq!(cost.maintenance, 0.0);
        let ca_q1 = a.annotation(a.mvpp().find(&tmp2()).unwrap()).ca;
        let ca_q2 = a.annotation(a.mvpp().find(&tmp3()).unwrap()).ca;
        assert_eq!(cost.query_processing, 10.0 * ca_q1 + 0.5 * ca_q2);
        assert_eq!(cost.total, cost.query_processing);
        assert_eq!(cost.per_query.len(), 2);
    }

    #[test]
    fn materializing_shared_node_cuts_both_queries() {
        let a = annotated();
        let shared = a.mvpp().find(&tmp2()).unwrap();
        let m: BTreeSet<_> = [shared].into();
        let cost = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
        let scan = a.annotation(shared).scan;
        // Q1 reads the view; Q2 joins the view with Pt.
        let q2_join = a.annotation(a.mvpp().find(&tmp3()).unwrap()).op_cost;
        assert_eq!(cost.query_processing, 10.0 * scan + 0.5 * (scan + q2_join));
        // Maintenance recomputes σ + tmp2 once.
        assert_eq!(cost.maintenance, a.annotation(shared).cm);
    }

    #[test]
    fn materializing_roots_leaves_only_scans() {
        let a = annotated();
        let m: BTreeSet<_> = a.mvpp().roots().iter().map(|r| r.2).collect();
        let cost = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
        let s1 = a.annotation(a.mvpp().find(&tmp2()).unwrap()).scan;
        let s2 = a.annotation(a.mvpp().find(&tmp3()).unwrap()).scan;
        assert_eq!(cost.query_processing, 10.0 * s1 + 0.5 * s2);
        // Shared maintenance charges tmp2's chain once, not twice.
        let ca_q2 = a.annotation(a.mvpp().find(&tmp3()).unwrap()).ca;
        assert_eq!(cost.maintenance, ca_q2);
    }

    #[test]
    fn isolated_maintenance_double_charges_shared_chains() {
        let a = annotated();
        let m: BTreeSet<_> = a.mvpp().roots().iter().map(|r| r.2).collect();
        let shared = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
        let isolated = evaluate(&a, &m, MaintenanceMode::Isolated);
        assert!(isolated.maintenance > shared.maintenance);
        let ca1 = a.annotation(a.mvpp().find(&tmp2()).unwrap()).ca;
        let ca2 = a.annotation(a.mvpp().find(&tmp3()).unwrap()).ca;
        assert_eq!(isolated.maintenance, ca1 + ca2);
    }

    #[test]
    fn materializing_leaves_is_free_noop() {
        let a = annotated();
        let m: BTreeSet<_> = a.mvpp().leaves().into_iter().collect();
        let with = evaluate(&a, &m, MaintenanceMode::SharedRecompute);
        let without = evaluate(&a, &BTreeSet::new(), MaintenanceMode::SharedRecompute);
        assert_eq!(with.total, without.total);
    }

    #[test]
    fn break_even_weight_separates_win_from_loss() {
        let a = annotated();
        let shared = a.mvpp().find(&tmp2()).unwrap();
        let ustar = break_even_update_weight(&a, shared);
        assert!(ustar.is_finite() && ustar > 0.0);
        // Evaluate the single-view strategy just below and above U*: the
        // Isolated-maintenance total must cross the all-virtual total there.
        let ann = a.annotation(shared);
        let m: BTreeSet<_> = [shared].into();
        let base = evaluate(&a, &BTreeSet::new(), MaintenanceMode::Isolated);
        // Savings at weight u: fq·(ca − scan) − u·cm; check the sign flips.
        for (u, expect_win) in [(ustar * 0.5, true), (ustar * 2.0, false)] {
            let saving = ann.fq_weight * (ann.ca - ann.scan) - u * ann.cm;
            assert_eq!(saving > 0.0, expect_win, "u = {u}");
        }
        let with_view = evaluate(&a, &m, MaintenanceMode::Isolated);
        // At the catalog's actual fu (1.0 < U*), the view must win.
        assert!(ustar > 1.0);
        assert!(with_view.total < base.total);
    }

    #[test]
    fn mqp_batching_shares_but_repeats_per_batch() {
        let a = annotated();
        // Batch = every interior operator once; batches = max fq = 10.
        let ops: f64 = a
            .mvpp()
            .interior()
            .into_iter()
            .map(|v| a.annotation(v).op_cost)
            .sum();
        assert!((mqp_batch_cost(&a) - 10.0 * ops).abs() < 1e-9);
        // The MVPP design (materialize the shared join) beats MQP here:
        // fu = 1 refresh vs 10 batch recomputations.
        let shared = a.mvpp().find(&tmp2()).unwrap();
        let mvpp_total = evaluate(&a, &[shared].into(), MaintenanceMode::SharedRecompute).total;
        assert!(mvpp_total < mqp_batch_cost(&a));
    }

    #[test]
    fn per_query_sums_to_query_processing() {
        let a = annotated();
        let shared = a.mvpp().find(&tmp2()).unwrap();
        let cost = evaluate(&a, &[shared].into(), MaintenanceMode::SharedRecompute);
        let sum: f64 = cost.per_query.iter().map(|(_, c)| c).sum();
        assert!((sum - cost.query_processing).abs() < 1e-9);
    }

    fn incremental(f: f64) -> AnnotatedMvpp {
        annotated_with(crate::annotate::MaintenancePolicy::Incremental { update_fraction: f })
    }

    #[test]
    fn empty_delta_set_is_digit_identical_to_evaluate() {
        // A set with no folding view is charged under incremental
        // maintenance exactly as under recompute, to the bit. At an append
        // fraction of one half the two joins rebuild.
        let (rec, inc) = (annotated(), incremental(0.5));
        let rebuilt: Vec<NodeId> = inc
            .mvpp()
            .interior()
            .into_iter()
            .filter(|v| !inc.annotation(*v).folds)
            .collect();
        assert!(!rebuilt.is_empty(), "fixture: some view rebuilds");
        for mask in 0u32..1 << rebuilt.len() {
            let m = (0..rebuilt.len()).filter(|i| mask & (1 << i) != 0);
            let m = NodeSet::from_ids(inc.mvpp().len(), m.map(|i| rebuilt[i]));
            for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
                assert_eq!(evaluate_set(&rec, &m, mode), evaluate_set(&inc, &m, mode));
            }
        }
    }

    #[test]
    fn delta_policy_charges_delta_cm_and_leaves_queries_alone() {
        let (rec, inc) = (
            annotated(),
            incremental(crate::annotate::DEFAULT_DELTA_FRACTION),
        );
        let shared = inc.mvpp().find(&tmp2()).unwrap();
        let ann = inc.annotation(shared);
        assert!(ann.folds, "fixture: the shared join folds");
        let m: BTreeSet<_> = [shared].into();
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let (plain, with) = (evaluate(&rec, &m, mode), evaluate(&inc, &m, mode));
            assert_eq!(plain.query_processing, with.query_processing, "{mode:?}");
            assert_eq!(with.maintenance, ann.fu_weight * ann.delta_cm, "{mode:?}");
            assert!(with.total < plain.total, "{mode:?}");
        }
        // At one half the selection folds and the joins rebuild: the shared
        // pass recomputes tmp3's whole sub-DAG, the selection's operator
        // included, and the selection still charges its own fold.
        let inc = incremental(0.5);
        let interior = inc.mvpp().interior();
        let sigma = interior
            .into_iter()
            .find(|v| inc.annotation(*v).folds)
            .unwrap();
        let top = inc.mvpp().find(&tmp3()).unwrap();
        let cost = evaluate(&inc, &[sigma, top].into(), MaintenanceMode::SharedRecompute);
        let s = inc.annotation(sigma);
        let want = inc.annotation(top).ca + s.fu_weight * s.delta_cm;
        assert!(
            (cost.maintenance - want).abs() < 1e-6 * want,
            "{}",
            cost.maintenance
        );
    }
}
