//! Cost annotations: turning an [`Mvpp`] into the fully-labelled DAG
//! `M = (V, A, R, Ca, Cm, fq, fu)` of the paper's §3.1.

use mvdesign_catalog::RelationStats;
use mvdesign_cost::{CostEstimator, CostModel};

use crate::mvpp::{Mvpp, NodeId};
use crate::nodeset::NodeSet;

/// How per-view update weights are derived from base-relation update
/// frequencies.
///
/// The paper's formula sums `fu` over a view's base inputs, but its worked
/// example (§4.3) charges one recomputation per period for views over
/// several once-per-period relations — i.e. refreshes are batched, which
/// corresponds to taking the *maximum*. `Max` therefore reproduces the
/// paper's trace and is the default; `Sum` implements the formula literally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateWeighting {
    /// One batched refresh per update period: `U(v) = max_{b∈Iv} fu(b)`.
    #[default]
    Max,
    /// Refresh per base-relation update: `U(v) = Σ_{b∈Iv} fu(b)`.
    Sum,
}

/// How a materialized view is refreshed when its base relations change.
///
/// The paper assumes recomputation ("we assume that re-computing is used
/// whenever an update of involved base relation occurs", §2) and lists
/// incremental maintenance as the standard alternative from the literature
/// it builds on (Gupta & Mumick's survey, the paper's reference 11).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MaintenancePolicy {
    /// Rebuild the view from its inputs on every refresh: `Cm(v) = Ca(v)`.
    #[default]
    Recompute,
    /// Each view is refreshed the cheaper way: it folds append deltas when
    /// that costs less than rebuilding it, so
    /// `Cm(v) = min(Ca(v), Cmᵟ(v))` with [`NodeAnnotation::delta_cm`] taken
    /// at this append fraction, and [`NodeAnnotation::folds`] records which.
    Incremental {
        /// Per-period append fraction `|ΔR|/|R|` of every base relation,
        /// clamped into `[0, 1]`.
        update_fraction: f64,
    },
}

/// The per-period append fraction `|ΔR|/|R|` the delta cost model assumes
/// when the maintenance policy does not state one (i.e. under
/// [`MaintenancePolicy::Recompute`], where the fraction only feeds the
/// *alternative* [`NodeAnnotation::delta_cm`] column).
pub const DEFAULT_DELTA_FRACTION: f64 = 0.1;

/// Everything the paper labels one MVPP vertex with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAnnotation {
    /// Estimated result statistics of `R(v)`.
    pub stats: RelationStats,
    /// Cost of this operator alone, inputs available.
    pub op_cost: f64,
    /// `Ca(v)`: cost of producing `R(v)` from base relations, sharing common
    /// subexpressions (zero for leaves).
    pub ca: f64,
    /// `Cm(v)`: cost of maintaining `v` if materialized. Recomputation
    /// maintenance (the paper's assumption) makes `Cm(v) = Ca(v)`;
    /// incremental maintenance makes it `min(Ca(v), Cmᵟ(v))`.
    pub cm: f64,
    /// `Cmᵟ(v)`: cost of maintaining `v` by delta propagation instead of
    /// recomputation — every operator below `v` re-run at its *delta*
    /// cardinality (the `ΔR⋈S ∪ R⋈ΔS ∪ ΔR⋈ΔS` expansion sizes a join's
    /// delta at `(1+f)^k − 1` of its result for `k` base inputs with append
    /// fraction `f`), plus one scan of the stored view to fold the delta
    /// in. Zero for leaves; never charged above a full recomputation per
    /// operator.
    pub delta_cm: f64,
    /// Whether `v` is maintained by folding deltas, `Cm(v) = Cmᵟ(v)`: under
    /// [`MaintenancePolicy::Incremental`], `Cmᵟ(v) < Ca(v)` strictly. Always
    /// `false` under [`MaintenancePolicy::Recompute`] and for leaves.
    pub folds: bool,
    /// Cost of scanning a materialized copy of `R(v)`.
    pub scan: f64,
    /// `Σ_{q ∈ Ov} fq(q)`: combined frequency of queries using `v`.
    pub fq_weight: f64,
    /// `U(v)`: update weight from the base relations below `v`.
    pub fu_weight: f64,
    /// `w(v) = fq_weight·Ca(v) − fu_weight·Cm(v)` (paper §4.3).
    pub weight: f64,
}

/// An [`Mvpp`] together with per-node annotations computed against a
/// catalog and cost model.
#[derive(Debug, Clone)]
pub struct AnnotatedMvpp {
    mvpp: Mvpp,
    annotations: Vec<NodeAnnotation>,
    /// Per-node `S*{v}` (descendants, excluding `v`) as dense bitsets.
    desc_sets: Vec<NodeSet>,
    /// Per-node `D*{v}` (ancestors, excluding `v`) as dense bitsets.
    anc_sets: Vec<NodeSet>,
}

impl AnnotatedMvpp {
    /// Annotates every node of `mvpp` under recomputation maintenance.
    pub fn annotate<M: CostModel>(
        mvpp: Mvpp,
        est: &CostEstimator<'_, M>,
        weighting: UpdateWeighting,
    ) -> Self {
        Self::annotate_with(mvpp, est, weighting, MaintenancePolicy::Recompute)
    }

    /// Annotates every node of `mvpp` under an explicit maintenance policy.
    pub fn annotate_with<M: CostModel>(
        mvpp: Mvpp,
        est: &CostEstimator<'_, M>,
        weighting: UpdateWeighting,
        policy: MaintenancePolicy,
    ) -> Self {
        let catalog = est.cardinalities().catalog();
        let n = mvpp.len();
        // Transitive closures as bitsets, one pass each way. Nodes are stored
        // in topological (children-first) order, so every child's descendant
        // set is complete before its parents', and vice versa for ancestors.
        let mut desc_sets: Vec<NodeSet> = Vec::with_capacity(n);
        for node in mvpp.nodes() {
            let mut d = NodeSet::with_capacity(n);
            for c in node.children() {
                d.insert(*c);
                d.union_with(&desc_sets[c.0]);
            }
            desc_sets.push(d);
        }
        let mut anc_sets: Vec<NodeSet> = vec![NodeSet::with_capacity(n); n];
        for node in mvpp.nodes().iter().rev() {
            let mut up = NodeSet::with_capacity(n);
            for p in node.parents() {
                up.insert(*p);
                up.union_with(&anc_sets[p.0]);
            }
            anc_sets[node.id().0] = up;
        }

        // Append fraction feeding the delta-maintenance column: the policy's
        // stated fraction when it has one, the model default otherwise.
        let (delta_fraction, incremental) = match policy {
            MaintenancePolicy::Incremental { update_fraction } => {
                (update_fraction.clamp(0.0, 1.0), true)
            }
            MaintenancePolicy::Recompute => (DEFAULT_DELTA_FRACTION, false),
        };
        // Per-node delta size as a fraction of the full result. A node over
        // `k` base relations each growing by fraction `f` has a new state
        // `(1+f)^k` times the old per-relation product, so its delta is
        // `(1+f)^k − 1` of the old result — capped at 1 (a delta pass never
        // costs more than the recomputation it replaces).
        let mut delta_factors: Vec<f64> = Vec::with_capacity(n);
        let mut annotations: Vec<NodeAnnotation> = Vec::with_capacity(n);
        for node in mvpp.nodes() {
            let stats = est.stats(node.expr());
            let op_cost = est.op_cost(node.expr());
            let ca = if node.is_leaf() {
                0.0
            } else {
                // Ca over the *DAG*: this operator plus each distinct
                // descendant operator once, summed in ascending id order
                // (bitset iteration == BTreeSet iteration).
                let mut total = op_cost;
                for d in desc_sets[node.id().0].iter() {
                    total += annotations[d.0].op_cost;
                }
                total
            };
            let scan = est.scan_cost(node.expr());
            let leaves_below = desc_sets[node.id().0]
                .iter()
                .filter(|d| mvpp.node(*d).is_leaf())
                .count()
                .max(1);
            let delta_factor = ((1.0 + delta_fraction).powi(leaves_below as i32) - 1.0).min(1.0);
            delta_factors.push(delta_factor);
            let delta_cm = if node.is_leaf() {
                0.0
            } else {
                // Every operator below `v` re-runs at its own delta size
                // (leaves have zero op_cost), plus one scan of the stored
                // view to apply the result.
                let mut total = op_cost * delta_factor;
                for d in desc_sets[node.id().0].iter() {
                    total += annotations[d.0].op_cost * delta_factors[d.0];
                }
                total + scan
            };
            // One price per view: it folds deltas exactly when that is
            // cheaper than rebuilding it (leaves have Ca = Cmᵟ = 0).
            let folds = incremental && delta_cm < ca;
            let cm = if folds { delta_cm } else { ca };
            // `Σ fq` over the queries using this node, in root order — same
            // order (and therefore same float sum) as `queries_using` gives.
            let up = &anc_sets[node.id().0];
            let fq_weight: f64 = mvpp
                .roots()
                .iter()
                .filter(|(_, _, root)| *root == node.id() || up.contains(*root))
                .map(|(_, fq, _)| *fq)
                .sum();
            let fus = mvpp
                .base_inputs(node.id())
                .into_iter()
                .map(|r| catalog.update_frequency(r.as_str()));
            let fu_weight = match weighting {
                UpdateWeighting::Max => fus.fold(0.0, f64::max),
                UpdateWeighting::Sum => fus.sum(),
            };
            annotations.push(NodeAnnotation {
                stats,
                op_cost,
                ca,
                cm,
                delta_cm,
                folds,
                scan,
                fq_weight,
                fu_weight,
                weight: fq_weight * ca - fu_weight * cm,
            });
        }
        Self {
            mvpp,
            annotations,
            desc_sets,
            anc_sets,
        }
    }

    /// The underlying DAG.
    pub fn mvpp(&self) -> &Mvpp {
        &self.mvpp
    }

    /// Annotation of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this MVPP.
    pub fn annotation(&self, id: NodeId) -> &NodeAnnotation {
        &self.annotations[id.0]
    }

    /// Cached `S*{v}` (all descendants of `v`, excluding `v`) as a bitset —
    /// the precomputed form of [`Mvpp::descendants`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this MVPP.
    pub fn descendant_set(&self, id: NodeId) -> &NodeSet {
        &self.desc_sets[id.0]
    }

    /// Whether `u` and `v` lie on one root-to-leaf branch, answered from the
    /// cached closures (the fast form of [`Mvpp::same_branch`]).
    pub fn same_branch(&self, u: NodeId, v: NodeId) -> bool {
        u == v || self.anc_sets[u.0].contains(v) || self.anc_sets[v.0].contains(u)
    }

    /// Interior nodes with positive weight, in descending weight order —
    /// the paper's list `LV` (Figure 9, step 2). Ties break by node id for
    /// determinism.
    pub fn weight_ordered_interior(&self) -> Vec<NodeId> {
        let mut lv: Vec<NodeId> = self
            .mvpp
            .interior()
            .into_iter()
            .filter(|v| self.annotations[v.0].weight > 0.0)
            .collect();
        lv.sort_by(|a, b| {
            let wa = self.annotations[a.0].weight;
            let wb = self.annotations[b.0].weight;
            wb.total_cmp(&wa).then(a.0.cmp(&b.0))
        });
        lv
    }

    /// Renders the DAG as DOT, labelling every interior node with its
    /// `Ca` — the same annotation the paper draws beside each node in
    /// Figure 3.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=BT;");
        for n in self.mvpp.nodes() {
            let a = &self.annotations[n.id().0];
            let shape = if n.is_leaf() { "box" } else { "plaintext" };
            let _ = writeln!(
                out,
                "  {} [label=\"{} Ca={:.4}\", shape={shape}];",
                n.id(),
                n.label(),
                a.ca
            );
        }
        for n in self.mvpp.nodes() {
            for c in n.children() {
                let _ = writeln!(out, "  {} -> {};", c, n.id());
            }
        }
        for (i, (qname, fq, root)) in self.mvpp.roots().iter().enumerate() {
            let _ = writeln!(out, "  q{i} [label=\"{qname} fq={fq}\", shape=ellipse];");
            let _ = writeln!(out, "  {root} -> q{i};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
    use mvdesign_catalog::{AttrType, Catalog, RelName};
    use mvdesign_cost::{EstimationMode, PaperCostModel};

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
        c.set_join_selectivity(
            AttrRef::new("Pd", "Did"),
            AttrRef::new("Div", "Did"),
            1.0 / 5_000.0,
        )
        .unwrap();
        c.set_size_override(
            [RelName::new("Pd"), RelName::new("Div")],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        c
    }

    fn tmp2() -> std::sync::Arc<Expr> {
        Expr::join(
            Expr::base("Pd"),
            Expr::select(
                Expr::base("Div"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
            ),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        )
    }

    fn annotated() -> AnnotatedMvpp {
        annotated_with(UpdateWeighting::Max)
    }

    fn annotated_with(weighting: UpdateWeighting) -> AnnotatedMvpp {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", 10.0, &tmp2());
        AnnotatedMvpp::annotate(m.finish(), &est, weighting)
    }

    #[test]
    fn leaves_have_zero_ca() {
        let a = annotated();
        for leaf in a.mvpp().leaves() {
            assert_eq!(a.annotation(leaf).ca, 0.0);
            assert_eq!(a.annotation(leaf).cm, 0.0);
        }
    }

    #[test]
    fn ca_accumulates_over_the_dag() {
        let a = annotated();
        let join = a.mvpp().find(&tmp2()).unwrap();
        // σ costs 500, join costs 3000·10 + 100 = 30 100.
        assert_eq!(a.annotation(join).ca, 30_600.0);
        assert_eq!(a.annotation(join).op_cost, 30_100.0);
    }

    #[test]
    fn weights_follow_paper_formula() {
        let a = annotated();
        let join = a.mvpp().find(&tmp2()).unwrap();
        let ann = a.annotation(join);
        assert_eq!(ann.fq_weight, 10.0);
        assert_eq!(ann.fu_weight, 1.0);
        assert_eq!(ann.weight, 10.0 * 30_600.0 - 30_600.0);
    }

    #[test]
    fn weight_ordered_interior_is_descending() {
        let a = annotated();
        let lv = a.weight_ordered_interior();
        for pair in lv.windows(2) {
            assert!(a.annotation(pair[0]).weight >= a.annotation(pair[1]).weight);
        }
        // Only positive weights appear.
        for v in &lv {
            assert!(a.annotation(*v).weight > 0.0);
        }
    }

    #[test]
    fn sum_weighting_counts_each_base() {
        let a = annotated_with(UpdateWeighting::Sum);
        let join = a.mvpp().find(&tmp2()).unwrap();
        assert_eq!(a.annotation(join).fu_weight, 2.0);
    }

    #[test]
    fn dot_contains_ca_labels() {
        let a = annotated();
        assert!(a.to_dot("fig3").contains("Ca=30600"));
    }

    #[test]
    fn delta_cm_charges_delta_sized_work_plus_scan() {
        let a = annotated();
        let join = a.mvpp().find(&tmp2()).unwrap();
        let ann = a.annotation(join);
        // The join sits over two base relations (delta factor
        // 1.1² − 1 = 0.21), the σ below it over one (0.1); the stored view
        // is scanned once to fold the delta in.
        let want = (1.1f64.powi(2) - 1.0) * 30_100.0 + 0.1 * 500.0 + ann.scan;
        assert!(
            (ann.delta_cm - want).abs() < 1e-6,
            "{} vs {want}",
            ann.delta_cm
        );
        assert!(ann.delta_cm < ann.cm, "delta maintenance beats recompute");
        for leaf in a.mvpp().leaves() {
            assert_eq!(a.annotation(leaf).delta_cm, 0.0);
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::mvpp::Mvpp;
    use mvdesign_algebra::{AttrRef, Expr, JoinCondition};
    use mvdesign_catalog::{AttrType, Catalog};
    use mvdesign_cost::{CardinalityEstimator, CostEstimator, EstimationMode, PaperCostModel};

    fn setup() -> (Catalog, Mvpp) {
        let mut c = Catalog::new();
        for name in ["A", "B"] {
            c.relation(name)
                .attr("k", AttrType::Int)
                .records(10_000.0)
                .blocks(1_000.0)
                .update_frequency(2.0)
                .finish()
                .unwrap();
        }
        let join = Expr::join(
            Expr::base("A"),
            Expr::base("B"),
            JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k")),
        );
        // A finished MVPP keeps no class ids: any estimator annotates it.
        let classes = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let mut m = Mvpp::builder(&classes);
        m.insert_query("Q", 5.0, &join);
        let m = m.finish();
        (c, m)
    }

    #[test]
    fn incremental_policy_shrinks_cm_and_grows_weight() {
        let (c, m) = setup();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let rec = AnnotatedMvpp::annotate_with(
            m.clone(),
            &est,
            UpdateWeighting::Max,
            MaintenancePolicy::Recompute,
        );
        let inc = AnnotatedMvpp::annotate_with(
            m,
            &est,
            UpdateWeighting::Max,
            MaintenancePolicy::Incremental {
                update_fraction: 0.1,
            },
        );
        let v = rec.mvpp().interior()[0];
        assert!(inc.annotation(v).cm < rec.annotation(v).cm);
        assert!(inc.annotation(v).weight > rec.annotation(v).weight);
        // Ca itself is policy-independent.
        assert_eq!(inc.annotation(v).ca, rec.annotation(v).ca);
    }

    #[test]
    fn incremental_cm_is_the_cheaper_of_ca_and_delta_cm() {
        let (c, m) = setup();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        // At f = 0.25 the join's delta pass is cheaper than a rebuild; at
        // f = 1 its delta is the whole result, so it rebuilds.
        for (f, folds) in [(0.25, true), (1.0, false)] {
            let a = AnnotatedMvpp::annotate_with(
                m.clone(),
                &est,
                UpdateWeighting::Max,
                MaintenancePolicy::Incremental { update_fraction: f },
            );
            for v in a.mvpp().interior() {
                let ann = a.annotation(v);
                assert_eq!(ann.cm, ann.ca.min(ann.delta_cm), "f={f}");
                assert_eq!(ann.folds, ann.delta_cm < ann.ca, "f={f}");
                assert_eq!(ann.folds, folds, "f={f}");
                assert_eq!(ann.weight, ann.fq_weight * ann.ca - ann.fu_weight * ann.cm);
            }
        }
    }

    #[test]
    fn update_fraction_is_clamped() {
        let (c, m) = setup();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let at = |f: f64| {
            let a = AnnotatedMvpp::annotate_with(
                m.clone(),
                &est,
                UpdateWeighting::Max,
                MaintenancePolicy::Incremental { update_fraction: f },
            );
            (0..a.mvpp().len())
                .map(|i| *a.annotation(NodeId(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(at(7.0), at(1.0));
        assert_eq!(at(-1.0), at(0.0));
    }

    #[test]
    fn leaves_have_zero_cm_under_every_policy() {
        let (c, m) = setup();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        for policy in [
            MaintenancePolicy::Recompute,
            MaintenancePolicy::Incremental {
                update_fraction: 0.5,
            },
        ] {
            let a = AnnotatedMvpp::annotate_with(m.clone(), &est, UpdateWeighting::Max, policy);
            for leaf in a.mvpp().leaves() {
                assert_eq!(a.annotation(leaf).cm, 0.0, "{policy:?}");
            }
        }
    }
}
