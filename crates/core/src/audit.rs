//! Self-auditing correctness layer (C-AUDIT): structural MVPP validation,
//! rewrite coverage checks, and differential cost oracles.
//!
//! Three families of checks keep the pipeline honest:
//!
//! 1. **Structural invariants** ([`validate_mvpp`], [`validate_schemas`]):
//!    every MVPP produced by construction or rewriting must be acyclic with
//!    children inserted before parents, have leaves that are exactly base
//!    relations, roots that are exactly query nodes (every parentless node
//!    is a root), unique semantic keys (interning soundness), expression
//!    edges that agree with graph edges, and schemas that infer cleanly at
//!    every node — which in particular proves every pushed-down projection
//!    union still covers all of its consumers.
//! 2. **Rewrite coverage** ([`check_query_rewrite`]): a rewritten query plan
//!    must read the same base relations, produce the same output schema and
//!    preserve every predicate atom of the original; conjunctive atoms that
//!    appear from nowhere (a silent *strengthening*) are rejected, while new
//!    atoms inside pushed-down disjunctions (which only widen a shared leaf)
//!    are allowed.
//! 3. **Differential cost oracles** ([`check_cost_paths`],
//!    [`check_greedy_trace`], [`reference_greedy`], [`greedy_no_prune`]):
//!    [`evaluate`], [`evaluate_set`] and the [`IncrementalEvaluator`] must
//!    agree *to the last bit* on any materialization choice — under either
//!    maintenance policy — and the greedy's incremental `Cs` bookkeeping
//!    must equal savings recomputed from scratch with the slow
//!    `BTreeSet`-based traversals.
//!
//! Violations are collected into an [`AuditReport`] instead of panicking so a
//! single audit pass can surface every problem at once.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mvdesign_algebra::{output_attrs, Expr, ExprArena, Predicate};
use mvdesign_catalog::Catalog;

use crate::annotate::AnnotatedMvpp;
use crate::evaluate::{evaluate, evaluate_set, CostBreakdown, MaintenanceMode};
use crate::greedy::{GreedySelection, SelectionTrace, TraceStep, TraceVerdict};
use crate::incremental::IncrementalEvaluator;
use crate::mvpp::{Mvpp, NodeId};
use crate::nodeset::NodeSet;

/// One failed invariant: which check tripped and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Stable name of the check (e.g. `"acyclic"`, `"cost-paths"`).
    pub check: &'static str,
    /// What exactly went wrong, with node labels/ids where available.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// The outcome of an audit pass: empty means every invariant held.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty (passing) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation.
    pub fn push(&mut self, check: &'static str, detail: impl Into<String>) {
        self.violations.push(AuditViolation {
            check,
            detail: detail.into(),
        });
    }

    /// Absorbs another report's violations.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }

    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The collected violations.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Panics with every violation listed if the report is not clean.
    ///
    /// # Panics
    ///
    /// Panics when [`AuditReport::is_clean`] is false — the intended use in
    /// tests and the `repro audit` gate.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "audit failed for {context}:\n{}",
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("audit clean");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Validates the structural invariants of an MVPP graph.
///
/// Checked invariants:
///
/// - **children-first order** (implies acyclicity): every edge points from a
///   larger node id to a smaller one;
/// - **edge symmetry**: `c ∈ children(v)` iff `v ∈ parents(c)`;
/// - **leaves are exactly base relations**: a node has no children iff its
///   expression is [`Expr::Base`];
/// - **roots are exactly query nodes**: every root id is in range and every
///   parentless node is the root of some query (no orphans);
/// - **interning soundness**: no two nodes share a semantic key, and each
///   node's expression children match its graph children key-for-key;
/// - **frequency sanity**: every query frequency is finite and non-negative.
pub fn validate_mvpp(mvpp: &Mvpp) -> AuditReport {
    let mut report = AuditReport::new();
    let n = mvpp.len();

    let mut keys: BTreeSet<String> = BTreeSet::new();
    for node in mvpp.nodes() {
        let v = node.id();
        // Children-first insertion: child ids strictly below the parent's.
        for c in node.children() {
            if c.0 >= v.0 {
                report.push(
                    "acyclic",
                    format!(
                        "edge {} -> {} does not point to an earlier node",
                        mvpp.node(v).label(),
                        mvpp.node(*c).label()
                    ),
                );
            }
            if c.0 < n && !mvpp.node(*c).parents().contains(&v) {
                report.push(
                    "edge-symmetry",
                    format!(
                        "{} lists child {} which does not list it back as parent",
                        node.label(),
                        mvpp.node(*c).label()
                    ),
                );
            }
        }
        for p in node.parents() {
            if p.0 >= n || !mvpp.node(*p).children().contains(&v) {
                report.push(
                    "edge-symmetry",
                    format!(
                        "{} lists parent {:?} which does not list it back as child",
                        node.label(),
                        p
                    ),
                );
            }
        }
        // Leaves are exactly base relations.
        let is_base = matches!(&**node.expr(), Expr::Base(_));
        if node.is_leaf() != is_base || (node.children().is_empty() != is_base) {
            report.push(
                "leaves-are-bases",
                format!(
                    "{}: is_leaf={}, children={}, base={}",
                    node.label(),
                    node.is_leaf(),
                    node.children().len(),
                    is_base
                ),
            );
        }
        // Interning soundness: semantic keys unique.
        if !keys.insert(node.expr().semantic_key()) {
            report.push(
                "interning",
                format!("{}: duplicate semantic key", node.label()),
            );
        }
        // Expression edges agree with graph edges (as multisets of keys).
        let mut expr_keys: Vec<String> = node
            .expr()
            .children()
            .iter()
            .map(|c| c.semantic_key())
            .collect();
        let mut graph_keys: Vec<String> = node
            .children()
            .iter()
            .filter(|c| c.0 < n)
            .map(|c| mvpp.node(*c).expr().semantic_key())
            .collect();
        expr_keys.sort();
        expr_keys.dedup();
        graph_keys.sort();
        graph_keys.dedup();
        if expr_keys != graph_keys {
            report.push(
                "expr-edges",
                format!(
                    "{}: expression children do not match graph children",
                    node.label()
                ),
            );
        }
    }

    // Roots are exactly query nodes.
    let root_ids: BTreeSet<NodeId> = mvpp.roots().iter().map(|(_, _, r)| *r).collect();
    for (name, fq, r) in mvpp.roots() {
        if r.0 >= n {
            report.push("roots", format!("query {name} roots at out-of-range node"));
        }
        if !(fq.is_finite() && *fq >= 0.0) {
            report.push("frequency", format!("query {name} has frequency {fq}"));
        }
    }
    for node in mvpp.nodes() {
        if node.parents().is_empty() && !root_ids.contains(&node.id()) && !mvpp.is_empty() {
            report.push(
                "roots",
                format!("{} has no parents but roots no query", node.label()),
            );
        }
    }

    report
}

/// Validates that every node's schema infers cleanly against the catalog.
///
/// [`output_attrs`] walks each expression bottom-up and fails if any operator
/// references an attribute its input does not produce — so a clean pass here
/// proves, in particular, that every pushed-down projection union still
/// covers every consumer above it.
pub fn validate_schemas(mvpp: &Mvpp, catalog: &Catalog) -> AuditReport {
    let mut report = AuditReport::new();
    for node in mvpp.nodes() {
        if let Err(e) = output_attrs(node.expr(), catalog) {
            report.push(
                "schema",
                format!("{}: schema inference failed: {e}", node.label()),
            );
        }
    }
    report
}

/// Collects the rendered comparison atoms of every predicate in `expr`,
/// split into those that constrain the result conjunctively (`must`) and
/// those that only appear inside a disjunction (`any`).
fn predicate_atoms(expr: &Arc<Expr>, must: &mut BTreeSet<String>, any: &mut BTreeSet<String>) {
    fn atoms_of(p: &Predicate, top: bool, must: &mut BTreeSet<String>, any: &mut BTreeSet<String>) {
        match p {
            Predicate::True => {}
            Predicate::Cmp(c) => {
                if top {
                    must.insert(c.to_string());
                } else {
                    any.insert(c.to_string());
                }
            }
            Predicate::And(ps) => {
                for sub in ps {
                    atoms_of(sub, top, must, any);
                }
            }
            Predicate::Or(ps) => {
                for sub in ps {
                    atoms_of(sub, false, must, any);
                }
            }
        }
    }
    if let Expr::Select { predicate, .. } = &**expr {
        atoms_of(predicate, true, must, any);
    }
    for child in expr.children() {
        predicate_atoms(child, must, any);
    }
}

/// Checks that a rewritten query plan is a faithful stand-in for the
/// original.
///
/// Invariants:
///
/// - the rewritten plan reads exactly the original's base relations;
/// - it produces the same output schema (same attributes, same order);
/// - **no predicate atom is lost**: every comparison of the original occurs
///   somewhere in the rewrite (select-pushdown may move it into a shared
///   disjunction, but may not drop it);
/// - **no conjunctive strengthening is invented**: every atom the rewrite
///   applies conjunctively already existed in the original. New atoms are
///   only tolerated inside disjunctions, where merging another query's
///   predicate into a shared leaf can only *widen* the intermediate result.
pub fn check_query_rewrite(
    original: &Arc<Expr>,
    rewritten: &Arc<Expr>,
    catalog: &Catalog,
) -> AuditReport {
    let mut report = AuditReport::new();

    if original.base_relations() != rewritten.base_relations() {
        report.push(
            "rewrite-bases",
            format!(
                "base relations changed: {:?} -> {:?}",
                original.base_relations(),
                rewritten.base_relations()
            ),
        );
    }

    match (
        output_attrs(original, catalog),
        output_attrs(rewritten, catalog),
    ) {
        (Ok(a), Ok(b)) => {
            if a != b {
                report.push(
                    "rewrite-schema",
                    format!("output schema changed: {a:?} -> {b:?}"),
                );
            }
        }
        (Err(e), _) => report.push("rewrite-schema", format!("original does not infer: {e}")),
        (_, Err(e)) => report.push("rewrite-schema", format!("rewrite does not infer: {e}")),
    }

    let (mut orig_must, mut orig_any) = (BTreeSet::new(), BTreeSet::new());
    predicate_atoms(original, &mut orig_must, &mut orig_any);
    let (mut new_must, mut new_any) = (BTreeSet::new(), BTreeSet::new());
    predicate_atoms(rewritten, &mut new_must, &mut new_any);

    let orig_all: BTreeSet<&String> = orig_must.union(&orig_any).collect();
    let new_all: BTreeSet<&String> = new_must.union(&new_any).collect();
    for atom in &orig_all {
        if !new_all.contains(*atom) {
            report.push(
                "rewrite-atoms",
                format!("predicate atom {atom} lost in rewrite"),
            );
        }
    }
    for atom in &new_must {
        if !orig_all.contains(atom) {
            report.push(
                "rewrite-atoms",
                format!("rewrite conjunctively applies invented atom {atom}"),
            );
        }
    }

    report
}

/// Cross-checks the three in-core cost paths on each given materialization
/// choice: [`evaluate`] (BTreeSet walk), [`evaluate_set`] (bitset walk) and
/// the [`IncrementalEvaluator`] (both `set_frontier` and one-`flip`-at-a-time
/// routes) must agree **bit-for-bit** on every field of the breakdown.
pub fn check_cost_paths(
    a: &AnnotatedMvpp,
    choices: &[BTreeSet<NodeId>],
    mode: MaintenanceMode,
) -> AuditReport {
    let mut report = AuditReport::new();
    let capacity = a.mvpp().len();

    for m in choices {
        let reference = evaluate(a, m, mode);
        let set = NodeSet::from_ids(capacity, m.iter().copied());
        let via_set = evaluate_set(a, &set, mode);
        compare_breakdowns(&mut report, "evaluate_set", m, &reference, &via_set);

        let mut inc = IncrementalEvaluator::new(a, mode);
        inc.set_frontier(&set);
        compare_breakdowns(&mut report, "incremental", m, &reference, &inc.breakdown());
        if inc.total().to_bits() != reference.total.to_bits() {
            report.push(
                "cost-paths",
                format!(
                    "incremental total {} != evaluate total {} for {m:?}",
                    inc.total(),
                    reference.total
                ),
            );
        }

        // The flip route must land on the same totals no matter the order in
        // which the frontier was assembled.
        let mut flipper = IncrementalEvaluator::new(a, mode);
        let mut partial = BTreeSet::new();
        for v in m {
            let total = flipper.flip(*v);
            partial.insert(*v);
            let expect = evaluate(a, &partial, mode).total;
            if total.to_bits() != expect.to_bits() {
                report.push(
                    "cost-paths",
                    format!(
                        "flip route diverges at {partial:?}: {total} != {expect} (full set {m:?})"
                    ),
                );
                break;
            }
        }
    }

    report
}

fn compare_breakdowns(
    report: &mut AuditReport,
    path: &str,
    m: &BTreeSet<NodeId>,
    reference: &CostBreakdown,
    other: &CostBreakdown,
) {
    for (field, x, y) in [
        (
            "query_processing",
            reference.query_processing,
            other.query_processing,
        ),
        ("maintenance", reference.maintenance, other.maintenance),
        ("total", reference.total, other.total),
    ] {
        if x.to_bits() != y.to_bits() {
            report.push(
                "cost-paths",
                format!("{path}.{field} = {y} != evaluate.{field} = {x} for {m:?}"),
            );
        }
    }
}

/// An independent, deliberately slow re-implementation of the Figure-9
/// greedy: `BTreeSet`-based descendant walks instead of cached bitsets, and
/// an ancestor/descendant test instead of the precomputed same-branch check.
///
/// It prunes as the greedy does: only while no view folds deltas.
///
/// Returns the chosen set and the replayed trace; [`check_greedy_trace`]
/// asserts it matches [`GreedySelection`] step-for-step and bit-for-bit.
pub fn reference_greedy(a: &AnnotatedMvpp) -> (BTreeSet<NodeId>, SelectionTrace) {
    let folds = a.mvpp().nodes().iter().any(|n| a.annotation(n.id()).folds);
    run_reference(a, !folds)
}

/// The reference greedy with branch pruning disabled: rejected nodes remove
/// nothing from `LV`, so every candidate gets an explicit `Cs` evaluation.
///
/// The paper argues pruning is sound (a same-branch node with smaller weight
/// cannot profit once `v` was rejected); comparing this against the pruned
/// run makes that argument an executable property.
pub fn greedy_no_prune(a: &AnnotatedMvpp) -> (BTreeSet<NodeId>, SelectionTrace) {
    run_reference(a, false)
}

fn run_reference(a: &AnnotatedMvpp, prune: bool) -> (BTreeSet<NodeId>, SelectionTrace) {
    let mvpp = a.mvpp();
    // Re-derive LV independently: positive-weight interior nodes, weight
    // descending with ascending id as the tie-break.
    let mut lv: Vec<NodeId> = mvpp
        .interior()
        .into_iter()
        .filter(|v| a.annotation(*v).weight > 0.0)
        .collect();
    lv.sort_by(|x, y| {
        let wx = a.annotation(*x).weight;
        let wy = a.annotation(*y).weight;
        wy.total_cmp(&wx).then(x.0.cmp(&y.0))
    });

    let mut trace = SelectionTrace {
        initial_lv: lv.clone(),
        steps: Vec::new(),
    };
    let mut m: BTreeSet<NodeId> = BTreeSet::new();

    while !lv.is_empty() {
        let v = lv.remove(0);
        let node = mvpp.node(v);

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
        // From-scratch saving: BTreeSet::iter is ascending by id — the same
        // order as the cached bitset — so the sum must be bit-identical.
        let replicated: f64 = mvpp
            .descendants(v)
            .iter()
            .filter(|u| m.contains(u))
            .map(|u| a.annotation(*u).ca)
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
                let desc = mvpp.descendants(v);
                let anc = mvpp.ancestors(v);
                lv.iter()
                    .copied()
                    .filter(|w| desc.contains(w) || anc.contains(w))
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

    let redundant: Vec<NodeId> = m
        .iter()
        .copied()
        .filter(|v| {
            let parents = mvpp.node(*v).parents();
            !parents.is_empty()
                && parents.iter().all(|p| m.contains(p))
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

/// Replays [`GreedySelection`] against [`reference_greedy`] and checks the
/// trace invariants.
///
/// - the chosen sets and the step sequences must match exactly, with every
///   `Cs` **bit-identical** to the from-scratch recomputation;
/// - `Rejected { pruned }` may only prune nodes on the same branch as the
///   rejected node (verified with an independent ancestor/descendant walk);
/// - `SkippedParentsMaterialized` steps must actually have had all parents
///   materialized at that point.
pub fn check_greedy_trace(a: &AnnotatedMvpp) -> AuditReport {
    let mut report = AuditReport::new();
    let mvpp = a.mvpp();
    let (m, trace) = GreedySelection::new().run(a);
    let (ref_m, ref_trace) = reference_greedy(a);

    if m != ref_m {
        report.push(
            "greedy-replay",
            format!("greedy chose {m:?}, reference chose {ref_m:?}"),
        );
    }
    if trace.initial_lv != ref_trace.initial_lv {
        report.push(
            "greedy-replay",
            "initial LV differs from reference".to_string(),
        );
    }
    if trace.steps.len() != ref_trace.steps.len() {
        report.push(
            "greedy-replay",
            format!(
                "trace has {} steps, reference has {}",
                trace.steps.len(),
                ref_trace.steps.len()
            ),
        );
    }
    for (step, ref_step) in trace.steps.iter().zip(&ref_trace.steps) {
        if step.node != ref_step.node || step.verdict != ref_step.verdict {
            report.push(
                "greedy-replay",
                format!(
                    "step on {} diverges: {:?} vs reference {:?} on {}",
                    step.label, step.verdict, ref_step.verdict, ref_step.label
                ),
            );
            continue;
        }
        if step.cs.to_bits() != ref_step.cs.to_bits() {
            report.push(
                "greedy-cs",
                format!(
                    "Cs for {} = {} != from-scratch {}",
                    step.label, step.cs, ref_step.cs
                ),
            );
        }
    }

    // Trace invariants, independent of the reference run.
    let mut materialized: BTreeSet<NodeId> = BTreeSet::new();
    for step in &trace.steps {
        match &step.verdict {
            TraceVerdict::Materialized => {
                materialized.insert(step.node);
            }
            TraceVerdict::Rejected { pruned } => {
                let desc = mvpp.descendants(step.node);
                let anc = mvpp.ancestors(step.node);
                for p in pruned {
                    if !(desc.contains(p) || anc.contains(p)) {
                        report.push(
                            "greedy-prune",
                            format!(
                                "rejecting {} pruned {}, which is not on the same branch",
                                step.label,
                                mvpp.node(*p).label()
                            ),
                        );
                    }
                }
            }
            TraceVerdict::SkippedParentsMaterialized => {
                let parents = mvpp.node(step.node).parents();
                if parents.is_empty() || !parents.iter().all(|p| materialized.contains(p)) {
                    report.push(
                        "greedy-skip",
                        format!(
                            "{} skipped but its parents were not all materialized",
                            step.label
                        ),
                    );
                }
            }
            TraceVerdict::RemovedRedundant => {
                materialized.remove(&step.node);
            }
        }
    }

    report
}

/// Differential oracle for the expression interner.
///
/// Re-interns every MVPP node expression into a *fresh* [`ExprArena`] and
/// checks, pair by pair, that interned identity agrees with the independent
/// canonical-string oracle: `intern(a) == intern(b)` ⇔
/// `semantic_key(a) == semantic_key(b)`. Also checks that the arena's
/// memoized hash matches [`Expr::semantic_hash`], that [`Mvpp::find`]
/// resolves each node's expression back to that node, and — for every join —
/// that a freshly commuted copy lands on the same class (the positive
/// direction of the equivalence, which distinct MVPP nodes alone never
/// exercise).
pub fn check_arena(mvpp: &Mvpp) -> AuditReport {
    let mut report = AuditReport::new();
    let mut arena = ExprArena::new();
    let interned: Vec<_> = mvpp
        .nodes()
        .iter()
        .map(|n| (n, arena.intern(n.expr()), n.expr().semantic_key()))
        .collect();
    for (node, id, key) in &interned {
        if arena.semantic_hash(*id) != node.expr().semantic_hash() {
            report.push(
                "arena-hash",
                format!("{}: arena hash disagrees with semantic_hash", node.label()),
            );
        }
        if mvpp.find(node.expr()) != Some(node.id()) {
            report.push(
                "arena-find",
                format!("{}: the MVPP does not resolve the node", node.label()),
            );
        }
        if let Expr::Join { left, right, on } = &**node.expr() {
            let commuted = Expr::join(Arc::clone(right), Arc::clone(left), on.clone());
            if arena.intern(&commuted) != *id || commuted.semantic_key() != *key {
                report.push(
                    "arena-commute",
                    format!("{}: commuted join left its class", node.label()),
                );
            }
        }
    }
    for (i, (a, a_id, a_key)) in interned.iter().enumerate() {
        for (b, b_id, b_key) in &interned[i + 1..] {
            if (a_id == b_id) != (a_key == b_key) {
                report.push(
                    "arena-intern",
                    format!(
                        "{} vs {}: interned ids {} but semantic keys {}",
                        a.label(),
                        b.label(),
                        if a_id == b_id { "agree" } else { "differ" },
                        if a_key == b_key { "agree" } else { "differ" },
                    ),
                );
            }
        }
    }
    report
}

/// Runs the full in-core audit for one annotated MVPP: structural and schema
/// validation, the interner oracle, the greedy trace replay, and the
/// differential cost oracle on a standard set of materialization choices
/// (nothing, everything, each interior node alone, and the greedy's own
/// pick).
pub fn audit_annotated(a: &AnnotatedMvpp, catalog: &Catalog) -> AuditReport {
    let mut report = validate_mvpp(a.mvpp());
    report.merge(validate_schemas(a.mvpp(), catalog));
    report.merge(check_arena(a.mvpp()));
    report.merge(check_greedy_trace(a));

    let mut choices: Vec<BTreeSet<NodeId>> = Vec::new();
    choices.push(BTreeSet::new());
    choices.push(a.mvpp().interior().into_iter().collect());
    for v in a.mvpp().interior() {
        choices.push([v].into());
    }
    let (greedy_m, _) = GreedySelection::new().run(a);
    choices.push(greedy_m);
    for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
        report.merge(check_cost_paths(a, &choices, mode));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::UpdateWeighting;
    use crate::mvpp::Mvpp;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate};
    use mvdesign_catalog::AttrType;
    use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("A")
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .records(10_000.0)
            .blocks(1_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("B")
            .attr("k", AttrType::Int)
            .attr("y", AttrType::Int)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(2.0)
            .finish()
            .unwrap();
        c
    }

    fn annotated() -> (AnnotatedMvpp, Catalog) {
        annotated_with(crate::annotate::MaintenancePolicy::Recompute)
    }

    fn annotated_with(policy: crate::annotate::MaintenancePolicy) -> (AnnotatedMvpp, Catalog) {
        let c = catalog();
        let join = Expr::join(
            Expr::base("A"),
            Expr::base("B"),
            JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k")),
        );
        let filtered = Expr::select(
            join.clone(),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Gt, 5),
        );
        let narrow = Expr::select(
            Expr::base("B"),
            Predicate::cmp(AttrRef::new("B", "y"), CompareOp::Eq, 1),
        );
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", 10.0, &join);
        m.insert_query("Q2", 3.0, &filtered);
        m.insert_query("Q3", 4.0, &narrow);
        (
            AnnotatedMvpp::annotate_with(m.finish(), &est, UpdateWeighting::Max, policy),
            c,
        )
    }

    #[test]
    fn healthy_mvpp_audits_clean() {
        let (a, c) = annotated();
        audit_annotated(&a, &c).assert_clean("two-query join MVPP");
    }

    #[test]
    fn structural_validator_accepts_empty_mvpp() {
        assert!(validate_mvpp(&Mvpp::default()).is_clean());
    }

    #[test]
    fn rewrite_check_flags_lost_atom() {
        let c = catalog();
        let original = Expr::select(
            Expr::base("A"),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 1),
        );
        let rewritten = Expr::base("A");
        let report = check_query_rewrite(&original, &rewritten, &c);
        assert!(!report.is_clean());
        assert!(report
            .violations()
            .iter()
            .any(|v| v.check == "rewrite-atoms"));
    }

    #[test]
    fn rewrite_check_allows_widening_disjunction() {
        let c = catalog();
        let own = Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 1);
        let other = Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 2);
        let original = Expr::select(Expr::base("A"), own.clone());
        // Pushdown shape: shared leaf takes the disjunction, the query
        // re-applies its own predicate above.
        let rewritten = Expr::select(
            Expr::select(Expr::base("A"), Predicate::or([own, other])),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 1),
        );
        check_query_rewrite(&original, &rewritten, &c).assert_clean("widening disjunction");
    }

    #[test]
    fn rewrite_check_flags_invented_strengthening() {
        let c = catalog();
        let original = Expr::base("A");
        let rewritten = Expr::select(
            Expr::base("A"),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 7),
        );
        let report = check_query_rewrite(&original, &rewritten, &c);
        assert!(!report.is_clean());
    }

    #[test]
    fn cost_paths_agree_on_every_subset_here() {
        let (a, _) = annotated();
        let interior = a.mvpp().interior();
        // Exhaustive: all subsets of the (small) interior.
        let mut choices = Vec::new();
        for mask in 0u32..(1 << interior.len()) {
            let m: BTreeSet<NodeId> = interior
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| *v)
                .collect();
            choices.push(m);
        }
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            check_cost_paths(&a, &choices, mode).assert_clean("exhaustive subsets");
        }
    }

    #[test]
    fn greedy_trace_replays_bit_exactly() {
        let (a, _) = annotated();
        check_greedy_trace(&a).assert_clean("greedy replay");
    }

    #[test]
    fn policy_cost_paths_agree_on_every_subset_here() {
        // At an append fraction of one half the joins rebuild and the
        // selection over one relation folds.
        let (a, _) = annotated_with(crate::annotate::MaintenancePolicy::Incremental {
            update_fraction: 0.5,
        });
        let interior = a.mvpp().interior();
        assert!(
            interior.iter().any(|v| a.annotation(*v).folds)
                && interior.iter().any(|v| !a.annotation(*v).folds),
            "fixture: some views fold and some rebuild"
        );
        let interior = a.mvpp().interior();
        let mut choices = Vec::new();
        for mask in 0u32..(1 << interior.len()) {
            let m: BTreeSet<NodeId> = interior
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| *v)
                .collect();
            choices.push(m);
        }
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            check_cost_paths(&a, &choices, mode).assert_clean("policy subsets");
        }
    }
}
