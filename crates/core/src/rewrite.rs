//! Answering queries *from* the materialized views: rewrite an expression
//! so the parts of it a registered view can answer become scans of the
//! stored view.
//!
//! This closes the loop the paper's architecture (Figure 1) implies: after
//! the design phase decides what to materialize, the warehouse must route
//! incoming queries — including *ad hoc* ones that were not in the design
//! workload — through the stored views.
//!
//! # How a node is matched
//!
//! [`ViewCatalog::route`] first classifies every node of the expression
//! once, children first ([`ExprArena::classify`]): a node's class comes
//! from its children's, and a node no view subexpression shares costs one
//! hash probe and no allocation. It then walks the expression top-down,
//! reading that table, and tries, at every node, in this order:
//!
//! 1. **Exact class.** The node's interned [`ExprArena`] class equals a
//!    view's: the node becomes a scan of the view, under a reordering π when
//!    the view stores its columns in another order than the node lists them
//!    (classes compare attribute and aggregate lists as sets).
//! 2. **Containment.** Only at π/γ-rooted nodes (whose output attribute list
//!    can be read off the expression, so the replacement provably has the
//!    same header) and only when nothing beneath the node is an exact hit
//!    (a plan that already contains stored views verbatim — the designer's
//!    merged plans — keeps them and its own shape). Node and views are
//!    compared in the optimizer's pulled-up normal form
//!    ([`mvdesign_optimizer::pull_up`]): a pure join tree over base
//!    relations, one conjoined predicate, an optional outer π/γ. Interior
//!    projections are dropped — they are bag projections and cannot change
//!    multiplicities — but what a view *stores* is read off its definition.
//!    * A **γ-view** over relations `S` ⊆ the node's answers a γ-node when
//!      the node's join pairs inside `S` equal the view's, its conjuncts
//!      over `S` and the view's predicate imply each other, and its group
//!      keys, crossing join pairs and conjuncts above `S` read from `S` only
//!      the view's group keys. Over the same relations and keys the view
//!      is scanned; otherwise the node becomes
//!      `γ[keys; rolled up](σ(scan V ⋈ uncovered relations))`, each
//!      aggregate re-aggregated by [`AggExpr::rolled_up`] (SUM→SUM,
//!      COUNT→SUM of counts, MIN/MAX; AVG refuses) — eager aggregation.
//!      Members of one view group carry the same keys, so they meet the
//!      same rows of the uncovered relations, and summing the groups'
//!      partials over those matches sums the rows'.
//!    * Otherwise **SPJ views** cover disjoint subsets `S` of the node's
//!      relations: the node's join pairs inside `S` equal the view's, its
//!      conjuncts local to `S` imply the view's predicate
//!      ([`Predicate::implies`]) and the view keeps every `S`-attribute the
//!      node uses above it. The node becomes
//!      `π/γ(σ_spanning(σ_residual(scan V) ⋈ … ⋈ σ_local(R) …))`, covers
//!      chosen widest first, then by fewest estimated blocks.
//! 3. **Children.** Otherwise the node is kept and its children are routed.
//!
//! Every refusal is conservative: an undecided implication, a repeated
//! relation name, an aggregate the algebra cannot re-derive or an opaque
//! (aggregated) join leaf leaves the node as it was and says why
//! ([`MissReason`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mvdesign_algebra::{
    AggExpr, AttrRef, Classes, Expr, ExprArena, ExprId, JoinCondition, Predicate, RelName,
};
use mvdesign_optimizer::pull_up;

use crate::designer::DesignResult;

/// A registry of materialized views: a stored name per view definition.
///
/// A query node is answered from a view when it is in the view's interned
/// semantic class ([`ExprArena`]: equal up to join commutativity and
/// associativity and predicate normalisation) or when the view *contains*
/// it and a residual selection, projection, re-aggregation or join to the
/// uncovered relations compensates for the difference — see the module
/// documentation for the rules.
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: Vec<(RelName, Arc<Expr>)>,
    /// What matching needs to know about each view, parallel to `views`.
    sigs: Vec<ViewSig>,
    arena: ExprArena,
    /// View index per arena class, indexed by [`mvdesign_algebra::ExprId`];
    /// `None` for classes interned only as view subexpressions.
    view_of: Vec<Option<usize>>,
    /// Views with a normal form, under the smallest relation they read: a
    /// node over relations `R` finds every view reading a subset of `R` by
    /// probing each member of `R`.
    by_relation: HashMap<RelName, Vec<usize>>,
}

/// One output column of an expression, as far as its syntax tells.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Col {
    /// Every attribute of a bare base relation, in catalog order.
    Whole(RelName),
    /// One listed attribute.
    One(AttrRef),
}

/// The output columns of `expr`, left to right.
fn columns(expr: &Expr, out: &mut Vec<Col>) {
    match expr {
        Expr::Base(r) => out.push(Col::Whole(r.clone())),
        Expr::Select { input, .. } => columns(input, out),
        Expr::Project { attrs, .. } => out.extend(attrs.iter().cloned().map(Col::One)),
        Expr::Aggregate { group_by, aggs, .. } => {
            out.extend(gamma_output(group_by, aggs).into_iter().map(Col::One));
        }
        Expr::Join { left, right, .. } => {
            columns(left, out);
            columns(right, out);
        }
    }
}

/// The attribute list, when every column is a listed one.
fn listed(cols: &[Col]) -> Option<Vec<AttrRef>> {
    cols.iter()
        .map(|c| match c {
            Col::One(a) => Some(a.clone()),
            Col::Whole(_) => None,
        })
        .collect()
}

fn keeps(cols: &[Col], attr: &AttrRef) -> bool {
    cols.iter().any(|c| match c {
        Col::Whole(r) => *r == attr.relation,
        Col::One(a) => a == attr,
    })
}

/// A γ's output header: group keys, then aggregate outputs.
fn gamma_output(group_by: &[AttrRef], aggs: &[AggExpr]) -> Vec<AttrRef> {
    group_by
        .iter()
        .cloned()
        .chain(aggs.iter().map(AggExpr::output_attr))
        .collect()
}

/// An expression in pulled-up normal form, flattened for set comparison.
#[derive(Debug, Clone)]
struct Core {
    /// Base relations of the join tree, sorted, each read once.
    relations: Vec<RelName>,
    /// Every equi-join pair of the tree, normalised and sorted.
    pairs: Vec<(AttrRef, AttrRef)>,
    /// Conjunction of every selection in the expression.
    predicate: Predicate,
    projection: Option<Vec<AttrRef>>,
    aggregate: Option<(Vec<AttrRef>, Vec<AggExpr>)>,
}

impl Core {
    /// The normal form of `expr`, or why it has none.
    fn of(expr: &Arc<Expr>) -> Result<Self, MissReason> {
        fn flatten(
            e: &Expr,
            relations: &mut Vec<RelName>,
            pairs: &mut Vec<(AttrRef, AttrRef)>,
        ) -> Result<(), MissReason> {
            match e {
                Expr::Base(r) => relations.push(r.clone()),
                Expr::Join { left, right, on } => {
                    pairs.extend_from_slice(on.pairs());
                    flatten(left, relations, pairs)?;
                    flatten(right, relations, pairs)?;
                }
                // `pull_up` leaves only an aggregation it could not peel.
                _ => return Err(MissReason::InteriorAggregate),
            }
            Ok(())
        }
        let pulled = pull_up(expr);
        let mut relations = Vec::new();
        let mut pairs = Vec::new();
        flatten(&pulled.join_tree, &mut relations, &mut pairs)?;
        // Each condition's pairs are normalised: their sorted, de-duplicated
        // union is the merged condition.
        pairs.sort();
        pairs.dedup();
        relations.sort();
        if let Some(w) = relations.windows(2).find(|w| w[0] == w[1]) {
            return Err(MissReason::RepeatedRelation(w[0].clone()));
        }
        // Compensation re-derives every join from the pair set, so each
        // pair must link two different relations of the tree.
        let links = |a: &AttrRef, b: &AttrRef| {
            a.relation != b.relation
                && relations.contains(&a.relation)
                && relations.contains(&b.relation)
        };
        if !pairs.iter().all(|(a, b)| links(a, b)) {
            return Err(MissReason::JoinMismatch);
        }
        Ok(Self {
            relations,
            pairs,
            predicate: pulled.predicate,
            projection: pulled.projection,
            aggregate: pulled.aggregate,
        })
    }

    fn reads(&self, attr: &AttrRef) -> bool {
        self.relations.contains(&attr.relation)
    }
}

#[derive(Debug, Clone)]
struct ViewSig {
    /// The stored table's columns, in stored order.
    columns: Vec<Col>,
    /// `None` when the definition has no normal form (repeated relation,
    /// aggregated join leaf): such a view answers exact hits only.
    core: Option<Core>,
    /// Estimated size, when the view came out of a design.
    blocks: Option<f64>,
}

/// Why a view did or did not answer one node of a routed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The node is in the view's semantic class: a bare scan (under a
    /// reordering π when the stored column order differs).
    Exact(RelName),
    /// The view contains (part of) the node and the plan compensates.
    Compensated {
        /// The view scanned.
        view: RelName,
        /// Selection applied to the scan (`True` when none is needed).
        residual: Predicate,
        /// Whether the view's groups are rolled up by a second γ.
        reaggregated: bool,
    },
    /// A refusal: `view` could not answer the node, or — with no view
    /// named — the node itself cannot be matched by containment.
    Miss {
        /// The refused candidate.
        view: Option<RelName>,
        /// The rule that refused it.
        reason: MissReason,
    },
}

impl Decision {
    /// The view this decision scans; `None` for a [`Decision::Miss`].
    pub fn scanned(&self) -> Option<&RelName> {
        match self {
            Decision::Exact(view) | Decision::Compensated { view, .. } => Some(view),
            Decision::Miss { .. } => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Exact(view) => write!(f, "hit {view}: exact class"),
            Decision::Compensated {
                view,
                residual,
                reaggregated,
            } => {
                write!(f, "hit {view}: contained")?;
                if !residual.is_true() {
                    write!(f, ", residual σ[{residual}]")?;
                }
                if *reaggregated {
                    f.write_str(", re-aggregated")?;
                }
                Ok(())
            }
            Decision::Miss {
                view: Some(view),
                reason,
            } => write!(f, "miss {view}: {reason}"),
            Decision::Miss { view: None, reason } => write!(f, "miss: {reason}"),
        }
    }
}

/// The rule that kept a view from answering a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissReason {
    /// No registered view reads a subset of the node's relations.
    NoCandidate,
    /// The node lists no output attributes (a bare join or `SELECT *`), so
    /// a replacement with the same header cannot be built without a catalog.
    OutputUnknown,
    /// The node reads this relation more than once; attribute names alone
    /// no longer tell the occurrences apart.
    RepeatedRelation(RelName),
    /// A join leaf is itself an aggregation.
    InteriorAggregate,
    /// The node's conjuncts over the view's relations do not (provably)
    /// imply the view's predicate — or, for an aggregated view, the view's
    /// do not imply the node's: its groups hold rows the node filters out.
    PredicateNotImplied,
    /// The node uses this attribute above the view, which does not store it
    /// (for an aggregated view: does not group by it).
    AttributeNotKept(AttrRef),
    /// The node joins the view's relations on other pairs than the view.
    JoinMismatch,
    /// The view stores the aggregate under another alias than the node asks.
    AliasMismatch(AttrRef),
    /// A roll-up needs this aggregate, which cannot be derived from the
    /// view's groups (`AVG`, an aggregate the view does not store, or one
    /// over a relation the view does not read).
    NotDecomposable(AttrRef),
    /// The view is aggregated and the node is not: rows cannot be recovered
    /// from groups.
    AggregatedView,
    /// An exact hit whose stored column order differs from the node's, with
    /// no attribute list to reorder by and no π/γ above to restore it.
    ColumnOrder,
}

impl fmt::Display for MissReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissReason::NoCandidate => f.write_str("no view reads a subset of these relations"),
            MissReason::OutputUnknown => f.write_str("the query lists no output attributes"),
            MissReason::RepeatedRelation(r) => write!(f, "{r} is read more than once"),
            MissReason::InteriorAggregate => f.write_str("a join input is an aggregation"),
            MissReason::PredicateNotImplied => {
                f.write_str("the query's predicate is not shown to fit the view's")
            }
            MissReason::AttributeNotKept(a) => write!(f, "{a} is needed but not stored"),
            MissReason::JoinMismatch => f.write_str("the join pairs differ"),
            MissReason::AliasMismatch(a) => write!(f, "{a} is stored under another alias"),
            MissReason::NotDecomposable(a) => {
                write!(f, "{a} cannot be derived from the view's groups")
            }
            MissReason::AggregatedView => {
                f.write_str("the view is aggregated and the query is not")
            }
            MissReason::ColumnOrder => f.write_str("stored column order differs"),
        }
    }
}

/// A routed expression and how each part of it was decided.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The expression to execute over base tables plus stored views.
    pub plan: Arc<Expr>,
    /// One entry per view scan in `plan` and one per refusal met on the
    /// way, in the order the walk took them.
    pub decisions: Vec<Decision>,
}

/// What one walk collects: always the number of view scans, the decisions
/// only when the caller wants them.
struct Trace {
    scans: usize,
    decisions: Option<Vec<Decision>>,
}

impl Trace {
    fn new(decisions: bool) -> Self {
        Self {
            scans: 0,
            decisions: decisions.then(Vec::new),
        }
    }

    fn hit(&mut self, decision: impl FnOnce() -> Decision) {
        self.scans += 1;
        if let Some(log) = &mut self.decisions {
            log.push(decision());
        }
    }

    fn miss(&mut self, view: Option<&RelName>, reason: MissReason) {
        if let Some(log) = &mut self.decisions {
            log.push(Decision::Miss {
                view: view.cloned(),
                reason,
            });
        }
    }
}

impl ViewCatalog {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a view definition under a stored-table name.
    ///
    /// Returns `false` (and keeps the existing entry) when an equivalent
    /// view is already registered or the name is already taken.
    pub fn register(&mut self, name: impl Into<RelName>, definition: Arc<Expr>) -> bool {
        self.register_sized(name.into(), definition, None)
    }

    fn register_sized(
        &mut self,
        name: RelName,
        definition: Arc<Expr>,
        blocks: Option<f64>,
    ) -> bool {
        let id = self.arena.intern(&definition);
        if self.view_of.len() < self.arena.len() {
            self.view_of.resize(self.arena.len(), None);
        }
        if self.view_of[id.index()].is_some() || self.views.iter().any(|(n, _)| *n == name) {
            return false;
        }
        let index = self.views.len();
        self.view_of[id.index()] = Some(index);
        let core = Core::of(&definition).ok();
        if let Some(first) = core.as_ref().and_then(|c| c.relations.first()) {
            self.by_relation
                .entry(first.clone())
                .or_default()
                .push(index);
        }
        let mut cols = Vec::new();
        columns(&definition, &mut cols);
        self.sigs.push(ViewSig {
            columns: cols,
            core,
            blocks,
        });
        self.views.push((name, definition));
        true
    }

    /// Builds a registry from a finished design, naming each view after its
    /// MVPP node label (`tmp2`, `tmp7`, …) and remembering the node's
    /// estimated size for choosing among views that cover the same query.
    pub fn from_design(design: &DesignResult) -> Self {
        let mut out = Self::new();
        for id in &design.materialized {
            let node = design.mvpp.mvpp().node(*id);
            let blocks = design.mvpp.annotation(*id).stats.blocks;
            out.register_sized(node.label().into(), Arc::clone(node.expr()), Some(blocks));
        }
        out
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[(RelName, Arc<Expr>)] {
        &self.views
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Rewrites `expr` so every part of it a registered view can answer
    /// reads the stored view instead — [`ViewCatalog::route`] without the
    /// decisions.
    ///
    /// A view scan is a [`Expr::Base`] leaf named after the view; the
    /// stored table keeps the original qualified attributes, so operators
    /// above the replacement still resolve (the engine looks attributes up
    /// by name, not by table). Every replaced node keeps its attribute list
    /// and order. Returns the input unchanged when nothing matches.
    pub fn rewrite(&self, expr: &Arc<Expr>) -> Arc<Expr> {
        self.route_tree(expr, &mut Trace::new(false))
    }

    /// How many view scans [`ViewCatalog::rewrite`] introduces.
    pub fn match_count(&self, expr: &Arc<Expr>) -> usize {
        let mut trace = Trace::new(false);
        self.route_tree(expr, &mut trace);
        trace.scans
    }

    /// Routes `expr` through the views and reports why each part of it hit
    /// or missed: one [`Decision`] per view scan in the plan and one per
    /// refusal.
    pub fn route(&self, expr: &Arc<Expr>) -> Routed {
        let mut trace = Trace::new(true);
        let plan = self.route_tree(expr, &mut trace);
        if trace.scans == 0 && !lists_output(expr) && !self.is_empty() {
            trace.miss(None, MissReason::OutputUnknown);
        }
        Routed {
            plan,
            decisions: trace.decisions.unwrap_or_default(),
        }
    }

    /// Classifies every node of `expr` once, children first, then routes
    /// it top down reading those classes.
    fn route_tree(&self, expr: &Arc<Expr>, trace: &mut Trace) -> Arc<Expr> {
        if self.is_empty() {
            return Arc::clone(expr);
        }
        let classes = self.arena.classify(expr);
        self.walk(expr, classes.root(), &classes, true, trace)
    }

    fn name(&self, view: usize) -> &RelName {
        &self.views[view].0
    }

    fn scan(&self, view: usize) -> Arc<Expr> {
        Expr::base(self.name(view).clone())
    }

    /// The view stored for `class`, if any.
    fn view(&self, class: Option<ExprId>) -> Option<usize> {
        *self.view_of.get(class?.index())?
    }

    /// Routes node `node` of `classes`, which is `expr`. `ordered` says the
    /// node's column order reaches the caller: no π or γ above restores it
    /// by name.
    fn walk(
        &self,
        expr: &Arc<Expr>,
        node: usize,
        classes: &Classes,
        ordered: bool,
        trace: &mut Trace,
    ) -> Arc<Expr> {
        if let Some(plan) = self.exact(expr, classes.class(node), ordered, trace) {
            return plan;
        }
        let lists = lists_output(expr);
        // Containment only where nothing beneath is an exact hit.
        if lists && classes.below(node).all(|c| self.view(c).is_none()) {
            if let Some(plan) = self.contain(expr, trace) {
                return plan;
            }
        }
        let ordered = ordered && !lists;
        let mut at = classes.children(node);
        let mut route = |child: &Arc<Expr>, trace: &mut Trace| {
            let node = at.next().expect("one slot per child");
            let plan = self.walk(child, node, classes, ordered, trace);
            (!Arc::ptr_eq(&plan, child)).then_some(plan)
        };
        match &**expr {
            Expr::Base(_) => None,
            Expr::Select { input, predicate } => route(input, trace).map(|input| {
                Arc::new(Expr::Select {
                    input,
                    predicate: predicate.clone(),
                })
            }),
            Expr::Project { input, attrs } => {
                route(input, trace).map(|input| Expr::project(input, attrs.clone()))
            }
            Expr::Aggregate {
                input,
                group_by,
                aggs,
            } => route(input, trace)
                .map(|input| Expr::aggregate(input, group_by.clone(), aggs.clone())),
            Expr::Join { left, right, on } => {
                let (l, r) = (route(left, trace), route(right, trace));
                (l.is_some() || r.is_some()).then(|| {
                    let l = l.unwrap_or_else(|| Arc::clone(left));
                    let r = r.unwrap_or_else(|| Arc::clone(right));
                    Expr::join(l, r, on.clone())
                })
            }
        }
        .unwrap_or_else(|| Arc::clone(expr))
    }

    /// Step 1: the node is in a view's class.
    fn exact(
        &self,
        expr: &Arc<Expr>,
        class: Option<ExprId>,
        ordered: bool,
        trace: &mut Trace,
    ) -> Option<Arc<Expr>> {
        let view = self.view(class)?;
        let scan = self.scan(view);
        let plan = if Arc::ptr_eq(expr, &self.views[view].1) {
            scan
        } else {
            let mut cols = Vec::new();
            columns(expr, &mut cols);
            if cols == self.sigs[view].columns {
                scan
            } else if let Some(attrs) = listed(&cols) {
                Expr::project(scan, attrs)
            } else if !ordered {
                scan
            } else {
                trace.miss(Some(self.name(view)), MissReason::ColumnOrder);
                return None;
            }
        };
        trace.hit(|| Decision::Exact(self.name(view).clone()));
        Some(plan)
    }

    /// Step 2: views that contain the π/γ-rooted node, with compensation.
    fn contain(&self, expr: &Arc<Expr>, trace: &mut Trace) -> Option<Arc<Expr>> {
        let node = match Core::of(expr) {
            Ok(node) => node,
            Err(reason) => {
                trace.miss(None, reason);
                return None;
            }
        };
        let candidates: Vec<(usize, &Core)> = node
            .relations
            .iter()
            .filter_map(|r| self.by_relation.get(r))
            .flatten()
            .filter_map(|&v| Some(v).zip(self.sigs[v].core.as_ref()))
            .filter(|(_, core)| core.relations.iter().all(|r| node.relations.contains(r)))
            .collect();
        if candidates.is_empty() {
            trace.miss(None, MissReason::NoCandidate);
            return None;
        }

        let mut covers = Vec::new();
        for &(v, core) in &candidates {
            if core.aggregate.is_some() {
                let stored = listed(&self.sigs[v].columns).expect("a γ-view lists its output");
                match groups_answer(&node, core, &stored, self.scan(v)) {
                    Ok((plan, reaggregated)) => {
                        trace.hit(|| Decision::Compensated {
                            view: self.name(v).clone(),
                            residual: Predicate::True,
                            reaggregated,
                        });
                        return Some(plan);
                    }
                    Err(reason) => trace.miss(Some(self.name(v)), reason),
                }
            } else {
                match self.covers(&node, v, core) {
                    Ok(residual) => covers.push((v, core, residual)),
                    Err(reason) => trace.miss(Some(self.name(v)), reason),
                }
            }
        }
        // Widest cover first (every covered relation is a join not run),
        // then the smallest stored table, then registration order.
        let size = |v: usize| self.sigs[v].blocks.unwrap_or(f64::INFINITY);
        covers.sort_by(|(a, ac, _), (b, bc, _)| {
            (bc.relations.len().cmp(&ac.relations.len()))
                .then(size(*a).total_cmp(&size(*b)))
                .then(a.cmp(b))
        });
        let mut parts: Vec<Part> = Vec::new();
        for (v, core, residual) in covers {
            let free = |r| parts.iter().all(|p: &Part| !p.relations.contains(r));
            if core.relations.iter().all(free) {
                trace.hit(|| Decision::Compensated {
                    view: self.name(v).clone(),
                    residual: residual.clone(),
                    reaggregated: false,
                });
                parts.push(Part {
                    plan: Expr::select(self.scan(v), residual),
                    relations: core.relations.clone(),
                    stored: listed(&self.sigs[v].columns),
                });
            }
        }
        if parts.is_empty() {
            return None;
        }
        Some(assemble(&node, parts, None))
    }

    /// Whether SPJ view `v` answers the node's relations `S = core.relations`;
    /// the selection still to apply to its scan when it does.
    fn covers(&self, node: &Core, v: usize, core: &Core) -> Result<Predicate, MissReason> {
        let inside = |(a, b): &&(AttrRef, AttrRef)| core.reads(a) && core.reads(b);
        if !node.pairs.iter().filter(inside).eq(core.pairs.iter()) {
            return Err(MissReason::JoinMismatch);
        }
        // Attributes of `S` the node uses above the view scan.
        let mut needed: Vec<&AttrRef> = Vec::new();
        let mut local = Vec::new();
        for conjunct in node.predicate.conjuncts() {
            let attrs = conjunct.attrs();
            if attrs.iter().all(|a| core.reads(a)) {
                local.push(conjunct);
            } else {
                needed.extend(attrs);
            }
        }
        if !Predicate::and(local.iter().map(|&c| c.clone())).implies(&core.predicate) {
            return Err(MissReason::PredicateNotImplied);
        }
        local.retain(|c| !core.predicate.implies(c));
        needed.extend(local.iter().flat_map(|c| c.attrs()));
        // Pairs inside `S` are the view's own; the crossing ones join its
        // scan to the rest.
        let crossing = node.pairs.iter().filter(|p| !inside(p));
        needed.extend(crossing.flat_map(|(a, b)| [a, b]));
        match &node.aggregate {
            Some((keys, aggs)) => {
                needed.extend(keys);
                needed.extend(aggs.iter().filter_map(|a| a.input.as_ref()));
            }
            None => needed.extend(node.projection.iter().flatten()),
        }
        let columns = &self.sigs[v].columns;
        match needed
            .into_iter()
            .find(|a| core.reads(a) && !keeps(columns, a))
        {
            Some(lost) => Err(MissReason::AttributeNotKept(lost.clone())),
            None => Ok(Predicate::and(local.into_iter().cloned())),
        }
    }
}

/// The plan answering the γ-node `expr` from the γ-view `view`, read through
/// `scan`: the rule [`ViewCatalog::route`] applies to a registered γ-view,
/// for a view that is not stored yet (the designer's roll-up candidates,
/// which it reads through their own definition).
pub(crate) fn answer_from_groups(
    expr: &Arc<Expr>,
    view: &Arc<Expr>,
    scan: Arc<Expr>,
) -> Result<Arc<Expr>, MissReason> {
    let node = Core::of(expr)?;
    let core = Core::of(view)?;
    if !core.relations.iter().all(|r| node.relations.contains(r)) {
        return Err(MissReason::NoCandidate);
    }
    let mut stored = Vec::new();
    columns(view, &mut stored);
    let stored = listed(&stored).ok_or(MissReason::OutputUnknown)?;
    groups_answer(&node, &core, &stored, scan).map(|(plan, _)| plan)
}

/// Whether the γ-view with normal form `core` over relations `S` (a subset
/// of the node's), storing the columns `stored` and read through `scan`,
/// answers the γ-node: by the scan itself when `S` is all of the node's
/// relations and the group keys are equal, otherwise by rolling its groups
/// up ([`AggExpr::rolled_up`]), joined first to the relations it does not
/// cover (eager aggregation). Returns the plan and whether it
/// re-aggregates.
///
/// Every member of a view group carries the same group keys. When every
/// crossing join pair and every conjunct above `S` reads only keys from `S`,
/// all members of a group therefore meet the same rows of the other
/// relations: a SUM or COUNT over the (row, other rows) pairs is the sum of
/// the stored partials over the (group, other rows) pairs, and MIN/MAX do
/// not see duplicates. No uniqueness of the other side's join key is
/// needed. The view's groups cannot be filtered below their keys, so the
/// node's conjuncts over `S` must select exactly the view's rows.
fn groups_answer(
    node: &Core,
    core: &Core,
    stored: &[AttrRef],
    scan: Arc<Expr>,
) -> Result<(Arc<Expr>, bool), MissReason> {
    let (Some((keys, aggs)), Some((view_keys, view_aggs))) = (&node.aggregate, &core.aggregate)
    else {
        return Err(MissReason::AggregatedView);
    };
    let inside = |(a, b): &&(AttrRef, AttrRef)| core.reads(a) && core.reads(b);
    if !node.pairs.iter().filter(inside).eq(core.pairs.iter()) {
        return Err(MissReason::JoinMismatch);
    }
    let (local, above): (Vec<&Predicate>, Vec<&Predicate>) = node
        .predicate
        .conjuncts()
        .iter()
        .partition(|c| c.attrs().iter().all(|a| core.reads(a)));
    let local = Predicate::and(local.into_iter().cloned());
    if !(local.implies(&core.predicate) && core.predicate.implies(&local)) {
        return Err(MissReason::PredicateNotImplied);
    }
    // What the node reads from `S` above the view: its group keys and what
    // the crossing pairs and the conjuncts above `S` compare.
    let crossing = node.pairs.iter().filter(|p| !inside(p));
    let read_above = keys
        .iter()
        .chain(crossing.flat_map(|(a, b)| [a, b]))
        .chain(above.iter().flat_map(|c| c.attrs()));
    if let Some(lost) = read_above
        .filter(|a| core.reads(a))
        .find(|a| !(view_keys.contains(a) && stored.contains(a)))
    {
        return Err(MissReason::AttributeNotKept(lost.clone()));
    }
    let roll_up = core.relations != node.relations || !view_keys.iter().all(|k| keys.contains(k));
    let mut rolled = Vec::new();
    for agg in aggs {
        let out = agg.output_attr();
        let same_source = |s: &&AggExpr| s.func == agg.func && s.input == agg.input;
        let re_agg = agg.rolled_up();
        if roll_up && re_agg.is_none() {
            return Err(MissReason::NotDecomposable(out));
        }
        if !view_aggs.contains(agg) {
            return Err(match view_aggs.iter().find(same_source) {
                Some(_) => MissReason::AliasMismatch(out),
                None if roll_up => MissReason::NotDecomposable(out),
                None => MissReason::AttributeNotKept(out),
            });
        }
        if !stored.contains(&out) {
            return Err(MissReason::AttributeNotKept(out));
        }
        rolled.extend(re_agg);
    }
    if !roll_up {
        let want = match &node.projection {
            Some(attrs) => attrs.clone(),
            None => gamma_output(keys, aggs),
        };
        return Ok((project_unless(scan, want, Some(stored)), false));
    }
    let view = Part {
        plan: scan,
        relations: core.relations.clone(),
        stored: None,
    };
    Ok((assemble(node, vec![view], Some(rolled)), true))
}

/// Whether the node's output attribute list can be read off the expression.
fn lists_output(expr: &Expr) -> bool {
    matches!(expr, Expr::Project { .. } | Expr::Aggregate { .. })
}

fn project_unless(plan: Arc<Expr>, want: Vec<AttrRef>, have: Option<&[AttrRef]>) -> Arc<Expr> {
    if have == Some(&want[..]) {
        plan
    } else {
        Expr::project(plan, want)
    }
}

/// One input of a compensated join: a view scan or an uncovered relation.
struct Part {
    plan: Arc<Expr>,
    relations: Vec<RelName>,
    /// The plan's header, when known (a view that lists its columns).
    stored: Option<Vec<AttrRef>>,
}

impl Part {
    fn reads(&self, attr: &AttrRef) -> bool {
        self.relations.contains(&attr.relation)
    }
}

/// Joins the covers (given, widest first) to the node's uncovered relations
/// and re-applies what the node does above its join tree: its own
/// aggregates, or `rolled` when the covers store partial ones. The first
/// cover stays leftmost: the hash join builds on its right input.
fn assemble(node: &Core, mut parts: Vec<Part>, rolled: Option<Vec<AggExpr>>) -> Arc<Expr> {
    let covered = parts.len();
    for r in &node.relations {
        if parts.iter().all(|p| !p.relations.contains(r)) {
            parts.push(Part {
                plan: Expr::base(r.clone()),
                relations: vec![r.clone()],
                stored: None,
            });
        }
    }
    // Conjuncts inside a cover are already in its residual (or implied by
    // the view); the others go to their one relation or stay on top.
    let mut spanning = Vec::new();
    for conjunct in node.predicate.conjuncts() {
        let attrs = conjunct.attrs();
        let home = |p: &Part| attrs.iter().all(|a| p.reads(a));
        match parts.iter().position(home) {
            Some(k) if k < covered => {}
            Some(k) => parts[k].plan = Expr::select(Arc::clone(&parts[k].plan), conjunct.clone()),
            None => spanning.push(conjunct.clone()),
        }
    }
    let mut parts = parts.into_iter();
    let mut joined = parts.next().expect("at least one cover");
    let mut rest: Vec<Part> = parts.collect();
    while !rest.is_empty() {
        let links = |p: &Part, (a, b): &(AttrRef, AttrRef)| {
            (joined.reads(a) && p.reads(b)) || (joined.reads(b) && p.reads(a))
        };
        // Prefer an input some pair connects; a true cross product last.
        let k = rest
            .iter()
            .position(|p| node.pairs.iter().any(|pair| links(p, pair)))
            .unwrap_or(0);
        let on = JoinCondition::new(
            node.pairs
                .iter()
                .filter(|pair| links(&rest[k], pair))
                .cloned(),
        );
        let next = rest.remove(k);
        joined.plan = Expr::join(joined.plan, next.plan, on);
        joined.relations.extend(next.relations);
        joined.stored = None;
    }
    let core = Expr::select(joined.plan, Predicate::and(spanning));
    match &node.aggregate {
        Some((keys, aggs)) => {
            let plan = Expr::aggregate(core, keys.clone(), rolled.unwrap_or_else(|| aggs.clone()));
            let want = match &node.projection {
                Some(attrs) => attrs.clone(),
                None => return plan,
            };
            project_unless(plan, want, Some(&gamma_output(keys, aggs)))
        }
        None => {
            let want = node.projection.clone().expect("a π-node lists its output");
            project_unless(core, want, joined.stored.as_deref())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate};

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

    #[test]
    fn exact_match_replaces_whole_expression() {
        let mut v = ViewCatalog::new();
        assert!(v.register("v_tmp2", tmp2()));
        let rewritten = v.rewrite(&tmp2());
        assert_eq!(rewritten.to_string(), "v_tmp2");
    }

    #[test]
    fn matching_is_semantic_not_syntactic() {
        let mut v = ViewCatalog::new();
        v.register("v", tmp2());
        // Commuted join — different tree, same relation.
        let commuted = Expr::join(
            Expr::select(
                Expr::base("Div"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
            ),
            Expr::base("Pd"),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        );
        assert!(v.view(v.arena.lookup(&commuted)).is_some());
    }

    #[test]
    fn subexpression_is_replaced_inside_larger_query() {
        let mut v = ViewCatalog::new();
        v.register("v_tmp2", tmp2());
        let bigger = Expr::project(
            Expr::join(
                tmp2(),
                Expr::base("Pt"),
                JoinCondition::on(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
            ),
            [AttrRef::new("Pt", "name")],
        );
        assert_eq!(v.match_count(&bigger), 1);
        let rewritten = v.rewrite(&bigger);
        assert!(rewritten.to_string().contains("v_tmp2"), "{rewritten}");
        assert!(!rewritten.to_string().contains("Div"), "{rewritten}");
    }

    #[test]
    fn no_match_returns_input_unchanged() {
        let v = ViewCatalog::new();
        let e = tmp2();
        let out = v.rewrite(&e);
        assert!(Arc::ptr_eq(&out, &e));
        assert_eq!(v.match_count(&e), 0);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut v = ViewCatalog::new();
        assert!(v.register("a", tmp2()));
        assert!(!v.register("b", tmp2()));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn a_taken_name_is_rejected_for_a_different_definition() {
        let mut v = ViewCatalog::new();
        assert!(v.register("a", tmp2()));
        assert!(!v.register("a", Expr::base("Pd")));
        assert_eq!(v.len(), 1);
        assert_eq!(v.views()[0].1, tmp2());
        // The refused definition does not route to the name either.
        assert_eq!(v.match_count(&Expr::base("Pd")), 0);
    }

    #[test]
    fn a_commuted_bare_join_keeps_its_own_column_order() {
        let mut v = ViewCatalog::new();
        v.register("v", tmp2());
        let la = Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA");
        let commuted = Expr::join(
            Expr::select(Expr::base("Div"), la),
            Expr::base("Pd"),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        );
        // At the root nothing restores the order Div.*, Pd.* and there is
        // no attribute list to reorder the scan by: the view is refused …
        let routed = v.route(&commuted);
        assert!(Arc::ptr_eq(&routed.plan, &commuted));
        assert!(routed.decisions.contains(&Decision::Miss {
            view: Some("v".into()),
            reason: MissReason::ColumnOrder,
        }));
        // … under a projection the order is restored by name.
        let listed = Expr::project(commuted, [AttrRef::new("Pd", "name")]);
        assert_eq!(v.rewrite(&listed).to_string(), "π[Pd.name](v)");
    }
}
