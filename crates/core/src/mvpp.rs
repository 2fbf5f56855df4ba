//! The Multiple View Processing Plan: a DAG merging all query plans on
//! common subexpressions.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mvdesign_algebra::{Expr, ExprArena, ExprId, RelName};

/// Index of a node within an [`Mvpp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One vertex of the MVPP DAG.
#[derive(Debug, Clone)]
pub struct MvppNode {
    id: NodeId,
    expr: Arc<Expr>,
    expr_id: ExprId,
    children: Vec<NodeId>,
    parents: Vec<NodeId>,
    label: String,
}

impl MvppNode {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The full expression this node computes (its result relation `R(v)`).
    pub fn expr(&self) -> &Arc<Expr> {
        &self.expr
    }

    /// The node's semantic-equivalence class in [`Mvpp::arena`]. MVPP
    /// interning *is* arena interning: two nodes are shared iff their
    /// expressions landed on the same class.
    pub fn expr_id(&self) -> ExprId {
        self.expr_id
    }

    /// Direct inputs (`S(v)` in the paper).
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Direct consumers (`D(v)` in the paper).
    pub fn parents(&self) -> &[NodeId] {
        &self.parents
    }

    /// A human-readable label: the base relation name for leaves, `tmpN`
    /// for interior nodes (the paper's figures use the same convention).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether this is a leaf (base relation).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A Multiple View Processing Plan: the labelled DAG
/// `M = (V, A, R, Ca, Cm, fq, fu)` of the paper's §3.1 (the cost labels
/// `Ca`/`Cm` live in [`crate::AnnotatedMvpp`], computed against a catalog).
///
/// Structurally: every vertex corresponds to one relational-algebra
/// operation, leaf vertices are base relations, root vertices are the
/// warehouse queries. Vertices are shared whenever two plans compute the
/// same relation — the paper's common subexpressions. Sharing is decided by
/// an owned [`ExprArena`]: each vertex corresponds to exactly one interned
/// equivalence class ([`ExprId`]), so lookups are integer probes rather than
/// canonical-string builds ([`Expr::semantic_key`] renders the same classes
/// for debugging).
#[derive(Debug, Clone, Default)]
pub struct Mvpp {
    nodes: Vec<MvppNode>,
    roots: Vec<(String, f64, NodeId)>,
    arena: ExprArena,
    /// Node computing each arena class, indexed by [`ExprId`]; `None` for
    /// classes the arena knows but no vertex computes.
    node_of: Vec<Option<NodeId>>,
    /// How many interior nodes there are: the last `tmpN` given out.
    interior: usize,
}

impl Mvpp {
    /// Creates an empty MVPP.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a query plan, sharing every subexpression already present,
    /// and registers its root as a query node with frequency `fq`.
    ///
    /// Returns the root's node id. Inserting two queries with identical
    /// plans yields one shared root carrying both frequencies.
    pub fn insert_query(&mut self, name: impl Into<String>, fq: f64, plan: &Arc<Expr>) -> NodeId {
        let id = self.intern(plan);
        self.roots.push((name.into(), fq, id));
        id
    }

    /// Inserts an expression (and its whole subtree), sharing existing
    /// nodes; returns the node id computing it.
    pub fn intern(&mut self, expr: &Arc<Expr>) -> NodeId {
        let expr_id = self.arena.intern(expr);
        if self.node_of.len() < self.arena.len() {
            self.node_of.resize(self.arena.len(), None);
        }
        if let Some(id) = self.node_of[expr_id.index()] {
            return id;
        }
        let children: Vec<NodeId> = expr.children().iter().map(|c| self.intern(c)).collect();
        let id = NodeId(self.nodes.len());
        // Nodes only append, so the count of interior nodes so far numbers
        // this one for good: no label ever changes after it is given.
        let label = match &**expr {
            Expr::Base(r) => r.to_string(),
            _ => {
                self.interior += 1;
                format!("tmp{}", self.interior)
            }
        };
        self.nodes.push(MvppNode {
            id,
            expr: Arc::clone(expr),
            expr_id,
            children: children.clone(),
            parents: Vec::new(),
            label,
        });
        for c in children {
            self.nodes[c.0].parents.push(id);
        }
        self.node_of[expr_id.index()] = Some(id);
        id
    }

    /// All nodes, in insertion (= topological) order.
    pub fn nodes(&self) -> &[MvppNode] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this MVPP.
    pub fn node(&self, id: NodeId) -> &MvppNode {
        &self.nodes[id.0]
    }

    /// Looks up the node computing an expression, if present. Non-mutating:
    /// probes the arena without interning new classes.
    pub fn find(&self, expr: &Arc<Expr>) -> Option<NodeId> {
        let expr_id = self.arena.lookup(expr)?;
        self.node_of.get(expr_id.index()).copied().flatten()
    }

    /// The interner deciding node sharing. Every node's
    /// [`MvppNode::expr_id`] indexes into this arena.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The query roots: `(name, fq, node)` triples in insertion order.
    pub fn roots(&self) -> &[(String, f64, NodeId)] {
        &self.roots
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all leaves (base relations), in topological order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all interior (non-leaf) nodes, in topological order.
    pub fn interior(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.id)
            .collect()
    }

    /// The paper's `S*{v}`: all descendants of `v` (transitive inputs),
    /// excluding `v` itself.
    pub fn descendants(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut stack = self.nodes[v.0].children.clone();
        while let Some(n) = stack.pop() {
            if out.insert(n) {
                stack.extend(self.nodes[n.0].children.iter().copied());
            }
        }
        out
    }

    /// The paper's `D*{v}`: all ancestors of `v` (transitive consumers),
    /// excluding `v` itself.
    pub fn ancestors(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        let mut stack = self.nodes[v.0].parents.clone();
        while let Some(n) = stack.pop() {
            if out.insert(n) {
                stack.extend(self.nodes[n.0].parents.iter().copied());
            }
        }
        out
    }

    /// The paper's `O_v`: indices into [`Mvpp::roots`] of the queries that
    /// use `v` (including queries rooted exactly at `v`).
    pub fn queries_using(&self, v: NodeId) -> Vec<usize> {
        let ancestors = self.ancestors(v);
        self.roots
            .iter()
            .enumerate()
            .filter(|(_, (_, _, root))| *root == v || ancestors.contains(root))
            .map(|(i, _)| i)
            .collect()
    }

    /// The paper's `I_v`: names of the base relations below `v`.
    pub fn base_inputs(&self, v: NodeId) -> BTreeSet<RelName> {
        self.nodes[v.0].expr.base_relations()
    }

    /// Whether `u` and `v` lie on one root-to-leaf branch (one is an
    /// ancestor of the other) — the paper's "same branch" pruning relation.
    pub fn same_branch(&self, u: NodeId, v: NodeId) -> bool {
        u == v || self.ancestors(u).contains(&v) || self.ancestors(v).contains(&u)
    }

    /// Renders the DAG as Graphviz DOT with query roots as ellipses.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=BT;");
        for n in &self.nodes {
            let shape = if n.is_leaf() { "box" } else { "plaintext" };
            let _ = writeln!(
                out,
                "  {} [label=\"{}: {}\", shape={shape}];",
                n.id,
                n.label,
                n.expr.op_label().replace('"', "\\\"")
            );
        }
        for n in &self.nodes {
            for c in &n.children {
                let _ = writeln!(out, "  {} -> {};", c, n.id);
            }
        }
        for (i, (name, fq, root)) in self.roots.iter().enumerate() {
            let _ = writeln!(out, "  q{i} [label=\"{name} (fq={fq})\", shape=ellipse];");
            let _ = writeln!(out, "  {root} -> q{i};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate};

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

    fn q2_plan() -> Arc<Expr> {
        Expr::join(
            tmp2(),
            Expr::base("Pt"),
            JoinCondition::on(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
        )
    }

    /// Builds the paper's Figure 2(b): Q1 and Q2 sharing tmp1/tmp2.
    fn fig2b() -> Mvpp {
        let mut m = Mvpp::new();
        m.insert_query("Q1", 10.0, &tmp2());
        m.insert_query("Q2", 0.5, &q2_plan());
        m
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let m = fig2b();
        // Nodes: Pd, Div, σ, ⋈(tmp2), Pt, ⋈(tmp3) — tmp2 shared, not duplicated.
        assert_eq!(m.len(), 6);
        assert_eq!(m.roots().len(), 2);
        let tmp2_id = m.find(&tmp2()).unwrap();
        // tmp2 feeds both Q1 (as root) and Q2's join.
        assert_eq!(m.queries_using(tmp2_id), vec![0, 1]);
    }

    #[test]
    fn join_commutativity_shares_nodes() {
        let mut m = Mvpp::new();
        let a = Expr::join(Expr::base("A"), Expr::base("B"), JoinCondition::cross());
        let b = Expr::join(Expr::base("B"), Expr::base("A"), JoinCondition::cross());
        let ia = m.intern(&a);
        let ib = m.intern(&b);
        assert_eq!(ia, ib);
    }

    #[test]
    fn descendants_and_ancestors() {
        let m = fig2b();
        let tmp2_id = m.find(&tmp2()).unwrap();
        let desc = m.descendants(tmp2_id);
        assert_eq!(desc.len(), 3); // Pd, Div, σ
        let anc = m.ancestors(tmp2_id);
        assert_eq!(anc.len(), 1); // Q2's join
        let div = m.find(&Expr::base("Div")).unwrap();
        assert!(m.descendants(div).is_empty());
        assert_eq!(m.ancestors(div).len(), 3); // σ, tmp2, tmp3
    }

    #[test]
    fn base_inputs_reports_iv() {
        let m = fig2b();
        let tmp2_id = m.find(&tmp2()).unwrap();
        let iv: Vec<_> = m.base_inputs(tmp2_id).into_iter().collect();
        assert_eq!(iv.len(), 2);
    }

    #[test]
    fn same_branch_detection() {
        let m = fig2b();
        let tmp2_id = m.find(&tmp2()).unwrap();
        let div = m.find(&Expr::base("Div")).unwrap();
        let pt = m.find(&Expr::base("Pt")).unwrap();
        assert!(m.same_branch(tmp2_id, div));
        assert!(m.same_branch(div, tmp2_id));
        assert!(!m.same_branch(div, pt));
    }

    #[test]
    fn labels_follow_paper_convention() {
        let m = fig2b();
        let labels: Vec<&str> = m.nodes().iter().map(MvppNode::label).collect();
        assert!(labels.contains(&"Div"));
        assert!(labels.contains(&"tmp1"));
        assert!(labels.contains(&"tmp3"));
    }

    #[test]
    fn labels_count_interior_nodes_in_insertion_order_and_never_change() {
        let labels =
            |m: &Mvpp| -> Vec<String> { m.nodes().iter().map(|n| n.label().to_string()).collect() };
        let mut m = Mvpp::new();
        m.insert_query("Q1", 10.0, &tmp2());
        let before = labels(&m);
        assert_eq!(before, ["Pd", "Div", "tmp1", "tmp2"]);
        // A later query appends nodes and numbers them on from the count;
        // re-inserting a plan already there adds nothing.
        m.insert_query("Q2", 0.5, &q2_plan());
        m.insert_query("Q3", 1.0, &tmp2());
        assert_eq!(labels(&m)[..before.len()], before);
        assert_eq!(labels(&m)[before.len()..], ["Pt", "tmp3"]);
    }

    #[test]
    fn identical_queries_share_a_root() {
        let mut m = Mvpp::new();
        let r1 = m.insert_query("Q1", 1.0, &tmp2());
        let r2 = m.insert_query("Q2", 2.0, &tmp2());
        assert_eq!(r1, r2);
        assert_eq!(m.queries_using(r1).len(), 2);
    }

    #[test]
    fn leaves_and_interior_partition_nodes() {
        let m = fig2b();
        assert_eq!(m.leaves().len() + m.interior().len(), m.len());
        assert_eq!(m.leaves().len(), 3);
    }

    #[test]
    fn dot_output_mentions_queries() {
        let dot = fig2b().to_dot("fig2b");
        assert!(dot.contains("Q1 (fq=10)"));
        assert!(dot.contains("rankdir=BT"));
    }
}
