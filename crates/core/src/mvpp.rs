//! The Multiple View Processing Plan: a DAG merging all query plans on
//! common subexpressions.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mvdesign_algebra::{Expr, ExprArena, ExprId, IntMap, RelName};
use mvdesign_cost::CardinalityEstimator;

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
    /// The memoized [`Expr::semantic_hash`] of `expr`.
    hash: u64,
    /// Direct inputs: the first `arity` (an operator has at most two).
    children: [NodeId; 2],
    arity: u8,
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

    /// Direct inputs (`S(v)` in the paper).
    pub fn children(&self) -> &[NodeId] {
        &self.children[..usize::from(self.arity)]
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
        self.arity == 0
    }
}

/// A Multiple View Processing Plan: the labelled DAG
/// `M = (V, A, R, Ca, Cm, fq, fu)` of the paper's §3.1 (the cost labels
/// `Ca`/`Cm` live in [`crate::AnnotatedMvpp`], computed against a catalog).
///
/// Structurally: every vertex corresponds to one relational-algebra
/// operation, leaf vertices are base relations, root vertices are the
/// warehouse queries. Vertices are shared whenever two plans compute the
/// same relation — the paper's common subexpressions. An [`MvppBuilder`]
/// decides the sharing: each vertex is one semantic-equivalence class
/// ([`ExprId`]) of the estimator it builds against, so the candidates of a
/// design call share one class table.
#[derive(Debug, Clone, Default)]
pub struct Mvpp {
    nodes: Vec<MvppNode>,
    roots: Vec<(String, f64, NodeId)>,
    /// How many interior nodes there are: the last `tmpN` given out.
    interior: usize,
}

/// Builds an [`Mvpp`] query by query, taking each node's class from the
/// class table of the estimator that costs the plans.
#[derive(Debug)]
pub struct MvppBuilder<'e> {
    classes: &'e CardinalityEstimator<'e>,
    mvpp: Mvpp,
    /// Node computing each class.
    node_of: IntMap<ExprId, NodeId>,
}

impl<'e> MvppBuilder<'e> {
    /// Inserts a query plan, sharing every subexpression already present,
    /// and registers its root as a query node with frequency `fq`.
    ///
    /// Returns the root's node id. Inserting two queries with identical
    /// plans yields one shared root carrying both frequencies.
    pub fn insert_query(&mut self, name: impl Into<String>, fq: f64, plan: &Arc<Expr>) -> NodeId {
        let classes = self.classes;
        let id = classes.with_classes(|arena| self.intern(arena, plan));
        self.mvpp.roots.push((name.into(), fq, id));
        id
    }

    /// Inserts an expression and its whole subtree, sharing existing nodes;
    /// returns the node computing it.
    fn intern(&mut self, arena: &mut ExprArena, expr: &Arc<Expr>) -> NodeId {
        let class = arena.intern(expr);
        if let Some(&id) = self.node_of.get(&class) {
            return id;
        }
        let mut children = [NodeId(0); 2];
        let mut arity = 0;
        for child in expr.child_iter() {
            children[usize::from(arity)] = self.intern(arena, child);
            arity += 1;
        }
        let nodes = &mut self.mvpp.nodes;
        let id = NodeId(nodes.len());
        // Nodes only append, so the count of interior nodes so far numbers
        // this one for good: no label ever changes after it is given.
        let label = match &**expr {
            Expr::Base(r) => r.to_string(),
            _ => {
                self.mvpp.interior += 1;
                format!("tmp{}", self.mvpp.interior)
            }
        };
        for c in &children[..usize::from(arity)] {
            nodes[c.0].parents.push(id);
        }
        nodes.push(MvppNode {
            id,
            expr: Arc::clone(expr),
            hash: arena.semantic_hash(class),
            children,
            arity,
            parents: Vec::new(),
            label,
        });
        self.node_of.insert(class, id);
        id
    }

    /// The MVPP built so far.
    pub fn mvpp(&self) -> &Mvpp {
        &self.mvpp
    }

    /// The finished MVPP.
    pub fn finish(self) -> Mvpp {
        self.mvpp
    }
}

impl Mvpp {
    /// An empty MVPP whose nodes will take their classes from `classes`.
    pub fn builder<'e>(classes: &'e CardinalityEstimator<'_>) -> MvppBuilder<'e> {
        MvppBuilder {
            classes,
            mvpp: Mvpp::default(),
            node_of: IntMap::default(),
        }
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

    /// Looks up the node computing an expression, if present: the node
    /// whose memoized semantic hash is the expression's, confirmed by
    /// [`Expr::semantic_key`]. Needs no class table.
    pub fn find(&self, expr: &Arc<Expr>) -> Option<NodeId> {
        let (hash, key) = (expr.semantic_hash(), expr.semantic_key());
        let mut same = self.nodes.iter().filter(|n| n.hash == hash);
        same.find(|n| n.expr.semantic_key() == key).map(|n| n.id)
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
        let mut stack = self.nodes[v.0].children().to_vec();
        while let Some(n) = stack.pop() {
            if out.insert(n) {
                stack.extend(self.nodes[n.0].children().iter().copied());
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
            for c in n.children() {
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
    use mvdesign_catalog::Catalog;
    use mvdesign_cost::EstimationMode;

    /// Classes are syntactic: an estimator over no catalog hands them out.
    fn build(queries: &[(&str, f64, Arc<Expr>)]) -> Mvpp {
        let catalog = Catalog::new();
        let classes = CardinalityEstimator::new(&catalog, EstimationMode::Analytic);
        let mut m = Mvpp::builder(&classes);
        for (name, fq, plan) in queries {
            m.insert_query(*name, *fq, plan);
        }
        m.finish()
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

    fn q2_plan() -> Arc<Expr> {
        Expr::join(
            tmp2(),
            Expr::base("Pt"),
            JoinCondition::on(AttrRef::new("Pt", "Pid"), AttrRef::new("Pd", "Pid")),
        )
    }

    /// Builds the paper's Figure 2(b): Q1 and Q2 sharing tmp1/tmp2.
    fn fig2b() -> Mvpp {
        build(&[("Q1", 10.0, tmp2()), ("Q2", 0.5, q2_plan())])
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
        let a = Expr::join(Expr::base("A"), Expr::base("B"), JoinCondition::cross());
        let b = Expr::join(Expr::base("B"), Expr::base("A"), JoinCondition::cross());
        let m = build(&[("Q1", 1.0, Arc::clone(&a)), ("Q2", 1.0, Arc::clone(&b))]);
        assert_eq!(m.roots()[0].2, m.roots()[1].2);
        assert_eq!(m.find(&a), m.find(&b));
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
        let catalog = Catalog::new();
        let classes = CardinalityEstimator::new(&catalog, EstimationMode::Analytic);
        let mut m = Mvpp::builder(&classes);
        m.insert_query("Q1", 10.0, &tmp2());
        let before = labels(m.mvpp());
        assert_eq!(before, ["Pd", "Div", "tmp1", "tmp2"]);
        // A later query appends nodes and numbers them on from the count;
        // re-inserting a plan already there adds nothing.
        m.insert_query("Q2", 0.5, &q2_plan());
        m.insert_query("Q3", 1.0, &tmp2());
        let m = m.finish();
        assert_eq!(labels(&m)[..before.len()], before);
        assert_eq!(labels(&m)[before.len()..], ["Pt", "tmp3"]);
    }

    #[test]
    fn identical_queries_share_a_root() {
        let m = build(&[("Q1", 1.0, tmp2()), ("Q2", 2.0, tmp2())]);
        let (r1, r2) = (m.roots()[0].2, m.roots()[1].2);
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
