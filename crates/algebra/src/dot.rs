//! Graphviz DOT rendering of expression trees.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::arena::{ExprArena, ExprId};
use crate::expr::Expr;

/// Renders one or more labelled expression trees as a Graphviz `digraph`.
///
/// Subtrees that are *semantically* identical (same [`ExprArena`] class,
/// i.e. equal [`Expr::semantic_key`]) are drawn once and shared, which
/// visualises the common subexpressions the MVPP merge will exploit — this
/// reproduces the shape of the paper's Figure 2(b). Share detection interns
/// every subtree once into a throwaway arena, so rendering is linear in the
/// DAG size instead of quadratic in string-key builds.
///
/// ```
/// use mvdesign_algebra::{dot_graph, Expr, JoinCondition};
///
/// let shared = Expr::base("Division");
/// let a = Expr::join(Expr::base("Product"), shared.clone(), JoinCondition::cross());
/// let dot = dot_graph("fig", &[("Q1".to_string(), a)]);
/// assert!(dot.contains("digraph fig"));
/// ```
pub fn dot_graph(name: &str, roots: &[(String, Arc<Expr>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=BT;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"Helvetica\"];");
    let mut arena = ExprArena::new();
    let mut ids: HashMap<ExprId, usize> = HashMap::new();
    let mut emitted_edges: Vec<(usize, usize)> = Vec::new();
    for (label, root) in roots {
        let root_id = emit(root, &mut arena, &mut ids, &mut emitted_edges, &mut out);
        let qid = format!("q_{}", sanitise(label));
        let _ = writeln!(out, "  {qid} [label=\"{label}\", shape=ellipse];");
        let _ = writeln!(out, "  n{root_id} -> {qid};");
    }
    out.push_str("}\n");
    out
}

fn emit(
    expr: &Arc<Expr>,
    arena: &mut ExprArena,
    ids: &mut HashMap<ExprId, usize>,
    edges: &mut Vec<(usize, usize)>,
    out: &mut String,
) -> usize {
    let class = arena.intern(expr);
    if let Some(&id) = ids.get(&class) {
        return id;
    }
    // Display ids stay in discovery (pre-)order, so the rendered output is
    // byte-identical to the historical string-keyed implementation.
    let id = ids.len();
    ids.insert(class, id);
    let shape = if expr.is_base() { "box" } else { "plaintext" };
    let _ = writeln!(
        out,
        "  n{id} [label=\"{}\", shape={shape}];",
        escape(&expr.op_label())
    );
    for child in expr.child_iter() {
        let cid = emit(child, arena, ids, edges, out);
        if !edges.contains(&(cid, id)) {
            edges.push((cid, id));
            let _ = writeln!(out, "  n{cid} -> n{id};");
        }
    }
    id
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn sanitise(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::JoinCondition;
    use crate::predicate::{CompareOp, Predicate};
    use mvdesign_catalog::AttrRef;

    #[test]
    fn shared_subtrees_are_emitted_once() {
        let tmp1 = Expr::select(
            Expr::base("Division"),
            Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "LA"),
        );
        let q1 = Expr::join(Expr::base("Product"), tmp1.clone(), JoinCondition::cross());
        let q2 = Expr::join(
            Expr::join(Expr::base("Product"), tmp1, JoinCondition::cross()),
            Expr::base("Part"),
            JoinCondition::cross(),
        );
        let dot = dot_graph("fig2b", &[("Q1".into(), q1), ("Q2".into(), q2)]);
        // The σ node appears exactly once even though both queries use it.
        let count = dot.matches("σ[Division.city='LA']").count();
        assert_eq!(count, 1, "dot output:\n{dot}");
        assert!(dot.contains("q_Q1"));
        assert!(dot.contains("q_Q2"));
    }

    #[test]
    fn quotes_are_escaped() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
