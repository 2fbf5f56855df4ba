//! Traversal helpers for expression trees.

use std::sync::Arc;

use crate::expr::Expr;

/// Visits every node of the tree in post-order (children before parents).
///
/// ```
/// use mvdesign_algebra::{postorder, Expr};
///
/// let e = Expr::join(Expr::base("A"), Expr::base("B"),
///                    mvdesign_algebra::JoinCondition::cross());
/// let mut labels = Vec::new();
/// postorder(&e, &mut |n| labels.push(n.op_label()));
/// assert_eq!(labels, ["A", "B", "⋈[×]"]);
/// ```
pub fn postorder(expr: &Arc<Expr>, visit: &mut impl FnMut(&Arc<Expr>)) {
    for child in expr.child_iter() {
        postorder(child, visit);
    }
    visit(expr);
}

/// Collects every subexpression (including `expr` itself) in post-order.
pub fn collect_subexprs(expr: &Arc<Expr>) -> Vec<Arc<Expr>> {
    let mut out = Vec::new();
    postorder(expr, &mut |n| out.push(Arc::clone(n)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::JoinCondition;
    use crate::predicate::{CompareOp, Predicate};
    use mvdesign_catalog::AttrRef;

    #[test]
    fn postorder_visits_children_first() {
        let e = Expr::select(
            Expr::join(Expr::base("A"), Expr::base("B"), JoinCondition::cross()),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Gt, 1),
        );
        let all = collect_subexprs(&e);
        assert_eq!(all.len(), 4);
        assert!(all[0].is_base());
        assert!(all[1].is_base());
        assert!(matches!(&*all[2], Expr::Join { .. }));
        assert!(matches!(&*all[3], Expr::Select { .. }));
    }
}
