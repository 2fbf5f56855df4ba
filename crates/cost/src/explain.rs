//! Human-readable plan explanation: the expression tree with estimated
//! cardinalities and per-operator costs, in the style of `EXPLAIN`.

use std::fmt::Write as _;
use std::sync::Arc;

use mvdesign_algebra::Expr;

use crate::estimate::CostEstimator;
use crate::model::CostModel;

/// Renders a plan tree with one line per operator:
///
/// ```text
/// π[Product.name]                              rows=600 blocks=100 op=100 total=30700
/// └─ ⋈[Division.Did=Product.Did]               rows=600 blocks=100 op=30100 total=30600
///    ├─ Product                                rows=30000 blocks=3000
///    └─ σ[Division.city='LA']                  rows=100 blocks=10 op=500 total=500
///       └─ Division                            rows=5000 blocks=500
/// ```
///
/// `op` is the operator's own cost, `total` the cumulative `Ca` from the
/// base relations (shared subtrees counted once, as in an MVPP).
pub fn explain<M: CostModel>(expr: &Arc<Expr>, est: &CostEstimator<'_, M>) -> String {
    let mut out = String::new();
    render(expr, est, "", true, true, &mut out);
    out
}

fn render<M: CostModel>(
    expr: &Arc<Expr>,
    est: &CostEstimator<'_, M>,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    out: &mut String,
) {
    let stats = est.stats(expr);
    let label = expr.op_label();
    let connector = if is_root {
        ""
    } else if is_last {
        "└─ "
    } else {
        "├─ "
    };
    let head = format!("{prefix}{connector}{label}");
    let pad = if head.chars().count() < 44 {
        " ".repeat(44 - head.chars().count())
    } else {
        " ".to_string()
    };
    if expr.is_base() {
        let _ = writeln!(
            out,
            "{head}{pad}rows={:.0} blocks={:.0}",
            stats.records, stats.blocks
        );
    } else {
        let _ = writeln!(
            out,
            "{head}{pad}rows={:.0} blocks={:.0} op={:.0} total={:.0}",
            stats.records,
            stats.blocks,
            est.op_cost(expr),
            est.tree_cost(expr)
        );
    }
    let arity = expr.child_iter().count();
    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    for (i, child) in expr.child_iter().enumerate() {
        render(child, est, &child_prefix, i + 1 == arity, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimationMode;
    use crate::model::PaperCostModel;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate};
    use mvdesign_catalog::{AttrType, Catalog};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Pd")
            .attr("Pid", AttrType::Int)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .finish()
            .unwrap();
        c.relation("Div")
            .attr("Did", AttrType::Int)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.set_join_selectivity(
            AttrRef::new("Pd", "Did"),
            AttrRef::new("Div", "Did"),
            1.0 / 5_000.0,
        )
        .unwrap();
        c
    }

    #[test]
    fn explain_shows_every_operator_with_costs() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let plan = Expr::join(
            Expr::base("Pd"),
            Expr::select(
                Expr::base("Div"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
            ),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        );
        let text = explain(&plan, &est);
        assert!(text.contains("⋈[Div.Did=Pd.Did]"), "{text}");
        assert!(text.contains("σ[Div.city='LA']"), "{text}");
        assert!(text.contains("rows=5000 blocks=500"), "{text}");
        assert!(text.contains("op=500 total=500"), "{text}");
        // Four operators, four lines.
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn explain_indents_nested_children() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let plan = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        let text = explain(&plan, &est);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("σ"));
        assert!(lines[1].starts_with("└─ Div"));
    }
}
