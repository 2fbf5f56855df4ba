//! Heuristic push-down rewrites: selections toward the leaves, projections
//! inserted above the leaves.

use std::collections::BTreeSet;
use std::sync::Arc;

use mvdesign_algebra::{output_attrs, AttrRef, Expr, Predicate, RelName};
use mvdesign_catalog::Catalog;

/// Pushes every selection as far down the tree as possible.
///
/// A conjunct moves below a join when all of its attributes come from one
/// side; conjuncts spanning both sides (or disjunctions mixing sides) stay
/// above the join. The rewrite never changes the relation computed.
pub fn push_selections(expr: &Arc<Expr>) -> Arc<Expr> {
    push(expr, Predicate::True)
}

fn push(expr: &Arc<Expr>, pending: Predicate) -> Arc<Expr> {
    match &**expr {
        Expr::Base(_) => Expr::select(Arc::clone(expr), pending),
        Expr::Select { input, predicate } => {
            push(input, Predicate::and([pending, predicate.clone()]))
        }
        Expr::Project { input, attrs } => {
            // Every attribute `pending` mentions is visible below the π
            // (it was visible above, and π only narrows).
            Expr::project(push(input, pending), attrs.clone())
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Selections arriving from above may reference aggregate
            // outputs, so they stay above the γ; the γ's input is pushed
            // independently.
            let rebuilt =
                Expr::aggregate(push(input, Predicate::True), group_by.clone(), aggs.clone());
            Expr::select(rebuilt, pending)
        }
        Expr::Join { left, right, on } => {
            let lrels = left.base_relations();
            let rrels = right.base_relations();
            let (mut to_left, mut to_right, mut stay) = (Vec::new(), Vec::new(), Vec::new());
            for conjunct in pending.conjuncts() {
                let reads = |rels: &BTreeSet<RelName>| {
                    conjunct.attrs().iter().any(|a| rels.contains(&a.relation))
                };
                match (reads(&lrels), reads(&rrels)) {
                    (true, false) => to_left.push(conjunct.clone()),
                    (false, true) => to_right.push(conjunct.clone()),
                    // Spanning, or referencing neither side (dangling
                    // attribute — keep it where it was so schema inference
                    // can report it).
                    _ => stay.push(conjunct.clone()),
                }
            }
            let joined = Expr::join(
                push(left, Predicate::and(to_left)),
                push(right, Predicate::and(to_right)),
                on.clone(),
            );
            Expr::select(joined, Predicate::and(stay))
        }
    }
}

/// Inserts projections directly above each leaf (and below each join) so
/// only attributes needed further up — for predicates, join conditions and
/// the final output — are carried.
///
/// Needs the catalog to know each base relation's full attribute list.
/// Subtrees whose schemas fail to infer are returned unchanged.
pub fn push_projections(expr: &Arc<Expr>, catalog: &Catalog) -> Arc<Expr> {
    let Ok(out) = output_attrs(expr, catalog) else {
        return Arc::clone(expr);
    };
    let needed: BTreeSet<AttrRef> = out.into_iter().collect();
    narrow(expr, &needed, catalog)
}

fn narrow(expr: &Arc<Expr>, needed: &BTreeSet<AttrRef>, catalog: &Catalog) -> Arc<Expr> {
    match &**expr {
        Expr::Base(name) => {
            let Some(schema) = catalog.schema(name.as_str()) else {
                return Arc::clone(expr);
            };
            let keep: Vec<AttrRef> = schema
                .attributes()
                .iter()
                .map(|a| AttrRef::new(name.clone(), a.name.clone()))
                .filter(|a| needed.contains(a))
                .collect();
            if keep.len() == schema.arity() || keep.is_empty() {
                Arc::clone(expr)
            } else {
                Expr::project(Arc::clone(expr), keep)
            }
        }
        Expr::Select { input, predicate } => {
            let mut below = needed.clone();
            below.extend(predicate.attrs().into_iter().cloned());
            Expr::select(narrow(input, &below, catalog), predicate.clone())
        }
        Expr::Project { input, attrs } => {
            // The projection itself defines what is needed below.
            let below: BTreeSet<AttrRef> = attrs.iter().cloned().collect();
            Expr::project(narrow(input, &below, catalog), attrs.clone())
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut below: BTreeSet<AttrRef> = group_by.iter().cloned().collect();
            below.extend(aggs.iter().filter_map(|a| a.input.clone()));
            Expr::aggregate(
                narrow(input, &below, catalog),
                group_by.clone(),
                aggs.clone(),
            )
        }
        Expr::Join { left, right, on } => {
            let mut below = needed.clone();
            for (a, b) in on.pairs() {
                below.insert(a.clone());
                below.insert(b.clone());
            }
            let side = |input: &Arc<Expr>| {
                let rels = input.base_relations();
                let need = below.iter().filter(|a| rels.contains(&a.relation));
                narrow(input, &need.cloned().collect(), catalog)
            };
            Expr::join(side(left), side(right), on.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{parse_query_with, CompareOp, JoinCondition};
    use mvdesign_catalog::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Pd")
            .attr("Pid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .finish()
            .unwrap();
        c.relation("Div")
            .attr("Did", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c
    }

    #[test]
    fn selection_moves_below_join() {
        let c = catalog();
        let q = parse_query_with(
            "SELECT Pd.name FROM Pd, Div WHERE Div.city = 'LA' AND Pd.Did = Div.Did",
            &c,
        )
        .unwrap();
        let pushed = push_selections(&q);
        // The σ city='LA' must now sit directly on Div.
        let mut found = false;
        mvdesign_algebra::postorder(&pushed, &mut |n| {
            if let Expr::Select { input, predicate } = &**n {
                if input.is_base() {
                    assert_eq!(predicate.to_string(), "Div.city='LA'");
                    found = true;
                }
            }
        });
        assert!(found, "pushed plan: {pushed}");
    }

    #[test]
    fn spanning_predicate_stays_above_join() {
        let j = Expr::join(Expr::base("A"), Expr::base("B"), JoinCondition::cross());
        let span = Predicate::Cmp(mvdesign_algebra::Comparison {
            attr: AttrRef::new("A", "x"),
            op: CompareOp::Lt,
            rhs: mvdesign_algebra::Rhs::Attr(AttrRef::new("B", "y")),
        });
        let e = Expr::select(j, span.clone());
        let pushed = push_selections(&e);
        match &*pushed {
            Expr::Select { predicate, input } => {
                assert_eq!(*predicate, span);
                assert!(matches!(&**input, Expr::Join { .. }));
            }
            other => panic!("expected top-level select, got {other}"),
        }
    }

    #[test]
    fn push_down_preserves_semantic_key_of_selected_base() {
        // σ over base is already as low as possible: idempotent.
        let e = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        assert_eq!(push_selections(&e).semantic_key(), e.semantic_key());
    }

    #[test]
    fn projections_narrow_wide_leaves() {
        let c = catalog();
        let q = parse_query_with(
            "SELECT Pd.name FROM Pd, Div WHERE Div.city = 'LA' AND Pd.Did = Div.Did",
            &c,
        )
        .unwrap();
        let narrowed = push_projections(&push_selections(&q), &c);
        // Pd should be narrowed to {name, Did}: Pid is never used.
        let mut ok = false;
        mvdesign_algebra::postorder(&narrowed, &mut |n| {
            if let Expr::Project { input, attrs } = &**n {
                if input.is_base() && input.base_relations().contains("Pd") {
                    assert_eq!(attrs.len(), 2);
                    assert!(attrs.contains(&AttrRef::new("Pd", "name")));
                    assert!(attrs.contains(&AttrRef::new("Pd", "Did")));
                    ok = true;
                }
            }
        });
        assert!(ok, "narrowed plan: {narrowed}");
        // Output schema is unchanged.
        assert_eq!(
            output_attrs(&narrowed, &c).unwrap(),
            output_attrs(&q, &c).unwrap()
        );
    }

    #[test]
    fn projection_pushdown_skips_unknown_schemas() {
        let c = catalog();
        let e = Expr::base("Ghost");
        let out = push_projections(&e, &c);
        assert!(Arc::ptr_eq(&out, &e));
    }
}
