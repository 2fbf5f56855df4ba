//! Degenerate design problems for the correctness audit: empty relations,
//! zero frequencies, single-query MVPPs and duplicated subexpressions.
//!
//! Each case is a small, deterministic [`Scenario`] that historically broke
//! some part of the pipeline (NaN weights from empty relations panicked the
//! search truncation sort; zero-frequency queries exercise the `w(v) = 0`
//! boundary of the greedy; duplicate plans stress MVPP interning). The audit
//! harness runs every oracle over all of them.

use mvdesign_algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate, Query};
use mvdesign_catalog::{AttrType, Catalog};
use mvdesign_core::Workload;

use crate::paper::Scenario;

/// A [`Scenario`] with a name describing which edge case it exercises.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    /// Short kebab-case identifier (used in audit output and test names).
    pub name: &'static str,
    /// The catalog and workload of the case.
    pub scenario: Scenario,
}

fn two_relation_catalog(r_records: f64, r_blocks: f64) -> Catalog {
    let mut c = Catalog::new();
    c.relation("R")
        .attr("k", AttrType::Int)
        .attr("x", AttrType::Int)
        .records(r_records)
        .blocks(r_blocks)
        .update_frequency(1.0)
        .selectivity("x", 0.1)
        .finish()
        .expect("R is valid");
    c.relation("S")
        .attr("k", AttrType::Int)
        .attr("y", AttrType::Int)
        .records(5_000.0)
        .blocks(500.0)
        .update_frequency(2.0)
        .selectivity("y", 0.2)
        .finish()
        .expect("S is valid");
    c.set_join_selectivity(
        AttrRef::new("R", "k"),
        AttrRef::new("S", "k"),
        1.0 / 5_000.0,
    )
    .expect("join selectivity is valid");
    c
}

fn join_rs() -> std::sync::Arc<Expr> {
    Expr::join(
        Expr::base("R"),
        Expr::base("S"),
        JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
    )
}

/// An empty `(0 records, 0 blocks)` relation joined against a populated one.
///
/// Every annotation involving the empty side collapses to zero, which once
/// produced NaN node weights (`0·∞` style arithmetic) and panicked the
/// `partial_cmp(..).expect(..)` sorts in the search algorithms.
pub fn empty_relation() -> Scenario {
    let catalog = two_relation_catalog(0.0, 0.0);
    let q = Expr::select(
        join_rs(),
        Predicate::cmp(AttrRef::new("S", "y"), CompareOp::Gt, 3),
    );
    let workload = Workload::new([Query::new("Q1", 10.0, q), Query::new("Q2", 2.0, join_rs())])
        .expect("two queries");
    Scenario { catalog, workload }
}

/// Every relation is empty: the entire cost surface is identically zero, so
/// all selection algorithms must agree and nothing may divide by zero.
pub fn all_empty() -> Scenario {
    let mut catalog = Catalog::new();
    for (name, attrs) in [("R", ["k", "x"]), ("S", ["k", "y"])] {
        let mut b = catalog.relation(name);
        for a in attrs {
            b = b.attr(a, AttrType::Int);
        }
        b.records(0.0)
            .blocks(0.0)
            .update_frequency(0.0)
            .finish()
            .expect("empty relation is valid");
    }
    let workload = Workload::new([Query::new("Q1", 1.0, join_rs())]).expect("one query");
    Scenario { catalog, workload }
}

/// One query with access frequency zero next to a hot one: zero-weight roots
/// must not be materialized for their own sake and must not produce NaN in
/// the Zipf/weight bookkeeping.
pub fn zero_frequency_query() -> Scenario {
    let catalog = two_relation_catalog(10_000.0, 1_000.0);
    let hot = Expr::select(
        join_rs(),
        Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Eq, 1),
    );
    let workload = Workload::new([
        Query::new("hot", 50.0, hot),
        Query::new("never", 0.0, join_rs()),
    ])
    .expect("two queries");
    Scenario { catalog, workload }
}

/// All update frequencies are zero: maintenance is free, so materializing
/// everything is optimal and `Cm`-related terms must vanish exactly.
pub fn zero_update_frequencies() -> Scenario {
    let mut catalog = two_relation_catalog(10_000.0, 1_000.0);
    catalog.set_update_frequency("R", 0.0).expect("R exists");
    catalog.set_update_frequency("S", 0.0).expect("S exists");
    let workload = Workload::new([Query::new("Q1", 5.0, join_rs())]).expect("one query");
    Scenario { catalog, workload }
}

/// The smallest possible MVPP: a single query over a single relation.
pub fn single_query() -> Scenario {
    let mut catalog = Catalog::new();
    catalog
        .relation("R")
        .attr("k", AttrType::Int)
        .attr("x", AttrType::Int)
        .records(10_000.0)
        .blocks(1_000.0)
        .update_frequency(1.0)
        .selectivity("x", 0.1)
        .finish()
        .expect("R is valid");
    let q = Expr::select(
        Expr::base("R"),
        Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Gt, 7),
    );
    let workload = Workload::new([Query::new("only", 3.0, q)]).expect("one query");
    Scenario { catalog, workload }
}

/// Three queries sharing one subexpression, two of them textually identical:
/// interning must merge the duplicates into a single root node and the
/// shared join must appear exactly once.
pub fn duplicate_subexpressions() -> Scenario {
    let catalog = two_relation_catalog(10_000.0, 1_000.0);
    let shared = join_rs();
    let filtered = Expr::select(
        shared.clone(),
        Predicate::cmp(AttrRef::new("S", "y"), CompareOp::Eq, 4),
    );
    let workload = Workload::new([
        Query::new("Q1", 10.0, shared.clone()),
        Query::new("Q2", 7.0, shared),
        Query::new("Q3", 2.0, filtered),
    ])
    .expect("three queries");
    Scenario { catalog, workload }
}

/// Every degenerate case, named, in a fixed order.
pub fn degenerate_scenarios() -> Vec<NamedScenario> {
    vec![
        NamedScenario {
            name: "empty-relation",
            scenario: empty_relation(),
        },
        NamedScenario {
            name: "all-empty",
            scenario: all_empty(),
        },
        NamedScenario {
            name: "zero-frequency-query",
            scenario: zero_frequency_query(),
        },
        NamedScenario {
            name: "zero-update-frequencies",
            scenario: zero_update_frequencies(),
        },
        NamedScenario {
            name: "single-query",
            scenario: single_query(),
        },
        NamedScenario {
            name: "duplicate-subexpressions",
            scenario: duplicate_subexpressions(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::output_attrs;

    #[test]
    fn all_cases_have_valid_queries() {
        for case in degenerate_scenarios() {
            for q in case.scenario.workload.queries() {
                output_attrs(q.root(), &case.scenario.catalog)
                    .unwrap_or_else(|e| panic!("{}/{} invalid: {e}", case.name, q.name()));
            }
        }
    }

    #[test]
    fn duplicate_queries_share_one_root() {
        let s = duplicate_subexpressions();
        let est = mvdesign_cost::CardinalityEstimator::new(&s.catalog, Default::default());
        let mut mvpp = mvdesign_core::Mvpp::builder(&est);
        for q in s.workload.queries() {
            mvpp.insert_query(q.name(), q.frequency(), q.root());
        }
        let mvpp = mvpp.finish();
        let (_, _, r1) = &mvpp.roots()[0];
        let (_, _, r2) = &mvpp.roots()[1];
        assert_eq!(r1, r2, "identical plans must intern to the same node");
    }
}
