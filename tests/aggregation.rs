//! End-to-end tests for aggregation queries — the paper's first "future
//! work" item, implemented across the whole stack: parser → estimator →
//! optimizer → MVPP → engine.

use std::collections::BTreeSet;

use mvdesign::algebra::{
    output_attrs, parse_query_with, AggExpr, AggFunc, AttrRef, Expr, Query, Value, AGG_RELATION,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{evaluate, generate_mvpps, GenerateConfig, MaintenanceMode, Workload};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig, Table};
use mvdesign::optimizer::Planner;
use mvdesign::prelude::Designer;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.relation("Sales")
        .attr("store", AttrType::Int)
        .attr("product", AttrType::Int)
        .attr("amount", AttrType::Int)
        .records(100_000.0)
        .blocks(10_000.0)
        .update_frequency(1.0)
        .selectivity("amount", 0.5)
        .finish()
        .expect("valid");
    c.relation("Stores")
        .attr("store", AttrType::Int)
        .attr("city", AttrType::Text)
        .records(1_000.0)
        .blocks(100.0)
        .update_frequency(0.1)
        .selectivity("city", 0.05)
        .finish()
        .expect("valid");
    c.set_join_selectivity(
        AttrRef::new("Sales", "store"),
        AttrRef::new("Stores", "store"),
        1.0 / 1_000.0,
    )
    .expect("valid");
    c
}

fn tiny_db() -> Database {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "Sales",
        [
            AttrRef::new("Sales", "store"),
            AttrRef::new("Sales", "product"),
            AttrRef::new("Sales", "amount"),
        ],
        vec![
            vec![Value::Int(1), Value::Int(10), Value::Int(5)],
            vec![Value::Int(1), Value::Int(11), Value::Int(7)],
            vec![Value::Int(2), Value::Int(10), Value::Int(11)],
            vec![Value::Int(2), Value::Int(12), Value::Int(1)],
            vec![Value::Int(3), Value::Int(13), Value::Int(2)],
        ],
    ));
    db.insert_table(Table::new(
        "Stores",
        [
            AttrRef::new("Stores", "store"),
            AttrRef::new("Stores", "city"),
        ],
        vec![
            vec![Value::Int(1), Value::text("LA")],
            vec![Value::Int(2), Value::text("LA")],
            vec![Value::Int(3), Value::text("SF")],
        ],
    ));
    db
}

#[test]
fn parser_accepts_group_by_and_aggregates() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT Stores.city, SUM(amount) AS total, COUNT(*) \
         FROM Sales, Stores \
         WHERE Sales.store = Stores.store \
         GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    match &*q {
        Expr::Aggregate { group_by, aggs, .. } => {
            assert_eq!(group_by, &[AttrRef::new("Stores", "city")]);
            assert_eq!(aggs.len(), 2);
            assert_eq!(aggs[0].alias.as_str(), "total");
            assert_eq!(aggs[1].alias.as_str(), "count_star");
        }
        other => panic!("expected aggregate root, got {other}"),
    }
    // Output schema: the group key plus the two synthesized attributes.
    let attrs = output_attrs(&q, &c).expect("infers");
    assert_eq!(attrs.len(), 3);
    assert_eq!(attrs[1], AttrRef::new(AGG_RELATION, "total"));
}

#[test]
fn parser_infers_group_keys_from_plain_select_items() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT city, MAX(amount) FROM Sales, Stores WHERE Sales.store = Stores.store",
        &c,
    )
    .expect("parses");
    match &*q {
        Expr::Aggregate { group_by, .. } => {
            assert_eq!(group_by, &[AttrRef::new("Stores", "city")]);
        }
        other => panic!("expected aggregate root, got {other}"),
    }
}

#[test]
fn parser_rejects_ungrouped_plain_attribute() {
    let c = catalog();
    let err = parse_query_with(
        "SELECT city, product, SUM(amount) FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        &c,
    )
    .unwrap_err();
    assert!(err.to_string().contains("GROUP BY"), "{err}");
}

#[test]
fn parser_reorders_interleaved_select_list_with_projection() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT SUM(amount) AS total, city FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    // Aggregate output is (city, total); the listed order is (total, city),
    // so a reordering projection sits on top.
    match &*q {
        Expr::Project { attrs, .. } => {
            assert_eq!(attrs[0], AttrRef::new(AGG_RELATION, "total"));
            assert_eq!(attrs[1], AttrRef::new("Stores", "city"));
        }
        other => panic!("expected reordering projection, got {other}"),
    }
}

#[test]
fn engine_groups_and_aggregates_correctly() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT Stores.city, SUM(amount) AS total, COUNT(*) AS n, \
                MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean \
         FROM Sales, Stores WHERE Sales.store = Stores.store \
         GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let out = execute(&q, &tiny_db(), &ExecContext::default()).expect("executes");
    let rows = out.canonicalized();
    // LA: amounts 5,7,11,1 → total 24, n 4, min 1, max 11, avg 6.
    // SF: amount 2 → total 2, n 1, min 2, max 2, avg 2.
    assert_eq!(rows.len(), 2);
    let la: Vec<&Value> = rows.rows()[0].iter().collect();
    assert_eq!(*la[0], Value::text("LA"));
    assert_eq!(*la[1], Value::Int(24));
    assert_eq!(*la[2], Value::Int(4));
    assert_eq!(*la[3], Value::Int(1));
    assert_eq!(*la[4], Value::Int(11));
    assert_eq!(*la[5], Value::Int(6));
    let sf: Vec<&Value> = rows.rows()[1].iter().collect();
    assert_eq!(*sf[0], Value::text("SF"));
    assert_eq!(*sf[1], Value::Int(2));
}

#[test]
fn global_aggregate_without_group_by() {
    let c = catalog();
    let q =
        parse_query_with("SELECT COUNT(*) AS n, SUM(amount) AS s FROM Sales", &c).expect("parses");
    let out = execute(&q, &tiny_db(), &ExecContext::default()).expect("executes");
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][0], Value::Int(5));
    assert_eq!(out.rows()[0][1], Value::Int(26));
}

#[test]
fn optimizer_preserves_aggregate_results() {
    let c = catalog();
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let q = parse_query_with(
        "SELECT Stores.city, SUM(amount) AS total FROM Sales, Stores \
         WHERE Sales.store = Stores.store AND Stores.city = 'LA' \
         GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let opt = Planner::new().optimize(&q, &est);
    let db = tiny_db();
    let a = execute(&q, &db, &ExecContext::default())
        .expect("original")
        .canonicalized();
    let b = execute(&opt, &db, &ExecContext::default())
        .expect("optimized")
        .canonicalized();
    assert_eq!(a.rows(), b.rows());
    assert!(est.tree_cost(&opt) <= est.tree_cost(&q));
}

#[test]
fn estimator_bounds_group_count_by_input() {
    let c = catalog();
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let q = parse_query_with(
        "SELECT city, COUNT(*) FROM Sales, Stores WHERE Sales.store = Stores.store \
         GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let stats = est.stats(&q);
    // s(city) = 0.05 ⇒ ≈20 distinct cities.
    assert!(stats.records <= 21.0, "groups: {}", stats.records);
    assert!(stats.records >= 1.0);
    assert!(est.tree_cost(&q).is_finite());
}

#[test]
fn two_aggregate_queries_share_their_spj_core_in_the_mvpp() {
    let c = catalog();
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let q1 = parse_query_with(
        "SELECT city, SUM(amount) AS total FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let q2 = parse_query_with(
        "SELECT city, COUNT(*) AS n FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let w = Workload::new([Query::new("A", 5.0, q1), Query::new("B", 2.0, q2)]).expect("valid");
    let mvpp = &generate_mvpps(
        &w,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )[0];
    // The Sales⋈Stores join is computed once, feeding both aggregations.
    let shared = mvpp
        .nodes()
        .iter()
        .find(|n| matches!(&**n.expr(), Expr::Join { .. }))
        .expect("join node exists");
    assert_eq!(mvpp.queries_using(shared.id()).len(), 2);

    // And the merged roots still compute the right answers.
    let db = tiny_db();
    for (name, _, root) in mvpp.roots() {
        let original = w.query(name).expect("known query");
        let a = execute(original.root(), &db, &ExecContext::default())
            .expect("original")
            .canonicalized();
        let b = execute(mvpp.node(*root).expr(), &db, &ExecContext::default())
            .expect("merged")
            .canonicalized();
        assert_eq!(a.rows(), b.rows(), "merge changed {name}");
    }
}

#[test]
fn designer_handles_aggregation_workloads_end_to_end() {
    let c = catalog();
    let q = |name: &str, fq: f64, sql: &str| {
        Query::new(name, fq, parse_query_with(sql, &c).expect("parses"))
    };
    let w = Workload::new([
        q(
            "by_city",
            20.0,
            "SELECT city, SUM(amount) AS total FROM Sales, Stores \
             WHERE Sales.store = Stores.store GROUP BY Stores.city",
        ),
        q(
            "by_product",
            4.0,
            "SELECT Sales.product, COUNT(*) AS n FROM Sales, Stores \
             WHERE Sales.store = Stores.store GROUP BY Sales.product",
        ),
        q(
            "raw",
            1.0,
            "SELECT city, amount FROM Sales, Stores WHERE Sales.store = Stores.store",
        ),
    ])
    .expect("valid");
    let design = Designer::new().design(&c, &w).expect("designs");
    assert!(design.cost.total.is_finite());
    // Materializing the shared join beats recomputing it per query.
    let none = evaluate(
        &design.mvpp,
        &BTreeSet::new(),
        MaintenanceMode::SharedRecompute,
    );
    assert!(design.cost.total <= none.total);
}

#[test]
fn aggregates_over_generated_data_roundtrip_through_measure() {
    let c = catalog();
    let db = Generator::with_config(GeneratorConfig {
        seed: 5,
        scale: 0.01,
        max_rows: 500,
    })
    .database(&c);
    let q = parse_query_with(
        "SELECT city, COUNT(*) AS n FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city",
        &c,
    )
    .expect("parses");
    let (table, io) =
        mvdesign::engine::measure(&q, &db, 10.0, &ExecContext::default()).expect("measures");
    let plain = execute(&q, &db, &ExecContext::default()).expect("executes");
    assert_eq!(table.canonicalized().rows(), plain.canonicalized().rows());
    assert!(io.total() > 0.0);
}

#[test]
fn hand_built_aggregate_expr_works_without_parser() {
    let sum = AggExpr::new(AggFunc::Sum, AttrRef::new("Sales", "amount"), "total");
    let e = Expr::aggregate(Expr::base("Sales"), [AttrRef::new("Sales", "store")], [sum]);
    let out = execute(&e, &tiny_db(), &ExecContext::default()).expect("executes");
    assert_eq!(out.len(), 3); // three stores
    let rows = out.canonicalized();
    assert_eq!(rows.rows()[0], vec![Value::Int(1), Value::Int(12)]);
}

#[test]
fn having_filters_groups() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT Stores.city, SUM(amount) AS total FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city \
         HAVING total > 10",
        &c,
    )
    .expect("parses");
    let out = execute(&q, &tiny_db(), &ExecContext::default()).expect("executes");
    // LA total 24 passes, SF total 2 does not.
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][0], Value::text("LA"));
    assert_eq!(out.rows()[0][1], Value::Int(24));
}

#[test]
fn having_can_reference_group_keys_and_count_star() {
    let c = catalog();
    let q = parse_query_with(
        "SELECT Stores.city, COUNT(*) AS n FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city \
         HAVING n >= 1 AND Stores.city = 'SF'",
        &c,
    )
    .expect("parses");
    let out = execute(&q, &tiny_db(), &ExecContext::default()).expect("executes");
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][1], Value::Int(1));
}

#[test]
fn having_without_aggregation_is_rejected() {
    let c = catalog();
    let err = parse_query_with("SELECT city FROM Stores HAVING city = 'LA'", &c).unwrap_err();
    assert!(err.to_string().contains("HAVING"), "{err}");
}

#[test]
fn having_queries_survive_the_designer() {
    let c = catalog();
    let q1 = parse_query_with(
        "SELECT Stores.city, SUM(amount) AS total FROM Sales, Stores \
         WHERE Sales.store = Stores.store GROUP BY Stores.city HAVING total > 10",
        &c,
    )
    .expect("parses");
    let q2 = parse_query_with(
        "SELECT city, amount FROM Sales, Stores WHERE Sales.store = Stores.store",
        &c,
    )
    .expect("parses");
    let w =
        Workload::new([Query::new("H", 5.0, q1.clone()), Query::new("R", 1.0, q2)]).expect("valid");
    let design = Designer::new().design(&c, &w).expect("designs");
    assert!(design.cost.total.is_finite());
    // The HAVING query's merged plan still returns the right rows.
    let db = tiny_db();
    let (_, _, root) = design
        .mvpp
        .mvpp()
        .roots()
        .iter()
        .find(|(n, _, _)| n == "H")
        .expect("H root");
    let merged = design.mvpp.mvpp().node(*root).expr();
    let a = execute(&q1, &db, &ExecContext::default())
        .expect("direct")
        .canonicalized();
    let b = execute(merged, &db, &ExecContext::default())
        .expect("merged")
        .canonicalized();
    assert_eq!(a.rows(), b.rows());
}

#[test]
fn nested_aggregate_under_join_is_preserved_by_merge() {
    // A hand-built plan the SPJ merge machinery cannot restructure: join a
    // per-store aggregate back to the Stores dimension. The generator must
    // fall back to inserting it verbatim.
    let c = catalog();
    let per_store = Expr::aggregate(
        Expr::base("Sales"),
        [AttrRef::new("Sales", "store")],
        [AggExpr::new(
            AggFunc::Sum,
            AttrRef::new("Sales", "amount"),
            "total",
        )],
    );
    let joined = Expr::join(
        per_store,
        Expr::base("Stores"),
        mvdesign::algebra::JoinCondition::on(
            AttrRef::new("Sales", "store"),
            AttrRef::new("Stores", "store"),
        ),
    );
    let plain = parse_query_with(
        "SELECT city, amount FROM Sales, Stores WHERE Sales.store = Stores.store",
        &c,
    )
    .expect("parses");
    let w = Workload::new([
        Query::new("nested", 3.0, joined.clone()),
        Query::new("plain", 1.0, plain),
    ])
    .expect("valid");
    let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
    let mvpp = &generate_mvpps(
        &w,
        &est,
        &Planner::new(),
        GenerateConfig { max_rotations: 1 },
    )[0];
    let db = tiny_db();
    for (name, _, root) in mvpp.roots() {
        let original = w.query(name).expect("known");
        let a = execute(original.root(), &db, &ExecContext::default())
            .expect("direct")
            .canonicalized();
        let b = execute(mvpp.node(*root).expr(), &db, &ExecContext::default())
            .expect("merged")
            .canonicalized();
        assert_eq!(a.rows(), b.rows(), "merge changed {name}");
    }
}
