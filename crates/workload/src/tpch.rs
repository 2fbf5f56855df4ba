//! A TPC-H-flavoured scenario: the classic order-processing star with the
//! kinds of reporting queries the paper's introduction motivates
//! ("generating consolidated global reports"). Cardinalities follow TPC-H
//! scale factor 1, reduced to the SPJ + aggregation dialect this workspace
//! speaks.

use mvdesign_algebra::{parse_query_with, AttrRef, Query};
use mvdesign_catalog::{AttrType, Catalog};
use mvdesign_core::Workload;

use crate::paper::Scenario;

/// Builds the TPC-H-lite catalog (scale factor 1 cardinalities, blocking
/// factor 10):
///
/// | relation | records | notable selectivities |
/// |---|---:|---|
/// | Region   | 5       | |
/// | Nation   | 25      | `name` 1/25 |
/// | Supplier | 10 000  | |
/// | Customer | 150 000 | `segment` 1/5 |
/// | Part     | 200 000 | `brand` 1/25, `ptype` 1/150 |
/// | Orders   | 1 500 000 | `priority` 1/5, `odate` 1/2 |
/// | Lineitem | 6 000 000 | `shipdate` 1/4, `discount` 1/11 |
pub fn tpch_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.relation("Region")
        .attr("rk", AttrType::Int)
        .attr("name", AttrType::Text)
        .records(5.0)
        .blocks(1.0)
        .update_frequency(0.0)
        .selectivity("name", 0.2)
        .finish()
        .expect("static catalog");
    c.relation("Nation")
        .attr("nk", AttrType::Int)
        .attr("name", AttrType::Text)
        .attr("rk", AttrType::Int)
        .records(25.0)
        .blocks(1.0)
        .update_frequency(0.0)
        .selectivity("name", 1.0 / 25.0)
        .finish()
        .expect("static catalog");
    c.relation("Supplier")
        .attr("sk", AttrType::Int)
        .attr("name", AttrType::Text)
        .attr("nk", AttrType::Int)
        .records(10_000.0)
        .blocks(1_000.0)
        .update_frequency(0.1)
        .finish()
        .expect("static catalog");
    c.relation("Customer")
        .attr("ck", AttrType::Int)
        .attr("name", AttrType::Text)
        .attr("nk", AttrType::Int)
        .attr("segment", AttrType::Text)
        .records(150_000.0)
        .blocks(15_000.0)
        .update_frequency(0.2)
        .selectivity("segment", 0.2)
        .finish()
        .expect("static catalog");
    c.relation("Part")
        .attr("pk", AttrType::Int)
        .attr("name", AttrType::Text)
        .attr("brand", AttrType::Text)
        .attr("ptype", AttrType::Text)
        .records(200_000.0)
        .blocks(20_000.0)
        .update_frequency(0.1)
        .selectivity("brand", 1.0 / 25.0)
        .selectivity("ptype", 1.0 / 150.0)
        .finish()
        .expect("static catalog");
    c.relation("Orders")
        .attr("ok", AttrType::Int)
        .attr("ck", AttrType::Int)
        .attr("odate", AttrType::Date)
        .attr("priority", AttrType::Text)
        .records(1_500_000.0)
        .blocks(150_000.0)
        .update_frequency(1.0)
        .selectivity("priority", 0.2)
        .selectivity("odate", 0.5)
        .finish()
        .expect("static catalog");
    c.relation("Lineitem")
        .attr("lk", AttrType::Int)
        .attr("ok", AttrType::Int)
        .attr("pk", AttrType::Int)
        .attr("sk", AttrType::Int)
        .attr("qty", AttrType::Int)
        .attr("price", AttrType::Int)
        .attr("discount", AttrType::Int)
        .attr("shipdate", AttrType::Date)
        .records(6_000_000.0)
        .blocks(600_000.0)
        .update_frequency(1.0)
        .selectivity("shipdate", 0.25)
        .selectivity("discount", 1.0 / 11.0)
        .selectivity("qty", 0.5)
        .finish()
        .expect("static catalog");

    for (a, b, denom) in [
        (("Nation", "rk"), ("Region", "rk"), 5.0),
        (("Supplier", "nk"), ("Nation", "nk"), 25.0),
        (("Customer", "nk"), ("Nation", "nk"), 25.0),
        (("Orders", "ck"), ("Customer", "ck"), 150_000.0),
        (("Lineitem", "ok"), ("Orders", "ok"), 1_500_000.0),
        (("Lineitem", "pk"), ("Part", "pk"), 200_000.0),
        (("Lineitem", "sk"), ("Supplier", "sk"), 10_000.0),
    ] {
        c.set_join_selectivity(AttrRef::new(a.0, a.1), AttrRef::new(b.0, b.1), 1.0 / denom)
            .expect("static catalog");
    }
    c
}

/// The TPC-H-lite reporting workload: six dashboards over the order star,
/// with frequencies skewed toward the cheap operational queries, the way
/// warehouse traffic usually is.
pub fn tpch_lite() -> Scenario {
    let catalog = tpch_catalog();
    let q = |name: &str, fq: f64, sql: &str| {
        Query::new(
            name,
            fq,
            parse_query_with(sql, &catalog).expect("static query parses"),
        )
    };
    let workload = Workload::new([
        q(
            "recent_shipments",
            80.0,
            "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE shipdate > 6/1/95",
        ),
        q(
            "orders_by_priority",
            50.0,
            "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
        ),
        q(
            "revenue_by_segment",
            30.0,
            "SELECT segment, SUM(price) AS revenue \
             FROM Customer, Orders, Lineitem \
             WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
             GROUP BY Customer.segment",
        ),
        q(
            "revenue_by_nation",
            10.0,
            "SELECT Nation.name, SUM(price) AS revenue \
             FROM Nation, Customer, Orders, Lineitem \
             WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck \
             AND Lineitem.ok = Orders.ok \
             GROUP BY Nation.name",
        ),
        q(
            "volume_by_brand",
            5.0,
            "SELECT brand, SUM(qty) AS volume FROM Part, Lineitem \
             WHERE Lineitem.pk = Part.pk GROUP BY Part.brand",
        ),
        q(
            "supplier_nation_activity",
            2.0,
            "SELECT Nation.name, COUNT(*) AS shipments \
             FROM Supplier, Nation, Lineitem \
             WHERE Supplier.nk = Nation.nk AND Lineitem.sk = Supplier.sk \
             GROUP BY Nation.name",
        ),
    ])
    .expect("static workload is valid");
    Scenario { catalog, workload }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::output_attrs;

    #[test]
    fn all_queries_validate() {
        let s = tpch_lite();
        assert_eq!(s.catalog.len(), 7);
        assert_eq!(s.workload.len(), 6);
        for q in s.workload.queries() {
            output_attrs(q.root(), &s.catalog)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", q.name()));
        }
    }

    #[test]
    fn cardinalities_follow_sf1() {
        let c = tpch_catalog();
        assert_eq!(c.stats("Lineitem").unwrap().records, 6_000_000.0);
        assert_eq!(c.stats("Orders").unwrap().records, 1_500_000.0);
        assert_eq!(c.stats("Nation").unwrap().records, 25.0);
    }

    #[test]
    fn frequencies_skew_operational() {
        let s = tpch_lite();
        let fq: Vec<f64> = s.workload.queries().iter().map(|q| q.frequency()).collect();
        assert_eq!(fq, [80.0, 50.0, 30.0, 10.0, 5.0, 2.0]);
    }

    #[test]
    fn the_order_lineitem_join_is_shared_by_the_revenue_queries() {
        use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
        use mvdesign_optimizer::Planner;

        let s = tpch_lite();
        let est = CostEstimator::new(
            &s.catalog,
            EstimationMode::Analytic,
            PaperCostModel::default(),
        );
        let mvpp = &mvdesign_core::generate_mvpps(
            &s.workload,
            &est,
            &Planner::new(),
            mvdesign_core::GenerateConfig { max_rotations: 1 },
        )[0];
        // Customer⋈Orders⋈Lineitem (or one of its two-way pieces) must serve
        // both revenue_by_segment and revenue_by_nation.
        let shared = mvpp
            .nodes()
            .iter()
            .filter(|n| {
                matches!(&**n.expr(), mvdesign_algebra::Expr::Join { .. })
                    && mvpp.queries_using(n.id()).len() >= 2
            })
            .count();
        assert!(shared >= 1, "no shared joins in the TPC-H-lite MVPP");
    }

    /// The γ-nodes of `workload`'s first MVPP that are no query's root.
    fn roll_ups(catalog: &Catalog, workload: &Workload) -> Vec<String> {
        use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
        use mvdesign_optimizer::Planner;

        let est = CostEstimator::new(catalog, EstimationMode::Analytic, PaperCostModel::default());
        let mvpp = &mvdesign_core::generate_mvpps(
            workload,
            &est,
            &Planner::new(),
            mvdesign_core::GenerateConfig { max_rotations: 1 },
        )[0];
        mvpp.interior()
            .into_iter()
            .filter(|&id| {
                matches!(
                    &**mvpp.node(id).expr(),
                    mvdesign_algebra::Expr::Aggregate { .. }
                ) && mvpp.roots().iter().all(|(_, _, root)| *root != id)
            })
            .map(|id| {
                let node = mvpp.node(id);
                let readers: Vec<&str> = mvpp
                    .queries_using(id)
                    .into_iter()
                    .map(|q| mvpp.roots()[q].0.as_str())
                    .collect();
                format!("{} read by {readers:?}", node.expr().op_label())
            })
            .collect()
    }

    #[test]
    fn the_revenue_queries_read_one_roll_up_candidate() {
        let s = tpch_lite();
        assert_eq!(
            roll_ups(&s.catalog, &s.workload),
            [
                "γ[Customer.segment,Customer.nk; SUM(Lineitem.price) AS revenue] \
                 read by [\"revenue_by_segment\", \"revenue_by_nation\"]"
            ]
        );
    }

    #[test]
    fn an_average_is_not_rolled_up() {
        let s = tpch_lite();
        let queries = s.workload.queries().iter().map(|q| match q.name() {
            "revenue_by_nation" => Query::new(
                q.name(),
                q.frequency(),
                parse_query_with(
                    "SELECT Nation.name, AVG(price) AS revenue \
                     FROM Nation, Customer, Orders, Lineitem \
                     WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck \
                     AND Lineitem.ok = Orders.ok GROUP BY Nation.name",
                    &s.catalog,
                )
                .expect("parses"),
            ),
            _ => q.clone(),
        });
        let workload = Workload::new(queries).expect("valid workload");
        // One γ root is left over the join: no roll-up is worth adding.
        assert!(roll_ups(&s.catalog, &workload).is_empty());
    }
}
