//! Golden routes: what every pinned SQL text parses to and how every SQL
//! text and every merged MVPP root routes through its scenario's designed
//! views, compared with `tests/corpus/route_golden.txt`.
//!
//! Each SQL line records the parsed expression (its display and a digest of
//! its `Debug` form, which tells apart what the display folds together),
//! the routed plan and the `Decision`s; each merged-root line the plan and
//! decisions. A change to the parser or the view matcher that keeps this
//! file byte-identical parses every text to the same `Expr` and routes it
//! to the same `Routed { plan, decisions }`.
//!
//! The star workloads are built as expressions, so their SQL texts are
//! rendered from the workload's own roots; each rendering must parse back
//! to the root it came from.
//!
//! `MVDESIGN_RECORD_GOLDEN=1 cargo test -p mvdesign --test route_golden`
//! rewrites the fixture from the code under test; do that only for a change
//! that is *meant* to move a parse or a route, and say so in CHANGES.md.

use std::fmt::Debug;
use std::sync::Arc;

use mvdesign::algebra::{parse_query_with, Expr, Predicate};
use mvdesign::core::{Designer, Routed, ViewCatalog};
use mvdesign::workload::{
    paper_example, paper_figure7_example, tpch_lite, Scenario, StarSchema, StarSchemaConfig,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/corpus/route_golden.txt"
);

const PAPER_SQL: [&str; 4] = [
    "SELECT Product.name FROM Product, Division \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did",
    "SELECT Part.name FROM Product, Part, Division \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did \
     AND Part.Pid = Product.Pid",
    "SELECT Customer.name, Product.name, quantity \
     FROM Product, Division, Order, Customer \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did \
     AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid \
     AND date > 7/1/96",
    "SELECT Customer.city, date FROM Order, Customer \
     WHERE quantity > 100 AND Order.Cid = Customer.Cid",
];

const FIGURE7_SQL: [&str; 4] = [
    "SELECT Product.name FROM Product, Division \
     WHERE Division.city = 'LA' AND Product.Did = Division.Did",
    "SELECT Part.name FROM Product, Part, Division \
     WHERE Division.name = 'Re' AND Product.Did = Division.Did \
     AND Part.Pid = Product.Pid",
    "SELECT Customer.name, Product.name, quantity \
     FROM Product, Division, Order, Customer \
     WHERE Division.city = 'SF' AND Product.Did = Division.Did \
     AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid \
     AND date > 7/1/96",
    "SELECT Customer.city, date FROM Order, Customer \
     WHERE quantity > 100 AND Order.Cid = Customer.Cid",
];

/// The workload's six texts, as clients send them, then ad hoc questions
/// that reach the views by containment, roll-up, residual σ or refusal.
const TPCH_SQL: [&str; 22] = [
    "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE shipdate > 6/1/95",
    "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
    "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.segment",
    "SELECT Nation.name, SUM(price) AS revenue FROM Nation, Customer, Orders, Lineitem \
     WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     GROUP BY Nation.name",
    "SELECT brand, SUM(qty) AS volume FROM Part, Lineitem \
     WHERE Lineitem.pk = Part.pk GROUP BY Part.brand",
    "SELECT Nation.name, COUNT(*) AS shipments FROM Supplier, Nation, Lineitem \
     WHERE Supplier.nk = Nation.nk AND Lineitem.sk = Supplier.sk GROUP BY Nation.name",
    "SELECT price, qty, Lineitem.ok FROM Lineitem WHERE shipdate > 6/1/95",
    "SELECT Lineitem.ok FROM Lineitem WHERE shipdate > 9/1/95",
    "SELECT Lineitem.ok, price FROM Lineitem WHERE shipdate > 6/1/95 AND qty > 20",
    "SELECT price, Lineitem.ok FROM Lineitem WHERE qty > 20 AND price > 5",
    "SELECT priority, qty FROM Orders, Lineitem WHERE Lineitem.lk = Orders.ok",
    "SELECT priority, COUNT(*) AS total FROM Orders GROUP BY Orders.priority",
    "SELECT priority, AVG(ok) AS m FROM Orders GROUP BY Orders.priority",
    "SELECT COUNT(*) AS n, priority FROM Orders GROUP BY Orders.priority",
    "SELECT ok, ck FROM Orders WHERE priority = 'v1'",
    "SELECT * FROM Orders WHERE priority = 'v1'",
    "SELECT name FROM Nation",
    "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok AND segment = 'v2' \
     GROUP BY Customer.segment",
    "SELECT Nation.name, SUM(price) AS revenue FROM Nation, Customer, Orders, Lineitem \
     WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     AND Nation.name = 'v3' GROUP BY Nation.name",
    "SELECT Customer.nk, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.nk",
    "SELECT Region.name, SUM(price) AS revenue FROM Region, Nation, Customer, Orders, Lineitem \
     WHERE Nation.rk = Region.rk AND Customer.nk = Nation.nk AND Orders.ck = Customer.ck \
     AND Lineitem.ok = Orders.ok GROUP BY Region.name",
    "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     GROUP BY Customer.segment HAVING revenue > 10",
];

/// FNV-1a, written out so the digest cannot move with the standard
/// library's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl Debug) -> String {
    format!("{:016x}", fnv1a(&format!("{value:?}")))
}

fn routed_fields(routed: &Routed) -> String {
    let decisions: Vec<String> = routed.decisions.iter().map(|d| d.to_string()).collect();
    format!(
        "plan={} plan_fnv={} decisions=[{}] decisions_fnv={}",
        routed.plan,
        digest(&routed.plan),
        decisions.join("; "),
        digest(&routed.decisions)
    )
}

/// Renders a star query root in the shape the parser builds: a π or γ over
/// an optional σ over a left-deep join in `FROM` order.
fn star_sql(root: &Expr) -> String {
    fn from(e: &Expr, relations: &mut Vec<String>, conds: &mut Vec<String>) {
        match e {
            Expr::Base(r) => relations.push(r.to_string()),
            Expr::Join { left, right, on } => {
                from(left, relations, conds);
                from(right, relations, conds);
                conds.extend(on.pairs().iter().map(|(a, b)| format!("{a} = {b}")));
            }
            other => panic!("unexpected join leaf {other}"),
        }
    }
    fn conjunct(p: &Predicate) -> String {
        match p {
            Predicate::Cmp(c) => format!("{} {} {}", c.attr, c.op, c.rhs),
            other => panic!("unexpected conjunct {other}"),
        }
    }
    let (head, input) = match root {
        Expr::Project { input, attrs } => {
            let list: Vec<String> = attrs.iter().map(ToString::to_string).collect();
            (list.join(", "), input)
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let list: Vec<String> = group_by
                .iter()
                .map(ToString::to_string)
                .chain(aggs.iter().map(ToString::to_string))
                .collect();
            (list.join(", "), input)
        }
        other => panic!("unexpected root {other}"),
    };
    let (joins, predicate) = match &**input {
        Expr::Select { input, predicate } => (input, predicate.conjuncts().to_vec()),
        _ => (input, Vec::new()),
    };
    let mut relations = Vec::new();
    let mut conds = Vec::new();
    from(joins, &mut relations, &mut conds);
    conds.extend(predicate.iter().map(conjunct));
    let mut sql = format!("SELECT {head} FROM {}", relations.join(", "));
    if !conds.is_empty() {
        sql += &format!(" WHERE {}", conds.join(" AND "));
    }
    if let Expr::Aggregate { group_by, .. } = root {
        let keys: Vec<String> = group_by.iter().map(ToString::to_string).collect();
        sql += &format!(" GROUP BY {}", keys.join(", "));
    }
    sql
}

fn star(queries: usize) -> Scenario {
    StarSchema::with_config(StarSchemaConfig {
        seed: 42,
        dimensions: 6,
        queries,
        ..StarSchemaConfig::default()
    })
    .scenario()
}

fn scenarios() -> Vec<(String, Scenario, Vec<String>)> {
    let texts = |sql: &[&str]| sql.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut all = vec![
        ("paper".to_string(), paper_example(), texts(&PAPER_SQL)),
        (
            "paper-figure7".to_string(),
            paper_figure7_example(),
            texts(&FIGURE7_SQL),
        ),
        ("tpch-lite".to_string(), tpch_lite(), texts(&TPCH_SQL)),
    ];
    for queries in [10, 20, 40, 80] {
        let scenario = star(queries);
        let sql = scenario
            .workload
            .queries()
            .iter()
            .map(|q| star_sql(q.root()))
            .collect();
        all.push((format!("star-6x{queries}"), scenario, sql));
    }
    all
}

/// The fixture's lines, from the code under test.
fn current() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, scenario, texts) in scenarios() {
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("pinned scenarios design cleanly");
        let views = ViewCatalog::from_design(&design);
        lines.push(format!(
            "scenario {name} views={}",
            design.materialized_labels().join(",")
        ));
        for (i, sql) in texts.iter().enumerate() {
            let parsed = parse_query_with(sql, &scenario.catalog).expect("pinned SQL parses");
            if let Some(query) = scenario.workload.queries().get(i) {
                if name.starts_with("star") {
                    assert_eq!(&parsed, query.root(), "{sql} renders its root");
                }
            }
            lines.push(format!(
                "sql {name} #{i} parsed={parsed} parsed_fnv={} {}",
                digest(&parsed),
                routed_fields(&views.route(&parsed))
            ));
            assert_eq!(views.rewrite(&parsed), views.route(&parsed).plan);
        }
        let mvpp = design.mvpp.mvpp();
        for (query, _, root) in mvpp.roots() {
            let merged: &Arc<Expr> = mvpp.node(*root).expr();
            lines.push(format!(
                "merged {name} {query} {}",
                routed_fields(&views.route(merged))
            ));
        }
    }
    lines
}

#[test]
fn routes_match_the_recorded_fixture() {
    let lines = current();
    if std::env::var_os("MVDESIGN_RECORD_GOLDEN").is_some() {
        std::fs::write(FIXTURE, lines.join("\n") + "\n").expect("fixture is writable");
        return;
    }
    let recorded = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let recorded: Vec<&str> = recorded.lines().collect();
    for (want, got) in recorded.iter().zip(&lines) {
        assert_eq!(
            got, want,
            "the parser or router no longer reproduces this line"
        );
    }
    assert_eq!(
        lines.len(),
        recorded.len(),
        "fixture and run differ in length"
    );
}
