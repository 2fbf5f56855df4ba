//! Property-based tests over randomly generated catalogs, queries and data:
//! rewrites preserve semantics, estimates stay well-formed, and the greedy
//! never beats the exhaustive optimum.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::{
    evaluate, AnnotatedMvpp, ExhaustiveSelection, GreedySelection, MaintenanceMode, Mvpp,
    SelectionAlgorithm, UpdateWeighting,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, Database, ExecContext, Generator, GeneratorConfig};
use mvdesign::optimizer::{push_selections, JoinGraph, Planner};

/// A three-relation catalog whose statistics are drawn from the strategy.
fn make_catalog(sizes: [u32; 3], sel: f64) -> Catalog {
    let mut c = Catalog::new();
    for (i, name) in ["R0", "R1", "R2"].iter().enumerate() {
        c.relation(*name)
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .attr("t", AttrType::Text)
            .records(f64::from(sizes[i].max(4)))
            .blocks((f64::from(sizes[i].max(4)) / 10.0).ceil())
            .update_frequency(1.0)
            .selectivity("x", sel)
            .selectivity("t", sel)
            .finish()
            .expect("generated relation is valid");
    }
    for (a, b) in [("R0", "R1"), ("R1", "R2")] {
        let d = f64::from(sizes[0].max(sizes[1]).max(8));
        c.set_join_selectivity(AttrRef::new(a, "k"), AttrRef::new(b, "k"), 1.0 / d)
            .expect("generated join selectivity is valid");
    }
    c
}

/// Random SPJ expression over the three relations: a chain join with
/// optional selections and a projection.
#[derive(Debug, Clone)]
struct QuerySpec {
    joins: usize,                 // 0..=2 extra relations
    select_on: Vec<(usize, i64)>, // (relation index, literal)
    /// A disjunction over relations `i` and `i + 1`: `(i, literal, literal)`.
    spanning: Option<(usize, i64, i64)>,
    project: bool,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        0usize..=2,
        proptest::collection::vec((0usize..3, 0i64..6), 0..3),
        proptest::collection::vec((0usize..2, 0i64..6, 0i64..6), 0..2),
        any::<bool>(),
    )
        .prop_map(|(joins, select_on, mut spanning, project)| QuerySpec {
            joins,
            select_on,
            spanning: spanning.pop(),
            project,
        })
}

fn build_query(spec: &QuerySpec) -> Arc<Expr> {
    let mut expr = Expr::base("R0");
    for i in 1..=spec.joins {
        let prev = format!("R{}", i - 1);
        let cur = format!("R{i}");
        expr = Expr::join(
            expr,
            Expr::base(cur.as_str()),
            JoinCondition::on(AttrRef::new(prev, "k"), AttrRef::new(cur, "k")),
        );
    }
    let mut preds = Vec::new();
    for (rel, lit) in &spec.select_on {
        if *rel <= spec.joins {
            preds.push(Predicate::cmp(
                AttrRef::new(format!("R{rel}"), "x"),
                CompareOp::Le,
                *lit,
            ));
        }
    }
    if let Some((rel, a, b)) = spec.spanning.filter(|&(rel, ..)| rel < spec.joins) {
        let le = |r: usize, lit: i64| {
            Predicate::cmp(AttrRef::new(format!("R{r}"), "x"), CompareOp::Le, lit)
        };
        preds.push(Predicate::or([le(rel, a), le(rel + 1, b)]));
    }
    expr = Expr::select(expr, Predicate::and(preds));
    if spec.project {
        let mut attrs = vec![AttrRef::new("R0", "t")];
        if spec.joins >= 1 {
            attrs.push(AttrRef::new("R1", "x"));
        }
        expr = Expr::project(expr, attrs);
    }
    expr
}

fn small_db(catalog: &Catalog, seed: u64) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 1.0,
        max_rows: 60,
    })
    .database(catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selection_pushdown_preserves_results(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..200),
        seed in 0u64..1_000,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        let pushed = push_selections(&q);
        let a = execute(&q, &db, &ExecContext::default()).expect("original executes").canonicalized();
        let b = execute(&pushed, &db, &ExecContext::default()).expect("pushed executes").canonicalized();
        prop_assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn full_optimizer_preserves_results(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..200),
        seed in 0u64..1_000,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let opt = Planner::new().optimize(&q, &est);
        prop_assert!(est.tree_cost(&opt) <= est.tree_cost(&q) + 1e-9);
        let a = execute(&q, &db, &ExecContext::default()).expect("original executes").canonicalized();
        let b = execute(&opt, &db, &ExecContext::default()).expect("optimized executes").canonicalized();
        prop_assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn estimates_are_finite_and_monotone_under_selection(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
    ) {
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let q = build_query(&spec);
        let stats = est.stats(&q);
        prop_assert!(stats.records.is_finite() && stats.records >= 0.0);
        prop_assert!(stats.blocks.is_finite() && stats.blocks >= 0.0);
        // Adding a selection never increases the estimate.
        let filtered = Expr::select(
            Arc::clone(&q),
            Predicate::cmp(AttrRef::new("R0", "t"), CompareOp::Eq, "v0"),
        );
        // (Only valid if R0.t is still visible — skip when projected away.)
        if !spec.project {
            prop_assert!(est.stats(&filtered).records <= stats.records + 1e-9);
        }
        prop_assert!(est.tree_cost(&q).is_finite());
    }

    #[test]
    fn greedy_never_beats_exhaustive(
        sizes in proptest::array::uniform3(8u32..2_000),
        fq in proptest::array::uniform3(0.1f64..50.0),
        sel in 0.05f64..0.9,
    ) {
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        // Three overlapping queries over the chain join.
        let j01 = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let j012 = Expr::join(
            Arc::clone(&j01),
            Expr::base("R2"),
            JoinCondition::on(AttrRef::new("R1", "k"), AttrRef::new("R2", "k")),
        );
        let filtered = Expr::select(
            Arc::clone(&j01),
            Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Le, 2),
        );
        let mut mvpp = Mvpp::builder(est.cardinalities());
        mvpp.insert_query("Q1", fq[0], &j01);
        mvpp.insert_query("Q2", fq[1], &j012);
        mvpp.insert_query("Q3", fq[2], &filtered);
        let a = AnnotatedMvpp::annotate(mvpp.finish(), &est, UpdateWeighting::Max);
        let mode = MaintenanceMode::SharedRecompute;
        let greedy = evaluate(&a, &GreedySelection::new().select(&a, mode), mode).total;
        let optimum = evaluate(&a, &ExhaustiveSelection::default().select(&a, mode), mode).total;
        prop_assert!(greedy + 1e-6 >= optimum, "greedy {} beat optimum {}", greedy, optimum);
        // And the optimum is no worse than the trivial strategies.
        let none = evaluate(&a, &BTreeSet::new(), mode).total;
        prop_assert!(optimum <= none + 1e-6);
    }

    #[test]
    fn evaluation_is_monotone_in_query_frequency(
        sizes in proptest::array::uniform3(8u32..2_000),
        fq in 0.1f64..50.0,
    ) {
        let catalog = make_catalog(sizes, 0.3);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let j01 = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let build = |f: f64| {
            let mut mvpp = Mvpp::builder(est.cardinalities());
            mvpp.insert_query("Q", f, &j01);
            AnnotatedMvpp::annotate(mvpp.finish(), &est, UpdateWeighting::Max)
        };
        let lo = build(fq);
        let hi = build(fq * 2.0);
        let mode = MaintenanceMode::SharedRecompute;
        for m in [BTreeSet::new(), lo.mvpp().interior().into_iter().collect::<BTreeSet<_>>()] {
            prop_assert!(
                evaluate(&hi, &m, mode).total >= evaluate(&lo, &m, mode).total - 1e-9
            );
        }
    }

    #[test]
    fn predicate_normalisation_is_stable_under_commutation(
        lits in proptest::collection::vec(0i64..5, 1..4),
    ) {
        let preds: Vec<Predicate> = lits
            .iter()
            .map(|l| Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Eq, *l))
            .collect();
        let mut reversed = preds.clone();
        reversed.reverse();
        prop_assert_eq!(Predicate::and(preds.clone()), Predicate::and(reversed.clone()));
        prop_assert_eq!(Predicate::or(preds), Predicate::or(reversed));
    }

    #[test]
    fn selectivity_is_always_a_probability(
        lits in proptest::collection::vec(0i64..5, 1..5),
        sel in 0.0f64..1.0,
    ) {
        let catalog = make_catalog([100, 100, 100], sel);
        let preds: Vec<Predicate> = lits
            .iter()
            .map(|l| Predicate::cmp(AttrRef::new("R0", "x"), CompareOp::Eq, *l))
            .collect();
        for p in [Predicate::and(preds.clone()), Predicate::or(preds)] {
            let s = p.selectivity(&catalog);
            prop_assert!((0.0..=1.0).contains(&s), "selectivity {} of {}", s, p);
        }
    }

    #[test]
    fn rendered_catalogs_reparse_identically(
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
        fu in 0.0f64..20.0,
    ) {
        let mut catalog = make_catalog(sizes, sel);
        catalog.set_update_frequency("R0", fu).expect("known relation");
        let text = mvdesign::workload::render_catalog(&catalog);
        let reparsed = mvdesign::workload::parse_scenario(&format!(
            "{text}\nquery q 1 {{\nSELECT t FROM R0\n}}"
        ))
        .expect("rendered catalog reparses");
        prop_assert_eq!(catalog, reparsed.catalog);
    }

    #[test]
    fn view_rewrite_preserves_results_on_random_queries(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..150),
        seed in 0u64..500,
    ) {
        use mvdesign::core::ViewCatalog;
        use mvdesign::engine::materialize_view;
        let catalog = make_catalog(sizes, 0.3);
        let mut db = small_db(&catalog, seed);
        let q = build_query(&spec);
        // Register every join subexpression of the query as a view.
        let mut views = ViewCatalog::new();
        let mut counter = 0;
        mvdesign::algebra::postorder(&q, &mut |n| {
            if matches!(&**n, Expr::Join { .. }) {
                counter += 1;
                views.register(format!("view{counter}"), Arc::clone(n));
            }
        });
        for (name, definition) in views.views().to_vec() {
            materialize_view(name, &definition, &mut db, &ExecContext::default()).expect("view materializes");
        }
        let direct = execute(&q, &db, &ExecContext::default()).expect("direct executes").canonicalized();
        let routed = execute(&views.rewrite(&q), &db, &ExecContext::default())
            .expect("routed executes")
            .canonicalized();
        prop_assert_eq!(direct.rows(), routed.rows());
    }

    #[test]
    fn dsl_parser_never_panics_on_arbitrary_text(
        text in "[ -~\\n]{0,400}",
    ) {
        // Any byte soup must produce Ok(_) or a structured error, never a
        // panic.
        let _ = mvdesign::workload::parse_scenario(&text);
    }

    #[test]
    fn sql_parser_never_panics_on_arbitrary_text(
        text in "[ -~é日\u{a0}\\t\\n]{0,200}",
    ) {
        let catalog = make_catalog([50, 50, 50], 0.3);
        let _ = mvdesign::algebra::parse_query_with(&text, &catalog);
        parse_and_route(&text);
    }

    #[test]
    fn aggregate_estimates_never_exceed_input_cardinality(
        sizes in proptest::array::uniform3(8u32..5_000),
        sel in 0.01f64..1.0,
    ) {
        use mvdesign::algebra::{AggExpr, AggFunc};
        let catalog = make_catalog(sizes, sel);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let join = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let agg = Expr::aggregate(
            Arc::clone(&join),
            [AttrRef::new("R0", "t")],
            [AggExpr::new(AggFunc::Sum, AttrRef::new("R1", "x"), "s")],
        );
        let input = est.stats(&join);
        let output = est.stats(&agg);
        prop_assert!(output.records <= input.records + 1e-9);
        prop_assert!(output.records >= 0.0);
        prop_assert!(est.op_cost(&agg).is_finite());
    }

    #[test]
    fn break_even_is_consistent_with_greedy_acceptance(
        sizes in proptest::array::uniform3(64u32..5_000),
        fq in 1.0f64..100.0,
    ) {
        use mvdesign::core::{break_even_update_weight, AnnotatedMvpp, Mvpp, UpdateWeighting};
        let catalog = make_catalog(sizes, 0.3);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let join = Expr::join(
            Expr::base("R0"),
            Expr::base("R1"),
            JoinCondition::on(AttrRef::new("R0", "k"), AttrRef::new("R1", "k")),
        );
        let mut mvpp = Mvpp::builder(est.cardinalities());
        mvpp.insert_query("Q", fq, &join);
        let a = AnnotatedMvpp::annotate(mvpp.finish(), &est, UpdateWeighting::Max);
        let root = a.mvpp().roots()[0].2;
        let ustar = break_even_update_weight(&a, root);
        // The catalog's fu is 1.0; the Figure-9 weight is positive exactly
        // when 1.0 is below a (coarser, scan-free) version of U*. The
        // refined U* can only be larger.
        let w = a.annotation(root).weight;
        if w > 0.0 {
            prop_assert!(ustar >= 1.0, "w>0 but U*={} < fu", ustar);
        }
    }
}

// ------------------------------------------------ SQL front-end robustness --

/// Every SQL text the pinned scenarios are written in, and ad hoc ones.
const CORPUS_SQL: [&str; 10] = [
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
    "SELECT ok, ck FROM Orders WHERE priority = 'v1' OR (ck >= 3 AND ck <> 7)",
    "SELECT segment, MIN(price) AS lo FROM Customer, Orders, Lineitem \
     WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
     GROUP BY Customer.segment HAVING lo < 10",
    "SELECT * FROM Orders WHERE odate <= 12/31/1998",
    "select name from Nation where name = \"x\"",
];

/// Tokens a mutation splices in: what breaks the lexer, the parser or the
/// resolver.
const SPLICES: [&str; 14] = [
    "99999999999999999999",
    "1/99999999999999999999/5",
    "13/1/96",
    "1/32/96",
    "0/1/96",
    "7/1/99999999999999999",
    "é",
    "日本",
    "'",
    "(",
    ")",
    "#agg",
    "Ghost.x",
    "GROUP",
];
/// A random connected join graph of 2 to 7 leaves: a chain, a star, a cycle
/// or a clique. Each leaf is a base relation or a view scan covering two;
/// each condition names one relation under each of its ends.
#[derive(Debug, Clone)]
struct GraphSpec {
    /// 0 chain, 1 star, 2 cycle, 3 clique.
    shape: usize,
    /// Per leaf: its records as a power of ten, and whether it is a view
    /// over two relations.
    leaves: Vec<(u32, bool)>,
    /// Per condition, in shape order: `1/js` as a power of ten (0 makes the
    /// join a cross product's size, so cross products tie), and which
    /// relation of each end's view it names.
    conds: Vec<(u32, bool, bool)>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (
        0usize..4,
        proptest::collection::vec((1u32..6, any::<bool>()), 2..=7),
        proptest::collection::vec((0u32..4, any::<bool>(), any::<bool>()), 21..22),
    )
        .prop_map(|(shape, leaves, conds)| GraphSpec {
            shape,
            leaves,
            conds,
        })
}

/// The leaf pairs a condition links, by shape.
fn shape_edges(shape: usize, n: usize) -> Vec<(usize, usize)> {
    let chain = (1..n).map(|i| (i - 1, i));
    match shape {
        0 => chain.collect(),
        1 => (1..n).map(|i| (0, i)).collect(),
        2 if n > 2 => chain.chain([(n - 1, 0)]).collect(),
        2 => chain.collect(),
        _ => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
    }
}

/// The spec's catalog, its leaves with the relations each covers, and its
/// conditions, each with the leaves at its ends.
#[allow(clippy::type_complexity)]
fn build_graph(
    spec: &GraphSpec,
) -> (
    Catalog,
    Vec<(Arc<Expr>, BTreeSet<mvdesign::algebra::RelName>)>,
    Vec<(usize, usize, AttrRef, AttrRef)>,
) {
    let mut catalog = Catalog::new();
    let mut add = |name: &str, records: u32| {
        let records = 10f64.powi(records as i32);
        catalog
            .relation(name)
            .attr("k", AttrType::Int)
            .records(records)
            .blocks((records / 10.0).ceil())
            .finish()
            .expect("generated relation is valid");
    };
    let mut leaves = Vec::new();
    for (i, &(records, view)) in spec.leaves.iter().enumerate() {
        let covered: Vec<String> = if view {
            add(&format!("V{i}"), records);
            vec![format!("L{i}a"), format!("L{i}b")]
        } else {
            vec![format!("L{i}")]
        };
        for r in &covered {
            add(r, records);
        }
        let scan = if view {
            format!("V{i}")
        } else {
            covered[0].clone()
        };
        let covers = covered.iter().map(|r| r.as_str().into()).collect();
        leaves.push((Expr::base(scan.as_str()), covers));
    }
    let end = |i: usize, second: bool| {
        let (_, view) = spec.leaves[i];
        let rel = match (view, second) {
            (false, _) => format!("L{i}"),
            (true, false) => format!("L{i}a"),
            (true, true) => format!("L{i}b"),
        };
        AttrRef::new(rel, "k")
    };
    let mut conds = Vec::new();
    for ((i, j), &(d, si, sj)) in shape_edges(spec.shape, spec.leaves.len())
        .into_iter()
        .zip(&spec.conds)
    {
        let (a, b) = (end(i, si), end(j, sj));
        catalog
            .set_join_selectivity(a.clone(), b.clone(), 10f64.powi(-(d as i32)))
            .expect("generated join selectivity is valid");
        conds.push((i, j, a, b));
    }
    (catalog, leaves, conds)
}

/// Every join tree over the leaves of `full` that joins only sides a
/// condition links, each unordered tree once.
fn cross_product_free_trees(
    leaves: &[Arc<Expr>],
    conds: &[(usize, usize, AttrRef, AttrRef)],
) -> Vec<Arc<Expr>> {
    let full = (1usize << leaves.len()) - 1;
    let mut trees: Vec<Vec<Arc<Expr>>> = vec![Vec::new(); full + 1];
    for set in 1..=full {
        if set.is_power_of_two() {
            trees[set].push(Arc::clone(&leaves[set.trailing_zeros() as usize]));
            continue;
        }
        let mut joined = Vec::new();
        let mut sub = (set - 1) & set;
        while sub > 0 {
            let other = set & !sub;
            let across = |x: usize, y: usize| sub >> x & 1 == 1 && other >> y & 1 == 1;
            let pairs: Vec<_> = conds
                .iter()
                .filter(|(i, j, ..)| across(*i, *j) || across(*j, *i))
                .map(|(.., a, b)| (a.clone(), b.clone()))
                .collect();
            if sub < other && !pairs.is_empty() {
                for l in &trees[sub] {
                    for r in &trees[other] {
                        let on = JoinCondition::new(pairs.clone());
                        joined.push(Expr::join(Arc::clone(l), Arc::clone(r), on));
                    }
                }
            }
            sub = (sub - 1) & set;
        }
        trees[set] = joined;
    }
    trees.swap_remove(full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The join DP against brute force: over a connected graph its plan's
    /// estimated cost is the least of every bushy tree without a cross
    /// product, and its plan holds none.
    #[test]
    fn join_dp_is_the_cross_product_free_optimum(spec in graph_strategy()) {
        let (catalog, leaves, conds) = build_graph(&spec);
        let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
        let scans: Vec<_> = leaves.iter().map(|(l, _)| Arc::clone(l)).collect();
        let pairs = conds.iter().map(|(.., a, b)| (a.clone(), b.clone())).collect();
        let graph = JoinGraph::new(leaves, pairs).expect("a valid graph");
        let plan = graph.order(Vec::new(), None, &est, 12).expect("a plain plan");
        prop_assert!(!plan.to_string().contains("⋈[×]"), "{}", plan);
        let trees = cross_product_free_trees(&scans, &conds);
        prop_assert!(!trees.is_empty());
        let least = trees.iter().map(|t| est.tree_cost(t)).fold(f64::INFINITY, f64::min);
        let cost = est.tree_cost(&plan);
        prop_assert!((cost - least).abs() <= 1e-9 * least.max(1.0), "{} over {}: {}", cost, least, plan);
    }
}

/// The query split into tokens: identifier/number runs, quoted strings and
/// single punctuation characters.
fn sql_tokens(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        let mut token = c.to_string();
        if c.is_alphanumeric() || c == '_' || c == '/' {
            while let Some(&n) = chars.peek() {
                if !(n.is_alphanumeric() || n == '_' || n == '/') {
                    break;
                }
                token.push(n);
                chars.next();
            }
        } else if c == '\'' {
            for n in chars.by_ref() {
                token.push(n);
                if n == '\'' {
                    break;
                }
            }
        }
        out.push(token);
    }
    out
}

/// Applies `edits` to the corpus text `base`: each edit drops, duplicates,
/// swaps or replaces a token, picked by its numbers.
fn mutate(base: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut tokens = sql_tokens(base);
    for &(kind, at, with) in edits {
        if tokens.is_empty() {
            break;
        }
        let at = at % tokens.len();
        match kind % 4 {
            0 => {
                tokens.remove(at);
            }
            1 => {
                let t = tokens[at].clone();
                tokens.insert(at, t);
            }
            2 => {
                let other = with % tokens.len();
                tokens.swap(at, other);
            }
            _ => tokens[at] = SPLICES[with % SPLICES.len()].to_string(),
        }
    }
    tokens.join(" ")
}

/// The TPC-H-lite and paper scenarios with their designed views.
fn designed() -> &'static [(Catalog, mvdesign::core::ViewCatalog); 2] {
    use mvdesign::core::{Designer, ViewCatalog};
    static DESIGNED: std::sync::OnceLock<[(Catalog, ViewCatalog); 2]> = std::sync::OnceLock::new();
    DESIGNED.get_or_init(|| {
        [
            mvdesign::workload::tpch_lite(),
            mvdesign::workload::paper_example(),
        ]
        .map(|s| {
            let design = Designer::new()
                .design(&s.catalog, &s.workload)
                .expect("pinned scenarios design");
            (s.catalog, ViewCatalog::from_design(&design))
        })
    })
}

/// Parses `text` with and without each scenario's catalog: each parse is
/// `Ok` or `Err` (a panic fails the test), and every `Ok` must route.
fn parse_and_route(text: &str) {
    for (catalog, views) in designed() {
        let parses = [
            mvdesign::algebra::parse_query(text),
            mvdesign::algebra::parse_query_with(text, catalog),
        ];
        for query in parses.into_iter().flatten() {
            let routed = views.route(&query);
            assert_eq!(views.rewrite(&query), routed.plan, "{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sql_front_end_never_panics_on_mutated_corpus_queries(
        base in 0usize..CORPUS_SQL.len(),
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..4),
    ) {
        parse_and_route(&mutate(CORPUS_SQL[base], &edits));
    }
}

#[test]
fn unmutated_corpus_queries_parse_and_route() {
    let (tpch, _) = &designed()[0];
    for sql in CORPUS_SQL {
        mvdesign::algebra::parse_query_with(sql, tpch).expect("corpus SQL parses");
        parse_and_route(sql);
    }
}
