//! Differential battery for morsel-driven parallel execution: on random
//! SPJ + aggregate plans, every join algorithm, int/text/dict join keys,
//! morsel sizes {1, 7, 64, 4096} and thread counts {1, 2, 4}, the parallel
//! engine must produce tables **bit-identical** to the single-threaded
//! kernels — same column representation, same row order, not merely the
//! same bag. The I/O simulator's report must be equally invariant.
//!
//! CI exercises the merge logic even on single-core runners by re-running
//! the battery with the `MVDESIGN_MORSEL_THREADS` env knob (set to `1` and
//! to `0` = all cores), which overrides the sampled thread count.

use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Value,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::engine::{
    execute, measure, selection_mask, Database, ExecContext, Generator, GeneratorConfig, JoinAlgo,
    Table,
};

/// A three-relation catalog with an integer join key, an integer payload and
/// a low-cardinality text attribute per relation.
fn make_catalog(sizes: [u32; 3]) -> Catalog {
    let mut c = Catalog::new();
    for (i, name) in ["R0", "R1", "R2"].iter().enumerate() {
        c.relation(*name)
            .attr("k", AttrType::Int)
            .attr("x", AttrType::Int)
            .attr("t", AttrType::Text)
            .records(f64::from(sizes[i].max(4)))
            .blocks((f64::from(sizes[i].max(4)) / 10.0).ceil())
            .update_frequency(1.0)
            .selectivity("x", 0.3)
            .selectivity("t", 0.3)
            .finish()
            .expect("generated relation is valid");
    }
    c
}

/// The shape of one random query: a chain join (on the integer or the text
/// key), integer and text selections with varying comparison operators
/// (text predicates optionally as one disjunction), and either a projection
/// or a group-by-with-aggregates on top.
#[derive(Debug, Clone)]
struct QuerySpec {
    joins: usize,                          // 0..=2 extra relations
    join_on_text: bool,                    // join on `t` instead of `k`
    select_on: Vec<(usize, usize, i64)>,   // (relation, op index, literal)
    text_select: Vec<(usize, usize, i64)>, // (relation, op index, "v{lit}")
    text_or: bool,                         // OR the text predicates together
    top: usize,                            // 0 = nothing, 1 = project, 2 = aggregate
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        0usize..=2,
        any::<bool>(),
        proptest::collection::vec((0usize..3, 0usize..3, 0i64..6), 0..3),
        proptest::collection::vec((0usize..3, 0usize..3, 0i64..6), 0..3),
        any::<bool>(),
        0usize..3,
    )
        .prop_map(
            |(joins, join_on_text, select_on, text_select, text_or, top)| QuerySpec {
                joins,
                join_on_text,
                select_on,
                text_select,
                text_or,
                top,
            },
        )
}

fn build_query(spec: &QuerySpec) -> Arc<Expr> {
    let key = if spec.join_on_text { "t" } else { "k" };
    let mut expr = Expr::base("R0");
    for i in 1..=spec.joins {
        let prev = format!("R{}", i - 1);
        let cur = format!("R{i}");
        expr = Expr::join(
            expr,
            Expr::base(cur.as_str()),
            JoinCondition::on(AttrRef::new(prev, key), AttrRef::new(cur, key)),
        );
    }
    let ops = [CompareOp::Le, CompareOp::Eq, CompareOp::Gt];
    let mut preds = Vec::new();
    for (rel, op, lit) in &spec.select_on {
        if *rel <= spec.joins {
            preds.push(Predicate::cmp(
                AttrRef::new(format!("R{rel}"), "x"),
                ops[*op],
                *lit,
            ));
        }
    }
    let mut text_preds = Vec::new();
    for (rel, op, lit) in &spec.text_select {
        if *rel <= spec.joins {
            text_preds.push(Predicate::cmp(
                AttrRef::new(format!("R{rel}"), "t"),
                ops[*op],
                Value::text(format!("v{lit}")),
            ));
        }
    }
    if spec.text_or && text_preds.len() >= 2 {
        preds.push(Predicate::or(text_preds));
    } else {
        preds.extend(text_preds);
    }
    expr = Expr::select(expr, Predicate::and(preds));
    match spec.top {
        1 => {
            let mut attrs = vec![AttrRef::new("R0", "t")];
            if spec.joins >= 1 {
                attrs.push(AttrRef::new("R1", "x"));
            }
            Expr::project(expr, attrs)
        }
        2 => Expr::aggregate(
            expr,
            [AttrRef::new("R0", "t")],
            [
                AggExpr::new(AggFunc::Sum, AttrRef::new("R0", "x"), "sx"),
                AggExpr::new(AggFunc::Min, AttrRef::new("R0", "k"), "mk"),
                AggExpr::count_star("n"),
            ],
        ),
        _ => expr,
    }
}

/// A generated database: every text column arrives dictionary-encoded, so
/// text-keyed plans exercise the dict code paths.
fn dict_db(catalog: &Catalog, seed: u64) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 1.0,
        max_rows: 60,
    })
    .database(catalog)
}

/// The same data rebuilt through the row-major constructor, which stores
/// text as plain `Text` columns — so the identical plans also exercise the
/// non-dictionary (plain text / `Vec<Value>` key) kernels.
fn plain_text_db(db: &Database) -> Database {
    let mut plain = Database::new();
    for (name, t) in db.iter() {
        plain.insert_table(Table::new(
            name.clone(),
            t.attrs().to_vec(),
            t.rows().to_vec(),
        ));
    }
    plain
}

/// The thread count the battery runs at: the sampled value, unless the
/// `MVDESIGN_MORSEL_THREADS` env knob overrides it (CI sets `1` and `0` =
/// all cores so single-core runners still exercise the merge logic).
fn effective_threads(sampled: usize) -> usize {
    match std::env::var("MVDESIGN_MORSEL_THREADS") {
        Ok(v) => v.parse().expect("MVDESIGN_MORSEL_THREADS is a number"),
        Err(_) => sampled,
    }
}

/// The operator memory budget the battery runs at: unlimited, unless the
/// `MVDESIGN_MEM_BUDGET` env knob sets one (CI's low-memory job sets a few
/// hundred bytes, forcing the Grace hash-join and spilling-aggregation
/// paths under every context — results must not move).
fn env_mem_budget() -> Option<usize> {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
}

const MORSEL_SIZES: [usize; 4] = [1, 7, 64, 4096];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: for random plans × join algorithms × key
    /// encodings × morsel sizes × thread counts, the morsel engine's output
    /// table equals the single-threaded engine's **bit for bit**.
    #[test]
    fn morsel_engine_is_bit_identical_to_single_threaded(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..150),
        seed in 0u64..1_000,
        morsel_sel in 0usize..MORSEL_SIZES.len(),
        threads_sel in 0usize..THREAD_COUNTS.len(),
        plain_text in any::<bool>(),
    ) {
        let catalog = make_catalog(sizes);
        let generated = dict_db(&catalog, seed);
        let db = if plain_text { plain_text_db(&generated) } else { generated };
        let q = build_query(&spec);
        for join_algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let single = ExecContext { join_algo, ..ExecContext::default() };
            let ctx = ExecContext {
                join_algo,
                threads: effective_threads(THREAD_COUNTS[threads_sel]),
                morsel_rows: MORSEL_SIZES[morsel_sel],
                mem_budget: env_mem_budget(),
            };
            let sequential = execute(&q, &db, &single).expect("single-threaded executes");
            let parallel = execute(&q, &db, &ctx).expect("morsel engine executes");
            prop_assert_eq!(
                sequential.batch(),
                parallel.batch(),
                "bit-identity broken with {:?} for {:?}",
                ctx,
                spec
            );
        }
    }

    /// Parallel selection masks equal the adaptive single-threaded mask on
    /// every morsel size — including morsel_rows = 1 and 7, which put a
    /// morsel boundary inside every run of surviving rows.
    #[test]
    fn parallel_masks_are_bit_identical(
        sizes in proptest::array::uniform3(64u32..600, ),
        seed in 0u64..1_000,
        int_preds in proptest::collection::vec((0usize..3, 0i64..6), 0..4),
        text_preds in proptest::collection::vec((0usize..3, 0i64..6), 0..4),
        use_or in any::<bool>(),
        morsel_sel in 0usize..MORSEL_SIZES.len(),
        threads_sel in 0usize..THREAD_COUNTS.len(),
    ) {
        let catalog = make_catalog(sizes);
        let db = Generator::with_config(GeneratorConfig {
            seed,
            scale: 1.0,
            max_rows: 600,
        })
        .database(&catalog);
        let ops = [CompareOp::Le, CompareOp::Eq, CompareOp::Gt];
        let mut preds: Vec<Predicate> = int_preds
            .iter()
            .map(|(op, lit)| Predicate::cmp(AttrRef::new("R0", "x"), ops[*op], *lit))
            .collect();
        let texts: Vec<Predicate> = text_preds
            .iter()
            .map(|(op, lit)| {
                Predicate::cmp(AttrRef::new("R0", "t"), ops[*op], Value::text(format!("v{lit}")))
            })
            .collect();
        if use_or && texts.len() >= 2 {
            preds.push(Predicate::or(texts));
        } else {
            preds.extend(texts);
        }
        let p = Predicate::and(preds);
        let batch = db.table("R0").expect("table generated").batch();
        let ctx = ExecContext {
            threads: effective_threads(THREAD_COUNTS[threads_sel]),
            morsel_rows: MORSEL_SIZES[morsel_sel],
            mem_budget: env_mem_budget(),
            ..ExecContext::default()
        };
        let sequential =
            selection_mask(&p, batch, &ExecContext::default()).expect("mask evaluates");
        let parallel = selection_mask(&p, batch, &ctx).expect("parallel mask evaluates");
        prop_assert_eq!(sequential, parallel);
    }

    /// The I/O simulator charges per logical batch, so its report (and its
    /// result table) is invariant under any execution context.
    #[test]
    fn iosim_reports_are_context_invariant(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..100),
        seed in 0u64..500,
        bf in 1u32..40,
        morsel_sel in 0usize..MORSEL_SIZES.len(),
        threads_sel in 0usize..THREAD_COUNTS.len(),
    ) {
        let catalog = make_catalog(sizes);
        let db = dict_db(&catalog, seed);
        let q = build_query(&spec);
        let ctx = ExecContext {
            threads: effective_threads(THREAD_COUNTS[threads_sel]),
            morsel_rows: MORSEL_SIZES[morsel_sel],
            mem_budget: env_mem_budget(),
            ..ExecContext::default()
        };
        let (base_table, base_io) = measure(&q, &db, f64::from(bf), &ExecContext::default())
            .expect("iosim executes");
        let (table, io) = measure(&q, &db, f64::from(bf), &ctx)
            .expect("parallel iosim executes");
        prop_assert_eq!(base_io, io);
        prop_assert_eq!(base_table.batch(), table.batch());
    }
}

/// A deterministic fixture where join matches and duplicate groups straddle
/// every morsel boundary: 1,000 left rows over 11 keys joined against 121
/// right rows, aggregated over two group columns, at morsel sizes that do
/// not divide the row count.
#[test]
fn morsel_boundaries_do_not_reorder_output() {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "L",
        [
            AttrRef::new("L", "id"),
            AttrRef::new("L", "k"),
            AttrRef::new("L", "g"),
        ],
        (0..1_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 11), Value::Int(i % 4)])
            .collect(),
    ));
    db.insert_table(Table::new(
        "R",
        [AttrRef::new("R", "k")],
        (0..121).map(|j| vec![Value::Int(j % 11)]).collect(),
    ));
    let q = Expr::aggregate(
        Expr::join(
            Expr::base("L"),
            Expr::base("R"),
            JoinCondition::on(AttrRef::new("L", "k"), AttrRef::new("R", "k")),
        ),
        [AttrRef::new("L", "g")],
        [
            AggExpr::new(AggFunc::Sum, AttrRef::new("L", "id"), "total"),
            AggExpr::new(AggFunc::Min, AttrRef::new("L", "id"), "lo"),
            AggExpr::new(AggFunc::Max, AttrRef::new("L", "id"), "hi"),
            AggExpr::count_star("n"),
        ],
    );
    for join_algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
        let single = ExecContext {
            join_algo,
            ..ExecContext::default()
        };
        let sequential = execute(&q, &db, &single).expect("sequential");
        for morsel_rows in MORSEL_SIZES {
            for threads in [2, 4, 8] {
                let ctx = ExecContext {
                    join_algo,
                    threads,
                    morsel_rows,
                    mem_budget: env_mem_budget(),
                };
                let parallel = execute(&q, &db, &ctx).expect("parallel");
                assert_eq!(sequential.batch(), parallel.batch(), "differs at {ctx:?}");
            }
        }
    }
}

/// `threads: 0` (all cores) is a valid context everywhere the battery runs.
#[test]
fn all_cores_context_matches_sequential() {
    let catalog = make_catalog([120, 60, 60]);
    let db = dict_db(&catalog, 42);
    let q = build_query(&QuerySpec {
        joins: 2,
        join_on_text: true,
        select_on: vec![(0, 0, 3)],
        text_select: vec![(1, 1, 2)],
        text_or: false,
        top: 2,
    });
    let single = ExecContext {
        join_algo: JoinAlgo::Hash,
        ..ExecContext::default()
    };
    let ctx = ExecContext {
        threads: 0,
        morsel_rows: 16,
        mem_budget: env_mem_budget(),
        ..single
    };
    let sequential = execute(&q, &db, &single).expect("sequential");
    let parallel = execute(&q, &db, &ctx).expect("all cores");
    assert_eq!(sequential.batch(), parallel.batch());
}
