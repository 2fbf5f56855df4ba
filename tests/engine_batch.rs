//! Differential tests for the columnar batch engine: on random
//! select-project-join-aggregate expressions over randomly generated data,
//! the batch kernels must produce exactly the bag of tuples the preserved
//! tuple-at-a-time reference engine produces — for every join algorithm.
//!
//! A fixture-based regression pins the I/O simulator's block totals, which
//! must not move under per-batch accounting (every charge is a function of
//! row counts alone).

use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Value,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::engine::{
    execute, measure, selection_mask, BufferPool, Database, ExecContext, Generator,
    GeneratorConfig, JoinAlgo, Table,
};
use mvdesign_verify::row_reference;

const ALGOS: [JoinAlgo; 3] = [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge];

/// The mask the row reference computes: its per-row predicate evaluation
/// over every row of the table, sharing no kernel with the engine.
fn row_wise_mask(p: &Predicate, table: &Table) -> Vec<bool> {
    table
        .rows()
        .iter()
        .map(|row| row_reference::eval_predicate(p, table, row).expect("row oracle evaluates"))
        .collect()
}

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

/// The shape of one random query: a chain join (on the integer or the
/// dictionary-encoded text key), integer and text selections with varying
/// comparison operators (text predicates optionally as one disjunction),
/// and either a projection or a group-by-with-aggregates on top.
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
    // Text predicates hit the dictionary-encoded columns; with `text_or`
    // they become one disjunction (the paper's pushed-down disjunctive
    // selects), exercising the OR side of selection-vector evaluation.
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

    /// The batch engine and the row-reference oracle agree — as bags, for
    /// every join algorithm — on random SPJ + aggregate plans.
    #[test]
    fn batch_matches_row_reference_on_random_plans(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..150),
        seed in 0u64..1_000,
    ) {
        let catalog = make_catalog(sizes);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        for algo in ALGOS {
            let ctx = ExecContext { join_algo: algo, ..ExecContext::default() };
            let batch = execute(&q, &db, &ctx)
                .expect("batch engine executes")
                .canonicalized();
            let reference = row_reference::execute(&q, &db, algo)
                .expect("row reference executes")
                .canonicalized();
            prop_assert_eq!(
                batch.rows(),
                reference.rows(),
                "bag mismatch under {:?} for {:?}",
                algo,
                spec
            );
        }
    }

    /// The I/O simulator's result table carries exactly the rows the batch
    /// engine computes, regardless of the blocking factor.
    #[test]
    fn iosim_result_matches_engine_on_random_plans(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..100),
        seed in 0u64..500,
        bf in 1u32..40,
    ) {
        let catalog = make_catalog(sizes);
        let db = small_db(&catalog, seed);
        let q = build_query(&spec);
        let (measured, report) = measure(&q, &db, f64::from(bf), &ExecContext::default()).expect("iosim executes");
        let direct = execute(&q, &db, &ExecContext::default()).expect("engine executes");
        prop_assert_eq!(report.rows_out, direct.len());
        prop_assert_eq!(
            measured.canonicalized().rows(),
            direct.canonicalized().rows()
        );
        prop_assert!(report.total() >= 0.0 && report.total().is_finite());
    }

    /// Selection-vector short-circuiting must produce bit-identical masks
    /// to the row reference's row-at-a-time evaluation on random
    /// conjunctive/disjunctive predicates over batches large enough to
    /// trigger the switch.
    #[test]
    fn short_circuit_masks_are_bit_identical(
        rows in 8u32..600,
        seed in 0u64..1_000,
        int_preds in proptest::collection::vec((0usize..3, 0i64..6), 0..4),
        text_preds in proptest::collection::vec((0usize..3, 0i64..6), 0..4),
        use_or in any::<bool>(),
    ) {
        let catalog = make_catalog([rows, 8, 8]);
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
        let table = db.table("R0").expect("table generated");
        let fast = selection_mask(&p, table.batch(), &ExecContext::default())
            .expect("adaptive mask evaluates");
        prop_assert_eq!(fast, row_wise_mask(&p, table));
    }
}

/// The proptests above genuinely exercise the dictionary kernels: the
/// generator emits every text column dictionary-encoded.
#[test]
fn generated_text_columns_are_dict_backed() {
    let catalog = make_catalog([50, 50, 50]);
    let db = small_db(&catalog, 7);
    for r in ["R0", "R1", "R2"] {
        let t = db.table(r).expect("table generated");
        let idx = t
            .attrs()
            .iter()
            .position(|a| a.attr.as_str() == "t")
            .expect("t attribute");
        assert!(
            t.batch().column(idx).dict_values().is_some(),
            "{r}.t is not dictionary-encoded"
        );
    }
}

/// A deterministic regression for the selection-vector switch itself: the
/// first conjunct keeps 1% of 1,000 rows (well under the 1/8 density
/// threshold), so the remaining conjuncts run in survivor-index mode — and
/// the mask must still be bit-identical to row-at-a-time evaluation. The OR
/// case mirrors it: the first disjunct accepts 99% of rows, so later
/// disjuncts only visit the undecided 1%.
#[test]
fn selection_vector_switch_is_bit_identical_on_dense_fixture() {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "R",
        [AttrRef::new("R", "a"), AttrRef::new("R", "b")],
        (0..1_000)
            .map(|i| vec![Value::Int(i % 100), Value::Int(i % 3)])
            .collect(),
    ));
    let table = db.table("R").expect("table");
    let ctx = ExecContext::default();

    let and = Predicate::and([
        Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Eq, 5),
        Predicate::cmp(AttrRef::new("R", "b"), CompareOp::Gt, 0),
    ]);
    let fast = selection_mask(&and, table.batch(), &ctx).expect("evaluates");
    assert_eq!(fast, row_wise_mask(&and, table));
    assert_eq!(fast.iter().filter(|&&m| m).count(), 7); // i%100==5 ∧ i%3>0

    let or = Predicate::or([
        Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Ne, 5),
        Predicate::cmp(AttrRef::new("R", "b"), CompareOp::Eq, 1),
    ]);
    let fast = selection_mask(&or, table.batch(), &ctx).expect("evaluates");
    assert_eq!(fast, row_wise_mask(&or, table));
    assert_eq!(fast.iter().filter(|&&m| m).count(), 993); // ¬(a=5 ∧ b≠1)
}

/// A deterministic fixture: `R` has 100 rows (k = i mod 7, x = i mod 10) and
/// `S` has 30 rows (k = j mod 7).
fn fixture_db() -> Database {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "R",
        [AttrRef::new("R", "k"), AttrRef::new("R", "x")],
        (0..100)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i % 10)])
            .collect(),
    ));
    db.insert_table(Table::new(
        "S",
        [AttrRef::new("S", "k")],
        (0..30).map(|j| vec![Value::Int(j % 7)]).collect(),
    ));
    db
}

/// Selection over 100 rows at 10 records/block: 10 blocks read, and the 50
/// surviving rows (x < 5) cost 5 blocks written. These totals are the ones
/// the tuple-at-a-time engine reported and must not move under per-batch
/// accounting.
#[test]
fn iosim_selection_block_counts_are_unchanged() {
    let db = fixture_db();
    let q = Expr::select(
        Expr::base("R"),
        Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Lt, 5),
    );
    let (out, report) = measure(&q, &db, 10.0, &ExecContext::default()).expect("iosim executes");
    assert_eq!(out.len(), 50);
    assert_eq!(report.blocks_read, 10.0);
    assert_eq!(report.blocks_written, 5.0);
    assert_eq!(report.total(), 15.0);
}

/// Nested-loop join accounting: 10 outer blocks x 3 inner blocks read, and
/// the 430 matches (15*5*2 + 14*4*5) write ceil(430/10) = 43 blocks.
#[test]
fn iosim_join_block_counts_are_unchanged() {
    let db = fixture_db();
    let q = Expr::join(
        Expr::base("R"),
        Expr::base("S"),
        JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k")),
    );
    let (out, report) = measure(&q, &db, 10.0, &ExecContext::default()).expect("iosim executes");
    assert_eq!(out.len(), 430);
    assert_eq!(report.blocks_read, 30.0);
    assert_eq!(report.blocks_written, 43.0);
    assert_eq!(report.total(), 73.0);
}

/// Aggregation accounting: the 100-row input costs 10 blocks read and the 7
/// groups (k = 0..6) cost 1 block written.
#[test]
fn iosim_aggregate_block_counts_are_unchanged() {
    let db = fixture_db();
    let q = Expr::aggregate(
        Expr::base("R"),
        [AttrRef::new("R", "k")],
        [AggExpr::new(AggFunc::Sum, AttrRef::new("R", "x"), "sx")],
    );
    let (out, report) = measure(&q, &db, 10.0, &ExecContext::default()).expect("iosim executes");
    assert_eq!(out.len(), 7);
    assert_eq!(report.blocks_read, 10.0);
    assert_eq!(report.blocks_written, 1.0);
    assert_eq!(report.total(), 11.0);
}

/// `push_row` (via [`Table::extend_rows`]) on a table whose columns are
/// shared with a paged twin must copy-on-write: the append lands in the
/// extended handle only, while the pool-backed pages — and every other
/// handle still reading them — keep the original values. Covered at both a
/// single page per column (the materialised batch can share the frame's
/// `Arc` directly) and multiple pages per column.
#[test]
fn push_row_on_a_shared_page_copies_before_writing() {
    for page_rows in [4usize, 16] {
        let mut original = Table::new(
            "S",
            [AttrRef::new("S", "a"), AttrRef::new("S", "t")],
            (0..10)
                .map(|i| vec![Value::Int(i), Value::text(format!("v{}", i % 3))])
                .collect(),
        );
        let pool = BufferPool::new(None);
        original.page_out(&pool, page_rows);
        let twin = original.clone();
        let mut extended = original.clone();
        extended.extend_rows(vec![vec![Value::Int(99), Value::text("fresh")]]);
        assert_eq!(extended.len(), 11);
        assert_eq!(extended.batch().column(0).value(10), Value::Int(99));
        // The paged twin and the original handle still read the old pages.
        for t in [&twin, &original] {
            assert_eq!(t.len(), 10, "page mutated through a shared handle");
            assert_eq!(t.batch().column(0).value(9), Value::Int(9));
            assert_eq!(t.batch().column(1).value(9), Value::text("v0"));
        }
    }
}

/// A join over a paged input gathers its payload page-on-demand; with three
/// rows per page and match indices scattered across the whole table, every
/// gathered run spans page boundaries — and must stay bit-identical to the
/// resident gather, dictionary tables included.
#[test]
fn paged_gather_spanning_page_boundaries_matches_resident() {
    let mut resident = Database::new();
    resident.insert_table(Table::new(
        "L",
        [
            AttrRef::new("L", "id"),
            AttrRef::new("L", "k"),
            AttrRef::new("L", "t"),
        ],
        (0..13)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::text(format!("v{}", i % 5)),
                ]
            })
            .collect(),
    ));
    resident.insert_table(Table::new(
        "R",
        [AttrRef::new("R", "k")],
        // Duplicate keys: each match gathers several L rows from
        // non-adjacent pages.
        (0..8).map(|j| vec![Value::Int(j % 4)]).collect(),
    ));
    let q = Expr::join(
        Expr::base("L"),
        Expr::base("R"),
        JoinCondition::on(AttrRef::new("L", "k"), AttrRef::new("R", "k")),
    );
    let mut paged = resident.clone();
    let pool = BufferPool::new(Some(0));
    paged.page_out(&pool, 3);
    for join_algo in ALGOS {
        let ctx = ExecContext {
            join_algo,
            ..ExecContext::default()
        };
        let base = execute(&q, &resident, &ctx).expect("resident");
        let out = execute(&q, &paged, &ctx).expect("paged");
        assert_eq!(base.batch(), out.batch(), "{join_algo:?} gather differs");
    }
    assert!(
        pool.stats().misses > 0,
        "a zero-byte pool must re-read pages"
    );
}

/// Filtering down to zero rows — and filtering a zero-row table — must
/// produce the same empty batch (same attrs, same column variants) whether
/// the input is resident or paged. A zero-row table pages out to zero
/// pages, so this also covers the empty `PagedBatch` round-trip.
#[test]
fn empty_batch_filter_matches_resident_and_paged() {
    let attrs = [AttrRef::new("E", "a"), AttrRef::new("E", "t")];
    let none_match = Expr::select(
        Expr::base("E"),
        Predicate::cmp(AttrRef::new("E", "a"), CompareOp::Gt, 1_000),
    );
    for rows in [0usize, 9] {
        let mut resident = Database::new();
        resident.insert_table(Table::new(
            "E",
            attrs.clone(),
            (0..rows as i64)
                .map(|i| vec![Value::Int(i), Value::text(format!("v{}", i % 2))])
                .collect(),
        ));
        let mut paged = resident.clone();
        let pool = BufferPool::new(None);
        paged.page_out(&pool, 4);
        let ctx = ExecContext::default();
        let base = execute(&none_match, &resident, &ctx).expect("resident");
        let out = execute(&none_match, &paged, &ctx).expect("paged");
        assert_eq!(base.len(), 0);
        assert_eq!(
            base.batch(),
            out.batch(),
            "empty filter differs at {rows} rows"
        );
        assert_eq!(out.attrs(), &attrs, "attrs lost through an empty filter");
    }
}
