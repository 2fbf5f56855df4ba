//! Differential tests for the columnar batch engine: on random
//! select-project-join-aggregate expressions over randomly generated data,
//! the batch kernels must produce exactly the rows, in exactly the order,
//! the preserved tuple-at-a-time reference engine produces — over
//! dictionary-encoded and plain-text keys, resident and paged.
//!
//! A fixture-based regression pins the I/O simulator's block totals, which
//! must not move under per-batch accounting (every charge is a function of
//! row counts alone).
//!
//! `MVDESIGN_MEM_BUDGET` (bytes) overrides every pool and operator budget
//! the kernel batteries below draw, the way `engine_paged.rs` reads it:
//! tier-1 reruns this file at 256 bytes, so the typed group-by kernel, its
//! spilled twin and the chain table inside the Grace join are diffed
//! against the row reference at the forced-spill budget on every PR, and
//! at 65 536 bytes, where some operators spill and others do not. Every
//! battery run goes through `measure` and its held-bytes oracle
//! ([`assert_held_within`]): what an operator that did not spill held is
//! within half the budget.

use std::mem::size_of;
use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Value,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::ViewCatalog;
use mvdesign::engine::{
    execute, materialize_view, measure, selection_mask, Batch, BufferPool, Column, Database,
    ExecContext, ExecError, Generator, GeneratorConfig, IoReport, OpCharge, Table,
};
use mvdesign::prelude::Designer;
use mvdesign::workload::tpch_lite;
use mvdesign_verify::row_reference;

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

/// The same data rebuilt through the row-major constructor, which stores
/// text as plain `Text` columns — so the identical plans also take the
/// hashed-key join and group-by paths (row hashes confirmed on the columns).
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

/// The same data with every relation's integer key `k` moved into a compact
/// domain from `offset`: `R1` and `R2` hold each key once, so a join into
/// them builds unique direct heads and probes without a branch per row, and
/// `R0`'s keys spread over twice the largest relation, so about half of its
/// probe rows miss.
fn compact_keys(db: &Database, offset: i64) -> Database {
    let widest = db.iter().map(|(_, t)| t.len()).max().unwrap_or(1) as i64;
    let mut out = Database::new();
    for (name, t) in db.iter() {
        let batch = t.batch();
        let at = batch
            .index_of(&AttrRef::new(name.clone(), "k"))
            .expect("every relation has k");
        let rows = batch.rows() as i64;
        let keys = if name.as_str() == "R0" {
            (0..rows)
                .map(|r| offset + (r * 7 + 3) % (2 * widest))
                .collect()
        } else {
            (0..rows).map(|r| offset + r).collect()
        };
        let mut columns = batch.columns().to_vec();
        columns[at] = Arc::new(Column::Int(keys));
        let batch = Batch::new(batch.attrs().to_vec(), columns);
        out.insert_table(Table::from_batch(name.clone(), batch));
    }
    out
}

/// The byte budget a battery runs at: the drawn one, unless the
/// `MVDESIGN_MEM_BUDGET` env knob overrides it (tier-1's low-memory rerun
/// sets a value small enough to force eviction and spill everywhere).
fn effective_budget(drawn: Option<usize>) -> Option<usize> {
    match std::env::var("MVDESIGN_MEM_BUDGET") {
        Ok(v) => Some(v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count")),
        Err(_) => drawn,
    }
}

/// A copy of `db` with every table paged into a zero-byte pool (or the env
/// knob's): every pin is a miss, so paged kernels really stream.
fn paged_twin(db: &Database, page_rows: usize) -> Database {
    let mut paged = db.clone();
    paged.rehome(Some(&BufferPool::new(effective_budget(Some(0)))), page_rows);
    paged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch engine and the row-reference oracle agree **row for row**
    /// — the join emits the reference's nested-loop order, the group-by its
    /// key order — on random SPJ + aggregate plans, over dictionary-encoded
    /// and plain-text columns, generated or compact unique integer keys,
    /// resident and paged, at the environment's operator budget.
    #[test]
    fn batch_matches_row_reference_on_random_plans(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..150),
        seed in 0u64..1_000,
        plain_text in any::<bool>(),
        compact in any::<bool>(),
        offset in -64i64..64,
    ) {
        let catalog = make_catalog(sizes);
        let generated = small_db(&catalog, seed);
        let db = if plain_text { plain_text_db(&generated) } else { generated };
        let db = if compact { compact_keys(&db, offset) } else { db };
        let paged = paged_twin(&db, 7);
        let q = build_query(&spec);
        let ctx = ExecContext { mem_budget: effective_budget(None) };
        let reference = row_reference::execute(&q, &db).expect("row reference executes");
        for (name, db) in [("resident", &db), ("paged", &paged)] {
            let (batch, report) = measure(&q, db, 10.0, &ctx).expect("batch engine executes");
            assert_held_within(&report, ctx.mem_budget, 0, name);
            prop_assert_eq!(
                batch.rows(),
                reference.rows(),
                "rows differ, {} (plain text: {}) for {:?}",
                name,
                plain_text,
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
        let fast = selection_mask(&p, table.batch()).expect("adaptive mask evaluates");
        prop_assert_eq!(fast, row_wise_mask(&p, table));
    }

    /// Required-column propagation is invisible: projecting a plan onto any
    /// subset `A` of its output attributes — which lets the walker prune
    /// every operator below the π to what `A` needs — yields, **bit for
    /// bit** (columns, representation, row order), the unprojected plan's
    /// result with `select_columns(A)`. Resident and paged.
    #[test]
    fn projection_pushdown_is_bit_identical_to_projecting_the_result(
        spec in query_strategy(),
        sizes in proptest::array::uniform3(8u32..100),
        seed in 0u64..1_000,
        subset in 1u32..512,
        reversed in any::<bool>(),
    ) {
        let catalog = make_catalog(sizes);
        let db = small_db(&catalog, seed);
        let paged = paged_twin(&db, 7);
        let q = build_query(&spec);
        let ctx = ExecContext { mem_budget: effective_budget(None) };
        let full = execute(&q, &db, &ctx).expect("plan executes");
        let mut idx: Vec<usize> = (0..full.attrs().len())
            .filter(|i| subset >> i & 1 == 1)
            .collect();
        if idx.is_empty() {
            idx.push(0);
        }
        if reversed {
            idx.reverse();
        }
        let expected = full.batch().select_columns(&idx);
        let projected = Expr::project(
            Arc::clone(&q),
            idx.iter().map(|&i| full.attrs()[i].clone()),
        );
        for (name, db) in [("resident", &db), ("paged", &paged)] {
            let out = execute(&projected, db, &ctx).expect("projected plan executes");
            prop_assert_eq!(
                out.batch(),
                &expected,
                "π{:?} differs, {} for {:?}",
                idx,
                name,
                spec
            );
        }
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

    let and = Predicate::and([
        Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Eq, 5),
        Predicate::cmp(AttrRef::new("R", "b"), CompareOp::Gt, 0),
    ]);
    let fast = selection_mask(&and, table.batch()).expect("evaluates");
    assert_eq!(fast, row_wise_mask(&and, table));
    assert_eq!(fast.iter().filter(|&&m| m).count(), 7); // i%100==5 ∧ i%3>0

    let or = Predicate::or([
        Predicate::cmp(AttrRef::new("R", "a"), CompareOp::Ne, 5),
        Predicate::cmp(AttrRef::new("R", "b"), CompareOp::Eq, 1),
    ]);
    let fast = selection_mask(&or, table.batch()).expect("evaluates");
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
    paged.rehome(Some(&pool), 3);
    let ctx = ExecContext::default();
    let base = execute(&q, &resident, &ctx).expect("resident");
    let out = execute(&q, &paged, &ctx).expect("paged");
    assert_eq!(base.batch(), out.batch(), "gather differs");
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
        paged.rehome(Some(&pool), 4);
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

/// A γ or ⋈ naming an attribute its input lacks reports that attribute,
/// whatever the walker pruned beneath it: the expected errors below are the
/// ones the engine returned before it pruned anything. The γ's input is a
/// join, and the ⋈ sits under a π and under a γ, so in each plan the
/// operator that fails has a consumer asking for fewer columns than exist.
#[test]
fn missing_attributes_report_the_same_error_under_pruning() {
    let db = fixture_db();
    let join = |on: JoinCondition| Expr::join(Expr::base("R"), Expr::base("S"), on);
    let good = JoinCondition::on(AttrRef::new("R", "k"), AttrRef::new("S", "k"));
    let ghost = AttrRef::new("R", "ghost");
    let sum_x = || AggExpr::new(AggFunc::Sum, AttrRef::new("R", "x"), "sx");
    let plans: Vec<(Arc<Expr>, AttrRef)> = vec![
        // γ groups by a missing attribute, then aggregates one.
        (
            Expr::aggregate(join(good.clone()), [ghost.clone()], [sum_x()]),
            ghost.clone(),
        ),
        (
            Expr::aggregate(
                join(good.clone()),
                [AttrRef::new("R", "k")],
                [
                    sum_x(),
                    AggExpr::new(AggFunc::Min, AttrRef::new("S", "ghost"), "m"),
                ],
            ),
            AttrRef::new("S", "ghost"),
        ),
        // ⋈ on a missing attribute, under a π that needs one column…
        (
            Expr::project(
                join(JoinCondition::on(ghost.clone(), AttrRef::new("S", "k"))),
                [AttrRef::new("R", "x")],
            ),
            ghost.clone(),
        ),
        // …and under a γ, second pair of two.
        (
            Expr::aggregate(
                join(JoinCondition::new([
                    (AttrRef::new("R", "k"), AttrRef::new("S", "k")),
                    (AttrRef::new("S", "ghost"), AttrRef::new("R", "x")),
                ])),
                [AttrRef::new("R", "k")],
                [AggExpr::count_star("n")],
            ),
            // A pair is reported by its first attribute in the condition's
            // normalised order, found or not.
            AttrRef::new("R", "x"),
        ),
        // A π naming a missing attribute after an existing one, above a
        // join that could have pruned to the existing one alone.
        (
            Expr::project(
                join(good.clone()),
                [AttrRef::new("R", "x"), AttrRef::new("S", "ghost")],
            ),
            AttrRef::new("S", "ghost"),
        ),
    ];
    let paged = paged_twin(&db, 7);
    let ctx = ExecContext {
        mem_budget: effective_budget(None),
    };
    for (plan, missing) in &plans {
        for db in [&db, &paged] {
            assert_eq!(
                execute(plan, db, &ctx).expect_err("plan names a missing attribute"),
                ExecError::MissingAttr(missing.clone()),
                "{plan}"
            );
        }
        assert_eq!(
            row_reference::execute(plan, &db).expect_err("reference agrees"),
            ExecError::MissingAttr(missing.clone()),
        );
    }
}

/// `measure` is untouched by pruning: a γ over a ⋈ whose 12-column left
/// input is pruned to two columns on the way up is charged exactly what its
/// row counts say — the whole `charges()` vector, computed here from the
/// fixture's arithmetic alone.
#[test]
fn iosim_charges_over_a_wide_pruned_join_are_row_counts_alone() {
    let mut db = fixture_db();
    let wide: Vec<AttrRef> = (0..12)
        .map(|c| AttrRef::new("W", format!("c{c}")))
        .collect();
    db.insert_table(Table::new(
        "W",
        wide.clone(),
        (0..95i64)
            .map(|i| (0..12).map(|c| Value::Int((i + c) % 7)).collect())
            .collect(),
    ));
    // W.c0 = i mod 7 over 95 rows; S.k = j mod 7 over 30 rows.
    let q = Expr::aggregate(
        Expr::join(
            Expr::base("W"),
            Expr::base("S"),
            JoinCondition::on(wide[0].clone(), AttrRef::new("S", "k")),
        ),
        [wide[3].clone()],
        [AggExpr::new(AggFunc::Sum, wide[5].clone(), "s")],
    );
    let per_key = |n: i64, k: i64| (n - k + 6) / 7; // rows with value k among 0..n mod 7
    let matches: i64 = (0..7).map(|k| per_key(95, k) * per_key(30, k)).sum();
    let blocks = |rows: i64| (rows as f64 / 10.0).ceil();
    let expected = [
        ("⋈", blocks(95) * blocks(30), blocks(matches), 0),
        ("γ", blocks(matches), blocks(7), 0),
    ];
    let ctx = ExecContext::default();
    let (out, report) = measure(&q, &db, 10.0, &ctx).expect("iosim executes");
    assert_eq!(out.len(), 7);
    let modelled: Vec<(&str, f64, f64, u64)> = report
        .charges()
        .iter()
        .map(|c: &OpCharge| (c.op, c.read, c.written, c.pool_misses))
        .collect();
    assert_eq!(modelled, expected);
    assert_eq!(
        out.batch(),
        execute(&q, &db, &ctx).expect("executes").batch()
    );
}

/// The held-bytes oracle over one measured run at `budget`: unbounded,
/// nothing spills; under a budget, an operator that did not spill held at
/// most half of it, and so did every partition of one that did — except a
/// γ partition down to a single group whose accumulators alone outgrow
/// half the budget (no partitioning splits a group), which holds no more
/// than `one_group` (see [`one_group_state`]).
fn assert_held_within(report: &IoReport, budget: Option<usize>, one_group: usize, what: &str) {
    for c in report.charges() {
        match budget {
            None => assert!(!c.spilled, "{what}: spilled with no budget: {c:?}"),
            Some(b) => assert!(
                c.state_bytes <= b / 2 || c.spilled && c.op == "γ" && c.state_bytes <= one_group,
                "{what}: held {} B under a {b} B budget: {c:?}",
                c.state_bytes
            ),
        }
    }
}

/// The largest single-group state of `q`'s γ operators: what they hold
/// under a one-byte budget, which cuts every spill partition down to one
/// group.
fn one_group_state(q: &Arc<Expr>, db: &Database) -> usize {
    let ctx = ExecContext {
        mem_budget: Some(1),
    };
    let (_, io) = measure(q, db, 10.0, &ctx).expect("plan measures at one byte");
    io.charges()
        .iter()
        .filter(|c| c.op == "γ")
        .map(|c| c.state_bytes)
        .max()
        .unwrap_or(0)
}

/// Runs `q` at both operator budgets of the kernel batteries — unbounded
/// and 256 bytes (the env knob overrides both) — resident and paged: each
/// result must equal the row reference's row for row, all of them must be
/// bit-identical to one another, and every run must pass the held-bytes
/// oracle. Returns the (common) result.
fn assert_battery(q: &Arc<Expr>, db: &Database, what: &str) -> Table {
    let reference = row_reference::execute(q, db).expect("row reference executes");
    let paged = paged_twin(db, 5);
    let one_group = one_group_state(q, db);
    let mut first: Option<Table> = None;
    for budget in [None, Some(256)] {
        let ctx = ExecContext {
            mem_budget: effective_budget(budget),
        };
        for db in [db, &paged] {
            let (out, report) = measure(q, db, 10.0, &ctx).expect("engine executes");
            assert_held_within(&report, ctx.mem_budget, one_group, what);
            assert_eq!(
                out.rows(),
                reference.rows(),
                "{what}: ≠ row reference at {ctx:?}"
            );
            let first = first.get_or_insert_with(|| out.clone());
            assert_eq!(out.batch(), first.batch(), "{what}: bits differ at {ctx:?}");
        }
    }
    first.expect("at least one budget")
}

fn dict_column(codes: Vec<u32>, values: &[&str]) -> Arc<Column> {
    let table: Vec<Arc<str>> = values.iter().map(|s| Arc::from(*s)).collect();
    Arc::new(Column::dict(codes, table.into()))
}

/// One relation `T` for the group-by battery: a dictionary key with unused
/// entries, an integer key that takes the extreme `i64` values, a
/// date key, and integer / date / dictionary aggregate inputs.
fn group_by_db(rows: usize) -> Database {
    let n = rows as i64;
    let attrs = ["d", "i", "dt", "v", "when", "tag"].map(|a| AttrRef::new("T", a));
    // Codes 0, 2 and 5 of the eight-entry dictionary never occur, and the
    // first group to appear is neither the smallest code nor string.
    let d = dict_column(
        (0..n)
            .map(|r| [6u32, 1, 4, 3, 7, 1][r as usize % 6])
            .collect(),
        &["a0", "z1", "b2", "y3", "c4", "x5", "d6", "w7"],
    );
    let i = Column::Int(
        (0..n)
            .map(|r| [i64::MIN, -3, 0, i64::MAX, -3][r as usize % 5])
            .collect(),
    );
    let dt = Column::Date((0..n).map(|r| 9_000 + r % 4).collect());
    let v = Column::Int((0..n).map(|r| r * 37 % 101 - 50).collect());
    let when = Column::Date((0..n).map(|r| 10_000 - r * 13 % 97).collect());
    let tag = dict_column(
        (0..n).map(|r| (r * 7 % 5) as u32).collect(),
        &["m", "k", "q", "c", "t"],
    );
    let columns = vec![
        d,
        Arc::new(i),
        Arc::new(dt),
        Arc::new(v),
        Arc::new(when),
        tag,
    ];
    let mut db = Database::new();
    db.insert_table(Table::from_batch("T", Batch::new(attrs.to_vec(), columns)));
    db
}

/// The typed group-by kernel at its edges, against the row reference, at
/// every battery budget.
#[test]
fn group_by_kernel_edge_cases_match_the_row_reference() {
    let t = |a: &str| AttrRef::new("T", a);
    let aggs = || {
        [
            AggExpr::new(AggFunc::Sum, t("v"), "sum_v"),
            AggExpr::new(AggFunc::Avg, t("v"), "avg_v"),
            AggExpr::new(AggFunc::Min, t("v"), "min_v"),
            AggExpr::new(AggFunc::Max, t("when"), "max_when"),
            AggExpr::new(AggFunc::Min, t("when"), "min_when"),
            AggExpr::new(AggFunc::Sum, t("when"), "sum_when"),
            AggExpr::new(AggFunc::Min, t("tag"), "min_tag"),
            AggExpr::new(AggFunc::Max, t("tag"), "max_tag"),
            AggExpr::new(AggFunc::Sum, t("tag"), "sum_tag"),
            AggExpr::new(AggFunc::Count, t("tag"), "n_tag"),
            AggExpr::count_star("n"),
        ]
    };
    // 64 rows: the eight-entry dictionary is smaller than the input (the
    // direct table); 5 rows: it is larger (the hashed map); 0 rows: no group.
    for rows in [64usize, 5, 0] {
        let db = group_by_db(rows);
        let keysets: [&[&str]; 7] = [
            &["d"],
            &["i"],
            &["dt"],
            &["d", "i"],
            &["dt", "d", "i"],
            &["i", "dt", "d", "tag"],
            &[],
        ];
        for keys in keysets {
            let q = Expr::aggregate(Expr::base("T"), keys.iter().map(|k| t(k)), aggs());
            let out = assert_battery(&q, &db, &format!("γ{keys:?} × {rows}"));
            if rows == 0 {
                assert!(out.is_empty(), "{keys:?}: groups over no rows");
                continue;
            }
            // MIN/MAX over a date column are dates; SUM over one is an integer.
            let col = |name: &str| {
                let at = out
                    .index_of(&AttrRef::new("#agg", name))
                    .expect("aggregate");
                out.batch().column(at).value(0)
            };
            assert!(matches!(col("max_when"), Value::Date(_)), "{keys:?}");
            assert!(matches!(col("min_when"), Value::Date(_)), "{keys:?}");
            assert!(matches!(col("sum_when"), Value::Int(_)), "{keys:?}");
            assert!(matches!(col("min_tag"), Value::Text(_)), "{keys:?}");
            assert_eq!(col("sum_tag"), Value::Int(0), "{keys:?}");
        }
    }
    // Groups come out in key order, not first-appearance or code order, and
    // a dictionary entry no row carries makes no group.
    let by_d = execute(
        &Expr::aggregate(Expr::base("T"), [t("d")], [AggExpr::count_star("n")]),
        &group_by_db(64),
        &ExecContext::default(),
    )
    .expect("executes");
    let groups: Vec<String> = by_d.rows().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(groups, ["'c4'", "'d6'", "'w7'", "'y3'", "'z1'"]);

    // A single integer or date key indexes a slot array by `key − min`
    // when its span fits the map the hashed table may build: over 64 rows
    // that map is 2 × 64 slots of 17 bytes, room for 544 four-byte slots,
    // the join's sentinel among them, so a span of 542 is direct and 543 is
    // hashed. Spans touching `i64::MIN` or `i64::MAX` wrap in the slot
    // arithmetic, and the whole range is hashed without overflowing.
    let spans: [(&str, Vec<i64>); 7] = [
        ("whole range", vec![i64::MIN, i64::MAX, 0, -1, i64::MIN + 1]),
        ("at i64::MIN", vec![i64::MIN + 3, i64::MIN, i64::MIN + 1]),
        ("at i64::MAX", vec![i64::MAX - 1, i64::MAX, i64::MAX - 3]),
        ("negative", vec![-7, -1, -4, -2, -7]),
        ("span at the bound", vec![-100, 442, -99, 17, 441]),
        ("span one past the bound", vec![-100, 443, -99, 17, 442]),
        ("compact", (-5..=5).rev().collect()),
    ];
    for (what, keys) in spans {
        for date in [false, true] {
            let db = keyed_db(&group_by_db(64), &keys, date);
            let q = Expr::aggregate(Expr::base("T"), [t("k")], aggs());
            let out = assert_battery(&q, &db, &format!("γ[k] {what}, date {date}"));
            let mut expected = keys.clone();
            expected.sort_unstable();
            expected.dedup();
            let wrap = if date { Value::Date } else { Value::Int };
            let got: Vec<Value> = out.rows().iter().map(|r| r[0].clone()).collect();
            assert_eq!(got, expected.into_iter().map(wrap).collect::<Vec<_>>());
        }
    }
    // Eight rows counted by `k`: at 256 bytes this γ spills into four
    // partitions of at most two groups each, and the five keys whose radix
    // hash has top bits 00 (−3, 0, 2, 5 and 10) share one, so its slot
    // array, spanning 13, outgrows that limit at its third group and the
    // partition is cut.
    let eight = [-3, 0, 1, 2, 3, 4, 5, 10];
    for date in [false, true] {
        let mut db = Database::new();
        let k = if date { Column::Date } else { Column::Int };
        db.insert_table(Table::from_batch(
            "T",
            Batch::new(vec![t("k")], vec![Arc::new(k(eight.to_vec()))]),
        ));
        let q = Expr::aggregate(Expr::base("T"), [t("k")], [AggExpr::count_star("n")]);
        let out = assert_battery(&q, &db, &format!("COUNT(*) by k, date {date}"));
        assert_eq!(out.len(), eight.len());
    }
}

/// `db`'s relation `T` (64 rows) with one more column `k`: `keys` repeated
/// in a scrambled row order, as integers or as dates.
fn keyed_db(db: &Database, keys: &[i64], date: bool) -> Database {
    let batch = db.table("T").expect("T").batch();
    let k: Vec<i64> = (0..batch.rows())
        .map(|r| keys[r * 7 % keys.len()])
        .collect();
    let mut attrs = batch.attrs().to_vec();
    let mut columns = batch.columns().to_vec();
    attrs.push(AttrRef::new("T", "k"));
    columns.push(Arc::new(if date {
        Column::Date(k)
    } else {
        Column::Int(k)
    }));
    let mut db = Database::new();
    db.insert_table(Table::from_batch("T", Batch::new(attrs, columns)));
    db
}

/// `COUNT(*)` with no grouping reads no column at all: one row over a
/// non-empty input, none over an empty one — resident and paged, and with
/// the input pruned to nothing beneath a join.
#[test]
fn ungrouped_count_star_over_empty_and_non_empty_inputs() {
    for rows in [0usize, 23] {
        let mut db = group_by_db(rows);
        db.insert_table(Table::new(
            "U",
            [AttrRef::new("U", "i")],
            vec![vec![Value::Int(-3)], vec![Value::Int(-3)]],
        ));
        let count = |input| Expr::aggregate(input, [], [AggExpr::count_star("n")]);
        let scan = assert_battery(&count(Expr::base("T")), &db, "COUNT(*)");
        let expected: Vec<Vec<Value>> = match rows {
            0 => vec![],
            n => vec![vec![Value::Int(n as i64)]],
        };
        assert_eq!(scan.rows(), expected);
        // T.i = -3 on two rows in five; U holds -3 twice.
        let joined = count(Expr::join(
            Expr::base("T"),
            Expr::base("U"),
            JoinCondition::on(AttrRef::new("T", "i"), AttrRef::new("U", "i")),
        ));
        let out = assert_battery(&joined, &db, "COUNT(*) over ⋈");
        let matches = (0..rows).filter(|r| r % 5 == 1 || r % 5 == 4).count() * 2;
        match matches {
            0 => assert!(out.is_empty()),
            n => assert_eq!(out.rows(), [vec![Value::Int(n as i64)]]),
        }
    }
}

/// The chain table at its edges: a build side repeating one key 1 000 times
/// (the chain must list its rows ascending), keys at both ends of `i64`,
/// and an empty build or probe side. The row reference's nested loop emits
/// matches per probe row in build order, and the battery compares rows in
/// order, not as a bag.
#[test]
fn hash_join_chain_order_and_empty_sides_match_the_row_reference() {
    let side = |name: &str, keys: Vec<i64>| {
        Table::new(
            name,
            [AttrRef::new(name, "k"), AttrRef::new(name, "id")],
            keys.into_iter()
                .enumerate()
                .map(|(id, k)| vec![Value::Int(k), Value::Int(id as i64)])
                .collect(),
        )
    };
    let q = Expr::join(
        Expr::base("P"),
        Expr::base("B"),
        JoinCondition::on(AttrRef::new("P", "k"), AttrRef::new("B", "k")),
    );
    let probe: Vec<i64> = vec![7, i64::MIN, 3, 7, i64::MAX, 8];
    // Key 7 a thousand times, other keys strewn between its occurrences.
    let build: Vec<i64> = (0..1_500)
        .map(|j| match j % 3 {
            0 | 1 if j * 2 / 3 < 1_000 => 7,
            _ => [i64::MIN, i64::MAX, 5][j as usize % 3],
        })
        .collect();
    let sevens = build.iter().filter(|&&k| k == 7).count();
    assert_eq!(sevens, 1_000);
    for (what, probe, build) in [
        ("repeated key", probe.clone(), build.clone()),
        ("empty build side", probe.clone(), vec![]),
        ("empty probe side", vec![], build.clone()),
    ] {
        let mut db = Database::new();
        db.insert_table(side("P", probe));
        db.insert_table(side("B", build));
        assert_battery(&q, &db, what);
    }
}

/// The motivating plan's regression pin: TPC-H-lite at the benchmark's scale
/// 0.02, the join `tmp5` = Customer ⋈ Orders ⋈ Lineitem of the greedy
/// design's MVPP stored on its own (the design stores the roll-up candidate
/// over it instead), and `revenue_by_nation` routed to `γ(tmp5 ⋈ Nation)`.
/// Nation's one row is a unique key in a compact range, so the join's chain
/// table takes direct heads — the key's slot and the sentinel — and probes
/// the 120 531 rows of `tmp5` without a branch on whether each matches. At
/// every battery budget the join holds that table and does not spill, the
/// modelled charges are the ones a map-headed table gave, and the answer is
/// the row reference's, row for row.
#[test]
fn revenue_by_nation_joins_through_direct_heads_at_every_budget() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    let mvpp = design.mvpp.mvpp();
    let tmp5 = mvpp
        .nodes()
        .iter()
        .find(|n| n.label() == "tmp5")
        .expect("the MVPP has a tmp5");
    assert!(
        matches!(&**tmp5.expr(), Expr::Join { .. }),
        "{}",
        tmp5.expr()
    );
    assert_eq!(
        tmp5.expr().base_relations(),
        ["Customer", "Orders", "Lineitem"].map(Into::into).into()
    );
    let mut db = Generator::with_config(GeneratorConfig {
        seed: 0x5eed,
        scale: 0.02,
        max_rows: usize::MAX,
    })
    .database(&scenario.catalog);
    let ctx = ExecContext::default();
    materialize_view("tmp5", tmp5.expr(), &mut db, &ctx).expect("tmp5 materializes");
    assert_eq!(db.table("tmp5").expect("stored").len(), 120_531);
    let mut views = ViewCatalog::new();
    views.register("tmp5", Arc::clone(tmp5.expr()));
    let class = scenario
        .workload
        .queries()
        .iter()
        .find(|q| q.name() == "revenue_by_nation")
        .expect("a workload class");
    let plan = views.route(class.root()).plan;
    assert_eq!(
        plan.to_string(),
        "γ[Nation.name; SUM(Lineitem.price) AS revenue]((tmp5 ⋈[Customer.nk=Nation.nk] Nation))"
    );
    let db = &db;
    let reference = row_reference::execute(&plan, db).expect("row reference executes");
    // Two head slots, one chain link and one build row (a map-headed table
    // held 63 bytes).
    let direct = 2 * size_of::<u32>() + size_of::<u32>() + size_of::<usize>();
    for budget in [None, Some(65_536), Some(256)] {
        let ctx = ExecContext { mem_budget: budget };
        let (out, io) = measure(&plan, db, 10.0, &ctx).expect("plan measures");
        assert_eq!(
            out.rows(),
            reference.rows(),
            "≠ row reference at {budget:?}"
        );
        let charges: Vec<(&str, f64, f64, usize, bool)> = io
            .charges()
            .iter()
            .map(|c| (c.op, c.read, c.written, c.state_bytes, c.spilled))
            .collect();
        // 12 054 blocks of `tmp5` against Nation's one; about half match.
        assert_eq!(
            charges,
            [
                ("⋈", 12_054.0, 5_927.0, direct, false),
                ("γ", 5_927.0, 1.0, 20, false)
            ],
            "at {budget:?}"
        );
    }
}

/// The widest group-by of the build pass's eager plans, γ[Lineitem.ok] over
/// TPC-H-lite at the benchmark's scale 0.02 (29 451 groups in 120 000
/// rows), groups through a slot array over the order keys' span. Without a
/// budget it holds that array, one representative and one sum per group,
/// and no table sized by the row count; under the batteries' budgets it
/// spills, each partition within half the budget. The modelled charges and
/// the spill flags are the ones the hashed table gave.
#[test]
fn lineitem_by_order_key_holds_a_slot_array_not_a_row_sized_table() {
    let scenario = tpch_lite();
    let db = Generator::with_config(GeneratorConfig {
        seed: 0x5eed,
        scale: 0.02,
        max_rows: usize::MAX,
    })
    .database(&scenario.catalog);
    let ok = AttrRef::new("Lineitem", "ok");
    let q = Expr::aggregate(
        Expr::base("Lineitem"),
        [ok.clone()],
        [AggExpr::new(
            AggFunc::Sum,
            AttrRef::new("Lineitem", "price"),
            "revenue",
        )],
    );
    let lineitem = db.table("Lineitem").expect("generated").batch();
    let keys = lineitem
        .column(lineitem.index_of(&ok).expect("Lineitem.ok"))
        .clone();
    let Column::Int(keys) = keys else {
        panic!("an integer key")
    };
    let (min, max) = (keys.iter().min().unwrap(), keys.iter().max().unwrap());
    let slots = (max - min + 1) as usize;
    let groups = 29_451;
    let per_group = size_of::<usize>() + size_of::<i64>();
    let reference = row_reference::execute(&q, &db).expect("row reference executes");
    for (budget, spilled) in [(None, false), (Some(65_536), true), (Some(256), true)] {
        let ctx = ExecContext { mem_budget: budget };
        let (out, io) = measure(&q, &db, 10.0, &ctx).expect("plan measures");
        assert_eq!(
            out.rows(),
            reference.rows(),
            "≠ row reference at {budget:?}"
        );
        let [gamma] = io.charges() else {
            panic!("one operator")
        };
        assert_eq!(
            (gamma.read, gamma.written, gamma.spilled),
            (12_000.0, 2_946.0, spilled),
            "at {budget:?}"
        );
        match budget {
            None => assert!(
                gamma.state_bytes <= slots * size_of::<u32>() + groups * per_group,
                "{gamma:?} over {slots} slots"
            ),
            Some(b) => assert!(gamma.state_bytes <= b / 2, "{gamma:?}"),
        }
    }
    assert_eq!(reference.len(), groups);
}

/// `SUM` past `i64::MAX` wraps — in debug and release builds alike, on the
/// typed path, the row-at-a-time fallback (a mixed column), across a spill,
/// and in the row reference (see `AggFunc::Sum`).
#[test]
fn sum_wraps_at_i64_max_in_every_build_profile() {
    let mut db = Database::new();
    db.insert_table(Table::new(
        "O",
        ["g", "big", "mixed"].map(|a| AttrRef::new("O", a)),
        (0..40)
            .map(|r| {
                vec![
                    Value::Int(r % 2),
                    Value::Int(if r < 2 { i64::MAX } else { 1 }),
                    if r == 5 {
                        Value::text("not a number")
                    } else {
                        Value::Int(if r < 2 { i64::MAX } else { 1 })
                    },
                ]
            })
            .collect(),
    ));
    let q = Expr::aggregate(
        Expr::base("O"),
        [AttrRef::new("O", "g")],
        [
            AggExpr::new(AggFunc::Sum, AttrRef::new("O", "big"), "typed"),
            AggExpr::new(AggFunc::Sum, AttrRef::new("O", "mixed"), "fallback"),
            AggExpr::new(AggFunc::Avg, AttrRef::new("O", "big"), "avg"),
        ],
    );
    let out = assert_battery(&q, &db, "SUM at i64::MAX");
    // Each group: i64::MAX once, then 19 ones (18 for the mixed column's
    // group 1, whose row 5 is text).
    let wrapped = i64::MAX.wrapping_add(19);
    assert!(wrapped < 0);
    assert_eq!(
        out.rows(),
        [
            vec![
                Value::Int(0),
                Value::Int(wrapped),
                Value::Int(wrapped),
                Value::Int(wrapped / 20)
            ],
            vec![
                Value::Int(1),
                Value::Int(wrapped),
                Value::Int(wrapped - 1),
                Value::Int(wrapped / 20)
            ],
        ]
    );
}
