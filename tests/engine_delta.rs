//! Differential battery for delta-propagation maintenance: on random
//! SPJ + aggregate plans over int/dict/plain-text join keys, folding the
//! append deltas captured by `split_appends` into a stored view
//! (`refresh_view_delta`) must produce what a full recompute returns on the
//! grown database — row for row for a γ-view (the fold is a roll-up on the
//! recomputation's own kernel), as a bag for an SPJ view (its fold appends)
//! — across chained append rounds (including empty ones), and with the base
//! tables paged out to a starved buffer pool with a spill-forcing operator
//! budget. Every view the batteries build folds (none carries an `AVG` or a
//! γ below its root): each asks the maintenance decision (`maintenance`)
//! first, and a view it would rebuild fails them. The appended
//! rows open groups whose keys sort before the stored ones, so a fold that
//! placed new groups after the stored ones would show.
//!
//! `scripts/tier1.sh` re-runs this battery with the `MVDESIGN_MEM_BUDGET`
//! env knob at 256 bytes and at 64 KiB, pushing the folds through the
//! eviction and spill paths.

use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, RelName, Value,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::core::ViewCatalog;
use mvdesign::engine::{
    execute, grown, maintenance, refresh_view_delta, split_appends, BufferPool, Database, DeltaMap,
    ExecContext, Generator, GeneratorConfig, Maintenance, RefreshPolicy, Table,
};
use mvdesign::prelude::Designer;
use mvdesign::workload::tpch_lite;

/// A three-relation catalog with an integer join key, an integer payload
/// and a low-cardinality text attribute per relation — the same plan space
/// as the batch and paged batteries, so delta maintenance is probed on
/// exactly the shapes the rest of the engine is verified on.
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

/// The shape of one random view definition: a chain join (on the integer
/// or the text key), integer and text selections, and either a projection
/// or a group-by-with-aggregates on top.
#[derive(Debug, Clone)]
struct ViewSpec {
    joins: usize,
    join_on_text: bool,
    select_on: Vec<(usize, usize, i64)>,
    text_select: Vec<(usize, usize, i64)>,
    top: usize,
}

fn view_strategy() -> impl Strategy<Value = ViewSpec> {
    (
        0usize..=2,
        any::<bool>(),
        proptest::collection::vec((0usize..3, 0usize..3, 0i64..6), 0..3),
        proptest::collection::vec((0usize..3, 0usize..3, 0i64..6), 0..2),
        0usize..3,
    )
        .prop_map(
            |(joins, join_on_text, select_on, text_select, top)| ViewSpec {
                joins,
                join_on_text,
                select_on,
                text_select,
                top,
            },
        )
}

fn build_view(spec: &ViewSpec) -> Arc<Expr> {
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
    for (rel, op, lit) in &spec.text_select {
        if *rel <= spec.joins {
            preds.push(Predicate::cmp(
                AttrRef::new(format!("R{rel}"), "t"),
                ops[*op],
                Value::text(format!("v{lit}")),
            ));
        }
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

/// A generated database: every text column arrives dictionary-encoded.
fn dict_db(catalog: &Catalog, seed: u64) -> Database {
    Generator::with_config(GeneratorConfig {
        seed,
        scale: 1.0,
        max_rows: 50,
    })
    .database(catalog)
}

/// The same data rebuilt row-major, storing text as plain `Text` columns —
/// the identical plans then exercise delta slicing and folding over the
/// non-dictionary representation.
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

/// The first `take` rows of relation `name` of the twin database seeded from
/// `seed`. Every third row's text attribute is rewritten into `u0`/`u1`,
/// below the generator's `v…` domain, so the rows open groups (and join
/// keys) that sort before every stored one.
fn twin_rows(catalog: &Catalog, seed: u64, name: &str, quarters: usize) -> Vec<Vec<Value>> {
    let twin = dict_db(catalog, seed ^ 0x5EED);
    let src = twin.table(name).expect("twin has the relation");
    let take = src.len() * quarters.min(4) / 4;
    let mut rows = src.rows()[..take].to_vec();
    for (i, row) in rows.iter_mut().enumerate().step_by(3) {
        row[2] = Value::text(format!("u{}", i % 2));
    }
    rows
}

/// Appends a deterministic prefix of each relation's twin rows to `db` and
/// returns the pre-append row counts. `quarters[i]` ∈ 0..=4 selects how
/// much of relation `i`'s twin lands in the delta (0 = untouched).
fn append_round(
    db: &mut Database,
    catalog: &Catalog,
    seed: u64,
    quarters: [usize; 3],
) -> std::collections::BTreeMap<RelName, usize> {
    let snapshot = db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
    for (i, name) in ["R0", "R1", "R2"].iter().enumerate() {
        let rows = twin_rows(catalog, seed, name, quarters[i]);
        if !rows.is_empty() {
            db.table_mut(name).expect("base table").extend_rows(rows);
        }
    }
    snapshot
}

/// The maintenance oracle: a folded γ-view is its recomputation row for
/// row; an SPJ fold appends its delta, so it matches as a bag.
fn same_contents(view: &Expr, folded: &Table, recomputed: &Table) -> bool {
    if matches!(view, Expr::Aggregate { .. }) {
        folded.rows() == recomputed.rows()
    } else {
        folded.canonicalized().rows() == recomputed.canonicalized().rows()
    }
}

/// The `MVDESIGN_MEM_BUDGET` env knob, when set.
fn budget_override() -> Option<usize> {
    std::env::var("MVDESIGN_MEM_BUDGET")
        .ok()
        .map(|v| v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"))
}

/// Asserts the maintenance decision folds `view` under `deltas` (a view
/// nothing under grew is skipped, and folds to itself), then folds it.
fn fold(
    stored: &Table,
    view: &Arc<Expr>,
    old: &Database,
    deltas: &DeltaMap,
    ctx: &ExecContext,
) -> Table {
    let kind = maintenance(view, &grown(deltas), RefreshPolicy::Delta);
    assert_ne!(
        kind,
        Maintenance::Rebuild,
        "{view} rebuilds instead of folding"
    );
    refresh_view_delta(stored, view, old, deltas, ctx).expect("delta refresh runs")
}

/// Byte budget for the paged variant — overridable by the low-memory knob.
fn mem_budget() -> usize {
    budget_override().unwrap_or(512)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: for random view definitions × key encodings
    /// × chained random append rounds, every round folds, and the fold
    /// equals a full recompute on the grown database (row for row for γ, as
    /// a bag for SPJ). Folds chain on folds in one history.
    #[test]
    fn delta_fold_matches_full_recompute(
        spec in view_strategy(),
        sizes in proptest::array::uniform3(8u32..60),
        seed in 0u64..1_000,
        rounds in proptest::collection::vec(proptest::array::uniform3(0usize..=4), 1..3),
        plain_text in any::<bool>(),
    ) {
        let catalog = make_catalog(sizes);
        let generated = dict_db(&catalog, seed);
        let mut db = if plain_text { plain_text_db(&generated) } else { generated };
        let view = build_view(&spec);
        let recompute = ExecContext::default();
        let ctx = ExecContext { mem_budget: budget_override() };

        let mut stored = execute(&view, &db, &recompute).expect("view builds");
        for (r, quarters) in rounds.iter().enumerate() {
            let snapshot = append_round(&mut db, &catalog, seed + r as u64, *quarters);
            let (old, deltas) = split_appends(&db, &snapshot);
            let recomputed = execute(&view, &db, &recompute).expect("recompute runs");
            let folded = fold(&stored, &view, &old, &deltas, &ctx);
            prop_assert!(
                same_contents(&view, &folded, &recomputed),
                "fold diverges in round {} for {:?}",
                r, spec
            );
            stored = folded;
        }
    }

    /// The same invariant with the base tables paged out to a starved pool
    /// (and a spill-forcing operator budget): delta capture slices and the
    /// old-side join terms must read through pin/evict/reload without the
    /// storage layer showing through in the folded rows.
    #[test]
    fn delta_fold_is_storage_invariant_under_paging(
        spec in view_strategy(),
        sizes in proptest::array::uniform3(8u32..40),
        seed in 0u64..500,
        quarters in proptest::array::uniform3(0usize..=4),
        page_rows in 1usize..16,
    ) {
        let catalog = make_catalog(sizes);
        let mut db = dict_db(&catalog, seed);
        let view = build_view(&spec);
        let recompute = ExecContext::default();
        let ctx = ExecContext { mem_budget: Some(mem_budget()) };

        let stored = execute(&view, &db, &recompute).expect("view builds");
        let snapshot = append_round(&mut db, &catalog, seed, quarters);
        let recomputed = execute(&view, &db, &recompute).expect("recompute runs");

        // Page the grown database into a zero-byte pool: every pin during
        // delta splitting and old-side evaluation misses and reloads.
        let pool = BufferPool::new(Some(0));
        let mut paged = db.clone();
        paged.rehome(Some(&pool), page_rows);
        let (old, deltas) = split_appends(&paged, &snapshot);
        let folded = fold(&stored, &view, &old, &deltas, &ctx);
        prop_assert!(
            same_contents(&view, &folded, &recomputed),
            "paged fold diverges for {:?}",
            spec
        );
    }
}

/// The roll-up candidate of the greedy TPC-H-lite design — `γ[segment, nk;
/// SUM(price)]` over Customer ⋈ Orders ⋈ Lineitem — under chained rounds
/// that append to both `Lineitem` and `Orders`, so the delta runs through
/// two sides of the three-way join: every round folds, and the fold is its
/// recomputation row for row, at the `MVDESIGN_MEM_BUDGET` operator budget
/// when set. `check_delta_refresh` then runs the whole design's views.
#[test]
fn tpch_lite_roll_up_candidate_folds_appends_to_lineitem_and_orders() {
    let scenario = tpch_lite();
    let design = Designer::new()
        .design(&scenario.catalog, &scenario.workload)
        .expect("tpch-lite designs");
    let views = ViewCatalog::from_design(&design);
    let mvpp = design.mvpp.mvpp();
    let candidate = design
        .materialized
        .iter()
        .map(|&id| mvpp.node(id).expr())
        .find(|e| {
            matches!(&***e, Expr::Aggregate { input, .. } if matches!(&**input, Expr::Join { .. }))
                && e.base_relations().len() == 3
        })
        .expect("the design stores the roll-up candidate");
    let generator = GeneratorConfig {
        seed: 31,
        scale: 0.0002,
        max_rows: 300,
    };
    let mut db = Generator::with_config(generator).database(&scenario.catalog);
    let recompute = ExecContext::default();
    let ctx = ExecContext {
        mem_budget: budget_override(),
    };
    let mut stored = execute(candidate, &db, &recompute).expect("candidate builds");
    assert!(!stored.is_empty());
    for round in 0..3u64 {
        let twin = Generator::with_config(GeneratorConfig {
            seed: generator.seed + 1 + round,
            ..generator
        })
        .database(&scenario.catalog);
        let snapshot = db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
        for name in ["Lineitem", "Orders"] {
            let rows = twin.table(name).expect("twin relation").rows();
            let rows = rows[..rows.len() / 2].to_vec();
            db.table_mut(name).expect("base table").extend_rows(rows);
        }
        let (old, deltas) = split_appends(&db, &snapshot);
        assert_eq!(deltas.len(), 2, "round {round}");
        assert_eq!(
            maintenance(candidate, &grown(&deltas), RefreshPolicy::Delta),
            Maintenance::Fold,
            "an insert-only SUM roll-up folds"
        );
        let folded = fold(&stored, candidate, &old, &deltas, &ctx);
        let recomputed = execute(candidate, &db, &recompute).expect("recompute runs");
        assert_eq!(folded.rows(), recomputed.rows(), "round {round}");
        stored = folded;
    }
    mvdesign_verify::check_delta_refresh(&scenario.catalog, &views, generator, 4)
        .assert_clean("tpch-lite greedy design");
}

/// Deterministic spot check: an insert-only delta through a two-way join
/// folds (no recompute fallback) and lands on the recompute bag — the
/// canonical Apply-plan path the warehouse exercises on every refresh.
#[test]
fn join_view_folds_insert_only_appends() {
    let catalog = make_catalog([30, 30, 30]);
    let mut db = dict_db(&catalog, 7);
    let view = build_view(&ViewSpec {
        joins: 1,
        join_on_text: false,
        select_on: vec![],
        text_select: vec![],
        top: 0,
    });
    let ctx = ExecContext::default();
    let stored = execute(&view, &db, &ctx).expect("view builds");
    let snapshot = append_round(&mut db, &catalog, 7, [2, 3, 0]);
    let (old, deltas) = split_appends(&db, &snapshot);
    assert_eq!(
        maintenance(&view, &grown(&deltas), RefreshPolicy::Delta),
        Maintenance::Append,
        "an insert-only join delta appends"
    );
    let folded = fold(&stored, &view, &old, &deltas, &ctx);
    let recomputed = execute(&view, &db, &ctx).expect("recompute runs");
    assert_eq!(
        folded.canonicalized().rows(),
        recomputed.canonicalized().rows()
    );
}
