//! Differential battery for delta-propagation maintenance: on random
//! SPJ + aggregate plans over int/dict/plain-text join keys, folding the
//! append deltas captured by `split_appends` into a stored view
//! (`refresh_view_delta`) must produce exactly the bag of rows a full
//! recompute returns on the grown database — across chained append rounds
//! (including empty ones), and with the base tables paged out to a starved
//! buffer pool with a spill-forcing operator budget.
//!
//! CI's low-memory job re-runs this battery with the `MVDESIGN_MEM_BUDGET`
//! env knob set to a few hundred bytes, pushing even the resident draws
//! through the eviction and spill paths.

use std::sync::Arc;

use proptest::prelude::*;

use mvdesign::algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate, Value,
};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::engine::{
    execute, refresh_view_delta, split_appends, BufferPool, Database, ExecContext, Generator,
    GeneratorConfig, Table,
};

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

/// Appends a deterministic prefix of each relation's twin rows to `db` and
/// returns the pre-append row counts. `quarters[i]` ∈ 0..=4 selects how
/// much of relation `i`'s twin lands in the delta (0 = untouched).
fn append_round(
    db: &mut Database,
    catalog: &Catalog,
    seed: u64,
    quarters: [usize; 3],
) -> std::collections::BTreeMap<mvdesign::algebra::RelName, usize> {
    let snapshot = db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
    let twin = dict_db(catalog, seed ^ 0x5EED);
    for (i, name) in ["R0", "R1", "R2"].iter().enumerate() {
        let src = twin.table(name).expect("twin has the relation");
        let take = src.len() * quarters[i].min(4) / 4;
        if take == 0 {
            continue;
        }
        let rows = src.rows()[..take].to_vec();
        db.table_mut(name).expect("base table").extend_rows(rows);
    }
    snapshot
}

/// Byte budget for the paged variant — overridable by the CI low-memory
/// knob.
fn mem_budget() -> usize {
    match std::env::var("MVDESIGN_MEM_BUDGET") {
        Ok(v) => v.parse().expect("MVDESIGN_MEM_BUDGET is a byte count"),
        Err(_) => 512,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant: for random view definitions × key encodings
    /// × chained random append rounds, a delta fold —
    /// whenever the maintenance plan offers one — is bag-equal to a full
    /// recompute on the grown database. Views whose plan falls back to
    /// recompute re-enter the next round, so fallbacks are chained with
    /// folds in one history.
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
        let ctx = ExecContext::default();

        let mut stored = execute(&view, &db, &ctx).expect("view builds").into_batch();
        for (r, quarters) in rounds.iter().enumerate() {
            let snapshot = append_round(&mut db, &catalog, seed + r as u64, *quarters);
            let (old, deltas) = split_appends(&db, &snapshot);
            let recomputed = execute(&view, &db, &ctx).expect("recompute runs");
            match refresh_view_delta(&stored, &view, &old, &deltas, &ctx)
                .expect("delta refresh runs")
            {
                Some(folded) => {
                    let canon =
                        Table::from_batch("v", folded.clone()).canonicalized();
                    prop_assert_eq!(
                        canon.rows(),
                        recomputed.canonicalized().rows(),
                        "fold diverges in round {} for {:?}",
                        r, spec
                    );
                    stored = folded;
                }
                None => stored = recomputed.into_batch(),
            }
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

        let stored = execute(&view, &db, &recompute).expect("view builds").into_batch();
        let snapshot = append_round(&mut db, &catalog, seed, quarters);
        let recomputed = execute(&view, &db, &recompute).expect("recompute runs");

        // Page the grown database into a zero-byte pool: every pin during
        // delta splitting and old-side evaluation misses and reloads.
        let pool = BufferPool::new(Some(0));
        let mut paged = db.clone();
        paged.page_out(&pool, page_rows);
        let (old, deltas) = split_appends(&paged, &snapshot);
        match refresh_view_delta(&stored, &view, &old, &deltas, &ctx)
            .expect("paged delta refresh runs")
        {
            Some(folded) => {
                let canon = Table::from_batch("v", folded).canonicalized();
                prop_assert_eq!(
                    canon.rows(),
                    recomputed.canonicalized().rows(),
                    "paged fold diverges for {:?}",
                    spec
                );
            }
            None => {
                // Recompute fallback: nothing folded, nothing to compare —
                // the resident recompute above is the refreshed state.
            }
        }
    }
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
    let stored = execute(&view, &db, &ctx).expect("view builds").into_batch();
    let snapshot = append_round(&mut db, &catalog, 7, [2, 3, 0]);
    let (old, deltas) = split_appends(&db, &snapshot);
    let folded = refresh_view_delta(&stored, &view, &old, &deltas, &ctx)
        .expect("delta refresh runs")
        .expect("insert-only join delta folds");
    let recomputed = execute(&view, &db, &ctx).expect("recompute runs");
    assert_eq!(
        Table::from_batch("v", folded).canonicalized().rows(),
        recomputed.canonicalized().rows()
    );
}
