//! Engine throughput benchmarks: the columnar batch kernels against the
//! preserved tuple-at-a-time reference on star-schema data.
//!
//! The per-kernel before/after numbers published in `BENCH_engine.json` come
//! from `repro perf-engine`; this harness tracks the same kernels under
//! criterion for regression detection.

use criterion::{criterion_group, criterion_main, Criterion};
use mvdesign::algebra::{AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate};
use mvdesign::catalog::{AttrType, Catalog};
use mvdesign::engine::{
    execute, selection_mask, Database, ExecContext, Generator, GeneratorConfig, JoinAlgo,
};
use mvdesign::workload::{StarSchema, StarSchemaConfig};
use mvdesign_verify::row_reference;

fn star_db() -> Database {
    let scenario = StarSchema::with_config(StarSchemaConfig {
        dimensions: 4,
        queries: 4,
        ..StarSchemaConfig::default()
    })
    .scenario();
    Generator::with_config(GeneratorConfig {
        seed: 0xBA7C4,
        scale: 0.02,
        max_rows: 2_000,
    })
    .database(&scenario.catalog)
}

/// A fact/dimension pair whose join key exists both as an int and as
/// dictionary-encoded text over the same 200-value domain (mirrors the
/// `repro perf-engine` dict catalog at criterion-friendly sizes).
fn dict_db() -> Database {
    let mut c = Catalog::new();
    c.relation("TFact")
        .attr("fid", AttrType::Int)
        .attr("skuid", AttrType::Int)
        .attr("sku", AttrType::Text)
        .attr("tier", AttrType::Text)
        .attr("grade", AttrType::Text)
        .attr("flag", AttrType::Int)
        .attr("qty", AttrType::Int)
        .records(100_000.0)
        .blocks(10_000.0)
        .selectivity("tier", 0.25)
        .selectivity("grade", 0.2)
        .selectivity("flag", 0.5)
        .finish()
        .expect("TFact");
    c.relation("TDim")
        .attr("did", AttrType::Int)
        .attr("sku", AttrType::Text)
        .records(10_000.0)
        .blocks(1_000.0)
        .finish()
        .expect("TDim");
    c.set_join_selectivity(
        AttrRef::new("TFact", "skuid"),
        AttrRef::new("TDim", "did"),
        1e-4,
    )
    .expect("int join key");
    c.set_join_selectivity(
        AttrRef::new("TFact", "sku"),
        AttrRef::new("TDim", "sku"),
        1e-4,
    )
    .expect("text join key");
    Generator::with_config(GeneratorConfig {
        seed: 0xD1C7,
        scale: 0.02,
        max_rows: 2_000,
    })
    .database(&c)
}

fn bench_batch_kernels(c: &mut Criterion) {
    let db = star_db();
    let scan = Expr::select(
        Expr::base("Fact"),
        Predicate::cmp(AttrRef::new("Fact", "measure"), CompareOp::Gt, 50),
    );
    let join = Expr::join(
        Expr::base("Fact"),
        Expr::base("Dim0"),
        JoinCondition::on(AttrRef::new("Fact", "d0"), AttrRef::new("Dim0", "id")),
    );
    let aggregate = Expr::aggregate(
        Expr::base("Fact"),
        [AttrRef::new("Fact", "d1")],
        [
            AggExpr::new(AggFunc::Sum, AttrRef::new("Fact", "measure"), "total"),
            AggExpr::count_star("n"),
        ],
    );

    let mut group = c.benchmark_group("engine_batch");
    for (name, expr, algo) in [
        ("scan_filter", &scan, JoinAlgo::NestedLoop),
        ("join_nested_loop", &join, JoinAlgo::NestedLoop),
        ("join_hash", &join, JoinAlgo::Hash),
        ("join_sort_merge", &join, JoinAlgo::SortMerge),
        ("hash_aggregate", &aggregate, JoinAlgo::NestedLoop),
    ] {
        let ctx = ExecContext {
            join_algo: algo,
            ..ExecContext::default()
        };
        group.bench_function(format!("batch/{name}"), |b| {
            b.iter(|| std::hint::black_box(execute(expr, &db, &ctx).expect("executes").len()))
        });
        group.bench_function(format!("row_reference/{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    row_reference::execute(expr, &db, algo)
                        .expect("executes")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_dict_kernels(c: &mut Criterion) {
    let db = dict_db();
    let join_int = Expr::join(
        Expr::base("TFact"),
        Expr::base("TDim"),
        JoinCondition::on(AttrRef::new("TFact", "skuid"), AttrRef::new("TDim", "did")),
    );
    let join_text = Expr::join(
        Expr::base("TFact"),
        Expr::base("TDim"),
        JoinCondition::on(AttrRef::new("TFact", "sku"), AttrRef::new("TDim", "sku")),
    );
    let aggregate_text = Expr::aggregate(
        Expr::base("TFact"),
        [AttrRef::new("TFact", "tier")],
        [
            AggExpr::new(AggFunc::Sum, AttrRef::new("TFact", "qty"), "total"),
            AggExpr::count_star("n"),
        ],
    );
    let selective = Predicate::and([
        Predicate::cmp(AttrRef::new("TFact", "sku"), CompareOp::Eq, "v7"),
        Predicate::cmp(AttrRef::new("TFact", "qty"), CompareOp::Gt, 500),
        Predicate::cmp(AttrRef::new("TFact", "tier"), CompareOp::Ne, "v3"),
        Predicate::cmp(AttrRef::new("TFact", "grade"), CompareOp::Ne, "v4"),
        Predicate::cmp(AttrRef::new("TFact", "flag"), CompareOp::Eq, 1),
    ]);

    let mut group = c.benchmark_group("engine_dict");
    for (name, expr, algo) in [
        ("join_hash_int_key", &join_int, JoinAlgo::Hash),
        ("join_hash_text", &join_text, JoinAlgo::Hash),
        ("hash_aggregate_dict", &aggregate_text, JoinAlgo::NestedLoop),
    ] {
        let ctx = ExecContext {
            join_algo: algo,
            ..ExecContext::default()
        };
        group.bench_function(format!("batch/{name}"), |b| {
            b.iter(|| std::hint::black_box(execute(expr, &db, &ctx).expect("executes").len()))
        });
        group.bench_function(format!("row_reference/{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    row_reference::execute(expr, &db, algo)
                        .expect("executes")
                        .len(),
                )
            })
        });
    }
    // Adaptive survivor-index evaluation of a selective conjunction.
    let tfact = db.table("TFact").expect("tfact").batch();
    let ctx = ExecContext::default();
    group.bench_function("mask/selection_vector", |b| {
        b.iter(|| {
            let mask = selection_mask(&selective, tfact, &ctx).expect("mask");
            std::hint::black_box(tfact.filter(&mask).rows())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_kernels, bench_dict_kernels);
criterion_main!(benches);
