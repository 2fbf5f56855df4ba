//! Morsel-driven parallel engine benchmarks: the hot kernels under an
//! [`ExecContext`](mvdesign::engine::ExecContext) at several thread counts,
//! against the single-threaded kernels on the same data.
//!
//! The published scaling numbers live in `BENCH_engine.json` (the
//! `repro perf-engine` morsel section, 1M rows); this harness tracks the
//! same kernels at criterion-friendly sizes for regression detection. Every
//! parallel configuration is asserted bit-identical to the single-threaded
//! result before the timed loop, so a scheduling regression that breaks the
//! deterministic merge fails the bench instead of skewing it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mvdesign::algebra::{AggExpr, AggFunc, AttrRef, CompareOp, Expr, JoinCondition, Predicate};
use mvdesign::engine::{execute, Batch, Column, Database, ExecContext, JoinAlgo, Table};

const FACT_ROWS: usize = 200_000;
const DIM_ROWS: usize = 5_000;
const MORSEL_ROWS: usize = 4_096;

/// A fact/dimension pair built straight from typed columns (generation at
/// this size would dominate setup): 200k fact rows whose key scatters over
/// the 5k-row dimension, with a 100-value grouping/selection attribute.
fn parallel_db() -> Database {
    let mut db = Database::new();
    db.insert_table(Table::from_batch(
        "PFact",
        Batch::new(
            vec![
                AttrRef::new("PFact", "id"),
                AttrRef::new("PFact", "k"),
                AttrRef::new("PFact", "m"),
            ],
            vec![
                Arc::new(Column::Int((0..FACT_ROWS as i64).collect())),
                Arc::new(Column::Int(
                    (0..FACT_ROWS as i64)
                        .map(|i| i.wrapping_mul(2_654_435_761) % DIM_ROWS as i64)
                        .collect(),
                )),
                Arc::new(Column::Int(
                    (0..FACT_ROWS as i64).map(|i| i % 100).collect(),
                )),
            ],
        ),
    ));
    db.insert_table(Table::from_batch(
        "PDim",
        Batch::new(
            vec![AttrRef::new("PDim", "did")],
            vec![Arc::new(Column::Int((0..DIM_ROWS as i64).collect()))],
        ),
    ));
    db
}

fn bench_parallel_kernels(c: &mut Criterion) {
    let db = parallel_db();
    let scan = Expr::select(
        Expr::base("PFact"),
        Predicate::cmp(AttrRef::new("PFact", "m"), CompareOp::Lt, 50),
    );
    let join = Expr::join(
        Expr::base("PFact"),
        Expr::base("PDim"),
        JoinCondition::on(AttrRef::new("PFact", "k"), AttrRef::new("PDim", "did")),
    );
    let aggregate = Expr::aggregate(
        Expr::base("PFact"),
        [AttrRef::new("PFact", "m")],
        [
            AggExpr::new(AggFunc::Sum, AttrRef::new("PFact", "id"), "total"),
            AggExpr::count_star("n"),
        ],
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut thread_counts = vec![1usize, 2, cores];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut group = c.benchmark_group("engine_parallel");
    for (name, expr, join_algo) in [
        ("scan_filter", &scan, JoinAlgo::NestedLoop),
        ("join_hash", &join, JoinAlgo::Hash),
        ("hash_aggregate", &aggregate, JoinAlgo::NestedLoop),
    ] {
        let single = ExecContext {
            join_algo,
            ..ExecContext::default()
        };
        let baseline = execute(expr, &db, &single).expect("executes");
        for &threads in &thread_counts {
            let ctx = ExecContext {
                threads,
                morsel_rows: MORSEL_ROWS,
                ..single
            };
            let out = execute(expr, &db, &ctx).expect("executes");
            assert_eq!(
                baseline.batch(),
                out.batch(),
                "{name}: morsel result differs at {threads} thread(s)"
            );
            group.bench_function(format!("{name}/threads_{threads}"), |b| {
                b.iter(|| std::hint::black_box(execute(expr, &db, &ctx).expect("executes").len()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_kernels);
criterion_main!(benches);
