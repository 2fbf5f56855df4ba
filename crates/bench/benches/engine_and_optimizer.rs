//! Substrate benchmarks: the execution engine's operators, the SQL parser
//! and the single-query planner.

use criterion::{criterion_group, criterion_main, Criterion};
use mvdesign::algebra::parse_query_with;
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::engine::{execute, measure, ExecContext, Generator, GeneratorConfig};
use mvdesign::optimizer::Planner;
use mvdesign::workload::paper_example;

fn bench_engine(c: &mut Criterion) {
    let scenario = paper_example();
    let db = Generator::with_config(GeneratorConfig {
        seed: 1,
        scale: 0.004,
        max_rows: 400,
    })
    .database(&scenario.catalog);
    let q1 = scenario.workload.query("Q1").expect("Q1").root().clone();
    let q3 = scenario.workload.query("Q3").expect("Q3").root().clone();

    let mut group = c.benchmark_group("engine");
    group.bench_function("execute/Q1_two_way_join", |b| {
        b.iter(|| {
            std::hint::black_box(
                execute(&q1, &db, &ExecContext::default())
                    .expect("executes")
                    .len(),
            )
        })
    });
    group.bench_function("execute/Q3_four_way_join", |b| {
        b.iter(|| {
            std::hint::black_box(
                execute(&q3, &db, &ExecContext::default())
                    .expect("executes")
                    .len(),
            )
        })
    });
    group.bench_function("measure/Q1_with_io_accounting", |b| {
        b.iter(|| {
            std::hint::black_box(
                measure(&q1, &db, 10.0, &ExecContext::default())
                    .expect("measures")
                    .1
                    .total(),
            )
        })
    });
    group.finish();
}

fn bench_planner(c: &mut Criterion) {
    let scenario = paper_example();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let planner = Planner::new();
    let q3 = scenario.workload.query("Q3").expect("Q3").root().clone();

    let mut group = c.benchmark_group("optimizer");
    group.bench_function("parse/Q3", |b| {
        b.iter(|| {
            std::hint::black_box(
                parse_query_with(
                    "SELECT Customer.name, Product.name, quantity \
                     FROM Product, Division, Order, Customer \
                     WHERE Division.city = 'LA' AND Product.Did = Division.Did \
                     AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid \
                     AND date > 7/1/96",
                    &scenario.catalog,
                )
                .expect("parses"),
            )
        })
    });
    group.bench_function("optimize/Q3_four_relations", |b| {
        b.iter(|| std::hint::black_box(planner.optimize(&q3, &est)))
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_planner);
criterion_main!(benches);
