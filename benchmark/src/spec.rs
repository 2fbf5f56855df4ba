//! What is pinned: the four workloads with their sizes, rates and loop
//! kinds, and the metric table, which is read from `BENCHMARK.json` itself
//! so that the file the driver checks and the names this package prints
//! cannot drift apart.

use std::time::Duration;

use crate::gen::WritePlan;
use crate::json::{self, Json};
use crate::layers::DataConfig;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Seed of the generated warehouse data. Pinned, not taken from `--seed`:
/// the data decides `space_amp` and `period_io_blocks`, which must repeat
/// exactly from run to run. `--seed` decides what is asked of the data.
const DATA_SEED: u64 = 0x5eed;

/// TPC-H-lite at 2 % of scale factor 1: Lineitem 120 000 rows, Orders
/// 30 000; 8.7 MB of base tables, 22 MB with the seven greedy views.
pub const SERVING_DATA: DataConfig = DataConfig {
    seed: DATA_SEED,
    scale: 0.02,
    max_rows: usize::MAX,
};

/// The database `measured_design_cost` runs on: 0.4 % of scale factor 1
/// (Lineitem 24 000 rows), where its nested-loop accounting takes 0.2 s.
pub const QUALITY_DATA: DataConfig = DataConfig {
    seed: DATA_SEED,
    scale: 0.004,
    max_rows: usize::MAX,
};

/// Appended rows come from a twin of the serving data under another seed.
pub const TWIN_DATA: DataConfig = DataConfig {
    seed: DATA_SEED ^ 0xA99E,
    ..SERVING_DATA
};

/// The SQL text clients send for each TPC-H-lite query class. Set-up checks
/// that each parses to the workload's own expression.
pub const TPCH_SQL: [(&str, &str); 6] = [
    (
        "recent_shipments",
        "SELECT Lineitem.ok, qty, price FROM Lineitem WHERE shipdate > 6/1/95",
    ),
    (
        "orders_by_priority",
        "SELECT priority, COUNT(*) AS n FROM Orders GROUP BY Orders.priority",
    ),
    (
        "revenue_by_segment",
        "SELECT segment, SUM(price) AS revenue FROM Customer, Orders, Lineitem \
         WHERE Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok GROUP BY Customer.segment",
    ),
    (
        "revenue_by_nation",
        "SELECT Nation.name, SUM(price) AS revenue FROM Nation, Customer, Orders, Lineitem \
         WHERE Customer.nk = Nation.nk AND Orders.ck = Customer.ck AND Lineitem.ok = Orders.ok \
         GROUP BY Nation.name",
    ),
    (
        "volume_by_brand",
        "SELECT brand, SUM(qty) AS volume FROM Part, Lineitem \
         WHERE Lineitem.pk = Part.pk GROUP BY Part.brand",
    ),
    (
        "supplier_nation_activity",
        "SELECT Nation.name, COUNT(*) AS shipments FROM Supplier, Nation, Lineitem \
         WHERE Supplier.nk = Nation.nk AND Lineitem.sk = Supplier.sk GROUP BY Nation.name",
    ),
];

/// Relations the mixed workload appends to, in turn.
pub const APPEND_RELATIONS: [&str; 2] = ["Lineitem", "Orders"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Design,
    Dash,
    Sql,
    MixedPaged,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Design,
    Workload::Dash,
    Workload::Sql,
    Workload::MixedPaged,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Design => "design",
            Workload::Dash => "dash",
            Workload::Sql => "sql",
            Workload::MixedPaged => "mixed-paged",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The serving sizes of the workload; `None` for `design`.
    pub fn serving(self) -> Option<Serving> {
        match self {
            Workload::Design => None,
            Workload::Dash => Some(Serving {
                rate: 300.0,
                sql_share: 0.0,
                tail_percentile: 95.0,
                budget_divisor: None,
                writes: None,
                ladder_limit_ms: Some(50.0),
            }),
            Workload::Sql => Some(Serving {
                rate: 50.0,
                sql_share: 1.0,
                tail_percentile: 95.0,
                budget_divisor: None,
                writes: None,
                ladder_limit_ms: None,
            }),
            Workload::MixedPaged => Some(Serving {
                rate: 80.0,
                sql_share: 0.1,
                tail_percentile: 95.0,
                budget_divisor: Some(4),
                writes: Some(WritePlan {
                    relations: APPEND_RELATIONS.len(),
                    rows_per_append: 50,
                    append_every: Duration::from_millis(100),
                    refresh_every: Duration::from_secs(1),
                }),
                ladder_limit_ms: Some(250.0),
            }),
        }
    }
}

/// Pinned sizes of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Serving {
    /// Open-loop arrival rate of the traced run, requests per second,
    /// evenly spaced.
    pub rate: f64,
    /// Share of reads sent as SQL text; the rest are merged plans.
    pub sql_share: f64,
    /// The percentile of the closed loop's latencies `op_tail_ms` reports.
    /// At p95 it sits inside the heaviest class of every mix (the top 5.6 %
    /// of a block are `revenue_by_nation`), not on the edge between two.
    pub tail_percentile: f64,
    /// The warehouse's memory budget is the base data's bytes over this.
    pub budget_divisor: Option<usize>,
    pub writes: Option<WritePlan>,
    /// p99 limit of the rate ladder; workloads without one run no ladder.
    pub ladder_limit_ms: Option<f64>,
}

/// Multiples of the pinned rate the traced run's ladder visits.
pub const LADDER: [(f64, &str); 4] = [(0.5, "0.5x"), (1.0, "1x"), (2.0, "2x"), (3.0, "3x")];

/// The `design` workload: one pass designs each of these.
pub mod design {
    /// Dimension tables of the synthetic star schemas.
    pub const STAR_DIMENSIONS: usize = 6;
    /// Seed of every star schema.
    pub const STAR_SEED: u64 = 42;
    /// Query counts of the stars the greedy designer runs on.
    pub const STAR_QUERIES: [usize; 4] = [10, 20, 40, 80];
    /// The star the genetic algorithm also runs on.
    pub const GENETIC_QUERIES: usize = 40;
    /// The star exhaustive selection runs on, beside greedy: small enough
    /// (at most 16 interior nodes) that exhaustive is the true optimum.
    pub const EXHAUSTIVE_STAR: (usize, usize) = (4, 4);
    /// `op_tail_ms` on `design`, picked within each round and the median
    /// taken over rounds. A round of 4 s makes under thirty passes; it is
    /// the run's 140 or so together that leave ten beyond p90.
    pub const TAIL_PERCENTILE: f64 = 90.0;
    /// What the paper's running example must still select, and at what cost.
    pub const PAPER_VIEWS: [&str; 2] = ["tmp2", "tmp7"];
    pub const PAPER_TOTAL: f64 = 9_637_915.0;
}

/// How a round of `seconds` divides into phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    pub warm_up: Duration,
    pub closed: Duration,
}

impl Phases {
    /// 5 % warm-up, 95 % closed loop.
    pub fn of(seconds: f64) -> Self {
        Self {
            warm_up: Duration::from_secs_f64(seconds * 0.05),
            closed: Duration::from_secs_f64(seconds * 0.95),
        }
    }
}

/// How a traced run of `seconds` divides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedPhases {
    /// Budget of each of the two replay passes (tracing off, then on).
    pub replay: Duration,
    /// The open-loop stretch at the pinned rate; also the ladder's 1x rung.
    pub open: Duration,
    /// Each other rung of the ladder.
    pub rung: Duration,
}

impl TracedPhases {
    pub fn of(seconds: f64) -> Self {
        Self {
            replay: Duration::from_secs_f64(seconds * 0.2),
            open: Duration::from_secs_f64(seconds * 0.2),
            rung: Duration::from_secs_f64(seconds * 0.1),
        }
    }
}

/// Operations the traced replay covers at most.
pub const TRACED_OPS: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    EndToEnd,
    PerLayer,
}

/// One row of the metric table in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound; per-layer metrics have none.
    pub bound: Option<f64>,
    pub layer: Layer,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

impl Manifest {
    pub fn load() -> Result<Self, String> {
        let root = json::parse(BENCHMARK_JSON)?;
        let mut metrics = Vec::new();
        for (key, layer) in [
            ("end_to_end", Layer::EndToEnd),
            ("per_layer", Layer::PerLayer),
        ] {
            for m in root.get(key).map(Json::as_arr).unwrap_or_default() {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks `{f}`"))
                };
                metrics.push(Metric {
                    name: field("name")?,
                    unit: field("unit")?,
                    better: field("better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                    layer,
                });
            }
        }
        let workloads = root
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| {
                Some((
                    w.get("name")?.as_str()?.to_string(),
                    w.get("why")?.as_str()?.to_string(),
                ))
            })
            .collect();
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads,
            metrics,
        })
    }

    pub fn layer(&self, layer: Layer) -> impl Iterator<Item = &Metric> {
        self.metrics.iter().filter(move |m| m.layer == layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_names_the_four_workloads() {
        let manifest = Manifest::load().unwrap();
        let names: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!(manifest
            .layer(Layer::EndToEnd)
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in manifest.layer(Layer::EndToEnd) {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(manifest.layer(Layer::PerLayer).all(|m| m.bound.is_none()));
    }

    #[test]
    fn phases_fill_the_run() {
        let p = Phases::of(20.0);
        assert_eq!(p.warm_up + p.closed, Duration::from_secs(20));
        let t = TracedPhases::of(20.0);
        // Two replay passes, the pinned-rate stretch and three more rungs.
        let total = t.replay * 2 + t.open + t.rung * 3;
        assert!(total <= Duration::from_secs(20));
    }
}
