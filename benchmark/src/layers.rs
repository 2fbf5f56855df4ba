//! Every call into the program under test lives in this file, behind types
//! the rest of the benchmark treats as opaque. The surface is kept to the
//! program's front doors — `Designer`, `parse_query_with`, `ViewCatalog`,
//! `Warehouse`, `WarehouseSnapshot`, `ServeHandle`, `BufferPool::stats`,
//! `measure_paged`, `measured_design_cost` — plus, for the traced design
//! pass only, the four stage functions `Designer::design_with` is made of.
//! When an entry point of the program is renamed or merged, this is the
//! one file that has to follow.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use mvdesign::algebra::{parse_query_with, Expr, Value};
use mvdesign::catalog::Catalog;
use mvdesign::core::{
    evaluate, generate_mvpps, AnnotatedMvpp, DesignResult, Designer, DesignerConfig,
    ExhaustiveSelection, GeneticSelection, GreedySelection, MaterializeNone, Mvpp, NodeId,
    SelectionAlgorithm,
};
use mvdesign::cost::{CostEstimator, PaperCostModel};
use mvdesign::engine::{
    batch_bytes, measure_paged, Database, ExecContext, Generator, GeneratorConfig, JoinAlgo, Table,
};
use mvdesign::optimizer::Planner;
use mvdesign::warehouse::{measured_design_cost, RefreshPolicy, Warehouse, WarehouseSnapshot};
use mvdesign::workload;
use mvdesign_serve::{QueryTicket, ServeConfig, ServeHandle, Server, WriteTicket};

use crate::gen::Form;

/// Records per block of every catalog the benchmark uses (Table 1's
/// blocking factor), for the measured block counts.
const RECORDS_PER_BLOCK: f64 = 10.0;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- design

/// A catalog with a weighted query workload over it.
pub struct Scenario(workload::Scenario);

impl Scenario {
    pub fn paper() -> Self {
        Self(workload::paper_example())
    }

    pub fn tpch_lite() -> Self {
        Self(workload::tpch_lite())
    }

    pub fn star(dimensions: usize, queries: usize, seed: u64) -> Self {
        Self(
            workload::StarSchema::with_config(workload::StarSchemaConfig {
                seed,
                dimensions,
                queries,
                ..workload::StarSchemaConfig::default()
            })
            .scenario(),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    Greedy,
    Genetic { seed: u64 },
    Exhaustive,
}

impl Algorithm {
    fn with<T>(self, f: impl FnOnce(&dyn SelectionAlgorithm) -> T) -> T {
        match self {
            Algorithm::Greedy => f(&GreedySelection::new()),
            Algorithm::Genetic { seed } => f(&GeneticSelection {
                seed,
                ..GeneticSelection::default()
            }),
            Algorithm::Exhaustive => f(&ExhaustiveSelection::default()),
        }
    }
}

/// What the benchmark reads off a finished design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSummary {
    pub view_labels: Vec<String>,
    pub total_cost: f64,
    pub mvpp_nodes: usize,
}

pub struct Design(DesignResult);

impl Design {
    pub fn run(scenario: &Scenario, algorithm: Algorithm) -> Result<Self, String> {
        let Scenario(s) = scenario;
        algorithm
            .with(|a| Designer::new().design_with(&s.catalog, &s.workload, a))
            .map(Design)
            .map_err(text)
    }

    pub fn summary(&self) -> DesignSummary {
        DesignSummary {
            view_labels: self.0.materialized_labels(),
            total_cost: self.0.cost.total,
            mvpp_nodes: self.0.mvpp.mvpp().len(),
        }
    }
}

/// `Designer::design_with` taken apart into its stages, so that a traced
/// pass can put a span around each. The stages make the same calls in the
/// same order as the designer does; the traced run checks that they arrive
/// at the designer's own total.
pub struct Stages<'a> {
    scenario: &'a workload::Scenario,
    est: CostEstimator<'a, PaperCostModel>,
    planner: Planner,
    config: DesignerConfig,
}

pub struct Candidates(Vec<Mvpp>);
pub struct Annotated(Vec<AnnotatedMvpp>);
pub struct Selected(Vec<BTreeSet<NodeId>>);

impl<'a> Stages<'a> {
    pub fn new(scenario: &'a Scenario) -> Self {
        let config = DesignerConfig::default();
        Self {
            scenario: &scenario.0,
            est: CostEstimator::new(
                &scenario.0.catalog,
                config.estimation,
                PaperCostModel::default(),
            ),
            planner: Planner::with_config(config.planner),
            config,
        }
    }

    /// The per-query optimal plans, planned alone. `generate` plans them
    /// again inside; this stage exists to time the optimizer by itself.
    pub fn plan(&self) {
        for q in self.scenario.workload.queries() {
            std::hint::black_box(self.planner.optimize(q.root(), &self.est));
        }
    }

    pub fn generate(&self) -> Candidates {
        Candidates(generate_mvpps(
            &self.scenario.workload,
            &self.est,
            &self.planner,
            self.config.generate,
        ))
    }

    pub fn annotate(&self, candidates: Candidates) -> Annotated {
        for mvpp in &candidates.0 {
            for node in mvpp.nodes() {
                self.est.stats(node.expr());
            }
        }
        Annotated(
            candidates
                .0
                .into_iter()
                .map(|mvpp| {
                    AnnotatedMvpp::annotate_with(
                        mvpp,
                        &self.est,
                        self.config.update_weighting,
                        self.config.maintenance_policy,
                    )
                })
                .collect(),
        )
    }

    /// The greedy pass the designer always runs for its decision trace.
    pub fn greedy_trace(&self, annotated: &Annotated) {
        for a in &annotated.0 {
            std::hint::black_box(GreedySelection::new().run(a));
        }
    }

    pub fn select(&self, annotated: &Annotated, algorithm: Algorithm) -> Selected {
        Selected(algorithm.with(|alg| {
            annotated
                .0
                .iter()
                .map(|a| alg.select(a, self.config.maintenance))
                .collect()
        }))
    }

    /// Scores every candidate's selection and keeps the cheapest, first
    /// candidate winning ties — the designer's final step.
    pub fn evaluate(&self, annotated: &Annotated, selected: &Selected) -> DesignSummary {
        let mut best: Option<(f64, usize)> = None;
        for (i, (a, set)) in annotated.0.iter().zip(&selected.0).enumerate() {
            let total = evaluate(a, set, self.config.maintenance).total;
            if best.is_none_or(|(b, _)| total < b) {
                best = Some((total, i));
            }
        }
        let (total_cost, winner) = best.expect("a workload has at least one candidate");
        let mvpp = annotated.0[winner].mvpp();
        DesignSummary {
            view_labels: selected.0[winner]
                .iter()
                .map(|id| mvpp.node(*id).label().to_string())
                .collect(),
            total_cost,
            mvpp_nodes: mvpp.len(),
        }
    }
}

impl Annotated {
    /// Subsets an exhaustive selection scores over all the candidates.
    pub fn exhaustive_subsets(&self) -> f64 {
        let cap = ExhaustiveSelection::default().max_nodes;
        self.0
            .iter()
            .map(|a| 2f64.powi(a.mvpp().interior().len().min(cap) as i32))
            .sum()
    }
}

/// The observed cost and space of a design on a small pinned database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `measured_design_cost(..).total_io`: one period's queries through the
    /// views plus one refresh of every view, in blocks the engine touched.
    pub period_io_blocks: f64,
    /// What the designer predicted for the same period, at the catalog's
    /// own scale.
    pub predicted_blocks: f64,
    /// Bytes of base tables plus views over bytes of base tables.
    pub space_amp: f64,
}

pub fn quality(scenario: &Scenario, design: &Design, data: DataConfig) -> Result<Quality, String> {
    let db = data.generate(&scenario.0.catalog);
    let measured = measured_design_cost(&design.0, &db, RECORDS_PER_BLOCK).map_err(text)?;
    let base_bytes = stored_bytes(&db);
    let warehouse =
        Warehouse::new_with_join_algo(scenario.0.catalog.clone(), db, &design.0, JoinAlgo::Hash)
            .map_err(text)?;
    Ok(Quality {
        period_io_blocks: measured.total_io,
        predicted_blocks: design.0.cost.total,
        space_amp: stored_bytes(warehouse.database()) as f64 / base_bytes as f64,
    })
}

// --------------------------------------------------------------- serving

/// Size and seed of a generated database.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataConfig {
    pub seed: u64,
    pub scale: f64,
    /// Per-relation row cap; `usize::MAX` for none.
    pub max_rows: usize,
}

impl DataConfig {
    fn generate(self, catalog: &Catalog) -> Database {
        Generator::with_config(GeneratorConfig {
            seed: self.seed,
            scale: self.scale,
            max_rows: self.max_rows,
        })
        .database(catalog)
    }
}

/// Bytes of every table of a database. Materialises paged tables, so it is
/// only ever called on resident data or after the clock has stopped.
fn stored_bytes(db: &Database) -> usize {
    db.iter().map(|(_, t)| batch_bytes(t.batch())).sum()
}

pub type Row = Vec<Value>;

/// A query expression the benchmark passes around without looking inside.
#[derive(Clone)]
pub struct Plan(Arc<Expr>);

/// One query class of the serving workloads.
pub struct QueryClass {
    pub name: String,
    /// The class's access frequency `fq`: its weight in the traffic mix.
    pub weight: f64,
    pub sql: &'static str,
    /// The plan the designer merged into the MVPP for this class; it routes
    /// to a view by construction.
    pub merged: Plan,
    /// The class as the workload states it — what the SQL text parses to.
    pub root: Plan,
}

/// Generated data plus a design over it: what a warehouse is built from.
pub struct Fixture {
    scenario: Scenario,
    design: Design,
    no_views: Design,
    base: Database,
    pub base_bytes: usize,
    pub classes: Vec<QueryClass>,
}

impl Fixture {
    /// Generates the TPC-H-lite data and designs its view set. `sql` pairs
    /// each query name with the text clients send; each text must parse to
    /// the workload's own expression for that name.
    pub fn build(data: DataConfig, sql: &[(&'static str, &'static str)]) -> Result<Self, String> {
        let scenario = Scenario::tpch_lite();
        let base = data.generate(&scenario.0.catalog);
        let design = Design::run(&scenario, Algorithm::Greedy)?;
        let no_views = Designer::new()
            .design_with(&scenario.0.catalog, &scenario.0.workload, &MaterializeNone)
            .map(Design)
            .map_err(text)?;
        let mvpp = design.0.mvpp.mvpp();
        let classes = scenario
            .0
            .workload
            .queries()
            .iter()
            .map(|q| {
                let (_, sql) = sql
                    .iter()
                    .find(|(name, _)| *name == q.name())
                    .ok_or_else(|| format!("no SQL text for query `{}`", q.name()))?;
                let parsed = parse_query_with(sql, &scenario.0.catalog).map_err(text)?;
                if parsed != *q.root() {
                    return Err(format!(
                        "SQL text of `{}` does not parse to the workload's expression",
                        q.name()
                    ));
                }
                let (_, _, root) = mvpp
                    .roots()
                    .iter()
                    .find(|(name, _, _)| name == q.name())
                    .ok_or_else(|| format!("design has no root for `{}`", q.name()))?;
                Ok(QueryClass {
                    name: q.name().to_string(),
                    weight: q.frequency(),
                    sql,
                    merged: Plan(Arc::clone(mvpp.node(*root).expr())),
                    root: Plan(Arc::clone(q.root())),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            base_bytes: stored_bytes(&base),
            scenario,
            design,
            no_views,
            base,
            classes,
        })
    }

    pub fn design(&self) -> (&Scenario, &Design) {
        (&self.scenario, &self.design)
    }

    /// A warehouse over the fixture's data with the designed views
    /// materialised; under a memory budget every table is paged out.
    pub fn warehouse(&self, mem_budget: Option<usize>) -> Result<Wh, String> {
        self.build_warehouse(&self.design, mem_budget)
    }

    /// The same data with no views: every query runs over the base tables.
    pub fn reference(&self) -> Result<Wh, String> {
        self.build_warehouse(&self.no_views, None)
    }

    fn build_warehouse(&self, design: &Design, mem_budget: Option<usize>) -> Result<Wh, String> {
        let warehouse = Warehouse::new_with_join_algo(
            self.scenario.0.catalog.clone(),
            self.base.clone(),
            &design.0,
            JoinAlgo::Hash,
        )
        .map_err(text)?;
        Ok(Wh(match mem_budget {
            Some(_) => warehouse.with_mem_budget(mem_budget),
            None => warehouse,
        }))
    }

    /// Rows to append: the first `rows` rows of each named relation in a
    /// twin database drawn from another seed over the same value domains,
    /// so that appended rows join like the original ones.
    pub fn twin_rows(&self, data: DataConfig, relations: &[&str], rows: usize) -> Vec<Vec<Row>> {
        let twin = DataConfig {
            max_rows: rows.max(1),
            ..data
        }
        .generate(&self.scenario.0.catalog);
        relations
            .iter()
            .map(|r| twin.table(r).map(|t| t.rows().to_vec()).unwrap_or_default())
            .collect()
    }
}

/// Views a refresh rebuilt from scratch and views it folded deltas into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refreshed {
    pub recomputed: usize,
    pub folded: usize,
}

/// Buffer-pool counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub spill_bytes: u64,
    pub resident_bytes: usize,
}

pub struct Wh(Warehouse);

impl Wh {
    pub fn append(&mut self, relation: &str, rows: Vec<Row>) -> Result<(), String> {
        self.0.append(relation, rows).map_err(text)
    }

    pub fn refresh(&mut self) -> Result<Refreshed, String> {
        self.0
            .refresh()
            .map(|r| Refreshed {
                recomputed: r.recomputed,
                folded: r.folded,
            })
            .map_err(text)
    }

    pub fn snapshot(&self) -> Snap {
        Snap(Arc::new(self.0.snapshot()))
    }

    /// Refresh by recomputation from here on, not by folding deltas.
    pub fn recompute_on_refresh(&mut self) {
        self.0.set_refresh_policy(RefreshPolicy::Recompute);
    }

    pub fn pool(&self) -> Option<PoolCounters> {
        self.0.buffer_pool().map(|p| {
            let s = p.stats();
            PoolCounters {
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                spill_bytes: s.spill_bytes,
                resident_bytes: s.resident_bytes,
            }
        })
    }

    /// Bytes of base tables plus views. Lifts any memory budget first, so
    /// it ends a run and never sits inside one.
    pub fn stored_bytes(mut self) -> usize {
        self.0.set_mem_budget(None);
        stored_bytes(self.0.database())
    }
}

/// A query result.
pub struct Rows(Table);

impl Rows {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The rows in sorted order: two results are bag-equal exactly when
    /// these are equal.
    pub fn sorted(&self) -> Vec<Row> {
        let mut rows = self.0.rows().to_vec();
        rows.sort();
        rows
    }
}

/// An immutable picture of a warehouse, as readers see it.
#[derive(Clone)]
pub struct Snap(Arc<WarehouseSnapshot>);

impl Snap {
    pub fn query(&self, class: &QueryClass, form: Form) -> Result<Rows, String> {
        match form {
            Form::Merged => self.0.query_expr(&class.merged.0),
            Form::Sql => self.0.query(class.sql),
        }
        .map(Rows)
        .map_err(text)
    }

    pub fn query_plan(&self, plan: &Plan) -> Result<Rows, String> {
        self.0.query_expr(&plan.0).map(Rows).map_err(text)
    }

    pub fn parse(&self, sql: &str) -> Result<Plan, String> {
        parse_query_with(sql, self.0.catalog())
            .map(Plan)
            .map_err(text)
    }

    /// Routes a plan through the view registry: the rewritten plan and how
    /// many view scans it now holds.
    pub fn route(&self, plan: &Plan) -> (Plan, usize) {
        let views = self.0.views();
        (Plan(views.rewrite(&plan.0)), views.match_count(&plan.0))
    }

    /// Rows of the stored tables a routed plan scans.
    pub fn rows_in(&self, routed: &Plan) -> usize {
        fn walk(expr: &Arc<Expr>, db: &Database) -> usize {
            match &**expr {
                Expr::Base(name) => db.table(name.as_str()).map_or(0, Table::len),
                _ => expr.children().iter().map(|c| walk(c, db)).sum(),
            }
        }
        walk(&routed.0, self.0.database())
    }

    /// Executes a plan under the paged accounting mode: blocks the cost
    /// model charges for reading, and pool misses the engine really took.
    pub fn modelled_and_missed(&self, plan: &Plan) -> Result<(f64, u64), String> {
        let routed = self.0.views().rewrite(&plan.0);
        let (_, report) = measure_paged(
            &routed,
            self.0.database(),
            RECORDS_PER_BLOCK,
            &ExecContext::default(),
        )
        .map_err(text)?;
        let misses = report.charges().iter().map(|c| c.pool_misses).sum();
        Ok((report.blocks_read, misses))
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    pub appends: u64,
    pub refreshes: u64,
    pub snapshots_published: u64,
}

pub struct Srv(Server);

/// Starts the serving layer over a warehouse, with its default reader pool
/// (one reader per core).
pub fn serve(warehouse: Wh) -> Srv {
    Srv(Server::start(warehouse.0, ServeConfig::default()))
}

impl Srv {
    pub fn client(&self) -> Client {
        Client(self.0.handle())
    }

    /// Drains every accepted request and hands the warehouse back.
    pub fn shutdown(self) -> Wh {
        Wh(self.0.shutdown())
    }
}

#[derive(Clone)]
pub struct Client(ServeHandle);

impl Client {
    pub fn submit(&self, class: &QueryClass, form: Form) -> Ticket {
        Ticket(match form {
            Form::Merged => self.0.query_expr(&class.merged.0),
            Form::Sql => self.0.query(class.sql),
        })
    }

    pub fn append(&self, relation: &str, rows: Vec<Row>) -> WriteTicketOf {
        WriteTicketOf(self.0.append(relation, rows))
    }

    pub fn refresh(&self) -> WriteTicketOf {
        WriteTicketOf(self.0.refresh())
    }

    /// The snapshot readers are served from right now.
    pub fn snapshot(&self) -> Snap {
        Snap(self.0.snapshot())
    }

    pub fn counters(&self) -> ServeCounters {
        let s = self.0.stats();
        ServeCounters {
            appends: s.appends,
            refreshes: s.refreshes,
            snapshots_published: s.snapshots_published,
        }
    }
}

pub struct Reply {
    pub rows: Rows,
    /// Submission to completion, as the serving layer measured it.
    pub elapsed: Duration,
    /// Appended rows the views did not yet reflect when this was answered.
    pub pending_rows: usize,
}

pub struct Ticket(QueryTicket);

impl Ticket {
    pub fn wait(self) -> Result<Reply, String> {
        self.0
            .wait()
            .map(|a| Reply {
                rows: Rows(a.table),
                elapsed: a.elapsed,
                pending_rows: a.pending_rows,
            })
            .map_err(text)
    }
}

pub struct WriteTicketOf(WriteTicket);

impl WriteTicketOf {
    /// Waits until the write is applied and published; submission to
    /// completion, as the serving layer measured it.
    pub fn wait(self) -> Result<Duration, String> {
        self.0.wait().map(|a| a.elapsed).map_err(text)
    }
}
