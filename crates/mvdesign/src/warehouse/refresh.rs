//! Refresh along the MVPP DAG: one planner, built once per warehouse, says
//! what a refresh pass computes, how and in which order (DESIGN §15).
//! [`Warehouse::new`] and [`Warehouse::refresh`] run its passes
//! ([`Pass::refresh`]); [`measured_period_cost`] and
//! [`measured_design_cost`] run its build pass under
//! [`measure`](mvdesign_engine::measure).
//!
//! * **Order.** Views run children first: by definition size, a view
//!   containing another being the larger, registration order among equals.
//! * **Routing.** Each definition is routed through a [`ViewCatalog`] of
//!   the views before it, all fresh when the view is reached, so it reads
//!   its stored children instead of recomputing them.
//! * **Maintenance.** A pass classifies each view once, by [`maintenance`]
//!   of its definition, from the base relations that grew and the
//!   [`RefreshPolicy`]; a build rebuilds every view. The kind fixes the
//!   plan:
//!
//!   | kind | plan | when |
//!   |---|---|---|
//!   | skip | none: the stored table stays | no relation under the view grew |
//!   | append | routed, else definition | no γ root, no grown γ below it |
//!   | fold | routed, else definition | a γ root whose aggregates roll up, no grown γ below it |
//!   | rebuild | rebuilt: the cheapest routed form | the policy is `Recompute`, an `AVG` root, a grown γ below the root, or a build |
//!
//!   An append or fold runs its routed plan only when every child view it
//!   reads that the pass changes is appended to: the rows the child's
//!   append added are the view's delta of it, and the stored child is the
//!   old side of a Δ⋈.
//! * **Eager aggregation.** A γ over joins is rebuilt by its eager plan
//!   ([`Planner::eager`]: the join DP over the routed definition's leaves,
//!   a view scan covering its definition's relations, keeping per subset
//!   the cheapest plan under a partial γ as well as the cheapest without)
//!   where [`CostEstimator::tree_cost`] prices it strictly below the routed
//!   definition, under [`MeasureCostModel`]: `measure`'s charges
//!   (`b(in) + b(out)` per σ, π and γ, `b(L)·b(R) + b(out)` per join, 10
//!   records per block). Its catalog is [`profile_database`]'s for the view
//!   definitions — exact rows of the base tables, distinct counts read from
//!   their pages for the columns the definitions group by, join on or
//!   filter on — with each view registered at its definition's estimated
//!   rows.
//! * **Transients.** Every non-view subplan two or more rebuilt views
//!   still need is computed once, largest first, as a transient table that
//!   lives in the pass's working database from right before its first
//!   reader until its last reader has run.
//! * **Deltas.** A pass cuts the appends off only the base relations under
//!   the views it appends to or folds.
//!
//! [`Warehouse::refresh`]: super::Warehouse::refresh
//! [`Warehouse::new`]: super::Warehouse::new
//! [`measured_period_cost`]: super::measured_period_cost
//! [`measured_design_cost`]: super::measured_design_cost

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mvdesign_algebra::{postorder, Expr};
use mvdesign_catalog::{Catalog, RelName};
use mvdesign_core::ViewCatalog;
use mvdesign_cost::{CardinalityEstimator, CostEstimator, EstimationMode, MeasureCostModel};
use mvdesign_engine::{
    appended_since, execute, execute_shared, maintenance, profile_database, refresh_view_delta,
    split_appends, BufferPool, Database, DeltaMap, ExecContext, ExecError, Maintenance,
    RefreshPolicy, Table, DEFAULT_PAGE_ROWS,
};
use mvdesign_optimizer::Planner;

use super::RefreshReport;

/// The refresh plan of a fixed set of views (see the module docs).
#[derive(Debug)]
pub(super) struct RefreshPlanner {
    /// Every view, children first.
    steps: Vec<Step>,
}

/// One view in refresh order.
#[derive(Debug)]
struct Step {
    name: RelName,
    definition: Arc<Expr>,
    /// `definition` routed through the views before this one.
    routed: Arc<Expr>,
    /// What a rebuild computes: the eager-aggregation plan of `routed`
    /// where it is estimated cheaper, else `routed`.
    rebuilt: Arc<Expr>,
    /// Whether `rebuilt` is the eager-aggregation plan.
    eager: bool,
    /// The views `routed` scans.
    reads: Vec<RelName>,
}

/// One unit of a pass, in the order the pass runs them.
#[derive(Debug)]
pub(super) enum Work {
    /// A subplan the pass's rebuilt views share, computed once and stored
    /// under `name` until its last reader has run.
    Transient { name: RelName, plan: Arc<Expr> },
    /// A view the pass brings up to date.
    View {
        name: RelName,
        /// A rebuild's rebuilt plan, scanning the pass's transients; an
        /// append's or fold's routed plan or definition.
        plan: Arc<Expr>,
        /// How the view is brought up to date: [`Maintenance::Append`],
        /// [`Maintenance::Fold`] or [`Maintenance::Rebuild`].
        kind: Maintenance,
        /// Whether it is rebuilt through its eager-aggregation form.
        eager: bool,
        /// Whether a later view of the pass runs its routed plan over this
        /// one, and so needs the rows this one's append added.
        feeds: bool,
    },
}

impl Work {
    /// The stored name of what this unit computes.
    pub(super) fn name(&self) -> &RelName {
        match self {
            Work::Transient { name, .. } | Work::View { name, .. } => name,
        }
    }

    /// The plan computing it.
    pub(super) fn plan(&self) -> &Arc<Expr> {
        match self {
            Work::Transient { plan, .. } | Work::View { plan, .. } => plan,
        }
    }
}

/// What one refresh pass computes, in order.
#[derive(Debug)]
pub(super) struct Pass {
    work: Vec<Work>,
    /// Per unit, the transients whose last reader it is.
    last_read: Vec<Vec<RelName>>,
    /// The base relations under the views the pass appends to or folds:
    /// the only ones whose appends it cuts off.
    folded_over: BTreeSet<RelName>,
}

impl RefreshPlanner {
    /// Orders the registered views children first, routes each definition
    /// through the views before it, and picks each view's rebuild plan: the
    /// routed definition's eager-aggregation plan ([`eager_plan`]) where
    /// [`CostEstimator::tree_cost`] prices it strictly lower over
    /// [`estimates`]' catalog of `db`, else the routed definition.
    pub(super) fn new(views: &ViewCatalog, db: &Database) -> Self {
        let catalog = estimates(views, db);
        let estimator = estimator(&catalog);
        let mut order: Vec<&(RelName, Arc<Expr>)> = views.views().iter().collect();
        order.sort_by_key(|(_, definition)| definition.node_count());
        let mut before = ViewCatalog::new();
        let steps = order
            .into_iter()
            .map(|(name, definition)| {
                let routed = before.rewrite(definition);
                let eager = eager_plan(&routed, &before, &estimator)
                    .filter(|plan| estimator.tree_cost(plan) < estimator.tree_cost(&routed));
                let reads = before
                    .views()
                    .iter()
                    .filter(|(view, _)| reads(&routed, view))
                    .map(|(view, _)| view.clone())
                    .collect();
                before.register(name.clone(), Arc::clone(definition));
                Step {
                    name: name.clone(),
                    definition: Arc::clone(definition),
                    eager: eager.is_some(),
                    rebuilt: eager.unwrap_or_else(|| Arc::clone(&routed)),
                    routed,
                    reads,
                }
            })
            .collect();
        Self { steps }
    }

    /// Plans the pass that brings every view up to date once the base
    /// relations in `grown` have gained rows: [`maintenance`] classifies
    /// each view under `policy`, and the views it skips are left out.
    pub(super) fn pass(&self, grown: &BTreeSet<RelName>, policy: RefreshPolicy) -> Pass {
        let due = self
            .steps
            .iter()
            .map(|step| (step, maintenance(&step.definition, grown, policy)))
            .filter(|(_, kind)| *kind != Maintenance::Skip)
            .collect();
        plan(due)
    }

    /// Plans the pass that builds every view from scratch: a new
    /// warehouse's, and the measured period's.
    pub(super) fn build(&self) -> Pass {
        plan(
            self.steps
                .iter()
                .map(|step| (step, Maintenance::Rebuild))
                .collect(),
        )
    }
}

/// The catalog a planner estimates by: [`profile_database`] of `db` for
/// the view definitions, with every view registered at its definition's
/// estimated rows.
fn estimates(views: &ViewCatalog, db: &Database) -> Catalog {
    let profile = profile_database(db, views.views().iter().map(|(_, definition)| definition));
    let cards = CardinalityEstimator::new(&profile, EstimationMode::Analytic);
    let mut catalog = profile.clone();
    for (name, definition) in views.views() {
        let records = cards.stats(definition).records;
        catalog
            .relation(name.clone())
            .records(records)
            .blocks((records / MeasureCostModel::RECORDS_PER_BLOCK).ceil())
            .finish()
            .expect("a view is named apart from the relations");
    }
    catalog
}

/// Prices plans over `catalog` under `measure`'s charges.
fn estimator(catalog: &Catalog) -> CostEstimator<'_, MeasureCostModel> {
    CostEstimator::new(catalog, EstimationMode::Analytic, MeasureCostModel)
}

/// The eager-aggregation plan of the routed definition `routed`
/// ([`Planner::eager`]), priced by `estimator`, each scan of a view in
/// `before` covering its definition's base relations; `None` where the rule
/// does not apply.
fn eager_plan(
    routed: &Arc<Expr>,
    before: &ViewCatalog,
    estimator: &CostEstimator<'_, MeasureCostModel>,
) -> Option<Arc<Expr>> {
    let covers = |leaf: &Arc<Expr>| {
        let covered = |r: RelName| match before.views().iter().find(|(view, _)| *view == r) {
            Some((_, definition)) => definition.base_relations(),
            None => BTreeSet::from([r]),
        };
        leaf.base_relations()
            .into_iter()
            .flat_map(covered)
            .collect()
    };
    Planner::new().eager(routed, covers, estimator)
}

/// Lays out the pass over the `due` views, each with its planned kind.
fn plan(due: Vec<(&Step, Maintenance)>) -> Pass {
    let rebuilt = |kind: Maintenance| kind == Maintenance::Rebuild;
    let mut plans: Vec<Arc<Expr>> = due
        .iter()
        .filter(|(_, kind)| rebuilt(*kind))
        .map(|(step, _)| Arc::clone(&step.rebuilt))
        .collect();
    let mut transients = share(&mut plans);
    let names: Vec<RelName> = transients.iter().map(|(name, _)| name.clone()).collect();
    // Whether an appended or folded view runs its routed plan: every child
    // view it reads that the pass changes is appended to.
    let routed: Vec<bool> = due
        .iter()
        .map(|(step, kind)| {
            !rebuilt(*kind)
                && step.reads.iter().all(|read| {
                    due.iter()
                        .find(|(child, _)| child.name == *read)
                        .is_none_or(|(_, kind)| *kind == Maintenance::Append)
                })
        })
        .collect();
    let mut plans = plans.into_iter();
    let mut work = Vec::new();
    for (i, &(step, kind)) in due.iter().enumerate() {
        let plan = if rebuilt(kind) {
            plans.next().expect("one plan per rebuilt view")
        } else if routed[i] {
            Arc::clone(&step.routed)
        } else {
            Arc::clone(&step.definition)
        };
        schedule(&plan, &mut transients, &mut work);
        let feeds = (i + 1..due.len()).any(|j| routed[j] && due[j].0.reads.contains(&step.name));
        work.push(Work::View {
            name: step.name.clone(),
            plan,
            kind,
            eager: rebuilt(kind) && step.eager,
            feeds,
        });
    }
    let mut last_read = vec![Vec::new(); work.len()];
    for name in names {
        let last = work
            .iter()
            .rposition(|unit| reads(unit.plan(), &name))
            .expect("a transient has readers");
        last_read[last].push(name);
    }
    let folded_over = due
        .iter()
        .filter(|(_, kind)| !rebuilt(*kind))
        .flat_map(|(step, _)| step.definition.base_relations())
        .collect();
    Pass {
        work,
        last_read,
        folded_over,
    }
}

/// Whether `plan` scans the relation `name`.
fn reads(plan: &Arc<Expr>, name: &RelName) -> bool {
    contains(plan, &Expr::Base(name.clone()))
}

/// Pushes onto `work` every transient still `pending` that `plan` reads,
/// each after the transients it reads in turn. A transient so goes right
/// before its first reader — after every view it reads, since its reader
/// reads those too.
fn schedule(plan: &Expr, pending: &mut Vec<(RelName, Arc<Expr>)>, work: &mut Vec<Work>) {
    if let Expr::Base(leaf) = plan {
        if let Some(i) = pending.iter().position(|(name, _)| name == leaf) {
            let (name, transient) = pending.swap_remove(i);
            schedule(&transient, pending, work);
            work.push(Work::Transient {
                name,
                plan: transient,
            });
        }
        return;
    }
    for child in plan.child_iter() {
        schedule(child, pending, work);
    }
}

impl Pass {
    /// Runs the pass over `db`. `compute` turns each unit into its table,
    /// reading a working copy of `db` that holds every table computed
    /// before it — refreshed views, and transients until their last reader
    /// has run. Returns the refreshed views in order; the working copy, and
    /// every transient still in it, is dropped on return, whether the pass
    /// succeeded or failed.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `compute` returns.
    pub(super) fn run<E>(
        &self,
        db: &Database,
        mut compute: impl FnMut(&Work, &Database) -> Result<Table, E>,
    ) -> Result<Vec<Table>, E> {
        let mut working = db.clone();
        let mut views = Vec::new();
        for (work, done) in self.work.iter().zip(&self.last_read) {
            let table = compute(work, &working)?;
            if let Work::View { .. } = work {
                views.push(table.clone());
            }
            working.insert_table(table);
            for transient in done {
                working.remove_table(transient.as_str());
            }
        }
        Ok(views)
    }

    /// The old state and the append deltas of the relations under the
    /// views the pass appends to or folds ([`split_appends`] past `marks`,
    /// the row counts at the last refresh). Every other relation is left
    /// whole and gathers nothing.
    pub(super) fn appends(
        &self,
        db: &Database,
        marks: &BTreeMap<RelName, usize>,
    ) -> (Database, DeltaMap) {
        let marks = marks
            .iter()
            .filter(|(relation, _)| self.folded_over.contains(*relation))
            .map(|(relation, mark)| (relation.clone(), *mark))
            .collect();
        split_appends(db, &marks)
    }

    /// Runs the pass over a warehouse's database `db`, whose base relations
    /// had `marks` rows at the last refresh: transients and rebuilds
    /// execute, appends and folds go through [`refresh_view_delta`], and
    /// under a `pool` every new table is written into it. Returns the
    /// staged views and the report, `skipped` left to the caller.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first unit that fails.
    pub(super) fn refresh(
        &self,
        db: &Database,
        marks: &BTreeMap<RelName, usize>,
        exec: &ExecContext,
        pool: Option<&Arc<BufferPool>>,
    ) -> Result<(Vec<Table>, RefreshReport), ExecError> {
        let mut report = RefreshReport::default();
        // `old` shares every pre-refresh page: staging adds no high-water.
        // Its stored views reflect exactly the old state.
        let (old, mut deltas) = self.appends(db, marks);
        let staged = self.run(db, |work, working| {
            let started = Instant::now();
            let mut table = match work {
                Work::Transient { name, plan } => {
                    // Kept in its pages: a π of a stored table copies nothing.
                    let table = execute_shared(name.clone(), plan, working, exec)?;
                    report.transients += 1;
                    report.transient_time += started.elapsed();
                    table
                }
                Work::View {
                    name,
                    plan,
                    kind: Maintenance::Rebuild,
                    eager,
                    ..
                } => {
                    let result = execute(plan, working, exec)?;
                    report.recomputed += 1;
                    report.eager += usize::from(*eager);
                    report.recompute_time += started.elapsed();
                    Table::from_batch(name.clone(), result.into_batch())
                }
                Work::View {
                    name, plan, feeds, ..
                } => {
                    let stored = old
                        .table(name.as_str())
                        .ok_or_else(|| ExecError::UnknownRelation(name.clone()))?;
                    let table = refresh_view_delta(stored, plan, &old, &deltas, exec)?;
                    if *feeds {
                        deltas.insert(name.clone(), appended_since(&table, stored.len()));
                    }
                    report.folded += 1;
                    report.fold_time += started.elapsed();
                    table
                }
            };
            if let Some(pool) = pool {
                if !table.pool().is_some_and(|home| Arc::ptr_eq(home, pool)) {
                    table.rehome(Some(pool), DEFAULT_PAGE_ROWS);
                }
            }
            Ok(table)
        })?;
        Ok((staged, report))
    }
}

/// Chooses the transients of `plans`: every non-leaf subplan two or more of
/// them still need, largest first, counting each chosen transient as a
/// user of what it contains. Rewrites `plans` to scan the transients and
/// returns them.
fn share(plans: &mut [Arc<Expr>]) -> Vec<(RelName, Arc<Expr>)> {
    // Subplans of two or more plans, in order of first appearance.
    let mut seen = HashSet::new();
    let mut shared = HashSet::new();
    let mut candidates = Vec::new();
    for plan in plans.iter() {
        let mut mine = HashSet::new();
        postorder(plan, &mut |e| {
            if e.is_base() || !mine.insert(Arc::clone(e)) {
                return;
            }
            // Seen in an earlier plan: this one is its second user or more.
            if !seen.insert(Arc::clone(e)) && shared.insert(Arc::clone(e)) {
                candidates.push(Arc::clone(e));
            }
        });
    }
    candidates.sort_by_key(|e| std::cmp::Reverse(e.node_count()));
    let mut chosen: Vec<(RelName, Arc<Expr>)> = Vec::new();
    for candidate in candidates {
        let users = plans
            .iter()
            .chain(chosen.iter().map(|(_, plan)| plan))
            .filter(|plan| contains(plan, &candidate))
            .count();
        if users < 2 {
            continue;
        }
        let name = RelName::new(format!("~transient{}", chosen.len()));
        let scan = Expr::base(name.clone());
        for plan in plans.iter_mut().chain(chosen.iter_mut().map(|(_, p)| p)) {
            *plan = replace(plan, &candidate, &scan);
        }
        chosen.push((name, candidate));
    }
    chosen
}

/// Whether `part` occurs in `expr`.
fn contains(expr: &Arc<Expr>, part: &Expr) -> bool {
    **expr == *part || expr.child_iter().any(|c| contains(c, part))
}

/// `expr` with every occurrence of `part` replaced by `with`, sharing every
/// subtree that has none.
fn replace(expr: &Arc<Expr>, part: &Expr, with: &Arc<Expr>) -> Arc<Expr> {
    if **expr == *part {
        return Arc::clone(with);
    }
    if !contains(expr, part) {
        return Arc::clone(expr);
    }
    let swap = |child: &Arc<Expr>| replace(child, part, with);
    match &**expr {
        Expr::Base(_) => unreachable!("a leaf that is not `part` contains nothing"),
        // Not `Expr::select`, which would fuse a σ into a σ below it.
        Expr::Select { input, predicate } => Arc::new(Expr::Select {
            input: swap(input),
            predicate: predicate.clone(),
        }),
        Expr::Project { input, attrs } => Expr::project(swap(input), attrs.clone()),
        Expr::Join { left, right, on } => Expr::join(swap(left), swap(right), on.clone()),
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => Expr::aggregate(swap(input), group_by.clone(), aggs.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::measured_design_cost;
    use mvdesign_algebra::{AggExpr, AggFunc, AttrRef, JoinCondition, Value};
    use mvdesign_core::Designer;
    use mvdesign_engine::{materialize_view, measure, Generator, GeneratorConfig};
    use mvdesign_workload::{tpch_lite, StarSchema, StarSchemaConfig};

    /// Views that cannot fold are planned rebuilds. Over R(k, x), S(k, j)
    /// and T(j, y), once R and S grow: `sums` = γ[R.k; SUM(R.x)](R) folds;
    /// `over` = π[R.k, T.y](γ[R.k; SUM(R.x)](R) ⋈ (S ⋈ T)), a grown γ below
    /// its root, and `mean` = γ[S.k; AVG(T.y)](S ⋈ T), an `AVG` root, are
    /// rebuilt: `over` through its rebuilt plan, which reads `sums`, and
    /// the two share S ⋈ T as a transient. Every view then equals its
    /// isolated build.
    #[test]
    fn views_that_cannot_fold_are_planned_rebuilds_that_share_transients() {
        let attr = AttrRef::new;
        let s_t = Expr::join(
            Expr::base("S"),
            Expr::base("T"),
            JoinCondition::on(attr("S", "j"), attr("T", "j")),
        );
        let total = AggExpr::new(AggFunc::Sum, attr("R", "x"), "total");
        let sums = Expr::aggregate(Expr::base("R"), [attr("R", "k")], [total]);
        let on_k = JoinCondition::on(attr("R", "k"), attr("S", "k"));
        let over = Expr::join(Arc::clone(&sums), Arc::clone(&s_t), on_k);
        let over = Expr::project(over, [attr("R", "k"), attr("T", "y")]);
        let avg = AggExpr::new(AggFunc::Avg, attr("T", "y"), "mean");
        let mean = Expr::aggregate(s_t, [attr("S", "k")], [avg]);
        let mut views = ViewCatalog::new();
        for (name, definition) in [("sums", sums), ("over", over), ("mean", mean)] {
            views.register(name, definition);
        }
        let ints = |rows: &[[i64; 2]]| -> Vec<Vec<Value>> {
            rows.iter().map(|r| r.map(Value::Int).to_vec()).collect()
        };
        let mut db = Database::new();
        for (name, a, b, rows) in [
            ("R", "k", "x", [[1, 10], [2, 20], [1, 30]]),
            ("S", "k", "j", [[1, 5], [2, 6], [3, 5]]),
            ("T", "j", "y", [[5, 100], [6, 7], [5, 1]]),
        ] {
            db.insert_table(Table::new(
                name,
                [attr(name, a), attr(name, b)],
                ints(&rows),
            ));
        }
        let planner = RefreshPlanner::new(&views, &db);
        let ctx = ExecContext::default();
        let marks = db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
        let (built, _) = planner.build().refresh(&db, &marks, &ctx, None).unwrap();
        for view in built {
            db.insert_table(view);
        }
        db.table_mut("R")
            .unwrap()
            .extend_rows(ints(&[[2, 5], [3, 1]]));
        db.table_mut("S").unwrap().extend_rows(ints(&[[1, 6]]));
        let pass = planner.pass(&["R".into(), "S".into()].into(), RefreshPolicy::Delta);

        let unit = |name: &str| {
            pass.work
                .iter()
                .find(|u| u.name().as_str() == name)
                .unwrap()
        };
        let kind = |name| match unit(name) {
            Work::View { kind, .. } => *kind,
            Work::Transient { .. } => unreachable!("{name} is a view"),
        };
        assert_eq!(kind("sums"), Maintenance::Fold);
        for name in ["over", "mean"] {
            assert_eq!(kind(name), Maintenance::Rebuild, "{name}");
            assert!(reads(unit(name).plan(), &"~transient0".into()), "{name}");
        }
        let step = planner.steps.iter().find(|s| s.name.as_str() == "over");
        assert!(reads(&step.unwrap().rebuilt, &"sums".into()));
        assert!(reads(unit("over").plan(), &"sums".into()));

        let (staged, report) = pass.refresh(&db, &marks, &ctx, None).unwrap();
        let counts = (report.folded, report.recomputed, report.transients);
        assert_eq!(counts, (1, 2, 1), "{report:?}");
        for (view, step) in staged.iter().zip(&planner.steps) {
            let isolated = execute(&step.definition, &db, &ctx).unwrap();
            assert_eq!(view.rows(), isolated.rows(), "{}", view.name());
        }
    }

    /// The benchmark's quality data: seed 0x5eed, 0.4 % of scale factor 1.
    fn quality_data(catalog: &mvdesign_catalog::Catalog) -> Database {
        Generator::with_config(GeneratorConfig {
            seed: 0x5eed,
            scale: 0.004,
            max_rows: usize::MAX,
        })
        .database(catalog)
    }

    /// Measures every view's rebuild plan and routed definition over `db`
    /// with every view stored (each plan reads only views before its own):
    /// the two give the same rows, and the rebuild costs no more blocks —
    /// strictly fewer when it is eager. Returns the names of the views
    /// rebuilt eagerly, in planner order.
    fn rebuilds_measure_no_more_than_routed(
        planner: &RefreshPlanner,
        mut db: Database,
    ) -> Vec<String> {
        let ctx = ExecContext::default();
        for step in &planner.steps {
            materialize_view(step.name.clone(), &step.definition, &mut db, &ctx)
                .expect("view materializes");
        }
        let mut eager = Vec::new();
        for step in &planner.steps {
            let (rebuilt, rebuilt_blocks) = blocks(&step.rebuilt, &db);
            let (routed, routed_blocks) = blocks(&step.routed, &db);
            assert!(
                rebuilt_blocks <= routed_blocks,
                "{}: rebuilt {rebuilt_blocks} > routed {routed_blocks}",
                step.name
            );
            assert_eq!(rebuilt.attrs(), routed.attrs(), "{}", step.name);
            assert_eq!(rebuilt.rows(), routed.rows(), "{}", step.name);
            if step.eager {
                assert!(rebuilt_blocks < routed_blocks, "{}", step.name);
                eager.push(step.name.to_string());
            }
        }
        eager
    }

    /// `plan`'s result and the blocks `measure` charges it at 10 records
    /// per block.
    fn blocks(plan: &Arc<Expr>, db: &Database) -> (Table, f64) {
        let (result, io) = measure(plan, db, 10.0, &ExecContext::default()).expect("plan measures");
        (result, io.total())
    }

    /// The greedy TPC-H-lite design on the benchmark's quality data:
    /// exactly its three γ-over-join views are rebuilt by eager
    /// aggregation, chosen by the estimates pinned below (routed and eager
    /// blocks), and every view's rebuild plan measures no more blocks than
    /// its routed definition.
    #[test]
    fn eager_rebuilds_of_the_tpch_lite_design_measure_no_more_than_routed() {
        let scenario = tpch_lite();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("designs");
        let db = quality_data(&scenario.catalog);
        let views = ViewCatalog::from_design(&design);
        let planner = RefreshPlanner::new(&views, &db);
        let eager = rebuilds_measure_no_more_than_routed(&planner, db.clone());
        assert_eq!(eager, ["tmp12", "tmp6", "tmp17"]);

        let catalog = estimates(&views, &db);
        let estimator = estimator(&catalog);
        let cost = |plan: &Arc<Expr>| estimator.tree_cost(plan);
        let estimated: Vec<_> = planner
            .steps
            .iter()
            .filter(|step| step.eager)
            .map(|step| (step.name.as_str(), cost(&step.routed), cost(&step.rebuilt)))
            .collect();
        assert_eq!(
            estimated,
            [
                ("tmp12", 201_603.0, 13_843.0),
                ("tmp6", 1_487_619.0, 367_490.0),
                ("tmp17", 12_001.0, 7_217.0),
            ]
        );
    }

    /// Star-6×10 (seed 42) with every query a γ over a σ over Fact ⋈ Dims,
    /// on the benchmark's quality data: the build pass rebuilds `tmp21` and
    /// `tmp12` eagerly, at 14 295 measured blocks, every view equals its
    /// isolated build, and every rebuild measures no more blocks than its
    /// routed definition.
    #[test]
    fn eager_rebuilds_of_an_aggregating_star_design_match_isolated_builds() {
        let scenario = StarSchema::with_config(StarSchemaConfig {
            seed: 42,
            dimensions: 6,
            queries: 10,
            aggregate_probability: 1.0,
            ..StarSchemaConfig::default()
        })
        .scenario();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("designs");
        let db = quality_data(&scenario.catalog);
        let planner = RefreshPlanner::new(&ViewCatalog::from_design(&design), &db);
        let ctx = ExecContext::default();
        let marks = db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
        let (built, report) = planner.build().refresh(&db, &marks, &ctx, None).unwrap();
        assert_eq!(report.eager, 2, "{report:?}");
        for (view, step) in built.iter().zip(&planner.steps) {
            let isolated = execute(&step.definition, &db, &ctx).unwrap();
            assert_eq!(view.attrs(), isolated.attrs(), "{}", step.name);
            if matches!(*step.definition, Expr::Aggregate { .. }) {
                assert_eq!(view.rows(), isolated.rows(), "{}", step.name);
            } else {
                let bag = |t: &Table| t.canonicalized().rows().to_vec();
                assert_eq!(bag(view), bag(&isolated), "{}", step.name);
            }
        }
        let period = measured_design_cost(&design, &db, 10.0).expect("measures");
        assert_eq!(period.maintenance_io, 14_295.0);
        let eager = rebuilds_measure_no_more_than_routed(&planner, db);
        assert_eq!(eager, ["tmp21", "tmp12"]);
    }

    /// Star-6×10 (seed 42) built from scratch shares joins as transients;
    /// while the pass runs, the working database holds a transient only
    /// until the last unit reading it has run.
    #[test]
    fn a_transient_leaves_the_working_database_after_its_last_reader() {
        let scenario = StarSchema::with_config(StarSchemaConfig {
            seed: 42,
            dimensions: 6,
            queries: 10,
            ..StarSchemaConfig::default()
        })
        .scenario();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("designs");
        let db = Generator::with_config(GeneratorConfig {
            seed: 7,
            scale: 0.001,
            max_rows: 400,
        })
        .database(&scenario.catalog);
        let planner = RefreshPlanner::new(&ViewCatalog::from_design(&design), &db);
        let pass = planner.build();
        let transients: Vec<&RelName> = pass
            .work
            .iter()
            .filter(|unit| matches!(unit, Work::Transient { .. }))
            .map(Work::name)
            .collect();
        assert!(transients.len() >= 2, "{:?}", pass.work);
        let ends = pass.work.len() - 1;
        assert!(
            pass.last_read[..ends].iter().any(|done| !done.is_empty()),
            "some transient's last reader runs before the pass ends"
        );
        let mut next = 0;
        let ctx = ExecContext::default();
        pass.run(&db, |unit, working| {
            for name in &transients {
                let held = working.table(name.as_str()).is_some();
                let read_later = pass.work[next..]
                    .iter()
                    .any(|later| reads(later.plan(), name));
                let computed = pass.work[..next].iter().any(|u| u.name() == *name);
                assert_eq!(
                    held,
                    computed && read_later,
                    "{name} before unit {next} ({})",
                    unit.name()
                );
            }
            next += 1;
            execute_shared(unit.name().clone(), unit.plan(), working, &ctx)
        })
        .expect("the pass runs");
        assert_eq!(next, pass.work.len());
    }
}
