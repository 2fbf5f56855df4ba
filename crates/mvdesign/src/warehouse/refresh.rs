//! Refresh along the MVPP DAG: one planner, built once per warehouse, says
//! what a refresh pass computes and in which order. [`Warehouse::refresh`]
//! runs its plan with the executor and the delta folds;
//! [`measured_period_cost`] and [`measured_design_cost`] run the same plan
//! under [`measure`](mvdesign_engine::measure).
//!
//! * **Order.** Views run children first. A view whose definition contains
//!   another's is the larger of the two, so the planner sorts views by
//!   definition size, keeping registration order among equals.
//! * **Routing.** Each definition is routed through a [`ViewCatalog`] of
//!   the views before it in that order. Every one of them is fresh when the
//!   view is reached: the pass either left it alone or refreshed it
//!   earlier. So a view reads its stored children instead of recomputing
//!   them.
//! * **Eager aggregation.** A view rebuilt from scratch whose definition is
//!   `γ[G; A](X ⋈ Y)` groups the child holding every aggregate input first
//!   ([`eager_aggregation`]): the join reads per-key partials of `X`, not
//!   its rows. The eager definition is routed like any other, so `Y` still
//!   reads the stored views it contains. A fold keeps the routed plan or
//!   the definition: a γ below the root would make it recompute.
//! * **Transients.** Among the views a pass rebuilds from scratch, every
//!   non-view subplan that two or more of them still need is computed once,
//!   as a transient table. Larger shared subplans are taken first, and a
//!   transient counts as a user of the subplans inside it. A transient
//!   lives only in the pass's working database: it is gone when the pass
//!   ends, committed or failed.
//!
//! A view folded from the appends needs no transient: the old side of its
//! Δ⋈ is read through the same routed plan, so where that side is a child
//! view it is the stored table, which reflects exactly the old state. It
//! folds through its routed plan only when every child view the pass
//! changes is an SPJ view with no γ anywhere that the pass folds too: such
//! a child's fold appends rows, and those rows are the parent's delta of
//! it. Otherwise it folds its definition.
//!
//! A transient is dropped from the pass's working database as soon as the
//! last unit reading it has run.
//!
//! [`Warehouse::refresh`]: super::Warehouse::refresh
//! [`measured_period_cost`]: super::measured_period_cost
//! [`measured_design_cost`]: super::measured_design_cost

use std::collections::HashSet;
use std::sync::Arc;

use mvdesign_algebra::{postorder, Expr};
use mvdesign_catalog::RelName;
use mvdesign_core::{eager_aggregation, ViewCatalog};
use mvdesign_engine::{Database, Table};

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
    /// What a rebuild computes: the eager-aggregation form of `definition`
    /// routed like it, or `routed` when that rule does not apply.
    rebuilt: Arc<Expr>,
    /// Whether `rebuilt` is the eager-aggregation form.
    eager: bool,
    /// The views `routed` scans.
    reads: Vec<RelName>,
    /// Whether the definition holds no γ: a fold of it only appends rows.
    appends: bool,
}

/// One unit of a pass, in the order the pass runs them.
#[derive(Debug)]
pub(super) enum Work<'p> {
    /// A subplan the pass's rebuilt views share, computed once and stored
    /// under `name` until its last reader has run.
    Transient { name: RelName, plan: Arc<Expr> },
    /// A view the pass brings up to date.
    View {
        name: &'p RelName,
        /// What the view is computed or folded through: a rebuilt view's
        /// routed plan, with the pass's transients in place of what they
        /// compute; a folded view's routed plan or, where a child it reads
        /// changes other than by appending, its definition.
        plan: Arc<Expr>,
        /// Whether the view is rebuilt from scratch rather than folded.
        rebuild: bool,
        /// Whether it is rebuilt through its eager-aggregation form.
        eager: bool,
        /// Whether a later view of the pass folds through this one, and so
        /// needs the rows this one's fold appends.
        feeds: bool,
    },
}

impl Work<'_> {
    /// The stored name of what this unit computes.
    pub(super) fn name(&self) -> &RelName {
        match self {
            Work::Transient { name, .. } => name,
            Work::View { name, .. } => name,
        }
    }

    /// The plan computing it from scratch.
    pub(super) fn plan(&self) -> &Arc<Expr> {
        match self {
            Work::Transient { plan, .. } | Work::View { plan, .. } => plan,
        }
    }
}

/// What one refresh pass computes, in order.
#[derive(Debug)]
pub(super) struct Pass<'p> {
    work: Vec<Work<'p>>,
    /// Per unit, the transients whose last reader it is.
    last_read: Vec<Vec<RelName>>,
}

impl RefreshPlanner {
    /// Orders the registered views children first and routes each
    /// definition through the views before it. `db` sizes the base
    /// relations: where both children of a join could be grouped first,
    /// the larger one is.
    pub(super) fn new(views: &ViewCatalog, db: &Database) -> Self {
        let rows = |relation: &RelName| db.table(relation.as_str()).map_or(0, Table::len);
        let mut order: Vec<&(RelName, Arc<Expr>)> = views.views().iter().collect();
        order.sort_by_key(|(_, definition)| definition.node_count());
        let mut before = ViewCatalog::new();
        let steps = order
            .into_iter()
            .map(|(name, definition)| {
                let routed = before.rewrite(definition);
                let eager = eager_aggregation(definition, rows);
                let rebuilt = eager
                    .as_ref()
                    .map_or_else(|| Arc::clone(&routed), |plan| before.rewrite(plan));
                let mut reads = Vec::new();
                postorder(&routed, &mut |e| {
                    if let Expr::Base(leaf) = &**e {
                        if before.views().iter().any(|(v, _)| v == leaf) && !reads.contains(leaf) {
                            reads.push(leaf.clone());
                        }
                    }
                });
                before.register(name.clone(), Arc::clone(definition));
                let mut appends = true;
                postorder(definition, &mut |e| {
                    appends &= !matches!(**e, Expr::Aggregate { .. });
                });
                Step {
                    name: name.clone(),
                    definition: Arc::clone(definition),
                    routed,
                    rebuilt,
                    eager: eager.is_some(),
                    reads,
                    appends,
                }
            })
            .collect();
        Self { steps }
    }

    /// Plans one pass over the views `due` selects, `rebuild` saying which
    /// of them are built from scratch; the rest fold the appends.
    pub(super) fn pass(
        &self,
        due: impl Fn(&RelName) -> bool,
        rebuild: impl Fn(&RelName) -> bool,
    ) -> Pass<'_> {
        let due: Vec<(&Step, bool)> = self
            .steps
            .iter()
            .filter(|s| due(&s.name))
            .map(|s| (s, rebuild(&s.name)))
            .collect();
        let mut plans: Vec<Arc<Expr>> = due
            .iter()
            .filter(|(_, rebuilt)| *rebuilt)
            .map(|(s, _)| Arc::clone(&s.rebuilt))
            .collect();
        let mut transients = share(&mut plans);
        let names: Vec<RelName> = transients.iter().map(|(name, _)| name.clone()).collect();
        // Whether a folded view folds through its routed plan: every child
        // view it reads that the pass changes only appends rows.
        let routed: Vec<bool> = due
            .iter()
            .map(|(step, rebuilt)| {
                !rebuilt
                    && step.reads.iter().all(|read| {
                        due.iter()
                            .find(|(child, _)| child.name == *read)
                            .is_none_or(|(child, rebuilt)| child.appends && !rebuilt)
                    })
            })
            .collect();
        let mut plans = plans.into_iter();
        let mut work = Vec::new();
        for (i, &(step, rebuild)) in due.iter().enumerate() {
            let plan = if rebuild {
                plans.next().expect("one plan per rebuilt view")
            } else if routed[i] {
                Arc::clone(&step.routed)
            } else {
                Arc::clone(&step.definition)
            };
            schedule(&plan, &mut transients, &mut work);
            let feeds =
                (i + 1..due.len()).any(|j| routed[j] && due[j].0.reads.contains(&step.name));
            work.push(Work::View {
                name: &step.name,
                plan,
                rebuild,
                eager: rebuild && step.eager,
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
        Pass { work, last_read }
    }
}

/// Whether `plan` scans the relation `name`.
fn reads(plan: &Expr, name: &RelName) -> bool {
    match plan {
        Expr::Base(leaf) => leaf == name,
        _ => plan.children().into_iter().any(|child| reads(child, name)),
    }
}

/// Pushes onto `work` every transient still `pending` that `plan` reads,
/// each after the transients it reads in turn. A transient so goes right
/// before its first reader — after every view it reads, since its reader
/// reads those too.
fn schedule(plan: &Expr, pending: &mut Vec<(RelName, Arc<Expr>)>, work: &mut Vec<Work<'_>>) {
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
    for child in plan.children() {
        schedule(child, pending, work);
    }
}

impl Pass<'_> {
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
        mut compute: impl FnMut(&Work<'_>, &Database) -> Result<Table, E>,
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
    **expr == *part || expr.children().into_iter().any(|c| contains(c, part))
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
    let rebuilt = match &**expr {
        Expr::Base(_) => unreachable!("a leaf that is not `part` contains nothing"),
        Expr::Select { input, predicate } => Expr::Select {
            input: swap(input),
            predicate: predicate.clone(),
        },
        Expr::Project { input, attrs } => Expr::Project {
            input: swap(input),
            attrs: attrs.clone(),
        },
        Expr::Join { left, right, on } => Expr::Join {
            left: swap(left),
            right: swap(right),
            on: on.clone(),
        },
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => Expr::Aggregate {
            input: swap(input),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
    };
    Arc::new(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_core::Designer;
    use mvdesign_engine::{
        execute_shared, materialize_view, measure, ExecContext, Generator, GeneratorConfig,
    };
    use mvdesign_workload::{tpch_lite, StarSchema, StarSchemaConfig};

    /// The greedy TPC-H-lite design on the benchmark's quality data (seed
    /// 0x5eed, 0.4 % of scale factor 1): exactly its three γ-over-join
    /// views are rebuilt by eager aggregation, and every view's rebuild
    /// plan measures no more blocks than its routed definition.
    #[test]
    fn eager_rebuilds_of_the_tpch_lite_design_measure_no_more_than_routed() {
        let scenario = tpch_lite();
        let design = Designer::new()
            .design(&scenario.catalog, &scenario.workload)
            .expect("designs");
        let mut db = Generator::with_config(GeneratorConfig {
            seed: 0x5eed,
            scale: 0.004,
            max_rows: usize::MAX,
        })
        .database(&scenario.catalog);
        let planner = RefreshPlanner::new(&ViewCatalog::from_design(&design), &db);
        let ctx = ExecContext::default();
        // Every plan reads only views before its own: store them all.
        for step in &planner.steps {
            materialize_view(step.name.clone(), &step.definition, &mut db, &ctx)
                .expect("view materializes");
        }
        let blocks = |plan: &Arc<Expr>| {
            let (result, io) = measure(plan, &db, 10.0, &ctx).expect("plan measures");
            (result, io.total())
        };
        let mut eager = Vec::new();
        for step in &planner.steps {
            let (rebuilt, rebuilt_blocks) = blocks(&step.rebuilt);
            let (routed, routed_blocks) = blocks(&step.routed);
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
        assert_eq!(eager, ["tmp12", "tmp6", "tmp17"]);
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
        let pass = planner.pass(|_| true, |_| true);
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
