//! Cross-crate correctness-audit harness (C-VERIFY).
//!
//! The core audit layer ([`mvdesign_core::audit_annotated`]) can only
//! cross-check what lives *inside* the core crate. This harness layers two
//! oracles on top of it and widens what it sees:
//!
//! - **transfer-cost twin** ([`remote_twin`]): the core audit also runs on
//!   a second annotation of the same MVPP whose catalog puts a seeded half
//!   of the relations at remote sites, so the bit-exact three-way cost
//!   differential (`evaluate` ≡ `evaluate_set` ≡ `IncrementalEvaluator`)
//!   covers costs that carry the §4.1 data-transfer term;
//! - **executable semantics** ([`check_semantics`]): the merged, pushed-down
//!   MVPP plan of every query — and both that plan and the raw query routed
//!   through the materialized views — must return exactly the rows of the
//!   original plan when run on `engine`-generated data. The original plan
//!   runs on the preserved tuple-at-a-time engine ([`row_reference`], kept here so the shipped
//!   engine has one execution path) while the merged and rewritten plans
//!   run on the columnar batch engine, so the check doubles as a batch ≡
//!   row differential test on every audit;
//! - **delta maintenance** ([`check_delta_refresh`]): folding captured
//!   append deltas into a stored view
//!   ([`mvdesign_engine::refresh_view_delta`]) must reproduce a full
//!   recompute of the view on the grown database — row for row for a
//!   γ-view, as a bag for an SPJ view, whose fold appends — across several
//!   rounds of deterministic appends of varying size, including empty ones.
//!
//! [`audit_scenario`] bundles everything (structural validation, rewrite
//! coverage, the three-way cost differential on the central and the twin
//! annotation, the greedy-trace replay, prune-safety and the executable
//! oracle) into a single pass over one catalog + workload, and
//! [`audit_standard_scenarios`] runs that pass over the paper example, a star
//! schema, TPC-H lite and every degenerate case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod row_reference;

use rand::prelude::*;

use mvdesign_algebra::Expr;
use mvdesign_catalog::{Catalog, RelName};
use mvdesign_core::{
    audit_annotated, check_query_rewrite, evaluate, generate_mvpps, greedy_no_prune, AnnotatedMvpp,
    AuditReport, GenerateConfig, GreedySelection, MaintenanceMode, MaintenancePolicy,
    UpdateWeighting, ViewCatalog, Workload,
};
use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign_engine::{
    execute, materialize_view, refresh_view_delta, split_appends, ExecContext, Generator,
    GeneratorConfig,
};
use mvdesign_optimizer::Planner;
use mvdesign_workload::{
    degenerate_scenarios, paper_example, tpch_lite, Scenario, StarSchema, StarSchemaConfig,
};

/// A copy of `catalog` in which a seeded half of the relations (rounded
/// up) sit at a remote site: each gets a transfer cost drawn from
/// `{1, 3, 10}`, the rest stay local.
pub fn remote_twin(catalog: &Catalog, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names: Vec<RelName> = catalog.relation_names().cloned().collect();
    names.shuffle(&mut rng);
    let mut twin = catalog.clone();
    for name in &names[..names.len().div_ceil(2)] {
        let t = *[1.0, 3.0, 10.0].choose(&mut rng).expect("non-empty");
        twin.set_transfer_cost(name.as_str(), t)
            .expect("a relation of this catalog, a finite cost");
    }
    twin
}

/// Maximum relative total-cost loss that [`check_prune_safety`] tolerates
/// for the pruned greedy versus the no-prune reference.
///
/// Empirically measured headroom: the worst loss observed across the
/// standard battery and a 300-seed random star-schema sweep is ~0.5%
/// (incremental maintenance on the paper workload); under pure recompute the
/// worst random-workload loss is ~8·10⁻⁵ relative. A cross-branch pruning
/// bug — the class this tripwire exists for — skips genuinely profitable
/// candidates and shows up orders of magnitude above this bound.
pub const DEFAULT_PRUNE_LOSS_TOLERANCE: f64 = 1e-2;

/// Branch pruning must never make the design *meaningfully* worse: the
/// pruned run's total cost may exceed the no-prune run's by at most a
/// relative [`DEFAULT_PRUNE_LOSS_TOLERANCE`].
///
/// The paper's §4.3 argument is a heuristic, not a theorem, even under pure
/// recompute maintenance: rejecting `v` prunes same-branch nodes that can
/// still carry marginal positive savings (on the paper workload the no-prune
/// run materializes one exactly cost-neutral extra node; on TPC-H lite it
/// saves ~3 blocks out of 10¹¹; on random star workloads losses up to
/// ~8·10⁻⁵ relative occur, and once the two runs diverge the divergence
/// cascades — either run can end up with nodes the other never considered).
/// Under incremental maintenance the delta-apply scan term breaks `Cm = Ca`
/// and the gap widens to ~0.5% on the paper workload. The only *sound*
/// invariant is structural — every pruned node lies on the rejected node's
/// own branch — and that is verified bit-exactly by
/// [`mvdesign_core::check_greedy_trace`]. This check is the complementary
/// bounded-loss tripwire: a cross-branch pruning bug skips genuinely
/// profitable candidates and regresses total cost far beyond the tolerance.
pub fn check_prune_safety(a: &AnnotatedMvpp) -> AuditReport {
    check_prune_safety_with(a, DEFAULT_PRUNE_LOSS_TOLERANCE)
}

/// [`check_prune_safety`] with an explicit relative cost-loss tolerance.
pub fn check_prune_safety_with(a: &AnnotatedMvpp, tolerance: f64) -> AuditReport {
    let mut report = AuditReport::new();
    let (with_prune, _) = GreedySelection::new().run(a);
    let (without_prune, _) = greedy_no_prune(a);
    // Compare only under the objective the greedy actually descends
    // (Figure 9's shared-recompute total). Both runs optimize that quantity;
    // under any *other* mode the two selections are equally un-optimized and
    // their gap carries no information about pruning.
    let mode = MaintenanceMode::SharedRecompute;
    let cost_with = evaluate(a, &with_prune, mode).total;
    let cost_without = evaluate(a, &without_prune, mode).total;
    let slack = tolerance * cost_without.abs().max(1.0);
    if cost_with > cost_without + slack {
        report.push(
            "greedy-prune-safety",
            format!(
                "{mode:?}: pruned run chose {with_prune:?} (cost {cost_with}), \
                 worse than no-prune {without_prune:?} (cost {cost_without}) \
                 beyond relative tolerance {tolerance:e}"
            ),
        );
    }
    report
}

/// Runs every query's merged MVPP plan — and, when a design is given, both
/// the merged plan and the raw query routed through the materialized views —
/// on generated data and checks the rows equal the original plan's, after
/// canonicalization.
pub fn check_semantics(
    catalog: &Catalog,
    workload: &Workload,
    a: &AnnotatedMvpp,
    views: Option<&ViewCatalog>,
    gen_config: GeneratorConfig,
) -> AuditReport {
    let mut report = AuditReport::new();
    let ctx = ExecContext::default();
    let mut db = Generator::with_config(gen_config).database(catalog);
    if let Some(views) = views {
        for (name, definition) in views.views() {
            if let Err(e) = materialize_view(name.clone(), definition, &mut db, &ctx) {
                report.push(
                    "semantics",
                    format!("view {name} failed to materialize: {e}"),
                );
                return report;
            }
        }
    }

    let mvpp = a.mvpp();
    for q in workload.queries() {
        let Some((_, _, root)) = mvpp.roots().iter().find(|(n, _, _)| n == q.name()) else {
            report.push("semantics", format!("query {} has no MVPP root", q.name()));
            continue;
        };
        let merged = mvpp.node(*root).expr();
        // The expected side runs on the tuple-at-a-time reference engine, so
        // this check is *differential*: an engine bug cannot cancel out of
        // both sides of the comparison.
        let expected = match row_reference::execute(q.root(), &db) {
            Ok(t) => t.canonicalized(),
            Err(e) => {
                report.push("semantics", format!("{} original fails: {e}", q.name()));
                continue;
            }
        };
        let got = match execute(merged, &db, &ctx) {
            Ok(t) => t.canonicalized(),
            Err(e) => {
                report.push("semantics", format!("{} merged plan fails: {e}", q.name()));
                continue;
            }
        };
        if expected.rows() != got.rows() {
            report.push(
                "semantics",
                format!(
                    "{}: merged plan returns {} row(s), original {}, and they differ",
                    q.name(),
                    got.rows().len(),
                    expected.rows().len()
                ),
            );
        }
        // Both forms a warehouse is asked: the merged plan, which holds the
        // views verbatim, and the raw query, which reaches them only through
        // containment matching.
        let Some(views) = views else { continue };
        for (form, plan) in [("merged", merged), ("raw", q.root())] {
            match execute(&views.rewrite(plan), &db, &ctx) {
                Ok(t) if expected.rows() == t.canonicalized().rows() => {}
                Ok(_) => report.push(
                    "semantics",
                    format!("{}: routing the {form} plan changes the answer", q.name()),
                ),
                Err(e) => report.push(
                    "semantics",
                    format!("{}: routed {form} plan fails: {e}", q.name()),
                ),
            }
        }
    }
    report
}

/// Differential oracle for incremental view maintenance: folding captured
/// append deltas into each stored view must reproduce a full recompute of
/// the view on the grown database — row for row for a γ-rooted view (the
/// fold is a roll-up on the recomputation's own kernel, so it emits the
/// same groups in the same key order), as a bag for an SPJ view (its fold
/// appends the delta after the stored rows, by design).
///
/// Appends are synthesized deterministically by re-running the data
/// generator with a round-derived seed and taking a prefix of each
/// relation's twin rows, so arbitrary scenario schemas (int, date and
/// dictionary-encoded text columns) are exercised without hand-written
/// fixtures. Rounds chain: round `r` appends on top of round `r-1`'s
/// database and folds into the view state round `r-1` left behind, with the
/// per-relation append size cycling through zero (a no-op delta) up to the
/// whole twin table. Views that cannot fold appends (an `AVG`, or a grown
/// γ below the root) are recomputed and keep participating in later
/// rounds.
pub fn check_delta_refresh(
    catalog: &Catalog,
    views: &ViewCatalog,
    gen_config: GeneratorConfig,
    rounds: usize,
) -> AuditReport {
    let mut report = AuditReport::new();
    let ctx = ExecContext::default();
    let mut db = Generator::with_config(gen_config).database(catalog);
    let mut stored = Vec::new();
    for (name, definition) in views.views() {
        match execute(definition, &db, &ctx) {
            Ok(t) => stored.push((name.clone(), definition, t)),
            Err(e) => {
                report.push("delta-refresh", format!("view {name} fails to build: {e}"));
                return report;
            }
        }
    }
    let base_names: Vec<_> = db.iter().map(|(n, _)| n.clone()).collect();

    for round in 0..rounds {
        let snapshot: std::collections::BTreeMap<_, _> =
            db.iter().map(|(n, t)| (n.clone(), t.len())).collect();
        let twin = Generator::with_config(GeneratorConfig {
            seed: gen_config.seed ^ (0xD5 + round as u64),
            ..gen_config
        })
        .database(catalog);
        for (i, name) in base_names.iter().enumerate() {
            let Some(src) = twin.table(name.as_str()) else {
                continue;
            };
            let take = src.len() * ((round + i) % 4) / 3;
            if take == 0 {
                continue;
            }
            let rows = src.rows()[..take.min(src.len())].to_vec();
            db.table_mut(name.as_str())
                .expect("base table exists")
                .extend_rows(rows);
        }

        let (old, deltas) = split_appends(&db, &snapshot);
        for (name, definition, table) in stored.iter_mut() {
            let recomputed = match execute(definition, &db, &ctx) {
                Ok(t) => t,
                Err(e) => {
                    report.push("delta-refresh", format!("{name} recompute fails: {e}"));
                    continue;
                }
            };
            match refresh_view_delta(table, definition, &old, &deltas, &ctx) {
                Ok(Some(folded)) => {
                    let differs = if matches!(***definition, Expr::Aggregate { .. }) {
                        folded.rows() != recomputed.rows()
                    } else {
                        folded.canonicalized().rows() != recomputed.canonicalized().rows()
                    };
                    if differs {
                        report.push(
                            "delta-refresh",
                            format!(
                                "{name}: round {round} fold has {} row(s), recompute {}, \
                                 and they differ",
                                folded.len(),
                                recomputed.len()
                            ),
                        );
                    }
                    *table = folded;
                }
                Ok(None) => *table = recomputed,
                Err(e) => report.push("delta-refresh", format!("{name} fold fails: {e}")),
            }
        }
    }
    report
}

/// Configuration for one full audit pass.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Seed for the [`remote_twin`] catalog.
    pub seed: u64,
    /// MVPP merge-order rotations to audit.
    pub max_rotations: usize,
    /// Data-generation settings for the executable semantics oracle.
    pub generator: GeneratorConfig,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            seed: 0xA0D1,
            max_rotations: 2,
            generator: GeneratorConfig {
                seed: 21,
                scale: 0.004,
                max_rows: 300,
            },
        }
    }
}

/// Runs every oracle over one scenario: for each candidate MVPP, structural
/// and schema validation, per-query rewrite coverage, the greedy replay and
/// the three-way in-core cost differential (on the central annotation and
/// on its [`remote_twin`]), prune safety, the executable semantics oracle
/// (with and without the greedy design's materialized views), and the
/// delta-refresh oracle over the greedy design's views.
pub fn audit_scenario(scenario: &Scenario, config: &AuditConfig) -> AuditReport {
    let mut report = AuditReport::new();
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let twin_catalog = remote_twin(&scenario.catalog, config.seed);
    let twin_est = CostEstimator::new(
        &twin_catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let planner = Planner::new();
    let candidates = generate_mvpps(
        &scenario.workload,
        &est,
        &planner,
        GenerateConfig {
            max_rotations: config.max_rotations,
        },
    );

    for mvpp in candidates {
        for q in scenario.workload.queries() {
            if let Some((_, _, root)) = mvpp.roots().iter().find(|(n, _, _)| n == q.name()) {
                let merged = mvpp.node(*root).expr();
                report.merge(check_query_rewrite(q.root(), merged, &scenario.catalog));
            }
        }

        // Audit under both maintenance policies: the incremental policy
        // exercises the work-fraction and delta-apply terms.
        for policy in [
            MaintenancePolicy::Recompute,
            MaintenancePolicy::Incremental {
                update_fraction: 0.25,
            },
        ] {
            let a = AnnotatedMvpp::annotate_with(mvpp.clone(), &est, UpdateWeighting::Max, policy);
            report.merge(audit_annotated(&a, &scenario.catalog));
            report.merge(check_prune_safety(&a));
            let twin =
                AnnotatedMvpp::annotate_with(mvpp.clone(), &twin_est, UpdateWeighting::Max, policy);
            report.merge(audit_annotated(&twin, &twin_catalog));
        }

        let a = AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max);
        let (greedy_m, _) = GreedySelection::new().run(&a);
        let mut views = ViewCatalog::new();
        for id in &greedy_m {
            let node = a.mvpp().node(*id);
            views.register(node.label(), std::sync::Arc::clone(node.expr()));
        }
        report.merge(check_semantics(
            &scenario.catalog,
            &scenario.workload,
            &a,
            Some(&views),
            config.generator,
        ));
        report.merge(check_delta_refresh(
            &scenario.catalog,
            &views,
            config.generator,
            3,
        ));
    }
    report
}

/// The standard audit battery: the paper's running example, a default star
/// schema, TPC-H lite and every degenerate case. Returns one named report
/// per scenario.
pub fn audit_standard_scenarios(config: &AuditConfig) -> Vec<(String, AuditReport)> {
    let mut results = Vec::new();
    results.push((
        "paper".to_string(),
        audit_scenario(&paper_example(), config),
    ));
    let star = StarSchema::with_config(StarSchemaConfig {
        queries: 6,
        ..StarSchemaConfig::default()
    })
    .scenario();
    results.push(("star".to_string(), audit_scenario(&star, config)));
    results.push(("tpch".to_string(), audit_scenario(&tpch_lite(), config)));
    for case in degenerate_scenarios() {
        results.push((
            format!("degenerate/{}", case.name),
            audit_scenario(&case.scenario, config),
        ));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_battery_is_clean() {
        for (name, report) in audit_standard_scenarios(&AuditConfig::default()) {
            report.assert_clean(&name);
        }
    }
}
