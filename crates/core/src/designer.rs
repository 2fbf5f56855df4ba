//! End-to-end materialized view design: generate candidate MVPPs, select
//! views in each, keep the cheapest design.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use mvdesign_algebra::{output_attrs, InferError};
use mvdesign_catalog::Catalog;
use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign_optimizer::{Planner, PlannerConfig};

use crate::annotate::{AnnotatedMvpp, MaintenancePolicy, UpdateWeighting};
use crate::evaluate::{evaluate, CostBreakdown, MaintenanceMode};
use crate::generate::{generate_mvpps, GenerateConfig};
use crate::greedy::{GreedySelection, SelectionTrace};
use crate::mvpp::NodeId;
use crate::parallel;
use crate::search::SelectionAlgorithm;
use crate::workload::Workload;

/// Errors from [`Designer::design`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DesignError {
    /// A query references relations or attributes the catalog lacks.
    InvalidQuery {
        /// The offending query's name.
        query: String,
        /// The underlying schema error.
        source: InferError,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidQuery { query, source } => {
                write!(
                    f,
                    "query `{query}` is invalid against the catalog: {source}"
                )
            }
        }
    }
}

impl Error for DesignError {}

/// Configuration for [`Designer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignerConfig {
    /// Cardinality estimation mode.
    pub estimation: EstimationMode,
    /// MVPP generation knobs.
    pub generate: GenerateConfig,
    /// Planner knobs for the per-query optimal plans.
    pub planner: PlannerConfig,
    /// How maintenance is charged when evaluating designs.
    pub maintenance: MaintenanceMode,
    /// How update weights are derived.
    pub update_weighting: UpdateWeighting,
    /// How materialized views are refreshed.
    pub maintenance_policy: MaintenancePolicy,
    /// Worker threads for evaluating candidate MVPPs concurrently: `0`
    /// (the default) uses all available cores, `1` runs sequentially. The
    /// produced design is identical at any setting — candidates are scored
    /// independently and reduced in rotation order.
    pub parallelism: usize,
}

/// A finished design.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The chosen (annotated) MVPP.
    pub mvpp: AnnotatedMvpp,
    /// Node ids chosen for materialization.
    pub materialized: BTreeSet<NodeId>,
    /// Evaluated cost of the design.
    pub cost: CostBreakdown,
    /// The greedy algorithm's decision trace on the chosen MVPP.
    pub trace: SelectionTrace,
    /// Which rotation (candidate index) won.
    pub candidate_index: usize,
    /// Total cost of each candidate MVPP after selection, in rotation order.
    pub candidate_costs: Vec<f64>,
}

impl DesignResult {
    /// Labels of the materialized nodes (e.g. `["tmp2", "tmp4"]`).
    pub fn materialized_labels(&self) -> Vec<String> {
        self.materialized
            .iter()
            .map(|id| self.mvpp.mvpp().node(*id).label().to_string())
            .collect()
    }
}

/// The end-to-end designer: Figure 4 (candidate generation) plus Figure 9
/// (view selection) plus candidate comparison (§4.2's final step).
#[derive(Debug, Clone, Copy, Default)]
pub struct Designer {
    config: DesignerConfig,
}

impl Designer {
    /// A designer with default configuration (calibrated estimation, the
    /// paper's cost model, shared-recompute maintenance).
    pub fn new() -> Self {
        Self::default()
    }

    /// A designer with explicit configuration.
    pub fn with_config(config: DesignerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DesignerConfig {
        &self.config
    }

    /// Designs the materialized view set for `workload` over `catalog`.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::InvalidQuery`] when a query references
    /// unknown relations or attributes.
    pub fn design(
        &self,
        catalog: &Catalog,
        workload: &Workload,
    ) -> Result<DesignResult, DesignError> {
        self.design_with(catalog, workload, &GreedySelection::new())
    }

    /// Like [`Designer::design`], with an explicit selection algorithm
    /// (e.g. [`crate::GeneticSelection`] or [`crate::ExhaustiveSelection`]).
    /// The decision trace always comes from the paper's greedy, for
    /// explainability, even when another algorithm picks the set.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::InvalidQuery`] when a query references
    /// unknown relations or attributes.
    pub fn design_with(
        &self,
        catalog: &Catalog,
        workload: &Workload,
        algorithm: &dyn SelectionAlgorithm,
    ) -> Result<DesignResult, DesignError> {
        for q in workload.queries() {
            output_attrs(q.root(), catalog).map_err(|source| DesignError::InvalidQuery {
                query: q.name().to_string(),
                source,
            })?;
        }
        let est = CostEstimator::new(catalog, self.config.estimation, PaperCostModel::default());
        let planner = Planner::with_config(self.config.planner);
        let candidates = generate_mvpps(workload, &est, &planner, self.config.generate);

        // Candidate MVPPs are scored independently, so they fan out across
        // threads sharing the estimator's one class table and stats cache.
        // The merge interned every class a worker reads, so no worker makes
        // one, and a class's stats depend only on its representative and
        // its children's: whichever worker fills a slot, the f64s are the
        // same. The reduction runs over the ordered results in order.
        let threads = parallel::threads_for(self.config.parallelism, candidates.len());
        let config = self.config;
        let est = &est;
        let scored = parallel::ordered_map(candidates, threads, &|_, mvpp| {
            let annotated = AnnotatedMvpp::annotate_with(
                mvpp,
                est,
                config.update_weighting,
                config.maintenance_policy,
            );
            // The trace's greedy set is the one a greedy selection returns
            // and a genetic one seeds from: no algorithm runs it again.
            let (greedy, trace) = GreedySelection::new().run(&annotated);
            let set = algorithm.select_after_greedy(&annotated, config.maintenance, greedy);
            let cost = evaluate(&annotated, &set, config.maintenance);
            (annotated, set, cost, trace)
        });

        let mut best: Option<DesignResult> = None;
        let mut candidate_costs = Vec::with_capacity(scored.len());
        for (i, (annotated, set, cost, trace)) in scored.into_iter().enumerate() {
            candidate_costs.push(cost.total);
            let replace = best.as_ref().is_none_or(|b| cost.total < b.cost.total);
            if replace {
                best = Some(DesignResult {
                    mvpp: annotated,
                    materialized: set,
                    cost,
                    trace,
                    candidate_index: i,
                    candidate_costs: Vec::new(),
                });
            }
        }
        let mut result = best.expect("workload is non-empty, so at least one candidate exists");
        result.candidate_costs = candidate_costs;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{parse_query_with, Query};
    use mvdesign_catalog::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Pd")
            .attr("Pid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("Div")
            .attr("Did", AttrType::Int)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(1.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.set_join_selectivity(
            mvdesign_algebra::AttrRef::new("Pd", "Did"),
            mvdesign_algebra::AttrRef::new("Div", "Did"),
            1.0 / 5_000.0,
        )
        .unwrap();
        c
    }

    #[test]
    fn design_runs_end_to_end() {
        let c = catalog();
        let q1 = parse_query_with(
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            &c,
        )
        .unwrap();
        let w = Workload::new([Query::new("Q1", 10.0, q1)]).unwrap();
        let result = Designer::new().design(&c, &w).unwrap();
        assert!(result.cost.total.is_finite());
        assert_eq!(result.candidate_costs.len(), 1);
        assert!(result.candidate_index < 1);
        // The chosen design is at least as good as every candidate.
        for cost in &result.candidate_costs {
            assert!(result.cost.total <= cost + 1e-9);
        }
    }

    #[test]
    fn invalid_query_is_reported_with_its_name() {
        let c = catalog();
        let bad = parse_query_with("SELECT Pd.name FROM Pd, Ghost", &c).unwrap();
        let w = Workload::new([Query::new("Qbad", 1.0, bad)]).unwrap();
        let err = Designer::new().design(&c, &w).unwrap_err();
        match err {
            DesignError::InvalidQuery { query, .. } => assert_eq!(query, "Qbad"),
        }
    }

    #[test]
    fn materialized_labels_resolve() {
        let c = catalog();
        let q1 = parse_query_with(
            "SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did",
            &c,
        )
        .unwrap();
        let w = Workload::new([Query::new("Q1", 50.0, q1)]).unwrap();
        let result = Designer::new().design(&c, &w).unwrap();
        let labels = result.materialized_labels();
        assert_eq!(labels.len(), result.materialized.len());
    }
}
