//! Cardinality estimation for SPJ expressions.

use std::sync::{Arc, Mutex, MutexGuard};

use mvdesign_algebra::{output_attrs, Expr, ExprArena, ExprId, Predicate, Rhs};
use mvdesign_catalog::{Catalog, RelationStats};

use crate::model::CostModel;

/// How joint sizes are estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimationMode {
    /// Derive every size from selectivities (independence assumptions).
    Analytic,
    /// Like `Analytic`, but a join whose set of base relations has a stated
    /// joint size in the catalog uses that size (scaled by the selection
    /// selectivities applied below the join). This reproduces how the paper
    /// reads joint sizes straight out of Table 1.
    #[default]
    Calibrated,
}

/// The one stats cache: an [`ExprArena`] interning every estimated
/// expression plus a dense vector of per-class results indexed by
/// [`ExprId`]. Interning folds join commutativity/associativity and the
/// other `semantic_key` normalisations away, so semantically equal
/// expressions share one slot by construction.
#[derive(Debug, Default)]
struct StatsCache {
    arena: ExprArena,
    stats: Vec<Option<RelationStats>>,
}

/// Estimates output statistics (records/blocks) for every subexpression.
///
/// Estimates are memoised per semantic-equivalence class in a single
/// arena-indexed cache behind a mutex, which makes the estimator [`Sync`]: one
/// estimator can be shared by reference across worker threads (the
/// `Designer` fan-out does exactly that), and every thread hits the same
/// warm cache. Re-estimating a shared `Arc` costs one pointer-map probe
/// inside the arena; a structurally fresh duplicate costs one bottom-up
/// intern — never an O(n²) key-string build.
#[derive(Debug)]
pub struct CardinalityEstimator<'c> {
    catalog: &'c Catalog,
    mode: EstimationMode,
    cache: Mutex<StatsCache>,
}

impl<'c> CardinalityEstimator<'c> {
    /// Creates an estimator over a catalog.
    pub fn new(catalog: &'c Catalog, mode: EstimationMode) -> Self {
        Self {
            catalog,
            mode,
            cache: Mutex::new(StatsCache::default()),
        }
    }

    /// The catalog this estimator reads.
    pub fn catalog(&self) -> &'c Catalog {
        self.catalog
    }

    /// Locks the cache; a panic while holding the lock can only leave whole,
    /// valid entries behind, so a poisoned mutex is safe to adopt.
    fn cache(&self) -> MutexGuard<'_, StatsCache> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Interns `expr`'s semantic-equivalence class in the shared cache and
    /// returns its dense id (stable for this estimator's lifetime).
    pub fn class_of(&self, expr: &Arc<Expr>) -> ExprId {
        self.with_classes(|arena| arena.intern(expr))
    }

    /// Runs `f` on the shared class table under one lock: one lock for a
    /// whole plan an MVPP interns, not one [`class_of`](Self::class_of) each.
    pub fn with_classes<R>(&self, f: impl FnOnce(&mut ExprArena) -> R) -> R {
        f(&mut self.cache().arena)
    }

    /// Number of distinct semantic classes interned so far.
    pub fn interned_classes(&self) -> usize {
        self.cache().arena.len()
    }

    /// Estimated statistics of the expression's result.
    ///
    /// Unknown base relations estimate as empty; run
    /// [`mvdesign_algebra::output_attrs`] first if you want hard errors.
    pub fn stats(&self, expr: &Arc<Expr>) -> RelationStats {
        self.stats_in(&mut self.cache(), expr)
    }

    /// [`stats`](Self::stats) under a lock the caller holds, so that a
    /// caller resolving a node and its inputs locks once.
    fn stats_in(&self, cache: &mut StatsCache, expr: &Arc<Expr>) -> RelationStats {
        let id = cache.arena.intern(expr);
        if let Some(Some(hit)) = cache.stats.get(id.index()) {
            return *hit;
        }
        let StatsCache { arena, stats } = cache;
        stats.resize(arena.len(), None);
        self.fill(arena, stats, id);
        stats[id.index()].expect("fill computes the requested class")
    }

    /// Computes the statistics of `id` and of every class beneath it that
    /// has none yet, children first, so each step reads only present slots
    /// and the lock is never re-entered. Returns how many classes it
    /// computed: each missing one once, however often it is shared.
    fn fill(&self, arena: &ExprArena, stats: &mut [Option<RelationStats>], id: ExprId) -> usize {
        let mut computed = 1;
        for &child in arena.children(id) {
            if stats[child.index()].is_none() {
                computed += self.fill(arena, stats, child);
            }
        }
        stats[id.index()] = Some(compute_class(self.catalog, self.mode, arena, stats, id));
        computed
    }
}

/// Computes one class's statistics from its representative expression and
/// its children's already-cached statistics.
fn compute_class(
    catalog: &Catalog,
    mode: EstimationMode,
    arena: &ExprArena,
    stats: &[Option<RelationStats>],
    id: ExprId,
) -> RelationStats {
    let of = |child: ExprId| stats[child.index()].expect("children computed before parents");
    let expr = arena.expr(id);
    let children = arena.children(id);
    match &**expr {
        Expr::Base(name) => catalog
            .stats(name.as_str())
            .copied()
            .unwrap_or_else(RelationStats::empty),
        Expr::Select { predicate, .. } => {
            let s = predicate.selectivity(catalog);
            of(children[0]).scaled(s)
        }
        Expr::Project { input, attrs } => {
            let in_stats = of(children[0]);
            // Projection keeps every record but narrows tuples: blocks
            // shrink with the kept-attribute fraction.
            let ratio = match output_attrs(input, catalog) {
                Ok(avail) if !avail.is_empty() => {
                    (attrs.len() as f64 / avail.len() as f64).clamp(0.0, 1.0)
                }
                _ => 1.0,
            };
            RelationStats::new(in_stats.records, in_stats.blocks * ratio)
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_stats = of(children[0]);
            // Number of groups: bounded by the product of the grouping
            // attributes' domain sizes (the reciprocal of a registered
            // equality selectivity is the domain-size proxy used across
            // the workspace) and by the input cardinality itself.
            let mut groups = 1.0_f64;
            for g in group_by {
                let s = catalog.selectivity(g.relation.as_str(), g.attr.as_str());
                let domain = if s > 0.0 { 1.0 / s } else { in_stats.records };
                groups *= domain.max(1.0);
                if groups > in_stats.records {
                    break;
                }
            }
            let records =
                groups
                    .min(in_stats.records)
                    .max(if in_stats.records > 0.0 { 1.0 } else { 0.0 });
            // Output tuples carry the group keys plus one value per
            // aggregate; approximate the width by the kept-attribute
            // fraction, as projection does.
            let width_attrs = (group_by.len() + aggs.len()).max(1) as f64;
            let in_arity = match output_attrs(input, catalog) {
                Ok(avail) if !avail.is_empty() => avail.len() as f64,
                _ => width_attrs,
            };
            let ratio = (width_attrs / in_arity).clamp(0.0, 1.0);
            let per_block = in_stats.blocking_factor() / ratio.max(1e-9);
            RelationStats::new(records, records / per_block.max(1.0))
        }
        Expr::Join { on, .. } => {
            if mode == EstimationMode::Calibrated {
                if let Some(o) = catalog.size_override(&expr.base_relations()) {
                    let s = subtree_selection_selectivity(expr, catalog);
                    return o.stats.scaled(s);
                }
            }
            let l = of(children[0]);
            let r = of(children[1]);
            let js: f64 = if on.is_cross() {
                1.0
            } else {
                on.pairs()
                    .iter()
                    .map(|(a, b)| catalog.join_selectivity_or_default(a, b))
                    .product()
            };
            // Saturate instead of overflowing: astronomically large (but
            // valid) inputs would otherwise push the product to ∞ and
            // panic `RelationStats::new`.
            let records = (l.records * r.records * js).min(f64::MAX);
            // Output tuples are as wide as both inputs together; widths
            // are the reciprocal blocking factors.
            let width = 1.0 / l.blocking_factor() + 1.0 / r.blocking_factor();
            RelationStats::new(records, (records * width).min(f64::MAX))
        }
    }
}

/// Whether a predicate can be answered entirely through declared indexes:
/// a comparison against a literal on an indexed attribute, or a conjunction
/// of such comparisons.
fn indexable(p: &Predicate, catalog: &Catalog) -> bool {
    match p {
        Predicate::True => false,
        Predicate::Cmp(c) => {
            matches!(c.rhs, Rhs::Literal(_))
                && catalog.has_index(c.attr.relation.as_str(), c.attr.attr.as_str())
        }
        Predicate::And(ps) => ps.iter().all(|p| indexable(p, catalog)),
        Predicate::Or(_) => false,
    }
}

/// Product of the selectivities of every selection in the subtree.
fn subtree_selection_selectivity(expr: &Arc<Expr>, catalog: &Catalog) -> f64 {
    let own = match &**expr {
        Expr::Select { predicate, .. } => predicate.selectivity(catalog),
        _ => 1.0,
    };
    expr.child_iter()
        .map(|c| subtree_selection_selectivity(c, catalog))
        .product::<f64>()
        * own
}

/// Combines a [`CardinalityEstimator`] with a [`CostModel`] to cost
/// operators and whole plans.
#[derive(Debug)]
pub struct CostEstimator<'c, M> {
    cards: CardinalityEstimator<'c>,
    model: M,
    /// Whether any relation has a transfer cost; when none does, `op_cost`
    /// (which sits in the join-order DP) skips the shipping term.
    remote: bool,
}

impl<'c, M: CostModel> CostEstimator<'c, M> {
    /// Creates a cost estimator.
    pub fn new(catalog: &'c Catalog, mode: EstimationMode, model: M) -> Self {
        Self {
            cards: CardinalityEstimator::new(catalog, mode),
            model,
            remote: catalog.iter().any(|(_, m)| m.transfer_cost > 0.0),
        }
    }

    /// The underlying cardinality estimator.
    pub fn cardinalities(&self) -> &CardinalityEstimator<'c> {
        &self.cards
    }

    /// The cost model in use.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Estimated output statistics of an expression.
    pub fn stats(&self, expr: &Arc<Expr>) -> RelationStats {
        self.cards.stats(expr)
    }

    /// Cost of evaluating *this operator only*, assuming its inputs are
    /// already available (materialized or piped in). Zero for base leaves.
    ///
    /// Data transfer (§4.1's distributed warehouse) is priced here and only
    /// here, per input that is a base relation `r` with
    /// `t = Catalog::transfer_cost(r) > 0`:
    ///
    /// * a unary operator (σ, π, γ) runs at `r`'s site and ships its output:
    ///   `+ t · blocks(out)`;
    /// * a join ships that base input whole: `+ t · blocks(r)`.
    ///
    /// Leaves cost nothing and stored views live at the warehouse, so every
    /// evaluator built on `op_cost` designs for a distributed warehouse
    /// unchanged; with every transfer cost `0` the costs are the central ones.
    pub fn op_cost(&self, expr: &Arc<Expr>) -> f64 {
        self.op_cost_in(&mut self.cards.cache(), expr)
    }

    /// [`op_cost`](Self::op_cost) under a lock the caller holds: the node
    /// and its inputs resolve under one lock.
    fn op_cost_in(&self, cache: &mut StatsCache, expr: &Arc<Expr>) -> f64 {
        let mut stats = |e: &Arc<Expr>| self.cards.stats_in(cache, e);
        let out = stats(expr);
        let cost = match &**expr {
            Expr::Base(_) => 0.0,
            Expr::Select { input, predicate } => {
                let in_stats = stats(input);
                if input.is_base() && indexable(predicate, self.cards.catalog()) {
                    self.model.indexed_select(&in_stats, &out)
                } else {
                    self.model.select(&in_stats, &out)
                }
            }
            Expr::Project { input, .. } => self.model.project(&stats(input), &out),
            Expr::Join { left, right, .. } => {
                let (l, r) = (stats(left), stats(right));
                self.model.join(&l, &r, &out)
            }
            Expr::Aggregate { input, .. } => self.model.aggregate(&stats(input), &out),
        };
        if self.remote {
            cost + self.shipping(cache, expr, &out)
        } else {
            cost
        }
    }

    /// The data-transfer term of [`op_cost`](Self::op_cost): the blocks
    /// its remote base inputs send to the warehouse, times their transfer
    /// costs.
    fn shipping(&self, cache: &mut StatsCache, expr: &Arc<Expr>, out: &RelationStats) -> f64 {
        let catalog = self.cards.catalog();
        let transfer = |input: &Arc<Expr>| match &**input {
            Expr::Base(r) => catalog.transfer_cost(r.as_str()),
            _ => 0.0,
        };
        match &**expr {
            Expr::Base(_) => 0.0,
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => transfer(input) * out.blocks,
            Expr::Join { left, right, .. } => {
                transfer(left) * self.cards.stats_in(cache, left).blocks
                    + transfer(right) * self.cards.stats_in(cache, right).blocks
            }
        }
    }

    /// Cost of computing the expression from base relations — the paper's
    /// `Ca(v)`.
    ///
    /// Semantically identical subtrees are charged **once** (a tree that
    /// uses `σ city='LA' (Division)` twice recomputes it once), matching the
    /// DAG semantics of an MVPP.
    ///
    /// The walk holds the cache's lock throughout.
    pub fn tree_cost(&self, expr: &Arc<Expr>) -> f64 {
        self.tree_cost_inner(&mut self.cards.cache(), expr, &mut Vec::new())
    }

    /// `seen` is a bitset over class ids, grown as the walk interns them.
    fn tree_cost_inner(
        &self,
        cache: &mut StatsCache,
        expr: &Arc<Expr>,
        seen: &mut Vec<u64>,
    ) -> f64 {
        // Equivalence classes come from the shared arena, so "seen" means
        // "semantically identical", not merely "same allocation".
        let class = cache.arena.intern(expr).index();
        let (word, bit) = (class / 64, 1 << (class % 64));
        seen.resize(seen.len().max(word + 1), 0);
        let before = seen[word];
        seen[word] |= bit;
        if before & bit != 0 {
            return 0.0;
        }
        let mut total = self.op_cost_in(cache, expr);
        for c in expr.child_iter() {
            total += self.tree_cost_inner(cache, c, seen);
        }
        total
    }

    /// Cost of reading a materialized copy of `expr`'s result.
    pub fn scan_cost(&self, expr: &Arc<Expr>) -> f64 {
        self.model.scan(&self.stats(expr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PaperCostModel;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition, Predicate};
    use mvdesign_catalog::{AttrType, RelName};

    /// Product / Division / Part slice of the paper's Table 1.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Product")
            .attr("Pid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("Division")
            .attr("Did", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(1.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.set_join_selectivity(
            AttrRef::new("Product", "Did"),
            AttrRef::new("Division", "Did"),
            1.0 / 5_000.0,
        )
        .unwrap();
        c.set_size_override(
            [RelName::new("Product"), RelName::new("Division")],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        c
    }

    fn tmp1() -> Arc<Expr> {
        Expr::select(
            Expr::base("Division"),
            Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "LA"),
        )
    }

    fn tmp2() -> Arc<Expr> {
        Expr::join(
            Expr::base("Product"),
            tmp1(),
            JoinCondition::on(
                AttrRef::new("Product", "Did"),
                AttrRef::new("Division", "Did"),
            ),
        )
    }

    #[test]
    fn huge_join_estimate_saturates_instead_of_panicking() {
        let mut c = Catalog::new();
        for name in ["Big", "Huge"] {
            c.relation(name)
                .attr("id", AttrType::Int)
                .records(1e300)
                .blocks(1e298)
                .update_frequency(1.0)
                .finish()
                .unwrap();
        }
        c.set_join_selectivity(AttrRef::new("Big", "id"), AttrRef::new("Huge", "id"), 1.0)
            .unwrap();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let s = e.stats(&Expr::join(
            Expr::base("Big"),
            Expr::base("Huge"),
            JoinCondition::on(AttrRef::new("Big", "id"), AttrRef::new("Huge", "id")),
        ));
        // 1e300 × 1e300 overflows f64; the estimate must clamp, not panic.
        assert_eq!(s.records, f64::MAX);
        assert!(s.blocks.is_finite());
    }

    #[test]
    fn base_stats_come_from_catalog() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        assert_eq!(e.stats(&Expr::base("Product")).blocks, 3_000.0);
    }

    #[test]
    fn unknown_base_estimates_empty() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        assert_eq!(e.stats(&Expr::base("Ghost")).records, 0.0);
    }

    #[test]
    fn select_scales_by_selectivity() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let s = e.stats(&tmp1());
        assert_eq!(s.records, 100.0);
        assert_eq!(s.blocks, 10.0);
    }

    #[test]
    fn analytic_join_uses_js_and_width() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let s = e.stats(&tmp2());
        // 30k × 100 × (1/5k) = 600 records.
        assert_eq!(s.records, 600.0);
        // width = 1/10 + 1/10 ⇒ 120 blocks.
        assert!((s.blocks - 120.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_join_scales_table1_override() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Calibrated);
        let s = e.stats(&tmp2());
        // Table 1 says P⋈D = 30k/5k; the σ below keeps 2%.
        assert_eq!(s.records, 600.0);
        assert_eq!(s.blocks, 100.0);
    }

    #[test]
    fn calibrated_without_override_falls_back_to_analytic() {
        let mut c = Catalog::new();
        c.relation("A")
            .attr("x", AttrType::Int)
            .records(100.0)
            .blocks(10.0)
            .finish()
            .unwrap();
        c.relation("B")
            .attr("x", AttrType::Int)
            .records(100.0)
            .blocks(10.0)
            .finish()
            .unwrap();
        let e = CardinalityEstimator::new(&c, EstimationMode::Calibrated);
        let j = Expr::join(
            Expr::base("A"),
            Expr::base("B"),
            JoinCondition::on(AttrRef::new("A", "x"), AttrRef::new("B", "x")),
        );
        // default js = 1/max(|A|,|B|) = 1/100 → 100 records, width 0.2.
        let s = e.stats(&j);
        assert_eq!(s.records, 100.0);
        assert!((s.blocks - 20.0).abs() < 1e-9);
    }

    #[test]
    fn projection_narrows_blocks() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let p = Expr::project(Expr::base("Product"), [AttrRef::new("Product", "name")]);
        let s = e.stats(&p);
        assert_eq!(s.records, 30_000.0);
        assert_eq!(s.blocks, 1_000.0); // 1 of 3 attributes kept
    }

    #[test]
    fn op_cost_matches_paper_arithmetic() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        // σ on Division: one 500-block scan.
        assert_eq!(est.op_cost(&tmp1()), 500.0);
        // Join: 3000 × 10 block pairs + 100 output blocks.
        assert_eq!(est.op_cost(&tmp2()), 30_100.0);
        // Ca(tmp2) adds the selection underneath.
        assert_eq!(est.tree_cost(&tmp2()), 30_600.0);
    }

    #[test]
    fn selection_over_a_remote_base_ships_its_output() {
        let mut c = catalog();
        c.set_transfer_cost("Division", 4.0).unwrap();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        // The 500-block scan runs at Division's site; its 10 output blocks
        // travel, never the whole relation.
        let out_blocks = est.stats(&tmp1()).blocks;
        assert_eq!(out_blocks, 10.0);
        assert_eq!(est.op_cost(&tmp1()), 500.0 + 4.0 * out_blocks);
        // The join reads σ(Division) at the warehouse: only local Product
        // is a base input, so the join itself ships nothing.
        assert_eq!(est.op_cost(&tmp2()), 30_100.0);
    }

    #[test]
    fn at_source_filtering_ships_no_more_than_at_warehouse() {
        let mut c = catalog();
        c.set_transfer_cost("Division", 4.0).unwrap();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        // Filtering at the warehouse would ship all of Division before the
        // same 500-block scan; filtering at its site ships 10 blocks.
        let division = est.stats(&Expr::base("Division")).blocks;
        let at_warehouse = 500.0 + 4.0 * division;
        assert!(est.op_cost(&tmp1()) < at_warehouse);
    }

    #[test]
    fn join_ships_each_remote_base_input_whole() {
        let mut c = catalog();
        c.set_transfer_cost("Product", 2.0).unwrap();
        c.set_transfer_cost("Division", 5.0).unwrap();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let central = catalog();
        let plain = CostEstimator::new(
            &central,
            EstimationMode::Calibrated,
            PaperCostModel::default(),
        );
        let join = Expr::join(
            Expr::base("Product"),
            Expr::base("Division"),
            JoinCondition::on(
                AttrRef::new("Product", "Did"),
                AttrRef::new("Division", "Did"),
            ),
        );
        assert_eq!(
            est.op_cost(&join),
            plain.op_cost(&join) + 2.0 * 3_000.0 + 5.0 * 500.0
        );
        // Leaves stay free and scans of stored results never ship.
        assert_eq!(est.op_cost(&Expr::base("Product")), 0.0);
        assert_eq!(est.scan_cost(&join), plain.scan_cost(&join));
    }

    #[test]
    fn tree_cost_charges_shared_subtrees_once() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        let shared = tmp1();
        let twice = Expr::join(
            Expr::project(Arc::clone(&shared), [AttrRef::new("Division", "name")]),
            shared,
            JoinCondition::cross(),
        );
        // σ city (500, charged once) + π scanning tmp1's 10 blocks + the join.
        let naive: f64 = 500.0 + 10.0 + est.op_cost(&twice);
        assert_eq!(est.tree_cost(&twice), naive);
    }

    #[test]
    fn scan_cost_reads_result_blocks() {
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Calibrated, PaperCostModel::default());
        assert_eq!(est.scan_cost(&tmp2()), 100.0);
    }

    #[test]
    fn estimates_are_memoised() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let a = e.stats(&tmp2());
        let b = e.stats(&tmp2());
        assert_eq!(a, b);
        // Division, σ, Product, join — one interned class each, even though
        // the two `tmp2()` calls built distinct trees.
        assert_eq!(e.interned_classes(), 4);
    }

    #[test]
    fn semantically_equal_trees_share_one_class() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let shared = tmp2();
        let first = e.stats(&shared);
        let classes = e.interned_classes();
        // Same Arc again: answered through the arena's pointer fast path.
        assert_eq!(e.stats(&shared), first);
        assert_eq!(e.interned_classes(), classes);
        // A structurally fresh but semantically equal tree reuses the cached
        // stats without minting any new class.
        let fresh = tmp2();
        assert!(!Arc::ptr_eq(&shared, &fresh));
        assert_eq!(e.stats(&fresh), first);
        assert_eq!(e.interned_classes(), classes);
        assert_eq!(e.class_of(&fresh), e.class_of(&shared));
    }

    #[test]
    fn fill_over_a_shared_subtree_computes_each_class_once() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        // σ(Division) under the π and beside it: Division, σ, π, the join.
        let shared = tmp1();
        let name = [AttrRef::new("Division", "name")];
        let pi = Expr::project(Arc::clone(&shared), name);
        let root = e.class_of(&Expr::join(pi, shared, JoinCondition::cross()));
        let mut cache = e.cache();
        let StatsCache { arena, stats } = &mut *cache;
        stats.resize(arena.len(), None);
        assert_eq!((arena.len(), e.fill(arena, stats, root)), (4, 4));
        assert!(stats.iter().all(Option::is_some));
    }

    #[test]
    fn estimator_is_shareable_across_threads() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c, EstimationMode::Analytic);
        let warm = e.stats(&tmp2());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| assert_eq!(e.stats(&tmp2()), warm));
            }
        });
        assert_eq!(e.interned_classes(), 4);
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::model::PaperCostModel;
    use mvdesign_algebra::{AttrRef, CompareOp};
    use mvdesign_catalog::AttrType;

    fn catalog_with_index() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Order")
            .attr("Cid", AttrType::Int)
            .attr("quantity", AttrType::Int)
            .attr("date", AttrType::Date)
            .records(50_000.0)
            .blocks(6_000.0)
            .selectivity("quantity", 0.5)
            .finish()
            .unwrap();
        c.add_index("Order", "quantity").unwrap();
        c
    }

    fn sigma(attr: &str) -> Arc<Expr> {
        Expr::select(
            Expr::base("Order"),
            Predicate::cmp(AttrRef::new("Order", attr), CompareOp::Gt, 100),
        )
    }

    #[test]
    fn indexed_selection_probes_instead_of_scanning() {
        let c = catalog_with_index();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        // σ quantity>100 has an index: log₂(6000)≈13 probes + 3000 output
        // blocks, far below the 6000-block scan.
        let cost = est.op_cost(&sigma("quantity"));
        assert!(cost < 6_000.0, "indexed select cost {cost}");
        assert!((cost - (6_000_f64.log2().ceil() + 3_000.0)).abs() < 1e-9);
    }

    #[test]
    fn unindexed_attribute_still_scans() {
        let c = catalog_with_index();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        assert_eq!(est.op_cost(&sigma("date")), 6_000.0);
    }

    #[test]
    fn disjunctions_do_not_use_the_index() {
        let c = catalog_with_index();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let or = Expr::select(
            Expr::base("Order"),
            Predicate::or([
                Predicate::cmp(AttrRef::new("Order", "quantity"), CompareOp::Gt, 100),
                Predicate::cmp(AttrRef::new("Order", "date"), CompareOp::Gt, 5),
            ]),
        );
        assert_eq!(est.op_cost(&or), 6_000.0);
    }

    #[test]
    fn index_only_applies_directly_on_the_base() {
        let c = catalog_with_index();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        // σ over a projection of the base is not an index probe.
        let narrowed = Expr::select(
            Expr::project(
                Expr::base("Order"),
                [
                    AttrRef::new("Order", "quantity"),
                    AttrRef::new("Order", "Cid"),
                ],
            ),
            Predicate::cmp(AttrRef::new("Order", "quantity"), CompareOp::Gt, 100),
        );
        // Cost equals a scan of the projected input (4000 blocks = 2/3).
        assert_eq!(est.op_cost(&narrowed), 4_000.0);
    }

    #[test]
    fn catalog_index_validation() {
        let mut c = catalog_with_index();
        assert!(c.has_index("Order", "quantity"));
        assert!(!c.has_index("Order", "date"));
        assert!(c.add_index("Order", "ghost").is_err());
        assert!(c.add_index("Ghost", "x").is_err());
        assert_eq!(c.indexes().count(), 1);
    }
}
