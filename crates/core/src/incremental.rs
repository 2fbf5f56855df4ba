//! Incrementally-memoized cost evaluation for single-node frontier moves.
//!
//! The randomized and exhaustive search algorithms explore the space of
//! materialization sets by flipping one node at a time. A full
//! [`evaluate`](crate::evaluate::evaluate) walks every query's sub-DAG on
//! every probe; [`IncrementalEvaluator`] instead keeps the per-query cost of
//! the current frontier and, on a flip, re-walks only the queries whose
//! sub-DAG contains the flipped node — and even those walks are memoized on
//! the *visible part* of the frontier. Each root keeps that part as a small
//! integer, one bit per interior node the root can see, which every flip
//! updates by XOR; revisiting a previously-seen configuration costs one
//! array load per re-costed root.
//!
//! The shared-maintenance term is kept the same way. One refresh pass
//! recomputes the *closure* of the views it rebuilds — every such view and
//! its descendants. The evaluator holds that closure as a per-node cover
//! count (how many rebuilt views reach the node through `{v} ∪
//! descendants(v)`) plus its words. A flip adds or subtracts one view's
//! cover; only when a count crosses zero does the closure change, and only
//! then are its terms re-summed. Most flips of an exhaustive scan leave the
//! closure as it was. A frontier move — a genetic genome, a range of a
//! scan — rebuilds the closure by word-ORs of the descendant sets instead
//! and compares it with the last one; the next flip recounts. Views that
//! fold deltas ([`NodeAnnotation::folds`](crate::annotate::NodeAnnotation::folds))
//! never enter the pass: a word mask built once keeps them out, and they
//! charge their own `fu·Cmᵟ`.
//!
//! Results are bit-identical to [`evaluate_set`](crate::evaluate::evaluate_set): the per-query walks are the
//! same function, the query term is re-summed in root order on every change,
//! and every maintenance sum is re-taken over the same set in the same
//! ascending id order whenever that set changes, so floating-point
//! association never differs.

use crate::annotate::AnnotatedMvpp;
use crate::evaluate::{evaluate_set, query_cost_in, CostBreakdown, MaintenanceMode};
use crate::mvpp::NodeId;
use crate::nodeset::NodeSet;

/// Most interior nodes a root's memo is indexed by: `2^12` slots of `f64`,
/// 32 KiB per root. A root that sees more gets no table and is walked on
/// every probe.
const DENSE_BITS: usize = 12;

/// Memoized evaluator over single-node changes to a materialization frontier.
///
/// ```
/// # use mvdesign_core::*;
/// # use mvdesign_algebra::{parse_query_with, Query};
/// # use mvdesign_catalog::{AttrType, Catalog};
/// # use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
/// # let mut catalog = Catalog::new();
/// # catalog.relation("R").attr("a", AttrType::Int).records(100.0).blocks(10.0)
/// #     .update_frequency(1.0).finish()?;
/// # let q = parse_query_with("SELECT R.a FROM R WHERE R.a=1", &catalog).unwrap();
/// # let workload = Workload::new([Query::new("Q1", 2.0, q)]).unwrap();
/// # let est = CostEstimator::new(&catalog, EstimationMode::Analytic, PaperCostModel::default());
/// # let planner = mvdesign_optimizer::Planner::default();
/// # let mvpp = generate_mvpps(&workload, &est, &planner, GenerateConfig::default()).remove(0);
/// # let a = AnnotatedMvpp::annotate(mvpp, &est, UpdateWeighting::Max);
/// let mut eval = IncrementalEvaluator::new(&a, MaintenanceMode::SharedRecompute);
/// let empty_cost = eval.total();
/// for v in a.mvpp().interior() {
///     let with_v = eval.flip(v);     // cost after materializing v
///     assert_eq!(with_v, eval.total());
///     eval.flip(v);                  // revert
/// }
/// assert_eq!(eval.total(), empty_cost);
/// # Ok::<(), mvdesign_catalog::CatalogError>(())
/// ```
pub struct IncrementalEvaluator<'a> {
    a: &'a AnnotatedMvpp,
    mode: MaintenanceMode,
    /// Current materialization frontier.
    m: NodeSet,
    /// Unweighted query cost per root, in root order, for the current `m`.
    per_root: Vec<f64>,
    /// For each node id, the roots whose cost can change when the node's
    /// materialization flips, each with the node's bit in that root's
    /// `index` (`0` for a root without a memo table).
    affected: Vec<Vec<(usize, u64)>>,
    /// Per root: the current frontier projected onto the interior nodes the
    /// root's cost can depend on, `(descendants(root) ∪ {root}) ∩
    /// interior`, numbered in ascending id order.
    index: Vec<u64>,
    /// Per root: unweighted query cost by `index`, `NaN` where not walked
    /// yet. Empty for a root that sees more than [`DENSE_BITS`] nodes.
    memo: Vec<Vec<f64>>,
    /// Per-node maintenance term for the active mode, precomputed so each
    /// re-sum is pure bit-scans and adds: `fu_weight · cm` (Isolated) or
    /// `fu_weight · op_cost` (SharedRecompute).
    recompute_term: Vec<f64>,
    /// Word mask of non-leaf nodes (leaves are stored relations and never
    /// charge maintenance); its length is the word count of every set here.
    notleaf: Vec<u64>,
    /// SharedRecompute only: word mask of the views that fold deltas. They
    /// stay out of the refresh pass and charge `fold_term`; under Isolated
    /// their `cm` already is their delta price, so the mask is empty.
    folds: Vec<u64>,
    /// Per-node `fu_weight · delta_cm`, precomputed like `recompute_term`.
    fold_term: Vec<f64>,
    /// The refresh pass: materialized, non-leaf and not folding.
    pass: Vec<u64>,
    /// SharedRecompute only: the pass's closure, every view of the pass
    /// and its descendants — what one refresh recomputes.
    closure: Vec<u64>,
    /// SharedRecompute only: per node, how many views of the pass cover it
    /// (are it or an ancestor of it) — `closure` is where this is non-zero.
    /// Stale after a frontier move rebuilt `closure` by ORs; the next flip
    /// recounts.
    cover: Vec<u32>,
    cover_valid: bool,
    /// Σ `recompute_term` over `closure` (SharedRecompute) or over `pass`
    /// (Isolated), ascending by id.
    recompute_sum: f64,
    /// Σ `fold_term` over the materialized folding views, ascending by id.
    fold_sum: f64,
    /// Reusable buffers: the next pass, the next closure and dirty root
    /// indices — kept to avoid per-probe allocation.
    scratch_pass: Vec<u64>,
    scratch_closure: Vec<u64>,
    scratch_dirty: Vec<u64>,
    /// The visited set every memo-miss walk reuses.
    visited: NodeSet,
    query_processing: f64,
    maintenance: f64,
    walks: u64,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Creates an evaluator positioned at the empty frontier.
    pub fn new(a: &'a AnnotatedMvpp, mode: MaintenanceMode) -> Self {
        let mvpp = a.mvpp();
        let n = mvpp.len();
        let interior = NodeSet::from_ids(n, mvpp.interior());
        let roots = mvpp.roots();
        let mut affected: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut memo = Vec::with_capacity(roots.len());
        for (i, (_, _, root)) in roots.iter().enumerate() {
            let mut relevant = a.descendant_set(*root).clone();
            relevant.insert(*root);
            relevant.intersect_with(&interior);
            let dense = relevant.len() <= DENSE_BITS;
            for (bit, v) in relevant.iter().enumerate() {
                affected[v.0].push((i, if dense { 1 << bit } else { 0 }));
            }
            memo.push(if dense {
                vec![f64::NAN; 1 << relevant.len()]
            } else {
                Vec::new()
            });
        }
        let words = n.div_ceil(64);
        let (mut notleaf, mut folds) = (vec![0u64; words], vec![0u64; words]);
        let mut recompute_term = Vec::with_capacity(n);
        let mut fold_term = Vec::with_capacity(n);
        for id in 0..n {
            let v = NodeId(id);
            let ann = a.annotation(v);
            if !mvpp.node(v).is_leaf() {
                notleaf[id / 64] |= 1 << (id % 64);
            }
            if ann.folds && mode == MaintenanceMode::SharedRecompute {
                folds[id / 64] |= 1 << (id % 64);
            }
            recompute_term.push(match mode {
                MaintenanceMode::Isolated => ann.fu_weight * ann.cm,
                MaintenanceMode::SharedRecompute => ann.fu_weight * ann.op_cost,
            });
            fold_term.push(ann.fu_weight * ann.delta_cm);
        }
        let mut eval = Self {
            a,
            mode,
            m: NodeSet::with_capacity(n),
            per_root: vec![0.0; roots.len()],
            affected,
            index: vec![0; roots.len()],
            memo,
            recompute_term,
            notleaf,
            folds,
            fold_term,
            pass: vec![0; words],
            closure: vec![0; words],
            cover: vec![0; n],
            cover_valid: true,
            recompute_sum: 0.0,
            fold_sum: 0.0,
            scratch_pass: Vec::new(),
            scratch_closure: Vec::new(),
            scratch_dirty: Vec::new(),
            visited: NodeSet::with_capacity(n),
            query_processing: 0.0,
            maintenance: 0.0,
            walks: 0,
        };
        for i in 0..eval.per_root.len() {
            eval.per_root[i] = eval.root_cost(i);
        }
        eval.resum_queries();
        eval.update_maintenance();
        eval
    }

    /// Repositions the evaluator at an arbitrary frontier. Only the roots
    /// whose sub-DAG intersects the symmetric difference between the old and
    /// new frontier are re-costed — for an unaffected root the memo index is
    /// unchanged, so its stored cost is already the right one. Callers
    /// that probe a stream of similar frontiers (e.g. a converging genetic
    /// population) therefore pay only for what actually moved.
    pub fn set_frontier(&mut self, m: &NodeSet) {
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        dirty.resize(self.per_root.len().div_ceil(64), 0);
        {
            let old = self.m.words();
            let new = m.words();
            for w in 0..old.len().max(new.len()) {
                let mut x = old.get(w).copied().unwrap_or(0) ^ new.get(w).copied().unwrap_or(0);
                while x != 0 {
                    let v = w * 64 + x.trailing_zeros() as usize;
                    x &= x - 1;
                    for &(i, bit) in self.affected.get(v).map_or(&[][..], Vec::as_slice) {
                        self.index[i] ^= bit;
                        dirty[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
        self.m.copy_from(m);
        for (w, &word) in dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.per_root[i] = self.root_cost(i);
            }
        }
        self.scratch_dirty = dirty;
        self.resum_queries();
        self.update_maintenance();
    }

    /// Toggles `v` in the frontier and returns the new total cost. Only the
    /// queries whose sub-DAG contains `v` are re-costed; each such cost is
    /// memoized on the slice of the frontier that query can see.
    pub fn flip(&mut self, v: NodeId) -> f64 {
        self.m.toggle(v);
        for k in 0..self.affected[v.0].len() {
            let (i, bit) = self.affected[v.0][k];
            self.index[i] ^= bit;
            self.per_root[i] = self.root_cost(i);
        }
        self.resum_queries();
        self.flip_maintenance(v.0);
        self.total()
    }

    /// Total cost of the current frontier — bit-identical to
    /// `evaluate_set(a, frontier, mode).total`.
    pub fn total(&self) -> f64 {
        self.query_processing + self.maintenance
    }

    /// The current materialization frontier.
    pub fn frontier(&self) -> &NodeSet {
        &self.m
    }

    /// Whether `v` is currently materialized.
    pub fn contains(&self, v: NodeId) -> bool {
        self.m.contains(v)
    }

    /// Full cost breakdown of the current frontier — bit-identical to
    /// [`evaluate_set`] on the same set.
    pub fn breakdown(&self) -> CostBreakdown {
        evaluate_set(self.a, &self.m, self.mode)
    }

    /// Number of full query-walks performed so far (memo misses). A naive
    /// evaluator performs `roots × probes` walks; the difference is the
    /// savings from memoization.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Unweighted cost of root `i` under the current frontier, memoized on
    /// the root's index: the frontier projected onto the nodes it can see.
    fn root_cost(&mut self, i: usize) -> f64 {
        let slot = self.index[i] as usize;
        if let Some(&cached) = self.memo[i].get(slot).filter(|c| !c.is_nan()) {
            return cached;
        }
        let root = self.a.mvpp().roots()[i].2;
        let cost = query_cost_in(self.a, &self.m, root, &mut self.visited);
        self.walks += 1;
        if let Some(cached) = self.memo[i].get_mut(slot) {
            *cached = cost;
        }
        cost
    }

    /// Re-derives the query term from per-root costs, summing in root
    /// order exactly as [`evaluate_set`](crate::evaluate::evaluate_set) does.
    fn resum_queries(&mut self) {
        let mut qp = 0.0;
        for (i, (_, fq, _)) in self.a.mvpp().roots().iter().enumerate() {
            qp += fq * self.per_root[i];
        }
        // evaluate_set computes `total` from the raw sum before `+ 0.0`
        // normalisation; `x + 0.0` only rewrites -0.0 to +0.0, which cannot
        // change any subsequent addition, so storing the normalised value
        // keeps `total()` bit-identical.
        self.query_processing = qp + 0.0;
    }

    /// Brings the maintenance term up to a frontier that may have moved
    /// anywhere, rebuilding the closure by word-ORs.
    fn update_maintenance(&mut self) {
        let mut pass = std::mem::take(&mut self.scratch_pass);
        pass.clear();
        {
            let m = self.m.words();
            let word = |w: usize| m.get(w).copied().unwrap_or(0);
            pass.extend(
                (0..self.notleaf.len()).map(|w| word(w) & self.notleaf[w] & !self.folds[w]),
            );
        }
        if pass != self.pass {
            let closure_changed = match self.mode {
                MaintenanceMode::Isolated => false,
                MaintenanceMode::SharedRecompute => self.or_closure(&pass),
            };
            self.scratch_pass = std::mem::replace(&mut self.pass, pass);
            self.resum_pass(closure_changed);
        } else {
            self.scratch_pass = pass;
        }
        self.resum_folds();
        self.combine_maintenance();
    }

    /// [`update_maintenance`](Self::update_maintenance) after `flip(v)`:
    /// a folding `v` moves only the fold sum; otherwise the pass gains or
    /// loses `v`, followed through the cover counts (recounted first if a
    /// large move left them stale — flips come in streams).
    fn flip_maintenance(&mut self, v: usize) {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        if self.folds[w] & bit != 0 {
            self.resum_folds();
        } else if self.notleaf[w] & bit != 0 {
            let closure_changed = match self.mode {
                MaintenanceMode::Isolated => false,
                MaintenanceMode::SharedRecompute => {
                    if !self.cover_valid {
                        self.recount();
                    }
                    self.cover(v, self.pass[w] & bit == 0)
                }
            };
            self.pass[w] ^= bit;
            self.resum_pass(closure_changed);
        }
        self.combine_maintenance();
    }

    /// Re-takes the recompute sum over a pass that changed: over the pass
    /// (Isolated) or over the closure if it changed (SharedRecompute).
    fn resum_pass(&mut self, closure_changed: bool) {
        match self.mode {
            MaintenanceMode::Isolated => {
                self.recompute_sum = sum_over(self.pass.iter().copied(), &self.recompute_term);
            }
            MaintenanceMode::SharedRecompute if closure_changed => {
                self.recompute_sum = sum_over(self.closure.iter().copied(), &self.recompute_term);
            }
            MaintenanceMode::SharedRecompute => {}
        }
    }

    /// Re-takes the fold sum over the materialized folding views, ascending
    /// by id like `maintenance_cost`.
    fn resum_folds(&mut self) {
        let folded = self.folds.iter().zip(self.m.words()).map(|(f, m)| f & m);
        self.fold_sum = sum_over(folded, &self.fold_term);
    }

    /// Combines the cached sums into the maintenance term, with
    /// `maintenance_cost`'s additions.
    fn combine_maintenance(&mut self) {
        self.maintenance = (self.recompute_sum + self.fold_sum) + 0.0;
    }

    /// Adds (or removes) one cover of `v` and of each of its descendants;
    /// returns whether some count crossed zero, setting or clearing its
    /// closure bit.
    fn cover(&mut self, v: usize, add: bool) -> bool {
        let a = self.a;
        let mut changed = self.count(v, add);
        for (w, &word) in a.descendant_set(NodeId(v)).words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let n = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                changed |= self.count(n, add);
            }
        }
        changed
    }

    /// Adds (or removes) one cover of node `n`; returns whether its count
    /// crossed zero, setting or clearing its closure bit.
    fn count(&mut self, n: usize, add: bool) -> bool {
        let (w, bit) = (n / 64, 1u64 << (n % 64));
        let count = &mut self.cover[n];
        if add {
            *count += 1;
            if *count == 1 {
                self.closure[w] |= bit;
                return true;
            }
        } else {
            *count -= 1;
            if *count == 0 {
                self.closure[w] &= !bit;
                return true;
            }
        }
        false
    }

    /// Recounts the cover counts of the current pass from scratch.
    fn recount(&mut self) {
        self.cover.fill(0);
        for w in 0..self.pass.len() {
            let mut bits = self.pass[w];
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.cover(v, true);
            }
        }
        self.cover_valid = true;
    }

    /// Rebuilds the closure of `pass` by word-ORs of its views and their
    /// descendant sets, leaving the cover counts stale, and returns whether
    /// the closure changed.
    fn or_closure(&mut self, pass: &[u64]) -> bool {
        let a = self.a;
        let mut closure = std::mem::take(&mut self.scratch_closure);
        closure.clear();
        closure.extend_from_slice(pass);
        for (w, &word) in pass.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (c, d) in closure.iter_mut().zip(a.descendant_set(NodeId(v)).words()) {
                    *c |= d;
                }
            }
        }
        self.cover_valid = false;
        let changed = closure != self.closure;
        self.scratch_closure = std::mem::replace(&mut self.closure, closure);
        changed
    }
}

/// Σ `terms[n]` over the ids set in `words`, ascending.
fn sum_over(words: impl IntoIterator<Item = u64>, terms: &[f64]) -> f64 {
    let mut s = 0.0;
    for (w, word) in words.into_iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let n = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            s += terms[n];
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::UpdateWeighting;
    use crate::evaluate::evaluate_set;
    use crate::generate::{generate_mvpps, GenerateConfig};
    use crate::workload::Workload;
    use mvdesign_algebra::{parse_query_with, Query};
    use mvdesign_catalog::{AttrType, Catalog};
    use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
    use mvdesign_optimizer::Planner;

    fn fixture() -> AnnotatedMvpp {
        fixture_with(crate::annotate::MaintenancePolicy::Recompute)
    }

    fn fixture_with(policy: crate::annotate::MaintenancePolicy) -> AnnotatedMvpp {
        let mut c = Catalog::new();
        for (name, recs) in [("R", 4_000.0), ("S", 9_000.0), ("T", 2_500.0)] {
            c.relation(name)
                .attr("k", AttrType::Int)
                .attr("v", AttrType::Int)
                .records(recs)
                .blocks(recs / 10.0)
                .update_frequency(1.0)
                .finish()
                .unwrap();
        }
        let q1 = parse_query_with("SELECT R.v FROM R, S WHERE R.k=S.k AND S.v=1", &c).unwrap();
        let q2 = parse_query_with("SELECT T.v FROM R, S, T WHERE R.k=S.k AND S.k=T.k", &c).unwrap();
        let q3 = parse_query_with("SELECT S.v FROM S WHERE S.v=1", &c).unwrap();
        let w = Workload::new([
            Query::new("Q1", 8.0, q1),
            Query::new("Q2", 3.0, q2),
            Query::new("Q3", 11.0, q3),
        ])
        .unwrap();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let planner = Planner::default();
        let mvpp = generate_mvpps(&w, &est, &planner, GenerateConfig::default()).remove(0);
        AnnotatedMvpp::annotate_with(mvpp, &est, UpdateWeighting::Max, policy)
    }

    #[test]
    fn flips_match_full_evaluation_exactly() {
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let a = fixture();
            let mut eval = IncrementalEvaluator::new(&a, mode);
            let mut reference = NodeSet::with_capacity(a.mvpp().len());
            assert_eq!(eval.total(), evaluate_set(&a, &reference, mode).total);
            // Deterministic pseudo-random flip sequence over interior nodes.
            let interior = a.mvpp().interior();
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = interior[(x % interior.len() as u64) as usize];
                reference.toggle(v);
                let got = eval.flip(v);
                let want = evaluate_set(&a, &reference, mode);
                assert_eq!(got, want.total, "flip {v:?} diverged");
                assert_eq!(eval.breakdown(), want);
            }
        }
    }

    #[test]
    fn memoization_skips_repeat_walks() {
        let a = fixture();
        let mut eval = IncrementalEvaluator::new(&a, MaintenanceMode::SharedRecompute);
        let v = a.mvpp().interior()[0];
        eval.flip(v);
        eval.flip(v);
        let walks_after_cycle = eval.walks();
        // Re-flipping revisits both memoized frontiers: no new walks.
        eval.flip(v);
        eval.flip(v);
        assert_eq!(eval.walks(), walks_after_cycle);
    }

    #[test]
    fn leaf_flips_do_not_rewalk_queries() {
        let a = fixture();
        let mut eval = IncrementalEvaluator::new(&a, MaintenanceMode::SharedRecompute);
        let before = eval.walks();
        let total = eval.total();
        for leaf in a.mvpp().leaves() {
            assert_eq!(eval.flip(leaf), total, "leaves are already stored");
        }
        assert_eq!(eval.walks(), before);
    }

    #[test]
    fn matches_evaluate_under_incremental_policy() {
        // At an append fraction of one half the joins rebuild and the
        // selections over one relation fold.
        let a = fixture_with(crate::annotate::MaintenancePolicy::Incremental {
            update_fraction: 0.5,
        });
        let interior = a.mvpp().interior();
        assert!(
            interior.iter().any(|v| a.annotation(*v).folds)
                && interior.iter().any(|v| !a.annotation(*v).folds),
            "fixture: some views fold and some rebuild"
        );
        for mode in [MaintenanceMode::SharedRecompute, MaintenanceMode::Isolated] {
            let mut eval = IncrementalEvaluator::new(&a, mode);
            let mut reference = NodeSet::with_capacity(a.mvpp().len());
            for v in &interior {
                reference.toggle(*v);
                let want = evaluate_set(&a, &reference, mode);
                assert_eq!(eval.flip(*v).to_bits(), want.total.to_bits());
                assert_eq!(eval.breakdown(), want);
            }
            // Jumps through `set_frontier`, then flips from the jumped-to set.
            for step in [2, 3] {
                let m = NodeSet::from_ids(a.mvpp().len(), interior.iter().copied().step_by(step));
                eval.set_frontier(&m);
                let want = evaluate_set(&a, &m, mode).total;
                assert_eq!(eval.total().to_bits(), want.to_bits());
                let mut reference = m;
                for v in interior.iter().rev() {
                    reference.toggle(*v);
                    let want = evaluate_set(&a, &reference, mode).total;
                    assert_eq!(eval.flip(*v).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn set_frontier_matches_evaluate() {
        let a = fixture();
        let mut eval = IncrementalEvaluator::new(&a, MaintenanceMode::SharedRecompute);
        let interior = a.mvpp().interior();
        let m = NodeSet::from_ids(a.mvpp().len(), interior.iter().copied().step_by(2));
        eval.set_frontier(&m);
        let want = evaluate_set(&a, &m, MaintenanceMode::SharedRecompute);
        assert_eq!(eval.total(), want.total);
        assert_eq!(eval.frontier(), &m);
    }
}
