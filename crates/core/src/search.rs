//! View-selection algorithms beyond the paper's greedy: exact baselines and
//! randomized search extensions, all optimizing the same evaluated total
//! cost.

use std::collections::BTreeSet;
use std::fmt;

use rand::distributions::Bernoulli;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::annotate::AnnotatedMvpp;
use crate::evaluate::MaintenanceMode;
use crate::greedy::GreedySelection;
use crate::incremental::IncrementalEvaluator;
use crate::mvpp::NodeId;
use crate::nodeset::NodeSet;
use crate::parallel;

/// MVPPs below this node count are enumerated on one thread: spawning
/// would cost more than the Gray-code flips it spreads.
const PARALLEL_MIN_NODES: usize = 64;

/// Most nodes [`ExhaustiveSelection`] enumerates: subset masks and Gray
/// indices are `u64`, and the index range `0..2^n` has to fit in one too.
const MASK_NODES: usize = (u64::BITS - 1) as usize;

/// A view-selection algorithm: picks which MVPP nodes to materialize.
///
/// `Sync` is required so one algorithm instance can drive several candidate
/// MVPPs concurrently from [`crate::Designer`].
pub trait SelectionAlgorithm: fmt::Debug + Sync {
    /// A short identifier for reports and benches.
    fn name(&self) -> &'static str;

    /// Chooses the set of nodes to materialize.
    fn select(&self, a: &AnnotatedMvpp, mode: MaintenanceMode) -> BTreeSet<NodeId>;
}

impl SelectionAlgorithm for GreedySelection {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn select(&self, a: &AnnotatedMvpp, _mode: MaintenanceMode) -> BTreeSet<NodeId> {
        self.run(a).0
    }
}

/// Materialize every query result (Table 2's "Q1, Q2, Q3, Q4" strategy):
/// best latency, highest maintenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeAll;

impl SelectionAlgorithm for MaterializeAll {
    fn name(&self) -> &'static str {
        "materialize-all-queries"
    }

    fn select(&self, a: &AnnotatedMvpp, _mode: MaintenanceMode) -> BTreeSet<NodeId> {
        a.mvpp().roots().iter().map(|(_, _, id)| *id).collect()
    }
}

/// Materialize nothing (Table 2's all-virtual strategy): zero maintenance,
/// worst latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializeNone;

impl SelectionAlgorithm for MaterializeNone {
    fn name(&self) -> &'static str {
        "materialize-none"
    }

    fn select(&self, _a: &AnnotatedMvpp, _mode: MaintenanceMode) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }
}

/// Exact optimum by enumerating all `2^n` subsets of interior nodes.
///
/// When the MVPP has more interior nodes than `max_nodes`, the search is
/// restricted to the `max_nodes` highest-weight nodes (everything else stays
/// virtual) — still a superset of what the greedy can reach in practice.
///
/// The enumeration visits subsets in Gray-code order, so consecutive subsets
/// differ in exactly one node and each step is a single memoized
/// [`IncrementalEvaluator`] flip instead of a full re-evaluation. With
/// `parallelism > 1` (or `0` = all cores) the Gray sequence is partitioned
/// into contiguous index ranges, one per thread; the reduction keeps the
/// numerically-smallest subset mask among cost ties, which is exactly the
/// subset a sequential ascending-mask scan with strict improvement keeps, so
/// the result is identical at any thread count.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveSelection {
    /// Cap on nodes enumerated exactly (`2^max_nodes` evaluations). Values
    /// above 63 enumerate 63 nodes: the subset masks are `u64`.
    pub max_nodes: usize,
    /// Worker threads for partitioning the subset space; `0` = all cores,
    /// `1` = sequential. The selected set is identical at any setting.
    pub parallelism: usize,
}

impl Default for ExhaustiveSelection {
    fn default() -> Self {
        Self {
            max_nodes: 16,
            parallelism: 0,
        }
    }
}

/// The `i`-th subset mask of the Gray sequence: `g(i) = i ^ (i >> 1)`.
fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Decodes a candidate-index mask into a node set.
fn mask_to_set(mask: u64, candidates: &[NodeId], capacity: usize) -> NodeSet {
    NodeSet::from_ids(
        capacity,
        candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, id)| *id),
    )
}

impl ExhaustiveSelection {
    /// The nodes whose subsets are enumerated: every interior node, or the
    /// highest-weight ones when there are more than the cap allows.
    fn candidates(&self, a: &AnnotatedMvpp) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> = a.mvpp().interior();
        let cap = self.max_nodes.min(MASK_NODES);
        if candidates.len() > cap {
            candidates.sort_by(|x, y| {
                let wx = a.annotation(*x).weight;
                let wy = a.annotation(*y).weight;
                wy.total_cmp(&wx)
            });
            candidates.truncate(cap);
        }
        candidates
    }

    /// Scans Gray indices `[start, end)`, flipping one node per step, and
    /// returns the lexicographically-least `(cost, mask)` seen.
    fn scan_range(
        a: &AnnotatedMvpp,
        mode: MaintenanceMode,
        candidates: &[NodeId],
        start: u64,
        end: u64,
    ) -> (f64, u64) {
        let mut eval = IncrementalEvaluator::new(a, mode);
        let first = gray(start);
        if first != 0 {
            eval.set_frontier(&mask_to_set(first, candidates, a.mvpp().len()));
        }
        let mut best = (eval.total(), first);
        for i in start + 1..end {
            let mask = gray(i);
            // gray(i) and gray(i-1) differ exactly in bit trailing_zeros(i).
            let flipped = candidates[i.trailing_zeros() as usize];
            let cost = eval.flip(flipped);
            if cost < best.0 || (cost == best.0 && mask < best.1) {
                best = (cost, mask);
            }
        }
        best
    }
}

/// How many subsets `n` candidates have.
fn subset_count(n: usize) -> u64 {
    assert!(n <= MASK_NODES, "candidates are capped at MASK_NODES");
    1 << n
}

/// Splits Gray indices `0..total` into up to `threads` contiguous,
/// non-empty ranges, in order.
fn gray_ranges(total: u64, threads: usize) -> Vec<(u64, u64)> {
    let chunk = total.div_ceil(threads as u64);
    (0..threads as u64)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(total)))
        .filter(|(s, e)| s < e)
        .collect()
}

impl SelectionAlgorithm for ExhaustiveSelection {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn select(&self, a: &AnnotatedMvpp, mode: MaintenanceMode) -> BTreeSet<NodeId> {
        let candidates = self.candidates(a);
        let total = subset_count(candidates.len());
        let threads = if a.mvpp().len() < PARALLEL_MIN_NODES || total < 4_096 {
            1
        } else {
            parallel::threads_for(self.parallelism, usize::MAX)
        };
        let best = if threads <= 1 {
            Self::scan_range(a, mode, &candidates, 0, total)
        } else {
            let per_thread =
                parallel::ordered_map(gray_ranges(total, threads), threads, &|_, (s, e)| {
                    Self::scan_range(a, mode, &candidates, s, e)
                });
            per_thread
                .into_iter()
                .reduce(|x, y| {
                    if y.0 < x.0 || (y.0 == x.0 && y.1 < x.1) {
                        y
                    } else {
                        x
                    }
                })
                .expect("at least one range")
        };
        mask_to_set(best.1, &candidates, a.mvpp().len()).to_btree()
    }
}

/// Uniform random subsets, keeping the best of `iterations` draws (plus the
/// empty set). A sanity baseline for the greedy.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// Number of random subsets evaluated.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSearch {
    fn default() -> Self {
        Self {
            iterations: 200,
            seed: 7,
        }
    }
}

impl SelectionAlgorithm for RandomSearch {
    fn name(&self) -> &'static str {
        "random-search"
    }

    fn select(&self, a: &AnnotatedMvpp, mode: MaintenanceMode) -> BTreeSet<NodeId> {
        let genes = gene_set(a);
        let half = coin(0.5);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The evaluator starts at the empty frontier — the baseline draw —
        // and memoizes per-query costs across draws: distinct subsets often
        // look identical below any one query's root.
        let mut eval = IncrementalEvaluator::new(a, mode);
        let mut draw = NodeSet::with_capacity(a.mvpp().len());
        let mut best_set = draw.clone();
        let mut best_cost = eval.total();
        for _ in 0..self.iterations {
            draw.rewrite_words(|i, _| draw_word(&mut rng, half, genes.words()[i]));
            eval.set_frontier(&draw);
            let cost = eval.total();
            if cost < best_cost {
                best_cost = cost;
                best_set.copy_from(&draw);
            }
        }
        best_set.to_btree()
    }
}

/// Simulated annealing over materialization sets: neighbours toggle one
/// node; worse moves are accepted with probability `exp(−Δ/T)` under a
/// geometric cooling schedule. Seeded for reproducibility.
///
/// This is the kind of randomized extension the MVPP formulation became a
/// standard benchmark for in follow-up work.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// Number of proposal steps.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial temperature as a fraction of the empty-set cost.
    pub initial_temperature: f64,
    /// Multiplicative cooling per step, in `(0, 1)`.
    pub cooling: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self {
            iterations: 2_000,
            seed: 7,
            initial_temperature: 0.05,
            cooling: 0.995,
        }
    }
}

impl SelectionAlgorithm for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn select(&self, a: &AnnotatedMvpp, mode: MaintenanceMode) -> BTreeSet<NodeId> {
        let candidates = a.mvpp().interior();
        if candidates.is_empty() {
            return BTreeSet::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The freshly-built evaluator sits at the empty frontier, which is
        // exactly the baseline the temperature schedule is scaled from.
        let mut eval = IncrementalEvaluator::new(a, mode);
        let mut temperature = eval.total().max(1.0) * self.initial_temperature;
        // Start from the greedy solution: annealing then only explores
        // around an already-good point. Every proposal is a single-node
        // toggle, so each step is one memoized incremental flip; a rejected
        // proposal flips straight back.
        let greedy = GreedySelection::new().run(a).0;
        eval.set_frontier(&NodeSet::from_ids(a.mvpp().len(), greedy));
        let mut current_cost = eval.total();
        let mut best = eval.frontier().clone();
        let mut best_cost = current_cost;
        for _ in 0..self.iterations {
            let flip = candidates[rng.gen_range(0..candidates.len())];
            let next_cost = eval.flip(flip);
            let delta = next_cost - current_cost;
            if delta <= 0.0 || rng.gen_bool((-delta / temperature.max(1e-9)).exp().min(1.0)) {
                current_cost = next_cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = eval.frontier().clone();
                }
            } else {
                eval.flip(flip);
            }
            temperature *= self.cooling;
        }
        best.to_btree()
    }
}

/// A genetic algorithm over materialization sets — the randomized-search
/// family that the MVPP formulation became a standard benchmark for in
/// follow-up work (e.g. GA-based view selection over MVPPs).
///
/// Individuals are node sets over the interior nodes; fitness is the
/// evaluated total cost. The population is seeded with the greedy solution,
/// the empty set, and random individuals; evolution uses tournament
/// selection, uniform crossover, per-gene mutation and elitism. Fully
/// deterministic per seed.
#[derive(Debug, Clone, Copy)]
pub struct GeneticSelection {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Probability of crossover (otherwise the fitter parent is cloned).
    pub crossover_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elite: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticSelection {
    fn default() -> Self {
        Self {
            population: 32,
            generations: 60,
            mutation_rate: 0.05,
            crossover_rate: 0.9,
            elite: 2,
            seed: 7,
        }
    }
}

impl GeneticSelection {
    /// Seeds the population (greedy, empty, random fill) and evolves it,
    /// scoring each genome once with `score`, in population order; returns
    /// the fittest genome. All randomness flows from `self.seed`; the scorer
    /// consumes none, so two runs with scorers that agree on every genome
    /// evolve identically.
    ///
    /// A genome is a node set within `genes`. Two generations live in two
    /// buffers allocated once and swapped: elites are copied across, each
    /// child is written in place word by word, and ranking sorts indices,
    /// so a generation allocates nothing.
    fn evolve(
        &self,
        a: &AnnotatedMvpp,
        genes: &NodeSet,
        mut score: impl FnMut(&NodeSet) -> f64,
    ) -> NodeSet {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let [random_gene, take_first, crossover, mutate] =
            [0.3, 0.5, self.crossover_rate, self.mutation_rate].map(coin);
        let size = self.population.max(4);
        let elite = self.elite.min(size);

        // Seed population: greedy, empty, random fill.
        let mut genomes = vec![NodeSet::with_capacity(a.mvpp().len()); size];
        let greedy = GreedySelection::new().run(a).0;
        genomes[0].extend(greedy.into_iter().filter(|v| genes.contains(*v)));
        let genes = genes.words();
        for genome in &mut genomes[2..] {
            genome.rewrite_words(|i, _| draw_word(&mut rng, random_gene, genes[i]));
        }
        let mut scores: Vec<f64> = genomes.iter().map(&mut score).collect();
        let (mut next, mut next_scores) = (genomes.clone(), scores.clone());
        // `order[r]` is the genome of rank `r`.
        let mut order: Vec<usize> = (0..size).collect();

        for _ in 0..self.generations {
            rank(&mut order, &scores);
            for r in 0..elite {
                next[r].copy_from(&genomes[order[r]]);
                next_scores[r] = scores[order[r]];
            }
            // Tournament of two, over ranks.
            let pick = |rng: &mut StdRng| -> usize {
                let i = rng.gen_range(0..size);
                let j = rng.gen_range(0..size);
                if scores[order[i]] <= scores[order[j]] {
                    i
                } else {
                    j
                }
            };
            for k in elite..size {
                let p1 = pick(&mut rng);
                let p2 = pick(&mut rng);
                let child = &mut next[k];
                if rng.sample(crossover) {
                    // Uniform crossover: each gene from the first parent
                    // where the take-mask is set, else from the second.
                    let x = genomes[order[p1]].words();
                    let y = genomes[order[p2]].words();
                    child.rewrite_words(|i, _| {
                        let take = draw_word(&mut rng, take_first, genes[i]);
                        (x[i] & take) | (y[i] & !take)
                    });
                } else {
                    child.copy_from(&genomes[order[p1.min(p2)]]);
                }
                child.rewrite_words(|i, w| w ^ draw_word(&mut rng, mutate, genes[i]));
                next_scores[k] = score(child);
            }
            std::mem::swap(&mut genomes, &mut next);
            std::mem::swap(&mut scores, &mut next_scores);
        }
        rank(&mut order, &scores);
        genomes.swap_remove(order[0])
    }
}

/// The interior nodes as one set: the genes a genome or a random draw
/// ranges over.
fn gene_set(a: &AnnotatedMvpp) -> NodeSet {
    NodeSet::from_ids(a.mvpp().len(), a.mvpp().interior())
}

/// One draw of `coin` per gene set in `genes`, lowest id first, each
/// written at its gene's bit. Word by word that is `interior()`'s order,
/// so a pass over a set draws one value per candidate node, in order.
fn draw_word(rng: &mut StdRng, coin: Bernoulli, genes: u64) -> u64 {
    let mut word = 0;
    let mut rest = genes;
    while rest != 0 {
        word |= u64::from(rng.sample(coin)) << rest.trailing_zeros();
        rest &= rest - 1;
    }
    word
}

/// The coin that lands `true` with probability `p`, clamped into `[0, 1]`.
fn coin(p: f64) -> Bernoulli {
    Bernoulli::new(p.clamp(0.0, 1.0)).unwrap_or_else(|_| panic!("p={p} out of range"))
}

/// Orders genome indices by ascending score, ties in population order: the
/// order a stable sort of the population leaves.
fn rank(order: &mut [usize], scores: &[f64]) {
    order.sort_unstable_by(|&i, &j| scores[i].total_cmp(&scores[j]).then(i.cmp(&j)));
}

impl SelectionAlgorithm for GeneticSelection {
    fn name(&self) -> &'static str {
        "genetic"
    }

    /// Every genome is a [`NodeSet`], scored as it stands by one persistent
    /// incremental evaluator (`set_frontier` + `total`). Whole genomes
    /// rarely repeat (on each 40-query star candidate of the benchmark,
    /// 95–96 genes, 1 828 to 1 830 of a seed-7 run's 1 832 are distinct),
    /// but each query root sees only a few interior nodes, and what it sees
    /// of a genome does repeat: the evaluator's per-root memo turns most
    /// re-costings into lookups. That is why the search does not fan
    /// genomes out over threads (a memo per thread sees a fraction of the
    /// repeats, and a spawn per generation costs more than the generation).
    /// [`crate::Designer`] runs whole candidates in parallel instead.
    ///
    /// Reproduction works on the sets' words: a crossover draws one value
    /// per gene into a take-mask and writes `(x & m) | (y & !m)`, a
    /// mutation XORs in one draw per gene, and each draw is an integer
    /// compare (`rand`'s `Bernoulli`) giving exactly `gen_bool`'s stream.
    fn select(&self, a: &AnnotatedMvpp, mode: MaintenanceMode) -> BTreeSet<NodeId> {
        let genes = gene_set(a);
        if genes.is_empty() {
            return BTreeSet::new();
        }
        let mut eval = IncrementalEvaluator::new(a, mode);
        let best = self.evolve(a, &genes, |m| {
            eval.set_frontier(m);
            eval.total()
        });
        best.to_btree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{MaintenancePolicy, UpdateWeighting};
    use crate::evaluate::evaluate;
    use crate::greedy::TraceVerdict;
    use crate::mvpp::Mvpp;
    use mvdesign_algebra::{AttrRef, CompareOp, Expr, JoinCondition, Predicate};
    use mvdesign_catalog::{AttrType, Catalog};
    use mvdesign_cost::{CostEstimator, EstimationMode, PaperCostModel};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, records, blocks) in [
            ("A", 10_000.0, 1_000.0),
            ("B", 20_000.0, 2_000.0),
            ("C", 5_000.0, 500.0),
        ] {
            c.relation(name)
                .attr("k", AttrType::Int)
                .attr("x", AttrType::Int)
                .records(records)
                .blocks(blocks)
                .update_frequency(1.0)
                .selectivity("x", 0.1)
                .finish()
                .unwrap();
        }
        c.set_join_selectivity(
            AttrRef::new("A", "k"),
            AttrRef::new("B", "k"),
            1.0 / 20_000.0,
        )
        .unwrap();
        c.set_join_selectivity(
            AttrRef::new("B", "k"),
            AttrRef::new("C", "k"),
            1.0 / 20_000.0,
        )
        .unwrap();
        c
    }

    fn annotated() -> AnnotatedMvpp {
        annotated_with(MaintenancePolicy::Recompute)
    }

    fn annotated_with(policy: MaintenancePolicy) -> AnnotatedMvpp {
        let ab = Expr::join(
            Expr::base("A"),
            Expr::base("B"),
            JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k")),
        );
        let abc = Expr::join(
            Arc::clone(&ab),
            Expr::base("C"),
            JoinCondition::on(AttrRef::new("B", "k"), AttrRef::new("C", "k")),
        );
        let filtered = Expr::select(
            Arc::clone(&ab),
            Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, 1),
        );
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", 20.0, &ab);
        m.insert_query("Q2", 1.0, &abc);
        m.insert_query("Q3", 5.0, &filtered);
        AnnotatedMvpp::annotate_with(m.finish(), &est, UpdateWeighting::Max, policy)
    }

    fn total(a: &AnnotatedMvpp, algo: &dyn SelectionAlgorithm) -> f64 {
        let m = algo.select(a, MaintenanceMode::SharedRecompute);
        evaluate(a, &m, MaintenanceMode::SharedRecompute).total
    }

    #[test]
    fn exhaustive_is_a_lower_bound_for_everything() {
        let a = annotated();
        let exhaustive = total(&a, &ExhaustiveSelection::default());
        for algo in [
            &GreedySelection::new() as &dyn SelectionAlgorithm,
            &MaterializeAll,
            &MaterializeNone,
            &RandomSearch::default(),
            &SimulatedAnnealing::default(),
            &GeneticSelection::default(),
        ] {
            let cost = total(&a, algo);
            assert!(
                exhaustive <= cost + 1e-6,
                "{} beat exhaustive: {cost} < {exhaustive}",
                algo.name()
            );
        }
    }

    #[test]
    fn genetic_never_loses_to_greedy() {
        // The GA is seeded with the greedy solution and is elitist.
        let a = annotated();
        assert!(
            total(&a, &GeneticSelection::default()) <= total(&a, &GreedySelection::new()) + 1e-9
        );
    }

    #[test]
    fn genetic_is_deterministic_per_seed() {
        let a = annotated();
        let g = GeneticSelection::default();
        assert_eq!(
            g.select(&a, MaintenanceMode::SharedRecompute),
            g.select(&a, MaintenanceMode::SharedRecompute)
        );
        let other = GeneticSelection {
            seed: 1234,
            ..GeneticSelection::default()
        };
        // Different seeds may coincide on tiny instances; costs must not worsen.
        let ta = evaluate(
            &a,
            &g.select(&a, MaintenanceMode::SharedRecompute),
            MaintenanceMode::SharedRecompute,
        )
        .total;
        let tb = evaluate(
            &a,
            &other.select(&a, MaintenanceMode::SharedRecompute),
            MaintenanceMode::SharedRecompute,
        )
        .total;
        assert!((ta - tb).abs() < 1e9); // both are finite, sane values
    }

    #[test]
    fn annealing_never_loses_to_greedy() {
        // Annealing starts from the greedy solution and keeps the best seen.
        let a = annotated();
        assert!(
            total(&a, &SimulatedAnnealing::default()) <= total(&a, &GreedySelection::new()) + 1e-9
        );
    }

    #[test]
    fn materialize_all_picks_exactly_the_roots() {
        let a = annotated();
        let m = MaterializeAll.select(&a, MaintenanceMode::SharedRecompute);
        assert_eq!(m.len(), 3);
        for (_, _, root) in a.mvpp().roots() {
            assert!(m.contains(root));
        }
    }

    #[test]
    fn materialize_none_is_empty() {
        let a = annotated();
        assert!(MaterializeNone
            .select(&a, MaintenanceMode::SharedRecompute)
            .is_empty());
    }

    #[test]
    fn exhaustive_truncation_keeps_high_weight_nodes() {
        let a = annotated();
        let small = ExhaustiveSelection {
            max_nodes: 1,
            ..ExhaustiveSelection::default()
        };
        let m = small.select(&a, MaintenanceMode::SharedRecompute);
        // With one candidate, the result is either empty or that single
        // highest-weight node.
        assert!(m.len() <= 1);
    }

    #[test]
    fn exhaustive_enumeration_stays_inside_the_mask() {
        // Seventy interior nodes: more than a `u64` mask can enumerate.
        let c = catalog();
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        for i in 0..70 {
            let pred = Predicate::cmp(AttrRef::new("A", "x"), CompareOp::Eq, i);
            m.insert_query(format!("Q{i}"), 1.0, &Expr::select(Expr::base("A"), pred));
        }
        let a = AnnotatedMvpp::annotate(m.finish(), &est, UpdateWeighting::Max);
        assert_eq!(a.mvpp().interior().len(), 70);

        // `max_nodes` above the mask width enumerates the width, not
        // `1 << 64` (a panic in debug, a zero-length scan in release).
        for (max_nodes, enumerated) in [
            (10, 10),
            (MASK_NODES, MASK_NODES),
            (64, MASK_NODES),
            (usize::MAX, MASK_NODES),
        ] {
            let wide = ExhaustiveSelection {
                max_nodes,
                parallelism: 1,
            };
            assert_eq!(wide.candidates(&a).len(), enumerated);
        }
        assert_eq!(subset_count(0), 1);
        assert_eq!(subset_count(MASK_NODES), 1 << 63);

        // The widest scan still splits into contiguous ranges that cover it.
        for threads in [1, 2, 3, 7, 64] {
            let ranges = gray_ranges(subset_count(MASK_NODES), threads);
            assert_eq!(ranges.first().map(|r| r.0), Some(0));
            assert_eq!(ranges.last().map(|r| r.1), Some(1 << 63));
            assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0));
            assert!(ranges.len() <= threads && ranges.iter().all(|(s, e)| s < e));
        }

        // The top candidate's bit decodes to the top candidate.
        let candidates: Vec<NodeId> = (0..MASK_NODES).map(NodeId).collect();
        let top = mask_to_set(1 << (MASK_NODES - 1), &candidates, MASK_NODES);
        assert_eq!(top.to_btree(), [NodeId(MASK_NODES - 1)].into());
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let a = annotated();
        let r = RandomSearch::default();
        assert_eq!(
            r.select(&a, MaintenanceMode::SharedRecompute),
            r.select(&a, MaintenanceMode::SharedRecompute)
        );
    }

    /// Two-relation join read `fq` times between refreshes, with both base
    /// relations updated `u` times. Tuned (see the flip tests) so the join
    /// is too expensive to recompute on every update but pays for itself
    /// when it folds deltas.
    fn flip_annotated(fq: f64, u: f64, policy: MaintenancePolicy) -> AnnotatedMvpp {
        let mut c = Catalog::new();
        for (name, records, blocks) in [("A", 10_000.0, 1_000.0), ("B", 20_000.0, 2_000.0)] {
            c.relation(name)
                .attr("k", AttrType::Int)
                .records(records)
                .blocks(blocks)
                .update_frequency(u)
                .finish()
                .unwrap();
        }
        c.set_join_selectivity(
            AttrRef::new("A", "k"),
            AttrRef::new("B", "k"),
            1.0 / 20_000.0,
        )
        .unwrap();
        let ab = Expr::join(
            Expr::base("A"),
            Expr::base("B"),
            JoinCondition::on(AttrRef::new("A", "k"), AttrRef::new("B", "k")),
        );
        let est = CostEstimator::new(&c, EstimationMode::Analytic, PaperCostModel::default());
        let mut m = Mvpp::builder(est.cardinalities());
        m.insert_query("Q1", fq, &ab);
        AnnotatedMvpp::annotate_with(m.finish(), &est, UpdateWeighting::Max, policy)
    }

    const INCREMENTAL: MaintenancePolicy = MaintenancePolicy::Incremental {
        update_fraction: 0.1,
    };

    #[test]
    fn per_view_prices_flip_the_selected_set() {
        // Under pure recompute the join is not worth materializing (5
        // updates × Cm dwarfs the read saving), so every search keeps
        // everything virtual. Under incremental maintenance the join is
        // priced at its delta cost, pays for itself, and folds.
        let mode = MaintenanceMode::SharedRecompute;
        let algorithms = [
            &GreedySelection::new() as &dyn SelectionAlgorithm,
            &ExhaustiveSelection::default(),
            &GeneticSelection::default(),
        ];
        let recompute = flip_annotated(2.0, 5.0, MaintenancePolicy::Recompute);
        let incremental = flip_annotated(2.0, 5.0, INCREMENTAL);
        let ab = incremental.mvpp().interior()[0];
        assert!(incremental.annotation(ab).folds);
        assert!(!recompute.annotation(ab).folds);
        for algo in algorithms {
            assert!(algo.select(&recompute, mode).is_empty(), "{}", algo.name());
            let picked = algo.select(&incremental, mode);
            assert_eq!(picked, [ab].into(), "{}", algo.name());
            let none = evaluate(&incremental, &BTreeSet::new(), mode).total;
            assert!(evaluate(&incremental, &picked, mode).total < none);
        }
    }

    #[test]
    fn policy_aware_greedy_materializes_delta_profitable_views() {
        // Figure 9 reads the one price: the join's weight and saving are
        // charged at `Cmᵟ`, so its Cs turns positive.
        let a = flip_annotated(2.0, 5.0, INCREMENTAL);
        let (m, trace) = GreedySelection::new().run(&a);
        let ab = a.mvpp().interior()[0];
        let ann = a.annotation(ab);
        assert_eq!(ann.cm, ann.delta_cm);
        assert_eq!(m, [ab].into());
        assert_eq!(trace.initial_lv, vec![ab]);
        let step = &trace.steps[0];
        assert_eq!(step.verdict, TraceVerdict::Materialized);
        assert_eq!(
            step.cs,
            ann.fq_weight * ann.ca - ann.fu_weight * ann.delta_cm
        );
    }

    #[test]
    fn joint_exhaustive_is_a_lower_bound_for_joint_algorithms() {
        // Per-view prices choose views and their policies together; the
        // exhaustive pick is still the floor of every search.
        let mode = MaintenanceMode::SharedRecompute;
        for a in [
            annotated_with(INCREMENTAL),
            flip_annotated(2.0, 5.0, INCREMENTAL),
        ] {
            let best = evaluate(&a, &ExhaustiveSelection::default().select(&a, mode), mode).total;
            for algo in [
                &GreedySelection::new() as &dyn SelectionAlgorithm,
                &MaterializeAll,
                &MaterializeNone,
                &RandomSearch::default(),
                &SimulatedAnnealing::default(),
                &GeneticSelection::default(),
            ] {
                let cost = evaluate(&a, &algo.select(&a, mode), mode).total;
                assert!(
                    best <= cost + 1e-6,
                    "{} beat exhaustive: {cost} < {best}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn algorithm_names_are_distinct() {
        let names = [
            GreedySelection::new().name(),
            MaterializeAll.name(),
            MaterializeNone.name(),
            ExhaustiveSelection::default().name(),
            RandomSearch::default().name(),
            SimulatedAnnealing::default().name(),
            GeneticSelection::default().name(),
        ];
        let set: std::collections::BTreeSet<_> = names.into_iter().collect();
        assert_eq!(set.len(), 7);
    }
}
