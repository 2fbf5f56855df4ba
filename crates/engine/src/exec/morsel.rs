//! Morsel-driven parallel scheduling with deterministic merge order.
//!
//! A *morsel* is a fixed-size run of consecutive batch rows. Parallel
//! kernels split their input into morsels, let a pool of scoped workers
//! ([`std::thread::scope`] — no runtime dependency) pull morsel ids off a
//! shared atomic counter, and then reassemble the per-morsel partial
//! results **in morsel order**, never in completion order. Scheduling is
//! dynamic (whichever worker is free takes the next morsel) but the merge
//! is positional, so the output of every parallel kernel is bit-identical
//! to its single-threaded twin no matter how the OS interleaves the
//! workers — the same parallel-with-deterministic-merge pattern the view
//! search uses.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use super::JoinAlgo;

/// Default rows per morsel: large enough that per-morsel scheduling and
/// bookkeeping vanish against kernel work, small enough to load-balance
/// skewed operators across cores.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// The engine's one configuration type: which join algorithm runs, how
/// many worker threads the hot kernels may fan out to, how many rows each
/// morsel holds, and how much transient operator state may stay in memory.
/// Every entry point — [`crate::execute`], [`crate::measure`],
/// [`crate::materialize_view`], [`crate::refresh_view_delta`], the
/// warehouse and its snapshots — takes one `&ExecContext` and nothing else.
///
/// The default is the paper's discipline — **nested-loop join,
/// single-threaded, unbounded memory** — so seeded fixtures and published
/// artifacts are untouched unless a caller opts in. No field changes *what*
/// is computed: results are **bag-identical across join algorithms** (only
/// row order differs) and **bit-identical across thread counts, morsel
/// sizes and memory budgets** — parallel kernels merge per-morsel partials
/// in morsel order and the spill paths restore sequential order (pinned by
/// `tests/engine_batch.rs`, `tests/engine_morsel.rs` and
/// `tests/engine_paged.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecContext {
    /// The physical join algorithm (default [`JoinAlgo::NestedLoop`], the
    /// paper's assumption).
    pub join_algo: JoinAlgo,
    /// Worker threads the kernels may use; `0` means all available cores.
    pub threads: usize,
    /// Rows per morsel (clamped to at least 1).
    pub morsel_rows: usize,
    /// Operator memory budget in bytes (`None` = unbounded). When set,
    /// the hash join and hash aggregation switch to spill-partitioned
    /// (Grace) variants once their estimated state exceeds a share of the
    /// budget — results are bit-identical either way (pinned by
    /// `tests/engine_paged.rs`), only the memory high-water changes.
    pub mem_budget: Option<usize>,
}

impl Default for ExecContext {
    fn default() -> Self {
        Self {
            join_algo: JoinAlgo::NestedLoop,
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            mem_budget: None,
        }
    }
}

impl ExecContext {
    /// A context running on `threads` workers (0 = all available cores)
    /// with the default morsel size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The resolved worker count: `threads`, or the machine's available
    /// parallelism when `threads` is 0.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// Rows per morsel, clamped to at least 1.
    pub(crate) fn morsel(&self) -> usize {
        self.morsel_rows.max(1)
    }

    /// Whether a kernel over `rows` rows should fan out: more than one
    /// worker available and more than one morsel of work to share.
    pub(crate) fn is_parallel(&self, rows: usize) -> bool {
        self.effective_threads() > 1 && rows > self.morsel()
    }
}

/// Runs `work(0..n)` across up to `workers` scoped threads and returns the
/// results **in task order** (index `t` of the result is `work(t)`).
///
/// Tasks are scheduled dynamically — each worker pulls the next unclaimed
/// task id from an atomic counter — so stragglers don't serialise the pool,
/// but the merge is positional, which is what makes every caller's output
/// independent of thread interleaving. With one worker (or one task) it
/// degenerates to a plain sequential loop on the calling thread.
pub(crate) fn run_tasks<T, F>(n: usize, workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        if id >= n {
                            break;
                        }
                        done.push((id, work(id)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("morsel worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for done in per_worker {
        for (id, value) in done {
            slots[id] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task id below n is claimed exactly once"))
        .collect()
}

/// Splits `rows` into the context's morsels and runs `work` on each row
/// range, returning the per-morsel results in morsel (= row) order.
pub(crate) fn run_morsels<T, F>(rows: usize, ctx: &ExecContext, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let morsel = ctx.morsel();
    let n = rows.div_ceil(morsel);
    run_tasks(n, ctx.effective_threads(), |id| {
        let lo = id * morsel;
        work(lo..rows.min(lo + morsel))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_threaded() {
        let ctx = ExecContext::default();
        assert_eq!(ctx.effective_threads(), 1);
        assert!(!ctx.is_parallel(1_000_000));
    }

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        let ctx = ExecContext::with_threads(0);
        assert!(ctx.effective_threads() >= 1);
    }

    #[test]
    fn results_are_in_task_order_regardless_of_workers() {
        for workers in [1, 2, 3, 8] {
            let out = run_tasks(17, workers, |i| i * i);
            let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn morsels_cover_rows_exactly_once_in_order() {
        let ctx = ExecContext {
            threads: 4,
            morsel_rows: 7,
            ..ExecContext::default()
        };
        let ranges = run_morsels(23, &ctx, |r| r);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..7);
        assert_eq!(ranges[3], 21..23);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 23);
    }

    #[test]
    fn empty_input_schedules_nothing() {
        let ctx = ExecContext::with_threads(4);
        let out = run_morsels(0, &ctx, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn single_row_morsels_still_merge_in_order() {
        let ctx = ExecContext {
            threads: 4,
            morsel_rows: 1,
            ..ExecContext::default()
        };
        let out = run_morsels(100, &ctx, |r| r.start);
        let expected: Vec<usize> = (0..100).collect();
        assert_eq!(out, expected);
    }
}
