//! The buffer pool: a byte-budgeted page cache with clock eviction.
//!
//! Pages are registered once (immutable thereafter) and pinned on demand.
//! A pin of a resident page bumps its reference bit and hands out the
//! shared `Arc`; a pin of an evicted page reads it back from the
//! [`SpillStore`] and decodes it (a **miss** — the measured counterpart of
//! the paper's simulated block accesses). When resident bytes exceed the
//! budget, a clock hand sweeps the frames giving each a second chance:
//! referenced frames lose their bit, unreferenced ones are spilled (first
//! eviction only — pages are immutable, so re-eviction reuses the spill
//! location) and dropped. A frame whose page `Arc` is still held outside
//! the pool is pinned by definition and never evicted.
//!
//! Eviction changes residency, never content — see the module docs of
//! [`crate::storage`] for the determinism argument.

use std::sync::{Arc, Mutex};

use crate::batch::Column;

use super::page::{column_bytes, decode_page, encode_page};
use super::spill::SpillStore;

/// Handle to a page registered in a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId(pub(crate) usize);

/// Counters describing pool traffic, snapshotted by [`BufferPool::stats`].
///
/// `misses` is the measured analogue of the paper's per-operator block
/// charges: each miss is one real page fetched from spill (or, for a cold
/// pool, decoded on first touch after eviction). Note that miss counts are
/// *measurements*, not outputs — when several readers share the pool the
/// eviction order depends on thread interleaving, so counts may vary run to
/// run even though query results never do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins satisfied by a resident page.
    pub hits: u64,
    /// Pins that had to read the page back from spill.
    pub misses: u64,
    /// Pages evicted by the clock sweep.
    pub evictions: u64,
    /// Bytes written to the spill file (first evictions only).
    pub spill_bytes: u64,
    /// Estimated bytes currently resident.
    pub resident_bytes: usize,
    /// Pages registered in the pool.
    pub pages: usize,
}

#[derive(Debug)]
struct Frame {
    /// The decoded page while resident.
    data: Option<Arc<Column>>,
    /// Value table of a dictionary page, kept resident so decode
    /// re-attaches the *same* shared `Arc`.
    dict: Option<Arc<[Arc<str>]>>,
    /// Spill location once the page has been evicted at least once.
    spilled: Option<(u64, u64)>,
    /// Estimated resident bytes (stable across evict/reload cycles).
    bytes: usize,
    /// Clock second-chance bit.
    referenced: bool,
}

#[derive(Debug)]
struct PoolInner {
    frames: Vec<Frame>,
    hand: usize,
    resident: usize,
    store: Option<SpillStore>,
    hits: u64,
    misses: u64,
    evictions: u64,
    spill_bytes: u64,
}

/// A byte-budgeted cache of immutable column pages (see the module docs).
///
/// The pool is shared behind an `Arc` and internally synchronised, so the
/// serving layer's readers pin and release pages concurrently.
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    budget: Option<usize>,
}

impl BufferPool {
    /// A pool with a byte budget (`None` = unbounded, never evicts).
    pub fn new(budget: Option<usize>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                hand: 0,
                resident: 0,
                store: None,
                hits: 0,
                misses: 0,
                evictions: 0,
                spill_bytes: 0,
            }),
            budget,
        })
    }

    /// A pool that keeps every page resident.
    pub fn unbounded() -> Arc<Self> {
        Self::new(None)
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Registers an immutable page and returns its handle. May trigger an
    /// eviction sweep if the pool is over budget.
    ///
    /// # Panics
    ///
    /// Panics when the spill file cannot be created or written.
    pub(crate) fn register(&self, page: Column) -> PageId {
        let bytes = column_bytes(&page);
        let dict = page.dict_values().cloned();
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        inner.frames.push(Frame {
            data: Some(Arc::new(page)),
            dict,
            spilled: None,
            bytes,
            referenced: false,
        });
        let id = PageId(inner.frames.len() - 1);
        inner.resident += bytes;
        Self::enforce_budget(&mut inner, self.budget);
        id
    }

    /// Pins a page, loading it back from spill on a miss, and returns the
    /// shared decoded column. The page stays resident at least as long as
    /// the returned `Arc` is held.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id or a spill I/O failure.
    pub(crate) fn pin(&self, id: PageId) -> Arc<Column> {
        let mut inner = self.inner.lock().expect("buffer pool poisoned");
        let frame = &mut inner.frames[id.0];
        if let Some(data) = &frame.data {
            frame.referenced = true;
            let out = Arc::clone(data);
            inner.hits += 1;
            return out;
        }
        let (offset, len) = frame
            .spilled
            .expect("non-resident page must have a spill location");
        let dict = frame.dict.clone();
        let store = inner.store.as_ref().expect("spilled page without a store");
        let bytes = store.read(offset, len).expect("spill read failed");
        let page = Arc::new(decode_page(&bytes, dict.as_ref()));
        let frame = &mut inner.frames[id.0];
        frame.data = Some(Arc::clone(&page));
        frame.referenced = true;
        let fbytes = frame.bytes;
        inner.resident += fbytes;
        inner.misses += 1;
        // The freshly pinned page holds an outside Arc, so the sweep
        // naturally skips it.
        Self::enforce_budget(&mut inner, self.budget);
        page
    }

    /// Clock sweep: while over budget, give referenced frames a second
    /// chance and evict unreferenced, unpinned ones. Bounded at two full
    /// revolutions per call so a fully pinned pool terminates (staying
    /// over budget is allowed — the budget is a target, pins are
    /// correctness).
    fn enforce_budget(inner: &mut PoolInner, budget: Option<usize>) {
        let Some(budget) = budget else {
            return;
        };
        let n = inner.frames.len();
        if n == 0 {
            return;
        }
        let mut steps = 0;
        while inner.resident > budget && steps < 2 * n {
            let at = inner.hand % n;
            inner.hand = (inner.hand + 1) % n;
            steps += 1;
            let frame = &mut inner.frames[at];
            let evictable = match &frame.data {
                // An Arc held outside the pool means the page is pinned.
                Some(data) => Arc::strong_count(data) == 1,
                None => false,
            };
            if !evictable {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let needs_spill = frame.spilled.is_none();
            if needs_spill {
                if inner.store.is_none() {
                    inner.store = Some(SpillStore::create().expect("create spill file"));
                }
                let frame = &inner.frames[at];
                let bytes = encode_page(frame.data.as_ref().expect("resident"));
                let store = inner.store.as_ref().expect("just created");
                let loc = store.write(&bytes).expect("spill write failed");
                inner.spill_bytes += bytes.len() as u64;
                inner.frames[at].spilled = Some(loc);
            }
            let frame = &mut inner.frames[at];
            frame.data = None;
            let fbytes = frame.bytes;
            inner.resident -= fbytes;
            inner.evictions += 1;
        }
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("buffer pool poisoned");
        PoolStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            spill_bytes: inner.spill_bytes,
            resident_bytes: inner.resident,
            pages: inner.frames.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_page(vals: std::ops::Range<i64>) -> Column {
        Column::Int(vals.collect())
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let pool = BufferPool::unbounded();
        let ids: Vec<PageId> = (0..10).map(|i| pool.register(int_page(0..i + 1))).collect();
        for id in &ids {
            let _ = pool.pin(*id);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, 10);
        assert_eq!(s.pages, 10);
    }

    #[test]
    fn over_budget_registration_spills_and_pins_reload_exactly() {
        // Each page: 64 rows * 8 bytes = 512 bytes; budget fits ~2 pages.
        let pool = BufferPool::new(Some(1100));
        let pages: Vec<(PageId, Column)> = (0..8)
            .map(|i| {
                let col = int_page(i * 64..(i + 1) * 64);
                (pool.register(col.clone()), col)
            })
            .collect();
        let s = pool.stats();
        assert!(s.evictions > 0, "tiny budget must evict");
        assert!(s.resident_bytes <= 1100);
        // Every page reads back bit-identically, in any order.
        for (id, original) in pages.iter().rev() {
            assert_eq!(&*pool.pin(*id), original);
        }
        for (id, original) in &pages {
            assert_eq!(&*pool.pin(*id), original);
        }
        let s = pool.stats();
        assert!(s.misses > 0, "reloads must be counted as misses");
        assert!(s.spill_bytes > 0);
    }

    #[test]
    fn outstanding_pins_are_never_evicted() {
        let pool = BufferPool::new(Some(600));
        let first = pool.register(int_page(0..64));
        let pinned = pool.pin(first);
        // Flood the pool; `first` is pinned and must survive resident.
        for i in 1..10 {
            let _ = pool.register(int_page(i * 64..(i + 1) * 64));
        }
        let before = pool.stats().misses;
        let again = pool.pin(first);
        assert!(Arc::ptr_eq(&pinned, &again), "pinned page stayed resident");
        assert_eq!(pool.stats().misses, before, "no miss for a pinned page");
    }

    #[test]
    fn immutable_pages_are_spilled_once() {
        let pool = BufferPool::new(Some(600));
        let id = pool.register(int_page(0..64));
        // Evict, reload, evict again by registering pressure.
        for i in 1..4 {
            let _ = pool.register(int_page(i * 64..(i + 1) * 64));
        }
        let after_first = pool.stats().spill_bytes;
        let _ = pool.pin(id);
        for i in 4..8 {
            let _ = pool.register(int_page(i * 64..(i + 1) * 64));
        }
        let s = pool.stats();
        assert!(s.evictions >= 2);
        // Re-evicting `id` reused its spill run: spill bytes grew only by
        // the *other* pages' first evictions (4 pages * 521 bytes each).
        assert!(
            s.spill_bytes <= after_first + 4 * (512 + 9),
            "re-eviction must not rewrite an already spilled page"
        );
    }
}
