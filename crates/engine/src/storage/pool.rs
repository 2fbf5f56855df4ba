//! The buffer pool: a byte-budgeted page cache with clock eviction.
//!
//! A page is registered once (immutable thereafter) and comes back as a
//! [`PooledPage`] handle. Batches share handles by `Arc`; when the last one
//! drops, the frame is released — its bytes leave the pool, its slot takes
//! the next registration and its spill run goes back to the
//! [`SpillStore`] for the next eviction to reuse. A pin of a resident page
//! bumps its reference bit and hands out the shared `Arc`; a pin of an
//! evicted page reads it back from the spill file and decodes it (a
//! **miss** — the measured counterpart of the paper's simulated block
//! accesses). When resident bytes exceed the budget, a clock hand sweeps the
//! frames giving each a second chance: referenced frames lose their bit,
//! unreferenced ones are spilled (first eviction only — pages are
//! immutable, so re-eviction reuses the spill location) and dropped. A
//! frame whose page `Arc` is still held outside the pool is pinned by
//! definition and never evicted.
//!
//! Eviction changes residency, never content — see the module docs of
//! [`crate::storage`] for the determinism argument.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::batch::Column;

use super::page::{column_bytes, decode_page, encode_page};
use super::spill::SpillStore;

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
    /// Live pages: registered and not yet released.
    pub pages: usize,
    /// The spill file's length: the runs of live spilled pages and the
    /// free holes between them.
    pub spill_file_bytes: u64,
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

#[derive(Debug, Default)]
struct PoolInner {
    /// Frame slots; `None` is a released slot, listed in `vacant`.
    frames: Vec<Option<Frame>>,
    vacant: Vec<usize>,
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

/// A page registered in a [`BufferPool`]. Pins go through it, and dropping
/// it releases the frame, so batches share it behind an `Arc`.
#[derive(Debug)]
pub(crate) struct PooledPage {
    pool: Arc<BufferPool>,
    slot: usize,
}

impl PooledPage {
    /// Pins the page (see [`BufferPool::pin`]).
    pub(crate) fn pin(&self) -> Arc<Column> {
        self.pool.pin(self.slot)
    }
}

impl Drop for PooledPage {
    fn drop(&mut self) {
        self.pool.release(self.slot);
    }
}

impl BufferPool {
    /// A pool with a byte budget (`None` = unbounded, never evicts).
    pub fn new(budget: Option<usize>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PoolInner::default()),
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

    /// The pool's state. A panic while the lock is held — a spill file that
    /// cannot be created, written or read — poisons it; each such panic
    /// point leaves the frames consistent (see [`PoolInner::enforce_budget`]
    /// and [`BufferPool::pin`]), so the next caller takes the state as it
    /// is instead of panicking in turn.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an immutable page and returns its handle. May trigger an
    /// eviction sweep if the pool is over budget.
    ///
    /// # Panics
    ///
    /// Panics when the spill file cannot be created or written.
    pub(crate) fn register(self: &Arc<Self>, page: Column) -> PooledPage {
        let bytes = column_bytes(&page);
        let frame = Frame {
            dict: page.dict_values().cloned(),
            data: Some(Arc::new(page)),
            spilled: None,
            bytes,
            referenced: false,
        };
        let slot = {
            let mut inner = self.lock();
            inner.resident += bytes;
            match inner.vacant.pop() {
                Some(slot) => {
                    inner.frames[slot] = Some(frame);
                    slot
                }
                None => {
                    inner.frames.push(Some(frame));
                    inner.frames.len() - 1
                }
            }
        };
        // The handle exists before the sweep: if the sweep panics, unwinding
        // drops it and releases the frame instead of leaking it.
        let page = PooledPage {
            pool: Arc::clone(self),
            slot,
        };
        self.lock().enforce_budget(self.budget);
        page
    }

    /// Pins a page, loading it back from spill on a miss, and returns the
    /// shared decoded column. The page stays resident at least as long as
    /// the returned `Arc` is held.
    ///
    /// # Panics
    ///
    /// Panics on a spill I/O failure.
    fn pin(&self, slot: usize) -> Arc<Column> {
        let mut inner = self.lock();
        let frame = inner.frames[slot].as_mut().expect("a pinned page is live");
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
        // A failed read or a corrupt page panics before anything below
        // changes: the frame stays evicted with its spill run, and the next
        // pin reads it again.
        let store = inner.store.as_ref().expect("spilled page without a store");
        let bytes = store.read(offset, len).expect("spill read failed");
        let page = Arc::new(decode_page(&bytes, dict.as_ref()));
        let frame = inner.frames[slot].as_mut().expect("a pinned page is live");
        frame.data = Some(Arc::clone(&page));
        frame.referenced = true;
        let fbytes = frame.bytes;
        inner.resident += fbytes;
        inner.misses += 1;
        // The freshly pinned page holds an outside Arc, so the sweep
        // naturally skips it.
        inner.enforce_budget(self.budget);
        page
    }

    /// Releases a frame whose last handle dropped: its bytes leave the pool
    /// and its spill run, if any, goes back to the spill file. Runs in
    /// `Drop`, so it does not panic: a slot is released once, by its one
    /// handle.
    fn release(&self, slot: usize) {
        let mut inner = self.lock();
        let Some(frame) = inner.frames[slot].take() else {
            return;
        };
        if frame.data.is_some() {
            inner.resident -= frame.bytes;
        }
        if let (Some((offset, len)), Some(store)) = (frame.spilled, &inner.store) {
            store.free(offset, len);
        }
        inner.vacant.push(slot);
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            spill_bytes: inner.spill_bytes,
            resident_bytes: inner.resident,
            pages: inner.frames.len() - inner.vacant.len(),
            spill_file_bytes: inner.store.as_ref().map_or(0, SpillStore::file_bytes),
        }
    }
}

impl PoolInner {
    /// Clock sweep: while over budget, give referenced frames a second
    /// chance and evict unreferenced, unpinned ones. Bounded at two full
    /// revolutions per call so a fully pinned pool terminates (staying
    /// over budget is allowed — the budget is a target, pins are
    /// correctness).
    ///
    /// # Panics
    ///
    /// Panics when the spill file cannot be created or written. Nothing of
    /// the frame being evicted has changed at that point — it is still
    /// resident, unspilled and counted — so the pool stays consistent and
    /// merely over budget.
    fn enforce_budget(&mut self, budget: Option<usize>) {
        let Some(budget) = budget else {
            return;
        };
        let n = self.frames.len();
        let mut steps = 0;
        while self.resident > budget && steps < 2 * n {
            let at = self.hand % n;
            self.hand = (self.hand + 1) % n;
            steps += 1;
            let Some(frame) = self.frames[at].as_mut() else {
                continue;
            };
            // An Arc held outside the pool means the page is pinned.
            let Some(data) = frame.data.as_ref().filter(|d| Arc::strong_count(d) == 1) else {
                continue;
            };
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if frame.spilled.is_none() {
                let bytes = encode_page(data);
                let store = match &mut self.store {
                    Some(store) => store,
                    None => self
                        .store
                        .insert(SpillStore::create().expect("create spill file")),
                };
                let loc = store.write(&bytes).expect("spill write failed");
                self.spill_bytes += bytes.len() as u64;
                frame.spilled = Some(loc);
            }
            frame.data = None;
            self.resident -= frame.bytes;
            self.evictions += 1;
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
        let pages: Vec<PooledPage> = (0..10).map(|i| pool.register(int_page(0..i + 1))).collect();
        for page in &pages {
            let _ = page.pin();
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
        let pages: Vec<(PooledPage, Column)> = (0..8)
            .map(|i| {
                let col = int_page(i * 64..(i + 1) * 64);
                (pool.register(col.clone()), col)
            })
            .collect();
        let s = pool.stats();
        assert!(s.evictions > 0, "tiny budget must evict");
        assert!(s.resident_bytes <= 1100);
        // Every page reads back bit-identically, in any order.
        for (page, original) in pages.iter().rev() {
            assert_eq!(&*page.pin(), original);
        }
        for (page, original) in &pages {
            assert_eq!(&*page.pin(), original);
        }
        let s = pool.stats();
        assert!(s.misses > 0, "reloads must be counted as misses");
        assert!(s.spill_bytes > 0);
    }

    #[test]
    fn outstanding_pins_are_never_evicted() {
        let pool = BufferPool::new(Some(600));
        let first = pool.register(int_page(0..64));
        let pinned = first.pin();
        // Flood the pool; `first` is pinned and must survive resident.
        let _flood: Vec<PooledPage> = (1..10)
            .map(|i| pool.register(int_page(i * 64..(i + 1) * 64)))
            .collect();
        let before = pool.stats().misses;
        let again = first.pin();
        assert!(Arc::ptr_eq(&pinned, &again), "pinned page stayed resident");
        assert_eq!(pool.stats().misses, before, "no miss for a pinned page");
    }

    #[test]
    fn immutable_pages_are_spilled_once() {
        let pool = BufferPool::new(Some(600));
        let page = pool.register(int_page(0..64));
        // Evict, reload, evict again by registering pressure.
        let mut pressure: Vec<PooledPage> = (1..4)
            .map(|i| pool.register(int_page(i * 64..(i + 1) * 64)))
            .collect();
        let after_first = pool.stats().spill_bytes;
        let _ = page.pin();
        pressure.extend((4..8).map(|i| pool.register(int_page(i * 64..(i + 1) * 64))));
        let s = pool.stats();
        assert!(s.evictions >= 2);
        // Re-evicting `page` reused its spill run: spill bytes grew only by
        // the *other* pages' first evictions (4 pages * 521 bytes each).
        assert!(
            s.spill_bytes <= after_first + 4 * (512 + 9),
            "re-eviction must not rewrite an already spilled page"
        );
    }

    /// Dropping the last handle releases the frame: its bytes leave the
    /// pool, its slot takes the next page, and its spill run takes the next
    /// eviction — so a pool whose pages come and go holds what is live.
    #[test]
    fn released_frames_free_their_slot_bytes_and_spill_run() {
        let pool = BufferPool::new(Some(600));
        let mut live: Vec<PooledPage> = (0..4)
            .map(|i| pool.register(int_page(i * 64..(i + 1) * 64)))
            .collect();
        let s = pool.stats();
        assert_eq!(s.pages, 4);
        assert!(s.spill_file_bytes > 0, "over budget, pages spilled");
        for round in 0..50 {
            // Replace the oldest page: the file must not grow.
            live.remove(0);
            live.push(pool.register(int_page(round * 64..(round + 1) * 64)));
            let now = pool.stats();
            assert_eq!(now.pages, 4, "round {round}");
            assert!(
                now.spill_file_bytes <= s.spill_file_bytes + 521,
                "round {round}"
            );
        }
        drop(live);
        let s = pool.stats();
        assert_eq!((s.pages, s.resident_bytes, s.spill_file_bytes), (0, 0, 0));
    }
}
