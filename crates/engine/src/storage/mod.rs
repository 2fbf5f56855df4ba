//! Paged columnar storage: fixed-size pages, a buffer pool with clock
//! eviction, and spill-to-disk.
//!
//! Until this layer existed every [`crate::Batch`] was fully resident and
//! `iosim` could only *simulate* block accesses from row counts. Here
//! blocks become real: a column is cut into fixed-size pages
//! ([`DEFAULT_PAGE_ROWS`] rows each), pages live in a [`BufferPool`] with a
//! configurable byte budget, and when the pool is over budget a clock
//! sweep evicts unpinned pages to an append-only [`SpillStore`] file. A
//! later pin decodes the page back — the page codec round-trips
//! every column representation exactly, and dictionary value tables stay
//! resident in frame metadata so decoded pages share the *same* `Arc`'d
//! table as their siblings.
//!
//! **Determinism under eviction.** Eviction only changes *residency*,
//! never content: a page read back from spill is representation-identical
//! (same variant, same values, same shared dictionary pointer) to the page
//! that was evicted. Every kernel is a pure function of column content, so
//! query results are bit-identical at any pool size and eviction order —
//! pinned by the differential battery in `tests/engine_paged.rs`.

mod page;
mod paged;
mod pool;
mod spill;

pub use page::{batch_bytes, DEFAULT_PAGE_ROWS};
pub use paged::PagedBatch;
pub use pool::{BufferPool, PageId, PoolStats};
pub use spill::SpillStore;
