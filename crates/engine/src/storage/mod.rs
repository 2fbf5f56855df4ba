//! Paged columnar storage: the one representation of relation data —
//! pages, held or in a buffer pool with clock eviction and spill-to-disk.
//!
//! Every table and every operator result is a [`PagedBatch`]: per column,
//! a list of pages. Without a memory budget a page is *held* — one
//! `Arc<Column>` per column, pinned by an `Arc` clone. Under a budget
//! columns are cut into fixed-size pages ([`DEFAULT_PAGE_ROWS`] rows each)
//! that live in a [`BufferPool`] with a byte budget; when the pool is over
//! budget a clock sweep evicts unpinned pages to a [`SpillStore`] file,
//! and a page is released from the pool — its spill run reused — when the
//! last batch holding it drops. A later pin decodes an evicted page back —
//! the page codec round-trips every column representation exactly, and
//! dictionary value tables stay resident in frame metadata so decoded pages
//! share the *same* `Arc`'d table as their siblings. Nothing outside this
//! module knows where a page lives.
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
pub use pool::{BufferPool, PoolStats};
pub use spill::SpillStore;
