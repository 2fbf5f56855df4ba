//! The warehouse's two caches, both shared with every snapshot through an
//! `Arc` (DESIGN §18).
//!
//! [`ResultCache`] keeps answers between two changes of the data they were
//! computed from, so a query asked `fq` times over unchanged views pays its
//! `Ca(q)` once. Served from it: prepared expressions (`query_expr`) and SQL
//! text (`query`, under the parsed expression's key) on a warehouse with no
//! memory budget; a budgeted warehouse runs every plan.
//!
//! An entry is keyed by the submitted expression and stamped with the
//! content version of every stored relation its routed plan read. A lookup
//! hits only when every stamp equals the asker's version of that relation —
//! nothing is ever invalidated, a stale entry is simply replaced by the
//! next answer computed under its key.
//!
//! [`StatementCache`] keeps, per exact SQL text, the parsed expression and
//! its routed plan. The catalog and the view registry are fixed for a
//! warehouse's life, so both are functions of the text alone and never go
//! stale; a repeated text skips parsing and routing under any budget. It
//! keeps at most [`MAX_STATEMENTS`] texts of at most
//! [`MAX_STATEMENT_BYTES`] each, and empties itself when a new text arrives
//! at the cap.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use mvdesign_algebra::Expr;
use mvdesign_catalog::RelName;
use mvdesign_engine::{batch_bytes, Table};

/// Content version per stored relation; a relation never written reads 0.
pub(crate) type Versions = BTreeMap<RelName, u64>;

/// Largest answer kept, in bytes. The answers worth keeping are aggregates
/// (the TPC-H-lite `revenue_by_*` results are under 1 KiB); 256 KiB is a
/// γ of ~10⁴ groups, and anything wider is mostly a copy of stored data.
const MAX_ENTRY_BYTES: usize = 256 * 1024;

/// Bytes the cache may hold: 32 answers of the largest size, and a fifth of
/// the 40 MB the `dash` benchmark workload peaks at (its `peak_rss_mb` bound
/// is a quarter).
const MAX_TOTAL_BYTES: usize = 8 * 1024 * 1024;

/// Charged per entry on top of its columns (key, stamps, map slots), so
/// empty answers cannot pile up without bound.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// SQL texts kept parsed and routed. It bounds a client that never repeats
/// a text, not a workload that does; reaching it empties the map.
const MAX_STATEMENTS: usize = 1024;

/// Longest SQL text kept, in bytes: a longer one is parsed and routed on
/// every ask. TPC-H-lite texts are 67–188 bytes. A text's parsed and routed
/// plans measured 7–15 bytes per byte of text, so however long the texts a
/// client sends (wide `OR` lists), the statements hold about 8 MiB at most,
/// as much as the result cache.
const MAX_STATEMENT_BYTES: usize = 512;

/// Counters of a warehouse's result cache, read with
/// [`Warehouse::result_cache_stats`](crate::warehouse::Warehouse::result_cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// Queries answered from a stored result (the plan did not run).
    pub hits: u64,
    /// Queries that ran their plan; `hits + misses` is every query asked.
    pub misses: u64,
    /// The misses that found their key with a stamp from another data
    /// version (the entry is replaced by the fresh answer).
    pub stale: u64,
    /// Answers not stored because they exceed the per-entry size.
    pub skipped_large: u64,
    /// Entries dropped, least recently used first, to stay under the cap.
    pub evictions: u64,
    /// Entries held now.
    pub entries: usize,
    /// Bytes held now (columns plus a fixed charge per entry).
    pub bytes: usize,
}

impl fmt::Display for ResultCacheStats {
    /// One `result_cache.<counter> <value>` line per counter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "result_cache.hits {}", self.hits)?;
        writeln!(f, "result_cache.misses {}", self.misses)?;
        writeln!(f, "result_cache.stale {}", self.stale)?;
        writeln!(f, "result_cache.skipped_large {}", self.skipped_large)?;
        writeln!(f, "result_cache.evictions {}", self.evictions)?;
        writeln!(f, "result_cache.entries {}", self.entries)?;
        write!(f, "result_cache.bytes {}", self.bytes)
    }
}

struct Entry {
    table: Table,
    /// `(relation, version)` of every stored relation the routed plan read.
    stamps: Vec<(RelName, u64)>,
    bytes: usize,
    /// Key into `Inner::by_use`.
    used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Arc<Expr>, Entry>,
    /// Keys by last use, oldest first.
    by_use: BTreeMap<u64, Arc<Expr>>,
    clock: u64,
    stats: ResultCacheStats,
}

impl Inner {
    fn remove(&mut self, key: &Expr) {
        if let Some(old) = self.entries.remove(key) {
            self.by_use.remove(&old.used);
            self.stats.bytes -= old.bytes;
        }
    }

    fn oldest(&self) -> Option<Arc<Expr>> {
        self.by_use.values().next().cloned()
    }
}

/// See the module documentation.
#[derive(Default)]
pub(crate) struct ResultCache(Mutex<Inner>);

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ResultCache").field(&self.stats()).finish()
    }
}

impl ResultCache {
    /// Every update below leaves the maps and counters consistent before it
    /// can panic, so a poisoned lock still guards a valid cache.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn stats(&self) -> ResultCacheStats {
        let inner = self.lock();
        ResultCacheStats {
            entries: inner.entries.len(),
            ..inner.stats
        }
    }

    /// The stored answer to `expr`, if it was computed from the data
    /// `versions` describes. Counts the hit, or the miss the caller is
    /// about to run.
    pub(crate) fn get(&self, expr: &Expr, versions: &Versions) -> Option<Table> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let now = inner.clock;
        match inner.entries.get_mut(expr) {
            Some(entry)
                if entry
                    .stamps
                    .iter()
                    .all(|(name, at)| version_of(versions, name) == *at) =>
            {
                if let Some(key) = inner.by_use.remove(&entry.used) {
                    inner.by_use.insert(now, key);
                }
                entry.used = now;
                inner.stats.hits += 1;
                Some(entry.table.clone())
            }
            found => {
                inner.stats.stale += u64::from(found.is_some());
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores the answer `routed` gave to `expr` over the data `versions`
    /// describes, replacing whatever was stored under `expr`, then drops
    /// least-recently-used entries until at most [`MAX_TOTAL_BYTES`] are
    /// held.
    ///
    /// Not stored: an answer over the per-entry size, and the answer of a
    /// plan that routed to a bare stored relation — running it is already a
    /// pointer clone, and keeping the clone would pin a table the next
    /// refresh replaces.
    pub(crate) fn put(&self, expr: &Arc<Expr>, routed: &Expr, versions: &Versions, table: &Table) {
        if matches!(routed, Expr::Base(_)) {
            return;
        }
        let bytes = batch_bytes(table.batch()) + ENTRY_OVERHEAD_BYTES;
        let stamps = routed
            .base_relations()
            .into_iter()
            .map(|name| {
                let at = version_of(versions, &name);
                (name, at)
            })
            .collect();
        let mut guard = self.lock();
        let inner = &mut *guard;
        if bytes > MAX_ENTRY_BYTES {
            inner.stats.skipped_large += 1;
            return;
        }
        inner.remove(expr);
        inner.clock += 1;
        let used = inner.clock;
        inner.by_use.insert(used, Arc::clone(expr));
        inner.entries.insert(
            Arc::clone(expr),
            Entry {
                table: table.clone(),
                stamps,
                bytes,
                used,
            },
        );
        inner.stats.bytes += bytes;
        while inner.stats.bytes > MAX_TOTAL_BYTES {
            let Some(oldest) = inner.oldest() else { break };
            inner.remove(&oldest);
            inner.stats.evictions += 1;
        }
    }
}

/// What a SQL text parses to, and the plan that expression routes to.
#[derive(Clone)]
pub(crate) struct Statement {
    pub(crate) parsed: Arc<Expr>,
    pub(crate) routed: Arc<Expr>,
}

/// See the module documentation.
#[derive(Default)]
pub(crate) struct StatementCache(RwLock<HashMap<Box<str>, Statement>>);

impl fmt::Debug for StatementCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StatementCache").field(&self.len()).finish()
    }
}

impl StatementCache {
    /// The statement kept for `sql`, or the one `prepare` makes of it, kept
    /// unless `prepare` fails or `sql` is longer than
    /// [`MAX_STATEMENT_BYTES`]. A hit takes the read lock only; the write
    /// lock is held for the insert, never across `prepare`: two readers
    /// missing on one text at once both prepare it and store equal
    /// statements. A new text at [`MAX_STATEMENTS`] empties the map first.
    ///
    /// No update can leave the map half-written, so a poisoned lock still
    /// guards a valid cache.
    pub(crate) fn get_or_prepare<E>(
        &self,
        sql: &str,
        prepare: impl FnOnce() -> Result<Statement, E>,
    ) -> Result<Statement, E> {
        if let Some(statement) = self
            .0
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(sql)
        {
            return Ok(statement.clone());
        }
        let statement = prepare()?;
        if sql.len() <= MAX_STATEMENT_BYTES {
            let mut map = self.0.write().unwrap_or_else(PoisonError::into_inner);
            if map.len() >= MAX_STATEMENTS && !map.contains_key(sql) {
                map.clear();
            }
            map.insert(sql.into(), statement.clone());
        }
        Ok(statement)
    }

    /// Texts held now.
    pub(crate) fn len(&self) -> usize {
        self.0.read().unwrap_or_else(PoisonError::into_inner).len()
    }
}

fn version_of(versions: &Versions, name: &RelName) -> u64 {
    versions.get(name).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn statement(name: &str) -> Statement {
        let expr = Arc::new(Expr::Base(RelName::new(name)));
        Statement {
            parsed: Arc::clone(&expr),
            routed: expr,
        }
    }

    fn prepare(cache: &StatementCache, text: &str) {
        cache
            .get_or_prepare(text, || Ok::<_, ()>(statement(text)))
            .expect("prepares");
    }

    fn kept(cache: &StatementCache, text: &str) -> bool {
        cache
            .get_or_prepare(text, || Err::<Statement, _>(()))
            .is_ok()
    }

    #[test]
    fn a_new_text_at_the_cap_empties_the_map_first() {
        let cache = StatementCache::default();
        for i in 0..MAX_STATEMENTS {
            prepare(&cache, &format!("q{i}"));
        }
        assert_eq!(cache.len(), MAX_STATEMENTS);
        // A repeat at the cap is a hit and keeps every text.
        prepare(&cache, "q0");
        assert_eq!(cache.len(), MAX_STATEMENTS);
        prepare(&cache, "one more");
        assert_eq!(cache.len(), 1);
        assert!(kept(&cache, "one more"));
        assert!(!kept(&cache, "q0"));
    }

    #[test]
    fn a_text_past_the_byte_cap_is_prepared_every_time_and_never_kept() {
        let cache = StatementCache::default();
        let long = "x".repeat(MAX_STATEMENT_BYTES + 1);
        let at_cap = "y".repeat(MAX_STATEMENT_BYTES);
        prepare(&cache, &long);
        assert!(!kept(&cache, &long));
        prepare(&cache, &at_cap);
        assert!(kept(&cache, &at_cap));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_failed_prepare_keeps_nothing_and_is_retried() {
        let cache = StatementCache::default();
        for _ in 0..2 {
            assert_eq!(
                cache.get_or_prepare("bad", || Err::<Statement, _>(7)).err(),
                Some(7)
            );
        }
        assert_eq!(cache.len(), 0);
        let got = cache
            .get_or_prepare("bad", || Ok::<_, ()>(statement("Fixed")))
            .expect("prepares");
        assert_eq!(*got.parsed, Expr::Base(RelName::new("Fixed")));
        assert_eq!(cache.len(), 1);
    }
}
