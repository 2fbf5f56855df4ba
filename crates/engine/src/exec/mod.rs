//! Expression evaluation over in-memory tables — columnar batch execution.
//!
//! Every operator is a *batch kernel*: attribute offsets are resolved once
//! per operator (not once per row), predicates evaluate as vectorised
//! comparisons over typed columns, and joins produce index vectors that a
//! single typed [`Batch::gather`] turns into output columns. The
//! tuple-at-a-time implementation this replaced lives on outside the
//! engine, as `mvdesign-verify`'s row reference, the differential baseline;
//! both engines are property-tested to produce identical rows in identical
//! order.
//!
//! Two adaptive refinements sit on top of the kernels. Every join and
//! aggregate runs over one `i64` key per row — the value itself for a single
//! integer, date or dictionary key (dictionary codes translate between value
//! tables once per batch, so text-keyed joins never hash a string), a row
//! hash confirmed on the columns otherwise; see [`keys`]. Selections
//! short-circuit through *selection vectors*: [`selection_mask`] orders AND
//! conjuncts by estimated selectivity (dictionary cardinalities give `=` on
//! a text column a real distinct count; intersection commutes, so the order
//! is free), starts with full-width mask kernels and, once few enough rows
//! survive, evaluates the remaining conjuncts only at the surviving
//! indices (the row reference's per-row predicate evaluation is the
//! differential baseline).

pub mod delta;
mod keys;
mod paged;

use std::error::Error;
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use mvdesign_algebra::{
    AggExpr, AggFunc, AttrRef, CompareOp, Comparison, Expr, JoinCondition, Predicate, RelName, Rhs,
    Value,
};

use crate::batch::{Batch, Column};
use crate::storage::PagedBatch;
use crate::table::{Database, Table};

use keys::{
    group_cardinality_hint, group_keys, join_keys, map_slots_bound, slot_bytes, ChainTable,
    GroupKeyRows, IntHasher, IntMap,
};
pub(crate) use paged::exec_view;

/// Errors raised while executing an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A base relation has no table in the database.
    UnknownRelation(RelName),
    /// An operator referenced an attribute its input does not carry.
    MissingAttr(AttrRef),
    /// A spill-partitioned operator could not read or write its spill file.
    Spill(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "no table for relation `{r}`"),
            ExecError::MissingAttr(a) => write!(f, "input carries no attribute `{a}`"),
            ExecError::Spill(e) => write!(f, "operator spill failed: {e}"),
        }
    }
}

impl Error for ExecError {}

/// The engine's one configuration type, taken by every entry point —
/// [`crate::execute`], [`crate::execute_shared`], [`crate::measure`],
/// [`crate::materialize_view`] and [`crate::refresh_view_delta`] — and kept
/// by the warehouse and its snapshots for each call they make. It holds
/// the one setting two callers set differently: how much transient operator
/// state may stay in memory. It never changes *what* is computed: results
/// are bit-identical under every budget (pinned by `tests/engine_paged.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecContext {
    /// Operator memory budget in bytes (`None`, the default, = unbounded).
    /// An operator's *state* — the hash join's build-side hash table,
    /// the aggregation's group table with its representatives and
    /// accumulators — may take half of it. A join whose build side, or a γ
    /// whose group bound, would hold more goes spill-partitioned (Grace),
    /// one partition's state within that half at a time; the rows it reads
    /// and writes are not state. Only the memory high-water changes, and
    /// [`crate::measure`] reports it per operator
    /// ([`crate::OpCharge::state_bytes`]).
    pub mem_budget: Option<usize>,
}

/// What an operator held while it ran: the largest keyed state in memory
/// at once — a join's [`ChainTable`], a γ's group table with its
/// representatives and accumulators, in bytes by capacity — and whether it
/// spilled to keep that within the budget. Selection and projection hold
/// none. [`crate::measure`] records it as [`crate::OpCharge`]'s
/// `state_bytes` and `spilled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Held {
    pub(crate) state_bytes: usize,
    pub(crate) spilled: bool,
}

impl Held {
    /// Widens the high-water to `bytes`.
    fn hold(&mut self, bytes: usize) {
        self.state_bytes = self.state_bytes.max(bytes);
    }
}

// Exists for the frozen `benchmark/src/layers.rs`, which names
// `JoinAlgo::Hash`; goes with ROADMAP item 1(e), beside `measure_paged`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    Hash,
}

/// Evaluates an SPJ expression against a database, producing a result
/// table with bag semantics — the engine's one execution entry point.
///
/// Selection is a linear scan, join a hash join that emits exactly the
/// rows, in exactly the order, of the naive nested loop the paper assumes
/// (left rows ascending, their matches ascending), projection keeps
/// duplicates. The paper's nested-loop discipline is an accounting and
/// lives in [`crate::measure`]'s per-operator charge, not in which kernel
/// runs. The context bounds operator memory; the result is bit-identical
/// under every budget.
///
/// # Errors
///
/// Returns [`ExecError`] when a base relation is missing from the database
/// or an attribute reference cannot be resolved.
pub fn execute(expr: &Arc<Expr>, db: &Database, ctx: &ExecContext) -> Result<Table, ExecError> {
    match &**expr {
        Expr::Base(name) => db
            .table(name.as_str())
            .cloned()
            .ok_or_else(|| ExecError::UnknownRelation(name.clone())),
        _ => {
            let out = exec_view(expr, db, ctx, &mut |_, _, _, _| {})?;
            Ok(Table::from_batch(op_label(expr), out.to_batch()))
        }
    }
}

/// [`execute`] for a result that is kept under `name` rather than read
/// back: it stays in the pages the plan left it in instead of being
/// gathered into one batch. A projection of a stored table so shares that
/// table's pages — pool pages under a budget — and copies nothing; every
/// other operator's output is held pages, as [`execute`]'s. The rows are
/// [`execute`]'s, bit for bit.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_shared(
    name: impl Into<RelName>,
    expr: &Arc<Expr>,
    db: &Database,
    ctx: &ExecContext,
) -> Result<Table, ExecError> {
    let pages = exec_view(expr, db, ctx, &mut |_, _, _, _| {})?;
    Ok(Table::with_pages(name, pages))
}

/// The operator glyph used as the result-table name (matches the paper's
/// notation and the row engine's historical output).
pub(crate) fn op_label(expr: &Expr) -> &'static str {
    match expr {
        Expr::Base(_) => "scan",
        Expr::Select { .. } => "σ",
        Expr::Project { .. } => "π",
        Expr::Join { .. } => "⋈",
        Expr::Aggregate { .. } => "γ",
    }
}

/// Selection kernel: one vectorised predicate pass, one gather.
pub(crate) fn select_batch(batch: &Batch, predicate: &Predicate) -> Result<Batch, ExecError> {
    let mask = selection_mask(predicate, batch)?;
    Ok(batch.filter(&mask))
}

/// Projection kernel: resolves attribute offsets once and re-shares the
/// picked columns — O(#attrs), no row movement at all.
pub(crate) fn project_batch(batch: &Batch, attrs: &[AttrRef]) -> Result<Batch, ExecError> {
    let idx: Vec<usize> = attrs
        .iter()
        .map(|a| {
            batch
                .index_of(a)
                .ok_or_else(|| ExecError::MissingAttr(a.clone()))
        })
        .collect::<Result<_, _>>()?;
    Ok(batch.select_columns(&idx))
}

/// Join kernel over two batches, every column kept: the walker's
/// [`paged::join_view`] over their columns as held pages, nothing pruned.
pub(crate) fn join_batch(
    l: &Batch,
    r: &Batch,
    on: &JoinCondition,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let (l, r) = (PagedBatch::held(l.clone()), PagedBatch::held(r.clone()));
    paged::join_view(&l, &r, on, None, ctx).map(|(out, _)| out)
}

/// The join over row indices — the same code whether the inputs' pages
/// are held or pooled: a hash join, build on the right, probe with the left.
/// Probe rows go in order and a key's build rows are kept ascending, so the
/// pairs come out `(i asc, j asc)` — the naive nested loop's output, row
/// for row. Every join runs over one `i64` key per row ([`join_keys`]):
/// exact for a single integer or dictionary pair (text-keyed joins over
/// dictionary columns never hash a string), `0` for a cross join, a row
/// hash otherwise, confirmed on the key columns.
///
/// The state is the build side's [`ChainTable`]; the probe side streams
/// through it and its key column is already materialised. A build side
/// whose table would exceed half the budget goes spill-partitioned
/// ([`grace_hash_join`]). Returns the pairs and what the join held.
fn join_indices(
    ln: usize,
    rn: usize,
    lcols: &[&Column],
    rcols: &[&Column],
    ctx: &ExecContext,
) -> Result<(Vec<usize>, Vec<usize>, Held), ExecError> {
    let keys = join_keys(lcols, rcols, ln, rn);
    let (lk, rk) = (keys.left.as_slice(), keys.right.as_slice());
    let matches = |i: usize, j: usize| lcols.iter().zip(rcols).all(|(l, r)| l.eq_at(i, r, j));
    let limit = state_limit(ctx);
    let estimate = ChainTable::bytes_for(rn);
    if estimate > limit {
        return grace_hash_join(lk, rk, keys.exact, &matches, estimate, limit);
    }
    let table = ChainTable::build(rk.iter().copied().zip(0..rn));
    debug_assert!(table.bytes() <= estimate, "chain table outgrew its bound");
    // One match per probe row is the foreign-key case; reserve for it.
    let (mut lidx, mut ridx) = (Vec::with_capacity(ln), Vec::with_capacity(ln));
    let probe = lk.iter().copied().zip(0..ln);
    table.probe(probe, keys.exact, &mut lidx, &mut ridx, matches);
    let held = Held {
        state_bytes: table.bytes(),
        spilled: false,
    };
    Ok((lidx, ridx, held))
}

/// Bytes per spilled record: an `i64` key plus a `u64` row index.
const RECORD_BYTES: usize = 16;

/// Spilled partition runs are flushed in buffers of this many bytes, so
/// scatter memory stays bounded by `partitions × SPILL_RUN_BYTES` no matter
/// how large the inputs are.
const SPILL_RUN_BYTES: usize = 64 * 1024;

/// The most state one operator may hold in memory: half the budget — it
/// shares the rest with the input pages it reads — or everything without
/// one.
fn state_limit(ctx: &ExecContext) -> usize {
    ctx.mem_budget.map_or(usize::MAX, |budget| budget / 2)
}

/// Partition count for a spilling operator whose state is estimated at
/// `state_bytes`: enough `limit`-sized shares to cover it, rounded to a
/// power of two so [`partition_of`]'s top-bit radix applies, clamped to
/// keep per-partition buffers sane. A partition that still holds more than
/// `limit` — skewed keys, or the clamp — is cut further where it is
/// processed. Nothing downstream depends on the count: the order-restoring
/// merges make results identical at any partition count.
fn spill_partitions(state_bytes: usize, limit: usize) -> usize {
    state_bytes
        .div_ceil(limit.max(1))
        .next_power_of_two()
        .clamp(2, 256)
}

/// The most entries a table can take while `bytes_for` of them stays
/// within `limit` — at least one, the unit no partitioning can split.
/// `bytes_for` must be monotone.
fn entries_within(limit: usize, bytes_for: impl Fn(usize) -> usize) -> usize {
    let (mut lo, mut hi) = (1usize, 2usize);
    while bytes_for(hi) <= limit {
        lo = hi;
        hi *= 2;
    }
    // bytes_for(lo) ≤ limit (or lo = 1) < bytes_for(hi): bisect.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if bytes_for(mid) <= limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn spill_error(e: std::io::Error) -> ExecError {
    ExecError::Spill(e.to_string())
}

/// Scatters `(key, row)` records — row `i` keyed by the `i`-th of `keys` —
/// into per-partition runs on `store`, one buffered sequential pass. Each
/// record is [`RECORD_BYTES`]: key as `i64` LE then row index as `u64` LE.
/// Because the pass is sequential, every partition's concatenated runs hold
/// its rows in ascending row order — the property the order-restoring
/// merges rely on.
fn scatter_raw_keys(
    keys: impl Iterator<Item = i64>,
    store: &crate::storage::SpillStore,
    parts: usize,
    shift: u32,
) -> Result<Vec<Vec<(u64, u64)>>, ExecError> {
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); parts];
    let mut runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parts];
    for (i, k) in keys.enumerate() {
        let p = partition_of(k, shift);
        bufs[p].extend_from_slice(&k.to_le_bytes());
        bufs[p].extend_from_slice(&(i as u64).to_le_bytes());
        if bufs[p].len() >= SPILL_RUN_BYTES {
            runs[p].push(store.write(&bufs[p]).map_err(spill_error)?);
            bufs[p].clear();
        }
    }
    for (p, buf) in bufs.iter().enumerate() {
        if !buf.is_empty() {
            runs[p].push(store.write(buf).map_err(spill_error)?);
        }
    }
    Ok(runs)
}

/// Reads one partition's `(key, row)` records back in run (= row) order.
fn read_raw_records(
    store: &crate::storage::SpillStore,
    runs: &[(u64, u64)],
) -> Result<Vec<(i64, usize)>, ExecError> {
    let mut records = Vec::new();
    for &(offset, len) in runs {
        let bytes = store.read(offset, len).map_err(spill_error)?;
        for rec in bytes.chunks_exact(RECORD_BYTES) {
            let key = i64::from_le_bytes(rec[..8].try_into().expect("8-byte key"));
            let row = u64::from_le_bytes(rec[8..].try_into().expect("8-byte row index"));
            records.push((key, row as usize));
        }
    }
    Ok(records)
}

/// Grace (spill-partitioned) hash join, used when the build side's
/// [`ChainTable`] (estimated at `estimate` bytes) would exceed `limit`.
///
/// Both sides scatter `(key, row)` records into radix partitions on an
/// operator-local [`crate::storage::SpillStore`] file, as many as it takes
/// for one partition's table to fit `limit`. Each partition then builds and
/// probes in memory on its own — in build-side chunks of as many entries
/// as fit `limit` when its keys are skewed past that, each chunk probed by
/// all of the partition's probe rows. A key lives in exactly one partition,
/// and a partition's chunks hold ascending build rows, so chunk by chunk
/// the pairs are the sequential join's pairs for that partition's probe
/// rows, probe rows ascending. The final merge walks probe rows `i = 0..ln`
/// and drains partition `partition_of(lk[i])`'s chunk cursors in chunk
/// order while they still point at `i` — reproducing the sequential probe
/// order bit-for-bit at any partition count and chunk size. What it held is
/// its largest chunk's table.
fn grace_hash_join(
    lk: &[i64],
    rk: &[i64],
    exact: bool,
    matches: &impl Fn(usize, usize) -> bool,
    estimate: usize,
    limit: usize,
) -> Result<(Vec<usize>, Vec<usize>, Held), ExecError> {
    let parts = spill_partitions(estimate, limit);
    let shift = 64 - parts.trailing_zeros();
    let chunk = entries_within(limit, ChainTable::bytes_for);
    let store = crate::storage::SpillStore::create().map_err(spill_error)?;
    let right_runs = scatter_raw_keys(rk.iter().copied(), &store, parts, shift)?;
    let left_runs = scatter_raw_keys(lk.iter().copied(), &store, parts, shift)?;

    // Per partition, per build chunk: its (probe row, build row) pairs,
    // probe rows ascending.
    type Pairs = (Vec<usize>, Vec<usize>);
    let mut part_pairs: Vec<Vec<Pairs>> = Vec::with_capacity(parts);
    let mut held = Held {
        state_bytes: 0,
        spilled: true,
    };
    for p in 0..parts {
        let build = read_raw_records(&store, &right_runs[p])?;
        let probe = read_raw_records(&store, &left_runs[p])?;
        let mut chunks = Vec::new();
        if !probe.is_empty() {
            for entries in build.chunks(chunk) {
                let table = ChainTable::build(entries.iter().copied());
                held.hold(table.bytes());
                let mut pairs: Pairs = (Vec::new(), Vec::new());
                let records = probe.iter().copied();
                table.probe(records, exact, &mut pairs.0, &mut pairs.1, matches);
                chunks.push(pairs);
            }
        }
        part_pairs.push(chunks);
    }

    let total: usize = part_pairs.iter().flatten().map(|(l, _)| l.len()).sum();
    let (mut lidx, mut ridx) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let mut cursors: Vec<Vec<usize>> = part_pairs.iter().map(|c| vec![0; c.len()]).collect();
    for (i, k) in lk.iter().enumerate() {
        let p = partition_of(*k, shift);
        for ((pl, pr), at) in part_pairs[p].iter().zip(&mut cursors[p]) {
            while pl.get(*at) == Some(&i) {
                lidx.push(i);
                ridx.push(pr[*at]);
                *at += 1;
            }
        }
    }
    Ok((lidx, ridx, held))
}

/// Radix partition of a raw key: a multiplicative (Fibonacci) hash keeps
/// the top bits well-mixed, and the top `log2(partitions)` bits pick the
/// partition.
fn partition_of(key: i64, shift: u32) -> usize {
    (((key as u64).wrapping_mul(IntHasher::MUL)) >> shift) as usize
}

/// Hash-aggregation kernel, in two passes over typed columns. Pass 1
/// ([`assign_group_ids`]) gives every row a dense group id; pass 2
/// ([`GroupStates::fold`]) runs one loop per aggregate that folds the input
/// column into per-group accumulators, computing only what that aggregate
/// reads. [`GroupOutput`] then lays the finished groups out and sorts them
/// by key, so the output does not depend on which schedule built them: one
/// call of each pass over all rows, or one per spill partition
/// ([`aggregate_spill`]).
///
/// The state is the group table with each group's representative row and
/// accumulators. Before building it the kernel bounds it
/// ([`GroupKeys::state_bound`]) for [`group_cardinality_hint`] groups —
/// tight for a dictionary key, the row count for integer or text keys, so a
/// wide γ over those still spills — and goes spill-partitioned when the
/// bound exceeds half the budget. Returns the result and what the
/// aggregation held.
pub(crate) fn aggregate_batch(
    batch: &Batch,
    group_by: &[AttrRef],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<(Batch, Held), ExecError> {
    let gcols: Vec<&Column> = group_by
        .iter()
        .map(|a| {
            batch
                .index_of(a)
                .map(|i| batch.column(i))
                .ok_or_else(|| ExecError::MissingAttr(a.clone()))
        })
        .collect::<Result<_, _>>()?;
    let acols: Vec<Option<&Column>> = aggs
        .iter()
        .map(|a| match &a.input {
            Some(attr) => batch
                .index_of(attr)
                .map(|i| Some(batch.column(i)))
                .ok_or_else(|| ExecError::MissingAttr(attr.clone())),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;

    let rows = batch.rows();
    let keys = GroupKeys::new(&gcols, rows);
    let per_group = GroupStates::new(aggs, &acols).group_bytes();
    let estimate = keys.state_bound(group_cardinality_hint(&gcols, rows), per_group);
    let limit = state_limit(ctx);
    let mut out = GroupOutput::new(group_by, aggs, &gcols);
    let held = if estimate > limit {
        aggregate_spill(&keys, aggs, &acols, per_group, &mut out, estimate, limit)?
    } else {
        let groups = group_rows(&keys, 0..rows, usize::MAX, aggs, &acols)
            .expect("an unbounded group table takes every group");
        debug_assert!(groups.state_bytes() <= estimate, "γ outgrew its bound");
        out.emit(&groups);
        Held {
            state_bytes: groups.state_bytes(),
            spilled: false,
        }
    };
    Ok((out.finish(), held))
}

/// The grouping of one aggregation: its columns and one key per row (see
/// [`group_keys`]).
struct GroupKeys<'a> {
    cols: &'a [&'a Column],
    per_row: GroupKeyRows<'a>,
    /// Equal keys are equal groups; otherwise a key match is confirmed on
    /// `cols`.
    exact: bool,
    /// Rows of the input.
    len: usize,
}

impl<'a> GroupKeys<'a> {
    /// The grouping of `len` rows over `cols`.
    fn new(cols: &'a [&'a Column], len: usize) -> Self {
        let (per_row, exact) = group_keys(cols, len);
        Self {
            cols,
            per_row,
            exact,
            len,
        }
    }

    /// The dictionary size when pass 1 over `rows` rows indexes a direct
    /// table by code: a single dictionary key whose dictionary is no larger
    /// than those rows, and no larger than `limit` groups.
    fn direct(&self, rows: usize, limit: usize) -> Option<usize> {
        match self.per_row {
            GroupKeyRows::Codes { dict_len, .. } if dict_len <= rows.min(limit) => Some(dict_len),
            _ => None,
        }
    }

    /// Whether rows `a` and `b` hold the same group key.
    fn same(&self, a: usize, b: usize) -> bool {
        self.exact || self.cols.iter().all(|c| c.eq_at(a, c, b))
    }

    /// An upper bound on [`Grouped::state_bytes`] over the whole input for
    /// `groups` — the [`group_cardinality_hint`] pass 1 sizes its table by —
    /// with accumulators of `per_group` bytes a group: one code slot, one
    /// representative and the accumulators a group for the direct table
    /// (whose dictionary then has exactly `groups` entries), the hashed
    /// bound otherwise.
    fn state_bound(&self, groups: usize, per_group: usize) -> usize {
        match self.direct(self.len, usize::MAX) {
            Some(_) => groups * (size_of::<u32>() + size_of::<usize>() + per_group),
            None => hashed_state_bound(groups, per_group),
        }
    }
}

/// An upper bound on [`Grouped::state_bytes`] for a hash table sized for
/// `groups` groups, whose accumulators take `per_group` bytes a group: the
/// map, and per group a collision link, a representative and the
/// accumulators, each by the capacity [`assign_group_ids`] and
/// [`GroupStates::fold`] give them. A direct table of at most `groups`
/// codes holds less.
fn hashed_state_bound(groups: usize, per_group: usize) -> usize {
    map_slots_bound(groups) * slot_bytes::<i64, u32>()
        + groups * (size_of::<u32>() + size_of::<usize>() + per_group)
}

/// Table slot of a key no row has shown yet.
const NO_GROUP: u32 = u32::MAX;

/// The group ids pass 1 assigned: one per row, each group's first row, and
/// the bytes of the table that assigned them.
struct GroupIds {
    gids: Vec<u32>,
    reps: Vec<usize>,
    table_bytes: usize,
}

/// Pass 1 of aggregation — the one place group ids are assigned. Returns a
/// dense group id per row of `rows`, numbering groups in first-appearance
/// order, with each group's first row; or `None`, as soon as `rows` show
/// more than `limit` groups.
///
/// A single dictionary key whose dictionary is no larger than the input
/// (and than `limit`) indexes a direct table by code; any other key looks
/// its row key up in a map under the engine's integer hasher, chaining the
/// groups whose hashed keys collide. The choice reads the columns, never a
/// setting, and does not show in the ids.
fn assign_group_ids(
    keys: &GroupKeys<'_>,
    rows: impl ExactSizeIterator<Item = usize>,
    limit: usize,
) -> Option<GroupIds> {
    if let (GroupKeyRows::Codes { codes, .. }, Some(dict_len)) =
        (&keys.per_row, keys.direct(rows.len(), limit))
    {
        let mut table = vec![NO_GROUP; dict_len];
        let mut reps = Vec::with_capacity(dict_len);
        let gids = rows
            .map(|i| {
                let slot = &mut table[codes[i] as usize];
                if *slot == NO_GROUP {
                    *slot = reps.len() as u32;
                    reps.push(i);
                }
                *slot
            })
            .collect();
        let table_bytes = table.capacity() * size_of::<u32>();
        return Some(GroupIds {
            gids,
            reps,
            table_bytes,
        });
    }
    match &keys.per_row {
        GroupKeyRows::Ints(v) => assign_hashed(keys, |i| v[i], rows, limit),
        GroupKeyRows::Codes { codes, .. } => {
            assign_hashed(keys, |i| i64::from(codes[i]), rows, limit)
        }
        GroupKeyRows::Owned(v) => assign_hashed(keys, |i| v[i], rows, limit),
    }
}

/// [`assign_group_ids`] through a map from a row's key to the first group
/// with it; groups whose keys share a hash but differ on the columns are
/// chained through `next`. `key` is monomorphised per key representation.
/// The table is sized once for the most groups the rows can show (at most
/// `limit`), so it never rehashes.
fn assign_hashed(
    keys: &GroupKeys<'_>,
    key: impl Fn(usize) -> i64,
    rows: impl ExactSizeIterator<Item = usize>,
    limit: usize,
) -> Option<GroupIds> {
    let hint = group_cardinality_hint(keys.cols, rows.len()).min(limit);
    let mut heads: IntMap<i64, u32> = IntMap::with_capacity_and_hasher(hint, Default::default());
    let (mut reps, mut next) = (Vec::with_capacity(hint), Vec::with_capacity(hint));
    let mut gids = Vec::with_capacity(rows.len());
    for i in rows {
        let head = heads.get(&key(i)).copied();
        let mut g = head.unwrap_or(NO_GROUP);
        let mut last = NO_GROUP;
        while g != NO_GROUP && !keys.same(reps[g as usize], i) {
            last = g;
            g = next[g as usize];
        }
        if g == NO_GROUP {
            if reps.len() == limit {
                return None;
            }
            assert!(reps.len() < NO_GROUP as usize, "group ids are u32");
            g = reps.len() as u32;
            reps.push(i);
            next.push(NO_GROUP);
            match last {
                NO_GROUP => {
                    heads.insert(key(i), g);
                }
                at => next[at as usize] = g,
            }
        }
        gids.push(g);
    }
    let table_bytes =
        heads.capacity() * slot_bytes::<i64, u32>() + next.capacity() * size_of::<u32>();
    Some(GroupIds {
        gids,
        reps,
        table_bytes,
    })
}

/// The groups of one set of rows: what passes 1 and 2 hold for them.
struct Grouped<'a> {
    reps: Vec<usize>,
    states: GroupStates<'a>,
    table_bytes: usize,
}

impl Grouped<'_> {
    /// The aggregation's state, by capacity: the group table, the
    /// representatives and the accumulators.
    fn state_bytes(&self) -> usize {
        self.table_bytes + self.reps.capacity() * size_of::<usize>() + self.states.bytes()
    }
}

/// Passes 1 and 2 over `rows`, or `None` when they show more than `limit`
/// groups.
fn group_rows<'a>(
    keys: &GroupKeys<'_>,
    rows: impl ExactSizeIterator<Item = usize> + Clone,
    limit: usize,
    aggs: &[AggExpr],
    acols: &[Option<&'a Column>],
) -> Option<Grouped<'a>> {
    let ids = assign_group_ids(keys, rows.clone(), limit)?;
    let mut states = GroupStates::new(aggs, acols);
    states.fold(rows, &ids.gids, ids.reps.len());
    Some(Grouped {
        reps: ids.reps,
        states,
        table_bytes: ids.table_bytes,
    })
}

/// How one aggregate accumulates: only what its [`AggFunc`] reads.
enum Acc<'a> {
    /// `COUNT`, of anything: reads the shared per-group row counts.
    Count,
    /// `SUM`/`AVG`/`MIN`/`MAX` over an `Int` or `Date` column: one `i64`
    /// per group, folded over the column's storage; `wrap` re-types the
    /// finished value (`MIN`/`MAX` of dates are dates, sums are integers).
    Ints {
        vals: &'a [i64],
        fold: IntFold,
        wrap: fn(i64) -> Value,
        acc: Vec<i64>,
    },
    /// Text, mixed or absent input: the row-at-a-time fallback.
    Rows {
        col: Option<&'a Column>,
        states: Vec<AggState>,
    },
}

/// The three folds of an `i64` accumulator.
#[derive(Debug, Clone, Copy)]
enum IntFold {
    /// Wrapping addition (`SUM`, `AVG`).
    Sum,
    Min,
    Max,
}

impl IntFold {
    /// What a group that has seen no row holds.
    fn identity(self) -> i64 {
        match self {
            IntFold::Sum => 0,
            IntFold::Min => i64::MAX,
            IntFold::Max => i64::MIN,
        }
    }

    /// `acc[gids[k]] ∘= vals[rows[k]]` for every `k` — the typed inner loop
    /// of pass 2. One monomorphic loop per fold.
    fn run(self, acc: &mut [i64], vals: &[i64], rows: impl Iterator<Item = usize>, gids: &[u32]) {
        fn each(
            acc: &mut [i64],
            vals: &[i64],
            rows: impl Iterator<Item = usize>,
            gids: &[u32],
            f: impl Fn(i64, i64) -> i64,
        ) {
            for (i, &g) in rows.zip(gids) {
                let a = &mut acc[g as usize];
                *a = f(*a, vals[i]);
            }
        }
        match self {
            IntFold::Sum => each(acc, vals, rows, gids, i64::wrapping_add),
            IntFold::Min => each(acc, vals, rows, gids, i64::min),
            IntFold::Max => each(acc, vals, rows, gids, i64::max),
        }
    }
}

/// Pass 2 of aggregation: per-group accumulators, one [`Acc`] per aggregate
/// plus the row counts `COUNT` and `AVG` share.
struct GroupStates<'a> {
    /// Rows per group; maintained only when an aggregate reads it.
    counts: Option<Vec<i64>>,
    accs: Vec<Acc<'a>>,
}

impl<'a> GroupStates<'a> {
    fn new(aggs: &[AggExpr], acols: &[Option<&'a Column>]) -> Self {
        let accs = aggs
            .iter()
            .zip(acols)
            .map(|(agg, col)| {
                let (vals, wrap): (&[i64], fn(i64) -> Value) = match (agg.func, col) {
                    (AggFunc::Count, _) => return Acc::Count,
                    (_, Some(Column::Int(v))) => (v, Value::Int),
                    (AggFunc::Min | AggFunc::Max, Some(Column::Date(v))) => (v, Value::Date),
                    (_, Some(Column::Date(v))) => (v, Value::Int),
                    _ => {
                        return Acc::Rows {
                            col: *col,
                            states: Vec::new(),
                        }
                    }
                };
                let fold = match agg.func {
                    AggFunc::Min => IntFold::Min,
                    AggFunc::Max => IntFold::Max,
                    _ => IntFold::Sum,
                };
                Acc::Ints {
                    vals,
                    fold,
                    wrap,
                    acc: Vec::new(),
                }
            })
            .collect();
        let counted = aggs
            .iter()
            .any(|a| matches!(a.func, AggFunc::Count | AggFunc::Avg));
        Self {
            counts: counted.then(Vec::new),
            accs,
        }
    }

    /// Bytes one group's accumulators take.
    fn group_bytes(&self) -> usize {
        let counts = self.counts.as_ref().map_or(0, |_| size_of::<i64>());
        let accs: usize = self
            .accs
            .iter()
            .map(|acc| match acc {
                Acc::Count => 0,
                Acc::Ints { .. } => size_of::<i64>(),
                Acc::Rows { .. } => size_of::<AggState>(),
            })
            .sum();
        counts + accs
    }

    /// Bytes the accumulators hold, by capacity.
    fn bytes(&self) -> usize {
        let counts = self
            .counts
            .as_ref()
            .map_or(0, |c| c.capacity() * size_of::<i64>());
        let accs: usize = self
            .accs
            .iter()
            .map(|acc| match acc {
                Acc::Count => 0,
                Acc::Ints { acc, .. } => acc.capacity() * size_of::<i64>(),
                Acc::Rows { states, .. } => states.capacity() * size_of::<AggState>(),
            })
            .sum();
        counts + accs
    }

    /// Sizes every accumulator for exactly `n_groups` groups, each at its
    /// fold's identity.
    fn grow(&mut self, n_groups: usize) {
        fn sized<T: Clone>(v: &mut Vec<T>, n: usize, identity: T) {
            v.reserve_exact(n.saturating_sub(v.len()));
            v.resize(n, identity);
        }
        if let Some(counts) = &mut self.counts {
            sized(counts, n_groups, 0);
        }
        for acc in &mut self.accs {
            match acc {
                Acc::Count => {}
                Acc::Ints { fold, acc, .. } => sized(acc, n_groups, fold.identity()),
                Acc::Rows { states, .. } => sized(states, n_groups, AggState::default()),
            }
        }
    }

    /// Folds `rows` into the groups `gids` assigns them (`gids[k]` is the
    /// group of the `k`-th of `rows`, below `n_groups`).
    fn fold(&mut self, rows: impl Iterator<Item = usize> + Clone, gids: &[u32], n_groups: usize) {
        self.grow(n_groups);
        if let Some(counts) = &mut self.counts {
            for &g in gids {
                counts[g as usize] += 1;
            }
        }
        for acc in &mut self.accs {
            match acc {
                Acc::Count => {}
                Acc::Ints {
                    vals, fold, acc, ..
                } => fold.run(acc, vals, rows.clone(), gids),
                Acc::Rows { col, states } => {
                    for (i, &g) in rows.clone().zip(gids) {
                        states[g as usize].feed(col.map(|c| c.value(i)));
                    }
                }
            }
        }
    }

    /// The finished value of aggregate `a` (computing `func`) for group `g`.
    fn finish(&self, g: usize, a: usize, func: AggFunc) -> Value {
        let count = || self.counts.as_ref().expect("COUNT/AVG keep counts")[g];
        match &self.accs[a] {
            Acc::Count => Value::Int(count()),
            // A group holds at least one row, so the divisor is positive.
            Acc::Ints { acc, .. } if func == AggFunc::Avg => Value::Int(acc[g] / count()),
            Acc::Ints { acc, wrap, .. } => wrap(acc[g]),
            Acc::Rows { states, .. } => states[g].finish(func),
        }
    }
}

/// A γ's result as its groups finish: each group's key (its representative
/// row of the key columns) and finished values, in emission order — the
/// shared tail of every aggregation schedule. Distinct groups have distinct
/// keys, so [`GroupOutput::finish`]'s key-order sort has a unique total
/// order and the output does not depend on which schedule — or which
/// partitioning — produced the groups. The output is not state: it is what
/// the operator returns.
struct GroupOutput<'a> {
    aggs: &'a [AggExpr],
    gcols: &'a [&'a Column],
    attrs: Vec<AttrRef>,
    reps: Vec<usize>,
    columns: Vec<Column>,
    /// How many times [`GroupOutput::emit`] ran.
    emissions: usize,
}

impl<'a> GroupOutput<'a> {
    fn new(group_by: &[AttrRef], aggs: &'a [AggExpr], gcols: &'a [&'a Column]) -> Self {
        let mut attrs = group_by.to_vec();
        attrs.extend(aggs.iter().map(|a| a.output_attr()));
        let columns = attrs.iter().map(|_| Column::empty()).collect();
        Self {
            aggs,
            gcols,
            attrs,
            reps: Vec::new(),
            columns,
            emissions: 0,
        }
    }

    /// Key order of two rows of the key columns.
    fn cmp_keys(&self, a: usize, b: usize) -> std::cmp::Ordering {
        self.gcols
            .iter()
            .map(|c| c.cmp_at(a, c, b))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// Appends `groups`' finished groups, in key order. A single integer
    /// or date key sorts by its `i64`; distinct groups have distinct keys,
    /// so the order is total either way.
    fn emit(&mut self, groups: &Grouped<'_>) {
        let reps = &groups.reps;
        let mut order: Vec<usize> = (0..reps.len()).collect();
        match self.gcols {
            [Column::Int(keys) | Column::Date(keys)] => {
                order.sort_unstable_by_key(|&g| keys[reps[g]]);
            }
            _ => order.sort_by(|&x, &y| self.cmp_keys(reps[x], reps[y])),
        }
        self.emissions += 1;
        let width = self.gcols.len();
        for g in order {
            for (col, gc) in self.columns.iter_mut().zip(self.gcols) {
                col.push(gc.value(reps[g]));
            }
            for (a, (col, agg)) in self.columns[width..].iter_mut().zip(self.aggs).enumerate() {
                col.push(groups.states.finish(g, a, agg.func));
            }
            self.reps.push(reps[g]);
        }
    }

    /// The result, every group in key order. One emission is in order
    /// already; several (spill partitions) are sorted together.
    fn finish(self) -> Batch {
        let columns = if self.emissions <= 1 {
            self.columns
        } else {
            let mut order: Vec<usize> = (0..self.reps.len()).collect();
            order.sort_by(|&x, &y| self.cmp_keys(self.reps[x], self.reps[y]));
            if order.iter().enumerate().all(|(k, &g)| k == g) {
                self.columns
            } else {
                self.columns.iter().map(|c| c.gather(&order)).collect()
            }
        };
        Batch::new(self.attrs, columns.into_iter().map(Arc::new).collect())
    }
}

/// Spill-partitioned hash aggregation, used when the group table's bound
/// (`estimate`) exceeds `limit`.
///
/// One buffered sequential pass scatters `(key, row)` records into radix
/// partitions on an operator-local spill file — as many as it takes for
/// one partition's groups to fit `limit` — so each partition's rows come
/// back in ascending order. Every group key lives in exactly one partition,
/// so running both passes over one partition's rows at a time — the very
/// [`group_rows`] the in-memory schedule runs, with its table and
/// accumulators dropped once the partition's groups are emitted — yields
/// for each group exactly the state and first-row representative a single
/// in-memory build produces. A partition that shows more groups than fit
/// `limit` (skewed keys) is cut in four by the next bits of its keys'
/// radix hash, down to a single key if need be. What the aggregation held
/// is its largest partition's state.
fn aggregate_spill<'a>(
    keys: &GroupKeys<'_>,
    aggs: &[AggExpr],
    acols: &[Option<&'a Column>],
    per_group: usize,
    out: &mut GroupOutput<'_>,
    estimate: usize,
    limit: usize,
) -> Result<Held, ExecError> {
    let parts = spill_partitions(estimate, limit);
    let shift = 64 - parts.trailing_zeros();
    let max_groups = entries_within(limit, |g| hashed_state_bound(g, per_group));
    let store = crate::storage::SpillStore::create().map_err(spill_error)?;
    let row_keys = (0..keys.len).map(|i| keys.per_row.at(i));
    let runs = scatter_raw_keys(row_keys, &store, parts, shift)?;
    let mut held = Held {
        state_bytes: 0,
        spilled: true,
    };
    let group = &mut |groups: Grouped<'a>| {
        held.hold(groups.state_bytes());
        out.emit(&groups);
    };
    for part_runs in &runs {
        let records = read_raw_records(&store, part_runs)?;
        group_partition(keys, &records, 64 - shift, max_groups, aggs, acols, group);
    }
    Ok(held)
}

/// Groups one spill partition's `(key, row)` records (rows ascending) and
/// hands the groups to `group` — within `limit` groups, cutting the records
/// in four by bits `used..used + 2` of their keys' radix hash whenever they
/// show more. Distinct exact keys have distinct radix hashes, so the cuts
/// end at single keys; past the hash's last bits, the table takes what
/// comes.
fn group_partition<'a>(
    keys: &GroupKeys<'_>,
    records: &[(i64, usize)],
    used: u32,
    limit: usize,
    aggs: &[AggExpr],
    acols: &[Option<&'a Column>],
    group: &mut impl FnMut(Grouped<'a>),
) {
    if records.is_empty() {
        return;
    }
    let limit_here = if used < 62 { limit } else { usize::MAX };
    let rows = records.iter().map(|&(_, i)| i);
    match group_rows(keys, rows, limit_here, aggs, acols) {
        Some(groups) => group(groups),
        None => {
            let mut quarters: [Vec<(i64, usize)>; 4] = Default::default();
            for &(key, i) in records {
                let q = ((key as u64).wrapping_mul(IntHasher::MUL) << used) >> 62;
                quarters[q as usize].push((key, i));
            }
            for quarter in &quarters {
                group_partition(keys, quarter, used + 2, limit, aggs, acols, group);
            }
        }
    }
}

/// Computes `definition` and stores the result under `name`, so later
/// queries rewritten against the view (see `mvdesign-core`'s `ViewCatalog`)
/// can read it as a base table. The stored table keeps the definition's
/// qualified attributes and its columnar layout — no row materialization.
/// Like [`execute`], the stored view is bit-identical under every memory
/// budget; the paper's nested-loop discipline is [`crate::measure`]'s
/// charge for building it, not the kernel that does.
///
/// # Errors
///
/// Propagates [`ExecError`] from evaluating the definition.
pub fn materialize_view(
    name: impl Into<RelName>,
    definition: &Arc<Expr>,
    db: &mut Database,
    ctx: &ExecContext,
) -> Result<(), ExecError> {
    let result = execute(definition, db, ctx)?;
    db.insert_table(Table::from_batch(name, result.into_batch()));
    Ok(())
}

/// Batches below this size never switch to selection-vector evaluation —
/// the bookkeeping costs more than the full-width kernels.
const SELECTION_VECTOR_MIN_ROWS: usize = 64;

/// Density denominator: evaluation switches to survivor indices once fewer
/// than `rows / SELECTION_VECTOR_DENSITY_DEN` rows remain undecided.
const SELECTION_VECTOR_DENSITY_DEN: usize = 8;

/// Evaluates `predicate` over the whole batch into a keep-mask, with
/// selection-vector short-circuiting: AND conjuncts are ordered
/// most-selective-first (estimates only — results are order-free), start
/// as full-width vectorised mask kernels, and once the surviving density
/// drops below `1/8` (on batches of at least 64 rows) the remaining
/// conjuncts evaluate only over the surviving row indices.
/// Disjunctions are handled symmetrically — once most rows are already
/// accepted, remaining disjuncts evaluate only over the still-undecided
/// rows. Predicates are pure per-row functions, so the mask is bit-identical
/// to row-at-a-time evaluation (pinned against the row reference in
/// `tests/engine_batch.rs`).
///
/// # Errors
///
/// Returns [`ExecError::MissingAttr`] when the predicate references an
/// attribute the batch does not carry.
pub fn selection_mask(predicate: &Predicate, batch: &Batch) -> Result<Vec<bool>, ExecError> {
    let mut mask = vec![true; batch.rows()];
    and_predicate_adaptive(predicate, batch, &mut mask)?;
    Ok(mask)
}

/// ANDs one comparison into `mask` with a full-width vectorised kernel.
fn and_comparison(c: &Comparison, b: &Batch, mask: &mut [bool]) -> Result<(), ExecError> {
    let li = b
        .index_of(&c.attr)
        .ok_or_else(|| ExecError::MissingAttr(c.attr.clone()))?;
    match &c.rhs {
        Rhs::Literal(v) => b.column(li).compare_literal_and(c.op, v, mask),
        Rhs::Attr(a) => {
            let ri = b
                .index_of(a)
                .ok_or_else(|| ExecError::MissingAttr(a.clone()))?;
            b.column(li).compare_column_and(c.op, b.column(ri), mask);
        }
    }
    Ok(())
}

/// ANDs `p`'s value into `mask`, starting with full-width kernels and
/// switching to survivor-index (selection-vector) evaluation when density
/// drops.
fn and_predicate_adaptive(p: &Predicate, b: &Batch, mask: &mut [bool]) -> Result<(), ExecError> {
    let rows = mask.len();
    match p {
        Predicate::True => Ok(()),
        Predicate::Cmp(c) => and_comparison(c, b, mask),
        Predicate::And(ps) => {
            // Conjunct intersection commutes, so the evaluation order is
            // free to choose — but only after every attribute offset has
            // been resolved in the predicate's own order, which pins the
            // surfaced `MissingAttr` error to the first unresolvable
            // attribute as written — what row-at-a-time evaluation reports.
            resolve_attrs(p, b)?;
            let mut order: Vec<(f64, usize)> = ps
                .iter()
                .enumerate()
                .map(|(i, p)| (selectivity_estimate(p, b), i))
                .collect();
            order.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut idx: Option<Vec<usize>> = None;
            for (k, &(_, ci)) in order.iter().enumerate() {
                let p = &ps[ci];
                match &mut idx {
                    Some(idx) => retain_where(p, b, idx)?,
                    None => {
                        and_predicate_adaptive(p, b, mask)?;
                        if rows >= SELECTION_VECTOR_MIN_ROWS && k + 1 < ps.len() {
                            idx = sparse_indices(mask, true);
                        }
                    }
                }
            }
            if let Some(idx) = idx {
                mask.fill(false);
                for i in idx {
                    mask[i] = true;
                }
            }
            Ok(())
        }
        Predicate::Or(ps) => {
            // `any` accumulates accepted rows; once most rows are accepted,
            // the remaining disjuncts only visit the still-undecided ones.
            let mut any = vec![false; rows];
            let mut idx: Option<Vec<usize>> = None;
            for (k, p) in ps.iter().enumerate() {
                match &mut idx {
                    Some(undecided) => {
                        let mut holds = undecided.clone();
                        retain_where(p, b, &mut holds)?;
                        for &i in &holds {
                            any[i] = true;
                        }
                        undecided.retain(|&i| !any[i]);
                    }
                    None => {
                        let mut sub = vec![true; rows];
                        and_predicate_adaptive(p, b, &mut sub)?;
                        for (a, s) in any.iter_mut().zip(&sub) {
                            *a = *a || *s;
                        }
                        if rows >= SELECTION_VECTOR_MIN_ROWS && k + 1 < ps.len() {
                            idx = sparse_indices(&any, false);
                        }
                    }
                }
            }
            for (m, a) in mask.iter_mut().zip(&any) {
                *m = *m && *a;
            }
            Ok(())
        }
    }
}

/// Resolves every attribute offset in `p` — in the predicate's own
/// left-to-right order, without evaluating anything — and returns the first
/// failure. Running this before reordering conjuncts keeps the surfaced
/// error independent of the selectivity estimates that pick the order.
fn resolve_attrs(p: &Predicate, b: &Batch) -> Result<(), ExecError> {
    match p {
        Predicate::True => Ok(()),
        Predicate::Cmp(c) => {
            b.index_of(&c.attr)
                .ok_or_else(|| ExecError::MissingAttr(c.attr.clone()))?;
            if let Rhs::Attr(a) = &c.rhs {
                b.index_of(a)
                    .ok_or_else(|| ExecError::MissingAttr(a.clone()))?;
            }
            Ok(())
        }
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter().try_for_each(|p| resolve_attrs(p, b)),
    }
}

/// Estimated fraction of rows a predicate keeps, used only to order AND
/// conjuncts most-selective-first. A dictionary-encoded column carries a
/// real distinct count, so `=` on it estimates `1/|dictionary|`; everything
/// else falls back on the classic textbook constants. Estimates never touch
/// results — they only pick which conjunct gets the chance to drop the
/// evaluation into selection-vector mode first.
fn selectivity_estimate(p: &Predicate, b: &Batch) -> f64 {
    match p {
        Predicate::True => 1.0,
        Predicate::Cmp(c) => {
            let distinct = b
                .index_of(&c.attr)
                .and_then(|i| b.column(i).dict_values())
                .map(|v| v.len().max(1) as f64);
            match (&c.rhs, c.op) {
                (Rhs::Literal(_), CompareOp::Eq) => distinct.map_or(0.1, |d| 1.0 / d),
                (Rhs::Literal(_), CompareOp::Ne) => distinct.map_or(0.9, |d| 1.0 - 1.0 / d),
                _ => 1.0 / 3.0,
            }
        }
        Predicate::And(ps) => ps.iter().map(|p| selectivity_estimate(p, b)).product(),
        Predicate::Or(ps) => ps
            .iter()
            .map(|p| selectivity_estimate(p, b))
            .sum::<f64>()
            .min(1.0),
    }
}

/// The row indices whose mask entry equals `target`, or `None` as soon as
/// their count reaches the 1-in-[`SELECTION_VECTOR_DENSITY_DEN`] density
/// bound. Deciding *whether* to switch to selection-vector mode and building
/// the vector itself share this single traversal, so a batch that stays
/// dense pays at most one abandoned scan — not a count pass plus a collect
/// pass.
fn sparse_indices(mask: &[bool], target: bool) -> Option<Vec<usize>> {
    let rows = mask.len();
    let mut idx = Vec::with_capacity(rows / SELECTION_VECTOR_DENSITY_DEN + 1);
    for (i, &m) in mask.iter().enumerate() {
        if m == target {
            if (idx.len() + 1) * SELECTION_VECTOR_DENSITY_DEN >= rows {
                return None;
            }
            idx.push(i);
        }
    }
    Some(idx)
}

/// Keeps the rows of `idx` where `p` holds — predicate evaluation in
/// selection-vector mode over batch row indices. Attribute
/// offsets resolve once per comparison (never per row), and the scalar
/// column kernels agree bit-for-bit with their vectorised twins.
fn retain_where(p: &Predicate, b: &Batch, idx: &mut Vec<usize>) -> Result<(), ExecError> {
    match p {
        Predicate::True => Ok(()),
        Predicate::Cmp(c) => {
            let li = b
                .index_of(&c.attr)
                .ok_or_else(|| ExecError::MissingAttr(c.attr.clone()))?;
            match &c.rhs {
                Rhs::Literal(v) => {
                    let col = b.column(li);
                    idx.retain(|&i| col.literal_holds_at(c.op, v, i));
                }
                Rhs::Attr(a) => {
                    let ri = b
                        .index_of(a)
                        .ok_or_else(|| ExecError::MissingAttr(a.clone()))?;
                    let (lc, rc) = (b.column(li), b.column(ri));
                    idx.retain(|&i| lc.column_holds_at(c.op, rc, i));
                }
            }
            Ok(())
        }
        Predicate::And(ps) => {
            for p in ps {
                retain_where(p, b, idx)?;
            }
            Ok(())
        }
        Predicate::Or(ps) => {
            let mut undecided = std::mem::take(idx);
            let mut accepted = Vec::new();
            for p in ps {
                let mut holds = undecided.clone();
                retain_where(p, b, &mut holds)?;
                if !holds.is_empty() {
                    let hold_set: std::collections::HashSet<usize> =
                        holds.iter().copied().collect();
                    undecided.retain(|i| !hold_set.contains(i));
                    accepted.extend(holds);
                }
            }
            accepted.sort_unstable();
            *idx = accepted;
            Ok(())
        }
    }
}

/// Running aggregate state for one group and one aggregate over a column
/// with no `&[i64]` storage — [`Acc::Rows`], the row-at-a-time fallback.
/// `SUM` wraps on overflow, like the typed path (see `AggFunc::Sum`).
#[derive(Debug, Clone, Default)]
struct AggState {
    count: i64,
    sum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Folds one row's value in (`None` for `COUNT(*)`).
    fn feed(&mut self, value: Option<Value>) {
        self.count += 1;
        if let Some(v) = value {
            // Numeric folding treats dates as their day numbers; text
            // contributes only to COUNT/MIN/MAX.
            match &v {
                Value::Int(i) | Value::Date(i) => self.sum = self.sum.wrapping_add(*i),
                Value::Text(_) => {}
            }
            if self.min.as_ref().is_none_or(|m| v < *m) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v > *m) {
                self.max = Some(v);
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => Value::Int(self.sum),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Int(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Int(0)),
            AggFunc::Avg => Value::Int(if self.count > 0 {
                self.sum / self.count
            } else {
                0
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{parse_query, CompareOp, JoinCondition};

    /// Runs `e` under the default context.
    fn run(e: &Arc<Expr>, db: &Database) -> Result<Table, ExecError> {
        execute(e, db, &ExecContext::default())
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_table(Table::new(
            "Pd",
            [
                AttrRef::new("Pd", "Pid"),
                AttrRef::new("Pd", "name"),
                AttrRef::new("Pd", "Did"),
            ],
            vec![
                vec![Value::Int(1), Value::text("widget"), Value::Int(10)],
                vec![Value::Int(2), Value::text("gadget"), Value::Int(20)],
                vec![Value::Int(3), Value::text("sprocket"), Value::Int(10)],
            ],
        ));
        db.insert_table(Table::new(
            "Div",
            [
                AttrRef::new("Div", "Did"),
                AttrRef::new("Div", "name"),
                AttrRef::new("Div", "city"),
            ],
            vec![
                vec![Value::Int(10), Value::text("west"), Value::text("LA")],
                vec![Value::Int(20), Value::text("east"), Value::text("NY")],
            ],
        ));
        db
    }

    #[test]
    fn paper_query1_shape_executes() {
        let q = parse_query("SELECT Pd.name FROM Pd, Div WHERE Div.city='LA' AND Pd.Did=Div.Did")
            .unwrap();
        let out = run(&q, &db()).unwrap();
        let mut names: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
        names.sort();
        assert_eq!(names, ["'sprocket'", "'widget'"]);
    }

    /// A kept projection of a pooled table is the table's own pool pages
    /// (the pool gains no frame); a kept selection is held. Both hold
    /// [`execute`]'s rows.
    #[test]
    fn a_kept_projection_shares_its_tables_pages() {
        let mut db = db();
        let pool = crate::BufferPool::new(Some(1 << 20));
        db.rehome(Some(&pool), 2);
        let ctx = ExecContext::default();
        let frames = pool.stats().pages;
        let projection = Expr::project(Expr::base("Pd"), [AttrRef::new("Pd", "name")]);
        let kept = execute_shared("kept", &projection, &db, &ctx).unwrap();
        assert_eq!(kept.name().as_str(), "kept");
        assert!(kept.pool().is_some_and(|home| Arc::ptr_eq(home, &pool)));
        assert_eq!(pool.stats().pages, frames, "a projection copies no page");
        assert_eq!(kept.rows(), run(&projection, &db).unwrap().rows());
        let selection = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        let kept = execute_shared("kept", &selection, &db, &ctx).unwrap();
        assert!(kept.pool().is_none());
        assert_eq!(kept.rows(), run(&selection, &db).unwrap().rows());
    }

    #[test]
    fn select_filters_rows() {
        let e = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
        );
        assert_eq!(run(&e, &db()).unwrap().len(), 1);
    }

    #[test]
    fn join_is_bag_nested_loop() {
        let e = Expr::join(
            Expr::base("Pd"),
            Expr::base("Div"),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        );
        let out = run(&e, &db()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.attrs().len(), 6);
    }

    #[test]
    fn cross_join_multiplies() {
        let e = Expr::join(Expr::base("Pd"), Expr::base("Div"), JoinCondition::cross());
        assert_eq!(run(&e, &db()).unwrap().len(), 6);
    }

    #[test]
    fn projection_keeps_duplicates() {
        let e = Expr::project(Expr::base("Pd"), [AttrRef::new("Pd", "Did")]);
        let out = run(&e, &db()).unwrap();
        assert_eq!(out.len(), 3); // two rows share Did=10, both kept
    }

    #[test]
    fn or_predicate() {
        let e = Expr::select(
            Expr::base("Div"),
            Predicate::or([
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "NY"),
            ]),
        );
        assert_eq!(run(&e, &db()).unwrap().len(), 2);
    }

    #[test]
    fn attr_vs_attr_comparison() {
        let e = Expr::select(
            Expr::base("Pd"),
            Predicate::Cmp(mvdesign_algebra::Comparison {
                attr: AttrRef::new("Pd", "Pid"),
                op: CompareOp::Lt,
                rhs: Rhs::Attr(AttrRef::new("Pd", "Did")),
            }),
        );
        assert_eq!(run(&e, &db()).unwrap().len(), 3);
    }

    #[test]
    fn missing_relation_errors() {
        let e = Expr::base("Ghost");
        assert!(matches!(run(&e, &db()), Err(ExecError::UnknownRelation(_))));
    }

    #[test]
    fn missing_attr_errors() {
        let e = Expr::project(Expr::base("Pd"), [AttrRef::new("Pd", "ghost")]);
        assert!(matches!(run(&e, &db()), Err(ExecError::MissingAttr(_))));
    }

    #[test]
    fn range_predicates_on_ints() {
        let e = Expr::select(
            Expr::base("Pd"),
            Predicate::cmp(AttrRef::new("Pd", "Pid"), CompareOp::Ge, 2),
        );
        assert_eq!(run(&e, &db()).unwrap().len(), 2);
    }

    #[test]
    fn projection_shares_columns_with_input() {
        // π over a base scan must not copy column data.
        let db = db();
        let base = db.table("Pd").unwrap();
        let e = Expr::project(Expr::base("Pd"), [AttrRef::new("Pd", "Did")]);
        let out = run(&e, &db).unwrap();
        assert!(Arc::ptr_eq(
            &base.batch().columns()[2],
            &out.batch().columns()[0]
        ));
    }

    #[test]
    fn mixed_type_predicate_orders_by_variant_tag() {
        // Int values compare below Text values in Value's total order; the
        // batch engine's constant fast path must preserve that.
        let mut db = Database::new();
        db.insert_table(Table::new(
            "M",
            [AttrRef::new("M", "x")],
            vec![vec![Value::Int(5)], vec![Value::text("a")]],
        ));
        let e = Expr::select(
            Expr::base("M"),
            Predicate::cmp(AttrRef::new("M", "x"), CompareOp::Lt, "zzz"),
        );
        // Int(5) < Text("zzz") by tag; Text("a") < Text("zzz") lexically.
        assert_eq!(run(&e, &db).unwrap().len(), 2);
    }
}

#[cfg(test)]
mod join_tests {
    //! The join at its edges against a nested loop written out here;
    //! `tests/engine_batch.rs` holds the randomized battery against the row
    //! reference.

    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        db.insert_table(Table::new(
            "L",
            [AttrRef::new("L", "id"), AttrRef::new("L", "k")],
            rows,
        ));
        let rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::Int(i % 7), Value::text(format!("v{}", i % 3))])
            .collect();
        db.insert_table(Table::new(
            "R",
            [AttrRef::new("R", "k"), AttrRef::new("R", "tag")],
            rows,
        ));
        db
    }

    /// `L ⋈ R` on `L.k = R.k`, or the cross product without `on_k`.
    fn join_expr(on_k: bool) -> Arc<Expr> {
        let on = if on_k {
            JoinCondition::on(AttrRef::new("L", "k"), AttrRef::new("R", "k"))
        } else {
            JoinCondition::cross()
        };
        Expr::join(Expr::base("L"), Expr::base("R"), on)
    }

    /// Executes `join_expr(on_k)` and checks it, row for row, against the
    /// naive nested loop over the two tables' rows. Returns the row count.
    fn assert_is_the_nested_loop(db: &Database, on_k: bool) -> usize {
        let (l, r) = (db.table("L").expect("L"), db.table("R").expect("R"));
        let key = |t: &Table| t.index_of(&AttrRef::new(t.name().clone(), "k")).expect("k");
        let (lk, rk) = (key(l), key(r));
        let mut expected = Vec::new();
        for lrow in l.rows() {
            for rrow in r.rows() {
                if !on_k || lrow[lk] == rrow[rk] {
                    expected.push([lrow.as_slice(), rrow.as_slice()].concat());
                }
            }
        }
        let out = execute(&join_expr(on_k), db, &ExecContext::default()).expect("executes");
        assert_eq!(out.rows(), expected);
        expected.len()
    }

    #[test]
    fn cross_products_match_the_nested_loop() {
        assert_eq!(assert_is_the_nested_loop(&db(), false), 40 * 25);
    }

    #[test]
    fn duplicate_keys_multiply_in_nested_loop_order() {
        // 40 and 25 rows over seven keys: every key repeats on both sides
        // (4 keys 6 × 4, one 6 × 3, two 5 × 3).
        assert_eq!(assert_is_the_nested_loop(&db(), true), 144);
        // Two identical keys on each side ⇒ 4 output rows.
        let mut db = Database::new();
        for name in ["L", "R"] {
            db.insert_table(Table::new(
                name,
                [AttrRef::new(name, "k"), AttrRef::new(name, "id")],
                vec![
                    vec![Value::Int(1), Value::Int(0)],
                    vec![Value::Int(1), Value::Int(1)],
                ],
            ));
        }
        assert_eq!(assert_is_the_nested_loop(&db, true), 4);
    }

    #[test]
    fn empty_inputs_yield_empty_joins() {
        for empty in ["L", "R"] {
            let mut db = db();
            let attrs = db.table(empty).expect("table").attrs().to_vec();
            db.insert_table(Table::new(empty, attrs, vec![]));
            assert_eq!(assert_is_the_nested_loop(&db, true), 0, "{empty} empty");
            assert_eq!(assert_is_the_nested_loop(&db, false), 0, "{empty} empty");
        }
    }

    #[test]
    fn text_keys_match_the_nested_loop() {
        // Row-major tables store text as plain `Text` columns: the
        // hashed-key path, each hash match confirmed on the strings.
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::text(format!("k{}", i % 5)), Value::Int(i)])
            .collect();
        db.insert_table(Table::new(
            "L",
            [AttrRef::new("L", "k"), AttrRef::new("L", "v")],
            rows,
        ));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::text(format!("k{}", i % 4))])
            .collect();
        db.insert_table(Table::new("R", [AttrRef::new("R", "k")], rows));
        assert_eq!(assert_is_the_nested_loop(&db, true), 40);
    }
}

#[cfg(test)]
mod spill_tests {
    //! The spill rule at its edges, asserted through what
    //! [`crate::measure`] reports each operator held.

    use super::*;
    use crate::OpCharge;

    /// `L(k, v)` with `ln` rows keyed `k = i mod keys`, and `R(k)` with
    /// `rn` rows keyed `j mod keys`.
    fn db(ln: i64, rn: i64, keys: i64) -> Database {
        let mut db = Database::new();
        db.insert_table(Table::new(
            "L",
            [AttrRef::new("L", "k"), AttrRef::new("L", "v")],
            (0..ln)
                .map(|i| vec![Value::Int(i % keys), Value::Int(i)])
                .collect(),
        ));
        db.insert_table(Table::new(
            "R",
            [AttrRef::new("R", "k")],
            (0..rn).map(|j| vec![Value::Int(j % keys)]).collect(),
        ));
        db
    }

    /// Measures `e` under `budget`, checks its result against the
    /// unbounded run bit for bit, and returns its charges.
    fn charges(e: &Arc<Expr>, db: &Database, budget: usize) -> Vec<OpCharge> {
        let ctx = ExecContext {
            mem_budget: Some(budget),
        };
        let (out, io) = crate::measure(e, db, 10.0, &ctx).expect("measures");
        let resident = execute(e, db, &ExecContext::default()).expect("executes");
        assert_eq!(out.batch(), resident.batch(), "bits differ at {budget} B");
        io.charges().to_vec()
    }

    fn join(left: &str, right: &str) -> Arc<Expr> {
        Expr::join(
            Expr::base(left),
            Expr::base(right),
            JoinCondition::on(AttrRef::new(left, "k"), AttrRef::new(right, "k")),
        )
    }

    /// A join is sized by its build side: 2 000 probe rows against 3 build
    /// rows stay in memory under a budget that the old `(ln + rn) × 16`
    /// rule would have spilled at. With the sides swapped the build side
    /// spills, and — its three keys skewed over 2 000 rows, far more than
    /// one partition can take — every chunk of every partition still holds
    /// at most half the budget.
    #[test]
    fn a_join_spills_by_its_build_side_and_every_chunk_fits() {
        let budget = 4096;
        assert!((2_000 + 3) * 16 > budget / 2, "the old rule spilled");
        let db = db(2_000, 3, 3);
        let [probe_big] = charges(&join("L", "R"), &db, budget)[..] else {
            panic!("one operator")
        };
        assert!(!probe_big.spilled);
        assert!(probe_big.state_bytes <= ChainTable::bytes_for(3));
        let [build_big] = charges(&join("R", "L"), &db, budget)[..] else {
            panic!("one operator")
        };
        assert!(build_big.spilled);
        assert!(build_big.state_bytes > 0);
        assert!(build_big.state_bytes <= budget / 2, "{build_big:?}");
    }

    /// A γ is sized by its group bound: a four-entry dictionary key over
    /// 5 000 rows stays in memory (the old `rows × 40` rule spilled it);
    /// the same rows keyed by a wide integer column spill, and the
    /// partitions are sized against half the budget — the threshold — so
    /// each one's group table, representatives and accumulators fit it.
    #[test]
    fn a_group_by_spills_by_its_group_bound_and_partitions_fit_half_the_budget() {
        let budget = 64 * 1024;
        let rows = 5_000usize;
        assert!(rows * 40 > budget / 2, "the old rule spilled");
        let dict: Arc<[Arc<str>]> = ["a", "b", "c", "d"].map(Arc::from).into();
        let mut db = Database::new();
        db.insert_table(Table::from_batch(
            "G",
            Batch::new(
                ["d", "i", "v"].map(|a| AttrRef::new("G", a)).to_vec(),
                vec![
                    Arc::new(Column::dict(
                        (0..rows).map(|r| (r % 4) as u32).collect(),
                        dict,
                    )),
                    Arc::new(Column::Int(
                        (0..rows as i64).map(|r| r * 7 % 4_001).collect(),
                    )),
                    Arc::new(Column::Int((0..rows as i64).collect())),
                ],
            ),
        ));
        let sum_by = |key: &str| {
            Expr::aggregate(
                Expr::base("G"),
                [AttrRef::new("G", key)],
                [AggExpr::new(AggFunc::Sum, AttrRef::new("G", "v"), "s")],
            )
        };
        let [narrow] = charges(&sum_by("d"), &db, budget)[..] else {
            panic!("one operator")
        };
        assert!(!narrow.spilled);
        assert!(narrow.state_bytes <= 1_024, "{narrow:?}");
        let [wide] = charges(&sum_by("i"), &db, budget)[..] else {
            panic!("one operator")
        };
        assert!(wide.spilled);
        assert!(wide.state_bytes > 0);
        assert!(wide.state_bytes <= budget / 2, "{wide:?}");
        // Four half-budgets of state take four partitions, not two.
        assert_eq!(spill_partitions(4 * (budget / 2), budget / 2), 4);
    }
}
