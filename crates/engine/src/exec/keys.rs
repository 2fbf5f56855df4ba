//! One `i64` key per row, shared by the hash join and hash-aggregation
//! kernels (in-memory and spill-partitioned variants alike).
//!
//! A key is **exact** when equal keys mean equal values: a single `Int` or
//! `Date` column borrows its `i64` storage, and a single dictionary column
//! contributes its codes — code equality is value equality within one
//! dictionary, and across dictionaries the right side's *entries* are
//! translated into the left code space once per batch, so text-keyed joins
//! never hash a string. Any other key — several columns, plain text, mixed
//! values — is a **hash** of the row's values ([`row_hashes`]); equal values
//! hash equal, and the kernels confirm a hash match on the columns
//! themselves ([`Column::eq_at`]). Either way every join and every group-by
//! runs over one `i64` per row, so every one can be radix-partitioned and
//! spilled.
//!
//! Every integer-keyed map in the engine hashes with [`IntHasher`] (the
//! workspace's one integer hasher, defined in `mvdesign-algebra`); the
//! hash join's build side is one [`ChainTable`]. Both report the bytes they
//! hold ([`ChainTable::bytes`]) and bound them before they are built
//! ([`ChainTable::bytes_for`]) — the currency of the engine's spill
//! decisions.

use std::hash::Hasher;
use std::mem::size_of;
use std::sync::Arc;

use mvdesign_algebra::Value;

use crate::batch::Column;

pub(crate) use mvdesign_algebra::{IntBuildHasher, IntHasher, IntMap};

/// Bytes of one slot of a map holding `(K, V)`: the entry and its control
/// byte. A map's footprint is its capacity times this.
pub(crate) const fn slot_bytes<K, V>() -> usize {
    size_of::<(K, V)>() + 1
}

/// An upper bound on the capacity of a map that was pre-sized for, or grew
/// to, `n` entries. `std`'s map keeps a power-of-two bucket count at most
/// 7/8 full (the smallest table holds 3), so it never holds more than
/// `2n` slots — pinned for every `n` below 5 000 by a unit test.
pub(crate) fn map_slots_bound(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (2 * n).max(3)
    }
}

/// End of a [`ChainTable`] chain, and the head of a key with no entry.
const NIL: u32 = u32::MAX;

/// Probe rows the branch-free probe buffers between appends: two arrays of
/// this many indexes (16 KiB) stay in the L1 cache.
const PROBE_RUN: usize = 1024;

/// Where a [`ChainTable`] keeps the head of each key's chain. Which one is
/// read off the keys ([`ChainTable::build`]), never set.
enum Heads {
    /// A compact key range: `slots[k − min]` for every `k` in `min..=max`,
    /// then one sentinel slot, always [`NIL`], that out-of-range keys are
    /// clamped onto — a lookup is a subtraction, a clamp and a load.
    Direct { min: i64, slots: Vec<u32> },
    /// Any other keys: one map entry per distinct key.
    Map(IntMap<i64, u32>),
}

/// The build side of a hash join on `i64` keys — the one index behind the
/// in-memory and the Grace (spilled) join.
///
/// Each distinct key has the head of a chain threaded through `next`;
/// entries with equal keys are linked in the order they were given. No
/// per-key `Vec`, no allocation per build row. The heads sit in an array
/// indexed by key when the keys span a range whose array is no larger than
/// the map's bound ([`ChainTable::bytes_for`]), and in a map otherwise.
pub(crate) struct ChainTable {
    heads: Heads,
    /// `next[e]`: the next entry with entry `e`'s key, or [`NIL`].
    next: Vec<u32>,
    /// `rows[e]`: the build-side row of entry `e`.
    rows: Vec<usize>,
    /// No two entries share a key: every chain is one entry long.
    unique: bool,
}

impl ChainTable {
    /// Indexes `(key, row)` entries. Entries are linked back to front, so
    /// each chain runs in the order the entries were given: callers pass
    /// rows ascending and [`ChainTable::probe`] emits matches ascending in
    /// the build row — the order a `Vec` of matches per key used to give.
    ///
    /// The heads are direct when the keys' `[min, max]` fits
    /// ([`direct_fits`]), so the table never holds more than
    /// [`ChainTable::bytes_for`] either way.
    ///
    /// # Panics
    ///
    /// Panics at 2^32 − 1 entries or more (chain links are `u32`).
    pub(crate) fn build(
        entries: impl ExactSizeIterator<Item = (i64, usize)> + DoubleEndedIterator + Clone,
    ) -> Self {
        let n = entries.len();
        let range = entries
            .clone()
            .map(|(k, _)| (k, k))
            .reduce(|(lo, hi), (k, _)| (lo.min(k), hi.max(k)));
        let direct = range.filter(|&(min, max)| direct_fits(n, min, max));
        Self::build_with(entries, direct)
    }

    /// [`ChainTable::build`] with the heads chosen by the caller: direct
    /// over `min..=max` (which must hold every key), or a map on `None`.
    fn build_with(
        entries: impl ExactSizeIterator<Item = (i64, usize)> + DoubleEndedIterator,
        direct: Option<(i64, i64)>,
    ) -> Self {
        let n = entries.len();
        assert!(n < NIL as usize, "hash-join build side exceeds u32 links");
        let mut heads = match direct {
            Some((min, max)) => Heads::Direct {
                min,
                slots: vec![NIL; direct_slots(min, max).expect("a direct range fits")],
            },
            None => Heads::Map(IntMap::with_capacity_and_hasher(
                n,
                IntBuildHasher::default(),
            )),
        };
        let mut next = vec![NIL; n];
        let mut rows = vec![0; n];
        let mut unique = true;
        for (e, (key, row)) in entries.enumerate().rev() {
            rows[e] = row;
            // The entry becomes its key's head; the old head, if any, is next.
            let later = match &mut heads {
                Heads::Direct { min, slots } => {
                    std::mem::replace(&mut slots[key.wrapping_sub(*min) as u64 as usize], e as u32)
                }
                Heads::Map(map) => map.insert(key, e as u32).unwrap_or(NIL),
            };
            next[e] = later;
            unique &= later == NIL;
        }
        Self {
            heads,
            next,
            rows,
            unique,
        }
    }

    /// The first entry of `key`'s chain, or [`NIL`].
    fn head(&self, key: i64) -> u32 {
        match &self.heads {
            Heads::Direct { min, slots } => slots[direct_slot(key, *min, slots.len())],
            Heads::Map(map) => map.get(&key).copied().unwrap_or(NIL),
        }
    }

    /// Appends `(i, j)` to the index vectors for every probe entry
    /// `(key, i)`, in the order given, and every build row `j` whose key is
    /// `key` — ascending in `j` — for which `exact || matches(i, j)` holds:
    /// the one inner loop of every hash join. Exact keys are equal values;
    /// hashed keys confirm the match on the key columns with `matches`.
    ///
    /// Exact keys into direct heads with every build key unique — the
    /// foreign-key-to-dimension join — take a loop with no branch on
    /// whether a probe row matches: each row writes its candidate pair at
    /// a cursor into a small buffer and advances the cursor only on a hit,
    /// so a probe side that half misses costs no mispredictions. The buffer
    /// is appended to the index vectors every [`PROBE_RUN`] rows, which
    /// grow by what matched and by nothing else.
    pub(crate) fn probe(
        &self,
        mut probe: impl ExactSizeIterator<Item = (i64, usize)>,
        exact: bool,
        lidx: &mut Vec<usize>,
        ridx: &mut Vec<usize>,
        matches: impl Fn(usize, usize) -> bool,
    ) {
        match &self.heads {
            Heads::Direct { min, slots } if exact && self.unique && !self.rows.is_empty() => {
                let last_entry = self.rows.len() - 1;
                let (mut li, mut ri) = ([0; PROBE_RUN], [0; PROBE_RUN]);
                while probe.len() > 0 {
                    let mut cursor = 0;
                    for (key, i) in probe.by_ref().take(PROBE_RUN) {
                        let e = slots[direct_slot(key, *min, slots.len())];
                        // A miss (`NIL`) reads some real row, written where
                        // the next pair will overwrite it.
                        li[cursor] = i;
                        ri[cursor] = self.rows[(e as usize).min(last_entry)];
                        cursor += usize::from(e != NIL);
                    }
                    lidx.extend_from_slice(&li[..cursor]);
                    ridx.extend_from_slice(&ri[..cursor]);
                }
            }
            _ => {
                for (key, i) in probe {
                    let mut e = self.head(key);
                    while e != NIL {
                        let j = self.rows[e as usize];
                        if exact || matches(i, j) {
                            lidx.push(i);
                            ridx.push(j);
                        }
                        e = self.next[e as usize];
                    }
                }
            }
        }
    }

    /// Bytes the table holds, by capacity: the heads (map slots or the
    /// direct array) and the two per-entry arrays.
    pub(crate) fn bytes(&self) -> usize {
        let heads = match &self.heads {
            Heads::Direct { slots, .. } => slots.capacity() * size_of::<u32>(),
            Heads::Map(map) => map.capacity() * slot_bytes::<i64, u32>(),
        };
        heads + self.next.capacity() * size_of::<u32>() + self.rows.capacity() * size_of::<usize>()
    }

    /// An upper bound on [`ChainTable::bytes`] for a table built from
    /// `entries` entries — what a join asks before it builds one. It is the
    /// map's bound: a table takes direct heads only within it.
    pub(crate) fn bytes_for(entries: usize) -> usize {
        map_slots_bound(entries) * slot_bytes::<i64, u32>()
            + entries * (size_of::<u32>() + size_of::<usize>())
    }
}

/// Head slots of a direct table over `min..=max`: one per key and the
/// sentinel, or `None` if that count does not fit a `usize`.
fn direct_slots(min: i64, max: i64) -> Option<usize> {
    usize::try_from(max.abs_diff(min)).ok()?.checked_add(2)
}

/// Whether `entries` entries keyed within `min..=max` take direct heads:
/// the head array is no larger than the map slots [`ChainTable::bytes_for`]
/// allows, so the table fits that bound with either heads.
fn direct_fits(entries: usize, min: i64, max: i64) -> bool {
    let heads = direct_slots(min, max).and_then(|s| s.checked_mul(size_of::<u32>()));
    heads.is_some_and(|h| h <= map_slots_bound(entries) * slot_bytes::<i64, u32>())
}

/// The slot of `key` among a direct table's `len` slots over keys from
/// `min`: `key − min` inside the range, the sentinel `len − 1` outside it.
/// The subtraction wraps, so a key below `min` comes out above any range
/// and is clamped like one above `max`; none wraps back into the range,
/// which would take `key + 2^64 ≤ max`.
fn direct_slot(key: i64, min: i64, len: usize) -> usize {
    (key.wrapping_sub(min) as u64).min(len as u64 - 1) as usize
}

/// One `i64` key per row — borrowed straight from `Int`/`Date` storage, or
/// owned: dictionary codes, translated codes, row hashes.
pub(crate) enum RawKeys<'a> {
    Borrowed(&'a [i64]),
    Owned(Vec<i64>),
}

impl RawKeys<'_> {
    pub(crate) fn as_slice(&self) -> &[i64] {
        match self {
            RawKeys::Borrowed(s) => s,
            RawKeys::Owned(v) => v,
        }
    }
}

/// Raw keys for one equi-join pair, if the pair is integer-representable.
///
/// `Int`/`Int` and `Date`/`Date` borrow their storage. `Dict`/`Dict` joins
/// compare codes instead of strings: the right side's *dictionary entries*
/// (not its rows) are translated into the left code space once, and a right
/// value missing from the left dictionary maps to `-1`, which can never
/// equal a (non-negative) left code — so the translated keys join exactly
/// like the strings they stand for.
pub(crate) fn raw_key_pair<'a>(
    lc: &'a Column,
    rc: &'a Column,
) -> Option<(RawKeys<'a>, RawKeys<'a>)> {
    match (lc, rc) {
        (Column::Int(a), Column::Int(b)) | (Column::Date(a), Column::Date(b)) => {
            Some((RawKeys::Borrowed(a), RawKeys::Borrowed(b)))
        }
        (
            Column::Dict {
                codes: a,
                values: va,
            },
            Column::Dict {
                codes: b,
                values: vb,
            },
        ) => {
            let left = RawKeys::Owned(a.iter().map(|&c| i64::from(c)).collect());
            let right = if Arc::ptr_eq(va, vb) {
                RawKeys::Owned(b.iter().map(|&c| i64::from(c)).collect())
            } else {
                let by_str: std::collections::HashMap<&str, i64> = va
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (&**s, i as i64))
                    .collect();
                let translated: Vec<i64> = vb
                    .iter()
                    .map(|s| by_str.get(&**s).copied().unwrap_or(-1))
                    .collect();
                RawKeys::Owned(b.iter().map(|&c| translated[c as usize]).collect())
            };
            Some((left, right))
        }
        _ => None,
    }
}

/// One `i64` per row on each side of an equi-join, and whether equal keys
/// are equal values (`exact`) or only equal hashes, to be confirmed on the
/// key columns.
pub(crate) struct JoinKeys<'a> {
    pub(crate) left: RawKeys<'a>,
    pub(crate) right: RawKeys<'a>,
    pub(crate) exact: bool,
}

/// The keys of a join on `lcols[k] = rcols[k]`: a single integer-
/// representable pair ([`raw_key_pair`]) is exact; a cross join keys every
/// row `0`, which is exact too (every pair matches); anything else hashes
/// each side's rows with [`row_hashes`].
pub(crate) fn join_keys<'a>(
    lcols: &[&'a Column],
    rcols: &[&'a Column],
    ln: usize,
    rn: usize,
) -> JoinKeys<'a> {
    if let ([lc], [rc]) = (lcols, rcols) {
        if let Some((left, right)) = raw_key_pair(lc, rc) {
            return JoinKeys {
                left,
                right,
                exact: true,
            };
        }
    }
    JoinKeys {
        left: RawKeys::Owned(row_hashes(lcols, ln)),
        right: RawKeys::Owned(row_hashes(rcols, rn)),
        exact: lcols.is_empty(),
    }
}

/// One group-by key per row, read in place where a column is one.
pub(crate) enum GroupKeyRows<'a> {
    /// A single `Int`/`Date` column: the value is the key.
    Ints(&'a [i64]),
    /// A single dictionary column: the code is the key (every code is below
    /// `dict_len`, the dictionary's size).
    Codes { codes: &'a [u32], dict_len: usize },
    /// Row hashes ([`row_hashes`]) of several or non-integer columns, or
    /// `0` for every row of a γ without group columns.
    Owned(Vec<i64>),
}

impl GroupKeyRows<'_> {
    /// The key of row `i`.
    pub(crate) fn at(&self, i: usize) -> i64 {
        match self {
            GroupKeyRows::Ints(v) => v[i],
            GroupKeyRows::Codes { codes, .. } => i64::from(codes[i]),
            GroupKeyRows::Owned(v) => v[i],
        }
    }
}

/// The group keys of `rows` rows over `gcols`, and whether equal keys are
/// equal groups (`exact`) or only equal hashes, to be confirmed on the
/// columns: a single integer or dictionary column, and no column at all
/// (one group), are exact; anything else is a row hash.
pub(crate) fn group_keys<'a>(gcols: &[&'a Column], rows: usize) -> (GroupKeyRows<'a>, bool) {
    match gcols {
        [] => (GroupKeyRows::Owned(vec![0; rows]), true),
        [Column::Int(v) | Column::Date(v)] => (GroupKeyRows::Ints(v), true),
        [Column::Dict { codes, values }] => (
            GroupKeyRows::Codes {
                codes,
                dict_len: values.len(),
            },
            true,
        ),
        _ => (GroupKeyRows::Owned(row_hashes(gcols, rows)), false),
    }
}

/// Tag words that keep an integer, a date and a string with the same bits
/// apart in [`row_hashes`] (values of different variants are never equal).
const INT_TAG: u64 = 1;
const DATE_TAG: u64 = 2;
const TEXT_TAG: u64 = 3;

fn hash_int(tag: u64, v: i64) -> u64 {
    let mut h = IntHasher::with_seed(tag);
    h.write_i64(v);
    h.finish()
}

fn hash_str(s: &str) -> u64 {
    let mut h = IntHasher::with_seed(TEXT_TAG);
    h.write(s.as_bytes());
    h.write_usize(s.len());
    h.finish()
}

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Int(x) => hash_int(INT_TAG, *x),
        Value::Date(x) => hash_int(DATE_TAG, *x),
        Value::Text(s) => hash_str(s),
    }
}

/// A hash of each row's values over `cols` (`rows` rows; all `0` without
/// columns). Equal values hash equal whatever represents them — a
/// dictionary code and a plain string, a typed integer and a `Mixed` one —
/// so two columns compare by hash exactly when [`Column::eq_at`] could hold.
/// Dictionary entries are hashed once, not once per row. The mix is
/// [`IntHasher`]'s, unkeyed, on the same argument as the integer keys: a
/// collision costs a comparison on the columns, never a wrong result.
pub(crate) fn row_hashes(cols: &[&Column], rows: usize) -> Vec<i64> {
    fn fold(h: &mut [u64], value_hashes: impl Iterator<Item = u64>) {
        for (acc, v) in h.iter_mut().zip(value_hashes) {
            *acc = (acc.rotate_left(5) ^ v).wrapping_mul(IntHasher::MUL);
        }
    }
    let mut h = vec![0u64; rows];
    for col in cols {
        match col {
            Column::Int(v) => fold(&mut h, v.iter().map(|&x| hash_int(INT_TAG, x))),
            Column::Date(v) => fold(&mut h, v.iter().map(|&x| hash_int(DATE_TAG, x))),
            Column::Text(v) => fold(&mut h, v.iter().map(|s| hash_str(s))),
            Column::Dict { codes, values } => {
                let entry: Vec<u64> = values.iter().map(|s| hash_str(s)).collect();
                fold(&mut h, codes.iter().map(|&c| entry[c as usize]));
            }
            Column::Mixed(v) => fold(&mut h, v.iter().map(hash_value)),
        }
    }
    h.into_iter().map(|x| x as i64).collect()
}

/// Upper bound on the group count: dictionary columns bound their distinct
/// count by the value-table size, other columns only by the row count, no
/// column makes one group. `min(rows, Π per-column bounds)` pre-sizes the
/// group table (no rehash during the build) and is the group count a
/// γ's state estimate assumes — exact for one dictionary key.
pub(crate) fn group_cardinality_hint(gcols: &[&Column], rows: usize) -> usize {
    let mut hint = 1usize;
    for c in gcols {
        let d = match c {
            Column::Dict { values, .. } => values.len().max(1),
            _ => rows,
        };
        hint = hint.saturating_mul(d);
        if hint >= rows {
            return rows;
        }
    }
    hint
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hashes_agree_across_representations() {
        // The same values hash the same whether typed, mixed, plain text or
        // dictionary codes (under any dictionary); an integer and a date
        // with the same bits do not.
        let ints = Column::Int(vec![5, -7, i64::MIN]);
        let mixed = Column::Mixed(vec![Value::Int(5), Value::Int(-7), Value::Int(i64::MIN)]);
        let dates = Column::Date(vec![5, -7, i64::MIN]);
        let text = Column::Text(vec!["b".into(), "".into(), "héllo".into()]);
        let dict = Column::Dict {
            codes: vec![2, 0, 1],
            values: vec!["".into(), "héllo".into(), "b".into()].into(),
        };
        assert_eq!(row_hashes(&[&ints], 3), row_hashes(&[&mixed], 3));
        assert_eq!(
            row_hashes(&[&text, &ints], 3),
            row_hashes(&[&dict, &mixed], 3)
        );
        let (i, d) = (row_hashes(&[&ints], 3), row_hashes(&[&dates], 3));
        assert!(i.iter().zip(&d).all(|(a, b)| a != b));
        assert_eq!(row_hashes(&[], 2), [0, 0]);
    }

    #[test]
    fn equal_tuples_hash_equal_and_distinct_ones_apart() {
        // (1,2) twice, then (MIN,2) and the swapped tuple (2,1): equal
        // tuples share a hash, these distinct ones do not.
        let a = Column::Int(vec![1, 1, i64::MIN, 2]);
        let b = Column::Int(vec![2, 2, 2, 1]);
        let (h, exact) = group_keys(&[&a, &b], 4);
        let h: Vec<i64> = (0..4).map(|i| h.at(i)).collect();
        assert!(!exact, "a two-column key is a hash");
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
        assert_ne!(h[0], h[3]);
    }

    #[test]
    fn footprints_bound_what_tables_hold() {
        // The map-capacity bound, pre-sized and grown by insertion.
        let mut grown: IntMap<i64, u32> = IntMap::default();
        for n in 0..5_000usize {
            let sized: IntMap<i64, u32> = IntMap::with_capacity_and_hasher(n, Default::default());
            assert!(sized.capacity() <= map_slots_bound(n), "with_capacity({n})");
            assert!(grown.capacity() <= map_slots_bound(n), "grown to {n}");
            grown.insert(n as i64, 0);
        }
        // A chain table never holds more than it said it would, with all
        // keys distinct or all equal, under either head representation.
        for n in [0usize, 1, 2, 3, 7, 8, 100, 1_000] {
            for distinct in [true, false] {
                let entries: Vec<(i64, usize)> = (0..n)
                    .map(|j| (if distinct { j as i64 } else { 7 }, j))
                    .collect();
                let auto = ChainTable::build(entries.iter().copied());
                assert_eq!(is_direct(&auto), n > 0, "{n} compact entries");
                let map = ChainTable::build_with(entries.iter().copied(), None);
                for table in [auto, map] {
                    assert!(table.bytes() <= ChainTable::bytes_for(n), "{n} entries");
                }
            }
        }
        // The switch at its boundary: `widest` is the largest `max − min`
        // whose head array (a slot per key and the sentinel) fits in the
        // map slots of the bound. One key more of range and the heads are a
        // map — at any offset, the extremes of `i64` included. (One entry
        // spans one key.)
        for n in [2usize, 3, 5, 64, 1_000] {
            let widest = map_slots_bound(n) * slot_bytes::<i64, u32>() / size_of::<u32>() - 2;
            for min in [0, -1, i64::MIN, i64::MAX - widest as i64 - 1] {
                for (span, direct) in [(widest, true), (widest + 1, false)] {
                    let max = min + span as i64;
                    // `n` distinct keys from `min` to `max`.
                    let entries: Vec<(i64, usize)> = (0..n)
                        .map(|j| (if j + 1 == n { max } else { min + j as i64 }, j))
                        .collect();
                    assert_eq!(direct_fits(n, min, max), direct, "{n} over {span}");
                    let table = ChainTable::build(entries.iter().copied());
                    assert_eq!(is_direct(&table), direct, "{n} entries over {span}");
                    assert!(table.bytes() <= ChainTable::bytes_for(n), "{n} over {span}");
                    if direct {
                        // At the boundary the heads fill the bound to within
                        // one slot.
                        assert!(table.bytes() + size_of::<u32>() > ChainTable::bytes_for(n));
                    }
                }
            }
        }
        // The widest ranges never overflow the slot arithmetic.
        assert!(!direct_fits(2, i64::MIN, i64::MAX));
        assert!(!direct_fits(usize::MAX / 64, i64::MIN, i64::MAX));
        assert_eq!(direct_slots(i64::MIN, i64::MAX), None);
    }

    fn is_direct(table: &ChainTable) -> bool {
        matches!(table.heads, Heads::Direct { .. })
    }

    /// The pairs a nested loop over `probe` × `build` emits: probe entries
    /// in the order given, each one's build rows ascending.
    fn nested_loop(
        probe: &[(i64, usize)],
        build: &[(i64, usize)],
        exact: bool,
        matches: impl Fn(usize, usize) -> bool,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        for &(a, i) in probe {
            for &(b, j) in build {
                if a == b && (exact || matches(i, j)) {
                    lidx.push(i);
                    ridx.push(j);
                }
            }
        }
        (lidx, ridx)
    }

    /// Key `r`, drawn as `kind`, near `center` within `span`, or at an
    /// edge: the dictionary-translation sentinel `-1`, the ends of `i64`, or
    /// anywhere.
    fn draw_key(kind: u8, r: u64, center: i64, span: u64) -> i64 {
        match kind {
            0..=4 => center.wrapping_add((r % span) as i64),
            5 => i64::MIN,
            6 => i64::MAX,
            7 => -1,
            _ => r as i64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Direct heads and map heads emit the same pairs — the nested
        /// loop's, pair for pair — for random build and probe keys: compact
        /// and wide ranges, with and without duplicates, probe keys below
        /// and above the build range, at the ends of `i64`, negative and
        /// `-1`, empty and one-entry build sides; exact keys (the
        /// branch-free probe when the build keys are unique) and hashed ones
        /// confirmed by `matches`. Whichever heads `build` picks, the table
        /// holds no more than `bytes_for`.
        #[test]
        fn direct_and_map_heads_emit_the_nested_loops_pairs(
            center_kind in 0usize..5,
            anywhere in proptest::prelude::any::<i64>(),
            span in 1u64..80,
            build_keys in proptest::collection::vec((0u8..10, proptest::prelude::any::<u64>()), 0..40),
            probe_keys in proptest::collection::vec((0u8..10, proptest::prelude::any::<u64>()), 0..60),
            compact in proptest::prelude::any::<bool>(),
            distinct in proptest::prelude::any::<bool>(),
        ) {
            let center = [0, -1, i64::MIN, i64::MAX - 20, anywhere][center_kind];
            // A compact build side draws every key near `center`.
            let mut keys: Vec<i64> = build_keys
                .iter()
                .map(|&(kind, r)| draw_key(if compact { kind % 5 } else { kind }, r, center, span))
                .collect();
            if distinct {
                let mut seen = std::collections::HashSet::new();
                keys.retain(|k| seen.insert(*k));
            }
            // Build rows ascending but not contiguous, as a Grace chunk's are.
            let build: Vec<(i64, usize)> =
                keys.iter().enumerate().map(|(j, &k)| (k, 2 * j + 1)).collect();
            let range = keys
                .iter()
                .map(|&k| (k, k))
                .reduce(|(lo, hi), (k, _)| (lo.min(k), hi.max(k)));
            // Probe keys straddle the build range: below, inside, above.
            let (lo, hi) = range.unwrap_or((center, center));
            let probe: Vec<(i64, usize)> = probe_keys
                .iter()
                .enumerate()
                .map(|(i, &(kind, r))| {
                    let k = match kind {
                        8 => lo.wrapping_sub(1 + (r % 3) as i64),
                        9 => hi.wrapping_add(1 + (r % 3) as i64),
                        _ => draw_key(kind, r, center, span),
                    };
                    (k, 3 * i)
                })
                .collect();

            let n = build.len();
            let auto = ChainTable::build(build.iter().copied());
            let map = ChainTable::build_with(build.iter().copied(), None);
            proptest::prop_assert_eq!(
                is_direct(&auto),
                range.is_some_and(|(lo, hi)| direct_fits(n, lo, hi))
            );
            proptest::prop_assert!(auto.bytes() <= ChainTable::bytes_for(n));
            proptest::prop_assert!(map.bytes() <= ChainTable::bytes_for(n));
            let mut tables = vec![auto, map];
            // Forced direct heads wherever the range is small enough to
            // allocate, whether or not `build` would pick them.
            if let Some(range) = range.filter(|&(lo, hi)| hi.abs_diff(lo) < 1 << 12) {
                tables.push(ChainTable::build_with(build.iter().copied(), Some(range)));
            }
            let confirm = |i: usize, j: usize| !(i + j).is_multiple_of(3);
            for exact in [true, false] {
                let want = nested_loop(&probe, &build, exact, confirm);
                for table in &tables {
                    let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
                    table.probe(probe.iter().copied(), exact, &mut lidx, &mut ridx, confirm);
                    proptest::prop_assert_eq!((&lidx, &ridx), (&want.0, &want.1), "exact {}", exact);
                }
            }
        }
    }

    #[test]
    fn a_cross_join_and_the_dictionary_sentinel_probe_like_any_key() {
        // A cross join keys every row 0: a one-row build side is direct and
        // unique, and every probe row matches it.
        let table = ChainTable::build([(0, 4)].into_iter());
        assert!(is_direct(&table) && table.unique);
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        let probe = (0..2_500).map(|i| (0, i));
        table.probe(probe, true, &mut lidx, &mut ridx, |_, _| false);
        assert_eq!(lidx, (0..2_500).collect::<Vec<_>>());
        assert!(ridx.iter().all(|&j| j == 4));
        // Translated dictionary codes: right values missing from the left
        // dictionary are -1 and match no left code; left code 0 and 2 do.
        let table = ChainTable::build([(-1, 0), (2, 1), (-1, 2), (0, 3)].into_iter());
        assert!(is_direct(&table) && !table.unique);
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        let probe = [(0, 0), (1, 1), (2, 2), (3, 3)].into_iter();
        table.probe(probe, true, &mut lidx, &mut ridx, |_, _| false);
        assert_eq!((lidx, ridx), (vec![0, 2], vec![3, 1]));
    }

    #[test]
    fn int_and_date_keys_borrow_storage() {
        let l = Column::Int(vec![1, 2, 3]);
        let r = Column::Int(vec![3, 4]);
        let (lk, rk) = raw_key_pair(&l, &r).expect("int pair");
        assert!(matches!(lk, RawKeys::Borrowed(_)));
        assert_eq!(lk.as_slice(), &[1, 2, 3]);
        assert_eq!(rk.as_slice(), &[3, 4]);
        assert!(raw_key_pair(&l, &Column::Text(vec![])).is_none());
    }

    #[test]
    fn dict_translation_round_trips_through_strings() {
        // Right codes translate into the left code space: equal strings get
        // equal raw keys, strings absent on the left get the -1 sentinel.
        let lv: Arc<[Arc<str>]> = vec!["a".into(), "b".into()].into();
        let rv: Arc<[Arc<str>]> = vec!["b".into(), "zz".into()].into();
        let l = Column::Dict {
            codes: vec![0, 1, 0],
            values: lv,
        };
        let r = Column::Dict {
            codes: vec![0, 1],
            values: rv,
        };
        let (lk, rk) = raw_key_pair(&l, &r).expect("dict pair");
        assert_eq!(lk.as_slice(), &[0, 1, 0]);
        // "b" → left code 1, "zz" → -1 (never equals a left code).
        assert_eq!(rk.as_slice(), &[1, -1]);
    }

    #[test]
    fn dictionary_lanes_read_codes_in_place() {
        // A single dictionary key groups by its codes, exactly; a plain text
        // key by hash.
        let d = Column::Dict {
            codes: vec![2, 0, 2],
            values: vec!["a".into(), "b".into(), "c".into()].into(),
        };
        let (codes, exact) = group_keys(&[&d], 3);
        assert!(exact);
        assert!(matches!(codes, GroupKeyRows::Codes { dict_len: 3, .. }));
        assert_eq!([0, 1, 2].map(|i| codes.at(i)), [2, 0, 2]);
        let text = Column::Text(vec!["c".into(), "a".into(), "c".into()]);
        let (hashes, exact) = group_keys(&[&text], 3);
        assert!(!exact);
        assert_eq!(
            [0, 1, 2].map(|i| hashes.at(i)).to_vec(),
            row_hashes(&[&d], 3)
        );
    }

    #[test]
    fn chains_emit_build_rows_in_the_order_given() {
        // Key 7 at rows 1, 4, 9 and key i64::MIN at row 3; the chain of a
        // key lists its rows as given, whatever other keys sit between.
        let entries = [(7, 1), (i64::MIN, 3), (7, 4), (0, 5), (7, 9)];
        let table = ChainTable::build(entries.into_iter());
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        let probe = [(7, 0), (8, 1), (i64::MIN, 2)];
        table.probe(probe.into_iter(), true, &mut lidx, &mut ridx, |_, _| false);
        assert_eq!(lidx, [0, 0, 0, 2]);
        assert_eq!(ridx, [1, 4, 9, 3]);
        // A hash match the columns refuse emits nothing.
        let refuse_4 = |_: usize, j: usize| j != 4;
        table.probe([(7, 3)].into_iter(), false, &mut lidx, &mut ridx, refuse_4);
        assert_eq!(ridx[4..], [1, 9]);
        let empty = ChainTable::build(std::iter::empty());
        empty.probe([(7, 0)].into_iter(), true, &mut lidx, &mut ridx, |_, _| {
            true
        });
        assert_eq!(lidx.len(), 6);
    }

    #[test]
    fn int_hasher_spreads_strided_keys_over_low_bits() {
        // Keys that differ only above bit 16 must not share their low hash
        // bits — the bucket index — which a bare multiply would leave zero.
        use std::hash::BuildHasher;
        let low: std::collections::HashSet<u64> = (0..256i64)
            .map(|k| IntBuildHasher::default().hash_one(k << 16) & 0xFF)
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn cardinality_hint_bounded_by_rows_and_dictionaries() {
        let dict = Column::Dict {
            codes: vec![0; 100],
            values: vec!["x".into(), "y".into(), "z".into()].into(),
        };
        let ints = Column::Int((0..100).collect());
        assert_eq!(group_cardinality_hint(&[&dict], 100), 3);
        assert_eq!(group_cardinality_hint(&[&ints], 100), 100);
        assert_eq!(group_cardinality_hint(&[&dict, &dict], 100), 9);
        assert_eq!(group_cardinality_hint(&[&dict, &ints], 100), 100);
    }
}
