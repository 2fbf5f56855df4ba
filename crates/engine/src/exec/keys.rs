//! Raw integer join/group keys shared by the hash join and hash-aggregation
//! kernels (in-memory and spill-partitioned variants alike).
//!
//! `Int`/`Date` columns borrow their `i64` storage directly. Dictionary
//! columns contribute their codes: code equality is value equality within
//! one dictionary, and across dictionaries the right side's *entries* are
//! translated into the left code space once per batch, so text-keyed joins
//! never hash a string. Group keys pack up to [`COMPACT_GROUP_KEY_COLS`]
//! column values into a fixed-width `[i64; 4]`, padded with `i64::MIN` —
//! every key in one aggregation shares a width, so padding never collides.
//!
//! Every integer-keyed map in the engine hashes with [`IntHasher`], and the
//! three hash joins share one build-side index, [`ChainTable`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::batch::Column;

/// A multiply-rotate hasher (the FxHash recipe) for the engine's integer
/// keys: raw `i64` join keys and packed [`CompactKey`]s.
///
/// `std`'s default SipHash is keyed per process to resist collision
/// flooding by whoever chooses the keys of a long-lived map. These maps are
/// not that: they live for one operator call, their keys are dictionary
/// codes and integer columns of tables the warehouse's operator loaded, and
/// a collision costs probe time, never a wrong result (equality is still
/// checked on the full key). At a few nanoseconds per row SipHash was most
/// of a group-by's or a probe's cost, so the integer paths trade the
/// flooding resistance for one multiply per word. Maps keyed by anything
/// else (`Vec<Value>` join keys, strings) keep the default hasher.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

/// 2^64 / φ, odd: multiplying by it spreads every input bit upwards (the
/// hasher's mix and the radix partitioner's Fibonacci hash).
pub(crate) const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl IntHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(HASH_MUL);
    }
}

impl Hasher for IntHasher {
    /// `[i64; N]` hashes as one byte slice; consume it a word at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    /// The multiply leaves the entropy in the high bits; the table picks
    /// buckets from the low ones, so rotate the high bits down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The `BuildHasher` of every integer-keyed map in the engine.
pub(crate) type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A hash map under [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// End of a [`ChainTable`] chain.
const NIL: u32 = u32::MAX;

/// The build side of a hash join on raw `i64` keys — the one index behind
/// the sequential, the partitioned-parallel and the Grace (spilled) join.
///
/// One map entry per *distinct* key holds the head of a chain threaded
/// through `next`; entries with equal keys are linked in the order they
/// were given. No per-key `Vec`, no allocation per build row.
pub(crate) struct ChainTable {
    heads: IntMap<i64, u32>,
    /// `next[e]`: the next entry with entry `e`'s key, or [`NIL`].
    next: Vec<u32>,
    /// `rows[e]`: the build-side row of entry `e`.
    rows: Vec<usize>,
}

impl ChainTable {
    /// Indexes `(key, row)` entries. Entries are linked back to front, so
    /// each chain runs in the order the entries were given: callers pass
    /// rows ascending and [`ChainTable::probe`] emits matches ascending in
    /// the build row — the order a `Vec` of matches per key used to give.
    ///
    /// # Panics
    ///
    /// Panics at 2^32 − 1 entries or more (chain links are `u32`).
    pub(crate) fn build(
        entries: impl ExactSizeIterator<Item = (i64, usize)> + DoubleEndedIterator,
    ) -> Self {
        let n = entries.len();
        assert!(n < NIL as usize, "hash-join build side exceeds u32 links");
        let mut heads = IntMap::with_capacity_and_hasher(n, IntBuildHasher::default());
        let mut next = vec![NIL; n];
        let mut rows = vec![0; n];
        for (e, (key, row)) in entries.enumerate().rev() {
            rows[e] = row;
            if let Some(later) = heads.insert(key, e as u32) {
                next[e] = later;
            }
        }
        Self { heads, next, rows }
    }

    /// Appends `(i, j)` to the index vectors for every build row `j` whose
    /// key is `key` — the one inner loop of every hash join.
    pub(crate) fn probe(&self, i: usize, key: i64, lidx: &mut Vec<usize>, ridx: &mut Vec<usize>) {
        let mut e = self.heads.get(&key).copied().unwrap_or(NIL);
        while e != NIL {
            lidx.push(i);
            ridx.push(self.rows[e as usize]);
            e = self.next[e as usize];
        }
    }
}

/// Widest group-by the compact fixed-width aggregate key covers.
pub(crate) const COMPACT_GROUP_KEY_COLS: usize = 4;

/// A fixed-width packed group key (see [`pack_key`]).
pub(crate) type CompactKey = [i64; COMPACT_GROUP_KEY_COLS];

/// Raw `i64` join keys — borrowed straight from `Int`/`Date` storage, or
/// materialised once per batch for dictionary codes.
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

/// When every key pair is integer-representable (`Int`/`Int`, `Date`/`Date`
/// or `Dict`/`Dict`), returns the raw keys; empty otherwise. Kernels use
/// the single-pair case as their fast path.
pub(crate) fn raw_keys<'a>(
    lcols: &[&'a Column],
    rcols: &[&'a Column],
) -> Vec<(RawKeys<'a>, RawKeys<'a>)> {
    lcols
        .iter()
        .zip(rcols)
        .map(|(lc, rc)| raw_key_pair(lc, rc))
        .collect::<Option<Vec<_>>>()
        .unwrap_or_default()
}

/// One group-key column as grouping reads it: `Int`/`Date` storage or a
/// dictionary column's codes, borrowed either way (code equality is value
/// equality, which is all grouping needs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyLane<'a> {
    Ints(&'a [i64]),
    /// Dictionary codes, with the dictionary's size (every code is below it).
    Codes {
        codes: &'a [u32],
        dict_len: usize,
    },
}

impl KeyLane<'_> {
    fn at(&self, i: usize) -> i64 {
        match self {
            KeyLane::Ints(v) => v[i],
            KeyLane::Codes { codes, .. } => i64::from(codes[i]),
        }
    }
}

/// The column as a group-key lane, if it is integer-representable.
pub(crate) fn key_lane(col: &Column) -> Option<KeyLane<'_>> {
    match col {
        Column::Int(v) | Column::Date(v) => Some(KeyLane::Ints(v)),
        Column::Dict { codes, values } => Some(KeyLane::Codes {
            codes,
            dict_len: values.len(),
        }),
        _ => None,
    }
}

/// Packs row `i` of the group-key columns into a fixed-width key, padding
/// unused lanes with `i64::MIN`. Within one aggregation every key uses the
/// same number of lanes, so two packed keys are equal iff the underlying
/// key tuples are equal — the round-trip property the unit tests pin.
pub(crate) fn pack_key(lanes: &[KeyLane<'_>], i: usize) -> CompactKey {
    debug_assert!(lanes.len() <= COMPACT_GROUP_KEY_COLS);
    let mut key = [i64::MIN; COMPACT_GROUP_KEY_COLS];
    for (k, lane) in lanes.iter().enumerate() {
        key[k] = lane.at(i);
    }
    key
}

/// Unpacks the first `width` lanes of a packed key — the inverse of
/// [`pack_key`] for an aggregation with `width` group columns.
#[cfg(test)]
pub(crate) fn unpack_key(key: &CompactKey, width: usize) -> &[i64] {
    &key[..width]
}

/// Upper-bound hint for the group count: dictionary columns bound their
/// distinct count by the value-table size, other columns only by the row
/// count. Pre-sizing the map from `min(rows, Π per-column hints)` avoids
/// rehashing during the build.
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
    fn pack_round_trips_every_width() {
        let c0 = vec![1i64, 2, 3];
        let c1 = vec![-7i64, 0, i64::MAX];
        let c2 = vec![i64::MIN, 5, 9];
        let cols = [KeyLane::Ints(&c0), KeyLane::Ints(&c1), KeyLane::Ints(&c2)];
        for width in 1..=cols.len() {
            let slices = &cols[..width];
            for i in 0..3 {
                let packed = pack_key(slices, i);
                let unpacked = unpack_key(&packed, width);
                let expected: Vec<i64> = slices.iter().map(|s| s.at(i)).collect();
                assert_eq!(unpacked, expected.as_slice(), "width {width}, row {i}");
                // Padding lanes are inert.
                assert!(packed[width..].iter().all(|&p| p == i64::MIN));
            }
        }
    }

    #[test]
    fn packed_equality_is_tuple_equality() {
        // Distinct tuples (even ones containing the padding sentinel) pack
        // to distinct keys, and equal tuples pack to equal keys.
        let a = vec![1i64, 1, i64::MIN];
        let b = vec![2i64, 2, 2];
        let slices = [KeyLane::Ints(&a), KeyLane::Ints(&b)];
        let keys: Vec<CompactKey> = (0..3).map(|i| pack_key(&slices, i)).collect();
        assert_ne!(keys[0], keys[2]); // (1,2) ≠ (MIN,2)
        assert_eq!(keys[0], keys[1]); // (1,2) = (1,2)
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
        let d = Column::Dict {
            codes: vec![2, 0, 2],
            values: vec!["a".into(), "b".into(), "c".into()].into(),
        };
        let lane = key_lane(&d).expect("dict lane");
        assert!(matches!(lane, KeyLane::Codes { dict_len: 3, .. }));
        assert_eq!(pack_key(&[lane], 0)[0], 2);
        assert!(key_lane(&Column::Text(vec![])).is_none());
    }

    #[test]
    fn chains_emit_build_rows_in_the_order_given() {
        // Key 7 at rows 1, 4, 9 and key i64::MIN at row 3; the chain of a
        // key lists its rows as given, whatever other keys sit between.
        let entries = [(7, 1), (i64::MIN, 3), (7, 4), (0, 5), (7, 9)];
        let table = ChainTable::build(entries.into_iter());
        let (mut lidx, mut ridx) = (Vec::new(), Vec::new());
        table.probe(0, 7, &mut lidx, &mut ridx);
        table.probe(1, 8, &mut lidx, &mut ridx);
        table.probe(2, i64::MIN, &mut lidx, &mut ridx);
        assert_eq!(lidx, [0, 0, 0, 2]);
        assert_eq!(ridx, [1, 4, 9, 3]);
        let empty = ChainTable::build(std::iter::empty());
        empty.probe(0, 7, &mut lidx, &mut ridx);
        assert_eq!(lidx.len(), 4);
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
