//! A dense bitset over an MVPP's [`NodeId`] space.
//!
//! [`NodeId`]s index into a contiguous node vector, so a materialization set
//! or visited set is a handful of `u64` words instead of a heap-allocated
//! `BTreeSet`. Unions — the hot operation in shared-maintenance evaluation —
//! become word-wise ORs, and iteration yields ids in ascending order, exactly
//! matching `BTreeSet<NodeId>` iteration so cost summation orders (and hence
//! exact floating-point results) are preserved.

use std::collections::BTreeSet;
use std::fmt;

use crate::mvpp::NodeId;

/// A set of [`NodeId`]s stored as a dense bitset.
///
/// All sets over one MVPP share the same capacity (the MVPP's node count);
/// operations between sets of different capacities are supported by treating
/// missing high words as zero.
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set sized for a DAG of `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// An empty set holding ids `0..capacity` of `mvpp`-sized DAGs.
    pub fn for_mvpp(mvpp: &crate::mvpp::Mvpp) -> Self {
        Self::with_capacity(mvpp.len())
    }

    /// Builds a set from any iterator of ids.
    pub fn from_ids<I: IntoIterator<Item = NodeId>>(capacity: usize, ids: I) -> Self {
        let mut s = Self::with_capacity(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id`; returns whether it was newly added.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, bit) = (id.0 / 64, 1u64 << (id.0 % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += newly as usize;
        newly
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, bit) = (id.0 / 64, 1u64 << (id.0 % 64));
        let present = self.words.get(w).is_some_and(|word| word & bit != 0);
        if present {
            self.words[w] &= !bit;
            self.len -= 1;
        }
        present
    }

    /// Toggles `id`; returns whether it is present afterwards.
    pub fn toggle(&mut self, id: NodeId) -> bool {
        if self.insert(id) {
            true
        } else {
            self.remove(id);
            false
        }
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: NodeId) -> bool {
        self.words
            .get(id.0 / 64)
            .is_some_and(|word| word & (1u64 << (id.0 % 64)) != 0)
    }

    /// Removes all ids.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Adds every id of `other` (word-wise OR).
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            len += w.count_ones() as usize;
        }
        for w in &self.words[other.words.len()..] {
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Keeps only ids also in `other` (word-wise AND).
    pub fn intersect_with(&mut self, other: &NodeSet) {
        let mut len = 0;
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Ids in ascending order — the same order `BTreeSet<NodeId>` iterates.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(NodeId(i * 64 + bit))
            })
        })
    }

    /// The raw words, low ids first — a cheap memoization key.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites `self` with `other`'s contents, reusing the allocation —
    /// an allocation-free alternative to `*self = other.clone()`.
    pub fn copy_from(&mut self, other: &NodeSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Rewrites each word `i` in place as `f(i, word)` and recounts the
    /// ids — how a search composes a set from others word by word without
    /// allocating.
    pub(crate) fn rewrite_words(&mut self, mut f: impl FnMut(usize, u64) -> u64) {
        let mut len = 0;
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = f(i, *w);
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Converts to the `BTreeSet` form used at API boundaries.
    pub fn to_btree(&self) -> BTreeSet<NodeId> {
        self.iter().collect()
    }
}

/// Two sets are equal when they hold the same ids, whatever their
/// capacities: missing high words count as zero, like everywhere else.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        let word = |s: &Self, w: usize| s.words.get(w).copied().unwrap_or(0);
        (0..self.words.len().max(other.words.len())).all(|w| word(self, w) == word(other, w))
    }
}

impl Eq for NodeSet {}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(ids: I) -> Self {
        let mut s = NodeSet::default();
        for id in ids {
            s.insert(id);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::with_capacity(100);
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(99)));
        assert!(s.contains(NodeId(3)) && s.contains(NodeId(99)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn toggle_flips_membership() {
        let mut s = NodeSet::with_capacity(10);
        assert!(s.toggle(NodeId(7)));
        assert!(s.contains(NodeId(7)));
        assert!(!s.toggle(NodeId(7)));
        assert!(!s.contains(NodeId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_matches_btreeset_order() {
        let picked = ids(&[70, 3, 64, 0, 127, 65]);
        let s = NodeSet::from_ids(128, picked.iter().copied());
        let b: BTreeSet<NodeId> = picked.into_iter().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            b.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_and_intersection() {
        let a = NodeSet::from_ids(128, ids(&[1, 64, 100]));
        let b = NodeSet::from_ids(128, ids(&[2, 64]));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), ids(&[1, 2, 64, 100]));
        assert_eq!(u.len(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), ids(&[64]));
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut s = NodeSet::with_capacity(1);
        s.insert(NodeId(500));
        assert!(s.contains(NodeId(500)));
        let mut other = NodeSet::with_capacity(1000);
        other.insert(NodeId(900));
        s.union_with(&other);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn copy_from_replaces_contents() {
        let a = NodeSet::from_ids(128, ids(&[1, 64, 100]));
        let mut b = NodeSet::from_ids(256, ids(&[3, 200]));
        b.copy_from(&a);
        assert_eq!(b, a);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn rewrite_words_recounts() {
        let x = NodeSet::from_ids(128, ids(&[1, 64, 100]));
        let y = NodeSet::from_ids(128, ids(&[2, 64, 127]));
        let take = NodeSet::from_ids(128, ids(&[1, 2, 100, 127]));
        let mut child = NodeSet::from_ids(128, ids(&[5]));
        child.rewrite_words(|i, _| {
            (x.words()[i] & take.words()[i]) | (y.words()[i] & !take.words()[i])
        });
        assert_eq!(child, NodeSet::from_ids(128, ids(&[1, 64, 100])));
        assert_eq!(child.len(), 3);
        child.rewrite_words(|_, w| !w);
        assert_eq!(child.len(), 128 - 3);
    }

    #[test]
    fn equality_ignores_capacity() {
        let small = NodeSet::from_ids(10, ids(&[1]));
        assert_eq!(small, NodeSet::from_ids(200, ids(&[1])));
        assert_eq!(NodeSet::from_ids(200, ids(&[1])), small);
        let mut grown = small.clone();
        grown.insert(NodeId(150));
        assert_ne!(grown, small);
        assert_ne!(small, grown);
        grown.remove(NodeId(150));
        assert_eq!(grown, small);
        assert_ne!(small, NodeSet::from_ids(200, ids(&[2])));
        assert_eq!(NodeSet::default(), NodeSet::with_capacity(500));
    }

    #[test]
    fn round_trips_btreeset() {
        let picked: BTreeSet<NodeId> = ids(&[5, 9, 63, 64]).into_iter().collect();
        let s: NodeSet = picked.iter().copied().collect();
        assert_eq!(s.to_btree(), picked);
    }
}
