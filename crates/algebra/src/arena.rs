//! A hash-consing arena interning expressions by semantic-equivalence class.
//!
//! [`ExprArena`] maps every expression to a dense [`ExprId`] such that two
//! expressions receive the *same* id exactly when their
//! [`Expr::semantic_key`]s are equal — join commutativity/associativity,
//! predicate normalisation and set-semantics projections/group-bys are all
//! folded away. Interning is bottom-up and memoized, so after the one-time
//! walk every identity check is an integer comparison instead of an O(n²)
//! recursive string build.
//!
//! Each class stores its representative [`Arc<Expr>`] (the first member
//! interned), the ids of the representative's children and the memoized
//! [`Expr::semantic_hash`]; a per-class analysis walks
//! [`ExprArena::children`] bottom up.
//!
//! A node's class is found from its children's classes: the node's
//! semantic hash comes from theirs (joins flatten through the leaf classes
//! and merged condition of the join beneath), one hash-map probe finds the
//! candidate classes, and only a candidate is compared against the node —
//! by writing the node's predicate and attribute names into a comparison,
//! never into a `String`. [`ExprArena::classify`] does this for every node
//! of an expression in one children-first pass without interning anything,
//! so a lookup that misses — what most nodes of a parsed query do — costs
//! one probe and allocates nothing per node.
//!
//! The arena is an *internal currency*: expressions are still constructed
//! through the public [`Arc<Expr>`] builders and the parser, and ids are
//! only meaningful relative to the arena that issued them.

use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;

use mvdesign_catalog::{AttrRef, RelName};

use crate::aggregate::AggExpr;
use crate::expr::{hash_attr, hash_display, write_pairs, Expr, Fnv1a, JoinCondition};
use crate::inthash::IntMap;
use crate::predicate::Predicate;

/// A dense identifier for one semantic-equivalence class of expressions.
///
/// Ids are issued by an [`ExprArena`] in first-interned order, starting at
/// zero, and are stable for the arena's lifetime: interning more expressions
/// never renumbers existing classes. Ids from different arenas are not
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The id as a dense index (`0..arena.len()`), usable for `Vec` slots.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The exact class signature of one interned class, given its children's
/// classes.
///
/// Two expressions have equal signatures exactly when their semantic keys
/// are equal: the signature embeds the same display strings the key does,
/// with subexpressions replaced by their (already unique) class ids and
/// joins flattened to their sorted leaf-class multiset. Unlike a 64-bit
/// hash, signature equality cannot collide. Only interned classes carry
/// one; a probe compares a [`Key`] against it in place.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sig {
    /// `B(name)`.
    Base(String),
    /// `S(input; predicate)`.
    Select(ExprId, String),
    /// `P(input; sorted deduped attrs)`.
    Project(ExprId, Vec<String>),
    /// `J(sorted flattened leaf classes; merged condition)`.
    Join(Vec<ExprId>, String),
    /// `G(input; sorted deduped groups; sorted aggregates)`.
    Aggregate(ExprId, Vec<String>, Vec<String>),
}

/// One node's signature in borrowed form, built from the node and its
/// children's classes without allocating.
#[derive(Clone, Copy)]
enum Key<'k> {
    Base(&'k RelName),
    Select(ExprId, &'k Predicate),
    Project(ExprId, &'k [AttrRef]),
    /// Sorted flattened leaf classes; the merged condition.
    Join(&'k [ExprId], Pairs<'k>),
    Aggregate(ExprId, &'k [AttrRef], &'k [AggExpr]),
}

/// A join's merged condition in borrowed form, read as sorted,
/// de-duplicated pairs.
#[derive(Clone, Copy)]
enum Pairs<'k> {
    /// Pairs already flattened, sorted and de-duplicated into a scratch
    /// buffer ([`ExprArena::classify`]).
    Flat(&'k [&'k (AttrRef, AttrRef)]),
    /// The union of normalised conditions: a join's own and the merged
    /// conditions of its interned join children ([`ExprArena::intern`]).
    /// Each is sorted already, so their union is a merge of the slices and
    /// needs no buffer.
    Union([&'k [(AttrRef, AttrRef)]; 3]),
}

impl<'k> Pairs<'k> {
    /// The pairs in ascending order, each once.
    fn iter(self) -> PairIter<'k> {
        match self {
            Pairs::Flat(pairs) => PairIter {
                flat: pairs.iter(),
                union: [&[]; 3],
            },
            Pairs::Union(union) => PairIter {
                flat: [].iter(),
                union,
            },
        }
    }
}

/// Iterator of [`Pairs::iter`].
struct PairIter<'k> {
    flat: std::slice::Iter<'k, &'k (AttrRef, AttrRef)>,
    /// The unmerged rest of each sorted slice.
    union: [&'k [(AttrRef, AttrRef)]; 3],
}

impl<'k> Iterator for PairIter<'k> {
    type Item = &'k (AttrRef, AttrRef);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(pair) = self.flat.next() {
            return Some(pair);
        }
        let least = self.union.iter().filter_map(|s| s.first()).min()?;
        for rest in &mut self.union {
            if rest.first() == Some(least) {
                *rest = &rest[1..];
            }
        }
        Some(least)
    }
}

impl Key<'_> {
    /// The signature an interned class of this key stores.
    fn sig(self) -> Sig {
        fn sorted(items: impl Iterator<Item = String>, dedup: bool) -> Vec<String> {
            let mut v: Vec<String> = items.collect();
            v.sort();
            if dedup {
                v.dedup();
            }
            v
        }
        match self {
            Key::Base(r) => Sig::Base(r.to_string()),
            Key::Select(input, p) => Sig::Select(input, p.to_string()),
            Key::Project(input, attrs) => {
                Sig::Project(input, sorted(attrs.iter().map(|a| a.to_string()), true))
            }
            Key::Join(leaves, pairs) => {
                let mut cond = String::new();
                let _ = write_pairs(&mut cond, pairs.iter());
                Sig::Join(leaves.to_vec(), cond)
            }
            Key::Aggregate(input, groups, aggs) => Sig::Aggregate(
                input,
                sorted(groups.iter().map(|a| a.to_string()), true),
                sorted(aggs.iter().map(|a| a.to_string()), false),
            ),
        }
    }

    /// Whether an interned class with signature `sig` is this key's class:
    /// `self.sig() == *sig`, decided without building `self.sig()`.
    fn is(self, sig: &Sig) -> bool {
        match (self, sig) {
            (Key::Base(r), Sig::Base(name)) => r.as_str() == name,
            (Key::Select(input, p), Sig::Select(id, text)) => {
                input == *id && writes(text, |w| write!(w, "{p}"))
            }
            (Key::Project(input, attrs), Sig::Project(id, names)) => {
                input == *id && same_attr_set(attrs, names)
            }
            (Key::Join(leaves, pairs), Sig::Join(ids, cond)) => {
                leaves == &ids[..] && writes(cond, |w| write_pairs(w, pairs.iter()))
            }
            (Key::Aggregate(input, groups, aggs), Sig::Aggregate(id, group_names, funcs)) => {
                input == *id
                    && same_attr_set(groups, group_names)
                    // Equal multisets: as long, and each stored text shown
                    // as often as it is stored.
                    && aggs.len() == funcs.len()
                    && funcs.iter().all(|f| {
                        let shown = |a: &&AggExpr| writes(f, |w| write!(w, "{a}"));
                        aggs.iter().filter(shown).count() == funcs.iter().filter(|g| *g == f).count()
                    })
            }
            _ => false,
        }
    }
}

/// Whether `attrs`, displayed, are exactly the sorted de-duplicated `names`.
fn same_attr_set(attrs: &[AttrRef], names: &[String]) -> bool {
    let shown = |a: &AttrRef, n: &String| writes(n, |w| a.write_to(w));
    attrs.iter().all(|a| names.iter().any(|n| shown(a, n)))
        && names.iter().all(|n| attrs.iter().any(|a| shown(a, n)))
}

/// Whether `write` writes exactly `text`. The comparison stops at the first
/// differing piece and allocates nothing.
fn writes(text: &str, write: impl FnOnce(&mut SameText<'_>) -> fmt::Result) -> bool {
    let mut w = SameText(text);
    write(&mut w).is_ok() && w.0.is_empty()
}

/// A [`fmt::Write`] sink holding the text still expected; a piece that does
/// not continue it is an error.
struct SameText<'a>(&'a str);

impl fmt::Write for SameText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self.0.strip_prefix(s) {
            Some(rest) => {
                self.0 = rest;
                Ok(())
            }
            None => Err(fmt::Error),
        }
    }
}

/// One interned equivalence class.
#[derive(Debug, Clone)]
struct Entry {
    /// The first member interned — the class representative.
    expr: Arc<Expr>,
    /// Classes of the representative's direct children.
    children: Vec<ExprId>,
    /// The class signature (see [`Sig`]).
    sig: Sig,
    /// Memoized [`Expr::semantic_hash`] of every member.
    hash: u64,
    /// For join classes: the sorted leaf-class multiset and the merged join
    /// condition, so a parent join flattens through this class in O(leaves)
    /// without re-walking it.
    join_flat: Option<JoinFlat>,
}

#[derive(Debug, Clone)]
struct JoinFlat {
    /// Sorted class ids of the flattened non-join leaves.
    leaf_ids: Vec<ExprId>,
    /// Union of all conditions in the maximal join subtree.
    cond: JoinCondition,
}

/// A hash-consing interner over [`Expr`] semantic-equivalence classes.
///
/// Two expressions intern to the same [`ExprId`] exactly when their
/// [`Expr::semantic_key`] strings are equal. Typical use:
///
/// ```
/// use mvdesign_algebra::{Expr, ExprArena, JoinCondition};
///
/// let mut arena = ExprArena::new();
/// let a = Expr::join(Expr::base("R"), Expr::base("S"), JoinCondition::cross());
/// let b = Expr::join(Expr::base("S"), Expr::base("R"), JoinCondition::cross());
/// assert_ne!(a, b); // structurally different trees …
/// assert_eq!(arena.intern(&a), arena.intern(&b)); // … same class
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    entries: Vec<Entry>,
    /// Semantic hash → classes with that hash (almost always one). The key
    /// already is a hash, so the map mixes it with [`IntHasher`](crate::IntHasher).
    by_hash: IntMap<u64, Vec<ExprId>>,
    /// `Arc` pointer → class, for O(1) re-interning of shared subtrees. The
    /// mapped `Arc` keeps the allocation alive so addresses cannot recycle.
    by_ptr: IntMap<usize, (Arc<Expr>, ExprId)>,
    /// Buffers [`ExprArena::intern`] reuses from node to node, so that
    /// finding an existing class allocates nothing.
    scratch: InternScratch,
}

/// What one [`ExprArena::intern`] step needs room for: the child hashes a
/// node sorts into its own hash, and a join's flattened leaf classes,
/// which it sorts into its key. A join's merged pairs need no buffer (see
/// [`Pairs::Union`]).
#[derive(Debug, Clone, Default)]
struct InternScratch {
    hashes: Vec<u64>,
    leaves: Vec<ExprId>,
}

/// The class of every node of one expression, as
/// [`ExprArena::classify`] found it: `None` where no class is interned.
///
/// Nodes are numbered in postorder — a node's children (left before right)
/// before the node, the root last — so a router walking the expression top
/// down finds each node's slot from its parent's ([`Classes::children`]),
/// and the nodes strictly beneath a node are one contiguous run
/// ([`Classes::below`]).
#[derive(Debug, Clone, Default)]
pub struct Classes {
    slots: Vec<Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    class: Option<ExprId>,
    /// The first slot of the node's subtree.
    first: u32,
    /// Number of children.
    arity: u8,
}

impl Classes {
    /// The root's node number.
    pub fn root(&self) -> usize {
        self.slots.len() - 1
    }

    /// The class of node `node`, if interned.
    pub fn class(&self, node: usize) -> Option<ExprId> {
        self.slots[node].class
    }

    /// The node numbers of `node`'s children, left to right.
    pub fn children(&self, node: usize) -> impl Iterator<Item = usize> {
        let last = node.wrapping_sub(1);
        let (first, count) = match self.slots[node].arity {
            0 => (0, 0),
            1 => (last, 1),
            _ => (self.slots[last].first as usize - 1, 2),
        };
        [first, last].into_iter().skip(2 - count)
    }

    /// The classes of the nodes strictly beneath `node`.
    pub fn below(&self, node: usize) -> impl Iterator<Item = Option<ExprId>> + '_ {
        let first = self.slots[node].first as usize;
        self.slots[first..node].iter().map(|s| s.class)
    }
}

/// Scratch a classification pass reuses across nodes: join leaves and pairs
/// flattened so far, and the child hashes a node sorts into its own.
#[derive(Default)]
struct Scratch<'e> {
    leaves: Vec<ExprId>,
    pairs: Vec<&'e (AttrRef, AttrRef)>,
    hashes: Vec<u64>,
}

/// What a join above needs from one classified node.
enum Seen {
    /// A non-join node and its class.
    Leaf(Option<ExprId>),
    /// A join: where its flattened leaf classes and pairs sit in
    /// [`Scratch`], or `None` when a leaf has no class.
    Join(Option<(Range<usize>, Range<usize>)>),
}

impl ExprArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no classes are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The class representative: the first member interned.
    pub fn expr(&self, id: ExprId) -> &Arc<Expr> {
        &self.entries[id.index()].expr
    }

    /// Classes of the representative's direct children.
    pub fn children(&self, id: ExprId) -> &[ExprId] {
        &self.entries[id.index()].children
    }

    /// The memoized [`Expr::semantic_hash`] shared by every class member.
    pub fn semantic_hash(&self, id: ExprId) -> u64 {
        self.entries[id.index()].hash
    }

    /// Interns `expr` and its whole subtree, returning its class id.
    ///
    /// Re-interning any expression with an equal semantic key — including
    /// structurally different members of the class — returns the same id.
    /// Finding an existing class allocates nothing: child classes sit in a
    /// fixed array, hashes and join leaves in the arena's scratch, and only
    /// a new class builds its signature, children list and merged join
    /// condition.
    pub fn intern(&mut self, expr: &Arc<Expr>) -> ExprId {
        if let Some(id) = self.known(expr) {
            return id;
        }
        let mut children = [ExprId(0); 2];
        let mut arity = 0;
        for child in expr.child_iter() {
            children[arity] = self.intern(child);
            arity += 1;
        }
        let children = &children[..arity];
        let mut scratch = std::mem::take(&mut self.scratch);
        let InternScratch { hashes, leaves } = &mut scratch;
        let key = self.key(expr, children, leaves);
        let found = self.probe(key, hashes).map_err(|hash| {
            let flat = match key {
                Key::Join(leaf_ids, pairs) => Some(JoinFlat {
                    leaf_ids: leaf_ids.to_vec(),
                    cond: JoinCondition::new(pairs.iter().cloned()),
                }),
                _ => None,
            };
            (key.sig(), hash, flat)
        });
        self.scratch = scratch;
        let id = match found {
            Ok(id) => id,
            Err((sig, hash, flat)) => self.insert(expr, children.to_vec(), sig, hash, flat),
        };
        self.by_ptr
            .insert(Arc::as_ptr(expr) as usize, (Arc::clone(expr), id));
        id
    }

    /// `expr`'s key given its children's classes. A join flattens through
    /// each interned join child's leaves and merged condition; its sorted
    /// leaf classes go in `leaves`.
    fn key<'k>(
        &'k self,
        expr: &'k Expr,
        children: &[ExprId],
        leaves: &'k mut Vec<ExprId>,
    ) -> Key<'k> {
        match expr {
            Expr::Base(r) => Key::Base(r),
            Expr::Select { predicate, .. } => Key::Select(children[0], predicate),
            Expr::Project { attrs, .. } => Key::Project(children[0], attrs),
            Expr::Aggregate { group_by, aggs, .. } => Key::Aggregate(children[0], group_by, aggs),
            Expr::Join { on, .. } => {
                leaves.clear();
                let mut conds: [&[(AttrRef, AttrRef)]; 3] = [on.pairs(), &[], &[]];
                for (cond, child) in conds[1..].iter_mut().zip(children) {
                    match &self.entries[child.index()].join_flat {
                        Some(flat) => {
                            leaves.extend_from_slice(&flat.leaf_ids);
                            *cond = flat.cond.pairs();
                        }
                        None => leaves.push(*child),
                    }
                }
                leaves.sort_unstable();
                Key::Join(leaves, Pairs::Union(conds))
            }
        }
    }

    /// The class of `expr` if one is interned, without modifying the arena.
    pub fn lookup(&self, expr: &Arc<Expr>) -> Option<ExprId> {
        self.known(expr).or_else(|| {
            let classes = self.classify(expr);
            classes.class(classes.root())
        })
    }

    /// The class of every node of `expr`, children first, without
    /// interning anything (see [`Classes`]).
    ///
    /// If a node's class were interned, so would be every class of its
    /// flattened form (interning a member interns its whole subtree), so a
    /// child without a class decides its parent without a probe; any other
    /// node costs one probe of the hash its children's hashes give, and
    /// builds no string.
    pub fn classify(&self, expr: &Arc<Expr>) -> Classes {
        let mut classes = Classes {
            slots: Vec::with_capacity(expr.node_count()),
        };
        self.classify_node(expr, &mut classes.slots, &mut Scratch::default());
        classes
    }

    /// Classifies `expr`'s subtree into `slots`, children first, and says
    /// what a join above needs to know about it.
    fn classify_node<'e>(
        &self,
        expr: &'e Arc<Expr>,
        slots: &mut Vec<Slot>,
        scratch: &mut Scratch<'e>,
    ) -> Seen {
        let first = u32::try_from(slots.len()).expect("fewer than 2^32 nodes");
        let known = self.known(expr);
        let mut input = |input: &'e Arc<Expr>, scratch: &mut Scratch<'e>| {
            self.classify_node(input, slots, scratch);
            slots.last().and_then(|s| s.class)
        };
        let (class, arity, seen) = match &**expr {
            Expr::Base(r) => {
                let class = known.or_else(|| self.probe(Key::Base(r), &mut scratch.hashes).ok());
                (class, 0, None)
            }
            Expr::Select {
                input: i,
                predicate,
            } => {
                let key = input(i, scratch).map(|i| Key::Select(i, predicate));
                (self.class_of(known, key, scratch), 1, None)
            }
            Expr::Project { input: i, attrs } => {
                let key = input(i, scratch).map(|i| Key::Project(i, attrs));
                (self.class_of(known, key, scratch), 1, None)
            }
            Expr::Aggregate {
                input: i,
                group_by,
                aggs,
            } => {
                let key = input(i, scratch).map(|i| Key::Aggregate(i, group_by, aggs));
                (self.class_of(known, key, scratch), 1, None)
            }
            Expr::Join { left, right, on } => {
                let sides = [
                    self.classify_node(left, slots, scratch),
                    self.classify_node(right, slots, scratch),
                ];
                let mut flat = flatten(&sides, on, scratch);
                if let (Some((leaves, pairs)), None) = (&mut flat, known) {
                    scratch.leaves[leaves.clone()].sort_unstable();
                    pairs.end = pairs.start + sort_dedup(&mut scratch.pairs[pairs.clone()]);
                    scratch.pairs.truncate(pairs.end);
                }
                let class = known.or_else(|| {
                    let (leaves, pairs) = flat.clone()?;
                    let Scratch {
                        leaves: l,
                        pairs: p,
                        hashes,
                    } = scratch;
                    let key = Key::Join(&l[leaves], Pairs::Flat(&p[pairs]));
                    self.probe(key, hashes).ok()
                });
                (class, 2, Some(flat))
            }
        };
        slots.push(Slot {
            class,
            first,
            arity,
        });
        match seen {
            Some(flat) => Seen::Join(flat),
            None => Seen::Leaf(class),
        }
    }

    /// A non-join node's class: the pointer's, or the probed key's (no key
    /// when a child has no class).
    fn class_of(
        &self,
        known: Option<ExprId>,
        key: Option<Key<'_>>,
        scratch: &mut Scratch<'_>,
    ) -> Option<ExprId> {
        known.or_else(|| self.probe(key?, &mut scratch.hashes).ok())
    }

    /// The class interned for this very `Arc`, if any.
    fn known(&self, expr: &Arc<Expr>) -> Option<ExprId> {
        self.by_ptr
            .get(&(Arc::as_ptr(expr) as usize))
            .map(|(_, id)| *id)
    }

    /// The existing class of `key`, or the key's hash when there is none.
    fn probe(&self, key: Key<'_>, hashes: &mut Vec<u64>) -> Result<ExprId, u64> {
        let hash = self.hash_of(key, hashes);
        self.by_hash
            .get(&hash)
            .and_then(|ids| {
                ids.iter()
                    .copied()
                    .find(|id| key.is(&self.entries[id.index()].sig))
            })
            .ok_or(hash)
    }

    /// Computes [`Expr::semantic_hash`] of a node from its children's
    /// memoized hashes — bit-identical to the recursive version, without
    /// re-walking subtrees. `hashes` is scratch for sorting child hashes.
    fn hash_of(&self, key: Key<'_>, hashes: &mut Vec<u64>) -> u64 {
        let hash = |id: ExprId| self.entries[id.index()].hash;
        let feed = |h: &mut Fnv1a, hashes: &mut Vec<u64>, dedup: bool| {
            hashes.sort_unstable();
            if dedup {
                hashes.dedup();
            }
            for x in hashes.drain(..) {
                h.u64(x);
            }
        };
        let mut h = Fnv1a::new();
        hashes.clear();
        match key {
            Key::Base(r) => {
                h.byte(b'B');
                let _ = h.write_str(r.as_str());
            }
            Key::Select(input, predicate) => {
                h.byte(b'S');
                h.u64(hash(input));
                let _ = write!(h, "{predicate}");
            }
            Key::Project(input, attrs) => {
                h.byte(b'P');
                h.u64(hash(input));
                hashes.extend(attrs.iter().map(hash_attr));
                feed(&mut h, hashes, true);
            }
            Key::Join(leaves, pairs) => {
                h.byte(b'J');
                hashes.extend(leaves.iter().map(|&l| hash(l)));
                feed(&mut h, hashes, false);
                let _ = write_pairs(&mut h, pairs.iter());
            }
            Key::Aggregate(input, groups, aggs) => {
                h.byte(b'G');
                h.u64(hash(input));
                hashes.extend(groups.iter().map(hash_attr));
                feed(&mut h, hashes, true);
                hashes.extend(aggs.iter().map(hash_display));
                feed(&mut h, hashes, false);
            }
        }
        h.finish()
    }

    /// Creates a new class; `expr` becomes its representative.
    fn insert(
        &mut self,
        expr: &Arc<Expr>,
        children: Vec<ExprId>,
        sig: Sig,
        hash: u64,
        join_flat: Option<JoinFlat>,
    ) -> ExprId {
        let id = ExprId(u32::try_from(self.entries.len()).expect("fewer than 2^32 classes"));
        self.entries.push(Entry {
            expr: Arc::clone(expr),
            children,
            sig,
            hash,
            join_flat,
        });
        self.by_hash.entry(hash).or_default().push(id);
        id
    }
}

/// Sorts `items` and moves one of each distinct value to the front;
/// returns how many there are.
fn sort_dedup<T: Ord + Copy>(items: &mut [T]) -> usize {
    items.sort_unstable();
    let mut kept = 0;
    for at in 0..items.len() {
        if kept == 0 || items[kept - 1] != items[at] {
            items[kept] = items[at];
            kept += 1;
        }
    }
    kept
}

/// Appends a join's flattened leaf classes and pairs — its two sides' and
/// its own condition's — to the scratch tails, and returns where they sit;
/// `None` when a leaf has no class.
fn flatten<'e>(
    sides: &[Seen; 2],
    on: &'e JoinCondition,
    scratch: &mut Scratch<'e>,
) -> Option<(Range<usize>, Range<usize>)> {
    let (leaves, pairs) = (scratch.leaves.len(), scratch.pairs.len());
    for side in sides {
        match side {
            Seen::Leaf(Some(class)) => scratch.leaves.push(*class),
            Seen::Join(Some((l, p))) => {
                scratch.leaves.extend_from_within(l.clone());
                scratch.pairs.extend_from_within(p.clone());
            }
            Seen::Leaf(None) | Seen::Join(None) => return None,
        }
    }
    scratch.pairs.extend(on.pairs());
    Some((leaves..scratch.leaves.len(), pairs..scratch.pairs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Predicate};
    use mvdesign_catalog::AttrRef;

    fn la() -> Predicate {
        Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "LA")
    }

    fn did() -> JoinCondition {
        JoinCondition::on(
            AttrRef::new("Product", "Did"),
            AttrRef::new("Division", "Did"),
        )
    }

    #[test]
    fn commuted_joins_share_a_class() {
        let mut arena = ExprArena::new();
        let l = Expr::base("Product");
        let r = Expr::select(Expr::base("Division"), la());
        let a = Expr::join(Arc::clone(&l), Arc::clone(&r), did());
        let b = Expr::join(r, l, did());
        assert_eq!(arena.intern(&a), arena.intern(&b));
    }

    #[test]
    fn reassociated_joins_share_a_class() {
        let mut arena = ExprArena::new();
        let p = Expr::base("Product");
        let d = Expr::base("Division");
        let t = Expr::base("Part");
        let pid = JoinCondition::on(AttrRef::new("Part", "Pid"), AttrRef::new("Product", "Pid"));
        let a = Expr::join(
            Expr::join(Arc::clone(&p), Arc::clone(&d), did()),
            Arc::clone(&t),
            pid.clone(),
        );
        let b = Expr::join(t, Expr::join(d, p, did()), pid);
        assert_eq!(arena.intern(&a), arena.intern(&b));
        // The inner joins of `a` and `b` are different classes, so the two
        // roots fall into one class only through flattening.
        assert_eq!(arena.lookup(&a), arena.lookup(&b));
    }

    #[test]
    fn distinct_predicates_are_distinct_classes() {
        let mut arena = ExprArena::new();
        let a = Expr::select(Expr::base("Division"), la());
        let sf = Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "SF");
        let b = Expr::select(Expr::base("Division"), sf);
        assert_ne!(arena.intern(&a), arena.intern(&b));
    }

    #[test]
    fn interned_hash_matches_semantic_hash() {
        let mut arena = ExprArena::new();
        let exprs = [
            Expr::base("Product"),
            Expr::select(Expr::base("Division"), la()),
            Expr::join(Expr::base("Product"), Expr::base("Division"), did()),
            Expr::project(
                Expr::join(Expr::base("Division"), Expr::base("Product"), did()),
                [AttrRef::new("Product", "name")],
            ),
        ];
        for e in &exprs {
            let id = arena.intern(e);
            assert_eq!(arena.semantic_hash(id), e.semantic_hash(), "{e}");
        }
    }

    #[test]
    fn ids_agree_with_semantic_keys_pairwise() {
        let mut arena = ExprArena::new();
        let p = Expr::base("Product");
        let d = Expr::base("Division");
        let exprs = [
            Arc::clone(&p),
            Arc::clone(&d),
            Expr::select(Arc::clone(&d), la()),
            Expr::join(Arc::clone(&p), Arc::clone(&d), did()),
            Expr::join(Arc::clone(&d), Arc::clone(&p), did()),
            Expr::project(Arc::clone(&p), [AttrRef::new("Product", "name")]),
        ];
        let ids: Vec<ExprId> = exprs.iter().map(|e| arena.intern(e)).collect();
        for (a, ia) in exprs.iter().zip(&ids) {
            for (b, ib) in exprs.iter().zip(&ids) {
                assert_eq!(
                    a.semantic_key() == b.semantic_key(),
                    ia == ib,
                    "arena/key disagreement between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut arena = ExprArena::new();
        let a = Expr::select(Expr::base("Division"), la());
        assert_eq!(arena.lookup(&a), None);
        assert_eq!(arena.len(), 0);
        let id = arena.intern(&a);
        assert_eq!(arena.lookup(&a), Some(id));
        // A fresh structural duplicate resolves without growing the arena.
        let b = Expr::select(Expr::base("Division"), la());
        assert_eq!(arena.lookup(&b), Some(id));
        assert_eq!(arena.len(), 2); // base + select
    }

    #[test]
    fn clone_preserves_pointer_fast_path() {
        let mut arena = ExprArena::new();
        let e = Expr::select(Expr::base("Division"), la());
        let id = arena.intern(&e);
        let snapshot = arena.clone();
        assert_eq!(snapshot.lookup(&e), Some(id));
    }
}
