//! The SPJ expression tree.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use mvdesign_catalog::{AttrRef, RelName};
use serde::{Deserialize, Serialize};

use crate::aggregate::AggExpr;
use crate::predicate::Predicate;

/// An equi-join condition: a conjunction of attribute equalities.
///
/// Conditions are kept normalised: each pair is ordered, and the list of
/// pairs is sorted and de-duplicated, so two conditions that mean the same
/// thing are structurally equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JoinCondition {
    pairs: Vec<(AttrRef, AttrRef)>,
}

impl JoinCondition {
    /// Creates a normalised condition from attribute pairs.
    pub fn new(pairs: impl IntoIterator<Item = (AttrRef, AttrRef)>) -> Self {
        let mut pairs: Vec<_> = pairs
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        pairs.sort();
        pairs.dedup();
        Self { pairs }
    }

    /// A single-pair condition.
    pub fn on(a: AttrRef, b: AttrRef) -> Self {
        Self::new([(a, b)])
    }

    /// A cross product (no condition).
    pub fn cross() -> Self {
        Self { pairs: Vec::new() }
    }

    /// The normalised attribute pairs.
    pub fn pairs(&self) -> &[(AttrRef, AttrRef)] {
        &self.pairs
    }

    /// Whether this is a cross product.
    pub fn is_cross(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Merges two conditions (conjunction).
    #[must_use]
    pub fn merged(&self, other: &JoinCondition) -> Self {
        Self::new(
            self.pairs
                .iter()
                .cloned()
                .chain(other.pairs.iter().cloned()),
        )
    }
}

impl fmt::Display for JoinCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_pairs(f, &self.pairs)
    }
}

/// Writes sorted, de-duplicated join pairs the way [`JoinCondition`]
/// displays them, so a merged condition can be rendered (or hashed, or
/// compared) from borrowed pairs without building the condition.
pub(crate) fn write_pairs<P: std::borrow::Borrow<(AttrRef, AttrRef)>>(
    w: &mut impl fmt::Write,
    pairs: &[P],
) -> fmt::Result {
    if pairs.is_empty() {
        return w.write_str("×");
    }
    for (i, pair) in pairs.iter().enumerate() {
        if i > 0 {
            w.write_str(" ∧ ")?;
        }
        let (a, b) = pair.borrow();
        a.write_to(w)?;
        w.write_str("=")?;
        b.write_to(w)?;
    }
    Ok(())
}

/// A relational-algebra expression over base relations.
///
/// `Expr` is immutable; children are shared via [`Arc`], so rewrites build
/// new spines over shared subtrees. Construct with [`Expr::base`],
/// [`Expr::select`], [`Expr::project`] and [`Expr::join`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A base relation (leaf, `□` in the paper's figures).
    Base(RelName),
    /// Selection `σ predicate (input)`.
    Select {
        /// Input expression.
        input: Arc<Expr>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection `π attrs (input)`.
    Project {
        /// Input expression.
        input: Arc<Expr>,
        /// Attributes kept, in output order.
        attrs: Vec<AttrRef>,
    },
    /// Equi-join `left ⋈ on right` (cross product when `on` is empty).
    Join {
        /// Left input.
        left: Arc<Expr>,
        /// Right input.
        right: Arc<Expr>,
        /// Join condition.
        on: JoinCondition,
    },
    /// Grouping and aggregation `γ group_by; aggs (input)`.
    Aggregate {
        /// Input expression.
        input: Arc<Expr>,
        /// Grouping attributes (empty for a single global group).
        group_by: Vec<AttrRef>,
        /// Aggregates computed per group.
        aggs: Vec<AggExpr>,
    },
}

impl Expr {
    /// A base relation leaf.
    pub fn base(name: impl Into<RelName>) -> Arc<Expr> {
        Arc::new(Expr::Base(name.into()))
    }

    /// A selection over `input`. Selecting with `True` returns the input
    /// unchanged; selecting over an existing selection fuses the predicates.
    pub fn select(input: Arc<Expr>, predicate: Predicate) -> Arc<Expr> {
        if predicate.is_true() {
            return input;
        }
        if let Expr::Select {
            input: inner,
            predicate: p,
        } = &*input
        {
            let fused = Predicate::and([p.clone(), predicate]);
            return Arc::new(Expr::Select {
                input: Arc::clone(inner),
                predicate: fused,
            });
        }
        Arc::new(Expr::Select { input, predicate })
    }

    /// A projection over `input`.
    pub fn project(input: Arc<Expr>, attrs: impl IntoIterator<Item = AttrRef>) -> Arc<Expr> {
        Arc::new(Expr::Project {
            input,
            attrs: attrs.into_iter().collect(),
        })
    }

    /// An equi-join of `left` and `right`.
    pub fn join(left: Arc<Expr>, right: Arc<Expr>, on: JoinCondition) -> Arc<Expr> {
        Arc::new(Expr::Join { left, right, on })
    }

    /// A grouping/aggregation over `input`.
    pub fn aggregate(
        input: Arc<Expr>,
        group_by: impl IntoIterator<Item = AttrRef>,
        aggs: impl IntoIterator<Item = AggExpr>,
    ) -> Arc<Expr> {
        Arc::new(Expr::Aggregate {
            input,
            group_by: group_by.into_iter().collect(),
            aggs: aggs.into_iter().collect(),
        })
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Arc<Expr>> {
        match self {
            Expr::Base(_) => Vec::new(),
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => vec![input],
            Expr::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Direct children of this node, left to right, without collecting
    /// them.
    pub fn child_iter(&self) -> impl Iterator<Item = &Arc<Expr>> {
        let (first, second) = match self {
            Expr::Base(_) => (None, None),
            Expr::Select { input, .. }
            | Expr::Project { input, .. }
            | Expr::Aggregate { input, .. } => (Some(input), None),
            Expr::Join { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// The set of base relations this expression reads.
    pub fn base_relations(&self) -> BTreeSet<RelName> {
        let mut out = BTreeSet::new();
        self.collect_bases(&mut out);
        out
    }

    fn collect_bases(&self, out: &mut BTreeSet<RelName>) {
        match self {
            Expr::Base(r) => {
                out.insert(r.clone());
            }
            _ => {
                for c in self.children() {
                    c.collect_bases(out);
                }
            }
        }
    }

    /// Whether the expression is a single base relation.
    pub fn is_base(&self) -> bool {
        matches!(self, Expr::Base(_))
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.child_iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Height of the tree (a leaf has height 1).
    pub fn height(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.height())
            .max()
            .unwrap_or(0)
    }

    /// A short operator label for figures/DOT output, e.g. `σ[city='LA']`.
    pub fn op_label(&self) -> String {
        match self {
            Expr::Base(r) => r.to_string(),
            Expr::Select { predicate, .. } => format!("σ[{predicate}]"),
            Expr::Project { attrs, .. } => {
                let names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                format!("π[{}]", names.join(","))
            }
            Expr::Join { on, .. } => format!("⋈[{on}]"),
            Expr::Aggregate { group_by, aggs, .. } => {
                let groups: Vec<String> = group_by.iter().map(|a| a.to_string()).collect();
                let funcs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!("γ[{}; {}]", groups.join(","), funcs.join(","))
            }
        }
    }

    /// A canonical key under which two expressions that compute the same
    /// relation compare equal, up to:
    ///
    /// * join commutativity *and* associativity (a maximal join subtree is
    ///   flattened into a sorted multiset of its non-join children plus the
    ///   union of its conditions),
    /// * predicate normalisation (handled by [`Predicate`]'s smart
    ///   constructors),
    /// * projection attribute *order* (the attribute list is compared as a
    ///   set — SPJ projection is a set operator here).
    ///
    /// This implements the paper's test "`S(u) = S(v)` and `R(u) = R(v)` ⇒
    /// common subexpression, merge" (§3.1, step 1), strengthened from
    /// "same sources" to "provably same result".
    pub fn semantic_key(&self) -> String {
        match self {
            Expr::Base(r) => format!("B({r})"),
            Expr::Select { input, predicate } => {
                format!("S({};{})", input.semantic_key(), predicate)
            }
            Expr::Project { input, attrs } => {
                let mut names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                names.sort();
                names.dedup();
                format!("P({};{})", input.semantic_key(), names.join(","))
            }
            Expr::Join { .. } => {
                let mut leaves = Vec::new();
                let mut cond = JoinCondition::cross();
                self.flatten_join(&mut leaves, &mut cond);
                leaves.sort();
                format!("J({};{})", leaves.join("|"), cond)
            }
            Expr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let mut groups: Vec<String> = group_by.iter().map(|a| a.to_string()).collect();
                groups.sort();
                groups.dedup();
                let mut funcs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                funcs.sort();
                format!(
                    "G({};{};{})",
                    input.semantic_key(),
                    groups.join(","),
                    funcs.join(",")
                )
            }
        }
    }

    fn flatten_join(&self, leaves: &mut Vec<String>, cond: &mut JoinCondition) {
        match self {
            Expr::Join { left, right, on } => {
                *cond = cond.merged(on);
                left.flatten_join(leaves, cond);
                right.flatten_join(leaves, cond);
            }
            other => leaves.push(other.semantic_key()),
        }
    }

    /// A 64-bit structural hash of [`Expr::semantic_key`]'s equivalence
    /// class, computed without building the key string.
    ///
    /// Expressions with equal semantic keys always have equal hashes — the
    /// hash applies the same normalisations (join flattening with a sorted
    /// leaf multiset, sorted/de-duplicated projection and grouping
    /// attributes). The converse can fail with probability ~2⁻⁶⁴, so callers
    /// keying caches on this hash must fall back to comparing full semantic
    /// keys when two distinct expressions land on one hash.
    pub fn semantic_hash(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        match self {
            Expr::Base(r) => {
                h.byte(b'B');
                let _ = write!(h, "{r}");
            }
            Expr::Select { input, predicate } => {
                h.byte(b'S');
                h.u64(input.semantic_hash());
                let _ = write!(h, "{predicate}");
            }
            Expr::Project { input, attrs } => {
                h.byte(b'P');
                h.u64(input.semantic_hash());
                let mut names: Vec<u64> = attrs.iter().map(hash_attr).collect();
                names.sort_unstable();
                names.dedup();
                for x in names {
                    h.u64(x);
                }
            }
            Expr::Join { .. } => {
                h.byte(b'J');
                let mut leaves = Vec::new();
                let mut cond = JoinCondition::cross();
                self.flatten_join_hashes(&mut leaves, &mut cond);
                leaves.sort_unstable();
                for x in leaves {
                    h.u64(x);
                }
                let _ = write!(h, "{cond}");
            }
            Expr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                h.byte(b'G');
                h.u64(input.semantic_hash());
                let mut groups: Vec<u64> = group_by.iter().map(hash_attr).collect();
                groups.sort_unstable();
                groups.dedup();
                for x in groups {
                    h.u64(x);
                }
                let mut funcs: Vec<u64> = aggs.iter().map(hash_display).collect();
                funcs.sort_unstable();
                for x in funcs {
                    h.u64(x);
                }
            }
        }
        h.finish()
    }

    fn flatten_join_hashes(&self, leaves: &mut Vec<u64>, cond: &mut JoinCondition) {
        match self {
            Expr::Join { left, right, on } => {
                *cond = cond.merged(on);
                left.flatten_join_hashes(leaves, cond);
                right.flatten_join_hashes(leaves, cond);
            }
            other => leaves.push(other.semantic_hash()),
        }
    }
}

/// FNV-1a, 64-bit. Accepts `write!` formatting directly, so hashing a
/// `Display` value allocates nothing.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.byte(b);
        }
        Ok(())
    }
}

/// [`hash_display`] of an attribute, written by [`AttrRef::write_to`].
pub(crate) fn hash_attr(a: &AttrRef) -> u64 {
    let mut h = Fnv1a::new();
    let _ = a.write_to(&mut h);
    h.finish()
}

pub(crate) fn hash_display(value: impl fmt::Display) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv1a::new();
    let _ = write!(h, "{value}");
    h.finish()
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Base(r) => write!(f, "{r}"),
            Expr::Select { input, predicate } => write!(f, "σ[{predicate}]({input})"),
            Expr::Project { input, attrs } => {
                let names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                write!(f, "π[{}]({input})", names.join(","))
            }
            Expr::Join { left, right, on } => write!(f, "({left} ⋈[{on}] {right})"),
            Expr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let groups: Vec<String> = group_by.iter().map(|a| a.to_string()).collect();
                let funcs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                write!(f, "γ[{}; {}]({input})", groups.join(","), funcs.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompareOp;

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
    fn join_condition_normalises_pair_order() {
        let a = AttrRef::new("Product", "Did");
        let b = AttrRef::new("Division", "Did");
        assert_eq!(
            JoinCondition::on(a.clone(), b.clone()),
            JoinCondition::on(b, a)
        );
    }

    #[test]
    fn select_true_is_identity() {
        let base = Expr::base("Division");
        let same = Expr::select(Arc::clone(&base), Predicate::True);
        assert_eq!(base, same);
    }

    #[test]
    fn select_over_select_fuses() {
        let sf = Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "SF");
        let e = Expr::select(Expr::select(Expr::base("Division"), la()), sf.clone());
        match &*e {
            Expr::Select { predicate, input } => {
                assert_eq!(*predicate, Predicate::and([la(), sf]));
                assert!(input.is_base());
            }
            other => panic!("expected fused select, got {other:?}"),
        }
    }

    #[test]
    fn base_relations_collects_leaves() {
        let e = Expr::join(
            Expr::base("Product"),
            Expr::select(Expr::base("Division"), la()),
            did(),
        );
        let rels: Vec<_> = e.base_relations().into_iter().collect();
        assert_eq!(rels.len(), 2);
        assert_eq!(rels[0], "Division");
        assert_eq!(rels[1], "Product");
    }

    #[test]
    fn semantic_key_is_join_commutative() {
        let l = Expr::base("Product");
        let r = Expr::select(Expr::base("Division"), la());
        let a = Expr::join(Arc::clone(&l), Arc::clone(&r), did());
        let b = Expr::join(r, l, did());
        assert_ne!(a, b); // structurally different trees
        assert_eq!(a.semantic_key(), b.semantic_key()); // same relation
    }

    #[test]
    fn semantic_key_is_join_associative() {
        let p = Expr::base("Product");
        let d = Expr::base("Division");
        let t = Expr::base("Part");
        let pid = JoinCondition::on(AttrRef::new("Part", "Pid"), AttrRef::new("Product", "Pid"));
        let a = Expr::join(
            Expr::join(Arc::clone(&p), Arc::clone(&d), did()),
            Arc::clone(&t),
            pid.clone(),
        );
        let b = Expr::join(Arc::clone(&t), Expr::join(d, p, did()), pid);
        assert_eq!(a.semantic_key(), b.semantic_key());
    }

    #[test]
    fn semantic_key_distinguishes_different_predicates() {
        let a = Expr::select(Expr::base("Division"), la());
        let sf = Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "SF");
        let b = Expr::select(Expr::base("Division"), sf);
        assert_ne!(a.semantic_key(), b.semantic_key());
    }

    #[test]
    fn projection_key_is_order_insensitive() {
        let base = Expr::base("Product");
        let a = Expr::project(
            Arc::clone(&base),
            [
                AttrRef::new("Product", "name"),
                AttrRef::new("Product", "Did"),
            ],
        );
        let b = Expr::project(
            base,
            [
                AttrRef::new("Product", "Did"),
                AttrRef::new("Product", "name"),
            ],
        );
        assert_eq!(a.semantic_key(), b.semantic_key());
    }

    #[test]
    fn node_count_and_height() {
        let e = Expr::join(
            Expr::base("Product"),
            Expr::select(Expr::base("Division"), la()),
            did(),
        );
        assert_eq!(e.node_count(), 4);
        assert_eq!(e.height(), 3);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::select(Expr::base("Division"), la());
        assert_eq!(e.to_string(), "σ[Division.city='LA'](Division)");
    }

    #[test]
    fn semantic_hash_agrees_with_semantic_key() {
        // Equal keys ⟹ equal hashes, across every normalisation the key
        // applies; unequal keys get distinct hashes on these small cases.
        let p = Expr::base("Product");
        let d = Expr::base("Division");
        let t = Expr::base("Part");
        let pid = JoinCondition::on(AttrRef::new("Part", "Pid"), AttrRef::new("Product", "Pid"));
        let exprs: Vec<Arc<Expr>> = vec![
            Arc::clone(&p),
            Arc::clone(&d),
            Expr::select(Arc::clone(&d), la()),
            Expr::join(Arc::clone(&p), Arc::clone(&d), did()),
            Expr::join(Arc::clone(&d), Arc::clone(&p), did()), // commuted
            Expr::join(
                Expr::join(Arc::clone(&p), Arc::clone(&d), did()),
                Arc::clone(&t),
                pid.clone(),
            ),
            Expr::join(
                Arc::clone(&t),
                Expr::join(Arc::clone(&d), Arc::clone(&p), did()),
                pid,
            ), // re-associated
            Expr::project(
                Arc::clone(&p),
                [
                    AttrRef::new("Product", "name"),
                    AttrRef::new("Product", "Did"),
                ],
            ),
            Expr::project(
                Arc::clone(&p),
                [
                    AttrRef::new("Product", "Did"),
                    AttrRef::new("Product", "name"),
                ],
            ), // re-ordered projection
        ];
        for a in &exprs {
            for b in &exprs {
                assert_eq!(
                    a.semantic_key() == b.semantic_key(),
                    a.semantic_hash() == b.semantic_hash(),
                    "hash/key disagreement between {a} and {b}"
                );
            }
        }
    }
}
