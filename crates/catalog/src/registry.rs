//! The [`Catalog`] itself: a registry of relations plus cross-relation
//! statistics (join selectivities and joint-size overrides).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::builder::RelationBuilder;
use crate::error::CatalogError;
use crate::names::{AttrName, AttrRef, RelName};
use crate::schema::RelationSchema;
use crate::stats::RelationStats;

/// Everything the catalog knows about one base relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationMeta {
    /// The relation's schema.
    pub schema: RelationSchema,
    /// Physical statistics.
    pub stats: RelationStats,
    /// How often the relation is updated per unit period (`fu` in the paper).
    pub update_frequency: f64,
    /// Cost per block of shipping the relation to the warehouse (§4.1's
    /// "data transferring among different sites"); `0` means local.
    pub transfer_cost: f64,
    /// Per-attribute selection selectivities (fraction of rows kept by a
    /// selection on that attribute).
    pub selectivities: BTreeMap<AttrName, f64>,
}

/// A canonical, order-insensitive key for a join between two attributes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JoinKey {
    lo: AttrRef,
    hi: AttrRef,
}

impl JoinKey {
    /// Creates a key; `JoinKey::new(a, b) == JoinKey::new(b, a)`.
    pub fn new(a: AttrRef, b: AttrRef) -> Self {
        if a <= b {
            Self { lo: a, hi: b }
        } else {
            Self { lo: b, hi: a }
        }
    }

    /// The lexicographically smaller endpoint.
    pub fn lo(&self) -> &AttrRef {
        &self.lo
    }

    /// The lexicographically larger endpoint.
    pub fn hi(&self) -> &AttrRef {
        &self.hi
    }
}

/// An explicitly-stated size for the join of a set of base relations.
///
/// The paper's Table 1 lists `Product ⋈ Division = 30k records / 5k blocks`
/// and similar joint sizes directly; the worked example uses those numbers
/// rather than deriving them from selectivities. Overrides let the estimator
/// reproduce that behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeOverride {
    /// Stated statistics for the joint result.
    pub stats: RelationStats,
}

/// The catalog: relations, their statistics, and cross-relation metadata.
///
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    relations: BTreeMap<RelName, RelationMeta>,
    join_selectivities: BTreeMap<JoinKey, f64>,
    size_overrides: BTreeMap<BTreeSet<RelName>, SizeOverride>,
    indexes: BTreeMap<RelName, BTreeSet<AttrName>>,
    default_selectivity: f64,
}

/// Default selection selectivity when an attribute has none registered.
///
/// `1/10` is the classic System-R guess for an equality predicate with no
/// statistics.
pub const DEFAULT_SELECTIVITY: f64 = 0.1;

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self {
            relations: BTreeMap::new(),
            join_selectivities: BTreeMap::new(),
            size_overrides: BTreeMap::new(),
            indexes: BTreeMap::new(),
            default_selectivity: DEFAULT_SELECTIVITY,
        }
    }

    /// Starts building a relation with the given name; call
    /// [`RelationBuilder::finish`] to register it.
    pub fn relation(&mut self, name: impl Into<RelName>) -> RelationBuilder<'_> {
        RelationBuilder::new(self, name.into())
    }

    /// Validates physical statistics before they reach the cost model.
    ///
    /// Rejects negative or non-finite counts, and the inconsistent case of a
    /// populated relation occupying no blocks (`records > 0, blocks <= 0`),
    /// which would otherwise divide by zero inside the paper cost model. The
    /// fully-empty `(0, 0)` relation stays legal.
    pub(crate) fn validate_stats(records: f64, blocks: f64) -> Result<(), CatalogError> {
        if !(records.is_finite() && records >= 0.0) {
            return Err(CatalogError::InvalidValue {
                what: "record count",
                value: records,
            });
        }
        if !(blocks.is_finite() && blocks >= 0.0) {
            return Err(CatalogError::InvalidValue {
                what: "block count",
                value: blocks,
            });
        }
        if records > 0.0 && blocks <= 0.0 {
            return Err(CatalogError::InvalidValue {
                what: "block count (zero blocks for a populated relation)",
                value: blocks,
            });
        }
        Ok(())
    }

    /// Registers a fully-formed relation.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already registered, the schema has
    /// duplicate attributes, a selectivity references an unknown attribute or
    /// lies outside `[0, 1]`, the update frequency or transfer cost is
    /// negative, or the statistics are negative, non-finite or inconsistent
    /// (`records > 0` with `blocks <= 0`).
    pub fn insert_relation(&mut self, meta: RelationMeta) -> Result<(), CatalogError> {
        let name = meta.schema.name().clone();
        if self.relations.contains_key(&name) {
            return Err(CatalogError::DuplicateRelation(name));
        }
        if let Some(dup) = meta.schema.first_duplicate() {
            return Err(CatalogError::DuplicateAttribute(name, dup.clone()));
        }
        Self::validate_stats(meta.stats.records, meta.stats.blocks)?;
        validate_non_negative("update frequency", meta.update_frequency)?;
        validate_non_negative("transfer cost", meta.transfer_cost)?;
        for (attr, s) in &meta.selectivities {
            if !meta.schema.contains(attr.as_str()) {
                return Err(CatalogError::UnknownAttribute(name, attr.clone()));
            }
            if !(s.is_finite() && (0.0..=1.0).contains(s)) {
                return Err(CatalogError::InvalidValue {
                    what: "selectivity",
                    value: *s,
                });
            }
        }
        self.relations.insert(name, meta);
        Ok(())
    }

    /// Looks up a relation's metadata.
    pub fn meta(&self, name: &str) -> Option<&RelationMeta> {
        self.relations.get(name)
    }

    /// Looks up a relation's schema.
    pub fn schema(&self, name: &str) -> Option<&RelationSchema> {
        self.meta(name).map(|m| &m.schema)
    }

    /// Looks up a relation's statistics.
    pub fn stats(&self, name: &str) -> Option<&RelationStats> {
        self.meta(name).map(|m| &m.stats)
    }

    /// A relation's update frequency, `0.0` if unknown.
    pub fn update_frequency(&self, name: &str) -> f64 {
        self.meta(name).map_or(0.0, |m| m.update_frequency)
    }

    /// Overwrites a relation's update frequency (for sensitivity sweeps).
    ///
    /// # Errors
    ///
    /// Returns an error if the relation is unknown or the frequency is
    /// negative/not finite.
    pub fn set_update_frequency(&mut self, name: &str, fu: f64) -> Result<(), CatalogError> {
        validate_non_negative("update frequency", fu)?;
        self.meta_mut(name)?.update_frequency = fu;
        Ok(())
    }

    /// A relation's per-block cost of shipping to the warehouse, `0.0` (local)
    /// if unknown.
    pub fn transfer_cost(&self, name: &str) -> f64 {
        self.meta(name).map_or(0.0, |m| m.transfer_cost)
    }

    /// Overwrites a relation's per-block transfer cost.
    ///
    /// # Errors
    ///
    /// Returns an error if the relation is unknown or the cost is
    /// negative/not finite.
    pub fn set_transfer_cost(&mut self, name: &str, t: f64) -> Result<(), CatalogError> {
        validate_non_negative("transfer cost", t)?;
        self.meta_mut(name)?.transfer_cost = t;
        Ok(())
    }

    fn meta_mut(&mut self, name: &str) -> Result<&mut RelationMeta, CatalogError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| CatalogError::UnknownRelation(RelName::new(name)))
    }

    /// Iterates over all registered relations in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&RelName, &RelationMeta)> {
        self.relations.iter()
    }

    /// Names of all registered relations, in order.
    pub fn relation_names(&self) -> impl Iterator<Item = &RelName> {
        self.relations.keys()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The fallback selectivity used when an attribute has none registered.
    pub fn default_selectivity(&self) -> f64 {
        self.default_selectivity
    }

    /// Overrides the fallback selectivity.
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is outside `[0, 1]`.
    pub fn set_default_selectivity(&mut self, s: f64) -> Result<(), CatalogError> {
        if !(s.is_finite() && (0.0..=1.0).contains(&s)) {
            return Err(CatalogError::InvalidValue {
                what: "default selectivity",
                value: s,
            });
        }
        self.default_selectivity = s;
        Ok(())
    }

    /// Selection selectivity for `relation.attr`, falling back to the
    /// catalog default when not registered.
    pub fn selectivity(&self, relation: &str, attr: &str) -> f64 {
        self.meta(relation)
            .and_then(|m| m.selectivities.get(attr).copied())
            .unwrap_or(self.default_selectivity)
    }

    /// Registers the join selectivity between two attributes.
    ///
    /// The key is symmetric: registering `(a, b)` also answers `(b, a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown or `js` is outside
    /// `[0, 1]`.
    pub fn set_join_selectivity(
        &mut self,
        a: AttrRef,
        b: AttrRef,
        js: f64,
    ) -> Result<(), CatalogError> {
        for end in [&a, &b] {
            let meta = self
                .meta(end.relation.as_str())
                .ok_or_else(|| CatalogError::UnknownRelation(end.relation.clone()))?;
            if !meta.schema.contains(end.attr.as_str()) {
                return Err(CatalogError::UnknownAttribute(
                    end.relation.clone(),
                    end.attr.clone(),
                ));
            }
        }
        if !(js.is_finite() && (0.0..=1.0).contains(&js)) {
            return Err(CatalogError::InvalidValue {
                what: "join selectivity",
                value: js,
            });
        }
        self.join_selectivities.insert(JoinKey::new(a, b), js);
        Ok(())
    }

    /// Join selectivity between two attributes, if registered.
    pub fn join_selectivity(&self, a: &AttrRef, b: &AttrRef) -> Option<f64> {
        self.join_selectivities
            .get(&JoinKey::new(a.clone(), b.clone()))
            .copied()
    }

    /// Iterates over every registered join selectivity.
    pub fn join_selectivities(&self) -> impl Iterator<Item = (&JoinKey, f64)> {
        self.join_selectivities.iter().map(|(k, v)| (k, *v))
    }

    /// Join selectivity with the System-R fallback `1 / max(|R|, |S|)`.
    pub fn join_selectivity_or_default(&self, a: &AttrRef, b: &AttrRef) -> f64 {
        self.join_selectivity(a, b).unwrap_or_else(|| {
            let ra = self.stats(a.relation.as_str()).map_or(1.0, |s| s.records);
            let rb = self.stats(b.relation.as_str()).map_or(1.0, |s| s.records);
            1.0 / ra.max(rb).max(1.0)
        })
    }

    /// States the joint size of the natural join of a set of base relations
    /// (Table 1's `Product ⋈ Division = 30k records / 5k blocks` rows).
    ///
    /// # Errors
    ///
    /// Returns an error if any named relation is unknown.
    pub fn set_size_override(
        &mut self,
        relations: impl IntoIterator<Item = RelName>,
        stats: RelationStats,
    ) -> Result<(), CatalogError> {
        let set: BTreeSet<RelName> = relations.into_iter().collect();
        for r in &set {
            if !self.relations.contains_key(r) {
                return Err(CatalogError::UnknownRelation(r.clone()));
            }
        }
        self.size_overrides.insert(set, SizeOverride { stats });
        Ok(())
    }

    /// Looks up a stated joint size for exactly this set of base relations.
    pub fn size_override(&self, relations: &BTreeSet<RelName>) -> Option<&SizeOverride> {
        self.size_overrides.get(relations)
    }

    /// Iterates over all stated joint sizes.
    pub fn size_overrides(&self) -> impl Iterator<Item = (&BTreeSet<RelName>, &SizeOverride)> {
        self.size_overrides.iter()
    }

    /// Declares an index on `relation.attr` — the paper's §3.2 observation
    /// that "we can establish a proper index" applies to base relations as
    /// well: indexed selections probe instead of scanning.
    ///
    /// # Errors
    ///
    /// Returns an error if the relation or attribute is unknown.
    pub fn add_index(
        &mut self,
        relation: impl Into<RelName>,
        attr: impl Into<AttrName>,
    ) -> Result<(), CatalogError> {
        let relation = relation.into();
        let attr = attr.into();
        let meta = self
            .meta(relation.as_str())
            .ok_or_else(|| CatalogError::UnknownRelation(relation.clone()))?;
        if !meta.schema.contains(attr.as_str()) {
            return Err(CatalogError::UnknownAttribute(relation, attr));
        }
        self.indexes.entry(relation).or_default().insert(attr);
        Ok(())
    }

    /// Whether `relation.attr` has a declared index.
    pub fn has_index(&self, relation: &str, attr: &str) -> bool {
        self.indexes
            .get(relation)
            .is_some_and(|set| set.contains(attr))
    }

    /// Iterates over all declared indexes.
    pub fn indexes(&self) -> impl Iterator<Item = (&RelName, &BTreeSet<AttrName>)> {
        self.indexes.iter()
    }
}

/// Rejects a negative or non-finite per-relation figure.
fn validate_non_negative(what: &'static str, value: f64) -> Result<(), CatalogError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(CatalogError::InvalidValue { what, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Attribute};

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Product")
            .attr("Pid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Did", AttrType::Int)
            .records(30_000.0)
            .blocks(3_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        c.relation("Division")
            .attr("Did", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .update_frequency(1.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut c = sample();
        let err = c
            .relation("Product")
            .attr("x", AttrType::Int)
            .finish()
            .unwrap_err();
        assert_eq!(
            err,
            CatalogError::DuplicateRelation(RelName::new("Product"))
        );
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut c = Catalog::new();
        let meta = RelationMeta {
            schema: RelationSchema::new(
                "R",
                vec![
                    Attribute::new("a", AttrType::Int),
                    Attribute::new("a", AttrType::Int),
                ],
            ),
            stats: RelationStats::empty(),
            update_frequency: 0.0,
            transfer_cost: 0.0,
            selectivities: BTreeMap::new(),
        };
        assert!(matches!(
            c.insert_relation(meta),
            Err(CatalogError::DuplicateAttribute(..))
        ));
    }

    #[test]
    fn selectivity_falls_back_to_default() {
        let c = sample();
        assert_eq!(c.selectivity("Division", "city"), 0.02);
        assert_eq!(c.selectivity("Division", "name"), DEFAULT_SELECTIVITY);
        assert_eq!(c.selectivity("Nope", "x"), DEFAULT_SELECTIVITY);
    }

    #[test]
    fn join_selectivity_is_symmetric() {
        let mut c = sample();
        let a = AttrRef::new("Product", "Did");
        let b = AttrRef::new("Division", "Did");
        c.set_join_selectivity(a.clone(), b.clone(), 1.0 / 5_000.0)
            .unwrap();
        assert_eq!(c.join_selectivity(&b, &a), Some(1.0 / 5_000.0));
    }

    #[test]
    fn join_selectivity_default_uses_larger_cardinality() {
        let c = sample();
        let a = AttrRef::new("Product", "Did");
        let b = AttrRef::new("Division", "Did");
        assert_eq!(c.join_selectivity_or_default(&a, &b), 1.0 / 30_000.0);
    }

    #[test]
    fn join_selectivity_rejects_unknown_attribute() {
        let mut c = sample();
        let err = c
            .set_join_selectivity(
                AttrRef::new("Product", "nope"),
                AttrRef::new("Division", "Did"),
                0.5,
            )
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownAttribute(..)));
    }

    #[test]
    fn size_override_round_trips() {
        let mut c = sample();
        c.set_size_override(
            [RelName::new("Product"), RelName::new("Division")],
            RelationStats::new(30_000.0, 5_000.0),
        )
        .unwrap();
        let key: BTreeSet<_> = [RelName::new("Division"), RelName::new("Product")]
            .into_iter()
            .collect();
        assert_eq!(c.size_override(&key).unwrap().stats.blocks, 5_000.0);
    }

    #[test]
    fn transfer_cost_defaults_to_local_and_rejects_bad_values() {
        let mut c = sample();
        assert_eq!(c.transfer_cost("Product"), 0.0);
        assert_eq!(c.transfer_cost("Ghost"), 0.0);
        c.set_transfer_cost("Product", 3.0).unwrap();
        assert_eq!(c.transfer_cost("Product"), 3.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                c.set_transfer_cost("Product", bad),
                Err(CatalogError::InvalidValue {
                    what: "transfer cost",
                    ..
                })
            ));
        }
        assert_eq!(
            c.set_transfer_cost("Ghost", 1.0),
            Err(CatalogError::UnknownRelation(RelName::new("Ghost")))
        );
        assert_eq!(c.transfer_cost("Product"), 3.0);
    }

    #[test]
    fn size_override_unknown_relation_rejected() {
        let mut c = sample();
        let err = c
            .set_size_override([RelName::new("Ghost")], RelationStats::empty())
            .unwrap_err();
        assert_eq!(err, CatalogError::UnknownRelation(RelName::new("Ghost")));
    }
}
