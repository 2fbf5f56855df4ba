//! Fluent builder for registering relations (C-BUILDER).

use std::collections::BTreeMap;

use crate::error::CatalogError;
use crate::names::{AttrName, RelName};
use crate::registry::{Catalog, RelationMeta};
use crate::schema::{AttrType, Attribute, RelationSchema};
use crate::stats::RelationStats;

/// Incrementally configures a relation and registers it in a [`Catalog`].
///
/// Created by [`Catalog::relation`]; consumed by [`RelationBuilder::finish`].
///
/// ```
/// use mvdesign_catalog::{Catalog, AttrType};
///
/// let mut catalog = Catalog::new();
/// catalog
///     .relation("Order")
///     .attr("Pid", AttrType::Int)
///     .attr("Cid", AttrType::Int)
///     .attr("quantity", AttrType::Int)
///     .attr("date", AttrType::Date)
///     .records(50_000.0)
///     .blocks(6_000.0)
///     .update_frequency(1.0)
///     .selectivity("quantity", 0.5)
///     .selectivity("date", 0.5)
///     .finish()?;
/// # Ok::<(), mvdesign_catalog::CatalogError>(())
/// ```
#[derive(Debug)]
#[must_use = "call `.finish()` to register the relation"]
pub struct RelationBuilder<'c> {
    catalog: &'c mut Catalog,
    name: RelName,
    attributes: Vec<Attribute>,
    records: f64,
    blocks: f64,
    update_frequency: f64,
    transfer_cost: f64,
    selectivities: BTreeMap<AttrName, f64>,
}

impl<'c> RelationBuilder<'c> {
    pub(crate) fn new(catalog: &'c mut Catalog, name: RelName) -> Self {
        Self {
            catalog,
            name,
            attributes: Vec::new(),
            records: 0.0,
            blocks: 0.0,
            update_frequency: 0.0,
            transfer_cost: 0.0,
            selectivities: BTreeMap::new(),
        }
    }

    /// Appends an attribute.
    pub fn attr(mut self, name: impl Into<AttrName>, ty: AttrType) -> Self {
        self.attributes.push(Attribute::new(name, ty));
        self
    }

    /// Sets the record count.
    pub fn records(mut self, records: f64) -> Self {
        self.records = records;
        self
    }

    /// Sets the block count.
    pub fn blocks(mut self, blocks: f64) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the update frequency `fu` (updates per unit period).
    pub fn update_frequency(mut self, fu: f64) -> Self {
        self.update_frequency = fu;
        self
    }

    /// Sets the per-block cost of shipping the relation to the warehouse
    /// (default `0`: the relation is local).
    pub fn transfer_cost(mut self, t: f64) -> Self {
        self.transfer_cost = t;
        self
    }

    /// Sets the selection selectivity of an attribute.
    pub fn selectivity(mut self, attr: impl Into<AttrName>, s: f64) -> Self {
        self.selectivities.insert(attr.into(), s);
        self
    }

    /// Registers the relation in the catalog.
    ///
    /// # Errors
    ///
    /// Propagates every validation error of [`Catalog::insert_relation`]:
    /// duplicate relation or attribute names, unknown selectivity targets,
    /// out-of-range selectivities, frequencies or transfer costs, and
    /// negative, non-finite or inconsistent (`records > 0` with
    /// `blocks <= 0`) physical statistics.
    pub fn finish(self) -> Result<(), CatalogError> {
        Catalog::validate_stats(self.records, self.blocks)?;
        let meta = RelationMeta {
            schema: RelationSchema::new(self.name, self.attributes),
            stats: RelationStats::new(self.records, self.blocks),
            update_frequency: self.update_frequency,
            transfer_cost: self.transfer_cost,
            selectivities: self.selectivities,
        };
        self.catalog.insert_relation(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_registers_relation() {
        let mut c = Catalog::new();
        c.relation("Part")
            .attr("Tid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("Pid", AttrType::Int)
            .attr("supplier", AttrType::Text)
            .records(80_000.0)
            .blocks(10_000.0)
            .update_frequency(1.0)
            .finish()
            .unwrap();
        let m = c.meta("Part").unwrap();
        assert_eq!(m.schema.arity(), 4);
        assert_eq!(m.stats.records, 80_000.0);
        assert_eq!(m.update_frequency, 1.0);
    }

    #[test]
    fn builder_rejects_selectivity_on_unknown_attribute() {
        let mut c = Catalog::new();
        let err = c
            .relation("R")
            .attr("a", AttrType::Int)
            .selectivity("ghost", 0.5)
            .finish()
            .unwrap_err();
        assert!(matches!(err, CatalogError::UnknownAttribute(..)));
    }

    #[test]
    fn builder_rejects_out_of_range_selectivity() {
        let mut c = Catalog::new();
        let err = c
            .relation("R")
            .attr("a", AttrType::Int)
            .selectivity("a", 1.5)
            .finish()
            .unwrap_err();
        assert!(matches!(err, CatalogError::InvalidValue { .. }));
    }

    #[test]
    fn builder_rejects_negative_and_non_finite_records() {
        for records in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = Catalog::new();
            let err = c
                .relation("R")
                .attr("a", AttrType::Int)
                .records(records)
                .blocks(10.0)
                .finish()
                .unwrap_err();
            assert!(matches!(
                err,
                CatalogError::InvalidValue {
                    what: "record count",
                    ..
                }
            ));
        }
    }

    #[test]
    fn builder_rejects_zero_blocks_for_populated_relation() {
        let mut c = Catalog::new();
        let err = c
            .relation("R")
            .attr("a", AttrType::Int)
            .records(100.0)
            .blocks(0.0)
            .finish()
            .unwrap_err();
        assert!(matches!(
            err,
            CatalogError::InvalidValue {
                what: "block count (zero blocks for a populated relation)",
                ..
            }
        ));
    }

    #[test]
    fn builder_accepts_fully_empty_relation() {
        let mut c = Catalog::new();
        c.relation("Empty")
            .attr("a", AttrType::Int)
            .records(0.0)
            .blocks(0.0)
            .finish()
            .expect("(0 records, 0 blocks) stays legal");
        assert_eq!(c.meta("Empty").unwrap().stats.records, 0.0);
    }

    #[test]
    fn builder_sets_and_validates_transfer_cost() {
        let mut c = Catalog::new();
        c.relation("R")
            .attr("a", AttrType::Int)
            .transfer_cost(4.0)
            .finish()
            .unwrap();
        assert_eq!(c.meta("R").unwrap().transfer_cost, 4.0);
        let err = c
            .relation("S")
            .attr("a", AttrType::Int)
            .transfer_cost(-1.0)
            .finish()
            .unwrap_err();
        assert!(matches!(
            err,
            CatalogError::InvalidValue {
                what: "transfer cost",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_negative_update_frequency() {
        let mut c = Catalog::new();
        let err = c
            .relation("R")
            .attr("a", AttrType::Int)
            .update_frequency(-2.0)
            .finish()
            .unwrap_err();
        assert!(matches!(
            err,
            CatalogError::InvalidValue {
                what: "update frequency",
                ..
            }
        ));
    }
}
