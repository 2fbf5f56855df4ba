//! Synthetic database generation matched to catalog statistics.
//!
//! Generation writes typed columns directly — no intermediate row tuples.
//! The RNG is still consumed in row-major order (rows outer, attributes
//! inner, exactly one draw per cell), so every seed produces the same data
//! the tuple-building generator did. Text attributes draw from small
//! catalog-derived domains, so they are emitted dictionary-encoded
//! ([`Column::Dict`]): each cell stores a `u32` code and each distinct
//! string is materialised once, in first-appearance order, which keeps the
//! value sequence (and every seeded fixture) identical to the plain-text
//! representation.

use std::collections::HashMap;
use std::sync::Arc;

use mvdesign_algebra::{AttrRef, Value};
use mvdesign_catalog::{AttrType, Catalog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{Batch, Column};
use crate::storage::BufferPool;
use crate::table::{Database, Table};

/// Configuration for [`Generator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
    /// Fraction of each relation's catalog cardinality to generate.
    pub scale: f64,
    /// Hard per-relation row cap (keeps nested-loop tests fast).
    pub max_rows: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            scale: 0.01,
            max_rows: 2_000,
        }
    }
}

/// Generates databases whose value distributions match a catalog:
///
/// * an attribute with selection selectivity `s` draws from a domain of
///   `round(1/s)` values, so an equality predicate keeps ≈`s` of the rows;
/// * the two endpoints of a registered join selectivity `js = 1/d` share a
///   domain of `d` values, so the equi-join yields ≈`|L|·|R|/d` rows;
/// * other attributes draw from a domain the size of the relation.
#[derive(Debug, Clone, Default)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// A generator with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator with explicit configuration.
    pub fn with_config(config: GeneratorConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates one table per catalog relation.
    pub fn database(&self, catalog: &Catalog) -> Database {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let domains = self.domains(catalog);
        let mut db = Database::new();
        for (name, meta) in catalog.iter() {
            let n = ((meta.stats.records * self.config.scale).round() as usize)
                .clamp(1, self.config.max_rows);
            let attrs: Vec<AttrRef> = meta
                .schema
                .attributes()
                .iter()
                .map(|a| AttrRef::new(name.clone(), a.name.clone()))
                .collect();
            let types: Vec<AttrType> = meta.schema.attributes().iter().map(|a| a.ty).collect();
            let doms: Vec<u64> = attrs
                .iter()
                .map(|a| domains.get(a).copied().unwrap_or(n as u64).max(1))
                .collect();
            let mut builders: Vec<ColBuilder> =
                types.iter().map(|ty| ColBuilder::new(*ty, n)).collect();
            for _ in 0..n {
                for (i, b) in builders.iter_mut().enumerate() {
                    b.draw(&mut rng, doms[i]);
                }
            }
            let columns = builders.into_iter().map(|b| Arc::new(b.finish())).collect();
            db.insert_table(Table::from_batch(name.clone(), Batch::new(attrs, columns)));
        }
        db
    }

    /// Generates one table per catalog relation and pages every table into
    /// `pool` (see [`Database::rehome`]). The data is identical to
    /// [`Generator::database`] under the same seed — paging changes
    /// residency, never content — so out-of-core fixtures and benchmarks
    /// share their seeds with the resident ones.
    pub fn paged_database(
        &self,
        catalog: &Catalog,
        pool: &Arc<BufferPool>,
        page_rows: usize,
    ) -> Database {
        let mut db = self.database(catalog);
        db.rehome(Some(pool), page_rows);
        db
    }

    /// Domain size per attribute, derived from selectivities and scaled the
    /// same way cardinalities are (an equality predicate's hit rate is
    /// scale-free; join hit rates must shrink with the data).
    fn domains(&self, catalog: &Catalog) -> HashMap<AttrRef, u64> {
        let mut out = HashMap::new();
        for (name, meta) in catalog.iter() {
            for (attr, s) in &meta.selectivities {
                if *s > 0.0 {
                    out.insert(
                        AttrRef::new(name.clone(), attr.clone()),
                        (1.0 / s).round().max(1.0) as u64,
                    );
                }
            }
        }
        for (key, js) in catalog.join_selectivities() {
            if js <= 0.0 {
                continue;
            }
            // js = 1/d on the *catalog-sized* relations; the generated data
            // is `scale` times smaller, so shrink the shared domain the same
            // way to keep join output cardinalities proportionate.
            let d = ((1.0 / js) * self.config.scale).round().max(2.0) as u64;
            out.insert(key.lo().clone(), d);
            out.insert(key.hi().clone(), d);
        }
        out
    }
}

/// Per-column generation state. Each `draw` makes exactly one `gen_range`
/// call, keeping the RNG stream identical to the old row-building generator;
/// text columns additionally intern each distinct draw into a dictionary
/// (codes in first-appearance order), so memory is bounded by the domain
/// size instead of the row count.
enum ColBuilder {
    Int(Vec<i64>),
    Date(Vec<i64>),
    Dict {
        codes: Vec<u32>,
        by_draw: HashMap<u64, u32>,
        values: Vec<Arc<str>>,
    },
}

impl ColBuilder {
    fn new(ty: AttrType, n: usize) -> Self {
        match ty {
            AttrType::Int => ColBuilder::Int(Vec::with_capacity(n)),
            AttrType::Date => ColBuilder::Date(Vec::with_capacity(n)),
            AttrType::Text => ColBuilder::Dict {
                codes: Vec::with_capacity(n),
                by_draw: HashMap::new(),
                values: Vec::new(),
            },
        }
    }

    fn draw(&mut self, rng: &mut StdRng, domain: u64) {
        let k = rng.gen_range(0..domain.max(1));
        match self {
            ColBuilder::Int(v) => v.push(k as i64),
            ColBuilder::Dict {
                codes,
                by_draw,
                values,
            } => {
                let next = values.len() as u32;
                let code = *by_draw.entry(k).or_insert_with(|| {
                    values.push(Arc::from(format!("v{k}").as_str()));
                    next
                });
                codes.push(code);
            }
            ColBuilder::Date(v) => {
                // Spread across 1996 so `date > 7/1/96` keeps about half.
                let start = match Value::date(1996, 1, 1) {
                    Value::Date(d) => d,
                    _ => unreachable!("Value::date returns Date"),
                };
                let span = 372; // one simplified year
                v.push(start + (k as i64 * span / domain.max(1) as i64));
            }
        }
    }

    fn finish(self) -> Column {
        match self {
            ColBuilder::Int(v) => Column::Int(v),
            ColBuilder::Date(v) => Column::Date(v),
            ColBuilder::Dict { codes, values, .. } => Column::dict(codes, values.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{CompareOp, Expr, JoinCondition, Predicate};
    use mvdesign_catalog::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Div")
            .attr("Did", AttrType::Int)
            .attr("city", AttrType::Text)
            .records(50_000.0)
            .blocks(5_000.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        c.relation("Pd")
            .attr("Pid", AttrType::Int)
            .attr("Did", AttrType::Int)
            .records(100_000.0)
            .blocks(10_000.0)
            .finish()
            .unwrap();
        c.set_join_selectivity(
            AttrRef::new("Pd", "Did"),
            AttrRef::new("Div", "Did"),
            1.0 / 50_000.0,
        )
        .unwrap();
        c
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = catalog();
        let a = Generator::new().database(&c);
        let b = Generator::new().database(&c);
        assert_eq!(a, b);
        let other = Generator::with_config(GeneratorConfig {
            seed: 99,
            ..GeneratorConfig::default()
        })
        .database(&c);
        assert_ne!(a, other);
    }

    #[test]
    fn row_counts_follow_scale() {
        let c = catalog();
        let db = Generator::new().database(&c);
        assert_eq!(db.table("Div").unwrap().len(), 500);
        assert_eq!(db.table("Pd").unwrap().len(), 1_000);
    }

    #[test]
    fn equality_selectivity_is_roughly_honoured() {
        let c = catalog();
        let db = Generator::new().database(&c);
        let e = Expr::select(
            Expr::base("Div"),
            Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "v0"),
        );
        let hits = crate::exec::execute(&e, &db, &crate::ExecContext::default())
            .unwrap()
            .len() as f64;
        let frac = hits / 500.0;
        assert!(
            (0.002..=0.1).contains(&frac),
            "expected ≈2% selectivity, got {frac}"
        );
    }

    #[test]
    fn registered_joins_are_productive() {
        let c = catalog();
        let db = Generator::new().database(&c);
        let e = Expr::join(
            Expr::base("Pd"),
            Expr::base("Div"),
            JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
        );
        let out = crate::exec::execute(&e, &db, &crate::ExecContext::default()).unwrap();
        assert!(!out.is_empty(), "join produced no rows");
        // Expected ≈ |Pd|·|Div|/d = 1000·500/500 = 1000 rows.
        let n = out.len() as f64;
        assert!((100.0..=10_000.0).contains(&n), "join rows: {n}");
    }

    #[test]
    fn text_columns_are_dictionary_encoded() {
        let c = catalog();
        let db = Generator::new().database(&c);
        let div = db.table("Div").unwrap();
        let idx = div
            .attrs()
            .iter()
            .position(|a| a.attr.as_str() == "city")
            .unwrap();
        let col = div.batch().column(idx);
        let values = col.dict_values().expect("generated text is dict-encoded");
        // city has selectivity 0.02 ⇒ a 50-value domain.
        assert!(values.len() <= 50, "dictionary larger than the domain");
        assert!(values.len() > 1, "domain collapsed to one value");
        // The dictionary holds distinct strings and decodes to Text values.
        for i in 0..div.len() {
            assert!(matches!(col.value(i), Value::Text(_)));
        }
    }

    #[test]
    fn paged_database_is_the_resident_database_paged() {
        let c = catalog();
        let resident = Generator::new().database(&c);
        let pool = BufferPool::new(Some(8 * 1024));
        let paged = Generator::new().paged_database(&c, &pool, 64);
        for (name, t) in paged.iter() {
            assert!(t.pool().is_some(), "{name} not paged");
            assert_eq!(Some(t), resident.table(name.as_str()), "{name} differs");
        }
    }

    #[test]
    fn max_rows_caps_generation() {
        let c = catalog();
        let g = Generator::with_config(GeneratorConfig {
            max_rows: 10,
            ..GeneratorConfig::default()
        });
        let db = g.database(&c);
        assert_eq!(db.table("Pd").unwrap().len(), 10);
    }
}
