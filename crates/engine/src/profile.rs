//! Statistics collection: derive a [`Catalog`] from actual data, for users
//! who have tables but no Table-1-style statistics sheet.
//!
//! All statistics read the columnar storage directly: types come from the
//! column representation, distinct counts hash raw `i64`/`str` slices in one
//! pass per column, and measured join selectivities count matches through
//! typed frequency maps — no row materialisation anywhere.

use std::collections::{BTreeMap, HashMap, HashSet};

use mvdesign_algebra::Value;
use mvdesign_catalog::{AttrRef, AttrType, Catalog, CatalogError};

use crate::batch::Column;
use crate::table::Database;

/// Configuration for [`profile_database`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileConfig {
    /// Records per block assumed when converting row counts to block counts.
    pub blocking_factor: f64,
    /// Update frequency assigned to every profiled relation (refine with
    /// [`Catalog::set_update_frequency`] afterwards).
    pub update_frequency: f64,
    /// Detect join selectivities between same-named integer columns of
    /// different relations by actually counting matches.
    pub detect_joins: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            blocking_factor: 10.0,
            update_frequency: 1.0,
            detect_joins: true,
        }
    }
}

/// Builds a catalog whose statistics describe the given database:
///
/// * attribute types are inferred from the data (empty columns type as
///   integers);
/// * record counts are exact; block counts use the configured blocking
///   factor;
/// * each attribute's equality selectivity is `1 / distinct_count`;
/// * when [`ProfileConfig::detect_joins`] is set, same-named columns of
///   different relations get their *measured* join selectivity
///   `matches / (|L|·|R|)`.
///
/// # Errors
///
/// Propagates [`CatalogError`] — in practice only for duplicate relation
/// names, which a [`Database`] cannot contain, so errors indicate a bug.
pub fn profile_database(db: &Database, config: &ProfileConfig) -> Result<Catalog, CatalogError> {
    let mut catalog = Catalog::new();
    for (name, table) in db.iter() {
        let mut builder = catalog.relation(name.clone());
        for (idx, attr) in table.attrs().iter().enumerate() {
            builder = builder.attr(attr.attr.clone(), column_type(table.batch().column(idx)));
        }
        let records = table.len() as f64;
        builder = builder
            .records(records)
            .blocks((records / config.blocking_factor.max(1.0)).ceil())
            .update_frequency(config.update_frequency);
        for (idx, attr) in table.attrs().iter().enumerate() {
            let distinct = distinct_count(table.batch().column(idx));
            if distinct > 0 {
                builder = builder.selectivity(attr.attr.clone(), 1.0 / distinct as f64);
            }
        }
        builder.finish()?;
    }

    if config.detect_joins {
        detect_join_selectivities(db, &mut catalog)?;
    }
    Ok(catalog)
}

/// Infers a column's catalog type from its storage representation. Typed
/// columns carry their type in the variant; a heterogeneous column falls
/// back to its first value, matching what the row engine inferred.
fn column_type(col: &Column) -> AttrType {
    match col {
        Column::Int(_) => AttrType::Int,
        Column::Text(_) | Column::Dict { .. } => AttrType::Text,
        Column::Date(_) => AttrType::Date,
        Column::Mixed(values) => match values.first() {
            Some(Value::Int(_)) | None => AttrType::Int,
            Some(Value::Text(_)) => AttrType::Text,
            Some(Value::Date(_)) => AttrType::Date,
        },
    }
}

/// Distinct values in one pass over the raw column storage. A dictionary
/// column counts its *used* codes — filtered slices may reference only part
/// of the shared value table.
fn distinct_count(col: &Column) -> usize {
    match col {
        Column::Int(v) | Column::Date(v) => v.iter().collect::<HashSet<_>>().len(),
        Column::Text(v) => v.iter().collect::<HashSet<_>>().len(),
        Column::Dict { codes, .. } => codes.iter().collect::<HashSet<_>>().len(),
        Column::Mixed(v) => v.iter().collect::<HashSet<_>>().len(),
    }
}

fn detect_join_selectivities(db: &Database, catalog: &mut Catalog) -> Result<(), CatalogError> {
    // Group joinable (integer or text) columns by attribute name; keep
    // (relation, attr, column, type) and only pair same-typed columns.
    type KeyColumn<'a> = (
        &'a mvdesign_catalog::RelName,
        &'a AttrRef,
        &'a Column,
        AttrType,
    );
    let mut by_name: BTreeMap<&str, Vec<KeyColumn<'_>>> = BTreeMap::new();
    for (name, table) in db.iter() {
        for (idx, attr) in table.attrs().iter().enumerate() {
            let col = table.batch().column(idx);
            let ty = column_type(col);
            if matches!(ty, AttrType::Int | AttrType::Text) {
                by_name
                    .entry(attr.attr.as_str())
                    .or_default()
                    .push((name, attr, col, ty));
            }
        }
    }
    for columns in by_name.values() {
        for (i, (ln, la, lc, lt)) in columns.iter().enumerate() {
            for (rn, ra, rc, rt) in &columns[i + 1..] {
                if ln == rn || lt != rt || lc.is_empty() || rc.is_empty() {
                    continue;
                }
                let matches = count_matches(lc, rc);
                if matches == 0.0 {
                    continue;
                }
                let js = matches / (lc.len() as f64 * rc.len() as f64);
                let a = AttrRef::new((*ln).clone(), la.attr.clone());
                let b = AttrRef::new((*rn).clone(), ra.attr.clone());
                catalog.set_join_selectivity(a, b, js.min(1.0))?;
            }
        }
    }
    Ok(())
}

/// Σ over right values of the left value's frequency — the number of
/// equi-join matches. Two `Int` columns count through a raw `i64` map; two
/// dictionary columns count through code frequency vectors, translating
/// each right *dictionary entry* (not each row) into the left code space,
/// so the cost is `O(|L| + |R| + |dicts|)` with no per-row string work.
fn count_matches(lc: &Column, rc: &Column) -> f64 {
    match (lc, rc) {
        (Column::Int(a), Column::Int(b)) => {
            let mut freq: HashMap<i64, f64> = HashMap::with_capacity(a.len());
            for &x in a {
                *freq.entry(x).or_insert(0.0) += 1.0;
            }
            b.iter().map(|x| freq.get(x).copied().unwrap_or(0.0)).sum()
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
            let mut freq = vec![0.0f64; va.len()];
            for &c in a {
                freq[c as usize] += 1.0;
            }
            if std::sync::Arc::ptr_eq(va, vb) {
                return b.iter().map(|&c| freq[c as usize]).sum();
            }
            let by_str: HashMap<&str, usize> =
                va.iter().enumerate().map(|(i, s)| (&**s, i)).collect();
            let translated: Vec<f64> = vb
                .iter()
                .map(|s| by_str.get(&**s).map_or(0.0, |&i| freq[i]))
                .collect();
            b.iter().map(|&c| translated[c as usize]).sum()
        }
        (Column::Text(_) | Column::Dict { .. }, Column::Text(_) | Column::Dict { .. }) => {
            // Mixed text representations: one `&str` frequency map, no
            // `Value` allocation.
            let mut freq: HashMap<&str, f64> = HashMap::with_capacity(lc.len());
            for i in 0..lc.len() {
                if let Some(s) = lc.str_at(i) {
                    *freq.entry(s).or_insert(0.0) += 1.0;
                }
            }
            (0..rc.len())
                .map(|j| {
                    rc.str_at(j)
                        .and_then(|s| freq.get(s).copied())
                        .unwrap_or(0.0)
                })
                .sum()
        }
        _ => {
            let mut freq: HashMap<Value, f64> = HashMap::new();
            for i in 0..lc.len() {
                *freq.entry(lc.value(i)).or_insert(0.0) += 1.0;
            }
            (0..rc.len())
                .map(|j| freq.get(&rc.value(j)).copied().unwrap_or(0.0))
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use mvdesign_algebra::AttrRef;

    fn db() -> Database {
        let mut db = Database::new();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::text(format!("c{}", i % 4)),
                ]
            })
            .collect();
        db.insert_table(Table::new(
            "Fact",
            [
                AttrRef::new("Fact", "id"),
                AttrRef::new("Fact", "dim"),
                AttrRef::new("Fact", "cat"),
            ],
            rows,
        ));
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::text(format!("d{i}"))])
            .collect();
        db.insert_table(Table::new(
            "Dim",
            [AttrRef::new("Dim", "dim"), AttrRef::new("Dim", "label")],
            rows,
        ));
        db
    }

    #[test]
    fn profiles_sizes_and_types() {
        let c = profile_database(&db(), &ProfileConfig::default()).expect("profiles");
        assert_eq!(c.stats("Fact").unwrap().records, 100.0);
        assert_eq!(c.stats("Fact").unwrap().blocks, 10.0);
        let schema = c.schema("Fact").unwrap();
        assert_eq!(schema.attribute("cat").unwrap().ty, AttrType::Text);
        assert_eq!(schema.attribute("dim").unwrap().ty, AttrType::Int);
    }

    #[test]
    fn selectivities_are_reciprocal_distinct_counts() {
        let c = profile_database(&db(), &ProfileConfig::default()).expect("profiles");
        assert!((c.selectivity("Fact", "cat") - 0.25).abs() < 1e-12);
        assert!((c.selectivity("Fact", "dim") - 0.1).abs() < 1e-12);
        assert!((c.selectivity("Fact", "id") - 0.01).abs() < 1e-12);
    }

    #[test]
    fn join_selectivity_is_measured_exactly() {
        let c = profile_database(&db(), &ProfileConfig::default()).expect("profiles");
        // Every Fact row matches exactly one Dim row: 100 matches over
        // 100 × 10 pairs.
        let js = c
            .join_selectivity(&AttrRef::new("Fact", "dim"), &AttrRef::new("Dim", "dim"))
            .expect("detected");
        assert!((js - 0.1).abs() < 1e-12);
    }

    #[test]
    fn join_detection_can_be_disabled() {
        let c = profile_database(
            &db(),
            &ProfileConfig {
                detect_joins: false,
                ..ProfileConfig::default()
            },
        )
        .expect("profiles");
        assert!(c
            .join_selectivity(&AttrRef::new("Fact", "dim"), &AttrRef::new("Dim", "dim"))
            .is_none());
    }

    #[test]
    fn profiled_catalog_estimates_match_reality() {
        use mvdesign_algebra::{CompareOp, Expr, Predicate};
        let database = db();
        let c = profile_database(&database, &ProfileConfig::default()).expect("profiles");
        // Estimated selection output vs actual row count.
        let q = Expr::select(
            Expr::base("Fact"),
            Predicate::cmp(AttrRef::new("Fact", "cat"), CompareOp::Eq, "c1"),
        );
        let est = mvdesign_catalog::RelationStats::new(
            c.stats("Fact").unwrap().records * c.selectivity("Fact", "cat"),
            0.0,
        );
        let actual = crate::exec::execute(&q, &database, &crate::ExecContext::default())
            .expect("executes")
            .len() as f64;
        assert!(
            (est.records - actual).abs() <= 1.0,
            "est {} vs actual {actual}",
            est.records
        );
    }

    #[test]
    fn empty_tables_profile_without_panicking() {
        let mut database = Database::new();
        database.insert_table(Table::new("Empty", [AttrRef::new("Empty", "x")], vec![]));
        let c = profile_database(&database, &ProfileConfig::default()).expect("profiles");
        assert_eq!(c.stats("Empty").unwrap().records, 0.0);
        assert_eq!(
            c.schema("Empty").unwrap().attribute("x").unwrap().ty,
            AttrType::Int
        );
    }
}
