//! Statistics collection: the [`Catalog`] a set of plans is estimated by
//! over a database, read from the tables' pages (never `Table::batch()`,
//! which would gather a paged table into one batch).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use mvdesign_algebra::{postorder, Expr, Value};
use mvdesign_catalog::{AttrRef, AttrType, Catalog};

use crate::batch::Column;
use crate::table::{Database, Table};

/// Records per block of a profiled relation's block count.
const RECORDS_PER_BLOCK: f64 = 10.0;

/// Builds the catalog `plans` are estimated by over `db`:
///
/// * every relation the plans scan that `db` holds, with its own
///   attributes (typed by their column representation; an empty column
///   types as an integer), its exact row count, `⌈rows / 10⌉` blocks and
///   update frequency 1 (a profile cannot know it: refine with
///   [`Catalog::set_update_frequency`]);
/// * for each attribute of those the plans group by, join on or filter on,
///   the equality selectivity `1 / V(a)`, with `V(a)` its distinct values;
/// * for each pair the plans join on, the join selectivity
///   `1 / max(V(a), V(b))`.
///
/// Nothing else is counted: any other attribute takes the catalog's
/// default selectivity and any other pair the `1 / max(|R|, |S|)` fallback.
pub fn profile_database<'a>(
    db: &Database,
    plans: impl IntoIterator<Item = &'a Arc<Expr>>,
) -> Catalog {
    let mut scanned = BTreeSet::new();
    let mut read = BTreeSet::new();
    let mut pairs = BTreeSet::new();
    for plan in plans {
        postorder(plan, &mut |e| match &**e {
            Expr::Base(name) => {
                scanned.insert(name.clone());
            }
            Expr::Select { predicate, .. } => read.extend(predicate.attrs().into_iter().cloned()),
            Expr::Join { on, .. } => pairs.extend(on.pairs().iter().cloned()),
            Expr::Aggregate { group_by, .. } => read.extend(group_by.iter().cloned()),
            Expr::Project { .. } => {}
        });
    }
    read.extend(pairs.iter().flat_map(|(a, b)| [a.clone(), b.clone()]));
    let distinct: BTreeMap<&AttrRef, f64> = read
        .iter()
        .filter(|a| scanned.contains(&a.relation))
        .filter_map(|a| {
            let table = db.table(a.relation.as_str())?;
            Some((a, count_distinct(table, table.index_of(a)?) as f64))
        })
        .collect();
    let mut catalog = Catalog::new();
    for (name, table) in scanned
        .iter()
        .filter_map(|n| Some((n, db.table(n.as_str())?)))
    {
        let mut builder = catalog.relation(name.clone());
        for (col, attr) in table.attrs().iter().enumerate() {
            if attr.relation == *name {
                builder = builder.attr(attr.attr.clone(), column_type(table, col));
                if let Some(&v) = distinct.get(attr).filter(|&&v| v > 0.0) {
                    builder = builder.selectivity(attr.attr.clone(), 1.0 / v);
                }
            }
        }
        let records = table.len() as f64;
        builder
            .records(records)
            .blocks((records / RECORDS_PER_BLOCK).ceil())
            .update_frequency(1.0)
            .finish()
            .expect("a table's own attributes and sizes register");
    }
    for (a, b) in pairs {
        if let (Some(&va), Some(&vb)) = (distinct.get(&a), distinct.get(&b)) {
            catalog
                .set_join_selectivity(a, b, 1.0 / va.max(vb).max(1.0))
                .expect("both attributes are registered");
        }
    }
    catalog
}

/// Infers a column's catalog type from its first page's representation.
/// Typed columns carry their type in the variant; a heterogeneous column
/// falls back to its first value.
fn column_type(table: &Table, col: usize) -> AttrType {
    let pages = table.pages();
    if pages.page_count() == 0 {
        return AttrType::Int;
    }
    match &*pages.page(col, 0) {
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

/// Distinct values in column `col` of `table`, read page by page. A
/// column of integers, dates or dictionary codes (which index a table of
/// distinct values) is counted by its [`Keys`]: in a bitmap over their
/// range when it is at most 64 slots per row (the keys of a generated or
/// loaded table are dense), by a sort otherwise. Any other column is
/// counted in a hash set of its values.
fn count_distinct(table: &Table, col: usize) -> usize {
    let pages = table.pages();
    let columns = || (0..pages.page_count()).map(|p| pages.page(col, p));
    let (mut low, mut high, mut rows) = (i64::MAX, i64::MIN, 0_usize);
    for column in columns() {
        let Some(keys) = Keys::of(&column) else {
            let values = columns().flat_map(|c| (0..c.len()).map(move |i| c.value(i)));
            return values.collect::<HashSet<Value>>().len();
        };
        if let Some((page_low, page_high)) = keys.range() {
            low = low.min(page_low);
            high = high.max(page_high);
        }
        rows += column.len();
    }
    if rows == 0 {
        return 0;
    }
    let span = high.abs_diff(low);
    if span / 64 < rows as u64 {
        let mut bits = vec![0_u64; (span / 64) as usize + 1];
        for column in columns() {
            Keys::of(&column).expect("a key column").for_each(|key| {
                let slot = key.abs_diff(low);
                bits[(slot / 64) as usize] |= 1 << (slot % 64);
            });
        }
        return bits.iter().map(|word| word.count_ones() as usize).sum();
    }
    let mut keys = Vec::with_capacity(rows);
    for column in columns() {
        Keys::of(&column)
            .expect("a key column")
            .for_each(|key| keys.push(key));
    }
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// The keys of a page of integers, dates or dictionary codes.
enum Keys<'a> {
    Ints(&'a [i64]),
    Codes(&'a [u32]),
}

impl<'a> Keys<'a> {
    /// `None` for a page of text or mixed values.
    fn of(column: &'a Column) -> Option<Self> {
        match column {
            Column::Int(values) | Column::Date(values) => Some(Keys::Ints(values)),
            Column::Dict { codes, .. } => Some(Keys::Codes(codes)),
            Column::Text(_) | Column::Mixed(_) => None,
        }
    }

    /// The smallest and largest key; `None` on an empty page.
    fn range(&self) -> Option<(i64, i64)> {
        match self {
            Keys::Ints(v) => Some((*v.iter().min()?, *v.iter().max()?)),
            Keys::Codes(v) => Some(((*v.iter().min()?).into(), (*v.iter().max()?).into())),
        }
    }

    fn for_each(&self, f: impl FnMut(i64)) {
        match self {
            Keys::Ints(v) => v.iter().copied().for_each(f),
            Keys::Codes(v) => v.iter().map(|&code| i64::from(code)).for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::BufferPool;
    use mvdesign_algebra::{AggExpr, CompareOp, JoinCondition, Predicate};

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
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i), Value::text(format!("d{i}"))])
            .collect();
        db.insert_table(Table::new(
            "Dim",
            [AttrRef::new("Dim", "dim"), AttrRef::new("Dim", "label")],
            rows,
        ));
        db
    }

    fn cat_c1() -> Predicate {
        Predicate::cmp(AttrRef::new("Fact", "cat"), CompareOp::Eq, "c1")
    }

    /// `γ[Fact.id; COUNT(*)](σ[cat='c1'](Fact) ⋈[Fact.dim=Dim.dim] Dim)`:
    /// it groups by `id`, filters on `cat` and joins on `dim`.
    fn plan() -> Arc<Expr> {
        let joined = Expr::join(
            Expr::select(Expr::base("Fact"), cat_c1()),
            Expr::base("Dim"),
            JoinCondition::on(AttrRef::new("Fact", "dim"), AttrRef::new("Dim", "dim")),
        );
        Expr::aggregate(
            joined,
            [AttrRef::new("Fact", "id")],
            [AggExpr::count_star("n")],
        )
    }

    #[test]
    fn profiles_sizes_and_types() {
        let c = profile_database(&db(), [&Expr::base("Fact")]);
        assert_eq!(c.stats("Fact").unwrap().records, 100.0);
        assert_eq!(c.stats("Fact").unwrap().blocks, 10.0);
        let schema = c.schema("Fact").unwrap();
        assert_eq!(schema.attribute("cat").unwrap().ty, AttrType::Text);
        assert_eq!(schema.attribute("dim").unwrap().ty, AttrType::Int);
        // Only what the plans scan is registered.
        assert!(c.stats("Dim").is_none());
    }

    #[test]
    fn selectivities_are_reciprocal_distinct_counts() {
        let c = profile_database(&db(), [&plan()]);
        assert!((c.selectivity("Fact", "cat") - 0.25).abs() < 1e-12);
        assert!((c.selectivity("Fact", "dim") - 0.1).abs() < 1e-12);
        assert!((c.selectivity("Fact", "id") - 0.01).abs() < 1e-12);
        assert!((c.selectivity("Dim", "dim") - 0.05).abs() < 1e-12);
        // `Dim.label` is neither grouped by, joined on nor filtered on.
        assert_eq!(c.selectivity("Dim", "label"), c.default_selectivity());
        // The joined pair at `1 / max(V(a), V(b))`, and no other pair.
        let dims = [AttrRef::new("Fact", "dim"), AttrRef::new("Dim", "dim")];
        assert_eq!(c.join_selectivity(&dims[0], &dims[1]), Some(1.0 / 20.0));
        assert_eq!(c.join_selectivities().count(), 1);
    }

    #[test]
    fn profiled_catalog_estimates_match_reality() {
        let database = db();
        let q = Expr::select(Expr::base("Fact"), cat_c1());
        let c = profile_database(&database, [&q]);
        // Estimated selection output vs actual row count.
        let est = c.stats("Fact").unwrap().records * c.selectivity("Fact", "cat");
        let actual = crate::exec::execute(&q, &database, &crate::ExecContext::default())
            .expect("executes")
            .len() as f64;
        assert!((est - actual).abs() <= 1.0, "est {est} vs actual {actual}");
    }

    #[test]
    fn empty_tables_profile_without_panicking() {
        let mut database = Database::new();
        database.insert_table(Table::new("Empty", [AttrRef::new("Empty", "x")], vec![]));
        let grouped = Expr::aggregate(
            Expr::base("Empty"),
            [AttrRef::new("Empty", "x")],
            [AggExpr::count_star("n")],
        );
        let c = profile_database(&database, [&grouped]);
        assert_eq!(c.stats("Empty").unwrap().records, 0.0);
        assert_eq!(
            c.schema("Empty").unwrap().attribute("x").unwrap().ty,
            AttrType::Int
        );
    }

    /// Distinct counts by bitmap (a dense range), by sort (a sparse one)
    /// and by hash set (text) agree with a set's, over one page or several.
    #[test]
    fn count_distinct_agrees_with_a_set() {
        let ints = |values: &[i64]| values.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        let texts = [Value::text("b"), Value::text("a"), Value::text("b")];
        let cases: [Vec<Value>; 7] = [
            Vec::new(),
            ints(&[5]),
            ints(&[3, 1, 3, 2, 1, 64, 63, 65]),
            ints(&[-7, 0, -7, 120]),
            ints(&[-7, i64::MAX, -7, 0]),
            ints(&[i64::MIN, i64::MAX, i64::MIN]),
            texts.to_vec(),
        ];
        for values in cases {
            let want = values.iter().collect::<BTreeSet<_>>().len();
            let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
            let mut table = Table::new("T", [AttrRef::new("T", "a")], rows);
            assert_eq!(count_distinct(&table, 0), want, "{values:?}");
            table.rehome(Some(&BufferPool::new(Some(64))), 2);
            assert_eq!(count_distinct(&table, 0), want, "{values:?} in pages of 2");
        }
    }
}
