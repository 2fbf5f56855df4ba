//! Columnar storage: typed value vectors ([`Column`]) and record batches
//! ([`Batch`]).
//!
//! The batch engine executes every operator over whole columns instead of
//! one tuple at a time: attribute offsets are resolved once per operator,
//! predicates and join keys run as tight loops over `&[i64]`/`&[Arc<str>]`
//! slices, and row movement happens through a single typed `gather` kernel.
//! Columns are held behind [`Arc`], so operators that keep a column intact
//! (projection, base-table scans) share it instead of copying.
//!
//! Columns keep a *canonical* representation: a column is a typed vector
//! ([`Column::Int`], [`Column::Text`], [`Column::Date`]) exactly when all of
//! its values share one [`Value`] variant, and degrades to the heterogeneous
//! [`Column::Mixed`] fallback otherwise. Two columns built from the same
//! value sequence are therefore representation-equal, which keeps the
//! derived `PartialEq` meaningful.
//!
//! Text columns have a second, dictionary-encoded representation:
//! [`Column::Dict`] stores one `u32` code per row plus an `Arc`-shared value
//! table. [`Column::from_values`] never produces it — dictionaries enter
//! through the data generator and through builders that know their domain is
//! small — but every kernel preserves it: `gather`/`filter` move codes and
//! share the value table, equality predicates resolve the constant against
//! the dictionary once per batch, and joins/aggregates on dictionary keys run
//! over raw `u32` codes. The value table must hold *distinct* strings; code
//! equality is value equality exactly because of that invariant.

use std::cmp::Ordering;
use std::sync::Arc;

use mvdesign_algebra::{AttrRef, CompareOp, Value};

/// A typed vector of values — one attribute of a [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    /// All values are [`Value::Int`].
    Int(Vec<i64>),
    /// All values are [`Value::Text`].
    Text(Vec<Arc<str>>),
    /// All values are [`Value::Date`].
    Date(Vec<i64>),
    /// All values are [`Value::Text`], dictionary-encoded: row `i` holds
    /// `values[codes[i]]`. The value table is `Arc`-shared, so gathers,
    /// filters and materialized views copy codes but never strings, and its
    /// entries are distinct, so two equal codes always mean equal values.
    Dict {
        /// One dictionary code per row.
        codes: Vec<u32>,
        /// The shared value table the codes index into.
        values: Arc<[Arc<str>]>,
    },
    /// Heterogeneous fallback: the variants genuinely differ.
    Mixed(Vec<Value>),
}

impl Column {
    /// An empty integer column (the canonical empty column — profiling
    /// types empty columns as integers too).
    pub fn empty() -> Self {
        Column::Int(Vec::new())
    }

    /// Builds a column from a value sequence, choosing the canonical
    /// representation: typed when homogeneous, [`Column::Mixed`] otherwise.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let mut col = Column::empty();
        for (i, v) in values.into_iter().enumerate() {
            if i == 0 {
                col = match v {
                    Value::Int(x) => Column::Int(vec![x]),
                    Value::Text(s) => Column::Text(vec![s]),
                    Value::Date(d) => Column::Date(vec![d]),
                };
            } else {
                col.push(v);
            }
        }
        col
    }

    /// Builds a dictionary-encoded text column.
    ///
    /// # Panics
    ///
    /// Panics when a code indexes past the value table (in debug builds the
    /// distinctness of the value table is checked too).
    pub fn dict(codes: Vec<u32>, values: Arc<[Arc<str>]>) -> Self {
        assert!(
            codes.iter().all(|&c| (c as usize) < values.len()),
            "dictionary code out of range"
        );
        debug_assert!(
            {
                let mut seen: Vec<&str> = values.iter().map(|v| &**v).collect();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "dictionary value table holds duplicates"
        );
        Column::Dict { codes, values }
    }

    /// The shared value table of a dictionary-encoded column, if this is
    /// one — lets callers check (and tests assert) value-table sharing.
    pub fn dict_values(&self) -> Option<&Arc<[Arc<str>]>> {
        match self {
            Column::Dict { values, .. } => Some(values),
            _ => None,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) | Column::Date(v) => v.len(),
            Column::Text(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i` (cheap: integers copy, text bumps an [`Arc`]).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Text(v) => Value::Text(Arc::clone(&v[i])),
            Column::Date(v) => Value::Date(v[i]),
            Column::Dict { codes, values } => Value::Text(Arc::clone(&values[codes[i] as usize])),
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// The string at `i` when this column is text-backed (plain or
    /// dictionary-encoded) — the shared scalar accessor of every dict-aware
    /// kernel, with no `Arc` traffic.
    pub(crate) fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Column::Text(v) => Some(&v[i]),
            Column::Dict { codes, values } => Some(&values[codes[i] as usize]),
            _ => None,
        }
    }

    /// Appends one value, keeping the canonical representation: an empty
    /// typed column re-types itself, a non-empty typed column degrades to
    /// [`Column::Mixed`] on a variant mismatch. A dictionary-encoded column
    /// stays dictionary-encoded: a known string pushes its code, a new one
    /// extends the value table copy-on-write (readers sharing the old table
    /// are unaffected).
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Dict { codes, values }, Value::Text(s)) => {
                if let Some(c) = values.iter().position(|x| **x == *s) {
                    codes.push(c as u32);
                } else {
                    let mut table: Vec<Arc<str>> = values.to_vec();
                    table.push(s);
                    *values = table.into();
                    codes.push((values.len() - 1) as u32);
                }
            }
            (col, v) if col.is_empty() => *col = Column::from_values([v]),
            (Column::Int(vec), Value::Int(x)) => vec.push(x),
            (Column::Text(vec), Value::Text(s)) => vec.push(s),
            (Column::Date(vec), Value::Date(d)) => vec.push(d),
            (Column::Mixed(vec), v) => vec.push(v),
            (_, v) => {
                let mut values: Vec<Value> = (0..self.len()).map(|i| self.value(i)).collect();
                values.push(v);
                *self = Column::Mixed(values);
            }
        }
    }

    /// A new column holding `self[idx[0]], self[idx[1]], …` — the shared
    /// row-movement kernel of every batch operator.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[must_use]
    pub fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(idx.iter().map(|&i| v[i]).collect()),
            Column::Text(v) => Column::Text(idx.iter().map(|&i| Arc::clone(&v[i])).collect()),
            Column::Date(v) => Column::Date(idx.iter().map(|&i| v[i]).collect()),
            Column::Dict { codes, values } => Column::Dict {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                values: Arc::clone(values),
            },
            Column::Mixed(v) => {
                // Re-canonicalise: a gather can drop the values that made
                // the column heterogeneous.
                Column::from_values(idx.iter().map(|&i| v[i].clone()))
            }
        }
    }

    /// Compares `self[i]` with `other[j]` under [`Value`]'s total order
    /// (typed fast path; cross-variant comparisons order by variant tag).
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i].cmp(&b[j]),
            (Column::Date(a), Column::Date(b)) => a[i].cmp(&b[j]),
            _ => match (self.str_at(i), other.str_at(j)) {
                // Text-backed on both sides (plain or dictionary-encoded):
                // compare the strings without building Values. Dictionary
                // codes are assigned in appearance order, not string order,
                // so codes are never compared for ordering.
                (Some(a), Some(b)) => a.cmp(b),
                _ => self.value(i).cmp(&other.value(j)),
            },
        }
    }

    /// Whether `self[i] == other[j]` (typed fast path).
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i] == b[j],
            (Column::Date(a), Column::Date(b)) => a[i] == b[j],
            // Same value table ⇒ code equality is value equality.
            (
                Column::Dict {
                    codes: a,
                    values: va,
                },
                Column::Dict {
                    codes: b,
                    values: vb,
                },
            ) if Arc::ptr_eq(va, vb) => a[i] == b[j],
            (Column::Mixed(_), _) | (_, Column::Mixed(_)) => self.value(i) == other.value(j),
            _ => match (self.str_at(i), other.str_at(j)) {
                (Some(a), Some(b)) => a == b,
                // Distinct typed variants can never hold equal values.
                _ => false,
            },
        }
    }

    /// ANDs `op(self[row], literal)` into `mask` for every still-set row —
    /// the vectorised comparison kernel behind selection predicates.
    pub fn compare_literal_and(&self, op: CompareOp, lit: &Value, mask: &mut [bool]) {
        debug_assert_eq!(mask.len(), self.len());
        match (self, lit) {
            (Column::Int(v), Value::Int(x)) | (Column::Date(v), Value::Date(x)) => {
                for (m, a) in mask.iter_mut().zip(v) {
                    *m = *m && op.eval(a, x);
                }
            }
            (Column::Text(v), Value::Text(x)) => {
                for (m, a) in mask.iter_mut().zip(v) {
                    *m = *m && op.eval(a, x);
                }
            }
            (Column::Dict { codes, values }, Value::Text(x)) => {
                // Resolve the constant against the dictionary once per
                // call: one string comparison per *distinct* value, then a
                // table lookup per row. An equality constant missing from
                // the dictionary zeroes the mask without touching rows.
                let keep: Vec<bool> = values.iter().map(|v| op.eval(&&**v, &&**x)).collect();
                if keep.iter().all(|&k| !k) {
                    mask.fill(false);
                } else if !keep.iter().all(|&k| k) {
                    for (m, c) in mask.iter_mut().zip(codes) {
                        *m = *m && keep[*c as usize];
                    }
                }
            }
            (Column::Mixed(v), _) => {
                for (m, a) in mask.iter_mut().zip(v) {
                    *m = *m && op.eval(a, lit);
                }
            }
            // Variant mismatch on a typed column: every value compares to
            // the literal by variant tag alone, so the outcome is constant
            // (the first row stands in for the whole column).
            _ => {
                if !mask.is_empty() && !op.eval(&self.value(0), lit) {
                    mask.fill(false);
                }
            }
        }
    }

    /// `op(self[i], lit)` — the scalar twin of [`Column::compare_literal_and`],
    /// used by the selection-vector path to evaluate only surviving rows.
    /// Must agree bit-for-bit with the vectorised kernel.
    pub fn literal_holds_at(&self, op: CompareOp, lit: &Value, i: usize) -> bool {
        match (self, lit) {
            (Column::Int(v), Value::Int(x)) | (Column::Date(v), Value::Date(x)) => {
                op.eval(&v[i], x)
            }
            (Column::Mixed(v), _) => op.eval(&v[i], lit),
            (_, Value::Text(x)) => match self.str_at(i) {
                Some(s) => op.eval(&s, &&**x),
                None => op.eval(&self.value(i), lit),
            },
            _ => op.eval(&self.value(i), lit),
        }
    }

    /// ANDs `op(self[row], other[row])` into `mask` — the attribute-versus-
    /// attribute comparison kernel.
    pub fn compare_column_and(&self, op: CompareOp, other: &Column, mask: &mut [bool]) {
        debug_assert_eq!(mask.len(), self.len());
        debug_assert_eq!(self.len(), other.len());
        match (self, other) {
            (Column::Int(a), Column::Int(b)) | (Column::Date(a), Column::Date(b)) => {
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(&a[i], &b[i]);
                }
            }
            (Column::Text(a), Column::Text(b)) => {
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(&a[i], &b[i]);
                }
            }
            // Shared value table + (in)equality: compare raw codes.
            (
                Column::Dict {
                    codes: a,
                    values: va,
                },
                Column::Dict {
                    codes: b,
                    values: vb,
                },
            ) if Arc::ptr_eq(va, vb) && matches!(op, CompareOp::Eq | CompareOp::Ne) => {
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(&a[i], &b[i]);
                }
            }
            _ if self.is_text_backed() && other.is_text_backed() => {
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m
                        && op.eval(
                            &self.str_at(i).expect("text-backed"),
                            &other.str_at(i).expect("text-backed"),
                        );
                }
            }
            _ => {
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && op.eval(&self.value(i), &other.value(i));
                }
            }
        }
    }

    /// `op(self[i], other[i])` — the scalar twin of
    /// [`Column::compare_column_and`] for the selection-vector path. Must
    /// agree bit-for-bit with the vectorised kernel.
    pub fn column_holds_at(&self, op: CompareOp, other: &Column, i: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) | (Column::Date(a), Column::Date(b)) => {
                op.eval(&a[i], &b[i])
            }
            _ => match (self.str_at(i), other.str_at(i)) {
                (Some(a), Some(b)) => op.eval(&a, &b),
                _ => op.eval(&self.value(i), &other.value(i)),
            },
        }
    }

    /// Whether every value is text (plain or dictionary-encoded).
    fn is_text_backed(&self) -> bool {
        matches!(self, Column::Text(_) | Column::Dict { .. })
    }

    /// A copy of the rows `range`, **variant-preserving**: an `Int` slice
    /// stays `Int`, a `Dict` slice shares the value table, and a `Mixed`
    /// slice stays `Mixed` even when the sliced values happen to be
    /// homogeneous. The paged storage layer relies on this: pages must
    /// reassemble into exactly the representation they were cut from, or
    /// the derived `PartialEq` on [`Batch`] would see a difference.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds.
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(v[range].to_vec()),
            Column::Text(v) => Column::Text(v[range].to_vec()),
            Column::Date(v) => Column::Date(v[range].to_vec()),
            Column::Dict { codes, values } => Column::Dict {
                codes: codes[range].to_vec(),
                values: Arc::clone(values),
            },
            Column::Mixed(v) => Column::Mixed(v[range].to_vec()),
        }
    }

    /// Concatenates column pieces back into one column, reproducing the
    /// representation the resident engine would have produced:
    ///
    /// * pieces of one typed variant concatenate into that variant,
    /// * `Dict` pieces sharing one value table concatenate codes and keep
    ///   the shared table,
    /// * anything else re-canonicalises through [`Column::from_values`],
    ///   exactly like a whole-column `gather` over heterogeneous values.
    ///
    /// The mixed-variant case arises when per-page gathers of a `Mixed`
    /// column each re-canonicalise to different variants; `from_values`
    /// over the concatenated values is then identical to the single
    /// full-width gather.
    pub(crate) fn concat(parts: &[&Column]) -> Column {
        match parts {
            [] => Column::empty(),
            [only] => (*only).clone(),
            _ => {
                if parts.iter().all(|c| matches!(c, Column::Int(_))) {
                    return Column::Int(
                        parts
                            .iter()
                            .flat_map(|c| match c {
                                Column::Int(v) => v.iter().copied(),
                                _ => unreachable!(),
                            })
                            .collect(),
                    );
                }
                if parts.iter().all(|c| matches!(c, Column::Date(_))) {
                    return Column::Date(
                        parts
                            .iter()
                            .flat_map(|c| match c {
                                Column::Date(v) => v.iter().copied(),
                                _ => unreachable!(),
                            })
                            .collect(),
                    );
                }
                if parts.iter().all(|c| matches!(c, Column::Text(_))) {
                    return Column::Text(
                        parts
                            .iter()
                            .flat_map(|c| match c {
                                Column::Text(v) => v.iter().map(Arc::clone),
                                _ => unreachable!(),
                            })
                            .collect(),
                    );
                }
                if let Some(table) = parts[0].dict_values() {
                    if parts
                        .iter()
                        .all(|c| c.dict_values().is_some_and(|t| Arc::ptr_eq(t, table)))
                    {
                        return Column::Dict {
                            codes: parts
                                .iter()
                                .flat_map(|c| match c {
                                    Column::Dict { codes, .. } => codes.iter().copied(),
                                    _ => unreachable!(),
                                })
                                .collect(),
                            values: Arc::clone(table),
                        };
                    }
                }
                Column::from_values(
                    parts
                        .iter()
                        .flat_map(|c| (0..c.len()).map(move |i| c.value(i))),
                )
            }
        }
    }
}

/// A header plus one column per attribute — the unit every batch operator
/// consumes and produces.
///
/// The row count is stored explicitly so zero-column batches (which cannot
/// arise from well-formed plans, but keep the type total) stay meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    attrs: Vec<AttrRef>,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Batch {
    /// Creates a batch from a header and matching columns.
    ///
    /// # Panics
    ///
    /// Panics when the column count differs from the header's arity or the
    /// columns disagree on length.
    pub fn new(attrs: Vec<AttrRef>, columns: Vec<Arc<Column>>) -> Self {
        assert_eq!(
            attrs.len(),
            columns.len(),
            "batch has {} column(s) but the header has {} attribute(s)",
            columns.len(),
            attrs.len()
        );
        let rows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(
                c.len(),
                rows,
                "column {i} has {} value(s) but column 0 has {rows}",
                c.len()
            );
        }
        Self {
            attrs,
            columns,
            rows,
        }
    }

    /// A batch of `rows` rows — which a batch without columns cannot read
    /// off a column.
    ///
    /// # Panics
    ///
    /// Panics as [`Batch::new`] does, or when a column's length is not
    /// `rows`.
    pub(crate) fn with_rows(attrs: Vec<AttrRef>, columns: Vec<Arc<Column>>, rows: usize) -> Self {
        let batch = Self::new(attrs, columns);
        assert!(
            batch.columns.is_empty() || batch.rows == rows,
            "columns of {} rows in a batch of {rows}",
            batch.rows
        );
        Self { rows, ..batch }
    }

    /// The columns, in header order, by value.
    pub(crate) fn into_columns(self) -> Vec<Arc<Column>> {
        self.columns
    }

    /// An empty batch with the given header.
    pub fn empty(attrs: Vec<AttrRef>) -> Self {
        let columns = attrs.iter().map(|_| Arc::new(Column::empty())).collect();
        Self::new(attrs, columns)
    }

    /// Builds a batch by transposing row-major tuples.
    ///
    /// # Panics
    ///
    /// Panics if any row's arity differs from the header's.
    pub fn from_rows(attrs: Vec<AttrRef>, rows: Vec<Vec<Value>>) -> Self {
        let mut columns: Vec<Column> = attrs.iter().map(|_| Column::empty()).collect();
        let n = rows.len();
        for (i, row) in rows.into_iter().enumerate() {
            assert_eq!(
                row.len(),
                attrs.len(),
                "row {i} has arity {} but the header has {}",
                row.len(),
                attrs.len()
            );
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Self {
            attrs,
            columns: columns.into_iter().map(Arc::new).collect(),
            rows: n,
        }
    }

    /// Appends one row-major tuple, pushing each value onto its column
    /// (copy-on-write: shared columns are cloned once, then extended in
    /// place).
    ///
    /// # Panics
    ///
    /// Panics when the row's arity differs from the header's.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.attrs.len(),
            "row has arity {} but the header has {}",
            row.len(),
            self.attrs.len()
        );
        for (col, v) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(v);
        }
        self.rows += 1;
    }

    /// Materialises row-major tuples (for display, legacy callers and the
    /// row-reference differential).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows)
            .map(|i| self.columns.iter().map(|c| c.value(i)).collect())
            .collect()
    }

    /// The qualified attribute header.
    pub fn attrs(&self) -> &[AttrRef] {
        &self.attrs
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns, in header order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column at `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Index of an attribute in the header.
    pub fn index_of(&self, attr: &AttrRef) -> Option<usize> {
        self.attrs.iter().position(|a| a == attr)
    }

    /// Keeps the rows whose mask entry is `true` (the selection kernel).
    ///
    /// # Panics
    ///
    /// Panics when the mask length differs from the row count.
    #[must_use]
    pub fn filter(&self, mask: &[bool]) -> Batch {
        assert_eq!(mask.len(), self.rows, "mask length mismatch");
        let keep = mask.iter().filter(|&&k| k).count();
        if keep == self.rows {
            // All-true: share every column by `Arc` clone instead of copying.
            return self.clone();
        }
        if keep == 0 {
            // All-false: an empty gather is O(#cols) and keeps each column's
            // typed (and dictionary) representation.
            return self.gather(&[]);
        }
        let idx: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, keep)| keep.then_some(i))
            .collect();
        self.gather(&idx)
    }

    /// A batch holding the rows `idx`, in order (duplicates allowed — bag
    /// semantics).
    #[must_use]
    pub fn gather(&self, idx: &[usize]) -> Batch {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(idx)))
            .collect();
        Batch {
            attrs: self.attrs.clone(),
            columns,
            rows: idx.len(),
        }
    }

    /// Reorders the header to `idx` without touching the data — projection
    /// is O(#attrs), never O(#rows).
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[must_use]
    pub fn select_columns(&self, idx: &[usize]) -> Batch {
        Batch {
            attrs: idx.iter().map(|&i| self.attrs[i].clone()).collect(),
            columns: idx.iter().map(|&i| Arc::clone(&self.columns[i])).collect(),
            rows: self.rows,
        }
    }

    /// Glues two equal-length batches side by side (the join output shape).
    ///
    /// # Panics
    ///
    /// Panics when the row counts differ.
    #[must_use]
    pub fn hstack(left: &Batch, right: &Batch) -> Batch {
        assert_eq!(left.rows, right.rows, "hstack row count mismatch");
        let mut attrs = left.attrs.clone();
        attrs.extend(right.attrs.iter().cloned());
        let mut columns = left.columns.clone();
        columns.extend(right.columns.iter().cloned());
        Batch {
            attrs,
            columns,
            rows: left.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[i64]) -> Column {
        Column::Int(vals.to_vec())
    }

    #[test]
    fn from_values_is_canonical() {
        let homo = Column::from_values([Value::Int(1), Value::Int(2)]);
        assert_eq!(homo, Column::Int(vec![1, 2]));
        let hetero = Column::from_values([Value::Int(1), Value::text("x")]);
        assert!(matches!(hetero, Column::Mixed(_)));
        assert_eq!(Column::from_values([]), Column::Int(vec![]));
    }

    #[test]
    fn push_retypes_empty_and_degrades_on_mismatch() {
        let mut c = Column::empty();
        c.push(Value::text("a"));
        assert!(matches!(c, Column::Text(_)));
        c.push(Value::Int(1));
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.value(0), Value::text("a"));
        assert_eq!(c.value(1), Value::Int(1));
    }

    #[test]
    fn gather_recanonicalises_mixed() {
        let c = Column::from_values([Value::Int(1), Value::text("x"), Value::Int(3)]);
        let g = c.gather(&[0, 2]);
        assert_eq!(g, Column::Int(vec![1, 3]));
    }

    #[test]
    fn compare_literal_matches_value_semantics() {
        let c = int_col(&[1, 5, 9]);
        let mut mask = vec![true; 3];
        c.compare_literal_and(CompareOp::Ge, &Value::Int(5), &mut mask);
        assert_eq!(mask, [false, true, true]);
        // Cross-variant: Int column vs Text literal orders by tag (Int < Text).
        let mut mask = vec![true; 3];
        c.compare_literal_and(CompareOp::Lt, &Value::text("z"), &mut mask);
        assert_eq!(mask, [true, true, true]);
    }

    #[test]
    fn eq_at_across_representations() {
        let typed = int_col(&[7]);
        let mixed = Column::from_values([Value::Int(7), Value::text("x")]);
        assert!(typed.eq_at(0, &mixed, 0));
        assert!(!typed.eq_at(0, &mixed, 1));
        let text = Column::from_values([Value::text("x")]);
        assert!(!typed.eq_at(0, &text, 0));
    }

    #[test]
    fn batch_round_trips_rows() {
        let attrs = vec![AttrRef::new("R", "a"), AttrRef::new("R", "b")];
        let rows = vec![
            vec![Value::Int(1), Value::text("x")],
            vec![Value::Int(2), Value::text("y")],
        ];
        let b = Batch::from_rows(attrs, rows.clone());
        assert_eq!(b.rows(), 2);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn select_columns_shares_data() {
        let attrs = vec![AttrRef::new("R", "a"), AttrRef::new("R", "b")];
        let b = Batch::from_rows(attrs, vec![vec![Value::Int(1), Value::Int(2)]]);
        let p = b.select_columns(&[1]);
        assert!(Arc::ptr_eq(&b.columns()[1], &p.columns()[0]));
        assert_eq!(p.attrs(), [AttrRef::new("R", "b")]);
    }

    #[test]
    fn filter_and_hstack() {
        let attrs = vec![AttrRef::new("R", "a")];
        let b = Batch::from_rows(
            attrs,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
            ],
        );
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.rows(), 2);
        let h = Batch::hstack(&f, &f);
        assert_eq!(h.attrs().len(), 2);
        assert_eq!(h.rows(), 2);
    }

    fn dict_col(codes: &[u32], values: &[&str]) -> Column {
        let table: Vec<Arc<str>> = values.iter().map(|s| Arc::from(*s)).collect();
        Column::dict(codes.to_vec(), table.into())
    }

    #[test]
    fn dict_values_and_gather_share_table() {
        let c = dict_col(&[0, 1, 0, 2], &["a", "b", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(2), Value::text("a"));
        let g = c.gather(&[3, 0]);
        assert_eq!(g.value(0), Value::text("c"));
        assert!(Arc::ptr_eq(
            c.dict_values().unwrap(),
            g.dict_values().unwrap()
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dict_code_out_of_range_panics() {
        let _ = dict_col(&[3], &["a", "b"]);
    }

    #[test]
    fn dict_push_keeps_encoding_and_extends_cow() {
        let mut c = dict_col(&[0, 1], &["a", "b"]);
        let shared = Arc::clone(c.dict_values().unwrap());
        c.push(Value::text("a"));
        assert!(Arc::ptr_eq(c.dict_values().unwrap(), &shared));
        c.push(Value::text("z"));
        assert_eq!(c.value(3), Value::text("z"));
        assert!(!Arc::ptr_eq(c.dict_values().unwrap(), &shared));
        assert_eq!(shared.len(), 2, "readers of the old table are unaffected");
        c.push(Value::Int(1));
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.value(0), Value::text("a"));
        assert_eq!(c.value(4), Value::Int(1));
    }

    #[test]
    fn dict_compare_and_eq_match_text_semantics() {
        let d = dict_col(&[0, 1, 2, 1], &["v10", "v2", "v7"]);
        let t = Column::from_values((0..4).map(|i| d.value(i)));
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            for lit in [Value::text("v2"), Value::text("missing"), Value::Int(3)] {
                let mut dm = vec![true; 4];
                let mut tm = vec![true; 4];
                d.compare_literal_and(op, &lit, &mut dm);
                t.compare_literal_and(op, &lit, &mut tm);
                assert_eq!(dm, tm, "op {op:?} lit {lit:?}");
                let scalar: Vec<bool> = (0..4).map(|i| d.literal_holds_at(op, &lit, i)).collect();
                assert_eq!(scalar, tm, "scalar op {op:?} lit {lit:?}");
            }
            let mut dm = vec![true; 4];
            let mut tm = vec![true; 4];
            d.compare_column_and(op, &d.gather(&[3, 2, 1, 0]), &mut dm);
            t.compare_column_and(op, &t.gather(&[3, 2, 1, 0]), &mut tm);
            assert_eq!(dm, tm, "column op {op:?}");
            let scalar: Vec<bool> = (0..4)
                .map(|i| d.column_holds_at(op, &d.gather(&[3, 2, 1, 0]), i))
                .collect();
            assert_eq!(scalar, tm, "scalar column op {op:?}");
        }
        // Cross-representation equality and ordering agree with plain text.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(d.eq_at(i, &t, j), t.eq_at(i, &t, j));
                assert_eq!(d.cmp_at(i, &t, j), t.cmp_at(i, &t, j));
                assert_eq!(d.eq_at(i, &d, j), t.eq_at(i, &t, j));
                assert_eq!(d.cmp_at(i, &d, j), t.cmp_at(i, &t, j));
            }
        }
    }

    #[test]
    fn filter_all_true_shares_columns() {
        let attrs = vec![AttrRef::new("R", "a")];
        let b = Batch::from_rows(attrs, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let f = b.filter(&[true, true]);
        assert!(Arc::ptr_eq(&b.columns()[0], &f.columns()[0]));
        let e = b.filter(&[false, false]);
        assert_eq!(e.rows(), 0);
        assert_eq!(e.column(0), &Column::Int(vec![]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn ragged_rows_panic() {
        let _ = Batch::from_rows(
            vec![AttrRef::new("R", "a")],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
    }
}
