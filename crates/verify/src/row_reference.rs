//! The original tuple-at-a-time engine, preserved as a differential oracle.
//!
//! When the execution layer moved to columnar batches
//! ([`mvdesign_engine::execute`]), this module kept the row-at-a-time
//! implementation: a deliberately independent baseline with no shared
//! operator code, so the executable-semantics oracle
//! ([`crate::check_semantics`]) and the `tests/engine_batch.rs` property
//! suite can assert batch ≡ row — row for row, the engine's join emitting
//! exactly this nested loop's output — without the two sides sharing the
//! bugs they are checking for. It lives here, outside the shipped engine,
//! and uses only the engine's public types.
//!
//! Nothing here is optimised — per-row attribute lookups and per-value
//! clones are the point: this is the semantics specification, not the
//! engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvdesign_algebra::{AggFunc, Expr, Predicate, Rhs, Value};

use mvdesign_engine::{Database, ExecError, Table};

/// Evaluates an SPJ expression tuple-at-a-time — selection by linear scan,
/// join by naive nested loop, the simplest thing that can be right —
/// producing a result table with bag semantics. The reference
/// implementation behind [`mvdesign_engine::execute`]'s differential tests.
///
/// # Errors
///
/// Returns [`ExecError`] when a base relation is missing from the database
/// or an attribute reference cannot be resolved.
pub fn execute(expr: &Arc<Expr>, db: &Database) -> Result<Table, ExecError> {
    match &**expr {
        Expr::Base(name) => db
            .table(name.as_str())
            .cloned()
            .ok_or_else(|| ExecError::UnknownRelation(name.clone())),
        Expr::Select { input, predicate } => {
            let t = execute(input, db)?;
            let rows = t
                .rows()
                .iter()
                .filter_map(|row| match eval_predicate(predicate, &t, row) {
                    Ok(true) => Some(Ok(row.clone())),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Table::new("σ", t.attrs().to_vec(), rows))
        }
        Expr::Project { input, attrs } => {
            let t = execute(input, db)?;
            let idx: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    t.index_of(a)
                        .ok_or_else(|| ExecError::MissingAttr(a.clone()))
                })
                .collect::<Result<_, _>>()?;
            let rows = t
                .rows()
                .iter()
                .map(|row| idx.iter().map(|&i| row[i].clone()).collect())
                .collect();
            Ok(Table::new("π", attrs.clone(), rows))
        }
        Expr::Join { left, right, on } => {
            let l = execute(left, db)?;
            let r = execute(right, db)?;
            // Resolve each condition pair to (left index, right index).
            let mut pairs = Vec::with_capacity(on.pairs().len());
            for (a, b) in on.pairs() {
                let resolved = match (l.index_of(a), r.index_of(b)) {
                    (Some(la), Some(rb)) => (la, rb),
                    _ => match (l.index_of(b), r.index_of(a)) {
                        (Some(lb), Some(ra)) => (lb, ra),
                        _ => return Err(ExecError::MissingAttr(a.clone())),
                    },
                };
                pairs.push(resolved);
            }
            let mut attrs = l.attrs().to_vec();
            attrs.extend(r.attrs().iter().cloned());
            Ok(Table::new("⋈", attrs, nested_loop_join(&l, &r, &pairs)))
        }
        Expr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let t = execute(input, db)?;
            let gidx: Vec<usize> = group_by
                .iter()
                .map(|a| {
                    t.index_of(a)
                        .ok_or_else(|| ExecError::MissingAttr(a.clone()))
                })
                .collect::<Result<_, _>>()?;
            let aidx: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| match &a.input {
                    Some(attr) => t
                        .index_of(attr)
                        .map(Some)
                        .ok_or_else(|| ExecError::MissingAttr(attr.clone())),
                    None => Ok(None),
                })
                .collect::<Result<_, _>>()?;

            let mut groups: BTreeMap<Vec<Value>, Vec<AggState>> = BTreeMap::new();
            for row in t.rows() {
                let key: Vec<Value> = gidx.iter().map(|&i| row[i].clone()).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| vec![AggState::default(); aggs.len()]);
                for (state, idx) in states.iter_mut().zip(&aidx) {
                    state.feed(idx.map(|i| &row[i]));
                }
            }

            let mut attrs = group_by.clone();
            attrs.extend(aggs.iter().map(|a| a.output_attr()));
            let rows = groups
                .into_iter()
                .map(|(key, states)| {
                    let mut row = key;
                    for (state, agg) in states.iter().zip(aggs) {
                        row.push(state.finish(agg.func));
                    }
                    row
                })
                .collect();
            Ok(Table::new("γ", attrs, rows))
        }
    }
}

fn nested_loop_join(l: &Table, r: &Table, pairs: &[(usize, usize)]) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for lrow in l.rows() {
        for rrow in r.rows() {
            if pairs.iter().all(|&(li, ri)| lrow[li] == rrow[ri]) {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                rows.push(row);
            }
        }
    }
    rows
}

/// Running aggregate state for one group and one aggregate.
#[derive(Debug, Clone, Default)]
struct AggState {
    count: i64,
    sum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Folds one row's value in (`None` for `COUNT(*)`).
    fn feed(&mut self, value: Option<&Value>) {
        self.count += 1;
        if let Some(v) = value {
            // Numeric folding treats dates as their day numbers; text
            // contributes only to COUNT/MIN/MAX.
            match v {
                // Wrapping: the semantics `AggFunc::Sum` documents.
                Value::Int(i) | Value::Date(i) => self.sum = self.sum.wrapping_add(*i),
                Value::Text(_) => {}
            }
            if self.min.as_ref().is_none_or(|m| v < m) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v > m) {
                self.max = Some(v.clone());
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => Value::Int(self.sum),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Int(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Int(0)),
            AggFunc::Avg => Value::Int(if self.count > 0 {
                self.sum / self.count
            } else {
                0
            }),
        }
    }
}

/// Evaluates a predicate on one row of `t` — the per-row semantics the
/// engine's vectorised [`mvdesign_engine::selection_mask`] is tested
/// against.
///
/// # Errors
///
/// Returns [`ExecError::MissingAttr`] when the predicate references an
/// attribute the table does not carry.
pub fn eval_predicate(p: &Predicate, t: &Table, row: &[Value]) -> Result<bool, ExecError> {
    match p {
        Predicate::True => Ok(true),
        Predicate::Cmp(c) => {
            let li = t
                .index_of(&c.attr)
                .ok_or_else(|| ExecError::MissingAttr(c.attr.clone()))?;
            let lhs = &row[li];
            let rhs_value;
            let rhs = match &c.rhs {
                Rhs::Literal(v) => v,
                Rhs::Attr(a) => {
                    let ri = t
                        .index_of(a)
                        .ok_or_else(|| ExecError::MissingAttr(a.clone()))?;
                    rhs_value = row[ri].clone();
                    &rhs_value
                }
            };
            Ok(c.op.eval(lhs, rhs))
        }
        Predicate::And(ps) => {
            for p in ps {
                if !eval_predicate(p, t, row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Predicate::Or(ps) => {
            for p in ps {
                if eval_predicate(p, t, row)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_algebra::{AttrRef, CompareOp, JoinCondition};
    use mvdesign_engine::ExecContext;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_table(Table::new(
            "Pd",
            [
                AttrRef::new("Pd", "Pid"),
                AttrRef::new("Pd", "name"),
                AttrRef::new("Pd", "Did"),
            ],
            vec![
                vec![Value::Int(1), Value::text("widget"), Value::Int(10)],
                vec![Value::Int(2), Value::text("gadget"), Value::Int(20)],
                vec![Value::Int(3), Value::text("sprocket"), Value::Int(10)],
            ],
        ));
        db.insert_table(Table::new(
            "Div",
            [
                AttrRef::new("Div", "Did"),
                AttrRef::new("Div", "name"),
                AttrRef::new("Div", "city"),
            ],
            vec![
                vec![Value::Int(10), Value::text("west"), Value::text("LA")],
                vec![Value::Int(20), Value::text("east"), Value::text("NY")],
            ],
        ));
        db
    }

    #[test]
    fn reference_engine_matches_batch_engine_on_fixture() {
        let db = db();
        let exprs: Vec<Arc<Expr>> = vec![
            Expr::select(
                Expr::base("Div"),
                Predicate::cmp(AttrRef::new("Div", "city"), CompareOp::Eq, "LA"),
            ),
            Expr::project(Expr::base("Pd"), [AttrRef::new("Pd", "Did")]),
            Expr::join(
                Expr::base("Pd"),
                Expr::base("Div"),
                JoinCondition::on(AttrRef::new("Pd", "Did"), AttrRef::new("Div", "Did")),
            ),
        ];
        for e in &exprs {
            let reference = execute(e, &db).expect("row engine");
            let batch =
                mvdesign_engine::execute(e, &db, &ExecContext::default()).expect("batch engine");
            assert_eq!(reference.rows(), batch.rows(), "{e}");
        }
    }

    #[test]
    fn missing_relation_errors() {
        let e = Expr::base("Ghost");
        assert!(matches!(
            execute(&e, &db()),
            Err(ExecError::UnknownRelation(_))
        ));
    }
}
