//! Grouping and aggregation — the paper's first "future work" item
//! ("we are working on materialized view design for more complicated
//! queries such as query with aggregation functions").

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

use mvdesign_catalog::{AttrName, AttrRef, RelName};
use serde::{Deserialize, Serialize};

use crate::Predicate;

/// The pseudo-relation qualifying aggregate output attributes.
///
/// `SUM(quantity) AS total` produces the attribute `#agg.total`: aggregate
/// results belong to no base relation, and the reserved `#agg` qualifier
/// cannot collide with parser-accepted relation names.
pub const AGG_RELATION: &str = "#agg";

/// An aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(attr)` — number of rows in the group.
    Count,
    /// `SUM(attr)` over integer attributes, in two's-complement `i64`
    /// arithmetic: a sum past `i64::MAX` (or below `i64::MIN`) **wraps**, in
    /// every build profile — the engine's kernels, its delta fold and the
    /// row reference all add with `wrapping_add`, so a debug build does not
    /// panic where a release build answers. Wrapping addition is associative
    /// and commutative, so the result does not depend on row order or spill
    /// partitioning.
    Sum,
    /// `MIN(attr)`.
    Min,
    /// `MAX(attr)`.
    Max,
    /// `AVG(attr)` — integer average (`SUM/COUNT`, truncated), since values
    /// are integral in this model.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// One aggregate in an [`Expr::Aggregate`](crate::Expr::Aggregate) node,
/// e.g. `SUM(Order.quantity) AS total_quantity`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AggExpr {
    /// The function applied.
    pub func: AggFunc,
    /// The aggregated attribute; `None` only for `COUNT(*)`.
    pub input: Option<AttrRef>,
    /// Output attribute name (qualified as `#agg.alias` downstream).
    pub alias: AttrName,
}

impl AggExpr {
    /// Creates an aggregate over an attribute.
    pub fn new(func: AggFunc, input: AttrRef, alias: impl Into<AttrName>) -> Self {
        Self {
            func,
            input: Some(input),
            alias: alias.into(),
        }
    }

    /// Creates a `COUNT(*)`.
    pub fn count_star(alias: impl Into<AttrName>) -> Self {
        Self {
            func: AggFunc::Count,
            input: None,
            alias: alias.into(),
        }
    }

    /// The qualified output attribute (`#agg.alias`).
    pub fn output_attr(&self) -> AttrRef {
        // One `#agg` name per process: every output attribute shares it.
        static AGG: OnceLock<RelName> = OnceLock::new();
        AttrRef {
            relation: AGG.get_or_init(|| RelName::new(AGG_RELATION)).clone(),
            attr: self.alias.clone(),
        }
    }

    /// How a stored result of this aggregate re-aggregates: the aggregate
    /// over the stored `#agg.alias` column of several groups (or of stored
    /// groups and delta partials) that yields this aggregate over all their
    /// rows. `COUNT` rolls up as `SUM` of the counts; `SUM`, `MIN` and `MAX`
    /// keep their function; `AVG` is stored finalized and does not: `None`.
    /// The view matcher's roll-up and the delta fold both use it.
    pub fn rolled_up(&self) -> Option<AggExpr> {
        let func = match self.func {
            AggFunc::Count => AggFunc::Sum,
            AggFunc::Avg => return None,
            other => other,
        };
        Some(AggExpr::new(func, self.output_attr(), self.alias.clone()))
    }
}

/// The group keys of a roll-up of the relations `s` that answers the γ
/// roots above it, each root given as its group keys, its join pairs and
/// its conjuncts spanning several relations: every root's keys on `s`, then
/// every attribute of `s` a root compares with one outside `s` — the
/// `s`-side of each pair crossing out of `s`, and what a conjunct reading
/// both sides reads of `s` — each once, in that order. Members of one group
/// then carry the same values of everything read above the roll-up, so
/// they meet the same rows outside `s`, and each aggregate over them
/// re-aggregates by [`AggExpr::rolled_up`] (eager aggregation, Yan & Larson,
/// VLDB 1995).
pub fn roll_up_keys<'a, P>(
    s: &BTreeSet<RelName>,
    roots: impl IntoIterator<Item = (&'a [AttrRef], P, &'a [Predicate])>,
) -> Vec<AttrRef>
where
    P: IntoIterator<Item = &'a (AttrRef, AttrRef)>,
{
    let in_s = |a: &AttrRef| s.contains(&a.relation);
    let mut keys: Vec<AttrRef> = Vec::new();
    let mut compared: Vec<AttrRef> = Vec::new();
    for (group_by, pairs, conjuncts) in roots {
        keys.extend(group_by.iter().filter(|a| in_s(a)).cloned());
        for (a, b) in pairs {
            if in_s(a) != in_s(b) {
                compared.push(if in_s(a) { a.clone() } else { b.clone() });
            }
        }
        for p in conjuncts
            .iter()
            .filter(|p| !p.attrs().into_iter().all(in_s))
        {
            compared.extend(p.attrs().into_iter().filter(|a| in_s(a)).cloned());
        }
    }
    keys.extend(compared);
    let mut seen = BTreeSet::new();
    keys.retain(|k| seen.insert(k.clone()));
    keys
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(a) => write!(f, "{}({a}) AS {}", self.func, self.alias),
            None => write!(f, "{}(*) AS {}", self.func, self.alias),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_attr_is_agg_qualified() {
        let a = AggExpr::new(AggFunc::Sum, AttrRef::new("Order", "quantity"), "total");
        assert_eq!(a.output_attr(), AttrRef::new(AGG_RELATION, "total"));
        assert_eq!(a.to_string(), "SUM(Order.quantity) AS total");
    }

    #[test]
    fn count_star_has_no_input() {
        let a = AggExpr::count_star("n");
        assert!(a.input.is_none());
        assert_eq!(a.to_string(), "COUNT(*) AS n");
    }

    #[test]
    fn functions_are_ordered_for_canonicalisation() {
        assert!(AggFunc::Count < AggFunc::Sum);
    }
}
