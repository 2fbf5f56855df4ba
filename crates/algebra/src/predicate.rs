//! Selection predicates: comparisons combined with AND / OR.

use std::fmt;

use mvdesign_catalog::{AttrRef, Catalog};
use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Evaluates the operator on two ordered values.
    pub fn eval<T: Ord>(self, left: &T, right: &T) -> bool {
        match self {
            CompareOp::Eq => left == right,
            CompareOp::Ne => left != right,
            CompareOp::Lt => left < right,
            CompareOp::Le => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::Ge => left >= right,
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> Self {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// The right-hand side of a comparison: a literal or another attribute.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rhs {
    /// Compare against a constant.
    Literal(Value),
    /// Compare against another attribute (only used transiently while
    /// parsing — join conditions are extracted into [`crate::JoinCondition`]).
    Attr(AttrRef),
}

impl fmt::Display for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rhs::Literal(v) => write!(f, "{v}"),
            Rhs::Attr(a) => a.write_to(f),
        }
    }
}

/// A single comparison, e.g. `Division.city = 'LA'`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Comparison {
    /// Left-hand attribute.
    pub attr: AttrRef,
    /// Operator.
    pub op: CompareOp,
    /// Right-hand side.
    pub rhs: Rhs,
}

impl Comparison {
    /// Creates an attribute-vs-literal comparison.
    pub fn literal(attr: AttrRef, op: CompareOp, value: impl Into<Value>) -> Self {
        Self {
            attr,
            op,
            rhs: Rhs::Literal(value.into()),
        }
    }
}

impl Comparison {
    /// Whether every value satisfying `self` also satisfies `other`.
    ///
    /// Decided for two literal comparisons of the same attribute by range
    /// containment under [`Value`]'s total order (the order the engine
    /// evaluates with, so it holds across value variants too); anything else
    /// implies only itself. `false` means "not proven", never "refuted".
    pub fn implies(&self, other: &Comparison) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        use CompareOp::{Eq, Ge, Gt, Le, Lt, Ne};
        if self == other {
            return true;
        }
        let (Rhs::Literal(a), Rhs::Literal(b)) = (&self.rhs, &other.rhs) else {
            return false;
        };
        if self.attr != other.attr {
            return false;
        }
        // `self` is `x op a`; does it force `x op' b`?
        let a_vs_b = a.cmp(b);
        match (self.op, other.op) {
            (Eq, op) => op.eval(a, b),
            (Ne, Ne) => a_vs_b == Equal,
            (Ne, _) | (_, Eq) => false,
            (Lt, Lt | Le | Ne) | (Le, Le) => a_vs_b != Greater,
            (Le, Lt | Ne) => a_vs_b == Less,
            (Gt, Gt | Ge | Ne) | (Ge, Ge) => a_vs_b != Less,
            (Ge, Gt | Ne) => a_vs_b == Greater,
            (Lt | Le, Gt | Ge) | (Gt | Ge, Lt | Le) => false,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.attr.write_to(f)?;
        fmt::Display::fmt(&self.op, f)?;
        fmt::Display::fmt(&self.rhs, f)
    }
}

/// A selection predicate in negation-free AND/OR form.
///
/// Predicates are kept in a *normalised* shape by the smart constructors
/// [`Predicate::and`] and [`Predicate::or`]: nested conjunctions/disjunctions
/// are flattened, operands are sorted and de-duplicated, `True` is the unit
/// of `and`. That makes structural equality a useful proxy for semantic
/// equality when detecting common subexpressions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Predicate {
    /// Always true (selects everything).
    True,
    /// A single comparison.
    Cmp(Comparison),
    /// Conjunction of two or more sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of two or more sub-predicates.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// A comparison predicate.
    pub fn cmp(attr: AttrRef, op: CompareOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp(Comparison::literal(attr, op, value))
    }

    /// Normalised conjunction of the given predicates.
    pub fn and(preds: impl IntoIterator<Item = Predicate>) -> Self {
        let mut out = Vec::new();
        Self::flatten_into(preds, true, &mut out);
        Self::finish(out, true)
    }

    /// Normalised disjunction of the given predicates.
    ///
    /// `True` as a disjunct makes the whole disjunction `True`.
    pub fn or(preds: impl IntoIterator<Item = Predicate>) -> Self {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Predicate::True => return Predicate::True,
                Predicate::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        Self::finish(out, false)
    }

    fn flatten_into(
        preds: impl IntoIterator<Item = Predicate>,
        conj: bool,
        out: &mut Vec<Predicate>,
    ) {
        for p in preds {
            match p {
                Predicate::True if conj => {}
                Predicate::And(inner) if conj => out.extend(inner),
                other => out.push(other),
            }
        }
    }

    fn finish(mut out: Vec<Predicate>, conj: bool) -> Self {
        out.sort();
        out.dedup();
        match out.len() {
            0 => Predicate::True,
            1 => out.pop().expect("len checked"),
            _ if conj => Predicate::And(out),
            _ => Predicate::Or(out),
        }
    }

    /// Whether this predicate is the trivial `True`.
    pub fn is_true(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// The top-level conjuncts: the operands of an `And`, nothing for
    /// `True`, the predicate itself otherwise.
    pub fn conjuncts(&self) -> &[Predicate] {
        match self {
            Predicate::True => &[],
            Predicate::And(ps) => ps,
            other => std::slice::from_ref(other),
        }
    }

    /// Whether every row satisfying `self` also satisfies `other` — a sound,
    /// incomplete test: `true` is a proof, `false` only means "not shown".
    ///
    /// Structural over the normalised AND/OR shape: a conjunction implies
    /// what any one of its conjuncts implies, a disjunction implies what all
    /// of its disjuncts imply, and a disjunction is implied through any one
    /// disjunct (so `a` and `a ∨ b` both imply `a ∨ b ∨ c` — the shape of an
    /// MVPP's pushed-down selections); comparisons fall back to
    /// [`Comparison::implies`].
    pub fn implies(&self, other: &Predicate) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (_, Predicate::True) => true,
            (Predicate::True, _) => false,
            (Predicate::Or(qs), _) => qs.iter().all(|q| q.implies(other)),
            (_, Predicate::And(vs)) => vs.iter().all(|v| self.implies(v)),
            (Predicate::And(qs), _) => {
                qs.iter().any(|q| q.implies(other))
                    || matches!(other, Predicate::Or(vs) if vs.iter().any(|v| self.implies(v)))
            }
            (_, Predicate::Or(vs)) => vs.iter().any(|v| self.implies(v)),
            (Predicate::Cmp(q), Predicate::Cmp(v)) => q.implies(v),
        }
    }

    /// All attributes referenced anywhere in the predicate.
    pub fn attrs(&self) -> Vec<&AttrRef> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs<'a>(&'a self, out: &mut Vec<&'a AttrRef>) {
        match self {
            Predicate::True => {}
            Predicate::Cmp(c) => {
                out.push(&c.attr);
                if let Rhs::Attr(a) = &c.rhs {
                    out.push(a);
                }
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_attrs(out);
                }
            }
        }
    }

    /// Estimated fraction of rows kept, from catalog statistics.
    ///
    /// Conjunction multiplies selectivities (independence assumption);
    /// disjunction uses inclusion–exclusion under independence:
    /// `s(a ∨ b) = 1 − (1 − s(a))(1 − s(b))`.
    pub fn selectivity(&self, catalog: &Catalog) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Cmp(c) => {
                catalog.selectivity(c.attr.relation.as_str(), c.attr.attr.as_str())
            }
            Predicate::And(ps) => ps.iter().map(|p| p.selectivity(catalog)).product(),
            Predicate::Or(ps) => {
                let miss: f64 = ps.iter().map(|p| 1.0 - p.selectivity(catalog)).product();
                1.0 - miss
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::Cmp(c) => fmt::Display::fmt(c, f),
            Predicate::And(ps) => join_with(f, ps, " ∧ "),
            Predicate::Or(ps) => join_with(f, ps, " ∨ "),
        }
    }
}

fn join_with(f: &mut fmt::Formatter<'_>, ps: &[Predicate], sep: &str) -> fmt::Result {
    f.write_str("(")?;
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        fmt::Display::fmt(p, f)?;
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_catalog::{AttrType, Catalog};

    fn city_la() -> Predicate {
        Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "LA")
    }

    fn city_sf() -> Predicate {
        Predicate::cmp(AttrRef::new("Division", "city"), CompareOp::Eq, "SF")
    }

    #[test]
    fn and_flattens_sorts_and_dedupes() {
        let p = Predicate::and([
            city_sf(),
            Predicate::and([city_la(), Predicate::True]),
            city_la(),
        ]);
        match &p {
            Predicate::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        // Commuted construction yields the identical value.
        let q = Predicate::and([city_la(), city_sf()]);
        assert_eq!(p, q);
    }

    #[test]
    fn and_of_one_collapses() {
        assert_eq!(Predicate::and([city_la()]), city_la());
        assert_eq!(Predicate::and([]), Predicate::True);
    }

    #[test]
    fn or_short_circuits_on_true() {
        assert_eq!(Predicate::or([city_la(), Predicate::True]), Predicate::True);
    }

    #[test]
    fn or_flattens_nested() {
        let p = Predicate::or([Predicate::or([city_la(), city_sf()]), city_sf()]);
        match p {
            Predicate::Or(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn eval_ops() {
        assert!(CompareOp::Gt.eval(&2, &1));
        assert!(!CompareOp::Le.eval(&2, &1));
        assert!(CompareOp::Ne.eval(&2, &1));
        assert_eq!(CompareOp::Lt.flipped(), CompareOp::Gt);
        assert_eq!(CompareOp::Eq.flipped(), CompareOp::Eq);
    }

    #[test]
    fn selectivity_of_paper_predicates() {
        let mut c = Catalog::new();
        c.relation("Division")
            .attr("city", AttrType::Text)
            .records(5_000.0)
            .blocks(500.0)
            .selectivity("city", 0.02)
            .finish()
            .unwrap();
        assert_eq!(city_la().selectivity(&c), 0.02);
        // Disjunction of two independent 2% filters: 1 - 0.98^2.
        let or = Predicate::or([city_la(), city_sf()]);
        let s = or.selectivity(&c);
        assert!((s - (1.0 - 0.98 * 0.98)).abs() < 1e-12);
        // Conjunction multiplies.
        let and = Predicate::and([city_la(), city_sf()]);
        assert!((and.selectivity(&c) - 0.0004).abs() < 1e-12);
        assert_eq!(Predicate::True.selectivity(&c), 1.0);
    }

    #[test]
    fn comparison_implication_is_range_containment() {
        let x = |op, v: i64| Comparison::literal(AttrRef::new("R", "x"), op, v);
        use CompareOp::{Eq, Ge, Gt, Le, Lt, Ne};
        // Soundness by brute force over a small integer domain: whenever
        // `implies` says yes, no value satisfies the left side only.
        let ops = [Eq, Ne, Lt, Le, Gt, Ge];
        for (p, q) in ops.iter().flat_map(|p| ops.iter().map(move |q| (*p, *q))) {
            for (a, b) in (0..5).flat_map(|a| (0..5).map(move |b| (a, b))) {
                if x(p, a).implies(&x(q, b)) {
                    let holds = (-3..8).all(|v: i64| !p.eval(&v, &a) || q.eval(&v, &b));
                    assert!(holds, "x{p}{a} does not imply x{q}{b}");
                }
            }
        }
        // The containments view matching leans on.
        assert!(x(Gt, 5).implies(&x(Gt, 3)));
        assert!(x(Gt, 5).implies(&x(Ge, 5)));
        assert!(x(Ge, 5).implies(&x(Gt, 4)));
        assert!(x(Eq, 5).implies(&x(Le, 5)));
        assert!(x(Lt, 2).implies(&x(Ne, 2)));
        assert!(!x(Gt, 3).implies(&x(Gt, 5)));
        assert!(!x(Ge, 5).implies(&x(Gt, 5)));
        assert!(!x(Ne, 5).implies(&x(Gt, 0)));
        // Different attributes and attribute right-hand sides prove nothing.
        let y = Comparison::literal(AttrRef::new("R", "y"), Gt, 1);
        assert!(!x(Gt, 5).implies(&y));
        // Cross-variant literals order by variant tag, as the engine does.
        let d = Comparison::literal(AttrRef::new("R", "x"), Lt, Value::date(1996, 1, 1));
        assert!(x(Eq, 7).implies(&d));
    }

    #[test]
    fn predicate_implication_follows_the_and_or_shape() {
        let gt = |v: i64| Predicate::cmp(AttrRef::new("R", "x"), CompareOp::Gt, v);
        let wide = Predicate::or([city_la(), city_sf(), gt(100)]);
        assert!(city_la().implies(&wide));
        assert!(Predicate::or([city_la(), gt(200)]).implies(&wide));
        assert!(Predicate::and([city_la(), gt(0)]).implies(&wide));
        assert!(!wide.implies(&city_la()));
        assert!(!gt(50).implies(&wide));
        assert!(Predicate::and([city_la(), gt(7)]).implies(&Predicate::and([gt(3), city_la()])));
        assert!(!city_la().implies(&Predicate::and([gt(3), city_la()])));
        assert!(wide.implies(&Predicate::True));
        assert!(!Predicate::True.implies(&wide));
        // A conjunction inside a disjunct is reached through the disjunct.
        let nested = Predicate::or([Predicate::and([city_la(), gt(3)]), city_sf()]);
        assert!(Predicate::and([gt(3), city_la()]).implies(&nested));
        assert_eq!(wide.conjuncts().len(), 1);
        assert_eq!(Predicate::True.conjuncts().len(), 0);
        assert_eq!(Predicate::and([city_la(), gt(1)]).conjuncts().len(), 2);
    }

    #[test]
    fn attrs_collects_both_sides() {
        let join_like = Predicate::Cmp(Comparison {
            attr: AttrRef::new("Pd", "Did"),
            op: CompareOp::Eq,
            rhs: Rhs::Attr(AttrRef::new("Div", "Did")),
        });
        assert_eq!(join_like.attrs().len(), 2);
    }

    #[test]
    fn display_round_trips_shape() {
        let p = Predicate::and([city_la(), city_sf()]);
        assert_eq!(p.to_string(), "(Division.city='LA' ∧ Division.city='SF')");
    }
}
