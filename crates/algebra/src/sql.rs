//! A hand-written parser for the SQL dialect the paper's queries use:
//! `SELECT attrs FROM relations WHERE comparisons AND …`.
//!
//! The parser produces a *canonical* (unoptimised) [`Expr`]: relations are
//! joined left-deep in `FROM` order with their equi-join conditions, the
//! remaining predicates form one selection on top, and the `SELECT` list
//! becomes a final projection. The optimizer crate then rewrites this into
//! the "individual optimal plans" of the paper's Figure 5.
//!
//! Parsing copies no names: tokens borrow identifiers and string literals
//! from the query text, and with a catalog every relation and attribute it
//! knows resolves to the catalog's own [`RelName`]/[`AttrName`] — a
//! reference-count bump. What the query's `Expr` owns anew is its nodes,
//! its lists and its text literals.
//!
//! Malformed input is a [`ParseError`], never a panic: an integer that does
//! not fit 64 bits and a date whose month or day is out of range are
//! [`ParseError::OutOfRange`], and a character the lexer does not know is
//! reported as written.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mvdesign_catalog::{AttrName, AttrRef, Catalog, RelName, RelationSchema};

use crate::aggregate::{AggExpr, AggFunc, AGG_RELATION};
use crate::expr::{Expr, JoinCondition};
use crate::predicate::{CompareOp, Comparison, Predicate, Rhs};
use crate::value::Value;

/// Errors produced while parsing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// An unrecognised character in the input.
    Lex {
        /// Byte offset of the offending character.
        pos: usize,
        /// The character itself.
        found: char,
    },
    /// The parser expected something else.
    Unexpected {
        /// What was expected.
        expected: String,
        /// What was found instead.
        found: String,
    },
    /// An unqualified attribute could not be resolved to a relation.
    UnresolvedAttribute(String),
    /// An unqualified attribute matched more than one `FROM` relation.
    AmbiguousAttribute(String),
    /// A construct outside the supported SPJ dialect.
    Unsupported(String),
    /// A literal outside its domain: an integer that does not fit 64 bits,
    /// or a date whose month or day is out of range.
    OutOfRange(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex { pos, found } => {
                write!(f, "unrecognised character `{found}` at byte {pos}")
            }
            ParseError::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseError::UnresolvedAttribute(a) => {
                write!(f, "cannot resolve attribute `{a}` to a FROM relation")
            }
            ParseError::AmbiguousAttribute(a) => {
                write!(f, "attribute `{a}` is ambiguous among the FROM relations")
            }
            ParseError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            ParseError::OutOfRange(literal) => write!(f, "literal `{literal}` is out of range"),
        }
    }
}

impl Error for ParseError {}

/// Parses a query without a catalog.
///
/// Unqualified attributes can only be resolved when the `FROM` clause names
/// a single relation; otherwise qualify them (`Div.city`).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or unresolvable attributes.
pub fn parse_query(sql: &str) -> Result<Arc<Expr>, ParseError> {
    parse_with_resolver(sql, None)
}

/// Parses a query, resolving unqualified attributes against catalog schemas
/// (the paper writes `quantity > 100` without qualification).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, or when an unqualified
/// attribute matches zero or several `FROM` relations.
pub fn parse_query_with(sql: &str, catalog: &Catalog) -> Result<Arc<Expr>, ParseError> {
    parse_with_resolver(sql, Some(catalog))
}

fn parse_with_resolver(sql: &str, catalog: Option<&Catalog>) -> Result<Arc<Expr>, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_end()?;
    Scope::new(&stmt.from, catalog).build(&stmt)
}

// ---------------------------------------------------------------- lexer --

/// One token. Identifiers and string literals borrow the query text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(i64),
    Str(&'s str),
    /// `m/d/yy` date literal, as written in the paper (`date > 7/1/96`).
    Date(i64, i64, i64),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Op(CompareOp),
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Date(m, d, y) => write!(f, "`{m}/{d}/{y}`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Op(op) => write!(f, "`{op}`"),
        }
    }
}

fn lex(sql: &str) -> Result<Vec<Tok<'_>>, ParseError> {
    let bytes = sql.as_bytes();
    // Tokens are mostly separated by a blank: one allocation, not a doubling
    // series.
    let mut toks = Vec::with_capacity(sql.len() / 2 + 1);
    let mut i = 0;
    // Every token is ASCII or ends on an ASCII quote, so `i` is always at a
    // character boundary.
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii() && c.is_whitespace() => i += 1,
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Op(CompareOp::Eq));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(CompareOp::Le));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Op(CompareOp::Ne));
                    i += 2;
                } else {
                    toks.push(Tok::Op(CompareOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Op(CompareOp::Ge));
                    i += 2;
                } else {
                    toks.push(Tok::Op(CompareOp::Gt));
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = bytes[i];
                let start = i + 1;
                let Some(len) = bytes[start..].iter().position(|&b| b == quote) else {
                    return Err(ParseError::Unexpected {
                        expected: format!("closing {c}"),
                        found: "end of input".into(),
                    });
                };
                toks.push(Tok::Str(&sql[start..start + len]));
                i = start + len + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let (first, next) = lex_number(sql, i)?;
                i = next;
                // Date literal `m/d/yy`?
                if bytes.get(i) == Some(&b'/') {
                    let (d, ni) = lex_number(sql, i + 1)?;
                    if bytes.get(ni) == Some(&b'/') {
                        let (y, nj) = lex_number(sql, ni + 1)?;
                        if date(first, d, y).is_none() {
                            return Err(ParseError::OutOfRange(sql[start..nj].to_string()));
                        }
                        toks.push(Tok::Date(first, d, y));
                        i = nj;
                        continue;
                    }
                    return Err(ParseError::Unexpected {
                        expected: "date literal m/d/yy".into(),
                        found: sql[start..ni].to_string(),
                    });
                }
                toks.push(Tok::Int(first));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Ident(&sql[start..i]));
            }
            _ => {
                return Err(ParseError::Lex {
                    pos: i,
                    found: sql[i..].chars().next().expect("a character starts at i"),
                })
            }
        }
    }
    Ok(toks)
}

/// The decimal number starting at byte `i` and the byte after it.
fn lex_number(sql: &str, mut i: usize) -> Result<(i64, usize), ParseError> {
    let bytes = sql.as_bytes();
    let start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if start == i {
        return Err(ParseError::Unexpected {
            expected: "digits".into(),
            found: sql[start..]
                .chars()
                .next()
                .map_or("end of input".into(), |c| c.to_string()),
        });
    }
    // Digits only: the parse fails exactly when the number overflows.
    let digits = &sql[start..i];
    let n = digits
        .parse()
        .map_err(|_| ParseError::OutOfRange(digits.to_string()))?;
    Ok((n, i))
}

/// The date `m/d/y` (a two-digit year is in the 1900s), or `None` when the
/// month or day is out of range or the day number overflows.
fn date(month: i64, day: i64, year: i64) -> Option<Value> {
    if !((1..=12).contains(&month) && (1..=31).contains(&day)) {
        return None;
    }
    let year = if year < 100 { 1900 + year } else { year };
    // `Value::date`'s day number must fit.
    year.checked_mul(372)?.checked_add(11 * 31 + 30)?;
    Some(Value::date(year, month, day))
}

// --------------------------------------------------------------- parser --

#[derive(Debug, Clone, Copy, PartialEq)]
struct AttrSpec<'s> {
    relation: Option<&'s str>,
    attr: &'s str,
}

/// A literal or an attribute on the right of a comparison.
#[derive(Debug, Clone)]
enum RawRhs<'s> {
    Value(Value),
    Attr(AttrSpec<'s>),
}

#[derive(Debug, Clone)]
enum Cond<'s> {
    Cmp(AttrSpec<'s>, CompareOp, RawRhs<'s>),
    And(Vec<Cond<'s>>),
    Or(Vec<Cond<'s>>),
}

#[derive(Debug, Clone)]
enum SelectItem<'s> {
    Attr(AttrSpec<'s>),
    Agg {
        func: AggFunc,
        arg: Option<AttrSpec<'s>>, // None = COUNT(*)
        alias: Option<&'s str>,
    },
}

struct Statement<'s> {
    select: Option<Vec<SelectItem<'s>>>, // None = `*`
    from: Vec<&'s str>,
    where_: Option<Cond<'s>>,
    group_by: Vec<AttrSpec<'s>>,
    having: Option<Cond<'s>>,
}

struct Parser<'s> {
    tokens: Vec<Tok<'s>>,
    pos: usize,
}

/// The aggregate function an identifier names, in any case.
fn agg_func(name: &str) -> Option<AggFunc> {
    [
        ("count", AggFunc::Count),
        ("sum", AggFunc::Sum),
        ("min", AggFunc::Min),
        ("max", AggFunc::Max),
        ("avg", AggFunc::Avg),
    ]
    .into_iter()
    .find(|(kw, _)| name.eq_ignore_ascii_case(kw))
    .map(|(_, func)| func)
}

fn found(tok: Option<Tok<'_>>) -> String {
    tok.map_or("end of input".into(), |t| t.to_string())
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token when it is `tok`.
    fn eat(&mut self, tok: Tok<'_>) -> bool {
        let hit = self.peek() == Some(tok);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::Unexpected {
                expected: format!("`{kw}`"),
                found: found(self.peek()),
            })
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw));
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn ident(&mut self) -> Result<&'s str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError::Unexpected {
                expected: "identifier".into(),
                found: found(other),
            }),
        }
    }

    fn close_paren(&mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::RParen) => Ok(()),
            other => Err(ParseError::Unexpected {
                expected: "`)`".into(),
                found: found(other),
            }),
        }
    }

    /// One or more `item`s separated by commas.
    fn list<T>(
        &mut self,
        item: impl Fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = Vec::with_capacity(4);
        items.push(item(self)?);
        while self.eat(Tok::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn statement(&mut self) -> Result<Statement<'s>, ParseError> {
        self.keyword("select")?;
        let select = if self.eat(Tok::Star) {
            None
        } else {
            Some(self.list(Self::select_item)?)
        };
        self.keyword("from")?;
        let from = self.list(Self::ident)?;
        let where_ = if self.eat_keyword("where") {
            Some(self.disjunction()?)
        } else {
            None
        };
        let group_by = if self.eat_keyword("group") {
            self.keyword("by")?;
            self.list(Self::attr_spec)?
        } else {
            Vec::new()
        };
        let having = if self.eat_keyword("having") {
            Some(self.disjunction()?)
        } else {
            None
        };
        Ok(Statement {
            select,
            from,
            where_,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem<'s>, ParseError> {
        // Aggregate call? An aggregate keyword immediately followed by `(`.
        let call = match self.peek() {
            Some(Tok::Ident(name)) => {
                agg_func(name).filter(|_| self.tokens.get(self.pos + 1) == Some(&Tok::LParen))
            }
            _ => None,
        };
        let Some(func) = call else {
            return Ok(SelectItem::Attr(self.attr_spec()?));
        };
        self.pos += 2; // the function name and `(`
        let arg = if self.eat(Tok::Star) {
            if func != AggFunc::Count {
                return Err(ParseError::Unsupported(format!(
                    "{func}(*) — only COUNT accepts *"
                )));
            }
            None
        } else {
            Some(self.attr_spec()?)
        };
        self.close_paren()?;
        let alias = if self.eat_keyword("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Agg { func, arg, alias })
    }

    fn attr_spec(&mut self) -> Result<AttrSpec<'s>, ParseError> {
        let first = self.ident()?;
        self.attr_after(first)
    }

    /// The attribute whose first identifier, `first`, is already consumed.
    fn attr_after(&mut self, first: &'s str) -> Result<AttrSpec<'s>, ParseError> {
        Ok(if self.eat(Tok::Dot) {
            AttrSpec {
                relation: Some(first),
                attr: self.ident()?,
            }
        } else {
            AttrSpec {
                relation: None,
                attr: first,
            }
        })
    }

    fn disjunction(&mut self) -> Result<Cond<'s>, ParseError> {
        let first = self.conjunction()?;
        if !self.eat_keyword("or") {
            return Ok(first);
        }
        let mut parts = vec![first, self.conjunction()?];
        while self.eat_keyword("or") {
            parts.push(self.conjunction()?);
        }
        Ok(Cond::Or(parts))
    }

    fn conjunction(&mut self) -> Result<Cond<'s>, ParseError> {
        let first = self.atom()?;
        if !self.eat_keyword("and") {
            return Ok(first);
        }
        let mut parts = vec![first, self.atom()?];
        while self.eat_keyword("and") {
            parts.push(self.atom()?);
        }
        Ok(Cond::And(parts))
    }

    fn atom(&mut self) -> Result<Cond<'s>, ParseError> {
        if self.eat(Tok::LParen) {
            let inner = self.disjunction()?;
            self.close_paren()?;
            return Ok(inner);
        }
        let lhs = self.attr_spec()?;
        let op = match self.next() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(ParseError::Unexpected {
                    expected: "comparison operator".into(),
                    found: found(other),
                })
            }
        };
        let rhs = match self.next() {
            Some(Tok::Int(i)) => RawRhs::Value(Value::Int(i)),
            Some(Tok::Str(s)) => RawRhs::Value(Value::text(s)),
            Some(Tok::Date(m, d, y)) => {
                RawRhs::Value(date(m, d, y).expect("the lexer checked the date"))
            }
            Some(Tok::Ident(first)) => RawRhs::Attr(self.attr_after(first)?),
            other => {
                return Err(ParseError::Unexpected {
                    expected: "literal or attribute".into(),
                    found: found(other),
                })
            }
        };
        Ok(Cond::Cmp(lhs, op, rhs))
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::Unexpected {
                expected: "end of input".into(),
                found: found(self.peek()),
            })
        }
    }
}

// -------------------------------------------------------------- builder --

/// The `FROM` relations a query's attributes resolve against. With a
/// catalog, every name the catalog knows resolves to the catalog's own
/// [`RelName`]/[`AttrName`] — a reference-count bump, not an allocation.
struct Scope<'c> {
    /// Each `FROM` relation, with its schema when the catalog knows it.
    from: Vec<(RelName, Option<&'c RelationSchema>)>,
    catalog: Option<&'c Catalog>,
}

/// The relation named `name`, as the catalog spells it when it knows it,
/// with its schema.
fn relation<'c>(catalog: Option<&'c Catalog>, name: &str) -> (RelName, Option<&'c RelationSchema>) {
    match catalog.and_then(|c| c.schema(name)) {
        Some(schema) => (schema.name().clone(), Some(schema)),
        None => (RelName::new(name), None),
    }
}

/// A resolved conjunct: either a join condition or a selection predicate.
enum Conjunct {
    Join(AttrRef, AttrRef),
    Filter(Predicate),
}

impl<'c> Scope<'c> {
    fn new(from: &[&str], catalog: Option<&'c Catalog>) -> Self {
        let from = from.iter().map(|r| relation(catalog, r)).collect();
        Self { from, catalog }
    }

    fn resolve(&self, spec: &AttrSpec<'_>) -> Result<AttrRef, ParseError> {
        if let Some(rel) = spec.relation {
            let (relation, schema) = match self.from.iter().find(|(r, _)| r == rel) {
                Some((r, schema)) => (r.clone(), *schema),
                None => relation(self.catalog, rel),
            };
            let attr = schema
                .and_then(|s| s.attribute(spec.attr))
                .map_or_else(|| AttrName::new(spec.attr), |a| a.name.clone());
            return Ok(AttrRef { relation, attr });
        }
        if self.catalog.is_some() {
            let mut owners = self
                .from
                .iter()
                .filter_map(|(r, s)| Some(r).zip(s.and_then(|s| s.attribute(spec.attr))));
            return match (owners.next(), owners.next()) {
                (None, _) => Err(ParseError::UnresolvedAttribute(spec.attr.to_string())),
                (Some((r, a)), None) => Ok(AttrRef {
                    relation: r.clone(),
                    attr: a.name.clone(),
                }),
                (Some(_), Some(_)) => Err(ParseError::AmbiguousAttribute(spec.attr.to_string())),
            };
        }
        if let [(only, _)] = &self.from[..] {
            Ok(AttrRef::new(only.clone(), spec.attr))
        } else {
            Err(ParseError::UnresolvedAttribute(spec.attr.to_string()))
        }
    }

    fn comparison(
        &self,
        lhs: &AttrSpec<'_>,
        op: CompareOp,
        rhs: &RawRhs<'_>,
    ) -> Result<Conjunct, ParseError> {
        let attr = self.resolve(lhs)?;
        let rhs = match rhs {
            RawRhs::Attr(spec) => {
                let r = self.resolve(spec)?;
                if op == CompareOp::Eq && attr.relation != r.relation {
                    return Ok(Conjunct::Join(attr, r));
                }
                // Attribute-vs-attribute comparison within one relation (or
                // a theta comparison): keep as a filter.
                Rhs::Attr(r)
            }
            RawRhs::Value(v) => Rhs::Literal(v.clone()),
        };
        Ok(Conjunct::Filter(Predicate::Cmp(Comparison {
            attr,
            op,
            rhs,
        })))
    }

    /// The conjuncts of a top-level condition: nested ANDs flatten, and an
    /// equality across two relations is a join condition.
    fn conjuncts(
        &self,
        cond: &Cond<'_>,
        joins: &mut Vec<Option<(AttrRef, AttrRef)>>,
        filters: &mut Vec<Predicate>,
    ) -> Result<(), ParseError> {
        match cond {
            Cond::And(parts) => {
                for p in parts {
                    self.conjuncts(p, joins, filters)?;
                }
            }
            Cond::Cmp(lhs, op, rhs) => match self.comparison(lhs, *op, rhs)? {
                Conjunct::Join(a, b) => joins.push(Some((a, b))),
                Conjunct::Filter(f) => filters.push(f),
            },
            Cond::Or(_) => filters.push(self.filter(cond)?),
        }
        Ok(())
    }

    /// A condition under an OR: a pure filter.
    fn filter(&self, cond: &Cond<'_>) -> Result<Predicate, ParseError> {
        let parts = |parts: &[Cond<'_>]| {
            parts
                .iter()
                .map(|p| self.filter(p))
                .collect::<Result<Vec<_>, _>>()
        };
        match cond {
            Cond::Cmp(lhs, op, rhs) => match self.comparison(lhs, *op, rhs)? {
                Conjunct::Filter(f) => Ok(f),
                Conjunct::Join(a, b) => Err(ParseError::Unsupported(format!(
                    "join condition {a}={b} nested under OR"
                ))),
            },
            Cond::And(ps) => Ok(Predicate::and(parts(ps)?)),
            Cond::Or(ps) => Ok(Predicate::or(parts(ps)?)),
        }
    }

    fn build(&self, stmt: &Statement<'_>) -> Result<Arc<Expr>, ParseError> {
        let mut joins = Vec::new();
        let mut filters = Vec::new();
        if let Some(w) = &stmt.where_ {
            self.conjuncts(w, &mut joins, &mut filters)?;
        }

        // Left-deep join in FROM order, attaching each equi-condition at the
        // first join where both sides are available.
        let mut expr = Expr::base(self.from[0].0.clone());
        for (k, (rel, _)) in self.from.iter().enumerate().skip(1) {
            let in_tree = |r: &RelName| self.from[..k].iter().any(|(t, _)| t == r);
            let here = |(a, b): &(AttrRef, AttrRef)| {
                (in_tree(&a.relation) && b.relation == *rel)
                    || (in_tree(&b.relation) && a.relation == *rel)
            };
            let pairs = joins.iter_mut().filter_map(|j| {
                if j.as_ref().is_some_and(here) {
                    j.take()
                } else {
                    None
                }
            });
            let on = JoinCondition::new(pairs);
            expr = Expr::join(expr, Expr::base(rel.clone()), on);
        }

        // Join conditions whose relations never both appeared become equality
        // filters (e.g. a self-referential condition, or a condition over
        // relations missing from FROM — let schema inference report the latter).
        for (a, b) in joins.into_iter().flatten() {
            filters.push(Predicate::Cmp(Comparison {
                attr: a,
                op: CompareOp::Eq,
                rhs: Rhs::Attr(b),
            }));
        }

        expr = Expr::select(expr, Predicate::and(filters));

        let has_aggs = stmt
            .select
            .as_ref()
            .is_some_and(|l| l.iter().any(|i| matches!(i, SelectItem::Agg { .. })));

        if !has_aggs && stmt.group_by.is_empty() {
            if stmt.having.is_some() {
                return Err(ParseError::Unsupported(
                    "HAVING without GROUP BY or aggregates".into(),
                ));
            }
            if let Some(list) = &stmt.select {
                let attrs = list
                    .iter()
                    .map(|item| match item {
                        SelectItem::Attr(a) => self.resolve(a),
                        SelectItem::Agg { .. } => unreachable!("has_aggs is false"),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                expr = Expr::project(expr, attrs);
            }
            return Ok(expr);
        }

        // Aggregation query. Group keys: the GROUP BY clause, or — when absent —
        // the plain attributes of the select list.
        let list = stmt.select.as_ref().ok_or_else(|| {
            ParseError::Unsupported("SELECT * together with GROUP BY/aggregates".into())
        })?;
        let mut group_by: Vec<AttrRef> = stmt
            .group_by
            .iter()
            .map(|g| self.resolve(g))
            .collect::<Result<_, _>>()?;
        if group_by.is_empty() {
            for item in list {
                if let SelectItem::Attr(a) = item {
                    let r = self.resolve(a)?;
                    if !group_by.contains(&r) {
                        group_by.push(r);
                    }
                }
            }
        }

        // Build the aggregates, generating aliases where none were given.
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut output: Vec<AttrRef> = Vec::new();
        for item in list {
            match item {
                SelectItem::Attr(a) => {
                    let r = self.resolve(a)?;
                    if !group_by.contains(&r) {
                        return Err(ParseError::Unsupported(format!(
                            "non-aggregated attribute {r} outside GROUP BY"
                        )));
                    }
                    output.push(r);
                }
                SelectItem::Agg { func, arg, alias } => {
                    let input = arg.as_ref().map(|a| self.resolve(a)).transpose()?;
                    let mut name = match (alias, &input) {
                        (Some(alias), _) => alias.to_string(),
                        (None, Some(a)) => {
                            format!("{}_{}", func.to_string().to_ascii_lowercase(), a.attr)
                        }
                        (None, None) => "count_star".to_string(),
                    };
                    while aggs.iter().any(|g| g.alias == name.as_str()) {
                        name.push('_');
                    }
                    let agg = AggExpr {
                        func: *func,
                        input,
                        alias: name.into(),
                    };
                    output.push(agg.output_attr());
                    aggs.push(agg);
                }
            }
        }

        let having = match &stmt.having {
            Some(having) => Some(self.having(having, &aggs)?),
            None => None,
        };
        // The aggregate's natural order: groups, then aggregates.
        let keys = group_by.len();
        let natural = output.len() == keys + aggs.len()
            && output[..keys] == group_by[..]
            && output[keys..]
                .iter()
                .zip(&aggs)
                .all(|(o, a)| o.relation == AGG_RELATION && o.attr == a.alias);
        expr = Expr::aggregate(expr, group_by, aggs);
        if let Some(predicate) = having {
            expr = Arc::new(Expr::Select {
                input: expr,
                predicate,
            });
        }
        // Reorder with a projection when the listed order differs.
        if !natural {
            expr = Expr::project(expr, output);
        }
        Ok(expr)
    }

    /// Resolves a HAVING condition: unqualified attributes naming an aggregate
    /// alias become `#agg.alias`; everything else resolves like a WHERE
    /// condition. Attribute-vs-attribute comparisons stay filters (no join
    /// extraction above an aggregation).
    fn having(&self, cond: &Cond<'_>, aggs: &[AggExpr]) -> Result<Predicate, ParseError> {
        let resolve = |spec: &AttrSpec<'_>| -> Result<AttrRef, ParseError> {
            if spec.relation.is_none() {
                if let Some(agg) = aggs.iter().find(|a| a.alias == spec.attr) {
                    return Ok(agg.output_attr());
                }
            }
            self.resolve(spec)
        };
        let parts = |parts: &[Cond<'_>]| {
            parts
                .iter()
                .map(|p| self.having(p, aggs))
                .collect::<Result<Vec<_>, _>>()
        };
        match cond {
            Cond::Cmp(lhs, op, rhs) => {
                let attr = resolve(lhs)?;
                let rhs = match rhs {
                    RawRhs::Attr(spec) => Rhs::Attr(resolve(spec)?),
                    RawRhs::Value(v) => Rhs::Literal(v.clone()),
                };
                Ok(Predicate::Cmp(Comparison { attr, op: *op, rhs }))
            }
            Cond::And(ps) => Ok(Predicate::and(parts(ps)?)),
            Cond::Or(ps) => Ok(Predicate::or(parts(ps)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvdesign_catalog::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("Ord")
            .attr("Pid", AttrType::Int)
            .attr("Cid", AttrType::Int)
            .attr("quantity", AttrType::Int)
            .attr("date", AttrType::Date)
            .records(50_000.0)
            .blocks(6_000.0)
            .finish()
            .unwrap();
        c.relation("Cust")
            .attr("Cid", AttrType::Int)
            .attr("name", AttrType::Text)
            .attr("city", AttrType::Text)
            .records(20_000.0)
            .blocks(2_000.0)
            .finish()
            .unwrap();
        c
    }

    #[test]
    fn parses_paper_query1() {
        let e = parse_query("Select Pd.name From Pd, Div Where Div.city='LA' and Pd.Did=Div.Did")
            .unwrap();
        // π over σ? No: the only filter goes on top of the join, then π.
        match &*e {
            Expr::Project { input, attrs } => {
                assert_eq!(attrs, &[AttrRef::new("Pd", "name")]);
                match &**input {
                    Expr::Select {
                        input: j,
                        predicate,
                    } => {
                        assert_eq!(predicate.to_string(), "Div.city='LA'");
                        assert!(matches!(&**j, Expr::Join { .. }));
                    }
                    other => panic!("expected select, got {other}"),
                }
            }
            other => panic!("expected project, got {other}"),
        }
    }

    #[test]
    fn parses_paper_query4_with_catalog_resolution() {
        let c = catalog();
        let e = parse_query_with(
            "Select Cust.city, date From Ord, Cust Where quantity>100 and Ord.Cid=Cust.Cid",
            &c,
        )
        .unwrap();
        let s = e.to_string();
        assert!(s.contains("Ord.quantity>100"), "{s}");
        assert!(s.contains("Cust.Cid=Ord.Cid"), "{s}");
        assert!(s.contains("π[Cust.city,Ord.date]"), "{s}");
    }

    #[test]
    fn parses_date_literals() {
        let c = catalog();
        let e = parse_query_with(
            "Select Cust.name From Ord, Cust Where Ord.Cid=Cust.Cid and date>7/1/96",
            &c,
        )
        .unwrap();
        assert!(e
            .to_string()
            .contains(&format!("{}", Value::date(1996, 7, 1))));
    }

    #[test]
    fn ambiguous_unqualified_attribute_is_rejected() {
        let c = catalog();
        // `Cid` exists in both Ord and Cust.
        let err = parse_query_with("Select name From Ord, Cust Where Cid > 3", &c).unwrap_err();
        assert_eq!(err, ParseError::AmbiguousAttribute("Cid".into()));
    }

    #[test]
    fn unresolvable_attribute_without_catalog() {
        let err = parse_query("Select name From A, B").unwrap_err();
        assert_eq!(err, ParseError::UnresolvedAttribute("name".into()));
    }

    #[test]
    fn single_table_unqualified_resolves_without_catalog() {
        let e = parse_query("Select name From Cust Where city = 'LA'").unwrap();
        assert!(e.to_string().contains("Cust.city='LA'"));
    }

    #[test]
    fn star_means_no_projection() {
        let e = parse_query("Select * From Cust").unwrap();
        assert!(e.is_base());
    }

    #[test]
    fn or_of_filters_is_supported() {
        let e = parse_query("Select * From Div Where city = 'LA' or city = 'SF'").unwrap();
        match &*e {
            Expr::Select { predicate, .. } => {
                assert!(matches!(predicate, Predicate::Or(_)));
            }
            other => panic!("expected select, got {other}"),
        }
    }

    #[test]
    fn join_condition_under_or_is_rejected() {
        let err = parse_query("Select * From A, B Where A.x = B.y or A.z = 1").unwrap_err();
        assert!(matches!(err, ParseError::Unsupported(_)));
    }

    #[test]
    fn cross_join_when_no_condition() {
        let e = parse_query("Select * From A, B").unwrap();
        match &*e {
            Expr::Join { on, .. } => assert!(on.is_cross()),
            other => panic!("expected join, got {other}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse_query("Select * From A extra").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn unclosed_string_is_rejected() {
        let err = parse_query("Select * From A Where A.x = 'oops").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn lex_rejects_strange_characters() {
        let err = parse_query("Select # From A").unwrap_err();
        assert!(matches!(err, ParseError::Lex { .. }));
    }

    #[test]
    fn lex_errors_name_the_character_as_written() {
        let err = parse_query("SELECT é FROM R").unwrap_err();
        assert_eq!(
            err,
            ParseError::Lex {
                pos: 7, found: 'é'
            }
        );
        let err = parse_query("SELECT R.x FROM R WHERE R.x = 日").unwrap_err();
        assert_eq!(
            err,
            ParseError::Lex {
                pos: 30,
                found: '日'
            }
        );
        // Inside a string literal any character is text.
        assert!(parse_query("SELECT R.x FROM R WHERE R.x = 'é日'").is_ok());
    }

    #[test]
    fn out_of_range_literals_are_errors_not_panics() {
        for (sql, literal) in [
            (
                "SELECT * FROM R WHERE R.a > 99999999999999999999",
                "99999999999999999999",
            ),
            (
                "SELECT * FROM R WHERE R.d > 1/99999999999999999999/5",
                "99999999999999999999",
            ),
            ("SELECT * FROM R WHERE R.d > 13/1/96", "13/1/96"),
            ("SELECT * FROM R WHERE R.d > 0/1/96", "0/1/96"),
            ("SELECT * FROM R WHERE R.d > 7/32/96", "7/32/96"),
            ("SELECT * FROM R WHERE R.d > 7/0/96", "7/0/96"),
            (
                "SELECT * FROM R WHERE R.d > 7/1/99999999999999999",
                "7/1/99999999999999999",
            ),
        ] {
            let err = parse_query(sql).unwrap_err();
            assert_eq!(err, ParseError::OutOfRange(literal.into()), "{sql}");
            assert!(err.to_string().contains(literal), "{err}");
        }
        // The largest accepted values still parse.
        let e = parse_query("SELECT * FROM R WHERE R.a > 9223372036854775807 AND R.d < 12/31/99")
            .unwrap();
        assert!(e.to_string().contains("9223372036854775807"), "{e}");
    }

    #[test]
    fn four_way_join_builds_left_deep() {
        let e = parse_query(
            "Select Pd.name From Pd, Div, Ord, Cust \
             Where Pd.Did = Div.Did and Pd.Pid = Ord.Pid and Ord.Cid = Cust.Cid",
        )
        .unwrap();
        // Joins: ((Pd ⋈ Div) ⋈ Ord) ⋈ Cust, each with its condition.
        let mut joins = 0;
        crate::visit::postorder(&e, &mut |n| {
            if let Expr::Join { on, .. } = &**n {
                assert!(!on.is_cross());
                joins += 1;
            }
        });
        assert_eq!(joins, 3);
    }
}
#[cfg(test)]
mod aggregate_sql_tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use mvdesign_catalog::AttrType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.relation("T")
            .attr("g", AttrType::Text)
            .attr("v", AttrType::Int)
            .records(100.0)
            .blocks(10.0)
            .finish()
            .unwrap();
        c
    }

    #[test]
    fn count_star_parses_with_default_alias() {
        let q = parse_query_with("SELECT g, COUNT(*) FROM T GROUP BY T.g", &catalog()).unwrap();
        match &*q {
            Expr::Aggregate { aggs, .. } => {
                assert_eq!(aggs[0].func, AggFunc::Count);
                assert!(aggs[0].input.is_none());
                assert_eq!(aggs[0].alias.as_str(), "count_star");
            }
            other => panic!("expected aggregate, got {other}"),
        }
    }

    #[test]
    fn star_only_count_is_allowed_nothing_else() {
        let err = parse_query_with("SELECT g, SUM(*) FROM T GROUP BY T.g", &catalog()).unwrap_err();
        assert!(matches!(err, ParseError::Unsupported(_)), "{err}");
    }

    #[test]
    fn duplicate_auto_aliases_are_disambiguated() {
        let q = parse_query_with("SELECT SUM(v), SUM(v) FROM T", &catalog()).unwrap();
        match &*q {
            Expr::Aggregate { aggs, .. } => {
                assert_eq!(aggs.len(), 2);
                assert_ne!(aggs[0].alias, aggs[1].alias);
            }
            other => panic!("expected aggregate, got {other}"),
        }
    }

    #[test]
    fn select_star_with_group_by_is_rejected() {
        let err = parse_query_with("SELECT * FROM T GROUP BY T.g", &catalog()).unwrap_err();
        assert!(matches!(err, ParseError::Unsupported(_)));
    }

    #[test]
    fn an_identifier_named_count_without_parens_is_an_attribute() {
        let mut c = Catalog::new();
        c.relation("R")
            .attr("count", AttrType::Int)
            .records(10.0)
            .blocks(1.0)
            .finish()
            .unwrap();
        let q = parse_query_with("SELECT count FROM R", &c).unwrap();
        assert!(matches!(&*q, Expr::Project { .. }));
    }

    #[test]
    fn having_binds_aliases_before_columns() {
        let q = parse_query_with(
            "SELECT g, SUM(v) AS v FROM T GROUP BY T.g HAVING v > 3",
            &catalog(),
        )
        .unwrap();
        // The HAVING's `v` must resolve to the aggregate alias #agg.v, not
        // the base column T.v (which the aggregate output no longer carries).
        let s = q.to_string();
        assert!(s.contains("#agg.v>3"), "{s}");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse_query_with(
            "select g, sum(v) as total from T group by T.g having total >= 0",
            &catalog(),
        )
        .unwrap();
        assert!(matches!(&*q, Expr::Select { .. }), "{q}");
    }
}
