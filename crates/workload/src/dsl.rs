//! A small text format for authoring design problems — catalog statistics
//! plus SQL queries with frequencies — so `mvdesign-cli` can run on plain
//! files.
//!
//! ```text
//! # The paper's running example (excerpt).
//! relation Division {
//!     attr Did int
//!     attr name text
//!     attr city text
//!     records 5000
//!     blocks 500
//!     update_frequency 1
//!     selectivity city 0.02
//! }
//!
//! join Product.Did Division.Did 0.0002
//! joint_size Product Division 30000 5000
//!
//! query Q1 10 {
//!     SELECT Product.name FROM Product, Division
//!     WHERE Division.city = 'LA' AND Product.Did = Division.Did
//! }
//! ```
//!
//! Statements: `relation NAME { … }` with `attr NAME int|text|date`,
//! `records N`, `blocks N`, `update_frequency F`, `selectivity ATTR F` and
//! `transfer_cost F` (per block shipped to the warehouse; default 0, local)
//! inside; `join R.A S.B JS`; `joint_size R S … RECORDS BLOCKS`;
//! `index R.A`; `default_selectivity F`; `query NAME FQ { SQL… }`. `#`
//! starts a comment.

use std::error::Error;
use std::fmt;

use mvdesign_algebra::{parse_query_with, AttrRef, ParseError, Query};
use mvdesign_catalog::{AttrType, Catalog, CatalogError, RelationStats};
use mvdesign_core::{Workload, WorkloadError};

use crate::paper::Scenario;

/// Errors raised while parsing the scenario DSL.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DslError {
    /// A malformed statement.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The embedded SQL failed to parse.
    Sql {
        /// 1-based line number of the `query` statement.
        line: usize,
        /// The query's name.
        query: String,
        /// The SQL error.
        source: ParseError,
    },
    /// Catalog-level validation failed.
    Catalog {
        /// 1-based line number.
        line: usize,
        /// The catalog error.
        source: CatalogError,
    },
    /// The workload is empty or has duplicate query names.
    Workload(WorkloadError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            DslError::Sql {
                line,
                query,
                source,
            } => {
                write!(f, "line {line}: query `{query}`: {source}")
            }
            DslError::Catalog { line, source } => write!(f, "line {line}: {source}"),
            DslError::Workload(e) => write!(f, "workload: {e}"),
        }
    }
}

impl Error for DslError {}

/// Parses a scenario from DSL text.
///
/// # Errors
///
/// Returns [`DslError`] with a line number on any malformed statement,
/// invalid statistic, or unparsable query.
pub fn parse_scenario(text: &str) -> Result<Scenario, DslError> {
    let mut catalog = Catalog::new();
    // Queries are parsed after the whole catalog is known, so forward
    // references to relations work.
    let mut pending_queries: Vec<(usize, String, f64, String)> = Vec::new();

    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "relation" => {
                let name = header(&words, lineno, "relation NAME {")?;
                i = parse_relation(&lines, i, lineno, name, &mut catalog)?;
            }
            "join" => {
                if words.len() != 4 {
                    return Err(syntax(lineno, "expected `join R.A S.B SELECTIVITY`"));
                }
                let a = attr_ref(words[1], lineno)?;
                let b = attr_ref(words[2], lineno)?;
                let js = number(words[3], lineno)?;
                catalog
                    .set_join_selectivity(a, b, js)
                    .map_err(|source| DslError::Catalog {
                        line: lineno,
                        source,
                    })?;
            }
            "joint_size" => {
                if words.len() < 5 {
                    return Err(syntax(lineno, "expected `joint_size R S … RECORDS BLOCKS`"));
                }
                let blocks = number(words[words.len() - 1], lineno)?;
                let records = number(words[words.len() - 2], lineno)?;
                let rels = words[1..words.len() - 2].iter().map(|r| (*r).into());
                catalog
                    .set_size_override(rels, RelationStats::new(records, blocks))
                    .map_err(|source| DslError::Catalog {
                        line: lineno,
                        source,
                    })?;
            }
            "index" => {
                if words.len() != 2 {
                    return Err(syntax(lineno, "expected `index R.A`"));
                }
                let a = attr_ref(words[1], lineno)?;
                catalog
                    .add_index(a.relation, a.attr)
                    .map_err(|source| DslError::Catalog {
                        line: lineno,
                        source,
                    })?;
            }
            "default_selectivity" => {
                if words.len() != 2 {
                    return Err(syntax(lineno, "expected `default_selectivity F`"));
                }
                let s = number(words[1], lineno)?;
                catalog
                    .set_default_selectivity(s)
                    .map_err(|source| DslError::Catalog {
                        line: lineno,
                        source,
                    })?;
            }
            "query" => {
                if words.len() != 4 || words[3] != "{" {
                    return Err(syntax(lineno, "expected `query NAME FREQUENCY {`"));
                }
                let name = words[1].to_string();
                let fq = number(words[2], lineno)?;
                let mut sql = String::new();
                loop {
                    if i >= lines.len() {
                        return Err(syntax(lineno, "unterminated query block (missing `}`)"));
                    }
                    let body = strip_comment(lines[i]);
                    i += 1;
                    if body.trim() == "}" {
                        break;
                    }
                    sql.push_str(body);
                    sql.push(' ');
                }
                pending_queries.push((lineno, name, fq, sql));
            }
            other => {
                return Err(syntax(
                    lineno,
                    &format!(
                        "unknown statement `{other}` (expected relation/join/joint_size/\
                         index/default_selectivity/query)"
                    ),
                ))
            }
        }
    }

    let mut queries = Vec::with_capacity(pending_queries.len());
    for (line, name, fq, sql) in pending_queries {
        let expr = parse_query_with(&sql, &catalog).map_err(|source| DslError::Sql {
            line,
            query: name.clone(),
            source,
        })?;
        if !(fq.is_finite() && fq >= 0.0) {
            return Err(syntax(line, "query frequency must be non-negative"));
        }
        queries.push(Query::new(name, fq, expr));
    }
    let workload = Workload::new(queries).map_err(DslError::Workload)?;
    Ok(Scenario { catalog, workload })
}

fn parse_relation(
    lines: &[&str],
    mut i: usize,
    start: usize,
    name: &str,
    catalog: &mut Catalog,
) -> Result<usize, DslError> {
    let mut attrs: Vec<(String, AttrType)> = Vec::new();
    let mut records = 0.0;
    let mut blocks = 0.0;
    let mut fu = 0.0;
    let mut transfer: Option<(usize, f64)> = None;
    let mut selectivities: Vec<(String, f64)> = Vec::new();
    loop {
        if i >= lines.len() {
            return Err(syntax(start, "unterminated relation block (missing `}`)"));
        }
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            break;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "attr" => {
                if words.len() != 3 {
                    return Err(syntax(lineno, "expected `attr NAME int|text|date`"));
                }
                let ty = match words[2] {
                    "int" => AttrType::Int,
                    "text" => AttrType::Text,
                    "date" => AttrType::Date,
                    other => return Err(syntax(lineno, &format!("unknown type `{other}`"))),
                };
                attrs.push((words[1].to_string(), ty));
            }
            "records" => records = field(&words, lineno, "records N")?,
            "blocks" => blocks = field(&words, lineno, "blocks N")?,
            "update_frequency" => fu = field(&words, lineno, "update_frequency F")?,
            "transfer_cost" => {
                transfer = Some((lineno, field(&words, lineno, "transfer_cost F")?));
            }
            "selectivity" => {
                if words.len() != 3 {
                    return Err(syntax(lineno, "expected `selectivity ATTR F`"));
                }
                selectivities.push((words[1].to_string(), number(words[2], lineno)?));
            }
            other => return Err(syntax(lineno, &format!("unknown relation field `{other}`"))),
        }
    }
    let mut builder = catalog.relation(name);
    for (attr, ty) in attrs {
        builder = builder.attr(attr, ty);
    }
    builder = builder.records(records).blocks(blocks).update_frequency(fu);
    for (attr, s) in selectivities {
        builder = builder.selectivity(attr, s);
    }
    builder.finish().map_err(|source| DslError::Catalog {
        line: start,
        source,
    })?;
    if let Some((line, t)) = transfer {
        catalog
            .set_transfer_cost(name, t)
            .map_err(|source| DslError::Catalog { line, source })?;
    }
    Ok(i)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn syntax(line: usize, message: &str) -> DslError {
    DslError::Syntax {
        line,
        message: message.to_string(),
    }
}

fn header<'a>(words: &[&'a str], line: usize, expected: &str) -> Result<&'a str, DslError> {
    if words.len() != 3 || words[2] != "{" {
        return Err(syntax(line, &format!("expected `{expected}`")));
    }
    Ok(words[1])
}

fn field(words: &[&str], line: usize, expected: &str) -> Result<f64, DslError> {
    if words.len() != 2 {
        return Err(syntax(line, &format!("expected `{expected}`")));
    }
    number(words[1], line)
}

fn number(text: &str, line: usize) -> Result<f64, DslError> {
    text.parse::<f64>()
        .map_err(|_| syntax(line, &format!("`{text}` is not a number")))
}

fn attr_ref(text: &str, line: usize) -> Result<AttrRef, DslError> {
    AttrRef::parse(text).ok_or_else(|| syntax(line, &format!("`{text}` is not `Relation.attr`")))
}

/// Renders a scenario's *catalog* back to DSL text (queries are appended
/// from the given `(name, fq, sql)` sources, since algebra trees do not
/// round-trip to SQL).
pub fn render_catalog(catalog: &Catalog) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "default_selectivity {}\n",
        catalog.default_selectivity()
    );
    for (name, meta) in catalog.iter() {
        let _ = writeln!(out, "relation {name} {{");
        for a in meta.schema.attributes() {
            let _ = writeln!(out, "    attr {} {}", a.name, a.ty);
        }
        let _ = writeln!(out, "    records {}", meta.stats.records);
        let _ = writeln!(out, "    blocks {}", meta.stats.blocks);
        let _ = writeln!(out, "    update_frequency {}", meta.update_frequency);
        if meta.transfer_cost != 0.0 {
            let _ = writeln!(out, "    transfer_cost {}", meta.transfer_cost);
        }
        for (attr, s) in &meta.selectivities {
            let _ = writeln!(out, "    selectivity {attr} {s}");
        }
        let _ = writeln!(out, "}}\n");
    }
    for (key, js) in catalog.join_selectivities() {
        let _ = writeln!(out, "join {} {} {js}", key.lo(), key.hi());
    }
    for (rels, o) in catalog.size_overrides() {
        let names: Vec<&str> = rels.iter().map(|r| r.as_str()).collect();
        let _ = writeln!(
            out,
            "joint_size {} {} {}",
            names.join(" "),
            o.stats.records,
            o.stats.blocks
        );
    }
    for (rel, attrs) in catalog.indexes() {
        for attr in attrs {
            let _ = writeln!(out, "index {rel}.{attr}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# two relations and one query
relation Stores {
    attr store int
    attr city text
    records 1000
    blocks 100
    update_frequency 0.5
    selectivity city 0.05
}

relation Sales {
    attr store int
    attr amount int
    records 100000
    blocks 10000
    update_frequency 2
    transfer_cost 3.5
}

join Sales.store Stores.store 0.001
joint_size Sales Stores 100000 20000
default_selectivity 0.2

query by_city 25 {
    SELECT city, SUM(amount) AS total
    FROM Sales, Stores
    WHERE Sales.store = Stores.store
    GROUP BY Stores.city
}
";

    #[test]
    fn parses_a_full_scenario() {
        let s = parse_scenario(SAMPLE).expect("parses");
        assert_eq!(s.catalog.len(), 2);
        assert_eq!(s.workload.len(), 1);
        let q = s.workload.query("by_city").expect("query exists");
        assert_eq!(q.frequency(), 25.0);
        assert_eq!(s.catalog.selectivity("Stores", "city"), 0.05);
        assert_eq!(s.catalog.default_selectivity(), 0.2);
        let key: std::collections::BTreeSet<_> =
            ["Sales".into(), "Stores".into()].into_iter().collect();
        assert_eq!(
            s.catalog.size_override(&key).unwrap().stats.blocks,
            20_000.0
        );
    }

    #[test]
    fn error_carries_line_numbers() {
        let err = parse_scenario("relation R {\n  attr a int\n  records x\n}").unwrap_err();
        match err {
            DslError::Syntax { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("not a number"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unterminated_blocks_are_reported() {
        assert!(matches!(
            parse_scenario("relation R {\n  attr a int"),
            Err(DslError::Syntax { .. })
        ));
        assert!(matches!(
            parse_scenario(
                "relation R {\n attr a int\n records 1\n blocks 1\n}\nquery q 1 {\nSELECT a FROM R"
            ),
            Err(DslError::Syntax { .. })
        ));
    }

    #[test]
    fn sql_errors_name_the_query() {
        let text = "relation R {\n attr a int\n records 1\n blocks 1\n}\nquery broken 1 {\nSELECT ghost FROM Nope\n}";
        match parse_scenario(text).unwrap_err() {
            DslError::Sql { query, .. } => assert_eq!(query, "broken"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unknown_statements_are_rejected() {
        assert!(matches!(
            parse_scenario("frobnicate everything"),
            Err(DslError::Syntax { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = parse_scenario(
            "# hello\n\nrelation R { # inline\n attr a int\n records 5\n blocks 1\n}\nquery q 1 {\nSELECT a FROM R\n}",
        )
        .expect("parses");
        assert_eq!(s.catalog.len(), 1);
    }

    #[test]
    fn catalog_renders_back_and_reparses() {
        let original = parse_scenario(SAMPLE).expect("parses");
        let text = render_catalog(&original.catalog);
        let reparsed = parse_scenario(&format!(
            "{text}\nquery q 1 {{\nSELECT city FROM Stores\n}}"
        ))
        .expect("round-trips");
        assert_eq!(original.catalog, reparsed.catalog);
        assert_eq!(reparsed.catalog.transfer_cost("Sales"), 3.5);
        // Local relations render exactly as before the field existed.
        assert_eq!(text.matches("transfer_cost").count(), 1);
    }

    #[test]
    fn negative_transfer_cost_is_a_catalog_error_on_its_line() {
        let text = "relation R {\n attr a int\n records 1\n blocks 1\n transfer_cost -2\n}\nquery q 1 {\nSELECT a FROM R\n}";
        match parse_scenario(text).unwrap_err() {
            DslError::Catalog { line, source } => {
                assert_eq!(line, 5);
                assert!(matches!(
                    source,
                    CatalogError::InvalidValue {
                        what: "transfer cost",
                        ..
                    }
                ));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn empty_workload_is_rejected() {
        assert!(matches!(
            parse_scenario("relation R {\n attr a int\n records 1\n blocks 1\n}"),
            Err(DslError::Workload(WorkloadError::Empty))
        ));
    }

    #[test]
    fn index_statements_parse_and_render() {
        let text = "relation R {\n attr a int\n records 10\n blocks 1\n}\nindex R.a\nquery q 1 {\nSELECT a FROM R\n}";
        let s = parse_scenario(text).expect("parses");
        assert!(s.catalog.has_index("R", "a"));
        let rendered = render_catalog(&s.catalog);
        assert!(rendered.contains("index R.a"), "{rendered}");
        let reparsed = parse_scenario(&format!("{rendered}\nquery q 1 {{\nSELECT a FROM R\n}}"))
            .expect("round-trips");
        assert_eq!(s.catalog, reparsed.catalog);
    }

    #[test]
    fn index_on_unknown_attribute_is_a_catalog_error() {
        let text = "relation R {\n attr a int\n records 10\n blocks 1\n}\nindex R.ghost\nquery q 1 {\nSELECT a FROM R\n}";
        assert!(matches!(
            parse_scenario(text),
            Err(DslError::Catalog { .. })
        ));
    }
}
