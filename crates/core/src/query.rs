//! The declarative query API (Appendix C): Boolean predicates over record
//! fields, assembled fluently and either planned into index scans
//! ([`crate::plan`]) or evaluated directly against records as residual
//! filters.

use rl_fdb::tuple::TupleElement;
use rl_message::{FieldRef, FieldSource};

use crate::error::{Error, Result};
use crate::expr::{each_value, element_of};

/// Full-text comparisons served by TEXT indexes (Appendix B). Tokens match
/// whatever their case, and a comparison with no tokens matches no record.
#[derive(Debug, Clone, PartialEq)]
pub enum TextComparison {
    /// All of the tokens appear in the field.
    ContainsAll(Vec<String>),
    /// Any of the tokens appears.
    ContainsAny(Vec<String>),
    /// A token beginning with this prefix appears.
    ContainsPrefix(String),
    /// The tokens appear adjacent and in order.
    ContainsPhrase(Vec<String>),
    /// All tokens appear within a window of `max_distance` tokens.
    ContainsAllWithin {
        tokens: Vec<String>,
        max_distance: usize,
    },
}

impl TextComparison {
    /// The comparison with its tokens as the tokenizer stores them
    /// (lower-cased). A TEXT index scan and the residual filter both
    /// match with it, so a query's case means the same on either path.
    pub(crate) fn normalized(&self) -> TextComparison {
        let lower = |tokens: &[String]| tokens.iter().map(|t| t.to_lowercase()).collect();
        match self {
            TextComparison::ContainsAll(ts) => TextComparison::ContainsAll(lower(ts)),
            TextComparison::ContainsAny(ts) => TextComparison::ContainsAny(lower(ts)),
            TextComparison::ContainsPrefix(p) => TextComparison::ContainsPrefix(p.to_lowercase()),
            TextComparison::ContainsPhrase(ts) => TextComparison::ContainsPhrase(lower(ts)),
            TextComparison::ContainsAllWithin {
                tokens,
                max_distance,
            } => TextComparison::ContainsAllWithin {
                tokens: lower(tokens),
                max_distance: *max_distance,
            },
        }
    }
}

/// A scalar comparison against a field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Comparison {
    Equals(TupleElement),
    NotEquals(TupleElement),
    LessThan(TupleElement),
    LessThanOrEquals(TupleElement),
    GreaterThan(TupleElement),
    GreaterThanOrEquals(TupleElement),
    StartsWith(String),
    In(Vec<TupleElement>),
    IsNull,
    NotNull,
    Text(TextComparison),
}

impl Comparison {
    /// Whether an index scan over sorted keys can serve this comparison
    /// (used by the planner to decide sargability).
    pub fn is_sargable(&self) -> bool {
        !matches!(self, Comparison::NotEquals(_) | Comparison::Text(_))
    }

    /// Evaluate against an extracted element (`None` = field unset).
    pub fn eval(&self, actual: Option<&TupleElement>) -> bool {
        use Comparison::*;
        match self {
            IsNull => matches!(actual, None | Some(TupleElement::Null)),
            NotNull => !matches!(actual, None | Some(TupleElement::Null)),
            _ => {
                let Some(actual) = actual else { return false };
                if matches!(actual, TupleElement::Null) {
                    return false;
                }
                match self {
                    Equals(v) => actual == v,
                    NotEquals(v) => actual != v,
                    LessThan(v) => actual < v,
                    LessThanOrEquals(v) => actual <= v,
                    GreaterThan(v) => actual > v,
                    GreaterThanOrEquals(v) => actual >= v,
                    StartsWith(prefix) => match actual {
                        TupleElement::String(s) => s.starts_with(prefix.as_str()),
                        _ => false,
                    },
                    In(vs) => vs.contains(actual),
                    Text(t) => match actual {
                        TupleElement::String(s) => eval_text(t, s),
                        _ => false,
                    },
                    IsNull | NotNull => unreachable!(),
                }
            }
        }
    }
}

/// Token-level text matching, used for residual filtering; TEXT index scans
/// implement the same semantics over postings.
fn eval_text(cmp: &TextComparison, text: &str) -> bool {
    let tokens = crate::index::text::tokenize(text);
    match &cmp.normalized() {
        TextComparison::ContainsAll(ts) => !ts.is_empty() && ts.iter().all(|t| tokens.contains(t)),
        TextComparison::ContainsAny(ts) => ts.iter().any(|t| tokens.contains(t)),
        TextComparison::ContainsPrefix(p) => tokens.iter().any(|t| t.starts_with(p.as_str())),
        TextComparison::ContainsPhrase(ts) => {
            !ts.is_empty() && tokens.windows(ts.len()).any(|w| w == ts.as_slice())
        }
        TextComparison::ContainsAllWithin {
            tokens: ts,
            max_distance,
        } => {
            let positions: Vec<Vec<usize>> = ts
                .iter()
                .map(|t| {
                    tokens
                        .iter()
                        .enumerate()
                        .filter(|(_, tok)| *tok == t)
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect();
            if positions.is_empty() || positions.iter().any(Vec::is_empty) {
                return false;
            }
            // Any combination within the window; brute force over the first
            // token's occurrences suffices for correctness.
            positions[0].iter().any(|&p0| {
                positions[1..]
                    .iter()
                    .all(|ps| ps.iter().any(|&p| p.abs_diff(p0) <= *max_distance))
            })
        }
    }
}

/// A Boolean predicate over a record.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryComponent {
    /// Compare a (possibly nested, dot-free) field path.
    Field {
        path: Vec<String>,
        comparison: Comparison,
    },
    /// True when *any* element of a repeated field matches.
    OneOfThem {
        field: String,
        comparison: Comparison,
    },
    And(Vec<QueryComponent>),
    Or(Vec<QueryComponent>),
    Not(Box<QueryComponent>),
    /// Record-type check (useful because all types share one extent).
    RecordType(String),
}

impl QueryComponent {
    /// `field("name").comparison` builder.
    pub fn field(name: impl Into<String>, comparison: Comparison) -> Self {
        QueryComponent::Field {
            path: vec![name.into()],
            comparison,
        }
    }

    /// Nested path builder, e.g. `["parent", "a"]`.
    pub fn nested(path: &[&str], comparison: Comparison) -> Self {
        QueryComponent::Field {
            path: path.iter().map(|s| s.to_string()).collect(),
            comparison,
        }
    }

    pub fn one_of_them(field: impl Into<String>, comparison: Comparison) -> Self {
        QueryComponent::OneOfThem {
            field: field.into(),
            comparison,
        }
    }

    pub fn and(parts: Vec<QueryComponent>) -> Self {
        QueryComponent::And(parts)
    }

    pub fn or(parts: Vec<QueryComponent>) -> Self {
        QueryComponent::Or(parts)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(part: QueryComponent) -> Self {
        QueryComponent::Not(Box::new(part))
    }

    /// Evaluate against a record (residual filtering), whichever source
    /// its fields are read from.
    pub fn eval(&self, record_type: &str, msg: &dyn FieldSource) -> Result<bool> {
        match self {
            QueryComponent::Field { path, comparison } => {
                let el = extract_path(msg, path)?;
                Ok(comparison.eval(el.as_ref()))
            }
            QueryComponent::OneOfThem { field, comparison } => {
                let mut found = false;
                match msg.descriptor().field_by_name(field) {
                    Some(fd) if fd.is_repeated() => each_value(msg, fd, |v| {
                        if !found {
                            found = comparison.eval(Some(&element_of(v)?));
                        }
                        Ok(())
                    })?,
                    _ => {}
                }
                Ok(found)
            }
            QueryComponent::And(parts) => {
                for p in parts {
                    if !p.eval(record_type, msg)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            QueryComponent::Or(parts) => {
                for p in parts {
                    if p.eval(record_type, msg)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            QueryComponent::Not(p) => Ok(!p.eval(record_type, msg)?),
            QueryComponent::RecordType(t) => Ok(t == record_type),
        }
    }
}

/// Walk a nested field path on a record, returning the leaf element.
/// Missing fields yield `None`, as does a repeated one.
pub fn extract_path(msg: &dyn FieldSource, path: &[String]) -> Result<Option<TupleElement>> {
    let Some((name, rest)) = path.split_first() else {
        return Ok(None);
    };
    let field = match msg.descriptor().field_by_name(name) {
        Some(field) if !field.is_repeated() => field,
        _ => return Ok(None),
    };
    let mut leaf = None;
    each_value(msg, field, |v| {
        leaf = match (v, rest.is_empty()) {
            (FieldRef::Message(nested), false) => extract_path(nested, rest)?,
            (v, true) => Some(element_of(v)?),
            (FieldRef::Value(_), false) => {
                return Err(Error::KeyExpression(format!(
                    "path component {name} is not a nested message"
                )))
            }
        };
        Ok(())
    })?;
    Ok(leaf)
}

/// A declarative query: which record types, what filter, what order
/// (Appendix C).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordQuery {
    /// Empty = all record types.
    pub record_types: Vec<String>,
    pub filter: Option<QueryComponent>,
    /// Requested sort, which must be servable by an index or the primary
    /// key (§3.1: no in-memory sorts).
    pub sort: Option<crate::expr::KeyExpression>,
    pub sort_reverse: bool,
    /// The fields the caller will actually read from result records.
    /// Empty = all fields. When an index's key (plus the primary key)
    /// covers every required field, the planner produces a covering index
    /// scan that synthesizes partial records straight from index entries,
    /// skipping the record fetch entirely (§4 "covering indexes").
    pub required_fields: Vec<String>,
}

impl RecordQuery {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_type(mut self, name: impl Into<String>) -> Self {
        self.record_types.push(name.into());
        self
    }

    pub fn filter(mut self, filter: QueryComponent) -> Self {
        self.filter = Some(filter);
        self
    }

    pub fn sort(mut self, sort: crate::expr::KeyExpression, reverse: bool) -> Self {
        self.sort = Some(sort);
        self.sort_reverse = reverse;
        self
    }

    /// Declare the projection: only these fields will be read from the
    /// results, making the query eligible for covering index scans.
    pub fn require_fields(mut self, fields: &[&str]) -> Self {
        self.required_fields = fields.iter().map(|s| s.to_string()).collect();
        self
    }

    /// A canonical, value-free description of this query's *shape*: record
    /// types, the filter's structure with comparison operators but not
    /// comparands, and the projection. Two queries that differ only in
    /// their literals share a shape.
    ///
    /// This is the unit of the workload harness's query corpus
    /// (`BENCH_workload.json` `query_shapes`), which the planned
    /// statistics-driven index advisor replays against the cost model:
    /// shapes are what an index proposal must serve, the literals are what
    /// the statistics summarize.
    ///
    /// Example: `Item[(group =? & score >=?)]→(group,id,score)`.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        if self.record_types.is_empty() {
            out.push('*');
        } else {
            let mut types = self.record_types.clone();
            types.sort();
            out.push_str(&types.join(","));
        }
        out.push('[');
        match &self.filter {
            Some(filter) => component_shape(filter, &mut out),
            None => out.push_str("true"),
        }
        out.push(']');
        if let Some(sort) = &self.sort {
            out.push_str(if self.sort_reverse { "↓" } else { "↑" });
            out.push_str(&format!("{sort:?}"));
        }
        if !self.required_fields.is_empty() {
            let mut fields = self.required_fields.clone();
            fields.sort();
            out.push_str("→(");
            out.push_str(&fields.join(","));
            out.push(')');
        }
        out
    }
}

/// Append the value-free shape of one filter component.
fn component_shape(component: &QueryComponent, out: &mut String) {
    match component {
        QueryComponent::Field { path, comparison } => {
            out.push_str(&path.join("."));
            out.push(' ');
            out.push_str(comparison_shape(comparison));
        }
        QueryComponent::OneOfThem { field, comparison } => {
            out.push_str(field);
            out.push_str("[] ");
            out.push_str(comparison_shape(comparison));
        }
        QueryComponent::RecordType(name) => {
            out.push_str("type=");
            out.push_str(name);
        }
        QueryComponent::And(parts) => {
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" & ");
                }
                component_shape(p, out);
            }
            out.push(')');
        }
        QueryComponent::Or(parts) => {
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                component_shape(p, out);
            }
            out.push(')');
        }
        QueryComponent::Not(inner) => {
            out.push('!');
            component_shape(inner, out);
        }
    }
}

/// Operator token for a comparison, with the comparand elided.
fn comparison_shape(comparison: &Comparison) -> &'static str {
    match comparison {
        Comparison::Equals(_) => "=?",
        Comparison::NotEquals(_) => "!=?",
        Comparison::LessThan(_) => "<?",
        Comparison::LessThanOrEquals(_) => "<=?",
        Comparison::GreaterThan(_) => ">?",
        Comparison::GreaterThanOrEquals(_) => ">=?",
        Comparison::StartsWith(_) => "prefix?",
        Comparison::In(_) => "in?",
        Comparison::IsNull => "null?",
        Comparison::NotNull => "!null?",
        Comparison::Text(_) => "text?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_message::{
        DescriptorPool, DynamicMessage, FieldDescriptor, FieldType, MessageDescriptor,
    };

    fn pool() -> DescriptorPool {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "Inner",
                vec![FieldDescriptor::optional("a", 1, FieldType::Int64)],
            )
            .unwrap(),
        )
        .unwrap();
        pool.add_message(
            MessageDescriptor::new(
                "T",
                vec![
                    FieldDescriptor::optional("n", 1, FieldType::Int64),
                    FieldDescriptor::optional("s", 2, FieldType::String),
                    FieldDescriptor::repeated("tags", 3, FieldType::String),
                    FieldDescriptor::optional("inner", 4, FieldType::Message("Inner".into())),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool
    }

    fn record(pool: &DescriptorPool) -> DynamicMessage {
        let mut inner = DynamicMessage::new(pool.message("Inner").unwrap());
        inner.set("a", 5i64).unwrap();
        let mut m = DynamicMessage::new(pool.message("T").unwrap());
        m.set("n", 10i64).unwrap();
        m.set("s", "hello world").unwrap();
        m.push("tags", "red").unwrap();
        m.push("tags", "blue").unwrap();
        m.set("inner", inner).unwrap();
        m
    }

    #[test]
    fn scalar_comparisons() {
        let pool = pool();
        let m = record(&pool);
        let eval = |c: QueryComponent| c.eval("T", &m).unwrap();
        assert!(eval(QueryComponent::field(
            "n",
            Comparison::Equals(TupleElement::Int(10))
        )));
        assert!(eval(QueryComponent::field(
            "n",
            Comparison::LessThan(TupleElement::Int(11))
        )));
        assert!(!eval(QueryComponent::field(
            "n",
            Comparison::GreaterThan(TupleElement::Int(10))
        )));
        assert!(eval(QueryComponent::field(
            "n",
            Comparison::GreaterThanOrEquals(TupleElement::Int(10))
        )));
        assert!(eval(QueryComponent::field(
            "s",
            Comparison::StartsWith("hello".into())
        )));
        assert!(eval(QueryComponent::field(
            "n",
            Comparison::In(vec![TupleElement::Int(9), TupleElement::Int(10)])
        )));
        assert!(eval(QueryComponent::field("n", Comparison::NotNull)));
    }

    #[test]
    fn null_semantics() {
        let pool = pool();
        let empty = DynamicMessage::new(pool.message("T").unwrap());
        let c = QueryComponent::field("n", Comparison::IsNull);
        assert!(c.eval("T", &empty).unwrap());
        // Comparisons against missing fields are false, not errors.
        let c = QueryComponent::field("n", Comparison::Equals(TupleElement::Int(0)));
        assert!(!c.eval("T", &empty).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let pool = pool();
        let m = record(&pool);
        let t = QueryComponent::field("n", Comparison::Equals(TupleElement::Int(10)));
        let f = QueryComponent::field("n", Comparison::Equals(TupleElement::Int(11)));
        assert!(QueryComponent::and(vec![t.clone(), t.clone()])
            .eval("T", &m)
            .unwrap());
        assert!(!QueryComponent::and(vec![t.clone(), f.clone()])
            .eval("T", &m)
            .unwrap());
        assert!(QueryComponent::or(vec![f.clone(), t.clone()])
            .eval("T", &m)
            .unwrap());
        assert!(!QueryComponent::or(vec![f.clone(), f.clone()])
            .eval("T", &m)
            .unwrap());
        assert!(QueryComponent::not(f).eval("T", &m).unwrap());
        assert!(!QueryComponent::not(t).eval("T", &m).unwrap());
    }

    #[test]
    fn one_of_them_matches_any_element() {
        let pool = pool();
        let m = record(&pool);
        assert!(QueryComponent::one_of_them(
            "tags",
            Comparison::Equals(TupleElement::String("blue".into()))
        )
        .eval("T", &m)
        .unwrap());
        assert!(!QueryComponent::one_of_them(
            "tags",
            Comparison::Equals(TupleElement::String("green".into()))
        )
        .eval("T", &m)
        .unwrap());
    }

    #[test]
    fn nested_paths() {
        let pool = pool();
        let m = record(&pool);
        assert!(
            QueryComponent::nested(&["inner", "a"], Comparison::Equals(TupleElement::Int(5)))
                .eval("T", &m)
                .unwrap()
        );
        // Missing nested message: comparison is false.
        let empty = DynamicMessage::new(pool.message("T").unwrap());
        assert!(
            !QueryComponent::nested(&["inner", "a"], Comparison::Equals(TupleElement::Int(5)))
                .eval("T", &empty)
                .unwrap()
        );
    }

    #[test]
    fn record_type_component() {
        let pool = pool();
        let m = record(&pool);
        assert!(QueryComponent::RecordType("T".into())
            .eval("T", &m)
            .unwrap());
        assert!(!QueryComponent::RecordType("U".into())
            .eval("T", &m)
            .unwrap());
    }

    #[test]
    fn text_comparisons() {
        let pool = pool();
        let m = record(&pool);
        let eval = |t: TextComparison| {
            QueryComponent::field("s", Comparison::Text(t))
                .eval("T", &m)
                .unwrap()
        };
        assert!(eval(TextComparison::ContainsAll(vec![
            "hello".into(),
            "world".into()
        ])));
        assert!(!eval(TextComparison::ContainsAll(vec![
            "hello".into(),
            "mars".into()
        ])));
        assert!(eval(TextComparison::ContainsAny(vec![
            "mars".into(),
            "world".into()
        ])));
        assert!(eval(TextComparison::ContainsPrefix("wor".into())));
        assert!(eval(TextComparison::ContainsPhrase(vec![
            "hello".into(),
            "world".into()
        ])));
        assert!(!eval(TextComparison::ContainsPhrase(vec![
            "world".into(),
            "hello".into()
        ])));
        assert!(eval(TextComparison::ContainsAllWithin {
            tokens: vec!["hello".into(), "world".into()],
            max_distance: 1
        }));
        // Query tokens match whatever their case, as a TEXT index scan's do.
        assert!(eval(TextComparison::ContainsPhrase(vec![
            "Hello".into(),
            "WORLD".into()
        ])));
        assert!(eval(TextComparison::ContainsPrefix("Wor".into())));
        // No tokens match nothing, as they do in a TEXT index scan.
        assert!(!eval(TextComparison::ContainsAll(Vec::new())));
        assert!(!eval(TextComparison::ContainsPhrase(Vec::new())));
        assert!(!eval(TextComparison::ContainsAllWithin {
            tokens: Vec::new(),
            max_distance: 1
        }));
    }

    #[test]
    fn sargability() {
        assert!(Comparison::Equals(TupleElement::Int(1)).is_sargable());
        assert!(Comparison::LessThan(TupleElement::Int(1)).is_sargable());
        assert!(!Comparison::NotEquals(TupleElement::Int(1)).is_sargable());
        assert!(!Comparison::Text(TextComparison::ContainsPrefix("x".into())).is_sargable());
    }

    #[test]
    fn query_builder() {
        let q = RecordQuery::new()
            .record_type("T")
            .filter(QueryComponent::field("n", Comparison::NotNull))
            .sort(crate::expr::KeyExpression::field("n"), true);
        assert_eq!(q.record_types, vec!["T".to_string()]);
        assert!(q.filter.is_some());
        assert!(q.sort_reverse);
    }

    #[test]
    fn shapes_elide_values_and_canonicalize() {
        let shape_of = |value: &str, score: i64| {
            RecordQuery::new()
                .record_type("Item")
                .filter(QueryComponent::and(vec![
                    QueryComponent::field("group", Comparison::Equals(value.into())),
                    QueryComponent::field(
                        "score",
                        Comparison::GreaterThanOrEquals(TupleElement::Int(score)),
                    ),
                ]))
                .require_fields(&["score", "id", "group"])
                .shape()
        };
        // Same shape regardless of literals; projection field order is
        // canonicalized.
        assert_eq!(shape_of("g1", 10), shape_of("zzz", -4));
        assert_eq!(
            shape_of("g1", 10),
            "Item[(group =? & score >=?)]→(group,id,score)"
        );

        let or = RecordQuery::new()
            .record_type("Item")
            .filter(QueryComponent::or(vec![
                QueryComponent::field("group", Comparison::Equals("a".into())),
                QueryComponent::field("group", Comparison::In(vec!["b".into(), "c".into()])),
            ]))
            .shape();
        assert_eq!(or, "Item[(group =? | group in?)]");

        assert_eq!(RecordQuery::new().shape(), "*[true]");
    }
}
