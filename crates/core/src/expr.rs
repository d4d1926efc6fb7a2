//! Key expressions (Appendix A): functions from a record to one or more
//! tuples, used to define primary keys and index keys.
//!
//! A key expression defines a logical path through a record; applying it to
//! a record extracts field values and produces a tuple. Expressions over
//! repeated fields may *fan out*, producing multiple tuples — one index
//! entry per element.

use std::sync::Arc;

use rl_fdb::tuple::{Tuple, TupleElement};
use rl_fdb::version::Versionstamp;
use rl_message::{DynamicMessage, Value};

use crate::error::{Error, Result};

/// How a repeated field is turned into tuple values (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanType {
    /// The field is singular (or treated as a single value).
    Scalar,
    /// A repeated field produces one tuple per element.
    Fanout,
    /// A repeated field produces a single tuple whose entry is the list of
    /// all elements (encoded as a nested tuple).
    Concatenate,
}

/// Everything a key expression can be evaluated against: the record's
/// message, its record type name, and (for `Version` expressions) its
/// commit version.
#[derive(Debug, Clone)]
pub struct EvalContext<'a> {
    pub message: &'a DynamicMessage,
    pub record_type: &'a str,
    pub version: Option<Versionstamp>,
}

impl<'a> EvalContext<'a> {
    pub fn new(message: &'a DynamicMessage, record_type: &'a str) -> Self {
        EvalContext {
            message,
            record_type,
            version: None,
        }
    }

    pub fn with_version(mut self, version: Option<Versionstamp>) -> Self {
        self.version = version;
        self
    }
}

/// A client-defined function from record to tuples (§8.1 uses one to merge
/// legacy update-counter sync data with version-based sync data).
#[derive(Clone)]
pub struct FunctionKeyExpression {
    pub name: String,
    pub column_count: usize,
    #[allow(clippy::type_complexity)]
    pub function: Arc<dyn Fn(&EvalContext<'_>) -> Result<Vec<Tuple>> + Send + Sync>,
}

impl std::fmt::Debug for FunctionKeyExpression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "function({})", self.name)
    }
}

impl PartialEq for FunctionKeyExpression {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.column_count == other.column_count
    }
}

/// A key expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyExpression {
    /// Produces the empty tuple (used for ungrouped aggregate indexes).
    Empty,
    /// A (possibly repeated) field of the record.
    Field { name: String, fan_type: FanType },
    /// Descend into a nested message field and apply `inner` there.
    Nest {
        field: String,
        fan_type: FanType,
        inner: Box<KeyExpression>,
    },
    /// Concatenation: sub-expression tuples joined left-to-right; multiple
    /// values fan out as a Cartesian product.
    Concat(Vec<KeyExpression>),
    /// A value unique to the record's type, letting primary keys emulate
    /// per-table extents (§10.2, Appendix A).
    RecordTypeKey,
    /// The record's 12-byte commit version (§7 VERSION indexes).
    Version,
    /// A literal constant element.
    Literal(TupleElement),
    /// Client-defined function.
    Function(FunctionKeyExpression),
    /// Grouping wrapper for aggregate indexes: the final `grouped_count`
    /// columns of `inner` are the aggregated operand, the leading columns
    /// are the group key.
    Grouping {
        inner: Box<KeyExpression>,
        grouped_count: usize,
    },
    /// Covering-index helper: the leading `key` columns form the index
    /// entry's key (after which the primary key is appended), the `value`
    /// columns are stored in the entry's value.
    KeyWithValue {
        key: Box<KeyExpression>,
        value: Box<KeyExpression>,
    },
}

impl KeyExpression {
    // ------------------------------------------------------- constructors

    /// `field("name")` — a scalar field.
    pub fn field(name: impl Into<String>) -> Self {
        KeyExpression::Field {
            name: name.into(),
            fan_type: FanType::Scalar,
        }
    }

    /// A repeated field producing one tuple per element.
    pub fn field_fanout(name: impl Into<String>) -> Self {
        KeyExpression::Field {
            name: name.into(),
            fan_type: FanType::Fanout,
        }
    }

    /// A repeated field producing a single list-valued entry.
    pub fn field_concat(name: impl Into<String>) -> Self {
        KeyExpression::Field {
            name: name.into(),
            fan_type: FanType::Concatenate,
        }
    }

    /// `field(parent).nest(inner)` — descend into a nested message.
    pub fn nest(field: impl Into<String>, inner: KeyExpression) -> Self {
        KeyExpression::Nest {
            field: field.into(),
            fan_type: FanType::Scalar,
            inner: Box::new(inner),
        }
    }

    /// Concatenate sub-expressions.
    pub fn concat(parts: Vec<KeyExpression>) -> Self {
        KeyExpression::Concat(parts)
    }

    /// Shorthand for concatenating two scalar fields.
    pub fn concat_fields(a: impl Into<String>, b: impl Into<String>) -> Self {
        KeyExpression::Concat(vec![KeyExpression::field(a), KeyExpression::field(b)])
    }

    /// Group this expression for an aggregate index: the last
    /// `grouped_count` columns are the operand.
    pub fn group_by(self, grouped_count: usize) -> Self {
        KeyExpression::Grouping {
            inner: Box::new(self),
            grouped_count,
        }
    }

    /// Attach covering-value columns.
    pub fn with_value(self, value: KeyExpression) -> Self {
        KeyExpression::KeyWithValue {
            key: Box::new(self),
            value: Box::new(value),
        }
    }

    /// A named client-defined function expression.
    pub fn function(
        name: impl Into<String>,
        column_count: usize,
        f: impl Fn(&EvalContext<'_>) -> Result<Vec<Tuple>> + Send + Sync + 'static,
    ) -> Self {
        KeyExpression::Function(FunctionKeyExpression {
            name: name.into(),
            column_count,
            function: Arc::new(f),
        })
    }

    // --------------------------------------------------------- evaluation

    /// Number of tuple columns each produced tuple contains.
    pub fn column_count(&self) -> usize {
        match self {
            KeyExpression::Empty => 0,
            KeyExpression::Field { .. } => 1,
            KeyExpression::Nest { inner, .. } => inner.column_count(),
            KeyExpression::Concat(parts) => parts.iter().map(KeyExpression::column_count).sum(),
            KeyExpression::RecordTypeKey => 1,
            KeyExpression::Version => 1,
            KeyExpression::Literal(_) => 1,
            KeyExpression::Function(f) => f.column_count,
            KeyExpression::Grouping { inner, .. } => inner.column_count(),
            KeyExpression::KeyWithValue { key, value } => key.column_count() + value.column_count(),
        }
    }

    /// For a `Grouping` expression, the number of trailing operand columns
    /// (0 for non-grouping expressions).
    pub fn grouped_count(&self) -> usize {
        match self {
            KeyExpression::Grouping { grouped_count, .. } => *grouped_count,
            _ => 0,
        }
    }

    /// For a `KeyWithValue` expression, the number of leading key columns;
    /// otherwise all columns are key columns.
    pub fn key_column_count(&self) -> usize {
        match self {
            KeyExpression::KeyWithValue { key, .. } => key.column_count(),
            other => other.column_count(),
        }
    }

    /// Whether this expression needs the record's commit version.
    pub fn uses_version(&self) -> bool {
        match self {
            KeyExpression::Version => true,
            KeyExpression::Nest { inner, .. } => inner.uses_version(),
            KeyExpression::Concat(parts) => parts.iter().any(KeyExpression::uses_version),
            KeyExpression::Grouping { inner, .. } => inner.uses_version(),
            KeyExpression::KeyWithValue { key, value } => {
                key.uses_version() || value.uses_version()
            }
            KeyExpression::Function(_) => true, // conservative: functions may use it
            _ => false,
        }
    }

    /// Evaluate against a record, producing one or more tuples.
    ///
    /// The tuples are built in place, each with room for every column: a
    /// part that yields one value pushes it onto every tuple built so far,
    /// and only a part that yields several (a fan-out, a client function)
    /// multiplies them — a Cartesian product in which earlier parts vary
    /// slowest.
    pub fn evaluate(&self, ctx: &EvalContext<'_>) -> Result<Vec<Tuple>> {
        let mut rows = vec![Tuple::with_capacity(self.column_count())];
        self.extend_rows(ctx, &mut rows)?;
        Ok(rows)
    }

    /// Append this expression's columns to each of `rows`.
    fn extend_rows(&self, ctx: &EvalContext<'_>, rows: &mut Vec<Tuple>) -> Result<()> {
        match self {
            KeyExpression::Empty => {}
            KeyExpression::Field { name, fan_type } => {
                extend_with_field(ctx.message, name, *fan_type, rows)?
            }
            KeyExpression::Nest {
                field,
                fan_type,
                inner,
            } => extend_with_nest(ctx, field, *fan_type, inner, rows)?,
            KeyExpression::Concat(parts) => {
                for part in parts {
                    part.extend_rows(ctx, rows)?;
                }
            }
            KeyExpression::RecordTypeKey => push_each(rows, ctx.record_type.into()),
            KeyExpression::Version => {
                let version = ctx.version.unwrap_or_else(|| Versionstamp::incomplete(0));
                push_each(rows, version.into());
            }
            KeyExpression::Literal(el) => push_each(rows, el.clone()),
            KeyExpression::Function(f) => product(rows, (f.function)(ctx)?),
            KeyExpression::Grouping { inner, .. } => inner.extend_rows(ctx, rows)?,
            KeyExpression::KeyWithValue { key, value } => {
                // The key columns, then the value columns; the index
                // maintainer splits them apart.
                key.extend_rows(ctx, rows)?;
                value.extend_rows(ctx, rows)?;
            }
        }
        Ok(())
    }

    /// Evaluate, requiring exactly one tuple (for primary keys).
    pub fn evaluate_single(&self, ctx: &EvalContext<'_>) -> Result<Tuple> {
        let mut tuples = self.evaluate(ctx)?;
        if tuples.len() != 1 {
            return Err(Error::KeyExpression(format!(
                "expected a single tuple, got {} (fan-out expression used as primary key?)",
                tuples.len()
            )));
        }
        Ok(tuples.remove(0))
    }

    /// Flatten into per-column descriptions for planner matching. Returns
    /// `None` when the expression contains parts the planner cannot match
    /// structurally (functions, literals).
    pub fn flatten(&self) -> Option<Vec<KeyPart>> {
        let mut out = Vec::new();
        self.flatten_into(&mut Vec::new(), &mut out).then_some(out)
    }

    fn flatten_into(&self, prefix: &mut Vec<String>, out: &mut Vec<KeyPart>) -> bool {
        match self {
            KeyExpression::Empty => true,
            KeyExpression::Field { name, fan_type } => {
                let mut path = prefix.clone();
                path.push(name.clone());
                out.push(KeyPart::Field {
                    path,
                    fan_type: *fan_type,
                });
                true
            }
            KeyExpression::Nest {
                field,
                fan_type,
                inner,
            } => {
                if *fan_type == FanType::Fanout {
                    // Fan-out nesting changes multiplicity; represent the
                    // inner fields but mark them fanned.
                    prefix.push(field.clone());
                    let start = out.len();
                    let ok = inner.flatten_into(prefix, out);
                    prefix.pop();
                    if ok {
                        for part in &mut out[start..] {
                            if let KeyPart::Field { fan_type, .. } = part {
                                *fan_type = FanType::Fanout;
                            }
                        }
                    }
                    ok
                } else {
                    prefix.push(field.clone());
                    let ok = inner.flatten_into(prefix, out);
                    prefix.pop();
                    ok
                }
            }
            KeyExpression::Concat(parts) => parts.iter().all(|p| p.flatten_into(prefix, out)),
            KeyExpression::RecordTypeKey => {
                out.push(KeyPart::RecordType);
                true
            }
            KeyExpression::Version => {
                out.push(KeyPart::Version);
                true
            }
            KeyExpression::Grouping { inner, .. } => inner.flatten_into(prefix, out),
            KeyExpression::KeyWithValue { key, value } => {
                key.flatten_into(prefix, out) && value.flatten_into(prefix, out)
            }
            KeyExpression::Literal(_) | KeyExpression::Function(_) => false,
        }
    }
}

/// One column of a flattened key expression, used for index matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPart {
    /// A (possibly nested) field path, e.g. `["parent", "a"]`.
    Field {
        path: Vec<String>,
        fan_type: FanType,
    },
    /// The record-type column.
    RecordType,
    /// The version column.
    Version,
}

/// Convert a message field [`Value`] to a tuple element.
pub fn value_to_element(value: &Value) -> Result<TupleElement> {
    Ok(match value {
        Value::I32(v) => TupleElement::Int(i64::from(*v)),
        Value::I64(v) => TupleElement::Int(*v),
        Value::U32(v) => TupleElement::Int(i64::from(*v)),
        Value::U64(v) => TupleElement::Int(
            i64::try_from(*v)
                .map_err(|_| Error::KeyExpression(format!("u64 value {v} overflows index key")))?,
        ),
        Value::F32(v) => TupleElement::Float(*v),
        Value::F64(v) => TupleElement::Double(*v),
        Value::Bool(v) => TupleElement::Bool(*v),
        Value::String(v) => TupleElement::String(v.clone()),
        Value::Bytes(v) => TupleElement::Bytes(v.clone()),
        Value::Enum(v) => TupleElement::Int(i64::from(*v)),
        Value::Message(_) => {
            return Err(Error::KeyExpression(
                "cannot index a whole nested message; use nest() to reach a scalar".into(),
            ))
        }
    })
}

/// Push `el` onto every row.
fn push_each(rows: &mut [Tuple], el: TupleElement) {
    if let Some((last, rest)) = rows.split_last_mut() {
        for row in rest {
            row.add(el.clone());
        }
        last.add(el);
    }
}

/// Replace `rows` by each row followed by each of `values`, rows varying
/// slowest. A single value extends the rows in place.
fn product(rows: &mut Vec<Tuple>, mut values: Vec<Tuple>) {
    if values.len() == 1 {
        let value = values.pop().unwrap_or_default();
        if let Some((last, rest)) = rows.split_last_mut() {
            for row in rest {
                row.append(value.clone());
            }
            last.append(value);
        }
        return;
    }
    let mut out = Vec::with_capacity(rows.len() * values.len());
    for row in rows.drain(..) {
        out.extend(values.iter().map(|value| row.clone().concat(value)));
    }
    *rows = out;
}

fn extend_with_field(
    msg: &DynamicMessage,
    name: &str,
    fan_type: FanType,
    rows: &mut Vec<Tuple>,
) -> Result<()> {
    let descriptor = msg.descriptor();
    let field = descriptor
        .field_by_name(name)
        .ok_or_else(|| Error::KeyExpression(format!("no field {name} on {}", msg.type_name())))?;
    if !field.is_repeated() {
        let el = match msg.get(name) {
            Some(v) => value_to_element(v)?,
            None => TupleElement::Null,
        };
        push_each(rows, el);
        return Ok(());
    }
    let values = msg.get_repeated(name);
    match fan_type {
        FanType::Fanout => {
            let values = values
                .iter()
                .map(|v| Ok(Tuple::from_elements(vec![value_to_element(v)?])))
                .collect::<Result<_>>()?;
            product(rows, values);
        }
        FanType::Concatenate => {
            let mut list = Tuple::with_capacity(values.len());
            for v in values {
                list.add(value_to_element(v)?);
            }
            push_each(rows, list.into());
        }
        FanType::Scalar => {
            return Err(Error::KeyExpression(format!(
                "field {name} is repeated; use Fanout or Concatenate"
            )))
        }
    }
    Ok(())
}

fn extend_with_nest(
    ctx: &EvalContext<'_>,
    field: &str,
    fan_type: FanType,
    inner: &KeyExpression,
    rows: &mut Vec<Tuple>,
) -> Result<()> {
    let descriptor = ctx.message.descriptor();
    let fd = descriptor.field_by_name(field).ok_or_else(|| {
        Error::KeyExpression(format!("no field {field} on {}", ctx.message.type_name()))
    })?;
    fn nested<'m>(v: &'m Value, field: &str) -> Result<&'m DynamicMessage> {
        v.as_message()
            .ok_or_else(|| Error::KeyExpression(format!("field {field} is not a message")))
    }
    if fd.is_repeated() {
        if fan_type != FanType::Fanout {
            return Err(Error::KeyExpression(format!(
                "nested repeated field {field} requires Fanout"
            )));
        }
        // Every element's tuples, in element order, multiply the rows.
        let mut values = Vec::new();
        for v in ctx.message.get_repeated(field) {
            let sub_ctx = EvalContext {
                message: nested(v, field)?,
                record_type: ctx.record_type,
                version: ctx.version,
            };
            values.extend(inner.evaluate(&sub_ctx)?);
        }
        product(rows, values);
        return Ok(());
    }
    match ctx.message.get(field) {
        Some(v) => {
            let sub_ctx = EvalContext {
                message: nested(v, field)?,
                record_type: ctx.record_type,
                version: ctx.version,
            };
            inner.extend_rows(&sub_ctx, rows)
        }
        // Missing nested message: null columns.
        None => {
            for _ in 0..inner.column_count() {
                push_each(rows, TupleElement::Null);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_message::{DescriptorPool, FieldDescriptor, FieldType, MessageDescriptor};

    /// The paper's Figure 4 example.
    fn example_pool() -> DescriptorPool {
        let mut pool = DescriptorPool::new();
        pool.add_message(
            MessageDescriptor::new(
                "Example.Nested",
                vec![
                    FieldDescriptor::optional("a", 1, FieldType::Int64),
                    FieldDescriptor::optional("b", 2, FieldType::String),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool.add_message(
            MessageDescriptor::new(
                "Example",
                vec![
                    FieldDescriptor::optional("id", 1, FieldType::Int64),
                    FieldDescriptor::repeated("elem", 2, FieldType::String),
                    FieldDescriptor::optional(
                        "parent",
                        3,
                        FieldType::Message("Example.Nested".into()),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        pool
    }

    fn example_record(pool: &DescriptorPool) -> DynamicMessage {
        let mut nested = DynamicMessage::new(pool.message("Example.Nested").unwrap());
        nested.set("a", 1415i64).unwrap();
        nested.set("b", "child").unwrap();
        let mut msg = DynamicMessage::new(pool.message("Example").unwrap());
        msg.set("id", 1066i64).unwrap();
        msg.push("elem", "first").unwrap();
        msg.push("elem", "second").unwrap();
        msg.push("elem", "third").unwrap();
        msg.set("parent", nested).unwrap();
        msg
    }

    #[test]
    fn paper_examples() {
        // The exact worked examples from Appendix A.
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");

        // field("id") yields (1066).
        let r = KeyExpression::field("id").evaluate(&ctx).unwrap();
        assert_eq!(r, vec![Tuple::from((1066i64,))]);

        // field("parent").nest("a") yields (1415).
        let r = KeyExpression::nest("parent", KeyExpression::field("a"))
            .evaluate(&ctx)
            .unwrap();
        assert_eq!(r, vec![Tuple::from((1415i64,))]);

        // field("elem", Concatenate) yields (["first","second","third"]).
        let r = KeyExpression::field_concat("elem").evaluate(&ctx).unwrap();
        let expected = Tuple::new().push(Tuple::new().push("first").push("second").push("third"));
        assert_eq!(r, vec![expected]);

        // field("elem", Fanout) yields three tuples.
        let r = KeyExpression::field_fanout("elem").evaluate(&ctx).unwrap();
        assert_eq!(
            r,
            vec![
                Tuple::from(("first",)),
                Tuple::from(("second",)),
                Tuple::from(("third",)),
            ]
        );

        // concat(field("id"), field("parent").nest("b")) -> (1066, "child").
        let r = KeyExpression::concat(vec![
            KeyExpression::field("id"),
            KeyExpression::nest("parent", KeyExpression::field("b")),
        ])
        .evaluate(&ctx)
        .unwrap();
        assert_eq!(r, vec![Tuple::from((1066i64, "child"))]);
    }

    #[test]
    fn concat_fans_out_as_cartesian_product() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");
        let r = KeyExpression::concat(vec![
            KeyExpression::field("id"),
            KeyExpression::field_fanout("elem"),
        ])
        .evaluate(&ctx)
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], Tuple::from((1066i64, "first")));
        assert_eq!(r[2], Tuple::from((1066i64, "third")));
    }

    #[test]
    fn record_type_key() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");
        let r = KeyExpression::RecordTypeKey.evaluate(&ctx).unwrap();
        assert_eq!(r, vec![Tuple::from(("Example",))]);
    }

    #[test]
    fn missing_scalar_field_yields_null() {
        let pool = example_pool();
        let msg = DynamicMessage::new(pool.message("Example").unwrap());
        let ctx = EvalContext::new(&msg, "Example");
        let r = KeyExpression::field("id").evaluate(&ctx).unwrap();
        assert_eq!(r, vec![Tuple::new().push(TupleElement::Null)]);
    }

    #[test]
    fn missing_nested_message_yields_null_columns() {
        let pool = example_pool();
        let msg = DynamicMessage::new(pool.message("Example").unwrap());
        let ctx = EvalContext::new(&msg, "Example");
        let expr = KeyExpression::nest(
            "parent",
            KeyExpression::concat(vec![KeyExpression::field("a"), KeyExpression::field("b")]),
        );
        let r = expr.evaluate(&ctx).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].len(), 2);
        assert!(matches!(r[0].get(0), Some(TupleElement::Null)));
    }

    #[test]
    fn empty_repeated_fanout_produces_no_tuples() {
        let pool = example_pool();
        let msg = DynamicMessage::new(pool.message("Example").unwrap());
        let ctx = EvalContext::new(&msg, "Example");
        let r = KeyExpression::field_fanout("elem").evaluate(&ctx).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn scalar_fan_on_repeated_field_errors() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");
        assert!(KeyExpression::field("elem").evaluate(&ctx).is_err());
    }

    #[test]
    fn evaluate_single_rejects_fanout() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");
        assert!(KeyExpression::field_fanout("elem")
            .evaluate_single(&ctx)
            .is_err());
        assert!(KeyExpression::field("id").evaluate_single(&ctx).is_ok());
    }

    #[test]
    fn version_expression_uses_context_version() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let vs = Versionstamp::complete(77, 0, 1);
        let ctx = EvalContext::new(&msg, "Example").with_version(Some(vs));
        let r = KeyExpression::Version.evaluate(&ctx).unwrap();
        assert_eq!(r[0].get(0).unwrap().as_versionstamp(), Some(&vs));
        // Without a version, an incomplete placeholder is produced.
        let ctx = EvalContext::new(&msg, "Example");
        let r = KeyExpression::Version.evaluate(&ctx).unwrap();
        assert!(!r[0]
            .get(0)
            .unwrap()
            .as_versionstamp()
            .unwrap()
            .is_complete());
    }

    #[test]
    fn function_expression_runs_closure() {
        let pool = example_pool();
        let msg = example_record(&pool);
        let ctx = EvalContext::new(&msg, "Example");
        let expr = KeyExpression::function("double_id", 1, |ctx| {
            let id = ctx.message.get("id").and_then(Value::as_i64).unwrap_or(0);
            Ok(vec![Tuple::new().push(id * 2)])
        });
        let r = expr.evaluate(&ctx).unwrap();
        assert_eq!(r, vec![Tuple::from((2132i64,))]);
    }

    #[test]
    fn column_counts() {
        assert_eq!(KeyExpression::field("a").column_count(), 1);
        assert_eq!(KeyExpression::concat_fields("a", "b").column_count(), 2);
        assert_eq!(
            KeyExpression::nest("p", KeyExpression::concat_fields("a", "b")).column_count(),
            2
        );
        assert_eq!(KeyExpression::Empty.column_count(), 0);
        let grouped = KeyExpression::concat_fields("g", "v").group_by(1);
        assert_eq!(grouped.column_count(), 2);
        assert_eq!(grouped.grouped_count(), 1);
        let kwv = KeyExpression::field("k").with_value(KeyExpression::field("v"));
        assert_eq!(kwv.column_count(), 2);
        assert_eq!(kwv.key_column_count(), 1);
    }

    #[test]
    fn flatten_produces_field_paths() {
        let expr = KeyExpression::concat(vec![
            KeyExpression::field("id"),
            KeyExpression::nest("parent", KeyExpression::field("a")),
        ]);
        let parts = expr.flatten().unwrap();
        assert_eq!(
            parts,
            vec![
                KeyPart::Field {
                    path: vec!["id".into()],
                    fan_type: FanType::Scalar
                },
                KeyPart::Field {
                    path: vec!["parent".into(), "a".into()],
                    fan_type: FanType::Scalar
                },
            ]
        );
        // Functions cannot be flattened.
        let f = KeyExpression::function("f", 1, |_| Ok(vec![Tuple::new()]));
        assert!(f.flatten().is_none());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(
            value_to_element(&Value::I32(-3)).unwrap(),
            TupleElement::Int(-3)
        );
        assert_eq!(
            value_to_element(&Value::String("s".into())).unwrap(),
            TupleElement::String("s".into())
        );
        assert!(value_to_element(&Value::U64(u64::MAX)).is_err());
    }
}
