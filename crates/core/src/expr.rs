//! Key expressions (Appendix A): functions from a record to one or more
//! tuples, used to define primary keys and index keys.
//!
//! A key expression defines a logical path through a record; applying it to
//! a record extracts field values and produces a tuple. Expressions over
//! repeated fields may *fan out*, producing multiple tuples — one index
//! entry per element.

use std::ops::ControlFlow;
use std::sync::Arc;

use rl_fdb::tuple::{self, ElementRef, Tuple, TupleElement, TupleReader};
use rl_fdb::version::Versionstamp;
use rl_message::{FieldDescriptor, FieldRef, FieldSource, ValueRef};

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
/// fields (a decoded message, or wire bytes read where they lie), its
/// record type name, and (for `Version` expressions) its commit version.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    pub message: &'a dyn FieldSource,
    pub record_type: &'a str,
    pub version: Option<Versionstamp>,
}

impl<'a> EvalContext<'a> {
    pub fn new(message: &'a dyn FieldSource, record_type: &'a str) -> Self {
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

    /// Evaluate against a record, producing one or more tuples: the rows
    /// [`pack`](Self::pack) packs, unpacked.
    pub fn evaluate(&self, ctx: &EvalContext<'_>) -> Result<Vec<Tuple>> {
        let mut packed = PackedRows::new();
        let rows = self.pack(ctx, &mut packed)?;
        packed.rows(rows).map(Row::to_tuple).collect()
    }

    /// Evaluate, requiring exactly one tuple (for primary keys).
    pub fn evaluate_single(&self, ctx: &EvalContext<'_>) -> Result<Tuple> {
        self.pack_single(ctx, &mut PackedRows::new())?.to_tuple()
    }

    /// [`pack`](Self::pack), requiring exactly one row.
    pub fn pack_single<'p>(
        &self,
        ctx: &EvalContext<'_>,
        packed: &'p mut PackedRows,
    ) -> Result<Row<'p>> {
        let rows = self.pack(ctx, packed)?;
        let mut rows = packed.rows(rows);
        match (rows.next(), rows.len()) {
            (Some(row), 0) => Ok(row),
            (first, more) => Err(Error::KeyExpression(format!(
                "expected a single tuple, got {} (fan-out expression used as primary key?)",
                usize::from(first.is_some()) + more
            ))),
        }
    }

    /// Evaluate against a record into `packed`: the one walk every
    /// evaluation takes. Each column value is packed once, as the tuple
    /// element it is, and a row is the list of its columns; rows are built
    /// in place, each with room for every column. A part that yields one
    /// value sets it in every row built so far, and only a part that
    /// yields several (a fan-out, a client function) multiplies them — a
    /// Cartesian product in which earlier parts vary slowest.
    ///
    /// Cost contract: no allocation but the growth of `packed`'s buffers,
    /// a concatenated list's `Tuple` and whatever a client function
    /// returns. Strings and bytes are packed from where the record holds
    /// them.
    pub fn pack(&self, ctx: &EvalContext<'_>, packed: &mut PackedRows) -> Result<Rows> {
        let width = self.column_count();
        let at = packed.rows.len();
        packed.rows.resize(at + width, 0);
        let mut rows = Building {
            packed,
            rows: Rows {
                at,
                count: 1,
                width,
            },
            column: 0,
        };
        self.extend_rows(ctx, &mut rows)?;
        Ok(rows.rows)
    }

    /// Fill this expression's columns of every row.
    fn extend_rows(&self, ctx: &EvalContext<'_>, rows: &mut Building<'_>) -> Result<()> {
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
            KeyExpression::RecordTypeKey => {
                let record_type = FieldRef::Value(ValueRef::String(ctx.record_type));
                let element = rows.packed.push_value(record_type)?;
                rows.set_each(element);
            }
            KeyExpression::Version => {
                let version = ctx.version.unwrap_or_else(|| Versionstamp::incomplete(0));
                let element = rows.packed.push_element(&version.into());
                rows.set_each(element);
            }
            KeyExpression::Literal(el) => {
                let element = rows.packed.push_element(el);
                rows.set_each(element);
            }
            KeyExpression::Function(f) => {
                let mark = rows.packed.alternatives.len();
                let tuples = (f.function)(ctx)?;
                for t in &tuples {
                    if t.len() != f.column_count {
                        return Err(Error::KeyExpression(format!(
                            "function {} gave {} columns, declares {}",
                            f.name,
                            t.len(),
                            f.column_count
                        )));
                    }
                    for el in t.elements() {
                        let element = rows.packed.push_element(el);
                        rows.packed.alternatives.push(element);
                    }
                }
                rows.product(mark, tuples.len(), f.column_count);
            }
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

/// A field value as the tuple element an index key holds.
pub fn element_of(value: FieldRef<'_>) -> Result<TupleElement> {
    let FieldRef::Value(value) = value else {
        return Err(Error::KeyExpression(
            "cannot index a whole nested message; use nest() to reach a scalar".into(),
        ));
    };
    Ok(match value {
        ValueRef::I32(v) | ValueRef::Enum(v) => TupleElement::Int(i64::from(v)),
        ValueRef::I64(v) => TupleElement::Int(v),
        ValueRef::U32(v) => TupleElement::Int(i64::from(v)),
        ValueRef::U64(v) => TupleElement::Int(
            i64::try_from(v)
                .map_err(|_| Error::KeyExpression(format!("u64 value {v} overflows index key")))?,
        ),
        ValueRef::F32(v) => TupleElement::Float(v),
        ValueRef::F64(v) => TupleElement::Double(v),
        ValueRef::Bool(v) => TupleElement::Bool(v),
        ValueRef::String(v) => TupleElement::String(v.to_string()),
        ValueRef::Bytes(v) => TupleElement::Bytes(v.to_vec()),
    })
}

/// Hand each value of `field` to `f` (see [`FieldSource::visit_field`]),
/// stopping at its first error.
pub(crate) fn each_value(
    msg: &dyn FieldSource,
    field: &FieldDescriptor,
    mut f: impl FnMut(FieldRef<'_>) -> Result<()>,
) -> Result<()> {
    let mut failed = None;
    msg.visit_field(field, &mut |value| match f(value) {
        Ok(()) => ControlFlow::Continue(()),
        Err(error) => {
            failed = Some(error);
            ControlFlow::Break(())
        }
    })?;
    failed.map_or(Ok(()), Err)
}

/// Key-expression evaluations, packed: each column of a row is a tuple
/// element packed once into one buffer, and a row is the list of its
/// columns' elements. An index compares two evaluations by these bytes and
/// builds a changed entry's key from them, with no [`Tuple`] in between.
/// [`clear`](Self::clear) keeps the buffers, so one set serves every
/// evaluation of a save.
#[derive(Debug, Default)]
pub struct PackedRows {
    bytes: Vec<u8>,
    elements: Vec<Element>,
    /// The evaluations' rows, back to back: a row is its columns'
    /// indexes into `elements`.
    rows: Vec<usize>,
    /// What a fan-out gathers before it multiplies the rows: a stack, a
    /// nested fan-out's above its parent's.
    alternatives: Vec<usize>,
}

/// A packed element: where it lies in `bytes`, and where in it an
/// incomplete versionstamp's bytes begin.
#[derive(Debug, Clone, Copy)]
struct Element {
    start: usize,
    end: usize,
    stamp: Option<usize>,
}

/// The rows one evaluation left in a [`PackedRows`]: `count` rows of
/// `width` columns from `at`. The default is no rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rows {
    at: usize,
    count: usize,
    width: usize,
}

impl Rows {
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl PackedRows {
    /// Empty, with room for the evaluations of a save of a record with a
    /// few short indexed fields, so that they do not grow it.
    pub fn new() -> Self {
        PackedRows {
            bytes: Vec::with_capacity(256),
            elements: Vec::with_capacity(16),
            rows: Vec::with_capacity(16),
            alternatives: Vec::new(),
        }
    }

    /// Forget every evaluation, keeping the buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.elements.clear();
        self.rows.clear();
        self.alternatives.clear();
    }

    /// The rows of one evaluation.
    #[inline]
    pub fn rows(&self, rows: Rows) -> impl ExactSizeIterator<Item = Row<'_>> + Clone {
        let all = &self.rows[rows.at..rows.at + rows.count * rows.width];
        (0..rows.count).map(move |i| Row {
            packed: self,
            columns: &all[i * rows.width..(i + 1) * rows.width],
        })
    }

    /// Whether two evaluations give the same entries: the same rows in
    /// the same order, column for column the same packed bytes. Floats so
    /// compare by their bits, as their packings do (`-0.0` apart from
    /// `0.0`, a NaN like itself).
    #[inline]
    pub fn same(&self, a: Rows, b: Rows) -> bool {
        a.count == b.count && self.rows(a).eq(self.rows(b))
    }

    /// `rows` sorted, each row once: as they are when there is at most
    /// one, otherwise copied in order after every other row.
    pub fn sorted_unique(&mut self, rows: Rows) -> Rows {
        if rows.count <= 1 {
            return rows;
        }
        let mut order = std::mem::take(&mut self.alternatives);
        order.extend(0..rows.count);
        let row = |i: usize| {
            let at = rows.at + i * rows.width;
            Row {
                packed: self,
                columns: &self.rows[at..at + rows.width],
            }
        };
        order.sort_unstable_by(|&a, &b| row(a).cmp(&row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let at = self.rows.len();
        for &i in &order {
            let from = rows.at + i * rows.width;
            self.rows.extend_from_within(from..from + rows.width);
        }
        let sorted = Rows {
            at,
            count: order.len(),
            width: rows.width,
        };
        order.clear();
        self.alternatives = order;
        sorted
    }

    /// Record the element packed from `start` to the end of `bytes`.
    #[inline]
    fn push(&mut self, start: usize, stamp: Option<usize>) -> usize {
        let end = self.bytes.len();
        self.elements.push(Element { start, end, stamp });
        self.elements.len() - 1
    }

    fn push_element(&mut self, el: &TupleElement) -> usize {
        let start = self.bytes.len();
        let stamp = tuple::pack_elements_into(std::slice::from_ref(el), &mut self.bytes);
        self.push(start, stamp.map(|at| at - start))
    }

    /// Pack a field value, a string or bytes straight from where the
    /// record holds it.
    #[inline]
    fn push_value(&mut self, value: FieldRef<'_>) -> Result<usize> {
        let start = self.bytes.len();
        match value {
            FieldRef::Value(ValueRef::String(s)) => tuple::pack_str_into(s, &mut self.bytes),
            FieldRef::Value(ValueRef::Bytes(b)) => tuple::pack_bytes_into(b, &mut self.bytes),
            value => element_of(value)?.pack_into(&mut self.bytes),
        }
        Ok(self.push(start, None))
    }
}

/// One row of a [`PackedRows`]: its columns' packed elements. Rows order
/// column by column, by the elements' bytes; equal rows pack equal.
#[derive(Debug, Clone, Copy)]
pub struct Row<'p> {
    packed: &'p PackedRows,
    columns: &'p [usize],
}

impl<'p> Row<'p> {
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The first `at` columns (all of them if there are fewer) and the
    /// rest.
    #[inline]
    pub fn split_at(self, at: usize) -> (Row<'p>, Row<'p>) {
        let (front, back) = self.columns.split_at(at.min(self.columns.len()));
        let row = |columns| Row {
            packed: self.packed,
            columns,
        };
        (row(front), row(back))
    }

    /// Each column's packed element.
    #[inline]
    pub fn elements(self) -> impl Iterator<Item = &'p [u8]> + Clone {
        let packed = self.packed;
        self.columns.iter().map(move |&i| {
            let el = packed.elements[i];
            &packed.bytes[el.start..el.end]
        })
    }

    /// Column `i`, decoded.
    pub fn get(self, i: usize) -> Option<Result<ElementRef<'p>>> {
        let bytes = self.elements().nth(i)?;
        TupleReader::new(bytes)
            .next()
            .map(|el| el.map_err(Error::Fdb))
    }

    /// The number of bytes the row packs to.
    #[inline]
    pub fn packed_len(self) -> usize {
        self.elements().map(<[u8]>::len).sum()
    }

    /// Append the row packed, as the tail of a tuple, to `out`: what
    /// [`tuple::pack_elements_into`] does for its elements, with the same
    /// offset of the last incomplete versionstamp among them.
    #[inline]
    pub fn pack_into(self, out: &mut Vec<u8>) -> Option<usize> {
        let mut stamp = None;
        for &i in self.columns {
            let el = self.packed.elements[i];
            stamp = el.stamp.map(|at| out.len() + at).or(stamp);
            out.extend_from_slice(&self.packed.bytes[el.start..el.end]);
        }
        stamp
    }

    /// The row as a tuple.
    pub fn to_tuple(self) -> Result<Tuple> {
        let elements = (0..self.len()).map(|i| match self.get(i) {
            Some(el) => el.map(ElementRef::into_owned),
            None => unreachable!("column {i} of {}", self.len()),
        });
        Ok(Tuple::from_elements(elements.collect::<Result<_>>()?))
    }
}

impl PartialEq for Row<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.elements().eq(other.elements())
    }
}

impl Eq for Row<'_> {}

impl PartialOrd for Row<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.elements().cmp(other.elements())
    }
}

/// Rows being built: `rows` in `packed`, filled up to `column`.
struct Building<'p> {
    packed: &'p mut PackedRows,
    rows: Rows,
    column: usize,
}

impl Building<'_> {
    /// Set the next column of every row to `element`.
    #[inline]
    fn set_each(&mut self, element: usize) {
        let Rows { at, count, width } = self.rows;
        for row in 0..count {
            self.packed.rows[at + row * width + self.column] = element;
        }
        self.column += 1;
    }

    /// Replace the rows by each row followed by each of the `count`
    /// alternatives of `width` columns gathered from `mark` on, the rows
    /// varying slowest; the alternatives are dropped. No alternatives
    /// leave no rows.
    fn product(&mut self, mark: usize, count: usize, width: usize) {
        let Rows {
            at,
            count: rows,
            width: stride,
        } = self.rows;
        let packed = &mut *self.packed;
        packed.rows.resize(at + rows * count * stride, 0);
        // From the last row back: row r's copies go to rows r·count and
        // on, never below r, so no row is overwritten before it is copied.
        for row in (0..rows).rev() {
            for alternative in (0..count).rev() {
                let from = at + row * stride;
                let to = at + (row * count + alternative) * stride;
                packed.rows.copy_within(from..from + self.column, to);
                let (to, from) = (to + self.column, mark + alternative * width);
                packed.rows[to..to + width]
                    .copy_from_slice(&packed.alternatives[from..from + width]);
            }
        }
        packed.alternatives.truncate(mark);
        self.rows.count = rows * count;
        self.column += width;
    }
}

fn field_of<'m>(msg: &'m dyn FieldSource, name: &str) -> Result<&'m FieldDescriptor> {
    msg.descriptor().field_by_name(name).ok_or_else(|| {
        Error::KeyExpression(format!("no field {name} on {}", msg.descriptor().name))
    })
}

fn extend_with_field(
    msg: &dyn FieldSource,
    name: &str,
    fan_type: FanType,
    rows: &mut Building<'_>,
) -> Result<()> {
    let field = field_of(msg, name)?;
    if !field.is_repeated() {
        let mut element = None;
        each_value(msg, field, |v| {
            element = Some(rows.packed.push_value(v)?);
            Ok(())
        })?;
        let element = match element {
            Some(element) => element,
            None => rows.packed.push_element(&TupleElement::Null),
        };
        rows.set_each(element);
        return Ok(());
    }
    match fan_type {
        FanType::Fanout => {
            let (mark, mut count) = (rows.packed.alternatives.len(), 0);
            each_value(msg, field, |v| {
                let element = rows.packed.push_value(v)?;
                rows.packed.alternatives.push(element);
                count += 1;
                Ok(())
            })?;
            rows.product(mark, count, 1);
        }
        FanType::Concatenate => {
            let mut list = Tuple::new();
            each_value(msg, field, |v| {
                list.add(element_of(v)?);
                Ok(())
            })?;
            let element = rows.packed.push_element(&list.into());
            rows.set_each(element);
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
    rows: &mut Building<'_>,
) -> Result<()> {
    let fd = field_of(ctx.message, field)?;
    fn nested<'m>(v: FieldRef<'m>, ctx: &EvalContext<'m>, field: &str) -> Result<EvalContext<'m>> {
        match v {
            FieldRef::Message(message) => Ok(EvalContext { message, ..*ctx }),
            FieldRef::Value(_) => Err(Error::KeyExpression(format!(
                "field {field} is not a message"
            ))),
        }
    }
    if fd.is_repeated() {
        if fan_type != FanType::Fanout {
            return Err(Error::KeyExpression(format!(
                "nested repeated field {field} requires Fanout"
            )));
        }
        // Every element's rows, in element order, multiply the rows.
        let (mark, mut count) = (rows.packed.alternatives.len(), 0);
        each_value(ctx.message, fd, |v| {
            let element = inner.pack(&nested(v, ctx, field)?, rows.packed)?;
            let packed = &mut *rows.packed;
            let end = element.at + element.count * element.width;
            packed
                .alternatives
                .extend_from_slice(&packed.rows[element.at..end]);
            packed.rows.truncate(element.at);
            count += element.count;
            Ok(())
        })?;
        rows.product(mark, count, inner.column_count());
        return Ok(());
    }
    let mut found = false;
    each_value(ctx.message, fd, |v| {
        found = true;
        inner.extend_rows(&nested(v, ctx, field)?, rows)
    })?;
    if !found {
        // Missing nested message: null columns.
        let null = rows.packed.push_element(&TupleElement::Null);
        for _ in 0..inner.column_count() {
            rows.set_each(null);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_message::{DescriptorPool, DynamicMessage, FieldType, MessageDescriptor, Value};

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
            let id = ctx.message.get_value("id")?;
            let id = id.as_ref().and_then(Value::as_i64).unwrap_or(0);
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
        let element = |v: ValueRef<'_>| element_of(FieldRef::Value(v));
        assert_eq!(element(ValueRef::I32(-3)).unwrap(), TupleElement::Int(-3));
        assert_eq!(
            element(ValueRef::String("s")).unwrap(),
            TupleElement::String("s".into())
        );
        assert!(element(ValueRef::U64(u64::MAX)).is_err());
    }
}
