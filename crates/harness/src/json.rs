//! A minimal JSON value tree for the workload harness's reports (zero
//! dependencies, like everything tier-1).
//!
//! This is the workspace's one JSON implementation: build a [`Json`]
//! tree, pretty-print it ([`Json::to_pretty`]), and parse it back
//! ([`Json::parse`]) for the harness's `--compare` mode and the
//! round-trip tests.
//!
//! Objects preserve insertion order so emitted files are schema-stable
//! and diffable across runs.

use rl_obs::HistogramSnapshot;

/// A JSON value. Numbers are `f64` (every quantity a report emits fits);
/// integral values print without a fractional part.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`] / [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert or replace `key` (objects only; panics otherwise — the
    /// builders are all static call sites).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key, value)),
        }
    }

    /// Chained [`Json::set`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `get` through a dotted path, e.g. `"totals.throughput_ops_s"`.
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Object keys, in insertion order.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// A histogram snapshot as the canonical
    /// `{count, sum, min, max, p50, p95, p99}` object every report file
    /// uses for distributions.
    pub fn hist(snapshot: &HistogramSnapshot) -> Json {
        Json::obj()
            .with("count", snapshot.count())
            .with("sum", snapshot.sum())
            .with("min", snapshot.min())
            .with("max", snapshot.max())
            .with("p50", snapshot.quantile(0.50))
            .with("p95", snapshot.quantile(0.95))
            .with("p99", snapshot.quantile(0.99))
    }

    // ------------------------------------------------------------ writing

    /// Pretty-print with two-space indentation and a trailing newline
    /// (the `BENCH_*.json` house style).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars inline; arrays of containers nest.
                let scalar = items
                    .iter()
                    .all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if scalar {
                        if i > 0 {
                            out.push(' ');
                        }
                    } else {
                        newline(out, indent + 1);
                    }
                    item.write(out, indent + 1);
                }
                if !scalar {
                    newline(out, indent);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    // ------------------------------------------------------------ parsing

    /// Parse a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    use std::fmt::Write;
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}

impl_from_num!(f64, f32, u64, i64, u32, i32, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // Basic-plane only: the emitters never write
                            // surrogate pairs (non-ASCII passes through raw).
                            out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let v = Json::obj()
            .with("name", "bench")
            .with("count", 3u64)
            .with("nested", Json::obj().with("p50", 1.5))
            .with("list", vec![Json::from(1u64), Json::from(2u64)]);
        assert_eq!(v.get("name").unwrap().as_str(), Some("bench"));
        assert_eq!(v.get_path("nested.p50").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("list").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.keys(), vec!["name", "count", "nested", "list"]);
    }

    #[test]
    fn set_replaces_in_place() {
        let mut v = Json::obj().with("a", 1u64).with("b", 2u64);
        v.set("a", 9u64);
        assert_eq!(v.get("a").unwrap().as_f64(), Some(9.0));
        assert_eq!(v.keys(), vec!["a", "b"], "replacement keeps order");
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut out = String::new();
        write_num(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        write_num(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }

    #[test]
    fn round_trips_through_text() {
        let v = Json::obj()
            .with("str", "a \"quoted\"\nline\tend\\")
            .with("int", 123u64)
            .with("neg", -7i64)
            .with("float", 0.125)
            .with("big", 1.5e300)
            .with("yes", true)
            .with("no", false)
            .with("nothing", Json::Null)
            .with("empty_obj", Json::obj())
            .with("empty_arr", Json::Arr(vec![]))
            .with(
                "mixed",
                vec![
                    Json::from(1u64),
                    Json::obj().with("k", "v"),
                    Json::Arr(vec![Json::Bool(true)]),
                ],
            );
        let text = v.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v, "parse(to_pretty(v)) == v\n{text}");
    }

    #[test]
    fn parses_foreign_json() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5e1 , "xA" ] , "b" : null } "#).unwrap();
        assert_eq!(
            v.get_path("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("xA")
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "tru", ""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hist_shape() {
        let h = rl_obs::Histogram::new();
        h.record(10);
        h.record(20);
        let j = Json::hist(&h.snapshot());
        assert_eq!(j.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            j.keys(),
            vec!["count", "sum", "min", "max", "p50", "p95", "p99"]
        );
    }
}
