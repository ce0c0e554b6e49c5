//! Vendored offline stand-in for `serde_json`.
//!
//! Serializes the shim `serde` crate's `Content` data model to JSON text
//! and parses JSON text back. Output formatting follows serde_json's
//! conventions (compact `{"k":v}` form, two-space pretty indentation,
//! floats always carrying a decimal point) so artifacts written by the
//! benches keep the familiar shape.

use serde::{Content, Deserialize, Serialize};
use std::fmt;

/// JSON value type; identical to the serde shim's content tree.
pub type Value = Content;

/// A JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::ContentError> for Error {
    fn from(e: serde::ContentError) -> Self {
        Error(e.0)
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_content()
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

/// Serializes `value` to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), Some(2), 0);
    Ok(out)
}

/// Parses a JSON string into any deserializable value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_content(&value)?)
}

/// Builds a [`Value`] from JSON-like syntax: `json!({"k": expr, ...})`,
/// `json!([a, b])`, `json!(null)`, or any serializable expression.
/// Object and array literals nest, as in the real crate.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Map(Vec::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Map($crate::json_object_entries!([]; $($tt)+))
    };
    ([]) => { $crate::Value::Seq(Vec::new()) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Seq($crate::json_array_items!([]; $($tt)+))
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Muncher for `json!` object bodies: accumulates parsed `(key, value)`
/// pairs inside `[...]`, then expands to one `vec![...]`. Values may
/// themselves be object or array literals, which recurse through `json!`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ([$(($k:expr, $v:expr),)*];) => { vec![$(($k.to_string(), $v)),*] };
    ([$($acc:tt)*]; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(
            [$($acc)* ($key, $crate::json!({ $($inner)* })),]; $($($rest)*)?
        )
    };
    ([$($acc:tt)*]; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(
            [$($acc)* ($key, $crate::json!([ $($inner)* ])),]; $($($rest)*)?
        )
    };
    ([$($acc:tt)*]; $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(
            [$($acc)* ($key, $crate::Value::Null),]; $($($rest)*)?
        )
    };
    ([$($acc:tt)*]; $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_object_entries!(
            [$($acc)* ($key, $crate::to_value(&$val)),]; $($($rest)*)?
        )
    };
}

/// Muncher for `json!` array bodies; same accumulator scheme as
/// [`json_object_entries`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_items {
    ([$($v:expr,)*];) => { vec![$($v),*] };
    ([$($acc:tt)*]; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($acc)* $crate::json!({ $($inner)* }),]; $($($rest)*)?)
    };
    ([$($acc:tt)*]; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($acc)* $crate::json!([ $($inner)* ]),]; $($($rest)*)?)
    };
    ([$($acc:tt)*]; null $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($acc)* $crate::Value::Null,]; $($($rest)*)?)
    };
    ([$($acc:tt)*]; $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_array_items!([$($acc)* $crate::to_value(&$val),]; $($($rest)*)?)
    };
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Value::I64(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Value::F64(n) => write_f64(out, *n),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => write_compound(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_escaped(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, depth + 1);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e16 {
        let _ = fmt::Write::write_fmt(out, format_args!("{v:.1}"));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an escape
/// is ASCII, so the runs between them are whole UTF-8 text and each is
/// copied with one `push_str`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1F) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(e.to_string()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    Error(format!("bad \\u escape at byte {}", self.pos))
                                })?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                None => return Err(Error("unterminated string".to_string())),
                _ => unreachable!(),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| Error(e.to_string()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|e| Error(e.to_string()))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|e| Error(e.to_string()))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|e| Error(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_nested_value() {
        let v = json!({
            "name": "queue",
            "count": 3usize,
            "ratio": 0.5f64,
            "tags": ["a", "b"],
            "inner": json!({"ok": true, "none": Value::Null}),
        });
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            "{\"name\":\"queue\",\"count\":3,\"ratio\":0.5,\"tags\":[\"a\",\"b\"],\
             \"inner\":{\"ok\":true,\"none\":null}}"
        );
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn object_and_array_literals_nest_without_inner_json_calls() {
        let v = json!({
            "best": {"k": 5usize, "alpha": 0.3f64},
            "grid": [{"k": 1usize}, {"k": 2usize}],
            "empty_map": {},
            "empty_seq": [],
            "gap": null,
        });
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            "{\"best\":{\"k\":5,\"alpha\":0.3},\"grid\":[{\"k\":1},{\"k\":2}],\
             \"empty_map\":{},\"empty_seq\":[],\"gap\":null}"
        );
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_uses_two_space_indent() {
        let v = json!({"rows": [1u64]});
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"rows\": [\n    1\n  ]\n}"
        );
    }

    /// The JSON string writer by its definition: one `char` at a time.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    proptest! {
        /// Escaping in runs writes exactly what escaping each `char`
        /// writes, and the parser reads the text back, for strings that
        /// mix quotes, backslashes, every control character, DEL and
        /// text of two, three and four UTF-8 bytes per character.
        #[test]
        fn run_escaping_equals_char_escaping(
            picks in proptest::collection::vec(0usize..43, 0..48),
        ) {
            let palette: Vec<char> = (0u8..0x20)
                .map(char::from)
                .chain(['"', '\\', '/', 'a', 'Z', ' ', '\u{7f}', 'é', '日', '本', '😀'])
                .collect();
            let s: String = picks.iter().map(|&i| palette[i]).collect();
            let mut out = String::new();
            write_escaped(&mut out, &s);
            prop_assert_eq!(&out, &escaped_by_char(&s));
            let back: Value = from_str(&out).expect("parseable");
            prop_assert_eq!(back, Value::Str(s));
        }
    }

    #[test]
    fn escapes_and_floats() {
        let s = to_string(&json!({"s": "a\"b\nc", "f": 2.0f64})).unwrap();
        assert_eq!(s, "{\"s\":\"a\\\"b\\nc\",\"f\":2.0}");
        let back: Value = from_str(&s).unwrap();
        assert_eq!(
            back.as_map().unwrap()[0].1,
            Value::Str("a\"b\nc".to_string())
        );
    }
}
