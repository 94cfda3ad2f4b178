//! Minimal JSON reading and writing: the workspace's one JSON document
//! model.
//!
//! The environment cannot pull serde. Every document is a [`JsonValue`]
//! tree: [`parse`] reads one, and [`JsonValue::to_json`] writes one back.
//! Documents are built with [`json_object!`](crate::json_object), `From`
//! and [`JsonValue::Arr`]; [`json_fields!`](crate::json_fields) lists a
//! named-field struct's fields as an object.

use std::fmt::Write;

/// A JSON document: what [`parse`] reads and [`JsonValue::to_json`] writes.
/// The wire codec, snapshot meta, `/metrics` and the evaluation's
/// artifacts all go through it.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// An exact integer, wide enough for every `i64` cell value and `u64`
    /// seed. Built from Rust integers only: [`parse`] reads every number
    /// as [`JsonValue::Num`].
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object fields in document order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        match self {
            JsonValue::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Appends `key: value` to an object, for the keys a document carries
    /// only sometimes.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<JsonValue>) {
        let JsonValue::Obj(fields) = self else {
            panic!("JSON field {key:?} pushed onto a non-object");
        };
        fields.push((key.to_string(), value.into()));
    }

    /// Writes the tree as a compact document, the inverse of [`parse`].
    /// Finite numbers print with Rust's shortest round-trip `Display`, so
    /// a reader gets the exact bits back; JSON has no NaN or infinity, so
    /// those write `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(_) => out.push_str("null"),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string, escaped per RFC 8259. Everything to escape
/// is ASCII, so the runs between escapes are copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

/// `f32` promotes to `f64` exactly, and the shortest round-trip printer
/// plus correctly rounded parsing brings the same `f32` back.
impl From<f32> for JsonValue {
    fn from(v: f32) -> Self {
        JsonValue::Num(v as f64)
    }
}

macro_rules! int_to_json_value {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Int(v as i128)
            }
        }
    )*};
}

int_to_json_value!(u64, usize, u32, i64);

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// A pair is a two-element array.
impl<A: Into<JsonValue>, B: Into<JsonValue>> From<(A, B)> for JsonValue {
    fn from((a, b): (A, B)) -> Self {
        JsonValue::Arr(vec![a.into(), b.into()])
    }
}

/// Builds a [`JsonValue::Obj`] from `"key": value` pairs in document order;
/// each value is anything with an `Into<JsonValue>`:
///
/// ```ignore
/// json_object! { "status": "ok", "tenants": 3u64, "fleet": json_object! { "up": true } }
/// ```
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::JsonValue::Obj(vec![
            $(($key.to_string(), $crate::json::JsonValue::from($value))),*
        ])
    };
}

/// Implements `From<&T> for JsonValue` for a named-field struct by listing
/// its fields: the object [`json_object!`](crate::json_object) builds, with
/// each field's name as its key and a clone of its value.
///
/// ```ignore
/// json_fields!(Cell { name, score, errors });
/// ```
#[macro_export]
macro_rules! json_fields {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl From<&$ty> for $crate::json::JsonValue {
            fn from(v: &$ty) -> Self {
                $crate::json::JsonValue::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::JsonValue::from(::std::clone::Clone::clone(&v.$field)),
                )),+])
            }
        }
    };
}

/// Parses a JSON document. Returns `None` on any syntax error or trailing
/// garbage — callers treat unreadable files as "no previous data".
pub fn parse(input: &str) -> Option<JsonValue> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// How deep arrays and objects may nest. A deeper document parses as
/// `None`: the parser recurses once per level, and so does every reader
/// that walks the tree (the wire decoder's expressions), so the bound is
/// what keeps one request body from overflowing a thread's stack — which
/// aborts the process, as no `catch_unwind` can stop it.
const MAX_DEPTH: usize = 128;

/// A value inside `depth` open arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<JsonValue> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' if depth < MAX_DEPTH => parse_object(b, pos, depth + 1),
        b'[' if depth < MAX_DEPTH => parse_array(b, pos, depth + 1),
        b'{' | b'[' => None,
        b'"' => parse_string(b, pos).map(JsonValue::Str),
        b't' => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        b'n' => parse_lit(b, pos, "null", JsonValue::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Option<JsonValue> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

/// A number of RFC 8259 §6's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, that is finite as an
/// `f64` (`1e999` is refused, not read as infinity).
fn parse_number(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    // Advances past a run of digits; `None` if there is none.
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        (*pos > from).then_some(())
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos)? {
        b'0' => *pos += 1,
        b'1'..=b'9' => digits(pos)?,
        _ => return None,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(pos)?;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)?;
    }
    let v: f64 = std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok()?;
    v.is_finite().then_some(JsonValue::Num(v))
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    let hex = b.get(at..at + 4)?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    eat(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // RFC 8259 §7: past the BMP, a high surrogate escape
                        // then a low one; a lone surrogate is no character.
                        let code = match code {
                            0xd800..=0xdbff if b.get(*pos + 1..*pos + 3) == Some(b"\\u") => {
                                let low = hex4(b, *pos + 3)?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return None;
                                }
                                *pos += 6;
                                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => code,
                        };
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // The run up to the next quote or backslash, in one copy:
                // both are ASCII, so the run ends on a character boundary
                // of the (UTF-8) input and is checked once, not per byte.
                let len = b[*pos..].iter().position(|&c| matches!(c, b'"' | b'\\'));
                let end = *pos + len.unwrap_or(b.len() - *pos);
                out.push_str(std::str::from_utf8(&b[*pos..end]).ok()?);
                *pos = end;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Option<JsonValue> {
    eat(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Option<JsonValue> {
    eat(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        eat(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Obj(fields));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        name: String,
        score: f64,
        tags: Vec<(String, f64)>,
        err: Option<String>,
    }
    crate::json_fields!(Demo {
        name,
        score,
        tags,
        err
    });

    #[test]
    fn struct_round_trips_shape() {
        let d = Demo {
            name: "a\"b".into(),
            score: 0.5,
            tags: vec![("x".into(), 1.0)],
            err: None,
        };
        assert_eq!(
            JsonValue::from(&d).to_json(),
            r#"{"name":"a\"b","score":0.5,"tags":[["x",1]],"err":null}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_json(), "null");
    }

    /// Integers take the exact arm: every digit of an `i64` or a `u64`,
    /// where an `f64` would round past 2^53. `parse` reads them back as
    /// `Num`, and `as_f64` reads both arms.
    #[test]
    fn integers_write_every_digit() {
        let doc = crate::json_object! {
            "min": i64::MIN, "max": u64::MAX, "odd": (1u64 << 53) + 1,
        };
        let text = doc.to_json();
        assert_eq!(
            text,
            r#"{"min":-9223372036854775808,"max":18446744073709551615,"odd":9007199254740993}"#
        );
        let odd = doc.get("odd").and_then(JsonValue::as_f64);
        assert_eq!(odd, Some(9_007_199_254_740_992.0));
        let min = parse(&text).unwrap().get("min").cloned();
        assert_eq!(min, Some(JsonValue::Num(i64::MIN as f64)));
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let escaped = JsonValue::from("a\u{1}b\u{1f}\t\"").to_json();
        assert_eq!(escaped, r#""a\u0001b\u001f\t\"""#);
        assert_eq!(parse(&escaped), Some("a\u{1}b\u{1f}\t\"".into()));
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let d = Demo {
            name: "a\"b\\c\nd".into(),
            score: -1.25e3,
            tags: vec![("x".into(), 1.0), ("y".into(), 0.5)],
            err: None,
        };
        let parsed = parse(&JsonValue::from(&d).to_json()).expect("parse");
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd")
        );
        assert_eq!(
            parsed.get("score").and_then(JsonValue::as_f64),
            Some(-1250.0)
        );
        assert_eq!(parsed.get("err"), Some(&JsonValue::Null));
        let tags = parsed.get("tags").and_then(JsonValue::as_array).unwrap();
        assert_eq!(tags[1].as_array().unwrap()[0].as_str(), Some("y"));
    }

    #[test]
    fn parse_handles_scalars_arrays_and_ws() {
        assert_eq!(parse(" true "), Some(JsonValue::Bool(true)));
        assert_eq!(parse("[]"), Some(JsonValue::Arr(vec![])));
        assert_eq!(parse("{}"), Some(JsonValue::Obj(vec![])));
        assert_eq!(
            parse("[1, 2,\n3]"),
            Some(JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.0),
                JsonValue::Num(3.0)
            ]))
        );
    }

    #[test]
    fn jsonvalue_writer_round_trips() {
        let doc = r#"{"a":[1,true,null,"x\ny"],"b":{"c":-2.5},"d":""}"#;
        let parsed = parse(doc).expect("parse");
        assert_eq!(parsed.to_json(), doc);
        assert_eq!(parse(&parsed.to_json()), Some(parsed));
    }

    /// Strings are copied a run at a time: 1 MiB of one string, escapes and
    /// multi-byte characters among its runs, reads back whole and fast
    /// (checking the rest of the document at every character took minutes).
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let run = "plain ascii, then é and ✓ ".repeat(1 << 15);
        let text = format!("{run}\"quoted\" and \\ backslashed\n{run}");
        assert!(text.len() > 1 << 20);
        let started = std::time::Instant::now();
        let parsed = parse(&JsonValue::from(text.as_str()).to_json()).expect("parse");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(parsed.as_str(), Some(text.as_str()));
    }

    /// Nesting past the bound is an error, not a stack overflow — on a
    /// thread with an eighth of a worker's stack — and the bound itself
    /// parses.
    #[test]
    fn nesting_past_the_depth_bound_parses_as_none() {
        for (open, inner, close) in [("[", "", "]"), ("{\"a\":", "0", "}")] {
            let nested = |depth| open.repeat(depth) + inner + &close.repeat(depth);
            assert!(parse(&nested(MAX_DEPTH)).is_some());
            assert_eq!(parse(&nested(MAX_DEPTH + 1)), None);
        }
        let bomb = std::thread::Builder::new().stack_size(256 << 10);
        let bomb = bomb.spawn(|| parse(&"[".repeat(1 << 20)));
        assert_eq!(bomb.unwrap().join().unwrap(), None);
    }

    #[test]
    fn a_unicode_escape_takes_four_hex_digits_only() {
        assert_eq!(parse(r#""\u0041""#), Some(JsonValue::Str("A".into())));
        assert_eq!(parse(r#""\u+041""#), None);
        assert_eq!(parse(r#""\u-041""#), None);
    }

    /// U+1F600 as RFC 8259 §7 writes it (and Python's `json.dumps` sends
    /// it): one character, not two replacement characters.
    #[test]
    fn a_surrogate_pair_escape_decodes_to_one_character() {
        let (high, low) = (r"\ud83d", r"\uDE00");
        let pair = parse(&format!("\"a{high}{low}b\""));
        assert_eq!(pair, Some(JsonValue::Str("a\u{1f600}b".into())));
    }

    /// Each case is one whitespace-free document of the list.
    #[test]
    fn a_lone_or_reversed_surrogate_escape_is_a_parse_error() {
        let cases = r#""\ud83d" "\ud83dx" "\ude00" "\ud83d\u0041" "\ude00\ud83d" "\ud83d\ud83d""#;
        for lone in cases.split(' ') {
            assert_eq!(parse(lone), None, "{lone}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for ok in "0 -0 5 -12 0.5 1e5 1E+5 -1.5e-3 10".split(' ') {
            assert!(parse(ok).is_some(), "{ok} is a JSON number");
        }
        for bad in "+5 05 -05 .5 5. - 1e 1e+ --1 0x1".split(' ') {
            assert_eq!(parse(bad), None, "{bad} is not a JSON number");
            assert_eq!(parse(&format!("[{bad}]")), None, "[{bad}]");
        }
    }

    #[test]
    fn a_number_that_overflows_to_infinity_is_refused() {
        for inf in ["1e999", "-1e999", r#"{"lit":1e999}"#] {
            assert_eq!(parse(inf), None, "{inf}");
        }
        assert_eq!(parse("1e308"), Some(JsonValue::Num(1e308)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse("{"), None);
        assert_eq!(parse("[1,]"), None);
        assert_eq!(parse("12 34"), None);
        assert_eq!(parse("nope"), None);
    }
}
