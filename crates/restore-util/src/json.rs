//! Minimal JSON reading and writing.
//!
//! The environment cannot pull serde, so this module provides a [`ToJson`]
//! trait for primitives and containers, the
//! [`impl_to_json!`](crate::impl_to_json) macro that derives the object
//! encoding for a named-field struct, and the [`JsonValue`] tree that
//! [`parse`] reads and [`json_object!`](crate::json_object) builds.

/// Serializes a value to a JSON string.
pub trait ToJson {
    fn to_json(&self) -> String;
}

/// Escapes a string per RFC 8259.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn float_to_json(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        "null".to_string()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> String {
        float_to_json(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> String {
        float_to_json(*self as f64)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                format!("{self}")
            }
        }
    )*};
}

int_to_json!(usize, u64, u32, i64, i32);

impl ToJson for bool {
    fn to_json(&self) -> String {
        format!("{self}")
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        format!("\"{}\"", escape(self))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> String {
        format!("\"{}\"", escape(self))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        match self {
            Some(v) => v.to_json(),
            None => "null".to_string(),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.iter().map(ToJson::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.iter().map(ToJson::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> String {
        format!("[{},{}]", self.0.to_json(), self.1.to_json())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> String {
        (**self).to_json()
    }
}

/// Implements [`ToJson`] for a named-field struct by listing its fields:
///
/// ```ignore
/// impl_to_json!(Cell { name, score, errors });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> String {
                let mut parts: Vec<String> = Vec::new();
                $(
                    parts.push(format!(
                        "\"{}\":{}",
                        stringify!($field),
                        $crate::json::ToJson::to_json(&self.$field)
                    ));
                )+
                format!("{{{}}}", parts.join(","))
            }
        }
    };
}

/// A parsed JSON value — the read side of this module: the wire decoder,
/// snapshot meta, and every `/metrics` reader go through it.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
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
}

/// The write side of [`JsonValue`]: renders the tree back to a compact
/// document, inverse of [`parse`]. Handy for canonicalizing bodies in
/// tests and for building dynamic documents (the HTTP wire surface builds
/// responses this way).
impl ToJson for JsonValue {
    fn to_json(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_json(),
            JsonValue::Num(v) => v.to_json(),
            JsonValue::Str(s) => s.to_json(),
            JsonValue::Arr(items) => {
                let parts: Vec<String> = items.iter().map(ToJson::to_json).collect();
                format!("[{}]", parts.join(","))
            }
            JsonValue::Obj(fields) => {
                let parts: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.to_json()))
                    .collect();
                format!("{{{}}}", parts.join(","))
            }
        }
    }
}

/// Counters render through `f64`, which prints every integer below 2^53
/// with the same digits as the integer itself.
macro_rules! num_to_json_value {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Num(v as f64)
            }
        }
    )*};
}

num_to_json_value!(f64, u64, usize, u32);

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
    crate::impl_to_json!(Demo {
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
            d.to_json(),
            r#"{"name":"a\"b","score":0.5,"tags":[["x",1]],"err":null}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let d = Demo {
            name: "a\"b\\c\nd".into(),
            score: -1.25e3,
            tags: vec![("x".into(), 1.0), ("y".into(), 0.5)],
            err: None,
        };
        let parsed = parse(&d.to_json()).expect("parse");
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
        let parsed = parse(&text.as_str().to_json()).expect("parse");
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
