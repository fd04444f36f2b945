//! Minimal JSON: a value type, a recursive-descent parser, and a
//! deterministic writer.
//!
//! The build environment is offline, so `serde_json` is unavailable;
//! the wire protocol needs only this small, dependency-free subset.
//! Objects preserve insertion order (they are association vectors, not
//! maps), which makes rendering deterministic — a requirement for the
//! result cache, whose hit path must return byte-identical responses.
//!
//! This is the crate's one tokenizer and its one set of scalar
//! renderers. [`Json`] is built from them, and so are the protocol's
//! direct response writer and reader (`protocol.rs`), which use the
//! `Parser` primitives and `render_*` functions without building a
//! tree.

use std::fmt::Write as _;

/// A JSON value. Numbers keep the integer/float distinction so census
/// counts survive a round-trip as exact `i64`s.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an insertion-ordered association vector.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (floats do not coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse one JSON value from `input`, requiring the whole string to
    /// be consumed (modulo whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        parse_with(input, |p| p.value())
    }

    /// Render to a compact single-line string. Deterministic: the same
    /// value always renders to the same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => render_int(*i, out),
            Json::Float(f) => render_float(*f, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `i` in decimal. A digit loop rather than `write!`, which
/// goes through the formatting machinery for every integer: table
/// cells are mostly integers, and this loop roughly halves the encode
/// of an all-integer table.
pub(crate) fn render_int(i: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// Append `f`; non-finite values render as `null`.
pub(crate) fn render_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; null is the least-bad encoding.
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep the float/int distinction through a round-trip: `1.0`
    // renders as "1" in Rust, which would re-parse as an integer.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a quoted JSON string. Every byte that needs an escape
/// is ASCII, so the runs between them are copied whole — the entire
/// string when nothing in it needs escaping.
pub(crate) fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").unwrap(),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON parse error with a byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one value from `input` with `read`, requiring the whole string
/// to be consumed (modulo whitespace): the one whole-line rule every
/// JSON reader in the crate shares.
pub(crate) fn parse_with<T>(
    input: &str,
    read: impl FnOnce(&mut Parser<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = read(&mut p)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A JSON number, before it becomes a [`Json`] or a table cell.
pub(crate) enum Number {
    /// No fraction or exponent, and within `i64`.
    Int(i64),
    /// Anything else.
    Float(f64),
}

/// The recursive-descent tokenizer. [`Parser::value`] builds a [`Json`]
/// tree; readers that want a typed result instead call the primitives
/// it is made of (`array_with`, `object_with`, `string`, `number`,
/// `literal`, and `value` for what they skip), so they accept and
/// reject the same text with the same diagnostics.
pub(crate) struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Consume the keyword `text` (`null`, `true` or `false`).
    pub(crate) fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    pub(crate) fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Number::Int(i) => Json::Int(i),
                Number::Float(f) => Json::Float(f),
            }),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.array_with(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.object_with(|p, key| {
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// Read the array at the cursor, calling `item` with the cursor at
    /// each item, which it must consume.
    pub(crate) fn array_with(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Read the object at the cursor, calling `field` with each key and
    /// the cursor at its value, which it must consume.
    pub(crate) fn object_with(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece: both are ASCII, so a run of a `&str` between them
            // (or up to its end) is whole UTF-8.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes()[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            // hex4 advanced past the digits; undo the
                            // generic advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes().len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// An integer within `i64` is a [`Number::Int`]; one with a
    /// fraction or an exponent, or past `i64`, is parsed as an `f64`.
    pub(crate) fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        // Integer overflow falls back to float like other parsers.
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(&value.render()).unwrap(), value);
        }
    }

    #[test]
    fn roundtrip_structures() {
        let v = Json::Obj(vec![
            ("op".into(), Json::Str("query".into())),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(1), Json::Null]),
                    Json::Arr(vec![Json::Int(2), Json::Float(0.5)]),
                ]),
            ),
        ]);
        let text = v.render();
        assert_eq!(text, r#"{"op":"query","rows":[[1,null],[2,0.5]]}"#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rendering_is_deterministic_and_floats_stay_floats() {
        let v = Json::Arr(vec![Json::Float(1.0), Json::Int(1)]);
        assert_eq!(v.render(), "[1.0,1]");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".into()));
    }

    #[test]
    fn multibyte_text_next_to_escapes_roundtrips() {
        let text = r#""é\"😀\\n""#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v, Json::Str("é\"😀\\n".into()));
        assert_eq!(v.render(), text);
        for s in ["", "é", "\\é", "é\\", "😀\"😀", "a\u{1}é\u{1f}😀\u{7f}"] {
            let v = Json::Str(s.into());
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{s:?}");
        }
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00\/""#).unwrap(),
            Json::Str("é😀/".into())
        );
    }

    /// The writer escapes exactly what a per-character loop would.
    #[test]
    fn strings_render_as_a_per_character_escape_would() {
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out.push('"');
            out
        }
        let pieces = [
            "a", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "😀",
        ];
        for i in 0..pieces.len() {
            for j in 0..pieces.len() {
                for k in 0..pieces.len() {
                    let s = [pieces[i], pieces[j], pieces[k]].concat();
                    let mut out = String::new();
                    render_string(&s, &mut out);
                    assert_eq!(out, reference(&s), "{s:?}");
                }
            }
        }
    }

    #[test]
    fn integers_render_as_display_does() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut cases = vec![0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX, i64::MIN + 1];
        for shift in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cases.push(x as i64 >> shift);
        }
        for i in cases {
            let mut out = String::new();
            render_int(i, &mut out);
            assert_eq!(out, i.to_string());
        }
    }

    /// Numbers read as `i64` when the text is an integer within range,
    /// otherwise as `f64`, otherwise are an error.
    #[test]
    fn numbers_read_as_str_parse_does() {
        for text in [
            "0",
            "-0",
            "007",
            "-007",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "18446744073709551616",
            "123456789012345678901234567890",
            "1.5",
            "-2.5e-3",
            "1E5",
            "1e+5",
            "2.",
            "-.5",
            "-",
            "1e",
            "1e+",
            "-e5",
        ] {
            let want = match text.parse::<i64>() {
                Ok(i) if !text.contains(['.', 'e', 'E']) => Ok(Json::Int(i)),
                _ => text.parse::<f64>().map(Json::Float).map_err(|_| ()),
            };
            assert_eq!(Json::parse(text).map_err(|_| ()), want, "{text}");
        }
    }

    #[test]
    fn whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : [ ] } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "{", "[1,", "tru", "\"abc", "{\"a\":}", "1 2", "{'a':1}", "[1]]", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Int(3).get("x").is_none());
    }
}
