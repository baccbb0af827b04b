//! The workspace's one JSON module: a value type with a compact renderer,
//! an RFC 8259 parser and typed accessors. The workspace takes zero
//! third-party dependencies, so traces, bench reports, `--json` CLI output
//! and the `dmlc serve` wire protocol all go through this hand-rolled
//! [`Json`].
//!
//! Objects preserve insertion order so rendered output is reproducible.
//! Parsing yields [`Json::Num`] for every number; [`Json::as_i64`] reads
//! whole numbers back whichever variant holds them.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one hostile line of `[`s
/// overflows the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
    /// Array.
    Array(Vec<Json>),
    /// String (escaped on render).
    Str(String),
    /// Integer (kept separate so counters render without a decimal).
    Int(i64),
    /// Float, rendered with six decimal places; non-finite renders `null`.
    Num(f64),
    /// Boolean.
    Bool(bool),
}

/// Build an object from `(&str, Json)` pairs, preserving order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `NaN` and `inf` are not JSON tokens.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n:.6}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Parses a complete JSON document (rejects trailing non-whitespace
    /// and nesting deeper than [`MAX_DEPTH`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first occurrence); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && n.is_finite() => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one object or array one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if !fields.iter().any(|(k, _)| *k == key) {
                fields.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDC00..DFFF`.
                            let c = if (0xD800..0xDC00).contains(&first) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    let combined = 0x10000
                                        + ((first - 0xD800) << 10)
                                        + second.wrapping_sub(0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape ending at byte {}", self.pos)
                            })?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim: the
                    // input is a &str, so byte boundaries are valid.
                    let start = self.pos;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let ch = rest.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(digits, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact() {
        let j = obj(vec![
            ("name", Json::Str("fm".into())),
            ("pairs", Json::Int(12)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(j.render(), r#"{"name":"fm","pairs":12,"ok":true,"none":null,"xs":[1,2]}"#);
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn floats_fixed_precision() {
        assert_eq!(Json::Num(1.5).render(), "1.500000");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).render(), "null");
        }
    }

    #[test]
    fn strings_round_trip_through_render_and_parse() {
        for s in ["say \"hi\"", "tab\tnl\ncr\r\u{1}\u{1f}\\", "süß ∀n. 😀", ""] {
            let rendered = Json::Str(s.to_string()).render();
            assert_eq!(Json::parse(&rendered), Ok(Json::Str(s.to_string())), "{rendered}");
        }
        // Escapes the renderer never emits still decode, surrogate pairs
        // included.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00 \u00e9 \/ \b\f""#),
            Ok(Json::Str("😀 é / \u{8}\u{c}".to_string()))
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn whole_numbers_parse_to_num_and_read_as_i64() {
        let v = Json::parse("[7, -3, 2.5, 1e3]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], Json::Num(7.0));
        assert_eq!(items[0].as_i64(), Some(7));
        assert_eq!(items[1].as_i64(), Some(-3));
        assert_eq!(items[2].as_i64(), None);
        assert_eq!(items[2].as_f64(), Some(2.5));
        assert_eq!(items[3].as_i64(), Some(1000));
        assert_eq!(Json::Int(4).as_i64(), Some(4));
        assert_eq!(Json::Int(4).as_f64(), Some(4.0));
    }

    #[test]
    fn parses_nested_json_with_escapes() {
        let v =
            Json::parse(r#"{"a":[1,-2.5,true,null],"s":"line\nbreak A😀","o":{"k":"v"}}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("line\nbreak A😀"));
        assert_eq!(v.get("o").and_then(|o| o.get("k")).and_then(Json::as_str), Some("v"));
        let items = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2].as_bool(), Some(true));
        assert_eq!(items[3], Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"unterminated", "{\"a\" 1}", "1 2", "{'a':1}", "-", ""] {
            assert!(Json::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = "{\"k\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&past_cap).is_err());
    }
}
