//! A minimal, dependency-free JSON reader and string escaper.
//!
//! The workspace builds offline (no serde), but the observability layer
//! both *emits* JSON (the JSONL event sink, `RUN_REPORT.json`) and
//! *validates* it (the `mlpa-obs` tool, the sink tests), so
//! a small recursive-descent parser lives here. It accepts exactly the
//! JSON this repo produces: objects, arrays, strings with `\uXXXX` and
//! the standard short escapes, finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (sorted map) — fine for
    /// validation, which is all this parser is for.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for non-objects or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "\"{}\"", escape(s)),
            Value::Arr(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Obj(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Escape a string for embedding in a JSON string literal (everything
/// the sink writes goes through this).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Parse a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error,
/// including trailing garbage after the top-level value.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text.parse().map_err(|_| format!("bad number `{text}` at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at byte {start}"));
        }
        Ok(Value::Num(n))
    }

    /// Read the four hex digits of a `\uXXXX` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            match code {
                                // High surrogate: must be followed by a
                                // `\uXXXX` low surrogate; the pair
                                // decodes to one astral code point.
                                0xd800..=0xdbff => {
                                    if self.bytes.get(self.pos) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(format!(
                                            "unpaired high surrogate at byte {}",
                                            self.pos
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(format!(
                                            "expected low surrogate at byte {}",
                                            self.pos
                                        ));
                                    }
                                    let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    out.push(char::from_u32(c).expect("valid astral code point"));
                                }
                                0xdc00..=0xdfff => {
                                    return Err(format!(
                                        "unpaired low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                _ => out.push(char::from_u32(code).expect("non-surrogate BMP")),
                            }
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("unescaped control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e3 ").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", "nul", "{\"a\":+}", "\u{1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::Str(nasty.into()));
    }

    #[test]
    fn display_round_trips() {
        let doc = r#"{"k": [1, "two", null], "n": 3.5}"#;
        let v = parse(doc).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // U+1D11E MUSICAL SYMBOL G CLEF = \uD834\uDD1E.
        assert_eq!(parse("\"\\uD834\\uDD1E\"").unwrap(), Value::Str("\u{1d11e}".into()));
        // Lowercase hex and a surrounding context.
        assert_eq!(parse("\"x\\ud83d\\ude00y\"").unwrap(), Value::Str("x\u{1f600}y".into()));
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        for bad in [
            "\"\\uD834\"",        // lone high surrogate
            "\"\\uD834x\"",       // high surrogate, no escape next
            "\"\\uD834\\n\"",     // high surrogate, wrong escape
            "\"\\uD834\\uD834\"", // high followed by high
            "\"\\uDD1E\"",        // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// SplitMix64 (offline-build stand-in for a property-test RNG).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Property: any string the sink can emit — including control
    /// characters, quotes, backslashes, and astral-plane characters —
    /// survives an escape -> parse round trip unchanged, both bare and
    /// embedded as an object value.
    #[test]
    fn escape_round_trip_property() {
        let mut rng = SplitMix64(0x0b5e_c0de);
        for case in 0..500 {
            let len = (rng.next() % 24) as usize;
            let mut s = String::new();
            for _ in 0..len {
                let c = match rng.next() % 5 {
                    // Control characters (the \uXXXX escape path).
                    0 => char::from_u32((rng.next() % 0x20) as u32).unwrap(),
                    // Characters with dedicated short escapes.
                    1 => *['"', '\\', '\n', '\r', '\t'].get((rng.next() % 5) as usize).unwrap(),
                    // Printable ASCII.
                    2 => char::from_u32(0x20 + (rng.next() % 0x5f) as u32).unwrap(),
                    // BMP, skipping the surrogate range.
                    3 => {
                        let v = (rng.next() % (0x1_0000 - 0x800)) as u32;
                        char::from_u32(if v >= 0xd800 { v + 0x800 } else { v }).unwrap()
                    }
                    // Astral plane (encoded as surrogate pairs by JSON
                    // emitters that escape non-ASCII).
                    _ => char::from_u32(0x1_0000 + (rng.next() % 0xf_0000) as u32).unwrap(),
                };
                s.push(c);
            }
            let doc = format!("\"{}\"", escape(&s));
            assert_eq!(parse(&doc).unwrap(), Value::Str(s.clone()), "case {case}: {doc:?}");
            let obj = format!("{{\"k\": \"{}\"}}", escape(&s));
            assert_eq!(
                parse(&obj).unwrap().get("k").and_then(Value::as_str),
                Some(s.as_str()),
                "case {case} (object): {obj:?}"
            );
        }
    }

    /// Astral characters written as explicit surrogate-pair escapes
    /// parse to the same string as the raw UTF-8 form.
    #[test]
    fn surrogate_escape_matches_raw_utf8() {
        let mut rng = SplitMix64(0x5eed);
        for _ in 0..200 {
            let c = char::from_u32(0x1_0000 + (rng.next() % 0xf_0000) as u32).unwrap();
            let mut units = [0u16; 2];
            let units = c.encode_utf16(&mut units);
            let escaped: String = units.iter().map(|u| format!("\\u{u:04x}")).collect();
            let doc = format!("\"{escaped}\"");
            assert_eq!(parse(&doc).unwrap(), Value::Str(c.to_string()), "{doc:?}");
        }
    }
}
