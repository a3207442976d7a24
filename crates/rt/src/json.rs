//! A minimal JSON writer and reader — the one codec every artifact of
//! the workspace goes through (`h5inspect` object maps, telemetry and
//! explain bundles, campaign records).
//!
//! `h5inspect` emits its object map as JSON, as the paper's tool does
//! (§5.2: "generates a JSON file to record its object mapping
//! information"). The values we serialize are flat (strings, integers,
//! arrays of objects), so a ~100-line writer keeps the dependency set to
//! the crates the project allows. [`Json::parse`] is the matching
//! recursive-descent reader: it round-trips everything [`Json::pretty`]
//! produces (the telemetry gate in `scripts/verify.sh` validates
//! `--telemetry-out` files with it) and accepts arbitrary whitespace,
//! so hand-written fixtures parse too. Numbers are unsigned integers —
//! the subset this codebase writes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (JSON number).
    Int(u64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => Self::write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    Self::write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (the subset this module writes: `null`,
    /// booleans, unsigned integers, strings, arrays, objects). Returns
    /// a message pinpointing the byte offset on malformed input;
    /// trailing non-whitespace after the document is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = Self::parse_value(bytes, &mut pos)?;
        Self::skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", b as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
        Self::skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => Self::parse_keyword(bytes, pos, "null", Json::Null),
            Some(b't') => Self::parse_keyword(bytes, pos, "true", Json::Bool(true)),
            Some(b'f') => Self::parse_keyword(bytes, pos, "false", Json::Bool(false)),
            Some(b'"') => Self::parse_string(bytes, pos).map(Json::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                Self::skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(Self::parse_value(bytes, pos)?);
                    Self::skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                Self::skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    Self::skip_ws(bytes, pos);
                    let key = Self::parse_string(bytes, pos)?;
                    Self::skip_ws(bytes, pos);
                    Self::expect(bytes, pos, b':')?;
                    let value = Self::parse_value(bytes, pos)?;
                    fields.push((key, value));
                    Self::skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Int)
                    .ok_or_else(|| format!("invalid number at byte {start}"))
            }
            Some(&c) => Err(format!("unexpected '{}' at byte {pos}", c as char)),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Json,
    ) -> Result<Json, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {pos}"))
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        Self::expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 character (text is valid
                    // UTF-8 by construction — it came from a &str).
                    let start = *pos;
                    *pos += 1;
                    while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                        *pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf-8"));
                }
            }
        }
    }

    /// Append `s` as a JSON string literal, quotes included: `\" \\ \n
    /// \r \t` escaped, other control characters as `\u00XX` — the subset
    /// [`Json::parse`] round-trips.
    pub fn write_str(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Int(42).pretty(), "42");
        assert_eq!(Json::Str("a\"b".into()).pretty(), "\"a\\\"b\"");
    }

    #[test]
    fn nested_structure() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("superblock".into())),
            ("range".into(), Json::Arr(vec![Json::Int(0), Json::Int(96)])),
        ]);
        let s = j.pretty();
        assert!(s.contains("\"name\": \"superblock\""));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn empty_collections() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(Json::Str("\u{1}".into()).pretty(), "\"\\u0001\"");
        assert_eq!(Json::Str("a\tb\n".into()).pretty(), "\"a\\tb\\n\"");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n\u{1}µ".into())),
            ("n".into(), Json::Int(u64::MAX)),
            ("flag".into(), Json::Bool(false)),
            ("nothing".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                    Json::Str("".into()),
                ]),
            ),
        ]);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_accepts_compact_spelling() {
        let j = Json::parse(r#"{"a":[1,2,{"b":true}],"c":null}"#).unwrap();
        assert_eq!(j.get("c"), Some(&Json::Null));
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"abc", "1 2", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"s": "x", "n": 7}"#).unwrap();
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("n").and_then(Json::as_int), Some(7));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
        assert_eq!(Json::Null.as_arr(), None);
    }
}
