//! The one JSON value type, writer and reader of the workspace: every
//! artifact (registry snapshot, Chrome trace export, monitor JSONL window)
//! is built as a [`Json`] and written by its `Display`, and every reader
//! (`parse_chrome_spans`, `lwfs-inspect`) goes through [`Json::parse`].
//!
//! Hand-rolled because the workspace has no JSON dependency. Two choices
//! matter for artifacts read back in a post-mortem: integers stay exact
//! beside floats (request and trace ids are full-width `u64`s, which an
//! `f64` rounds), and the reader caps nesting at [`MAX_DEPTH`] (recursive
//! descent over hostile input would otherwise overflow the stack).

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts; the
/// artifacts nest four deep.
pub const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without fraction or exponent: exact over the whole
    /// `u64` and `i64` ranges.
    Int(i128),
    /// Any other number; written with a fraction so it reads back as one.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so written files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.members().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(m) => m,
            _ => &[],
        }
    }

    /// Parse one JSON document; trailing whitespace is allowed, anything
    /// else after the value is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { src: text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return p.err("trailing bytes");
        }
        Ok(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v.into())
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v.into())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

/// Compact single-line form: JSONL needs it, and every artifact uses it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // A non-finite measurement must not masquerade as a number.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) if n.fract() == 0.0 => write!(f, "{n:.1}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// Recursive descent over `src`. Wherever `src` is sliced, `pos` is on a
/// char boundary: it advances over ASCII bytes or over whole runs found by
/// `str::find` (a bad escape's non-ASCII byte ends the parse first).
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return self.err(&format!("expected '{}'", b as char));
        }
        self.pos += 1;
        Ok(())
    }

    /// `depth` counts the arrays and objects enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.err("nesting deeper than MAX_DEPTH"),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`; `item` parses one.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or a closing bracket"),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.src[self.pos..].starts_with(word) {
            return self.err("bad literal");
        }
        self.pos += word.len();
        Ok(v)
    }

    /// An integer literal stays an exact [`Json::Int`]; one beyond `i128`
    /// falls back to `f64`, as does anything with a fraction or exponent.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<i128>() {
            Ok(i) if !text.contains(['.', 'e', 'E']) => Ok(Json::Int(i)),
            _ => text.parse::<f64>().map(Json::Num).or_else(|_| self.err("bad number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// One escape, after its backslash. A `\u` surrogate pair decodes to
    /// its character; an unpaired surrogate decodes to U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else { return self.err("unterminated escape") };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) && self.src[self.pos..].starts_with("\\u") {
                    let before = self.pos;
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return Ok(char::from_u32(c).unwrap_or('\u{fffd}'));
                    }
                    self.pos = before; // not a low half: it decodes on its own
                }
                char::from_u32(hi).unwrap_or('\u{fffd}')
            }
            _ => return self.err("bad escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.src.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(v) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
            return self.err("bad \\u escape");
        };
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_artifact_grammar() {
        let v = Json::obj([
            ("id", Json::from(u64::MAX)),
            ("neg", Json::from(i64::MIN)),
            ("mean", Json::from(2.0)),
            ("rate", Json::from(-0.125)),
            ("s", Json::str("a \"quoted\"\nline\u{1}\\ é")),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null, Json::Arr(vec![])])),
            ("o", Json::obj::<&str>([])),
        ]);
        let text = v.to_string();
        assert!(!text.contains('\n'), "must stay on one line: {text}");
        assert!(text.contains("\"mean\": 2.0,"), "integral float keeps its fraction: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(" [1e3, 0.5E-1] \n").unwrap().as_arr()[0], Json::Num(1000.0));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,",
            "[1,]",
            "\"open",
            "{\"a\":1} x",
            "tru",
            ".5",
            "+1",
            "-",
            "1e",
            "1-2",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"tab\there\"",
            "{1: 2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
    }
}
