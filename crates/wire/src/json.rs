//! The workspace's one JSON reader and string escaper: serve's request
//! frames, the dist messages, journal entries, event-log lines and the
//! golden vectors are all read with [`parse`]. Much of that input comes
//! from a socket or a file a crash may have torn, so the parser is strict
//! and bounded: arrays and objects nest at most [`MAX_DEPTH`] deep (a
//! hostile `[[[[…` frame costs a typed error, not the reader's stack); one
//! linear pass copies string bodies as byte runs of the already-valid
//! UTF-8; numbers follow the RFC 8259 grammar, strings hold no raw control
//! characters, and `\u` surrogates must pair. For a duplicated key,
//! [`Value::get`] returns the last value.
//!
//! Numbers stay as slices of the input ([`Value::Num`]): parsing allocates
//! nothing per number, and each consumer decodes the token once at the
//! precision it needs — `as_f32` rounds the exact text an f32 writer
//! produced once, with no detour through f64, which the bit-exact
//! journal, dist transport and golden vectors rely on.

use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value borrowing its number tokens from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token exactly as written; decode with the `as_*` accessors.
    Num(&'a str),
    /// A string with its escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, members in document order (duplicates kept).
    Obj(Vec<(String, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Member lookup on an object; the last of duplicated keys wins.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn token(&self) -> Option<&'a str> {
        match self {
            Value::Num(tok) => Some(tok),
            _ => None,
        }
    }

    /// The number as `f32`, rounded once from the token; `None` when it
    /// overflows `f32` or is not a number.
    pub fn as_f32(&self) -> Option<f32> {
        self.token()?.parse().ok().filter(|v: &f32| v.is_finite())
    }

    /// The number as `f64`; `None` when it overflows `f64` or is not a
    /// number.
    pub fn as_f64(&self) -> Option<f64> {
        self.token()?.parse().ok().filter(|v: &f64| v.is_finite())
    }

    /// The number as `u64`; `None` unless the token is a non-negative
    /// integer literal in range (`1.0` and `1e2` are not).
    pub fn as_u64(&self) -> Option<u64> {
        self.token()?.parse().ok()
    }

    /// The number as `usize`, under the same rule as [`Value::as_u64`].
    pub fn as_usize(&self) -> Option<usize> {
        self.token()?.parse().ok()
    }
}

/// What [`parse`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input bytes are not UTF-8.
    NotUtf8,
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue a value here.
    Unexpected,
    /// A number token outside the RFC 8259 grammar.
    BadNumber,
    /// An unknown escape or a malformed `\u` escape.
    BadEscape,
    /// A raw control character (U+0000–U+001F) inside a string.
    ControlChar,
    /// A `\u` surrogate escape without its partner.
    LoneSurrogate,
    /// Arrays/objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Bytes after the top-level value.
    Trailing,
}

/// A parse failure and the byte offset it was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            JsonErrorKind::NotUtf8 => "invalid utf-8",
            JsonErrorKind::UnexpectedEnd => "unexpected end of input",
            JsonErrorKind::Unexpected => "unexpected character",
            JsonErrorKind::BadNumber => "malformed number",
            JsonErrorKind::BadEscape => "bad escape",
            JsonErrorKind::ControlChar => "raw control character in string",
            JsonErrorKind::LoneSurrogate => "lone surrogate escape",
            JsonErrorKind::TooDeep => "nesting too deep",
            JsonErrorKind::Trailing => "trailing data",
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; whitespace may surround it, nothing else.
///
/// # Errors
///
/// [`JsonError`] at the first violation.
pub fn parse(text: &str) -> Result<Value<'_>, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err(JsonErrorKind::Trailing));
    }
    Ok(value)
}

/// [`parse`] over raw bytes, e.g. a frame payload.
///
/// # Errors
///
/// [`JsonErrorKind::NotUtf8`] at the first invalid byte, else as [`parse`].
pub fn parse_utf8(bytes: &[u8]) -> Result<Value<'_>, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        kind: JsonErrorKind::NotUtf8,
        offset: e.valid_up_to(),
    })?;
    parse(text)
}

/// Writes `s` as a JSON string literal, quotes included. Escapes `"`, `\`,
/// `\n`, `\r`, `\t` by name and other control characters as `\u00xx`.
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if named.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(named)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// [`write_escaped`] into a new `String`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    /// The error for whatever sits at `pos` when it was not what the
    /// grammar needed.
    fn unexpected(&self) -> JsonError {
        self.err(match self.peek() {
            None => JsonErrorKind::UnexpectedEnd,
            Some(_) => JsonErrorKind::Unexpected,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    /// Parses the value at `pos` with `depth` containers already open.
    fn parse_value(&mut self, depth: usize) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err(JsonErrorKind::TooDeep)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.members(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.unexpected());
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    pairs.push((key, p.parse_value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Obj(pairs))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Parses the comma-separated members of the array or object whose
    /// opening bracket is at `pos`, up to and including `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(JsonErrorKind::Unexpected))
        }
    }

    /// Skips a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value<'a>, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        if !int || (self.eat(b'.') && !self.digits()) {
            return Err(self.err(JsonErrorKind::BadNumber));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
        }
        Ok(Value::Num(&self.text[start..self.pos]))
    }

    /// Parses the string whose opening quote is at `pos`. Unescaped runs
    /// are copied whole: they end only at ASCII bytes, so every run is a
    /// char-boundary slice of the already-valid input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.err(JsonErrorKind::ControlChar)),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the escape whose backslash is at `pos`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let bad = |kind| JsonError { kind, offset: at };
        self.pos += 2;
        let c = match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4().ok_or(bad(JsonErrorKind::BadEscape))?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(bad(JsonErrorKind::LoneSurrogate));
                    }
                    self.pos += 2;
                    let lo = self.hex4().ok_or(bad(JsonErrorKind::BadEscape))?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(bad(JsonErrorKind::LoneSurrogate));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                // Only a lone low surrogate is left for from_u32 to refuse.
                return char::from_u32(code).ok_or(bad(JsonErrorKind::LoneSurrogate));
            }
            _ => return Err(bad(JsonErrorKind::BadEscape)),
        };
        Ok(c)
    }

    /// Consumes four hex digits.
    fn hex4(&mut self) -> Option<u32> {
        let hex = self.text.as_bytes().get(self.pos..self.pos + 4)?;
        let mut code = 0;
        for &b in hex {
            code = code * 16 + char::from(b).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
    }
}
