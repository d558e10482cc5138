//! Minimal strict JSON: an escaper for the Chrome exporter, a pull
//! [`Reader`] that `charm-perf` reads Chrome traces with, and [`parse`],
//! a [`Value`] tree built on top of it for the round-trip tests and the
//! benchmark's result files.
//!
//! The workspace takes no registry crates, so this is the one JSON lexer in
//! the tree. It accepts exactly RFC 8259 JSON (objects, arrays, strings
//! with full escape handling including surrogate pairs, numbers by the RFC
//! grammar, booleans, null) and rejects trailing garbage — anything it
//! parses, any conforming parser parses too. On top of the RFC it refuses
//! two things a hostile document can do to a reader: nesting deeper than
//! [`MAX_DEPTH`], and a number literal that does not fit a finite `f64`.
//!
//! The [`Reader`]'s contract: strict (every byte it passes over is
//! validated, including values the caller [`Reader::skip`]s; the one
//! exception is an element the caller has read and validated itself and
//! then [`Reader::step_past`]s), bounded (no recursion, no state that
//! grows with the input) and borrowing (a string without escapes is a
//! slice of the input; only one with an escape is copied). Errors name the
//! byte offset.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Append `s`, escaped for inclusion inside a JSON string literal (no
/// quotes), to `out`. The bytes that need an escape are the ones that stop
/// the reader's scan of a plain string (`plain_end`): one definition
/// serves both directions.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut clean = 0;
    loop {
        let i = plain_end(bytes, clean);
        // Every escaped byte is ASCII, so both cuts are char boundaries.
        out.push_str(&s[clean..i]);
        let Some(&b) = bytes.get(i) else {
            return;
        };
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => "",
        };
        if short.is_empty() {
            // `fmt::Write` for `String` cannot fail.
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        clean = i + 1;
    }
}

/// Escape `s` for inclusion inside a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace only) into a tree.
/// A duplicate object key keeps its last value.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut r = Reader::new(s);
    let first = r.value()?;
    let v = build(&mut r, first)?;
    r.finish()?;
    Ok(v)
}

/// Recursion here is as deep as the document nests, which the reader has
/// already bounded by [`MAX_DEPTH`].
fn build(r: &mut Reader<'_>, token: Token<'_>) -> Result<Value, String> {
    Ok(match token {
        Token::Null => Value::Null,
        Token::Bool(b) => Value::Bool(b),
        Token::Num(n) => Value::Num(n),
        Token::Str(s) => Value::Str(s.into_owned()),
        Token::ArrBegin => {
            let mut v = Vec::new();
            while r.elem()? {
                let t = r.value()?;
                v.push(build(r, t)?);
            }
            Value::Arr(v)
        }
        Token::ObjBegin => {
            let mut m = BTreeMap::new();
            while let Some(k) = r.key()? {
                let t = r.value()?;
                m.insert(k.into_owned(), build(r, t)?);
            }
            Value::Obj(m)
        }
    })
}

/// Deepest container nesting a [`Reader`] follows; one level more is an
/// error. Chrome traces nest three deep.
pub const MAX_DEPTH: usize = 128;

/// What [`Reader::value`] found: a whole scalar, or the opening of a
/// container whose contents the caller pulls next.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    Null,
    Bool(bool),
    Num(f64),
    /// Borrowed from the input unless the literal had an escape.
    Str(Cow<'a, str>),
    /// `[` — pull elements with [`Reader::elem`].
    ArrBegin,
    /// `{` — pull members with [`Reader::key`].
    ObjBegin,
}

/// A strict pull reader over one JSON document.
///
/// ```
/// use charm_trace::json::{Reader, Token};
/// let mut r = Reader::new(r#"[{"a": 1, "skipped": [true, null]}]"#);
/// assert_eq!(r.value(), Ok(Token::ArrBegin));
/// while r.elem().unwrap() {
///     assert_eq!(r.value(), Ok(Token::ObjBegin));
///     while let Some(key) = r.key().unwrap() {
///         match &*key {
///             "a" => assert_eq!(r.value(), Ok(Token::Num(1.0))),
///             _ => r.skip().unwrap(),
///         }
///     }
/// }
/// r.finish().unwrap();
/// ```
///
/// Calling the methods out of that order is reported as a syntax error at
/// the current offset; it cannot make the reader accept a malformed
/// document.
///
/// What a call costs is what its token costs. The pull methods are
/// `#[inline]`, so a caller's `match` on the token it asked for folds into
/// the reader's own; a string without escapes is found eight bytes a step
/// and comes back as a slice; a number the caller keeps is converted
/// exactly in one multiply or divide when its digits allow it (Clinger's
/// fast path), by `str::parse` otherwise; and every error is formatted out
/// of line, so the paths that succeed carry none of it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a str,
    i: usize,
    /// Open containers.
    depth: usize,
    /// The innermost open container is an object (false at the top level).
    object: bool,
    /// A value has been read in the innermost container since its opening
    /// or its last comma (at the top level: the document's value has been
    /// read), so only a `,` or the closing bracket may follow.
    filled: bool,
    /// The kinds of the enclosing containers, innermost in bit 0: a stack
    /// that shifts, `MAX_DEPTH` bits deep.
    outer_objects: u128,
}

/// An error: `what`, then the byte offset it names.
#[cold]
#[inline(never)]
fn fail(what: &str, at: usize) -> String {
    format!("{what} {at}")
}

#[cold]
#[inline(never)]
fn too_deep(at: usize) -> String {
    format!("nesting deeper than {MAX_DEPTH} at byte {at}")
}

#[cold]
#[inline(never)]
fn not_finite(text: &str, at: usize) -> String {
    format!("number {text:?} at byte {at} is not a finite f64")
}

/// Eight copies of a byte.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// Index of the first `"`, `\` or control byte at or after `i`, or the
/// end of `bytes`: where a run of plain string bytes stops. Eight bytes a
/// step: a byte's top bit is set in `stop` if it equals `"` or `\` (a zero
/// after the xor) or is below `0x20`; a borrow can only set it in bytes
/// after the first that qualifies, so the lowest one set is exact.
#[inline(always)]
pub(crate) fn plain_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(word) = bytes.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let w = u64::from_le_bytes(*word);
        let quote = w ^ splat(b'"');
        let slash = w ^ splat(b'\\');
        let stop = (quote.wrapping_sub(splat(1)) & !quote
            | slash.wrapping_sub(splat(1)) & !slash
            | w.wrapping_sub(splat(0x20)) & !w)
            & splat(0x80);
        if stop != 0 {
            return i + (stop.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while let Some(&b) = bytes.get(i) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        i += 1;
    }
    i
}

/// Index of the first byte at or after `i` that is not an ASCII digit.
#[inline]
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(b'0'..=b'9') = bytes.get(i) {
        i += 1;
    }
    i
}

/// `10^0 ..= 10^22`: every one an exact `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The value of a number literal the grammar has accepted, from its
/// parts: sign, integer and fraction digits, exponent sign and digits.
/// Given when one correctly rounded operation yields it: the digits, at
/// most 19 of them, form an integer `m <= 2^53`, and the literal is
/// `m * 10^e` with `|e| <= 22`. Both `m` and `10^|e|` are then exact
/// doubles, so one IEEE multiply or divide rounds the exact value once,
/// which is what `str::parse::<f64>` returns (Clinger's fast path). `None`
/// for any other literal.
fn decimal(negative: bool, int: &[u8], frac: &[u8], exp: (bool, &[u8])) -> Option<f64> {
    // Nineteen digits fit a `u64`; four exponent digits need no checks.
    if int.len() + frac.len() > 19 || exp.1.len() > 4 {
        return None;
    }
    let m = int
        .iter()
        .chain(frac)
        .fold(0u64, |m, &d| m * 10 + u64::from(d - b'0'));
    let x = exp
        .1
        .iter()
        .fold(0i64, |x, &d| x * 10 + i64::from(d - b'0'));
    let e = if exp.0 { -x } else { x } - frac.len() as i64;
    let v = exact(m, e)?;
    Some(if negative { -v } else { v })
}

/// `m * 10^e` when one correctly rounded operation yields it (`m <= 2^53`,
/// `|e| <= 22`: see [`decimal`]), `None` otherwise. The value of the
/// literal whose digits, read as one integer, are `m`, and whose point and
/// exponent scale them by `10^e`.
pub(crate) fn exact(m: u64, e: i64) -> Option<f64> {
    if m > 1 << 53 {
        return None;
    }
    let scale = *POW10.get(e.unsigned_abs() as usize)?;
    Some(if e < 0 {
        m as f64 / scale
    } else {
        m as f64 * scale
    })
}

impl<'a> Reader<'a> {
    /// Start reading `src` at its first byte.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader {
            src,
            i: 0,
            depth: 0,
            object: false,
            filled: false,
            outer_objects: 0,
        }
    }

    /// Start reading `src` at byte `at`, as if the value there were the
    /// whole document: how a caller comes back to a value it skipped, by
    /// its [`offset`](Reader::offset). Errors name offsets in `src`.
    pub fn at(src: &'a str, at: usize) -> Reader<'a> {
        Reader {
            i: at,
            ..Reader::new(src)
        }
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.i
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    #[inline]
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.i += 1;
        }
    }

    /// Read the byte `c`; `what` is the error if it is not next.
    #[inline]
    fn expect(&mut self, c: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(fail(what, self.i))
        }
    }

    /// Read `[` or `{`.
    #[inline]
    fn open(&mut self, object: bool) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.i));
        }
        self.i += 1;
        self.depth += 1;
        self.outer_objects = self.outer_objects << 1 | u128::from(self.object);
        self.object = object;
        self.filled = false;
        Ok(())
    }

    /// Read `]` or `}`: the container it closes is a value read in the one
    /// around it.
    #[inline]
    fn close(&mut self) {
        self.i += 1;
        self.depth -= 1;
        self.object = self.outer_objects & 1 != 0;
        self.outer_objects >>= 1;
        self.filled = true;
    }

    /// After the opening of a container or one of its values: the comma
    /// that must precede the next one, if any.
    #[inline]
    fn comma(&mut self) -> Result<(), String> {
        if self.filled {
            self.expect(b',', "expected ',' at byte")?;
            self.filled = false;
            self.ws();
        }
        Ok(())
    }

    /// Read the next value: a scalar whole, a container up to its opening
    /// bracket.
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        self.read_value(true)
    }

    /// [`Reader::value`]; with `keep` false a scalar is checked but not
    /// converted (a string comes back empty, a number as 0).
    #[inline(always)]
    fn read_value(&mut self, keep: bool) -> Result<Token<'a>, String> {
        self.ws();
        if self.filled {
            return Err(fail("expected ',' or the end at byte", self.i));
        }
        let token = match self.peek() {
            Some(b'"') => Token::Str(self.string(keep)?),
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number(keep)?),
            Some(b'[') => return self.open(false).map(|()| Token::ArrBegin),
            Some(b'{') => return self.open(true).map(|()| Token::ObjBegin),
            Some(b't') => self.lit("true", Token::Bool(true))?,
            Some(b'f') => self.lit("false", Token::Bool(false))?,
            Some(b'n') => self.lit("null", Token::Null)?,
            _ => return Err(fail("unexpected byte at", self.i)),
        };
        self.filled = true;
        Ok(token)
    }

    /// Inside an array: `true` if another element follows (read it with
    /// [`Reader::value`] or [`Reader::skip`]), `false` once the closing
    /// `]` has been read.
    #[inline(always)]
    pub fn elem(&mut self) -> Result<bool, String> {
        if self.depth == 0 || self.object {
            return Err(fail("not inside an array at byte", self.i));
        }
        self.ws();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(false);
        }
        self.comma()?;
        Ok(true)
    }

    /// Inside an array, where [`Reader::value`] would read the next element
    /// (after [`Reader::elem`] has returned `true`): step past that element,
    /// which the caller has read itself and found to be one whole JSON value
    /// ending at byte `end`. The reader takes the caller's word for those
    /// bytes. Anywhere else, or for an `end` that is not a char boundary
    /// after the offset, it is an error.
    #[inline]
    pub fn step_past(&mut self, end: usize) -> Result<(), String> {
        if self.depth == 0
            || self.object
            || self.filled
            || end <= self.i
            || !self.src.is_char_boundary(end)
        {
            return Err(fail("no element to step past at byte", self.i));
        }
        self.i = end;
        self.filled = true;
        Ok(())
    }

    /// Inside an object: the next member's key (its value is read with
    /// [`Reader::value`] or [`Reader::skip`]), `None` once the closing `}`
    /// has been read.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.read_key(true)
    }

    #[inline(always)]
    fn read_key(&mut self, keep: bool) -> Result<Option<Cow<'a, str>>, String> {
        if !self.object {
            return Err(fail("not inside an object at byte", self.i));
        }
        self.ws();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(None);
        }
        self.comma()?;
        if self.peek() != Some(b'"') {
            return Err(fail("expected a member key at byte", self.i));
        }
        let key = self.string(keep)?;
        self.ws();
        self.expect(b':', "expected ':' at byte")?;
        Ok(Some(key))
    }

    /// Read one whole value, containers included, checking its syntax and
    /// keeping nothing.
    pub fn skip(&mut self) -> Result<(), String> {
        let floor = self.depth;
        self.read_value(false)?;
        while self.depth > floor {
            let more = if self.object {
                self.read_key(false)?.is_some()
            } else {
                self.elem()?
            };
            if more {
                self.read_value(false)?;
            }
        }
        Ok(())
    }

    /// The document is complete: its value read, every container closed,
    /// only whitespace left.
    pub fn finish(&mut self) -> Result<(), String> {
        self.ws();
        if self.depth != 0 || !self.filled {
            Err(fail("document incomplete at byte", self.i))
        } else if self.i != self.src.len() {
            Err(fail("trailing garbage at byte", self.i))
        } else {
            Ok(())
        }
    }

    fn lit(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.src.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(token)
        } else {
            Err(fail("invalid literal at byte", self.i))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut n = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| fail("bad \\u escape at byte", self.i))?;
            self.i += 1;
            n = n * 16 + d;
        }
        Ok(n)
    }

    /// The character an escape sequence stands for; `self.i` is just past
    /// the backslash.
    fn escaped(&mut self) -> Result<char, String> {
        let c = self.peek();
        self.i += 1;
        Ok(match c {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                let cp = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.src.as_bytes()[self.i..].starts_with(b"\\u") {
                        return Err(fail("lone high surrogate at byte", self.i));
                    }
                    self.i += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(fail("invalid low surrogate at byte", self.i));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                char::from_u32(cp).ok_or_else(|| fail("invalid \\u codepoint at byte", self.i))?
            }
            _ => return Err(fail("bad escape at byte", self.i - 1)),
        })
    }

    /// A string literal; `self.i` is at its opening quote. With `keep`
    /// false it is checked and comes back empty. One without escapes is
    /// found here; [`Reader::escaped_string`] reads the rest.
    #[inline(always)]
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        let start = self.i + 1;
        let end = plain_end(self.src.as_bytes(), start);
        if self.src.as_bytes().get(end) != Some(&b'"') {
            return self.escaped_string(keep);
        }
        self.i = end + 1;
        // Both cuts sit next to an ASCII quote: char boundaries.
        Ok(Cow::Borrowed(if keep { &self.src[start..end] } else { "" }))
    }

    /// [`Reader::string`] for a literal with an escape, a raw control byte
    /// or no closing quote.
    fn escaped_string(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        self.i += 1;
        let bytes = self.src.as_bytes();
        let mut owned = String::new();
        // Start of the run of plain bytes not yet copied to `owned`. Runs
        // are cut at ASCII bytes only, so they are whole UTF-8.
        let mut run = self.i;
        loop {
            self.i = plain_end(bytes, self.i);
            let text = &self.src[run..self.i];
            match bytes.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    if !keep {
                        return Ok(Cow::Borrowed(""));
                    }
                    owned.push_str(text);
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = self.escaped()?;
                    if keep {
                        owned.push_str(text);
                        owned.push(c);
                    }
                    run = self.i;
                }
                Some(_) => return Err(fail("raw control byte in string at", self.i)),
                None => return Err(fail("unterminated string at byte", bytes.len())),
            }
        }
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]?
    /// [0-9]+)?`, and the value must be finite. With `keep` false it is
    /// checked and comes back as 0.
    #[inline(always)]
    fn number(&mut self, keep: bool) -> Result<f64, String> {
        let bytes = self.src.as_bytes();
        let start = self.i;
        let negative = bytes.get(start) == Some(&b'-');
        let int = start + usize::from(negative);
        self.i = digits_end(bytes, int);
        let int = &bytes[int..self.i];
        if int.is_empty() || (int.len() > 1 && int[0] == b'0') {
            return Err(fail("malformed number at byte", start));
        }
        let mut frac: &[u8] = &[];
        if self.peek() == Some(b'.') {
            let from = self.i + 1;
            self.i = digits_end(bytes, from);
            frac = &bytes[from..self.i];
            if frac.is_empty() {
                return Err(fail("malformed number at byte", start));
            }
        }
        let mut exp: (bool, &[u8]) = (false, &[]);
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.i += 1;
            exp.0 = self.peek() == Some(b'-');
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let from = self.i;
            self.i = digits_end(bytes, from);
            exp.1 = &bytes[from..self.i];
            if exp.1.is_empty() {
                return Err(fail("malformed number at byte", start));
            }
        }
        // Without an exponent, up to 308 integer digits stay under
        // `f64::MAX` (1.8e308): finite without converting.
        if !keep && !exponent && int.len() <= 308 {
            return Ok(0.0);
        }
        let text = &self.src[start..self.i];
        match decimal(negative, int, frac, exp).or_else(|| text.parse().ok()) {
            Some(n) if n.is_finite() => Ok(n),
            _ => Err(not_finite(text, start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_containers() {
        let v = parse(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{0001}π::<T>";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Value::Str(nasty.to_string()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("\u{1f600}".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("{'a':1}").is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar_and_must_be_finite() {
        for bad in [
            "01", "-01.5", "1.", "1.e5", ".5", "-", "1e", "1e+", "+1", "--1", "0x10", "1e400",
            "-1e400", "Infinity", "NaN",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
            // The same inside a container, and in a value that is skipped.
            let doc = format!("[{bad}]");
            assert!(parse(&doc).is_err(), "{doc:?}");
            let mut r = Reader::new(&doc);
            assert!(r.skip().is_err(), "skip of {doc:?}");
        }
        assert_eq!(parse("-0").unwrap(), Value::Num(0.0));
        assert!(parse("-0").unwrap().as_f64().unwrap().is_sign_negative());
        assert_eq!(parse("1e-400").unwrap(), Value::Num(0.0));
        assert_eq!(parse("0.5E+1").unwrap(), Value::Num(5.0));
        assert_eq!(parse("10").unwrap(), Value::Num(10.0));
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::Num(f64::MAX)
        );
        // 309 digits overflow, 308 do not; skipping judges them the same.
        let fits = "9".repeat(308);
        let over = "1".to_string() + &"0".repeat(309);
        assert!(parse(&fits).is_ok() && Reader::new(&fits).skip().is_ok());
        assert!(parse(&over).is_err() && Reader::new(&over).skip().is_err());
    }

    #[test]
    fn nesting_is_bounded_not_recursed() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Reader::new(&nest(MAX_DEPTH + 1)).skip().is_err());
        // Objects count against the same bound.
        let objs = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).unwrap_err().contains("nesting deeper"));
        // Two million brackets end in an error, not in a stack overflow.
        assert!(parse(&"[".repeat(2_000_000)).is_err());
        assert!(Reader::new(&"[{\"a\":".repeat(1_000_000)).skip().is_err());
    }

    #[test]
    fn reader_borrows_plain_strings_and_owns_escaped_ones() {
        let mut r = Reader::new(r#"["plain π", "esc\n", {"k\u0041": null}]"#);
        assert_eq!(r.value(), Ok(Token::ArrBegin));
        assert_eq!(r.elem(), Ok(true));
        assert!(matches!(
            r.value(),
            Ok(Token::Str(Cow::Borrowed("plain π")))
        ));
        assert_eq!(r.elem(), Ok(true));
        assert!(matches!(r.value(), Ok(Token::Str(Cow::Owned(s))) if s == "esc\n"));
        assert_eq!(r.elem(), Ok(true));
        assert_eq!(r.value(), Ok(Token::ObjBegin));
        assert!(matches!(r.key(), Ok(Some(Cow::Owned(k))) if k == "kA"));
        assert_eq!(r.value(), Ok(Token::Null));
        assert_eq!(r.key(), Ok(None));
        assert_eq!(r.elem(), Ok(false));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_is_strict_wherever_it_is_driven() {
        for bad in [
            "[1 2]",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{,}",
            "{1:2}",
            "[1}",
            "{\"a\":1]",
            "[",
            "{\"a\":",
            "\"\t\"",
            "\"\\x\"",
            "\"\\ud800\\u0041\"",
            "tru",
            "1 2",
            "",
        ] {
            assert!(parse(bad).is_err(), "parse {bad:?}");
            let mut r = Reader::new(bad);
            assert!(r.skip().and_then(|()| r.finish()).is_err(), "skip {bad:?}");
        }
        // Out-of-order calls are errors, not a way past the grammar.
        let mut r = Reader::new("[1,2]");
        assert!(r.elem().is_err() && r.key().is_err());
        assert_eq!(r.value(), Ok(Token::ArrBegin));
        assert!(r.key().is_err());
        assert_eq!(r.elem(), Ok(true));
        assert_eq!(r.value(), Ok(Token::Num(1.0)));
        assert!(r.value().is_err(), "a second value without its comma");
        assert!(Reader::new("1").finish().is_err(), "nothing read yet");
    }

    #[test]
    fn skip_validates_what_it_passes_over() {
        let mut r = Reader::new(r#"{"a":[1,{"b":"x\ty"},[]],"c":2}"#);
        assert_eq!(r.value(), Ok(Token::ObjBegin));
        assert!(matches!(r.key(), Ok(Some(k)) if k == "a"));
        assert_eq!(r.skip(), Ok(()));
        assert!(matches!(r.key(), Ok(Some(k)) if k == "c"));
        assert_eq!(r.value(), Ok(Token::Num(2.0)));
        assert_eq!(r.key(), Ok(None));
        assert_eq!(r.finish(), Ok(()));
        let mut r = Reader::new(r#"{"a":[1,{"b":tru}]}"#);
        assert_eq!(r.value(), Ok(Token::ObjBegin));
        assert!(r.key().is_ok());
        assert!(r.skip().unwrap_err().contains("byte 13"));
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
    }

    /// An LCG step: plenty to pick digits and bytes.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// `text` read as a number, kept (`json::parse`) and skipped, against
    /// `str::parse::<f64>`: the same bits, or both refuse it (not finite).
    fn same_as_str_parse(text: &str) {
        let want = text.parse::<f64>().expect("a number literal");
        let got = parse(text);
        if want.is_finite() {
            assert_eq!(got, Ok(Value::Num(want)), "{text}");
            let Ok(Value::Num(n)) = got else {
                unreachable!()
            };
            assert_eq!(n.to_bits(), want.to_bits(), "{text}");
            assert_eq!(Reader::new(text).skip(), Ok(()), "skip {text}");
        } else {
            assert!(got.is_err(), "{text}");
            assert!(Reader::new(text).skip().is_err(), "skip {text}");
        }
    }

    #[test]
    fn kept_numbers_are_bit_identical_to_str_parse() {
        for text in [
            "0.1",
            "9007199254740993",
            "9007199254740992",
            "1e22",
            "1e23",
            "5e-324",
            "1.7976931348623157e308",
            "-0",
            "-0.0e-5",
            "0e400",
            "123456789012345678901234567890",
            "1.0000000000000000000000001",
            "1e-22",
            "4.35e-20",
            "1E+0",
        ] {
            same_as_str_parse(text);
        }
        // 1-19 significant digits, the point anywhere among them, an
        // exponent in -30..=30 written every way the grammar allows.
        let seed = 0xf10a7_u64;
        let mut state = seed;
        for case in 0..20_000 {
            let digits = 1 + lcg(&mut state) as usize % 19;
            let mut mantissa: String = (0..digits)
                .map(|k| {
                    let lo = if k == 0 { 1 } else { 0 };
                    char::from(b'0' + (lo + lcg(&mut state) % (10 - lo)) as u8)
                })
                .collect();
            let point = lcg(&mut state) as usize % (digits + 1);
            if point > 0 && point < digits {
                mantissa.insert(point, '.');
            } else if point == digits && digits > 1 {
                mantissa = format!("0.{mantissa}");
            }
            let exp = lcg(&mut state) as i64 % 61 - 30;
            let sign = if lcg(&mut state).is_multiple_of(2) {
                ""
            } else {
                "-"
            };
            let text = match lcg(&mut state) % 4 {
                0 => format!("{sign}{mantissa}"),
                1 => format!("{sign}{mantissa}e{exp}"),
                2 => format!(
                    "{sign}{mantissa}E{}{}",
                    if exp < 0 { "-" } else { "+" },
                    exp.abs()
                ),
                _ => format!(
                    "{sign}{mantissa}e{}{:03}",
                    if exp < 0 { "-" } else { "" },
                    exp.abs()
                ),
            };
            assert!(parse(&text).is_ok(), "seed {seed:#x} case {case}: {text}");
            same_as_str_parse(&text);
        }
    }

    #[test]
    fn a_reader_at_a_skipped_value_reads_what_the_skipping_reader_would() {
        let doc = r#"[{"k": {"a": 1, "b": [true, "x\n"], "c": {}}, "z": 2}]"#;
        let mut r = Reader::new(doc);
        assert_eq!(r.value(), Ok(Token::ArrBegin));
        assert!(r.elem().unwrap());
        assert_eq!(r.value(), Ok(Token::ObjBegin));
        assert_eq!(r.key().unwrap().as_deref(), Some("k"));
        let (mut clone, mut at) = (r.clone(), Reader::at(doc, r.offset()));
        r.skip().unwrap();
        // Pull both readers through the value token by token.
        assert_eq!(clone.value(), at.value());
        let mut depth = 1;
        while depth > 0 {
            let (a, b) = if clone.object {
                (
                    clone.key().map(|k| k.is_some()),
                    at.key().map(|k| k.is_some()),
                )
            } else {
                (clone.elem(), at.elem())
            };
            assert_eq!(a, b);
            if a != Ok(true) {
                depth -= 1;
                continue;
            }
            let (a, b) = (clone.value(), at.value());
            assert_eq!(a, b);
            if matches!(a, Ok(Token::ArrBegin | Token::ObjBegin)) {
                depth += 1;
            }
            assert_eq!(clone.offset(), at.offset());
        }
        assert_eq!(at.offset(), r.offset(), "both end where the skip did");
        // Errors name offsets in the whole text.
        assert_eq!(
            Reader::at("[1, ]", 4).value(),
            Err("unexpected byte at 4".into())
        );
    }

    #[test]
    fn step_past_only_where_an_array_element_is_next() {
        let doc = r#"[{"a":1}, {"π":2}, 3]"#;
        let mut r = Reader::new(doc);
        assert!(r.step_past(1).is_err(), "at the top level");
        assert_eq!(r.value(), Ok(Token::ArrBegin));
        assert_eq!(r.elem(), Ok(true));
        let first = r.offset();
        assert!(r.step_past(first).is_err(), "an empty element");
        assert!(r.step_past(doc.len() + 1).is_err(), "past the text");
        assert_eq!(r.step_past(first + 7), Ok(()));
        assert!(
            r.step_past(first + 8).is_err(),
            "a second element without its comma"
        );
        assert_eq!(r.elem(), Ok(true));
        // Not inside an object, nor where a char does not begin.
        let mut inner = r.clone();
        assert_eq!(inner.value(), Ok(Token::ObjBegin));
        assert!(
            inner.step_past(inner.offset() + 1).is_err(),
            "inside an object"
        );
        let quote = r.offset() + 1;
        assert!(r.step_past(quote + 2).is_err(), "inside the two bytes of π");
        assert_eq!(r.step_past(quote + 7), Ok(()));
        assert_eq!(r.elem(), Ok(true));
        assert_eq!(r.value(), Ok(Token::Num(3.0)));
        assert_eq!(r.elem(), Ok(false));
        assert!(r.step_past(doc.len()).is_err(), "after the array closed");
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn plain_end_equals_a_byte_at_a_time_scan() {
        let scalar = |bytes: &[u8], i: usize| {
            i + bytes[i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len() - i)
        };
        let alphabet: Vec<u8> = (0u8..=0x21)
            .chain(*b"\\\"az~\x7f")
            .chain([0x80, 0x9f, 0xc3, 0xe2, 0xff])
            .collect();
        let seed = 0x5a7_u64;
        let mut state = seed;
        for case in 0..20_000 {
            let len = lcg(&mut state) as usize % 40;
            let mut bytes: Vec<u8> = (0..len).map(|_| b'x').collect();
            // Mostly plain bytes, a few of anything.
            for _ in 0..lcg(&mut state) % 4 {
                if len > 0 {
                    let at = lcg(&mut state) as usize % len;
                    bytes[at] = alphabet[lcg(&mut state) as usize % alphabet.len()];
                }
            }
            for from in 0..=len {
                assert_eq!(
                    plain_end(&bytes, from),
                    scalar(&bytes, from),
                    "seed {seed:#x} case {case} from {from}: {bytes:?}"
                );
            }
        }
    }

    /// `escape` as it was before `escape_into`: one `char` at a time.
    fn escape_reference(s: &str) -> String {
        let mut out = String::new();
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

    #[test]
    fn escape_into_equals_the_charwise_escape_on_a_seeded_corpus() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        assert_eq!(escape(&every_control), escape_reference(&every_control));
        let alphabet: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/ az09\u{7f}\u{80}π€😀\u{10ffff}".chars())
            .collect();
        let seed = 0xe5c_u64;
        let mut state = seed;
        for case in 0..2_000 {
            let mut s = String::new();
            for _ in 0..case % 40 {
                // An LCG is plenty to pick characters.
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.push(alphabet[(state >> 33) as usize % alphabet.len()]);
            }
            let want = escape_reference(&s);
            assert_eq!(escape(&s), want, "seed {seed:#x} case {case}: {s:?}");
            let mut appended = String::from("kept");
            escape_into(&mut appended, &s);
            assert_eq!(appended, format!("kept{want}"));
            assert_eq!(parse(&format!("\"{want}\"")), Ok(Value::Str(s)));
        }
    }
}
