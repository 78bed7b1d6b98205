//! The workspace's one JSON codec, shared by the batch journal, the
//! daemon's wire protocol, the chaos harness and the trajectory gate.
//!
//! [`Object::parse`] reads one object by the RFC 8259 grammar, whitespace
//! included, with string, non-negative integer or decimal, `true`/`false`
//! and object values, and decodes every escape, surrogate pairs included.
//! Anything else — a duplicate key, bytes after the object, a lone
//! surrogate, `null`, an array, a negative number, an exponent, nesting
//! past [`MAX_DEPTH`] — gets an error message, never a panic: the daemon
//! parses client input.
//! [`Writer`] renders one compact line, keys in call order.
//!
//! `std` only: `xtask` compiles this file in with `#[path]`.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// Objects nested deeper than this are refused, so a hostile line cannot
/// exhaust a connection thread's stack.
pub const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string, escapes decoded.
    String(String),
    /// A number, as its literal text so no digit is lost; narrow it with
    /// [`Value::number`].
    Number(String),
    /// `true` or `false`.
    Bool(bool),
    /// A nested object.
    Object(Object),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `T`: `None` for a non-number or one `T` cannot
    /// hold, so integer types refuse a fraction and narrow checked.
    pub fn number<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// A parsed JSON object: its fields in input order, keys unique.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// Parses `text` as exactly one object, with optional whitespace
    /// around it.
    ///
    /// # Errors
    ///
    /// A message naming the first violation and its byte offset.
    pub fn parse(text: &str) -> Result<Object, String> {
        let mut parser = Parser { text, pos: 0 };
        let object = parser.object(1)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return parser.fail("trailing bytes after the object");
        }
        Ok(object)
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`: `None` when absent or not a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The number value of `key` as a `T`; see [`Value::number`].
    pub fn number<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)?.number()
    }

    /// The fields in input order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A read position in the input; every method leaves `pos` just past
/// what it consumed.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn bump(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` or fails.
    fn require(&mut self, byte: u8) -> Result<(), String> {
        self.skip_whitespace();
        if !self.bump(byte) {
            return self.fail(&format!("expected `{}`", byte as char));
        }
        Ok(())
    }

    /// An object at nesting `depth` (the outermost is 1).
    fn object(&mut self, depth: usize) -> Result<Object, String> {
        if depth > MAX_DEPTH {
            return self.fail(&format!("objects nest deeper than {MAX_DEPTH}"));
        }
        self.require(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        while !self.bump(b'}') {
            if !fields.is_empty() {
                self.require(b',')?;
            }
            let key = self.string()?;
            self.require(b':')?;
            fields.push((key, self.value(depth)?));
            self.skip_whitespace();
        }
        // Sorting keeps a hostile many-key line at n log n; comparing
        // every pair would be quadratic.
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|pair| pair[0] == pair[1]) {
            Some(pair) => Err(format!("duplicate key {:?}", pair[0])),
            None => Ok(Object { fields }),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_whitespace();
        for (word, b) in [("true", true), ("false", false)] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(Value::Bool(b));
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'{') => self.object(depth + 1).map(Value::Object),
            Some(b'0'..=b'9') => self.number().map(Value::Number),
            _ => self.fail("expected a string, non-negative number, boolean or object"),
        }
    }

    /// `int frac?` (no sign, no exponent), as its literal text.
    fn number(&mut self) -> Result<String, String> {
        let start = self.pos;
        if !self.bump(b'0') {
            self.digits()?;
        }
        if self.bump(b'.') {
            self.digits()?;
        }
        Ok(self.text[start..self.pos].to_string())
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("expected a digit");
        }
        Ok(())
    }

    /// A quoted string, escapes decoded.
    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            // Runs end at ASCII bytes, so every slice is on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.bump(b'"') {
                return Ok(out);
            } else if !self.bump(b'\\') {
                return self.fail(match self.peek() {
                    Some(_) => "unescaped control character in a string",
                    None => "unterminated string",
                });
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return self.fail("unknown or unterminated escape"),
            });
        }
    }

    /// The character after `\u`: one `XXXX`, or a `\uD8XX\uDCXX`
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            let low = if self.bump(b'\\') && self.bump(b'u') {
                self.hex4()?
            } else {
                0
            };
            if !(0xdc00..0xe000).contains(&low) {
                return self.fail("high surrogate without a low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.fail("low surrogate without a high surrogate"),
        }
    }

    /// Exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4);
        match hex.and_then(|h| h.bytes().all(|b| b.is_ascii_hexdigit()).then_some(h)) {
            Some(h) => {
                self.pos += 4;
                u32::from_str_radix(h, 16).map_err(|e| e.to_string())
            }
            None => self.fail("expected four hex digits after \\u"),
        }
    }
}

/// Renders one object as one line with no whitespace, fields in call
/// order. Strings escape `"`, `\`, `\n`, `\r`, `\t` by name and other
/// control characters as `\u00XX`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty object.
    pub fn new() -> Writer {
        Writer::default()
    }

    fn key(mut self, key: &str) -> Writer {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        escape_into(&mut self.out, key);
        self.out.push(':');
        self
    }

    /// Appends `key` and `value`, which must display as valid JSON.
    fn raw(self, key: &str, value: impl Display) -> Writer {
        let mut w = self.key(key);
        let _ = write!(w.out, "{value}");
        w
    }

    /// Adds a string field.
    pub fn string(self, key: &str, value: &str) -> Writer {
        let mut w = self.key(key);
        escape_into(&mut w.out, value);
        w
    }

    /// Adds a number field. `value` must display as a non-negative JSON
    /// number: an unsigned integer, or a finite non-negative float
    /// (`format_args!("{x:.3}")` for fixed decimals).
    pub fn number(self, key: &str, value: impl Display) -> Writer {
        self.raw(key, value)
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Writer {
        self.raw(key, value)
    }

    /// Adds a nested object field.
    pub fn object(self, key: &str, value: Writer) -> Writer {
        self.raw(key, value.finish())
    }

    /// The finished line, without a trailing newline.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// Appends `s` as a quoted JSON string.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> String {
        Object::parse(text).expect_err(text)
    }

    #[test]
    fn whitespace_is_allowed_between_every_token() {
        let o = Object::parse(" {\n\t\"verb\" : \"synth\" ,\r\n \"bench\":\"3_17\" } \n").unwrap();
        assert_eq!(o.str("verb"), Some("synth"));
        assert_eq!(o.str("bench"), Some("3_17"));
        assert_eq!(Object::parse("{ }").unwrap(), Object::default());
    }

    #[test]
    fn every_value_kind_parses() {
        let o = Object::parse(
            r#"{"s":"a","n":42,"d":1.500,"z":0,"t":true,"f":false,"o":{"k":{"x":7}}}"#,
        )
        .unwrap();
        assert_eq!(o.str("s"), Some("a"));
        assert_eq!(o.number::<u64>("n"), Some(42));
        assert_eq!(o.get("d").and_then(Value::number), Some(1.5));
        assert_eq!(o.number::<u64>("d"), None, "a decimal is no integer");
        assert_eq!(o.number::<u64>("z"), Some(0));
        assert_eq!(o.get("t"), Some(&Value::Bool(true)));
        assert_eq!(o.get("f"), Some(&Value::Bool(false)));
        let Some(Value::Object(inner)) = o.get("o") else {
            panic!("nested object");
        };
        let Some(Value::Object(innermost)) = inner.get("k") else {
            panic!("doubly nested object");
        };
        assert_eq!(innermost.number::<u64>("x"), Some(7));
        // Typed accessors see a missing key and a wrong type alike.
        assert_eq!(o.str("missing"), None);
        assert_eq!(o.str("n"), None);
        assert_eq!(o.number::<u64>("s"), None);
    }

    #[test]
    fn numbers_keep_their_digits_and_narrow_checked() {
        let o =
            Object::parse(r#"{"max":18446744073709551615,"over":18446744073709551616}"#).unwrap();
        assert_eq!(o.number::<u64>("max"), Some(u64::MAX));
        assert_eq!(o.number::<u64>("over"), None);
        assert_eq!(
            o.get("over"),
            Some(&Value::Number("18446744073709551616".to_string()))
        );
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let o = Object::parse(
            r#"{"s":"q\" b\\ s\/ \b\f\n\r\t \u00e9 \u20AC \ud83d\ude00","k\u0041":1}"#,
        )
        .unwrap();
        assert_eq!(o.str("s"), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é € 😀"));
        assert_eq!(o.number::<u64>("kA"), Some(1), "keys are decoded too");
        // Raw UTF-8 passes through.
        assert_eq!(
            Object::parse("{\"s\":\"≥1 😀\"}").unwrap().str("s"),
            Some("≥1 😀")
        );
    }

    #[test]
    fn malformed_input_is_rejected_with_a_reason() {
        const VALUE: &str = "expected a string, non-negative number, boolean or object";
        for (text, reason) in [
            ("", "expected `{`"),
            ("\"verb\":\"ping\"", "expected `{`"),
            ("{\"verb\":\"ping\"} garbage", "trailing bytes"),
            ("{\"verb\":\"ping\"}{}", "trailing bytes"),
            ("{\"a\":1,\"b\":2,\"a\":3}", "duplicate key \"a\""),
            ("{\"a\":1,}", "expected `\"`"),
            ("{\"a\" 1}", "expected `:`"),
            ("{\"a\":1 \"b\":2}", "expected `,`"),
            ("{\"a\":\"x", "unterminated string"),
            ("{\"a\":\"x\\", "unterminated escape"),
            ("{\"a\":\"\\x\"}", "unknown or unterminated escape"),
            ("{\"a\":\"\\é\"}", "unknown or unterminated escape"),
            ("{\"a\":\"\\u12\"}", "four hex digits"),
            ("{\"a\":\"\\u+123\"}", "four hex digits"),
            ("{\"a\":\"\\ud83d\"}", "high surrogate"),
            ("{\"a\":\"\\ud83d\\u0041\"}", "high surrogate"),
            ("{\"a\":\"\\ude00\"}", "low surrogate"),
            ("{\"a\":\"tab\there\"}", "control character"),
            ("{\"a\":-1}", VALUE),
            ("{\"a\":null}", VALUE),
            ("{\"a\":[1]}", VALUE),
            ("{\"a\":01}", "expected `,`"),
            ("{\"a\":1.}", "expected a digit"),
            ("{\"a\":1e3}", "expected `,`"),
            ("{\"a\":tru}", VALUE),
            ("{\"a\"", "expected `:`"),
        ] {
            let err = parse_err(text);
            assert!(err.contains(reason), "{text:?}: {err:?} lacks {reason:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| {
            let mut text = "{\"a\":".repeat(depth - 1) + "{}";
            text.push_str(&"}".repeat(depth - 1));
            text
        };
        assert!(Object::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_err(&nest(MAX_DEPTH + 1)).contains("nest deeper"));
        // Far past the bound the parser still returns instead of
        // recursing until the stack runs out.
        assert!(parse_err(&"{\"a\":".repeat(100_000)).contains("nest deeper"));
    }

    #[test]
    fn the_writer_is_compact_ordered_and_escapes_like_the_journal() {
        let line = Writer::new()
            .string("z", "a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é😀")
            .number("a", 7u32)
            .number("d", format_args!("{:.3}", 1.5))
            .bool("ok", false)
            .object("o", Writer::new().number("n", u64::MAX))
            .object("e", Writer::new())
            .finish();
        assert_eq!(
            line,
            "{\"z\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\u{7f}é😀\",\"a\":7,\"d\":1.500,\
             \"ok\":false,\"o\":{\"n\":18446744073709551615},\"e\":{}}"
        );
        let parsed = Object::parse(&line).unwrap();
        assert_eq!(
            parsed.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            ["z", "a", "d", "ok", "o", "e"]
        );
        assert_eq!(Writer::new().finish(), "{}");
    }
}
