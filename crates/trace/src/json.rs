//! The workspace's one JSON reader, and the string escape its writers
//! share.
//!
//! [`parse`] reads exactly one JSON value and refuses anything else:
//! duplicate keys, trailing bytes, raw control characters, numbers
//! outside the JSON grammar, nesting past [`MAX_DEPTH`]. Numbers keep
//! their source text, so readers see exactly the digits the writers
//! printed. A failure is a [`JsonError`] with a byte offset.

use std::fmt;

/// Escapes a string for embedding in a JSON string literal: run labels
/// in trace lines, and every string mcd-serve writes into a JSON body.
pub fn json_escape(s: &str) -> String {
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

/// Arrays and objects nested deeper than this are refused, so a body of
/// 64 KiB of `[` costs a typed error instead of the parser's stack.
pub const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, with every escape decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in source order; keys are unique.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object; `None` for absent keys and for
    /// values that are not objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dot-separated path: each segment names an object
    /// member or, on an array, a decimal index
    /// (`controller_activity.0.relay_fires`).
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, seg| match v {
            Value::Arr(items) => items.get(seg.parse::<usize>().ok()?),
            _ => v.get(seg),
        })
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is written as one.
    pub fn as_u64(&self) -> Option<u64> {
        self.num()?.parse().ok()
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.num()?.parse().ok()
    }

    fn num(&self) -> Option<&str> {
        match self {
            Value::Num(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong, and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses `text` as exactly one JSON value, surrounded by optional
/// whitespace.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut sc = Scan { s: text, pos: 0 };
    let v = sc.value(0)?;
    sc.skip_ws();
    if sc.pos != text.len() {
        return Err(sc.fail("trailing bytes after the JSON value"));
    }
    Ok(v)
}

struct Scan<'a> {
    s: &'a str,
    pos: usize,
}

impl Scan<'_> {
    fn fail(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.fail(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => Ok(Value::Arr(self.seq(b']', |sc| sc.value(depth + 1))?)),
            Some(b'{') => {
                let at = self.pos;
                let members = self.seq(b'}', |sc| sc.member(depth + 1))?;
                // Sorted, so hostile objects cost O(n log n), not O(n²).
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                match keys.windows(2).find(|w| w[0] == w[1]) {
                    Some(w) => Err(JsonError {
                        offset: at,
                        message: format!("duplicate key {:?} in the object", w[0]),
                    }),
                    None => Ok(Value::Obj(members)),
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.eat(b"-");
                if !self.eat(b"0") {
                    self.digits()?;
                }
                if self.eat(b".") {
                    self.digits()?;
                }
                if self.eat(b"eE") {
                    self.eat(b"+-");
                    self.digits()?;
                }
                Ok(Value::Num(self.s[start..self.pos].to_string()))
            }
            _ => {
                let rest = &self.s[self.pos..];
                let word = (["null", "true", "false"].into_iter())
                    .find(|w| rest.starts_with(w))
                    .ok_or_else(|| self.fail("expected a JSON value"))?;
                self.pos += word.len();
                Ok(match word {
                    "null" => Value::Null,
                    w => Value::Bool(w == "true"),
                })
            }
        }
    }

    /// Reads `item (',' item)*` up to `close`, starting at the opening
    /// bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(&[close]) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(&[close]) {
                return Ok(items);
            }
            if !self.eat(b",") {
                return Err(self.fail(format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    /// One `"key": value` object member.
    fn member(&mut self, depth: usize) -> Result<(String, Value), JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.fail("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b":") {
            return Err(self.fail("expected ':'"));
        }
        Ok((key, self.value(depth)?))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let from = self.pos;
        while self.eat(b"0123456789") {}
        if self.pos == from {
            return Err(self.fail("expected a digit"));
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .s
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.fail("\\u needs four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex"))
    }

    /// A string literal, starting at its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let c = (self.s[self.pos..].chars().next())
                .ok_or_else(|| self.fail("unterminated string"))?;
            if c < ' ' {
                return Err(self.fail("raw control character in string"));
            }
            self.pos += c.len_utf8();
            let decoded = match c {
                '"' => return Ok(out),
                '\\' => self.escape()?,
                c => c,
            };
            out.push(decoded);
        }
    }

    /// The character an escape stands for, starting after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.fail("dangling escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' | b'\\' | b'/' => esc as char,
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let mut code = self.hex4()?;
                // A high surrogate must pair with a low one.
                if (0xd800..0xdc00).contains(&code) && self.s[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.fail("unpaired surrogate in \\u escape"))?
            }
            _ => {
                self.pos -= 1;
                return Err(self.fail(format!("unknown escape \\{}", esc as char)));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_values_by_path() {
        let v = parse(
            "{\"service\": {\"accepted\": 5, \"draining\": false},\n \
             \"domains\": [{\"relay_fires\": 4, \"mean\": null}], \"q\": -1.5e3}\n",
        )
        .expect("valid");
        assert_eq!(v.path("service.accepted").and_then(Value::as_u64), Some(5));
        assert_eq!(v.path("service.draining"), Some(&Value::Bool(false)));
        assert_eq!(
            v.path("domains.0.relay_fires").and_then(Value::as_u64),
            Some(4)
        );
        assert_eq!(v.path("domains.0.mean"), Some(&Value::Null));
        assert_eq!(v.path("domains.1"), None);
        assert_eq!(v.path("q").and_then(Value::as_f64), Some(-1500.0));
        assert_eq!(v.path("q").and_then(Value::as_u64), None);
        assert_eq!(v.path("service.missing"), None);
    }

    #[test]
    fn decodes_every_escape() {
        let v = parse(r#""q\" b\\ s\/ \n\t\r\b\f \u0039 \u00e9 \ud83d\ude00 é""#).expect("valid");
        assert_eq!(v.as_str(), Some("q\" b\\ s/ \n\t\r\u{8}\u{c} 9 é 😀 é"));
    }

    #[test]
    fn refuses_what_is_not_exactly_one_value() {
        for (bad, offset) in [
            ("", 0),
            ("[0, {\"a\":1,\"a\":2}]", 4),
            ("{\"a\":1} x", 8),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("+1", 0),
            ("nul", 0),
            ("\"a\u{1}\"", 2),
            ("\"\\x\"", 2),
            ("\"\\u+041\"", 3),
            ("\"\\ud800\"", 7),
            ("\"open", 5),
            ("\u{c}1", 0),
        ] {
            let e = parse(bad).expect_err(bad);
            assert_eq!(e.offset, offset, "{bad:?}: {e}");
        }
    }

    #[test]
    fn escape_covers_quotes_controls_and_passthrough() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\tt\r"), "l1\\nl2\\tt\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
