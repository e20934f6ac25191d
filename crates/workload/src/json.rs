//! A minimal, hardened JSON reader/writer.
//!
//! The build environment has no access to crates.io, so nothing in the
//! workspace can use `serde_json`; this module implements the JSON subset the
//! workspace needs (objects, arrays, strings, unsigned integers, floats,
//! booleans, null) with a hand-rolled recursive-descent parser.
//!
//! Two kinds of caller feed it:
//!
//! * **trusted, recorded documents** — scenario records
//!   ([`Scenario::to_json`](crate::Scenario::to_json)) and the bench
//!   harness's JSON-lines output (via the [`quote`] escaper);
//! * **untrusted network input** — the `dcn-serve` wire protocol
//!   (`crates/server`) parses every client line through [`parse_limited`].
//!
//! The second caller is why the module is *hardened*: every malformed input
//! — unterminated strings, trailing garbage, truncated escapes, invalid
//! UTF-8, oversized documents — is rejected with a typed [`JsonError`]
//! carrying a byte position, and recursion depth is capped
//! ([`MAX_DEPTH`]) so a hostile `[[[[…` / `{"a":{"a":{…` document cannot
//! blow the parser's stack and kill the thread. The parser never panics on
//! any byte sequence (pinned by the seeded case-loop tests below and the
//! `malformed_input` suite in `crates/server`).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts. Deeper documents return
/// [`JsonError::TooDeep`] instead of recursing toward a stack overflow.
/// Every legitimate document in the workspace is at most a handful of
/// levels deep.
pub const MAX_DEPTH: usize = 64;

/// A typed parse error, carrying the byte position where parsing stopped.
///
/// Typed (rather than a bare `String`) so network-facing callers can map
/// each failure mode onto a protocol-level error frame; [`fmt::Display`]
/// renders the human-readable message, and `From<JsonError> for String`
/// lets callers with a `Result<_, String>` surface use `?` on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// The parser met a byte that cannot start or continue the expected
    /// construct (`found` is `None` at end of input).
    Unexpected {
        /// Byte offset of the offending position.
        at: usize,
        /// The byte found there, if any.
        found: Option<char>,
        /// What the grammar required instead.
        expected: &'static str,
    },
    /// A string literal was still open at end of input.
    UnterminatedString {
        /// Byte offset of the opening quote.
        start: usize,
    },
    /// A `\x` escape with an unknown `x`, or a truncated/invalid `\uXXXX`.
    InvalidEscape {
        /// Byte offset of the backslash.
        at: usize,
    },
    /// A number literal that neither `u64` nor `f64` accepts.
    InvalidNumber {
        /// Byte offset where the literal starts.
        at: usize,
        /// The rejected literal text.
        text: String,
    },
    /// The document contains bytes that are not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset where decoding failed.
        at: usize,
    },
    /// A complete value was parsed but non-whitespace input remains.
    TrailingGarbage {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep {
        /// The enforced limit.
        limit: usize,
    },
    /// The document exceeds the caller's length limit
    /// (see [`parse_limited`]).
    TooLong {
        /// The document length in bytes.
        len: usize,
        /// The enforced limit.
        limit: usize,
    },
    /// The document parsed, but its shape does not match what the caller
    /// required (missing key, wrong type, out-of-range integer).
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Unexpected {
                at,
                found,
                expected,
            } => match found {
                Some(c) => write!(f, "expected {expected} at byte {at}, found {c:?}"),
                None => write!(f, "expected {expected} at byte {at}, found end of input"),
            },
            JsonError::UnterminatedString { start } => {
                write!(f, "unterminated string starting at byte {start}")
            }
            JsonError::InvalidEscape { at } => write!(f, "invalid escape at byte {at}"),
            JsonError::InvalidNumber { at, text } => {
                write!(f, "invalid number {text:?} at byte {at}")
            }
            JsonError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 at byte {at}"),
            JsonError::TrailingGarbage { at } => write!(f, "trailing garbage at byte {at}"),
            JsonError::TooDeep { limit } => {
                write!(f, "nesting exceeds the depth limit of {limit}")
            }
            JsonError::TooLong { len, limit } => {
                write!(f, "document of {len} bytes exceeds the limit of {limit}")
            }
            JsonError::Schema(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON object; key order is not semantically meaningful (duplicate
    /// keys keep the last occurrence, like most permissive parsers).
    Object(BTreeMap<String, Value>),
    /// An array.
    Array(Vec<Value>),
    /// A string.
    Str(String),
    /// An unsigned integer literal, kept exact (u64 seeds exceed f64's 2^53
    /// integer range, and record-and-replay must be lossless).
    Int(u64),
    /// A non-integer (or negative/exponent-form) number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// Looks up `key` in an object value.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when the key is missing or `self` is not an
    /// object.
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a Value, JsonError> {
        match self {
            Value::Object(map) => map
                .get(key)
                .ok_or_else(|| JsonError::Schema(format!("missing key {key:?}"))),
            _ => Err(JsonError::Schema(format!(
                "expected an object while looking up {key:?}"
            ))),
        }
    }

    /// Looks up `key`, returning `None` when absent or JSON `null` (but
    /// still erroring when `self` is not an object).
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] when `self` is not an object.
    pub fn get_opt<'a>(&'a self, key: &str) -> Result<Option<&'a Value>, JsonError> {
        match self {
            Value::Object(map) => Ok(map.get(key).filter(|v| !matches!(v, Value::Null))),
            _ => Err(JsonError::Schema(format!(
                "expected an object while looking up {key:?}"
            ))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] for non-string values.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::Schema(format!(
                "expected a string, found {other:?}"
            ))),
        }
    }

    /// The value as an exact unsigned integer.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] for anything but an integer literal.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(JsonError::Schema(format!(
                "expected an unsigned integer, found {other:?}"
            ))),
        }
    }

    /// The value as a boolean.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] for non-boolean values.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::Schema(format!(
                "expected a boolean, found {other:?}"
            ))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] for non-array values.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(JsonError::Schema(format!(
                "expected an array, found {other:?}"
            ))),
        }
    }
}

/// Escapes and quotes a string for JSON output: the one escaper every
/// hand-rolled emitter in the workspace shares.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses a complete JSON document (trailing whitespace allowed), with the
/// [`MAX_DEPTH`] nesting cap.
///
/// # Errors
///
/// A typed [`JsonError`] with the byte position where parsing stopped.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::TrailingGarbage { at: pos });
    }
    Ok(value)
}

/// [`parse`] with an explicit byte-length cap, for untrusted network input:
/// the length check runs *before* any parsing work, so an oversized
/// document costs O(1).
///
/// # Errors
///
/// [`JsonError::TooLong`] for oversized input, otherwise as [`parse`].
pub fn parse_limited(input: &str, max_len: usize) -> Result<Value, JsonError> {
    if input.len() > max_len {
        return Err(JsonError::TooLong {
            len: input.len(),
            limit: max_len,
        });
    }
    parse(input)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8, expected: &'static str) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::Unexpected {
            at: *pos,
            found: bytes.get(*pos).map(|&b| b as char),
            expected,
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    // The depth budget shrinks on every nested container; hitting zero means
    // an adversarially deep document, not a legitimate workspace shape.
    if depth == 0 {
        return Err(JsonError::TooDeep { limit: MAX_DEPTH });
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        other => Err(JsonError::Unexpected {
            at: *pos,
            found: other.map(|&b| b as char),
            expected: "a JSON value",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static str,
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::Unexpected {
            at: *pos,
            found: bytes.get(*pos).map(|&b| b as char),
            expected: word,
        })
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'{', "'{'")?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':', "':'")?;
        let value = parse_value(bytes, pos, depth - 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            other => {
                return Err(JsonError::Unexpected {
                    at: *pos,
                    found: other.map(|&b| b as char),
                    expected: "',' or '}'",
                })
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'[', "'['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth - 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            other => {
                return Err(JsonError::Unexpected {
                    at: *pos,
                    found: other.map(|&b| b as char),
                    expected: "',' or ']'",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "'\"'")?;
    let start = *pos - 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::UnterminatedString { start }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escape_at = *pos;
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
                            .ok_or(JsonError::InvalidEscape { at: escape_at })?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError::InvalidEscape { at: escape_at })?;
                        out.push(
                            char::from_u32(code)
                                .ok_or(JsonError::InvalidEscape { at: escape_at })?,
                        );
                        *pos += 4;
                    }
                    None => return Err(JsonError::UnterminatedString { start }),
                    Some(_) => return Err(JsonError::InvalidEscape { at: escape_at }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::InvalidUtf8 { at: *pos })?;
                let Some(c) = rest.chars().next() else {
                    return Err(JsonError::InvalidUtf8 { at: *pos });
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::InvalidUtf8 { at: start })?;
    // Plain unsigned integer literals stay exact (u64 seeds do not fit in
    // f64's 2^53 integer range); everything else goes through f64.
    if let Ok(int) = text.parse::<u64>() {
        return Ok(Value::Int(int));
    }
    match text.parse::<f64>() {
        // `parse::<f64>` accepts "inf"/"nan" spellings only via alphabetic
        // input, which the scanner above never includes, but it does accept
        // overflowing literals as ±inf — normalise those to errors too so a
        // Value::Num is always finite.
        Ok(x) if x.is_finite() => Ok(Value::Num(x)),
        _ => Err(JsonError::InvalidNumber {
            at: start,
            text: text.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_strings_and_numbers() {
        let v = parse(r#"{"a": {"b": 3, "c": "x\ny"}, "d": 2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().get("b").unwrap().as_u64().unwrap(), 3);
        assert_eq!(
            v.get("a").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\ny"
        );
        assert!(matches!(v.get("d").unwrap(), Value::Num(n) if (*n - 2.5).abs() < 1e-12));
    }

    #[test]
    fn parses_arrays_booleans_and_null() {
        let v = parse(r#"{"xs": [1, "two", true, null], "ok": false}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 4);
        assert_eq!(xs[0].as_u64().unwrap(), 1);
        assert_eq!(xs[1].as_str().unwrap(), "two");
        assert!(xs[2].as_bool().unwrap());
        assert_eq!(xs[3], Value::Null);
        assert!(!v.get("ok").unwrap().as_bool().unwrap());
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn get_opt_treats_null_and_absent_alike() {
        let v = parse(r#"{"a": 1, "b": null}"#).unwrap();
        assert!(v.get_opt("a").unwrap().is_some());
        assert!(v.get_opt("b").unwrap().is_none());
        assert!(v.get_opt("c").unwrap().is_none());
        assert!(Value::Int(3).get_opt("a").is_err());
    }

    #[test]
    fn quoting_round_trips() {
        let original = "weird \"name\"\\ with\ttabs\nand ünïcode";
        let parsed = parse(&quote(original)).unwrap();
        assert_eq!(parsed.as_str().unwrap(), original);
    }

    #[test]
    fn rejects_malformed_documents_with_typed_errors() {
        assert!(matches!(
            parse("{"),
            Err(JsonError::Unexpected { found: None, .. })
        ));
        assert!(matches!(
            parse(r#"{"a" 1}"#),
            Err(JsonError::Unexpected { .. })
        ));
        assert!(matches!(
            parse(r#"{"a": 1} extra"#),
            Err(JsonError::TrailingGarbage { at: 9 })
        ));
        assert!(matches!(
            parse(r#"{"a": tru}"#),
            Err(JsonError::Unexpected { .. })
        ));
        assert!(matches!(
            parse(r#""open"#),
            Err(JsonError::UnterminatedString { start: 0 })
        ));
        assert!(matches!(
            parse(r#""bad \q escape""#),
            Err(JsonError::InvalidEscape { .. })
        ));
        assert!(matches!(
            parse(r#""trunc \u00"#),
            Err(JsonError::InvalidEscape { .. })
        ));
        assert!(matches!(parse("[1, 2"), Err(JsonError::Unexpected { .. })));
        // Errors render to the human-readable form the String-based callers
        // historically produced.
        assert_eq!(
            String::from(parse(r#"{"a": 1} extra"#).unwrap_err()),
            "trailing garbage at byte 9"
        );
    }

    #[test]
    fn depth_limit_rejects_adversarial_nesting_without_crashing() {
        // A document this deep would otherwise overflow the parser's stack
        // and kill the thread — exactly what untrusted network input must
        // never be able to do.
        let hostile_arrays = "[".repeat(100_000);
        assert_eq!(
            parse(&hostile_arrays),
            Err(JsonError::TooDeep { limit: MAX_DEPTH })
        );
        let hostile_objects = r#"{"a":"#.repeat(100_000);
        assert_eq!(
            parse(&hostile_objects),
            Err(JsonError::TooDeep { limit: MAX_DEPTH })
        );
        // Reasonable nesting stays accepted: depth MAX_DEPTH parses…
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&ok).is_ok());
        // …and one level past the cap is refused.
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&over), Err(JsonError::TooDeep { limit: MAX_DEPTH }));
    }

    #[test]
    fn length_limit_is_checked_before_parsing() {
        assert_eq!(
            parse_limited(r#"{"a": 1}"#, 4),
            Err(JsonError::TooLong { len: 8, limit: 4 })
        );
        assert!(parse_limited(r#"{"a": 1}"#, 8).is_ok());
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_infinite() {
        assert!(matches!(
            parse("1e999999"),
            Err(JsonError::InvalidNumber { .. })
        ));
        assert!(matches!(
            parse("1.2.3"),
            Err(JsonError::InvalidNumber { .. })
        ));
    }

    #[test]
    fn integer_conversions_are_checked() {
        let v = parse(r#"{"x": 300, "y": 1.5}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_u64().unwrap(), 300);
        assert!(v.get("y").unwrap().as_u64().is_err());
        assert!(v.get("missing").is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
    }

    #[test]
    fn u64_integers_above_f64_precision_stay_exact() {
        // 2^53 + 1 is the first integer an f64 cannot represent.
        let v = parse(r#"{"seed": 9007199254740993, "max": 18446744073709551615}"#).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64().unwrap(), 9007199254740993);
        assert_eq!(v.get("max").unwrap().as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn seeded_malformed_input_case_loop_never_panics() {
        use dcn_rng::{DetRng, Rng, SeedableRng};
        let mut rng = DetRng::seed_from_u64(0x5e2f);
        let seeds: &[&str] = &[
            r#"{"op": "submit", "kind": "add-leaf", "node": 3, "tag": 7}"#,
            r#"{"name": "s", "xs": [1, 2.5, true, null, "x\ny"]}"#,
            "[[[[{\"a\": \"\\u0041\"}]]]]",
        ];
        for case in 0..2_000 {
            // Mutate a valid document: truncate, splice random bytes, or
            // duplicate a slice — the classic fuzz triad, seeded.
            let base = seeds[case % seeds.len()].as_bytes().to_vec();
            let mut doc = base.clone();
            match rng.gen_range(0..3u32) {
                0 => doc.truncate(rng.gen_range(0..base.len())),
                1 => {
                    let at = rng.gen_range(0..base.len());
                    doc[at] = (rng.next_u64() & 0xff) as u8;
                }
                _ => {
                    let at = rng.gen_range(0..base.len());
                    let extra: Vec<u8> = (0..rng.gen_range(1..8usize))
                        .map(|_| (rng.next_u64() & 0xff) as u8)
                        .collect();
                    doc.splice(at..at, extra);
                }
            }
            // Invalid UTF-8 never reaches `parse` in production (lines are
            // decoded first); mirror that here, but keep raw-byte cases as
            // lossy text so the parser still sees hostile shapes.
            let text = String::from_utf8_lossy(&doc);
            // The only contract: a typed Ok/Err, never a panic.
            let _ = parse_limited(&text, 1 << 16);
        }
    }
}
