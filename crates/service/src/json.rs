//! A minimal JSON value type with a recursive-descent parser and a
//! compact writer — the wire format of the JSONL job protocol.
//!
//! The workspace builds with no registry access, so this replaces
//! `serde_json` for the small, flat documents the protocol exchanges.
//! Object key order is preserved (insertion order), which keeps emitted
//! lines stable and diffable.

use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the protocol never needs non-integral numbers, but
    /// they still parse — see [`Json::Float`]).
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field lookup with a protocol-grade error message.
    pub fn require(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Required string field.
    pub fn require_str(&self, key: &str) -> Result<&str, String> {
        self.require(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` must be a string"))
    }

    /// Required unsigned-integer field.
    pub fn require_u64(&self, key: &str) -> Result<u64, String> {
        self.require(key)?
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
    }

    /// Optional unsigned-integer field.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
        }
    }

    /// Optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a string")),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len());
                    escape_into(&mut key, k);
                    write!(f, "\"{key}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a cap one line of `[` would
/// overflow the stack; the deepest protocol document nests 6 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    /// Decodes a string in one pass: each run of bytes up to the next
    /// `"` or `\` is copied whole. A run ends on an ASCII byte or at the
    /// end of the input, so it always ends on a char boundary.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a `\`.
                Some(_) => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `pos` (the `\` is consumed).
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                out.push(self.unicode_escape()?);
                return Ok(());
            }
            _ => return Err(self.err("bad escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Decodes `uXXXX` at `pos`, combining a high surrogate with an
    /// immediately following `\uXXXX` low surrogate into one char. A
    /// lone surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 1;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a surrogate pair is a scalar value"));
            }
            // Not a low surrogate: the second escape decodes on its own.
            self.pos = after_high;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    /// Reads the four hex digits after the `u` at `pos` and moves past
    /// them. Exactly four ASCII hex digits are accepted (no sign).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 5;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::prng::SplitMix64;

    #[test]
    fn roundtrips_protocol_shapes() {
        let src = r#"{"op":"submit","name":"k1","max_apps":100,"nested":{"a":[1,2,true,null]},"msg":"line\nbreak \"q\""}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.require_str("op").unwrap(), "submit");
        assert_eq!(v.require_u64("max_apps").unwrap(), 100);
        assert_eq!(
            v.get("nested").unwrap().get("a").unwrap().as_arr().unwrap()[2],
            Json::Bool(true)
        );
        // print → parse is the identity on the value.
        let printed = v.to_string();
        assert_eq!(parse_json(&printed).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{}x", "\"\\q\""] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(parse_json("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse_json("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::Int(-42).to_string(), "-42");
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::str("a\u{1}b");
        assert_eq!(v.to_string(), "\"a\\u0001b\"");
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn decodes_surrogate_pairs_and_only_four_hex_digits() {
        let decoded = |src: &str| parse_json(src).unwrap().as_str().unwrap().to_string();
        // Python's `json.dumps("x😀")`.
        assert_eq!(decoded(r#""x\ud83d\ude00""#), "x😀");
        assert_eq!(decoded(r#""\uD83D\uDE00\u00e9""#), "😀é");
        // Lone surrogates, and a high one followed by a non-low escape.
        assert_eq!(decoded(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(decoded(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(decoded(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(decoded(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
        for (bad, msg) in [
            (r#""\u+041""#, "json error at byte 2: bad \\u escape"),
            (r#""\u-041""#, "json error at byte 2: bad \\u escape"),
            (r#""\u 041""#, "json error at byte 2: bad \\u escape"),
            (r#""\u004""#, "json error at byte 2: bad \\u escape"),
            (r#""\u00"#, "json error at byte 2: truncated \\u escape"),
            (r#""\ud83d\uzz00""#, "json error at byte 8: bad \\u escape"),
            (r#""ab\q""#, "json error at byte 4: bad escape"),
            (r#""abc"#, "json error at byte 4: unterminated string"),
        ] {
            assert_eq!(parse_json(bad).unwrap_err(), msg, "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        // `depth` objects: `{"k":` … `{}` … `}`.
        let objects = |depth: usize| {
            let (open, close) = ("{\"k\":".repeat(depth - 1), "}".repeat(depth - 1));
            format!("{open}{{}}{close}")
        };
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&arrays(MAX_DEPTH + 1)).unwrap_err(),
            format!("json error at byte {MAX_DEPTH}: nesting too deep")
        );
        let err = parse_json(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.ends_with("nesting too deep"), "{err}");
        // A 2 MB line of `[` is refused at the cap.
        let err = parse_json(&"[".repeat(2 << 20)).unwrap_err();
        assert_eq!(
            err,
            format!("json error at byte {MAX_DEPTH}: nesting too deep")
        );
    }

    #[test]
    fn long_multibyte_strings_decode_whole() {
        let s = "aé€😀\"\\\n".repeat(100_000);
        let v = Json::Arr(vec![Json::str(&s), Json::str("tail")]);
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
    }

    /// Characters that exercise every decoder path: ASCII, 2/3/4-byte
    /// UTF-8, every short escape, raw control characters and the edges
    /// of the scalar range.
    const CHARS: &str =
        "aZ0 \"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}éß€中\u{fffd}\u{ffff}😀\u{10ffff}";

    fn random_string(rng: &mut SplitMix64) -> String {
        let chars: Vec<char> = CHARS.chars().collect();
        (0..rng.gen_range(8))
            .map(|_| chars[rng.gen_range(chars.len())])
            .collect()
    }

    fn random_json(rng: &mut SplitMix64, depth: usize) -> Json {
        let kinds = if depth == 0 { 5 } else { 7 };
        match rng.gen_range(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool()),
            2 => Json::Int(rng.next_u64() as i64 >> rng.gen_range(64)),
            // Odd quarters: never integral, so they print with a `.`.
            3 => Json::Float((2 * rng.gen_range(1 << 20) as i64 - (1 << 20) + 1) as f64 / 4.0),
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..rng.gen_range(4))
                    .map(|_| random_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(4))
                    .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Writes `s` as a JSON string the way other encoders may: each
    /// char raw (control characters too, which the decoder accepts), as
    /// a short escape, or as `\uXXXX` (a surrogate pair above U+FFFF).
    fn escape_randomly(rng: &mut SplitMix64, s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                _ => None,
            };
            let raw_ok = c != '"' && c != '\\';
            match (rng.gen_range(3), short) {
                (0, Some(esc)) => out.push_str(esc),
                (1, _) if raw_ok => out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
    }

    fn print_randomly(rng: &mut SplitMix64, v: &Json, out: &mut String) {
        match v {
            Json::Str(s) => escape_randomly(rng, s, out),
            Json::Arr(items) => {
                out.push_str("[ ");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ,\n");
                    }
                    print_randomly(rng, item, out);
                }
                out.push_str("\t]");
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, item)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_randomly(rng, k, out);
                    out.push_str(" : ");
                    print_randomly(rng, item, out);
                }
                out.push_str("\r\n}");
            }
            scalar => out.push_str(&scalar.to_string()),
        }
    }

    #[test]
    fn seeded_random_documents_roundtrip() {
        let mut rng = SplitMix64::new(0x7e57);
        for _ in 0..400 {
            let v = random_json(&mut rng, 4);
            let printed = v.to_string();
            assert_eq!(parse_json(&printed).as_ref(), Ok(&v), "{printed}");
            let mut other = String::new();
            print_randomly(&mut rng, &v, &mut other);
            assert_eq!(parse_json(&other).as_ref(), Ok(&v), "{other}");
        }
    }

    /// Byte strings a mutation may splice in: delimiters, escape
    /// starts, and invalid UTF-8 (a stray continuation byte, a truncated
    /// two-byte sequence, an encoded surrogate, an overlong `/`).
    const SPLICES: &[&[u8]] = &[
        b"\\",
        b"\"",
        b"[",
        b"{",
        b"\\u",
        b"\\ud83d",
        b"\xff",
        b"\x80",
        b"\xc3",
        b"\xed\xa0\x80",
        b"\xc0\xaf",
    ];

    fn mutate(rng: &mut SplitMix64, doc: &mut Vec<u8>) {
        for _ in 0..1 + rng.gen_range(3) {
            let at = rng.gen_range(doc.len() + 1);
            match rng.gen_range(4) {
                0 if at < doc.len() => doc[at] ^= 1 << rng.gen_range(8),
                1 => doc.truncate(at),
                2 if at < doc.len() => {
                    doc.remove(at);
                }
                _ => {
                    let splice = SPLICES[rng.gen_range(SPLICES.len())];
                    doc.splice(at..at, splice.iter().copied());
                }
            }
        }
    }

    /// The decoder on mutated documents: never a panic, and every error
    /// names an offset inside the input.
    #[test]
    fn seeded_mutations_never_panic_and_errors_stay_in_bounds() {
        let mut rng = SplitMix64::new(0xf022);
        for _ in 0..300 {
            let printed = random_json(&mut rng, 4).to_string();
            for _ in 0..20 {
                let mut bytes = printed.clone().into_bytes();
                mutate(&mut rng, &mut bytes);
                // The transports reject invalid UTF-8 before decoding;
                // the lossy text still feeds the decoder U+FFFD runs.
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let result = std::panic::catch_unwind(|| parse_json(&text))
                    .unwrap_or_else(|_| panic!("parse_json panicked on {text:?}"));
                if let Err(e) = result {
                    let offset: usize = e
                        .strip_prefix("json error at byte ")
                        .and_then(|rest| rest.split(':').next())
                        .and_then(|n| n.parse().ok())
                        .unwrap_or_else(|| panic!("unexpected error shape {e:?}"));
                    assert!(offset <= text.len(), "{e} past {} bytes", text.len());
                }
            }
        }
    }
}
