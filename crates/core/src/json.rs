//! A minimal, dependency-free JSON parser and string quoter.
//!
//! Exists so the Perfetto/JSONL exporters can be round-trip validated
//! in-tree (the workspace carries zero registry dependencies). It is a
//! straightforward recursive-descent parser over the full JSON grammar;
//! numbers are held as `f64`, objects as ordered key/value vectors.
//! Nesting is capped at [`MAX_DEPTH`], so hostile input (a `majc-serve`
//! client line, say) gets an `Err` instead of overflowing the stack.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in source order (duplicate keys are kept; `get` finds the
    /// first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First member named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The documents the
/// workspace writes (Perfetto traces, lint facts, the serve protocol)
/// nest a handful of levels.
pub const MAX_DEPTH: usize = 256;

/// Parse one complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, s: src.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Quote `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters. Everything between two escaped bytes is copied as
/// one slice: each escaped byte is ASCII, so the runs between them are
/// whole characters.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => out.push_str(&format!("\\u{c:04x}")),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
    out
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes.
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
                }
                self.depth += 1;
                let v = if c == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number at {start}: {e}"))
    }

    /// A string literal. The bytes up to the next `"` or `\` are appended
    /// as one slice of `src`: both delimiters are ASCII, and the parser only
    /// ever stops after an ASCII byte, so each run starts and ends on a
    /// character boundary.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.s[self.i..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(n) = run else { return Err("unterminated string".into()) };
            out.push_str(self.src.get(self.i..self.i + n).ok_or("string run splits a character")?);
            self.i += n + 1;
            if self.s[self.i - 1] == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else { return Err("truncated escape".into()) };
            self.i += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let cp = self.hex4()?;
                    // Surrogate pairs: a high surrogate must be followed
                    // by an escaped low surrogate.
                    let ch = if (0xD800..0xDC00).contains(&cp) {
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("invalid low surrogate".into());
                        }
                        let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(c)
                    } else {
                        char::from_u32(cp)
                    };
                    out.push(ch.ok_or("invalid unicode escape")?);
                }
                _ => return Err(format!("bad escape at byte {}", self.i - 1)),
            }
        }
    }

    /// Exactly four hex digits (`from_str_radix` alone would also take a
    /// leading `+`).
    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self.s.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
        if !chunk.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("bad \\u escape at byte {}", self.i));
        }
        self.i += 4;
        Ok(chunk.iter().fold(0, |cp, &b| cp << 4 | (b as char).to_digit(16).unwrap_or(0)))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use majc_isa::SplitMix64;

    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" null ").unwrap(), Json::Null);
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"π\"").unwrap(), Json::Str("π".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        // `\u` takes exactly four hex digits: no sign, no short form.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u-041""#).is_err());
        assert!(parse(r#""\u041""#).is_err());
        assert!(parse(r#""\u0041""#).is_ok());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let obj = "{\"a\":".repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&obj).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the cap, unterminated: rejected at the cap, not by
        // running out of stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn quote_escapes_and_round_trips() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}\t"), "\"\\u0001\\t\"");
        for s in ["", "plain", "tab\there", "quote\" back\\", "\u{0}\u{1f}\r\n", "π 😀"] {
            assert_eq!(parse(&quote(s)).unwrap(), Json::Str(s.into()));
        }
    }

    /// Quoting one character at a time: the reference the run-based
    /// [`quote`] must match byte for byte.
    fn quote_per_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    /// Pieces that are not plain printable ASCII: escaped bytes, DEL, `/`,
    /// and one character of each UTF-8 length.
    const PIECES: [&str; 13] = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "/",
        "é",
        "€",
        "😀",
        "\u{10ffff}",
    ];

    /// A seeded string of printable-ASCII runs up to 40 bytes long and
    /// [`PIECES`], in any order; every other string starts and ends with
    /// a multi-byte character.
    fn mixed_string(rng: &mut SplitMix64, case: usize) -> String {
        let mut s = String::new();
        for _ in 0..rng.index(12) {
            if rng.flip() {
                s.extend((0..rng.index(41)).map(|_| (b' ' + rng.index(95) as u8) as char));
            } else {
                s.push_str(PIECES[rng.index(PIECES.len())]);
            }
        }
        if case.is_multiple_of(2) {
            s = format!("{}{s}{}", rng.pick(&PIECES[9..]), rng.pick(&PIECES[9..]));
        }
        s
    }

    /// `s` as a JSON literal in which each character the quoter would
    /// leave raw is written as a `\u` escape (a surrogate pair above the
    /// BMP) with probability one half.
    fn escape_some(rng: &mut SplitMix64, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            let quoted = quote(&c.to_string());
            if quoted.len() > c.len_utf8() + 2 || rng.flip() {
                out.push_str(&quoted[1..quoted.len() - 1]);
            } else {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{u:04X}"));
                }
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn strings_round_trip_through_runs() {
        let mut rng = SplitMix64::new(0x150_5EED);
        for case in 0..2000 {
            let s = mixed_string(&mut rng, case);
            let q = quote(&s);
            assert_eq!(q, quote_per_char(&s), "case {case}: {s:?}");
            assert_eq!(parse(&q), Ok(Json::Str(s.clone())), "case {case}: {q}");
            let e = escape_some(&mut rng, &s);
            assert_eq!(parse(&e), Ok(Json::Str(s.clone())), "case {case}: {e}");
            // A string cut before its closing quote never parses.
            assert!(parse(&q[..q.len() - 1]).is_err(), "case {case}: {q}");
        }
    }

    #[test]
    fn quote_output_is_pinned() {
        assert_eq!(quote("é\"x"), "\"é\\\"x\"");
        assert_eq!(quote("\\😀\u{1}"), "\"\\\\😀\\u0001\"");
        assert_eq!(quote("€\u{7f}/\n€"), "\"€\u{7f}/\\n€\"");
        assert_eq!(quote("ab\u{1f}\tcd"), "\"ab\\u001f\\tcd\"");
    }
}
