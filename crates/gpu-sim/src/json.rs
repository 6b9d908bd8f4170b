//! The workspace's one JSON layer: the string and number conventions
//! every hand-written document shares, a dependency-free reader, the
//! typed field accessors the schema validators build on, and the
//! chrome://tracing envelope with its validator.
//!
//! The workspace is offline and serde-free, so each schema renders its
//! own JSON and owns its own validator beside its writer: `bench.v1` in
//! `bench::report`, `metrics.v1` in `serve::metrics`, `diag.v1` in
//! xtask's `analyze::diag`, and chrome traces here. They all read
//! through [`Json::parse`].

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace writes nests 5 levels; the cap keeps a
/// hostile input from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// Escapes a string for embedding inside a JSON string literal.
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

/// Formats an `f64` as a JSON number in its shortest round-trip form —
/// the one number convention every hand-written JSON document in the
/// workspace (`metrics.v1`, `bench.v1`) shares. [`Json::parse`] reads
/// it back bit for bit.
///
/// # Panics
///
/// Panics on non-finite values: JSON has no representation for them,
/// and a NaN in a report means its producer is broken.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value {v} in a JSON document");
    format!("{v:?}")
}

/// Wraps pre-rendered `trace_event` objects in the chrome://tracing
/// envelope. Shared by the kernel profiler's [`crate::chrome_trace`]
/// and downstream exporters (the serving layer's per-request trace), so
/// every trace the workspace writes opens in Perfetto the same way.
pub fn chrome_trace_envelope(events: &[String]) -> String {
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

/// Validates the shape of a chrome://tracing document as produced by
/// [`chrome_trace_envelope`]: a `traceEvents` array whose events carry
/// `ph`/`name`/`pid`, and whose `"X"` events also carry `tid` and
/// finite, non-negative `ts`/`dur`. Returns the number of events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc.arr_field("traceEvents")?;
    for (i, ev) in events.iter().enumerate() {
        let check = || -> Result<(), String> {
            let ph = ev.str_field("ph")?;
            ev.str_field("name")?;
            ev.num_field("pid")?;
            if ph == "X" {
                ev.num_field("tid")?;
                for key in ["ts", "dur"] {
                    if ev.num_field(key)? < 0.0 {
                        return Err(format!("{key:?} is negative"));
                    }
                }
            }
            Ok(())
        };
        check().map_err(|e| format!("event {i}: {e}"))?;
    }
    Ok(events.len())
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Nesting deeper than [`MAX_DEPTH`] is
    /// an error, never a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload, if this is a finite number (`1e999` parses
    /// to infinity).
    pub fn as_finite(&self) -> Option<f64> {
        self.as_f64().filter(|n| n.is_finite())
    }

    /// The numeric payload, if this is a non-negative integer.
    /// Integers past `u64::MAX` saturate.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_finite()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Required field `key`, of any type.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing {key:?}"))
    }

    /// Required field `key`, converted by `as_`; the error names the
    /// key and the expected type.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        as_: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        as_(self.field(key)?).ok_or_else(|| format!("{key:?} is not {what}"))
    }

    /// Required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Required boolean field.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    /// Required finite-number field.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a finite number", Json::as_finite)
    }

    /// Required non-negative-integer field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Json::as_u64)
    }

    /// Required array field.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// Required object field.
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed(key, "an object", Json::as_obj)
    }

    /// Checks the `{"schema": .., "name": ..}` header every workspace
    /// document opens with — the schema tag must be `schema` and the
    /// name non-empty — and returns the name.
    pub fn check_header(&self, schema: &str) -> Result<&str, String> {
        let tag = self.str_field("schema")?;
        if tag != schema {
            return Err(format!("schema {tag:?}, expected {schema:?}"));
        }
        let name = self.str_field("name")?;
        if name.is_empty() {
            return Err("empty \"name\"".to_string());
        }
        Ok(name)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one nesting level down.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogates decode to the replacement char;
                            // workspace documents never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path — decoding the tail per character
                    // would make parsing quadratic in document size.
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar (at most 4 bytes).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let head = &self.bytes[self.pos..end];
                    let ch = match std::str::from_utf8(head) {
                        Ok(s) => s.chars().next().ok_or("empty string tail")?,
                        // A char straddling `end` leaves a trailing error;
                        // the valid prefix still holds the next scalar.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&head[..e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                                .ok_or("empty string tail")?
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("truthy").is_err());
        assert_eq!(
            Json::parse("[1, 2.5, -3e2, null, true]").expect("parses"),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
                Json::Null,
                Json::Bool(true),
            ])
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let doc = Json::parse("\"caf\\u00e9 \\u2603\"").expect("parses");
        assert_eq!(doc.as_str(), Some("café ☃"));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Json::parse(&past_cap).unwrap_err().contains("nesting"));
    }

    #[test]
    fn typed_fields_name_the_key_and_the_type() {
        let doc = Json::parse(
            "{\"schema\":\"x.v1\",\"name\":\"n\",\"s\":\"v\",\"n\":2,\"f\":0.5,\"big\":1e999}",
        )
        .expect("parses");
        assert_eq!(doc.check_header("x.v1"), Ok("n"));
        assert!(doc.check_header("y.v1").unwrap_err().contains("schema"));
        assert_eq!(doc.str_field("s"), Ok("v"));
        assert_eq!(doc.u64_field("n"), Ok(2));
        assert_eq!(doc.num_field("f"), Ok(0.5));
        assert_eq!(doc.str_field("gone").unwrap_err(), "missing \"gone\"");
        assert_eq!(
            doc.u64_field("f").unwrap_err(),
            "\"f\" is not a non-negative integer"
        );
        assert!(doc.num_field("big").unwrap_err().contains("finite"));
        assert!(doc.arr_field("s").unwrap_err().contains("array"));
    }

    #[test]
    fn chrome_trace_validator_checks_event_shape() {
        let good = "{\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"k\"}},\
            {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"scan\",\"ts\":0.0,\"dur\":2.5}\
        ],\"displayTimeUnit\":\"ms\"}";
        assert_eq!(validate_chrome_trace(good), Ok(2));
        let missing_dur = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"scan\",\"ts\":0.0}]}";
        assert!(validate_chrome_trace(missing_dur).is_err());
        let negative_ts = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"scan\",\"ts\":-1,\"dur\":0}]}";
        assert!(validate_chrome_trace(negative_ts).is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert_eq!(validate_chrome_trace(&chrome_trace_envelope(&[])), Ok(0));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for v in [0.1, 1e-7 * 1.189207115002721, -1.5e-300, 123456789.0] {
            let back = Json::parse(&json_number(v)).expect("parses").as_f64();
            assert_eq!(back.map(f64::to_bits), Some(v.to_bits()));
        }
    }
}
