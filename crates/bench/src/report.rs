//! Machine-readable benchmark output: the `bench.v1` JSON schema, a
//! self-validating writer, and a dependency-free JSON reader used by the
//! validator (and by `xtask check_bench_json` in CI).
//!
//! Every harness binary accepts `--json <path>` and emits one document:
//!
//! ```json
//! {
//!   "schema": "bench.v1",
//!   "name": "counters_report",
//!   "rows": [
//!     {
//!       "labels": {"dataset": "sec-edgar", "strategy": "hybrid"},
//!       "values": {"effective_issues": 1234.0, "sim_seconds": 0.0021}
//!     }
//!   ]
//! }
//! ```
//!
//! The shape is deliberately flat — a list of rows, each a string→string
//! label map plus a string→number value map — so the same schema covers
//! counter tables, capacity tables, and per-range profiles without
//! per-binary variants. [`BenchReport::write`] re-parses and validates
//! its own rendering before touching the filesystem, so a document that
//! reaches disk round-trips by construction.

use gpu_sim::{json_escape, json_number, Counters, LaunchProfile, LaunchStats};
use std::fmt::Write as _;

/// Schema tag carried by every document this module writes.
pub const SCHEMA: &str = "bench.v1";

/// One row of a report: labels identify the measurement, values carry it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRow {
    /// Identifying labels, e.g. `("dataset", "sec-edgar")`.
    pub labels: Vec<(String, String)>,
    /// Measured values, e.g. `("sim_seconds", 0.0021)`.
    pub values: Vec<(String, f64)>,
}

impl MetricRow {
    /// Starts an empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an identifying label.
    pub fn label(mut self, key: &str, value: &str) -> Self {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends a measured value.
    pub fn value(mut self, key: &str, value: f64) -> Self {
        self.values.push((key.to_string(), value));
        self
    }

    /// Appends the full counter set (the eleven raw fields plus the
    /// derived effective-issue count) under their canonical names.
    pub fn counters(mut self, c: &Counters) -> Self {
        let pairs: [(&str, f64); 12] = [
            ("issues", c.issues as f64),
            ("divergence_extra", c.divergence_extra as f64),
            ("effective_issues", c.effective_issues() as f64),
            ("global_transactions", c.global_transactions as f64),
            ("global_bytes", c.global_bytes as f64),
            ("global_bytes_requested", c.global_bytes_requested as f64),
            ("global_bytes_unique", c.global_bytes_unique as f64),
            ("smem_accesses", c.smem_accesses as f64),
            ("bank_conflict_extra", c.bank_conflict_extra as f64),
            ("atomics", c.atomics as f64),
            ("atomic_conflict_extra", c.atomic_conflict_extra as f64),
            ("barriers", c.barriers as f64),
        ];
        for (k, v) in pairs {
            self.values.push((k.to_string(), v));
        }
        self
    }
}

/// A complete `bench.v1` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Report name (conventionally the producing binary's name).
    pub name: String,
    /// The measurement rows.
    pub rows: Vec<MetricRow>,
}

impl BenchReport {
    /// Starts an empty report.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: MetricRow) {
        self.rows.push(row);
    }

    /// Appends one row per launch (kernel name, counters, roofline
    /// seconds) and, when a launch carries a profile, one row per range.
    ///
    /// `base` is deliberately built once as a plain local and cloned for
    /// the profile rows. An earlier version used a row-building closure
    /// called twice per launch; under `opt-level >= 2` that shape
    /// double-dropped the row's label strings (heap corruption, observed
    /// as a segfault in `counters_report --json`). Keep this straight-line
    /// form.
    pub fn push_launches(&mut self, context: &[(&str, &str)], launches: &[LaunchStats]) {
        for (li, stats) in launches.iter().enumerate() {
            let mut base = MetricRow::new();
            for (k, v) in context {
                base = base.label(k, v);
            }
            base = base
                .label("kernel", &stats.name)
                .label("launch", &li.to_string());
            let row = base
                .clone()
                .counters(&stats.counters)
                .value("sim_seconds", stats.cost.total_seconds)
                .value("compute_seconds", stats.cost.compute_seconds)
                .value("memory_seconds", stats.cost.memory_seconds);
            self.push(row);
            if let Some(profile) = &stats.profile {
                self.push_profile(&base, profile);
            }
        }
    }

    /// Appends one row per profiled range, labelled with the range path.
    pub fn push_profile(&mut self, base: &MetricRow, profile: &LaunchProfile) {
        for r in &profile.ranges {
            self.push(
                base.clone()
                    .label("range", &r.path)
                    .value("calls", r.calls as f64)
                    .value("effective_issues", r.exclusive.effective_issues() as f64)
                    .value("global_bytes", r.exclusive.global_bytes as f64)
                    .value("est_seconds", r.est_seconds),
            );
        }
    }

    /// Renders the document as `bench.v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"name\":\"{}\",\"rows\":[",
            SCHEMA,
            json_escape(&self.name)
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"labels\":{");
            for (j, (k, v)) in row.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push_str("},\"values\":{");
            for (j, (k, v)) in row.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(k), json_number(*v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders, re-parses, validates, and only then writes the document.
    ///
    /// # Panics
    ///
    /// Panics when the rendering fails its own schema validation (a bug
    /// in the producing binary — e.g. a NaN value) or the file cannot be
    /// written; a benchmark must not exit zero after emitting a document
    /// its consumers will reject.
    pub fn write(&self, path: &str) {
        let text = self.to_json();
        if let Err(e) = validate_report(&text) {
            panic!("bench report {path:?} failed self-validation: {e}");
        }
        if let Err(e) = std::fs::write(path, &text) {
            panic!("cannot write bench report {path:?}: {e}");
        }
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader (no dependencies; used by the validators below).
// ---------------------------------------------------------------------

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
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
                            // bench documents never emit them.
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

// ---------------------------------------------------------------------
// Validators.
// ---------------------------------------------------------------------

/// Validates a `bench.v1` document: schema tag, non-empty name, and for
/// every row a string→string `labels` object and a string→finite-number
/// `values` object.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing \"name\"")?;
    if name.is_empty() {
        return Err("empty \"name\"".to_string());
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing \"rows\" array")?;
    for (i, row) in rows.iter().enumerate() {
        let labels = row
            .get("labels")
            .and_then(Json::as_obj)
            .ok_or(format!("row {i}: missing \"labels\" object"))?;
        for (k, v) in labels {
            if v.as_str().is_none() {
                return Err(format!("row {i}: label {k:?} is not a string"));
            }
        }
        let values = row
            .get("values")
            .and_then(Json::as_obj)
            .ok_or(format!("row {i}: missing \"values\" object"))?;
        for (k, v) in values {
            match v.as_f64() {
                Some(n) if n.is_finite() => {}
                _ => return Err(format!("row {i}: value {k:?} is not a finite number")),
            }
        }
    }
    Ok(())
}

/// Validates latency-percentile pairs in a `bench.v1` document: every
/// row carrying a `p<N>_latency_s` value must keep its percentiles
/// non-negative and monotone (`p50 <= p99`, and in general any lower
/// percentile must not exceed a higher one). Returns how many rows
/// carried percentiles. Runs after [`validate_report`], so values are
/// already known to be finite numbers.
pub fn validate_latency_percentiles(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing \"rows\" array")?;
    let mut carrying = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let values = row
            .get("values")
            .and_then(Json::as_obj)
            .ok_or(format!("row {i}: missing \"values\" object"))?;
        // (percentile, value) pairs parsed out of p<N>_latency_s keys.
        let mut pcts: Vec<(f64, f64)> = Vec::new();
        for (k, v) in values {
            let Some(rest) = k.strip_prefix('p') else {
                continue;
            };
            let Some(num) = rest.strip_suffix("_latency_s") else {
                continue;
            };
            let p: f64 = num
                .parse()
                .map_err(|_| format!("row {i}: malformed percentile key {k:?}"))?;
            let lat = v.as_f64().ok_or(format!("row {i}: {k:?} not a number"))?;
            if lat < 0.0 {
                return Err(format!("row {i}: {k:?} is negative ({lat})"));
            }
            pcts.push((p, lat));
        }
        if pcts.is_empty() {
            continue;
        }
        carrying += 1;
        pcts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite percentile"));
        for pair in pcts.windows(2) {
            let ((lo_p, lo), (hi_p, hi)) = (pair[0], pair[1]);
            if lo > hi {
                return Err(format!(
                    "row {i}: p{lo_p} latency {lo} exceeds p{hi_p} latency {hi}"
                ));
            }
        }
    }
    Ok(carrying)
}

/// Validates the shape of a chrome://tracing document as produced by
/// [`gpu_sim::chrome_trace`]: a `traceEvents` array whose `"X"` events
/// carry `name`/`pid`/`tid`/`ts`/`dur` (with `ts`/`dur` finite and
/// non-negative) and whose `"M"` events carry `name`/`pid`.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing \"ph\""))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        if ev.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i}: missing \"pid\""));
        }
        if ph == "X" {
            if ev.get("tid").and_then(Json::as_f64).is_none() {
                return Err(format!("event {i}: missing \"tid\""));
            }
            for key in ["ts", "dur"] {
                match ev.get(key).and_then(Json::as_f64) {
                    Some(n) if n.is_finite() && n >= 0.0 => {}
                    _ => {
                        return Err(format!(
                            "event {i}: {key:?} is not a finite non-negative number"
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Cross-counter invariants for serving-layer `metrics.v1` documents
/// (DESIGN §14). The engine and fleet counters are not independent:
/// every arrival is either served or typed-shed, the typed shed
/// reasons partition the rejected total, and only served requests can
/// be degraded. Each check only fires when the counters involved are
/// all present, so non-serving registries validate unchanged.
fn validate_serving_counters(counts: &std::collections::BTreeMap<&str, u64>) -> Result<(), String> {
    let conservation = [
        // (arrived, served, rejected) triples for the engine and fleet.
        (
            "serve.requests_arrived_total",
            "serve.requests_served_total",
            "serve.requests_rejected_total",
        ),
        (
            "serve.fleet.requests_arrived_total",
            "serve.fleet.requests_served_total",
            "serve.fleet.requests_shed_total",
        ),
        // WAL ingest (DESIGN §16): every appended record is either
        // applied or typed-rejected, and the applied records partition
        // into inserts and deletes.
        (
            "wal.records_appended_total",
            "wal.records_applied_total",
            "wal.records_rejected_total",
        ),
        (
            "wal.records_applied_total",
            "wal.inserts_total",
            "wal.deletes_total",
        ),
    ];
    for (arrived, served, rejected) in conservation {
        if let (Some(&a), Some(&s), Some(&r)) = (
            counts.get(arrived),
            counts.get(served),
            counts.get(rejected),
        ) {
            if a != s + r {
                return Err(format!(
                    "counter {arrived:?} is {a} but {served:?} + {rejected:?} is {}",
                    s + r
                ));
            }
        }
    }
    if let Some(&rejected) = counts.get("serve.requests_rejected_total") {
        let shed: u64 = counts
            .iter()
            .filter(|(k, _)| k.starts_with("serve.shed_") && k.ends_with("_total"))
            .map(|(_, &v)| v)
            .sum();
        if shed != rejected {
            return Err(format!(
                "serve.shed_*_total counters sum to {shed}, \
                 \"serve.requests_rejected_total\" says {rejected}"
            ));
        }
    }
    let degrade_caps = [
        (
            "serve.degraded_requests_total",
            "serve.requests_served_total",
        ),
        (
            "serve.fleet.degraded_requests_total",
            "serve.fleet.requests_served_total",
        ),
        (
            "serve.fleet.chaos_windows_total",
            "serve.fleet.windows_total",
        ),
        // Compaction (DESIGN §16): a compaction lands at most once per
        // start, starts only on a WAL write, and the fresh segment is
        // scanned at most once per served batch.
        ("compact.completed_total", "compact.started_total"),
        ("compact.started_total", "wal.records_appended_total"),
        ("wal.fresh_scans_total", "serve.batches_total"),
    ];
    for (part, whole) in degrade_caps {
        if let (Some(&p), Some(&w)) = (counts.get(part), counts.get(whole)) {
            if p > w {
                return Err(format!("counter {part:?} ({p}) exceeds {whole:?} ({w})"));
            }
        }
    }
    // Fleet per-window cumulative shed series:
    // `serve.fleet.run<RRR>.w<WWWW>.shed_<reason>_total`. Each
    // (run, reason) series must be monotone non-decreasing in window
    // order — a cumulative counter that ever decreased would mean a
    // window un-shed a request — and the final window's cumulative
    // values, summed across runs and reasons, must reconcile with the
    // all-runs `serve.fleet.requests_shed_total`.
    let mut series: std::collections::BTreeMap<(&str, &str), Vec<(&str, u64)>> =
        std::collections::BTreeMap::new();
    for (k, &v) in counts {
        let Some(rest) = k.strip_prefix("serve.fleet.run") else {
            continue;
        };
        let Some((run, rest)) = rest.split_once(".w") else {
            continue;
        };
        let Some((window, rest)) = rest.split_once(".shed_") else {
            continue;
        };
        let Some(reason) = rest.strip_suffix("_total") else {
            continue;
        };
        // BTreeMap iteration is sorted and window tags are zero-padded,
        // so each series arrives in window order.
        series.entry((run, reason)).or_default().push((window, v));
    }
    for ((run, reason), points) in &series {
        for pair in points.windows(2) {
            let ((w0, v0), (w1, v1)) = (pair[0], pair[1]);
            if v1 < v0 {
                return Err(format!(
                    "fleet shed series run{run} {reason:?} is not monotone: \
                     w{w0} has {v0}, w{w1} has {v1}"
                ));
            }
        }
    }
    if !series.is_empty() {
        if let Some(&total) = counts.get("serve.fleet.requests_shed_total") {
            let last_sum: u64 = series
                .values()
                .map(|points| points.last().map_or(0, |&(_, v)| v))
                .sum();
            if last_sum != total {
                return Err(format!(
                    "fleet shed series final cumulative values sum to {last_sum}, \
                     \"serve.fleet.requests_shed_total\" says {total}"
                ));
            }
        }
    }
    Ok(())
}

/// Validates a `metrics.v1` document as produced by the serving
/// layer's `MetricsSnapshot::to_json`: schema tag, non-empty name, a
/// `counters` object of non-negative integers, a `gauges` object of
/// finite numbers, and a `histograms` array where every entry carries
/// `name`/`count`/`sum`/`overflow`/`p50`/`p99` plus a `buckets` array
/// of `{i, le, count}` objects with strictly increasing indices and
/// edges whose counts (plus overflow) sum to `count`. Both object key
/// sets and the histogram names must be strictly sorted — the writer
/// is canonical, and canonical order is what makes snapshots
/// byte-comparable.
///
/// On top of the per-field shape checks, serving-layer counters are
/// held to their cross-counter invariants (see
/// [`validate_serving_counters`]): arrivals are conserved across
/// served + shed, typed shed reasons partition the rejected total, and
/// degraded/chaos counters never exceed the totals they are part of.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != "metrics.v1" {
        return Err(format!("schema {schema:?}, expected \"metrics.v1\""));
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing \"name\"")?;
    if name.is_empty() {
        return Err("empty \"name\"".to_string());
    }
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing \"counters\" object")?;
    let mut prev: Option<&str> = None;
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (k, v) in counters {
        if prev.is_some_and(|p| p >= k.as_str()) {
            return Err(format!("counters not strictly sorted at {k:?}"));
        }
        prev = Some(k);
        match v.as_f64() {
            Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => {
                counts.insert(k.as_str(), n as u64);
            }
            _ => return Err(format!("counter {k:?} is not a non-negative integer")),
        }
    }
    validate_serving_counters(&counts)?;
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("missing \"gauges\" object")?;
    let mut prev: Option<&str> = None;
    for (k, v) in gauges {
        if prev.is_some_and(|p| p >= k.as_str()) {
            return Err(format!("gauges not strictly sorted at {k:?}"));
        }
        prev = Some(k);
        match v.as_f64() {
            Some(n) if n.is_finite() => {}
            _ => return Err(format!("gauge {k:?} is not a finite number")),
        }
    }
    let hists = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .ok_or("missing \"histograms\" array")?;
    let mut prev_name: Option<String> = None;
    for (i, h) in hists.iter().enumerate() {
        let hname = h
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("histogram {i}: missing \"name\""))?;
        if prev_name.as_deref().is_some_and(|p| p >= hname) {
            return Err(format!("histograms not strictly sorted at {hname:?}"));
        }
        prev_name = Some(hname.to_string());
        let int_field = |key: &str| -> Result<u64, String> {
            match h.get(key).and_then(Json::as_f64) {
                Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
                _ => Err(format!(
                    "histogram {hname:?}: {key:?} is not a non-negative integer"
                )),
            }
        };
        let count = int_field("count")?;
        let overflow = int_field("overflow")?;
        for key in ["sum", "p50", "p99"] {
            match h.get(key).and_then(Json::as_f64) {
                Some(n) if n.is_finite() => {}
                _ => {
                    return Err(format!(
                        "histogram {hname:?}: {key:?} is not a finite number"
                    ))
                }
            }
        }
        let (p50, p99) = (
            h.get("p50").and_then(Json::as_f64).unwrap_or(0.0),
            h.get("p99").and_then(Json::as_f64).unwrap_or(0.0),
        );
        if p50 > p99 {
            return Err(format!("histogram {hname:?}: p50 {p50} exceeds p99 {p99}"));
        }
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or(format!("histogram {hname:?}: missing \"buckets\" array"))?;
        let mut total = overflow;
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_i = -1i64;
        for (j, b) in buckets.iter().enumerate() {
            let idx = b
                .get("i")
                .and_then(Json::as_f64)
                .ok_or(format!("histogram {hname:?}: bucket {j} missing \"i\""))?;
            if (idx as i64) <= prev_i {
                return Err(format!(
                    "histogram {hname:?}: bucket indices not increasing at {j}"
                ));
            }
            prev_i = idx as i64;
            let le = b
                .get("le")
                .and_then(Json::as_f64)
                .ok_or(format!("histogram {hname:?}: bucket {j} missing \"le\""))?;
            if !le.is_finite() || le <= prev_le {
                return Err(format!(
                    "histogram {hname:?}: bucket edges not increasing at {j}"
                ));
            }
            prev_le = le;
            match b.get("count").and_then(Json::as_f64) {
                Some(n) if n.is_finite() && n >= 1.0 && n.fract() == 0.0 => total += n as u64,
                _ => {
                    return Err(format!(
                        "histogram {hname:?}: bucket {j} count is not a positive integer"
                    ))
                }
            }
        }
        if total != count {
            return Err(format!(
                "histogram {hname:?}: bucket counts sum to {total}, count says {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut rep = BenchReport::new("unit_test");
        rep.push(
            MetricRow::new()
                .label("dataset", "toy")
                .label("strategy", "hybrid")
                .value("sim_seconds", 0.25)
                .value("effective_issues", 1234.0),
        );
        rep.push(MetricRow::new().label("note", "empty-values"));
        rep
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let text = sample().to_json();
        validate_report(&text).expect("valid");
        let doc = Json::parse(&text).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0]
                .get("values")
                .and_then(|v| v.get("sim_seconds"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
    }

    #[test]
    fn counters_rows_carry_every_field() {
        let c = Counters {
            issues: 10,
            barriers: 3,
            global_bytes_unique: 7,
            ..Default::default()
        };
        let row = MetricRow::new().counters(&c);
        let keys: Vec<&str> = row.values.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "issues",
            "effective_issues",
            "global_bytes_unique",
            "barriers",
            "atomic_conflict_extra",
        ] {
            assert!(keys.contains(&want), "missing {want}");
        }
        assert_eq!(row.values.len(), 12);
    }

    #[test]
    fn strings_with_specials_survive_the_round_trip() {
        let mut rep = BenchReport::new("quote\"and\\slash");
        rep.push(MetricRow::new().label("k\n", "v\t").value("x", -1.5e-3));
        let text = rep.to_json();
        validate_report(&text).expect("valid");
        let doc = Json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("quote\"and\\slash")
        );
        let row = &doc.get("rows").and_then(Json::as_arr).expect("rows")[0];
        assert_eq!(
            row.get("labels")
                .and_then(|l| l.get("k\n"))
                .and_then(Json::as_str),
            Some("v\t")
        );
        assert_eq!(
            row.get("values")
                .and_then(|v| v.get("x"))
                .and_then(Json::as_f64),
            Some(-1.5e-3)
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_report("{}").is_err());
        assert!(validate_report("{\"schema\":\"bench.v2\",\"name\":\"x\",\"rows\":[]}").is_err());
        assert!(validate_report("{\"schema\":\"bench.v1\",\"name\":\"\",\"rows\":[]}").is_err());
        assert!(validate_report(
            "{\"schema\":\"bench.v1\",\"name\":\"x\",\"rows\":[{\"labels\":{},\"values\":{\"a\":\"nan\"}}]}"
        )
        .is_err());
        assert!(validate_report("{\"schema\":\"bench.v1\",\"name\":\"x\",\"rows\":[]}").is_ok());
    }

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
    fn latency_percentile_validator_enforces_order_and_sign() {
        let mk = |p50: f64, p99: f64| {
            let mut rep = BenchReport::new("serve");
            rep.push(
                MetricRow::new()
                    .label("mode", "cached")
                    .value("p50_latency_s", p50)
                    .value("p99_latency_s", p99)
                    .value("qps", 1000.0),
            );
            rep.push(
                MetricRow::new()
                    .label("mode", "speedup")
                    .value("qps_speedup", 2.0),
            );
            rep.to_json()
        };
        assert_eq!(validate_latency_percentiles(&mk(1e-5, 4e-5)), Ok(1));
        assert_eq!(validate_latency_percentiles(&mk(1e-5, 1e-5)), Ok(1));
        assert!(validate_latency_percentiles(&mk(4e-5, 1e-5))
            .unwrap_err()
            .contains("exceeds"));
        assert!(validate_latency_percentiles(&mk(-1e-5, 1e-5))
            .unwrap_err()
            .contains("negative"));
        // Rows without percentile keys are not counted and not checked.
        let plain = sample().to_json();
        assert_eq!(validate_latency_percentiles(&plain), Ok(0));
    }

    #[test]
    fn chrome_trace_validator_checks_event_shape() {
        let good = "{\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"k\"}},\
            {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"scan\",\"ts\":0.0,\"dur\":2.5}\
        ],\"displayTimeUnit\":\"ms\"}";
        validate_chrome_trace(good).expect("valid");
        let missing_dur = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"scan\",\"ts\":0.0}]}";
        assert!(validate_chrome_trace(missing_dur).is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
    }

    #[test]
    fn write_is_self_validating() {
        let dir = std::env::temp_dir().join("bench_report_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.json");
        sample().write(path.to_str().expect("utf8"));
        let text = std::fs::read_to_string(&path).expect("written");
        validate_report(&text).expect("valid on disk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_panic_instead_of_corrupting() {
        let mut rep = BenchReport::new("bad");
        rep.push(MetricRow::new().value("x", f64::NAN));
        let _ = rep.to_json();
    }

    #[test]
    fn metrics_validator_accepts_canonical_documents() {
        let good = "{\"schema\":\"metrics.v1\",\"name\":\"unit\",\
            \"counters\":{\"a_total\":2,\"b_total\":0},\
            \"gauges\":{\"qps\":12.5},\
            \"histograms\":[{\"name\":\"lat\",\"count\":3,\"sum\":0.5,\
            \"overflow\":1,\"p50\":1e-7,\"p99\":2e-7,\
            \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":1},\
            {\"i\":4,\"le\":2e-7,\"count\":1}]}]}";
        validate_metrics(good).expect("valid");
    }

    #[test]
    fn metrics_validator_enforces_serving_counter_invariants() {
        // Conservation: arrived != served + rejected.
        let unbalanced = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":1,\
            \"serve.requests_served_total\":8},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unbalanced)
            .unwrap_err()
            .contains("serve.requests_arrived_total"));
        // Typed shed reasons must partition the rejected total.
        let shed_mismatch = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":3,\
            \"serve.requests_served_total\":7,\
            \"serve.shed_queue_full_total\":1,\
            \"serve.shed_rate_limit_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(shed_mismatch)
            .unwrap_err()
            .contains("shed"));
        // Only served requests can be degraded.
        let over_degraded = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.degraded_requests_total\":9,\
            \"serve.requests_served_total\":7},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(over_degraded)
            .unwrap_err()
            .contains("serve.degraded_requests_total"));
        // Fleet: chaos windows are a subset of all windows.
        let chaos_overflow = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.fleet.chaos_windows_total\":5,\
            \"serve.fleet.windows_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(chaos_overflow)
            .unwrap_err()
            .contains("serve.fleet.chaos_windows_total"));
        // A consistent serving document still validates.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.degraded_requests_total\":2,\
            \"serve.fleet.chaos_windows_total\":2,\
            \"serve.fleet.windows_total\":4,\
            \"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":3,\
            \"serve.requests_served_total\":7,\
            \"serve.shed_queue_full_total\":1,\
            \"serve.shed_rate_limit_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent serving counters");
    }

    #[test]
    fn metrics_validator_enforces_wal_and_compaction_invariants() {
        // Appended records must partition into applied + rejected.
        let leaky_log = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"wal.records_appended_total\":10,\
            \"wal.records_applied_total\":8,\
            \"wal.records_rejected_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(leaky_log)
            .unwrap_err()
            .contains("wal.records_appended_total"));
        // Applied records must partition into inserts + deletes.
        let phantom_op = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"wal.deletes_total\":2,\
            \"wal.inserts_total\":5,\
            \"wal.records_applied_total\":8},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(phantom_op)
            .unwrap_err()
            .contains("wal.records_applied_total"));
        // A compaction cannot land more often than it started.
        let ghost_compaction = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.completed_total\":3,\
            \"compact.started_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(ghost_compaction)
            .unwrap_err()
            .contains("compact.completed_total"));
        // Compactions start on writes; fresh scans happen per batch.
        let eager_compactor = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.started_total\":5,\
            \"wal.records_appended_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(eager_compactor)
            .unwrap_err()
            .contains("compact.started_total"));
        let over_scanned = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.batches_total\":3,\
            \"wal.fresh_scans_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(over_scanned)
            .unwrap_err()
            .contains("wal.fresh_scans_total"));
        // A consistent ingest document still validates.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.completed_total\":1,\
            \"compact.started_total\":2,\
            \"serve.batches_total\":6,\
            \"wal.deletes_total\":3,\
            \"wal.fresh_scans_total\":5,\
            \"wal.inserts_total\":6,\
            \"wal.records_appended_total\":10,\
            \"wal.records_applied_total\":9,\
            \"wal.records_rejected_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent ingest counters");
    }

    #[test]
    fn metrics_validator_enforces_fleet_shed_series_invariants() {
        // A cumulative per-window series that ever decreases is broken.
        let non_monotone = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":2,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":3,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(non_monotone)
            .unwrap_err()
            .contains("not monotone"));
        // Final cumulative values must reconcile with the shed total.
        let unreconciled = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":3,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":1,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unreconciled)
            .unwrap_err()
            .contains("requests_shed_total"));
        // Monotone series summing (across runs and reasons) to the
        // total validate; runs with different window counts coexist.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":7,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":1,\
            \"serve.fleet.run000.w0000.shed_rate_limit_total\":0,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":2,\
            \"serve.fleet.run000.w0001.shed_rate_limit_total\":2,\
            \"serve.fleet.run001.w0000.shed_queue_full_total\":3},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent fleet shed series");
    }

    #[test]
    fn metrics_validator_rejects_structural_breakage() {
        let wrong_schema = "{\"schema\":\"bench.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let unsorted = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"b\":1,\"a\":1},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unsorted).unwrap_err().contains("sorted"));
        let fractional = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"a\":1.5},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(fractional)
            .unwrap_err()
            .contains("integer"));
        let bad_sum = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":5,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":2}]}]}";
        assert!(validate_metrics(bad_sum).unwrap_err().contains("sum to"));
        let bad_edges = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":2,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{\"i\":0,\"le\":2e-7,\"count\":1},\
            {\"i\":1,\"le\":1e-7,\"count\":1}]}]}";
        assert!(validate_metrics(bad_edges).unwrap_err().contains("edges"));
        let p_inverted = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":1,\"sum\":0.0,\
            \"overflow\":0,\"p50\":2.0,\"p99\":1.0,\
            \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":1}]}]}";
        assert!(validate_metrics(p_inverted)
            .unwrap_err()
            .contains("exceeds"));
    }
}
