//! Machine-readable benchmark output: the `bench.v1` JSON schema, its
//! self-validating writer, and its validating reader
//! ([`BenchReport::parse`], which `xtask`'s gates read rows through).
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

// The reader lives in `gpu_sim::json`; `bench::report::Json` stays a
// path for callers such as perfbench's self-test.
pub use gpu_sim::Json;

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

    /// The label named `key`, if the row carries one.
    pub fn find_label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value named `key`, if the row carries one.
    pub fn find_value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Reads one row object: a string→string `labels` object and a
    /// string→finite-number `values` object.
    fn from_json(row: &Json) -> Result<MetricRow, String> {
        let labels = row
            .obj_field("labels")?
            .iter()
            .map(|(k, v)| match v.as_str() {
                Some(s) => Ok((k.clone(), s.to_string())),
                None => Err(format!("label {k:?} is not a string")),
            })
            .collect::<Result<_, String>>()?;
        let values = row
            .obj_field("values")?
            .iter()
            .map(|(k, v)| match v.as_finite() {
                Some(n) => Ok((k.clone(), n)),
                None => Err(format!("value {k:?} is not a finite number")),
            })
            .collect::<Result<_, String>>()?;
        Ok(MetricRow { labels, values })
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

    /// Parses and validates a `bench.v1` document: schema tag, non-empty
    /// name, and for every row a string→string `labels` object and a
    /// string→finite-number `values` object.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text)?;
        let name = doc.check_header(SCHEMA)?.to_string();
        let rows = doc
            .arr_field("rows")?
            .iter()
            .enumerate()
            .map(|(i, row)| MetricRow::from_json(row).map_err(|e| format!("row {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(BenchReport { name, rows })
    }

    /// Checks latency-percentile pairs: every row carrying a
    /// `p<N>_latency_s` value must keep its percentiles non-negative
    /// and monotone (`p50 <= p99`, and in general any lower percentile
    /// must not exceed a higher one). Returns how many rows carried
    /// percentiles.
    pub fn check_latency_percentiles(&self) -> Result<usize, String> {
        let mut carrying = 0usize;
        for (i, row) in self.rows.iter().enumerate() {
            // (percentile, value) pairs parsed out of p<N>_latency_s keys.
            let mut pcts: Vec<(f64, f64)> = Vec::new();
            for &(ref k, lat) in &row.values {
                let Some(num) = k
                    .strip_prefix('p')
                    .and_then(|rest| rest.strip_suffix("_latency_s"))
                else {
                    continue;
                };
                let p: f64 = num
                    .parse()
                    .map_err(|_| format!("row {i}: malformed percentile key {k:?}"))?;
                if lat < 0.0 {
                    return Err(format!("row {i}: {k:?} is negative ({lat})"));
                }
                pcts.push((p, lat));
            }
            if pcts.is_empty() {
                continue;
            }
            carrying += 1;
            pcts.sort_by(|a, b| a.0.total_cmp(&b.0));
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

/// Validates a `bench.v1` document (see [`BenchReport::parse`]).
pub fn validate_report(text: &str) -> Result<(), String> {
    BenchReport::parse(text).map(drop)
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
        let r = sample();
        let text = r.to_json();
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
        assert_eq!(BenchReport::parse(&text), Ok(r));
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
        let back = BenchReport::parse(&rep.to_json()).expect("valid");
        assert_eq!(back.name, "quote\"and\\slash");
        assert_eq!(back.rows[0].find_label("k\n"), Some("v\t"));
        assert_eq!(back.rows[0].find_value("x"), Some(-1.5e-3));
        assert_eq!(back, rep);
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
            rep
        };
        assert_eq!(mk(1e-5, 4e-5).check_latency_percentiles(), Ok(1));
        assert_eq!(mk(1e-5, 1e-5).check_latency_percentiles(), Ok(1));
        assert!(mk(4e-5, 1e-5)
            .check_latency_percentiles()
            .unwrap_err()
            .contains("exceeds"));
        assert!(mk(-1e-5, 1e-5)
            .check_latency_percentiles()
            .unwrap_err()
            .contains("negative"));
        // Rows without percentile keys are not counted and not checked.
        assert_eq!(sample().check_latency_percentiles(), Ok(0));
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
}
