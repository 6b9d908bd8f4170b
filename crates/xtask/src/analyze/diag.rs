//! Typed diagnostics and the `diag.v1` report format.
//!
//! Mirrors `bench.v1` (`crates/bench/src/report.rs`): a hand-written
//! writer, a validating reader ([`DiagReport::parse`], which the
//! suppression baseline loads through and [`validate_diag`] wraps),
//! and a self-validating [`DiagReport::write`] that re-parses its own
//! rendering before touching disk — the analyzer must not exit zero
//! after emitting a document its CI consumers will reject.
//!
//! Document shape:
//!
//! ```text
//! {"schema":"diag.v1","name":"analyze",
//!  "findings":[{"rule":"uncosted-smem","severity":"deny",
//!               "file":"crates/kernels/src/foo.rs","line":12,"col":9,
//!               "message":"…","help":"…",
//!               "fingerprint":"a1b2c3d4e5f60718","baselined":false}, …],
//!  "summary":{"files_scanned":14,"findings":2,"baselined":2,
//!             "fresh":0,"stale_baseline":0}}
//! ```
//!
//! `fingerprint` identifies a finding across unrelated edits: it hashes
//! the rule, the file, and the whitespace-normalized *text* of the
//! flagged line — not the line number — so findings survive code moving
//! up or down a file but die with the code they describe. The committed
//! suppression baseline matches on it (see [`super::baseline`]).

use bench::{json_escape, Json};
use std::fmt;

/// Schema tag carried by every document this module writes.
pub const SCHEMA: &str = "diag.v1";

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported but never fails the gate.
    Warn,
    /// Fails the gate unless baselined or inside an allow region.
    Deny,
}

impl Severity {
    /// The schema string for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a schema string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule name (kebab-case, e.g. `barrier-divergence`).
    pub rule: String,
    /// Gate behaviour.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or opt out.
    pub help: String,
    /// Content-addressed identity (see [`fingerprint`]).
    pub fingerprint: String,
    /// True when matched by the committed suppression baseline.
    pub baselined: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: [{}] {}\n    help: {}",
            self.severity.as_str(),
            self.file,
            self.line,
            self.col,
            self.rule,
            self.message,
            self.help
        )
    }
}

/// FNV-1a 64-bit over `rule | file | normalized line text`, rendered as
/// 16 hex digits. The line text is whitespace-normalized (runs of
/// whitespace collapse to one space, ends trimmed) so reindenting does
/// not orphan baseline entries.
pub fn fingerprint(rule: &str, file: &str, line_text: &str) -> String {
    let mut norm = String::with_capacity(line_text.len());
    let mut in_ws = true; // leading whitespace drops
    for c in line_text.chars() {
        if c.is_whitespace() {
            if !in_ws {
                norm.push(' ');
                in_ws = true;
            }
        } else {
            norm.push(c);
            in_ws = false;
        }
    }
    let norm = norm.trim_end();

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for bytes in [
        rule.as_bytes(),
        b"|",
        file.as_bytes(),
        b"|",
        norm.as_bytes(),
    ] {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// A full `diag.v1` document ready to render.
#[derive(Debug, PartialEq)]
pub struct DiagReport {
    /// Document name (`analyze` for live runs, `analyze_baseline` for
    /// the committed suppression file).
    pub name: String,
    /// How many files the run scanned.
    pub files_scanned: usize,
    /// Baseline entries with no matching finding in this run.
    pub stale_baseline: usize,
    /// The findings, in (file, line, col) order.
    pub findings: Vec<Diagnostic>,
}

impl DiagReport {
    /// Findings not covered by the baseline.
    pub fn fresh(&self) -> usize {
        self.findings.iter().filter(|d| !d.baselined).count()
    }

    /// Renders the document as `diag.v1` JSON.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"name\":\"{}\",\"findings\":[",
            SCHEMA,
            json_escape(&self.name)
        );
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\
                 \"line\":{},\"col\":{},\"message\":\"{}\",\"help\":\"{}\",\
                 \"fingerprint\":\"{}\",\"baselined\":{}}}",
                json_escape(&d.rule),
                d.severity.as_str(),
                json_escape(&d.file),
                d.line,
                d.col,
                json_escape(&d.message),
                json_escape(&d.help),
                json_escape(&d.fingerprint),
                d.baselined
            );
        }
        let baselined = self.findings.len() - self.fresh();
        let _ = write!(
            out,
            "\n],\"summary\":{{\"files_scanned\":{},\"findings\":{},\
             \"baselined\":{},\"fresh\":{},\"stale_baseline\":{}}}}}\n",
            self.files_scanned,
            self.findings.len(),
            baselined,
            self.fresh(),
            self.stale_baseline
        );
        out
    }

    /// Renders, re-parses, validates, and only then writes the document.
    ///
    /// # Panics
    ///
    /// Panics when the rendering fails its own schema validation (a bug
    /// in the analyzer) or the file cannot be written — the gate must
    /// not exit zero after emitting a document `check_bench_json` will
    /// reject.
    pub fn write(&self, path: &str) {
        let text = self.to_json();
        if let Err(e) = validate_diag(&text) {
            panic!("diag report {path:?} failed self-validation: {e}");
        }
        if let Err(e) = std::fs::write(path, &text) {
            panic!("cannot write diag report {path:?}: {e}");
        }
    }

    /// Parses and validates a `diag.v1` document: schema/name present,
    /// every finding fully typed, and the summary arithmetic consistent
    /// with the findings array.
    pub fn parse(text: &str) -> Result<DiagReport, String> {
        let doc = Json::parse(text)?;
        let name = doc.check_header(SCHEMA)?.to_string();
        let findings: Vec<Diagnostic> = doc
            .arr_field("findings")?
            .iter()
            .enumerate()
            .map(|(i, f)| Diagnostic::from_json(f).map_err(|e| format!("finding #{i}: {e}")))
            .collect::<Result<_, _>>()?;
        let summary = doc.field("summary")?;
        let count = |key: &str| summary.u64_field(key).map_err(|e| format!("summary: {e}"));
        let total = findings.len() as u64;
        let baselined = findings.iter().filter(|d| d.baselined).count() as u64;
        for (key, want) in [
            ("findings", total),
            ("baselined", baselined),
            ("fresh", total - baselined),
        ] {
            if count(key)? != want {
                return Err(format!("summary {key:?} disagrees with the findings array"));
            }
        }
        Ok(DiagReport {
            name,
            files_scanned: count("files_scanned")? as usize,
            stale_baseline: count("stale_baseline")? as usize,
            findings,
        })
    }
}

/// Validates a `diag.v1` document (see [`DiagReport::parse`]).
pub fn validate_diag(text: &str) -> Result<(), String> {
    DiagReport::parse(text).map(drop)
}

impl Diagnostic {
    /// Reads one `findings` entry: known severity, non-empty rule and
    /// file, positive line/col, 16-hex fingerprint, boolean `baselined`.
    fn from_json(f: &Json) -> Result<Diagnostic, String> {
        let nonempty = |key: &str| match f.str_field(key)? {
            "" => Err(format!("empty {key:?}")),
            s => Ok(s.to_string()),
        };
        let position = |key: &str| match f.u64_field(key)? {
            0 => Err(format!("{key:?} must be a positive integer")),
            v => u32::try_from(v).map_err(|_| format!("{key:?} {v} is out of range")),
        };
        let rule = nonempty("rule")?;
        let sev = f.str_field("severity")?;
        let severity = Severity::parse(sev).ok_or(format!("unknown severity {sev:?}"))?;
        let file = nonempty("file")?;
        let (line, col) = (position("line")?, position("col")?);
        let message = f.str_field("message")?.to_string();
        let help = f.str_field("help")?.to_string();
        let fingerprint = f.str_field("fingerprint")?.to_string();
        if fingerprint.len() != 16 || !fingerprint.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!("fingerprint {fingerprint:?} is not 16 hex digits"));
        }
        let baselined = f.bool_field("baselined")?;
        Ok(Diagnostic {
            rule,
            severity,
            file,
            line,
            col,
            message,
            help,
            fingerprint,
            baselined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiagReport {
        DiagReport {
            name: "analyze".to_string(),
            files_scanned: 3,
            stale_baseline: 0,
            findings: vec![Diagnostic {
                rule: "uncosted-smem".to_string(),
                severity: Severity::Deny,
                file: "crates/kernels/src/foo.rs".to_string(),
                line: 12,
                col: 9,
                message: "raw `read` bypasses the cost model".to_string(),
                help: "use a WarpCtx collective or a \"documented\" region".to_string(),
                fingerprint: fingerprint("uncosted-smem", "foo.rs", "x.read(0);"),
                baselined: true,
            }],
        }
    }

    #[test]
    fn render_round_trips_and_validates() {
        let text = sample().to_json();
        validate_diag(&text).expect("valid");
        assert_eq!(DiagReport::parse(&text), Ok(sample()));
        let doc = Json::parse(&text).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let findings = doc.get("findings").and_then(Json::as_arr).expect("arr");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("help").and_then(Json::as_str),
            Some("use a WarpCtx collective or a \"documented\" region")
        );
    }

    #[test]
    fn fingerprint_ignores_position_but_not_content() {
        let a = fingerprint("r", "f.rs", "    x.read(0);");
        let b = fingerprint("r", "f.rs", "x.read(0);  ");
        let c = fingerprint("r", "f.rs", "x.read(1);");
        let d = fingerprint("other", "f.rs", "x.read(0);");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn summary_mismatch_is_rejected() {
        let mut text = sample().to_json();
        text = text.replace("\"fresh\":0", "\"fresh\":5");
        assert!(validate_diag(&text).is_err());
    }

    #[test]
    fn bad_fingerprint_is_rejected() {
        let mut rep = sample();
        rep.findings[0].fingerprint = "nothex".to_string();
        assert!(validate_diag(&rep.to_json()).is_err());
    }

    #[test]
    fn write_is_self_validating() {
        let dir = std::env::temp_dir().join("diag_report_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.json");
        sample().write(path.to_str().expect("utf8"));
        let text = std::fs::read_to_string(&path).expect("written");
        validate_diag(&text).expect("valid on disk");
        std::fs::remove_file(&path).ok();
    }
}
