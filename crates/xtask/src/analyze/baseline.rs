//! The committed suppression baseline.
//!
//! `experiments_output/ANALYZE_baseline.json` is a `diag.v1` document
//! (name `analyze_baseline`) recording the findings the repo has
//! accepted — the mechanism that let the once-warn-only
//! `unranged-phase`, `panic-path`, and `dropped-span` rules become
//! deny: pre-existing findings ride, anything new fails CI. Mirrors the `compare_bench` baseline workflow:
//! `--write-baseline` refreshes the file (via
//! `scripts/update_baselines.sh`), and the committed diff is
//! reviewed like any other code change.
//!
//! Matching is a multiset over `(rule, file, fingerprint)` — the
//! fingerprint hashes the flagged line's *text*, so entries survive
//! code moving within a file but die with the code they excused. A
//! baseline entry with no live finding is *stale* and fails the gate
//! too: an obsolete exemption must be removed, not silently kept around
//! to cover some future regression (the analog of `compare_bench`
//! failing on unexplained improvements).

use std::collections::BTreeMap;
use std::fs;

use super::diag::{DiagReport, Diagnostic};

/// One baseline entry's identity.
type Key = (String, String, String); // (rule, file, fingerprint)

/// A loaded baseline: multiset of accepted finding identities.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: BTreeMap<Key, usize>,
}

/// A baseline entry with no matching live finding.
#[derive(Debug)]
pub struct StaleEntry {
    /// Rule of the orphaned entry.
    pub rule: String,
    /// File of the orphaned entry.
    pub file: String,
    /// Fingerprint of the orphaned entry.
    pub fingerprint: String,
}

impl Baseline {
    /// Loads and validates a baseline file.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let report = DiagReport::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut counts = BTreeMap::new();
        for d in report.findings {
            *counts.entry((d.rule, d.file, d.fingerprint)).or_insert(0) += 1;
        }
        Ok(Baseline { counts })
    }

    /// Marks findings covered by this baseline (consuming entries, so
    /// N accepted occurrences cover at most N live ones) and returns
    /// the entries left unconsumed — the stale ones.
    pub fn apply(&self, findings: &mut [Diagnostic]) -> Vec<StaleEntry> {
        let mut remaining = self.counts.clone();
        for d in findings.iter_mut() {
            let key = (d.rule.clone(), d.file.clone(), d.fingerprint.clone());
            if let Some(n) = remaining.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    d.baselined = true;
                }
            }
        }
        remaining
            .into_iter()
            .flat_map(|((rule, file, fingerprint), n)| {
                std::iter::repeat_with(move || StaleEntry {
                    rule: rule.clone(),
                    file: file.clone(),
                    fingerprint: fingerprint.clone(),
                })
                .take(n)
            })
            .collect()
    }
}

/// Writes the current findings as a fresh baseline (everything marked
/// baselined, since committing the file is the act of accepting them)
/// and returns `true`, unless the baseline already at `path` covers the
/// findings exactly — every finding baselined, no stale entry — in which
/// case the file is left untouched and the result is `false`. The gate
/// matches by `(rule, file, fingerprint)`, so line, column and
/// `files_scanned` moving alone never churn the committed file.
/// An empty findings set writes an empty — but valid — document, so a
/// fully clean repo keeps a committed baseline for the gate to diff
/// against.
pub fn write_baseline(path: &str, findings: &[Diagnostic], files_scanned: usize) -> bool {
    if let Ok(base) = Baseline::load(path) {
        let mut live = findings.to_vec();
        if base.apply(&mut live).is_empty() && live.iter().all(|d| d.baselined) {
            return false;
        }
    }
    let findings = findings
        .iter()
        .map(|d| Diagnostic {
            baselined: true,
            ..d.clone()
        })
        .collect();
    DiagReport {
        name: "analyze_baseline".to_string(),
        files_scanned,
        stale_baseline: 0,
        findings,
    }
    .write(path);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::diag::{fingerprint, Severity};

    fn finding(rule: &'static str, file: &str, line_text: &str) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Deny,
            file: file.to_string(),
            line: 1,
            col: 1,
            message: "m".to_string(),
            help: "h".to_string(),
            fingerprint: fingerprint(rule, file, line_text),
            baselined: false,
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("analyze_baseline_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_str().expect("utf8").to_string()
    }

    #[test]
    fn round_trip_covers_matching_findings_only() {
        let path = tmp("rt.json");
        let committed = vec![
            finding("uncosted-smem", "a.rs", "x.read(0);"),
            finding("panic-path", "b.rs", "x.unwrap();"),
        ];
        write_baseline(&path, &committed, 2);

        let base = Baseline::load(&path).expect("loads");
        let mut live = vec![
            finding("uncosted-smem", "a.rs", "x.read(0);"),
            finding("panic-path", "b.rs", "y.unwrap();"), // different line text
        ];
        let stale = base.apply(&mut live);
        assert!(live[0].baselined);
        assert!(!live[1].baselined);
        // The old b.rs entry no longer matches anything: stale.
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "panic-path");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multiset_matching_consumes_entries() {
        let path = tmp("multi.json");
        // One accepted occurrence…
        write_baseline(&path, &[finding("uncosted-smem", "a.rs", "x.read(0);")], 1);
        let base = Baseline::load(&path).expect("loads");
        // …cannot cover two identical live findings.
        let mut live = vec![
            finding("uncosted-smem", "a.rs", "x.read(0);"),
            finding("uncosted-smem", "a.rs", "x.read(0);"),
        ];
        let stale = base.apply(&mut live);
        assert!(stale.is_empty());
        assert_eq!(live.iter().filter(|d| d.baselined).count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_baseline_is_valid_and_covers_nothing() {
        let path = tmp("empty.json");
        write_baseline(&path, &[], 5);
        let base = Baseline::load(&path).expect("loads");
        let mut live = vec![finding("uncosted-smem", "a.rs", "x.read(0);")];
        let stale = base.apply(&mut live);
        assert!(stale.is_empty());
        assert!(!live[0].baselined);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_findings_leave_the_file_untouched() {
        let path = tmp("untouched.json");
        let _ = std::fs::remove_file(&path);
        let committed = vec![
            finding("uncosted-smem", "a.rs", "x.read(0);"),
            finding("panic-path", "b.rs", "x.unwrap();"),
        ];
        assert!(write_baseline(&path, &committed, 2));
        let bytes = std::fs::read(&path).expect("read");
        // Code moved above both findings and a file was added.
        let shifted: Vec<Diagnostic> = committed
            .iter()
            .map(|d| Diagnostic {
                line: d.line + 16,
                col: d.col + 4,
                ..d.clone()
            })
            .collect();
        assert!(!write_baseline(&path, &shifted, 3));
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        // A removed finding leaves a stale entry: the file is rewritten.
        assert!(write_baseline(&path, &shifted[..1], 3));
        let base = Baseline::load(&path).expect("loads");
        let mut live = shifted.clone();
        assert!(base.apply(&mut live).is_empty());
        assert!(live[0].baselined && !live[1].baselined);
        // A new finding is not covered: rewritten too.
        assert!(write_baseline(&path, &shifted, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_baseline_is_rejected() {
        let path = tmp("bad.json");
        std::fs::write(&path, "{\"schema\":\"bench.v1\"}").expect("write");
        assert!(Baseline::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
