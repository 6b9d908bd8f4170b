//! `xtask analyze` — the control-flow-aware kernel analyzer.
//!
//! Successor to the old `lint_kernels` line matcher: a lexer-lite token
//! stream ([`lexer`]) feeds a brace/branch scope tracker ([`scope`])
//! whose [`scope::FileModel`] the rule registry ([`rules`]) queries.
//! Findings are typed [`diag::Diagnostic`]s, rendered as human text and
//! as a `diag.v1` JSON document ([`diag`]), and gated against the
//! committed suppression baseline ([`baseline`]).
//!
//! Scan set: every `.rs` file under `crates/kernels/src` plus the
//! cost-model-bearing simulator primitives and collections
//! (`crates/gpu-sim/src/prims`, `crates/gpu-sim/src/collections`) —
//! the code whose honesty the counters, determinism contract
//! (DESIGN.md §10), and resilience cascade (§9) depend on.
//!
//! A second, lighter scan set covers the serving path
//! ([`SPAN_SCAN_ROOTS`]: `crates/serve/src`, `crates/neighbors/src`)
//! with only the span-lifecycle rule ([`rules::run_span_rules`]) — the
//! kernel rules would false-positive all over legitimate host code
//! there. The rule is deny severity like the rest: with admission
//! control shedding requests on purpose, an unterminated span would
//! silently drop a request from the trace, so it gates against the same
//! committed baseline (DESIGN.md §13–§14).

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::fs;
use std::path::{Path, PathBuf};

use diag::Diagnostic;

/// Workspace-relative directories the analyzer scans with the full
/// kernel rule set.
pub const SCAN_ROOTS: [&str; 3] = [
    "crates/kernels/src",
    "crates/gpu-sim/src/prims",
    "crates/gpu-sim/src/collections",
];

/// Workspace-relative directories scanned with only the serving-path
/// span-lifecycle rules ([`rules::run_span_rules`]). Absent roots are
/// skipped silently: fixture trees and partial checkouts need not carry
/// a serving layer.
pub const SPAN_SCAN_ROOTS: [&str; 2] = ["crates/serve/src", "crates/neighbors/src"];

/// The result of analyzing a source tree.
#[derive(Debug)]
pub struct Analysis {
    /// How many files were scanned.
    pub files_scanned: usize,
    /// All findings, ordered by (file, line, col).
    pub findings: Vec<Diagnostic>,
}

/// Collects the `.rs` files of one directory tree, sorted.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs every rule over the scan set rooted at the workspace `root`.
///
/// Fails when the scan set is empty (a wrong `--root` must not pass as
/// a clean run) or a source file cannot be read.
pub fn analyze_root(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        collect_rs_files(&root.join(sub), &mut files);
    }
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no sources found under {} (scan roots: {})",
            root.display(),
            SCAN_ROOTS.join(", ")
        ));
    }
    let mut span_files = Vec::new();
    for sub in SPAN_SCAN_ROOTS {
        collect_rs_files(&root.join(sub), &mut span_files);
    }
    span_files.sort();

    let mut findings: Vec<Diagnostic> = Vec::new();
    type Runner = fn(&str, &str) -> Vec<Diagnostic>;
    for (paths, runner) in [
        (&files, rules::run_rules as Runner),
        (&span_files, rules::run_span_rules as Runner),
    ] {
        for path in paths {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(path);
            // Forward slashes keep fingerprints and baselines portable
            // across platforms.
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            findings.extend(runner(&rel, &text));
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(Analysis {
        files_scanned: files.len() + span_files.len(),
        findings,
    })
}
