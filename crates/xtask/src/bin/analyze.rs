//! `analyze` — the CI gate for kernel-source static analysis.
//!
//! Runs every rule in [`xtask::analyze::rules::RULES`] over the scan
//! set, diffs the findings against the committed suppression baseline,
//! and fails on anything the baseline does not cover — in *either*
//! direction: a fresh finding means new questionable code, a stale
//! baseline entry means an exemption outlived the code it excused.
//! Only deny-severity findings gate; warn findings are printed and
//! recorded in the `diag.v1` document but never fail the run. Every
//! current rule — including the serving-path `dropped-span` rule — is
//! deny severity, so the warn tier is presently empty.
//!
//! Gate mode (the CI `checks` job):
//!
//! ```text
//! cargo run -p xtask --bin analyze -- --json target/analyze.json
//! ```
//!
//! Baseline-refresh mode (via `scripts/update_baselines.sh`), which
//! leaves the file untouched when it already covers the findings
//! exactly, so code moving above a baselined finding does not churn it:
//!
//! ```text
//! cargo run -p xtask --bin analyze -- --write-baseline
//! ```
//!
//! Flags: `--root <dir>` overrides the workspace root (defaults to two
//! levels above the xtask manifest), `--baseline <path>` overrides the
//! baseline location (defaults to
//! `<root>/experiments_output/ANALYZE_baseline.json`), `--json <path>`
//! writes the findings as a `diag.v1` document (validated by
//! `check_bench_json --diag` in CI). A missing baseline file is treated
//! as empty: every finding is then fresh, so deleting the committed
//! baseline cannot launder findings through the gate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::analyze::baseline::{write_baseline, Baseline};
use xtask::analyze::diag::{DiagReport, Severity};
use xtask::analyze::{analyze_root, rules::RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut write_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" | "--baseline" | "--json" => {
                let Some(operand) = args.get(i + 1) else {
                    eprintln!("error: {} expects an operand", args[i]);
                    return ExitCode::FAILURE;
                };
                match args[i].as_str() {
                    "--root" => root = Some(PathBuf::from(operand)),
                    "--baseline" => baseline_path = Some(operand.clone()),
                    _ => json_path = Some(operand.clone()),
                }
                i += 2;
            }
            "--write-baseline" => {
                write_mode = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    // crates/xtask -> workspace root is two levels up.
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(Path::parent)
            .expect("xtask sits two levels below the workspace root")
            .to_path_buf()
    });
    let baseline_path = baseline_path.unwrap_or_else(|| {
        root.join("experiments_output/ANALYZE_baseline.json")
            .to_string_lossy()
            .into_owned()
    });

    let mut analysis = match analyze_root(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if write_mode {
        let n = analysis.findings.len();
        if write_baseline(&baseline_path, &analysis.findings, analysis.files_scanned) {
            println!("analyze: wrote baseline {baseline_path} ({n} finding(s) accepted)");
        } else {
            println!(
                "analyze: baseline {baseline_path} already covers the {n} finding(s) exactly; \
                 left untouched"
            );
        }
        return ExitCode::SUCCESS;
    }

    let stale = if Path::new(&baseline_path).exists() {
        match Baseline::load(&baseline_path) {
            Ok(base) => base.apply(&mut analysis.findings),
            Err(e) => {
                eprintln!("analyze: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("note: no baseline at {baseline_path}; every finding counts as fresh");
        Vec::new()
    };

    for d in analysis.findings.iter().filter(|d| !d.baselined) {
        println!("{d}");
    }
    for s in &stale {
        println!(
            "stale: baseline entry [{}] {} ({}) matches no current finding; \
             refresh with scripts/update_baselines.sh and commit the diff",
            s.rule, s.file, s.fingerprint
        );
    }

    let report = DiagReport {
        name: "analyze".to_string(),
        files_scanned: analysis.files_scanned,
        stale_baseline: stale.len(),
        findings: analysis.findings,
    };
    if let Some(path) = &json_path {
        report.write(path);
    }

    let fresh = report.fresh();
    let fresh_deny = report
        .findings
        .iter()
        .filter(|d| !d.baselined && d.severity == Severity::Deny)
        .count();
    let baselined = report.findings.len() - fresh;
    println!(
        "analyze: {} files scanned, {} rules, {} finding(s) \
         ({baselined} baselined, {fresh} fresh of which {fresh_deny} deny, \
         {} stale baseline entr{})",
        report.files_scanned,
        RULES.len(),
        report.findings.len(),
        stale.len(),
        if stale.len() == 1 { "y" } else { "ies" }
    );
    if fresh_deny > 0 || !stale.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
