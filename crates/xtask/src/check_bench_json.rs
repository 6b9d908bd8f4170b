//! `check_bench_json` — CI gate for machine-readable bench output.
//!
//! Every bench harness writes a `bench.v1` document when invoked with
//! `--json <path>`, and `spdist --profile=<path>` writes a
//! chrome://tracing trace. Each format is hand-written (the workspace
//! carries no serde), so this tool reads every file back through the
//! same validating reader its writer checks itself with, and fails CI
//! when a file drifts from its schema.
//!
//! Usage:
//!
//! ```text
//! cargo run -p xtask --bin check_bench_json -- \
//!     experiments_output/BENCH_*.json [--trace trace.json ...] \
//!     [--diag analyze.json ...] [--metrics metrics.json ...]
//! ```
//!
//! Positional arguments are validated as `bench.v1` reports
//! ([`bench::BenchReport::parse`], plus
//! [`bench::BenchReport::check_latency_percentiles`] for rows carrying
//! `p<N>_latency_s` values — non-negative and monotone in the
//! percentile); each `--trace <path>` is validated as a chrome-trace
//! ([`bench::validate_chrome_trace`]); each `--diag <path>` is
//! validated as a `diag.v1` analyzer report
//! ([`xtask::analyze::diag::DiagReport::parse`]); each `--metrics <path>`
//! is validated as a `metrics.v1` serving-telemetry snapshot
//! ([`bench::MetricsSnapshot::parse`], from `serve::metrics`). Exit status is
//! non-zero when any file fails to read, parse, or validate, or when no
//! files were given at all (an empty CI glob is itself a regression).

use std::fs;
use std::process::ExitCode;

use bench::{validate_chrome_trace, BenchReport, MetricsSnapshot};
use xtask::analyze::diag::DiagReport;

enum Kind {
    Report,
    Trace,
    Diag,
    Metrics,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<(String, Kind)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" || args[i] == "--diag" || args[i] == "--metrics" {
            let kind = match args[i].as_str() {
                "--trace" => Kind::Trace,
                "--diag" => Kind::Diag,
                _ => Kind::Metrics,
            };
            match args.get(i + 1) {
                Some(path) => files.push((path.clone(), kind)),
                None => {
                    eprintln!("error: {} expects a path operand", args[i]);
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
        } else {
            files.push((args[i].clone(), Kind::Report));
            i += 1;
        }
    }
    if files.is_empty() {
        eprintln!(
            "check_bench_json: no files given (pass bench.v1 paths, --trace paths, \
             --diag paths, and/or --metrics paths)"
        );
        return ExitCode::FAILURE;
    }

    let mut failures = 0;
    for (path, kind) in &files {
        match check_file(path, kind) {
            Ok(summary) => println!("ok   {path}: {summary}"),
            Err(e) => {
                failures += 1;
                println!("FAIL {path}: {e}");
            }
        }
    }
    println!(
        "check_bench_json: {} of {} files valid",
        files.len() - failures,
        files.len()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn check_file(path: &str, kind: &Kind) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    match kind {
        Kind::Report => {
            let report = BenchReport::parse(&text)?;
            let latency_rows = report.check_latency_percentiles()?;
            let latency = if latency_rows > 0 {
                format!(" ({latency_rows} with ordered latency percentiles)")
            } else {
                String::new()
            };
            Ok(format!(
                "bench.v1 report {:?}, {} rows{latency}",
                report.name,
                report.rows.len()
            ))
        }
        Kind::Trace => {
            let events = validate_chrome_trace(&text)?;
            Ok(format!("chrome-trace, {events} events"))
        }
        Kind::Diag => {
            let report = DiagReport::parse(&text)?;
            Ok(format!(
                "diag.v1 report {:?}, {} finding(s)",
                report.name,
                report.findings.len()
            ))
        }
        Kind::Metrics => {
            let snap = MetricsSnapshot::parse(&text)?;
            Ok(format!(
                "metrics.v1 snapshot {:?}, {} counter(s), {} histogram(s)",
                snap.name,
                snap.counters.len(),
                snap.histograms.len()
            ))
        }
    }
}
