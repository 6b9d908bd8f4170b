//! Fixture suite for the static analyzer.
//!
//! Each rule gets inline-source fixtures — true positive, true
//! negative, allow-region opt-out, and region-hygiene cases — driven
//! through the same public API CI gates on, plus end-to-end runs of
//! [`xtask::analyze::analyze_root`] over synthetic workspace trees to
//! exercise the scan set, the `diag.v1` writer, and the suppression
//! baseline. The final test runs the analyzer over *this* repository
//! against the committed baseline, so `cargo test` enforces the same
//! zero-fresh-findings contract as the CI `checks` job.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::analyze::baseline::{write_baseline, Baseline};
use xtask::analyze::diag::{validate_diag, DiagReport, Diagnostic, Severity};
use xtask::analyze::rules::{run_rules, run_span_rules, RULES};
use xtask::analyze::{analyze_root, SCAN_ROOTS, SPAN_SCAN_ROOTS};

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// ---------------------------------------------------------------------
// Seeded violations the old lint_kernels passes: one per new rule.
// lint_kernels matched single lines with no notion of enclosing
// branches, launches, or region usage, so none of these constructs
// appear on any of its match lists.
// ---------------------------------------------------------------------

#[test]
fn barrier_divergence_seeded_violation() {
    let seeded = "\
block.run_warps(|w| {
    if w.lane_id() == 0 {
        block.sync();
    }
});
";
    let out = run_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["barrier-divergence"]);
    assert_eq!((out[0].line, out[0].col), (3, 15));

    // True negative: a uniform condition.
    let uniform = "if cols > 64 {\n    block.sync();\n}\n";
    assert!(run_rules("fixture.rs", uniform).is_empty());

    // Opt-out.
    let allowed = "\
// barrier-lint: begin-allow(uniform-bound): the lane bound is identical on every lane of the block
if lane_limit == WARP_SIZE {
    block.sync();
}
// barrier-lint: end-allow
";
    assert!(run_rules("fixture.rs", allowed).is_empty());
}

#[test]
fn nondet_reduction_seeded_violation() {
    let seeded = "\
block.run_warps(|w| {
    out.host_set(w.warp_id, partial);
});
";
    let out = run_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["nondet-reduction"]);

    // True negatives: read-only staging inside the launch, and writes
    // outside it.
    let legal = "\
let seed = buf.host_get(0);
block.run_warps(|w| {
    let v = buf.host_get(i);
    w.global_atomic(&out, &idx, &v, add);
});
out.host_set(0, total);
";
    assert!(run_rules("fixture.rs", legal).is_empty());

    // Opt-out.
    let allowed = "\
block.run_warps(|w| {
    // nondet-lint: begin-allow(disjoint-slots): each warp owns exactly slot warp_id; no write overlaps
    out.host_set(w.warp_id, partial);
    // nondet-lint: end-allow
});
";
    assert!(run_rules("fixture.rs", allowed).is_empty());
}

#[test]
fn unguarded_fallible_seeded_violation() {
    let seeded = "\
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
});
";
    let out = run_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["unguarded-fallible"]);

    // True negative: the launch consults the fault ledger.
    let guarded = "\
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
    if w.fault_pending() {
        return;
    }
});
";
    assert!(run_rules("fixture.rs", guarded).is_empty());

    // Opt-out.
    let allowed = "\
block.run_warps(|w| {
    // fallible-lint: begin-allow(preflight-sized): capacity is 2x the worst-case batch, proven upstream
    table.insert_warp(w, &keys, &vals);
    // fallible-lint: end-allow
});
";
    assert!(run_rules("fixture.rs", allowed).is_empty());
}

#[test]
fn stale_allow_seeded_violation() {
    // The old lint never checked whether a region still suppressed
    // anything, so exemptions outlived the code they excused.
    let seeded = "\
// smem-lint: begin-allow(leftover): excused a raw read that has since been rewritten
w.issue(1);
// smem-lint: end-allow
";
    let out = run_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["stale-allow"]);

    // True negative: the region still earns its keep.
    let live = "\
// smem-lint: begin-allow(serialized-emulation): cost charged in aggregate by the probe below
let v = arr.read(0);
// smem-lint: end-allow
";
    assert!(run_rules("fixture.rs", live).is_empty());

    // Unclosed region: reported under the region's own rule.
    let unclosed = "// smem-lint: begin-allow(x): a perfectly good reason\narr.read(0);\n";
    let out = run_rules("fixture.rs", unclosed);
    assert_eq!(rules_of(&out), ["uncosted-smem"]);
    assert!(out[0].message.contains("never closed"));
}

#[test]
fn cfg_test_scoping_seeded_violation() {
    // The old lint skipped everything from the first #[cfg(test)] to
    // EOF; the scope tracker confines the exemption to the braced
    // module, so the trailing unwrap is caught.
    let seeded = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn also_live(y: Option<u32>) -> u32 { y.unwrap() }
";
    let out = run_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["panic-path"]);
    assert_eq!(out[0].line, 6);
}

#[test]
fn every_rule_is_cataloged() {
    let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "uncosted-smem",
            "counters-bypass",
            "unranged-phase",
            "panic-path",
            "barrier-divergence",
            "nondet-reduction",
            "unguarded-fallible",
            "stale-allow",
            "dropped-span",
        ]
    );
    assert!(RULES.iter().all(|r| !r.summary.is_empty()));
}

// ---------------------------------------------------------------------
// dropped-span (deny severity, serving scan roots).
// ---------------------------------------------------------------------

#[test]
fn dropped_span_seeded_violation() {
    // True positive: a serving file that opens request spans but never
    // records a terminal event — every span it opens leaks open.
    let seeded = "\
fn admit(traces: &mut RequestTraces, r: &Request) {
    traces.begin_request(r.id, r.dataset, r.arrival_s);
    traces.push_event(r.id, t, SpanEvent::CacheHit);
}
";
    let out = run_span_rules("fixture.rs", seeded);
    assert_eq!(rules_of(&out), ["dropped-span"]);
    assert_eq!(out[0].severity, Severity::Deny);
    assert_eq!(out[0].line, 2);
    assert!(out[0].message.contains("terminal"));
}

#[test]
fn dropped_span_true_negatives() {
    // Served and shed paths both terminate: clean.
    let terminated = "\
traces.begin_request(r.id, r.dataset, r.arrival_s);
if admitted {
    traces.finish_request(r.id, t, t - r.arrival_s);
} else {
    traces.reject_request(r.id, t, backlog);
}
";
    assert!(run_span_rules("fixture.rs", terminated).is_empty());

    // A file that never opens spans owes no terminal event — even if it
    // pushes intermediate events on spans opened elsewhere.
    let events_only = "traces.push_event(r.id, t, SpanEvent::Merge);\n";
    assert!(run_span_rules("fixture.rs", events_only).is_empty());

    // Definition sites are not method calls: the span module itself,
    // which defines begin_request but calls no terminal method, passes.
    let definitions = "\
pub fn begin_request(&mut self, id: u64, dataset: usize, arrival_s: f64) {
    self.spans.push(RequestSpan::new(id, dataset, arrival_s));
}
";
    assert!(run_span_rules("fixture.rs", definitions).is_empty());

    // Test code is exempt, as everywhere else in the analyzer.
    let in_test = "\
#[cfg(test)]
mod tests {
    fn t(traces: &mut RequestTraces) {
        traces.begin_request(1, 0, 0.0);
    }
}
";
    assert!(run_span_rules("fixture.rs", in_test).is_empty());

    // The kernel rules never fire on serving-path files: host-side
    // constructs that would be deny findings under run_rules are out of
    // scope for the span scan.
    let host_code = "let v = opt.unwrap();\narr.write(0, v);\n";
    assert!(run_span_rules("fixture.rs", host_code).is_empty());
}

// ---------------------------------------------------------------------
// End-to-end over a synthetic workspace tree.
// ---------------------------------------------------------------------

/// Builds a throwaway workspace containing one kernel file per entry
/// of `files` and returns its root.
fn fixture_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir()
        .join("xtask_analyze_fixture")
        .join(name);
    fs::remove_dir_all(&root).ok();
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, text).expect("write fixture");
    }
    root
}

#[test]
fn analyze_root_scans_kernels_and_gpu_sim() {
    let root = fixture_tree(
        "scan_set",
        &[
            ("crates/kernels/src/a.rs", "arr.write(0, v);\n"),
            ("crates/gpu-sim/src/prims/b.rs", "x.unwrap();\n"),
            (
                "crates/gpu-sim/src/collections/c.rs",
                "let v = t.read(0);\n",
            ),
            // Outside the scan set: must not be visited.
            ("crates/gpu-sim/src/device.rs", "zzz.unwrap();\n"),
        ],
    );
    let analysis = analyze_root(&root).expect("analyzes");
    assert_eq!(analysis.files_scanned, 3);
    let files: Vec<&str> = analysis.findings.iter().map(|d| d.file.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/gpu-sim/src/collections/c.rs",
            "crates/gpu-sim/src/prims/b.rs",
            "crates/kernels/src/a.rs",
        ]
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn analyze_root_runs_only_span_rules_over_serving_roots() {
    let root = fixture_tree(
        "span_scan_set",
        &[
            // Kernel scan set must be non-empty for analyze_root.
            ("crates/kernels/src/a.rs", "w.issue(1);\n"),
            // Opens spans, never terminates: one dropped-span deny
            // finding. The unwrap must NOT be flagged — kernel rules
            // are out of scope on serving roots.
            (
                "crates/serve/src/leaky.rs",
                "let q = opt.unwrap();\ntraces.begin_request(id, 0, t);\n",
            ),
            // Terminates its spans: clean.
            (
                "crates/neighbors/src/ok.rs",
                "traces.begin_request(id, 0, t);\ntraces.finish_request(id, t, 0.0);\n",
            ),
        ],
    );
    let analysis = analyze_root(&root).expect("analyzes");
    assert_eq!(analysis.files_scanned, 3);
    assert_eq!(rules_of(&analysis.findings), ["dropped-span"]);
    assert_eq!(analysis.findings[0].file, "crates/serve/src/leaky.rs");
    assert_eq!(analysis.findings[0].severity, Severity::Deny);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn empty_scan_set_is_an_error_not_a_pass() {
    let root = fixture_tree("empty", &[("README.md", "nothing to scan\n")]);
    assert!(analyze_root(&root).is_err());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn baseline_round_trip_gates_fresh_findings_only() {
    let root = fixture_tree(
        "baseline_rt",
        &[("crates/kernels/src/k.rs", "let a = arr.read(0);\n")],
    );
    let analysis = analyze_root(&root).expect("analyzes");
    assert_eq!(rules_of(&analysis.findings), ["uncosted-smem"]);

    // Accept the current state.
    let bpath = root.join("ANALYZE_baseline.json");
    let bpath = bpath.to_str().expect("utf8");
    write_baseline(bpath, &analysis.findings, analysis.files_scanned);
    validate_diag(&fs::read_to_string(bpath).expect("read")).expect("baseline is diag.v1");

    // Same tree: fully baselined, nothing stale.
    let mut again = analyze_root(&root).expect("analyzes").findings;
    let stale = Baseline::load(bpath).expect("loads").apply(&mut again);
    assert!(stale.is_empty());
    assert!(again.iter().all(|d| d.baselined));

    // New violation: fresh. Old one moves down a line: still baselined
    // (fingerprints hash content, not position).
    fs::write(
        root.join("crates/kernels/src/k.rs"),
        "let b = arr.write(1, v);\n\nlet a = arr.read(0);\n",
    )
    .expect("rewrite");
    let mut third = analyze_root(&root).expect("analyzes").findings;
    let stale = Baseline::load(bpath).expect("loads").apply(&mut third);
    assert!(stale.is_empty());
    let fresh: Vec<&Diagnostic> = third.iter().filter(|d| !d.baselined).collect();
    assert_eq!(fresh.len(), 1);
    assert_eq!(fresh[0].rule, "uncosted-smem");
    assert_eq!(fresh[0].line, 1);

    // Fix the old violation: its baseline entry goes stale.
    fs::write(root.join("crates/kernels/src/k.rs"), "w.issue(1);\n").expect("rewrite");
    let mut fourth = analyze_root(&root).expect("analyzes").findings;
    let stale = Baseline::load(bpath).expect("loads").apply(&mut fourth);
    assert!(fourth.is_empty());
    assert_eq!(stale.len(), 1);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn diag_report_render_validates() {
    let root = fixture_tree(
        "render",
        &[(
            "crates/kernels/src/k.rs",
            "panic!(\"boom \\\"quoted\\\"\");\n",
        )],
    );
    let analysis = analyze_root(&root).expect("analyzes");
    let report = DiagReport {
        name: "analyze".to_string(),
        files_scanned: analysis.files_scanned,
        stale_baseline: 0,
        findings: analysis.findings,
    };
    validate_diag(&report.to_json()).expect("self-consistent");
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------
// The live repository must stay clean against its committed baseline.
// ---------------------------------------------------------------------

#[test]
fn live_repo_has_no_fresh_findings_and_no_stale_baseline() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    for sub in SCAN_ROOTS.iter().chain(&SPAN_SCAN_ROOTS) {
        assert!(root.join(sub).is_dir(), "scan root {sub} missing");
    }
    let mut analysis = analyze_root(root).expect("live repo analyzes");
    let bpath = root.join("experiments_output/ANALYZE_baseline.json");
    let stale = Baseline::load(bpath.to_str().expect("utf8"))
        .expect("committed baseline loads")
        .apply(&mut analysis.findings);
    let fresh: Vec<String> = analysis
        .findings
        .iter()
        .filter(|d| !d.baselined)
        .map(|d| format!("{d}"))
        .collect();
    assert!(fresh.is_empty(), "fresh findings:\n{}", fresh.join("\n"));
    assert!(
        stale.is_empty(),
        "stale baseline entries: {:?}",
        stale.iter().map(|s| &s.file).collect::<Vec<_>>()
    );
}
