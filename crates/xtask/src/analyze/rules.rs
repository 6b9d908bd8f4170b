//! The rule registry: every check the analyzer runs over a file's
//! [`FileModel`].
//!
//! Four rules are ports of the old `lint_kernels` checks (now with real
//! scope awareness instead of line matching) and four are new
//! control-flow-aware rules the line matcher could not express:
//!
//! | rule               | flags                                            | opt-out prefix  |
//! |--------------------|--------------------------------------------------|-----------------|
//! | uncosted-smem      | raw `SharedArray` accessors                      | `smem-lint`     |
//! | counters-bypass    | `counters.<f>` writes and `counters_mut()`       | `counters-lint` |
//! | unranged-phase     | costed loops in warp launches with no range      | `range-lint`    |
//! | panic-path         | `panic!` / `.expect` / `.unwrap` in kernels      | `panic-lint`    |
//! | barrier-divergence | sync under a lane/warp/thread-dependent branch   | `barrier-lint`  |
//! | nondet-reduction   | global-buffer mutation inside `run_warps`        | `nondet-lint`   |
//! | unguarded-fallible | fallible collection ops with no fault guard      | `fallible-lint` |
//! | stale-allow        | allow regions that no longer suppress anything   | —               |
//! | dropped-span       | request spans opened with no terminal event      | —               |
//!
//! Every rule is deny severity: the committed baseline
//! (`experiments_output/ANALYZE_baseline.json`), not a severity tier,
//! is what lets pre-existing findings ride while new ones fail CI.
//! `dropped-span` differs only in its scan set — it runs over the
//! serving scan roots ([`super::SPAN_SCAN_ROOTS`], via
//! [`run_span_rules`] rather than [`run_rules`]), where the admission
//! controller now sheds requests on purpose; a span that ends without
//! a terminal served/rejected event would silently drop a request from
//! the trace, so the rule gates the same way the kernel rules do.
//!
//! Test code (`#[cfg(test)]`, brace-matched — see [`super::scope`]) is
//! exempt from every rule: tests panic, poke shared memory, and mutate
//! buffers freely.

use super::diag::{fingerprint, Diagnostic, Severity};
use super::scope::{build_model, FileModel, MarkerProblem};

/// Catalog entry for one rule (drives docs and marker mapping).
pub struct RuleInfo {
    /// Rule name as it appears in diagnostics and baselines.
    pub name: &'static str,
    /// Allow-region marker family, when the rule supports opt-out.
    pub prefix: Option<&'static str>,
    /// One-line description for the catalog.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "uncosted-smem",
        prefix: Some("smem-lint"),
        summary: "raw SharedArray accessors (read/write/fill/rmw/with_mut) bypass the cost model",
    },
    RuleInfo {
        name: "counters-bypass",
        prefix: Some("counters-lint"),
        summary: "direct counters.<field> writes or counters_mut() edits the ledger without charging cost",
    },
    RuleInfo {
        name: "unranged-phase",
        prefix: Some("range-lint"),
        summary: "counter-costed loops in a warp launch with no profiler range leave cost unattributed",
    },
    RuleInfo {
        name: "panic-path",
        prefix: Some("panic-lint"),
        summary: "panic!/expect/unwrap aborts the launch instead of surfacing a typed fault",
    },
    RuleInfo {
        name: "barrier-divergence",
        prefix: Some("barrier-lint"),
        summary: "a barrier under a lane/warp/thread-dependent branch deadlocks diverged warps",
    },
    RuleInfo {
        name: "nondet-reduction",
        prefix: Some("nondet-lint"),
        summary: "mutating a GlobalBuffer inside run_warps bypasses the deferred atomic-log replay",
    },
    RuleInfo {
        name: "unguarded-fallible",
        prefix: Some("fallible-lint"),
        summary: "fallible collection inserts in a launch that never checks or records faults",
    },
    RuleInfo {
        name: "stale-allow",
        prefix: None,
        summary: "an allow region whose body no longer contains anything its rule would flag",
    },
    RuleInfo {
        name: "dropped-span",
        prefix: None,
        summary: "a serving-path file opens request spans but never records a terminal event",
    },
];

/// The rule a marker family's structural problems are reported under.
fn rule_for_prefix(prefix: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.prefix == Some(prefix))
        .map_or("stale-allow", |r| r.name)
}

/// Raw `SharedArray` accessors that move data without charging cost.
const UNCOSTED_CALLS: [&str; 7] = [
    "read",
    "write",
    "fill",
    "rmw",
    "with_mut",
    "scan_back_while",
    "shift_insert",
];

/// Panicking constructs that abort a simulated launch.
const PANIC_CALLS: [&str; 3] = ["panic!", "expect", "unwrap"];

/// Barrier entry points; all warps of a block must reach them.
const BARRIER_CALLS: [&str; 2] = ["sync", "barrier"];

/// `GlobalBuffer` mutators that bypass the deferred atomic-log replay
/// when called inside a launch (`host_get` stays legal: read-only
/// staging is deterministic).
const NONDET_CALLS: [&str; 2] = ["host_set", "replay_rmw"];

/// Collection operations that can fail at runtime (capacity overflow,
/// probe exhaustion) and must be paired with fault handling.
const FALLIBLE_CALLS: [&str; 1] = ["insert_warp"];

/// Calls that constitute fault handling in a hardened launch.
const GUARD_CALLS: [&str; 4] = [
    "fault_pending",
    "record_fault",
    "record_capacity_overflow",
    "record_corrupted_lane",
];

/// Opening a request span (`RequestTraces::begin_request`) obligates
/// the file to also terminate spans; only *method* calls count, so the
/// definition site in `serve/src/span.rs` stays exempt.
const SPAN_BEGIN_CALL: &str = "begin_request";

/// Calls that record a terminal span event (served or shed).
const SPAN_TERMINAL_CALLS: [&str; 2] = ["finish_request", "reject_request"];

/// Identifiers that carry a per-lane / per-warp / per-thread identity;
/// a branch on one of these diverges within or across warps.
fn is_thread_identity(ident: &str) -> bool {
    ident.contains("lane")
        || ident.contains("warp_id")
        || ident.contains("thread_id")
        || ident == "tid"
}

/// Runs every rule over one file. `file` is the workspace-relative path
/// used in diagnostics and fingerprints; `text` is the source.
pub fn run_rules(file: &str, text: &str) -> Vec<Diagnostic> {
    let model = build_model(text);
    let lines: Vec<&str> = text.lines().collect();
    // Per-region count of findings an allow region suppressed; feeds
    // the stale-allow rule.
    let mut suppressed = vec![0usize; model.regions.len()];
    let mut out = Vec::new();

    let mut ctx = Ctx {
        file,
        lines: &lines,
        model: &model,
        suppressed: &mut suppressed,
        out: &mut out,
    };
    rule_uncosted_smem(&mut ctx);
    rule_counters_bypass(&mut ctx);
    rule_unranged_phase(&mut ctx);
    rule_panic_path(&mut ctx);
    rule_barrier_divergence(&mut ctx);
    rule_nondet_reduction(&mut ctx);
    rule_unguarded_fallible(&mut ctx);
    rule_stale_allow(&model, &suppressed, file, &lines, &mut out);
    rule_marker_hygiene(&model, file, &lines, &mut out);

    out.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    out
}

struct Ctx<'a> {
    file: &'a str,
    lines: &'a [&'a str],
    model: &'a FileModel,
    suppressed: &'a mut [usize],
    out: &'a mut Vec<Diagnostic>,
}

impl Ctx<'_> {
    /// Emits a diagnostic at `at` = (line, col) unless an allow region
    /// of `prefix` is open there — in which case the region's
    /// suppression count grows instead.
    fn emit(
        &mut self,
        rule: &'static str,
        prefix: Option<&str>,
        regions: &[usize],
        at: (u32, u32),
        message: String,
        help: &str,
    ) {
        let (line, col) = at;
        if let Some(prefix) = prefix {
            let covering: Vec<usize> = regions
                .iter()
                .copied()
                .filter(|&r| self.model.regions[r].prefix == prefix)
                .collect();
            if !covering.is_empty() {
                for r in covering {
                    self.suppressed[r] += 1;
                }
                return;
            }
        }
        self.out
            .push(diag(rule, self.file, self.lines, line, col, message, help));
    }
}

/// Builds one deny diagnostic, fingerprinting the flagged source line.
fn diag(
    rule: &'static str,
    file: &str,
    lines: &[&str],
    line: u32,
    col: u32,
    message: String,
    help: &str,
) -> Diagnostic {
    diag_at(rule, Severity::Deny, file, lines, line, col, message, help)
}

/// Builds one diagnostic at an explicit severity.
#[allow(clippy::too_many_arguments)]
fn diag_at(
    rule: &'static str,
    severity: Severity,
    file: &str,
    lines: &[&str],
    line: u32,
    col: u32,
    message: String,
    help: &str,
) -> Diagnostic {
    let text = lines.get(line as usize - 1).copied().unwrap_or_default();
    Diagnostic {
        rule: rule.to_string(),
        severity,
        file: file.to_string(),
        line,
        col,
        message,
        help: help.to_string(),
        fingerprint: fingerprint(rule, file, text),
        baselined: false,
    }
}

/// Runs the serving-path span-lifecycle rules over one file — the scan
/// set is [`super::SPAN_SCAN_ROOTS`] (serve + neighbors), where the
/// kernel rules would drown legitimate host code in noise.
///
/// `dropped-span`: a file whose live code opens request
/// spans via `.begin_request(…)` must also contain at least one
/// terminal call (`.finish_request(…)` or `.reject_request(…)`);
/// otherwise every span the file opens leaks as non-terminal in the
/// per-request trace. One finding per file, at the first opening call.
pub fn run_span_rules(file: &str, text: &str) -> Vec<Diagnostic> {
    let model = build_model(text);
    let lines: Vec<&str> = text.lines().collect();
    let terminated = model
        .calls
        .iter()
        .any(|c| !c.in_test && c.method && SPAN_TERMINAL_CALLS.contains(&c.callee.as_str()));
    if terminated {
        return Vec::new();
    }
    let Some(call) = model
        .calls
        .iter()
        .find(|c| !c.in_test && c.method && c.callee == SPAN_BEGIN_CALL)
    else {
        return Vec::new();
    };
    vec![diag_at(
        "dropped-span",
        Severity::Deny,
        file,
        &lines,
        call.line,
        call.col,
        "`.begin_request(…)` opens request spans, but this file never records a terminal \
         span event"
            .to_string(),
        "end every span with `.finish_request(…)` (served) or `.reject_request(…)` (shed) \
         so traces cannot leak open spans",
    )]
}

fn rule_uncosted_smem(ctx: &mut Ctx<'_>) {
    for call in ctx.model.calls.clone() {
        if call.in_test || !call.method || !UNCOSTED_CALLS.contains(&call.callee.as_str()) {
            continue;
        }
        ctx.emit(
            "uncosted-smem",
            Some("smem-lint"),
            &call.regions,
            (call.line, call.col),
            format!("raw `.{}(…)` bypasses the cost model", call.callee),
            "charge the access through a WarpCtx collective (smem_gather/scatter/atomic) \
             or wrap it in a documented `smem-lint` allow region",
        );
    }
}

fn rule_counters_bypass(ctx: &mut Ctx<'_>) {
    for assign in ctx.model.assigns.clone() {
        if assign.in_test {
            continue;
        }
        ctx.emit(
            "counters-bypass",
            Some("counters-lint"),
            &assign.regions,
            (assign.line, assign.col),
            format!("direct write to `counters.{}`", assign.field),
            "charge cost through WarpCtx (issue, branch, gathers/scatters) instead of \
             editing the ledger, or wrap in a documented `counters-lint` allow region",
        );
    }
    for call in ctx.model.calls.clone() {
        if call.in_test || !call.method || call.callee != "counters_mut" {
            continue;
        }
        ctx.emit(
            "counters-bypass",
            Some("counters-lint"),
            &call.regions,
            (call.line, call.col),
            "`.counters_mut()` hands out the raw ledger".to_string(),
            "charge cost through WarpCtx (issue, branch, gathers/scatters) instead of \
             editing the ledger, or wrap in a documented `counters-lint` allow region",
        );
    }
}

fn rule_unranged_phase(ctx: &mut Ctx<'_>) {
    let launches = ctx
        .model
        .calls
        .iter()
        .any(|c| !c.in_test && c.callee == "run_warps");
    let ranged = ctx
        .model
        .calls
        .iter()
        .any(|c| !c.in_test && c.method && c.callee == "range");
    if !launches || ranged {
        return;
    }
    // First counter-costed call under a loop: the cost lands in the
    // profiler's "unattributed" bucket.
    let Some(call) = ctx.model.calls.clone().into_iter().find(|c| {
        !c.in_test
            && c.method
            && (c.callee == "issue"
                || c.callee.ends_with("_gather")
                || c.callee.ends_with("_scatter"))
            && c.in_loop()
    }) else {
        return;
    };
    ctx.emit(
        "unranged-phase",
        Some("range-lint"),
        &call.regions,
        (call.line, call.col),
        "kernel has counter-costed loops but opens no profiler range".to_string(),
        "wrap phases in `w.range(\"name\", …)` so the hot-spot report can attribute \
         their cost, or wrap in a documented `range-lint` allow region",
    );
}

fn rule_panic_path(ctx: &mut Ctx<'_>) {
    for call in ctx.model.calls.clone() {
        if call.in_test || !PANIC_CALLS.contains(&call.callee.as_str()) {
            continue;
        }
        // `panic!` is a macro, not a method; the other two must be
        // method calls so free functions named `expect` stay legal.
        if call.callee != "panic!" && !call.method {
            continue;
        }
        ctx.emit(
            "panic-path",
            Some("panic-lint"),
            &call.regions,
            (call.line, call.col),
            format!("`{}(…)` aborts the whole simulated launch", call.callee),
            "record a typed fault (`w.record_fault` / `w.record_capacity_overflow`) and \
             limp to the end of the block, or wrap a provably-unreachable case in a \
             documented `panic-lint` allow region",
        );
    }
}

fn rule_barrier_divergence(ctx: &mut Ctx<'_>) {
    for call in ctx.model.calls.clone() {
        if call.in_test || !call.method || !BARRIER_CALLS.contains(&call.callee.as_str()) {
            continue;
        }
        let Some(scope) = call
            .scopes
            .iter()
            .find(|s| s.kind.is_branch() && s.cond_idents.iter().any(|i| is_thread_identity(i)))
        else {
            continue;
        };
        ctx.emit(
            "barrier-divergence",
            Some("barrier-lint"),
            &call.regions,
            (call.line, call.col),
            format!(
                "`.{}(…)` under the divergent branch `{}`: lanes that skip the branch \
                 never reach the barrier",
                call.callee, scope.cond_text
            ),
            "hoist the barrier out of the lane/warp/thread-dependent branch so every \
             participant reaches it, or wrap a provably-uniform condition in a \
             documented `barrier-lint` allow region",
        );
    }
}

fn rule_nondet_reduction(ctx: &mut Ctx<'_>) {
    for call in ctx.model.calls.clone() {
        if call.in_test
            || !call.method
            || !NONDET_CALLS.contains(&call.callee.as_str())
            || !call.inside_closure_of("run_warps")
        {
            continue;
        }
        ctx.emit(
            "nondet-reduction",
            Some("nondet-lint"),
            &call.regions,
            (call.line, call.col),
            format!(
                "`.{}(…)` mutates a GlobalBuffer inside `run_warps`, bypassing the \
                 deferred atomic-log replay",
                call.callee
            ),
            "route the update through `w.global_atomic` so the log replays it in block \
             order (bit-identical under host threads; DESIGN.md §10), or wrap a \
             provably-disjoint write in a documented `nondet-lint` allow region",
        );
    }
}

fn rule_unguarded_fallible(ctx: &mut Ctx<'_>) {
    // Group calls by the specific run_warps closure they sit in: a
    // launch that performs fallible collection ops but never consults
    // or records faults silently drops failures the resilience cascade
    // was built to catch.
    let mut launch_ids: Vec<u32> = Vec::new();
    for call in &ctx.model.calls {
        if let Some(id) = call.closure_id("run_warps") {
            if !launch_ids.contains(&id) {
                launch_ids.push(id);
            }
        }
    }
    for id in launch_ids {
        let in_launch = |c: &super::scope::CallSite| c.closure_id("run_warps") == Some(id);
        let guarded = ctx
            .model
            .calls
            .iter()
            .any(|c| in_launch(c) && GUARD_CALLS.contains(&c.callee.as_str()));
        if guarded {
            continue;
        }
        let Some(call) = ctx.model.calls.clone().into_iter().find(|c| {
            in_launch(c) && !c.in_test && c.method && FALLIBLE_CALLS.contains(&c.callee.as_str())
        }) else {
            continue;
        };
        ctx.emit(
            "unguarded-fallible",
            Some("fallible-lint"),
            &call.regions,
            (call.line, call.col),
            format!(
                "fallible `.{}(…)` in a launch that never checks or records faults",
                call.callee
            ),
            "check `w.fault_pending()` (or record via `w.record_fault` / \
             `w.record_capacity_overflow`) on the failure path so the resilience \
             cascade can retry or degrade, or wrap an infallible use in a documented \
             `fallible-lint` allow region",
        );
    }
}

fn rule_stale_allow(
    model: &FileModel,
    suppressed: &[usize],
    file: &str,
    lines: &[&str],
    out: &mut Vec<Diagnostic>,
) {
    for (i, region) in model.regions.iter().enumerate() {
        // Only well-formed live-code regions can be stale; malformed
        // ones are already reported by marker hygiene, and test-code
        // regions suppress nothing by construction.
        if region.in_test || !region.closed || region.reason_len < 10 {
            continue;
        }
        if suppressed[i] > 0 {
            continue;
        }
        out.push(diag(
            "stale-allow",
            file,
            lines,
            region.line,
            1,
            format!(
                "`{}` allow region `{}` no longer suppresses anything",
                region.prefix, region.tag
            ),
            "the code this region excused has moved or been fixed; delete the \
             begin/end markers so the exemption cannot silently cover future code",
        ));
    }
}

fn rule_marker_hygiene(model: &FileModel, file: &str, lines: &[&str], out: &mut Vec<Diagnostic>) {
    for region in &model.regions {
        if region.in_test {
            continue;
        }
        if !region.closed {
            out.push(diag(
                rule_for_prefix(&region.prefix),
                file,
                lines,
                region.line,
                1,
                format!(
                    "`{}` allow region `{}` never closed with `{}: end-allow`",
                    region.prefix, region.tag, region.prefix
                ),
                "close the region immediately after the excused code; an open-ended \
                 region exempts everything below it",
            ));
        }
        if region.reason_len < 10 {
            out.push(diag(
                rule_for_prefix(&region.prefix),
                file,
                lines,
                region.line,
                1,
                format!(
                    "`{}` begin-allow needs a reason: `begin-allow(tag): <why this is safe>`",
                    region.prefix
                ),
                "document why the rule does not apply here so reviewers can re-check \
                 the claim when the code changes",
            ));
        }
    }
    for issue in &model.marker_issues {
        let (message, help) = match issue.what {
            MarkerProblem::StrayEnd => (
                format!(
                    "`{}: end-allow` without a matching begin-allow",
                    issue.prefix
                ),
                "delete the stray marker or add the missing begin-allow above the \
                 excused code",
            ),
            MarkerProblem::NestedBegin => (
                format!(
                    "nested `{}` begin-allow; close the previous region first",
                    issue.prefix
                ),
                "allow regions of one family do not nest; close the open region with \
                 `end-allow` before opening another",
            ),
        };
        out.push(diag(
            rule_for_prefix(&issue.prefix),
            file,
            lines,
            issue.line,
            1,
            message,
            help,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str) -> Vec<Diagnostic> {
        run_rules("test.rs", text)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    // ---- ports of the lint_kernels unit tests -----------------------

    #[test]
    fn clean_code_passes() {
        let src = "let x = w.smem_gather(&arr, &idx);\nw.issue(1);\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn raw_access_is_flagged() {
        let src = "let v = cand_val.read(pos - 1);\narr.write(0, v);\narr.fill(0.0);\n";
        let out = run(src);
        assert_eq!(rules_of(&out), ["uncosted-smem"; 3]);
        assert_eq!(out[1].line, 2);
    }

    #[test]
    fn bulk_emulation_helpers_are_flagged_outside_an_allow_region() {
        let bare = "let pos = cand_val.scan_back_while(len, |c| v < c);\n\
                    cand_val.shift_insert(pos, len, v);\n";
        let out = run(bare);
        assert_eq!(rules_of(&out), ["uncosted-smem"; 2]);
        assert!(out[0].message.contains("scan_back_while"));
        assert!(out[1].message.contains("shift_insert"));
        let allowed = format!(
            "// smem-lint: begin-allow(serialized-emulation): costed by the probe below\n\
             {bare}// smem-lint: end-allow\n"
        );
        assert!(run(&allowed).is_empty());
    }

    #[test]
    fn allow_region_suppresses_with_reason() {
        let src = "\
// smem-lint: begin-allow(serialized-emulation): cost charged via explicit issue below
let v = cand_val.read(0);
// smem-lint: end-allow
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_region_requires_reason_and_closure() {
        let missing_reason =
            "// smem-lint: begin-allow(serialized-emulation):\n// smem-lint: end-allow\n";
        let out = run(missing_reason);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("needs a reason"));

        let unclosed = "// smem-lint: begin-allow(x): a perfectly good reason\narr.read(0);\n";
        let out = run(unclosed);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("never closed"));
        assert_eq!(out[0].rule, "uncosted-smem");

        let stray_end = "// smem-lint: end-allow\n";
        let out = run(stray_end);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("without a matching begin-allow"));
    }

    #[test]
    fn counters_mutations_are_flagged_but_reads_pass() {
        assert!(run("assert!(stats.counters.issues > 10);\n").is_empty());
        assert!(run("let n = stats.counters.global_bytes;\n").is_empty());
        assert!(run("if counters.issues == 3 {}\n").is_empty());
        let out = run("self.counters.issues += 1;\n");
        assert_eq!(rules_of(&out), ["counters-bypass"]);
        assert!(out[0].message.contains("issues"));
        assert_eq!(run("w.counters.bank_conflict_extra = 0;\n").len(), 1);
    }

    #[test]
    fn comments_do_not_false_positive() {
        assert!(run("// talk about arr.read(0) in prose\n").is_empty());
        assert!(run("//! counters.\n").is_empty());
        assert!(run("// never .unwrap( in kernels\n").is_empty());
        let prose = "// dev.run_warps( then while  then .issue( in a comment\n";
        assert!(run(prose).is_empty());
    }

    #[test]
    fn unranged_costed_loop_is_flagged() {
        let src = "dev.run_warps(cfg);\nwhile i < n {\n    w.issue(1);\n}\n";
        let out = run(src);
        assert_eq!(rules_of(&out), ["unranged-phase"]);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn ranged_or_loopless_kernels_pass() {
        let ranged = "dev.run_warps(cfg);\nw.range(\"scan\", |w| {\n    while i < n {\n        w.issue(1);\n    }\n});\n";
        assert!(run(ranged).is_empty());
        let elementwise = "dev.run_warps(cfg);\nw.issue(1);\nw.global_scatter(&out, &idx, &v);\n";
        assert!(run(elementwise).is_empty());
        let host = "for x in 0..n {\n    v.push(x);\n}\nw.issue(1);\n";
        assert!(run(host).is_empty());
    }

    #[test]
    fn panic_paths_flagged_in_kernel_code() {
        let src = "let v = opt.unwrap();\nlet w = res.expect(\"msg\");\npanic!(\"boom\");\n";
        let out = run(src);
        assert_eq!(rules_of(&out), ["panic-path"; 3]);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn panic_allow_region_and_test_module_are_skipped() {
        let src = "\
// panic-lint: begin-allow(guarded-unwrap): is_some checked on the same lane above
let v = opt.expect(\"set\");
// panic-lint: end-allow
#[cfg(test)]
mod tests { fn t() { x.unwrap(); } }
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unwrap_or_and_free_expect_are_not_panics() {
        assert!(run("let v = x.unwrap_or(0);\n").is_empty());
        assert!(run("let v = expect(thing);\n").is_empty());
    }

    // ---- the cfg(test) scoping fix (satellite 1) --------------------

    #[test]
    fn code_after_a_test_module_is_still_scanned() {
        // The old lint_kernels skipped from the first #[cfg(test)] to
        // EOF, so the trailing unwrap passed silently. The scope
        // tracker confines the exemption to the braced module.
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn also_live(y: Option<u32>) -> u32 { y.unwrap() }
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["panic-path"]);
        assert_eq!(out[0].line, 6);
    }

    // ---- barrier-divergence -----------------------------------------

    #[test]
    fn barrier_under_lane_branch_is_flagged() {
        // The old lint has no concept of enclosing branches: this
        // passes lint_kernels entirely.
        let src = "\
block.run_warps(|w| {
    if w.lane_id() == 0 {
        block.sync();
    }
});
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["barrier-divergence"]);
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("lane_id"));
    }

    #[test]
    fn barrier_variants_and_identity_spellings_are_caught() {
        let warp = "while warp_id < n {\n    w.barrier(active);\n}\n";
        assert_eq!(rules_of(&run(warp)), ["barrier-divergence"]);
        let tid = "if tid == 0 {\n    block.sync();\n}\n";
        assert_eq!(rules_of(&run(tid)), ["barrier-divergence"]);
        let else_arm = "if lane == 0 {\n    a();\n} else {\n    block.sync();\n}\n";
        assert_eq!(rules_of(&run(else_arm)), ["barrier-divergence"]);
    }

    #[test]
    fn uniform_branches_and_top_level_barriers_pass() {
        let uniform = "if cols > 64 {\n    block.sync();\n}\n";
        assert!(run(uniform).is_empty());
        let top = "block.run_warps(|w| {\n    w.issue(1);\n});\nblock.sync();\n";
        assert!(run(top).is_empty());
        // A barrier *after* a divergent branch closed is fine.
        let after = "if lane == 0 {\n    a();\n}\nblock.sync();\n";
        assert!(run(after).is_empty());
    }

    #[test]
    fn barrier_allow_region_opts_out() {
        let src = "\
// barrier-lint: begin-allow(uniform-per-block): lane bound proven uniform across the block
if lane_count == full {
    block.sync();
}
// barrier-lint: end-allow
";
        assert!(run(src).is_empty());
    }

    // ---- nondet-reduction -------------------------------------------

    #[test]
    fn global_mutation_inside_launch_is_flagged() {
        // Passes the old lint: host_set is not an uncosted smem call.
        let src = "\
block.run_warps(|w| {
    out.host_set(i, v);
    acc.replay_rmw(i, f);
});
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["nondet-reduction"; 2]);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn staging_reads_and_host_side_writes_pass() {
        let read_only =
            "block.run_warps(|w| {\n    let v = buf.host_get(i);\n    w.issue(1);\n});\n";
        assert!(run(read_only).is_empty());
        let host_side = "out.host_set(0, 1.0);\nblock.run_warps(|w| {\n    w.issue(1);\n});\n";
        assert!(run(host_side).is_empty());
        let atomic = "block.run_warps(|w| {\n    w.global_atomic(&out, &idx, &v, add);\n});\n";
        assert!(run(atomic).is_empty());
    }

    #[test]
    fn nondet_allow_region_opts_out() {
        let src = "\
block.run_warps(|w| {
    // nondet-lint: begin-allow(disjoint-slots): each warp owns slot warp_id, no overlap
    out.host_set(w.warp_id, v);
    // nondet-lint: end-allow
});
";
        assert!(run(src).is_empty());
    }

    // ---- unguarded-fallible -----------------------------------------

    #[test]
    fn unguarded_insert_is_flagged() {
        // Passes the old lint: insert_warp is not on any old list.
        let src = "\
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
});
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["unguarded-fallible"]);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn guarded_or_insert_free_launches_pass() {
        let guarded = "\
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
    if w.fault_pending() {
        return;
    }
});
";
        assert!(run(guarded).is_empty());
        let recorded = "\
block.run_warps(|w| {
    if table.insert_warp(w, &keys, &vals).is_err() {
        w.record_capacity_overflow();
    }
});
";
        assert!(run(recorded).is_empty());
        let no_insert = "block.run_warps(|w| {\n    w.issue(1);\n});\n";
        assert!(run(no_insert).is_empty());
    }

    #[test]
    fn guard_in_one_launch_does_not_cover_another() {
        let src = "\
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
    if w.fault_pending() { return; }
});
block.run_warps(|w| {
    table.insert_warp(w, &keys, &vals);
});
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["unguarded-fallible"]);
        assert_eq!(out[0].line, 6);
    }

    #[test]
    fn fallible_allow_region_opts_out() {
        let src = "\
block.run_warps(|w| {
    // fallible-lint: begin-allow(preflight-sized): table sized to 2x the batch upstream
    table.insert_warp(w, &keys, &vals);
    // fallible-lint: end-allow
});
";
        assert!(run(src).is_empty());
    }

    // ---- stale-allow ------------------------------------------------

    #[test]
    fn region_suppressing_nothing_is_stale() {
        let src = "\
// smem-lint: begin-allow(leftover): this excused a read that has since been fixed
w.issue(1);
// smem-lint: end-allow
";
        let out = run(src);
        assert_eq!(rules_of(&out), ["stale-allow"]);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn region_still_suppressing_is_not_stale() {
        let src = "\
// smem-lint: begin-allow(emu): cost charged in aggregate by the probe below
x.read(0);
// smem-lint: end-allow
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn malformed_regions_are_not_double_reported_as_stale() {
        // Missing reason already fires marker hygiene; stale-allow
        // stays quiet so one mistake yields one finding per cause.
        let src = "// panic-lint: begin-allow(tag):\nw.issue(1);\n// panic-lint: end-allow\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("needs a reason"));
    }

    #[test]
    fn test_code_regions_are_exempt_from_staleness() {
        let src = "\
#[cfg(test)]
mod tests {
    // smem-lint: begin-allow(test-only): tests poke shared memory directly by design
    fn t() {}
    // smem-lint: end-allow
}
";
        assert!(run(src).is_empty());
    }

    // ---- misc -------------------------------------------------------

    #[test]
    fn counters_mut_is_a_bypass() {
        // The old lint only matched `counters.<field> =` text; handing
        // out the raw ledger via counters_mut() slipped through.
        let src = "let c = block.counters_mut();\n";
        let out = run(src);
        assert_eq!(rules_of(&out), ["counters-bypass"]);
    }

    #[test]
    fn diagnostics_are_ordered_and_fingerprinted() {
        let src = "arr.write(0, v);\nlet v = arr.read(0);\n";
        let out = run(src);
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
        assert!(out.iter().all(|d| d.fingerprint.len() == 16));
        assert_ne!(out[0].fingerprint, out[1].fingerprint);
    }
}
