//! Self-test, run by
//! `cargo test --offline --manifest-path crates/bench/src/bin/perfbench/Cargo.toml`:
//! the metric catalogue matches `BENCHMARK.json`, every workload emits
//! every metric at smoke scale with its checks passing, and the oracles
//! catch a damaged answer.

use crate::ingest::Ingest;
use crate::knn::{agrees, KnnGraph};
use crate::report::{per_layer, Outcome, END_TO_END};
use crate::serving::{qps_at_slo, Serving};
use crate::spans::Spans;
use crate::{run_named, Options, Workload, WORKLOADS};
use bench::report::Json;
use std::path::PathBuf;

/// `BENCHMARK.json` at the repository root, found by walking up from
/// this package's manifest.
fn benchmark_json() -> Json {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let path = dir.join("BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(&path) {
            return Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
        assert!(dir.pop(), "no BENCHMARK.json above the manifest");
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let list = |key| {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("missing array {key:?}"))
    };

    let workloads: Vec<&str> = list("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads, WORKLOADS);

    let e2e = list("end_to_end");
    assert!(e2e.len() <= 16);
    let specs: Vec<(&str, &str, &str)> = e2e
        .iter()
        .map(|m| {
            (
                str_field(m, "name"),
                str_field(m, "unit"),
                str_field(m, "better"),
            )
        })
        .collect();
    assert_eq!(specs, END_TO_END);
    let bounds: Vec<f64> = e2e
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25), "{bounds:?}");
    let setup_bound = bounds[0];
    assert!(
        bounds.iter().all(|b| *b <= setup_bound),
        "setup_s has the largest bound"
    );

    let layers = list("per_layer");
    assert!(layers.len() <= 128);
    let got: Vec<(String, &str, &str)> = layers
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit"),
                str_field(m, "better"),
            )
        })
        .collect();
    assert_eq!(got, per_layer());

    let mut names: Vec<&str> = workloads.clone();
    names.extend(specs.iter().map(|s| s.0));
    names.extend(got.iter().map(|s| s.0.as_str()));
    for n in &names {
        assert!(valid_name(n), "invalid metric or workload name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names repeat");
}

fn smoke(workload: &str, trace: bool) -> Outcome {
    let o = Options {
        seed: 1,
        reps: 2,
        seconds: 0.0,
        trace,
    };
    run_named(workload, true, &o).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn smoke_runs_emit_every_metric_and_pass_their_checks() {
    for w in WORKLOADS {
        let plain = smoke(w, false);
        assert_eq!(plain.failed, 0, "{w}");
        let reported = plain.reported();
        let names: Vec<&str> = reported.iter().map(|r| r.0.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|s| s.0).collect();
        assert_eq!(names, want, "{w}");
        for (name, v, _) in &reported {
            assert!(v.is_finite() && *v > 0.0, "{w}: {name} = {v}");
        }
        let line = Json::parse(&plain.result_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(plain.bench_report().to_json().contains("\"workload\":"));

        let traced = smoke(w, true);
        assert_eq!(traced.failed, 0, "{w} traced");
        let names: Vec<String> = traced.reported().into_iter().map(|r| r.0).collect();
        let want: Vec<String> = per_layer().into_iter().map(|r| r.0).collect();
        assert_eq!(names, want, "{w}");
        let trace = traced
            .trace
            .as_deref()
            .expect("a traced run keeps its trace");
        bench::validate_chrome_trace(trace).expect("valid chrome trace");
        assert!(traced.metrics.get("bench.trace_spans") > 0.0, "{w}");
        assert!(traced.metrics.get("kernels.pairwise_host_s") > 0.0, "{w}");
    }
}

/// Wrong answers the oracle finds after one answer of a smoke pass is
/// damaged (none before).
fn caught<W: Workload>(w: &W) -> u64 {
    let inputs = w.setup(1, &mut Spans::new(false)).expect("setup");
    let mut pass = w.pass(&inputs, &mut Spans::new(false)).expect("pass");
    assert_eq!(w.check(&inputs, &pass).expect("check"), 0);
    w.corrupt(&mut pass);
    w.check(&inputs, &pass).expect("check")
}

#[test]
fn a_damaged_answer_counts_as_failed() {
    assert_eq!(caught(&KnnGraph { smoke: true }), 1);
    assert_eq!(caught(&Serving::steady(true)), 1);
    assert_eq!(caught(&Serving::churn(true)), 1);
    assert_eq!(caught(&Ingest { smoke: true }), 1);
}

#[test]
fn ties_are_tolerated_and_wrong_neighbors_are_not() {
    let want = [(4, 0.5), (7, 1.0), (2, 1.0)];
    assert!(agrees(&[4, 7, 2], &[0.5, 1.0, 1.0], &want));
    // Equal distances may come back in another order, or as a
    // different row at the boundary distance.
    assert!(agrees(&[4, 2, 7], &[0.5, 1.0, 1.0], &want));
    assert!(agrees(&[4, 7, 9], &[0.5, 1.0, 1.0], &want));
    assert!(!agrees(&[4, 7, 9], &[0.5, 1.0, 1.5], &want));
    assert!(!agrees(&[4, 9, 2], &[0.5, 0.9, 1.0], &want));
    assert!(!agrees(&[4, 4, 2], &[0.5, 1.0, 1.0], &want));
    assert!(!agrees(&[4, 7], &[0.5, 1.0], &want));
}

#[test]
fn qps_at_slo_interpolates_log_linearly_inside_the_ladder() {
    let r = qps_at_slo(&[(250e3, 0.0), (500e3, 0.005), (1e6, 0.015)]);
    let want = 500e3 * 2f64.powf(0.5);
    assert!((r - want).abs() < 1e-6 * want, "{r}");
    assert_eq!(qps_at_slo(&[(1e5, 0.5), (2e5, 0.9)]), 1e5);
    assert_eq!(qps_at_slo(&[(1e5, 0.0), (2e5, 0.0)]), 2e5);
}
