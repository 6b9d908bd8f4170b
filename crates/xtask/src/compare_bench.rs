//! `compare_bench` — the CI perf-regression gate.
//!
//! The simulator's counters and roofline seconds are fully
//! deterministic, so perf can be gated without flake: a committed
//! baseline (`experiments_output/BENCH_baseline.json`) records every
//! metric row of the `counters_report` and `shard_scaling` harnesses,
//! and this tool diffs a fresh run against it. Any value drifting by
//! more than the tolerance — in either direction, since an unexplained
//! *improvement* means the baseline is stale — fails the gate. A PR
//! that intentionally changes performance refreshes the baseline with
//! `scripts/update_baselines.sh` and commits the diff.
//!
//! Compare mode (the CI `perf-gate` job):
//!
//! ```text
//! cargo run -p xtask --bin compare_bench -- \
//!     --baseline experiments_output/BENCH_baseline.json \
//!     [--tolerance 0.10] fresh_counters.json fresh_shard.json
//! ```
//!
//! Baseline-write mode (used by the refresh script):
//!
//! ```text
//! cargo run -p xtask --bin compare_bench -- \
//!     --write-baseline experiments_output/BENCH_baseline.json \
//!     fresh_counters.json fresh_shard.json
//! ```
//!
//! The baseline is itself a `bench.v1` document named `bench_baseline`;
//! each row carries a `report` label naming its source harness, so one
//! file gates any number of harnesses. Rows are matched on their full
//! label set (plus occurrence index for safety); a baseline row with no
//! match in the fresh run fails the gate, while brand-new rows in the
//! fresh run are reported but allowed (the next refresh absorbs them).

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use bench::{validate_report, Json};

/// One metric row, flattened: sorted labels (including the injected
/// `report` label) and its numeric values.
struct Row {
    labels: Vec<(String, String)>,
    values: Vec<(String, f64)>,
}

impl Row {
    /// Stable identity of the row: the full label set, serialized.
    fn key(&self) -> String {
        let parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(",")
    }
}

/// Loads a `bench.v1` report and flattens its rows, tagging each with a
/// `report=<name>` label (already present when re-reading a baseline).
fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_report(&text).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let mut rows = Vec::new();
    for row in json.get("rows").and_then(Json::as_arr).unwrap_or_default() {
        let mut labels: Vec<(String, String)> = row
            .get("labels")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect();
        if !labels.iter().any(|(k, _)| k == "report") {
            labels.push(("report".to_string(), name.clone()));
        }
        labels.sort();
        let mut values: Vec<(String, f64)> = row
            .get("values")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
            .collect();
        values.sort_by(|a, b| a.0.cmp(&b.0));
        rows.push(Row { labels, values });
    }
    Ok(rows)
}

/// Groups rows by identity key; within a key, order of occurrence is
/// the tiebreak (harness emission order is deterministic).
fn index_rows(rows: Vec<Row>) -> BTreeMap<String, Vec<Row>> {
    let mut map: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for row in rows {
        map.entry(row.key()).or_default().push(row);
    }
    map
}

fn write_baseline(out: &str, inputs: &[String]) -> Result<(), String> {
    let mut rows = Vec::new();
    for path in inputs {
        rows.extend(load_rows(path)?);
    }
    if rows.is_empty() {
        return Err("refusing to write an empty baseline".to_string());
    }
    // Re-emit as a bench.v1 document through the same escaping rules
    // the writers use (labels/values are already parser-round-tripped).
    let mut body = String::new();
    body.push_str("{\"schema\":\"bench.v1\",\"name\":\"bench_baseline\",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"labels\":{");
        for (j, (k, v)) in row.labels.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{k}\":\"{v}\""));
        }
        body.push_str("},\"values\":{");
        for (j, (k, v)) in row.values.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{k}\":{v:?}"));
        }
        body.push_str("}}");
    }
    body.push_str("]}\n");
    validate_report(&body).map_err(|e| format!("generated baseline invalid: {e}"))?;
    fs::write(out, &body).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("compare_bench: wrote baseline {out} ({} rows)", rows.len());
    Ok(())
}

fn compare(baseline: &str, inputs: &[String], tolerance: f64) -> Result<usize, String> {
    let base = index_rows(load_rows(baseline)?);
    let mut fresh_rows = Vec::new();
    for path in inputs {
        fresh_rows.extend(load_rows(path)?);
    }
    let fresh = index_rows(fresh_rows);

    let mut failures = 0usize;
    let mut compared = 0usize;
    for (key, base_group) in &base {
        let fresh_group = fresh.get(key).map(Vec::as_slice).unwrap_or_default();
        for (i, brow) in base_group.iter().enumerate() {
            let Some(frow) = fresh_group.get(i) else {
                failures += 1;
                println!("FAIL missing row [{key}] (#{i}) in fresh run");
                continue;
            };
            let fvals: BTreeMap<&str, f64> =
                frow.values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            for (vk, bv) in &brow.values {
                let Some(&fv) = fvals.get(vk.as_str()) else {
                    failures += 1;
                    println!("FAIL missing value {vk} in [{key}]");
                    continue;
                };
                compared += 1;
                let denom = bv.abs().max(1e-12);
                let drift = (fv - bv) / denom;
                if drift.abs() > tolerance {
                    failures += 1;
                    println!(
                        "FAIL {vk} [{key}]: baseline {bv:.6e}, current {fv:.6e} \
                         ({:+.1}% > ±{:.0}%)",
                        drift * 100.0,
                        tolerance * 100.0
                    );
                }
            }
        }
    }
    // New rows are informational: the gate only guards known metrics.
    let new_rows: usize = fresh
        .iter()
        .filter(|(k, _)| !base.contains_key(*k))
        .map(|(_, v)| v.len())
        .sum();
    if new_rows > 0 {
        println!(
            "note: {new_rows} fresh row(s) not in the baseline \
             (refresh to start gating them)"
        );
    }
    println!(
        "compare_bench: {compared} values compared against {baseline}, \
         {failures} failure(s), tolerance ±{:.0}%",
        tolerance * 100.0
    );
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut write: Option<String> = None;
    let mut tolerance = 0.10f64;
    let mut inputs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" | "--write-baseline" | "--tolerance" => {
                let Some(operand) = args.get(i + 1) else {
                    eprintln!("error: {} expects an operand", args[i]);
                    return ExitCode::FAILURE;
                };
                match args[i].as_str() {
                    "--baseline" => baseline = Some(operand.clone()),
                    "--write-baseline" => write = Some(operand.clone()),
                    _ => match operand.parse::<f64>() {
                        Ok(t) if t >= 0.0 => tolerance = t,
                        _ => {
                            eprintln!("error: bad --tolerance {operand}");
                            return ExitCode::FAILURE;
                        }
                    },
                }
                i += 2;
            }
            other => {
                inputs.push(other.to_string());
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        eprintln!("compare_bench: no fresh bench.v1 files given");
        return ExitCode::FAILURE;
    }
    let result = match (&write, &baseline) {
        (Some(out), None) => write_baseline(out, &inputs).map(|()| 0),
        (None, Some(base)) => compare(base, &inputs, tolerance),
        _ => {
            eprintln!("compare_bench: pass exactly one of --baseline <file> (compare) or --write-baseline <file> (refresh)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
