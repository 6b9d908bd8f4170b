//! `check_recall` — the CI recall-regression gate for the IVF tier.
//!
//! The IVF index, its fit, and the simulator are all deterministic, so
//! approximate-search *quality* can be gated exactly like performance:
//! a committed floor (`experiments_output/ANN_recall_floor.json`, a
//! `bench.v1` document) records the recall@k of every
//! (dataset, distance, nprobe) operating point the `ann_recall`
//! harness sweeps, and this tool fails when a fresh run's recall drops
//! below any committed floor — a silent quality regression — or when a
//! floored operating point disappears from the sweep. Fresh points the
//! floor does not know are reported but allowed (the next refresh
//! absorbs them).
//!
//! Two structural invariants are re-checked from the document itself,
//! independent of the floor: recall@k must be monotone non-decreasing
//! in `nprobe` within each (dataset, distance) curve, and the
//! `nprobe == nlist` point must report recall exactly 1.0 (it is
//! byte-identical to the exact oracle by construction — DESIGN §15).
//!
//! Gate mode (the CI `ann-recall-gate` job):
//!
//! ```text
//! cargo run -p xtask --bin check_recall -- \
//!     --floor experiments_output/ANN_recall_floor.json fresh_ann.json
//! ```
//!
//! Floor-write mode (used by `scripts/update_baselines.sh`):
//!
//! ```text
//! cargo run -p xtask --bin check_recall -- \
//!     --write-floor experiments_output/ANN_recall_floor.json fresh_ann.json
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use bench::report::{BenchReport, MetricRow};

/// One swept operating point from an `ann_recall` bench.v1 document.
struct Point {
    dataset: String,
    distance: String,
    nprobe: u64,
    nlist: u64,
    recall: f64,
}

/// Identity of a point inside the floor map.
fn key(dataset: &str, distance: &str, nprobe: u64) -> String {
    format!("{dataset}/{distance}/nprobe={nprobe}")
}

/// Reads and validates a `bench.v1` document.
fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `(dataset, distance, nprobe)` labels identifying a row's
/// operating point.
fn operating_point(row: &MetricRow) -> Result<(&str, &str, u64), String> {
    let (Some(dataset), Some(distance), Some(nprobe)) = (
        row.find_label("dataset"),
        row.find_label("distance"),
        row.find_label("nprobe"),
    ) else {
        return Err("is missing its dataset/distance/nprobe labels".to_string());
    };
    let nprobe = nprobe
        .parse()
        .map_err(|_| format!("has non-integer nprobe {nprobe:?}"))?;
    Ok((dataset, distance, nprobe))
}

fn load_points(path: &str) -> Result<Vec<Point>, String> {
    let mut points = Vec::new();
    for (i, row) in load_report(path)?.rows.iter().enumerate() {
        let (dataset, distance, nprobe) =
            operating_point(row).map_err(|e| format!("{path}: row {i} {e}"))?;
        let (Some(recall), Some(nlist)) = (row.find_value("recall_at_k"), row.find_value("nlist"))
        else {
            return Err(format!("{path}: row {i} is missing recall_at_k / nlist"));
        };
        if !(0.0..=1.0).contains(&recall) {
            return Err(format!("{path}: row {i} recall {recall} outside [0, 1]"));
        }
        points.push(Point {
            dataset: dataset.to_string(),
            distance: distance.to_string(),
            nprobe,
            nlist: nlist as u64,
            recall,
        });
    }
    if points.is_empty() {
        return Err(format!("{path}: no operating points (empty sweep)"));
    }
    Ok(points)
}

/// The structural invariants any ann_recall document must satisfy,
/// floor or not: monotone recall within each curve, exact recall at
/// the full-probe point.
fn check_structure(points: &[Point]) -> Result<(), String> {
    let mut curves: BTreeMap<(String, String), Vec<(u64, f64)>> = BTreeMap::new();
    for p in points {
        curves
            .entry((p.dataset.clone(), p.distance.clone()))
            .or_default()
            .push((p.nprobe, p.recall));
    }
    for ((dataset, distance), mut curve) in curves {
        curve.sort_by_key(|&(nprobe, _)| nprobe);
        for pair in curve.windows(2) {
            let ((p0, r0), (p1, r1)) = (pair[0], pair[1]);
            if r1 < r0 - 1e-12 {
                return Err(format!(
                    "{dataset}/{distance}: recall not monotone in nprobe \
                     ({r0} at {p0} -> {r1} at {p1})"
                ));
            }
        }
    }
    for p in points {
        if p.nprobe >= p.nlist && (p.recall - 1.0).abs() > 1e-12 {
            return Err(format!(
                "{}/{}: full probe (nprobe {} >= nlist {}) must recall 1.0, got {}",
                p.dataset, p.distance, p.nprobe, p.nlist, p.recall
            ));
        }
    }
    Ok(())
}

fn write_floor(path: &str, points: &[Point]) {
    let mut report = BenchReport::new("ann_recall_floor");
    for p in points {
        report.push(
            MetricRow::new()
                .label("dataset", &p.dataset)
                .label("distance", &p.distance)
                .label("nprobe", &p.nprobe.to_string())
                .value("nlist", p.nlist as f64)
                .value("recall_floor", p.recall),
        );
    }
    report.write(path);
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut floor_path = None;
    let mut write_path = None;
    let mut fresh = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--floor" | "--write-floor" => {
                let path = args
                    .get(i + 1)
                    .ok_or(format!("{} expects a path operand", args[i]))?;
                if args[i] == "--floor" {
                    floor_path = Some(path.clone());
                } else {
                    write_path = Some(path.clone());
                }
                i += 2;
            }
            other => {
                fresh.push(other.to_string());
                i += 1;
            }
        }
    }
    let [fresh] = fresh.as_slice() else {
        return Err("expected exactly one fresh ann_recall bench.v1 document".to_string());
    };
    let points = load_points(fresh)?;
    check_structure(&points)?;

    if let Some(path) = write_path {
        write_floor(&path, &points);
        println!(
            "wrote recall floor with {} operating point(s) to {path}",
            points.len()
        );
        return Ok(true);
    }

    let floor_path = floor_path.ok_or("pass --floor <path> or --write-floor <path>")?;
    let mut floors: BTreeMap<String, f64> = BTreeMap::new();
    for (i, row) in load_report(&floor_path)?.rows.iter().enumerate() {
        let (dataset, distance, nprobe) =
            operating_point(row).map_err(|e| format!("{floor_path}: row {i} {e}"))?;
        let Some(recall) = row.find_value("recall_floor") else {
            return Err(format!("{floor_path}: row {i} is missing recall_floor"));
        };
        floors.insert(key(dataset, distance, nprobe), recall);
    }
    if floors.is_empty() {
        return Err(format!("{floor_path}: empty floor (refresh and commit it)"));
    }

    let mut ok = true;
    let mut seen = 0usize;
    for p in &points {
        let k = key(&p.dataset, &p.distance, p.nprobe);
        match floors.remove(&k) {
            Some(floor) => {
                seen += 1;
                if p.recall < floor - 1e-12 {
                    eprintln!(
                        "FAIL {k}: recall {} fell below committed floor {floor}",
                        p.recall
                    );
                    ok = false;
                } else if p.recall > floor + 1e-12 {
                    println!(
                        "note {k}: recall {} above floor {floor} (refresh absorbs the gain)",
                        p.recall
                    );
                }
            }
            None => println!(
                "new operating point {k} (recall {}), not floored yet",
                p.recall
            ),
        }
    }
    for (k, floor) in &floors {
        eprintln!("FAIL {k}: floored at {floor} but missing from the fresh sweep");
        ok = false;
    }
    println!(
        "checked {seen} floored operating point(s) across {} fresh row(s)",
        points.len()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "recall gate failed — if this quality change is intentional, refresh \
                 with scripts/update_baselines.sh and commit the diff"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
