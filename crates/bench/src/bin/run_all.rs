//! Runs every evaluation harness in sequence and tees each one's output
//! into `experiments_output/` — the single command that regenerates the
//! full evaluation section. Each harness also writes its machine-readable
//! `bench.v1` document to `experiments_output/BENCH_<name>.json`, which
//! `xtask check_bench_json` validates in CI.
//!
//! Usage: `cargo run --release -p bench --bin run_all [-- --scale 0.005 --seed 1]`
//!
//! (Each harness is invoked as a subprocess of the same build. A given
//! `--scale` or `--seed` is forwarded to every harness; an absent one
//! leaves each harness at its own default.)

use bench::{Flag, SCALE, SEED};
use std::fs;
use std::path::Path;
use std::process::Command;

const HARNESSES: [&str; 13] = [
    "table2",
    "figure1",
    "table3",
    "memory_footprint",
    "speedup",
    "counters_report",
    "arch_compare",
    "resilience_report",
    "shard_scaling",
    "ann_recall",
    "serve_throughput",
    "serve_fleet",
    "serve_ingest",
];

const FLAGS: &[Flag] = &[SCALE, SEED];

fn main() {
    bench::parse_args(FLAGS);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = Path::new("experiments_output");
    fs::create_dir_all(out_dir).expect("can create experiments_output/");

    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();

    let mut failures = 0;
    for name in HARNESSES {
        println!("=== {name} ===");
        let bin = exe_dir.join(name);
        let json_path = out_dir.join(format!("BENCH_{name}.json"));
        let output = Command::new(&bin)
            .args(&args)
            .arg("--json")
            .arg(&json_path)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()));
        let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
        if !output.stderr.is_empty() {
            text.push_str("\n--- stderr ---\n");
            text.push_str(&String::from_utf8_lossy(&output.stderr));
        }
        let path = out_dir.join(format!("{name}.txt"));
        fs::write(&path, &text).expect("can write harness output");
        if output.status.success() {
            println!("ok -> {}", path.display());
        } else {
            failures += 1;
            println!("FAILED (see {})", path.display());
        }
    }
    println!(
        "\n{} of {} harnesses succeeded; outputs in {}/",
        HARNESSES.len() - failures,
        HARNESSES.len(),
        out_dir.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
