//! Regenerates **Table 2** — "Datasets used in experiments": size,
//! density, min degree and max degree per dataset — from the synthetic
//! replicas, next to the paper's published values.
//!
//! Usage: `cargo run --release -p bench --bin table2 \
//!   [-- --scale 0.01 --seed 1] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::default_scale;
use bench::{Flag, JSON, SCALE, SEED};
use sparse::DegreeStats;

const FLAGS: &[Flag] = &[SCALE, SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let scale = args.opt_real("--scale");
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("table2");

    println!("Table 2: Datasets used in experiments (synthetic replicas)");
    println!("{}", "-".repeat(100));
    println!(
        "{:<14} {:>18} {:>9} {:>8} {:>8} | {:>18} {:>9} {:>8} {:>8}",
        "Dataset",
        "Size",
        "Density",
        "MinDeg",
        "MaxDeg",
        "paper: Size",
        "Density",
        "MinDeg",
        "MaxDeg"
    );
    println!("{}", "-".repeat(100));
    // Uniform scaling: Table 2 reports the datasets' shape statistics,
    // which uniform scaling preserves (density exactly, degrees
    // proportionally).
    for profile in datasets::all_profiles() {
        let s = scale.unwrap_or_else(|| default_scale(profile.name));
        let profile = profile.scaled(s);
        let m = profile.generate(seed);
        let s = DegreeStats::of(&m);
        let paper = profile.paper;
        println!(
            "{:<14} {:>18} {:>8.4}% {:>8} {:>8} | {:>18} {:>8.4}% {:>8} {:>8}",
            profile.name,
            format!("({}, {})", s.rows, s.cols),
            s.density * 100.0,
            s.min_degree,
            s.max_degree,
            format!("({}K, {}K)", paper.size.0 / 1000, paper.size.1 / 1000),
            paper.density * 100.0,
            paper.min_degree,
            paper.max_degree,
        );
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .value("rows", s.rows as f64)
                .value("cols", s.cols as f64)
                .value("density", s.density)
                .value("min_degree", s.min_degree as f64)
                .value("max_degree", s.max_degree as f64)
                .value("paper_density", paper.density)
                .value("paper_min_degree", paper.min_degree as f64)
                .value("paper_max_degree", paper.max_degree as f64),
        );
    }
    println!("{}", "-".repeat(100));
    println!(
        "note: replicas are scaled down (default per-dataset scales); density is\n\
         preserved under scaling while min/max degree scale with the factor."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
