//! Regenerates **Figure 1** — "CDFs of Degree Distributions for the
//! datasets used in our benchmark on the interval 0-99%" — as a
//! per-percentile series plus an ASCII sketch, and checks the paper's
//! qualitative claims about each curve.
//!
//! Usage: `cargo run --release -p bench --bin figure1 \
//!   [-- --scale 0.01 --seed 1] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::default_scale;
use bench::{Flag, JSON, SCALE, SEED};
use sparse::degree_cdf;

const FLAGS: &[Flag] = &[SCALE, SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let scale = args.opt_real("--scale");
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("figure1");

    println!("Figure 1: degree-distribution CDFs (percentile -> degree)");
    // Uniform scaling here: Figure 1 is *about* the degree CDF, and
    // uniform scaling is the transformation that preserves its shape.
    let mut curves = Vec::new();
    for profile in datasets::all_profiles() {
        let s = scale.unwrap_or_else(|| default_scale(profile.name));
        let m = profile.scaled(s).generate(seed);
        let cdf = degree_cdf(&m);
        curves.push((profile.name, s, cdf));
    }

    // Tabular series, every 10th percentile (the regenerable "figure").
    print!("{:>11}", "percentile");
    for (name, _, _) in &curves {
        print!(" {name:>14}");
    }
    println!();
    for p in (0..100).step_by(10).chain([99]) {
        print!("{p:>10}%");
        for (_, _, cdf) in &curves {
            print!(" {:>14}", cdf[p]);
        }
        println!();
    }

    // ASCII sketch: degree (log-ish buckets) vs percentile, one row per
    // dataset.
    println!("\nsketch (each column = 5 percentiles, height ∝ log2(degree+1)):");
    for (name, _, cdf) in &curves {
        let bars: String = (0..100)
            .step_by(5)
            .map(|p| {
                let h = (cdf[p] as f64 + 1.0).log2().round() as usize;
                char::from_u32(0x2581 + h.min(7) as u32).unwrap_or('█')
            })
            .collect();
        println!("  {name:<14} {bars}");
    }

    // The paper's qualitative checkpoints, rescaled to the generated
    // matrices: degrees scale with the factor, so thresholds do too.
    println!("\nqualitative checkpoints vs the paper (thresholds scaled by factor):");
    for (name, s, cdf) in &curves {
        let (pct, paper_threshold, claim): (usize, f64, &str) = match *name {
            "SEC Edgar" => (99, 10.0, "99% of degrees < 10"),
            "MovieLens" => (88, 200.0, "88% of degrees < 200"),
            "scRNA" => (98, 5000.0, "98% of rows have degree <= 5k"),
            "NY Times BoW" => (99, 1000.0, "99% of rows have degree < 1k"),
            _ => continue,
        };
        let scaled = (paper_threshold * s).max(1.0);
        let got = cdf[pct] as f64;
        let ok = got <= scaled * 1.5; // generous band: shape, not decimals
        println!(
            "  {:<14} {:<32} p{}={:<8} scaled threshold {:<8.1} {}",
            name,
            claim,
            pct,
            got,
            scaled,
            if ok { "OK" } else { "MISS" }
        );
    }
    if let Some(path) = json_path {
        for (name, s, cdf) in &curves {
            for p in (0..100).step_by(10).chain([99]) {
                report.push(
                    MetricRow::new()
                        .label("dataset", name)
                        .label("series", "degree_cdf")
                        .value("percentile", p as f64)
                        .value("degree", cdf[p] as f64)
                        .value("scale", *s),
                );
            }
        }
        report.write(path);
        println!("wrote {path}");
    }
}
