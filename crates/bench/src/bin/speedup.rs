//! Regenerates the **§4.2 speedup summary**: "Compared to the CPU, we
//! observed an average of 28.78× speedup for the dot-product-based
//! distances and 29.17× speedup for the distances which require the
//! non-annihilating product monoid."
//!
//! The CPU side is this machine's real multithreaded brute-force k-NN
//! (`CpuBruteForce::knn`, the scikit-learn analog, median wall-clock of
//! `CPU_REPS` runs); the GPU
//! side is the simulated V100 time of the hybrid k-NN, device selection
//! included ([`bench::suite::run_knn_cell`]). Absolute ratios therefore
//! depend on the host CPU, but the paper's qualitative result —
//! order-of-magnitude GPU advantage, *similar* for both distance
//! families — is the target.
//!
//! Usage: `cargo run --release -p bench --bin speedup \
//!   [-- --scale 0.005 --seed 1] [--json out.json]`

use baseline::CpuBruteForce;
use bench::report::{BenchReport, MetricRow};
use bench::runner::Timed;
use bench::suite::{
    dot_based_distances, geometric_mean, non_trivial_distances, query_slab, run_knn_cell, Column,
    KNN_K,
};
use bench::{Flag, JSON, SCALE, SEED};
use gpu_sim::Device;
use semiring::DistanceParams;

/// Timed runs of each CPU cell. The CPU column is their median, so one
/// run disturbed by other work on the host does not move §4.2's ratios.
const CPU_REPS: usize = 5;

const FLAGS: &[Flag] = &[SCALE.default("0.005"), SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let scale = args.real("--scale");
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("speedup");
    let dev = Device::volta();
    let params = DistanceParams { minkowski_p: 3.0 };
    let cpu = CpuBruteForce::default();

    println!(
        "Section 4.2 speedup: CPU wall-clock ({} threads) vs simulated V100 (scale {scale})",
        cpu.threads()
    );
    let mut group_ratios: Vec<(String, Vec<f64>)> = Vec::new();
    for (group, distances) in [
        ("Dot Product Based", dot_based_distances()),
        ("Non-Trivial (NAMM)", non_trivial_distances()),
    ] {
        println!("\n-- {group} --");
        println!(
            "{:<16} {:>12} {:>14} {:>10}",
            "Distance", "CPU(s)", "GPU sim(s)", "Speedup"
        );
        let mut ratios = Vec::new();
        for profile in bench::suite::bench_profiles(Some(scale)) {
            let index = profile.generate(seed);
            let queries = query_slab(&index);
            for &d in &distances {
                let mut cpu_runs: Vec<f64> = (0..CPU_REPS)
                    .map(|_| {
                        Timed::run(|| cpu.knn(&queries, &index, KNN_K, d, &params)).host_seconds
                    })
                    .collect();
                cpu_runs.sort_by(f64::total_cmp);
                let cpu_seconds = cpu_runs[CPU_REPS / 2];
                let gpu = run_knn_cell(&dev, &queries, &index, d, &params, Column::Hybrid).value;
                let ratio = cpu_seconds / gpu.sim_seconds.max(1e-12);
                ratios.push(ratio);
                println!(
                    "{:<16} {:>12.4} {:>14.6} {:>9.1}x   [{}]",
                    d.name(),
                    cpu_seconds,
                    gpu.sim_seconds,
                    ratio,
                    profile.name
                );
                report.push(
                    MetricRow::new()
                        .label("dataset", profile.name)
                        .label("group", group)
                        .label("distance", d.name())
                        .value("cpu_seconds", cpu_seconds)
                        .value("gpu_sim_seconds", gpu.sim_seconds)
                        .value("speedup", ratio),
                );
            }
        }
        group_ratios.push((group.to_string(), ratios));
    }

    println!("\nsummary (geometric mean speedup per group):");
    for (group, ratios) in &group_ratios {
        let gm = geometric_mean(ratios);
        println!("  {group:<20} {gm:8.1}x over {} cells", ratios.len());
    }
    println!(
        "\npaper reference: 28.78x (dot-based) and 29.17x (NAMM) — similar\n\
         magnitudes across both families is the reproduction target."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
