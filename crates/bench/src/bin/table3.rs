//! Regenerates **Table 3** — "Benchmark Results for all datasets under
//! consideration" — baseline vs. our hybrid kernel for all fourteen
//! benchmark distances on all four (synthetic, scaled) datasets.
//!
//! Method mapping, exactly as §4.2 describes:
//!
//! * **Baseline**, dot-product group → cuSPARSE-style `csrgemm()`
//!   pipeline (explicit `Bᵀ`, sparse output, densification).
//! * **Baseline**, non-trivial group → the naive full-union CSR kernel
//!   (Alg 2), "for the distances which cuSPARSE does not support".
//! * **RAFT (ours)** → the load-balanced hybrid CSR+COO kernel with the
//!   hash-table shared-memory strategy, the configuration §4.2
//!   benchmarks.
//!
//! Each cell is one end-to-end k-NN query (`k = 10`) of 256 query rows
//! against the full index through [`bench::suite::run_knn_cell`], with
//! the top-k selection a billed device launch in both columns (the
//! paper times cuML's `NearestNeighbors`, which selects on the GPU).
//! Times are *simulated GPU seconds* from the shared roofline cost
//! model; the paper's absolute numbers are not reproducible without the
//! authors' V100, but the winner and rough factor per cell are the
//! reproduction targets (see EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p bench --bin table3 \
//!   [-- --scale 0.01 --seed 1] [--json out.json]` (one bench.v1 row per
//! cell, with each column's selection seconds, and one per launch).

use bench::report::{BenchReport, MetricRow};
use bench::suite::{
    bench_profiles, dot_based_distances, geometric_mean, non_trivial_distances, query_slab,
    run_knn_cell, Column, KNN_K,
};
use bench::{Flag, JSON, SCALE, SEED};
use gpu_sim::Device;
use semiring::DistanceParams;

const FLAGS: &[Flag] = &[SCALE, SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let scale = args.opt_real("--scale");
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("table3");
    let dev = Device::volta();
    let params = DistanceParams { minkowski_p: 3.0 };

    println!(
        "Table 3: baseline vs RAFT-style hybrid (simulated GPU seconds, k-NN k={KNN_K}, 256 queries,\n\
         device top-k selection billed in both columns; sel% = RAFT's selection share)"
    );
    for profile in bench_profiles(scale) {
        let index = profile.generate(seed);
        let queries = query_slab(&index);
        println!(
            "\n== {} ({}x{}, nnz {}, density {:.4}%) ==",
            profile.name,
            index.rows(),
            index.cols(),
            index.nnz(),
            index.density() * 100.0
        );
        println!(
            "{:<16} {:>14} {:>14} {:>9} {:>6}  {:>9}",
            "Distance", "Baseline(s)", "RAFT(s)", "Speedup", "sel%", "host(s)"
        );
        for (group, title, distances) in [
            ("dot-product", "Dot Product Based", dot_based_distances()),
            (
                "non-trivial",
                "Non-Trivial Metrics",
                non_trivial_distances(),
            ),
        ] {
            println!("-- {title} {}", "-".repeat(65 - title.len()));
            let mut group_speedups = Vec::new();
            for d in distances {
                let base = run_knn_cell(&dev, &queries, &index, d, &params, Column::Baseline);
                let raft = run_knn_cell(&dev, &queries, &index, d, &params, Column::Hybrid);
                let host = base.host_seconds + raft.host_seconds;
                let (base, raft) = (base.value, raft.value);
                let speedup = base.sim_seconds / raft.sim_seconds.max(1e-12);
                group_speedups.push(speedup);
                println!(
                    "{:<16} {:>14.6} {:>14.6} {:>8.2}x {:>5.1}%  {:>9.2}",
                    d.name(),
                    base.sim_seconds,
                    raft.sim_seconds,
                    speedup,
                    100.0 * raft.select_sim_seconds / raft.sim_seconds.max(1e-12),
                    host
                );
                report.push(
                    MetricRow::new()
                        .label("dataset", profile.name)
                        .label("group", group)
                        .label("distance", d.name())
                        .value("baseline_sim_seconds", base.sim_seconds)
                        .value("raft_sim_seconds", raft.sim_seconds)
                        .value("baseline_select_sim_seconds", base.select_sim_seconds)
                        .value("raft_select_sim_seconds", raft.select_sim_seconds)
                        .value("speedup", speedup)
                        .value("host_seconds", host),
                );
                for (column, run) in [("baseline", &base), ("raft", &raft)] {
                    let context = [
                        ("dataset", profile.name),
                        ("distance", d.name()),
                        ("column", column),
                    ];
                    report.push_launches(&context, &run.launches);
                }
            }
            let gm = geometric_mean(&group_speedups);
            println!("{:<16} {:>38} {:>8.2}x", "(geo-mean)", "", gm);
        }
    }
    println!(
        "\npaper shape targets: RAFT dominates every Non-Trivial cell (4-30x);\n\
         the Dot Product group is competitive (RAFT wins 2 of 4 datasets)."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
