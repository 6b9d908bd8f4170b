//! Volta vs Ampere comparison (§3.3.2's architecture-dependent limits).
//!
//! The paper sizes its shared-memory strategy against both generations:
//! dense rows fit "a max dimensionality of 23K with single-precision
//! [Volta] and ... 40K [Ampere]" per block, "actually 12K and 20K" at
//! full occupancy, and the hash table "allows for a max degree of 3K on
//! Volta architectures and 5K on Ampere". This harness prints those
//! derived limits from the device models, then runs the same hybrid
//! k-NN ([`bench::suite::run_knn_cell`], device selection included) on
//! both simulated devices, over the NY Times profile at `--scale`
//! ([`bench::suite::scaled`]; the default 0.01 keeps a tenth of its
//! degrees).
//!
//! Usage: `cargo run --release -p bench --bin arch_compare \
//!   [-- --scale 0.01 --seed 1] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::{query_slab, run_knn_cell, scaled, Column};
use bench::{Flag, JSON, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::{Device, SmemHashTable};
use kernels::hybrid::{resolve_config, smem_budget};
use semiring::{Distance, DistanceParams};

const FLAGS: &[Flag] = &[SCALE.default("0.01"), SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("arch_compare");
    let devices = [Device::volta(), Device::ampere()];

    println!("Section 3.3.2 capacity limits, derived from the device models:");
    println!(
        "{:<8} {:>14} {:>16} {:>16} {:>14}",
        "arch", "smem/block", "dense k (block)", "dense k (occup)", "hash max deg"
    );
    for dev in &devices {
        let spec = dev.spec();
        let budget = smem_budget(dev);
        let dense_block = spec.max_dense_smem_elems();
        let dense_occ = budget / 4;
        let hash_cap = budget / SmemHashTable::<f32>::smem_bytes(1);
        println!(
            "{:<8} {:>11} KiB {:>16} {:>16} {:>14}",
            spec.name,
            spec.shared_mem_per_block / 1024,
            dense_block,
            dense_occ,
            hash_cap / 2,
        );
        report.push(
            MetricRow::new()
                .label("arch", spec.name)
                .label("section", "capacity")
                .value("smem_per_block_bytes", spec.shared_mem_per_block as f64)
                .value("dense_k_block", dense_block as f64)
                .value("dense_k_occupancy", dense_occ as f64)
                .value("hash_max_degree", (hash_cap / 2) as f64),
        );
    }
    println!(
        "paper: ~23K/40K dense per block, 12K/20K at full occupancy,\n\
         3K/5K max hash-mode degree.\n"
    );

    // Mode selection flips with the architecture: a 15K-dimensional
    // input is hash-mode on Volta but dense-mode on Ampere.
    let k15 = 15_000;
    for dev in &devices {
        let cfg = resolve_config::<f32>(dev, k15, None).expect("config ok");
        println!(
            "k = {k15}: {} auto-selects {:?} ({} KiB/block)",
            dev.spec().name,
            cfg.kind,
            cfg.smem_per_block / 1024
        );
    }

    // Same workload on both devices.
    let profile = scaled(&DatasetProfile::nytimes_bow(), args.real("--scale"));
    let index = profile.generate(seed);
    let queries = query_slab(&index);
    let params = DistanceParams::default();
    println!(
        "\nworkload: {} queries x {} index rows ({}), simulated seconds:",
        queries.rows(),
        index.rows(),
        profile.name
    );
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "arch", "Cosine", "Manhattan", "speedup*"
    );
    let mut volta_total = 0.0;
    for dev in &devices {
        let times: Vec<f64> = [Distance::Cosine, Distance::Manhattan]
            .into_iter()
            .map(|d| {
                run_knn_cell(dev, &queries, &index, d, &params, Column::Hybrid)
                    .value
                    .sim_seconds
            })
            .collect();
        let total: f64 = times.iter().sum();
        if dev.spec().name == "V100" {
            volta_total = total;
        }
        println!(
            "{:<8} {:>14.6} {:>14.6} {:>9.2}x",
            dev.spec().name,
            times[0],
            times[1],
            volta_total / total
        );
        report.push(
            MetricRow::new()
                .label("arch", dev.spec().name)
                .label("section", "workload")
                .label("dataset", profile.name)
                .value("cosine_sim_seconds", times[0])
                .value("manhattan_sim_seconds", times[1])
                .value("speedup_vs_v100", volta_total / total),
        );
    }
    println!("* vs V100 total; A100's gain tracks its SM count and bandwidth.");
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
