//! Multi-device shard-scaling study for the batched k-NN benchmark.
//!
//! The paper's evaluation is throughput-bound on a single V100; related
//! SpGEMM-on-semirings work scales past one device by sharding. This
//! harness measures how simulated k-NN time falls as index slabs are
//! sharded round-robin across 1, 2, 4 and 8 simulated devices
//! ([`neighbors::MultiDevice`]): per-device simulated seconds, the
//! concurrent-makespan total (max over devices), and the speedup over
//! one device. Results are identical across device counts by
//! construction, so the speedup column is pure load-balance geometry.
//!
//! Usage: `cargo run --release -p bench --bin shard_scaling \
//!   [-- --scale 0.004 --seed 1 --k 8] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use bench::{Flag, JSON, K, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::{Counters, Device};
use neighbors::{MultiDevice, NearestNeighbors};
use semiring::Distance;

fn merged(launches: &[gpu_sim::LaunchStats]) -> Counters {
    let mut c = Counters::new();
    for l in launches {
        c.merge(&l.counters);
    }
    c
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, K.default("8"), JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let k = args.uint("--k") as usize;
    let json_path = args.text("--json");
    let mut report = BenchReport::new("shard_scaling");

    println!("Sharded k-NN scaling (Euclidean, k={k})");
    println!(
        "{:<14} {:>8} {:>7} {:>14} {:>14} {:>9}",
        "dataset", "devices", "tiles", "makespan ms", "busy-sum ms", "speedup"
    );
    for (profile, degs) in [
        (DatasetProfile::movielens(), 0.04),
        (DatasetProfile::scrna(), 0.01),
    ] {
        let index = profile.scaled_with(scale, degs).generate(seed);
        let queries = query_slab(&index);
        let mut baseline_seconds = None;
        for devices in [1usize, 2, 4, 8] {
            let multi = MultiDevice::replicate(&Device::volta(), devices);
            let r = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
                .fit(index.clone())
                .kneighbors_sharded(&multi, &queries, k)
                .expect("sharded query runs");
            let busy_sum: f64 = r.per_device_seconds.iter().sum();
            let base = *baseline_seconds.get_or_insert(r.sim_seconds);
            let speedup = if r.sim_seconds > 0.0 {
                base / r.sim_seconds
            } else {
                1.0
            };
            println!(
                "{:<14} {:>8} {:>7} {:>14.4} {:>14.4} {:>8.2}x",
                profile.name,
                devices,
                r.batches,
                r.sim_seconds * 1e3,
                busy_sum * 1e3,
                speedup,
            );
            let c = merged(&r.launches);
            report.push(
                MetricRow::new()
                    .label("dataset", profile.name)
                    .label("devices", &devices.to_string())
                    .label("distance", "Euclidean")
                    .counters(&c)
                    .value("sim_seconds", r.sim_seconds)
                    .value("busy_sum_seconds", busy_sum)
                    .value("tiles", r.batches as f64)
                    .value("speedup", speedup),
            );
        }
    }
    println!(
        "\nreading: makespan is the max over concurrently-simulated\n\
         devices; the gap between ideal and measured speedup is the\n\
         load imbalance of round-robin contiguous slabs (a skewed\n\
         dataset's heavy rows cluster in one slab)."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
