//! Hardware-counter evidence report for §3's design narrative.
//!
//! §3.2 motivates the hybrid kernel with qualitative post-mortems of the
//! naive designs: "large thread divergences within warps, highly
//! uncoalesced global memory accesses, and resource requirements which
//! are unrealistic", and "the sorting step dominated the performance" of
//! expand-sort-contract. This binary turns each of those claims into a
//! measured row: per strategy and per dataset, the divergence
//! serialization ratio, the coalescing overhead (bytes moved per byte
//! requested), the L2-level reread factor, shared-memory pressure,
//! atomic contention, and barrier count.
//!
//! Usage: `cargo run --release -p bench --bin counters_report \
//!   [-- --scale 0.004 --seed 1] [--json out.json]`
//!
//! With `--json`, the same rows (plus a per-range profile of every
//! launch) are written as a `bench.v1` document.

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use bench::{Flag, JSON, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::{Counters, Device};
use kernels::{pairwise_distances, PairwiseOptions, SmemMode, Strategy};
use semiring::{Distance, DistanceParams};

fn merged(launches: &[gpu_sim::LaunchStats]) -> Counters {
    let mut c = Counters::new();
    for l in launches {
        c.merge(&l.counters);
    }
    c
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let json_path = args.text("--json");
    let mut dev = Device::volta();
    if json_path.is_some() {
        // The JSON document carries per-range rows, so profile every
        // launch when one was requested.
        dev = dev.with_profiler(true);
    }
    let params = DistanceParams::default();
    let mut report = BenchReport::new("counters_report");

    println!("Section 3 design-claim evidence (Manhattan over two dataset shapes)");
    println!(
        "{:<22} {:<14} {:>8} {:>10} {:>9} {:>10} {:>10} {:>12} {:>9}",
        "strategy",
        "dataset",
        "div %",
        "coal ovh",
        "reread",
        "smem ops",
        "bank xtr",
        "atomic xtr",
        "barriers"
    );
    for (profile, degs) in [
        (DatasetProfile::movielens(), 0.04), // skewed degrees
        (DatasetProfile::scrna(), 0.01),     // regular degrees
    ] {
        let index = profile.scaled_with(scale, degs).generate(seed);
        let queries = query_slab(&index);
        for strategy in [
            Strategy::HybridCooSpmv,
            Strategy::NaiveCsr,
            Strategy::NaiveCsrShared,
            Strategy::ExpandSortContract,
        ] {
            let opts = PairwiseOptions {
                strategy,
                smem_mode: SmemMode::Hash,
                resilience: None,
            };
            let r = pairwise_distances(&dev, &queries, &index, Distance::Manhattan, &params, &opts)
                .expect("strategy runs");
            let c = merged(&r.launches);
            println!(
                "{:<22} {:<14} {:>7.1}% {:>9.2}x {:>8.2}x {:>10} {:>10} {:>12} {:>9}",
                strategy.name(),
                profile.name,
                c.divergence_ratio() * 100.0,
                c.coalescing_overhead(),
                c.reread_ratio(),
                c.smem_accesses,
                c.bank_conflict_extra,
                c.atomic_conflict_extra,
                c.barriers,
            );
            report.push(
                MetricRow::new()
                    .label("dataset", profile.name)
                    .label("strategy", strategy.name())
                    .label("distance", "Manhattan")
                    .counters(&c)
                    .value("divergence_ratio", c.divergence_ratio())
                    .value("coalescing_overhead", c.coalescing_overhead())
                    .value("reread_ratio", c.reread_ratio()),
            );
            report.push_launches(
                &[("dataset", profile.name), ("strategy", strategy.name())],
                &r.launches,
            );
        }
    }
    println!(
        "\nreading: the naive kernel's divergence ratio and coalescing\n\
         overhead dwarf the hybrid's (§3.2.2's 'large thread divergences\n\
         ... uncoalesced global memory accesses'); the shared-memory\n\
         naive variant trims global traffic but keeps the divergence\n\
         ('marginal gains'); expand-sort-contract shows the shared-memory\n\
         traffic of its in-block sort (§3.2.1)."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
