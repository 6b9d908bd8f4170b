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
//! A last row runs one k-NN cell in perfbench `knn_graph`'s setting:
//! 64 Cosine queries over a MovieLens shape of fixed size, whatever the
//! `--scale`, whose hybrid pass streams at least three `STREAM_CHUNK`s
//! and whose device top-k splits its rows (DESIGN §5), so the perf gate
//! sees both grids.
//!
//! With `--json`, the same rows (plus a per-range profile of every
//! launch) are written as a `bench.v1` document.

use bench::report::{BenchReport, MetricRow};
use bench::suite::{query_slab, KNN_K};
use bench::{Flag, JSON, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::{Counters, Device, LaunchStats};
use kernels::hybrid::STREAM_CHUNK;
use kernels::{pairwise_distances, PairwiseOptions, SmemMode, Strategy};
use neighbors::NearestNeighbors;
use semiring::{Distance, DistanceParams};

/// Query rows of the k-NN cell: perfbench `knn_graph`'s batch.
const KNN_QUERIES: usize = 64;

/// Dimension scale of the k-NN cell's MovieLens index (2830 rows):
/// 64 queries split its selection six ways (384 blocks), and its 28k
/// nonzeros stream in four hybrid chunks.
const KNN_DIMS: f64 = 0.01;

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
    knn_cell(&dev, seed, &mut report);
    println!(
        "\nreading: the naive kernel's divergence ratio and coalescing\n\
         overhead dwarf the hybrid's (§3.2.2's 'large thread divergences\n\
         ... uncoalesced global memory accesses'); the shared-memory\n\
         naive variant trims global traffic but keeps the divergence\n\
         ('marginal gains'); expand-sort-contract shows the shared-memory\n\
         traffic of its in-block sort (§3.2.1). The k-NN cell bills the\n\
         split selection: a chunk scan and a merge launch."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}

/// The k-NN cell: 64 Cosine queries through the served hybrid k-NN
/// with device selection. Panics if the shape no longer streams three
/// chunks or no longer splits its selection.
fn knn_cell(dev: &Device, seed: u64, report: &mut BenchReport) {
    let index = DatasetProfile::movielens()
        .scaled_with(KNN_DIMS, 0.10)
        .generate(seed);
    let queries = index.slice_rows(0..KNN_QUERIES);
    assert!(
        index.nnz() >= 3 * STREAM_CHUNK,
        "k-NN cell index streams fewer than three chunks ({} nonzeros)",
        index.nnz()
    );
    let r = NearestNeighbors::new(dev.clone(), Distance::Cosine)
        .with_options(PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
            resilience: None,
        })
        .fit(index)
        .kneighbors(&queries, KNN_K)
        .expect("k-NN runs");
    let select: Vec<&LaunchStats> = r
        .launches
        .iter()
        .filter(|l| l.name == "top_k_select")
        .collect();
    assert_eq!(select.len(), 2, "k-NN cell selection must split");
    let select_s: f64 = select.iter().map(|l| l.sim_seconds()).sum();
    let c = merged(&r.launches);
    println!(
        "\nk-NN cell: {KNN_QUERIES} Cosine queries, k = {KNN_K}, over MovieLens at \
         {KNN_DIMS}: {:.1} us simulated, selection {:.1} us ({} launches)",
        r.sim_seconds * 1e6,
        select_s * 1e6,
        r.launches.len()
    );
    let cell = [("dataset", "MovieLens"), ("strategy", "knn")];
    report.push(
        MetricRow::new()
            .label("dataset", "MovieLens")
            .label("strategy", "knn")
            .label("distance", "Cosine")
            .counters(&c)
            .value("sim_seconds", r.sim_seconds)
            .value("select_sim_seconds", select_s),
    );
    report.push_launches(&cell, &r.launches);
}
