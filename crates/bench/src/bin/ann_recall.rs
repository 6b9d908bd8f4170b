//! Recall-vs-throughput study for the IVF approximate tier (DESIGN §15).
//!
//! For each dataset × distance family, an [`neighbors::IvfIndex`] is
//! fitted at a fixed seed and probed across an `nprobe` sweep; every
//! operating point reports **recall@k against the exact oracle** (the
//! same `NearestNeighbors` the IVF tier reranks with) and the
//! **simulated QPS** of the batch — the curve the paper's approximate
//! competitors are usually judged on, reproduced here with exact rerank
//! so distances are never approximated, only coverage.
//!
//! Two invariants are asserted, not just measured (the CI recall gate
//! replays them from the emitted `bench.v1` document):
//!
//! * `nprobe == nlist` is byte-identical to the exact oracle, so that
//!   sweep point must report recall exactly 1.0;
//! * recall@k is monotone non-decreasing in `nprobe` (probing more
//!   posting lists can only grow each query's candidate pool).
//!
//! Usage: `cargo run --release -p bench --bin ann_recall \
//!   [-- --scale 0.004 --seed 1 --k 10] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use bench::{Flag, JSON, K, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::Device;
use neighbors::{IvfIndex, IvfParams, KnnResult, NearestNeighbors};
use semiring::Distance;

/// The distance families the recall gate tracks (≥3 per the issue):
/// a dot-product-based metric with norms (Euclidean), an angular one
/// (Cosine), and a pure expanded-form one (Manhattan).
const FAMILIES: [Distance; 3] = [Distance::Euclidean, Distance::Cosine, Distance::Manhattan];

/// Mean fraction of each query's exact top-k recovered by the IVF
/// answer (rows already carry only real neighbor ids — sentinel
/// entries are filtered by the selection kernel).
fn recall_at_k(ivf: &KnnResult<f32>, exact: &KnnResult<f32>) -> f64 {
    let mut total = 0.0;
    for (got, want) in ivf.indices.iter().zip(&exact.indices) {
        if want.is_empty() {
            continue;
        }
        let hit = got.iter().filter(|i| want.contains(i)).count();
        total += hit as f64 / want.len() as f64;
    }
    total / ivf.indices.len() as f64
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, K, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let k = args.uint("--k") as usize;
    let json_path = args.text("--json");
    let mut report = BenchReport::new("ann_recall");

    println!("IVF recall@{k} vs simulated throughput (exact rerank)");
    println!(
        "{:<14} {:<11} {:>6} {:>7} {:>10} {:>12} {:>12}",
        "dataset", "distance", "nlist", "nprobe", "recall", "sim qps", "shortlist"
    );
    for (profile, degs) in [
        (DatasetProfile::movielens(), 0.04),
        (DatasetProfile::scrna(), 0.01),
    ] {
        let index = profile.scaled_with(scale, degs).generate(seed);
        let queries = query_slab(&index);
        let nlist = (index.rows() as f64).sqrt().ceil() as usize;
        for distance in FAMILIES {
            let nn = NearestNeighbors::new(Device::volta(), distance).fit(index.clone());
            let exact = nn.kneighbors(&queries, k).expect("exact oracle runs");
            let ivf = IvfIndex::fit(
                &nn,
                IvfParams {
                    nlist,
                    ..IvfParams::default()
                },
            )
            .expect("ivf fit runs");
            // Sweep from a single probed list up to the full index.
            let mut sweep = vec![1usize, 2, 4, 8, 16];
            sweep.retain(|&p| p < ivf.nlist());
            sweep.push(ivf.nlist());
            let mut last_recall = 0.0f64;
            for nprobe in sweep {
                let ans = ivf
                    .search_with_nprobe(&queries, k, nprobe)
                    .expect("ivf query runs");
                let recall = recall_at_k(&ans.knn, &exact);
                assert!(
                    recall + 1e-12 >= last_recall,
                    "{} {distance:?}: recall fell {last_recall} -> {recall} at nprobe {nprobe}",
                    profile.name,
                );
                last_recall = recall;
                if nprobe == ivf.nlist() {
                    let same = ans.knn.indices == exact.indices
                        && ans
                            .knn
                            .distances
                            .iter()
                            .zip(&exact.distances)
                            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
                    assert!(
                        same,
                        "{} {distance:?}: nprobe == nlist must be byte-identical to exact",
                        profile.name,
                    );
                    assert!(
                        (recall - 1.0).abs() < 1e-12,
                        "{} {distance:?}: full probe recall {recall} != 1.0",
                        profile.name,
                    );
                }
                let qps = if ans.knn.sim_seconds > 0.0 {
                    queries.rows() as f64 / ans.knn.sim_seconds
                } else {
                    0.0
                };
                println!(
                    "{:<14} {:<11} {:>6} {:>7} {:>10.4} {:>12.0} {:>12}",
                    profile.name,
                    format!("{distance:?}"),
                    ivf.nlist(),
                    nprobe,
                    recall,
                    qps,
                    ans.stats.shortlist_rows,
                );
                report.push(
                    MetricRow::new()
                        .label("dataset", profile.name)
                        .label("distance", &format!("{distance:?}"))
                        .label("nprobe", &nprobe.to_string())
                        .value("nlist", ivf.nlist() as f64)
                        .value("recall_at_k", recall)
                        .value("k", k as f64)
                        .value("sim_qps", qps)
                        .value("sim_seconds", ans.knn.sim_seconds)
                        .value("shortlist_rows", ans.stats.shortlist_rows as f64)
                        .value("probes", ans.stats.probes as f64)
                        .value("fit_sim_seconds", ivf.fit_sim_seconds()),
                );
            }
        }
    }
    println!(
        "\nreading: recall climbs monotonically with nprobe and reaches\n\
         exactly 1.0 at nprobe = nlist (the exact path, byte for byte);\n\
         qps falls as the reranked shortlist grows — the knee of each\n\
         curve is the tier's useful operating range."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
