//! Serving-layer throughput study: what the prepared-index cache and
//! micro-batching buy over a naive per-query serving loop.
//!
//! The paper's evaluation is batch-oriented — one huge query matrix per
//! kernel launch. A serving deployment sees the opposite shape: single
//! query rows trickling in, each a 1-row grid that strands most of the
//! simulated SMs (the roofline model's tail effect) and, naively, each
//! re-uploading and re-norming the index. This harness replays the same
//! query stream through the [`ServeEngine`] in two modes:
//!
//! * `per_query` — `max_batch = 1`, no cache: every request re-prepares
//!   the index (uploads + norm kernels) and runs alone.
//! * `cached` — prepared shards come from the LRU cache (one miss, then
//!   hits) and requests coalesce into micro-batches of up to 32 with a
//!   short 20 µs flush deadline for the trailing partial batch.
//!
//! Served answers are byte-identical across modes (DESIGN §11), so the
//! QPS ratio is pure serving-layer engineering, not a quality trade.
//!
//! Usage: `cargo run --release -p bench --bin serve_throughput \
//!   [-- --scale 0.004 --seed 1 --k 10 --devices 2] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use bench::{Flag, DEVICES, JSON, K, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::Device;
use neighbors::{MultiDevice, NearestNeighbors};
use semiring::Distance;
use sparse_dist::{
    replay_rows, IndexMode, MetricsRegistry, ServeConfig, ServeEngine, ServeReport, SloBudget,
};

/// Simulated gap between request arrivals. Zero means a burst
/// (closed-load) replay: every request is queued at t=0, the device
/// never idles waiting for arrivals, and QPS measures execution
/// throughput rather than arrival spacing.
const ARRIVAL_GAP_S: f64 = 0.0;

/// The p99 latency SLO both modes are assessed against (burst replays
/// queue everything at t=0, so per-query mode burns its budget hard —
/// exactly the signal ROADMAP item 4's admission control will read).
const SLO_TARGET_P99_S: f64 = 500e-6;

fn describe(mode: &str, r: &ServeReport<f32>) -> String {
    format!(
        "{:<11} {:>7} {:>8} {:>10.0} {:>10.1} {:>10.1} {:>11.3}",
        mode,
        r.batches,
        r.responses.len(),
        r.qps(),
        r.latency_percentile(50.0) * 1e6,
        r.latency_percentile(99.0) * 1e6,
        r.busy_seconds * 1e3,
    )
}

fn push_row(
    report: &mut BenchReport,
    dataset: &str,
    mode: &str,
    devices: usize,
    r: &ServeReport<f32>,
    m: &MetricsRegistry,
) {
    // Cache and occupancy values come from the engine's deterministic
    // metrics registry (not recomputed here), so the bench.v1 rows and
    // a `--metrics` snapshot of the same replay can never disagree.
    report.push(
        MetricRow::new()
            .label("dataset", dataset)
            .label("mode", mode)
            .label("devices", &devices.to_string())
            .value("qps", r.qps())
            .value("p50_latency_s", r.latency_percentile(50.0))
            .value("p99_latency_s", r.latency_percentile(99.0))
            .value("makespan_s", r.makespan_s)
            .value("busy_seconds", r.busy_seconds)
            .value("batches", r.batches as f64)
            .value("served", r.responses.len() as f64)
            .value("rejected", r.rejected.len() as f64)
            .value("cache_hits", m.counter("serve.cache_hits_total") as f64)
            .value("cache_misses", m.counter("serve.cache_misses_total") as f64)
            .value(
                "cache_evictions",
                m.counter("serve.cache_evictions_total") as f64,
            )
            .value(
                "batch_occupancy",
                m.gauge("serve.batch_occupancy").unwrap_or(0.0),
            )
            .value(
                "slo_breaches",
                m.counter("serve.d0.slo_breaches_total") as f64,
            )
            .value(
                "slo_budget_burn",
                m.gauge("serve.d0.slo_budget_burn").unwrap_or(0.0),
            ),
    );
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, K, DEVICES, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let k = args.uint("--k") as usize;
    let devices = args.uint("--devices") as usize;
    let json_path = args.text("--json");
    let mut report = BenchReport::new("serve_throughput");

    println!("Serving throughput (Euclidean, k={k}, {devices} device(s))");
    println!(
        "{:<14} {:<11} {:>7} {:>8} {:>10} {:>10} {:>10} {:>11}",
        "dataset", "mode", "batches", "served", "qps", "p50 us", "p99 us", "busy ms"
    );
    for (profile, degs) in [
        (DatasetProfile::movielens(), 0.04),
        (DatasetProfile::scrna(), 0.01),
    ] {
        let index = profile.scaled_with(scale, degs).generate(seed);
        let queries = query_slab(&index);
        let requests = replay_rows(&queries, ARRIVAL_GAP_S);
        let multi = MultiDevice::replicate(&Device::volta(), devices);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(index.clone());
        // Admit everything: this harness measures throughput, not
        // backpressure, so the queue must outsize the stream.
        let max_queue = requests.len() + 1;

        let mut per_query_engine = ServeEngine::new(
            multi.clone(),
            ServeConfig {
                k,
                max_batch: 1,
                max_wait_s: 0.0,
                max_queue,
                per_query_prepare: true,
                admission: None,
                index: IndexMode::Exact,
            },
        )
        .with_slo(0, SloBudget::p99(SLO_TARGET_P99_S));
        let per_query = per_query_engine
            .replay(std::slice::from_ref(&nn), &requests)
            .expect("per-query replay runs");
        println!("{:<14} {}", profile.name, describe("per_query", &per_query));
        push_row(
            &mut report,
            profile.name,
            "per_query",
            devices,
            &per_query,
            per_query_engine.metrics(),
        );

        let mut cached_engine = ServeEngine::new(
            multi.clone(),
            ServeConfig {
                k,
                max_batch: 32,
                max_wait_s: 20e-6,
                max_queue,
                per_query_prepare: false,
                admission: None,
                index: IndexMode::Exact,
            },
        )
        .with_slo(0, SloBudget::p99(SLO_TARGET_P99_S));
        let cached = cached_engine
            .replay(std::slice::from_ref(&nn), &requests)
            .expect("cached replay runs");
        println!("{:<14} {}", profile.name, describe("cached", &cached));
        push_row(
            &mut report,
            profile.name,
            "cached",
            devices,
            &cached,
            cached_engine.metrics(),
        );

        // The registry's histogram percentiles must agree with the
        // exact sort-based percentiles to within one log-bucket width.
        for (engine, r) in [(&per_query_engine, &per_query), (&cached_engine, &cached)] {
            let hist = engine
                .metrics()
                .histogram("serve.latency_s")
                .expect("latency histogram recorded");
            for p in [50.0, 99.0] {
                let exact = r.latency_percentile(p);
                let bucketed = hist.percentile(p);
                let limit = (exact * sparse_dist::HIST_GROWTH).max(sparse_dist::HIST_MIN);
                assert!(
                    exact <= bucketed && bucketed <= limit,
                    "histogram p{p} {bucketed} disagrees with exact {exact}"
                );
            }
        }

        let speedup = if per_query.qps() > 0.0 {
            cached.qps() / per_query.qps()
        } else {
            0.0
        };
        println!("{:<14} cache+batching QPS speedup: {speedup:.1}x", "");
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .label("mode", "speedup")
                .label("devices", &devices.to_string())
                .value("qps_speedup", speedup),
        );

        // Cross-check the determinism contract while we are here: the
        // two modes must serve byte-identical answers per request id.
        fn by_id(r: &ServeReport<f32>) -> Vec<(u64, &sparse_dist::Response<f32>)> {
            let mut v: Vec<_> = r.responses.iter().map(|x| (x.id, x)).collect();
            v.sort_by_key(|(id, _)| *id);
            v
        }
        for ((ia, a), (ib, b)) in by_id(&per_query).into_iter().zip(by_id(&cached)) {
            assert_eq!(ia, ib, "both modes serve the same ids");
            assert_eq!(a.indices, b.indices, "indices diverge at id {ia}");
            assert_eq!(
                a.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                b.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "distances diverge at id {ia}"
            );
        }
    }
    println!(
        "\nreading: per_query pays index upload + norm kernels on every\n\
         request and launches 1-row grids that strand most SMs; cached\n\
         prepares once (one miss, then hits) and coalesces requests into\n\
         micro-batches, so the speedup column is tail-effect amortization\n\
         plus upload/norm reuse."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
