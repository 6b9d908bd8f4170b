//! Serving-fleet overload study: graceful degradation at 10–100× the
//! load `serve_throughput` measures, plus a chaos drill.
//!
//! `serve_throughput` shows what caching and micro-batching buy at a
//! load the engine can absorb. This harness asks the robustness
//! question behind ROADMAP item 4: what happens when traffic is 10×
//! (or 100×) past that point? A fixed-capacity queue either collapses
//! (unbounded latency) or cliffs (rejects everything past a depth);
//! the admission controller instead sheds a bounded fraction with a
//! typed reason, degrades batches to the low-footprint kernel configs
//! (byte-identical answers), and the fleet autoscaler adds replicas
//! while SLO error budget burns.
//!
//! For each load multiplier the workload generator produces the same
//! seeded Zipf/diurnal arrival process at `mult × base` QPS, served
//! through a [`Fleet`] with admission control armed. Inline asserts
//! enforce the acceptance criteria:
//!
//! * no queue collapse: every arrival is either served or typed-shed,
//!   and the p99 latency of *admitted* requests stays within the SLO
//!   envelope at every multiplier;
//! * graceful shedding: the shed fraction is reported per multiplier
//!   (0 at 1×, bounded below 1 at overload);
//! * chaos drill: a mid-run fault plan changes no served byte, and the
//!   fleet re-enters the SLO burn envelope within bounded windows.
//!
//! Usage: `cargo run --release -p bench --bin serve_fleet \
//!   [-- --scale 0.004 --seed 1 --k 10] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use datasets::DatasetProfile;
use gpu_sim::{Device, FaultPlan};
use kernels::{PairwiseOptions, ResiliencePolicy};
use neighbors::NearestNeighbors;
use semiring::Distance;
use sparse_dist::{
    chaos_drill, AdmissionConfig, ChaosPlan, Fleet, FleetConfig, FleetReport, IndexMode, Selection,
    ServeConfig, SloBudget, Workload,
};

/// The p99 latency SLO the fleet autoscales against. Tighter than
/// `serve_throughput`'s 500 us target: overload must actually burn
/// error budget for the autoscaler to have a signal.
const SLO_TARGET_P99_S: f64 = 100e-6;

/// Admitted-latency envelope the inline assert enforces. The shed
/// watermark caps backlog at 256 requests (16 batches), so admitted
/// p99 is watermark-bounded regardless of arrival rate — 500 us is
/// that bound with margin, not a tuned number.
const P99_ENVELOPE_S: f64 = 500e-6;

/// Simulated duration of every generated workload.
const DURATION_S: f64 = 4e-3;

/// Base arrival rate (requests/s) the multipliers scale. ~600 requests
/// over 4 ms is comfortably within one replica's capacity, so 1× is
/// the shed-free baseline.
const BASE_QPS: f64 = 150_000.0;

/// Overload multipliers. 10× is the acceptance floor; 100× shows the
/// controller holding its envelope two decades past capacity.
const MULTIPLIERS: [f64; 3] = [1.0, 10.0, 100.0];

fn fleet_config(k: usize) -> FleetConfig {
    FleetConfig {
        min_replicas: 1,
        max_replicas: 4,
        window_s: 0.5e-3,
        serve: ServeConfig {
            k,
            max_batch: 16,
            max_wait_s: 20e-6,
            max_queue: 4096,
            per_query_prepare: false,
            // Degrade past 4 waiting batches, shed past 16 batches
            // of backlog: queue depth — and with it admitted latency —
            // stays bounded no matter the arrival rate, while leaving
            // enough queueing for sustained overload to breach the SLO
            // and feed the autoscaler.
            admission: Some(AdmissionConfig::default().with_watermarks(64, 256)),
            index: IndexMode::Exact,
        },
        ..FleetConfig::default()
    }
}

fn describe(mult: f64, r: &FleetReport<f32>, arrived: usize) -> String {
    format!(
        "{:>5.0}x {:>8} {:>8} {:>8} {:>9.3} {:>10.1} {:>10.1} {:>9} {:>7} {:>10.2}",
        mult,
        arrived,
        r.responses.len(),
        r.rejected.len(),
        r.shed_fraction(),
        r.latency_percentile(50.0) * 1e6,
        r.latency_percentile(99.0) * 1e6,
        r.replicas_final,
        r.scale_events.iter().filter(|e| e.to > e.from).count(),
        r.worst_burn(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = bench::parse_u64(&args, "--seed", 1);
    let scale = bench::parse_scale(&args, "--scale", 0.004);
    let k = bench::parse_u64(&args, "--k", 10) as usize;
    let json_path = bench::parse_path(&args, "--json");
    let mut report = BenchReport::new("serve_fleet");

    let profile = DatasetProfile::movielens();
    let index = profile.scaled_with(scale, 0.04).generate(seed);
    let queries = query_slab(&index);
    // Host-side selection + retries: the chaos drill's injected faults
    // are only absorbable through the retry policy, which does not
    // cover the device top-k kernel. Both the overload sweep and the
    // drill use the same estimator, so all rows share one code path.
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
        .with_selection(Selection::Host)
        .with_options(PairwiseOptions {
            resilience: Some(ResiliencePolicy::with_retries(8)),
            ..PairwiseOptions::default()
        })
        .fit(index.clone());

    println!(
        "Fleet overload sweep ({}, k={k}, SLO p99 {:.0} us, {} ms windows)",
        profile.name,
        SLO_TARGET_P99_S * 1e6,
        fleet_config(k).window_s * 1e3
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>9} {:>10} {:>10} {:>9} {:>7} {:>10}",
        "load",
        "arrived",
        "served",
        "shed",
        "shedfrac",
        "p50 us",
        "p99 us",
        "replicas",
        "ups",
        "burn"
    );

    for mult in MULTIPLIERS {
        let workload = Workload::steady(seed, BASE_QPS * mult, DURATION_S)
            .with_zipf(1.1)
            .with_diurnal(0.3, DURATION_S / 2.0)
            .with_bursts(DURATION_S / 3.0, 32);
        let requests = workload.generate(std::slice::from_ref(&queries));
        let mut fleet = Fleet::new(Device::volta(), fleet_config(k))
            .with_slo(0, SloBudget::p99(SLO_TARGET_P99_S));
        let r = fleet
            .run(std::slice::from_ref(&nn), &requests)
            .expect("fleet replay runs");
        println!("{}", describe(mult, &r, requests.len()));

        // Acceptance: no queue collapse — every arrival is accounted
        // for, and the admitted tail holds the envelope even at 100×.
        assert_eq!(
            r.responses.len() + r.rejected.len(),
            requests.len(),
            "lost requests at {mult}x"
        );
        let p99 = r.latency_percentile(99.0);
        assert!(
            p99 <= P99_ENVELOPE_S,
            "admitted p99 {:.1} us blew the {:.1} us envelope at {mult}x",
            p99 * 1e6,
            P99_ENVELOPE_S * 1e6
        );
        assert!(
            r.shed_fraction() < 1.0,
            "controller shed everything at {mult}x"
        );
        if mult == 1.0 {
            assert_eq!(r.shed_fraction(), 0.0, "1x load must be shed-free");
        }

        let m = fleet.metrics();
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .label("mode", "overload")
                .label("load", &format!("{mult:.0}x"))
                .value("arrived", requests.len() as f64)
                .value("served", r.responses.len() as f64)
                .value("shed", r.rejected.len() as f64)
                .value("shed_fraction", r.shed_fraction())
                .value("p50_latency_s", r.latency_percentile(50.0))
                .value("p99_latency_s", p99)
                .value("replicas_final", r.replicas_final as f64)
                .value("scale_ups", m.counter("serve.fleet.scale_ups_total") as f64)
                .value(
                    "scale_downs",
                    m.counter("serve.fleet.scale_downs_total") as f64,
                )
                .value(
                    "degraded_requests",
                    m.counter("serve.fleet.degraded_requests_total") as f64,
                )
                .value("windows", r.windows.len() as f64)
                .value("worst_burn", r.worst_burn()),
        );
        // Rendering self-validates, so the fleet counters obey the
        // metrics.v1 conservation laws at every load.
        m.snapshot("serve_fleet").to_json();
    }

    // Chaos drill at 10×: a mid-run burst of transient launch faults.
    // The drill byte-compares the surviving set against a fault-free
    // run and finds the first post-chaos window back inside the burn
    // envelope.
    let workload = Workload::steady(seed, BASE_QPS * 10.0, DURATION_S)
        .with_zipf(1.1)
        .with_diurnal(0.3, DURATION_S / 2.0)
        .with_bursts(DURATION_S / 3.0, 32);
    let requests = workload.generate(std::slice::from_ref(&queries));
    let chaos = ChaosPlan {
        start_s: DURATION_S * 0.25,
        end_s: DURATION_S * 0.5,
        fault: FaultPlan::seeded(seed).with_transient_launch_failures(100),
    };
    let outcome = chaos_drill(
        &Device::volta(),
        fleet_config(k),
        &[(0, SloBudget::p99(SLO_TARGET_P99_S))],
        std::slice::from_ref(&nn),
        &requests,
        chaos,
        1.0,
    )
    .expect("chaos drill runs");
    assert_eq!(
        outcome.divergent, 0,
        "chaos changed a served byte on {} of {} surviving requests",
        outcome.divergent, outcome.common
    );
    assert!(outcome.common > 0, "drill runs share no served requests");
    let recovery = outcome.recovery_window.expect("fleet recovers post-chaos");
    let windows_past_chaos = outcome
        .chaos
        .windows
        .iter()
        .take(recovery)
        .filter(|w| w.start_s >= DURATION_S * 0.5)
        .count();
    println!(
        "\nchaos drill at 10x: {} common, 0 divergent, recovered in window {} \
         ({} window(s) past fault end)",
        outcome.common, recovery, windows_past_chaos
    );
    report.push(
        MetricRow::new()
            .label("dataset", profile.name)
            .label("mode", "chaos_drill")
            .label("load", "10x")
            .value("common", outcome.common as f64)
            .value("divergent", outcome.divergent as f64)
            .value("recovery_window", recovery as f64)
            .value("windows_past_chaos", windows_past_chaos as f64)
            .value("chaos_shed_fraction", outcome.chaos.shed_fraction())
            .value("baseline_shed_fraction", outcome.baseline.shed_fraction()),
    );

    println!(
        "\nreading: past 1x the token-bucket watermarks cap queue depth, so\n\
         p99 of admitted requests stays inside the SLO envelope while the\n\
         shed fraction (not latency) absorbs the overload; the autoscaler\n\
         converts sustained burn into replicas; chaos faults cost retries\n\
         and windows, never bytes."
    );
    if let Some(path) = json_path {
        report.write(&path);
        println!("wrote {path}");
    }
}
