//! Resilience under injected faults: exercises the retry + fallback
//! cascade of the pairwise primitive against every `sim-fault` class and
//! reports what the policy engine absorbed.
//!
//! Each scenario arms one fault class on the device (seeded,
//! deterministic — see `gpu_sim::FaultPlan`), runs the hybrid kernel
//! with the standard [`kernels::ResiliencePolicy`], and checks the
//! distances against a fault-free reference run. The `bench.v1` rows
//! carry the `ResilienceReport` fields (`attempts`, `faults_absorbed`,
//! `downgraded`, simulated backoff) plus the final plan as labels, so CI
//! can track both the absorption behavior and its overhead over time.
//!
//! Usage: `cargo run --release -p bench --bin resilience_report \
//!   [-- --seed 1 --scale 0.004] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::{Flag, JSON, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::{Device, FaultPlan};
use kernels::{pairwise_distances, PairwiseOptions, ResiliencePolicy, SmemMode, Strategy};
use semiring::{Distance, DistanceParams};

struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    strategy: Strategy,
    smem_mode: SmemMode,
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            plan: FaultPlan::none(),
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
        },
        Scenario {
            name: "transient-launch",
            plan: FaultPlan::seeded(seed).with_transient_launch_failures(100),
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
        },
        Scenario {
            name: "ecc-bit-flip",
            plan: FaultPlan::seeded(seed).with_bit_flips("csr.values", 100),
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
        },
        Scenario {
            name: "hash-overflow",
            plan: FaultPlan::seeded(seed).with_hash_overflows(1000),
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
        },
        Scenario {
            name: "smem-alloc-failure",
            plan: FaultPlan::seeded(seed).with_smem_alloc_failures(1000),
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
        },
    ]
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("resilience_report");

    let index = DatasetProfile::movielens().scaled(scale).generate(seed);
    let queries = index.slice_rows(0..index.rows().min(48));
    let distance = Distance::Cosine;
    let params = DistanceParams::default();

    // Fault-free reference the resilient runs must reproduce exactly.
    let reference = pairwise_distances(
        &Device::volta(),
        &queries,
        &index,
        distance,
        &params,
        &PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
            resilience: None,
        },
    )
    .expect("reference run");

    println!(
        "resilience report: {} queries x {} index rows, {} (seed {seed})",
        queries.rows(),
        index.rows(),
        distance.name(),
    );
    println!(
        "{:<20} {:>8} {:>9} {:>11} {:>13}  final plan",
        "scenario", "attempts", "absorbed", "downgraded", "backoff(us)"
    );

    for sc in scenarios(seed) {
        let dev = Device::volta().with_fault_plan(sc.plan.clone());
        let opts = PairwiseOptions {
            strategy: sc.strategy,
            smem_mode: sc.smem_mode,
            resilience: Some(ResiliencePolicy::with_retries(30)),
        };
        let r = pairwise_distances(&dev, &queries, &index, distance, &params, &opts)
            .expect("policy absorbs every injected fault class");
        let rep = r.resilience.as_ref().expect("policy produces a report");

        let diff = r.distances.max_abs_diff(&reference.distances);
        assert!(
            diff == 0.0,
            "{}: resilient distances drifted from the fault-free reference by {diff}",
            sc.name
        );

        println!(
            "{:<20} {:>8} {:>9} {:>11} {:>13.1}  {}/{:?}",
            sc.name,
            rep.attempts,
            rep.faults_absorbed.len(),
            rep.downgraded,
            rep.backoff_seconds * 1e6,
            rep.final_strategy.name(),
            rep.final_smem,
        );
        for fault in &rep.faults_absorbed {
            println!("    absorbed: {fault}");
        }

        report.push(
            MetricRow::new()
                .label("scenario", sc.name)
                .label("requested_strategy", sc.strategy.name())
                .label("final_strategy", rep.final_strategy.name())
                .label("final_smem", &format!("{:?}", rep.final_smem))
                .value("attempts", f64::from(rep.attempts))
                .value("faults_absorbed", rep.faults_absorbed.len() as f64)
                .value("downgraded", f64::from(u8::from(rep.downgraded)))
                .value("backoff_seconds", rep.backoff_seconds)
                .value("sim_seconds", r.sim_seconds())
                .value("max_abs_diff_vs_clean", diff),
        );
    }

    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
