//! Host-parallel grid execution must be unobservable.
//!
//! The simulator can run a launch's blocks across a host thread pool
//! ([`Device::with_host_threads`] / `GPU_SIM_HOST_THREADS`). Its
//! determinism contract (DESIGN.md §10) says parallel execution is a
//! pure wall-clock optimization: outputs, counters, roofline seconds,
//! sanitizer findings, profiler attribution, and injected-fault replay
//! are all byte-identical to serial execution. These tests pin that
//! contract across every kernel strategy and both distance families,
//! including under an active [`FaultPlan`] and `SanitizerMode::Fail`
//! (the CI `fault-matrix` job re-runs this suite with
//! `RESILIENCE_SANITIZER=fail`).
//!
//! Note: the `GPU_SIM_HOST_THREADS` env var overrides the builder, so
//! under that override the 1/2/8-thread runs collapse to the same pool
//! size — still a valid (repeated-run) determinism check, but the CI
//! jobs run this suite without the override to exercise serial vs
//! parallel for real.

use gpu_sim::FaultPlan;
use proptest::prelude::*;
use semiring::{Distance, DistanceParams};
use sparse::CsrMatrix;
use sparse_dist::{
    Device, KernelError, MultiDevice, NearestNeighbors, PairwiseOptions, PairwiseResult,
    ResiliencePolicy, SanitizerMode, SmemMode, Strategy,
};

const THREADS: [usize; 3] = [1, 2, 8];
const STRATEGIES: [Strategy; 4] = [
    Strategy::HybridCooSpmv,
    Strategy::NaiveCsr,
    Strategy::NaiveCsrShared,
    Strategy::ExpandSortContract,
];
/// One distance per semiring family: Euclidean is `Family::Expanded`
/// (annihilating dot-product + norm expansion), Canberra is
/// `Family::Namm` (non-annihilating monoid over the column union).
const DISTANCES: [Distance; 2] = [Distance::Euclidean, Distance::Canberra];

/// Test device honoring the `RESILIENCE_SANITIZER` CI hook, so the
/// fault-matrix job runs the whole suite under `SanitizerMode::Fail`.
fn device(host_threads: usize) -> Device {
    let dev = Device::volta().with_host_threads(host_threads);
    match std::env::var("RESILIENCE_SANITIZER").as_deref() {
        Ok("fail") => dev.with_sanitizer(SanitizerMode::Fail),
        Ok("warn") => dev.with_sanitizer(SanitizerMode::Warn),
        _ => dev,
    }
}

/// A dataset big enough to span many blocks per launch (so the pool
/// actually has work to race over) but small enough to stay fast.
fn sample(rows: usize, cols: usize) -> CsrMatrix<f64> {
    let mut data = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            if (3 * r + 5 * c) % 7 == 0 {
                data[r * cols + c] = 0.25 + (r as f64) / 11.0 + (c as f64) / 29.0;
            }
        }
    }
    CsrMatrix::from_dense(rows, cols, &data)
}

fn run(
    dev: &Device,
    m: &CsrMatrix<f64>,
    distance: Distance,
    strategy: Strategy,
    resilience: Option<ResiliencePolicy>,
) -> Result<PairwiseResult<f64>, KernelError> {
    sparse_dist::pairwise_distances_with(
        dev,
        m,
        m,
        distance,
        &DistanceParams::default(),
        &PairwiseOptions {
            strategy,
            smem_mode: SmemMode::Auto,
            resilience,
        },
    )
}

/// Asserts every observable launch artifact matches between a serial
/// reference and a pooled run: output bits, per-launch counters,
/// roofline seconds, sanitizer reports, and profiler attribution.
fn assert_identical(label: &str, serial: &PairwiseResult<f64>, pooled: &PairwiseResult<f64>) {
    let sbits: Vec<u64> = serial
        .distances
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let pbits: Vec<u64> = pooled
        .distances
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(sbits, pbits, "{label}: output bits diverge");
    assert_eq!(
        serial.launches.len(),
        pooled.launches.len(),
        "{label}: launch count diverges"
    );
    for (s, p) in serial.launches.iter().zip(&pooled.launches) {
        assert_eq!(s.name, p.name, "{label}: launch order diverges");
        assert_eq!(
            s.counters, p.counters,
            "{label}: counters diverge in {}",
            s.name
        );
        assert_eq!(
            s.cost.total_seconds.to_bits(),
            p.cost.total_seconds.to_bits(),
            "{label}: roofline seconds diverge in {}",
            s.name
        );
        assert_eq!(
            s.sanitizer_reports, p.sanitizer_reports,
            "{label}: sanitizer findings diverge in {}",
            s.name
        );
        assert_eq!(
            s.profile, p.profile,
            "{label}: profiler attribution diverges in {}",
            s.name
        );
    }
}

#[test]
fn every_strategy_and_family_is_identical_across_thread_counts() {
    let m = sample(24, 18);
    for strategy in STRATEGIES {
        for distance in DISTANCES {
            let serial = run(&device(1).with_profiler(true), &m, distance, strategy, None)
                .unwrap_or_else(|e| panic!("{distance} via {}: {e}", strategy.name()));
            for threads in THREADS {
                let pooled = run(
                    &device(threads).with_profiler(true),
                    &m,
                    distance,
                    strategy,
                    None,
                )
                .unwrap_or_else(|e| panic!("{distance} via {} x{threads}: {e}", strategy.name()));
                assert_identical(
                    &format!("{distance} via {} x{threads}", strategy.name()),
                    &serial,
                    &pooled,
                );
            }
        }
    }
}

#[test]
fn namm_pass2_slabs_are_identical_across_thread_counts() {
    // 1100 f64 queries give 32-row pass-2 slabs, so a 40-row index runs
    // two (pass 2, combine) pairs: the slab loop and the tiled transpose
    // race over blocks like every other launch.
    let (queries, index) = (sample(1100, 14), sample(40, 14));
    let run = |threads: usize| {
        sparse_dist::pairwise_distances_with(
            &device(threads).with_profiler(true),
            &queries,
            &index,
            Distance::Canberra,
            &DistanceParams::default(),
            &PairwiseOptions::default(),
        )
        .unwrap_or_else(|e| panic!("canberra x{threads}: {e}"))
    };
    let serial = run(1);
    let combines = serial
        .launches
        .iter()
        .filter(|l| l.name == "hybrid_combine")
        .count();
    assert_eq!(combines, 2, "two pass-2 slabs");
    for threads in THREADS {
        assert_identical(
            &format!("canberra slabs x{threads}"),
            &serial,
            &run(threads),
        );
    }
}

#[test]
fn fault_injection_replays_identically_under_a_thread_pool() {
    // Injection-armed launches stay serial inside the executor, but the
    // surrounding retry/cascade engine must still see the exact same
    // fault sequence and produce the exact same report and bytes.
    let m = sample(20, 16);
    let plan = FaultPlan::seeded(7)
        .with_transient_launch_failures(300)
        .with_hash_overflows(150);
    let reference = run(
        &device(1).with_fault_plan(plan.clone()),
        &m,
        Distance::Euclidean,
        Strategy::HybridCooSpmv,
        Some(ResiliencePolicy::with_retries(50)),
    )
    .expect("retries absorb the injected mix");
    let ref_rep = reference.resilience.clone().expect("report");
    for threads in THREADS {
        let pooled = run(
            &device(threads).with_fault_plan(plan.clone()),
            &m,
            Distance::Euclidean,
            Strategy::HybridCooSpmv,
            Some(ResiliencePolicy::with_retries(50)),
        )
        .expect("same plan, same outcome");
        assert_identical("faulty hybrid", &reference, &pooled);
        assert_eq!(
            pooled.resilience.as_ref(),
            Some(&ref_rep),
            "x{threads}: fault replay diverges"
        );
    }
}

#[test]
fn sanitizer_fail_mode_passes_on_clean_kernels_with_a_pool() {
    // Fail mode turns any memcheck/racecheck/synccheck finding into a
    // launch error; a clean kernel must stay clean no matter how many
    // host threads race over its blocks.
    let m = sample(16, 12);
    for strategy in STRATEGIES {
        let dev = Device::volta()
            .with_host_threads(8)
            .with_sanitizer(SanitizerMode::Fail);
        let r = run(&dev, &m, Distance::Cosine, strategy, None)
            .unwrap_or_else(|e| panic!("{} under Fail x8: {e}", strategy.name()));
        for l in &r.launches {
            assert!(
                l.sanitizer_reports.is_empty(),
                "{}: unexpected findings in {}",
                strategy.name(),
                l.name
            );
        }
    }
}

#[test]
fn sharded_knn_is_identical_across_thread_counts() {
    let m = sample(30, 14);
    let serial = NearestNeighbors::new(device(1), Distance::Euclidean)
        .fit(m.clone())
        .kneighbors(&m, 5)
        .expect("serial knn");
    for threads in THREADS {
        let multi = MultiDevice::replicate(&device(threads), 3);
        let sharded = NearestNeighbors::new(device(threads), Distance::Euclidean)
            .fit(m.clone())
            .kneighbors_sharded(&multi, &m, 5)
            .expect("sharded knn");
        assert_eq!(serial.indices, sharded.indices, "x{threads}: neighbor ids");
        for (a, b) in serial.distances.iter().zip(&sharded.distances) {
            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "x{threads}: neighbor distance bits");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized shapes: serial and 8-thread runs of the default
    /// strategy agree bit-for-bit on both output and counters.
    #[test]
    fn random_shapes_are_identical_serial_vs_pooled(
        rows in 4usize..28,
        cols in 4usize..22,
        distance in prop_oneof![Just(Distance::Euclidean), Just(Distance::Canberra)],
    ) {
        let m = sample(rows, cols);
        let serial = run(&device(1), &m, distance, Strategy::HybridCooSpmv, None)
            .expect("serial");
        let pooled = run(&device(8), &m, distance, Strategy::HybridCooSpmv, None)
            .expect("pooled");
        let sbits: Vec<u64> = serial.distances.as_slice().iter().map(|v| v.to_bits()).collect();
        let pbits: Vec<u64> = pooled.distances.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(sbits, pbits);
        for (s, p) in serial.launches.iter().zip(&pooled.launches) {
            prop_assert_eq!(s.counters, p.counters);
        }
    }
}
