//! Sanitizer integration suite.
//!
//! Two halves, mirroring how `compute-sanitizer` is used in practice:
//!
//! 1. **Clean-kernel certification** — every kernel strategy runs under
//!    [`SanitizerMode::Fail`] across representative distances and
//!    shared-memory modes. A single memcheck/racecheck/synccheck/
//!    initcheck finding turns the launch into an error, so these tests
//!    certify the shipped kernels hazard-free under the model.
//! 2. **Fault injection** — hand-written gpu-sim kernels that each
//!    contain exactly one class of bug, asserting the matching checker
//!    (and only a sensible one) fires. A checker that cannot catch its
//!    own seeded bug is vacuous.
//!
//! A proptest closes the loop on the cost model: enabling the sanitizer
//! in `Warn` mode must leave every [`Counters`] field byte-identical to
//! an `Off` run — observation must not perturb the measurement.

use gpu_sim::{
    lanes_from_fn, CheckerKind, Device, GlobalBuffer, LaunchConfig, SanitizerMode, SimError,
    WARP_SIZE,
};
use proptest::prelude::*;
use semiring::{Distance, DistanceParams};
use sparse::CsrMatrix;
use sparse_dist::{PairwiseOptions, SmemMode, Strategy as KernelStrategy};

/// Distances chosen to cover every expansion-function shape: additive
/// (Manhattan), squared-norm (Euclidean), normed (Cosine), ratio
/// (Canberra), and the plain annihilating product (DotProduct).
const DISTANCES: [Distance; 5] = [
    Distance::Manhattan,
    Distance::Euclidean,
    Distance::Cosine,
    Distance::Canberra,
    Distance::DotProduct,
];

fn sample_matrix() -> CsrMatrix<f64> {
    let trips: Vec<(u32, u32, f64)> = (0..24u32)
        .flat_map(|r| (0..12u32).map(move |c| (r, (c * 11 + r * 3) % 64, 1.0 + f64::from(c))))
        .collect();
    CsrMatrix::from_triplets(24, 64, &trips).expect("valid")
}

#[test]
fn every_strategy_is_clean_under_fail_mode() {
    let dev = Device::volta().with_sanitizer(SanitizerMode::Fail);
    let a = sample_matrix();
    let q = a.slice_rows(0..8);
    let params = DistanceParams::default();
    for strategy in [
        KernelStrategy::ExpandSortContract,
        KernelStrategy::NaiveCsr,
        KernelStrategy::NaiveCsrShared,
        KernelStrategy::HybridCooSpmv,
    ] {
        for distance in DISTANCES {
            let opts = PairwiseOptions {
                strategy,
                smem_mode: SmemMode::Auto,
                resilience: None,
            };
            let res = sparse_dist::pairwise_distances_with(&dev, &q, &a, distance, &params, &opts)
                .unwrap_or_else(|e| panic!("{distance} via {} under Fail: {e}", strategy.name()));
            for launch in &res.launches {
                assert!(
                    launch.sanitizer_reports.is_empty(),
                    "{distance} via {}: unexpected reports in {}",
                    strategy.name(),
                    launch.name
                );
            }
        }
    }
}

#[test]
fn every_smem_mode_is_clean_under_fail_mode() {
    // The hybrid kernel's three shared-memory lookup structures exercise
    // the atomic shadow paths (CAS claims, bloom ORs) — certify each.
    let dev = Device::volta().with_sanitizer(SanitizerMode::Fail);
    let a = sample_matrix();
    let q = a.slice_rows(0..8);
    let params = DistanceParams::default();
    for mode in [SmemMode::Dense, SmemMode::Hash, SmemMode::Bloom] {
        let opts = PairwiseOptions {
            strategy: KernelStrategy::HybridCooSpmv,
            smem_mode: mode,
            resilience: None,
        };
        sparse_dist::pairwise_distances_with(&dev, &q, &a, Distance::Cosine, &params, &opts)
            .unwrap_or_else(|e| panic!("{mode:?} under Fail: {e}"));
    }
}

#[test]
fn knn_pipeline_is_clean_under_fail_mode() {
    // Fused k-NN adds the selection kernels (insertion-sort emulation,
    // bitonic merges) on top of the distance pass.
    let dev = Device::volta().with_sanitizer(SanitizerMode::Fail);
    let a = sample_matrix();
    let nn = sparse_dist::NearestNeighbors::new(dev, Distance::Euclidean).fit(a.clone());
    let res = nn.kneighbors(&a, 4).expect("clean under Fail");
    assert_eq!(res.indices.len(), a.rows());
}

/// Expects `try_launch` to fail with sanitizer reports and returns them.
fn expect_reports(result: Result<gpu_sim::LaunchStats, SimError>) -> Vec<gpu_sim::SanitizerReport> {
    match result {
        Err(SimError::SanitizerFailure { reports, .. }) => {
            assert!(!reports.is_empty());
            reports
        }
        Err(other) => panic!("expected SanitizerFailure, got {other}"),
        Ok(_) => panic!("seeded fault was not detected"),
    }
}

fn fail_device() -> Device {
    Device::volta().with_sanitizer(SanitizerMode::Fail)
}

#[test]
fn memcheck_catches_oob_shared_write() {
    let reports = expect_reports(fail_device().try_launch(
        "inject_smem_oob",
        LaunchConfig::new(1, WARP_SIZE, 1024),
        |block| {
            let arr = block.alloc_shared::<f32>(8);
            block.fill_shared(&arr, 0.0);
            block.run_warps(|w| {
                // Lane 0 writes one past the end.
                let idx = lanes_from_fn(|l| (l == 0).then_some(8usize));
                w.smem_scatter(&arr, &idx, &lanes_from_fn(|_| 1.0));
            });
        },
    ));
    assert!(reports.iter().all(|r| r.kind == CheckerKind::Memcheck));
    assert_eq!(reports[0].lane, Some(0));
    assert_eq!(reports[0].offset, Some(8));
}

#[test]
fn memcheck_catches_oob_global_read_and_squashes_the_lane() {
    let dev = fail_device();
    let buf = dev.buffer_from_slice(&[1.0f32, 2.0]);
    let reports = expect_reports(dev.try_launch(
        "inject_global_oob",
        LaunchConfig::new(1, WARP_SIZE, 0),
        |block| {
            block.run_warps(|w| {
                let idx = lanes_from_fn(Some); // lanes 2..32 are OOB
                let got = w.global_gather(&buf, &idx);
                // Squashed lanes read as default, not as stale memory.
                assert_eq!(got[5], 0.0);
            });
        },
    ));
    assert_eq!(reports.len(), WARP_SIZE - 2);
    assert!(reports.iter().all(|r| r.kind == CheckerKind::Memcheck));
}

#[test]
fn racecheck_catches_unsynchronized_cross_warp_write() {
    let reports = expect_reports(fail_device().try_launch(
        "inject_race",
        LaunchConfig::new(1, 2 * WARP_SIZE, 1024),
        |block| {
            let arr = block.alloc_shared::<u32>(4);
            block.fill_shared(&arr, 0);
            // Both warps write element 0 in the same barrier epoch.
            block.run_warps(|w| {
                let idx = lanes_from_fn(|l| (l == 0).then_some(0usize));
                w.smem_scatter(&arr, &idx, &lanes_from_fn(|_| w.warp_id as u32));
            });
        },
    ));
    assert!(reports.iter().any(|r| r.kind == CheckerKind::Racecheck));
}

#[test]
fn racecheck_accepts_barrier_separated_phases() {
    // The same access pattern with a sync between the writers is the
    // stage-then-consume idiom every kernel here uses — must be clean.
    fail_device()
        .try_launch(
            "race_free_phases",
            LaunchConfig::new(1, 2 * WARP_SIZE, 1024),
            |block| {
                let arr = block.alloc_shared::<u32>(4);
                block.fill_shared(&arr, 0);
                block.run_warps(|w| {
                    if w.warp_id == 0 {
                        let idx = lanes_from_fn(|l| (l == 0).then_some(0usize));
                        w.smem_scatter(&arr, &idx, &lanes_from_fn(|_| 7));
                    }
                });
                block.sync();
                block.run_warps(|w| {
                    if w.warp_id == 1 {
                        let idx = lanes_from_fn(|l| (l == 0).then_some(0usize));
                        let got = w.smem_gather(&arr, &idx);
                        assert_eq!(got[0], 7);
                    }
                });
            },
        )
        .expect("barrier-separated phases are race-free");
}

#[test]
fn racecheck_accepts_cross_warp_atomics() {
    // Concurrent atomics on one address are the hash-insert/bloom-set
    // idiom — serialized by hardware, not a data race.
    fail_device()
        .try_launch(
            "atomic_contention",
            LaunchConfig::new(1, 2 * WARP_SIZE, 1024),
            |block| {
                let arr = block.alloc_shared::<u32>(1);
                block.fill_shared(&arr, 0);
                block.run_warps(|w| {
                    let idx = lanes_from_fn(|l| (l == 0).then_some(0usize));
                    let _ = w.smem_atomic(&arr, &idx, &lanes_from_fn(|_| 1), |a, b| a | b);
                });
            },
        )
        .expect("atomics do not race");
}

#[test]
fn synccheck_catches_barrier_under_divergence() {
    let reports = expect_reports(fail_device().try_launch(
        "inject_divergent_barrier",
        LaunchConfig::new(1, WARP_SIZE, 0),
        |block| {
            block.run_warps(|w| {
                // Only half the lanes reach the barrier.
                w.barrier(&lanes_from_fn(|l| l < 16));
            });
        },
    ));
    assert!(reports.iter().any(|r| r.kind == CheckerKind::Synccheck));
}

#[test]
fn synccheck_catches_mismatched_arrival_counts() {
    let reports = expect_reports(fail_device().try_launch(
        "inject_arrival_mismatch",
        LaunchConfig::new(1, 2 * WARP_SIZE, 0),
        |block| {
            block.run_warps(|w| {
                // Warp 0 hits the barrier once; warp 1 never arrives.
                if w.warp_id == 0 {
                    w.barrier(&lanes_from_fn(|_| true));
                }
            });
            block.sync();
        },
    ));
    assert!(reports.iter().any(|r| r.kind == CheckerKind::Synccheck));
}

#[test]
fn initcheck_catches_read_of_unwritten_shared_memory() {
    let reports = expect_reports(fail_device().try_launch(
        "inject_uninit_smem",
        LaunchConfig::new(1, WARP_SIZE, 1024),
        |block| {
            // Allocated but never filled or written.
            let arr = block.alloc_shared::<f32>(16);
            block.run_warps(|w| {
                let idx = lanes_from_fn(|l| (l == 3).then_some(3usize));
                let _ = w.smem_gather(&arr, &idx);
            });
        },
    ));
    assert!(reports.iter().any(|r| r.kind == CheckerKind::Initcheck));
}

#[test]
fn initcheck_catches_read_of_uninitialized_global_memory() {
    let dev = fail_device();
    let buf = GlobalBuffer::<f32>::uninit(64);
    let reports = expect_reports(dev.try_launch(
        "inject_uninit_global",
        LaunchConfig::new(1, WARP_SIZE, 0),
        |block| {
            block.run_warps(|w| {
                let _ = w.global_gather(&buf, &lanes_from_fn(Some));
            });
        },
    ));
    assert_eq!(reports.len(), WARP_SIZE);
    assert!(reports.iter().all(|r| r.kind == CheckerKind::Initcheck));
}

#[test]
fn warn_mode_collects_reports_without_failing() {
    let dev = Device::volta().with_sanitizer(SanitizerMode::Warn);
    let stats = dev
        .try_launch(
            "warn_mode_oob",
            LaunchConfig::new(1, WARP_SIZE, 1024),
            |block| {
                let arr = block.alloc_shared::<f32>(8);
                block.fill_shared(&arr, 0.0);
                block.run_warps(|w| {
                    let idx = lanes_from_fn(|l| (l == 0).then_some(99usize));
                    w.smem_scatter(&arr, &idx, &lanes_from_fn(|_| 1.0));
                });
            },
        )
        .expect("warn mode completes");
    assert_eq!(stats.sanitizer_reports.len(), 1);
    assert_eq!(stats.sanitizer_reports[0].kind, CheckerKind::Memcheck);
}

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..8, 1usize..16).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0f64),
                2 => (1u32..400).prop_map(|v| v as f64 / 100.0),
            ],
            rows * cols,
        )
        .prop_map(move |data| CsrMatrix::from_dense(rows, cols, &data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sanitizer is a pure observer: running with `Warn` must leave
    /// every counter byte-identical to `Off` — for random inputs, every
    /// strategy, and a distance from each expansion family.
    #[test]
    fn warn_mode_counters_are_byte_identical_to_off(a in arb_matrix()) {
        let off = Device::volta();
        let warn = Device::volta().with_sanitizer(SanitizerMode::Warn);
        let params = DistanceParams::default();
        for strategy in [
            KernelStrategy::ExpandSortContract,
            KernelStrategy::NaiveCsr,
            KernelStrategy::NaiveCsrShared,
            KernelStrategy::HybridCooSpmv,
        ] {
            for distance in [Distance::Manhattan, Distance::Cosine, Distance::DotProduct] {
                let opts = PairwiseOptions { strategy, smem_mode: SmemMode::Auto, resilience: None };
                let base = sparse_dist::pairwise_distances_with(
                    &off, &a, &a, distance, &params, &opts,
                ).expect("off run");
                let observed = sparse_dist::pairwise_distances_with(
                    &warn, &a, &a, distance, &params, &opts,
                ).expect("warn run");
                prop_assert_eq!(base.launches.len(), observed.launches.len());
                for (b, o) in base.launches.iter().zip(&observed.launches) {
                    prop_assert!(o.sanitizer_reports.is_empty(), "{}: reports", o.name);
                    prop_assert_eq!(
                        &b.counters, &o.counters,
                        "{} via {:?}: counters diverge under Warn", distance, strategy
                    );
                }
            }
        }
    }
}
