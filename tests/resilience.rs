//! End-to-end resilience tests: the retry + fallback-cascade engine
//! against every `sim-fault` class, checked for byte-identical outputs
//! and deterministic replay.
//!
//! CI hooks (the `fault-matrix` job):
//!
//! * `RESILIENCE_SANITIZER=fail|warn` runs every launch under the
//!   corresponding sanitizer mode, so fault paths are also
//!   memcheck/racecheck-clean.
//! * `RESILIENCE_REPORT_JSON=<dir>` writes one `resilience.v1` JSON
//!   artifact per test describing the reports the engine produced.

use proptest::prelude::*;
use semiring::reference::dense_pairwise;
use semiring::{Distance, DistanceParams};
use sparse::CsrMatrix;
use sparse_dist::{
    Device, KernelError, KnnResult, MultiDevice, NearestNeighbors, PairwiseOptions,
    ResiliencePolicy, ResilienceReport, SanitizerMode, SimError, SmemMode, Strategy,
};

use gpu_sim::FaultPlan;
use proptest::Strategy as PropStrategy;

/// Test device honoring the `RESILIENCE_SANITIZER` CI hook.
fn device() -> Device {
    let dev = Device::volta();
    match std::env::var("RESILIENCE_SANITIZER").as_deref() {
        Ok("fail") => dev.with_sanitizer(SanitizerMode::Fail),
        Ok("warn") => dev.with_sanitizer(SanitizerMode::Warn),
        _ => dev,
    }
}

/// Writes the reports a test produced as a `resilience.v1` JSON artifact
/// when the `RESILIENCE_REPORT_JSON` CI hook names a directory.
fn dump_reports(test: &str, reports: &[&ResilienceReport]) {
    let Ok(dir) = std::env::var("RESILIENCE_REPORT_JSON") else {
        return;
    };
    use gpu_sim::json_escape;
    use std::fmt::Write as _;
    let mut s = format!(
        "{{\"schema\":\"resilience.v1\",\"test\":\"{}\",\"reports\":[",
        json_escape(test)
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n  {{\"attempts\":{},\"downgraded\":{},\"final_strategy\":\"{}\",\
             \"final_smem\":\"{:?}\",\"backoff_seconds\":{},\"faults_absorbed\":[",
            r.attempts,
            r.downgraded,
            json_escape(r.final_strategy.name()),
            r.final_smem,
            r.backoff_seconds,
        );
        for (j, f) in r.faults_absorbed.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", json_escape(f));
        }
        s.push_str("]}");
    }
    s.push_str("\n]}\n");
    std::fs::create_dir_all(&dir).expect("artifact dir");
    std::fs::write(format!("{dir}/{test}.json"), s).expect("artifact write");
}

fn sample() -> CsrMatrix<f64> {
    let mut data = vec![0.0; 12 * 20];
    for r in 0..12 {
        for c in 0..20 {
            if (r * 7 + c * 3) % 4 == 0 {
                data[r * 20 + c] = 1.0 + (r as f64) / 8.0 + (c as f64) / 50.0;
            }
        }
    }
    CsrMatrix::from_dense(12, 20, &data)
}

fn run(
    dev: &Device,
    m: &CsrMatrix<f64>,
    strategy: Strategy,
    smem_mode: SmemMode,
    resilience: Option<ResiliencePolicy>,
) -> Result<sparse_dist::PairwiseResult<f64>, KernelError> {
    sparse_dist::pairwise_distances_with(
        dev,
        m,
        m,
        Distance::Euclidean,
        &DistanceParams::default(),
        &PairwiseOptions {
            strategy,
            smem_mode,
            resilience,
        },
    )
}

#[test]
fn policy_on_a_clean_device_reports_one_attempt() {
    let m = sample();
    let clean = run(&device(), &m, Strategy::HybridCooSpmv, SmemMode::Hash, None).expect("clean");
    assert!(clean.resilience.is_none(), "no policy, no report");
    let r = run(
        &device(),
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Hash,
        Some(ResiliencePolicy::default()),
    )
    .expect("clean with policy");
    let rep = r.resilience.expect("policy produces a report");
    assert_eq!(rep.attempts, 1);
    assert!(!rep.downgraded);
    assert!(rep.faults_absorbed.is_empty());
    assert_eq!(rep.final_strategy, Strategy::HybridCooSpmv);
    assert_eq!(
        r.distances.as_slice(),
        clean.distances.as_slice(),
        "policy bookkeeping must not perturb outputs"
    );
    dump_reports("policy_on_a_clean_device_reports_one_attempt", &[&rep]);
}

#[test]
fn transient_faults_retry_to_byte_identical_distances() {
    let m = sample();
    let clean = run(&device(), &m, Strategy::HybridCooSpmv, SmemMode::Hash, None).expect("clean");
    let dev = device().with_fault_plan(FaultPlan::seeded(5).with_transient_launch_failures(200));
    let r = run(
        &dev,
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Hash,
        Some(ResiliencePolicy::with_retries(40)),
    )
    .expect("retries absorb transient faults");
    let rep = r.resilience.expect("report");
    assert!(rep.attempts >= 1);
    assert!(!rep.downgraded, "transient faults never change the plan");
    assert_eq!(r.distances.as_slice(), clean.distances.as_slice());
    dump_reports(
        "transient_faults_retry_to_byte_identical_distances",
        &[&rep],
    );
}

#[test]
fn ecc_bit_flips_on_uploaded_buffers_are_absorbed() {
    let m = sample();
    let clean = run(&device(), &m, Strategy::HybridCooSpmv, SmemMode::Hash, None).expect("clean");
    let dev = device().with_fault_plan(FaultPlan::seeded(9).with_bit_flips("csr.values", 200));
    let r = run(
        &dev,
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Hash,
        Some(ResiliencePolicy::with_retries(40)),
    )
    .expect("ECC events absorb as retries");
    let rep = r.resilience.expect("report");
    assert_eq!(
        r.distances.as_slice(),
        clean.distances.as_slice(),
        "ECC model never corrupts data, so retried runs are byte-identical"
    );
    dump_reports("ecc_bit_flips_on_uploaded_buffers_are_absorbed", &[&rep]);
}

#[test]
fn injected_hash_overflow_degrades_and_stays_correct() {
    let m = sample();
    let want = dense_pairwise(&m, &m, Distance::Euclidean, &DistanceParams::default());
    let dev = device().with_fault_plan(FaultPlan::seeded(2).with_hash_overflows(1000));
    let r = run(
        &dev,
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Hash,
        Some(ResiliencePolicy::default()),
    )
    .expect("cascade absorbs the overflow");
    let rep = r.resilience.expect("report");
    assert!(rep.downgraded, "hash overflow must force a re-plan");
    assert_ne!(
        (rep.final_strategy, rep.final_smem),
        (Strategy::HybridCooSpmv, SmemMode::Hash),
        "final plan must differ from the poisoned one"
    );
    assert!(
        r.distances.max_abs_diff(&want) < 1e-9,
        "degraded plan is still correct"
    );
    dump_reports("injected_hash_overflow_degrades_and_stays_correct", &[&rep]);
}

#[test]
fn forced_dense_overflow_walks_the_cascade() {
    // Dense shared-memory rows over 500K columns cannot fit; Auto would
    // refuse up front with UnsupportedSmemMode — the cascade re-plans.
    let m = CsrMatrix::<f64>::from_triplets(
        3,
        500_000,
        &[
            (0, 1, 1.0),
            (0, 499_999, 2.0),
            (1, 7, 3.0),
            (2, 499_999, 1.5),
        ],
    )
    .expect("valid");
    let want = dense_pairwise(&m, &m, Distance::Euclidean, &DistanceParams::default());
    let r = run(
        &device(),
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Dense,
        Some(ResiliencePolicy::default()),
    )
    .expect("cascade finds a plan that fits");
    let rep = r.resilience.expect("report");
    assert!(rep.downgraded);
    assert!(!rep.faults_absorbed.is_empty());
    assert!(r.distances.max_abs_diff(&want) < 1e-6);
    dump_reports("forced_dense_overflow_walks_the_cascade", &[&rep]);
}

#[test]
fn disabled_cascade_surfaces_the_typed_capacity_error() {
    let m = sample();
    let dev = device().with_fault_plan(FaultPlan::seeded(2).with_hash_overflows(1000));
    let err = run(
        &dev,
        &m,
        Strategy::HybridCooSpmv,
        SmemMode::Hash,
        Some(ResiliencePolicy::default().without_fallback()),
    )
    .expect_err("no cascade, no rescue");
    match err {
        KernelError::Launch(SimError::CapacityOverflow { resource, .. }) => {
            assert_eq!(resource, "smem-hash-table");
        }
        other => panic!("expected CapacityOverflow, got {other}"),
    }
}

/// Whether a clean (fault-free, no-policy) run of `plan` completes
/// under a device-wide watchdog budget.
fn passes_with_budget(m: &CsrMatrix<f64>, plan: (Strategy, SmemMode), budget: u64) -> bool {
    match run(&device().with_watchdog(budget), m, plan.0, plan.1, None) {
        Ok(_) => true,
        Err(KernelError::Launch(SimError::WatchdogTimeout { .. })) => false,
        Err(other) => panic!("watchdog probe hit an unrelated error: {other}"),
    }
}

/// Smallest per-block issue budget under which `plan` completes.
fn min_passing_budget(m: &CsrMatrix<f64>, plan: (Strategy, SmemMode)) -> u64 {
    let mut hi = 64u64;
    while !passes_with_budget(m, plan, hi) {
        hi *= 2;
        assert!(hi < 1 << 40, "plan never fits any watchdog budget");
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes_with_budget(m, plan, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

#[test]
fn watchdog_timeout_degrades_through_the_policy() {
    // Measure the per-block issue needs of every plan in the cascade,
    // then arm the watchdog with a budget that provably times out some
    // requested plan while a downstream plan still fits: the policy must
    // convert the WatchdogTimeout into a degradation, not a failure.
    let m = sample();
    let want = dense_pairwise(&m, &m, Distance::Euclidean, &DistanceParams::default());
    let chain = [
        (Strategy::HybridCooSpmv, SmemMode::Hash),
        (Strategy::HybridCooSpmv, SmemMode::Bloom),
        (Strategy::NaiveCsrShared, SmemMode::Auto),
        (Strategy::NaiveCsr, SmemMode::Auto),
    ];
    let mins: Vec<u64> = chain.iter().map(|&p| min_passing_budget(&m, p)).collect();
    let start = (0..chain.len() - 1)
        .find(|&i| mins[i + 1..].iter().any(|&down| down < mins[i]))
        .unwrap_or_else(|| {
            panic!("no plan is strictly hungrier than its fallbacks: budgets {mins:?}")
        });
    let budget = mins[start] - 1;

    let dev = device().with_watchdog(budget);
    let r = run(
        &dev,
        &m,
        chain[start].0,
        chain[start].1,
        Some(ResiliencePolicy::default()),
    )
    .expect("cascade lands on a plan that fits the budget");
    let rep = r.resilience.expect("report");
    assert!(rep.downgraded, "budgets {mins:?}, armed {budget}");
    assert!(
        rep.faults_absorbed.iter().any(|f| f.contains("watchdog")),
        "absorbed faults must name the watchdog: {:?}",
        rep.faults_absorbed
    );
    assert!(r.distances.max_abs_diff(&want) < 1e-9);
    dump_reports("watchdog_timeout_degrades_through_the_policy", &[&rep]);
}

#[test]
fn same_seed_replays_identical_reports_and_outputs() {
    let m = sample();
    let go = || {
        let dev = device().with_fault_plan(
            FaultPlan::seeded(31)
                .with_transient_launch_failures(150)
                .with_hash_overflows(300),
        );
        run(
            &dev,
            &m,
            Strategy::HybridCooSpmv,
            SmemMode::Hash,
            Some(ResiliencePolicy::with_retries(40)),
        )
        .expect("policy absorbs the mix")
    };
    let a = go();
    let b = go();
    assert_eq!(a.resilience, b.resilience, "identical fault/retry history");
    assert_eq!(a.distances.as_slice(), b.distances.as_slice());
    dump_reports(
        "same_seed_replays_identical_reports_and_outputs",
        &[a.resilience.as_ref().expect("report")],
    );
}

#[test]
fn knn_poisoned_tiles_degrade_per_tile_not_per_graph() {
    let m = sample();
    let clean = NearestNeighbors::new(device(), Distance::Euclidean)
        .fit(m.clone())
        .kneighbors(&m, 3)
        .expect("clean knn");
    assert!(clean.resilience.is_empty(), "no policy, no reports");

    // Three index slabs → three tiles; every tile's first hash insert
    // overflows, so each degrades independently.
    let dev = device().with_fault_plan(FaultPlan::seeded(4).with_hash_overflows(1000));
    let nn = NearestNeighbors::new(dev, Distance::Euclidean)
        .with_options(PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
            resilience: Some(ResiliencePolicy::default()),
        })
        .with_index_batch_rows(4)
        .fit(m.clone());
    let got = nn
        .kneighbors(&m, 3)
        .expect("poisoned tiles degrade, graph completes");
    assert_eq!(got.resilience.len(), 3, "one report per tile");
    assert!(got.resilience.iter().all(|r| r.downgraded));
    assert_eq!(
        got.indices, clean.indices,
        "degraded tiles keep the graph exact"
    );
    for (a, b) in got.distances.iter().zip(&clean.distances) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12);
        }
    }
    let refs: Vec<&ResilienceReport> = got.resilience.iter().collect();
    dump_reports("knn_poisoned_tiles_degrade_per_tile_not_per_graph", &refs);
}

fn arb_matrix() -> impl PropStrategy<Value = CsrMatrix<f64>> {
    (2usize..8, 2usize..16).prop_flat_map(|(rows, cols)| {
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

    /// Whenever the cascade succeeds under an injected fault mix, the
    /// distances are byte-identical to a fault-free run of whatever plan
    /// it landed on — and replaying the same seed reproduces both the
    /// fault history and the bytes. The k-NN driver, plain and sharded,
    /// keeps its fault-free answers too: its top-k selection launch
    /// retries under the tile's policy like every cascade step.
    #[test]
    fn faulty_runs_match_fault_free_runs_bit_for_bit(
        m in arb_matrix(),
        seed in 0u64..1024,
        rate in prop_oneof![Just(0u16), Just(150u16), Just(400u16)],
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_transient_launch_failures(rate)
            .with_hash_overflows(rate / 2);
        let dev = device().with_fault_plan(plan.clone());
        let policy = ResiliencePolicy::with_retries(50);
        // Retries exhausted under an extreme mix is acceptable; the
        // property only constrains successful runs.
        if let Ok(r) = run(&dev, &m, Strategy::HybridCooSpmv, SmemMode::Hash, Some(policy)) {
            let rep = r.resilience.clone().expect("report");

            // Fault-free run of the plan the cascade landed on.
            let clean = run(&device(), &m, rep.final_strategy, rep.final_smem, None)
                .expect("final plan runs clean");
            prop_assert_eq!(r.distances.as_slice(), clean.distances.as_slice());

            // Deterministic replay.
            let dev2 = device().with_fault_plan(plan);
            let r2 = run(&dev2, &m, Strategy::HybridCooSpmv, SmemMode::Hash,
                         Some(ResiliencePolicy::with_retries(50)))
                .expect("same seed, same outcome");
            prop_assert_eq!(r2.resilience.as_ref(), Some(&rep));
            prop_assert_eq!(r.distances.as_slice(), r2.distances.as_slice());
        }

        let knn = |dev: &Device, resilience: Option<ResiliencePolicy>| {
            let nn = NearestNeighbors::new(dev.clone(), Distance::Euclidean)
                .with_options(PairwiseOptions { resilience, ..PairwiseOptions::default() })
                .with_index_batch_rows(1)
                .fit(m.clone());
            let multi = MultiDevice::replicate(dev, 2);
            [nn.kneighbors(&m, 3), nn.kneighbors_sharded(&multi, &m, 3)]
                .map(|r| r.expect("retries absorb every transient fault"))
        };
        let answer = |r: &KnnResult<f64>| {
            let bits: Vec<u64> = r.distances.concat().iter().map(|d| d.to_bits()).collect();
            (r.indices.clone(), bits)
        };
        let clean = knn(&device(), None).map(|r| answer(&r));
        // Walk fault seeds from `seed` until a schedule hits a selection
        // launch, so every case exercises the selection retry.
        let selection_retried = (seed..seed + 64).any(|s| {
            let plan = FaultPlan::seeded(s).with_transient_launch_failures(250);
            let runs = knn(&device().with_fault_plan(plan), Some(ResiliencePolicy::with_retries(8)));
            for (r, want) in runs.iter().zip(&clean) {
                assert_eq!(&answer(r), want);
            }
            runs.iter()
                .flat_map(|r| &r.resilience)
                .flat_map(|rep| &rep.faults_absorbed)
                .any(|f| f.contains("top_k_select"))
        });
        prop_assert!(selection_retried, "no fault schedule hit a selection launch");
    }
}
