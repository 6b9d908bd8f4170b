//! Split-row selection through the k-NN shard loop. A query batch large
//! enough to reach 256 selection blocks splits each distance row into
//! column chunks and merges them in a second `top_k_select` launch; a
//! single query selects in one launch. Both must give the same answer
//! bits, bill both launches, and retry the whole selection when a
//! transient fault hits the merge.

use gpu_sim::{Device, FaultPlan, LaunchConfig, LaunchStats};
use kernels::{PairwiseOptions, ResiliencePolicy};
use neighbors::{KnnResult, MultiDevice, NearestNeighbors};
use semiring::Distance;
use sparse::CsrMatrix;

/// A `rows × cols` matrix at about 14 % density with non-integer values.
fn matrix(rows: usize, cols: usize, salt: usize) -> CsrMatrix<f32> {
    let dense: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i * 7919 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(7) {
                0.1 + (h % 997) as f32 / 97.0
            } else {
                0.0
            }
        })
        .collect();
    CsrMatrix::from_dense(rows, cols, &dense)
}

/// 128 queries over 1100 index rows: three column chunks per row, 384
/// blocks, so the batch's selection splits.
fn inputs() -> (CsrMatrix<f32>, CsrMatrix<f32>) {
    (matrix(1100, 48, 1), matrix(128, 48, 2))
}

const K: usize = 10;

fn selections(r: &KnnResult<f32>) -> usize {
    r.launches
        .iter()
        .filter(|l| l.name == "top_k_select")
        .count()
}

fn bits(d: &[f32]) -> Vec<u32> {
    d.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn split_and_whole_row_selection_are_byte_identical() {
    let (index, queries) = inputs();
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(index);
    let shards = nn.prepare_shards(&MultiDevice::replicate(&Device::volta(), 1));
    let batch = nn.kneighbors_prepared(&shards, &queries, K).expect("batch");
    assert_eq!(batch.batches, 1);
    assert_eq!(selections(&batch), 2, "the chunk scan and the merge");
    let billed: f64 = batch.launches.iter().map(LaunchStats::sim_seconds).sum();
    assert!((billed - batch.sim_seconds).abs() <= 1e-12 * billed);
    for q in (0..queries.rows()).step_by(9) {
        let one = nn
            .kneighbors_prepared(&shards, &queries.slice_rows(q..q + 1), K)
            .expect("single");
        assert_eq!(selections(&one), 1, "one query selects whole rows");
        assert_eq!(one.indices[0], batch.indices[q], "query {q}");
        assert_eq!(
            bits(&one.distances[0]),
            bits(&batch.distances[q]),
            "query {q}"
        );
    }
}

/// Which of the first `n` launches of a device carrying `plan` fail.
fn failures(plan: &FaultPlan, n: usize) -> Vec<bool> {
    let dev = Device::volta().with_fault_plan(plan.clone());
    (0..n)
        .map(|_| {
            dev.try_launch("probe", LaunchConfig::new(1, 32, 0), |_| {})
                .is_err()
        })
        .collect()
}

#[test]
fn a_fault_in_the_merge_retries_the_whole_selection() {
    let (index, queries) = inputs();
    let estimator = |dev: Device| {
        NearestNeighbors::new(dev, Distance::Euclidean)
            .with_options(PairwiseOptions {
                resilience: Some(ResiliencePolicy::with_retries(2)),
                ..PairwiseOptions::default()
            })
            .fit(index.clone())
    };
    let clean = estimator(Device::volta())
        .kneighbors(&queries, K)
        .expect("clean");
    // Launch ordinals follow the fault-free launch list: the merge is
    // the second `top_k_select`.
    let merge = clean
        .launches
        .iter()
        .enumerate()
        .filter(|(_, l)| l.name == "top_k_select")
        .nth(1)
        .map(|(i, _)| i)
        .expect("a split selection");
    // A plan whose only fault before the retried scan and merge is the
    // first merge launch.
    let plan = (0..10_000)
        .map(|seed| FaultPlan::seeded(seed).with_transient_launch_failures(150))
        .find(|plan| {
            let failed = failures(plan, merge + 3);
            (0..merge + 3).all(|o| failed[o] == (o == merge))
        })
        .expect("a seed faulting only the merge");
    let faulted = estimator(Device::volta().with_fault_plan(plan))
        .kneighbors(&queries, K)
        .expect("retried");
    let report = &faulted.resilience[0];
    assert_eq!(report.attempts, 2, "{:?}", report.faults_absorbed);
    assert!(report.faults_absorbed[0].contains("top_k_select"));
    assert_eq!(faulted.indices, clean.indices);
    for (f, c) in faulted.distances.iter().zip(&clean.distances) {
        assert_eq!(bits(f), bits(c));
    }
    // The retried selection's two launches are billed once each.
    assert_eq!(selections(&faulted), 2);
    assert_eq!(faulted.sim_seconds.to_bits(), clean.sim_seconds.to_bits());
}
