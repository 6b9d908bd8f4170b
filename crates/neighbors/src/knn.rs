//! The brute-force `NearestNeighbors` estimator.
//!
//! A query runs through the crate's one shard runner
//! ([`crate::prepared`]): [`NearestNeighbors::kneighbors`] prepares the
//! index slabs on a one-device pool holding the estimator's own device
//! and queries them exactly like a sharded or served query does.

use gpu_sim::{Device, LaunchStats};
use kernels::{KernelError, MemoryFootprint, PairwiseOptions, ResilienceReport};
use semiring::{Distance, DistanceParams};
use sparse::{CsrMatrix, Real};

/// Default device-memory budget for one batch's dense output tile
/// (256 MiB, comfortably under a V100's 16 GB alongside the inputs).
const DEFAULT_BATCH_BYTES: usize = 256 * 1024 * 1024;

/// Result of a k-NN query.
#[derive(Debug, Clone)]
pub struct KnnResult<T> {
    /// For each query row, the indices of its `k` nearest index rows,
    /// ascending by distance.
    pub indices: Vec<Vec<usize>>,
    /// The corresponding distances.
    pub distances: Vec<Vec<T>>,
    /// Total simulated GPU seconds across all batches and kernels.
    pub sim_seconds: f64,
    /// Number of (query batch × index slab) tiles executed.
    pub batches: usize,
    /// Peak per-batch device memory accounting.
    pub peak_memory: MemoryFootprint,
    /// Every kernel launch, in execution order: per tile, its norm and
    /// distance kernels, then its `top_k_select` launches (one, or the
    /// chunk scan and the merge when the selection splits its rows; see
    /// [`kernels::top_k_kernel`]). Carries per-range
    /// profiles when the device profiler is enabled.
    pub launches: Vec<LaunchStats>,
    /// One resilience report per distance tile when the estimator runs
    /// with a [`kernels::ResiliencePolicy`] (empty otherwise). A fault on
    /// one tile is retried or degraded in place, so a single poisoned
    /// tile does not fail the whole neighborhood graph.
    pub resilience: Vec<ResilienceReport>,
    /// Number of simulated devices the query was sharded across
    /// (1 for single-device queries; see [`crate::MultiDevice`]).
    pub devices: usize,
    /// Simulated seconds attributed to each device. Devices execute
    /// concurrently in simulated time, so `sim_seconds` is the maximum
    /// of these entries on sharded queries (and equal to the single
    /// entry otherwise).
    pub per_device_seconds: Vec<f64>,
}

/// Brute-force k-nearest-neighbors estimator over the sparse pairwise
/// distance primitive (the cuML `NearestNeighbors` analog of Figure 2).
///
/// Queries run in batches along both axes: query rows are batched so the
/// dense output tile fits a byte budget (§4.2's motivation for
/// benchmarking through k-NN), and the index can additionally be split
/// into row slabs whose per-slab top-k results are merged — the
/// mechanism that lets a fixed-memory GPU answer queries against an
/// index of unbounded size.
#[derive(Debug, Clone)]
pub struct NearestNeighbors<T> {
    device: Device,
    distance: Distance,
    pub(crate) params: DistanceParams,
    options: PairwiseOptions,
    pub(crate) batch_bytes: usize,
    index_batch_rows: Option<usize>,
    index: Option<CsrMatrix<T>>,
}

impl<T: Real> NearestNeighbors<T> {
    /// Creates an unfitted estimator for `distance` on `device`.
    pub fn new(device: Device, distance: Distance) -> Self {
        Self {
            device,
            distance,
            params: DistanceParams::default(),
            options: PairwiseOptions::default(),
            batch_bytes: DEFAULT_BATCH_BYTES,
            index_batch_rows: None,
            index: None,
        }
    }

    /// Sets distance parameters (Minkowski `p`).
    pub fn with_params(mut self, params: DistanceParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the kernel strategy / shared-memory mode.
    pub fn with_options(mut self, options: PairwiseOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the per-batch output budget in bytes (controls how many query
    /// rows are processed per kernel launch).
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = bytes.max(1);
        self
    }

    /// Splits the index into slabs of at most `rows` rows, merging the
    /// per-slab top-k results. Unset = the whole index per tile.
    pub fn with_index_batch_rows(mut self, rows: usize) -> Self {
        self.index_batch_rows = Some(rows.max(1));
        self
    }

    /// Stores the index matrix (brute force has no training step).
    pub fn fit(mut self, index: CsrMatrix<T>) -> Self {
        self.index = Some(index);
        self
    }

    /// The configured distance metric.
    pub fn metric(&self) -> Distance {
        self.distance
    }

    /// The simulated device this estimator launches kernels on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The pairwise execution options (strategy, smem mode, resilience
    /// policy) this estimator runs its distance tiles with.
    pub fn pairwise_options(&self) -> &PairwiseOptions {
        &self.options
    }

    /// The explicit index slab-rows override, if one was set with
    /// [`NearestNeighbors::with_index_batch_rows`] (part of a prepared
    /// shard set's cache identity: different slab geometry means a
    /// different artifact).
    pub fn index_slab_rows(&self) -> Option<usize> {
        self.index_batch_rows
    }

    /// The fitted index matrix, if any.
    pub fn index(&self) -> Option<&CsrMatrix<T>> {
        self.index.as_ref()
    }

    /// Rows per index slab when sharding across `devices` devices: the
    /// explicit [`NearestNeighbors::with_index_batch_rows`] setting, or
    /// one contiguous slab per device.
    pub(crate) fn shard_slab_rows(&self, index_rows: usize, devices: usize) -> usize {
        self.index_batch_rows
            .unwrap_or_else(|| index_rows.div_ceil(devices.max(1)).max(1))
            .max(1)
    }

    /// Queries the `k` nearest index rows for every row of `query`.
    ///
    /// # Errors
    ///
    /// Returns a kernel error on dimensionality mismatch or unsatisfiable
    /// strategy requirements.
    ///
    /// # Panics
    ///
    /// Panics if the estimator has not been [`NearestNeighbors::fit`].
    pub fn kneighbors(&self, query: &CsrMatrix<T>, k: usize) -> Result<KnnResult<T>, KernelError> {
        let shards = self.prepare_on(std::slice::from_ref(&self.device));
        self.kneighbors_prepared(&shards, query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baseline::CpuBruteForce;

    fn dataset() -> CsrMatrix<f64> {
        // 8 rows over 10 dims with varied overlaps.
        let mut data = vec![0.0; 80];
        for r in 0..8 {
            for c in 0..10 {
                if (r + c) % 3 == 0 {
                    data[r * 10 + c] = 1.0 + (r as f64) / 10.0 + (c as f64) / 100.0;
                }
            }
        }
        CsrMatrix::from_dense(8, 10, &data)
    }

    #[test]
    fn gpu_knn_matches_cpu_brute_force() {
        let m = dataset();
        let params = DistanceParams::default();
        for d in [
            Distance::Euclidean,
            Distance::Cosine,
            Distance::Manhattan,
            Distance::Chebyshev,
        ] {
            let nn = NearestNeighbors::new(Device::volta(), d).fit(m.clone());
            let got = nn.kneighbors(&m, 3).expect("query ok");
            let want = CpuBruteForce::new(2).knn(&m, &m, 3, d, &params);
            for (i, want_row) in want.iter().enumerate() {
                assert_eq!(
                    got.indices[i],
                    want_row.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
                    "{d} row {i}"
                );
            }
        }
    }

    #[test]
    fn self_query_returns_self_first_for_metrics() {
        let m = dataset();
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let got = nn.kneighbors(&m, 1).expect("query ok");
        for (i, row) in got.indices.iter().enumerate() {
            assert_eq!(row[0], i, "row {i} must be its own nearest neighbor");
            assert!(got.distances[i][0].abs() < 1e-9);
        }
    }

    #[test]
    fn query_batching_does_not_change_results() {
        let m = dataset();
        let big = NearestNeighbors::new(Device::volta(), Distance::Manhattan)
            .fit(m.clone())
            .kneighbors(&m, 4)
            .expect("ok");
        // Budget of one output row per batch → 8 batches.
        let small = NearestNeighbors::new(Device::volta(), Distance::Manhattan)
            .fit(m.clone())
            .with_batch_bytes(8 * 8)
            .kneighbors(&m, 4)
            .expect("ok");
        assert_eq!(big.batches, 1);
        assert_eq!(small.batches, 8);
        assert_eq!(big.indices, small.indices);
        for (a, b) in big.distances.iter().zip(&small.distances) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        assert!(small.sim_seconds > 0.0);
    }

    #[test]
    fn index_batching_merges_slab_topk_correctly() {
        let m = dataset();
        let whole = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
            .fit(m.clone())
            .kneighbors(&m, 5)
            .expect("ok");
        for slab in [1, 3, 5, 8] {
            let split = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
                .with_index_batch_rows(slab)
                .fit(m.clone())
                .kneighbors(&m, 5)
                .expect("ok");
            assert_eq!(whole.indices, split.indices, "slab size {slab}");
            for (a, b) in whole.distances.iter().zip(&split.distances) {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-9, "slab size {slab}");
                }
            }
        }
    }

    #[test]
    fn index_batching_counts_tiles() {
        let m = dataset();
        let r = NearestNeighbors::new(Device::volta(), Distance::Cosine)
            .with_index_batch_rows(3)
            .fit(m.clone())
            .kneighbors(&m, 2)
            .expect("ok");
        assert_eq!(r.batches, 3); // 8 index rows / 3 per slab
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn unfitted_query_panics() {
        let nn = NearestNeighbors::<f32>::new(Device::volta(), Distance::Cosine);
        let q = CsrMatrix::<f32>::zeros(1, 4);
        let _ = nn.kneighbors(&q, 1);
    }

    #[test]
    fn peak_memory_reports_largest_batch() {
        let m = dataset();
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
            .fit(m.clone())
            .with_batch_bytes(8 * 8 * 2);
        let r = nn.kneighbors(&m, 2).expect("ok");
        assert!(r.peak_memory.output_bytes > 0);
        assert!(r.peak_memory.input_bytes > 0);
    }

    #[test]
    fn index_norms_are_cached_across_query_batches() {
        // Cosine needs one L2 norm pass per side. With the whole index
        // per tile and two query batches, the prepared index computes
        // its norm once — so the batched run spends *less* simulated
        // time than 2x the single-batch run.
        let m = dataset();
        let one = NearestNeighbors::new(Device::volta(), Distance::Cosine)
            .fit(m.clone())
            .kneighbors(&m, 2)
            .expect("ok");
        let two = NearestNeighbors::new(Device::volta(), Distance::Cosine)
            .with_batch_bytes(4 * 8 * 8) // 4 query rows per batch
            .fit(m.clone())
            .kneighbors(&m, 2)
            .expect("ok");
        assert_eq!(two.batches, 2);
        assert_eq!(one.indices, two.indices);
        assert!(
            two.sim_seconds < 2.0 * one.sim_seconds,
            "index-side work must not be duplicated: {} vs 2x{}",
            two.sim_seconds,
            one.sim_seconds
        );
    }

    #[test]
    fn selection_is_a_billed_device_launch() {
        let m = dataset();
        let nn = NearestNeighbors::new(Device::volta(), Distance::Manhattan).fit(m.clone());
        let r = nn.kneighbors(&m, 3).expect("ok");
        let select = r.launches.iter().filter(|l| l.name == "top_k_select");
        assert_eq!(select.clone().count(), r.batches, "one selection per tile");
        assert!(select.map(LaunchStats::sim_seconds).sum::<f64>() > 0.0);
        // Launches are listed in execution order: each tile's selection
        // runs after the kernels that produce its distances.
        for tile in r.launches.split_inclusive(|l| l.name == "top_k_select") {
            assert_eq!(tile.last().map(|l| l.name.as_str()), Some("top_k_select"));
            assert!(
                tile.len() > 1,
                "a selection with no distance launch before it"
            );
        }
        let billed: f64 = r.launches.iter().map(LaunchStats::sim_seconds).sum();
        assert!((billed - r.sim_seconds).abs() <= 1e-12 * billed);
    }
}
