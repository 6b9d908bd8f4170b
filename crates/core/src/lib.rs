//! **sparse-dist** — GPU semiring primitives for sparse neighborhood
//! methods (Rust reproduction of the MLSys 2022 paper).
//!
//! This crate is the public face of the reproduction, mirroring the two
//! API surfaces the paper shows:
//!
//! * **Figure 2** (the Python one-liners): [`pairwise_distances`] and the
//!   re-exported [`NearestNeighbors`] estimator.
//! * **Figure 3** (the C++ semiring-construction API): [`api`] — build a
//!   custom [`Semiring`] from two monoids and run it through the hybrid
//!   kernel, with the optional second pass for non-annihilating products.
//!
//! # Quickstart
//!
//! ```
//! use sparse_dist::{pairwise_distances, Device, Distance};
//! use sparse_dist::sparse::CsrMatrix;
//!
//! // Two documents over a 6-term vocabulary.
//! let x = CsrMatrix::<f32>::from_dense(
//!     2,
//!     6,
//!     &[0.8, 0.0, 0.3, 0.0, 0.0, 0.1, 0.0, 0.9, 0.3, 0.0, 0.2, 0.0],
//! );
//! let dists = pairwise_distances(&Device::volta(), &x, &x, Distance::Cosine)?;
//! assert!(dists.distances.get(0, 0).abs() < 1e-6); // self-distance 0
//! assert!(dists.distances.get(0, 1) > 0.5); // mostly disjoint docs
//! # Ok::<(), sparse_dist::KernelError>(())
//! ```

#![deny(missing_docs)]

pub mod api;
pub mod cli;
pub mod validate;

pub use gpu_sim::{
    chrome_trace, chrome_trace_envelope, CheckerKind, Device, DeviceSpec, FaultPlan, LaunchProfile,
    LaunchStats, SanitizerMode, SanitizerReport, SimError, MAX_HOST_THREADS,
};
pub use kernels::{
    FallbackCascade, KernelError, MemoryFootprint, PairwiseOptions, PairwiseResult,
    ResiliencePolicy, ResilienceReport, SmemMode, Strategy,
};
pub use neighbors::{
    kneighbors_graph, GraphMode, IvfAnswer, IvfIndex, IvfParams, IvfPrepared, IvfQueryStats,
    KnnResult, MultiDevice, NearestNeighbors, PreparedShards,
};
pub use semiring::{Distance, DistanceParams, Family, Monoid, Semiring};
pub use serve::metrics::{HIST_GROWTH, HIST_MIN};
pub use serve::{
    chaos_drill, fingerprint, fingerprint_with_generation, nearest_rank, replay_rows,
    request_chrome_trace, validate_metrics, AdmissionConfig, CacheOutcome, CacheStats, ChaosPlan,
    CompactionRecord, DrillOutcome, Fleet, FleetConfig, FleetReport, IndexMode, IngestReport,
    LogHistogram, Manifest, MetricsRegistry, MetricsSnapshot, MutableDataset, PreparedCache,
    Rejection, Request, RequestSpan, RequestTraces, Response, ScaleEvent, ServeConfig, ServeEngine,
    ServeReport, ShedReason, SloBudget, SloReport, SpanEvent, TimedRecord, Wal, WalCounts,
    WalError, WalRecord, WindowOutcome, Workload,
};
pub use validate::{validate_input, InputError};

/// Re-export of the sparse-format substrate.
pub use sparse;

use sparse::{CsrMatrix, Real};

/// Computes the dense pairwise distance matrix `d(A_i, B_j)` with the
/// default strategy (the paper's hybrid CSR+COO kernel) — the analog of
/// `cuml.metrics.pairwise_distances(X, metric=...)` in Figure 2.
///
/// For parameterized distances or a specific strategy, use
/// [`pairwise_distances_with`].
///
/// # Errors
///
/// Returns an error on dimensionality mismatch or when the strategy
/// cannot satisfy its shared-memory requirements.
pub fn pairwise_distances<T: Real>(
    device: &Device,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    distance: Distance,
) -> Result<PairwiseResult<T>, KernelError> {
    pairwise_distances_with(
        device,
        a,
        b,
        distance,
        &DistanceParams::default(),
        &PairwiseOptions::default(),
    )
}

/// [`pairwise_distances`] with explicit parameters and kernel options.
///
/// # Errors
///
/// Returns an error on dimensionality mismatch or when the strategy
/// cannot satisfy its shared-memory requirements.
pub fn pairwise_distances_with<T: Real>(
    device: &Device,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    distance: Distance,
    params: &DistanceParams,
    options: &PairwiseOptions,
) -> Result<PairwiseResult<T>, KernelError> {
    kernels::pairwise_distances(device, a, b, distance, params, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::reference::dense_pairwise;

    #[test]
    fn convenience_wrapper_matches_reference() {
        let x = CsrMatrix::<f64>::from_dense(
            3,
            4,
            &[1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0],
        );
        let dev = Device::volta();
        let got = pairwise_distances(&dev, &x, &x, Distance::Euclidean).expect("ok");
        let want = dense_pairwise(&x, &x, Distance::Euclidean, &DistanceParams::default());
        assert!(got.distances.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn with_variant_honors_minkowski_p() {
        let x = CsrMatrix::<f64>::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let dev = Device::volta();
        let params = DistanceParams { minkowski_p: 3.0 };
        let got = pairwise_distances_with(
            &dev,
            &x,
            &x,
            Distance::Minkowski,
            &params,
            &PairwiseOptions::default(),
        )
        .expect("ok");
        // (1 + 1)^(1/3)
        assert!((got.distances.get(0, 1) - 2.0f64.powf(1.0 / 3.0)).abs() < 1e-9);
    }
}
