//! Top-level pairwise-distance entry point: strategy dispatch, norms,
//! expansion, and launch accounting.

use crate::device_fmt::{DeviceCoo, DeviceCsr};
use crate::error::KernelError;
use crate::esc::expand_sort_contract_kernel;
use crate::expansion::{expansion_kernel, finalize_kernel};
use crate::hybrid::{hybrid_inner_terms_cached, pass2_scratch_bytes, SmemVecKind};
use crate::naive::naive_csr_kernel;
use crate::naive_shared::naive_shared_kernel;
use crate::norms::row_norms_kernel;
use crate::resilience::{
    cascade_candidates, classify, retry_transient, FaultClass, ResiliencePolicy, ResilienceReport,
};
use gpu_sim::{Device, GlobalBuffer, LaunchStats};
use semiring::{Distance, DistanceParams, Family};
use sparse::{CsrMatrix, DenseMatrix, NormKind, Real};
use std::cell::RefCell;
use std::sync::Arc;

/// Which execution strategy computes the semiring passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// §3.2.1 / Algorithm 1 (per-pair expand-sort-contract blocks).
    ExpandSortContract,
    /// §3.2.2 / Algorithm 2 (one thread per output cell).
    NaiveCsr,
    /// §3.2.2's refinement: Algorithm 2 with the `A` row staged in
    /// shared memory ("marginal gains" per the paper).
    NaiveCsrShared,
    /// §3.3 / Algorithm 3 (the paper's contribution; default).
    #[default]
    HybridCooSpmv,
}

impl Strategy {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::ExpandSortContract => "expand-sort-contract",
            Strategy::NaiveCsr => "naive-csr",
            Strategy::NaiveCsrShared => "naive-csr-shared",
            Strategy::HybridCooSpmv => "hybrid-coo-spmv",
        }
    }
}

/// Shared-memory representation request for the hybrid strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SmemMode {
    /// Dense when the dimensionality fits, hash otherwise (§3.3.2).
    #[default]
    Auto,
    /// Force the dense row array.
    Dense,
    /// Force the hash table.
    Hash,
    /// Force the bloom filter + global binary search.
    Bloom,
}

impl SmemMode {
    fn forced(self) -> Option<SmemVecKind> {
        match self {
            SmemMode::Auto => None,
            SmemMode::Dense => Some(SmemVecKind::Dense),
            SmemMode::Hash => Some(SmemVecKind::Hash),
            SmemMode::Bloom => Some(SmemVecKind::Bloom),
        }
    }
}

/// Options for [`pairwise_distances`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseOptions {
    /// Execution strategy for the semiring passes.
    pub strategy: Strategy,
    /// Shared-memory representation (hybrid strategy only).
    pub smem_mode: SmemMode,
    /// Retry/fallback policy. `None` (the default) surfaces every launch
    /// error unchanged; `Some` lets transient faults retry and capacity
    /// faults walk the degradation cascade (see [`crate::resilience`]).
    pub resilience: Option<ResiliencePolicy>,
}

/// Device-memory accounting of one pairwise computation (§4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes of the CSR inputs.
    pub input_bytes: usize,
    /// Bytes of the dense output matrix.
    pub output_bytes: usize,
    /// Extra workspace beyond inputs and output (COO row arrays, norm
    /// vectors) — the hybrid strategy's analog of cuSPARSE's internal
    /// buffer, which the paper reports as `nnz(B)` per batch.
    pub workspace_bytes: usize,
}

/// Result of a pairwise distance computation.
#[derive(Debug)]
pub struct PairwiseResult<T> {
    /// The `m × n` distance matrix.
    pub distances: DenseMatrix<T>,
    /// Per-kernel launch statistics, in execution order (successful
    /// attempt only — failed attempts are accounted in `resilience`).
    pub launches: Vec<LaunchStats>,
    /// Device-memory accounting.
    pub memory: MemoryFootprint,
    /// Engine decisions, present when a [`ResiliencePolicy`] was set.
    pub resilience: Option<ResilienceReport>,
}

impl<T> PairwiseResult<T> {
    /// Total simulated execution time across all launches.
    pub fn sim_seconds(&self) -> f64 {
        self.launches.iter().map(LaunchStats::sim_seconds).sum()
    }
}

/// A pairwise distance result still resident in device memory — the form
/// downstream device kernels (e.g. [`crate::top_k_kernel`]) consume
/// without a round trip to the host.
#[derive(Debug)]
pub struct DevicePairwise<T> {
    /// The `rows × cols` distance tile in device memory.
    pub buffer: GlobalBuffer<T>,
    /// Query rows.
    pub rows: usize,
    /// Index rows.
    pub cols: usize,
    /// Per-kernel launch statistics, in execution order.
    pub launches: Vec<LaunchStats>,
    /// Device-memory accounting.
    pub memory: MemoryFootprint,
    /// Engine decisions, present when a [`ResiliencePolicy`] was set.
    pub resilience: Option<ResilienceReport>,
}

impl<T> DevicePairwise<T> {
    /// Total simulated execution time across all launches.
    pub fn sim_seconds(&self) -> f64 {
        self.launches.iter().map(LaunchStats::sim_seconds).sum()
    }
}

/// Computes the full pairwise distance matrix `d(A_i, B_j)` on the
/// simulated device.
///
/// Runs the strategy's semiring pass(es), the row-norm kernel for any
/// norms the distance's expansion needs, and the expansion /
/// finalization kernel (§3.4).
///
/// # Errors
///
/// Returns an error when the operands' dimensionalities differ or the
/// strategy cannot satisfy its shared-memory requirements.
pub fn pairwise_distances<T: Real>(
    dev: &Device,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    distance: Distance,
    params: &DistanceParams,
    opts: &PairwiseOptions,
) -> Result<PairwiseResult<T>, KernelError> {
    let d = pairwise_distances_device(dev, a, b, distance, params, opts)?;
    Ok(PairwiseResult {
        distances: DenseMatrix::from_vec(d.rows, d.cols, d.buffer.to_vec()),
        launches: d.launches,
        memory: d.memory,
        resilience: d.resilience,
    })
}

/// Like [`pairwise_distances`], but leaves the distance tile in device
/// memory for downstream kernels (the k-NN path chains the selection
/// kernel onto it).
///
/// # Errors
///
/// Returns an error when the operands' dimensionalities differ or the
/// strategy cannot satisfy its shared-memory requirements.
pub fn pairwise_distances_device<T: Real>(
    dev: &Device,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    distance: Distance,
    params: &DistanceParams,
    opts: &PairwiseOptions,
) -> Result<DevicePairwise<T>, KernelError> {
    let prepared = PreparedIndex::new(dev, b.clone());
    pairwise_distances_prepared(dev, a, &prepared, distance, params, opts)
}

/// A fitted index resident in device memory: the CSR and COO uploads plus
/// lazily computed, cached row norms.
///
/// Building this once per index and reusing it across query batches is
/// what a fitted `NearestNeighbors` estimator does — the index-side
/// uploads and norm reductions then cost one launch per norm kind for
/// the whole query workload instead of one per tile.
#[derive(Debug)]
pub struct PreparedIndex<T> {
    host: CsrMatrix<T>,
    csr: DeviceCsr<T>,
    coo: DeviceCoo<T>,
    norms: RefCell<Vec<(NormKind, Arc<GlobalBuffer<T>>)>>,
}

impl<T: Real> PreparedIndex<T> {
    /// Uploads the index to device memory (CSR for the shared-memory
    /// side, COO for the streamed side).
    pub fn new(dev: &Device, host: CsrMatrix<T>) -> Self {
        let csr = DeviceCsr::upload(dev, &host);
        let coo = DeviceCoo::upload(dev, &host);
        Self {
            host,
            csr,
            coo,
            norms: RefCell::new(Vec::new()),
        }
    }

    /// The host-side matrix (used for planning).
    pub fn host(&self) -> &CsrMatrix<T> {
        &self.host
    }

    /// The device CSR upload.
    pub fn csr(&self) -> &DeviceCsr<T> {
        &self.csr
    }

    /// The device COO upload.
    pub fn coo(&self) -> &DeviceCoo<T> {
        &self.coo
    }

    /// Index rows.
    pub fn rows(&self) -> usize {
        self.host.rows()
    }

    /// Dimensionality.
    pub fn cols(&self) -> usize {
        self.host.cols()
    }

    /// Device bytes of the uploads (CSR + COO).
    pub fn upload_bytes(&self) -> usize {
        self.csr.bytes() + self.coo.bytes()
    }

    /// Returns the cached norm buffer for `kind`, computing it with the
    /// row-norm kernel on first use (the returned stats are `Some` only
    /// on that first call).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Launch`] when the norm kernel's launch is
    /// rejected by the simulator.
    #[allow(clippy::type_complexity)]
    pub fn norm(
        &self,
        dev: &Device,
        kind: NormKind,
    ) -> Result<(Arc<GlobalBuffer<T>>, Option<LaunchStats>), KernelError> {
        if let Some((_, buf)) = self.norms.borrow().iter().find(|(k, _)| *k == kind) {
            return Ok((Arc::clone(buf), None));
        }
        let (buf, stats) = row_norms_kernel(dev, &self.csr, kind)?;
        let buf = Arc::new(buf);
        self.norms.borrow_mut().push((kind, Arc::clone(&buf)));
        Ok((buf, Some(stats)))
    }
}

/// [`pairwise_distances_device`] against a [`PreparedIndex`], reusing its
/// uploads and cached norms.
///
/// When [`PairwiseOptions::resilience`] is set, this is the resilience
/// engine's entry point: transient faults retry the same plan (with
/// simulated backoff), capacity faults re-plan down the fallback cascade,
/// and every decision is recorded in the returned
/// [`DevicePairwise::resilience`] report.
///
/// # Errors
///
/// Returns an error when the operands' dimensionalities differ, the
/// strategy cannot satisfy its shared-memory requirements, or (with a
/// policy) the whole cascade is exhausted.
pub fn pairwise_distances_prepared<T: Real>(
    dev: &Device,
    a: &CsrMatrix<T>,
    b: &PreparedIndex<T>,
    distance: Distance,
    params: &DistanceParams,
    opts: &PairwiseOptions,
) -> Result<DevicePairwise<T>, KernelError> {
    if a.cols() != b.cols() {
        return Err(KernelError::ShapeMismatch {
            a_cols: a.cols(),
            b_cols: b.cols(),
        });
    }
    let a_dev = DeviceCsr::upload(dev, a);

    let Some(policy) = opts.resilience else {
        return attempt_pairwise(
            dev,
            a,
            &a_dev,
            b,
            distance,
            params,
            opts.strategy,
            opts.smem_mode,
        );
    };

    let candidates = cascade_candidates(opts.strategy, opts.smem_mode, policy.fallback);
    let mut report = ResilienceReport::new(opts.strategy, opts.smem_mode);
    let last = candidates.len() - 1;
    for (ci, &(strategy, smem)) in candidates.iter().enumerate() {
        report.attempts += 1;
        let outcome = retry_transient(&policy, &mut report, || {
            attempt_pairwise(dev, a, &a_dev, b, distance, params, strategy, smem)
        });
        match outcome {
            Ok(mut d) => {
                report.final_strategy = strategy;
                report.final_smem = smem;
                report.downgraded = ci > 0;
                d.resilience = Some(report);
                return Ok(d);
            }
            Err(e) if ci < last && classify(&e) == FaultClass::Degradable => {
                report.faults_absorbed.push(format!(
                    "degraded past {}/{:?}: {e}",
                    strategy.name(),
                    smem
                ));
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("the last cascade candidate returns or errors")
}

/// One planning-and-launch attempt of a single `(strategy, smem)` plan —
/// the engine-free body of [`pairwise_distances_prepared`].
fn attempt_pairwise<T: Real>(
    dev: &Device,
    a: &CsrMatrix<T>,
    a_dev: &DeviceCsr<T>,
    b: &PreparedIndex<T>,
    distance: Distance,
    params: &DistanceParams,
    strategy: Strategy,
    smem_mode: SmemMode,
) -> Result<DevicePairwise<T>, KernelError> {
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    let sr = distance.semiring::<T>(params);
    let mut launches = Vec::new();
    let mut workspace = 0usize;

    // Semiring pass(es) → inner terms.
    let inner: GlobalBuffer<T> = match strategy {
        Strategy::NaiveCsr => {
            let (out, stats) = naive_csr_kernel(dev, a_dev, &b.csr, &sr)?;
            launches.push(stats);
            out
        }
        Strategy::NaiveCsrShared => {
            let (out, stats) = naive_shared_kernel(dev, a_dev, &b.csr, a.max_degree(), &sr)?;
            launches.push(stats);
            out
        }
        Strategy::ExpandSortContract => {
            let (out, stats) = expand_sort_contract_kernel(
                dev,
                a_dev,
                &b.csr,
                a.max_degree(),
                b.host.max_degree(),
                &sr,
            )?;
            launches.push(stats);
            out
        }
        Strategy::HybridCooSpmv => {
            let (out, stats) = hybrid_inner_terms_cached(
                dev,
                a,
                &b.host,
                a_dev,
                &b.csr,
                &b.coo,
                &sr,
                smem_mode.forced(),
            )?;
            // COO row-index workspace: nnz(B) (+ nnz(A) and the largest
            // scratch slab for the NAMM second pass).
            workspace += b.host.nnz() * 4;
            if !sr.is_annihilating() {
                workspace += a.nnz() * 4 + pass2_scratch_bytes::<T>(m, n);
            }
            launches.extend(stats);
            out
        }
    };

    // Norms + expansion (expanded family or norm-fed NAMMs like
    // Bray-Curtis) or plain finalization (norm-free NAMMs).
    match distance.family() {
        Family::Namm if distance.norms().is_empty() => {
            launches.push(finalize_kernel(dev, &inner, m, n, k, distance, params)?);
        }
        _ => {
            let kinds = distance.norms();
            let mut a_norms = Vec::with_capacity(kinds.len());
            let mut b_norms: Vec<Arc<GlobalBuffer<T>>> = Vec::with_capacity(kinds.len());
            for &kind in kinds {
                let (na, sa) = row_norms_kernel(dev, a_dev, kind)?;
                workspace += na.bytes();
                launches.push(sa);
                a_norms.push(na);
                let (nb, sb) = b.norm(dev, kind)?;
                workspace += nb.bytes();
                if let Some(sb) = sb {
                    launches.push(sb);
                }
                b_norms.push(nb);
            }
            let a_refs: Vec<&GlobalBuffer<T>> = a_norms.iter().collect();
            let b_refs: Vec<&GlobalBuffer<T>> = b_norms.iter().map(Arc::as_ref).collect();
            launches.push(expansion_kernel(
                dev, &inner, m, n, k, &a_refs, &b_refs, distance,
            )?);
        }
    }

    let memory = MemoryFootprint {
        input_bytes: a.device_bytes() + b.host.device_bytes(),
        output_bytes: inner.bytes(),
        workspace_bytes: workspace,
    };
    Ok(DevicePairwise {
        buffer: inner,
        rows: m,
        cols: n,
        launches,
        memory,
        resilience: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::reference::dense_pairwise;

    fn sample() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::from_dense(
            3,
            7,
            &[
                0.4, 0.0, 0.2, 0.0, 0.1, 0.0, 0.3, //
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                0.1, 0.2, 0.0, 0.3, 0.0, 0.0, 0.4,
            ],
        );
        let b = CsrMatrix::from_dense(
            4,
            7,
            &[
                0.0, 0.5, 0.2, 0.0, 0.0, 0.3, 0.0, //
                0.4, 0.0, 0.2, 0.0, 0.1, 0.0, 0.3, //
                0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, //
                0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.2,
            ],
        );
        (a, b)
    }

    fn check_all_distances(strategy: Strategy) {
        let (a, b) = sample();
        let dev = Device::volta();
        let params = DistanceParams { minkowski_p: 3.0 };
        let opts = PairwiseOptions {
            strategy,
            smem_mode: SmemMode::Auto,
            resilience: None,
        };
        for d in Distance::ALL {
            let got = pairwise_distances(&dev, &a, &b, d, &params, &opts)
                .unwrap_or_else(|e| panic!("{d} failed: {e}"));
            let want = dense_pairwise(&a, &b, d, &params);
            let diff = got.distances.max_abs_diff(&want);
            assert!(diff < 1e-7, "{d} via {}: max diff {diff}", strategy.name());
        }
    }

    #[test]
    fn hybrid_matches_dense_reference_for_all_15_distances() {
        check_all_distances(Strategy::HybridCooSpmv);
    }

    #[test]
    fn naive_matches_dense_reference_for_all_15_distances() {
        check_all_distances(Strategy::NaiveCsr);
    }

    #[test]
    fn naive_shared_matches_dense_reference_for_all_15_distances() {
        check_all_distances(Strategy::NaiveCsrShared);
    }

    #[test]
    fn esc_matches_dense_reference_for_all_15_distances() {
        check_all_distances(Strategy::ExpandSortContract);
    }

    #[test]
    fn bray_curtis_extension_runs_on_every_strategy() {
        // The norm-fed NAMM the paper's Table 1 does not exercise:
        // union pass + Sum norms + division in the expansion stage.
        let (a, b) = sample();
        let dev = Device::volta();
        let params = DistanceParams::default();
        let want = dense_pairwise(&a, &b, Distance::BrayCurtis, &params);
        for strategy in [
            Strategy::HybridCooSpmv,
            Strategy::NaiveCsr,
            Strategy::NaiveCsrShared,
            Strategy::ExpandSortContract,
        ] {
            let opts = PairwiseOptions {
                strategy,
                smem_mode: SmemMode::Auto,
                resilience: None,
            };
            let got = pairwise_distances(&dev, &a, &b, Distance::BrayCurtis, &params, &opts)
                .expect("runs");
            let diff = got.distances.max_abs_diff(&want);
            assert!(diff < 1e-9, "{}: {diff}", strategy.name());
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let dev = Device::volta();
        let a = CsrMatrix::<f32>::zeros(2, 3);
        let b = CsrMatrix::<f32>::zeros(2, 4);
        let err = pairwise_distances(
            &dev,
            &a,
            &b,
            Distance::Cosine,
            &DistanceParams::default(),
            &PairwiseOptions::default(),
        );
        assert!(matches!(err, Err(KernelError::ShapeMismatch { .. })));
    }

    #[test]
    fn namm_runs_two_semiring_passes_expanded_one() {
        let (a, b) = sample();
        let dev = Device::volta();
        let params = DistanceParams::default();
        let opts = PairwiseOptions::default();
        let names = |d: Distance| -> Vec<String> {
            pairwise_distances(&dev, &a, &b, d, &params, &opts)
                .expect("ok")
                .launches
                .into_iter()
                .map(|s| s.name)
                .collect()
        };
        // Pass 1, one (pass 2, combine) slab, finalize.
        assert_eq!(
            names(Distance::Manhattan),
            [
                "hybrid_pass_dense",
                "hybrid_pass_dense",
                "hybrid_combine",
                "finalize"
            ]
        );
        // One hybrid pass, the two operands' norms, expansion.
        assert_eq!(
            names(Distance::Cosine),
            ["hybrid_pass_dense", "row_norms", "row_norms", "expansion"]
        );
    }

    #[test]
    fn memory_footprint_reports_workspace() {
        let (a, b) = sample();
        let dev = Device::volta();
        let r = pairwise_distances(
            &dev,
            &a,
            &b,
            Distance::Manhattan,
            &DistanceParams::default(),
            &PairwiseOptions::default(),
        )
        .expect("ok");
        // NAMM hybrid: nnz(B)*4 + nnz(A)*4 of COO row workspace, plus
        // one pass-2 scratch slab of all 4 index rows × 3 queries of f64.
        assert_eq!(
            r.memory.workspace_bytes,
            (a.nnz() + b.nnz()) * 4 + 4 * 3 * 8
        );
        assert_eq!(r.memory.output_bytes, 3 * 4 * 8);
        assert!(r.sim_seconds() > 0.0);
    }

    #[test]
    fn zero_matrices_produce_finite_distances() {
        let dev = Device::volta();
        let a = CsrMatrix::<f64>::zeros(2, 5);
        let opts = PairwiseOptions::default();
        let params = DistanceParams::default();
        for d in Distance::ALL {
            let r = pairwise_distances(&dev, &a, &a, d, &params, &opts)
                .unwrap_or_else(|e| panic!("{d}: {e}"));
            for &v in r.distances.as_slice() {
                assert!(v.is_finite(), "{d} produced {v}");
            }
        }
    }
}
