//! Load-balanced hybrid CSR+COO strategy (§3.3): planning, shared-memory
//! mode resolution, and two-pass orchestration.

pub mod pass;
pub mod plan;
pub mod smem_vec;

pub use pass::{hybrid_pass, PassInputs, PassKind, BLOCK_THREADS, STREAM_CHUNK};
pub use plan::{PartitionEntry, PartitionPlan};
pub use smem_vec::{Lookup, SmemVecKind, SmemVector};

use crate::device_fmt::{DeviceCoo, DeviceCsr};
use crate::error::KernelError;
use gpu_sim::{Device, GlobalBuffer, LaunchStats, SmemBloomFilter, SmemHashTable};
use semiring::Semiring;
use sparse::{CsrMatrix, Real};

/// Shared-memory budget per block: half the SM's capacity, so two blocks
/// of 32 warps keep the SM at full occupancy (§3.3: "a block size of 32
/// warps allows two blocks, the full 64 warps, to be scheduled
/// concurrently on each SM").
pub fn smem_budget(dev: &Device) -> usize {
    (dev.spec().shared_mem_per_sm / 2).min(dev.spec().shared_mem_per_block)
}

/// Resolved launch geometry for one hybrid side.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Chosen representation.
    pub kind: SmemVecKind,
    /// Hash capacity in slots (0 unless hash).
    pub hash_capacity: usize,
    /// Entries per partition before a row must split.
    pub max_entries: usize,
    /// Shared-memory bytes per block.
    pub smem_per_block: usize,
}

/// Picks the shared-memory configuration for a matrix side.
///
/// Dense when the dimensionality fits the budget (§3.3.2's 12K/20K
/// full-occupancy limits scale with the scalar width); otherwise the hash
/// table, with high-degree rows partitioned (§3.3.3). Bloom is only used
/// when explicitly requested.
///
/// # Errors
///
/// Returns [`KernelError::UnsupportedSmemMode`] if a forced mode cannot
/// fit (e.g. dense with a dimensionality over the budget).
pub fn resolve_config<T: Real>(
    dev: &Device,
    cols: usize,
    forced: Option<SmemVecKind>,
) -> Result<HybridConfig, KernelError> {
    let budget = smem_budget(dev);
    let dense_fits = cols * std::mem::size_of::<T>() <= budget;
    let kind = match forced {
        Some(SmemVecKind::Dense) if !dense_fits => {
            return Err(KernelError::UnsupportedSmemMode(format!(
                "dense vectors of dimensionality {cols} exceed the {budget}-byte budget"
            )));
        }
        Some(k) => k,
        None if dense_fits => SmemVecKind::Dense,
        None => SmemVecKind::Hash,
    };
    Ok(match kind {
        SmemVecKind::Dense => HybridConfig {
            kind,
            hash_capacity: 0,
            // Dense rows never split: the whole dimensionality is
            // addressable.
            max_entries: usize::MAX,
            smem_per_block: cols * std::mem::size_of::<T>(),
        },
        SmemVecKind::Hash => {
            let capacity = budget / SmemHashTable::<T>::smem_bytes(1);
            let max_entries =
                ((capacity as f64 * gpu_sim::collections::hash_table::MAX_LOAD) as usize).max(1);
            HybridConfig {
                kind,
                hash_capacity: capacity,
                max_entries,
                smem_per_block: SmemHashTable::<T>::smem_bytes(capacity),
            }
        }
        SmemVecKind::Bloom => {
            let max_bits = budget * 8;
            let max_entries = (max_bits / 8).max(1);
            HybridConfig {
                kind,
                hash_capacity: 0,
                max_entries,
                smem_per_block: SmemBloomFilter::smem_bytes(SmemBloomFilter::bits_for(max_entries)),
            }
        }
    })
}

/// Runs the hybrid strategy end to end on the inner terms: pass 1 always,
/// pass 2 (commuted, difference-only) when the semiring is a NAMM.
///
/// Returns the `m × n` inner-term buffer and the per-launch stats.
///
/// # Errors
///
/// Propagates configuration errors from [`resolve_config`].
#[allow(clippy::too_many_arguments)]
pub fn hybrid_inner_terms<T: Real>(
    dev: &Device,
    a_host: &CsrMatrix<T>,
    b_host: &CsrMatrix<T>,
    a_dev: &DeviceCsr<T>,
    b_dev: &DeviceCsr<T>,
    sr: &Semiring<T>,
    forced: Option<SmemVecKind>,
) -> Result<(GlobalBuffer<T>, Vec<LaunchStats>), KernelError> {
    let b_coo = DeviceCoo::upload(dev, b_host);
    hybrid_inner_terms_cached(dev, a_host, b_host, a_dev, b_dev, &b_coo, sr, forced)
}

/// [`hybrid_inner_terms`] with the `B`-side COO expansion supplied by the
/// caller, so a fitted index's upload is reused across query batches.
///
/// # Errors
///
/// Propagates configuration errors from [`resolve_config`].
#[allow(clippy::too_many_arguments)]
pub fn hybrid_inner_terms_cached<T: Real>(
    dev: &Device,
    a_host: &CsrMatrix<T>,
    b_host: &CsrMatrix<T>,
    a_dev: &DeviceCsr<T>,
    b_dev: &DeviceCsr<T>,
    b_coo: &DeviceCoo<T>,
    sr: &Semiring<T>,
    forced: Option<SmemVecKind>,
) -> Result<(GlobalBuffer<T>, Vec<LaunchStats>), KernelError> {
    let (m, n) = (a_host.rows(), b_host.rows());
    // Cells accumulate through ⊕ atomics, so they must start at id⊕
    // (0 for every Table 1 distance, +∞ for min-reductions like the
    // tropical semiring).
    let out = GlobalBuffer::from_vec(vec![sr.reduce_identity(); m * n]);
    let mut stats = Vec::new();

    let cfg = resolve_config::<T>(dev, a_host.cols(), forced)?;
    // Annihilating semirings skip blocks for empty rows — nothing in the
    // intersection can contribute. NAMMs must visit them for the ā ∩ b
    // terms.
    let plan_a = PartitionPlan::build(
        a_host.indptr(),
        cfg.max_entries,
        !sr.is_annihilating(),
        b_coo.nnz(),
    );
    stats.push(hybrid_pass(
        dev,
        &PassInputs {
            smem_side: a_dev,
            stream_side: b_coo,
            plan: &plan_a,
            kind: cfg.kind,
            hash_capacity: cfg.hash_capacity,
            smem_per_block: cfg.smem_per_block,
            sr: *sr,
            out: &out,
            out_cols: n,
            commuted: false,
        },
    )?);

    if !sr.is_annihilating() {
        let cfg_b = resolve_config::<T>(dev, b_host.cols(), forced)?;
        let a_coo = DeviceCoo::upload(dev, a_host);
        let plan_b = PartitionPlan::build(b_host.indptr(), cfg_b.max_entries, true, a_coo.nnz());
        stats.push(hybrid_pass(
            dev,
            &PassInputs {
                smem_side: b_dev,
                stream_side: &a_coo,
                plan: &plan_b,
                kind: cfg_b.kind,
                hash_capacity: cfg_b.hash_capacity,
                smem_per_block: cfg_b.smem_per_block,
                sr: *sr,
                out: &out,
                out_cols: n,
                commuted: true,
            },
        )?);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::{apply_semiring_union, Distance, DistanceParams};

    fn check_inner(
        a: &CsrMatrix<f64>,
        b: &CsrMatrix<f64>,
        d: Distance,
        forced: Option<SmemVecKind>,
    ) {
        let dev = Device::volta();
        let sr = d.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, a);
        let db = DeviceCsr::upload(&dev, b);
        let (out, _) = hybrid_inner_terms(&dev, a, b, &da, &db, &sr, forced).expect("config ok");
        let got = out.to_vec();
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let av: Vec<_> = a.row(i).collect();
                let bv: Vec<_> = b.row(j).collect();
                let want = apply_semiring_union(&av, &bv, &sr);
                let g = got[i * b.rows() + j];
                assert!(
                    (g - want).abs() < 1e-9,
                    "{d} ({forced:?}) cell ({i},{j}): got {g}, want {want}"
                );
            }
        }
    }

    fn sample_with_empty_rows() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::from_dense(
            3,
            8,
            &[
                1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 0.0, 3.0, //
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                0.0, 4.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0,
            ],
        );
        let b = CsrMatrix::from_dense(
            3,
            8,
            &[
                0.0, 1.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
            ],
        );
        (a, b)
    }

    #[test]
    fn namm_union_with_empty_rows_dense() {
        let (a, b) = sample_with_empty_rows();
        check_inner(&a, &b, Distance::Manhattan, Some(SmemVecKind::Dense));
    }

    #[test]
    fn namm_union_with_empty_rows_hash() {
        let (a, b) = sample_with_empty_rows();
        check_inner(&a, &b, Distance::Manhattan, Some(SmemVecKind::Hash));
    }

    #[test]
    fn namm_union_with_empty_rows_bloom() {
        let (a, b) = sample_with_empty_rows();
        check_inner(&a, &b, Distance::Canberra, Some(SmemVecKind::Bloom));
    }

    #[test]
    fn dot_products_single_pass() {
        let (a, b) = sample_with_empty_rows();
        let dev = Device::volta();
        let sr = Distance::DotProduct.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, &a);
        let db = DeviceCsr::upload(&dev, &b);
        let (_, stats) = hybrid_inner_terms(&dev, &a, &b, &da, &db, &sr, None).expect("config ok");
        assert_eq!(stats.len(), 1, "annihilating semirings need one pass");
        check_inner(&a, &b, Distance::DotProduct, None);
    }

    #[test]
    fn namm_needs_two_passes() {
        let (a, b) = sample_with_empty_rows();
        let dev = Device::volta();
        let sr = Distance::Manhattan.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, &a);
        let db = DeviceCsr::upload(&dev, &b);
        let (_, stats) = hybrid_inner_terms(&dev, &a, &b, &da, &db, &sr, None).expect("config ok");
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn auto_mode_prefers_dense_for_small_k() {
        let dev = Device::volta();
        let cfg = resolve_config::<f32>(&dev, 1000, None).expect("ok");
        assert_eq!(cfg.kind, SmemVecKind::Dense);
        // Volta: 48 KiB budget / 4 bytes = 12K dims max in dense form.
        let cfg = resolve_config::<f32>(&dev, 20_000, None).expect("ok");
        assert_eq!(cfg.kind, SmemVecKind::Hash);
    }

    #[test]
    fn hash_capacity_matches_papers_3k_volta_limit() {
        let dev = Device::volta();
        let cfg = resolve_config::<f32>(&dev, 1_000_000, None).expect("ok");
        assert_eq!(cfg.kind, SmemVecKind::Hash);
        assert_eq!(cfg.hash_capacity, 6144);
        assert_eq!(cfg.max_entries, 3072); // "max degree of 3K on Volta"
    }

    #[test]
    fn forced_dense_beyond_budget_is_rejected() {
        let dev = Device::volta();
        let err = resolve_config::<f32>(&dev, 1_000_000, Some(SmemVecKind::Dense));
        assert!(matches!(err, Err(KernelError::UnsupportedSmemMode(_))));
    }
}
