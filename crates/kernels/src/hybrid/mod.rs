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
use pass::{hybrid_combine, COMBINE_TILE};
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

/// Bound on one pass-2 scratch slab. The scratch is transient memory
/// beside the `m × n` output, so it comes in bounded slabs rather than
/// as a second output-sized buffer; at 512 KiB a 64-query f32 batch
/// still gets 2048-row slabs. A named constant, not a knob (DESIGN §5).
pub(crate) const PASS2_SCRATCH_BYTES: usize = 512 * 1024;

/// Index rows per pass-2 slab for a batch of `queries` streamed rows: the
/// largest multiple of [`COMBINE_TILE`] whose `rows × queries` scratch of
/// `T` fits [`PASS2_SCRATCH_BYTES`], and at least one tile.
pub(crate) fn pass2_slab_rows<T>(queries: usize) -> usize {
    let row_bytes = queries.max(1) * std::mem::size_of::<T>();
    (PASS2_SCRATCH_BYTES / row_bytes / COMBINE_TILE * COMBINE_TILE).max(COMBINE_TILE)
}

/// Bytes of the largest pass-2 scratch slab of a `queries × index_rows`
/// NAMM product.
pub(crate) fn pass2_scratch_bytes<T>(queries: usize, index_rows: usize) -> usize {
    pass2_slab_rows::<T>(queries).min(index_rows) * queries * std::mem::size_of::<T>()
}

/// Pass 2 of a NAMM union (`PassKind::Difference`): stages the rows of
/// `index` under `plan` (built over every index row, `cfg`'s
/// `max_entries`) and streams the `queries` COO, adding the terms pass 1
/// left out into the query-major `out` of `queries.rows × index.rows`.
///
/// The index rows go in slabs of [`pass2_slab_rows`]. Each slab runs one
/// pass-2 launch into an index-major scratch that starts at id⊕, so a
/// block's atomics for its staged row cover `queries.rows` contiguous
/// cells, then one [`hybrid_combine`] launch. A cell ends as pass 1 ⊕
/// (its pass-2 terms folded in the scratch).
///
/// # Errors
///
/// Propagates launch failures.
pub(crate) fn hybrid_difference_pass<T: Real>(
    dev: &Device,
    index: &DeviceCsr<T>,
    queries: &DeviceCoo<T>,
    plan: &PartitionPlan,
    cfg: &HybridConfig,
    sr: &Semiring<T>,
    out: &GlobalBuffer<T>,
) -> Result<Vec<LaunchStats>, KernelError> {
    let (m, n) = (queries.rows, index.rows);
    let slab = pass2_slab_rows::<T>(m);
    let mut stats = Vec::with_capacity(2 * n.div_ceil(slab));
    for start in (0..n).step_by(slab) {
        let rows = start..(start + slab).min(n);
        let scratch = GlobalBuffer::from_vec(vec![sr.reduce_identity(); rows.len() * m]);
        stats.push(hybrid_pass(
            dev,
            &PassInputs {
                smem_side: index,
                stream_side: queries,
                plan: &plan.rows(rows.clone()),
                kind: cfg.kind,
                hash_capacity: cfg.hash_capacity,
                smem_per_block: cfg.smem_per_block,
                sr: *sr,
                pass: PassKind::Difference,
                out: &scratch,
                out_cols: m,
                base: start,
            },
        )?);
        stats.push(hybrid_combine(dev, sr, &scratch, rows, m, out, n)?);
    }
    Ok(stats)
}

/// Runs the hybrid strategy end to end on the inner terms: pass 1 always,
/// pass 2 (`hybrid_difference_pass`, slab by slab) when the semiring is
/// a NAMM.
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
            pass: PassKind::Products,
            out: &out,
            out_cols: n,
            base: 0,
        },
    )?);

    if !sr.is_annihilating() {
        let cfg_b = resolve_config::<T>(dev, b_host.cols(), forced)?;
        let a_coo = DeviceCoo::upload(dev, a_host);
        let plan_b = PartitionPlan::build(b_host.indptr(), cfg_b.max_entries, true, a_coo.nnz());
        stats.extend(hybrid_difference_pass(
            dev, b_dev, &a_coo, &plan_b, &cfg_b, sr, &out,
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
        // Pass 1, then one (pass 2, combine) pair for the single slab.
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["hybrid_pass_dense", "hybrid_pass_dense", "hybrid_combine"]
        );
    }

    /// A 420 × 420 Manhattan product over f32 rows of about 3 nonzeros
    /// in 256 columns, like a k-NN batch over a sparse index. Pass 2
    /// stages one index row per block and streams all 420 queries, so a
    /// warp's flush spans about ten query rows.
    #[test]
    fn pass2_writes_are_coalesced() {
        let dense: Vec<f32> = (0..420 * 256_usize)
            .map(|i| {
                let h = (i * 7919 + 8).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
                if h < 3 {
                    (h + 1) as f32
                } else {
                    0.0
                }
            })
            .collect();
        let x = CsrMatrix::from_dense(420, 256, &dense);
        assert_eq!(x.nnz(), 1260);
        let dev = Device::volta();
        let sr = Distance::Manhattan.semiring::<f32>(&DistanceParams::default());
        let dx = DeviceCsr::upload(&dev, &x);
        let (_, stats) = hybrid_inner_terms(&dev, &x, &x, &dx, &dx, &sr, None).expect("config ok");
        // Two slabs, of 288 and 132 index rows.
        assert_eq!(stats.len(), 5);
        let pass2: u64 = stats[1..].iter().map(|s| s.counters.global_bytes).sum();
        // Query-major, the single pass-2 launch moved 30,309,632 B: a
        // warp's ten flushed cells lay 420 cells apart, one 128-byte
        // segment each. Index-major, they share one or two segments:
        // 9.3 MB, plus 4.1 MB for the two combines' transposes.
        assert!(pass2 < 30_309_632 / 2, "pass 2 + combine moved {pass2} B");
        // The padded tile keeps the transposed reads of f32 free of bank
        // conflicts.
        for s in stats.iter().filter(|s| s.name == "hybrid_combine") {
            assert_eq!(s.counters.bank_conflict_extra, 0);
        }
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
