//! Naive CSR kernel with the A-row staged in shared memory — the §3.2.2
//! refinement.
//!
//! "We found marginal gains in performance by coalescing the reads of
//! the vectors from A into shared memory and sharing it across all
//! threads of each thread-block." One block per `A` row: the row is
//! loaded once with coalesced reads, then every thread merges it against
//! one `B` row at a time, reading the `A` side from shared memory. The
//! `B`-side gathers stay data-dependent and divergent — which is why the
//! gains were only marginal and the paper moved on to the hybrid design.

use crate::device_fmt::DeviceCsr;
use crate::error::KernelError;
use crate::naive::merge_rows;
use gpu_sim::{lanes_from_fn, Device, GlobalBuffer, LaunchConfig, LaunchStats, WARP_SIZE};
use semiring::Semiring;
use sparse::Real;

/// Threads per block (8 warps; each thread owns one `B` row at a time).
const BLOCK_THREADS: usize = 256;

/// Computes the `m × n` inner-term matrix with one block per `A` row and
/// the row staged in shared memory.
///
/// # Errors
///
/// Returns [`KernelError::SharedMemoryExceeded`] when the widest `A` row
/// cannot fit the per-block shared memory.
pub fn naive_shared_kernel<T: Real>(
    dev: &Device,
    a: &DeviceCsr<T>,
    b: &DeviceCsr<T>,
    a_max_degree: usize,
    sr: &Semiring<T>,
) -> Result<(GlobalBuffer<T>, LaunchStats), KernelError> {
    let (m, n) = (a.rows, b.rows);
    let smem = a_max_degree * (std::mem::size_of::<u32>() + std::mem::size_of::<T>());
    let available = dev.spec().shared_mem_per_block;
    if smem > available {
        return Err(KernelError::SharedMemoryExceeded {
            strategy: "naive-csr-shared",
            required: smem,
            available,
        });
    }
    let out = GlobalBuffer::from_vec(vec![sr.reduce_identity(); m * n]);
    let sr = *sr;

    let stats = dev.try_launch(
        "naive_csr_shared",
        LaunchConfig::new(m.max(1), BLOCK_THREADS, smem),
        |block| {
            let i = block.block_id;
            if i >= m {
                return;
            }
            let (a_start, a_end) = a.row_extent(i);
            let da = a_end - a_start;
            let s_cols = block.alloc_shared::<u32>(da.max(1));
            let s_vals = block.alloc_shared::<T>(da.max(1));

            // Stage A_i: coalesced loads, unit-stride smem stores.
            let (sc, sv) = (s_cols.clone(), s_vals.clone());
            block.run_warps(|w| {
                w.range("row_cache", |w| {
                    let wpb = BLOCK_THREADS / WARP_SIZE;
                    let mut base = w.warp_id * WARP_SIZE;
                    while base < da {
                        let gidx = lanes_from_fn(|l| {
                            let t = base + l;
                            (t < da).then(|| a_start + t)
                        });
                        let cols = w.global_gather(&a.indices, &gidx);
                        let vals = w.global_gather(&a.values, &gidx);
                        let sidx = lanes_from_fn(|l| {
                            let t = base + l;
                            (t < da).then_some(t)
                        });
                        w.smem_scatter(&sc, &sidx, &cols);
                        w.smem_scatter(&sv, &sidx, &vals);
                        base += wpb * WARP_SIZE;
                    }
                });
            });
            block.sync();

            // Each lane merges A_i (shared) against one B row (global).
            block.run_warps(|w| {
                let wpb = BLOCK_THREADS / WARP_SIZE;
                let mut jbase = w.warp_id * WARP_SIZE;
                while jbase < n {
                    let j = lanes_from_fn(|l| {
                        let t = jbase + l;
                        (t < n).then_some(t)
                    });
                    let (b_start, b_end) = w.range("pair_setup", |w| {
                        let b_start = w.global_gather(&b.indptr, &j);
                        let b_end =
                            w.global_gather(&b.indptr, &lanes_from_fn(|l| j[l].map(|x| x + 1)));
                        (b_start, b_end)
                    });
                    // A side from shared memory: offsets into the staged row.
                    let acc = merge_rows(
                        w,
                        &sr,
                        &lanes_from_fn(|l| j[l].is_some()),
                        |w, idx| w.smem_gather(&s_cols, idx),
                        |w, idx| w.smem_gather(&s_vals, idx),
                        [0; WARP_SIZE],
                        [da; WARP_SIZE],
                        b,
                        lanes_from_fn(|l| b_start[l] as usize),
                        lanes_from_fn(|l| b_end[l] as usize),
                    );
                    let oidx = lanes_from_fn(|l| j[l].map(|x| i * n + x));
                    w.range("writeback", |w| w.global_scatter(&out, &oidx, &acc));
                    jbase += wpb * WARP_SIZE;
                }
            });
        },
    )?;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_csr_kernel;
    use semiring::{apply_semiring_union, Distance, DistanceParams};
    use sparse::CsrMatrix;

    fn sample_pair() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::from_dense(
            3,
            6,
            &[
                1.0, 0.0, 2.0, 0.0, 0.5, 0.0, //
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                3.0, 1.0, 0.0, 4.0, 0.0, 2.0,
            ],
        );
        let b = CsrMatrix::from_dense(
            4,
            6,
            &[
                0.0, 1.0, 2.0, 0.0, 0.0, 1.0, //
                1.0, 0.0, 2.0, 0.0, 0.5, 0.0, //
                0.0, 0.0, 0.0, 0.0, 0.0, 7.0, //
                2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
            ],
        );
        (a, b)
    }

    #[test]
    fn matches_union_reference() {
        let (a, b) = sample_pair();
        let dev = Device::volta();
        let params = DistanceParams::default();
        for d in [
            Distance::Manhattan,
            Distance::Chebyshev,
            Distance::DotProduct,
        ] {
            let sr = d.semiring::<f64>(&params);
            let da = DeviceCsr::upload(&dev, &a);
            let db = DeviceCsr::upload(&dev, &b);
            let (got, _) = naive_shared_kernel(&dev, &da, &db, a.max_degree(), &sr).expect("fits");
            let got = got.to_vec();
            for i in 0..a.rows() {
                for jj in 0..b.rows() {
                    let av: Vec<_> = a.row(i).collect();
                    let bv: Vec<_> = b.row(jj).collect();
                    let want = apply_semiring_union(&av, &bv, &sr);
                    let g = got[i * b.rows() + jj];
                    assert!((g - want).abs() < 1e-9, "{d} cell ({i},{jj})");
                }
            }
        }
    }

    #[test]
    fn improves_a_side_coalescing_over_plain_naive() {
        // The §3.2.2 claim: staging A coalesces its reads, removing the
        // A-side's data-dependent gathers from global memory entirely.
        // The shared variant must therefore move fewer global bytes in
        // total than the plain kernel on the same input.
        let trips: Vec<(u32, u32, f64)> = (0..32u32)
            .flat_map(|r| (0..40u32).map(move |c| (r, (c * 7 + r) % 300, 1.0)))
            .collect();
        let a = CsrMatrix::from_triplets(32, 300, &trips).expect("valid");
        let dev = Device::volta();
        let sr = Distance::Manhattan.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, &a);
        let (_, plain) = naive_csr_kernel(&dev, &da, &da, &sr).expect("launch");
        let (_, shared) = naive_shared_kernel(&dev, &da, &da, a.max_degree(), &sr).expect("fits");
        assert!(
            shared.counters.global_bytes < plain.counters.global_bytes,
            "shared {} vs plain {} global bytes",
            shared.counters.global_bytes,
            plain.counters.global_bytes
        );
        assert!(
            shared.counters.global_transactions < plain.counters.global_transactions,
            "shared {} vs plain {} transactions",
            shared.counters.global_transactions,
            plain.counters.global_transactions
        );
    }

    #[test]
    fn oversized_rows_are_rejected() {
        let dev = Device::volta();
        let a = CsrMatrix::<f32>::zeros(1, 100_000);
        let da = DeviceCsr::upload(&dev, &a);
        let sr = Distance::Manhattan.semiring::<f32>(&DistanceParams::default());
        let err = naive_shared_kernel(&dev, &da, &da, 90_000, &sr);
        assert!(matches!(err, Err(KernelError::SharedMemoryExceeded { .. })));
    }
}
