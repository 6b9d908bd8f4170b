//! Naive full-union CSR kernel (§3.2.2, Algorithm 2).
//!
//! One thread per `(i, j)` output cell runs a two-pointer merge over the
//! sorted nonzeros of `A_i` and `B_j`, applying `⊗` across the full
//! column union. This design "will guarantee the ⊗ monoid is computed on
//! the full union of nonzero columns" but, as the paper observes, "the
//! differing distributions of nonzeros within each row decreased the
//! potential for coalesced global memory accesses and created large
//! thread divergences" — both of which the simulator's counters expose.
//!
//! This kernel doubles as the paper's *baseline* for NAMM distances in
//! Table 3 ("the naive CSR full-union semiring implementation as
//! described in section 3.2.2 for the distances which cuSPARSE does not
//! support").

use crate::device_fmt::DeviceCsr;
use crate::error::KernelError;
use gpu_sim::{
    lanes_from_fn, Device, GlobalBuffer, Lanes, LaunchConfig, LaunchStats, WarpCtx, WARP_SIZE,
};
use semiring::Semiring;
use sparse::Real;

/// Threads per block (8 warps) for the pair-per-thread kernel.
const BLOCK_THREADS: usize = 256;

/// Computes the `m × n` inner-term matrix (`⊕`-reduction of `⊗` over the
/// nonzero-column union of every row pair) into a new device buffer.
///
/// The caller applies the expansion or finalization pass afterwards.
///
/// # Errors
///
/// Returns [`KernelError::Launch`] when the simulator rejects the launch
/// (sanitizer findings, injected faults, or a watchdog timeout).
pub fn naive_csr_kernel<T: Real>(
    dev: &Device,
    a: &DeviceCsr<T>,
    b: &DeviceCsr<T>,
    sr: &Semiring<T>,
) -> Result<(GlobalBuffer<T>, LaunchStats), KernelError> {
    let (m, n) = (a.rows, b.rows);
    let total = m * n;
    let out = dev.buffer::<T>(total);
    let blocks = total.div_ceil(BLOCK_THREADS).max(1);
    let sr = *sr;

    let stats = dev.try_launch(
        "naive_csr",
        LaunchConfig::new(blocks, BLOCK_THREADS, 0),
        |block| {
            block.run_warps(|w| {
                // Per-lane pair assignment.
                let pair = lanes_from_fn(|l| {
                    let p = w.global_thread_id(l);
                    (p < total).then_some(p)
                });
                if pair.iter().all(Option::is_none) {
                    return;
                }
                // Row extents; four coalesced-ish indptr gathers.
                let ai = lanes_from_fn(|l| pair[l].map(|p| p / n));
                let bj = lanes_from_fn(|l| pair[l].map(|p| p % n));
                let (a_start, a_end, b_start, b_end) = w.range("pair_setup", |w| {
                    let a_start = w.global_gather(&a.indptr, &ai);
                    let a_end =
                        w.global_gather(&a.indptr, &lanes_from_fn(|l| ai[l].map(|i| i + 1)));
                    let b_start = w.global_gather(&b.indptr, &bj);
                    let b_end =
                        w.global_gather(&b.indptr, &lanes_from_fn(|l| bj[l].map(|j| j + 1)));
                    (a_start, a_end, b_start, b_end)
                });

                let active = lanes_from_fn(|l| pair[l].is_some());
                let acc = merge_rows(
                    w,
                    &sr,
                    &active,
                    |w, idx| w.global_gather(&a.indices, idx),
                    |w, idx| w.global_gather(&a.values, idx),
                    lanes_from_fn(|l| a_start[l] as usize),
                    lanes_from_fn(|l| a_end[l] as usize),
                    b,
                    lanes_from_fn(|l| b_start[l] as usize),
                    lanes_from_fn(|l| b_end[l] as usize),
                );
                w.range("writeback", |w| w.global_scatter(&out, &pair, &acc));
            });
        },
    )?;
    Ok((out, stats))
}

/// The lockstep two-pointer merge both naive kernels run: each `active`
/// lane walks its `A` row over `ia..a_end` and its `B` row over
/// `ib..b_end`, applying `⊗` across the column union (or only the
/// intersection when the product annihilates) and `⊕`-reducing into
/// its accumulator, while any lane still has work. `a_cols`/`a_vals`
/// load the `A` side: global gathers in Algorithm 2, shared-memory
/// gathers from the staged row in [`crate::naive_shared`].
pub(crate) fn merge_rows<T: Real>(
    w: &mut WarpCtx<'_>,
    sr: &Semiring<T>,
    active: &Lanes<bool>,
    a_cols: impl Fn(&mut WarpCtx<'_>, &Lanes<Option<usize>>) -> Lanes<u32>,
    a_vals: impl Fn(&mut WarpCtx<'_>, &Lanes<Option<usize>>) -> Lanes<T>,
    mut ia: Lanes<usize>,
    a_end: Lanes<usize>,
    b: &DeviceCsr<T>,
    mut ib: Lanes<usize>,
    b_end: Lanes<usize>,
) -> Lanes<T> {
    let annihilating = sr.is_annihilating();
    let mut acc = [sr.reduce_identity(); WARP_SIZE];
    w.range("merge_loop", |w| loop {
        let live = lanes_from_fn(|l| active[l] && (ia[l] < a_end[l] || ib[l] < b_end[l]));
        if !live.iter().any(|&x| x) {
            break;
        }
        // Column loads are data-dependent gathers — the uncoalesced
        // pattern the paper describes (on the shared `A` side, bank
        // conflicts instead: lanes sit at different offsets).
        let col_a = a_cols(
            w,
            &lanes_from_fn(|l| (live[l] && ia[l] < a_end[l]).then_some(ia[l])),
        );
        let col_b = w.global_gather(
            &b.indices,
            &lanes_from_fn(|l| (live[l] && ib[l] < b_end[l]).then_some(ib[l])),
        );
        let eff_a = lanes_from_fn(|l| {
            if live[l] && ia[l] < a_end[l] {
                col_a[l]
            } else {
                u32::MAX
            }
        });
        let eff_b = lanes_from_fn(|l| {
            if live[l] && ib[l] < b_end[l] {
                col_b[l]
            } else {
                u32::MAX
            }
        });
        // Two data-dependent branches (advance A? advance B?).
        let take_a = lanes_from_fn(|l| live[l] && eff_a[l] <= eff_b[l]);
        let take_b = lanes_from_fn(|l| live[l] && eff_b[l] <= eff_a[l]);
        w.branch(&take_a);
        w.branch(&take_b);
        let val_a = a_vals(w, &lanes_from_fn(|l| take_a[l].then_some(ia[l])));
        let val_b = w.global_gather(&b.values, &lanes_from_fn(|l| take_b[l].then_some(ib[l])));
        w.issue(2); // product + reduce
        for l in 0..WARP_SIZE {
            if !live[l] {
                continue;
            }
            let both = take_a[l] && take_b[l];
            if both || !annihilating {
                let va = if take_a[l] { val_a[l] } else { T::ZERO };
                let vb = if take_b[l] { val_b[l] } else { T::ZERO };
                acc[l] = sr.reduce(acc[l], sr.product(va, vb));
            }
            if take_a[l] {
                ia[l] += 1;
            }
            if take_b[l] {
                ib[l] += 1;
            }
        }
    });
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::{apply_semiring_union, Distance, DistanceParams};
    use sparse::CsrMatrix;

    fn row_pairs(m: &CsrMatrix<f64>, i: usize) -> Vec<(u32, f64)> {
        m.row(i).collect()
    }

    fn check_against_reference(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, d: Distance) {
        let dev = Device::volta();
        let params = DistanceParams::default();
        let sr = d.semiring::<f64>(&params);
        let da = DeviceCsr::upload(&dev, a);
        let db = DeviceCsr::upload(&dev, b);
        let (out, _) = naive_csr_kernel(&dev, &da, &db, &sr).expect("launch");
        let got = out.to_vec();
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let expect = apply_semiring_union(&row_pairs(a, i), &row_pairs(b, j), &sr);
                let g = got[i * b.rows() + j];
                assert!(
                    (g - expect).abs() < 1e-9,
                    "{d} cell ({i},{j}): kernel {g}, reference {expect}"
                );
            }
        }
    }

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
    fn matches_union_reference_for_manhattan() {
        let (a, b) = sample_pair();
        check_against_reference(&a, &b, Distance::Manhattan);
    }

    #[test]
    fn matches_union_reference_for_chebyshev_max_reduction() {
        let (a, b) = sample_pair();
        check_against_reference(&a, &b, Distance::Chebyshev);
    }

    #[test]
    fn matches_intersection_reference_for_dot() {
        let (a, b) = sample_pair();
        check_against_reference(&a, &b, Distance::DotProduct);
    }

    #[test]
    fn empty_rows_produce_identity() {
        let (a, b) = sample_pair();
        let dev = Device::volta();
        let sr = Distance::Manhattan.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, &a);
        let db = DeviceCsr::upload(&dev, &b);
        let (out, _) = naive_csr_kernel(&dev, &da, &db, &sr).expect("launch");
        // a row 1 is empty, b row 2 = {5: 7.0}: union = |0-7| = 7.
        assert_eq!(out.host_get(4 + 2), 7.0);
    }

    #[test]
    fn skewed_rows_create_divergence() {
        // One long row next to short rows → lanes idle while one works.
        let mut trips: Vec<(u32, u32, f64)> = (0..200).map(|c| (0, c, 1.0)).collect();
        for r in 1..32u32 {
            trips.push((r, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(32, 200, &trips).expect("valid");
        let dev = Device::volta();
        let sr = Distance::Manhattan.semiring::<f64>(&DistanceParams::default());
        let da = DeviceCsr::upload(&dev, &a);
        let (_, stats) = naive_csr_kernel(&dev, &da, &da, &sr).expect("launch");
        assert!(
            stats.counters.divergence_extra > 0,
            "skewed degree distribution must show divergence"
        );
        assert!(stats.counters.coalescing_overhead() > 2.0);
    }
}
