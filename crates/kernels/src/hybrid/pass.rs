//! The load-balanced hybrid CSR+COO SPMV pass (§3.3, Algorithm 3).
//!
//! Each block stages one row (or partition of a row, §3.3.3) of the
//! *shared-memory side* matrix, then every warp strides over one
//! [`STREAM_CHUNK`] of the *streamed side*'s COO nonzeros — coalesced
//! loads of `rowidx`, `colidx`, and `values` — applying `⊗`,
//! segment-reducing by the streamed row within the warp, and atomically
//! `⊕`-combining segment results into the output ("bounding the number
//! of potential writes to global memory by the number of active warps
//! over each row of B"). The paper's blocks stream the whole COO; here
//! the grid holds one block per (partition, chunk) pair (see
//! [`PartitionPlan`]), so a batch of a few staged rows still fills the
//! device.
//!
//! Pass 1 (`PassKind::Products`) computes `a ∩ b` plus `ā ∩ b`; for NAMM
//! distances a second launch with commuted operands and
//! `PassKind::Difference` adds the remaining `a ∩ b̄` — Equation 3's
//! union decomposition (§3.3.1).
//!
//! Either pass writes cell `(entry.row − base) × out_cols + streamed row`,
//! so a block's atomics for its staged row cover `out_cols` contiguous
//! cells. Pass 2 stages index rows, so it accumulates an index-major
//! scratch slab that `hybrid_combine` folds into the query-major output
//! with one tiled transpose.

use crate::device_fmt::{DeviceCoo, DeviceCsr};
use crate::error::KernelError;
use crate::hybrid::plan::PartitionPlan;
use crate::hybrid::smem_vec::{Lookup, SmemVecKind, SmemVector};
use gpu_sim::{
    lanes_from_fn, warp_binary_search, Device, GlobalBuffer, LaunchConfig, LaunchStats, WARP_SIZE,
};
use semiring::Semiring;
use sparse::Real;
use std::ops::Range;

/// Threads per block: 32 warps, the geometry §3.3 reports reaching full
/// Volta occupancy with two resident blocks per SM.
pub const BLOCK_THREADS: usize = 1024;

/// Streamed nonzeros per block: eight coalesced strides of the block's
/// 32 warps against one row staging. A multiple of `BLOCK_THREADS`, so
/// chunk boundaries fall on 32-lane group boundaries and every warp's
/// segmented reduction sees the same lanes as an unchunked sweep.
pub const STREAM_CHUNK: usize = BLOCK_THREADS * 8;

/// Which union component the pass contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// `⊗(smem[col], stream_val)` for every streamed nonzero — covers the
    /// column intersection and the streamed side's symmetric difference.
    Products,
    /// `⊗(stream_val, 0)` for streamed nonzeros whose column is *absent*
    /// from the shared-memory row — the remaining symmetric difference,
    /// with intersection hits skipped ("skipping the application of id⊗
    /// in B for the second pass").
    Difference,
}

/// Inputs of one hybrid pass launch.
#[derive(Debug)]
pub struct PassInputs<'x, T> {
    /// Matrix whose rows go to shared memory (`A` in pass 1, `B` in
    /// pass 2).
    pub smem_side: &'x DeviceCsr<T>,
    /// Matrix streamed in COO order (`B` in pass 1, `A` in pass 2).
    pub stream_side: &'x DeviceCoo<T>,
    /// Block assignment: one block per (entry, chunk) pair, built for
    /// `stream_side`'s nonzero count (see [`PartitionPlan::build`]).
    pub plan: &'x PartitionPlan,
    /// Shared-memory representation for the staged rows.
    pub kind: SmemVecKind,
    /// Hash capacity in slots (ignored by dense/bloom).
    pub hash_capacity: usize,
    /// Shared-memory bytes to reserve per block (must cover the
    /// representation).
    pub smem_per_block: usize,
    /// The distance's semiring.
    pub sr: Semiring<T>,
    /// Which union component the pass contributes.
    pub pass: PassKind,
    /// Output buffer, staged-row-major: cell `(smem_row − base) ×
    /// out_cols + stream_row`.
    pub out: &'x GlobalBuffer<T>,
    /// Output columns: the streamed side's row count.
    pub out_cols: usize,
    /// First staged row `out` covers (a pass-2 slab's start; 0 in pass
    /// 1).
    pub base: usize,
}

/// Launches one hybrid pass and returns its stats.
///
/// # Errors
///
/// Returns [`KernelError::Launch`] when the simulator rejects the launch
/// (a shared-memory budget the plan under-provisioned, or sanitizer
/// findings under [`gpu_sim::SanitizerMode::Fail`]).
///
/// # Panics
///
/// Panics if the plan was built for a streamed side of another nonzero
/// count.
pub fn hybrid_pass<T: Real>(
    dev: &Device,
    inp: &PassInputs<'_, T>,
) -> Result<LaunchStats, KernelError> {
    let sr = inp.sr;
    let annihilating = sr.is_annihilating();
    let id = sr.reduce_identity();
    assert_eq!(
        inp.plan.stream_nnz,
        inp.stream_side.nnz(),
        "hybrid plan built for another streamed side"
    );
    let name = match inp.kind {
        SmemVecKind::Dense => "hybrid_pass_dense",
        SmemVecKind::Hash => "hybrid_pass_hash",
        SmemVecKind::Bloom => "hybrid_pass_bloom",
    };

    let stats = dev.try_launch(
        name,
        LaunchConfig::new(inp.plan.blocks().max(1), BLOCK_THREADS, inp.smem_per_block),
        |block| {
            let Some((entry, chunk)) = inp.plan.block(block.block_id) else {
                return;
            };
            let (row_start, row_end) = inp.smem_side.row_extent(entry.row);
            let part_start = row_start + entry.start;
            let part_end = part_start + entry.len;
            let k = inp.smem_side.cols;
            let vec =
                SmemVector::<T>::build(block, inp.kind, k, inp.hash_capacity, entry.len.max(1));

            // Stage the partition: warps cooperatively load (coalesced)
            // and insert.
            let vec_ref = vec.clone();
            block.run_warps(|w| {
                w.range("row_cache", |w| {
                    let wpb = BLOCK_THREADS / WARP_SIZE;
                    let mut base = part_start + w.warp_id * WARP_SIZE;
                    while base < part_end {
                        let idx = lanes_from_fn(|l| {
                            let i = base + l;
                            (i < part_end).then_some(i)
                        });
                        let cols = w.global_gather(&inp.smem_side.indices, &idx);
                        let vals = w.global_gather(&inp.smem_side.values, &idx);
                        let ocols = lanes_from_fn(|l| idx[l].map(|_| cols[l]));
                        w.range("insert", |w| vec_ref.insert_warp(w, &ocols, &vals));
                        // Inserts can overflow the table/bloom capacity
                        // (recorded as a typed fault inside insert_warp);
                        // stop staging and limp so the launch surfaces the
                        // fault instead of compounding the damage.
                        if w.fault_pending() {
                            break;
                        }
                        base += wpb * WARP_SIZE;
                    }
                });
            });
            block.sync();

            // Stream this block's chunk of the COO side.
            let vec_ref = vec.clone();
            block.run_warps(|w| {
                w.range("coo_sweep", |w| {
                    let wpb = BLOCK_THREADS / WARP_SIZE;
                    let mut base = chunk.start + w.warp_id * WARP_SIZE;
                    while base < chunk.end {
                        let idx = lanes_from_fn(|l| {
                            let i = base + l;
                            (i < chunk.end).then_some(i)
                        });
                        let srow = w.global_gather(&inp.stream_side.row_indices, &idx);
                        let scol = w.global_gather(&inp.stream_side.col_indices, &idx);
                        let sval = w.global_gather(&inp.stream_side.values, &idx);

                        let cols = lanes_from_fn(|l| idx[l].map(|_| scol[l]));
                        let looked = w.range("lookup", |w| {
                            let mut looked = vec_ref.lookup_warp(w, &cols);
                            // Bloom positives confirm against the partition's
                            // global column list.
                            if matches!(inp.kind, SmemVecKind::Bloom) {
                                looked = vec_ref.confirm_warp(
                                    w,
                                    &looked,
                                    &cols,
                                    &inp.smem_side.indices,
                                    &inp.smem_side.values,
                                    part_start,
                                    part_end,
                                );
                            }
                            looked
                        });

                        // Partitioned rows: a miss is ambiguous. Only the
                        // first partition resolves it, via a binary search
                        // over the *full* row — §3.3.3's "extra work in
                        // exchange for scale". Annihilating semirings skip
                        // the search entirely (a true miss contributes 0).
                        let needs_resolve = entry.partitioned
                            && entry.is_first
                            && (!annihilating || inp.pass == PassKind::Difference);
                        let unresolved = lanes_from_fn(|l| {
                            if needs_resolve && matches!(looked[l], Lookup::Miss) {
                                cols[l]
                            } else {
                                None
                            }
                        });
                        let in_full_row = if unresolved.iter().any(Option::is_some) {
                            w.range("resolve", |w| {
                                let found = warp_binary_search(
                                    w,
                                    &inp.smem_side.indices,
                                    row_start,
                                    row_end,
                                    &unresolved,
                                );
                                lanes_from_fn(|l| found[l].is_some())
                            })
                        } else {
                            [false; WARP_SIZE]
                        };

                        // The per-lane ⊗ application (one issue) plus the
                        // branch that PassKind/partitioning forces.
                        w.range("product", |w| w.issue(1));
                        let terms = lanes_from_fn(|l| {
                            if idx[l].is_none() {
                                return id;
                            }
                            match (inp.pass, looked[l]) {
                                // Pass 1: products with the streamed value.
                                (PassKind::Products, Lookup::Hit(va)) => sr.product(va, sval[l]),
                                (PassKind::Products, Lookup::Miss) => {
                                    // Annihilating semirings: the missing side
                                    // is the annihilator, not a literal 0 —
                                    // the term vanishes (this is what lets
                                    // relaxed semirings like min-plus run
                                    // intersection-only).
                                    if annihilating {
                                        id
                                    } else if !entry.partitioned
                                        || (entry.is_first && !in_full_row[l])
                                    {
                                        sr.product(T::ZERO, sval[l])
                                    } else {
                                        id // another partition owns it
                                    }
                                }
                                // Pass 2: only definitive misses contribute.
                                (PassKind::Difference, Lookup::Hit(_)) => id,
                                (PassKind::Difference, Lookup::Miss) => {
                                    if !entry.partitioned {
                                        sr.product(sval[l], T::ZERO)
                                    } else if entry.is_first && !in_full_row[l] {
                                        sr.product(sval[l], T::ZERO)
                                    } else {
                                        id
                                    }
                                }
                                (_, Lookup::Maybe) => id, // confirmed above
                            }
                        });
                        let active = lanes_from_fn(|l| idx[l].is_some() && terms[l] != id);
                        w.range("flush", |w| {
                            if active.iter().any(|&a| a) {
                                let keys = lanes_from_fn(|l| srow[l]);
                                let segs =
                                    w.warp_segmented_reduce(&keys, &terms, &active, id, |x, y| {
                                        sr.reduce(x, y)
                                    });
                                let row = (entry.row - inp.base) * inp.out_cols;
                                let out_idx = lanes_from_fn(|l| {
                                    segs.get(l).map(|&(key, _)| row + key as usize)
                                });
                                let out_vals =
                                    lanes_from_fn(|l| segs.get(l).map(|&(_, v)| v).unwrap_or(id));
                                w.global_atomic(inp.out, &out_idx, &out_vals, move |x, y| {
                                    sr.reduce(x, y)
                                });
                            } else {
                                w.branch(&active);
                            }
                        });
                        base += wpb * WARP_SIZE;
                    }
                });
            });
        },
    )?;
    Ok(stats)
}

/// Side of the square [`hybrid_combine`] tile: one warp per tile row, so
/// both the scratch reads and the output writes are one warp-wide
/// coalesced stride.
pub(crate) const COMBINE_TILE: usize = WARP_SIZE;

/// Folds one pass-2 scratch slab into the query-major output: `out[q ×
/// out_cols + r] ⊕= scratch[(r − rows.start) × queries + q]` for every
/// index row `r` in `rows` and query `q < queries`.
///
/// One block of `COMBINE_TILE²` threads per tile: each warp reads one
/// scratch row into a `32 × 33` shared tile (the pad column keeps the
/// transposed reads free of bank conflicts), then after the barrier each
/// warp folds one tile column into one `out` row. Each cell is owned by
/// one lane, so plain loads and stores suffice.
///
/// # Errors
///
/// Returns [`KernelError::Launch`] when the simulator rejects the launch
/// (sanitizer findings under [`gpu_sim::SanitizerMode::Fail`]).
pub(crate) fn hybrid_combine<T: Real>(
    dev: &Device,
    sr: &Semiring<T>,
    scratch: &GlobalBuffer<T>,
    rows: Range<usize>,
    queries: usize,
    out: &GlobalBuffer<T>,
    out_cols: usize,
) -> Result<LaunchStats, KernelError> {
    const PITCH: usize = COMBINE_TILE + 1;
    let sr = *sr;
    let slab = rows.len();
    let query_tiles = queries.div_ceil(COMBINE_TILE);
    let blocks = slab.div_ceil(COMBINE_TILE) * query_tiles;
    let stats = dev.try_launch(
        "hybrid_combine",
        LaunchConfig::new(
            blocks.max(1),
            COMBINE_TILE * COMBINE_TILE,
            COMBINE_TILE * PITCH * std::mem::size_of::<T>(),
        ),
        |block| {
            if block.block_id >= blocks {
                return;
            }
            let r0 = block.block_id / query_tiles * COMBINE_TILE;
            let q0 = block.block_id % query_tiles * COMBINE_TILE;
            let tile = block.alloc_shared::<T>(COMBINE_TILE * PITCH);

            // Warp w: scratch row r0 + w, queries q0 + lane → tile row w.
            block.run_warps(|w| {
                let (wid, r) = (w.warp_id, r0 + w.warp_id);
                let src =
                    lanes_from_fn(|l| (r < slab && q0 + l < queries).then(|| r * queries + q0 + l));
                let vals = w.global_gather(scratch, &src);
                let dst = lanes_from_fn(|l| src[l].map(|_| wid * PITCH + l));
                w.smem_scatter(&tile, &dst, &vals);
            });
            block.sync();

            // Warp w: tile column w → out row q0 + w, index rows r0 + lane.
            block.run_warps(|w| {
                let (wid, q) = (w.warp_id, q0 + w.warp_id);
                let cells = lanes_from_fn(|l| {
                    (q < queries && r0 + l < slab).then(|| q * out_cols + rows.start + r0 + l)
                });
                let terms =
                    w.smem_gather(&tile, &lanes_from_fn(|l| cells[l].map(|_| l * PITCH + wid)));
                let cur = w.global_gather(out, &cells);
                w.issue(1);
                let folded = lanes_from_fn(|l| sr.reduce(cur[l], terms[l]));
                w.global_scatter(out, &cells, &folded);
            });
        },
    )?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{hybrid_difference_pass, HybridConfig};
    use semiring::{apply_semiring_pass, apply_semiring_union, Distance, DistanceParams};
    use sparse::CsrMatrix;

    fn sample() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::from_dense(
            2,
            6,
            &[
                1.0, 0.0, 2.0, 0.0, 0.5, 0.0, //
                0.0, 3.0, 0.0, 0.0, 0.0, 1.0,
            ],
        );
        let b = CsrMatrix::from_dense(
            3,
            6,
            &[
                0.0, 1.0, 2.0, 0.0, 0.0, 1.0, //
                1.0, 0.0, 2.0, 0.0, 0.5, 0.0, //
                4.0, 4.0, 0.0, 4.0, 0.0, 0.0,
            ],
        );
        (a, b)
    }

    /// A `rows × cols` matrix of small integers (so every ⊕ order sums
    /// exactly) at about 19 % density, its pattern scrambled by `salt`.
    fn integer_matrix(rows: usize, cols: usize, salt: usize) -> CsrMatrix<f64> {
        integer_matrix_without(rows, cols, salt, &[])
    }

    /// [`integer_matrix`] with the rows in `empty` left empty.
    fn integer_matrix_without(
        rows: usize,
        cols: usize,
        salt: usize,
        empty: &[usize],
    ) -> CsrMatrix<f64> {
        let dense: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let h = (i * 7919 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
                if h < 6 && !empty.contains(&(i / cols)) {
                    (h % 4 + 1) as f64
                } else {
                    0.0
                }
            })
            .collect();
        CsrMatrix::from_dense(rows, cols, &dense)
    }

    /// The test geometry: `kind` with a 256-slot hash and rows split past
    /// `max_entries`.
    fn config(kind: SmemVecKind, max_entries: usize) -> HybridConfig {
        HybridConfig {
            kind,
            hash_capacity: 256,
            max_entries,
            smem_per_block: 48 * 1024,
        }
    }

    /// Launches pass 1 with `smem` in shared memory and `stream`
    /// streamed, ⊕-accumulating into `out`. Returns the launch and its
    /// plan.
    fn launch(
        dev: &Device,
        smem: &CsrMatrix<f64>,
        stream: &CsrMatrix<f64>,
        d: Distance,
        cfg: &HybridConfig,
        out: &GlobalBuffer<f64>,
    ) -> (LaunchStats, PartitionPlan) {
        let sr = d.semiring::<f64>(&DistanceParams::default());
        let smem_side = DeviceCsr::upload(dev, smem);
        let stream_side = DeviceCoo::upload(dev, stream);
        let plan = PartitionPlan::build(
            smem.indptr(),
            cfg.max_entries,
            !sr.is_annihilating(),
            stream.nnz(),
        );
        let inp = PassInputs {
            smem_side: &smem_side,
            stream_side: &stream_side,
            plan: &plan,
            kind: cfg.kind,
            hash_capacity: cfg.hash_capacity,
            smem_per_block: cfg.smem_per_block,
            sr,
            pass: PassKind::Products,
            out,
            out_cols: stream.rows(),
            base: 0,
        };
        let stats = hybrid_pass(dev, &inp).expect("launch");
        assert_eq!(stats.config.blocks, plan.entries.len() * plan.chunks());
        (stats, plan)
    }

    fn run_pass1(
        a: &CsrMatrix<f64>,
        b: &CsrMatrix<f64>,
        d: Distance,
        kind: SmemVecKind,
        max_entries: usize,
    ) -> (Vec<f64>, PartitionPlan) {
        let dev = Device::volta();
        let out = dev.buffer::<f64>(a.rows() * b.rows());
        let (_, plan) = launch(&dev, a, b, d, &config(kind, max_entries), &out);
        (out.to_vec(), plan)
    }

    /// Both passes (the second, slab by slab, only for NAMMs) into one
    /// buffer, on `dev`. Returns the cells and every launch.
    fn run_union_on(
        dev: &Device,
        a: &CsrMatrix<f64>,
        b: &CsrMatrix<f64>,
        d: Distance,
        kind: SmemVecKind,
        max_entries: usize,
    ) -> (Vec<f64>, Vec<LaunchStats>) {
        let sr = d.semiring::<f64>(&DistanceParams::default());
        let cfg = config(kind, max_entries);
        let out = dev.buffer::<f64>(a.rows() * b.rows());
        let mut stats = vec![launch(dev, a, b, d, &cfg, &out).0];
        if !sr.is_annihilating() {
            let plan = PartitionPlan::build(b.indptr(), max_entries, true, a.nnz());
            let (index, queries) = (DeviceCsr::upload(dev, b), DeviceCoo::upload(dev, a));
            stats.extend(
                hybrid_difference_pass(dev, &index, &queries, &plan, &cfg, &sr, &out)
                    .expect("launch"),
            );
        }
        (out.to_vec(), stats)
    }

    fn run_union(
        a: &CsrMatrix<f64>,
        b: &CsrMatrix<f64>,
        d: Distance,
        kind: SmemVecKind,
        max_entries: usize,
    ) -> Vec<f64> {
        run_union_on(&Device::volta(), a, b, d, kind, max_entries).0
    }

    /// A host reference over one pair of rows.
    type Reference = fn(&[(u32, f64)], &[(u32, f64)], &Semiring<f64>) -> f64;

    /// The reference for every cell of `a × b`: `eval` over the two rows.
    fn expect(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, d: Distance, eval: Reference) -> Vec<f64> {
        let sr = d.semiring::<f64>(&DistanceParams::default());
        let mut out = Vec::with_capacity(a.rows() * b.rows());
        for i in 0..a.rows() {
            let av: Vec<_> = a.row(i).collect();
            for j in 0..b.rows() {
                let bv: Vec<_> = b.row(j).collect();
                out.push(eval(&av, &bv, &sr));
            }
        }
        out
    }

    fn expect_pass1(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, d: Distance) -> Vec<f64> {
        expect(a, b, d, apply_semiring_pass)
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            assert!((g - e).abs() < 1e-9, "{what} cell {i}: got {g}, want {e}");
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{what} cell {i}: got {g}, want {e}"
            );
        }
    }

    #[test]
    fn pass1_matches_reference_dense_mode() {
        let (a, b) = sample();
        for d in [
            Distance::DotProduct,
            Distance::Manhattan,
            Distance::Chebyshev,
        ] {
            let (got, _) = run_pass1(&a, &b, d, SmemVecKind::Dense, 1024);
            assert_close(&got, &expect_pass1(&a, &b, d), d.name());
        }
    }

    #[test]
    fn pass1_matches_reference_hash_mode() {
        let (a, b) = sample();
        for d in [Distance::DotProduct, Distance::Manhattan] {
            let (got, _) = run_pass1(&a, &b, d, SmemVecKind::Hash, 1024);
            assert_close(&got, &expect_pass1(&a, &b, d), d.name());
        }
    }

    #[test]
    fn pass1_matches_reference_bloom_mode() {
        let (a, b) = sample();
        for d in [Distance::DotProduct, Distance::Manhattan] {
            let (got, _) = run_pass1(&a, &b, d, SmemVecKind::Bloom, 1024);
            assert_close(&got, &expect_pass1(&a, &b, d), d.name());
        }
    }

    #[test]
    fn pass1_with_partitioned_rows_matches_reference() {
        let (a, b) = sample();
        // max_entries = 1 forces every row into per-nonzero partitions.
        for d in [Distance::Manhattan, Distance::DotProduct] {
            let (got, _) = run_pass1(&a, &b, d, SmemVecKind::Hash, 1);
            assert_close(&got, &expect_pass1(&a, &b, d), d.name());
        }
    }

    #[test]
    fn two_passes_compose_the_union() {
        let (a, b) = sample();
        let d = Distance::Manhattan;
        let got = run_union(&a, &b, d, SmemVecKind::Hash, 512);
        assert_close(&got, &expect(&a, &b, d, apply_semiring_union), d.name());
    }

    /// Two staged rows against a streamed side of three chunks whose
    /// boundaries fall inside rows: every mode, whole and partitioned
    /// rows (the latter resolving misses per chunk), one annihilating
    /// and one NAMM distance, bit for bit.
    #[test]
    fn multi_chunk_pass1_matches_reference_bit_for_bit() {
        let a = integer_matrix(2, 256, 1);
        let b = integer_matrix(420, 256, 2);
        assert!(b.nnz() > 2 * STREAM_CHUNK);
        assert!(!b.indptr().contains(&STREAM_CHUNK) && !b.indptr().contains(&(2 * STREAM_CHUNK)));
        for kind in [SmemVecKind::Dense, SmemVecKind::Hash, SmemVecKind::Bloom] {
            for max_entries in [128, 16] {
                for d in [Distance::DotProduct, Distance::Manhattan] {
                    let what = format!("{d} {kind:?} max_entries={max_entries}");
                    let (got, plan) = run_pass1(&a, &b, d, kind, max_entries);
                    assert_eq!(plan.chunks(), 3, "{what}");
                    assert_eq!(plan.partitioned_rows > 0, max_entries == 16, "{what}");
                    assert_bits(&got, &expect_pass1(&a, &b, d), &what);
                }
            }
        }
    }

    /// The NAMM union with the multi-chunk side streamed in either pass:
    /// pass 1 (queries staged) and pass 2 (commuted, index staged).
    #[test]
    fn multi_chunk_union_matches_reference_bit_for_bit() {
        let small = integer_matrix(2, 256, 3);
        let large = integer_matrix(420, 256, 4);
        let d = Distance::Manhattan;
        for (a, b) in [(&small, &large), (&large, &small)] {
            for kind in [SmemVecKind::Dense, SmemVecKind::Hash, SmemVecKind::Bloom] {
                for max_entries in [128, 16] {
                    let what = format!(
                        "{}x{} {kind:?} max_entries={max_entries}",
                        a.rows(),
                        b.rows()
                    );
                    let got = run_union(a, b, d, kind, max_entries);
                    assert_bits(&got, &expect(a, b, d, apply_semiring_union), &what);
                }
            }
        }
    }

    fn names(stats: &[LaunchStats]) -> Vec<&str> {
        stats.iter().map(|s| s.name.as_str()).collect()
    }

    /// 420 queries of f64 give 128-row slabs (128 × 420 × 8 B ≤ 512 KiB <
    /// 160 × 420 × 8 B), so a 420-row index runs four slabs of 128, 128,
    /// 128 and 36 rows. `kind` with whole and partitioned rows (about 6
    /// nonzeros a row against `max_entries` 4), plus `extra` cases, bit
    /// for bit against the union. 32 columns keep a debug build to
    /// seconds; 256 took about 40 s per case.
    fn check_multi_slab(kind: SmemVecKind, extra: &[(&CsrMatrix<f64>, usize)]) {
        assert_eq!(crate::hybrid::pass2_slab_rows::<f64>(420), 128);
        let d = Distance::Manhattan;
        let full = integer_matrix(420, 32, 5);
        let cases = [(&full, 128), (&full, 4)]
            .into_iter()
            .chain(extra.iter().copied());
        for (x, max_entries) in cases {
            let what = format!("{kind:?} max_entries={max_entries} nnz={}", x.nnz());
            let plan = PartitionPlan::build(x.indptr(), max_entries, true, x.nnz());
            assert_eq!(plan.partitioned_rows > 0, max_entries == 4, "{what}");
            let (got, stats) = run_union_on(&Device::volta(), x, x, d, kind, max_entries);
            let pass = stats[0].name.as_str();
            let slab = [pass, "hybrid_combine"];
            assert_eq!(
                names(&stats),
                [[pass].as_slice(), &slab, &slab, &slab, &slab].concat()
            );
            // Combine grids: ⌈rows / 32⌉ × ⌈420 / 32⌉ tiles per slab.
            let tiles: Vec<usize> = stats[2..]
                .iter()
                .step_by(2)
                .map(|s| s.config.blocks)
                .collect();
            assert_eq!(tiles, [4 * 14, 4 * 14, 4 * 14, 2 * 14], "{what}");
            assert_bits(&got, &expect(x, x, d, apply_semiring_union), &what);
        }
    }

    #[test]
    fn multi_slab_union_matches_reference_dense() {
        check_multi_slab(SmemVecKind::Dense, &[]);
    }

    /// With empty rows on both sides of slab boundaries, too.
    #[test]
    fn multi_slab_union_matches_reference_hash() {
        let holes = integer_matrix_without(420, 32, 5, &[0, 127, 128, 300, 419]);
        check_multi_slab(SmemVecKind::Hash, &[(&holes, 4)]);
    }

    #[test]
    fn multi_slab_union_matches_reference_bloom() {
        check_multi_slab(SmemVecKind::Bloom, &[]);
    }

    /// The tiled transpose under `SanitizerMode::Fail`, over two slabs of
    /// 32 and 8 index rows: no memcheck, racecheck, synccheck or initcheck
    /// finding, and the union still exact.
    #[test]
    fn combine_is_clean_under_sanitizer_fail() {
        let queries = integer_matrix_without(1100, 16, 6, &[3]);
        let index = integer_matrix_without(40, 16, 7, &[31, 32]);
        let dev = Device::volta().with_sanitizer(gpu_sim::SanitizerMode::Fail);
        let d = Distance::Canberra;
        let (got, stats) = run_union_on(&dev, &queries, &index, d, SmemVecKind::Hash, 16);
        assert_eq!(
            names(&stats),
            [
                "hybrid_pass_hash",
                "hybrid_pass_hash",
                "hybrid_combine",
                "hybrid_pass_hash",
                "hybrid_combine"
            ]
        );
        assert!(stats.iter().all(|s| s.sanitizer_reports.is_empty()));
        let want = expect(&queries, &index, d, apply_semiring_union);
        assert_close(&got, &want, "canberra");
    }

    #[test]
    fn stream_loads_are_coalesced() {
        let (a, b) = sample();
        let dev = Device::volta();
        let out = dev.buffer::<f64>(a.rows() * b.rows());
        let (stats, _) = launch(
            &dev,
            &a,
            &b,
            Distance::DotProduct,
            &config(SmemVecKind::Dense, 512),
            &out,
        );
        // COO arrays are read unit-stride: low overhead vs. the naive
        // kernel's data-dependent gathers.
        assert!(stats.counters.coalescing_overhead() < 6.0);
    }
}
