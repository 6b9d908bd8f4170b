//! Device-side top-k selection.
//!
//! The paper's end-to-end benchmark is a brute-force k-NN query through
//! cuML's `NearestNeighbors`, which performs the k-smallest selection on
//! the GPU (a faiss-style warp/block-select) rather than copying the
//! dense distance tile back to the host. This kernel reproduces that
//! stage. Each one-warp block scans a run of one row, keeps a
//! shared-memory candidate list of the current k best, and applies a
//! threshold test so that only improving candidates pay the serialized
//! insertion — the expected number of insertions over a random row is
//! `k·ln(n/k)`, so the scan is bandwidth-bound and the divergence
//! counters show only the rare insertion bursts.
//!
//! A large batch runs one block per row. A small batch over long rows
//! would leave most of the device idle that way, so each row is split
//! into column chunks (one block per (row, chunk), each selecting its
//! chunk's k best into a `rows × chunks × k` candidate tile) and a
//! second launch of the same body merges each row's candidates, one
//! block per row (DESIGN §5, "Selection grid shape"). Candidates order
//! under the total order [`sparse::cmp_dist_idx`], so a row's top k does
//! not depend on how it was split.

use crate::error::KernelError;
use gpu_sim::{
    lanes_from_fn, Device, DeviceSpec, GlobalBuffer, LaunchConfig, LaunchStats, SimError, WARP_SIZE,
};
use sparse::{cmp_dist_idx, Real};

/// Threads per block (one warp is enough: the scan is memory-bound).
const BLOCK_THREADS: usize = 32;

/// Columns per chunk at the finest split: a row is cut into at most
/// `⌈cols / CHUNK_COLS⌉` chunks, so a chunk averages at least sixteen
/// warp-wide strides and its scan still outweighs its k-slot emission
/// and its share of the merge.
const CHUNK_COLS: usize = 512;

/// A split must occupy at least this many SMs at one-warp occupancy;
/// below it the merge launch costs more than the wider scan saves.
const MIN_SPLIT_SMS: usize = 8;

/// The column chunking of a `rows × cols` selection on `spec`: `(chunks,
/// chunk width)`, or `None` when one block per row runs it. Enough
/// chunks to give every resident one-warp block slot a chunk, at most
/// `⌈cols / CHUNK_COLS⌉` of them, each a whole number of warp-wide
/// strides wide (the last may be narrower).
fn column_chunks(rows: usize, cols: usize, spec: &DeviceSpec) -> Option<(usize, usize)> {
    let per_sm = spec.occupancy(BLOCK_THREADS, 0).blocks_per_sm;
    let want = (spec.sm_count * per_sm)
        .div_ceil(rows.max(1))
        .min(cols.div_ceil(CHUNK_COLS));
    if want < 2 {
        return None;
    }
    // Rounding the width up can drop an empty last chunk, never a
    // second one: `want ≥ 2` means `cols > CHUNK_COLS`.
    let width = cols.div_ceil(want).next_multiple_of(WARP_SIZE);
    let chunks = cols.div_ceil(width);
    (rows * chunks >= MIN_SPLIT_SMS * per_sm).then_some((chunks, width))
}

/// A selection's `(indices, values, launches)`.
type Selected<T> = (GlobalBuffer<u32>, GlobalBuffer<T>, Vec<LaunchStats>);

/// Whether `(label, value)` sorts strictly before `other` under
/// [`cmp_dist_idx`].
fn precedes<T: Real>(a: (u32, T), other: (u32, T)) -> bool {
    cmp_dist_idx(&(a.0 as usize, a.1), &(other.0 as usize, other.1)).is_lt()
}

/// The runs one selection launch scans: `rows` rows of `stride` entries
/// of `vals`, each cut into `segments` runs of `width` entries (the last
/// may be shorter). An entry's label is `labels[pos]` when given
/// (`u32::MAX` marks an empty slot), else its column within its row.
struct Runs<'a, T> {
    vals: &'a GlobalBuffer<T>,
    labels: Option<&'a GlobalBuffer<u32>>,
    rows: usize,
    stride: usize,
    width: usize,
    segments: usize,
}

/// Launches one `top_k_select` with one block per run: block `b` writes
/// the `k` best entries of run `b` (ascending under [`cmp_dist_idx`],
/// padded with `u32::MAX` / `T::INFINITY`) at slots `b·k..(b + 1)·k` of
/// the returned `(labels, values)`.
fn select_runs<T: Real>(
    dev: &Device,
    runs: &Runs<'_, T>,
    k: usize,
) -> Result<(GlobalBuffer<u32>, GlobalBuffer<T>, LaunchStats), SimError> {
    let blocks = runs.rows * runs.segments;
    let out_idx = GlobalBuffer::from_vec(vec![u32::MAX; blocks * k]);
    let out_val = GlobalBuffer::from_vec(vec![T::INFINITY; blocks * k]);
    let smem = k.max(1) * (std::mem::size_of::<u32>() + std::mem::size_of::<T>());

    let stats = dev.try_launch(
        "top_k_select",
        LaunchConfig::new(blocks.max(1), BLOCK_THREADS, smem),
        |block| {
            let b = block.block_id;
            if b >= blocks || k == 0 {
                return;
            }
            let row_start = b / runs.segments * runs.stride;
            let first = b % runs.segments * runs.width;
            let last = (first + runs.width).min(runs.stride);
            // Candidate list: `len` entries sorted ascending.
            let cand_idx = block.alloc_shared::<u32>(k);
            let cand_val = block.alloc_shared::<T>(k);
            block.run_warps(|w| {
                let mut len = 0usize;
                let mut threshold = (u32::MAX, T::INFINITY);
                let mut base = first;
                w.range("scan", |w| {
                    while base < last {
                        let idx = lanes_from_fn(|l| {
                            let c = base + l;
                            (c < last).then_some(row_start + c)
                        });
                        let vals = w.global_gather(runs.vals, &idx);
                        let labels = match runs.labels {
                            Some(labels) => w.global_gather(labels, &idx),
                            None => lanes_from_fn(|l| (base + l) as u32),
                        };
                        // Threshold test: one compare issue for the warp.
                        w.issue(1);
                        let passing = lanes_from_fn(|l| {
                            idx[l].is_some()
                                && labels[l] != u32::MAX
                                && (len < k || precedes((labels[l], vals[l]), threshold))
                        });
                        if passing.iter().any(|&p| p) {
                            // Divergent insertion burst: passing lanes
                            // serialize their shared-memory insertions.
                            w.branch(&passing);
                            w.range("insert", |w| {
                                for l in 0..WARP_SIZE {
                                    if !passing[l] {
                                        continue;
                                    }
                                    let cand = (labels[l], vals[l]);
                                    if len == k && !precedes(cand, threshold) {
                                        continue; // threshold moved this burst
                                    }
                                    // smem-lint: begin-allow(serialized-emulation): host-side emulation of one lane's insertion sort; the burst is costed in aggregate by the smem_gather probe + issue at the end of the loop body
                                    // Insertion position under `cmp_dist_idx`.
                                    let mut p = len;
                                    let pos = cand_val.scan_back_while(len, |c| {
                                        p -= 1;
                                        precedes(cand, (cand_idx.read(p), c))
                                    });
                                    // A full list shifts out its current worst.
                                    if len < k {
                                        len += 1;
                                    }
                                    cand_idx.shift_insert(pos, len, cand.0);
                                    cand_val.shift_insert(pos, len, cand.1);
                                    threshold = (cand_idx.read(len - 1), cand_val.read(len - 1));
                                    // Cost of one serialized insertion: a probe
                                    // plus the shifted stores.
                                    let sidx = lanes_from_fn(|sl| (sl < len).then_some(sl));
                                    w.smem_gather(&cand_val, &sidx);
                                    w.issue(1);
                                    // smem-lint: end-allow
                                }
                            });
                        }
                        base += WARP_SIZE;
                    }
                });
                // Write out the k results, one coalesced warp-wide store
                // of each array per 32 slots.
                w.range("emit", |w| {
                    // smem-lint: begin-allow(serialized-emulation): candidate list staged into registers for the coalesced emission; smem traffic was charged by the insertion-burst probes above
                    let mut written = 0;
                    while written < k {
                        let widx = lanes_from_fn(|l| {
                            let t = written + l;
                            (t < k).then_some(b * k + t)
                        });
                        let wvals = lanes_from_fn(|l| {
                            let t = written + l;
                            if t < len {
                                cand_val.read(t)
                            } else {
                                T::INFINITY
                            }
                        });
                        let widxs = lanes_from_fn(|l| {
                            let t = written + l;
                            if t < len {
                                cand_idx.read(t)
                            } else {
                                u32::MAX
                            }
                        });
                        w.global_scatter(&out_val, &widx, &wvals);
                        w.global_scatter(&out_idx, &widx, &widxs);
                        written += WARP_SIZE;
                    }
                    // smem-lint: end-allow
                });
            });
        },
    )?;
    Ok((out_idx, out_val, stats))
}

/// Selects, for every row of the `rows × cols` matrix `dists`, the `k`
/// smallest entries, ascending under [`cmp_dist_idx`] (ties to the
/// lower column, NaNs last).
///
/// Returns `(indices, values, launches)` where `indices`/`values` are
/// `rows × k` row-major device buffers. When `k > cols`, the tail is
/// filled with `u32::MAX` / `T::INFINITY`. `launches` holds one
/// `top_k_select` launch, or two when the rows are split into column
/// chunks (the chunk scan, then the merge); the answer is the same
/// either way.
///
/// # Errors
///
/// Returns [`KernelError::Launch`] when the simulator rejects a launch
/// (sanitizer findings, injected faults, or a watchdog timeout).
pub fn top_k_kernel<T: Real>(
    dev: &Device,
    dists: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    k: usize,
) -> Result<Selected<T>, KernelError> {
    assert_eq!(dists.len(), rows * cols, "distance tile shape mismatch");
    if let Some(chunking) = column_chunks(rows, cols, dev.spec()) {
        return select_split(dev, dists, rows, cols, k, chunking);
    }
    let whole = Runs {
        vals: dists,
        labels: None,
        rows,
        stride: cols,
        width: cols,
        segments: 1,
    };
    let (idx, val, stats) = select_runs(dev, &whole, k)?;
    Ok((idx, val, vec![stats]))
}

/// The split selection: the k best of each of a row's `chunks` column
/// chunks of `width`, then a merge of the row's `chunks × k` candidates
/// labelled by their columns.
fn select_split<T: Real>(
    dev: &Device,
    dists: &GlobalBuffer<T>,
    rows: usize,
    cols: usize,
    k: usize,
    (chunks, width): (usize, usize),
) -> Result<Selected<T>, KernelError> {
    let split = Runs {
        vals: dists,
        labels: None,
        rows,
        stride: cols,
        width,
        segments: chunks,
    };
    let (cand_idx, cand_val, scan) = select_runs(dev, &split, k)?;
    let merge = Runs {
        vals: &cand_val,
        labels: Some(&cand_idx),
        rows,
        stride: chunks * k,
        width: chunks * k,
        segments: 1,
    };
    let (idx, val, merged) = select_runs(dev, &merge, k)?;
    Ok((idx, val, vec![scan, merged]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The canonical host selection, labels as `u32`.
    fn host_topk<T: Real>(row: &[T], k: usize) -> Vec<(u32, T)> {
        sparse::top_k_smallest(row, k)
            .into_iter()
            .map(|(i, x)| (i as u32, x))
            .collect()
    }

    #[test]
    fn selects_k_smallest_sorted() {
        let dev = Device::volta();
        let rows = 5;
        let cols = 97;
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 / 10.0)
            .collect();
        let buf = dev.buffer_from_slice(&data);
        let k = 7;
        let (idx, val, _) = top_k_kernel(&dev, &buf, rows, cols, k).expect("launch");
        let idx = idx.to_vec();
        let val = val.to_vec();
        for r in 0..rows {
            let want = host_topk(&data[r * cols..(r + 1) * cols], k);
            for s in 0..k {
                assert_eq!(idx[r * k + s], want[s].0, "row {r} slot {s}");
                assert_eq!(val[r * k + s], want[s].1, "row {r} slot {s}");
            }
        }
    }

    #[test]
    fn k_larger_than_cols_pads_with_sentinels() {
        let dev = Device::volta();
        let data = [3.0f32, 1.0, 2.0];
        let buf = dev.buffer_from_slice(&data);
        let (idx, val, _) = top_k_kernel(&dev, &buf, 1, 3, 5).expect("launch");
        assert_eq!(idx.to_vec()[..3], [1, 2, 0]);
        assert_eq!(idx.host_get(3), u32::MAX);
        assert_eq!(val.host_get(4), f32::INFINITY);
    }

    #[test]
    fn k_zero_is_a_noop() {
        let dev = Device::volta();
        let buf = dev.buffer_from_slice(&[1.0f32, 2.0]);
        let (idx, val, _) = top_k_kernel(&dev, &buf, 1, 2, 0).expect("launch");
        assert!(idx.is_empty());
        assert!(val.is_empty());
    }

    #[test]
    fn ties_resolve_to_lower_column() {
        let dev = Device::volta();
        let data = [5.0f32, 1.0, 1.0, 1.0];
        let buf = dev.buffer_from_slice(&data);
        let (idx, _, _) = top_k_kernel(&dev, &buf, 1, 4, 2).expect("launch");
        assert_eq!(idx.to_vec(), vec![1, 2]);
    }

    #[test]
    fn descending_input_is_the_insertion_worst_case() {
        // Ascending input: after the first k, nothing beats the
        // threshold. Descending input: every element does → maximal
        // serialized insertion work.
        let dev = Device::volta();
        let n = 512;
        let asc: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let desc: Vec<f32> = (0..n).map(|i| (n - i) as f32).collect();
        let buf_a = dev.buffer_from_slice(&asc);
        let buf_d = dev.buffer_from_slice(&desc);
        let (_, _, sa) = top_k_kernel(&dev, &buf_a, 1, n, 8).expect("launch");
        let (_, _, sd) = top_k_kernel(&dev, &buf_d, 1, n, 8).expect("launch");
        let (sa, sd) = (&sa[0], &sd[0]);
        assert!(
            sa.counters.effective_issues() < sd.counters.effective_issues(),
            "ascending {} vs descending {}",
            sa.counters.effective_issues(),
            sd.counters.effective_issues()
        );
    }

    #[test]
    fn wide_k_uses_chunked_writes() {
        let dev = Device::volta();
        let n = 200;
        let data: Vec<f32> = (0..n).map(|i| ((i * 37) % n) as f32).collect();
        let buf = dev.buffer_from_slice(&data);
        let k = 50; // > WARP_SIZE
        let (idx, val, _) = top_k_kernel(&dev, &buf, 1, n, k).expect("launch");
        let want = host_topk(&data, k);
        let idx = idx.to_vec();
        let val = val.to_vec();
        for s in 0..k {
            assert_eq!(idx[s], want[s].0, "slot {s}");
            assert_eq!(val[s], want[s].1, "slot {s}");
        }
    }

    /// Every counter of a launch, in declaration order.
    fn counter_row(c: &gpu_sim::Counters) -> [u64; 11] {
        [
            c.issues,
            c.divergence_extra,
            c.global_transactions,
            c.global_bytes,
            c.global_bytes_requested,
            c.global_bytes_unique,
            c.smem_accesses,
            c.bank_conflict_extra,
            c.atomics,
            c.atomic_conflict_extra,
            c.barriers,
        ]
    }

    /// Runs the kernel, checks every row against a host sort (ascending,
    /// ties to the lower column, sentinel padding past `cols`) and
    /// returns each launch's counters. A second run under a failing
    /// sanitizer must succeed with the same outputs and counters.
    fn checked_launches<T: Real>(data: &[T], rows: usize, cols: usize, k: usize) -> Vec<[u64; 11]> {
        let run = |dev: Device| {
            let buf = dev.buffer_from_slice(data);
            let (idx, val, launches) = top_k_kernel(&dev, &buf, rows, cols, k).expect("launch");
            let counters: Vec<_> = launches.iter().map(|s| counter_row(&s.counters)).collect();
            (idx.to_vec(), val.to_vec(), counters)
        };
        let (idx, val, counters) = run(Device::volta());
        let sanitized = run(Device::volta().with_sanitizer(gpu_sim::SanitizerMode::Fail));
        assert!(
            sanitized == (idx.clone(), val.clone(), counters.clone()),
            "k={k}"
        );
        for r in 0..rows {
            let want = host_topk(&data[r * cols..(r + 1) * cols], k);
            for s in 0..k {
                let (wi, wv) = want.get(s).copied().unwrap_or((u32::MAX, T::INFINITY));
                assert_eq!(idx[r * k + s], wi, "k={k} row {r} slot {s}");
                assert_eq!(val[r * k + s], wv, "k={k} row {r} slot {s}");
            }
        }
        counters
    }

    /// [`checked_launches`] of an unsplit selection: its one launch.
    fn checked_counters<T: Real>(data: &[T], rows: usize, cols: usize, k: usize) -> [u64; 11] {
        let launches = checked_launches(data, rows, cols, k);
        assert_eq!(launches.len(), 1, "an unsplit selection is one launch");
        launches[0]
    }

    #[test]
    fn outputs_and_counters_are_pinned() {
        let (rows, cols) = (3, 150);
        let wide: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 2654435761usize) % 9973) as f64 / 7.0)
            .collect();
        let narrow: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        // Three distinct values: almost every comparison is a tie.
        let tied: Vec<f64> = (0..rows * cols).map(|i| ((i * 7) % 3) as f64).collect();
        let short: Vec<f64> = (0..2 * 7).map(|i| ((i * 5) % 11) as f64).collect();
        let got = [
            checked_counters(&wide, rows, cols, 1),
            checked_counters(&wide, rows, cols, 10),
            checked_counters(&wide, rows, cols, 32),
            checked_counters(&wide, rows, cols, 100),
            checked_counters(&narrow, rows, cols, 10),
            checked_counters(&narrow, rows, cols, 32),
            checked_counters(&short, 2, 7, 10),
            checked_counters(&tied, rows, cols, 10),
            checked_counters(&tied, rows, cols, 100),
        ];
        // Rows follow `counter_row`'s field order.
        let want: [[u64; 11]; 9] = [
            [80, 5, 45, 5760, 3636, 4736, 18, 0, 0, 0, 0],
            [283, 12, 46, 5888, 3960, 4864, 116, 0, 0, 0, 0],
            [547, 10, 48, 6144, 4752, 5120, 248, 200, 0, 0, 0],
            [917, 3, 84, 10752, 7200, 8192, 424, 376, 0, 0, 0],
            [283, 12, 31, 3968, 2040, 2944, 116, 0, 0, 0, 0],
            [547, 10, 31, 3968, 2568, 2944, 248, 0, 0, 0, 0],
            [38, 2, 7, 896, 352, 896, 14, 0, 0, 0, 0],
            [147, 0, 46, 5888, 3960, 4864, 54, 0, 0, 0, 0],
            [867, 3, 84, 10752, 7200, 8192, 399, 351, 0, 0, 0],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn split_outputs_and_counters_are_pinned() {
        // 64 rows of 6000: twelve chunks of 512 columns, 768 blocks.
        let (rows, cols) = (64, 6000);
        assert_eq!(
            column_chunks(rows, cols, Device::volta().spec()),
            Some((12, 512))
        );
        let wide: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 2654435761usize) % 9973) as f64 / 7.0)
            .collect();
        let got = checked_launches(&wide, rows, cols, 10);
        // The chunk scan, then the merge; rows follow `counter_row`.
        let want: Vec<[u64; 11]> = vec![
            [
                114808, 7708, 26112, 3342336, 3164160, 3342336, 40366, 0, 0, 0, 0,
            ],
            [4989, 187, 1216, 155648, 99840, 124928, 1921, 0, 0, 0, 0],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn chunking_fills_the_device_only_on_small_batches() {
        let spec = Device::volta().spec().clone();
        // 2560 one-warp block slots: 64 rows want 40 chunks, 256 rows 10.
        assert_eq!(column_chunks(64, 5500, &spec), Some((11, 512)));
        assert_eq!(column_chunks(64, 30_000, &spec), Some((40, 768)));
        assert_eq!(column_chunks(256, 8490, &spec), Some((10, 864)));
        // One block per row already fills the device.
        assert_eq!(column_chunks(2560, 100_000, &spec), None);
        // Serving tiles: a 32-row batch over a 1.4k-row shard is 96
        // blocks split three ways, under the 256-block floor.
        assert_eq!(column_chunks(32, 1400, &spec), None);
        // Rows of at most 512 columns stay whole.
        assert_eq!(column_chunks(128, 1000, &spec), Some((2, 512)));
        assert_eq!(column_chunks(128, 512, &spec), None);
        assert_eq!(column_chunks(0, 0, &spec), None);
        for rows in [1, 7, 64, 100, 256, 1000] {
            for cols in [0, 1, 511, 513, 4097, 20_000] {
                if let Some((chunks, width)) = column_chunks(rows, cols, &spec) {
                    assert_eq!(width % WARP_SIZE, 0, "{rows} x {cols}");
                    assert!((chunks - 1) * width < cols && chunks * width >= cols);
                    assert!(chunks <= cols.div_ceil(CHUNK_COLS));
                    assert!(rows * chunks >= 256, "{rows} x {cols}");
                }
            }
        }
    }

    #[test]
    fn nan_rows_follow_the_canonical_order() {
        // A NaN taken while the list is short must not become the
        // threshold that later finite entries are inserted behind.
        let dev = Device::volta();
        let data = [3.0f32, f32::NAN, 2.0, 1.0];
        let buf = dev.buffer_from_slice(&data);
        let (idx, val, _) = top_k_kernel(&dev, &buf, 1, 4, 2).expect("launch");
        assert_eq!(idx.to_vec(), vec![3, 2]);
        assert_eq!(val.to_vec(), vec![1.0, 2.0]);
    }

    /// Heavy ties, `±INF` and NaN: cell values drawn from a few levels.
    fn level(code: u8) -> f32 {
        match code {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            c => f32::from(c % 5) * 0.5,
        }
    }

    /// Asserts `(idx, val)` hold `rows` rows of the canonical top k of
    /// `data`, bit for bit, sentinel-padded past `cols`.
    fn assert_canonical(
        data: &[f32],
        rows: usize,
        cols: usize,
        k: usize,
        idx: &[u32],
        val: &[f32],
        at: &str,
    ) {
        for r in 0..rows {
            let want = host_topk(&data[r * cols..(r + 1) * cols], k);
            for s in 0..k {
                let (wi, wv) = want.get(s).copied().unwrap_or((u32::MAX, f32::INFINITY));
                assert_eq!(idx[r * k + s], wi, "{at}: row {r} slot {s}");
                assert_eq!(
                    val[r * k + s].to_bits(),
                    wv.to_bits(),
                    "{at}: row {r} slot {s}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Device selection equals `sparse::top_k_smallest` for any
        /// chunking: the planned one (small tiles, so one launch) and
        /// a forced split into warp-multiple chunks as narrow as 32
        /// columns, where `k` can exceed a chunk's entries and the
        /// merge sees sentinel slots.
        #[test]
        fn selection_matches_host_under_any_chunking(
            rows in 1usize..5,
            cols in 0usize..300,
            k in prop_oneof![Just(1usize), Just(10), Just(32), Just(100)],
            width in prop_oneof![Just(32usize), Just(64), Just(96), Just(160)],
            codes in proptest::collection::vec(0u8..=255, 4 * 300),
        ) {
            let at = format!("{rows} x {cols}, k = {k}, width {width}");
            let data: Vec<f32> = codes[..rows * cols].iter().map(|&c| level(c)).collect();
            let dev = Device::volta().with_sanitizer(gpu_sim::SanitizerMode::Fail);
            let buf = dev.buffer_from_slice(&data);
            let (idx, val, launches) = top_k_kernel(&dev, &buf, rows, cols, k).expect("launch");
            prop_assert_eq!(launches.len(), 1);
            assert_canonical(&data, rows, cols, k, &idx.to_vec(), &val.to_vec(), &at);
            let chunks = cols.div_ceil(width).max(1);
            let (idx, val, launches) =
                select_split(&dev, &buf, rows, cols, k, (chunks, width)).expect("launch");
            prop_assert_eq!(launches.len(), 2);
            assert_canonical(&data, rows, cols, k, &idx.to_vec(), &val.to_vec(), &at);
        }
    }

    /// Planned splits on tiles big enough to reach 256 blocks.
    #[test]
    fn planned_splits_match_host() {
        let dev = Device::volta().with_sanitizer(gpu_sim::SanitizerMode::Fail);
        for (rows, cols, seed) in [(128usize, 1030usize, 1usize), (64, 1600, 2)] {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| level(((i * 2654435761 + seed * 97) % 251) as u8))
                .collect();
            let buf = dev.buffer_from_slice(&data);
            for k in [1, 10, 32, 100] {
                let (idx, val, launches) = top_k_kernel(&dev, &buf, rows, cols, k).expect("launch");
                assert_eq!(launches.len(), 2, "{rows} x {cols} must split");
                let at = format!("{rows} x {cols}, k = {k}");
                assert_canonical(&data, rows, cols, k, &idx.to_vec(), &val.to_vec(), &at);
            }
        }
    }
}
