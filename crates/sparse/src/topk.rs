//! Top-k selection over a distance row, and the canonical candidate
//! ordering shared by every merge path.

use crate::Real;
use std::cmp::Ordering;

/// The canonical total order on `(index, distance)` candidates: ascending
/// by distance, NaNs after every finite value, and *all* ties — equal
/// values and NaN–NaN pairs alike — broken by lower index.
///
/// Every candidate merge (per-row top-k, slab merges, multi-device shard
/// merges, the serving layer's micro-batch path, the CPU brute force) must
/// sort with this comparator: it is a total order, so the k smallest
/// candidates of a row are a pure function of the row's contents,
/// independent of how the row was split into batches or shards. That is
/// the determinism contract of DESIGN.md §10 extended to selection.
pub fn cmp_dist_idx<T: Real>(a: &(usize, T), b: &(usize, T)) -> Ordering {
    match a.1.partial_cmp(&b.1) {
        Some(Ordering::Equal) => a.0.cmp(&b.0),
        Some(o) => o,
        // At least one NaN: NaNs sort last, NaN–NaN ties by index.
        None => match (a.1.is_nan(), b.1.is_nan()) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => a.0.cmp(&b.0),
        },
    }
}

/// Returns the indices and values of the `k` smallest entries of `row`,
/// sorted ascending by value (ties broken by lower index, which keeps
/// results deterministic across batch splits).
///
/// Uses a bounded selection buffer: `O(n log k)` comparisons instead of
/// the `O(n log n)` of a full sort, which matters when `n` is the full
/// index size and `k` is a handful of neighbors.
pub fn top_k_smallest<T: Real>(row: &[T], k: usize) -> Vec<(usize, T)> {
    let k = k.min(row.len());
    if k == 0 {
        return Vec::new();
    }
    // Selection buffer kept ascending under `cmp_dist_idx`; the last
    // element is the current cut-off. NaNs sort last (never selected
    // unless unavoidable), and NaN–NaN ties break by index — the old
    // comparator returned "not worse" for every NaN–NaN pair, which is
    // not a total order: sorts were free to emit NaNs in arbitrary
    // (observed: reverse) index order and the cut-off test kept whichever
    // NaN happened to sit last.
    let worse =
        |x: &(usize, T), y: &(usize, T)| -> bool { cmp_dist_idx(x, y) == Ordering::Greater };
    let mut heap: Vec<(usize, T)> = Vec::with_capacity(k + 1);
    for (i, &v) in row.iter().enumerate() {
        let cand = (i, v);
        if heap.len() < k {
            // Ordered insert: O(log k) search + O(k) shift, instead of
            // re-sorting the whole buffer on every fill-phase push.
            let pos = heap.partition_point(|e| !worse(e, &cand));
            heap.insert(pos, cand);
        } else if worse(heap.last().expect("non-empty"), &cand) {
            heap.pop();
            let pos = heap.partition_point(|e| !worse(e, &cand));
            heap.insert(pos, cand);
        }
    }
    heap
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selects_smallest_sorted() {
        let row = [5.0f32, 1.0, 4.0, 2.0, 3.0];
        let got = top_k_smallest(&row, 3);
        assert_eq!(got, vec![(1, 1.0), (3, 2.0), (4, 3.0)]);
    }

    #[test]
    fn k_larger_than_row_returns_all() {
        let row = [2.0f64, 1.0];
        let got = top_k_smallest(&row, 10);
        assert_eq!(got, vec![(1, 1.0), (0, 2.0)]);
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_smallest::<f32>(&[1.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_lower_index() {
        let row = [1.0f32, 1.0, 1.0, 0.5];
        let got = top_k_smallest(&row, 2);
        assert_eq!(got, vec![(3, 0.5), (0, 1.0)]);
    }

    #[test]
    fn nans_are_selected_last() {
        let row = [f32::NAN, 2.0, 1.0];
        let got = top_k_smallest(&row, 2);
        assert_eq!(got[0], (2, 1.0));
        assert_eq!(got[1], (1, 2.0));
    }

    #[test]
    fn nan_ties_break_by_lower_index() {
        // Regression: the pre-fix comparator treated every NaN–NaN pair
        // as "not worse" in both directions (not a total order), so runs
        // of NaNs came out in arbitrary order and selection kept the
        // wrong ones. Observed pre-fix on exactly this row: NaNs in
        // reverse index order.
        let row = [f64::NAN, f64::NAN, 1.0, 2.0, 6.0, f64::NAN, 5.0, f64::NAN];
        let got = top_k_smallest(&row, 7);
        let idx: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![2, 3, 6, 4, 0, 1, 5]);
    }

    #[test]
    fn cmp_dist_idx_is_a_total_order_over_nans() {
        let cands = [(0, f64::NAN), (1, 0.5), (2, f64::NAN), (3, 0.5)];
        for a in &cands {
            assert_eq!(cmp_dist_idx(a, a), std::cmp::Ordering::Equal);
            for b in &cands {
                assert_eq!(cmp_dist_idx(a, b), cmp_dist_idx(b, a).reverse());
            }
        }
        let mut sorted = cands.to_vec();
        sorted.sort_by(cmp_dist_idx);
        let idx: Vec<usize> = sorted.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![1, 3, 0, 2]);
    }

    /// Reference implementation: full sort under the canonical order.
    fn full_sort_reference(row: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut want: Vec<(usize, f64)> = row.iter().copied().enumerate().collect();
        want.sort_by(cmp_dist_idx);
        want.truncate(k.min(row.len()));
        want
    }

    proptest! {
        #[test]
        fn matches_full_sort(row in proptest::collection::vec(0u32..1000, 1..200), k in 1usize..20) {
            let row: Vec<f64> = row.into_iter().map(|v| v as f64 / 10.0).collect();
            let got = top_k_smallest(&row, k);
            let mut want: Vec<(usize, f64)> = row.iter().copied().enumerate().collect();
            want.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN").then(a.0.cmp(&b.0)));
            want.truncate(k.min(row.len()));
            prop_assert_eq!(got, want);
        }

        /// NaN-bearing rows (reachable via KL/JS divergence on valid
        /// inputs) must still select deterministically: smallest first,
        /// NaNs last, every tie — including NaN–NaN — by lower index.
        /// Fails on the pre-fix comparator (~25% of random cases).
        #[test]
        fn matches_full_sort_with_nans(
            cells in proptest::collection::vec((0u32..8, 0u32..10), 1..60),
            k in 1usize..30,
        ) {
            let row: Vec<f64> = cells
                .into_iter()
                .map(|(v, nan)| if nan < 3 { f64::NAN } else { v as f64 })
                .collect();
            let got = top_k_smallest(&row, k);
            let want = full_sort_reference(&row, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }
}
