//! Multithreaded CPU brute-force baseline.
//!
//! The paper's CPU comparator is scikit-learn's brute-force
//! `NearestNeighbors` "configured to use all the available CPU cores"
//! (§4.2). This module is its Rust analog: exact pairwise distances over
//! sparse rows, with query rows parallelized across std scoped threads. The per-pair arithmetic reuses the same semiring
//! pipeline as the reference oracle, so the CPU baseline, the GPU
//! kernels, and the dense formulas agree by construction.

use semiring::reference::sparse_distance;
use semiring::{Distance, DistanceParams};
use sparse::{CsrMatrix, DenseMatrix, Idx, Real};

/// Exact brute-force pairwise/k-NN engine.
#[derive(Debug, Clone)]
pub struct CpuBruteForce {
    threads: usize,
}

impl Default for CpuBruteForce {
    fn default() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl CpuBruteForce {
    /// Creates an engine using `threads` worker threads (at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Computes the dense `m × n` pairwise distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if the operands' dimensionalities differ.
    pub fn pairwise<T: Real>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        distance: Distance,
        params: &DistanceParams,
    ) -> DenseMatrix<T> {
        assert_eq!(a.cols(), b.cols(), "operands must share dimensionality");
        let (m, n, k) = (a.rows(), b.rows(), a.cols());
        let mut out = vec![T::ZERO; m * n];

        // Pre-gather B rows once; every thread reads them.
        let b_rows: Vec<Vec<(Idx, T)>> = (0..n).map(|j| b.row(j).collect()).collect();

        let chunk = m.div_ceil(self.threads).max(1);
        std::thread::scope(|scope| {
            for (t, slab) in out.chunks_mut(chunk * n).enumerate() {
                let b_rows = &b_rows;
                let row0 = t * chunk;
                scope.spawn(move || {
                    for (r, dst) in slab.chunks_mut(n).enumerate() {
                        let i = row0 + r;
                        let ai: Vec<(Idx, T)> = a.row(i).collect();
                        for (j, cell) in dst.iter_mut().enumerate() {
                            *cell = sparse_distance(&ai, &b_rows[j], k, distance, params);
                        }
                    }
                });
            }
        });
        DenseMatrix::from_vec(m, n, out)
    }

    /// Brute-force k-nearest-neighbors query: for each row of `a`,
    /// returns the `k` index-matrix rows with the smallest distance, as
    /// `(index, distance)` sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the operands' dimensionalities differ.
    pub fn knn<T: Real>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        k_neighbors: usize,
        distance: Distance,
        params: &DistanceParams,
    ) -> Vec<Vec<(usize, T)>> {
        let d = self.pairwise(a, b, distance, params);
        (0..a.rows())
            .map(|i| {
                let mut row: Vec<(usize, T)> = d.row(i).iter().copied().enumerate().collect();
                row.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal));
                row.truncate(k_neighbors);
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::reference::dense_pairwise;

    fn sample() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::from_dense(
            5,
            6,
            &[
                0.4, 0.0, 0.2, 0.0, 0.1, 0.0, //
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                0.1, 0.2, 0.0, 0.3, 0.0, 0.4, //
                1.0, 1.0, 1.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 1.0, 1.0, 0.5,
            ],
        );
        let b = a.slice_rows(1..5);
        (a, b)
    }

    #[test]
    fn multithreaded_matches_dense_reference() {
        let (a, b) = sample();
        let params = DistanceParams { minkowski_p: 2.5 };
        for threads in [1, 2, 7] {
            let engine = CpuBruteForce::new(threads);
            for d in Distance::ALL {
                let got = engine.pairwise(&a, &b, d, &params);
                let want = dense_pairwise(&a, &b, d, &params);
                let diff = got.max_abs_diff(&want);
                assert!(diff < 1e-7, "{d} with {threads} threads: diff {diff}");
            }
        }
    }

    #[test]
    fn knn_returns_sorted_nearest() {
        let (a, b) = sample();
        let engine = CpuBruteForce::new(2);
        let res = engine.knn(&a, &b, 2, Distance::Euclidean, &DistanceParams::default());
        assert_eq!(res.len(), 5);
        for neighbors in &res {
            assert_eq!(neighbors.len(), 2);
            assert!(neighbors[0].1 <= neighbors[1].1);
        }
        // Row 2 of a equals row 1 of b → self-match at distance 0.
        assert_eq!(res[2][0].0, 1);
        assert!(res[2][0].1.abs() < 1e-12);
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        let engine = CpuBruteForce::new(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (a, b) = sample();
        let engine = CpuBruteForce::new(64);
        let got = engine.pairwise(&a, &b, Distance::Cosine, &DistanceParams::default());
        let want = dense_pairwise(&a, &b, Distance::Cosine, &DistanceParams::default());
        assert!(got.max_abs_diff(&want) < 1e-9);
    }
}
