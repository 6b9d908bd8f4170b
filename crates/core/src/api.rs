//! The semiring-construction API (the paper's Figure 3).
//!
//! Figure 3 shows the C++ entry points: dot-product-based semirings
//! invoke one function (a single SPMV pass over the nonzero
//! intersection), while NAMMs invoke a second (the commuted
//! symmetric-difference pass). [`SemiringRunner`] is the Rust analog:
//! construct a [`Semiring`] from monoids, then run one or both passes
//! over a pair of CSR matrices on the simulated device.
//!
//! # Example: a custom "count shared nonzero columns" semiring
//!
//! ```
//! use sparse_dist::api::SemiringRunner;
//! use sparse_dist::{Device, Monoid, Semiring};
//! use sparse_dist::sparse::CsrMatrix;
//!
//! // ⊗ = "both sides nonzero → 1", ⊕ = +  ⇒ |nz(a) ∩ nz(b)|.
//! let overlap = Semiring::annihilating(
//!     Monoid::new(|a: f32, b: f32| if a != 0.0 && b != 0.0 { 1.0 } else { 0.0 }, 1.0),
//!     Monoid::plus(),
//! );
//! let x = CsrMatrix::from_dense(2, 4, &[1.0, 0.0, 2.0, 3.0, 0.5, 0.0, 1.0, 0.0]);
//! let runner = SemiringRunner::new(Device::volta());
//! let out = runner.run(&x, &x, &overlap)?;
//! assert_eq!(out.inner_terms.get(0, 1), 2.0); // columns 0 and 2 shared
//! # Ok::<(), sparse_dist::KernelError>(())
//! ```

use gpu_sim::{Device, LaunchStats};
use kernels::hybrid::hybrid_inner_terms;
use kernels::{DeviceCsr, KernelError};
use semiring::Semiring;
use sparse::{CsrMatrix, DenseMatrix, Real};

/// Output of a raw semiring execution: the `m × n` inner-term matrix,
/// before any expansion function.
#[derive(Debug)]
pub struct SemiringOutput<T> {
    /// `C_ij = ⊕_k ⊗(A_ik, B_jk)` over the intersection (annihilating)
    /// or union (NAMM) of nonzero columns.
    pub inner_terms: DenseMatrix<T>,
    /// Per-pass launch statistics (one entry for annihilating semirings,
    /// two for NAMMs).
    pub launches: Vec<LaunchStats>,
}

impl<T> SemiringOutput<T> {
    /// Total simulated seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.launches.iter().map(LaunchStats::sim_seconds).sum()
    }
}

/// Executes user-constructed semirings through the hybrid kernel.
#[derive(Debug, Clone)]
pub struct SemiringRunner {
    device: Device,
}

impl SemiringRunner {
    /// Creates a runner on the given device with automatic shared-memory
    /// mode selection.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// Runs the semiring over all row pairs: one pass for annihilating
    /// semirings, the additional commuted pass for NAMMs — exactly the
    /// two Figure 3 entry points.
    ///
    /// # Errors
    ///
    /// Returns an error on dimensionality mismatch or when the kernel
    /// fails (see [`KernelError`]).
    pub fn run<T: Real>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        semiring: &Semiring<T>,
    ) -> Result<SemiringOutput<T>, KernelError> {
        if a.cols() != b.cols() {
            return Err(KernelError::ShapeMismatch {
                a_cols: a.cols(),
                b_cols: b.cols(),
            });
        }
        let a_dev = DeviceCsr::upload(&self.device, a);
        let b_dev = DeviceCsr::upload(&self.device, b);
        let (buf, launches) =
            hybrid_inner_terms(&self.device, a, b, &a_dev, &b_dev, semiring, None)?;
        Ok(SemiringOutput {
            inner_terms: DenseMatrix::from_vec(a.rows(), b.rows(), buf.to_vec()),
            launches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::{apply_semiring_union, Monoid};

    fn sample() -> CsrMatrix<f64> {
        CsrMatrix::from_dense(
            3,
            5,
            &[
                1.0, 0.0, 2.0, 0.0, 3.0, //
                0.0, 1.0, 2.0, 0.0, 0.0, //
                4.0, 0.0, 0.0, 1.0, 0.0,
            ],
        )
    }

    #[test]
    fn custom_namm_runs_two_passes_and_matches_reference() {
        // Squared-difference NAMM: ⊗ = (a-b)², ⊕ = + ⇒ squared Euclidean.
        let sq = Semiring::namm(
            Monoid::new(|a: f64, b: f64| (a - b) * (a - b), 0.0),
            Monoid::plus(),
        );
        let x = sample();
        let out = SemiringRunner::new(Device::volta())
            .run(&x, &x, &sq)
            .expect("ok");
        assert_eq!(out.launches.len(), 2);
        for i in 0..3 {
            for j in 0..3 {
                let ai: Vec<_> = x.row(i).collect();
                let bj: Vec<_> = x.row(j).collect();
                let want = apply_semiring_union(&ai, &bj, &sq);
                assert!((out.inner_terms.get(i, j) - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tropical_semiring_runs_single_pass() {
        let tropical = Semiring::<f64>::tropical();
        let x = sample();
        let out = SemiringRunner::new(Device::volta())
            .run(&x, &x, &tropical)
            .expect("ok");
        assert_eq!(out.launches.len(), 1);
        assert!(out.sim_seconds() > 0.0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = CsrMatrix::<f32>::zeros(1, 3);
        let b = CsrMatrix::<f32>::zeros(1, 4);
        let err = SemiringRunner::new(Device::volta()).run(&a, &b, &Semiring::dot_product());
        assert!(matches!(err, Err(KernelError::ShapeMismatch { .. })));
    }
}
