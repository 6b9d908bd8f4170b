//! Sparse and dense matrix substrate for the semiring distance reproduction.
//!
//! This crate provides the storage formats the paper's kernels operate on:
//!
//! * [`CsrMatrix`] — compressed sparse row, the input format the paper
//!   assumes callers use ("it is most often assumed that users will be
//!   calling code that invokes our primitive with matrices in the standard
//!   compressed sparse row (CSR) format").
//! * [`CooMatrix`] — coordinate format; the hybrid kernel of §3.3 walks the
//!   `B` operand through an explicit COO row-index array for load balance.
//! * [`CscMatrix`] — compressed sparse column; used by the cuSPARSE-like
//!   baseline to materialize the explicit transpose of `B` that
//!   `csrgemm()` requires.
//! * [`DenseMatrix`] — row-major dense output for pairwise distance
//!   matrices and reference computations.
//!
//! All formats are generic over a [`Real`] scalar (`f32` in the paper's
//! kernels, `f64` for high-precision references) and use `u32` column
//! indices, matching the 32-bit index types GPU kernels use in practice.
//!
//! # Example
//!
//! ```
//! use sparse::{CsrMatrix, CooMatrix};
//!
//! // 2x3 matrix [[1, 0, 2], [0, 3, 0]]
//! let csr = CsrMatrix::<f32>::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
//!     .expect("valid triplets");
//! assert_eq!(csr.nnz(), 3);
//! let coo = CooMatrix::from(&csr);
//! assert_eq!(coo.row_indices(), &[0, 0, 1]);
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod builder;
#[cfg(test)]
mod convert;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod norms;
pub mod real;
pub mod stats;
pub mod topk;

pub use batch::RowBatches;
pub use builder::CsrBuilder;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use io::{read_matrix_market, write_matrix_market, MmError};
pub use norms::{row_norms, NormKind, RowNorms};
pub use real::Real;
pub use stats::{degree_cdf, DegreeStats};
pub use topk::{cmp_dist_idx, top_k_smallest};

/// Column/row index type used by all sparse formats.
///
/// 32-bit indices match what GPU sparse kernels use in practice and keep
/// the memory-footprint accounting of §4.3 honest.
pub type Idx = u32;
