//! The paper's sparse pairwise-distance kernel strategies, implemented on
//! the `gpu-sim` SIMT simulator.
//!
//! Three execution strategies are provided, mirroring §3 of the paper:
//!
//! * [`Strategy::ExpandSortContract`] (§3.2.1, Alg 1) — per-pair blocks
//!   concatenate both rows in shared memory, bitonic-sort by column, and
//!   contract duplicates. Sort-dominated; shared-memory-bounded.
//! * [`Strategy::NaiveCsr`] (§3.2.2, Alg 2) — one thread per `(i, j)`
//!   output cell runs a two-pointer merge over the sorted rows straight
//!   out of global memory. Divergent and uncoalesced by construction.
//! * [`Strategy::HybridCooSpmv`] (§3.3, Alg 3) — the paper's
//!   contribution: rows of `A` cached in shared memory (dense, hash
//!   table, or bloom filter form, [`SmemMode`]), `B` streamed through a
//!   COO row index for load balance, warp-level segmented reduction, and
//!   a second commuted pass for NAMM distances.
//!
//! The top-level entry point is [`pairwise_distances`], which runs the
//! semiring passes, the row-norm kernel, and the expansion /
//! finalization kernel, and returns the distances together with the
//! launch statistics and simulated time.
//!
//! # Example
//!
//! ```
//! use gpu_sim::Device;
//! use kernels::{pairwise_distances, PairwiseOptions};
//! use semiring::{Distance, DistanceParams};
//! use sparse::CsrMatrix;
//!
//! let a = CsrMatrix::<f32>::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
//! let dev = Device::volta();
//! let out = pairwise_distances(
//!     &dev,
//!     &a,
//!     &a,
//!     Distance::Manhattan,
//!     &DistanceParams::default(),
//!     &PairwiseOptions::default(),
//! )?;
//! assert_eq!(out.distances.get(0, 0), 0.0);
//! assert_eq!(out.distances.get(0, 1), 6.0);
//! # Ok::<(), kernels::KernelError>(())
//! ```

#![deny(missing_docs)]
// `!(v < threshold)` is the NaN-correct admission guard the selection
// kernels rely on; rewriting via partial_cmp would change semantics.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Kernel entry points mirror CUDA launch signatures: one parameter per
// device operand, not a bundled struct.
#![allow(clippy::too_many_arguments)]
// Branch arms that produce the same value are kept separate where each
// arm documents a distinct semiring case (annihilator vs. miss, etc.).
#![allow(clippy::if_same_then_else)]

pub mod device_fmt;
pub mod error;
pub mod esc;
pub mod expansion;
pub mod hybrid;
pub mod naive;
pub mod naive_shared;
pub mod norms;
pub mod resilience;
pub mod select;
pub mod strategy;

pub use device_fmt::{DeviceCoo, DeviceCsr};
pub use error::KernelError;
pub use resilience::{retry_transient, FallbackCascade, ResiliencePolicy, ResilienceReport};
pub use select::top_k_kernel;
pub use strategy::{
    pairwise_distances, pairwise_distances_device, pairwise_distances_prepared, DevicePairwise,
    MemoryFootprint, PairwiseOptions, PairwiseResult, PreparedIndex, SmemMode, Strategy,
};
