//! Baseline implementations the paper compares against (§4).
//!
//! * [`cusparse`] — a faithful-in-structure `csrgemm()`-style SpGEMM:
//!   explicit transposition of `B` (a full copy), a hash-accumulator
//!   multiply producing a *sparse* CSR output, an internal temporary
//!   workspace, and a densification pass — the memory behaviour §4.3
//!   dissects. Combined with host-side norms and expansion functions it
//!   provides the paper's baseline for the expanded distance family.
//! * [`cpu`] — a multithreaded exact brute-force pairwise/k-NN engine in
//!   the spirit of scikit-learn's `NearestNeighbors(algorithm="brute")`,
//!   the CPU baseline behind the paper's 28.78×/29.17× speedup claims.

#![deny(missing_docs)]

pub mod cpu;
pub mod cusparse;

pub use cpu::CpuBruteForce;
pub use cusparse::{csrgemm_pairwise, CsrGemmReport};
