//! Shared harness utilities for the benchmark binaries that regenerate
//! the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation section:
//!
//! | Binary             | Paper artifact |
//! |--------------------|----------------|
//! | `table2`           | Table 2 — dataset statistics |
//! | `table3`           | Table 3 — baseline vs. RAFT-style runtimes |
//! | `figure1`          | Figure 1 — degree-distribution CDFs |
//! | `memory_footprint` | §4.3 — csrgemm vs. hybrid memory accounting |
//! | `speedup`          | §4.2 — GPU-vs-CPU speedup summary |
//!
//! Criterion microbenches (strategy and shared-memory ablations) live in
//! `benches/`.

#![deny(missing_docs)]

pub mod report;
pub mod runner;
pub mod suite;

pub use report::{validate_report, BenchReport, Json, MetricRow};
// Re-exported so sibling tooling (xtask's schema gates and diag.v1
// writer) reaches every schema's reader through this crate.
pub use gpu_sim::{json_escape, validate_chrome_trace};
pub use runner::{parse_args, Timed, DEVICES, JSON, K, SCALE, SEED};
pub use sparse_dist::cli::Flag;
pub use sparse_dist::{validate_metrics, MetricsSnapshot};
