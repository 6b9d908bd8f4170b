//! Shared harness utilities for the benchmark binaries that regenerate
//! the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation or one study of the system around it:
//!
//! | Binary              | Artifact |
//! |---------------------|----------|
//! | `table2`            | Table 2 — dataset statistics |
//! | `table3`            | Table 3 — baseline vs. RAFT-style runtimes |
//! | `figure1`           | Figure 1 — degree-distribution CDFs |
//! | `memory_footprint`  | §4.3 — csrgemm vs. hybrid memory accounting |
//! | `speedup`           | §4.2 — GPU-vs-CPU speedup summary |
//! | `counters_report`   | §3 — divergence, coalescing and smem counters per strategy |
//! | `arch_compare`      | §3.3.2 — Volta vs. Ampere shared-memory limits |
//! | `ann_recall`        | IVF approximate tier: recall vs. throughput |
//! | `resilience_report` | Injected fault classes vs. the retry/fallback cascade |
//! | `shard_scaling`     | Multi-device k-NN shard scaling |
//! | `serve_throughput`  | Serving: prepared-index cache and micro-batching |
//! | `serve_fleet`       | Serving under overload, plus a chaos drill |
//! | `serve_ingest`      | Serving with streaming ingest and compaction |
//! | `run_all`           | Every harness above, teed into `experiments_output/` |
//!
//! `perfbench` (its own package under `src/bin/perfbench`) is the
//! repository's end-to-end benchmark. §3's strategy and shared-memory
//! orderings are asserted by the `tests/design_space.rs` test.

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
