//! The query-serving layer: prepared-index caching and micro-batched
//! request execution on top of the sparse k-NN primitives.
//!
//! The ROADMAP's north star is a system "serving heavy traffic from
//! millions of users", but the batch API re-validates, re-uploads, and
//! re-plans the index on every call — the paper's amortization story
//! (norms and device-resident CSR computed once, reused across the whole
//! pairwise grid) stopped at a single `run()`. This crate extends it
//! across requests:
//!
//! * [`fingerprint`] — content hash of a CSR dataset; the cache key.
//! * [`PreparedCache`] — LRU cache of [`neighbors::PreparedShards`]
//!   (device CSR/COO uploads, warmed norms, slab/device plan), evicted
//!   against a simulated device-memory budget
//!   ([`gpu_sim::DeviceSpec::mem_bytes`]).
//! * [`ServeEngine`] — a deterministic discrete-event loop that
//!   coalesces single-row requests into micro-batches (close on size or
//!   deadline), applies admission control, executes batches through the
//!   exact same core as `kneighbors_sharded`, and reports sim-time QPS
//!   and latency percentiles.
//!
//! Determinism contract (DESIGN §11): for every request id, the served
//! `(indices, distances)` are byte-identical to the corresponding row of
//! a one-shot [`neighbors::NearestNeighbors::kneighbors_sharded`] call
//! over the same pool — independent of batch sizes, arrival order,
//! host-thread count, cache evictions, or absorbed faults.
//!
//! Observability (DESIGN §13): every replay threads per-request spans
//! ([`RequestTraces`]) through the event loop and folds counters,
//! gauges, latency histograms, and SLO burn into a deterministic
//! [`MetricsRegistry`], exported as `metrics.v1` JSON or a
//! Prometheus-style text snapshot ([`MetricsSnapshot`]) and as a
//! chrome://tracing per-request flame view
//! ([`span::request_chrome_trace`]).
//!
//! Serving under overload (DESIGN §14): [`Workload`] generates
//! deterministic Zipf/diurnal/bursty traffic, [`AdmissionConfig`]
//! sheds or degrades load before the queue collapses, [`Fleet`]
//! autoscales [`neighbors::MultiDevice`] replicas on SLO error-budget
//! burn, and [`chaos_drill`] injects mid-traffic [`gpu_sim::FaultPlan`]
//! faults and asserts the fleet recovers with byte-identical answers.

#![deny(missing_docs)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod fleet;
pub mod load;
pub mod metrics;
pub mod segment;
pub mod slo;
pub mod span;
pub mod wal;

pub use admission::{AdmissionConfig, AdmissionDecision, Rejection, ShedReason, TokenBucket};
pub use cache::{CacheKey, CacheOutcome, CacheStats, PreparedCache};
pub use engine::{
    replay_rows, CompactionRecord, IndexMode, IngestReport, Request, Response, ServeConfig,
    ServeEngine, ServeReport, TimedRecord, WalCounts,
};
pub use fingerprint::{fingerprint, fingerprint_with_generation};
pub use fleet::{
    chaos_drill, ChaosPlan, DrillOutcome, Fleet, FleetConfig, FleetReport, ScaleEvent,
    WindowOutcome,
};
pub use load::{SplitMix64, Workload};
pub use metrics::{
    nearest_rank, percentile_sorted, validate_metrics, LogHistogram, MetricsRegistry,
    MetricsSnapshot,
};
pub use segment::{
    merge_arms, AppliedOp, CompactionJob, CompactionOutcome, MutableDataset, RankPlan,
};
pub use slo::{SloBudget, SloReport};
pub use span::{request_chrome_trace, RequestSpan, RequestTraces, SpanEvent};
pub use wal::{Manifest, Wal, WalError, WalOp, WalRecord};
