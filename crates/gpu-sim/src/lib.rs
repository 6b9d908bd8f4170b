//! A functional SIMT GPU simulator with a first-order cost model.
//!
//! This crate is the reproduction's substitute for the CUDA hardware the
//! paper evaluates on (DESIGN.md "Substitutions"). Kernels are written
//! warp-synchronously — every operation acts on 32 lanes under an
//! explicit activity mask — and every operation charges hardware event
//! [`Counters`]: instruction issues, divergence serialization, coalesced
//! global-memory transactions, shared-memory bank conflicts, and atomic
//! contention. A roofline [`cost`] model plus the [`spec::DeviceSpec`]
//! occupancy calculation converts counters into simulated time, making
//! the paper's §3 design arguments (coalescing, divergence,
//! shared-memory-bounded occupancy) measurable claims.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Device, LaunchConfig, lanes_from_fn};
//!
//! let dev = Device::volta();
//! let xs = dev.buffer_from_slice(&[2.0f32; 1024]);
//! let out = dev.buffer::<f32>(1024);
//! let stats = dev.launch("scale", LaunchConfig::new(8, 128, 0), |block| {
//!     block.run_warps(|w| {
//!         let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
//!         let v = w.global_gather(&xs, &idx);
//!         w.global_scatter(&out, &idx, &lanes_from_fn(|l| v[l] * 3.0));
//!     });
//! });
//! assert_eq!(out.host_get(0), 6.0);
//! // Unit-stride f32 accesses coalesce perfectly: 1 transaction per warp
//! // per access.
//! assert_eq!(stats.counters.coalescing_overhead(), 1.0);
//! ```

#![deny(missing_docs)]
// `for l in 0..WARP_SIZE` is the crate-wide SIMT idiom: lane loops
// usually walk several `Lanes` arrays in lockstep, and the few that
// happen to index only one read better matching the rest.
#![allow(clippy::needless_range_loop)]

pub mod collections;
pub mod cost;
pub mod counters;
pub mod device;
pub mod fault;
pub mod global;
pub mod json;
pub mod murmur;
pub mod prims;
pub mod prof;
pub mod sanitizer;
pub mod shared;
pub mod spec;
pub mod warp;

pub use collections::{SmemBloomFilter, SmemHashTable};
pub use cost::CostBreakdown;
pub use counters::Counters;
pub use device::{BlockCtx, Device, LaunchConfig, LaunchStats, MAX_HOST_THREADS};
pub use fault::FaultPlan;
pub use global::GlobalBuffer;
pub use json::{chrome_trace_envelope, json_escape, json_number, validate_chrome_trace, Json};
pub use prims::{bitonic_sort_by_key, warp_binary_search};
pub use prof::{chrome_trace, LaunchProfile, RangeStats, TraceSpan};
pub use sanitizer::{CheckerKind, MemSpace, SanitizerMode, SanitizerReport, SimError};
pub use shared::{SharedArray, SharedMem};
pub use spec::{Arch, DeviceSpec, Occupancy};
pub use warp::{lanes_from_fn, Lanes, Segments, WarpCtx, WARP_SIZE};
