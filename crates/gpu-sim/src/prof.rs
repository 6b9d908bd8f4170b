//! `prof` — an opt-in Nsight-Compute/CUPTI analog for the simulator.
//!
//! Kernels open named NVTX-style ranges with [`crate::BlockCtx::range`]
//! and [`crate::WarpCtx::range`]; the profiler snapshots the block's
//! [`Counters`] at the boundaries and attributes every delta — issues,
//! divergence serialization, global/shared traffic, bank replays,
//! atomics, barriers — to the innermost active range. Nested ranges
//! aggregate upward: a parent's *inclusive* counters contain its
//! children, its *exclusive* counters do not, and the identity
//!
//! ```text
//! Σ exclusive + unattributed == launch total   (fieldwise)
//! ```
//!
//! holds for every launch, so a profile never double-counts and never
//! loses work. Each launch's [`LaunchProfile`] lands on
//! [`crate::LaunchStats`]`::profile` with a per-range breakdown, a
//! hot-spot `Display` report, and a chrome://tracing exporter
//! ([`chrome_trace`]) whose deterministic timestamps derive from the
//! roofline [`CostBreakdown`] — a multi-launch run opens directly in
//! Perfetto / `chrome://tracing`.
//!
//! Profiling off is free by construction: with the profiler disabled the
//! `range` combinators are pure passthroughs, and even when enabled the
//! profiler only ever *reads* counters. A proptest in `tests/profiler.rs`
//! pins [`Counters`] and [`CostBreakdown`] byte-identical with the
//! profiler off vs. on, mirroring the sanitizer's Off-vs-Warn test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::cost::CostBreakdown;
use crate::counters::Counters;
use crate::device::LaunchStats;
use crate::json::{chrome_trace_envelope, json_escape};

/// Upper bound on retained [`TraceSpan`]s per launch. Aggregated
/// [`RangeStats`] are always complete; only the per-instance timeline is
/// capped, with the overflow counted in [`LaunchProfile::spans_dropped`]
/// so truncation is never silent.
const MAX_SPANS: usize = 65_536;

/// Aggregated statistics for one named range path within one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeStats {
    /// `/`-joined nesting path, e.g. `coo_sweep/flush`.
    pub path: String,
    /// Number of times this range was entered (across blocks and warps).
    pub calls: u64,
    /// Counter deltas attributed to this range alone (children excluded).
    pub exclusive: Counters,
    /// Counter deltas including all nested child ranges.
    pub inclusive: Counters,
    /// Roofline share of the launch's simulated time this range accounts
    /// for: the larger of its issue share of `compute_seconds` and its
    /// byte share of `memory_seconds` (exclusive counters).
    pub est_seconds: f64,
}

/// One range instance on the timeline: a `[begin, end)` interval on the
/// owning block's issue clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// `/`-joined nesting path of the range.
    pub path: String,
    /// Block that executed the range.
    pub block: usize,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Block-local [`Counters::effective_issues`] when the range opened.
    pub begin: u64,
    /// Block-local [`Counters::effective_issues`] when the range closed.
    pub end: u64,
}

/// Per-launch profile: the payload of [`crate::LaunchStats`]`::profile`
/// when the profiler is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchProfile {
    /// Aggregated per-range statistics, sorted by path.
    pub ranges: Vec<RangeStats>,
    /// Individual range instances for timeline export (capped at an
    /// internal limit; see [`Self::spans_dropped`]).
    pub spans: Vec<TraceSpan>,
    /// Spans beyond the retention cap (aggregates above stay complete).
    pub spans_dropped: u64,
    /// Launch-total counters minus everything covered by a top-level
    /// range: work executed outside any `range(...)`.
    pub unattributed: Counters,
    /// The launch-total counters (same as `LaunchStats::counters`).
    pub total: Counters,
    /// The launch's roofline estimate (same as `LaunchStats::cost`).
    pub cost: CostBreakdown,
    /// The straggler block's effective issues — the issue-clock span the
    /// timeline scales onto `cost.total_seconds`.
    pub block_issue_ceiling: u64,
}

impl LaunchProfile {
    /// Ranges sorted hottest-first by exclusive effective issues
    /// (ties broken by path, so ordering is deterministic).
    pub fn by_effective_issues(&self) -> Vec<&RangeStats> {
        let mut v: Vec<&RangeStats> = self.ranges.iter().collect();
        v.sort_by(|a, b| {
            b.exclusive
                .effective_issues()
                .cmp(&a.exclusive.effective_issues())
                .then_with(|| a.path.cmp(&b.path))
        });
        v
    }

    /// Ranges sorted hottest-first by exclusive global bytes moved.
    pub fn by_global_bytes(&self) -> Vec<&RangeStats> {
        let mut v: Vec<&RangeStats> = self.ranges.iter().collect();
        v.sort_by(|a, b| {
            b.exclusive
                .global_bytes
                .cmp(&a.exclusive.global_bytes)
                .then_with(|| a.path.cmp(&b.path))
        });
        v
    }
}

impl fmt::Display for LaunchProfile {
    /// Hot-spot report: every range sorted by exclusive effective
    /// issues, the unattributed remainder, and the top movers of bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_eff = self.total.effective_issues().max(1) as f64;
        writeln!(
            f,
            "{} range(s), {} span(s){}:",
            self.ranges.len(),
            self.spans.len(),
            if self.spans_dropped > 0 {
                format!(" (+{} dropped)", self.spans_dropped)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "  {:<34} {:>8} {:>12} {:>7} {:>14} {:>11}",
            "range", "calls", "eff issues", "share", "global bytes", "est sec"
        )?;
        for r in self.by_effective_issues() {
            writeln!(
                f,
                "  {:<34} {:>8} {:>12} {:>6.1}% {:>14} {:>11.3e}",
                r.path,
                r.calls,
                r.exclusive.effective_issues(),
                r.exclusive.effective_issues() as f64 / total_eff * 100.0,
                r.exclusive.global_bytes,
                r.est_seconds,
            )?;
        }
        writeln!(
            f,
            "  {:<34} {:>8} {:>12} {:>6.1}% {:>14}",
            "(unattributed)",
            "-",
            self.unattributed.effective_issues(),
            self.unattributed.effective_issues() as f64 / total_eff * 100.0,
            self.unattributed.global_bytes,
        )?;
        let movers: Vec<String> = self
            .by_global_bytes()
            .into_iter()
            .take(3)
            .filter(|r| r.exclusive.global_bytes > 0)
            .map(|r| format!("{} ({} B)", r.path, r.exclusive.global_bytes))
            .collect();
        if movers.is_empty() {
            write!(f, "  top by bytes moved: (none)")
        } else {
            write!(f, "  top by bytes moved: {}", movers.join(", "))
        }
    }
}

#[derive(Debug, Default)]
struct RangeAcc {
    calls: u64,
    exclusive: Counters,
    inclusive: Counters,
}

impl RangeAcc {
    /// Counts one closed call of the range.
    fn add(&mut self, exclusive: &Counters, inclusive: &Counters) {
        self.calls += 1;
        self.exclusive.merge(exclusive);
        self.inclusive.merge(inclusive);
    }
}

#[derive(Debug, Default)]
pub(crate) struct ProfData {
    ranges: BTreeMap<String, RangeAcc>,
    spans: Vec<TraceSpan>,
    spans_dropped: u64,
    /// Sum of top-level inclusive deltas over all blocks — everything a
    /// range covered. `total − top_level` is the unattributed remainder.
    top_level: Counters,
}

/// Launch-wide collector behind the `Rc` that every block's
/// [`BlockProfiler`] shares, mirroring the sanitizer's
/// `LaunchSanitizer`/`BlockSanitizer` split.
#[derive(Debug, Default)]
pub struct LaunchProfiler {
    data: RefCell<ProfData>,
}

impl LaunchProfiler {
    /// Fresh collector for one launch.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, span: TraceSpan, exclusive: &Counters, inclusive: &Counters) {
        let mut d = self.data.borrow_mut();
        // Look the path up by `&str` first: only a range's first close
        // allocates its key.
        match d.ranges.get_mut(span.path.as_str()) {
            Some(acc) => acc.add(exclusive, inclusive),
            None => {
                let mut acc = RangeAcc::default();
                acc.add(exclusive, inclusive);
                d.ranges.insert(span.path.clone(), acc);
            }
        }
        if d.spans.len() < MAX_SPANS {
            d.spans.push(span);
        } else {
            d.spans_dropped += 1;
        }
    }

    /// Extracts this collector's raw data. The parallel executor gives
    /// every block its own `LaunchProfiler`, takes the data on the
    /// worker thread, and merges the pieces in block order with
    /// [`Self::absorb`] — reproducing the serial collector's contents
    /// exactly (range aggregates are additive; spans concatenate in the
    /// serial emission order, which *is* block order).
    pub(crate) fn take_data(&self) -> ProfData {
        self.data.take()
    }

    /// Merges one block's extracted data into this launch-wide
    /// collector, preserving the serial span cap: retained spans are the
    /// first [`MAX_SPANS`] in block order, the rest are counted in
    /// `spans_dropped` — the same set and count the serial path's
    /// launch-wide cap produces.
    pub(crate) fn absorb(&self, piece: ProfData) {
        let mut d = self.data.borrow_mut();
        for (path, acc) in piece.ranges {
            let slot = d.ranges.entry(path).or_default();
            slot.calls += acc.calls;
            slot.exclusive.merge(&acc.exclusive);
            slot.inclusive.merge(&acc.inclusive);
        }
        d.spans_dropped += piece.spans_dropped;
        for span in piece.spans {
            if d.spans.len() < MAX_SPANS {
                d.spans.push(span);
            } else {
                d.spans_dropped += 1;
            }
        }
        d.top_level.merge(&piece.top_level);
    }

    /// Folds the collected data into the launch's profile. Called once by
    /// `Device::try_launch` after the cost estimate exists.
    pub(crate) fn finish(
        &self,
        total: Counters,
        cost: CostBreakdown,
        block_issue_ceiling: u64,
    ) -> LaunchProfile {
        let d = self.data.take();
        let ranges = d
            .ranges
            .into_iter()
            .map(|(path, acc)| {
                let est = est_seconds(&acc.exclusive, &total, &cost);
                RangeStats {
                    path,
                    calls: acc.calls,
                    exclusive: acc.exclusive,
                    inclusive: acc.inclusive,
                    est_seconds: est,
                }
            })
            .collect();
        LaunchProfile {
            ranges,
            spans: d.spans,
            spans_dropped: d.spans_dropped,
            unattributed: total.delta_since(&d.top_level),
            total,
            cost,
            block_issue_ceiling,
        }
    }
}

/// Roofline share of one range: the larger of its issue share of the
/// launch's compute time and its byte share of the memory time — the
/// same `max(compute, memory)` shape as the launch-level estimate.
fn est_seconds(c: &Counters, total: &Counters, cost: &CostBreakdown) -> f64 {
    let issue_share = if total.effective_issues() == 0 {
        0.0
    } else {
        c.effective_issues() as f64 / total.effective_issues() as f64
    };
    let byte_share = if total.global_bytes == 0 {
        0.0
    } else {
        c.global_bytes as f64 / total.global_bytes as f64
    };
    (issue_share * cost.compute_seconds).max(byte_share * cost.memory_seconds)
}

#[derive(Debug)]
struct OpenRange {
    path: String,
    snapshot: Counters,
    /// Inclusive deltas of directly nested child ranges, subtracted from
    /// this range's own delta to form its exclusive counters.
    child_inclusive: Counters,
}

/// Per-block profiler handle threaded into [`crate::BlockCtx`] (and, by
/// reference, every [`crate::WarpCtx`]). Holds the open-range stack; all
/// mutation goes through interior mutability so `range` can hand the
/// kernel closure the same `&mut` context it already had.
#[derive(Debug)]
pub struct BlockProfiler {
    launch: Rc<LaunchProfiler>,
    block_id: usize,
    stack: RefCell<Vec<OpenRange>>,
}

impl BlockProfiler {
    pub(crate) fn new(launch: Rc<LaunchProfiler>, block_id: usize) -> Self {
        Self {
            launch,
            block_id,
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Opens a nested range named `name`, snapshotting the block
    /// counters. Paired with [`Self::close`] by the scoped `range`
    /// combinators, so ranges can never leak open.
    pub(crate) fn open(&self, name: &str, current: &Counters) {
        let mut stack = self.stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{}", parent.path, name),
            None => name.to_string(),
        };
        stack.push(OpenRange {
            path,
            snapshot: *current,
            child_inclusive: Counters::new(),
        });
    }

    /// Closes the innermost range: the counter delta since its snapshot
    /// is its inclusive cost, minus nested children its exclusive cost.
    pub(crate) fn close(&self, current: &Counters) {
        let mut stack = self.stack.borrow_mut();
        let open = stack.pop().expect("profiler range close without open");
        let inclusive = current.delta_since(&open.snapshot);
        let exclusive = inclusive.delta_since(&open.child_inclusive);
        let depth = stack.len();
        if let Some(parent) = stack.last_mut() {
            parent.child_inclusive.merge(&inclusive);
        } else {
            self.launch.data.borrow_mut().top_level.merge(&inclusive);
        }
        drop(stack);
        self.launch.record(
            TraceSpan {
                path: open.path,
                block: self.block_id,
                depth,
                begin: open.snapshot.effective_issues(),
                end: current.effective_issues(),
            },
            &exclusive,
            &inclusive,
        );
    }
}

/// Serializes a launch sequence's profiles as chrome://tracing
/// `trace_event` JSON, loadable in Perfetto.
///
/// Layout: one *process* per launch (pid = launch index, named after the
/// kernel), one *thread* per block (tid = block id). Timestamps are
/// deterministic sim time: each block's issue clock is scaled so the
/// straggler block spans the launch's roofline `total_seconds`, and
/// launches are laid end to end in submission order. Launches without a
/// profile (profiler off) are skipped.
pub fn chrome_trace(launches: &[LaunchStats]) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut offset_us = 0.0f64;
    for (li, stats) in launches.iter().enumerate() {
        let Some(p) = &stats.profile else {
            continue;
        };
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{li},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&stats.name)
        ));
        let scale_us = p.cost.total_seconds * 1e6 / p.block_issue_ceiling.max(1) as f64;
        for s in &p.spans {
            let ts = offset_us + s.begin as f64 * scale_us;
            let dur = s.end.saturating_sub(s.begin) as f64 * scale_us;
            let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"range\",\"ph\":\"X\",\"ts\":{ts:.4},\
                 \"dur\":{dur:.4},\"pid\":{li},\"tid\":{},\
                 \"args\":{{\"path\":\"{}\",\"depth\":{}}}}}",
                json_escape(leaf),
                s.block,
                json_escape(&s.path),
                s.depth
            ));
        }
        offset_us += p.cost.total_seconds * 1e6;
    }
    chrome_trace_envelope(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, LaunchConfig};
    use crate::warp::lanes_from_fn;

    fn profiled_device() -> Device {
        Device::volta().with_profiler(true)
    }

    #[test]
    fn ranges_attribute_counter_deltas() {
        let dev = profiled_device();
        let buf = dev.buffer_from_slice(&[1.0f32; 64]);
        let stats = dev.launch("attr", LaunchConfig::new(2, 32, 0), |block| {
            block.run_warps(|w| {
                w.range("load", |w| {
                    let idx = lanes_from_fn(Some);
                    let _ = w.global_gather(&buf, &idx);
                });
                w.range("math", |w| w.issue(10));
            });
        });
        let p = stats.profile.as_ref().expect("profiler on");
        assert_eq!(p.ranges.len(), 2);
        let load = p.ranges.iter().find(|r| r.path == "load").unwrap();
        let math = p.ranges.iter().find(|r| r.path == "math").unwrap();
        assert_eq!(load.calls, 2); // one per block
        assert_eq!(load.exclusive.issues, 2);
        assert_eq!(load.exclusive.global_transactions, 2);
        assert_eq!(math.exclusive.issues, 20);
        assert_eq!(math.exclusive.global_transactions, 0);
        assert_eq!(p.unattributed.issues, 0);
        assert_eq!(p.total, stats.counters);
    }

    #[test]
    fn nested_ranges_aggregate_upward() {
        let dev = profiled_device();
        let stats = dev.launch("nest", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| {
                w.range("outer", |w| {
                    w.issue(3);
                    w.range("inner", |w| w.issue(7));
                });
            });
        });
        let p = stats.profile.as_ref().unwrap();
        let outer = p.ranges.iter().find(|r| r.path == "outer").unwrap();
        let inner = p.ranges.iter().find(|r| r.path == "outer/inner").unwrap();
        assert_eq!(inner.exclusive.issues, 7);
        assert_eq!(inner.inclusive.issues, 7);
        assert_eq!(outer.exclusive.issues, 3);
        assert_eq!(outer.inclusive.issues, 10);
        // Exclusive sums + unattributed cover the launch exactly.
        let sum: u64 = p.ranges.iter().map(|r| r.exclusive.issues).sum();
        assert_eq!(sum + p.unattributed.issues, stats.counters.issues);
        // The inner span nests inside the outer span on the issue clock.
        let os = p.spans.iter().find(|s| s.path == "outer").unwrap();
        let is_ = p.spans.iter().find(|s| s.path == "outer/inner").unwrap();
        assert!(os.begin <= is_.begin && is_.end <= os.end);
        assert_eq!(os.depth, 0);
        assert_eq!(is_.depth, 1);
    }

    #[test]
    fn work_outside_ranges_is_unattributed() {
        let dev = profiled_device();
        let stats = dev.launch("out", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| {
                w.issue(5); // no range
                w.range("covered", |w| w.issue(2));
            });
            block.sync(); // no range
        });
        let p = stats.profile.as_ref().unwrap();
        assert_eq!(p.unattributed.issues, 6); // 5 + 1 sync issue (1 warp)
        assert_eq!(p.unattributed.barriers, 1);
    }

    #[test]
    fn block_level_ranges_cover_macro_ops() {
        let dev = profiled_device();
        let stats = dev.launch("blk", LaunchConfig::new(1, 64, 1024), |block| {
            let arr = block.alloc_shared::<f32>(128);
            block.range("fill", |block| block.fill_shared(&arr, 1.0));
            block.range("sync", |block| block.sync());
        });
        let p = stats.profile.as_ref().unwrap();
        let fill = p.ranges.iter().find(|r| r.path == "fill").unwrap();
        assert!(fill.exclusive.smem_accesses > 0);
        let sync = p.ranges.iter().find(|r| r.path == "sync").unwrap();
        assert_eq!(sync.exclusive.barriers, 1);
        assert_eq!(p.unattributed.issues, 0);
    }

    #[test]
    fn profiler_off_yields_no_profile() {
        let dev = Device::volta();
        let stats = dev.launch("off", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| w.range("r", |w| w.issue(1)));
        });
        assert!(stats.profile.is_none());
        assert_eq!(stats.counters.issues, 1);
    }

    #[test]
    fn per_launch_override_beats_device_default() {
        let dev = Device::volta();
        let cfg = LaunchConfig::new(1, 32, 0).with_profiler(true);
        let stats = dev.launch("ovr", cfg, |block| {
            block.run_warps(|w| w.range("r", |w| w.issue(1)));
        });
        assert!(stats.profile.is_some());
        let dev2 = profiled_device();
        let cfg2 = LaunchConfig::new(1, 32, 0).with_profiler(false);
        let stats2 = dev2.launch("ovr2", cfg2, |block| {
            block.run_warps(|w| w.issue(1));
        });
        assert!(stats2.profile.is_none());
    }

    #[test]
    fn est_seconds_shares_the_roofline() {
        let dev = profiled_device();
        let stats = dev.launch("est", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| {
                w.range("all", |w| w.issue(100));
            });
        });
        let p = stats.profile.as_ref().unwrap();
        let all = p.ranges.iter().find(|r| r.path == "all").unwrap();
        // The only range owns every issue → its share is the whole
        // compute side of the roofline.
        assert!((all.est_seconds - p.cost.compute_seconds).abs() < 1e-18);
    }

    #[test]
    fn display_reports_hot_spots() {
        let dev = profiled_device();
        let buf = dev.buffer_from_slice(&[0u32; 256]);
        let stats = dev.launch("disp", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| {
                w.range("hot", |w| w.issue(1000));
                w.range("mover", |w| {
                    let idx = lanes_from_fn(Some);
                    let _ = w.global_gather(&buf, &idx);
                });
            });
        });
        let p = stats.profile.as_ref().unwrap();
        let s = p.to_string();
        assert!(s.contains("hot"), "{s}");
        assert!(s.contains("(unattributed)"), "{s}");
        assert!(s.contains("top by bytes moved: mover"), "{s}");
        // Sorted hottest-first.
        assert!(s.find("hot").unwrap() < s.find("mover").unwrap(), "{s}");
    }

    #[test]
    fn chrome_trace_emits_events_per_launch() {
        let dev = profiled_device();
        let buf = dev.buffer_from_slice(&[1.0f32; 64]);
        let mk = |name: &str| {
            dev.launch(name, LaunchConfig::new(2, 32, 0), |block| {
                block.run_warps(|w| {
                    w.range("phase_a", |w| {
                        let idx = lanes_from_fn(Some);
                        let _ = w.global_gather(&buf, &idx);
                    });
                    w.range("phase_b", |w| w.issue(5));
                });
            })
        };
        let launches = vec![mk("first_kernel"), mk("second_kernel")];
        let json = chrome_trace(&launches);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"first_kernel\""));
        assert!(json.contains("\"name\":\"second_kernel\""));
        assert!(json.contains("\"name\":\"phase_a\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1"));
        // Spans from both blocks appear as distinct threads.
        assert!(json.contains("\"tid\":0") && json.contains("\"tid\":1"));
    }

    #[test]
    fn chrome_trace_skips_unprofiled_launches() {
        let dev = Device::volta();
        let stats = dev.launch("plain", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| w.issue(1));
        });
        let json = chrome_trace(&[stats]);
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
