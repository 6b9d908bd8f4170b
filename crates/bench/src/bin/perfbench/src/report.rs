//! The metric catalogue and the run's output: one bench.v1 row, a
//! human-readable listing, and the one-line JSON result.
//!
//! The catalogue below is the single list of every metric the benchmark
//! reports. `BENCHMARK.json` at the repository root must list the same
//! names, units and directions; the self-test enforces that.

use bench::report::{BenchReport, MetricRow};
use gpu_sim::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of one metric.
pub type Spec = (&'static str, &'static str, &'static str);

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: [Spec; 6] = [
    ("setup_s", "s", "lower"),
    ("host_norm_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_s", "sim_s", "lower"),
    ("sim_p50_s", "sim_s", "lower"),
    ("sim_p99_s", "sim_s", "lower"),
];

/// The two `knn_graph` legs; per-leg metrics are named `<layer>.<leg>.*`.
pub const LEGS: [&str; 2] = ["cos_dense", "man_hash"];

/// Per-leg `gpusim` counters, summed over the leg's `LaunchStats`.
pub const GPUSIM_COUNTS: [&str; 11] = [
    "launches",
    "issues",
    "effective_issues",
    "divergence_extra",
    "bank_conflict_extra",
    "atomic_conflict_extra",
    "global_bytes",
    "global_bytes_requested",
    "global_bytes_unique",
    "smem_accesses",
    "barriers",
];

/// Exclusive profiler ranges of the hybrid kernel (`kernels/src/hybrid`).
pub const HYBRID_RANGES: [&str; 7] = [
    "row_cache",
    "insert",
    "coo_sweep",
    "lookup",
    "resolve",
    "product",
    "flush",
];

/// Per-layer metrics that do not repeat per leg.
const LAYER_FIXED: [Spec; 53] = [
    ("datasets.generate_host_s", "s", "lower"),
    ("datasets.nnz", "count", "lower"),
    ("kernels.pairwise_host_s", "s", "lower"),
    ("kernels.select_host_s", "s", "lower"),
    ("neighbors.prepare_host_s", "s", "lower"),
    ("neighbors.merge_host_s", "s", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.served", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_occupancy", "ratio", "higher"),
    ("serve.queue_wait_p50_s", "sim_s", "lower"),
    ("serve.queue_wait_p99_s", "sim_s", "lower"),
    ("serve.exec_p50_s", "sim_s", "lower"),
    ("serve.exec_p99_s", "sim_s", "lower"),
    ("serve.device_util", "ratio", "lower"),
    ("serve.shard_launches", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.slo_miss_frac", "ratio", "lower"),
    ("serve.qps_at_slo", "req/s", "higher"),
    ("serve.low.p99_s", "sim_s", "lower"),
    ("serve.low.miss_frac", "ratio", "lower"),
    ("serve.ref.p99_s", "sim_s", "lower"),
    ("serve.ref.miss_frac", "ratio", "lower"),
    ("serve.high.p99_s", "sim_s", "lower"),
    ("serve.high.miss_frac", "ratio", "lower"),
    ("serve.engine_self_frac", "ratio", "lower"),
    ("admission.shed_queue_full", "count", "lower"),
    ("admission.shed_rate_limit", "count", "lower"),
    ("admission.shed_watermark", "count", "lower"),
    ("admission.degraded_requests", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.resident_bytes", "B", "lower"),
    ("wal.appended", "count", "higher"),
    ("wal.applied", "count", "higher"),
    ("wal.rejected", "count", "lower"),
    ("wal.fresh_scans", "count", "lower"),
    ("wal.fresh_rows", "count", "lower"),
    ("wal.tombstones", "count", "lower"),
    ("compact.started", "count", "lower"),
    ("compact.completed", "count", "lower"),
    ("compact.sim_s", "sim_s", "lower"),
    ("compact.lag_s", "sim_s", "lower"),
    ("segment.apply_host_frac", "ratio", "lower"),
    ("segment.rebuild_host_frac", "ratio", "lower"),
    ("bench.host_cpu_s", "s", "lower"),
    ("bench.probe_s", "s", "lower"),
    ("bench.host_us_per_op", "us", "lower"),
    ("bench.host_norm_s_spread", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.trace_spans", "count", "lower"),
];

/// Per-leg metrics other than the counters and ranges, as
/// `(layer, metric, unit, better)`.
const LEG_OTHER: [(&str, &str, &str, &str); 8] = [
    ("gpusim", "compute_s", "sim_s", "lower"),
    ("gpusim", "memory_s", "sim_s", "lower"),
    ("gpusim", "issues_per_host_s", "1/s", "higher"),
    ("kernels", "pairwise_sim_s", "sim_s", "lower"),
    ("kernels", "norms_sim_s", "sim_s", "lower"),
    ("kernels", "select_sim_s", "sim_s", "lower"),
    ("neighbors", "tiles", "count", "lower"),
    ("neighbors", "peak_output_bytes", "B", "lower"),
];

/// Every per-layer metric: the per-leg groups (`<layer>.<leg>.<metric>`),
/// then the fixed ones.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for leg in LEGS {
        for c in GPUSIM_COUNTS {
            let unit = if c.contains("bytes") { "B" } else { "count" };
            out.push((format!("gpusim.{leg}.{c}"), unit, "lower"));
        }
        for (layer, metric, unit, better) in LEG_OTHER {
            out.push((format!("{layer}.{leg}.{metric}"), unit, better));
        }
        for r in HYBRID_RANGES {
            out.push((format!("kernels.{leg}.range.{r}.issues"), "count", "lower"));
        }
    }
    out.extend(LAYER_FIXED.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out
}

/// Metric values of one run, by name. Per-layer metrics a workload does
/// not exercise stay at zero.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Input fingerprints and sizes, emitted as bench.v1 labels.
    pub labels: Vec<(String, String)>,
    /// The chrome trace of the traced pass, when one ran.
    pub trace: Option<String>,
}

impl Outcome {
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics this run reports: end-to-end ones untraced,
    /// per-layer ones traced.
    pub fn reported(&self) -> Vec<(String, f64, &'static str)> {
        if self.trace.is_some() {
            per_layer()
                .into_iter()
                .map(|(n, u, _)| {
                    let v = self.metrics.get(&n);
                    (n, v, u)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, _)| (n.to_string(), self.metrics.get(n), u))
                .collect()
        }
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in self.reported().into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                json_escape(&name),
                json_escape(unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// The run as one bench.v1 row: labels identify the workload and its
    /// inputs, values carry every metric computed.
    pub fn bench_report(&self) -> BenchReport {
        let mut row = MetricRow::new()
            .label("workload", self.workload)
            .label("seed", &self.seed.to_string())
            .label("reps", &self.reps.to_string());
        for (k, v) in &self.labels {
            row = row.label(k, v);
        }
        row = row
            .value("attempted", self.attempted as f64)
            .value("failed", self.failed as f64)
            .value("error_frac", self.error_frac());
        for (name, v) in &self.metrics.values {
            row = row.value(name, *v);
        }
        let mut report = BenchReport::new("perfbench");
        report.push(row);
        report
    }

    /// Every reported metric with its unit, one per line.
    pub fn listing(&self) -> String {
        let mut s = format!(
            "perfbench {} seed={} reps={} attempted={} failed={} error_frac={} latency_samples={}\n",
            self.workload,
            self.seed,
            self.reps,
            self.attempted,
            self.failed,
            self.error_frac(),
            self.metrics.get("latency_samples")
        );
        for (k, v) in &self.labels {
            let _ = writeln!(s, "  label {k} = {v}");
        }
        for (name, v, unit) in self.reported() {
            let _ = writeln!(s, "  {name:<44} {v:>16.9e} {unit}");
        }
        s
    }
}

/// Percentile of an ascending slice by the workspace's nearest-rank
/// rule (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sparse_dist::nearest_rank(p, sorted.len()) {
        0 => 0.0,
        rank => sorted[rank - 1],
    }
}

/// Middle value, or the mean of the two middle values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux clocks and /proc; it builds for 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library the standard library already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds the calling thread has spent running on a CPU, to the
/// nanosecond. Time the thread waits for a CPU does not count: neither
/// other processes' turns nor, on a paravirtualised guest, the time the
/// hypervisor hands the virtual CPU to someone else (steal time). `None`
/// when the clock cannot be read.
pub fn thread_cpu_s() -> Option<f64> {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    (rc == 0).then_some(t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9)
}

/// Thread CPU seconds spent in `f`, and its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> Result<(R, f64), String> {
    let unreadable = || "cannot read the thread CPU clock".to_string();
    let t0 = thread_cpu_s().ok_or_else(unreadable)?;
    let r = f();
    let t1 = thread_cpu_s().ok_or_else(unreadable)?;
    Ok((r, t1 - t0))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
