//! Deterministic serving-path metrics: counters, gauges, and
//! fixed-layout log-bucket histograms over *simulated* time.
//!
//! The registry is the signal substrate for ROADMAP item 4 (SLO-driven
//! admission control and autoscaling): every number it holds is a pure
//! function of the replayed request set. There is no wall clock, no
//! sampling, and no hash-map iteration order anywhere — counters and
//! gauges live in `BTreeMap`s, histogram bucket layout is a compile-time
//! constant, and values are recorded in the engine's canonical response
//! order — so a [`MetricsSnapshot`] rendered from the same request set
//! is **byte-identical** across `GPU_SIM_HOST_THREADS` settings and
//! arrival-order permutations (tested by proptest in
//! `tests/metrics.rs`).
//!
//! Export formats:
//! * [`MetricsSnapshot::to_json`] — the self-describing `metrics.v1`
//!   schema, mirroring `bench.v1`/`diag.v1`; validated by
//!   `bench::validate_metrics` (and `xtask check_bench_json --metrics`).
//! * [`MetricsSnapshot::to_prometheus`] — a Prometheus text-exposition
//!   snapshot for eyeballs and scrape-shaped tooling.
//!
//! Percentile contract: [`nearest_rank`] is the *single* definition of
//! a percentile in the serving layer. `ServeReport::latency_percentile`
//! (the stderr summary) applies it to exact sorted latencies;
//! [`LogHistogram::percentile`] applies the same rank to cumulative
//! bucket counts and returns the containing bucket's upper edge, so the
//! two always agree to within one bucket width (≤ [`HIST_GROWTH`]×).

use gpu_sim::{json_escape, json_number};
use std::collections::BTreeMap;

/// Number of finite log-spaced histogram buckets (excluding the
/// underflow bucket `[0, HIST_MIN]` and the overflow bucket).
pub const HIST_BUCKETS: usize = 128;

/// Upper edge of the underflow bucket: 100 simulated nanoseconds.
pub const HIST_MIN: f64 = 1e-7;

/// Geometric growth factor between bucket edges: 2^(1/4) (~19% wide
/// buckets). 128 buckets span `1e-7 s .. ~429 s`, comfortably covering
/// every simulated serving latency.
pub const HIST_GROWTH: f64 = 1.189207115002721;

/// The 1-based nearest-rank index for percentile `p` over `n` samples:
/// `ceil(p/100 · n)` clamped to `[1, n]`. This is the one percentile
/// definition shared by the stderr summary, the registry histograms,
/// and the SLO tracker. Returns 0 when `n == 0`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil();
    if rank.is_nan() || rank < 1.0 {
        1
    } else {
        (rank as usize).min(n)
    }
}

/// Nearest-rank percentile over an already-sorted slice; 0.0 when
/// empty. The sort order must be ascending ([`f64::total_cmp`]).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match nearest_rank(p, sorted.len()) {
        0 => 0.0,
        rank => sorted[rank - 1],
    }
}

/// A fixed-layout log-bucket histogram over non-negative simulated
/// seconds.
///
/// Layout (compile-time constant, never adapts to data — adaptivity
/// would break byte-identity across permutations): bucket 0 holds
/// `[0, HIST_MIN]`, bucket `i` holds
/// `(HIST_MIN·G^(i-1), HIST_MIN·G^i]`, and one overflow bucket holds
/// everything above the last finite edge.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: [u64; HIST_BUCKETS + 1],
    overflow: u64,
    count: u64,
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS + 1],
            overflow: 0,
            count: 0,
            sum: 0.0,
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values. Well-defined bit-for-bit because the
    /// engine records in canonical (completion, id) response order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Observations above the last finite bucket edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The upper edge of finite bucket `i` (`i == 0` is the underflow
    /// bucket edge, [`HIST_MIN`]).
    pub fn upper_edge(i: usize) -> f64 {
        debug_assert!(i <= HIST_BUCKETS);
        HIST_MIN * HIST_GROWTH.powi(i as i32)
    }

    /// Index of the finite bucket containing `v`, or `None` for
    /// overflow values.
    pub fn bucket_index(v: f64) -> Option<usize> {
        if v <= HIST_MIN {
            return Some(0);
        }
        if v > Self::upper_edge(HIST_BUCKETS) {
            return None;
        }
        // Log-estimate the bucket, then fix up against the exact edges
        // so the boundary semantics (`(lo, hi]`) are exact regardless of
        // floating-point log error.
        let mut i = ((v / HIST_MIN).ln() / HIST_GROWTH.ln()).ceil() as i64;
        i = i.clamp(1, HIST_BUCKETS as i64);
        let mut i = i as usize;
        while i > 1 && v <= Self::upper_edge(i - 1) {
            i -= 1;
        }
        while i < HIST_BUCKETS && v > Self::upper_edge(i) {
            i += 1;
        }
        Some(i)
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values — simulated durations
    /// are non-negative by construction, so such a value means the
    /// engine is broken.
    pub fn record(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "histogram observation must be finite and non-negative, got {v}"
        );
        match Self::bucket_index(v) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += v;
    }

    /// Non-empty finite buckets as `(index, upper_edge, count)`, in
    /// ascending index order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, Self::upper_edge(i), c))
            .collect()
    }

    /// The nearest-rank `p`-th percentile, reported as the upper edge of
    /// the bucket containing the rank-th smallest observation (so it
    /// overestimates the exact sample by at most one bucket width).
    /// Overflow observations report the first edge past the finite
    /// range; an empty histogram reports 0.0.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = nearest_rank(p, self.count as usize) as u64;
        if rank == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::upper_edge(i);
            }
        }
        HIST_MIN * HIST_GROWTH.powi(HIST_BUCKETS as i32 + 1)
    }
}

/// The deterministic metrics registry: named counters, gauges, and
/// [`LogHistogram`]s. All maps are `BTreeMap` so iteration (and thus
/// every rendered snapshot) is ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets gauge `name` to `v`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite `v` — `metrics.v1` is JSON and JSON has no
    /// NaN/Inf, so a non-finite gauge means the producer is broken.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        assert!(v.is_finite(), "non-finite gauge {name} = {v}");
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Freezes the registry into a named, renderable snapshot.
    pub fn snapshot(&self, name: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            name: name.to_string(),
            counters: self.counters.clone().into_iter().collect(),
            gauges: self.gauges.clone().into_iter().collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| HistogramSnapshot {
                    name: n.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    overflow: h.overflow(),
                    p50: h.percentile(50.0),
                    p99: h.percentile(99.0),
                    buckets: h.nonzero_buckets(),
                })
                .collect(),
        }
    }
}

/// One histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Observations past the finite bucket range.
    pub overflow: u64,
    /// Histogram-derived p50 (bucket upper edge; see
    /// [`LogHistogram::percentile`]).
    pub p50: f64,
    /// Histogram-derived p99.
    pub p99: f64,
    /// Non-empty finite buckets `(index, upper_edge, count)`.
    pub buckets: Vec<(usize, f64, u64)>,
}

/// A frozen, renderable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Snapshot name (the `name` field of the `metrics.v1` document).
    pub name: String,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a `metrics.v1` JSON document:
    ///
    /// ```json
    /// {"schema":"metrics.v1","name":"...",
    ///  "counters":{"a":1}, "gauges":{"g":0.5},
    ///  "histograms":[{"name":"h","count":2,"sum":3.0,"overflow":0,
    ///                 "p50":...,"p99":...,
    ///                 "buckets":[{"i":0,"le":1e-7,"count":2}]}]}
    /// ```
    ///
    /// The rendering is canonical — sorted keys, shortest round-trip
    /// numbers, no whitespace variance — so equal registries render
    /// byte-identical documents.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot violates its own schema (non-finite
    /// numbers, unsorted or duplicate names, bucket counts that do not
    /// sum to the histogram count): a self-validating writer, like the
    /// `bench.v1` reporter.
    pub fn to_json(&self) -> String {
        self.check();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_number(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(i, le, c)| {
                        format!("{{\"i\":{i},\"le\":{},\"count\":{c}}}", json_number(*le))
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"overflow\":{},\
                     \"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
                    json_escape(&h.name),
                    h.count,
                    json_number(h.sum),
                    h.overflow,
                    json_number(h.p50),
                    json_number(h.p99),
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"metrics.v1\",\"name\":\"{}\",\"counters\":{{{}}},\
             \"gauges\":{{{}}},\"histograms\":[{}]}}",
            json_escape(&self.name),
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }

    /// Renders the snapshot in Prometheus text-exposition style.
    /// Counter names gain a `_total`-style verbatim pass-through (names
    /// in the registry already carry their unit suffixes); dots are
    /// mapped to underscores to fit the Prometheus grammar. Histograms
    /// render cumulative `_bucket{le=...}` series plus `_count`/`_sum`.
    pub fn to_prometheus(&self) -> String {
        fn prom_name(n: &str) -> String {
            n.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", json_number(*v)));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (_, le, c) in &h.buckets {
                cum += c;
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cum}\n",
                    json_number(*le)
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", json_number(h.sum)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }

    /// Structural self-checks shared by both renderers.
    fn check(&self) {
        assert!(!self.name.is_empty(), "metrics snapshot needs a name");
        for w in self.counters.windows(2) {
            assert!(w[0].0 < w[1].0, "counters must be strictly sorted");
        }
        for w in self.gauges.windows(2) {
            assert!(w[0].0 < w[1].0, "gauges must be strictly sorted");
        }
        for (k, v) in &self.gauges {
            assert!(v.is_finite(), "non-finite gauge {k} = {v}");
        }
        for h in &self.histograms {
            assert!(h.sum.is_finite(), "non-finite sum in histogram {}", h.name);
            let mut prev = f64::NEG_INFINITY;
            let mut total = h.overflow;
            for (_, le, c) in &h.buckets {
                assert!(*le > prev, "bucket edges must increase in {}", h.name);
                prev = *le;
                total += c;
            }
            assert_eq!(
                total, h.count,
                "bucket counts must sum to count in {}",
                h.name
            );
            assert!(
                h.p50.is_finite() && h.p99.is_finite() && h.p50 <= h.p99,
                "percentiles must be finite and ordered in {}",
                h.name
            );
        }
        for w in self.histograms.windows(2) {
            assert!(w[0].name < w[1].name, "histograms must be strictly sorted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(50.0, 0), 0);
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(0.0, 5), 1);
        assert_eq!(nearest_rank(100.0, 5), 5);
        assert_eq!(nearest_rank(50.0, 4), 2);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(200.0, 5), 5);
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        assert_eq!(LogHistogram::bucket_index(0.0), Some(0));
        assert_eq!(LogHistogram::bucket_index(HIST_MIN), Some(0));
        let e1 = LogHistogram::upper_edge(1);
        assert_eq!(LogHistogram::bucket_index(e1), Some(1));
        assert_eq!(LogHistogram::bucket_index(e1 * 1.0000001), Some(2));
        let top = LogHistogram::upper_edge(HIST_BUCKETS);
        assert_eq!(LogHistogram::bucket_index(top), Some(HIST_BUCKETS));
        assert_eq!(LogHistogram::bucket_index(top * 1.01), None);
    }

    #[test]
    fn percentile_matches_bucket_of_exact_rank() {
        let mut h = LogHistogram::new();
        let samples = [1e-6, 2e-6, 3e-6, 4e-6, 1e-3];
        for s in samples {
            h.record(s);
        }
        // Rank of p50 over 5 samples is 3 → sample 3e-6.
        let expect = LogHistogram::upper_edge(LogHistogram::bucket_index(3e-6).unwrap());
        assert_eq!(h.percentile(50.0), expect);
        // p99 → rank 5 → the 1e-3 outlier's bucket.
        let expect = LogHistogram::upper_edge(LogHistogram::bucket_index(1e-3).unwrap());
        assert_eq!(h.percentile(99.0), expect);
        assert_eq!(
            h.percentile(50.0).min(h.percentile(99.0)),
            h.percentile(50.0)
        );
    }

    #[test]
    fn empty_histogram_is_defined() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_renders_canonical_json_and_prometheus() {
        let mut reg = MetricsRegistry::new();
        reg.inc("serve.requests_total", 3);
        reg.set_gauge("serve.qps", 125.5);
        reg.observe("serve.latency_s", 2e-6);
        reg.observe("serve.latency_s", 3e-6);
        let snap = reg.snapshot("unit");
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"metrics.v1\",\"name\":\"unit\""));
        assert!(json.contains("\"serve.requests_total\":3"));
        assert!(json.contains("\"serve.qps\":125.5"));
        assert!(json.contains("\"histograms\":[{\"name\":\"serve.latency_s\",\"count\":2"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("serve_requests_total 3"));
        assert!(prom.contains("# TYPE serve_latency_s histogram"));
        assert!(prom.contains("serve_latency_s_count 2"));
        assert!(prom.contains("le=\"+Inf\"} 2"));
        // Same registry → byte-identical render.
        assert_eq!(json, reg.snapshot("unit").to_json());
    }

    #[test]
    #[should_panic(expected = "non-finite gauge")]
    fn non_finite_gauge_panics() {
        MetricsRegistry::new().set_gauge("bad", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_observation_panics() {
        LogHistogram::new().record(-1.0);
    }
}
