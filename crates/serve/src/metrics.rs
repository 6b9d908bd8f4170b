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
//!   schema, mirroring `bench.v1`/`diag.v1`. Its validating reader,
//!   [`MetricsSnapshot::parse`] (and [`validate_metrics`], which
//!   `xtask check_bench_json --metrics` runs), lives here beside the
//!   histogram layout it checks bucket edges against.
//! * [`MetricsSnapshot::to_prometheus`] — a Prometheus text-exposition
//!   snapshot for eyeballs and scrape-shaped tooling.
//!
//! Percentile contract: [`nearest_rank`] is the *single* definition of
//! a percentile in the serving layer. `ServeReport::latency_percentile`
//! (the stderr summary) applies it to exact sorted latencies;
//! [`LogHistogram::percentile`] applies the same rank to cumulative
//! bucket counts and returns the containing bucket's upper edge, so the
//! two always agree to within one bucket width (≤ [`HIST_GROWTH`]×).

use gpu_sim::{json_escape, json_number, Json};
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
    /// Panics when the rendering fails [`validate_metrics`] (non-finite
    /// numbers, unsorted or duplicate names, bucket counts that do not
    /// sum to the histogram count, broken serving-counter invariants):
    /// a self-validating writer, like the `bench.v1` reporter.
    pub fn to_json(&self) -> String {
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
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"name\":\"{}\",\"counters\":{{{}}},\
             \"gauges\":{{{}}},\"histograms\":[{}]}}",
            json_escape(&self.name),
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        );
        if let Err(e) = validate_metrics(&text) {
            panic!(
                "metrics snapshot {:?} failed self-validation: {e}",
                self.name
            );
        }
        text
    }

    /// Parses and validates a `metrics.v1` document: schema tag,
    /// non-empty name, a `counters` object of non-negative integers, a
    /// `gauges` object of finite numbers, and a `histograms` array
    /// where every entry carries `name`/`count`/`sum`/`overflow`/`p50`/
    /// `p99` plus a `buckets` array of `{i, le, count}` objects. Bucket
    /// indices are integers in `0..=HIST_BUCKETS`, strictly increasing,
    /// each `le` is exactly [`LogHistogram::upper_edge`] of its index
    /// (the writer's shortest round-trip numbers read back bit for bit),
    /// and the bucket counts plus overflow sum to `count`. Both object
    /// key sets and the histogram names must be strictly sorted — the
    /// writer is canonical, and canonical order is what makes snapshots
    /// byte-comparable.
    ///
    /// On top of the per-field shape checks, serving-layer counters are
    /// held to their cross-counter invariants (see
    /// [`validate_serving_counters`]).
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = Json::parse(text)?;
        let name = doc.check_header(SCHEMA)?.to_string();
        let counters = sorted_entries(doc.obj_field("counters")?, "counters", |k, v| {
            v.as_u64()
                .ok_or_else(|| format!("counter {k:?} is not a non-negative integer"))
        })?;
        validate_serving_counters(&counters.iter().map(|(k, v)| (k.as_str(), *v)).collect())?;
        let gauges = sorted_entries(doc.obj_field("gauges")?, "gauges", |k, v| {
            v.as_finite()
                .ok_or_else(|| format!("gauge {k:?} is not a finite number"))
        })?;
        let mut histograms: Vec<HistogramSnapshot> = Vec::new();
        for (i, h) in doc.arr_field("histograms")?.iter().enumerate() {
            let hname = h
                .str_field("name")
                .map_err(|e| format!("histogram {i}: {e}"))?;
            if histograms.last().is_some_and(|p| p.name.as_str() >= hname) {
                return Err(format!("histograms not strictly sorted at {hname:?}"));
            }
            let hist = HistogramSnapshot::from_json(hname, h)
                .map_err(|e| format!("histogram {hname:?}: {e}"))?;
            histograms.push(hist);
        }
        Ok(MetricsSnapshot {
            name,
            counters,
            gauges,
            histograms,
        })
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
}

/// Schema tag of the document [`MetricsSnapshot::to_json`] writes.
pub const SCHEMA: &str = "metrics.v1";

/// Validates a `metrics.v1` document (see [`MetricsSnapshot::parse`]).
pub fn validate_metrics(text: &str) -> Result<(), String> {
    MetricsSnapshot::parse(text).map(drop)
}

/// Reads a JSON object whose keys must be strictly sorted, converting
/// each value with `read`.
fn sorted_entries<T>(
    pairs: &[(String, Json)],
    what: &str,
    read: impl Fn(&str, &Json) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    let mut out: Vec<(String, T)> = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        if out.last().is_some_and(|(prev, _)| prev >= k) {
            return Err(format!("{what} not strictly sorted at {k:?}"));
        }
        out.push((k.clone(), read(k, v)?));
    }
    Ok(out)
}

impl HistogramSnapshot {
    /// Reads and checks one `histograms` entry named `name`.
    fn from_json(name: &str, h: &Json) -> Result<HistogramSnapshot, String> {
        let count = h.u64_field("count")?;
        let overflow = h.u64_field("overflow")?;
        let sum = h.num_field("sum")?;
        let p50 = h.num_field("p50")?;
        let p99 = h.num_field("p99")?;
        if p50 > p99 {
            return Err(format!("p50 {p50} exceeds p99 {p99}"));
        }
        let mut buckets: Vec<(usize, f64, u64)> = Vec::new();
        let mut total = u128::from(overflow);
        for (j, b) in h.arr_field("buckets")?.iter().enumerate() {
            let bucket = || -> Result<(usize, f64, u64), String> {
                let i = b.u64_field("i")?;
                if i > HIST_BUCKETS as u64 {
                    return Err(format!("index {i} is past the last bucket {HIST_BUCKETS}"));
                }
                let i = i as usize;
                let (le, edge) = (b.num_field("le")?, LogHistogram::upper_edge(i));
                if le.to_bits() != edge.to_bits() {
                    return Err(format!(
                        "\"le\" {le} is not the upper edge {edge} of bucket {i}"
                    ));
                }
                match b.u64_field("count")? {
                    0 => Err("count is not a positive integer".to_string()),
                    c => Ok((i, le, c)),
                }
            };
            let (i, le, c) = bucket().map_err(|e| format!("bucket {j}: {e}"))?;
            if buckets.last().is_some_and(|&(prev, _, _)| prev >= i) {
                return Err(format!("bucket indices not increasing at {j}"));
            }
            total += u128::from(c);
            buckets.push((i, le, c));
        }
        if total != u128::from(count) {
            return Err(format!("bucket counts sum to {total}, count says {count}"));
        }
        Ok(HistogramSnapshot {
            name: name.to_string(),
            count,
            sum,
            overflow,
            p50,
            p99,
            buckets,
        })
    }
}

/// Cross-counter invariants for serving-layer `metrics.v1` documents
/// (DESIGN §14). The engine and fleet counters are not independent:
/// every arrival is either served or typed-shed, the typed shed
/// reasons partition the rejected total, and only served requests can
/// be degraded. Each check only fires when the counters involved are
/// all present, so non-serving registries validate unchanged.
fn validate_serving_counters(counts: &BTreeMap<&str, u64>) -> Result<(), String> {
    let conservation = [
        // (arrived, served, rejected) triples for the engine and fleet.
        (
            "serve.requests_arrived_total",
            "serve.requests_served_total",
            "serve.requests_rejected_total",
        ),
        (
            "serve.fleet.requests_arrived_total",
            "serve.fleet.requests_served_total",
            "serve.fleet.requests_shed_total",
        ),
        // WAL ingest (DESIGN §16): every appended record is either
        // applied or typed-rejected, and the applied records partition
        // into inserts and deletes.
        (
            "wal.records_appended_total",
            "wal.records_applied_total",
            "wal.records_rejected_total",
        ),
        (
            "wal.records_applied_total",
            "wal.inserts_total",
            "wal.deletes_total",
        ),
    ];
    for (arrived, served, rejected) in conservation {
        if let (Some(&a), Some(&s), Some(&r)) = (
            counts.get(arrived),
            counts.get(served),
            counts.get(rejected),
        ) {
            let parts = u128::from(s) + u128::from(r);
            if u128::from(a) != parts {
                return Err(format!(
                    "counter {arrived:?} is {a} but {served:?} + {rejected:?} is {parts}"
                ));
            }
        }
    }
    if let Some(&rejected) = counts.get("serve.requests_rejected_total") {
        let shed: u128 = counts
            .iter()
            .filter(|(k, _)| k.starts_with("serve.shed_") && k.ends_with("_total"))
            .map(|(_, &v)| u128::from(v))
            .sum();
        if shed != u128::from(rejected) {
            return Err(format!(
                "serve.shed_*_total counters sum to {shed}, \
                 \"serve.requests_rejected_total\" says {rejected}"
            ));
        }
    }
    let degrade_caps = [
        (
            "serve.degraded_requests_total",
            "serve.requests_served_total",
        ),
        (
            "serve.fleet.degraded_requests_total",
            "serve.fleet.requests_served_total",
        ),
        (
            "serve.fleet.chaos_windows_total",
            "serve.fleet.windows_total",
        ),
        // Compaction (DESIGN §16): a compaction lands at most once per
        // start, starts only on a WAL write, and the fresh segment is
        // scanned at most once per served batch.
        ("compact.completed_total", "compact.started_total"),
        ("compact.started_total", "wal.records_appended_total"),
        ("wal.fresh_scans_total", "serve.batches_total"),
    ];
    for (part, whole) in degrade_caps {
        if let (Some(&p), Some(&w)) = (counts.get(part), counts.get(whole)) {
            if p > w {
                return Err(format!("counter {part:?} ({p}) exceeds {whole:?} ({w})"));
            }
        }
    }
    // Fleet per-window cumulative shed series:
    // `serve.fleet.run<RRR>.w<WWWW>.shed_<reason>_total`. Each
    // (run, reason) series must be monotone non-decreasing in window
    // order — a cumulative counter that ever decreased would mean a
    // window un-shed a request — and the final window's cumulative
    // values, summed across runs and reasons, must reconcile with the
    // all-runs `serve.fleet.requests_shed_total`.
    let mut series: BTreeMap<(&str, &str), Vec<(&str, u64)>> = BTreeMap::new();
    for (k, &v) in counts {
        let Some(rest) = k.strip_prefix("serve.fleet.run") else {
            continue;
        };
        let Some((run, rest)) = rest.split_once(".w") else {
            continue;
        };
        let Some((window, rest)) = rest.split_once(".shed_") else {
            continue;
        };
        let Some(reason) = rest.strip_suffix("_total") else {
            continue;
        };
        // BTreeMap iteration is sorted and window tags are zero-padded,
        // so each series arrives in window order.
        series.entry((run, reason)).or_default().push((window, v));
    }
    for ((run, reason), points) in &series {
        for pair in points.windows(2) {
            let ((w0, v0), (w1, v1)) = (pair[0], pair[1]);
            if v1 < v0 {
                return Err(format!(
                    "fleet shed series run{run} {reason:?} is not monotone: \
                     w{w0} has {v0}, w{w1} has {v1}"
                ));
            }
        }
    }
    if !series.is_empty() {
        if let Some(&total) = counts.get("serve.fleet.requests_shed_total") {
            let last_sum: u128 = series
                .values()
                .map(|points| points.last().map_or(0, |&(_, v)| u128::from(v)))
                .sum();
            if last_sum != u128::from(total) {
                return Err(format!(
                    "fleet shed series final cumulative values sum to {last_sum}, \
                     \"serve.fleet.requests_shed_total\" says {total}"
                ));
            }
        }
    }
    Ok(())
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

    #[test]
    fn metrics_validator_accepts_canonical_documents() {
        let good = format!(
            "{{\"schema\":\"metrics.v1\",\"name\":\"unit\",\
            \"counters\":{{\"a_total\":2,\"b_total\":0}},\
            \"gauges\":{{\"qps\":12.5}},\
            \"histograms\":[{{\"name\":\"lat\",\"count\":3,\"sum\":0.5,\
            \"overflow\":1,\"p50\":1e-7,\"p99\":2e-7,\
            \"buckets\":[{{\"i\":0,\"le\":1e-7,\"count\":1}},\
            {{\"i\":4,\"le\":{},\"count\":1}}]}}]}}",
            json_number(LogHistogram::upper_edge(4))
        );
        validate_metrics(&good).expect("valid");
    }

    #[test]
    fn parse_reads_back_what_to_json_wrote() {
        let mut reg = MetricsRegistry::new();
        reg.inc("serve.requests_arrived_total", 3);
        reg.inc("serve.requests_served_total", 3);
        reg.set_gauge("serve.qps", 125.5);
        for v in [0.0, 2e-6, 3e-6, 1e9] {
            reg.observe("serve.latency_s", v);
        }
        let snap = reg.snapshot("unit");
        assert_eq!(MetricsSnapshot::parse(&snap.to_json()), Ok(snap));
    }

    #[test]
    fn metrics_validator_enforces_serving_counter_invariants() {
        // Conservation: arrived != served + rejected.
        let unbalanced = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":1,\
            \"serve.requests_served_total\":8},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unbalanced)
            .unwrap_err()
            .contains("serve.requests_arrived_total"));
        // Typed shed reasons must partition the rejected total.
        let shed_mismatch = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":3,\
            \"serve.requests_served_total\":7,\
            \"serve.shed_queue_full_total\":1,\
            \"serve.shed_rate_limit_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(shed_mismatch)
            .unwrap_err()
            .contains("shed"));
        // Only served requests can be degraded.
        let over_degraded = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.degraded_requests_total\":9,\
            \"serve.requests_served_total\":7},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(over_degraded)
            .unwrap_err()
            .contains("serve.degraded_requests_total"));
        // Fleet: chaos windows are a subset of all windows.
        let chaos_overflow = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.fleet.chaos_windows_total\":5,\
            \"serve.fleet.windows_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(chaos_overflow)
            .unwrap_err()
            .contains("serve.fleet.chaos_windows_total"));
        // A consistent serving document still validates.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.degraded_requests_total\":2,\
            \"serve.fleet.chaos_windows_total\":2,\
            \"serve.fleet.windows_total\":4,\
            \"serve.requests_arrived_total\":10,\
            \"serve.requests_rejected_total\":3,\
            \"serve.requests_served_total\":7,\
            \"serve.shed_queue_full_total\":1,\
            \"serve.shed_rate_limit_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent serving counters");
    }

    #[test]
    fn metrics_validator_enforces_wal_and_compaction_invariants() {
        // Appended records must partition into applied + rejected.
        let leaky_log = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"wal.records_appended_total\":10,\
            \"wal.records_applied_total\":8,\
            \"wal.records_rejected_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(leaky_log)
            .unwrap_err()
            .contains("wal.records_appended_total"));
        // Applied records must partition into inserts + deletes.
        let phantom_op = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"wal.deletes_total\":2,\
            \"wal.inserts_total\":5,\
            \"wal.records_applied_total\":8},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(phantom_op)
            .unwrap_err()
            .contains("wal.records_applied_total"));
        // A compaction cannot land more often than it started.
        let ghost_compaction = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.completed_total\":3,\
            \"compact.started_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(ghost_compaction)
            .unwrap_err()
            .contains("compact.completed_total"));
        // Compactions start on writes; fresh scans happen per batch.
        let eager_compactor = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.started_total\":5,\
            \"wal.records_appended_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(eager_compactor)
            .unwrap_err()
            .contains("compact.started_total"));
        let over_scanned = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"serve.batches_total\":3,\
            \"wal.fresh_scans_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(over_scanned)
            .unwrap_err()
            .contains("wal.fresh_scans_total"));
        // A consistent ingest document still validates.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"compact.completed_total\":1,\
            \"compact.started_total\":2,\
            \"serve.batches_total\":6,\
            \"wal.deletes_total\":3,\
            \"wal.fresh_scans_total\":5,\
            \"wal.inserts_total\":6,\
            \"wal.records_appended_total\":10,\
            \"wal.records_applied_total\":9,\
            \"wal.records_rejected_total\":1},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent ingest counters");
    }

    #[test]
    fn metrics_validator_enforces_fleet_shed_series_invariants() {
        // A cumulative per-window series that ever decreases is broken.
        let non_monotone = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":2,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":3,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":2},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(non_monotone)
            .unwrap_err()
            .contains("not monotone"));
        // Final cumulative values must reconcile with the shed total.
        let unreconciled = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":3,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":1,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":4},\
            \"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unreconciled)
            .unwrap_err()
            .contains("requests_shed_total"));
        // Monotone series summing (across runs and reasons) to the
        // total validate; runs with different window counts coexist.
        let consistent = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\
            \"serve.fleet.requests_shed_total\":7,\
            \"serve.fleet.run000.w0000.shed_queue_full_total\":1,\
            \"serve.fleet.run000.w0000.shed_rate_limit_total\":0,\
            \"serve.fleet.run000.w0001.shed_queue_full_total\":2,\
            \"serve.fleet.run000.w0001.shed_rate_limit_total\":2,\
            \"serve.fleet.run001.w0000.shed_queue_full_total\":3},\
            \"gauges\":{},\"histograms\":[]}";
        validate_metrics(consistent).expect("consistent fleet shed series");
    }

    #[test]
    fn metrics_validator_rejects_structural_breakage() {
        let wrong_schema = "{\"schema\":\"bench.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let unsorted = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"b\":1,\"a\":1},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(unsorted).unwrap_err().contains("sorted"));
        let fractional = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{\"a\":1.5},\"gauges\":{},\"histograms\":[]}";
        assert!(validate_metrics(fractional)
            .unwrap_err()
            .contains("integer"));
        let bad_sum = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":5,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":2}]}]}";
        assert!(validate_metrics(bad_sum).unwrap_err().contains("sum to"));
        let bad_edges = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":2,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{\"i\":0,\"le\":2e-7,\"count\":1},\
            {\"i\":1,\"le\":1e-7,\"count\":1}]}]}";
        assert!(validate_metrics(bad_edges)
            .unwrap_err()
            .contains("upper edge"));
        let fractional_index = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":1,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{\"i\":0.5,\"le\":1e-7,\"count\":1}]}]}";
        assert!(validate_metrics(fractional_index)
            .unwrap_err()
            .contains("\"i\" is not a non-negative integer"));
        let foreign_edge = format!(
            "{{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{{}},\"gauges\":{{}},\
            \"histograms\":[{{\"name\":\"h\",\"count\":1,\"sum\":0.0,\
            \"overflow\":0,\"p50\":0.0,\"p99\":0.0,\
            \"buckets\":[{{\"i\":1,\"le\":{},\"count\":1}}]}}]}}",
            json_number(LogHistogram::upper_edge(2))
        );
        assert!(validate_metrics(&foreign_edge)
            .unwrap_err()
            .contains("upper edge"));
        let p_inverted = "{\"schema\":\"metrics.v1\",\"name\":\"x\",\
            \"counters\":{},\"gauges\":{},\
            \"histograms\":[{\"name\":\"h\",\"count\":1,\"sum\":0.0,\
            \"overflow\":0,\"p50\":2.0,\"p99\":1.0,\
            \"buckets\":[{\"i\":0,\"le\":1e-7,\"count\":1}]}]}";
        assert!(validate_metrics(p_inverted)
            .unwrap_err()
            .contains("exceeds"));
    }
}
