//! Per-request spans: every serve request carries a deterministic trace
//! id and a typed event timeline, threaded through the engine's
//! discrete-event loop.
//!
//! Span taxonomy (DESIGN §13): a request's life is
//! `Enqueue → BatchAdmit → (CacheHit | CacheMiss → Prepare) →
//! ShardLaunch per device → (Retry | Degrade)* → Merge → Reply`,
//! or `Enqueue → Rejected` when admission control sheds it. Batches
//! admitted past the degrade watermark additionally carry an
//! [`SpanEvent::AdmissionDegrade`] marker. Every span **must** end in a
//! terminal event ([`SpanEvent::Reply`] or [`SpanEvent::Rejected`]) —
//! `xtask analyze`'s deny-severity `dropped-span` rule fails the gate
//! on serve/neighbors code that calls
//! [`RequestTraces::begin_request`] without a matching
//! [`RequestTraces::finish_request`]/[`RequestTraces::reject_request`].
//!
//! Timestamps are simulated seconds from the same sim-clock the kernel
//! profiler uses, so [`RequestTraces::chrome_trace`] produces a
//! per-request flame view that lines up with `--profile`'s kernel
//! timeline and opens directly in Perfetto.

use crate::admission::ShedReason;
use gpu_sim::{chrome_trace_envelope, json_escape};
use std::collections::BTreeMap;

/// One typed event on a request's timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanEvent {
    /// The request arrived and was admitted to its dataset's open batch.
    Enqueue,
    /// Admission control shed the request (terminal).
    Rejected {
        /// Queued + executing requests at the rejection instant.
        backlog: usize,
        /// The typed shed reason (queue cliff, rate limit, watermark).
        reason: ShedReason,
    },
    /// The request's batch closed and was handed to the device pool.
    BatchAdmit {
        /// Engine-wide batch sequence number.
        batch: usize,
        /// Requests sharing the batch.
        size: usize,
    },
    /// The prepared-index cache served the batch's shards.
    CacheHit,
    /// The cache had to prepare (upload + warm) the batch's shards.
    CacheMiss {
        /// Entries evicted to fit the new one.
        evictions: u64,
    },
    /// Index preparation (upload + norm warming) charged to this batch.
    Prepare {
        /// Simulated seconds of preparation.
        seconds: f64,
    },
    /// One pool device's kernel execution within one arm of the batch
    /// (the base arm, or a mutable batch's fresh-segment scan): the
    /// engine emits one per device slot per arm.
    ShardLaunch {
        /// The device slot (the same value as `device_slot`).
        shard: usize,
        /// Device slot executing the arm's shards.
        device_slot: usize,
        /// Simulated seconds of every shard the device ran for the arm.
        seconds: f64,
    },
    /// The resilience cascade retried transient faults.
    Retry {
        /// Maximum attempts any tile needed.
        attempts: u32,
        /// Faults absorbed across the batch.
        faults: usize,
    },
    /// The resilience cascade degraded the execution plan.
    Degrade {
        /// The strategy that produced the returned distances.
        strategy: String,
    },
    /// Admission control marked the request's batch degraded because
    /// the backlog crossed the degrade watermark. An exact batch runs
    /// its planned kernel unchanged; an IVF batch halves `nprobe`.
    AdmissionDegrade {
        /// The mode the batch ran in: the estimator's own smem mode
        /// (e.g. `smem=Auto`) in exact mode, `nprobe=<n>` in IVF mode.
        strategy: String,
    },
    /// The brute-force fresh-segment scan ran alongside the prepared
    /// base for this batch (mutable datasets, DESIGN §16).
    FreshScan {
        /// Rows in the fresh segment at dispatch time.
        rows: usize,
        /// Tombstoned rows masked out of the scan's candidates.
        tombstoned: usize,
    },
    /// Base-arm and fresh-arm candidates merged under the canonical
    /// `cmp_dist_idx` order into live-rank coordinates.
    SegmentMerge {
        /// Base generation the batch was served against.
        generation: u64,
    },
    /// Per-shard results merged into the batch answer.
    Merge,
    /// The response was handed back to the caller (terminal).
    Reply {
        /// Queue + execution latency of the request.
        latency_s: f64,
    },
}

impl SpanEvent {
    /// Short stable name used in exports and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            SpanEvent::Enqueue => "enqueue",
            SpanEvent::Rejected { .. } => "rejected",
            SpanEvent::BatchAdmit { .. } => "batch_admit",
            SpanEvent::CacheHit => "cache_hit",
            SpanEvent::CacheMiss { .. } => "cache_miss",
            SpanEvent::Prepare { .. } => "prepare",
            SpanEvent::ShardLaunch { .. } => "shard_launch",
            SpanEvent::Retry { .. } => "retry",
            SpanEvent::Degrade { .. } => "degrade",
            SpanEvent::AdmissionDegrade { .. } => "admission_degrade",
            SpanEvent::FreshScan { .. } => "fresh_scan",
            SpanEvent::SegmentMerge { .. } => "segment_merge",
            SpanEvent::Merge => "merge",
            SpanEvent::Reply { .. } => "reply",
        }
    }

    /// Whether this event closes a span.
    pub fn is_terminal(&self) -> bool {
        matches!(self, SpanEvent::Reply { .. } | SpanEvent::Rejected { .. })
    }
}

/// An event stamped with its simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulated seconds.
    pub t_s: f64,
    /// The event.
    pub event: SpanEvent,
}

/// The full timeline of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// Deterministic trace id: FNV-1a over (request id, dataset,
    /// arrival-time bits) — stable across replays of the same request
    /// set.
    pub trace_id: u64,
    /// Echo of the request id.
    pub request_id: u64,
    /// Echo of the request's dataset.
    pub dataset: usize,
    /// The request's arrival time.
    pub arrival_s: f64,
    /// Events in simulated-time order (appended by the engine's
    /// deterministic event loop).
    pub events: Vec<TimedEvent>,
}

impl RequestSpan {
    /// Whether the span ended in a terminal event (reply or rejection).
    pub fn is_terminal(&self) -> bool {
        self.events.last().is_some_and(|e| e.event.is_terminal())
    }

    /// The timestamp of the first event matching `pred`, if any.
    fn first_t(&self, pred: impl Fn(&SpanEvent) -> bool) -> Option<f64> {
        self.events.iter().find(|e| pred(&e.event)).map(|e| e.t_s)
    }
}

/// Deterministic trace id for a request.
pub fn trace_id(request_id: u64, dataset: usize, arrival_s: f64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    mix(&request_id.to_le_bytes());
    mix(&(dataset as u64).to_le_bytes());
    mix(&arrival_s.to_bits().to_le_bytes());
    h
}

/// Collector for one replay's request spans, keyed by request id.
#[derive(Debug, Clone, Default)]
pub struct RequestTraces {
    spans: Vec<RequestSpan>,
    index_of: BTreeMap<u64, usize>,
}

impl RequestTraces {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span for request `id` and records its
    /// [`SpanEvent::Enqueue`]. Every opened span must later be closed
    /// with [`Self::finish_request`] or [`Self::reject_request`] — the
    /// `dropped-span` lint enforces this pairing statically.
    pub fn begin_request(&mut self, id: u64, dataset: usize, arrival_s: f64) {
        let idx = self.spans.len();
        self.spans.push(RequestSpan {
            trace_id: trace_id(id, dataset, arrival_s),
            request_id: id,
            dataset,
            arrival_s,
            events: vec![TimedEvent {
                t_s: arrival_s,
                event: SpanEvent::Enqueue,
            }],
        });
        self.index_of.insert(id, idx);
    }

    /// Appends `event` at simulated time `t_s` to request `id`'s span.
    /// Unknown ids are ignored (the engine only emits events for spans
    /// it opened).
    pub fn push_event(&mut self, id: u64, t_s: f64, event: SpanEvent) {
        if let Some(&idx) = self.index_of.get(&id) {
            self.spans[idx].events.push(TimedEvent { t_s, event });
        }
    }

    /// Closes request `id`'s span with its terminal
    /// [`SpanEvent::Reply`].
    pub fn finish_request(&mut self, id: u64, t_s: f64, latency_s: f64) {
        self.push_event(id, t_s, SpanEvent::Reply { latency_s });
    }

    /// Closes request `id`'s span with its terminal
    /// [`SpanEvent::Rejected`] carrying the typed shed reason.
    pub fn reject_request(&mut self, id: u64, t_s: f64, backlog: usize, reason: ShedReason) {
        self.push_event(id, t_s, SpanEvent::Rejected { backlog, reason });
    }

    /// The collected spans, in span-open (admission) order.
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// Consumes the collector, returning spans sorted by
    /// `(arrival_s, request_id)` — the canonical order, independent of
    /// input permutation.
    pub fn into_spans(mut self) -> Vec<RequestSpan> {
        self.spans.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.request_id.cmp(&b.request_id))
        });
        self.spans
    }
}

/// Serializes request spans as chrome://tracing `trace_event` JSON
/// (same envelope as the kernel profiler's [`gpu_sim::chrome_trace`]).
///
/// Layout: one *process* per dataset (pid = dataset id), one *thread*
/// per request (tid = request id). Each served request renders a
/// `request` span (arrival → reply) with nested `queued` and `execute`
/// phases, plus a `retry` instant per retry event; rejected requests
/// render a zero-width `rejected` marker.
/// Timestamps are deterministic simulated microseconds.
pub fn request_chrome_trace(spans: &[RequestSpan]) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut seen_datasets: Vec<usize> = Vec::new();
    for s in spans {
        if !seen_datasets.contains(&s.dataset) {
            seen_datasets.push(s.dataset);
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"dataset{}\"}}}}",
                s.dataset, s.dataset
            ));
        }
        let ts = s.arrival_s * 1e6;
        let trace = format!("{:016x}", s.trace_id);
        match s.events.last().map(|e| &e.event) {
            Some(SpanEvent::Reply { .. }) => {
                let end = s.events.last().map(|e| e.t_s).unwrap_or(s.arrival_s);
                // Execution begins at the first post-admission event
                // (cache outcome or shard launch); queued covers
                // arrival → that instant.
                let exec_start = s
                    .first_t(|e| {
                        matches!(
                            e,
                            SpanEvent::CacheHit
                                | SpanEvent::CacheMiss { .. }
                                | SpanEvent::Prepare { .. }
                                | SpanEvent::ShardLaunch { .. }
                        )
                    })
                    .unwrap_or(end);
                for (name, a, b) in [
                    ("request", s.arrival_s, end),
                    ("queued", s.arrival_s, exec_start),
                    ("execute", exec_start, end),
                ] {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"X\",\
                         \"ts\":{:.4},\"dur\":{:.4},\"pid\":{},\"tid\":{},\
                         \"args\":{{\"trace\":\"{}\",\"events\":{}}}}}",
                        json_escape(name),
                        a * 1e6,
                        (b - a).max(0.0) * 1e6,
                        s.dataset,
                        s.request_id,
                        trace,
                        s.events.len()
                    ));
                }
                // Retries render as instants on the request's thread.
                for e in &s.events {
                    if let SpanEvent::Retry { attempts, faults } = e.event {
                        events.push(format!(
                            "{{\"name\":\"retry\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{:.4},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{}\",\
                             \"attempts\":{attempts},\"faults\":{faults}}}}}",
                            e.t_s * 1e6,
                            s.dataset,
                            s.request_id,
                            trace
                        ));
                    }
                }
            }
            last => {
                let reason = match last {
                    Some(SpanEvent::Rejected { reason, .. }) => reason.name(),
                    _ => "dropped",
                };
                events.push(format!(
                    "{{\"name\":\"rejected\",\"cat\":\"serve\",\"ph\":\"X\",\
                     \"ts\":{ts:.4},\"dur\":0.0,\"pid\":{},\"tid\":{},\
                     \"args\":{{\"trace\":\"{}\",\"reason\":\"{}\"}}}}",
                    s.dataset, s.request_id, trace, reason
                ));
            }
        }
    }
    chrome_trace_envelope(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, served: bool) -> RequestSpan {
        let mut traces = RequestTraces::new();
        traces.begin_request(id, 0, 1e-6 * id as f64);
        if served {
            traces.push_event(id, 2e-6, SpanEvent::BatchAdmit { batch: 0, size: 1 });
            traces.push_event(id, 2e-6, SpanEvent::CacheHit);
            traces.push_event(
                id,
                2e-6,
                SpanEvent::ShardLaunch {
                    shard: 0,
                    device_slot: 0,
                    seconds: 1e-6,
                },
            );
            traces.push_event(
                id,
                2e-6,
                SpanEvent::Retry {
                    attempts: 2,
                    faults: 1,
                },
            );
            traces.push_event(id, 3e-6, SpanEvent::Merge);
            traces.finish_request(id, 3e-6, 3e-6);
        } else {
            traces.reject_request(id, 1e-6 * id as f64, 9, ShedReason::QueueFull);
        }
        traces.into_spans().remove(0)
    }

    #[test]
    fn terminal_detection() {
        assert!(span(1, true).is_terminal());
        assert!(span(2, false).is_terminal());
        let mut traces = RequestTraces::new();
        traces.begin_request(3, 0, 0.0);
        assert!(!traces.spans()[0].is_terminal());
    }

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        assert_eq!(trace_id(1, 0, 0.5), trace_id(1, 0, 0.5));
        assert_ne!(trace_id(1, 0, 0.5), trace_id(2, 0, 0.5));
        assert_ne!(trace_id(1, 0, 0.5), trace_id(1, 1, 0.5));
    }

    #[test]
    fn into_spans_sorts_canonically() {
        let mut traces = RequestTraces::new();
        traces.begin_request(5, 0, 3e-6);
        traces.begin_request(1, 0, 1e-6);
        let spans = traces.into_spans();
        assert_eq!(spans[0].request_id, 1);
        assert_eq!(spans[1].request_id, 5);
    }

    #[test]
    fn chrome_trace_shapes_served_and_rejected() {
        let json = request_chrome_trace(&[span(1, true), span(2, false)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"dataset0\""));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"name\":\"queued\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(json.contains("\"name\":\"rejected\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"retry\",\"cat\":\"serve\",\"ph\":\"i\""));
        assert!(json.contains("\"attempts\":2,\"faults\":1"));
        gpu_sim::validate_chrome_trace(&json).expect("valid chrome trace");
    }
}
