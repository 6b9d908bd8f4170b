//! The micro-batched request engine: a deterministic discrete-event
//! simulation of a k-NN serving loop.
//!
//! Requests arrive at simulated timestamps, one query row each, tagged
//! with the dataset they query. The engine keeps one open batch per
//! dataset and closes a batch when it fills ([`ServeConfig::max_batch`])
//! or when its oldest request has waited [`ServeConfig::max_wait_s`];
//! closed batches execute serially on the device pool (devices inside
//! the pool still parallelize each batch's slabs, exactly like
//! `kneighbors_sharded`). Admission control (DESIGN §14) runs three
//! levers hard-to-soft: arrivals are shed outright once the backlog —
//! queued plus not-yet-completed requests — reaches
//! [`ServeConfig::max_queue`] (the HTTP-429 cliff), shed with typed
//! reasons past the [`AdmissionConfig`] watermarks or an empty
//! per-dataset token bucket, and *degraded* (routed through the
//! bloom-filter smem representation, byte-identical answers) past the
//! degrade watermark.
//!
//! Observability: every replay threads a [`RequestTraces`] collector
//! through the event loop (enqueue → batch-admit → cache hit/miss →
//! prepare → per-shard launch → retry/degrade → merge → reply) and
//! folds the outcome into the engine's [`MetricsRegistry`] — counters,
//! gauges, latency histograms, and per-dataset SLO burn (DESIGN §13).
//! Both are pure functions of the request set, so snapshots and traces
//! are byte-identical across host-thread counts and arrival
//! permutations.
//!
//! Determinism: batching only changes *when* a query runs and *which
//! rows share a tile*, and per-row results are independent of tile
//! composition (DESIGN §10); the engine funnels into the same execution
//! core as `kneighbors_sharded`, so every served response is
//! byte-identical to the one-shot answer for the same query row.

use crate::admission::{AdmissionConfig, AdmissionDecision, Rejection, ShedReason, TokenBucket};
use crate::cache::{CacheStats, PreparedCache};
use crate::fingerprint::fingerprint;
use crate::metrics::{percentile_sorted, MetricsRegistry};
use crate::segment::{merge_arms, AppliedOp, CompactionJob, MutableDataset};
use crate::slo::{assess, SloBudget, SloReport};
use crate::span::{RequestSpan, RequestTraces, SpanEvent};
use crate::wal::{WalError, WalRecord};
use kernels::{KernelError, SmemMode};
use neighbors::{IvfIndex, IvfParams, IvfPrepared, KnnResult, MultiDevice, NearestNeighbors};
use sparse::{CsrMatrix, Idx, Real};
use std::collections::BTreeMap;

/// How the engine generates candidates for each batch (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Brute-force scan of every index row (the default): answers are
    /// exact and degraded batches reroute through the bloom-filter smem
    /// representation, byte-identical by DESIGN §11.
    #[default]
    Exact,
    /// IVF approximate tier: a seeded [`IvfIndex`] is fitted (and
    /// cached) per dataset; batches probe `nprobe` posting lists and
    /// rerank them exactly. Degraded batches *halve* `nprobe` instead
    /// of switching smem — trading recall, never answer integrity
    /// (every returned pair carries an exact kernel distance,
    /// deterministic across host threads and pool sizes).
    Ivf {
        /// Posting lists to fit. `0` = auto (`ceil(sqrt(rows))`).
        nlist: usize,
        /// Lists probed per query (clamped to `[1, nlist]`;
        /// `nprobe == nlist` routes through the exact serving path, so
        /// it reproduces the exact oracle byte for byte).
        nprobe: usize,
    },
}

/// Batching and admission knobs for the request engine.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Neighbors returned per query.
    pub k: usize,
    /// A batch dispatches as soon as it holds this many requests.
    pub max_batch: usize,
    /// ... or as soon as its oldest request has waited this long
    /// (simulated seconds).
    pub max_wait_s: f64,
    /// Reject arrivals once this many admitted requests are still
    /// queued or executing.
    pub max_queue: usize,
    /// Serve without the prepared-index cache: every batch re-prepares
    /// (re-uploads, re-warms) its index from scratch. Exists to measure
    /// exactly what the cache buys; never faster.
    pub per_query_prepare: bool,
    /// SLO-driven admission control: per-dataset token buckets and
    /// degrade/shed watermarks ([`AdmissionConfig`]). `None` keeps only
    /// the hard `max_queue` cliff.
    pub admission: Option<AdmissionConfig>,
    /// Candidate-generation tier ([`IndexMode::Exact`] by default).
    pub index: IndexMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_batch: 8,
            max_wait_s: 200e-6,
            max_queue: 1024,
            per_query_prepare: false,
            admission: None,
            index: IndexMode::Exact,
        }
    }
}

/// One incoming query: a single row against dataset `dataset`.
#[derive(Debug, Clone)]
pub struct Request<T> {
    /// Caller-chosen request id, echoed in the response.
    pub id: u64,
    /// Which fitted dataset this query targets (index into the slice
    /// passed to [`ServeEngine::replay`]).
    pub dataset: usize,
    /// Simulated arrival time in seconds.
    pub arrival_s: f64,
    /// The query row (`1 × cols`).
    pub row: CsrMatrix<T>,
}

/// The served answer for one request.
#[derive(Debug, Clone)]
pub struct Response<T> {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Echo of [`Request::dataset`].
    pub dataset: usize,
    /// Neighbor indices, ascending by distance.
    pub indices: Vec<usize>,
    /// The corresponding distances.
    pub distances: Vec<T>,
    /// Simulated arrival time.
    pub arrival_s: f64,
    /// When the request's batch closed and was handed to the device.
    pub dispatch_s: f64,
    /// When the batch's kernels finished.
    pub completion_s: f64,
}

impl<T> Response<T> {
    /// Queue + execution latency in simulated seconds.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Aggregate outcome of a replay.
#[derive(Debug, Clone)]
pub struct ServeReport<T> {
    /// Served responses, in completion order (ties by id).
    pub responses: Vec<Response<T>>,
    /// Requests shed by admission control (typed reason per id), in
    /// arrival order.
    pub rejected: Vec<Rejection>,
    /// Batches executed.
    pub batches: usize,
    /// Simulated seconds spent executing kernels (excludes queue idle
    /// time; includes norm warming charged to cache misses).
    pub busy_seconds: f64,
    /// Last completion minus first arrival.
    pub makespan_s: f64,
    /// Cache counters accumulated during this replay.
    pub cache: CacheStats,
    /// Per-request spans in canonical `(arrival_s, id)` order; every
    /// span ends in a terminal event (reply or rejection).
    pub spans: Vec<RequestSpan>,
    /// SLO assessments for datasets with a configured
    /// [`SloBudget`] (see [`ServeEngine::set_slo`]), in dataset order.
    pub slo: Vec<SloReport>,
    /// Requests served through degraded (low-footprint) execution after
    /// their batch crossed the admission degrade watermark.
    pub degraded_requests: u64,
    /// Batches dispatched in degraded mode.
    pub degraded_batches: u64,
}

impl<T> ServeReport<T> {
    /// Served queries per simulated second.
    pub fn qps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.responses.len() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The `p`-th latency percentile in simulated seconds, using the
    /// workspace-wide nearest-rank definition
    /// ([`crate::metrics::nearest_rank`]) — the same rank rule the
    /// `metrics.v1` histograms apply, so the stderr summary and the
    /// registry always agree to within one histogram bucket width.
    ///
    /// Defined for every input: 0.0 with no served responses, the
    /// single latency with one. Never panics — simulated latencies are
    /// finite by construction and sorting uses [`f64::total_cmp`].
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.responses.iter().map(Response::latency_s).collect();
        lat.sort_by(f64::total_cmp);
        percentile_sorted(&lat, p)
    }

    /// Shed counts per typed reason, in [`ShedReason::ALL`] order —
    /// what the serve CLI's stderr summary prints so shedding is
    /// visible without a metrics snapshot.
    pub fn shed_counts(&self) -> [(ShedReason, usize); 3] {
        ShedReason::ALL.map(|reason| {
            (
                reason,
                self.rejected.iter().filter(|r| r.reason == reason).count(),
            )
        })
    }

    /// Fraction of arrivals shed (0.0 when nothing arrived).
    pub fn shed_fraction(&self) -> f64 {
        let arrived = self.responses.len() + self.rejected.len();
        if arrived == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / arrived as f64
        }
    }
}

/// Stacks single-row queries into one `rows × cols` batch matrix.
fn vstack<T: Real>(rows: &[&CsrMatrix<T>], cols: usize) -> CsrMatrix<T> {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    let mut indices: Vec<Idx> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    indptr.push(0);
    for r in rows {
        indices.extend_from_slice(r.indices());
        values.extend_from_slice(r.values());
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(rows.len(), cols, indptr, indices, values)
        .expect("stacking valid rows preserves CSR invariants")
}

/// The serving loop: fitted estimators, a device pool, a prepared-index
/// cache, the batching configuration, and the metrics registry every
/// replay folds its signals into.
pub struct ServeEngine<T> {
    multi: MultiDevice,
    cache: PreparedCache<T>,
    config: ServeConfig,
    metrics: MetricsRegistry,
    slos: BTreeMap<usize, SloBudget>,
    /// Fitted IVF artifacts per dataset id (IVF mode only).
    ivf: BTreeMap<usize, IvfEntry<T>>,
}

/// One cached IVF artifact: the fitted index plus its posting lists
/// prepared for the engine's pool, keyed by (content fingerprint,
/// `nlist`, pool size) so refits and reshards are detected exactly like
/// [`PreparedCache`] misses.
struct IvfEntry<T> {
    key: (u64, usize, usize),
    index: IvfIndex<T>,
    prepared: IvfPrepared<T>,
}

/// What one replay serves: borrowed fitted datasets (one per dataset
/// id), or a single [`MutableDataset`] fed by a WAL write stream.
enum Source<'s, 'd, T> {
    Fitted(&'s [NearestNeighbors<T>]),
    Mutable(&'s mut Ingest<'d, T>),
}

#[derive(Default)]
struct OpenBatch<T> {
    requests: Vec<Request<T>>,
    /// Sticky: set when any member was admitted past the degrade
    /// watermark; the whole batch then executes in degraded mode.
    degraded: bool,
}

/// Mutable state of one replay's event loop, bundled so
/// [`ServeEngine::dispatch`] stays a readable call.
#[derive(Default)]
struct ReplayState<T> {
    open: Vec<OpenBatch<T>>,
    responses: Vec<Response<T>>,
    rejected: Vec<Rejection>,
    /// (completion, count) of still-executing batches.
    inflight: Vec<(f64, usize)>,
    device_free_at: f64,
    batches: usize,
    busy_seconds: f64,
    traces: RequestTraces,
    retries: u64,
    degrades: u64,
    faults: u64,
    shard_launches: u64,
    prepares: u64,
    /// Per-dataset admission token buckets (empty without admission).
    buckets: Vec<TokenBucket>,
    /// Lazily-built degraded-mode clones of each dataset's base
    /// estimator (same fitted index, bloom-filter smem; DESIGN §14),
    /// tagged with the base generation they were cloned from.
    degraded_fit: Vec<Option<(u64, NearestNeighbors<T>)>>,
    degraded_requests: u64,
    degraded_batches: u64,
    /// `ann.*` accounting (IVF mode only; all zero in exact mode).
    ann_searches: u64,
    ann_probes: u64,
    ann_shortlist_rows: u64,
    ann_fits: u64,
    ann_degraded_nprobe: u64,
}

impl<T: Real> ReplayState<T> {
    fn new(datasets: usize, admission: Option<&AdmissionConfig>) -> Self {
        Self {
            open: (0..datasets).map(|_| OpenBatch::default()).collect(),
            buckets: admission
                .map(|cfg| vec![TokenBucket::new(cfg); datasets])
                .unwrap_or_default(),
            degraded_fit: (0..datasets).map(|_| None).collect(),
            ..Self::default()
        }
    }
}

/// A closed batch on its way to the device.
struct Batch<'b, T> {
    requests: &'b [Request<T>],
    /// The members' rows stacked into one query matrix.
    query: CsrMatrix<T>,
    dataset: usize,
    close_s: f64,
    /// When the device picks the batch up (`close_s` or later).
    start_s: f64,
}

impl<T> Batch<'_, T> {
    /// Appends `event` at `t_s` to every member's span.
    fn emit(&self, traces: &mut RequestTraces, t_s: f64, event: SpanEvent) {
        for req in self.requests {
            traces.push_event(req.id, t_s, event.clone());
        }
    }
}

/// `nn` forced onto the bloom-filter smem representation — the
/// low-footprint end of the Hybrid→Hash→Bloom→NaiveCsr cascade. Every
/// strategy produces bit-identical distances (DESIGN §11), so degrading
/// trades occupancy headroom, never answer bytes.
fn bloom<T: Real>(nn: NearestNeighbors<T>) -> NearestNeighbors<T> {
    let mut opts = *nn.pairwise_options();
    opts.smem_mode = SmemMode::Bloom;
    nn.with_options(opts)
}

impl<T: Real> ServeEngine<T> {
    /// Creates an engine over `multi` with the given config and a cache
    /// budgeted from the pool's device spec
    /// ([`PreparedCache::for_pool`]).
    pub fn new(multi: MultiDevice, config: ServeConfig) -> Self {
        let cache = PreparedCache::for_pool(&multi);
        Self {
            multi,
            cache,
            config,
            metrics: MetricsRegistry::new(),
            slos: BTreeMap::new(),
            ivf: BTreeMap::new(),
        }
    }

    /// Replaces the cache with one of an explicit byte budget.
    pub fn with_cache_budget(mut self, budget_bytes: usize) -> Self {
        self.cache = PreparedCache::new(budget_bytes);
        self
    }

    /// Sets the latency SLO for `dataset` (builder form of
    /// [`Self::set_slo`]).
    pub fn with_slo(mut self, dataset: usize, budget: SloBudget) -> Self {
        self.set_slo(dataset, budget);
        self
    }

    /// Sets the latency SLO for `dataset`: subsequent replays assess
    /// the budget over that dataset's responses, report it in
    /// [`ServeReport::slo`], and record burn signals in the registry.
    pub fn set_slo(&mut self, dataset: usize, budget: SloBudget) {
        self.slos.insert(dataset, budget);
    }

    /// The metrics registry accumulated over every replay so far.
    /// Counters accumulate across replays; gauges reflect the most
    /// recent replay; histograms accumulate observations.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Replays a request stream against `fitted` estimators (one per
    /// dataset id; each must already be [`NearestNeighbors::fit`]).
    /// Requests are processed in `(arrival_s, id)` order regardless of
    /// input order, so a replay is a pure function of its request set.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any batch produces, or a
    /// [`KernelError::ShapeMismatch`] when a request's dataset id is
    /// out of range.
    pub fn replay(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        requests: &[Request<T>],
    ) -> Result<ServeReport<T>, KernelError> {
        self.serve(&mut Source::Fitted(fitted), &[], requests)
    }

    /// Replays a merged stream of WAL writes and query requests against
    /// a [`MutableDataset`] (DESIGN §16). Queries are answered from two
    /// arms — the prepared base (through the generation-keyed cache)
    /// and a brute-force scan of the fresh segment — tombstone-masked
    /// and merged under the canonical `cmp_dist_idx` order into
    /// *live-rank* coordinates, so every response is byte-identical to
    /// a one-shot `kneighbors_sharded` over
    /// [`MutableDataset::rebuild`]'s matrix at the same instant.
    ///
    /// Semantics of time: a batch is answered against the dataset state
    /// at its dispatch instant, and every write first flushes the open
    /// batch (queries admitted before a write never see it). Once
    /// `dataset.pending_ops()` reaches `compact_threshold` (0 disables
    /// compaction), a background compaction snapshots the live state,
    /// re-prepares it as generation+1 off the serving lane (its warm
    /// time never blocks a batch), and atomically swaps in at the first
    /// event on or after its ready time. `proto` supplies the metric /
    /// device / kernel options; it does not need to be fitted.
    ///
    /// # Errors
    ///
    /// Returns kernel errors from either arm, or
    /// [`KernelError::ShapeMismatch`] when a request targets a dataset
    /// other than 0 (mutable replays serve exactly one dataset).
    /// Malformed WAL records are *not* errors: they are counted,
    /// reported in [`IngestReport::wal_errors`], and skipped — the log
    /// position advances so one poison record cannot wedge the stream.
    ///
    /// # Panics
    ///
    /// Panics in IVF mode: the approximate tier over mutable datasets
    /// is ROADMAP work, and serving it would break the byte-identity
    /// contract this method is defined by.
    pub fn replay_ingest(
        &mut self,
        proto: &NearestNeighbors<T>,
        dataset: &mut MutableDataset<T>,
        writes: &[TimedRecord<T>],
        requests: &[Request<T>],
        compact_threshold: usize,
    ) -> Result<IngestReport<T>, KernelError> {
        assert!(
            matches!(self.config.index, IndexMode::Exact),
            "mutable ingest serves the exact tier only"
        );
        let mut wseq: Vec<&TimedRecord<T>> = writes.iter().collect();
        wseq.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then(a.record.seq.cmp(&b.record.seq))
        });
        let mut ing = Ingest {
            proto,
            dataset,
            compact_threshold,
            pending: None,
            base_fit: None,
            wal: WalCounts::default(),
            wal_errors: Vec::new(),
            compactions_started: 0,
            compactions: Vec::new(),
            fresh_scans: 0,
        };
        let serve = self.serve(&mut Source::Mutable(&mut ing), &wseq, requests)?;
        self.record_ingest(&ing);
        // A compaction still in flight at stream end stays pending: the
        // report's started/landed counts record the difference.
        Ok(IngestReport {
            serve,
            wal: ing.wal,
            wal_errors: ing.wal_errors,
            compactions_started: ing.compactions_started,
            compactions: ing.compactions,
            final_generation: ing.dataset.generation(),
        })
    }

    /// The one discrete-event loop behind [`Self::replay`] and
    /// [`Self::replay_ingest`] (`writes` is empty for fitted sources).
    /// The next event is the earliest of an open batch's wait deadline
    /// (ties by dataset id), a write, and an arrival; equal times
    /// resolve deadline → write → arrival, so a same-instant write
    /// still flushes the batch of earlier arrivals before mutating the
    /// dataset, and an arrival at a deadline joins the next batch.
    fn serve(
        &mut self,
        src: &mut Source<'_, '_, T>,
        writes: &[&TimedRecord<T>],
        requests: &[Request<T>],
    ) -> Result<ServeReport<T>, KernelError> {
        let stats_before = self.cache.stats();
        let mut order: Vec<&Request<T>> = requests.iter().collect();
        order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

        let datasets = match src {
            Source::Fitted(fitted) => fitted.len(),
            Source::Mutable(_) => 1,
        };
        let admission = self.config.admission;
        let mut st = ReplayState::new(datasets, admission.as_ref());
        let (mut nq, mut nw) = (0usize, 0usize);
        let not_after = |t: f64, other: Option<f64>| other.is_none_or(|o| t <= o);

        loop {
            let deadline = st
                .open
                .iter()
                .enumerate()
                .filter_map(|(d, b)| {
                    b.requests
                        .first()
                        .map(|r| (r.arrival_s + self.config.max_wait_s, d))
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let write = writes.get(nw).map(|w| w.at_s);
            let arrival = order.get(nq).map(|r| r.arrival_s);

            if let Some((t, d)) =
                deadline.filter(|&(t, _)| not_after(t, write) && not_after(t, arrival))
            {
                self.dispatch(src, &mut st, d, t)?;
            } else if let Some(at) = write.filter(|&w| not_after(w, arrival)) {
                let w = writes[nw];
                nw += 1;
                // Read-your-writes boundary: queries already admitted
                // are answered against pre-write state (the flush also
                // lands a ready compaction).
                self.dispatch(src, &mut st, 0, at)?;
                if let Source::Mutable(ing) = src {
                    self.apply_write(ing, w)?;
                }
            } else if let Some(at) = arrival {
                let r = order[nq];
                nq += 1;
                if r.dataset >= datasets {
                    return Err(KernelError::ShapeMismatch {
                        a_cols: r.dataset,
                        b_cols: datasets,
                    });
                }
                st.inflight.retain(|&(done, _)| done > at);
                let backlog: usize = st.open.iter().map(|b| b.requests.len()).sum::<usize>()
                    + st.inflight.iter().map(|&(_, n)| n).sum::<usize>();
                st.traces.begin_request(r.id, r.dataset, r.arrival_s);
                let d = r.dataset;
                let decision = match admission {
                    Some(cfg) => st.buckets[d].admit(&cfg, at, backlog, self.config.max_queue),
                    None if backlog >= self.config.max_queue => {
                        AdmissionDecision::Shed(ShedReason::QueueFull)
                    }
                    None => AdmissionDecision::Admit,
                };
                match decision {
                    AdmissionDecision::Shed(reason) => {
                        st.rejected.push(Rejection { id: r.id, reason });
                        st.traces.reject_request(r.id, at, backlog, reason);
                        continue;
                    }
                    AdmissionDecision::Degrade => st.open[d].degraded = true,
                    AdmissionDecision::Admit => {}
                }
                st.open[d].requests.push(r.clone());
                if st.open[d].requests.len() >= self.config.max_batch {
                    self.dispatch(src, &mut st, d, at)?;
                }
            } else {
                break;
            }
        }

        st.responses.sort_by(|a, b| {
            a.completion_s
                .total_cmp(&b.completion_s)
                .then(a.id.cmp(&b.id))
        });
        let first_arrival = order.first().map(|r| r.arrival_s).unwrap_or(0.0);
        let makespan_s = st
            .responses
            .iter()
            .map(|r| r.completion_s)
            .fold(0.0f64, f64::max)
            - first_arrival;
        let after = self.cache.stats();
        let mut report = ServeReport {
            responses: std::mem::take(&mut st.responses),
            rejected: std::mem::take(&mut st.rejected),
            batches: st.batches,
            busy_seconds: st.busy_seconds,
            makespan_s: makespan_s.max(0.0),
            cache: CacheStats {
                hits: after.hits - stats_before.hits,
                misses: after.misses - stats_before.misses,
                evictions: after.evictions - stats_before.evictions,
                eviction_probes: after.eviction_probes - stats_before.eviction_probes,
            },
            spans: std::mem::take(&mut st.traces).into_spans(),
            slo: Vec::new(),
            degraded_requests: st.degraded_requests,
            degraded_batches: st.degraded_batches,
        };
        self.record_replay(&st, &mut report);
        Ok(report)
    }

    /// Folds one replay's outcome into the engine's registry and
    /// assesses configured SLOs (filling [`ServeReport::slo`]).
    fn record_replay(&mut self, st: &ReplayState<T>, report: &mut ServeReport<T>) {
        let m = &mut self.metrics;
        let served = report.responses.len() as u64;
        m.inc(
            "serve.requests_arrived_total",
            served + report.rejected.len() as u64,
        );
        m.inc("serve.requests_served_total", served);
        m.inc(
            "serve.requests_rejected_total",
            report.rejected.len() as u64,
        );
        for (reason, n) in report.shed_counts() {
            m.inc(&format!("serve.shed_{}_total", reason.name()), n as u64);
        }
        m.inc("serve.degraded_requests_total", report.degraded_requests);
        m.inc("serve.degraded_batches_total", report.degraded_batches);
        m.inc("serve.batches_total", report.batches as u64);
        m.inc("serve.cache_hits_total", report.cache.hits);
        m.inc("serve.cache_misses_total", report.cache.misses);
        m.inc("serve.cache_evictions_total", report.cache.evictions);
        m.inc("serve.retries_total", st.retries);
        m.inc("serve.degrades_total", st.degrades);
        m.inc("serve.faults_absorbed_total", st.faults);
        m.inc("serve.shard_launches_total", st.shard_launches);
        m.inc("serve.prepares_total", st.prepares);

        // `ann.*` only exists in IVF mode, so exact-mode snapshots are
        // byte-identical to pre-IVF builds.
        if st.ann_searches > 0 {
            m.inc("ann.searches_total", st.ann_searches);
            m.inc("ann.probes_total", st.ann_probes);
            m.inc("ann.shortlist_rows_total", st.ann_shortlist_rows);
            m.inc("ann.fits_total", st.ann_fits);
            m.inc("ann.degraded_nprobe_total", st.ann_degraded_nprobe);
            if let IndexMode::Ivf { nprobe, .. } = self.config.index {
                m.set_gauge("ann.nprobe", nprobe.max(1) as f64);
            }
        }

        let occupancy = if report.batches > 0 && self.config.max_batch > 0 {
            served as f64 / (report.batches as f64 * self.config.max_batch as f64)
        } else {
            0.0
        };
        m.set_gauge("serve.batch_occupancy", occupancy);
        m.set_gauge("serve.qps", report.qps());
        m.set_gauge("serve.busy_seconds", report.busy_seconds);
        m.set_gauge("serve.makespan_s", report.makespan_s);
        m.set_gauge(
            "serve.cache_resident_bytes",
            self.cache.resident_bytes() as f64,
        );
        m.set_gauge("serve.cache_budget_bytes", self.cache.budget_bytes() as f64);
        m.set_gauge("serve.p50_latency_s", report.latency_percentile(50.0));
        m.set_gauge("serve.p99_latency_s", report.latency_percentile(99.0));

        // Histograms record in canonical (completion, id) order, so
        // float sums are reproducible bit-for-bit.
        for r in &report.responses {
            m.observe("serve.latency_s", r.latency_s());
            m.observe("serve.queue_wait_s", r.dispatch_s - r.arrival_s);
            m.observe("serve.exec_s", r.completion_s - r.dispatch_s);
            m.observe(&format!("serve.d{}.latency_s", r.dataset), r.latency_s());
        }

        for (&dataset, &budget) in &self.slos {
            let pairs: Vec<(f64, f64)> = report
                .responses
                .iter()
                .filter(|r| r.dataset == dataset)
                .map(|r| (r.completion_s, r.latency_s()))
                .collect();
            let slo = assess(dataset, budget, &pairs);
            slo.record(m);
            report.slo.push(slo);
        }
    }

    /// Folds one ingest replay's `wal.*` / `compact.*` signals into the
    /// registry. Emitted only by ingest replays, so immutable-serving
    /// snapshots are byte-identical to pre-WAL builds.
    fn record_ingest(&mut self, ing: &Ingest<'_, T>) {
        let m = &mut self.metrics;
        m.inc("wal.records_appended_total", ing.wal.appended);
        m.inc("wal.records_applied_total", ing.wal.applied);
        m.inc("wal.records_rejected_total", ing.wal.rejected);
        m.inc("wal.inserts_total", ing.wal.inserts);
        m.inc("wal.deletes_total", ing.wal.deletes);
        m.inc("wal.fresh_scans_total", ing.fresh_scans);
        m.inc("compact.started_total", ing.compactions_started);
        m.inc("compact.completed_total", ing.compactions.len() as u64);
        for c in &ing.compactions {
            m.inc("compact.rows_total", c.rows as u64);
            m.inc(
                "compact.tombstones_cleared_total",
                c.cleared_tombstones as u64,
            );
            m.inc("compact.folded_fresh_total", c.folded_fresh as u64);
            m.observe("compact.seconds", c.seconds);
        }
        m.set_gauge("wal.fresh_rows", ing.dataset.fresh_rows() as f64);
        m.set_gauge("wal.tombstones", ing.dataset.tombstone_count() as f64);
        m.set_gauge("wal.live_rows", ing.dataset.live_rows() as f64);
        m.set_gauge("compact.generation", ing.dataset.generation() as f64);
    }

    /// Applies one WAL write (the caller has already flushed the open
    /// batch) and starts a background compaction once the dataset's
    /// pending deltas reach the threshold.
    fn apply_write(
        &mut self,
        ing: &mut Ingest<'_, T>,
        w: &TimedRecord<T>,
    ) -> Result<(), KernelError> {
        ing.wal.appended += 1;
        match ing.dataset.apply(&w.record) {
            Ok(AppliedOp::Inserted { .. }) => {
                ing.wal.applied += 1;
                ing.wal.inserts += 1;
            }
            Ok(AppliedOp::Deleted { .. }) => {
                ing.wal.applied += 1;
                ing.wal.deletes += 1;
            }
            Err(e) => {
                ing.wal.rejected += 1;
                ing.wal_errors.push((w.record.seq, e));
            }
        }
        if ing.compact_threshold > 0
            && ing.pending.is_none()
            && ing.dataset.pending_ops() >= ing.compact_threshold
        {
            self.start_compaction(ing, w.at_s)?;
        }
        Ok(())
    }

    /// Snapshots the dataset and pre-warms the next generation's shards
    /// into the cache under its generation-stamped key. The warm time
    /// is the compaction's duration — spent on the maintenance lane,
    /// not the serving lane — and the swap lands at the first event on
    /// or after `started + seconds`.
    fn start_compaction(&mut self, ing: &mut Ingest<'_, T>, t: f64) -> Result<(), KernelError> {
        let job = ing.dataset.begin_compaction();
        let (nn, seconds) = if job.matrix.rows() > 0 {
            let nn = ing.proto.clone().fit(job.matrix.clone());
            let (_, outcome) = self
                .cache
                .lookup_generation(&nn, &self.multi, job.generation)?;
            (Some(nn), outcome.warm_seconds)
        } else {
            // Compacting to empty: nothing to upload or warm.
            (None, 0.0)
        };
        ing.compactions_started += 1;
        ing.pending = Some(PendingCompaction {
            ready_s: t + seconds,
            started_s: t,
            seconds,
            job,
            nn,
        });
        Ok(())
    }

    /// Closes `dataset`'s open batch at `close_s` and executes it: one
    /// arm for a fitted dataset (exact tier or IVF), or a base arm plus
    /// a fresh-segment scan, tombstone-masked and merged into live-rank
    /// coordinates, for a mutable one. Charges the device lane, records
    /// shard/retry/degrade accounting and spans, and emits responses.
    fn dispatch(
        &mut self,
        src: &mut Source<'_, '_, T>,
        st: &mut ReplayState<T>,
        dataset: usize,
        close_s: f64,
    ) -> Result<(), KernelError> {
        if let Source::Mutable(ing) = src {
            // Serve against the newest landed generation first.
            ing.land_ready_compaction(close_s);
        }
        let taken = std::mem::take(&mut st.open[dataset].requests);
        let degraded = std::mem::replace(&mut st.open[dataset].degraded, false);
        if taken.is_empty() {
            return Ok(());
        }
        let cols = match src {
            Source::Fitted(fitted) => fitted[dataset].index().expect("fitted").cols(),
            Source::Mutable(ing) => ing.dataset.cols(),
        };
        let rows: Vec<&CsrMatrix<T>> = taken.iter().map(|r| &r.row).collect();
        let batch = Batch {
            requests: &taken,
            query: vstack(&rows, cols),
            dataset,
            close_s,
            start_s: close_s.max(st.device_free_at),
        };
        batch.emit(
            &mut st.traces,
            close_s,
            SpanEvent::BatchAdmit {
                batch: st.batches,
                size: taken.len(),
            },
        );

        // Degraded exact batches run through the bloom-filter clone of
        // the base estimator (`base_arm`); IVF batches degrade by
        // lowering `nprobe` instead (`ivf_arm`).
        let ivf_mode = match self.config.index {
            IndexMode::Ivf { nlist, nprobe } => Some((nlist, nprobe)),
            IndexMode::Exact => None,
        };
        if degraded {
            st.degraded_batches += 1;
            st.degraded_requests += taken.len() as u64;
            if ivf_mode.is_none() {
                batch.emit(
                    &mut st.traces,
                    close_s,
                    SpanEvent::AdmissionDegrade {
                        strategy: "smem=Bloom".to_string(),
                    },
                );
            }
        }

        let k = self.config.k;
        let mut prep_s = 0.0;
        let mut generation = None;
        let (mut arms, merged) = match src {
            Source::Fitted(fitted) => {
                let nn = &fitted[dataset];
                let (arm, prep) = match ivf_mode {
                    None => self.base_arm(st, &batch, nn, 0, k, degraded)?,
                    Some((nlist, nprobe)) => {
                        self.ivf_arm(st, &batch, nn, nlist, nprobe, degraded)?
                    }
                };
                prep_s = prep;
                (vec![arm], None)
            }
            Source::Mutable(ing) => {
                let ds = &*ing.dataset;
                let plan = ds.rank_plan();
                generation = Some(ds.generation());
                // Base arm: over-fetch k + dead so tombstone masking can
                // never starve the merge, through the generation-keyed
                // cache.
                let base = if ds.base().rows() > 0 && k > 0 {
                    if !matches!(&ing.base_fit, Some((g, _)) if *g == ds.generation()) {
                        let nn = ing.proto.clone().fit(ds.base().clone());
                        ing.base_fit = Some((ds.generation(), nn));
                    }
                    let (_, base_nn) = ing.base_fit.as_ref().expect("fitted above");
                    let k_base = (k + plan.base_dead).min(ds.base().rows());
                    let (arm, prep) =
                        self.base_arm(st, &batch, base_nn, ds.generation(), k_base, degraded)?;
                    prep_s = prep;
                    Some(arm)
                } else {
                    None
                };
                // Fresh arm: brute-force scan, re-uploaded every batch —
                // that is the cost compaction exists to bound.
                let fresh = if ds.fresh_rows() > 0 && k > 0 {
                    ing.fresh_scans += 1;
                    let mut fresh_nn = ing.proto.clone().fit(ds.fresh_matrix());
                    if degraded {
                        fresh_nn = bloom(fresh_nn);
                    }
                    let k_fresh = (k + plan.fresh_dead).min(ds.fresh_rows());
                    batch.emit(
                        &mut st.traces,
                        close_s,
                        SpanEvent::FreshScan {
                            rows: ds.fresh_rows(),
                            tombstoned: plan.fresh_dead,
                        },
                    );
                    Some(fresh_nn.kneighbors_sharded(&self.multi, &batch.query, k_fresh)?)
                } else {
                    None
                };
                let merged = merge_arms(
                    k,
                    &plan,
                    base.as_ref()
                        .map(|r| (r.indices.as_slice(), r.distances.as_slice())),
                    fresh
                        .as_ref()
                        .map(|r| (r.indices.as_slice(), r.distances.as_slice())),
                    taken.len(),
                );
                (base.into_iter().chain(fresh).collect(), Some(merged))
            }
        };

        let start_s = batch.start_s;
        let mut exec_seconds = prep_s;
        for result in &arms {
            exec_seconds += result.sim_seconds;
            for (slot, secs) in result.per_device_seconds.iter().enumerate() {
                st.shard_launches += 1;
                batch.emit(
                    &mut st.traces,
                    start_s,
                    SpanEvent::ShardLaunch {
                        shard: slot,
                        device_slot: slot,
                        seconds: *secs,
                    },
                );
            }
            let resilience = &result.resilience;
            let max_attempts = resilience.iter().map(|r| r.attempts).max().unwrap_or(1);
            let batch_faults: usize = resilience.iter().map(|r| r.faults_absorbed.len()).sum();
            st.retries += resilience
                .iter()
                .map(|r| r.attempts.saturating_sub(1) as u64)
                .sum::<u64>();
            st.degrades += resilience.iter().filter(|r| r.downgraded).count() as u64;
            st.faults += batch_faults as u64;
            if max_attempts > 1 || batch_faults > 0 {
                batch.emit(
                    &mut st.traces,
                    start_s,
                    SpanEvent::Retry {
                        attempts: max_attempts,
                        faults: batch_faults,
                    },
                );
            }
            if let Some(r) = resilience.iter().find(|r| r.downgraded) {
                batch.emit(
                    &mut st.traces,
                    start_s,
                    SpanEvent::Degrade {
                        strategy: format!("{:?}", r.final_strategy),
                    },
                );
            }
        }
        let (indices, distances) = match merged {
            Some(answer) => answer,
            // A fitted batch has exactly one arm.
            None => arms
                .pop()
                .map(|r| (r.indices, r.distances))
                .expect("one arm"),
        };

        let completion_s = start_s + exec_seconds;
        st.device_free_at = completion_s;
        st.busy_seconds += exec_seconds;
        st.batches += 1;
        st.inflight.push((completion_s, taken.len()));

        for ((req, indices), distances) in taken.iter().zip(indices).zip(distances) {
            if let Some(generation) = generation {
                st.traces
                    .push_event(req.id, completion_s, SpanEvent::SegmentMerge { generation });
            }
            st.traces.push_event(req.id, completion_s, SpanEvent::Merge);
            st.traces
                .finish_request(req.id, completion_s, completion_s - req.arrival_s);
            st.responses.push(Response {
                id: req.id,
                dataset,
                indices,
                distances,
                arrival_s: req.arrival_s,
                dispatch_s: start_s,
                completion_s,
            });
        }
        Ok(())
    }

    /// Runs a batch against a prepared base index — the exact tier, the
    /// IVF full probe, and a mutable dataset's base segment all serve
    /// through here. Under [`ServeConfig::per_query_prepare`] the batch
    /// re-prepares the index from scratch (no cache, so no cache
    /// spans); otherwise it looks `nn` up under `generation` in the
    /// prepared cache, emits `CacheHit` or `CacheMiss` + `Prepare`, and
    /// returns the miss's warm seconds beside the result. `bloomed`
    /// runs the batch through the dataset's degraded-mode clone, built
    /// once per (dataset, generation): same prepared shards, same bytes.
    fn base_arm(
        &mut self,
        st: &mut ReplayState<T>,
        batch: &Batch<'_, T>,
        nn: &NearestNeighbors<T>,
        generation: u64,
        k: usize,
        bloomed: bool,
    ) -> Result<(KnnResult<T>, f64), KernelError> {
        let exec_nn = if bloomed {
            let slot = &mut st.degraded_fit[batch.dataset];
            if !matches!(slot, Some((g, _)) if *g == generation) {
                *slot = Some((generation, bloom(nn.clone())));
            }
            &slot.as_ref().expect("built above").1
        } else {
            nn
        };
        if self.config.per_query_prepare {
            st.prepares += 1;
            let result = exec_nn.kneighbors_sharded(&self.multi, &batch.query, k)?;
            return Ok((result, 0.0));
        }
        let (shards, outcome) = self.cache.lookup_generation(nn, &self.multi, generation)?;
        if outcome.hit {
            batch.emit(&mut st.traces, batch.close_s, SpanEvent::CacheHit);
        } else {
            st.prepares += 1;
            batch.emit(
                &mut st.traces,
                batch.close_s,
                SpanEvent::CacheMiss {
                    evictions: outcome.evictions,
                },
            );
            batch.emit(
                &mut st.traces,
                batch.start_s,
                SpanEvent::Prepare {
                    seconds: outcome.warm_seconds,
                },
            );
        }
        let result = exec_nn.kneighbors_prepared(&shards, &batch.query, k)?;
        Ok((result, outcome.warm_seconds))
    }

    /// The IVF tier's batch body: looks up (or fits, charging the fit
    /// as a prepare) the dataset's IVF artifact, halves `nprobe` for a
    /// degraded batch, and probes — or, at full probe, serves through
    /// [`Self::base_arm`], the exact tier's artifact and execution
    /// core, so the bytes equal the exact oracle's by construction
    /// (DESIGN §15). Returns the result and its prepare seconds.
    fn ivf_arm(
        &mut self,
        st: &mut ReplayState<T>,
        batch: &Batch<'_, T>,
        nn: &NearestNeighbors<T>,
        nlist: usize,
        nprobe: usize,
        degraded: bool,
    ) -> Result<(KnnResult<T>, f64), KernelError> {
        // The first batch to touch a dataset (or to see it refitted or
        // resharded) pays the k-means fit, the same way the first exact
        // batch pays norm warming.
        let index = nn.index().expect("fit() the estimator before serving");
        let nlist = match nlist {
            0 => (index.rows() as f64).sqrt().ceil() as usize,
            n => n,
        };
        let key = (fingerprint(index), nlist.max(1), self.multi.len());
        let mut prep_s = 0.0;
        if self.ivf.get(&batch.dataset).is_some_and(|e| e.key == key) {
            batch.emit(&mut st.traces, batch.close_s, SpanEvent::CacheHit);
        } else {
            let params = IvfParams {
                nlist: key.1,
                ..IvfParams::default()
            };
            let index = IvfIndex::fit(nn, params)?;
            let prepared = index.prepare(&self.multi);
            let fit_seconds = index.fit_sim_seconds();
            st.prepares += 1;
            st.ann_fits += 1;
            prep_s += fit_seconds;
            batch.emit(
                &mut st.traces,
                batch.close_s,
                SpanEvent::CacheMiss { evictions: 0 },
            );
            batch.emit(
                &mut st.traces,
                batch.start_s,
                SpanEvent::Prepare {
                    seconds: fit_seconds,
                },
            );
            let entry = IvfEntry {
                key,
                index,
                prepared,
            };
            self.ivf.insert(batch.dataset, entry);
        }
        // Degrade cascade, IVF edition: under admission pressure the
        // batch probes half as many posting lists — visible in `ann.*`
        // counters and the span stream, recovered the moment pressure
        // lifts.
        let nprobe_eff = if degraded {
            st.ann_degraded_nprobe += 1;
            let lowered = (nprobe.max(1) / 2).max(1);
            batch.emit(
                &mut st.traces,
                batch.close_s,
                SpanEvent::AdmissionDegrade {
                    strategy: format!("nprobe={lowered}"),
                },
            );
            lowered
        } else {
            nprobe.max(1)
        };
        st.ann_searches += 1;
        let ivf = &self.ivf[&batch.dataset];
        if nprobe_eff >= ivf.index.nlist() {
            // Full probe: gathered posting-list slabs could only
            // reproduce the exact answer to re-association precision.
            let rows = batch.query.rows();
            st.ann_probes += (rows * ivf.index.nlist()) as u64;
            st.ann_shortlist_rows += (rows * ivf.index.index_rows()) as u64;
            let (result, warm_s) = self.base_arm(st, batch, nn, 0, self.config.k, false)?;
            return Ok((result, prep_s + warm_s));
        }
        let k = self.config.k;
        let ans = ivf
            .index
            .search_prepared(&ivf.prepared, &batch.query, k, nprobe_eff)?;
        st.ann_probes += ans.stats.probes as u64;
        st.ann_shortlist_rows += ans.stats.shortlist_rows as u64;
        Ok((ans.knn, prep_s))
    }
}

/// A WAL record stamped with its simulated arrival time, for
/// [`ServeEngine::replay_ingest`]'s merged write/query event stream.
#[derive(Debug, Clone)]
pub struct TimedRecord<T> {
    /// When the write lands on the sim clock.
    pub at_s: f64,
    /// The record itself (its `seq` orders same-instant writes).
    pub record: WalRecord<T>,
}

/// WAL bookkeeping for one ingest replay. Conservation law (enforced
/// by [`crate::validate_metrics`]): `appended = applied + rejected`, and
/// `applied = inserts + deletes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounts {
    /// Records presented to the engine.
    pub appended: u64,
    /// Records that mutated the dataset.
    pub applied: u64,
    /// Records rejected with a typed [`WalError`].
    pub rejected: u64,
    /// Applied inserts.
    pub inserts: u64,
    /// Applied deletes.
    pub deletes: u64,
}

/// One landed compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionRecord {
    /// The generation the compaction produced.
    pub generation: u64,
    /// Sim time the snapshot was taken.
    pub started_s: f64,
    /// Sim time the new generation became servable.
    pub ready_s: f64,
    /// Simulated seconds of re-prepare work (upload + norm warming of
    /// the new base), spent off the serving lane.
    pub seconds: f64,
    /// Rows in the new base.
    pub rows: usize,
    /// Tombstones cleared because their rows were compacted away.
    pub cleared_tombstones: usize,
    /// Fresh rows folded into the new base.
    pub folded_fresh: usize,
}

/// Outcome of one [`ServeEngine::replay_ingest`] call.
#[derive(Debug, Clone)]
pub struct IngestReport<T> {
    /// The serving-side report (responses in live-rank coordinates).
    pub serve: ServeReport<T>,
    /// WAL bookkeeping.
    pub wal: WalCounts,
    /// Typed rejects, in log order: `(seq, error)`.
    pub wal_errors: Vec<(u64, WalError)>,
    /// Compactions started (landed or still in flight at stream end).
    pub compactions_started: u64,
    /// Landed compactions, in landing order.
    pub compactions: Vec<CompactionRecord>,
    /// The dataset's generation when the stream ended.
    pub final_generation: u64,
}

impl<T> IngestReport<T> {
    /// The served responses, in completion order (live-rank indices).
    pub fn responses(&self) -> &[Response<T>] {
        &self.serve.responses
    }
}

/// An in-flight compaction: the frozen snapshot plus the sim time its
/// re-prepared base becomes swappable.
struct PendingCompaction<T> {
    job: CompactionJob<T>,
    /// The new base, already fitted (None for an empty base).
    nn: Option<NearestNeighbors<T>>,
    started_s: f64,
    seconds: f64,
    ready_s: f64,
}

/// A mutable dataset and its ingest bookkeeping, threaded through one
/// [`ServeEngine::replay_ingest`].
struct Ingest<'d, T> {
    /// Metric / device / kernel options for every fit of the dataset.
    proto: &'d NearestNeighbors<T>,
    dataset: &'d mut MutableDataset<T>,
    compact_threshold: usize,
    pending: Option<PendingCompaction<T>>,
    /// The fitted estimator for the *current* base generation.
    base_fit: Option<(u64, NearestNeighbors<T>)>,
    wal: WalCounts,
    wal_errors: Vec<(u64, WalError)>,
    compactions_started: u64,
    compactions: Vec<CompactionRecord>,
    fresh_scans: u64,
}

impl<T: Real> Ingest<'_, T> {
    /// Lands the pending compaction if its ready time has passed.
    fn land_ready_compaction(&mut self, t: f64) {
        if !self.pending.as_ref().is_some_and(|p| p.ready_s <= t) {
            return;
        }
        let p = self.pending.take().expect("checked above");
        let generation = p.job.generation;
        let outcome = self.dataset.finish_compaction(p.job);
        self.base_fit = p.nn.map(|nn| (generation, nn));
        self.compactions.push(CompactionRecord {
            generation,
            started_s: p.started_s,
            ready_s: p.ready_s,
            seconds: p.seconds,
            rows: outcome.rows,
            cleared_tombstones: outcome.cleared_tombstones,
            folded_fresh: outcome.folded_fresh,
        });
    }
}

/// Builds a fixed-gap replay stream over the rows of `query`: request
/// `i` is row `i` arriving at `i * gap_s`, all against dataset 0. The
/// `spdist serve` driver and the throughput bench both use this shape.
pub fn replay_rows<T: Real>(query: &CsrMatrix<T>, gap_s: f64) -> Vec<Request<T>> {
    (0..query.rows())
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: i as f64 * gap_s,
            row: query.slice_rows(i..i + 1),
        })
        .collect()
}
