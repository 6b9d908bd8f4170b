//! `serve_steady` and `serve_cache_churn`: open-loop traffic through
//! `ServeEngine::replay`.
//!
//! Requests arrive on a Poisson schedule on the simulated clock, each a
//! single row of one tenant's index, the tenants mixed in Zipf shares.
//! The simulated clock never lets the generator run late, so generator
//! lag is zero by construction, and a request's latency runs from its
//! scheduled arrival. The tenants' matrices are the same at every seed
//! (see [`SplitMix64::corpus`]); the seed draws the arrival times, the
//! order of the tenant mix and the query rows.
//!
//! * `serve_steady` offers 1.25M, 2.5M and 5M req/s, 1250 requests
//!   each, over three tenants whose shards all fit the cache. The
//!   top rate exceeds capacity, so admission control sheds on the
//!   measured path.
//! * `serve_cache_churn` offers 2400 requests at 400k req/s (about
//!   6 ms) over eight tenants with a cache budget of 80 % of their
//!   prepared bytes, so the miss path (evict, upload, warm norms,
//!   fingerprint) is hot.
//!
//! Each replay runs on a fresh engine whose cache a one-request-per-
//! tenant warm-up replay has filled, so cold-start misses stay out of
//! the measured traffic.

use crate::gen::{fnv_answer, matrix_labels, poisson_arrivals, Fnv, SplitMix64, Zipf};
use crate::knn::set_redrive_metrics;
use crate::report::{percentile, Metrics};
use crate::spans::Spans;
use crate::{device, Workload, CHECK_EVERY, K};
use datasets::DatasetProfile;
use kernels::{pairwise_distances_prepared, top_k_kernel, KernelError};
use neighbors::{MultiDevice, NearestNeighbors, PreparedShards};
use semiring::{Distance, DistanceParams};
use sparse::{CsrMatrix, Idx};
use sparse_dist::{
    AdmissionConfig, IndexMode, Request, Response, ServeConfig, ServeEngine, ServeReport,
    ShedReason,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated devices in the serving pool.
pub const DEVICES: usize = 2;
/// A batch dispatches once it holds this many requests.
const MAX_BATCH: usize = 32;
/// Latency limit a served request must meet, in simulated seconds.
pub const SLO_S: f64 = 100e-6;
/// A rate meets the SLO while at most this share of its requests miss.
const SLO_MISS_TARGET: f64 = 0.01;
/// Tenant shape scale, with degrees scaled by its square root as in
/// `bench::suite::bench_profiles`: `serve_steady`'s three tenants, then
/// `serve_cache_churn`'s eight. The smaller steady tenants keep a pass
/// near 5 s of host time at rates high enough to overload the pool.
const STEADY_SCALE: f64 = 0.002;
const CHURN_SCALE: f64 = 0.004;
/// `serve_steady`'s offered rates in req/s, lowest first. The middle
/// one is the reference rate; the highest exceeds capacity.
const STEADY_RATES: [(&str, f64); 3] = [("low", 1.25e6), ("ref", 2.5e6), ("high", 5e6)];
/// Requests offered at each `serve_steady` rate, enough that at least
/// [`MIN_LATENCY_SAMPLES`] are served at the reference rate at every seed.
const STEADY_REQUESTS: usize = 1250;
/// Requests the reference replay must serve (outside `--smoke`), so that
/// its p99 latency has ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1000;
/// `serve_cache_churn` offers this many requests at this rate: about
/// 6 ms of traffic.
const CHURN_RATE: f64 = 400e3;
const CHURN_REQUESTS: usize = 2400;
/// `serve_cache_churn`'s cache budget as a share of its tenants'
/// summed `PreparedShards::device_bytes`. Calibrated so the cache hit
/// ratio lands between 0.3 and 0.8 (0.45 to 0.49 over seeds 1 to 4;
/// half the bytes gave 0.06 to 0.12).
const CHURN_BUDGET_SHARE: f64 = 0.8;

/// The engine settings every serving workload shares.
pub fn engine(multi: &MultiDevice) -> ServeEngine<f32> {
    ServeEngine::new(
        multi.clone(),
        ServeConfig {
            k: K,
            max_batch: MAX_BATCH,
            max_wait_s: 50e-6,
            max_queue: 1024,
            per_query_prepare: false,
            admission: Some(AdmissionConfig::default().with_watermarks(64, 256)),
            index: IndexMode::Exact,
        },
    )
}

pub fn estimator(index: &CsrMatrix<f32>) -> NearestNeighbors<f32> {
    NearestNeighbors::new(device(), Distance::Euclidean).fit(index.clone())
}

/// One offered rate and its request stream.
pub struct Rung {
    /// Metric-name label: `low`, `ref` or `high`.
    label: &'static str,
    rate: f64,
    requests: Vec<Request<f32>>,
}

pub struct Inputs {
    names: Vec<String>,
    fitted: Vec<NearestNeighbors<f32>>,
    /// Each tenant prepared and warmed on the pool: the oracle's shards.
    shards: Vec<PreparedShards<f32>>,
    multi: MultiDevice,
    /// One request per tenant, replayed before the measured traffic.
    warmup: Vec<Request<f32>>,
    rungs: Vec<Rung>,
    cache_budget: Option<usize>,
    stream_fnv: u64,
}

/// One replay and the registry values it added.
pub struct RungRun {
    pub report: ServeReport<f32>,
    pub shard_launches: u64,
    pub retries: u64,
    pub resident_bytes: f64,
    pub host_s: f64,
}

/// The registry counters a run reports, as they stand.
pub fn engine_counts(e: &ServeEngine<f32>) -> [u64; 2] {
    let reg = e.metrics();
    [
        reg.counter("serve.shard_launches_total"),
        reg.counter("serve.retries_total"),
    ]
}

impl RungRun {
    /// Wraps a finished replay; `before` is [`engine_counts`] read
    /// before it, so a warm-up replay on the same engine is excluded.
    pub fn new(
        report: ServeReport<f32>,
        e: &ServeEngine<f32>,
        before: [u64; 2],
        host_s: f64,
    ) -> Self {
        let after = engine_counts(e);
        Self {
            report,
            shard_launches: after[0] - before[0],
            retries: after[1] - before[1],
            resident_bytes: e
                .metrics()
                .gauge("serve.cache_resident_bytes")
                .unwrap_or(0.0),
            host_s,
        }
    }
}

/// One request per dataset at t = 0, each the dataset's first row: a
/// replay of these fills the engine's cache before measured traffic.
pub fn warmup(indexes: &[&CsrMatrix<f32>]) -> Vec<Request<f32>> {
    indexes
        .iter()
        .enumerate()
        .map(|(d, m)| Request {
            id: d as u64,
            dataset: d,
            arrival_s: 0.0,
            row: m.slice_rows(0..1),
        })
        .collect()
}

pub struct Serving {
    steady: bool,
    smoke: bool,
}

impl Serving {
    pub fn steady(smoke: bool) -> Self {
        Self {
            steady: true,
            smoke,
        }
    }

    pub fn churn(smoke: bool) -> Self {
        Self {
            steady: false,
            smoke,
        }
    }

    /// The rung whose latency, admission and cache numbers are reported.
    fn reference(&self) -> usize {
        usize::from(self.steady)
    }
}

/// Stacks single-row queries into one batch matrix.
pub fn stack(rows: &[&CsrMatrix<f32>], cols: usize) -> CsrMatrix<f32> {
    let mut indptr = vec![0];
    let mut indices: Vec<Idx> = Vec::new();
    let mut values = Vec::new();
    for r in rows {
        indices.extend_from_slice(r.indices());
        values.extend_from_slice(r.values());
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(rows.len(), cols, indptr, indices, values)
        .expect("stacked rows keep CSR invariants")
}

/// The served batches of a replay, rebuilt from the responses: every
/// batch runs alone on the pool, so `(dataset, dispatch_s)` names one.
/// Members are in arrival order, the order the engine stacks them.
pub fn batches<T>(responses: &[Response<T>]) -> Vec<Vec<&Response<T>>> {
    let mut by_batch: BTreeMap<(u64, usize), Vec<&Response<T>>> = BTreeMap::new();
    for r in responses {
        by_batch
            .entry((r.dispatch_s.to_bits(), r.dataset))
            .or_default()
            .push(r);
    }
    by_batch
        .into_values()
        .map(|mut b| {
            b.sort_by(|x, y| x.arrival_s.total_cmp(&y.arrival_s).then(x.id.cmp(&y.id)));
            b
        })
        .collect()
}

/// Fails a reference replay that served too few requests for its p99.
pub fn enough_samples<T>(report: &ServeReport<T>, smoke: bool) -> Result<(), String> {
    let served = report.responses.len();
    if smoke || served >= MIN_LATENCY_SAMPLES {
        Ok(())
    } else {
        Err(format!(
            "the reference replay served {served} requests, fewer than {MIN_LATENCY_SAMPLES}"
        ))
    }
}

/// Share of offered requests shed or served slower than [`SLO_S`].
pub fn miss_frac<T>(report: &ServeReport<T>) -> f64 {
    let offered = report.responses.len() + report.rejected.len();
    let late = report
        .responses
        .iter()
        .filter(|r| r.latency_s() > SLO_S)
        .count();
    (late + report.rejected.len()) as f64 / offered.max(1) as f64
}

/// Hashes every response byte and every simulated number of a replay.
pub fn fnv_report(h: &mut Fnv, r: &ServeReport<f32>) {
    let mut responses: Vec<&Response<f32>> = r.responses.iter().collect();
    responses.sort_by_key(|x| x.id);
    for x in responses {
        h.u64(x.id);
        h.u64(x.dataset as u64);
        fnv_answer(h, &x.indices, &x.distances);
        for t in [x.arrival_s, x.dispatch_s, x.completion_s] {
            h.f64(t);
        }
    }
    for x in &r.rejected {
        h.u64(x.id);
        h.bytes(x.reason.name().as_bytes());
    }
    for v in [
        r.batches as u64,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.degraded_requests,
        r.degraded_batches,
    ] {
        h.u64(v);
    }
    h.f64(r.busy_seconds);
    h.f64(r.makespan_s);
}

/// Serving metrics common to every serving workload, from the
/// reference replay.
pub fn serve_metrics(run: &RungRun, m: &mut Metrics) {
    let r = &run.report;
    let mut latency: Vec<f64> = r.responses.iter().map(Response::latency_s).collect();
    let mut wait: Vec<f64> = r
        .responses
        .iter()
        .map(|x| x.dispatch_s - x.arrival_s)
        .collect();
    let mut exec: Vec<f64> = r
        .responses
        .iter()
        .map(|x| x.completion_s - x.dispatch_s)
        .collect();
    for v in [&mut latency, &mut wait, &mut exec] {
        v.sort_by(f64::total_cmp);
    }
    let served = r.responses.len() as f64;
    m.set("latency_samples", served);
    m.set("sim_p50_s", percentile(&latency, 50.0));
    m.set("sim_p99_s", percentile(&latency, 99.0));
    m.set("serve.requests", served + r.rejected.len() as f64);
    m.set("serve.served", served);
    m.set("serve.batches", r.batches as f64);
    m.set(
        "serve.batch_occupancy",
        served / (r.batches.max(1) * MAX_BATCH) as f64,
    );
    m.set("serve.queue_wait_p50_s", percentile(&wait, 50.0));
    m.set("serve.queue_wait_p99_s", percentile(&wait, 99.0));
    m.set("serve.exec_p50_s", percentile(&exec, 50.0));
    m.set("serve.exec_p99_s", percentile(&exec, 99.0));
    m.set(
        "serve.device_util",
        r.busy_seconds / r.makespan_s.max(f64::MIN_POSITIVE),
    );
    m.set("serve.shard_launches", run.shard_launches as f64);
    m.set("serve.retries", run.retries as f64);
    m.set("serve.slo_miss_frac", miss_frac(r));
    m.set("cache.resident_bytes", run.resident_bytes);
}

/// Admission and cache counters, summed over every rate of a pass.
pub fn admission_and_cache_metrics(runs: &[RungRun], m: &mut Metrics) {
    for run in runs {
        let r = &run.report;
        for reason in ShedReason::ALL {
            let n = r.rejected.iter().filter(|x| x.reason == reason).count();
            m.add(&format!("admission.shed_{}", reason.name()), n as f64);
        }
        m.add("admission.degraded_requests", r.degraded_requests as f64);
        m.add("cache.hits", r.cache.hits as f64);
        m.add("cache.misses", r.cache.misses as f64);
        m.add("cache.evictions", r.cache.evictions as f64);
    }
    let hits = m.get("cache.hits");
    m.set(
        "cache.hit_ratio",
        hits / (hits + m.get("cache.misses")).max(1.0),
    );
}

/// The offered rate at which the miss fraction crosses
/// [`SLO_MISS_TARGET`], interpolated log-linearly between the two rates
/// that bracket it; the lowest (highest) rate when every rate misses
/// (meets) the target.
pub fn qps_at_slo(points: &[(f64, f64)]) -> f64 {
    for w in points.windows(2) {
        let ((r0, m0), (r1, m1)) = (w[0], w[1]);
        if m0 <= SLO_MISS_TARGET && m1 > SLO_MISS_TARGET {
            let f = (SLO_MISS_TARGET - m0) / (m1 - m0);
            return r0 * (r1 / r0).powf(f);
        }
    }
    match points.first() {
        Some(&(r0, m0)) if m0 > SLO_MISS_TARGET => r0,
        _ => points.last().map_or(0.0, |p| p.0),
    }
}

impl Workload for Serving {
    type Inputs = Inputs;
    type Pass = Vec<RungRun>;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
        let scale = match (self.smoke, self.steady) {
            (true, _) => 0.001,
            (false, true) => STEADY_SCALE,
            (false, false) => CHURN_SCALE,
        };
        let (profiles, copies, zipf_s) = if self.steady {
            (
                vec![
                    DatasetProfile::movielens(),
                    DatasetProfile::scrna(),
                    DatasetProfile::nytimes_bow(),
                ],
                1,
                1.1,
            )
        } else {
            (datasets::all_profiles().to_vec(), 2, 1.0)
        };
        let mut names = Vec::new();
        let mut indexes = Vec::new();
        for copy in 0..copies {
            for (i, p) in profiles.iter().enumerate() {
                let data_seed = SplitMix64::corpus((copy * 16 + i) as u64).next_u64();
                let shape = p.scaled_with(scale, scale.sqrt());
                indexes.push(spans.span("datasets.generate", None, |_| shape.generate(data_seed)));
                names.push(format!("{}#{copy}", p.name.replace(' ', "_")));
            }
        }
        let fitted: Vec<_> = indexes.iter().map(estimator).collect();
        let multi = MultiDevice::replicate(&device(), DEVICES);
        let shards = spans.span("neighbors.prepare", None, |_| {
            fitted
                .iter()
                .map(|nn| prepare(nn, &multi))
                .collect::<Result<Vec<_>, _>>()
        });
        let shards = shards.map_err(|e| format!("preparing tenants: {e}"))?;
        let bytes: usize = shards.iter().map(PreparedShards::device_bytes).sum();
        let cache_budget = (!self.steady).then_some((bytes as f64 * CHURN_BUDGET_SHARE) as usize);

        // `(label, rate, requests)` of each offered rate.
        let rates: Vec<(&'static str, f64, usize)> = if self.steady {
            STEADY_RATES
                .iter()
                .map(|&(label, rate)| (label, rate, STEADY_REQUESTS))
                .collect()
        } else {
            vec![("ref", CHURN_RATE, CHURN_REQUESTS)]
        };
        let shrink = if self.smoke { 20 } else { 1 };
        let zipf = Zipf::new(indexes.len(), zipf_s);
        let mut rng = SplitMix64::stream(seed, 0x5EED);
        let mut h = Fnv::default();
        let rungs = rates
            .iter()
            .map(|&(label, rate, n)| {
                let arrivals = poisson_arrivals(&mut rng, rate, n / shrink);
                let tenants = zipf.shuffled_draws(&mut rng, arrivals.len());
                let requests = arrivals
                    .into_iter()
                    .zip(tenants)
                    .enumerate()
                    .map(|(id, (arrival_s, dataset))| {
                        let row = rng.below(indexes[dataset].rows());
                        for v in [id as u64, dataset as u64, arrival_s.to_bits(), row as u64] {
                            h.u64(v);
                        }
                        Request {
                            id: id as u64,
                            dataset,
                            arrival_s,
                            row: indexes[dataset].slice_rows(row..row + 1),
                        }
                    })
                    .collect();
                Rung {
                    label,
                    rate,
                    requests,
                }
            })
            .collect();
        Ok(Inputs {
            names,
            warmup: warmup(&indexes.iter().collect::<Vec<_>>()),
            fitted,
            shards,
            multi,
            rungs,
            cache_budget,
            stream_fnv: h.finish(),
        })
    }

    fn labels(&self, inputs: &Inputs) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, nn) in inputs.names.iter().zip(&inputs.fitted) {
            out.extend(matrix_labels(name, nn.index().expect("fitted")));
        }
        for r in &inputs.rungs {
            out.push((
                format!("requests.{}", r.label),
                r.requests.len().to_string(),
            ));
        }
        out.push((
            "requests.fnv".to_string(),
            format!("{:016x}", inputs.stream_fnv),
        ));
        if let Some(b) = inputs.cache_budget {
            out.push(("cache_budget_bytes".to_string(), b.to_string()));
        }
        out
    }

    fn pass(&self, inputs: &Inputs, spans: &mut Spans) -> Result<Vec<RungRun>, String> {
        let mut runs = Vec::new();
        for (i, rung) in inputs.rungs.iter().enumerate() {
            let mut e = engine(&inputs.multi);
            if let Some(b) = inputs.cache_budget {
                e = e.with_cache_budget(b);
            }
            e.replay(&inputs.fitted, &inputs.warmup)
                .map_err(|err| format!("warm-up: {err}"))?;
            let before = engine_counts(&e);
            let t = Instant::now();
            let report = spans
                .span("serve.replay", None, |_| {
                    e.replay(&inputs.fitted, &rung.requests)
                })
                .map_err(|err| format!("{}: {err}", rung.label))?;
            if i == self.reference() {
                enough_samples(&report, self.smoke)?;
            }
            runs.push(RungRun::new(report, &e, before, t.elapsed().as_secs_f64()));
        }
        Ok(runs)
    }

    fn ops(&self, pass: &Vec<RungRun>) -> u64 {
        pass.iter()
            .map(|r| (r.report.responses.len() + r.report.rejected.len()) as u64)
            .sum()
    }

    fn digest(&self, pass: &Vec<RungRun>) -> u64 {
        let mut h = Fnv::default();
        for r in pass {
            fnv_report(&mut h, &r.report);
            h.u64(r.shard_launches);
            h.u64(r.retries);
            h.f64(r.resident_bytes);
        }
        h.finish()
    }

    fn check(&self, inputs: &Inputs, pass: &Vec<RungRun>) -> Result<u64, String> {
        // DESIGN §11: a served answer is byte-identical to a one-row
        // `kneighbors_prepared` over the same pool.
        let mut wrong = 0;
        for (rung, run) in inputs.rungs.iter().zip(pass) {
            for x in &run.report.responses {
                if x.id % CHECK_EVERY as u64 != 0 {
                    continue;
                }
                let req = &rung.requests[x.id as usize];
                let want = inputs.fitted[x.dataset]
                    .kneighbors_prepared(&inputs.shards[x.dataset], &req.row, K)
                    .map_err(|e| format!("oracle for request {}: {e}", x.id))?;
                let mut a = Fnv::default();
                let mut b = Fnv::default();
                fnv_answer(&mut a, &x.indices, &x.distances);
                fnv_answer(&mut b, &want.indices[0], &want.distances[0]);
                if a.finish() != b.finish() {
                    eprintln!(
                        "perfbench: {} request {} differs from the one-row oracle",
                        rung.label, x.id
                    );
                    wrong += 1;
                }
            }
        }
        Ok(wrong)
    }

    fn metrics(&self, inputs: &Inputs, pass: &Vec<RungRun>, m: &mut Metrics) {
        for nn in &inputs.fitted {
            m.add("datasets.nnz", nn.index().expect("fitted").nnz() as f64);
        }
        for run in pass {
            m.add("sim_s", run.report.busy_seconds);
        }
        serve_metrics(&pass[self.reference()], m);
        admission_and_cache_metrics(pass, m);
        if self.steady {
            let mut points = Vec::new();
            for (rung, run) in inputs.rungs.iter().zip(pass) {
                let mut lat: Vec<f64> = run
                    .report
                    .responses
                    .iter()
                    .map(Response::latency_s)
                    .collect();
                lat.sort_by(f64::total_cmp);
                let miss = miss_frac(&run.report);
                m.set(
                    &format!("serve.{}.p99_s", rung.label),
                    percentile(&lat, 99.0),
                );
                m.set(&format!("serve.{}.miss_frac", rung.label), miss);
                points.push((rung.rate, miss));
            }
            m.set("serve.qps_at_slo", qps_at_slo(&points));
        }
    }

    fn traced(
        &self,
        inputs: &Inputs,
        pass: &Vec<RungRun>,
        spans: &mut Spans,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let reference = self.reference();
        let run = &pass[reference];
        let requests = &inputs.rungs[reference].requests;
        let shards = inputs
            .fitted
            .iter()
            .map(|nn| spans.span("neighbors.prepare", None, |_| prepare(nn, &inputs.multi)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for batch in batches(&run.report.responses) {
            let d = batch[0].dataset;
            let nn = &inputs.fitted[d];
            let rows: Vec<&CsrMatrix<f32>> =
                batch.iter().map(|x| &requests[x.id as usize].row).collect();
            let query = stack(&rows, nn.index().expect("fitted").cols());
            redrive(spans, nn, &shards[d], &query, Some(batch[0].id))?;
        }
        set_redrive_metrics(spans, m, false);
        m.set(
            "serve.engine_self_frac",
            1.0 - spans.total("neighbors.kneighbors") / run.host_s,
        );
        Ok(())
    }

    #[cfg(test)]
    fn corrupt(&self, pass: &mut Vec<RungRun>) {
        let x = pass[0]
            .report
            .responses
            .iter_mut()
            .find(|x| x.id % CHECK_EVERY as u64 == 0)
            .expect("a checked response");
        x.distances[0] += 1.0;
    }
}

/// `nn`'s index prepared on `multi` with every norm warmed.
pub fn prepare(
    nn: &NearestNeighbors<f32>,
    multi: &MultiDevice,
) -> Result<PreparedShards<f32>, KernelError> {
    let shards = nn.prepare_shards(multi);
    nn.warm_shards(&shards)?;
    Ok(shards)
}

/// Re-drives one batch through `kneighbors_prepared`, then tile by tile
/// through the kernels layer, each call inside its own span.
pub fn redrive(
    spans: &mut Spans,
    nn: &NearestNeighbors<f32>,
    shards: &PreparedShards<f32>,
    query: &CsrMatrix<f32>,
    request: Option<u64>,
) -> Result<(), String> {
    spans
        .span("neighbors.kneighbors", request, |_| {
            nn.kneighbors_prepared(shards, query, K)
        })
        .map_err(|e| e.to_string())?;
    redrive_tiles(spans, nn, shards, query, request)
}

/// Re-drives every tile of a query against `shards` through
/// `kernels::pairwise_distances_prepared` and `kernels::top_k_kernel`.
pub fn redrive_tiles(
    spans: &mut Spans,
    nn: &NearestNeighbors<f32>,
    shards: &PreparedShards<f32>,
    query: &CsrMatrix<f32>,
    request: Option<u64>,
) -> Result<(), String> {
    for shard in shards.shards() {
        let tile = spans
            .span("kernels.pairwise", request, |_| {
                pairwise_distances_prepared(
                    &shard.device,
                    query,
                    &shard.index,
                    nn.metric(),
                    &DistanceParams::default(),
                    nn.pairwise_options(),
                )
            })
            .map_err(|e| e.to_string())?;
        let k = K.min(tile.cols.max(1));
        spans
            .span("kernels.select", request, |_| {
                top_k_kernel(&shard.device, &tile.buffer, tile.rows, tile.cols, k)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
