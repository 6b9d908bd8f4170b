//! Serving-layer determinism suite: streamed micro-batches must be
//! byte-identical to the one-shot sharded path — across batch sizes,
//! arrival orders, cache evictions mid-stream, host-thread counts, and
//! under an armed fault plan absorbed by the resilience policy.

use gpu_sim::{Device, FaultPlan};
use kernels::{PairwiseOptions, ResiliencePolicy};
use neighbors::{IvfIndex, IvfParams, KnnResult, MultiDevice, NearestNeighbors};
use semiring::Distance;
use serve::{
    replay_rows, AdmissionConfig, IndexMode, Request, ServeConfig, ServeEngine, ServeReport,
    SpanEvent,
};
use sparse::CsrMatrix;

fn dataset(rows: usize, salt: u64) -> CsrMatrix<f64> {
    let mut data = vec![0.0; rows * 12];
    for r in 0..rows {
        for c in 0..12 {
            if (r + 2 * c + salt as usize).is_multiple_of(4) {
                data[r * 12 + c] = 1.0 + (salt as f64) / 3.0 + (r as f64) / 7.0 + (c as f64) / 31.0;
            }
        }
    }
    CsrMatrix::from_dense(rows, 12, &data)
}

/// Asserts each served response equals (bit-for-bit) the corresponding
/// row of the one-shot result.
fn assert_rows_match(report: &ServeReport<f64>, oneshot: &KnnResult<f64>, ctx: &str) {
    for resp in &report.responses {
        let q = resp.id as usize;
        assert_eq!(
            resp.indices, oneshot.indices[q],
            "{ctx}: indices of query {q}"
        );
        let served: Vec<u64> = resp.distances.iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = oneshot.distances[q].iter().map(|d| d.to_bits()).collect();
        assert_eq!(served, want, "{ctx}: distance bits of query {q}");
    }
}

#[test]
fn served_answers_match_one_shot_across_batch_sizes() {
    let m = dataset(18, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 3);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let oneshot = nn.kneighbors_sharded(&multi, &m, 4).expect("ok");
    for max_batch in [1usize, 2, 5, 18] {
        for max_wait_us in [1.0, 50.0, 1000.0] {
            let cfg = ServeConfig {
                k: 4,
                max_batch,
                max_wait_s: max_wait_us * 1e-6,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(multi.clone(), cfg);
            let report = engine
                .replay(std::slice::from_ref(&nn), &replay_rows(&m, 20e-6))
                .expect("replay");
            assert_eq!(report.responses.len(), 18);
            assert!(report.rejected.is_empty());
            assert_rows_match(
                &report,
                &oneshot,
                &format!("batch={max_batch} wait={max_wait_us}us"),
            );
        }
    }
}

#[test]
fn arrival_order_does_not_change_answers() {
    let m = dataset(12, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
    let oneshot = nn.kneighbors_sharded(&multi, &m, 3).expect("ok");
    // Rows arrive in reversed and in interleaved order; ids still name
    // the original row.
    let reversed: Vec<Request<f64>> = (0..12)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: (11 - i) as f64 * 30e-6,
            row: m.slice_rows(i..i + 1),
        })
        .collect();
    let interleaved: Vec<Request<f64>> = (0..12)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: ((i % 3) * 4 + i / 3) as f64 * 30e-6,
            row: m.slice_rows(i..i + 1),
        })
        .collect();
    for (label, reqs) in [("reversed", reversed), ("interleaved", interleaved)] {
        let cfg = ServeConfig {
            k: 3,
            max_batch: 4,
            max_wait_s: 60e-6,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(multi.clone(), cfg);
        let report = engine
            .replay(std::slice::from_ref(&nn), &reqs)
            .expect("replay");
        assert_eq!(report.responses.len(), 12);
        assert_rows_match(&report, &oneshot, label);
    }
}

#[test]
fn cache_evictions_mid_stream_do_not_change_answers() {
    let a = dataset(10, 0);
    let b = dataset(10, 1);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn_a = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(a.clone());
    let nn_b = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(b.clone());
    let one_a = nn_a.kneighbors_sharded(&multi, &a, 3).expect("ok");
    let one_b = nn_b.kneighbors_sharded(&multi, &b, 3).expect("ok");
    // Budget fits one prepared entry, so alternating datasets thrashes.
    let budget = nn_a.prepare_shards(&multi).device_bytes() + 1;
    let cfg = ServeConfig {
        k: 3,
        max_batch: 2,
        max_wait_s: 40e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg).with_cache_budget(budget);
    // Interleave: rows of A and B alternate; ids 0..9 are A's rows,
    // 100..109 are B's.
    let mut reqs = Vec::new();
    for i in 0..10usize {
        reqs.push(Request {
            id: i as u64,
            dataset: 0,
            arrival_s: (2 * i) as f64 * 25e-6,
            row: a.slice_rows(i..i + 1),
        });
        reqs.push(Request {
            id: 100 + i as u64,
            dataset: 1,
            arrival_s: (2 * i + 1) as f64 * 25e-6,
            row: b.slice_rows(i..i + 1),
        });
    }
    let report = engine.replay(&[nn_a, nn_b], &reqs).expect("replay");
    assert_eq!(report.responses.len(), 20);
    assert!(
        report.cache.evictions > 0,
        "the point of this test is to thrash: {:?}",
        report.cache
    );
    for resp in &report.responses {
        let (oneshot, q) = if resp.dataset == 0 {
            (&one_a, resp.id as usize)
        } else {
            (&one_b, (resp.id - 100) as usize)
        };
        assert_eq!(resp.indices, oneshot.indices[q], "query {}", resp.id);
        let served: Vec<u64> = resp.distances.iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = oneshot.distances[q].iter().map(|d| d.to_bits()).collect();
        assert_eq!(served, want, "query {}", resp.id);
    }
}

#[test]
fn host_thread_parallelism_does_not_change_answers() {
    let m = dataset(14, 0);
    let serial = MultiDevice::replicate(&Device::volta(), 2);
    let threaded = MultiDevice::replicate(&Device::volta().with_host_threads(4), 2);
    let nn_serial = NearestNeighbors::new(Device::volta(), Distance::Manhattan).fit(m.clone());
    let nn_threaded =
        NearestNeighbors::new(Device::volta().with_host_threads(4), Distance::Manhattan)
            .fit(m.clone());
    let oneshot = nn_serial.kneighbors_sharded(&serial, &m, 5).expect("ok");
    let cfg = ServeConfig {
        k: 5,
        max_batch: 3,
        max_wait_s: 50e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(threaded, cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn_threaded), &replay_rows(&m, 15e-6))
        .expect("replay");
    assert_eq!(report.responses.len(), 14);
    assert_rows_match(&report, &oneshot, "host-threads=4");
}

#[test]
fn absorbed_faults_do_not_change_answers() {
    let m = dataset(14, 0);
    // 10% transient launch failures, absorbed by the retry policy: the
    // serving path must return the same bits as the faultless one-shot.
    let faulty =
        Device::volta().with_fault_plan(FaultPlan::seeded(7).with_transient_launch_failures(100));
    let opts = PairwiseOptions {
        resilience: Some(ResiliencePolicy::with_retries(8)),
        ..PairwiseOptions::default()
    };
    let clean_multi = MultiDevice::replicate(&Device::volta(), 2);
    let clean_nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let oneshot = clean_nn
        .kneighbors_sharded(&clean_multi, &m, 4)
        .expect("ok");

    let faulty_multi = MultiDevice::replicate(&faulty, 2);
    let faulty_nn = NearestNeighbors::new(faulty.clone(), Distance::Euclidean)
        .with_options(opts)
        .fit(m.clone());
    let cfg = ServeConfig {
        k: 4,
        max_batch: 4,
        max_wait_s: 80e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(faulty_multi, cfg);
    let report = engine
        .replay(std::slice::from_ref(&faulty_nn), &replay_rows(&m, 20e-6))
        .expect("replay");
    assert_eq!(report.responses.len(), 14);
    assert_rows_match(&report, &oneshot, "armed fault plan");
}

#[test]
fn admission_control_rejects_past_max_queue() {
    let m = dataset(16, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 2,
        max_batch: 4,
        // A long deadline and a burst of simultaneous arrivals: the
        // queue saturates before anything dispatches.
        max_wait_s: 10.0,
        max_queue: 3,
        ..ServeConfig::default()
    };
    let reqs: Vec<Request<f64>> = (0..16usize)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: 0.0,
            row: m.slice_rows(i..i + 1),
        })
        .collect();
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn), &reqs)
        .expect("replay");
    assert!(!report.rejected.is_empty(), "backpressure must engage");
    assert_eq!(report.responses.len() + report.rejected.len(), 16);
    // Whatever was admitted is still answered correctly.
    let oneshot = nn.kneighbors_sharded(&multi, &m, 2).expect("ok");
    assert_rows_match(&report, &oneshot, "with rejections");
}

#[test]
fn latency_percentiles_are_ordered_and_batching_amortizes() {
    let m = dataset(16, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 3,
        max_batch: 4,
        max_wait_s: 50e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 10e-6))
        .expect("replay");
    let p50 = report.latency_percentile(50.0);
    let p99 = report.latency_percentile(99.0);
    assert!(p50 > 0.0 && p50 <= p99, "p50={p50} p99={p99}");
    assert!(report.batches < 16, "micro-batching coalesced requests");
    assert!(report.qps() > 0.0);
    // Cached serving re-executes without re-preparing: second replay of
    // the same stream is all hits and strictly less busy time.
    let first_busy = report.busy_seconds;
    let report2 = engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 10e-6))
        .expect("replay");
    assert_eq!(report2.cache.misses, 0);
    assert!(report2.busy_seconds <= first_busy);
    assert_rows_match(
        &report2,
        &nn.kneighbors_sharded(&multi, &m, 3).expect("ok"),
        "second replay",
    );
}

/// IVF serving at `nprobe == nlist` probes every posting list, so the
/// exact-rerank contract (DESIGN §15) makes every served response
/// byte-identical to the exact one-shot oracle — and the `ann.*`
/// counter family appears in the registry.
#[test]
fn ivf_full_probe_serving_matches_exact_oracle() {
    let m = dataset(20, 1);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let oneshot = nn.kneighbors_sharded(&multi, &m, 4).expect("ok");
    let cfg = ServeConfig {
        k: 4,
        max_batch: 5,
        max_wait_s: 40e-6,
        index: IndexMode::Ivf {
            nlist: 5,
            nprobe: 5,
        },
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 15e-6))
        .expect("replay");
    assert_eq!(report.responses.len(), 20);
    assert_rows_match(&report, &oneshot, "ivf nprobe=nlist");
    let metrics = engine.metrics();
    assert!(metrics.counter("ann.searches_total") > 0);
    assert_eq!(metrics.counter("ann.fits_total"), 1);
    assert!(metrics.counter("ann.probes_total") >= metrics.counter("ann.searches_total"));
    assert_eq!(metrics.gauge("ann.nprobe"), Some(5.0));
    // Second replay reuses the fitted artifact: no new fit.
    engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 15e-6))
        .expect("replay");
    assert_eq!(engine.metrics().counter("ann.fits_total"), 1);
}

/// A cold IVF full probe pays two prepares — the k-means fit and the
/// exact shards' upload + norm warming — and both show up as `Prepare`
/// span events, so the first batch's execution time is exactly its
/// prepares plus its slowest shard, with nothing left unexplained.
#[test]
fn ivf_full_probe_spans_explain_the_cold_batch() {
    let m = dataset(20, 1);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 4,
        max_batch: 5,
        max_wait_s: 40e-6,
        index: IndexMode::Ivf {
            nlist: 5,
            nprobe: 5,
        },
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg);
    let prepares_before = engine.metrics().counter("serve.prepares_total");
    let report = engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 15e-6))
        .expect("replay");
    let first = &report.responses[0];
    let span = report
        .spans
        .iter()
        .find(|s| s.request_id == first.id)
        .expect("span of the first reply");
    let (mut prepares, mut prepare_s, mut slowest_shard) = (0u64, 0.0, 0.0f64);
    for e in &span.events {
        match e.event {
            SpanEvent::Prepare { seconds } => {
                prepares += 1;
                prepare_s += seconds;
            }
            SpanEvent::ShardLaunch { seconds, .. } => slowest_shard = slowest_shard.max(seconds),
            _ => {}
        }
    }
    let exec_s = first.completion_s - first.dispatch_s;
    let explained = prepare_s + slowest_shard;
    assert!(
        (explained - exec_s).abs() <= 1e-12 * exec_s,
        "spans explain {explained} s of a {exec_s} s batch"
    );
    let rise = engine.metrics().counter("serve.prepares_total") - prepares_before;
    assert_eq!(prepares, rise, "one Prepare event per prepare");
}

/// Partial probes shrink the shortlist but never invent distances:
/// every served pair appears in the exact full ranking with its
/// distance agreeing to re-tiling (ulp) precision, and — Cosine being
/// a single-pass family, whose pair bits are independent of batch
/// composition (DESIGN §15) — the served bytes equal the library
/// [`IvfIndex`] answer for the same `nprobe` exactly, even though the
/// engine reranks in micro-batches of 4.
#[test]
fn ivf_partial_probe_serves_pairs_from_the_exact_ranking() {
    let m = dataset(20, 2);
    let multi = MultiDevice::replicate(&Device::volta(), 3);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
    let full = nn.kneighbors_sharded(&multi, &m, 20).expect("ok");
    let ivf = IvfIndex::fit(
        &nn,
        IvfParams {
            nlist: 5,
            ..IvfParams::default()
        },
    )
    .expect("fit");
    let library = ivf.search_with_nprobe(&m, 4, 2).expect("search");
    let cfg = ServeConfig {
        k: 4,
        max_batch: 4,
        max_wait_s: 40e-6,
        index: IndexMode::Ivf {
            nlist: 5,
            nprobe: 2,
        },
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn), &replay_rows(&m, 15e-6))
        .expect("replay");
    assert_eq!(report.responses.len(), 20);
    for resp in &report.responses {
        let q = resp.id as usize;
        assert_eq!(resp.indices, library.knn.indices[q], "query {q}");
        let served: Vec<u64> = resp.distances.iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = library.knn.distances[q]
            .iter()
            .map(|d| d.to_bits())
            .collect();
        assert_eq!(served, want, "query {q}: serve vs library bits");
        for (&idx, &dist) in resp.indices.iter().zip(&resp.distances) {
            let pos = full.indices[q]
                .iter()
                .position(|&j| j == idx)
                .expect("served index exists in the full ranking");
            assert!(
                (dist - full.distances[q][pos]).abs() < 1e-9,
                "query {q} neighbor {idx}: rerank must agree with the oracle"
            );
        }
    }
}

/// Under admission pressure the IVF degrade cascade halves `nprobe`
/// instead of swapping smem representation: responses still carry
/// exact distances and the lowered probes are visible in `ann.*`.
#[test]
fn ivf_degrade_lowers_nprobe_and_keeps_exact_rerank() {
    let m = dataset(16, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let full = nn.kneighbors_sharded(&multi, &m, 16).expect("ok");
    let cfg = ServeConfig {
        k: 3,
        max_batch: 4,
        max_wait_s: 20e-6,
        max_queue: 1024,
        admission: Some(AdmissionConfig::default().with_watermarks(0, usize::MAX)),
        index: IndexMode::Ivf {
            nlist: 4,
            nprobe: 4,
        },
        ..ServeConfig::default()
    };
    let reqs: Vec<Request<f64>> = (0..16)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: 0.0,
            row: m.slice_rows(i..i + 1),
        })
        .collect();
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine
        .replay(std::slice::from_ref(&nn), &reqs)
        .expect("replay");
    assert_eq!(report.responses.len(), 16);
    assert!(report.degraded_batches > 0);
    let metrics = engine.metrics();
    assert!(metrics.counter("ann.degraded_nprobe_total") > 0);
    assert_eq!(
        metrics.counter("ann.degraded_nprobe_total"),
        report.degraded_batches
    );
    // Halved probes still rerank exactly: every served pair agrees
    // with the full ranking to re-tiling precision (Euclidean pair
    // bits are batch-independent, but the full ranking was computed on
    // a different slab geometry — DESIGN §15).
    for resp in &report.responses {
        let q = resp.id as usize;
        for (&idx, &dist) in resp.indices.iter().zip(&resp.distances) {
            let pos = full.indices[q]
                .iter()
                .position(|&j| j == idx)
                .expect("served index exists in the full ranking");
            assert!((dist - full.distances[q][pos]).abs() < 1e-9);
        }
    }
}
