//! Serving-telemetry acceptance suite (DESIGN §13).
//!
//! The determinism contract under test: a `metrics.v1` snapshot is a
//! pure function of the request *set* — byte-identical across host
//! thread counts and arrival-order permutations of the same stream —
//! and its histogram percentiles bound the exact sort-based percentiles
//! from above by at most one log-bucket width. The final test drives an
//! eviction-thrashing, fault-absorbing, SLO-breaching replay end to end
//! and checks every signal the registry claims to expose.

use gpu_sim::{Device, FaultPlan};
use kernels::{PairwiseOptions, ResiliencePolicy};
use neighbors::{MultiDevice, NearestNeighbors};
use proptest::prelude::*;
use proptest::TestRng;
use semiring::Distance;
use serve::metrics::{HIST_GROWTH, HIST_MIN};
use serve::{
    percentile_sorted, replay_rows, request_chrome_trace, LogHistogram, Request, ServeConfig,
    ServeEngine, SloBudget,
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

fn engine_for(host_threads: usize) -> (ServeEngine<f64>, Vec<NearestNeighbors<f64>>) {
    let dev = if host_threads > 1 {
        Device::volta().with_host_threads(host_threads)
    } else {
        Device::volta()
    };
    let multi = MultiDevice::replicate(&dev, 2);
    let nn = NearestNeighbors::new(dev, Distance::Euclidean).fit(dataset(12, 0));
    let cfg = ServeConfig {
        k: 3,
        max_batch: 4,
        max_wait_s: 40e-6,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(multi, cfg).with_slo(0, SloBudget::p99(400e-6));
    (engine, vec![nn])
}

/// One replay of `requests` (in the given order) on `host_threads`,
/// returning the canonical `metrics.v1` rendering.
fn snapshot_of(host_threads: usize, requests: &[Request<f64>]) -> String {
    let (mut engine, fitted) = engine_for(host_threads);
    engine.replay(&fitted, requests).expect("replay runs");
    engine.metrics().snapshot("serve").to_json()
}

// ---------------------------------------------------------------------
// Satellite 1: latency_percentile edge cases, and the stderr summary
// and the registry agreeing on one nearest-rank definition.
// ---------------------------------------------------------------------

#[test]
fn latency_percentile_is_defined_for_empty_and_single_sample_reports() {
    let (mut engine, fitted) = engine_for(1);
    let empty = engine.replay(&fitted, &[]).expect("empty replay");
    assert!(empty.responses.is_empty());
    for p in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(empty.latency_percentile(p), 0.0, "empty report, p{p}");
    }

    let m = dataset(12, 0);
    let one = vec![Request {
        id: 0,
        dataset: 0,
        arrival_s: 0.0,
        row: m.slice_rows(0..1),
    }];
    let report = engine.replay(&fitted, &one).expect("single replay");
    assert_eq!(report.responses.len(), 1);
    let lat = report.responses[0].latency_s();
    assert!(lat > 0.0);
    // Every percentile of a single sample is that sample: nearest rank
    // ceil(p/100 * 1) clamps to 1.
    for p in [1.0, 50.0, 99.0, 100.0] {
        assert_eq!(report.latency_percentile(p).to_bits(), lat.to_bits());
    }
}

#[test]
fn summary_percentiles_and_registry_agree_on_nearest_rank() {
    let (mut engine, fitted) = engine_for(1);
    let report = engine
        .replay(&fitted, &replay_rows(&dataset(12, 0), 15e-6))
        .expect("replay");
    let m = engine.metrics();
    // The gauges carry the *exact* nearest-rank percentiles — the same
    // numbers ServeReport::latency_percentile (the stderr summary)
    // computes, bit for bit.
    for (p, gauge) in [(50.0, "serve.p50_latency_s"), (99.0, "serve.p99_latency_s")] {
        let exact = report.latency_percentile(p);
        let g = m.gauge(gauge).expect("percentile gauge recorded");
        assert_eq!(g.to_bits(), exact.to_bits(), "{gauge}");
        // The histogram's bucketed answer bounds the same rank's sample
        // from above by at most one bucket width (factor HIST_GROWTH).
        let hist = m.histogram("serve.latency_s").expect("latency histogram");
        let bucketed = hist.percentile(p);
        assert!(
            exact <= bucketed && bucketed <= (exact * HIST_GROWTH).max(HIST_MIN),
            "p{p}: exact {exact} vs bucketed {bucketed}"
        );
    }
}

// ---------------------------------------------------------------------
// Satellite 3 (proptests): snapshot byte-identity and the histogram
// percentile oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The canonical snapshot is a pure function of the request set:
    /// shuffling the input order and changing the simulator's host
    /// thread count must leave the rendered bytes untouched.
    #[test]
    fn snapshots_are_byte_identical_across_threads_and_permutations(seed in 0u64..1 << 32) {
        let requests = replay_rows(&dataset(12, 0), 15e-6);
        let reference = snapshot_of(1, &requests);

        // Fisher–Yates with the deterministic shim RNG.
        let mut shuffled = requests.clone();
        let mut rng = TestRng::from_seed(seed | 1);
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }

        prop_assert_eq!(&snapshot_of(1, &shuffled), &reference);
        prop_assert_eq!(&snapshot_of(8, &shuffled), &reference);
    }

    /// Histogram-derived percentiles match the exact sort-based oracle
    /// to within one bucket width: `exact <= bucketed <= exact * G`
    /// (floored at the underflow edge).
    #[test]
    fn histogram_percentiles_track_the_sort_oracle(
        samples in proptest::collection::vec(1u64..2_000_000, 1..300),
        p in 1u32..100,
    ) {
        let samples: Vec<f64> = samples.into_iter().map(|n| n as f64 * 1e-8).collect();
        let mut hist = LogHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        let p = p as f64;
        let exact = percentile_sorted(&sorted, p);
        let bucketed = hist.percentile(p);
        prop_assert!(
            exact <= bucketed && bucketed <= (exact * HIST_GROWTH).max(HIST_MIN),
            "p{}: exact {} vs bucketed {}", p, exact, bucketed
        );
    }
}

// ---------------------------------------------------------------------
// The acceptance replay: cache thrash + injected faults + a tight SLO,
// with every exported signal checked and both documents validated by
// the bench-side parsers.
// ---------------------------------------------------------------------

#[test]
fn thrashing_faulty_replay_exposes_every_signal() {
    let a = dataset(10, 0);
    let b = dataset(10, 1);
    // 10% transient launch failures absorbed by retries.
    let faulty =
        Device::volta().with_fault_plan(FaultPlan::seeded(7).with_transient_launch_failures(100));
    let opts = PairwiseOptions {
        resilience: Some(ResiliencePolicy::with_retries(8)),
        ..PairwiseOptions::default()
    };
    let multi = MultiDevice::replicate(&faulty, 2);
    let nn_a = NearestNeighbors::new(faulty.clone(), Distance::Euclidean)
        .with_selection(neighbors::Selection::Host)
        .with_options(opts)
        .fit(a.clone());
    let nn_b = NearestNeighbors::new(faulty.clone(), Distance::Euclidean)
        .with_selection(neighbors::Selection::Host)
        .with_options(opts)
        .fit(b.clone());
    // Budget fits one prepared entry, so dataset switches evict; runs
    // of same-dataset batches still hit.
    let budget = nn_a.prepare_shards(&multi).device_bytes() + 1;
    let cfg = ServeConfig {
        k: 3,
        max_batch: 2,
        max_wait_s: 30e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg)
        .with_cache_budget(budget)
        // An unmeetable target: every served request breaches, so the
        // burn signals must saturate.
        .with_slo(0, SloBudget::p99(1e-9))
        .with_slo(1, SloBudget::p99(1e-9));

    // Runs of one dataset (hits within the run) separated by switches
    // to the other (miss + eviction): AAAA BBBB AAAA BBBB ...
    let mut reqs = Vec::new();
    for i in 0..10usize {
        let run = i / 5;
        reqs.push(Request {
            id: i as u64,
            dataset: 0,
            arrival_s: (4 * run * 5 + 2 * (i % 5)) as f64 * 20e-6,
            row: a.slice_rows(i..i + 1),
        });
        reqs.push(Request {
            id: 100 + i as u64,
            dataset: 1,
            arrival_s: ((4 * run + 2) * 5 + 2 * (i % 5)) as f64 * 20e-6,
            row: b.slice_rows(i..i + 1),
        });
    }
    let report = engine.replay(&[nn_a, nn_b], &reqs).expect("replay");
    assert_eq!(report.responses.len(), 20);

    let m = engine.metrics();
    // Cache signals: hits within runs, misses and evictions on every
    // dataset switch.
    assert!(m.counter("serve.cache_hits_total") > 0, "no hits");
    assert!(m.counter("serve.cache_misses_total") > 1, "no thrash");
    assert!(m.counter("serve.cache_evictions_total") > 0, "no evictions");
    assert_eq!(m.counter("serve.cache_hits_total"), report.cache.hits);
    assert_eq!(m.counter("serve.cache_misses_total"), report.cache.misses);

    // Resilience signals: the armed fault plan must have fired and been
    // absorbed by retries.
    assert!(
        m.counter("serve.faults_absorbed_total") > 0,
        "no faults absorbed"
    );
    assert!(m.counter("serve.retries_total") > 0, "no retries recorded");

    // SLO burn: a 1 ns target on a microsecond-scale path breaches on
    // every served request of both datasets.
    for d in 0..2usize {
        let served = m.counter(&format!("serve.d{d}.slo_requests_total"));
        let breaches = m.counter(&format!("serve.d{d}.slo_breaches_total"));
        assert!(
            served > 0 && breaches == served,
            "d{d}: {breaches}/{served}"
        );
        let burn = m
            .gauge(&format!("serve.d{d}.slo_budget_burn"))
            .expect("burn");
        assert!(burn > 1.0, "d{d}: burn {burn} must blow the 1% budget");
        let worst = m
            .gauge(&format!("serve.d{d}.slo_worst_window_burn"))
            .expect("worst window");
        assert!(worst >= burn / 2.0, "d{d}: worst window {worst} vs {burn}");
    }
    assert_eq!(report.slo.len(), 2);
    assert!(report.slo.iter().all(|s| s.breaches == s.requests));

    // Exact percentile gauges against the sort oracle.
    let mut lat: Vec<f64> = report.responses.iter().map(|r| r.latency_s()).collect();
    lat.sort_by(f64::total_cmp);
    for (p, gauge) in [(50.0, "serve.p50_latency_s"), (99.0, "serve.p99_latency_s")] {
        let oracle = percentile_sorted(&lat, p);
        let g = m.gauge(gauge).expect("gauge");
        assert_eq!(g.to_bits(), oracle.to_bits(), "{gauge}");
    }

    // Span taxonomy: one span per request, every one terminal, and the
    // interesting event kinds all present somewhere in the stream.
    assert_eq!(report.spans.len(), reqs.len());
    assert!(report.spans.iter().all(serve::RequestSpan::is_terminal));
    let event_names: std::collections::BTreeSet<&str> = report
        .spans
        .iter()
        .flat_map(|s| s.events.iter().map(|e| e.event.name()))
        .collect();
    for required in [
        "enqueue",
        "batch_admit",
        "cache_hit",
        "cache_miss",
        "prepare",
        "shard_launch",
        "retry",
        "merge",
        "reply",
    ] {
        assert!(event_names.contains(required), "missing event {required}");
    }

    // Both export formats validate under the bench-side parsers (the
    // same code paths CI's check_bench_json runs).
    let snap = m.snapshot("serve");
    serve::validate_metrics(&snap.to_json()).expect("metrics.v1 validates");
    gpu_sim::validate_chrome_trace(&request_chrome_trace(&report.spans))
        .expect("request trace validates");
    assert!(snap.to_prometheus().contains("serve_latency_s_bucket"));
}

#[test]
fn rejected_requests_get_terminal_rejection_spans() {
    let m = dataset(16, 0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 2,
        max_batch: 4,
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
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine.replay(&[nn], &reqs).expect("replay");
    assert!(!report.rejected.is_empty());
    assert_eq!(report.spans.len(), 16);
    assert!(report.spans.iter().all(serve::RequestSpan::is_terminal));
    let rejected_spans = report
        .spans
        .iter()
        .filter(|s| s.events.iter().any(|e| e.event.name() == "rejected"))
        .count();
    assert_eq!(rejected_spans, report.rejected.len());
    assert_eq!(
        engine.metrics().counter("serve.requests_rejected_total"),
        report.rejected.len() as u64
    );
    gpu_sim::validate_chrome_trace(&request_chrome_trace(&report.spans)).expect("trace validates");
}
