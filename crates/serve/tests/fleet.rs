//! Acceptance suite for serving under overload (DESIGN §14): workload
//! generation, SLO-driven admission control, the autoscaled replica
//! fleet, and chaos drills.
//!
//! The contracts under test:
//! * admission degrade/shed decisions are typed, counted, and leave
//!   served answers byte-identical to an unthrottled run;
//! * the fleet's scale-up/down decisions and its full report are pure
//!   functions of the request set — byte-identical across host-thread
//!   counts and arrival permutations;
//! * a fixed-size fleet is one engine replay: byte-identical to
//!   `ServeEngine::replay` on the same pool, backlog carried across
//!   window boundaries;
//! * a mid-traffic chaos plan never changes a served byte, its faults
//!   reach the serving path even after a calm window warmed the cache,
//!   and the fleet's burn re-enters the envelope within bounded windows.

use gpu_sim::{Device, FaultPlan};
use kernels::{PairwiseOptions, ResiliencePolicy};
use neighbors::{MultiDevice, NearestNeighbors};
use semiring::Distance;
use serve::{
    chaos_drill, AdmissionConfig, ChaosPlan, Fleet, FleetConfig, FleetReport, Request, ServeConfig,
    ServeEngine, ServeReport, ShedReason, SloBudget, SpanEvent, Workload,
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

fn resilient_fit(dev: &Device, m: CsrMatrix<f64>) -> NearestNeighbors<f64> {
    let opts = PairwiseOptions {
        resilience: Some(ResiliencePolicy::with_retries(8)),
        ..PairwiseOptions::default()
    };
    NearestNeighbors::new(dev.clone(), Distance::Euclidean)
        .with_options(opts)
        .fit(m)
}

/// A burst at t=0 (overload) followed by a sparse calm tail.
fn burst_then_calm(
    m: &CsrMatrix<f64>,
    burst: usize,
    calm: usize,
    calm_gap_s: f64,
) -> Vec<Request<f64>> {
    let mut reqs: Vec<Request<f64>> = (0..burst)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: 0.0,
            row: m.slice_rows(i % m.rows()..i % m.rows() + 1),
        })
        .collect();
    for j in 0..calm {
        let i = burst + j;
        reqs.push(Request {
            id: i as u64,
            dataset: 0,
            arrival_s: 4e-3 + j as f64 * calm_gap_s,
            row: m.slice_rows(i % m.rows()..i % m.rows() + 1),
        });
    }
    reqs
}

#[test]
fn degraded_batches_serve_byte_identical_answers() {
    let m = dataset(16, 0);
    let reqs = burst_then_calm(&m, 24, 0, 0.0);
    let cfg = ServeConfig {
        k: 3,
        max_batch: 4,
        max_wait_s: 20e-6,
        max_queue: 1024,
        ..ServeConfig::default()
    };
    let run = |admission: Option<AdmissionConfig>| {
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let mut config = cfg;
        config.admission = admission;
        let mut engine = ServeEngine::new(multi, config);
        let report = engine.replay(&[nn], &reqs).expect("replay");
        let counters = (
            engine.metrics().counter("serve.degraded_requests_total"),
            engine.metrics().counter("serve.degraded_batches_total"),
        );
        (report, counters)
    };
    // Degrade watermark 0: every admitted batch executes degraded.
    let (degraded, (dr, db)) = run(Some(
        AdmissionConfig::default().with_watermarks(0, usize::MAX),
    ));
    let (plain, _) = run(None);
    assert_eq!(degraded.responses.len(), plain.responses.len());
    assert_eq!(degraded.degraded_requests, 24);
    assert!(degraded.degraded_batches > 0);
    assert_eq!(dr, 24);
    assert_eq!(db, degraded.degraded_batches);
    // Degrade in the exact tier is an overload signal, not a slower
    // plan: the device is busy exactly as long as in the unthrottled
    // run, every request is dispatched and completed at the same
    // instant, and the answers match bit-for-bit.
    assert_eq!(
        degraded.busy_seconds.to_bits(),
        plain.busy_seconds.to_bits(),
        "degrade must not cost device time"
    );
    for (a, b) in degraded.responses.iter().zip(&plain.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.dispatch_s.to_bits(),
            b.dispatch_s.to_bits(),
            "request {}",
            a.id
        );
        assert_eq!(
            a.completion_s.to_bits(),
            b.completion_s.to_bits(),
            "request {}",
            a.id
        );
        assert_eq!(a.indices, b.indices, "degrade must not change neighbors");
        for (x, y) in a.distances.iter().zip(&b.distances) {
            assert_eq!(x.to_bits(), y.to_bits(), "degrade must not change bytes");
        }
    }
    // Every span of a served request carries the admission_degrade
    // marker, naming the smem mode the batch actually ran.
    let marked = degraded
        .spans
        .iter()
        .filter(|s| {
            s.events.iter().any(|e| match &e.event {
                SpanEvent::AdmissionDegrade { strategy } => strategy == "smem=Auto",
                _ => false,
            })
        })
        .count();
    assert_eq!(marked, 24, "every request carries the degrade marker");
}

#[test]
fn shed_reasons_are_typed_counted_and_summarized() {
    let m = dataset(16, 0);
    // 1 kqps sustained against a bucket refilling at 100 tokens/s with
    // burst 4: most arrivals rate-limit. Watermark shed kicks in first
    // for backlog >= 2.
    let reqs: Vec<Request<f64>> = (0..40usize)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: i as f64 * 1e-3,
            row: m.slice_rows(i % 16..i % 16 + 1),
        })
        .collect();
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 3,
        max_batch: 4,
        max_wait_s: 50e-6,
        max_queue: 8,
        admission: Some(AdmissionConfig::default().with_rate(100.0, 4.0)),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine.replay(&[nn], &reqs).expect("replay");
    assert!(!report.rejected.is_empty(), "rate limit must shed");
    assert!(report
        .rejected
        .iter()
        .all(|r| r.reason == ShedReason::RateLimit));
    let m = engine.metrics();
    assert_eq!(
        m.counter("serve.shed_rate_limit_total"),
        report.rejected.len() as u64
    );
    assert_eq!(m.counter("serve.shed_queue_full_total"), 0);
    assert_eq!(
        m.counter("serve.requests_rejected_total"),
        report.rejected.len() as u64
    );
    // The typed counts surface without any metrics snapshot.
    let counts = report.shed_counts();
    assert_eq!(counts[1].0, ShedReason::RateLimit);
    assert_eq!(counts[1].1, report.rejected.len());
    assert!(report.shed_fraction() > 0.0 && report.shed_fraction() < 1.0);
    // Rejected spans are terminal and carry the reason.
    let rejected_spans = report
        .spans
        .iter()
        .filter(|s| s.events.iter().any(|e| e.event.name() == "rejected"))
        .count();
    assert_eq!(rejected_spans, report.rejected.len());
}

#[test]
fn queue_cliff_still_sheds_without_admission_config() {
    let m = dataset(16, 0);
    let reqs = burst_then_calm(&m, 16, 0, 0.0);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
    let cfg = ServeConfig {
        k: 2,
        max_batch: 4,
        max_wait_s: 10.0,
        max_queue: 3,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi, cfg);
    let report = engine.replay(&[nn], &reqs).expect("replay");
    assert!(!report.rejected.is_empty());
    assert!(report
        .rejected
        .iter()
        .all(|r| r.reason == ShedReason::QueueFull));
    assert_eq!(
        engine.metrics().counter("serve.shed_queue_full_total"),
        report.rejected.len() as u64
    );
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        min_replicas: 1,
        max_replicas: 3,
        window_s: 1e-3,
        scale_up_burn: 1.0,
        scale_down_burn: 0.5,
        cooldown_windows: 2,
        serve: ServeConfig {
            k: 3,
            max_batch: 4,
            // Tight coalescing deadline: a lone calm-phase request costs
            // ~1.2 us end to end, while a deep burst backlog pushes the
            // tail past the SLO target — the contrast the autoscaler
            // tests lean on.
            max_wait_s: 1e-6,
            max_queue: 4096,
            ..ServeConfig::default()
        },
    }
}

/// SLO used across the fleet tests: tight enough that a sustained burst
/// breaches (batch service time is ~0.25 us, so a backlog a dozen
/// batches deep blows through 3 us) while an uncontended single-request
/// window stays comfortably inside it.
fn tight_slo() -> SloBudget {
    SloBudget::p99(3e-6)
}

/// Canonical byte rendering of a fleet run for determinism comparison.
fn fleet_fingerprint(proto: &Device, requests: &[Request<f64>]) -> String {
    let mut fleet = Fleet::new(proto.clone(), fleet_config()).with_slo(0, tight_slo());
    let nn = resilient_fit(&Device::volta(), dataset(16, 0));
    let report = fleet.run(&[nn], requests).expect("fleet runs");
    let mut out = String::new();
    for r in &report.serve.responses {
        out.push_str(&format!(
            "{}:{}:{}:{:x?}\n",
            r.id,
            r.completion_s.to_bits(),
            r.indices
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(","),
            r.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        ));
    }
    for e in &report.scale_events {
        out.push_str(&format!("scale:{}:{}->{}\n", e.window, e.from, e.to));
    }
    out.push_str(&fleet.metrics().snapshot("serve.fleet").to_json());
    out
}

#[test]
fn fleet_scales_up_under_burn_and_down_when_calm() {
    let m = dataset(16, 0);
    // Heavy burst (breaches the 150 us SLO hard), then a long calm
    // tail of spaced singles.
    let reqs = burst_then_calm(&m, 240, 10, 1e-3);
    let mut fleet = Fleet::new(Device::volta(), fleet_config()).with_slo(0, tight_slo());
    let nn = resilient_fit(&Device::volta(), m.clone());
    let report = fleet.run(&[nn], &reqs).expect("fleet runs");
    assert_eq!(
        report.serve.responses.len() + report.serve.rejected.len(),
        reqs.len(),
        "no request lost"
    );
    assert_eq!(completed(&report), report.serve.responses.len());
    let ups = report.scale_events.iter().filter(|e| e.to > e.from).count();
    let downs = report.scale_events.iter().filter(|e| e.to < e.from).count();
    assert!(ups >= 1, "overload must trigger a scale-up: {report:?}");
    assert!(downs >= 1, "calm tail must scale back down");
    assert_eq!(report.replicas_final, fleet_config().min_replicas);
    let metrics = fleet.metrics();
    assert_eq!(metrics.counter("serve.fleet.scale_ups_total"), ups as u64);
    assert_eq!(
        metrics.counter("serve.fleet.scale_downs_total"),
        downs as u64
    );
    assert_eq!(
        metrics.counter("serve.fleet.windows_total"),
        report.windows.len() as u64
    );
    serve::validate_metrics(&metrics.snapshot("serve.fleet").to_json())
        .expect("fleet metrics validate");
}

#[test]
fn fleet_reports_are_byte_identical_across_threads_and_permutations() {
    let pools = [dataset(16, 0)];
    let workload = Workload::steady(11, 40_000.0, 5e-3)
        .with_zipf(1.1)
        .with_diurnal(0.4, 2e-3)
        .with_bursts(1.25e-3, 16);
    let requests = workload.generate(&pools);
    assert!(requests.len() > 100, "workload dense enough to stress");
    let reference = fleet_fingerprint(&Device::volta(), &requests);

    // Reversed arrival order, 8 host threads: same bytes.
    let mut reversed = requests.clone();
    reversed.reverse();
    let threaded = Device::volta().with_host_threads(8);
    assert_eq!(fleet_fingerprint(&threaded, &reversed), reference);
}

#[test]
fn chaos_drill_recovers_and_never_serves_a_divergent_byte() {
    let m = dataset(16, 0);
    let reqs = burst_then_calm(&m, 60, 12, 0.5e-3);
    let chaos = ChaosPlan {
        start_s: 0.0,
        end_s: 2e-3,
        // 10% transient launch failures, absorbed by the retry policy.
        fault: FaultPlan::seeded(7).with_transient_launch_failures(100),
    };
    let nn = resilient_fit(&Device::volta(), m.clone());
    let outcome = chaos_drill(
        &Device::volta(),
        fleet_config(),
        &[(0, tight_slo())],
        &[nn],
        &reqs,
        chaos,
        1.0,
    )
    .expect("drill runs");
    assert!(outcome.common > 0, "runs must share served requests");
    assert_eq!(outcome.divergent, 0, "chaos must never change a byte");
    let recovered = outcome.recovery_window.expect("fleet must recover");
    // Recovery within the calm tail: bounded by the window count.
    assert!(recovered < outcome.chaos.windows.len());
    // The chaos run actually saw chaos windows and absorbed faults.
    assert!(outcome.chaos.windows.iter().any(|w| w.chaos));
    assert!(outcome.chaos.windows.iter().any(|w| !w.chaos));
    assert!(retried(&outcome.chaos) && !retried(&outcome.baseline));
    for report in [&outcome.baseline, &outcome.chaos] {
        assert_eq!(completed(report), report.serve.responses.len());
    }
}

/// Responses counted over a fleet run's windows.
fn completed<T>(report: &FleetReport<T>) -> usize {
    report.windows.iter().map(|w| w.completed).sum()
}

/// Whether any batch of the run absorbed a fault (a `retry` span event).
fn retried<T>(report: &FleetReport<T>) -> bool {
    let mut events = report.serve.spans.iter().flat_map(|s| &s.events);
    events.any(|e| e.event.name() == "retry")
}

/// A served report's responses, typed rejections and spans, rendered
/// exactly (`Debug` prints every float in round-trip form).
fn report_bytes(report: &ServeReport<f64>) -> String {
    format!(
        "{:?}\n{:?}\n{:?}",
        report.responses, report.rejected, report.spans
    )
}

#[test]
fn fixed_size_fleet_is_one_engine_replay() {
    let m = dataset(16, 0);
    // A 120-request burst at t=0, then a request every 0.1 us: the
    // burst's backlog (~30 batches of ~0.25 us) is still draining when
    // the first window boundaries pass.
    let mut reqs = burst_then_calm(&m, 120, 0, 0.0);
    reqs.extend((0..200usize).map(|j| Request {
        id: (120 + j) as u64,
        dataset: 0,
        arrival_s: 0.1e-6 * (j + 1) as f64,
        row: m.slice_rows(j % 16..j % 16 + 1),
    }));
    let nn = [resilient_fit(&Device::volta(), m.clone())];
    let pool = MultiDevice::replicate(&Device::volta(), 2);
    let reference = ServeEngine::new(pool, fleet_config().serve)
        .with_slo(0, tight_slo())
        .replay(&nn, &reqs)
        .expect("replay");
    let backlog_end = reference.responses.last().expect("served").completion_s;
    for window_s in [4e-6, 9e-6] {
        assert!(backlog_end > 2.0 * window_s, "backlog crosses a boundary");
        let config = FleetConfig {
            min_replicas: 2,
            max_replicas: 2,
            window_s,
            ..fleet_config()
        };
        let mut fleet = Fleet::new(Device::volta(), config).with_slo(0, tight_slo());
        let report = fleet.run(&nn, &reqs).expect("fleet runs");
        assert!(report.windows.len() > 2, "{window_s}: {:?}", report.windows);
        assert!(report.scale_events.is_empty());
        assert_eq!(completed(&report), report.serve.responses.len());
        assert_eq!(report_bytes(&report.serve), report_bytes(&reference));
        assert_eq!(report.serve.slo, reference.slo);
    }
}

#[test]
fn chaos_after_a_calm_window_reaches_the_serving_path() {
    let m = dataset(16, 0);
    // Calm singles every 50 us for 4 ms; chaos arms only in window 2,
    // after windows 0 and 1 warmed the prepared cache on unarmed
    // devices. A fixed pool size means only the arming swaps the pool.
    let reqs: Vec<Request<f64>> = (0..80usize)
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: i as f64 * 50e-6,
            row: m.slice_rows(i % 16..i % 16 + 1),
        })
        .collect();
    let config = FleetConfig {
        min_replicas: 2,
        max_replicas: 2,
        ..fleet_config()
    };
    let chaos = ChaosPlan {
        start_s: 2e-3,
        end_s: 3e-3,
        fault: FaultPlan::seeded(7).with_transient_launch_failures(100),
    };
    let (dev, nn) = (Device::volta(), [resilient_fit(&Device::volta(), m)]);
    let drill = chaos_drill(
        &dev,
        config,
        &[(0, tight_slo())],
        &nn,
        &reqs,
        chaos.clone(),
        1.0,
    );
    let outcome = drill.expect("drill runs");
    assert_eq!((outcome.common, outcome.divergent), (reqs.len(), 0));
    let armed = outcome.chaos.windows.iter().map(|w| w.chaos);
    assert!(armed.eq([false, false, true, false]));
    assert!(retried(&outcome.chaos));
    // The same chaos run, for its registry.
    let mut fleet = Fleet::new(dev, config)
        .with_slo(0, tight_slo())
        .with_chaos(chaos);
    fleet.run(&nn, &reqs).expect("chaos run");
    assert!(fleet.metrics().counter("serve.retries_total") > 0);
}
