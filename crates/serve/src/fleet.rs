//! The replica fleet: an SLO-burn-driven autoscaler over
//! [`MultiDevice`] replicas, plus chaos-mode fault drills — all on the
//! deterministic sim clock.
//!
//! The fleet chops simulated time into fixed windows
//! ([`FleetConfig::window_s`]), serves each window through a
//! [`ServeEngine`] over the current replica pool, and feeds each
//! window's worst sliding-window SLO burn ([`crate::SloReport::worst_window_burn`])
//! into a small autoscaling state machine (DESIGN §14): burn above
//! [`FleetConfig::scale_up_burn`] adds a replica (subject to a
//! cooldown), burn below [`FleetConfig::scale_down_burn`] for
//! [`FleetConfig::cooldown_windows`] consecutive windows removes one.
//! Scaling rebuilds the engine — the prepared-index cache is keyed on
//! pool size, so the re-prepare cost of resharding is charged
//! honestly, exactly as a real fleet pays it.
//!
//! **Chaos mode** ([`ChaosPlan`]) arms a [`FaultPlan`] on every replica
//! for the windows overlapping `[start_s, end_s)`; [`chaos_drill`] runs
//! the same workload with and without the plan, byte-compares the
//! surviving (served-in-both) answers, and reports the first
//! post-chaos window whose burn re-enters the caller's envelope — the
//! recovery bound the serve_fleet bench and the CI chaos-smoke job
//! assert on.
//!
//! Determinism: windows are scheduling epochs processed in order; every
//! decision (scale, shed, degrade) is a pure function of the request
//! set and the configuration, so fleet reports — like engine reports —
//! are byte-identical across host-thread counts and arrival
//! permutations. Window boundaries reset the device-busy horizon
//! (each window's engine starts idle), which is the one modeling
//! simplification DESIGN §14 records.

use crate::admission::{Rejection, ShedReason};
use crate::engine::{Request, Response, ServeConfig, ServeEngine};
use crate::metrics::{percentile_sorted, MetricsRegistry};
use crate::slo::SloBudget;
use crate::span::RequestSpan;
use gpu_sim::{Device, FaultPlan};
use kernels::KernelError;
use neighbors::{MultiDevice, NearestNeighbors};
use sparse::Real;
use std::collections::BTreeMap;

/// Autoscaler and windowing knobs for a replica fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Floor on pool size (scale-down stops here; at least 1).
    pub min_replicas: usize,
    /// Ceiling on pool size (scale-up stops here).
    pub max_replicas: usize,
    /// Scheduling-window length in simulated seconds.
    pub window_s: f64,
    /// Worst-window SLO burn above which the fleet adds a replica.
    pub scale_up_burn: f64,
    /// Worst-window burn below which a window counts as *calm*;
    /// `cooldown_windows` consecutive calm windows remove a replica.
    pub scale_down_burn: f64,
    /// Windows to hold after a scale-up before scaling again, and the
    /// calm streak required before a scale-down.
    pub cooldown_windows: usize,
    /// Per-window serving configuration (batching + admission).
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            min_replicas: 1,
            max_replicas: 4,
            window_s: 1e-3,
            scale_up_burn: 1.0,
            scale_down_burn: 0.25,
            cooldown_windows: 2,
            serve: ServeConfig::default(),
        }
    }
}

/// A mid-traffic fault-injection drill: the fault plan is armed on
/// every replica for windows overlapping `[start_s, end_s)`.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// First simulated second of the chaos interval.
    pub start_s: f64,
    /// End of the chaos interval (exclusive).
    pub end_s: f64,
    /// The fault plan to arm (seeded, deterministic per replica).
    pub fault: FaultPlan,
}

/// One deterministic autoscaling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Window index the decision was made in (takes effect next window).
    pub window: usize,
    /// Simulated end of that window.
    pub at_s: f64,
    /// Pool size before.
    pub from: usize,
    /// Pool size after.
    pub to: usize,
    /// The worst-window burn that drove the decision.
    pub burn: f64,
}

/// Per-window serving outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// Window index.
    pub window: usize,
    /// Window start (simulated seconds).
    pub start_s: f64,
    /// Replicas serving this window.
    pub replicas: usize,
    /// Requests arriving in the window.
    pub arrived: usize,
    /// Requests served.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests served in degraded mode.
    pub degraded: u64,
    /// Worst sliding-window SLO burn across configured datasets.
    pub worst_burn: f64,
    /// Whether a chaos plan was armed for this window.
    pub chaos: bool,
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport<T> {
    /// Served responses across all windows, in canonical
    /// `(completion_s, id)` order.
    pub responses: Vec<Response<T>>,
    /// Shed requests (typed reasons) across all windows, arrival order.
    pub rejected: Vec<Rejection>,
    /// Per-window outcomes, in window order.
    pub windows: Vec<WindowOutcome>,
    /// Autoscaling decisions, in window order.
    pub scale_events: Vec<ScaleEvent>,
    /// Pool size after the final window.
    pub replicas_final: usize,
    /// Per-request spans across all windows, canonical order.
    pub spans: Vec<RequestSpan>,
}

impl<T> FleetReport<T> {
    /// The `p`-th latency percentile over every served response
    /// (nearest-rank, like [`crate::ServeReport::latency_percentile`]).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.responses.iter().map(Response::latency_s).collect();
        lat.sort_by(f64::total_cmp);
        percentile_sorted(&lat, p)
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

    /// The worst per-window burn observed over the run.
    pub fn worst_burn(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.worst_burn)
            .fold(0.0, f64::max)
    }
}

/// An autoscaled replica fleet over a prototype device.
pub struct Fleet {
    proto: Device,
    config: FleetConfig,
    slos: BTreeMap<usize, SloBudget>,
    chaos: Option<ChaosPlan>,
    metrics: MetricsRegistry,
    /// Completed [`Fleet::run`] calls — the ordinal that namespaces
    /// each run's per-window counter series in the registry.
    runs: u64,
}

impl Fleet {
    /// A fleet cloning replicas from `proto` (spec, sanitizer,
    /// watchdog — and fault plan, which chaos windows override).
    pub fn new(proto: Device, config: FleetConfig) -> Self {
        assert!(
            config.min_replicas >= 1 && config.min_replicas <= config.max_replicas,
            "replica bounds must satisfy 1 <= min <= max"
        );
        assert!(
            config.window_s > 0.0 && config.window_s.is_finite(),
            "window length must be positive"
        );
        Self {
            proto,
            config,
            slos: BTreeMap::new(),
            chaos: None,
            metrics: MetricsRegistry::new(),
            runs: 0,
        }
    }

    /// Sets the latency SLO for `dataset` — the autoscaler steers on
    /// the worst window burn across all configured datasets.
    pub fn with_slo(mut self, dataset: usize, budget: SloBudget) -> Self {
        self.slos.insert(dataset, budget);
        self
    }

    /// Arms a chaos plan for the run.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        assert!(
            chaos.start_s < chaos.end_s,
            "chaos interval must be non-empty"
        );
        self.chaos = Some(chaos);
        self
    }

    /// The fleet-level metrics registry (counters accumulate across
    /// runs; gauges reflect the latest run).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Whether a chaos plan is armed for the window starting at
    /// `start_s`.
    fn chaos_active(&self, start_s: f64) -> bool {
        self.chaos
            .as_ref()
            .is_some_and(|c| start_s < c.end_s && start_s + self.config.window_s > c.start_s)
    }

    /// Runs the fleet over a request stream: windows the stream,
    /// serves each window at the current pool size, and autoscales on
    /// SLO burn. See the module docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// Propagates the first kernel error any window produces. Under a
    /// chaos plan, fit the estimators with a
    /// [`kernels::ResiliencePolicy`] so injected faults are absorbed
    /// by the cascade instead of surfacing here.
    pub fn run<T: Real>(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        requests: &[Request<T>],
    ) -> Result<FleetReport<T>, KernelError> {
        let cfg = self.config;
        let mut order: Vec<&Request<T>> = requests.iter().collect();
        order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        let last_arrival = order.last().map(|r| r.arrival_s).unwrap_or(0.0);
        let n_windows = if order.is_empty() {
            0
        } else {
            (last_arrival / cfg.window_s) as usize + 1
        };

        let mut report = FleetReport {
            responses: Vec::new(),
            rejected: Vec::new(),
            windows: Vec::new(),
            scale_events: Vec::new(),
            replicas_final: cfg.min_replicas,
            spans: Vec::new(),
        };
        let mut replicas = cfg.min_replicas;
        let mut engine: Option<ServeEngine<T>> = None;
        let mut engine_shape: Option<(usize, bool)> = None;
        let mut cooldown = 0usize;
        let mut calm_streak = 0usize;
        let mut degraded_total = 0u64;
        let mut chaos_windows = 0u64;
        let mut next = 0usize;
        // Cumulative shed counts per typed reason at the close of each
        // window — the monotone series `validate_metrics` checks
        // (a cumulative counter that ever decreased would mean a window
        // un-shed a request).
        let mut shed_cum = [0u64; ShedReason::ALL.len()];
        let mut window_shed_cum: Vec<[u64; ShedReason::ALL.len()]> = Vec::new();

        for w in 0..n_windows {
            let start_s = w as f64 * cfg.window_s;
            let end_s = start_s + cfg.window_s;
            let mut window_reqs: Vec<Request<T>> = Vec::new();
            while next < order.len() && order[next].arrival_s < end_s {
                window_reqs.push(order[next].clone());
                next += 1;
            }
            let chaos = self.chaos_active(start_s);
            if chaos {
                chaos_windows += 1;
            }

            // Rebuild the engine when the pool shape changes (size or
            // chaos arming); keep it otherwise so the prepared cache
            // persists across windows.
            if engine_shape != Some((replicas, chaos)) {
                let proto = match (&self.chaos, chaos) {
                    (Some(c), true) => self.proto.clone().with_fault_plan(c.fault.clone()),
                    _ => self.proto.clone(),
                };
                let multi = MultiDevice::replicate(&proto, replicas);
                let mut e = ServeEngine::new(multi, cfg.serve);
                for (&dataset, &budget) in &self.slos {
                    e.set_slo(dataset, budget);
                }
                engine = Some(e);
                engine_shape = Some((replicas, chaos));
            }
            let e = engine.as_mut().expect("engine built above");

            let (arrived, served, shed, degraded, worst_burn) = if window_reqs.is_empty() {
                (0, 0, 0, 0, 0.0)
            } else {
                let r = e.replay(fitted, &window_reqs)?;
                let worst = r
                    .slo
                    .iter()
                    .map(crate::SloReport::worst_window_burn)
                    .fold(0.0, f64::max);
                let out = (
                    window_reqs.len(),
                    r.responses.len(),
                    r.rejected.len(),
                    r.degraded_requests,
                    worst,
                );
                degraded_total += r.degraded_requests;
                for rej in &r.rejected {
                    let slot = ShedReason::ALL
                        .iter()
                        .position(|&x| x == rej.reason)
                        .expect("every reason is in ALL");
                    shed_cum[slot] += 1;
                }
                report.responses.extend(r.responses);
                report.rejected.extend(r.rejected);
                report.spans.extend(r.spans);
                out
            };
            report.windows.push(WindowOutcome {
                window: w,
                start_s,
                replicas,
                arrived,
                served,
                shed,
                degraded,
                worst_burn,
                chaos,
            });
            window_shed_cum.push(shed_cum);

            // The autoscaling state machine (DESIGN §14): one step per
            // window, cooldown after scale-up, calm streak before
            // scale-down.
            cooldown = cooldown.saturating_sub(1);
            if worst_burn > cfg.scale_up_burn {
                calm_streak = 0;
                if cooldown == 0 && replicas < cfg.max_replicas {
                    report.scale_events.push(ScaleEvent {
                        window: w,
                        at_s: end_s,
                        from: replicas,
                        to: replicas + 1,
                        burn: worst_burn,
                    });
                    replicas += 1;
                    cooldown = cfg.cooldown_windows;
                }
            } else if worst_burn < cfg.scale_down_burn {
                calm_streak += 1;
                if calm_streak >= cfg.cooldown_windows.max(1) && replicas > cfg.min_replicas {
                    report.scale_events.push(ScaleEvent {
                        window: w,
                        at_s: end_s,
                        from: replicas,
                        to: replicas - 1,
                        burn: worst_burn,
                    });
                    replicas -= 1;
                    calm_streak = 0;
                }
            } else {
                calm_streak = 0;
            }
        }

        report.replicas_final = replicas;
        report.responses.sort_by(|a, b| {
            a.completion_s
                .total_cmp(&b.completion_s)
                .then(a.id.cmp(&b.id))
        });
        report.spans.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.request_id.cmp(&b.request_id))
        });
        report.rejected.sort_by_key(|r| r.id);

        let m = &mut self.metrics;
        let ups = report.scale_events.iter().filter(|e| e.to > e.from).count() as u64;
        let downs = report.scale_events.len() as u64 - ups;
        m.inc("serve.fleet.windows_total", report.windows.len() as u64);
        m.inc("serve.fleet.chaos_windows_total", chaos_windows);
        m.inc("serve.fleet.scale_ups_total", ups);
        m.inc("serve.fleet.scale_downs_total", downs);
        m.inc(
            "serve.fleet.requests_arrived_total",
            (report.responses.len() + report.rejected.len()) as u64,
        );
        m.inc(
            "serve.fleet.requests_served_total",
            report.responses.len() as u64,
        );
        m.inc(
            "serve.fleet.requests_shed_total",
            report.rejected.len() as u64,
        );
        m.inc("serve.fleet.degraded_requests_total", degraded_total);
        // Per-window cumulative shed series, namespaced by run ordinal
        // so several runs through one fleet never splice their windows
        // together. Zero-padded window tags make the registry's sorted
        // key order equal window order; `validate_metrics`
        // asserts each series is monotone non-decreasing and that the
        // final cumulative values reconcile with
        // `serve.fleet.requests_shed_total`.
        if !report.rejected.is_empty() {
            for (w, cums) in window_shed_cum.iter().enumerate() {
                for (slot, reason) in ShedReason::ALL.iter().enumerate() {
                    m.inc(
                        &format!(
                            "serve.fleet.run{:03}.w{:04}.shed_{}_total",
                            self.runs,
                            w,
                            reason.name()
                        ),
                        cums[slot],
                    );
                }
            }
        }
        self.runs += 1;
        m.set_gauge("serve.fleet.replicas", replicas as f64);
        m.set_gauge("serve.fleet.shed_fraction", report.shed_fraction());
        m.set_gauge("serve.fleet.worst_window_burn", report.worst_burn());
        m.set_gauge("serve.fleet.p99_latency_s", report.latency_percentile(99.0));
        Ok(report)
    }
}

/// Outcome of a [`chaos_drill`].
#[derive(Debug, Clone)]
pub struct DrillOutcome<T> {
    /// The fault-free run.
    pub baseline: FleetReport<T>,
    /// The chaos run.
    pub chaos: FleetReport<T>,
    /// Ids served in both runs.
    pub common: usize,
    /// Of those, answers that differ in any byte — must be 0: faults
    /// are absorbed by the resilience cascade, never served.
    pub divergent: usize,
    /// First post-chaos window whose burn re-entered the envelope
    /// (`None` if it never recovered inside the run).
    pub recovery_window: Option<usize>,
}

/// Runs the same workload through a fault-free fleet and a chaos-armed
/// fleet, byte-compares the surviving (served-in-both) request set,
/// and finds the first post-chaos window with worst burn at or under
/// `envelope_burn`.
///
/// # Errors
///
/// Propagates kernel errors from either run.
pub fn chaos_drill<T: Real>(
    proto: &Device,
    config: FleetConfig,
    slos: &[(usize, SloBudget)],
    fitted: &[NearestNeighbors<T>],
    requests: &[Request<T>],
    chaos: ChaosPlan,
    envelope_burn: f64,
) -> Result<DrillOutcome<T>, KernelError> {
    let chaos_end = chaos.end_s;
    let mut baseline_fleet = Fleet::new(proto.clone(), config);
    let mut chaos_fleet = Fleet::new(proto.clone(), config).with_chaos(chaos);
    for &(dataset, budget) in slos {
        baseline_fleet = baseline_fleet.with_slo(dataset, budget);
        chaos_fleet = chaos_fleet.with_slo(dataset, budget);
    }
    let baseline = baseline_fleet.run(fitted, requests)?;
    let chaos_report = chaos_fleet.run(fitted, requests)?;

    // Byte-compare the served intersection: indices exactly, distances
    // by bit pattern (to_f64 widening is lossless and injective).
    let by_id: BTreeMap<u64, &Response<T>> = baseline.responses.iter().map(|r| (r.id, r)).collect();
    let mut common = 0usize;
    let mut divergent = 0usize;
    for r in &chaos_report.responses {
        if let Some(b) = by_id.get(&r.id) {
            common += 1;
            let same = r.indices == b.indices
                && r.distances.len() == b.distances.len()
                && r.distances
                    .iter()
                    .zip(&b.distances)
                    .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits());
            if !same {
                divergent += 1;
            }
        }
    }
    let recovery_window = chaos_report
        .windows
        .iter()
        .find(|w| w.start_s >= chaos_end && w.worst_burn <= envelope_burn)
        .map(|w| w.window);
    Ok(DrillOutcome {
        baseline,
        chaos: chaos_report,
        common,
        divergent,
        recovery_window,
    })
}
