//! The replica fleet: an SLO-burn-driven autoscaler over
//! [`MultiDevice`] replicas, plus chaos-mode fault drills — all on the
//! deterministic sim clock.
//!
//! A fleet run is one replay of one [`ServeEngine`]. Its event loop
//! adds a boundary event every [`FleetConfig::window_s`]; at each
//! boundary the closing window's worst sliding-window SLO burn
//! ([`crate::SloReport::worst_window_burn`], over the responses that
//! *completed* inside it) feeds a small autoscaling state machine
//! (DESIGN §14): burn above [`FleetConfig::scale_up_burn`] adds a
//! replica (subject to a cooldown), burn below
//! [`FleetConfig::scale_down_burn`] for [`FleetConfig::cooldown_windows`]
//! consecutive windows removes one. A new replica count swaps the
//! engine's device pool and drops its prepared shards, so the
//! re-prepare cost of resharding is charged honestly, exactly as a real
//! fleet pays it. The queue, in-flight batches, device-busy horizon and
//! token buckets carry across the swap: a backlog at a boundary delays
//! the next window's replies.
//!
//! **Chaos mode** ([`ChaosPlan`]) arms a [`FaultPlan`] on every replica
//! for the windows overlapping `[start_s, end_s)` — another pool swap.
//! [`chaos_drill`] runs the same workload with and without the plan,
//! byte-compares the surviving (served-in-both) answers, and reports
//! the first post-chaos window whose burn re-enters the caller's
//! envelope — the recovery bound the serve_fleet bench and the CI
//! chaos-smoke job assert on.
//!
//! Determinism: boundaries are events of the engine's deterministic
//! loop and every decision (scale, shed, degrade) is a pure function of
//! the request set and the configuration, so fleet reports — like
//! engine reports — are byte-identical across host-thread counts and
//! arrival permutations. With `min_replicas == max_replicas` and no
//! chaos plan the pool never changes, and a fleet run is byte-identical
//! to [`ServeEngine::replay`] on that pool.

use crate::engine::{Request, Response, ServeConfig, ServeEngine, ServeReport};
use crate::metrics::MetricsRegistry;
use crate::slo::{assess, SloBudget};
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
    /// Serving configuration (batching + admission).
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
    /// Responses that completed inside the window; every served
    /// response counts in exactly one window.
    pub completed: usize,
    /// Worst sliding-window SLO burn across configured datasets, over
    /// the window's completed responses.
    pub worst_burn: f64,
    /// Whether a chaos plan was armed for this window.
    pub chaos: bool,
}

/// Aggregate outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport<T> {
    /// The engine's report for the whole run.
    pub serve: ServeReport<T>,
    /// Per-window outcomes, in window order.
    pub windows: Vec<WindowOutcome>,
    /// Autoscaling decisions, in window order.
    pub scale_events: Vec<ScaleEvent>,
    /// Pool size after the final window.
    pub replicas_final: usize,
}

impl<T> FleetReport<T> {
    /// The worst per-window burn observed over the run.
    pub fn worst_burn(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.worst_burn)
            .fold(0.0, f64::max)
    }
}

/// The fleet's autoscaling state machine and window log, stepped by
/// the engine's event loop at each window boundary
/// ([`ServeEngine::replay_scaled`]).
pub(crate) struct Autoscaler {
    proto: Device,
    chaos: Option<ChaosPlan>,
    config: FleetConfig,
    replicas: usize,
    /// `(replicas, chaos armed)` of the pool the engine serves on.
    shape: (usize, bool),
    cooldown: usize,
    calm_streak: usize,
    /// Whether the last window in `windows` is still open.
    open: bool,
    windows: Vec<WindowOutcome>,
    scale_events: Vec<ScaleEvent>,
}

impl Autoscaler {
    /// Crosses the next window boundary if it is due: no later than
    /// `next_event` (the loop's next other event) while a window is
    /// open or work remains (events, or `responses` — served so far, in
    /// completion order — completing at or after it). Closes the open
    /// window and, if work remains, opens the next. Returns `None` when
    /// no boundary is due, else the pool to swap in, if it changed.
    pub(crate) fn boundary<T>(
        &mut self,
        next_event: Option<f64>,
        responses: &[Response<T>],
        slos: &BTreeMap<usize, SloBudget>,
    ) -> Option<Option<MultiDevice>> {
        let t = self.windows.len() as f64 * self.config.window_s;
        let busy = next_event.is_some() || responses.last().is_some_and(|r| r.completion_s >= t);
        if next_event.is_some_and(|e| e < t) || !(busy || self.open) {
            return None;
        }
        if self.open {
            self.close_window(t, responses, slos);
        }
        if !busy {
            return Some(None);
        }
        // Open the next window, re-arming the pool if its shape changed.
        let armed = self
            .chaos
            .as_ref()
            .filter(|c| t < c.end_s && t + self.config.window_s > c.start_s);
        self.windows.push(WindowOutcome {
            window: self.windows.len(),
            start_s: t,
            replicas: self.replicas,
            completed: 0,
            worst_burn: 0.0,
            chaos: armed.is_some(),
        });
        self.open = true;
        let shape = (self.replicas, armed.is_some());
        if shape == self.shape {
            return Some(None);
        }
        self.shape = shape;
        let proto = match armed {
            Some(c) => self.proto.clone().with_fault_plan(c.fault.clone()),
            None => self.proto.clone(),
        };
        Some(Some(MultiDevice::replicate(&proto, self.replicas)))
    }

    fn close_window<T>(
        &mut self,
        end_s: f64,
        responses: &[Response<T>],
        slos: &BTreeMap<usize, SloBudget>,
    ) {
        let w = self.windows.last_mut().expect("a window is open");
        let from = responses.partition_point(|r| r.completion_s < w.start_s);
        let done = &responses[from..responses.partition_point(|r| r.completion_s < end_s)];
        let burn = slos
            .iter()
            .map(|(&dataset, &budget)| {
                let pairs: Vec<(f64, f64)> = done
                    .iter()
                    .filter(|r| r.dataset == dataset)
                    .map(|r| (r.completion_s, r.latency_s()))
                    .collect();
                assess(dataset, budget, &pairs).worst_window_burn()
            })
            .fold(0.0, f64::max);
        w.completed = done.len();
        w.worst_burn = burn;
        let window = w.window;
        self.open = false;

        // The autoscaling state machine (DESIGN §14): cooldown after
        // scale-up, calm streak before scale-down.
        let cfg = &self.config;
        let from = self.replicas;
        self.cooldown = self.cooldown.saturating_sub(1);
        if burn > cfg.scale_up_burn {
            self.calm_streak = 0;
            if self.cooldown == 0 && self.replicas < cfg.max_replicas {
                self.replicas += 1;
                self.cooldown = cfg.cooldown_windows;
            }
        } else if burn < cfg.scale_down_burn {
            self.calm_streak += 1;
            if self.calm_streak >= cfg.cooldown_windows.max(1) && self.replicas > cfg.min_replicas {
                self.replicas -= 1;
                self.calm_streak = 0;
            }
        } else {
            self.calm_streak = 0;
        }
        if self.replicas != from {
            self.scale_events.push(ScaleEvent {
                window,
                at_s: end_s,
                from,
                to: self.replicas,
                burn,
            });
        }
    }
}

/// An autoscaled replica fleet over a prototype device.
pub struct Fleet {
    proto: Device,
    config: FleetConfig,
    slos: BTreeMap<usize, SloBudget>,
    chaos: Option<ChaosPlan>,
    metrics: MetricsRegistry,
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

    /// The serving engine's metrics registry plus the fleet's
    /// `serve.fleet.*` window and scale counters (counters accumulate
    /// across runs; gauges reflect the latest run).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Runs the fleet over a request stream: one engine replay whose
    /// pool the autoscaler resizes (and chaos re-arms) at window
    /// boundaries. See the module docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// Propagates the first kernel error any batch produces. Under a
    /// chaos plan, fit the estimators with a
    /// [`kernels::ResiliencePolicy`] so injected faults are absorbed
    /// by the cascade instead of surfacing here.
    pub fn run<T: Real>(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        requests: &[Request<T>],
    ) -> Result<FleetReport<T>, KernelError> {
        let cfg = self.config;
        let mut engine = ServeEngine::new(
            MultiDevice::replicate(&self.proto, cfg.min_replicas),
            cfg.serve,
        );
        for (&dataset, &budget) in &self.slos {
            engine.set_slo(dataset, budget);
        }
        engine.metrics = std::mem::take(&mut self.metrics);
        let mut scaler = Autoscaler {
            proto: self.proto.clone(),
            chaos: self.chaos.clone(),
            config: cfg,
            replicas: cfg.min_replicas,
            // The engine's pool: `min_replicas` replicas, unarmed.
            shape: (cfg.min_replicas, false),
            cooldown: 0,
            calm_streak: 0,
            open: false,
            windows: Vec::new(),
            scale_events: Vec::new(),
        };
        let served = engine.replay_scaled(fitted, requests, &mut scaler);
        self.metrics = engine.metrics;
        let serve = served?;

        let m = &mut self.metrics;
        let ups = scaler.scale_events.iter().filter(|e| e.to > e.from).count() as u64;
        let downs = scaler.scale_events.len() as u64 - ups;
        let chaos_windows = scaler.windows.iter().filter(|w| w.chaos).count() as u64;
        m.inc("serve.fleet.windows_total", scaler.windows.len() as u64);
        m.inc("serve.fleet.chaos_windows_total", chaos_windows);
        m.inc("serve.fleet.scale_ups_total", ups);
        m.inc("serve.fleet.scale_downs_total", downs);
        m.set_gauge("serve.fleet.replicas", scaler.replicas as f64);
        Ok(FleetReport {
            serve,
            windows: scaler.windows,
            scale_events: scaler.scale_events,
            replicas_final: scaler.replicas,
        })
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
    let answer = |r: &Response<T>| {
        let bits: Vec<u64> = r.distances.iter().map(|d| d.to_f64().to_bits()).collect();
        (r.indices.clone(), bits)
    };
    let served = baseline.serve.responses.iter();
    let by_id: BTreeMap<u64, _> = served.map(|r| (r.id, answer(r))).collect();
    let (mut common, mut divergent) = (0, 0);
    for r in &chaos_report.serve.responses {
        if let Some(b) = by_id.get(&r.id) {
            common += 1;
            divergent += usize::from(*b != answer(r));
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
