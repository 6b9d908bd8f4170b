//! Per-dataset SLO budgets: a target p99 latency, an error budget, and
//! burn rates over sliding simulated-time windows.
//!
//! An [`SloBudget`] says "the p99 latency of dataset *d* stays under
//! `target_p99_s`, with at most `error_budget` of requests allowed to
//! breach it". [`assess`] replays a response set against the budget:
//! overall breach fraction, budget burn (breach fraction over the
//! budget — burn > 1.0 means the SLO is violated), and the worst burn
//! over sliding windows of `window_s` (half-window stride), which is
//! the early-warning signal admission control and autoscaling (ROADMAP
//! item 4) will act on. Everything is computed from simulated
//! timestamps in canonical response order, so SLO reports inherit the
//! engine's bit-for-bit determinism.

use crate::metrics::MetricsRegistry;

/// Cap on assessed sliding windows; past it the stride widens so the
/// report stays bounded (the cap is far above any realistic replay).
const MAX_WINDOWS: usize = 4096;

/// A per-dataset latency SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBudget {
    /// The p99 latency target in simulated seconds.
    pub target_p99_s: f64,
    /// Allowed fraction of requests breaching the target (e.g. 0.01).
    pub error_budget: f64,
    /// Sliding-window length in simulated seconds for burn tracking.
    pub window_s: f64,
}

impl SloBudget {
    /// A budget with the conventional 1% error budget and a window of
    /// 100 × the target (so one window holds enough traffic for the
    /// fraction to mean something).
    pub fn p99(target_p99_s: f64) -> Self {
        assert!(
            target_p99_s > 0.0 && target_p99_s.is_finite(),
            "SLO target must be positive and finite"
        );
        Self {
            target_p99_s,
            error_budget: 0.01,
            window_s: target_p99_s * 100.0,
        }
    }

    /// Overrides the error budget.
    pub fn with_error_budget(mut self, error_budget: f64) -> Self {
        assert!(
            error_budget > 0.0 && error_budget <= 1.0,
            "error budget must be in (0, 1]"
        );
        self.error_budget = error_budget;
        self
    }
}

/// Burn accounting for one sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowBurn {
    /// Window start (simulated seconds).
    pub start_s: f64,
    /// Responses completing inside the window.
    pub requests: u64,
    /// Of those, responses over the latency target.
    pub breaches: u64,
}

/// The assessed SLO outcome for one dataset over one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Dataset id the budget applies to.
    pub dataset: usize,
    /// The budget that was assessed.
    pub budget: SloBudget,
    /// Responses assessed.
    pub requests: u64,
    /// Responses over `target_p99_s`.
    pub breaches: u64,
    /// Sliding windows (half-window stride), in start order.
    pub windows: Vec<WindowBurn>,
}

impl SloReport {
    /// Fraction of responses breaching the target (0.0 when empty).
    pub fn breach_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.breaches as f64 / self.requests as f64
        }
    }

    /// Overall error-budget burn: breach fraction over the budget.
    /// Burn ≤ 1.0 means the SLO held.
    pub fn budget_burn(&self) -> f64 {
        self.breach_fraction() / self.budget.error_budget
    }

    /// The worst burn over any sliding window (0.0 with no windows).
    pub fn worst_window_burn(&self) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.requests > 0)
            .map(|w| (w.breaches as f64 / w.requests as f64) / self.budget.error_budget)
            .fold(0.0, f64::max)
    }

    /// Records this report's signals into `reg` under
    /// `serve.d<dataset>.slo_*` names.
    pub fn record(&self, reg: &mut MetricsRegistry) {
        let d = self.dataset;
        reg.inc(&format!("serve.d{d}.slo_requests_total"), self.requests);
        reg.inc(&format!("serve.d{d}.slo_breaches_total"), self.breaches);
        reg.set_gauge(
            &format!("serve.d{d}.slo_target_p99_s"),
            self.budget.target_p99_s,
        );
        reg.set_gauge(&format!("serve.d{d}.slo_budget_burn"), self.budget_burn());
        reg.set_gauge(
            &format!("serve.d{d}.slo_worst_window_burn"),
            self.worst_window_burn(),
        );
    }
}

/// Assesses `budget` over one dataset's `(completion_s, latency_s)`
/// pairs (any order; windowing is order-independent by construction).
pub fn assess(dataset: usize, budget: SloBudget, responses: &[(f64, f64)]) -> SloReport {
    let requests = responses.len() as u64;
    let breaches = responses
        .iter()
        .filter(|(_, lat)| *lat > budget.target_p99_s)
        .count() as u64;
    let mut windows = Vec::new();
    if !responses.is_empty() {
        let t0 = responses
            .iter()
            .map(|(c, _)| *c)
            .fold(f64::INFINITY, f64::min);
        let t1 = responses
            .iter()
            .map(|(c, _)| *c)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut stride = budget.window_s / 2.0;
        let span = (t1 - t0).max(0.0);
        if span / stride > MAX_WINDOWS as f64 {
            stride = span / MAX_WINDOWS as f64;
        }
        let mut j = 0usize;
        loop {
            let start = t0 + stride * j as f64;
            if start > t1 {
                break;
            }
            let end = start + budget.window_s;
            let mut w = WindowBurn {
                start_s: start,
                requests: 0,
                breaches: 0,
            };
            for (c, lat) in responses {
                if *c >= start && *c < end {
                    w.requests += 1;
                    if *lat > budget.target_p99_s {
                        w.breaches += 1;
                    }
                }
            }
            windows.push(w);
            j += 1;
        }
    }
    SloReport {
        dataset,
        budget,
        requests,
        breaches,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rates_follow_breach_fraction() {
        let budget = SloBudget::p99(1e-3).with_error_budget(0.1);
        // 10 responses, 2 over target.
        let responses: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64 * 1e-3, if i < 2 { 2e-3 } else { 1e-4 }))
            .collect();
        let r = assess(0, budget, &responses);
        assert_eq!((r.requests, r.breaches), (10, 2));
        assert!((r.breach_fraction() - 0.2).abs() < 1e-12);
        assert!((r.budget_burn() - 2.0).abs() < 1e-12);
        // The breaches cluster early, so some window burns hotter than
        // the overall rate.
        assert!(r.worst_window_burn() >= r.budget_burn());
    }

    #[test]
    fn empty_response_set_is_defined() {
        let r = assess(0, SloBudget::p99(1e-3), &[]);
        assert_eq!(r.breach_fraction(), 0.0);
        assert_eq!(r.budget_burn(), 0.0);
        assert_eq!(r.worst_window_burn(), 0.0);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn record_lands_in_the_registry() {
        let mut reg = MetricsRegistry::new();
        let r = assess(1, SloBudget::p99(1e-3), &[(0.0, 2e-3), (1e-4, 1e-5)]);
        r.record(&mut reg);
        assert_eq!(reg.counter("serve.d1.slo_requests_total"), 2);
        assert_eq!(reg.counter("serve.d1.slo_breaches_total"), 1);
        assert!(reg.gauge("serve.d1.slo_budget_burn").unwrap() > 1.0);
    }
}
