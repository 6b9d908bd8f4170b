//! SLO-driven admission control: per-dataset token buckets and
//! queue-depth watermarks that shed or *degrade* load instead of
//! letting the queue collapse.
//!
//! The engine's original backpressure was a single cliff: arrivals past
//! [`crate::ServeConfig::max_queue`] were dropped with no further
//! nuance. Production sparse-retrieval front-ends need two softer
//! levers before that cliff (ROADMAP item 4):
//!
//! * a **token bucket** per dataset ([`AdmissionConfig::tokens_per_s`],
//!   [`AdmissionConfig::burst`]) that bounds sustained per-dataset
//!   arrival rate, so one hot tenant cannot starve the rest;
//! * **queue-depth watermarks**: past
//!   [`AdmissionConfig::degrade_watermark`] admitted requests are
//!   marked *degraded* — counted and span-marked as an overload signal;
//!   an exact batch runs its planned kernel unchanged, an IVF batch
//!   probes half as many posting lists — and past
//!   [`AdmissionConfig::shed_watermark`] arrivals are shed outright.
//!
//! Every decision is a pure function of the canonically-ordered request
//! set (the bucket refills from simulated arrival timestamps, never
//! wall-clock), so admission inherits the engine's determinism: the
//! same request set sheds the same ids for the same reasons regardless
//! of host threads or input permutation.

/// Why admission control shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The backlog reached [`crate::ServeConfig::max_queue`] (the hard
    /// cliff; always enforced, with or without an [`AdmissionConfig`]).
    QueueFull,
    /// The dataset's token bucket was empty: its sustained arrival rate
    /// exceeded [`AdmissionConfig::tokens_per_s`].
    RateLimit,
    /// The backlog reached [`AdmissionConfig::shed_watermark`].
    Watermark,
}

impl ShedReason {
    /// Short stable name used in span exports, metrics counters, and
    /// the serve CLI's stderr summary.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimit => "rate_limit",
            ShedReason::Watermark => "watermark",
        }
    }

    /// Every reason, in the stable order summaries report them.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::RateLimit,
        ShedReason::Watermark,
    ];
}

/// One shed request: the id and the typed reason, in arrival order.
/// Returned in [`crate::ServeReport::rejected`] so shedding is visible
/// without a metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Echo of [`crate::Request::id`].
    pub id: u64,
    /// Why the request was shed.
    pub reason: ShedReason,
}

/// Admission-control knobs, applied per dataset.
///
/// The default configuration admits everything (infinite rate, maximal
/// watermarks), so attaching it is behavior-neutral until a knob is
/// tightened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Token-bucket refill rate per dataset, in requests per simulated
    /// second.
    pub tokens_per_s: f64,
    /// Token-bucket capacity: the largest burst admitted at once.
    pub burst: f64,
    /// Backlog (queued + executing) at or past which admitted requests
    /// execute in degraded mode.
    pub degrade_watermark: usize,
    /// Backlog at or past which arrivals are shed with
    /// [`ShedReason::Watermark`]. Set below
    /// [`crate::ServeConfig::max_queue`] to shed with a typed reason
    /// before the hard cliff.
    pub shed_watermark: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            tokens_per_s: f64::INFINITY,
            burst: f64::INFINITY,
            degrade_watermark: usize::MAX,
            shed_watermark: usize::MAX,
        }
    }
}

impl AdmissionConfig {
    /// Sets the token-bucket rate and burst capacity.
    pub fn with_rate(mut self, tokens_per_s: f64, burst: f64) -> Self {
        assert!(
            tokens_per_s > 0.0 && burst >= 1.0,
            "token bucket needs a positive rate and room for one request"
        );
        self.tokens_per_s = tokens_per_s;
        self.burst = burst;
        self
    }

    /// Sets the degrade/shed backlog watermarks
    /// (`degrade <= shed` keeps the levers ordered).
    pub fn with_watermarks(mut self, degrade: usize, shed: usize) -> Self {
        assert!(degrade <= shed, "degrade watermark must not exceed shed");
        self.degrade_watermark = degrade;
        self.shed_watermark = shed;
        self
    }
}

/// The outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit into the dataset's open batch at full quality.
    Admit,
    /// Admit, but mark the batch degraded (an overload signal; only the
    /// IVF tier executes differently, at half `nprobe`).
    Degrade,
    /// Shed the request with the given reason.
    Shed(ShedReason),
}

/// Per-dataset token-bucket state. Refills from simulated arrival
/// timestamps; decisions in canonical `(arrival_s, id)` order are a
/// pure function of the request set.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    tokens: f64,
    last_s: f64,
}

impl TokenBucket {
    /// A full bucket (capacity tokens available at t = 0).
    pub fn new(config: &AdmissionConfig) -> Self {
        Self {
            tokens: config.burst,
            last_s: 0.0,
        }
    }

    /// Tokens currently available (before any refill).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Decides admission for one arrival at simulated time `now_s` with
    /// `backlog` requests queued or executing. Checks run hard-to-soft:
    /// the `max_queue` cliff, the shed watermark, the token bucket, and
    /// finally the degrade watermark.
    pub fn admit(
        &mut self,
        config: &AdmissionConfig,
        now_s: f64,
        backlog: usize,
        max_queue: usize,
    ) -> AdmissionDecision {
        let dt = (now_s - self.last_s).max(0.0);
        self.last_s = now_s;
        self.tokens = (self.tokens + dt * config.tokens_per_s).min(config.burst);
        if backlog >= max_queue {
            return AdmissionDecision::Shed(ShedReason::QueueFull);
        }
        if backlog >= config.shed_watermark {
            return AdmissionDecision::Shed(ShedReason::Watermark);
        }
        if self.tokens < 1.0 {
            return AdmissionDecision::Shed(ShedReason::RateLimit);
        }
        self.tokens -= 1.0;
        if backlog >= config.degrade_watermark {
            AdmissionDecision::Degrade
        } else {
            AdmissionDecision::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_admits_everything() {
        let cfg = AdmissionConfig::default();
        let mut bucket = TokenBucket::new(&cfg);
        for i in 0..1000 {
            assert_eq!(
                bucket.admit(&cfg, 0.0, i, usize::MAX),
                AdmissionDecision::Admit
            );
        }
    }

    #[test]
    fn queue_cliff_outranks_every_other_lever() {
        let cfg = AdmissionConfig::default().with_watermarks(2, 4);
        let mut bucket = TokenBucket::new(&cfg);
        assert_eq!(
            bucket.admit(&cfg, 0.0, 8, 8),
            AdmissionDecision::Shed(ShedReason::QueueFull)
        );
        assert_eq!(
            bucket.admit(&cfg, 0.0, 4, 8),
            AdmissionDecision::Shed(ShedReason::Watermark)
        );
        assert_eq!(bucket.admit(&cfg, 0.0, 2, 8), AdmissionDecision::Degrade);
        assert_eq!(bucket.admit(&cfg, 0.0, 1, 8), AdmissionDecision::Admit);
    }

    #[test]
    fn token_bucket_rate_limits_and_refills() {
        let cfg = AdmissionConfig::default().with_rate(1000.0, 2.0);
        let mut bucket = TokenBucket::new(&cfg);
        // Burst capacity 2: two immediate admits, then the bucket is dry.
        assert_eq!(bucket.admit(&cfg, 0.0, 0, 8), AdmissionDecision::Admit);
        assert_eq!(bucket.admit(&cfg, 0.0, 0, 8), AdmissionDecision::Admit);
        assert_eq!(
            bucket.admit(&cfg, 0.0, 0, 8),
            AdmissionDecision::Shed(ShedReason::RateLimit)
        );
        // 1 ms at 1000 tokens/s refills exactly one token.
        assert_eq!(bucket.admit(&cfg, 1e-3, 0, 8), AdmissionDecision::Admit);
        assert_eq!(
            bucket.admit(&cfg, 1e-3, 0, 8),
            AdmissionDecision::Shed(ShedReason::RateLimit)
        );
    }

    #[test]
    fn refill_caps_at_burst() {
        let cfg = AdmissionConfig::default().with_rate(1000.0, 3.0);
        let mut bucket = TokenBucket::new(&cfg);
        // A long idle gap must not bank more than `burst` tokens.
        bucket.admit(&cfg, 100.0, 0, 8);
        assert!(bucket.tokens() <= 3.0);
    }

    #[test]
    fn reasons_have_stable_names() {
        let names: Vec<&str> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["queue_full", "rate_limit", "watermark"]);
    }
}
