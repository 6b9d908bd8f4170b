//! Resilience policy engine: retries, simulated backoff, and the
//! graceful-degradation fallback cascade for the pairwise primitive.
//!
//! The paper's hybrid strategy (§3.3) is a *planned* computation: the
//! shared-memory representation is chosen up front from the device
//! budget and the data's degree distribution. This module handles the
//! complement — what to do when a plan fails at launch time. Failures
//! are classified three ways:
//!
//! * **Retryable** — transient faults (injected launch failures,
//!   ECC-corrected single-bit upsets). The same plan is retried, with a
//!   simulated exponential backoff accumulated into the report.
//! * **Degradable** — capacity faults (shared memory exceeded, hash
//!   table overflow, watchdog timeout). The cascade re-plans with the
//!   next cheaper shared-memory representation, walking
//!   `Hybrid(Dense) → Hybrid(Hash) → Hybrid(Bloom) → NaiveCsrShared →
//!   NaiveCsr` (expand-sort-contract falls back into the hybrid chain).
//!   Every step trades performance for a strictly smaller shared-memory
//!   footprint, ending at the naive kernel which needs none at all.
//! * **Fatal** — shape mismatches, invalid launch geometry, and
//!   sanitizer failures. These indicate host-side bugs, not capacity or
//!   luck, and are returned unchanged.

use crate::error::KernelError;
use crate::strategy::{SmemMode, Strategy};
use gpu_sim::SimError;

/// What the engine may fall back to when a strategy cannot complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackCascade {
    /// Walk the standard degradation chain (see module docs).
    #[default]
    Standard,
    /// Never re-plan: degradable errors are returned like fatal ones
    /// (retries for transient faults still apply).
    Disabled,
}

/// Retry/fallback policy consumed by
/// [`crate::pairwise_distances_prepared`] and the batched k-NN driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Transient-fault retries per cascade step (and per k-NN selection
    /// launch).
    pub retries: u32,
    /// Base of the simulated exponential backoff between retries, in
    /// simulated seconds (doubles per retry within a step; accumulated
    /// into [`ResilienceReport::backoff_seconds`], never wall-clock).
    pub backoff_seconds: f64,
    /// Whether capacity faults may re-plan down the cascade.
    pub fallback: FallbackCascade,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        Self {
            retries: 2,
            backoff_seconds: 1e-6,
            fallback: FallbackCascade::Standard,
        }
    }
}

impl ResiliencePolicy {
    /// Policy with `retries` transient retries and the standard cascade.
    pub fn with_retries(retries: u32) -> Self {
        Self {
            retries,
            ..Self::default()
        }
    }

    /// Disables the fallback cascade (retries still apply).
    pub fn without_fallback(mut self) -> Self {
        self.fallback = FallbackCascade::Disabled;
        self
    }
}

/// Record of every decision the engine made for one pairwise call (in
/// the k-NN driver, one tile: its distance plan and its selection launch).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Attempts the tile took: 1 when nothing went wrong, plus one per
    /// retried launch (distance plan or selection) and per cascade step.
    pub attempts: u32,
    /// Human-readable description of every fault that was absorbed
    /// (retried or degraded past), in order.
    pub faults_absorbed: Vec<String>,
    /// Strategy that produced the returned distances.
    pub final_strategy: Strategy,
    /// Shared-memory mode that produced the returned distances.
    pub final_smem: SmemMode,
    /// True when the final plan differs from the requested one.
    pub downgraded: bool,
    /// Total simulated backoff spent on retries.
    pub backoff_seconds: f64,
}

impl ResilienceReport {
    /// Starts a report for a requested plan.
    pub(crate) fn new(strategy: Strategy, smem: SmemMode) -> Self {
        Self {
            attempts: 0,
            faults_absorbed: Vec::new(),
            final_strategy: strategy,
            final_smem: smem,
            downgraded: false,
            backoff_seconds: 0.0,
        }
    }
}

/// How the engine treats one error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultClass {
    /// Same plan may succeed on a re-seeded launch.
    Retryable,
    /// A smaller shared-memory plan may succeed.
    Degradable,
    /// No retry or re-plan can help.
    Fatal,
}

/// Classifies a kernel error for the retry/fallback decision.
pub(crate) fn classify(e: &KernelError) -> FaultClass {
    match e {
        KernelError::Launch(SimError::TransientFault { .. }) => FaultClass::Retryable,
        KernelError::SharedMemoryExceeded { .. }
        | KernelError::UnsupportedSmemMode(_)
        | KernelError::Launch(SimError::SmemOverBudget { .. })
        | KernelError::Launch(SimError::CapacityOverflow { .. })
        | KernelError::Launch(SimError::WatchdogTimeout { .. }) => FaultClass::Degradable,
        KernelError::ShapeMismatch { .. }
        | KernelError::Launch(SimError::InvalidLaunchConfig(_))
        | KernelError::Launch(SimError::SanitizerFailure { .. }) => FaultClass::Fatal,
    }
}

/// Runs `launch`, re-issuing it after each transient fault while
/// `policy.retries` allows. Every retry is recorded in `report`: one more
/// attempt, a `retried: …` entry, and the step's doubling simulated
/// backoff. Any other error, or a transient fault past the budget, is
/// returned for the caller to classify.
///
/// This is the one retry loop: each cascade step of
/// [`crate::pairwise_distances_prepared`], the k-NN driver's selection
/// launch and its norm pre-warming all go through it.
///
/// # Errors
///
/// Returns the first non-retryable error, or the transient fault that
/// exhausted the budget.
pub fn retry_transient<R>(
    policy: &ResiliencePolicy,
    report: &mut ResilienceReport,
    mut launch: impl FnMut() -> Result<R, KernelError>,
) -> Result<R, KernelError> {
    let mut backoff = policy.backoff_seconds;
    for _ in 0..policy.retries {
        match launch() {
            Err(e) if classify(&e) == FaultClass::Retryable => {
                report.attempts += 1;
                report.backoff_seconds += backoff;
                backoff *= 2.0;
                report.faults_absorbed.push(format!("retried: {e}"));
            }
            outcome => return outcome,
        }
    }
    launch()
}

/// The degradation chain for a requested plan: the plan itself first,
/// then strictly-smaller-footprint alternatives.
pub(crate) fn cascade_candidates(
    strategy: Strategy,
    smem: SmemMode,
    fallback: FallbackCascade,
) -> Vec<(Strategy, SmemMode)> {
    if fallback == FallbackCascade::Disabled {
        return vec![(strategy, smem)];
    }
    let hybrid_tail = |from: SmemMode| -> Vec<(Strategy, SmemMode)> {
        let rest: &[SmemMode] = match from {
            SmemMode::Dense | SmemMode::Auto => &[SmemMode::Hash, SmemMode::Bloom],
            SmemMode::Hash => &[SmemMode::Bloom],
            SmemMode::Bloom => &[],
        };
        let mut out = vec![(Strategy::HybridCooSpmv, from)];
        out.extend(rest.iter().map(|&m| (Strategy::HybridCooSpmv, m)));
        out.push((Strategy::NaiveCsrShared, SmemMode::Auto));
        out.push((Strategy::NaiveCsr, SmemMode::Auto));
        out
    };
    match strategy {
        Strategy::ExpandSortContract => {
            let mut out = vec![(Strategy::ExpandSortContract, smem)];
            out.extend(hybrid_tail(SmemMode::Auto));
            out
        }
        Strategy::HybridCooSpmv => hybrid_tail(smem),
        Strategy::NaiveCsrShared => vec![
            (Strategy::NaiveCsrShared, smem),
            (Strategy::NaiveCsr, SmemMode::Auto),
        ],
        Strategy::NaiveCsr => vec![(Strategy::NaiveCsr, smem)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_faults_are_retryable() {
        let e = KernelError::Launch(SimError::TransientFault {
            kernel: "k".into(),
            detail: "d".into(),
        });
        assert_eq!(classify(&e), FaultClass::Retryable);
    }

    #[test]
    fn capacity_faults_are_degradable() {
        for e in [
            KernelError::SharedMemoryExceeded {
                strategy: "esc",
                required: 1,
                available: 0,
            },
            KernelError::UnsupportedSmemMode("dense too wide".into()),
            KernelError::Launch(SimError::CapacityOverflow {
                kernel: "k".into(),
                resource: "smem-hash-table".into(),
                detail: "full".into(),
            }),
            KernelError::Launch(SimError::WatchdogTimeout {
                kernel: "k".into(),
                budget: 1,
            }),
            KernelError::Launch(SimError::SmemOverBudget {
                requested: 2,
                in_use: 0,
                capacity: 1,
            }),
        ] {
            assert_eq!(classify(&e), FaultClass::Degradable, "{e}");
        }
    }

    #[test]
    fn host_bugs_are_fatal() {
        let e = KernelError::ShapeMismatch {
            a_cols: 1,
            b_cols: 2,
        };
        assert_eq!(classify(&e), FaultClass::Fatal);
        let e = KernelError::Launch(SimError::InvalidLaunchConfig("zero blocks".into()));
        assert_eq!(classify(&e), FaultClass::Fatal);
    }

    #[test]
    fn cascade_walks_the_documented_chain() {
        let chain = cascade_candidates(
            Strategy::HybridCooSpmv,
            SmemMode::Dense,
            FallbackCascade::Standard,
        );
        assert_eq!(
            chain,
            vec![
                (Strategy::HybridCooSpmv, SmemMode::Dense),
                (Strategy::HybridCooSpmv, SmemMode::Hash),
                (Strategy::HybridCooSpmv, SmemMode::Bloom),
                (Strategy::NaiveCsrShared, SmemMode::Auto),
                (Strategy::NaiveCsr, SmemMode::Auto),
            ]
        );
    }

    #[test]
    fn esc_falls_back_into_the_hybrid_chain() {
        let chain = cascade_candidates(
            Strategy::ExpandSortContract,
            SmemMode::Auto,
            FallbackCascade::Standard,
        );
        assert_eq!(chain[0].0, Strategy::ExpandSortContract);
        assert_eq!(chain[1], (Strategy::HybridCooSpmv, SmemMode::Auto));
        assert_eq!(
            *chain.last().expect("non-empty"),
            (Strategy::NaiveCsr, SmemMode::Auto)
        );
    }

    #[test]
    fn naive_has_nothing_to_fall_back_to() {
        let chain = cascade_candidates(
            Strategy::NaiveCsr,
            SmemMode::Auto,
            FallbackCascade::Standard,
        );
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn disabled_cascade_keeps_only_the_request() {
        let chain = cascade_candidates(
            Strategy::HybridCooSpmv,
            SmemMode::Dense,
            FallbackCascade::Disabled,
        );
        assert_eq!(chain, vec![(Strategy::HybridCooSpmv, SmemMode::Dense)]);
    }
}
