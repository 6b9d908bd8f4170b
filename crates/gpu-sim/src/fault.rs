//! Deterministic fault injection for simulated launches.
//!
//! Real GPU deployments see faults the functional model alone never
//! produces: transient launch failures (driver hiccups, ECC events),
//! single-bit upsets in device memory, allocation failures under
//! fragmentation, and data-dependent capacity overflows in
//! block-cooperative structures. This module lets a test or a resilience
//! layer schedule those faults *deterministically* — a [`FaultPlan`] is
//! seeded, draws its per-launch decisions from [`crate::murmur::murmur3_32`]
//! over a launch ordinal, and never consults the wall clock — so a run
//! that absorbed a fault can be replayed bit-for-bit.
//!
//! Four fault classes are supported:
//!
//! * **Transient launch failures** — the launch fails before any block
//!   runs, with [`SimError::TransientFault`]. A retry (which advances the
//!   launch ordinal) re-rolls the decision.
//! * **Single-bit upsets** on *named* [`crate::GlobalBuffer`]s — modeled
//!   as an ECC event: the first kernel access to a buffer whose label
//!   matches the plan's target detects the flip, the storage is treated
//!   as corrected, and the launch is retired with
//!   [`SimError::TransientFault`] so the host can re-issue it. User data
//!   is never actually corrupted, which keeps retried runs byte-identical
//!   to fault-free runs.
//! * **Forced shared-memory allocation failures** — the first
//!   [`crate::BlockCtx::alloc_shared`] of a selected launch records a
//!   [`SimError::CapacityOverflow`]; the kernel limps to the end of the
//!   block on a working array (the same record-and-limp discipline as
//!   [`crate::SharedMem`]'s over-budget path).
//! * **Injected hash-table insert overflow** — the first
//!   [`crate::SmemHashTable::insert_warp`] of a selected launch behaves
//!   as if the table were full, recording a
//!   [`SimError::CapacityOverflow`].
//!
//! All recorded faults surface through the existing
//! `take_fault`/[`crate::Device::try_launch`] path: the block finishes,
//! the launch returns `Err`, and the caller (typically the `kernels`
//! resilience engine) decides whether to retry or to fall back.
//!
//! An unarmed plan ([`FaultPlan::none`], the default) costs one pointer
//! check per launch and leaves counters, cost estimates, and outputs
//! byte-identical to a device without a plan.

use std::cell::{Cell, RefCell};

use crate::murmur::murmur3_32;
use crate::sanitizer::SimError;

/// Per-mille (0..=1000) probability used by every injection knob. A rate
/// of 1000 fires on every launch; 0 never fires.
pub type PerMille = u16;

/// Target of the single-bit-upset injector.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlipSpec {
    /// Label of the [`crate::GlobalBuffer`] to hit (see
    /// [`crate::GlobalBuffer::set_label`]).
    buffer: String,
    rate: PerMille,
}

/// A seeded, deterministic schedule of faults to inject into launches.
///
/// Attach it to a device with [`crate::Device::with_fault_plan`]. Each
/// [`crate::Device::try_launch`] consumes one launch ordinal and rolls
/// every armed fault class independently against it, so identical seeds
/// and launch sequences produce identical faults.
///
/// ```
/// use gpu_sim::{Device, FaultPlan, LaunchConfig, SimError};
///
/// let plan = FaultPlan::seeded(42).with_transient_launch_failures(1000);
/// let dev = Device::volta().with_fault_plan(plan);
/// let err = dev.try_launch("noop", LaunchConfig::new(1, 32, 0), |_| {});
/// assert!(matches!(err, Err(SimError::TransientFault { .. })));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    transient: PerMille,
    smem_fail: PerMille,
    hash_overflow: PerMille,
    flip: Option<FlipSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default). Devices carrying it
    /// behave byte-identically to devices without a plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with the given seed and no fault classes armed yet.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Arms transient launch failures at `rate` per mille: a selected
    /// launch fails with [`SimError::TransientFault`] before any block
    /// runs.
    pub fn with_transient_launch_failures(mut self, rate: PerMille) -> Self {
        self.transient = rate.min(1000);
        self
    }

    /// Arms forced shared-memory allocation failures at `rate` per
    /// mille: the first `alloc_shared` of a selected launch records a
    /// [`SimError::CapacityOverflow`].
    pub fn with_smem_alloc_failures(mut self, rate: PerMille) -> Self {
        self.smem_fail = rate.min(1000);
        self
    }

    /// Arms injected hash-table insert overflow at `rate` per mille: the
    /// first `insert_warp` of a selected launch behaves as if the table
    /// were full.
    pub fn with_hash_overflows(mut self, rate: PerMille) -> Self {
        self.hash_overflow = rate.min(1000);
        self
    }

    /// Arms single-bit upsets on the global buffer labeled `buffer` at
    /// `rate` per mille (see [`crate::GlobalBuffer::set_label`]). The
    /// upset is detected at the first kernel access and surfaces as
    /// [`SimError::TransientFault`] (the ECC corrected-and-retired
    /// model); buffer contents are not altered.
    pub fn with_bit_flips(mut self, buffer: &str, rate: PerMille) -> Self {
        self.flip = Some(FlipSpec {
            buffer: buffer.to_string(),
            rate: rate.min(1000),
        });
        self
    }

    /// Whether any fault class is armed.
    pub fn is_armed(&self) -> bool {
        self.transient > 0
            || self.smem_fail > 0
            || self.hash_overflow > 0
            || self.flip.as_ref().is_some_and(|f| f.rate > 0)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic per-mille roll for launch `ordinal` and fault-class
    /// `salt`: murmur-mixed, seed-dependent, wall-clock-free.
    fn roll(&self, ordinal: u64, salt: u32) -> u32 {
        let lo = (ordinal & 0xffff_ffff) as u32;
        let hi = (ordinal >> 32) as u32;
        let s = (self.seed as u32) ^ ((self.seed >> 32) as u32).wrapping_mul(0x9e37_79b9);
        let h = murmur3_32(lo ^ salt, s);
        murmur3_32(hi ^ h, s ^ salt)
    }

    /// Rolls every armed fault class against launch `ordinal`.
    pub(crate) fn decide(&self, ordinal: u64) -> InjectionSet {
        const SALT_TRANSIENT: u32 = 0x7261_6e73; // "rans"
        const SALT_SMEM: u32 = 0x736d_656d; // "smem"
        const SALT_HASH: u32 = 0x6861_7368; // "hash"
        const SALT_FLIP: u32 = 0x666c_6970; // "flip"
        let hit =
            |rate: PerMille, salt: u32| rate > 0 && self.roll(ordinal, salt) % 1000 < rate as u32;
        InjectionSet {
            ordinal,
            transient: hit(self.transient, SALT_TRANSIENT),
            smem_fail: hit(self.smem_fail, SALT_SMEM),
            hash_overflow: hit(self.hash_overflow, SALT_HASH),
            flip: self.flip.as_ref().and_then(|f| {
                hit(f.rate, SALT_FLIP).then(|| FlipTarget {
                    buffer: f.buffer.clone(),
                    entropy: self.roll(ordinal, SALT_FLIP ^ 0xe17a),
                })
            }),
        }
    }
}

/// Shared, interior-mutable plan state held by a [`crate::Device`]: the
/// plan plus the monotonically increasing launch ordinal its decisions
/// key off. Cloned devices share the ordinal, so a fixed launch sequence
/// sees a fixed fault sequence regardless of which handle issued it.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    ordinal: Cell<u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            ordinal: Cell::new(0),
        }
    }

    /// Consumes and returns the next launch ordinal.
    pub(crate) fn next_ordinal(&self) -> u64 {
        let o = self.ordinal.get();
        self.ordinal.set(o + 1);
        o
    }
}

/// The resolved injection decisions for one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InjectionSet {
    pub(crate) ordinal: u64,
    pub(crate) transient: bool,
    pub(crate) smem_fail: bool,
    pub(crate) hash_overflow: bool,
    pub(crate) flip: Option<FlipTarget>,
}

/// A scheduled single-bit upset: which labeled buffer to hit and the
/// entropy that picks the element/bit once the buffer's length is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlipTarget {
    pub(crate) buffer: String,
    pub(crate) entropy: u32,
}

/// Panic payload used by the watchdog to unwind out of a runaway kernel
/// closure; [`crate::Device::try_launch`] catches it and converts it to
/// [`SimError::WatchdogTimeout`].
pub(crate) struct WatchdogAbort;

/// Fault context of one block executor: the injection decisions for
/// this launch, the effective watchdog budget, and the record-and-limp
/// fault slot that hardened warp primitives write into. The in-order
/// executor owns one context per launch, armed with the launch's
/// injections; each host-pool worker owns one uninjected context for all
/// the blocks it runs. Either lends it by reference to every block and
/// warp context and drains the slot after each block.
#[derive(Debug)]
pub(crate) struct LaunchFaults {
    kernel: String,
    watchdog: Option<u64>,
    inject: Option<InjectionSet>,
    slot: RefCell<Option<SimError>>,
    smem_fired: Cell<bool>,
    hash_fired: Cell<bool>,
    flip_fired: Cell<bool>,
}

impl LaunchFaults {
    pub(crate) fn new(kernel: &str, inject: Option<InjectionSet>, watchdog: Option<u64>) -> Self {
        Self {
            kernel: kernel.to_string(),
            watchdog,
            inject,
            slot: RefCell::new(None),
            smem_fired: Cell::new(false),
            hash_fired: Cell::new(false),
            flip_fired: Cell::new(false),
        }
    }

    /// A context with no injections and no watchdog (tests).
    #[cfg(test)]
    pub(crate) fn disabled() -> Self {
        Self::new("", None, None)
    }

    pub(crate) fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Per-block effective-issue budget, when a watchdog is armed.
    #[inline]
    pub(crate) fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// Records a fault; the first one wins (later records are dropped,
    /// matching [`crate::SharedMem`]'s lenient-allocation slot).
    pub(crate) fn record(&self, e: SimError) {
        let mut slot = self.slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Whether a fault has been recorded for this launch.
    pub(crate) fn pending(&self) -> bool {
        self.slot.borrow().is_some()
    }

    /// Drains the recorded fault, if any.
    pub(crate) fn take(&self) -> Option<SimError> {
        self.slot.borrow_mut().take()
    }

    /// True exactly once per selected launch: consumes the scheduled
    /// shared-memory allocation failure.
    pub(crate) fn take_injected_smem_failure(&self) -> bool {
        match &self.inject {
            Some(set) if set.smem_fail && !self.smem_fired.get() => {
                self.smem_fired.set(true);
                true
            }
            _ => false,
        }
    }

    /// True exactly once per selected launch: consumes the scheduled
    /// hash-table insert overflow.
    pub(crate) fn take_injected_hash_overflow(&self) -> bool {
        match &self.inject {
            Some(set) if set.hash_overflow && !self.hash_fired.get() => {
                self.hash_fired.set(true);
                true
            }
            _ => false,
        }
    }

    /// Fast pre-check used by the global-memory access paths: is a bit
    /// flip scheduled and still unfired?
    #[inline]
    pub(crate) fn wants_flip(&self) -> bool {
        !self.flip_fired.get() && self.inject.as_ref().is_some_and(|set| set.flip.is_some())
    }

    /// Called on each global access when [`Self::wants_flip`]: if the
    /// accessed buffer's label matches the scheduled target, the upset
    /// fires — a [`SimError::TransientFault`] is recorded (the ECC
    /// detected-and-corrected model) and the injector disarms.
    pub(crate) fn maybe_flip(&self, label: Option<&str>, len: usize, elem_bits: u32) {
        let Some(set) = &self.inject else { return };
        let Some(target) = &set.flip else { return };
        if label != Some(target.buffer.as_str()) {
            return;
        }
        self.flip_fired.set(true);
        let elem = if len == 0 {
            0
        } else {
            target.entropy as usize % len
        };
        let bit = murmur3_32(target.entropy, 0x0b17) % elem_bits.max(1);
        self.record(SimError::TransientFault {
            kernel: self.kernel.clone(),
            detail: format!(
                "single-bit upset detected in buffer `{}` element {elem} bit {bit} \
                 (ECC-corrected; launch retired, launch #{})",
                target.buffer, set.ordinal
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_decides_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_armed());
        for o in 0..64 {
            let set = plan.decide(o);
            assert!(!set.transient && !set.smem_fail && !set.hash_overflow);
            assert!(set.flip.is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::seeded(7).with_transient_launch_failures(250);
        let b = FaultPlan::seeded(7).with_transient_launch_failures(250);
        let c = FaultPlan::seeded(8).with_transient_launch_failures(250);
        let hits = |p: &FaultPlan| (0..256).map(|o| p.decide(o).transient).collect::<Vec<_>>();
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c), "different seeds should differ");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::seeded(3).with_hash_overflows(500);
        let hits = (0..1000).filter(|&o| plan.decide(o).hash_overflow).count();
        assert!((350..650).contains(&hits), "500‰ drew {hits}/1000");
    }

    #[test]
    fn fault_classes_roll_independently() {
        let plan = FaultPlan::seeded(11)
            .with_transient_launch_failures(300)
            .with_smem_alloc_failures(300);
        let same = (0..512)
            .map(|o| plan.decide(o))
            .filter(|s| s.transient == s.smem_fail)
            .count();
        // Perfect correlation would give 512; independence lands near
        // 0.3·0.3 + 0.7·0.7 ≈ 58%.
        assert!(same < 450, "transient and smem decisions track each other");
    }

    #[test]
    fn injections_fire_once() {
        let set = FaultPlan::seeded(0)
            .with_smem_alloc_failures(1000)
            .with_hash_overflows(1000)
            .decide(0);
        let lf = LaunchFaults::new("k", Some(set), None);
        assert!(lf.take_injected_smem_failure());
        assert!(!lf.take_injected_smem_failure());
        assert!(lf.take_injected_hash_overflow());
        assert!(!lf.take_injected_hash_overflow());
    }

    #[test]
    fn flip_matches_label_and_records_transient() {
        let set = FaultPlan::seeded(0)
            .with_bit_flips("coo.values", 1000)
            .decide(0);
        let lf = LaunchFaults::new("hybrid", Some(set), None);
        assert!(lf.wants_flip());
        lf.maybe_flip(Some("coo.rows"), 64, 64);
        assert!(!lf.pending(), "wrong label must not fire");
        lf.maybe_flip(None, 64, 64);
        assert!(!lf.pending(), "unlabeled buffer must not fire");
        lf.maybe_flip(Some("coo.values"), 64, 64);
        assert!(!lf.wants_flip(), "flip disarms after firing");
        match lf.take() {
            Some(SimError::TransientFault { kernel, detail }) => {
                assert_eq!(kernel, "hybrid");
                assert!(detail.contains("single-bit upset"));
                assert!(detail.contains("coo.values"));
            }
            other => panic!("expected TransientFault, got {other:?}"),
        }
    }

    #[test]
    fn first_recorded_fault_wins() {
        let lf = LaunchFaults::new("k", None, None);
        lf.record(SimError::InvalidLaunchConfig("first".into()));
        lf.record(SimError::InvalidLaunchConfig("second".into()));
        assert_eq!(
            lf.take(),
            Some(SimError::InvalidLaunchConfig("first".into()))
        );
        assert_eq!(lf.take(), None);
    }
}
