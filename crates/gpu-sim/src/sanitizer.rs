//! Opt-in launch-time analysis: a `compute-sanitizer` analog.
//!
//! Real CUDA development leans on `compute-sanitizer` to catch the bug
//! classes the SIMT model invites — out-of-bounds accesses, shared-memory
//! races between warps, divergent barriers, and reads of uninitialized
//! memory. This module gives the simulator the same four checkers:
//!
//! * **memcheck** — per-lane bounds checks on every global and shared
//!   access; faults become structured [`SanitizerReport`]s (kernel,
//!   block, warp, lane, buffer, offset) instead of bare `Vec` index
//!   panics, and the faulting lane is squashed.
//! * **racecheck** — a per-element shared-memory shadow tracks the last
//!   writer and reader (warp + barrier epoch); write-write, read-write,
//!   and write-read pairs from different warps inside one epoch are
//!   flagged unless both sides are atomic.
//! * **synccheck** — barriers under a divergent lane mask, and warps
//!   arriving at `__syncthreads()` a different number of times.
//! * **initcheck** — reads of shared or global words that were never
//!   written (global buffers created with [`crate::GlobalBuffer::uninit`]
//!   track a per-element init bitmap).
//!
//! The knob is [`SanitizerMode`]: `Off` (default — no sanitizer state is
//! built, legacy panic behaviour), `Warn` (collect reports into
//! [`crate::LaunchStats::sanitizer_reports`]), or `Fail` (a non-empty
//! report set fails the launch with [`SimError::SanitizerFailure`]).
//! Select it for every launch on a device via
//! [`crate::Device::with_sanitizer`].

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// How much checking a launch performs, and what happens on a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizerMode {
    /// No checking; out-of-bounds accesses panic as plain `Vec` indexing.
    #[default]
    Off,
    /// Check everything, collect reports, let the launch complete.
    Warn,
    /// Check everything; any report fails the launch
    /// ([`crate::Device::try_launch`] returns
    /// [`SimError::SanitizerFailure`], [`crate::Device::launch`] panics).
    Fail,
}

/// Which checker produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerKind {
    /// Out-of-bounds global or shared access.
    Memcheck,
    /// Inter-warp shared-memory hazard without an intervening barrier.
    Racecheck,
    /// Divergent or mismatched barrier use.
    Synccheck,
    /// Read of never-written memory.
    Initcheck,
}

impl fmt::Display for CheckerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckerKind::Memcheck => "memcheck",
            CheckerKind::Racecheck => "racecheck",
            CheckerKind::Synccheck => "synccheck",
            CheckerKind::Initcheck => "initcheck",
        };
        f.write_str(s)
    }
}

/// The address space a report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSpace {
    /// A [`crate::GlobalBuffer`], identified by its allocation id.
    Global {
        /// The buffer's process-unique id.
        buffer: u64,
    },
    /// A [`crate::SharedArray`], identified by its byte offset within the
    /// block's shared-memory pool.
    Shared {
        /// Byte offset of the array within the block's pool.
        base_byte: usize,
    },
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Global { buffer } => write!(f, "global buffer #{buffer}"),
            MemSpace::Shared { base_byte } => write!(f, "shared array @+{base_byte}B"),
        }
    }
}

/// One finding from one checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// The checker that fired.
    pub kind: CheckerKind,
    /// Kernel name of the offending launch.
    pub kernel: String,
    /// Block the access happened in.
    pub block: usize,
    /// Warp within the block (`None` for host-style accesses).
    pub warp: Option<usize>,
    /// Lane within the warp (`None` for warp-wide or host findings).
    pub lane: Option<usize>,
    /// Which memory the finding refers to (`None` for barrier findings).
    pub space: Option<MemSpace>,
    /// Element offset within `space` (when applicable).
    pub offset: Option<usize>,
    /// Human-readable description of the hazard.
    pub detail: String,
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] kernel `{}` block {}",
            self.kind, self.kernel, self.block
        )?;
        if let Some(w) = self.warp {
            write!(f, " warp {w}")?;
        }
        if let Some(l) = self.lane {
            write!(f, " lane {l}")?;
        }
        if let Some(space) = &self.space {
            write!(f, " at {space}")?;
            if let Some(off) = self.offset {
                write!(f, "[{off}]")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

/// A failed simulator operation, surfaced as a value instead of a panic.
///
/// [`crate::Device::try_launch`] returns this; [`crate::Device::launch`]
/// panics with its [`fmt::Display`] text, which keeps the historical
/// panic messages (`"shared memory over budget"`,
/// `"invalid threads_per_block"`, `"exceeds device limit"`) intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A shared-memory allocation exceeded the block's budget.
    SmemOverBudget {
        /// Bytes the failing allocation asked for.
        requested: usize,
        /// Bytes already allocated in the block.
        in_use: usize,
        /// The block's total budget.
        capacity: usize,
    },
    /// The launch geometry is invalid for the device.
    InvalidLaunchConfig(String),
    /// The launch ran under [`SanitizerMode::Fail`] and produced reports.
    SanitizerFailure {
        /// Kernel name of the failing launch.
        kernel: String,
        /// Every report the checkers produced.
        reports: Vec<SanitizerReport>,
    },
    /// A transient, retryable fault: an injected launch failure, a
    /// detected-and-corrected single-bit upset on a global buffer, or a
    /// corrupted lane recorded by a hardened warp primitive (see
    /// [`crate::fault`]). Retrying the same launch is expected to
    /// succeed.
    TransientFault {
        /// Kernel name of the failing launch.
        kernel: String,
        /// What went wrong, for logs and reports.
        detail: String,
    },
    /// The launch exceeded its watchdog budget
    /// ([`crate::Device::with_watchdog`]): some block issued more
    /// effective warp instructions than allowed, the usual signature of
    /// a livelocked loop.
    WatchdogTimeout {
        /// Kernel name of the failing launch.
        kernel: String,
        /// The per-block effective-issue budget that was exceeded.
        budget: u64,
    },
    /// A block-cooperative structure (hash table, shared-memory
    /// allocator) ran out of capacity at run time — the data-dependent
    /// failure the hybrid planner's fallback cascade exists to absorb.
    CapacityOverflow {
        /// Kernel name of the failing launch.
        kernel: String,
        /// Which structure overflowed (e.g. `smem-hash-table`).
        resource: String,
        /// What went wrong, for logs and reports.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SmemOverBudget {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "shared memory over budget: {in_use} + {requested} > {capacity} bytes"
            ),
            SimError::InvalidLaunchConfig(msg) => f.write_str(msg),
            SimError::SanitizerFailure { kernel, reports } => {
                writeln!(
                    f,
                    "sanitizer: {} finding(s) in kernel `{}`:",
                    reports.len(),
                    kernel
                )?;
                for r in reports.iter().take(8) {
                    writeln!(f, "  {r}")?;
                }
                if reports.len() > 8 {
                    writeln!(f, "  ... and {} more", reports.len() - 8)?;
                }
                Ok(())
            }
            SimError::TransientFault { kernel, detail } => {
                write!(f, "transient fault in kernel `{kernel}`: {detail}")
            }
            SimError::WatchdogTimeout { kernel, budget } => write!(
                f,
                "watchdog timeout in kernel `{kernel}`: exceeded {budget} effective issues per block"
            ),
            SimError::CapacityOverflow {
                kernel,
                resource,
                detail,
            } => write!(
                f,
                "capacity overflow in kernel `{kernel}` ({resource}): {detail}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Cap on collected reports per launch; a broken kernel touching a large
/// buffer would otherwise flood memory with identical findings.
const MAX_REPORTS: usize = 128;

/// A report list capped at [`MAX_REPORTS`]: findings past the cap are
/// counted, not kept. Each block collects into one, and the launch folds
/// them into another in block order, so the retained reports are the
/// first [`MAX_REPORTS`] in block order under either scheduler.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct CappedReports {
    pub(crate) reports: Vec<SanitizerReport>,
    /// Reports discarded past the cap.
    pub(crate) dropped: usize,
}

impl CappedReports {
    /// Keeps `r` while the list is under the cap, else counts it dropped.
    pub(crate) fn push(&mut self, r: SanitizerReport) {
        if self.reports.len() < MAX_REPORTS {
            self.reports.push(r);
        } else {
            self.dropped += 1;
        }
    }

    /// Pushes `other`'s reports in order and adds its dropped count.
    pub(crate) fn append(&mut self, other: CappedReports) {
        self.dropped += other.dropped;
        for r in other.reports {
            self.push(r);
        }
    }
}

/// One block's sanitizer, built only when the launch's mode is not
/// [`SanitizerMode::Off`]: its findings, the barrier epoch (advanced by
/// every [`crate::BlockCtx::sync`]) and per-warp barrier-arrival counts.
#[derive(Debug)]
pub(crate) struct BlockSanitizer {
    kernel: String,
    block_id: usize,
    epoch: Cell<u64>,
    arrivals: RefCell<Vec<u64>>,
    reports: RefCell<CappedReports>,
}

impl BlockSanitizer {
    pub(crate) fn new(kernel: &str, block_id: usize, warps: usize) -> Self {
        Self {
            kernel: kernel.to_string(),
            block_id,
            epoch: Cell::new(0),
            arrivals: RefCell::new(vec![0; warps.max(1)]),
            reports: RefCell::new(CappedReports::default()),
        }
    }

    /// Drains the block's findings.
    pub(crate) fn take_reports(&self) -> CappedReports {
        self.reports.take()
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    pub(crate) fn report(
        &self,
        kind: CheckerKind,
        warp: Option<usize>,
        lane: Option<usize>,
        space: Option<MemSpace>,
        offset: Option<usize>,
        detail: String,
    ) {
        self.reports.borrow_mut().push(SanitizerReport {
            kind,
            kernel: self.kernel.clone(),
            block: self.block_id,
            warp,
            lane,
            space,
            offset,
            detail,
        });
    }

    /// Records warp `warp` arriving at a barrier under mask fullness
    /// `full`; a partial mask is an immediate synccheck finding (CUDA's
    /// "barrier in divergent code" hazard).
    pub(crate) fn barrier_arrival(&self, warp: usize, active_lanes: usize, full: bool) {
        {
            let mut arr = self.arrivals.borrow_mut();
            if warp < arr.len() {
                arr[warp] += 1;
            }
        }
        if !full {
            self.report(
                CheckerKind::Synccheck,
                Some(warp),
                None,
                None,
                None,
                format!(
                    "barrier reached under a divergent mask ({active_lanes}/{} lanes active)",
                    crate::warp::WARP_SIZE
                ),
            );
        }
    }

    /// Advances the barrier epoch at a block-wide `__syncthreads()` and
    /// verifies every warp announced the same number of arrivals.
    pub(crate) fn block_sync(&self) {
        let mut arr = self.arrivals.borrow_mut();
        let max = arr.iter().copied().max().unwrap_or(0);
        let min = arr.iter().copied().min().unwrap_or(0);
        if max != min {
            self.report(
                CheckerKind::Synccheck,
                None,
                None,
                None,
                None,
                format!(
                    "mismatched barrier participation across warps (arrival counts {:?})",
                    &*arr
                ),
            );
        }
        arr.fill(0);
        self.epoch.set(self.epoch.get() + 1);
    }
}

/// One memory access in the racecheck shadow.
#[derive(Debug, Clone, Copy)]
struct Access {
    warp: usize,
    epoch: u64,
    atomic: bool,
}

impl Access {
    /// Whether `self` (an earlier access) conflicts with a new access by
    /// `warp` in `epoch`: different warps, same barrier epoch, and not
    /// both atomic.
    fn conflicts(&self, warp: usize, epoch: u64, atomic: bool) -> bool {
        self.warp != warp && self.epoch == epoch && !(self.atomic && atomic)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ElemShadow {
    init: bool,
    writer: Option<Access>,
    reader: Option<Access>,
}

/// Per-element shadow state of one [`crate::SharedArray`]: initialization
/// bit plus last writer / reader for racecheck.
#[derive(Debug)]
pub(crate) struct SmemShadow {
    san: Rc<BlockSanitizer>,
    base_byte: usize,
    elems: RefCell<Vec<ElemShadow>>,
}

impl SmemShadow {
    pub(crate) fn new(san: Rc<BlockSanitizer>, base_byte: usize, len: usize) -> Self {
        Self {
            san,
            base_byte,
            elems: RefCell::new(vec![ElemShadow::default(); len]),
        }
    }

    fn space(&self) -> Option<MemSpace> {
        Some(MemSpace::Shared {
            base_byte: self.base_byte,
        })
    }

    /// Host-style bulk initialization (`fill`, or a block-collective
    /// macro-op like the bitonic sort that is internally synchronized):
    /// marks every element initialized and clears the race history.
    pub(crate) fn host_bulk(&self) {
        for e in self.elems.borrow_mut().iter_mut() {
            *e = ElemShadow {
                init: true,
                writer: None,
                reader: None,
            };
        }
    }

    /// Host-style single-element write (serialized emulation).
    pub(crate) fn host_write(&self, idx: usize) {
        if let Some(e) = self.elems.borrow_mut().get_mut(idx) {
            e.init = true;
            e.writer = None;
            e.reader = None;
        }
    }

    /// Host-style single-element read: initcheck only.
    pub(crate) fn host_read(&self, idx: usize) {
        let uninit = self.elems.borrow().get(idx).is_some_and(|e| !e.init);
        if uninit {
            self.san.report(
                CheckerKind::Initcheck,
                None,
                None,
                self.space(),
                Some(idx),
                "read of uninitialized shared memory".to_string(),
            );
        }
    }

    /// A lane of `warp` reads element `idx`.
    pub(crate) fn warp_read(&self, idx: usize, warp: usize, lane: usize, atomic: bool) {
        let epoch = self.san.epoch();
        let mut elems = self.elems.borrow_mut();
        let Some(e) = elems.get_mut(idx) else { return };
        let uninit = !e.init;
        let race = e.writer.filter(|w| w.conflicts(warp, epoch, atomic));
        e.reader = Some(Access {
            warp,
            epoch,
            atomic,
        });
        drop(elems);
        if uninit {
            self.san.report(
                CheckerKind::Initcheck,
                Some(warp),
                Some(lane),
                self.space(),
                Some(idx),
                "read of uninitialized shared memory".to_string(),
            );
        }
        if let Some(w) = race {
            self.san.report(
                CheckerKind::Racecheck,
                Some(warp),
                Some(lane),
                self.space(),
                Some(idx),
                format!(
                    "read-after-write hazard: warp {} wrote this element in the same barrier epoch",
                    w.warp
                ),
            );
        }
    }

    /// A lane of `warp` writes element `idx`.
    pub(crate) fn warp_write(&self, idx: usize, warp: usize, lane: usize, atomic: bool) {
        let epoch = self.san.epoch();
        let mut elems = self.elems.borrow_mut();
        let Some(e) = elems.get_mut(idx) else { return };
        let waw = e.writer.filter(|w| w.conflicts(warp, epoch, atomic));
        let war = e.reader.filter(|r| r.conflicts(warp, epoch, atomic));
        e.init = true;
        e.writer = Some(Access {
            warp,
            epoch,
            atomic,
        });
        drop(elems);
        if let Some(w) = waw {
            self.san.report(
                CheckerKind::Racecheck,
                Some(warp),
                Some(lane),
                self.space(),
                Some(idx),
                format!(
                    "write-after-write hazard: warp {} wrote this element in the same barrier epoch",
                    w.warp
                ),
            );
        }
        if let Some(r) = war {
            self.san.report(
                CheckerKind::Racecheck,
                Some(warp),
                Some(lane),
                self.space(),
                Some(idx),
                format!(
                    "write-after-read hazard: warp {} read this element in the same barrier epoch",
                    r.warp
                ),
            );
        }
    }

    /// A lane of `warp` performs an atomic read-modify-write on `idx`.
    pub(crate) fn warp_atomic(&self, idx: usize, warp: usize, lane: usize) {
        // An atomic is a read and a write with atomic semantics; checking
        // the write side covers conflicts against both plain readers and
        // plain writers, and the read side adds initcheck.
        let uninit = self.elems.borrow().get(idx).is_some_and(|e| !e.init);
        if uninit {
            self.san.report(
                CheckerKind::Initcheck,
                Some(warp),
                Some(lane),
                self.space(),
                Some(idx),
                "atomic read-modify-write of uninitialized shared memory".to_string(),
            );
        }
        self.warp_write(idx, warp, lane, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_defaults_off() {
        assert_eq!(SanitizerMode::default(), SanitizerMode::Off);
    }

    #[test]
    fn report_display_names_the_site() {
        let r = SanitizerReport {
            kind: CheckerKind::Memcheck,
            kernel: "k".into(),
            block: 3,
            warp: Some(1),
            lane: Some(7),
            space: Some(MemSpace::Global { buffer: 42 }),
            offset: Some(99),
            detail: "index 99 out of bounds (len 10)".into(),
        };
        let s = r.to_string();
        assert!(s.contains("memcheck"), "{s}");
        assert!(s.contains("block 3"), "{s}");
        assert!(s.contains("warp 1"), "{s}");
        assert!(s.contains("lane 7"), "{s}");
        assert!(s.contains("#42"), "{s}");
        assert!(s.contains("[99]"), "{s}");
    }

    #[test]
    fn sim_error_preserves_legacy_panic_strings() {
        let e = SimError::SmemOverBudget {
            requested: 136,
            in_use: 0,
            capacity: 128,
        };
        assert_eq!(
            e.to_string(),
            "shared memory over budget: 0 + 136 > 128 bytes"
        );
        let e = SimError::InvalidLaunchConfig("invalid threads_per_block 33".into());
        assert!(e.to_string().contains("invalid threads_per_block"));
    }

    #[test]
    fn report_cap_drops_overflow() {
        let bsan = BlockSanitizer::new("k", 0, 1);
        for i in 0..MAX_REPORTS + 10 {
            bsan.report(CheckerKind::Memcheck, None, None, None, Some(i), "x".into());
        }
        let block = bsan.take_reports();
        assert_eq!(block.reports.len(), MAX_REPORTS);
        assert_eq!(block.dropped, 10);
        // Folding keeps the first reports in order and sums the drops.
        let mut launch = CappedReports::default();
        launch.push(block.reports[5].clone());
        launch.append(block);
        assert_eq!(launch.reports.len(), MAX_REPORTS);
        assert_eq!(launch.reports[1].offset, Some(0));
        assert_eq!(
            launch.reports[MAX_REPORTS - 1].offset,
            Some(MAX_REPORTS - 2)
        );
        assert_eq!(launch.dropped, 11);
    }

    #[test]
    fn shadow_flags_cross_warp_same_epoch_only() {
        let bsan = Rc::new(BlockSanitizer::new("k", 0, 2));
        let shadow = SmemShadow::new(bsan.clone(), 0, 4);
        shadow.warp_write(0, 0, 0, false);
        shadow.warp_write(0, 0, 1, false); // same warp: no hazard
        shadow.warp_write(0, 1, 0, false); // other warp, same epoch: WAW
        bsan.block_sync();
        shadow.warp_read(0, 0, 0, false); // next epoch: clean
        let reports = bsan.take_reports().reports;
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, CheckerKind::Racecheck);
    }

    #[test]
    fn shadow_atomics_do_not_race_each_other() {
        let bsan = Rc::new(BlockSanitizer::new("k", 0, 2));
        let shadow = SmemShadow::new(bsan.clone(), 0, 4);
        shadow.host_bulk(); // initialize
        shadow.warp_atomic(2, 0, 0);
        shadow.warp_atomic(2, 1, 0); // atomic vs atomic: clean
        shadow.warp_write(2, 0, 0, false); // plain vs atomic: hazard
        let reports = bsan.take_reports().reports;
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, CheckerKind::Racecheck);
    }

    #[test]
    fn shadow_initcheck_fires_once_per_uninit_read() {
        let bsan = Rc::new(BlockSanitizer::new("k", 0, 1));
        let shadow = SmemShadow::new(bsan.clone(), 0, 2);
        shadow.warp_read(1, 0, 5, false);
        shadow.warp_write(1, 0, 5, false);
        shadow.warp_read(1, 0, 5, false); // now initialized
        let reports = bsan.take_reports().reports;
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckerKind::Initcheck);
        assert_eq!(reports[0].lane, Some(5));
    }

    #[test]
    fn barrier_arrival_mismatch_is_synccheck() {
        let bsan = BlockSanitizer::new("k", 0, 2);
        bsan.barrier_arrival(0, 32, true);
        bsan.barrier_arrival(0, 32, true);
        bsan.barrier_arrival(1, 32, true);
        bsan.block_sync();
        // Counts reset after the sync: a balanced round is clean.
        bsan.barrier_arrival(0, 32, true);
        bsan.barrier_arrival(1, 32, true);
        bsan.block_sync();
        let reports = bsan.take_reports().reports;
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind, CheckerKind::Synccheck);
    }

    #[test]
    fn divergent_barrier_mask_is_synccheck() {
        let bsan = BlockSanitizer::new("k", 0, 1);
        bsan.barrier_arrival(0, 20, false);
        let reports = bsan.take_reports().reports;
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, CheckerKind::Synccheck);
        assert!(reports[0].detail.contains("divergent mask"));
    }
}
