//! Warp-synchronous execution contexts.
//!
//! Kernels in this simulator are written from the perspective of a single
//! warp: every operation acts on all 32 lanes at once under an explicit
//! activity mask, exactly the SIMD model §3.1 describes. Each operation
//! charges the [`Counters`] with the events the real hardware would see —
//! one issue slot per warp-instruction, one global transaction per
//! 128-byte segment touched, one replay per shared-memory bank conflict,
//! one serialization step per same-address atomic.

use crate::counters::Counters;
use crate::fault::{LaunchFaults, WatchdogAbort};
use crate::global::GlobalBuffer;
use crate::prof::BlockProfiler;
use crate::sanitizer::{BlockSanitizer, CheckerKind, MemSpace, SimError};
use crate::shared::SharedArray;
use crate::spec::DeviceSpec;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

/// Per-block record of distinct `(buffer, segment)` touches, standing
/// in for the block's view of the L2: the first touch of a segment is a
/// compulsory DRAM transaction, later touches are re-reads the cost
/// model may discount. Tracking per block (rather than launch-wide)
/// keeps the counter independent of block execution order, which is
/// what lets a launch run its blocks on concurrent host threads and
/// still merge byte-identical counters.
///
/// Only membership is ever queried (nothing iterates the set), so the
/// hasher needs no DoS resistance: [`SegmentHasher`] is a fixed
/// multiply-rotate hash, cheaper than the default SipHash.
pub type L2Tracker = HashSet<(u64, usize), BuildHasherDefault<SegmentHasher>>;

/// The [`L2Tracker`] hasher: the Fx multiply-rotate mix over each
/// integer written. Deterministic (no per-process seed) and unkeyed.
#[derive(Debug, Default, Clone, Copy)]
pub struct SegmentHasher(u64);

impl Hasher for SegmentHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-block log of global atomics deferred by a parallel launch.
///
/// Blocks of one launch may interleave arbitrarily on host threads, and
/// floating-point `⊕` is not associative, so a parallel launch must not
/// apply cross-block atomics as they happen. Instead each block logs its
/// read-modify-writes here (as `'static` closures over the buffer's
/// shared storage handle) and [`crate::Device::try_launch`] replays the
/// logs in block order once every block has finished — reproducing the
/// in-order schedule bit for bit. Kernels never read an atomic-target
/// buffer mid-launch (results are only combined, then copied out after
/// the launch), so deferral is invisible to kernel semantics.
#[derive(Default)]
pub(crate) struct AtomicDefer {
    log: RefCell<Vec<Box<dyn FnOnce() + Send>>>,
}

impl AtomicDefer {
    /// Appends one deferred replay step.
    pub(crate) fn push(&self, f: Box<dyn FnOnce() + Send>) {
        self.log.borrow_mut().push(f);
    }

    /// Drains the log in insertion order.
    pub(crate) fn take(&self) -> Vec<Box<dyn FnOnce() + Send>> {
        self.log.take()
    }
}

impl std::fmt::Debug for AtomicDefer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicDefer({} deferred)", self.log.borrow().len())
    }
}

/// Number of lanes in a warp on every simulated architecture.
pub const WARP_SIZE: usize = 32;

/// A per-lane value vector: one slot per lane of the warp.
pub type Lanes<T> = [T; WARP_SIZE];

/// Widest shared-memory element, in 4-byte bank words, that one lane
/// may access (a 128-bit vector access on hardware).
const MAX_SMEM_WORDS: usize = 4;

/// A stack-resident multiset of at most `N / 2` distinct keys (open
/// addressing, Fibonacci hashing, linear probing; `N` a power of two).
/// The warp-op charge paths count distinct segments, words, banks and
/// addresses with it instead of heap `Vec`s or sorts. One warp-op adds
/// at most `MAX_SMEM_WORDS × WARP_SIZE` keys, so counts fit a `u8`.
struct Tally<const N: usize> {
    keys: [usize; N],
    counts: [u8; N],
}

impl<const N: usize> Tally<N> {
    /// Marks an empty slot; no key reaches it (segments, words and
    /// banks are shifted or masked addresses, and an address that large
    /// is out of bounds and panics the op).
    const EMPTY: usize = usize::MAX;

    fn new() -> Self {
        Self {
            keys: [Self::EMPTY; N],
            counts: [0; N],
        }
    }

    /// Adds one occurrence of `key`, returning its count so far (`1` on
    /// first sight).
    #[inline]
    fn add(&mut self, key: usize) -> u8 {
        let shift = 64 - N.trailing_zeros();
        let mut h = ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            if self.keys[h] == key {
                self.counts[h] += 1;
                return self.counts[h];
            }
            if self.keys[h] == Self::EMPTY {
                self.keys[h] = key;
                self.counts[h] = 1;
                return 1;
            }
            h = (h + 1) & (N - 1);
        }
    }
}

/// The result of [`WarpCtx::warp_segmented_reduce`]: one `(key, value)`
/// pair per segment, at most one per lane, held on the stack. Derefs to
/// the slice of segments.
#[derive(Debug)]
pub struct Segments<T> {
    len: usize,
    segs: [(u32, T); WARP_SIZE],
}

impl<T> Deref for Segments<T> {
    type Target = [(u32, T)];

    fn deref(&self) -> &[(u32, T)] {
        &self.segs[..self.len]
    }
}

/// Builds a `Lanes` array from a function of the lane index.
pub fn lanes_from_fn<T: Copy + Default>(mut f: impl FnMut(usize) -> T) -> Lanes<T> {
    let mut out = [T::default(); WARP_SIZE];
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = f(l);
    }
    out
}

/// Execution context of one warp within one block.
#[derive(Debug)]
pub struct WarpCtx<'a> {
    /// Index of the owning block within the grid.
    pub block_id: usize,
    /// Index of this warp within its block.
    pub warp_id: usize,
    /// Warps per block in this launch.
    pub warps_per_block: usize,
    pub(crate) spec: &'a DeviceSpec,
    pub(crate) counters: &'a mut Counters,
    pub(crate) l2: &'a mut L2Tracker,
    /// `Some` only when the launch's sanitizer mode is on.
    pub(crate) san: Option<&'a BlockSanitizer>,
    pub(crate) prof: Option<&'a BlockProfiler>,
    pub(crate) faults: &'a LaunchFaults,
    pub(crate) watchdog: Option<u64>,
    /// `Some` when the launch executes blocks on concurrent host
    /// threads: global atomics are logged here instead of applied
    /// eagerly (see [`AtomicDefer`]). `None` when blocks run in order on
    /// the caller's thread and in hand-built test contexts, which keep
    /// the eager behaviour.
    pub(crate) deferred: Option<&'a AtomicDefer>,
}

impl<'a> WarpCtx<'a> {
    /// Global warp index across the grid.
    pub fn global_warp_id(&self) -> usize {
        self.block_id * self.warps_per_block + self.warp_id
    }

    /// Runs `f` inside a named NVTX-style profiler range: the counter
    /// delta across `f` is attributed to `name` (nested ranges aggregate
    /// upward; see [`crate::prof`]). With the profiler off this is a
    /// pure passthrough — no counter is read or written.
    pub fn range<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.prof {
            Some(p) => {
                p.open(name, self.counters);
                let r = f(self);
                p.close(self.counters);
                r
            }
            None => f(self),
        }
    }

    /// Global thread index of lane `l`.
    pub fn global_thread_id(&self, l: usize) -> usize {
        self.global_warp_id() * WARP_SIZE + l
    }

    /// Watchdog check on the warp's charge paths: a block that exceeds
    /// its effective-issue budget unwinds with the sentinel
    /// [`WatchdogAbort`], which [`crate::Device::try_launch`] converts
    /// into [`SimError::WatchdogTimeout`]. Unarmed launches pay one
    /// `None` branch.
    #[inline]
    fn watchdog_tick(&self) {
        if let Some(budget) = self.watchdog {
            if self.counters.effective_issues() > budget {
                std::panic::panic_any(WatchdogAbort);
            }
        }
    }

    /// Records a launch-level fault (first one wins) that
    /// [`crate::Device::try_launch`] surfaces as `Err` once the current
    /// block finishes — the record-and-limp discipline hardened kernel
    /// primitives use instead of panicking mid-launch.
    pub fn record_fault(&mut self, e: SimError) {
        self.faults.record(e);
    }

    /// Records a [`SimError::CapacityOverflow`] for this launch, filling
    /// in the kernel name.
    pub fn record_capacity_overflow(&mut self, resource: &str, detail: impl Into<String>) {
        let e = SimError::CapacityOverflow {
            kernel: self.faults.kernel().to_string(),
            resource: resource.to_string(),
            detail: detail.into(),
        };
        self.faults.record(e);
    }

    /// Records a [`SimError::TransientFault`] for this launch (a
    /// corrupted-lane event), filling in the kernel name.
    pub fn record_corrupted_lane(&mut self, detail: impl Into<String>) {
        let e = SimError::TransientFault {
            kernel: self.faults.kernel().to_string(),
            detail: detail.into(),
        };
        self.faults.record(e);
    }

    /// Whether a fault has already been recorded for this launch —
    /// kernels may use it to skip work they know will be discarded.
    pub fn fault_pending(&self) -> bool {
        self.faults.pending()
    }

    /// Consumes the injected hash-table overflow scheduled for this
    /// launch, if any (see
    /// [`crate::fault::FaultPlan::with_hash_overflows`]).
    pub(crate) fn take_injected_hash_overflow(&self) -> bool {
        self.faults.take_injected_hash_overflow()
    }

    /// Fault-injection hook on the global access paths: fires the
    /// scheduled single-bit upset when `buf` is the plan's labeled
    /// target.
    #[inline]
    fn fault_check_global<T: Copy + Default>(&self, buf: &GlobalBuffer<T>) {
        if self.faults.wants_flip() {
            buf.with_label_ref(|label| {
                self.faults
                    .maybe_flip(label, buf.len(), 8 * std::mem::size_of::<T>() as u32)
            });
        }
    }

    /// Charges `n` warp-instruction issues (ALU / control work with no
    /// memory traffic).
    #[inline]
    pub fn issue(&mut self, n: u64) {
        self.counters.issues += n;
        self.watchdog_tick();
    }

    /// Records a divergent branch: a warp whose active lanes split into
    /// `groups` distinct paths serializes and pays `groups − 1` extra
    /// issue slots (§3.1 "thread divergence").
    #[inline]
    pub fn diverge(&mut self, groups: usize) {
        self.counters.issues += 1;
        self.counters.divergence_extra += groups.saturating_sub(1) as u64;
    }

    /// Evaluates a per-lane predicate as a branch and records the
    /// divergence it causes (uniform warps pay one issue, mixed warps
    /// two serialized paths).
    pub fn branch(&mut self, active: &Lanes<bool>) -> usize {
        let taken = active.iter().filter(|&&b| b).count();
        let groups = if taken == 0 || taken == WARP_SIZE {
            1
        } else {
            2
        };
        self.diverge(groups);
        groups
    }

    /// Memcheck: with the sanitizer enabled, out-of-bounds lanes are
    /// reported and squashed (excluded from cost and data movement)
    /// instead of panicking; with it off the legacy `Vec` index panic is
    /// preserved downstream, and the lanes are borrowed, not copied.
    #[inline]
    fn memcheck<'i>(
        &self,
        len: usize,
        idx: &'i Lanes<Option<usize>>,
        space: MemSpace,
        what: &str,
    ) -> Cow<'i, Lanes<Option<usize>>> {
        match self.san {
            Some(san) => Cow::Owned(self.squash_out_of_bounds(san, len, idx, space, what)),
            None => Cow::Borrowed(idx),
        }
    }

    /// [`Self::memcheck`] under an enabled sanitizer.
    fn squash_out_of_bounds(
        &self,
        san: &BlockSanitizer,
        len: usize,
        idx: &Lanes<Option<usize>>,
        space: MemSpace,
        what: &str,
    ) -> Lanes<Option<usize>> {
        let mut out = *idx;
        for (l, slot) in out.iter_mut().enumerate() {
            if let Some(i) = *slot {
                if i >= len {
                    san.report(
                        CheckerKind::Memcheck,
                        Some(self.warp_id),
                        Some(l),
                        Some(space),
                        Some(i),
                        format!("{what}: index {i} out of bounds (len {len})"),
                    );
                    *slot = None;
                }
            }
        }
        out
    }

    /// Initcheck for global reads: flags lanes reading elements of an
    /// [`GlobalBuffer::uninit`] buffer that were never written.
    fn global_initcheck<T: Copy + Default>(
        &self,
        buf: &GlobalBuffer<T>,
        idx: &Lanes<Option<usize>>,
    ) {
        let Some(san) = self.san else {
            return;
        };
        let uninit = buf.uninit_lanes(idx);
        for (l, slot) in idx.iter().enumerate() {
            if let Some(i) = *slot {
                if uninit & (1 << l) != 0 {
                    san.report(
                        CheckerKind::Initcheck,
                        Some(self.warp_id),
                        Some(l),
                        Some(MemSpace::Global { buffer: buf.id() }),
                        Some(i),
                        "read of uninitialized global memory".to_string(),
                    );
                }
            }
        }
    }

    /// Gathers one element per active lane from global memory.
    ///
    /// Lanes with `None` are inactive. Cost: one issue plus one
    /// transaction per distinct `mem_transaction_bytes` segment touched —
    /// fully coalesced unit-stride access by 32 lanes of `f32` costs one
    /// 128-byte transaction, a random gather costs up to 32.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds for the buffer and the
    /// sanitizer is off; with the sanitizer on the lane is reported and
    /// squashed.
    pub fn global_gather<T: Copy + Default>(
        &mut self,
        buf: &GlobalBuffer<T>,
        idx: &Lanes<Option<usize>>,
    ) -> Lanes<T> {
        self.fault_check_global(buf);
        let idx = self.memcheck(
            buf.len(),
            idx,
            MemSpace::Global { buffer: buf.id() },
            "global gather",
        );
        self.global_initcheck(buf, &idx);
        self.charge_global::<T>(buf.id(), &idx);
        buf.gather_lanes(&idx)
    }

    /// Scatters one element per active lane to global memory. Same cost
    /// model as [`Self::global_gather`]. Last writer wins on duplicate
    /// indices (as on hardware); use [`Self::global_atomic`] for combines.
    pub fn global_scatter<T: Copy + Default>(
        &mut self,
        buf: &GlobalBuffer<T>,
        idx: &Lanes<Option<usize>>,
        vals: &Lanes<T>,
    ) {
        self.fault_check_global(buf);
        let idx = self.memcheck(
            buf.len(),
            idx,
            MemSpace::Global { buffer: buf.id() },
            "global scatter",
        );
        self.charge_global::<T>(buf.id(), &idx);
        buf.scatter_lanes(&idx, vals);
    }

    /// Atomically reduces each active lane's value into global memory
    /// with `op`. Lanes of the same warp hitting the same address
    /// serialize: `m` lanes on one address pay `m − 1` extra slots,
    /// modeling atomic contention.
    ///
    /// `T` and `op` are `Send + 'static` so that a parallel launch can
    /// defer the data mutation into a replay log that outlives the
    /// block (counters are always charged eagerly either way).
    pub fn global_atomic<T: Copy + Default + Send + Sync + 'static>(
        &mut self,
        buf: &GlobalBuffer<T>,
        idx: &Lanes<Option<usize>>,
        vals: &Lanes<T>,
        op: impl Fn(T, T) -> T + Send + 'static,
    ) {
        self.fault_check_global(buf);
        let idx = self.memcheck(
            buf.len(),
            idx,
            MemSpace::Global { buffer: buf.id() },
            "global atomic",
        );
        self.charge_global::<T>(buf.id(), &idx);
        self.charge_atomics(&idx);
        match self.deferred {
            // Serial path (and hand-built contexts): apply in lane
            // order, exactly the hardware-serialized schedule.
            None => buf.rmw_lanes(&idx, vals, op),
            Some(log) => {
                // Parallel path: log the whole warp-op; the launch
                // replays logs in block order after the grid finishes.
                let storage = buf.shared_storage();
                let (idx, vals) = (*idx, *vals);
                log.push(Box::new(move || {
                    crate::global::replay_rmw(&storage, &idx, &vals, op)
                }));
            }
        }
    }

    /// Reads one element per active lane from shared memory, charging
    /// bank-conflict replays: the access replays once per extra distinct
    /// word mapping to the same bank (§3.1). Elements wider than a
    /// 4-byte bank (e.g. `f64`) touch every bank their words span.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds and the sanitizer is off.
    pub fn smem_gather<T: Copy + Default>(
        &mut self,
        arr: &SharedArray<T>,
        idx: &Lanes<Option<usize>>,
    ) -> Lanes<T> {
        let idx = self.memcheck(
            arr.len(),
            idx,
            MemSpace::Shared {
                base_byte: arr.base_byte(),
            },
            "shared gather",
        );
        self.charge_smem(arr, &idx);
        let Some(sh) = arr.shadow() else {
            return arr.gather_lanes(&idx);
        };
        let mut out = [T::default(); WARP_SIZE];
        for (l, slot) in out.iter_mut().enumerate() {
            if let Some(i) = idx[l] {
                sh.warp_read(i, self.warp_id, l, false);
                *slot = arr.raw_get(i);
            }
        }
        out
    }

    /// Writes one element per active lane to shared memory (same
    /// bank-conflict model as [`Self::smem_gather`]).
    pub fn smem_scatter<T: Copy + Default>(
        &mut self,
        arr: &SharedArray<T>,
        idx: &Lanes<Option<usize>>,
        vals: &Lanes<T>,
    ) {
        let idx = self.memcheck(
            arr.len(),
            idx,
            MemSpace::Shared {
                base_byte: arr.base_byte(),
            },
            "shared scatter",
        );
        self.charge_smem(arr, &idx);
        for l in 0..WARP_SIZE {
            if let Some(i) = idx[l] {
                if let Some(sh) = arr.shadow() {
                    sh.warp_write(i, self.warp_id, l, false);
                }
                arr.raw_set(i, vals[l]);
            }
        }
    }

    /// Atomically read-modify-writes one shared-memory element per active
    /// lane with `op`, returning each lane's *previous* value — the
    /// `atomicCAS`/`atomicOr` family the block-cooperative collections
    /// use. Lanes of the same warp hitting the same address serialize
    /// like [`Self::global_atomic`]; the racecheck shadow treats these
    /// accesses as atomic, so concurrent atomics from different warps do
    /// not race each other.
    pub fn smem_atomic<T: Copy + Default>(
        &mut self,
        arr: &SharedArray<T>,
        idx: &Lanes<Option<usize>>,
        vals: &Lanes<T>,
        op: impl Fn(T, T) -> T,
    ) -> Lanes<T> {
        let idx = self.memcheck(
            arr.len(),
            idx,
            MemSpace::Shared {
                base_byte: arr.base_byte(),
            },
            "shared atomic",
        );
        self.charge_smem(arr, &idx);
        self.charge_atomics(&idx);
        let mut out = [T::default(); WARP_SIZE];
        for l in 0..WARP_SIZE {
            if let Some(i) = idx[l] {
                if let Some(sh) = arr.shadow() {
                    sh.warp_atomic(i, self.warp_id, l);
                }
                out[l] = arr.rmw(i, |cur| op(cur, vals[l]));
            }
        }
        out
    }

    /// Announces this warp's arrival at the block's next
    /// `__syncthreads()` under the given lane mask. Synccheck flags a
    /// partial mask immediately (a barrier in divergent code), and
    /// [`crate::BlockCtx::sync`] flags warps whose arrival counts
    /// disagree. Costs one issue.
    pub fn barrier(&mut self, active: &Lanes<bool>) {
        self.issue(1);
        if let Some(san) = self.san {
            let lanes = active.iter().filter(|&&a| a).count();
            san.barrier_arrival(self.warp_id, lanes, lanes == WARP_SIZE);
        }
    }

    /// Warp-wide reduction of the active lanes' values with `op`,
    /// returning the single reduced value (identity `id` when no lane is
    /// active). Costs `log2(32) = 5` shuffle issues, the register-level
    /// collective §3.1 recommends.
    pub fn warp_reduce<T: Copy>(
        &mut self,
        vals: &Lanes<T>,
        active: &Lanes<bool>,
        id: T,
        op: impl Fn(T, T) -> T,
    ) -> T {
        self.issue(5);
        let mut acc = id;
        for l in 0..WARP_SIZE {
            if active[l] {
                acc = op(acc, vals[l]);
            }
        }
        acc
    }

    /// Warp-level **segmented reduction by key** (§3.3: "we use a
    /// segmented reduction by key within each warp"). Keys must be
    /// non-decreasing across active lanes (the COO row array is sorted).
    /// Returns one `(key, reduced value)` pair per distinct key — the
    /// values the per-segment leader lanes would hold. Costs
    /// `2·log2(32)` issues (scan + leader election).
    pub fn warp_segmented_reduce<T: Copy>(
        &mut self,
        keys: &Lanes<u32>,
        vals: &Lanes<T>,
        active: &Lanes<bool>,
        id: T,
        op: impl Fn(T, T) -> T,
    ) -> Segments<T> {
        self.issue(10);
        let mut out = Segments {
            len: 0,
            segs: [(0, id); WARP_SIZE],
        };
        for l in 0..WARP_SIZE {
            if !active[l] {
                continue;
            }
            match out.len.checked_sub(1).map(|last| &mut out.segs[last]) {
                Some((k, acc)) if *k == keys[l] => *acc = op(*acc, vals[l]),
                _ => {
                    out.segs[out.len] = (keys[l], op(id, vals[l]));
                    out.len += 1;
                }
            }
        }
        out
    }

    /// Charges one warp-wide global access: one transaction per distinct
    /// segment, and a compulsory (unique) segment per first touch in the
    /// block's [`L2Tracker`].
    ///
    /// The segment size is a power of two (checked by
    /// [`crate::Device::try_launch`]), so a segment is a shift, not a
    /// divide. When the active lanes' segments never decrease — every
    /// coalesced sweep, staging load and flush atomic — each change of
    /// segment is a new one, so the run is collected directly and its
    /// segments meet the L2 set after the scan (which keeps the set's
    /// calls out of the per-lane loop). The first lane whose segment
    /// falls below its predecessor's sends the whole warp-op through the
    /// [`Tally`].
    fn charge_global<T>(&mut self, buf_id: u64, idx: &Lanes<Option<usize>>) {
        self.counters.issues += 1;
        self.watchdog_tick();
        let seg = self.spec.mem_transaction_bytes;
        debug_assert!(seg.is_power_of_two(), "segment size {seg}");
        let shift = seg.trailing_zeros();
        let esz = std::mem::size_of::<T>();
        let mut run = [0usize; WARP_SIZE];
        let (mut active, mut distinct) = (0usize, 0usize);
        let (mut last, mut ascending) = (None, true);
        for &i in idx.iter().flatten() {
            let sg = (i * esz) >> shift;
            match last {
                Some(prev) if sg == prev => {}
                Some(prev) if sg < prev => {
                    ascending = false;
                    break;
                }
                _ => {
                    run[distinct] = sg;
                    distinct += 1;
                    last = Some(sg);
                }
            }
            active += 1;
        }
        let (active, distinct) = if ascending {
            for &sg in &run[..distinct] {
                if self.l2.insert((buf_id, sg)) {
                    self.counters.global_bytes_unique += seg as u64;
                }
            }
            (active, distinct)
        } else {
            self.tally_segments(buf_id, idx, esz, shift)
        };
        self.counters.global_transactions += distinct as u64;
        self.counters.global_bytes += (distinct * seg) as u64;
        self.counters.global_bytes_requested += (active * esz) as u64;
    }

    /// [`Self::charge_global`]'s general path for lanes in any order:
    /// returns `(active lanes, distinct segments)` and charges each
    /// segment's first touch in the L2 set.
    fn tally_segments(
        &mut self,
        buf_id: u64,
        idx: &Lanes<Option<usize>>,
        esz: usize,
        shift: u32,
    ) -> (usize, usize) {
        let mut segments = Tally::<{ 2 * WARP_SIZE }>::new();
        let (mut active, mut distinct) = (0, 0);
        for &i in idx.iter().flatten() {
            active += 1;
            let sg = (i * esz) >> shift;
            if segments.add(sg) == 1 {
                distinct += 1;
                if self.l2.insert((buf_id, sg)) {
                    self.counters.global_bytes_unique += 1u64 << shift;
                }
            }
        }
        (active, distinct)
    }

    /// Charges one warp-wide atomic: one atomic per active lane, and
    /// same-address serialization — each address hit by `m` active
    /// lanes pays `m − 1` extra slots, `active − distinct` in total.
    fn charge_atomics(&mut self, idx: &Lanes<Option<usize>>) {
        let mut addrs = Tally::<{ 2 * WARP_SIZE }>::new();
        for &i in idx.iter().flatten() {
            self.counters.atomics += 1;
            if addrs.add(i) > 1 {
                self.counters.atomic_conflict_extra += 1;
            }
        }
    }

    fn charge_smem<T>(&mut self, arr: &SharedArray<T>, idx: &Lanes<Option<usize>>)
    where
        T: Copy,
    {
        const {
            assert!(
                std::mem::size_of::<T>() <= 4 * MAX_SMEM_WORDS,
                "shared-memory elements are at most 16 bytes per lane"
            )
        };
        self.counters.issues += 1;
        self.counters.smem_accesses += 1;
        self.watchdog_tick();
        let banks = self.spec.smem_banks;
        // Distinct 4-byte *word* addresses per bank; broadcast of the same
        // word is conflict-free on real hardware. Elements wider than a
        // bank (f64/u64) span several consecutive words, so a warp-wide
        // unit-stride f64 access puts two distinct words in every bank —
        // one replay, the doubled traffic real hardware shows for
        // double-precision shared-memory tiles. The replay count is the
        // most distinct words any one bank holds.
        //
        // Exact fast path: when every touched word lies in one window of
        // `banks` consecutive words, each distinct word has a bank of
        // its own (consecutive words cover each residue once), so the
        // replay count is at most 1 and no tally is needed. Unit-stride
        // 4-byte reads and broadcasts, the common shapes, all land here;
        // a scattered access leaves the scan at its first outlying lane.
        let (mut lo, mut hi) = (usize::MAX, 0);
        let in_window = idx.iter().flatten().all(|&i| {
            let (first_word, span) = arr.word_span(i);
            lo = lo.min(first_word);
            hi = hi.max(first_word + span);
            hi - lo <= banks
        });
        if in_window {
            return;
        }
        // A 4-byte element puts at most one word per lane in the tallies;
        // only wider elements need room for `MAX_SMEM_WORDS` per lane.
        let replay = if std::mem::size_of::<T>() <= 4 {
            bank_replays::<T, { 2 * WARP_SIZE }>(arr, idx, banks)
        } else {
            bank_replays::<T, { 2 * MAX_SMEM_WORDS * WARP_SIZE }>(arr, idx, banks)
        };
        self.counters.bank_conflict_extra += u64::from(replay.saturating_sub(1));
    }
}

/// The most distinct words any one bank holds across the active lanes'
/// elements, tallied in `N`-slot [`Tally`]s (`N` at least twice the
/// words one warp-op can touch). `banks` is a power of two (checked by
/// [`crate::Device::try_launch`]), so a word's bank is a mask.
fn bank_replays<T: Copy, const N: usize>(
    arr: &SharedArray<T>,
    idx: &Lanes<Option<usize>>,
    banks: usize,
) -> u8 {
    debug_assert!(banks.is_power_of_two(), "bank count {banks}");
    let mut words = Tally::<N>::new();
    let mut per_bank = Tally::<N>::new();
    let mut replay = 0u8;
    for i in idx.iter().flatten() {
        let (first_word, span) = arr.word_span(*i);
        for word in first_word..first_word + span {
            if words.add(word) == 1 {
                replay = replay.max(per_bank.add(word & (banks - 1)));
            }
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedMem;
    use crate::spec::DeviceSpec;

    fn with_ctx<R>(f: impl FnOnce(&mut WarpCtx) -> R) -> (R, Counters) {
        with_spec_ctx(&DeviceSpec::volta_v100(), f)
    }

    fn with_spec_ctx<R>(spec: &DeviceSpec, f: impl FnOnce(&mut WarpCtx) -> R) -> (R, Counters) {
        let mut counters = Counters::new();
        let mut l2 = L2Tracker::default();
        let faults = LaunchFaults::disabled();
        let r = {
            let mut ctx = WarpCtx {
                block_id: 0,
                warp_id: 0,
                warps_per_block: 1,
                spec,
                counters: &mut counters,
                l2: &mut l2,
                san: None,
                prof: None,
                faults: &faults,
                watchdog: None,
                deferred: None,
            };
            f(&mut ctx)
        };
        (r, counters)
    }

    #[test]
    fn unit_stride_f32_gather_is_one_transaction() {
        let buf = GlobalBuffer::from_vec((0..64).map(|i| i as f32).collect());
        let idx = lanes_from_fn(Some);
        let (vals, c) = with_ctx(|ctx| ctx.global_gather(&buf, &idx));
        assert_eq!(vals[5], 5.0);
        assert_eq!(c.global_transactions, 1);
        assert_eq!(c.global_bytes, 128);
        assert_eq!(c.global_bytes_requested, 128);
        assert_eq!(c.coalescing_overhead(), 1.0);
    }

    #[test]
    fn strided_gather_pays_many_transactions() {
        let buf = GlobalBuffer::from_vec(vec![0.0f32; 32 * 64]);
        // Stride of 64 elements = 256 bytes: every lane hits its own
        // segment.
        let idx = lanes_from_fn(|l| Some(l * 64));
        let (_, c) = with_ctx(|ctx| ctx.global_gather(&buf, &idx));
        assert_eq!(c.global_transactions, 32);
        assert!(c.coalescing_overhead() > 30.0);
    }

    #[test]
    fn repeated_reads_grow_bytes_but_not_unique_bytes() {
        // L2Tracker semantics: the first touch of a (buffer, segment)
        // pair is a compulsory miss counted in `global_bytes_unique`;
        // every later touch within the same launch still moves
        // `global_bytes` but adds nothing unique.
        let buf = GlobalBuffer::from_vec((0..64).map(|i| i as f32).collect());
        let idx = lanes_from_fn(Some);
        let (_, c) = with_ctx(|ctx| {
            for _ in 0..4 {
                let _ = ctx.global_gather(&buf, &idx);
            }
        });
        assert_eq!(c.global_transactions, 4);
        assert_eq!(c.global_bytes, 4 * 128);
        assert_eq!(c.global_bytes_unique, 128);
        assert_eq!(c.reread_ratio(), 4.0);
    }

    #[test]
    fn distinct_buffers_never_share_unique_segments() {
        // Two buffers covering the same element range still occupy
        // distinct L2 lines: uniqueness is keyed on (buffer id, segment).
        let a = GlobalBuffer::from_vec(vec![0.0f32; 32]);
        let b = GlobalBuffer::from_vec(vec![0.0f32; 32]);
        let idx = lanes_from_fn(Some);
        let (_, c) = with_ctx(|ctx| {
            let _ = ctx.global_gather(&a, &idx);
            let _ = ctx.global_gather(&b, &idx);
        });
        assert_eq!(c.global_bytes_unique, 256);
    }

    #[test]
    fn inactive_lanes_are_free() {
        let buf = GlobalBuffer::from_vec(vec![1.0f32; 128]);
        let mut idx = [None; WARP_SIZE];
        idx[0] = Some(0);
        let (vals, c) = with_ctx(|ctx| ctx.global_gather(&buf, &idx));
        assert_eq!(vals[0], 1.0);
        assert_eq!(vals[1], 0.0);
        assert_eq!(c.global_transactions, 1);
    }

    #[test]
    fn scatter_writes_values() {
        let buf = GlobalBuffer::<f32>::zeroed(WARP_SIZE);
        let idx = lanes_from_fn(Some);
        let vals = lanes_from_fn(|l| l as f32);
        let ((), _) = with_ctx(|ctx| ctx.global_scatter(&buf, &idx, &vals));
        assert_eq!(buf.host_get(7), 7.0);
    }

    #[test]
    fn atomic_same_address_serializes() {
        let buf = GlobalBuffer::<f32>::zeroed(1);
        let idx = lanes_from_fn(|_| Some(0usize));
        let vals = lanes_from_fn(|_| 1.0f32);
        let ((), c) = with_ctx(|ctx| ctx.global_atomic(&buf, &idx, &vals, |a, b| a + b));
        assert_eq!(buf.host_get(0), 32.0);
        assert_eq!(c.atomics, 32);
        assert_eq!(c.atomic_conflict_extra, 31);
    }

    #[test]
    fn atomic_distinct_addresses_do_not_serialize() {
        let buf = GlobalBuffer::<f32>::zeroed(WARP_SIZE);
        let idx = lanes_from_fn(Some);
        let vals = lanes_from_fn(|_| 2.0f32);
        let ((), c) = with_ctx(|ctx| ctx.global_atomic(&buf, &idx, &vals, |a, b| a + b));
        assert_eq!(c.atomic_conflict_extra, 0);
        assert_eq!(buf.host_get(31), 2.0);
    }

    #[test]
    fn smem_conflict_free_and_conflicting_patterns() {
        let pool = SharedMem::new(16 * 1024);
        let arr = pool.alloc::<f32>(1024);
        // Unit stride: each lane its own bank → no conflicts.
        let idx = lanes_from_fn(Some);
        let (_, c) = with_ctx(|ctx| ctx.smem_gather(&arr, &idx));
        assert_eq!(c.bank_conflict_extra, 0);
        // Stride 32: every lane maps to bank 0 → 31 replays.
        let idx2 = lanes_from_fn(|l| Some(l * 32));
        let (_, c2) = with_ctx(|ctx| ctx.smem_gather(&arr, &idx2));
        assert_eq!(c2.bank_conflict_extra, 31);
    }

    #[test]
    fn f64_unit_stride_pays_one_replay() {
        // 32 lanes × 8-byte elements = 64 words over 32 banks: each bank
        // holds two distinct words → exactly one replay.
        let pool = SharedMem::new(16 * 1024);
        let arr = pool.alloc::<f64>(64);
        let idx = lanes_from_fn(Some);
        let (_, c) = with_ctx(|ctx| ctx.smem_gather(&arr, &idx));
        assert_eq!(c.bank_conflict_extra, 1);
        // Broadcast of one f64 touches two banks but only one word each:
        // conflict-free.
        let idx_bc = lanes_from_fn(|_| Some(3usize));
        let (_, c2) = with_ctx(|ctx| ctx.smem_gather(&arr, &idx_bc));
        assert_eq!(c2.bank_conflict_extra, 0);
    }

    #[test]
    fn conflict_free_window_ends_at_one_bank_width() {
        // Lanes read words 1..=32, exactly one window of 32 banks:
        // conflict-free. Lane 31 reading word 0 instead keeps every bank
        // distinct; reading word 33 instead shares bank 1 with word 1
        // and replays once.
        let pool = SharedMem::new(4096);
        let arr = pool.alloc::<f32>(64);
        let charge = |f: fn(usize) -> usize| {
            let idx = lanes_from_fn(|l| Some(f(l)));
            with_ctx(|ctx| ctx.smem_gather(&arr, &idx))
                .1
                .bank_conflict_extra
        };
        assert_eq!(charge(|l| l + 1), 0);
        assert_eq!(charge(|l| (l + 1) % 32), 0);
        assert_eq!(charge(|l| if l == 31 { 33 } else { l + 1 }), 1);
        // An f64 read of half a warp fills the window exactly.
        let wide = pool.alloc::<f64>(32);
        let idx = lanes_from_fn(|l| (l < 16).then_some(l));
        let (_, c) = with_ctx(|ctx| ctx.smem_gather(&wide, &idx));
        assert_eq!(c.bank_conflict_extra, 0);
    }

    #[test]
    fn smem_atomic_returns_old_values_and_serializes() {
        let pool = SharedMem::new(1024);
        let arr = pool.alloc::<u32>(4);
        arr.fill(0);
        let idx = lanes_from_fn(|_| Some(0usize));
        let vals = lanes_from_fn(|l| 1u32 << (l % 8));
        let (old, c) = with_ctx(|ctx| ctx.smem_atomic(&arr, &idx, &vals, |a, b| a | b));
        // Lane 0 saw the initial value; the final word has all merged bits.
        assert_eq!(old[0], 0);
        assert_eq!(arr.read(0), 0xff);
        assert_eq!(c.atomics, 32);
        assert_eq!(c.atomic_conflict_extra, 31);
        // Distinct addresses don't serialize.
        let idx2 = lanes_from_fn(|l| Some(l % 4));
        let (_, c2) = with_ctx(|ctx| ctx.smem_atomic(&arr, &idx2, &vals, |a, b| a | b));
        assert_eq!(c2.atomic_conflict_extra, 28);
    }

    #[test]
    fn smem_broadcast_is_conflict_free() {
        let pool = SharedMem::new(4096);
        let arr = pool.alloc::<f32>(64);
        arr.fill(3.0);
        let idx = lanes_from_fn(|_| Some(5usize));
        let (vals, c) = with_ctx(|ctx| ctx.smem_gather(&arr, &idx));
        assert_eq!(vals[31], 3.0);
        assert_eq!(c.bank_conflict_extra, 0);
    }

    #[test]
    fn branch_divergence_accounting() {
        let mixed = lanes_from_fn(|l| l < 10);
        let uniform = [true; WARP_SIZE];
        let ((), c) = with_ctx(|ctx| {
            ctx.branch(&mixed);
            ctx.branch(&uniform);
        });
        assert_eq!(c.divergence_extra, 1);
        assert_eq!(c.issues, 2);
    }

    #[test]
    fn warp_reduce_sums_active_lanes() {
        let vals = lanes_from_fn(|l| l as f64);
        let active = lanes_from_fn(|l| l % 2 == 0);
        let (sum, c) = with_ctx(|ctx| ctx.warp_reduce(&vals, &active, 0.0, |a, b| a + b));
        assert_eq!(sum, (0..32).filter(|l| l % 2 == 0).sum::<usize>() as f64);
        assert_eq!(c.issues, 5);
    }

    #[test]
    fn segmented_reduce_groups_sorted_keys() {
        let keys = lanes_from_fn(|l| (l / 10) as u32);
        let vals = lanes_from_fn(|_| 1.0f32);
        let active = [true; WARP_SIZE];
        let (segs, c) =
            with_ctx(|ctx| ctx.warp_segmented_reduce(&keys, &vals, &active, 0.0, |a, b| a + b));
        assert_eq!(*segs, [(0, 10.0), (1, 10.0), (2, 10.0), (3, 2.0)]);
        assert_eq!(c.issues, 10);
    }

    #[test]
    fn segmented_reduce_respects_mask() {
        let keys = lanes_from_fn(|_| 7u32);
        let vals = lanes_from_fn(|l| l as f32);
        let mut active = [false; WARP_SIZE];
        active[3] = true;
        active[9] = true;
        let (segs, _) =
            with_ctx(|ctx| ctx.warp_segmented_reduce(&keys, &vals, &active, 0.0, |a, b| a + b));
        assert_eq!(*segs, [(7, 12.0)]);
    }

    /// The charge and access paths as they were before they went
    /// allocation-free: heap `Vec`s per bank and per atomic, a SipHash
    /// L2 set, one element access per lane. The oracle proptest below
    /// holds the production paths to these counter for counter and byte
    /// for byte.
    mod oracle {
        use super::*;

        pub(super) struct Reference<'a> {
            pub spec: &'a DeviceSpec,
            pub counters: Counters,
            pub l2: HashSet<(u64, usize)>,
        }

        impl Reference<'_> {
            fn charge_global<T>(&mut self, buf_id: u64, idx: &Lanes<Option<usize>>) {
                self.counters.issues += 1;
                let seg = self.spec.mem_transaction_bytes;
                let esz = std::mem::size_of::<T>();
                let mut segments: Vec<usize> =
                    idx.iter().flatten().map(|&i| i * esz / seg).collect();
                let requested = segments.len() as u64 * esz as u64;
                segments.sort_unstable();
                segments.dedup();
                for &sg in &segments {
                    if self.l2.insert((buf_id, sg)) {
                        self.counters.global_bytes_unique += seg as u64;
                    }
                }
                self.counters.global_transactions += segments.len() as u64;
                self.counters.global_bytes += (segments.len() * seg) as u64;
                self.counters.global_bytes_requested += requested;
            }

            fn charge_smem<T: Copy>(&mut self, arr: &SharedArray<T>, idx: &Lanes<Option<usize>>) {
                self.counters.issues += 1;
                self.counters.smem_accesses += 1;
                let banks = self.spec.smem_banks;
                let mut per_bank: Vec<Vec<usize>> = vec![Vec::new(); banks];
                for i in idx.iter().flatten() {
                    let (first_word, words) = arr.word_span(*i);
                    for w in 0..words {
                        let word = first_word + w;
                        let b = word % banks;
                        if !per_bank[b].contains(&word) {
                            per_bank[b].push(word);
                        }
                    }
                }
                let replay = per_bank.iter().map(Vec::len).max().unwrap_or(0);
                self.counters.bank_conflict_extra += replay.saturating_sub(1) as u64;
            }

            fn charge_atomics(&mut self, idx: &Lanes<Option<usize>>) {
                let mut seen: Vec<(usize, u64)> = Vec::new();
                for &i in idx.iter().flatten() {
                    self.counters.atomics += 1;
                    match seen.iter_mut().find(|(a, _)| *a == i) {
                        Some((_, m)) => *m += 1,
                        None => seen.push((i, 1)),
                    }
                }
                for (_, m) in seen {
                    self.counters.atomic_conflict_extra += m - 1;
                }
            }

            pub fn global_gather<T: Copy + Default>(
                &mut self,
                buf: &GlobalBuffer<T>,
                idx: &Lanes<Option<usize>>,
            ) -> Lanes<T> {
                self.charge_global::<T>(buf.id(), idx);
                lanes_from_fn(|l| idx[l].map_or(T::default(), |i| buf.host_get(i)))
            }

            pub fn global_scatter<T: Copy + Default>(
                &mut self,
                buf: &GlobalBuffer<T>,
                idx: &Lanes<Option<usize>>,
                vals: &Lanes<T>,
            ) {
                self.charge_global::<T>(buf.id(), idx);
                for l in 0..WARP_SIZE {
                    if let Some(i) = idx[l] {
                        buf.host_set(i, vals[l]);
                    }
                }
            }

            pub fn global_atomic<T: Copy + Default>(
                &mut self,
                buf: &GlobalBuffer<T>,
                idx: &Lanes<Option<usize>>,
                vals: &Lanes<T>,
                op: impl Fn(T, T) -> T,
            ) {
                self.charge_global::<T>(buf.id(), idx);
                self.charge_atomics(idx);
                for l in 0..WARP_SIZE {
                    if let Some(i) = idx[l] {
                        buf.host_set(i, op(buf.host_get(i), vals[l]));
                    }
                }
            }

            pub fn smem_gather<T: Copy + Default>(
                &mut self,
                arr: &SharedArray<T>,
                idx: &Lanes<Option<usize>>,
            ) -> Lanes<T> {
                self.charge_smem(arr, idx);
                lanes_from_fn(|l| idx[l].map_or(T::default(), |i| arr.read(i)))
            }

            pub fn smem_atomic<T: Copy + Default>(
                &mut self,
                arr: &SharedArray<T>,
                idx: &Lanes<Option<usize>>,
                vals: &Lanes<T>,
                op: impl Fn(T, T) -> T,
            ) -> Lanes<T> {
                self.charge_smem(arr, idx);
                self.charge_atomics(idx);
                let mut out = [T::default(); WARP_SIZE];
                for l in 0..WARP_SIZE {
                    if let Some(i) = idx[l] {
                        out[l] = arr.rmw(i, |cur| op(cur, vals[l]));
                    }
                }
                out
            }
        }
    }

    /// One generated warp-op: `(kind, lane mask, index pattern, base,
    /// stride, seed)`.
    type OpSpec = (u8, u32, u8, usize, usize, u64);

    const GLOBAL_LEN: usize = 4096;
    const SMEM_LEN: usize = 512;

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Lane indices below `len` for one op: random, strided, a few
    /// duplicated addresses, non-decreasing with runs of duplicates, an
    /// ascending run that wraps back mid-warp, or unit stride, under the
    /// lane mask.
    fn op_lanes(op: &OpSpec, len: usize) -> Lanes<Option<usize>> {
        let &(_, mask, pattern, base, stride, seed) = op;
        let (run, rot) = (1 + seed as usize % 4, 1 + (seed >> 8) as usize % 31);
        lanes_from_fn(|l| {
            let r = mix(seed ^ l as u64) as usize;
            let i = match pattern {
                0 => r,
                1 => base + l * stride,
                2 => base + (r % 3) * stride,
                3 => base + (l / run) * (stride % 9),
                4 => base + ((l + rot) % WARP_SIZE) * (stride % 9),
                _ => base + l,
            };
            (mask & (1 << l) != 0).then_some(i % len)
        })
    }

    /// Runs `ops` through the production paths and through the oracle on
    /// identical fresh buffers, asserting equal counters, equal returned
    /// lanes and equal buffer contents.
    fn check_against_oracle<T>(ops: &[OpSpec], banks: usize, seg: usize, pad: usize)
    where
        T: Copy + Default + PartialEq + std::fmt::Debug + From<f32> + Send + Sync + 'static,
        T: std::ops::Add<Output = T>,
    {
        let spec = DeviceSpec {
            smem_banks: banks,
            mem_transaction_bytes: seg,
            ..DeviceSpec::volta_v100()
        };
        let init = |i: usize| T::from((mix(i as u64) % 1000) as f32 * 0.37);
        let globals = || GlobalBuffer::from_vec((0..GLOBAL_LEN).map(init).collect());
        let pools = [SharedMem::new(64 * 1024), SharedMem::new(64 * 1024)];
        let smem = pools.each_ref().map(|pool| {
            // A `u32` pad shifts the array's base by `4 · pad` bytes, so
            // 8-byte elements can straddle banks.
            let _ = pool.alloc::<u32>(pad);
            let arr = pool.alloc::<T>(SMEM_LEN);
            for i in 0..SMEM_LEN {
                arr.write(i, init(i + GLOBAL_LEN));
            }
            arr
        });
        let (buf, ref_buf) = (globals(), globals());
        let mut reference = oracle::Reference {
            spec: &spec,
            counters: Counters::new(),
            l2: HashSet::new(),
        };
        let add = |a: T, b: T| a + b;
        let (_, counters) = with_spec_ctx(&spec, |w| {
            for op in ops {
                let vals =
                    lanes_from_fn(|l| T::from((mix(op.5 + 1 + l as u64) % 97) as f32 * 0.11));
                let g = op_lanes(op, GLOBAL_LEN);
                let s = op_lanes(op, SMEM_LEN);
                match op.0 % 5 {
                    0 => assert_eq!(
                        w.global_gather(&buf, &g),
                        reference.global_gather(&ref_buf, &g)
                    ),
                    1 => {
                        w.global_scatter(&buf, &g, &vals);
                        reference.global_scatter(&ref_buf, &g, &vals);
                    }
                    2 => {
                        w.global_atomic(&buf, &g, &vals, add);
                        reference.global_atomic(&ref_buf, &g, &vals, add);
                    }
                    3 => assert_eq!(
                        w.smem_gather(&smem[0], &s),
                        reference.smem_gather(&smem[1], &s)
                    ),
                    _ => assert_eq!(
                        w.smem_atomic(&smem[0], &s, &vals, add),
                        reference.smem_atomic(&smem[1], &s, &vals, add)
                    ),
                }
            }
        });
        assert_eq!(counters, reference.counters);
        assert_eq!(buf.to_vec(), ref_buf.to_vec());
        assert_eq!(smem[0].snapshot(), smem[1].snapshot());
    }

    use proptest::Strategy;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random warp-op sequences (lane masks, duplicate and strided
        /// indices, sorted and wrapped runs, 4- and 8-byte elements,
        /// shifted shared-memory bases, 16/32/64 banks, 32/64/128-byte
        /// segments) charge exactly what the oracle charges and leave
        /// the same bytes behind.
        #[test]
        fn warp_ops_match_the_oracle(
            ops in proptest::collection::vec(
                (
                    0u8..5,
                    proptest::prop_oneof![
                        proptest::Just(u32::MAX),
                        0u32..=u32::MAX,
                        (0u32..32).prop_map(|l| 1 << l),
                    ],
                    0u8..6,
                    0usize..GLOBAL_LEN,
                    1usize..130,
                    0u64..u64::MAX,
                ),
                1..12,
            ),
            banks in proptest::prop_oneof![proptest::Just(16usize), proptest::Just(32), proptest::Just(64)],
            seg in proptest::prop_oneof![proptest::Just(32usize), proptest::Just(64), proptest::Just(128)],
            pad in 0usize..8,
            wide in 0u8..2,
        ) {
            if wide == 1 {
                check_against_oracle::<f64>(&ops, banks, seg, pad);
            } else {
                check_against_oracle::<f32>(&ops, banks, seg, pad);
            }
        }
    }
}
