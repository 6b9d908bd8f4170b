//! Device handle, launch configuration and block execution.

use std::any::Any;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::cost::{estimate_with_blocks, CostBreakdown};
use crate::counters::Counters;
use crate::fault::{FaultPlan, FaultState, LaunchFaults, WatchdogAbort};
use crate::global::GlobalBuffer;
use crate::prof::{BlockProfiler, LaunchProfile, ProfData};
use crate::sanitizer::{BlockSanitizer, CappedReports, SanitizerMode, SanitizerReport, SimError};
use crate::shared::{SharedArray, SharedMem};
use crate::spec::{DeviceSpec, Occupancy};
use crate::warp::{AtomicDefer, L2Tracker, WarpCtx, WARP_SIZE};

/// Most host worker threads one launch may run its blocks on. Both
/// [`Device::with_host_threads`] and `GPU_SIM_HOST_THREADS` clamp to
/// it, because the pool spawns `min(host threads, blocks)` scoped
/// threads for every multi-block launch.
pub const MAX_HOST_THREADS: usize = 64;

/// `GPU_SIM_HOST_THREADS` overrides the builder-configured host thread
/// count process-wide (read once; `1` forces in-order execution;
/// clamped to [`MAX_HOST_THREADS`]).
fn env_host_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GPU_SIM_HOST_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map(|n| n.min(MAX_HOST_THREADS))
    })
}

/// Everything one block's execution produced. Both schedulers of
/// [`Device::try_launch`] fold these into the launch in block order.
struct BlockOutcome {
    counters: Counters,
    reports: CappedReports,
    prof: Option<ProfData>,
    fault: Option<SimError>,
    panic: Option<Box<dyn Any + Send>>,
    atomics: Vec<Box<dyn FnOnce() + Send>>,
}

/// Geometry and resources of one kernel launch. Sanitizer, profiler and
/// watchdog settings come from the [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub blocks: usize,
    /// Threads per block (multiple of the warp size; max 1024).
    pub threads_per_block: usize,
    /// Shared memory requested per block, in bytes.
    pub smem_per_block: usize,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(blocks: usize, threads_per_block: usize, smem_per_block: usize) -> Self {
        Self {
            blocks,
            threads_per_block,
            smem_per_block,
        }
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block.div_ceil(WARP_SIZE).max(1)
    }
}

/// Aggregated result of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Kernel name (for reporting).
    pub name: String,
    /// The launch geometry.
    pub config: LaunchConfig,
    /// Occupancy achieved under the device's limits.
    pub occupancy: Occupancy,
    /// Event counters summed over all blocks.
    pub counters: Counters,
    /// Roofline cost estimate.
    pub cost: CostBreakdown,
    /// Findings collected by the sanitizer (empty when it is off — and,
    /// for a correct kernel, when it is on): the first 128 in block
    /// order.
    pub sanitizer_reports: Vec<SanitizerReport>,
    /// Findings past the 128-report cap, counted but not kept, so a
    /// truncated report list never looks complete.
    pub sanitizer_reports_dropped: usize,
    /// Per-range profile when the device's profiler is enabled
    /// ([`Device::with_profiler`]).
    pub profile: Option<LaunchProfile>,
}

impl LaunchStats {
    /// Simulated execution time in seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.cost.total_seconds
    }
}

/// Execution context of one thread block.
///
/// Kernels receive a `BlockCtx` per block, allocate shared memory, then
/// run their warps in lockstep phases via [`BlockCtx::run_warps`].
/// Because the paper's kernels only communicate across warps through
/// barriers and global atomics, sequential warp execution inside a block
/// is behaviour-preserving.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    /// Index of this block in the grid.
    pub block_id: usize,
    /// Total blocks in the grid.
    pub grid_blocks: usize,
    warps_per_block: usize,
    spec: &'a DeviceSpec,
    shared: SharedMem,
    counters: Counters,
    l2: &'a mut L2Tracker,
    /// `Some` only when the launch's sanitizer mode is on.
    san: Option<Rc<BlockSanitizer>>,
    /// `Some` only when the device's profiler is on.
    prof: Option<&'a BlockProfiler>,
    faults: &'a LaunchFaults,
    /// `Some` when the block runs on a parallel-executor worker: global
    /// atomics are logged here instead of applied eagerly, then replayed
    /// in block order after the grid finishes (see [`AtomicDefer`]).
    deferred: Option<&'a AtomicDefer>,
}

impl<'a> BlockCtx<'a> {
    /// Warps in this block.
    pub fn warps(&self) -> usize {
        self.warps_per_block
    }

    /// Threads in this block.
    pub fn threads(&self) -> usize {
        self.warps_per_block * WARP_SIZE
    }

    /// The device spec (for capacity queries inside kernels).
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    /// Allocates a zero-initialized shared-memory array.
    ///
    /// An over-budget request records a [`SimError::SmemOverBudget`] that
    /// [`Device::try_launch`] surfaces after the block finishes (or
    /// [`Device::launch`] panics with) — the same error path kernel-side
    /// capacity planning uses, per the sizing discipline of §3.3.2.
    pub fn alloc_shared<T: Copy + Default>(&self, len: usize) -> SharedArray<T> {
        if self.faults.take_injected_smem_failure() {
            let bytes = len * std::mem::size_of::<T>();
            self.faults.record(SimError::CapacityOverflow {
                kernel: self.faults.kernel().to_string(),
                resource: "smem-allocator".to_string(),
                detail: format!("injected allocation failure ({bytes} bytes requested)"),
            });
        }
        self.shared.alloc_lenient(len)
    }

    /// Cost-accounted block-collective fill: every thread stores one
    /// element per round until the array is covered (the
    /// grid-stride-style `smem[tid] = v` initialization loop real kernels
    /// run before their first barrier). Charges one issue and one
    /// shared-memory access per warp per round.
    pub fn fill_shared<T: Copy + Default>(&mut self, arr: &SharedArray<T>, v: T) {
        let rounds = arr.len().div_ceil(self.threads().max(1)).max(1);
        let warp_stores = (rounds * self.warps_per_block) as u64;
        self.counters.issues += warp_stores;
        self.counters.smem_accesses += warp_stores;
        arr.fill(v);
    }

    /// Runs `f` once per warp of the block, in lockstep order.
    pub fn run_warps(&mut self, mut f: impl FnMut(&mut WarpCtx)) {
        for w in 0..self.warps_per_block {
            let mut ctx = WarpCtx {
                block_id: self.block_id,
                warp_id: w,
                warps_per_block: self.warps_per_block,
                spec: self.spec,
                counters: &mut self.counters,
                l2: self.l2,
                san: self.san.as_deref(),
                prof: self.prof,
                faults: self.faults,
                watchdog: self.faults.watchdog(),
                deferred: self.deferred,
            };
            f(&mut ctx);
        }
    }

    /// Runs `f` inside a named NVTX-style profiler range covering
    /// block-level work (barriers, collective fills, sorting networks).
    /// With the profiler off this is a pure passthrough; with it on, the
    /// counter delta across `f` is attributed to the range (see
    /// [`crate::prof`]).
    pub fn range<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.prof {
            Some(p) => {
                p.open(name, &self.counters);
                let r = f(self);
                p.close(&self.counters);
                r
            }
            None => f(self),
        }
    }

    /// Block-wide barrier (`__syncthreads()`); charges one barrier event
    /// and one issue per warp, advances the racecheck epoch, and
    /// synccheck-verifies matched arrival counts across warps.
    pub fn sync(&mut self) {
        self.counters.barriers += 1;
        self.counters.issues += self.warps_per_block as u64;
        if let Some(san) = &self.san {
            san.block_sync();
        }
        if let Some(budget) = self.faults.watchdog() {
            if self.counters.effective_issues() > budget {
                std::panic::panic_any(WatchdogAbort);
            }
        }
    }

    /// Direct counter access for block-level macro-ops (sorting networks
    /// charge their cost analytically rather than replaying every
    /// compare-exchange through a `WarpCtx`).
    pub(crate) fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }
}

/// A simulated GPU.
///
/// # Example
///
/// ```
/// use gpu_sim::{Device, LaunchConfig, lanes_from_fn};
///
/// let dev = Device::volta();
/// let input = dev.buffer_from_slice(&[1.0f32; 64]);
/// let output = dev.buffer::<f32>(64);
/// // Double every element with 1 block of 64 threads (2 warps).
/// let stats = dev.launch("double", LaunchConfig::new(1, 64, 0), |block| {
///     block.run_warps(|w| {
///         let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
///         let vals = w.global_gather(&input, &idx);
///         let doubled = lanes_from_fn(|l| vals[l] * 2.0);
///         w.global_scatter(&output, &idx, &doubled);
///     });
/// });
/// assert_eq!(output.host_get(10), 2.0);
/// assert!(stats.sim_seconds() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    sanitizer: SanitizerMode,
    profiler: bool,
    fault: Option<Rc<FaultState>>,
    watchdog: Option<u64>,
    host_threads: Option<usize>,
}

impl Device {
    /// Creates a device from a spec (sanitizer off, profiler off).
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            sanitizer: SanitizerMode::Off,
            profiler: false,
            fault: None,
            watchdog: None,
            host_threads: None,
        }
    }

    /// A simulated V100 (the paper's benchmark GPU).
    pub fn volta() -> Self {
        Self::new(DeviceSpec::volta_v100())
    }

    /// A simulated A100.
    pub fn ampere() -> Self {
        Self::new(DeviceSpec::ampere_a100())
    }

    /// Sets the sanitizer mode of every launch on this device.
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = mode;
        self
    }

    /// The device-wide sanitizer mode.
    pub fn sanitizer(&self) -> SanitizerMode {
        self.sanitizer
    }

    /// Enables the per-range profiler for every launch on this device.
    /// Profiled launches carry a [`LaunchProfile`] in their stats; unprofiled
    /// launches pay nothing (`range` is a passthrough).
    pub fn with_profiler(mut self, enabled: bool) -> Self {
        self.profiler = enabled;
        self
    }

    /// Whether the profiler is enabled device-wide.
    pub fn profiler(&self) -> bool {
        self.profiler
    }

    /// Attaches a deterministic [`FaultPlan`]: every subsequent launch
    /// consumes one launch ordinal and rolls the plan's armed fault
    /// classes against it (see [`crate::fault`]). Clones of the device
    /// share the ordinal counter, so a fixed launch sequence sees a
    /// fixed fault sequence. An unarmed plan removes injection entirely.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan.is_armed().then(|| Rc::new(FaultState::new(plan)));
        self
    }

    /// The attached fault plan, when one is armed.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref().map(|s| &s.plan)
    }

    /// Arms the launch watchdog device-wide with a budget of `issues`
    /// effective warp-instruction issues per block. Derive the budget
    /// from the cost model via [`Device::watchdog_budget`], or pass an
    /// absolute count. A block exceeding the budget aborts its launch
    /// with [`SimError::WatchdogTimeout`] — a runaway kernel (e.g. a
    /// livelocked probe loop) becomes a typed error instead of a hung
    /// process.
    pub fn with_watchdog(mut self, issues: u64) -> Self {
        self.watchdog = Some(issues);
        self
    }

    /// The device-wide watchdog budget, when armed.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// Sets how many host worker threads execute the blocks of each
    /// launch. The default (1) runs the blocks in order on the caller's
    /// thread; `threads > 1` dispatches block indices to a scoped
    /// [`std::thread`] pool. Either way every block's outcome is merged
    /// in block order (global atomics deferred and replayed in block
    /// order on the pool), so counters, sanitizer reports, profiles,
    /// faults and every byte of output are identical. The environment
    /// variable `GPU_SIM_HOST_THREADS` overrides this setting
    /// process-wide — `GPU_SIM_HOST_THREADS=1` forces in-order
    /// execution. Both clamp to `1..=`[`MAX_HOST_THREADS`].
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = Some(threads.clamp(1, MAX_HOST_THREADS));
        self
    }

    /// The effective host thread count for launches on this device
    /// (environment override, then builder setting, then 1).
    pub fn host_threads(&self) -> usize {
        env_host_threads().unwrap_or_else(|| self.host_threads.unwrap_or(1))
    }

    /// Converts a simulated-seconds deadline into a per-block
    /// effective-issue watchdog budget for `config`'s geometry, using
    /// the inverse of the cost model's compute roofline
    /// ([`crate::cost::per_block_issue_budget`]).
    pub fn watchdog_budget(&self, config: &LaunchConfig, seconds: f64) -> u64 {
        let occupancy = self
            .spec
            .occupancy(config.threads_per_block, config.smem_per_block);
        crate::cost::per_block_issue_budget(&self.spec, config.blocks, &occupancy, seconds)
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Allocates a zeroed device buffer of `len` elements.
    pub fn buffer<T: Copy + Default>(&self, len: usize) -> GlobalBuffer<T> {
        GlobalBuffer::zeroed(len)
    }

    /// Copies host data into a new device buffer.
    pub fn buffer_from_slice<T: Copy + Default>(&self, data: &[T]) -> GlobalBuffer<T> {
        GlobalBuffer::from_slice(data)
    }

    /// Launches a kernel over `config.blocks` blocks, invoking `kernel`
    /// once per block, and returns the aggregated stats with a simulated
    /// time estimate.
    ///
    /// # Panics
    ///
    /// Panics with [`Device::try_launch`]'s error text on an invalid
    /// configuration, an over-budget shared-memory allocation, or (under
    /// [`SanitizerMode::Fail`]) any sanitizer finding.
    pub fn launch(
        &self,
        name: &str,
        config: LaunchConfig,
        kernel: impl Fn(&mut BlockCtx) + Sync,
    ) -> LaunchStats {
        self.try_launch(name, config, kernel)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible launch: invalid geometry, a device spec whose
    /// `mem_transaction_bytes` or `smem_banks` is not a power of two,
    /// over-budget shared-memory allocations, and (under
    /// [`SanitizerMode::Fail`]) sanitizer findings come back as
    /// [`SimError`] values instead of panics.
    ///
    /// Every block runs through one executor (`run_block`) and folds
    /// into the launch through one ordered `merge`. Only the scheduler
    /// differs: with [`Device::with_host_threads`] (or
    /// `GPU_SIM_HOST_THREADS`) above 1, blocks of a multi-block,
    /// injection-free launch execute on a host thread pool; otherwise
    /// they run in order on the caller's thread. Results are
    /// bit-identical either way.
    pub fn try_launch(
        &self,
        name: &str,
        config: LaunchConfig,
        kernel: impl Fn(&mut BlockCtx) + Sync,
    ) -> Result<LaunchStats, SimError> {
        if config.threads_per_block == 0
            || config.threads_per_block > self.spec.max_threads_per_block
            || !config.threads_per_block.is_multiple_of(WARP_SIZE)
        {
            return Err(SimError::InvalidLaunchConfig(format!(
                "invalid threads_per_block {}",
                config.threads_per_block
            )));
        }
        // The charge paths find a segment by shift and a bank by mask.
        for (field, value) in [
            ("mem_transaction_bytes", self.spec.mem_transaction_bytes),
            ("smem_banks", self.spec.smem_banks),
        ] {
            if !value.is_power_of_two() {
                return Err(SimError::InvalidLaunchConfig(format!(
                    "DeviceSpec::{field} {value} is not a power of two"
                )));
            }
        }
        if config.smem_per_block > self.spec.shared_mem_per_block {
            return Err(SimError::InvalidLaunchConfig(format!(
                "smem_per_block {} exceeds device limit {}",
                config.smem_per_block, self.spec.shared_mem_per_block
            )));
        }
        let (mode, watchdog, profiling) = (self.sanitizer, self.watchdog, self.profiler);
        let inject = match &self.fault {
            Some(state) => {
                let ordinal = state.next_ordinal();
                let set = state.plan.decide(ordinal);
                if set.transient {
                    return Err(SimError::TransientFault {
                        kernel: name.to_string(),
                        detail: format!("injected transient launch failure (launch #{ordinal})"),
                    });
                }
                Some(set)
            }
            None => None,
        };
        let host_threads = self.host_threads();
        // Injection-armed launches run in order: fault arming (bit flips,
        // allocator failures, hash overflows) is keyed to launch-wide
        // "first access" state that per-block replicas would re-fire.
        let pooled = host_threads > 1 && config.blocks > 1 && inject.is_none();
        let (spec, warps_per_block) = (&self.spec, config.warps_per_block());
        // One block, start to finish. The block owns the collectors its
        // launch's modes turn on: a sanitizer unless the mode is `Off`, a
        // profiler when profiling. The executor — the serial loop or one
        // pool worker — owns the fault context and the L2 tracker and
        // lends them to each block in turn; the tracker is emptied before
        // the block and the fault slots after it, so each block starts
        // cold while the tracker's set keeps the capacity earlier blocks
        // grew. Panics are always caught here — they must not cross the
        // pool's scope join — and classified by `merge`.
        let run_block = |b: usize, faults: &LaunchFaults, l2: &mut L2Tracker| -> BlockOutcome {
            let san = (mode != SanitizerMode::Off)
                .then(|| Rc::new(BlockSanitizer::new(name, b, warps_per_block)));
            let prof = profiling.then(|| BlockProfiler::new(b));
            let defer = AtomicDefer::default();
            // `clear` rewrites every control byte even of an empty set.
            if !l2.is_empty() {
                l2.clear();
            }
            let mut block = BlockCtx {
                block_id: b,
                grid_blocks: config.blocks,
                warps_per_block,
                spec,
                shared: SharedMem::with_sanitizer(config.smem_per_block, san.clone()),
                counters: Counters::new(),
                l2,
                san,
                prof: prof.as_ref(),
                faults,
                deferred: pooled.then_some(&defer),
            };
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(&mut block)));
            // Drain both slots, so a pool worker's context starts its
            // next block empty; a shared-memory fault takes precedence.
            let (smem_fault, ctx_fault) = (block.shared.take_fault(), faults.take());
            let reports = block
                .san
                .as_ref()
                .map(|san| san.take_reports())
                .unwrap_or_default();
            let counters = block.counters;
            drop(block);
            BlockOutcome {
                counters,
                reports,
                prof: prof.map(BlockProfiler::into_data),
                fault: smem_fault.or(ctx_fault),
                panic: caught.err(),
                atomics: defer.take(),
            }
        };
        let mut reports = CappedReports::default();
        let mut prof = profiling.then(ProfData::default);
        let mut total = Counters::new();
        let mut max_block_issues = 0u64;
        // Folds one outcome into the launch; called in block order. The
        // first block that panicked or faulted decides the launch's fate,
        // and the outcomes of later blocks are discarded along with the
        // output buffers the caller drops on `Err`.
        let mut merge = |o: BlockOutcome| -> Result<(), SimError> {
            if let Some(payload) = o.panic {
                if payload.is::<WatchdogAbort>() {
                    return Err(SimError::WatchdogTimeout {
                        kernel: name.to_string(),
                        budget: watchdog.unwrap_or(0),
                    });
                }
                std::panic::resume_unwind(payload);
            }
            if let Some(fault) = o.fault {
                return Err(fault);
            }
            reports.append(o.reports);
            if let (Some(launch), Some(block)) = (prof.as_mut(), o.prof) {
                launch.absorb(block);
            }
            for apply in o.atomics {
                apply();
            }
            max_block_issues = max_block_issues.max(o.counters.effective_issues());
            total.merge(&o.counters);
            Ok(())
        };
        if pooled {
            // Each worker owns one uninjected fault context for all its
            // blocks, and each block logs its atomics for the ordered
            // replay in `merge`.
            let queue = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<BlockOutcome>>> =
                (0..config.blocks).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..host_threads.min(config.blocks) {
                    s.spawn(|| {
                        let faults = LaunchFaults::new(name, None, watchdog);
                        let mut l2 = L2Tracker::default();
                        loop {
                            let b = queue.fetch_add(1, Ordering::Relaxed);
                            if b >= config.blocks {
                                break;
                            }
                            *slots[b].lock().unwrap_or_else(|e| e.into_inner()) =
                                Some(run_block(b, &faults, &mut l2));
                        }
                    });
                }
            });
            for slot in slots {
                merge(
                    slot.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .expect("block pool left a block unexecuted"),
                )?;
            }
        } else {
            // All blocks share one injection-armed fault context and
            // apply atomics eagerly, which equals the block-order replay
            // by construction. Merging after each block lets a fault stop
            // the launch before later blocks run.
            let faults = LaunchFaults::new(name, inject, watchdog);
            let mut l2 = L2Tracker::default();
            for b in 0..config.blocks {
                merge(run_block(b, &faults, &mut l2))?;
            }
        }
        if mode == SanitizerMode::Fail && !reports.reports.is_empty() {
            return Err(SimError::SanitizerFailure {
                kernel: name.to_string(),
                reports: reports.reports,
            });
        }
        let occupancy = self
            .spec
            .occupancy(config.threads_per_block, config.smem_per_block);
        let cost = estimate_with_blocks(
            &self.spec,
            config.blocks,
            &occupancy,
            &total,
            max_block_issues,
        );
        let profile = prof.map(|data| data.finish(total, cost, max_block_issues));
        Ok(LaunchStats {
            name: name.to_string(),
            config,
            occupancy,
            counters: total,
            cost,
            sanitizer_reports: reports.reports,
            sanitizer_reports_dropped: reports.dropped,
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::CheckerKind;
    use crate::warp::lanes_from_fn;

    #[test]
    fn launch_runs_every_block_and_warp() {
        let dev = Device::volta();
        let out = dev.buffer::<f32>(4 * 2 * WARP_SIZE);
        let stats = dev.launch("fill", LaunchConfig::new(4, 64, 0), |block| {
            block.run_warps(|w| {
                let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
                let vals = lanes_from_fn(|_| 1.0f32);
                w.global_scatter(&out, &idx, &vals);
            });
        });
        assert!(out.to_vec().iter().all(|&v| v == 1.0));
        // 4 blocks × 2 warps × 1 scatter issue.
        assert_eq!(stats.counters.issues, 8);
        assert_eq!(stats.counters.global_transactions, 8);
    }

    #[test]
    fn shared_memory_isolated_per_block() {
        let dev = Device::volta();
        let out = dev.buffer::<f32>(2);
        dev.launch("smem", LaunchConfig::new(2, 32, 1024), |block| {
            let smem = block.alloc_shared::<f32>(1);
            let bid = block.block_id;
            block.run_warps(|w| {
                // Each block writes its id + existing value (should start 0).
                let idx = lanes_from_fn(|l| if l == 0 { Some(0usize) } else { None });
                let prev = w.smem_gather(&smem, &idx);
                let vals = lanes_from_fn(|_| prev[0] + bid as f32 + 1.0);
                w.smem_scatter(&smem, &idx, &vals);
                let oidx = lanes_from_fn(|l| if l == 0 { Some(bid) } else { None });
                let ovals = lanes_from_fn(|_| vals[0]);
                w.global_scatter(&out, &oidx, &ovals);
            });
        });
        // Block 0 wrote 1.0, block 1 wrote 2.0 (no smem leakage).
        assert_eq!(out.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "invalid threads_per_block")]
    fn rejects_non_warp_multiple_blocks() {
        let dev = Device::volta();
        dev.launch("bad", LaunchConfig::new(1, 33, 0), |_| {});
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn rejects_oversized_smem() {
        let dev = Device::volta();
        dev.launch("bad", LaunchConfig::new(1, 32, 10 * 1024 * 1024), |_| {});
    }

    #[test]
    fn barrier_charges_issues() {
        let dev = Device::volta();
        let stats = dev.launch("sync", LaunchConfig::new(3, 128, 0), |block| {
            block.sync();
        });
        assert_eq!(stats.counters.barriers, 3);
        assert_eq!(stats.counters.issues, 12);
    }

    #[test]
    fn stats_report_occupancy_and_cost() {
        let dev = Device::volta();
        let stats = dev.launch("occ", LaunchConfig::new(160, 1024, 48 * 1024), |block| {
            block.run_warps(|w| w.issue(100));
        });
        assert_eq!(stats.occupancy.concurrent_warps_per_sm, 64);
        assert!(stats.sim_seconds() > 0.0);
        assert_eq!(stats.counters.issues, 160 * 32 * 100);
    }

    #[test]
    fn try_launch_surfaces_invalid_config() {
        let dev = Device::volta();
        let err = dev
            .try_launch("bad", LaunchConfig::new(1, 33, 0), |_| {})
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunchConfig(_)));
        assert!(err.to_string().contains("invalid threads_per_block 33"));
    }

    #[test]
    fn try_launch_surfaces_smem_over_budget() {
        let dev = Device::volta();
        let err = dev
            .try_launch("hungry", LaunchConfig::new(1, 32, 128), |block| {
                let arr = block.alloc_shared::<f64>(17);
                // The kernel limps on with a working array...
                assert_eq!(arr.len(), 17);
            })
            .unwrap_err();
        // ...but the launch still fails with the typed error.
        assert!(matches!(
            err,
            SimError::SmemOverBudget {
                requested: 136,
                in_use: 0,
                capacity: 128
            }
        ));
    }

    #[test]
    fn fill_shared_charges_rounds() {
        let dev = Device::volta();
        let stats = dev.launch("fill_smem", LaunchConfig::new(1, 64, 4096), |block| {
            // 192 elements / 64 threads = 3 rounds × 2 warps.
            let arr = block.alloc_shared::<f32>(192);
            block.fill_shared(&arr, 1.5);
            assert!(arr.snapshot().iter().all(|&v| v == 1.5));
        });
        assert_eq!(stats.counters.issues, 6);
        assert_eq!(stats.counters.smem_accesses, 6);
    }

    #[test]
    fn l2_unique_bytes_reset_at_launch_boundaries() {
        // The L2 tracker is per-block ("Per-block record of distinct
        // (buffer, segment) touches"): within one block, re-reading a
        // segment grows `global_bytes` but not `global_bytes_unique`;
        // a new launch (and a new block) starts cold, so the same
        // buffer's compulsory misses are counted afresh.
        let dev = Device::volta();
        let buf = dev.buffer_from_slice(&[1.0f32; 32]);
        let read_twice = |block: &mut BlockCtx| {
            block.run_warps(|w| {
                let idx = lanes_from_fn(Some);
                let _ = w.global_gather(&buf, &idx);
                let _ = w.global_gather(&buf, &idx);
            });
        };
        let first = dev.launch("l2_a", LaunchConfig::new(1, 32, 0), read_twice);
        assert_eq!(first.counters.global_bytes, 256);
        assert_eq!(first.counters.global_bytes_unique, 128);
        let second = dev.launch("l2_b", LaunchConfig::new(1, 32, 0), read_twice);
        // Identical launch, identical cold-cache accounting: the first
        // launch's touches did not carry over.
        assert_eq!(second.counters.global_bytes_unique, 128);
        assert_eq!(second.counters, first.counters);
    }

    #[test]
    fn rejects_specs_whose_banks_or_segments_are_not_powers_of_two() {
        let run = |spec: DeviceSpec| {
            Device::new(spec)
                .try_launch("spec", LaunchConfig::new(1, 32, 0), |_| {})
                .unwrap_err()
                .to_string()
        };
        let banks = run(DeviceSpec {
            smem_banks: 24,
            ..DeviceSpec::volta_v100()
        });
        assert!(banks.contains("smem_banks 24"), "{banks}");
        let seg = run(DeviceSpec {
            mem_transaction_bytes: 96,
            ..DeviceSpec::volta_v100()
        });
        assert!(seg.contains("mem_transaction_bytes 96"), "{seg}");
    }

    #[test]
    fn each_block_starts_with_an_empty_l2_tracker_under_reuse() {
        // Each executor reuses one tracker across the blocks it runs, so
        // this pins that it is emptied between them: every block pays
        // its own compulsory misses, under both schedulers.
        let buf = Device::volta().buffer_from_slice(&[1.0f32; 32 * 64]);
        for threads in [1, 4] {
            let dev = Device::volta().with_host_threads(threads);
            let one_segment = dev.launch("shared_seg", LaunchConfig::new(2, 32, 0), |block| {
                block.run_warps(|w| {
                    let _ = w.global_gather(&buf, &lanes_from_fn(Some));
                });
            });
            assert_eq!(
                one_segment.counters.global_bytes_unique, 256,
                "{threads} threads"
            );
            // Even blocks read all 64 segments, odd blocks only the
            // first; 8 blocks over at most 4 workers put a light block
            // after a heavy one on some executor, and each light block
            // still pays its one compulsory segment.
            let heavy_light = dev.launch("heavy_light", LaunchConfig::new(8, 32, 0), |block| {
                let segments = if block.block_id % 2 == 0 { 64 } else { 1 };
                block.run_warps(|w| {
                    for s in 0..segments {
                        let _ = w.global_gather(&buf, &lanes_from_fn(|l| Some(32 * s + l)));
                    }
                });
            });
            assert_eq!(
                heavy_light.counters.global_bytes_unique,
                4 * 65 * 128,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_execution_matches_serial_bit_for_bit() {
        let run = |threads: usize| {
            let dev = Device::volta()
                .with_host_threads(threads)
                .with_profiler(true)
                .with_sanitizer(SanitizerMode::Warn);
            let n = 8 * 64;
            let out = dev.buffer::<f32>(n);
            let acc = dev.buffer::<f32>(1);
            let stats = dev.launch("par", LaunchConfig::new(8, 64, 0), |block| {
                block.range("body", |block| {
                    block.sync();
                    block.run_warps(|w| {
                        let idx = lanes_from_fn(|l| Some(w.global_thread_id(l)));
                        let vals = lanes_from_fn(|l| 0.1 + (w.global_thread_id(l) % 7) as f32);
                        w.global_scatter(&out, &idx, &vals);
                        let zero = lanes_from_fn(|_| Some(0usize));
                        // Non-associative-friendly values: f32 addition
                        // order is observable, so replay order matters.
                        w.global_atomic(&acc, &zero, &vals, |x, y| x + y);
                    });
                });
            });
            (out.to_vec(), acc.host_get(0), stats)
        };
        let (out1, acc1, s1) = run(1);
        let (out8, acc8, s8) = run(8);
        assert_eq!(out1, out8);
        assert_eq!(acc1.to_bits(), acc8.to_bits());
        assert_eq!(s1.counters, s8.counters);
        assert_eq!(s1.cost.total_seconds, s8.cost.total_seconds);
        let (p1, p8) = (s1.profile.unwrap(), s8.profile.unwrap());
        assert_eq!(p1.ranges.len(), p8.ranges.len());
    }

    #[test]
    fn host_threads_clamp_to_the_pool_bound() {
        // Only the setting is read: no launch runs with these counts.
        for (asked, expected) in [(0, 1), (3, 3), (MAX_HOST_THREADS + 1, MAX_HOST_THREADS)] {
            let dev = Device::volta().with_host_threads(asked);
            assert_eq!(dev.host_threads(), env_host_threads().unwrap_or(expected));
        }
        let huge = Device::volta().with_host_threads(usize::MAX);
        assert!((1..=MAX_HOST_THREADS).contains(&huge.host_threads()));
    }

    #[test]
    fn parallel_watchdog_still_times_out() {
        let dev = Device::volta().with_host_threads(4).with_watchdog(16);
        let err = dev
            .try_launch("spin", LaunchConfig::new(4, 32, 0), |block| loop {
                block.sync();
            })
            .unwrap_err();
        assert!(matches!(err, SimError::WatchdogTimeout { budget: 16, .. }));
    }

    #[test]
    fn capped_reports_are_the_first_in_block_order_under_both_schedulers() {
        // 4 blocks × 50 out-of-bounds lanes = 200 findings, past the
        // 128-report cap: both schedulers keep blocks 0 and 1 whole and
        // the first 28 of block 2, and count the other 72 as dropped.
        let buf = Device::volta().buffer::<f32>(8);
        let run = |threads: usize| {
            let dev = Device::volta()
                .with_host_threads(threads)
                .with_sanitizer(SanitizerMode::Warn);
            let stats = dev.launch("capped", LaunchConfig::new(4, 32, 0), |block| {
                block.run_warps(|w| {
                    for round in 0..2 {
                        let idx = lanes_from_fn(|l| (l < 25).then_some(100 + 25 * round + l));
                        let _ = w.global_gather(&buf, &idx);
                    }
                });
            });
            (stats.sanitizer_reports, stats.sanitizer_reports_dropped)
        };
        let (in_order, pooled) = (run(1), run(4));
        assert_eq!(in_order, pooled);
        let (in_order, dropped) = in_order;
        assert_eq!(dropped, 72);
        let blocks: Vec<usize> = in_order.iter().map(|r| r.block).collect();
        let mut expected = vec![0; 50];
        expected.extend([1; 50]);
        expected.extend([2; 28]);
        assert_eq!(blocks, expected);
        assert_eq!(in_order[0].offset, Some(100));
        assert_eq!(in_order[127].offset, Some(100 + 25 + 2));
    }

    #[test]
    fn a_block_that_overflows_the_cap_alone_counts_its_drops() {
        // Block 0 alone reports 5 × 32 = 160 findings and block 1 ten
        // more: the launch keeps block 0's first 128 and drops 42.
        let buf = Device::volta().buffer::<f32>(8);
        for threads in [1, 4] {
            let dev = Device::volta()
                .with_host_threads(threads)
                .with_sanitizer(SanitizerMode::Warn);
            let stats = dev.launch("flood", LaunchConfig::new(2, 32, 0), |block| {
                let (rounds, lanes) = [(5, 32), (1, 10)][block.block_id];
                block.run_warps(|w| {
                    for round in 0..rounds {
                        let idx = lanes_from_fn(|l| (l < lanes).then_some(100 + 32 * round + l));
                        let _ = w.global_gather(&buf, &idx);
                    }
                });
            });
            let reports = &stats.sanitizer_reports;
            assert_eq!(reports.len(), 128, "{threads} threads");
            assert!(reports.iter().all(|r| r.block == 0), "{threads} threads");
            assert_eq!(reports[127].offset, Some(100 + 127), "{threads} threads");
            assert_eq!(stats.sanitizer_reports_dropped, 42, "{threads} threads");
        }
    }

    #[test]
    fn first_panicking_block_resumes_its_payload_under_both_schedulers() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        for threads in [1, 4] {
            let dev = Device::volta().with_host_threads(threads);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dev.launch("boom", LaunchConfig::new(4, 32, 0), |block| {
                    if block.block_id >= 2 {
                        std::panic::panic_any(Boom(block.block_id));
                    }
                })
            }));
            let payload = caught.expect_err("block 2 panics");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(2)),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sanitizer_fail_mode_rejects_oob() {
        let dev = Device::volta().with_sanitizer(SanitizerMode::Fail);
        let buf = dev.buffer::<f32>(8);
        let err = dev
            .try_launch("oob", LaunchConfig::new(1, 32, 0), |block| {
                block.run_warps(|w| {
                    let idx = lanes_from_fn(|l| Some(l * 100));
                    let _ = w.global_gather(&buf, &idx);
                });
            })
            .unwrap_err();
        match err {
            SimError::SanitizerFailure { kernel, reports } => {
                assert_eq!(kernel, "oob");
                assert!(reports.iter().all(|r| r.kind == CheckerKind::Memcheck));
            }
            other => panic!("expected SanitizerFailure, got {other:?}"),
        }
    }

    #[test]
    fn sanitizer_warn_mode_collects_but_completes() {
        let dev = Device::volta().with_sanitizer(SanitizerMode::Warn);
        let buf = dev.buffer::<f32>(8);
        let stats = dev.launch("oob_warn", LaunchConfig::new(1, 32, 0), |block| {
            block.run_warps(|w| {
                let idx = lanes_from_fn(|l| (l < 8).then_some(l));
                let bad = lanes_from_fn(|l| if l == 0 { Some(999) } else { None });
                let _ = w.global_gather(&buf, &idx);
                let _ = w.global_gather(&buf, &bad);
            });
        });
        assert_eq!(stats.sanitizer_reports.len(), 1);
        assert_eq!(stats.sanitizer_reports[0].kind, CheckerKind::Memcheck);
        assert_eq!(stats.sanitizer_reports[0].offset, Some(999));
    }
}
