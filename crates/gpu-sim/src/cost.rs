//! First-order roofline cost model converting counters into simulated
//! time.
//!
//! The model is deliberately simple and documented (DESIGN.md §7): a
//! launch's simulated time is the *maximum* of a compute term (effective
//! warp-instruction issues through the machine-wide issue bandwidth,
//! derated by occupancy when too few warps are resident to hide latency)
//! and a memory term (bytes moved at device bandwidth). Absolute seconds
//! are not the point — the paper's testbed numbers are unreachable
//! without silicon — but the first-order terms (divergence, coalescing,
//! occupancy) are exactly the quantities §3 argues about, so *relative*
//! comparisons carry over.

use crate::counters::Counters;
use crate::spec::{DeviceSpec, Occupancy};

/// Occupancy below which issue throughput is assumed proportional to the
/// number of resident warps (not enough parallelism to hide latency).
/// At or above this fraction the machine is treated as fully hidden —
/// the "increased parallelism" §3.1 calls out.
const LATENCY_HIDING_KNEE: f64 = 0.5;

/// Cost estimate of one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Seconds attributable to instruction issue (incl. serialization).
    pub compute_seconds: f64,
    /// Seconds attributable to device-memory traffic.
    pub memory_seconds: f64,
    /// `max(compute, memory)` — the roofline estimate.
    pub total_seconds: f64,
    /// Whether the launch is memory-bound under the model.
    pub memory_bound: bool,
}

/// Estimates the simulated execution time of a launch, without per-block
/// load information (assumes balanced blocks).
pub fn estimate(
    spec: &DeviceSpec,
    blocks: usize,
    occupancy: &Occupancy,
    counters: &Counters,
) -> CostBreakdown {
    estimate_with_blocks(spec, blocks, occupancy, counters, 0)
}

/// How a launch's blocks occupy the machine: `(active SMs, machine-wide
/// issue rate, per-block service rate a straggler is limited to)`.
/// [`estimate_with_blocks`] and [`per_block_issue_budget`] both read
/// this one formula.
fn dispatch(spec: &DeviceSpec, blocks: usize, occupancy: &Occupancy) -> (usize, f64, f64) {
    // How many SMs actually have work (tail effect for tiny grids).
    let active_sms = if occupancy.blocks_per_sm == 0 {
        1
    } else {
        spec.sm_count
            .min(blocks.div_ceil(occupancy.blocks_per_sm).max(1))
    }
    .min(spec.sm_count)
    .max(1);

    // Latency hiding: throughput ramps linearly up to the knee.
    let hiding = (occupancy.fraction / LATENCY_HIDING_KNEE).clamp(1.0 / 64.0, 1.0);

    let issue_rate =
        active_sms as f64 * spec.issue_slots_per_sm as f64 * hiding * spec.clock_ghz * 1e9;
    // Makespan bound: the machine-wide rate divided across concurrent
    // blocks gives the per-block service rate a straggler is limited to.
    let per_block_rate =
        issue_rate / (active_sms as f64 * occupancy.blocks_per_sm.max(1) as f64).max(1.0);
    (active_sms, issue_rate, per_block_rate)
}

/// Estimates the simulated execution time of a launch.
///
/// `max_block_issues` is the effective issue count of the heaviest block
/// (0 = unknown). The compute term is the classic makespan lower bound
/// `max(total work / machine slots, heaviest single job)`: a grid whose
/// blocks are wildly imbalanced — a partitioned high-degree row next to
/// thousands of near-empty rows — is bounded by its straggler, the
/// load-balancing concern §3.3 is designed around.
pub fn estimate_with_blocks(
    spec: &DeviceSpec,
    blocks: usize,
    occupancy: &Occupancy,
    counters: &Counters,
    max_block_issues: u64,
) -> CostBreakdown {
    let (active_sms, issue_rate, per_block_rate) = dispatch(spec, blocks, occupancy);
    let balanced = counters.effective_issues() as f64 / issue_rate;
    let straggler = max_block_issues as f64 / per_block_rate.max(1.0);
    let compute_seconds = balanced.max(straggler);

    // Bandwidth scales with the fraction of the chip in use for small
    // grids (a single active SM cannot saturate HBM).
    let bw = spec.mem_bandwidth * (active_sms as f64 / spec.sm_count as f64).max(0.05);
    // L2 model: the first touch of every distinct segment is a compulsory
    // DRAM transaction; re-read traffic hits DRAM in proportion to how
    // badly the launch's working set overflows the L2 (fully cached when
    // it fits, fully spilled when it is many times the capacity).
    let unique = counters.global_bytes_unique.min(counters.global_bytes) as f64;
    let reread = counters.global_bytes as f64 - unique;
    let miss = (unique / spec.l2_bytes as f64).clamp(0.02, 1.0);
    let dram_bytes = unique + reread * miss;
    let memory_seconds = dram_bytes / bw;

    let total_seconds = compute_seconds.max(memory_seconds);
    CostBreakdown {
        compute_seconds,
        memory_seconds,
        total_seconds,
        memory_bound: memory_seconds > compute_seconds,
    }
}

/// Inverts the compute roofline for watchdog budgeting: how many
/// effective warp-instruction issues one block can retire in `seconds`
/// of simulated time under this launch geometry. This is the straggler
/// bound of [`estimate_with_blocks`] solved for `max_block_issues`, so a
/// launch whose heaviest block stays within the budget would have a
/// compute term of at most `seconds`.
pub fn per_block_issue_budget(
    spec: &DeviceSpec,
    blocks: usize,
    occupancy: &Occupancy,
    seconds: f64,
) -> u64 {
    let (_, _, per_block_rate) = dispatch(spec, blocks, occupancy);
    (seconds.max(0.0) * per_block_rate).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::volta_v100()
    }

    #[test]
    fn compute_bound_launch() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        let c = Counters {
            issues: 1_000_000_000,
            ..Counters::default()
        };
        let est = estimate(&s, 10_000, &occ, &c);
        assert!(!est.memory_bound);
        assert!(est.total_seconds > 0.0);
        assert_eq!(est.total_seconds, est.compute_seconds);
    }

    #[test]
    fn memory_bound_launch() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        let c = Counters {
            issues: 10,
            global_bytes: 100_000_000_000,
            // All bytes distinct: no L2 reuse to discount.
            global_bytes_unique: 100_000_000_000,
            ..Counters::default()
        };
        let est = estimate(&s, 10_000, &occ, &c);
        assert!(est.memory_bound);
        // 100 GB at 900 GB/s ≈ 0.111 s.
        assert!((est.memory_seconds - 100.0 / 900.0).abs() < 0.01);
    }

    #[test]
    fn l2_reuse_is_discounted_when_working_set_fits() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        // 1 MB working set read 100 times: with a 6 MB L2 almost all
        // re-reads hit cache.
        let c = Counters {
            global_bytes: 100_000_000,
            global_bytes_unique: 1_000_000,
            ..Counters::default()
        };
        let cached = estimate(&s, 10_000, &occ, &c).memory_seconds;
        // Same traffic with a working set far beyond L2 spills to DRAM.
        let big = Counters {
            global_bytes: 100_000_000,
            global_bytes_unique: 100_000_000,
            ..Counters::default()
        };
        let spilled = estimate(&s, 10_000, &occ, &big).memory_seconds;
        assert!(spilled > 5.0 * cached, "{spilled} vs {cached}");
    }

    #[test]
    fn divergence_increases_time() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        let clean = Counters {
            issues: 1_000_000,
            ..Counters::default()
        };
        let divergent = Counters {
            issues: 1_000_000,
            divergence_extra: 5_000_000,
            ..Counters::default()
        };
        let t0 = estimate(&s, 1000, &occ, &clean).total_seconds;
        let t1 = estimate(&s, 1000, &occ, &divergent).total_seconds;
        assert!(t1 > 5.0 * t0);
    }

    #[test]
    fn low_occupancy_slows_compute() {
        let s = spec();
        let full = s.occupancy(1024, 48 * 1024); // 64 warps/SM
        let half = s.occupancy(1024, 96 * 1024); // 32 warps/SM
        let c = Counters {
            issues: 1_000_000_000,
            ..Counters::default()
        };
        let t_full = estimate(&s, 10_000, &full, &c).total_seconds;
        let t_half = estimate(&s, 10_000, &half, &c).total_seconds;
        assert!(t_full <= t_half);
    }

    #[test]
    fn straggler_block_bounds_the_makespan() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        let c = Counters {
            issues: 1_000_000,
            ..Counters::default()
        };
        let balanced = estimate_with_blocks(&s, 1000, &occ, &c, 1_000).total_seconds;
        // Same total work, but one block holds 90% of it.
        let skewed = estimate_with_blocks(&s, 1000, &occ, &c, 900_000).total_seconds;
        assert!(skewed > 10.0 * balanced, "{skewed} vs {balanced}");
    }

    #[test]
    fn cost_is_monotone_in_every_counter() {
        let s = spec();
        let occ = s.occupancy(256, 0);
        let base = Counters {
            issues: 1_000_000,
            divergence_extra: 1_000,
            global_bytes: 10_000_000,
            global_bytes_unique: 5_000_000,
            bank_conflict_extra: 100,
            atomic_conflict_extra: 100,
            ..Counters::default()
        };
        let t0 = estimate(&s, 500, &occ, &base).total_seconds;
        for bump in 0..4 {
            let mut c = base;
            match bump {
                0 => c.issues *= 4,
                1 => c.divergence_extra += 10_000_000,
                2 => {
                    c.global_bytes *= 4;
                    c.global_bytes_unique *= 4;
                }
                _ => c.bank_conflict_extra += 10_000_000,
            }
            let t1 = estimate(&s, 500, &occ, &c).total_seconds;
            assert!(t1 >= t0, "bump {bump}: {t1} < {t0}");
        }
    }

    #[test]
    fn tiny_grids_pay_the_tail() {
        let s = spec();
        let occ = s.occupancy(1024, 0);
        let c = Counters {
            issues: 1_000_000,
            ..Counters::default()
        };
        let t_one_block = estimate(&s, 1, &occ, &c).total_seconds;
        let t_many = estimate(&s, 10_000, &occ, &c).total_seconds;
        assert!(t_one_block > t_many);
    }
}
