//! Paper §3's design space, gated.
//!
//! §3 justifies the hybrid CSR+COO kernel by ruling out the designs
//! around it. Each test asserts one ordering the simulated cost model
//! shows between them, on every `bench_profiles(Some(0.002))` index at
//! seed 1, queried by its first 32 rows, for Cosine (the expanded
//! dot-product family) and Manhattan (NAMM, two semiring passes).
//! Simulated seconds and counters are deterministic and independent of
//! the host-thread count, so the orderings hold exactly under any pool.
//!
//! The §3 claims the model does not show are not asserted; EXPERIMENTS.md
//! "§3 design narrative" gives each one with the counters that explain
//! it.

use std::sync::OnceLock;

use bench::suite::bench_profiles;
use gpu_sim::{Counters, Device};
use kernels::{pairwise_distances, PairwiseOptions, SmemMode, Strategy};
use semiring::{Distance, DistanceParams};
use sparse::CsrMatrix;

/// Query rows per profile: one warp's worth keeps the whole grid of
/// runs near 20 s in a debug build.
const QUERY_ROWS: usize = 32;

/// The hybrid in each shared-memory mode (§3.3.2), then the naive CSR
/// (§3.2.2) and expand-sort-contract (§3.2.1) strategies it replaced.
#[derive(Debug, Clone, Copy)]
enum Design {
    HybridDense,
    HybridHash,
    HybridBloom,
    NaiveCsr,
    ExpandSortContract,
}

impl Design {
    const ALL: [Design; 5] = [
        Design::HybridDense,
        Design::HybridHash,
        Design::HybridBloom,
        Design::NaiveCsr,
        Design::ExpandSortContract,
    ];

    fn options(self) -> PairwiseOptions {
        let (strategy, smem_mode) = match self {
            Design::HybridDense => (Strategy::HybridCooSpmv, SmemMode::Dense),
            Design::HybridHash => (Strategy::HybridCooSpmv, SmemMode::Hash),
            Design::HybridBloom => (Strategy::HybridCooSpmv, SmemMode::Bloom),
            Design::NaiveCsr => (Strategy::NaiveCsr, SmemMode::Auto),
            Design::ExpandSortContract => (Strategy::ExpandSortContract, SmemMode::Auto),
        };
        PairwiseOptions {
            strategy,
            smem_mode,
            resilience: None,
        }
    }
}

/// One design's simulated seconds and counters, summed over its launches.
struct Run {
    seconds: f64,
    counters: Counters,
    /// Issues inside `sort` profiler ranges (expand-sort-contract's
    /// bitonic network; zero for the other designs).
    sort_issues: u64,
}

/// Every design on one profile and distance.
struct Cell {
    profile: &'static str,
    distance: Distance,
    runs: [Run; Design::ALL.len()],
}

impl Cell {
    fn run(&self, d: Design) -> &Run {
        &self.runs[d as usize]
    }

    /// Names the cell and the designs compared in an assertion message.
    fn what(&self, a: Design, b: Design) -> String {
        format!("{} {}: {a:?} vs {b:?}", self.profile, self.distance.name())
    }
}

impl Run {
    fn measure(
        dev: &Device,
        queries: &CsrMatrix<f32>,
        index: &CsrMatrix<f32>,
        distance: Distance,
        d: Design,
    ) -> Self {
        let r = pairwise_distances(
            dev,
            queries,
            index,
            distance,
            &DistanceParams::default(),
            &d.options(),
        )
        .unwrap_or_else(|e| panic!("{d:?} {}: {e}", distance.name()));
        let mut counters = Counters::new();
        for l in &r.launches {
            counters.merge(&l.counters);
        }
        let sort_issues = r
            .launches
            .iter()
            .flat_map(|l| l.profile.iter().flat_map(|p| &p.ranges))
            .filter(|range| range.path == "sort")
            .map(|range| range.inclusive.issues)
            .sum();
        Run {
            seconds: r.sim_seconds(),
            counters,
            sort_issues,
        }
    }
}

/// All cells, run once and shared by the tests.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let dev = Device::volta().with_profiler(true);
        let mut cells = Vec::new();
        for profile in bench_profiles(Some(0.002)) {
            let index = profile.generate(1);
            let queries = index.slice_rows(0..QUERY_ROWS);
            for distance in [Distance::Cosine, Distance::Manhattan] {
                cells.push(Cell {
                    profile: profile.name,
                    distance,
                    runs: Design::ALL.map(|d| Run::measure(&dev, &queries, &index, distance, d)),
                });
            }
        }
        cells
    })
}

/// §3.3.2: dense shared memory is the fastest mode wherever the
/// dimensionality fits, as it does on all four profiles at this scale.
/// Both modes are memory-bound here, so the seconds tie and the issue
/// count (no probe chains) shows the difference.
#[test]
fn dense_is_no_slower_than_hash() {
    for c in cells() {
        let (dense, hash) = (c.run(Design::HybridDense), c.run(Design::HybridHash));
        let what = c.what(Design::HybridDense, Design::HybridHash);
        assert!(dense.seconds <= hash.seconds, "{what}: seconds");
        assert!(
            dense.counters.issues < hash.counters.issues,
            "{what}: issues"
        );
    }
}

/// §3.3.2: the bloom filter trades the hash table's shared-memory probe
/// chains, and their bank conflicts, for binary searches of the row in
/// global memory, and is never the cheaper of the two.
#[test]
fn bloom_is_never_cheaper_than_hash() {
    for c in cells() {
        let (bloom, hash) = (c.run(Design::HybridBloom), c.run(Design::HybridHash));
        let what = c.what(Design::HybridBloom, Design::HybridHash);
        assert!(bloom.seconds >= hash.seconds, "{what}: seconds");
        assert!(
            bloom.counters.bank_conflict_extra < hash.counters.bank_conflict_extra,
            "{what}: bank-conflict replays"
        );
        assert!(
            bloom.counters.global_transactions > hash.counters.global_transactions,
            "{what}: global transactions"
        );
    }
}

/// §3.3.3: the hybrid beats the naive one-thread-per-cell CSR kernel on
/// the profiles whose degrees make naive's merge loops diverge. SEC
/// Edgar's rows are too short for that, and there naive wins Manhattan.
#[test]
fn hybrid_beats_naive_csr() {
    for c in cells().iter().filter(|c| c.profile != "SEC Edgar") {
        let (hybrid, naive) = (c.run(Design::HybridDense), c.run(Design::NaiveCsr));
        let what = c.what(Design::HybridDense, Design::NaiveCsr);
        assert!(hybrid.seconds < naive.seconds, "{what}: seconds");
    }
}

/// §3.2.1: expand-sort-contract is dominated by its sort. Stated as an
/// issue count, since its seconds beat the hybrid's on scRNA: the sort
/// alone issues more than the whole hybrid.
#[test]
fn expand_sort_contract_sorts_more_than_the_hybrid_issues() {
    for c in cells() {
        let (esc, hybrid) = (
            c.run(Design::ExpandSortContract),
            c.run(Design::HybridDense),
        );
        let what = c.what(Design::ExpandSortContract, Design::HybridDense);
        assert!(
            esc.sort_issues > hybrid.counters.issues,
            "{what}: sort issues against all issues"
        );
    }
}
