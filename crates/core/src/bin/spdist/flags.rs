//! `spdist`'s flag tables, one per command. [`Args::parse`] checks a
//! command line against its command's table before the command runs,
//! and the CLI tests read [`COMMANDS`], so every flag the binary
//! accepts is covered by construction.
//!
//! [`Args::parse`]: sparse_dist::cli::Args::parse

use sparse_dist::cli::{Flag, Kind, MAX_DEVICES};
use sparse_dist::MAX_HOST_THREADS;

/// A kernel-running command's table (`knn`, `pairwise`, `serve`): the
/// rows they share, then the command's own.
macro_rules! kernel_flags {
    ($($row:expr),* $(,)?) => {
        &[
            // Any Table 1 distance; see `Distance::from_name`.
            Flag::text("--metric").default("euclidean"),
            Flag::positive("--p", f64::MAX).default("2"),
            Flag::new("--strategy", Kind::OneOf(&["hybrid", "naive", "esc"])).default("hybrid"),
            Flag::new("--smem", Kind::OneOf(&["auto", "dense", "hash", "bloom"])).default("auto"),
            Flag::new("--device", Kind::OneOf(&["volta", "v100", "ampere", "a100"])).default("volta"),
            Flag::uint("--host-threads", 0, MAX_HOST_THREADS as u64),
            Flag::uint("--retries", 0, u32::MAX as u64),
            Flag::switch("--resilience"),
            Flag::switch("--no-fallback"),
            $($row),*
        ]
    };
}

const KNN: &[Flag] = kernel_flags![
    Flag::text("--input"),
    // `ivf`/`exact` pick the candidate tier; anything else is the path
    // of an index matrix.
    Flag::text("--index"),
    Flag::uint("--k", 0, u64::MAX).default("10"),
    Flag::uint("--devices", 0, MAX_DEVICES).default("1"),
    Flag::text("--output"),
    Flag::new("--graph", Kind::OneOf(&["connectivity", "distance"])),
    // 0 = `ceil(sqrt(rows))`.
    Flag::uint("--nlist", 0, u64::MAX)
        .default("0")
        .requires(&["--index"]),
    // Default: `IvfParams::default().nprobe`.
    Flag::uint("--nprobe", 1, u64::MAX).requires(&["--index"]),
    Flag::new("--profile", Kind::OptionalPath),
];

const PAIRWISE: &[Flag] = kernel_flags![
    Flag::text("--input"),
    Flag::text("--index"),
    Flag::text("--output"),
    Flag::new("--profile", Kind::OptionalPath),
];

const SERVE: &[Flag] = kernel_flags![
    Flag::text("--input"),
    Flag::text("--queries"),
    Flag::text("--output"),
    Flag::new("--index", Kind::OneOf(&["exact", "ivf"])).default("exact"),
    Flag::uint("--nlist", 0, u64::MAX)
        .default("0")
        .requires(&["--index"]),
    Flag::uint("--nprobe", 1, u64::MAX).requires(&["--index"]),
    Flag::uint("--k", 0, u64::MAX).default("10"),
    Flag::uint("--devices", 0, MAX_DEVICES).default("1"),
    Flag::uint("--max-batch", 0, u64::MAX).default("8"),
    Flag::real("--max-wait-us", 0.0, f64::MAX).default("200"),
    Flag::uint("--max-queue", 0, u64::MAX).default("1024"),
    Flag::real("--arrival-gap-us", 0.0, f64::MAX).default("50"),
    // Bounded so the budget in bytes fits a `usize`.
    Flag::uint("--cache-budget-mb", 0, (usize::MAX >> 20) as u64),
    Flag::switch("--per-query-prepare"),
    Flag::positive("--slo-p99-us", f64::MAX),
    Flag::positive("--admit-qps", f64::MAX),
    Flag::real("--admit-burst", 1.0, f64::MAX)
        .default("8")
        .requires(&["--admit-qps"]),
    Flag::uint("--degrade-watermark", 0, u64::MAX),
    Flag::uint("--shed-watermark", 0, u64::MAX),
    Flag::positive("--workload", f64::MAX),
    Flag::positive("--duration-ms", f64::MAX)
        .default("5")
        .requires(&["--workload"]),
    // Seeds the generated workload and the chaos drill's fault plan.
    Flag::uint("--seed", 0, u64::MAX)
        .default("1")
        .requires(&["--workload", "--chaos"]),
    Flag::new("--fleet", Kind::UintRange(1, MAX_DEVICES)),
    Flag::positive("--window-ms", f64::MAX)
        .default("1")
        .requires(&["--fleet"]),
    Flag::switch("--chaos").requires(&["--fleet"]),
    Flag::text("--ingest"),
    Flag::uint("--compact-threshold", 0, u64::MAX)
        .default("0")
        .requires(&["--ingest"]),
    Flag::text("--manifest").requires(&["--ingest"]),
    Flag::new("--metrics", Kind::OptionalPath),
    Flag::new("--trace-requests", Kind::OptionalPath),
];

const WAL: &[Flag] = &[
    Flag::text("--input"),
    // Default: half the input's rows.
    Flag::uint("--base-rows", 1, u64::MAX),
    Flag::uint("--delete-every", 0, u64::MAX).default("4"),
    Flag::uint("--prefix", 0, u64::MAX),
    Flag::text("--output"),
    Flag::text("--base"),
    Flag::text("--rebuilt"),
];

const INFO: &[Flag] = &[Flag::text("--input")];

const GEN: &[Flag] = &[
    Flag::text("--profile"),
    Flag::positive("--scale", 1.0).default("0.01"),
    Flag::uint("--seed", 0, u64::MAX).default("1"),
    Flag::text("--output"),
];

const PROFILE: &[Flag] = &[
    Flag::text("--input"),
    Flag::text("--replica"),
    Flag::uint("--seed", 0, u64::MAX)
        .default("2")
        .requires(&["--replica"]),
];

/// Every command with its flag table, in usage order.
pub const COMMANDS: &[(&str, &[Flag])] = &[
    ("knn", KNN),
    ("pairwise", PAIRWISE),
    ("serve", SERVE),
    ("wal", WAL),
    ("info", INFO),
    ("gen", GEN),
    ("profile", PROFILE),
];
