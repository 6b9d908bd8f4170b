//! Small helpers shared by the harness binaries.

use sparse_dist::cli::{Args, Flag, MAX_DEVICES};
use std::time::Instant;

/// Wall-clock measurement of a closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed<R> {
    /// The closure's return value.
    pub value: R,
    /// Host wall-clock seconds spent.
    pub host_seconds: f64,
}

impl<R> Timed<R> {
    /// Runs `f` and records its wall-clock duration.
    pub fn run(f: impl FnOnce() -> R) -> Self {
        let t0 = Instant::now();
        let value = f();
        Self {
            value,
            host_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

/// `--seed <n>`: the dataset generator's seed.
pub const SEED: Flag = Flag::uint("--seed", 0, u64::MAX).default("1");

/// `--json <path>`: where to write the harness's `bench.v1` document.
pub const JSON: Flag = Flag::text("--json");

/// `--k <n>`: neighbors per query.
pub const K: Flag = Flag::uint("--k", 0, u64::MAX).default("10");

/// `--devices <n>`: simulated devices to shard or serve across (0 reads
/// as 1), at most [`MAX_DEVICES`] like `spdist`'s.
pub const DEVICES: Flag = Flag::uint("--devices", 0, MAX_DEVICES).default("2");

/// `--scale <f>`: the dataset down-scale factor, in (0, 1] — the range
/// `DatasetProfile::scaled_with` accepts. A harness adds its default
/// with [`Flag::default`]; without one, each dataset keeps its own
/// default scales ([`crate::suite::bench_profiles`]).
pub const SCALE: Flag = Flag::positive("--scale", 1.0);

/// Parses the process's arguments against the harness's flag `table`.
/// A command line that breaks it — an unknown flag, a missing or
/// malformed value, a repeated flag — exits 2 with a message naming the
/// flag, so a typo cannot run a different experiment than the one
/// asked for.
pub fn parse_args(table: &'static [Flag]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    Args::parse(table, &argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_elapsed() {
        let t = Timed::run(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(t.value, 42);
        assert!(t.host_seconds >= 0.009);
    }
}
