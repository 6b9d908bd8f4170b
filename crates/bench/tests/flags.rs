//! Harness flags answer an unknown flag, a missing value or a malformed
//! value with exit code 2 and a message naming the flag, never a panic
//! or a silent fallback.

use std::process::Command;

#[test]
fn malformed_flag_values_exit_with_the_config_code() {
    let cases = [
        ("--scale", "abc"),
        ("--scale", "0"),
        ("--scale", "nan"),
        ("--scale", "-1"),
        ("--scale", "1e300"),
        ("--seed", "1.7"),
        ("--seed", "-3"),
    ];
    for (flag, bad) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_table3"))
            .args([flag, bad])
            .output()
            .expect("table3 starts");
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} expects")),
            "{flag} {bad}: {stderr}"
        );
    }
}

/// Every harness binary and `run_all`, which parse through one flag
/// table each.
const BINARIES: &[(&str, &str)] = &[
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("figure1", env!("CARGO_BIN_EXE_figure1")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("memory_footprint", env!("CARGO_BIN_EXE_memory_footprint")),
    ("speedup", env!("CARGO_BIN_EXE_speedup")),
    ("counters_report", env!("CARGO_BIN_EXE_counters_report")),
    ("arch_compare", env!("CARGO_BIN_EXE_arch_compare")),
    ("resilience_report", env!("CARGO_BIN_EXE_resilience_report")),
    ("shard_scaling", env!("CARGO_BIN_EXE_shard_scaling")),
    ("ann_recall", env!("CARGO_BIN_EXE_ann_recall")),
    ("serve_throughput", env!("CARGO_BIN_EXE_serve_throughput")),
    ("serve_fleet", env!("CARGO_BIN_EXE_serve_fleet")),
    ("serve_ingest", env!("CARGO_BIN_EXE_serve_ingest")),
    ("run_all", env!("CARGO_BIN_EXE_run_all")),
];

/// A misspelled flag, a `--seed` with no value and an out-of-range
/// `--scale` exit 2 on every binary, before any experiment runs: none
/// may run its default scales instead.
#[test]
fn every_harness_rejects_unknown_valueless_and_out_of_range_flags() {
    for (name, bin) in BINARIES {
        for argv in [
            &["--sacle", "0.5"][..],
            &["--seed"],
            &["--scale", "0.001", "--seed"],
            &["--scale", "0"],
        ] {
            let out = Command::new(bin)
                .args(argv)
                .output()
                .expect("harness starts");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} {argv:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.stdout.is_empty(), "{name} {argv:?} ran");
        }
    }
}

/// `--devices` is capped like `spdist`'s: the harness never builds
/// thousands of simulated devices.
#[test]
fn harness_devices_are_bounded() {
    for bin in [
        env!("CARGO_BIN_EXE_serve_throughput"),
        env!("CARGO_BIN_EXE_serve_ingest"),
    ] {
        let out = Command::new(bin)
            .args(["--devices", "2000"])
            .output()
            .expect("harness starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("--devices expects"), "{stderr}");
    }
}
