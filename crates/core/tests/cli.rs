//! End-to-end tests of the `spdist` CLI binary: generate → inspect →
//! query → graph, all through real files and process invocations.

use std::path::PathBuf;
use std::process::Command;

use proptest::prelude::*;
use sparse_dist::cli::{Flag, Kind};

#[path = "../src/bin/spdist/flags.rs"]
mod flags;

fn spdist() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spdist"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spdist-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_info_knn_graph_round_trip() {
    let data = tmp("data.mtx");
    let graph = tmp("graph.mtx");

    // gen
    let out = spdist()
        .args([
            "gen",
            "--profile",
            "nytimes",
            "--scale",
            "0.003",
            "--seed",
            "7",
            "--output",
        ])
        .arg(&data)
        .output()
        .expect("spdist runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // info
    let out = spdist()
        .arg("info")
        .arg("--input")
        .arg(&data)
        .output()
        .expect("spdist runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shape:"), "{stdout}");
    assert!(stdout.contains("density:"), "{stdout}");

    // knn to stdout
    let out = spdist()
        .args(["knn", "--metric", "cosine", "--k", "3", "--input"])
        .arg(&data)
        .output()
        .expect("spdist runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("at least one query row");
    assert!(first.starts_with("0\t"), "{first}");
    // Self-match at distance ~0 in the first slot.
    assert!(first.contains("0:0.000000"), "{first}");

    // knn to a connectivity graph file
    let out = spdist()
        .args([
            "knn",
            "--metric",
            "jaccard",
            "--k",
            "2",
            "--graph",
            "connectivity",
        ])
        .arg("--input")
        .arg(&data)
        .arg("--output")
        .arg(&graph)
        .output()
        .expect("spdist runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let g: sparse::CsrMatrix<f32> =
        sparse::read_matrix_market(std::fs::File::open(&graph).expect("graph written"))
            .expect("valid matrix market");
    assert_eq!(g.rows(), g.cols());
    assert!(g.nnz() > 0);

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&graph);
}

#[test]
fn profile_fits_and_replicates() {
    let data = tmp("fit-data.mtx");
    let replica = tmp("fit-replica.mtx");
    let out = spdist()
        .args(["gen", "--profile", "edgar", "--scale", "0.002", "--output"])
        .arg(&data)
        .output()
        .expect("spdist runs");
    assert!(out.status.success());

    let out = spdist()
        .arg("profile")
        .arg("--input")
        .arg(&data)
        .arg("--replica")
        .arg(&replica)
        .output()
        .expect("spdist runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lognormal"), "{stdout}");
    assert!(replica.exists());

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&replica);
}

#[test]
fn bad_inputs_produce_clean_errors() {
    // Unknown command.
    let out = spdist().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Unknown metric.
    let data = tmp("err-data.mtx");
    std::fs::write(
        &data,
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
    )
    .expect("write");
    let out = spdist()
        .args(["knn", "--metric", "nope", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown metric"));

    // Missing file.
    let out = spdist()
        .args(["info", "--input", "/nonexistent/x.mtx"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    let _ = std::fs::remove_file(&data);
}

#[test]
fn unknown_and_malformed_flags_exit_with_config_code() {
    let data = tmp("strict-data.mtx");
    std::fs::write(
        &data,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )
    .expect("write");

    // A misspelled flag must be a config error (exit 2), not a silently
    // applied default: `--host-thread 8` used to run serially with no
    // warning at all.
    let out = spdist()
        .args(["knn", "--host-thread", "8", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "misspelled flag");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --host-thread"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A value flag swallowing the next flag is a config error too:
    // `--metric --k` used to parse "--k" as the metric's value.
    let out = spdist()
        .args(["knn", "--metric", "--k", "3", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "flag missing its value");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value for --metric"));

    // Flags valid for one command are rejected on another.
    let out = spdist()
        .args(["info", "--k", "3", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "knn flag on info");

    // Stray positional arguments are rejected.
    let out = spdist()
        .args(["knn", "extra", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "stray positional");

    // Garbage durations and a byte-overflowing cache budget are config
    // errors, not panics in the metrics registry or the multiply.
    for (flag, value) in [
        ("--max-wait-us", "nan"),
        ("--max-wait-us", "inf"),
        ("--max-wait-us", "-1000"),
        ("--arrival-gap-us", "nan"),
        ("--arrival-gap-us", "inf"),
        ("--cache-budget-mb", "18446744073709551615"),
    ] {
        let out = spdist()
            .args(["serve", flag, value, "--input"])
            .arg(&data)
            .arg("--queries")
            .arg(&data)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains("config error:"), "{flag} {value}: {stderr}");
    }

    // A Minkowski degree must be finite and positive; these used to be
    // accepted silently.
    for value in ["nan", "inf", "-inf", "0", "-1"] {
        let out = spdist()
            .args(["knn", "--metric", "minkowski", "--p", value, "--input"])
            .arg(&data)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--p {value}: {stderr}");
        assert!(stderr.contains("config error:"), "--p {value}: {stderr}");
    }

    // A value flag given twice is a config error naming the flag; the
    // second value used to be dropped without a word.
    let out = spdist()
        .args(["knn", "--k", "3", "--k", "5", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repeated flag: {stderr}");
    assert!(
        stderr.contains("config error: --k given more than once"),
        "{stderr}"
    );

    let _ = std::fs::remove_file(&data);
}

/// Numerals that parse to NaN, infinities, signed zero, values past
/// `f64::MAX` or `u64::MAX`, or nothing at all.
const GARBAGE_NUMERALS: &[&str] = &[
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "-0",
    "-1",
    "1e309",
    "-1e309",
    "1e300",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "",
];

/// A garbage numeral: one of [`GARBAGE_NUMERALS`] or a 19–40 digit
/// integer, possibly negative.
fn garbage_numeral() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..GARBAGE_NUMERALS.len()).prop_map(|i| GARBAGE_NUMERALS[i].to_string()),
        (0u32..2, proptest::collection::vec(0u32..10, 19..41)).prop_map(|(neg, digits)| {
            let digits: String = digits.iter().map(|d| d.to_string()).collect();
            if neg == 1 {
                format!("-{digits}")
            } else {
                digits
            }
        }),
    ]
}

/// Every numeric flag of every command, read from the flag tables.
fn numeric_flags() -> Vec<(&'static str, &'static Flag)> {
    flags::COMMANDS
        .iter()
        .flat_map(|&(cmd, table)| {
            table
                .iter()
                .filter(|f| {
                    matches!(
                        f.kind,
                        Kind::Uint(..) | Kind::UintRange(..) | Kind::Real(..)
                    )
                })
                .map(move |f| (cmd, f))
        })
        .collect()
}

/// `spdist <cmd>` with the operands it needs to run on the fixture.
fn command(cmd: &str, files: &GarbageFixture) -> Command {
    let mut c = spdist();
    c.arg(cmd);
    match cmd {
        "gen" => c
            .args(["--profile", "movielens", "--output"])
            .arg(&files.out),
        "serve" => c
            .arg("--input")
            .arg(&files.data)
            .arg("--queries")
            .arg(&files.data),
        "wal" => c
            .arg("--input")
            .arg(&files.data)
            .arg("--output")
            .arg(&files.out),
        _ => c.arg("--input").arg(&files.data),
    };
    c
}

/// An in-domain value for `flag` that lets the command run on the
/// fixture, or `None` for a switch.
fn valid_value(flag: &Flag, files: &GarbageFixture) -> Option<std::ffi::OsString> {
    let value = match flag.kind {
        Kind::Switch | Kind::OptionalPath => return None,
        Kind::OneOf(choices) => choices[choices.len() - 1].to_string(),
        Kind::Uint(min, _) => min.to_string(),
        Kind::UintRange(min, max) => format!("{min}:{}", max.min(min + 1)),
        Kind::Real(min, max, _) => (min + 1000.0).min(max).to_string(),
        Kind::Text => match flag.name {
            "--index" => "ivf".to_string(),
            "--ingest" => return Some(files.wal.clone().into()),
            "--replica" | "--manifest" => return Some(files.out.clone().into()),
            other => panic!("no fixture value for {other}"),
        },
    };
    Some(value.into())
}

/// The first flag `flag` requires, as arguments with a valid value.
fn requirement(cmd: &str, flag: &Flag, files: &GarbageFixture) -> Vec<std::ffi::OsString> {
    let Some(name) = flag.requires.first() else {
        return Vec::new();
    };
    let table = flags::COMMANDS.iter().find(|(c, _)| *c == cmd).unwrap().1;
    let row = table.iter().find(|f| f.name == *name).unwrap();
    std::iter::once((*name).into())
        .chain(valid_value(row, files))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No garbage numeral in any numeric flag of any command makes
    /// `spdist` panic (exit 101): each is run or refused with a typed
    /// exit code. The flags come from the commands' flag tables, each
    /// given with the flag it requires.
    #[test]
    fn numeric_flags_never_panic_on_garbage(
        flag in 0..numeric_flags().len(),
        value in garbage_numeral(),
    ) {
        let files = garbage_fixture();
        let (cmd, flag) = numeric_flags()[flag];
        let out = command(cmd, files)
            .arg(flag.name)
            .arg(&value)
            .args(requirement(cmd, flag, files))
            .output()
            .expect("runs");
        let code = out.status.code();
        prop_assert!(
            matches!(code, Some(0 | 2 | 3 | 4)),
            "{cmd} {} {value:?} exited {code:?}: {}",
            flag.name,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A flag given without any flag it requires is a config error (exit
/// 2) naming both, for every such row of every command's table —
/// never a value silently left unread.
#[test]
fn flags_without_their_required_flag_exit_with_config_code() {
    let files = garbage_fixture();
    let mut checked = 0;
    for &(cmd, table) in flags::COMMANDS {
        for flag in table.iter().filter(|f| !f.requires.is_empty()) {
            let out = command(cmd, files)
                .arg(flag.name)
                .args(valid_value(flag, files))
                .output()
                .expect("runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd} {}: {stderr}", flag.name);
            assert!(
                stderr.contains(&format!("config error: {} requires", flag.name)),
                "{cmd} {}: {stderr}",
                flag.name
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} rows carry a requirement");
}

/// Values that used to panic or go unread are config errors (exit 2).
#[test]
fn out_of_domain_and_unread_values_exit_with_config_code() {
    let files = garbage_fixture();
    let max_threads = (sparse_dist::MAX_HOST_THREADS + 1).to_string();
    let cases: &[(&str, &[&str])] = &[
        // `DatasetProfile::scaled` used to panic on these.
        ("gen", &["--scale", "0"]),
        ("gen", &["--scale", "nan"]),
        // Read only beside the flag they require, so once ignored.
        ("serve", &["--admit-burst", "abc"]),
        ("serve", &["--window-ms", "abc"]),
        ("serve", &["--duration-ms", "abc"]),
        ("serve", &["--seed", "abc"]),
        ("profile", &["--seed", "abc"]),
        // The block pool never spawns past its bound.
        ("knn", &["--host-threads", &max_threads]),
        ("serve", &["--fleet", "1:2000"]),
    ];
    for (cmd, args) in cases {
        let out = command(cmd, files).args(*args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {args:?}: {stderr}");
        assert!(stderr.contains("config error:"), "{cmd} {args:?}: {stderr}");
    }
}

/// A 4 × 3 index and a `wal.v1` log of two rows inserted over it,
/// written once per test process, plus a path commands may write to.
struct GarbageFixture {
    data: PathBuf,
    wal: PathBuf,
    out: PathBuf,
}

/// The fixture's index rows, as MatrixMarket entries.
const FIXTURE_ROWS: &str = "1 1 1.0\n2 2 1.0\n3 3 2.0\n4 1 0.5\n4 3 1.5\n";

fn garbage_fixture() -> &'static GarbageFixture {
    static FIXTURE: std::sync::OnceLock<GarbageFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let files = GarbageFixture {
            data: tmp("garbage-data.mtx"),
            wal: tmp("garbage-wal.tsv"),
            out: tmp("garbage-out"),
        };
        std::fs::write(
            &files.data,
            format!("%%MatrixMarket matrix coordinate real general\n4 3 5\n{FIXTURE_ROWS}"),
        )
        .expect("write");
        // The index plus two rows: `wal` logs the rows as inserts over
        // a base equal to the index.
        let source = tmp("garbage-source.mtx");
        std::fs::write(
            &source,
            format!(
                "%%MatrixMarket matrix coordinate real general\n6 3 7\n{FIXTURE_ROWS}\
                 5 2 3.0\n6 1 1.0\n"
            ),
        )
        .expect("write");
        let out = spdist()
            .args(["wal", "--base-rows", "4", "--input"])
            .arg(&source)
            .arg("--output")
            .arg(&files.wal)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        files
    })
}

/// A log names the base it was derived from; replaying it over another
/// base of the same width is a config error (exit 2), not a dataset no
/// rebuild matches.
#[test]
fn serve_ingest_refuses_a_log_derived_from_another_base() {
    let files = garbage_fixture();
    let (wal, base) = (tmp("other-base-wal.tsv"), tmp("other-base.mtx"));
    let out = spdist()
        .args(["wal", "--base-rows", "2", "--input"])
        .arg(&files.data)
        .arg("--output")
        .arg(&wal)
        .arg("--base")
        .arg(&base)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let serve = |input: &PathBuf| {
        spdist()
            .args(["serve", "--k", "2", "--queries"])
            .arg(&files.data)
            .arg("--input")
            .arg(input)
            .arg("--ingest")
            .arg(&wal)
            .output()
            .expect("runs")
    };
    // The 4-row index is not the 2-row base the log was derived from.
    let out = serve(&files.data);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("config error:") && stderr.contains("derived from base"),
        "{stderr}"
    );
    // Its own base replays.
    let out = serve(&base);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_replays_queries_and_matches_knn_output() {
    let data = tmp("serve-data.mtx");
    let out = spdist()
        .args([
            "gen",
            "--profile",
            "nytimes",
            "--scale",
            "0.003",
            "--seed",
            "7",
            "--output",
        ])
        .arg(&data)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let knn = spdist()
        .args(["knn", "--metric", "cosine", "--k", "3", "--input"])
        .arg(&data)
        .output()
        .expect("runs");
    assert!(knn.status.success());

    let serve = spdist()
        .args([
            "serve",
            "--metric",
            "cosine",
            "--k",
            "3",
            "--devices",
            "2",
            "--max-batch",
            "4",
            "--queries",
        ])
        .arg(&data)
        .arg("--input")
        .arg(&data)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&serve.stderr);
    assert!(serve.status.success(), "{stderr}");
    // Served answers are byte-identical to the one-shot knn TSV.
    assert_eq!(
        String::from_utf8_lossy(&knn.stdout),
        String::from_utf8_lossy(&serve.stdout),
        "serve output must match knn"
    );
    assert!(stderr.contains("qps"), "{stderr}");
    assert!(
        stderr.contains("cache 0 hit(s)") || stderr.contains("hit(s)"),
        "{stderr}"
    );

    // Unknown serve flag exits 2.
    let out = spdist()
        .args(["serve", "--max-batches", "4", "--queries"])
        .arg(&data)
        .arg("--input")
        .arg(&data)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(&data);
}
