//! Harness flags answer a malformed value with exit code 2 and a
//! message naming the flag, never a panic or a silent fallback.

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
