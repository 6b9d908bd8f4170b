//! Small helpers shared by the harness binaries.

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

/// Parses the `--scale <f>` dataset down-scale flag from argv: `None`
/// when absent. A value outside (0, 1] — the range
/// `DatasetProfile::scaled_with` accepts — exits 2 like [`parse_u64`],
/// so `--scale abc` cannot silently run the default scales and
/// `--scale 0` cannot panic inside the generator.
pub fn parse_scale(args: &[String]) -> Option<f64> {
    parse_flag(args, "--scale", "a number in (0, 1]", scale_value)
}

/// `raw` as a scale factor, if it is a number in (0, 1] (NaN and the
/// infinities fail the range test).
fn scale_value(raw: &str) -> Option<f64> {
    raw.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 1.0)
}

/// Parses a `--seed <n>` style unsigned-integer flag from argv.
///
/// Returns the default when the flag is absent. A present-but-malformed
/// value (`--seed 1.7`, `--seed abc`) terminates the process with exit
/// code 2 instead of silently truncating or falling back, so a typo in a
/// benchmark invocation cannot masquerade as a differently-seeded run.
pub fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag, "an unsigned integer", |raw| raw.parse().ok()).unwrap_or(default)
}

/// `flag`'s operand as `read` reads it: `None` when the flag is absent.
/// A present value `read` rejects terminates the process with exit
/// code 2 and a message naming the flag.
fn parse_flag<V>(
    args: &[String],
    flag: &str,
    expects: &str,
    read: impl Fn(&str) -> Option<V>,
) -> Option<V> {
    let raw = parse_path(args, flag)?;
    let value = read(&raw);
    if value.is_none() {
        eprintln!("error: {flag} expects {expects}, got {raw:?}");
        std::process::exit(2);
    }
    value
}

/// Parses a `--json <path>` style flag taking a string operand,
/// returning `None` when absent.
pub fn parse_path(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
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

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_u64_reads_flag_or_default() {
        assert_eq!(parse_u64(&argv(&["prog", "--seed", "42"]), "--seed", 7), 42);
        assert_eq!(parse_u64(&argv(&["prog"]), "--seed", 7), 7);
    }

    #[test]
    fn parse_path_reads_operand() {
        assert_eq!(
            parse_path(&argv(&["prog", "--json", "out.json"]), "--json"),
            Some("out.json".to_string())
        );
        assert_eq!(parse_path(&argv(&["prog"]), "--json"), None);
    }

    #[test]
    fn parse_scale_reads_flag_or_none() {
        assert_eq!(parse_scale(&argv(&["prog", "--scale", "0.02"])), Some(0.02));
        assert_eq!(parse_scale(&argv(&["prog", "--seed", "7"])), None);
    }

    #[test]
    fn scale_value_accepts_only_the_unit_interval() {
        for ok in ["1", "0.5", "1e-3"] {
            assert!(scale_value(ok).is_some(), "{ok}");
        }
        for bad in ["abc", "", "0", "-1", "1.5", "1e300", "nan", "inf", "-inf"] {
            assert_eq!(scale_value(bad), None, "{bad}");
        }
    }
}
