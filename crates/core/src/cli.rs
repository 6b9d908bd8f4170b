//! Strict command-line flags: one table per binary.
//!
//! `spdist` and every bench harness declare their flags as one
//! `&[`[`Flag`]`]` table: each row names a flag, its value domain
//! ([`Kind`]), its default and the flags it requires. [`Args::parse`]
//! checks a command line against the table before the command reads a
//! value, and answers with an [`Error`] naming the flag (exit code 2 in
//! both binaries) for an unknown, repeated or valueless flag, a stray
//! positional argument, a value outside the flag's domain (malformed,
//! out of range, not finite, not a listed choice), or a flag given
//! without any flag it requires. A command still checks only the rules
//! that relate two values, such as a watermark pair or a row count
//! against its input.

use std::fmt;

/// Most simulated devices (or fleet replicas) one command may build.
pub const MAX_DEVICES: u64 = 1024;

/// The value domain of a flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A bare `--flag`.
    Switch,
    /// `--flag` alone or `--flag=<path>` (a non-empty path).
    OptionalPath,
    /// `--flag <text>`, interpreted by the command.
    Text,
    /// `--flag <word>`, one of the listed words.
    OneOf(&'static [&'static str]),
    /// `--flag <n>`, an unsigned integer in `[min, max]`.
    Uint(u64, u64),
    /// `--flag <lo>:<hi>`, unsigned integers with `min <= lo <= hi <= max`.
    UintRange(u64, u64),
    /// `--flag <x>`, a finite real in `[min, max]`, or in `(min, max]`
    /// when the third field is set. `-0` reads as 0.
    Real(f64, f64, bool),
}

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag, `--` included.
    pub name: &'static str,
    /// Its value domain.
    pub kind: Kind,
    /// The value used when the flag is absent, checked like a given one.
    pub default: Option<&'static str>,
    /// Flags of which at least one must be given beside this one.
    pub requires: &'static [&'static str],
}

impl Flag {
    /// A row with no default and no requirement.
    pub const fn new(name: &'static str, kind: Kind) -> Self {
        Self {
            name,
            kind,
            default: None,
            requires: &[],
        }
    }

    /// A bare switch.
    pub const fn switch(name: &'static str) -> Self {
        Self::new(name, Kind::Switch)
    }

    /// A text value.
    pub const fn text(name: &'static str) -> Self {
        Self::new(name, Kind::Text)
    }

    /// An unsigned integer in `[min, max]`.
    pub const fn uint(name: &'static str, min: u64, max: u64) -> Self {
        Self::new(name, Kind::Uint(min, max))
    }

    /// A finite real in `[min, max]`.
    pub const fn real(name: &'static str, min: f64, max: f64) -> Self {
        Self::new(name, Kind::Real(min, max, false))
    }

    /// A finite real in `(0, max]`.
    pub const fn positive(name: &'static str, max: f64) -> Self {
        Self::new(name, Kind::Real(0.0, max, true))
    }

    /// Sets the value used when the flag is absent.
    pub const fn default(self, value: &'static str) -> Self {
        Self {
            default: Some(value),
            ..self
        }
    }

    /// Makes the flag a config error unless one of `flags` is given too.
    pub const fn requires(self, flags: &'static [&'static str]) -> Self {
        Self {
            requires: flags,
            ..self
        }
    }

    /// Checks `raw` against the flag's domain.
    fn read(&self, raw: &str) -> Result<Value, Error> {
        let value = match self.kind {
            Kind::Switch | Kind::OptionalPath => None,
            Kind::Text => Some(Value::Text(raw.to_string())),
            Kind::OneOf(words) => words.contains(&raw).then(|| Value::Text(raw.to_string())),
            Kind::Uint(min, max) => raw
                .parse()
                .ok()
                .filter(|n| (min..=max).contains(n))
                .map(Value::Uint),
            Kind::UintRange(min, max) => raw.split_once(':').and_then(|(lo, hi)| {
                let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
                (min <= lo && lo <= hi && hi <= max).then_some(Value::UintRange(lo, hi))
            }),
            Kind::Real(min, max, open) => raw
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x <= max && (*x > min || (!open && *x == min)))
                .map(|x| Value::Real(x + 0.0)), // `-0 + 0` is `+0`
        };
        value.ok_or_else(|| Error(format!("{} expects {}, got {raw:?}", self.name, self.kind)))
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Switch => f.write_str("no value"),
            Self::OptionalPath => f.write_str("a path after ="),
            Self::Text => f.write_str("a value"),
            Self::OneOf(words) => write!(f, "one of {}", words.join("|")),
            Self::Uint(0, u64::MAX) => f.write_str("an unsigned integer"),
            Self::Uint(min, u64::MAX) => write!(f, "an unsigned integer >= {min}"),
            Self::Uint(min, max) => write!(f, "an unsigned integer in [{min}, {max}]"),
            Self::UintRange(min, max) => write!(f, "lo:hi with {min} <= lo <= hi <= {max}"),
            Self::Real(min, max, open) if max == f64::MAX => {
                write!(f, "a finite number {} {min}", if open { ">" } else { ">=" })
            }
            Self::Real(min, max, open) => {
                write!(
                    f,
                    "a number in {}{min}, {max}]",
                    if open { '(' } else { '[' }
                )
            }
        }
    }
}

/// A command line that breaks its flag table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A checked value: `Bare` for a switch or a bare optional path, the
/// path of `--flag=path` as `Text`.
#[derive(Debug)]
enum Value {
    Bare,
    Text(String),
    Uint(u64),
    UintRange(u64, u64),
    Real(f64),
}

/// A command line checked against its flag table, with every absent
/// flag that has a default filled in.
#[derive(Debug)]
pub struct Args {
    /// `(flag, value, given on the command line)`.
    values: Vec<(&'static str, Value, bool)>,
}

impl Args {
    /// Checks `argv` (the arguments after the program or command name)
    /// against `table`.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the first offending flag.
    pub fn parse(table: &'static [Flag], argv: &[String]) -> Result<Self, Error> {
        let mut args = Self { values: Vec::new() };
        let mut tokens = argv.iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                return Err(Error(format!(
                    "unexpected argument {tok} (flags start with --)"
                )));
            }
            let row = |name: &str| table.iter().find(|f| f.name == name);
            let (flag, inline) = match row(tok) {
                Some(flag) => (flag, None),
                None => tok
                    .split_once('=')
                    .and_then(|(name, path)| Some((row(name)?, Some(path))))
                    .filter(|(flag, _)| flag.kind == Kind::OptionalPath)
                    .ok_or_else(|| Error(format!("unknown flag {tok}")))?,
            };
            if args.given(flag.name) {
                return Err(Error(format!("{} given more than once", flag.name)));
            }
            let value = match (flag.kind, inline) {
                (Kind::OptionalPath, Some("")) => {
                    return Err(Error(format!(
                        "empty path in {0}= (use bare {0} or {0}=<file>)",
                        flag.name
                    )))
                }
                (Kind::OptionalPath, Some(path)) => Value::Text(path.to_string()),
                (Kind::Switch | Kind::OptionalPath, None) => Value::Bare,
                _ => match tokens.next() {
                    Some(raw) if !raw.starts_with("--") => flag.read(raw)?,
                    _ => return Err(Error(format!("missing value for {}", flag.name))),
                },
            };
            args.values.push((flag.name, value, true));
        }
        for flag in table {
            if !args.given(flag.name) {
                if let Some(default) = flag.default {
                    args.values.push((flag.name, flag.read(default)?, false));
                }
            } else if !flag.requires.is_empty() && !flag.requires.iter().any(|r| args.given(r)) {
                let requires = flag.requires.join(" or ");
                return Err(Error(format!("{} requires {requires}", flag.name)));
            }
        }
        Ok(args)
    }

    fn value(&self, name: &str) -> Option<&Value> {
        let entry = self.values.iter().find(|(n, _, _)| *n == name);
        entry.map(|(_, value, _)| value)
    }

    /// Whether `name` (a switch, say) was given on the command line; a
    /// default does not count.
    pub fn given(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _, given)| *n == name && *given)
    }

    /// An optional-path flag: `None` when absent, `Some(None)` for the
    /// bare form, `Some(Some(path))` for `--flag=path`.
    pub fn optional(&self, name: &str) -> Option<Option<&str>> {
        self.value(name).map(|_| self.text(name))
    }

    /// A text or one-of flag's value, or its default.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    /// A text flag the command cannot run without.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the flag is absent and has no default.
    pub fn required(&self, name: &str) -> Result<&str, Error> {
        self.text(name)
            .ok_or_else(|| Error(format!("missing {name} <value>")))
    }

    /// An unsigned-integer flag's value or default, if either exists.
    pub fn opt_uint(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            Value::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// A `lo:hi` flag's pair or default, if either exists.
    pub fn uint_range(&self, name: &str) -> Option<(u64, u64)> {
        match self.value(name)? {
            Value::UintRange(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }
    }

    /// A real flag's value or default, if either exists.
    pub fn opt_real(&self, name: &str) -> Option<f64> {
        match self.value(name)? {
            Value::Real(x) => Some(*x),
            _ => None,
        }
    }

    /// An unsigned-integer flag whose table row has a default.
    ///
    /// # Panics
    ///
    /// Panics when the row has none and the flag is absent: a table bug.
    pub fn uint(&self, name: &str) -> u64 {
        self.opt_uint(name).expect("flag table gives a default")
    }

    /// A real flag whose table row has a default.
    ///
    /// # Panics
    ///
    /// Panics when the row has none and the flag is absent: a table bug.
    pub fn real(&self, name: &str) -> f64 {
        self.opt_real(name).expect("flag table gives a default")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::switch("--chaos").requires(&["--fleet", "--workload"]),
        Flag::new("--metrics", Kind::OptionalPath),
        Flag::text("--input"),
        Flag::new("--smem", Kind::OneOf(&["auto", "dense"])).default("auto"),
        Flag::uint("--k", 0, 100).default("10"),
        Flag::new("--fleet", Kind::UintRange(1, 8)),
        Flag::positive("--workload", f64::MAX),
        Flag::real("--gap", 0.0, 10.0).default("5"),
    ];

    fn parse(line: &str) -> Result<Args, Error> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(TABLE, &argv)
    }

    fn err(line: &str) -> String {
        parse(line).expect_err(line).to_string()
    }

    #[test]
    fn values_and_defaults_read_typed() {
        let args = parse("--input a.mtx --k 3 --fleet 2:4 --metrics=m.json --gap -0").unwrap();
        assert_eq!(args.required("--input"), Ok("a.mtx"));
        assert_eq!(args.uint("--k"), 3);
        assert_eq!(args.uint_range("--fleet"), Some((2, 4)));
        assert_eq!(args.optional("--metrics"), Some(Some("m.json")));
        assert_eq!(args.real("--gap").to_bits(), 0.0f64.to_bits());
        assert_eq!(args.text("--smem"), Some("auto"));
        assert!(!args.given("--smem") && args.given("--k"));
        assert_eq!(args.opt_real("--workload"), None);
        assert!(!args.given("--chaos"));
        assert_eq!(
            parse("--metrics").unwrap().optional("--metrics"),
            Some(None)
        );
    }

    #[test]
    fn every_rule_is_a_typed_error() {
        assert_eq!(err("--kk 3"), "unknown flag --kk");
        assert_eq!(err("--input=a.mtx"), "unknown flag --input=a.mtx");
        assert_eq!(
            err("stray"),
            "unexpected argument stray (flags start with --)"
        );
        assert_eq!(err("--k"), "missing value for --k");
        assert_eq!(err("--input --k 3"), "missing value for --input");
        assert_eq!(err("--k 3 --k 4"), "--k given more than once");
        assert_eq!(err("--metrics --metrics"), "--metrics given more than once");
        assert!(err("--metrics=").starts_with("empty path in --metrics="));
        assert!(err("--k abc").starts_with("--k expects an unsigned integer in [0, 100]"));
        assert!(err("--k 101").starts_with("--k expects"));
        assert!(err("--smem hash").starts_with("--smem expects one of auto|dense"));
        assert!(err("--fleet 3:2").starts_with("--fleet expects lo:hi"));
        assert!(err("--fleet 0:2").starts_with("--fleet expects"));
        for bad in ["0", "-1", "nan", "inf", "1e309", "x"] {
            assert!(err(&format!("--workload {bad}")).starts_with("--workload expects"));
        }
        assert!(err("--gap 10.5").starts_with("--gap expects a number in [0, 10]"));
        assert_eq!(err("--chaos"), "--chaos requires --fleet or --workload");
        assert!(parse("--chaos --workload 1").is_ok());
    }

    #[test]
    fn a_default_outside_its_domain_is_an_error() {
        const BROKEN: &[Flag] = &[Flag::uint("--k", 1, 8).default("9")];
        assert!(Args::parse(BROKEN, &[]).is_err());
    }
}
