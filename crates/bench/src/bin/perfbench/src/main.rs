//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload: it generates its inputs from
//! `--seed`, repeats the timed phase on fresh engines for at least
//! `--reps` passes and for about `--seconds` seconds (`host_norm_s` is
//! the median pass), sets up again before every pass (`setup_s` is the
//! median set-up), checks answers against an oracle, and prints every
//! metric with its unit. Host times are the main thread's CPU time,
//! which does all the work, rescaled to a reference machine speed by a
//! low-priority sampler thread that shares its CPU (see `speed.rs`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1`
//! an extra traced pass follows and the per-layer metrics are reported
//! instead of the end-to-end ones.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/perfbench/Cargo.toml -- \
//!     --workload <knn_graph|serve_steady|serve_cache_churn|serve_ingest|all> --seed <n> \
//!     [--seconds 28] [--reps 3] [--trace 0|1] [--json out.json] [--trace-out trace.json]
//! ```
//!
//! See this package's `README.md` for the metric definitions.

mod gen;
mod ingest;
mod knn;
mod report;
mod serving;
mod spans;
mod speed;
#[cfg(test)]
mod tests;

use report::{cpu_timed, median, peak_rss_mib, Metrics, Outcome};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

/// Host threads every simulated device runs its grid on. One: all the
/// measured work stays on the main thread, so its CPU clock times it,
/// and no launch waits for a second virtual CPU. With two, every launch
/// spawns and joins a worker; on a 2-vCPU machine that made serving
/// passes 38 % slower as soon as one other process ran, against 4 %
/// with one thread.
pub const HOST_THREADS: usize = 1;

/// Set-ups timed before each pass; `setup_s` is the median of all of
/// them. A set-up takes milliseconds and the machine's speed drifts
/// over seconds, so set-ups are spread over the whole run, as passes
/// are, rather than timed back to back at its start.
const SETUPS_PER_PASS: usize = 5;

/// Neighbors per query, on every workload.
pub const K: usize = 10;

/// Every `CHECK_EVERY`-th answer is checked against an oracle.
pub const CHECK_EVERY: usize = 16;

pub const WORKLOADS: [&str; 4] = [
    "knn_graph",
    "serve_steady",
    "serve_cache_churn",
    "serve_ingest",
];

/// The simulated device every workload runs on.
pub fn device() -> gpu_sim::Device {
    gpu_sim::Device::volta().with_host_threads(HOST_THREADS)
}

/// One benchmark workload. The harness ([`run`]) owns timing,
/// repetition, determinism and tracing; a workload owns its inputs,
/// its timed pass, its oracle and its metrics.
pub trait Workload {
    type Inputs;
    type Pass;

    /// Generates and prepares everything the timed pass needs from `seed`.
    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Self::Inputs, String>;

    /// Sizes and fingerprints of the inputs, as bench.v1 labels.
    fn labels(&self, inputs: &Self::Inputs) -> Vec<(String, String)>;

    /// One pass of the timed phase on fresh engines.
    fn pass(&self, inputs: &Self::Inputs, spans: &mut Spans) -> Result<Self::Pass, String>;

    /// Operations one pass attempts (query rows or requests offered).
    fn ops(&self, pass: &Self::Pass) -> u64;

    /// Hash of every answer byte and every simulated number of the pass.
    fn digest(&self, pass: &Self::Pass) -> u64;

    /// Checks every 16th answer against the workload's oracle and
    /// returns how many were wrong.
    fn check(&self, inputs: &Self::Inputs, pass: &Self::Pass) -> Result<u64, String>;

    /// Simulated end-to-end metrics and the untraced per-layer metrics.
    fn metrics(&self, inputs: &Self::Inputs, pass: &Self::Pass, m: &mut Metrics);

    /// Re-drives the layers below the traced `pass` and emits the
    /// `[traced]` per-layer metrics.
    fn traced(
        &self,
        inputs: &Self::Inputs,
        pass: &Self::Pass,
        spans: &mut Spans,
        m: &mut Metrics,
    ) -> Result<(), String>;

    /// Damages one answer, so the self-test can see the oracle notice.
    #[cfg(test)]
    fn corrupt(&self, pass: &mut Self::Pass);
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub trace: bool,
}

/// Host CPU seconds of each set-up and wall seconds of the dataset
/// generation within it.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
}

impl SetupTimes {
    fn set_up<W: Workload>(&mut self, w: &W, seed: u64) -> Result<W::Inputs, String> {
        let mut spans = Spans::new(true);
        let (inputs, cpu_s) = cpu_timed(|| w.setup(seed, &mut spans))?;
        self.setup_s.push(cpu_s);
        self.generate_s.push(spans.total("datasets.generate"));
        inputs
    }
}

/// Runs one workload end to end and collects its metrics.
pub fn run<W: Workload>(name: &'static str, w: &W, o: &Options) -> Result<Outcome, String> {
    let sampler = speed::Sampler::start()?;
    let mut setups = SetupTimes::default();
    let inputs = setups.set_up(w, o.seed)?;

    // Each pass's CPU seconds, and the mean CPU seconds of the sampler's
    // chunks during it.
    let (mut host_cpu, mut chunk_s) = (Vec::new(), Vec::new());
    let mut first: Option<(W::Pass, u64)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut last_wall = 0.0;
    // Past `--reps`, a pass starts only if it is expected to end (by the
    // last one's length) before half of it would overrun `--seconds`.
    while host_cpu.len() < o.reps.max(1)
        || start.elapsed().as_secs_f64() + last_wall / 2.0 < o.seconds
    {
        let t = Instant::now();
        for _ in 0..SETUPS_PER_PASS {
            drop(setups.set_up(w, o.seed)?);
        }
        let before = sampler.read();
        let (pass, cpu_s) = cpu_timed(|| w.pass(&inputs, &mut Spans::new(false)))?;
        let pass = pass?;
        let after = sampler.read();
        host_cpu.push(cpu_s);
        chunk_s.push(
            after
                .chunk_s_since(before)
                .or_else(|| after.chunk_s_since(Default::default()))
                .expect("the sampler ran its first chunks before any pass"),
        );
        last_wall = t.elapsed().as_secs_f64();
        attempted += w.ops(&pass);
        let digest = w.digest(&pass);
        match &first {
            None => first = Some((pass, digest)),
            Some((_, d0)) if *d0 != digest => {
                eprintln!("perfbench: pass {} differs from pass 1", host_cpu.len());
                failed += w.ops(&pass);
            }
            Some(_) => {}
        }
    }
    sampler.finish()?;
    let (pass, digest) = first.expect("at least one pass");
    failed += w.check(&inputs, &pass)?;

    let mut m = Metrics::default();
    let host_norm: Vec<f64> = host_cpu
        .iter()
        .zip(&chunk_s)
        .map(|(&cpu, &chunk)| speed::normalised(cpu, chunk))
        .collect();
    let host_norm_s = median(&host_norm);
    let host_cpu_s = median(&host_cpu);
    let spread = host_norm.iter().cloned().fold(f64::MIN, f64::max)
        - host_norm.iter().cloned().fold(f64::MAX, f64::min);
    // Set-ups last milliseconds, too short for a reading of their own:
    // they are rescaled by the passes' median speed.
    m.set(
        "setup_s",
        speed::normalised(median(&setups.setup_s), median(&chunk_s)),
    );
    m.set("host_norm_s", host_norm_s);
    m.set("datasets.generate_host_s", median(&setups.generate_s));
    m.set("bench.host_cpu_s", host_cpu_s);
    m.set("bench.probe_s", median(&chunk_s));
    m.set("bench.host_norm_s_spread", spread / host_norm_s);
    m.set(
        "bench.host_us_per_op",
        host_norm_s * 1e6 / w.ops(&pass) as f64,
    );
    w.metrics(&inputs, &pass, &mut m);

    let trace = if o.trace {
        let mut spans = Spans::new(true);
        let (traced, traced_host) =
            cpu_timed(|| spans.span("perfbench.pass", None, |s| w.pass(&inputs, s)))?;
        let traced = traced?;
        attempted += w.ops(&traced);
        if w.digest(&traced) != digest {
            eprintln!("perfbench: the traced pass differs from the untraced ones");
            failed += w.ops(&traced);
        }
        m.set("bench.trace_overhead_frac", traced_host / host_cpu_s - 1.0);
        w.traced(&inputs, &traced, &mut spans, &mut m)?;
        m.set("bench.trace_spans", spans.len() as f64);
        let json = spans.chrome_trace();
        bench::validate_chrome_trace(&json)?;
        Some(json)
    } else {
        None
    };
    m.set("peak_rss_mb", peak_rss_mib());
    Ok(Outcome {
        workload: name,
        seed: o.seed,
        reps: host_cpu.len(),
        attempted,
        failed,
        metrics: m,
        labels: w.labels(&inputs),
        trace,
    })
}

/// Runs the named workload; `smoke` shrinks every input for tests.
pub fn run_named(name: &str, smoke: bool, o: &Options) -> Result<Outcome, String> {
    match name {
        "knn_graph" => run("knn_graph", &knn::KnnGraph { smoke }, o),
        "serve_steady" => run("serve_steady", &serving::Serving::steady(smoke), o),
        "serve_cache_churn" => run("serve_cache_churn", &serving::Serving::churn(smoke), o),
        "serve_ingest" => run("serve_ingest", &ingest::Ingest { smoke }, o),
        other => Err(format!("unknown workload {other:?}")),
    }
}

struct Args {
    workload: String,
    options: Options,
    smoke: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        options: Options {
            seed: 1,
            reps: 3,
            seconds: 0.0,
            trace: false,
        },
        smoke: false,
        json: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.options.seed = value.parse().map_err(|_| bad())?,
            "--reps" => a.options.reps = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.options.seconds = value.parse().map_err(|_| bad())?;
                if !(a.options.seconds >= 0.0 && a.options.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => a.json = Some(value.clone()),
            "--trace-out" => a.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {WORKLOADS:?} or all",
            a.workload
        ));
    }
    if a.options.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    Ok(a)
}

/// `out.json` → `out.<workload>.json`, for `--workload all`.
fn per_workload_path(path: &str, workload: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{workload}.{ext}"),
        _ => format!("{path}.{workload}"),
    }
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let o = &a.options;
    let mut ok = true;
    for w in WORKLOADS {
        let mut args: Vec<String> = [
            ("--workload", w.to_string()),
            ("--seed", o.seed.to_string()),
            ("--reps", o.reps.to_string()),
            ("--seconds", o.seconds.to_string()),
            ("--trace", u8::from(o.trace).to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect();
        if a.smoke {
            args.push("--smoke".to_string());
        }
        for (flag, path) in [("--json", &a.json), ("--trace-out", &a.trace_out)] {
            if let Some(p) = path {
                args.extend([flag.to_string(), per_workload_path(p, w)]);
            }
        }
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulator reads this variable in place of `with_host_threads`;
    // any other value would silently change what host time measures.
    if let Ok(v) = std::env::var("GPU_SIM_HOST_THREADS") {
        if v.trim() != HOST_THREADS.to_string() {
            eprintln!(
                "perfbench: GPU_SIM_HOST_THREADS={v:?}; unset it or set it to {HOST_THREADS}"
            );
            return ExitCode::from(2);
        }
    }
    if a.workload == "all" {
        return run_all(&a);
    }
    let outcome = match run_named(&a.workload, a.smoke, &a.options) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.listing());
    if let Some(path) = &a.json {
        outcome.bench_report().write(path);
    }
    if let (Some(path), Some(trace)) = (&a.trace_out, &outcome.trace) {
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.result_line());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
