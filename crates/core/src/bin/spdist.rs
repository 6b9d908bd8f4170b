//! `spdist` — command-line front end for the sparse distance primitive.
//!
//! Operates on Matrix Market (`.mtx`) files:
//!
//! ```text
//! spdist knn      --input data.mtx --metric cosine --k 10 [--output out.tsv]
//! spdist knn      --input data.mtx --index ivf --nlist 32 --nprobe 4 --k 10
//! spdist pairwise --input a.mtx [--index b.mtx] --metric manhattan [--output d.mtx]
//! spdist serve    --input index.mtx --queries q.mtx --k 10 [--max-batch 8 ...]
//! spdist serve    --input index.mtx --queries q.mtx --index ivf --nprobe 4
//! spdist serve    --input base.mtx --queries q.mtx --ingest wal.tsv --compact-threshold 64
//! spdist wal      --input data.mtx --base-rows 100 --output wal.tsv [--rebuilt r.mtx]
//! spdist info     --input data.mtx
//! spdist gen      --profile movielens --scale 0.01 --output data.mtx [--seed 1]
//! spdist profile  --input data.mtx [--replica out.mtx --seed 2]
//! ```
//!
//! `serve` replays the query rows as a simulated request stream against
//! a prepared-index cache and micro-batching engine: `--arrival-gap-us`
//! spaces arrivals, `--max-batch`/`--max-wait-us` bound each batch,
//! `--max-queue` rejects arrivals past that backlog,
//! `--cache-budget-mb` caps the prepared-index cache, and
//! `--per-query-prepare` disables the cache (the baseline the cache is
//! measured against). Answers are byte-identical to `spdist knn` on the
//! same operands; throughput and latency percentiles go to stderr.
//!
//! Serving under overload (DESIGN §14): `--workload <qps>` replaces the
//! fixed arrival gap with a deterministic generated stream (Zipf row
//! popularity, diurnal rate, seeded by `--seed`, lasting
//! `--duration-ms`); `--admit-qps <r>`/`--admit-burst <b>` arm a
//! token-bucket admission controller and
//! `--degrade-watermark`/`--shed-watermark` set the backlog depths at
//! which batches are marked degraded (counted and span-marked; exact
//! batches run unchanged, IVF batches halve `--nprobe`) or arrivals
//! shed outright. `--fleet min:max` serves through an autoscaled
//! replica fleet (window length `--window-ms`) and reports scale
//! events; adding `--chaos` runs a chaos drill instead — the same
//! traffic with and without a seeded mid-run fault plan — prints the
//! recovery summary, and exits 4 if any surviving request diverges by
//! a byte.
//!
//! Serving telemetry (DESIGN §13): `--metrics` prints a
//! Prometheus-style snapshot of the engine's deterministic metrics
//! registry to stderr, `--metrics=out.json` writes the self-validating
//! `metrics.v1` document instead; `--trace-requests[=trace.json]`
//! summarizes (or exports as chrome://tracing JSON) the per-request
//! spans — enqueue → batch-admit → cache hit/miss → prepare →
//! per-shard launch → retry/degrade → merge → reply. `--slo-p99-us <f>`
//! sets a p99 latency SLO on the served dataset; breach counts and
//! error-budget burn land in the summary and the snapshot.
//!
//! Mutable datasets (DESIGN §16): `--ingest wal.tsv` on `serve` replays
//! a `wal.v1` write-ahead log (checksummed insert/delete records, see
//! `spdist wal`) into the base index before the query stream — every
//! write lands at t=0, so each query is answered against the fully
//! applied log, exactly as if the index had been rebuilt from scratch.
//! `--compact-threshold <n>` arms background compaction (0 = off):
//! once that many fresh rows + tombstones accumulate, the live rows are
//! re-prepared as the next generation off the serving lane and swapped
//! in atomically. `--manifest <path>` writes the generation-stamped
//! `manifest.v1` line after the replay. A torn or corrupt WAL is an
//! input error (exit 3), never a partial apply; a log that names a base
//! (by fingerprint) other than `--input` is a config error (exit 2).
//! `--ingest` serves the exact tier on a single engine (no
//! `--fleet`/`--chaos`/`--index ivf`).
//! Served indices are live-rank positions: row `r` of the rebuilt
//! matrix (base minus deletes, then surviving inserts, in id order).
//!
//! `spdist wal` derives a WAL fixture from a matrix: the first
//! `--base-rows` rows form the base (written with `--base`, named in
//! the log's header by its fingerprint), every later row becomes an
//! insert, and every `--delete-every`-th operation
//! deletes a deterministically chosen live row. `--prefix <n>` keeps
//! only the first `n` records; `--rebuilt <path>` writes the matrix the
//! log rebuilds to — the oracle the ingest-smoke CI job byte-compares
//! mutable serving against.
//!
//! Approximate tier (DESIGN §15): `--index ivf` on `knn` and `serve`
//! routes candidate generation through a seeded IVF index —
//! `--nlist <n>` posting lists (0 or omitted = `ceil(sqrt(rows))`),
//! `--nprobe <p>` lists probed per query — with every shortlist
//! reranked by the exact kernels, so returned distances are always
//! exact and `--nprobe` = nlist reproduces the exact path byte for
//! byte, on one device or on `--devices <n>`. On `knn`, the literal
//! values `ivf`/`exact` select the tier;
//! any other `--index` value remains the index-matrix path.
//!
//! Each command checks its command line against one flag table
//! (`spdist/flags.rs`, parsed by [`sparse_dist::cli`]) before it runs.
//! Unknown, misspelled, repeated and valueless flags, values outside a
//! flag's domain (malformed, out of range, not finite, not a listed
//! choice), and flags given without a flag they require are config
//! errors (exit 2) — never silently ignored. The requirements:
//!
//! - `knn`/`serve`: `--nlist` and `--nprobe` require `--index` (and a
//!   value other than `ivf` is still refused);
//! - `serve`: `--admit-burst` requires `--admit-qps`, `--duration-ms`
//!   requires `--workload`, `--seed` requires `--workload` or
//!   `--chaos`, `--window-ms` and `--chaos` require `--fleet`, and
//!   `--compact-threshold` and `--manifest` require `--ingest`;
//! - `profile`: `--seed` requires `--replica`.
//!
//! Common flags: `--metric <name>` (any Table 1 distance plus
//! `braycurtis`; see `Distance::from_name`), `--p <f>` (Minkowski
//! degree), `--strategy hybrid|naive|esc`, `--smem auto|dense|hash|bloom`,
//! `--device volta|ampere`, `--host-threads <m>` (execute each
//! launch's blocks on `m` ≤ 64 host threads; results are bit-identical
//! to serial, and `GPU_SIM_HOST_THREADS` overrides the flag),
//! `--devices <n>` (knn only: shard index slabs round-robin across `n`
//! ≤ 1024 simulated devices, merging per-slab top-k), `--profile[=trace.json]` (knn/pairwise:
//! enable the per-range profiler, print a hot-spot report per launch,
//! and optionally export a chrome://tracing file loadable in Perfetto).
//!
//! Resilience flags (knn/pairwise): `--resilience` enables the retry +
//! fallback-cascade policy and prints its report to stderr;
//! `--retries <n>` sets the transient-retry budget (implies
//! `--resilience`); `--no-fallback` keeps retries but disables the
//! strategy-degradation cascade.
//!
//! Failures are typed and mapped to exit codes so scripts can
//! distinguish them: bad flags or unknown names exit 2, unreadable or
//! unwritable files exit 3, and kernel/launch failures (including an
//! exhausted fallback cascade) exit 4.

#[path = "spdist/flags.rs"]
mod flags;

use semiring::{Distance, DistanceParams};
use sparse::{read_matrix_market, write_matrix_market, CsrMatrix, DegreeStats};
use sparse_dist::cli::Args;
use sparse_dist::{
    chaos_drill, chrome_trace, fingerprint, fingerprint_with_generation, kneighbors_graph,
    replay_rows, request_chrome_trace, AdmissionConfig, ChaosPlan, Device, FaultPlan, Fleet,
    FleetConfig, GraphMode, IndexMode, IvfIndex, IvfParams, LaunchStats, Manifest, MetricsRegistry,
    MultiDevice, MutableDataset, NearestNeighbors, PairwiseOptions, ResiliencePolicy,
    ResilienceReport, ServeConfig, ServeEngine, ServeReport, SloBudget, SmemMode, Strategy,
    TimedRecord, Wal, Workload,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

/// A typed CLI failure, carrying its exit code.
enum CliError {
    /// Unusable command line: unknown command/metric/strategy, bad or
    /// missing flag values. Exit code 2.
    Config(String),
    /// Unreadable, unparsable, or unwritable files. Exit code 3.
    Input(String),
    /// The simulated device rejected the work: kernel errors, sanitizer
    /// findings, or an exhausted fallback cascade. Exit code 4.
    Launch(String),
}

impl CliError {
    fn config(msg: impl Into<String>) -> Self {
        Self::Config(msg.into())
    }

    fn input(msg: impl Into<String>) -> Self {
        Self::Input(msg.into())
    }

    fn launch(msg: impl Into<String>) -> Self {
        Self::Launch(msg.into())
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            Self::Config(_) => ExitCode::from(2),
            Self::Input(_) => ExitCode::from(3),
            Self::Launch(_) => ExitCode::from(4),
        }
    }
}

impl From<sparse_dist::cli::Error> for CliError {
    fn from(e: sparse_dist::cli::Error) -> Self {
        Self::config(e.to_string())
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(m) => write!(f, "config error: {m}"),
            Self::Input(m) => write!(f, "input error: {m}"),
            Self::Launch(m) => write!(f, "launch error: {m}"),
        }
    }
}

/// Prints each profiled launch's hot-spot report and, when a trace path
/// was requested, writes the chrome://tracing JSON for all launches.
fn emit_profiles(launches: &[LaunchStats], trace_path: Option<&str>) -> Result<(), CliError> {
    for stats in launches {
        if let Some(profile) = &stats.profile {
            eprintln!("profile: {} ({} blocks)", stats.name, stats.config.blocks);
            eprintln!("{profile}");
        }
    }
    if let Some(path) = trace_path {
        let json = chrome_trace(launches);
        std::fs::write(path, &json)
            .map_err(|e| CliError::input(format!("cannot write {path}: {e}")))?;
        eprintln!(
            "spdist: wrote chrome-trace with {} profiled launches to {path} \
             (load in Perfetto / chrome://tracing)",
            launches.iter().filter(|l| l.profile.is_some()).count()
        );
    }
    Ok(())
}

/// Renders resilience reports to stderr (one per distance tile).
fn emit_resilience(reports: &[ResilienceReport]) {
    for r in reports {
        eprintln!(
            "resilience: {} attempt(s), final plan {}/{:?}{}{}",
            r.attempts,
            r.final_strategy.name(),
            r.final_smem,
            if r.downgraded { " (downgraded)" } else { "" },
            if r.backoff_seconds > 0.0 {
                format!(", {:.1} us simulated backoff", r.backoff_seconds * 1e6)
            } else {
                String::new()
            },
        );
        for fault in &r.faults_absorbed {
            eprintln!("  absorbed: {fault}");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!(
            "usage: spdist <knn|pairwise|serve|wal|info|gen|profile> --input <file.mtx> [options]"
        );
        return ExitCode::from(2);
    };
    let Some((_, table)) = flags::COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        eprintln!(
            "spdist: {}",
            CliError::config(format!("unknown command {cmd}"))
        );
        return ExitCode::from(2);
    };
    let result = Args::parse(table, &argv[1..])
        .map_err(CliError::from)
        .and_then(|args| match cmd.as_str() {
            "knn" => cmd_knn(&args),
            "pairwise" => cmd_pairwise(&args),
            "serve" => cmd_serve(&args),
            "wal" => cmd_wal(&args),
            "info" => cmd_info(&args),
            "gen" => cmd_gen(&args),
            "profile" => cmd_profile(&args),
            other => Err(CliError::config(format!("unknown command {other}"))),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spdist: {e}");
            e.exit_code()
        }
    }
}

fn load(path: &str) -> Result<CsrMatrix<f32>, CliError> {
    let f = File::open(path).map_err(|e| CliError::input(format!("cannot open {path}: {e}")))?;
    read_matrix_market(f).map_err(|e| CliError::input(format!("cannot parse {path}: {e}")))
}

/// Parsed resilience flags: the policy for the kernels plus whether the
/// report should be rendered.
fn parse_resilience(args: &Args) -> (Option<ResiliencePolicy>, bool) {
    let show = args.given("--resilience");
    let retries = args.opt_uint("--retries");
    let no_fallback = args.given("--no-fallback");
    if !show && retries.is_none() && !no_fallback {
        return (None, false);
    }
    let mut policy = match retries {
        // The flag table bounds the budget to `u32`.
        Some(r) => ResiliencePolicy::with_retries(r as u32),
        None => ResiliencePolicy::default(),
    };
    if no_fallback {
        policy = policy.without_fallback();
    }
    (Some(policy), show)
}

fn parse_common(
    args: &Args,
) -> Result<(Distance, DistanceParams, PairwiseOptions, Device, bool), CliError> {
    let metric = args.required("--metric")?;
    let distance = Distance::from_name(metric)
        .ok_or_else(|| CliError::config(format!("unknown metric {metric}")))?;
    let params = DistanceParams {
        minkowski_p: args.real("--p"),
    };
    // The flag table admits only the listed words; each match's last
    // arm is the table default.
    let strategy = match args.text("--strategy") {
        Some("naive") => Strategy::NaiveCsr,
        Some("esc") => Strategy::ExpandSortContract,
        _ => Strategy::HybridCooSpmv,
    };
    let smem_mode = match args.text("--smem") {
        Some("dense") => SmemMode::Dense,
        Some("hash") => SmemMode::Hash,
        Some("bloom") => SmemMode::Bloom,
        _ => SmemMode::Auto,
    };
    let device = match args.text("--device") {
        Some("ampere" | "a100") => Device::ampere(),
        _ => Device::volta(),
    };
    // Same CI hook the fault-matrix tests honor: run every launch under
    // the requested sanitizer mode (the chaos-smoke job sets `fail`).
    let device = match std::env::var("RESILIENCE_SANITIZER").as_deref() {
        Ok("fail") => device.with_sanitizer(sparse_dist::SanitizerMode::Fail),
        Ok("warn") => device.with_sanitizer(sparse_dist::SanitizerMode::Warn),
        _ => device,
    };
    let device = if args.optional("--profile").is_some() {
        device.with_profiler(true)
    } else {
        device
    };
    let device = match args.opt_uint("--host-threads") {
        Some(m) => device.with_host_threads(m as usize),
        None => device,
    };
    let (resilience, show_resilience) = parse_resilience(args);
    Ok((
        distance,
        params,
        PairwiseOptions {
            strategy,
            smem_mode,
            resilience,
        },
        device,
        show_resilience,
    ))
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let name = args.required("--profile")?;
    let profile = match name.to_ascii_lowercase().as_str() {
        "movielens" => datasets::DatasetProfile::movielens(),
        "edgar" | "sec-edgar" => datasets::DatasetProfile::sec_edgar(),
        "scrna" => datasets::DatasetProfile::scrna(),
        "nytimes" | "nyt" => datasets::DatasetProfile::nytimes_bow(),
        other => {
            return Err(CliError::config(format!(
                "unknown profile {other} (movielens|edgar|scrna|nytimes)"
            )))
        }
    };
    let m = profile
        .scaled(args.real("--scale"))
        .generate(args.uint("--seed"));
    let out = args.required("--output")?;
    let f = File::create(out).map_err(|e| CliError::input(format!("cannot create {out}: {e}")))?;
    write_matrix_market(&m, BufWriter::new(f))
        .map_err(|e| CliError::input(format!("write failed: {e}")))?;
    eprintln!(
        "spdist: wrote {} ({} x {}, {} nonzeros, density {:.4}%)",
        out,
        m.rows(),
        m.cols(),
        m.nnz(),
        m.density() * 100.0
    );
    Ok(())
}

/// Prints a line to stdout, exiting quietly when the consumer (e.g.
/// `| head`) has closed the pipe.
fn out(line: String) {
    use std::io::Write as _;
    if writeln!(std::io::stdout(), "{line}").is_err() {
        std::process::exit(0);
    }
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let m = load(args.required("--input")?)?;
    let p = datasets::fit_profile(&m, "fitted", datasets::ValueDist::TfIdf);
    out("fitted profile:".into());
    out(format!("  shape:     {} x {}", p.rows, p.cols));
    out(format!(
        "  degrees:   lognormal(mu={:.3}, sigma={:.3}), clamp [{}, {}], p_empty={:.3}",
        p.degree.mu, p.degree.sigma, p.degree.min, p.degree.max, p.degree.p_empty
    ));
    out(format!("  col skew:  {:.2}", p.col_skew));
    if let Some(out) = args.text("--replica") {
        let replica = p.generate(args.uint("--seed"));
        let f =
            File::create(out).map_err(|e| CliError::input(format!("cannot create {out}: {e}")))?;
        write_matrix_market(&replica, BufWriter::new(f))
            .map_err(|e| CliError::input(format!("write failed: {e}")))?;
        eprintln!(
            "spdist: wrote shape-matched replica to {out} ({} nonzeros, density {:.4}%)",
            replica.nnz(),
            replica.density() * 100.0
        );
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let m = load(args.required("--input")?)?;
    let s = DegreeStats::of(&m);
    out(format!("shape:      {} x {}", s.rows, s.cols));
    out(format!("nonzeros:   {}", s.nnz));
    out(format!("density:    {:.6}%", s.density * 100.0));
    out(format!(
        "degrees:    min {} / mean {:.1} / max {}",
        s.min_degree, s.mean_degree, s.max_degree
    ));
    let cdf = sparse::degree_cdf(&m);
    out(format!(
        "degree cdf: p50={} p90={} p99={}",
        cdf[50], cdf[90], cdf[99]
    ));
    Ok(())
}

fn cmd_knn(args: &Args) -> Result<(), CliError> {
    let (distance, params, options, device, show_resilience) = parse_common(args)?;
    let query = load(args.required("--input")?)?;
    // `--index` doubles as the candidate-tier selector: the literal
    // values `ivf` / `exact` pick a tier over the self-index, anything
    // else is the historical index-matrix path.
    let (ivf_mode, index) = match args.text("--index") {
        Some("ivf") => (true, query.clone()),
        Some("exact") | None => (false, query.clone()),
        Some(p) => (false, load(p)?),
    };
    let (nlist, nprobe) = ivf_knobs(args, ivf_mode)?;
    let k = args.uint("--k") as usize;
    let devices = devices(args);
    let nn = NearestNeighbors::new(device.clone(), distance)
        .with_params(params)
        .with_options(options)
        .fit(index.clone());
    let result = if ivf_mode {
        let nlist = resolve_nlist(nlist, index.rows());
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist,
                nprobe,
                ..IvfParams::default()
            },
        )
        .map_err(|e| CliError::launch(format!("ivf fit failed: {e}")))?;
        let ans = if devices > 1 {
            let multi = MultiDevice::replicate(&device, devices);
            ivf.search_sharded(&multi, &query, k, nprobe)
        } else {
            ivf.search_with_nprobe(&query, k, nprobe)
        }
        .map_err(|e| CliError::launch(format!("ivf query failed: {e}")))?;
        eprintln!(
            "spdist: ivf tier: {} list(s), nprobe {} -> {} probe(s), \
             {} shortlist row(s) reranked exactly, fit {:.3} ms simulated",
            ivf.nlist(),
            ans.stats.nprobe,
            ans.stats.probes,
            ans.stats.shortlist_rows,
            ivf.fit_sim_seconds() * 1e3,
        );
        ans.knn
    } else if devices > 1 {
        let multi = MultiDevice::replicate(&device, devices);
        nn.kneighbors_sharded(&multi, &query, k)
            .map_err(|e| CliError::launch(format!("query failed: {e}")))?
    } else {
        nn.kneighbors(&query, k)
            .map_err(|e| CliError::launch(format!("query failed: {e}")))?
    };

    eprintln!(
        "spdist: {} queries x {} index rows, {} tiles on {} device(s), \
         {:.3} ms simulated GPU time",
        query.rows(),
        index.rows(),
        result.batches,
        result.devices,
        result.sim_seconds * 1e3
    );
    if show_resilience {
        emit_resilience(&result.resilience);
    }
    if let Some(trace) = args.optional("--profile") {
        emit_profiles(&result.launches, trace)?;
    }

    match args.text("--graph") {
        Some(mode) => {
            let gm = if mode == "distance" {
                GraphMode::Distance
            } else {
                GraphMode::Connectivity
            };
            let g = kneighbors_graph(&result, index.rows(), gm)
                .map_err(|e| CliError::launch(format!("graph build failed: {e}")))?;
            let out = args.text("--output").unwrap_or("knn_graph.mtx");
            let f = File::create(out)
                .map_err(|e| CliError::input(format!("cannot create {out}: {e}")))?;
            write_matrix_market(&g, BufWriter::new(f))
                .map_err(|e| CliError::input(format!("write failed: {e}")))?;
            eprintln!("spdist: wrote {} edges to {out}", g.nnz());
        }
        None => {
            let mut sink = output(args)?;
            for (q, (idx, dist)) in result.indices.iter().zip(&result.distances).enumerate() {
                let cols: Vec<String> = idx
                    .iter()
                    .zip(dist)
                    .map(|(i, d)| format!("{i}:{d:.6}"))
                    .collect();
                writeln!(sink, "{q}\t{}", cols.join("\t"))
                    .map_err(|e| CliError::input(format!("write failed: {e}")))?;
            }
        }
    }
    Ok(())
}

/// `--devices` (0 reads as 1; the flag table caps it at
/// [`sparse_dist::cli::MAX_DEVICES`]).
fn devices(args: &Args) -> usize {
    (args.uint("--devices") as usize).max(1)
}

/// Most requests a generated `--workload` stream may hold: the
/// generator materialises every arrival before serving starts.
const MAX_WORKLOAD_REQUESTS: f64 = 1e6;

/// `--nlist`/`--nprobe` for the IVF tier. `nlist` 0 means auto
/// (`ceil(sqrt(index rows))`); `nprobe` defaults to the [`IvfParams`]
/// default. The flag table makes both require `--index`; any `--index`
/// but `ivf` is still a config error here — misreading an
/// approximate-index knob as a no-op would silently change answers.
fn ivf_knobs(args: &Args, ivf: bool) -> Result<(usize, usize), CliError> {
    if !ivf {
        for knob in ["--nlist", "--nprobe"] {
            if args.given(knob) {
                return Err(CliError::config(format!("{knob} requires --index ivf")));
            }
        }
    }
    let nprobe = args
        .opt_uint("--nprobe")
        .map_or(IvfParams::default().nprobe, |n| n as usize);
    Ok((args.uint("--nlist") as usize, nprobe))
}

/// Auto `nlist` (the IVF sweet spot `ceil(sqrt(n))`) when the flag was
/// 0/omitted, clamped to the index size.
fn resolve_nlist(nlist: usize, index_rows: usize) -> usize {
    let n = if nlist == 0 {
        (index_rows as f64).sqrt().ceil() as usize
    } else {
        nlist
    };
    n.clamp(1, index_rows.max(1))
}

/// The serve admission flags as an [`AdmissionConfig`], or `None` when
/// none are present (admit everything, queue cliff only).
fn admission(args: &Args) -> Result<Option<AdmissionConfig>, CliError> {
    let mut admission = args
        .opt_real("--admit-qps")
        .map(|rate| AdmissionConfig::default().with_rate(rate, args.real("--admit-burst")));
    let degrade = args.opt_uint("--degrade-watermark");
    let shed = args.opt_uint("--shed-watermark");
    if degrade.is_some() || shed.is_some() {
        let degrade = degrade.map_or(usize::MAX, |d| d as usize);
        let shed = shed.map_or(usize::MAX, |s| s as usize);
        if degrade > shed {
            return Err(CliError::config(format!(
                "--degrade-watermark {degrade} must not exceed --shed-watermark {shed}"
            )));
        }
        admission = Some(admission.unwrap_or_default().with_watermarks(degrade, shed));
    }
    Ok(admission)
}

/// Where `--output` sends results: the named file, or stdout.
fn output(args: &Args) -> Result<Box<dyn Write>, CliError> {
    Ok(match args.text("--output") {
        Some(p) => {
            Box::new(BufWriter::new(File::create(p).map_err(|e| {
                CliError::input(format!("cannot create {p}: {e}"))
            })?))
        }
        None => Box::new(std::io::stdout().lock()),
    })
}

/// Writes served `id\tindex:distance...` rows to `--output` or stdout,
/// sorted by request id — shared by the engine and fleet serve paths.
fn write_responses<T: sparse::Real>(
    args: &Args,
    responses: &[sparse_dist::Response<T>],
) -> Result<(), CliError> {
    let mut responses: Vec<_> = responses.iter().collect();
    responses.sort_by_key(|r| r.id);
    let mut sink = output(args)?;
    for r in responses {
        let cols: Vec<String> = r
            .indices
            .iter()
            .zip(&r.distances)
            .map(|(i, d)| format!("{i}:{d:.6}"))
            .collect();
        writeln!(sink, "{}\t{}", r.id, cols.join("\t"))
            .map_err(|e| CliError::input(format!("write failed: {e}")))?;
    }
    Ok(())
}

/// The serve request stream: `--workload <qps>` generates deterministic
/// Zipf/diurnal traffic over the query rows; otherwise the query rows
/// replay once at a fixed `--arrival-gap-us`.
fn serve_requests<T: sparse::Real>(
    args: &Args,
    queries: &CsrMatrix<T>,
) -> Result<Vec<sparse_dist::Request<T>>, CliError> {
    match args.opt_real("--workload") {
        Some(qps) => {
            let duration_ms = args.real("--duration-ms");
            let seed = args.uint("--seed");
            let duration_s = duration_ms * 1e-3;
            let swell = 0.3;
            if qps * (1.0 + swell) * duration_s > MAX_WORKLOAD_REQUESTS {
                return Err(CliError::config(format!(
                    "--workload {qps} over --duration-ms {duration_ms} asks for more than \
                     {MAX_WORKLOAD_REQUESTS} requests"
                )));
            }
            let workload = Workload::steady(seed, qps, duration_s)
                .with_zipf(1.1)
                .with_diurnal(swell, duration_s / 2.0);
            Ok(workload.generate(std::slice::from_ref(queries)))
        }
        None => Ok(replay_rows(queries, args.real("--arrival-gap-us") * 1e-6)),
    }
}

/// Serves through the autoscaled replica fleet (`--fleet min:max`),
/// optionally as a chaos drill (`--chaos`): the same traffic runs with
/// and without a seeded mid-run fault plan, surviving responses are
/// byte-compared, and any divergence is a launch error (exit 4).
fn cmd_serve_fleet<T: sparse::Real>(
    args: &Args,
    (min, max): (u64, u64),
    device: &Device,
    nn: NearestNeighbors<T>,
    config: ServeConfig,
    slo: Option<SloBudget>,
    requests: &[sparse_dist::Request<T>],
) -> Result<(), CliError> {
    let fleet_config = FleetConfig {
        min_replicas: min as usize,
        max_replicas: max as usize,
        window_s: args.real("--window-ms") * 1e-3,
        serve: config,
        ..FleetConfig::default()
    };
    let slos: Vec<(usize, SloBudget)> = slo.map(|budget| (0, budget)).into_iter().collect();

    if args.given("--chaos") {
        let seed = args.uint("--seed");
        let span_s = requests.iter().map(|r| r.arrival_s).fold(0.0, f64::max);
        let chaos = ChaosPlan {
            start_s: span_s * 0.25,
            end_s: (span_s * 0.5).max(span_s * 0.25 + fleet_config.window_s),
            fault: FaultPlan::seeded(seed).with_transient_launch_failures(100),
        };
        eprintln!(
            "spdist: chaos drill: 10% transient launch faults over \
             [{:.2} ms, {:.2} ms) (seed {seed})",
            chaos.start_s * 1e3,
            chaos.end_s * 1e3,
        );
        let outcome = chaos_drill(device, fleet_config, &slos, &[nn], requests, chaos, 1.0)
            .map_err(|e| CliError::launch(format!("chaos drill failed: {e}")))?;
        eprintln!(
            "spdist: chaos drill: {} common response(s), {} divergent, \
             baseline shed {:.1}% vs chaos shed {:.1}%",
            outcome.common,
            outcome.divergent,
            outcome.baseline.serve.shed_fraction() * 100.0,
            outcome.chaos.serve.shed_fraction() * 100.0,
        );
        match outcome.recovery_window {
            Some(w) => {
                let win = &outcome.chaos.windows[w];
                eprintln!(
                    "spdist: chaos drill: recovered in window {w} \
                     (t={:.2} ms, burn {:.2} within envelope 1.0)",
                    win.start_s * 1e3,
                    win.worst_burn,
                );
            }
            None => eprintln!("spdist: chaos drill: no post-chaos window re-entered the envelope"),
        }
        if outcome.divergent > 0 {
            return Err(CliError::launch(format!(
                "chaos drill diverged on {} of {} surviving request(s)",
                outcome.divergent, outcome.common,
            )));
        }
        if args.optional("--metrics").is_some() {
            eprintln!(
                "spdist: note: --metrics is ignored under --chaos (the drill \
                 runs two fleets; rerun without --chaos for a snapshot)"
            );
        }
        write_request_trace(args, &outcome.chaos.serve.spans)?;
        return write_responses(args, &outcome.chaos.serve.responses);
    }

    let mut fleet = Fleet::new(device.clone(), fleet_config);
    for (dataset, budget) in slos {
        fleet = fleet.with_slo(dataset, budget);
    }
    let report = fleet
        .run(&[nn], requests)
        .map_err(|e| CliError::launch(format!("fleet serve failed: {e}")))?;
    let served = &report.serve;
    eprintln!(
        "spdist: fleet served {}/{} request(s) over {} window(s), \
         shed {:.1}%, p50 {:.1} us / p99 {:.1} us, worst burn {:.2}, \
         {} replica(s) final",
        served.responses.len(),
        requests.len(),
        report.windows.len(),
        served.shed_fraction() * 100.0,
        served.latency_percentile(50.0) * 1e6,
        served.latency_percentile(99.0) * 1e6,
        report.worst_burn(),
        report.replicas_final,
    );
    for e in &report.scale_events {
        eprintln!(
            "spdist: fleet scale {} -> {} at window {} (t={:.2} ms, burn {:.2})",
            e.from,
            e.to,
            e.window,
            e.at_s * 1e3,
            e.burn,
        );
    }
    write_metrics(args, fleet.metrics(), "spdist_fleet")?;
    write_request_trace(args, &served.spans)?;
    write_responses(args, &served.responses)
}

/// Honors `--metrics[=path]`: a `metrics.v1` snapshot of `registry`
/// to the file, or Prometheus text to stderr.
fn write_metrics(args: &Args, registry: &MetricsRegistry, name: &str) -> Result<(), CliError> {
    if let Some(dest) = args.optional("--metrics") {
        let snap = registry.snapshot(name);
        match dest {
            Some(path) => {
                std::fs::write(path, snap.to_json())
                    .map_err(|e| CliError::input(format!("cannot write {path}: {e}")))?;
                eprintln!(
                    "spdist: wrote metrics.v1 snapshot ({} counters, {} gauges, \
                     {} histograms) to {path}",
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.histograms.len()
                );
            }
            None => eprint!("{}", snap.to_prometheus()),
        }
    }
    Ok(())
}

/// Honors `--trace-requests[=path]` for a serve, fleet or drill run's
/// spans.
fn write_request_trace(args: &Args, spans: &[sparse_dist::RequestSpan]) -> Result<(), CliError> {
    if let Some(dest) = args.optional("--trace-requests") {
        match dest {
            Some(path) => {
                std::fs::write(path, request_chrome_trace(spans))
                    .map_err(|e| CliError::input(format!("cannot write {path}: {e}")))?;
                eprintln!(
                    "spdist: wrote request trace with {} span(s) to {path} \
                     (load in Perfetto / chrome://tracing)",
                    spans.len()
                );
            }
            None => {
                let terminal = spans.iter().filter(|s| s.is_terminal()).count();
                eprintln!(
                    "spdist: traced {} request span(s), {} terminal \
                     (pass --trace-requests=trace.json to export)",
                    spans.len(),
                    terminal
                );
            }
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let (distance, params, mut options, device, show_resilience) = parse_common(args)?;
    let index = load(args.required("--input")?)?;
    let queries = load(args.required("--queries")?)?;
    let devices = devices(args);

    if args.given("--chaos") && options.resilience.is_none() {
        // The chaos drill injects transient launch faults mid-run; only
        // a retry budget lets it measure degradation and recovery
        // instead of dying on the first fault.
        options.resilience = Some(ResiliencePolicy::with_retries(8));
        eprintln!("spdist: --chaos implies --resilience (retry budget 8)");
    }
    let ivf_mode = args.text("--index") == Some("ivf");
    let (nlist, nprobe) = ivf_knobs(args, ivf_mode)?;
    let nn = NearestNeighbors::new(device.clone(), distance)
        .with_params(params)
        .with_options(options)
        .fit(index.clone());
    let config = ServeConfig {
        k: args.uint("--k") as usize,
        max_batch: (args.uint("--max-batch") as usize).max(1),
        max_wait_s: args.real("--max-wait-us") * 1e-6,
        max_queue: (args.uint("--max-queue") as usize).max(1),
        per_query_prepare: args.given("--per-query-prepare"),
        admission: admission(args)?,
        index: if ivf_mode {
            IndexMode::Ivf { nlist, nprobe }
        } else {
            IndexMode::Exact
        },
    };
    let requests = serve_requests(args, &queries)?;
    let slo = args
        .opt_real("--slo-p99-us")
        .map(|us| SloBudget::p99(us * 1e-6));

    if args.given("--ingest") {
        // `--chaos` requires `--fleet`, so this refuses both.
        if args.given("--fleet") {
            return Err(CliError::config(
                "--ingest serves a single mutable engine (drop --fleet/--chaos)",
            ));
        }
        if ivf_mode {
            return Err(CliError::config(
                "--ingest serves the exact tier (drop --index ivf)",
            ));
        }
    }

    if let Some(range) = args.uint_range("--fleet") {
        return cmd_serve_fleet(args, range, &device, nn, config, slo, &requests);
    }

    let multi = MultiDevice::replicate(&device, devices);
    let mut engine = ServeEngine::new(multi, config);
    if let Some(mb) = args.opt_uint("--cache-budget-mb") {
        // The flag table bounds `mb` so the product fits a `usize`.
        engine = engine.with_cache_budget(mb as usize * 1024 * 1024);
    }
    if let Some(budget) = slo {
        engine.set_slo(0, budget);
    }
    let report = match args.text("--ingest") {
        Some(wal_path) => serve_ingest_replay(args, wal_path, &mut engine, &nn, &index, &requests)?,
        None => engine
            .replay(std::slice::from_ref(&nn), &requests)
            .map_err(|e| CliError::launch(format!("serve failed: {e}")))?,
    };

    eprintln!(
        "spdist: served {}/{} requests in {} batches on {} device(s), \
         {:.1} qps (sim), p50 {:.1} us / p99 {:.1} us, busy {:.3} ms",
        report.responses.len(),
        requests.len(),
        report.batches,
        devices,
        report.qps(),
        report.latency_percentile(50.0) * 1e6,
        report.latency_percentile(99.0) * 1e6,
        report.busy_seconds * 1e3,
    );
    // Typed shed breakdown (only non-zero reasons, to keep the summary
    // line stable for scripts when admission control is off).
    let sheds: Vec<String> = report
        .shed_counts()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(reason, n)| format!("{n} {}", reason.name()))
        .collect();
    eprintln!(
        "spdist: cache {} hit(s) / {} miss(es) / {} eviction(s); {} rejected{}",
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.rejected.len(),
        if sheds.is_empty() {
            String::new()
        } else {
            format!(" ({})", sheds.join(", "))
        }
    );
    if report.degraded_requests > 0 {
        eprintln!(
            "spdist: admission degraded {} request(s) in {} batch(es) \
             (overload signal; exact batches run unchanged, IVF halves nprobe)",
            report.degraded_requests, report.degraded_batches,
        );
    }
    if show_resilience {
        eprintln!("resilience: policy active on every served batch");
    }
    for s in &report.slo {
        eprintln!(
            "spdist: slo d{}: target p99 {:.1} us, {}/{} breach(es), \
             burn {:.2} (worst window {:.2})",
            s.dataset,
            s.budget.target_p99_s * 1e6,
            s.breaches,
            s.requests,
            s.budget_burn(),
            s.worst_window_burn(),
        );
    }
    if ivf_mode {
        let m = engine.metrics();
        eprintln!(
            "spdist: ivf tier: {} search(es), {} probe(s), {} shortlist \
             row(s) reranked exactly, {} fit(s), {} degraded-nprobe batch(es)",
            m.counter("ann.searches_total"),
            m.counter("ann.probes_total"),
            m.counter("ann.shortlist_rows_total"),
            m.counter("ann.fits_total"),
            m.counter("ann.degraded_nprobe_total"),
        );
    }
    write_metrics(args, engine.metrics(), "spdist_serve")?;
    write_request_trace(args, &report.spans)?;
    write_responses(args, &report.responses)
}

/// Replays `--ingest wal.tsv` through the mutable-dataset engine
/// (DESIGN §16): strict parse (a torn log is exit 3), every write at
/// t=0 so each query sees the fully applied log, optional background
/// compaction and `manifest.v1` emission. Returns the serving-side
/// report so the shared summary/telemetry/output paths apply unchanged.
fn serve_ingest_replay(
    args: &Args,
    wal_path: &str,
    engine: &mut ServeEngine<f32>,
    proto: &NearestNeighbors<f32>,
    index: &CsrMatrix<f32>,
    requests: &[sparse_dist::Request<f32>],
) -> Result<ServeReport<f32>, CliError> {
    let text = std::fs::read_to_string(wal_path)
        .map_err(|e| CliError::input(format!("cannot open {wal_path}: {e}")))?;
    let wal = Wal::<f32>::parse(&text)
        .map_err(|e| CliError::input(format!("torn or corrupt WAL {wal_path}: {e}")))?;
    if wal.cols() != index.cols() {
        return Err(CliError::input(format!(
            "WAL {wal_path} has {} column(s) but the base index has {}",
            wal.cols(),
            index.cols()
        )));
    }
    if let Some(base) = wal.base() {
        let held = fingerprint(index);
        if base != held {
            return Err(CliError::config(format!(
                "WAL {wal_path} was derived from base {base:016x} but --input has \
                 fingerprint {held:016x}"
            )));
        }
    }
    let threshold = args.uint("--compact-threshold") as usize;
    let mut ds = MutableDataset::new(index.clone());
    let writes: Vec<TimedRecord<f32>> = wal
        .records()
        .iter()
        .map(|record| TimedRecord {
            at_s: 0.0,
            record: record.clone(),
        })
        .collect();
    let report = engine
        .replay_ingest(proto, &mut ds, &writes, requests, threshold)
        .map_err(|e| CliError::launch(format!("ingest serve failed: {e}")))?;
    eprintln!(
        "spdist: ingest applied {}/{} WAL record(s) ({} insert(s), {} delete(s), \
         {} rejected), {}/{} compaction(s) landed, generation {}, \
         {} live row(s) ({} fresh, {} tombstone(s))",
        report.wal.applied,
        report.wal.appended,
        report.wal.inserts,
        report.wal.deletes,
        report.wal.rejected,
        report.compactions.len(),
        report.compactions_started,
        report.final_generation,
        ds.live_rows(),
        ds.fresh_rows(),
        ds.tombstone_count(),
    );
    for (seq, err) in &report.wal_errors {
        eprintln!("spdist: ingest rejected record {seq}: {err}");
    }
    if let Some(path) = args.text("--manifest") {
        let manifest = Manifest {
            generation: ds.generation(),
            base_rows: ds.base().rows(),
            base_fingerprint: fingerprint_with_generation(ds.base(), ds.generation()),
            log_position: ds.log_position(),
            cols: ds.cols(),
        };
        std::fs::write(path, manifest.render() + "\n")
            .map_err(|e| CliError::input(format!("cannot write {path}: {e}")))?;
        eprintln!(
            "spdist: wrote manifest (generation {}) to {path}",
            ds.generation()
        );
    }
    Ok(report.serve)
}

/// Derives a deterministic WAL fixture from a matrix (DESIGN §16): the
/// first `--base-rows` rows form the base, every later row becomes an
/// insert, and every `--delete-every`-th operation also deletes a
/// deterministically chosen live row. `--rebuilt` writes the oracle
/// matrix the log rebuilds to; `--prefix` truncates the log first so CI
/// can replay any prefix against its own oracle.
fn cmd_wal(args: &Args) -> Result<(), CliError> {
    let m = load(args.required("--input")?)?;
    if m.rows() == 0 {
        return Err(CliError::input("--input matrix has no rows"));
    }
    let base_rows = args
        .opt_uint("--base-rows")
        .map_or((m.rows() / 2).max(1), |n| n as usize);
    if base_rows > m.rows() {
        return Err(CliError::config(format!(
            "bad --base-rows {base_rows} (need 1..={} for this matrix)",
            m.rows()
        )));
    }
    let delete_every = args.uint("--delete-every") as usize;
    let base = m.slice_rows(0..base_rows);
    let mut wal: Wal<f32> = Wal::new(m.cols()).with_base(fingerprint(&base));
    let mut live: Vec<u64> = (0..base_rows as u64).collect();
    for r in base_rows..m.rows() {
        let i = r - base_rows;
        if delete_every > 0 && i % delete_every == delete_every - 1 && !live.is_empty() {
            let victim = live.remove((i * 7 + 3) % live.len());
            wal.append_delete(victim);
        }
        wal.append_insert(m.row_indices(r), m.row_values(r));
        // Deletes never consume logical ids: insert i is id base_rows + i.
        live.push((base_rows + i) as u64);
    }
    if let Some(n) = args.opt_uint("--prefix") {
        if n > wal.len() as u64 {
            return Err(CliError::config(format!(
                "bad --prefix {n} (the log has {} record(s))",
                wal.len()
            )));
        }
        let n = n as usize;
        wal.truncate(n);
    }
    let out_path = args.required("--output")?;
    std::fs::write(out_path, wal.render())
        .map_err(|e| CliError::input(format!("cannot write {out_path}: {e}")))?;
    // Replay the (possibly truncated) log so the written oracle always
    // corresponds to exactly the records in the written WAL.
    let mut ds = MutableDataset::new(base.clone());
    for rec in wal.records() {
        ds.apply(rec)
            .map_err(|e| CliError::input(format!("derived log does not replay: {e}")))?;
    }
    eprintln!(
        "spdist: wrote {} WAL record(s) over {} column(s) to {out_path} \
         (base {} row(s), rebuild {} live row(s))",
        wal.len(),
        wal.cols(),
        base_rows,
        ds.live_rows(),
    );
    if let Some(path) = args.text("--base") {
        let f = File::create(path)
            .map_err(|e| CliError::input(format!("cannot create {path}: {e}")))?;
        write_matrix_market(&base, BufWriter::new(f))
            .map_err(|e| CliError::input(format!("write failed: {e}")))?;
    }
    if let Some(path) = args.text("--rebuilt") {
        let f = File::create(path)
            .map_err(|e| CliError::input(format!("cannot create {path}: {e}")))?;
        write_matrix_market(&ds.rebuild(), BufWriter::new(f))
            .map_err(|e| CliError::input(format!("write failed: {e}")))?;
    }
    Ok(())
}

fn cmd_pairwise(args: &Args) -> Result<(), CliError> {
    let (distance, params, options, device, show_resilience) = parse_common(args)?;
    let a = load(args.required("--input")?)?;
    let b = match args.text("--index") {
        Some(p) => load(p)?,
        None => a.clone(),
    };
    let r = sparse_dist::pairwise_distances_with(&device, &a, &b, distance, &params, &options)
        .map_err(|e| CliError::launch(format!("pairwise failed: {e}")))?;
    eprintln!(
        "spdist: {}x{} distances, {:.3} ms simulated across {} launches",
        a.rows(),
        b.rows(),
        r.sim_seconds() * 1e3,
        r.launches.len()
    );
    if show_resilience {
        if let Some(report) = &r.resilience {
            emit_resilience(std::slice::from_ref(report));
        }
    }
    if let Some(trace) = args.optional("--profile") {
        emit_profiles(&r.launches, trace)?;
    }
    // Dense output as mtx (store all cells, including zeros, as explicit
    // entries would be wasteful — convert through CSR, dropping exact
    // zeros, which for distances means self-pairs and exact ties only).
    let csr = CsrMatrix::from_dense(a.rows(), b.rows(), r.distances.as_slice());
    let mut sink = output(args)?;
    write_matrix_market(&csr, &mut sink)
        .map_err(|e| CliError::input(format!("write failed: {e}")))?;
    Ok(())
}
