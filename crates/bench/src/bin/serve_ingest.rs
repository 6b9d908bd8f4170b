//! Streaming-ingest serving study: what background compaction buys
//! over letting the brute-force fresh segment grow without bound.
//!
//! DESIGN §16's mutable tier serves every query as a two-arm scan:
//! the prepared base generation plus an exact brute-force pass over
//! the WAL-fed fresh segment. Without compaction the fresh arm grows
//! linearly with the write stream and every query pays for it; with a
//! compaction threshold the engine periodically folds base + fresh
//! into a new generation off the serving lane. This harness replays
//! the same interleaved write/query stream through [`ServeEngine`] in
//! two modes:
//!
//! * `no_compact` — `compact_threshold = 0`: the fresh segment and
//!   tombstone set only ever grow.
//! * `compacted` — a threshold sized to fire a few times mid-stream,
//!   so queries near the end scan a small fresh arm against a freshly
//!   prepared base.
//!
//! Both modes pin `Strategy::NaiveCsr`: it is the per-pair-pure
//! strategy (DESIGN §15), so a (query, row) score depends only on the
//! two rows' bytes and the served answers are byte-identical across
//! modes — the latency delta is pure segment engineering, not a
//! quality trade.
//!
//! Usage: `cargo run --release -p bench --bin serve_ingest \
//!   [-- --scale 0.004 --seed 1 --k 10 --devices 2] [--json out.json]`

use bench::report::{BenchReport, MetricRow};
use bench::suite::query_slab;
use bench::{Flag, DEVICES, JSON, K, SCALE, SEED};
use datasets::DatasetProfile;
use gpu_sim::Device;
use neighbors::{MultiDevice, NearestNeighbors};
use semiring::Distance;
use sparse_dist::{
    replay_rows, IndexMode, IngestReport, MetricsRegistry, MutableDataset, PairwiseOptions,
    ServeConfig, ServeEngine, SloBudget, Strategy, TimedRecord, Wal,
};

/// Simulated gap between WAL record arrivals. Queries are offset by
/// half a gap so each one lands between two writes and the fresh
/// segment is scanned at many different sizes.
const WRITE_GAP_S: f64 = 5e-6;

/// Every 4th streamed operation deletes a live row (same cadence as
/// `spdist wal`), so tombstone masking and clearing are both on the
/// measured path.
const DELETE_EVERY: usize = 4;

/// The p99 latency SLO both modes are assessed against.
const SLO_TARGET_P99_S: f64 = 500e-6;

/// The per-pair-pure options (DESIGN §15): the hybrid default folds
/// stream-side terms at chunk boundaries measured from the slab's
/// global nnz offset, so its bits shift when compaction re-packs the
/// matrix. Naive-CSR scores each pair from the two rows alone, which
/// is what makes the cross-mode byte-compare below exact.
fn pure_opts() -> PairwiseOptions {
    PairwiseOptions {
        strategy: Strategy::NaiveCsr,
        ..PairwiseOptions::default()
    }
}

/// Splits the generated matrix into a base (first half) plus a WAL
/// stream over the remaining rows, deleting a live row every
/// [`DELETE_EVERY`]th op — the same derivation `spdist wal` uses.
fn split_stream(
    m: &sparse_dist::sparse::CsrMatrix<f32>,
) -> (sparse_dist::sparse::CsrMatrix<f32>, Wal<f32>) {
    let base_rows = (m.rows() / 2).max(1);
    let base = m.slice_rows(0..base_rows);
    let mut wal = Wal::new(m.cols());
    let mut live: Vec<u64> = (0..base_rows as u64).collect();
    for (i, r) in (base_rows..m.rows()).enumerate() {
        if i % DELETE_EVERY == DELETE_EVERY - 1 && !live.is_empty() {
            let victim = live.remove((i * 7 + 3) % live.len());
            wal.append_delete(victim);
        }
        wal.append_insert(m.row_indices(r), m.row_values(r));
        // Deletes never consume logical ids, so the i-th streamed
        // insert is always id base_rows + i.
        live.push((base_rows + i) as u64);
    }
    (base, wal)
}

fn describe(mode: &str, r: &IngestReport<f32>) -> String {
    format!(
        "{:<10} {:>7} {:>7} {:>9} {:>10.1} {:>10.1} {:>8} {:>4}",
        mode,
        r.wal.applied,
        r.serve.responses.len(),
        format!("{:.0}", r.serve.qps()),
        r.serve.latency_percentile(50.0) * 1e6,
        r.serve.latency_percentile(99.0) * 1e6,
        r.compactions.len(),
        r.final_generation,
    )
}

fn push_row(
    report: &mut BenchReport,
    dataset: &str,
    mode: &str,
    devices: usize,
    r: &IngestReport<f32>,
    m: &MetricsRegistry,
) {
    // WAL and compaction values come from the engine's deterministic
    // metrics registry, so these rows and a `--metrics` snapshot of
    // the same replay can never disagree — and the conservation laws
    // `validate_metrics` enforces hold for the row values too.
    report.push(
        MetricRow::new()
            .label("dataset", dataset)
            .label("mode", mode)
            .label("devices", &devices.to_string())
            .value("qps", r.serve.qps())
            .value("p50_latency_s", r.serve.latency_percentile(50.0))
            .value("p99_latency_s", r.serve.latency_percentile(99.0))
            .value("makespan_s", r.serve.makespan_s)
            .value("busy_seconds", r.serve.busy_seconds)
            .value("batches", r.serve.batches as f64)
            .value("served", r.serve.responses.len() as f64)
            .value(
                "wal_appended",
                m.counter("wal.records_appended_total") as f64,
            )
            .value("wal_applied", m.counter("wal.records_applied_total") as f64)
            .value(
                "wal_rejected",
                m.counter("wal.records_rejected_total") as f64,
            )
            .value("wal_inserts", m.counter("wal.inserts_total") as f64)
            .value("wal_deletes", m.counter("wal.deletes_total") as f64)
            .value("fresh_scans", m.counter("wal.fresh_scans_total") as f64)
            .value(
                "compactions_started",
                m.counter("compact.started_total") as f64,
            )
            .value(
                "compactions_completed",
                m.counter("compact.completed_total") as f64,
            )
            .value(
                "tombstones_cleared",
                m.counter("compact.tombstones_cleared_total") as f64,
            )
            .value("generation", m.gauge("compact.generation").unwrap_or(0.0))
            .value("live_rows", m.gauge("wal.live_rows").unwrap_or(0.0))
            .value("fresh_rows", m.gauge("wal.fresh_rows").unwrap_or(0.0))
            .value("tombstones", m.gauge("wal.tombstones").unwrap_or(0.0)),
    );
}

const FLAGS: &[Flag] = &[SCALE.default("0.004"), SEED, K, DEVICES, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let seed = args.uint("--seed");
    let scale = args.real("--scale");
    let k = args.uint("--k") as usize;
    let devices = args.uint("--devices") as usize;
    let json_path = args.text("--json");
    let mut report = BenchReport::new("serve_ingest");

    println!("Streaming ingest (Euclidean, k={k}, {devices} device(s), naive-CSR)");
    println!(
        "{:<14} {:<10} {:>7} {:>7} {:>9} {:>10} {:>10} {:>8} {:>4}",
        "dataset", "mode", "applied", "served", "qps", "p50 us", "p99 us", "compacts", "gen"
    );
    for (profile, degs) in [
        (DatasetProfile::movielens(), 0.04),
        (DatasetProfile::scrna(), 0.01),
    ] {
        let matrix = profile.scaled_with(scale, degs).generate(seed);
        let (base, wal) = split_stream(&matrix);
        let writes: Vec<TimedRecord<f32>> = wal
            .records()
            .iter()
            .enumerate()
            .map(|(i, rec)| TimedRecord {
                at_s: i as f64 * WRITE_GAP_S,
                record: rec.clone(),
            })
            .collect();
        let queries = query_slab(&matrix);
        // Offset queries half a write gap so request i observes
        // exactly the writes that landed before it — the same prefix
        // in both modes, which is what makes the byte-compare fair.
        let mut requests = replay_rows(&queries, WRITE_GAP_S);
        for r in &mut requests {
            r.arrival_s += WRITE_GAP_S / 2.0;
        }
        let proto =
            NearestNeighbors::new(Device::volta(), Distance::Euclidean).with_options(pure_opts());
        let multi = MultiDevice::replicate(&Device::volta(), devices);
        let max_queue = requests.len() + 1;
        // Fire a handful of compactions across the stream regardless
        // of `--scale`: a fixed threshold would either never trigger
        // at tiny CI scales or trigger every batch at full scale.
        let threshold = (writes.len() / 4).max(8);

        let mut reports: Vec<IngestReport<f32>> = Vec::new();
        for (mode, compact_threshold) in [("no_compact", 0), ("compacted", threshold)] {
            let mut dataset = MutableDataset::new(base.clone());
            let mut engine = ServeEngine::new(
                multi.clone(),
                ServeConfig {
                    k,
                    max_batch: 8,
                    max_wait_s: 20e-6,
                    max_queue,
                    per_query_prepare: false,
                    admission: None,
                    index: IndexMode::Exact,
                },
            )
            .with_slo(0, SloBudget::p99(SLO_TARGET_P99_S));
            let r = engine
                .replay_ingest(&proto, &mut dataset, &writes, &requests, compact_threshold)
                .expect("ingest replay runs");
            println!("{:<14} {}", profile.name, describe(mode, &r));
            push_row(
                &mut report,
                profile.name,
                mode,
                devices,
                &r,
                engine.metrics(),
            );
            assert_eq!(
                r.wal.appended as usize,
                wal.records().len(),
                "every WAL record is presented"
            );
            assert_eq!(
                r.wal.rejected, 0,
                "the derived stream has no poison records"
            );
            reports.push(r);
        }
        let (no_compact, compacted) = (&reports[0], &reports[1]);
        assert!(
            !compacted.compactions.is_empty(),
            "threshold {threshold} never fired over {} writes",
            writes.len()
        );
        assert_eq!(
            no_compact.final_generation, 0,
            "threshold 0 must disable compaction"
        );

        // The determinism contract (DESIGN §16): compaction moves rows
        // between arms but never changes served bytes, because the
        // pinned naive-CSR strategy is per-pair pure and merged
        // indices are in live-rank coordinates on both sides.
        fn by_id(r: &IngestReport<f32>) -> Vec<(u64, &sparse_dist::Response<f32>)> {
            let mut v: Vec<_> = r.responses().iter().map(|x| (x.id, x)).collect();
            v.sort_by_key(|(id, _)| *id);
            v
        }
        for ((ia, a), (ib, b)) in by_id(no_compact).into_iter().zip(by_id(compacted)) {
            assert_eq!(ia, ib, "both modes serve the same ids");
            assert_eq!(a.indices, b.indices, "indices diverge at id {ia}");
            assert_eq!(
                a.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                b.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "distances diverge at id {ia}"
            );
        }

        let tail_speedup = if compacted.serve.latency_percentile(99.0) > 0.0 {
            no_compact.serve.latency_percentile(99.0) / compacted.serve.latency_percentile(99.0)
        } else {
            0.0
        };
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .label("mode", "speedup")
                .label("devices", &devices.to_string())
                .value("p99_speedup", tail_speedup),
        );
    }
    println!(
        "\nreading: no_compact scans an ever-growing fresh segment and\n\
         masks an ever-growing tombstone set on every query; compacted\n\
         folds them into a new prepared generation off the serving\n\
         lane. Answers are byte-identical across modes, so any latency\n\
         delta is segment engineering, not a quality trade."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
