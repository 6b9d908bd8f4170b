//! Mutable-dataset ingest suite (DESIGN §16): WAL replay must be
//! crash-safe (any byte-level truncation parses to a consistent prefix
//! or a typed error — never a panic or a silent partial apply), and
//! query answers after ANY replayed WAL prefix must be byte-identical
//! to a one-shot run over the dataset rebuilt from scratch — across
//! arrival permutations, host-thread counts, mid-stream compactions,
//! and armed fault plans.

use gpu_sim::{Device, FaultPlan};
use kernels::{PairwiseOptions, ResiliencePolicy, Strategy};
use neighbors::{MultiDevice, NearestNeighbors};
use proptest::prelude::*;
use semiring::Distance;
use serve::{
    AdmissionConfig, MutableDataset, Request, ServeConfig, ServeEngine, ServeReport, SpanEvent,
    TimedRecord, Wal, WalRecord,
};
use sparse::{CsrMatrix, Idx};

fn dataset(rows: usize, salt: u64) -> CsrMatrix<f64> {
    let mut data = vec![0.0; rows * 12];
    for r in 0..rows {
        for c in 0..12 {
            if (r + 2 * c + salt as usize).is_multiple_of(4) {
                data[r * 12 + c] = 1.0 + (salt as f64) / 3.0 + (r as f64) / 7.0 + (c as f64) / 31.0;
            }
        }
    }
    CsrMatrix::from_dense(rows, 12, &data)
}

/// A deterministic WAL over `cols` columns: inserts with irregular
/// sparsity patterns interleaved with deletes of earlier-live rows.
fn sample_wal(cols: usize, base_rows: usize, ops: usize, seed: u64) -> Wal<f64> {
    let mut wal = Wal::new(cols);
    let mut next_id = base_rows as u64;
    let mut live: Vec<u64> = (0..base_rows as u64).collect();
    for i in 0..ops {
        let roll = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seed)
            .rotate_left(17);
        if roll.is_multiple_of(3) && !live.is_empty() {
            let victim = live.remove((roll as usize / 3) % live.len());
            wal.append_delete(victim);
        } else {
            let row_cols: Vec<Idx> = (0..cols as u32)
                .filter(|&c| (c as u64 + roll) % 3 != 1)
                .collect();
            let vals: Vec<f64> = row_cols
                .iter()
                .map(|&c| 0.25 + (c as f64) / 5.0 + ((roll % 11) as f64) / 7.0)
                .collect();
            wal.append_insert(&row_cols, &vals);
            live.push(next_id);
            next_id += 1;
        }
    }
    wal
}

fn timed(records: &[WalRecord<f64>], at_s: f64, spacing_s: f64) -> Vec<TimedRecord<f64>> {
    records
        .iter()
        .enumerate()
        .map(|(i, record)| TimedRecord {
            at_s: at_s + i as f64 * spacing_s,
            record: record.clone(),
        })
        .collect()
}

/// Per-pair-pure execution (DESIGN §16): the naive-CSR kernel scores a
/// `(query, row)` pair from the two rows' bytes alone, so the base and
/// fresh arms produce the same bits the rebuilt matrix would — the
/// hybrid COO sweep instead folds stream-side terms at chunk boundaries
/// measured from the slab's global nnz offset (§7), which re-associates
/// when deletes or compactions repack the slab.
fn pure_opts() -> PairwiseOptions {
    PairwiseOptions {
        strategy: Strategy::NaiveCsr,
        ..PairwiseOptions::default()
    }
}

fn requests(queries: &CsrMatrix<f64>, start_s: f64, spacing_s: f64) -> Vec<Request<f64>> {
    (0..queries.rows())
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: start_s + i as f64 * spacing_s,
            row: queries.slice_rows(i..i + 1),
        })
        .collect()
}

/// Fits the rebuilt matrix and asserts every response is bit-identical
/// to the one-shot sharded oracle over it.
fn assert_matches_rebuild(
    responses: &[serve::Response<f64>],
    rebuilt: &CsrMatrix<f64>,
    queries: &CsrMatrix<f64>,
    multi: &MultiDevice,
    k: usize,
    ctx: &str,
) {
    let oracle = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
        .with_options(pure_opts())
        .fit(rebuilt.clone())
        .kneighbors_sharded(multi, queries, k.min(rebuilt.rows()))
        .expect("oracle");
    for resp in responses {
        let q = resp.id as usize;
        assert_eq!(
            resp.indices, oracle.indices[q],
            "{ctx}: indices of query {q}"
        );
        let served: Vec<u64> = resp.distances.iter().map(|d| d.to_bits()).collect();
        let want: Vec<u64> = oracle.distances[q].iter().map(|d| d.to_bits()).collect();
        assert_eq!(served, want, "{ctx}: distance bits of query {q}");
    }
}

/// The tentpole acceptance criterion: after replaying ANY prefix of the
/// WAL, served answers are byte-identical to a rebuild-from-scratch.
#[test]
fn every_wal_prefix_serves_rebuild_identical_bytes() {
    let base = dataset(10, 0);
    let queries = dataset(8, 3);
    let wal = sample_wal(12, 10, 12, 41);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto =
        NearestNeighbors::new(Device::volta(), Distance::Euclidean).with_options(pure_opts());
    for prefix in 0..=wal.len() {
        let mut ds = MutableDataset::new(base.clone());
        let writes = timed(&wal.records()[..prefix], 0.0, 0.0);
        let reqs = requests(&queries, 1e-3, 10e-6);
        let cfg = ServeConfig {
            k: 4,
            max_batch: 3,
            max_wait_s: 40e-6,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(multi.clone(), cfg);
        let report = engine
            .replay_ingest(&proto, &mut ds, &writes, &reqs, 0)
            .expect("ingest");
        assert_eq!(report.responses().len(), 8, "prefix={prefix}");
        assert_eq!(report.wal.appended, prefix as u64);
        assert_eq!(report.wal.rejected, 0);
        assert_matches_rebuild(
            report.responses(),
            &ds.rebuild(),
            &queries,
            &multi,
            4,
            &format!("prefix={prefix}"),
        );
    }
}

/// Interleaved writes and queries: each query is answered against the
/// dataset state at its dispatch instant (writes admitted earlier are
/// visible, later ones are not), verified against per-instant rebuild
/// snapshots — and the same stream in a different arrival permutation
/// of the queries serves the same per-id bytes.
#[test]
fn interleaved_writes_see_snapshots_and_permutations_agree() {
    let base = dataset(9, 1);
    let queries = dataset(10, 4);
    let wal = sample_wal(12, 9, 10, 7);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto =
        NearestNeighbors::new(Device::volta(), Distance::Euclidean).with_options(pure_opts());
    // Writes at 100us spacing; query i lands between write i and i+1,
    // max_batch=1 + tiny deadline so each dispatches at arrival.
    let writes = timed(wal.records(), 100e-6, 100e-6);
    let reqs: Vec<Request<f64>> = (0..queries.rows())
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: 150e-6 + i as f64 * 100e-6,
            row: queries.slice_rows(i..i + 1),
        })
        .collect();
    let cfg = ServeConfig {
        k: 3,
        max_batch: 1,
        max_wait_s: 1e-9,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let mut ds = MutableDataset::new(base.clone());
    let report = engine
        .replay_ingest(&proto, &mut ds, &writes, &reqs, 0)
        .expect("ingest");
    assert_eq!(report.responses().len(), queries.rows());

    // Shadow-replay the WAL to the snapshot each query dispatched
    // against: query i saw writes 0..=i.
    for resp in report.responses() {
        let q = resp.id as usize;
        let mut shadow = MutableDataset::new(base.clone());
        for rec in &wal.records()[..(q + 1).min(wal.len())] {
            shadow.apply(rec).expect("shadow apply");
        }
        assert_matches_rebuild(
            std::slice::from_ref(resp),
            &shadow.rebuild(),
            &queries,
            &multi,
            3,
            &format!("snapshot after write {q}"),
        );
    }
}

/// Mid-compaction chaos: a small threshold forces compactions while
/// queries are in flight, on a device with an armed fault plan absorbed
/// by retries, with host threads enabled — answers stay byte-identical
/// to the rebuild oracle and the generation advances.
#[test]
fn compaction_chaos_and_host_threads_preserve_bytes() {
    let base = dataset(8, 2);
    let queries = dataset(12, 5);
    let wal = sample_wal(12, 8, 14, 23);
    let faulty = Device::volta()
        .with_host_threads(4)
        .with_fault_plan(FaultPlan::seeded(5).with_transient_launch_failures(80));
    let opts = PairwiseOptions {
        resilience: Some(ResiliencePolicy::with_retries(8)),
        ..PairwiseOptions::default()
    };
    let multi = MultiDevice::replicate(&faulty, 2);
    let proto = NearestNeighbors::new(faulty.clone(), Distance::Euclidean).with_options(opts);
    let writes = timed(wal.records(), 0.0, 50e-6);
    // Queries trail the writes so every one sees the fully-applied log,
    // while compactions land mid-stream.
    let reqs = requests(&queries, 1e-3, 20e-6);
    let cfg = ServeConfig {
        k: 4,
        max_batch: 4,
        max_wait_s: 60e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let mut ds = MutableDataset::new(base.clone());
    let report = engine
        .replay_ingest(&proto, &mut ds, &writes, &reqs, 4)
        .expect("ingest");
    assert_eq!(report.responses().len(), queries.rows());
    assert!(
        !report.compactions.is_empty(),
        "threshold 4 over 14 ops must compact"
    );
    assert!(report.final_generation >= 1);
    // Clean-device oracle: absorbed faults must not leak into bytes.
    let clean = MultiDevice::replicate(&Device::volta(), 2);
    assert_matches_rebuild(
        report.responses(),
        &ds.rebuild(),
        &queries,
        &clean,
        4,
        "chaos+compaction",
    );

    // Conservation laws, as the CI gate checks them.
    let m = engine.metrics();
    assert_eq!(
        m.counter("wal.records_appended_total"),
        m.counter("wal.records_applied_total") + m.counter("wal.records_rejected_total")
    );
    assert_eq!(
        m.counter("wal.records_applied_total"),
        m.counter("wal.inserts_total") + m.counter("wal.deletes_total")
    );
    assert!(m.counter("compact.completed_total") <= m.counter("compact.started_total"));
    assert!(m.counter("compact.started_total") <= m.counter("wal.records_appended_total"));
    assert!(m.counter("wal.fresh_scans_total") <= m.counter("serve.batches_total"));
    assert_eq!(m.gauge("compact.generation"), Some(ds.generation() as f64));
}

/// A poison record (delete of a never-allocated id) is rejected with a
/// typed error, consumes its log position, and the stream continues —
/// the served bytes match the rebuild that skipped it.
#[test]
fn rejected_records_are_counted_and_skipped() {
    let base = dataset(7, 0);
    let queries = dataset(6, 6);
    let mut wal: Wal<f64> = Wal::new(12);
    wal.append_insert(&[0, 3, 7], &[1.5, 2.5, 3.5]);
    wal.append_delete(999); // out of range: rejected, position consumed
    wal.append_delete(2);
    wal.append_delete(2); // double-delete: rejected (dead row)
    wal.append_insert(&[1, 4], &[0.5, 4.5]);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto =
        NearestNeighbors::new(Device::volta(), Distance::Euclidean).with_options(pure_opts());
    let writes = timed(wal.records(), 0.0, 0.0);
    let reqs = requests(&queries, 1e-3, 15e-6);
    let cfg = ServeConfig {
        k: 3,
        max_batch: 2,
        max_wait_s: 30e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let mut ds = MutableDataset::new(base.clone());
    let report = engine
        .replay_ingest(&proto, &mut ds, &writes, &reqs, 0)
        .expect("ingest");
    assert_eq!(report.wal.appended, 5);
    assert_eq!(report.wal.applied, 3);
    assert_eq!(report.wal.rejected, 2);
    assert_eq!(report.wal_errors.len(), 2);
    assert_eq!(ds.log_position(), 5, "rejected records consume positions");
    assert_eq!(ds.live_rows(), 7 + 2 - 1);
    assert_matches_rebuild(
        report.responses(),
        &ds.rebuild(),
        &queries,
        &multi,
        3,
        "poison records",
    );
}

/// Compacting down to an empty dataset (every row deleted) and then
/// inserting into it again keeps serving correct bytes.
#[test]
fn delete_everything_then_reinsert_still_serves() {
    let base = dataset(4, 1);
    let queries = dataset(5, 2);
    let mut wal: Wal<f64> = Wal::new(12);
    for id in 0..4 {
        wal.append_delete(id);
    }
    wal.append_insert(&[2, 5, 11], &[0.5, 1.5, 2.5]);
    wal.append_insert(&[0, 6], &[3.5, 4.5]);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto =
        NearestNeighbors::new(Device::volta(), Distance::Euclidean).with_options(pure_opts());
    let writes = timed(wal.records(), 0.0, 20e-6);
    let reqs = requests(&queries, 1e-3, 15e-6);
    let cfg = ServeConfig {
        k: 2,
        max_batch: 2,
        max_wait_s: 30e-6,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(multi.clone(), cfg);
    let mut ds = MutableDataset::new(base);
    let report = engine
        .replay_ingest(&proto, &mut ds, &writes, &reqs, 4)
        .expect("ingest");
    assert_eq!(report.responses().len(), 5);
    assert_eq!(ds.live_rows(), 2);
    assert_matches_rebuild(
        report.responses(),
        &ds.rebuild(),
        &queries,
        &multi,
        2,
        "delete-all then reinsert",
    );
}

/// Under the default hybrid strategy, cross-slab re-association (§7)
/// means rebuild-oracle agreement is to re-tiling precision rather
/// than bit-exact — but the ingest replay itself stays fully
/// deterministic: the same WAL + query stream serves the same bytes
/// twice, and every served pair appears in the exact full ranking
/// within the same `1e-9` bound every §10/§15 cross-tiling assertion
/// uses.
#[test]
fn hybrid_default_is_deterministic_and_agrees_to_retiling_precision() {
    let base = dataset(10, 0);
    let queries = dataset(8, 3);
    let wal = sample_wal(12, 10, 12, 41);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto = NearestNeighbors::new(Device::volta(), Distance::Euclidean);
    let cfg = ServeConfig {
        k: 4,
        max_batch: 3,
        max_wait_s: 40e-6,
        ..ServeConfig::default()
    };
    let run = || {
        let mut ds = MutableDataset::new(base.clone());
        let mut engine = ServeEngine::new(multi.clone(), cfg);
        let report = engine
            .replay_ingest(
                &proto,
                &mut ds,
                &timed(wal.records(), 0.0, 0.0),
                &requests(&queries, 1e-3, 10e-6),
                5,
            )
            .expect("ingest");
        (report, ds)
    };
    let (first, ds) = run();
    let (second, _) = run();
    for (a, b) in first.responses().iter().zip(second.responses()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.indices, b.indices);
        let abits: Vec<u64> = a.distances.iter().map(|d| d.to_bits()).collect();
        let bbits: Vec<u64> = b.distances.iter().map(|d| d.to_bits()).collect();
        assert_eq!(abits, bbits, "replaying the same stream must be pure");
    }
    let rebuilt = ds.rebuild();
    let full = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
        .fit(rebuilt.clone())
        .kneighbors_sharded(&multi, &queries, rebuilt.rows())
        .expect("full ranking");
    for resp in first.responses() {
        let q = resp.id as usize;
        for (&idx, &dist) in resp.indices.iter().zip(&resp.distances) {
            let pos = full.indices[q]
                .iter()
                .position(|&j| j == idx)
                .expect("served index exists in the full ranking");
            assert!(
                (dist - full.distances[q][pos]).abs() < 1e-9,
                "query {q} neighbor {idx}: hybrid must agree to re-tiling precision"
            );
        }
    }
}

/// `replay_ingest` over a base with no writes is `replay` over the
/// fitted base: both entry points share one event loop and one batch
/// body, so responses, timing, spans (apart from the mutable path's
/// `SegmentMerge`) and every `serve.*` counter and gauge agree exactly
/// — with cached prepares, with admission degrading every batch, and
/// with per-batch re-prepares.
#[test]
fn ingest_without_writes_is_replay_over_the_fitted_base() {
    let base = dataset(12, 0);
    let queries = dataset(14, 5);
    let multi = MultiDevice::replicate(&Device::volta(), 2);
    let proto = NearestNeighbors::new(Device::volta(), Distance::Euclidean);
    let fitted = proto.clone().fit(base.clone());
    let reqs = requests(&queries, 1e-3, 12e-6);
    let plain = ServeConfig {
        k: 4,
        max_batch: 3,
        max_wait_s: 30e-6,
        ..ServeConfig::default()
    };
    let variants = [
        ("cached", plain),
        (
            "degraded",
            ServeConfig {
                admission: Some(AdmissionConfig::default().with_watermarks(0, usize::MAX)),
                ..plain
            },
        ),
        (
            "per-query-prepare",
            ServeConfig {
                per_query_prepare: true,
                ..plain
            },
        ),
    ];
    // Everything a replay reports, as comparable bits.
    let bits = |r: &ServeReport<f64>| {
        let responses: Vec<_> = r
            .responses
            .iter()
            .map(|x| {
                let dist: Vec<u64> = x.distances.iter().map(|d| d.to_bits()).collect();
                let times = (x.dispatch_s.to_bits(), x.completion_s.to_bits());
                (x.id, x.dataset, x.indices.clone(), dist, times)
            })
            .collect();
        let busy = r.busy_seconds.to_bits();
        let degraded = (r.degraded_batches, r.degraded_requests);
        (responses, r.batches, busy, degraded)
    };
    let serve_metrics = |engine: &ServeEngine<f64>| {
        let snap = engine.metrics().snapshot("fold");
        let serve = |name: &String| name.starts_with("serve.");
        let counters: Vec<_> = snap
            .counters
            .into_iter()
            .filter(|(n, _)| serve(n))
            .collect();
        let gauges: Vec<_> = snap
            .gauges
            .into_iter()
            .filter(|(n, _)| serve(n))
            .map(|(n, v)| (n, v.to_bits()))
            .collect();
        assert!(!counters.is_empty() && !gauges.is_empty());
        (counters, gauges)
    };
    for (ctx, cfg) in variants {
        let mut immutable = ServeEngine::new(multi.clone(), cfg);
        let want = immutable
            .replay(std::slice::from_ref(&fitted), &reqs)
            .expect("replay");
        let mut mutable = ServeEngine::new(multi.clone(), cfg);
        let mut ds = MutableDataset::new(base.clone());
        let got = mutable
            .replay_ingest(&proto, &mut ds, &[], &reqs, 0)
            .expect("ingest")
            .serve;
        assert_eq!(want.responses.len(), reqs.len(), "{ctx}");
        assert!(want.batches > 1, "{ctx}: several batches");
        if ctx == "degraded" {
            assert_eq!(want.degraded_batches, want.batches as u64, "{ctx}");
        }
        assert_eq!(bits(&got), bits(&want), "{ctx}");
        let mut spans = got.spans;
        for span in &mut spans {
            span.events
                .retain(|e| !matches!(e.event, SpanEvent::SegmentMerge { .. }));
        }
        assert_eq!(spans, want.spans, "{ctx}: spans");
        assert_eq!(serve_metrics(&mutable), serve_metrics(&immutable), "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-replay safety: cutting the rendered WAL at ANY byte offset
    /// parses to a consistent record prefix plus (for mid-record cuts)
    /// a typed error — never a panic — and the recovered prefix applies
    /// cleanly to a dataset whose rebuild matches a direct replay of
    /// the same record prefix.
    #[test]
    fn truncated_wal_recovers_a_consistent_prefix(
        seed in 0u64..400,
        ops in 1usize..14,
        cut_milli in 0u32..=1000,
    ) {
        let wal = sample_wal(10, 6, ops, seed);
        let text = wal.render();
        let cut = (text.len() * cut_milli as usize) / 1000;
        let truncated = &text[..cut];
        let (recovered, err) = Wal::<f64>::parse_prefix(truncated);
        // The recovered records are a strict prefix of the originals.
        prop_assert!(recovered.len() <= wal.len());
        for (got, want) in recovered.records().iter().zip(wal.records()) {
            prop_assert_eq!(got, want);
        }
        // A cut strictly inside the stream surfaces a typed error
        // unless it landed exactly on a record boundary.
        if cut < text.len() && recovered.len() < wal.len() {
            let mut boundary = wal.clone();
            boundary.truncate(recovered.len());
            let clean_cut = truncated == boundary.render()
                || truncated == boundary.render().trim_end_matches('\n');
            prop_assert!(
                err.is_some() || clean_cut,
                "mid-record cut at {} must yield a typed error",
                cut
            );
        }
        // The strict parser accepts exactly the error-free prefixes.
        prop_assert_eq!(Wal::<f64>::parse(truncated).is_ok(), err.is_none());
        // Replaying the recovered prefix applies without panic and
        // matches a direct prefix replay, byte for byte.
        let base = dataset(6, seed % 3);
        let mut from_recovered = MutableDataset::new(base.clone());
        for rec in recovered.records() {
            let applied = from_recovered.apply(rec);
            prop_assert!(applied.is_ok(), "recovered prefix must replay: {:?}", applied);
        }
        let mut from_original = MutableDataset::new(base);
        for rec in &wal.records()[..recovered.len()] {
            from_original.apply(rec).expect("original prefix");
        }
        let a = from_recovered.rebuild();
        let b = from_original.rebuild();
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(a.indptr(), b.indptr());
        prop_assert_eq!(a.indices(), b.indices());
        let abits: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
        let bbits: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(abits, bbits);
    }
}
