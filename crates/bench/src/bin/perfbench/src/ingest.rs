//! `serve_ingest`: writes beside reads through
//! `ServeEngine::replay_ingest`.
//!
//! The base is the first half of a MovieLens shape's rows. The
//! write-ahead log inserts the remaining rows and deletes a live row
//! every 4th op, the writes spread evenly over 20 ms; 2000 queries
//! arrive as Poisson traffic at 100k req/s over the same 20 ms.
//! Compaction fires whenever a quarter of the log is pending. The engine
//! and kernels are the same as in the other serving workloads, but
//! fresh-segment scans, tombstone masks, `merge_arms` and background
//! compaction are on the path. The matrix is the same at every seed; the
//! seed draws the deleted rows, the arrival times and the query rows.

use crate::gen::{matrix_labels, poisson_arrivals_within, Fnv, SplitMix64};
use crate::knn::{agrees, set_redrive_metrics};
use crate::report::Metrics;
use crate::serving::{
    admission_and_cache_metrics, batches, engine, engine_counts, enough_samples, estimator,
    fnv_report, prepare, redrive, serve_metrics, stack, warmup, RungRun, DEVICES,
};
use crate::spans::Spans;
use crate::{device, Workload, CHECK_EVERY, K};
use datasets::DatasetProfile;
use neighbors::{MultiDevice, NearestNeighbors};
use sparse::CsrMatrix;
use sparse_dist::{MutableDataset, Request, TimedRecord, Wal, WalCounts};
use std::time::Instant;

/// Simulated span over which the writes and the queries arrive.
const DURATION_S: f64 = 20e-3;
/// Queries in [`DURATION_S`]: 100k req/s. They end with the writes: a
/// query arriving after the last write waits up to `max_wait` for its
/// batch to fill, where one arriving among the writes is flushed by the
/// next write, so with a stream that ran on past the writes (a plain
/// Poisson stream of 2000 ran 20 ± 0.45 ms), the p99 latency jumped
/// from about 21 µs to 30–59 µs at some seeds.
const QUERIES: usize = 2000;
/// Every `DELETE_EVERY`-th WAL op deletes a live row.
const DELETE_EVERY: usize = 4;

pub struct Ingest {
    pub smoke: bool,
}

pub struct Inputs {
    matrix: CsrMatrix<f32>,
    base: CsrMatrix<f32>,
    writes: Vec<TimedRecord<f32>>,
    requests: Vec<Request<f32>>,
    proto: NearestNeighbors<f32>,
    multi: MultiDevice,
    threshold: usize,
    wal_fnv: u64,
    stream_fnv: u64,
}

pub struct Pass {
    run: RungRun,
    wal: WalCounts,
    fresh_scans: u64,
    fresh_rows: f64,
    tombstones: f64,
    compactions_started: u64,
    /// `(sim seconds, ready_s - started_s)` of each landed compaction.
    compactions: Vec<(f64, f64)>,
}

impl Inputs {
    /// Writes landed at or before `t`: a query arriving at `t` sees
    /// exactly these, because every later write first flushes the
    /// query's open batch (and a write at `t` lands first).
    fn prefix(&self, t: f64) -> usize {
        self.writes.partition_point(|w| w.at_s <= t)
    }

    /// Replays writes into `ds` until it holds the first `prefix`.
    fn advance(&self, ds: &mut MutableDataset<f32>, prefix: usize) -> Result<(), String> {
        while (ds.log_position() as usize) < prefix {
            let w = &self.writes[ds.log_position() as usize];
            ds.apply(&w.record)
                .map_err(|e| format!("WAL record {}: {e}", w.record.seq))?;
        }
        Ok(())
    }
}

impl Workload for Ingest {
    type Inputs = Inputs;
    type Pass = Pass;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
        let dims = if self.smoke { 0.002 } else { 0.01 };
        let shape = DatasetProfile::movielens().scaled_with(dims, 0.04);
        let data_seed = SplitMix64::corpus(0x1A0).next_u64();
        let matrix = spans.span("datasets.generate", None, |_| shape.generate(data_seed));
        let base_rows = matrix.rows() / 2;
        let base = matrix.slice_rows(0..base_rows);

        let mut rng = SplitMix64::stream(seed, 0x1A1);
        let mut wal = Wal::new(matrix.cols());
        let mut h = Fnv::default();
        let mut live: Vec<u64> = (0..base_rows as u64).collect();
        let mut next = base_rows;
        let mut op = 0usize;
        while next < matrix.rows() {
            op += 1;
            if op.is_multiple_of(DELETE_EVERY) && !live.is_empty() {
                let victim = live.remove(rng.below(live.len()));
                wal.append_delete(victim);
                h.u64(victim);
            } else {
                wal.append_insert(matrix.row_indices(next), matrix.row_values(next));
                // Deletes consume no logical ids: inserts get ids in order.
                live.push(next as u64);
                h.u64(u64::MAX - next as u64);
                next += 1;
            }
        }
        let n = wal.len();
        let writes: Vec<TimedRecord<f32>> = wal
            .records()
            .iter()
            .enumerate()
            .map(|(i, record)| TimedRecord {
                at_s: (i as f64 + 0.5) * DURATION_S / n as f64,
                record: record.clone(),
            })
            .collect();

        let queries = if self.smoke { QUERIES / 10 } else { QUERIES };
        let mut s = Fnv::default();
        let requests = poisson_arrivals_within(&mut rng, queries, DURATION_S)
            .into_iter()
            .enumerate()
            .map(|(id, arrival_s)| {
                let row = rng.below(matrix.rows());
                for v in [id as u64, arrival_s.to_bits(), row as u64] {
                    s.u64(v);
                }
                Request {
                    id: id as u64,
                    dataset: 0,
                    arrival_s,
                    row: matrix.slice_rows(row..row + 1),
                }
            })
            .collect();
        Ok(Inputs {
            base,
            writes,
            requests,
            proto: NearestNeighbors::new(device(), sparse_dist::Distance::Euclidean),
            multi: MultiDevice::replicate(&device(), DEVICES),
            threshold: (n / 4).max(1),
            wal_fnv: h.finish(),
            stream_fnv: s.finish(),
            matrix,
        })
    }

    fn labels(&self, i: &Inputs) -> Vec<(String, String)> {
        let mut out = matrix_labels("MovieLens", &i.matrix);
        out.extend([
            ("input.base_rows".into(), i.base.rows().to_string()),
            ("wal.records".into(), i.writes.len().to_string()),
            ("wal.fnv".into(), format!("{:016x}", i.wal_fnv)),
            ("wal.compact_threshold".into(), i.threshold.to_string()),
            ("requests".into(), i.requests.len().to_string()),
            ("requests.fnv".into(), format!("{:016x}", i.stream_fnv)),
        ]);
        out
    }

    fn pass(&self, i: &Inputs, spans: &mut Spans) -> Result<Pass, String> {
        let mut e = engine(&i.multi);
        let warm = warmup(&[&i.base]);
        e.replay_ingest(
            &i.proto,
            &mut MutableDataset::new(i.base.clone()),
            &[],
            &warm,
            0,
        )
        .map_err(|err| format!("warm-up: {err}"))?;
        let before = engine_counts(&e);
        let mut dataset = MutableDataset::new(i.base.clone());
        let t = Instant::now();
        let r = spans
            .span("serve.replay_ingest", None, |_| {
                e.replay_ingest(&i.proto, &mut dataset, &i.writes, &i.requests, i.threshold)
            })
            .map_err(|err| err.to_string())?;
        let host_s = t.elapsed().as_secs_f64();
        enough_samples(&r.serve, self.smoke)?;
        let reg = e.metrics();
        Ok(Pass {
            wal: r.wal,
            fresh_scans: reg.counter("wal.fresh_scans_total"),
            fresh_rows: reg.gauge("wal.fresh_rows").unwrap_or(0.0),
            tombstones: reg.gauge("wal.tombstones").unwrap_or(0.0),
            compactions_started: r.compactions_started,
            compactions: r
                .compactions
                .iter()
                .map(|c| (c.seconds, c.ready_s - c.started_s))
                .collect(),
            run: RungRun::new(r.serve, &e, before, host_s),
        })
    }

    fn ops(&self, pass: &Pass) -> u64 {
        let r = &pass.run.report;
        (r.responses.len() + r.rejected.len()) as u64 + pass.wal.appended
    }

    fn digest(&self, pass: &Pass) -> u64 {
        let mut h = Fnv::default();
        fnv_report(&mut h, &pass.run.report);
        let w = pass.wal;
        for v in [w.appended, w.applied, w.rejected, w.inserts, w.deletes] {
            h.u64(v);
        }
        for v in [
            pass.fresh_scans,
            pass.compactions_started,
            pass.run.shard_launches,
        ] {
            h.u64(v);
        }
        for &(secs, lag) in &pass.compactions {
            h.f64(secs);
            h.f64(lag);
        }
        h.f64(pass.fresh_rows);
        h.f64(pass.tombstones);
        h.finish()
    }

    fn check(&self, i: &Inputs, pass: &Pass) -> Result<u64, String> {
        // A served answer must match a one-shot `kneighbors` over
        // `MutableDataset::rebuild()` at the request's WAL prefix, up to
        // ties: the engine scores base and fresh rows in separate arms.
        let mut checked: Vec<_> = pass
            .run
            .report
            .responses
            .iter()
            .filter(|x| x.id % CHECK_EVERY as u64 == 0)
            .collect();
        checked.sort_by_key(|x| (i.prefix(x.arrival_s), x.id));
        let mut ds = MutableDataset::new(i.base.clone());
        let mut wrong = 0;
        for x in checked {
            i.advance(&mut ds, i.prefix(x.arrival_s))?;
            let nn = i.proto.clone().fit(ds.rebuild());
            let want = nn
                .kneighbors(&i.requests[x.id as usize].row, K)
                .map_err(|e| format!("oracle for request {}: {e}", x.id))?;
            let want: Vec<(usize, f32)> = want.indices[0]
                .iter()
                .copied()
                .zip(want.distances[0].iter().copied())
                .collect();
            if !agrees(&x.indices, &x.distances, &want) {
                eprintln!(
                    "perfbench: serve_ingest request {} disagrees with the rebuild oracle",
                    x.id
                );
                wrong += 1;
            }
        }
        Ok(wrong)
    }

    fn metrics(&self, i: &Inputs, pass: &Pass, m: &mut Metrics) {
        m.set("datasets.nnz", i.matrix.nnz() as f64);
        m.set("sim_s", pass.run.report.busy_seconds);
        serve_metrics(&pass.run, m);
        admission_and_cache_metrics(std::slice::from_ref(&pass.run), m);
        m.set("wal.appended", pass.wal.appended as f64);
        m.set("wal.applied", pass.wal.applied as f64);
        m.set("wal.rejected", pass.wal.rejected as f64);
        m.set("wal.fresh_scans", pass.fresh_scans as f64);
        m.set("wal.fresh_rows", pass.fresh_rows);
        m.set("wal.tombstones", pass.tombstones);
        m.set("compact.started", pass.compactions_started as f64);
        m.set("compact.completed", pass.compactions.len() as f64);
        m.set("compact.sim_s", pass.compactions.iter().map(|c| c.0).sum());
        m.set(
            "compact.lag_s",
            pass.compactions.iter().map(|c| c.1).fold(0.0, f64::max),
        );
    }

    fn traced(
        &self,
        i: &Inputs,
        pass: &Pass,
        spans: &mut Spans,
        m: &mut Metrics,
    ) -> Result<(), String> {
        // Re-drive each served batch once over the live matrix at its
        // WAL prefix: what a plain k-NN over the same rows costs. The
        // replay's remaining host time is the segment machinery.
        let mut ds = MutableDataset::new(i.base.clone());
        let mut nn = None;
        for batch in batches(&pass.run.report.responses) {
            let last = batch.last().expect("non-empty batch");
            let prefix = i.prefix(last.arrival_s);
            if nn.is_none() || prefix != ds.log_position() as usize {
                spans.span("segment.apply", None, |_| i.advance(&mut ds, prefix))?;
                let live = spans.span("segment.rebuild", None, |_| ds.rebuild());
                let fitted = estimator(&live);
                let shards = spans.span("neighbors.prepare", None, |_| prepare(&fitted, &i.multi));
                nn = Some((fitted, shards.map_err(|e| e.to_string())?));
            }
            let (fitted, shards) = nn.as_ref().expect("built above");
            let rows: Vec<&CsrMatrix<f32>> = batch
                .iter()
                .map(|x| &i.requests[x.id as usize].row)
                .collect();
            let query = stack(&rows, ds.cols());
            redrive(spans, fitted, shards, &query, Some(batch[0].id))?;
        }
        set_redrive_metrics(spans, m, false);
        let replay = pass.run.host_s;
        m.set(
            "serve.engine_self_frac",
            1.0 - spans.total("neighbors.kneighbors") / replay,
        );
        m.set(
            "segment.apply_host_frac",
            spans.total("segment.apply") / replay,
        );
        m.set(
            "segment.rebuild_host_frac",
            spans.total("segment.rebuild") / replay,
        );
        Ok(())
    }

    #[cfg(test)]
    fn corrupt(&self, pass: &mut Pass) {
        let x = pass
            .run
            .report
            .responses
            .iter_mut()
            .find(|x| x.id % CHECK_EVERY as u64 == 0)
            .expect("a checked response");
        x.distances[0] += 1.0;
    }
}
