//! Prepared, device-resident shard sets and the one k-NN shard loop.
//!
//! A one-shot [`NearestNeighbors::kneighbors_sharded`] call validates,
//! slices, and uploads the index every time it runs — fine for a batch
//! job, wasteful for a serving loop answering many small queries against
//! the same index. [`PreparedShards`] captures everything that per-query
//! work produces: the slab decomposition, the round-robin device
//! assignment, and one [`kernels::PreparedIndex`] per slab (device CSR +
//! COO uploads plus lazily cached row norms). Build it once with
//! [`NearestNeighbors::prepare_shards`], then answer any number of
//! queries with [`NearestNeighbors::kneighbors_prepared`].
//!
//! Every k-NN query in this crate runs through one shard runner:
//! [`NearestNeighbors::kneighbors`] (a one-device pool holding the
//! estimator's own device), [`NearestNeighbors::kneighbors_sharded`],
//! [`NearestNeighbors::kneighbors_prepared`], and the IVF tier's fit,
//! probe and rerank. For each shard it batches the query rows the shard
//! sees so the dense distance tile fits the estimator's byte budget
//! (§4.2), runs the distance tile and the device top-k selection, maps
//! the shard's local rows back to global row ids, and merges every
//! shard's candidates under the canonical [`sparse::cmp_dist_idx`]
//! order. Results from a prepared query are therefore byte-identical to
//! the one-shot paths on the same pool by construction — the DESIGN §10
//! determinism contract extended to the serving layer.

use crate::knn::{KnnResult, NearestNeighbors};
use crate::multi::MultiDevice;
use gpu_sim::{Device, LaunchStats};
use kernels::{
    pairwise_distances_prepared, retry_transient, top_k_kernel, KernelError, MemoryFootprint,
    PreparedIndex, ResiliencePolicy, ResilienceReport,
};
use sparse::{cmp_dist_idx, CsrMatrix, Idx, Real, RowBatches};
use std::sync::Arc;

/// One index slab, pinned to a device in the pool.
#[derive(Debug, Clone)]
pub struct PreparedShard<T> {
    /// Global index row id of each of the slab's rows, ascending: a
    /// contiguous range for the exact paths, a posting list for IVF.
    pub(crate) ids: Arc<[usize]>,
    /// Position of the owning device in the pool.
    pub device_slot: usize,
    /// The device this slab's uploads live on.
    pub device: Device,
    /// The slab's uploads and cached norms.
    pub index: Arc<PreparedIndex<T>>,
}

impl<T: Real> PreparedShard<T> {
    /// Uploads `rows` (global ids `ids`) to device `slot % pool.len()`.
    pub(crate) fn upload(
        pool: &[Device],
        slot: usize,
        rows: CsrMatrix<T>,
        ids: Arc<[usize]>,
    ) -> Self {
        let device_slot = slot % pool.len();
        let device = pool[device_slot].clone();
        Self {
            ids,
            device_slot,
            index: Arc::new(PreparedIndex::new(&device, rows)),
            device,
        }
    }

    /// Simulated device bytes: the uploads plus one norm vector.
    pub(crate) fn device_bytes(&self) -> usize {
        self.index.upload_bytes() + self.ids.len() * std::mem::size_of::<T>()
    }
}

/// An index prepared for repeated sharded queries: slab decomposition,
/// device assignment, and per-slab uploads, built once and reused.
#[derive(Debug, Clone)]
pub struct PreparedShards<T> {
    pool: Vec<Device>,
    shards: Vec<PreparedShard<T>>,
    index_rows: usize,
    cols: usize,
}

impl<T: Real> PreparedShards<T> {
    /// Number of devices in the pool the shards are pinned to.
    pub fn devices(&self) -> usize {
        self.pool.len()
    }

    /// Total index rows covered by the shards.
    pub fn index_rows(&self) -> usize {
        self.index_rows
    }

    /// Index dimensionality.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The prepared slabs, in index-row order.
    pub fn shards(&self) -> &[PreparedShard<T>] {
        &self.shards
    }

    /// Simulated device bytes held by the prepared uploads (CSR + COO
    /// per slab, plus one norm vector per warmed norm kind). This is
    /// what a prepared-index cache charges against its memory budget.
    pub fn device_bytes(&self) -> usize {
        self.shards.iter().map(PreparedShard::device_bytes).sum()
    }
}

/// Gathers `ids` (any order, duplicates allowed) of `m` into a new CSR
/// matrix, one output row per id.
pub(crate) fn gather_rows<T: Real>(m: &CsrMatrix<T>, ids: &[usize]) -> CsrMatrix<T> {
    let mut indptr = Vec::with_capacity(ids.len() + 1);
    indptr.push(0);
    let mut indices: Vec<Idx> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    for &r in ids {
        indices.extend_from_slice(m.row_indices(r));
        values.extend_from_slice(m.row_values(r));
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(ids.len(), m.cols(), indptr, indices, values)
        .expect("gathered rows of a valid CSR form a valid CSR")
}

/// The one k-NN shard loop. Each [`ShardRunner::run`] scans query rows
/// against shards and returns every row's merged top-k; the runner
/// accumulates the bookkeeping of all its runs — per-device simulated
/// seconds (summed per shard, then added to the shard's device in shard
/// order), tile count, peak memory, launches and resilience reports —
/// and [`ShardRunner::finish`] turns it into a [`KnnResult`] whose
/// `sim_seconds` is the busiest device's total (devices run
/// concurrently).
pub(crate) struct ShardRunner<'a, T> {
    nn: &'a NearestNeighbors<T>,
    per_device_seconds: Vec<f64>,
    batches: usize,
    peak: MemoryFootprint,
    launches: Vec<LaunchStats>,
    resilience: Vec<ResilienceReport>,
}

impl<'a, T: Real> ShardRunner<'a, T> {
    /// A runner for `nn`'s distance and options over a pool of
    /// `devices` devices.
    pub(crate) fn new(nn: &'a NearestNeighbors<T>, devices: usize) -> Self {
        Self {
            nn,
            per_device_seconds: vec![0.0; devices],
            batches: 0,
            peak: MemoryFootprint::default(),
            launches: Vec::new(),
            resilience: Vec::new(),
        }
    }

    /// Scans each `(shard, rows)` pair in order — `rows` lists the query
    /// rows the shard sees (ascending), `None` means all of them — and
    /// returns, per query row, its `k` best candidates as `(global row
    /// id, distance)` under [`cmp_dist_idx`].
    pub(crate) fn run<'s>(
        &mut self,
        query: &CsrMatrix<T>,
        work: impl IntoIterator<Item = (&'s PreparedShard<T>, Option<&'s [usize]>)>,
        k: usize,
    ) -> Result<Vec<Vec<(usize, T)>>, KernelError>
    where
        T: 's,
    {
        let nn = self.nn;
        let mut pool: Vec<Vec<(usize, T)>> = vec![Vec::new(); query.rows()];
        for (shard, rows) in work {
            let gathered;
            let seen = match rows {
                Some(rows) => {
                    gathered = gather_rows(query, rows);
                    &gathered
                }
                None => query,
            };
            let width = shard.ids.len().max(1);
            let mut seconds = 0.0;
            for q_range in RowBatches::for_matrix(seen, width, nn.batch_bytes) {
                let slab = seen.slice_rows(q_range.clone());
                let mut tile = pairwise_distances_prepared(
                    &shard.device,
                    &slab,
                    &shard.index,
                    nn.metric(),
                    &nn.params,
                    nn.pairwise_options(),
                )?;
                // The selection retries transient faults in any of its
                // launches as a whole under the tile's policy, recorded
                // in the tile's own report.
                let kk = k.min(tile.cols.max(1));
                let select = || top_k_kernel(&shard.device, &tile.buffer, tile.rows, tile.cols, kk);
                let (didx, dval, sel_stats) =
                    match (&nn.pairwise_options().resilience, &mut tile.resilience) {
                        (Some(policy), Some(report)) => retry_transient(policy, report, select)?,
                        _ => select()?,
                    };
                seconds += tile.sim_seconds();
                for s in &sel_stats {
                    seconds += s.sim_seconds();
                }
                self.batches += 1;
                if let Some(r) = tile.resilience.take() {
                    self.resilience.push(r);
                }
                let peak = &mut self.peak;
                peak.input_bytes = peak.input_bytes.max(tile.memory.input_bytes);
                peak.output_bytes = peak.output_bytes.max(tile.memory.output_bytes);
                peak.workspace_bytes = peak.workspace_bytes.max(tile.memory.workspace_bytes);

                let didx = didx.to_vec();
                let dval = dval.to_vec();
                for (r, q) in q_range.enumerate() {
                    let q = rows.map_or(q, |rows| rows[q]);
                    for s in r * kk..(r + 1) * kk {
                        if didx[s] != u32::MAX {
                            pool[q].push((shard.ids[didx[s] as usize], dval[s]));
                        }
                    }
                }
                self.launches.extend(tile.launches);
                self.launches.extend(sel_stats);
            }
            self.per_device_seconds[shard.device_slot] += seconds;
        }
        // `cmp_dist_idx` (not `partial_cmp().unwrap_or(Equal)`) matters
        // here: a NaN candidate from one shard must not be able to
        // displace a finite candidate from another just because of shard
        // order.
        for cand in &mut pool {
            cand.sort_by(cmp_dist_idx);
            cand.truncate(k);
        }
        Ok(pool)
    }

    /// The accumulated bookkeeping, with `answer` (from
    /// [`ShardRunner::run`]) as the result rows.
    pub(crate) fn finish(self, answer: Vec<Vec<(usize, T)>>) -> KnnResult<T> {
        let (indices, distances) = answer.into_iter().map(|c| c.into_iter().unzip()).unzip();
        KnnResult {
            indices,
            distances,
            sim_seconds: self.per_device_seconds.iter().cloned().fold(0.0, f64::max),
            batches: self.batches,
            peak_memory: self.peak,
            launches: self.launches,
            resilience: self.resilience,
            devices: self.per_device_seconds.len(),
            per_device_seconds: self.per_device_seconds,
        }
    }
}

impl<T: Real> NearestNeighbors<T> {
    /// Builds the prepared shard set for this estimator's fitted index
    /// over `multi`: contiguous slabs
    /// ([`NearestNeighbors::with_index_batch_rows`], defaulting to one
    /// slab per device) assigned round-robin, slab `j` to device
    /// `j % N`, each uploaded to its device exactly once.
    ///
    /// Uploads are free in simulated time; the first query against each
    /// slab additionally pays one norm launch per norm kind the distance
    /// needs (or pre-pay it with [`NearestNeighbors::warm_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if the estimator has not been [`NearestNeighbors::fit`].
    pub fn prepare_shards(&self, multi: &MultiDevice) -> PreparedShards<T> {
        self.prepare_on(multi.devices())
    }

    /// [`NearestNeighbors::prepare_shards`] over the devices of `pool`
    /// as they are (no fault-plan re-arming).
    pub(crate) fn prepare_on(&self, pool: &[Device]) -> PreparedShards<T> {
        let index = self.index().expect("call fit() before querying");
        let n = index.rows();
        let slab_rows = self.shard_slab_rows(n, pool.len());
        let shards = (0..n)
            .step_by(slab_rows)
            .enumerate()
            .map(|(slab, off)| {
                let end = (off + slab_rows).min(n);
                PreparedShard::upload(pool, slab, index.slice_rows(off..end), (off..end).collect())
            })
            .collect();
        PreparedShards {
            pool: pool.to_vec(),
            shards,
            index_rows: n,
            cols: index.cols(),
        }
    }

    /// Pre-computes every norm kind this estimator's distance needs on
    /// every shard, so no query pays the first-use norm launches.
    /// Returns the simulated seconds spent and the number of norm
    /// launches executed (zero when the distance is norm-free or the
    /// norms were already cached).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Launch`] when a norm kernel's launch is
    /// rejected by the simulator.
    pub fn warm_shards(&self, shards: &PreparedShards<T>) -> Result<(f64, usize), KernelError> {
        // Transient faults on the warming launches honor the estimator's
        // resilience retry budget, the same absorption the norm launches
        // get when they run lazily inside the tile cascade. Warming
        // belongs to no tile, so its retry record is dropped.
        let policy = self
            .pairwise_options()
            .resilience
            .unwrap_or(ResiliencePolicy::with_retries(0));
        let mut absorbed = ResilienceReport::default();
        let mut seconds = 0.0;
        let mut launches = 0;
        for shard in &shards.shards {
            for &kind in self.metric().norms() {
                let (_, stats) = retry_transient(&policy, &mut absorbed, || {
                    shard.index.norm(&shard.device, kind)
                })?;
                if let Some(stats) = stats {
                    seconds += stats.sim_seconds();
                    launches += 1;
                }
            }
        }
        Ok((seconds, launches))
    }

    /// [`NearestNeighbors::kneighbors_sharded`] against an already
    /// prepared shard set: identical results (the two share the shard
    /// runner), but uploads, slab slicing, and — once warmed — norm
    /// reductions are skipped entirely.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any shard produces.
    pub fn kneighbors_prepared(
        &self,
        shards: &PreparedShards<T>,
        query: &CsrMatrix<T>,
        k: usize,
    ) -> Result<KnnResult<T>, KernelError> {
        let mut runner = ShardRunner::new(self, shards.devices());
        let answer = runner.run(query, shards.shards.iter().map(|s| (s, None)), k)?;
        Ok(runner.finish(answer))
    }
}
