//! Prepared, device-resident shard sets reused across queries.
//!
//! A one-shot [`NearestNeighbors::kneighbors_sharded`] call validates,
//! slices, and uploads the index every time it runs — fine for a batch
//! job, wasteful for a serving loop answering many small queries against
//! the same index. [`PreparedShards`] captures everything that per-query
//! work produces: the slab decomposition (identical to the one the
//! sharded path computes), the round-robin device assignment, and one
//! [`kernels::PreparedIndex`] per slab (device CSR + COO uploads plus
//! lazily cached row norms). Build it once with
//! [`NearestNeighbors::prepare_shards`], then answer any number of
//! queries with [`NearestNeighbors::kneighbors_prepared`].
//!
//! Because both the one-shot paths and this one funnel through the same
//! `kneighbors_core` (same slab geometry, same query row-batching, same
//! canonical [`crate::topk::cmp_dist_idx`] merge), results from a
//! prepared query are byte-identical to
//! [`NearestNeighbors::kneighbors_sharded`] on the same pool — the
//! DESIGN §10 determinism contract extended to the serving layer.

use crate::knn::{KnnResult, NearestNeighbors};
use crate::multi::MultiDevice;
use crate::topk::cmp_dist_idx;
use gpu_sim::Device;
use kernels::{
    retry_transient, KernelError, MemoryFootprint, PreparedIndex, ResiliencePolicy,
    ResilienceReport,
};
use sparse::Real;
use std::sync::Arc;

/// One contiguous index slab, pinned to a device in the pool.
#[derive(Debug, Clone)]
pub struct PreparedShard<T> {
    /// First index row covered by this slab.
    pub offset: usize,
    /// Rows in this slab.
    pub rows: usize,
    /// Position of the owning device in the pool (`slab % devices`).
    pub device_slot: usize,
    /// The device this slab's uploads live on.
    pub device: Device,
    /// The slab's uploads and cached norms.
    pub index: Arc<PreparedIndex<T>>,
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
        self.shards
            .iter()
            .map(|s| s.index.upload_bytes() + s.rows * std::mem::size_of::<T>())
            .sum()
    }
}

impl<T: Real> NearestNeighbors<T> {
    /// Builds the prepared shard set for this estimator's fitted index
    /// over `multi`: the same contiguous slab decomposition and
    /// round-robin device assignment
    /// [`NearestNeighbors::kneighbors_sharded`] would compute, with each
    /// slab uploaded to its device exactly once.
    ///
    /// Uploads are free in simulated time; the first query against each
    /// slab additionally pays one norm launch per norm kind the distance
    /// needs (or pre-pay it with [`NearestNeighbors::warm_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if the estimator has not been [`NearestNeighbors::fit`].
    pub fn prepare_shards(&self, multi: &MultiDevice) -> PreparedShards<T> {
        let index = self
            .index()
            .expect("call fit() before prepare_shards()")
            .clone();
        let pool: Vec<Device> = multi.devices().to_vec();
        let nd = pool.len().max(1);
        let n = index.rows();
        let slab_rows = self.shard_slab_rows(n, nd);
        let mut shards = Vec::new();
        let mut off = 0;
        let mut slab = 0;
        while off < n {
            let end = (off + slab_rows).min(n);
            let device_slot = slab % nd;
            let device = pool[device_slot].clone();
            shards.push(PreparedShard {
                offset: off,
                rows: end - off,
                device_slot,
                device: device.clone(),
                index: Arc::new(PreparedIndex::new(&device, index.slice_rows(off..end))),
            });
            off = end;
            slab += 1;
        }
        PreparedShards {
            pool,
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
    /// prepared shard set: identical results (the two share their
    /// execution core), but uploads, slab slicing, and — once warmed —
    /// norm reductions are skipped entirely.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any shard produces.
    pub fn kneighbors_prepared(
        &self,
        shards: &PreparedShards<T>,
        query: &sparse::CsrMatrix<T>,
        k: usize,
    ) -> Result<KnnResult<T>, KernelError> {
        let nd = shards.devices();
        if nd <= 1 {
            // Single device: run all slabs in one core pass, exactly like
            // the plain kneighbors() slab loop.
            let device = shards.pool.first().cloned().unwrap_or_else(Device::volta);
            let prepared: Vec<(usize, Arc<PreparedIndex<T>>)> = shards
                .shards
                .iter()
                .map(|s| (s.offset, Arc::clone(&s.index)))
                .collect();
            return self.kneighbors_core(&device, &prepared, shards.index_rows, query, k);
        }

        let mut per_device_seconds = vec![0.0f64; nd];
        let mut batches = 0;
        let mut peak = MemoryFootprint::default();
        let mut launches = Vec::new();
        let mut resilience = Vec::new();
        let mut pool: Vec<Vec<(usize, T)>> = vec![Vec::new(); query.rows()];

        for shard in &shards.shards {
            let prepared = [(0usize, Arc::clone(&shard.index))];
            let r = self.kneighbors_core(&shard.device, &prepared, shard.rows, query, k)?;
            per_device_seconds[shard.device_slot] += r.sim_seconds;
            batches += r.batches;
            peak.input_bytes = peak.input_bytes.max(r.peak_memory.input_bytes);
            peak.output_bytes = peak.output_bytes.max(r.peak_memory.output_bytes);
            peak.workspace_bytes = peak.workspace_bytes.max(r.peak_memory.workspace_bytes);
            launches.extend(r.launches);
            resilience.extend(r.resilience);
            for (q, (ri, rd)) in r.indices.iter().zip(&r.distances).enumerate() {
                pool[q].extend(ri.iter().zip(rd).map(|(&i, &d)| (shard.offset + i, d)));
            }
        }

        let mut indices = Vec::with_capacity(query.rows());
        let mut distances = Vec::with_capacity(query.rows());
        for mut cand in pool {
            cand.sort_by(cmp_dist_idx);
            cand.truncate(k);
            indices.push(cand.iter().map(|&(i, _)| i).collect());
            distances.push(cand.into_iter().map(|(_, d)| d).collect());
        }
        let sim_seconds = per_device_seconds.iter().cloned().fold(0.0, f64::max);
        Ok(KnnResult {
            indices,
            distances,
            sim_seconds,
            batches,
            peak_memory: peak,
            launches,
            resilience,
            devices: nd,
            per_device_seconds,
        })
    }
}
