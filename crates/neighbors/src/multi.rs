//! Multi-device sharding for batched k-NN queries.
//!
//! Related SpGEMM-on-semirings work scales past one accelerator by
//! sharding the computation across devices and merging partial results;
//! the same shape applies to our batched k-NN tiles. A [`MultiDevice`]
//! holds N simulated device replicas; a sharded query splits the index
//! into contiguous row slabs, assigns slab `j` to device `j % N`
//! (round-robin), and runs them through the crate's one shard runner
//! ([`crate::prepared`]) — the same pairwise-distance + top-k tiles and
//! the same canonical `(distance, index)` merge a one-device query
//! runs, so sharded results are identical to unsharded ones.
//!
//! Simulated time models the devices running concurrently:
//! [`KnnResult::sim_seconds`] for a sharded query is the *maximum* of
//! the per-device totals, while [`KnnResult::per_device_seconds`] keeps
//! the full vector for scaling studies (the `shard_scaling` bench bin).
//! Host wall-clock still executes devices in turn; combine `--devices`
//! with `--host-threads` (or `GPU_SIM_HOST_THREADS`) to parallelize the
//! blocks of each launch on the host.

use crate::knn::{KnnResult, NearestNeighbors};
use gpu_sim::Device;
use kernels::KernelError;
use sparse::{CsrMatrix, Real};

/// A fixed-size pool of simulated devices used to shard k-NN queries.
#[derive(Debug, Clone)]
pub struct MultiDevice {
    devices: Vec<Device>,
}

impl MultiDevice {
    /// Builds a pool of `n` replicas of `proto` (spec, sanitizer,
    /// profiler, watchdog). A fault plan on `proto` is re-armed per
    /// replica with an independent launch-ordinal counter, so each
    /// device sees the same deterministic fault sequence it would see
    /// running alone — sharding does not reshuffle injected faults.
    pub fn replicate(proto: &Device, n: usize) -> Self {
        let devices = (0..n.max(1))
            .map(|_| {
                let replica = proto.clone();
                match proto.fault_plan() {
                    Some(plan) => replica.with_fault_plan(plan.clone()),
                    None => replica,
                }
            })
            .collect();
        Self { devices }
    }

    /// The devices in the pool.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of devices in the pool (at least 1).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: [`MultiDevice::replicate`] clamps the pool to at
    /// least one device.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

impl<T: Real> NearestNeighbors<T> {
    /// [`NearestNeighbors::kneighbors`], sharded across a device pool.
    ///
    /// The index is split into contiguous slabs
    /// ([`NearestNeighbors::with_index_batch_rows`], defaulting to one
    /// slab per device) assigned round-robin; per-slab top-k candidates
    /// are merged by `(distance, index)` and truncated to `k` by the
    /// same shard runner [`NearestNeighbors::kneighbors`] uses, so
    /// results are identical to it on one device. Per-tile
    /// [`kernels::ResilienceReport`]s are concatenated in slab order.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any shard produces.
    ///
    /// # Panics
    ///
    /// Panics if the estimator has not been [`NearestNeighbors::fit`].
    pub fn kneighbors_sharded(
        &self,
        multi: &MultiDevice,
        query: &CsrMatrix<T>,
        k: usize,
    ) -> Result<KnnResult<T>, KernelError> {
        // One-shot: prepare the shard set fresh, query it once, drop it.
        // The serving layer builds the same [`crate::PreparedShards`]
        // once and keeps it cached across queries; both run through the
        // same shard runner, so results are byte-identical.
        self.kneighbors_prepared(&self.prepare_shards(multi), query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::Distance;

    fn dataset() -> CsrMatrix<f64> {
        let mut data = vec![0.0; 120];
        for r in 0..12 {
            for c in 0..10 {
                if (r + 2 * c) % 4 == 0 {
                    data[r * 10 + c] = 1.0 + (r as f64) / 7.0 + (c as f64) / 31.0;
                }
            }
        }
        CsrMatrix::from_dense(12, 10, &data)
    }

    #[test]
    fn sharded_results_match_single_device() {
        let m = dataset();
        for d in [Distance::Euclidean, Distance::Cosine] {
            let single = NearestNeighbors::new(Device::volta(), d)
                .fit(m.clone())
                .kneighbors(&m, 4)
                .expect("ok");
            for devices in [1usize, 2, 3, 4, 5] {
                let multi = MultiDevice::replicate(&Device::volta(), devices);
                let sharded = NearestNeighbors::new(Device::volta(), d)
                    .fit(m.clone())
                    .kneighbors_sharded(&multi, &m, 4)
                    .expect("ok");
                assert_eq!(single.indices, sharded.indices, "{d} x{devices}");
                for (a, b) in single.distances.iter().zip(&sharded.distances) {
                    for (x, y) in a.iter().zip(b) {
                        assert!((x - y).abs() < 1e-9, "{d} x{devices}");
                    }
                }
            }
        }
    }

    #[test]
    fn sharding_attributes_time_per_device_and_takes_the_max() {
        let m = dataset();
        let multi = MultiDevice::replicate(&Device::volta(), 3);
        let r = NearestNeighbors::new(Device::volta(), Distance::Manhattan)
            .fit(m.clone())
            .kneighbors_sharded(&multi, &m, 3)
            .expect("ok");
        assert_eq!(r.devices, 3);
        assert_eq!(r.per_device_seconds.len(), 3);
        assert!(r.per_device_seconds.iter().all(|&s| s > 0.0));
        let max = r.per_device_seconds.iter().cloned().fold(0.0, f64::max);
        assert_eq!(r.sim_seconds, max);
        let sum: f64 = r.per_device_seconds.iter().sum();
        assert!(r.sim_seconds < sum, "concurrent devices overlap in time");
    }

    #[test]
    fn round_robin_respects_explicit_slab_rows() {
        let m = dataset();
        // 12 rows / slabs of 2 = 6 slabs over 2 devices (3 each).
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let r = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
            .with_index_batch_rows(2)
            .fit(m.clone())
            .kneighbors_sharded(&multi, &m, 4)
            .expect("ok");
        assert_eq!(r.batches, 6);
        let whole = NearestNeighbors::new(Device::volta(), Distance::Euclidean)
            .fit(m.clone())
            .kneighbors(&m, 4)
            .expect("ok");
        assert_eq!(whole.indices, r.indices);
    }

    #[test]
    fn single_device_pool_delegates_to_plain_path() {
        let m = dataset();
        let multi = MultiDevice::replicate(&Device::volta(), 1);
        let r = NearestNeighbors::new(Device::volta(), Distance::Cosine)
            .fit(m.clone())
            .kneighbors_sharded(&multi, &m, 2)
            .expect("ok");
        assert_eq!(r.devices, 1);
        assert_eq!(r.per_device_seconds.len(), 1);
    }
}
