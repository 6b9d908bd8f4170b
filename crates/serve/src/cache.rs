//! LRU cache of prepared index shard sets, evicting against a simulated
//! device-memory budget.

use crate::fingerprint::fingerprint_with_generation;
use kernels::KernelError;
use neighbors::{MultiDevice, NearestNeighbors, PreparedShards};
use sparse::Real;
use std::sync::Arc;

/// Cache key: the dataset's content fingerprint plus every knob that
/// changes the prepared artifact (pool size and slab geometry — the
/// metric only changes which norms get warmed, and norms accumulate
/// per-kind inside one prepared entry, so it is deliberately *not* part
/// of the key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`crate::fingerprint::fingerprint`] of the index matrix.
    pub fingerprint: u64,
    /// Devices in the pool the shards are pinned to.
    pub devices: usize,
    /// Explicit slab-rows override, if the estimator has one.
    pub index_batch_rows: Option<usize>,
}

/// Hit/miss/eviction counters, reported by the serve CLI and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to prepare (upload + warm) a new entry.
    pub misses: u64,
    /// Entries evicted to fit the memory budget.
    pub evictions: u64,
    /// Entries whose byte accounting was touched while reclaiming
    /// budget. With incremental resident-byte tracking this equals
    /// `evictions` exactly; the old implementation re-summed every
    /// resident entry per eviction, which would have made a cold burst
    /// of E evictions cost O(E²) probes. Regression-guarded in tests.
    pub eviction_probes: u64,
}

/// The outcome of one cache lookup, consumed by the request engine's
/// span events and metrics registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheOutcome {
    /// Whether the lookup was answered from the cache.
    pub hit: bool,
    /// Entries evicted by this lookup (0 on hits).
    pub evictions: u64,
    /// Simulated seconds spent warming norms (0.0 on hits).
    pub warm_seconds: f64,
}

struct CacheEntry<T> {
    key: CacheKey,
    shards: Arc<PreparedShards<T>>,
    bytes: usize,
}

/// An LRU cache of [`PreparedShards`] keyed by dataset fingerprint.
///
/// Entries are charged their simulated device footprint (uploads plus
/// norm vectors); inserting past `budget_bytes` evicts least-recently
/// used entries first. A single entry larger than the whole budget is
/// still admitted (the alternative is not serving at all) — it simply
/// evicts everything else and is replaced as soon as a different index
/// is requested.
pub struct PreparedCache<T> {
    budget_bytes: usize,
    // Most-recently-used entry last; eviction pops from the front.
    // A Vec keeps iteration order deterministic (no hash-map ordering).
    entries: Vec<CacheEntry<T>>,
    // Incrementally-maintained sum of entry bytes. Re-summing the entry
    // list inside the eviction loop made a cold burst O(n²).
    resident: usize,
    stats: CacheStats,
}

impl<T: Real> PreparedCache<T> {
    /// Creates a cache with an explicit byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            entries: Vec::new(),
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache budgeted at half the pool's first device's
    /// global memory ([`gpu_sim::DeviceSpec::mem_bytes`]) — the other
    /// half is left for query uploads and dense output tiles.
    pub fn for_pool(multi: &MultiDevice) -> Self {
        let mem = multi
            .devices()
            .first()
            .map(|d| d.spec().mem_bytes)
            .unwrap_or(16 * 1024 * 1024 * 1024);
        Self::new(mem / 2)
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently held by cached entries. O(1): the total is
    /// maintained incrementally across inserts and evictions.
    pub fn resident_bytes(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.entries.iter().map(|e| e.bytes).sum::<usize>(),
            "incremental resident-byte accounting drifted"
        );
        self.resident
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry and keeps the counters: the request engine's
    /// device pool was swapped, and prepared shards pin their devices.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.resident = 0;
    }

    /// Looks up (or prepares, on miss) the shard set for `nn`'s fitted
    /// index over `multi`. On a miss the index is sliced, uploaded, and
    /// its norms warmed; the returned [`CacheOutcome`] carries the
    /// simulated warming time (0.0 on a hit), which the request engine
    /// charges to the batch that triggered the miss, plus the hit flag
    /// and eviction count its span events and metrics report.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the norm-warming launches.
    ///
    /// # Panics
    ///
    /// Panics if `nn` has not been fitted.
    pub fn lookup(
        &mut self,
        nn: &NearestNeighbors<T>,
        multi: &MultiDevice,
    ) -> Result<(Arc<PreparedShards<T>>, CacheOutcome), KernelError> {
        self.lookup_generation(nn, multi, 0)
    }

    /// [`Self::lookup`] for a specific compaction generation of a
    /// mutable dataset (DESIGN §16). The generation is folded into the
    /// cache key via [`fingerprint_with_generation`], so a re-compacted
    /// base whose bytes coincide with an earlier generation (most
    /// plainly: an empty one) still gets its own entry, and the
    /// compactor's atomic swap is just "start looking up gen+1".
    /// Immutable callers are generation 0.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the norm-warming launches.
    ///
    /// # Panics
    ///
    /// Panics if `nn` has not been fitted.
    pub fn lookup_generation(
        &mut self,
        nn: &NearestNeighbors<T>,
        multi: &MultiDevice,
        generation: u64,
    ) -> Result<(Arc<PreparedShards<T>>, CacheOutcome), KernelError> {
        let index = nn.index().expect("fit() the estimator before serving");
        self.lookup_fingerprinted(nn, multi, fingerprint_with_generation(index, generation))
    }

    /// [`Self::lookup_generation`] with the key's fingerprint supplied
    /// by the caller, who must have computed it as
    /// [`fingerprint_with_generation`] of `nn`'s index. The request
    /// engine memoises that value per (dataset, generation) — the
    /// index cannot change within a generation — so a batch does not
    /// re-hash the whole matrix.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the norm-warming launches.
    pub(crate) fn lookup_fingerprinted(
        &mut self,
        nn: &NearestNeighbors<T>,
        multi: &MultiDevice,
        fingerprint: u64,
    ) -> Result<(Arc<PreparedShards<T>>, CacheOutcome), KernelError> {
        let key = CacheKey {
            fingerprint,
            devices: multi.len(),
            index_batch_rows: nn.index_slab_rows(),
        };
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            // Refresh recency: move to the back.
            let entry = self.entries.remove(pos);
            let shards = Arc::clone(&entry.shards);
            self.entries.push(entry);
            self.stats.hits += 1;
            return Ok((
                shards,
                CacheOutcome {
                    hit: true,
                    evictions: 0,
                    warm_seconds: 0.0,
                },
            ));
        }
        self.stats.misses += 1;
        let shards = Arc::new(nn.prepare_shards(multi));
        let (warm_seconds, _) = nn.warm_shards(&shards)?;
        let bytes = shards.device_bytes();
        let mut evictions = 0u64;
        while !self.entries.is_empty() && self.resident + bytes > self.budget_bytes {
            // One O(1) accounting probe per evicted entry — `resident`
            // is already maintained, so a burst of E evictions does
            // exactly E probes (the counter the regression test pins).
            let evicted = self.entries.remove(0);
            self.resident -= evicted.bytes;
            self.stats.evictions += 1;
            self.stats.eviction_probes += 1;
            evictions += 1;
        }
        self.resident += bytes;
        self.entries.push(CacheEntry {
            key,
            shards: Arc::clone(&shards),
            bytes,
        });
        Ok((
            shards,
            CacheOutcome {
                hit: false,
                evictions,
                warm_seconds,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use semiring::Distance;
    use sparse::CsrMatrix;

    fn dataset(rows: usize, salt: f64) -> CsrMatrix<f64> {
        let mut data = vec![0.0; rows * 8];
        for r in 0..rows {
            for c in 0..8 {
                if (r + c) % 3 == 0 {
                    data[r * 8 + c] = salt + (r as f64) / 7.0 + (c as f64) / 31.0;
                }
            }
        }
        CsrMatrix::from_dense(rows, 8, &data)
    }

    #[test]
    fn hit_on_identical_content_miss_on_different() {
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let mut cache = PreparedCache::new(usize::MAX);
        let nn_a = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 1.0));
        let nn_b = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 2.0));
        let (_, first) = cache.lookup(&nn_a, &multi).expect("ok");
        assert!(first.warm_seconds > 0.0, "miss warms norms");
        let (_, again) = cache.lookup(&nn_a, &multi).expect("ok");
        assert_eq!(again.warm_seconds, 0.0, "hit is free");
        cache.lookup(&nn_b, &multi).expect("ok");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_oldest_when_over_budget() {
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let nn_a = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 1.0));
        let nn_b = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 2.0));
        // Budget sized so exactly one prepared entry fits.
        let probe = nn_a.prepare_shards(&multi);
        let mut cache = PreparedCache::new(probe.device_bytes() + 1);
        cache.lookup(&nn_a, &multi).expect("ok");
        cache.lookup(&nn_b, &multi).expect("ok");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
        // A is gone: touching it again is a miss (and evicts B).
        let (_, again) = cache.lookup(&nn_a, &multi).expect("ok");
        assert!(again.warm_seconds > 0.0);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn pool_budget_comes_from_the_device_spec() {
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let cache = PreparedCache::<f64>::for_pool(&multi);
        assert_eq!(cache.budget_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn zero_byte_budget_still_serves_and_never_panics() {
        // Degenerate budget: every entry is oversized, so each lookup
        // evicts whatever is resident and admits the new entry anyway
        // (serving beats refusing). Deterministic, no panic.
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let mut cache = PreparedCache::new(0);
        let nn_a = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 1.0));
        let nn_b = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 2.0));
        let (shards_a, first) = cache.lookup(&nn_a, &multi).expect("ok");
        assert!(first.warm_seconds > 0.0);
        assert_eq!(cache.len(), 1, "oversized entry is still admitted");
        assert!(cache.resident_bytes() > cache.budget_bytes());
        let (_, outcome) = cache.lookup(&nn_b, &multi).expect("ok");
        assert!(!outcome.hit);
        assert_eq!(outcome.evictions, 1, "the resident entry is evicted");
        assert_eq!(cache.len(), 1);
        // The evicted Arc stays usable by whoever still holds it.
        let r = nn_a
            .kneighbors_prepared(&shards_a, &dataset(6, 1.0), 2)
            .expect("stale shards still serve");
        assert_eq!(r.indices.len(), 6);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 2, 1));
    }

    #[test]
    fn single_dataset_larger_than_the_whole_budget_is_admitted_once() {
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(8, 1.0));
        let bytes = nn.prepare_shards(&multi).device_bytes();
        // Budget strictly smaller than the one dataset we serve.
        let mut cache = PreparedCache::new(bytes / 2);
        let (_, first) = cache.lookup(&nn, &multi).expect("ok");
        assert!(!first.hit);
        assert_eq!(cache.len(), 1);
        // Repeated lookups of the same oversized entry are hits — it is
        // never self-evicted, so an over-budget tenant does not thrash.
        for _ in 0..3 {
            let (_, again) = cache.lookup(&nn, &multi).expect("ok");
            assert!(again.hit, "oversized resident entry must hit");
            assert_eq!(again.evictions, 0);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 0));
    }

    #[test]
    fn burst_eviction_does_linear_accounting_work() {
        // Regression guard for the O(n²) eviction loop: admitting an
        // entry that forces E evictions must touch each victim's byte
        // accounting exactly once (E probes), not re-walk the resident
        // list per victim (which totals E·(E+1)/2 probes and made cold
        // bursts quadratic).
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let fits: Vec<_> = (0..6)
            .map(|i| {
                NearestNeighbors::new(Device::volta(), Distance::Euclidean)
                    .fit(dataset(6, 1.0 + i as f64))
            })
            .collect();
        let one = fits[0].prepare_shards(&multi).device_bytes();
        // Budget holds five entries; the sixth (slightly larger set
        // below) forces a multi-entry burst in a single lookup.
        let mut cache = PreparedCache::new(5 * one + 1);
        for nn in &fits[..5] {
            cache.lookup(nn, &multi).expect("ok");
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().evictions, 0);
        // A larger entry that needs more than one entry's worth of
        // space reclaimed: every eviction in the burst must cost
        // exactly one probe.
        let big = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(24, 9.0));
        cache.lookup(&big, &multi).expect("ok");
        let s = cache.stats();
        assert!(s.evictions >= 2, "burst expected: {s:?}");
        assert_eq!(
            s.evictions, s.eviction_probes,
            "eviction accounting must be O(E): {s:?}"
        );
        let check = cache.resident_bytes();
        assert!(check <= 5 * one + 1 || cache.len() == 1, "budget respected");
    }

    #[test]
    fn generations_get_distinct_entries_for_identical_bytes() {
        // The compactor's atomic swap relies on (content, generation)
        // keys: the same bytes looked up under a new generation is a
        // miss (its own prepared artifact), and both generations then
        // hit independently.
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let mut cache = PreparedCache::new(usize::MAX);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 1.0));
        let (_, g0) = cache.lookup_generation(&nn, &multi, 0).expect("ok");
        assert!(!g0.hit);
        let (_, g1) = cache.lookup_generation(&nn, &multi, 1).expect("ok");
        assert!(!g1.hit, "new generation must not alias the old entry");
        assert_eq!(cache.len(), 2);
        let (_, g0_again) = cache.lookup_generation(&nn, &multi, 0).expect("ok");
        let (_, g1_again) = cache.lookup_generation(&nn, &multi, 1).expect("ok");
        assert!(g0_again.hit && g1_again.hit);
        // Plain lookup is generation 0.
        let (_, plain) = cache.lookup(&nn, &multi).expect("ok");
        assert!(plain.hit);
    }

    #[test]
    fn eviction_racing_warm_shards_on_a_stale_handle_is_deterministic() {
        // The "race": a caller holds the Arc from a lookup while later
        // lookups evict that entry from the cache. The simulated-device
        // buffers are owned by the Arc, so warming and querying the
        // stale handle must keep working, byte-identical to a fresh
        // prepare — eviction only drops the cache's reference.
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let nn_a = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 1.0));
        let nn_b = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(dataset(6, 2.0));
        let probe = nn_a.prepare_shards(&multi).device_bytes();
        let mut cache = PreparedCache::new(probe + 1);
        let (stale, _) = cache.lookup(&nn_a, &multi).expect("ok");
        // Evict A by inserting B into the one-entry budget.
        cache.lookup(&nn_b, &multi).expect("ok");
        assert_eq!(cache.stats().evictions, 1);
        // Re-warming the stale handle after its eviction: idempotent
        // (norms are already warmed, so zero additional sim time).
        let (rewarm_s, launches) = nn_a.warm_shards(&stale).expect("warm after evict");
        assert_eq!(rewarm_s, 0.0, "already-warm shards cost nothing");
        assert_eq!(launches, 0);
        let query = dataset(6, 1.0);
        let via_stale = nn_a.kneighbors_prepared(&stale, &query, 3).expect("ok");
        let fresh = nn_a.kneighbors_sharded(&multi, &query, 3).expect("ok");
        assert_eq!(via_stale.indices, fresh.indices);
        for (a, b) in via_stale.distances.iter().zip(&fresh.distances) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "stale handle must serve bytes");
            }
        }
    }
}
