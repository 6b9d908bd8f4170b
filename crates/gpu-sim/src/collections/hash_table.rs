//! Per-block shared-memory hash table (§3.3.2).
//!
//! "Unlike many other hash table implementations on the GPU ... our
//! implementation builds an independent hash table per thread-block", with
//! a Murmur hash and linear probing. Keys and values are stored together
//! "to avoid an additional costly lookup to global memory", which is why
//! the table costs twice the shared memory of a bare column list.

use crate::device::BlockCtx;
use crate::murmur::murmur3_32;
use crate::shared::SharedArray;
use crate::warp::{lanes_from_fn, Lanes, WarpCtx, WARP_SIZE};

/// Sentinel marking an empty slot (no real column index is `u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Load factor above which probe chains degrade (§3.3.2: "Hash tables
/// have the best performance when the number of entries is less than 50%
/// of the capacity").
pub const MAX_LOAD: f64 = 0.5;

/// A per-block open-addressing hash table in shared memory, mapping `u32`
/// column indices to values.
#[derive(Debug, Clone)]
pub struct SmemHashTable<T> {
    keys: SharedArray<u32>,
    vals: SharedArray<T>,
    capacity: usize,
    seed: u32,
}

impl<T: Copy + Default> SmemHashTable<T> {
    /// Smallest warp-aligned capacity that keeps `entries` at or under
    /// [`MAX_LOAD`].
    pub fn capacity_for(entries: usize) -> usize {
        ((entries as f64 / MAX_LOAD).ceil() as usize)
            .next_multiple_of(WARP_SIZE)
            .max(WARP_SIZE)
    }

    /// Shared-memory bytes a table of `capacity` slots consumes (keys and
    /// values stored together — the factor-of-two cost §3.3.2 mentions).
    pub fn smem_bytes(capacity: usize) -> usize {
        capacity * (std::mem::size_of::<u32>() + std::mem::size_of::<T>())
    }

    /// Allocates the table from the block's shared memory and
    /// cost-accounts the block-collective fill of the key array with the
    /// empty sentinel (values need no fill: a slot's value is only read
    /// after its key matched, i.e. after an insert wrote it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or if the block's shared-memory
    /// budget is exceeded.
    pub fn new(block: &mut BlockCtx, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let keys = block.alloc_shared::<u32>(capacity);
        block.fill_shared(&keys, EMPTY);
        let vals = block.alloc_shared::<T>(capacity);
        Self {
            keys,
            vals,
            capacity,
            seed: 0x5eed0_u32,
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of occupied slots (host-side inspection).
    pub fn len(&self) -> usize {
        self.keys.snapshot().iter().filter(|&&k| k != EMPTY).count()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupied fraction of the table.
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.capacity as f64
    }

    /// Each active lane's home slot, `murmur(key) % capacity`: where its
    /// linear probe chain starts. Computed once per warp-op.
    fn homes(&self, keys: &Lanes<Option<u32>>) -> Lanes<usize> {
        lanes_from_fn(|l| keys[l].map_or(0, |k| murmur3_32(k, self.seed) as usize % self.capacity))
    }

    /// The slot `probe` steps along the chain from `home`, i.e.
    /// `(home + probe) % capacity` for `probe < capacity`, with one
    /// conditional subtract instead of a divide.
    #[inline]
    fn probe_slot(&self, home: usize, probe: usize) -> usize {
        let s = home + probe;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// Warp-parallel insert: each active lane inserts one `(key, value)`
    /// pair by linear probing. Probe rounds execute in lockstep, so the
    /// warp pays for the *longest* chain — the serialization §3.3.2
    /// blames on load factors above 50 %.
    ///
    /// Keys are assumed distinct (CSR columns within a row are); inserting
    /// a duplicate key overwrites the stored value.
    ///
    /// # Errors
    ///
    /// When a probe chain exhausts the table (the table is full) the warp
    /// records a [`crate::SimError::CapacityOverflow`] launch fault and
    /// drops the remaining pending keys; `Device::try_launch` surfaces it
    /// as a typed error (and the panicking `Device::launch` wrapper turns
    /// it into a panic). Strategies must size with [`Self::capacity_for`]
    /// or partition high-degree rows (§3.3.3).
    pub fn insert_warp(&self, w: &mut WarpCtx, keys: &Lanes<Option<u32>>, vals: &Lanes<T>) {
        if w.take_injected_hash_overflow() {
            w.record_capacity_overflow(
                "smem-hash-table",
                format!("injected insert overflow (capacity {})", self.capacity),
            );
            return;
        }
        let mut pending = *keys;
        let homes = self.homes(keys);
        for probe in 0..=self.capacity {
            if pending.iter().all(Option::is_none) {
                return;
            }
            if probe == self.capacity {
                // Probe chain exhausted every slot: the table is full.
                // Record the overflow and drop the still-pending keys so
                // the launch limps to a typed error instead of panicking
                // the host.
                w.record_capacity_overflow(
                    "smem-hash-table",
                    format!(
                        "shared-memory hash table is full (capacity {})",
                        self.capacity
                    ),
                );
                return;
            }
            let idx = lanes_from_fn(|l| pending[l].map(|_| self.probe_slot(homes[l], probe)));
            // Each lane claims its slot with an `atomicCAS` on the key
            // word; the returned old value tells it whether it won the
            // slot (`EMPTY`), found its key already present (a duplicate
            // insert), or lost to another key and must keep probing.
            // Because the claim is atomic, concurrent inserts from other
            // warps are race-free.
            let cas_keys = lanes_from_fn(|l| pending[l].unwrap_or(EMPTY));
            let old = w.smem_atomic(&self.keys, &idx, &cas_keys, |cur, new| {
                if cur == EMPTY {
                    new
                } else {
                    cur
                }
            });
            // One probe round = CAS + compare + conditional value write.
            w.issue(1);
            let mut write_idx = [None; WARP_SIZE];
            let mut write_vals = [T::default(); WARP_SIZE];
            for l in 0..WARP_SIZE {
                if let Some(k) = pending[l] {
                    let Some(i) = idx[l] else {
                        // An active lane without a probe slot means the
                        // lane state was corrupted; record it and drop
                        // the lane instead of panicking the host.
                        w.record_corrupted_lane(format!(
                            "hash-table insert lane {l} active without a probe slot"
                        ));
                        pending[l] = None;
                        continue;
                    };
                    if old[l] == EMPTY || old[l] == k {
                        write_idx[l] = Some(i);
                        write_vals[l] = vals[l];
                        pending[l] = None;
                    }
                }
            }
            if write_idx.iter().any(Option::is_some) {
                // The CAS made the claimed slots exclusive, so the value
                // store is a plain scatter.
                w.smem_scatter(&self.vals, &write_idx, &write_vals);
            }
            // Lanes that must keep probing diverge from those that are
            // done.
            if pending.iter().any(Option::is_some)
                && pending.iter().filter(|p| p.is_some()).count()
                    != keys.iter().filter(|p| p.is_some()).count()
            {
                w.diverge(2);
            }
        }
    }

    /// Warp-parallel lookup: returns each active lane's value, or `None`
    /// when the key is absent. Absent keys probe until the first empty
    /// slot — the "increase in lookup times for columns even for elements
    /// that aren't in the table" that motivated the bloom-filter
    /// alternative.
    pub fn lookup_warp(&self, w: &mut WarpCtx, keys: &Lanes<Option<u32>>) -> Lanes<Option<T>> {
        let mut pending = *keys;
        // The slot each hit was found in, for the value read.
        let mut hit_idx: Lanes<Option<usize>> = [None; WARP_SIZE];
        let homes = self.homes(keys);
        for probe in 0..=self.capacity {
            if pending.iter().all(Option::is_none) {
                break;
            }
            if probe == self.capacity {
                break; // full table, key absent everywhere
            }
            let idx = lanes_from_fn(|l| pending[l].map(|_| self.probe_slot(homes[l], probe)));
            let found = w.smem_gather(&self.keys, &idx);
            w.issue(1);
            for l in 0..WARP_SIZE {
                if let Some(k) = pending[l] {
                    if found[l] == k {
                        let Some(i) = idx[l] else {
                            w.record_corrupted_lane(format!(
                                "hash-table lookup lane {l} active without a probe slot"
                            ));
                            pending[l] = None;
                            continue;
                        };
                        hit_idx[l] = Some(i);
                        pending[l] = None;
                    } else if found[l] == EMPTY {
                        pending[l] = None; // definitively absent
                    }
                }
            }
        }
        // One value-read access reads the hits. A hit whose key has left
        // its slot indicates corrupted table state and is recorded as a
        // fault; the launch's outputs are then discarded, so that lane's
        // `None` is never observed.
        for l in 0..WARP_SIZE {
            let (Some(i), Some(k)) = (hit_idx[l], keys[l]) else {
                continue;
            };
            if self.keys.read(i) != k {
                w.record_corrupted_lane(format!(
                    "hash-table hit for key {k} that is no longer present (capacity {})",
                    self.capacity
                ));
                hit_idx[l] = None;
            }
        }
        if hit_idx.iter().all(Option::is_none) {
            return [None; WARP_SIZE];
        }
        let vals = w.smem_gather(&self.vals, &hit_idx);
        lanes_from_fn(|l| hit_idx[l].map(|_| vals[l]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, LaunchConfig};

    fn run_in_block(f: impl Fn(&mut BlockCtx) + Sync) {
        let dev = Device::volta();
        dev.launch("test", LaunchConfig::new(1, 32, 64 * 1024), f);
    }

    #[test]
    fn capacity_for_keeps_load_under_half() {
        assert_eq!(SmemHashTable::<f32>::capacity_for(10), 32);
        assert_eq!(SmemHashTable::<f32>::capacity_for(100), 224);
        assert_eq!(SmemHashTable::<f32>::capacity_for(128), 256);
        assert!(SmemHashTable::<f32>::capacity_for(1) >= WARP_SIZE);
        // The paper's Volta limit: a 48 KiB budget at 8 bytes/slot gives
        // 6144 slots → "max degree of 3K" at 50% load.
        let slots = 48 * 1024 / SmemHashTable::<f32>::smem_bytes(1);
        assert_eq!(slots / 2, 3072);
    }

    #[test]
    fn smem_bytes_counts_keys_and_values() {
        // The factor-of-two cost: 256 slots × (4 + 4) bytes for f32.
        assert_eq!(SmemHashTable::<f32>::smem_bytes(256), 2048);
        assert_eq!(SmemHashTable::<f64>::smem_bytes(256), 3072);
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        run_in_block(|block| {
            let table = SmemHashTable::<f32>::new(block, 128);
            let t2 = table.clone();
            block.run_warps(|w| {
                let keys = lanes_from_fn(|l| Some((l * 37) as u32));
                let vals = lanes_from_fn(|l| l as f32);
                t2.insert_warp(w, &keys, &vals);
                let got = t2.lookup_warp(w, &keys);
                for l in 0..WARP_SIZE {
                    assert_eq!(got[l], Some(l as f32));
                }
                // Absent keys return None.
                let missing = lanes_from_fn(|l| Some((l * 37 + 1) as u32));
                let got = t2.lookup_warp(w, &missing);
                assert!(got.iter().all(Option::is_none));
            });
            assert_eq!(table.len(), 32);
            assert!((table.load_factor() - 0.25).abs() < 1e-9);
        });
    }

    #[test]
    fn inactive_lanes_do_not_insert() {
        run_in_block(|block| {
            let table = SmemHashTable::<f32>::new(block, 64);
            let t = table.clone();
            block.run_warps(|w| {
                let keys = lanes_from_fn(|l| if l < 5 { Some(l as u32) } else { None });
                let vals = lanes_from_fn(|l| l as f32);
                t.insert_warp(w, &keys, &vals);
            });
            assert_eq!(table.len(), 5);
        });
    }

    #[test]
    fn high_load_factor_costs_more_probes() {
        // Fill a table to ~94% and compare lookup cost of absent keys
        // against a half-loaded table: the paper's load-factor cliff.
        let dev = Device::volta();
        let mut probes_tight = 0u64;
        let mut probes_loose = 0u64;
        for (cap, slot) in [(64usize, 0), (256usize, 1)] {
            let stats = dev.launch("load", LaunchConfig::new(1, 32, 32 * 1024), |block| {
                let table = SmemHashTable::<f32>::new(block, cap);
                let t = table.clone();
                block.run_warps(|w| {
                    // Insert 60 keys in two warp rounds of 30.
                    for round in 0..2 {
                        let keys = lanes_from_fn(|l| (l < 30).then(|| (round * 100 + l) as u32));
                        let vals = lanes_from_fn(|_| 1.0f32);
                        t.insert_warp(w, &keys, &vals);
                    }
                    // Lookup absent keys.
                    let missing = lanes_from_fn(|l| Some((10_000 + l) as u32));
                    let _ = t.lookup_warp(w, &missing);
                });
            });
            if slot == 0 {
                probes_tight = stats.counters.smem_accesses;
            } else {
                probes_loose = stats.counters.smem_accesses;
            }
        }
        assert!(
            probes_tight > probes_loose,
            "94% load ({probes_tight} accesses) should cost more than 23% load ({probes_loose})"
        );
    }

    #[test]
    fn fuzz_against_std_hashmap() {
        // Random distinct key sets and lookups, behaviour compared to a
        // std::HashMap oracle across many seeds.
        for seed in 0..40u32 {
            let dev = Device::volta();
            dev.launch("fuzz", LaunchConfig::new(1, 32, 48 * 1024), |block| {
                let n_keys = 1 + (murmur3_32(seed, 1) % 60) as usize;
                // Distinct keys, per the table's contract (CSR columns
                // within a row are unique).
                let mut keys: Vec<u32> = (0..n_keys as u32)
                    .map(|i| murmur3_32(i, seed) % 500)
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let mut oracle = std::collections::HashMap::new();
                let table =
                    SmemHashTable::<f32>::new(block, SmemHashTable::<f32>::capacity_for(n_keys));
                let t = table.clone();
                block.run_warps(|w| {
                    for chunk in keys.chunks(WARP_SIZE) {
                        let lk = lanes_from_fn(|l| chunk.get(l).copied());
                        let lv =
                            lanes_from_fn(|l| chunk.get(l).map(|&k| k as f32 * 0.5).unwrap_or(0.0));
                        t.insert_warp(w, &lk, &lv);
                    }
                    for &k in &keys {
                        oracle.insert(k, k as f32 * 0.5);
                    }
                    // Probe both present and absent keys.
                    for probe_base in [0u32, 250, 480] {
                        let pk = lanes_from_fn(|l| Some(probe_base + l as u32));
                        let got = t.lookup_warp(w, &pk);
                        for l in 0..WARP_SIZE {
                            let key = probe_base + l as u32;
                            assert_eq!(got[l], oracle.get(&key).copied(), "seed {seed} key {key}");
                        }
                    }
                });
                assert_eq!(table.len(), oracle.len(), "seed {seed}");
            });
        }
    }

    #[test]
    fn probe_chains_wrap_past_the_last_slot() {
        // Three keys whose home slot is the last one: inserted together,
        // lane order decides the CAS winners, so they take the slots
        // `p = 0, 1, 2` steps along the shared chain, across the wrap.
        // Each landing slot is the plain modular formula's.
        run_in_block(|block| {
            let cap = 32;
            let table = SmemHashTable::<f32>::new(block, cap);
            let slot = |k: u32, p: usize| (murmur3_32(k, table.seed) as usize % cap + p) % cap;
            let wrapping: Vec<u32> = (0..).filter(|&k| slot(k, 0) == cap - 1).take(3).collect();
            let t = table.clone();
            block.run_warps(|w| {
                let keys = lanes_from_fn(|l| wrapping.get(l).copied());
                let vals = lanes_from_fn(|l| l as f32 + 0.5);
                t.insert_warp(w, &keys, &vals);
                let got = t.lookup_warp(w, &keys);
                assert_eq!(&got[..3], &[Some(0.5), Some(1.5), Some(2.5)]);
            });
            let stored = table.keys.snapshot();
            for (p, &k) in wrapping.iter().enumerate() {
                assert_eq!(stored[slot(k, p)], k, "key {k} at probe {p}");
            }
            assert_eq!([slot(wrapping[1], 1), slot(wrapping[2], 2)], [0, 1]);
        });
    }

    /// Pins what `lookup_warp` charges for hits, misses, a warp of
    /// mixed and inactive lanes, and a chain that wraps past the last
    /// slot, each in its own profiler range: `(smem_accesses,
    /// bank_conflict_extra, issues, divergence_extra)`.
    #[test]
    fn lookup_counters_are_pinned() {
        let cap = 64;
        let present = |l: usize| (l * 37) as u32;
        let dev = Device::volta().with_profiler(true);
        let stats = dev.launch("pin", LaunchConfig::new(1, 32, 64 * 1024), |block| {
            let table = SmemHashTable::<f32>::new(block, cap);
            let wrapping: Vec<u32> = (0..)
                .filter(|&k| murmur3_32(k, table.seed) as usize % cap == cap - 1)
                .take(3)
                .collect();
            block.run_warps(|w| {
                // The wrapping keys first, so they take slots 63, 0, 1.
                let keys = lanes_from_fn(|l| wrapping.get(l).copied());
                table.insert_warp(w, &keys, &lanes_from_fn(|l| l as f32 + 0.5));
                let keys = lanes_from_fn(|l| (l < 24).then(|| present(l)));
                table.insert_warp(w, &keys, &lanes_from_fn(|l| l as f32));
                let hits = w.range("hits", |w| {
                    table.lookup_warp(w, &lanes_from_fn(|l| (l < 24).then(|| present(l))))
                });
                assert!((0..24).all(|l| hits[l] == Some(l as f32)));
                let misses = w.range("misses", |w| {
                    table.lookup_warp(w, &lanes_from_fn(|l| Some(present(l) + 1)))
                });
                assert!(misses.iter().all(Option::is_none));
                // Even lanes hit, odd lanes miss, the top eight idle.
                let mixed = w.range("mixed", |w| {
                    let keys = lanes_from_fn(|l| (l < 24).then(|| present(l) + (l as u32 & 1)));
                    table.lookup_warp(w, &keys)
                });
                for l in 0..WARP_SIZE {
                    assert_eq!(mixed[l], (l < 24 && l % 2 == 0).then_some(l as f32));
                }
                let wrap = w.range("wrap", |w| {
                    table.lookup_warp(w, &lanes_from_fn(|l| wrapping.get(l).copied()))
                });
                assert_eq!(&wrap[..4], &[Some(0.5), Some(1.5), Some(2.5), None]);
            });
        });
        let profile = stats.profile.expect("profiler on");
        let got: Vec<_> = ["hits", "misses", "mixed", "wrap"]
            .into_iter()
            .map(|name| {
                let r = profile.ranges.iter().find(|r| r.path == name).unwrap();
                let c = r.exclusive;
                (
                    name,
                    c.smem_accesses,
                    c.bank_conflict_extra,
                    c.issues,
                    c.divergence_extra,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                ("hits", 6, 2, 11, 0),
                ("misses", 5, 1, 10, 0),
                ("mixed", 5, 1, 9, 0),
                ("wrap", 4, 0, 7, 0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "hash table is full")]
    fn overfull_table_panics() {
        run_in_block(|block| {
            let table = SmemHashTable::<f32>::new(block, 32);
            let t = table.clone();
            block.run_warps(|w| {
                for round in 0..2 {
                    let keys = lanes_from_fn(|l| Some((round * 32 + l) as u32));
                    let vals = lanes_from_fn(|_| 0.0f32);
                    t.insert_warp(w, &keys, &vals);
                }
            });
        });
    }
}
