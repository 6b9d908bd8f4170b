//! Seeded, deterministic IVF (inverted-file) approximate index with
//! exact rerank.
//!
//! The brute-force estimator answers a query by scanning every index
//! row. An [`IvfIndex`] makes candidate generation sublinear: a seeded
//! k-means-style pass clusters the index rows into `nlist` posting
//! lists (centroid assignment is itself a semiring distance
//! computation, run through the same pairwise kernels as every query),
//! and a query only visits the `nprobe` lists whose centroids are
//! nearest. Every visited list is then scanned *exactly* — the same
//! `pairwise_distances_prepared` tiles and the same per-slab top-k the
//! brute-force path uses — and the per-list candidates are merged
//! under the canonical [`sparse::cmp_dist_idx`] total order.
//!
//! Two properties follow by construction rather than by tuning:
//!
//! * **Exact rerank, deterministic bits.** Distances are computed by
//!   the same exact kernel tiles the brute-force path runs, never
//!   estimated, so a partial probe can only *omit* neighbors (those
//!   whose posting list was not probed), never invent them. Every
//!   search is byte-reproducible: the same (index, fit params, query
//!   set, `nprobe`) yields identical bytes across host-thread counts
//!   and device-pool sizes. Pair distances agree with the exact
//!   oracle's entry for the same row to floating-point re-association
//!   precision — the identical ulp-level re-tiling effect `kneighbors`
//!   itself exhibits across `with_index_batch_rows` geometries
//!   (DESIGN §10): the hybrid COO sweep folds a streamed row's terms
//!   at 32-lane chunk boundaries measured from the slab's start, so
//!   re-slabbing re-associates the sum. For annihilating /
//!   expansion-based families (Euclidean, Cosine, dot-product — one
//!   pass, only the posting-list side streamed) a pair's bits are
//!   additionally independent of `nprobe` and of which query rows
//!   share the probe; NAMM families stream the gathered query rows in
//!   their second pass, so their bits re-associate like any re-tiling
//!   when the visitor set changes.
//! * **Byte-identity at `nprobe == nlist` — by construction.** A full
//!   probe would scan every posting list, so the search degenerates to
//!   the exact estimator itself on the prepared artifact's own devices:
//!   the same contiguous slabs, the same shard runner, the same
//!   canonical `cmp_dist_idx` merge. The answer is therefore
//!   byte-identical to the exact oracle's on that pool for any distance
//!   family, kernel strategy, or host-thread count — structural, not a
//!   numerical coincidence.
//!
//! Fitting and search are deterministic: the only randomness is the
//! seeded Fisher–Yates centroid initialization, host-side reductions
//! run in fixed ascending-row order, and posting lists are visited in
//! ascending cluster order. The fit's assignment passes, the probe and
//! the rerank all run through the crate's one shard runner
//! ([`crate::prepared`]), so per-device time attribution is exactly
//! that of [`crate::MultiDevice`] queries.

use crate::knn::{KnnResult, NearestNeighbors};
use crate::multi::MultiDevice;
use crate::prepared::{gather_rows, PreparedShard, ShardRunner};
use gpu_sim::Device;
use kernels::KernelError;
use sparse::{CsrMatrix, Idx, Real};
use std::collections::BTreeMap;

/// Fitting and probing parameters for an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of posting lists (clusters). Clamped to the number of
    /// index rows at fit time.
    pub nlist: usize,
    /// Default number of lists probed per query. Clamped to
    /// `[1, nlist]` at query time; `nprobe == nlist` degenerates to
    /// the exact path.
    pub nprobe: usize,
    /// Lloyd refinement iterations after the seeded initialization
    /// (0 = keep the sampled rows as centroids).
    pub iters: usize,
    /// Seed for the deterministic centroid initialization.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 16,
            nprobe: 4,
            iters: 3,
            seed: 0x5EED_0009,
        }
    }
}

/// Per-query-batch probe accounting, surfaced so the serving layer can
/// export `ann.*` counters without re-deriving them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IvfQueryStats {
    /// The clamped `nprobe` this search ran with.
    pub nprobe: usize,
    /// Total (query row × probed list) pairs.
    pub probes: usize,
    /// Total shortlist rows scanned across all probed lists (the
    /// exact-rerank work; `query rows × index rows` for the
    /// brute-force path).
    pub shortlist_rows: usize,
}

/// An IVF search result: the k-NN answer plus probe accounting.
#[derive(Debug, Clone)]
pub struct IvfAnswer<T> {
    /// The merged k-NN result (same shape as the brute-force paths).
    pub knn: KnnResult<T>,
    /// Probe accounting for this call.
    pub stats: IvfQueryStats,
}

/// Posting lists and centroids prepared for repeated queries against a
/// device pool — the IVF analog of [`crate::PreparedShards`], built
/// once with [`IvfIndex::prepare`] and reused by every search.
#[derive(Debug, Clone)]
pub struct IvfPrepared<T> {
    pool: Vec<Device>,
    centroid: PreparedShard<T>,
    /// One shard per cluster id; `None` for an empty posting list.
    lists: Vec<Option<PreparedShard<T>>>,
}

impl<T: Real> IvfPrepared<T> {
    /// Number of devices in the pool.
    pub fn devices(&self) -> usize {
        self.pool.len()
    }

    /// Simulated device bytes held by the prepared uploads (centroid
    /// slab + every posting-list slab, plus one norm vector per row) —
    /// what a prepared-artifact cache charges against its budget.
    pub fn device_bytes(&self) -> usize {
        let lists: usize = self
            .lists
            .iter()
            .flatten()
            .map(PreparedShard::device_bytes)
            .sum();
        lists + self.centroid.device_bytes()
    }
}

/// A fitted IVF index over a [`NearestNeighbors`] estimator's data:
/// seeded centroids, ascending posting lists, and a prepared
/// single-device artifact for immediate querying.
#[derive(Debug, Clone)]
pub struct IvfIndex<T> {
    nn: NearestNeighbors<T>,
    params: IvfParams,
    nlist: usize,
    centroids: CsrMatrix<T>,
    lists: Vec<Vec<usize>>,
    slabs: Vec<CsrMatrix<T>>,
    index_rows: usize,
    fit_sim_seconds: f64,
    fit_assign_passes: usize,
    home: IvfPrepared<T>,
}

/// `splitmix64` step — the only PRNG the fit needs, inlined so the
/// index has no dependency on a random crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean-update step: each non-empty cluster's centroid becomes the
/// arithmetic mean of its members (accumulated in `f64`, ascending row
/// order, sorted columns — fully deterministic); empty clusters keep
/// their previous centroid so `nlist` never shrinks mid-fit.
fn update_centroids<T: Real>(
    x: &CsrMatrix<T>,
    lists: &[Vec<usize>],
    prev: &CsrMatrix<T>,
) -> CsrMatrix<T> {
    let mut indptr = Vec::with_capacity(lists.len() + 1);
    indptr.push(0);
    let mut indices: Vec<Idx> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    for (c, members) in lists.iter().enumerate() {
        if members.is_empty() {
            indices.extend_from_slice(prev.row_indices(c));
            values.extend_from_slice(prev.row_values(c));
        } else {
            let mut acc: BTreeMap<Idx, f64> = BTreeMap::new();
            for &r in members {
                for (&col, &v) in x.row_indices(r).iter().zip(x.row_values(r)) {
                    *acc.entry(col).or_insert(0.0) += v.to_f64();
                }
            }
            let inv = 1.0 / members.len() as f64;
            for (col, sum) in acc {
                let mean = sum * inv;
                if mean != 0.0 {
                    indices.push(col);
                    values.push(T::from_f64(mean));
                }
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(lists.len(), x.cols(), indptr, indices, values)
        .expect("means over sorted columns form a valid CSR")
}

impl<T: Real> IvfIndex<T> {
    /// Fits an IVF index over `nn`'s fitted data: seeded Fisher–Yates
    /// centroid initialization, `params.iters` Lloyd refinements where
    /// assignment runs through the estimator's own distance kernels
    /// (so "nearest centroid" means nearest under the metric being
    /// served, not silently Euclidean), then a final assignment that
    /// freezes the posting lists ascending by row id.
    ///
    /// # Errors
    ///
    /// Returns a kernel error if an assignment pass fails.
    ///
    /// # Panics
    ///
    /// Panics if `nn` has not been [`NearestNeighbors::fit`], the index
    /// is empty, or `params.nlist == 0`.
    pub fn fit(nn: &NearestNeighbors<T>, params: IvfParams) -> Result<Self, KernelError> {
        let x = nn
            .index()
            .expect("call fit() on the estimator before IvfIndex::fit()");
        let n = x.rows();
        assert!(n > 0, "IVF requires a non-empty index");
        assert!(params.nlist > 0, "nlist must be >= 1");
        let nlist = params.nlist.min(n);

        let mut ids: Vec<usize> = (0..n).collect();
        let mut state = params.seed ^ 0x5EED_5EED_5EED_5EED;
        for i in (1..n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        ids.truncate(nlist);
        ids.sort_unstable();
        let mut centroids = gather_rows(x, &ids);

        let home = [nn.device().clone()];
        let mut fit_sim_seconds = 0.0;
        let mut fit_assign_passes = 0;
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); nlist];
        for iter in 0..=params.iters {
            let shard = PreparedShard::upload(&home, 0, centroids.clone(), (0..nlist).collect());
            let mut runner = ShardRunner::new(nn, 1);
            let answer = runner.run(x, [(&shard, None)], 1)?;
            let assign = runner.finish(answer);
            fit_sim_seconds += assign.sim_seconds;
            fit_assign_passes += 1;
            lists = vec![Vec::new(); nlist];
            for (row, nearest) in assign.indices.iter().enumerate() {
                // k=1 against a non-empty centroid set always yields a
                // candidate; the fallback keeps degenerate inputs (all
                // distances NaN on every centroid) deterministic.
                let c = nearest.first().copied().unwrap_or(row % nlist);
                lists[c.min(nlist - 1)].push(row);
            }
            if iter == params.iters {
                break;
            }
            centroids = update_centroids(x, &lists, &centroids);
        }

        let slabs: Vec<CsrMatrix<T>> = lists.iter().map(|l| gather_rows(x, l)).collect();
        let home = Self::prepare_on(&home, &centroids, &lists, &slabs);
        Ok(Self {
            nn: nn.clone(),
            params,
            nlist,
            centroids,
            lists,
            slabs,
            index_rows: n,
            fit_sim_seconds,
            fit_assign_passes,
            home,
        })
    }

    /// The parameters this index was fitted with.
    pub fn params(&self) -> IvfParams {
        self.params
    }

    /// Effective number of posting lists (`params.nlist` clamped to the
    /// index row count).
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// The distance metric queries run under.
    pub fn metric(&self) -> semiring::Distance {
        self.nn.metric()
    }

    /// Rows in the indexed dataset.
    pub fn index_rows(&self) -> usize {
        self.index_rows
    }

    /// The posting lists, ascending by cluster id; each list is
    /// ascending by original row id and the lists partition
    /// `0..index_rows`.
    pub fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// The fitted centroid matrix (`nlist` rows).
    pub fn centroids(&self) -> &CsrMatrix<T> {
        &self.centroids
    }

    /// Simulated seconds the assignment passes of the fit spent.
    pub fn fit_sim_seconds(&self) -> f64 {
        self.fit_sim_seconds
    }

    /// Assignment passes executed during the fit (`iters + 1`).
    pub fn fit_assign_passes(&self) -> usize {
        self.fit_assign_passes
    }

    /// Simulated device bytes held by the resident single-device
    /// prepared artifact (what a serving cache charges for this index).
    pub fn device_bytes(&self) -> usize {
        self.home.device_bytes()
    }

    fn prepare_on(
        pool: &[Device],
        centroids: &CsrMatrix<T>,
        lists: &[Vec<usize>],
        slabs: &[CsrMatrix<T>],
    ) -> IvfPrepared<T> {
        let centroid = (0..centroids.rows()).collect();
        let mut slot = 0;
        let lists = lists
            .iter()
            .zip(slabs)
            .map(|(ids, slab)| {
                (!ids.is_empty()).then(|| {
                    slot += 1;
                    PreparedShard::upload(pool, slot - 1, slab.clone(), ids.as_slice().into())
                })
            })
            .collect();
        IvfPrepared {
            pool: pool.to_vec(),
            centroid: PreparedShard::upload(pool, 0, centroids.clone(), centroid),
            lists,
        }
    }

    /// Builds the prepared posting-list shard set for a device pool:
    /// non-empty lists are assigned round-robin (list `j` of the
    /// non-empty sequence → device `j % N`), each uploaded to its
    /// device exactly once, with the centroid slab pinned to the first
    /// device. The serving layer builds this once per pool shape and
    /// caches it.
    pub fn prepare(&self, multi: &MultiDevice) -> IvfPrepared<T> {
        Self::prepare_on(multi.devices(), &self.centroids, &self.lists, &self.slabs)
    }

    /// Searches with the fitted default `nprobe` on the estimator's own
    /// device (see [`IvfIndex::search_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any tile produces.
    pub fn search(&self, query: &CsrMatrix<T>, k: usize) -> Result<IvfAnswer<T>, KernelError> {
        self.search_with_nprobe(query, k, self.params.nprobe)
    }

    /// Searches with an explicit `nprobe` on the estimator's own device
    /// (see [`IvfIndex::search_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any tile produces.
    pub fn search_with_nprobe(
        &self,
        query: &CsrMatrix<T>,
        k: usize,
        nprobe: usize,
    ) -> Result<IvfAnswer<T>, KernelError> {
        self.search_prepared(&self.home, query, k, nprobe)
    }

    /// Searches against a device pool: exactly
    /// [`IvfIndex::search_prepared`] over [`IvfIndex::prepare`], so
    /// partial-probe results are byte-identical across pool sizes and a
    /// full probe (`nprobe >= nlist`) matches
    /// [`NearestNeighbors::kneighbors_sharded`] on the pool byte for
    /// byte.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any tile produces.
    pub fn search_sharded(
        &self,
        multi: &MultiDevice,
        query: &CsrMatrix<T>,
        k: usize,
        nprobe: usize,
    ) -> Result<IvfAnswer<T>, KernelError> {
        self.search_prepared(&self.prepare(multi), query, k, nprobe)
    }

    /// The IVF query core: probe → shortlist → exact rerank → merge.
    ///
    /// 0. **Degenerate full probe.** `nprobe >= nlist` means every
    ///    posting list would be scanned, so the call runs the exact
    ///    estimator's contiguous slabs on `prep`'s own devices instead
    ///    of re-deriving the oracle through gathered slabs whose stream
    ///    alignment would re-associate the sums. Byte-identity with the
    ///    exact path on the same pool is structural, not numerical.
    /// 1. **Probe.** One k-NN pass of the query rows against the
    ///    centroid slab (`k = nprobe`) on the pool's first device, so
    ///    probe ordering inherits the canonical tie-breaking.
    /// 2. **Rerank.** Each posting list probed by at least one query row
    ///    (ascending cluster order) is scanned by exactly the query rows
    ///    that probed it, with the exact distance tiles + per-slab top-k.
    /// 3. **Merge.** Per-list candidates are mapped back to original
    ///    row ids and merged under `cmp_dist_idx`, truncated to `k`.
    ///
    /// All three run through the crate's one shard runner, so simulated
    /// time is attributed per device and the total is the maximum
    /// (devices run concurrently), exactly as for a sharded exact query.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any tile produces.
    pub fn search_prepared(
        &self,
        prep: &IvfPrepared<T>,
        query: &CsrMatrix<T>,
        k: usize,
        nprobe: usize,
    ) -> Result<IvfAnswer<T>, KernelError> {
        let nprobe = nprobe.clamp(1, self.nlist);
        if nprobe == self.nlist {
            // Every list visited by every query row: the whole index
            // is reranked.
            let exact = self.nn.prepare_on(&prep.pool);
            return Ok(IvfAnswer {
                knn: self.nn.kneighbors_prepared(&exact, query, k)?,
                stats: IvfQueryStats {
                    nprobe,
                    probes: query.rows() * nprobe,
                    shortlist_rows: query.rows() * self.index_rows,
                },
            });
        }
        let mut runner = ShardRunner::new(&self.nn, prep.pool.len());
        let probed = runner.run(query, [(&prep.centroid, None)], nprobe)?;

        // Invert the probe result: which query rows visit each list.
        // Query rows are pushed in ascending order, so the gathered
        // sub-queries and the scatter back are both deterministic.
        let mut visitors: Vec<Vec<usize>> = vec![Vec::new(); self.nlist];
        for (q, clusters) in probed.iter().enumerate() {
            for &(c, _) in clusters {
                visitors[c].push(q);
            }
        }
        let work: Vec<(&PreparedShard<T>, &[usize])> = prep
            .lists
            .iter()
            .zip(&visitors)
            .filter_map(|(shard, qids)| Some((shard.as_ref()?, qids.as_slice())))
            .filter(|(_, qids)| !qids.is_empty())
            .collect();
        let stats = IvfQueryStats {
            nprobe,
            probes: probed.iter().map(Vec::len).sum(),
            shortlist_rows: work.iter().map(|(s, qids)| s.ids.len() * qids.len()).sum(),
        };
        let answer = runner.run(query, work.into_iter().map(|(s, qids)| (s, Some(qids))), k)?;
        Ok(IvfAnswer {
            knn: runner.finish(answer),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semiring::Distance;

    fn dataset(rows: usize, cols: usize) -> CsrMatrix<f64> {
        let mut data = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                if (r * 7 + c * 3) % 5 == 0 {
                    data[r * cols + c] = 1.0 + (r as f64) / 9.0 + (c as f64) / 41.0;
                }
            }
        }
        CsrMatrix::from_dense(rows, cols, &data)
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|d| d.to_bits()).collect())
            .collect()
    }

    #[test]
    fn full_probe_is_byte_identical_to_exact() {
        let m = dataset(24, 12);
        for d in [Distance::Euclidean, Distance::Cosine, Distance::Manhattan] {
            let nn = NearestNeighbors::new(Device::volta(), d).fit(m.clone());
            let exact = nn.kneighbors(&m, 5).expect("exact ok");
            let ivf = IvfIndex::fit(
                &nn,
                IvfParams {
                    nlist: 6,
                    nprobe: 6,
                    ..IvfParams::default()
                },
            )
            .expect("fit ok");
            let got = ivf.search(&m, 5).expect("search ok");
            assert_eq!(exact.indices, got.knn.indices, "{d}");
            assert_eq!(bits(&exact.distances), bits(&got.knn.distances), "{d}");
        }
    }

    #[test]
    fn full_probe_runs_on_the_prepared_pool() {
        let m = dataset(24, 12);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 6,
                nprobe: 6,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        let multi = MultiDevice::replicate(&Device::volta(), 2);
        let prepared = ivf
            .search_prepared(&ivf.prepare(&multi), &m, 5, ivf.nlist())
            .expect("prepared ok");
        let sharded = ivf
            .search_sharded(&multi, &m, 5, ivf.nlist())
            .expect("sharded ok");
        let exact = nn.kneighbors_sharded(&multi, &m, 5).expect("exact ok");
        for got in [&prepared.knn, &sharded.knn] {
            assert_eq!(got.indices, exact.indices);
            assert_eq!(bits(&got.distances), bits(&exact.distances));
            assert_eq!(got.devices, 2);
            assert_eq!(got.per_device_seconds, exact.per_device_seconds);
        }
    }

    #[test]
    fn partial_probe_pairs_agree_with_the_oracle_and_are_nprobe_stable() {
        let m = dataset(30, 10);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
        // Full ranking as the oracle: every id a partial probe serves
        // must appear in it, with the distance agreeing to re-tiling
        // (ulp) precision — the rerank is exact, only coverage is
        // approximate. Bits may differ from the oracle's by the slab
        // re-association documented in the module header, but they are
        // a pure function of the fitted lists: the same pair served at
        // a different (partial) nprobe carries identical bits.
        let oracle = nn.kneighbors(&m, m.rows()).expect("oracle ok");
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 8,
                nprobe: 2,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        let mut seen: std::collections::BTreeMap<(usize, usize), u64> =
            std::collections::BTreeMap::new();
        for nprobe in [2usize, 3, 5] {
            let got = ivf.search_with_nprobe(&m, 4, nprobe).expect("search ok");
            for q in 0..m.rows() {
                for (i, d) in got.knn.indices[q].iter().zip(&got.knn.distances[q]) {
                    let pos = oracle.indices[q]
                        .iter()
                        .position(|x| x == i)
                        .unwrap_or_else(|| panic!("row {q}: id {i} not in oracle"));
                    assert!(
                        (oracle.distances[q][pos] - d).abs() < 1e-9,
                        "row {q} id {i}: {} vs oracle {}",
                        d,
                        oracle.distances[q][pos]
                    );
                    let prev = seen.insert((q, *i), d.to_bits());
                    if let Some(bits) = prev {
                        assert_eq!(bits, d.to_bits(), "row {q} id {i}: bits drift with nprobe");
                    }
                }
            }
        }
    }

    #[test]
    fn recall_is_monotone_in_nprobe() {
        let m = dataset(40, 14);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let exact = nn.kneighbors(&m, 5).expect("exact ok");
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 10,
                nprobe: 1,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        let mut prev = 0.0;
        for nprobe in 1..=ivf.nlist() {
            let got = ivf.search_with_nprobe(&m, 5, nprobe).expect("search ok");
            let mut hits = 0;
            let mut total = 0;
            for q in 0..m.rows() {
                total += exact.indices[q].len();
                hits += exact.indices[q]
                    .iter()
                    .filter(|i| got.knn.indices[q].contains(i))
                    .count();
            }
            let recall = hits as f64 / total as f64;
            assert!(
                recall >= prev,
                "recall must not drop: {prev} -> {recall} at nprobe {nprobe}"
            );
            prev = recall;
        }
        assert!((prev - 1.0).abs() < 1e-12, "full probe must reach recall 1");
    }

    #[test]
    fn sharded_search_is_byte_identical_across_pool_sizes() {
        let m = dataset(26, 11);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Manhattan).fit(m.clone());
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 7,
                nprobe: 3,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        let single = ivf.search(&m, 4).expect("search ok");
        for devices in [1usize, 2, 4] {
            let multi = MultiDevice::replicate(&Device::volta(), devices);
            let sharded = ivf.search_sharded(&multi, &m, 4, 3).expect("sharded ok");
            assert_eq!(single.knn.indices, sharded.knn.indices, "x{devices}");
            assert_eq!(
                bits(&single.knn.distances),
                bits(&sharded.knn.distances),
                "x{devices}"
            );
            assert_eq!(sharded.knn.devices, devices.max(1));
        }
    }

    #[test]
    fn lists_partition_the_index_and_stay_sorted() {
        let m = dataset(33, 9);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let ivf = IvfIndex::fit(&nn, IvfParams::default()).expect("fit ok");
        let mut seen = vec![false; m.rows()];
        for list in ivf.lists() {
            for w in list.windows(2) {
                assert!(w[0] < w[1], "lists must be ascending");
            }
            for &id in list {
                assert!(!seen[id], "row {id} assigned twice");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row must be assigned");
    }

    #[test]
    fn fit_is_deterministic_for_a_fixed_seed() {
        let m = dataset(28, 13);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine).fit(m.clone());
        let p = IvfParams {
            nlist: 5,
            nprobe: 2,
            iters: 2,
            seed: 42,
        };
        let a = IvfIndex::fit(&nn, p).expect("fit ok");
        let b = IvfIndex::fit(&nn, p).expect("fit ok");
        assert_eq!(a.lists(), b.lists());
        assert_eq!(a.centroids(), b.centroids());
    }

    #[test]
    fn nlist_larger_than_index_clamps() {
        let m = dataset(4, 6);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 64,
                nprobe: 64,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        assert_eq!(ivf.nlist(), 4);
        let exact = nn.kneighbors(&m, 2).expect("exact ok");
        let got = ivf.search(&m, 2).expect("search ok");
        assert_eq!(exact.indices, got.knn.indices);
    }

    #[test]
    fn stats_count_probes_and_shortlist_rows() {
        let m = dataset(20, 8);
        let nn = NearestNeighbors::new(Device::volta(), Distance::Euclidean).fit(m.clone());
        let ivf = IvfIndex::fit(
            &nn,
            IvfParams {
                nlist: 5,
                nprobe: 2,
                ..IvfParams::default()
            },
        )
        .expect("fit ok");
        let got = ivf.search(&m, 3).expect("search ok");
        assert_eq!(got.stats.nprobe, 2);
        assert_eq!(got.stats.probes, m.rows() * 2);
        assert!(got.stats.shortlist_rows > 0);
        assert!(
            got.stats.shortlist_rows < m.rows() * m.rows(),
            "partial probe must scan less than brute force"
        );
        let full = ivf
            .search_with_nprobe(&m, 3, ivf.nlist())
            .expect("search ok");
        assert_eq!(full.stats.shortlist_rows, m.rows() * m.rows());
    }
}
