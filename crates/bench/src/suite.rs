//! Shared benchmark-suite configuration: which datasets, at which scales,
//! with which distance groups — one place so every harness binary agrees
//! with the others and with EXPERIMENTS.md — and [`run_knn_cell`], the
//! one k-NN runner behind every Table 3, speedup and arch_compare cell.

use crate::runner::Timed;
use baseline::cusparse::{baseline_supports, csrgemm_pairwise};
use datasets::DatasetProfile;
use gpu_sim::{Device, LaunchStats};
use kernels::{top_k_kernel, PairwiseOptions, SmemMode, Strategy};
use neighbors::NearestNeighbors;
use semiring::{Distance, DistanceParams};
use sparse::{CsrMatrix, Real};

/// Query rows per k-NN benchmark (the paper queries the full dataset; we
/// subsample queries so the simulator finishes in minutes — ratios are
/// unaffected since both methods see the same queries).
pub const QUERY_ROWS: usize = 256;

/// Neighbors per query, matching a typical `k` for the paper's
/// brute-force `NearestNeighbors` runs.
pub const KNN_K: usize = 10;

/// Default dimension down-scale factor per dataset, tuned so each
/// benchmark run takes seconds on the simulator.
pub fn default_scale(name: &str) -> f64 {
    match name {
        "MovieLens" => 0.02,
        "SEC Edgar" => 0.01,
        "scRNA" => 0.01,
        "NY Times BoW" => 0.01,
        _ => 0.01,
    }
}

/// Default *degree* scale per dataset. Degrees shrink less than
/// dimensions (or not at all) because the kernels' comparative behaviour
/// — merge-loop divergence in Alg 2, hash-table load in Alg 3 — is
/// driven by absolute row degrees, which uniform scaling would crush to
/// 1-2 nonzeros. SEC Edgar's real degrees are already tiny (max 51), so
/// they are kept verbatim; the cost is a density higher than Table 2's,
/// which is recorded in EXPERIMENTS.md.
pub fn default_degree_scale(name: &str) -> f64 {
    match name {
        "MovieLens" => 0.10,
        "SEC Edgar" => 1.0,
        "scRNA" => 0.02,
        "NY Times BoW" => 0.10,
        _ => 0.10,
    }
}

/// The benchmark datasets. With an explicit `scale`, each is
/// [`scaled`]; otherwise the per-dataset defaults apply.
pub fn bench_profiles(scale: Option<f64>) -> Vec<DatasetProfile> {
    datasets::all_profiles()
        .into_iter()
        .map(|p| match scale {
            Some(s) => scaled(&p, s),
            None => p.scaled_with(default_scale(p.name), default_degree_scale(p.name)),
        })
        .collect()
}

/// `profile` at an explicit `--scale`: dimensions shrink by `scale`
/// and degrees by `sqrt(scale)`.
pub fn scaled(profile: &DatasetProfile, scale: f64) -> DatasetProfile {
    profile.scaled_with(scale, scale.sqrt().min(1.0))
}

/// Slices the first [`QUERY_ROWS`] rows as the query set.
pub fn query_slab<T: Real>(index: &CsrMatrix<T>) -> CsrMatrix<T> {
    index.slice_rows(0..QUERY_ROWS.min(index.rows()))
}

/// Table 3's "Dot Product Based" distance group, in paper order.
pub fn dot_based_distances() -> Vec<Distance> {
    vec![
        Distance::Correlation,
        Distance::Cosine,
        Distance::DiceSorensen,
        Distance::Euclidean,
        Distance::Hellinger,
        Distance::Jaccard,
        Distance::RusselRao,
    ]
}

/// Table 3's "Non-Trivial Metrics" group, in paper order.
pub fn non_trivial_distances() -> Vec<Distance> {
    vec![
        Distance::Canberra,
        Distance::Chebyshev,
        Distance::Hamming,
        Distance::JensenShannon,
        Distance::KlDivergence,
        Distance::Manhattan,
        Distance::Minkowski,
    ]
}

/// Geometric mean of `xs` (each clamped to 1e-12), 0 when empty.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A column of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// The paper's baseline: cuSPARSE-style `csrgemm()` where it supports
    /// the distance, the naive full-union CSR kernel (Alg 2) elsewhere.
    Baseline,
    /// RAFT (ours): the hybrid CSR+COO kernel with hash-table smem (§4.2).
    Hybrid,
}

/// One Table 3 cell's answer and billing, as [`run_knn_cell`] returns it.
#[derive(Debug, Clone)]
pub struct KnnCell<T> {
    /// Per query row, the [`KNN_K`] nearest distances in ascending order.
    pub distances: Vec<Vec<T>>,
    /// Simulated seconds, selection included.
    pub sim_seconds: f64,
    /// Simulated seconds of the `top_k_select` launches alone.
    pub select_sim_seconds: f64,
    /// Every launch, in execution order.
    pub launches: Vec<LaunchStats>,
    /// Query tiles, each ending in its `top_k_select` launches (two when
    /// the selection splits its rows into column chunks).
    pub batches: usize,
}

/// Runs one Table 3 cell: the [`KNN_K`] nearest neighbors of `queries`
/// in `index` as `column` computes `distance`, selected on the device as
/// cuML's `NearestNeighbors` does. Hybrid and naive-CSR cells are the
/// served [`NearestNeighbors::kneighbors`]; a csrgemm cell runs
/// [`top_k_kernel`] over its uploaded distances, and its multiply, costed
/// from counters rather than launched, bills `sim_seconds` without a
/// launch. Panics if a launch fails (the harness devices inject no
/// faults).
pub fn run_knn_cell<T: Real>(
    dev: &Device,
    queries: &CsrMatrix<T>,
    index: &CsrMatrix<T>,
    distance: Distance,
    params: &DistanceParams,
    column: Column,
) -> Timed<KnnCell<T>> {
    Timed::run(|| {
        if column == Column::Hybrid || !baseline_supports(distance) {
            let strategy = match column {
                Column::Baseline => Strategy::NaiveCsr,
                Column::Hybrid => Strategy::HybridCooSpmv,
            };
            let r = NearestNeighbors::new(dev.clone(), distance)
                .with_params(*params)
                .with_options(PairwiseOptions {
                    strategy,
                    smem_mode: SmemMode::Hash,
                    resilience: None,
                })
                .fit(index.clone())
                .kneighbors(queries, KNN_K)
                .expect("k-NN runs");
            let select = r.launches.iter().filter(|l| l.name == "top_k_select");
            return KnnCell {
                select_sim_seconds: select.map(LaunchStats::sim_seconds).sum(),
                distances: r.distances,
                sim_seconds: r.sim_seconds,
                launches: r.launches,
                batches: r.batches,
            };
        }
        // csrgemm's distances end on the host: upload them as one tile.
        let r = csrgemm_pairwise(dev, queries, index, distance, params);
        let (rows, cols) = (r.distances.rows(), r.distances.cols());
        let k = KNN_K.min(cols.max(1));
        let tile = dev.buffer_from_slice(r.distances.as_slice());
        let (idx, val, select) = top_k_kernel(dev, &tile, rows, cols, k).expect("selection runs");
        let select_sim_seconds = select.iter().map(LaunchStats::sim_seconds).sum::<f64>();
        let (idx, val) = (idx.to_vec(), val.to_vec());
        let distances = (0..rows)
            .map(|q| {
                (q * k..(q + 1) * k)
                    .filter(|&s| idx[s] != u32::MAX)
                    .map(|s| val[s])
                    .collect()
            })
            .collect();
        KnnCell {
            distances,
            sim_seconds: r.report.sim_seconds + select_sim_seconds,
            select_sim_seconds,
            launches: select,
            batches: 1,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_table3s_fourteen_rows() {
        assert_eq!(dot_based_distances().len(), 7);
        assert_eq!(non_trivial_distances().len(), 7);
        for d in dot_based_distances() {
            assert!(
                baseline::cusparse::baseline_supports(d),
                "{d} must be csrgemm-supported"
            );
        }
        for d in non_trivial_distances() {
            assert!(
                !baseline::cusparse::baseline_supports(d),
                "{d} must fall back to the naive baseline"
            );
        }
    }

    #[test]
    fn bench_profiles_apply_scales() {
        let ps = bench_profiles(Some(0.001));
        assert_eq!(ps.len(), 4);
        assert!(ps.iter().all(|p| p.rows < 1000));
        let defaults = bench_profiles(None);
        assert!(defaults[0].rows > ps[0].rows);
    }

    /// Each side of Table 3 bills exactly its parts, selects once per
    /// tile on the device, and answers what the CPU brute force answers.
    #[test]
    fn knn_cell_bills_its_selection_and_matches_the_cpu() {
        let dev = Device::volta();
        let params = DistanceParams { minkowski_p: 3.0 };
        let cpu = baseline::CpuBruteForce::new(2);
        for profile in bench_profiles(Some(0.001)) {
            // f64 end to end, so the comparison tests the pipeline, not
            // f32 summation order.
            let index = to_f64(&profile.generate(1));
            let queries = query_slab(&index);
            for (distance, column) in [
                (Distance::Cosine, Column::Baseline),
                (Distance::Cosine, Column::Hybrid),
                (Distance::Manhattan, Column::Baseline),
                (Distance::Manhattan, Column::Hybrid),
            ] {
                let at = format!("{} {distance} {column:?}", profile.name);
                let cell = run_knn_cell(&dev, &queries, &index, distance, &params, column).value;
                let unlaunched = if column == Column::Baseline && baseline_supports(distance) {
                    csrgemm_pairwise(&dev, &queries, &index, distance, &params)
                        .report
                        .sim_seconds
                } else {
                    0.0
                };
                let billed: f64 = unlaunched
                    + cell
                        .launches
                        .iter()
                        .map(LaunchStats::sim_seconds)
                        .sum::<f64>();
                assert!(
                    (billed - cell.sim_seconds).abs() <= 1e-12 * billed,
                    "{at}: {billed} billed vs {} reported",
                    cell.sim_seconds
                );
                assert_selection_billed(&cell, &at);

                let want = cpu.knn(&queries, &index, KNN_K, distance, &params);
                assert_eq!(cell.distances.len(), want.len(), "{at}");
                for (q, (got, want)) in cell.distances.iter().zip(&want).enumerate() {
                    assert_eq!(got.len(), want.len(), "{at} query {q}");
                    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
                        assert!(
                            (g - w.1).abs() < 1e-6,
                            "{at} query {q} rank {rank}: {g} vs {}",
                            w.1
                        );
                    }
                }
            }
        }
    }

    /// Every tile ends in one `top_k_select`, or two when its selection
    /// splits, and `select_sim_seconds` sums all of them. Returns the
    /// number of selection launches.
    fn assert_selection_billed<T: Real>(cell: &KnnCell<T>, at: &str) -> usize {
        let selects: Vec<_> = cell
            .launches
            .iter()
            .filter(|l| l.name == "top_k_select")
            .collect();
        let n = selects.len();
        assert!(
            (cell.batches..=2 * cell.batches).contains(&n),
            "{at}: {n} selection launches over {} tiles",
            cell.batches
        );
        let sum: f64 = selects.iter().map(|l| l.sim_seconds()).sum();
        assert_eq!(cell.select_sim_seconds.to_bits(), sum.to_bits(), "{at}");
        assert!(cell.select_sim_seconds > 0.0, "{at}");
        n
    }

    /// A full 256-query slab over 600 index rows splits its selection
    /// (two column chunks per row, 512 blocks): both cell kinds carry
    /// and bill the chunk scan and the merge, and still answer what
    /// the CPU brute force answers.
    #[test]
    fn split_selection_is_carried_and_billed() {
        let dev = Device::volta();
        let params = DistanceParams::default();
        let dense: Vec<f64> = (0..600 * 40)
            .map(|i: usize| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if h.is_multiple_of(5) {
                    1.0 + (h % 89) as f64 / 8.0
                } else {
                    0.0
                }
            })
            .collect();
        let index = CsrMatrix::from_dense(600, 40, &dense);
        let queries = query_slab(&index);
        assert_eq!(queries.rows(), QUERY_ROWS);
        let want =
            baseline::CpuBruteForce::new(2).knn(&queries, &index, KNN_K, Distance::Cosine, &params);
        for column in [Column::Baseline, Column::Hybrid] {
            let at = format!("Cosine {column:?}");
            let cell =
                run_knn_cell(&dev, &queries, &index, Distance::Cosine, &params, column).value;
            assert_eq!(cell.batches, 1, "{at}");
            assert_eq!(assert_selection_billed(&cell, &at), 2, "{at}");
            for (q, (got, want)) in cell.distances.iter().zip(&want).enumerate() {
                let want: Vec<f64> = want.iter().map(|w| w.1).collect();
                assert_eq!(got.len(), want.len(), "{at} query {q}");
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "{at} query {q}: {g} vs {w}");
                }
            }
        }
    }

    fn to_f64(m: &CsrMatrix<f32>) -> CsrMatrix<f64> {
        let values = m.values().iter().map(|&v| f64::from(v)).collect();
        CsrMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            values,
        )
        .expect("valid structure is preserved")
    }

    #[test]
    fn query_slab_caps_rows() {
        let m = CsrMatrix::<f32>::zeros(10, 4);
        assert_eq!(query_slab(&m).rows(), 10);
        let m = CsrMatrix::<f32>::zeros(1000, 4);
        assert_eq!(query_slab(&m).rows(), QUERY_ROWS);
    }
}
