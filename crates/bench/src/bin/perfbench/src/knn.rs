//! `knn_graph`: offline batch k-NN in the paper's Table 3 setting.
//!
//! Two legs, each one `NearestNeighbors::kneighbors` call with 64 query
//! rows, k = 10 and device-side selection on one simulated device:
//!
//! * `cos_dense`: Cosine over a MovieLens shape, dense shared memory;
//! * `man_hash`: Manhattan over a SEC-Edgar shape, hash shared memory.
//!   Manhattan is a non-annihilating (NAMM) semiring, so the hybrid
//!   kernel runs two passes.
//!
//! `gpu-sim` and `kernels` do nearly all the host work here and `serve`
//! never runs.

use crate::gen::{fnv_answer, matrix_labels, Fnv, SplitMix64};
use crate::report::{cpu_timed, percentile, Metrics, GPUSIM_COUNTS, HYBRID_RANGES};
use crate::serving::{prepare, redrive_tiles};
use crate::spans::Spans;
use crate::{device, Workload, CHECK_EVERY, HOST_THREADS, K};
use baseline::CpuBruteForce;
use datasets::DatasetProfile;
use gpu_sim::{Counters, LaunchStats};
use kernels::{PairwiseOptions, SmemMode, Strategy};
use neighbors::{KnnResult, MultiDevice, NearestNeighbors};
use semiring::{Distance, DistanceParams};
use sparse::CsrMatrix;

/// Query rows per leg: each leg's first rows. 64 keeps a pass near 3 s
/// of host time, so a run times several passes.
const QUERIES: usize = 64;

pub struct KnnGraph {
    pub smoke: bool,
}

pub struct Leg {
    name: &'static str,
    distance: Distance,
    smem: SmemMode,
    index: CsrMatrix<f32>,
    query: CsrMatrix<f32>,
    nn: NearestNeighbors<f32>,
}

pub struct Pass {
    results: Vec<KnnResult<f32>>,
    host_s: Vec<f64>,
}

fn estimator(
    distance: Distance,
    smem: SmemMode,
    index: &CsrMatrix<f32>,
    profile: bool,
) -> NearestNeighbors<f32> {
    NearestNeighbors::new(device().with_profiler(profile), distance)
        .with_options(PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: smem,
            resilience: None,
        })
        .fit(index.clone())
}

impl Leg {
    /// The leg's estimator on a device with the profiler on.
    fn profiled(&self) -> NearestNeighbors<f32> {
        estimator(self.distance, self.smem, &self.index, true)
    }
}

/// True when `got` matches the oracle's `want` up to ties: equal
/// length, distinct indices, and at every rank the distances agree
/// within 1e-5 relative (1e-6 absolute near zero); where the indices
/// differ, the returned row must be equally distant in `want`, or tie
/// with `want`'s last entry.
pub fn agrees(got_idx: &[usize], got_d: &[f32], want: &[(usize, f32)]) -> bool {
    let close =
        |a: f32, b: f32| f64::from((a - b).abs()) <= 1e-5 * f64::from(a.abs().max(b.abs())) + 1e-6;
    let mut distinct = got_idx.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let Some(&(_, last)) = want.last() else {
        return got_idx.is_empty();
    };
    distinct.len() == want.len()
        && got_idx.len() == want.len()
        && got_d.len() == want.len()
        && want.iter().enumerate().all(|(j, &(wi, wd))| {
            close(got_d[j], wd)
                && (got_idx[j] == wi
                    || want
                        .iter()
                        .any(|&(i, d)| i == got_idx[j] && close(d, got_d[j]))
                    || close(got_d[j], last))
        })
}

/// One named counter of a counter set, as catalogued in `GPUSIM_COUNTS`.
fn counter(c: &Counters, launches: usize, name: &str) -> f64 {
    (match name {
        "launches" => launches as u64,
        "issues" => c.issues,
        "effective_issues" => c.effective_issues(),
        "divergence_extra" => c.divergence_extra,
        "bank_conflict_extra" => c.bank_conflict_extra,
        "atomic_conflict_extra" => c.atomic_conflict_extra,
        "global_bytes" => c.global_bytes,
        "global_bytes_requested" => c.global_bytes_requested,
        "global_bytes_unique" => c.global_bytes_unique,
        "smem_accesses" => c.smem_accesses,
        "barriers" => c.barriers,
        other => unreachable!("uncatalogued counter {other}"),
    }) as f64
}

/// Hashes a launch sequence's names, counters and simulated seconds.
pub fn fnv_launches(h: &mut Fnv, launches: &[LaunchStats]) {
    for l in launches {
        h.bytes(l.name.as_bytes());
        for name in GPUSIM_COUNTS {
            h.f64(counter(&l.counters, 1, name));
        }
        h.f64(l.cost.total_seconds);
    }
}

impl Workload for KnnGraph {
    type Inputs = Vec<Leg>;
    type Pass = Pass;

    fn setup(&self, seed: u64, spans: &mut Spans) -> Result<Vec<Leg>, String> {
        let (dims, queries) = if self.smoke {
            (0.001, 8)
        } else {
            (0.02, QUERIES)
        };
        let legs = [
            (
                "cos_dense",
                DatasetProfile::movielens().scaled_with(dims, 0.10),
                Distance::Cosine,
                SmemMode::Dense,
            ),
            (
                "man_hash",
                DatasetProfile::sec_edgar().scaled_with(dims, 1.0),
                Distance::Manhattan,
                SmemMode::Hash,
            ),
        ];
        Ok(legs
            .into_iter()
            .enumerate()
            .map(|(i, (name, profile, distance, smem))| {
                let data_seed = SplitMix64::stream(seed, i as u64).next_u64();
                let index = spans.span("datasets.generate", None, |_| profile.generate(data_seed));
                let query = index.slice_rows(0..queries.min(index.rows()));
                Leg {
                    name,
                    distance,
                    smem,
                    nn: estimator(distance, smem, &index, false),
                    index,
                    query,
                }
            })
            .collect())
    }

    fn labels(&self, legs: &Vec<Leg>) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for leg in legs {
            out.extend(matrix_labels(leg.name, &leg.index));
            out.push((
                format!("input.{}.queries", leg.name),
                leg.query.rows().to_string(),
            ));
        }
        out
    }

    fn pass(&self, legs: &Vec<Leg>, spans: &mut Spans) -> Result<Pass, String> {
        let mut results = Vec::new();
        let mut host_s = Vec::new();
        for leg in legs {
            let profiled;
            let nn = if spans.is_on() {
                profiled = leg.profiled();
                &profiled
            } else {
                &leg.nn
            };
            let (r, cpu_s) = cpu_timed(|| {
                spans.span("neighbors.kneighbors", None, |_| {
                    nn.kneighbors(&leg.query, K)
                })
            })?;
            results.push(r.map_err(|e| format!("{}: {e}", leg.name))?);
            host_s.push(cpu_s);
        }
        Ok(Pass { results, host_s })
    }

    fn ops(&self, pass: &Pass) -> u64 {
        pass.results.iter().map(|r| r.indices.len() as u64).sum()
    }

    fn digest(&self, pass: &Pass) -> u64 {
        let mut h = Fnv::default();
        for r in &pass.results {
            for (i, d) in r.indices.iter().zip(&r.distances) {
                fnv_answer(&mut h, i, d);
            }
            h.f64(r.sim_seconds);
            fnv_launches(&mut h, &r.launches);
        }
        h.finish()
    }

    fn check(&self, legs: &Vec<Leg>, pass: &Pass) -> Result<u64, String> {
        let cpu = CpuBruteForce::new(HOST_THREADS);
        let mut wrong = 0;
        for (leg, r) in legs.iter().zip(&pass.results) {
            for q in (0..leg.query.rows()).step_by(CHECK_EVERY) {
                let want = cpu.knn(
                    &leg.query.slice_rows(q..q + 1),
                    &leg.index,
                    K,
                    leg.distance,
                    &DistanceParams::default(),
                );
                if !agrees(&r.indices[q], &r.distances[q], &want[0]) {
                    eprintln!(
                        "perfbench: knn_graph {} query {q} disagrees with the CPU oracle",
                        leg.name
                    );
                    wrong += 1;
                }
            }
        }
        Ok(wrong)
    }

    fn metrics(&self, legs: &Vec<Leg>, pass: &Pass, m: &mut Metrics) {
        // A leg answers all its queries when its one call completes, so
        // each query's latency is its leg's simulated time.
        let mut latency = Vec::new();
        for ((leg, r), host) in legs.iter().zip(&pass.results).zip(&pass.host_s) {
            let l = leg.name;
            m.add("sim_s", r.sim_seconds);
            m.add("datasets.nnz", leg.index.nnz() as f64);
            latency.extend(std::iter::repeat_n(r.sim_seconds, leg.query.rows()));
            let mut total = Counters::default();
            let (mut compute, mut memory) = (0.0, 0.0);
            for s in &r.launches {
                total.merge(&s.counters);
                compute += s.cost.compute_seconds;
                memory += s.cost.memory_seconds;
                let group = match s.name.as_str() {
                    "row_norms" => "norms",
                    "top_k_select" => "select",
                    _ => "pairwise",
                };
                m.add(&format!("kernels.{l}.{group}_sim_s"), s.sim_seconds());
            }
            for name in GPUSIM_COUNTS {
                m.set(
                    &format!("gpusim.{l}.{name}"),
                    counter(&total, r.launches.len(), name),
                );
            }
            m.set(&format!("gpusim.{l}.compute_s"), compute);
            m.set(&format!("gpusim.{l}.memory_s"), memory);
            m.set(
                &format!("gpusim.{l}.issues_per_host_s"),
                total.issues as f64 / host,
            );
            m.set(&format!("neighbors.{l}.tiles"), r.batches as f64);
            m.set(
                &format!("neighbors.{l}.peak_output_bytes"),
                r.peak_memory.output_bytes as f64,
            );
        }
        latency.sort_by(f64::total_cmp);
        m.set("latency_samples", latency.len() as f64);
        m.set("sim_p50_s", percentile(&latency, 50.0));
        m.set("sim_p99_s", percentile(&latency, 99.0));
    }

    fn traced(
        &self,
        legs: &Vec<Leg>,
        pass: &Pass,
        spans: &mut Spans,
        m: &mut Metrics,
    ) -> Result<(), String> {
        for (leg, r) in legs.iter().zip(&pass.results) {
            let hybrid = r
                .launches
                .iter()
                .filter(|s| s.name.starts_with("hybrid_pass"));
            for range in hybrid
                .filter_map(|s| s.profile.as_ref())
                .flat_map(|p| &p.ranges)
            {
                let leaf = range.path.rsplit('/').next().unwrap_or(&range.path);
                if HYBRID_RANGES.contains(&leaf) {
                    m.add(
                        &format!("kernels.{}.range.{leaf}.issues", leg.name),
                        range.exclusive.issues as f64,
                    );
                }
            }
            // Re-drive the leg's tile through the kernels layer on the
            // same (profiled) device the traced pass used.
            let nn = leg.profiled();
            let pool = MultiDevice::replicate(nn.device(), 1);
            let shards = spans
                .span("neighbors.prepare", None, |_| prepare(&nn, &pool))
                .map_err(|e| format!("{}: {e}", leg.name))?;
            redrive_tiles(spans, &nn, &shards, &leg.query, None)
                .map_err(|e| format!("{}: {e}", leg.name))?;
        }
        set_redrive_metrics(spans, m, true);
        Ok(())
    }

    #[cfg(test)]
    fn corrupt(&self, pass: &mut Pass) {
        pass.results[0].distances[0][0] += 1.0;
    }
}

/// Host time of the re-driven layers: kernels, and what the neighbors
/// layer spends around them (`kneighbors` spans minus the kernel spans,
/// and minus preparation when `kneighbors` prepares inside).
pub fn set_redrive_metrics(spans: &Spans, m: &mut Metrics, prepare_inside: bool) {
    let pairwise = spans.total("kernels.pairwise");
    let select = spans.total("kernels.select");
    let prepare = spans.total("neighbors.prepare");
    m.set("kernels.pairwise_host_s", pairwise);
    m.set("kernels.select_host_s", select);
    m.set("neighbors.prepare_host_s", prepare);
    let below = pairwise + select + if prepare_inside { prepare } else { 0.0 };
    m.set(
        "neighbors.merge_host_s",
        spans.total("neighbors.kneighbors") - below,
    );
}
