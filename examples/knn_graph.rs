//! Building a k-NN connectivity graph at scale — index batching, device
//! selection, and the sparse adjacency output.
//!
//! This is the workload the paper positions itself under: "Dimensional
//! reduction approaches like t-SNE and UMAP that lack sparse input
//! support on GPUs without our method" consume exactly this k-NN graph.
//! The index is processed in row slabs whose per-slab top-k results are
//! merged — the mechanism that lets a fixed-memory device handle an
//! index larger than any single distance tile — with the k-selection
//! itself running as a device kernel.
//!
//! Run with: `cargo run --release --example knn_graph`

use datasets::DatasetProfile;
use sparse_dist::{
    kneighbors_graph, Device, Distance, GraphMode, NearestNeighbors, PairwiseOptions, SmemMode,
    Strategy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A MovieLens-shaped ratings matrix: users × movies.
    let profile = DatasetProfile::movielens().scaled_with(0.004, 0.04);
    let ratings = profile.generate(21);
    println!(
        "ratings: {} users x {} movies, {} nonzeros",
        ratings.rows(),
        ratings.cols(),
        ratings.nnz()
    );

    let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine)
        .with_options(PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
            resilience: None,
        })
        .with_index_batch_rows(256) // slab the index; merge per-slab top-k
        .fit(ratings.clone());

    let k = 8;
    let result = nn.kneighbors(&ratings, k)?;
    println!(
        "k-NN query: {} tiles, {:.3} ms simulated",
        result.batches,
        result.sim_seconds * 1e3
    );

    // The two graph flavors downstream consumers want.
    let connectivity = kneighbors_graph(&result, ratings.rows(), GraphMode::Connectivity)?;
    let distances = kneighbors_graph(&result, ratings.rows(), GraphMode::Distance)?;
    println!(
        "connectivity graph: {}x{}, {} edges ({} per user)",
        connectivity.rows(),
        connectivity.cols(),
        connectivity.nnz(),
        connectivity.nnz() / ratings.rows().max(1)
    );
    println!(
        "distance graph: {} weighted edges (zero-distance self loops implicit)",
        distances.nnz()
    );

    // Sanity: every user connects to itself (distance 0 ⇒ first slot).
    for (u, row) in result.indices.iter().enumerate().take(5) {
        println!("user {u}: neighbors {:?}", &row[..k.min(row.len())]);
    }
    let mut mutual = 0;
    for u in 0..ratings.rows() {
        for &v in &result.indices[u] {
            if v != u && result.indices[v].contains(&u) {
                mutual += 1;
            }
        }
    }
    println!(
        "mutual (symmetric) edges: {} of {} — the asymmetry UMAP's fuzzy \
         union smooths out",
        mutual,
        connectivity.nnz()
    );
    Ok(())
}
