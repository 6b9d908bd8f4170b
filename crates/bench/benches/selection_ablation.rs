//! Ablation: tiled device-side k-selection vs the fused
//! distance+selection kernel in the k-NN pipeline.
//!
//! cuML performs the k-smallest selection on the GPU so the dense
//! distance tile never crosses PCIe; the fused kernel goes further and
//! never materializes the tile at all. This bench measures both
//! pipelines end-to-end and prints each one's simulated time and peak
//! output memory.
//!
//! Run with: `cargo bench -p bench --bench selection_ablation`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::DatasetProfile;
use gpu_sim::Device;
use neighbors::NearestNeighbors;
use semiring::Distance;
use sparse::CsrMatrix;

fn workload() -> CsrMatrix<f32> {
    DatasetProfile::nytimes_bow()
        .scaled_with(0.002, 0.05)
        .generate(3)
}

fn to_f32(m: CsrMatrix<f32>) -> CsrMatrix<f32> {
    m
}

fn bench_selection(c: &mut Criterion) {
    let index = to_f32(workload());
    let queries = index.slice_rows(0..index.rows().min(64));
    let mut group = c.benchmark_group("selection");
    println!(
        "\nworkload: {} queries x {} index rows, k = 10",
        queries.rows(),
        index.rows()
    );
    for (label, fused) in [("device-select", false), ("fused", true)] {
        let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine)
            .with_fused(fused)
            .fit(index.clone());
        let r = nn.kneighbors(&queries, 10).expect("query ok");
        println!(
            "{label}: {:.3} ms simulated total, peak output {} KiB",
            r.sim_seconds * 1e3,
            r.peak_memory.output_bytes / 1024
        );
        group.bench_function(BenchmarkId::new("kneighbors", label), |b| {
            let nn = NearestNeighbors::new(Device::volta(), Distance::Cosine)
                .with_fused(fused)
                .fit(index.clone());
            b.iter(|| nn.kneighbors(&queries, 10).expect("query ok"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_selection
}
criterion_main!(benches);
