//! Regenerates **§4.3 (Memory Footprint)**: the density of the cuSPARSE
//! `csrgemm()` dot-product output per dataset, its explicit-transpose and
//! internal-workspace allocations, and the comparison against the hybrid
//! kernel's `nnz(B)` workspace.
//!
//! Paper observations being reproduced:
//! * output density ≥ 57 % on MovieLens, ~98 % on NY Times, 100 % on
//!   scRNA, low and variable on SEC Edgar;
//! * the sparse CSR output costs 2× a dense matrix at 100 % density and
//!   still requires a separate dense allocation;
//! * cuSPARSE needs hundreds of MB of internal workspace while "our dot
//!   product semiring required a workspace buffer of size nnz(B) per
//!   batch".
//!
//! Usage: `cargo run --release -p bench --bin memory_footprint \
//!   [-- --scale 0.01 --seed 1] [--json out.json]`

use baseline::cusparse::csrgemm_pairwise;
use bench::report::{BenchReport, MetricRow};
use bench::suite::{default_scale, query_slab};
use bench::{Flag, JSON, SCALE, SEED};
use gpu_sim::Device;
use kernels::{pairwise_distances, PairwiseOptions, SmemMode, Strategy};
use semiring::{Distance, DistanceParams};

const FLAGS: &[Flag] = &[SCALE, SEED, JSON];

fn main() {
    let args = bench::parse_args(FLAGS);
    let scale = args.opt_real("--scale");
    let seed = args.uint("--seed");
    let json_path = args.text("--json");
    let mut report = BenchReport::new("memory_footprint");
    let dev = Device::volta();
    let params = DistanceParams::default();

    println!("Section 4.3: memory footprint per query batch (256 queries x full index)");
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "Dataset", "out dens", "dense KiB", "csr out KiB", "B^T KiB", "work KiB", "ours work KiB"
    );
    // Output density is governed by absolute degree mass, which uniform
    // scaling destroys; scale degrees by sqrt(factor) instead so the
    // intersection structure survives the shrink (see DESIGN.md).
    for profile in datasets::all_profiles() {
        let s = scale.unwrap_or_else(|| default_scale(profile.name));
        let profile = profile.scaled_with(s, s.sqrt());
        let index = profile.generate(seed);
        let queries = query_slab(&index);

        // cuSPARSE-style pipeline on the dot product.
        let r = csrgemm_pairwise(&dev, &queries, &index, Distance::Cosine, &params);

        // Hybrid pipeline on the same distance: workspace = nnz(B) COO
        // row array (+ norm vectors).
        let opts = PairwiseOptions {
            strategy: Strategy::HybridCooSpmv,
            smem_mode: SmemMode::Hash,
            resilience: None,
        };
        let ours = pairwise_distances(&dev, &queries, &index, Distance::Cosine, &params, &opts)
            .expect("hybrid runs");

        println!(
            "{:<14} {:>9.1}% {:>10} {:>12} {:>12} {:>12} {:>12}",
            profile.name,
            r.report.output_density * 100.0,
            r.report.densified_bytes / 1024,
            r.report.output_csr_bytes / 1024,
            r.report.transpose_bytes / 1024,
            r.report.workspace_bytes / 1024,
            ours.memory.workspace_bytes / 1024,
        );
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .label("section", "footprint")
                .value("output_density", r.report.output_density)
                .value("densified_bytes", r.report.densified_bytes as f64)
                .value("output_csr_bytes", r.report.output_csr_bytes as f64)
                .value("transpose_bytes", r.report.transpose_bytes as f64)
                .value("workspace_bytes", r.report.workspace_bytes as f64)
                .value("ours_workspace_bytes", ours.memory.workspace_bytes as f64),
        );
    }
    println!(
        "\npaper shape targets: scRNA fully dense output; NY Times ~98%;\n\
         MovieLens >= 57%; SEC Edgar low/variable. csrgemm's workspace and\n\
         transpose dwarf the hybrid kernel's nnz(B) buffer on every dataset."
    );

    // §4.3's batch-to-batch variance claim, per n-gram size: "The SEC
    // Edgar datasets had the highest variance in density from
    // batch-to-batch and were significantly different between n-gram
    // sizes. The unigram and bigram dataset ranged from 5% to 25% output
    // density ... while trigrams ranged from 24% to 43%."
    println!("\nSEC Edgar output density per query batch, by n-gram size:");
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "variant", "min dens", "max dens", "spread"
    );
    for n in [1usize, 2, 3] {
        let mut profile = datasets::DatasetProfile::sec_edgar_ngram(n).scaled_with(0.004, 1.0);
        if n < 3 {
            // Uni/bigram vocabularies are intrinsically small; scaling
            // them down with the row count would break the tokenization
            // semantics.
            profile.cols = datasets::DatasetProfile::sec_edgar_ngram(n).cols;
        }
        let index = profile.generate(seed + n as u64);
        let batch_rows = 64;
        let mut densities = Vec::new();
        let mut off = 0;
        while off < index.rows().min(batch_rows * 8) {
            let end = (off + batch_rows).min(index.rows());
            let queries = index.slice_rows(off..end);
            let r = csrgemm_pairwise(&dev, &queries, &index, Distance::Cosine, &params);
            densities.push(r.report.output_density);
            off = end;
        }
        let min = densities.iter().copied().fold(f64::INFINITY, f64::min);
        let max = densities.iter().copied().fold(0.0f64, f64::max);
        println!(
            "{:<18} {:>9.1}% {:>9.1}% {:>9.1}pp",
            profile.name,
            min * 100.0,
            max * 100.0,
            (max - min) * 100.0
        );
        report.push(
            MetricRow::new()
                .label("dataset", profile.name)
                .label("section", "batch_density")
                .value("ngram", n as f64)
                .value("min_density", min)
                .value("max_density", max),
        );
    }
    println!(
        "paper: unigram/bigram batches ranged 5-25% dense, trigrams 24-43%\n\
         ('significantly different between n-gram sizes', 'highest variance\n\
         ... from batch-to-batch'). Reproduced: large density differences\n\
         between n-gram sizes and visible batch-to-batch spread. Deviation:\n\
         our synthetic unigrams are the densest (collisions in a tiny\n\
         vocabulary), whereas the paper's real trigram corpus was — see\n\
         EXPERIMENTS.md."
    );
    if let Some(path) = json_path {
        report.write(path);
        println!("wrote {path}");
    }
}
