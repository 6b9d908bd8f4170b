//! Constructing new semirings — the Rust analog of the paper's Figure 3
//! C++ API.
//!
//! "The C++ API can be used to construct new semirings. Dot-product-based
//! semirings only need invoke the first function while NAMMs can be
//! constructed by invoking both." Here we build three semirings from
//! their monoids and run them through the hybrid kernel:
//!
//! 1. a support-overlap counter (annihilating, one pass),
//! 2. the Manhattan NAMM from Appendix A.1 (two passes), and
//! 3. the tropical (min-plus) semiring of Equation 1.
//!
//! Run with: `cargo run --release --example custom_semiring`

use sparse_dist::api::SemiringRunner;
use sparse_dist::sparse::CsrMatrix;
use sparse_dist::{Device, Monoid, Semiring};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    #[rustfmt::skip]
    let x = CsrMatrix::<f64>::from_dense(3, 5, &[
        1.0, 0.0, 1.0, 0.0, 2.0,
        0.0, 1.0, 1.0, 0.0, 0.0,
        3.0, 0.0, 0.0, 1.0, 2.0,
    ]);
    let runner = SemiringRunner::new(Device::volta());

    // 1. Overlap semiring: ⊗ = "both nonzero → 1", ⊕ = +. Annihilating,
    //    so a single intersection pass suffices (Figure 3's first entry
    //    point).
    let overlap = Semiring::annihilating(
        Monoid::new(
            |a: f64, b: f64| if a != 0.0 && b != 0.0 { 1.0 } else { 0.0 },
            1.0,
        ),
        Monoid::plus(),
    );
    let out = runner.run(&x, &x, &overlap)?;
    println!(
        "support overlap |nz(a) ∩ nz(b)| ({} pass):",
        out.launches.len()
    );
    print_matrix(&out.inner_terms);
    assert_eq!(out.launches.len(), 1);
    assert_eq!(out.inner_terms.get(0, 2), 2.0); // columns 0 and 4 shared

    // 2. Manhattan NAMM (Appendix A.1): ⊗ = |a − b| with id⊗ = 0, ⊕ = +.
    //    Non-annihilating, so the runner adds the commuted second pass
    //    (Figure 3's second entry point), which writes a scratch slab
    //    that `hybrid_combine` folds into the output.
    let manhattan = Semiring::namm(
        Monoid::new(|a: f64, b: f64| (a - b).abs(), 0.0),
        Monoid::plus(),
    );
    let out = runner.run(&x, &x, &manhattan)?;
    let names: Vec<&str> = out.launches.iter().map(|l| l.name.as_str()).collect();
    println!("\nManhattan NAMM ({}):", names.join(", "));
    print_matrix(&out.inner_terms);
    assert_eq!(
        names,
        ["hybrid_pass_dense", "hybrid_pass_dense", "hybrid_combine"]
    );
    assert_eq!(out.inner_terms.get(0, 1), 4.0); // |1-0|+|1-0|+|0-1|+|2-0|... = 1+1+0+2? -> columns 0,1,2,4

    // 3. Tropical semiring (Equation 1): (ℝ ∪ {+∞}, {min, +∞}, {+, 0}).
    //    Implicit zeros are the annihilator +∞ ("the re-interpretation of
    //    the zeroth element" the paper notes GraphBLAS needs), so the
    //    evaluation is intersection-only: a min-plus product over shared
    //    columns — two-hop shortest paths if rows are adjacency lists.
    let tropical = Semiring::<f64>::tropical();
    let out = runner.run(&x, &x, &tropical)?;
    println!("\ntropical min-plus ({} pass):", out.launches.len());
    print_matrix(&out.inner_terms);
    // Rows 0 and 2 share columns 0 (1+3) and 4 (2+2) → min = 4.
    assert_eq!(out.inner_terms.get(0, 2), 4.0);

    println!("\nok: all three custom semirings ran through the hybrid kernel");
    Ok(())
}

fn print_matrix(m: &sparse_dist::sparse::DenseMatrix<f64>) {
    for i in 0..m.rows() {
        let row: Vec<String> = (0..m.cols())
            .map(|j| {
                let v = m.get(i, j);
                if v.is_finite() {
                    format!("{v:5.1}")
                } else {
                    "    ∞".to_string()
                }
            })
            .collect();
        println!("  [{}]", row.join(", "));
    }
}
