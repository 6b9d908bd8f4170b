//! Round-trip property tests for the `From` conversions between the
//! storage formats.

#[cfg(test)]
mod tests {
    use crate::coo::CooMatrix;
    use crate::csc::CscMatrix;
    use crate::csr::CsrMatrix;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;

    /// Strategy producing an arbitrary CSR matrix with up to 12x12 shape
    /// and ~30% fill, values avoiding exact zero so dense round trips are
    /// lossless.
    fn arb_csr() -> impl Strategy<Value = CsrMatrix<f32>> {
        (1usize..12, 1usize..12)
            .prop_flat_map(|(rows, cols)| {
                let cells = rows * cols;
                (
                    Just(rows),
                    Just(cols),
                    proptest::collection::vec(
                        prop_oneof![
                            3 => Just(0.0f32),
                            1 => (1u32..1000).prop_map(|v| v as f32 / 100.0 + 0.01),
                        ],
                        cells,
                    ),
                )
            })
            .prop_map(|(rows, cols, data)| CsrMatrix::from_dense(rows, cols, &data))
    }

    proptest! {
        #[test]
        fn csr_coo_round_trip(m in arb_csr()) {
            prop_assert_eq!(CsrMatrix::from(&CooMatrix::from(&m)), m);
        }

        #[test]
        fn csr_csc_round_trip(m in arb_csr()) {
            prop_assert_eq!(CsrMatrix::from(&CscMatrix::from(&m)), m);
        }

        #[test]
        fn csr_dense_round_trip(m in arb_csr()) {
            let d = DenseMatrix::from(&m);
            prop_assert_eq!(CsrMatrix::from_dense(d.rows(), d.cols(), d.as_slice()), m);
        }

        #[test]
        fn transpose_round_trip(m in arb_csr()) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn nnz_preserved_by_all_conversions(m in arb_csr()) {
            prop_assert_eq!(CooMatrix::from(&m).nnz(), m.nnz());
            prop_assert_eq!(CscMatrix::from(&m).nnz(), m.nnz());
            prop_assert_eq!(m.transpose().nnz(), m.nnz());
        }

        #[test]
        fn coo_rows_are_sorted_row_major(m in arb_csr()) {
            let coo = CooMatrix::from(&m);
            for w in coo.row_indices().windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
