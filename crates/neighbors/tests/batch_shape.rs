//! Batch-shape byte identity over an index whose COO spans several
//! hybrid stream chunks: a query answered alone and the same query
//! answered inside a 32-row batch get the same indices and the same
//! distance bits. The hybrid grid pairs every staged query row with
//! every chunk of the streamed index; the chunk count depends on the
//! index alone, so the order in which a cell's partial sums ⊕-combine
//! does not change with the batch's row count.

use gpu_sim::Device;
use kernels::hybrid::STREAM_CHUNK;
use neighbors::{MultiDevice, NearestNeighbors};
use semiring::Distance;
use sparse::CsrMatrix;

/// A `rows × cols` matrix at about 14 % density with non-integer
/// values, so the ⊕ order of a cell's partial sums shows in its bits.
fn matrix(rows: usize, cols: usize, salt: usize) -> CsrMatrix<f32> {
    let dense: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i * 7919 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if h.is_multiple_of(7) {
                0.1 + (h % 997) as f32 / 97.0
            } else {
                0.0
            }
        })
        .collect();
    CsrMatrix::from_dense(rows, cols, &dense)
}

#[test]
fn single_and_batched_queries_are_byte_identical_over_a_multi_chunk_index() {
    let index = matrix(260, 512, 1);
    assert!(
        index.nnz() > 2 * STREAM_CHUNK,
        "index must span at least 3 chunks, has {} nonzeros",
        index.nnz()
    );
    let queries = matrix(32, 512, 2);
    let k = 10;
    for distance in [Distance::Euclidean, Distance::Cosine] {
        let nn = NearestNeighbors::new(Device::volta(), distance).fit(index.clone());
        let shards = nn.prepare_shards(&MultiDevice::replicate(&Device::volta(), 1));
        let batch = nn.kneighbors_prepared(&shards, &queries, k).expect("batch");
        for q in 0..queries.rows() {
            let one = nn
                .kneighbors_prepared(&shards, &queries.slice_rows(q..q + 1), k)
                .expect("single");
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(one.indices[0], batch.indices[q], "{distance} query {q}");
            assert_eq!(
                bits(&one.distances[0]),
                bits(&batch.distances[q]),
                "{distance} query {q}"
            );
        }
    }
}
