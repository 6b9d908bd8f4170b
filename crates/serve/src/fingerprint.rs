//! Dataset fingerprints for prepared-index cache keying.

use sparse::{CsrMatrix, Real};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content fingerprint of a CSR matrix: shape, structure (`indptr`,
/// `indices`), and the exact bit patterns of the values (via the
/// lossless `f64` widening every [`Real`] provides). Two matrices get
/// the same fingerprint iff they are bit-identical, which is exactly the
/// granularity the determinism contract promises results at — so a
/// cache hit can never change an answer.
pub fn fingerprint<T: Real>(m: &CsrMatrix<T>) -> u64 {
    fingerprint_with_generation(m, 0)
}

#[cfg(test)]
thread_local! {
    /// Matrices this thread has fingerprinted, so tests can check that
    /// the request engine hashes each (dataset, generation) only once.
    pub(crate) static HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`fingerprint`] extended with a compaction-generation stamp.
///
/// Mutable datasets (DESIGN §16) rewrite their base matrix on every
/// compaction; two generations can coincidentally share content bytes —
/// most plainly, every compacted-to-empty dataset is bit-identical to a
/// never-written one — yet must not alias in the prepared cache, or a
/// stale generation's shards could serve a swapped-out dataset. The
/// generation is folded in *after* the content bytes so immutable
/// callers (generation 0) keep their existing keys.
pub fn fingerprint_with_generation<T: Real>(m: &CsrMatrix<T>, generation: u64) -> u64 {
    #[cfg(test)]
    HASHED.with(|n| n.set(n.get() + 1));
    let mut h = Fnv1a::default();
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    h.write_u64(m.nnz() as u64);
    for &p in m.indptr() {
        h.write_u64(p as u64);
    }
    for &i in m.indices() {
        h.write_u64(u64::from(i));
    }
    for &v in m.values() {
        h.write_u64(v.to_f64().to_bits());
    }
    h.write_u64(generation);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices_share_a_fingerprint() {
        let a = CsrMatrix::<f32>::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let b = CsrMatrix::<f32>::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn value_structure_and_shape_all_matter() {
        let base = CsrMatrix::<f32>::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let value = CsrMatrix::<f32>::from_dense(2, 3, &[1.5, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let structure = CsrMatrix::<f32>::from_dense(2, 3, &[0.0, 1.0, 2.0, 0.0, 3.0, 0.0]);
        let shape = CsrMatrix::<f32>::from_dense(3, 2, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        for other in [&value, &structure, &shape] {
            assert_ne!(fingerprint(&base), fingerprint(other));
        }
    }

    #[test]
    fn empty_matrices_differ_by_shape_only() {
        let a = CsrMatrix::<f64>::zeros(0, 4);
        let b = CsrMatrix::<f64>::zeros(0, 5);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&CsrMatrix::<f64>::zeros(0, 4)));
    }

    #[test]
    fn generation_stamp_splits_bitwise_equal_content() {
        // The empty-matrix aliasing bug: a dataset compacted down to
        // zero rows is bit-identical to a never-written one of the same
        // width, so without the generation stamp they would share a
        // cache key across generations.
        let empty = CsrMatrix::<f64>::zeros(0, 4);
        assert_eq!(fingerprint(&empty), fingerprint_with_generation(&empty, 0));
        assert_ne!(
            fingerprint_with_generation(&empty, 0),
            fingerprint_with_generation(&empty, 1)
        );
        let dense = CsrMatrix::<f32>::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert_eq!(fingerprint(&dense), fingerprint_with_generation(&dense, 0));
        assert_ne!(
            fingerprint_with_generation(&dense, 3),
            fingerprint_with_generation(&dense, 4)
        );
    }
}
