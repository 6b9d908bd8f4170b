//! Row-major dense matrices.

use crate::csr::CsrMatrix;
use crate::real::Real;

/// A row-major dense matrix.
///
/// Pairwise-distance outputs are dense by nature (§4.3: the cuSPARSE
/// output "still needs to be converted to a dense format"), so kernels and
/// baselines alike produce a `DenseMatrix`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> DenseMatrix<T> {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Applies `f` to every element in place (the element-wise primitive
    /// expansion functions run through, §3.4).
    pub fn map_inplace<F: FnMut(T) -> T>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Largest absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Bytes of device memory the dense matrix occupies.
    pub fn device_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl<T: Real> From<&CsrMatrix<T>> for DenseMatrix<T> {
    fn from(csr: &CsrMatrix<T>) -> Self {
        let mut d = DenseMatrix::zeros(csr.rows(), csr.cols());
        for (r, c, v) in csr.iter() {
            d.set(r as usize, c as usize, v);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut m = DenseMatrix::<f32>::zeros(2, 3);
        assert_eq!(m.get(1, 2), 0.0);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        DenseMatrix::<f32>::zeros(1, 1).get(0, 1);
    }

    #[test]
    fn from_csr_places_every_nonzero() {
        let csr =
            CsrMatrix::<f64>::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, -1.0)]).expect("valid");
        let d = DenseMatrix::from(&csr);
        assert_eq!(d.as_slice(), &[0.0, 3.0, -1.0, 0.0]);
    }

    #[test]
    fn map_inplace_applies_elementwise() {
        let mut m = DenseMatrix::from_vec(1, 3, vec![1.0f32, 2.0, 3.0]);
        m.map_inplace(|v| v * v);
        assert_eq!(m.as_slice(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn max_abs_diff_finds_worst_cell() {
        let a = DenseMatrix::from_vec(1, 3, vec![1.0f32, 2.0, 3.0]);
        let b = DenseMatrix::from_vec(1, 3, vec![1.0f32, 2.5, 2.0]);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn device_bytes_is_rows_cols_scalar() {
        let m = DenseMatrix::<f32>::zeros(10, 20);
        assert_eq!(m.device_bytes(), 800);
    }
}
