//! The semiring type tying the two monoids together (§2.2).

use crate::monoid::Monoid;
use sparse::Real;

/// A semiring `(S, ℝ, {⊕, id⊕}, {⊗, id⊗})` with an explicit statement of
/// whether `⊗` annihilates on `id⊕`.
///
/// * **Annihilating** (`annihilator⊗ = id⊕`, i.e. `⊗(a, 0) = 0`): the
///   product need only be applied to the *intersection* of nonzero
///   columns — the classic sparse dot product, and what GraphBLAS-style
///   packages assume.
/// * **Non-annihilating** (`id⊗ = 0`, no annihilator — the paper's NAMM):
///   `⊗(a, 0) = a`, so the product must be applied over the *union* of
///   nonzero columns, which the hybrid kernel realizes with a second pass
///   (§3.3.1).
///
/// This mirrors the paper's Figure 3 C++ construction API: dot-product
/// based semirings invoke only the product/reduce pair, NAMMs additionally
/// flag the union requirement.
///
/// # Example
///
/// ```
/// use semiring::{Monoid, Semiring};
/// // Ordinary dot product: (ℝ, {+, 0}, {×, 1}) with annihilator 0.
/// let dot = Semiring::<f64>::dot_product();
/// assert!(dot.is_annihilating());
/// // Manhattan NAMM: ⊗ = |a - b| with id⊗ = 0, ⊕ = +.
/// let l1 = Semiring::namm(Monoid::new(|a: f64, b: f64| (a - b).abs(), 0.0), Monoid::plus());
/// assert!(!l1.is_annihilating());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Semiring<T> {
    product: Monoid<T>,
    reduce: Monoid<T>,
    annihilating: bool,
}

impl<T: Real> Semiring<T> {
    /// Builds an *annihilating* semiring: `⊗` only needs the nonzero
    /// intersection. `product.identity()` plays the role of `id⊗` and
    /// `reduce.identity()` of `id⊕ = annihilator⊗`.
    pub fn annihilating(product: Monoid<T>, reduce: Monoid<T>) -> Self {
        Self {
            product,
            reduce,
            annihilating: true,
        }
    }

    /// Builds a *non-annihilating multiplicative monoid* (NAMM) semiring:
    /// `⊗` must run over the full nonzero union and `id⊗ = id⊕ = 0`.
    pub fn namm(product: Monoid<T>, reduce: Monoid<T>) -> Self {
        Self {
            product,
            reduce,
            annihilating: false,
        }
    }

    /// The ordinary dot-product semiring `(ℝ, {+, 0}, {×, 1})`.
    pub fn dot_product() -> Self {
        Self::annihilating(Monoid::times(), Monoid::plus())
    }

    /// The tropical semiring `(ℝ ∪ {+∞}, {min, +∞}, {+, 0})` of
    /// Equation 1 — not a distance, but the classic relaxation example the
    /// paper cites (Viterbi-style dynamic programs).
    pub fn tropical() -> Self {
        Self::annihilating(Monoid::plus(), Monoid::min())
    }

    /// The `⊕` monoid.
    #[inline]
    pub fn reduce_monoid(&self) -> &Monoid<T> {
        &self.reduce
    }

    /// Applies `⊗`.
    #[inline]
    pub fn product(&self, a: T, b: T) -> T {
        self.product.apply(a, b)
    }

    /// Applies `⊕`.
    #[inline]
    pub fn reduce(&self, acc: T, v: T) -> T {
        self.reduce.apply(acc, v)
    }

    /// `id⊕` — also the value every output cell starts from.
    #[inline]
    pub fn reduce_identity(&self) -> T {
        self.reduce.identity()
    }

    /// `id⊗`.
    #[inline]
    pub fn product_identity(&self) -> T {
        self.product.identity()
    }

    /// True when `annihilator⊗ = id⊕` (intersection-only evaluation is
    /// sound); false for NAMMs (union evaluation required).
    #[inline]
    pub fn is_annihilating(&self) -> bool {
        self.annihilating
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_semiring_computes_dot() {
        let sr = Semiring::<f64>::dot_product();
        let mut acc = sr.reduce_identity();
        for (a, b) in [(1.0, 2.0), (3.0, 4.0)] {
            acc = sr.reduce(acc, sr.product(a, b));
        }
        assert_eq!(acc, 14.0);
    }

    #[test]
    fn dot_product_annihilates_on_zero() {
        let sr = Semiring::<f32>::dot_product();
        assert_eq!(sr.product(5.0, 0.0), 0.0);
        assert_eq!(sr.product(0.0, 5.0), 0.0);
        assert!(sr.is_annihilating());
    }

    #[test]
    fn namm_does_not_annihilate() {
        let sr = Semiring::namm(
            Monoid::new(|a: f64, b: f64| (a - b).abs(), 0.0),
            Monoid::plus(),
        );
        // ⊗(a, 0) = a, the XOR-like behaviour of Appendix A.1.
        assert_eq!(sr.product(3.0, 0.0), 3.0);
        assert_eq!(sr.product(0.0, 3.0), 3.0);
        assert_eq!(sr.product(3.0, 3.0), 0.0);
        assert!(!sr.is_annihilating());
        assert_eq!(sr.product_identity(), 0.0);
    }

    #[test]
    fn tropical_semiring_solves_min_plus() {
        // Shortest two-hop path: min over j of d1[j] + d2[j].
        let sr = Semiring::<f64>::tropical();
        let d1 = [1.0, 4.0, 2.0];
        let d2 = [5.0, 1.0, 3.0];
        let mut acc = sr.reduce_identity();
        for j in 0..3 {
            acc = sr.reduce(acc, sr.product(d1[j], d2[j]));
        }
        assert_eq!(acc, 5.0); // via j=1 or j=2
    }
}
