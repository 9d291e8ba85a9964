//! Basic dense vector kernels shared by the solvers.
//!
//! The contraction primitives (`dot`, its `NB`-vector form `dot_panel`,
//! its many-against-many form `gram_panel`, `axpy`, and `norm2` through
//! `dot`) delegate to [`BlockedKernel`] — the unrolled `mul_add`
//! microkernels and the Gram tile of `kernel.rs`, run at the widest
//! instruction-set level ([`Isa`]) the host has — so CG/GMRES inherit the
//! same tuned loops the supernodal factorization runs on. The element-wise
//! helpers stay plain slice loops: they are memory-bound and the compiler
//! already vectorizes them at `opt-level >= 2`.

use crate::kernel::{BlockedKernel, Isa};

/// Dot product `x · y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    BlockedKernel.dot(x, y)
}

/// [`dot`] of `x` against `NB` vectors in one pass over `x`: `ys[i][k]` is
/// entry `i` of vector `k`, and result `k` is bit for bit `dot(x, y_k)` —
/// the column-panel form the mid-plane sampler streams its touched-row
/// basis through at `NB = 8`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_panel<const NB: usize>(x: &[f64], ys: &[[f64; NB]]) -> [f64; NB] {
    assert_eq!(x.len(), ys.len(), "dot: length mismatch");
    BlockedKernel.dot_panel(x, ys)
}

/// [`dot`] of every vector `xs[i]` against every column of a `W`-wide
/// panel: `ys[r][k]` is entry `r` of column `k`, and `out[i][k]` is bit for
/// bit `dot(xs[i], y_k)` — the Gram block the Galerkin projection forms,
/// 16 columns of `A_local F` against the whole basis per call.
///
/// It runs on a register tile per instruction-set level ([`Isa`]) that
/// keeps `dot`'s four lane chains, its tail and its reduction tree for
/// every entry; one load of a panel row serves several vectors, and the
/// length runs in k-blocks of [`BlockedKernel::GRAM_K_BLOCK`] entries so
/// the panel's chunk stays in L1 (the `kernel.rs` module docs, "The Gram
/// tile"). Allocates the `xs.len() × 4 × W` lane sums it parks between
/// blocks.
///
/// # Panics
///
/// Panics if `out` and `xs` differ in length, or a vector's length is not
/// the panel's.
#[inline]
pub fn gram_panel<const W: usize>(xs: &[&[f64]], ys: &[[f64; W]], out: &mut [[f64; W]]) {
    BlockedKernel.gram_panel_at(Isa::detected(), xs, ys, out);
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    BlockedKernel.axpy(alpha, x, y);
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Component-wise difference `x - y` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn scale_and_sub() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
        assert_eq!(sub(&x, &[1.0, 1.0]), vec![-4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
