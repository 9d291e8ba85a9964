//! The per-loop reference of the dense microkernel.

/// The plain slice loops `morestress-linalg` shipped with before its
/// dense loops were tiled and fused, kept verbatim: the reference every
/// method of `morestress_linalg::BlockedKernel` is compared against, to
/// ≤1e-12 (the two associate sums differently, and a fused multiply-add
/// rounds differently from a separate multiply and add). Each method has
/// the name, arguments and contract of the `BlockedKernel` method it
/// checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl ScalarKernel {
    /// Dot product `x · y`, summed left to right.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    /// `y ← y + alpha·x`.
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// `update += Gᵀ·G` restricted to its first `wj` columns, streamed one
    /// descendant column at a time (`BlockedKernel::rank_update`).
    pub fn rank_update(
        &self,
        update: &mut [f64],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
    ) {
        let mu = m - lo;
        for k in 0..wd {
            let gcol = &panel[k * m + lo..k * m + m];
            for jj in 0..wj {
                let coef = gcol[jj];
                if coef == 0.0 {
                    continue;
                }
                let dstcol = &mut update[jj * mu..(jj + 1) * mu];
                for (di, &gi) in dstcol.iter_mut().zip(gcol) {
                    *di += coef * gi;
                }
            }
        }
    }

    /// One descendant's contribution scattered into a panel, in the
    /// unfused form: a zeroed buffer, [`rank_update`](Self::rank_update),
    /// then the scatter of the lower triangle through `relrows`
    /// (subtracting when `subtract`) — the contract
    /// `BlockedKernel::scatter_update` meets in one pass.
    #[allow(clippy::too_many_arguments)] // the update's source and target
    pub fn scatter_update(
        &self,
        dst: &mut [f64],
        ldd: usize,
        relrows: &[usize],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
        subtract: bool,
    ) {
        let mu = m - lo;
        let mut update = vec![0.0; mu * wj];
        self.rank_update(&mut update, panel, m, lo, wj, wd);
        for jj in 0..wj {
            let lc = relrows[jj];
            let dstcol = &mut dst[lc * ldd..(lc + 1) * ldd];
            let src = &update[jj * mu..(jj + 1) * mu];
            // Skip rows above the target column (upper triangle of the
            // symmetric update block).
            if subtract {
                for i in jj..mu {
                    dstcol[relrows[i]] -= src[i];
                }
            } else {
                for i in jj..mu {
                    dstcol[relrows[i]] += src[i];
                }
            }
        }
    }

    /// Dense left-looking Cholesky of a panel's diagonal block, the rows
    /// below updated in the same pass (`BlockedKernel::factor_panel`).
    ///
    /// # Errors
    ///
    /// `Err((j, pivot))` when the pivot of local column `j` is not
    /// strictly positive and finite.
    pub fn factor_panel(&self, panel: &mut [f64], m: usize, w: usize) -> Result<(), (usize, f64)> {
        for j in 0..w {
            let (head, tail) = panel.split_at_mut(j * m);
            let colj = &mut tail[..m];
            for colk in head.chunks_exact(m) {
                let coef = colk[j]; // L[j, k] in the diagonal block
                if coef == 0.0 {
                    continue;
                }
                for (x, &lk) in colj[j..].iter_mut().zip(&colk[j..]) {
                    *x -= coef * lk;
                }
            }
            let d = colj[j];
            if d <= 0.0 || !d.is_finite() {
                return Err((j, d));
            }
            let piv = d.sqrt();
            colj[j] = piv;
            let inv = 1.0 / piv;
            for x in &mut colj[j + 1..] {
                *x *= inv;
            }
        }
        Ok(())
    }

    /// Forward substitution on the diagonal block for an interleaved
    /// block of `nrhs` columns (`BlockedKernel::solve_lower`).
    pub fn solve_lower(&self, panel: &[f64], m: usize, w: usize, x: &mut [f64], nrhs: usize) {
        for j in 0..w {
            let col = &panel[j * m..(j + 1) * m];
            for c in 0..nrhs {
                let yj = x[j * nrhs + c] / col[j];
                x[j * nrhs + c] = yj;
                for i in (j + 1)..w {
                    x[i * nrhs + c] -= col[i] * yj;
                }
            }
        }
    }

    /// `acc ← L₂₁ · Y` for an interleaved block of `nrhs` columns
    /// (`BlockedKernel::below_accumulate`).
    pub fn below_accumulate(
        &self,
        panel: &[f64],
        m: usize,
        w: usize,
        y: &[f64],
        acc: &mut [f64],
        nrhs: usize,
    ) {
        acc.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..w {
            let col = &panel[j * m + w..(j + 1) * m];
            for c in 0..nrhs {
                let coef = y[j * nrhs + c];
                if coef == 0.0 {
                    continue;
                }
                for (i, &l) in col.iter().enumerate() {
                    acc[i * nrhs + c] += l * coef;
                }
            }
        }
    }

    /// Backward substitution `L₁₁ᵀ X = X − L₂₁ᵀ X_b` for an interleaved
    /// block of `nrhs` columns (`BlockedKernel::solve_lower_transpose`).
    pub fn solve_lower_transpose(
        &self,
        panel: &[f64],
        m: usize,
        w: usize,
        x: &mut [f64],
        xb: &[f64],
        nrhs: usize,
    ) {
        for j in (0..w).rev() {
            let col = &panel[j * m..(j + 1) * m];
            for c in 0..nrhs {
                let mut acc = x[j * nrhs + c];
                for (i, &l) in col[w..].iter().enumerate() {
                    acc -= l * xb[i * nrhs + c];
                }
                for i in (j + 1)..w {
                    acc -= col[i] * x[i * nrhs + c];
                }
                x[j * nrhs + c] = acc / col[j];
            }
        }
    }
}
