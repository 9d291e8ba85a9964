//! Property-based tests of the linear algebra kernels and the shared
//! worker-pool runtime.

#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use morestress_linalg::{
    axpy, dot, dot_panel, geometric_dissection, gram_panel, reverse_cuthill_mckee, solve_cg,
    solve_gmres, Auto, BlockedKernel, CgOptions, CooMatrix, CsrMatrix, DenseMatrix, DirectCholesky,
    FactorCache, FaultPlan, FillOrdering, GmresOptions, Isa, JacobiPreconditioner, LinalgError,
    PartitionHint, Permutation, ShardPlan, Sharded, SolverBackend, SupernodalCholesky,
    SupernodalOptions, SymbolicParts, TaskDag, WorkPool,
};
use morestress_oracle::{transposed, DenseLu, ScalarKernel, SparseCholesky};
use proptest::prelude::*;

/// Random sparse triplets on an n×n matrix.
fn coo_strategy(n: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    prop::collection::vec((0..n, 0..n, -10.0f64..10.0), 1..max_nnz).prop_map(move |trips| {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in trips {
            coo.push(i, j, v);
        }
        coo
    })
}

/// A random SPD matrix: A = B Bᵀ + (n+1)·I with sparse-ish B, assembled
/// densely into COO (small n keeps this cheap).
fn spd_strategy(n: usize) -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |b| {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    v += b[i * n + k] * b[j * n + k];
                }
                if i == j {
                    v += (n + 1) as f64;
                }
                coo.push(i, j, v);
            }
        }
        coo.to_csr()
    })
}

/// Two independent random SPD blocks of `n` rows each (as
/// [`spd_strategy`]), then one separator row coupled to every row of both:
/// in natural order its elimination tree forks at the separator, so the
/// numeric factorization schedules the two blocks as parallel subtrees.
fn forked_spd_strategy(n: usize) -> impl Strategy<Value = CsrMatrix> {
    (
        spd_strategy(n),
        spd_strategy(n),
        prop::collection::vec(-1.0f64..1.0, 2 * n),
    )
        .prop_map(move |(first, second, c)| {
            let dim = 2 * n + 1;
            let mut coo = CooMatrix::new(dim, dim);
            for (off, block) in [(0, &first), (n, &second)] {
                for i in 0..n {
                    let (cols, vals) = block.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        coo.push(off + i, off + j, v);
                    }
                }
            }
            // Strictly dominant separator row: SPD whatever the couplings.
            let sep = 2 * n;
            for (i, &v) in c.iter().enumerate() {
                coo.push(sep, i, v);
                coo.push(i, sep, v);
            }
            coo.push(sep, sep, dim as f64);
            coo.to_csr()
        })
}

/// A 2-D 5-point Laplacian with a +0.1-shifted diagonal: `nx · ny` DoFs.
fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let id = |i: usize, j: usize| j * nx + i;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..ny {
        for i in 0..nx {
            let me = id(i, j);
            coo.push(me, me, 4.1);
            if i > 0 {
                coo.push(me, id(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(me, id(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(me, id(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                coo.push(me, id(i, j + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// True when the numeric factorization of a factor with these stats runs
/// its task DAG at pool caps above 1 rather than the chain fallback.
fn runs_the_dag(stats: &morestress_linalg::SupernodeStats) -> bool {
    stats.total_work >= stats.critical_path + stats.critical_path / 4
}

/// A 5-point lattice of `bx × by` blocks with `m + 1` nodes per block edge
/// (shared boundary columns), plus the exact geometric [`PartitionHint`]
/// describing it — the shape the global stage hands the sharded backend.
fn hinted_lattice(bx: usize, by: usize, m: usize) -> (CsrMatrix, PartitionHint) {
    let (nx, ny) = (bx * m + 1, by * m + 1);
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = CooMatrix::new(nx * ny, nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let v = idx(x, y);
            coo.push(v, v, 4.0);
            if x + 1 < nx {
                coo.push(v, idx(x + 1, y), -1.0);
                coo.push(idx(x + 1, y), v, -1.0);
            }
            if y + 1 < ny {
                coo.push(v, idx(x, y + 1), -1.0);
                coo.push(idx(x, y + 1), v, -1.0);
            }
        }
    }
    (
        coo.to_csr(),
        PartitionHint::new([bx, by], lattice_spans(bx, by, m)),
    )
}

/// The block span of every point of [`hinted_lattice`], in point order.
fn lattice_spans(bx: usize, by: usize, m: usize) -> Vec<[usize; 4]> {
    let (nx, ny) = (bx * m + 1, by * m + 1);
    let span1 = |c: usize, blocks: usize| -> [usize; 2] {
        if c.is_multiple_of(m) {
            let plane = c / m;
            [plane.saturating_sub(1), plane.min(blocks - 1)]
        } else {
            [c / m, c / m]
        }
    };
    let mut spans = Vec::with_capacity(nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let (sx, sy) = (span1(x, bx), span1(y, by));
            spans.push([sx[0], sx[1], sy[0], sy[1]]);
        }
    }
    spans
}

/// `a` without the entries among its trailing rows and columns
/// `n_elim..`: the bordered operator `[A_ii A_ib; A_bi 0]`.
fn zero_border(a: &CsrMatrix, n_elim: usize) -> CsrMatrix {
    let n = a.nrows();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if i < n_elim || j < n_elim {
                coo.push(i, j, v);
            }
        }
    }
    coo.to_csr()
}

/// The leading block `A_ii` of `a` (rows and columns `0..n_elim`).
fn leading_block(a: &CsrMatrix, n_elim: usize) -> CsrMatrix {
    let map: Vec<Option<usize>> = (0..a.nrows()).map(|i| (i < n_elim).then_some(i)).collect();
    a.extract(&(0..n_elim).collect::<Vec<_>>(), &map, n_elim)
}

/// Checks one bordered factorization of `bordered` against the scalar
/// oracle: the border block is `−A_bi A_ii⁻¹ A_ib` (one `SparseCholesky`
/// solve per border column) and the leading factor solves `A_ii`, both to
/// ≤1e-12 relative.
fn check_bordered(bordered: &CsrMatrix, factor: &SupernodalCholesky, border: &[f64]) {
    let n_elim = factor.dim();
    let w = bordered.nrows() - n_elim;
    let a_ii = leading_block(bordered, n_elim);
    let chol = SparseCholesky::factor(&a_ii).expect("SPD leading block");
    let mut reference = vec![0.0; w * w];
    for j in 0..w {
        let col: Vec<f64> = (0..n_elim).map(|i| bordered.get(i, n_elim + j)).collect();
        let x = chol.solve(&col);
        for i in 0..w {
            let (cols, vals) = bordered.row(n_elim + i);
            let dot: f64 = cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum();
            reference[i * w + j] = -dot;
        }
    }
    prop_assert_eq!(border.len(), w * w);
    let scale = reference.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
    for (p, q) in reference.iter().zip(border) {
        prop_assert!((p - q).abs() <= 1e-12 * scale, "border {} vs {}", p, q);
    }
    let b: Vec<f64> = (0..n_elim).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let residual = a_ii.residual(&factor.solve(&b), &b);
    prop_assert!(residual <= 1e-12, "leading residual {}", residual);
}

/// A sparse SPD operator on `n` rows: the symmetric couplings `edges`
/// (indices taken mod `n`, self-loops dropped) over a strictly dominant
/// diagonal.
fn sparse_spd(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut diag = vec![1.0f64; n];
    for &(i, j, v) in edges {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push(i, j, v);
            coo.push(j, i, v);
            diag[i] += v.abs();
            diag[j] += v.abs();
        }
    }
    for (i, d) in diag.into_iter().enumerate() {
        coo.push(i, i, d);
    }
    coo.to_csr()
}

/// A permutation of `0..n` driven by `seed` (a walk of swaps).
fn seeded_permutation(n: usize, seed: &[usize]) -> Permutation {
    let mut p: Vec<usize> = (0..n).collect();
    for i in 0..n {
        p.swap(i, seed[i % seed.len()].wrapping_mul(i + 1) % n);
    }
    Permutation::new(p).expect("swaps keep a permutation")
}

/// `a` under the whole-operator permutation of a bordered factorization:
/// `lead`, then the border rows in their natural order.
fn bordered_copy(a: &CsrMatrix, lead: &Permutation) -> CsrMatrix {
    let n = a.nrows();
    let full = lead
        .as_slice()
        .iter()
        .copied()
        .chain(lead.len()..n)
        .collect();
    a.permuted_symmetric(&Permutation::new(full).expect("the border extends the lead"))
}

const NONE: usize = usize::MAX;

/// Elimination tree of the strict lower part of `ap`'s rows (Liu's
/// algorithm with path compression).
fn oracle_etree(ap: &CsrMatrix) -> Vec<usize> {
    let n = ap.nrows();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for &j in ap.row(k).0.iter().take_while(|&&j| j < k) {
            let mut i = j;
            while i != NONE && i < k {
                let up = ancestor[i];
                ancestor[i] = k;
                if up == NONE {
                    parent[i] = k;
                    break;
                }
                i = up;
            }
        }
    }
    parent
}

/// The pattern of row `k` of `L` below the diagonal: every node the
/// strict-lower entries of row `k` of `ap` reach up the etree.
fn oracle_ereach(ap: &CsrMatrix, k: usize, parent: &[usize], mark: &mut [usize]) -> Vec<usize> {
    let mut reach = Vec::new();
    mark[k] = k;
    for &j in ap.row(k).0.iter().take_while(|&&j| j < k) {
        let mut i = j;
        while i != NONE && mark[i] != k {
            mark[i] = k;
            reach.push(i);
            i = parent[i];
        }
    }
    reach
}

/// The symbolic analysis as the supernodal factorization used to run it:
/// on a permuted copy of `a`, with column counts and row lists from two
/// `ereach` sweeps over every row of `L`. The amalgamation rule is the
/// product's; everything after the row lists is computed by the product
/// from these row lists ([`SymbolicParts::from_rows`]).
fn oracle_symbolic(a: &CsrMatrix, lead: &Permutation, opts: &SupernodalOptions) -> SymbolicParts {
    let ap = bordered_copy(a, lead);
    let (n, n_elim) = (ap.nrows(), lead.len());
    let parent = oracle_etree(&ap);
    let mut counts = vec![1usize; n];
    let mut true_nnz = n_elim;
    let mut mark = vec![NONE; n];
    for k in 0..n {
        let reach = oracle_ereach(&ap, k, &parent, &mut mark);
        for &i in &reach {
            counts[i] += 1;
        }
        if k < n_elim {
            true_nnz += reach.len();
        }
    }
    let mut sn_ptr = vec![0usize];
    if n > 0 {
        let (mut c0, mut true_in_sn) = (0usize, counts[0]);
        for j in 1..n {
            let w = j - c0;
            let mut accept = false;
            if parent[j - 1] == j && w < opts.max_width.max(1) && j != n_elim {
                if counts[j - 1] == counts[j] + 1 {
                    accept = true;
                } else {
                    let m = (w + 1) + counts[j] - 1;
                    let stored = (w + 1) * m - w * (w + 1) / 2;
                    let true_new = true_in_sn + counts[j];
                    let budget = if w < opts.small_width {
                        2.0 * opts.relax
                    } else {
                        opts.relax
                    };
                    accept = (stored - true_new) as f64 <= budget * true_new as f64;
                }
            }
            if accept {
                true_in_sn += counts[j];
            } else {
                sn_ptr.push(j);
                c0 = j;
                true_in_sn = counts[j];
            }
        }
        sn_ptr.push(n);
    }
    let num_sn = sn_ptr.len() - 1;
    let mut last_of = vec![NONE; n];
    let mut row_ptr = vec![0usize; num_sn + 1];
    let mut rows = Vec::new();
    for s in 0..num_sn {
        last_of[sn_ptr[s + 1] - 1] = s;
        row_ptr[s + 1] = row_ptr[s] + sn_ptr[s + 1] - sn_ptr[s] + counts[sn_ptr[s + 1] - 1] - 1;
    }
    let mut below: Vec<Vec<usize>> = vec![Vec::new(); num_sn];
    mark.fill(NONE);
    for k in 0..n {
        for i in oracle_ereach(&ap, k, &parent, &mut mark) {
            if last_of[i] != NONE {
                below[last_of[i]].push(k);
            }
        }
    }
    for s in 0..num_sn {
        rows.extend(sn_ptr[s]..sn_ptr[s + 1]);
        rows.extend(&below[s]);
    }
    assert_eq!(rows.len(), row_ptr[num_sn], "oracle row lists");
    SymbolicParts::from_rows(n_elim, sn_ptr, row_ptr, rows, true_nnz, opts)
}

/// The production analysis equals the `ereach` oracle field by field, and
/// the factor read through the permutation is bitwise the factor of the
/// permuted copy — leading panels and border block alike.
fn check_symbolic_oracle(a: &CsrMatrix, lead: &Permutation, opts: &SupernodalOptions) {
    prop_assert_eq!(
        SymbolicParts::analyze(a, lead, opts),
        oracle_symbolic(a, lead, opts)
    );
    let (factor, border) =
        SupernodalCholesky::factor_bordered(a, lead.clone(), opts).expect("SPD leading block");
    let (copy_factor, copy_border) = SupernodalCholesky::factor_bordered(
        &bordered_copy(a, lead),
        Permutation::identity(lead.len()),
        opts,
    )
    .expect("SPD leading block");
    prop_assert_eq!(factor.stats().true_nnz, copy_factor.stats().true_nnz);
    prop_assert_eq!(
        bits(factor.factor_values()),
        bits(copy_factor.factor_values())
    );
    prop_assert_eq!(bits(&border), bits(&copy_border));
}

/// The one-column bodies of [`BlockedKernel`]'s three sweep methods as
/// they were before the sweep carried interleaved blocks, kept verbatim
/// (its FMA dispatch only changes how `mul_add` is lowered, never the
/// bits): the oracle [`looped_panel_solve`] runs them one column at a
/// time.
struct BlockedColumns;

/// The blocked kernel's four-lane dot, verbatim.
fn blocked_dot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let quads = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    for q in 0..quads {
        let b = 4 * q;
        s0 = x[b].mul_add(y[b], s0);
        s1 = x[b + 1].mul_add(y[b + 1], s1);
        s2 = x[b + 2].mul_add(y[b + 2], s2);
        s3 = x[b + 3].mul_add(y[b + 3], s3);
    }
    let mut tail = 0.0f64;
    for i in 4 * quads..n {
        tail = x[i].mul_add(y[i], tail);
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

impl BlockedColumns {
    fn solve_lower(&self, panel: &[f64], m: usize, w: usize, x: &mut [f64]) {
        for j in 0..w {
            let col = &panel[j * m..(j + 1) * m];
            let yj = x[j] / col[j];
            x[j] = yj;
            for i in (j + 1)..w {
                x[i] = (-yj).mul_add(col[i], x[i]);
            }
        }
    }

    fn below_accumulate(&self, panel: &[f64], m: usize, w: usize, y: &[f64], acc: &mut [f64]) {
        acc.iter_mut().for_each(|v| *v = 0.0);
        let mut j = 0;
        while j + 4 <= w {
            let (c0, c1, c2, c3) = (y[j], y[j + 1], y[j + 2], y[j + 3]);
            let l0 = &panel[j * m + w..(j + 1) * m];
            let l1 = &panel[(j + 1) * m + w..(j + 2) * m];
            let l2 = &panel[(j + 2) * m + w..(j + 3) * m];
            let l3 = &panel[(j + 3) * m + w..(j + 4) * m];
            for i in 0..acc.len() {
                acc[i] = c3.mul_add(
                    l3[i],
                    c2.mul_add(l2[i], c1.mul_add(l1[i], c0.mul_add(l0[i], acc[i]))),
                );
            }
            j += 4;
        }
        while j < w {
            let coef = y[j];
            let col = &panel[j * m + w..(j + 1) * m];
            for (a, &l) in acc.iter_mut().zip(col) {
                *a = coef.mul_add(l, *a);
            }
            j += 1;
        }
    }

    fn solve_lower_transpose(&self, panel: &[f64], m: usize, w: usize, x: &mut [f64], xb: &[f64]) {
        for j in (0..w).rev() {
            let col = &panel[j * m..(j + 1) * m];
            let mut acc = x[j] - blocked_dot(&col[w..], xb);
            for i in (j + 1)..w {
                acc = (-col[i]).mul_add(x[i], acc);
            }
            x[j] = acc / col[j];
        }
    }
}

/// `SupernodalCholesky::solve_panel_with` as it was before the sweep
/// carried interleaved blocks, verbatim but for reading the factor through
/// its [`PanelLayout`](morestress_linalg::PanelLayout): per supernode, one
/// column at a time.
fn looped_panel_solve(factor: &SupernodalCholesky, rhs: &mut [f64], nrhs: usize) {
    let kern = BlockedColumns;
    let n = factor.dim();
    assert_eq!(rhs.len(), n * nrhs, "supernodal panel solve: rhs size");
    if n == 0 {
        return;
    }
    let layout = factor.panel_layout();
    let values = factor.factor_values();
    let tallest = (0..layout.sn_ptr.len() - 1)
        .map(|s| layout.row_ptr[s + 1] - layout.row_ptr[s])
        .max()
        .unwrap_or(0);
    let mut scratch = vec![0.0; n + tallest];
    let (permbuf, gather) = scratch.split_at_mut(n);
    let num_sn = layout.sn_ptr.len() - 1;

    // Into the factor basis.
    for r in 0..nrhs {
        let col = &mut rhs[r * n..(r + 1) * n];
        layout.perm.apply_into(col, permbuf);
        col.copy_from_slice(permbuf);
    }

    // Forward: L Y = B.
    for s in 0..num_sn {
        let c0 = layout.sn_ptr[s];
        let w = layout.sn_ptr[s + 1] - c0;
        let rows_s = &layout.rows[layout.row_ptr[s]..layout.row_ptr[s + 1]];
        let m = rows_s.len();
        let panel = &values[layout.val_ptr[s]..layout.val_ptr[s + 1]];
        let below = &rows_s[w..];
        for r in 0..nrhs {
            let x = &mut rhs[r * n..(r + 1) * n];
            // Dense lower-triangular solve on the diagonal block.
            kern.solve_lower(panel, m, w, &mut x[c0..c0 + w]);
            if below.is_empty() {
                continue;
            }
            // Below block: accumulate L₂₁ y into a contiguous buffer,
            // then scatter.
            let acc = &mut gather[..m - w];
            kern.below_accumulate(panel, m, w, &x[c0..c0 + w], acc);
            for (i, &row) in below.iter().enumerate() {
                x[row] -= acc[i];
            }
        }
    }

    // Backward: Lᵀ X = Y.
    for s in (0..num_sn).rev() {
        let c0 = layout.sn_ptr[s];
        let w = layout.sn_ptr[s + 1] - c0;
        let rows_s = &layout.rows[layout.row_ptr[s]..layout.row_ptr[s + 1]];
        let m = rows_s.len();
        let panel = &values[layout.val_ptr[s]..layout.val_ptr[s + 1]];
        let below = &rows_s[w..];
        for r in 0..nrhs {
            let x = &mut rhs[r * n..(r + 1) * n];
            // Gather the below entries once, contract them against
            // L₂₁ᵀ and finish with the dense transposed diag solve.
            let xb = &mut gather[..m - w];
            for (i, &row) in below.iter().enumerate() {
                xb[i] = x[row];
            }
            kern.solve_lower_transpose(panel, m, w, &mut x[c0..c0 + w], xb);
        }
    }

    // Back to the natural basis.
    for r in 0..nrhs {
        let col = &mut rhs[r * n..(r + 1) * n];
        layout.perm.apply_inverse_into(col, permbuf);
        col.copy_from_slice(permbuf);
    }
}

/// The block sweep of `factor` equals the one-column oracle bit for bit,
/// column by column, on the first `nrhs` columns drawn from `values`.
fn check_sweep_oracle(factor: &SupernodalCholesky, values: &[f64], nrhs: usize) {
    let n = factor.dim();
    let rhs: Vec<f64> = (0..n * nrhs)
        .map(|k| values[k % values.len()] * (1 + k / values.len()) as f64)
        .collect();
    let mut expected = rhs.clone();
    looped_panel_solve(factor, &mut expected, nrhs);
    let mut panel = rhs;
    factor.solve_panel(&mut panel, nrhs);
    for c in 0..nrhs {
        for i in 0..n {
            prop_assert_eq!(
                panel[c * n + i].to_bits(),
                expected[c * n + i].to_bits(),
                "nrhs {}: column {} entry {}",
                nrhs,
                c,
                i
            );
        }
    }
}

/// Column `k` of the `NB`-wide block dot of `x` against the vectors
/// `y_k = ys[k·n..(k+1)·n]` is bit for bit `dot(x, y_k)`.
fn assert_panel_dot_is_bitwise_dots<const NB: usize>(x: &[f64], ys: &[f64]) {
    let n = x.len();
    let panel: Vec<[f64; NB]> = (0..n)
        .map(|i| std::array::from_fn(|k| ys[k * n + i]))
        .collect();
    let block = dot_panel(x, &panel);
    for k in 0..NB {
        let y_k = &ys[k * n..(k + 1) * n];
        prop_assert_eq!(
            block[k].to_bits(),
            dot(x, y_k).to_bits(),
            "width {}, length {}, column {}",
            NB,
            n,
            k
        );
    }
}

/// Column `k` of the `W`-wide panel SpMV of `a` is bit for bit `spmv` of
/// the column `xs[k·n..(k+1)·n]` with every fifth entry a negative zero.
fn assert_panel_spmv_is_bitwise_spmvs<const W: usize>(a: &CsrMatrix, xs: &[f64]) {
    let n = a.ncols();
    let column = |k: usize| -> Vec<f64> {
        (0..n)
            .map(|i| if i % 5 == 0 { -0.0 } else { xs[k * n + i] })
            .collect()
    };
    let columns: Vec<Vec<f64>> = (0..W).map(column).collect();
    let panel: Vec<[f64; W]> = (0..n)
        .map(|i| std::array::from_fn(|k| columns[k][i]))
        .collect();
    let mut products = vec![[f64::NAN; W]; a.nrows()];
    a.spmv_panel_into(&panel, &mut products);
    for (k, column) in columns.iter().enumerate() {
        let single = a.spmv(column);
        for (i, single) in single.iter().enumerate() {
            prop_assert_eq!(
                products[i][k].to_bits(),
                single.to_bits(),
                "width {}, row {}, column {}",
                W,
                i,
                k
            );
        }
    }
}

/// Every entry of the `W`-wide Gram block of `rows ≤ 9` vectors of length
/// `n` (drawn from `vals`, at least `25·n` long) against a panel (drawn
/// after them) is bit for bit
/// `dot(xs[i], y_k)`, at every level the host has and through the
/// dispatched call. Row `2` (when there is one) is all negative zeros, and
/// so are panel rows `r ≡ 3 (mod 7)`.
fn assert_gram_is_bitwise_dots<const W: usize>(rows: usize, n: usize, vals: &[f64]) {
    let xs: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            if i == 2 {
                vec![-0.0; n]
            } else {
                vals[i * n..(i + 1) * n].to_vec()
            }
        })
        .collect();
    let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let base = rows * n;
    let ys: Vec<[f64; W]> = (0..n)
        .map(|r| {
            std::array::from_fn(|k| {
                if r % 7 == 3 {
                    -0.0
                } else {
                    vals[base + r * W + k]
                }
            })
        })
        .collect();
    let expect: Vec<[u64; W]> = xs
        .iter()
        .map(|x| {
            std::array::from_fn(|k| {
                let y_k: Vec<f64> = ys.iter().map(|y| y[k]).collect();
                dot(x, &y_k).to_bits()
            })
        })
        .collect();
    let got_bits =
        |out: &[[f64; W]]| -> Vec<[u64; W]> { out.iter().map(|o| o.map(f64::to_bits)).collect() };
    let mut out = vec![[f64::NAN; W]; rows];
    gram_panel(&xs, &ys, &mut out);
    assert_eq!(
        got_bits(&out),
        expect,
        "dispatched: width {W}, rows {rows}, length {n}"
    );
    for isa in Isa::available() {
        let mut out = vec![[f64::NAN; W]; rows];
        BlockedKernel.gram_panel_at(isa, &xs, &ys, &mut out);
        assert_eq!(
            got_bits(&out),
            expect,
            "{isa:?}: width {W}, rows {rows}, length {n}"
        );
    }
}

/// The Gram block is bit for bit one `dot` per entry at every level the
/// host has: at widths 1, 4, 8 and 16, over row counts 1 to 9 (every
/// residue of the tiles' row counts), lengths 0 to 9 (every residue mod
/// 4, and no whole quad at all) and lengths at one and two k-block bounds
/// ± 1 and ± 4.
#[test]
fn gram_panel_is_bitwise_dots_at_every_level() {
    println!("Gram tile levels run: {:?}", Isa::available());
    let kb = BlockedKernel::GRAM_K_BLOCK;
    assert_eq!(kb % 4, 0, "a k-block splits no quad");
    let lengths = (0..=9).chain([kb - 4, kb - 1, kb, kb + 1, kb + 4, 2 * kb - 1, 2 * kb + 3]);
    for (seed, n) in lengths.enumerate() {
        let vals = seeded_values(25 * n, seed as u64 + 1);
        for rows in 1..=9 {
            assert_gram_is_bitwise_dots::<1>(rows, n, &vals);
            assert_gram_is_bitwise_dots::<4>(rows, n, &vals);
            assert_gram_is_bitwise_dots::<8>(rows, n, &vals);
            assert_gram_is_bitwise_dots::<16>(rows, n, &vals);
        }
    }
}

/// Deterministic pseudo-random panel: `wd` columns of height `m`,
/// column-major, entries in `[-1, 1)`.
fn test_panel(m: usize, wd: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..m * wd)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        })
        .collect()
}

/// The first `w` columns of the SPD-ish `G·Gᵀ + (m+1)·I`, height `m`.
fn spd_panel(m: usize, w: usize) -> Vec<f64> {
    let g = test_panel(m, m, (m + w) as u64);
    let mut base = vec![0.0f64; w * m];
    for j in 0..w {
        for i in 0..m {
            let mut v = 0.0;
            for k in 0..m {
                v += g[k * m + i] * g[k * m + j];
            }
            if i == j {
                v += (m + 1) as f64;
            }
            base[j * m + i] = v;
        }
    }
    base
}

fn assert_close(label: &str, a: f64, b: f64, scale: f64) {
    assert!(
        (a - b).abs() <= 1e-12 * scale.max(1.0),
        "{label}: {a} vs {b}"
    );
}

/// `dot` and `axpy`, the public entry points to [`BlockedKernel`]'s two
/// vector loops.
#[test]
fn dot_and_axpy_agree_across_kernels() {
    for len in [0usize, 1, 3, 4, 7, 8, 31, 64, 129] {
        let x = test_panel(len.max(1), 1, 11)[..len].to_vec();
        let y = test_panel(len.max(1), 1, 23)[..len].to_vec();
        let oracle = ScalarKernel.dot(&x, &y);
        assert_close(&format!("dot len {len}"), dot(&x, &y), oracle, len as f64);
        let mut yo = y.clone();
        let mut yk = y.clone();
        ScalarKernel.axpy(0.37, &x, &mut yo);
        axpy(0.37, &x, &mut yk);
        for (a, b) in yo.iter().zip(&yk) {
            assert_close(&format!("axpy len {len}"), *b, *a, 1.0);
        }
    }
}

/// The rank-k update into a buffer that is not zero, and the scattered
/// update into a panel through spaced relative rows, both signs.
#[test]
fn rank_update_agrees_across_kernels() {
    // Widths that exercise the unroll remainders: 1, below a tile,
    // non-multiples of the 4-wide k-unroll, and the width cap.
    for (m, lo, wj, wd) in [
        (1usize, 0usize, 1usize, 1usize),
        (5, 0, 2, 1),
        (9, 2, 3, 3),
        (16, 4, 5, 4),
        (23, 6, 7, 6),
        (40, 8, 17, 32),
    ] {
        let panel = test_panel(m, wd, (m * 31 + wd) as u64);
        let mu = m - lo;
        let mut oracle = vec![0.1; wj * mu];
        ScalarKernel.rank_update(&mut oracle, &panel, m, lo, wj, wd);
        let mut update = vec![0.1; wj * mu];
        BlockedKernel.rank_update(&mut update, &panel, m, lo, wj, wd);
        for (i, (a, b)) in oracle.iter().zip(&update).enumerate() {
            assert_close(
                &format!("rank_update m{m} wj{wj} wd{wd} [{i}]"),
                *b,
                *a,
                wd as f64,
            );
        }
        // Runs of five consecutive target rows, then a gap.
        let relrows: Vec<usize> = (0..mu).map(|i| i + i / 5).collect();
        let ldd = mu + mu / 5;
        for subtract in [false, true] {
            let mut oracle = test_panel(ldd, ldd, 17);
            let mut dst = oracle.clone();
            ScalarKernel.scatter_update(
                &mut oracle,
                ldd,
                &relrows,
                &panel,
                m,
                lo,
                wj,
                wd,
                subtract,
            );
            BlockedKernel.scatter_update(&mut dst, ldd, &relrows, &panel, m, lo, wj, wd, subtract);
            for (i, (a, b)) in oracle.iter().zip(&dst).enumerate() {
                assert_close(
                    &format!("scatter_update m{m} wj{wj} wd{wd} subtract {subtract} [{i}]"),
                    *b,
                    *a,
                    wd as f64,
                );
            }
        }
    }
}

#[test]
fn factor_and_solves_agree_across_kernels() {
    for (m, w) in [(1usize, 1usize), (6, 3), (13, 5), (40, 32)] {
        let base = spd_panel(m, w);
        let mut oracle = base.clone();
        ScalarKernel
            .factor_panel(&mut oracle, m, w)
            .expect("SPD panel");
        let mut panel = base.clone();
        BlockedKernel
            .factor_panel(&mut panel, m, w)
            .expect("SPD panel");
        for (i, (a, b)) in oracle.iter().zip(&panel).enumerate() {
            assert_close(&format!("factor m{m} w{w} [{i}]"), *b, *a, m as f64);
        }
        // Forward, below product, and backward on the same factor (use the
        // oracle factor so only the sweep differs), for interleaved blocks
        // of one, three and eight columns.
        for nrhs in [1usize, 3, 8] {
            let label = |step: &str| format!("{step} m{m} w{w} nrhs{nrhs}");
            let mut xo = test_panel(w, nrhs, 97);
            let mut xk = xo.clone();
            ScalarKernel.solve_lower(&oracle, m, w, &mut xo, nrhs);
            BlockedKernel.solve_lower(&oracle, m, w, &mut xk, nrhs);
            for (a, b) in xo.iter().zip(&xk) {
                assert_close(&label("solve_lower"), *b, *a, 1.0);
            }
            let mut ao = vec![0.0; (m - w) * nrhs];
            let mut ak = vec![1.0; (m - w) * nrhs]; // must be overwritten
            ScalarKernel.below_accumulate(&oracle, m, w, &xo, &mut ao, nrhs);
            BlockedKernel.below_accumulate(&oracle, m, w, &xo, &mut ak, nrhs);
            for (a, b) in ao.iter().zip(&ak) {
                assert_close(&label("below_accumulate"), *b, *a, 1.0);
            }
            let xb = vec![0.25; (m - w) * nrhs];
            let mut bo = xo.clone();
            let mut bk = xo.clone();
            ScalarKernel.solve_lower_transpose(&oracle, m, w, &mut bo, &xb, nrhs);
            BlockedKernel.solve_lower_transpose(&oracle, m, w, &mut bk, &xb, nrhs);
            for (a, b) in bo.iter().zip(&bk) {
                assert_close(&label("solve_lower_transpose"), *b, *a, 1.0);
            }
        }
    }
}

#[test]
fn agrees_with_scalar_kernel_on_laplacian() {
    let a = laplacian_2d(9, 7);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
    let x_scalar = SparseCholesky::factor(&a).unwrap().solve(&b);
    let x_super = SupernodalCholesky::factor(&a).unwrap().solve(&b);
    let scale = x_scalar.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (p, q) in x_scalar.iter().zip(&x_super) {
        assert!((p - q).abs() <= 1e-12 * scale.max(1.0), "{p} vs {q}");
    }
    assert!(a.residual(&x_super, &b) < 1e-12);
}

/// The bordered factorization of a hinted lattice (its top line of points
/// the border, no border–border entries, the leading block dissected along
/// the blocks below it) condenses the border as the scalar oracle does,
/// for the default supernodes and for narrow, finely chunked ones.
#[test]
fn bordered_factor_condenses_like_the_scalar_oracle() {
    let (a, _) = hinted_lattice(4, 3, 5);
    let n_elim = a.nrows() - (4 * 5 + 1);
    let bordered = zero_border(&a, n_elim);
    let mut spans = lattice_spans(4, 3, 5);
    spans.truncate(n_elim);
    let lead = geometric_dissection(&PartitionHint::new([4, 3], spans));
    for opts in [
        SupernodalOptions::default(),
        SupernodalOptions {
            max_width: 3,
            chunk_work: 64,
            ..SupernodalOptions::default()
        },
    ] {
        let (factor, border) =
            SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts).unwrap();
        assert_eq!(factor.dim(), n_elim);
        check_bordered(&bordered, &factor, &border);
    }
}

#[test]
fn all_orderings_agree() {
    let (a, hint) = hinted_lattice(3, 4, 7);
    let a = a.with_partition_hint(Arc::new(hint));
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
    let reference = SparseCholesky::factor(&a).unwrap().solve(&b);
    let orderings = [
        FillOrdering::Rcm,
        FillOrdering::Geometric,
        FillOrdering::Auto,
    ];
    let named = orderings
        .iter()
        .map(|o| (o.name(), o.permutation(&a)))
        .chain([("natural", Permutation::identity(n))]);
    for (name, perm) in named {
        let chol =
            SupernodalCholesky::factor_with_permutation(&a, perm, &SupernodalOptions::default())
                .unwrap();
        if name == "geometric" {
            let stats = chol.stats();
            assert!(stats.critical_path * 2 <= stats.total_work, "{stats:?}");
        }
        let x = chol.solve(&b);
        let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (p, q) in reference.iter().zip(&x) {
            assert!(
                (p - q).abs() <= 1e-11 * scale.max(1.0),
                "{name}: {p} vs {q}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COO → CSR conversion preserves the summed value of every entry.
    #[test]
    fn coo_to_csr_preserves_entry_sums(coo in coo_strategy(8, 64)) {
        let csr = coo.to_csr();
        // Dense accumulation of the triplets.
        let mut dense = vec![0.0f64; 64];
        let rebuilt = {
            // Walk the CSR and compare against dense sums later.
            let mut m = vec![0.0f64; 64];
            for i in 0..8 {
                let (cols, vals) = csr.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    m[i * 8 + c] = v;
                }
            }
            m
        };
        // Recompute via a second conversion path: transpose twice.
        let tt = transposed(&transposed(&csr));
        prop_assert_eq!(&csr, &tt);
        for i in 0..8 {
            let (cols, vals) = csr.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                dense[i * 8 + c] += v; // CSR has unique entries
                let _ = v;
            }
        }
        prop_assert_eq!(dense, rebuilt);
    }

    /// SpMV distributes over vector addition: A(x+y) = Ax + Ay.
    #[test]
    fn spmv_is_linear(coo in coo_strategy(10, 80),
                      x in prop::collection::vec(-5.0f64..5.0, 10),
                      y in prop::collection::vec(-5.0f64..5.0, 10)) {
        let a = coo.to_csr();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
        let lhs = a.spmv(&xy);
        let ax = a.spmv(&x);
        let ay = a.spmv(&y);
        for i in 0..10 {
            prop_assert!((lhs[i] - ax[i] - ay[i]).abs() < 1e-9);
        }
    }

    /// The panel SpMV is bit for bit one `spmv_into` call per column at
    /// widths 1, 4, 8 and 16, on operators of `4q + r` rows (`r ≠ 0`) with
    /// empty rows and signed zeros in play.
    #[test]
    fn panel_spmv_is_bitwise_spmvs_at_every_width(
        (n, trips, xs) in (0usize..10, 1usize..4).prop_flat_map(|(q, r)| {
            let n = 4 * q + r;
            (Just(n),
             prop::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..4 * n),
             prop::collection::vec(-5.0f64..5.0, 16 * n))
        })) {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in trips {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        assert_panel_spmv_is_bitwise_spmvs::<1>(&a, &xs);
        assert_panel_spmv_is_bitwise_spmvs::<4>(&a, &xs);
        assert_panel_spmv_is_bitwise_spmvs::<8>(&a, &xs);
        assert_panel_spmv_is_bitwise_spmvs::<16>(&a, &xs);
    }

    /// On random values, row counts 1 to 9 and lengths 0 to 600 (across
    /// two k-block bounds), every entry of the Gram block is bit for bit
    /// one `dot`, at every level the host has, at widths 1, 4, 8 and 16.
    #[test]
    fn gram_panel_is_bitwise_dots_on_random_panels(
        (rows, n, vals) in (1usize..10, 0usize..601).prop_flat_map(|(rows, n)| {
            (Just(rows), Just(n), prop::collection::vec(-5.0f64..5.0, 25 * n))
        })) {
        assert_gram_is_bitwise_dots::<1>(rows, n, &vals);
        assert_gram_is_bitwise_dots::<4>(rows, n, &vals);
        assert_gram_is_bitwise_dots::<8>(rows, n, &vals);
        assert_gram_is_bitwise_dots::<16>(rows, n, &vals);
    }

    /// At every width 1..=8 and length 0..=400, column `k` of the block dot
    /// is bit for bit `dot(x, y_k)`; one case in four takes length 169, the
    /// mid-plane sampler's row (168 basis functions and the thermal one).
    #[test]
    fn panel_dot_is_bitwise_dots_at_every_width(
        (n, vals) in (0usize..401, 0usize..4).prop_flat_map(|(n, pick)| {
            let n = if pick == 0 { 169 } else { n };
            (Just(n), prop::collection::vec(-5.0f64..5.0, 9 * n))
        })) {
        let x = &vals[..n];
        let ys = &vals[n..];
        assert_panel_dot_is_bitwise_dots::<1>(x, ys);
        assert_panel_dot_is_bitwise_dots::<2>(x, ys);
        assert_panel_dot_is_bitwise_dots::<3>(x, ys);
        assert_panel_dot_is_bitwise_dots::<4>(x, ys);
        assert_panel_dot_is_bitwise_dots::<5>(x, ys);
        assert_panel_dot_is_bitwise_dots::<6>(x, ys);
        assert_panel_dot_is_bitwise_dots::<7>(x, ys);
        assert_panel_dot_is_bitwise_dots::<8>(x, ys);
    }

    /// Sparse Cholesky solves random SPD systems to tight residuals.
    #[test]
    fn cholesky_solves_random_spd(a in spd_strategy(12),
                                  b in prop::collection::vec(-5.0f64..5.0, 12)) {
        let chol = SparseCholesky::factor(&a).expect("SPD by construction");
        let x = chol.solve(&b);
        prop_assert!(a.residual(&x, &b) < 1e-10);
    }

    /// RCM + natural orderings give the same answers (different paths).
    #[test]
    fn orderings_agree(a in spd_strategy(10),
                       b in prop::collection::vec(-2.0f64..2.0, 10)) {
        let x1 = SparseCholesky::factor(&a).unwrap().solve(&b);
        let x2 = SparseCholesky::factor_with_permutation(&a, Permutation::identity(10))
            .unwrap()
            .solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    /// CG and GMRES agree with the direct solve on SPD systems.
    #[test]
    fn iterative_solvers_match_direct(a in spd_strategy(10),
                                      b in prop::collection::vec(-2.0f64..2.0, 10)) {
        let direct = SparseCholesky::factor(&a).unwrap().solve(&b);
        let pre = JacobiPreconditioner::new(&a);
        let cg = solve_cg(&a, &b, &pre, CgOptions { tol: 1e-12, max_iter: 1000 }).unwrap();
        let gm = solve_gmres(&a, &b, &pre, GmresOptions { tol: 1e-12, ..Default::default() }).unwrap();
        let scale = direct.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for i in 0..10 {
            prop_assert!((cg.x[i] - direct[i]).abs() < 1e-6 * scale);
            prop_assert!((gm.x[i] - direct[i]).abs() < 1e-6 * scale);
        }
    }

    /// Permutations round-trip vectors.
    #[test]
    fn permutation_roundtrip(perm in Just(()).prop_flat_map(|_| {
        prop::collection::vec(0usize..1000, 1..30).prop_map(|seed| {
            let n = seed.len();
            let mut p: Vec<usize> = (0..n).collect();
            for (i, s) in seed.iter().enumerate() {
                p.swap(i, s % n);
            }
            Permutation::new(p).expect("valid by construction")
        })
    }), ) {
        let n = perm.len();
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 3.0).collect();
        let y = perm.apply(&x);
        prop_assert_eq!(perm.apply_inverse(&y), x);
    }

    /// RCM never changes the spectrum's action: permuted solve equals
    /// unpermuted solve after mapping.
    #[test]
    fn rcm_permutation_is_valid(a in spd_strategy(9)) {
        let p = reverse_cuthill_mckee(&a);
        prop_assert_eq!(p.len(), 9);
        // p is a bijection: inverse of inverse is identity.
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        prop_assert_eq!(p.apply_inverse(&p.apply(&x)), x);
    }

    /// Dense LU inverts what it multiplies.
    #[test]
    fn dense_lu_roundtrip(vals in prop::collection::vec(-3.0f64..3.0, 16),
                          x in prop::collection::vec(-3.0f64..3.0, 4)) {
        let mut m = DenseMatrix::from_vec(4, 4, vals);
        for i in 0..4 {
            m[(i, i)] += 8.0; // diagonally dominant => invertible
        }
        let b = m.matvec(&x);
        let solved = DenseLu::factor(&m).unwrap().solve(&b).unwrap();
        for i in 0..4 {
            prop_assert!((solved[i] - x[i]).abs() < 1e-8);
        }
    }

    /// The `Auto` policy always prepares a backend that converges on random
    /// SPD systems, whichever side of the direct/iterative threshold the
    /// system lands on.
    #[test]
    fn auto_policy_converges_on_random_spd(a in spd_strategy(12),
                                           b in prop::collection::vec(-3.0f64..3.0, 12),
                                           direct_limit in 0usize..24) {
        let a = Arc::new(a);
        let auto = Auto { direct_limit, tol: 1e-10 };
        let prepared = auto
            .prepare(Arc::clone(&a))
            .expect("Auto must prepare on an SPD operator");
        let sol = prepared
            .solve(&b)
            .expect("the auto-selected backend must converge");
        prop_assert!(
            a.residual(&sol.x, &b) < 1e-7,
            "auto picked {} with residual {}",
            prepared.description().backend,
            a.residual(&sol.x, &b)
        );
    }

    /// The resilient `Auto` ladder never panics and always returns a typed
    /// result — on random SPD, indefinite, singular-pivot and NaN-poisoned
    /// operators alike, at serial and saturated pool caps. Successful
    /// solves are finite; failures are typed `LinalgError`s.
    #[test]
    fn resilient_auto_never_panics_on_hostile_operators(
        a in spd_strategy(10),
        b in prop::collection::vec(-3.0f64..3.0, 10),
        fault in 0usize..4,
        seed in 0u64..1_000_000) {
        let mut m = a;
        match fault {
            1 => {
                // Indefinite: drive one diagonal entry strongly negative
                // (diag of spd_strategy(10) is at most 10·1 + 11).
                let row = FaultPlan::new(seed).pick(10);
                m.add_at(row, row, -60.0);
            }
            2 => {
                let _ = FaultPlan::new(seed).break_pivot(&mut m);
            }
            3 => {
                let _ = FaultPlan::new(seed).poison_value(&mut m);
            }
            _ => {} // clean SPD
        }
        let m = Arc::new(m);
        for cap in [1usize, 8] {
            let auto = Auto { direct_limit: 20_000, tol: 1e-8 };
            let outcome = WorkPool::new(cap).install(|| {
                auto.prepare(Arc::clone(&m)).and_then(|p| p.solve(&b))
            });
            match outcome {
                Ok(sol) => {
                    prop_assert!(sol.x.iter().all(|v| v.is_finite()),
                        "fault {} cap {}: accepted solve must be finite", fault, cap);
                }
                Err(e) => {
                    // Every failure is a typed error, and NaN poisoning in
                    // particular is always rejected as NonFinite.
                    if fault == 3 {
                        prop_assert!(
                            matches!(e, LinalgError::NonFinite { context: "operator", .. }),
                            "fault 3 cap {}: got {:?}", cap, e);
                    }
                }
            }
        }
    }

    /// The batched multi-RHS path returns exactly what per-RHS solves do.
    #[test]
    fn batched_solves_match_individual(a in spd_strategy(10),
                                       bs in prop::collection::vec(
                                           prop::collection::vec(-2.0f64..2.0, 10), 1..6)) {
        let prepared = DirectCholesky::default()
            .prepare(Arc::new(a))
            .expect("SPD by construction");
        let batch = prepared.solve_many(&bs, 3).expect("direct solve");
        prop_assert_eq!(batch.xs.len(), bs.len());
        prop_assert!(batch.report.workers >= 1);
        for (b, x) in bs.iter().zip(&batch.xs) {
            prop_assert_eq!(&prepared.solve(b).expect("direct solve").x, x);
        }
    }

    /// The supernodal blocked kernel agrees with the scalar oracle to
    /// ≤1e-12 (relative) on random SPD operators, across orderings and
    /// relaxation settings.
    #[test]
    fn supernodal_matches_scalar_oracle(a in spd_strategy(12),
                                        b in prop::collection::vec(-5.0f64..5.0, 12),
                                        max_width in 1usize..6,
                                        relax in 0.0f64..0.8) {
        let reference = SparseCholesky::factor(&a).expect("SPD").solve(&b);
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (ordering, perm) in [
            ("rcm", FillOrdering::Rcm.permutation(&a)),
            ("natural", Permutation::identity(12)),
        ] {
            let chol = SupernodalCholesky::factor_with_permutation(
                &a,
                perm,
                &SupernodalOptions { max_width, relax, small_width: 4, ..Default::default() },
            )
            .expect("SPD");
            let x = chol.solve(&b);
            for (p, q) in reference.iter().zip(&x) {
                prop_assert!(
                    (p - q).abs() <= 1e-12 * scale,
                    "{}: {} vs {}", ordering, p, q
                );
            }
        }
    }

    /// Same differential on structured lattice operators (the shape the
    /// MORE-Stress stages actually factor), with jittered diagonals, at
    /// every supernode width cap from 1 to 5 and the default.
    #[test]
    fn supernodal_matches_scalar_on_lattices(nx in 2usize..9,
                                             ny in 2usize..7,
                                             jitter in prop::collection::vec(0.0f64..1.0, 63),
                                             max_width in 1usize..7) {
        let n = nx * ny;
        let id = |i: usize, j: usize| j * nx + i;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let me = id(i, j);
                coo.push(me, me, 4.1 + jitter[me % jitter.len()]);
                if i > 0 { coo.push(me, id(i - 1, j), -1.0); }
                if i + 1 < nx { coo.push(me, id(i + 1, j), -1.0); }
                if j > 0 { coo.push(me, id(i, j - 1), -1.0); }
                if j + 1 < ny { coo.push(me, id(i, j + 1), -1.0); }
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|k| ((k * 5) % 11) as f64 - 5.0).collect();
        let x_scalar = SparseCholesky::factor(&a).expect("SPD").solve(&b);
        // Width 6 stands for the default cap.
        let max_width = if max_width == 6 { 32 } else { max_width };
        let opts = SupernodalOptions { max_width, ..Default::default() };
        let x_super = SupernodalCholesky::factor_ordered(&a, FillOrdering::Rcm, &opts)
            .expect("SPD")
            .solve(&b);
        let scale = x_scalar.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (p, q) in x_scalar.iter().zip(&x_super) {
            prop_assert!((p - q).abs() <= 1e-12 * scale, "width {}: {} vs {}", max_width, p, q);
        }
    }

    /// [`BlockedKernel`] agrees with the [`ScalarKernel`] oracle to
    /// ≤1e-12 on random SPD panels, at the edge widths: 1, a non-multiple
    /// of the 4-wide unroll tiles, and the default supernode width cap.
    #[test]
    fn kernels_match_scalar_on_random_panels(m_extra in 0usize..9,
                                             g in prop::collection::vec(-1.0f64..1.0, 41 * 41),
                                             rhs in prop::collection::vec(-2.0f64..2.0, 41 * 8)) {
        for w in [1usize, 5, 32] {
            let m = w + m_extra;
            // SPD diagonal block via G·Gᵀ + (m+1)·I, column-major panel of
            // height m (rows w..m are the below-diagonal block).
            let mut base = vec![0.0f64; w * m];
            for j in 0..w {
                for i in 0..m {
                    let mut v = 0.0;
                    for k in 0..m {
                        v += g[k * m + i] * g[k * m + j];
                    }
                    if i == j {
                        v += (m + 1) as f64;
                    }
                    base[j * m + i] = v;
                }
            }
            let mut oracle = base.clone();
            ScalarKernel.factor_panel(&mut oracle, m, w).expect("SPD panel");
            let kern = BlockedKernel;
            let mut panel = base.clone();
            kern.factor_panel(&mut panel, m, w).expect("SPD panel");
            for (a, b) in oracle.iter().zip(&panel) {
                prop_assert!((a - b).abs() <= 1e-12 * (m as f64),
                    "factor w{}: {} vs {}", w, a, b);
            }
            // Triangular sweeps on the shared oracle factor, so only
            // the kernel under test differs, over interleaved blocks
            // of one, three and eight columns.
            for nrhs in [1usize, 3, 8] {
                let mut xo = rhs[..w * nrhs].to_vec();
                let mut xk = xo.clone();
                ScalarKernel.solve_lower(&oracle, m, w, &mut xo, nrhs);
                kern.solve_lower(&oracle, m, w, &mut xk, nrhs);
                let mut ao = vec![0.0; (m - w) * nrhs];
                let mut ak = vec![1.0; (m - w) * nrhs]; // must be overwritten
                ScalarKernel.below_accumulate(&oracle, m, w, &xo, &mut ao, nrhs);
                kern.below_accumulate(&oracle, m, w, &xo, &mut ak, nrhs);
                let xb = &rhs[..(m - w) * nrhs];
                let mut bo = xo.clone();
                let mut bk = xo.clone();
                ScalarKernel.solve_lower_transpose(&oracle, m, w, &mut bo, xb, nrhs);
                kern.solve_lower_transpose(&oracle, m, w, &mut bk, xb, nrhs);
                for (pair, label) in [(xo.iter().zip(&xk), "solve_lower"),
                                      (ao.iter().zip(&ak), "below_accumulate"),
                                      (bo.iter().zip(&bk), "solve_lower_transpose")] {
                    for (a, b) in pair {
                        prop_assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0),
                            "{} w{} nrhs{}: {} vs {}", label, w, nrhs, a, b);
                    }
                }
            }
        }
    }

    /// The register-tiled update is bit for bit the streamed oracle's on
    /// random shapes, row spacings and values, at every tile level the host
    /// has (see [`tiled_update_is_bitwise_the_streamed_oracle`] for the
    /// exhaustive residue sweep).
    #[test]
    fn tiled_update_matches_the_streamed_oracle_on_random_shapes(mu in 1usize..50,
                                                                 wj in 1usize..14,
                                                                 wd_pick in 0usize..14,
                                                                 lo in 1usize..6,
                                                                 gaps in 0usize..3,
                                                                 seed in 0u64..1_000_000) {
        let wd = if wd_pick < 10 { wd_pick } else { 64 + 3 * (wd_pick - 10) };
        let gaps = [RowGaps::Contiguous, RowGaps::Mixed, RowGaps::Scattered][gaps];
        check_tile_update(mu, lo, wj.min(mu), wd, gaps, seed);
    }

    /// Panel sweeps are bitwise equal to looped single solves, for any
    /// panel shape: one or more 8-column blocks and a tail of any width.
    #[test]
    fn panel_solves_are_bitwise_equal_to_looped(a in spd_strategy(10),
                                                bs in prop::collection::vec(
                                                    prop::collection::vec(-3.0f64..3.0, 10), 1..18)) {
        let n = 10;
        let nrhs = bs.len();
        let blocked = SupernodalCholesky::factor(&a).expect("SPD");
        let mut panel: Vec<f64> = bs.iter().flatten().copied().collect();
        blocked.solve_panel(&mut panel, nrhs);
        for (r, b) in bs.iter().enumerate() {
            let single = blocked.solve(b);
            for i in 0..n {
                prop_assert_eq!(panel[r * n + i].to_bits(), single[i].to_bits());
            }
        }
    }

    /// The interleaved block sweep is bitwise the one-column oracle on
    /// random SPD operators, full and bordered, for every panel width
    /// from 1 to 20: whole 8-column blocks and tails of every width.
    #[test]
    fn block_sweep_matches_the_column_oracle(a in spd_strategy(14),
                                             border in 0usize..5,
                                             max_width in 1usize..6,
                                             nrhs in 1usize..21,
                                             values in prop::collection::vec(-3.0f64..3.0, 37)) {
        let n_elim = a.nrows() - border;
        let opts = SupernodalOptions { max_width, ..Default::default() };
        let factor = if border == 0 {
            SupernodalCholesky::factor_with_permutation(
                &a,
                FillOrdering::Rcm.permutation(&a),
                &opts,
            ).expect("SPD")
        } else {
            let lead = FillOrdering::Rcm.permutation(&leading_block(&a, n_elim));
            SupernodalCholesky::factor_bordered(&zero_border(&a, n_elim), lead, &opts)
                .expect("SPD leading block").0
        };
        check_sweep_oracle(&factor, &values, nrhs);
    }

    /// The same on hinted lattices dissected along their blocks — wide
    /// dense separator panels — full and bordered by their top line.
    #[test]
    fn block_sweep_matches_the_column_oracle_on_lattices(bx in 2usize..5,
                                                         by in 2usize..4,
                                                         m in 3usize..6,
                                                         bordered in 0usize..2,
                                                         nrhs in 1usize..21,
                                                         values in prop::collection::vec(-3.0f64..3.0, 29)) {
        let (a, _) = hinted_lattice(bx, by, m);
        let n_elim = if bordered == 1 { a.nrows() - (bx * m + 1) } else { a.nrows() };
        let mut spans = lattice_spans(bx, by, m);
        spans.truncate(n_elim);
        let lead = geometric_dissection(&PartitionHint::new([bx, by], spans));
        let opts = SupernodalOptions::default();
        let factor = if bordered == 1 {
            SupernodalCholesky::factor_bordered(&zero_border(&a, n_elim), lead.clone(), &opts)
                .expect("SPD leading block").0
        } else {
            SupernodalCholesky::factor_with_permutation(&a, lead.clone(), &opts).expect("SPD")
        };
        check_sweep_oracle(&factor, &values, nrhs);
    }

    /// The pool-distributed panel path of `solve_many` is bitwise equal to
    /// per-RHS solves for every batch-size × thread mix: batches below,
    /// at and across the 8-column panel, with tails of every width.
    #[test]
    fn panel_batched_backend_matches_individual(a in spd_strategy(9),
                                                bs in prop::collection::vec(
                                                    prop::collection::vec(-2.0f64..2.0, 9), 1..21),
                                                threads in 1usize..6) {
        let a = Arc::new(a);
        let prepared = DirectCholesky::default().prepare(Arc::clone(&a)).expect("SPD");
        let batch = prepared.solve_many(&bs, threads).expect("direct solve");
        prop_assert_eq!(batch.report.rhs_count, bs.len());
        for (b, x) in bs.iter().zip(&batch.xs) {
            prop_assert_eq!(&prepared.solve(b).expect("direct solve").x, x);
        }
    }

    /// The elimination-tree-parallel numeric factorization is bitwise
    /// identical to the serial left-looking sweep on random SPD operators
    /// whose elimination tree forks, at every pool cap (minimal, saturated,
    /// oversubscribed) — the determinism contract of the parallel
    /// factorization. The reference is the serial sweep of a cap-1 pool.
    #[test]
    fn parallel_factor_is_bitwise_equal_to_serial(a in forked_spd_strategy(7),
                                                  b in prop::collection::vec(-4.0f64..4.0, 15),
                                                  max_width in 1usize..6,
                                                  // Tiny budgets force update-chunk tasks even at
                                                  // this size, covering both DAG task kinds.
                                                  chunk_exp in 4usize..19) {
        let chunk_work = 1u64 << chunk_exp;
        let perm = Permutation::identity(a.nrows());
        let opts = SupernodalOptions { max_width, chunk_work, ..Default::default() };
        let serial = WorkPool::new(1).install(|| {
            SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts).expect("SPD")
        });
        prop_assert_eq!(serial.factor_workers(), 1);
        prop_assert!(runs_the_dag(&serial.stats()), "{:?}", serial.stats());
        let x_serial = serial.solve(&b);
        for cap in [2usize, 8, 33] {
            let parallel = WorkPool::new(cap).install(|| {
                SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts)
                    .expect("SPD")
            });
            prop_assert!(parallel.factor_workers() <= cap);
            prop_assert_eq!(serial.factor_values().len(), parallel.factor_values().len());
            for (i, (p, q)) in serial
                .factor_values()
                .iter()
                .zip(parallel.factor_values())
                .enumerate()
            {
                prop_assert_eq!(p.to_bits(), q.to_bits(),
                    "panel entry {} differs at cap {}", i, cap);
            }
            let x_parallel = parallel.solve(&b);
            for (p, q) in x_serial.iter().zip(&x_parallel) {
                prop_assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    /// Same bitwise parallel-vs-serial contract on hinted block lattices
    /// (the shape the global stage factors) with jittered diagonals, under
    /// the geometric dissection, whose elimination tree has real branching.
    #[test]
    fn parallel_factor_matches_serial_on_lattices(bx in 3usize..5,
                                                  by in 3usize..5,
                                                  m in 7usize..9,
                                                  jitter in prop::collection::vec(0.0f64..1.0, 16),
                                                  chunk_exp in 4usize..19) {
        let chunk_work = 1u64 << chunk_exp;
        let (mut a, hint) = hinted_lattice(bx, by, m);
        for i in 0..a.nrows() {
            a.add_at(i, i, 0.1 + jitter[i % jitter.len()]);
        }
        let a = a.with_partition_hint(Arc::new(hint));
        let perm = FillOrdering::Geometric.permutation(&a);
        let opts = SupernodalOptions { chunk_work, ..Default::default() };
        let serial = WorkPool::new(1).install(|| {
            SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts).expect("SPD")
        });
        let stats = serial.stats();
        prop_assert!(stats.critical_path * 2 <= stats.total_work, "{:?}", stats);
        for cap in [2usize, 8, 33] {
            let parallel = WorkPool::new(cap).install(|| {
                SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts)
                    .expect("SPD")
            });
            for (p, q) in serial.factor_values().iter().zip(parallel.factor_values()) {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "cap {}", cap);
            }
        }
    }

    /// The bordered partial factorization's contract on random SPD
    /// operators whose trailing `w` rows are a border with no
    /// border–border entries (indefinite as a whole): the border block is
    /// the scalar oracle's condensation and the leading factor solves
    /// `A_ii`, whatever the supernode shape and chunking.
    #[test]
    fn bordered_factor_matches_the_scalar_condensation(a in spd_strategy(14),
                                                       w in 1usize..7,
                                                       max_width in 1usize..6,
                                                       chunk_exp in 4usize..19) {
        let n_elim = a.nrows() - w;
        let bordered = zero_border(&a, n_elim);
        let lead = FillOrdering::Rcm.permutation(&leading_block(&a, n_elim));
        let opts = SupernodalOptions {
            max_width,
            chunk_work: 1u64 << chunk_exp,
            ..Default::default()
        };
        let (factor, border) =
            SupernodalCholesky::factor_bordered(&bordered, lead, &opts).expect("SPD leading block");
        check_bordered(&bordered, &factor, &border);
    }

    /// Same contract on hinted lattices bordered by their top line of
    /// points, the leading block dissected along its blocks; the bordered
    /// factorization is bitwise identical at every pool cap.
    #[test]
    fn bordered_lattice_matches_the_scalar_condensation(bx in 2usize..5,
                                                        by in 2usize..4,
                                                        m in 3usize..6,
                                                        jitter in prop::collection::vec(0.0f64..1.0, 16),
                                                        chunk_exp in 4usize..19) {
        let (mut a, _) = hinted_lattice(bx, by, m);
        for i in 0..a.nrows() {
            a.add_at(i, i, jitter[i % jitter.len()]);
        }
        let n_elim = a.nrows() - (bx * m + 1);
        let bordered = zero_border(&a, n_elim);
        let mut spans = lattice_spans(bx, by, m);
        spans.truncate(n_elim);
        let lead = geometric_dissection(&PartitionHint::new([bx, by], spans));
        let opts = SupernodalOptions { chunk_work: 1u64 << chunk_exp, ..Default::default() };
        let (factor, border) = WorkPool::new(1).install(|| {
            SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts)
                .expect("SPD leading block")
        });
        check_bordered(&bordered, &factor, &border);
        prop_assert!(runs_the_dag(&factor.stats()), "{:?}", factor.stats());
        for cap in [2usize, 8] {
            let (parallel, parallel_border) = WorkPool::new(cap).install(|| {
                SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts)
                    .expect("SPD leading block")
            });
            prop_assert_eq!(factor.factor_values().len(), parallel.factor_values().len());
            for (p, q) in factor
                .factor_values()
                .iter()
                .chain(&border)
                .zip(parallel.factor_values().iter().chain(&parallel_border))
            {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "cap {}", cap);
            }
        }
    }

    /// `scope_dag_with` runs every node exactly once and never starts a node
    /// before its tree children completed, for random forests and caps.
    #[test]
    fn scope_dag_runs_every_node_once_in_topo_order(cap in 1usize..9,
                                                    parents in prop::collection::vec(
                                                        0usize..1000, 2..40)) {
        // Normalize to a valid heap-ordered forest: parent[i] > i or root.
        let n = parents.len();
        let parent: Vec<usize> = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let p = i + 1 + p % (n - i);
                if p >= n { usize::MAX } else { p }
            })
            .collect();
        let mut dag = TaskDag::new(n);
        for (child, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                dag.add_dependency(child, p);
            }
        }
        dag.seal();
        let clock = AtomicUsize::new(0);
        let seq: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkPool::new(cap);
        let used = pool.scope_dag_with(64, &dag, || (), |(), i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            seq[i].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        });
        prop_assert!(0 < used && used <= cap);
        for i in 0..n {
            prop_assert_eq!(runs[i].load(Ordering::Relaxed), 1, "node {} run count", i);
            if parent[i] != usize::MAX {
                prop_assert!(
                    seq[i].load(Ordering::SeqCst) < seq[parent[i]].load(Ordering::SeqCst),
                    "node {} ran after its parent {}", i, parent[i]
                );
            }
        }
    }

    /// Pool scheduling: whatever the cap / worker-request / task-count mix,
    /// `scope_chunks` runs every task exactly once and never uses more
    /// worker slots than the cap allows.
    #[test]
    fn pool_runs_every_task_exactly_once(cap in 1usize..12,
                                         workers in 1usize..40,
                                         num_tasks in 0usize..120) {
        let pool = WorkPool::new(cap);
        let counts: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
        let used = pool.scope_chunks(workers, num_tasks, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(used <= cap, "{used} slots exceed cap {cap}");
        prop_assert!(num_tasks == 0 || used >= 1);
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "task {} ran a wrong number of times", i);
        }
    }

    /// Nested scopes share the one pool: however deep the nesting, the set
    /// of distinct threads that ever execute work stays within the cap —
    /// the cap² oversubscription bug can't come back.
    #[test]
    fn nested_scopes_never_exceed_the_cap(cap in 1usize..6,
                                          outer in 1usize..6,
                                          inner in 1usize..6) {
        let pool = WorkPool::new(cap);
        let ids = Mutex::new(std::collections::HashSet::new());
        let total = AtomicUsize::new(0);
        pool.install(|| {
            WorkPool::current().scope_chunks(64, outer, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                WorkPool::current().scope_chunks(64, inner, |_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        prop_assert_eq!(total.load(Ordering::Relaxed), outer * inner);
        let distinct = ids.lock().unwrap().len();
        prop_assert!(distinct <= cap, "{distinct} threads exceed shared cap {cap}");
    }

    /// Incremental sharded re-preparation under random value-only
    /// perturbations: the dirty set is exactly the owning shards of the
    /// perturbed interior rows (interface-row perturbations dirty no
    /// shard), and the incremental solve is **bitwise identical** to a
    /// from-scratch preparation of the perturbed operator — the PR-7
    /// determinism contract.
    #[test]
    fn incremental_reprepare_is_bitwise_for_random_perturbations(
        bx in 2usize..5,
        by in 2usize..4,
        m in 4usize..6,
        shards in 2usize..5,
        picks in prop::collection::vec((0usize..1000, 0.1f64..3.0), 1..6)) {
        let (a, hint) = hinted_lattice(bx, by, m);
        let n = a.nrows();
        let plan = ShardPlan::build_hinted(&a, shards, Some(&hint));
        prop_assert!(plan.num_shards() >= 2, "a {}x{} grid must shard", bx, by);
        let a = Arc::new(a.with_partition_hint(Arc::new(hint)));
        let backend = Sharded::new(shards);
        backend.prepare(Arc::clone(&a)).expect("SPD lattice");

        // Diagonal bumps keep the operator SPD and the pattern unchanged.
        let mut perturbed = (*a).clone();
        let mut owners = std::collections::HashSet::new();
        for &(seed, amount) in &picks {
            let row = seed % n;
            perturbed.add_at(row, row, amount);
            if let Some(k) = plan.owner(row) {
                owners.insert(k);
            }
        }
        let perturbed = Arc::new(perturbed);
        let rhs: Vec<Vec<f64>> = (0..2)
            .map(|k| (0..n).map(|i| ((i * (k + 3)) % 7) as f64 - 3.0).collect())
            .collect();

        let incremental = backend.prepare(Arc::clone(&perturbed)).expect("still SPD");
        let scratch = Sharded::new(shards).prepare(Arc::clone(&perturbed)).expect("still SPD");
        let bi = incremental.solve_many(&rhs, 4).expect("sharded solve");
        let bs = scratch.solve_many(&rhs, 4).expect("sharded solve");
        prop_assert_eq!(bi.report.shards_refactored, owners.len());
        prop_assert_eq!(bi.report.shards_reused, plan.num_shards() - owners.len());
        prop_assert_eq!(bs.report.shards_refactored, plan.num_shards());
        for (x, y) in bi.xs.iter().zip(&bs.xs) {
            for (p, q) in x.iter().zip(y) {
                prop_assert_eq!(p.to_bits(), q.to_bits(),
                    "incremental bits must match from-scratch bits");
            }
        }
    }

    /// PR-9 planner invariants on random block-grid lattices: plans are
    /// deterministic, interior shards are never coupled to each other
    /// (every off-diagonal entry stays within a shard or touches the
    /// interface), and a plan that splits respects the minimum-rows floor
    /// and the 2× work-balance bound. Every lattice of at least 64 rows
    /// splits.
    #[test]
    fn shard_planner_invariants_on_hinted_lattices(
        bx in 2usize..5,
        by in 2usize..5,
        m in 2usize..4,
        shards in 2usize..6)
    {
        let (a, hint) = hinted_lattice(bx, by, m);
        let n = a.nrows();
        let plan = ShardPlan::build_hinted(&a, shards, Some(&hint));
        prop_assert!(plan == ShardPlan::build_hinted(&a, shards, Some(&hint)),
            "plans must be deterministic");
        // No inter-shard edges: off-diagonal entries either stay inside one
        // shard or touch the interface.
        for row in 0..n {
            let Some(k) = plan.owner(row) else { continue };
            let (cols, _) = a.row(row);
            for &col in cols {
                if let Some(k2) = plan.owner(col) {
                    prop_assert_eq!(k, k2, "plan couples shard {} to shard {}", k, k2);
                }
            }
        }
        let stats = plan.stats();
        if n >= 64 {
            prop_assert!(plan.num_shards() >= 2, "{} rows must split", n);
        }
        if plan.num_shards() >= 2 {
            prop_assert!(stats.min_shard_rows >= ShardPlan::MIN_SHARD_ROWS,
                "plan emitted a {}-row shard", stats.min_shard_rows);
            prop_assert!(stats.balance_ratio <= 2.0 + 1e-12,
                "balance {} exceeds the 2x bound", stats.balance_ratio);
        }
    }

    /// A hint whose span table does not cover the operator (a length
    /// mismatch) is ignored gracefully: the plan is the one-shard plan of
    /// an operator without a hint.
    #[test]
    fn mismatched_hints_are_ignored_gracefully(
        bx in 2usize..5,
        by in 2usize..5,
        m in 2usize..4,
        shards in 2usize..6,
        drop in 1usize..4)
    {
        let (a, hint) = hinted_lattice(bx, by, m);
        let truncated: Vec<[usize; 4]> = (0..hint.num_rows().saturating_sub(drop))
            .map(|_| [0, bx - 1, 0, by - 1])
            .collect();
        let bad = PartitionHint::new([bx, by], truncated);
        let hinted = ShardPlan::build_hinted(&a, shards, Some(&bad));
        prop_assert!(hinted == ShardPlan::build_hinted(&a, shards, None),
            "a mismatched hint must be ignored");
        prop_assert_eq!(hinted.num_shards(), 1);
        prop_assert!(hinted.interface().is_empty());
    }

    /// The geometric ordering is one more elimination order of the same
    /// system: on hinted block lattices (1×N and single-block grids
    /// included) its solution agrees ≤1e-10 relative with RCM's and with
    /// the scalar `SparseCholesky` oracle.
    #[test]
    fn geometric_ordering_matches_rcm_and_the_scalar_oracles(
        bx in 1usize..6,
        by in 1usize..6,
        m in 2usize..4,
        seed in 0usize..97)
    {
        let (a, hint) = hinted_lattice(bx, by, m);
        let a = a.with_partition_hint(Arc::new(hint));
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 7 + seed) % 13) as f64 - 6.0).collect();
        let reference = SparseCholesky::factor(&a).expect("SPD").solve(&b);
        let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let opts = SupernodalOptions::default();
        for (ordering, resolved) in [
            (FillOrdering::Auto, "geometric"),
            (FillOrdering::Rcm, "rcm"),
        ] {
            let chol = SupernodalCholesky::factor_ordered(&a, ordering, &opts).expect("SPD");
            prop_assert_eq!(chol.stats().ordering, resolved);
            for (p, q) in reference.iter().zip(&chol.solve(&b)) {
                prop_assert!((p - q).abs() <= 1e-10 * scale,
                    "{}: {} vs {}", resolved, p, q);
            }
        }
    }

    /// A `FactorCache` is usable from many pool workers concurrently: all
    /// callers end up sharing one prepared solver for the same system, the
    /// hit/miss counters stay consistent, and concurrent duplicate
    /// preparations are deduplicated to a single cache entry.
    #[test]
    fn factor_cache_is_safe_across_pool_workers(cap in 2usize..8, n in 4usize..12) {
        let pool = WorkPool::new(cap);
        let cache = FactorCache::new();
        let backend = DirectCholesky::default();
        let a = {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0);
                if i > 0 { coo.push(i, i - 1, -1.0); }
                if i + 1 < n { coo.push(i, i + 1, -1.0); }
            }
            Arc::new(coo.to_csr())
        };
        let calls = 16;
        let solvers = Mutex::new(Vec::new());
        // Bounded rendezvous so several workers usually reach the cache
        // together and the concurrent-preparation dedup path really races.
        let arrived = AtomicUsize::new(0);
        pool.scope_chunks(cap, calls, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 && t0.elapsed().as_millis() < 50 {
                std::thread::yield_now();
            }
            let prepared = cache.prepare(&backend, &[n as u64], &a).expect("SPD by construction");
            let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            let sol = prepared.solve(&b).expect("direct solve");
            assert!(a.residual(&sol.x, &b) < 1e-10);
            solvers.lock().unwrap().push(prepared);
        });
        let solvers = solvers.into_inner().unwrap();
        prop_assert_eq!(solvers.len(), calls);
        for s in &solvers[1..] {
            prop_assert!(Arc::ptr_eq(&solvers[0], s), "all workers must share one factor");
        }
        prop_assert_eq!(cache.hits() + cache.misses(), calls);
        prop_assert!(cache.misses() >= 1);
        prop_assert_eq!(cache.len(), 1, "racing preparations must deduplicate");
    }

    /// The symbolic analysis read through the permutation (one pattern
    /// pass, Gilbert–Ng–Peyton counts, row lists per supernode) equals the
    /// `ereach` oracle on the permuted copy — supernodes, row lists,
    /// `true_nnz`, update schedule and chunk partition — on random sparse
    /// SPD patterns under random orderings, with and without a border, at
    /// relaxation 0 and the default; and the factor is bitwise the copy's.
    #[test]
    fn symbolic_analysis_matches_the_ereach_oracle(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40, -1.0f64..1.0), 0..120),
        seed in prop::collection::vec(0usize..1000, 1..40),
        border in 0usize..2,
        cut in 0usize..1000,
        relaxed in 0usize..2,
        max_width in 1usize..40,
        chunk_exp in 4usize..19,
    ) {
        let a = sparse_spd(n, &edges);
        let n_elim = if border == 0 { n } else { cut % n };
        let opts = SupernodalOptions {
            max_width,
            relax: if relaxed == 0 { 0.0 } else { SupernodalOptions::default().relax },
            chunk_work: 1u64 << chunk_exp,
            ..Default::default()
        };
        check_symbolic_oracle(&a, &seeded_permutation(n_elim, &seed), &opts);
    }

    /// The same oracle on hinted lattices under the geometric dissection,
    /// whose elimination trees branch: full factorizations and leading
    /// blocks bordered by a random number of trailing points.
    #[test]
    fn symbolic_analysis_matches_the_ereach_oracle_on_lattices(
        bx in 2usize..5,
        by in 2usize..4,
        m in 2usize..6,
        border in 0usize..2,
        cut in 0usize..1000,
        relaxed in 0usize..2,
        chunk_exp in 4usize..19,
    ) {
        let (a, _) = hinted_lattice(bx, by, m);
        let n = a.nrows();
        let n_elim = if border == 0 { n } else { n - 1 - cut % (n / 2) };
        let mut spans = lattice_spans(bx, by, m);
        spans.truncate(n_elim);
        let lead = geometric_dissection(&PartitionHint::new([bx, by], spans));
        let opts = SupernodalOptions {
            relax: if relaxed == 0 { 0.0 } else { SupernodalOptions::default().relax },
            chunk_work: 1u64 << chunk_exp,
            ..Default::default()
        };
        check_symbolic_oracle(&a, &lead, &opts);
    }
}

// A panicking task must neither deadlock the scope nor poison the pool.
// Few cases: each one unavoidably prints the caught panic to stderr.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pool_survives_a_panicking_task(cap in 1usize..6, num_tasks in 1usize..30,
                                      bad_seed in 0usize..1000) {
        let pool = WorkPool::new(cap);
        let bad = bad_seed % num_tasks;
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_chunks(cap, num_tasks, |i| {
                if i == bad {
                    panic!("injected task failure");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        prop_assert!(result.is_err(), "the panic must propagate to the scope caller");
        prop_assert!(survivors.load(Ordering::Relaxed) < num_tasks,
                     "the failed task must not count as run");
        // The pool keeps scheduling afterwards.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(cap, 8, |_| { after.fetch_add(1, Ordering::Relaxed); });
        prop_assert_eq!(after.load(Ordering::Relaxed), 8);
    }
}

/// `BlockedKernel::rank_update`'s body as it was before the update was
/// register-tiled, kept verbatim: four rank-1 terms per pass over the
/// whole update column, which is reloaded and stored every pass.
fn streamed_rank_update(
    update: &mut [f64],
    panel: &[f64],
    m: usize,
    lo: usize,
    wj: usize,
    wd: usize,
) {
    let mu = m - lo;
    let mut k = 0;
    // Four rank-1 terms per pass: each destination element chains four
    // fused multiply-adds while independent rows fill the FMA pipes.
    while k + 4 <= wd {
        let g0 = &panel[k * m + lo..k * m + m];
        let g1 = &panel[(k + 1) * m + lo..(k + 1) * m + m];
        let g2 = &panel[(k + 2) * m + lo..(k + 2) * m + m];
        let g3 = &panel[(k + 3) * m + lo..(k + 3) * m + m];
        for jj in 0..wj {
            let (c0, c1, c2, c3) = (g0[jj], g1[jj], g2[jj], g3[jj]);
            let dstcol = &mut update[jj * mu..(jj + 1) * mu];
            for i in 0..mu {
                dstcol[i] = c3.mul_add(
                    g3[i],
                    c2.mul_add(g2[i], c1.mul_add(g1[i], c0.mul_add(g0[i], dstcol[i]))),
                );
            }
        }
        k += 4;
    }
    while k < wd {
        let g0 = &panel[k * m + lo..k * m + m];
        for jj in 0..wj {
            let c0 = g0[jj];
            let dstcol = &mut update[jj * mu..(jj + 1) * mu];
            for (di, &gi) in dstcol.iter_mut().zip(g0) {
                *di = c0.mul_add(gi, *di);
            }
        }
        k += 1;
    }
}

/// `apply_update` as it was before the fused tile, kept verbatim but for
/// naming the target column by `relrows[jj]` (a row list opens with the
/// panel's own columns, so that is `rows_d[p + jj] − c0`): a zeroed
/// update buffer, [`streamed_rank_update`], then the scatter loop.
#[allow(clippy::too_many_arguments)]
fn streamed_scatter_update(
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
    streamed_rank_update(&mut update, panel, m, lo, wj, wd);
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

/// The bits of every entry of `values`.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic values in `[-1, 1)` from `seed`, every seventh an exact
/// zero (so signed-zero products take part).
fn seeded_values(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if i % 7 == 3 {
                0.0
            } else {
                (state % 2000) as f64 / 1000.0 - 1.0
            }
        })
        .collect()
}

/// How the relative rows of an update case are spaced.
#[derive(Debug, Clone, Copy)]
enum RowGaps {
    /// Every row next to the last: one run.
    Contiguous,
    /// Gaps of 0, 0, 1 or 2 rows at random: runs of mixed lengths.
    Mixed,
    /// A gap of 1 or 2 rows after every row: no run at all.
    Scattered,
}

/// Checks one fused-update shape at every tile level the host has against
/// the streamed oracle, bit for bit: [`BlockedKernel::scatter_update`] into
/// a random panel through relative rows spaced by `gaps`, with both signs,
/// and [`BlockedKernel::rank_update`] into a random buffer (the contiguous
/// epilogue, which adds the `+0.0`-started sums).
fn check_tile_update(mu: usize, lo: usize, wj: usize, wd: usize, gaps: RowGaps, seed: u64) {
    let m = mu + lo;
    let panel = seeded_values(wd * m, seed);
    let mut next = 2 + (seed % 3) as usize;
    let relrows: Vec<usize> = (0..mu)
        .map(|i| {
            let here = next;
            let mix = (seed as usize ^ i.wrapping_mul(0x9e37)) % 4;
            next += 1 + match gaps {
                RowGaps::Contiguous => 0,
                RowGaps::Mixed => mix.saturating_sub(1),
                RowGaps::Scattered => 1 + mix % 2,
            };
            here
        })
        .collect();
    let ldd = next + (seed % 2) as usize;
    let ncols = relrows[wj.max(1) - 1] + 2;
    let base = seeded_values(ncols * ldd, seed ^ 0x5eed);
    let init = seeded_values(wj * mu, seed ^ 0xb0b);
    let mut sums = vec![0.0; wj * mu];
    streamed_rank_update(&mut sums, &panel, m, lo, wj, wd);
    let expect_rank: Vec<f64> = init.iter().zip(&sums).map(|(a, s)| a + s).collect();
    for subtract in [false, true] {
        let mut expect = base.clone();
        streamed_scatter_update(&mut expect, ldd, &relrows, &panel, m, lo, wj, wd, subtract);
        let mut trait_path = base.clone();
        BlockedKernel.scatter_update(
            &mut trait_path,
            ldd,
            &relrows,
            &panel,
            m,
            lo,
            wj,
            wd,
            subtract,
        );
        assert_eq!(
            bits(&trait_path),
            bits(&expect),
            "dispatched scatter, mu {mu} wj {wj} wd {wd}"
        );
        for isa in Isa::available() {
            let label =
                format!("{isa:?}: mu {mu} lo {lo} wj {wj} wd {wd} {gaps:?} subtract {subtract}");
            let mut got = base.clone();
            BlockedKernel.scatter_update_at(
                isa, &mut got, ldd, &relrows, &panel, m, lo, wj, wd, subtract,
            );
            assert_eq!(bits(&got), bits(&expect), "scatter, {label}");
            let mut got = init.clone();
            BlockedKernel.rank_update_at(isa, &mut got, &panel, m, lo, wj, wd);
            assert_eq!(bits(&got), bits(&expect_rank), "rank update, {label}");
        }
    }
}

/// The register-tiled update is bit for bit the streamed oracle's at every
/// tile level the host has, over every row residue mod 16 and mod 8 and
/// every column residue mod 6 and mod 4, at `wd` of 0 to 9 and 64 and
/// beyond, with relative rows in one run, in mixed runs and in none.
#[test]
fn tiled_update_is_bitwise_the_streamed_oracle() {
    println!("update tile levels run: {:?}", Isa::available());
    let all_gaps = [RowGaps::Contiguous, RowGaps::Mixed, RowGaps::Scattered];
    let mut seed = 1u64;
    for mu in 1..=33 {
        for wj in 1..=mu.min(13) {
            for gaps in all_gaps {
                seed += 1;
                check_tile_update(mu, 3, wj, 3, gaps, seed);
            }
        }
    }
    for (mu, wj) in [(17, 7), (33, 13), (40, 6), (9, 9)] {
        for wd in (0..=9).chain([64, 67]) {
            for (lo, gaps) in [
                (0, RowGaps::Mixed),
                (5, RowGaps::Contiguous),
                (1, RowGaps::Scattered),
            ] {
                seed += 1;
                check_tile_update(mu, lo, wj, wd, gaps, seed);
            }
        }
    }
}

/// FNV-1a (64-bit) over the little-endian bits of `values`.
fn bits_hash(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// [`hinted_lattice`] with a deterministic jitter on the diagonal (so no
/// two pivots share their bits), carrying its hint.
fn jittered_hinted_lattice(bx: usize, by: usize, m: usize) -> (CsrMatrix, PartitionHint) {
    let (mut a, hint) = hinted_lattice(bx, by, m);
    for i in 0..a.nrows() {
        a.add_at(i, i, ((i * 37) % 101) as f64 / 101.0);
    }
    (a, hint)
}

/// FNV-1a ([`bits_hash`]) of the factor bits of the lattices of
/// [`factor_bits_are_pinned`], recorded before the dense update kernel was
/// register-tiled: per shape, `factor_values()` of the monolithic factor,
/// then `factor_values()` and the border block of the bordered factor.
#[rustfmt::skip]
const FACTOR_HASHES: [[u64; 3]; 3] = [
    // 4x4 blocks, m = 12.
    [0xddbb9bc473911619, 0xa1d8f7ee55afde40, 0xd56c6a8b6cddf7af],
    // 6x5 blocks, m = 8.
    [0x88a8a78e6964c0a7, 0x9c2351cc6aeb1303, 0xa0bb5f1aa7d0838e],
    // 3x7 blocks, m = 10.
    [0xd8284c9636b2275b, 0x2e4d0feaaeb1c581, 0x445043455e495f3c],
];

/// The supernodal factor's bits on hinted lattices do not move: the
/// monolithic factor under `Auto` (the geometric dissection) and the
/// factor bordered by the top line of points, at pool caps 1 and 8.
#[test]
fn factor_bits_are_pinned() {
    let shapes = [(4usize, 4usize, 12usize), (6, 5, 8), (3, 7, 10)];
    let mut mismatches = Vec::new();
    for (&(bx, by, m), expected) in shapes.iter().zip(&FACTOR_HASHES) {
        let (a, hint) = jittered_hinted_lattice(bx, by, m);
        let n_elim = a.nrows() - (bx * m + 1);
        let bordered = zero_border(&a, n_elim);
        let mut spans = lattice_spans(bx, by, m);
        spans.truncate(n_elim);
        let lead = geometric_dissection(&PartitionHint::new([bx, by], spans));
        let a = a.with_partition_hint(Arc::new(hint));
        let opts = SupernodalOptions::default();
        for cap in [1usize, 8] {
            let hashes = WorkPool::new(cap).install(|| {
                let mono = SupernodalCholesky::factor_ordered(&a, FillOrdering::Auto, &opts)
                    .expect("SPD lattice");
                let (lead_factor, border) =
                    SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts)
                        .expect("SPD leading block");
                [
                    bits_hash(mono.factor_values()),
                    bits_hash(lead_factor.factor_values()),
                    bits_hash(&border),
                ]
            });
            if hashes != *expected {
                let hashes = hashes.map(|h| format!("{h:#018x}")).join(", ");
                mismatches.push(format!("{bx}x{by} m{m} cap {cap}: [{hashes}]"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "factor bits moved:\n{}",
        mismatches.join("\n")
    );
}
