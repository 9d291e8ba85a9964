//! The one-shot local stage (§4.2 of the paper).
//!
//! For a given set of material and geometry parameters this stage is
//! performed once:
//!
//! 1. mesh the unit block with a fine grid and assemble `A_local`, `b_local`;
//! 2. split DoFs into free (interior) and boundary (surface) sets (Eq. 12);
//! 3. factor `A_ff` once with sparse Cholesky. `A_ff` carries the unit
//!    block's lateral cell grid as its [`PartitionHint`] (each free DoF
//!    spans the 2×2 cells its node touches), so the fill ordering is the
//!    geometric dissection of that grid: vertical node planes are the
//!    separators and every z-column of nodes is a dense leaf;
//! 4. for every surface interpolation-node DoF `i`, solve the lifted system
//!    `A_ff α_f = −A_fb L e_i` (Eq. 14) — and once more with the thermal
//!    load and zero boundary data — reusing the single factorization: one
//!    batched solve whose workers take panels of 8 right-hand sides, each
//!    swept as one interleaved block, so every panel of the factor is
//!    loaded once per 8 columns (at `interp_num: 4`, 169 columns are 21
//!    blocks and a 1-wide tail). Each solution is then spread onto the
//!    full mesh and freed, so the batch and the basis are never both live
//!    in full;
//! 5. Galerkin-project: `A_elem = Fᵀ A_local F`, `b_elem = Fᵀ b_local`
//!    (Eqs. 18–19), in panels of 16 columns of `F`, in parallel across
//!    panels (11 tasks at `interp_num: 4`): one pass over `A_local`
//!    ([`spmv_panel_into`](morestress_linalg::CsrMatrix::spmv_panel_into))
//!    forms the 16 products `A_local f_j`, and one register-tiled Gram
//!    block ([`gram_panel`]) dots every `f_i` (and `f_T`) with all 16,
//!    each panel row loaded once for several basis functions — bit for
//!    bit the one-column
//!    [`spmv_into`](morestress_linalg::CsrMatrix::spmv_into) and [`dot`]
//!    forms.
//!
//! The identity `a(f_T, f_i) = 0` (the interior residual of each `f_i`
//! vanishes and `f_T` vanishes on the boundary) is what makes Eq. 19 exact;
//! the builder measures it and stores the worst violation in
//! [`LocalStageStats::galerkin_orthogonality`].

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use morestress_fem::{assemble_system, MaterialSet};
use morestress_linalg::{
    dot, gram_panel, DenseMatrix, LinearSolver, MemoryFootprint, PartitionHint, VerifyPolicy,
    WorkPool,
};
use morestress_mesh::{unit_block_mesh, BlockKind, BlockResolution, HexMesh, TsvGeometry};

use crate::{InterpolationGrid, ReducedOrderModel, RomError};

/// Basis columns per Galerkin-projection task: one 16-wide panel SpMV and
/// one Gram block over the whole basis each.
const PANEL: usize = 16;

/// Options controlling the local-stage build. It has none: the build runs
/// at the cap of the current [`WorkPool`] (the paper uses 16 workers),
/// which [`WorkPool::install`] narrows.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalStageOptions {}

/// Cost accounting of one local-stage build. A model loaded from a `.rom`
/// file ran no local stage: its stats are zero and its `ordering` empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LocalStageStats {
    /// Wall-clock time of the whole local stage.
    pub build_time: Duration,
    /// Wall-clock time of the one factorization of `A_ff` (ordering
    /// included).
    pub factor_time: Duration,
    /// Wall-clock time of the n+1 batched triangular sweeps on that
    /// factor (right-hand sides and full-mesh expansion excluded).
    pub solve_time: Duration,
    /// Wall-clock time of the Galerkin projection (Eqs. 18–19).
    pub projection_time: Duration,
    /// Fine-mesh DoFs of the unit block.
    pub fine_dofs: usize,
    /// Number of local basis functions `n` (Eq. 16).
    pub num_basis: usize,
    /// Stored nonzeros of the Cholesky factor of `A_ff`.
    pub factor_nnz: usize,
    /// The fill ordering `A_ff` was factored under, as the solve report
    /// names it: `"geometric"` (the cell-grid dissection of the module
    /// docs' step 3).
    pub ordering: &'static str,
    /// Analytic peak heap estimate (bytes).
    pub peak_bytes: usize,
    /// Worst `|a(f_T, f_i)|`, normalized by `‖A_elem‖_max` — should be at
    /// round-off level (see module docs).
    pub galerkin_orthogonality: f64,
}

/// Builder for the one-shot local stage.
///
/// See the [crate-level example](crate) for typical usage through
/// [`MoreStressSimulator`](crate::MoreStressSimulator); use `LocalStage`
/// directly when you need separate TSV / dummy models or custom caching.
#[derive(Debug, Clone)]
pub struct LocalStage {
    geom: TsvGeometry,
    res: BlockResolution,
    interp: InterpolationGrid,
    materials: MaterialSet,
    kind: BlockKind,
}

impl LocalStage {
    /// Creates a local-stage builder for one block kind.
    pub fn new(
        geom: &TsvGeometry,
        res: &BlockResolution,
        interp: InterpolationGrid,
        materials: &MaterialSet,
        kind: BlockKind,
    ) -> Self {
        Self {
            geom: *geom,
            res: *res,
            interp,
            materials: materials.clone(),
            kind,
        }
    }

    /// Runs the local stage and produces the block's reduced-order model.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors ([`RomError::Fem`]) and factorization
    /// failures ([`RomError::Linalg`]).
    pub fn build(&self, _opts: &LocalStageOptions) -> Result<ReducedOrderModel, RomError> {
        let start = Instant::now();
        let mesh = unit_block_mesh(&self.geom, &self.res, self.kind == BlockKind::Tsv);
        let system = assemble_system(&mesh, &self.materials)?;
        let stiffness = &system.stiffness;
        let ndof = stiffness.nrows();

        // --- DoF partition (Eq. 12) --------------------------------------
        let boundary_nodes = mesh.boundary_box_nodes(); // sorted ascending
        let mut is_boundary_node = vec![false; mesh.num_nodes()];
        for &b in &boundary_nodes {
            is_boundary_node[b] = true;
        }
        let free_nodes: Vec<usize> = (0..mesh.num_nodes())
            .filter(|&n| !is_boundary_node[n])
            .collect();
        let node_dofs = |nodes: &[usize]| -> Vec<usize> {
            nodes
                .iter()
                .flat_map(|&n| [3 * n, 3 * n + 1, 3 * n + 2])
                .collect()
        };
        let free_dofs = node_dofs(&free_nodes);
        let boundary_dofs = node_dofs(&boundary_nodes);

        let mut free_col_map = vec![None; ndof];
        for (new, &old) in free_dofs.iter().enumerate() {
            free_col_map[old] = Some(new);
        }
        let mut boundary_col_map = vec![None; ndof];
        for (new, &old) in boundary_dofs.iter().enumerate() {
            boundary_col_map[old] = Some(new);
        }
        let a_ff = Arc::new(
            stiffness
                .extract(&free_dofs, &free_col_map, free_dofs.len())
                .with_partition_hint(Arc::new(cell_grid_hint(&mesh, &free_nodes))),
        );
        let a_fb = stiffness.extract(&free_dofs, &boundary_col_map, boundary_dofs.len());

        // --- Interpolation operator L (Eq. 14) ----------------------------
        // weights[m][q]: weight of surface interpolation node q at fine
        // boundary node m (same for all three components).
        let (_, hi) = mesh.bounding_box();
        let extents = [hi[0], hi[1], hi[2]];
        let n_surface = self.interp.num_surface_nodes();
        let mut weights = DenseMatrix::zeros(boundary_nodes.len(), n_surface);
        for (m, &node) in boundary_nodes.iter().enumerate() {
            let w = self.interp.surface_weights_at(extents, mesh.nodes()[node]);
            weights.row_mut(m).copy_from_slice(&w);
        }

        // --- Factor once (the paper's key reuse) --------------------------
        let factor_start = Instant::now();
        let chol = LinearSolver::DirectCholesky
            .backend(VerifyPolicy::Off)
            .prepare(Arc::clone(&a_ff))?;
        let factor_time = factor_start.elapsed();

        // --- n+1 local solves: build all right-hand sides, then one ------
        // --- panel-batched multi-RHS solve on the shared factor ----------
        let pool = WorkPool::current();
        let n = self.interp.num_dofs();
        let num_tasks = n + 1; // basis functions + thermal bubble
        let threads = pool.cap().min(num_tasks);
        let b_free: Vec<f64> = free_dofs.iter().map(|&d| system.thermal_load[d]).collect();

        // Boundary data of basis task `t`: component `t % 3` of surface
        // interpolation node `t / 3` (one column of L). Recomputed where
        // needed — it is a direct read of the weight matrix.
        let boundary_data = |task: usize, u_bc: &mut [f64]| {
            let qnode = task / 3;
            let comp = task % 3;
            u_bc.iter_mut().for_each(|v| *v = 0.0);
            for m in 0..boundary_nodes.len() {
                u_bc[3 * m + comp] = weights[(m, qnode)];
            }
        };

        // Stage 1 (parallel): lifted right-hand sides `−A_fb L e_t`, one
        // reused boundary buffer per worker.
        let (rhs_set, _) = pool.scope_collect_with(
            threads,
            num_tasks,
            || vec![0.0; boundary_dofs.len()],
            |u_bc, task| {
                if task < n {
                    boundary_data(task, u_bc);
                    let mut rhs = a_fb.spmv(u_bc);
                    rhs.iter_mut().for_each(|v| *v = -*v);
                    rhs
                } else {
                    // Thermal task: ΔT = 1, zero boundary displacement.
                    b_free.clone()
                }
            },
        );

        // Stage 2: the paper's key reuse, now panel-blocked — every worker
        // sweeps the shared factor once per interleaved block of up to 8
        // right-hand sides.
        let solve_start = Instant::now();
        let batch = chol.solve_many(&rhs_set, threads)?;
        let solve_time = solve_start.elapsed();
        drop(rhs_set);

        // Stage 3 (parallel): expand to full-mesh vectors. Each task takes
        // its solution out of the batch and frees it once expanded, so the
        // batch drains as the basis fills and the two are never live in
        // full side by side.
        let ordering = batch
            .report
            .supernode_stats
            .expect("the direct backend reports its factor")
            .ordering;
        let xs = Mutex::new(batch.xs);
        let (mut solutions, _) = pool.scope_collect_with(
            threads,
            num_tasks,
            || vec![0.0; boundary_dofs.len()],
            |u_bc, task| {
                let alpha = std::mem::take(&mut xs.lock().expect("batch lock poisoned")[task]);
                let mut full = vec![0.0; ndof];
                for (i, &d) in free_dofs.iter().enumerate() {
                    full[d] = alpha[i];
                }
                if task < n {
                    boundary_data(task, u_bc);
                    for (i, &d) in boundary_dofs.iter().enumerate() {
                        full[d] = u_bc[i];
                    }
                }
                full
            },
        );
        let basis_thermal = solutions.pop().expect("thermal slot exists");
        let basis = solutions;

        // --- Galerkin projection (Eqs. 18–19), 16 columns per task -------
        // A task interleaves basis columns 16p..16p+16 into one panel,
        // forms their products with A_local in one pass over its CSR, then
        // dots the whole basis and f_T with all 16 in one Gram block. The
        // tail panel repeats the last column; the repeats are computed and
        // dropped.
        let projection_start = Instant::now();
        let num_panels = n.div_ceil(PANEL);
        let xs: Vec<&[f64]> = basis
            .iter()
            .chain([&basis_thermal])
            .map(Vec::as_slice)
            .collect();
        let (panels, _) = pool.scope_collect_with(
            threads,
            num_panels,
            || (vec![[0.0; PANEL]; ndof], vec![[0.0; PANEL]; ndof]),
            |(f, af), p| {
                let cols: [usize; PANEL] = std::array::from_fn(|k| (PANEL * p + k).min(n - 1));
                for (r, fr) in f.iter_mut().enumerate() {
                    *fr = cols.map(|j| basis[j][r]);
                }
                stiffness.spmv_panel_into(f, af);
                let mut rows = vec![[0.0; PANEL]; n + 1];
                gram_panel(&xs, af, &mut rows);
                rows
            },
        );
        let mut a_elem = DenseMatrix::zeros(n, n);
        let mut worst_tfi = 0.0f64;
        for (p, rows) in panels.into_iter().enumerate() {
            let (tfi, rows) = rows.split_last().expect("f_T's row exists");
            for k in 0..(n - PANEL * p).min(PANEL) {
                for (i, row) in rows.iter().enumerate() {
                    a_elem[(i, PANEL * p + k)] = row[k];
                }
                worst_tfi = worst_tfi.max(tfi[k].abs());
            }
        }
        let b_elem: Vec<f64> = basis
            .iter()
            .map(|fj| dot(fj, &system.thermal_load))
            .collect();
        // Exact symmetry for the downstream SPD solvers.
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (a_elem[(i, j)] + a_elem[(j, i)]);
                a_elem[(i, j)] = avg;
                a_elem[(j, i)] = avg;
            }
        }
        let projection_time = projection_start.elapsed();
        let a_max = a_elem
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);

        let basis_bytes: usize = basis.iter().map(MemoryFootprint::heap_bytes).sum();
        // Two interleaved panels (columns and products) and the Gram
        // block's parked lane sums per projection worker, and every
        // panel's Gram block until A_elem is assembled.
        let panel_bytes = (threads.min(num_panels) * (2 * ndof + 4 * (n + 1))
            + num_panels * (n + 1))
            * std::mem::size_of::<[f64; PANEL]>();
        let peak_bytes = stiffness.heap_bytes()
            + a_ff.heap_bytes()
            + a_fb.heap_bytes()
            + chol.description().solver_bytes
            + weights.heap_bytes()
            + basis_bytes
            + basis_thermal.heap_bytes()
            + panel_bytes;

        let stats = LocalStageStats {
            build_time: start.elapsed(),
            factor_time,
            solve_time,
            projection_time,
            fine_dofs: ndof,
            num_basis: n,
            factor_nnz: chol
                .description()
                .factor_nnz
                .expect("direct backend has a factor"),
            ordering,
            peak_bytes,
            galerkin_orthogonality: worst_tfi / a_max,
        };

        Ok(ReducedOrderModel {
            id: crate::model::mint_rom_id(),
            geom: self.geom,
            res: self.res,
            kind: self.kind,
            interp: self.interp,
            mesh,
            materials: self.materials.clone(),
            basis,
            basis_thermal,
            a_elem,
            b_elem,
            local_stats: stats,
        })
    }
}

/// The unit block's lateral cell grid as the [`PartitionHint`] of `A_ff`
/// over the DoFs of `free_nodes`: a free node at lattice position
/// `(i, j, ·)` touches the cells `[i−1, i] × [j−1, j]`, and two DoFs couple
/// only through a shared cell — what the geometric dissection needs.
fn cell_grid_hint(mesh: &HexMesh, free_nodes: &[usize]) -> PartitionHint {
    let (npx, npy, _) = mesh.lattice_dims();
    let spans = free_nodes
        .iter()
        .flat_map(|&node| {
            // Free nodes are interior, so 1 ≤ i ≤ npx − 2 (likewise j).
            let [i, j, _] = mesh.node_lattice(node);
            [[i - 1, i, j - 1, j]; 3]
        })
        .collect();
    PartitionHint::new([npx - 1, npy - 1], spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_linalg::{FillOrdering, SupernodalCholesky, SupernodalOptions};
    use morestress_oracle::dense_asymmetry;

    fn build_small(kind: BlockKind, counts: [usize; 3]) -> ReducedOrderModel {
        let geom = TsvGeometry::paper_defaults(15.0);
        let stage = LocalStage::new(
            &geom,
            &BlockResolution::coarse(),
            InterpolationGrid::new(counts),
            &MaterialSet::tsv_defaults(),
            kind,
        );
        stage
            .build(&LocalStageOptions::default())
            .expect("local stage builds")
    }

    #[test]
    fn element_matrix_is_symmetric_and_psd_diagonal() {
        let rom = build_small(BlockKind::Tsv, [3, 3, 3]);
        let a = rom.element_stiffness();
        assert_eq!(a.rows(), 78);
        assert_eq!(dense_asymmetry(a), 0.0, "symmetrized exactly");
        for i in 0..a.rows() {
            assert!(a[(i, i)] > 0.0, "diagonal {i} must be positive");
        }
    }

    #[test]
    fn galerkin_orthogonality_holds() {
        // a(f_T, f_i) = 0 up to round-off — the identity behind Eq. 19.
        let rom = build_small(BlockKind::Tsv, [3, 3, 3]);
        assert!(
            rom.local_stats.galerkin_orthogonality < 1e-8,
            "orthogonality violation {}",
            rom.local_stats.galerkin_orthogonality
        );
    }

    #[test]
    fn rigid_translation_is_in_the_nullspace() {
        // Setting every x-component DoF of the interpolation nodes to 1
        // reproduces a rigid translation: A_elem · u_rigid ≈ 0 and the
        // reconstructed fine displacement is exactly uniform.
        let rom = build_small(BlockKind::Tsv, [3, 3, 3]);
        let n = rom.num_dofs();
        let mut rigid = vec![0.0; n];
        for q in 0..n / 3 {
            rigid[3 * q] = 1.0;
        }
        let f = rom.element_stiffness().matvec(&rigid);
        let scale = rom.element_stiffness()[(0, 0)];
        let worst = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(worst < 1e-8 * scale, "rigid force {worst} vs scale {scale}");

        let u = rom.reconstruct_displacement(&rigid, 0.0);
        for node in 0..u.len() / 3 {
            assert!((u[3 * node] - 1.0).abs() < 1e-9, "x displacement uniform");
            assert!(u[3 * node + 1].abs() < 1e-9);
            assert!(u[3 * node + 2].abs() < 1e-9);
        }
    }

    #[test]
    fn thermal_basis_vanishes_on_boundary() {
        let rom = build_small(BlockKind::Tsv, [2, 2, 2]);
        let ft = rom.thermal_basis();
        for &node in &rom.mesh().boundary_box_nodes() {
            for c in 0..3 {
                assert_eq!(ft[3 * node + c], 0.0);
            }
        }
        // And it is nonzero in the interior (thermal mismatch exists).
        let peak = ft.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 0.0);
    }

    #[test]
    fn dummy_block_has_smaller_thermal_response() {
        // A homogeneous Si block under uniform ΔT with clamped boundary
        // still deforms internally, but the Cu/Si mismatch block must react
        // more strongly.
        let tsv = build_small(BlockKind::Tsv, [2, 2, 2]);
        let dummy = build_small(BlockKind::Dummy, [2, 2, 2]);
        let peak = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(peak(tsv.thermal_basis()) > peak(dummy.thermal_basis()));
        tsv.check_compatible(&dummy).expect("same grids");
    }

    #[test]
    fn unit_block_factor_is_dissected_along_its_cell_grid() {
        // A hint that misses `A_ff` (say, of the wrong length) falls back to
        // RCM without a word: the reported ordering and the fill against an
        // RCM factor of the same operator both catch it.
        let materials = MaterialSet::tsv_defaults();
        for res in [BlockResolution::coarse(), BlockResolution::medium()] {
            let rom = LocalStage::new(
                &TsvGeometry::paper_defaults(15.0),
                &res,
                InterpolationGrid::new([2, 2, 2]),
                &materials,
                BlockKind::Tsv,
            )
            .build(&LocalStageOptions::default())
            .expect("local stage builds");
            let stats = rom.local_stats;
            assert_eq!(stats.ordering, "geometric", "{res:?}");

            let mesh = rom.mesh();
            let stiffness = assemble_system(mesh, &materials).unwrap().stiffness;
            let mut free = vec![true; mesh.num_nodes()];
            for node in mesh.boundary_box_nodes() {
                free[node] = false;
            }
            let free_dofs: Vec<usize> = (0..mesh.num_nodes())
                .filter(|&node| free[node])
                .flat_map(|node| [3 * node, 3 * node + 1, 3 * node + 2])
                .collect();
            let mut col_map = vec![None; stiffness.ncols()];
            for (new, &old) in free_dofs.iter().enumerate() {
                col_map[old] = Some(new);
            }
            let a_ff = stiffness.extract(&free_dofs, &col_map, free_dofs.len());
            let rcm = SupernodalCholesky::factor_ordered(
                &a_ff,
                FillOrdering::Rcm,
                &SupernodalOptions::default(),
            )
            .expect("A_ff is SPD")
            .factor_nnz();
            assert!(
                stats.factor_nnz < rcm,
                "{res:?}: geometric factor {} vs RCM {rcm}",
                stats.factor_nnz
            );
        }
    }

    #[test]
    fn single_threaded_and_parallel_builds_agree() {
        let geom = TsvGeometry::paper_defaults(10.0);
        let stage = LocalStage::new(
            &geom,
            &BlockResolution::coarse(),
            InterpolationGrid::new([2, 2, 2]),
            &MaterialSet::tsv_defaults(),
            BlockKind::Tsv,
        );
        let build = |cap| {
            WorkPool::new(cap).install(|| stage.build(&LocalStageOptions::default()).unwrap())
        };
        let (a, b) = (build(1), build(8));
        let (pa, pb) = (a.element_stiffness(), b.element_stiffness());
        for i in 0..pa.rows() {
            for j in 0..pa.cols() {
                assert_eq!(pa[(i, j)], pb[(i, j)], "deterministic at ({i},{j})");
            }
        }
    }
}
