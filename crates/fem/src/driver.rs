//! The end-to-end full-FEM driver — the reproduction's "ANSYS substitute".
//!
//! Assembles the thermoelastic system on a mesh, applies Dirichlet
//! constraints by symmetric elimination, and solves through the backend
//! of the workspace's one [`LinearSolver`] selection — directly (sparse
//! Cholesky) or iteratively (CG/GMRES — the paper also runs ANSYS with its
//! iterative solver for the large models). Wall time, iteration counts and
//! an analytic peak memory estimate are reported for the cost columns of
//! Tables 1 and 2. [`solve_thermal_stress_many`] batches several thermal
//! loads over one assembly + one prepared factorization.

use std::sync::Arc;
use std::time::{Duration, Instant};

use morestress_linalg::{LinearSolver, MemoryFootprint, VerifyPolicy, WorkPool};
use morestress_mesh::HexMesh;

use crate::{assemble_system, DirichletBcs, FemError, MaterialSet, ReducedSystem};

/// Cost accounting of one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Wall-clock time of assembly + reduction + solve.
    pub wall_time: Duration,
    /// Analytic peak heap estimate (bytes) of the simultaneously-live major
    /// structures (stiffness, reduced system, factor/preconditioner,
    /// solution vectors).
    pub peak_bytes: usize,
    /// Total DoFs of the mesh (3 × nodes).
    pub total_dofs: usize,
    /// Free DoFs after constraint elimination.
    pub free_dofs: usize,
    /// Stored nonzeros of the reduced operator.
    pub nnz: usize,
    /// Iterations, if an iterative solver ran (for a batched solve: summed
    /// over the batch).
    pub iterations: Option<usize>,
    /// Name of the solver backend that actually ran ("cholesky", "cg",
    /// "gmres" — [`LinearSolver::Auto`] resolves to one of these).
    pub backend: &'static str,
}

/// A full-FEM thermal stress solution.
#[derive(Debug, Clone)]
pub struct FemSolution {
    /// Nodal displacements, `3 × num_nodes`, in mesh DoF order.
    pub displacement: Vec<f64>,
    /// Cost accounting.
    pub stats: SolveStats,
}

/// Solves the thermoelastic problem `−∇·σ(u) = 0` with thermal load `ΔT`
/// and the given Dirichlet constraints (Eq. 1 of the paper) on a mesh.
///
/// # Errors
///
/// Propagates [`FemError::UnknownMaterial`], [`FemError::FullyConstrained`]
/// and solver failures.
///
/// # Example
///
/// See the crate-level example.
pub fn solve_thermal_stress(
    mesh: &HexMesh,
    materials: &MaterialSet,
    delta_t: f64,
    bcs: &DirichletBcs,
    solver: LinearSolver,
) -> Result<FemSolution, FemError> {
    let mut solutions = solve_thermal_stress_many(mesh, materials, &[delta_t], bcs, solver)?;
    Ok(solutions.pop().expect("one load in, one solution out"))
}

/// Solves the thermoelastic problem for several thermal loads at once:
/// one assembly, one constraint reduction, one solver preparation
/// (factorization or preconditioner build), then a batched solve over all
/// loads via the backend's multi-RHS path, running on the shared
/// [`WorkPool`] (cap it globally with
/// `MORESTRESS_THREADS` or locally with `WorkPool::install`). With the
/// default direct backend the batch is solved in *panels*: workers claim
/// whole panels of right-hand sides and sweep the supernodal factor once
/// per panel, so the marginal cost per load is a fraction of a triangular
/// solve.
///
/// Returns one [`FemSolution`] per entry of `delta_ts`, in order. The
/// reported [`SolveStats`] are the *batch* aggregate (shared wall time and
/// summed iterations), since the whole point is that the per-load marginal
/// cost is a pair of triangular sweeps, not a full solve.
///
/// # Errors
///
/// Same as [`solve_thermal_stress`].
pub fn solve_thermal_stress_many(
    mesh: &HexMesh,
    materials: &MaterialSet,
    delta_ts: &[f64],
    bcs: &DirichletBcs,
    solver: LinearSolver,
) -> Result<Vec<FemSolution>, FemError> {
    let start = Instant::now();
    let sys = assemble_system(mesh, materials)?;

    // Reduce once with a zero load: `reduced.rhs` is then exactly the
    // constraint lifting term `−A_fb u_b`, which is load-independent, and
    // every requested load is a scalar multiple of the unit thermal load.
    let zero = vec![0.0; sys.thermal_load.len()];
    let reduced = ReducedSystem::new(&sys.stiffness, &zero, bcs)?;
    let rhs_set = reduced.rhs_for_scaled_loads(&sys.thermal_load, delta_ts);

    let mut peak = sys.stiffness.heap_bytes()
        + sys.thermal_load.heap_bytes()
        + reduced.a_ff.heap_bytes()
        + rhs_set
            .iter()
            .map(MemoryFootprint::heap_bytes)
            .sum::<usize>();

    let n_free = reduced.num_free();
    let prepared = solver
        .backend(VerifyPolicy::Off)
        .prepare(Arc::clone(&reduced.a_ff))?;
    // The batch runs at the current pool's cap on its resident workers, so
    // this composes safely with any parallel caller (no thread
    // multiplication).
    let batch = prepared.solve_many(&rhs_set, WorkPool::current().cap())?;
    peak += batch.report.solver_bytes;

    // All k expanded solutions are resident at once — the batch aggregate
    // must count every one of them.
    let displacements: Vec<Vec<f64>> = batch.xs.iter().map(|x| reduced.expand(x)).collect();
    peak += displacements
        .iter()
        .map(MemoryFootprint::heap_bytes)
        .sum::<usize>();

    let stats = SolveStats {
        wall_time: start.elapsed(),
        peak_bytes: peak,
        total_dofs: 3 * mesh.num_nodes(),
        free_dofs: n_free,
        nnz: reduced.a_ff.nnz(),
        iterations: batch.report.iterations,
        backend: batch.report.backend,
    };
    Ok(displacements
        .into_iter()
        .map(|displacement| FemSolution {
            displacement,
            stats,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_von_mises, PlaneGrid};
    use morestress_mesh::{unit_block_mesh, BlockResolution, Grid1d, HexMesh, TsvGeometry, MAT_SI};

    fn clamped_top_bottom(mesh: &HexMesh) -> DirichletBcs {
        let (_, _, npz) = mesh.lattice_dims();
        let mut bcs = DirichletBcs::new();
        bcs.clamp_nodes(&mesh.plane_nodes(2, 0));
        bcs.clamp_nodes(&mesh.plane_nodes(2, npz - 1));
        bcs
    }

    #[test]
    fn homogeneous_clamped_slab_has_symmetric_solution() {
        let g = Grid1d::uniform(0.0, 10.0, 4);
        let zg = Grid1d::uniform(0.0, 5.0, 3);
        let mesh = HexMesh::from_grids(g.clone(), g, zg, |_| Some(MAT_SI));
        let mats = MaterialSet::tsv_defaults();
        let bcs = clamped_top_bottom(&mesh);
        let sol =
            solve_thermal_stress(&mesh, &mats, -250.0, &bcs, LinearSolver::DirectCholesky).unwrap();
        // Mirror symmetry: u_x at (x,y,z) = -u_x at (10-x,y,z).
        for (n, p) in mesh.nodes().iter().enumerate() {
            let mirrored = [10.0 - p[0], p[1], p[2]];
            let m = mesh
                .nodes()
                .iter()
                .position(|q| {
                    (q[0] - mirrored[0]).abs() < 1e-9
                        && (q[1] - mirrored[1]).abs() < 1e-9
                        && (q[2] - mirrored[2]).abs() < 1e-9
                })
                .unwrap();
            let ux = sol.displacement[3 * n];
            let ux_m = sol.displacement[3 * m];
            assert!(
                (ux + ux_m).abs() < 1e-8,
                "x-mirror asymmetry {ux} vs {ux_m}"
            );
        }
    }

    #[test]
    fn solvers_agree_on_tsv_block() {
        let geom = TsvGeometry::paper_defaults(15.0);
        let mesh = unit_block_mesh(&geom, &BlockResolution::coarse(), true);
        let mats = MaterialSet::tsv_defaults();
        let bcs = clamped_top_bottom(&mesh);
        let direct =
            solve_thermal_stress(&mesh, &mats, -250.0, &bcs, LinearSolver::DirectCholesky).unwrap();
        let cg = solve_thermal_stress(&mesh, &mats, -250.0, &bcs, LinearSolver::Cg { tol: 1e-11 })
            .unwrap();
        let gmres = solve_thermal_stress(
            &mesh,
            &mats,
            -250.0,
            &bcs,
            LinearSolver::Gmres { tol: 1e-11 },
        )
        .unwrap();
        let max_u = direct
            .displacement
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in direct.displacement.iter().zip(&cg.displacement) {
            assert!((a - b).abs() < 1e-6 * max_u);
        }
        for (a, b) in direct.displacement.iter().zip(&gmres.displacement) {
            assert!((a - b).abs() < 1e-5 * max_u);
        }
        assert!(cg.stats.iterations.unwrap() > 0);
    }

    #[test]
    fn tsv_block_stress_is_tensile_in_silicon_under_cooling() {
        // Cooling from anneal: Cu contracts more than Si; near the via the
        // von Mises stress must be significant (order 100 MPa), far from it
        // much lower.
        let geom = TsvGeometry::paper_defaults(15.0);
        let mesh = unit_block_mesh(&geom, &BlockResolution::coarse(), true);
        let mats = MaterialSet::tsv_defaults();
        let bcs = clamped_top_bottom(&mesh);
        let sol =
            solve_thermal_stress(&mesh, &mats, -250.0, &bcs, LinearSolver::DirectCholesky).unwrap();
        let grid = PlaneGrid::new([0.0, 0.0], [15.0, 15.0], 25.0, 30, 30);
        let vm = sample_von_mises(&mesh, &mats, &sol.displacement, -250.0, &grid).unwrap();
        let peak = vm.max();
        assert!(
            peak > 50.0 && peak < 2000.0,
            "peak von Mises {peak} MPa out of physical range"
        );
        // Stress near the liner must exceed stress at the block corner.
        let near = crate::stress_at(
            &mesh,
            &mats,
            &sol.displacement,
            -250.0,
            [7.5 + 3.2, 7.5, 25.0],
        )
        .unwrap()
        .unwrap();
        let far = crate::stress_at(&mesh, &mats, &sol.displacement, -250.0, [1.0, 1.0, 25.0])
            .unwrap()
            .unwrap();
        assert!(
            near.von_mises > 2.0 * far.von_mises,
            "near {} vs far {}",
            near.von_mises,
            far.von_mises
        );
    }

    #[test]
    fn batched_loads_match_individual_solves() {
        let geom = TsvGeometry::paper_defaults(12.0);
        let mesh = unit_block_mesh(&geom, &BlockResolution::coarse(), true);
        let mats = MaterialSet::tsv_defaults();
        let bcs = clamped_top_bottom(&mesh);
        let loads = [-250.0, -125.0, 60.0, 10.0];
        let batch =
            solve_thermal_stress_many(&mesh, &mats, &loads, &bcs, LinearSolver::DirectCholesky)
                .unwrap();
        assert_eq!(batch.len(), loads.len());
        assert_eq!(batch[0].stats.backend, "cholesky");
        for (&dt, batched) in loads.iter().zip(&batch) {
            let single =
                solve_thermal_stress(&mesh, &mats, dt, &bcs, LinearSolver::DirectCholesky).unwrap();
            let scale = single
                .displacement
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
                .max(1e-30);
            for (a, b) in single.displacement.iter().zip(&batched.displacement) {
                assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "batched and individual solves disagree at ΔT={dt}"
                );
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = Grid1d::uniform(0.0, 1.0, 2);
        let mesh = HexMesh::from_grids(g.clone(), g.clone(), g, |_| Some(MAT_SI));
        let mats = MaterialSet::tsv_defaults();
        let mut bcs = DirichletBcs::new();
        bcs.clamp_nodes(&mesh.plane_nodes(2, 0));
        let sol = solve_thermal_stress(&mesh, &mats, -100.0, &bcs, LinearSolver::Auto).unwrap();
        assert_eq!(sol.stats.total_dofs, 81);
        assert_eq!(sol.stats.free_dofs, 81 - 27);
        assert!(sol.stats.peak_bytes > 0);
        assert!(sol.stats.nnz > 0);
    }
}
