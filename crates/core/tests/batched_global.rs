//! End-to-end tests of the batched global stage: one cached factorization
//! serving many thermal loads through `solve_many`, with results matching
//! individual solves, and cross-backend agreement on the reduced system.

use morestress_core::{GlobalBc, MoreStressSimulator};
use morestress_linalg::LinearSolver;
use morestress_mesh::{BlockKind, BlockLayout, TsvGeometry};

fn build_sim(solver: LinearSolver) -> MoreStressSimulator {
    MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
        .solver(solver)
        .build()
        .expect("one-shot local stage builds")
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// The ISSUE's acceptance scenario: ≥ 4 distinct thermal loads served by
/// one cached factorization via `solve_many`, matching individual solves.
#[test]
fn one_cached_factorization_serves_many_loads() {
    let sim = build_sim(LinearSolver::DirectCholesky);
    let layout = BlockLayout::uniform(3, 3, BlockKind::Tsv);
    let bc = GlobalBc::ClampedTopBottom;
    let loads = [-250.0, -100.0, 40.0, 300.0, -25.0];

    let batch = sim
        .solve_array_many(&layout, &loads, &bc)
        .expect("batched solve");
    assert_eq!(batch.len(), loads.len());
    assert_eq!(
        sim.factor_cache().misses(),
        1,
        "the batch must prepare exactly one factorization"
    );
    assert_eq!(batch[0].stats.backend, "cholesky");

    // Individual solves over the same lattice reuse the cached factor and
    // agree with the batched results.
    for (&dt, batched) in loads.iter().zip(&batch) {
        let single = sim.solve_array(&layout, dt, &bc).expect("single solve");
        let scale = max_abs(single.nodal_displacement()).max(1e-30);
        for (a, b) in single
            .nodal_displacement()
            .iter()
            .zip(batched.nodal_displacement())
        {
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "batched and individual solves disagree: {a} vs {b}"
            );
        }
    }
    assert_eq!(
        sim.factor_cache().misses(),
        1,
        "individual solves must reuse the cached factorization"
    );
    assert_eq!(sim.factor_cache().hits(), loads.len());
}

/// Under homogeneous (clamped) boundary conditions the solution is linear
/// in ΔT — a physical invariant the batched rhs construction must honor.
#[test]
fn batched_solutions_scale_linearly_in_delta_t() {
    let sim = build_sim(LinearSolver::DirectCholesky);
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
    let batch = sim
        .solve_array_many(&layout, &[-100.0, -200.0], &GlobalBc::ClampedTopBottom)
        .expect("batched solve");
    let scale = max_abs(batch[1].nodal_displacement()).max(1e-30);
    for (a, b) in batch[0]
        .nodal_displacement()
        .iter()
        .zip(batch[1].nodal_displacement())
    {
        assert!(
            (2.0 * a - b).abs() < 1e-9 * scale,
            "doubling ΔT must double the displacement: {a} vs {b}"
        );
    }
}

/// Cross-backend agreement on the same reduced system — the global-stage
/// generalization of `solvers_agree_on_tsv_block`.
#[test]
fn all_rom_solvers_agree_on_the_reduced_system() {
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
    let bc = GlobalBc::ClampedTopBottom;
    let solvers = [
        LinearSolver::DirectCholesky,
        LinearSolver::Gmres { tol: 1e-11 },
        LinearSolver::Cg { tol: 1e-11 },
        LinearSolver::Auto,
    ];
    let reference = build_sim(solvers[0])
        .solve_array(&layout, -250.0, &bc)
        .expect("direct solve");
    let scale = max_abs(reference.nodal_displacement()).max(1e-30);
    for solver in &solvers[1..] {
        let sol = build_sim(*solver)
            .solve_array(&layout, -250.0, &bc)
            .expect("solve");
        for (a, b) in reference
            .nodal_displacement()
            .iter()
            .zip(sol.nodal_displacement())
        {
            assert!(
                (a - b).abs() < 1e-6 * scale,
                "{solver:?} disagrees with DirectCholesky: {a} vs {b}"
            );
        }
    }
}

/// `solve_many` also agrees with looped solves under an iterative backend
/// and with sub-model (inhomogeneous) boundary conditions, where the
/// lifting term must stay load-independent.
#[test]
fn batched_submodel_solves_match_looped_solves() {
    use std::sync::Arc;
    let sim = build_sim(LinearSolver::Gmres { tol: 1e-11 });
    let layout = BlockLayout::uniform(2, 1, BlockKind::Tsv);
    // A nonzero, position-dependent boundary closure (independent of ΔT).
    let bc = GlobalBc::SubmodelBoundary(Arc::new(|p: [f64; 3]| {
        [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)]
    }));
    let loads = [-250.0, 0.0, 125.0, 80.0];
    let batch = sim
        .solve_array_many(&layout, &loads, &bc)
        .expect("batched solve");
    for (&dt, batched) in loads.iter().zip(&batch) {
        let single = sim.solve_array(&layout, dt, &bc).expect("single solve");
        let scale = max_abs(single.nodal_displacement()).max(1e-30);
        for (a, b) in single
            .nodal_displacement()
            .iter()
            .zip(batched.nodal_displacement())
        {
            assert!(
                (a - b).abs() < 1e-8 * scale,
                "submodel batched vs looped at ΔT={dt}: {a} vs {b}"
            );
        }
    }
}
