//! Thread-invariance suite: every parallel stage must produce the same
//! numbers whatever the [`WorkPool`] cap.
//!
//! The pool assigns tasks dynamically, so scheduling differs run-to-run and
//! cap-to-cap — but every stage writes to disjoint, index-addressed slots
//! and never reduces across tasks in scheduling order, so the *results*
//! must be invariant. This suite pins that down for pool caps {1, 2, 8, 33}
//! (serial, minimal, saturated, and beyond-the-hardware oversubscribed)
//! across the local stage, the batched multi-RHS global solve, stress
//! reconstruction, and the full `solve_array_many` pipeline.
//!
//! Stages whose tasks are fully independent (one Cholesky/CG/GMRES solve
//! per right-hand side, one tile per block) are required to be *bitwise*
//! identical; the end-to-end pipeline is additionally accepted at ≤1e-12
//! relative, which is what the ISSUE's acceptance criterion names.

use morestress_core::{
    sample_array_von_mises, GlobalBc, GlobalStage, InterpolationGrid, LocalStage,
    LocalStageOptions, MoreStressSimulator, ReducedOrderModel,
};
use morestress_fem::MaterialSet;
use morestress_linalg::{
    CooMatrix, DirectCholesky, FactorCache, FillOrdering, LinearSolver, PartitionHint, Sharded,
    SolverBackend, SupernodalCholesky, SupernodalOptions, VerifyPolicy, WorkPool,
};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

/// Serial reference first, then the caps that must reproduce it.
const REFERENCE_CAP: usize = 1;
const CAPS: [usize; 3] = [2, 8, 33];

fn build_rom(kind: BlockKind) -> ReducedOrderModel {
    LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new([3, 3, 3]),
        &MaterialSet::tsv_defaults(),
        kind,
    )
    // The build runs at the cap of the pool it is installed on.
    .build(&LocalStageOptions::default())
    .expect("local stage builds")
}

fn assert_bitwise(label: &str, cap: usize, reference: &[f64], candidate: &[f64]) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{label}: length at cap {cap}"
    );
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{label}: entry {i} differs at pool cap {cap}: {a:?} vs {b:?}"
        );
    }
}

fn assert_close(label: &str, cap: usize, reference: &[f64], candidate: &[f64]) {
    let scale = reference
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-30);
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{label}: length at cap {cap}"
    );
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        if a.is_nan() && b.is_nan() {
            continue;
        }
        assert!(
            (a - b).abs() <= 1e-12 * scale,
            "{label}: entry {i} differs at pool cap {cap}: {a} vs {b}"
        );
    }
}

#[test]
fn local_stage_is_pool_size_invariant() {
    let reference = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    for cap in CAPS {
        let rom = WorkPool::new(cap).install(|| build_rom(BlockKind::Tsv));
        let (ra, ca) = (reference.element_stiffness(), rom.element_stiffness());
        assert_bitwise("A_elem", cap, ra.as_slice(), ca.as_slice());
        assert_bitwise("b_elem", cap, reference.element_load(), rom.element_load());
        assert_bitwise(
            "thermal basis",
            cap,
            reference.thermal_basis(),
            rom.thermal_basis(),
        );
        for i in 0..reference.num_dofs() {
            assert_bitwise(
                &format!("basis function {i}"),
                cap,
                reference.basis_function(i),
                rom.basis_function(i),
            );
        }
    }
}

#[test]
fn batched_global_solve_is_pool_size_invariant() {
    let rom = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    let layout = BlockLayout::uniform(3, 2, BlockKind::Tsv);
    let loads = [-250.0, -100.0, 40.0, 300.0, -25.0, 10.0, -60.0];
    // Both a direct and an iterative backend: each right-hand side is an
    // independent task, so both must be schedule-independent.
    for solver in [
        LinearSolver::DirectCholesky,
        LinearSolver::Gmres { tol: 1e-10 },
    ] {
        let backend = solver.backend(VerifyPolicy::Off);
        let solve = |cap: usize| {
            WorkPool::new(cap).install(|| {
                GlobalStage::new(&rom)
                    .with_backend(&*backend)
                    .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
                    .expect("batched solve")
            })
        };
        let reference = solve(REFERENCE_CAP);
        assert_eq!(reference[0].stats.workers, 1, "cap-1 pool must run serial");
        for cap in CAPS {
            let batch = solve(cap);
            assert!(
                batch[0].stats.workers <= cap,
                "{solver:?}: {} workers exceed pool cap {cap}",
                batch[0].stats.workers
            );
            for (r, c) in reference.iter().zip(&batch) {
                assert_bitwise(
                    "nodal displacement",
                    cap,
                    r.nodal_displacement(),
                    c.nodal_displacement(),
                );
            }
        }
    }
}

#[test]
fn panel_multi_rhs_solves_are_pool_size_invariant() {
    // The pool-distributed panel path of `PreparedSolver::solve_many`:
    // panel partitioning depends only on the batch size, never on the
    // worker count, and per column the blocked sweeps execute the
    // single-RHS operation sequence — so the batch must be bitwise
    // identical at every pool cap, for batch sizes that straddle panel
    // boundaries.
    let n = 143; // deliberately not a multiple of the panel width
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0 + ((i * 7) % 5) as f64 * 0.25);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
        if i + 11 < n {
            coo.push(i, i + 11, -0.5);
            coo.push(i + 11, i, -0.5);
        }
    }
    let a = std::sync::Arc::new(coo.to_csr());
    let loads: Vec<Vec<f64>> = (0..19)
        .map(|k| {
            (0..n)
                .map(|i| ((i * (k + 2) + 3 * k) % 13) as f64 - 6.0)
                .collect()
        })
        .collect();
    let backend = DirectCholesky::default();
    let solve = |cap: usize| {
        WorkPool::new(cap).install(|| {
            let prepared = backend.prepare(std::sync::Arc::clone(&a)).expect("SPD");
            prepared.solve_many(&loads, 64).expect("batched solve").xs
        })
    };
    let reference = solve(REFERENCE_CAP);
    for cap in CAPS {
        let xs = solve(cap);
        for (r, c) in reference.iter().zip(&xs) {
            assert_bitwise("direct", cap, r, c);
        }
    }
}

#[test]
fn supernodal_factor_is_pool_size_invariant_per_kernel() {
    // The determinism contract of the dense kernel: the
    // elimination-tree-parallel factorization must be bitwise identical
    // to the serial sweep at every pool cap. Run at the default chunk
    // budget and at a tiny one that forces update-chunk tasks plus their
    // reduction-tree combines into the DAG.
    //
    // A 25×25-point lattice over 4×4 blocks of 6×6 cells, carrying the
    // block footprint of every point, so `Geometric` dissects it into a
    // bushy elimination tree.
    let (bx, by, m) = (4, 4, 6);
    let (nx, ny) = (bx * m + 1, by * m + 1);
    let n = nx * ny;
    let id = |i: usize, j: usize| j * nx + i;
    let span = |c: usize, blocks: usize| {
        if c.is_multiple_of(m) {
            [(c / m).saturating_sub(1), (c / m).min(blocks - 1)]
        } else {
            [c / m, c / m]
        }
    };
    let mut coo = CooMatrix::new(n, n);
    let mut spans = Vec::with_capacity(n);
    for j in 0..ny {
        for i in 0..nx {
            let me = id(i, j);
            coo.push(me, me, 4.1 + ((me * 7) % 5) as f64 * 0.05);
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
            let ([x0, x1], [y0, y1]) = (span(i, bx), span(j, by));
            spans.push([x0, x1, y0, y1]);
        }
    }
    let hint = PartitionHint::new([bx, by], spans);
    let a = coo.to_csr().with_partition_hint(std::sync::Arc::new(hint));
    let b: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
    let perm = FillOrdering::Geometric.permutation(&a);
    for chunk_work in [SupernodalOptions::default().chunk_work, 512] {
        let opts = SupernodalOptions {
            chunk_work,
            ..SupernodalOptions::default()
        };
        let factor = |cap: usize| {
            WorkPool::new(cap).install(|| {
                SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts).expect("SPD")
            })
        };
        let reference = factor(REFERENCE_CAP);
        let stats = reference.stats();
        assert!(stats.critical_path * 2 <= stats.total_work, "{stats:?}");
        let x_ref = reference.solve(&b);
        for cap in CAPS {
            let parallel = factor(cap);
            assert!(parallel.factor_workers() <= cap);
            let label = format!("factor (chunk_work {chunk_work})");
            assert_bitwise(
                &label,
                cap,
                reference.factor_values(),
                parallel.factor_values(),
            );
            assert_bitwise(&label, cap, &x_ref, &parallel.solve(&b));
        }
    }
}

#[test]
fn cold_factorization_pipeline_is_pool_size_invariant() {
    // The PR-4 cold path: a fresh `FactorCache` per run forces the
    // elimination-tree-parallel numeric factorization (not just the
    // triangular sweeps) to run inside every install scope, end to end
    // through assembly → parallel factor → batched panel solve. The factor
    // is bitwise identical to the serial sweep at every cap, so the nodal
    // solutions must be too.
    //
    // The stage hints every operator it reduces, so the factor is ordered
    // by geometric dissection — a bushy elimination tree, which is what
    // sends the numeric phase down the task DAG at caps > 1 (a banded
    // order's chain would fall back to the serial sweep). The 7×5 array is
    // there for that: several levels of cuts, odd and uneven.
    let rom = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    let loads = [-250.0, -120.0, 75.0, 10.0, 300.0];
    for (nx, ny) in [(3, 3), (7, 5)] {
        let layout = BlockLayout::uniform(nx, ny, BlockKind::Tsv);
        let solve = |cap: usize| {
            WorkPool::new(cap).install(|| {
                let cache = FactorCache::new();
                let batch = GlobalStage::new(&rom)
                    .with_backend(&DirectCholesky::default())
                    .with_cache(&cache)
                    .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
                    .expect("cold batched solve");
                assert_eq!(cache.misses(), 1, "cold run must factor exactly once");
                batch
            })
        };
        let reference = solve(REFERENCE_CAP);
        assert_eq!(
            reference[0].stats.factor_workers, 1,
            "cap-1 pool must factor serially"
        );
        assert_eq!(
            reference[0].stats.supernode_stats.map(|s| s.ordering),
            Some("geometric")
        );
        for cap in CAPS {
            let batch = solve(cap);
            assert!(
                batch[0].stats.factor_workers <= cap,
                "{} factor workers exceed pool cap {cap}",
                batch[0].stats.factor_workers
            );
            assert_eq!(
                batch[0].stats.supernode_stats.map(|s| s.ordering),
                Some("geometric")
            );
            assert_eq!(batch[0].stats.factor_nnz, reference[0].stats.factor_nnz);
            for (r, c) in reference.iter().zip(&batch) {
                assert_bitwise(
                    &format!("{nx}x{ny} cold-path nodal displacement"),
                    cap,
                    r.nodal_displacement(),
                    c.nodal_displacement(),
                );
            }
        }
    }
}

#[test]
fn sharded_global_solve_is_pool_size_invariant() {
    // The sharded (Schur-complement) path at a fixed shard count: plan
    // construction, concurrent shard factorization, Schur assembly and the
    // staged interface-then-interiors sweeps are all structural or
    // serial-ordered, so the result must be bitwise identical at every
    // pool cap — and, at any cap, within 1e-8 relative of the monolithic
    // direct solve (sharding changes the elimination order, so exact bit
    // equality with the monolithic factor is not expected).
    const SHARDS: usize = 4;
    let rom = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    let layout = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let loads = [-250.0, -120.0, 75.0, 10.0];
    let solve = |cap: usize| {
        WorkPool::new(cap).install(|| {
            let backend = Sharded::new(SHARDS);
            let cache = FactorCache::new();
            GlobalStage::new(&rom)
                .with_cache(&cache)
                .with_backend(&backend)
                .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
                .expect("sharded batched solve")
        })
    };
    // Monolithic cross-check on the same full pipeline.
    let mono = WorkPool::new(REFERENCE_CAP).install(|| {
        GlobalStage::new(&rom)
            .with_backend(&DirectCholesky::default())
            .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
            .expect("monolithic batched solve")
    });
    let reference = solve(REFERENCE_CAP);
    let stats = reference[0].stats;
    assert!(
        stats.shards >= 2,
        "5×5 reduced operator must actually shard"
    );
    assert!(stats.interface_dofs > 0);
    for cap in CAPS {
        let batch = solve(cap);
        assert_eq!(
            batch[0].stats.shards, stats.shards,
            "the shard plan must not depend on the pool cap"
        );
        for (r, c) in reference.iter().zip(&batch) {
            assert_bitwise(
                "sharded nodal displacement",
                cap,
                r.nodal_displacement(),
                c.nodal_displacement(),
            );
        }
    }
    for (m, s) in mono.iter().zip(&reference) {
        let scale = m
            .nodal_displacement()
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(1e-30);
        for (a, b) in m.nodal_displacement().iter().zip(s.nodal_displacement()) {
            assert!(
                (a - b).abs() <= 1e-8 * scale,
                "sharded vs monolithic beyond 1e-8 relative: {a} vs {b}"
            );
        }
    }
}

#[test]
fn incremental_reprepare_is_pool_size_invariant() {
    // The PR-7 incremental route: solve a layout, swap one block
    // (value-only — the pattern depends only on the lattice shape), and
    // re-solve through the *same* lent backend so the dirty-shard
    // re-factorization path runs. Dirty detection is structural, the
    // dirty-shard fan-out writes disjoint slots, and the interface
    // accumulation is serial in shard order — so both the base solve and
    // the incremental re-solve must be bitwise identical at every pool
    // cap, including a cap-1 serial pool and an oversubscribed one.
    const SHARDS: usize = 4;
    let tsv = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    let dummy = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Dummy));
    let base = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let mut perturbed = base.clone();
    perturbed.set_kind(0, 0, BlockKind::Dummy);
    perturbed.set_kind(4, 4, BlockKind::Dummy);
    let loads = [-250.0, -120.0, 75.0];
    let run = |cap: usize| {
        WorkPool::new(cap).install(|| {
            let backend = Sharded::new(SHARDS);
            let cache = FactorCache::new();
            let stage = GlobalStage::new(&tsv)
                .with_dummy(&dummy)
                .expect("compatible ROMs")
                .with_backend(&backend)
                .with_cache(&cache);
            let cold = stage
                .solve_many(&base, &loads, &GlobalBc::ClampedTopBottom)
                .expect("cold sharded solve");
            let incr = stage
                .solve_many(&perturbed, &loads, &GlobalBc::ClampedTopBottom)
                .expect("incremental re-solve");
            let stats = incr[0].stats;
            assert_eq!(
                stats.shards_refactored + stats.shards_reused,
                stats.shards,
                "counter invariant at cap {cap}"
            );
            let flat = |batch: &[morestress_core::GlobalSolution]| -> Vec<f64> {
                batch
                    .iter()
                    .flat_map(|sol| sol.nodal_displacement().iter().copied())
                    .collect()
            };
            (flat(&cold), flat(&incr), stats.shards_refactored)
        })
    };
    let (ref_cold, ref_incr, ref_dirty) = run(REFERENCE_CAP);
    for cap in CAPS {
        let (cold, incr, dirty) = run(cap);
        assert_eq!(
            dirty, ref_dirty,
            "the dirty set must not depend on the pool cap"
        );
        assert_bitwise("cold sharded displacement", cap, &ref_cold, &cold);
        assert_bitwise("incremental displacement", cap, &ref_incr, &incr);
    }
}

#[test]
fn reconstruction_is_pool_size_invariant() {
    let rom = WorkPool::new(REFERENCE_CAP).install(|| build_rom(BlockKind::Tsv));
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
    let solution = GlobalStage::new(&rom)
        .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
        .expect("global solve");
    let sample = |cap: usize| {
        WorkPool::new(cap).install(|| {
            sample_array_von_mises(&rom, None, &layout, &solution, -250.0, 6)
                .expect("reconstruction")
        })
    };
    let reference = sample(REFERENCE_CAP);
    assert!(reference.values.iter().all(|v| v.is_finite()));
    for cap in CAPS {
        assert_bitwise(
            "von Mises field",
            cap,
            &reference.values,
            &sample(cap).values,
        );
    }
}

#[test]
fn full_pipeline_is_pool_size_invariant() {
    // The end-to-end path: local stage (TSV + dummy) → cached batched
    // global solves with a dummy ring → mid-plane reconstruction, entirely
    // inside one `install` scope per cap, nesting all three stages on the
    // one pool.
    let run = |cap: usize| {
        WorkPool::new(cap).install(|| {
            let sim = MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
                .solver(LinearSolver::DirectCholesky)
                .build_dummy(true)
                .build()
                .expect("simulator builds");
            let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1);
            let bc = GlobalBc::SubmodelBoundary(std::sync::Arc::new(|p: [f64; 3]| {
                [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)]
            }));
            let batch = sim
                .solve_array_many(&layout, &[-250.0, -100.0, 60.0], &bc)
                .expect("batched pipeline solve");
            let field = sim
                .sample_midplane(&layout, &batch[0], -250.0, 4)
                .expect("midplane field");
            let mut flat: Vec<f64> = Vec::new();
            for sol in &batch {
                flat.extend_from_slice(sol.nodal_displacement());
            }
            (flat, field.values)
        })
    };
    let (ref_nodal, ref_field) = run(REFERENCE_CAP);
    for cap in CAPS {
        let (nodal, field) = run(cap);
        assert_close("pipeline nodal displacement", cap, &ref_nodal, &nodal);
        assert_close("pipeline von Mises field", cap, &ref_field, &field);
    }
}
