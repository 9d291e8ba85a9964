//! Sharded-global-stage suite: the Schur-complement path must agree with
//! the monolithic direct solve on the full pipeline, route through the
//! factor cache, and honor the `SimulatorBuilder::shards` knob.
//!
//! CI runs this suite across `MORESTRESS_THREADS ∈ {1, 8}` ×
//! `MORESTRESS_SHARDS ∈ {1, 4}`: the thread axis exercises serial vs
//! saturated pools (the sharded results are bitwise cap-invariant, pinned
//! in `thread_invariance.rs`), the shard axis exercises the monolithic
//! degenerate case (`shards = 1` collapses to one interior block) and a
//! real 4-way decomposition through one code path. The agreement bar is
//! ≤ 1e-8 *relative*: sharding changes the elimination order, so exact
//! bit equality with the monolithic factor is not expected — but the
//! condensation is algebraically exact, so everything beyond rounding is.

use morestress_core::{
    GlobalBc, GlobalStage, InterpolationGrid, LocalStage, LocalStageOptions, MoreStressSimulator,
    ReducedOrderModel, RomSolver,
};
use morestress_fem::MaterialSet;
use morestress_linalg::ShardPlan;
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

/// Shard count under test: `MORESTRESS_SHARDS` when set (the CI matrix
/// pins 1 and 4), else 4.
fn env_shards() -> usize {
    std::env::var("MORESTRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn build_rom(kind: BlockKind) -> ReducedOrderModel {
    build_rom_at(kind, [3, 3, 3])
}

fn build_rom_at(kind: BlockKind, interp: [usize; 3]) -> ReducedOrderModel {
    LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new(interp),
        &MaterialSet::tsv_defaults(),
        kind,
    )
    .build(&LocalStageOptions::default())
    .expect("local stage builds")
}

fn assert_rel_close(label: &str, tol: f64, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length");
    let scale = reference
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-30);
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert!(
            (a - b).abs() <= tol * scale,
            "{label}: entry {i} differs beyond {tol:.0e} relative: {a} vs {b}"
        );
    }
}

/// The acceptance case: on the 6×6-array pipeline, every sharded solve
/// (K ≥ 2) agrees with the monolithic `DirectCholesky` solve to ≤ 1e-8
/// relative, and the report carries honest shard telemetry.
#[test]
fn sharded_pipeline_matches_monolithic_on_6x6_array() {
    let rom = build_rom(BlockKind::Tsv);
    let layout = BlockLayout::uniform(6, 6, BlockKind::Tsv);
    let loads = [-250.0, -120.0, 60.0];
    let reference = GlobalStage::new(&rom)
        .with_solver(RomSolver::DirectCholesky)
        .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
        .expect("monolithic solve");

    let mut counts = vec![2usize, 4];
    let env = env_shards();
    if !counts.contains(&env) {
        counts.push(env);
    }
    for shards in counts {
        let batch = GlobalStage::new(&rom)
            .with_solver(RomSolver::Sharded { shards })
            .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
            .expect("sharded solve");
        let stats = batch[0].stats;
        assert_eq!(stats.backend, "sharded");
        if shards >= 2 {
            assert!(
                stats.shards >= 2,
                "6×6 reduced operator must split for request {shards}, got {}",
                stats.shards
            );
            assert!(stats.interface_dofs > 0);
            assert!(stats.shard_factor_bytes > 0);
        }
        assert!(stats.shards <= shards.max(1));
        for (r, c) in reference.iter().zip(&batch) {
            assert_rel_close(
                &format!("sharded({shards}) nodal displacement"),
                1e-8,
                r.nodal_displacement(),
                c.nodal_displacement(),
            );
        }
    }
}

/// The env-parameterized case the CI matrix drives: `MORESTRESS_SHARDS`
/// shards (1 = the monolithic degenerate plan) against the monolithic
/// reference, submodel boundary conditions included.
#[test]
fn env_shard_count_agrees_under_submodel_bcs() {
    let shards = env_shards();
    let tsv = build_rom(BlockKind::Tsv);
    let dummy = build_rom(BlockKind::Dummy);
    let layout = BlockLayout::uniform(3, 3, BlockKind::Tsv).padded(1);
    let bc = GlobalBc::SubmodelBoundary(std::sync::Arc::new(|p: [f64; 3]| {
        [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)]
    }));
    let reference = GlobalStage::new(&tsv)
        .with_dummy(&dummy)
        .expect("compatible ROMs")
        .with_solver(RomSolver::DirectCholesky)
        .solve_many(&layout, &[-250.0, 75.0], &bc)
        .expect("monolithic solve");
    let batch = GlobalStage::new(&tsv)
        .with_dummy(&dummy)
        .expect("compatible ROMs")
        .with_solver(RomSolver::Sharded { shards })
        .solve_many(&layout, &[-250.0, 75.0], &bc)
        .expect("sharded solve");
    for (r, c) in reference.iter().zip(&batch) {
        assert_rel_close(
            &format!("sharded({shards}) submodel displacement"),
            1e-8,
            r.nodal_displacement(),
            c.nodal_displacement(),
        );
    }
}

/// `SimulatorBuilder::shards` routes every solve through the sharded
/// backend and still pays for exactly one preparation per lattice via the
/// simulator's `FactorCache`.
#[test]
fn simulator_shards_knob_routes_and_caches() {
    let sim = MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
        .shards(env_shards())
        .build()
        .expect("simulator builds");
    let layout = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    let bc = GlobalBc::ClampedTopBottom;
    let cold = sim
        .solve_array_many(&layout, &[-250.0, -100.0], &bc)
        .expect("cold sharded solve");
    assert_eq!(cold[0].stats.backend, "sharded");
    assert_eq!(sim.factor_cache().misses(), 1, "one sharded preparation");
    let warm = sim
        .solve_array_many(&layout, &[-250.0, -100.0], &bc)
        .expect("warm sharded solve");
    assert_eq!(
        sim.factor_cache().misses(),
        1,
        "warm solve must reuse the prepared sharded solver"
    );
    assert!(sim.factor_cache().hits() >= 1);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(
            a.nodal_displacement(),
            b.nodal_displacement(),
            "cold and warm sharded solves must agree bitwise"
        );
    }
}

/// PR 9 acceptance: the pipeline shards along the block grid. On the 6×6
/// reduced operator at K = 4 the planner must produce four non-singleton
/// interior shards, keep the work balance within the 2× bound, and cut an
/// interface no larger than the retired graph planner's 339-DoF record —
/// all surfaced on `GlobalStats::plan_stats`.
#[test]
fn geometric_planner_is_the_default_route_on_6x6() {
    let rom = build_rom(BlockKind::Tsv);
    let layout = BlockLayout::uniform(6, 6, BlockKind::Tsv);
    let loads = [-250.0, 75.0];
    let reference = GlobalStage::new(&rom)
        .with_solver(RomSolver::DirectCholesky)
        .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
        .expect("monolithic solve");
    let batch = GlobalStage::new(&rom)
        .with_solver(RomSolver::Sharded { shards: 4 })
        .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
        .expect("sharded solve");
    let stats = batch[0].stats;
    let plan = stats.plan_stats.expect("sharded solves report plan stats");
    assert_eq!(plan.shards, 4, "K = 4 quadrant decomposition");
    assert!(
        plan.min_shard_rows >= ShardPlan::MIN_SHARD_ROWS,
        "no singleton/sub-floor shards: min rows {}",
        plan.min_shard_rows
    );
    assert!(
        plan.balance_ratio <= 2.0,
        "max/mean interior work must stay within 2×, got {}",
        plan.balance_ratio
    );
    assert!(
        plan.interface_dofs <= 339,
        "interface ({} DoFs) must not exceed the retired graph planner's 339",
        plan.interface_dofs
    );
    assert_eq!(plan.interface_dofs, stats.interface_dofs);
    for (r, c) in reference.iter().zip(&batch) {
        assert_rel_close(
            "geometric-plan nodal displacement",
            1e-8,
            r.nodal_displacement(),
            c.nodal_displacement(),
        );
    }
}

/// A plan of one shard through the sharded route produces the monolithic
/// bits: the single-block plan factors the whole operator with the same
/// inner backend and the same panel sweeps. Two ways to get there: asking
/// for one shard, and a 1×1 array, whose one-block grid has no cut.
#[test]
fn one_shard_request_is_bitwise_monolithic() {
    for (interp, n, shards) in [([3, 3, 3], 3, 1), ([4, 4, 4], 1, 4)] {
        let rom = build_rom_at(BlockKind::Tsv, interp);
        let layout = BlockLayout::uniform(n, n, BlockKind::Tsv);
        let loads = [-250.0, 40.0];
        let mono = GlobalStage::new(&rom)
            .with_solver(RomSolver::DirectCholesky)
            .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
            .expect("monolithic solve");
        let sharded = GlobalStage::new(&rom)
            .with_solver(RomSolver::Sharded { shards })
            .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
            .expect("one-shard solve");
        assert_eq!(sharded[0].stats.backend, "sharded");
        assert_eq!(sharded[0].stats.shards, 1, "{n}×{n}, {shards} requested");
        assert_eq!(sharded[0].stats.interface_dofs, 0);
        for (m, s) in mono.iter().zip(&sharded) {
            assert_eq!(
                m.nodal_displacement(),
                s.nodal_displacement(),
                "{n}×{n}: one-shard solve must equal the monolithic bits"
            );
        }
    }
}
