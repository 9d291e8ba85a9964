//! Incremental re-factorization suite: `resolve_perturbed` over
//! value-only layout perturbations (TSV ↔ dummy block swaps keep the
//! lattice pattern — only values change) must be **bitwise identical** to
//! a from-scratch sharded solve of the perturbed layout, while the
//! `GlobalStats` counters prove only the touched shards were re-factored.
//!
//! CI runs this suite across `MORESTRESS_THREADS ∈ {1, 8}` ×
//! `MORESTRESS_SHARDS ∈ {1, 4}` next to `sharded_global.rs`: the shard
//! axis covers the monolithic degenerate plan (`shards = 1` — the
//! incremental route still engages, with a one-block "everything dirty"
//! plan) and a real decomposition; the thread axis serial vs saturated
//! pools.

use morestress_core::{GlobalBc, GlobalStage, MoreStressSimulator, RomSolver};
use morestress_linalg::VerifyPolicy;
use morestress_mesh::{BlockKind, BlockLayout, TsvGeometry};

/// Shard count under test: `MORESTRESS_SHARDS` when set (the CI matrix
/// pins 1 and 4), else 4.
fn env_shards() -> usize {
    std::env::var("MORESTRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// A simulator with both ROMs built (swaps need the dummy model) and one
/// sharded backend lent to every stage.
fn build_sim(shards: usize) -> MoreStressSimulator {
    MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
        .shards(shards)
        .build_dummy(true)
        .build()
        .expect("simulator builds")
}

/// From-scratch sharded reference over the same ROMs: a fresh backend
/// behind a fresh `GlobalStage`, so nothing carries over.
fn scratch_solve(
    sim: &MoreStressSimulator,
    shards: usize,
    layout: &BlockLayout,
    loads: &[f64],
    bc: &GlobalBc,
) -> Vec<morestress_core::GlobalSolution> {
    let backend = RomSolver::Sharded { shards }.backend(VerifyPolicy::Off);
    GlobalStage::new(sim.tsv_model())
        .with_dummy(sim.dummy_model().expect("dummy ROM built"))
        .expect("compatible ROMs")
        .with_backend(&*backend)
        .solve_many(layout, loads, bc)
        .expect("from-scratch sharded solve")
}

fn assert_bitwise(label: &str, reference: &[f64], candidate: &[f64]) {
    assert_eq!(reference.len(), candidate.len(), "{label}: length");
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}: entry {i} differs: {a:?} vs {b:?}"
        );
    }
}

/// The acceptance case: swap one corner block of a solved array and
/// `resolve_perturbed` — the answer is bitwise the from-scratch sharded
/// solve of the perturbed layout, and (when the plan really splits) at
/// least one shard factor was reused.
#[test]
fn single_block_swap_is_bitwise_and_reuses_shards() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let loads = [-250.0, -100.0, 60.0];
    let base = BlockLayout::uniform(6, 6, BlockKind::Tsv);
    let cold = sim
        .solve_array_many(&base, &loads, &bc)
        .expect("cold sharded solve");
    assert_eq!(cold[0].stats.backend, "sharded");
    let k = cold[0].stats.shards;
    assert_eq!(cold[0].stats.shards_refactored, k, "cold prepare is full");
    assert_eq!(cold[0].stats.shards_reused, 0);

    let mut perturbed = base.clone();
    perturbed.set_kind(0, 0, BlockKind::Dummy);
    let incremental = sim
        .solve_array_many(&perturbed, &loads, &bc)
        .expect("incremental re-solve");
    let stats = incremental[0].stats;
    assert_eq!(
        stats.shards_refactored + stats.shards_reused,
        k,
        "every shard is either refactored or reused"
    );
    if k >= 2 {
        assert!(
            stats.shards_reused >= 1,
            "a corner-block swap must leave some shard untouched (refactored {} of {k})",
            stats.shards_refactored
        );
    }

    let scratch = scratch_solve(&sim, shards, &perturbed, &loads, &bc);
    for (inc, full) in incremental.iter().zip(&scratch) {
        assert_bitwise(
            "perturbed nodal displacement",
            full.nodal_displacement(),
            inc.nodal_displacement(),
        );
    }
}

/// The simulator's backend is built once and lent to every stage, so
/// a re-preparation of an already-seen operator reuses every shard of the
/// backend's retained previous preparation instead of paying for a fresh
/// `Sharded` (nothing retained) per call.
#[test]
fn hoisted_backend_reuses_shard_factors_across_prepares() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let layout = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let first = sim
        .solve_array_many(&layout, &[-250.0], &bc)
        .expect("cold solve");
    assert_eq!(first[0].stats.backend, "sharded", "sharded solver resolved");
    if shards >= 2 {
        assert!(first[0].stats.shards >= 2, "the 5×5 array must shard");
    }

    // Drop the outer memo so the second solve genuinely re-prepares
    // through the backend — with a per-call backend this re-factored
    // every shard from nothing.
    sim.factor_cache().clear();
    let second = sim
        .solve_array_many(&layout, &[-250.0], &bc)
        .expect("re-prepared solve");
    assert_eq!(second[0].stats.shards_refactored, 0, "nothing changed");
    assert_eq!(second[0].stats.shards_reused, first[0].stats.shards);
    for (a, b) in first.iter().zip(&second) {
        assert_bitwise(
            "re-prepared nodal displacement",
            a.nodal_displacement(),
            b.nodal_displacement(),
        );
    }
}

/// Swapping *every* block is still value-only (the pattern depends only
/// on the lattice shape): the incremental route engages but finds every
/// shard dirty — equivalent to a full prepare, and still bitwise.
#[test]
fn all_blocks_swapped_refactors_everything() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let loads = [-250.0, 75.0];
    let base = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let cold = sim
        .solve_array_many(&base, &loads, &bc)
        .expect("cold solve");
    let k = cold[0].stats.shards;

    let perturbed = BlockLayout::uniform(5, 5, BlockKind::Dummy);
    let incremental = sim
        .solve_array_many(&perturbed, &loads, &bc)
        .expect("all-swapped re-solve");
    assert_eq!(
        incremental[0].stats.shards_refactored, k,
        "every block changed, so every shard re-factors"
    );
    assert_eq!(incremental[0].stats.shards_reused, 0);
    let scratch = scratch_solve(&sim, shards, &perturbed, &loads, &bc);
    for (inc, full) in incremental.iter().zip(&scratch) {
        assert_bitwise(
            "all-swapped nodal displacement",
            full.nodal_displacement(),
            inc.nodal_displacement(),
        );
    }
}

/// A different lattice shape is a *pattern* change: no incremental reuse
/// is possible, the backend takes the full route under a fresh plan, and
/// the result is still correct.
#[test]
fn pattern_change_takes_the_full_route() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let loads = [-250.0];
    sim.solve_array_many(&BlockLayout::uniform(6, 6, BlockKind::Tsv), &loads, &bc)
        .expect("cold solve");

    let reshaped = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let solved = sim
        .solve_array_many(&reshaped, &loads, &bc)
        .expect("reshaped solve");
    let stats = solved[0].stats;
    assert_eq!(
        stats.shards_refactored, stats.shards,
        "a pattern change must re-factor everything under the new plan"
    );
    assert_eq!(stats.shards_reused, 0);
    let scratch = scratch_solve(&sim, shards, &reshaped, &loads, &bc);
    for (inc, full) in solved.iter().zip(&scratch) {
        assert_bitwise(
            "reshaped nodal displacement",
            full.nodal_displacement(),
            inc.nodal_displacement(),
        );
    }
}

/// PR 9: the incremental route composes with the block-grid planner — a
/// perturbed re-solve keeps the plan (the hint is a pure function of the
/// lattice shape, and a value-only swap leaves it unchanged), reuses clean
/// shards, and is still bitwise the from-scratch answer under the same
/// plan.
#[test]
fn incremental_route_keeps_the_geometric_plan() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let loads = [-250.0];
    let base = BlockLayout::uniform(6, 6, BlockKind::Tsv);
    let cold = sim
        .solve_array_many(&base, &loads, &bc)
        .expect("cold sharded solve");
    let cold_plan = cold[0].stats.plan_stats.expect("plan stats surfaced");
    if shards >= 2 {
        assert!(cold_plan.shards >= 2, "the 6×6 array must shard");
    }

    let mut perturbed = base.clone();
    perturbed.set_kind(5, 5, BlockKind::Dummy);
    let incremental = sim
        .solve_array_many(&perturbed, &loads, &bc)
        .expect("incremental re-solve");
    let incr_plan = incremental[0]
        .stats
        .plan_stats
        .expect("plan stats surfaced");
    assert_eq!(
        incr_plan, cold_plan,
        "a value-only swap must not change the plan"
    );
    let scratch = scratch_solve(&sim, shards, &perturbed, &loads, &bc);
    for (inc, full) in incremental.iter().zip(&scratch) {
        assert_bitwise(
            "geometric incremental displacement",
            full.nodal_displacement(),
            inc.nodal_displacement(),
        );
    }
}

/// `resolve_perturbed` (the single-load placement-loop door) agrees with
/// the batched `solve_array_many` it shares a route with.
#[test]
fn resolve_perturbed_single_load_matches_batched() {
    let shards = env_shards();
    let sim = build_sim(shards);
    let bc = GlobalBc::ClampedTopBottom;
    let base = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    sim.solve_array(&base, -250.0, &bc).expect("cold solve");
    let mut perturbed = base.clone();
    perturbed.set_kind(1, 2, BlockKind::Dummy);
    let single = sim
        .resolve_perturbed(&perturbed, -250.0, &bc)
        .expect("single-load re-solve");
    let batched = sim
        .solve_array_many(&perturbed, &[-250.0], &bc)
        .expect("batched re-solve");
    assert_bitwise(
        "single vs batched",
        batched[0].nodal_displacement(),
        single.nodal_displacement(),
    );
}
