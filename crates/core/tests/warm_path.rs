//! The warm path: a repeated layout finds its cached factor by *provenance*
//! (layout identity) and skips global assembly, and every answer it gives
//! is bit for bit the answer of a solve that assembled.
//!
//! Each case pins one edge of the alias — repeat, swap and swap back,
//! eviction, foreign ROMs on a shared cache — against a fresh simulator
//! (fresh cache, so it must assemble). Runs in the main CI test matrix
//! (`MORESTRESS_THREADS ∈ {default, 1, 8}`).

use std::sync::OnceLock;

use morestress_core::{
    GlobalBc, GlobalSolution, GlobalStage, InterpolationGrid, LocalStage, LocalStageOptions,
    MoreStressSimulator, ReducedOrderModel, RomSolver, SimulatorBuilder,
};
use morestress_fem::{Material, MaterialSet};
use morestress_linalg::{DirectCholesky, FactorCache};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry, MAT_SI};

const BC: GlobalBc = GlobalBc::ClampedTopBottom;
const LOADS: [f64; 5] = [-250.0, -100.0, 85.0, 0.0, 37.5];

fn build_rom(kind: BlockKind, materials: &MaterialSet) -> ReducedOrderModel {
    LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new([3, 3, 3]),
        materials,
        kind,
    )
    .build(&LocalStageOptions::default())
    .expect("local stage builds")
}

/// The TSV and dummy ROMs every case shares (built once per test binary;
/// clones keep their identity, exactly as a simulator built `from_models`
/// sees them).
fn roms() -> &'static (ReducedOrderModel, ReducedOrderModel) {
    static ROMS: OnceLock<(ReducedOrderModel, ReducedOrderModel)> = OnceLock::new();
    ROMS.get_or_init(|| {
        let materials = MaterialSet::tsv_defaults();
        (
            build_rom(BlockKind::Tsv, &materials),
            build_rom(BlockKind::Dummy, &materials),
        )
    })
}

/// A fresh simulator (fresh factor cache) around the shared ROMs.
fn simulator(configure: fn(SimulatorBuilder) -> SimulatorBuilder) -> MoreStressSimulator {
    let (tsv, dummy) = roms();
    configure(SimulatorBuilder::from_models(
        tsv.clone(),
        Some(dummy.clone()),
    ))
    .build()
    .expect("compatible models")
}

fn direct(builder: SimulatorBuilder) -> SimulatorBuilder {
    builder.solver(RomSolver::DirectCholesky)
}

fn sharded(builder: SimulatorBuilder) -> SimulatorBuilder {
    builder.shards(4)
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

/// Displacement and mid-plane stress of `solution` equal, bit for bit,
/// those of a fresh simulator solving `(layout, load)` from scratch.
fn assert_matches_fresh(
    label: &str,
    configure: fn(SimulatorBuilder) -> SimulatorBuilder,
    sim: &MoreStressSimulator,
    layout: &BlockLayout,
    load: f64,
    solution: &GlobalSolution,
) {
    let fresh_sim = simulator(configure);
    let fresh = fresh_sim
        .solve_array(layout, load, &BC)
        .expect("fresh solve");
    assert!(
        !fresh.stats.operator_reused,
        "{label}: a fresh cache assembles"
    );
    assert_bitwise(
        &format!("{label}: displacement"),
        fresh.nodal_displacement(),
        solution.nodal_displacement(),
    );
    let sample = |s: &MoreStressSimulator, sol: &GlobalSolution| {
        s.sample_midplane(layout, sol, load, 4)
            .expect("mid-plane sampling")
            .values
    };
    assert_bitwise(
        &format!("{label}: mid-plane stress"),
        &sample(&fresh_sim, &fresh),
        &sample(sim, solution),
    );
}

/// A 5×5 TSV array with block `(bi, bj)` swapped for a dummy.
fn with_dummy_at(bi: usize, bj: usize) -> BlockLayout {
    let mut layout = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    layout.set_kind(bi, bj, BlockKind::Dummy);
    layout
}

/// (a) + (b): five loads on one simulator are one preparation and four
/// provenance hits, and each warm answer is the cold answer — on the
/// monolithic direct backend and on the 4-shard one (whose configuration
/// fingerprint folds in the partition hint the prelude sets first).
#[test]
fn repeated_loads_reuse_the_operator_and_match_fresh_solves() {
    for (name, configure) in [("direct", direct as fn(_) -> _), ("shards(4)", sharded)] {
        let sim = simulator(configure);
        let layout = BlockLayout::uniform(4, 4, BlockKind::Tsv).padded(1);
        for (i, &load) in LOADS.iter().enumerate() {
            let solution = sim.solve_array(&layout, load, &BC).expect("solve");
            assert_eq!(
                solution.stats.operator_reused,
                i > 0,
                "{name}: load {i} — only the first solve assembles"
            );
            assert_matches_fresh(
                &format!("{name} load {i}"),
                configure,
                &sim,
                &layout,
                load,
                &solution,
            );
        }
        assert_eq!(sim.factor_cache().misses(), 1, "{name}: one preparation");
        assert_eq!(
            sim.factor_cache().hits(),
            4,
            "{name}: one hit per warm solve"
        );
    }
}

/// The three routes to one factor — cold (assemble + prepare), alias-warm
/// (operator found by provenance) and content-warm (a rebuilt ROM is a new
/// provenance that assembles the same operator, hint included, and hits by
/// content) — give the same bits, and each reports the ordering the factor
/// was built under: geometric, from the hint the stage attached.
#[test]
fn cold_alias_warm_and_content_warm_solves_share_one_geometric_factor() {
    let (rom, _) = roms();
    let rebuilt = build_rom(BlockKind::Tsv, &MaterialSet::tsv_defaults());
    let cache = FactorCache::new();
    let layout = BlockLayout::uniform(5, 4, BlockKind::Tsv);
    let backend = DirectCholesky::default();
    let solve = |rom| {
        GlobalStage::new(rom)
            .with_backend(&backend)
            .with_cache(&cache)
            .solve(&layout, -250.0, &BC)
            .expect("solve")
    };

    let cold = solve(rom);
    assert!(!cold.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (1, 0));
    let alias_warm = solve(rom);
    assert!(alias_warm.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
    let content_warm = solve(&rebuilt);
    assert!(
        !content_warm.stats.operator_reused,
        "a new ROM identity assembles"
    );
    assert_eq!(
        (cache.misses(), cache.hits()),
        (1, 2),
        "and finds the factor by content"
    );

    assert!(cold.stats.factor_nnz.is_some_and(|nnz| nnz > 0));
    for (label, warm) in [("alias-warm", &alias_warm), ("content-warm", &content_warm)] {
        assert_eq!(warm.stats.ordering, Some("geometric"), "{label}");
        assert_eq!(warm.stats.factor_nnz, cold.stats.factor_nnz, "{label}");
        assert_bitwise(label, cold.nodal_displacement(), warm.nodal_displacement());
    }
    assert_eq!(cold.stats.ordering, Some("geometric"));
}

/// The batched door takes the same route: a warm 3-load batch reuses the
/// operator and returns the bits of three cold single solves.
#[test]
fn warm_batches_match_cold_single_solves() {
    let sim = simulator(direct);
    let layout = with_dummy_at(1, 3);
    sim.solve_array(&layout, 20.0, &BC).expect("cold solve");
    let batch = sim
        .solve_array_many(&layout, &LOADS[..3], &BC)
        .expect("warm batch");
    for (i, (solution, &load)) in batch.iter().zip(&LOADS).enumerate() {
        assert!(solution.stats.operator_reused, "batch entry {i}");
        assert_matches_fresh(
            &format!("batch entry {i}"),
            direct,
            &sim,
            &layout,
            load,
            solution,
        );
    }
}

/// (c) A → B → A: one swapped block is a different provenance (miss, and
/// the answer of a fresh solve of B); swapping back finds A's entry again
/// without assembling.
#[test]
fn swapped_block_misses_and_swapping_back_hits_again() {
    let sim = simulator(direct);
    let a = BlockLayout::uniform(5, 5, BlockKind::Tsv);
    let b = with_dummy_at(2, 2);
    let cache = sim.factor_cache();

    let first = sim.solve_array(&a, -250.0, &BC).expect("A, cold");
    assert!(!first.stats.operator_reused);
    let swapped = sim.resolve_perturbed(&b, -250.0, &BC).expect("B");
    assert!(!swapped.stats.operator_reused, "B is a new layout");
    assert_eq!((cache.misses(), cache.hits()), (2, 0));
    assert_matches_fresh("B", direct, &sim, &b, -250.0, &swapped);

    let back = sim.resolve_perturbed(&a, -100.0, &BC).expect("A, warm");
    assert!(back.stats.operator_reused, "A's entry is still tagged");
    assert_eq!((cache.misses(), cache.hits()), (2, 1));
    assert_matches_fresh("A again", direct, &sim, &a, -100.0, &back);

    let b_again = sim.solve_array(&b, 85.0, &BC).expect("B, warm");
    assert!(b_again.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (2, 2));
    assert_matches_fresh("B again", direct, &sim, &b, 85.0, &b_again);
}

/// (d) Five distinct layouts through the capacity-4 cache: the alias of
/// the evicted entry left with it, so the first layout assembles and
/// prepares again — and is still right — while a surviving one stays warm.
#[test]
fn evicted_layout_reassembles_and_is_still_right() {
    let sim = simulator(direct);
    let layouts: Vec<BlockLayout> = (0..5).map(|i| with_dummy_at(i, i)).collect();
    let cache = sim.factor_cache();
    for layout in &layouts {
        let cold = sim.solve_array(layout, -250.0, &BC).expect("cold solve");
        assert!(!cold.stats.operator_reused);
    }
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (5, 0, 4));

    let evicted = sim.solve_array(&layouts[0], -250.0, &BC).expect("evicted");
    assert!(!evicted.stats.operator_reused, "its alias was evicted too");
    assert_eq!((cache.misses(), cache.hits()), (6, 0), "a real re-prepare");
    assert_matches_fresh(
        "evicted layout",
        direct,
        &sim,
        &layouts[0],
        -250.0,
        &evicted,
    );

    let survivor = sim.solve_array(&layouts[4], 85.0, &BC).expect("survivor");
    assert!(survivor.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (6, 1));
    assert_matches_fresh(
        "surviving layout",
        direct,
        &sim,
        &layouts[4],
        85.0,
        &survivor,
    );
}

/// (e) One `FactorCache` shared by two stages whose ROMs differ (stiffer
/// silicon, same lattice — so the operators have one shape and pattern)
/// never cross-hits: each stage assembles once, then reuses *its own*
/// operator. A clone of a ROM is that ROM.
#[test]
fn shared_cache_never_crosses_between_different_roms() {
    let (rom_a, _) = roms();
    let mut stiffer = MaterialSet::tsv_defaults();
    stiffer.insert(MAT_SI, Material::new(150_000.0, 0.28, 2.3e-6));
    let rom_b = build_rom(BlockKind::Tsv, &stiffer);
    let rom_a_clone = rom_a.clone();

    let cache = FactorCache::new();
    let backend = DirectCholesky::default();
    let stage = |rom| {
        GlobalStage::new(rom)
            .with_backend(&backend)
            .with_cache(&cache)
    };
    let layout = BlockLayout::uniform(4, 3, BlockKind::Tsv);
    let solve = |rom, load| stage(rom).solve(&layout, load, &BC).expect("solve");
    let uncached = |rom, load| {
        GlobalStage::new(rom)
            .with_backend(&backend)
            .solve(&layout, load, &BC)
            .expect("uncached solve")
    };

    let a_cold = solve(rom_a, -250.0);
    let b_cold = solve(&rom_b, -250.0);
    assert!(!a_cold.stats.operator_reused);
    assert!(
        !b_cold.stats.operator_reused,
        "B must not find A's operator"
    );
    assert_eq!((cache.misses(), cache.hits()), (2, 0));
    assert_ne!(a_cold.nodal_displacement(), b_cold.nodal_displacement());
    assert_bitwise(
        "B cold",
        uncached(&rom_b, -250.0).nodal_displacement(),
        b_cold.nodal_displacement(),
    );

    for (label, rom, load) in [
        ("A warm", rom_a, -100.0),
        ("B warm", &rom_b, -100.0),
        ("A through a clone", &rom_a_clone, 85.0),
    ] {
        let warm = solve(rom, load);
        assert!(warm.stats.operator_reused, "{label}");
        assert_bitwise(
            label,
            uncached(rom, load).nodal_displacement(),
            warm.nodal_displacement(),
        );
    }
    assert_eq!((cache.misses(), cache.hits()), (2, 3));
}
