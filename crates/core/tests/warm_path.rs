//! The warm path: a repeated layout finds its cached factor by its *key*
//! (layout identity) and skips global assembly, and every answer it gives
//! is bit for bit the answer of a solve that assembled.
//!
//! Each case pins one edge of the key — repeat, swap and swap back,
//! eviction, foreign ROMs on a shared cache — against a fresh simulator
//! (fresh cache, so it must assemble). Runs in the main CI test matrix
//! (`MORESTRESS_THREADS ∈ {default, 1, 8}`).

use std::sync::{Arc, Mutex, OnceLock};

use morestress_core::{
    GlobalBc, GlobalSolution, GlobalStage, InterpolationGrid, LocalStage, LocalStageOptions,
    MoreStressSimulator, ReducedOrderModel, SimulatorBuilder,
};
use morestress_fem::{Material, MaterialSet};
use morestress_linalg::{
    CsrMatrix, DirectCholesky, FactorCache, LinalgError, LinearSolver, PartitionHint,
    PreparedSolver, SolverBackend,
};
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
    builder.solver(LinearSolver::DirectCholesky)
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
/// key hits, and each warm answer is the cold answer — on the
/// monolithic direct backend and on the 4-shard one (which plans its
/// shards from the partition hint the operator carries).
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

/// The routes to a factor — cold (assemble + prepare), warm (operator
/// found by key) and rebuilt-ROM (a new ROM identity is a new key: it
/// assembles the same operator, hint included, and prepares it again) —
/// give the same bits, and each reports the ordering the factor was built
/// under: geometric, from the hint the stage attached.
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
    let warm = solve(rom);
    assert!(warm.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (1, 1));
    let rebuilt_cold = solve(&rebuilt);
    assert!(
        !rebuilt_cold.stats.operator_reused,
        "a new ROM identity assembles"
    );
    assert_eq!(
        (cache.misses(), cache.hits()),
        (2, 1),
        "and prepares its own factor"
    );

    assert!(cold.stats.factor_nnz.is_some_and(|nnz| nnz > 0));
    for (label, warm) in [("warm", &warm), ("rebuilt ROM", &rebuilt_cold)] {
        assert_eq!(
            warm.stats.supernode_stats.map(|s| s.ordering),
            Some("geometric"),
            "{label}"
        );
        assert_eq!(warm.stats.factor_nnz, cold.stats.factor_nnz, "{label}");
        assert_bitwise(label, cold.nodal_displacement(), warm.nodal_displacement());
    }
    assert_eq!(
        cold.stats.supernode_stats.map(|s| s.ordering),
        Some("geometric")
    );
}

/// The batched door takes the same route: a warm 3-load batch reuses the
/// operator and returns the bits of three cold single solves. Each
/// solve's stats carry its batch's report: the cold batch's covers its
/// two loads, and the warm batch repeats the cached solver's setup time.
#[test]
fn warm_batches_match_cold_single_solves() {
    let sim = simulator(direct);
    let layout = with_dummy_at(1, 3);
    let cold = sim
        .solve_array_many(&layout, &[20.0, 85.0], &BC)
        .expect("cold batch");
    for solution in &cold {
        let stats = &solution.stats;
        assert!(!stats.operator_reused);
        assert_eq!(stats.rhs_count, 2);
        assert!(stats.solve_time <= stats.wall_time);
    }
    let batch = sim
        .solve_array_many(&layout, &LOADS[..3], &BC)
        .expect("warm batch");
    for (i, (solution, &load)) in batch.iter().zip(&LOADS).enumerate() {
        assert!(solution.stats.operator_reused, "batch entry {i}");
        assert_eq!(solution.stats.rhs_count, 3, "batch entry {i}");
        assert_eq!(
            solution.stats.setup_time, cold[0].stats.setup_time,
            "batch entry {i}: the cached solver's description"
        );
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

/// (c) A → B → A: one swapped block is a different key (miss, and
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
    assert!(back.stats.operator_reused, "A's entry is still cached");
    assert_eq!((cache.misses(), cache.hits()), (2, 1));
    assert_matches_fresh("A again", direct, &sim, &a, -100.0, &back);

    let b_again = sim.solve_array(&b, 85.0, &BC).expect("B, warm");
    assert!(b_again.stats.operator_reused);
    assert_eq!((cache.misses(), cache.hits()), (2, 2));
    assert_matches_fresh("B again", direct, &sim, &b, 85.0, &b_again);
}

/// (d) Five distinct layouts through the capacity-4 cache: the first
/// layout's entry was evicted, so it assembles and prepares again — and is still right — while a surviving one stays warm.
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
    assert!(!evicted.stats.operator_reused, "its entry was evicted");
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

/// The direct backend, recording every partition hint the stage hands
/// down (as the benchmark's tracing shim does).
#[derive(Debug, Default)]
struct HintRecorder {
    inner: DirectCholesky,
    hints: Mutex<Vec<Option<Arc<PartitionHint>>>>,
}

impl HintRecorder {
    /// The one hint handed down since the last call.
    fn take_one(&self, label: &str) -> Arc<PartitionHint> {
        let hints = std::mem::take(&mut *self.hints.lock().expect("hints poisoned"));
        match <[_; 1]>::try_from(hints) {
            Ok([Some(hint)]) => hint,
            other => panic!("{label}: expected one hint, got {other:?}"),
        }
    }
}

impl SolverBackend for HintRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        self.inner.prepare(a)
    }

    fn config_fingerprint(&self) -> u64 {
        self.inner.config_fingerprint()
    }

    fn set_partition_hint(&self, hint: Option<Arc<PartitionHint>>) {
        self.hints.lock().expect("hints poisoned").push(hint);
    }
}

/// The hint a solve hands its backend is the one its operator carries:
/// on the cold miss, the hint [`GlobalStage::assemble`] attaches; on every
/// key hit, the cached operator's own `Arc` — nothing rebuilt.
#[test]
fn provenance_hits_hand_down_the_cached_operators_own_hint() {
    let (tsv, dummy) = roms();
    let cache = FactorCache::new();
    let backend = HintRecorder::default();
    let layout = with_dummy_at(3, 1);
    let stage = || {
        GlobalStage::new(tsv)
            .with_dummy(dummy)
            .expect("compatible ROMs")
            .with_backend(&backend)
    };

    let cold = stage()
        .with_cache(&cache)
        .solve(&layout, LOADS[0], &BC)
        .expect("cold solve");
    assert!(!cold.stats.operator_reused);
    let cold_hint = backend.take_one("cold");
    let assembled = stage().assemble(&layout, &BC).expect("assembly");
    assert_eq!(
        Some(&*cold_hint),
        assembled.a_ff.partition_hint().map(|hint| &**hint),
        "the cold miss hands down the hint the assembly attaches"
    );

    let mut cached_hint = None;
    for (i, &load) in LOADS.iter().enumerate().skip(1) {
        let warm = stage()
            .with_cache(&cache)
            .solve(&layout, load, &BC)
            .expect("warm solve");
        assert!(warm.stats.operator_reused, "load {i}");
        let hint = backend.take_one(&format!("load {i}"));
        let cached_hint = cached_hint.get_or_insert_with(|| Arc::clone(&hint));
        assert!(
            Arc::ptr_eq(&hint, cached_hint),
            "load {i}: the cached operator's own hint"
        );
        let uncached = GlobalStage::new(tsv)
            .with_dummy(dummy)
            .expect("compatible ROMs")
            .with_backend(&DirectCholesky::default())
            .solve(&layout, load, &BC)
            .expect("uncached solve");
        assert_bitwise(
            &format!("load {i}"),
            uncached.nodal_displacement(),
            warm.nodal_displacement(),
        );
    }
    assert_eq!(cache.misses(), 1);
}
