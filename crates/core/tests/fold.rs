//! The direct engine's mirror fold: the global stage detects a layout's
//! mirror group by structure, attaches its signed column map `V` to the
//! reduced operator, and the direct factor solves `Vᵀ A V` in the
//! symmetric subspace instead of `A`.
//!
//! CI also runs this suite across `MORESTRESS_THREADS ∈ {1, 8}` ×
//! `MORESTRESS_SHARDS ∈ {1, 4}`; the sharded case reads the shard count.

use std::sync::{Arc, OnceLock};

use morestress_core::{
    sample_array_von_mises, GlobalBc, GlobalSolution, GlobalStage, InterpolationGrid, LocalStage,
    LocalStageOptions, ReducedOrderModel,
};
use morestress_fem::MaterialSet;
use morestress_linalg::{CsrMatrix, DirectCholesky, Sharded, SolverBackend, WorkPool};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

/// The coarse (3,3,3) TSV and dummy ROMs every test shares.
fn roms() -> &'static (ReducedOrderModel, ReducedOrderModel) {
    static ROMS: OnceLock<(ReducedOrderModel, ReducedOrderModel)> = OnceLock::new();
    ROMS.get_or_init(|| {
        let build = |kind| {
            LocalStage::new(
                &TsvGeometry::paper_defaults(15.0),
                &BlockResolution::coarse(),
                InterpolationGrid::new([3, 3, 3]),
                &MaterialSet::tsv_defaults(),
                kind,
            )
            .build(&LocalStageOptions::default())
            .expect("local stage builds")
        };
        (build(BlockKind::Tsv), build(BlockKind::Dummy))
    })
}

/// FNV-1a (64-bit) over the little-endian bits of `values`, continuing
/// from `hash`.
fn fnv1a(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a over the nodal displacement and the g = 4 mid-plane field of a
/// `DirectCholesky` solve of a 4×3 TSV array with one dummy at (0, 0),
/// under ΔT −250 and +85, recorded before the fold existed.
const ASYMMETRIC_DIRECT_HASH: u64 = 0x6548_ce8d_1eeb_63a3;

/// A layout no mirror maps onto itself takes the trivial group, whose
/// direct route is today's bit for bit.
#[test]
fn asymmetric_direct_solve_is_pinned() {
    let (tsv, dummy) = roms();
    let mut layout = BlockLayout::uniform(4, 3, BlockKind::Tsv);
    layout.set_kind(0, 0, BlockKind::Dummy);
    let loads = [-250.0, 85.0];
    let backend = DirectCholesky::default();
    let solutions = GlobalStage::new(tsv)
        .with_dummy(dummy)
        .expect("compatible ROMs")
        .with_backend(&backend)
        .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
        .expect("direct solve");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (solution, &delta_t) in solutions.iter().zip(&loads) {
        let field = sample_array_von_mises(tsv, Some(dummy), &layout, solution, delta_t, 4)
            .expect("sampling");
        hash = fnv1a(hash, solution.nodal_displacement());
        hash = fnv1a(hash, &field.values);
    }
    assert_eq!(hash, ASYMMETRIC_DIRECT_HASH, "got {hash:#018x}");
}

/// The stage over the shared ROMs.
fn stage() -> GlobalStage<'static> {
    let (tsv, dummy) = roms();
    GlobalStage::new(tsv)
        .with_dummy(dummy)
        .expect("compatible ROMs")
}

/// The order of the mirror group the operator `stage` assembles for
/// `layout` carries (1 without a fold).
fn fold_order(stage: &GlobalStage<'_>, layout: &BlockLayout) -> usize {
    let reduced = stage
        .assemble(layout, &GlobalBc::ClampedTopBottom)
        .expect("assembly");
    reduced.a_ff.fold().map_or(1, |fold| fold.order())
}

/// A layout with two dummies on the diagonal keeps the diagonal mirror
/// alone; one dummy off every mirror plane and off the diagonal leaves
/// nothing.
#[test]
fn the_group_is_what_maps_the_block_map_onto_itself() {
    let stage = stage();
    let mut diagonal = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    diagonal.set_kind(0, 0, BlockKind::Dummy);
    diagonal.set_kind(3, 3, BlockKind::Dummy);
    assert_eq!(fold_order(&stage, &diagonal), 2);
    let mut lopsided = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    lopsided.set_kind(0, 1, BlockKind::Dummy);
    assert_eq!(fold_order(&stage, &lopsided), 1);
    // A sub-model boundary is arbitrary data: never folded.
    let submodel = GlobalBc::SubmodelBoundary(Arc::new(|_| [0.0; 3]));
    let uniform = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    let reduced = stage.assemble(&uniform, &submodel).expect("assembly");
    assert!(reduced.a_ff.fold().is_none());
    assert_eq!(fold_order(&stage, &uniform), 8);
}

/// A ROM whose element stiffness is off by 1e-9 relative in one entry is
/// not mirror-invariant, so even a uniform square array of it keeps no
/// mirror; the same file unedited keeps all of D4.
#[test]
fn a_nudged_rom_is_not_invariant() {
    let (tsv, _) = roms();
    let dir = std::env::temp_dir().join(format!("morestress-fold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tsv.rom");
    tsv.save(&path).expect("save");
    let clean = ReducedOrderModel::load(&path).expect("load");
    // The file ends with `K_e` (n × n) and then `b_e` (n), little-endian.
    let n = tsv.num_dofs();
    let mut bytes = std::fs::read(&path).expect("read");
    let at = bytes.len() - 8 * (n * n + n);
    let k00 = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    assert_eq!(
        k00,
        tsv.element_stiffness().as_slice()[0],
        "K_e[0][0] located"
    );
    bytes[at..at + 8].copy_from_slice(&(k00 * (1.0 + 1e-9)).to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");
    let nudged = ReducedOrderModel::load(&path).expect("load");
    std::fs::remove_dir_all(&dir).expect("clean up");

    let layout = BlockLayout::uniform(3, 3, BlockKind::Tsv);
    assert_eq!(fold_order(&GlobalStage::new(&clean), &layout), 8);
    assert_eq!(fold_order(&GlobalStage::new(&nudged), &layout), 1);
}

/// The ΔT = 1 load of `layout` on every lattice DoF, as the stage builds
/// it: each block's element load scattered onto its nodes.
fn unit_load(layout: &BlockLayout, solution: &GlobalSolution) -> Vec<f64> {
    let (tsv, dummy) = roms();
    let lattice = solution.lattice();
    let mut b = vec![0.0; lattice.num_dofs()];
    for bj in 0..layout.ny() {
        for bi in 0..layout.nx() {
            let rom = match layout.kind(bi, bj) {
                BlockKind::Tsv => tsv,
                BlockKind::Dummy => dummy,
            };
            let nodes = lattice.block_nodes(bi, bj);
            for (&m, load) in nodes.iter().zip(rom.element_load().chunks_exact(3)) {
                for (c, &v) in load.iter().enumerate() {
                    b[3 * m + c] += v;
                }
            }
        }
    }
    b
}

/// The metamorphic case: on symmetric layouts the folded and the unfolded
/// direct solves of the assembled operator agree to 1e-12 relative, the
/// stage's own solve is the folded one, and its nodal `u_x` is exactly
/// antisymmetric (and `u_y`, `u_z` exactly symmetric) under the x mirror.
#[test]
fn folded_and_unfolded_solves_agree_and_the_fold_is_exactly_symmetric() {
    let backend = DirectCholesky::default();
    let stage = stage().with_backend(&backend);
    let delta_t = -250.0;
    let layouts = [
        ("1x1", BlockLayout::uniform(1, 1, BlockKind::Tsv), 8),
        (
            "5x5 + ring",
            BlockLayout::uniform(5, 5, BlockKind::Tsv).padded(1),
            8,
        ),
        ("4x2", BlockLayout::uniform(4, 2, BlockKind::Tsv), 4),
    ];
    for (name, layout, order) in layouts {
        let solution = stage
            .solve(&layout, delta_t, &GlobalBc::ClampedTopBottom)
            .expect("stage solve");
        assert_eq!(solution.stats.fold_order, order, "{name}");
        let reduced = stage
            .assemble(&layout, &GlobalBc::ClampedTopBottom)
            .expect("assembly");
        let folded = Arc::clone(&reduced.a_ff);
        let fold = folded.fold().expect("a symmetric layout folds");
        assert_eq!(fold.order(), order, "{name}");
        assert_eq!(
            solution.stats.folded_dofs,
            Some(fold.dim()),
            "{name}: folded dimension"
        );
        let unfolded: Arc<CsrMatrix> = Arc::new((*folded).clone().with_fold(None));
        let rhs = reduced.rhs_for_scaled_loads(&unit_load(&layout, &solution), &[delta_t]);
        let solve = |a: &Arc<CsrMatrix>| {
            let prepared = backend.prepare(Arc::clone(a)).expect("prepare");
            prepared.solve(&rhs[0]).expect("solve")
        };
        let (x_fold, x_full) = (solve(&folded), solve(&unfolded));
        assert_eq!(x_fold.report.fold_order, order, "{name}");
        assert_eq!(x_full.report.fold_order, 1, "{name}");
        assert!(
            x_fold.report.factor_nnz < x_full.report.factor_nnz,
            "{name}: the folded factor is smaller"
        );
        let peak = x_full.x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let gap = x_fold
            .x
            .iter()
            .zip(&x_full.x)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            gap <= 1e-12 * peak,
            "{name}: fold vs full {gap:e} of {peak:e}"
        );
        let nodal = reduced.expand(&x_fold.x);
        assert_eq!(
            nodal,
            solution.nodal_displacement(),
            "{name}: the stage folds"
        );

        let lattice = solution.lattice();
        let ax = (0..lattice.num_nodes())
            .map(|id| lattice.position(id)[0])
            .fold(0.0f64, f64::max);
        for id in 0..lattice.num_nodes() {
            let [x, y, z] = lattice.position(id);
            let mirror = (0..lattice.num_nodes())
                .find(|&m| lattice.position(m) == [ax - x, y, z])
                .or_else(|| {
                    (0..lattice.num_nodes()).find(|&m| {
                        let p = lattice.position(m);
                        (p[0] - (ax - x)).abs() < 1e-9 && p[1] == y && p[2] == z
                    })
                })
                .expect("every node has an x-mirror image");
            let (u, v) = (
                &nodal[3 * id..3 * id + 3],
                &nodal[3 * mirror..3 * mirror + 3],
            );
            assert!(
                u[0] == -v[0] && u[1] == v[1] && u[2] == v[2],
                "{name}: node {id} {u:?} vs its mirror {v:?}"
            );
        }
    }
}

/// Shard count under test: `MORESTRESS_SHARDS` when set (the CI matrix
/// pins 1 and 4), else 4.
fn env_shards() -> usize {
    std::env::var("MORESTRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// A one-shard plan's shard is the operator itself, so it folds and stays
/// the monolithic direct solve bit for bit; a plan of two or more shards
/// extracts its interiors without the map, reports no fold, and is
/// bitwise the same at every pool cap.
#[test]
fn sharded_plans_fold_only_when_the_shard_is_the_operator() {
    let (tsv, _) = roms();
    let layout = BlockLayout::uniform(6, 6, BlockKind::Tsv);
    let loads = [-250.0, 85.0];
    let solve = |backend: &dyn SolverBackend| {
        GlobalStage::new(tsv)
            .with_backend(backend)
            .solve_many(&layout, &loads, &GlobalBc::ClampedTopBottom)
            .expect("solve")
    };
    let monolithic = solve(&DirectCholesky::default());
    assert_eq!(monolithic[0].stats.fold_order, 8);
    let one = solve(&Sharded::new(1));
    assert_eq!((one[0].stats.shards, one[0].stats.fold_order), (1, 8));
    for (a, b) in one.iter().zip(&monolithic) {
        assert_eq!(a.nodal_displacement(), b.nodal_displacement());
    }
    let shards = env_shards().max(2);
    let at_cap = |cap: usize| WorkPool::new(cap).install(|| solve(&Sharded::new(shards)));
    let reference = at_cap(1);
    assert!(reference[0].stats.shards >= 2, "a real decomposition");
    assert_eq!(reference[0].stats.fold_order, 1);
    for cap in [2, 8] {
        for (a, b) in at_cap(cap).iter().zip(&reference) {
            let bits = |s: &GlobalSolution| -> Vec<u64> {
                s.nodal_displacement().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "{shards} shards at cap {cap}");
        }
    }
}
