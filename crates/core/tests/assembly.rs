//! The global stage assembles the *reduced* system directly; this suite
//! holds the route it replaced — assemble the unreduced operator, then
//! reduce it with `ReducedSystem::new` — as the oracle, and pins the direct
//! route to it: the same CSR pattern, every value bit, the same
//! fingerprint, a `+0.0` lifting term under clamped data and the same
//! lifting term to rounding under prescribed data, at pool caps 1 and 8.

use std::sync::Arc;

use morestress_core::{
    GlobalBc, GlobalLattice, GlobalStage, InterpolationGrid, LocalStage, LocalStageOptions,
    ReducedOrderModel,
};
use morestress_fem::{DirichletBcs, MaterialSet, ReducedSystem};
use morestress_linalg::{matrix_fingerprint, CsrMatrix, WorkPool};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

fn build_rom(kind: BlockKind, interp: [usize; 3]) -> ReducedOrderModel {
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

/// The unreduced global operator: node adjacency → DoF sparsity pattern,
/// then the standard scatter over abstract elements, node by node with the
/// contributions of a row accumulated in block order — the global stage's
/// assembly before it went reduced, minus the pool.
fn assemble_operator(
    lattice: &GlobalLattice,
    blocks: &[(&ReducedOrderModel, Vec<usize>)],
) -> CsrMatrix {
    let ndof = lattice.num_dofs();
    let num_nodes = lattice.num_nodes();
    let mut node_adj: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    let mut node_contrib: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_nodes];
    for (b, (_, nodes)) in blocks.iter().enumerate() {
        for (ln, &a) in nodes.iter().enumerate() {
            node_adj[a].extend_from_slice(nodes);
            node_contrib[a].push((b, ln));
        }
    }
    for list in &mut node_adj {
        list.sort_unstable();
        list.dedup();
    }
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    for neighbors in &node_adj {
        for _ in 0..3 {
            for &m in neighbors {
                col_idx.extend_from_slice(&[3 * m, 3 * m + 1, 3 * m + 2]);
            }
            row_ptr.push(col_idx.len());
        }
    }
    let mut values = vec![0.0; col_idx.len()];
    let mut slot_of_col = vec![usize::MAX; ndof];
    for (m, neighbors) in node_adj.iter().enumerate() {
        for (slot, &nb) in neighbors.iter().enumerate() {
            for c in 0..3 {
                slot_of_col[3 * nb + c] = 3 * slot + c;
            }
        }
        let row_len = 3 * neighbors.len();
        let vals = &mut values[row_ptr[3 * m]..row_ptr[3 * m + 3]];
        for &(b, ln) in &node_contrib[m] {
            let (rom, nodes) = &blocks[b];
            let a_elem = rom.element_stiffness();
            for comp in 0..3 {
                let erow = a_elem.row(3 * ln + comp);
                let dst = &mut vals[comp * row_len..(comp + 1) * row_len];
                for (c, &v) in erow.iter().enumerate() {
                    if v != 0.0 {
                        dst[slot_of_col[3 * nodes[c / 3] + c % 3]] += v;
                    }
                }
            }
        }
    }
    CsrMatrix::from_raw(ndof, ndof, row_ptr, col_idx, values)
}

/// The oracle: unreduced assembly, then the full-FEM reduction with a zero
/// load, so `rhs` is the lifting term.
fn reference(
    tsv: &ReducedOrderModel,
    dummy: &ReducedOrderModel,
    layout: &BlockLayout,
    bc: &GlobalBc,
) -> ReducedSystem {
    let geom = tsv.geometry();
    let lattice = GlobalLattice::new(
        layout,
        tsv.interpolation().counts(),
        [geom.pitch, geom.pitch, geom.height],
    );
    let blocks: Vec<_> = (0..layout.ny())
        .flat_map(|bj| (0..layout.nx()).map(move |bi| (bi, bj)))
        .map(|(bi, bj)| {
            let rom = match layout.kind(bi, bj) {
                BlockKind::Tsv => tsv,
                BlockKind::Dummy => dummy,
            };
            (rom, lattice.block_nodes(bi, bj))
        })
        .collect();
    let mut bcs = DirichletBcs::new();
    for id in 0..lattice.num_nodes() {
        match bc {
            GlobalBc::ClampedTopBottom if lattice.is_top_or_bottom(id) => {
                bcs.set_node(id, [0.0; 3]);
            }
            GlobalBc::SubmodelBoundary(coarse) if lattice.is_outer_boundary(id) => {
                bcs.set_node(id, coarse(lattice.position(id)));
            }
            _ => {}
        }
    }
    let a_global = assemble_operator(&lattice, &blocks);
    ReducedSystem::new(&a_global, &vec![0.0; lattice.num_dofs()], &bcs).expect("free DoFs remain")
}

fn layouts() -> Vec<(&'static str, BlockLayout)> {
    let mut patched = BlockLayout::uniform(4, 4, BlockKind::Tsv);
    for (bi, bj) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
        patched.set_kind(bi, bj, BlockKind::Dummy);
    }
    vec![
        ("1x5 strip", BlockLayout::uniform(5, 1, BlockKind::Tsv)),
        (
            "3x3 + dummy ring",
            BlockLayout::uniform(3, 3, BlockKind::Tsv).padded(1),
        ),
        ("4x4 with a 2x2 dummy patch", patched),
    ]
}

/// A smooth, non-symmetric, nowhere-trivial coarse displacement field.
fn coarse_field(p: [f64; 3]) -> [f64; 3] {
    [
        1e-3 * p[0] - 2e-4 * p[2] + 0.01,
        -5e-4 * p[1] + 3e-6 * p[0] * p[2],
        7e-4 * p[2] + 1e-4 * p[0] - 2e-4 * p[1],
    ]
}

#[test]
fn direct_reduced_assembly_matches_assemble_then_reduce() {
    let bcs = [
        ("clamped", GlobalBc::ClampedTopBottom),
        (
            "submodel",
            GlobalBc::SubmodelBoundary(Arc::new(coarse_field)),
        ),
    ];
    for interp in [[3, 3, 3], [4, 4, 4], [4, 3, 3]] {
        let tsv = build_rom(BlockKind::Tsv, interp);
        let dummy = build_rom(BlockKind::Dummy, interp);
        for (layout_name, layout) in layouts() {
            for (bc_name, bc) in &bcs {
                let label = format!("{interp:?}, {layout_name}, {bc_name}");
                let oracle = reference(&tsv, &dummy, &layout, bc);
                for cap in [1, 8] {
                    let label = format!("{label}, cap {cap}");
                    let direct = WorkPool::new(cap).install(|| {
                        GlobalStage::new(&tsv)
                            .with_dummy(&dummy)
                            .expect("compatible models")
                            .assemble(&layout, bc)
                            .expect("free DoFs remain")
                    });
                    assert_same_system(
                        &label,
                        &oracle,
                        &direct,
                        matches!(bc, GlobalBc::ClampedTopBottom),
                    );
                }
            }
        }
    }
}

fn assert_same_system(label: &str, oracle: &ReducedSystem, direct: &ReducedSystem, clamped: bool) {
    assert_eq!(direct.free_dofs, oracle.free_dofs, "{label}: free set");
    let (a, b) = (&*oracle.a_ff, &*direct.a_ff);
    assert_eq!(b.nrows(), a.nrows(), "{label}: rows");
    assert_eq!(b.ncols(), a.ncols(), "{label}: columns");
    assert_eq!(b.row_ptr(), a.row_ptr(), "{label}: row_ptr");
    assert_eq!(b.col_idx(), a.col_idx(), "{label}: col_idx");
    for (k, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: value {k} differs: {x:?} vs {y:?}"
        );
    }
    // The stage attaches the block-grid hint and, on a symmetric layout,
    // the fold map of its mirror group, which `==` and the fingerprint
    // cover; under the same hint and map the two operators are one.
    let hint = b.partition_hint().expect("the stage attaches a hint");
    assert_eq!(hint.num_rows(), b.nrows(), "{label}: hint rows");
    let hinted = a
        .clone()
        .with_partition_hint(Arc::clone(hint))
        .with_fold(b.fold().cloned());
    assert_eq!(
        matrix_fingerprint(b),
        matrix_fingerprint(&hinted),
        "{label}: fingerprint"
    );
    assert_eq!(*b, hinted, "{label}: operator identity");

    assert_eq!(
        direct.rhs.len(),
        oracle.rhs.len(),
        "{label}: lifting length"
    );
    if clamped {
        assert!(
            direct.rhs.iter().all(|v| v.to_bits() == 0),
            "{label}: clamped lifting term must be +0.0 everywhere"
        );
        assert!(
            oracle.rhs.iter().all(|v| v.to_bits() == 0),
            "{label}: oracle lifting term"
        );
    } else {
        let scale = oracle.rhs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            scale > 0.0,
            "{label}: the coarse field must load the system"
        );
        for (k, (x, y)) in oracle.rhs.iter().zip(&direct.rhs).enumerate() {
            assert!(
                (x - y).abs() <= 1e-12 * scale,
                "{label}: lifting entry {k}: {y:?} vs {x:?} (scale {scale:e})"
            );
        }
    }
}

#[test]
fn a_fully_constrained_layout_has_nothing_to_assemble() {
    let tsv = build_rom(BlockKind::Tsv, [3, 3, 3]);
    let layout = BlockLayout::uniform(1, 1, BlockKind::Tsv);
    let bc = GlobalBc::SubmodelBoundary(Arc::new(coarse_field));
    let err = GlobalStage::new(&tsv).assemble(&layout, &bc).unwrap_err();
    assert!(
        matches!(
            err,
            morestress_core::RomError::Fem(morestress_fem::FemError::FullyConstrained)
        ),
        "{err}"
    );
}
