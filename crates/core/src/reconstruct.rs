//! Field reconstruction from the reduced solution.
//!
//! After the global solve, the displacement of any unit block is the linear
//! combination of Eq. 15; stress follows from the constitutive law exactly
//! as in the full-FEM reference. The paper evaluates every method on the
//! gridded von Mises stress of the z = h/2 cut plane — this module samples
//! that field for a whole array.
//!
//! # The sampling plan
//!
//! Stress at a fixed local point of a block is linear in the block's reduced
//! DoFs `U` and the thermal load: `σ = D·B·u_e − ΔT·D·ε_th` with
//! `u_e` the 24 nodal displacements of the element holding the point and
//! `u = ΔT·f_T + Σ_i U_i f_i` (Eq. 15). All blocks of one ROM kind share
//! their `g × g` local points (`g` = `samples_per_block`), so every call
//! first builds one **plan per ROM kind present in the layout**, in two
//! factors:
//!
//! * per local point, the element's `D·B` (6 × 24), its thermal stress
//!   `D·ε_th` (6) and the 24 rows of `T` its nodes own — or "void", which
//!   samples as `NaN`;
//! * the **touched-row basis** `T ∈ ℝ^{3·n_touched × (n+1)}`: the rows of
//!   the `n` basis functions (thermal basis as the last column) at the fine
//!   DoFs of only those elements' nodes, gathered into one contiguous
//!   row-major array. `n_touched ≤ min(8g², nodes of the cut plane's slab)`.
//!
//! The plan is applied to **groups** of blocks: each kind's blocks, in
//! block order, are cut into groups of up to eight (`GROUP`, a constant; a
//! kind with one block is a group of one). A group interleaves its blocks'
//! `[U; ΔT]` into rows of eight (a short group pads with zeros and drops
//! the padding) and streams `T` through them once: one 8-wide block dot
//! ([`dot_panel`](morestress_linalg::dot_panel)) per row of `T` gives the
//! touched displacements `u_t` of every block of the group. Column `b` of
//! that dot is bit for bit `dot(row, [U_b; ΔT])`, so a block samples to the
//! same bits in any group. The point stage then loops **points outside
//! blocks**: each non-void point reads its `PointMap` once per group and,
//! one row of `D·B` at a time, accumulates the 6 × 24 product for all eight
//! lanes over its 24 rows of `u_t` (each already an `[f64; 8]`), then takes
//! the von Mises formula per block. Lane `b` is block `b`'s own chain —
//! from `-0.0`, one rounded product and one rounded add per `k`, ascending
//! — which is what a per-block `.sum()` computes, so the loop order moves no
//! bit. Groups are the tasks on the shared [`WorkPool`]; each returns its
//! blocks' tiles, which are stitched in block order, so the field is
//! bitwise identical for every pool size.
//!
//! **Cost model** (`n` basis functions, `blocks` unit blocks): building a
//! plan is ≈ `3·n_touched·n` copies plus `g²` element set-ups (locate,
//! `Hex8`, `B`, `D·B`); applying it is ≈ `blocks·(3·n_touched·n + 144·g²)`
//! flops. Building is therefore ≈ `1/blocks` of applying, which is why the
//! plan is **not cached**: it lives for one call, holds at most the slab's
//! basis rows (≈ 3 MB on the `medium` mesh at `n = 168`) plus 1.4 kB per
//! point, and adds no state to [`ReducedOrderModel`].
//!
//! Grouping changes no flop count; it changes what bounds the `T` product.
//! One block's row dot is a single chain of four accumulators over a
//! 169-entry row, so a per-block sweep waits on fused multiply-add
//! *latency*, not on bandwidth: `T` (≈ 0.5 MB per kind at `g = 4`) sits in
//! L2, yet the per-block sweep ran at ≈ 2 GFMA/s. The 8-wide dot keeps 32
//! independent chains in flight and loads each entry of `T` once per group
//! instead of once per block (24×24 blocks at `g = 4`: 17.3–17.6 →
//! 5.6–5.7 ms).
//!
//! The point stage is ordered points-outside-blocks for the same reason one
//! level down. Block-major, every block of a group re-read all `g²`
//! `PointMap`s (1.4 kB each; 14 MB per kind at `g = 100`, far beyond L2)
//! and ran one accumulator chain at a time; point-major reads each map once
//! per group, and one `D·B` row keeps eight independent lane chains in
//! registers — all six rows at once would spill on the baseline x86-64
//! target. `sample_midplane` wall time, block-major → point-major: minimum
//! and median of 60 calls, in each of two processes per side (`medium`
//! mesh, [4,4,4], one worker, 2-vCPU x86-64 guest running 1.4–1.5× slower
//! than the benchmark's reference speed; the field bits are identical):
//!
//! | layout                                      | block-major min / median | point-major min / median |
//! |---------------------------------------------|--------------------------|--------------------------|
//! | 24×24 blocks (400 TSV + 176 dummy), `g = 4` | 7.9–8.3 / 9.0 ms         | 5.2–6.9 / 7.6–8.2 ms     |
//! | 16×16 TSV blocks, `g = 4`                   | 3.7 / 4.3 ms             | 3.3–3.4 / 3.6–3.7 ms     |
//! | 4×4 TSV blocks, `g = 20`                    | 4.0–4.1 / 4.2–4.6 ms     | 2.1–3.2 / 3.1–3.5 ms     |
//! | 4×4 TSV blocks, `g = 100`                   | 65–66 / 72–73 ms         | 16–23 / 20–24 ms         |
//!
//! At `g = 4` the `T` dot is the larger share (≈ 5 ms of the 24×24 call,
//! against ≈ 0.6 ms for the point stage, from ≈ 2.2 ms block-major). At the
//! upstream tool's `g = 100` the point stage is nearly all of it: on the
//! paper's 54×54 array one call fell from 8.1–9.2 s to 2.5–2.8 s, the point
//! stage from 7.6–8.8 s to 2.1 s.
//!
//! The two factors are **not collapsed** into the dense map
//! `S = D·B·T ∈ ℝ^{6g² × n}`: `S` costs `24·6·n` flops per point to form
//! and `6g²·n` per block to apply, so it loses wherever blocks are few or
//! points share nodes (on the `medium` mesh from `g ≈ 19`: a prototype on
//! 4×4 blocks at `g = 20` took 11.6 ms against 5.3 ms factored, both
//! measured against the per-block sampler, before grouping) and would need
//! 81 MB per kind at the upstream tool's `g = 100`; the factored plan never
//! does more flops than a per-block slab reconstruction.
//!
//! The local points are the samples of block `(0, 0)`; every block reuses
//! them, so a point that lies exactly on a mesh line (the block centre, hit
//! by every odd `g`) resolves to the same element in every block.

use morestress_fem::{Hex8, PlaneGrid, ScalarField2d, StressSample};
use morestress_linalg::{dot_panel, WorkPool};
use morestress_mesh::{BlockKind, BlockLayout};

use crate::{GlobalSolution, ReducedOrderModel, RomError};

/// Same-kind blocks sampled per pass over the touched-row basis: the width
/// of the block dot every row of `T` is streamed through.
const GROUP: usize = 8;

/// What one non-void local sample point contributes to a block's tile.
struct PointMap {
    /// `D·B` of the containing element at the point.
    db: [[f64; 24]; 6],
    /// `D·ε_th` of the element's material (stress of a unit ΔT).
    thermal: [f64; 6],
    /// The rows of [`SamplingPlan::touched`] holding the element's 24 DoFs.
    rows: [usize; 24],
}

/// The per-call linear sampling plan of one ROM kind (see the module docs).
struct SamplingPlan {
    /// The `g × g` local points, row-major over `(jj, ii)`; `None` is a void
    /// cell.
    points: Vec<Option<PointMap>>,
    /// The touched-row basis `T`, row-major with `cols` entries per row.
    touched: Vec<f64>,
    /// `n_basis + 1`: the thermal basis is the last column.
    cols: usize,
}

impl SamplingPlan {
    /// Locates the `g × g` samples of block `(0, 0)` on `grid` in the ROM's
    /// mesh and gathers the basis rows their elements touch.
    fn build(rom: &ReducedOrderModel, grid: &PlaneGrid, g: usize) -> Result<Self, RomError> {
        let mesh = rom.mesh();
        const UNTOUCHED: usize = usize::MAX;
        let mut slot_of_node = vec![UNTOUCHED; mesh.num_nodes()];
        let mut touched_nodes = Vec::new();
        let mut points = Vec::with_capacity(g * g);
        for jj in 0..g {
            for ii in 0..g {
                let Some((e, xi)) = mesh.locate(grid.point(ii, jj)) else {
                    points.push(None);
                    continue;
                };
                let material = rom.materials().get(mesh.material(e))?;
                let b = Hex8::from_corners(&mesh.elem_corners(e)).b_matrix(xi);
                let d = material.d_matrix();
                let eps_th = material.thermal_strain_unit();
                let mut db = [[0.0; 24]; 6];
                let mut thermal = [0.0; 6];
                for i in 0..6 {
                    for j in 0..6 {
                        thermal[i] += d[i][j] * eps_th[j];
                        for k in 0..24 {
                            db[i][k] += d[i][j] * b[j][k];
                        }
                    }
                }
                let mut rows = [0; 24];
                for (a, &node) in mesh.elems()[e].iter().enumerate() {
                    if slot_of_node[node] == UNTOUCHED {
                        slot_of_node[node] = touched_nodes.len();
                        touched_nodes.push(node);
                    }
                    for c in 0..3 {
                        rows[3 * a + c] = 3 * slot_of_node[node] + c;
                    }
                }
                points.push(Some(PointMap { db, thermal, rows }));
            }
        }
        let cols = rom.num_dofs() + 1;
        let mut touched = Vec::with_capacity(3 * touched_nodes.len() * cols);
        for &node in &touched_nodes {
            for dof in 3 * node..3 * node + 3 {
                touched.extend(rom.basis.iter().map(|f| f[dof]));
                touched.push(rom.basis_thermal[dof]);
            }
        }
        Ok(Self {
            points,
            touched,
            cols,
        })
    }

    /// The von Mises tiles of a group of `blocks ≤ GROUP` blocks, one
    /// after the other in group order. Row `r` of `coeffs` holds entry `r`
    /// of `[U_b; ΔT]` for every block `b` of the group side by side (the
    /// lanes past `blocks` are padding); `u` is the reused buffer of the
    /// touched displacements, interleaved the same way.
    fn sample_group(
        &self,
        coeffs: &[[f64; GROUP]],
        blocks: usize,
        delta_t: f64,
        u: &mut Vec<[f64; GROUP]>,
    ) -> Vec<f64> {
        u.clear();
        u.extend(
            self.touched
                .chunks_exact(self.cols)
                .map(|row| dot_panel(row, coeffs)),
        );
        let n = self.points.len();
        let mut tiles = vec![f64::NAN; blocks * n];
        for (p, point) in self.points.iter().enumerate() {
            let Some(point) = point else {
                continue;
            };
            // `D·B·u_e` of every lane at once, one row of `D·B` at a time
            // over the point's 24 rows of `u` (L1-resident after the first
            // row; one row keeps eight accumulators live, where all six
            // would spill). Lane `b` is block `b`'s own chain — from `-0.0`,
            // a rounded product then a rounded add per `k`, ascending —
            // which is exactly the per-block `.sum()`.
            let dbu: [[f64; GROUP]; 6] = std::array::from_fn(|i| {
                let mut acc = [-0.0; GROUP];
                for (&d, &row) in point.db[i].iter().zip(&point.rows) {
                    for (a, &x) in acc.iter_mut().zip(&u[row]) {
                        *a += d * x;
                    }
                }
                acc
            });
            for (b, tile) in tiles.chunks_exact_mut(n).enumerate() {
                let sigma = std::array::from_fn(|i| dbu[i][b] - delta_t * point.thermal[i]);
                tile[p] = StressSample::from_tensor(sigma).von_mises;
            }
        }
        tiles
    }
}

/// Samples the von Mises stress of a solved array on the mid-height cut
/// plane, with `samples_per_block × samples_per_block` points per unit block
/// (the paper uses 100×100), parallel over groups of same-kind blocks on
/// the current [`WorkPool`].
///
/// # Errors
///
/// [`RomError::Mismatch`] if the layout needs a dummy ROM that is missing,
/// or stress recovery fails.
///
/// # Panics
///
/// Panics if `samples_per_block == 0`.
pub fn sample_array_von_mises(
    rom_tsv: &ReducedOrderModel,
    rom_dummy: Option<&ReducedOrderModel>,
    layout: &BlockLayout,
    solution: &GlobalSolution,
    delta_t: f64,
    samples_per_block: usize,
) -> Result<ScalarField2d, RomError> {
    assert!(samples_per_block > 0, "need at least one sample per block");
    if layout.count(BlockKind::Dummy) > 0 && rom_dummy.is_none() {
        return Err(RomError::Mismatch(
            "layout contains dummy blocks but no dummy ROM was supplied".into(),
        ));
    }
    let g = samples_per_block;
    let geom = rom_tsv.geometry();
    let p = geom.pitch;
    let grid = PlaneGrid::new(
        [0.0, 0.0],
        [p * layout.nx() as f64, p * layout.ny() as f64],
        0.5 * geom.height,
        g * layout.nx(),
        g * layout.ny(),
    );

    // Each kind present gets its plan, and its blocks, in block order, are
    // cut into groups of up to GROUP: one task per group. Each task returns
    // its blocks' g×g tiles, stitched in place afterwards, so the result is
    // bitwise independent of how the pool schedules groups.
    let nx = layout.nx();
    let mut plans = Vec::new();
    for (kind, rom) in [
        (BlockKind::Tsv, Some(rom_tsv)),
        (BlockKind::Dummy, rom_dummy),
    ] {
        let members: Vec<usize> = (0..nx * layout.ny())
            .filter(|&block| layout.kind(block % nx, block / nx) == kind)
            .collect();
        if let (Some(rom), false) = (rom, members.is_empty()) {
            plans.push((SamplingPlan::build(rom, &grid, g)?, members));
        }
    }
    let groups: Vec<(&SamplingPlan, &[usize])> = plans
        .iter()
        .flat_map(|(plan, members)| members.chunks(GROUP).map(move |group| (plan, group)))
        .collect();

    let pool = WorkPool::current();
    let (tiles, _) = pool.scope_collect_with(
        pool.cap(),
        groups.len(),
        || (Vec::new(), Vec::new(), Vec::new()),
        |(dofs, coeffs, u), group| {
            let (plan, members) = groups[group];
            coeffs.clear();
            coeffs.resize(plan.cols, [0.0; GROUP]);
            for (b, &block) in members.iter().enumerate() {
                solution.element_dofs_into(block % nx, block / nx, dofs);
                dofs.push(delta_t);
                debug_assert_eq!(dofs.len(), plan.cols, "one coefficient per basis column");
                for (row, &v) in coeffs.iter_mut().zip(dofs.iter()) {
                    row[b] = v;
                }
            }
            plan.sample_group(coeffs, members.len(), delta_t, u)
        },
    );

    let width = grid.samples[0];
    let mut values = vec![f64::NAN; grid.num_points()];
    for ((_, members), tiles) in groups.iter().zip(&tiles) {
        for (&block, tile) in members.iter().zip(tiles.chunks_exact(g * g)) {
            let (bi, bj) = (block % nx, block / nx);
            for (jj, row) in tile.chunks_exact(g).enumerate() {
                let start = (bj * g + jj) * width + bi * g;
                values[start..start + g].copy_from_slice(row);
            }
        }
    }
    Ok(ScalarField2d { grid, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalBc, GlobalStage, InterpolationGrid, LocalStage, LocalStageOptions};
    use morestress_fem::{FemError, MaterialSet};
    use morestress_mesh::{BlockResolution, HexMesh, TsvGeometry, MAT_SI};

    fn coarse_rom(kind: BlockKind) -> ReducedOrderModel {
        LocalStage::new(
            &TsvGeometry::paper_defaults(15.0),
            &BlockResolution::coarse(),
            InterpolationGrid::new([3, 3, 3]),
            &MaterialSet::tsv_defaults(),
            kind,
        )
        .build(&LocalStageOptions::default())
        .unwrap()
    }

    #[test]
    fn void_cells_sample_as_nan_and_leave_their_neighbours_alone() {
        let rom = coarse_rom(BlockKind::Dummy);
        let layout = BlockLayout::uniform(2, 1, BlockKind::Tsv);
        let sol = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
            .unwrap();
        let g = 4;
        let solid = sample_array_von_mises(&rom, None, &layout, &sol, -250.0, g).unwrap();
        // The same block with the cell under local sample (1, 2) left void.
        // One missing cell orphans no node but shifts the first-touch node
        // numbering, so the basis rows move with their nodes.
        let hole = solid.grid.point(1, 2);
        let (xs, ys, zs) = rom.mesh().grids();
        let cell_of = |p: [f64; 3]| [xs.locate(p[0]), ys.locate(p[1]), zs.locate(p[2])];
        let mut holed = rom.clone();
        holed.mesh = HexMesh::from_grids(xs.clone(), ys.clone(), zs.clone(), |centroid| {
            (cell_of(centroid) != cell_of(hole)).then_some(MAT_SI)
        });
        assert_eq!(holed.mesh.num_nodes(), rom.mesh().num_nodes());
        let renumber = |f: &Vec<f64>| -> Vec<f64> {
            (0..holed.mesh.num_nodes())
                .flat_map(|node| {
                    let [i, j, k] = holed.mesh.node_lattice(node);
                    let old = rom.mesh().lattice_node(i, j, k).expect("full lattice");
                    f[3 * old..3 * old + 3].iter().copied()
                })
                .collect()
        };
        holed.basis = rom.basis.iter().map(renumber).collect();
        holed.basis_thermal = renumber(&rom.basis_thermal);
        let field = sample_array_von_mises(&holed, None, &layout, &sol, -250.0, g).unwrap();
        for (at, (a, b)) in field.values.iter().zip(&solid.values).enumerate() {
            let (i, j) = (at % (2 * g), at / (2 * g));
            if (i % g, j) == (1, 2) {
                assert!(a.is_nan(), "sample ({i},{j}) lies in the void cell");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "sample ({i},{j})");
            }
        }
    }

    #[test]
    fn unregistered_material_is_a_typed_error() {
        let mut rom = coarse_rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(1, 1, BlockKind::Tsv);
        let sol = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
            .unwrap();
        rom.materials = MaterialSet::new();
        match sample_array_von_mises(&rom, None, &layout, &sol, -250.0, 3) {
            Err(RomError::Fem(FemError::UnknownMaterial { .. })) => {}
            other => panic!("expected UnknownMaterial, got {other:?}"),
        }
    }

    #[test]
    fn sampled_field_covers_all_blocks_and_is_positive_near_vias() {
        let rom = coarse_rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
        let sol = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
            .unwrap();
        let field = sample_array_von_mises(&rom, None, &layout, &sol, -250.0, 8).unwrap();
        assert_eq!(field.values.len(), 16 * 16);
        assert!(field.values.iter().all(|v| v.is_finite()));
        assert!(field.max() > 50.0, "peak stress {}", field.max());
        // Four-fold symmetry of the 2×2 array: value at (i,j) ≈ value at
        // mirrored (15-i, j).
        let n = 16;
        let v = |i: usize, j: usize| field.values[j * n + i];
        for j in 0..n {
            for i in 0..n {
                let a = v(i, j);
                let b = v(n - 1 - i, j);
                assert!(
                    (a - b).abs() < 2e-2 * field.max(),
                    "mirror asymmetry at ({i},{j}): {a} vs {b}"
                );
            }
        }
    }
}
