//! The mirror group of a block array, found by structure.
//!
//! A square unit block is symmetric under the dihedral group D4 of its
//! lateral axes, and so is a ROM built on it — to round-off. An array of
//! such blocks keeps the subgroup that maps its block map onto itself, and
//! its reduced operator `A_ff` commutes with that subgroup's signed DoF
//! permutations, under [`GlobalBc::ClampedTopBottom`] whose data (zero)
//! every mirror fixes. The global stage folds the direct factor by it
//! ([`SymmetryFold`](morestress_linalg::SymmetryFold)).
//!
//! Nothing here hashes: a generator is admitted by exact comparison of the
//! block map and a toleranced check of each ROM's element matrices.
//!
//! [`GlobalBc::ClampedTopBottom`]: crate::GlobalBc::ClampedTopBottom

use crate::{InterpolationGrid, ReducedOrderModel};

/// Relative tolerance of a ROM's invariance under a mirror: its element
/// stiffness within this fraction of `max|K_e|`, its element load within
/// this fraction of `max|b_e|`.
const ROM_MIRROR_TOL: f64 = 1e-12;

/// One element of D4: a signed permutation `M` of the two lateral axes. It
/// maps a point `p` of a grid to `c + M (p − c)`, `c` the grid's centre,
/// and a displacement `u` to `M u` (`u_z` is fixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mirror([[i8; 2]; 2]);

impl Mirror {
    const IDENTITY: Mirror = Mirror([[1, 0], [0, 1]]);

    /// The x mirror `a ↦ amax − a`, `u_x ↦ −u_x`.
    pub(crate) const X: Mirror = Mirror([[-1, 0], [0, 1]]);

    /// The y mirror `b ↦ bmax − b`, `u_y ↦ −u_y`.
    pub(crate) const Y: Mirror = Mirror([[1, 0], [0, -1]]);

    /// The diagonal `a ↔ b`, `u_x ↔ u_y` (square grids only).
    const DIAGONAL: Mirror = Mirror([[0, 1], [1, 0]]);

    /// The candidate generators, in the bit order of
    /// [`ReducedOrderModel::mirror_invariance`].
    const GENERATORS: [Mirror; 3] = [Mirror::X, Mirror::Y, Mirror::DIAGONAL];

    /// `self` after `first`: the matrix product `self · first`.
    fn after(self, first: Mirror) -> Mirror {
        let (m, f) = (self.0, first.0);
        let entry = |r: usize, c: usize| m[r][0] * f[0][c] + m[r][1] * f[1][c];
        Mirror([[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]])
    }

    fn swaps(self) -> bool {
        self.0[0][0] == 0
    }

    /// The image of lateral point `p` of a grid whose largest coordinates
    /// are `max` (equal when `self` swaps the axes).
    pub(crate) fn point(self, p: [usize; 2], max: [usize; 2]) -> [usize; 2] {
        let d = [0, 1].map(|k| 2 * p[k] as i64 - max[k] as i64);
        [0, 1].map(|r| {
            let image =
                max[r] as i64 + i64::from(self.0[r][0]) * d[0] + i64::from(self.0[r][1]) * d[1];
            (image / 2) as usize
        })
    }

    /// The image of displacement component `c`: its component, and whether
    /// it is negated.
    pub(crate) fn component(self, c: usize) -> (usize, bool) {
        if c == 2 {
            return (2, false);
        }
        let r = if self.0[0][c] != 0 { 0 } else { 1 };
        (r, self.0[r][c] < 0)
    }
}

/// The bitmask of [`Mirror::GENERATORS`] `rom`'s element stiffness and
/// element load are invariant under, by the block-local signed
/// permutation of its surface DoFs (the diagonal only on a grid with as
/// many nodes along x as along y). See
/// [`ReducedOrderModel::mirror_invariance`], which memoises it.
pub(crate) fn rom_mirrors(rom: &ReducedOrderModel) -> u8 {
    let grid: InterpolationGrid = rom.interpolation();
    let [nx, ny, nz] = grid.counts();
    let nodes = grid.surface_nodes();
    let mut index = vec![usize::MAX; nx * ny * nz];
    for (ln, &[i, j, k]) in nodes.iter().enumerate() {
        index[(k * ny + j) * nx + i] = ln;
    }
    let k_e = rom.element_stiffness();
    let b_e = rom.element_load();
    let n = b_e.len();
    let k_tol = ROM_MIRROR_TOL * k_e.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let b_tol = ROM_MIRROR_TOL * b_e.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut mask = 0;
    for (bit, g) in Mirror::GENERATORS.into_iter().enumerate() {
        if g.swaps() && nx != ny {
            continue;
        }
        // DoF `r` maps to `image[r].0`, negated when `image[r].1`.
        let image: Vec<(usize, bool)> = nodes
            .iter()
            .flat_map(|&[i, j, k]| {
                let [i2, j2] = g.point([i, j], [nx - 1, ny - 1]);
                let ln = index[(k * ny + j2) * nx + i2];
                (0..3).map(move |c| {
                    let (c2, negated) = g.component(c);
                    (3 * ln + c2, negated)
                })
            })
            .collect();
        let signed = |v: f64, negated: bool| if negated { -v } else { v };
        let load_fixed = (0..n).all(|r| {
            let (r2, neg) = image[r];
            (signed(b_e[r], neg) - b_e[r2]).abs() <= b_tol
        });
        let stiffness_fixed = load_fixed
            && (0..n).all(|r| {
                let (r2, neg_r) = image[r];
                let (row, row2) = (k_e.row(r), k_e.row(r2));
                row.iter()
                    .zip(&image)
                    .all(|(&v, &(c2, neg_c))| (signed(v, neg_r != neg_c) - row2[c2]).abs() <= k_tol)
            });
        if stiffness_fixed {
            mask |= 1 << bit;
        }
    }
    mask
}

/// The mirror group of an `shape[0] × shape[1]` array whose block `(bi,
/// bj)` is `roms[bj · shape[0] + bi]`, at interpolation counts `counts`:
/// the group generated by every candidate that maps the block map onto
/// itself (ROM by identity — the words the factor cache keys on) and that
/// every ROM of the array is invariant under. The diagonal is a candidate
/// only on a square array of square-gridded blocks. Returns the group's
/// elements, the identity first; the caller decides whether the boundary
/// conditions admit any of them.
pub(crate) fn mirror_group(
    shape: [usize; 2],
    counts: [usize; 3],
    roms: &[&ReducedOrderModel],
) -> Vec<Mirror> {
    let [nbx, nby] = shape;
    let admitted = |bit: usize, g: Mirror| {
        if g.swaps() && (nbx != nby || counts[0] != counts[1]) {
            return false;
        }
        let maps_onto_itself = (0..nby).all(|bj| {
            (0..nbx).all(|bi| {
                let [bi2, bj2] = g.point([bi, bj], [nbx - 1, nby - 1]);
                roms[bj * nbx + bi].id == roms[bj2 * nbx + bi2].id
            })
        });
        maps_onto_itself
            && roms
                .iter()
                .all(|rom| rom.mirror_invariance() & (1 << bit) != 0)
    };
    let generators: Vec<Mirror> = Mirror::GENERATORS
        .into_iter()
        .enumerate()
        .filter(|&(bit, g)| admitted(bit, g))
        .map(|(_, g)| g)
        .collect();
    let mut group = vec![Mirror::IDENTITY];
    let mut next = 0;
    while next < group.len() {
        for &g in &generators {
            let product = g.after(group[next]);
            if !group.contains(&product) {
                group.push(product);
            }
        }
        next += 1;
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_act_on_points_and_components() {
        let max = [6, 6];
        assert_eq!(Mirror::X.point([1, 2], max), [5, 2]);
        assert_eq!(Mirror::Y.point([1, 2], max), [1, 4]);
        assert_eq!(Mirror::DIAGONAL.point([1, 2], max), [2, 1]);
        assert_eq!(Mirror::X.component(0), (0, true));
        assert_eq!(Mirror::X.component(1), (1, false));
        assert_eq!(Mirror::DIAGONAL.component(0), (1, false));
        assert_eq!(Mirror::DIAGONAL.component(2), (2, false));
        // x after the diagonal: (a, b) ↦ (b, a) ↦ (6 − b, a), a rotation.
        let r = Mirror::X.after(Mirror::DIAGONAL);
        assert_eq!(r.point([1, 2], max), [4, 1]);
        assert_eq!(r.component(0), (1, false));
        assert_eq!(r.component(1), (0, true));
    }
}
