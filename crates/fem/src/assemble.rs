//! Global assembly of the stiffness matrix and thermal load vector.
//!
//! The sparsity pattern is computed from mesh connectivity first, then
//! element matrices are scatter-added — this avoids the memory blow-up of a
//! triplet list on large array meshes. Structured meshes contain only a
//! handful of distinct element shapes, so element matrices are cached by
//! (edge lengths, material).

use std::collections::HashMap;

use morestress_linalg::CsrMatrix;
use morestress_mesh::HexMesh;

use crate::element::{element_stiffness, element_thermal_load, Hex8};
use crate::{FemError, MaterialSet};

/// The assembled (unconstrained) FEM system.
///
/// `stiffness` is the `3N × 3N` operator; `thermal_load` is the load for a
/// **unit** temperature change (`ΔT = 1`), matching the paper's
/// `A_local α = ΔT b_local` (Eq. 11) where ΔT multiplies the load.
#[derive(Debug, Clone)]
pub struct AssembledSystem {
    /// Global stiffness matrix (no boundary conditions applied).
    pub stiffness: CsrMatrix,
    /// Global thermal load for ΔT = 1.
    pub thermal_load: Vec<f64>,
}

/// Cache key: element edge lengths (bit patterns) + material id.
type ShapeKey = (u64, u64, u64, u16);

/// Assembles stiffness and unit thermal load for a mesh.
///
/// # Errors
///
/// [`FemError::UnknownMaterial`] if the mesh references an unregistered
/// material.
pub fn assemble_system(
    mesh: &HexMesh,
    materials: &MaterialSet,
) -> Result<AssembledSystem, FemError> {
    let ndof = 3 * mesh.num_nodes();

    // DoF-level sparsity pattern from the node adjacency.
    let adjacency = mesh.node_adjacency();
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(ndof);
    for neighbors in &adjacency {
        for comp in 0..3 {
            let _ = comp;
            let mut row = Vec::with_capacity(neighbors.len() * 3);
            for &m in neighbors {
                row.extend_from_slice(&[3 * m, 3 * m + 1, 3 * m + 2]);
            }
            rows.push(row);
        }
    }
    drop(adjacency);
    let mut stiffness = CsrMatrix::from_pattern(ndof, ndof, &rows);
    drop(rows);
    let mut load = vec![0.0; ndof];

    let mut cache: HashMap<ShapeKey, (Box<[f64; 24 * 24]>, [f64; 24])> = HashMap::new();
    for e in 0..mesh.num_elems() {
        let corners = mesh.elem_corners(e);
        let hex = Hex8::from_corners(&corners);
        let mat_id = mesh.material(e);
        let key: ShapeKey = (
            hex.edges[0].to_bits(),
            hex.edges[1].to_bits(),
            hex.edges[2].to_bits(),
            mat_id.0,
        );
        let (ke, fe) = match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let material = materials.get(mat_id)?;
                let ke = Box::new(element_stiffness(&hex, material));
                let fe = element_thermal_load(&hex, material);
                e.insert((ke, fe))
            }
        };

        let conn = &mesh.elems()[e];
        let dofs: [usize; 24] = std::array::from_fn(|i| 3 * conn[i / 3] + i % 3);
        for (r, &gr) in dofs.iter().enumerate() {
            load[gr] += fe[r];
            let ke_row = &ke[r * 24..(r + 1) * 24];
            for (c, &gc) in dofs.iter().enumerate() {
                let v = ke_row[c];
                if v != 0.0 {
                    stiffness.add_at(gr, gc, v);
                }
            }
        }
    }

    Ok(AssembledSystem {
        stiffness,
        thermal_load: load,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_mesh::{Grid1d, HexMesh, MaterialId, MAT_SI};

    fn cube(n: usize) -> HexMesh {
        let g = Grid1d::uniform(0.0, 1.0, n);
        HexMesh::from_grids(g.clone(), g.clone(), g, |_| Some(MAT_SI))
    }

    #[test]
    fn assembled_stiffness_is_symmetric_with_rigid_nullspace() {
        let mesh = cube(2);
        let sys = assemble_system(&mesh, &MaterialSet::tsv_defaults()).unwrap();
        assert!(morestress_oracle::asymmetry(&sys.stiffness) < 1e-6);
        // Rigid translation produces zero force.
        let n = mesh.num_nodes();
        let mut u = vec![0.0; 3 * n];
        for i in 0..n {
            u[3 * i + 2] = 1.0;
        }
        let f = sys.stiffness.spmv(&u);
        let worst = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(worst < 1e-5, "rigid mode force {worst}");
    }

    #[test]
    fn thermal_load_self_equilibrated() {
        let mesh = cube(3);
        let sys = assemble_system(&mesh, &MaterialSet::tsv_defaults()).unwrap();
        for d in 0..3 {
            let total: f64 = (0..mesh.num_nodes())
                .map(|i| sys.thermal_load[3 * i + d])
                .sum();
            assert!(total.abs() < 1e-6);
        }
    }

    #[test]
    fn unknown_material_is_reported() {
        let g = Grid1d::uniform(0.0, 1.0, 1);
        let mesh = HexMesh::from_grids(g.clone(), g.clone(), g, |_| Some(MaterialId(42)));
        let err = assemble_system(&mesh, &MaterialSet::tsv_defaults()).unwrap_err();
        assert!(matches!(err, FemError::UnknownMaterial { .. }));
    }

    #[test]
    fn pattern_covers_exactly_element_couplings() {
        let mesh = cube(2);
        let sys = assemble_system(&mesh, &MaterialSet::tsv_defaults()).unwrap();
        // Corner node (0,0,0) touches 1 element -> couples to 8 nodes * 3 dofs.
        let corner = mesh.lattice_node(0, 0, 0).unwrap();
        let (cols, _) = sys.stiffness.row(3 * corner);
        assert_eq!(cols.len(), 24);
        // Center node touches all 8 elements -> couples to all 27 nodes.
        let center = mesh.lattice_node(1, 1, 1).unwrap();
        let (cols, _) = sys.stiffness.row(3 * center);
        assert_eq!(cols.len(), 81);
    }
}
