//! The coarse chiplet model for sub-modeling (scenario 2, §4.4/§5.2 of the
//! paper).
//!
//! The paper embeds a 15×15 TSV array at five locations in a chiplet — a
//! composite package substrate carrying a silicon interposer and a silicon
//! die — and drives the array simulation with displacement boundary
//! conditions extracted from a *coarse* full-package solution (which the
//! authors obtain from ANSYS). This crate builds that coarse model with our
//! own FEM: a three-layer stack meshed coarsely, solved for thermal warpage,
//! with FE interpolation of displacement and stress at arbitrary points —
//! everything the sub-modeling pipeline needs.
//!
//! The CTE mismatch between the organic laminate (≈18 ppm/°C) and silicon
//! (≈2.3 ppm/°C) produces the global warpage and the sharp stress gradients
//! near the die and interposer corners that make locations 3 and 5 hard for
//! the linear-superposition baseline (Table 2 of the paper).

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are the FEM idiom

use std::sync::Arc;
use std::time::{Duration, Instant};

use morestress_fem::{
    solve_thermal_stress, stress_at, DirichletBcs, FemError, LinearSolver, MaterialSet,
    StressSample,
};
use morestress_mesh::{Grid1d, HexMesh, MAT_ORGANIC, MAT_SI};

/// Geometry of the three-layer chiplet stack (all lengths in µm).
///
/// The substrate spans `[0, substrate_size]²`; the interposer and die are
/// centered on it. Layer thicknesses stack bottom-up: substrate, interposer,
/// die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletGeometry {
    /// Lateral size of the (square) package substrate.
    pub substrate_size: f64,
    /// Substrate thickness.
    pub substrate_thickness: f64,
    /// Lateral size of the (square, centered) silicon interposer.
    pub interposer_size: f64,
    /// Interposer thickness — equal to the TSV height, so the modeled TSV
    /// array spans it.
    pub interposer_thickness: f64,
    /// Lateral size of the (square, centered) silicon die.
    pub die_size: f64,
    /// Die thickness.
    pub die_thickness: f64,
}

impl ChipletGeometry {
    /// A bench-scale chiplet consistent with the paper's Fig. 5(b) and a
    /// 50 µm TSV height: 2400 µm organic substrate, 1600 µm Si interposer
    /// (50 µm thick), 800 µm Si die.
    pub fn bench_defaults() -> Self {
        Self {
            substrate_size: 2400.0,
            substrate_thickness: 200.0,
            interposer_size: 1600.0,
            interposer_thickness: 50.0,
            die_size: 800.0,
            die_thickness: 150.0,
        }
    }

    /// z-range `[lo, hi]` of the interposer layer.
    pub fn interposer_z(&self) -> [f64; 2] {
        [
            self.substrate_thickness,
            self.substrate_thickness + self.interposer_thickness,
        ]
    }

    /// Validates the stacking constraints.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.substrate_size <= 0.0
            || self.substrate_thickness <= 0.0
            || self.interposer_size <= 0.0
            || self.interposer_thickness <= 0.0
            || self.die_size <= 0.0
            || self.die_thickness <= 0.0
        {
            return Err("all chiplet dimensions must be positive".into());
        }
        if self.interposer_size > self.substrate_size {
            return Err("interposer must fit on the substrate".into());
        }
        if self.die_size > self.interposer_size {
            return Err("die must fit on the interposer".into());
        }
        Ok(())
    }
}

/// Mesh density of the coarse model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipletResolution {
    /// Lateral cells across the substrate.
    pub lateral_cells: usize,
    /// Cells through the substrate thickness.
    pub substrate_layers: usize,
    /// Cells through the interposer thickness.
    pub interposer_layers: usize,
    /// Cells through the die thickness.
    pub die_layers: usize,
}

impl ChipletResolution {
    /// Coarse default: a few thousand elements, solved in well under a
    /// second — the point of sub-modeling is that this solve is cheap.
    pub fn coarse() -> Self {
        Self {
            lateral_cells: 24,
            substrate_layers: 2,
            interposer_layers: 2,
            die_layers: 2,
        }
    }
}

/// The solved coarse chiplet model: mesh + displacement field + evaluators.
#[derive(Debug)]
pub struct ChipletModel {
    geometry: ChipletGeometry,
    materials: MaterialSet,
    mesh: Arc<HexMesh>,
    displacement: Vec<f64>,
    delta_t: f64,
    /// Wall time of the coarse solve.
    pub solve_time: Duration,
}

impl ChipletModel {
    /// Meshes and solves the coarse chiplet under thermal load `delta_t`.
    ///
    /// Rigid-body motion is removed by a statically determinate 3-2-1
    /// constraint set on the substrate bottom, so the package warps freely —
    /// matching the free-warpage setups of the packaging literature.
    ///
    /// # Errors
    ///
    /// Propagates FEM failures.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn solve(
        geometry: &ChipletGeometry,
        resolution: &ChipletResolution,
        materials: &MaterialSet,
        delta_t: f64,
    ) -> Result<Self, FemError> {
        geometry.validate().expect("invalid chiplet geometry");
        let start = Instant::now();
        let g = *geometry;

        // Lateral grid: uniform, but snapped so that the interposer and die
        // edges are grid planes (conforming layer footprints).
        let mut planes: Vec<f64> = (0..=resolution.lateral_cells)
            .map(|i| g.substrate_size * i as f64 / resolution.lateral_cells as f64)
            .collect();
        let inter_lo = 0.5 * (g.substrate_size - g.interposer_size);
        let die_lo = 0.5 * (g.substrate_size - g.die_size);
        for edge in [
            inter_lo,
            g.substrate_size - inter_lo,
            die_lo,
            g.substrate_size - die_lo,
        ] {
            // Snap the nearest plane to the edge (keeps counts stable).
            let nearest = planes
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (a.1 - edge)
                        .abs()
                        .partial_cmp(&(b.1 - edge).abs())
                        .expect("finite")
                })
                .map(|(i, _)| i)
                .expect("non-empty grid");
            if nearest != 0 && nearest != planes.len() - 1 {
                planes[nearest] = edge;
            }
        }
        planes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        planes.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let lateral = Grid1d::from_points(planes);

        // z grid: layer interfaces are exact grid planes.
        let mut z_points = Vec::new();
        let mut push_layer = |z0: f64, z1: f64, n: usize| {
            for i in 0..=n {
                let z = z0 + (z1 - z0) * i as f64 / n as f64;
                if z_points
                    .last()
                    .is_none_or(|&last: &f64| (z - last).abs() > 1e-9)
                {
                    z_points.push(z);
                }
            }
        };
        let z1 = g.substrate_thickness;
        let z2 = z1 + g.interposer_thickness;
        let z3 = z2 + g.die_thickness;
        push_layer(0.0, z1, resolution.substrate_layers);
        push_layer(z1, z2, resolution.interposer_layers);
        push_layer(z2, z3, resolution.die_layers);
        let zgrid = Grid1d::from_points(z_points);

        let center = 0.5 * g.substrate_size;
        let mesh = HexMesh::from_grids(lateral.clone(), lateral, zgrid, move |c| {
            let [x, y, z] = c;
            let half =
                |size: f64| (x - center).abs() < 0.5 * size && (y - center).abs() < 0.5 * size;
            if z < z1 {
                Some(MAT_ORGANIC)
            } else if z < z2 {
                half(g.interposer_size).then_some(MAT_SI)
            } else {
                half(g.die_size).then_some(MAT_SI)
            }
        });

        // 3-2-1 constraints on three substrate-bottom corners.
        let (npx, npy, _) = mesh.lattice_dims();
        let corner = |i: usize, j: usize| {
            mesh.lattice_node(i, j, 0)
                .expect("substrate bottom corners exist")
        };
        let mut bcs = DirichletBcs::new();
        let a = corner(0, 0);
        let b = corner(npx - 1, 0);
        let c = corner(0, npy - 1);
        bcs.set_node(a, [0.0; 3]); // pin
        bcs.set_dof(3 * b + 1, 0.0); // u_y = 0
        bcs.set_dof(3 * b + 2, 0.0); // u_z = 0
        bcs.set_dof(3 * c + 2, 0.0); // u_z = 0

        let solution = solve_thermal_stress(&mesh, materials, delta_t, &bcs, LinearSolver::Auto)?;
        Ok(Self {
            geometry: g,
            materials: materials.clone(),
            mesh: Arc::new(mesh),
            displacement: solution.displacement,
            delta_t,
            solve_time: start.elapsed(),
        })
    }

    /// The chiplet geometry.
    pub fn geometry(&self) -> &ChipletGeometry {
        &self.geometry
    }

    /// The thermal load the model was solved under.
    pub fn delta_t(&self) -> f64 {
        self.delta_t
    }

    /// The coarse mesh.
    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// FE-interpolated displacement at a point (clamped to the mesh bounding
    /// box; points in void cells return the nearest live value by falling
    /// back to zero — callers stay inside the solid).
    pub fn displacement_at(&self, point: [f64; 3]) -> [f64; 3] {
        let Some((e, xi)) = self.mesh.locate(point) else {
            return [0.0; 3];
        };
        let corners = self.mesh.elem_corners(e);
        let hex = morestress_fem::Hex8::from_corners(&corners);
        let shape = hex.shape(xi);
        let conn = &self.mesh.elems()[e];
        let mut u = [0.0; 3];
        for (a, &node) in conn.iter().enumerate() {
            for c in 0..3 {
                u[c] += shape[a] * self.displacement[3 * node + c];
            }
        }
        u
    }

    /// Stress at a point of the coarse model (`None` in voids).
    ///
    /// # Errors
    ///
    /// Propagates unknown-material errors.
    pub fn stress_at(&self, point: [f64; 3]) -> Result<Option<StressSample>, FemError> {
        stress_at(
            &self.mesh,
            &self.materials,
            &self.displacement,
            self.delta_t,
            point,
        )
    }

    /// Warpage: the z-displacement difference between the substrate center
    /// and a substrate corner on the bottom face.
    pub fn warpage(&self) -> f64 {
        let s = self.geometry.substrate_size;
        let uc = self.displacement_at([0.5 * s, 0.5 * s, 0.0]);
        let ue = self.displacement_at([1.0, 1.0, 0.0]);
        uc[2] - ue[2]
    }
}

/// A sub-model region: the box a TSV array (plus dummy padding) occupies
/// inside the interposer, with the coarse-displacement boundary closure the
/// ROM's global stage needs.
#[derive(Debug, Clone)]
pub struct Submodel {
    /// Origin of the array box in chiplet coordinates (lower corner).
    pub origin: [f64; 3],
    /// Lateral extent of the array box.
    pub size: f64,
}

impl Submodel {
    /// Places an array box of lateral size `size` at `origin_xy` in the
    /// interposer of `model` (z spans the interposer thickness).
    ///
    /// # Panics
    ///
    /// Panics if the box does not fit inside the interposer footprint.
    pub fn new(model: &ChipletModel, origin_xy: [f64; 2], size: f64) -> Self {
        let g = model.geometry();
        let lo = 0.5 * (g.substrate_size - g.interposer_size);
        let hi = lo + g.interposer_size;
        assert!(
            origin_xy[0] >= lo - 1e-9
                && origin_xy[1] >= lo - 1e-9
                && origin_xy[0] + size <= hi + 1e-9
                && origin_xy[1] + size <= hi + 1e-9,
            "sub-model box [{:?} + {size}] exceeds the interposer footprint [{lo}, {hi}]",
            origin_xy
        );
        Self {
            origin: [origin_xy[0], origin_xy[1], g.interposer_z()[0]],
            size,
        }
    }

    /// The boundary-displacement closure for
    /// `GlobalBc::SubmodelBoundary`: maps a point in the array's local
    /// frame to the coarse displacement at the corresponding chiplet point.
    ///
    /// `GlobalBc::SubmodelBoundary` lives in `morestress-core`; the closure
    /// type matches it without this crate depending on the core crate.
    pub fn boundary_displacement(
        &self,
        model: &Arc<ChipletModel>,
    ) -> Arc<dyn Fn([f64; 3]) -> [f64; 3] + Send + Sync> {
        let origin = self.origin;
        let model = Arc::clone(model);
        Arc::new(move |local| {
            model.displacement_at([
                origin[0] + local[0],
                origin[1] + local[1],
                origin[2] + local[2],
            ])
        })
    }

    /// The background-stress closure for the superposition baseline
    /// (scenario 2): coarse stress at the corresponding chiplet point.
    pub fn background_stress(
        &self,
        model: &Arc<ChipletModel>,
    ) -> Arc<dyn Fn([f64; 3]) -> [f64; 6] + Send + Sync> {
        let origin = self.origin;
        let model = Arc::clone(model);
        Arc::new(move |local| {
            model
                .stress_at([
                    origin[0] + local[0],
                    origin[1] + local[1],
                    origin[2] + local[2],
                ])
                .ok()
                .flatten()
                .map_or([0.0; 6], |s| s.tensor)
        })
    }
}

/// The five array locations of Fig. 5(b): center of the die shadow, under
/// the die edge, under the die corner, between die edge and interposer edge,
/// and the interposer corner. Returns the `(x, y)` origins for an array box
/// of lateral size `array_size`.
pub fn standard_locations(geometry: &ChipletGeometry, array_size: f64) -> [[f64; 2]; 5] {
    let s = geometry.substrate_size;
    let center = 0.5 * s;
    let inter_lo = 0.5 * (s - geometry.interposer_size);
    let inter_hi = inter_lo + geometry.interposer_size;
    let die_hi = center + 0.5 * geometry.die_size;
    let margin = 0.02 * geometry.interposer_size;
    let clamp = |v: f64| v.clamp(inter_lo + margin, inter_hi - margin - array_size);
    let centered = center - 0.5 * array_size;
    [
        // loc1: die-shadow center.
        [centered, centered],
        // loc2: straddling the die edge, centered in y.
        [clamp(die_hi - 0.5 * array_size), centered],
        // loc3: at the die corner.
        [
            clamp(die_hi - 0.5 * array_size),
            clamp(die_hi - 0.5 * array_size),
        ],
        // loc4: between die edge and interposer edge, centered in y.
        [
            clamp(0.5 * (die_hi + inter_hi) - 0.5 * array_size),
            centered,
        ],
        // loc5: interposer corner.
        [
            clamp(inter_hi - margin - array_size),
            clamp(inter_hi - margin - array_size),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_coarse() -> ChipletModel {
        ChipletModel::solve(
            &ChipletGeometry::bench_defaults(),
            &ChipletResolution::coarse(),
            &MaterialSet::tsv_defaults(),
            -250.0,
        )
        .expect("chiplet solves")
    }

    #[test]
    fn geometry_validation() {
        let mut g = ChipletGeometry::bench_defaults();
        assert!(g.validate().is_ok());
        g.die_size = 5000.0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn chiplet_warps_under_cooling() {
        let model = solve_coarse();
        // Cooling an organic substrate under stiff silicon bows the package;
        // the warpage magnitude must be nonzero and physically plausible
        // (micrometers, not nanometers or millimeters).
        let w = model.warpage().abs();
        assert!(w > 0.05 && w < 100.0, "warpage {w} µm");
    }

    #[test]
    fn displacement_field_is_continuous_across_elements() {
        let model = solve_coarse();
        let g = model.geometry();
        let z = g.interposer_z()[0] + 1.0;
        let p1 = model.displacement_at([1200.0 - 1e-6, 1200.0, z]);
        let p2 = model.displacement_at([1200.0 + 1e-6, 1200.0, z]);
        for c in 0..3 {
            assert!((p1[c] - p2[c]).abs() < 1e-6);
        }
    }

    #[test]
    fn background_stress_is_sharper_near_die_corner() {
        // The premise of scenario 2: the background varies much more near
        // the die corner (loc3) than under the die center (loc1).
        let model = solve_coarse();
        let g = *model.geometry();
        let z_mid = g.interposer_z()[0] + 0.5 * g.interposer_thickness;
        let center = 0.5 * g.substrate_size;
        let die_hi = center + 0.5 * g.die_size;
        let probe = |x: f64, y: f64| {
            model
                .stress_at([x, y, z_mid])
                .unwrap()
                .map(|s| s.von_mises)
                .unwrap_or(0.0)
        };
        let grad_center = (probe(center + 30.0, center) - probe(center - 30.0, center)).abs();
        let grad_corner = (probe(die_hi + 30.0, die_hi) - probe(die_hi - 30.0, die_hi)).abs();
        assert!(
            grad_corner > 2.0 * grad_center,
            "corner gradient {grad_corner} vs center gradient {grad_center}"
        );
    }

    #[test]
    fn standard_locations_fit_in_interposer() {
        let g = ChipletGeometry::bench_defaults();
        let size = 5.0 * 15.0; // 5-block array at p = 15
        let model = solve_coarse();
        for (i, loc) in standard_locations(&g, size).into_iter().enumerate() {
            // Submodel::new panics if the box does not fit.
            let sub = Submodel::new(&model, loc, size);
            assert!(sub.origin[2] == g.interposer_z()[0], "loc{}", i + 1);
        }
    }

    #[test]
    fn boundary_closure_matches_model_displacement() {
        let model = Arc::new(solve_coarse());
        let g = *model.geometry();
        let sub = Submodel::new(&model, [900.0, 900.0], 75.0);
        let f = sub.boundary_displacement(&model);
        let local = [10.0, 20.0, 25.0];
        let direct = model.displacement_at([910.0, 920.0, g.interposer_z()[0] + 25.0]);
        assert_eq!(f(local), direct);
    }
}
