//! Stress recovery and mid-plane von Mises sampling.
//!
//! The paper scores every method on "the gridded von Mises stress on the cut
//! plane crossing the half height of the TSV arrays", with the mean absolute
//! error normalized by the maximum von Mises stress (§5.2). This module
//! provides those exact primitives.

use morestress_mesh::HexMesh;

use crate::element::Hex8;
use crate::{FemError, MaterialSet};

/// The stress state at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressSample {
    /// Stress tensor in Voigt order `[σxx, σyy, σzz, τxy, τyz, τzx]` (MPa).
    pub tensor: [f64; 6],
    /// Von Mises equivalent stress (MPa).
    pub von_mises: f64,
}

impl StressSample {
    /// Builds a sample from a Voigt tensor, computing the von Mises stress.
    pub fn from_tensor(tensor: [f64; 6]) -> Self {
        let [sxx, syy, szz, txy, tyz, tzx] = tensor;
        let vm = (0.5 * ((sxx - syy).powi(2) + (syy - szz).powi(2) + (szz - sxx).powi(2))
            + 3.0 * (txy * txy + tyz * tyz + tzx * tzx))
            .sqrt();
        Self {
            tensor,
            von_mises: vm,
        }
    }
}

/// Evaluates the thermoelastic stress at a point:
/// `σ = D (B u_e − α ΔT [1,1,1,0,0,0])`.
///
/// Returns `None` if the point falls in a void cell.
///
/// # Errors
///
/// [`FemError::UnknownMaterial`] if the containing element's material is not
/// registered.
///
/// # Panics
///
/// Panics if `u.len() != 3 * mesh.num_nodes()`.
pub fn stress_at(
    mesh: &HexMesh,
    materials: &MaterialSet,
    u: &[f64],
    delta_t: f64,
    point: [f64; 3],
) -> Result<Option<StressSample>, FemError> {
    assert_eq!(u.len(), 3 * mesh.num_nodes(), "displacement vector length");
    let Some((e, xi)) = mesh.locate(point) else {
        return Ok(None);
    };
    let material = materials.get(mesh.material(e))?;
    let corners = mesh.elem_corners(e);
    let hex = Hex8::from_corners(&corners);
    let b = hex.b_matrix(xi);
    let conn = &mesh.elems()[e];
    // Elastic strain = B u_e − thermal strain.
    let mut strain = [0.0; 6];
    for (a, &node) in conn.iter().enumerate() {
        for c in 0..3 {
            let ua = u[3 * node + c];
            if ua != 0.0 {
                for i in 0..6 {
                    strain[i] += b[i][3 * a + c] * ua;
                }
            }
        }
    }
    let eps_th = material.thermal_strain_unit();
    for i in 0..6 {
        strain[i] -= delta_t * eps_th[i];
    }
    let d = material.d_matrix();
    let mut sigma = [0.0; 6];
    for i in 0..6 {
        for j in 0..6 {
            sigma[i] += d[i][j] * strain[j];
        }
    }
    Ok(Some(StressSample::from_tensor(sigma)))
}

/// A regular sampling grid on a constant-z cut plane.
///
/// # Example
///
/// ```
/// use morestress_fem::PlaneGrid;
///
/// let grid = PlaneGrid::new([0.0, 0.0], [30.0, 30.0], 25.0, 60, 60);
/// assert_eq!(grid.num_points(), 3600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneGrid {
    /// Lower-left corner `(x, y)` of the sampled rectangle.
    pub origin: [f64; 2],
    /// Upper-right corner `(x, y)`.
    pub corner: [f64; 2],
    /// The z-coordinate of the cut plane.
    pub z: f64,
    /// Sample counts along x and y.
    pub samples: [usize; 2],
}

impl PlaneGrid {
    /// Creates a grid of `nx × ny` cell-centered samples covering the
    /// rectangle `[origin, corner]` at height `z`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is degenerate or a sample count is zero.
    pub fn new(origin: [f64; 2], corner: [f64; 2], z: f64, nx: usize, ny: usize) -> Self {
        assert!(
            corner[0] > origin[0] && corner[1] > origin[1],
            "degenerate rectangle"
        );
        assert!(nx > 0 && ny > 0, "sample counts must be nonzero");
        Self {
            origin,
            corner,
            z,
            samples: [nx, ny],
        }
    }

    /// Total number of sample points.
    pub fn num_points(&self) -> usize {
        self.samples[0] * self.samples[1]
    }

    /// The sample point at grid index `(i, j)` (cell-centered).
    pub fn point(&self, i: usize, j: usize) -> [f64; 3] {
        let dx = (self.corner[0] - self.origin[0]) / self.samples[0] as f64;
        let dy = (self.corner[1] - self.origin[1]) / self.samples[1] as f64;
        [
            self.origin[0] + (i as f64 + 0.5) * dx,
            self.origin[1] + (j as f64 + 0.5) * dy,
            self.z,
        ]
    }
}

/// A scalar field sampled on a [`PlaneGrid`] (row-major over `(j, i)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField2d {
    /// The grid the samples live on.
    pub grid: PlaneGrid,
    /// Sample values, `values[j * nx + i]`. `NaN` marks void samples.
    pub values: Vec<f64>,
}

impl ScalarField2d {
    /// Maximum (ignoring `NaN` voids).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(0.0, f64::max)
    }

    /// Extracts the `ni × nj` sub-field starting at sample `(i0, j0)`.
    /// Useful to score a method on the array interior only, where boundary
    /// effects do not mask the comparison.
    ///
    /// # Panics
    ///
    /// Panics if the requested window exceeds the field.
    pub fn subregion(&self, i0: usize, j0: usize, ni: usize, nj: usize) -> ScalarField2d {
        let [nx, ny] = self.grid.samples;
        assert!(i0 + ni <= nx && j0 + nj <= ny, "subregion out of bounds");
        let dx = (self.grid.corner[0] - self.grid.origin[0]) / nx as f64;
        let dy = (self.grid.corner[1] - self.grid.origin[1]) / ny as f64;
        let origin = [
            self.grid.origin[0] + i0 as f64 * dx,
            self.grid.origin[1] + j0 as f64 * dy,
        ];
        let corner = [origin[0] + ni as f64 * dx, origin[1] + nj as f64 * dy];
        let grid = PlaneGrid::new(origin, corner, self.grid.z, ni, nj);
        let mut values = Vec::with_capacity(ni * nj);
        for j in j0..j0 + nj {
            for i in i0..i0 + ni {
                values.push(self.values[j * nx + i]);
            }
        }
        ScalarField2d { grid, values }
    }

    /// Mean absolute difference against another field on the same grid,
    /// skipping void samples.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn mean_abs_diff(&self, other: &ScalarField2d) -> f64 {
        assert_eq!(self.grid, other.grid, "fields sampled on different grids");
        let mut sum = 0.0;
        let mut n = 0usize;
        for (a, b) in self.values.iter().zip(&other.values) {
            if a.is_nan() || b.is_nan() {
                continue;
            }
            sum += (a - b).abs();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Samples the von Mises stress of a FEM solution on a cut-plane grid.
///
/// # Errors
///
/// [`FemError::UnknownMaterial`] on unregistered materials.
pub fn sample_von_mises(
    mesh: &HexMesh,
    materials: &MaterialSet,
    u: &[f64],
    delta_t: f64,
    grid: &PlaneGrid,
) -> Result<ScalarField2d, FemError> {
    let [nx, ny] = grid.samples;
    let mut values = Vec::with_capacity(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let s = stress_at(mesh, materials, u, delta_t, grid.point(i, j))?;
            values.push(s.map_or(f64::NAN, |s| s.von_mises));
        }
    }
    Ok(ScalarField2d {
        grid: *grid,
        values,
    })
}

/// The paper's error metric: mean absolute error between `candidate` and
/// `reference`, normalized by the maximum of the reference field
/// ("the MAE ... is calculated and normalized by the maximum von Mises
/// stress", §5.2).
///
/// # Panics
///
/// Panics if the fields are sampled on different grids.
pub fn normalized_mae(candidate: &ScalarField2d, reference: &ScalarField2d) -> f64 {
    let mae = candidate.mean_abs_diff(reference);
    let peak = reference.max();
    if peak > 0.0 {
        mae / peak
    } else {
        mae
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaterialSet;
    use morestress_mesh::{Grid1d, HexMesh, MAT_SI};

    fn cube(n: usize) -> HexMesh {
        let g = Grid1d::uniform(0.0, 1.0, n);
        HexMesh::from_grids(g.clone(), g.clone(), g, |_| Some(MAT_SI))
    }

    #[test]
    fn von_mises_of_hydrostatic_state_is_zero() {
        let s = StressSample::from_tensor([-5.0, -5.0, -5.0, 0.0, 0.0, 0.0]);
        assert!(s.von_mises.abs() < 1e-12);
    }

    #[test]
    fn von_mises_of_uniaxial_state_is_magnitude() {
        let s = StressSample::from_tensor([7.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((s.von_mises - 7.0).abs() < 1e-12);
    }

    #[test]
    fn von_mises_of_pure_shear() {
        let s = StressSample::from_tensor([0.0, 0.0, 0.0, 3.0, 0.0, 0.0]);
        assert!((s.von_mises - 3.0 * 3.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn free_expansion_displacement_is_stress_free() {
        // u = alpha*dT*x exactly cancels the thermal strain.
        let mesh = cube(2);
        let mats = MaterialSet::tsv_defaults();
        let alpha = crate::Material::silicon().cte;
        let dt = -100.0;
        let mut u = vec![0.0; 3 * mesh.num_nodes()];
        for (n, p) in mesh.nodes().iter().enumerate() {
            for c in 0..3 {
                u[3 * n + c] = alpha * dt * p[c];
            }
        }
        let s = stress_at(&mesh, &mats, &u, dt, [0.4, 0.6, 0.3])
            .unwrap()
            .unwrap();
        assert!(s.von_mises < 1e-6, "von Mises {}", s.von_mises);
    }

    #[test]
    fn zero_displacement_under_cooling_gives_biaxial_tension_magnitude() {
        // Fully clamped silicon cooled by dT: sigma = -E*alpha*dT/(1-2nu)
        // hydrostatic... for u=0, sigma = -D*eps_th*dT (all normal equal).
        let mesh = cube(1);
        let mats = MaterialSet::tsv_defaults();
        let dt = -250.0;
        let u = vec![0.0; 3 * mesh.num_nodes()];
        let s = stress_at(&mesh, &mats, &u, dt, [0.5, 0.5, 0.5])
            .unwrap()
            .unwrap();
        let si = crate::Material::silicon();
        let expect = -dt * si.thermal_stress_coefficient();
        assert!((s.tensor[0] - expect).abs() < 1e-9 * expect.abs());
        assert!((s.tensor[1] - s.tensor[0]).abs() < 1e-12);
        assert!(s.von_mises < 1e-9, "hydrostatic state");
    }

    #[test]
    fn grid_sampling_and_mae() {
        let mesh = cube(2);
        let mats = MaterialSet::tsv_defaults();
        let u = vec![0.0; 3 * mesh.num_nodes()];
        let grid = PlaneGrid::new([0.0, 0.0], [1.0, 1.0], 0.5, 4, 4);
        let f1 = sample_von_mises(&mesh, &mats, &u, -250.0, &grid).unwrap();
        assert_eq!(f1.values.len(), 16);
        let f2 = ScalarField2d {
            grid,
            values: f1.values.iter().map(|v| v + 1.0).collect(),
        };
        assert!((f1.mean_abs_diff(&f2) - 1.0).abs() < 1e-12);
        let nmae = normalized_mae(&f2, &f1);
        assert!(nmae.is_finite());
    }
}
