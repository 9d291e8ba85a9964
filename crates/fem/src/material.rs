//! Isotropic linear thermoelastic materials.
//!
//! Units: Young's modulus in MPa, lengths in µm, temperatures in °C, CTE in
//! 1/°C — stresses come out in MPa.

use morestress_mesh::{MaterialId, MAT_CU, MAT_LINER, MAT_ORGANIC, MAT_SI};

use crate::FemError;

/// An isotropic linear thermoelastic material.
///
/// # Example
///
/// ```
/// use morestress_fem::Material;
///
/// let si = Material::silicon();
/// let (lambda, mu) = si.lame();
/// assert!(lambda > 0.0 && mu > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Young's modulus `E` (MPa).
    pub youngs: f64,
    /// Poisson's ratio `ν`.
    pub poisson: f64,
    /// Coefficient of thermal expansion `α` (1/°C).
    pub cte: f64,
}

impl Material {
    /// Creates a material and validates the parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if `youngs <= 0` or `poisson` is outside `(-1, 0.5)`.
    pub fn new(youngs: f64, poisson: f64, cte: f64) -> Self {
        assert!(youngs > 0.0, "Young's modulus must be positive");
        assert!(
            poisson > -1.0 && poisson < 0.5,
            "Poisson's ratio must lie in (-1, 0.5)"
        );
        Self {
            youngs,
            poisson,
            cte,
        }
    }

    /// Copper (TSV body): E = 110 GPa, ν = 0.35, α = 17e-6/°C.
    pub fn copper() -> Self {
        Self::new(110_000.0, 0.35, 17.0e-6)
    }

    /// Silicon (substrate/interposer/die): E = 130 GPa, ν = 0.28,
    /// α = 2.3e-6/°C.
    pub fn silicon() -> Self {
        Self::new(130_000.0, 0.28, 2.3e-6)
    }

    /// SiO₂ (dielectric liner): E = 71 GPa, ν = 0.16, α = 0.5e-6/°C.
    pub fn silica() -> Self {
        Self::new(71_000.0, 0.16, 0.5e-6)
    }

    /// Organic laminate (package substrate): E = 22 GPa, ν = 0.30,
    /// α = 18e-6/°C.
    pub fn organic() -> Self {
        Self::new(22_000.0, 0.30, 18.0e-6)
    }

    /// Lamé parameters `(λ, μ)` (Eq. 2 of the paper).
    pub fn lame(&self) -> (f64, f64) {
        let e = self.youngs;
        let nu = self.poisson;
        let lambda = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
        let mu = e / (2.0 * (1.0 + nu));
        (lambda, mu)
    }

    /// The 6×6 isotropic elasticity matrix `D` in Voigt order
    /// `[xx, yy, zz, xy, yz, zx]` with engineering shear strains.
    pub fn d_matrix(&self) -> [[f64; 6]; 6] {
        let (la, mu) = self.lame();
        let mut d = [[0.0; 6]; 6];
        for i in 0..3 {
            for j in 0..3 {
                d[i][j] = la;
            }
            d[i][i] += 2.0 * mu;
            d[i + 3][i + 3] = mu;
        }
        d
    }

    /// Thermal strain (Voigt) for a unit temperature change:
    /// `α · [1, 1, 1, 0, 0, 0]`.
    pub fn thermal_strain_unit(&self) -> [f64; 6] {
        [self.cte, self.cte, self.cte, 0.0, 0.0, 0.0]
    }

    /// Thermal stress coefficient `α(3λ + 2μ)` — the prefactor of the load
    /// term in Eq. 1 of the paper.
    pub fn thermal_stress_coefficient(&self) -> f64 {
        let (la, mu) = self.lame();
        self.cte * (3.0 * la + 2.0 * mu)
    }
}

/// A registry mapping mesh [`MaterialId`]s to [`Material`]s.
///
/// # Example
///
/// ```
/// use morestress_fem::MaterialSet;
/// use morestress_mesh::MAT_CU;
///
/// let mats = MaterialSet::tsv_defaults();
/// assert!(mats.get(MAT_CU).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaterialSet {
    entries: Vec<(MaterialId, Material)>,
}

impl MaterialSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry used by all paper experiments: Cu via, SiO₂ liner,
    /// Si substrate, organic package laminate.
    pub fn tsv_defaults() -> Self {
        let mut set = Self::new();
        set.insert(MAT_CU, Material::copper());
        set.insert(MAT_LINER, Material::silica());
        set.insert(MAT_SI, Material::silicon());
        set.insert(MAT_ORGANIC, Material::organic());
        set
    }

    /// Registers (or replaces) a material.
    pub fn insert(&mut self, id: MaterialId, material: Material) {
        if let Some(slot) = self.entries.iter_mut().find(|(mid, _)| *mid == id) {
            slot.1 = material;
        } else {
            self.entries.push((id, material));
        }
    }

    /// Iterates over the registered `(id, material)` pairs in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (MaterialId, &Material)> + '_ {
        self.entries.iter().map(|(id, m)| (*id, m))
    }

    /// Looks up a material.
    ///
    /// # Errors
    ///
    /// [`FemError::UnknownMaterial`] if the id is not registered.
    pub fn get(&self, id: MaterialId) -> Result<&Material, FemError> {
        self.entries
            .iter()
            .find(|(mid, _)| *mid == id)
            .map(|(_, m)| m)
            .ok_or(FemError::UnknownMaterial { id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lame_matches_hand_computation() {
        // E = 100, nu = 0.25: lambda = 100*0.25/(1.25*0.5) = 40, mu = 40.
        let m = Material::new(100.0, 0.25, 1e-6);
        let (la, mu) = m.lame();
        assert!((la - 40.0).abs() < 1e-12);
        assert!((mu - 40.0).abs() < 1e-12);
    }

    #[test]
    fn d_matrix_is_symmetric_positive() {
        let d = Material::copper().d_matrix();
        for i in 0..6 {
            assert!(d[i][i] > 0.0);
            for j in 0..6 {
                assert_eq!(d[i][j], d[j][i]);
            }
        }
        // Off-diagonal normal coupling equals lambda.
        let (la, _) = Material::copper().lame();
        assert!((d[0][1] - la).abs() < 1e-9);
    }

    #[test]
    fn thermal_coefficient_consistency() {
        // alpha*(3*lambda + 2*mu) must equal D * (alpha*[1,1,1,0,0,0]) row sum
        // for any normal component.
        let m = Material::silicon();
        let d = m.d_matrix();
        let eps = m.thermal_strain_unit();
        let sigma0: f64 = (0..6).map(|j| d[0][j] * eps[j]).sum();
        assert!((sigma0 - m.thermal_stress_coefficient()).abs() < 1e-9);
    }

    #[test]
    fn registry_lookup_and_unknown() {
        let mats = MaterialSet::tsv_defaults();
        assert!(mats.get(MAT_SI).is_ok());
        assert!(matches!(
            mats.get(MaterialId(99)),
            Err(FemError::UnknownMaterial { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "Poisson")]
    fn incompressible_poisson_rejected() {
        let _ = Material::new(1.0, 0.5, 0.0);
    }
}
