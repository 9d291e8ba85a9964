//! The committed references under `benchmark/reference/`: full-FEM
//! mid-plane von Mises fields (the yardstick of `rom_error_pct`) and the
//! peak stresses of the fixed inputs.
//!
//! A normal run only *reads* them and samples the ROM; `--regen-reference`
//! recomputes them. Regenerating moves the yardstick, so it is itself a
//! benchmark change.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use morestress_campaign::CampaignSpec;
use morestress_fem::{
    sample_von_mises, solve_thermal_stress, DirichletBcs, LinearSolver, PlaneGrid,
};
use morestress_mesh::{array_mesh, BlockKind, BlockLayout};

use crate::workload::{Workload, FIXED_DELTA_T};

/// Mid-plane samples per block and axis of the accuracy comparison.
pub const ACCURACY_SAMPLES: usize = 10;

/// Side of the all-TSV array whose ROM field is compared with full FEM:
/// 2×2 on the array workloads, the single unit block on `model_build`.
pub fn accuracy_side(workload: Workload) -> usize {
    match workload {
        Workload::ModelBuild => 1,
        _ => 2,
    }
}

/// File holding the full-FEM field of an `n`×`n` array at `resolution`.
pub fn field_path(dir: &Path, n: usize, resolution: &str) -> PathBuf {
    dir.join(format!("fem-{n}x{n}-{resolution}.txt"))
}

/// Key of a fixed input's peak stress in `peaks.txt`.
pub fn peak_key(workload: Workload, quick: bool) -> String {
    let scale = if quick { "quick" } else { "full" };
    format!("{scale}.{}", workload.name())
}

/// Solves the clamped `n`×`n` all-TSV array of `spec`'s model by full FEM
/// at the fixed load and samples its mid-plane von Mises field, row-major.
///
/// # Errors
///
/// A description of the FEM failure.
pub fn fem_field(spec: &CampaignSpec, n: usize) -> Result<Vec<f64>, String> {
    let layout = BlockLayout::uniform(n, n, BlockKind::Tsv);
    let geom = &spec.geometry;
    let materials = spec.material_set();
    let mesh = array_mesh(geom, &spec.solver.resolution.resolution(), &layout);
    let (_, _, npz) = mesh.lattice_dims();
    let mut bcs = DirichletBcs::new();
    bcs.clamp_nodes(&mesh.plane_nodes(2, 0));
    bcs.clamp_nodes(&mesh.plane_nodes(2, npz - 1));
    let solution = solve_thermal_stress(
        &mesh,
        &materials,
        FIXED_DELTA_T,
        &bcs,
        LinearSolver::DirectCholesky,
    )
    .map_err(|e| format!("full-FEM reference solve: {e}"))?;
    let side = geom.pitch * n as f64;
    let grid = PlaneGrid::new(
        [0.0, 0.0],
        [side, side],
        0.5 * geom.height,
        ACCURACY_SAMPLES * n,
        ACCURACY_SAMPLES * n,
    );
    let field = sample_von_mises(
        &mesh,
        &materials,
        &solution.displacement,
        FIXED_DELTA_T,
        &grid,
    )
    .map_err(|e| format!("full-FEM reference sampling: {e}"))?;
    Ok(field.values)
}

/// Writes a field as text: a comment line, then one shortest-round-trip
/// decimal per line (exact on re-read).
///
/// # Errors
///
/// The filesystem error, as text.
pub fn write_field(path: &Path, what: &str, values: &[f64]) -> Result<(), String> {
    let mut text = format!("# {what}\n");
    for v in values {
        text.push_str(&format!("{v}\n"));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a field written by [`write_field`].
///
/// # Errors
///
/// Missing file, a line that is not a finite number, or an empty field.
pub fn read_field(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let values = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| match l.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("{}: `{l}` is not a finite number", path.display())),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if values.is_empty() {
        return Err(format!("{}: no samples", path.display()));
    }
    Ok(values)
}

/// Reads `peaks.txt`: `<scale>.<workload> <peak von Mises, MPa>` lines.
///
/// # Errors
///
/// Missing file or a malformed line.
pub fn read_peaks(dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let path = dir.join("peaks.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next().map(str::parse::<f64>)) {
                (Some(key), Some(Ok(v))) if v.is_finite() => Ok((key.to_string(), v)),
                _ => Err(format!("{}: malformed line `{l}`", path.display())),
            }
        })
        .collect()
}

/// Writes `peaks.txt`.
///
/// # Errors
///
/// The filesystem error, as text.
pub fn write_peaks(dir: &Path, peaks: &BTreeMap<String, f64>) -> Result<(), String> {
    let mut text = String::from(
        "# Peak mid-plane von Mises (MPa) of each workload's fixed input (base layout, dT = -250).\n",
    );
    for (key, v) in peaks {
        text.push_str(&format!("{key} {v}\n"));
    }
    let path = dir.join("peaks.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_and_peaks_round_trip_exactly() {
        let dir = std::env::temp_dir().join(format!("morestress-bench-ref-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let values = vec![481.694_788_333_922_8, 1e-300, 0.1 + 0.2];
        let path = field_path(&dir, 2, "medium");
        write_field(&path, "test field", &values).unwrap();
        assert_eq!(read_field(&path).unwrap(), values);
        let mut peaks = BTreeMap::new();
        peaks.insert(peak_key(Workload::LoadSweep, false), 481.694_788_333_922_8);
        write_peaks(&dir, &peaks).unwrap();
        assert_eq!(read_peaks(&dir).unwrap(), peaks);
        std::fs::write(&path, "# only a comment\n").unwrap();
        assert!(read_field(&path).is_err());
        std::fs::write(&path, "1.0\nnope\n").unwrap();
        assert!(read_field(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
