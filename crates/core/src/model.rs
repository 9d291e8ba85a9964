//! The reduced-order model of one unit block, and its on-disk format.

use std::io::{Read, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use morestress_fem::MaterialSet;
use morestress_linalg::{DenseMatrix, MemoryFootprint};
use morestress_mesh::{unit_block_mesh, BlockKind, BlockResolution, HexMesh, TsvGeometry};

use crate::local::LocalStageStats;
use crate::{InterpolationGrid, RomError};

/// A pre-computed reduced-order model of one unit block (Fig. 3(d) of the
/// paper): the local basis functions, the Galerkin-projected element
/// stiffness `A_elem` and element load `b_elem`.
///
/// Built once per `(geometry, resolution, interpolation grid, materials,
/// block kind)` by [`LocalStage`](crate::LocalStage); reused for arrays of
/// any size, thermal load, and location.
#[derive(Debug, Clone)]
pub struct ReducedOrderModel {
    /// Process-unique identity, minted when the model is built or loaded
    /// and kept by clones (a clone is the same content). Nothing mutates a
    /// model's element matrices after construction, so equal ids mean equal
    /// `a_elem`/`b_elem` bit for bit — the collision-free "which ROM" word
    /// of the global stage's [`FactorCache`](morestress_linalg::FactorCache)
    /// key.
    pub(crate) id: u64,
    pub(crate) geom: TsvGeometry,
    pub(crate) res: BlockResolution,
    pub(crate) kind: BlockKind,
    pub(crate) interp: InterpolationGrid,
    pub(crate) mesh: HexMesh,
    pub(crate) materials: MaterialSet,
    /// Local basis functions `f_0 … f_{n−1}`, each a full fine-mesh
    /// displacement vector (`3 × mesh nodes`).
    pub(crate) basis: Vec<Vec<f64>>,
    /// The thermal basis function `f_T` (unit ΔT, zero boundary).
    pub(crate) basis_thermal: Vec<f64>,
    /// `A_elem = Fᵀ A_local F` (n×n, symmetric).
    pub(crate) a_elem: DenseMatrix,
    /// `b_elem = Fᵀ b_local` for ΔT = 1.
    pub(crate) b_elem: Vec<f64>,
    /// Cost accounting of the one-shot local stage that built this model.
    pub local_stats: LocalStageStats,
    /// Which mirrors `a_elem` and `b_elem` are invariant under, checked on
    /// first use (see [`mirror_invariance`](Self::mirror_invariance)) and
    /// never stored in the `.rom` file.
    pub(crate) mirrors: OnceLock<u8>,
}

impl ReducedOrderModel {
    /// The TSV geometry the model was built for.
    pub fn geometry(&self) -> &TsvGeometry {
        &self.geom
    }

    /// The fine-mesh resolution of the unit block.
    pub fn resolution(&self) -> &BlockResolution {
        &self.res
    }

    /// Whether this models a TSV block or a dummy (pure-Si) block.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The interpolation grid (element DoF layout).
    pub fn interpolation(&self) -> InterpolationGrid {
        self.interp
    }

    /// The unit block's fine mesh.
    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// The material registry the model was built with (needed for stress
    /// recovery).
    pub fn materials(&self) -> &MaterialSet {
        &self.materials
    }

    /// Number of element DoFs `n` (Eq. 16).
    pub fn num_dofs(&self) -> usize {
        self.interp.num_dofs()
    }

    /// The element stiffness matrix `A_elem` (Eq. 18).
    pub fn element_stiffness(&self) -> &DenseMatrix {
        &self.a_elem
    }

    /// The element load vector `b_elem` for ΔT = 1 (Eq. 19).
    pub fn element_load(&self) -> &[f64] {
        &self.b_elem
    }

    /// The bitmask of the mirrors — x, y, diagonal, in bit order — whose
    /// block-local signed permutation of the element DoFs leaves the
    /// element stiffness and load invariant to 1e-12 of their largest
    /// entries: what the global stage's mirror group requires of every ROM
    /// of an array. Checked once per model, on first use.
    pub(crate) fn mirror_invariance(&self) -> u8 {
        *self
            .mirrors
            .get_or_init(|| crate::symmetry::rom_mirrors(self))
    }

    /// The `i`-th local basis function as a fine-mesh displacement vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_dofs()`.
    pub fn basis_function(&self, i: usize) -> &[f64] {
        &self.basis[i]
    }

    /// The thermal basis function `f_T`.
    pub fn thermal_basis(&self) -> &[f64] {
        &self.basis_thermal
    }

    /// Reconstructs the fine-mesh displacement of one block from its element
    /// DoF values (Eq. 15): `u = ΔT·f_T + Σ_i U_i f_i`.
    ///
    /// # Panics
    ///
    /// Panics if `element_dofs.len() != self.num_dofs()`.
    pub fn reconstruct_displacement(&self, element_dofs: &[f64], delta_t: f64) -> Vec<f64> {
        assert_eq!(element_dofs.len(), self.num_dofs(), "element DoF count");
        let mut u: Vec<f64> = self.basis_thermal.iter().map(|v| v * delta_t).collect();
        for (ui, fi) in element_dofs.iter().zip(&self.basis) {
            if *ui != 0.0 {
                morestress_linalg::axpy(*ui, fi, &mut u);
            }
        }
        u
    }

    /// Serializes the model to a file.
    ///
    /// The format is a small explicit binary codec (magic + version + shape
    /// descriptors + f64 arrays, all little-endian); the fine mesh is not
    /// stored — it is re-derived from the geometry on load.
    ///
    /// # Errors
    ///
    /// [`RomError::Io`] on filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), RomError> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(MAGIC)?;
        write_u64(&mut w, FORMAT_VERSION)?;
        // Geometry.
        for v in [
            self.geom.diameter,
            self.geom.height,
            self.geom.liner,
            self.geom.pitch,
        ] {
            write_f64(&mut w, v)?;
        }
        // Resolution.
        for v in [self.res.band_cells, self.res.outer_cells, self.res.z_cells] {
            write_u64(&mut w, v as u64)?;
        }
        write_u64(&mut w, matches!(self.kind, BlockKind::Tsv) as u64)?;
        for v in self.interp.counts() {
            write_u64(&mut w, v as u64)?;
        }
        // Materials.
        let mats: Vec<_> = self.materials.iter().collect();
        write_u64(&mut w, mats.len() as u64)?;
        for (id, m) in mats {
            write_u64(&mut w, u64::from(id.0))?;
            write_f64(&mut w, m.youngs)?;
            write_f64(&mut w, m.poisson)?;
            write_f64(&mut w, m.cte)?;
        }
        // Basis.
        write_u64(&mut w, self.basis.len() as u64)?;
        write_u64(&mut w, self.basis_thermal.len() as u64)?;
        for f in &self.basis {
            write_f64_slice(&mut w, f)?;
        }
        write_f64_slice(&mut w, &self.basis_thermal)?;
        // Element matrices.
        write_f64_slice(&mut w, self.a_elem.as_slice())?;
        write_f64_slice(&mut w, &self.b_elem)?;
        w.flush()?;
        Ok(())
    }

    /// Loads a model saved by [`ReducedOrderModel::save`], re-deriving the
    /// fine mesh from the stored geometry.
    ///
    /// # Errors
    ///
    /// [`RomError::Io`] on filesystem errors, [`RomError::Format`] if the
    /// file is malformed, of a wrong version, or internally inconsistent.
    pub fn load(path: &Path) -> Result<Self, RomError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = std::io::BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(RomError::Format("bad magic bytes".into()));
        }
        let version = read_u64(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(RomError::Format(format!(
                "unsupported ROM format version {version}"
            )));
        }
        let geom = TsvGeometry {
            diameter: read_f64(&mut r)?,
            height: read_f64(&mut r)?,
            liner: read_f64(&mut r)?,
            pitch: read_f64(&mut r)?,
        };
        let lengths = [geom.diameter, geom.height, geom.liner, geom.pitch];
        if lengths.iter().any(|l| !PLAUSIBLE_LENGTH_UM.contains(l)) {
            return Err(RomError::Format("implausible TSV dimensions".into()));
        }
        geom.validate().map_err(RomError::Format)?;
        let res = BlockResolution {
            band_cells: read_usize(&mut r)?,
            outer_cells: read_usize(&mut r)?,
            z_cells: read_usize(&mut r)?,
        };
        let cells = [res.band_cells, res.outer_cells, res.z_cells];
        if cells.iter().any(|c| !(1..=MAX_CELLS).contains(c)) {
            return Err(RomError::Format("implausible block resolution".into()));
        }
        let kind = if read_u64(&mut r)? != 0 {
            BlockKind::Tsv
        } else {
            BlockKind::Dummy
        };
        let counts = [
            read_usize(&mut r)?,
            read_usize(&mut r)?,
            read_usize(&mut r)?,
        ];
        if counts.iter().any(|&c| !(2..=64).contains(&c)) {
            return Err(RomError::Format("implausible interpolation counts".into()));
        }
        let interp = InterpolationGrid::new(counts);
        let num_materials = read_usize(&mut r)?;
        if num_materials > 1024 {
            return Err(RomError::Format("implausible material count".into()));
        }
        let mut materials = MaterialSet::new();
        for _ in 0..num_materials {
            let id = read_u64(&mut r)?;
            let id = u16::try_from(id)
                .map_err(|_| RomError::Format("material id out of range".into()))?;
            let youngs = read_f64(&mut r)?;
            let poisson = read_f64(&mut r)?;
            let cte = read_f64(&mut r)?;
            let plausible = youngs > 0.0
                && youngs.is_finite()
                && (-1.0..0.5).contains(&poisson)
                && cte.is_finite();
            if !plausible {
                return Err(RomError::Format("implausible material constants".into()));
            }
            materials.insert(
                morestress_mesh::MaterialId(id),
                morestress_fem::Material::new(youngs, poisson, cte),
            );
        }
        let n_basis = read_usize(&mut r)?;
        let ndof = read_usize(&mut r)?;
        if n_basis != interp.num_dofs() {
            return Err(RomError::Format(format!(
                "basis count {n_basis} does not match interpolation grid ({})",
                interp.num_dofs()
            )));
        }
        // The fine mesh is a full lattice (no voids), so its DoF count and
        // with it the length of the file follow from the header alone: check
        // both before anything is sized from them. The bounds above keep the
        // products far inside u64.
        let lattice = res.lateral_cells() as u64 + 1;
        let mesh_dofs = 3 * lattice * lattice * (res.z_cells as u64 + 1);
        if ndof as u64 != mesh_dofs {
            return Err(RomError::Format(format!(
                "stored fine DoF count {ndof} does not match the block resolution ({mesh_dofs})"
            )));
        }
        let n = n_basis as u64;
        let header_len = r.stream_position()?;
        let expected_len = header_len + 8 * ((n + 1) * mesh_dofs + n * n + n);
        if file_len != expected_len {
            return Err(RomError::Format(format!(
                "file holds {file_len} bytes where its header implies {expected_len}"
            )));
        }
        let mesh = unit_block_mesh(&geom, &res, kind == BlockKind::Tsv);
        if ndof != 3 * mesh.num_nodes() {
            return Err(RomError::Format(format!(
                "stored fine DoF count {ndof} does not match re-derived mesh ({})",
                3 * mesh.num_nodes()
            )));
        }
        let mut basis = Vec::with_capacity(n_basis);
        for _ in 0..n_basis {
            basis.push(read_f64_vec(&mut r, ndof)?);
        }
        let basis_thermal = read_f64_vec(&mut r, ndof)?;
        let a_elem =
            DenseMatrix::from_vec(n_basis, n_basis, read_f64_vec(&mut r, n_basis * n_basis)?);
        let b_elem = read_f64_vec(&mut r, n_basis)?;
        Ok(Self {
            id: mint_rom_id(),
            geom,
            res,
            kind,
            interp,
            mesh,
            materials,
            basis,
            basis_thermal,
            a_elem,
            b_elem,
            local_stats: LocalStageStats::default(),
            mirrors: OnceLock::new(),
        })
    }

    /// Checks that two ROMs are compatible as hybrid elements in one global
    /// problem (same geometry, resolution and interpolation grid).
    ///
    /// # Errors
    ///
    /// [`RomError::Mismatch`] describing the first difference found.
    pub fn check_compatible(&self, other: &ReducedOrderModel) -> Result<(), RomError> {
        if self.geom != other.geom {
            return Err(RomError::Mismatch("geometries differ".into()));
        }
        if self.res != other.res {
            return Err(RomError::Mismatch("block resolutions differ".into()));
        }
        if self.interp != other.interp {
            return Err(RomError::Mismatch("interpolation grids differ".into()));
        }
        Ok(())
    }
}

impl MemoryFootprint for ReducedOrderModel {
    fn heap_bytes(&self) -> usize {
        let basis: usize = self.basis.iter().map(MemoryFootprint::heap_bytes).sum();
        basis
            + self.basis_thermal.heap_bytes()
            + self.a_elem.heap_bytes()
            + self.b_elem.heap_bytes()
    }
}

/// The next unused [`ReducedOrderModel`] identity. Ids start at 1 (0 reads
/// "no model") and only need to differ, so the counter publishes nothing
/// else.
pub(crate) fn mint_rom_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

const MAGIC: &[u8; 8] = b"MORESTR\x01";
const FORMAT_VERSION: u64 = 1;
/// Largest per-axis cell count [`ReducedOrderModel::load`] accepts (the
/// `fine` preset has 30 lateral cells).
const MAX_CELLS: usize = 1 << 12;
/// Lengths (µm) [`ReducedOrderModel::load`] accepts: 1 nm … 1 m, which also
/// rejects NaN, infinities and bit patterns that read as denormals.
const PLAUSIBLE_LENGTH_UM: std::ops::RangeInclusive<f64> = 1e-3..=1e6;
/// Staging-buffer size of the bulk `.rom` reads and writes.
const IO_CHUNK_BYTES: usize = 1 << 20;

fn write_u64<W: Write>(w: &mut W, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes `v` little-endian through a staging buffer of at most
/// [`IO_CHUNK_BYTES`], one `write_all` per chunk.
fn write_f64_slice<W: Write>(w: &mut W, v: &[f64]) -> std::io::Result<()> {
    let mut staging = Vec::with_capacity(IO_CHUNK_BYTES.min(8 * v.len()));
    for chunk in v.chunks(IO_CHUNK_BYTES / 8) {
        staging.clear();
        for x in chunk {
            staging.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&staging)?;
    }
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_usize<R: Read>(r: &mut R) -> Result<usize, RomError> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| RomError::Format("count overflows usize".into()))
}

fn read_f64<R: Read>(r: &mut R) -> std::io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

/// Reads `len` little-endian values through a staging buffer of at most
/// [`IO_CHUNK_BYTES`], one `read_exact` per chunk. Callers size `len` only
/// after [`ReducedOrderModel::load`] matched the header against the file
/// length, so a hostile count never reaches the allocator.
fn read_f64_vec<R: Read>(r: &mut R, len: usize) -> Result<Vec<f64>, RomError> {
    let mut out = Vec::with_capacity(len);
    let mut staging = vec![0u8; IO_CHUNK_BYTES.min(8 * len)];
    while out.len() < len {
        let bytes = &mut staging[..8 * (len - out.len()).min(IO_CHUNK_BYTES / 8)];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("chunks of 8 bytes"))),
        );
    }
    Ok(out)
}

/// Builds (or loads from `cache_path`, if present and valid) a ROM.
///
/// A cached file is reused only if it was built for exactly these inputs —
/// geometry, resolution, interpolation grid, block kind and materials;
/// otherwise the ROM is rebuilt and the file overwritten.
///
/// # Errors
///
/// Propagates build errors; cache read failures fall back to a fresh build.
pub fn build_or_load_cached(
    geom: &TsvGeometry,
    res: &BlockResolution,
    interp: InterpolationGrid,
    materials: &MaterialSet,
    kind: BlockKind,
    opts: &crate::LocalStageOptions,
    cache_path: Option<&Path>,
) -> Result<ReducedOrderModel, RomError> {
    if let Some(path) = cache_path {
        if let Ok(rom) = ReducedOrderModel::load(path) {
            if rom.geometry() == geom
                && rom.resolution() == res
                && rom.interpolation() == interp
                && rom.kind() == kind
                && rom.materials() == materials
            {
                return Ok(rom);
            }
        }
    }
    let rom = crate::LocalStage::new(geom, res, interp, materials, kind).build(opts)?;
    if let Some(path) = cache_path {
        rom.save(path)?;
    }
    Ok(rom)
}
