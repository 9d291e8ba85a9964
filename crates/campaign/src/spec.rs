//! `CampaignSpec`: the typed model of one campaign — materials, TSV
//! geometry, N arrays × loads, and the solver configuration — mirroring
//! the reference implementation's `config.yml` shape (material list,
//! geometry block, `tsv_array` list with dummy-TSV margins, solver
//! block).
//!
//! Specs parse from the YAML subset of [`crate::yaml`] with typed,
//! line-carrying errors.
//!
//! **Units**: Young's moduli are in **MPa** (the workspace convention —
//! lengths in µm, stresses in MPa), not the Pa of the reference config;
//! lengths in µm, temperatures in °C, CTE in 1/°C.

use std::fmt;
use std::path::Path;

use morestress_core::SimulatorBuilder;
use morestress_fem::{Material, MaterialSet};
use morestress_linalg::{LinearSolver, VerifyPolicy};
use morestress_mesh::{
    BlockKind, BlockLayout, BlockResolution, TsvGeometry, MAT_CU, MAT_LINER, MAT_ORGANIC, MAT_SI,
};

use crate::yaml::{self, Node, Value, YamlError, YamlErrorKind};

/// One material override, addressed by the paper's config names.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialSpec {
    /// Config name: `Si`, `Cu`, `SiO2` or `organic`.
    pub name: String,
    /// Young's modulus (MPa), in `(0, 1e7]`.
    pub young_modulus: f64,
    /// Poisson's ratio, in `(-1, 0.5)`.
    pub poisson_ratio: f64,
    /// Coefficient of thermal expansion (1/°C).
    pub thermal_expansion_coefficient: f64,
}

/// One TSV array of the campaign: an `nx × ny` core of real TSV blocks
/// wrapped in `dummy_x`/`dummy_y` margin rings of dummy-silicon blocks —
/// the `tsv_array` entry shape of the reference config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Real TSV columns.
    pub tsv_num_x: usize,
    /// Real TSV rows.
    pub tsv_num_y: usize,
    /// Dummy-block margin columns added on *each* side.
    pub dummy_tsv_num_x: usize,
    /// Dummy-block margin rows added on *each* side.
    pub dummy_tsv_num_y: usize,
}

impl ArraySpec {
    /// The block layout this array solves: dummy margins around the TSV
    /// core.
    pub fn layout(&self) -> BlockLayout {
        let nx = self.tsv_num_x + 2 * self.dummy_tsv_num_x;
        let ny = self.tsv_num_y + 2 * self.dummy_tsv_num_y;
        let mut layout = BlockLayout::uniform(nx, ny, BlockKind::Dummy);
        for j in 0..self.tsv_num_y {
            for i in 0..self.tsv_num_x {
                layout.set_kind(
                    self.dummy_tsv_num_x + i,
                    self.dummy_tsv_num_y + j,
                    BlockKind::Tsv,
                );
            }
        }
        layout
    }

    /// True when the layout contains dummy blocks (the dummy ROM must be
    /// built).
    pub fn needs_dummy(&self) -> bool {
        self.dummy_tsv_num_x > 0 || self.dummy_tsv_num_y > 0
    }
}

/// The global-stage solver name of the reference config's `solver`
/// block (`global_solver:`). [`SolverSpec::rom_solver`] maps each name to
/// a [`LinearSolver`], whose `backend` is the one mapping to a solver
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Sparse supernodal Cholesky ([`LinearSolver::DirectCholesky`]).
    Direct,
    /// Jacobi-preconditioned GMRES at the spec's `tolerance` (the paper's
    /// default iterative choice).
    Gmres,
    /// Jacobi-preconditioned conjugate gradients at the spec's
    /// `tolerance`, at most 50 000 iterations ([`LinearSolver::Cg`]).
    Cg,
    /// [`LinearSolver::Auto`]: direct up to 120 000 free rows, SSOR-CG
    /// above, verified at its own 1e-9 whatever the spec's `verify`.
    Auto,
}

/// Residual-verification request for every solve of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyChoice {
    /// No verification (the default).
    Off,
    /// Record residuals, never fail.
    Report,
    /// Fail a job whose relative residual exceeds the solver tolerance —
    /// the PR 8 typed-error surface the runner contains per job.
    Enforce,
}

/// The solver block: interpolation grid, backend selection, shards,
/// verification.
///
/// `verify` applies to `direct` and sharded solves. `auto` verifies
/// itself at 1e-9, and `gmres` and `cg` ignore it: their `tolerance` is
/// their stopping rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpec {
    /// Interpolation nodes per block edge, one count per axis `[x, y, z]`
    /// (the accuracy knob, Table 3): the number of equispaced Lagrange
    /// nodes along that edge, both corners included, so at least 2. Only
    /// the nodes on the block surface carry DoFs; the paper's Eq. 16
    /// counts them as `n = 3·[nx·ny·nz − (nx−2)(ny−2)(nz−2)]`, so
    /// `[4, 4, 4]` — the paper's setting — gives `n = 168`.
    pub interp_num: [usize; 3],
    /// Unit-block mesh resolution (`coarse` | `medium` | `fine`).
    pub resolution: ResolutionChoice,
    /// Global-stage backend.
    pub global_solver: SolverChoice,
    /// Interior shard count; 0 = monolithic (no sharding).
    pub shards: usize,
    /// Residual verification policy.
    pub verify: VerifyChoice,
    /// Iterative-solver / verification tolerance.
    pub tolerance: f64,
}

/// Unit-block mesh resolution names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionChoice {
    /// [`BlockResolution::coarse`].
    Coarse,
    /// [`BlockResolution::medium`].
    Medium,
    /// [`BlockResolution::fine`].
    Fine,
}

impl ResolutionChoice {
    /// The mesh resolution this name selects.
    pub fn resolution(self) -> BlockResolution {
        match self {
            ResolutionChoice::Coarse => BlockResolution::coarse(),
            ResolutionChoice::Medium => BlockResolution::medium(),
            ResolutionChoice::Fine => BlockResolution::fine(),
        }
    }

    /// The spec's name for this resolution.
    fn name(self) -> &'static str {
        match self {
            ResolutionChoice::Coarse => "coarse",
            ResolutionChoice::Medium => "medium",
            ResolutionChoice::Fine => "fine",
        }
    }
}

impl Default for SolverSpec {
    fn default() -> Self {
        Self {
            interp_num: [3, 3, 3],
            resolution: ResolutionChoice::Coarse,
            global_solver: SolverChoice::Direct,
            shards: 0,
            verify: VerifyChoice::Off,
            tolerance: 1e-10,
        }
    }
}

impl SolverSpec {
    /// The [`LinearSolver`] this block's `global_solver` names. A nonzero
    /// `shards` wins over it ([`SimulatorBuilder::shards`] semantics).
    pub fn rom_solver(&self) -> LinearSolver {
        match self.global_solver {
            SolverChoice::Direct => LinearSolver::DirectCholesky,
            SolverChoice::Gmres => LinearSolver::Gmres {
                tol: self.tolerance,
            },
            SolverChoice::Cg => LinearSolver::Cg {
                tol: self.tolerance,
            },
            SolverChoice::Auto => LinearSolver::Auto,
        }
    }

    /// The [`VerifyPolicy`] this block selects.
    pub fn verify_policy(&self) -> VerifyPolicy {
        match self.verify {
            VerifyChoice::Off => VerifyPolicy::Off,
            VerifyChoice::Report => VerifyPolicy::Report,
            VerifyChoice::Enforce => VerifyPolicy::Enforce {
                tol: self.tolerance,
            },
        }
    }
}

/// One campaign: a named scenario of N arrays × loads over one geometry,
/// material set and solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (results sections are keyed by it).
    pub name: String,
    /// Material overrides applied on top of [`MaterialSet::tsv_defaults`].
    pub materials: Vec<MaterialSpec>,
    /// The TSV unit-block geometry shared by every array.
    pub geometry: TsvGeometry,
    /// Thermal loads ΔT (°C); every array solves every load.
    pub loads: Vec<f64>,
    /// The TSV arrays of the campaign.
    pub arrays: Vec<ArraySpec>,
    /// Solver configuration.
    pub solver: SolverSpec,
}

/// A typed spec failure carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based line of the offending construct (0 for whole-document
    /// failures such as a missing top-level key).
    pub line: usize,
    /// What went wrong.
    pub kind: SpecErrorKind,
}

/// The failure modes of spec validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecErrorKind {
    /// The YAML layer rejected the document (tabs, bad indent, duplicate
    /// keys, malformed lines).
    Yaml(YamlErrorKind),
    /// A key the schema does not know.
    UnknownKey(String),
    /// A required key is absent.
    MissingKey(&'static str),
    /// A number that parsed to NaN/±Inf (or did not parse at all when a
    /// number was required).
    NonFinite(String),
    /// A structurally valid value outside its domain (with the reason).
    BadValue(String),
    /// A block of the wrong shape (scalar where a map was needed, …).
    WrongShape(&'static str),
    /// The spec file could not be read.
    Io(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SpecErrorKind::Yaml(kind) => YamlError {
                line: self.line,
                kind: kind.clone(),
            }
            .fmt(f),
            SpecErrorKind::UnknownKey(k) => write!(f, "line {}: unknown key `{k}`", self.line),
            SpecErrorKind::MissingKey(k) => {
                write!(f, "line {}: missing required key `{k}`", self.line)
            }
            SpecErrorKind::NonFinite(v) => {
                write!(f, "line {}: `{v}` is not a finite number", self.line)
            }
            SpecErrorKind::BadValue(msg) => write!(f, "line {}: {msg}", self.line),
            SpecErrorKind::WrongShape(expected) => {
                write!(f, "line {}: expected {expected}", self.line)
            }
            SpecErrorKind::Io(msg) => write!(f, "cannot read spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<YamlError> for SpecError {
    fn from(e: YamlError) -> Self {
        Self {
            line: e.line,
            kind: SpecErrorKind::Yaml(e.kind),
        }
    }
}

/// Helpers for pulling typed values out of parsed nodes.
struct MapView<'n> {
    line: usize,
    entries: &'n [(String, Node)],
}

impl<'n> MapView<'n> {
    fn of(node: &'n Node, what: &'static str) -> Result<Self, SpecError> {
        match &node.value {
            Value::Map(entries) => Ok(Self {
                line: node.line,
                entries,
            }),
            _ => Err(SpecError {
                line: node.line,
                kind: SpecErrorKind::WrongShape(what),
            }),
        }
    }

    fn get(&self, key: &'static str) -> Option<&'n Node> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, node)| node)
    }

    fn require(&self, key: &'static str) -> Result<&'n Node, SpecError> {
        self.get(key).ok_or(SpecError {
            line: self.line,
            kind: SpecErrorKind::MissingKey(key),
        })
    }

    /// Rejects any key outside `known`, pointing at its line.
    fn check_keys(&self, known: &[&str]) -> Result<(), SpecError> {
        for (key, node) in self.entries {
            if !known.contains(&key.as_str()) {
                let kind = match UPSTREAM_KEYS.iter().find(|(upstream, _)| upstream == key) {
                    Some((_, ours)) => SpecErrorKind::BadValue(format!(
                        "`{key}` is the upstream config.yml's key; this build reads {ours} \
                         instead (see examples/campaign.yml)"
                    )),
                    None => SpecErrorKind::UnknownKey(key.clone()),
                };
                return Err(SpecError {
                    line: node.line,
                    kind,
                });
            }
        }
        Ok(())
    }
}

/// Keys of the upstream `config.yml` this build spells differently, with
/// what it reads in their place: the per-axis nested keys
/// (`tsv_num: {x, y}`) and the singular material list and load.
const UPSTREAM_KEYS: [(&str, &str); 5] = [
    ("tsv_num", "the flat keys `tsv_num_x` / `tsv_num_y`"),
    (
        "dummy_tsv_num",
        "the flat keys `dummy_tsv_num_x` / `dummy_tsv_num_y`",
    ),
    (
        "interp_num",
        "the flat keys `interp_num_x` / `interp_num_y` / `interp_num_z`",
    ),
    ("material", "`materials:` (moduli in MPa, not Pa)"),
    ("temperature", "`loads:`, a list of thermal loads ΔT in °C"),
];

/// Stiffest Young's modulus (MPa) a material may have: diamond is about
/// 1.2e6 MPa, so a value above this is in the wrong unit — most likely the
/// upstream config's Pa.
const MAX_YOUNG_MODULUS_MPA: f64 = 1e7;

fn scalar<'n>(node: &'n Node, what: &'static str) -> Result<&'n str, SpecError> {
    match &node.value {
        Value::Scalar(s) => Ok(s),
        _ => Err(SpecError {
            line: node.line,
            kind: SpecErrorKind::WrongShape(what),
        }),
    }
}

fn number(node: &Node) -> Result<f64, SpecError> {
    let text = scalar(node, "a number")?;
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(SpecError {
            line: node.line,
            kind: SpecErrorKind::NonFinite(text.to_string()),
        }),
    }
}

fn count(node: &Node) -> Result<usize, SpecError> {
    let text = scalar(node, "a non-negative integer")?;
    text.parse::<usize>().map_err(|_| SpecError {
        line: node.line,
        kind: SpecErrorKind::BadValue(format!("`{text}` is not a non-negative integer")),
    })
}

fn seq<'n>(node: &'n Node, what: &'static str) -> Result<&'n [Node], SpecError> {
    match &node.value {
        Value::Seq(items) => Ok(items),
        _ => Err(SpecError {
            line: node.line,
            kind: SpecErrorKind::WrongShape(what),
        }),
    }
}

/// The material names the config schema knows, with their mesh ids.
const MATERIAL_NAMES: [(&str, morestress_mesh::MaterialId); 4] = [
    ("Si", MAT_SI),
    ("Cu", MAT_CU),
    ("SiO2", MAT_LINER),
    ("organic", MAT_ORGANIC),
];

impl CampaignSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] with the 1-based offending line: YAML-layer
    /// failures, unknown keys, missing keys, non-finite numbers, or
    /// domain violations (geometry that does not fit, materials outside
    /// their physical ranges, empty arrays/loads).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let root_node = yaml::parse(text)?;
        let root = MapView::of(&root_node, "a top-level map")?;
        root.check_keys(&[
            "name",
            "materials",
            "geometry",
            "loads",
            "tsv_array",
            "solver",
        ])?;

        let name = scalar(root.require("name")?, "a campaign name")?.to_string();
        if name.is_empty() {
            return Err(SpecError {
                line: root.line,
                kind: SpecErrorKind::BadValue("campaign name must not be empty".to_string()),
            });
        }

        let mut materials = Vec::new();
        if let Some(node) = root.get("materials") {
            for item in seq(node, "a list of materials")? {
                materials.push(parse_material(item)?);
            }
        }

        let geometry = parse_geometry(root.require("geometry")?)?;

        let loads_node = root.require("loads")?;
        let mut loads = Vec::new();
        for item in seq(loads_node, "a list of thermal loads")? {
            loads.push(number(item)?);
        }
        if loads.is_empty() {
            return Err(SpecError {
                line: loads_node.line,
                kind: SpecErrorKind::BadValue("loads must not be empty".to_string()),
            });
        }

        let arrays_node = root.require("tsv_array")?;
        let mut arrays = Vec::new();
        for item in seq(arrays_node, "a list of tsv_array entries")? {
            arrays.push(parse_array(item)?);
        }
        if arrays.is_empty() {
            return Err(SpecError {
                line: arrays_node.line,
                kind: SpecErrorKind::BadValue("tsv_array must not be empty".to_string()),
            });
        }

        let solver = match root.get("solver") {
            Some(node) => parse_solver(node)?,
            None => SolverSpec::default(),
        };

        Ok(Self {
            name,
            materials,
            geometry,
            loads,
            arrays,
            solver,
        })
    }

    /// Reads and parses a spec file.
    ///
    /// # Errors
    ///
    /// [`SpecErrorKind::Io`] when the file cannot be read, else as
    /// [`parse`](Self::parse).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError {
            line: 0,
            kind: SpecErrorKind::Io(format!("{}: {e}", path.display())),
        })?;
        Self::parse(&text)
    }

    /// The material registry of the campaign:
    /// [`MaterialSet::tsv_defaults`] with the spec's overrides applied.
    pub fn material_set(&self) -> MaterialSet {
        let mut set = MaterialSet::tsv_defaults();
        for m in &self.materials {
            let id = MATERIAL_NAMES
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, id)| *id)
                .expect("validated at parse time");
            set.insert(
                id,
                Material::new(
                    m.young_modulus,
                    m.poisson_ratio,
                    m.thermal_expansion_coefficient,
                ),
            );
        }
        set
    }

    /// True when any array needs the dummy-block ROM.
    pub fn needs_dummy(&self) -> bool {
        self.arrays.iter().any(ArraySpec::needs_dummy)
    }

    /// A [`SimulatorBuilder`] configured exactly as this spec requests —
    /// the front door the runner (and any embedding) builds simulators
    /// through.
    pub fn simulator_builder(&self) -> SimulatorBuilder {
        let mut builder = SimulatorBuilder::new(&self.geometry)
            .resolution(self.solver.resolution.resolution())
            .interpolation(self.solver.interp_num)
            .materials(self.material_set())
            .solver(self.solver.rom_solver())
            .build_dummy(self.needs_dummy());
        if self.solver.shards > 0 {
            builder = builder.shards(self.solver.shards);
        }
        if self.solver.verify != VerifyChoice::Off {
            builder = builder.verify(self.solver.verify_policy());
        }
        builder
    }

    /// A fingerprint of everything that shapes the one-shot model and its
    /// hoisted backend — campaigns with equal keys can (and in the runner
    /// do) share one simulator and its `FactorCache`.
    pub fn model_key(&self) -> Vec<u64> {
        let mut key = vec![
            self.geometry.diameter.to_bits(),
            self.geometry.height.to_bits(),
            self.geometry.liner.to_bits(),
            self.geometry.pitch.to_bits(),
            self.solver.interp_num[0] as u64,
            self.solver.interp_num[1] as u64,
            self.solver.interp_num[2] as u64,
            self.solver.resolution as u64,
            self.solver.global_solver as u64,
            self.solver.shards as u64,
            self.solver.verify as u64,
            self.solver.tolerance.to_bits(),
            u64::from(self.needs_dummy()),
        ];
        for (id, m) in self.material_set().iter() {
            key.push(id.0 as u64);
            key.push(m.youngs.to_bits());
            key.push(m.poisson.to_bits());
            key.push(m.cte.to_bits());
        }
        key
    }
}

fn parse_material(node: &Node) -> Result<MaterialSpec, SpecError> {
    let map = MapView::of(node, "a material map")?;
    map.check_keys(&[
        "name",
        "young_modulus",
        "poisson_ratio",
        "thermal_expansion_coefficient",
    ])?;
    let name_node = map.require("name")?;
    let name = scalar(name_node, "a material name")?.to_string();
    if !MATERIAL_NAMES.iter().any(|(n, _)| *n == name) {
        return Err(SpecError {
            line: name_node.line,
            kind: SpecErrorKind::BadValue(format!(
                "unknown material `{name}` (expected Si, Cu, SiO2 or organic)"
            )),
        });
    }
    let young_node = map.require("young_modulus")?;
    let young_modulus = number(young_node)?;
    let poisson_node = map.require("poisson_ratio")?;
    let poisson_ratio = number(poisson_node)?;
    let thermal_expansion_coefficient = number(map.require("thermal_expansion_coefficient")?)?;
    if young_modulus <= 0.0 {
        return Err(SpecError {
            line: young_node.line,
            kind: SpecErrorKind::BadValue(format!(
                "young_modulus must be positive, got {young_modulus}"
            )),
        });
    }
    if young_modulus > MAX_YOUNG_MODULUS_MPA {
        return Err(SpecError {
            line: young_node.line,
            kind: SpecErrorKind::BadValue(format!(
                "young_modulus {young_modulus} is above {MAX_YOUNG_MODULUS_MPA:e} MPa: moduli \
                 are in MPa here, not Pa (130e9 Pa is 130000 MPa)"
            )),
        });
    }
    if poisson_ratio <= -1.0 || poisson_ratio >= 0.5 {
        return Err(SpecError {
            line: poisson_node.line,
            kind: SpecErrorKind::BadValue(format!(
                "poisson_ratio must lie in (-1, 0.5), got {poisson_ratio}"
            )),
        });
    }
    Ok(MaterialSpec {
        name,
        young_modulus,
        poisson_ratio,
        thermal_expansion_coefficient,
    })
}

fn parse_geometry(node: &Node) -> Result<TsvGeometry, SpecError> {
    let map = MapView::of(node, "a geometry map")?;
    map.check_keys(&["height", "pitch", "diameter", "thickness"])?;
    let geometry = TsvGeometry {
        height: number(map.require("height")?)?,
        pitch: number(map.require("pitch")?)?,
        diameter: number(map.require("diameter")?)?,
        liner: number(map.require("thickness")?)?,
    };
    geometry.validate().map_err(|msg| SpecError {
        line: node.line,
        kind: SpecErrorKind::BadValue(msg),
    })?;
    Ok(geometry)
}

fn parse_array(node: &Node) -> Result<ArraySpec, SpecError> {
    let map = MapView::of(node, "a tsv_array map")?;
    map.check_keys(&[
        "tsv_num_x",
        "tsv_num_y",
        "dummy_tsv_num_x",
        "dummy_tsv_num_y",
    ])?;
    let array = ArraySpec {
        tsv_num_x: count(map.require("tsv_num_x")?)?,
        tsv_num_y: count(map.require("tsv_num_y")?)?,
        dummy_tsv_num_x: map.get("dummy_tsv_num_x").map_or(Ok(0), count)?,
        dummy_tsv_num_y: map.get("dummy_tsv_num_y").map_or(Ok(0), count)?,
    };
    if array.tsv_num_x == 0 || array.tsv_num_y == 0 {
        return Err(SpecError {
            line: node.line,
            kind: SpecErrorKind::BadValue("tsv_num_x and tsv_num_y must be at least 1".to_string()),
        });
    }
    // The padded sides and their block count must fit a `usize`, or
    // `layout` would wrap around.
    let side = |tsv: usize, dummy: usize| dummy.checked_mul(2)?.checked_add(tsv);
    let blocks = side(array.tsv_num_x, array.dummy_tsv_num_x)
        .zip(side(array.tsv_num_y, array.dummy_tsv_num_y))
        .and_then(|(nx, ny)| nx.checked_mul(ny));
    if blocks.is_none() {
        return Err(SpecError {
            line: node.line,
            kind: SpecErrorKind::BadValue(
                "the array with its dummy rings has more blocks than this machine can count"
                    .to_string(),
            ),
        });
    }
    Ok(array)
}

fn parse_solver(node: &Node) -> Result<SolverSpec, SpecError> {
    let map = MapView::of(node, "a solver map")?;
    map.check_keys(&[
        "interp_num_x",
        "interp_num_y",
        "interp_num_z",
        "resolution",
        "global_solver",
        "shards",
        "verify",
        "tolerance",
    ])?;
    let defaults = SolverSpec::default();
    let axis = |key: &'static str, default: usize| -> Result<usize, SpecError> {
        let Some(n) = map.get(key) else {
            return Ok(default);
        };
        let v = count(n)?;
        if v < 2 {
            return Err(SpecError {
                line: n.line,
                kind: SpecErrorKind::BadValue(format!("{key} must be at least 2, got {v}")),
            });
        }
        Ok(v)
    };
    let interp_num = [
        axis("interp_num_x", defaults.interp_num[0])?,
        axis("interp_num_y", defaults.interp_num[1])?,
        axis("interp_num_z", defaults.interp_num[2])?,
    ];
    let resolution = match map.get("resolution") {
        None => defaults.resolution,
        Some(n) => match scalar(n, "a resolution name")? {
            "coarse" => ResolutionChoice::Coarse,
            "medium" => ResolutionChoice::Medium,
            "fine" => ResolutionChoice::Fine,
            other => {
                return Err(SpecError {
                    line: n.line,
                    kind: SpecErrorKind::BadValue(format!(
                        "unknown resolution `{other}` (expected coarse, medium or fine)"
                    )),
                })
            }
        },
    };
    // A count above the mesh nodes along a block edge on its axis leaves
    // the global operator singular to round-off: count 6 in z at `coarse`
    // (5 nodes) fails every direct solve on a non-positive pivot, while
    // count 5 solves.
    let mesh = resolution.resolution();
    let lateral = mesh.lateral_cells() + 1;
    for ((key, count), nodes) in ["interp_num_x", "interp_num_y", "interp_num_z"]
        .into_iter()
        .zip(interp_num)
        .zip([lateral, lateral, mesh.z_cells + 1])
    {
        if count > nodes {
            return Err(SpecError {
                line: map.get(key).map_or(node.line, |n| n.line),
                kind: SpecErrorKind::BadValue(format!(
                    "{key} is {count}, but a block edge of the `{}` mesh carries only {nodes} \
                     nodes on that axis",
                    resolution.name()
                )),
            });
        }
    }
    let global_solver = match map.get("global_solver") {
        None => defaults.global_solver,
        Some(n) => match scalar(n, "a solver name")? {
            "direct" => SolverChoice::Direct,
            "gmres" => SolverChoice::Gmres,
            "cg" => SolverChoice::Cg,
            "auto" => SolverChoice::Auto,
            other => {
                return Err(SpecError {
                    line: n.line,
                    kind: SpecErrorKind::BadValue(format!(
                        "unknown global_solver `{other}` (expected direct, gmres, cg or auto)"
                    )),
                })
            }
        },
    };
    let shards = map.get("shards").map_or(Ok(defaults.shards), count)?;
    let verify = match map.get("verify") {
        None => defaults.verify,
        Some(n) => match scalar(n, "a verify policy")? {
            "off" => VerifyChoice::Off,
            "report" => VerifyChoice::Report,
            "enforce" => VerifyChoice::Enforce,
            other => {
                return Err(SpecError {
                    line: n.line,
                    kind: SpecErrorKind::BadValue(format!(
                        "unknown verify policy `{other}` (expected off, report or enforce)"
                    )),
                })
            }
        },
    };
    let tolerance = match map.get("tolerance") {
        None => defaults.tolerance,
        Some(n) => {
            let v = number(n)?;
            if v <= 0.0 {
                return Err(SpecError {
                    line: n.line,
                    kind: SpecErrorKind::BadValue(format!("tolerance must be positive, got {v}")),
                });
            }
            v
        }
    };
    Ok(SolverSpec {
        interp_num,
        resolution,
        global_solver,
        shards,
        verify,
        tolerance,
    })
}
