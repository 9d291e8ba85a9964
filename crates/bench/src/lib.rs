//! Shared harness for regenerating the MORE-Stress paper's experiments.
//!
//! `morestress repro` calls [`repro`], which drives the scenario runners in
//! this crate and prints their tables. Every experiment (Table 1, Table 2,
//! Table 3 / Fig. 6) has a runner that produces the same rows/series the
//! paper reports: wall time, peak memory and normalized MAE for the
//! full-FEM reference ("ANSYS substitute"), the linear-superposition
//! baseline and MORE-Stress.
//!
//! Absolute numbers differ from the paper (our substrate is a from-scratch
//! Rust FEM on laptop-scale meshes, not ANSYS on a 330 GB server), but the
//! *shape* — who wins, by what rough factor, how errors trend with array
//! size, pitch and interpolation order — is the reproduction target. The
//! full-FEM reference is capped by [`Scale::fem_limit`] (6×6 at
//! [`Scale::small`], 10×10 at [`Scale::paper`]); above the cap the error
//! columns print `-`.
//!
//! The crate also writes and validates the numeric bench records
//! ([`record_bench_entries`], [`check_bench_files`]; `morestress check`).

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use morestress_chiplet::{
    standard_locations, ChipletGeometry, ChipletModel, ChipletResolution, Submodel,
};
use morestress_core::{GlobalBc, MoreStressSimulator, RomError};
use morestress_fem::{
    normalized_mae, sample_von_mises, solve_thermal_stress, DirichletBcs, LinearSolver,
    MaterialSet, PlaneGrid, ScalarField2d,
};
use morestress_mesh::{array_mesh, BlockKind, BlockLayout, BlockResolution, TsvGeometry};
use morestress_superpos::SuperpositionSolver;

/// The thermal load used by all paper experiments (anneal 275 °C → 25 °C).
pub const DELTA_T: f64 = -250.0;

/// Experiment scale: how closely to approach the paper's problem sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name ("small", "paper").
    pub name: &'static str,
    /// Unit-block mesh resolution.
    pub res: BlockResolution,
    /// Interpolation nodes per axis for Tables 1 and 2.
    pub interp: [usize; 3],
    /// Array sizes of Table 1.
    pub sizes: Vec<usize>,
    /// Largest array for which the full-FEM reference is computed (beyond
    /// this, error columns are reported as `-`).
    pub fem_limit: usize,
    /// Von Mises samples per block edge (paper: 100).
    pub samples: usize,
    /// Core array size of Table 2 (paper: 15).
    pub table2_core: usize,
    /// Dummy rings around the Table 2 array (paper: 2).
    pub table2_rings: usize,
    /// Array size of the Table 3 convergence study (paper: 20).
    pub table3_size: usize,
    /// Interpolation counts swept by Table 3.
    pub table3_orders: Vec<usize>,
}

impl Scale {
    /// Laptop scale: runs all experiments in a few minutes.
    pub fn small() -> Self {
        Self {
            name: "small",
            res: BlockResolution::coarse(),
            // The paper uses (4,4,4) on large arrays; on this scale's tiny
            // arrays the boundary dominates, so one more node per axis is
            // needed for the paper's error ordering to emerge.
            interp: [5, 5, 5],
            sizes: vec![2, 4, 6, 8, 10],
            fem_limit: 6,
            samples: 10,
            table2_core: 3,
            table2_rings: 1,
            table3_size: 4,
            table3_orders: vec![2, 3, 4, 5, 6],
        }
    }

    /// Closer to the paper's setup (minutes to hours; the reference FEM is
    /// still capped well below 50×50 — a 50×50 paper-resolution reference
    /// needs hundreds of GB, which is the very cost the paper measures).
    pub fn paper() -> Self {
        Self {
            name: "paper",
            res: BlockResolution::medium(),
            interp: [4, 4, 4],
            sizes: vec![10, 20, 30, 40, 50],
            fem_limit: 10,
            samples: 25,
            table2_core: 15,
            table2_rings: 2,
            table3_size: 20,
            table3_orders: vec![2, 3, 4, 5, 6],
        }
    }

    /// Parses a `--scale` argument.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "small" => Some(Self::small()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

/// Cost/accuracy triple of one method on one case.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall time.
    pub time: Duration,
    /// Analytic peak heap estimate (bytes).
    pub bytes: usize,
    /// Normalized MAE vs the full-FEM reference (`None` when the reference
    /// was skipped, or for the reference itself).
    pub error: Option<f64>,
}

/// One row of Table 1 / Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label ("10x10", "loc3", …).
    pub label: String,
    /// Full-FEM reference cost (skipped above [`Scale::fem_limit`]).
    pub fem: Option<Measurement>,
    /// Linear superposition cost + error.
    pub superposition: Measurement,
    /// MORE-Stress cost + error.
    pub rom: Measurement,
}

/// The one-shot artifacts shared by the rows of one pitch.
pub struct OneShot {
    /// The ROM simulator (TSV + dummy models).
    pub sim: MoreStressSimulator,
    /// The superposition kernel.
    pub superpos: SuperpositionSolver,
    /// Wall time of the ROM local stage(s).
    pub local_stage_time: Duration,
    /// Wall time of the superposition kernel build.
    pub kernel_time: Duration,
}

/// Runs the one-shot stages for a pitch (local stage + kernel build).
///
/// # Errors
///
/// Propagates build failures from either method.
pub fn one_shot(geom: &TsvGeometry, scale: &Scale, build_dummy: bool) -> Result<OneShot, RomError> {
    let mats = MaterialSet::tsv_defaults();
    let t0 = Instant::now();
    let sim = MoreStressSimulator::builder(geom)
        .resolution(scale.res)
        .interpolation(scale.interp)
        .materials(mats.clone())
        .build_dummy(build_dummy)
        .build()?;
    let local_stage_time = t0.elapsed();
    let t0 = Instant::now();
    let superpos = SuperpositionSolver::build(geom, &scale.res, &mats).map_err(RomError::Fem)?;
    let kernel_time = t0.elapsed();
    Ok(OneShot {
        sim,
        superpos,
        local_stage_time,
        kernel_time,
    })
}

/// The scenario-1 reference field (clamped array, full FEM).
///
/// # Errors
///
/// Propagates FEM failures.
pub fn scenario1_reference(
    geom: &TsvGeometry,
    scale: &Scale,
    layout: &BlockLayout,
) -> Result<(ScalarField2d, Measurement), RomError> {
    let mats = MaterialSet::tsv_defaults();
    let t0 = Instant::now();
    let (field, stats) = morestress_superpos::reference_midplane_field(
        geom,
        &scale.res,
        &mats,
        layout,
        DELTA_T,
        scale.samples,
        LinearSolver::Auto,
    )?;
    Ok((
        field,
        Measurement {
            time: t0.elapsed(),
            bytes: stats.peak_bytes,
            error: None,
        },
    ))
}

/// Runs one Table 1 row: an `size × size` clamped array at the given pitch.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table1_row(
    geom: &TsvGeometry,
    scale: &Scale,
    shot: &OneShot,
    size: usize,
) -> Result<Row, RomError> {
    let layout = BlockLayout::uniform(size, size, BlockKind::Tsv);
    let reference = if size <= scale.fem_limit {
        Some(scenario1_reference(geom, scale, &layout)?)
    } else {
        None
    };

    let t0 = Instant::now();
    let ls_field = shot
        .superpos
        .evaluate_array(&layout, DELTA_T, scale.samples);
    let ls_time = t0.elapsed();
    let ls = Measurement {
        time: ls_time,
        bytes: shot.superpos.stats.kernel_bytes + ls_field.values.len() * 8,
        error: reference
            .as_ref()
            .map(|(f, _)| normalized_mae(&ls_field, f)),
    };

    let t0 = Instant::now();
    let solution = shot
        .sim
        .solve_array(&layout, DELTA_T, &GlobalBc::ClampedTopBottom)?;
    let rom_field = shot
        .sim
        .sample_midplane(&layout, &solution, DELTA_T, scale.samples)?;
    let rom_time = t0.elapsed();
    let rom = Measurement {
        time: rom_time,
        bytes: solution.stats.peak_bytes + rom_field.values.len() * 8,
        error: reference
            .as_ref()
            .map(|(f, _)| normalized_mae(&rom_field, f)),
    };

    Ok(Row {
        label: format!("{size}x{size}"),
        fem: reference.map(|(_, m)| m),
        superposition: ls,
        rom,
    })
}

/// Scenario-2 context: the coarse chiplet and the padded array layout.
pub struct Table2Setup {
    /// The solved coarse package model.
    pub chiplet: Arc<ChipletModel>,
    /// The padded array layout (core + dummy rings).
    pub layout: BlockLayout,
    /// Lateral size of the array box (µm).
    pub array_size: f64,
    /// The five array origins (loc1–loc5).
    pub locations: [[f64; 2]; 5],
}

/// Solves the coarse chiplet and places the Table 2 array.
///
/// # Errors
///
/// Propagates FEM failures from the coarse solve.
pub fn table2_setup(geom: &TsvGeometry, scale: &Scale) -> Result<Table2Setup, RomError> {
    let mats = MaterialSet::tsv_defaults();
    let chiplet_geom = ChipletGeometry::bench_defaults();
    let chiplet = Arc::new(
        ChipletModel::solve(&chiplet_geom, &ChipletResolution::coarse(), &mats, DELTA_T)
            .map_err(RomError::Fem)?,
    );
    let layout = BlockLayout::uniform(scale.table2_core, scale.table2_core, BlockKind::Tsv)
        .padded(scale.table2_rings);
    let array_size = geom.pitch * layout.nx() as f64;
    let locations = standard_locations(&chiplet_geom, array_size);
    Ok(Table2Setup {
        chiplet,
        layout,
        array_size,
        locations,
    })
}

/// Runs one Table 2 row: the array at location `loc_index` (0-based).
///
/// # Errors
///
/// Propagates solver failures.
pub fn table2_row(
    geom: &TsvGeometry,
    scale: &Scale,
    shot: &OneShot,
    setup: &Table2Setup,
    loc_index: usize,
) -> Result<Row, RomError> {
    let mats = MaterialSet::tsv_defaults();
    let sub = Submodel::new(&setup.chiplet, setup.locations[loc_index], setup.array_size);
    let layout = &setup.layout;

    // Reference: full FEM of the sub-model with coarse boundary data.
    let t0 = Instant::now();
    let mesh = array_mesh(geom, &scale.res, layout);
    let mut bcs = DirichletBcs::new();
    let bc_fn = sub.boundary_displacement(&setup.chiplet);
    for &n in &mesh.boundary_box_nodes() {
        bcs.set_node(n, bc_fn(mesh.nodes()[n]));
    }
    let fem = solve_thermal_stress(&mesh, &mats, DELTA_T, &bcs, LinearSolver::Auto)?;
    let grid = PlaneGrid::new(
        [0.0, 0.0],
        [setup.array_size, setup.array_size],
        0.5 * geom.height,
        scale.samples * layout.nx(),
        scale.samples * layout.ny(),
    );
    let reference = sample_von_mises(&mesh, &mats, &fem.displacement, DELTA_T, &grid)?;
    let fem_meas = Measurement {
        time: t0.elapsed(),
        bytes: fem.stats.peak_bytes,
        error: None,
    };

    // Linear superposition with the coarse background stress.
    let t0 = Instant::now();
    let bg = sub.background_stress(&setup.chiplet);
    let ls_field =
        shot.superpos
            .evaluate_array_with_background(layout, DELTA_T, scale.samples, |p| bg(p));
    let ls = Measurement {
        time: t0.elapsed(),
        bytes: shot.superpos.stats.kernel_bytes + ls_field.values.len() * 8,
        error: Some(normalized_mae(&ls_field, &reference)),
    };

    // MORE-Stress through sub-modeling.
    let t0 = Instant::now();
    let bc = GlobalBc::SubmodelBoundary(sub.boundary_displacement(&setup.chiplet));
    let solution = shot.sim.solve_array(layout, DELTA_T, &bc)?;
    let rom_field = shot
        .sim
        .sample_midplane(layout, &solution, DELTA_T, scale.samples)?;
    let rom = Measurement {
        time: t0.elapsed(),
        bytes: solution.stats.peak_bytes + rom_field.values.len() * 8,
        error: Some(normalized_mae(&rom_field, &reference)),
    };

    Ok(Row {
        label: format!("loc{}", loc_index + 1),
        fem: Some(fem_meas),
        superposition: ls,
        rom,
    })
}

/// One point of the Table 3 / Fig. 6 convergence series.
#[derive(Debug, Clone, Copy)]
pub struct ConvergencePoint {
    /// Interpolation nodes per axis.
    pub order: usize,
    /// Element DoFs `n` (Eq. 16).
    pub n: usize,
    /// One-shot local stage runtime.
    pub local_time: Duration,
    /// Global stage runtime (solve + sampling).
    pub global_time: Duration,
    /// Normalized MAE vs the full-FEM reference.
    pub error: f64,
}

/// Runs the Table 3 / Fig. 6 convergence sweep.
///
/// # Errors
///
/// Propagates solver failures.
pub fn table3_series(geom: &TsvGeometry, scale: &Scale) -> Result<Vec<ConvergencePoint>, RomError> {
    let mats = MaterialSet::tsv_defaults();
    let layout = BlockLayout::uniform(scale.table3_size, scale.table3_size, BlockKind::Tsv);
    let (reference, _) = scenario1_reference(geom, scale, &layout)?;
    let mut out = Vec::new();
    for &m in &scale.table3_orders {
        let t0 = Instant::now();
        let sim = MoreStressSimulator::builder(geom)
            .resolution(scale.res)
            .interpolation([m, m, m])
            .materials(mats.clone())
            .build()?;
        let local_time = t0.elapsed();
        let t0 = Instant::now();
        let solution = sim.solve_array(&layout, DELTA_T, &GlobalBc::ClampedTopBottom)?;
        let field = sim.sample_midplane(&layout, &solution, DELTA_T, scale.samples)?;
        let global_time = t0.elapsed();
        out.push(ConvergencePoint {
            order: m,
            n: sim.tsv_model().num_dofs(),
            local_time,
            global_time,
            error: normalized_mae(&field, &reference),
        });
    }
    Ok(out)
}

/// The experiments [`repro`] regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table 1: standalone TSV arrays (scenario 1).
    Table1,
    /// Table 2: a sub-modeled array in a chiplet (scenario 2).
    Table2,
    /// Table 3: convergence in the interpolation count.
    Table3,
    /// Fig. 6: the Table 3 series as error and runtime against `n`.
    Fig6,
    /// All of the above, in that order.
    All,
}

impl Experiment {
    /// Parses a `morestress repro` experiment name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "table1" => Some(Self::Table1),
            "table2" => Some(Self::Table2),
            "table3" => Some(Self::Table3),
            "fig6" => Some(Self::Fig6),
            "all" => Some(Self::All),
            _ => None,
        }
    }
}

/// Regenerates `which` at `scale` and prints its tables to stdout, then
/// the process peak RSS.
///
/// # Errors
///
/// The first runner failure; the tables printed before it stay printed.
pub fn repro(which: Experiment, scale: &Scale) -> Result<(), RomError> {
    println!("MORE-Stress reproduction harness — scale '{}'", scale.name);
    println!("(absolute numbers are laptop-scale; compare *shapes* to the paper)\n");
    let runs = |e: Experiment| which == e || which == Experiment::All;
    if runs(Experiment::Table1) {
        print_table1(scale)?;
    }
    if runs(Experiment::Table2) {
        print_table2(scale)?;
    }
    // Table 3 and Fig. 6 are two views of one series, computed once.
    if runs(Experiment::Table3) || runs(Experiment::Fig6) {
        let series = table3_series(&TsvGeometry::paper_defaults(15.0), scale)?;
        if runs(Experiment::Table3) {
            print_table3(scale, &series);
        }
        if runs(Experiment::Fig6) {
            print_fig6(&series);
        }
    }
    if let Some(rss) = peak_rss_bytes() {
        println!("\n[process peak RSS: {}]", fmt_bytes(rss));
    }
    Ok(())
}

fn print_rows(rows: &[Row]) {
    let line = |group: &str, what: &str, cell: &dyn Fn(&Row) -> String| {
        let cells: String = rows.iter().map(|r| format!("{:>12}", cell(r))).collect();
        println!("{group:<22}{what:>9}{cells}");
    };
    let time = |d: Duration| format!("{d:.2?}");
    line("", "", &|r| r.label.clone());
    line("FEM (ours)", "time", &|r| {
        r.fem.map_or("-".into(), |m| time(m.time))
    });
    line("", "memory", &|r| {
        r.fem.map_or("-".into(), |m| fmt_bytes(m.bytes))
    });
    line("Linear superposition", "time", &|r| {
        time(r.superposition.time)
    });
    line("", "memory", &|r| fmt_bytes(r.superposition.bytes));
    line("", "error", &|r| fmt_err(r.superposition.error));
    line("Ours (MORE-Stress)", "time", &|r| time(r.rom.time));
    line("", "memory", &|r| fmt_bytes(r.rom.bytes));
    line("", "error", &|r| fmt_err(r.rom.error));
    // Improvement rows, as in the paper.
    line("Improve. over FEM", "time", &|r| {
        r.fem.map_or("-".into(), |m| {
            let ratio = m.time.as_secs_f64() / r.rom.time.as_secs_f64().max(1e-9);
            format!("{ratio:.0}x")
        })
    });
    line("", "memory", &|r| {
        r.fem.map_or("-".into(), |m| {
            format!("{:.0}x", m.bytes as f64 / r.rom.bytes.max(1) as f64)
        })
    });
    line(
        "Improve. over LS",
        "accuracy",
        &|r| match (r.superposition.error, r.rom.error) {
            (Some(ls), Some(rom)) if rom > 0.0 => format!("{:.1}x", ls / rom),
            _ => "-".into(),
        },
    );
}

fn print_table1(scale: &Scale) -> Result<(), RomError> {
    println!("== Table 1: standalone TSV arrays (scenario 1) ==");
    for pitch in [15.0, 10.0] {
        let geom = TsvGeometry::paper_defaults(pitch);
        println!("\n-- p = {pitch} µm --");
        let shot = one_shot(&geom, scale, false)?;
        println!(
            "one-shot local stage: {:.2?} (superposition kernel: {:.2?})",
            shot.local_stage_time, shot.kernel_time
        );
        let rows = scale
            .sizes
            .iter()
            .map(|&s| table1_row(&geom, scale, &shot, s))
            .collect::<Result<Vec<_>, _>>()?;
        print_rows(&rows);
    }
    Ok(())
}

fn print_table2(scale: &Scale) -> Result<(), RomError> {
    println!("\n== Table 2: sub-modeled array in a chiplet (scenario 2) ==");
    for pitch in [15.0, 10.0] {
        let geom = TsvGeometry::paper_defaults(pitch);
        println!("\n-- p = {pitch} µm --");
        let shot = one_shot(&geom, scale, true)?;
        let setup = table2_setup(&geom, scale)?;
        println!(
            "coarse chiplet solve: {:.2?}, warpage {:.2} µm; array {}x{} (+{} dummy rings)",
            setup.chiplet.solve_time,
            setup.chiplet.warpage(),
            scale.table2_core,
            scale.table2_core,
            scale.table2_rings,
        );
        let rows = (0..5)
            .map(|loc| table2_row(&geom, scale, &shot, &setup, loc))
            .collect::<Result<Vec<_>, _>>()?;
        print_rows(&rows);
    }
    Ok(())
}

fn print_fig6(series: &[ConvergencePoint]) {
    println!("\n== Fig. 6: error & runtime vs element DoFs n (log-scale error) ==");
    println!(
        "{:>6} {:>8} {:>12} {:>14}",
        "n", "error%", "global", "(nx,ny,nz)"
    );
    for p in series {
        println!(
            "{:>6} {:>8.3} {:>12.2?}   ({m},{m},{m})",
            p.n,
            p.error * 100.0,
            p.global_time,
            m = p.order
        );
    }
}

fn print_table3(scale: &Scale, series: &[ConvergencePoint]) {
    println!(
        "\n== Table 3: convergence on a {}x{} array, p = 15 µm ==",
        scale.table3_size, scale.table3_size
    );
    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>9}",
        "(nx,ny,nz)", "n", "local stage", "global stage", "error"
    );
    for p in series {
        println!(
            "({m},{m},{m})    {:>6} {:>14.2?} {:>14.2?} {:>8.3}%",
            p.n,
            p.local_time,
            p.global_time,
            p.error * 100.0,
            m = p.order
        );
    }
}

/// Formats a byte count like the paper's memory columns.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2} G", bytes as f64 / (1u64 << 30) as f64)
    } else {
        format!("{:.1} M", bytes as f64 / (1u64 << 20) as f64)
    }
}

/// A 2-D 5-point lattice with mildly jittered diagonal (`nx · ny` DoFs) —
/// the test operator of the `ablation_resilience` emitter.
pub fn jittered_lattice(nx: usize, ny: usize) -> morestress_linalg::CsrMatrix {
    let n = nx * ny;
    let id = |i: usize, j: usize| j * nx + i;
    let mut coo = morestress_linalg::CooMatrix::new(n, n);
    for j in 0..ny {
        for i in 0..nx {
            let me = id(i, j);
            coo.push(me, me, 4.0 + 0.1 + 0.05 * ((me * 7) % 5) as f64);
            let mut link = |other: usize| coo.push(me, other, -1.0);
            if i > 0 {
                link(id(i - 1, j));
            }
            if i + 1 < nx {
                link(id(i + 1, j));
            }
            if j > 0 {
                link(id(i, j - 1));
            }
            if j + 1 < ny {
                link(id(i, j + 1));
            }
        }
    }
    coo.to_csr()
}

/// Times `f` three times and returns the median in milliseconds together
/// with the last result.
pub fn time3<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut out = None;
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(f());
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();
    (
        samples[1].as_secs_f64() * 1e3,
        out.expect("ran at least once"),
    )
}

/// Formats an optional error as a percentage.
pub fn fmt_err(e: Option<f64>) -> String {
    e.map_or_else(|| "-".to_string(), |v| format!("{:.2}%", v * 100.0))
}

/// Linux peak-RSS readout (`VmHWM`), for a sanity cross-check of the
/// analytic memory estimates. Returns `None` off Linux.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Path of a machine-readable benchmark record at the workspace root
/// (`BENCH_PR8.json`).
pub fn bench_json_path_for(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// One bench-record section: a name plus its key → number entries.
pub type BenchSection = (String, Vec<(String, f64)>);

/// `hardware_threads` of this machine, as recorded in every bench section.
pub fn hardware_threads() -> f64 {
    std::thread::available_parallelism().map_or(1, |p| p.get()) as f64
}

/// The current git commit as a number (the first 12 hex digits of `HEAD`,
/// parsed base-16 — 48 bits, exact in an `f64`), or 0 when git is
/// unavailable. The bench records are numbers-only JSON, so the hash is
/// stored numerically; `format!("{:012x}", v as u64)` recovers the short
/// hash.
pub fn git_commit_number() -> f64 {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| u64::from_str_radix(String::from_utf8_lossy(&out.stdout).trim(), 16).ok())
        .map_or(0.0, |v| v as f64)
}

/// Merges one section of benchmark numbers into the named record file at
/// the workspace root.
///
/// The file is a flat two-level JSON object `{section: {key: number}}`;
/// the section is overwritten and any others are left in place. Every
/// written section is stamped with [`hardware_threads`] and
/// [`git_commit_number`] (caller-provided values for those keys are
/// replaced), which is what `morestress check` verifies. The
/// stored format is exactly what [`parse_bench_json`] reads back — no
/// external JSON dependency.
///
/// # Errors
///
/// Returns the I/O error when the record cannot be written.
pub fn record_bench_entries(
    file: &str,
    section: &str,
    mut entries: Vec<(String, f64)>,
) -> std::io::Result<()> {
    let path = bench_json_path_for(file);
    let mut sections: Vec<BenchSection> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_bench_json(&text))
        .unwrap_or_default();
    sections.retain(|(name, _)| name != section);
    entries.retain(|(k, _)| k != "hardware_threads" && k != "git_commit");
    entries.push(("hardware_threads".to_string(), hardware_threads()));
    entries.push(("git_commit".to_string(), git_commit_number()));
    sections.push((section.to_string(), entries));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(&path, format_bench_sections(&sections))
}

/// Serializes sections into the two-level `{section: {key: number}}` text
/// that [`parse_bench_json`] reads back — shared by
/// [`record_bench_entries`] and the campaign results writer. Section
/// order is preserved as given.
pub fn format_bench_sections(sections: &[BenchSection]) -> String {
    let mut out = String::from("{\n");
    for (si, (name, kvs)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{name}\": {{\n"));
        for (ki, (k, v)) in kvs.iter().enumerate() {
            let comma = if ki + 1 < kvs.len() { "," } else { "" };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        let comma = if si + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  }}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the two-level `{section: {key: number}}` JSON object that
/// [`format_bench_sections`] writes, whatever its layout: tokens may be
/// separated by any whitespace, on one line or many. Returns `None` on
/// anything else — a third level, a value that is not a number, a string
/// with escapes, trailing text (the writer then starts a fresh file).
/// Values parse as Rust `f64` literals, so a non-finite one written as
/// `NaN` or `inf` reads back for [`check_bench_sections`] to name.
pub fn parse_bench_json(text: &str) -> Option<Vec<BenchSection>> {
    let mut json = JsonCursor(text);
    json.eat('{')?;
    let sections = json.list('}', |json| {
        let name = json.string()?;
        json.eat(':')?;
        json.eat('{')?;
        let entries = json.list('}', |json| {
            let key = json.string()?;
            json.eat(':')?;
            Some((key, json.number()?))
        })?;
        Some((name, entries))
    })?;
    json.0.trim_start().is_empty().then_some(sections)
}

/// The unread rest of a bench record's text.
struct JsonCursor<'a>(&'a str);

impl JsonCursor<'_> {
    /// Skips whitespace, then consumes `c`; consumes nothing on a mismatch.
    fn eat(&mut self, c: char) -> Option<()> {
        self.0 = self.0.trim_start().strip_prefix(c)?;
        Some(())
    }

    /// Comma-separated items up to and including `close`.
    fn list<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close).is_some() {
                return Some(items);
            }
            self.eat(',')?;
        }
    }

    /// A string without escapes.
    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let (s, rest) = self.0.split_once('"')?;
        if s.contains('\\') {
            return None;
        }
        self.0 = rest;
        Some(s.to_string())
    }

    /// The text up to the next delimiter, as an `f64`.
    fn number(&mut self) -> Option<f64> {
        let rest = self.0.trim_start();
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(rest.len());
        self.0 = &rest[end..];
        rest[..end].parse().ok()
    }
}

/// Validates one parsed bench record against the artifact schema
/// `morestress check` enforces: at least one section, every
/// section non-empty, every value finite, and the uniform
/// [`record_bench_entries`] stamps present (`hardware_threads >= 1` and
/// `git_commit`). Returns the violations found (empty means valid).
pub fn check_bench_sections(sections: &[BenchSection]) -> Vec<String> {
    let mut problems = Vec::new();
    if sections.is_empty() {
        problems.push("record has no sections".to_string());
    }
    for (name, entries) in sections {
        if entries.is_empty() {
            problems.push(format!("section {name:?} is empty"));
        }
        for (key, value) in entries {
            if !value.is_finite() {
                problems.push(format!("section {name:?}: {key} = {value} is not finite"));
            }
        }
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        match get("hardware_threads") {
            None => problems.push(format!("section {name:?} is missing hardware_threads")),
            Some(v) if v < 1.0 => {
                problems.push(format!("section {name:?}: hardware_threads = {v} < 1"));
            }
            Some(_) => {}
        }
        if get("git_commit").is_none() {
            problems.push(format!("section {name:?} is missing git_commit"));
        }
    }
    problems
}

/// Validates each bench record file against the artifact schema
/// ([`parse_bench_json`], then [`check_bench_sections`]): prints one `ok`
/// line per valid file to stdout and one `FAIL` line per problem, naming
/// the file, to stderr. Returns whether every file passed.
pub fn check_bench_files(paths: &[impl AsRef<std::path::Path>]) -> bool {
    let mut all_ok = true;
    for path in paths {
        let name = path.as_ref().display();
        let problems = match std::fs::read_to_string(path) {
            Err(e) => vec![format!("unreadable: {e}")],
            Ok(text) => match parse_bench_json(&text) {
                None => vec!["not in the {section: {key: number}} format".to_string()],
                Some(sections) => {
                    let problems = check_bench_sections(&sections);
                    if problems.is_empty() {
                        let keys: usize = sections.iter().map(|(_, kv)| kv.len()).sum();
                        println!("ok   {name}: {} sections, {keys} keys", sections.len());
                    }
                    problems
                }
            },
        };
        for problem in &problems {
            eprintln!("FAIL {name}: {problem}");
        }
        all_ok &= problems.is_empty();
    }
    all_ok
}
