//! Per-layer replays of the traced run.
//!
//! The op spans say how long a public call took; they cannot split it.
//! These replays call each layer's own public functions on what the run
//! captured — the unit block of the spec, the operator the shim saw — and
//! time them one by one.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use morestress_campaign::CampaignSpec;
use morestress_core::{InterpolationGrid, LocalStage, LocalStageOptions, ReducedOrderModel};
use morestress_fem::assemble_system;
use morestress_linalg::{
    matrix_fingerprint, Cg, CsrMatrix, DirectCholesky, FillOrdering, Gmres, KernelChoice,
    MemoryFootprint, PartitionHint, ShardPlan, SolverBackend, SupernodalCholesky,
    SupernodalOptions, WorkPool,
};
use morestress_mesh::{unit_block_mesh, BlockKind};

use crate::metrics::Values;
use crate::stats::median;

/// Calls timed per replayed layer — fewer once a layer has used up
/// [`REPLAY_BUDGET_S`], so a one-second layer is timed once and a
/// millisecond layer three times.
const REPS: usize = 3;
const REPLAY_BUDGET_S: f64 = 1.0;

/// Tolerance of the iterative-backend replays.
const ITERATIVE_TOL: f64 = 1e-10;

/// Median wall time of `f` in milliseconds over up to [`REPS`] calls, with
/// the last result.
fn time_ms<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(REPS);
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        if samples.len() == REPS || started.elapsed().as_secs_f64() >= REPLAY_BUDGET_S {
            return (median(&samples), out);
        }
    }
}

/// Replays the one-shot local stage of `spec`'s TSV block layer by layer:
/// mesh, FEM assembly, the whole `LocalStage::build`, then — on the
/// `A_ff` rebuilt through the same public calls — the factorization and
/// the n+1 right-hand-side panel sweep; `local.rest_ms` (DoF partition,
/// lifting, Galerkin projection) is what remains. Also times `.rom`
/// save/load of the built model at `<rom_stem>-replay.rom`.
///
/// # Errors
///
/// A description of the first failing layer.
pub fn local_stage(spec: &CampaignSpec, rom_stem: &Path) -> Result<Values, String> {
    let geom = &spec.geometry;
    let res = spec.solver.resolution.resolution();
    let materials = spec.material_set();
    let interp = InterpolationGrid::new(spec.solver.interp_num);
    let mut out = Values::default();

    let (mesh_ms, mesh) = time_ms(|| unit_block_mesh(geom, &res, true));
    out.set("mesh.unit_block_ms", mesh_ms);
    out.set("mesh.nodes", mesh.num_nodes() as f64);

    let (assemble_ms, system) = time_ms(|| assemble_system(&mesh, &materials));
    let system = system.map_err(|e| format!("fem assembly: {e}"))?;
    out.set("fem.assemble_ms", assemble_ms);
    out.set("fem.nnz", system.stiffness.nnz() as f64);

    let stage = LocalStage::new(geom, &res, interp, &materials, BlockKind::Tsv);
    let (build_ms, rom) = time_ms(|| stage.build(&LocalStageOptions::default()));
    let rom: ReducedOrderModel = rom.map_err(|e| format!("local stage: {e}"))?;
    let stats = rom.local_stats;
    out.set("local.build_ms", build_ms);
    out.set("local.fine_dofs", stats.fine_dofs as f64);
    out.set("local.num_basis", stats.num_basis as f64);
    out.set("local.factor_nnz", stats.factor_nnz as f64);
    out.set("local.peak_bytes_est", stats.peak_bytes as f64);

    // A_ff exactly as the local stage extracts it: interior-node DoFs.
    let mut interior = vec![true; mesh.num_nodes()];
    for node in mesh.boundary_box_nodes() {
        interior[node] = false;
    }
    let free: Vec<usize> = (0..mesh.num_nodes())
        .filter(|&n| interior[n])
        .flat_map(|n| [3 * n, 3 * n + 1, 3 * n + 2])
        .collect();
    let mut col_map = vec![None; system.stiffness.nrows()];
    for (new, &old) in free.iter().enumerate() {
        col_map[old] = Some(new);
    }
    let a_ff = Arc::new(system.stiffness.extract(&free, &col_map, free.len()));
    let (factor_ms, prepared) = time_ms(|| DirectCholesky::default().prepare(Arc::clone(&a_ff)));
    let prepared = prepared.map_err(|e| format!("local factor: {e}"))?;
    out.set("local.factor_ms", factor_ms);

    // The sweep cost depends on the panel shape, not the values: n basis
    // columns plus the thermal one, all carrying the thermal load.
    let b_free: Vec<f64> = free.iter().map(|&d| system.thermal_load[d]).collect();
    let rhs = vec![b_free; stats.num_basis + 1];
    let threads = WorkPool::current().cap();
    let (sweeps_ms, solved) = time_ms(|| prepared.solve_many(&rhs, threads));
    solved.map_err(|e| format!("local sweeps: {e}"))?;
    out.set("local.sweeps_ms", sweeps_ms);
    out.set(
        "local.rest_ms",
        build_ms - mesh_ms - assemble_ms - factor_ms - sweeps_ms,
    );

    let mut path = rom_stem.as_os_str().to_owned();
    path.push("-replay.rom");
    let path = Path::new(&path);
    let (save_ms, saved) = time_ms(|| rom.save(path));
    saved.map_err(|e| format!("rom save: {e}"))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("rom stat: {e}"))?
        .len();
    let (load_ms, loaded) = time_ms(|| ReducedOrderModel::load(path));
    loaded.map_err(|e| format!("rom load: {e}"))?;
    out.set("model.rom_save_ms", save_ms);
    out.set("model.rom_load_ms", load_ms);
    out.set("model.rom_bytes", bytes as f64);
    let _ = std::fs::remove_file(path);
    Ok(out)
}

/// Replays the `linalg` layers on a captured global operator: fingerprint,
/// ordering, symbolic + numeric factor with the permutation given, the
/// whole `prepare` on the run's one-worker pool and on one of
/// `min(nproc, 4)` workers, and
/// the triangular sweeps for one right-hand side and a panel of eight.
///
/// # Errors
///
/// A description of the first failing layer.
pub fn direct_solver(a: &Arc<CsrMatrix>) -> Result<Values, String> {
    let mut out = Values::default();
    let (fingerprint_ms, _) = time_ms(|| matrix_fingerprint(a));
    out.set("cache.fingerprint_ms", fingerprint_ms);

    let ordering = FillOrdering::default();
    let (perm_ms, perm) = time_ms(|| ordering.permutation(a));
    out.set("ordering.perm_ms", perm_ms);

    let opts = SupernodalOptions::default();
    let (numeric_ms, factor) =
        time_ms(|| SupernodalCholesky::factor_with_permutation(a, perm.clone(), &opts));
    let factor = factor.map_err(|e| format!("supernodal factor: {e}"))?;
    let stats = factor.stats();
    out.set("factor.numeric_ms", numeric_ms);
    out.set("factor.nnz", factor.factor_nnz() as f64);
    out.set("factor.bytes_est", factor.heap_bytes() as f64);
    out.set("factor.supernodes", stats.supernodes as f64);
    out.set(
        "factor.critical_path_frac",
        stats.critical_path as f64 / (stats.total_work as f64).max(1.0),
    );
    drop(factor);

    // The run's own pool has one worker; the parallel factorization is
    // replayed once beside it on a pool of `min(nproc, 4)`.
    let backend = DirectCholesky::default();
    let prepare = || backend.prepare(Arc::clone(a));
    let (serial_ms, prepared) = time_ms(prepare);
    let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
    let wide = WorkPool::new(crate::env::parallel_pool_cap());
    let (wide_ms, parallel) = time_ms(|| wide.install(prepare));
    parallel.map_err(|e| format!("parallel prepare: {e}"))?;
    out.set("factor.prepare_ms_1w", serial_ms);
    out.set("factor.par_speedup", serial_ms / wide_ms);

    let threads = WorkPool::current().cap();
    let rhs = vec![vec![1.0; a.nrows()]; 8];
    let (one_ms, solved) = time_ms(|| prepared.solve_many(&rhs[..1], threads));
    solved.map_err(|e| format!("sweep: {e}"))?;
    let (panel_ms, solved) = time_ms(|| prepared.solve_many(&rhs, threads));
    solved.map_err(|e| format!("panel sweep: {e}"))?;
    out.set("sweep.ms_per_rhs", one_ms);
    out.set("sweep.panel8_ms", panel_ms);
    Ok(out)
}

/// Replays the geometric shard planner on a captured operator and its
/// partition hint.
pub fn shard_plan(a: &CsrMatrix, shards: usize, hint: Option<&PartitionHint>) -> Values {
    let mut out = Values::default();
    let (plan_ms, plan) = time_ms(|| ShardPlan::build_hinted(a, shards, hint));
    let stats = plan.stats();
    out.set("shard.plan_ms", plan_ms);
    out.set("shard.interface_dofs", stats.interface_dofs as f64);
    out.set("shard.balance_ratio", stats.balance_ratio);
    out
}

/// Solves `A x = 1` on a captured operator with the two iterative
/// backends at `ITERATIVE_TOL` (once each — they are slow), recording
/// time and iterations. No workload runs these backends; the numbers give
/// a later backend change its before/after.
///
/// # Errors
///
/// A description of the failing backend.
pub fn iterative(a: &Arc<CsrMatrix>) -> Result<Values, String> {
    let mut out = Values::default();
    let b = vec![1.0; a.nrows()];
    let mut replay = |backend: &dyn SolverBackend,
                      ms: &'static str,
                      iters: &'static str|
     -> Result<(), String> {
        let t0 = Instant::now();
        let solution = backend
            .prepare(Arc::clone(a))
            .and_then(|prepared| prepared.solve(&b))
            .map_err(|e| format!("{}: {e}", backend.name()))?;
        out.set(ms, t0.elapsed().as_secs_f64() * 1e3);
        out.set(iters, solution.report.iterations.unwrap_or(0) as f64);
        Ok(())
    };
    replay(
        &Gmres::with_tol(ITERATIVE_TOL),
        "iterative.gmres_ms",
        "iterative.gmres_iters",
    )?;
    replay(
        &Cg::with_tol(ITERATIVE_TOL),
        "iterative.cg_ms",
        "iterative.cg_iters",
    )?;
    Ok(out)
}

/// Shape of the rank-k microbenchmark: a 512-row panel of 32 descendant
/// columns updating a 32-wide target — 2·32·32·512 = 1 048 576 flops per
/// call, [`RANK_UPDATE_CALLS`] calls per timing.
const RANK_UPDATE_SHAPE: (usize, usize, usize) = (512, 32, 32);
const RANK_UPDATE_CALLS: usize = 256;

/// Throughput of the default dense kernel's rank-k update on the fixed
/// shape above.
pub fn kernel() -> Values {
    let (m, wd, wj) = RANK_UPDATE_SHAPE;
    let kernel = KernelChoice::default().kernel();
    let panel: Vec<f64> = (0..wd * m).map(|i| (i as f64 * 0.37).sin()).collect();
    // The buffer accumulates across calls (|entry| ≤ wd · calls), which
    // keeps the hot loop free of memset traffic.
    let mut update = vec![0.0_f64; wj * m];
    let (ms, ()) = time_ms(|| {
        for _ in 0..RANK_UPDATE_CALLS {
            kernel.rank_update(&mut update, &panel, m, 0, wj, wd);
        }
        std::hint::black_box(&mut update);
    });
    let flops = 2.0 * (wd * wj * m * RANK_UPDATE_CALLS) as f64;
    let mut out = Values::default();
    out.set("kernel.rank_update_gflops", flops / (ms * 1e6));
    out
}
