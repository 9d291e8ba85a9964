//! The global stage (§4.3 of the paper).
//!
//! Once the one-shot local stage has produced a [`ReducedOrderModel`], the
//! unit block becomes an abstract "element" whose DoFs are the displacement
//! components of its surface interpolation nodes. A TSV array is an abstract
//! "mesh" of such elements sharing nodes on common faces; the global
//! stiffness and load are assembled by the standard FEM procedure and the
//! resulting small sparse system is solved with GMRES (the paper's choice),
//! CG or a direct factorization.
//!
//! The system is assembled *reduced*: the boundary conditions fix whole
//! nodes (under [`GlobalBc::ClampedTopBottom`] more than half of every
//! block's), so each element scatters its free×free sub-block straight into
//! `A_ff` and its free×fixed sub-block, times the prescribed data, into the
//! lifting term. The unreduced global operator is never formed.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant};

use morestress_fem::{DirichletBcs, FemError, ReducedSystem};
use morestress_linalg::{
    huge_with_capacity, huge_zeroed, CsrMatrix, FactorCache, LinearSolver, MemoryFootprint,
    PartitionHint, SolveReport, SolverBackend, VerifyPolicy, WorkPool,
};
use morestress_mesh::{BlockKind, BlockLayout};

use crate::{ReducedOrderModel, RomError};

/// Boundary conditions of the global problem.
#[derive(Clone)]
pub enum GlobalBc {
    /// Scenario 1: the top and bottom surfaces of the array are clamped,
    /// lateral surfaces free.
    ClampedTopBottom,
    /// Scenario 2 (sub-modeling, §4.4): every node on the outer boundary of
    /// the array is assigned the displacement interpolated from a coarse
    /// package-level solution. The closure receives the node position in the
    /// array's local frame (origin at the array's lower corner).
    SubmodelBoundary(Arc<dyn Fn([f64; 3]) -> [f64; 3] + Send + Sync>),
}

impl fmt::Debug for GlobalBc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalBc::ClampedTopBottom => f.write_str("GlobalBc::ClampedTopBottom"),
            GlobalBc::SubmodelBoundary(_) => f.write_str("GlobalBc::SubmodelBoundary(..)"),
        }
    }
}

/// The backend of a [`GlobalStage`] built without
/// [`with_backend`](GlobalStage::with_backend): the paper's GMRES of
/// [`LinearSolver::default`]. It holds no state, so one instance serves
/// every such stage.
static DEFAULT_BACKEND: LazyLock<Box<dyn SolverBackend>> =
    LazyLock::new(|| LinearSolver::default().backend(VerifyPolicy::Off));

/// The lattice of global interpolation nodes of an array.
///
/// Within block `(I, J)`, local interpolation node `(i, j, k)` maps to
/// lattice coordinates `(I·(nx−1)+i, J·(ny−1)+j, k)`; nodes on shared block
/// faces coincide, which is exactly how the abstract elements are stitched
/// together. Only nodes on some block surface exist ("active" nodes).
#[derive(Debug, Clone)]
pub struct GlobalLattice {
    counts: [usize; 3],
    spacing: [f64; 3],
    interp_counts: [usize; 3],
    /// lattice index -> active node id (usize::MAX if inactive)
    ids: Vec<usize>,
    /// active node id -> lattice coordinates
    coords: Vec<[usize; 3]>,
}

const INACTIVE: usize = usize::MAX;

impl GlobalLattice {
    /// Builds the lattice for `layout` with per-block interpolation counts
    /// `(nx, ny, nz)` and block extents `(p, p, h)`.
    pub fn new(layout: &BlockLayout, interp_counts: [usize; 3], extents: [f64; 3]) -> Self {
        let [nx, ny, nz] = interp_counts;
        let counts = [(nx - 1) * layout.nx() + 1, (ny - 1) * layout.ny() + 1, nz];
        let spacing = [
            extents[0] / (nx - 1) as f64,
            extents[1] / (ny - 1) as f64,
            extents[2] / (nz - 1) as f64,
        ];
        let active = |a: usize, b: usize, c: usize| {
            a.is_multiple_of(nx - 1) || b.is_multiple_of(ny - 1) || c == 0 || c == nz - 1
        };
        let mut ids = vec![INACTIVE; counts[0] * counts[1] * counts[2]];
        let mut coords = Vec::new();
        for c in 0..counts[2] {
            for b in 0..counts[1] {
                for a in 0..counts[0] {
                    if active(a, b, c) {
                        ids[(c * counts[1] + b) * counts[0] + a] = coords.len();
                        coords.push([a, b, c]);
                    }
                }
            }
        }
        Self {
            counts,
            spacing,
            interp_counts,
            ids,
            coords,
        }
    }

    /// Number of active (surface) nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of global DoFs (3 per active node).
    pub fn num_dofs(&self) -> usize {
        3 * self.num_nodes()
    }

    /// Active node id at lattice coordinates, if the node exists.
    pub fn node_at(&self, a: usize, b: usize, c: usize) -> Option<usize> {
        if a >= self.counts[0] || b >= self.counts[1] || c >= self.counts[2] {
            return None;
        }
        match self.ids[(c * self.counts[1] + b) * self.counts[0] + a] {
            INACTIVE => None,
            id => Some(id),
        }
    }

    /// Physical position of active node `id` in the array's local frame.
    pub fn position(&self, id: usize) -> [f64; 3] {
        let [a, b, c] = self.coords[id];
        [
            a as f64 * self.spacing[0],
            b as f64 * self.spacing[1],
            c as f64 * self.spacing[2],
        ]
    }

    /// Whether active node `id` lies on the outer boundary of the array
    /// (any of the 6 outer faces).
    pub fn is_outer_boundary(&self, id: usize) -> bool {
        let [a, b, c] = self.coords[id];
        a == 0
            || a == self.counts[0] - 1
            || b == 0
            || b == self.counts[1] - 1
            || c == 0
            || c == self.counts[2] - 1
    }

    /// Whether active node `id` lies on the top or bottom surface.
    pub fn is_top_or_bottom(&self, id: usize) -> bool {
        let c = self.coords[id][2];
        c == 0 || c == self.counts[2] - 1
    }

    /// The active node ids of block `(bi, bj)`, in the canonical element-DoF
    /// order (the [`InterpolationGrid::surface_nodes`] order).
    ///
    /// [`InterpolationGrid::surface_nodes`]: crate::InterpolationGrid::surface_nodes
    pub fn block_nodes(&self, bi: usize, bj: usize) -> Vec<usize> {
        self.block_node_ids(bi, bj).collect()
    }

    /// [`block_nodes`](Self::block_nodes) without the `Vec`.
    fn block_node_ids(&self, bi: usize, bj: usize) -> impl Iterator<Item = usize> + '_ {
        let [nx, ny, nz] = self.interp_counts;
        (0..nz)
            .flat_map(move |k| (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, k))))
            .filter(move |&(i, j, k)| {
                i == 0 || i == nx - 1 || j == 0 || j == ny - 1 || k == 0 || k == nz - 1
            })
            .map(move |(i, j, k)| {
                self.node_at(bi * (nx - 1) + i, bj * (ny - 1) + j, k)
                    .expect("block surface nodes are always active")
            })
    }
}

/// Cost accounting of one global-stage solve: the figures the stage
/// measures itself, and — through `Deref` — the [`SolveReport`] of the
/// batch that solved it ([`SolveReport::NONE`] when every DoF was
/// prescribed). A warm [`FactorCache`] hit reports the description of the
/// preparation that built the cached solver: its setup time, factor and
/// shard counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalStats {
    /// Wall-clock time of prelude + assembly and constraint reduction (when
    /// the operator was not reused) + solve.
    pub wall_time: Duration,
    /// Analytic peak heap estimate (bytes): unit load, right-hand sides,
    /// the resident ROMs and the prepared solver, plus — only for the solve
    /// that assembled — what the cold arm held at once: the reduced
    /// operator `A_ff` and the assembly scratch beside it (free-node
    /// adjacency and contribution lists, node numbering, prescribed
    /// values). There is no unreduced operator to count. With
    /// [`operator_reused`](Self::operator_reused) the figure is what this
    /// solve allocated on top of the resident ROMs and cached solver.
    pub peak_bytes: usize,
    /// Global DoFs before constraints.
    pub total_dofs: usize,
    /// Free DoFs after constraints.
    pub free_dofs: usize,
    /// Stored nonzeros of the reduced global operator.
    pub nnz: usize,
    /// Whether the solve took its operator from the solver the
    /// [`FactorCache`] holds under its key and skipped assembly and
    /// constraint reduction altogether (see [`GlobalStage::solve_many`]).
    /// `false` for every solve that assembled — including a
    /// [`GlobalBc::SubmodelBoundary`] solve that then took the cached
    /// factor — and for fully-constrained solves.
    pub operator_reused: bool,
    report: SolveReport,
}

impl Deref for GlobalStats {
    type Target = SolveReport;

    fn deref(&self) -> &Self::Target {
        &self.report
    }
}

impl GlobalStats {
    /// The one literal: the stage's own figures beside the solve's report.
    fn new(
        report: SolveReport,
        wall_time: Duration,
        peak_bytes: usize,
        total_dofs: usize,
        free_dofs: usize,
        nnz: usize,
        operator_reused: bool,
    ) -> Self {
        GlobalStats {
            wall_time,
            peak_bytes,
            total_dofs,
            free_dofs,
            nnz,
            operator_reused,
            report,
        }
    }
}

/// The solved global problem of one array.
#[derive(Debug, Clone)]
pub struct GlobalSolution {
    lattice: GlobalLattice,
    /// Displacements of all active nodes (3 per node).
    nodal: Vec<f64>,
    /// Cost accounting.
    pub stats: GlobalStats,
}

impl GlobalSolution {
    /// The global lattice of the solved problem.
    pub fn lattice(&self) -> &GlobalLattice {
        &self.lattice
    }

    /// The full nodal displacement vector (3 DoFs per active node).
    pub fn nodal_displacement(&self) -> &[f64] {
        &self.nodal
    }

    /// The element-DoF vector of block `(bi, bj)` in canonical order, ready
    /// for [`ReducedOrderModel::reconstruct_displacement`].
    pub fn element_dofs(&self, bi: usize, bj: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.element_dofs_into(bi, bj, &mut out);
        out
    }

    /// [`element_dofs`](Self::element_dofs) into a reused buffer (cleared
    /// first).
    pub(crate) fn element_dofs_into(&self, bi: usize, bj: usize, out: &mut Vec<f64>) {
        out.clear();
        for node in self.lattice.block_node_ids(bi, bj) {
            out.extend_from_slice(&self.nodal[3 * node..3 * node + 3]);
        }
    }
}

/// The global stage: assembles and solves the reduced array problem.
#[derive(Debug)]
pub struct GlobalStage<'a> {
    rom_tsv: &'a ReducedOrderModel,
    rom_dummy: Option<&'a ReducedOrderModel>,
    /// The backend every solve through this stage routes through. It is
    /// borrowed, so state living inside it (the `Sharded` backend's
    /// retained previous preparation) outlives the stage.
    backend: &'a dyn SolverBackend,
    cache: Option<&'a FactorCache>,
}

impl<'a> GlobalStage<'a> {
    /// Creates a global stage using one ROM for TSV blocks, solving with
    /// the paper's GMRES ([`LinearSolver::default`]) until
    /// [`with_backend`](Self::with_backend) lends it another backend.
    pub fn new(rom_tsv: &'a ReducedOrderModel) -> Self {
        Self {
            rom_tsv,
            rom_dummy: None,
            backend: &**DEFAULT_BACKEND,
            cache: None,
        }
    }

    /// Registers a [`FactorCache`]: repeated solves with the same key
    /// (interpolation counts, boundary-condition kind, layout shape and
    /// block ROMs) reuse one prepared factorization / preconditioner — and,
    /// under [`GlobalBc::ClampedTopBottom`], the operator itself, so a
    /// repeated layout skips assembly as well (see
    /// [`solve_many`](Self::solve_many)). Keys live in the cache, so stages
    /// that come and go around one cache (the simulator builds one per
    /// call) share them; stages around different ROMs never do.
    pub fn with_cache(mut self, cache: &'a FactorCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Registers the dummy-block ROM (required for layouts containing
    /// [`BlockKind::Dummy`]).
    ///
    /// # Errors
    ///
    /// [`RomError::Mismatch`] if the dummy ROM was built with different
    /// geometry/resolution/interpolation than the TSV ROM.
    pub fn with_dummy(mut self, rom_dummy: &'a ReducedOrderModel) -> Result<Self, RomError> {
        self.rom_tsv.check_compatible(rom_dummy)?;
        self.rom_dummy = Some(rom_dummy);
        Ok(self)
    }

    /// Routes every solve through a caller-owned backend (build one with
    /// [`LinearSolver::backend`]) instead of the default GMRES — so prepared
    /// state living *inside* the backend (the `Sharded` backend's retained
    /// previous preparation behind the incremental re-factorization)
    /// survives beyond this stage's lifetime.
    /// [`MoreStressSimulator`](crate::MoreStressSimulator) lends its one
    /// backend through here.
    pub fn with_backend(mut self, backend: &'a dyn SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Assembles and solves the global problem for `layout` under thermal
    /// load `delta_t` and boundary conditions `bc`.
    ///
    /// # Errors
    ///
    /// [`RomError::Mismatch`] if the layout contains dummy blocks but no
    /// dummy ROM is registered; solver failures as [`RomError::Linalg`].
    pub fn solve(
        &self,
        layout: &BlockLayout,
        delta_t: f64,
        bc: &GlobalBc,
    ) -> Result<GlobalSolution, RomError> {
        let mut solutions = self.solve_many(layout, &[delta_t], bc)?;
        Ok(solutions.pop().expect("one load in, one solution out"))
    }

    /// Solves the global problem for several thermal loads at once: one
    /// layout prelude, one operator (assembled, or reused — see below), one
    /// solver preparation (reused from the [`FactorCache`] when
    /// registered), then a task-parallel batched solve over all loads.
    ///
    /// The assembled operator and the prescribed boundary data do not
    /// depend on `ΔT` (the load vector is linear in it), so the paper's
    /// many-load workloads collapse to one factorization plus `k` pairs of
    /// triangular sweeps. Returns one [`GlobalSolution`] per entry of
    /// `delta_ts`, in order; the reported [`GlobalStats`] are the batch
    /// aggregate (shared wall time, summed iterations).
    ///
    /// A solve runs in three parts:
    ///
    /// 1. **Layout prelude** (cheap, always): lattice, per-block node maps,
    ///    unit load, constraint set, and the free set derived from it (once —
    ///    assembly and reduction both index by it) — only what both routes
    ///    of part 2 read. The partition hint (the block-grid footprint of
    ///    every free DoF; the direct solvers order by it, the sharded
    ///    backend plans from it) is built on the assembling route alone,
    ///    which attaches it to the operator; a reused operator carries its
    ///    own.
    /// 2. **Operator**: the stage looks its *key* up in the registered
    ///    cache — the exact words that determine the reduced operator:
    ///    interpolation counts, BC kind, layout shape and every block's ROM
    ///    identity (see [`FactorCache`]). Under
    ///    [`GlobalBc::ClampedTopBottom`] a hit hands over the cached
    ///    solver's own operator `Arc`, hint included; the lifting term is
    ///    zero, nothing is assembled, and [`GlobalStats::operator_reused`]
    ///    is set. Otherwise — a miss, or a
    ///    [`GlobalBc::SubmodelBoundary`] solve, whose lifting term needs the
    ///    elements — the stage assembles the *reduced* system in one pass:
    ///    free nodes are numbered, their adjacency gives `A_ff`'s CSR
    ///    pattern, and every element scatters `K_e[free, free]` into `A_ff`
    ///    and `−K_e[free, fixed]·u_b` into the lifting term — the same route
    ///    for both boundary-condition kinds; clamped data merely makes the
    ///    lifting term exactly `+0.0`. No unreduced operator and no
    ///    extraction step exist. A sub-model hit then solves on the cached
    ///    factor; a miss prepares the assembled operator and caches it under
    ///    the key. Either way the backend's
    ///    [`set_partition_hint`](SolverBackend::set_partition_hint) receives
    ///    the very `Arc` the operator carries.
    /// 3. **Solve and expand**, identical on both routes: the results are
    ///    bit for bit those of a from-scratch solve.
    ///
    /// Assembly and the batched solve run on the current
    /// [`WorkPool`] at its cap; [`WorkPool::install`] is the one way to
    /// narrow them.
    ///
    /// Before the prelude allocates, the solve reserves what the prelude and
    /// a cold assembly hold at once — counted in closed form from the layout
    /// shape and the interpolation counts — and gives it straight back, so a
    /// layout that cannot fit in memory fails as
    /// [`RomError::OutOfMemory`] instead of aborting the process. The
    /// reservation touches no page: where the system overcommits without
    /// limit it always succeeds, and the check admits the solve.
    ///
    /// # Errors
    ///
    /// Same as [`GlobalStage::solve`], and [`RomError::OutOfMemory`] when
    /// the reservation fails.
    pub fn solve_many(
        &self,
        layout: &BlockLayout,
        delta_ts: &[f64],
        bc: &GlobalBc,
    ) -> Result<Vec<GlobalSolution>, RomError> {
        let start = Instant::now();
        Footprint::of(layout, self.rom_tsv.interpolation().counts(), bc).reserve()?;
        let (prelude, free) = self.prelude(layout, bc)?;
        let lattice = &prelude.lattice;
        let ndof = lattice.num_dofs();
        let mut peak_bytes = prelude.b_unit.heap_bytes();
        // A fully-constrained problem (e.g. a single block under sub-model
        // boundary conditions) has no free DoFs: the nodal solution is just
        // the prescribed data, identically for every thermal load.
        if free.dofs.is_empty() {
            let mut nodal = vec![0.0; ndof];
            for (dof, v) in free.bcs.iter() {
                nodal[dof] = v;
            }
            let stats = GlobalStats::new(
                SolveReport::NONE,
                start.elapsed(),
                peak_bytes,
                ndof,
                0,
                0,
                false,
            );
            return Ok(delta_ts
                .iter()
                .map(|_| GlobalSolution {
                    lattice: lattice.clone(),
                    nodal: nodal.clone(),
                    stats,
                })
                .collect());
        }
        let backend = self.backend;
        let threads = WorkPool::current().cap();

        // --- Operator: the cached solver's own, else assembled --------------
        let key = self.key(layout, bc, &prelude.blocks);
        let cached = self.cache.and_then(|cache| cache.get(backend, &key));
        let operator_reused = cached.is_some() && matches!(bc, GlobalBc::ClampedTopBottom);
        let reduced = match &cached {
            Some(solver) if operator_reused => {
                ReducedSystem::with_operator(Arc::clone(solver.matrix()), free.dofs, ndof, free.bcs)
            }
            _ => {
                // The assembly scratch dies inside the call, before the
                // factorization allocates.
                let (reduced, scratch_bytes) = self.assemble_reduced(layout, &prelude, free);
                peak_bytes += reduced.a_ff.heap_bytes() + scratch_bytes;
                reduced
            }
        };
        drop(prelude.blocks);
        // Solvers read the hint the operator carries — attached by the
        // assembly, or cached with it; this call only lets a delegating
        // backend record it.
        backend.set_partition_hint(reduced.a_ff.partition_hint().cloned());
        let rhs_set = reduced.rhs_for_scaled_loads(&prelude.b_unit, delta_ts);

        // --- Solve through the unified backend layer -----------------------
        let batch = match (self.cache, cached) {
            // A cached factor self-heals: one that fails its solve (or needs
            // more ladder recovery than its own preparation did) is
            // re-prepared from scratch and retried once, with the rebuild
            // recorded as a `Rung::Rebuilt` step in the report's
            // degradation trail.
            (Some(cache), Some(solver)) => {
                cache
                    .solve_many_healing(backend, &key, &solver, &rhs_set, threads)?
                    .0
            }
            (Some(cache), None) => cache
                .prepare(backend, &key, &reduced.a_ff)?
                .solve_many(&rhs_set, threads)?,
            (None, _) => backend
                .prepare(Arc::clone(&reduced.a_ff))?
                .solve_many(&rhs_set, threads)?,
        };

        let peak_bytes = peak_bytes
            + rhs_set
                .iter()
                .map(MemoryFootprint::heap_bytes)
                .sum::<usize>()
            + self.rom_tsv.heap_bytes()
            + self.rom_dummy.map_or(0, MemoryFootprint::heap_bytes)
            + batch.report.solver_bytes;
        let stats = GlobalStats::new(
            batch.report,
            start.elapsed(),
            peak_bytes,
            ndof,
            reduced.num_free(),
            reduced.a_ff.nnz(),
            operator_reused,
        );
        Ok(batch
            .xs
            .into_iter()
            .map(|x| GlobalSolution {
                lattice: lattice.clone(),
                nodal: reduced.expand(&x),
                stats,
            })
            .collect())
    }

    /// Test seam, not supported API: the reduced system a cold
    /// [`solve_many`](Self::solve_many) assembles for `layout` under `bc` —
    /// `A_ff` carrying its partition hint, the lifting term `−A_fb u_b` as
    /// `rhs`, the free-DoF map — without consulting the cache and without
    /// solving. The same two calls as the cold arm, so the assembly and
    /// memory tests see exactly what production builds.
    ///
    /// # Errors
    ///
    /// [`RomError::Mismatch`] as [`solve`](Self::solve);
    /// [`FemError::FullyConstrained`] if `bc` leaves no DoF free.
    #[doc(hidden)]
    pub fn assemble(&self, layout: &BlockLayout, bc: &GlobalBc) -> Result<ReducedSystem, RomError> {
        let (prelude, free) = self.prelude(layout, bc)?;
        if free.dofs.is_empty() {
            return Err(FemError::FullyConstrained.into());
        }
        Ok(self.assemble_reduced(layout, &prelude, free).0)
    }

    /// Part 1 of [`solve_many`](Self::solve_many): everything a solve needs
    /// from the layout before it knows whether it must assemble — what it
    /// borrows to the end, and the constraint side its reduced system
    /// consumes.
    fn prelude(
        &self,
        layout: &BlockLayout,
        bc: &GlobalBc,
    ) -> Result<(Prelude<'a>, FreeSet), RomError> {
        if layout.count(BlockKind::Dummy) > 0 && self.rom_dummy.is_none() {
            return Err(RomError::Mismatch(
                "layout contains dummy blocks but no dummy ROM is registered".into(),
            ));
        }
        let interp = self.rom_tsv.interpolation();
        let geom = self.rom_tsv.geometry();
        let extents = [geom.pitch, geom.pitch, geom.height];
        let lattice = GlobalLattice::new(layout, interp.counts(), extents);
        let ndof = lattice.num_dofs();
        // Per-block maps in assembly order (row-major over the block grid).
        let blocks: Vec<BlockMap<'a>> = (0..layout.ny())
            .flat_map(|bj| (0..layout.nx()).map(move |bi| (bi, bj)))
            .map(|(bi, bj)| BlockMap {
                rom: match layout.kind(bi, bj) {
                    BlockKind::Tsv => self.rom_tsv,
                    BlockKind::Dummy => self.rom_dummy.expect("checked above"),
                },
                nodes: lattice.block_nodes(bi, bj),
            })
            .collect();
        // Unit (ΔT = 1) load: the thermal load is linear in ΔT, so every
        // requested load is a scalar multiple of this vector.
        let mut b_unit = vec![0.0; ndof];
        for block in &blocks {
            let b_elem = block.rom.element_load();
            for (&m, b_node) in block.nodes.iter().zip(b_elem.chunks_exact(3)) {
                for (c, &v) in b_node.iter().enumerate() {
                    b_unit[3 * m + c] += v;
                }
            }
        }
        // Boundary conditions (lifting, Eq. 13). A node is fixed or free as
        // a whole — the constraint set and the free set are built side by
        // side, node by node, so that holds by construction (and in DoF
        // order, so every constraint is a push) — and the free set is
        // derived once: the assembly numbers its rows (and indexes its hint)
        // by it, the reduction maps back through it.
        let mut bcs = DirichletBcs::new();
        let mut free_nodes = Vec::new();
        for id in 0..lattice.num_nodes() {
            let fixed = match bc {
                GlobalBc::ClampedTopBottom => lattice.is_top_or_bottom(id).then_some([0.0; 3]),
                GlobalBc::SubmodelBoundary(coarse) => lattice
                    .is_outer_boundary(id)
                    .then(|| coarse(lattice.position(id))),
            };
            match fixed {
                Some(displacement) => bcs.set_node(id, displacement),
                None => free_nodes.push(id),
            }
        }
        let free: Vec<usize> = free_nodes
            .iter()
            .flat_map(|&m| [3 * m, 3 * m + 1, 3 * m + 2])
            .collect();
        debug_assert_eq!(free, bcs.free_dofs(ndof));
        Ok((
            Prelude {
                lattice,
                blocks,
                b_unit,
            },
            FreeSet {
                bcs,
                nodes: free_nodes,
                dofs: free,
            },
        ))
    }

    /// The exact words that determine the reduced operator of a solve
    /// through this stage — its [`FactorCache`] key: interpolation counts,
    /// BC kind, layout shape, and the identity of every block's ROM in
    /// assembly order (process-unique ids, never a hash — which also says
    /// which blocks are dummies). A [`GlobalBc::SubmodelBoundary`]
    /// operator depends only on which DoFs it fixes — the outer boundary —
    /// never on the closure's values, so its kind word is all it adds.
    fn key(&self, layout: &BlockLayout, bc: &GlobalBc, blocks: &[BlockMap<'_>]) -> Vec<u64> {
        let bc_kind = match bc {
            GlobalBc::ClampedTopBottom => 0,
            GlobalBc::SubmodelBoundary(_) => 1,
        };
        let [nx, ny, nz] = self.rom_tsv.interpolation().counts();
        let header = [nx, ny, nz, bc_kind, layout.nx(), layout.ny()];
        header
            .into_iter()
            .map(|word| word as u64)
            .chain(blocks.iter().map(|block| block.rom.id))
            .collect()
    }

    /// The cold arm of [`solve_many`](Self::solve_many): assembles the
    /// reduced operator `A_ff` and the lifting term `−A_fb u_b` of a
    /// zero-load system directly — free-node adjacency →
    /// CSR pattern, then one scatter of every abstract element's free×free
    /// sub-block into `A_ff` and of its free×fixed sub-block, times the
    /// prescribed data, into the lifting term. The unreduced operator (under
    /// [`GlobalBc::ClampedTopBottom`] more than five times the size of the
    /// `A_ff` it contains) is never formed, and every stored value is the
    /// sum, in block order, that assembling it and extracting `A_ff` would
    /// have produced — bit for bit, explicit zeros included.
    ///
    /// Returns the reduced system (`A_ff` carrying the partition hint of
    /// `layout`, the lifting term as `rhs`) and the heap bytes of the
    /// scratch that lived beside it meanwhile.
    fn assemble_reduced(
        &self,
        layout: &BlockLayout,
        prelude: &Prelude<'_>,
        free: FreeSet,
    ) -> (ReducedSystem, usize) {
        let Prelude {
            lattice, blocks, ..
        } = prelude;
        let FreeSet {
            bcs,
            nodes: free_nodes,
            dofs: free,
        } = free;
        let ndof = lattice.num_dofs();
        // Free nodes, numbered in node order: free DoF `3·f + c` is
        // component `c` of free node `f`.
        let num_free_nodes = free_nodes.len();
        let mut free_node = vec![INACTIVE; lattice.num_nodes()];
        for (f, &m) in free_nodes.iter().enumerate() {
            free_node[m] = f;
        }
        let mut prescribed = vec![0.0; ndof];
        for (dof, v) in bcs.iter() {
            prescribed[dof] = v;
        }
        let mut node_adj: Vec<Vec<usize>> = vec![Vec::new(); num_free_nodes];
        // Per free node: the (block index, node position within the block's
        // canonical node list) pairs that contribute to it — the transposed
        // incidence the row-parallel scatter below consumes.
        let mut node_contrib: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_free_nodes];
        let mut block_free = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            block_free.clear();
            block_free.extend(
                block
                    .nodes
                    .iter()
                    .map(|&m| free_node[m])
                    .filter(|&f| f != INACTIVE),
            );
            for (ln, &m) in block.nodes.iter().enumerate() {
                let f = free_node[m];
                if f != INACTIVE {
                    node_adj[f].extend_from_slice(&block_free);
                    node_contrib[f].push((b as u32, ln as u32));
                }
            }
        }
        for list in &mut node_adj {
            list.sort_unstable();
            list.dedup();
        }
        // The three DoF rows of a node share one column structure, so the
        // CSR arrays are emitted directly (sorted by construction — no
        // per-entry validation or intermediate Vec<Vec> needed). Both
        // arrays are written in full, so they are huge-page advised.
        let nnz: usize = node_adj.iter().map(|l| 9 * l.len()).sum();
        let mut row_ptr = Vec::with_capacity(free.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = huge_with_capacity(nnz);
        for neighbors in &node_adj {
            for _ in 0..3 {
                for &nb in neighbors {
                    col_idx.extend_from_slice(&[3 * nb, 3 * nb + 1, 3 * nb + 2]);
                }
                row_ptr.push(col_idx.len());
            }
        }
        let mut values = huge_zeroed(nnz);
        let mut lifting = vec![0.0; free.len()];

        // Element → free DoF scatter, node-parallel on the shared pool:
        // every free node owns its three (contiguous) matrix rows and
        // lifting entries, so tasks write disjoint ranges, and contributions
        // are accumulated in block order per row — bitwise identical at
        // every pool cap.
        //
        // Split both arrays into one slice per node, so tasks can write
        // lock-free-by-ownership behind cheap uncontended mutexes.
        let mut node_rows: Vec<Mutex<(&mut [f64], &mut [f64])>> =
            Vec::with_capacity(num_free_nodes);
        let (mut vals_rest, mut lift_rest) = (values.as_mut_slice(), lifting.as_mut_slice());
        for neighbors in &node_adj {
            let (vals, vals_tail) = vals_rest.split_at_mut(9 * neighbors.len());
            let (lift, lift_tail) = lift_rest.split_at_mut(3);
            node_rows.push(Mutex::new((vals, lift)));
            (vals_rest, lift_rest) = (vals_tail, lift_tail);
        }
        let pool = WorkPool::current();
        pool.scope_chunks_with(
            pool.cap(),
            num_free_nodes,
            || vec![usize::MAX; num_free_nodes],
            |slot_of_node, f| {
                let neighbors = &node_adj[f];
                // Column offset of each neighbor within one DoF row of `f`.
                for (slot, &nb) in neighbors.iter().enumerate() {
                    slot_of_node[nb] = 3 * slot;
                }
                let row_len = 3 * neighbors.len();
                let mut rows = node_rows[f].lock().expect("node row slice poisoned");
                let (vals, lift) = &mut *rows;
                for &(b, ln) in &node_contrib[f] {
                    let block = &blocks[b as usize];
                    let a_elem = block.rom.element_stiffness();
                    for comp in 0..3 {
                        let erow = a_elem.row(3 * ln as usize + comp);
                        let dst = &mut vals[comp * row_len..(comp + 1) * row_len];
                        for (&m, e_node) in block.nodes.iter().zip(erow.chunks_exact(3)) {
                            match free_node[m] {
                                INACTIVE => {
                                    for (c, &v) in e_node.iter().enumerate() {
                                        lift[comp] -= v * prescribed[3 * m + c];
                                    }
                                }
                                nb => {
                                    let slot = slot_of_node[nb];
                                    for (c, &v) in e_node.iter().enumerate() {
                                        if v != 0.0 {
                                            dst[slot + c] += v;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                drop(rows);
                for &nb in neighbors {
                    slot_of_node[nb] = usize::MAX;
                }
            },
        );
        drop(node_rows);
        let scratch_bytes = free_nodes.heap_bytes()
            + free_node.heap_bytes()
            + prescribed.heap_bytes()
            + nested_heap_bytes(&node_adj)
            + nested_heap_bytes(&node_contrib);
        // Geometry hint: each free DoF maps to the inclusive block-grid
        // footprint of its lattice node, so the direct solvers can dissect
        // (and the sharded backend cut) the reduced operator along block
        // boundaries instead of searching its dense sparsity graph.
        let interp = self.rom_tsv.interpolation();
        let grid = [layout.nx(), layout.ny()];
        let spans = free
            .iter()
            .map(|&dof| {
                let [cx, cy, _] = lattice.coords[dof / 3];
                let sx = interp.block_span(0, cx, grid[0]);
                let sy = interp.block_span(1, cy, grid[1]);
                [sx[0], sx[1], sy[0], sy[1]]
            })
            .collect();
        let hint = Arc::new(PartitionHint::new(grid, spans));
        let a_ff = CsrMatrix::from_raw_trusted(free.len(), free.len(), row_ptr, col_idx, values)
            .with_partition_hint(hint);
        let reduced = ReducedSystem::from_parts(Arc::new(a_ff), lifting, free, ndof, bcs);
        (reduced, scratch_bytes)
    }
}

/// Heap bytes of a list of lists: the outer slots plus every inner buffer.
fn nested_heap_bytes<T>(lists: &Vec<Vec<T>>) -> usize {
    lists.heap_bytes() + lists.iter().map(Vec::heap_bytes).sum::<usize>()
}

/// What the prelude and the cold assembly of a solve allocate, counted in
/// closed form from the layout shape, the interpolation counts and the BC
/// kind, before either runs.
///
/// Free nodes lie in the `nz − 2` interior layers, on the vertical block
/// faces (under [`GlobalBc::SubmodelBoundary`] off the outer ones), and two
/// free nodes are adjacent iff their face points share a block. So `A_ff`
/// holds `9 (nz − 2)²` entries per ordered pair of free face points of the
/// plane that share a block. The blocks two points share form a rectangle
/// of at most 2×2 blocks, and a rectangle's blocks, minus its adjacent block
/// pairs, plus its 2×2 squares number exactly 1. Hence the pair count is
/// the sum of every block's squared free-point count, minus that of every
/// shared block edge, plus one per shared interior corner.
// The counts only reach the tests, which check them against the lattice.
#[cfg_attr(not(test), allow(dead_code))]
struct Footprint {
    /// Active lattice nodes.
    nodes: u128,
    /// Unconstrained lattice nodes.
    free_nodes: u128,
    /// Stored entries of `A_ff`.
    nnz: u128,
    /// Bytes of the prelude's and the assembly's buffers together.
    bytes: u128,
}

impl Footprint {
    fn of(layout: &BlockLayout, counts: [usize; 3], bc: &GlobalBc) -> Self {
        let [p, q, r] = counts.map(|c| c as u128);
        let (l, m) = (layout.nx() as u128, layout.ny() as u128);
        let clip = matches!(bc, GlobalBc::SubmodelBoundary(_));
        let (ax, ay) = ((p - 1) * l + 1, (q - 1) * m + 1);
        // Points of the plane off every vertical face, per block.
        let inner = (p - 2) * (q - 2);
        let face = ax * ay - l * m * inner;
        let free_face = if clip { face + 4 - 2 * (ax + ay) } else { face };
        let nodes = 2 * ax * ay + (r - 2) * face;
        let free_nodes = (r - 2) * free_face;
        // Σ w and Σ w² over the `n` blocks of one axis, `w` the free points
        // of a block edge along it (`k` points, less those on the outer
        // boundary when it is prescribed).
        let edge_sums = |n: u128, k: u128| match (clip, n) {
            (false, _) => (n * k, n * k * k),
            (true, 1) => (k - 2, (k - 2) * (k - 2)),
            (true, _) => (n * k - 2, (n - 2) * k * k + 2 * (k - 1) * (k - 1)),
        };
        let (sx, sxx) = edge_sums(l, p);
        let (sy, syy) = edge_sums(m, q);
        // A block's free face points number `w_x·w_y − inner`.
        let contributions = (r - 2) * (sx * sy - l * m * inner);
        let block_pairs = sxx * syy + inner * inner * l * m - 2 * inner * sx * sy;
        let plane_pairs = block_pairs + (l - 1) * (m - 1) - (l - 1) * syy - (m - 1) * sxx;
        let adjacency = (r - 2) * (r - 2) * plane_pairs;
        let nnz = 9 * adjacency;
        let surface = p * q * r - inner * (r - 2);
        let words = ax * ay * r + 3 * nodes // lattice: node ids, coordinates
            + l * m * (4 + surface) // per-block node maps
            + 3 * nodes // unit load
            + 6 * (nodes - free_nodes) // constraints: (DoF, value) pairs
            + 4 * free_nodes // free nodes and free DoFs
            + 4 * nodes // free-node numbering, prescribed values
            + 6 * free_nodes + adjacency + contributions // adjacency, contributions
            + 6 * free_nodes + 1 + 2 * nnz // A_ff: row pointers, columns, values; lifting
            + 5 * free_nodes // the scatter's per-node row locks
            + 12 * free_nodes; // partition hint
        Footprint {
            nodes,
            free_nodes,
            nnz,
            bytes: 8 * words,
        }
    }

    /// Reserves [`bytes`](Self::bytes) and gives them back.
    fn reserve(&self) -> Result<(), RomError> {
        let bytes = usize::try_from(self.bytes).unwrap_or(usize::MAX);
        let mut probe = Vec::<u8>::new();
        probe
            .try_reserve_exact(bytes)
            .map_err(|_| RomError::OutOfMemory { bytes })?;
        // The allocation must really happen: one the optimizer could prove
        // unused it may drop, and then assume it succeeded.
        std::hint::black_box(&mut probe);
        Ok(())
    }
}

/// What the layout prelude of a solve produces and the solve borrows to
/// its end.
struct Prelude<'r> {
    lattice: GlobalLattice,
    blocks: Vec<BlockMap<'r>>,
    /// The ΔT = 1 load on all DoFs.
    b_unit: Vec<f64>,
}

/// The constraint side of a prelude, consumed by whichever arm builds the
/// solve's [`ReducedSystem`]. A node is fixed or free as a whole.
struct FreeSet {
    bcs: DirichletBcs,
    /// The unconstrained lattice nodes, ascending.
    nodes: Vec<usize>,
    /// Their DoFs (`3·m + c` per node `m`), hence ascending too.
    dofs: Vec<usize>,
}

/// One block of a layout as the assembly sees it: its ROM and its active
/// lattice nodes in canonical element order (element DoF `3·ln + c` is
/// component `c` of `nodes[ln]`).
struct BlockMap<'r> {
    rom: &'r ReducedOrderModel,
    nodes: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InterpolationGrid, LocalStage, LocalStageOptions};
    use morestress_fem::MaterialSet;
    use morestress_mesh::{BlockResolution, TsvGeometry};

    fn rom(kind: BlockKind) -> ReducedOrderModel {
        let geom = TsvGeometry::paper_defaults(15.0);
        LocalStage::new(
            &geom,
            &BlockResolution::coarse(),
            InterpolationGrid::new([3, 3, 3]),
            &MaterialSet::tsv_defaults(),
            kind,
        )
        .build(&LocalStageOptions::default())
        .unwrap()
    }

    #[test]
    fn lattice_counts_and_sharing() {
        let layout = BlockLayout::uniform(3, 2, BlockKind::Tsv);
        let lat = GlobalLattice::new(&layout, [4, 4, 4], [15.0, 15.0, 50.0]);
        // gx = 3*3+1 = 10, gy = 3*2+1 = 7, gz = 4.
        // Active: a%3==0 or b%3==0 or c in {0,3}.
        let mut count = 0;
        for c in 0..4 {
            for b in 0..7 {
                for a in 0..10 {
                    if a % 3 == 0 || b % 3 == 0 || c == 0 || c == 3 {
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(lat.num_nodes(), count);
        // Adjacent blocks share their common face nodes.
        let left = lat.block_nodes(0, 0);
        let right = lat.block_nodes(1, 0);
        let shared: Vec<_> = left.iter().filter(|n| right.contains(n)).collect();
        assert_eq!(shared.len(), 16, "4×4 nodes on the shared face");
    }

    #[test]
    fn block_nodes_match_interpolation_order() {
        let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
        let lat = GlobalLattice::new(&layout, [3, 3, 3], [15.0, 15.0, 50.0]);
        let nodes = lat.block_nodes(1, 1);
        let grid = InterpolationGrid::new([3, 3, 3]);
        assert_eq!(nodes.len(), grid.num_surface_nodes());
        // First node of block (1,1) sits at lattice (2,2,0) => position (15,15,0).
        let p = lat.position(nodes[0]);
        assert_eq!(p, [15.0, 15.0, 0.0]);
    }

    #[test]
    fn single_block_with_clamped_everything_matches_local_thermal() {
        // With every surface node clamped (sub-model bc of zero), the global
        // solution for one block is u = ΔT·f_T exactly.
        let rom = rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(1, 1, BlockKind::Tsv);
        let zero = GlobalBc::SubmodelBoundary(Arc::new(|_| [0.0; 3]));
        let sol = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &zero)
            .unwrap();
        let dofs = sol.element_dofs(0, 0);
        assert!(dofs.iter().all(|&v| v == 0.0), "all element DoFs clamped");
        let u = rom.reconstruct_displacement(&dofs, -250.0);
        let ft = rom.thermal_basis();
        for (a, b) in u.iter().zip(ft) {
            assert!((a - b * -250.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fully_constrained_solves_return_the_prescribed_data() {
        // One block under sub-model boundary conditions prescribes every
        // lattice node: each load's solution is the prescribed data, and
        // the stats describe a solve that solved nothing.
        let rom = rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(1, 1, BlockKind::Tsv);
        let field = |p: [f64; 3]| [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)];
        let bc = GlobalBc::SubmodelBoundary(Arc::new(field));
        let loads = [-250.0, 0.0, 85.0];
        let solutions = GlobalStage::new(&rom)
            .solve_many(&layout, &loads, &bc)
            .unwrap();
        assert_eq!(solutions.len(), loads.len());
        for sol in &solutions {
            let lattice = sol.lattice();
            let prescribed: Vec<f64> = (0..lattice.num_nodes())
                .flat_map(|id| field(lattice.position(id)))
                .collect();
            assert_eq!(sol.nodal_displacement(), prescribed.as_slice());
            let stats = &sol.stats;
            assert_eq!(stats.backend, "none");
            assert_eq!((stats.free_dofs, stats.nnz), (0, 0));
            assert_eq!(stats.total_dofs, prescribed.len());
            assert_eq!((stats.shards, stats.workers), (1, 1));
            assert_eq!(stats.factor_nnz, None);
        }
    }

    #[test]
    fn clamped_array_solution_is_symmetric() {
        let rom = rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv);
        let sol = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
            .unwrap();
        assert!(sol.stats.iterations.is_some_and(|n| n > 0));
        // 4-fold symmetry: the x-displacement at mirrored lattice positions
        // must be opposite.
        let lat = sol.lattice();
        for id in 0..lat.num_nodes() {
            let p = lat.position(id);
            let mirrored = [30.0 - p[0], p[1], p[2]];
            let m = (0..lat.num_nodes())
                .find(|&q| {
                    let pq = lat.position(q);
                    (pq[0] - mirrored[0]).abs() < 1e-9
                        && (pq[1] - mirrored[1]).abs() < 1e-9
                        && (pq[2] - mirrored[2]).abs() < 1e-9
                })
                .unwrap();
            let ux = sol.nodal_displacement()[3 * id];
            let um = sol.nodal_displacement()[3 * m];
            assert!(
                (ux + um).abs() < 1e-7,
                "mirror antisymmetry violated: {ux} vs {um}"
            );
        }
    }

    #[test]
    fn gmres_and_cg_agree() {
        let rom = rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(2, 1, BlockKind::Tsv);
        let solve = |solver: LinearSolver| {
            let backend = solver.backend(VerifyPolicy::Off);
            GlobalStage::new(&rom)
                .with_backend(&*backend)
                .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
                .unwrap()
        };
        let a = solve(LinearSolver::Gmres { tol: 1e-11 });
        let b = solve(LinearSolver::Cg { tol: 1e-11 });
        let peak = a
            .nodal_displacement()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (p, q) in a.nodal_displacement().iter().zip(b.nodal_displacement()) {
            assert!((p - q).abs() < 1e-6 * peak.max(1e-30));
        }
    }

    /// The footprint's closed-form counts against a walk over the lattice:
    /// a free node's neighbours are the free nodes of the blocks it is in.
    #[test]
    fn footprint_counts_match_the_lattice() {
        use std::collections::BTreeSet;
        let clamped = GlobalBc::ClampedTopBottom;
        let submodel = GlobalBc::SubmodelBoundary(Arc::new(|_| [0.0; 3]));
        for (nx, ny) in [(1, 1), (2, 1), (1, 3), (3, 2), (4, 4)] {
            let layout = BlockLayout::uniform(nx, ny, BlockKind::Tsv);
            for counts in [[2, 2, 2], [3, 3, 3], [4, 3, 5], [2, 4, 3]] {
                let lattice = GlobalLattice::new(&layout, counts, [1.0; 3]);
                for bc in [&clamped, &submodel] {
                    let free = |id: usize| match bc {
                        GlobalBc::ClampedTopBottom => !lattice.is_top_or_bottom(id),
                        GlobalBc::SubmodelBoundary(_) => !lattice.is_outer_boundary(id),
                    };
                    let blocks: Vec<Vec<usize>> = (0..ny)
                        .flat_map(|bj| (0..nx).map(move |bi| (bi, bj)))
                        .map(|(bi, bj)| {
                            let nodes = lattice.block_nodes(bi, bj);
                            nodes.into_iter().filter(|&id| free(id)).collect()
                        })
                        .collect();
                    let mut neighbours = vec![BTreeSet::new(); lattice.num_nodes()];
                    for block in &blocks {
                        for &f in block {
                            neighbours[f].extend(block.iter().copied());
                        }
                    }
                    let free_nodes = (0..lattice.num_nodes()).filter(|&id| free(id)).count();
                    let nnz: usize = neighbours.iter().map(|n| 9 * n.len()).sum();
                    let footprint = Footprint::of(&layout, counts, bc);
                    let case = format!("{nx}x{ny} {counts:?} {bc:?}");
                    assert_eq!(footprint.nodes, lattice.num_nodes() as u128, "{case}");
                    assert_eq!(footprint.free_nodes, free_nodes as u128, "{case}");
                    assert_eq!(footprint.nnz, nnz as u128, "{case}");
                }
            }
        }
    }

    #[test]
    fn footprint_counts_match_the_assembly() {
        let tsv = rom(BlockKind::Tsv);
        let dummy = rom(BlockKind::Dummy);
        let stage = GlobalStage::new(&tsv).with_dummy(&dummy).unwrap();
        let layout = BlockLayout::uniform(3, 2, BlockKind::Tsv).padded(1);
        let submodel = GlobalBc::SubmodelBoundary(Arc::new(|_| [0.0; 3]));
        for bc in [GlobalBc::ClampedTopBottom, submodel] {
            let reduced = stage.assemble(&layout, &bc).unwrap();
            let footprint = Footprint::of(&layout, [3, 3, 3], &bc);
            assert_eq!(footprint.free_nodes, reduced.num_free() as u128 / 3);
            assert_eq!(footprint.nnz, reduced.a_ff.nnz() as u128);
        }
    }

    #[test]
    fn a_footprint_that_cannot_be_reserved_is_a_typed_error() {
        let footprint = Footprint {
            nodes: 0,
            free_nodes: 0,
            nnz: 0,
            bytes: u128::MAX,
        };
        let err = footprint.reserve().unwrap_err();
        assert!(matches!(err, RomError::OutOfMemory { bytes: usize::MAX }));
    }

    #[test]
    fn dummy_layout_without_dummy_rom_is_rejected() {
        let rom = rom(BlockKind::Tsv);
        let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1);
        let err = GlobalStage::new(&rom)
            .solve(&layout, -250.0, &GlobalBc::ClampedTopBottom)
            .unwrap_err();
        assert!(matches!(err, RomError::Mismatch(_)));
    }

    #[test]
    fn hybrid_assembly_with_dummy_ring_runs() {
        let tsv = rom(BlockKind::Tsv);
        let dummy = rom(BlockKind::Dummy);
        let layout = BlockLayout::uniform(1, 1, BlockKind::Tsv).padded(1);
        let zero = GlobalBc::SubmodelBoundary(Arc::new(|_| [0.0; 3]));
        let sol = GlobalStage::new(&tsv)
            .with_dummy(&dummy)
            .unwrap()
            .solve(&layout, -250.0, &zero)
            .unwrap();
        // Interior nodes (on the center block's faces) are now free and
        // nonzero because the thermal load deforms the assembly.
        let peak = sol
            .nodal_displacement()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 0.0);
    }
}
