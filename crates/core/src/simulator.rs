//! A one-stop facade over the local and global stages.

use std::path::PathBuf;

use morestress_fem::{MaterialSet, ScalarField2d};
use morestress_linalg::{FactorCache, LinearSolver, SolverBackend, VerifyPolicy};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

use crate::model::build_or_load_cached;
use crate::{
    sample_array_von_mises, GlobalBc, GlobalSolution, GlobalStage, InterpolationGrid,
    LocalStageOptions, ReducedOrderModel, RomError,
};

/// End-to-end MORE-Stress simulator: builds the one-shot ROMs and answers
/// array problems of arbitrary size, thermal load and location.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MoreStressSimulator {
    rom_tsv: ReducedOrderModel,
    rom_dummy: Option<ReducedOrderModel>,
    /// The one global-solve backend, built at construction from the
    /// resolved solver selection and lent to every stage — so
    /// backend-internal state (the `Sharded` backend's retained previous
    /// preparation) persists across simulator calls instead of being
    /// discarded per solve.
    backend: Box<dyn SolverBackend>,
    /// Memo of prepared global-stage factorizations: solving the same
    /// lattice again (any thermal load) reuses the factor instead of
    /// re-preparing it.
    factor_cache: FactorCache,
}

/// The one construction surface of [`MoreStressSimulator`]: geometry,
/// mesh resolution, interpolation, materials, solver selection, shard
/// count, residual verification, dummy-block model and on-disk ROM cache
/// in one chain:
///
/// ```
/// use morestress_core::MoreStressSimulator;
/// use morestress_fem::MaterialSet;
/// use morestress_mesh::{BlockResolution, TsvGeometry};
///
/// # fn main() -> Result<(), morestress_core::RomError> {
/// let sim = MoreStressSimulator::builder(&TsvGeometry::paper_defaults(15.0))
///     .resolution(BlockResolution::coarse())
///     .interpolation([2, 2, 2])
///     .materials(MaterialSet::tsv_defaults())
///     .shards(4)
///     .build()?;
/// # let _ = sim;
/// # Ok(())
/// # }
/// ```
///
/// Defaults (geometry aside, which is always explicit):
/// [`BlockResolution::coarse`], `[3, 3, 3]` interpolation,
/// [`MaterialSet::tsv_defaults`], the default [`LinearSolver`] (GMRES, the
/// paper's choice), no shard override, [`VerifyPolicy::Off`], no
/// dummy-block model, no on-disk ROM cache.
///
/// The [`verify`](Self::verify) policy applies to the direct-Cholesky
/// backend family (plain [`LinearSolver::DirectCholesky`] and the sharded
/// route, including each shard's inner factorization); `Auto` verifies
/// itself at its own tolerance, and `Gmres` and `Cg` ignore it (see
/// [`LinearSolver::backend`]).
#[derive(Debug, Clone)]
pub struct SimulatorBuilder {
    geom: TsvGeometry,
    res: BlockResolution,
    interp: InterpolationGrid,
    materials: MaterialSet,
    solver: LinearSolver,
    shards: Option<usize>,
    verify: VerifyPolicy,
    build_dummy: bool,
    cache_stem: Option<PathBuf>,
    models: Option<(ReducedOrderModel, Option<ReducedOrderModel>)>,
}

impl SimulatorBuilder {
    /// Starts a builder for the given TSV geometry with the defaults
    /// listed in the [type docs](SimulatorBuilder).
    pub fn new(geom: &TsvGeometry) -> Self {
        Self {
            geom: *geom,
            res: BlockResolution::coarse(),
            interp: InterpolationGrid::new([3, 3, 3]),
            materials: MaterialSet::tsv_defaults(),
            solver: LinearSolver::default(),
            shards: None,
            verify: VerifyPolicy::Off,
            build_dummy: false,
            cache_stem: None,
            models: None,
        }
    }

    /// Starts a builder around pre-built ROMs (e.g. loaded from disk):
    /// [`build`](Self::build) skips the local stage and wraps the given
    /// models. Geometry, resolution, interpolation and material setters
    /// are irrelevant on this route (the models carry their own).
    pub fn from_models(rom_tsv: ReducedOrderModel, rom_dummy: Option<ReducedOrderModel>) -> Self {
        let mut builder = Self::new(rom_tsv.geometry());
        builder.models = Some((rom_tsv, rom_dummy));
        builder
    }

    /// Unit-block mesh resolution (default: [`BlockResolution::coarse`]).
    pub fn resolution(mut self, res: BlockResolution) -> Self {
        self.res = res;
        self
    }

    /// Interpolation nodes per axis (default: `[3, 3, 3]`).
    pub fn interpolation(mut self, counts: [usize; 3]) -> Self {
        self.interp = InterpolationGrid::new(counts);
        self
    }

    /// Material registry (default: [`MaterialSet::tsv_defaults`]).
    pub fn materials(mut self, materials: MaterialSet) -> Self {
        self.materials = materials;
        self
    }

    /// Global-stage solver selection (default: the paper's GMRES).
    pub fn solver(mut self, solver: LinearSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the global stage on the sharded Schur-complement path
    /// ([`LinearSolver::Sharded`]) with this interior shard count, overriding
    /// [`solver`](Self::solver). The global stage attaches the block-grid
    /// geometry of each free DoF to the reduced operator as a partition
    /// hint, and the shard plan is cut along those block boundaries: any
    /// count is accepted, and the plan never exceeds the block count. `1`
    /// pins the monolithic direct path through the same code route —
    /// useful for A/B runs.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Residual-verification policy for every global solve (direct-family
    /// backends; see the [type docs](SimulatorBuilder)). Verification
    /// never mutates solutions, so `Report` is bitwise-free telemetry.
    pub fn verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }

    /// Also build the dummy-block ROM (needed for layouts with dummy
    /// blocks — sub-modeling pads, keep-out zones).
    pub fn build_dummy(mut self, build_dummy: bool) -> Self {
        self.build_dummy = build_dummy;
        self
    }

    /// Caches built ROMs at `<stem>-tsv.rom` / `<stem>-dummy.rom` and
    /// reloads a file only when its geometry, resolution, interpolation
    /// grid and materials all match the builder's; any other file at the
    /// stem is rebuilt over.
    pub fn cache_stem(mut self, stem: impl Into<PathBuf>) -> Self {
        self.cache_stem = Some(stem.into());
        self
    }

    /// Runs the one-shot local stage(s) — or wraps the pre-built models of
    /// [`from_models`](Self::from_models) — and assembles the simulator
    /// with its hoisted solver backend and factor cache.
    ///
    /// # Errors
    ///
    /// Propagates local-stage failures; [`RomError::Mismatch`] if
    /// pre-built TSV and dummy models are incompatible.
    pub fn build(self) -> Result<MoreStressSimulator, RomError> {
        let (rom_tsv, rom_dummy) = match self.models {
            Some((rom_tsv, rom_dummy)) => {
                if let Some(dummy) = &rom_dummy {
                    rom_tsv.check_compatible(dummy)?;
                }
                (rom_tsv, rom_dummy)
            }
            None => {
                let local = LocalStageOptions::default();
                let cache = |suffix: &str| {
                    self.cache_stem.as_ref().map(|stem| {
                        let mut path = stem.clone();
                        let name = path
                            .file_name()
                            .map(|s| s.to_string_lossy().into_owned())
                            .unwrap_or_else(|| "rom".to_string());
                        path.set_file_name(format!("{name}-{suffix}.rom"));
                        path
                    })
                };
                let rom_tsv = build_or_load_cached(
                    &self.geom,
                    &self.res,
                    self.interp,
                    &self.materials,
                    BlockKind::Tsv,
                    &local,
                    cache("tsv").as_deref(),
                )?;
                let rom_dummy = if self.build_dummy {
                    Some(build_or_load_cached(
                        &self.geom,
                        &self.res,
                        self.interp,
                        &self.materials,
                        BlockKind::Dummy,
                        &local,
                        cache("dummy").as_deref(),
                    )?)
                } else {
                    None
                };
                (rom_tsv, rom_dummy)
            }
        };
        let solver = match self.shards {
            Some(shards) => LinearSolver::Sharded { shards },
            None => self.solver,
        };
        Ok(MoreStressSimulator {
            rom_tsv,
            rom_dummy,
            backend: solver.backend(self.verify),
            factor_cache: FactorCache::new(),
        })
    }
}

impl MoreStressSimulator {
    /// Starts a [`SimulatorBuilder`] — the one front door over geometry,
    /// resolution, interpolation, materials, solver, shards and
    /// verification.
    pub fn builder(geom: &TsvGeometry) -> SimulatorBuilder {
        SimulatorBuilder::new(geom)
    }

    /// The TSV-block reduced-order model.
    pub fn tsv_model(&self) -> &ReducedOrderModel {
        &self.rom_tsv
    }

    /// The dummy-block model, if built.
    pub fn dummy_model(&self) -> Option<&ReducedOrderModel> {
        self.rom_dummy.as_ref()
    }

    /// The factorization cache shared by every solve through this
    /// simulator (hit/miss counters included, for tests and diagnostics).
    pub fn factor_cache(&self) -> &FactorCache {
        &self.factor_cache
    }

    fn stage(&self) -> Result<GlobalStage<'_>, RomError> {
        let mut stage = GlobalStage::new(&self.rom_tsv)
            .with_backend(&*self.backend)
            .with_cache(&self.factor_cache);
        if let Some(dummy) = &self.rom_dummy {
            stage = stage.with_dummy(dummy)?;
        }
        Ok(stage)
    }

    /// Solves the global problem for an array layout.
    ///
    /// Repeated calls over the same layout/interpolation reuse one
    /// prepared factorization through the internal [`FactorCache`].
    ///
    /// # Errors
    ///
    /// See [`GlobalStage::solve`].
    pub fn solve_array(
        &self,
        layout: &BlockLayout,
        delta_t: f64,
        bc: &GlobalBc,
    ) -> Result<GlobalSolution, RomError> {
        self.stage()?.solve(layout, delta_t, bc)
    }

    /// Solves the global problem for many thermal loads on one layout:
    /// one assembly + one (cached) factorization + a task-parallel batched
    /// solve. Returns one solution per entry of `delta_ts`, in order.
    ///
    /// # Errors
    ///
    /// See [`GlobalStage::solve_many`].
    pub fn solve_array_many(
        &self,
        layout: &BlockLayout,
        delta_ts: &[f64],
        bc: &GlobalBc,
    ) -> Result<Vec<GlobalSolution>, RomError> {
        self.stage()?.solve_many(layout, delta_ts, bc)
    }

    /// Re-solves after a value-only perturbation of a previously solved
    /// layout — the entry point for placement/optimization loops that
    /// mutate a few blocks per move (pitch sweeps, keep-out zones,
    /// TSV ↔ dummy swaps).
    ///
    /// This is the same route as [`solve_array`](Self::solve_array), under
    /// the name such loops read best; for many loads at once call
    /// [`solve_array_many`](Self::solve_array_many). The savings come from
    /// the simulator's one sharded backend, which every stage borrows.
    /// When the perturbed layout assembles to an operator with the same
    /// sparsity pattern as the previous solve — any layout of the same
    /// shape does, since the pattern depends only on the lattice while
    /// swapping a block between [`BlockKind::Tsv`] and [`BlockKind::Dummy`]
    /// changes values only — the backend re-factors just the shards whose
    /// blocks changed, reuses every clean shard's factor and stored
    /// clique, and rebuilds only the small interface system. The result is
    /// **bitwise identical** to a from-scratch solve of the perturbed layout;
    /// the report its [`GlobalStats`](crate::GlobalStats) carry shows the
    /// split in
    /// [`shards_refactored`](morestress_linalg::SolveReport::shards_refactored)
    /// and [`shards_reused`](morestress_linalg::SolveReport::shards_reused).
    /// With a monolithic solver the call is simply a fresh solve.
    ///
    /// # Errors
    ///
    /// See [`GlobalStage::solve`].
    pub fn resolve_perturbed(
        &self,
        layout: &BlockLayout,
        delta_t: f64,
        bc: &GlobalBc,
    ) -> Result<GlobalSolution, RomError> {
        self.solve_array(layout, delta_t, bc)
    }

    /// Samples the mid-plane von Mises field of a solved array
    /// (`samples_per_block²` points per block; the paper uses 100²).
    ///
    /// # Errors
    ///
    /// See [`sample_array_von_mises`].
    pub fn sample_midplane(
        &self,
        layout: &BlockLayout,
        solution: &GlobalSolution,
        delta_t: f64,
        samples_per_block: usize,
    ) -> Result<ScalarField2d, RomError> {
        sample_array_von_mises(
            &self.rom_tsv,
            self.rom_dummy.as_ref(),
            layout,
            solution,
            delta_t,
            samples_per_block,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_build_roundtrip() {
        let dir = std::env::temp_dir().join("morestress-test-cache");
        let _ = std::fs::create_dir_all(&dir);
        let stem = dir.join("unit");
        let geom = TsvGeometry::paper_defaults(15.0);
        let build = || {
            MoreStressSimulator::builder(&geom)
                .interpolation([2, 2, 2])
                .build_dummy(true)
                .cache_stem(stem.clone())
                .build()
                .unwrap()
        };
        let first = build();
        assert!(dir.join("unit-tsv.rom").exists());
        assert!(dir.join("unit-dummy.rom").exists());
        // Second build loads from cache and must agree exactly.
        let second = build();
        let (a, b) = (
            first.tsv_model().element_stiffness(),
            second.tsv_model().element_stiffness(),
        );
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(a[(i, j)], b[(i, j)]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
