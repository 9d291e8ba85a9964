//! The solver stack an op runs against, and the op body itself.
//!
//! End-to-end numbers come from the product's own front door
//! ([`Stack::Product`]). A traced op runs on [`Stack::Staged`]: the same
//! `GlobalStage` the simulator assembles internally, built by hand around
//! the [`Shim`] so that `prepare` and the operator become visible.

use std::sync::Arc;

use morestress_campaign::CampaignSpec;
use morestress_core::{
    GlobalBc, GlobalSolution, GlobalStage, GlobalStats, MoreStressSimulator, RomError,
};
use morestress_linalg::{DirectCholesky, FactorCache, PartitionHint, Sharded, SolverBackend};
use morestress_mesh::BlockLayout;

use crate::trace::{PrepareEvent, Shim, Tracer};

/// Every array is clamped top and bottom (the paper's scenario 1).
pub const BC: GlobalBc = GlobalBc::ClampedTopBottom;

/// FNV-1a over raw f64 bits — the same order-sensitive, bitwise-exact
/// checksum the campaign runner stamps on a job.
fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    values
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        })
}

/// The solver stack an op runs against.
pub enum Stack {
    /// The product's own front door — every end-to-end number.
    Product(MoreStressSimulator),
    /// The same global stage assembled by hand around the [`Shim`], so a
    /// traced op can see `prepare` and the operator. The simulator is only
    /// the owner of the ROMs here.
    Staged {
        /// Owner of the ROMs.
        sim: MoreStressSimulator,
        /// The delegating backend every solve routes through.
        shim: Shim,
        /// The stage's factor cache (the simulator's own stays unused).
        cache: FactorCache,
    },
}

impl Stack {
    /// The simulator that owns this stack's ROMs.
    pub fn sim(&self) -> &MoreStressSimulator {
        match self {
            Stack::Product(sim) | Stack::Staged { sim, .. } => sim,
        }
    }

    /// The factor cache solves through this stack hit or miss.
    pub fn cache(&self) -> &FactorCache {
        match self {
            Stack::Product(sim) => sim.factor_cache(),
            Stack::Staged { cache, .. } => cache,
        }
    }

    /// One solve; `perturbed` takes the product's `resolve_perturbed` door.
    pub fn solve(
        &self,
        layout: &BlockLayout,
        delta_t: f64,
        perturbed: bool,
    ) -> Result<GlobalSolution, RomError> {
        match self {
            Stack::Product(sim) if perturbed => sim.resolve_perturbed(layout, delta_t, &BC),
            Stack::Product(sim) => sim.solve_array(layout, delta_t, &BC),
            Stack::Staged { .. } => {
                let mut solutions = self.solve_many(layout, &[delta_t])?;
                Ok(solutions.pop().expect("one load in, one solution out"))
            }
        }
    }

    /// One batched solve over `delta_ts`.
    pub fn solve_many(
        &self,
        layout: &BlockLayout,
        delta_ts: &[f64],
    ) -> Result<Vec<GlobalSolution>, RomError> {
        match self {
            Stack::Product(sim) => sim.solve_array_many(layout, delta_ts, &BC),
            // What `MoreStressSimulator::stage` assembles, around the shim.
            Stack::Staged { sim, shim, cache } => {
                let mut stage = GlobalStage::new(sim.tsv_model())
                    .with_backend(shim)
                    .with_cache(cache);
                if let Some(dummy) = sim.dummy_model() {
                    stage = stage.with_dummy(dummy)?;
                }
                stage.solve_many(layout, delta_ts, &BC)
            }
        }
    }

    /// `prepare` calls the shim saw since the last drain (none on the
    /// product stack).
    pub fn drain(&self) -> Vec<PrepareEvent> {
        match self {
            Stack::Product(_) => Vec::new(),
            Stack::Staged { shim, .. } => shim.drain(),
        }
    }

    /// The partition hint the global stage last handed down (traced stacks
    /// only).
    pub fn hint(&self) -> Option<Arc<PartitionHint>> {
        match self {
            Stack::Product(_) => None,
            Stack::Staged { shim, .. } => shim.hint(),
        }
    }
}

/// The backend `spec.simulator_builder()` resolves to for the direct
/// solver family — rebuilt here because the simulator keeps its own
/// private. Every traced op checks its checksum against the product
/// stack's, which is what keeps this mirror honest.
pub fn backend_of(spec: &CampaignSpec) -> Box<dyn SolverBackend> {
    let verify = spec.solver.verify_policy();
    let direct = DirectCholesky {
        verify,
        ..DirectCholesky::default()
    };
    if spec.solver.shards > 0 {
        let mut sharded = Sharded::with_inner(spec.solver.shards, direct);
        sharded.verify = verify;
        Box::new(sharded)
    } else {
        Box::new(direct)
    }
}

/// What the job body returns: the job's checksum, peak stress and solver
/// accounting, and the last `prepare` the shim saw during it (traced
/// stacks only).
pub struct JobOut {
    /// FNV-1a over the displacement and mid-plane stress bits.
    pub checksum: u64,
    /// Peak mid-plane von Mises stress (MPa).
    pub peak_von_mises: f64,
    /// The solve's own accounting.
    pub stats: GlobalStats,
    /// The last `prepare` the shim saw during the job.
    pub prepared: Option<PrepareEvent>,
}

/// The campaign job body (`runner.rs::solve_job`), with a span around each
/// public call.
pub fn job_body(
    stack: &Stack,
    layout: &BlockLayout,
    delta_t: f64,
    samples: usize,
    perturbed: bool,
    tracer: &mut Tracer,
    op: Option<usize>,
) -> Result<JobOut, RomError> {
    tracer.begin("global.solve", op);
    let solved = stack.solve(layout, delta_t, perturbed);
    let mut prepared = None;
    for event in stack.drain() {
        tracer.child("factor.prepare", op, event.start, event.end);
        prepared = Some(event);
    }
    tracer.end();
    let solution = solved?;

    tracer.begin("reconstruct.sample", op);
    let sampled = stack
        .sim()
        .sample_midplane(layout, &solution, delta_t, samples);
    tracer.end();
    let field = sampled?;

    tracer.begin("runner.checksum", op);
    let checksum = fnv1a(
        solution
            .nodal_displacement()
            .iter()
            .chain(&field.values)
            .copied(),
    );
    tracer.end();
    Ok(JobOut {
        checksum,
        peak_von_mises: field.max(),
        stats: solution.stats,
        prepared,
    })
}

/// Which stack an op runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// [`Stack::Product`].
    Product,
    /// [`Stack::Staged`].
    Staged,
}
