//! The unified solver backend layer.
//!
//! Every linear solve in the MORE-Stress workspace — the full-FEM reference
//! driver, the ROM global stage, the coarse chiplet model — routes through
//! the [`SolverBackend`] trait defined here instead of hand-wiring
//! [`SupernodalCholesky`] calls; the Krylov engines (preconditioned CG and
//! restarted GMRES) are private to this crate and reached only through the
//! [`Cg`], [`Gmres`], [`Auto`] and [`Resilient`] backends. The layer
//! separates the two phases every sparse solver has:
//!
//! 1. **prepare** — the expensive, per-matrix work (symbolic + numeric
//!    Cholesky factorization, or preconditioner construction), producing a
//!    [`PreparedSolver`];
//! 2. **solve** — the cheap, per-right-hand-side work, which can be repeated
//!    (`solve`) or batched task-parallel over many loads (`solve_many`).
//!
//! This split is the paper's own economics (§4.2: *"the time-consuming
//! decomposition needs to be performed only once and the intermediate
//! results can be reused"*) promoted to an architectural boundary, so the
//! global stage inherits it too: a [`FactorCache`] memoizes prepared solvers
//! by the words that build their operator, turning the paper's Table 1/2
//! workloads — one lattice, many thermal loads — into one factorization
//! plus k cheap solves.
//!
//! There is one solve route. [`PreparedSolver::solve_many`] validates the
//! right-hand sides, runs the engine's batch (four engines: direct panels,
//! sharded Schur, CG, GMRES), rejects non-finite solutions, applies the
//! [`VerifyPolicy`] through one verifier and builds the [`SolveReport`];
//! [`PreparedSolver::solve`] is a one-column batch.
//!
//! Reports are built in two steps, both in this crate. Each engine's
//! constructor describes the preparation once, when it is built (the
//! sharded engine's in `SchurSolver::assemble`, the others here): the
//! report of an empty batch, which [`PreparedSolver::description`]
//! returns. `solve_many` then builds every report in one place, as that
//! description with the batch's own numbers — solve time, iterations,
//! residuals, solver bytes at the batch's concurrency, right-hand sides,
//! workers, the verified residual and the solve-time trail. Nothing about
//! the preparation is recomputed per solve. Resilience is not an engine: [`Resilient`] prepares
//! the direct engine — around the factor of `A`, or of `A + δ·I` — and
//! attaches the degradation ladder (verify → refine on the same factor →
//! lazily built GMRES) as a policy, with residuals always taken against
//! the original operator.
//!
//! Every solve returns a [`SolveReport`] carrying iterations, residual,
//! setup/solve wall time and an analytic memory estimate, so cost accounting
//! is uniform across backends and layers.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::iterative::{refine, solve_cg, solve_gmres, Precond, GMRES_RESTART};
use crate::schur::SchurSolver;
use crate::{
    CsrMatrix, FillOrdering, LinalgError, MemoryFootprint, PartitionHint, ShardPlanStats, Sharded,
    SupernodalCholesky, SupernodalOptions, SupernodeStats, WorkPool,
};

// ---------------------------------------------------------------------------
// Verification + degradation ladder types
// ---------------------------------------------------------------------------

/// Residual-verification policy for prepared solves.
///
/// Verification computes the true relative residual `‖b − Ax‖/‖b‖` against
/// the *original* operator after every solve — an O(nnz) SpMV, negligible
/// next to a factorization — and records it in
/// [`SolveReport::verified_residual`]. It never mutates the solution, so
/// turning it on cannot change solve results bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum VerifyPolicy {
    /// No residual verification (the default).
    #[default]
    Off,
    /// Compute and record the residual; never fail the solve.
    Report,
    /// Compute and record the residual; a residual above `tol` (or a
    /// non-finite one) fails the solve with
    /// [`LinalgError::DidNotConverge`] — or, under the resilient ladder,
    /// triggers the next rung.
    Enforce {
        /// Largest acceptable relative residual.
        tol: f64,
    },
}

impl VerifyPolicy {
    pub(crate) fn fingerprint(&self) -> u64 {
        match *self {
            VerifyPolicy::Off => 0,
            VerifyPolicy::Report => 0x5,
            VerifyPolicy::Enforce { tol } => 0xA ^ tol.to_bits().rotate_left(8),
        }
    }
}

/// Rungs of the resilience degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Iterative refinement reusing the existing (possibly shifted) factor.
    Refined,
    /// Diagonal-shift regularized re-factorization.
    Regularized,
    /// GMRES on the raw operator action.
    Gmres,
    /// A suspect cached factor was invalidated and re-prepared from
    /// scratch (the [`FactorCache`] stale-entry self-heal).
    Rebuilt,
}

/// One recorded escalation of the degradation ladder: the rung the solve
/// moved to, and the typed error that forced the move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationStep {
    /// Rung the ladder escalated to.
    pub rung: Rung,
    /// The failure that triggered the escalation.
    pub error: LinalgError,
}

/// Maximum [`DegradationStep`]s a trail retains.
pub const MAX_DEGRADATION_STEPS: usize = 4;

/// A fixed-capacity, `Copy` trail of [`DegradationStep`]s — the structured
/// history of every recovery a prepare/solve performed, carried in
/// [`SolveReport::degradation`] instead of being discarded. At most
/// [`MAX_DEGRADATION_STEPS`] steps are kept (the ladder has fewer rungs, so
/// saturation only loses repeats).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationTrail {
    steps: [Option<DegradationStep>; MAX_DEGRADATION_STEPS],
}

impl DegradationTrail {
    /// An empty trail.
    pub const fn new() -> Self {
        Self {
            steps: [None; MAX_DEGRADATION_STEPS],
        }
    }

    /// Records a step (saturating: steps past the capacity are dropped).
    pub fn push(&mut self, step: DegradationStep) {
        if let Some(slot) = self.steps.iter_mut().find(|s| s.is_none()) {
            *slot = Some(step);
        }
    }

    /// The recorded steps, in escalation order.
    pub fn steps(&self) -> impl Iterator<Item = &DegradationStep> {
        self.steps.iter().flatten()
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.iter().flatten().count()
    }

    /// Whether no degradation was recorded (the clean path).
    pub fn is_empty(&self) -> bool {
        self.steps[0].is_none()
    }

    /// The deepest rung reached, if any degradation was recorded.
    pub fn last(&self) -> Option<&DegradationStep> {
        self.steps.iter().flatten().last()
    }
}

/// Fails with [`LinalgError::NonFinite`] if `values` holds a NaN/Inf.
pub(crate) fn check_finite(values: &[f64], context: &'static str) -> Result<(), LinalgError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(LinalgError::NonFinite { context, index }),
        None => Ok(()),
    }
}

/// The first check of every `prepare`: fails with
/// [`LinalgError::DimensionMismatch`] unless the operator is square, then
/// scans its stored values for NaN/Inf (O(nnz)).
pub(crate) fn check_operator(a: &CsrMatrix) -> Result<(), LinalgError> {
    if a.nrows() != a.ncols() {
        return Err(LinalgError::DimensionMismatch {
            context: "operator",
            expected: a.nrows(),
            found: a.ncols(),
        });
    }
    check_finite(a.values(), "operator")
}

// ---------------------------------------------------------------------------
// SolveReport
// ---------------------------------------------------------------------------

/// Uniform cost/quality accounting of one (possibly batched) solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveReport {
    /// Name of the backend that prepared the solver: `"cholesky"`,
    /// `"sharded"`, `"cg"`, `"gmres"`, or `"resilient"` for the direct
    /// factor under the degradation ladder (a [`Resilient`] preparation
    /// that fell to GMRES reports `"gmres"`). [`SolveReport::NONE`] says
    /// `"none"`.
    pub backend: &'static str,
    /// Wall time of the one-time preparation (factorization or
    /// preconditioner build) behind this solve.
    pub setup_time: Duration,
    /// Wall time of the solve itself: for
    /// [`PreparedSolver::solve_many`], the batch's wall time from
    /// validation to verification.
    pub solve_time: Duration,
    /// Iterations performed (summed over the batch); `None` for direct
    /// solves.
    pub iterations: Option<usize>,
    /// Relative residual estimate (worst over the batch); `None` for direct
    /// solves, which do not compute it.
    pub residual: Option<f64>,
    /// Analytic heap estimate (bytes) of the solver state: factor or
    /// preconditioner plus iteration workspace.
    pub solver_bytes: usize,
    /// Number of right-hand sides this report covers.
    pub rhs_count: usize,
    /// [`WorkPool`] worker slots that solved at least one right-hand side
    /// (1 for single-RHS and serial solves). Honest telemetry of what ran,
    /// bounded by the `threads` request and the pool cap — but the exact
    /// value is scheduling-dependent, so don't gate regressions on it.
    pub workers: usize,
    /// [`WorkPool`] worker slots the numeric *factorization* behind this
    /// solve used (1 for serial factorization and the iterative engines).
    /// Same scheduling-dependent-telemetry caveat as
    /// [`workers`](SolveReport::workers).
    pub factor_workers: usize,
    /// Shape statistics of the supernodal factor behind this solve —
    /// supernode count, etree height, weighted critical path, subtree
    /// balance and the resolved fill ordering
    /// ([`SupernodeStats::ordering`]); `None` for the iterative engines
    /// and for the sharded engine, whose blocks each have their own.
    pub supernode_stats: Option<SupernodeStats>,
    /// Stored entries of the direct factor behind this solve (summed over
    /// all blocks for the sharded engine). `None` for the iterative
    /// engines.
    pub factor_nnz: Option<usize>,
    /// Interior shards of the [`Sharded`](crate::Sharded) backend behind
    /// this solve (1 for every monolithic backend).
    pub shards: usize,
    /// Interface DoFs coupling the shards in the Schur-complement solve
    /// (0 for monolithic backends).
    pub interface_dofs: usize,
    /// Largest single-shard solver footprint in bytes — the peak factor
    /// memory any one shard needs, which is what sharding bounds (0 for
    /// monolithic backends, whose whole factor is one block).
    pub shard_factor_bytes: usize,
    /// Interior shards whose factor + clique were (re)computed by the
    /// preparation behind this solve. A from-scratch sharded prepare
    /// refactors every shard (`shards_refactored == shards`); the
    /// incremental re-preparation after a value-only perturbation
    /// refactors only the touched shards. 0 for monolithic backends.
    pub shards_refactored: usize,
    /// Interior shards whose factor and stored clique were reused intact
    /// from the previous preparation by the incremental sharded path
    /// (`shards_refactored + shards_reused == shards` for the sharded
    /// engine; 0 for monolithic backends and from-scratch prepares).
    pub shards_reused: usize,
    /// True relative residual `‖b − Ax‖/‖b‖` against the original operator
    /// (worst over the batch), when a [`VerifyPolicy`] other than `Off` is
    /// active or the resilient ladder ran; `None` when verification is off.
    pub verified_residual: Option<f64>,
    /// Structured trail of every degradation-ladder escalation behind this
    /// solve — preparation-time steps (regularized re-factor, GMRES
    /// fallback) followed by solve-time steps (refinement, GMRES rung).
    /// Empty on the clean path. For batched solves, the deepest per-RHS
    /// trail is reported.
    pub degradation: DegradationTrail,
    /// Blocks of the sharded engine running on a degraded (regularized or
    /// iterative) solver instead of a clean direct factor — interior shards
    /// plus, when the interface system itself fell down the ladder, one
    /// more. 0 for monolithic backends and fully-clean sharded solves.
    pub shards_degraded: usize,
    /// Quality accounting of the [`ShardPlan`](crate::ShardPlan) behind a
    /// sharded solve — per-shard rows/estimated factor work, balance
    /// ratio, interface fraction, and which planner route produced it.
    /// `None` for monolithic backends.
    pub plan_stats: Option<ShardPlanStats>,
}

impl SolveReport {
    /// The report of a solve that had nothing to solve — every DoF
    /// prescribed: backend `"none"`, one shard, one worker, no factor, no
    /// time, no bytes. Every prepared solver's description starts from it.
    pub const NONE: SolveReport = SolveReport {
        backend: "none",
        setup_time: Duration::ZERO,
        solve_time: Duration::ZERO,
        iterations: None,
        residual: None,
        solver_bytes: 0,
        rhs_count: 0,
        workers: 1,
        factor_workers: 1,
        supernode_stats: None,
        factor_nnz: None,
        shards: 1,
        interface_dofs: 0,
        shard_factor_bytes: 0,
        shards_refactored: 0,
        shards_reused: 0,
        verified_residual: None,
        degradation: DegradationTrail::new(),
        shards_degraded: 0,
        plan_stats: None,
    };
}

/// One solved right-hand side with its report.
#[derive(Debug, Clone)]
pub struct BackendSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Cost/quality accounting.
    pub report: SolveReport,
}

/// A batch of solved right-hand sides with one aggregate report.
#[derive(Debug, Clone)]
pub struct BatchSolution {
    /// Solutions, in right-hand-side order.
    pub xs: Vec<Vec<f64>>,
    /// Aggregate cost/quality accounting.
    pub report: SolveReport,
}

// ---------------------------------------------------------------------------
// SolverBackend + PreparedSolver
// ---------------------------------------------------------------------------

/// A linear solver strategy: factorization- or iteration-based.
///
/// A backend is cheap configuration; [`SolverBackend::prepare`] does the
/// per-matrix work once and returns a [`PreparedSolver`] that can solve any
/// number of right-hand sides (also batched and task-parallel).
pub trait SolverBackend: fmt::Debug + Send + Sync {
    /// Short stable name for reports and cache keys.
    fn name(&self) -> &'static str;

    /// Performs the one-time per-matrix setup.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] from direct factorization of an
    /// indefinite operator; dimension errors for non-square input.
    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError>;

    /// Fingerprint of the backend *configuration* (tolerance,
    /// verification policy, shard count), matched beside every
    /// [`FactorCache`] key so differently-configured backends never share
    /// an entry.
    fn config_fingerprint(&self) -> u64;

    /// Whether a cached solver prepared under a *different* configuration
    /// is interchangeable with what `prepare(a)` would produce.
    ///
    /// Nothing in the workspace calls it: a [`FactorCache`] finds an entry
    /// by backend configuration and key and nothing else, and no
    /// backend here overrides the default `false`. It stays declared only
    /// because the benchmark's delegating backend forwards it.
    fn accepts_cached(&self, _prepared: &PreparedSolver, _a: &CsrMatrix) -> bool {
        false
    }

    /// Receives the [`PartitionHint`] of the operator the global stage is
    /// about to solve, so that a delegating backend can record it (the
    /// benchmark's tracing shim does). No backend in this crate acts on it
    /// — solvers read the hint the operator carries
    /// ([`CsrMatrix::partition_hint`]) — and the default is a no-op.
    fn set_partition_hint(&self, _hint: Option<Arc<PartitionHint>>) {}
}

enum Engine {
    /// Boxed: a supernodal factor is by far the largest variant, and
    /// `PreparedSolver`s travel through caches and `Arc`s by value.
    Direct(Box<SupernodalCholesky>),
    /// The domain-decomposition engine of the [`Sharded`](crate::Sharded)
    /// backend: per-shard interior factors + a factored interface Schur
    /// complement. `Arc`-shared so the backend can retain the previous
    /// preparation as the base of the incremental re-factorization path.
    Sharded(Arc<SchurSolver>),
    /// Preconditioned CG to relative residual `tol`, at most `max_iter`
    /// iterations per right-hand side.
    Cg {
        precond: Precond,
        tol: f64,
        max_iter: usize,
    },
    /// Preconditioned restarted GMRES to relative residual `tol`.
    Gmres { precond: Precond, tol: f64 },
}

/// Sweeps the ladder's refinement rung may spend on one right-hand side.
const MAX_REFINE_SWEEPS: usize = 8;
/// First diagonal shift of the regularization rung, relative to the largest
/// absolute diagonal entry.
const SHIFT_REL: f64 = 1e-8;
/// Multiplicative escalation between regularized re-factor attempts.
const SHIFT_GROWTH: f64 = 1e4;
/// Regularized re-factor attempts before preparation falls to GMRES.
const SHIFT_ATTEMPTS: usize = 3;

/// The resilience policy of a [`Resilient`]-prepared solver: its
/// [`Engine::Direct`] factor — of the operator itself, or of the
/// regularized `A + δ·I` — is the first rung, and every solve is verified
/// against the *original* operator at `tol`, falling to refinement on the
/// same factor and then to GMRES.
struct Ladder {
    /// Enforced relative-residual tolerance (and the iterative rungs'
    /// target).
    tol: f64,
    /// The GMRES rung, built on first use (most solves never reach it).
    gmres: Mutex<Option<Arc<PreparedSolver>>>,
}

/// Right-hand sides per worker task of the batched direct path: each
/// worker sweeps whole panels of this many columns, one interleaved block
/// of [`SupernodalCholesky::solve_panel_with`] each.
const PANEL_WIDTH: usize = 8;

/// The reusable product of [`SolverBackend::prepare`]: a factorization or a
/// built preconditioner, ready to solve many right-hand sides.
///
/// All state is immutable after preparation, so a `PreparedSolver` is
/// `Send + Sync` and [`solve`](Self::solve) takes `&self` — many loads can
/// be solved concurrently from one shared factor, which is exactly how the
/// paper's one-shot local stage (and our batched global stage) works.
pub struct PreparedSolver {
    matrix: Arc<CsrMatrix>,
    engine: Engine,
    /// What the preparation says about itself, fixed when it was built
    /// (see [`description`](Self::description)).
    described: SolveReport,
    /// Bytes of the shared, reusable state (factor or preconditioner).
    shared_bytes: usize,
    /// Bytes of the per-solve workspace (work/Krylov vectors, or one panel
    /// scratch for the direct engines) — allocated once per *concurrent*
    /// worker in the batched path.
    workspace_bytes: usize,
    /// Residual-verification policy every solve through this solver runs
    /// under (a ladder verifies itself at its own tolerance first; the
    /// policy then applies to the residual it measured).
    verify: VerifyPolicy,
    /// The resilience policy over the direct engine; `None` for every
    /// solver not prepared by [`Resilient`].
    ladder: Option<Ladder>,
}

impl fmt::Debug for PreparedSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedSolver")
            .field("dim", &self.dim())
            .field("described", &self.described)
            .finish()
    }
}

/// What one engine batch hands back: exactly the part of a [`SolveReport`]
/// that differs per solve. Everything else is the prepared solver's
/// [`description`](PreparedSolver::description).
#[derive(Default)]
pub(crate) struct EngineBatch {
    /// Solutions, in right-hand-side order.
    pub(crate) xs: Vec<Vec<f64>>,
    /// Iterations, summed over the batch (`None` for direct solves).
    pub(crate) iterations: Option<usize>,
    /// The engine's own residual estimate, worst over the batch.
    pub(crate) residual: Option<f64>,
    /// Worst true relative residual, when the engine verified itself (the
    /// ladder always does).
    pub(crate) verified: Option<f64>,
    /// Deepest solve-time degradation trail (empty without a ladder).
    pub(crate) trail: DegradationTrail,
    /// Worker slots that solved at least one right-hand side.
    pub(crate) workers: usize,
    /// Per-solve workspaces held at once: one per worker, except for the
    /// sharded engine, whose staging vectors are held per right-hand side
    /// across the interface stage.
    pub(crate) workspaces: usize,
}

impl EngineBatch {
    /// Folds one solve's numbers into the batch aggregate: iterations
    /// summed, the worst residual by [`worse`] (a NaN counts as ∞), the
    /// peak worker slots.
    pub(crate) fn fold(
        &mut self,
        iterations: Option<usize>,
        residual: Option<f64>,
        workers: usize,
    ) {
        if let Some(it) = iterations {
            self.iterations = Some(self.iterations.unwrap_or(0) + it);
        }
        if let Some(res) = residual {
            self.residual = Some(worse(self.residual.unwrap_or(0.0), res));
        }
        self.workers = self.workers.max(workers);
    }
}

/// One right-hand side through a per-RHS engine (the Krylov solvers, the
/// ladder's lower rungs), before [`PreparedSolver::per_rhs_batch`] folds
/// the batch together.
#[derive(Debug, Default)]
pub(crate) struct RhsSolve {
    pub(crate) x: Vec<f64>,
    pub(crate) iterations: Option<usize>,
    pub(crate) residual: Option<f64>,
    pub(crate) verified: Option<f64>,
    pub(crate) trail: DegradationTrail,
}

/// The worse of two relative residuals. A NaN counts as ∞: `f64::max` would
/// silently drop it, and a residual that could not be computed must never
/// pass for a small one.
fn worse(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::INFINITY
    } else {
        a.max(b)
    }
}

impl PreparedSolver {
    /// A solver around `engine`, described by `described` (whose
    /// `solver_bytes` this fills in), with verification off and no ladder.
    fn new(
        matrix: Arc<CsrMatrix>,
        engine: Engine,
        described: SolveReport,
        shared_bytes: usize,
        workspace_bytes: usize,
    ) -> Self {
        Self {
            matrix,
            engine,
            described: SolveReport {
                solver_bytes: shared_bytes + workspace_bytes,
                ..described
            },
            shared_bytes,
            workspace_bytes,
            verify: VerifyPolicy::Off,
            ladder: None,
        }
    }

    /// Wraps an assembled [`SchurSolver`], which describes itself — the
    /// constructor `Sharded::prepare` uses.
    pub(crate) fn from_sharded(
        matrix: Arc<CsrMatrix>,
        schur: Arc<SchurSolver>,
        setup_time: Duration,
        verify: VerifyPolicy,
    ) -> Self {
        let described = SolveReport {
            setup_time,
            ..schur.described
        };
        let (shared_bytes, workspace_bytes) = (schur.shared_bytes, schur.workspace_bytes);
        Self {
            verify,
            ..Self::new(
                matrix,
                Engine::Sharded(schur),
                described,
                shared_bytes,
                workspace_bytes,
            )
        }
    }

    /// What this preparation says about itself, fixed when `prepare`
    /// returned: the report of an empty batch with verification off —
    /// backend, setup time, the factor's size and shape, the shard split
    /// and its reuse, the preparation's degradation trail, and the bytes
    /// of the shared state plus one solve's workspace. Every solve's
    /// [`SolveReport`] is this with the batch's own numbers: solve time,
    /// iterations, residuals, bytes at the batch's concurrency, right-hand
    /// sides, workers, and the solve-time steps appended to the trail.
    pub fn description(&self) -> &SolveReport {
        &self.described
    }

    /// Test-support: rebinds the prepared engine to a different operator
    /// handle, deliberately making the factor inconsistent with the matrix
    /// it claims to solve — the fault-injection cache corruption.
    pub(crate) fn rebind_matrix(mut self, matrix: Arc<CsrMatrix>) -> Self {
        self.matrix = matrix;
        self
    }

    /// Dimension of the prepared operator.
    pub fn dim(&self) -> usize {
        self.matrix.nrows()
    }

    /// The prepared operator.
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }

    /// Solves `A x = b` for one right-hand side: a one-column
    /// [`solve_many`](Self::solve_many), so a single solve and a batch of
    /// one share every check, every bit of the solution and every field of
    /// the report.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DidNotConverge`] from the iterative engines or a
    /// failed [`VerifyPolicy::Enforce`] check;
    /// [`LinalgError::NonFinite`] for a NaN/Inf in `b` or the solution;
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<BackendSolution, LinalgError> {
        let mut batch = self.solve_many(std::slice::from_ref(&b.to_vec()), 1)?;
        Ok(BackendSolution {
            x: batch
                .xs
                .pop()
                .expect("one right-hand side in, one solution out"),
            report: batch.report,
        })
    }

    /// Solves `A X = B` for many right-hand sides on the current
    /// [`WorkPool`], using up to `threads` worker slots (the cap override
    /// clamps to the pool's own cap), all sharing this one prepared factor.
    ///
    /// This is the only solve route: validate the right-hand sides, run
    /// the engine's batch, reject non-finite solutions, apply the
    /// [`VerifyPolicy`], assemble the [`SolveReport`].
    ///
    /// The direct engine takes the **panel path**: the batch is cut into
    /// panels of 8 right-hand sides (`PANEL_WIDTH`), each
    /// worker claims whole panels (with one reused panel and sweep scratch
    /// per worker), and [`SupernodalCholesky::solve_panel_with`] sweeps
    /// each panel in interleaved blocks of up to 8 columns — every load of
    /// the factor serves a whole block, so the factor is streamed once per
    /// block instead of once per right-hand side. Panel partitioning
    /// depends only on the batch size, never on the worker count, and per
    /// column the operation chain is that of a one-column batch, so
    /// results are bitwise identical to looped solves at every pool cap
    /// and every batch size. A [`Resilient`]-prepared solver
    /// runs the same panels, then checks every column's true residual and
    /// walks the ladder's lower rungs only where one misses. Iterative
    /// engines distribute one task per right-hand side.
    ///
    /// This is the batched path the paper's Table 1/2 workloads want: one
    /// factorization (or preconditioner build) serving every thermal load.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] and [`LinalgError::NonFinite`]
    /// for a bad right-hand side, before any work starts; the first solver
    /// failure in right-hand-side order; [`LinalgError::NonFinite`] for a
    /// NaN/Inf in a solution; [`LinalgError::DidNotConverge`] when the
    /// worst true residual fails [`VerifyPolicy::Enforce`].
    pub fn solve_many(
        &self,
        rhs: &[Vec<f64>],
        threads: usize,
    ) -> Result<BatchSolution, LinalgError> {
        for b in rhs {
            if b.len() != self.dim() {
                return Err(LinalgError::DimensionMismatch {
                    context: "prepared solve",
                    expected: self.dim(),
                    found: b.len(),
                });
            }
            check_finite(b, "rhs")?;
        }
        let t0 = Instant::now();
        let batch = match (&self.engine, &self.ladder) {
            (Engine::Direct(factor), None) => self.direct_batch(factor, rhs, threads),
            (Engine::Direct(factor), Some(ladder)) => {
                self.ladder_batch(ladder, factor, rhs, threads)?
            }
            (Engine::Sharded(schur), _) => schur.solve_many(rhs, threads)?,
            (
                Engine::Cg {
                    precond,
                    tol,
                    max_iter,
                },
                _,
            ) => self.per_rhs_batch(rhs.len(), threads, |i| {
                solve_cg(&self.matrix, &rhs[i], precond, *tol, *max_iter)
            })?,
            (Engine::Gmres { precond, tol }, _) => self.per_rhs_batch(rhs.len(), threads, |i| {
                solve_gmres(&self.matrix, &rhs[i], precond, *tol)
            })?,
        };
        for x in &batch.xs {
            check_finite(x, "solution")?;
        }
        let verified_residual = self.verify(rhs, &batch)?;
        Ok(BatchSolution {
            report: self.report(&batch, t0.elapsed(), verified_residual),
            xs: batch.xs,
        })
    }

    /// The one report: this solver's description with the per-solve
    /// numbers of `batch`, its solve-time trail after the preparation's.
    fn report(
        &self,
        batch: &EngineBatch,
        solve_time: Duration,
        verified_residual: Option<f64>,
    ) -> SolveReport {
        let mut degradation = self.described.degradation;
        for step in batch.trail.steps() {
            degradation.push(*step);
        }
        SolveReport {
            solve_time,
            iterations: batch.iterations,
            residual: batch.residual,
            solver_bytes: self.shared_bytes + batch.workspaces * self.workspace_bytes,
            rhs_count: batch.xs.len(),
            workers: batch.workers,
            verified_residual,
            degradation,
            ..self.described
        }
    }

    /// The one verifier: the worst true relative residual of a solved
    /// batch under the [`VerifyPolicy`] — measured here against the
    /// original operator unless the engine already did (the ladder).
    /// A residual that is NaN counts as ∞ ([`worse`]), so it fails
    /// `Enforce` on every engine.
    fn verify(&self, rhs: &[Vec<f64>], batch: &EngineBatch) -> Result<Option<f64>, LinalgError> {
        let worst = match (batch.verified, self.verify) {
            (Some(worst), _) => worst,
            (None, VerifyPolicy::Off) => return Ok(None),
            (None, _) => rhs.iter().zip(&batch.xs).fold(0.0, |worst, (b, x)| {
                worse(worst, self.matrix.residual(x, b))
            }),
        };
        if let VerifyPolicy::Enforce { tol } = self.verify {
            if worst > tol {
                return Err(LinalgError::DidNotConverge {
                    iterations: batch.iterations.unwrap_or(0),
                    residual: worst,
                    restarts: 0,
                });
            }
        }
        Ok(Some(worst))
    }

    /// The direct engine's batch: pool-distributed panels with per-worker
    /// panel scratch (see [`solve_many`](Self::solve_many)).
    fn direct_batch(
        &self,
        factor: &SupernodalCholesky,
        rhs: &[Vec<f64>],
        threads: usize,
    ) -> EngineBatch {
        let n = self.dim();
        let k = rhs.len();
        // A batch narrower than a panel is one panel, with scratch sized
        // to the batch rather than to the panel width.
        let width = PANEL_WIDTH.min(k.max(1));
        let num_panels = k.div_ceil(width);
        let (panels, workers) = WorkPool::current().scope_collect_with(
            threads,
            num_panels,
            || {
                (
                    vec![0.0f64; n * width],
                    vec![0.0f64; factor.scratch_len(width)],
                )
            },
            |(panel, tmp), p| {
                let lo = p * width;
                let hi = (lo + width).min(k);
                let nrhs = hi - lo;
                let panel = &mut panel[..n * nrhs];
                for (c, b) in rhs[lo..hi].iter().enumerate() {
                    panel[c * n..(c + 1) * n].copy_from_slice(b);
                }
                factor.solve_panel_with(panel, nrhs, tmp);
                (0..nrhs)
                    .map(|c| panel[c * n..(c + 1) * n].to_vec())
                    .collect::<Vec<_>>()
            },
        );
        let workers = workers.max(1);
        EngineBatch {
            xs: panels.into_iter().flatten().collect(),
            workers,
            workspaces: workers,
            ..EngineBatch::default()
        }
    }

    /// The batch of every engine that solves one right-hand side at a
    /// time: `solve_rhs(i)` fanned out over the pool, folded in
    /// right-hand-side order — summed iterations, worst residuals, deepest
    /// trail, first error.
    fn per_rhs_batch(
        &self,
        count: usize,
        threads: usize,
        solve_rhs: impl Fn(usize) -> Result<RhsSolve, LinalgError> + Sync,
    ) -> Result<EngineBatch, LinalgError> {
        let (solved, workers) = WorkPool::current().scope_collect(threads, count, solve_rhs);
        let workers = workers.max(1);
        let mut batch = EngineBatch {
            xs: Vec::with_capacity(count),
            workers,
            workspaces: workers,
            ..EngineBatch::default()
        };
        for one in solved {
            let one = one?;
            batch.fold(one.iterations, one.residual, 1);
            if let Some(rr) = one.verified {
                batch.verified = Some(worse(batch.verified.unwrap_or(0.0), rr));
            }
            if one.trail.len() > batch.trail.len() {
                batch.trail = one.trail;
            }
            batch.xs.push(one.x);
        }
        Ok(batch)
    }

    /// The ladder's batch. The direct rung is `direct_batch` itself — so a
    /// clean solve is the plain direct backend's, bit for bit and field
    /// for field — followed by one verification sweep against the original
    /// operator. Only when a column misses `tol` (or came back non-finite)
    /// does every column walk the lower rungs from its direct solution.
    fn ladder_batch(
        &self,
        ladder: &Ladder,
        factor: &SupernodalCholesky,
        rhs: &[Vec<f64>],
        threads: usize,
    ) -> Result<EngineBatch, LinalgError> {
        let mut batch = self.direct_batch(factor, rhs, threads);
        let checked: Vec<Result<f64, LinalgError>> = rhs
            .iter()
            .zip(&batch.xs)
            .map(|(b, x)| check_finite(x, "solution").map(|()| self.matrix.residual(x, b)))
            .collect();
        if checked
            .iter()
            .all(|rr| matches!(rr, Ok(rr) if *rr <= ladder.tol))
        {
            batch.verified = Some(checked.iter().flatten().fold(0.0, |w, &rr| worse(w, rr)));
            return Ok(batch);
        }
        self.per_rhs_batch(rhs.len(), threads, |i| {
            let direct = checked[i].map(|rr| (batch.xs[i].clone(), rr));
            self.lower_rungs(ladder, factor, &rhs[i], direct)
        })
    }

    /// Walks one right-hand side down from its direct solution `(x,
    /// residual)`: accept it at `tol`, else iterative refinement reusing
    /// the (possibly shifted) factor, else GMRES.
    fn lower_rungs(
        &self,
        ladder: &Ladder,
        factor: &SupernodalCholesky,
        b: &[f64],
        direct: Result<(Vec<f64>, f64), LinalgError>,
    ) -> Result<RhsSolve, LinalgError> {
        let mut trail = DegradationTrail::new();
        let (mut x, rr) = match direct {
            Ok(direct) => direct,
            // A non-finite direct solution (severely ill-conditioned
            // factor) cannot be refined — fall straight to GMRES.
            Err(err) => return self.gmres_rung(ladder, b, err, 0, trail),
        };
        if rr <= ladder.tol {
            return Ok(RhsSolve {
                x,
                verified: Some(rr),
                ..RhsSolve::default()
            });
        }
        // Refinement rung: solve the correction equation on the same
        // factor. Stall detection keeps the best iterate, and a non-finite
        // correction stalls the sweep.
        trail.push(DegradationStep {
            rung: Rung::Refined,
            error: LinalgError::DidNotConverge {
                iterations: 0,
                residual: rr,
                restarts: 0,
            },
        });
        let (sweeps, refined) = refine(
            self.matrix.as_ref(),
            b,
            &mut x,
            |r| factor.solve(r),
            ladder.tol,
            MAX_REFINE_SWEEPS,
        );
        if refined <= ladder.tol {
            return Ok(RhsSolve {
                x,
                iterations: Some(sweeps),
                residual: Some(refined),
                verified: Some(refined),
                trail,
            });
        }
        let stalled = LinalgError::DidNotConverge {
            iterations: sweeps,
            residual: refined,
            restarts: 0,
        };
        self.gmres_rung(ladder, b, stalled, sweeps, trail)
    }

    /// The bottom rung: GMRES on the original operator action, prepared
    /// lazily and shared across right-hand sides.
    fn gmres_rung(
        &self,
        ladder: &Ladder,
        b: &[f64],
        cause: LinalgError,
        sweeps: usize,
        mut trail: DegradationTrail,
    ) -> Result<RhsSolve, LinalgError> {
        trail.push(DegradationStep {
            rung: Rung::Gmres,
            error: cause,
        });
        let gmres = {
            let mut slot = ladder.gmres.lock().expect("gmres rung poisoned");
            match &*slot {
                Some(prepared) => Arc::clone(prepared),
                None => {
                    let prepared =
                        Arc::new(Gmres::with_tol(ladder.tol).prepare(Arc::clone(&self.matrix))?);
                    *slot = Some(Arc::clone(&prepared));
                    prepared
                }
            }
        };
        let sol = gmres.solve(b)?;
        let rr = self.matrix.residual(&sol.x, b);
        Ok(RhsSolve {
            x: sol.x,
            iterations: sol.report.iterations.map(|it| it + sweeps),
            residual: sol.report.residual,
            verified: Some(rr),
            trail,
        })
    }
}

// ---------------------------------------------------------------------------
// Backend implementations
// ---------------------------------------------------------------------------

/// Direct sparse Cholesky backend: the supernodal blocked factorization
/// ([`SupernodalCholesky`]) under the per-operator [`FillOrdering::Auto`]
/// ordering (geometric dissection along the block grid when the operator
/// carries a [`PartitionHint`], RCM otherwise), factored as an
/// elimination-tree task DAG on the current [`WorkPool`], with the
/// default [`SupernodalOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DirectCholesky {
    /// Residual-verification policy for every solve through the prepared
    /// solver (default: [`VerifyPolicy::Off`]). Verification never mutates
    /// the solution, so `Report` is bitwise-free telemetry.
    pub verify: VerifyPolicy,
}

impl DirectCholesky {
    /// Orders and factors `a`, and wraps the factor as a prepared direct
    /// solver whose setup clock started at `t0` — shared by this backend's
    /// `prepare` and the [`Resilient`] ladder, which factors `shifted`
    /// (`A + δ·I`) in place of `a` on its regularization rung.
    fn prepare_factor(
        &self,
        a: Arc<CsrMatrix>,
        shifted: Option<&CsrMatrix>,
        t0: Instant,
    ) -> Result<PreparedSolver, LinalgError> {
        let factored = shifted.unwrap_or(&a);
        let factor = SupernodalCholesky::factor_ordered(
            factored,
            FillOrdering::Auto,
            &SupernodalOptions::default(),
        )?;
        Ok(self.wrap_factor(a, factor, t0))
    }

    /// Factors `a` bordered by extra trailing rows: `bordered` is `a` in its
    /// leading rows and columns, followed by border rows. The leading block
    /// is ordered like a plain prepare of `a` would order it, the border
    /// stays last, and one partial factorization
    /// ([`SupernodalCholesky::factor_bordered`]) yields both the prepared
    /// solver of `a` and the dense Schur complement of the border — how a
    /// [`Sharded`](crate::Sharded) shard gets its interior factor and its
    /// interface clique at once.
    pub(crate) fn prepare_bordered(
        &self,
        a: Arc<CsrMatrix>,
        bordered: &CsrMatrix,
    ) -> Result<(PreparedSolver, Vec<f64>), LinalgError> {
        let t0 = Instant::now();
        let ordering = FillOrdering::Auto.resolve(&a);
        let (factor, border) = SupernodalCholesky::factor_bordered(
            bordered,
            ordering.permutation(&a),
            &SupernodalOptions::default(),
        )?;
        Ok((
            self.wrap_factor(a, factor.named(ordering.name()), t0),
            border,
        ))
    }

    /// Wraps a factor of `a` as a prepared direct solver whose setup clock
    /// started at `t0`.
    fn wrap_factor(
        &self,
        a: Arc<CsrMatrix>,
        factor: SupernodalCholesky,
        t0: Instant,
    ) -> PreparedSolver {
        let shared_bytes = factor.heap_bytes();
        // One panel plus the sweep's interleaved and gather blocks, per
        // concurrent worker.
        let workspace_bytes = (PANEL_WIDTH * a.nrows() + factor.scratch_len(PANEL_WIDTH))
            * std::mem::size_of::<f64>();
        let described = SolveReport {
            backend: "cholesky",
            setup_time: t0.elapsed(),
            factor_workers: factor.factor_workers(),
            supernode_stats: Some(factor.stats()),
            factor_nnz: Some(factor.factor_nnz()),
            ..SolveReport::NONE
        };
        PreparedSolver {
            verify: self.verify,
            ..PreparedSolver::new(
                a,
                Engine::Direct(Box::new(factor)),
                described,
                shared_bytes,
                workspace_bytes,
            )
        }
    }
}

impl SolverBackend for DirectCholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        let t0 = Instant::now();
        check_operator(&a)?;
        self.prepare_factor(a, None, t0)
    }

    fn config_fingerprint(&self) -> u64 {
        0x10 ^ self.verify.fingerprint().rotate_left(36)
    }
}

/// Jacobi-preconditioned conjugate-gradient backend (SPD operators), at
/// most 50 000 iterations — the configuration of [`LinearSolver::Cg`].
/// The Jacobi preconditioner scales by the inverse diagonal (a zero entry
/// counts as 1) and holds one vector of `n` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cg {
    tol: f64,
}

impl Cg {
    /// CG at relative-residual tolerance `tol`.
    pub fn with_tol(tol: f64) -> Self {
        Self { tol }
    }
}

/// Prepares the CG engine for `a` at tolerance `tol` and iteration cap
/// `max_iter`, preconditioned by what `build` makes of `a`: [`Cg`]'s
/// Jacobi, or [`Auto`]'s SSOR arm.
fn prepare_cg(
    a: Arc<CsrMatrix>,
    tol: f64,
    max_iter: usize,
    build: impl FnOnce(&CsrMatrix) -> Result<Precond, LinalgError>,
) -> Result<PreparedSolver, LinalgError> {
    let t0 = Instant::now();
    check_operator(&a)?;
    let n = a.nrows();
    let precond = build(&a)?;
    let precond_bytes = precond.heap_bytes();
    Ok(PreparedSolver::new(
        a,
        Engine::Cg {
            precond,
            tol,
            max_iter,
        },
        SolveReport {
            backend: "cg",
            setup_time: t0.elapsed(),
            ..SolveReport::NONE
        },
        precond_bytes,
        // The 5 CG work vectors, per concurrent solve.
        5 * n * std::mem::size_of::<f64>(),
    ))
}

impl SolverBackend for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        prepare_cg(a, self.tol, 50_000, |a| Ok(Precond::jacobi(a)))
    }

    fn config_fingerprint(&self) -> u64 {
        0x20 ^ self.tol.to_bits()
    }
}

/// Jacobi-preconditioned restarted-GMRES backend (general operators; the
/// paper's global-stage prescription): cycles of 60 iterations, at most 200
/// cycles — the configuration of [`LinearSolver::Gmres`]. The Jacobi
/// preconditioner scales by the inverse diagonal (a zero entry counts as 1)
/// and holds one vector of `n` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gmres {
    tol: f64,
}

impl Gmres {
    /// GMRES at relative-residual tolerance `tol`.
    pub fn with_tol(tol: f64) -> Self {
        Self { tol }
    }
}

impl SolverBackend for Gmres {
    fn name(&self) -> &'static str {
        "gmres"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        let t0 = Instant::now();
        check_operator(&a)?;
        let n = a.nrows();
        let precond = Precond::jacobi(&a);
        let precond_bytes = precond.heap_bytes();
        Ok(PreparedSolver::new(
            a,
            Engine::Gmres {
                precond,
                tol: self.tol,
            },
            SolveReport {
                backend: "gmres",
                setup_time: t0.elapsed(),
                ..SolveReport::NONE
            },
            precond_bytes,
            // `restart + 1` Krylov vectors, per concurrent solve.
            (GMRES_RESTART + 1) * n * std::mem::size_of::<f64>(),
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        0x30 ^ self.tol.to_bits()
    }
}

/// The degradation-ladder backend: direct Cholesky hardened with verified
/// residuals, iterative refinement, diagonal-shift regularization and a
/// GMRES bottom rung.
///
/// The prepared solver *is* a direct solver — the same engine, panels and
/// report as [`DirectCholesky`]'s — carrying the ladder as a policy, so on
/// a clean operator its solutions are bitwise the plain direct backend's by
/// construction. The ladder escalates in order and records every
/// transition as a [`DegradationStep`] in [`SolveReport::degradation`]:
///
/// 1. **direct factor** of the operator (the clean path);
/// 2. **iterative refinement** reusing that factor when the verified
///    residual misses `tol`;
/// 3. **diagonal-shift regularized re-factor** (`A + δ·I`, escalating δ)
///    when factorization rejects the operator as not positive definite —
///    the prepared solver then holds (and reports the supernode
///    statistics of) the shifted factor, and its solves are verified and
///    refined against the *original* operator;
/// 4. **GMRES** on the raw operator action.
///
/// The refinement budget and the shift schedule are fixed constants of the
/// ladder, and its factors are the default [`DirectCholesky`]'s; `tol` is
/// its whole configuration.
///
/// A solve through this backend either meets `tol`, succeeds with the
/// degradation recorded, or returns a typed [`LinalgError`] — it never
/// panics on ill-conditioned, indefinite, singular or NaN-poisoned input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilient {
    /// Relative-residual tolerance the ladder enforces (and the iterative
    /// rungs target).
    pub tol: f64,
}

impl Default for Resilient {
    fn default() -> Self {
        Self::with_tol(1e-8)
    }
}

impl Resilient {
    /// The ladder at enforcement tolerance `tol`.
    pub fn with_tol(tol: f64) -> Self {
        Self { tol }
    }

    /// The regularization rung: factors `A + δ·I` with escalating δ until
    /// one attempt is positive definite. A
    /// [`LinalgError::NotPositiveDefinite`] back means every attempt broke
    /// down (it is the last breakdown, or `breakdown` itself); any other
    /// error is not the ladder's to absorb.
    fn regularized(
        &self,
        a: &Arc<CsrMatrix>,
        t0: Instant,
        mut breakdown: LinalgError,
    ) -> Result<PreparedSolver, LinalgError> {
        let max_diag = a
            .diagonal()
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()))
            .max(1.0);
        let mut shift = SHIFT_REL * max_diag;
        for _ in 0..SHIFT_ATTEMPTS {
            let shifted = shifted_copy(a, shift);
            match DirectCholesky::default().prepare_factor(Arc::clone(a), Some(&shifted), t0) {
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    breakdown = e;
                    shift *= SHIFT_GROWTH;
                }
                settled => return settled,
            }
        }
        Err(breakdown)
    }
}

/// A value-copy of `a` with `shift` added to every diagonal entry
/// (inserting diagonal entries absent from the pattern, so regularization
/// never hits an off-pattern panic) — still the same rows, so it keeps
/// `a`'s partition hint and the regularized factor is ordered like the
/// clean one. Shared with the fault-injection machinery, which uses large
/// shifts to build deliberately-wrong factors.
pub(crate) fn shifted_copy(a: &CsrMatrix, shift: f64) -> CsrMatrix {
    let mut coo = crate::CooMatrix::new(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(i, j, v);
        }
    }
    for i in 0..a.nrows().min(a.ncols()) {
        coo.push(i, i, shift);
    }
    let shifted = coo.to_csr();
    match a.partition_hint() {
        Some(hint) => shifted.with_partition_hint(Arc::clone(hint)),
        None => shifted,
    }
}

impl SolverBackend for Resilient {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        let t0 = Instant::now();
        check_operator(&a)?;
        let mut trail = DegradationTrail::new();
        let mut prepared = match DirectCholesky::default().prepare_factor(Arc::clone(&a), None, t0)
        {
            Ok(prepared) => prepared,
            Err(err @ LinalgError::NotPositiveDefinite { .. }) => {
                trail.push(DegradationStep {
                    rung: Rung::Regularized,
                    error: err,
                });
                match self.regularized(&a, t0, err) {
                    Ok(prepared) => prepared,
                    Err(breakdown @ LinalgError::NotPositiveDefinite { .. }) => {
                        // Bottom rung at prepare time: hand back a plain
                        // GMRES solver carrying the full trail, so the
                        // Cholesky failure that forced it stays on record.
                        trail.push(DegradationStep {
                            rung: Rung::Gmres,
                            error: breakdown,
                        });
                        let mut prepared = Gmres::with_tol(self.tol).prepare(a)?;
                        prepared.described.degradation = trail;
                        prepared.described.setup_time = t0.elapsed();
                        return Ok(prepared);
                    }
                    Err(other) => return Err(other),
                }
            }
            Err(other) => return Err(other),
        };
        prepared.ladder = Some(Ladder {
            tol: self.tol,
            gmres: Mutex::new(None),
        });
        // The ladder verifies every solve itself, at `tol`.
        prepared.verify = VerifyPolicy::Off;
        prepared.described.backend = "resilient";
        prepared.described.degradation = trail;
        prepared.described.setup_time = t0.elapsed();
        Ok(prepared)
    }

    fn config_fingerprint(&self) -> u64 {
        0x60 ^ self.tol.to_bits().rotate_left(16)
    }
}

/// Policy backend: direct Cholesky below a size threshold, SSOR-CG above
/// it, with a GMRES fallback when factorization rejects the operator.
///
/// The iterative arm runs CG to `tol` in at most 20 000 iterations, under
/// symmetric successive over-relaxation at ω = 1.2: one forward and one
/// backward sweep over the prepared operator itself, holding only its
/// diagonal. An operator with a zero diagonal entry fails that arm's
/// preparation with [`LinalgError::NotPositiveDefinite`].
///
/// This mirrors common practice (and the paper's ANSYS setup, which
/// switches to the iterative solver for large models) while staying robust:
/// every SPD operator ends up with a converging backend.
/// [`LinearSolver::Auto`] selects [`Auto::default`], the workspace's one
/// threshold: direct up to 120 000 rows, verified at 1e-9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Auto {
    /// Largest dimension still handed to the direct solver.
    pub direct_limit: usize,
    /// Tolerance for the iterative engines.
    pub tol: f64,
}

impl Default for Auto {
    fn default() -> Self {
        Self {
            direct_limit: 120_000,
            tol: 1e-9,
        }
    }
}

impl SolverBackend for Auto {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        if a.nrows() <= self.direct_limit {
            // Route through the degradation ladder: on a clean SPD operator
            // this is exactly the direct factor (bitwise-identical solves),
            // and when factorization rejects the operator the ladder records
            // the triggering Cholesky error as the first `DegradationStep`
            // instead of silently swapping in GMRES.
            Resilient::with_tol(self.tol).prepare(a)
        } else {
            prepare_cg(a, self.tol, 20_000, Precond::ssor)
        }
    }

    fn config_fingerprint(&self) -> u64 {
        0x40 ^ self.tol.to_bits() ^ (self.direct_limit as u64).rotate_left(20)
    }
}

// ---------------------------------------------------------------------------
// Solver selection
// ---------------------------------------------------------------------------

/// Which solver a stage uses — the one selection of the workspace: the
/// full-FEM driver, the ROM global stage and the campaign spec's
/// `global_solver` all name their solver with it, and
/// [`LinearSolver::backend`] is the one place a selection becomes a
/// [`SolverBackend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinearSolver {
    /// The supernodal Cholesky factor under [`FillOrdering::Auto`]: exact,
    /// and memory-hungry on large operators — which is precisely the cost
    /// the paper measures for full FEM. The paper prefers iterative
    /// solvers for its global stage because it solves each system once;
    /// with batched solves and the [`FactorCache`], one factorization
    /// serves every thermal load, which flips the economics in favor of
    /// the direct solver.
    DirectCholesky,
    /// Jacobi-preconditioned CG (the operators solved here are SPD): the
    /// [`Cg`] backend.
    Cg {
        /// Relative residual tolerance.
        tol: f64,
    },
    /// Jacobi-preconditioned restarted GMRES (the paper's prescription for
    /// its global stage): the [`Gmres`] backend.
    Gmres {
        /// Relative residual tolerance.
        tol: f64,
    },
    /// [`Auto::default`]: direct Cholesky up to its `direct_limit` rows,
    /// SSOR-preconditioned CG above — the paper's ANSYS setup, which
    /// switches to the iterative solver for large models.
    Auto,
    /// Domain-decomposition sharding ([`Sharded`]): `shards` interior
    /// blocks, each factored by the direct Cholesky backend and coupled by
    /// a Schur-complement interface system, cut along the block grid of
    /// the operator's [`PartitionHint`]. The peak factor memory is the
    /// largest shard's, not the whole operator's. `shards <= 1` is one
    /// monolithic direct factor through the same route.
    Sharded {
        /// Interior shard count (the plan may produce fewer: never more
        /// than the grid has blocks, and one on operators too small to
        /// cut).
        shards: usize,
    },
}

impl Default for LinearSolver {
    /// GMRES at 1e-9, the paper's choice.
    fn default() -> Self {
        LinearSolver::Gmres { tol: 1e-9 }
    }
}

impl LinearSolver {
    /// Maps this selection to its backend.
    ///
    /// `verify` applies to the direct-Cholesky family
    /// ([`LinearSolver::DirectCholesky`] and [`LinearSolver::Sharded`],
    /// including each shard's inner factorization). `Auto` verifies itself
    /// at its own tolerance, and `Cg` and `Gmres` ignore it.
    /// [`VerifyPolicy::Off`] is those backends' own default.
    ///
    /// Each call constructs a *fresh* backend — for
    /// [`LinearSolver::Sharded`] that means no retained previous
    /// preparation, so a caller that prepares repeatedly constructs once
    /// and keeps the backend.
    pub fn backend(self, verify: VerifyPolicy) -> Box<dyn SolverBackend> {
        let direct = DirectCholesky { verify };
        match self {
            LinearSolver::DirectCholesky => Box::new(direct),
            LinearSolver::Cg { tol } => Box::new(Cg::with_tol(tol)),
            LinearSolver::Gmres { tol } => Box::new(Gmres::with_tol(tol)),
            LinearSolver::Auto => Box::new(Auto::default()),
            LinearSolver::Sharded { shards } => {
                let mut sharded = Sharded::with_inner(shards.max(1), direct);
                sharded.verify = verify;
                Box::new(sharded)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FactorCache
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CacheEntry {
    /// The [`config_fingerprint`](SolverBackend::config_fingerprint) of
    /// the backend that prepared the solver.
    backend_config: u64,
    /// The caller's words for the operator.
    key: Box<[u64]>,
    solver: Arc<PreparedSolver>,
}

impl CacheEntry {
    fn is(&self, backend_config: u64, key: &[u64]) -> bool {
        self.backend_config == backend_config && *self.key == *key
    }
}

/// Memo of [`PreparedSolver`]s, keyed by what builds their operator.
///
/// The caller names every operator by a key: exact `[u64]` words that
/// determine it — for the global stage: interpolation counts,
/// boundary-condition kind, layout shape and every block's ROM identity.
/// A key is matched word for word under the backend's
/// [configuration fingerprint](SolverBackend::config_fingerprint), so a
/// lookup reads neither the operator nor a hash of it, and entries
/// prepared under different configurations never answer for one another.
/// The caller vouches that equal words mean an equal operator, which is
/// why the words should name identities that cannot collide
/// (process-unique ids, exact counts), never hashes.
///
/// A small LRU list (default capacity 4) keeps alternating layouts from
/// thrashing a single slot; a simulator solving many loads on one layout
/// reuses one symbolic + numeric factorization instead of re-factoring per
/// call.
#[derive(Debug)]
pub struct FactorCache {
    capacity: usize,
    entries: Mutex<Vec<CacheEntry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Default for FactorCache {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a-style hash over the CSR arrays (structure and values) and the
/// operator's partition hint, if it carries one, mixed one 64-bit word at a
/// time. Word-wise mixing is ~8× cheaper than the byte-wise variant on
/// large operators; callers confirm equal fingerprints by exact comparison.
///
/// No product code hashes an operator: the [`FactorCache`] matches the
/// caller's key and the [`Sharded`](crate::Sharded) re-preparation diffs
/// values exactly. Public only for the benchmark's traced replay of the
/// hash the cache once computed.
pub fn matrix_fingerprint(a: &CsrMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    };
    for &p in a.row_ptr() {
        mix(p as u64);
    }
    for &c in a.col_idx() {
        mix(c as u64);
    }
    for &v in a.values() {
        mix(v.to_bits());
    }
    // A hinted operator is ordered — and therefore rounded — by its hint:
    // equal arrays under different hints are different operators.
    if let Some(hint) = a.partition_hint() {
        let spans = hint.spans().iter().flatten();
        for &v in hint.grid().iter().chain(spans) {
            mix(v as u64);
        }
    }
    h
}

impl FactorCache {
    /// A cache holding up to 4 prepared solvers.
    pub fn new() -> Self {
        Self::with_capacity(4)
    }

    /// A cache holding up to `capacity` prepared solvers.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn entries(&self) -> MutexGuard<'_, Vec<CacheEntry>> {
        self.entries.lock().expect("factor cache poisoned")
    }

    /// Moves the entry under `(backend_config, key)`, if any, to the front
    /// of the LRU list and returns its solver, counting a hit.
    fn hit(
        &self,
        entries: &mut Vec<CacheEntry>,
        backend_config: u64,
        key: &[u64],
    ) -> Option<Arc<PreparedSolver>> {
        let pos = entries.iter().position(|e| e.is(backend_config, key))?;
        let entry = entries.remove(pos);
        let solver = Arc::clone(&entry.solver);
        entries.insert(0, entry);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(solver)
    }

    /// Inserts `solver` under `(backend_config, key)` as the most recently
    /// used, replacing the entry the key held and dropping whatever falls
    /// off the LRU tail.
    fn insert(
        &self,
        entries: &mut Vec<CacheEntry>,
        backend_config: u64,
        key: &[u64],
        solver: Arc<PreparedSolver>,
    ) {
        entries.retain(|e| !e.is(backend_config, key));
        let entry = CacheEntry {
            backend_config,
            key: key.into(),
            solver,
        };
        entries.insert(0, entry);
        entries.truncate(self.capacity);
    }

    /// The solver cached under `key` for `backend`'s configuration, moved
    /// to the front of the LRU list and counted as a hit; `None` (counting
    /// nothing) when the key holds no entry.
    pub fn get(&self, backend: &dyn SolverBackend, key: &[u64]) -> Option<Arc<PreparedSolver>> {
        self.hit(&mut self.entries(), backend.config_fingerprint(), key)
    }

    /// [`get`](Self::get), or on a miss: prepares `a` (outside the lock —
    /// factorization is the expensive part) and caches it under `key`,
    /// counting a miss. A concurrent caller that prepared the same key
    /// meanwhile wins: its entry is kept, the duplicate dropped, and the
    /// call counts a hit.
    ///
    /// # Errors
    ///
    /// Propagates [`SolverBackend::prepare`] failures (nothing is cached on
    /// error).
    pub fn prepare(
        &self,
        backend: &dyn SolverBackend,
        key: &[u64],
        a: &Arc<CsrMatrix>,
    ) -> Result<Arc<PreparedSolver>, LinalgError> {
        if let Some(solver) = self.get(backend, key) {
            return Ok(solver);
        }
        let solver = Arc::new(backend.prepare(Arc::clone(a))?);
        let backend_config = backend.config_fingerprint();
        let mut entries = self.entries();
        if let Some(existing) = self.hit(&mut entries, backend_config, key) {
            return Ok(existing);
        }
        self.insert(&mut entries, backend_config, key, Arc::clone(&solver));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(solver)
    }

    /// Batched solve on `solver`, a solver this cache served under `key`
    /// ([`get`](Self::get)), with a one-shot stale-entry self-heal.
    ///
    /// If the cached factor fails the solve — a typed error, or
    /// degradation beyond what its own preparation recorded, i.e. a factor
    /// that was healthy when cached but no longer solves its operator —
    /// the entry under `key` is dropped, the solver's operator re-prepared
    /// from scratch, and the batch retried exactly once. The rebuild
    /// replaces exactly that entry (other keys and other configurations
    /// keep theirs), counts a miss, and is recorded as a [`Rung::Rebuilt`]
    /// step in the returned report's degradation trail; the boolean flag
    /// reports whether it happened. A rebuild that fails to prepare leaves
    /// the key empty.
    pub fn solve_many_healing(
        &self,
        backend: &dyn SolverBackend,
        key: &[u64],
        solver: &PreparedSolver,
        rhs: &[Vec<f64>],
        threads: usize,
    ) -> Result<(BatchSolution, bool), LinalgError> {
        let first = solver.solve_many(rhs, threads);
        let cause = match &first {
            Err(err) => Some(*err),
            // A cached factor that needs *more* recovery than its own
            // preparation recorded has gone bad since it was cached.
            Ok(batch) if batch.report.degradation.len() > solver.described.degradation.len() => {
                batch.report.degradation.last().map(|step| step.error)
            }
            Ok(_) => None,
        };
        let Some(cause) = cause else {
            return first.map(|batch| (batch, false));
        };
        // Suspect cached entry: drop it, rebuild once, retry the batch.
        self.invalidate(backend, key);
        let rebuilt = Arc::new(backend.prepare(Arc::clone(solver.matrix()))?);
        let mut batch = rebuilt.solve_many(rhs, threads)?;
        let mut trail = DegradationTrail::new();
        trail.push(DegradationStep {
            rung: Rung::Rebuilt,
            error: cause,
        });
        for step in batch.report.degradation.steps() {
            trail.push(*step);
        }
        batch.report.degradation = trail;
        let mut entries = self.entries();
        self.insert(&mut entries, backend.config_fingerprint(), key, rebuilt);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((batch, true))
    }

    /// Test-support: caches `solver` under `(backend, key)`, replacing the
    /// key's entry and bypassing preparation. The fault-injection harness
    /// uses this to plant a corrupted factor under a healthy operator's
    /// key; production code never calls it.
    #[doc(hidden)]
    pub fn inject(&self, backend: &dyn SolverBackend, key: &[u64], solver: Arc<PreparedSolver>) {
        let mut entries = self.entries();
        self.insert(&mut entries, backend.config_fingerprint(), key, solver);
    }

    /// Drops the solver cached under `key` for `backend`'s configuration,
    /// returning whether there was one. Two callers: the stale-entry
    /// self-heal of [`solve_many_healing`](Self::solve_many_healing), and
    /// the fault-injection harness's
    /// [`FaultPlan::evict_cache`](crate::FaultPlan::evict_cache).
    pub fn invalidate(&self, backend: &dyn SolverBackend, key: &[u64]) -> bool {
        let backend_config = backend.config_fingerprint();
        let mut entries = self.entries();
        let before = entries.len();
        entries.retain(|e| !e.is(backend_config, key));
        entries.len() < before
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (i.e. preparations performed) so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of currently cached solvers.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached solver (counters are kept).
    pub fn clear(&self) {
        self.entries().clear();
    }
}

#[cfg(test)]
impl PreparedSolver {
    /// The sharded engine behind this solver, if any: the tests' handle on
    /// its plan and blocks.
    pub(crate) fn schur(&self) -> Option<&Arc<SchurSolver>> {
        match &self.engine {
            Engine::Sharded(schur) => Some(schur),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn tridiagonal(n: usize, diag: f64, off: f64) -> Arc<CsrMatrix> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, diag);
            if i > 0 {
                coo.push(i, i - 1, off);
            }
            if i + 1 < n {
                coo.push(i, i + 1, off);
            }
        }
        Arc::new(coo.to_csr())
    }

    fn spd(n: usize) -> Arc<CsrMatrix> {
        tridiagonal(n, 4.0, -1.0)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect()
    }

    #[test]
    fn backends_agree_on_the_same_system() {
        let a = spd(64);
        let b = rhs(64);
        let backends: Vec<Box<dyn SolverBackend>> = vec![
            Box::new(DirectCholesky::default()),
            Box::new(Cg::with_tol(1e-12)),
            Box::new(Gmres::with_tol(1e-12)),
            Box::new(Auto::default()),
            Box::new(Auto {
                direct_limit: 8, // force the iterative arm
                tol: 1e-12,
            }),
        ];
        let reference = backends[0]
            .prepare(Arc::clone(&a))
            .unwrap()
            .solve(&b)
            .unwrap()
            .x;
        for backend in &backends {
            let prepared = backend.prepare(Arc::clone(&a)).unwrap();
            let sol = prepared.solve(&b).unwrap();
            assert!(
                a.residual(&sol.x, &b) < 1e-9,
                "{} residual too large",
                backend.name()
            );
            for (p, q) in sol.x.iter().zip(&reference) {
                assert!(
                    (p - q).abs() < 1e-7,
                    "{} disagrees with direct",
                    backend.name()
                );
            }
            assert_eq!(sol.report.rhs_count, 1);
            assert!(sol.report.solver_bytes > 0);
        }
    }

    /// The Krylov engines hold their preconditioner beside the prepared
    /// operator and nothing else: Jacobi and SSOR each keep one `n`-vector
    /// (SSOR keeps no copy of the operator), CG adds five work vectors and
    /// GMRES `restart + 1 = 61` Krylov vectors per concurrent solve.
    #[test]
    fn krylov_descriptions_count_the_preconditioner_and_the_work_vectors() {
        let a = spd(64);
        let vector = 64 * std::mem::size_of::<f64>();
        let auto = Auto {
            direct_limit: 8, // force the SSOR-CG arm
            tol: 1e-10,
        };
        let cases: [(&dyn SolverBackend, &str, usize); 3] = [
            (&auto, "cg", (1 + 5) * vector),
            (&Cg::with_tol(1e-10), "cg", (1 + 5) * vector),
            (&Gmres::with_tol(1e-10), "gmres", (1 + 61) * vector),
        ];
        for (backend, name, bytes) in cases {
            let described = *backend.prepare(Arc::clone(&a)).unwrap().description();
            assert_eq!(described.backend, name);
            assert_eq!(described.solver_bytes, bytes, "{}", backend.name());
        }
    }

    /// SSOR divides by every diagonal entry: `Auto`'s iterative arm refuses
    /// an operator with a zero one as a typed error naming the first.
    #[test]
    fn ssor_arm_refuses_a_zero_diagonal() {
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 0.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 2.0),
        ] {
            coo.push(i, j, v);
        }
        let err = Auto {
            direct_limit: 0,
            tol: 1e-9,
        }
        .prepare(Arc::new(coo.to_csr()))
        .unwrap_err();
        assert!(
            matches!(err, LinalgError::NotPositiveDefinite { row: 1, pivot } if pivot == 0.0),
            "{err:?}"
        );
    }

    /// The one mapping, pinned: every selection builds exactly the
    /// backend configuration its callers used to build by hand, so cache
    /// fingerprints (and with them the factors) cannot move.
    #[test]
    fn linear_solver_maps_to_the_pinned_configurations() {
        assert_eq!(LinearSolver::default(), LinearSolver::Gmres { tol: 1e-9 });
        for verify in [
            VerifyPolicy::Off,
            VerifyPolicy::Report,
            VerifyPolicy::Enforce { tol: 1e-10 },
        ] {
            let direct = DirectCholesky { verify };
            let sharded = |shards| {
                let mut sharded = Sharded::with_inner(shards, direct);
                sharded.verify = verify;
                sharded
            };
            let cases: Vec<(LinearSolver, Box<dyn SolverBackend>)> = vec![
                (LinearSolver::DirectCholesky, Box::new(direct)),
                (
                    LinearSolver::Gmres { tol: 1e-7 },
                    Box::new(Gmres::with_tol(1e-7)),
                ),
                (LinearSolver::Cg { tol: 1e-7 }, Box::new(Cg::with_tol(1e-7))),
                (LinearSolver::Auto, Box::new(Auto::default())),
                (LinearSolver::Sharded { shards: 4 }, Box::new(sharded(4))),
                (LinearSolver::Sharded { shards: 0 }, Box::new(sharded(1))),
            ];
            for (selection, expected) in cases {
                let got = selection.backend(verify);
                assert_eq!(got.name(), expected.name(), "{selection:?}");
                assert_eq!(
                    got.config_fingerprint(),
                    expected.config_fingerprint(),
                    "{selection:?} under {verify:?}"
                );
            }
        }
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let a = spd(48);
        let prepared = DirectCholesky::default().prepare(Arc::clone(&a)).unwrap();
        let loads: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..48).map(|i| ((i + 3 * k) % 7) as f64 - 3.0).collect())
            .collect();
        let batch = prepared.solve_many(&loads, 4).unwrap();
        assert_eq!(batch.report.rhs_count, 5);
        assert_eq!(batch.xs.len(), 5);
        for (b, x) in loads.iter().zip(&batch.xs) {
            let single = prepared.solve(b).unwrap();
            assert_eq!(&single.x, x, "batched and individual solves must agree");
        }
    }

    #[test]
    fn solve_many_aggregates_iterative_reports() {
        let a = spd(32);
        let prepared = Cg::with_tol(1e-11).prepare(Arc::clone(&a)).unwrap();
        let loads: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..32).map(|i| ((i * (k + 2)) % 5) as f64).collect())
            .collect();
        let batch = prepared.solve_many(&loads, 2).unwrap();
        assert!(batch.report.iterations.unwrap() > 0);
        assert!(batch.report.residual.unwrap() <= 1e-11);
        for (b, x) in loads.iter().zip(&batch.xs) {
            assert!(a.residual(x, b) < 1e-9);
        }
    }

    /// The one batch fold of the per-RHS and sharded engines: a NaN
    /// residual is the worst, wherever it falls in the batch.
    #[test]
    fn batch_fold_keeps_a_nan_residual_as_the_worst() {
        for nan_at in 0..3 {
            let mut batch = EngineBatch::default();
            for (i, (iterations, workers)) in [(Some(3), 1), (None, 4), (Some(2), 2)]
                .into_iter()
                .enumerate()
            {
                let residual = if i == nan_at {
                    f64::NAN
                } else {
                    1e-9 * (i + 1) as f64
                };
                batch.fold(iterations, Some(residual), workers);
            }
            assert_eq!(batch.iterations, Some(5));
            assert_eq!(batch.residual, Some(f64::INFINITY), "NaN at {nan_at}");
            assert_eq!(batch.workers, 4);
        }
    }

    /// Every engine, by the backend that prepares it — the table the
    /// one-route tests below run over (`Auto` with both arms).
    fn every_backend() -> Vec<Box<dyn SolverBackend>> {
        vec![
            Box::new(DirectCholesky::default()),
            Box::new(Resilient::default()),
            Box::new(Auto::default()),
            Box::new(Auto {
                direct_limit: 8, // force the iterative arm
                tol: 1e-10,
            }),
            Box::new(crate::Sharded::new(4)),
            Box::new(Cg::with_tol(1e-10)),
            Box::new(Gmres::with_tol(1e-10)),
        ]
    }

    #[test]
    fn single_and_batched_reports_agree() {
        // 625 rows on a hinted 4×4 block grid: `Sharded::new(4)` really
        // splits.
        let (a, hint) = crate::test_operators::hinted_grid(4, 4, 6);
        let a = Arc::new(a.with_partition_hint(Arc::new(hint)));
        let b = rhs(a.nrows());
        // Nine columns: two panels on the direct engines.
        let nine: Vec<Vec<f64>> = (0..9)
            .map(|k| b.iter().map(|v| v * (k + 1) as f64).collect())
            .collect();
        for backend in every_backend() {
            let name = backend.name();
            let prepared = backend.prepare(Arc::clone(&a)).unwrap();
            let described = *prepared.description();
            let single = prepared.solve(&b).unwrap();
            if name == "sharded" {
                assert!(single.report.shards >= 2, "{name}: must split");
            }
            let batch = prepared.solve_many(std::slice::from_ref(&b), 1).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&single.x), bits(&batch.xs[0]), "{name}: solution");
            let report = SolveReport {
                solve_time: batch.report.solve_time,
                ..single.report
            };
            assert_eq!(report, batch.report, "{name}: report");
            // Every report is the description with the batch's own
            // numbers: mask those, and nothing else may differ.
            let wide = prepared.solve_many(&nine, 2).unwrap().report;
            assert_eq!((single.report.rhs_count, wide.rhs_count), (1, 9), "{name}");
            for report in [single.report, wide] {
                let masked = SolveReport {
                    solve_time: described.solve_time,
                    iterations: described.iterations,
                    residual: described.residual,
                    solver_bytes: described.solver_bytes,
                    rhs_count: described.rhs_count,
                    workers: described.workers,
                    verified_residual: described.verified_residual,
                    ..report
                };
                assert_eq!(masked, described, "{name}: {} columns", report.rhs_count);
            }
        }
    }

    #[test]
    fn unmeasurable_residual_fails_enforcement_on_every_engine() {
        // Finite operators whose action overflows on any |x| > 1, so the
        // true residual of a perfectly good solution comes out NaN (∞ − ∞
        // within a row) against the first and ∞ against the second.
        let n = 40;
        let a = spd(n);
        let nan_op = tridiagonal(n, f64::MAX, -f64::MAX);
        let inf_op = tridiagonal(n, f64::MAX, 0.0);
        let x_true: Vec<f64> = (0..n).map(|i| 2.0 + (i % 2) as f64).collect();
        let b = a.spmv(&x_true);
        assert!(nan_op.residual(&x_true, &b).is_nan());
        assert_eq!(inf_op.residual(&x_true, &b), f64::INFINITY);

        for wild in [nan_op, inf_op] {
            for backend in every_backend() {
                let name = backend.name();
                // A healthy solver bound to an operator its solutions
                // cannot be checked against.
                let rebound = |verify| {
                    let mut prepared = backend
                        .prepare(Arc::clone(&a))
                        .unwrap()
                        .rebind_matrix(Arc::clone(&wild));
                    prepared.verify = verify;
                    prepared
                };
                let enforced = rebound(VerifyPolicy::Enforce { tol: 1e-6 });
                assert!(enforced.solve(&b).is_err(), "{name}: single solve");
                let batch = vec![b.clone(); 3];
                assert!(enforced.solve_many(&batch, 2).is_err(), "{name}: batch");
                // The factor-driven engines solve without touching the
                // operator, so only the verifier can object: `Enforce`
                // fails on the residual itself, and `Report` shows it
                // pinned to ∞ rather than folded away by a `max`.
                if matches!(name, "cholesky" | "sharded") {
                    assert!(
                        matches!(
                            enforced.solve_many(&batch, 2),
                            Err(LinalgError::DidNotConverge { residual, .. })
                                if residual == f64::INFINITY
                        ),
                        "{name}"
                    );
                    let reported = rebound(VerifyPolicy::Report).solve_many(&batch, 2);
                    assert_eq!(
                        reported.unwrap().report.verified_residual,
                        Some(f64::INFINITY),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn regularized_ladder_reports_the_factor_it_holds() {
        // A zeroed pivot defeats Cholesky; the ladder factors `A + δ·I`
        // instead. Its reports must describe that factor — not go blank
        // because the operator and the factor differ.
        let clean = crate::test_operators::laplacian_2d(5, 5);
        let mut broken = clean.clone();
        crate::FaultPlan::new(23).break_pivot(&mut broken);
        let a = Arc::new(broken);
        let prepared = Resilient::default().prepare(Arc::clone(&a)).unwrap();
        assert_eq!(
            prepared.description().backend,
            "resilient",
            "a shifted factor, not GMRES"
        );
        assert_eq!(
            prepared.description().degradation.last().map(|s| s.rung),
            Some(Rung::Regularized)
        );
        // Supernode shape is a function of the pattern, which the shift
        // leaves alone: the clean lattice's direct factor has the same.
        let reference = DirectCholesky::default().prepare(Arc::new(clean)).unwrap();
        assert!(reference.description().supernode_stats.is_some());
        let b = rhs(a.nrows());
        let single = prepared.solve(&b).unwrap().report;
        let batch = prepared.solve_many(&[b.clone(), b], 2).unwrap().report;
        for report in [single, batch] {
            assert_eq!(
                report.supernode_stats,
                reference.description().supernode_stats
            );
            assert_eq!(report.factor_workers, prepared.description().factor_workers);
            assert!(report.verified_residual.unwrap() <= 1e-8);
        }
    }

    #[test]
    fn regularized_rung_keeps_the_partition_hint() {
        // `A + δ·I` has A's rows, so it is dissected like A: the shifted
        // factor is ordered by the hint the operator carries.
        let (a, hint) = crate::test_operators::hinted_grid(4, 4, 3);
        let mut broken = a.with_partition_hint(Arc::new(hint));
        crate::FaultPlan::new(23).break_pivot(&mut broken);
        let shifted = shifted_copy(&broken, 1.0);
        assert_eq!(shifted.partition_hint(), broken.partition_hint());
        let prepared = Resilient::default().prepare(Arc::new(broken)).unwrap();
        assert_eq!(
            prepared.description().degradation.last().map(|s| s.rung),
            Some(Rung::Regularized)
        );
        let b = rhs(prepared.dim());
        assert_eq!(
            prepared
                .solve(&b)
                .unwrap()
                .report
                .supernode_stats
                .map(|stats| stats.ordering),
            Some("geometric")
        );
    }

    fn indefinite_2x2() -> Arc<CsrMatrix> {
        // Symmetric but indefinite (eigenvalues -2 and 4): every Cholesky
        // attempt — shifted or not — fails until the ladder reaches GMRES.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        Arc::new(coo.to_csr())
    }

    #[test]
    fn auto_falls_back_on_indefinite_operators() {
        // Symmetric but indefinite: Cholesky must fail, Auto must still
        // produce a working (GMRES) solver — and, unlike the old silent
        // fallback, the triggering Cholesky error must be the first
        // recorded degradation step.
        let a = indefinite_2x2();
        let prepared = Auto::default().prepare(Arc::clone(&a)).unwrap();
        assert_eq!(prepared.description().backend, "gmres");
        let trail = prepared.description().degradation;
        let first = trail.steps().next().expect("fallback must be recorded");
        assert_eq!(first.rung, Rung::Regularized);
        assert!(matches!(
            first.error,
            LinalgError::NotPositiveDefinite { .. }
        ));
        assert_eq!(trail.last().unwrap().rung, Rung::Gmres);
        let sol = prepared.solve(&[1.0, 2.0]).unwrap();
        assert!(a.residual(&sol.x, &[1.0, 2.0]) < 1e-8);
        // The solve report carries the preparation trail too.
        assert_eq!(sol.report.degradation.len(), trail.len());
    }

    #[test]
    fn resilient_matches_direct_bitwise_on_clean_operators() {
        let a = spd(48);
        let direct = DirectCholesky::default().prepare(Arc::clone(&a)).unwrap();
        let res = Resilient::default().prepare(Arc::clone(&a)).unwrap();
        assert_eq!(res.description().backend, "resilient");
        let loads: Vec<Vec<f64>> = (0..5)
            .map(|k| (0..48).map(|i| ((i + 5 * k) % 9) as f64 - 4.0).collect())
            .collect();
        for b in &loads {
            let xd = direct.solve(b).unwrap().x;
            let sol = res.solve(b).unwrap();
            let bits_d: Vec<u64> = xd.iter().map(|v| v.to_bits()).collect();
            let bits_r: Vec<u64> = sol.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_d, bits_r, "clean ladder solve must be bitwise direct");
            assert!(sol.report.degradation.is_empty());
            assert!(sol.report.verified_residual.unwrap() <= 1e-8);
        }
        let batch = res.solve_many(&loads, 4).unwrap();
        let direct_batch = direct.solve_many(&loads, 4).unwrap();
        for (x, xd) in batch.xs.iter().zip(&direct_batch.xs) {
            assert_eq!(x, xd, "batched ladder solve must match the panel path");
        }
        assert!(batch.report.degradation.is_empty());
        assert!(batch.report.verified_residual.is_some());
    }

    #[test]
    fn verify_enforce_rejects_a_sloppy_solve() {
        let a = spd(32);
        let b = rhs(32);
        // A loose CG solve passes report-only verification but fails
        // enforcement at a tolerance it never reached.
        let loose = Cg::with_tol(1e-3).prepare(Arc::clone(&a)).unwrap();
        let reported = loose.solve(&b).unwrap();
        assert!(reported.report.verified_residual.is_none());

        let mut enforced = Cg::with_tol(1e-3).prepare(Arc::clone(&a)).unwrap();
        enforced.verify = VerifyPolicy::Enforce { tol: 1e-12 };
        assert!(matches!(
            enforced.solve(&b),
            Err(LinalgError::DidNotConverge { .. })
        ));
        enforced.verify = VerifyPolicy::Report;
        let sol = enforced.solve(&b).unwrap();
        let rr = sol.report.verified_residual.unwrap();
        assert!(rr.is_finite() && rr > 1e-12);
    }

    #[test]
    fn nonfinite_inputs_are_rejected_with_typed_errors() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 4.0);
        }
        let mut poisoned = coo.to_csr();
        poisoned.values_mut()[2] = f64::NAN;
        let err = DirectCholesky::default()
            .prepare(Arc::new(poisoned))
            .unwrap_err();
        assert_eq!(
            err,
            LinalgError::NonFinite {
                context: "operator",
                index: 2
            }
        );

        let a = spd(8);
        let prepared = DirectCholesky::default().prepare(a).unwrap();
        let mut b = rhs(8);
        b[5] = f64::INFINITY;
        assert_eq!(
            prepared.solve(&b).unwrap_err(),
            LinalgError::NonFinite {
                context: "rhs",
                index: 5
            }
        );
    }

    #[test]
    fn non_square_operators_fail_every_prepare_with_a_typed_error() {
        let mut coo = CooMatrix::new(3, 4);
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        let a = Arc::new(coo.to_csr());
        let mismatch = LinalgError::DimensionMismatch {
            context: "operator",
            expected: 3,
            found: 4,
        };
        let mut backends = every_backend();
        // `Auto`'s SSOR-CG arm at any size.
        backends.push(Box::new(Auto {
            direct_limit: 0,
            tol: 1e-10,
        }));
        let cache = FactorCache::new();
        for backend in &backends {
            let name = backend.name();
            let prepared = backend.prepare(Arc::clone(&a));
            assert_eq!(prepared.map(|_| ()), Err(mismatch), "{name}");
            let cached = cache.prepare(backend.as_ref(), &[3, 4], &a);
            assert_eq!(cached.map(|_| ()), Err(mismatch), "{name}: cache");
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_prepare_never_enters_the_cache() {
        let cache = FactorCache::new();
        let a = indefinite_2x2();
        let err = cache
            .prepare(&DirectCholesky::default(), &[2], &a)
            .expect_err("indefinite operator must fail the direct prepare");
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert!(cache.is_empty(), "failed prepares must never be cached");
        assert_eq!(cache.misses(), 0, "a failed prepare is not a cached miss");
    }

    /// Plants a factor of a *different* operator under `key` — a cached
    /// entry that has silently gone bad.
    fn plant_corrupt(
        cache: &FactorCache,
        backend: &dyn SolverBackend,
        key: &[u64],
        a: &Arc<CsrMatrix>,
    ) {
        let perturbed = Arc::new(shifted_copy(a, 10.0));
        let mut corrupt = backend.prepare(perturbed).unwrap();
        corrupt.matrix = Arc::clone(a);
        cache.inject(backend, key, Arc::new(corrupt));
    }

    #[test]
    fn cache_self_heals_a_corrupted_entry() {
        let cache = FactorCache::new();
        let backend = Resilient::default();
        let a = spd(24);
        let key = [24];
        let loads: Vec<Vec<f64>> = vec![rhs(24)];
        plant_corrupt(&cache, &backend, &key, &a);
        assert_eq!(cache.len(), 1);

        let cached = cache.get(&backend, &key).unwrap();
        let (batch, healed) = cache
            .solve_many_healing(&backend, &key, &cached, &loads, 2)
            .unwrap();
        assert!(healed, "a corrupted cached factor must trigger the heal");
        assert_eq!(
            batch.report.degradation.steps().next().unwrap().rung,
            Rung::Rebuilt
        );
        assert!(a.residual(&batch.xs[0], &loads[0]) < 1e-8);

        // The rebuilt entry replaced the corrupted one: the next call is a
        // clean hit with no degradation.
        let cached = cache.get(&backend, &key).unwrap();
        let (batch, healed) = cache
            .solve_many_healing(&backend, &key, &cached, &loads, 2)
            .unwrap();
        assert!(!healed);
        assert!(batch.report.degradation.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn a_heal_keeps_other_configurations_entries() {
        let cache = FactorCache::new();
        let (resilient, direct) = (Resilient::default(), DirectCholesky::default());
        let a = spd(24);
        let key = [24];
        let loads: Vec<Vec<f64>> = vec![rhs(24)];
        let healthy = cache.prepare(&direct, &key, &a).unwrap();
        plant_corrupt(&cache, &resilient, &key, &a);
        assert_eq!(cache.len(), 2);

        let cached = cache.get(&resilient, &key).unwrap();
        let (_, healed) = cache
            .solve_many_healing(&resilient, &key, &cached, &loads, 2)
            .unwrap();
        assert!(healed);
        assert_eq!(cache.len(), 2, "the heal replaces exactly its own entry");
        let again = cache.get(&direct, &key).expect("the direct entry survives");
        assert!(Arc::ptr_eq(&healthy, &again));
    }

    #[test]
    fn prepare_counts_a_miss_then_hits() {
        let cache = FactorCache::new();
        let backend = DirectCholesky::default();
        let a = spd(12);
        assert!(cache.get(&backend, &[12]).is_none());
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "a lookup miss counts nothing"
        );
        let first = cache.prepare(&backend, &[12], &a).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let again = cache.get(&backend, &[12]).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = spd(8);
        let prepared = DirectCholesky::default().prepare(a).unwrap();
        assert!(matches!(
            prepared.solve(&[1.0; 7]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            prepared.solve_many(&[vec![1.0; 8], vec![1.0; 9]], 2),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn factor_cache_hits_on_identical_systems() {
        let cache = FactorCache::new();
        let backend = DirectCholesky::default();
        let a = spd(24);
        let b = rhs(24);
        let first = cache.prepare(&backend, &[1], &a).unwrap();
        let x1 = first.solve(&b).unwrap().x;
        for _ in 0..3 {
            let again = cache.prepare(&backend, &[1], &a).unwrap();
            assert!(Arc::ptr_eq(&first, &again), "same factor must be reused");
            assert_eq!(again.solve(&b).unwrap().x, x1);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);

        // Another key must miss, and is never answered by the first
        // key's factor — word for word, a prefix is another key.
        let a2 = tridiagonal(24, 5.0, -1.0);
        for key in [&[2][..], &[1, 0]] {
            let other = cache.prepare(&backend, key, &a2).unwrap();
            assert!(!Arc::ptr_eq(&first, &other));
        }
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn factor_cache_distinguishes_backend_configs() {
        let cache = FactorCache::new();
        let a = spd(16);
        cache.prepare(&Cg::with_tol(1e-6), &[1], &a).unwrap();
        cache.prepare(&Cg::with_tol(1e-12), &[1], &a).unwrap();
        assert_eq!(
            cache.misses(),
            2,
            "different tolerances must not share an entry"
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.invalidate(&Cg::with_tol(1e-6), &[1]));
        assert!(!cache.invalidate(&Cg::with_tol(1e-6), &[1]), "already gone");
        assert_eq!(cache.len(), 1, "the other configuration keeps its entry");
    }

    #[test]
    fn factor_cache_evicts_lru() {
        let cache = FactorCache::with_capacity(2);
        let backend = DirectCholesky::default();
        let (a, b, c) = (spd(4), spd(5), spd(6));
        cache.prepare(&backend, &[4], &a).unwrap();
        cache.prepare(&backend, &[5], &b).unwrap();
        cache.prepare(&backend, &[4], &a).unwrap(); // refresh a
        cache.prepare(&backend, &[6], &c).unwrap(); // evicts b
        assert_eq!(cache.len(), 2);
        cache.prepare(&backend, &[4], &a).unwrap(); // still cached
        assert_eq!(cache.hits(), 2);
        cache.prepare(&backend, &[5], &b).unwrap(); // was evicted → miss
        assert_eq!(cache.misses(), 4);
        cache.clear();
        assert!(cache.is_empty());
    }
}
