//! The sharded (Schur-complement) solver backend.
//!
//! [`Sharded`] decomposes a square SPD operator with a [`ShardPlan`] into
//! `K` interior blocks bordered by one interface set (no stored entry
//! couples two interiors directly), then solves by static condensation:
//!
//! 1. **Interior factors and cliques, from one factorization.** Every
//!    shard factors its diagonal block `A_kk` *bordered* by the interface
//!    DoFs it couples: one partial supernodal factorization
//!    ([`SupernodalCholesky::factor_bordered`](crate::SupernodalCholesky::factor_bordered))
//!    eliminates the interior — ordered like the inner backend orders any
//!    operator, geometrically along the shard's own blocks, since every
//!    interior carries its part of the operator's
//!    [`PartitionHint`](crate::PartitionHint) — and leaves the border
//!    accumulated. The leading factor becomes the shard's interior solver;
//!    the negated border block is its dense clique `A_sk A_kk⁻¹ A_ks` over
//!    the interface DoFs it touches. The shard preparations run
//!    concurrently on the shared [`WorkPool`](crate::WorkPool).
//! 2. **Schur assembly.** The interface operator
//!    `S = A_ss − Σ_k A_sk A_kk⁻¹ A_ks` is assembled from the per-shard
//!    cliques, accumulated in shard order, so `S` is identical at every
//!    pool cap.
//! 3. **Interface-then-interiors solve.** A batch of right-hand sides is
//!    reduced (`r_s = b_s − Σ_k A_sk A_kk⁻¹ b_k`), the interface system is
//!    solved once for the whole batch, and each interior is recovered with
//!    `x_k = A_kk⁻¹ (b_k − A_ks x_s)` — every stage a batched
//!    [`PreparedSolver::solve_many`] panel sweep, so the factor-once /
//!    solve-many economics survive sharding end to end.
//!
//! Preparation is one function, `SchurSolver::assemble`: find the *dirty*
//! shards, extract, factor and condense only those, rebuild the interface.
//! Given the backend's retained previous preparation (same configuration,
//! hint and pattern, so the same plan), the dirty set is one bitwise diff
//! of the operator's values against the previous operator's: a changed
//! entry dirties the shards owning its row and its column, and every other
//! shard *is* its previous block, shared whole. A first prepare is the case
//! where every shard is dirty. One code path is why a re-prepare after a
//! value-only perturbation is bitwise a from-scratch one. The retained
//! preparation is the only reuse: there is no per-shard factor cache and
//! no content hash.
//!
//! A shard whose interior is not positive definite is contained: it falls
//! down the [`Resilient`] ladder alone and condenses its clique by
//! per-column solves through the ladder's solver, while every other shard
//! keeps its clean factor.
//!
//! The payoff is capacity and parallelism: no single factorization ever
//! spans the whole operator (peak factor memory is the largest *shard*
//! factor plus the small interface factor), and the `K` expensive numeric
//! factorizations are independent tasks. Every step is deterministic and
//! schedule-independent, so sharded results are bitwise identical across
//! pool caps — only the *shard count* changes the numbers (different
//! elimination order ⇒ different rounding), which is why `shards` is part
//! of the cache fingerprint.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::backend::EngineBatch;
use crate::{
    BlockedKernel, CsrMatrix, DirectCholesky, LinalgError, MemoryFootprint, PreparedSolver,
    Resilient, ShardPlan, SolveReport, SolverBackend, VerifyPolicy, WorkPool,
};

/// Domain-decomposition backend: `K` interior shards factored through an
/// inner backend, coupled by a Schur complement on the interface.
///
/// The shards are cut from the [`PartitionHint`](crate::PartitionHint) the
/// operator carries ([`CsrMatrix::with_partition_hint`]) — the only
/// geometry `prepare` reads. An operator without a usable hint is planned
/// as one shard, i.e. solved monolithically through `inner`.
///
/// The struct is cheap declarative configuration like every other backend.
/// Clones share only the retained previous preparation, so a re-prepare
/// through any clone of one `Sharded` with the same inner configuration
/// reuses the shards that did not change — found by a bitwise diff of the
/// operator's values against the retained operator's; no factor is cached
/// beyond that.
#[derive(Debug, Clone)]
pub struct Sharded {
    /// Requested interior shard count. The plan may produce fewer — never
    /// more than the hint's grid has blocks; `<= 1` degenerates to a
    /// monolithic solve through `inner`.
    pub shards: usize,
    /// Backend used for every interior block and for the interface system.
    pub inner: DirectCholesky,
    /// Verification policy of the assembled solver's full-system solves
    /// (interior blocks verify through their own ladder when contained).
    pub verify: VerifyPolicy,
    /// The most recent preparation, retained (shared across clones) as the
    /// base of the next one: a later `prepare` over an operator with the
    /// *same pattern* diffs its values against the retained operator's bit
    /// for bit, shares every clean shard's block whole and re-factors only
    /// the shards the diff touched. Holding it keeps one full prepared
    /// state alive beyond its `PreparedSolver` — the memory price of
    /// O(changed shards) re-preparation in placement and optimization
    /// loops.
    prev: Arc<Mutex<Option<PrevPrepared>>>,
}

/// The retained base of the next preparation: the previous operator (hint
/// included) — the other side of the next prepare's value diff — and its
/// prepared Schur state, tagged with the exact configuration it was
/// prepared under (after a config change nothing of it may be reused).
#[derive(Debug, Clone)]
struct PrevPrepared {
    matrix: Arc<CsrMatrix>,
    schur: Arc<SchurSolver>,
    shards_requested: usize,
    inner: DirectCholesky,
}

impl Sharded {
    /// A sharded backend over `shards` interior blocks with the default
    /// [`DirectCholesky`] inner backend.
    pub fn new(shards: usize) -> Self {
        Self::with_inner(shards, DirectCholesky::default())
    }

    /// A sharded backend with an explicit inner backend configuration.
    pub fn with_inner(shards: usize, inner: DirectCholesky) -> Self {
        Self {
            shards,
            inner,
            verify: VerifyPolicy::Off,
            prev: Arc::new(Mutex::new(None)),
        }
    }

    /// The plan of `a` under this configuration: cut from the hint `a`
    /// carries.
    fn plan(&self, a: &CsrMatrix) -> ShardPlan {
        ShardPlan::build_hinted(a, self.shards, a.partition_hint().map(Arc::as_ref))
    }
}

impl SolverBackend for Sharded {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn prepare(&self, a: Arc<CsrMatrix>) -> Result<PreparedSolver, LinalgError> {
        let t0 = Instant::now();
        // Check the whole operator before any block extraction, so a
        // NonFinite error carries the *global* nnz index rather than a
        // block-local one.
        crate::backend::check_operator(&a)?;
        // The retained previous preparation is the base of this one when
        // it matches in configuration *and* pattern: the plan is a pure
        // function of (pattern, shard count, hint), so it — and with it
        // every elimination order — carries over unchanged, which is what
        // makes per-shard reuse bitwise safe. Any mismatch (different
        // config, different pattern, different hint, first call) plans
        // afresh and prepares every shard.
        let prev = self
            .prev
            .lock()
            .expect("sharded prev state poisoned")
            .clone()
            .filter(|p| {
                p.shards_requested == self.shards
                    && p.inner == self.inner
                    && p.matrix.partition_hint() == a.partition_hint()
                    && p.matrix.same_pattern(&a)
            });
        let plan = match &prev {
            Some(p) => p.schur.plan.clone(),
            None => self.plan(&a),
        };
        let schur = SchurSolver::assemble(
            prev.as_ref().map(|p| (p.matrix.as_ref(), p.schur.as_ref())),
            &a,
            plan,
            &self.inner,
        )?;
        let schur = Arc::new(schur);
        *self.prev.lock().expect("sharded prev state poisoned") = Some(PrevPrepared {
            matrix: Arc::clone(&a),
            schur: Arc::clone(&schur),
            shards_requested: self.shards,
            inner: self.inner,
        });
        Ok(PreparedSolver::from_sharded(
            a,
            schur,
            t0.elapsed(),
            self.verify,
        ))
    }

    fn config_fingerprint(&self) -> u64 {
        // The shard count changes the elimination order and therefore the
        // bits of the result, so it must split cache entries; the retained
        // preparation must not (clones share semantics). The hint needs
        // no term: it is part of the operator, and a cache key that names
        // an operator names its hint too.
        0x50 ^ (self.shards as u64).rotate_left(32)
            ^ self.inner.config_fingerprint().rotate_left(4)
            ^ self.verify.fingerprint().rotate_left(44)
    }
}

/// One interior shard: its prepared factor, both coupling blocks, and the
/// condensed Schur contribution kept for incremental re-assembly.
///
/// A block is a pure function of the operator values its shard owns (the
/// rows and columns of its interior), so a re-preparation whose value diff
/// leaves the shard clean shares the previous block whole.
#[derive(Debug)]
struct ShardBlock {
    /// Prepared factor of the interior block `A_kk`.
    solver: PreparedSolver,
    /// Interior × interface coupling `A_ks` (columns in interface-local
    /// indexing).
    a_ks: CsrMatrix,
    /// Interface × interior coupling `A_sk`.
    a_sk: CsrMatrix,
    /// Interface-local indices of the interface DoFs this shard couples
    /// (the non-empty rows of `A_sk`).
    cols: Vec<usize>,
    /// Stored dense clique `A_sk A_kk⁻¹ A_ks` over `cols` (row-major,
    /// `cols.len()²` entries, symmetric): the shard's Schur contribution,
    /// kept so an incremental re-preparation can re-accumulate `S` in shard
    /// order without re-condensing clean shards.
    clique: Vec<f64>,
    /// Whether this interior's bordered factorization broke down and the
    /// block was contained by falling down the resilience ladder
    /// (regularized re-factor or GMRES) instead of aborting the prepare.
    degraded: bool,
}

/// The prepared sharded solver: per-shard factors, couplings, and the
/// factored interface Schur complement. Immutable after assembly, so it is
/// `Send + Sync` like every other prepared engine.
#[derive(Debug)]
pub(crate) struct SchurSolver {
    plan: ShardPlan,
    /// One block per shard, in shard order; a clean shard's block is the
    /// previous preparation's, shared.
    blocks: Vec<Arc<ShardBlock>>,
    /// Prepared factor of the Schur complement; `None` when the interface
    /// is empty (single shard, or fully disconnected shards).
    interface_solver: Option<PreparedSolver>,
    /// Precomputed interface scatter maps (`None` for an empty interface),
    /// carried forward from one preparation to the next so interface-only
    /// perturbations skip the pattern-union rebuild.
    iface_assembly: Option<Arc<InterfaceAssembly>>,
    /// What this preparation says about itself, computed once by
    /// [`assemble`](Self::assemble): the sharded engine's description
    /// less its setup time and solver bytes, which the wrapping
    /// [`PreparedSolver`] adds.
    pub(crate) described: SolveReport,
    /// Bytes of the shared prepared state: every shard factor, the
    /// interface factor, the coupling blocks, the stored cliques kept for
    /// incremental re-assembly, the interface scatter maps and the plan.
    pub(crate) shared_bytes: usize,
    /// Per-right-hand-side workspace of a batched solve: the gathered
    /// interior right-hand sides and pre-solve results (both held across
    /// the interface stage) plus the interface staging vectors. Unlike the
    /// monolithic engines, this scales with the *batch size*, not the
    /// worker count — the report accounts for that.
    pub(crate) workspace_bytes: usize,
}

/// The shards a value-only change from `prev` to `a` (same pattern) touches,
/// ascending: one bitwise pass over the values, where a changed entry
/// `(i, j)` dirties the shards owning row `i` and column `j`. Every entry
/// of a shard's three blocks `A_kk`, `A_ks`, `A_sk` has its row or its
/// column in that shard, and no entry couples two interiors, so this is
/// exactly the set of shards with a changed block; an entry whose row and
/// column are both interface rows lives in `A_ss` only and dirties none.
fn dirty_shards(prev: &CsrMatrix, a: &CsrMatrix, plan: &ShardPlan) -> Vec<usize> {
    let mut dirty = vec![false; plan.num_shards()];
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let (_, prev_vals) = prev.row(i);
        for ((&j, v), p) in cols.iter().zip(vals).zip(prev_vals) {
            if v.to_bits() != p.to_bits() {
                for k in [plan.owner(i), plan.owner(j)].into_iter().flatten() {
                    dirty[k] = true;
                }
            }
        }
    }
    (0..dirty.len()).filter(|&k| dirty[k]).collect()
}

/// Interface-local index of every interface row, `None` elsewhere.
fn interface_map(plan: &ShardPlan) -> Vec<Option<usize>> {
    let mut map = vec![None; plan.num_rows()];
    for (p, &row) in plan.interface().iter().enumerate() {
        map[row] = Some(p);
    }
    map
}

/// Shard `k`'s interior `A_kk` and its couplings `(A_ks, A_sk)` out of `a`
/// (each `extract` is internally pool-parallel and bitwise deterministic).
fn extract_shard(
    a: &Arc<CsrMatrix>,
    plan: &ShardPlan,
    iface_map: &[Option<usize>],
    k: usize,
) -> (Arc<CsrMatrix>, CsrMatrix, CsrMatrix) {
    let n = a.nrows();
    let rows = plan.shard_rows(k);
    let mut own_map: Vec<Option<usize>> = vec![None; n];
    for (local, &row) in rows.iter().enumerate() {
        own_map[row] = Some(local);
    }
    // The one shard of a trivial plan *is* the operator: share it, hint
    // and all, so a one-shard solve stays the monolithic one bit for bit
    // whatever the inner backend orders by. Every other interior carries
    // the operator's hint restricted to its own blocks, so it is dissected
    // along them.
    let interior = if rows.len() == n {
        Arc::clone(a)
    } else {
        let interior = a.extract(rows, &own_map, rows.len());
        Arc::new(
            match a.partition_hint().filter(|hint| hint.num_rows() == n) {
                Some(hint) => interior.with_partition_hint(Arc::new(hint.restricted(rows))),
                None => interior,
            },
        )
    };
    let interface = plan.interface();
    let a_ks = a.extract(rows, iface_map, interface.len());
    let a_sk = a.extract(interface, &own_map, rows.len());
    (interior, a_ks, a_sk)
}

/// Precomputed scatter maps of the serial interface accumulation
/// `S = A_ss − Σ_k clique_k`: the CSR pattern of `S` (the union of the
/// `A_ss` pattern and every shard clique's pattern) plus the destination
/// slot of every source entry. Assembly is then one flat scatter-add in
/// the canonical serial order — `A_ss` entries first, then each shard's
/// clique in shard order, row-major within a clique — with no per-entry
/// column search and no coordinate sort, which makes the interface
/// rebuild of an incremental re-preparation (where `S` is *always*
/// rebuilt) measurably cheaper.
///
/// The maps are pure *pattern* data: they depend only on the operator's
/// sparsity and the plan (each shard's coupled-column set is the non-empty
/// rows of its `A_sk`), so a re-preparation over an unchanged pattern reuses
/// the previous preparation's maps as-is.
#[derive(Debug)]
struct InterfaceAssembly {
    /// CSR row pointers of `S`.
    row_ptr: Vec<usize>,
    /// CSR column indices of `S` (sorted within each row).
    col_idx: Vec<usize>,
    /// Destination slot of each `A_ss` entry, in `A_ss` CSR entry order.
    ass_slots: Vec<usize>,
    /// Destination slots of each shard's dense clique, row-major over its
    /// coupled columns (`cols.len()²` slots per shard, shard order).
    clique_slots: Vec<Vec<usize>>,
}

impl InterfaceAssembly {
    /// Builds the union pattern and the slot maps for `A_ss` and every
    /// shard clique. Cost is one sort of the union pattern plus a binary
    /// search per source entry — paid once per *pattern*, not per
    /// assembly.
    fn build(a_ss: &CsrMatrix, blocks: &[Arc<ShardBlock>]) -> Self {
        let n_s = a_ss.nrows();
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); n_s];
        for i in 0..n_s {
            per_row[i].extend_from_slice(a_ss.row(i).0);
        }
        for b in blocks {
            for &i in b.cols.iter() {
                per_row[i].extend_from_slice(&b.cols);
            }
        }
        let mut row_ptr = Vec::with_capacity(n_s + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        for cols in &mut per_row {
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }
        let slot = |i: usize, c: usize| -> usize {
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            row_ptr[i]
                + row
                    .binary_search(&c)
                    .expect("union pattern contains every source entry")
        };
        let mut ass_slots = Vec::with_capacity(a_ss.nnz());
        for i in 0..n_s {
            for &c in a_ss.row(i).0 {
                ass_slots.push(slot(i, c));
            }
        }
        let clique_slots = blocks
            .iter()
            .map(|b| {
                let mut slots = Vec::with_capacity(b.cols.len() * b.cols.len());
                for &i in b.cols.iter() {
                    for &j in b.cols.iter() {
                        slots.push(slot(i, j));
                    }
                }
                slots
            })
            .collect();
        Self {
            row_ptr,
            col_idx,
            ass_slots,
            clique_slots,
        }
    }

    /// Scatters `A_ss` and subtracts every clique into a fresh values
    /// array, in the canonical serial order.
    fn assemble(&self, a_ss: &CsrMatrix, blocks: &[Arc<ShardBlock>]) -> CsrMatrix {
        let n_s = a_ss.nrows();
        let mut values = vec![0.0f64; self.col_idx.len()];
        let mut next = 0usize;
        for i in 0..n_s {
            for &v in a_ss.row(i).1 {
                values[self.ass_slots[next]] += v;
                next += 1;
            }
        }
        for (b, slots) in blocks.iter().zip(&self.clique_slots) {
            for (&s, &v) in slots.iter().zip(b.clique.iter()) {
                values[s] -= v;
            }
        }
        CsrMatrix::from_raw_trusted(n_s, n_s, self.row_ptr.clone(), self.col_idx.clone(), values)
    }
}

impl MemoryFootprint for InterfaceAssembly {
    fn heap_bytes(&self) -> usize {
        self.row_ptr.heap_bytes()
            + self.col_idx.heap_bytes()
            + self.ass_slots.heap_bytes()
            + self
                .clique_slots
                .iter()
                .map(MemoryFootprint::heap_bytes)
                .sum::<usize>()
    }
}

/// Builds and factors the interface system `S = A_ss − Σ_k clique_k` from
/// the fresh `A_ss` and every block's stored clique, accumulated serially
/// in shard order through [`InterfaceAssembly`]'s precomputed scatter maps
/// (`A_ss` entries first, then each shard's clique — a fixed order, so `S`
/// is identical at every pool cap). `reuse` is the previous preparation's
/// maps, valid exactly when the operator pattern is unchanged.
fn condense_interface(
    a: &CsrMatrix,
    plan: &ShardPlan,
    iface_map: &[Option<usize>],
    blocks: &[Arc<ShardBlock>],
    inner: &DirectCholesky,
    reuse: Option<Arc<InterfaceAssembly>>,
) -> Result<CondensedInterface, LinalgError> {
    let interface = plan.interface();
    let n_s = interface.len();
    if n_s == 0 {
        return Ok((None, false, None));
    }
    let a_ss = a.extract(interface, iface_map, n_s);
    let assembly = reuse.unwrap_or_else(|| Arc::new(InterfaceAssembly::build(&a_ss, blocks)));
    let s = Arc::new(assembly.assemble(&a_ss, blocks));
    let (solver, degraded) = prepare_contained(inner, &s)?;
    Ok((Some(solver), degraded, Some(assembly)))
}

/// `(interface factor, ladder-contained?, scatter maps)` of
/// [`condense_interface`].
type CondensedInterface = (Option<PreparedSolver>, bool, Option<Arc<InterfaceAssembly>>);

impl SchurSolver {
    /// Finds the *dirty* shards of `plan` over `a`, extracts, factors and
    /// condenses only those, and rebuilds and factors the interface system.
    ///
    /// `prev` is the previous operator and its preparation under the same
    /// plan, with the same pattern (the caller checks both; the plan is a
    /// pure function of pattern, shard count and hint). The dirty set is
    /// the bitwise value diff of `a` against that operator
    /// ([`dirty_shards`]); every other shard is *clean* and its block is
    /// the previous one, shared whole. Without a previous preparation every
    /// shard is dirty and there are no scatter maps to reuse — a fresh
    /// prepare is the all-dirty case of the same code, so the two agree bit
    /// for bit by construction: plan, elimination orders and the
    /// serial shard-order accumulation of `S` are shared, and a clean
    /// shard's block was computed from bit-identical inputs by the code a
    /// fresh prepare runs. The interface system is always rebuilt from the
    /// fresh `A_ss` plus all cliques.
    fn assemble(
        prev: Option<(&CsrMatrix, &SchurSolver)>,
        a: &Arc<CsrMatrix>,
        plan: ShardPlan,
        inner: &DirectCholesky,
    ) -> Result<Self, LinalgError> {
        let num_shards = plan.num_shards();
        let dirty: Vec<usize> = match prev {
            Some((prev_a, _)) => dirty_shards(prev_a, a, &plan),
            None => (0..num_shards).collect(),
        };
        let iface_map = interface_map(&plan);

        // Extract, factor and condense every dirty shard, one task per
        // shard on the shared pool. Like the monolithic parallel
        // factorization, preparation runs at the pool cap (`prepare` has
        // no threads override). Each task is internally deterministic (the
        // bordered factor is bitwise cap-invariant), so only the serial
        // accumulation order below matters for reproducibility.
        let pool = WorkPool::current();
        let (prepped, _) = pool.scope_collect(pool.cap(), dirty.len(), |i| {
            prepare_shard(inner, a, &plan, &iface_map, dirty[i])
        });
        let mut prepped = prepped.into_iter();
        let blocks = (0..num_shards)
            .map(|k| match prev {
                Some((_, prev)) if dirty.binary_search(&k).is_err() => {
                    Ok(Arc::clone(&prev.blocks[k]))
                }
                _ => prepped
                    .next()
                    .expect("one preparation per dirty shard")
                    .map(Arc::new),
            })
            .collect::<Result<Vec<_>, LinalgError>>()?;

        // The scatter maps are pure pattern data, so a previous
        // preparation's (same pattern, by `prev`'s contract) apply verbatim.
        let (interface_solver, interface_degraded, iface_assembly) = condense_interface(
            a,
            &plan,
            &iface_map,
            &blocks,
            inner,
            prev.and_then(|(_, p)| p.iface_assembly.clone()),
        )?;

        // The description, once. Every block, the interface solver
        // included, is a prepared solver that describes itself; a contained
        // breakdown makes the first contained block's trail the
        // preparation's own.
        let solvers = || {
            blocks
                .iter()
                .map(|b| &b.solver)
                .chain(interface_solver.as_ref())
                .map(PreparedSolver::description)
        };
        let degraded = || {
            let interface = interface_solver.as_ref().filter(|_| interface_degraded);
            blocks
                .iter()
                .filter(|b| b.degraded)
                .map(|b| &b.solver)
                .chain(interface)
                .map(PreparedSolver::description)
        };
        let interface_dofs = plan.interface().len();
        let shared_bytes = solvers().map(|d| d.solver_bytes).sum::<usize>()
            + blocks
                .iter()
                .map(|b| {
                    b.a_ks.heap_bytes()
                        + b.a_sk.heap_bytes()
                        + b.cols.len() * std::mem::size_of::<usize>()
                        + b.clique.len() * std::mem::size_of::<f64>()
                })
                .sum::<usize>()
            + iface_assembly.as_ref().map_or(0, |m| m.heap_bytes())
            + plan.heap_bytes();
        let workspace_bytes =
            (2 * plan.num_rows() + 2 * interface_dofs) * std::mem::size_of::<f64>();
        let described = SolveReport {
            backend: "sharded",
            factor_workers: solvers().map(|d| d.factor_workers).max().unwrap_or(1),
            factor_nnz: solvers().map(|d| d.factor_nnz).sum(),
            shards: num_shards,
            interface_dofs,
            shard_factor_bytes: blocks
                .iter()
                .map(|b| b.solver.description().solver_bytes)
                .max()
                .unwrap_or(0),
            shards_refactored: dirty.len(),
            shards_reused: num_shards - dirty.len(),
            degradation: degraded().map(|d| d.degradation).next().unwrap_or_default(),
            shards_degraded: degraded().count(),
            plan_stats: Some(plan.stats()),
            ..SolveReport::NONE
        };

        Ok(Self {
            plan,
            blocks,
            interface_solver,
            iface_assembly,
            described,
            shared_bytes,
            workspace_bytes,
        })
    }

    /// Solves the full system for a batch of right-hand sides:
    /// interior pre-solves, interface reduction + solve, interior
    /// back-substitution — each stage batched panel sweeps, the per-shard
    /// stages fanned out over the pool (shard outputs are disjoint, and
    /// the report merge below runs serially in shard order, so results
    /// stay bitwise cap-invariant).
    ///
    /// Every inner solve's report is folded into the batch's
    /// ([`EngineBatch::fold`]), along with the fan-out of the per-shard
    /// stages.
    pub(crate) fn solve_many(
        &self,
        rhs: &[Vec<f64>],
        threads: usize,
    ) -> Result<EngineBatch, LinalgError> {
        let interface = self.plan.interface();
        let n_s = interface.len();
        let mut xs: Vec<Vec<f64>> = rhs.iter().map(|b| vec![0.0; b.len()]).collect();
        let mut out = EngineBatch {
            workers: 1,
            workspaces: rhs.len().max(1),
            ..EngineBatch::default()
        };
        let merge = |out: &mut EngineBatch, report: &SolveReport| {
            out.fold(report.iterations, report.residual, report.workers);
        };

        // Stage 1: interior pre-solves z_k = A_kk⁻¹ b_k, one task per
        // shard (the gathered b_k is kept for reuse as the
        // back-substitution right-hand side). `threads` caps both the
        // shard fan-out and each inner panel sweep.
        let pool = WorkPool::current();
        let (stage1, used1) = pool.scope_collect(threads, self.blocks.len(), |k| {
            let rows = self.plan.shard_rows(k);
            let b_k: Vec<Vec<f64>> = rhs
                .iter()
                .map(|b| rows.iter().map(|&r| b[r]).collect())
                .collect();
            let batch = self.blocks[k].solver.solve_many(&b_k, threads)?;
            Ok::<_, LinalgError>((b_k, batch))
        });
        out.workers = out.workers.max(used1);
        let mut gathered: Vec<Vec<Vec<f64>>> = Vec::with_capacity(self.blocks.len());
        let mut pre: Vec<Vec<Vec<f64>>> = Vec::with_capacity(self.blocks.len());
        for shard in stage1 {
            let (b_k, batch) = shard?;
            merge(&mut out, &batch.report);
            gathered.push(b_k);
            pre.push(batch.xs);
        }

        let Some(s_solver) = &self.interface_solver else {
            // Empty interface: the interiors are the whole answer.
            for (k, z_k) in pre.iter().enumerate() {
                let rows = self.plan.shard_rows(k);
                for (x, z) in xs.iter_mut().zip(z_k) {
                    for (&r, &v) in rows.iter().zip(z) {
                        x[r] = v;
                    }
                }
            }
            return Ok(EngineBatch { xs, ..out });
        };

        // Stage 2: interface reduction r_s = b_s − Σ_k A_sk z_k, shards
        // accumulated in order.
        let mut r_s: Vec<Vec<f64>> = rhs
            .iter()
            .map(|b| interface.iter().map(|&r| b[r]).collect())
            .collect();
        let mut tmp_s = vec![0.0; n_s];
        for (block, z_k) in self.blocks.iter().zip(&pre) {
            for (r, z) in r_s.iter_mut().zip(z_k) {
                block.a_sk.spmv_into(z, &mut tmp_s);
                for (ri, t) in r.iter_mut().zip(&tmp_s) {
                    *ri -= t;
                }
            }
        }
        drop(pre);

        // Stage 3: one batched interface solve.
        let s_batch = s_solver.solve_many(&r_s, threads)?;
        merge(&mut out, &s_batch.report);
        for (x, x_s) in xs.iter_mut().zip(&s_batch.xs) {
            for (&r, &v) in interface.iter().zip(x_s) {
                x[r] = v;
            }
        }

        // Stage 4: interior back-substitution x_k = A_kk⁻¹ (b_k − A_ks x_s),
        // again one task per shard.
        let gathered: Vec<Mutex<Vec<Vec<f64>>>> = gathered.into_iter().map(Mutex::new).collect();
        let (stage4, used4) = pool.scope_collect(threads, self.blocks.len(), |k| {
            let block = &self.blocks[k];
            let mut b_k = std::mem::take(&mut *gathered[k].lock().expect("gathered slot poisoned"));
            let mut tmp_k = vec![0.0; self.plan.shard_rows(k).len()];
            for (b, x_s) in b_k.iter_mut().zip(&s_batch.xs) {
                block.a_ks.spmv_into(x_s, &mut tmp_k);
                for (bi, t) in b.iter_mut().zip(&tmp_k) {
                    *bi -= t;
                }
            }
            block.solver.solve_many(&b_k, threads)
        });
        out.workers = out.workers.max(used4);
        for (k, batch) in stage4.into_iter().enumerate() {
            let batch = batch?;
            let rows = self.plan.shard_rows(k);
            merge(&mut out, &batch.report);
            for (x, z) in xs.iter_mut().zip(&batch.xs) {
                for (&r, &v) in rows.iter().zip(z) {
                    x[r] = v;
                }
            }
        }

        Ok(EngineBatch { xs, ..out })
    }
}

/// Shard `k`'s preparation: its blocks extracted from `a`, the interior
/// factor and the dense clique `A_sk A_kk⁻¹ A_ks` over the interface DoFs
/// this shard touches, both from one partial factorization of the interior
/// bordered by those DoFs. A shard coupling no interface DoF is just its
/// interior, prepared plainly. A breakdown is contained: the interior falls
/// down the ladder and its clique is condensed column by column through
/// the ladder's solver.
fn prepare_shard(
    inner: &DirectCholesky,
    a: &Arc<CsrMatrix>,
    plan: &ShardPlan,
    iface_map: &[Option<usize>],
    k: usize,
) -> Result<ShardBlock, LinalgError> {
    let (interior, a_ks, a_sk) = extract_shard(a, plan, iface_map, k);
    // Interface DoFs this shard couples: exactly the non-empty rows of
    // `A_sk` (equivalently, by symmetry, the non-empty columns of `A_ks`).
    let cols: Vec<usize> = (0..a_sk.nrows())
        .filter(|&i| !a_sk.row(i).0.is_empty())
        .collect();
    let (solver, clique, degraded) = if cols.is_empty() {
        let (solver, degraded) = prepare_contained(inner, &interior)?;
        (solver, Vec::new(), degraded)
    } else {
        let bordered = bordered_operator(&interior, &a_ks, &a_sk, &cols);
        match inner.prepare_bordered(Arc::clone(&interior), &bordered) {
            Ok((solver, mut clique)) => {
                // The border block is −A_sk A_kk⁻¹ A_ks: the bordered
                // operator stores no interface–interface entries.
                for v in &mut clique {
                    *v = -*v;
                }
                (solver, clique, false)
            }
            Err(LinalgError::NotPositiveDefinite { .. }) => {
                drop(bordered);
                let solver = Resilient::default().prepare(interior)?;
                let clique = condense_columns(&solver, &a_ks, &a_sk, &cols)?;
                (solver, clique, true)
            }
            Err(other) => return Err(other),
        }
    };
    Ok(ShardBlock {
        solver,
        a_ks,
        a_sk,
        cols,
        clique,
        degraded,
    })
}

/// The interior `A_kk` bordered by the `w = cols.len()` interface DoFs it
/// couples, `[A_kk  A_ks[:, cols]; A_sk[cols, :]  0]`, written straight into
/// sorted CSR: each interior row is its `A_kk` row followed by its `A_ks`
/// row with column `c` moved to `n_k + pos(c)` (`cols` is ascending, so the
/// shift keeps the row sorted); each border row is one coupled row of
/// `A_sk`, whose columns are all interior.
fn bordered_operator(
    interior: &CsrMatrix,
    a_ks: &CsrMatrix,
    a_sk: &CsrMatrix,
    cols: &[usize],
) -> CsrMatrix {
    let n_k = interior.nrows();
    let n = n_k + cols.len();
    let mut pos = vec![usize::MAX; a_ks.ncols()];
    for (q, &c) in cols.iter().enumerate() {
        pos[c] = n_k + q;
    }
    let nnz = interior.nnz() + a_ks.nnz() + a_sk.nnz();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for r in 0..n_k {
        let (c_kk, v_kk) = interior.row(r);
        col_idx.extend_from_slice(c_kk);
        values.extend_from_slice(v_kk);
        let (c_ks, v_ks) = a_ks.row(r);
        col_idx.extend(c_ks.iter().map(|&c| pos[c]));
        values.extend_from_slice(v_ks);
        row_ptr.push(col_idx.len());
    }
    for &i in cols {
        let (c_sk, v_sk) = a_sk.row(i);
        col_idx.extend_from_slice(c_sk);
        values.extend_from_slice(v_sk);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_trusted(n, n, row_ptr, col_idx, values)
}

/// The clique `A_sk A_kk⁻¹ A_ks` over `cols` (row-major), condensed column
/// by column through `solver` — the containment arm, for a shard whose
/// bordered factorization broke down and whose interior is solved by the
/// ladder instead.
fn condense_columns(
    solver: &PreparedSolver,
    a_ks: &CsrMatrix,
    a_sk: &CsrMatrix,
    cols: &[usize],
) -> Result<Vec<f64>, LinalgError> {
    let n_k = a_ks.nrows();
    let mut pos = vec![usize::MAX; a_ks.ncols()];
    for (q, &j) in cols.iter().enumerate() {
        pos[j] = q;
    }
    // Densify the coupled columns of A_ks as a batch of right-hand sides.
    let mut cols_rhs: Vec<Vec<f64>> = vec![vec![0.0; n_k]; cols.len()];
    for r in 0..n_k {
        let (cidx, vals) = a_ks.row(r);
        for (&c, &v) in cidx.iter().zip(vals) {
            debug_assert_ne!(pos[c], usize::MAX, "A_ks column outside coupled set");
            cols_rhs[pos[c]][r] = v;
        }
    }
    // E = A_kk⁻¹ A_ks[:, cols] in one batched sweep.
    let e = solver.solve_many(&cols_rhs, WorkPool::current().cap())?;
    // Dense clique C[p][q] = (A_sk E)[cols[p], q], each entry a sparse·dense
    // dot: gather the coupled entries of e_q into a contiguous scratch and
    // hand the contraction to the dense microkernel.
    let w = cols.len();
    let mut clique = vec![0.0f64; w * w];
    let mut eg: Vec<f64> = Vec::new();
    for (p, &i) in cols.iter().enumerate() {
        let (cidx, vals) = a_sk.row(i);
        eg.resize(cidx.len(), 0.0);
        for (q, e_q) in e.xs.iter().enumerate() {
            for (j, &c) in cidx.iter().enumerate() {
                eg[j] = e_q[c];
            }
            clique[p * w + q] = BlockedKernel.dot(vals, &eg);
        }
    }
    Ok(clique)
}

/// Prepares one block, containing a factorization breakdown: a
/// [`LinalgError::NotPositiveDefinite`] block (the interface system, or an
/// interior that couples no interface DoF) falls down the resilience
/// ladder — regularized re-factor, then GMRES — instead of aborting the
/// whole sharded prepare, so clean blocks keep their direct factors. Any
/// other error (a poisoned block, a dimension bug) still aborts: the ladder
/// cannot recover those.
fn prepare_contained(
    inner: &DirectCholesky,
    block: &Arc<CsrMatrix>,
) -> Result<(PreparedSolver, bool), LinalgError> {
    match inner.prepare(Arc::clone(block)) {
        Ok(solver) => Ok((solver, false)),
        Err(LinalgError::NotPositiveDefinite { .. }) => {
            Ok((Resilient::default().prepare(Arc::clone(block))?, true))
        }
        Err(other) => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_operators::{hinted_grid, hinted_lattice, laplacian_2d};
    use crate::{CooMatrix, FactorCache, PartitionHint};

    fn loads(n: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * (k + 2) + 5 * k) % 11) as f64 - 5.0)
                    .collect()
            })
            .collect()
    }

    /// A `bx × by` grid of `m`-cell blocks carrying its hint — the shape
    /// `Sharded` plans from.
    fn hinted(bx: usize, by: usize, m: usize) -> Arc<CsrMatrix> {
        Arc::new(hinted_lattice(bx, by, m))
    }

    #[test]
    fn sharded_matches_monolithic_direct() {
        let a = hinted(5, 4, 5);
        let rhs = loads(a.nrows(), 5);
        let mono = DirectCholesky::default()
            .prepare(Arc::clone(&a))
            .unwrap()
            .solve_many(&rhs, 4)
            .unwrap();
        for shards in [2usize, 3, 4] {
            let backend = Sharded::new(shards);
            let prepared = backend.prepare(Arc::clone(&a)).unwrap();
            let batch = prepared.solve_many(&rhs, 4).unwrap();
            assert_eq!(batch.report.backend, "sharded");
            assert!(batch.report.shards >= 2, "plan must split for {shards}");
            assert!(batch.report.interface_dofs > 0);
            assert!(batch.report.shard_factor_bytes > 0);
            // The 1e-30 floor keeps an (unexpected) all-zero reference
            // from vacuously passing, matching the core suites' helper.
            let scale = mono
                .xs
                .iter()
                .flatten()
                .fold(0.0f64, |m, v| m.max(v.abs()))
                .max(1e-30);
            for (x, y) in mono.xs.iter().zip(&batch.xs) {
                for (p, q) in x.iter().zip(y) {
                    assert!(
                        (p - q).abs() <= 1e-10 * scale,
                        "sharded({shards}) disagrees: {p} vs {q}"
                    );
                }
            }
            // Residual sanity straight against the operator.
            for (x, b) in batch.xs.iter().zip(&rhs) {
                assert!(a.residual(x, b) < 1e-10);
            }
        }
    }

    #[test]
    fn single_shard_degenerates_to_monolithic() {
        // A one-shard request, and a hint-less operator large enough to
        // split under any sharding request: both plan one shard and give
        // the monolithic bits.
        for (shards, a) in [(1, laplacian_2d(12, 12)), (4, laplacian_2d(28, 22))] {
            let a = Arc::new(a);
            let rhs = loads(a.nrows(), 3);
            let mono = DirectCholesky::default()
                .prepare(Arc::clone(&a))
                .unwrap()
                .solve_many(&rhs, 2)
                .unwrap();
            let prepared = Sharded::new(shards).prepare(Arc::clone(&a)).unwrap();
            let batch = prepared.solve_many(&rhs, 2).unwrap();
            assert_eq!(batch.report.shards, 1);
            assert_eq!(batch.report.interface_dofs, 0);
            for (x, y) in mono.xs.iter().zip(&batch.xs) {
                assert_eq!(x, y, "one-shard solve must equal the monolithic bits");
            }
        }
    }

    #[test]
    fn sharded_single_rhs_solve_works() {
        let a = hinted(4, 4, 5);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let prepared = Sharded::new(4).prepare(Arc::clone(&a)).unwrap();
        let sol = prepared.solve(&b).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-10);
        assert!(sol.report.shards >= 2);
    }

    #[test]
    fn hinted_interiors_dissect_and_condense_inside_their_factor() {
        // Every interior of a hinted multi-shard plan carries its own part
        // of the hint, so it is dissected geometrically, and the clique its
        // bordered factorization leaves behind is the one per-column
        // condensation through a separate factor of the interior computes.
        let a = hinted(5, 4, 6);
        let prepared = Sharded::new(4).prepare(Arc::clone(&a)).unwrap();
        let schur = prepared.schur().expect("sharded engine");
        assert_eq!(schur.described.shards, 4);
        let inner = DirectCholesky::default();
        for (k, block) in schur.blocks.iter().enumerate() {
            let interior = block.solver.matrix();
            let stats = block
                .solver
                .description()
                .supernode_stats
                .expect("direct interior");
            assert_eq!(stats.ordering, "geometric", "shard {k}");
            assert!(!block.degraded);
            assert!(!block.cols.is_empty(), "shard {k} couples the interface");
            let separate = inner.prepare(Arc::clone(interior)).unwrap();
            let reference =
                condense_columns(&separate, &block.a_ks, &block.a_sk, &block.cols).unwrap();
            let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(scale > 0.0);
            for (p, q) in reference.iter().zip(block.clique.iter()) {
                assert!((p - q).abs() <= 1e-12 * scale, "shard {k}: {p} vs {q}");
            }
            // The leading factor solves the interior on its own.
            let b: Vec<f64> = (0..interior.nrows())
                .map(|i| (i % 7) as f64 - 3.0)
                .collect();
            let x = block.solver.solve(&b).unwrap().x;
            assert!(interior.residual(&x, &b) <= 1e-12);
        }
    }

    /// Bitwise-identity oracle of the incremental tests: `incremental`, the
    /// re-preparation of the perturbed operator `a` through a backend of
    /// `shards` that had prepared the unperturbed one, solves bit for bit
    /// like a *fresh* backend's from-scratch preparation of `a`.
    fn assert_bitwise_vs_scratch(
        incremental: &PreparedSolver,
        shards: usize,
        a: &Arc<CsrMatrix>,
        rhs: &[Vec<f64>],
    ) {
        let scratch = Sharded::new(shards).prepare(Arc::clone(a)).unwrap();
        let xi = incremental.solve_many(rhs, 4).unwrap();
        let xs = scratch.solve_many(rhs, 4).unwrap();
        for (x, y) in xi.xs.iter().zip(&xs.xs) {
            assert_eq!(x, y, "incremental bits must match from-scratch bits");
        }
    }

    /// The per-block rule the value diff replaced, kept as the oracle of
    /// the dirty set: shard `k` is dirty when its extracted `A_kk`, `A_ks`
    /// or `A_sk` differs (`!=`) between the previous operator and `a`.
    fn block_compare_dirty(prev: &Arc<CsrMatrix>, a: &Arc<CsrMatrix>, plan: &ShardPlan) -> usize {
        let iface_map = interface_map(plan);
        (0..plan.num_shards())
            .filter(|&k| {
                extract_shard(prev, plan, &iface_map, k) != extract_shard(a, plan, &iface_map, k)
            })
            .count()
    }

    #[test]
    fn incremental_refactors_only_the_touched_shard() {
        let a = hinted(5, 4, 6);
        let rhs = loads(a.nrows(), 4);
        let backend = Sharded::new(4);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let k = first.schur().expect("sharded engine").described.shards;
        assert!(k >= 2, "operator must split");
        // A first prepare is the all-dirty case of the one assembly route.
        let fresh = first.solve_many(&rhs, 4).unwrap().report;
        assert_eq!(fresh.shards, k);
        assert_eq!((fresh.shards_refactored, fresh.shards_reused), (k, 0));
        // Perturb one interior diagonal entry (stays SPD): only the owning
        // shard's block changes.
        let row = first.schur().unwrap().plan.shard_rows(0)[0];
        let mut b = (*a).clone();
        b.add_at(row, row, 1.0);
        let b = Arc::new(b);
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur = second.schur().unwrap();
        assert_eq!(schur.described.shards_refactored, 1, "one shard touched");
        assert_eq!(schur.described.shards_reused, k - 1);
        assert_eq!(block_compare_dirty(&a, &b, &schur.plan), 1);
        let batch = second.solve_many(&rhs, 4).unwrap();
        assert_eq!(batch.report.shards_refactored, 1);
        assert_eq!(batch.report.shards_reused, k - 1);
        assert_bitwise_vs_scratch(&second, backend.shards, &b, &rhs);
    }

    #[test]
    fn a_retained_solver_keeps_its_own_reuse_counters() {
        // Each preparation describes itself once. After the next
        // incremental prepare shares its clean blocks, the first solver
        // still reports its own all-dirty counters, and a shared block
        // describes only its own factor, never either preparation's split.
        let a = hinted(5, 4, 6);
        let rhs = loads(a.nrows(), 2);
        let backend = Sharded::new(4);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let k = first.description().shards;
        assert!(k >= 2, "operator must split");
        let row = first.schur().unwrap().plan.shard_rows(0)[0];
        let mut b = (*a).clone();
        b.add_at(row, row, 1.0);
        let second = backend.prepare(Arc::new(b)).unwrap();
        for (solver, refactored) in [(&second, 1), (&first, k)] {
            let report = solver.solve_many(&rhs, 2).unwrap().report;
            let counters = (report.shards_refactored, report.shards_reused);
            assert_eq!(counters, (refactored, k - refactored));
            assert_eq!(solver.description().shards_refactored, refactored);
        }
        let (old, new) = (first.schur().unwrap(), second.schur().unwrap());
        let shared = (0..k)
            .filter(|&s| Arc::ptr_eq(&old.blocks[s], &new.blocks[s]))
            .count();
        assert_eq!(shared, k - 1, "every clean block is shared");
        for block in &new.blocks {
            let d = block.solver.description();
            let split = (d.backend, d.shards, d.shards_refactored, d.shards_reused);
            assert_eq!(split, ("cholesky", 1, 0, 0));
        }
    }

    #[test]
    fn interface_perturbation_reuses_every_shard_but_rebuilds_s() {
        let a = hinted(5, 4, 6);
        let rhs = loads(a.nrows(), 3);
        let backend = Sharded::new(3);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let schur = first.schur().expect("sharded engine");
        let k = schur.described.shards;
        assert!(k >= 2);
        // Perturb an interface *diagonal* entry: no interior or coupling
        // block changes, so every shard is clean — but S must still be
        // re-assembled from the fresh A_ss, never silently reused.
        let row = schur.plan.interface()[0];
        let mut b = (*a).clone();
        b.add_at(row, row, 2.0);
        let b = Arc::new(b);
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur2 = second.schur().unwrap();
        assert_eq!(schur2.described.shards_refactored, 0);
        assert_eq!(schur2.described.shards_reused, k);
        assert_eq!(block_compare_dirty(&a, &b, &schur2.plan), 0);
        assert_bitwise_vs_scratch(&second, backend.shards, &b, &rhs);
        // And the perturbation genuinely changed the answer.
        let x1 = first.solve(&rhs[0]).unwrap().x;
        let x2 = second.solve(&rhs[0]).unwrap().x;
        assert_ne!(x1, x2, "interface perturbation must reach the result");
    }

    #[test]
    fn coupling_perturbation_dirties_the_owning_shard() {
        let a = hinted(5, 4, 6);
        let rhs = loads(a.nrows(), 3);
        let backend = Sharded::new(3);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let schur = first.schur().expect("sharded engine");
        let k = schur.described.shards;
        assert!(k >= 2);
        let plan = &schur.plan;
        // Find a stored interface↔interior entry: it lives in the coupling
        // blocks (A_ks/A_sk) of exactly one shard.
        let (s_row, i_col, owner) = plan
            .interface()
            .iter()
            .find_map(|&s| {
                let (cols, _) = a.row(s);
                cols.iter().find_map(|&c| plan.owner(c).map(|k| (s, c, k)))
            })
            .expect("some interface row couples an interior");
        let mut b = (*a).clone();
        // Weaken the symmetric off-diagonal pair: stays diagonally dominant.
        b.add_at(s_row, i_col, 0.5);
        b.add_at(i_col, s_row, 0.5);
        let b = Arc::new(b);
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur2 = second.schur().unwrap();
        assert_eq!(
            schur2.described.shards_refactored, 1,
            "only shard {owner} holds the perturbed coupling"
        );
        assert_eq!(schur2.described.shards_reused, k - 1);
        assert_eq!(block_compare_dirty(&a, &b, &schur2.plan), 1);
        assert_bitwise_vs_scratch(&second, backend.shards, &b, &rhs);
    }

    #[test]
    fn global_scaling_refactors_every_shard() {
        let a = hinted(5, 5, 5);
        let rhs = loads(a.nrows(), 3);
        let backend = Sharded::new(3);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let k = first.schur().expect("sharded engine").described.shards;
        assert!(k >= 2);
        let mut b = (*a).clone();
        for v in b.values_mut() {
            *v *= 1.5;
        }
        let b = Arc::new(b);
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur = second.schur().unwrap();
        assert_eq!(schur.described.shards_refactored, k, "every block changed");
        assert_eq!(schur.described.shards_reused, 0);
        assert_eq!(block_compare_dirty(&a, &b, &schur.plan), k);
        assert_bitwise_vs_scratch(&second, backend.shards, &b, &rhs);
    }

    /// Adds the positive semidefinite `|δ|(e_i ± e_j)(e_i ± e_j)ᵀ` with
    /// off-diagonal part `δ` (just `|δ|` on the diagonal when `i == j`), so
    /// an SPD operator stays SPD and only entries `(i, j)`, `(j, i)`,
    /// `(i, i)` and `(j, j)` change.
    fn perturb_pair(b: &mut CsrMatrix, i: usize, j: usize, delta: f64) {
        b.add_at(i, i, delta.abs());
        if i != j {
            b.add_at(j, j, delta.abs());
            b.add_at(i, j, delta);
            b.add_at(j, i, delta);
        }
    }

    #[test]
    fn value_diff_picks_the_block_compare_dirty_set() {
        // Seeded value perturbations, chained through one backend per
        // lattice: interior entries, coupling entries, interface-only
        // (`A_ss`) entries, a mix of all three, no change and a global
        // scaling. Each re-prepare refactors exactly the shards whose
        // extracted blocks changed since the previous prepare, and solves
        // bit for bit like a from-scratch prepare.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (bx, by, m, shards) in [(5, 4, 6, 3), (5, 4, 6, 4), (4, 4, 4, 4), (5, 5, 5, 3)] {
            let base = hinted(bx, by, m);
            let rhs = loads(base.nrows(), 3);
            let backend = Sharded::new(shards);
            let first = backend.prepare(Arc::clone(&base)).unwrap();
            let plan = first.schur().expect("sharded engine").plan.clone();
            assert!(plan.num_shards() >= 2);
            // Stored upper-triangle entries by class.
            let (mut interior, mut coupling, mut interface) = (vec![], vec![], vec![]);
            for i in 0..base.nrows() {
                for &j in base.row(i).0.iter().filter(|&&j| j >= i) {
                    match (plan.owner(i), plan.owner(j)) {
                        (Some(_), Some(_)) => interior.push((i, j)),
                        (None, None) => interface.push((i, j)),
                        _ => coupling.push((i, j)),
                    }
                }
            }
            assert!(!interior.is_empty() && !coupling.is_empty() && !interface.is_empty());
            let mixed: Vec<(usize, usize)> = [&interior, &coupling, &interface]
                .into_iter()
                .flatten()
                .copied()
                .collect();
            let mut prev = base;
            for round in 0..3 {
                for class in [&interior, &coupling, &interface, &mixed] {
                    let mut b = (*prev).clone();
                    for _ in 0..1 + round {
                        let (i, j) = class[next() as usize % class.len()];
                        let delta = (next() % 1000) as f64 / 2000.0 - 0.25;
                        perturb_pair(&mut b, i, j, if delta == 0.0 { 0.125 } else { delta });
                    }
                    prev = reprepare_against_the_oracle(&backend, &prev, b, &rhs);
                }
                let unchanged = (*prev).clone();
                prev = reprepare_against_the_oracle(&backend, &prev, unchanged, &rhs);
                let mut scaled = (*prev).clone();
                for v in scaled.values_mut() {
                    *v *= 1.25;
                }
                prev = reprepare_against_the_oracle(&backend, &prev, scaled, &rhs);
            }
        }
    }

    /// Re-prepares `b` through `backend`, whose last prepare was `prev`, and
    /// checks the dirty set against [`block_compare_dirty`] and the bits
    /// against a from-scratch prepare; returns `b` as the next `prev`.
    fn reprepare_against_the_oracle(
        backend: &Sharded,
        prev: &Arc<CsrMatrix>,
        b: CsrMatrix,
        rhs: &[Vec<f64>],
    ) -> Arc<CsrMatrix> {
        let b = Arc::new(b);
        let prepared = backend.prepare(Arc::clone(&b)).unwrap();
        let schur = prepared.schur().unwrap();
        let expected = block_compare_dirty(prev, &b, &schur.plan);
        assert_eq!(schur.described.shards_refactored, expected);
        assert_eq!(
            schur.described.shards_reused,
            schur.described.shards - expected
        );
        assert_bitwise_vs_scratch(&prepared, backend.shards, &b, rhs);
        b
    }

    #[test]
    fn a_changed_inner_configuration_reuses_nothing() {
        // The retained preparation is matched by the exact inner
        // configuration — its one setting, `verify` — so a clone switched
        // to another one reuses no shard.
        let a = hinted(5, 4, 6);
        let rhs = loads(a.nrows(), 3);
        let backend = Sharded::new(4);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let k = first.schur().expect("sharded engine").described.shards;
        assert!(k >= 2);
        let mut other = backend.clone();
        other.inner.verify = VerifyPolicy::Report;
        assert_ne!(other.inner, backend.inner);
        let second = other.prepare(Arc::clone(&a)).unwrap();
        let schur = second.schur().unwrap();
        assert_eq!(schur.described.shards_reused, 0);
        assert_eq!(schur.described.shards_refactored, k);
        let scratch = Sharded::with_inner(4, other.inner)
            .prepare(Arc::clone(&a))
            .unwrap();
        assert_eq!(
            second.solve_many(&rhs, 2).unwrap().xs,
            scratch.solve_many(&rhs, 2).unwrap().xs
        );
    }

    #[test]
    fn pattern_change_takes_the_full_route() {
        let backend = Sharded::new(3);
        let a = hinted(5, 4, 6);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let schur = first.schur().expect("sharded engine");
        let k = schur.described.shards;
        assert!(k >= 2);
        assert_eq!(schur.described.shards_refactored, k);
        // One new entry pair inside shard 0 (two rows of one block, so the
        // hint still holds and the plan is unchanged): a different pattern,
        // so no incremental reuse — everything refactored.
        let rows = schur.plan.shard_rows(0);
        let (r, c) = (rows[0], rows[2]);
        assert!(!a.row(r).0.contains(&c), "the pair must be new");
        let mut coo = CooMatrix::new(a.nrows(), a.ncols());
        for v in 0..a.nrows() {
            let (cols, vals) = a.row(v);
            for (&w, &x) in cols.iter().zip(vals) {
                coo.push(v, w, x);
            }
        }
        coo.push(r, c, -0.25);
        coo.push(c, r, -0.25);
        let hint = Arc::clone(a.partition_hint().expect("hinted"));
        let b = Arc::new(coo.to_csr().with_partition_hint(hint));
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur = second.schur().unwrap();
        assert_eq!(schur.described.shards, k);
        assert_eq!(schur.described.shards_refactored, k);
        assert_eq!(schur.described.shards_reused, 0);
        let rhs = loads(b.nrows(), 2);
        let batch = second.solve_many(&rhs, 2).unwrap();
        for (x, r) in batch.xs.iter().zip(&rhs) {
            assert!(b.residual(x, r) < 1e-10);
        }
    }

    #[test]
    fn identical_reprepare_reuses_every_shard() {
        let a = hinted(5, 5, 5);
        let backend = Sharded::new(3);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let k = first.schur().expect("sharded engine").described.shards;
        assert!(k >= 2);
        // Same values in a distinct allocation: the dirty set is empty.
        let copy = Arc::new((*a).clone());
        let second = backend.prepare(Arc::clone(&copy)).unwrap();
        let schur = second.schur().unwrap();
        assert_eq!(schur.described.shards_refactored, 0);
        assert_eq!(schur.described.shards_reused, k);
        assert_eq!(block_compare_dirty(&a, &copy, &schur.plan), 0);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 5) as f64).collect();
        assert_eq!(first.solve(&b).unwrap().x, second.solve(&b).unwrap().x);
    }

    #[test]
    fn degenerate_plans_share_one_cache_entry() {
        // Every requested shard count collapses to the same single-shard
        // plan on an operator below the 64-row floor (7×7) and on one
        // without a hint (28×28). The cache keys by configuration and key
        // and nothing else, so the two counts prepare one entry each under
        // one key — and the two entries solve bit for bit alike.
        for a in [laplacian_2d(7, 7), laplacian_2d(28, 28)] {
            let a = Arc::new(a);
            let rhs = loads(a.nrows(), 2);
            let cache = FactorCache::new();
            let four = Sharded::new(4);
            let eight = Sharded::new(8);
            assert_ne!(four.config_fingerprint(), eight.config_fingerprint());
            let by_four = cache.prepare(&four, &[0], &a).unwrap();
            let by_eight = cache.prepare(&eight, &[0], &a).unwrap();
            assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
            assert_eq!(by_four.description().shards, 1);
            assert_eq!(by_eight.description().shards, 1);
            assert_eq!(
                by_four.solve_many(&rhs, 1).unwrap().xs,
                by_eight.solve_many(&rhs, 1).unwrap().xs,
                "degenerate plans are identical, so are their solutions"
            );
        }

        // Counter-case: on an operator that genuinely splits, K=2 and K=4
        // produce different plans, and two entries.
        let big = hinted(4, 4, 6);
        let cache = FactorCache::new();
        cache.prepare(&Sharded::new(2), &[0], &big).unwrap();
        cache.prepare(&Sharded::new(4), &[0], &big).unwrap();
        assert_eq!(cache.hits(), 0, "distinct plans must not alias");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn huge_shard_counts_cap_at_the_block_count() {
        // Any count is a valid request: `usize::MAX` must not plan
        // differently from the block count.
        let a = hinted(3, 2, 6);
        let rhs = loads(a.nrows(), 2);
        let capped = Sharded::new(3 * 2).prepare(Arc::clone(&a)).unwrap();
        let huge = Sharded::new(usize::MAX).prepare(Arc::clone(&a)).unwrap();
        let plan = &capped.schur().expect("sharded engine").plan;
        assert!(plan.num_shards() >= 2);
        assert_eq!(&huge.schur().expect("sharded engine").plan, plan);
        assert_eq!(
            huge.solve_many(&rhs, 2).unwrap().xs,
            capped.solve_many(&rhs, 2).unwrap().xs
        );
    }

    #[test]
    fn hinted_prepare_takes_the_geometric_route_and_matches() {
        let a = hinted(4, 4, 4);
        let rhs = loads(a.nrows(), 3);
        let mono = DirectCholesky::default()
            .prepare(Arc::clone(&a))
            .unwrap()
            .solve_many(&rhs, 4)
            .unwrap();
        let prepared = Sharded::new(4).prepare(Arc::clone(&a)).unwrap();
        let schur = prepared.schur().expect("sharded engine");
        let stats = schur.plan.stats();
        assert_eq!(stats.shards, 4);
        assert!(stats.min_shard_rows >= ShardPlan::MIN_SHARD_ROWS);
        assert!(stats.balance_ratio <= 2.0);
        // Agreement with the monolithic solve, and bitwise cap invariance.
        let scale = mono
            .xs
            .iter()
            .flatten()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-30);
        let b1 = prepared.solve_many(&rhs, 1).unwrap();
        let b8 = prepared.solve_many(&rhs, 8).unwrap();
        for ((x, y), z) in mono.xs.iter().zip(&b1.xs).zip(&b8.xs) {
            assert_eq!(y, z, "geometric sharded solve must be cap-invariant");
            for (p, q) in x.iter().zip(y) {
                assert!((p - q).abs() <= 1e-10 * scale);
            }
        }
    }

    #[test]
    fn hinted_incremental_reuses_clean_shards_and_stays_bitwise() {
        let a = hinted(4, 4, 4);
        let rhs = loads(a.nrows(), 3);
        let backend = Sharded::new(4);
        let first = backend.prepare(Arc::clone(&a)).unwrap();
        let schur = first.schur().expect("sharded engine");
        let k = schur.described.shards;
        assert!(k >= 2);
        // Perturb one interior diagonal: incremental route, one dirty shard.
        let row = schur.plan.shard_rows(0)[0];
        let mut b = (*a).clone();
        b.add_at(row, row, 1.0);
        let b = Arc::new(b);
        let second = backend.prepare(Arc::clone(&b)).unwrap();
        let schur2 = second.schur().unwrap();
        assert_eq!(schur2.plan, schur.plan, "plan carries over");
        assert_eq!(schur2.described.shards_refactored, 1);
        assert_eq!(schur2.described.shards_reused, k - 1);
        assert_eq!(block_compare_dirty(&a, &b, &schur2.plan), 1);
        // Bitwise oracle: a fresh backend, from scratch.
        let scratch = Sharded::new(4).prepare(Arc::clone(&b)).unwrap();
        let xi = second.solve_many(&rhs, 4).unwrap();
        let xs = scratch.solve_many(&rhs, 4).unwrap();
        for (x, y) in xi.xs.iter().zip(&xs.xs) {
            assert_eq!(x, y, "hinted incremental bits must match scratch");
        }
    }

    #[test]
    fn hint_change_forces_the_full_route() {
        // The 17×17 grid read as 4×4 blocks of 4 cells, then as 2×2 blocks
        // of 8: the same values under another (still consistent) hint.
        let (plain, fine) = hinted_grid(4, 4, 4);
        let (_, coarse) = hinted_grid(2, 2, 8);
        let backend = Sharded::new(3);
        let first = backend
            .prepare(Arc::new(plain.clone().with_partition_hint(Arc::new(fine))))
            .unwrap();
        assert!(first.schur().unwrap().described.shards >= 2);
        // A hint change is an operator change: the retained plan is never
        // reused incrementally — the plan is rebuilt and every shard
        // refactored.
        let second = backend
            .prepare(Arc::new(plain.with_partition_hint(Arc::new(coarse))))
            .unwrap();
        let schur = second.schur().unwrap();
        assert!(schur.described.shards >= 2);
        assert_eq!(schur.described.shards_refactored, schur.described.shards);
        assert_eq!(schur.described.shards_reused, 0);
    }

    #[test]
    fn set_partition_hint_changes_nothing() {
        // `Sharded` plans from the operator's own hint only: whatever a
        // caller hands it through the trait method, the cache key, the plan
        // and the bits are those of an untouched backend.
        let (plain, hint) = hinted_grid(4, 4, 4);
        let hint = Arc::new(hint);
        let a = Arc::new(plain.clone().with_partition_hint(Arc::clone(&hint)));
        let (_, foreign) = hinted_grid(5, 3, 4);
        let rhs = loads(a.nrows(), 2);
        let quiet = Sharded::new(4);
        let backend = Sharded::new(4);
        backend.set_partition_hint(Some(Arc::new(foreign)));
        assert_eq!(backend.config_fingerprint(), quiet.config_fingerprint());
        let prepared = backend.prepare(Arc::clone(&a)).unwrap();
        let reference = quiet.prepare(Arc::clone(&a)).unwrap();
        assert_eq!(
            prepared.schur().unwrap().plan,
            reference.schur().unwrap().plan
        );
        assert_eq!(
            prepared.solve_many(&rhs, 1).unwrap().xs,
            reference.solve_many(&rhs, 1).unwrap().xs
        );
        // Nor does a hint that would fit a hint-less operator make it shard.
        backend.set_partition_hint(Some(hint));
        let unhinted = backend.prepare(Arc::new(plain)).unwrap();
        assert_eq!(unhinted.schur().unwrap().described.shards, 1);
    }

    #[test]
    fn indefinite_interior_is_contained_per_shard() {
        // One negative diagonal entry makes exactly one interior block
        // non-SPD. Pre-containment this aborted the whole prepare with
        // `NotPositiveDefinite`; now the broken block falls down the
        // resilience ladder while every clean shard keeps its direct
        // factor, and the degradation is surfaced in the report. The chain
        // lies on a 2×1 block grid: rows below 40 in block 0, row 40 on the
        // shared face, the rest (the negative entry at 60 included) in
        // block 1.
        let mut coo = CooMatrix::new(80, 80);
        for i in 0..80 {
            coo.push(i, i, if i == 60 { -4.0 } else { 4.0 });
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let spans = (0..80)
            .map(|i: usize| match i.cmp(&40) {
                std::cmp::Ordering::Less => [0, 0, 0, 0],
                std::cmp::Ordering::Equal => [0, 1, 0, 0],
                std::cmp::Ordering::Greater => [1, 1, 0, 0],
            })
            .collect();
        let hint = Arc::new(PartitionHint::new([2, 1], spans));
        let a = Arc::new(coo.to_csr().with_partition_hint(hint));
        let prepared = Sharded::new(2).prepare(Arc::clone(&a)).unwrap();
        let schur = prepared.schur().expect("sharded engine");
        assert_eq!(schur.described.shards, 2);
        assert!(
            schur.described.shards_degraded >= 1,
            "the non-SPD block must be recorded as degraded"
        );
        assert!(
            schur.described.shards_degraded < schur.described.shards + 1,
            "containment must not drag every block down the ladder"
        );
        assert!(
            !prepared.description().degradation.is_empty(),
            "the contained breakdown must appear in the preparation trail"
        );
        // The full indefinite (but nonsingular) system still solves: static
        // condensation is exact for any invertible interior, and the
        // degraded block's ladder solve targets 1e-8 — so the composed
        // residual lands within a few orders of that.
        let b: Vec<f64> = (0..80).map(|i| ((i % 7) as f64) - 3.0).collect();
        let sol = prepared.solve(&b).unwrap();
        assert!(
            a.residual(&sol.x, &b) < 1e-5,
            "contained solve residual too large: {}",
            a.residual(&sol.x, &b)
        );
        assert!(sol.report.shards_degraded >= 1);
        assert!(!sol.report.degradation.is_empty());

        // A clean operator through the same machinery reports zero degraded
        // shards.
        let clean = hinted(4, 3, 4);
        let prepared = Sharded::new(2).prepare(Arc::clone(&clean)).unwrap();
        let schur = prepared.schur().unwrap();
        assert!(schur.described.shards >= 2);
        assert_eq!(schur.described.shards_degraded, 0);
        let sol = prepared.solve(&loads(clean.nrows(), 1)[0]).unwrap();
        assert_eq!(sol.report.shards_degraded, 0);
        assert!(sol.report.degradation.is_empty());
    }
}
