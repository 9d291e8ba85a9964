//! A shared, reusable worker pool for every parallel stage in the workspace.
//!
//! Before this module existed, each embarrassingly-parallel stage — the
//! n+1 local solves, the batched multi-RHS global solve, block-wise stress
//! reconstruction — spun its own ad-hoc `std::thread::scope`, paying thread
//! spawn cost on every call and, worse, multiplying: a stage that spawned
//! `cap` threads whose tasks each spawned `cap` more could hold `cap²` OS
//! threads alive. [`WorkPool`] replaces all of that with one lazily-started
//! set of resident worker threads and a scoped work-queue API:
//!
//! * [`WorkPool::global`] — the process-wide pool. Its thread cap comes from
//!   the `MORESTRESS_THREADS` environment variable when set, otherwise from
//!   [`std::thread::available_parallelism`] clamped to 16 (the paper's
//!   thread count).
//! * [`WorkPool::new`] — an explicitly-capped private pool, used by tests to
//!   prove thread-count invariance and by embedders that must bound the
//!   simulator's parallelism.
//! * [`WorkPool::install`] — runs a closure with this pool as the *current*
//!   pool of the calling thread; every parallel site in the workspace
//!   resolves [`WorkPool::current`], so a whole pipeline (local stage →
//!   global solve → reconstruction) is redirected by wrapping it once.
//! * [`WorkPool::scope_chunks`] / [`WorkPool::scope_workers`] — the scoped
//!   execution primitives. Both block until every started task finished, so
//!   task closures may borrow from the caller's stack.
//!   [`WorkPool::scope_collect`] is `scope_chunks` for tasks that return a
//!   value: the results come back in index order.
//! * [`WorkPool::scope_dag_with`] — dependency-counted task-graph execution for
//!   stages whose tasks are *not* independent (the elimination-tree-parallel
//!   supernodal factorization): a task becomes ready when all of its
//!   prerequisites finished, ready tasks are claimed heaviest-priority
//!   first, and the scope blocks until the whole [`TaskDag`] drained.
//!
//! # Cap semantics
//!
//! A pool's `cap` is the maximum number of threads that ever execute its
//! work concurrently: up to `cap − 1` resident workers plus the calling
//! thread, which always participates. Per-call `workers` arguments
//! ([`PreparedSolver::solve_many`](crate::PreparedSolver::solve_many)'s
//! `threads`) are *requests* that are clamped to the cap — they can narrow
//! a call below the cap but never widen it. Nested stages share the one pool: a task already running on a
//! pool worker that opens a nested scope enqueues onto the same queue, and
//! idle workers help out; no new threads appear. A worker waiting for its
//! nested scope only waits on worker slots other threads have already
//! *started* — unstarted slots are reclaimed and never run, which is why
//! slot bodies must be drain-a-shared-counter loops (see
//! [`WorkPool::scope_workers`]) and why nesting is deadlock-free at any
//! cap, including 1.
//!
//! The cap bounds the pool's resident workers plus *one* calling thread;
//! `k` independent application threads calling in concurrently donate
//! their own `k` caller slots on top of the `cap − 1` residents. Within
//! one call tree (the nesting case that used to explode to cap²) the bound
//! is the cap.
//!
//! # Determinism
//!
//! The scoped APIs assign tasks dynamically but the workspace's task bodies
//! write to disjoint, index-addressed slots and never accumulate across
//! tasks in scheduling order, so results are bitwise identical for every
//! cap — the property `crates/core/tests/thread_invariance.rs` pins down.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// A worker-pool handle.
///
/// Cloning is cheap (the clones share the pool). The resident worker
/// threads shut down when the last handle is dropped; the global pool lives
/// for the process.
#[derive(Clone)]
pub struct WorkPool {
    inner: Arc<Inner>,
    owner: Arc<Owner>,
}

/// Shared pool state: the work queue and worker bookkeeping.
struct Inner {
    cap: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Arc<ScopeJob>>,
    spawned: usize,
    shutdown: bool,
}

/// Dropping the last [`WorkPool`] handle drops this and shuts the workers
/// down. Worker threads only hold [`Weak`] references to it, so they never
/// keep their own pool alive.
struct Owner {
    inner: Arc<Inner>,
}

impl Drop for Owner {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        state.shutdown = true;
        drop(state);
        self.inner.work_ready.notify_all();
    }
}

/// Thread-local resolution target of [`WorkPool::current`]. Holds the pool
/// weakly so a worker's own thread-local never keeps its pool alive.
#[derive(Clone)]
struct CurrentRef {
    inner: Arc<Inner>,
    owner: Weak<Owner>,
}

impl CurrentRef {
    fn upgrade(&self) -> Option<WorkPool> {
        self.owner.upgrade().map(|owner| WorkPool {
            inner: Arc::clone(&self.inner),
            owner,
        })
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CurrentRef>> = const { RefCell::new(None) };
}

/// One queued worker slot of an active scope.
///
/// `body` is a lifetime-erased pointer to the scope's task closure, which
/// lives on the scope caller's stack. Safety argument: the caller blocks in
/// [`WorkPool::scope_workers`] until every *claimed* job finished and has
/// reclaimed every unclaimed one, so the pointer is never dereferenced
/// after the closure's stack frame dies. Unclaimed jobs may outlive the
/// scope inside the queue, but their `claimed` flag is already set, so they
/// are discarded on pop without touching `body`.
struct ScopeJob {
    slot: usize,
    body: *const (dyn Fn(usize) + Sync),
    claimed: AtomicBool,
    scope: Arc<ScopeState>,
}

// SAFETY: `body` points at a `Sync` closure (shared references may cross
// threads) and the scope discipline above bounds its lifetime.
unsafe impl Send for ScopeJob {}
unsafe impl Sync for ScopeJob {}

/// Completion tracking of one scope: how many claimed jobs finished, plus
/// the first panic payload any of them produced.
struct ScopeState {
    finished: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            finished: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

fn run_job(job: &ScopeJob) {
    if job.claimed.swap(true, Ordering::AcqRel) {
        return; // reclaimed by the scope caller, or already run
    }
    // SAFETY: claiming the job above means the scope caller will wait for
    // `finished` to cover this job before returning, so `body` is alive.
    let body = unsafe { &*job.body };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(job.slot))) {
        job.scope
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .get_or_insert(payload);
    }
    let mut finished = job.scope.finished.lock().expect("scope latch poisoned");
    *finished += 1;
    drop(finished);
    job.scope.done.notify_all();
}

fn worker_loop(inner: Arc<Inner>, owner: Weak<Owner>) {
    // Work executed on this thread resolves `WorkPool::current()` to the
    // pool that owns it, so nested parallel stages reuse the same pool
    // instead of falling back to the global one.
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(CurrentRef {
            inner: Arc::clone(&inner),
            owner,
        });
    });
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        run_job(&job);
    }
}

/// Reads the global pool's thread cap: `MORESTRESS_THREADS` when set to a
/// positive integer, otherwise the machine's parallelism clamped to 16
/// (the paper's thread count).
fn default_global_cap() -> usize {
    std::env::var("MORESTRESS_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&cap| cap >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get().min(16)))
}

impl WorkPool {
    /// Creates a private pool whose work never runs on more than `cap`
    /// threads (`cap − 1` resident workers plus the caller). Workers are
    /// spawned lazily on first use and shut down when the last handle to
    /// the pool is dropped.
    pub fn new(cap: usize) -> Self {
        let inner = Arc::new(Inner {
            cap: cap.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                spawned: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let owner = Arc::new(Owner {
            inner: Arc::clone(&inner),
        });
        Self { inner, owner }
    }

    /// The process-wide shared pool (created on first use; see the
    /// `default_global_cap` semantics in the module docs).
    pub fn global() -> &'static WorkPool {
        static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkPool::new(default_global_cap()))
    }

    /// The pool parallel stages on this thread currently resolve to: the
    /// innermost [`install`](Self::install) scope, the owning pool on a
    /// pool worker thread, or the [`global`](Self::global) pool.
    pub fn current() -> WorkPool {
        CURRENT
            .with(|current| current.borrow().clone())
            .and_then(|re| re.upgrade())
            .unwrap_or_else(|| Self::global().clone())
    }

    /// Thread cap of this pool: up to `cap − 1` resident workers plus the
    /// calling thread. Each concurrent *independent* calling thread donates
    /// its own caller slot (see the module docs); within one call tree the
    /// cap is a hard bound.
    pub fn cap(&self) -> usize {
        self.inner.cap
    }

    fn current_ref(&self) -> CurrentRef {
        CurrentRef {
            inner: Arc::clone(&self.inner),
            owner: Arc::downgrade(&self.owner),
        }
    }

    /// Runs `f` with this pool installed as the calling thread's current
    /// pool, so every parallel stage `f` reaches — directly or through
    /// nested calls on this thread — executes here instead of on the
    /// global pool. The previous installation is restored on exit, also on
    /// unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<CurrentRef>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|current| *current.borrow_mut() = prev);
            }
        }
        let prev = CURRENT.with(|current| current.borrow_mut().replace(self.current_ref()));
        let _restore = Restore(prev);
        f()
    }

    /// Enqueues `jobs` and makes sure enough workers exist to help.
    fn submit(&self, jobs: &[Arc<ScopeJob>]) {
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        state.jobs.extend(jobs.iter().map(Arc::clone));
        let want = (self.inner.cap - 1).min(state.jobs.len());
        while state.spawned < want {
            state.spawned += 1;
            let inner = Arc::clone(&self.inner);
            let owner = Arc::downgrade(&self.owner);
            std::thread::Builder::new()
                .name("morestress-pool".into())
                .spawn(move || worker_loop(inner, owner))
                .expect("failed to spawn pool worker");
        }
        drop(state);
        self.inner.work_ready.notify_all();
    }

    /// Runs `body(slot)` once per worker slot, on up to `workers` threads
    /// concurrently (clamped to the pool cap; the caller runs slot 0, pool
    /// workers pick up the rest). Returns the number of worker slots that
    /// *actually ran* — the caller plus every slot a resident worker
    /// started, which is less than the request when the pool is busy
    /// serving other callers.
    ///
    /// This is the low-level primitive: `body` must be written in the
    /// work-queue style (each invocation drains a shared task counter until
    /// empty), because slots whose pool worker never became free are
    /// reclaimed and simply not run. [`scope_chunks`](Self::scope_chunks)
    /// packages that pattern.
    ///
    /// Blocks until every started slot returned, so `body` may borrow from
    /// the caller's stack. A panic in any slot is caught and its first
    /// payload re-thrown here only after the scope fully quiesced — one
    /// broken task can neither deadlock nor poison the pool, the other
    /// slots keep draining their work, and the pool stays usable. (Work the
    /// panicking slot would have claimed is abandoned, as in `rayon`: the
    /// scope is aborting anyway.)
    pub fn scope_workers(&self, workers: usize, body: impl Fn(usize) + Sync) -> usize {
        let workers = workers.clamp(1, self.inner.cap);
        let body_ref: &(dyn Fn(usize) + Sync) = &body;
        if workers == 1 {
            body_ref(0);
            return 1;
        }
        // SAFETY: lifetime erasure for the queue; see `ScopeJob` docs. This
        // function does not return before every claimed job finished.
        let body_ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(body_ref as *const (dyn Fn(usize) + Sync)) };
        let scope = Arc::new(ScopeState::new());
        let jobs: Vec<Arc<ScopeJob>> = (1..workers)
            .map(|slot| {
                Arc::new(ScopeJob {
                    slot,
                    body: body_ptr,
                    claimed: AtomicBool::new(false),
                    scope: Arc::clone(&scope),
                })
            })
            .collect();
        self.submit(&jobs);

        // The caller is worker slot 0. Catch its panic so the scope still
        // quiesces before unwinding out.
        let caller = panic::catch_unwind(AssertUnwindSafe(|| body_ref(0)));

        // Reclaim every job no worker started; wait for the ones claimed.
        let mut claimed_by_workers = 0usize;
        for job in &jobs {
            if job.claimed.swap(true, Ordering::AcqRel) {
                claimed_by_workers += 1;
            }
        }
        let mut finished = scope.finished.lock().expect("scope latch poisoned");
        while *finished < claimed_by_workers {
            finished = scope.done.wait(finished).expect("scope latch poisoned");
        }
        drop(finished);

        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        let worker_panic = scope
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
        1 + claimed_by_workers
    }

    /// Runs `task(i)` exactly once for every `i in 0..num_tasks`,
    /// distributing indices dynamically over up to `workers` worker slots
    /// (clamped to the pool cap and to `num_tasks`). Returns the number of
    /// worker slots that executed at least one task — honest concurrency
    /// telemetry, ≥ 1 and ≤ the clamped request, but scheduling-dependent:
    /// a fast caller can drain a small task set before the residents wake.
    ///
    /// Indices are claimed in *chunks* of `max(1, num_tasks / (8·workers))`
    /// from one shared counter, so fine-grained task sets pay one atomic
    /// RMW per chunk instead of one per task — the contention fix the
    /// many-core runs wanted — while the `8×` oversplit keeps the tail
    /// balanced when task costs vary.
    ///
    /// Blocks until all tasks finished, so `task` may borrow from the
    /// caller's stack; panic semantics are those of
    /// [`scope_workers`](Self::scope_workers).
    pub fn scope_chunks(
        &self,
        workers: usize,
        num_tasks: usize,
        task: impl Fn(usize) + Sync,
    ) -> usize {
        self.scope_chunks_with(workers, num_tasks, || (), |(), i| task(i))
    }

    /// [`scope_chunks`](Self::scope_chunks) with per-worker state: `init`
    /// runs once on every worker slot that claims at least one index, and
    /// the produced state is threaded through all of that slot's `task`
    /// calls. This is how batched solvers reuse one panel scratch per
    /// worker instead of allocating per task.
    ///
    /// The state is dropped when the slot drains; nothing is returned —
    /// use it for scratch, not for reductions (accumulating into it in
    /// claim order would break the workspace's schedule-independence
    /// contract).
    pub fn scope_chunks_with<S>(
        &self,
        workers: usize,
        num_tasks: usize,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) + Sync,
    ) -> usize {
        if num_tasks == 0 {
            return 0;
        }
        let workers = workers.clamp(1, self.inner.cap).min(num_tasks);
        let chunk = (num_tasks / (8 * workers)).max(1);
        let next = AtomicUsize::new(0);
        let active = AtomicUsize::new(0);
        self.scope_workers(workers, |_slot| {
            let mut state: Option<S> = None;
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= num_tasks {
                    return;
                }
                let state = match &mut state {
                    Some(state) => state,
                    None => {
                        active.fetch_add(1, Ordering::Relaxed);
                        state.insert(init())
                    }
                };
                for i in start..(start + chunk).min(num_tasks) {
                    task(state, i);
                }
            }
        });
        active.load(Ordering::Relaxed).max(1)
    }

    /// [`scope_chunks_with`](Self::scope_chunks_with) for tasks that
    /// *return* something: runs `task(state, i)` once per index and hands
    /// back the results **in index order**, whatever order the slots claimed
    /// them in, plus the worker-slot count of `scope_chunks`. This is the
    /// one ordered fan-out/fan-in of the workspace — per-right-hand-side
    /// solves, per-panel sweeps, per-shard stages, the local stage's column
    /// builds — so a fallible task set reduced front to back reports the
    /// first error in index order regardless of scheduling.
    ///
    /// Each result is written once to its own slot (an uncontended lock);
    /// a panicking task propagates as in
    /// [`scope_workers`](Self::scope_workers), and no result is returned.
    pub fn scope_collect_with<S, T: Send>(
        &self,
        workers: usize,
        num_tasks: usize,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) -> T + Sync,
    ) -> (Vec<T>, usize) {
        let slots: Vec<Mutex<Option<T>>> = (0..num_tasks).map(|_| Mutex::new(None)).collect();
        let used = self.scope_chunks_with(workers, num_tasks, init, |state, i| {
            *slots[i].lock().expect("collect slot poisoned") = Some(task(state, i));
        });
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("collect slot poisoned")
                    .expect("every index ran")
            })
            .collect();
        (results, used)
    }

    /// [`scope_collect_with`](Self::scope_collect_with) without per-worker
    /// state.
    pub fn scope_collect<T: Send>(
        &self,
        workers: usize,
        num_tasks: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, usize) {
        self.scope_collect_with(workers, num_tasks, || (), |(), i| task(i))
    }

    /// Runs `task(state, i)` exactly once for every node of `dag`, never
    /// starting a node before all of its prerequisites finished, on up to
    /// `workers` worker slots (clamped to the pool cap and the node count).
    /// Returns the number of slots that executed at least one task.
    ///
    /// Ready nodes are claimed highest-[priority](TaskDag::set_priority)
    /// first (ties broken by node index), which lets callers schedule heavy
    /// subtrees early; the claim order never affects *which* prerequisites a
    /// task observes — by construction they have all completed — so
    /// schedule-independent task bodies produce schedule-independent
    /// results, the same determinism contract the other scoped primitives
    /// honor. Completion of a prerequisite *happens-before* the start of
    /// every task depending on it (the ready queue is mutex-protected), so
    /// a task may freely read anything its prerequisites wrote.
    ///
    /// Blocks until every node ran, so `task` may borrow from the caller's
    /// stack. A panicking task aborts the scope: nodes not yet started are
    /// abandoned, already-running ones finish, and the first panic payload
    /// is re-thrown here after the scope quiesced (the pool stays usable).
    /// A `dag` whose remaining nodes are never all reachable — a dependency
    /// cycle — panics instead of deadlocking.
    ///
    /// `init` runs once on every slot that claims at least one node, and
    /// the produced state is threaded through all of that slot's `task`
    /// calls — how the parallel factorization reuses one dense scratch per
    /// worker across supernode tasks. Like
    /// [`scope_chunks_with`](Self::scope_chunks_with), the state is for
    /// scratch, not for reductions.
    pub fn scope_dag_with<S>(
        &self,
        workers: usize,
        dag: &TaskDag,
        init: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, usize) + Sync,
    ) -> usize {
        let n = dag.len();
        if n == 0 {
            return 0;
        }
        assert!(
            dag.pending_edges.is_empty(),
            "scope_dag_with: TaskDag has staged edges — call seal() after add_dependency"
        );
        struct DagState {
            /// Unfinished-prerequisite count per node.
            preds: Vec<usize>,
            /// Ready nodes, popped highest (priority, index) first.
            ready: BinaryHeap<(u64, usize)>,
            running: usize,
            completed: usize,
            /// First panic payload (or cycle diagnostic) — aborts the scope.
            abort: Option<Box<dyn Any + Send + 'static>>,
        }
        let mut ready = BinaryHeap::new();
        for i in 0..n {
            if dag.preds[i] == 0 {
                ready.push((dag.priority[i], i));
            }
        }
        let state = Mutex::new(DagState {
            preds: dag.preds.clone(),
            ready,
            running: 0,
            completed: 0,
            abort: None,
        });
        let ready_cv = Condvar::new();
        let active = AtomicUsize::new(0);
        let workers = workers.clamp(1, self.inner.cap).min(n);
        self.scope_workers(workers, |_slot| {
            let mut scratch: Option<S> = None;
            let mut guard = state.lock().expect("dag state poisoned");
            loop {
                if guard.completed == n || guard.abort.is_some() {
                    return;
                }
                let Some((_, i)) = guard.ready.pop() else {
                    if guard.running == 0 {
                        // No task is running, none is ready, not all are
                        // done: the dependency graph has a cycle. Abort the
                        // scope instead of deadlocking on the condvar.
                        guard.abort = Some(Box::new(
                            "scope_dag_with: dependency cycle (unfinished tasks, none ready)",
                        ));
                        drop(guard);
                        ready_cv.notify_all();
                        return;
                    }
                    guard = ready_cv.wait(guard).expect("dag state poisoned");
                    continue;
                };
                guard.running += 1;
                drop(guard);
                // `init` runs inside the same catch_unwind as `task`: a
                // panicking init must abort the scope like a panicking
                // task, not leak `running` and strand the other workers on
                // the condvar.
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    let scratch = match &mut scratch {
                        Some(scratch) => scratch,
                        None => {
                            active.fetch_add(1, Ordering::Relaxed);
                            scratch.insert(init())
                        }
                    };
                    task(scratch, i)
                }));
                guard = state.lock().expect("dag state poisoned");
                guard.running -= 1;
                let mut newly_ready = 0usize;
                match result {
                    Ok(()) => {
                        guard.completed += 1;
                        for &succ in dag.successors(i) {
                            guard.preds[succ] -= 1;
                            if guard.preds[succ] == 0 {
                                guard.ready.push((dag.priority[succ], succ));
                                newly_ready += 1;
                            }
                        }
                    }
                    Err(payload) => {
                        guard.abort.get_or_insert(payload);
                    }
                }
                // Wake waiters only when there is something to see —
                // newly-ready nodes, the final completion, an abort, or a
                // possible cycle verdict (`running == 0` with work left) —
                // not on every completion: a narrow frontier would
                // otherwise thundering-herd every waiter per task.
                if newly_ready > 0
                    || guard.completed == n
                    || guard.abort.is_some()
                    || guard.running == 0
                {
                    ready_cv.notify_all();
                }
            }
        });
        let abort = state.into_inner().expect("dag state poisoned").abort.take();
        if let Some(payload) = abort {
            panic::resume_unwind(payload);
        }
        active.load(Ordering::Relaxed).max(1)
    }
}

/// A dependency graph of tasks for [`WorkPool::scope_dag_with`]: node `i`
/// may only start once every node registered as its prerequisite finished.
///
/// Built once per schedule shape and reusable across `scope_dag_with`
/// calls (the scope clones the dependency counters, never mutates the
/// dag).
#[derive(Debug, Clone)]
pub struct TaskDag {
    /// Prerequisite count per node.
    preds: Vec<usize>,
    /// Successor adjacency in CSR form: finishing `i` releases
    /// `succ[succ_ptr[i]..succ_ptr[i+1]]`.
    succ_ptr: Vec<usize>,
    succ: Vec<usize>,
    /// Claim priority per node (higher pops first among ready nodes).
    priority: Vec<u64>,
    /// Edge staging area; folded into CSR lazily by [`TaskDag::seal`].
    pending_edges: Vec<(usize, usize)>,
}

impl TaskDag {
    /// A graph of `num_nodes` initially independent nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            preds: vec![0; num_nodes],
            succ_ptr: vec![0; num_nodes + 1],
            succ: Vec::new(),
            priority: vec![0; num_nodes],
            pending_edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Declares that `before` must finish before `after` may start.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `before == after`.
    pub fn add_dependency(&mut self, before: usize, after: usize) {
        assert!(
            before < self.len() && after < self.len() && before != after,
            "scope_dag_with: invalid dependency {before} -> {after} (nodes: {})",
            self.len()
        );
        self.preds[after] += 1;
        self.pending_edges.push((before, after));
    }

    /// Sets the claim priority of `node` (default 0): among *ready* nodes,
    /// higher priorities are claimed first. Use subtree weights here so the
    /// heaviest independent branches start earliest.
    pub fn set_priority(&mut self, node: usize, priority: u64) {
        self.priority[node] = priority;
    }

    /// Folds staged edges into the CSR successor lists. Must be called
    /// after the last [`add_dependency`](Self::add_dependency) and before
    /// [`WorkPool::scope_dag_with`] (which asserts it).
    pub fn seal(&mut self) {
        if self.pending_edges.is_empty() {
            return;
        }
        let n = self.len();
        let mut counts = vec![0usize; n];
        for i in 0..n {
            counts[i] = self.succ_ptr[i + 1] - self.succ_ptr[i];
        }
        for &(before, _) in &self.pending_edges {
            counts[before] += 1;
        }
        let mut new_ptr = vec![0usize; n + 1];
        for i in 0..n {
            new_ptr[i + 1] = new_ptr[i] + counts[i];
        }
        let mut new_succ = vec![0usize; new_ptr[n]];
        let mut next: Vec<usize> = new_ptr[..n].to_vec();
        for i in 0..n {
            for &s in &self.succ[self.succ_ptr[i]..self.succ_ptr[i + 1]] {
                new_succ[next[i]] = s;
                next[i] += 1;
            }
        }
        for &(before, after) in &self.pending_edges {
            new_succ[next[before]] = after;
            next[before] += 1;
        }
        self.pending_edges.clear();
        self.succ_ptr = new_ptr;
        self.succ = new_succ;
    }

    fn successors(&self, node: usize) -> &[usize] {
        debug_assert!(self.pending_edges.is_empty(), "TaskDag used before seal()");
        &self.succ[self.succ_ptr[node]..self.succ_ptr[node + 1]]
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().expect("pool state poisoned");
        f.debug_struct("WorkPool")
            .field("cap", &self.inner.cap)
            .field("spawned", &state.spawned)
            .field("queued", &state.jobs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkPool::new(4);
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        let used = pool.scope_chunks(4, counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(0 < used && used <= 4);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn cap_one_runs_inline() {
        let pool = WorkPool::new(1);
        let hits = AtomicUsize::new(0);
        let used = pool.scope_chunks(16, 10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(used, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(
            pool.inner.state.lock().unwrap().spawned,
            0,
            "a cap-1 pool must never spawn threads"
        );
    }

    #[test]
    fn requests_are_clamped_to_the_cap() {
        let pool = WorkPool::new(3);
        // The return value counts slots that actually started (the caller
        // may outrun the residents on trivial bodies), never more than the
        // cap / the task count.
        let used = pool.scope_workers(64, |_| {});
        assert!((1..=3).contains(&used), "used {used}");
        let used = pool.scope_chunks(64, 2, |_| {});
        assert!((1..=2).contains(&used), "also clamped to tasks: {used}");
    }

    #[test]
    fn nested_scopes_share_the_pool() {
        use std::collections::HashSet;
        let pool = WorkPool::new(3);
        let ids = Mutex::new(HashSet::new());
        let total = AtomicUsize::new(0);
        pool.install(|| {
            WorkPool::current().scope_chunks(8, 4, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                WorkPool::current().scope_chunks(8, 5, |_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 5);
        assert!(
            ids.lock().unwrap().len() <= 3,
            "nested stages must not exceed the shared cap"
        );
    }

    #[test]
    fn install_redirects_and_restores() {
        let pool = WorkPool::new(2);
        let inside = pool.install(WorkPool::current);
        assert!(Arc::ptr_eq(&inside.inner, &pool.inner));
        let outside = WorkPool::current();
        assert!(Arc::ptr_eq(&outside.inner, &WorkPool::global().inner));
    }

    #[test]
    fn collect_returns_results_in_index_order_and_propagates_panics() {
        for cap in [1usize, 2, 8] {
            let pool = WorkPool::new(cap);
            // Per-worker state threads through; results land by index, not
            // by claim order.
            let (squares, used) = pool.scope_collect_with(
                cap,
                97,
                || 0usize,
                |claimed, i| {
                    *claimed += 1;
                    (i * i, *claimed)
                },
            );
            assert!((1..=cap).contains(&used), "cap {cap}: used {used}");
            assert_eq!(squares.len(), 97);
            for (i, &(sq, claimed)) in squares.iter().enumerate() {
                assert_eq!(sq, i * i, "cap {cap}: slot {i}");
                assert!(claimed >= 1);
            }
            let (none, used) = pool.scope_collect(cap, 0, |i| i);
            assert_eq!((none, used), (Vec::new(), 0), "cap {cap}: empty task set");

            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.scope_collect(cap, 20, |i| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                    i
                })
            }));
            let payload = result.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 7 exploded"));
            // The pool survives and still collects in order.
            assert_eq!(pool.scope_collect(cap, 3, |i| i).0, vec![0, 1, 2]);
        }
    }

    #[test]
    fn panicking_task_propagates_without_deadlocking() {
        let pool = WorkPool::new(4);
        let survivors = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_chunks(4, 20, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the panic must reach the scope caller");
        // The panicking slot abandons its share; the others may or may not
        // have drained the rest, but the failed task never "ran".
        assert!(survivors.load(Ordering::Relaxed) <= 19);
        // And the pool keeps working afterwards.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(4, 10, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunked_claiming_still_runs_every_index_once() {
        // Task counts chosen to exercise chunk-boundary arithmetic: primes,
        // exact multiples of the chunk size, and fewer tasks than workers.
        let pool = WorkPool::new(4);
        for num_tasks in [1usize, 3, 64, 97, 128, 1000] {
            let counts: Vec<AtomicUsize> = (0..num_tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.scope_chunks(4, num_tasks, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} of {num_tasks}");
            }
        }
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_active_slot() {
        let pool = WorkPool::new(4);
        let inits = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let used = pool.scope_chunks_with(
            4,
            200,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 16] // stand-in for a panel scratch
            },
            |scratch, _i| {
                scratch[0] = scratch[0].wrapping_add(1);
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        assert_eq!(
            inits.load(Ordering::Relaxed),
            used,
            "exactly one scratch per slot that claimed work"
        );
    }

    /// A tree (or forest) schedule from a parent array: node `i` must
    /// finish before `parent[i]` may start; `parent[i] >= parent.len()`
    /// marks a root.
    fn tree_dag(parent: &[usize]) -> TaskDag {
        let mut dag = TaskDag::new(parent.len());
        for (child, &p) in parent.iter().enumerate() {
            if p < parent.len() {
                dag.add_dependency(child, p);
            }
        }
        dag.seal();
        dag
    }

    #[test]
    fn scope_dag_respects_dependencies() {
        // A diamond over 6 nodes: 0 → {1, 2} → 3 → {4, 5}. Record the
        // completion sequence and check every edge's ordering.
        let pool = WorkPool::new(4);
        let mut dag = TaskDag::new(6);
        for (before, after) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
            dag.add_dependency(before, after);
        }
        dag.seal();
        let clock = AtomicUsize::new(0);
        let seq: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let used = pool.scope_dag_with(
            4,
            &dag,
            || (),
            |(), i| {
                seq[i].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            },
        );
        assert!(0 < used && used <= 4);
        let at = |i: usize| seq[i].load(Ordering::SeqCst);
        assert!((0..6).all(|i| at(i) != usize::MAX), "every node ran");
        for (before, after) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
            assert!(
                at(before) < at(after),
                "node {after} started before its prerequisite {before}"
            );
        }
    }

    #[test]
    fn scope_dag_from_parents_runs_children_first() {
        // A forest: two chains 0→2→4 and 1→3 (parent indexed, MAX = root),
        // nodes must complete before their parents.
        let pool = WorkPool::new(3);
        let parent = vec![2usize, 3, 4, usize::MAX, usize::MAX];
        let dag = tree_dag(&parent);
        let clock = AtomicUsize::new(0);
        let seq: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.scope_dag_with(
            3,
            &dag,
            || (),
            |(), i| {
                seq[i].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            },
        );
        for (child, &p) in parent.iter().enumerate() {
            if p < parent.len() {
                assert!(
                    seq[child].load(Ordering::SeqCst) < seq[p].load(Ordering::SeqCst),
                    "child {child} must finish before parent {p}"
                );
            }
        }
        assert_eq!(clock.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn scope_dag_per_worker_state_and_priorities() {
        let pool = WorkPool::new(2);
        let mut dag = TaskDag::new(40);
        // One root gating 39 independent tasks, heaviest-first priorities.
        for i in 1..40 {
            dag.add_dependency(0, i);
            dag.set_priority(i, i as u64);
        }
        dag.seal();
        let inits = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let used = pool.scope_dag_with(
            2,
            &dag,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |scratch, _i| {
                *scratch += 1;
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 40);
        assert_eq!(
            inits.load(Ordering::Relaxed),
            used,
            "one scratch per active slot"
        );
    }

    #[test]
    fn scope_dag_propagates_init_panics_without_hanging() {
        let pool = WorkPool::new(2);
        let dag = TaskDag::new(4); // four independent nodes
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_dag_with(2, &dag, || panic!("init exploded"), |(), _i| {});
        }));
        assert!(result.is_err(), "the init panic must reach the caller");
        // The scope quiesced (no leaked `running` count) and the pool
        // still works.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(2, 6, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn scope_dag_panics_on_cycles_instead_of_deadlocking() {
        let pool = WorkPool::new(2);
        let mut dag = TaskDag::new(3);
        dag.add_dependency(0, 1);
        dag.add_dependency(1, 2);
        dag.add_dependency(2, 1); // 1 ⇄ 2 cycle
        dag.seal();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_dag_with(2, &dag, || (), |(), _| {});
        }));
        assert!(result.is_err(), "a cyclic dag must abort, not hang");
        // The pool survives the aborted scope.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(2, 8, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scope_dag_propagates_task_panics() {
        let pool = WorkPool::new(4);
        let dag = tree_dag(&[1, 2, 3, usize::MAX]);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_dag_with(
                4,
                &dag,
                || (),
                |(), i| {
                    if i == 1 {
                        panic!("task 1 exploded");
                    }
                },
            );
        }));
        assert!(result.is_err());
        // Downstream nodes were abandoned, the pool still works.
        let after = AtomicUsize::new(0);
        pool.scope_chunks(4, 4, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn global_cap_env_parsing() {
        // Only shape-checks the fallback path (the env var itself is owned
        // by CI); the parsed branch is covered by the CI thread matrix.
        let cap = default_global_cap();
        assert!(cap >= 1);
    }
}
