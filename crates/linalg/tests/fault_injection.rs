//! Deterministic fault-injection harness for the resilience layer.
//!
//! Every case injects one structural fault through a seeded [`FaultPlan`]
//! and walks the affected solve path end to end, asserting the PR-8
//! resilience contract:
//!
//! * **no panics** — every fault surfaces as a typed [`LinalgError`] or a
//!   successful solve with the recovery recorded as a degradation trail;
//! * **containment** — a broken shard degrades alone, the pool keeps
//!   scheduling after the failure, and the factor cache never retains a
//!   failed or corrupted preparation;
//! * **determinism** — the no-fault path stays bitwise identical to the
//!   plain direct backend at every pool cap (the PR-4/PR-7 contract must
//!   survive the resilience wrapping).
//!
//! The suite runs in the CI `test-sharded` matrix
//! (`MORESTRESS_THREADS ∈ {1, 8} × MORESTRESS_SHARDS ∈ {1, 4}`), so every
//! fault is replayed serial and parallel, sharded and unsharded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use morestress_linalg::{
    Auto, CooMatrix, CsrMatrix, DirectCholesky, FactorCache, FaultPlan, LinalgError, PartitionHint,
    Resilient, Rung, ShardPlan, Sharded, SolverBackend, VerifyPolicy, WorkPool,
};

/// Shard count under test: `MORESTRESS_SHARDS` when set (the CI matrix
/// pins 1 and 4), else 4.
fn env_shards() -> usize {
    std::env::var("MORESTRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The 5-point lattice operator the MORE-Stress stages factor (+0.1
/// diagonal shift keeps it SPD).
fn lattice(nx: usize, ny: usize) -> CsrMatrix {
    let n = nx * ny;
    let id = |i: usize, j: usize| j * nx + i;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..ny {
        for i in 0..nx {
            let me = id(i, j);
            coo.push(me, me, 4.1);
            if i > 0 {
                coo.push(me, id(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(me, id(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(me, id(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                coo.push(me, id(i, j + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// [`lattice`] carrying the hint of a block grid of `m`-cell blocks
/// (`nx - 1` and `ny - 1` multiples of `m`; points on a block face span
/// both blocks) — the shape the sharded backend plans from.
fn hinted_lattice(nx: usize, ny: usize, m: usize) -> CsrMatrix {
    let (bx, by) = ((nx - 1) / m, (ny - 1) / m);
    let span = |c: usize, blocks: usize| -> [usize; 2] {
        if c.is_multiple_of(m) {
            [(c / m).saturating_sub(1), (c / m).min(blocks - 1)]
        } else {
            [c / m, c / m]
        }
    };
    let spans = (0..nx * ny)
        .map(|v| {
            let (x, y) = (span(v % nx, bx), span(v / nx, by));
            [x[0], x[1], y[0], y[1]]
        })
        .collect();
    lattice(nx, ny).with_partition_hint(Arc::new(PartitionHint::new([bx, by], spans)))
}

fn rhs_set(n: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|k| (0..n).map(|i| ((i * (k + 3)) % 11) as f64 - 5.0).collect())
        .collect()
}

/// The pool must keep scheduling after a fault was absorbed — resilience
/// that poisons the runtime is not containment.
fn assert_pool_usable(pool: &WorkPool) {
    let ran = AtomicUsize::new(0);
    pool.scope_chunks(8, 16, |_| {
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ran.load(Ordering::Relaxed), 16, "pool unusable after fault");
}

/// NaN poisoning anywhere in the operator is rejected before any
/// factorization runs, as a typed `NonFinite` carrying the offending
/// index — on the direct backend, the resilient ladder and the sharded
/// backend alike. A failed prepare never enters the cache.
#[test]
fn poisoned_operator_is_rejected_everywhere() {
    let pool = WorkPool::new(4);
    pool.install(|| {
        let mut faulty = lattice(12, 9);
        let k = FaultPlan::new(11).poison_value(&mut faulty);
        let a = Arc::new(faulty);

        let backends: Vec<Box<dyn SolverBackend>> = vec![
            Box::new(DirectCholesky::default()),
            Box::new(Resilient::default()),
            Box::new(Auto {
                direct_limit: 20_000,
                tol: 1e-9,
            }),
            Box::new(Sharded::new(env_shards())),
        ];
        for backend in &backends {
            match backend.prepare(Arc::clone(&a)) {
                Err(LinalgError::NonFinite { context, index }) => {
                    assert_eq!(context, "operator");
                    assert_eq!(index, k, "{}: wrong poisoned index", backend.name());
                }
                other => panic!(
                    "{}: poisoned operator must fail NonFinite, got {other:?}",
                    backend.name()
                ),
            }
            // The cache refuses to memoize the failure.
            let cache = FactorCache::new();
            assert!(cache.prepare(backend.as_ref(), &[0], &a).is_err());
            assert_eq!(
                cache.len(),
                0,
                "failed prepare cached by {}",
                backend.name()
            );
        }
    });
    assert_pool_usable(&pool);
}

/// A NaN right-hand side is rejected as `NonFinite { context: "rhs" }`
/// without disturbing the prepared factor, which keeps solving clean
/// inputs afterwards.
#[test]
fn poisoned_rhs_is_rejected_and_the_factor_survives() {
    let a = Arc::new(lattice(10, 8));
    let n = a.nrows();
    let prepared = Resilient::default()
        .prepare(Arc::clone(&a))
        .expect("clean SPD lattice");
    let mut b = vec![1.0; n];
    b[n / 2] = f64::INFINITY;
    match prepared.solve(&b) {
        Err(LinalgError::NonFinite { context, index }) => {
            assert_eq!(context, "rhs");
            assert_eq!(index, n / 2);
        }
        other => panic!("poisoned rhs must fail NonFinite, got {other:?}"),
    }
    let clean = prepared.solve(&vec![1.0; n]).expect("factor must survive");
    assert!(a.residual(&clean.x, &vec![1.0; n]) < 1e-10);
}

/// A zeroed pivot defeats the direct factorization with a typed
/// `NotPositiveDefinite`; the resilient ladder absorbs the same fault —
/// either solving with the escalation recorded, or failing with a typed
/// convergence error. Never a panic.
#[test]
fn zeroed_pivot_walks_the_degradation_ladder() {
    let pool = WorkPool::new(4);
    pool.install(|| {
        let mut faulty = lattice(11, 9);
        let row = FaultPlan::new(23).break_pivot(&mut faulty);
        let a = Arc::new(faulty);

        // The plain direct backend reports the breakdown, typed.
        let err = DirectCholesky::default()
            .prepare(Arc::clone(&a))
            .expect_err("zeroed pivot must defeat Cholesky");
        assert!(
            matches!(err, LinalgError::NotPositiveDefinite { .. }),
            "row {row}: expected NotPositiveDefinite, got {err:?}"
        );

        // The ladder prepares something (regularized factor or GMRES) and
        // records how it got there.
        let prepared = Resilient::default()
            .prepare(Arc::clone(&a))
            .expect("the ladder never fails preparation on finite input");
        let trail = prepared.prep_degradation();
        assert!(!trail.is_empty(), "escalation must be recorded");
        assert_eq!(
            trail.steps().next().map(|s| s.rung),
            Some(Rung::Regularized),
            "first rung after a pivot breakdown is regularization"
        );

        let b = rhs_set(a.nrows(), 1).pop().unwrap();
        match prepared.solve(&b) {
            Ok(sol) => {
                assert!(sol.x.iter().all(|v| v.is_finite()));
                assert!(
                    !sol.report.degradation.is_empty(),
                    "a recovered solve must carry its trail"
                );
            }
            Err(e) => assert!(
                matches!(
                    e,
                    LinalgError::DidNotConverge { .. } | LinalgError::NotPositiveDefinite { .. }
                ),
                "fault must surface typed, got {e:?}"
            ),
        }
    });
    assert_pool_usable(&pool);
}

/// One corrupted interior block degrades alone: the sharded prepare
/// succeeds, `shards_degraded` counts the contained shard without
/// implicating the clean ones, and the coupled solve still runs.
#[test]
fn corrupted_shard_is_contained_per_shard() {
    let pool = WorkPool::new(4);
    pool.install(|| {
        let shards = env_shards();
        let clean = hinted_lattice(13, 9, 4);
        let plan = ShardPlan::build_hinted(&clean, shards, clean.partition_hint().map(Arc::as_ref));
        assert!(
            shards <= 1 || plan.num_shards() >= 2,
            "the lattice must shard"
        );
        let mut faulty = clean.clone();
        let victim = FaultPlan::new(5).corrupt_shard(&mut faulty, &plan);
        assert!(victim < plan.num_shards());
        let a = Arc::new(faulty);

        let backend = Sharded::new(shards);
        let prepared = backend
            .prepare(Arc::clone(&a))
            .expect("containment must keep the prepare alive");
        let degraded = prepared.prep_degradation();
        assert!(
            !degraded.is_empty(),
            "the contained shard's ladder trail must surface"
        );

        let rhs = rhs_set(a.nrows(), 3);
        match prepared.solve_many(&rhs, 4) {
            Ok(batch) => {
                assert!(batch.report.shards_degraded >= 1);
                assert!(
                    batch.report.shards_degraded < plan.num_shards() + 1 || plan.num_shards() == 1,
                    "clean shards must keep their direct factors"
                );
                for x in &batch.xs {
                    assert!(x.iter().all(|v| v.is_finite()));
                }
            }
            Err(e) => assert!(
                matches!(
                    e,
                    LinalgError::DidNotConverge { .. } | LinalgError::NotPositiveDefinite { .. }
                ),
                "fault must surface typed, got {e:?}"
            ),
        }

        // The same backend still prepares the clean operator with zero
        // degradation — the fault did not leak into shared state.
        let clean_prep = Sharded::new(shards)
            .prepare(Arc::new(clean))
            .expect("clean lattice");
        assert!(clean_prep.prep_degradation().is_empty());
    });
    assert_pool_usable(&pool);
}

/// A corrupted cache entry (a healthy-looking factor bound to the wrong
/// operator) is detected by the verifying healing path, rebuilt exactly
/// once, and the rebuild is recorded as a `Rebuilt` rung.
#[test]
fn corrupted_cache_entry_self_heals() {
    let a = Arc::new(lattice(9, 8));
    let key = [9, 8];
    let backend = Resilient::default();
    let cache = FactorCache::new();
    FaultPlan::new(17)
        .corrupt_cache(&cache, &backend, &key, &a)
        .expect("planting the corrupted factor");
    assert_eq!(cache.len(), 1);

    let rhs = rhs_set(a.nrows(), 2);
    let cached = cache.get(&backend, &key).expect("planted entry");
    let (batch, healed) = cache
        .solve_many_healing(&backend, &key, &cached, &rhs, 2)
        .expect("healing solve");
    assert!(healed, "the corrupted entry must be detected and rebuilt");
    assert_eq!(
        batch.report.degradation.steps().next().map(|s| s.rung),
        Some(Rung::Rebuilt)
    );
    for (b, x) in rhs.iter().zip(&batch.xs) {
        assert!(a.residual(x, b) < 1e-8, "healed solve must be correct");
    }

    // The rebuilt entry is clean: the second call is a plain hit.
    let cached = cache.get(&backend, &key).expect("rebuilt entry");
    let (batch2, healed2) = cache
        .solve_many_healing(&backend, &key, &cached, &rhs, 2)
        .expect("clean solve");
    assert!(!healed2);
    assert!(batch2.report.degradation.is_empty());
    assert_eq!(cache.len(), 1, "healing must not grow the cache");
}

/// Cache eviction mid-run is transparent: the next solve re-prepares on
/// the miss and returns the same answers bitwise.
#[test]
fn evicted_cache_entry_reprepares_transparently() {
    let a = Arc::new(lattice(9, 7));
    let key = [9, 7];
    let backend = DirectCholesky::default();
    let cache = FactorCache::new();
    let rhs = rhs_set(a.nrows(), 2);
    let solve = || {
        cache
            .prepare(&backend, &key, &a)
            .expect("prepare")
            .solve_many(&rhs, 2)
            .expect("solve")
    };

    let before = solve();
    assert!(
        FaultPlan::new(29).evict_cache(&cache, &backend, &key),
        "the entry must have been cached"
    );
    assert_eq!(cache.len(), 0);

    let misses_before = cache.misses();
    let after = solve();
    assert_eq!(
        cache.misses(),
        misses_before + 1,
        "eviction must re-prepare"
    );
    for (x, y) in before.xs.iter().zip(&after.xs) {
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.to_bits(), q.to_bits(), "re-prepared factor must match");
        }
    }
}

/// A corrupted factor reached *through a key hit* — the caller never
/// assembled an operator, it solves on the cached solver's own — heals
/// like any other: detected, rebuilt once (`Rung::Rebuilt`), and the
/// retried batch is bitwise the clean one. The rebuild stays under the
/// key, so the next lookup still skips assembly.
#[test]
fn corrupted_factor_behind_a_provenance_hit_self_heals() {
    let a = Arc::new(lattice(10, 8));
    let backend = Resilient::default();
    let rhs = rhs_set(a.nrows(), 3);
    let clean = backend
        .prepare(Arc::clone(&a))
        .expect("clean prepare")
        .solve_many(&rhs, 2)
        .expect("clean solve");
    let key = [10u64, 8, 0xA11A5];

    let cache = FactorCache::new();
    cache.prepare(&backend, &key, &a).expect("cold prepare");
    FaultPlan::new(23)
        .corrupt_cache(&cache, &backend, &key, &a)
        .expect("planting the corrupted factor");
    assert_eq!(cache.len(), 1, "injecting over an entry replaces it");

    // The warm route: ask by key, solve on what comes back.
    let cached = cache.get(&backend, &key).expect("keyed entry");
    assert!(
        Arc::ptr_eq(cached.matrix(), &a),
        "the cached solver's own operator"
    );
    let (hits, misses) = (cache.hits(), cache.misses());
    let (batch, healed) = cache
        .solve_many_healing(&backend, &key, &cached, &rhs, 2)
        .expect("healing solve");
    assert!(healed, "the corrupted entry must be detected and rebuilt");
    assert_eq!(
        (cache.hits(), cache.misses()),
        (hits, misses + 1),
        "the bad factor's hit was counted by the lookup; one rebuild"
    );
    assert_eq!(
        batch.report.degradation.steps().next().map(|s| s.rung),
        Some(Rung::Rebuilt)
    );
    for (x, y) in clean.xs.iter().zip(&batch.xs) {
        for (p, q) in x.iter().zip(y) {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "healed batch must be the clean one"
            );
        }
    }

    // Rebuilt under the key: still one entry, still found, now clean.
    assert_eq!(cache.len(), 1);
    let cached = cache
        .get(&backend, &key)
        .expect("the rebuild stays under the key");
    let (again, healed_again) = cache
        .solve_many_healing(&backend, &key, &cached, &rhs, 2)
        .expect("clean warm solve");
    assert!(!healed_again);
    assert!(again.report.degradation.is_empty());
    assert_eq!(again.xs, clean.xs);
}

/// A key never outlives its entry, and never answers for another
/// configuration: LRU truncation and `invalidate` take the entry along, a
/// lookup matches word for word, and a backend with a different
/// fingerprint does not see it.
#[test]
fn provenance_alias_leaves_with_its_entry() {
    let backend = DirectCholesky::default();
    let (a, b) = (Arc::new(lattice(7, 6)), Arc::new(lattice(6, 7)));
    let cache = FactorCache::with_capacity(1);

    cache.prepare(&backend, &[1, 2, 3], &a).expect("prepare a");
    assert!(cache.get(&backend, &[1, 2, 3]).is_some());
    assert!(cache.get(&backend, &[1, 2]).is_none(), "word for word");
    assert!(
        cache.get(&Resilient::default(), &[1, 2, 3]).is_none(),
        "another configuration must prepare its own"
    );

    cache
        .prepare(&backend, &[4], &b)
        .expect("prepare b evicts a");
    assert!(cache.get(&backend, &[1, 2, 3]).is_none(), "evicted");
    let cached = cache.get(&backend, &[4]).expect("b's entry");
    assert!(Arc::ptr_eq(cached.matrix(), &b));
    assert!(cache.invalidate(&backend, &[4]));
    assert!(cache.get(&backend, &[4]).is_none(), "invalidated");
    assert!(cache.is_empty());
}

/// The no-fault path is bitwise invariant: the resilient wrapping (and
/// the `Auto` policy routing through it) returns exactly the plain direct
/// backend's bits, at every pool cap — serial, minimal, saturated,
/// oversubscribed.
#[test]
fn no_fault_path_is_bitwise_invariant_across_pool_caps() {
    let a = Arc::new(lattice(12, 9));
    let rhs = rhs_set(a.nrows(), 4);

    let reference = DirectCholesky::default()
        .prepare(Arc::clone(&a))
        .expect("clean SPD lattice")
        .solve_many(&rhs, 1)
        .expect("direct solve");

    for cap in [1usize, 2, 8, 33] {
        for (name, backend) in [
            (
                "resilient",
                Box::new(Resilient::default()) as Box<dyn SolverBackend>,
            ),
            (
                "auto",
                Box::new(Auto {
                    direct_limit: 20_000,
                    tol: 1e-9,
                }),
            ),
        ] {
            let batch = WorkPool::new(cap).install(|| {
                backend
                    .prepare(Arc::clone(&a))
                    .expect("clean SPD lattice")
                    .solve_many(&rhs, cap)
                    .expect("clean solve")
            });
            assert!(batch.report.degradation.is_empty(), "{name} cap {cap}");
            assert_eq!(batch.report.shards_degraded, 0);
            for (x, y) in reference.xs.iter().zip(&batch.xs) {
                for (p, q) in x.iter().zip(y) {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "{name} at cap {cap} diverged from the direct bits"
                    );
                }
            }
        }
    }
}

/// Verification policies on the clean path: `Report` records the residual
/// without touching the solution, `Enforce` passes a healthy solve — and
/// the resilient engine self-verifies even with the policy off.
#[test]
fn verification_reports_and_enforces_on_the_clean_path() {
    let a = Arc::new(lattice(10, 9));
    let rhs = rhs_set(a.nrows(), 2);

    let reported = DirectCholesky::default()
        .prepare(Arc::clone(&a))
        .expect("clean SPD lattice")
        .with_verify(VerifyPolicy::Report)
        .solve_many(&rhs, 2)
        .expect("verified solve");
    let rr = reported
        .report
        .verified_residual
        .expect("Report must record the residual");
    assert!(rr < 1e-10, "healthy direct solve, got {rr}");

    let enforced = DirectCholesky::default()
        .prepare(Arc::clone(&a))
        .expect("clean SPD lattice")
        .with_verify(VerifyPolicy::Enforce { tol: 1e-8 })
        .solve_many(&rhs, 2)
        .expect("a healthy solve must pass enforcement");
    assert!(enforced.report.verified_residual.unwrap() < 1e-8);

    let resilient = Resilient::default()
        .prepare(Arc::clone(&a))
        .expect("clean SPD lattice")
        .solve_many(&rhs, 2)
        .expect("resilient solve");
    let rr = resilient
        .report
        .verified_residual
        .expect("the ladder always verifies its own solves");
    assert!(rr < 1e-8);
}
