//! Ablation: what the resilience layer costs on the clean path. The
//! ladder's promise is "free until needed" — a healthy SPD solve through
//! the [`Resilient`] wrapping (and the `Auto` policy that routes through
//! it) must price out at the plain direct backend plus one residual
//! sweep. Measured on the jittered lattice the global stage factors:
//!
//! * `direct` — `DirectCholesky`, verification off (the pre-resilience
//!   baseline);
//! * `verify_report` / `verify_enforce` — the same backend with the
//!   residual check recording / gating, isolating the verification sweep;
//! * `resilient` — the full ladder on the clean path (direct factor + one
//!   self-verification, no escalation);
//! * `ladder_recovery` — the worst case: a broken pivot pushes one
//!   prepare down the regularized/GMRES rungs, bounding what a real fault
//!   costs end to end.
//!
//! Records its medians into `BENCH_PR8.json` (section
//! `ablation_resilience`) for `morestress check`, and exits
//! non-zero when the record cannot be written.

use std::sync::Arc;

use morestress_bench::{jittered_lattice, record_bench_entries, time3};
use morestress_linalg::{
    DirectCholesky, FaultPlan, Resilient, SolverBackend, VerifyPolicy, WorkPool,
};

fn main() -> std::io::Result<()> {
    let (nx, ny) = (96usize, 80usize);
    let a = Arc::new(jittered_lattice(nx, ny));
    let n = a.nrows();
    let nrhs = 8usize;
    let rhs: Vec<Vec<f64>> = (0..nrhs)
        .map(|k| (0..n).map(|i| ((i * (k + 3)) % 11) as f64 - 5.0).collect())
        .collect();
    let pool = WorkPool::new(4);

    let solve_with = |backend: &dyn SolverBackend| {
        pool.install(|| {
            backend
                .prepare(Arc::clone(&a))
                .expect("clean SPD lattice")
                .solve_many(&rhs, 4)
                .expect("clean solve")
        })
    };
    let direct = |verify| DirectCholesky { verify };

    let (direct_ms, base) = time3(|| solve_with(&direct(VerifyPolicy::Off)));
    let (report_ms, _) = time3(|| solve_with(&direct(VerifyPolicy::Report)));
    let (enforce_ms, _) = time3(|| solve_with(&direct(VerifyPolicy::Enforce { tol: 1e-8 })));

    let resilient = Resilient::default();
    let (resilient_ms, wrapped) = time3(|| solve_with(&resilient));
    // The clean path's bitwise contract, asserted right in the emitter.
    for (x, y) in base.xs.iter().zip(&wrapped.xs) {
        for (p, q) in x.iter().zip(y) {
            assert_eq!(p.to_bits(), q.to_bits(), "resilient clean path diverged");
        }
    }
    assert!(wrapped.report.degradation.is_empty());

    // Worst case: a zeroed pivot sends one prepare down the ladder.
    let mut broken = (*a).clone();
    FaultPlan::new(7).break_pivot(&mut broken);
    let broken = Arc::new(broken);
    let (ladder_ms, _) = time3(|| {
        pool.install(|| {
            let prepared = resilient
                .prepare(Arc::clone(&broken))
                .expect("the ladder never fails preparation on finite input");
            assert!(!prepared.description().degradation.is_empty());
            // The recovered solve may still refuse (typed) on a hostile
            // operator; the bench times the attempt either way.
            let _ = prepared.solve(&rhs[0]);
        })
    });

    let per_solve = |total_ms: f64| total_ms / nrhs as f64;
    println!(
        "resilience overhead ({nx}×{ny}, {nrhs} loads): direct {direct_ms:.1} ms, \
         +report {:.2} ms/solve, +enforce {:.2} ms/solve, resilient {resilient_ms:.1} ms \
         (+{:.2} ms/solve), ladder recovery {ladder_ms:.1} ms",
        per_solve(report_ms - direct_ms).max(0.0),
        per_solve(enforce_ms - direct_ms).max(0.0),
        per_solve(resilient_ms - direct_ms).max(0.0),
    );
    record_bench_entries(
        "BENCH_PR8.json",
        "ablation_resilience",
        vec![
            ("dofs".into(), n as f64),
            ("loads".into(), nrhs as f64),
            ("direct_solve_ms".into(), direct_ms),
            ("verify_report_ms".into(), report_ms),
            ("verify_enforce_ms".into(), enforce_ms),
            ("resilient_solve_ms".into(), resilient_ms),
            (
                "verify_overhead_ms_per_solve".into(),
                per_solve(report_ms - direct_ms).max(0.0),
            ),
            (
                "resilient_overhead_ms_per_solve".into(),
                per_solve(resilient_ms - direct_ms).max(0.0),
            ),
            ("ladder_recovery_ms".into(), ladder_ms),
        ],
    )
}
