//! Ablation: the dense microkernels (`scalar` oracle, `blocked` `mul_add`
//! tiles — the production kernel) compared on
//! (a) the raw rank-k update that dominates the supernodal flop count and
//! (b) an end-to-end ≥50k-DoF lattice factorization per kernel.
//!
//! Besides the Criterion-style console lines, this bench records its
//! medians into `BENCH_PR6.json` (section `kernels`) so CI and the
//! ROADMAP can quote machine-readable numbers: per-kernel rank-k GFLOP/s,
//! per-kernel factor milliseconds, and the blocked-vs-scalar speedup the
//! PR-6 acceptance criterion reads.

use criterion::{criterion_group, criterion_main, Criterion};
use morestress_bench::{jittered_lattice as lattice, quick_or, record_bench_entries, time3};
use morestress_linalg::{FillOrdering, KernelChoice, SupernodalCholesky, SupernodalOptions};

/// Times `reps` rank-k updates on a `m × wd` descendant panel restricted
/// to `wj` columns and returns the median throughput in GFLOP/s.
fn rankk_gflops(kernel: KernelChoice, m: usize, wd: usize, wj: usize, reps: usize) -> f64 {
    let kern = kernel.kernel();
    let lo = 0usize;
    let mu = m - lo;
    // Deterministic panel data in [-1, 1]; the update buffer accumulates
    // across reps (bounded: |entry| ≤ wd · reps), which keeps the hot loop
    // free of memset traffic.
    let panel: Vec<f64> = (0..wd * m).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut update = vec![0.0_f64; wj * mu];
    let (ms, _) = time3(|| {
        for _ in 0..reps {
            kern.rank_update(&mut update, &panel, m, lo, wj, wd);
        }
        std::hint::black_box(&mut update);
    });
    let flops = 2.0 * wd as f64 * wj as f64 * mu as f64 * reps as f64;
    flops / (ms * 1e6)
}

fn bench_kernels(c: &mut Criterion) {
    // 224 × 224 = 50_176 DoFs — the ≥50k-DoF lattice the acceptance
    // criterion names (tiny under MORESTRESS_BENCH_QUICK, where the CI
    // smoke job only proves the emitter runs).
    let side = quick_or(224usize, 40);
    let a = lattice(side, side);
    let n = a.nrows();
    let nd_perm = FillOrdering::NestedDissection.permutation(&a);

    // Rank-k microkernel geometry: a 512-row panel of 32 descendant
    // columns scattered into a 32-wide target — the tall-skinny shape the
    // supernodal sweep feeds the kernel on this kind of lattice.
    let (md, wd, wj) = (512usize, 32usize, 32usize);
    let reps = quick_or(256usize, 8);

    let mut entries: Vec<(String, f64)> = vec![("dofs".to_string(), n as f64)];
    let mut factor_ms = Vec::new();
    for &kernel in KernelChoice::available() {
        let name = kernel.resolved_name();
        let gflops = rankk_gflops(kernel, md, wd, wj, reps);
        let (ms, chol) = time3(|| {
            SupernodalCholesky::factor_with_permutation(
                &a,
                nd_perm.clone(),
                &SupernodalOptions {
                    kernel,
                    ..SupernodalOptions::default()
                },
            )
            .expect("SPD")
        });
        assert_eq!(chol.kernel_name(), name, "stats must record the kernel");
        println!(
            "kernel ablation ({n} DoFs): {name:>7}  rank-k {gflops:.2} GFLOP/s | \
             factor {ms:.1} ms"
        );
        entries.push((format!("rankk_gflops_{name}"), gflops));
        entries.push((format!("factor_ms_{name}"), ms));
        factor_ms.push((name, ms));
    }
    let lookup = |key: &str| factor_ms.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    if let (Some(scalar), Some(blocked)) = (lookup("scalar"), lookup("blocked")) {
        entries.push(("speedup_blocked_vs_scalar".to_string(), scalar / blocked));
    }
    record_bench_entries("BENCH_PR6.json", "kernels", entries);

    // --- Criterion points on the bare rank-k update (kept quick) --------
    let mut group = c.benchmark_group("ablation_kernels");
    group.sample_size(10);
    for &kernel in KernelChoice::available() {
        let kern = kernel.kernel();
        let (m, lo) = (192usize, 0usize);
        let mu = m - lo;
        let panel: Vec<f64> = (0..16 * m).map(|i| (i as f64 * 0.53).cos()).collect();
        let mut update = vec![0.0_f64; 16 * mu];
        group.bench_function(format!("rank_update_{}", kernel.resolved_name()), |bch| {
            bch.iter(|| {
                kern.rank_update(&mut update, &panel, m, lo, 16, 16);
                std::hint::black_box(&mut update);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
