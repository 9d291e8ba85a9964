//! The dense microkernel of the supernodal flop core.
//!
//! Every hot path in this crate — the supernodal rank-k panel updates, the
//! dense diagonal-block Cholesky, the blocked triangular sweeps, the Schur
//! clique condensation, and the Krylov dot/axpy primitives — funnels its
//! floating-point work through [`BlockedKernel`]: register-tiled,
//! k-unrolled loops written around explicit [`f64::mul_add`] so LLVM
//! autovectorizes them, compiled per instruction-set level (below). The
//! plain slice loops this crate shipped with are the tests' per-loop
//! reference in the dev-only `morestress-oracle` crate; no workload runs
//! them.
//!
//! # The instruction-set ladder
//!
//! Every SIMD loop of this crate is one `#[inline(always)]` body behind a
//! job type, and runs at the level `Isa::detected()` picks once per call,
//! the widest the host runs: `Isa::run` enters the job through that
//! level's one `#[target_feature]` entry point, where the body compiles
//! with the level's instructions and, for the register tiles, its lane
//! type. The level × loop family × target features:
//!
//! | level             | register tiles (update, Gram)  | panel SpMV | unrolled `mul_add` loops |
//! |-------------------|--------------------------------|------------|--------------------------|
//! | [`Isa::Avx512`]   | `avx512f`, 8-lane `zmm`        | `avx512f`  | `avx2,fma` (256-bit)     |
//! | [`Isa::Avx2`]     | `avx2,fma`, 4-lane `ymm`       | `avx2,fma` | `avx2,fma`               |
//! | [`Isa::Portable`] | none, `[f64; 4]` and `mul_add` | none       | none (libm `fma`)        |
//!
//! The unrolled loops (`dot`, [`dot_panel`](crate::dot_panel), `axpy`,
//! `factor_panel` and the three sweeps) keep 256-bit code on an AVX-512
//! host: compiled under `avx512f` they made the local stage's build no
//! faster (`model_build` `setup_s` 0.282 → 0.298 s, then 0.277 → 0.286 s,
//! on a 2-vCPU AVX-512 guest), so their width is a property of the loops,
//! not of the host. A host with FMA but no AVX2 runs the portable level.
//!
//! **Why the level cannot change a bit.** Every level runs one source:
//! [`f64::mul_add`] is exactly rounded however it is lowered, a vector
//! fused multiply-add rounds exactly like it, Rust never fuses a separate
//! multiply and add, and vector lanes never mix. So the output does not
//! depend on the host CPU; the unit tests run every loop at every level
//! the host has against [`Isa::Portable`], bit for bit.
//!
//! # The rank-k update tile
//!
//! The supernodal factorization spends most of its flops in
//! [`BlockedKernel::scatter_update`], one call per (descendant, panel)
//! pair. It runs, like [`BlockedKernel::rank_update`], on one
//! register tile written once over a four-operation vector trait (splat,
//! load, store, fused multiply-add) and instantiated per instruction-set
//! level ([`Isa`]), the widest the host runs, picked at runtime:
//!
//! | level             | tile `MR × NR` | accumulators    | row tails          |
//! |-------------------|----------------|-----------------|--------------------|
//! | [`Isa::Avx512`]   | 16 × 6         | 12 × 8-lane zmm | masked load, store |
//! | [`Isa::Avx2`]     | 8 × 4          | 8 × 4-lane ymm  | masked load, store |
//! | [`Isa::Portable`] | 8 × 4          | 8 × `[f64; 4]`  | copy               |
//!
//! The tile holds an `MR × NR` block of `Gᵀ·G` in registers across all
//! `wd` descendant columns and then adds (or subtracts) it straight into
//! the target panel through the relative row map, lower triangle only: a
//! run of consecutive target rows is one vector load, fused multiply-add
//! by `±1` and store, anything else an element-wise `d ± a`. There is no
//! update buffer and no second pass over it.
//!
//! **Why the level cannot change a bit.** Every element's operation
//! sequence is fixed by the source, not by the level: the sum starts at
//! `+0.0`, adds `fma(g_k[j], g_k[i], ·)` for `k` ascending, and meets the
//! target in one exactly rounded `d ± sum` (a fused multiply-add by `±1`
//! rounds like the plain add or subtract). Vector fused multiply-add
//! rounds exactly like [`f64::mul_add`], lanes never mix, and tile shape
//! only decides which elements share a register. So `scatter_update` is
//! bit for bit the unfused form it replaced — a zeroed buffer, the
//! four-term streamed `mul_add` chain, then the scatter — at every level;
//! the proptests run each level the host has against that form, kept
//! verbatim as the oracle. (`rank_update` into a buffer that is not zero
//! adds the finished sum once, where the streamed chain started from the
//! buffer; from zero the two agree.)
//!
//! # The Gram tile
//!
//! [`gram_panel`](crate::gram_panel) dots many vectors `xs[i]` against
//! every column `y_k` of a `W`-wide interleaved panel — the Galerkin
//! projection's `Fᵀ (A_local F)`, 16 columns at a time. Like
//! [`dot_panel`](crate::dot_panel) it is a free function pinned to
//! [`BlockedKernel`], not one of its methods, and it runs on a
//! second register tile over the same vector trait, per [`Isa`] level:
//!
//! | level             | tile `rows × columns` | lane sums         |
//! |-------------------|-----------------------|-------------------|
//! | [`Isa::Avx512`]   | 3 × 16                | 24 × 8-lane zmm   |
//! | [`Isa::Avx2`]     | 3 × 4                 | 12 × 4-lane ymm   |
//! | [`Isa::Portable`] | 3 × 4                 | 12 × `[f64; 4]`   |
//!
//! Each entry holds [`dot`](crate::dot)'s four lane sums, so one load of
//! a panel row's columns serves every row of the tile through a broadcast
//! fused multiply-add. (On the projection's Gram blocks at `medium`, two
//! rows of sixteen columns ran ≈ 15–25 % slower under AVX-512, and one
//! row of eight columns ≈ 15 % slower under AVX2; two rows of eight
//! would need all sixteen ymm registers for sums.) The length runs in
//! k-blocks of [`BlockedKernel::GRAM_K_BLOCK`] entries so the panel's
//! chunk stays in L1 while every row tile passes over it; the lane sums
//! are parked in a `rows × 4 × W` scratch between blocks.
//!
//! **Why no bit can move.** Entry `(i, k)` runs `dot`'s own operation
//! sequence: entry `r < 4⌊n/4⌋` lands in lane `r mod 4` through
//! `fma(x_r, y_r, s)` from `+0.0` in ascending `r`, the rest in a tail
//! chain from `+0.0`, and the result is `((s0 + s1) + (s2 + s3)) + tail`.
//! A k-block bound is a multiple of four, so a block never splits a quad
//! and a lane never changes; parking a sum in memory is an exact store and
//! reload; vector lanes never mix. So `out[i][k]` is bit for bit
//! `dot(xs[i], y_k)` at every level and tile shape — the proptests run
//! each level the host has against `dot`.
//!
//! # Determinism contract
//!
//! [`BlockedKernel`] is deterministic: the same inputs always produce the
//! same bits, on any thread schedule and on any host CPU. This is what
//! lets the parallel supernodal factorization stay bitwise
//! pool-cap-invariant. Its loops associate sums differently from plain
//! slice loops (and a fused multiply-add rounds differently from a
//! separate multiply and add), so the per-loop reference the tests compare
//! it against — the loops this crate shipped with, kept in the dev-only
//! `morestress-oracle` crate — agrees with it only to ≤1e-12.

pub(crate) use lanes::Lanes;
use lanes::Portable;

/// The dense panel microkernel: the flop-bearing inner loops of the
/// supernodal factorization and triangular sweeps, plus the dot/axpy
/// primitives the Krylov solvers share. The rank-k update runs on an
/// explicit vector tile per instruction-set level ([`Isa`]), and the other
/// loops are unrolled and written around [`f64::mul_add`] so LLVM turns
/// them into packed FMA streams.
///
/// All panels are column-major with leading dimension = panel height, the
/// layout `supernodal.rs` stores. See the module-level docs in `kernel.rs`
/// for the tiles, the instruction-set ladder, and why the result bits are
/// host-independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedKernel;

/// The product's one dense kernel under the name the benchmark package
/// reads it by (`KernelChoice::default().kernel()` and
/// `resolved_name()`). No product code names it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// [`BlockedKernel`].
    #[default]
    Blocked,
}

impl KernelChoice {
    /// The kernel.
    pub fn kernel(self) -> &'static BlockedKernel {
        &BlockedKernel
    }

    /// The kernel's name, `"blocked"`.
    pub fn resolved_name(self) -> &'static str {
        "blocked"
    }
}

impl BlockedKernel {
    /// Dot product `x · y` (public as [`dot`](crate::dot)). Slices must
    /// have equal length.
    pub(crate) fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        Isa::detected().run(Dot(x, y))
    }

    /// `y ← y + alpha·x` (public as [`axpy`](crate::axpy)). Slices must
    /// have equal length.
    pub(crate) fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        Isa::detected().run(Axpy(alpha, x, y))
    }

    /// Rank-`wd` symmetric update block of the supernodal left-looking
    /// sweep: with `g_k = panel[k·m + lo .. k·m + m]` (the tail of
    /// descendant column `k` at row offset `lo`) and `mu = m - lo`,
    /// accumulates
    ///
    /// ```text
    /// update[j·mu + i] += Σ_{k<wd} g_k[j] · g_k[i]    (j < wj, i < mu)
    /// ```
    ///
    /// i.e. `update += Gᵀ·G` restricted to its first `wj` columns.
    /// `update` must hold `wj·mu` entries. This is the contiguous form of
    /// [`scatter_update`](Self::scatter_update), which the factorization
    /// calls.
    pub fn rank_update(
        &self,
        update: &mut [f64],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
    ) {
        self.rank_update_at(Isa::detected(), update, panel, m, lo, wj, wd);
    }

    /// One descendant's contribution to a panel, computed and scattered
    /// in one pass: with `g_k`, `mu` and the sums of
    /// [`rank_update`](Self::rank_update), adds
    ///
    /// ```text
    /// dst[relrows[j]·ldd + relrows[i]] ∓= Σ_{k<wd} g_k[j] · g_k[i]    (j < wj, j ≤ i < mu)
    /// ```
    ///
    /// (subtracting when `subtract`), i.e. the lower triangle of
    /// `Gᵀ·G`'s first `wj` columns lands in the `ldd`-high column-major
    /// panel `dst` through the relative row map `relrows` (`mu` entries,
    /// each `< ldd`), whose first `wj` entries also name the target
    /// columns. Each sum runs from `+0.0` in ascending `k` before it meets
    /// `dst`, so the result is bit for bit the unfused form — a zeroed
    /// buffer, [`rank_update`](Self::rank_update), then the scatter.
    #[allow(clippy::too_many_arguments)] // the update's source and target
    pub fn scatter_update(
        &self,
        dst: &mut [f64],
        ldd: usize,
        relrows: &[usize],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
        subtract: bool,
    ) {
        self.scatter_update_at(
            Isa::detected(),
            dst,
            ldd,
            relrows,
            panel,
            m,
            lo,
            wj,
            wd,
            subtract,
        );
    }

    /// Dense left-looking Cholesky of the leading `w × w` block of a
    /// `w`-column panel of height `m`, updating the below-diagonal rows in
    /// the same pass (exactly the in-panel factorization of
    /// `supernodal.rs`). On a non-positive or non-finite pivot returns
    /// `Err((j, pivot))` with the *panel-local* column index `j`.
    ///
    /// # Errors
    ///
    /// `Err((j, pivot))` when the pivot of local column `j` is not
    /// strictly positive and finite.
    pub fn factor_panel(&self, panel: &mut [f64], m: usize, w: usize) -> Result<(), (usize, f64)> {
        Isa::detected().run(FactorPanel(panel, m, w))
    }

    /// Forward substitution on the dense `w × w` lower-triangular
    /// diagonal block of a panel of height `m`, for `nrhs ≤ 8` right-hand
    /// sides at once: solves `L₁₁ Y = X` in place. `x` is the supernode's
    /// `w × nrhs` slice of an *interleaved* block — row `j` holds its
    /// `nrhs` entries side by side at `x[j·nrhs..(j+1)·nrhs]` — so every
    /// load of `L₁₁` serves the whole block. Each column runs exactly the
    /// one-column operation chain, so its bits never depend on `nrhs` or
    /// on its neighbours.
    pub fn solve_lower(&self, panel: &[f64], m: usize, w: usize, x: &mut [f64], nrhs: usize) {
        Isa::detected().run(SolveLower(panel, m, w, x, nrhs))
    }

    /// Below-diagonal product of the forward sweep for an interleaved
    /// block of `nrhs ≤ 8` columns: overwrites `acc` (`(m - w) × nrhs`,
    /// interleaved like `y`) with `L₂₁ · Y`, where `Y` is the `w × nrhs`
    /// diagonal-block solution and `L₂₁` the rows `w..m` of the panel.
    /// The caller scatters `acc` into the block's rows, one `nrhs`-wide
    /// run per row. Per column the chain is the one-column product's.
    pub fn below_accumulate(
        &self,
        panel: &[f64],
        m: usize,
        w: usize,
        y: &[f64],
        acc: &mut [f64],
        nrhs: usize,
    ) {
        Isa::detected().run(BelowAccumulate(panel, m, w, y, acc, nrhs))
    }

    /// Backward substitution on the panel for an interleaved block of
    /// `nrhs ≤ 8` columns: solves `L₁₁ᵀ X = X − L₂₁ᵀ X_b` in place, where
    /// `x` is the `w × nrhs` diagonal-block slice and `xb` (`(m - w) ×
    /// nrhs`, interleaved the same way) the already-solved entries
    /// gathered from the rows below the block. Per column the chain is
    /// the one-column solve's.
    pub fn solve_lower_transpose(
        &self,
        panel: &[f64],
        m: usize,
        w: usize,
        x: &mut [f64],
        xb: &[f64],
        nrhs: usize,
    ) {
        Isa::detected().run(SolveLowerTranspose(panel, m, w, x, xb, nrhs))
    }

    /// [`dot`](Self::dot) of `x` against `NB` vectors in one pass over
    /// `x` (`ys[i][k]` is entry `i` of vector `k`), bit for bit `NB` `dot`
    /// calls. Slices must have equal length.
    pub(crate) fn dot_panel<const NB: usize>(&self, x: &[f64], ys: &[[f64; NB]]) -> [f64; NB] {
        Isa::detected().run(DotBlock(x, ys))
    }

    /// Entries per k-block of the Gram tile behind
    /// [`gram_panel`](crate::gram_panel): a multiple of four, so a block
    /// never splits one of [`dot`](crate::dot)'s quads.
    pub const GRAM_K_BLOCK: usize = gram::K_BLOCK;

    /// [`gram_panel`](crate::gram_panel) on the tile of level `isa` rather
    /// than the detected one. The bits are the same at every level; this
    /// exists so tests can run each level the host has.
    ///
    /// # Panics
    ///
    /// If this host cannot run `isa`, `out` and `xs` differ in length, or a
    /// vector's length is not the panel's.
    pub fn gram_panel_at<const W: usize>(
        &self,
        isa: Isa,
        xs: &[&[f64]],
        ys: &[[f64; W]],
        out: &mut [[f64; W]],
    ) {
        isa.run(gram::Gram { xs, ys, out });
    }

    /// [`rank_update`](Self::rank_update) on the tile of level `isa` rather
    /// than the detected one. The bits are the same at every level; this
    /// exists so tests can run each level the host has.
    ///
    /// # Panics
    ///
    /// If this host cannot run `isa`, or the slices are shorter than the
    /// shape needs.
    #[allow(clippy::too_many_arguments)] // `rank_update`'s arguments plus the level
    pub fn rank_update_at(
        &self,
        isa: Isa,
        update: &mut [f64],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
    ) {
        isa.run(tile::Update {
            dst: update,
            // `lo > m` fails the call's bounds check.
            ldd: m.saturating_sub(lo),
            relrows: None,
            panel,
            m,
            lo,
            wj,
            wd,
            sign: 1.0,
        });
    }

    /// [`scatter_update`](Self::scatter_update) on the tile of level `isa`
    /// rather than the detected one, like
    /// [`rank_update_at`](Self::rank_update_at).
    ///
    /// # Panics
    ///
    /// If this host cannot run `isa`, or an index or slice falls outside
    /// the shape (see [`scatter_update`](Self::scatter_update)).
    #[allow(clippy::too_many_arguments)] // `scatter_update`'s arguments plus the level
    pub fn scatter_update_at(
        &self,
        isa: Isa,
        dst: &mut [f64],
        ldd: usize,
        relrows: &[usize],
        panel: &[f64],
        m: usize,
        lo: usize,
        wj: usize,
        wd: usize,
        subtract: bool,
    ) {
        isa.run(tile::Update {
            dst,
            ldd,
            relrows: Some(relrows),
            panel,
            m,
            lo,
            wj,
            wd,
            sign: if subtract { -1.0 } else { 1.0 },
        });
    }
}

// The unrolled loops as jobs of the ladder, each holding its arguments in
// the order of the method it serves; their bodies are in `body`.
struct Dot<'a>(&'a [f64], &'a [f64]);
struct DotBlock<'a, const NB: usize>(&'a [f64], &'a [[f64; NB]]);
struct Axpy<'a>(f64, &'a [f64], &'a mut [f64]);
struct FactorPanel<'a>(&'a mut [f64], usize, usize);
struct SolveLower<'a>(&'a [f64], usize, usize, &'a mut [f64], usize);
struct BelowAccumulate<'a>(&'a [f64], usize, usize, &'a [f64], &'a mut [f64], usize);
struct SolveLowerTranspose<'a>(&'a [f64], usize, usize, &'a mut [f64], &'a [f64], usize);

/// The unrolled loop bodies, written once and compiled at every level of
/// the ladder. Everything is `#[inline(always)]` so the `target_feature`
/// entry points specialize the whole body, not just a call. None of them
/// reads its lane type: they are plain `mul_add` loops LLVM vectorizes.
mod body {
    use super::{
        Axpy, BelowAccumulate, Dot, DotBlock, FactorPanel, Lanes, SimdLoop, SolveLower,
        SolveLowerTranspose,
    };

    impl SimdLoop for Dot<'_> {
        type Output = f64;
        const ZMM: bool = false;

        /// Four-lane accumulator dot; the fixed reduction tree keeps the
        /// result schedule-independent.
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) -> f64 {
            let Dot(x, y) = self;
            let n = x.len();
            let quads = n / 4;
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
            for q in 0..quads {
                let b = 4 * q;
                s0 = x[b].mul_add(y[b], s0);
                s1 = x[b + 1].mul_add(y[b + 1], s1);
                s2 = x[b + 2].mul_add(y[b + 2], s2);
                s3 = x[b + 3].mul_add(y[b + 3], s3);
            }
            let mut tail = 0.0f64;
            for i in 4 * quads..n {
                tail = x[i].mul_add(y[i], tail);
            }
            ((s0 + s1) + (s2 + s3)) + tail
        }
    }

    impl<const NB: usize> SimdLoop for DotBlock<'_, NB> {
        type Output = [f64; NB];
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) -> [f64; NB] {
            dot_block(self.0, self.1)
        }
    }

    /// [`Dot`] of `x` against `NB` vectors at once, `ys[i][k]` being
    /// entry `i` of vector `k`: one pass over `x`, each vector on `dot`'s
    /// own four lanes and reduction tree, so result `k` is bit for bit
    /// `dot(x, y_k)`. The `4 × NB` accumulators are independent chains, so
    /// a wide block keeps the FMA pipes full where a single `dot` waits on
    /// the latency of its four.
    #[inline(always)]
    fn dot_block<const NB: usize>(x: &[f64], ys: &[[f64; NB]]) -> [f64; NB] {
        let quads = x.len() / 4;
        // s[lane][k]: lane `lane` of `dot`'s accumulator for vector `k`.
        let mut s = [[0.0f64; NB]; 4];
        for (xq, yq) in x.chunks_exact(4).zip(ys.chunks_exact(4)) {
            for lane in 0..4 {
                for k in 0..NB {
                    s[lane][k] = xq[lane].mul_add(yq[lane][k], s[lane][k]);
                }
            }
        }
        let mut tail = [0.0f64; NB];
        for (xi, yi) in x[4 * quads..].iter().zip(&ys[4 * quads..]) {
            for k in 0..NB {
                tail[k] = xi.mul_add(yi[k], tail[k]);
            }
        }
        std::array::from_fn(|k| ((s[0][k] + s[1][k]) + (s[2][k] + s[3][k])) + tail[k])
    }

    impl SimdLoop for Axpy<'_> {
        type Output = ();
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let Axpy(alpha, x, y) = self;
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi = alpha.mul_add(xi, *yi);
            }
        }
    }

    impl SimdLoop for FactorPanel<'_> {
        type Output = Result<(), (usize, f64)>;
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) -> Result<(), (usize, f64)> {
            let FactorPanel(panel, m, w) = self;
            for j in 0..w {
                let (head, tail) = panel.split_at_mut(j * m);
                let colj = &mut tail[..m];
                // Two prior columns per pass over the update tail.
                let mut k = 0;
                while k + 2 <= j {
                    let ck0 = &head[k * m..(k + 1) * m];
                    let ck1 = &head[(k + 1) * m..(k + 2) * m];
                    let (c0, c1) = (ck0[j], ck1[j]);
                    for i in j..m {
                        colj[i] = (-c1).mul_add(ck1[i], (-c0).mul_add(ck0[i], colj[i]));
                    }
                    k += 2;
                }
                if k < j {
                    let ck = &head[k * m..(k + 1) * m];
                    let c = ck[j];
                    for i in j..m {
                        colj[i] = (-c).mul_add(ck[i], colj[i]);
                    }
                }
                let d = colj[j];
                if d <= 0.0 || !d.is_finite() {
                    return Err((j, d));
                }
                let piv = d.sqrt();
                colj[j] = piv;
                let inv = 1.0 / piv;
                for x in &mut colj[j + 1..] {
                    *x *= inv;
                }
            }
            Ok(())
        }
    }

    /// Calls `$body::<NB>` for the sweep block width `$nrhs` (1..=8), so
    /// every width gets its own fully unrolled instance.
    macro_rules! by_width {
        ($nrhs:expr, $body:ident ( $($arg:expr),* )) => {
            match $nrhs {
                1 => $body::<1>($($arg),*),
                2 => $body::<2>($($arg),*),
                3 => $body::<3>($($arg),*),
                4 => $body::<4>($($arg),*),
                5 => $body::<5>($($arg),*),
                6 => $body::<6>($($arg),*),
                7 => $body::<7>($($arg),*),
                8 => $body::<8>($($arg),*),
                nrhs => panic!("a sweep block holds 1 to 8 columns, not {nrhs}"),
            }
        };
    }

    impl SimdLoop for SolveLower<'_> {
        type Output = ();
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let SolveLower(panel, m, w, x, nrhs) = self;
            by_width!(nrhs, solve_lower_block(panel, m, w, x))
        }
    }

    #[inline(always)]
    fn solve_lower_block<const NB: usize>(panel: &[f64], m: usize, w: usize, x: &mut [f64]) {
        let x = &mut x.as_chunks_mut::<NB>().0[..w];
        for j in 0..w {
            let col = &panel[j * m..(j + 1) * m];
            let (head, tail) = x.split_at_mut(j + 1);
            let yj = head[j].map(|v| v / col[j]);
            head[j] = yj;
            for (xi, &l) in tail.iter_mut().zip(&col[j + 1..w]) {
                for c in 0..NB {
                    xi[c] = (-yj[c]).mul_add(l, xi[c]);
                }
            }
        }
    }

    impl SimdLoop for BelowAccumulate<'_> {
        type Output = ();
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let BelowAccumulate(panel, m, w, y, acc, nrhs) = self;
            by_width!(nrhs, below_accumulate_block(panel, m, w, y, acc))
        }
    }

    #[inline(always)]
    fn below_accumulate_block<const NB: usize>(
        panel: &[f64],
        m: usize,
        w: usize,
        y: &[f64],
        acc: &mut [f64],
    ) {
        let y = &y.as_chunks::<NB>().0[..w];
        let acc = &mut acc.as_chunks_mut::<NB>().0[..m - w];
        acc.iter_mut().for_each(|a| *a = [0.0; NB]);
        let mut j = 0;
        // Four panel columns per pass, one load of each entry for the
        // whole block: every column chains the same four fused
        // multiply-adds as the one-column product.
        while j + 4 <= w {
            let (c0, c1, c2, c3) = (y[j], y[j + 1], y[j + 2], y[j + 3]);
            let l0 = &panel[j * m + w..(j + 1) * m];
            let l1 = &panel[(j + 1) * m + w..(j + 2) * m];
            let l2 = &panel[(j + 2) * m + w..(j + 3) * m];
            let l3 = &panel[(j + 3) * m + w..(j + 4) * m];
            for (i, a) in acc.iter_mut().enumerate() {
                let (v0, v1, v2, v3) = (l0[i], l1[i], l2[i], l3[i]);
                for c in 0..NB {
                    a[c] = c3[c].mul_add(
                        v3,
                        c2[c].mul_add(v2, c1[c].mul_add(v1, c0[c].mul_add(v0, a[c]))),
                    );
                }
            }
            j += 4;
        }
        while j < w {
            let coef = y[j];
            let col = &panel[j * m + w..(j + 1) * m];
            for (a, &l) in acc.iter_mut().zip(col) {
                for c in 0..NB {
                    a[c] = coef[c].mul_add(l, a[c]);
                }
            }
            j += 1;
        }
    }

    impl SimdLoop for SolveLowerTranspose<'_> {
        type Output = ();
        const ZMM: bool = false;

        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let SolveLowerTranspose(panel, m, w, x, xb, nrhs) = self;
            by_width!(nrhs, solve_lower_transpose_block(panel, m, w, x, xb))
        }
    }

    #[inline(always)]
    fn solve_lower_transpose_block<const NB: usize>(
        panel: &[f64],
        m: usize,
        w: usize,
        x: &mut [f64],
        xb: &[f64],
    ) {
        let x = &mut x.as_chunks_mut::<NB>().0[..w];
        let xb = &xb.as_chunks::<NB>().0[..m - w];
        for j in (0..w).rev() {
            let col = &panel[j * m..(j + 1) * m];
            let below = dot_block(&col[w..], xb);
            let mut acc: [f64; NB] = std::array::from_fn(|c| x[j][c] - below[c]);
            for (xi, &l) in x[j + 1..].iter().zip(&col[j + 1..w]) {
                for c in 0..NB {
                    acc[c] = (-l).mul_add(xi[c], acc[c]);
                }
            }
            x[j] = acc.map(|v| v / col[j]);
        }
    }
}

/// The instruction-set level a SIMD loop of this crate runs at: a rung of
/// the ladder whose table in the `kernel.rs` module docs gives each
/// level's target features per loop family.
///
/// The level is chosen in one place, the widest the host runs, once per
/// call. Every level runs the one source of each loop, and the result bits
/// do not depend on the level (see the module docs). It is public so tests
/// can run every level the host has against the oracle
/// ([`Isa::available`], [`BlockedKernel::scatter_update_at`],
/// [`BlockedKernel::gram_panel_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F, with the AVX2 and FMA every such CPU has: a 16 × 6
    /// update tile in twelve 8-lane registers, masked row tails; a 3 × 16
    /// Gram tile in twenty-four; the panel SpMV on 8-lane vectors. The
    /// unrolled loops run the AVX2 level's 256-bit code.
    Avx512,
    /// AVX2 with FMA: an 8 × 4 update tile in eight 4-lane registers; a
    /// 3 × 4 Gram tile in twelve; every other loop on 4-lane vectors.
    Avx2,
    /// Portable Rust, `f64::mul_add` on four-element arrays: an 8 × 4
    /// update tile and a 3 × 4 Gram tile.
    Portable,
}

impl Isa {
    /// The widest level this host runs: the one place a loop's level is
    /// chosen.
    pub(crate) fn detected() -> Isa {
        [Isa::Avx512, Isa::Avx2]
            .into_iter()
            .find(|isa| isa.runs_here())
            .unwrap_or(Isa::Portable)
    }

    /// Every level this host runs, widest first; [`Isa::Portable`] is
    /// always last.
    pub fn available() -> Vec<Isa> {
        [Isa::Avx512, Isa::Avx2, Isa::Portable]
            .into_iter()
            .filter(|isa| isa.runs_here())
            .collect()
    }

    /// Whether this host's CPU has the instructions of the level, and so
    /// of every level below it.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f") && Isa::Avx2.runs_here(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => false,
            Isa::Portable => true,
        }
    }

    /// Runs `job` at this level: through the level's `target_feature`
    /// entry point, on its lane type.
    ///
    /// # Panics
    ///
    /// If this host cannot run the level.
    pub(crate) fn run<L: SimdLoop>(self, job: L) -> L::Output {
        assert!(self.runs_here(), "this host cannot run the {self:?} level");
        match self {
            // SAFETY (all arms): the host runs the level, just asserted,
            // and with it every level below (`runs_here`).
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if L::ZMM => unsafe { avx512(job) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx2 => unsafe { avx2(job) },
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => unreachable!("not an x86-64 host"),
            Isa::Portable => unsafe { job.run::<Portable>() },
        }
    }
}

/// A SIMD loop of this crate as a job of the ladder: its arguments, and
/// its body written once over the lane type of the level it runs at.
pub(crate) trait SimdLoop {
    /// What the loop returns.
    type Output;

    /// Whether the loop runs 512-bit vectors at [`Isa::Avx512`]. The
    /// unrolled `mul_add` loops do not: they take the AVX2 entry point
    /// there (the module docs say why).
    const ZMM: bool;

    /// The body on `V`'s lanes, inlined into the entry point of `V`'s
    /// level.
    ///
    /// # Safety
    ///
    /// The host must run `V`'s level.
    unsafe fn run<V: Lanes>(self) -> Self::Output;
}

/// The AVX-512 entry point: `job` compiled under `avx512f`, on 8 lanes.
///
/// # Safety
///
/// The host must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512<L: SimdLoop>(job: L) -> L::Output {
    // SAFETY: the host has AVX-512F (contract).
    unsafe { job.run::<lanes::x86::Avx512>() }
}

/// The AVX2 entry point: `job` compiled under `avx2,fma`, on 4 lanes.
///
/// # Safety
///
/// The host must have AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2<L: SimdLoop>(job: L) -> L::Output {
    // SAFETY: the host has AVX2 and FMA (contract).
    unsafe { job.run::<lanes::x86::Avx2>() }
}

/// The register-tiled rank-k update behind [`BlockedKernel::rank_update`]
/// and [`BlockedKernel::scatter_update`]: written once,
/// generic over the vector width through [`Lanes`](lanes::Lanes), and
/// instantiated per [`Isa`].
///
/// An `MR × NR` tile of `Gᵀ·G` (`MR` = two vectors of rows, `NR`
/// columns) lives in `2·NR` vector registers across all `wd` descendant
/// columns: per `k`, two row vectors of `g_k` are loaded and each of the
/// `NR` coefficients `g_k[j]` is broadcast into a fused multiply-add, so
/// every element runs `acc ← fma(g_k[j], g_k[i], acc)` from `+0.0` in
/// ascending `k`. The epilogue then adds `±acc` straight into the
/// destination: a vector load, fused multiply-add by `±1` (exact) and
/// store where the target rows are consecutive, an element-wise scatter
/// elsewhere. Row tiles run outermost, so one tile's rows of every `g_k`
/// stay in L1 across the column tiles.
mod tile {
    use super::{Lanes, SimdLoop};

    /// One rank-k update: the descendant block it reads and how its
    /// product lands in the target `dst`, column-major storage of leading
    /// dimension `ldd`.
    pub(super) struct Update<'a> {
        pub(super) dst: &'a mut [f64],
        pub(super) ldd: usize,
        /// `Some(relrows)`: the lower triangle lands at
        /// `dst[relrows[j]·ldd + relrows[i]]`
        /// ([`BlockedKernel::scatter_update`](super::BlockedKernel::scatter_update));
        /// `None`: the whole `mu × wj` rectangle at `dst[j·ldd + i]`
        /// ([`BlockedKernel::rank_update`](super::BlockedKernel::rank_update)).
        pub(super) relrows: Option<&'a [usize]>,
        pub(super) panel: &'a [f64],
        pub(super) m: usize,
        pub(super) lo: usize,
        pub(super) wj: usize,
        pub(super) wd: usize,
        /// `+1.0` to add the product, `-1.0` to subtract it.
        pub(super) sign: f64,
    }

    impl Update<'_> {
        /// Asserts every bound the tile's unchecked loads and stores rely
        /// on, once per call: the panel holds `wd·m` entries, `wj ≤ mu`,
        /// every target row is `< ldd`, and every target column fits in
        /// `dst`.
        fn check(&self) {
            let dst_len = self.dst.len();
            assert!(
                self.lo <= self.m && self.wj <= self.m - self.lo,
                "rank update: {} columns from row {} of a {}-row panel",
                self.wj,
                self.lo,
                self.m
            );
            let mu = self.m - self.lo;
            assert!(
                self.wd
                    .checked_mul(self.m)
                    .is_some_and(|len| len <= self.panel.len()),
                "rank update: {} columns of height {} in a panel of {}",
                self.wd,
                self.m,
                self.panel.len()
            );
            let col_fits = |c: usize| {
                c.checked_mul(self.ldd)
                    .and_then(|off| off.checked_add(self.ldd))
                    .is_some_and(|end| end <= dst_len)
            };
            match self.relrows {
                Some(relrows) => {
                    assert_eq!(relrows.len(), mu, "rank update: one relative row per row");
                    assert!(
                        relrows.iter().all(|&r| r < self.ldd),
                        "rank update: a relative row past the target height {}",
                        self.ldd
                    );
                    assert!(
                        relrows[..self.wj].iter().all(|&c| col_fits(c)),
                        "rank update: a target column past the end of the panel"
                    );
                }
                None => {
                    assert!(
                        mu <= self.ldd,
                        "rank update: {mu} rows in columns of {}",
                        self.ldd
                    );
                    assert!(
                        self.wj == 0 || col_fits(self.wj - 1),
                        "rank update: {} columns of {} in a buffer of {dst_len}",
                        self.wj,
                        self.ldd,
                    );
                }
            }
        }
    }

    impl SimdLoop for Update<'_> {
        type Output = ();
        const ZMM: bool = true;

        /// # Panics
        ///
        /// If the update fails its bounds checks.
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            self.check();
            let dst = self.dst.as_mut_ptr();
            // SAFETY: the host runs `V`'s level (contract), and the update
            // passed its bounds checks against `dst`, just asserted.
            unsafe { tiles::<V>(dst, &self) }
        }
    }

    /// Calls `$tile::<V, NC>` for the column count `$nc` (1 ..= `V::NR`,
    /// at most 6), so every count keeps its accumulators in registers;
    /// counts above `V::NR` are never instantiated.
    macro_rules! by_cols {
        ($nc:expr, $tile:ident::<$v:ty>( $($arg:expr),* )) => {
            match $nc {
                1 => $tile::<$v, 1>($($arg),*),
                2 => $tile::<$v, 2>($($arg),*),
                3 => $tile::<$v, 3>($($arg),*),
                4 => $tile::<$v, 4>($($arg),*),
                5 if <$v>::NR >= 5 => $tile::<$v, 5>($($arg),*),
                6 if <$v>::NR >= 6 => $tile::<$v, 6>($($arg),*),
                nc => unreachable!("a tile holds 1 to {} columns, not {nc}", <$v>::NR),
            }
        };
    }

    /// The whole update in `(2·N) × NR` tiles: row tiles outermost, and
    /// under a scatter only the column tiles that reach the lower
    /// triangle.
    ///
    /// # Safety
    ///
    /// The host must run `V`'s level and `u` must have passed
    /// [`Update::check`] against the target `dst` points at, which
    /// nothing else accesses during the call.
    #[inline(always)]
    unsafe fn tiles<V: Lanes>(dst: *mut f64, u: &Update<'_>) {
        let mu = u.m - u.lo;
        let mr = 2 * V::N;
        let mut i0 = 0;
        while i0 < mu {
            let nr = mr.min(mu - i0);
            let mut j0 = 0;
            // Under a scatter, a column tile whose first column lies below
            // every row of this row tile stores nothing.
            while j0 < u.wj && (u.relrows.is_none() || j0 < i0 + nr) {
                let nc = V::NR.min(u.wj - j0);
                // SAFETY: `i0 + nr ≤ mu` and `j0 + nc ≤ wj`, inside the
                // bounds `check` asserted (propagated contract). A full
                // tile passes its row count as a constant, so its loads
                // and stores compile without masks or tail copies.
                unsafe {
                    if nr == mr {
                        by_cols!(nc, tile::<V>(dst, u, i0, j0, mr));
                    } else {
                        by_cols!(nc, tile::<V>(dst, u, i0, j0, nr));
                    }
                }
                j0 += V::NR;
            }
            i0 += mr;
        }
    }

    /// One `nr × NC` tile at rows `i0..`, columns `j0..` (`nr ≤ 2·N`):
    /// the `wd`-term chains in registers, then the epilogue into `dst`.
    ///
    /// # Safety
    ///
    /// As for [`tiles`], with `i0 + nr ≤ mu` and `j0 + NC ≤ wj`.
    #[inline(always)]
    unsafe fn tile<V: Lanes, const NC: usize>(
        dst: *mut f64,
        u: &Update<'_>,
        i0: usize,
        j0: usize,
        nr: usize,
    ) {
        let n = V::N;
        let rows = [nr.min(n), nr.saturating_sub(n)];
        // SAFETY: every read below is `panel[k·m + lo + r]` with `k < wd`
        // and `r < mu`, which `check` bounds by `wd·m ≤ panel.len()`;
        // the second half-vector reads nothing when it has no rows.
        let acc = unsafe {
            let g = u.panel.as_ptr();
            let mut acc = [[V::splat(0.0); 2]; NC];
            for k in 0..u.wd {
                let col = g.add(k * u.m + u.lo);
                let a0 = V::load(col.add(i0), rows[0]);
                let a1 = V::load(col.wrapping_add(i0 + n), rows[1]);
                for (c, acc) in acc.iter_mut().enumerate() {
                    let b = V::splat(*col.add(j0 + c));
                    acc[0] = V::fma(b, a0, acc[0]);
                    acc[1] = V::fma(b, a1, acc[1]);
                }
            }
            acc
        };
        // SAFETY: the `splat`s need only the level (contract).
        let sign = unsafe { V::splat(u.sign) };
        let Some(relrows) = u.relrows else {
            // The whole rectangle, contiguously: a masked vector per half.
            for (c, acc) in acc.iter().enumerate() {
                for (h, (&acc, &nh)) in acc.iter().zip(&rows).enumerate() {
                    // SAFETY: column `j0 + c < wj` and rows
                    // `i0 + h·n .. + nh ≤ mu ≤ ldd`, inside `dst` by
                    // `check`; `n = 0` touches nothing.
                    unsafe {
                        let p = dst.wrapping_add((j0 + c) * u.ldd + i0 + h * n);
                        V::fma(acc, sign, V::load(p, nh)).store(p, nh);
                    }
                }
            }
            return;
        };
        // A half whose full `N` rows land on consecutive target rows is
        // one vector load, fused multiply-add and store.
        let run = [0, 1].map(|h| {
            let first = i0 + h * n;
            rows[h] == n && (1..n).all(|l| relrows[first + l] == relrows[first] + l)
        });
        for (c, acc) in acc.iter().enumerate() {
            let jj = j0 + c;
            // SAFETY: `relrows[jj]·ldd + ldd ≤ dst.len()` by `check`.
            let col = unsafe { dst.add(relrows[jj] * u.ldd) };
            for (h, (&acc, &nh)) in acc.iter().zip(&rows).enumerate() {
                let first = i0 + h * n;
                if run[h] && first >= jj {
                    // SAFETY: rows `relrows[first] .. + n` are the run's,
                    // all `< ldd` by `check`.
                    unsafe {
                        let p = col.add(relrows[first]);
                        V::fma(acc, sign, V::load(p, n)).store(p, n);
                    }
                } else {
                    // Element-wise, lower triangle only: `d ± a` rounds
                    // like the vector path's `fma(a, ±1, d)`.
                    let mut spill = [0.0f64; 8];
                    // SAFETY: `N ≤ 8` lanes into `spill`.
                    unsafe { acc.store(spill.as_mut_ptr(), n) };
                    for l in jj.saturating_sub(first)..nh {
                        // SAFETY: `relrows[first + l] < ldd` by `check`.
                        unsafe { *col.add(relrows[first + l]) += u.sign * spill[l] };
                    }
                }
            }
        }
    }
}

/// The vector operations the register tiles ([`tile`], [`gram`]) are
/// written in, and one lane type per [`Isa`] level, which also fixes the
/// level's tile shapes.
mod lanes {
    /// The four vector operations the tiles are written in, and the tile
    /// shapes of the level. `N ≤ 8`.
    pub(crate) trait Lanes: Copy {
        /// Lanes per vector.
        const N: usize;

        /// Columns of the `2·N × NR` update tile: 6 under AVX-512, 4
        /// elsewhere. At most 6.
        const NR: usize;

        /// Vectors of columns per row of the Gram tile: 2 under AVX-512
        /// (3 × 16), 1 elsewhere (3 × 4). 1 or 2.
        const NV: usize;

        /// Every lane `x`.
        ///
        /// # Safety
        ///
        /// The host must run the level this type implements.
        unsafe fn splat(x: f64) -> Self;

        /// Lanes `0..n` from `p..p + n` (`n ≤ N`); the rest zero. Reads
        /// nothing when `n = 0`.
        ///
        /// # Safety
        ///
        /// As for [`splat`](Self::splat), and `p..p + n` must be readable.
        unsafe fn load(p: *const f64, n: usize) -> Self;

        /// Stores lanes `0..n` to `p..p + n` (`n ≤ N`).
        ///
        /// # Safety
        ///
        /// As for [`splat`](Self::splat), and `p..p + n` must be writable.
        unsafe fn store(self, p: *mut f64, n: usize);

        /// `a·b + c` per lane, rounded once (exactly [`f64::mul_add`]).
        ///
        /// # Safety
        ///
        /// As for [`splat`](Self::splat).
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    }

    /// The portable level: four lanes in an array, [`f64::mul_add`] per
    /// lane.
    #[derive(Clone, Copy)]
    pub(super) struct Portable([f64; 4]);

    impl Lanes for Portable {
        const N: usize = 4;
        const NR: usize = 4;
        const NV: usize = 1;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Portable([x; 4])
        }

        #[inline(always)]
        unsafe fn load(p: *const f64, n: usize) -> Self {
            let mut v = [0.0; 4];
            // SAFETY: `p..p + n` is readable (contract), `n ≤ 4`.
            unsafe { std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), n) };
            Portable(v)
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64, n: usize) {
            // SAFETY: `p..p + n` is writable (contract), `n ≤ 4`.
            unsafe { std::ptr::copy_nonoverlapping(self.0.as_ptr(), p, n) };
        }

        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            Portable(std::array::from_fn(|l| a.0[l].mul_add(b.0[l], c.0[l])))
        }
    }

    /// The x86-64 lane types.
    #[cfg(target_arch = "x86_64")]
    pub(super) mod x86 {
        use super::Lanes;
        use std::arch::x86_64::*;

        /// Eight lanes of AVX-512F; partial vectors use masked loads and
        /// stores, which touch no memory outside their mask.
        #[derive(Clone, Copy)]
        pub(in crate::kernel) struct Avx512(__m512d);

        /// Lanes `0..n` of an AVX-512 mask.
        #[inline(always)]
        fn mask(n: usize) -> __mmask8 {
            ((1u32 << n) - 1) as __mmask8
        }

        impl Lanes for Avx512 {
            const N: usize = 8;
            const NR: usize = 6;
            const NV: usize = 2;

            #[inline(always)]
            unsafe fn splat(x: f64) -> Self {
                // SAFETY: the host has AVX-512F (contract).
                Avx512(unsafe { _mm512_set1_pd(x) })
            }

            #[inline(always)]
            unsafe fn load(p: *const f64, n: usize) -> Self {
                // SAFETY: AVX-512F is available and `p..p + n` readable
                // (contract); a masked load reads only its lanes.
                Avx512(unsafe {
                    if n == 8 {
                        _mm512_loadu_pd(p)
                    } else {
                        _mm512_maskz_loadu_pd(mask(n), p)
                    }
                })
            }

            #[inline(always)]
            unsafe fn store(self, p: *mut f64, n: usize) {
                // SAFETY: AVX-512F is available and `p..p + n` writable
                // (contract); a masked store writes only its lanes.
                unsafe {
                    if n == 8 {
                        _mm512_storeu_pd(p, self.0)
                    } else {
                        _mm512_mask_storeu_pd(p, mask(n), self.0)
                    }
                }
            }

            #[inline(always)]
            unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
                // SAFETY: the host has AVX-512F (contract).
                Avx512(unsafe { _mm512_fmadd_pd(a.0, b.0, c.0) })
            }
        }

        /// Four lanes of AVX2 with FMA; partial vectors use masked loads
        /// and stores, which touch no memory outside their mask.
        #[derive(Clone, Copy)]
        pub(in crate::kernel) struct Avx2(__m256d);

        /// Lanes `0..n` of an AVX2 lane mask (each lane's sign bit).
        ///
        /// # Safety
        ///
        /// The host must have AVX2.
        #[inline(always)]
        unsafe fn lane_mask(n: usize) -> __m256i {
            // SAFETY: the host has AVX2 (contract).
            unsafe {
                _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
            }
        }

        impl Lanes for Avx2 {
            const N: usize = 4;
            const NR: usize = 4;
            const NV: usize = 1;

            #[inline(always)]
            unsafe fn splat(x: f64) -> Self {
                // SAFETY: the host has AVX2 (contract).
                Avx2(unsafe { _mm256_set1_pd(x) })
            }

            #[inline(always)]
            unsafe fn load(p: *const f64, n: usize) -> Self {
                // SAFETY: AVX2 is available and `p..p + n` readable
                // (contract); a masked load reads only its lanes.
                Avx2(unsafe {
                    if n == 4 {
                        _mm256_loadu_pd(p)
                    } else {
                        _mm256_maskload_pd(p, lane_mask(n))
                    }
                })
            }

            #[inline(always)]
            unsafe fn store(self, p: *mut f64, n: usize) {
                // SAFETY: AVX2 is available and `p..p + n` writable
                // (contract); a masked store writes only its lanes.
                unsafe {
                    if n == 4 {
                        _mm256_storeu_pd(p, self.0)
                    } else {
                        _mm256_maskstore_pd(p, lane_mask(n), self.0)
                    }
                }
            }

            #[inline(always)]
            unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
                // SAFETY: the host has FMA (contract).
                Avx2(unsafe { _mm256_fmadd_pd(a.0, b.0, c.0) })
            }
        }
    }
}

/// The register-tiled Gram kernel behind [`gram_panel`](crate::gram_panel):
/// `out[i][k] = dot(xs[i], y_k)` for the `W` interleaved columns `y_k` of a
/// panel, written once over [`Lanes`](lanes::Lanes) and instantiated per
/// [`Isa`].
///
/// [`dot`](crate::dot) sums entry `r` of its vectors into lane `r mod 4`,
/// one fused multiply-add chain per lane from `+0.0`, then adds the scalar
/// tail past the last whole quad and closes the tree
/// `((s0 + s1) + (s2 + s3)) + tail`. The tile keeps exactly those chains:
/// a tile of `ROWS` vectors `xs[i]` and `C = NV·N` panel columns holds the
/// four lane sums of each of its entries in `4·ROWS·NV` vector registers,
/// and per panel row one load of its `C` columns serves every vector of
/// the tile through a broadcast fused multiply-add. The quads run in
/// k-blocks of `K_BLOCK` entries, a multiple of four, so a block never
/// splits a quad and the panel's chunk stays in L1 while every row tile
/// passes over it. Between blocks the lane sums are parked in a
/// `rows × 4 × W` scratch; storing and reloading an `f64` is exact.
mod gram {
    use super::{Lanes, SimdLoop};

    /// Entries per k-block: a multiple of four, and 32 KiB of a 16-column
    /// panel.
    pub(super) const K_BLOCK: usize = 256;

    /// Vectors `xs[i]` per tile at every level: three rows of sums (twice
    /// the columns of one row under AVX-512, three times under AVX2) ran
    /// faster than the two-row and one-row tiles they were measured
    /// against.
    const ROWS: usize = 3;

    /// The four lane sums of one output row, `[lane][column]`.
    type LaneSums<const W: usize> = [[f64; W]; 4];

    /// `out[i][k] = dot(xs[i], y_k)` for every vector `xs[i]` and column
    /// `y_k` of the panel `ys`.
    pub(super) struct Gram<'a, const W: usize> {
        pub(super) xs: &'a [&'a [f64]],
        pub(super) ys: &'a [[f64; W]],
        pub(super) out: &'a mut [[f64; W]],
    }

    impl<const W: usize> SimdLoop for Gram<'_, W> {
        type Output = ();
        const ZMM: bool = true;

        /// # Panics
        ///
        /// If `out` and `xs` differ in length, or a vector's length is not
        /// the panel's.
        #[inline(always)]
        unsafe fn run<V: Lanes>(self) {
            let Gram { xs, ys, out } = self;
            assert_eq!(out.len(), xs.len(), "gram panel: one output row per vector");
            assert!(
                xs.iter().all(|x| x.len() == ys.len()),
                "gram panel: length mismatch"
            );
            // SAFETY: the host runs `V`'s level (contract) and the shapes
            // were just asserted.
            unsafe {
                match V::NV {
                    1 => panel::<V, 1, W>(xs, ys, out),
                    2 => panel::<V, 2, W>(xs, ys, out),
                    nv => unreachable!("a Gram tile row holds 1 or 2 vectors, not {nv}"),
                }
            }
        }
    }

    /// Calls `$tile::<V, rows, NV, W>` for the row count `$nr` (1 ..=
    /// [`ROWS`]), so every count keeps its sums in registers.
    macro_rules! by_rows {
        ($nr:expr, $tile:ident::<$v:ty, $nv:ident, $w:ident>( $($arg:expr),* )) => {
            match $nr {
                1 => $tile::<$v, 1, $nv, $w>($($arg),*),
                2 => $tile::<$v, 2, $nv, $w>($($arg),*),
                3 => $tile::<$v, 3, $nv, $w>($($arg),*),
                nr => unreachable!("a tile holds 1 to {ROWS} rows, not {nr}"),
            }
        };
    }

    /// The whole product on `ROWS × (NV·N)` tiles, k-blocks outermost, then
    /// the tails and `dot`'s reduction tree.
    ///
    /// # Safety
    ///
    /// The host must run `V`'s level, and every `xs[i]` must hold
    /// `ys.len()` entries; `out` must hold `xs.len()` rows.
    #[inline(always)]
    unsafe fn panel<V: Lanes, const NV: usize, const W: usize>(
        xs: &[&[f64]],
        ys: &[[f64; W]],
        out: &mut [[f64; W]],
    ) {
        let quads = ys.len() / 4 * 4;
        let mut sums: Vec<LaneSums<W>> = vec![[[0.0; W]; 4]; xs.len()];
        let cw = NV * V::N;
        for k0 in (0..quads).step_by(K_BLOCK) {
            let k1 = (k0 + K_BLOCK).min(quads);
            for c0 in (0..W).step_by(cw) {
                let nc = cw.min(W - c0);
                for i0 in (0..xs.len()).step_by(ROWS) {
                    let nr = ROWS.min(xs.len() - i0);
                    let sums = &mut sums[i0..i0 + nr];
                    // SAFETY: rows `i0..i0 + nr`, columns `c0..c0 + nc ≤ W`
                    // and entries `k0..k1 ≤ quads ≤ ys.len()` are in bounds
                    // (propagated contract). A full-width tile passes its
                    // column count as a constant, so its loads and stores
                    // compile without masks.
                    unsafe {
                        if nc == cw {
                            by_rows!(nr, tile::<V, NV, W>(&xs[i0..], ys, sums, c0, cw, k0, k1));
                        } else {
                            by_rows!(nr, tile::<V, NV, W>(&xs[i0..], ys, sums, c0, nc, k0, k1));
                        }
                    }
                }
            }
        }
        for ((o, s), x) in out.iter_mut().zip(&sums).zip(xs) {
            let mut tail = [0.0f64; W];
            for (xr, yr) in x[quads..].iter().zip(&ys[quads..]) {
                for k in 0..W {
                    tail[k] = xr.mul_add(yr[k], tail[k]);
                }
            }
            for k in 0..W {
                o[k] = ((s[0][k] + s[1][k]) + (s[2][k] + s[3][k])) + tail[k];
            }
        }
    }

    /// One tile of `R` vectors from `xs[0]` and `nc ≤ NV·N` columns from
    /// `c0` over the quads of `k0..k1`: the lane sums come out of `sums`,
    /// take the block's fused multiply-adds in registers, and go back.
    ///
    /// # Safety
    ///
    /// As for [`panel`], with `R ≤ xs.len()`, `R ≤ sums.len()`,
    /// `c0 + nc ≤ W`, `k1 ≤ ys.len()` and `k1 - k0` a multiple of four.
    #[inline(always)]
    unsafe fn tile<V: Lanes, const R: usize, const NV: usize, const W: usize>(
        xs: &[&[f64]],
        ys: &[[f64; W]],
        sums: &mut [LaneSums<W>],
        c0: usize,
        nc: usize,
        k0: usize,
        k1: usize,
    ) {
        let n = V::N;
        let mut cols = [0; NV];
        for (v, c) in cols.iter_mut().enumerate() {
            *c = nc.saturating_sub(v * n).min(n);
        }
        let mut x = [std::ptr::null::<f64>(); R];
        for (x, xs) in x.iter_mut().zip(xs) {
            *x = xs.as_ptr();
        }
        let y = ys.as_ptr().cast::<f64>();
        // SAFETY: the sums and panel rows are read and written at columns
        // `c0 + v·n ..` for `cols[v]` lanes, all `< c0 + nc ≤ W`, and a
        // vector with no columns touches nothing; the vectors are read at
        // entries `< k1 ≤ ys.len()`, their length (contract).
        unsafe {
            let mut acc = [[[V::splat(0.0); NV]; 4]; R];
            for (acc, s) in acc.iter_mut().zip(sums.iter()) {
                for (acc, s) in acc.iter_mut().zip(s) {
                    for (v, acc) in acc.iter_mut().enumerate() {
                        *acc = V::load(s.as_ptr().wrapping_add(c0 + v * n), cols[v]);
                    }
                }
            }
            for q in 0..(k1 - k0) / 4 {
                let k = k0 + 4 * q;
                for lane in 0..4 {
                    let row = y.add((k + lane) * W).wrapping_add(c0);
                    let mut yv = [V::splat(0.0); NV];
                    for (v, yv) in yv.iter_mut().enumerate() {
                        *yv = V::load(row.wrapping_add(v * n), cols[v]);
                    }
                    for (acc, &x) in acc.iter_mut().zip(&x) {
                        let b = V::splat(*x.add(k + lane));
                        for (acc, &yv) in acc[lane].iter_mut().zip(&yv) {
                            *acc = V::fma(b, yv, *acc);
                        }
                    }
                }
            }
            for (acc, s) in acc.iter().zip(sums.iter_mut()) {
                for (acc, s) in acc.iter().zip(s) {
                    for (v, acc) in acc.iter().enumerate() {
                        acc.store(s.as_mut_ptr().wrapping_add(c0 + v * n), cols[v]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random panel (no external RNG in the test
    /// sandbox): wd columns of height m, column-major.
    fn test_panel(m: usize, wd: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..m * wd)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn default_choice_is_blocked() {
        assert_eq!(KernelChoice::default(), KernelChoice::Blocked);
        assert_eq!(KernelChoice::Blocked.resolved_name(), "blocked");
    }

    /// The first `w` columns of the SPD-ish `G·Gᵀ + (m+1)·I`, height `m`.
    fn spd_panel(m: usize, w: usize) -> Vec<f64> {
        let g = test_panel(m, m, (m + w) as u64);
        let mut base = vec![0.0f64; w * m];
        for j in 0..w {
            for i in 0..m {
                let mut v = 0.0;
                for k in 0..m {
                    v += g[k * m + i] * g[k * m + j];
                }
                if i == j {
                    v += (m + 1) as f64;
                }
                base[j * m + i] = v;
            }
        }
        base
    }

    /// Asserts that `f` returns the same bits at every level this host runs
    /// as at [`Isa::Portable`].
    fn same_bits_at_every_level(label: &str, f: impl Fn(Isa) -> Vec<f64>) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let want = bits(f(Isa::Portable));
        for isa in Isa::available() {
            assert_eq!(bits(f(isa)), want, "{label} at {isa:?}");
        }
    }

    /// `dot_block::<NB>` at every level.
    fn dot_block_at_every_level<const NB: usize>(x: &[f64]) {
        let flat = test_panel(NB, x.len() + 1, 5);
        let ys = &flat.as_chunks::<NB>().0[..x.len()];
        same_bits_at_every_level(&format!("dot_block::<{NB}> len {}", x.len()), |isa| {
            isa.run(DotBlock(x, ys)).to_vec()
        });
    }

    /// The Gram tile at width `W` at every level, over seven vectors (two
    /// full tiles of three and one short one) of `n` entries.
    fn gram_at_every_level<const W: usize>(n: usize) {
        let flat = test_panel(W, n + 1, 7);
        let ys = &flat.as_chunks::<W>().0[..n];
        let data = test_panel(n + 1, 7, 9);
        let xs: Vec<&[f64]> = data.chunks_exact(n + 1).map(|x| &x[..n]).collect();
        same_bits_at_every_level(&format!("gram W {W} n {n}"), |isa| {
            let mut out = vec![[0.0; W]; xs.len()];
            BlockedKernel.gram_panel_at(isa, &xs, ys, &mut out);
            out.concat()
        });
    }

    /// The panel SpMV at width `W` at every level.
    fn spmv_panel_at_every_level<const W: usize>(a: &crate::CsrMatrix) {
        let flat = test_panel(W, a.ncols(), 13);
        let x = flat.as_chunks::<W>().0;
        same_bits_at_every_level(&format!("spmv_panel W {W}"), |isa| {
            let mut y = vec![[0.0; W]; a.nrows()];
            isa.run(crate::sparse::PanelSpmv(a, x, &mut y));
            y.concat()
        });
    }

    /// Every loop the ladder dispatches, at every level this host runs,
    /// against the portable level bit for bit — the unrolled loops'
    /// compile without hardware FMA included.
    #[test]
    fn every_loop_is_bitwise_portable_at_every_level() {
        for len in [0usize, 1, 3, 4, 7, 8, 31, 64, 129] {
            let x = test_panel(len + 1, 1, 11)[..len].to_vec();
            let y = test_panel(len + 1, 1, 23)[..len].to_vec();
            same_bits_at_every_level(&format!("dot len {len}"), |isa| vec![isa.run(Dot(&x, &y))]);
            same_bits_at_every_level(&format!("axpy len {len}"), |isa| {
                let mut z = y.clone();
                isa.run(Axpy(0.37, &x, &mut z));
                z
            });
            dot_block_at_every_level::<1>(&x);
            dot_block_at_every_level::<2>(&x);
            dot_block_at_every_level::<3>(&x);
            dot_block_at_every_level::<4>(&x);
            dot_block_at_every_level::<5>(&x);
            dot_block_at_every_level::<6>(&x);
            dot_block_at_every_level::<7>(&x);
            dot_block_at_every_level::<8>(&x);
        }

        for (m, w) in [(1usize, 1usize), (6, 3), (13, 5), (40, 32), (45, 9)] {
            let base = spd_panel(m, w);
            same_bits_at_every_level(&format!("factor_panel m{m} w{w}"), |isa| {
                let mut panel = base.clone();
                isa.run(FactorPanel(&mut panel, m, w)).expect("SPD panel");
                panel
            });
            let mut factor = base.clone();
            BlockedKernel
                .factor_panel(&mut factor, m, w)
                .expect("SPD panel");
            let factor = &factor;
            for nrhs in 1..=8 {
                let label = |step: &str| format!("{step} m{m} w{w} nrhs{nrhs}");
                let rhs = test_panel(w, nrhs, 97);
                let xb = test_panel(m - w + 1, nrhs, 3)[..(m - w) * nrhs].to_vec();
                same_bits_at_every_level(&label("solve_lower"), |isa| {
                    let mut x = rhs.clone();
                    isa.run(SolveLower(factor, m, w, &mut x, nrhs));
                    x
                });
                same_bits_at_every_level(&label("below_accumulate"), |isa| {
                    let mut acc = vec![1.0; (m - w) * nrhs];
                    isa.run(BelowAccumulate(factor, m, w, &rhs, &mut acc, nrhs));
                    acc
                });
                same_bits_at_every_level(&label("solve_lower_transpose"), |isa| {
                    let mut x = rhs.clone();
                    isa.run(SolveLowerTranspose(factor, m, w, &mut x, &xb, nrhs));
                    x
                });
            }
        }

        for (m, lo, wj, wd) in [
            (1usize, 0usize, 1usize, 1usize),
            (9, 2, 3, 3),
            (23, 6, 7, 6),
            (40, 8, 17, 32),
            (50, 3, 20, 9),
        ] {
            let panel = test_panel(m, wd, (m * 31 + wd) as u64);
            let mu = m - lo;
            // Runs of five consecutive target rows, then a gap.
            let relrows: Vec<usize> = (0..mu).map(|i| i + i / 5).collect();
            let ldd = mu + mu / 5;
            same_bits_at_every_level(&format!("rank_update m{m} wj{wj} wd{wd}"), |isa| {
                let mut update = vec![0.1; wj * mu];
                BlockedKernel.rank_update_at(isa, &mut update, &panel, m, lo, wj, wd);
                update
            });
            same_bits_at_every_level(&format!("scatter_update m{m} wj{wj} wd{wd}"), |isa| {
                let mut dst = test_panel(ldd, ldd, 17);
                BlockedKernel
                    .scatter_update_at(isa, &mut dst, ldd, &relrows, &panel, m, lo, wj, wd, true);
                dst
            });
        }

        for n in [0usize, 3, 301, 700] {
            gram_at_every_level::<1>(n);
            gram_at_every_level::<5>(n);
            gram_at_every_level::<16>(n);
        }

        let a = crate::test_operators::laplacian_2d(7, 9);
        spmv_panel_at_every_level::<1>(&a);
        spmv_panel_at_every_level::<4>(&a);
        spmv_panel_at_every_level::<8>(&a);
        spmv_panel_at_every_level::<16>(&a);
    }

    #[test]
    fn non_spd_panel_reports_local_column() {
        let mut panel = vec![0.0f64; 3 * 3];
        panel[0] = 4.0;
        panel[4] = -1.0; // column 1 diagonal goes non-positive
        panel[8] = 1.0;
        let err = BlockedKernel
            .factor_panel(&mut panel, 3, 3)
            .expect_err("indefinite");
        assert_eq!(err.0, 1, "local column index");
    }
}
