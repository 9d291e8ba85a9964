//! Keep-out-zone placement sweep on the incremental re-factorization
//! path: starting from a full TSV array, each candidate move swaps a 2×2
//! block patch to dummy silicon and re-solves with
//! [`MoreStressSimulator::resolve_perturbed`]. A swap is value-only (the
//! lattice pattern depends only on the array shape), so the hoisted
//! sharded backend re-factors just the shards the patch touches — each in
//! one bordered partial factorization that yields its interior factor and
//! its interface clique together — reuses every other shard's factor and
//! stored clique, and rebuilds only the small interface system: the
//! per-move economics a placement or optimization loop actually pays. The
//! incremental answer is bitwise identical to a from-scratch solve of the
//! same layout.
//!
//! Run with:
//! ```sh
//! cargo run --release --example placement_sweep [array_size] [shards]
//! ```

use more_stress::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let size: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(8);
    let shards: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4);
    let delta_t = -250.0;
    let bc = GlobalBc::ClampedTopBottom;
    let samples = 10;

    let geom = TsvGeometry::paper_defaults(15.0);
    let sim = MoreStressSimulator::builder(&geom)
        .interpolation([4, 4, 4])
        .shards(shards)
        .build_dummy(true)
        .build()?;
    println!(
        "one-shot: TSV + dummy ROMs in {:.2?}",
        sim.tsv_model().local_stats.build_time
    );

    // Baseline: the full TSV array, solved cold (full sharded prepare).
    let base = BlockLayout::uniform(size, size, BlockKind::Tsv);
    let t0 = std::time::Instant::now();
    let cold = sim.solve_array(&base, delta_t, &bc)?;
    let cold_time = t0.elapsed();
    let field = sim.sample_midplane(&base, &cold, delta_t, samples)?;
    println!(
        "baseline {size}x{size}: cold solve {cold_time:.2?} ({} shards, {} interface DoFs), peak von Mises {:.0} MPa",
        cold.stats.shards, cold.stats.interface_dofs, field.max()
    );

    // Sweep 2×2 keep-out patches along the diagonal: each move is one
    // incremental re-solve through the same simulator.
    println!(
        "\n{:>10} | {:>12} | {:>11} | {:>14}",
        "keep-out", "re-solve", "refactored", "peak von Mises"
    );
    for corner in 0..size.saturating_sub(1) {
        let mut layout = base.clone();
        for di in 0..2 {
            for dj in 0..2 {
                layout.set_kind(corner + di, corner + dj, BlockKind::Dummy);
            }
        }
        let t0 = std::time::Instant::now();
        let solution = sim.resolve_perturbed(&layout, delta_t, &bc)?;
        let move_time = t0.elapsed();
        let field = sim.sample_midplane(&layout, &solution, delta_t, samples)?;
        println!(
            "  ({corner},{corner}) 2x2 | {move_time:>12.2?} | {:>5} of {:>2} | {:>10.0} MPa",
            solution.stats.shards_refactored,
            solution.stats.shards,
            field.max()
        );
    }
    println!(
        "\nEach move re-factored only the shards its patch touches; every other\n\
         shard factor and clique was reused, and the result is bitwise identical\n\
         to a from-scratch solve of the same layout."
    );
    Ok(())
}
