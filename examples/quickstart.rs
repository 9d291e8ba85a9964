//! Quickstart: build the one-shot reduced-order model for the paper's TSV,
//! then solve arrays of several sizes under the fabrication thermal load and
//! print the peak mid-plane von Mises stress of each.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use more_stress::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The TSV of §5.2: d = 5 µm, h = 50 µm, t = 0.5 µm, pitch 15 µm.
    let geom = TsvGeometry::paper_defaults(15.0);
    let delta_t = -250.0; // anneal at 275 °C → room temperature 25 °C

    println!("== MORE-Stress quickstart ==");
    println!(
        "TSV: d = {} µm, h = {} µm, liner = {} µm, pitch = {} µm, ΔT = {delta_t} °C",
        geom.diameter, geom.height, geom.liner, geom.pitch
    );

    // One-shot local stage (performed once per geometry/material set).
    let sim = MoreStressSimulator::builder(&geom)
        .resolution(BlockResolution::medium())
        .interpolation([4, 4, 4])
        .build()?;
    let stats = &sim.tsv_model().local_stats;
    println!(
        "local stage: {} fine DoFs -> {} element DoFs in {:.2?}",
        stats.fine_dofs, stats.num_basis, stats.build_time
    );

    // Global stage: arrays of any size reuse the same model.
    for size in [5usize, 10, 20] {
        let layout = BlockLayout::uniform(size, size, BlockKind::Tsv);
        let solution = sim.solve_array(&layout, delta_t, &GlobalBc::ClampedTopBottom)?;
        let field = sim.sample_midplane(&layout, &solution, delta_t, 20)?;
        println!(
            "{size:>2}x{size:<2} array: global stage {:>8.2?} ({} DoFs, {} GMRES iters), \
             peak von Mises = {:.0} MPa",
            solution.stats.wall_time,
            solution.stats.total_dofs,
            solution.stats.iterations.unwrap_or(0),
            field.max()
        );
    }
    Ok(())
}
