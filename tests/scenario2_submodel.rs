//! End-to-end scenario 2 (sub-modeled array in a chiplet): the ROM follows
//! the coarse boundary data everywhere, while superposition collapses where
//! the background stress varies sharply — the qualitative content of the
//! paper's Table 2.

use std::sync::Arc;

use more_stress::prelude::*;

struct Scenario2 {
    geom: TsvGeometry,
    res: BlockResolution,
    mats: MaterialSet,
    chiplet: Arc<ChipletModel>,
    layout: BlockLayout,
    array_size: f64,
    locations: [[f64; 2]; 5],
}

fn setup() -> Scenario2 {
    let geom = TsvGeometry::paper_defaults(15.0);
    let res = BlockResolution::coarse();
    let mats = MaterialSet::tsv_defaults();
    let chiplet_geom = ChipletGeometry::bench_defaults();
    let chiplet = Arc::new(
        ChipletModel::solve(&chiplet_geom, &ChipletResolution::coarse(), &mats, -250.0)
            .expect("chiplet solves"),
    );
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1);
    let array_size = geom.pitch * layout.nx() as f64;
    let locations = standard_locations(&chiplet_geom, array_size);
    Scenario2 {
        geom,
        res,
        mats,
        chiplet,
        layout,
        array_size,
        locations,
    }
}

fn reference_at(s: &Scenario2, sub: &Submodel, g: usize) -> ScalarField2d {
    let mesh = array_mesh(&s.geom, &s.res, &s.layout);
    let mut bcs = DirichletBcs::new();
    let bc_fn = sub.boundary_displacement(&s.chiplet);
    for &n in &mesh.boundary_box_nodes() {
        bcs.set_node(n, bc_fn(mesh.nodes()[n]));
    }
    let fem = solve_thermal_stress(&mesh, &s.mats, -250.0, &bcs, LinearSolver::Auto)
        .expect("submodel reference");
    let grid = PlaneGrid::new(
        [0.0, 0.0],
        [s.array_size, s.array_size],
        0.5 * s.geom.height,
        g * s.layout.nx(),
        g * s.layout.ny(),
    );
    sample_von_mises(&mesh, &s.mats, &fem.displacement, -250.0, &grid).expect("sampling")
}

#[test]
fn rom_handles_sharp_background_better_than_superposition() {
    let s = setup();
    let g = 8;
    // loc5 = interposer corner: the hardest background for superposition.
    let sub = Submodel::new(&s.chiplet, s.locations[4], s.array_size);
    let reference = reference_at(&s, &sub, g);

    let sim = MoreStressSimulator::builder(&s.geom)
        .resolution(s.res)
        .interpolation([4, 4, 4])
        .materials(s.mats.clone())
        .build_dummy(true)
        .build()
        .expect("simulator");
    let bc = GlobalBc::SubmodelBoundary(sub.boundary_displacement(&s.chiplet));
    let sol = sim.solve_array(&s.layout, -250.0, &bc).expect("rom solve");
    let rom_field = sim
        .sample_midplane(&s.layout, &sol, -250.0, g)
        .expect("sampling");
    let rom_err = normalized_mae(&rom_field, &reference);

    let superpos = SuperpositionSolver::build(&s.geom, &s.res, &s.mats).expect("kernel");
    let bg = sub.background_stress(&s.chiplet);
    let ls_field = superpos.evaluate_array_with_background(&s.layout, -250.0, g, |p| bg(p));
    let ls_err = normalized_mae(&ls_field, &reference);

    println!(
        "loc5: ROM {:.2}%, LS {:.2}%",
        rom_err * 100.0,
        ls_err * 100.0
    );
    assert!(
        rom_err * 2.0 < ls_err,
        "ROM ({rom_err}) must be at least 2x more accurate than superposition ({ls_err}) at loc5"
    );
}

#[test]
fn rom_submodel_error_converges_with_interpolation_order() {
    // Guards against systematic sub-modeling bugs: the only error source is
    // the boundary interpolation, so refining the interpolation grid must
    // shrink the error toward zero.
    let s = setup();
    let g = 8;
    let sub = Submodel::new(&s.chiplet, s.locations[2], s.array_size); // die corner
    let reference = reference_at(&s, &sub, g);
    let mut errors = Vec::new();
    for m in [3usize, 6] {
        let sim = MoreStressSimulator::builder(&s.geom)
            .resolution(s.res)
            .interpolation([m, m, m])
            .materials(s.mats.clone())
            .build_dummy(true)
            .build()
            .expect("simulator");
        let bc = GlobalBc::SubmodelBoundary(sub.boundary_displacement(&s.chiplet));
        let sol = sim.solve_array(&s.layout, -250.0, &bc).expect("rom solve");
        let field = sim
            .sample_midplane(&s.layout, &sol, -250.0, g)
            .expect("sampling");
        errors.push(normalized_mae(&field, &reference));
    }
    println!(
        "loc3 convergence: (3,3,3) {:.3}% -> (6,6,6) {:.3}%",
        errors[0] * 100.0,
        errors[1] * 100.0
    );
    assert!(
        errors[1] < 0.5 * errors[0],
        "error must at least halve from (3,3,3) ({}) to (6,6,6) ({})",
        errors[0],
        errors[1]
    );
    assert!(
        errors[1] < 0.03,
        "(6,6,6) sub-model error {} < 3%",
        errors[1]
    );
}

#[test]
fn dummy_padding_moves_boundary_error_away_from_the_core() {
    // §4.4: the sub-model boundary must be far enough from the part of
    // interest; dummy blocks provide that distance. Truth: the fine solve on
    // the padded box. Applying the coarse boundary data directly on the
    // un-padded core box (boundary adjacent to the TSVs) must hurt the core
    // region more than solving with a dummy ring does — the coarse model
    // knows nothing about the via-induced displacement wiggles it clamps.
    let s = setup();
    let g = 8;
    let core = BlockLayout::uniform(2, 2, BlockKind::Tsv);
    let padded = core.padded(1);
    let p = s.geom.pitch;

    // Place the padded box at loc1; the core box sits one pitch inside it.
    let padded_origin = s.locations[0];
    let core_origin = [padded_origin[0] + p, padded_origin[1] + p];
    let padded_size = p * padded.nx() as f64;
    let core_size = p * core.nx() as f64;

    let solve_fine = |layout: &BlockLayout, origin: [f64; 2], size: f64| -> ScalarField2d {
        let sub = Submodel::new(&s.chiplet, origin, size);
        let mesh = array_mesh(&s.geom, &s.res, layout);
        let mut bcs = DirichletBcs::new();
        let bc_fn = sub.boundary_displacement(&s.chiplet);
        for &n in &mesh.boundary_box_nodes() {
            bcs.set_node(n, bc_fn(mesh.nodes()[n]));
        }
        let fem = solve_thermal_stress(&mesh, &s.mats, -250.0, &bcs, LinearSolver::Auto)
            .expect("fine solve");
        let grid = PlaneGrid::new(
            [0.0, 0.0],
            [size, size],
            0.5 * s.geom.height,
            g * layout.nx(),
            g * layout.ny(),
        );
        sample_von_mises(&mesh, &s.mats, &fem.displacement, -250.0, &grid).expect("sampling")
    };

    let truth = solve_fine(&padded, padded_origin, padded_size);
    let near = solve_fine(&core, core_origin, core_size);

    // Same physical sample points: the padded field's interior window.
    let truth_core = truth.subregion(g, g, 2 * g, 2 * g);
    let mae = |a: &ScalarField2d, b: &ScalarField2d| -> f64 {
        let m: f64 = a
            .values
            .iter()
            .zip(&b.values)
            .map(|(x, y)| (x - y).abs())
            .sum::<f64>()
            / a.values.len() as f64;
        m / b.max()
    };
    let err_near = mae(&near, &truth_core);

    // ROM on the padded box: boundary one ring away from the core.
    let sim = MoreStressSimulator::builder(&s.geom)
        .resolution(s.res)
        .interpolation([4, 4, 4])
        .materials(s.mats.clone())
        .build_dummy(true)
        .build()
        .expect("simulator");
    let sub = Submodel::new(&s.chiplet, padded_origin, padded_size);
    let bc = GlobalBc::SubmodelBoundary(sub.boundary_displacement(&s.chiplet));
    let sol = sim.solve_array(&padded, -250.0, &bc).expect("rom solve");
    let rom_field = sim
        .sample_midplane(&padded, &sol, -250.0, g)
        .expect("sampling");
    let err_far = mae(&rom_field.subregion(g, g, 2 * g, 2 * g), &truth_core);

    println!(
        "core error: coarse BC adjacent to TSVs {:.3}%, ROM behind a dummy ring {:.3}%",
        err_near * 100.0,
        err_far * 100.0
    );
    assert!(
        err_far < err_near,
        "padding + ROM ({err_far}) should beat un-padded coarse clamping ({err_near})"
    );
}

#[test]
fn submodel_closures_on_one_layout_never_share_a_lifting_term() {
    // A sub-model boundary closure's lifting term `−A_fb u_b` needs the
    // elements, so such solves keep assembling even on a simulator whose
    // cache already holds their reduced operator. That operator depends
    // only on which DoFs are fixed, never on the closure's values, so they
    // share one factor under one key. Two closures with different
    // prescribed values must each get their own answer.
    let geom = TsvGeometry::paper_defaults(15.0);
    let build = || {
        MoreStressSimulator::builder(&geom)
            .solver(LinearSolver::DirectCholesky)
            .build_dummy(true)
            .build()
            .expect("simulator")
    };
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1);
    let stretch = GlobalBc::SubmodelBoundary(Arc::new(|p| [1e-3 * p[0], 0.0, 0.0]));
    let shear = GlobalBc::SubmodelBoundary(Arc::new(|p| [0.0, 2e-3 * p[2], -1e-3 * p[1]]));

    let sim = build();
    let mut solved = Vec::new();
    for bc in [&stretch, &shear, &stretch] {
        let sol = sim.solve_array(&layout, -250.0, bc).expect("rom solve");
        assert!(!sol.stats.operator_reused, "closure BCs always assemble");
        solved.push(sol);
    }
    // One key (layout, ROMs, sub-model kind): one factorization.
    assert_eq!(sim.factor_cache().misses(), 1);
    assert_eq!(sim.factor_cache().hits(), 2);
    assert_ne!(
        solved[0].nodal_displacement(),
        solved[1].nodal_displacement(),
        "different boundary data, different fields"
    );
    for (sol, bc) in solved.iter().zip([&stretch, &shear, &stretch]) {
        let fresh = build()
            .solve_array(&layout, -250.0, bc)
            .expect("fresh solve");
        assert_eq!(sol.nodal_displacement(), fresh.nodal_displacement());
    }
}
