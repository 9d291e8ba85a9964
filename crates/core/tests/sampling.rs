//! The mid-plane sampling plan against the route it replaced, plus the
//! physical invariants the sampled field must keep.
//!
//! The oracle here is the pre-plan implementation, kept test-only: per block
//! the full Eq. 15 displacement (`reconstruct_displacement`), per point
//! `stress_at` — element location, `B`, `D` and the thermal strain re-derived
//! every time. The plan (`core/src/reconstruct.rs`) must reproduce it to
//! rounding on every layout shape, sample density and boundary condition.

use std::sync::{Arc, OnceLock};

use morestress_core::{
    sample_array_von_mises, GlobalBc, GlobalSolution, GlobalStage, InterpolationGrid, LocalStage,
    LocalStageOptions, ReducedOrderModel, RomError,
};
use morestress_fem::{stress_at, MaterialSet, PlaneGrid, ScalarField2d};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

const DELTA_T: f64 = -250.0;

/// The coarse TSV and dummy ROMs every test shares.
fn roms() -> &'static (ReducedOrderModel, ReducedOrderModel) {
    static ROMS: OnceLock<(ReducedOrderModel, ReducedOrderModel)> = OnceLock::new();
    ROMS.get_or_init(|| {
        let build = |kind| {
            LocalStage::new(
                &TsvGeometry::paper_defaults(15.0),
                &BlockResolution::coarse(),
                InterpolationGrid::new([3, 3, 3]),
                &MaterialSet::tsv_defaults(),
                kind,
            )
            .build(&LocalStageOptions::default())
            .expect("local stage builds")
        };
        (build(BlockKind::Tsv), build(BlockKind::Dummy))
    })
}

fn solve(layout: &BlockLayout, delta_t: f64, bc: &GlobalBc) -> GlobalSolution {
    let (tsv, dummy) = roms();
    GlobalStage::new(tsv)
        .with_dummy(dummy)
        .expect("compatible ROMs")
        .solve(layout, delta_t, bc)
        .expect("global solve")
}

fn sample(
    layout: &BlockLayout,
    solution: &GlobalSolution,
    delta_t: f64,
    g: usize,
) -> ScalarField2d {
    let (tsv, dummy) = roms();
    sample_array_von_mises(tsv, Some(dummy), layout, solution, delta_t, g).expect("sampling")
}

/// The parent commit's sampling route, local points included: each block
/// derives them from its own global samples (`point − block origin`), where
/// the plan reuses block (0, 0)'s — an ulp of the coordinate apart.
fn oracle(
    layout: &BlockLayout,
    solution: &GlobalSolution,
    delta_t: f64,
    g: usize,
) -> ScalarField2d {
    let (tsv, dummy) = roms();
    let geom = tsv.geometry();
    let p = geom.pitch;
    let grid = PlaneGrid::new(
        [0.0, 0.0],
        [p * layout.nx() as f64, p * layout.ny() as f64],
        0.5 * geom.height,
        g * layout.nx(),
        g * layout.ny(),
    );
    let mut values = vec![f64::NAN; grid.num_points()];
    for bj in 0..layout.ny() {
        for bi in 0..layout.nx() {
            let rom = match layout.kind(bi, bj) {
                BlockKind::Tsv => tsv,
                BlockKind::Dummy => dummy,
            };
            let u = rom.reconstruct_displacement(&solution.element_dofs(bi, bj), delta_t);
            for jj in 0..g {
                for ii in 0..g {
                    let (gi, gj) = (bi * g + ii, bj * g + jj);
                    let pt = grid.point(gi, gj);
                    let local = [pt[0] - bi as f64 * p, pt[1] - bj as f64 * p, pt[2]];
                    let s = stress_at(rom.mesh(), rom.materials(), &u, delta_t, local)
                        .expect("registered materials");
                    values[gj * grid.samples[0] + gi] = s.map_or(f64::NAN, |s| s.von_mises);
                }
            }
        }
    }
    ScalarField2d { grid, values }
}

/// `a` and `b` agree to `tol` of `b`'s peak, with `NaN`s in the same places.
fn assert_fields_agree(label: &str, a: &ScalarField2d, b: &ScalarField2d, tol: f64) {
    assert_eq!(a.grid, b.grid, "{label}: grids");
    let peak = b.max();
    assert!(peak > 0.0, "{label}: the reference field is not trivial");
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        assert_eq!(x.is_nan(), y.is_nan(), "{label}: NaN position {i}");
        assert!(
            x.is_nan() || (x - y).abs() <= tol * peak,
            "{label}: sample {i}: {x} vs {y} (peak {peak})"
        );
    }
}

/// A TSV array, a hybrid array with a dummy ring, and a TSV array with an
/// interior dummy patch (mirror-symmetric in x and y).
fn layouts() -> Vec<(&'static str, BlockLayout)> {
    let mut patched = BlockLayout::uniform(4, 3, BlockKind::Tsv);
    patched.set_kind(1, 1, BlockKind::Dummy);
    patched.set_kind(2, 1, BlockKind::Dummy);
    vec![
        ("tsv 3x2", BlockLayout::uniform(3, 2, BlockKind::Tsv)),
        (
            "2x2 + dummy ring",
            BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1),
        ),
        ("4x3 with a dummy patch", patched),
    ]
}

#[test]
fn plan_matches_the_per_point_oracle() {
    let submodel = GlobalBc::SubmodelBoundary(Arc::new(|p: [f64; 3]| {
        [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)]
    }));
    for (name, layout) in layouts() {
        for (bc_name, bc) in [
            ("clamped", &GlobalBc::ClampedTopBottom),
            ("submodel", &submodel),
        ] {
            let solution = solve(&layout, DELTA_T, bc);
            for g in [1, 4, 7, 20] {
                let label = format!("{name}, {bc_name}, g = {g}");
                let field = sample(&layout, &solution, DELTA_T, g);
                assert_eq!(field.values.len(), g * g * layout.nx() * layout.ny());
                assert!(field.values.iter().all(|v| v.is_finite()), "{label}");
                let reference = oracle(&layout, &solution, DELTA_T, g);
                assert_fields_agree(&label, &field, &reference, 1e-10);
            }
        }
    }
}

/// FNV-1a (64-bit) over the little-endian bits of every sample.
fn field_hash(field: &ScalarField2d) -> u64 {
    field
        .values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a of the sampled field bits ([`field_hash`]) for g = 1, 4, 7, 20,
/// recorded on the per-block sampler: per layout of
/// [`sampled_field_bits_are_pinned`], the clamped then the submodel row.
#[rustfmt::skip]
const FIELD_HASHES: [[[u64; 4]; 2]; 4] = [
    // 1x1: clamped, submodel.
    [
        [0x3d8791ef0e5d44d4, 0x00982fef4cfccf65, 0xebe7ac7477b840d7, 0xc0a5b78fe0388f95],
        [0x85fc48c28517d4fe, 0x0ce9cfdc8b829325, 0x49f6c3ab1f83dee0, 0x2b4478e820221204],
    ],
    // 3x3 with one dummy: clamped, submodel.
    [
        [0xa678810f673bb960, 0x15eb315dacdd9899, 0xa1fadf9c6374db31, 0xce55b3c7f17fa5ca],
        [0xc9c3bdc2d1d3fdff, 0x38341c68a96615fc, 0x773a65adc2fb0b42, 0x931319cc50e3659f],
    ],
    // 3x3 + dummy ring: clamped, submodel.
    [
        [0x8bfa126593aba698, 0x89a2a5c1cb17533e, 0x3bad1db69555e7fd, 0x09e85d16af86d1ce],
        [0xe21f420e657fc359, 0x3bff22e4fd19e960, 0x6b9bd6a8de54c342, 0x0522ddd07d867c28],
    ],
    // 4x3 with a dummy patch: clamped, submodel.
    [
        [0xb0c59357cfb26a24, 0xc6f7eb03aa8cb355, 0x871431b2e62f6a44, 0xa3d256c3ba55fad5],
        [0x3de65e24314de051, 0x3a223dd67be76d51, 0x32d34d7cdfd893f3, 0x9c6dca9e964032c6],
    ],
];

#[test]
fn sampled_field_bits_are_pinned() {
    // Per-kind block counts 1; 8 + 1; 9 + 16; 10 + 2: a lone block, a full
    // group of eight, full groups with a short tail, and short groups of
    // both kinds. Each row holds the hashes for g = 1, 4, 7, 20.
    let mut one_dummy = BlockLayout::uniform(3, 3, BlockKind::Tsv);
    one_dummy.set_kind(1, 1, BlockKind::Dummy);
    let mut patched = BlockLayout::uniform(4, 3, BlockKind::Tsv);
    patched.set_kind(1, 1, BlockKind::Dummy);
    patched.set_kind(2, 1, BlockKind::Dummy);
    let layouts = [
        ("1x1", BlockLayout::uniform(1, 1, BlockKind::Tsv)),
        ("3x3 with one dummy", one_dummy),
        (
            "3x3 + dummy ring",
            BlockLayout::uniform(3, 3, BlockKind::Tsv).padded(1),
        ),
        ("4x3 with a dummy patch", patched),
    ];
    let submodel = GlobalBc::SubmodelBoundary(Arc::new(|p: [f64; 3]| {
        [1e-4 * p[0], -2e-4 * p[1], 5e-5 * (p[2] - 25.0)]
    }));
    let bcs = [
        ("clamped", &GlobalBc::ClampedTopBottom),
        ("submodel", &submodel),
    ];
    let mut mismatches = Vec::new();
    for ((name, layout), expected) in layouts.iter().zip(&FIELD_HASHES) {
        for ((bc_name, bc), expected) in bcs.iter().zip(expected) {
            let solution = solve(layout, DELTA_T, bc);
            let hashes = [1, 4, 7, 20].map(|g| field_hash(&sample(layout, &solution, DELTA_T, g)));
            if hashes != *expected {
                let hashes = hashes.map(|h| format!("{h:#018x}")).join(", ");
                mismatches.push(format!("{name}, {bc_name}: [{hashes}]"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "field bits moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn missing_dummy_rom_is_a_mismatch() {
    let (tsv, _) = roms();
    let layout = BlockLayout::uniform(2, 2, BlockKind::Tsv).padded(1);
    let solution = solve(&layout, DELTA_T, &GlobalBc::ClampedTopBottom);
    match sample_array_von_mises(tsv, None, &layout, &solution, DELTA_T, 4) {
        Err(RomError::Mismatch(_)) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn zero_load_gives_an_exactly_zero_field() {
    for (name, layout) in layouts() {
        let solution = solve(&layout, 0.0, &GlobalBc::ClampedTopBottom);
        let field = sample(&layout, &solution, 0.0, 5);
        assert!(
            field.values.iter().all(|&v| v == 0.0),
            "{name}: ΔT = 0 must sample to exactly 0.0"
        );
    }
}

#[test]
fn field_scales_with_the_magnitude_of_the_load() {
    for (name, layout) in layouts() {
        let base = sample(
            &layout,
            &solve(&layout, DELTA_T, &GlobalBc::ClampedTopBottom),
            DELTA_T,
            4,
        );
        for alpha in [2.0, -0.37, 1.7] {
            let scaled = sample(
                &layout,
                &solve(&layout, alpha * DELTA_T, &GlobalBc::ClampedTopBottom),
                alpha * DELTA_T,
                4,
            );
            let expected = ScalarField2d {
                grid: base.grid,
                values: base.values.iter().map(|v| alpha.abs() * v).collect(),
            };
            assert_fields_agree(&format!("{name}, α = {alpha}"), &scaled, &expected, 1e-12);
        }
    }
}

#[test]
fn mirror_symmetric_layout_gives_a_mirror_symmetric_field() {
    // Even g: no sample sits on a mesh line, where `locate` breaks ties
    // towards the upper cell.
    let g = 4;
    for (name, layout) in layouts() {
        let solution = solve(&layout, DELTA_T, &GlobalBc::ClampedTopBottom);
        let field = sample(&layout, &solution, DELTA_T, g);
        let [w, h] = field.grid.samples;
        let mirrored = |flip_x: bool, flip_y: bool| ScalarField2d {
            grid: field.grid,
            values: (0..w * h)
                .map(|at| {
                    let (i, j) = (at % w, at / w);
                    let i = if flip_x { w - 1 - i } else { i };
                    let j = if flip_y { h - 1 - j } else { j };
                    field.values[j * w + i]
                })
                .collect(),
        };
        assert_fields_agree(&format!("{name}, x"), &mirrored(true, false), &field, 1e-9);
        assert_fields_agree(&format!("{name}, y"), &mirrored(false, true), &field, 1e-9);
    }
}
