//! Spec-parser contract: the checked-in example parses, and malformed
//! documents are rejected with typed errors that point at the offending
//! 1-based line.

use std::collections::HashMap;

use morestress_campaign::{
    CampaignSpec, ResolutionChoice, SolverChoice, SpecErrorKind, VerifyChoice, YamlErrorKind,
};
use morestress_linalg::LinearSolver;

fn example_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.yml")
}

#[test]
fn checked_in_example_parses() {
    let spec = CampaignSpec::from_file(example_path()).expect("examples/campaign.yml parses");
    assert_eq!(spec.name, "paper-tsv-arrays");
    assert_eq!(spec.materials.len(), 3);
    assert_eq!(spec.geometry.pitch, 15.0);
    assert_eq!(spec.geometry.liner, 0.5);
    assert_eq!(spec.loads, vec![-250.0, -100.0, 85.0]);
    assert_eq!(spec.arrays.len(), 2);
    assert_eq!(spec.arrays[0].dummy_tsv_num_x, 1);
    assert_eq!(spec.arrays[1].tsv_num_x, 4);
    assert_eq!(spec.arrays[1].dummy_tsv_num_y, 0);
    assert_eq!(spec.solver.interp_num, [3, 3, 3]);
    assert_eq!(spec.solver.resolution, ResolutionChoice::Coarse);
    assert_eq!(spec.solver.global_solver, SolverChoice::Direct);
    assert_eq!(spec.solver.verify, VerifyChoice::Report);
    assert!(spec.arrays[0].needs_dummy() && !spec.arrays[1].needs_dummy());
}

#[test]
fn layout_places_tsv_core_inside_dummy_margins() {
    let spec = CampaignSpec::from_file(example_path()).unwrap();
    let layout = spec.arrays[0].layout(); // 3x3 core + 1-ring margins
    assert_eq!((layout.nx(), layout.ny()), (5, 5));
    assert_eq!(layout.count(morestress_mesh::BlockKind::Tsv), 9);
    assert_eq!(
        layout.kind(0, 0),
        morestress_mesh::BlockKind::Dummy,
        "corner is margin"
    );
    assert_eq!(
        layout.kind(2, 2),
        morestress_mesh::BlockKind::Tsv,
        "center is core"
    );
}

/// A minimal valid document the malformed-input tests mutate.
const MINIMAL: &str = "\
name: demo
geometry:
  height: 50
  pitch: 15
  diameter: 5
  thickness: 0.5
loads:
  - -100
tsv_array:
  - tsv_num_x: 2
    tsv_num_y: 2
";

#[test]
fn minimal_document_parses_with_solver_defaults() {
    let spec = CampaignSpec::parse(MINIMAL).expect("minimal spec parses");
    assert_eq!(spec.solver.interp_num, [3, 3, 3]);
    assert_eq!(spec.solver.global_solver, SolverChoice::Direct);
    assert_eq!(spec.solver.verify, VerifyChoice::Off);
    assert!(spec.materials.is_empty());
}

#[test]
fn bad_indent_is_rejected_with_line() {
    // Line 4: `pitch` indented deeper than its siblings.
    let text = MINIMAL.replace("\n  pitch:", "\n    pitch:");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 4);
    assert_eq!(err.kind, SpecErrorKind::Yaml(YamlErrorKind::BadIndent));
}

#[test]
fn tab_indentation_is_rejected_with_line() {
    let text = MINIMAL.replace("\n  height:", "\n\theight:");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 3);
    assert_eq!(err.kind, SpecErrorKind::Yaml(YamlErrorKind::Tab));
}

#[test]
fn duplicate_key_is_rejected_with_line() {
    let text = MINIMAL.replace("\n  pitch: 15", "\n  pitch: 15\n  pitch: 16");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 5);
    assert_eq!(
        err.kind,
        SpecErrorKind::Yaml(YamlErrorKind::DuplicateKey("pitch".to_string()))
    );
}

#[test]
fn unknown_keys_are_rejected_with_line() {
    // Top level (after line 1), inside geometry (line 4), inside solver.
    let top = format!("{MINIMAL}frobnicate: 3\n");
    let err = CampaignSpec::parse(&top).unwrap_err();
    assert_eq!(err.line, 12);
    assert_eq!(
        err.kind,
        SpecErrorKind::UnknownKey("frobnicate".to_string())
    );

    let geo = MINIMAL.replace("\n  pitch: 15", "\n  pich: 15");
    let err = CampaignSpec::parse(&geo).unwrap_err();
    assert_eq!(err.line, 4);
    assert_eq!(err.kind, SpecErrorKind::UnknownKey("pich".to_string()));

    let solver = format!("{MINIMAL}solver:\n  solvr: direct\n");
    let err = CampaignSpec::parse(&solver).unwrap_err();
    assert_eq!(err.line, 13);
    assert_eq!(err.kind, SpecErrorKind::UnknownKey("solvr".to_string()));
}

#[test]
fn upstream_nested_keys_name_the_flat_ones() {
    // The upstream config.yml nests axes (`tsv_num: {x, y}`) and spells
    // the material list and the load in the singular; each such key is
    // refused with the keys to use instead, at the line its block starts
    // on (where every block-valued key is reported). The last two rows
    // are the upstream config's own lines.
    let array = "  - tsv_num_x: 2\n    tsv_num_y: 2\n";
    let cases = [
        (
            MINIMAL.replace(array, "  - tsv_num:\n      x: 2\n      y: 2\n"),
            11,
            "`tsv_num_x` / `tsv_num_y`",
        ),
        (
            format!("{MINIMAL}    dummy_tsv_num:\n      x: 1\n      y: 1\n"),
            13,
            "`dummy_tsv_num_x` / `dummy_tsv_num_y`",
        ),
        (
            format!("{MINIMAL}solver:\n  interp_num:\n    x: 4\n    y: 4\n    z: 4\n"),
            14,
            "`interp_num_x` / `interp_num_y` / `interp_num_z`",
        ),
        (
            format!(
                "{MINIMAL}material: # material properties\n  -\n    name: \"Si\"\n    \
                 young_modulus: 130.0e+9\n    poisson_ratio: 0.28\n    \
                 thermal_expansion_coefficient: 2.3e-6\n"
            ),
            13,
            "`materials:`",
        ),
        (
            format!("{MINIMAL}temperature: 100.0 # thermal load\n"),
            12,
            "`loads:`",
        ),
    ];
    for (text, line, ours) in cases {
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, line, "{err}");
        let SpecErrorKind::BadValue(msg) = &err.kind else {
            panic!("expected a pointed BadValue, got {err}");
        };
        assert!(
            msg.contains(ours) && msg.contains("examples/campaign.yml"),
            "{err}"
        );
    }
}

#[test]
fn moduli_in_pa_are_rejected_with_a_units_hint() {
    // The upstream config's moduli are in Pa; read as MPa they would give
    // stresses 10⁶× too large. Each row is one of its literal lines.
    for young in [
        "young_modulus: 130.0e+9",
        "young_modulus: 110.0e+9",
        "young_modulus: 71.0e+9",
    ] {
        let text = format!(
            "{MINIMAL}materials:\n  - name: Si\n    {young}\n    poisson_ratio: 0.28\n    \
             thermal_expansion_coefficient: 2.3e-6\n"
        );
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, 14, "{young}: {err}");
        let SpecErrorKind::BadValue(msg) = &err.kind else {
            panic!("expected a units BadValue, got {err}");
        };
        assert!(msg.contains("MPa") && msg.contains("not Pa"), "{err}");
    }
    // The same stiffness in MPa parses.
    let text = format!(
        "{MINIMAL}materials:\n  - name: Si\n    young_modulus: 130000\n    \
         poisson_ratio: 0.28\n    thermal_expansion_coefficient: 2.3e-6\n"
    );
    assert_eq!(
        CampaignSpec::parse(&text).expect("MPa modulus").materials[0].young_modulus,
        130000.0
    );
}

#[test]
fn non_finite_numbers_are_rejected_with_line() {
    // `nan` and overflow-to-infinity literals both parse as f64 — and
    // both must be refused with the line they sit on.
    for bad in ["nan", "-inf", "1e999"] {
        let text = MINIMAL.replace("  - -100", &format!("  - {bad}"));
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, 8, "load literal `{bad}`");
        assert_eq!(err.kind, SpecErrorKind::NonFinite(bad.to_string()));
    }
    let text = MINIMAL.replace("  height: 50", "  height: tall");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 3);
    assert_eq!(err.kind, SpecErrorKind::NonFinite("tall".to_string()));
}

#[test]
fn missing_required_keys_are_rejected() {
    let text = MINIMAL.replace("name: demo\n", "");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::MissingKey("name"));

    let text = MINIMAL.replace("  diameter: 5\n", "");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::MissingKey("diameter"));
}

#[test]
fn domain_violations_are_rejected() {
    // Geometry that cannot mesh: via wider than the block pitch.
    let text = MINIMAL.replace("  diameter: 5", "  diameter: 99");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::BadValue(_)), "{err}");

    // Physically impossible material constants must fail *here*, with the
    // line of the offending key (not the material map's, 13), not panic
    // later inside `Material::new`.
    for (young, poisson, line) in [("110000", "0.6", 15), ("0", "0.35", 14), ("-5", "0.35", 14)] {
        let text = format!(
            "{MINIMAL}materials:\n  - name: Cu\n    young_modulus: {young}\n    \
             poisson_ratio: {poisson}\n    thermal_expansion_coefficient: 1.7e-5\n"
        );
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, line, "{young}, {poisson}: {err}");
        assert!(matches!(err.kind, SpecErrorKind::BadValue(_)), "{err}");
    }

    // Unknown material name.
    let text = format!(
        "{MINIMAL}materials:\n  - name: unobtanium\n    young_modulus: 1\n    \
         poisson_ratio: 0.3\n    thermal_expansion_coefficient: 1e-6\n"
    );
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 13);
    assert!(matches!(err.kind, SpecErrorKind::BadValue(_)), "{err}");

    // Zero-size array.
    let text = MINIMAL.replace("tsv_num_x: 2", "tsv_num_x: 0");
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::BadValue(_)), "{err}");

    // Padded sizes that overflow: 1 + 2·2⁶³ wraps a 64-bit side, and
    // (1 + 2·2³²)² the block count. Each is refused at the array's line
    // (10) before `layout` computes it.
    for (dx, dy) in [
        ("9223372036854775808", "0"),
        ("0", "9223372036854775808"),
        ("4294967296", "4294967296"),
    ] {
        let text = MINIMAL.replace(
            "  - tsv_num_x: 2\n    tsv_num_y: 2\n",
            &format!(
                "  - tsv_num_x: 1\n    tsv_num_y: 1\n    dummy_tsv_num_x: {dx}\n    \
                 dummy_tsv_num_y: {dy}\n"
            ),
        );
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, 10, "rings {dx} × {dy}: {err}");
        assert!(matches!(err.kind, SpecErrorKind::BadValue(_)), "{err}");
    }
}

/// More interpolation nodes per block edge than the mesh has nodes along
/// it leave the global operator singular, so every solve would fail: the
/// spec refuses such a count at its line, naming both numbers. The largest
/// counts each mesh carries still parse.
#[test]
fn interpolation_counts_the_mesh_cannot_carry_are_rejected() {
    for (solver, line, count, nodes) in [
        ("  interp_num_z: 6\n", 13, 6, 5),
        ("  interp_num_y: 12\n  resolution: coarse\n", 13, 12, 11),
        ("  resolution: medium\n  interp_num_x: 20\n", 14, 20, 19),
        ("  resolution: medium\n  interp_num_z: 10\n", 14, 10, 9),
    ] {
        let text = format!("{MINIMAL}solver:\n{solver}");
        let err = CampaignSpec::parse(&text).unwrap_err();
        assert_eq!(err.line, line, "{solver}: {err}");
        let SpecErrorKind::BadValue(message) = &err.kind else {
            panic!("{solver}: {err}");
        };
        assert!(
            message.contains(&format!("is {count},"))
                && message.contains(&format!("only {nodes} ")),
            "{solver}: {message}"
        );
    }
    for solver in [
        "  interp_num_z: 5\n  interp_num_x: 11\n",
        "  resolution: medium\n  interp_num_y: 19\n  interp_num_z: 9\n",
    ] {
        let text = format!("{MINIMAL}solver:\n{solver}");
        CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{solver}: {e}"));
    }
}

#[test]
fn scalars_where_blocks_belong_are_rejected() {
    let text = MINIMAL.replace(
        "geometry:\n  height: 50\n  pitch: 15\n  diameter: 5\n  thickness: 0.5",
        "geometry: compact",
    );
    let err = CampaignSpec::parse(&text).unwrap_err();
    assert_eq!(err.line, 2);
    assert!(matches!(err.kind, SpecErrorKind::WrongShape(_)), "{err}");
}

/// Every backend configuration a spec can select, by
/// `config_fingerprint`: two selections share a fingerprint only when they
/// build the same configuration (equal `Debug` forms — every backend
/// derives `Debug` over all of its fields). The fingerprint is still a
/// lossy `u64`; this pins only the configurations a spec can reach.
#[test]
fn spec_selections_share_a_fingerprint_only_when_they_build_one_configuration() {
    let mut configs: HashMap<u64, String> = HashMap::new();
    for global_solver in ["direct", "gmres", "cg", "auto"] {
        for verify in ["off", "report", "enforce"] {
            for tolerance in ["1e-6", "1e-8", "1e-9", "1e-10", "1e-12"] {
                for shards in [0, 1, 2, 4, 16] {
                    let text = format!(
                        "{MINIMAL}solver:\n  global_solver: {global_solver}\n  \
                         verify: {verify}\n  tolerance: {tolerance}\n  shards: {shards}\n"
                    );
                    let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{e}"));
                    // The simulator builder's rule: a nonzero `shards` wins
                    // over `global_solver`.
                    let selection = match spec.solver.shards {
                        0 => spec.solver.rom_solver(),
                        shards => LinearSolver::Sharded { shards },
                    };
                    let backend = selection.backend(spec.solver.verify_policy());
                    let config = format!("{backend:?}");
                    let fingerprint = backend.config_fingerprint();
                    if let Some(other) = configs.insert(fingerprint, config.clone()) {
                        assert_eq!(other, config, "fingerprint {fingerprint:#x}");
                    }
                }
            }
        }
    }
    // Unsharded: direct under off, report and five enforce tolerances;
    // gmres and cg at five tolerances each; one auto. Each of the four
    // shard counts: off, report and five enforce tolerances.
    assert_eq!(configs.len(), 7 + 5 + 5 + 1 + 4 * 7);
}
