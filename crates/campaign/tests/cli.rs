//! The `morestress` command-line contract, one binary for every command:
//! a bad command line exits 2 with the usage on stderr, prints nothing on
//! stdout and computes nothing (so those cases are instant); a failed run
//! exits 1; nothing exits 101 (panic) or 134 (abort).

use std::path::PathBuf;
use std::process::{Command, Output};

fn morestress(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_morestress"))
        .args(args)
        .output()
        .expect("the morestress binary runs")
}

/// A fresh scratch directory for this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morestress-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Asserts the bad-command-line contract for `args`: exit 2, the usage of
/// every command on stderr, nothing on stdout, no spec opened. Returns the
/// stderr for case-specific checks.
fn rejected_with_usage(args: &[&str]) -> String {
    let out = morestress(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: morestress campaign run")
            && stderr.contains("morestress repro")
            && stderr.contains("morestress check"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} computed something");
    // No spec is opened before the command line is checked.
    assert!(!stderr.contains("spec.yml:"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &[][..],
        &["campaign"],
        &["simulate", "spec.yml"],
        &["campaign", "run"],
        &["check"],
        &["check", "--all"],
    ] {
        rejected_with_usage(args);
    }
}

#[test]
fn unknown_options_after_campaign_run_are_rejected_with_usage() {
    for args in [
        &["campaign", "run", "--help"][..],
        &["campaign", "run", "--trace", "spec.yml"],
        &["campaign", "run", "spec.yml", "--ot", "results.json"],
    ] {
        let stderr = rejected_with_usage(args);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}

#[test]
fn out_without_a_file_is_rejected_with_usage() {
    let stderr = rejected_with_usage(&["campaign", "run", "spec.yml", "--out"]);
    assert!(stderr.contains("--out needs a file argument"), "{stderr}");
}

#[test]
fn check_passes_a_valid_record_and_names_a_malformed_one() {
    let dir = scratch("check");
    let valid = dir.join("valid.json");
    let malformed = dir.join("malformed.json");
    std::fs::write(
        &valid,
        "{\n  \"s\": {\n    \"x\": 1.5,\n    \"hardware_threads\": 2,\n    \"git_commit\": 0\n  }\n}\n",
    )
    .unwrap();
    std::fs::write(&malformed, "{\n  \"s\": {\n    \"x\": 1.5\n  }\n}\n").unwrap();
    // The same schema on one line is the same JSON; a third level is not
    // the schema, however it is laid out.
    let one_line = dir.join("one_line.json");
    std::fs::write(
        &one_line,
        r#"{"a": {"x": 1, "hardware_threads": 2, "git_commit": 5}}"#,
    )
    .unwrap();
    let too_deep = dir.join("too_deep.json");
    std::fs::write(
        &too_deep,
        "{\n  \"a\": {\n    \"x\": {\n      \"y\": 1\n    },\n    \"hardware_threads\": 2,\n    \
         \"git_commit\": 5\n  }\n}\n",
    )
    .unwrap();

    for record in [&valid, &one_line] {
        let out = morestress(&["check", record.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("ok "));
    }

    let out = morestress(&["check", too_deep.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("FAIL {}: ", too_deep.display()))
            && stderr.contains("not in the {section: {key: number}} format"),
        "{stderr}"
    );

    let out = morestress(&[
        "check",
        valid.to_str().unwrap(),
        malformed.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("FAIL {}: ", malformed.display()))
            && stderr.contains("missing hardware_threads"),
        "{stderr}"
    );
    assert!(!stderr.contains("valid.json:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Whether `stderr` names a line of the spec (`line N`).
fn names_a_line(stderr: &str) -> bool {
    stderr
        .match_indices("line ")
        .any(|(at, m)| stderr[at + m.len()..].starts_with(|c: char| c.is_ascii_digit()))
}

/// Hostile spec files through the binary: a spec nested 64 blocks deep
/// (past the parser's depth bound), the upstream config's modulus in Pa,
/// an array whose dummy rings overflow its padded side, 6 interpolation
/// nodes in z where the `coarse` mesh has 5, and 4 kB of seeded
/// pseudo-random bytes (`random.Random(29).randbytes(4096)` in Python,
/// committed as `tests/fixtures/noise.yml`). Each is refused with exit
/// status 1 — never 101 (panic) or 134 (abort) — and all but the noise
/// name the offending line.
#[test]
fn hostile_specs_are_refused_not_crashed() {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.yml");
    let example = std::fs::read_to_string(example).unwrap();
    let substituted = |from: &str, to: &str| {
        assert!(
            example.contains(from),
            "examples/campaign.yml has no {from:?}"
        );
        example.replace(from, to).into_bytes()
    };
    let deep: String = (0..64)
        .map(|level| format!("{}k{level}:\n", "  ".repeat(level)))
        .collect();
    let specs = [
        ("deep", deep.into_bytes()),
        (
            "pascal",
            substituted("young_modulus: 130000\n", "young_modulus: 130.0e+9\n"),
        ),
        (
            "wrap",
            substituted(
                "  - tsv_num_x: 4\n    tsv_num_y: 2\n",
                "  - tsv_num_x: 1\n    tsv_num_y: 1\n    dummy_tsv_num_x: 9223372036854775808\n",
            ),
        ),
        (
            "count6",
            substituted("  interp_num_z: 3\n", "  interp_num_z: 6\n"),
        ),
        ("noise", include_bytes!("fixtures/noise.yml").to_vec()),
    ];
    let dir = scratch("hostile");
    for (name, bytes) in specs {
        let spec = dir.join(format!("{name}.yml"));
        let results = dir.join(format!("{name}.json"));
        std::fs::write(&spec, bytes).unwrap();
        let out = morestress(&[
            "campaign",
            "run",
            spec.to_str().unwrap(),
            "--out",
            results.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}.yml: {stderr}");
        if name != "noise" {
            assert!(
                names_a_line(&stderr),
                "{name}.yml: the error names no line: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 1×1 TSV array padded by 100 000 × 2 dummy rings fits a `usize` but
/// not a 1.5 GB address space: the global stage must refuse it as a failed
/// job (exit 1) before it allocates, not abort (134) when an allocation
/// fails.
#[cfg(target_os = "linux")]
#[test]
fn an_array_that_cannot_fit_in_memory_fails_the_job() {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.yml");
    let text = std::fs::read_to_string(example).unwrap();
    let arrays = &text[text.find("tsv_array:").unwrap()..text.find("solver:").unwrap()];
    let text = text.replace(
        arrays,
        "tsv_array:\n  - tsv_num_x: 1\n    tsv_num_y: 1\n    dummy_tsv_num_x: 100000\n    \
         dummy_tsv_num_y: 2\n\n",
    );
    let dir = scratch("memory");
    let spec = dir.join("huge.yml");
    std::fs::write(&spec, text).unwrap();
    let out = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 1500000; exec \"$0\" campaign run \"$1\" --out \"$2\"",
        ])
        .arg(env!("CARGO_BIN_EXE_morestress"))
        .arg(&spec)
        .arg(dir.join("huge.json"))
        .env("MORESTRESS_THREADS", "1")
        .output()
        .expect("sh runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    assert!(stdout.contains("FAILED: out of memory"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
