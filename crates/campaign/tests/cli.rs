//! `morestress campaign run` argument handling: anything that looks like
//! an option but is not `--out` is rejected with the usage line instead of
//! being opened as a spec file.

use std::process::Command;

fn campaign_run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_morestress"))
        .args(["campaign", "run"])
        .args(args)
        .output()
        .expect("the morestress binary runs")
}

#[test]
fn unknown_options_after_campaign_run_are_rejected_with_usage() {
    for args in [
        &["--help"][..],
        &["--trace", "spec.yml"],
        &["spec.yml", "--ot", "results.json"],
    ] {
        let output = campaign_run(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains("unknown option") && stderr.contains("usage: morestress campaign run"),
            "{args:?}: stderr was {stderr:?}"
        );
        assert!(
            !stderr.contains("spec.yml:"),
            "{args:?}: no spec may be opened before the options are checked: {stderr:?}"
        );
    }
}

#[test]
fn out_without_a_file_is_rejected_with_usage() {
    let output = campaign_run(&["spec.yml", "--out"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success());
    assert!(stderr.contains("--out needs a file argument"), "{stderr:?}");
}
