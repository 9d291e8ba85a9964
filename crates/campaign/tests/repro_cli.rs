//! `morestress repro` command-line contract: a bad command line exits with
//! status 2 and the usage before any compute, so every case here is instant.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_morestress"))
        .arg("repro")
        .args(args)
        .output()
        .expect("the morestress binary runs")
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &["table1", "--scale"][..],
        &["table1", "--scale", "huge"],
        &["table9"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: morestress"), "{args:?}: {stderr}");
        assert!(stderr.contains("morestress repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} computed something");
    }
}
