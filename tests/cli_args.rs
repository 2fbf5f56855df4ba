//! `mvdesign-cli` rejects what it does not understand instead of running
//! the default design: `error: …` plus the usage on stderr, exit 1.

use std::process::{Command, Output};

fn design(options: &[&str]) -> Output {
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/paper.mvd");
    Command::new(env!("CARGO_BIN_EXE_mvdesign-cli"))
        .args(["design", scenario])
        .args(options)
        .output()
        .expect("mvdesign-cli runs")
}

/// Exit 1, nothing designed, and stderr starts `error:` and names `token`.
fn rejected(options: &[&str], token: &str) -> String {
    let out = design(options);
    assert_eq!(out.status.code(), Some(1), "{options:?}");
    assert!(out.stdout.is_empty(), "{options:?} still ran a design");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.starts_with("error: "), "{options:?}: {stderr}");
    assert!(stderr.contains(token), "{options:?}: {stderr}");
    stderr
}

#[test]
fn unknown_option_is_rejected_with_usage() {
    let stderr = rejected(&["--bogus"], "`--bogus`");
    assert!(stderr.contains("usage: mvdesign-cli"));
}

#[test]
fn value_option_without_a_value_is_rejected_with_usage() {
    let stderr = rejected(&["--algorithm"], "`--algorithm`");
    assert!(stderr.contains("usage: mvdesign-cli"));
}

#[test]
fn malformed_value_keeps_its_error() {
    let stderr = rejected(&["--rotations", "abc"], "`abc` is not a number");
    assert_eq!(stderr.trim_end(), "error: `abc` is not a number");
}

#[test]
fn known_options_still_design() {
    let out = design(&["--algorithm", "exhaustive", "--parallelism", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("9597644"));
}
