//! `mvdesign-cli` rejects what it does not understand instead of running
//! the default design: `error: …` plus the usage on stderr, exit 1. What it
//! does understand it hands to the one `Designer`, and prints as it always
//! has.

use std::process::{Command, Output};

fn design_on(scenario: &str, options: &[&str]) -> Output {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    Command::new(env!("CARGO_BIN_EXE_mvdesign-cli"))
        .args(["design", &format!("{scenarios}/{scenario}.mvd")])
        .args(options)
        .output()
        .expect("mvdesign-cli runs")
}

fn design(options: &[&str]) -> Output {
    design_on("paper", options)
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
fn incremental_fraction_outside_the_unit_interval_is_rejected() {
    for bad in ["NaN", "-3", "10", "inf", "1.0000001"] {
        let stderr = rejected(&["--incremental", bad], "`--incremental`");
        assert!(stderr.contains(&format!("`{bad}`")), "{stderr}");
    }
    for edge in ["0", "0.1", "1"] {
        let out = design(&["--incremental", edge]);
        assert!(out.status.success(), "--incremental {edge}");
    }
}

#[test]
fn known_options_still_design() {
    let out = design(&["--algorithm", "exhaustive", "--parallelism", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("9597644"));
}

/// FNV-1a of `design <scenario> --algorithm <name> --trace --dot`'s stdout,
/// taken from the command while it still ran its own generate → annotate →
/// select → keep-cheapest loop. Going through `Designer::design_with` (which
/// fans the candidates out over `--parallelism` threads) must print the same
/// bytes, at any thread count.
const DESIGN_OUTPUT: [(&str, &str, u64); 10] = [
    ("paper", "greedy", 0xd211730916d55b7b),
    ("paper", "exhaustive", 0x75d49ff8be0f530c),
    ("paper", "genetic", 0x93a1200adb9dd1a0),
    ("paper", "all", 0x6f3c7a29f4b02a28),
    ("paper", "none", 0x27036aa7581a5de9),
    ("tpch", "greedy", 0x69f830fe86a1a9dd),
    ("tpch", "exhaustive", 0xfde59bb4eeb689d8),
    ("tpch", "genetic", 0xf3a65283aae5d54f),
    ("tpch", "all", 0xcf12ad4af1d5cae2),
    ("tpch", "none", 0x8ad906394d71fbf6),
];

#[test]
fn design_output_is_unchanged_for_every_algorithm_at_any_parallelism() {
    for (scenario, algorithm, recorded) in DESIGN_OUTPUT {
        for parallelism in ["1", "3"] {
            let options = [
                "--algorithm",
                algorithm,
                "--parallelism",
                parallelism,
                "--trace",
                "--dot",
            ];
            let out = design_on(scenario, &options);
            assert_eq!(out.status.code(), Some(0), "{scenario} {options:?}");
            let digest = out.stdout.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(
                digest,
                recorded,
                "{scenario} {options:?} now prints:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}
