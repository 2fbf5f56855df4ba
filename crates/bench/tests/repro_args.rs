//! `repro` takes at most one argument, a section name; anything else lists
//! the sections on stderr and exits 2 without printing an artifact.

use std::process::{Command, Output};

const SECTIONS: [&str; 19] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "distributed",
    "ablation",
    "sweep",
    "algorithms",
    "mqp",
    "scale",
    "simulate",
    "tpch",
    "breakeven",
    "audit",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_retired_and_trailing_arguments_exit_2_with_the_section_list() {
    for args in [&["nonsense"][..], &["perf"], &["fig9", "extra"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed an artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in SECTIONS {
            assert!(stderr.contains(name), "{args:?}: stderr omits `{name}`");
        }
    }
}

#[test]
fn a_section_name_alone_runs_that_section() {
    let out = repro(&["table2"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 2"));
    assert!(out.stderr.is_empty());
}
