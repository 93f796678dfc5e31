//! Every artefact rendered in a process of its own matches `repro --all`.
//!
//! `repro --all` renders the artefacts one after another in one process,
//! so a later artefact reuses the calibrations an earlier one left in the
//! process-wide memo (`dvs_bench::calibrated`). Here each artefact starts
//! with a cold memo instead. Their outputs, concatenated in job order, must
//! equal `repro --all` byte for byte: no artefact's output may depend on
//! what another one fitted first.

use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// The artefact keys in job order, read from the table `repro --help` ends
/// with.
fn artefact_keys() -> Vec<String> {
    let help = repro(&["--help"]);
    let (_, table) = help.split_once("\nartefacts").expect("--help lists the artefacts");
    table
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .map(String::from)
        .collect()
}

#[test]
fn artefacts_rendered_one_per_process_match_repro_all() {
    let keys = artefact_keys();
    assert!(keys.len() > 20, "too few artefact keys parsed from --help: {keys:?}");
    let all = repro(&["--all"]);
    let separate: String = keys.iter().map(|key| repro(&[&format!("--{key}")])).collect();
    if separate != all {
        let line = separate.lines().zip(all.lines()).position(|(a, b)| a != b);
        panic!(
            "per-process artefacts differ from `repro --all` at output line {}",
            line.map_or("past the shorter output".to_string(), |l| (l + 1).to_string())
        );
    }
}
