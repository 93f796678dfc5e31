//! `repro custom` through the `repro` binary.
//!
//! The scenario spec is a file from outside the program, so a hostile one
//! must fail with a one-line error and exit 1, never panic and never print
//! a table of zeros.

use std::process::{Command, Output};

use dvs_workload::{CostProfile, ScenarioSpec};

/// Writes `spec` as the JSON `repro custom` reads and runs it.
fn custom(name: &str, spec: &ScenarioSpec) -> Output {
    let dir = std::env::temp_dir().join("dvsync_custom_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string(spec).expect("specs serialize")).expect("write");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["custom", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("repro binary runs")
}

fn valid() -> ScenarioSpec {
    ScenarioSpec::new("custom-cli", 60, 240, CostProfile::scattered(1.0)).with_paper_fdps(1.0)
}

#[test]
fn valid_spec_runs() {
    let out = custom("valid", &valid());
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("custom scenario: custom-cli"));
}

#[test]
fn hostile_specs_exit_1_without_panicking() {
    let mut bad_cost = valid();
    bad_cost.cost.ui_share = 2.0;
    let cases = [
        ("rate_zero", ScenarioSpec { rate_hz: 0, ..valid() }, "rate_hz"),
        ("no_frames", ScenarioSpec { frames: 0, ..valid() }, "frames"),
        ("ui_share", bad_cost, "ui_share"),
    ];
    for (name, spec, problem) in cases {
        let out = custom(name, &spec);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.contains("invalid configuration") && stderr.contains(problem), "{stderr}");
        assert!(out.stdout.is_empty(), "{name} printed a report");
    }
}
