//! Fleet record/replay through the `repro` binary.
//!
//! `repro trace record --fleet` and `repro fleet` resolve the same
//! `--tiny/--quick/--devices/--frames` flags to the same population, so a
//! replay from recorded traces reports exactly what a generated run
//! reports. A replay only checks each recording's rate and frame count, so
//! a recording of another population would silently change the report.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs")
}

fn run_ok(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dvsync_fleet_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn recorded_default_population_replays_byte_identically() {
    let dir = temp_dir("default_population");
    let traces = dir.join("traces");
    let generated = dir.join("generated.json");
    let replayed = dir.join("replayed.json");
    let population = ["--devices", "64", "--frames", "24"];

    let mut record = vec!["trace", "record", "--fleet", "--out", traces.to_str().unwrap()];
    record.extend(population);
    run_ok(&record);
    let recorded = std::fs::read_dir(&traces).expect("trace dir").count();
    assert_eq!(recorded, 64, "one recording per device");

    let mut fleet = vec!["fleet", "--jobs", "1"];
    fleet.extend(population);
    let mut generate = fleet.clone();
    generate.extend(["--emit-json", generated.to_str().unwrap()]);
    run_ok(&generate);
    let mut replay = fleet;
    replay.extend(["--trace-dir", traces.to_str().unwrap()]);
    replay.extend(["--emit-json", replayed.to_str().unwrap()]);
    run_ok(&replay);

    let generated = std::fs::read(&generated).expect("generated report");
    let replayed = std::fs::read(&replayed).expect("replayed report");
    assert!(generated == replayed, "replaying the recorded population changed the fleet report");
    let _ = std::fs::remove_dir_all(&dir);
}
