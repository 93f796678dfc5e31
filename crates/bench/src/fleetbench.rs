//! Fleet throughput benchmark: the batched engine vs the per-device
//! oracle, floor-gated at one million simulated devices per minute.
//!
//! Both arms run the *same* seeded population through
//! [`run_fleet_resilient`] — sampling, trace generation, simulation, and
//! sketch reduction all inside the timed window, so `devices_per_min` is an
//! honest end-to-end figure, not a kernel-only one. The arms' reports are
//! compared byte for byte in-run and a mismatch fails the run: a throughput
//! number from a diverging kernel is worthless.
//!
//! The committed baseline lives in `BENCH_fleet.json`; `repro bench fleet
//! --check <baseline>` applies [`GATES`] against it.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::alloc_track;
use crate::fleet::{run_fleet_resilient, FleetEngine, ResilientFleet};
use crate::perf::{Bench, Gate, Kind};
use crate::resilient::ResilienceConfig;
use crate::sweep::default_jobs;
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::FleetSpec;

/// Throughput of one fleet arm over the benchmark population.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetThroughput {
    /// Arm label.
    pub engine: String,
    /// Devices simulated.
    pub devices: u64,
    /// Frames per device.
    pub frames: usize,
    /// Wall-clock time for the whole arm (sampling + traces + simulation +
    /// reduction), in seconds.
    pub elapsed_secs: f64,
    /// Simulated devices completed per minute of wall-clock.
    pub devices_per_min: f64,
    /// Heap bytes allocated during the arm (0 when no counting allocator is
    /// installed, e.g. under `cargo test`).
    pub bytes_allocated: u64,
    /// Heap allocation calls during the arm (0 without the allocator).
    pub allocations: u64,
}

/// The full benchmark result: both arms plus the headline ratio.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetBench {
    /// Population label.
    pub population: String,
    /// Whether this was the reduced CI smoke workload.
    pub quick: bool,
    /// Devices in the population.
    pub devices: u64,
    /// Frames per device.
    pub frames: usize,
    /// Shards the population was split into.
    pub shards: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// The production arm: the batched engine (`run_batch` lanes).
    pub batched: FleetThroughput,
    /// The oracle arm: one `Simulator` run per device.
    pub per_device: FleetThroughput,
    /// `batched.devices_per_min / per_device.devices_per_min`.
    pub batch_speedup: f64,
}

/// Frames simulated per device — one second of simulated time at 60 Hz:
/// long enough for the pacers to settle and janks to accumulate, short
/// enough that a population is millions of devices, not millions of
/// minutes.
pub const FRAMES_PER_DEVICE: usize = 60;

/// The benchmark population. Quick mode is the CI smoke slice; both modes
/// use the same mixed default population (device models, refresh rates,
/// buffer depths, workload mixes, fault profiles).
pub fn bench_population(quick: bool) -> FleetSpec {
    let devices = if quick { 20_000 } else { 200_000 };
    FleetSpec::default_population("bench", devices, FRAMES_PER_DEVICE)
}

fn run_arm(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    engine: FleetEngine,
) -> DvsResult<(ResilientFleet, FleetThroughput)> {
    let alloc_start = alloc_track::snapshot();
    let start = Instant::now();
    let out = run_fleet_resilient(spec, shards, jobs, engine, &ResilienceConfig::default())?;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let alloc = alloc_track::delta_since(alloc_start);
    if let Some(q) = out.report.quarantine.entries.first() {
        return Err(DvsError::CellFailed {
            key: q.key.clone(),
            cause: format!("benchmark shard quarantined without injected faults: {}", q.cause),
        });
    }
    let throughput = FleetThroughput {
        engine: engine.name().to_string(),
        devices: spec.devices,
        frames: spec.frames,
        elapsed_secs: elapsed,
        devices_per_min: spec.devices as f64 / elapsed * 60.0,
        bytes_allocated: alloc.bytes,
        allocations: alloc.allocs,
    };
    Ok((out, throughput))
}

/// Runs both arms over `spec` and cross-checks their reports.
///
/// # Errors
///
/// Fails if either arm quarantines a shard, or if the batched report is not
/// byte-identical to the per-device report — a correctness failure, not a
/// performance one.
pub fn run_population(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    quick: bool,
) -> DvsResult<FleetBench> {
    let (batched_out, batched) = run_arm(spec, shards, jobs, FleetEngine::Batched)?;
    let (solo_out, per_device) = run_arm(spec, shards, jobs, FleetEngine::PerDevice)?;
    if batched_out.report.to_json()? != solo_out.report.to_json()? {
        return Err(DvsError::GoldenMismatch {
            path: "the per-device oracle".into(),
            detail: format!("population '{}': batched fleet report diverged", spec.name),
        });
    }
    let batch_speedup = batched.devices_per_min / per_device.devices_per_min.max(1e-9);
    Ok(FleetBench {
        population: spec.name.clone(),
        quick,
        devices: spec.devices,
        frames: spec.frames,
        shards,
        jobs,
        batched,
        per_device,
        batch_speedup,
    })
}

/// Runs the full comparison. `quick` selects the reduced CI workload.
pub fn run(quick: bool) -> DvsResult<FleetBench> {
    let spec = bench_population(quick);
    let jobs = default_jobs();
    // Enough shards that every worker stays busy through the tail, few
    // enough that per-shard setup is noise. Shard count never changes the
    // report bytes, only the work partition.
    let shards = (jobs * 8).max(16);
    run_population(&spec, shards, jobs, quick)
}

/// Renders the comparison as an aligned text table.
pub fn render(b: &FleetBench) -> String {
    let mut out = String::from("Fleet throughput (SoA batch kernel vs per-device oracle)\n");
    out.push_str(&format!(
        "population: '{}' — {} devices × {} frames, {} shards, {} jobs\n",
        b.population, b.devices, b.frames, b.shards, b.jobs
    ));
    out.push_str(&format!(
        "{:<12} {:>12} {:>16} {:>16} {:>12}\n",
        "engine", "elapsed (s)", "devices/min", "bytes alloc'd", "allocs"
    ));
    for arm in [&b.batched, &b.per_device] {
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>16.0} {:>16} {:>12}\n",
            arm.engine, arm.elapsed_secs, arm.devices_per_min, arm.bytes_allocated, arm.allocations
        ));
    }
    out.push_str(&format!("batch speedup (devices/min): {:.2}x\n", b.batch_speedup));
    out.push_str(&format!(
        "floor: {:.2}M devices/min vs the {:.0}M floor\n",
        b.batched.devices_per_min / 1e6,
        DEVICES_PER_MIN_FLOOR / 1e6
    ));
    out
}

/// The minimum batched-arm throughput any run must show — the fleet's
/// acceptance floor: one million simulated devices per minute.
pub const DEVICES_PER_MIN_FLOOR: f64 = 1_000_000.0;

impl Bench for FleetBench {
    fn quick(&self) -> bool {
        self.quick
    }
}

/// The fleet gates. Throughput is a rate, so its floor applies in quick and
/// full mode alike. The batch speedup is gated against the baseline but has
/// no floor: both arms share the event core, so the ratio measures dispatch
/// overhead, not correctness.
pub const GATES: &[Gate<FleetBench>] = &[
    Gate {
        metric: "batched.devices_per_min",
        value: |b| b.batched.devices_per_min,
        kind: Kind::Floor(DEVICES_PER_MIN_FLOOR),
    },
    Gate {
        metric: "batched.devices_per_min",
        value: |b| b.batched.devices_per_min,
        kind: Kind::Drop(0.20),
    },
    Gate { metric: "batch_speedup", value: |b| b.batch_speedup, kind: Kind::Drop(0.20) },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_population_arms_agree_and_roundtrip_through_json() {
        // run_population fails if the arms diverge.
        let spec = FleetSpec::tiny(60, 24);
        let b = run_population(&spec, 4, 2, true).unwrap();
        assert_eq!(b.devices, 60);
        assert!(b.batched.devices_per_min > 0.0);
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: FleetBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, b.shards);
        assert!(render(&back).contains("devices/min"));
        assert!(render(&back).contains("batch speedup"));
    }
}
