//! Differential wall around the fleet layer.
//!
//! Two independent equivalences, both byte-for-byte on serialized output:
//!
//! * the **batched engine** (`run_batch`) vs per-device [`Simulator`]
//!   runs — K ∈ {1, 2, 7, 64} lanes, clean and fault-injected, and for
//!   K = 1 against *both* execution cores (event heap and the reference
//!   tick-stepper), so the batch path is transitively pinned to the
//!   retained reference semantics;
//! * the sketch-reduced **fleet report** vs itself under every execution
//!   shape — worker count (`--jobs 1` vs `4`), shard count, shard order,
//!   and engine — which is what makes fleet results reproducible claims
//!   rather than run artifacts.

use dvs_bench::{run_fleet_resilient, run_fleet_shard, FleetEngine, ResilienceConfig};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::{named_profile, FaultPlan, StochasticFault, StochasticKind};
use dvs_metrics::{FleetSketch, RunReport};
use dvs_pipeline::{run_batch, BatchLane, PipelineConfig, RunArena, SimCore, Simulator};
use dvs_sim::SimDuration;
use dvs_workload::{CostProfile, FleetSpec, FrameTrace, ScenarioSpec};

const RATE_HZ: u32 = 60;
const BUFFERS: usize = 4;

fn pacer() -> DvsyncPacer {
    DvsyncPacer::new(DvsyncConfig::with_buffers(BUFFERS))
}

/// A per-lane trace: lengths, costs, and seeds all vary with the index so
/// no two lanes are on the same schedule.
fn lane_trace(k: usize, i: usize) -> FrameTrace {
    let cost = match i % 3 {
        0 => CostProfile::scattered(1.0 + i as f64 / 2.0),
        1 => CostProfile::clustered(0.5 + i as f64 / 3.0),
        _ => CostProfile::smooth(),
    };
    ScenarioSpec::new(format!("fleet-diff/{k}/{i}"), RATE_HZ, 30 + 7 * i, cost).generate()
}

/// Every second lane gets a fault plan, cycling through the named profiles.
fn lane_plan(k: usize, i: usize, faulted: bool) -> Option<FaultPlan> {
    if !faulted || i.is_multiple_of(2) {
        return None;
    }
    let profiles = ["gpu-spikes", "ui-pauses", "vsync-noise", "mixed"];
    named_profile(profiles[i % profiles.len()], format!("fleet-diff/{k}/{i}"))
}

fn solo_json(
    cfg: &PipelineConfig,
    trace: &FrameTrace,
    plan: &Option<FaultPlan>,
    core: SimCore,
) -> String {
    let sim = Simulator::new(cfg).with_core(core);
    let mut pacer = pacer();
    let report = match plan {
        Some(p) => sim.run_faulted(trace, &mut pacer, p).expect("valid trace"),
        None => sim.try_run(trace, &mut pacer).expect("valid trace"),
    };
    serde_json::to_string(&report).expect("reports serialize")
}

/// Runs K lanes batched and asserts each lane's report byte-identical to a
/// solo event-heap run of the same device.
fn assert_batch_matches_solo(k: usize, faulted: bool) {
    let cfg = PipelineConfig::new(RATE_HZ, BUFFERS);
    let mut lanes: Vec<BatchLane<DvsyncPacer>> = (0..k)
        .map(|i| BatchLane::new(lane_trace(k, i), lane_plan(k, i, faulted), pacer()))
        .collect();
    run_batch(&cfg, &mut lanes).expect("batch runs");
    for (i, lane) in lanes.iter().enumerate() {
        let batched = serde_json::to_string(&lane.out).expect("reports serialize");
        let solo = solo_json(&cfg, &lane.trace, &lane.plan, SimCore::EventHeap);
        assert_eq!(batched, solo, "K={k} faulted={faulted}: lane {i} diverged from solo run");
    }
}

#[test]
fn batch_kernel_matches_per_device_runs_clean() {
    for k in [1, 2, 7, 64] {
        assert_batch_matches_solo(k, false);
    }
}

#[test]
fn batch_kernel_matches_per_device_runs_faulted() {
    for k in [1, 2, 7, 64] {
        assert_batch_matches_solo(k, true);
    }
}

#[test]
fn single_lane_batch_matches_both_cores() {
    let cfg = PipelineConfig::new(RATE_HZ, BUFFERS);
    for faulted in [false, true] {
        // i = 1 so the faulted pass actually carries a plan.
        let trace = lane_trace(1, 1);
        let plan = lane_plan(1, 1, faulted);
        let mut lanes = vec![BatchLane::new(trace, plan, pacer())];
        run_batch(&cfg, &mut lanes).expect("batch runs");
        let batched = serde_json::to_string(&lanes[0].out).expect("reports serialize");
        for core in [SimCore::EventHeap, SimCore::Reference] {
            let solo = solo_json(&cfg, &lanes[0].trace, &lanes[0].plan, core);
            assert_eq!(batched, solo, "faulted={faulted}: batch diverged from {core:?} core");
        }
    }
}

/// An allocation failure at every tick (p = 1.0) wedges the render stage
/// until the safety tick cap, so the lazy fault stream is drawn all the way
/// to its horizon. The truncated reports must still agree byte for byte:
/// event heap vs reference core, batched lanes vs per-device runs, and a
/// warm pooled arena vs a fresh one.
#[test]
fn wedged_alloc_runs_truncate_identically_across_cores_and_engines() {
    let cfg = PipelineConfig::new(RATE_HZ, BUFFERS);
    let plan = FaultPlan::new("wedged").with_stochastic(StochasticFault {
        kind: StochasticKind::AllocFail,
        probability: 1.0,
        magnitude: SimDuration::ZERO,
    });
    let mut lanes: Vec<BatchLane<DvsyncPacer>> =
        (0..3).map(|i| BatchLane::new(lane_trace(3, i), Some(plan.clone()), pacer())).collect();
    run_batch(&cfg, &mut lanes).expect("batch runs");
    // One arena across lanes, longest first: each run reuses fault tables
    // a longer wedged stream grew, and a clean run comes last.
    let mut warm = RunArena::new();
    let sim = Simulator::new(&cfg);
    for (i, lane) in lanes.iter().enumerate().rev() {
        assert!(lane.out.truncated, "lane {i}: a wedged run must hit the tick cap");
        let batched = serde_json::to_string(&lane.out).expect("reports serialize");
        for core in [SimCore::EventHeap, SimCore::Reference] {
            let solo = solo_json(&cfg, &lane.trace, &lane.plan, core);
            assert_eq!(batched, solo, "lane {i}: batch diverged from the {core:?} core");
        }
        let mut out = RunReport::default();
        sim.try_run_faulted_into(&lane.trace, &mut pacer(), &plan, &mut warm, &mut out)
            .expect("valid trace");
        let pooled = serde_json::to_string(&out).expect("reports serialize");
        assert_eq!(batched, pooled, "lane {i}: a warm arena changed the bytes");
    }
    let mut out = RunReport::default();
    sim.try_run_into(&lanes[0].trace, &mut pacer(), &mut warm, &mut out).expect("valid trace");
    let clean = solo_json(&cfg, &lanes[0].trace, &None, SimCore::EventHeap);
    assert_eq!(serde_json::to_string(&out).expect("reports serialize"), clean, "tables leaked");
}

// ---------------------------------------------------------------------------
// Fleet-report invariance: the sketch-reduced population distribution is a
// pure function of the spec, whatever the execution shape.
// ---------------------------------------------------------------------------

fn fleet_json(spec: &FleetSpec, shards: usize, jobs: usize, engine: FleetEngine) -> String {
    run_fleet_resilient(spec, shards, jobs, engine, &ResilienceConfig::default())
        .expect("fleet run succeeds")
        .report
        .to_json()
        .expect("fleet reports serialize")
}

#[test]
fn fleet_report_is_invariant_under_jobs_shards_and_engine() {
    let spec = FleetSpec::tiny(72, 18);
    let base = fleet_json(&spec, 1, 1, FleetEngine::Batched);
    for (shards, jobs) in [(1, 4), (4, 1), (4, 4), (9, 4), (72, 1)] {
        assert_eq!(
            fleet_json(&spec, shards, jobs, FleetEngine::Batched),
            base,
            "batched report changed under shards={shards} jobs={jobs}"
        );
    }
    for (shards, jobs) in [(1, 1), (4, 4)] {
        assert_eq!(
            fleet_json(&spec, shards, jobs, FleetEngine::PerDevice),
            base,
            "per-device report changed under shards={shards} jobs={jobs}"
        );
    }
}

#[test]
fn shard_sketches_merge_to_the_same_bytes_in_any_order() {
    let spec = FleetSpec::tiny(50, 15);
    let shards = 7;
    let mut arena = RunArena::new();
    let sketches: Vec<FleetSketch> = (0..shards)
        .map(|s| run_fleet_shard(&spec, s, shards, FleetEngine::Batched, &mut arena))
        .collect();

    let merge = |order: &[usize]| {
        let mut total = FleetSketch::new();
        for &s in order {
            total.try_merge(&sketches[s]).expect("same-shape sketches merge");
        }
        serde_json::to_string(&total).expect("sketches serialize")
    };
    let forward: Vec<usize> = (0..shards).collect();
    let backward: Vec<usize> = (0..shards).rev().collect();
    let interleaved = [3, 0, 6, 1, 5, 2, 4];
    let base = merge(&forward);
    assert_eq!(merge(&backward), base, "reverse merge order changed the bytes");
    assert_eq!(merge(&interleaved), base, "shuffled merge order changed the bytes");
}
