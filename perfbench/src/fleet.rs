//! The two fleet workloads: their seeded populations, the production pass,
//! and the traced single-thread pass that times each layer around its
//! public entry point.

use std::path::{Path, PathBuf};

use dvs_bench::{
    fleet_trace_path, CellSlot, Checkpoint, CheckpointConfig, FleetReport, ResilienceConfig,
    ResilientFleet,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::{named_profile, FaultPlan, Horizon};
use dvs_metrics::{FleetSketch, PowerModel, QuarantineReport, RunReport};
use dvs_pipeline::{PipelineConfig, RunArena};
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::{DeviceRun, FleetSpec, FrameTrace};

use crate::adapter;
use crate::span::{Layer, Tracer, ROOT};

/// Shard count of every fleet pass: the production default
/// (`max(8 × jobs, 16)`) at the one or two workers the benchmark uses, so
/// untraced and traced passes share one partition and one checkpoint
/// fingerprint.
pub const SHARDS: usize = 16;

/// The generated population: ~100k devices × 60 frames, ~40 % faulted.
pub fn fleet_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::default_population("bench-fleet", 100_000, 60);
    spec.seed = seed;
    spec
}

/// The replayed population: 10k devices × 600 frames.
pub fn replay_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::default_population("bench-replay", 10_000, 600);
    spec.seed = seed;
    spec
}

/// Where `fleet_replay` keeps its recordings under the work directory.
pub fn trace_dir(work: &Path) -> PathBuf {
    work.join("traces")
}

/// One production pass. With `checkpoint`, the executor writes a checkpoint
/// after every shard; with `replay`, shards decode the recordings.
pub fn run_pass(
    spec: &FleetSpec,
    jobs: usize,
    work: &Path,
    replay: bool,
    checkpoint: Option<&Path>,
) -> DvsResult<ResilientFleet> {
    let cfg = ResilienceConfig {
        checkpoint: checkpoint.map(|p| CheckpointConfig {
            path: p.display().to_string(),
            cadence: 1,
            resume: false,
        }),
        ..ResilienceConfig::default()
    };
    let dir = trace_dir(work);
    let out = adapter::run_fleet(spec, SHARDS, jobs, &cfg, replay.then_some(dir.as_path()));
    if let Some(p) = checkpoint {
        std::fs::remove_file(p).ok();
    }
    out
}

/// The production path's per-device fault plan (`None` for clean devices).
fn plan_for(spec: &FleetSpec, dev: &DeviceRun) -> Option<FaultPlan> {
    if dev.is_clean() {
        None
    } else {
        named_profile(dev.fault_profile, dev.fault_seed_key(&spec.name))
    }
}

/// The production path's fold of one device run into its shard sketch.
fn observe(sketch: &mut FleetSketch, report: &RunReport) {
    let energy_uj = PowerModel::default().energy(report, report.records.len() as u64, 0).total_uj();
    sketch.observe_device(report.fdps(), report.mean_latency_ms(), energy_uj / 1000.0);
}

/// Counts the traced pass gathers outside the spans.
#[derive(Default)]
pub struct Counts {
    /// Whether each device ran faulted, by index.
    pub faulted: Vec<bool>,
    /// Frames simulated.
    pub frames: u64,
    /// Events the simulator core processed.
    pub events: u64,
    /// Bytes of `.dvst` files decoded.
    pub decoded_bytes: u64,
    /// Devices whose recording did not match and were regenerated.
    pub decode_fallbacks: u64,
    /// Checkpoint files written.
    pub checkpoint_writes: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Bytes of the merged sketch's JSON.
    pub sketch_bytes: u64,
}

/// The production fleet path unrolled on one thread, with a span around
/// each layer call. Shards, the per-shard merge order and the per-shard
/// checkpoint mirror the resilient executor, so the report must equal the
/// production pass byte for byte.
///
/// For each faulted device, the plan is also materialized and compiled
/// once more *outside* the device span (a `faults.compile` probe), so the
/// simulator's self time is its span minus that probe.
pub fn traced_pass(
    spec: &FleetSpec,
    work: &Path,
    replay: bool,
    checkpoint: Option<&Path>,
    tracer: &mut Tracer,
) -> DvsResult<(FleetReport, Counts)> {
    let dir = trace_dir(work);
    let fingerprint = adapter::checkpoint_fingerprint(spec, SHARDS, &ResilienceConfig::default());
    let mut counts = Counts { faulted: vec![false; spec.devices as usize], ..Counts::default() };
    let mut arena = RunArena::new();
    let mut merged = FleetSketch::new();
    let mut ckpt = Checkpoint::new(fingerprint, SHARDS);
    for shard in 0..SHARDS {
        let mut sketch = FleetSketch::new();
        for i in spec.shard_range(shard, SHARDS) {
            let device = tracer.open(Layer::Device, ROOT, i);
            let dev = tracer
                .span(Layer::Sample, device, i, || spec.device(i))
                .ok_or_else(|| DvsError::InvalidConfig(format!("no device at index {i}")))?;
            let mut trace = None;
            if replay {
                let path = fleet_trace_path(&dir, i);
                let loaded =
                    tracer.span(Layer::Decode, device, i, || FrameTrace::load_binary(&path));
                if let Ok(t) = loaded {
                    if t.rate_hz == dev.rate_hz && t.len() == spec.frames {
                        counts.decoded_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                        trace = Some(t);
                    }
                }
                counts.decode_fallbacks += u64::from(trace.is_none());
            }
            let trace = match trace {
                Some(t) => t,
                None => tracer.span(Layer::Generate, device, i, || dev.trace()),
            };
            let plan = tracer.span(Layer::Resolve, device, i, || plan_for(spec, &dev));
            let cfg = PipelineConfig::new(dev.rate_hz, dev.buffers);
            let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(dev.buffers));
            let stats = arena.with_scratch_report(|arena, out| {
                let stats = tracer.span(Layer::Sim, device, i, || {
                    adapter::simulate_into(&cfg, &trace, &mut pacer, plan.as_ref(), arena, out)
                })?;
                tracer.span(Layer::Observe, device, i, || observe(&mut sketch, out));
                DvsResult::Ok(stats)
            })?;
            tracer.close(device);
            counts.frames += trace.len() as u64;
            counts.events += stats.events_processed;
            if let Some(plan) = &plan {
                counts.faulted[i as usize] = true;
                let frames = trace.len() as u64;
                let ticks = cfg.tick_cap(trace.len());
                let horizon = Horizon::new(frames, ticks, cfg.rate().period());
                let compiled = tracer.span(Layer::Compile, ROOT, i, || {
                    plan.materialize(&horizon).compile(ticks, frames)
                });
                std::hint::black_box(compiled);
            }
        }
        tracer.span(Layer::Merge, ROOT, shard as u64, || merged.try_merge(&sketch))?;
        if let Some(path) = checkpoint {
            ckpt.slots[shard] = Some(CellSlot {
                ok: Some(serde_json::to_string(&sketch).map_err(|e| {
                    DvsError::InvalidConfig(format!("shard sketch serialization: {e}"))
                })?),
                quarantined: None,
                attempts: 1,
            });
            tracer.span(Layer::Checkpoint, ROOT, shard as u64, || ckpt.save(path))?;
            counts.checkpoint_writes += 1;
            counts.checkpoint_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
    }
    if let Some(path) = checkpoint {
        std::fs::remove_file(path).ok();
    }
    counts.sketch_bytes = serde_json::to_string(&merged).map_or(0, |s| s.len() as u64);
    let report = FleetReport {
        label: spec.name.clone(),
        devices: spec.devices,
        frames_per_device: spec.frames,
        sketch: merged,
        quarantine: QuarantineReport::new(),
    };
    Ok((report, counts))
}
