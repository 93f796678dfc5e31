//! Every call the benchmark makes into an API the roadmap plans to remove
//! or reshape: the fleet engine selector (`FleetEngine`, whose batched arm
//! is `run_batch`) and the `Simulator::run*` family. When those APIs
//! change, this is the one file of the benchmark that follows them.

use std::path::Path;

use dvs_bench::{
    fleet_fingerprint, run_fleet_resilient_with, FleetEngine, ResilienceConfig, ResilientFleet,
};
use dvs_faults::FaultPlan;
use dvs_metrics::RunReport;
use dvs_pipeline::{CoreStats, FramePacer, PipelineConfig, RunArena, Simulator};
use dvs_sim::DvsResult;
use dvs_workload::{FleetSpec, FrameTrace};

/// The production fleet engine, as `repro fleet` selects it by default.
const ENGINE: FleetEngine = FleetEngine::Batched;

/// Runs a whole population through the production fleet path.
pub fn run_fleet(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    cfg: &ResilienceConfig,
    trace_dir: Option<&Path>,
) -> DvsResult<ResilientFleet> {
    run_fleet_resilient_with(spec, shards, jobs, ENGINE, cfg, trace_dir)
}

/// The checkpoint fingerprint the production path writes for `spec`.
pub fn checkpoint_fingerprint(spec: &FleetSpec, shards: usize, cfg: &ResilienceConfig) -> u64 {
    fleet_fingerprint(spec, shards, ENGINE, cfg)
}

/// One pooled simulator run into `out`, faulted when a plan is given; the
/// per-device oracle's call, which the batched engine matches byte for
/// byte.
pub fn simulate_into(
    cfg: &PipelineConfig,
    trace: &FrameTrace,
    pacer: &mut dyn FramePacer,
    plan: Option<&FaultPlan>,
    arena: &mut RunArena,
    out: &mut RunReport,
) -> DvsResult<CoreStats> {
    let sim = Simulator::new(cfg);
    match plan {
        Some(p) => sim.try_run_faulted_into(trace, pacer, p, arena, out),
        None => sim.try_run_into(trace, pacer, arena, out),
    }
}

/// One fresh simulator run, as the `scenes` artefact of `repro --all`
/// makes it.
pub fn simulate(cfg: &PipelineConfig, trace: &FrameTrace, pacer: &mut dyn FramePacer) -> RunReport {
    Simulator::new(cfg).run(trace, pacer)
}
