//! Segmented scenario execution.
//!
//! Real traces are sequences of discrete animations (a fling, an app-open
//! transition) with idle moments in between that drain the buffer queue and
//! reset pipeline depth. [`run_segmented`] executes a scenario one animation
//! segment at a time — fresh buffer queue, fresh pacer state — and merges
//! the observations. This matters for fidelity: without the resets, a
//! VSync pipeline that janked once would keep its deepened queue forever and
//! absorb later key frames for free, which real interactive sessions do not.
//!
//! [`run_segments_into`] is the pooled form: it runs pre-generated segments
//! through a [`RunArena`] into a caller-provided report, one
//! [`Simulator::try_run_into`] per segment, so it validates exactly like a
//! solo run. [`run_segmented`] wraps it with a transient arena; sweep grids
//! and calibration hold one arena per worker thread and run hundreds of
//! scenarios through it allocation-free.

use dvs_metrics::RunReport;
use dvs_sim::DvsError;
use dvs_workload::{FrameTrace, ScenarioSpec};

use crate::config::PipelineConfig;
use crate::core::RunArena;
use crate::pacer::FramePacer;
use crate::simulator::Simulator;

/// Runs every animation segment of `spec` through a fresh pipeline and
/// pacer, merging the reports.
///
/// # Panics
///
/// Panics if the spec produces no frames, or on a zero refresh rate or
/// fewer than two buffers (see [`PipelineConfig::new`]). Fallible callers
/// should use [`run_segments_into`].
pub fn run_segmented<F>(spec: &ScenarioSpec, buffers: usize, make_pacer: F) -> RunReport
where
    F: FnMut() -> Box<dyn FramePacer>,
{
    let cfg = PipelineConfig::new(spec.rate_hz, buffers);
    let segments = spec.generate_segments();
    let (sim, mut arena, mut out) = (Simulator::new(&cfg), RunArena::new(), RunReport::default());
    if let Err(e) = run_segments_into(&sim, &spec.name, &segments, make_pacer, &mut arena, &mut out)
    {
        // dvs-lint: allow(panic, reason = "documented panicking wrapper; fallible callers use run_segments_into")
        panic!("{e}");
    }
    out
}

/// The pooled core of segmented execution: runs pre-generated `segments`
/// (e.g. shared out of a trace cache) one after another through `sim`,
/// each under a fresh pacer from `make_pacer`, merging every segment report
/// into `out`.
///
/// `out` is reset to `name` at the simulator's rate and pre-sized for the
/// total frame count plus the expected mode transitions (at most two per
/// segment: one decouple + one recouple), so a warm arena never reallocates.
///
/// # Errors
///
/// [`DvsError::EmptyTrace`] when there are no segments or one is empty, and
/// [`DvsError::RateMismatch`] when a segment's rate disagrees with the
/// simulator's configuration: the errors of [`Simulator::try_run_into`].
/// After an error `out` holds no meaningful report.
pub fn run_segments_into<F>(
    sim: &Simulator<'_>,
    name: &str,
    segments: &[FrameTrace],
    mut make_pacer: F,
    arena: &mut RunArena,
    out: &mut RunReport,
) -> Result<(), DvsError>
where
    F: FnMut() -> Box<dyn FramePacer>,
{
    if segments.is_empty() {
        return Err(DvsError::EmptyTrace);
    }
    out.reset(name, sim.cfg.rate_hz);
    let frames_total: usize = segments.iter().map(|t| t.len()).sum();
    out.reserve_for(frames_total, 2 * segments.len());
    // The per-segment report slot lives in the arena so repeated segmented
    // runs (calibration measures dozens per scenario) reuse its vectors.
    let mut seg_out = std::mem::take(&mut arena.segment);
    let result = segments.iter().try_for_each(|segment| {
        sim.try_run_into(segment, make_pacer().as_mut(), arena, &mut seg_out)?;
        out.absorb_from(&mut seg_out);
        Ok(())
    });
    arena.segment = seg_out;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
    use dvs_workload::CostProfile;

    fn vsync_pacer() -> Box<dyn FramePacer> {
        Box::new(VsyncPacer::new())
    }

    fn run_segmented_vsync(spec: &ScenarioSpec, buffers: usize) -> RunReport {
        run_segmented(spec, buffers, vsync_pacer)
    }

    #[test]
    fn segments_cover_all_frames() {
        let spec = ScenarioSpec::new("seg", 60, 500, CostProfile::smooth()).with_segment_frames(60);
        let report = run_segmented_vsync(&spec, 3);
        assert_eq!(report.records.len(), 500);
        assert_eq!(report.janks.len(), 0);
    }

    #[test]
    fn segmentation_resets_pipeline_depth() {
        // One heavy frame deepens a continuous VSync run permanently; with
        // per-animation resets, later segments return to two-period latency.
        let spec = ScenarioSpec::new("depth", 60, 600, CostProfile::scattered(2.0))
            .with_paper_fdps(2.0)
            .with_segment_frames(60);
        let segmented = run_segmented_vsync(&spec, 4);
        let continuous = {
            let one = spec.clone().with_segment_frames(600);
            run_segmented_vsync(&one, 4)
        };
        // The continuous run hides later key frames in its deepened queue.
        assert!(
            segmented.janks.len() >= continuous.janks.len(),
            "segmented {} vs continuous {}",
            segmented.janks.len(),
            continuous.janks.len()
        );
    }

    #[test]
    fn remainder_segment_is_kept() {
        let spec = ScenarioSpec::new("rem", 60, 130, CostProfile::smooth()).with_segment_frames(60);
        let segs = spec.generate_segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[2].len(), 10);
        let report = run_segmented_vsync(&spec, 3);
        assert_eq!(report.records.len(), 130);
    }

    #[test]
    fn pooled_segmented_run_matches_fresh_and_reuses_capacity() {
        let spec = ScenarioSpec::new("pool", 60, 400, CostProfile::scattered(2.0))
            .with_paper_fdps(1.5)
            .with_segment_frames(60);
        let fresh = run_segmented_vsync(&spec, 3);
        let cfg = PipelineConfig::new(spec.rate_hz, 3);
        let sim = Simulator::new(&cfg);
        let segments = spec.generate_segments();
        let mut arena = RunArena::new();
        let mut out = RunReport::default();
        run_segments_into(&sim, &spec.name, &segments, vsync_pacer, &mut arena, &mut out)
            .expect("valid segments");
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&out).unwrap(),
            "pooled segmented run must be byte-identical to the fresh path"
        );
        // Second run through the warm arena: still identical, and the output
        // vectors must not have been re-grown (reserve_for sized them fully
        // on the first pass).
        let cap_records = out.records.capacity();
        let cap_janks = out.janks.capacity();
        run_segments_into(&sim, &spec.name, &segments, vsync_pacer, &mut arena, &mut out)
            .expect("valid segments");
        assert_eq!(serde_json::to_string(&fresh).unwrap(), serde_json::to_string(&out).unwrap());
        assert_eq!(out.records.capacity(), cap_records, "records capacity must be stable");
        assert_eq!(out.janks.capacity(), cap_janks, "janks capacity must be stable");
    }

    #[test]
    fn segmented_runs_validate_like_solo_runs() {
        let cfg = PipelineConfig::new(60, 3);
        let sim = Simulator::new(&cfg);
        let mut arena = RunArena::new();
        let mut out = RunReport::default();
        let mut run = |segments: &[FrameTrace]| {
            run_segments_into(&sim, "v", segments, vsync_pacer, &mut arena, &mut out)
        };
        assert_eq!(run(&[]), Err(DvsError::EmptyTrace), "no segments is an empty trace");
        let spec = ScenarioSpec::new("v", 60, 90, CostProfile::smooth()).with_segment_frames(60);
        let mut segments = spec.generate_segments();
        assert_eq!(run(&segments), Ok(()));
        segments.push(FrameTrace::new("hollow", 60));
        assert_eq!(run(&segments), Err(DvsError::EmptyTrace));
        let mut fast = FrameTrace::new("fast", 120);
        fast.frames = segments[0].frames.clone();
        segments[2] = fast;
        assert_eq!(run(&segments), Err(DvsError::RateMismatch { trace_hz: 120, config_hz: 60 }));
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn segmented_run_of_no_frames_panics() {
        run_segmented_vsync(&ScenarioSpec::new("none", 60, 0, CostProfile::smooth()), 3);
    }
}
