//! Sweep-scale throughput: the classic per-call sweep path vs the shared
//! grid cache + pooled arenas + streaming aggregates.
//!
//! The workload is a **buffer-ablation ladder** — the suite measured once
//! per D-VSync buffer count (4, 5, 6, 7 queue slots), four suite calls over
//! the *same* scenarios. That is the shape real evaluation flows have
//! (ablations, rate ladders, parameter studies), and it is exactly where the
//! classic path is redundant: every call recalibrates every scenario from
//! scratch and every cell regenerates its trace. The optimized arm shares
//! one [`GridCache`] across all four calls, runs cells through per-worker
//! [`dvs_pipeline::RunArena`]s, and streams frames into aggregates instead
//! of materialising record vectors. Both arms run single-threaded so the
//! ratio isolates the redundancy/allocation work, not parallelism, making
//! it insensitive to runner hardware.
//!
//! Both arms must produce byte-identical suite rows — [`run_ladder`] asserts
//! that in-run before reporting any numbers.
//!
//! `repro bench sweep` drives this module; `--emit-json` writes the
//! machine-readable result (`BENCH_sweep.json` by convention, committed as
//! the CI regression baseline) and `--check <baseline>` applies [`GATES`]
//! against it.

use std::time::Instant;

use dvs_workload::ScenarioSpec;
use serde::{Deserialize, Serialize};

use crate::alloc_track;
use crate::calibration;
use crate::perf::{Bench, Gate, Kind};
use crate::resilient::{run_suite_resilient, ResilienceConfig};
use crate::sweep::{run_suite_cached, GridCache, SweepMode, SweepStats};

/// Throughput of one sweep arm over the ladder workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepThroughput {
    /// Arm label.
    pub mode: String,
    /// Suite calls in the ladder.
    pub calls: usize,
    /// Grid cells measured across all calls.
    pub cells: usize,
    /// Wall-clock time for the whole arm, in seconds.
    pub elapsed_secs: f64,
    /// Grid cells completed per second.
    pub cells_per_sec: f64,
    /// Heap bytes allocated during the arm (0 when no counting allocator is
    /// installed, e.g. under `cargo test`).
    pub bytes_allocated: u64,
    /// Heap allocation calls during the arm (0 without the allocator).
    pub allocations: u64,
}

/// The full benchmark result: both arms plus the headline speedup.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepBench {
    /// Workload label.
    pub suite: String,
    /// Whether this was the reduced CI smoke workload.
    pub quick: bool,
    /// Scenarios per suite call.
    pub scenarios: usize,
    /// Baseline (VSync) buffer count.
    pub baseline_buffers: usize,
    /// The D-VSync buffer count of each ladder call.
    pub ladder: Vec<usize>,
    /// The classic arm: full records, no cache, fresh state per cell.
    pub classic: SweepThroughput,
    /// The optimized arm: shared cache, pooled arenas, streaming aggregates.
    pub optimized: SweepThroughput,
    /// The resilient arm: the optimized pipeline behind the resilient
    /// executor — `catch_unwind` per cell, retry budget armed, checkpoint
    /// cadence 0 (disabled) — measuring what the resilience plumbing costs
    /// when no fault fires.
    pub resilient: SweepThroughput,
    /// `optimized.cells_per_sec / classic.cells_per_sec`.
    pub speedup: f64,
    /// `resilient.cells_per_sec / classic.cells_per_sec` — must clear the
    /// same floor as the optimized arm.
    pub resilient_speedup: f64,
    /// Resilience plumbing cost relative to the optimized arm, in percent
    /// (`(resilient.elapsed / optimized.elapsed − 1) × 100`; expected <2%).
    pub resilience_overhead_pct: f64,
    /// Grid-cache lookups served without recalibrating.
    pub cache_hits: u64,
    /// Grid-cache lookups that calibrated (one per scenario).
    pub cache_misses: u64,
}

/// The benchmark scenario set. Quick mode keeps every fifth scenario — the
/// same 15-case slice of suite75 that the simulator-core smoke bench uses.
pub fn bench_specs(quick: bool) -> Vec<ScenarioSpec> {
    crate::suite75::bench_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 5 == 0)
        .map(|(_, spec)| spec)
        .collect()
}

/// The default ladder: one suite call per D-VSync queue depth.
pub const DEFAULT_LADDER: [usize; 4] = [4, 5, 6, 7];

const BASELINE_BUFFERS: usize = 3;

/// Runs both arms of the ladder over `specs`, `reps` times each, and
/// cross-checks their rows. Repetitions behave like an evaluation flow
/// re-running the ablation: the classic arm recalibrates every call, the
/// optimized arm keeps sharing one cache.
///
/// # Panics
///
/// Panics if any ladder call's optimized rows are not byte-identical to the
/// classic rows — a correctness failure, not a performance one.
pub fn run_ladder(
    suite: &str,
    specs: &[ScenarioSpec],
    ladder: &[usize],
    reps: usize,
    quick: bool,
) -> SweepBench {
    let cells_per_call = specs.len() * 2;
    let cells = cells_per_call * ladder.len() * reps;

    // Classic arm: every call recalibrates, every cell regenerates and
    // materialises a fresh full-record report (the pre-cache behaviour).
    // Every arm empties the process-wide calibration memo first, so none
    // reuses an earlier arm's fits.
    calibration::clear();
    let alloc_start = alloc_track::snapshot();
    let start = Instant::now();
    let classic_results: Vec<String> = ladder
        .iter()
        .cycle()
        .take(ladder.len() * reps)
        .map(|&b| {
            let sweep = run_suite_cached(
                &format!("{suite} — {b} buffers"),
                specs,
                BASELINE_BUFFERS,
                &[b],
                1,
                SweepMode::FullRecords,
                None,
            );
            serde_json::to_string(&sweep.result).expect("suite results serialise")
        })
        .collect();
    let classic_elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let classic_alloc = alloc_track::delta_since(alloc_start);

    // Optimized arm: one cache shared by every call, pooled arenas,
    // streaming aggregates.
    calibration::clear();
    let alloc_start = alloc_track::snapshot();
    let start = Instant::now();
    let cache = GridCache::for_suite(specs, BASELINE_BUFFERS);
    let mut stats = SweepStats::default();
    let optimized_results: Vec<String> = ladder
        .iter()
        .cycle()
        .take(ladder.len() * reps)
        .map(|&b| {
            let sweep = run_suite_cached(
                &format!("{suite} — {b} buffers"),
                specs,
                BASELINE_BUFFERS,
                &[b],
                1,
                SweepMode::Aggregate,
                Some(&cache),
            );
            stats = sweep.stats;
            serde_json::to_string(&sweep.result).expect("suite results serialise")
        })
        .collect();
    let optimized_elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let optimized_alloc = alloc_track::delta_since(alloc_start);

    // Resilient arm: the optimized configuration executed by the resilient
    // layer with no faults injected and checkpointing disabled (cadence 0) —
    // isolating the cost of per-cell catch_unwind and completion publishing.
    // Its own fresh cache keeps the optimized arm's cache counters clean.
    calibration::clear();
    let alloc_start = alloc_track::snapshot();
    let start = Instant::now();
    let resilient_cache = GridCache::for_suite(specs, BASELINE_BUFFERS);
    let resilient_results: Vec<String> = ladder
        .iter()
        .cycle()
        .take(ladder.len() * reps)
        .map(|&b| {
            let sweep = run_suite_resilient(
                &format!("{suite} — {b} buffers"),
                specs,
                BASELINE_BUFFERS,
                &[b],
                1,
                SweepMode::Aggregate,
                Some(&resilient_cache),
                &ResilienceConfig::default(),
            )
            .expect("resilient arm cannot fail without injected faults");
            serde_json::to_string(&sweep.report.result).expect("suite results serialise")
        })
        .collect();
    let resilient_elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let resilient_alloc = alloc_track::delta_since(alloc_start);

    for (i, (classic, optimized)) in classic_results.iter().zip(&optimized_results).enumerate() {
        assert_eq!(
            classic, optimized,
            "ladder call {i}: optimized rows diverged from the classic rows"
        );
        assert_eq!(
            classic, &resilient_results[i],
            "ladder call {i}: resilient rows diverged from the classic rows"
        );
    }

    let classic = SweepThroughput {
        mode: "classic (full records, no cache)".to_string(),
        calls: ladder.len() * reps,
        cells,
        elapsed_secs: classic_elapsed,
        cells_per_sec: cells as f64 / classic_elapsed,
        bytes_allocated: classic_alloc.bytes,
        allocations: classic_alloc.allocs,
    };
    let optimized = SweepThroughput {
        mode: "optimized (shared cache, pooled arenas, aggregates)".to_string(),
        calls: ladder.len() * reps,
        cells,
        elapsed_secs: optimized_elapsed,
        cells_per_sec: cells as f64 / optimized_elapsed,
        bytes_allocated: optimized_alloc.bytes,
        allocations: optimized_alloc.allocs,
    };
    let resilient = SweepThroughput {
        mode: "resilient (optimized + catch_unwind, checkpoint off)".to_string(),
        calls: ladder.len() * reps,
        cells,
        elapsed_secs: resilient_elapsed,
        cells_per_sec: cells as f64 / resilient_elapsed,
        bytes_allocated: resilient_alloc.bytes,
        allocations: resilient_alloc.allocs,
    };
    let speedup = optimized.cells_per_sec / classic.cells_per_sec.max(1e-9);
    let resilient_speedup = resilient.cells_per_sec / classic.cells_per_sec.max(1e-9);
    let resilience_overhead_pct = (resilient_elapsed / optimized_elapsed.max(1e-9) - 1.0) * 100.0;
    SweepBench {
        suite: suite.to_string(),
        quick,
        scenarios: specs.len(),
        baseline_buffers: BASELINE_BUFFERS,
        ladder: ladder.to_vec(),
        classic,
        optimized,
        resilient,
        speedup,
        resilient_speedup,
        resilience_overhead_pct,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    }
}

/// Runs the full comparison. `quick` selects the reduced CI workload.
pub fn run(quick: bool) -> SweepBench {
    let specs = bench_specs(quick);
    let suite = if quick {
        "suite75 buffer ladder (quick: every 5th case)"
    } else {
        "suite75 buffer ladder"
    };
    run_ladder(suite, &specs, &DEFAULT_LADDER, 3, quick)
}

/// Renders the comparison as an aligned text table.
pub fn render(b: &SweepBench) -> String {
    let mut out = String::from("Sweep throughput (classic path vs cache + arenas + aggregates)\n");
    out.push_str(&format!(
        "workload: {} — {} scenarios × {} ladder calls, {} cells per arm\n",
        b.suite,
        b.scenarios,
        b.ladder.len(),
        b.classic.cells
    ));
    out.push_str(&format!(
        "{:<52} {:>12} {:>14} {:>16} {:>12}\n",
        "arm", "elapsed (s)", "cells/sec", "bytes alloc'd", "allocs"
    ));
    for arm in [&b.classic, &b.optimized, &b.resilient] {
        out.push_str(&format!(
            "{:<52} {:>12.4} {:>14.1} {:>16} {:>12}\n",
            arm.mode, arm.elapsed_secs, arm.cells_per_sec, arm.bytes_allocated, arm.allocations
        ));
    }
    out.push_str(&format!("speedup (cells/sec): {:.1}x\n", b.speedup));
    out.push_str(&format!(
        "resilient speedup: {:.1}x (plumbing overhead vs optimized: {:+.2}%)\n",
        b.resilient_speedup, b.resilience_overhead_pct
    ));
    out.push_str(&format!("trace cache: {} hits, {} misses\n", b.cache_hits, b.cache_misses));
    out
}

impl Bench for SweepBench {
    fn quick(&self) -> bool {
        self.quick
    }
}

/// The sweep gates. Both speedups compare arms of the same run, so their 3×
/// floors are insensitive to runner hardware; the resilient arm clears the
/// same floor, which is what would catch expensive resilience plumbing. The
/// optimized arm must also allocate fewer bytes than the classic one.
pub const GATES: &[Gate<SweepBench>] = &[
    Gate { metric: "speedup", value: |b| b.speedup, kind: Kind::Floor(3.0) },
    Gate { metric: "resilient_speedup", value: |b| b.resilient_speedup, kind: Kind::Floor(3.0) },
    Gate {
        metric: "optimized.bytes_allocated",
        value: |b| b.optimized.bytes_allocated as f64,
        kind: Kind::Below("classic.bytes_allocated", |b| b.classic.bytes_allocated as f64),
    },
    Gate { metric: "speedup", value: |b| b.speedup, kind: Kind::Drop(0.20) },
    Gate {
        metric: "optimized.cells_per_sec",
        value: |b| b.optimized.cells_per_sec,
        kind: Kind::Drop(0.20),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("ladder a", 60, 240, CostProfile::scattered(1.0))
                .with_paper_fdps(2.0),
            ScenarioSpec::new("ladder b", 120, 240, CostProfile::clustered(1.0))
                .with_paper_fdps(3.0),
        ]
    }

    #[test]
    fn ladder_arms_agree_and_roundtrip_through_json() {
        // run_ladder panics internally if the arms' rows diverge.
        let bench = run_ladder("tiny ladder", &tiny_specs(), &[4, 5], 2, true);
        assert_eq!(bench.classic.cells, 2 * 2 * 2 * 2);
        assert_eq!(bench.cache_misses, 2, "one calibration per scenario across the whole ladder");
        assert_eq!(bench.cache_hits, 6, "three further calls reuse both fits");
        let json = serde_json::to_string_pretty(&bench).unwrap();
        let back: SweepBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenarios, bench.scenarios);
        assert!(render(&back).contains("speedup"));
        assert!(render(&back).contains("trace cache"));
    }
}
