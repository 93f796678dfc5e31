//! Trace-codec benchmark: the compact binary format vs JSON over suite75.
//!
//! The tentpole claim this measures: the delta-encoded binary container
//! (`dvs_workload::codec`) stores the benchmark corpus ≥ 5× smaller than
//! the JSON record/replay format **and** decodes it ≥ 5× faster. Binary
//! replay is byte-identical to JSON replay — the differential suite pins
//! that — so the comparison here is pure I/O cost.
//!
//! The size ratio is a *pure function* of the committed encoder and the
//! suite75 corpus: both modes encode the full corpus, so the ratio is
//! deterministic run to run and the committed baseline gates it exactly.
//! Quick mode only reduces the timed decode passes (the noisy part).
//!
//! `repro bench trace` drives this module from the command line;
//! `--emit-json` writes the machine-readable result (`BENCH_trace.json` by
//! convention, committed as the CI regression baseline) and
//! `--check <baseline>` applies [`GATES`] against it.

use std::time::Instant;

use dvs_workload::FrameTrace;
use serde::{Deserialize, Serialize};

use crate::perf::{Bench, Gate, Kind};

/// Decode throughput of one trace format over the benchmark corpus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecodeThroughput {
    /// Format label (`"binary"` or `"json"`).
    pub format: String,
    /// Passes over the whole encoded corpus.
    pub reps: usize,
    /// Wall-clock time for all passes, in seconds.
    pub elapsed_secs: f64,
    /// Frames decoded per second.
    pub frames_per_sec: f64,
    /// Encoded bytes consumed per second.
    pub bytes_per_sec: f64,
}

/// The full benchmark result: corpus footprint in both formats plus decode
/// throughput for each.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceBench {
    /// Workload label.
    pub suite: String,
    /// Whether the timed passes used the reduced CI rep counts.
    pub quick: bool,
    /// Scenarios encoded.
    pub scenarios: usize,
    /// Total frames encoded.
    pub frames: usize,
    /// Corpus footprint as JSON, in bytes.
    pub json_bytes: u64,
    /// Corpus footprint in the binary container, in bytes.
    pub binary_bytes: u64,
    /// JSON bytes per frame.
    pub json_bytes_per_frame: f64,
    /// Binary bytes per frame.
    pub binary_bytes_per_frame: f64,
    /// `json_bytes / binary_bytes` — the headline compression claim.
    pub size_ratio: f64,
    /// JSON decode throughput.
    pub json_decode: DecodeThroughput,
    /// Binary decode throughput.
    pub binary_decode: DecodeThroughput,
    /// `binary_decode.frames_per_sec / json_decode.frames_per_sec` — the
    /// headline decode claim.
    pub decode_speedup: f64,
}

/// Encodes the full suite75 benchmark corpus both ways. Returns the traces
/// alongside their serialized forms so the timed passes decode exactly what
/// was measured for size.
fn encoded_corpus() -> (Vec<FrameTrace>, Vec<String>, Vec<Vec<u8>>) {
    let traces: Vec<FrameTrace> =
        crate::suite75::bench_suite().iter().map(|spec| spec.generate()).collect();
    let json: Vec<String> =
        traces.iter().map(|t| t.to_json().expect("generated traces serialize")).collect();
    let binary: Vec<Vec<u8>> =
        traces.iter().map(|t| t.to_binary().expect("generated traces encode")).collect();
    (traces, json, binary)
}

/// Times `reps` decode passes over pre-encoded payloads.
fn measure_decode(
    format: &str,
    reps: usize,
    frames: usize,
    bytes: u64,
    mut pass: impl FnMut(),
) -> DecodeThroughput {
    let start = Instant::now();
    for _ in 0..reps {
        pass();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    DecodeThroughput {
        format: format.to_string(),
        reps,
        elapsed_secs: elapsed,
        frames_per_sec: (frames * reps) as f64 / elapsed,
        bytes_per_sec: (bytes * reps as u64) as f64 / elapsed,
    }
}

/// Runs the full comparison. `quick` reduces the timed decode passes; the
/// size measurement always covers the whole corpus.
pub fn run(quick: bool) -> TraceBench {
    let (traces, json, binary) = encoded_corpus();
    measure_corpus("suite75", quick, if quick { 2 } else { 10 }, &traces, &json, &binary)
}

/// Measures sizes and times `reps` decode passes per format over one
/// pre-encoded corpus.
fn measure_corpus(
    suite: &str,
    quick: bool,
    reps: usize,
    traces: &[FrameTrace],
    json: &[String],
    binary: &[Vec<u8>],
) -> TraceBench {
    let frames: usize = traces.iter().map(|t| t.len()).sum();
    let json_bytes: u64 = json.iter().map(|s| s.len() as u64).sum();
    let binary_bytes: u64 = binary.iter().map(|b| b.len() as u64).sum();

    let binary_decode = measure_decode("binary", reps, frames, binary_bytes, || {
        for b in binary {
            let t = FrameTrace::from_binary(b).expect("benchmark payloads are valid");
            assert!(!t.is_empty());
        }
    });
    let json_decode = measure_decode("json", reps, frames, json_bytes, || {
        for s in json {
            let t = FrameTrace::from_json(s).expect("benchmark payloads are valid");
            assert!(!t.is_empty());
        }
    });

    TraceBench {
        suite: suite.to_string(),
        quick,
        scenarios: traces.len(),
        frames,
        json_bytes,
        binary_bytes,
        json_bytes_per_frame: json_bytes as f64 / frames.max(1) as f64,
        binary_bytes_per_frame: binary_bytes as f64 / frames.max(1) as f64,
        size_ratio: json_bytes as f64 / binary_bytes.max(1) as f64,
        decode_speedup: binary_decode.frames_per_sec / json_decode.frames_per_sec.max(1e-9),
        json_decode,
        binary_decode,
    }
}

/// Renders the comparison as an aligned text table.
pub fn render(b: &TraceBench) -> String {
    let mut out = String::from("Trace-codec footprint and decode throughput (binary vs JSON)\n");
    out.push_str(&format!(
        "corpus: {} — {} scenarios, {} frames\n",
        b.suite, b.scenarios, b.frames
    ));
    out.push_str(&format!(
        "{:<8} {:>14} {:>12} {:>6} {:>12} {:>16} {:>14}\n",
        "format", "bytes", "B/frame", "reps", "elapsed (s)", "frames/sec", "MB/sec"
    ));
    for (bytes, per_frame, d) in [
        (b.binary_bytes, b.binary_bytes_per_frame, &b.binary_decode),
        (b.json_bytes, b.json_bytes_per_frame, &b.json_decode),
    ] {
        out.push_str(&format!(
            "{:<8} {:>14} {:>12.3} {:>6} {:>12.4} {:>16.0} {:>14.1}\n",
            d.format,
            bytes,
            per_frame,
            d.reps,
            d.elapsed_secs,
            d.frames_per_sec,
            d.bytes_per_sec / 1e6
        ));
    }
    out.push_str(&format!("size ratio (json/binary): {:.2}x\n", b.size_ratio));
    out.push_str(&format!("decode speedup (frames/sec): {:.1}x\n", b.decode_speedup));
    out
}

impl Bench for TraceBench {
    fn quick(&self) -> bool {
        self.quick
    }
}

/// The trace gates: 5× floors on both halves of the codec's claim. Both
/// modes encode the full corpus, so the size ratio is deterministic and
/// also held within 2 % of the baseline either way: any drift is a codec
/// change that must come with a refreshed baseline. The decode gates
/// compare against the baseline only in the same mode, because the rep
/// counts differ otherwise.
pub const GATES: &[Gate<TraceBench>] = &[
    Gate { metric: "size_ratio", value: |b| b.size_ratio, kind: Kind::Floor(5.0) },
    Gate { metric: "decode_speedup", value: |b| b.decode_speedup, kind: Kind::Floor(5.0) },
    Gate { metric: "size_ratio", value: |b| b.size_ratio, kind: Kind::Drift(0.02) },
    Gate { metric: "decode_speedup", value: |b| b.decode_speedup, kind: Kind::Drop(0.20) },
    Gate {
        metric: "binary_decode.frames_per_sec",
        value: |b| b.binary_decode.frames_per_sec,
        kind: Kind::Drop(0.20),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::{CostProfile, ScenarioSpec};

    /// Decode passes per format on the tiny corpus. One pass takes well
    /// under a millisecond, less than a scheduler time slice, so a single
    /// timed pass could be decided by one preemption; the repetitions make
    /// each format's timed window outlast it, as the big corpus does in
    /// [`run`].
    const TINY_REPS: usize = 25;

    /// A three-trace corpus measured through [`run`]'s path.
    fn tiny_bench() -> TraceBench {
        let traces: Vec<FrameTrace> = (0..3)
            .map(|i| {
                ScenarioSpec::new(format!("t{i}"), 60, 400, CostProfile::scattered(2.0)).generate()
            })
            .collect();
        let json: Vec<String> = traces.iter().map(|t| t.to_json().unwrap()).collect();
        let binary: Vec<Vec<u8>> = traces.iter().map(|t| t.to_binary().unwrap()).collect();
        measure_corpus("tiny", true, TINY_REPS, &traces, &json, &binary)
    }

    #[test]
    fn binary_is_smaller_and_faster_even_on_tiny_corpora() {
        let b = tiny_bench();
        assert!(b.size_ratio > 3.0, "size ratio {:.2}", b.size_ratio);
        assert!(b.decode_speedup > 1.0, "decode speedup {:.2}", b.decode_speedup);
    }

    #[test]
    fn result_roundtrips_through_json_and_renders() {
        let b = tiny_bench();
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: TraceBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.frames, b.frames);
        let text = render(&back);
        assert!(text.contains("size ratio"));
        assert!(text.contains("decode speedup"));
    }
}
