//! Span recording for the traced run, plus the allocation counter the
//! spans read.
//!
//! A span is one call into a layer, recorded from the benchmark's own code
//! around a public function of that layer's crate: its name, start, end,
//! the span that caused it, the device (or artefact) it served, and the
//! heap allocations made inside it. Spans stay in memory until the run
//! ends and are then written out in one go, so the only cost paid inside
//! the timed loop is two clock reads and one vector push per span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts heap allocations while [`set_counting`] is on. Off (the default
/// and the state of every untraced pass) it costs one relaxed load.
pub struct CountingAlloc;

// SAFETY: every call delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic that never
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The layer boundaries the benchmark records. The name is the metric
/// prefix the span feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole fleet device (parent of the per-layer spans below).
    Device,
    /// `FleetSpec::device`.
    Sample,
    /// `DeviceRun::trace` / `ScenarioSpec::generate`.
    Generate,
    /// `FrameTrace::load_binary`.
    Decode,
    /// `dvs_faults::named_profile`.
    Resolve,
    /// `FaultPlan::materialize` + `FaultSchedule::compile`, outside the sim.
    Compile,
    /// One simulator run.
    Sim,
    /// Power model + `FleetSketch::observe_device`.
    Observe,
    /// `FleetSketch::try_merge` of one shard.
    Merge,
    /// `Checkpoint::save` after one shard.
    Checkpoint,
    /// One `repro --all` artefact.
    Artefact,
}

impl Layer {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Device => "bench.device",
            Layer::Sample => "workload.sample",
            Layer::Generate => "workload.generate",
            Layer::Decode => "workload.decode",
            Layer::Resolve => "faults.resolve",
            Layer::Compile => "faults.compile",
            Layer::Sim => "pipeline.sim",
            Layer::Observe => "metrics.observe",
            Layer::Merge => "metrics.merge",
            Layer::Checkpoint => "bench.checkpoint",
            Layer::Artefact => "bench.figures",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer the span timed.
    pub layer: Layer,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the causing span, `u32::MAX` for a root span.
    pub parent: u32,
    /// Device index (fleet) or artefact index (figures).
    pub id: u64,
    /// Heap allocations made between start and end.
    pub allocs: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Parent value of a root span.
pub const ROOT: u32 = u32::MAX;

/// An in-memory span recorder. Disabled, [`Tracer::span`] runs the closure
/// and records nothing, which is the untraced single-thread shadow run the
/// tracing overhead is measured against.
pub struct Tracer {
    origin: Instant,
    on: bool,
    /// Every span recorded so far, in start order of completion.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Tracer { origin: Instant::now(), on, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, parent: u32, id: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span { layer, start, end: start, parent, id, allocs: allocs() });
        index
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: u32) {
        if !self.on {
            return;
        }
        let end = self.now();
        let now_allocs = allocs();
        let span = &mut self.spans[index as usize];
        span.end = end;
        span.allocs = now_allocs - span.allocs;
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, layer: Layer, parent: u32, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = allocs();
        let start = self.now();
        let out = f();
        let end = self.now();
        let allocs = allocs() - a0;
        self.spans.push(Span { layer, start, end, parent, id, allocs });
        out
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns parent id allocs`.
    pub fn write_tsv(&self, path: &Path, labels: &[&str]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tid\tallocs")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            match (s.layer, labels.get(s.id as usize)) {
                (Layer::Artefact, Some(label)) => write!(out, "{}.{label}", s.layer.name())?,
                _ => write!(out, "{}", s.layer.name())?,
            }
            writeln!(out, "\t{}\t{}\t{parent}\t{}\t{}", s.start, s.end, s.id, s.allocs)?;
        }
        out.flush()
    }
}
