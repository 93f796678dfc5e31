//! The benchmark worker. `run.py` builds it and runs one step per process:
//!
//! ```text
//! perfbench setup --workload W --seed N --work DIR [--reps R]
//! perfbench pass  --workload W --seed N --work DIR --jobs J [--generate]
//! perfbench gap   --work DIR --jobs J
//! perfbench trace --workload W --seed N --work DIR --seconds S --spans FILE
//! ```
//!
//! Each step prints one JSON object on its last stdout line. Workloads are
//! `figures`, `fleet` and `fleet_replay` (see README.md).

mod adapter;
mod figures;
mod fleet;
mod span;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_pipeline::{FramePacer, PipelineConfig, RunArena, VsyncPacer};
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::FleetSpec;

use span::{CountingAlloc, Layer, Span, Tracer, ROOT};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Figures,
    Fleet,
    FleetReplay,
}

impl Workload {
    fn parse(name: &str) -> DvsResult<Self> {
        match name {
            "figures" => Ok(Workload::Figures),
            "fleet" => Ok(Workload::Fleet),
            "fleet_replay" => Ok(Workload::FleetReplay),
            other => Err(DvsError::InvalidConfig(format!("unknown workload {other:?}"))),
        }
    }

    /// The seeded population (`None` for `figures`, whose inputs are the
    /// paper's fixed catalogs and take no seed).
    fn spec(self, seed: u64) -> Option<FleetSpec> {
        match self {
            Workload::Figures => None,
            Workload::Fleet => Some(fleet::fleet_spec(seed)),
            Workload::FleetReplay => Some(fleet::replay_spec(seed)),
        }
    }
}

/// FNV-1a, 64 bit, over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn digest(text: &str) -> String {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.hex()
}

/// A digest of everything a workload's passes take as input: the catalogs
/// for `figures`, every sampled device (axes and trace seed) for the
/// fleets.
fn input_digest(workload: Workload, seed: u64) -> DvsResult<String> {
    let mut h = Fnv::new();
    match workload.spec(seed) {
        None => {
            for (name, suite) in figures::catalogs() {
                h.write(name.as_bytes());
                let json = serde_json::to_string(&suite)
                    .map_err(|e| DvsError::InvalidConfig(format!("catalog serialization: {e}")))?;
                h.write(json.as_bytes());
            }
        }
        Some(spec) => {
            spec.validate().map_err(DvsError::InvalidConfig)?;
            h.write(spec.canonical().as_bytes());
            for i in 0..spec.devices {
                let d = spec.device(i).ok_or_else(|| {
                    DvsError::InvalidConfig(format!("population has no device {i}"))
                })?;
                h.write(d.model.as_bytes());
                h.write(d.mix.as_bytes());
                h.write(d.fault_profile.as_bytes());
                h.write(&d.rate_hz.to_le_bytes());
                h.write(&(d.buffers as u64).to_le_bytes());
                h.write(&d.trace_seed.to_le_bytes());
            }
        }
    }
    Ok(h.hex())
}

/// Minimal `--flag value` parsing.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let pos = self.0.iter().position(|a| a == flag)?;
        self.0.get(pos + 1).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> DvsResult<T> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| DvsError::InvalidConfig(format!("{flag} needs a number, got {v:?}"))),
            None => default.ok_or_else(|| DvsError::InvalidConfig(format!("{flag} is required"))),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One flat JSON object of numbers and strings, printed on one line.
#[derive(Default)]
struct Out(BTreeMap<String, String>);

impl Out {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.insert(key.to_string(), format!("{:?}", finite(v)));
        self
    }

    fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.insert(key.to_string(), format!("{v:?}"));
        self
    }

    fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.insert(key.to_string(), json);
        self
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Set-up, `reps` times: prepare the work directory, sample and digest the
/// inputs, and for `fleet_replay` record every device's trace. Each
/// recording goes to a fresh directory, so no deletion is timed; the last
/// one becomes the replay directory.
fn setup(workload: Workload, seed: u64, work: &Path, reps: usize) -> DvsResult<Out> {
    let io = |path: &Path, op: &str, e: std::io::Error| DvsError::Io {
        path: path.display().to_string(),
        op: op.to_string(),
        detail: e.to_string(),
    };
    if work.exists() {
        std::fs::remove_dir_all(work).map_err(|e| io(work, "remove dir", e))?;
    }
    let mut times = Vec::new();
    let mut input = String::new();
    let mut recorded = None;
    for rep in 0..reps.max(1) {
        let dir = work.join(format!("recording-{rep}"));
        let start = Instant::now();
        std::fs::create_dir_all(work).map_err(|e| io(work, "create dir", e))?;
        input = input_digest(workload, seed)?;
        if let (Workload::FleetReplay, Some(spec)) = (workload, workload.spec(seed)) {
            dvs_bench::tracetool::record_fleet(&spec, &dir)?;
            recorded = Some(dir);
        }
        times.push(format!("{:?}", start.elapsed().as_secs_f64()));
    }
    if let Some(dir) = recorded {
        let traces = fleet::trace_dir(work);
        std::fs::rename(&dir, &traces).map_err(|e| io(&dir, "rename", e))?;
        for rep in 0..reps.max(1) {
            let stale = work.join(format!("recording-{rep}"));
            if stale.exists() {
                std::fs::remove_dir_all(&stale).map_err(|e| io(&stale, "remove dir", e))?;
            }
        }
    }
    let mut out = Out::default();
    out.raw("setup_s", format!("[{}]", times.join(", "))).text("input_digest", &input);
    Ok(out)
}

fn pass(workload: Workload, seed: u64, work: &Path, jobs: usize, generate: bool) -> DvsResult<Out> {
    let mut out = Out::default();
    let start = Instant::now();
    match workload.spec(seed) {
        None => {
            dvs_bench::sweep::set_default_jobs(jobs);
            let (text, gap) = figures::run_all(work, &mut Tracer::new(false));
            let wall = start.elapsed().as_secs_f64();
            let n = figures::artefacts().len() as f64;
            out.num("wall_s", wall).num("items", n).num("cells", n).num("quarantined", 0.0);
            out.num("paper_gap_pp", gap).text("digest", &digest(&text));
        }
        Some(spec) => {
            let replay = workload == Workload::FleetReplay && !generate;
            let ckpt = replay.then(|| work.join(format!("checkpoint-{}.json", std::process::id())));
            let run = fleet::run_pass(&spec, jobs, work, replay, ckpt.as_deref())?;
            let wall = start.elapsed().as_secs_f64();
            out.num("wall_s", wall).num("items", run.report.sketch.devices as f64);
            out.num("cells", run.accounting.cells_total as f64);
            out.num("quarantined", run.accounting.cells_quarantined as f64);
            out.num("checkpoint_writes", run.checkpoint_writes as f64);
            out.text("digest", &digest(&run.report.to_json()?));
        }
    }
    Ok(out)
}

fn gap(work: &Path, jobs: usize) -> Out {
    dvs_bench::sweep::set_default_jobs(jobs);
    let (g, n) = figures::paper_gap_only(work);
    let mut out = Out::default();
    out.num("paper_gap_pp", g).num("quantities", n as f64);
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Per-layer sums over a set of spans.
#[derive(Default, Clone, Copy)]
struct Sum {
    n: u64,
    ns: u64,
    allocs: u64,
}

impl Sum {
    fn add(&mut self, s: &Span) {
        self.n += 1;
        self.ns += s.ns();
        self.allocs += s.allocs;
    }

    fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64
    }

    fn mean_allocs(&self) -> f64 {
        self.allocs as f64 / self.n.max(1) as f64
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Devices of a replayed pass that regenerated their trace because the
/// recording was missing or did not match; carried beside the layer
/// metrics, reported as its own field.
const FALLBACKS: &str = "decode_fallbacks";

/// Layer metrics of one traced fleet pass.
fn fleet_layers(
    spans: &[Span],
    c: &fleet::Counts,
    frames_per_device: u64,
) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<&str, Sum> = BTreeMap::new();
    let mut children_ns = 0u64;
    for s in spans {
        let faulted = c.faulted.get(s.id as usize).copied().unwrap_or(false);
        let key = match (s.layer, faulted) {
            (Layer::Sim, true) => "sim.faulted",
            (Layer::Sim, false) => "sim.clean",
            (Layer::Resolve, false) => "resolve.clean",
            (layer, _) => layer.name(),
        };
        sums.entry(key).or_default().add(s);
        if s.parent != ROOT {
            children_ns += s.ns();
        }
    }
    let get = |k: &str| sums.get(k).copied().unwrap_or_default();
    let (generate, decode, compile) =
        (get(Layer::Generate.name()), get(Layer::Decode.name()), get(Layer::Compile.name()));
    let (clean, faulted) = (get("sim.clean"), get("sim.faulted"));
    let generated_frames = generate.n * frames_per_device;
    let decoded_frames = decode.n * frames_per_device;
    // The simulator's self time: a faulted run materializes and compiles its
    // plan inside the sim span; the probe timed that same work outside it.
    let faulted_self_ns = faulted.ns.saturating_sub(compile.ns);
    let faulted_self_allocs = faulted.allocs.saturating_sub(compile.allocs);
    let devices = (clean.n + faulted.n).max(1) as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("workload.sample.ns", get(Layer::Sample.name()).mean_ns());
    put("workload.generate.ns_per_frame", ratio(generate.ns, generated_frames));
    put("workload.generate.allocs", generate.mean_allocs());
    put("workload.decode.ns_per_frame", ratio(decode.ns, decoded_frames));
    put("workload.decode.bytes_per_frame", ratio(c.decoded_bytes, decoded_frames));
    put("faults.resolve.ns", get(Layer::Resolve.name()).mean_ns());
    put("faults.compile.ns", compile.mean_ns());
    put("faults.compile.allocs", compile.mean_allocs());
    put("pipeline.sim.ns_per_device.clean", clean.mean_ns());
    put("pipeline.sim.ns_per_device.faulted", faulted_self_ns as f64 / faulted.n.max(1) as f64);
    put("pipeline.sim.ns_per_event", ratio(clean.ns + faulted_self_ns, c.events));
    put("pipeline.sim.events_per_frame", ratio(c.events, c.frames));
    put("pipeline.sim.allocs_per_device", (clean.allocs + faulted_self_allocs) as f64 / devices);
    put("metrics.observe.ns", get(Layer::Observe.name()).mean_ns());
    put("metrics.merge.ns", get(Layer::Merge.name()).mean_ns());
    put("metrics.sketch_bytes", c.sketch_bytes as f64);
    put("bench.checkpoint.writes", c.checkpoint_writes as f64);
    put("bench.checkpoint.bytes", c.checkpoint_bytes as f64);
    put("bench.checkpoint.save_ns", get(Layer::Checkpoint.name()).mean_ns());
    let device = get(Layer::Device.name());
    put("bench.device.attributed_pct", 100.0 * children_ns as f64 / device.ns.max(1) as f64);
    m
}

/// Wall time, in seconds, of the spans that make up the workload itself
/// (probes excluded): the single-thread layer time.
fn layer_time_s(spans: &[Span]) -> f64 {
    let ns: u64 =
        spans.iter().filter(|s| s.parent == ROOT && s.layer != Layer::Compile).map(Span::ns).sum();
    ns as f64 / 1e9
}

/// One single-thread pass through `tracer`: `(report digest, layer
/// metrics)`.
fn single_thread_pass(
    workload: Workload,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
) -> DvsResult<(String, BTreeMap<String, f64>)> {
    match workload.spec(seed) {
        None => {
            let (text, _) = figures::run_all(work, tracer);
            let mut m = BTreeMap::new();
            for (i, a) in figures::artefacts().iter().enumerate() {
                let ns: u64 = tracer.spans.iter().filter(|s| s.id == i as u64).map(Span::ns).sum();
                m.insert(format!("bench.figures.{}.s", a.key), ns as f64 / 1e9);
            }
            Ok((digest(&text), m))
        }
        Some(spec) => {
            let replay = workload == Workload::FleetReplay;
            let ckpt = replay.then(|| work.join("checkpoint-traced.json"));
            let (report, counts) =
                fleet::traced_pass(&spec, work, replay, ckpt.as_deref(), tracer)?;
            let mut m = fleet_layers(&tracer.spans, &counts, spec.frames as u64);
            m.insert(FALLBACKS.into(), counts.decode_fallbacks as f64);
            Ok((digest(&report.to_json()?), m))
        }
    }
}

/// The figures workload's layer probes, run once outside the timed
/// passes: one calibration pass over the four catalogs, and trace
/// generation plus a VSync and a D-VSync run of every catalog scenario.
fn figures_probes() -> DvsResult<BTreeMap<String, f64>> {
    let mut m = BTreeMap::new();
    let (cal_s, iterations) = figures::calibrate_once();
    m.insert("pipeline.calibrate.s".to_string(), cal_s);
    m.insert("pipeline.calibrate.iterations".to_string(), iterations as f64);
    let mut tracer = Tracer::new(true);
    let mut arena = RunArena::new();
    let mut report = dvs_metrics::RunReport::default();
    let (mut generated, mut simulated, mut events) = (0u64, 0u64, 0u64);
    span::set_counting(true);
    for (_, suite) in figures::catalogs() {
        for (i, spec) in suite.iter().enumerate() {
            let trace = tracer.span(Layer::Generate, ROOT, i as u64, || spec.generate());
            generated += trace.len() as u64;
            let runs: [(usize, Box<dyn FramePacer>); 2] = [
                (3, Box::new(VsyncPacer::new())),
                (4, Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(4)))),
            ];
            for (buffers, mut pacer) in runs {
                let cfg = PipelineConfig::new(spec.rate_hz, buffers);
                let stats = tracer.span(Layer::Sim, ROOT, i as u64, || {
                    adapter::simulate_into(
                        &cfg,
                        &trace,
                        pacer.as_mut(),
                        None,
                        &mut arena,
                        &mut report,
                    )
                });
                events += stats?.events_processed;
                simulated += trace.len() as u64;
            }
        }
    }
    span::set_counting(false);
    let mut gen = Sum::default();
    let mut sim = Sum::default();
    for s in &tracer.spans {
        match s.layer {
            Layer::Generate => gen.add(s),
            _ => sim.add(s),
        }
    }
    m.insert("workload.generate.ns_per_frame".into(), ratio(gen.ns, generated));
    m.insert("workload.generate.allocs".into(), gen.mean_allocs());
    m.insert("pipeline.sim.ns_per_device.clean".into(), sim.mean_ns());
    m.insert("pipeline.sim.ns_per_event".into(), ratio(sim.ns, events));
    m.insert("pipeline.sim.events_per_frame".into(), ratio(events, simulated));
    m.insert("pipeline.sim.allocs_per_device".into(), sim.mean_allocs());
    Ok(m)
}

/// One untraced single-thread pass: `(report digest, seconds)`.
fn shadow_pass(workload: Workload, seed: u64, work: &Path) -> DvsResult<(String, f64)> {
    let t = Instant::now();
    let (digest, _) = single_thread_pass(workload, seed, work, &mut Tracer::new(false))?;
    Ok((digest, t.elapsed().as_secs_f64()))
}

/// One traced single-thread pass: `(report digest, layer metrics, tracer,
/// seconds)`; allocation counting is on only inside it.
type Traced = (String, BTreeMap<String, f64>, Tracer, f64);

fn traced_pass(workload: Workload, seed: u64, work: &Path) -> DvsResult<Traced> {
    let mut tracer = Tracer::new(true);
    span::set_counting(true);
    let t = Instant::now();
    let result = single_thread_pass(workload, seed, work, &mut tracer);
    let seconds = t.elapsed().as_secs_f64();
    span::set_counting(false);
    let (digest, metrics) = result?;
    Ok((digest, metrics, tracer, seconds))
}

/// The traced run: pairs of untraced (shadow) and traced single-thread
/// passes, in alternating order, until `seconds` have passed (at least one
/// pair). Reports the median of each layer metric over the traced passes,
/// the median tracing overhead, and whether every report digest agreed;
/// the last traced pass's spans go to `spans_path`.
fn trace(
    workload: Workload,
    seed: u64,
    work: &Path,
    seconds: f64,
    spans_path: &Path,
) -> DvsResult<Out> {
    dvs_bench::sweep::set_default_jobs(1);
    let start = Instant::now();
    let mut runs: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut overheads = Vec::new();
    let mut layer_times = Vec::new();
    let mut fallbacks = 0.0;
    let mut digests = Vec::new();
    let mut last = None;
    while last.is_none() || start.elapsed().as_secs_f64() < seconds {
        let ((shadow_digest, shadow_s), traced) = if runs.len().is_multiple_of(2) {
            let shadow = shadow_pass(workload, seed, work)?;
            (shadow, traced_pass(workload, seed, work)?)
        } else {
            let traced = traced_pass(workload, seed, work)?;
            (shadow_pass(workload, seed, work)?, traced)
        };
        let (traced_digest, mut metrics, tracer, traced_s) = traced;
        fallbacks += metrics.remove(FALLBACKS).unwrap_or(0.0);
        // The faults.compile probe is extra work the shadow pass skips.
        let probe_s: f64 = tracer
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Compile)
            .map(|s| s.ns() as f64 / 1e9)
            .sum();
        overheads.push(100.0 * (traced_s - probe_s - shadow_s) / shadow_s);
        layer_times.push(layer_time_s(&tracer.spans));
        digests.push(shadow_digest);
        digests.push(traced_digest);
        runs.push(metrics);
        last = Some(tracer);
    }
    if let Some(tracer) = &last {
        let labels: Vec<&str> = figures::artefacts().iter().map(|a| a.key).collect();
        tracer.write_tsv(spans_path, &labels).map_err(|e| DvsError::Io {
            path: spans_path.display().to_string(),
            op: "write".into(),
            detail: e.to_string(),
        })?;
    }

    let mut layers = BTreeMap::new();
    for k in runs.first().map(|r| r.keys().cloned().collect::<Vec<_>>()).unwrap_or_default() {
        layers.insert(k.clone(), median(runs.iter().filter_map(|r| r.get(&k).copied()).collect()));
    }
    if workload == Workload::Figures {
        layers.extend(figures_probes()?);
    }
    let agree = digests.windows(2).all(|w| w[0] == w[1]);
    let fields: Vec<String> =
        layers.iter().map(|(k, v)| format!("{k:?}: {:?}", finite(*v))).collect();
    let mut out = Out::default();
    out.raw("layers", format!("{{{}}}", fields.join(", ")));
    out.num("trace_overhead_pct", median(overheads));
    out.num("layer_time_s", median(layer_times));
    out.num("traced_passes", runs.len() as f64);
    out.num(FALLBACKS, fallbacks);
    out.text("digest", digests.first().map_or("", String::as_str));
    out.raw("digests_agree", agree.to_string());
    Ok(out)
}

/// JSON has no NaN or infinity; a ratio over nothing reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn run(args: &Args) -> DvsResult<Out> {
    let step = args.0.first().map(String::as_str).unwrap_or("");
    let work = PathBuf::from(args.value("--work").unwrap_or(".bench_work"));
    let jobs: usize = args.num("--jobs", Some(1))?;
    if step == "gap" {
        return Ok(gap(&work, jobs));
    }
    let workload = Workload::parse(args.value("--workload").unwrap_or(""))?;
    let seed: u64 = args.num("--seed", None)?;
    match step {
        "setup" => setup(workload, seed, &work, args.num("--reps", Some(3))?),
        "pass" => pass(workload, seed, &work, jobs, args.has("--generate")),
        "trace" => {
            let spans = PathBuf::from(args.value("--spans").unwrap_or("spans.tsv"));
            trace(workload, seed, &work, args.num("--seconds", Some(1.0))?, &spans)
        }
        other => Err(DvsError::InvalidConfig(format!("unknown step {other:?}"))),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match run(&args) {
        Ok(out) => {
            println!("{}", out.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_fleet_inputs_and_not_figures() {
        for w in [Workload::Fleet, Workload::FleetReplay] {
            let a = input_digest(w, 1).unwrap();
            assert_eq!(a, input_digest(w, 1).unwrap(), "{w:?}: same seed, same inputs");
            assert_ne!(a, input_digest(w, 2).unwrap(), "{w:?}: the seed must change the inputs");
        }
        let figures = input_digest(Workload::Figures, 1).unwrap();
        assert_eq!(figures, input_digest(Workload::Figures, 2).unwrap(), "figures take no seed");
    }

    #[test]
    fn seed_goes_into_the_fleet_spec() {
        assert_eq!(fleet::fleet_spec(7).seed, 7);
        assert_eq!(fleet::replay_spec(7).seed, 7);
        assert!(Workload::Figures.spec(7).is_none());
    }
}
