//! The `figures` workload: every artefact `repro --all` renders, in its
//! order, through the same library calls, plus the paper-gap metric and the
//! calibration probe of the traced run.
//!
//! The artefact table mirrors the `repro` binary's job list. Two artefacts
//! write files (`export`, `trace`); `repro` puts them under the system temp
//! directory, the benchmark under its own work directory, so a run reads
//! and writes only inside its checkout.

use std::path::{Path, PathBuf};

use dvs_bench::*;
use dvs_core::{ContentionMode, ContentionSim, DvsyncConfig, DvsyncPacer};
use dvs_pipeline::{calibrate_spec_pooled, PipelineConfig, RunArena, VsyncPacer};
use dvs_workload::{scenarios, CostProfile, ScenarioSpec};

use crate::adapter;
use crate::span::{Layer, Tracer, ROOT};

/// What an artefact may touch besides its return value.
pub struct Ctx {
    /// Where the file-writing artefacts write.
    pub dir: PathBuf,
    /// Held-out D-VSync quantities as `(label, paper %, measured %)`.
    pub gap: Vec<(&'static str, f64, f64)>,
}

/// One `repro --all` artefact.
pub struct Artefact {
    /// The `repro` key (`fig11`, `table2`, …).
    pub key: &'static str,
    run: fn(&mut Ctx) -> String,
}

/// The artefacts of `repro --all`, in its order.
pub fn artefacts() -> Vec<Artefact> {
    vec![
        Artefact { key: "fig1", run: |_| fig01_cdf::render(&fig01_cdf::run(200_000)) },
        Artefact { key: "fig3", run: |_| fig03_pixels::render(&fig03_pixels::run()) },
        Artefact { key: "fig4", run: |_| fig04_features::render(&fig04_features::run()) },
        Artefact { key: "fig5", run: |_| fig05_summary::render(&fig05_summary::run()) },
        Artefact { key: "fig6", run: |_| fig06_distribution::render(&fig06_distribution::run()) },
        Artefact { key: "fig7", run: |_| fig07_ball::render(&fig07_ball::run(45.0)) },
        Artefact { key: "fig9", run: |_| fig09_scope::render(&fig09_scope::run()) },
        Artefact { key: "fig10", run: |_| fig10_trace::render(&fig10_trace::run()) },
        Artefact { key: "fig11", run: fig11 },
        Artefact { key: "fig12", run: fig12 },
        Artefact { key: "fig13", run: fig13 },
        Artefact { key: "fig14", run: fig14 },
        Artefact { key: "fig15", run: fig15 },
        Artefact { key: "fig16", run: |_| fig16_map::render(&fig16_map::run()) },
        Artefact { key: "table1", run: |_| table1_devices::render(&table1_devices::run()) },
        Artefact { key: "table2", run: table2 },
        Artefact { key: "cost", run: |_| costs::render(&costs::run()) },
        Artefact { key: "power", run: |_| power::render(&power::run()) },
        Artefact { key: "chromium", run: |_| sec66_chromium::render(&sec66_chromium::run()) },
        Artefact { key: "multitask", run: |_| multitask() },
        Artefact { key: "scenes", run: |_| scenes() },
        Artefact { key: "faults", run: |_| faultmatrix::run(sweep::default_jobs()).render() },
        Artefact { key: "compose", run: |_| compose::render(&compose::run(sweep::default_jobs())) },
        Artefact { key: "census", run: |_| suite75::render(&suite75::run()) },
        Artefact { key: "fps", run: |_| fps_report::render(&fps_report::run()) },
        Artefact { key: "ablation", run: |_| ablation::render_all() },
        Artefact { key: "export", run: export },
        Artefact { key: "trace", run: chrome_trace },
    ]
}

/// Renders every artefact, each inside one span, and returns the
/// concatenated output (what `repro --all` prints) and the paper gap.
pub fn run_all(dir: &Path, tracer: &mut Tracer) -> (String, f64) {
    let mut ctx = Ctx { dir: dir.to_path_buf(), gap: Vec::new() };
    let mut out = String::new();
    for (i, a) in artefacts().iter().enumerate() {
        let text = tracer.span(Layer::Artefact, ROOT, i as u64, || (a.run)(&mut ctx));
        out.push_str(&text);
        out.push('\n');
    }
    (out, paper_gap_pp(&ctx.gap))
}

/// Mean absolute gap, in percentage points, between measured and paper
/// values of the held-out D-VSync quantities.
pub fn paper_gap_pp(gap: &[(&'static str, f64, f64)]) -> f64 {
    gap.iter().map(|(_, paper, measured)| (measured - paper).abs()).sum::<f64>()
        / gap.len().max(1) as f64
}

/// The artefacts that measure the held-out quantities.
const GAP_ARTEFACTS: [&str; 6] = ["fig11", "fig12", "fig13", "fig14", "fig15", "table2"];

/// Renders only the artefacts behind the paper gap: `(gap pp, quantities)`.
pub fn paper_gap_only(dir: &Path) -> (f64, usize) {
    let mut ctx = Ctx { dir: dir.to_path_buf(), gap: Vec::new() };
    for a in artefacts().iter().filter(|a| GAP_ARTEFACTS.contains(&a.key)) {
        std::hint::black_box((a.run)(&mut ctx));
    }
    (paper_gap_pp(&ctx.gap), ctx.gap.len())
}

fn fig11(ctx: &mut Ctx) -> String {
    let r = fig11_apps::run();
    // Paper values: EXPERIMENTS.md, Fig. 11 rows (7 buffers: "~97 %").
    for (i, (label, paper)) in
        [("fig11.4buf", 71.6), ("fig11.5buf", 87.7), ("fig11.7buf", 97.0)].into_iter().enumerate()
    {
        ctx.gap.push((label, paper, r.reduction_percent(i)));
    }
    fig11_apps::render(&r)
}

fn fig12(ctx: &mut Ctx) -> String {
    let r = fig12_13_oscases::run_fig12();
    ctx.gap.push(("fig12", 83.5, r.reduction_percent(0)));
    r.render()
}

fn fig13(ctx: &mut Ctx) -> String {
    let m40 = fig12_13_oscases::run_fig13_mate40();
    let m60 = fig12_13_oscases::run_fig13_mate60();
    ctx.gap.push(("fig13.mate40", 69.4, m40.reduction_percent(0)));
    ctx.gap.push(("fig13.mate60", 66.4, m60.reduction_percent(0)));
    let mut out = m40.render();
    out.push('\n');
    out.push_str(&m60.render());
    out
}

fn fig14(ctx: &mut Ctx) -> String {
    let r = fig14_games::run();
    ctx.gap.push(("fig14.4buf", 68.4, r.reduction_4buf()));
    ctx.gap.push(("fig14.5buf", 87.3, r.reduction_5buf()));
    fig14_games::render(&r)
}

fn fig15(ctx: &mut Ctx) -> String {
    let rows = fig15_latency::run();
    // Paper latency cuts per device, EXPERIMENTS.md Fig. 15 rows, in the
    // order `fig15_latency::run` returns them.
    for (row, (label, paper)) in
        rows.iter().zip([("fig15.pixel5", 31.9), ("fig15.mate40", 30.7), ("fig15.mate60", 30.6)])
    {
        ctx.gap.push((label, paper, row.reduction_percent()));
    }
    fig15_latency::render(&rows)
}

fn table2(ctx: &mut Ctx) -> String {
    let rows = table2_stutters::run();
    ctx.gap.push(("table2", 72.3, table2_stutters::average_reduction(&rows)));
    table2_stutters::render(&rows)
}

fn multitask() -> String {
    let a = ScenarioSpec::new("left app", 60, 600, CostProfile::scattered(1.0)).generate();
    let b = ScenarioSpec::new("right app", 60, 600, CostProfile::scattered(1.0)).generate();
    let mut out = String::from("Multi-window contention: two apps on shared compute\n");
    out.push_str(&format!("{:>10} {:>14} {:>16}\n", "capacity", "VSync janks", "D-VSync janks"));
    for capacity in [1.0f64, 1.2, 1.4, 1.7, 2.0] {
        let sim = ContentionSim::new(60, capacity);
        let janks = |mode| sim.run(&[&a, &b], mode).iter().map(|r| r.janks.len()).sum::<usize>();
        let v = janks(ContentionMode::Vsync { buffers: 3 });
        let d = janks(ContentionMode::Dvsync { buffers: 5 });
        out.push_str(&format!("{capacity:>10.1} {v:>14} {d:>16}\n"));
    }
    out.push_str("capacity 1.0 = two active apps halve each other; 2.0 = no contention\n");
    out
}

fn scenes() -> String {
    let mut out = String::from("Scene-driven traces (costs derived from actual UI content)\n");
    for driver in [
        dvs_render::scenes::notification_center_close(120),
        dvs_render::scenes::app_open(120),
        dvs_render::scenes::photo_list_fling(120),
    ] {
        let trace = driver.trace();
        let period = trace.period();
        let heavy = trace.frames.iter().filter(|f| f.total() > period).count();
        let vsync = adapter::simulate(&PipelineConfig::new(120, 3), &trace, &mut VsyncPacer::new());
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(5));
        let dvsync = adapter::simulate(&PipelineConfig::new(120, 5), &trace, &mut pacer);
        out.push_str(&format!(
            "  {:<34} {:>3} frames, {:>2} key frames | VSync {:>2} janks, D-VSync {:>2}\n",
            trace.name,
            trace.len(),
            heavy,
            vsync.janks.len(),
            dvsync.janks.len()
        ));
    }
    out
}

/// The five scenario catalogs behind the paper's figures.
pub fn catalogs() -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    vec![
        ("android_apps.json", scenarios::android_app_suite()),
        ("mate60_vulkan.json", scenarios::mate60_vulkan_suite()),
        ("mate60_gles.json", scenarios::mate60_gles_suite()),
        ("mate40_gles.json", scenarios::mate40_gles_suite()),
        ("games.json", scenarios::game_suite()),
    ]
}

fn export(ctx: &mut Ctx) -> String {
    let dir = ctx.dir.join("dvsync_suites");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return format!("could not create {}: {e}\n", dir.display());
    }
    let mut out = String::from("Scenario suites exported as JSON\n");
    for (name, suite) in catalogs() {
        let path = dir.join(name);
        match serde_json::to_string_pretty(&suite)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(&path, s).map_err(|e| e.to_string()))
        {
            Ok(()) => out.push_str(&format!("  wrote {}\n", path.display())),
            Err(e) => out.push_str(&format!("  FAILED {}: {e}\n", path.display())),
        }
    }
    out.push_str("edit a spec and run it with: repro custom <file-with-one-spec>\n");
    out
}

fn chrome_trace(ctx: &mut Ctx) -> String {
    let comparison = fig10_trace::run();
    let dir = ctx.dir.join("dvsync_traces");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return format!("could not create {}: {e}\n", dir.display());
    }
    let mut out = String::from("Chrome trace export (open in chrome://tracing)\n");
    for (name, report) in
        [("vsync.trace.json", &comparison.vsync), ("dvsync.trace.json", &comparison.dvsync)]
    {
        let path = dir.join(name);
        match std::fs::write(&path, dvs_metrics::chrome_trace_json(report)) {
            Ok(()) => out.push_str(&format!("  wrote {}\n", path.display())),
            Err(e) => out.push_str(&format!("  FAILED {}: {e}\n", path.display())),
        }
    }
    out
}

/// The four catalogs the figures calibrate (Figs. 11–13), with the
/// baseline buffer count each is calibrated at.
fn calibrated_catalogs() -> Vec<Vec<ScenarioSpec>> {
    vec![
        scenarios::android_app_suite(),
        scenarios::mate60_vulkan_suite(),
        scenarios::mate60_gles_suite(),
        scenarios::mate40_gles_suite(),
    ]
}

/// One single-threaded calibration pass over the four paper catalogs:
/// `(seconds, bisection iterations)`.
pub fn calibrate_once() -> (f64, u64) {
    let mut arena = RunArena::new();
    let mut iterations = 0u64;
    let start = std::time::Instant::now();
    for suite in calibrated_catalogs() {
        for spec in &suite {
            let outcome = calibrate_spec_pooled(spec, 3, &mut arena);
            iterations += outcome.iterations as u64;
            std::hint::black_box(outcome.measured_fdps);
        }
    }
    (start.elapsed().as_secs_f64(), iterations)
}
