//! Scenario specifications and the trace generator.
//!
//! A [`ScenarioSpec`] describes one evaluation scenario qualitatively — how
//! expensive typical frames are, how often heavy key frames strike, whether
//! they cluster — plus the baseline FDPS the paper measured for it. The
//! [`TraceGenerator`] turns a spec and a seed into a concrete [`FrameTrace`].
//!
//! The long-frame process is a two-state (calm/burst) chain: each frame is a
//! key frame either because an independent Bernoulli trial fires (rate
//! `long_rate_per_sec`) or because the previous key frame continues a burst
//! with probability `cluster_p`. Scattered key frames (Walmart-like) have
//! `cluster_p ≈ 0`; skewed workloads (QQMusic-like) have large `cluster_p`,
//! which is exactly the regime where the paper observes D-VSync stops helping.

use dvs_sim::{DvsError, DvsResult, SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::dist::{LogNormal, Pareto};
use crate::trace::{Backend, FrameCost, FrameTrace};

/// How a scenario's pre-renderability is classified (Figure 9's taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Determinism {
    /// Deterministic animation (≈85 % of real frames): app opening, page
    /// transitions, notification clearing… D-VSync applies by default.
    Animation,
    /// Simple interaction with a fingertip on screen (≈10 %): zooming,
    /// browsing. D-VSync applies through the Input Prediction Layer.
    PredictableInteraction,
    /// Real-time content (≈5 %): camera, PvP games. D-VSync stays off.
    RealTime,
}

/// The frame-cost mixture for one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Median total cost of a *short* frame, as a fraction of the period.
    pub short_median_frac: f64,
    /// Log-space sigma of short-frame costs.
    pub short_sigma: f64,
    /// Fraction of a frame's cost spent on the UI stage (rest is RS).
    pub ui_share: f64,
    /// Expected heavy key frames per second (the calibration knob).
    pub long_rate_per_sec: f64,
    /// Minimum total cost of a key frame, in periods.
    pub long_min_periods: f64,
    /// Pareto tail index of key-frame cost.
    pub long_alpha: f64,
    /// Key-frame cost truncation, in periods.
    pub long_max_periods: f64,
    /// Probability that a key frame is immediately followed by another
    /// (burst clustering).
    pub cluster_p: f64,
    /// Probability that a key frame's spike lands on the UI stage instead of
    /// the render stage. Key-frame work is dominated by one pipeline stage
    /// (§3.1: a Gaussian blur hits the render service; a layout storm hits
    /// the app's UI logic), which is why ordinary two-stage pipelining
    /// cannot hide it.
    pub long_ui_spike_p: f64,
}

impl CostProfile {
    /// A typical scattered-burst UI workload: cheap frames, occasional
    /// isolated key frames of 1–5 periods whose tail matches Figure 1's CDF
    /// (about 23 % of key frames exceed two periods).
    pub fn scattered(long_rate_per_sec: f64) -> Self {
        CostProfile {
            short_median_frac: 0.45,
            short_sigma: 0.25,
            ui_share: 0.35,
            long_rate_per_sec,
            long_min_periods: 1.0,
            long_alpha: 3.0,
            long_max_periods: 5.0,
            cluster_p: 0.03,
            long_ui_spike_p: 0.15,
        }
    }

    /// A skewed workload (the paper's QQMusic case): key frames arrive in
    /// long clusters with heavy tails that even 7 buffers cannot hide.
    pub fn clustered(long_rate_per_sec: f64) -> Self {
        CostProfile {
            short_median_frac: 0.5,
            short_sigma: 0.3,
            ui_share: 0.35,
            long_rate_per_sec,
            long_min_periods: 1.3,
            long_alpha: 1.1,
            long_max_periods: 8.0,
            cluster_p: 0.55,
            long_ui_spike_p: 0.15,
        }
    }

    /// A perfectly smooth scenario that never janks.
    pub fn smooth() -> Self {
        CostProfile { long_rate_per_sec: 0.0, ..CostProfile::scattered(0.0) }
    }

    /// Returns the profile with a different key-frame rate (used by the
    /// calibration loop in `dvs-pipeline`).
    pub fn with_long_rate(mut self, rate: f64) -> Self {
        self.long_rate_per_sec = rate;
        self
    }

    /// Checks parameter ranges, naming the first one out of range.
    pub fn check(&self) -> Result<(), &'static str> {
        let ranges = [
            (self.short_median_frac > 0.0, "short frames need positive cost"),
            (self.short_sigma >= 0.0, "short_sigma must be non-negative"),
            ((0.0..=1.0).contains(&self.ui_share), "ui_share is a fraction"),
            (self.long_rate_per_sec >= 0.0, "long_rate_per_sec must be non-negative"),
            (self.long_min_periods > 0.0, "long_min_periods must be positive"),
            (self.long_alpha > 0.0, "long_alpha must be positive"),
            (
                self.long_max_periods > self.long_min_periods,
                "long_max_periods must exceed long_min_periods",
            ),
            ((0.0..1.0).contains(&self.cluster_p), "cluster_p in [0,1)"),
        ];
        match ranges.iter().find(|(in_range, _)| !in_range) {
            Some(&(_, problem)) => Err(problem),
            None => Ok(()),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, naming the first that
    /// [`CostProfile::check`] finds; called by [`TraceGenerator::new`].
    pub fn validate(&self) {
        let checked = self.check();
        assert!(checked.is_ok(), "invalid cost profile: {checked:?}");
    }
}

/// One evaluation scenario: identity, shape, and calibration target.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable name (e.g. "Walmart", "cls notif ctr").
    pub name: String,
    /// Figure-axis abbreviation where the paper uses one.
    pub abbrev: String,
    /// Pre-renderability class.
    pub determinism: Determinism,
    /// Target refresh rate in Hz.
    pub rate_hz: u32,
    /// GPU backend.
    pub backend: Backend,
    /// Number of frames a run produces.
    pub frames: usize,
    /// The cost mixture.
    pub cost: CostProfile,
    /// The baseline (VSync) FDPS the paper reports for this scenario, used
    /// as the calibration target for `long_rate_per_sec`. `0.0` means the
    /// scenario showed no frame drops.
    pub paper_baseline_fdps: f64,
    /// Frames per animation segment. Real scenarios are discrete operations
    /// — a swipe's fling, an app-open transition — separated by idle moments
    /// that drain the buffer queue; the test scripts swipe about twice a
    /// second. Runs execute one segment at a time with fresh pipeline state.
    pub segment_frames: usize,
    /// RNG stream for this scenario (so suites are order-independent).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a spec with the given identity and shape.
    pub fn new(name: impl Into<String>, rate_hz: u32, frames: usize, cost: CostProfile) -> Self {
        let name = name.into();
        // The workspace-wide seed rule: a stable hash of the scenario name,
        // independent of suite order, worker identity, or execution order.
        let seed = dvs_sim::stable_seed(&name);
        ScenarioSpec {
            abbrev: name.clone(),
            name,
            determinism: Determinism::Animation,
            rate_hz,
            backend: Backend::Gles,
            frames,
            cost,
            paper_baseline_fdps: 0.0,
            // One-second animations by default (a fling's length).
            segment_frames: rate_hz as usize,
            seed,
        }
    }

    /// Sets the animation-segment length in frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn with_segment_frames(mut self, frames: usize) -> Self {
        assert!(frames > 0, "segments need at least one frame");
        self.segment_frames = frames;
        self
    }

    /// Checks a spec that arrives from outside the program (a JSON file)
    /// before anything runs it: a positive refresh rate, at least one frame
    /// and an in-range cost profile.
    pub fn check(&self) -> DvsResult<()> {
        let checked = if self.rate_hz == 0 {
            Err("rate_hz must be positive")
        } else if self.frames == 0 {
            Err("frames must be at least 1")
        } else {
            self.cost.check()
        };
        checked.map_err(|problem| {
            DvsError::InvalidConfig(format!("scenario {:?}: {problem}", self.name))
        })
    }

    /// Splits the generated trace into per-animation segments. The final
    /// segment keeps the remainder (it is never empty).
    pub fn generate_segments(&self) -> Vec<FrameTrace> {
        self.segments_of(&self.generate())
    }

    /// Splits an already-generated `full` trace into this spec's
    /// per-animation segments — the seam that lets a trace cache generate a
    /// scenario once and slice it for every consumer without regenerating.
    /// `segments_of(&self.generate())` is exactly [`generate_segments`]
    /// (which delegates here).
    ///
    /// [`generate_segments`]: ScenarioSpec::generate_segments
    pub fn segments_of(&self, full: &FrameTrace) -> Vec<FrameTrace> {
        let mut out = Vec::with_capacity(full.len() / self.segment_frames.max(1) + 1);
        for (index, range) in self.segment_ranges(full.len()).into_iter().enumerate() {
            let mut t = FrameTrace::new(format!("{} [seg {index}]", self.name), self.rate_hz)
                .with_backend(self.backend);
            t.frames.extend_from_slice(&full.frames[range]);
            out.push(t);
        }
        out
    }

    /// The frame ranges [`segments_of`] would slice a `total_frames`-long
    /// trace into — the allocation-free form a cache can store alongside one
    /// shared trace instead of cloning every frame into per-segment copies.
    /// The final range keeps the remainder (it is never empty).
    ///
    /// [`segments_of`]: ScenarioSpec::segments_of
    pub fn segment_ranges(&self, total_frames: usize) -> Vec<std::ops::Range<usize>> {
        let seg = self.segment_frames.max(1);
        let mut out = Vec::with_capacity(total_frames / seg + 1);
        let mut start = 0usize;
        while start < total_frames {
            let end = (start + seg).min(total_frames);
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Sets the figure abbreviation.
    pub fn with_abbrev(mut self, abbrev: impl Into<String>) -> Self {
        self.abbrev = abbrev.into();
        self
    }

    /// Sets the determinism class.
    pub fn with_determinism(mut self, d: Determinism) -> Self {
        self.determinism = d;
        self
    }

    /// Sets the backend tag.
    pub fn with_backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Records the paper's baseline FDPS for calibration.
    pub fn with_paper_fdps(mut self, fdps: f64) -> Self {
        self.paper_baseline_fdps = fdps;
        self
    }

    /// Replaces the cost profile.
    pub fn with_cost(mut self, cost: CostProfile) -> Self {
        self.cost = cost;
        self
    }

    /// Generates this scenario's trace.
    pub fn generate(&self) -> FrameTrace {
        TraceGenerator::new(self).generate()
    }

    /// The refresh period.
    pub fn period(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.rate_hz.max(1) as u64)
    }
}

/// Generates a [`FrameTrace`] from a [`ScenarioSpec`].
///
/// # Examples
///
/// ```
/// use dvs_workload::{CostProfile, ScenarioSpec, TraceGenerator};
///
/// let spec = ScenarioSpec::new("demo", 60, 500, CostProfile::scattered(2.0));
/// let trace = TraceGenerator::new(&spec).generate();
/// assert_eq!(trace.len(), 500);
/// ```
#[derive(Debug)]
pub struct TraceGenerator<'a> {
    spec: &'a ScenarioSpec,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator, validating the spec's cost profile.
    ///
    /// # Panics
    ///
    /// Panics if the cost profile is out of range.
    pub fn new(spec: &'a ScenarioSpec) -> Self {
        spec.cost.validate();
        TraceGenerator { spec }
    }

    /// Produces the trace. Deterministic in the spec (including its seed).
    pub fn generate(&self) -> FrameTrace {
        let spec = self.spec;
        let c = &spec.cost;
        let period_ms = spec.period().as_millis_f64();
        let mut rng = SimRng::seed_from(spec.seed);

        let short = LogNormal::from_median(c.short_median_frac * period_ms, c.short_sigma);
        let long = Pareto::new(c.long_min_periods * period_ms, c.long_alpha)
            .truncated(c.long_max_periods * period_ms);
        // Probability that an independent key frame fires on any given frame:
        // one frame is produced per period in steady state.
        let p_long = (c.long_rate_per_sec * period_ms / 1e3).min(0.9);

        let mut trace = FrameTrace::new(spec.name.clone(), spec.rate_hz).with_backend(spec.backend);
        trace.frames.reserve_exact(spec.frames);
        let mut in_burst = false;
        for _ in 0..spec.frames {
            let is_long =
                if in_burst { true } else { c.long_rate_per_sec > 0.0 && rng.chance(p_long) };
            let (ui_ms, rs_ms) = if is_long {
                in_burst = rng.chance(c.cluster_p);
                let total = long.sample(&mut rng);
                // The spike hits one stage; the other does ordinary work.
                let base = (short.sample(&mut rng) * c.ui_share).min(0.3 * period_ms);
                if rng.chance(c.long_ui_spike_p) {
                    (total - base, base)
                } else {
                    (base, total - base)
                }
            } else {
                in_burst = false;
                // Cap short frames below a period: they are "short" by
                // definition; the tail belongs to the long process.
                let total = short.sample(&mut rng).min(0.95 * period_ms);
                // Split across stages with a little per-frame wobble.
                let share = (c.ui_share + 0.05 * rng.next_normal()).clamp(0.05, 0.95);
                (total * share, total * (1.0 - share))
            };
            let ui = SimDuration::from_millis_f64(ui_ms);
            let rs = SimDuration::from_millis_f64(rs_ms);
            trace.push(FrameCost::new(ui, rs));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: u32, frames: usize, cost: CostProfile) -> ScenarioSpec {
        ScenarioSpec::new("t", rate, frames, cost)
    }

    #[test]
    fn deterministic_for_same_spec() {
        let s = spec(60, 1000, CostProfile::scattered(2.0));
        assert_eq!(s.generate(), s.generate());
    }

    #[test]
    fn different_names_different_traces() {
        let a = ScenarioSpec::new("alpha", 60, 100, CostProfile::scattered(2.0));
        let b = ScenarioSpec::new("beta", 60, 100, CostProfile::scattered(2.0));
        assert_ne!(a.generate(), b.generate());
    }

    #[test]
    fn smooth_profile_never_exceeds_a_period() {
        let s = spec(60, 5000, CostProfile::smooth());
        let t = s.generate();
        let p = s.period();
        assert!(t.frames.iter().all(|f| f.total() <= p));
    }

    #[test]
    fn long_frames_appear_at_roughly_requested_rate() {
        let rate = 3.0; // per second
        let s = spec(60, 60_000, CostProfile::scattered(rate).with_long_rate(rate));
        let t = s.generate();
        let p = s.period();
        let longs = t.frames.iter().filter(|f| f.total() > p).count();
        let secs = 60_000.0 / 60.0;
        let measured = longs as f64 / secs;
        // Clustering adds a small surplus over the Bernoulli rate.
        assert!(
            measured > rate * 0.8 && measured < rate * 1.6,
            "requested {rate}/s, measured {measured}/s"
        );
    }

    #[test]
    fn power_law_shape_mostly_short() {
        // The §3.2 claim: ≥95% of frames short, ≤5% heavy.
        let s = spec(60, 50_000, CostProfile::scattered(2.0));
        let t = s.generate();
        let within_one = t.fraction_within_periods(1.0);
        assert!(within_one >= 0.9, "short fraction {within_one}");
    }

    #[test]
    fn clustered_profile_produces_runs() {
        let s = spec(60, 50_000, CostProfile::clustered(2.0));
        let t = s.generate();
        let p = s.period();
        // Count adjacent long-frame pairs; clustering should produce far more
        // than an independent process with the same marginal rate would.
        let longs: Vec<bool> = t.frames.iter().map(|f| f.total() > p).collect();
        let marginal = longs.iter().filter(|&&l| l).count() as f64 / longs.len() as f64;
        let pairs =
            longs.windows(2).filter(|w| w[0] && w[1]).count() as f64 / (longs.len() - 1) as f64;
        assert!(
            pairs > 3.0 * marginal * marginal,
            "pairs {pairs} vs independent {}",
            marginal * marginal
        );
    }

    #[test]
    fn ui_rs_split_respects_share() {
        let mut cost = CostProfile::scattered(0.0);
        cost.ui_share = 0.3;
        let s = spec(60, 10_000, cost);
        let t = s.generate();
        let ui: f64 = t.frames.iter().map(|f| f.ui.as_millis_f64()).sum();
        let total: f64 = t.frames.iter().map(|f| f.total().as_millis_f64()).sum();
        let share = ui / total;
        assert!((share - 0.3).abs() < 0.02, "share {share}");
    }

    #[test]
    #[should_panic(expected = "ui_share is a fraction")]
    fn invalid_profile_panics() {
        let mut c = CostProfile::scattered(1.0);
        c.ui_share = 1.5;
        let s = spec(60, 10, c);
        let _ = TraceGenerator::new(&s);
    }

    #[test]
    fn segments_partition_the_trace() {
        let s = spec(60, 250, CostProfile::scattered(2.0)).with_segment_frames(60);
        let segs = s.generate_segments();
        assert_eq!(segs.len(), 5);
        assert_eq!(segs.iter().map(|t| t.len()).sum::<usize>(), 250);
        assert_eq!(segs[4].len(), 10, "remainder segment keeps the tail");
        // Concatenating the segments reproduces the full trace.
        let full = s.generate();
        let glued: Vec<_> = segs.iter().flat_map(|t| t.frames.iter().cloned()).collect();
        assert_eq!(glued, full.frames);
    }

    #[test]
    fn oversized_segment_is_one_chunk() {
        let s = spec(60, 50, CostProfile::smooth()).with_segment_frames(500);
        assert_eq!(s.generate_segments().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_segment_frames_panics() {
        let _ = spec(60, 50, CostProfile::smooth()).with_segment_frames(0);
    }

    #[test]
    fn spec_builder_round_trip() {
        let s = ScenarioSpec::new("x", 120, 10, CostProfile::smooth())
            .with_abbrev("x abbr")
            .with_backend(Backend::Vulkan)
            .with_determinism(Determinism::RealTime)
            .with_paper_fdps(3.5);
        assert_eq!(s.abbrev, "x abbr");
        assert_eq!(s.backend, Backend::Vulkan);
        assert_eq!(s.determinism, Determinism::RealTime);
        assert!((s.paper_baseline_fdps - 3.5).abs() < 1e-12);
        let t = s.generate();
        assert_eq!(t.backend, Backend::Vulkan);
        assert_eq!(t.rate_hz, 120);
    }
}
