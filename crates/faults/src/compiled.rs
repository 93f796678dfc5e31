//! Dense, O(1) fault lookups, drawn only as far as the run reaches.
//!
//! The simulator's event-heap core consults the fault stream on every pulse
//! and every render dispatch. [`FaultSchedule`]'s ordered maps are the right
//! shape for canonical serialization, but a `BTreeMap` probe per tick is
//! measurable on the hot path. [`CompiledFaults`] keeps the stream in dense
//! arrays indexed by tick / frame, so steady-state lookups are a
//! bounds-checked load — and, for the common clean run, a single branch on a
//! per-class emptiness flag.
//!
//! A stream is built straight from a plan ([`CompiledFaults::stream`], or
//! [`CompiledFaults::restream`] into pooled tables):
//!
//! * scheduled events and the per-frame processes (`GpuStall`, `UiPause`)
//!   are resolved at once — they are bounded by event and frame counts;
//! * each per-tick process (`VsyncMiss`, `VsyncJitter`, `AllocFail`) keeps
//!   its own forked [`SimRng`] and draws lazily, in tick order, as
//!   [`CompiledFaults::advance`] moves the frontier. A run's tick cap is a
//!   safety bound (20× its frames), and most runs stop within a few ticks of
//!   their frame count, so sweeping the whole cap up front is wasted work.
//!
//! **Prefix stability.** Every process draws from its own stream, index by
//! index, and fault application is order-free (stalls add, jitter takes the
//! max, misses and denials are flags). So once the frontier has passed tick
//! `k`, every answer at ticks `≤ k` is exactly the answer of the full-horizon
//! [`FaultPlan::materialize`] — which is itself this stream advanced to the
//! horizon's end and collected into ordered maps. Queries past the frontier
//! are a caller bug (checked in debug builds).
//!
//! [`FaultSchedule::compile`] flattens an already materialized schedule
//! instead (the compositor's path); its tables are final from the start.

use std::collections::{BTreeMap, BTreeSet};

use dvs_sim::{stable_seed, SimDuration, SimRng};

use crate::plan::{FaultEvent, FaultPlan, Horizon, StochasticFault, StochasticKind};
use crate::schedule::FaultSchedule;

/// Bit flags marking which fault classes a stream contains at all.
const HAS_MISSED: u8 = 1 << 0;
const HAS_DELAY: u8 = 1 << 1;
const HAS_DENY: u8 = 1 << 2;
const HAS_UI: u8 = 1 << 3;
const HAS_RS: u8 = 1 << 4;

/// A fault stream in dense per-tick / per-frame arrays.
///
/// # Examples
///
/// ```
/// use dvs_faults::{CompiledFaults, FaultEvent, FaultPlan, Horizon};
/// use dvs_sim::SimDuration;
///
/// let plan = FaultPlan::new("k").with_event(FaultEvent::MissVsync { tick: 4 });
/// let horizon = Horizon::new(10, 100, SimDuration::from_nanos(16_666_667));
/// let compiled = plan.materialize(&horizon).compile(100, 10);
/// assert!(compiled.is_missed(4));
/// assert!(!compiled.is_missed(5));
///
/// // The same answers, drawn only as far as the run has reached.
/// let mut stream = CompiledFaults::stream(&plan, &horizon);
/// stream.advance(5);
/// assert!(stream.is_missed(4));
/// assert!(!stream.is_missed(5));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CompiledFaults {
    /// Which classes exist so far; clean runs stay on the zero-flag path.
    classes: u8,
    /// Swallowed pulses, one bit per tick (grown to the last firing).
    missed: Vec<bool>,
    /// Pulse delays, one slot per tick (grown to the last firing).
    delay: Vec<SimDuration>,
    /// Denied-allocation intervals, one bit per tick (grown to the last
    /// firing).
    deny: Vec<bool>,
    /// Extra UI-stage time, one slot per trace frame.
    ui_extra: Vec<SimDuration>,
    /// Extra RS-stage time, one slot per trace frame.
    rs_extra: Vec<SimDuration>,
    /// Rate switches in strictly increasing tick order (applied once, before
    /// the event loop starts, so they stay a sorted list).
    rate_switches: Vec<(u64, u32)>,
    /// Per-tick processes with ticks left to draw; empty once the stream is
    /// final over its whole horizon.
    pending: Vec<Process>,
    /// Every tick `≤ frontier` is final.
    frontier: u64,
    /// The horizon's frame count (frame events at or past it are dropped).
    frames: u64,
    /// The horizon's tick count (tick events past it are dropped).
    ticks: u64,
    /// Injected pulse delays clamp to a quarter of the nominal period.
    max_jitter: SimDuration,
}

/// One seeded-stochastic process: its own forked stream and a cursor into
/// its index domain (frames `0..`, ticks `1..`).
#[derive(Clone, Debug)]
struct Process {
    fault: StochasticFault,
    rng: SimRng,
    next: u64,
}

impl Process {
    /// Draws every index in `next..end` in order, handing each firing to
    /// `apply`. This is the crate's one stochastic draw loop.
    fn sweep(&mut self, end: u64, mut apply: impl FnMut(FaultEvent)) {
        let StochasticFault { kind, probability, magnitude } = self.fault;
        while self.next < end {
            let index = self.next;
            self.next += 1;
            if !self.rng.chance(probability) {
                continue;
            }
            apply(match kind {
                StochasticKind::GpuStall | StochasticKind::UiPause => {
                    let extra = magnitude.mul_f64(self.rng.next_range(0.5, 1.5));
                    if kind == StochasticKind::UiPause {
                        FaultEvent::StallUi { frame: index, extra }
                    } else {
                        FaultEvent::StallRs { frame: index, extra }
                    }
                }
                StochasticKind::VsyncMiss => FaultEvent::MissVsync { tick: index },
                StochasticKind::VsyncJitter => FaultEvent::JitterVsync {
                    tick: index,
                    delay: magnitude.mul_f64(self.rng.next_range(0.5, 1.5)),
                },
                StochasticKind::AllocFail => FaultEvent::DenyAlloc { tick: index },
            });
        }
    }
}

/// The slot for `index`, growing `table` with clean entries to reach it.
fn slot<T: Copy + Default>(table: &mut Vec<T>, index: u64) -> &mut T {
    let i = index as usize;
    if table.len() <= i {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

impl CompiledFaults {
    /// A stream of `plan` over `horizon`: scheduled events and per-frame
    /// processes resolved, per-tick processes waiting for
    /// [`CompiledFaults::advance`].
    pub fn stream(plan: &FaultPlan, horizon: &Horizon) -> Self {
        let mut c = CompiledFaults::default();
        c.restream(Some(plan), horizon);
        c
    }

    /// Re-arms this stream for a new run, reusing its tables' allocations
    /// (a pooled stream compiles faults without touching the allocator once
    /// its tables have grown to the working set). `None` is a clean run.
    pub fn restream(&mut self, plan: Option<&FaultPlan>, horizon: &Horizon) {
        self.reset(horizon.frames, horizon.ticks);
        self.max_jitter = SimDuration::from_nanos((horizon.period.as_nanos() / 4).max(1));
        let Some(plan) = plan else { return };
        for &event in &plan.scheduled {
            self.apply(event);
        }
        if plan.stochastic.is_empty() {
            return;
        }
        // Root stream from the seed key; each process forks its own stream
        // by position in the plan, so no draw depends on another process.
        let mut root = SimRng::seed_from(stable_seed(&plan.seed_key));
        for (i, &fault) in plan.stochastic.iter().enumerate() {
            let rng = root.fork(i as u64 + 1);
            if fault.kind.is_per_frame() {
                Process { fault, rng, next: 0 }.sweep(horizon.frames, |e| self.apply(e));
            } else {
                self.pending.push(Process { fault, rng, next: 1 });
            }
        }
    }

    /// Draws every per-tick process through tick `through`, making every
    /// answer at ticks `≤ through` final. Idempotent, and a no-op once the
    /// frontier is past `through`.
    #[inline]
    pub fn advance(&mut self, through: u64) {
        if through > self.frontier && !self.pending.is_empty() {
            self.draw_through(through);
        }
    }

    fn draw_through(&mut self, through: u64) {
        let last = through.min(self.ticks);
        let mut pending = std::mem::take(&mut self.pending);
        for process in &mut pending {
            process.sweep(last.saturating_add(1), |e| self.apply(e));
        }
        if last == self.ticks {
            pending.clear();
        }
        self.pending = pending;
        self.frontier = through;
    }

    /// Clears every table (keeping capacity) for a horizon of `frames`
    /// trace frames and `ticks` refreshes.
    fn reset(&mut self, frames: u64, ticks: u64) {
        self.classes = 0;
        self.missed.clear();
        self.delay.clear();
        self.deny.clear();
        self.ui_extra.clear();
        self.rs_extra.clear();
        self.rate_switches.clear();
        self.pending.clear();
        self.frontier = 0;
        self.frames = frames;
        self.ticks = ticks;
    }

    /// Folds one event into the tables, clamping and bounds-checking against
    /// the horizon. Ticks clamp to ≥ 1 (tick 0 anchors the timeline), jitter
    /// clamps to a quarter period so pulses stay ordered, stacked stalls add,
    /// stacked jitter keeps the largest delay, and rate 0 is rejected.
    fn apply(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::StallUi { frame, extra } => {
                if frame < self.frames && !extra.is_zero() {
                    *slot(&mut self.ui_extra, frame) += extra;
                    self.classes |= HAS_UI;
                }
            }
            FaultEvent::StallRs { frame, extra } => {
                if frame < self.frames && !extra.is_zero() {
                    *slot(&mut self.rs_extra, frame) += extra;
                    self.classes |= HAS_RS;
                }
            }
            FaultEvent::MissVsync { tick } => {
                let tick = tick.max(1);
                if tick <= self.ticks {
                    *slot(&mut self.missed, tick) = true;
                    self.classes |= HAS_MISSED;
                }
            }
            FaultEvent::JitterVsync { tick, delay } => {
                let tick = tick.max(1);
                if tick <= self.ticks && !delay.is_zero() {
                    let d = slot(&mut self.delay, tick);
                    *d = (*d).max(delay.min(self.max_jitter));
                    self.classes |= HAS_DELAY;
                }
            }
            FaultEvent::DenyAlloc { tick } => {
                if tick <= self.ticks {
                    *slot(&mut self.deny, tick) = true;
                    self.classes |= HAS_DENY;
                }
            }
            FaultEvent::RateSwitch { tick, rate_hz } => {
                let tick = tick.max(1);
                if tick <= self.ticks && rate_hz > 0 {
                    // A later switch at the same tick replaces the earlier.
                    match self.rate_switches.binary_search_by_key(&tick, |&(t, _)| t) {
                        Ok(i) => self.rate_switches[i].1 = rate_hz,
                        Err(i) => self.rate_switches.insert(i, (tick, rate_hz)),
                    }
                }
            }
        }
    }

    /// Compiles `schedule` for a run of `ticks` refreshes over `frames`
    /// trace frames. The tables are final at once; an empty schedule
    /// compiles to no allocations.
    pub(crate) fn compile(schedule: &FaultSchedule, ticks: u64, frames: u64) -> Self {
        let mut c = CompiledFaults { frames, ticks, ..CompiledFaults::default() };
        c.rate_switches.extend(schedule.rate_switches.iter().map(|(&t, &r)| (t, r)));
        for &tick in schedule.missed_ticks.range(..=ticks) {
            *slot(&mut c.missed, tick) = true;
            c.classes |= HAS_MISSED;
        }
        for (&tick, &d) in schedule.tick_delay.range(..=ticks) {
            *slot(&mut c.delay, tick) = d;
            c.classes |= HAS_DELAY;
        }
        for &tick in schedule.alloc_deny.range(..=ticks) {
            *slot(&mut c.deny, tick) = true;
            c.classes |= HAS_DENY;
        }
        for (&frame, &d) in schedule.ui_extra.range(..frames) {
            *slot(&mut c.ui_extra, frame) = d;
            c.classes |= HAS_UI;
        }
        for (&frame, &d) in schedule.rs_extra.range(..frames) {
            *slot(&mut c.rs_extra, frame) = d;
            c.classes |= HAS_RS;
        }
        c
    }

    /// Collects the tables into a schedule's ordered maps. Only meaningful
    /// once the stream is final over its whole horizon.
    pub(crate) fn to_schedule(&self) -> FaultSchedule {
        fn nonzero(table: &[SimDuration]) -> BTreeMap<u64, SimDuration> {
            (0u64..).zip(table.iter().copied()).filter(|(_, d)| !d.is_zero()).collect()
        }
        fn flagged(table: &[bool]) -> BTreeSet<u64> {
            (0u64..).zip(table.iter()).filter_map(|(i, &set)| set.then_some(i)).collect()
        }
        FaultSchedule {
            ui_extra: nonzero(&self.ui_extra),
            rs_extra: nonzero(&self.rs_extra),
            missed_ticks: flagged(&self.missed),
            tick_delay: nonzero(&self.delay),
            alloc_deny: flagged(&self.deny),
            rate_switches: self.rate_switches.iter().copied().collect(),
        }
    }

    /// Debug-build check that a tick query is inside the drawn frontier.
    #[inline]
    fn check_drawn(&self, tick: u64) {
        debug_assert!(
            self.pending.is_empty() || tick <= self.frontier,
            "fault stream queried at tick {tick}, past its drawn frontier {}",
            self.frontier
        );
    }

    /// Whether the VSync pulse at `tick` is swallowed.
    #[inline]
    pub fn is_missed(&self, tick: u64) -> bool {
        self.check_drawn(tick);
        self.classes & HAS_MISSED != 0 && self.missed.get(tick as usize).copied().unwrap_or(false)
    }

    /// How late the pulse at `tick` fires (zero when on time).
    #[inline]
    pub fn tick_delay(&self, tick: u64) -> SimDuration {
        self.check_drawn(tick);
        if self.classes & HAS_DELAY == 0 {
            return SimDuration::ZERO;
        }
        self.delay.get(tick as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether buffer allocation is denied during refresh interval `tick`.
    #[inline]
    pub fn deny_alloc(&self, tick: u64) -> bool {
        self.check_drawn(tick);
        self.classes & HAS_DENY != 0 && self.deny.get(tick as usize).copied().unwrap_or(false)
    }

    /// Extra UI-stage time injected into frame `frame` (zero when none).
    #[inline]
    pub fn ui_extra(&self, frame: u64) -> SimDuration {
        if self.classes & HAS_UI == 0 {
            return SimDuration::ZERO;
        }
        self.ui_extra.get(frame as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Extra RS-stage time injected into frame `frame` (zero when none).
    #[inline]
    pub fn rs_extra(&self, frame: u64) -> SimDuration {
        if self.classes & HAS_RS == 0 {
            return SimDuration::ZERO;
        }
        self.rs_extra.get(frame as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Refresh-rate switches in strictly increasing tick order.
    pub fn rate_switches(&self) -> &[(u64, u32)] {
        &self.rate_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::named_profile;

    fn horizon(frames: u64, ticks: u64) -> Horizon {
        Horizon::new(frames, ticks, SimDuration::from_nanos(16_666_667))
    }

    #[test]
    fn empty_schedule_compiles_to_no_allocations() {
        let c = FaultSchedule::default().compile(1000, 50);
        assert!(c.missed.capacity() == 0 && c.delay.capacity() == 0);
        assert!(!c.is_missed(3));
        assert!(!c.deny_alloc(3));
        assert_eq!(c.tick_delay(3), SimDuration::ZERO);
        assert_eq!(c.ui_extra(3), SimDuration::ZERO);
        assert_eq!(c.rs_extra(3), SimDuration::ZERO);
        assert!(c.rate_switches().is_empty());
    }

    #[test]
    fn compiled_answers_match_schedule_exhaustively() {
        // A profile with every fault class, checked tick-by-tick and
        // frame-by-frame against the BTree-backed schedule.
        for key in ["a", "b", "c"] {
            let plan = named_profile("mixed", key).expect("profile exists");
            let schedule = plan.materialize(&horizon(200, 4200));
            let c = schedule.compile(4200, 200);
            for tick in 0..=4200 {
                assert_eq!(c.is_missed(tick), schedule.is_missed(tick), "miss @{tick}");
                assert_eq!(c.tick_delay(tick), schedule.tick_delay(tick), "delay @{tick}");
                assert_eq!(c.deny_alloc(tick), schedule.deny_alloc(tick), "deny @{tick}");
            }
            for frame in 0..200 {
                assert_eq!(c.ui_extra(frame), schedule.ui_extra(frame), "ui @{frame}");
                assert_eq!(c.rs_extra(frame), schedule.rs_extra(frame), "rs @{frame}");
            }
            assert_eq!(c.rate_switches(), schedule.rate_switches().as_slice());
        }
    }

    #[test]
    fn out_of_horizon_queries_are_clean() {
        let plan = FaultPlan::new("edge")
            .with_event(FaultEvent::MissVsync { tick: 9 })
            .with_event(FaultEvent::DenyAlloc { tick: 9 });
        let schedule = plan.materialize(&horizon(10, 9));
        let c = schedule.compile(9, 10);
        assert!(c.is_missed(9));
        assert!(c.deny_alloc(9));
        // Past the compiled horizon: dense arrays answer false, matching a
        // schedule that was bounded by the same horizon.
        assert!(!c.is_missed(10_000));
        assert!(!c.deny_alloc(10_000));
        assert_eq!(c.ui_extra(10_000), SimDuration::ZERO);
    }

    #[test]
    fn stream_draws_only_up_to_the_frontier() {
        let plan = named_profile("vsync-noise", "frontier").expect("profile exists");
        let h = horizon(60, 1400);
        let mut s = CompiledFaults::stream(&plan, &h);
        s.advance(65);
        assert!(s.missed.len() <= 66 && s.delay.len() <= 66, "drew past the frontier");
        assert!(!s.pending.is_empty());
        s.advance(h.ticks);
        assert!(s.pending.is_empty(), "a stream advanced to its horizon is final");
        assert_eq!(s.to_schedule(), plan.materialize(&h));
    }

    #[test]
    fn restream_reuses_tables_without_growing() {
        let plan = named_profile("mixed", "pool").expect("profile exists");
        let h = horizon(200, 4200);
        let mut s = CompiledFaults::stream(&plan, &h);
        s.advance(h.ticks);
        let caps = (s.missed.capacity(), s.deny.capacity(), s.ui_extra.capacity());
        s.restream(Some(&plan), &h);
        s.advance(h.ticks);
        assert_eq!((s.missed.capacity(), s.deny.capacity(), s.ui_extra.capacity()), caps);
        s.restream(None, &h);
        assert!(!s.is_missed(7) && s.ui_extra(3).is_zero(), "a clean restream answers clean");
    }
}
