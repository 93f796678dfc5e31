//! Materialized fault schedules: concrete firings the simulator looks up.

use std::collections::{BTreeMap, BTreeSet};

use dvs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A fully-resolved fault schedule for one run.
///
/// Produced by [`FaultPlan::materialize`](crate::FaultPlan::materialize);
/// every lookup is a pure read, so the simulator may consult it in any order
/// without perturbing the fault stream. All collections are ordered
/// (`BTreeMap`/`BTreeSet`) so serialization — and therefore golden-file
/// comparison — is canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Extra UI-stage time per trace frame index.
    pub(crate) ui_extra: BTreeMap<u64, SimDuration>,
    /// Extra RS-stage time per trace frame index.
    pub(crate) rs_extra: BTreeMap<u64, SimDuration>,
    /// Refresh ticks whose VSync pulse is swallowed.
    pub(crate) missed_ticks: BTreeSet<u64>,
    /// Late-firing refresh ticks and how late they fire.
    pub(crate) tick_delay: BTreeMap<u64, SimDuration>,
    /// Refresh intervals during which buffer allocation is denied.
    pub(crate) alloc_deny: BTreeSet<u64>,
    /// Refresh-rate switches, strictly increasing in tick.
    pub(crate) rate_switches: BTreeMap<u64, u32>,
}

impl FaultSchedule {
    /// Extra UI-stage time injected into frame `frame` (zero when none).
    pub fn ui_extra(&self, frame: u64) -> SimDuration {
        self.ui_extra.get(&frame).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Extra RS-stage time injected into frame `frame` (zero when none).
    pub fn rs_extra(&self, frame: u64) -> SimDuration {
        self.rs_extra.get(&frame).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether the VSync pulse at `tick` is swallowed.
    pub fn is_missed(&self, tick: u64) -> bool {
        self.missed_ticks.contains(&tick)
    }

    /// How late the pulse at `tick` fires (zero when on time).
    pub fn tick_delay(&self, tick: u64) -> SimDuration {
        self.tick_delay.get(&tick).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether buffer allocation is denied during refresh interval `tick`.
    pub fn deny_alloc(&self, tick: u64) -> bool {
        self.alloc_deny.contains(&tick)
    }

    /// Refresh-rate switches in strictly increasing tick order.
    pub fn rate_switches(&self) -> Vec<(u64, u32)> {
        self.rate_switches.iter().map(|(&t, &r)| (t, r)).collect()
    }

    /// Flattens the schedule into dense O(1) lookups for a run of `ticks`
    /// refreshes over `frames` trace frames (the event-heap hot path).
    pub fn compile(&self, ticks: u64, frames: u64) -> crate::CompiledFaults {
        crate::CompiledFaults::compile(self, ticks, frames)
    }

    /// Total number of distinct fault firings in the schedule.
    pub fn fault_count(&self) -> usize {
        self.ui_extra.len()
            + self.rs_extra.len()
            + self.missed_ticks.len()
            + self.tick_delay.len()
            + self.alloc_deny.len()
            + self.rate_switches.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultPlan, Horizon};

    fn materialize(events: &[FaultEvent]) -> FaultSchedule {
        let horizon = Horizon::new(10, 100, SimDuration::from_nanos(16_666_667));
        events.iter().fold(FaultPlan::new("sched"), |p, &e| p.with_event(e)).materialize(&horizon)
    }

    #[test]
    fn stacked_stalls_accumulate() {
        let e = FaultEvent::StallUi { frame: 2, extra: SimDuration::from_millis(3) };
        let s = materialize(&[e, e]);
        assert_eq!(s.ui_extra(2), SimDuration::from_millis(6));
        assert_eq!(s.ui_extra(3), SimDuration::ZERO);
    }

    #[test]
    fn stacked_jitter_takes_max_not_sum() {
        let small = FaultEvent::JitterVsync { tick: 9, delay: SimDuration::from_millis(1) };
        let big = FaultEvent::JitterVsync { tick: 9, delay: SimDuration::from_millis(2) };
        assert_eq!(materialize(&[big, small]).tick_delay(9), SimDuration::from_millis(2));
    }

    #[test]
    fn zero_magnitude_events_are_noops() {
        let s = materialize(&[
            FaultEvent::StallRs { frame: 1, extra: SimDuration::ZERO },
            FaultEvent::JitterVsync { tick: 1, delay: SimDuration::ZERO },
        ]);
        assert!(s.is_empty());
    }

    #[test]
    fn serde_is_canonical() {
        let s =
            materialize(&[FaultEvent::MissVsync { tick: 30 }, FaultEvent::MissVsync { tick: 10 }]);
        let t =
            materialize(&[FaultEvent::MissVsync { tick: 10 }, FaultEvent::MissVsync { tick: 30 }]);
        assert_eq!(serde_json::to_string(&s).unwrap(), serde_json::to_string(&t).unwrap());
    }
}
