//! The lazy fault stream answers exactly like the full-horizon schedule.
//!
//! [`CompiledFaults::stream`] draws per-tick processes only as far as
//! [`CompiledFaults::advance`] has moved its frontier. These properties
//! advance streams to random increasing frontiers and check, after every
//! step, that each tick already passed answers exactly what
//! `materialize().compile()` and the ordered-map [`FaultSchedule`] answer —
//! so drawing a prefix never changes it (prefix stability) — and, once the
//! frontier reaches the tick cap, that every tick and frame agrees. Every
//! named profile and random plans run at 60/90/120 Hz over 1, 24, 60 and 600
//! frames with the simulator's tick cap (`20 × frames + 200`).

use dvs_faults::{
    named_profile, profile_names, CompiledFaults, FaultEvent, FaultPlan, FaultSchedule, Horizon,
    StochasticFault, StochasticKind,
};
use dvs_sim::SimDuration;
use proptest::prelude::*;

const RATES_HZ: [u64; 3] = [60, 90, 120];
const FRAMES: [u64; 4] = [1, 24, 60, 600];

fn horizons() -> impl Iterator<Item = Horizon> {
    RATES_HZ.into_iter().flat_map(|hz| {
        let period = SimDuration::from_nanos(1_000_000_000 / hz);
        FRAMES.into_iter().map(move |frames| Horizon::new(frames, 20 * frames + 200, period))
    })
}

/// Checks every tick in `0..=through` of `stream` against the references.
fn check_ticks(
    stream: &CompiledFaults,
    schedule: &FaultSchedule,
    compiled: &CompiledFaults,
    through: u64,
) -> Result<(), TestCaseError> {
    for tick in 0..=through {
        let got = (stream.is_missed(tick), stream.tick_delay(tick), stream.deny_alloc(tick));
        let want = (schedule.is_missed(tick), schedule.tick_delay(tick), schedule.deny_alloc(tick));
        prop_assert_eq!(got, want, "tick {} vs schedule", tick);
        let dense =
            (compiled.is_missed(tick), compiled.tick_delay(tick), compiled.deny_alloc(tick));
        prop_assert_eq!(got, dense, "tick {} vs compiled schedule", tick);
    }
    Ok(())
}

/// Advances a stream of `plan` through `frontiers` (sorted here), checking
/// the drawn prefix after each step, then the whole horizon.
fn assert_stream_matches(
    plan: &FaultPlan,
    h: &Horizon,
    frontiers: &[u64],
) -> Result<(), TestCaseError> {
    let schedule = plan.materialize(h);
    let compiled = schedule.compile(h.ticks, h.frames);
    let mut stream = CompiledFaults::stream(plan, h);
    prop_assert_eq!(stream.rate_switches().to_vec(), schedule.rate_switches());
    for frame in 0..h.frames {
        prop_assert_eq!(stream.ui_extra(frame), schedule.ui_extra(frame), "ui @{}", frame);
        prop_assert_eq!(stream.rs_extra(frame), schedule.rs_extra(frame), "rs @{}", frame);
    }
    let mut frontiers = frontiers.to_vec();
    frontiers.sort_unstable();
    frontiers.push(h.ticks);
    for through in frontiers {
        stream.advance(through);
        check_ticks(&stream, &schedule, &compiled, through.min(h.ticks))?;
    }
    // Past the horizon every view answers clean.
    check_ticks(&stream, &schedule, &compiled, h.ticks + 2)
}

/// Builds a plan from plain integers: `sched` entries are `(kind, index,
/// magnitude ms)` events, `stoch` entries `(kind, probability %, magnitude
/// ms)` processes. Indices reach past the largest tick cap so out-of-horizon
/// events are covered too.
fn build_plan(seed: u64, sched: &[(u8, u64, u64)], stoch: &[(u8, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new(format!("stream/{seed}"));
    for &(k, idx, mag) in sched {
        let extra = SimDuration::from_micros(mag * 250);
        plan = plan.with_event(match k % 6 {
            0 => FaultEvent::StallUi { frame: idx % 700, extra },
            1 => FaultEvent::StallRs { frame: idx % 700, extra },
            2 => FaultEvent::MissVsync { tick: idx },
            3 => FaultEvent::JitterVsync { tick: idx, delay: extra },
            4 => FaultEvent::DenyAlloc { tick: idx },
            _ => {
                FaultEvent::RateSwitch { tick: idx, rate_hz: [0, 60, 90, 120][(mag % 4) as usize] }
            }
        });
    }
    for &(k, prob, mag) in stoch {
        plan = plan.with_stochastic(StochasticFault {
            kind: match k % 5 {
                0 => StochasticKind::GpuStall,
                1 => StochasticKind::UiPause,
                2 => StochasticKind::VsyncMiss,
                3 => StochasticKind::VsyncJitter,
                _ => StochasticKind::AllocFail,
            },
            probability: prob as f64 / 100.0,
            magnitude: SimDuration::from_millis(mag),
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every named profile, under any seed key, at every rate and length.
    #[test]
    fn named_profile_streams_match_materialized_schedules(
        key in any::<u64>(),
        frontiers in prop::collection::vec(0u64..13_000, 0..6),
    ) {
        for name in profile_names() {
            let plan = named_profile(name, format!("{name}/{key}")).expect("named profile");
            for h in horizons() {
                assert_stream_matches(&plan, &h, &frontiers)?;
            }
        }
    }

    /// Random plans: scheduled events (some past the horizon, some rate 0)
    /// and stochastic processes with any probability in `[0, 1]`.
    #[test]
    fn random_plan_streams_match_materialized_schedules(
        seed in any::<u64>(),
        sched in prop::collection::vec((0u8..6, 0u64..13_000, 0u64..80), 0..10),
        stoch in prop::collection::vec((0u8..5, 0u64..=100, 0u64..25), 0..5),
        frontiers in prop::collection::vec(0u64..13_000, 0..6),
    ) {
        let plan = build_plan(seed, &sched, &stoch);
        for h in horizons() {
            assert_stream_matches(&plan, &h, &frontiers)?;
        }
    }
}

/// A frontier that creeps one tick at a time — the way the simulator drives
/// the stream — draws exactly what one jump to the cap draws.
#[test]
fn tick_by_tick_advance_matches_one_jump() {
    let plan = named_profile("mixed", "creep").expect("named profile");
    for h in horizons() {
        let schedule = plan.materialize(&h);
        let mut stream = CompiledFaults::stream(&plan, &h);
        for k in 0..=h.ticks {
            stream.advance(k + 1);
            assert_eq!(stream.is_missed(k), schedule.is_missed(k), "miss @{k}");
            assert_eq!(stream.tick_delay(k + 1), schedule.tick_delay(k + 1), "delay @{k}");
            assert_eq!(stream.deny_alloc(k + 1), schedule.deny_alloc(k + 1), "deny @{k}");
        }
    }
}
