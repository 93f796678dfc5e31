//! Deterministic fault injection for the D-VSync simulator.
//!
//! A [`FaultPlan`] describes *what can go wrong* during a run: explicitly
//! scheduled perturbations ([`FaultEvent`]) plus seeded-stochastic fault
//! processes ([`StochasticFault`]). The simulator reads it through one of two
//! views over the run's [`Horizon`]: a [`CompiledFaults`] stream, whose
//! per-tick processes draw only as far as the run's tick frontier (the
//! event-heap core), or the whole horizon [materialized](FaultPlan::materialize)
//! into a [`FaultSchedule`] of ordered maps (the reference core, the
//! compositor, golden files).
//!
//! # Determinism contract
//!
//! All stochastic draws are seeded from [`dvs_sim::stable_seed`] of the
//! plan's textual `seed_key`; each process forks its own stream (by plan
//! position) and draws in index order. The stream is **prefix-stable**: once
//! [`CompiledFaults::advance`] has passed tick `k`, every answer at ticks
//! `≤ k` equals the materialized schedule's — `materialize` is the stream
//! advanced to the horizon's end. Therefore:
//!
//! * identical plan + seed ⇒ byte-identical fault stream, run after run,
//!   regardless of worker thread, query order, or wall clock;
//! * the simulator never draws fault randomness that depends on its own
//!   state — its progress decides only how far the stream is drawn, never
//!   what a drawn tick holds.
//!
//! This is what makes a faulty run replayable: record the plan, not the
//! symptoms.
//!
//! # Examples
//!
//! ```
//! use dvs_faults::{FaultPlan, Horizon, StochasticFault, StochasticKind};
//! use dvs_sim::SimDuration;
//!
//! let plan = FaultPlan::new("demo")
//!     .with_stochastic(StochasticFault {
//!         kind: StochasticKind::GpuStall,
//!         probability: 0.1,
//!         magnitude: SimDuration::from_millis(12),
//!     });
//! let horizon = Horizon::new(100, 300, SimDuration::from_nanos(16_666_667));
//! let a = plan.materialize(&horizon);
//! let b = plan.materialize(&horizon);
//! assert_eq!(a, b, "same plan + seed => identical schedule");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod plan;
mod profiles;
mod schedule;

pub use compiled::CompiledFaults;
pub use plan::{FaultEvent, FaultPlan, Horizon, StochasticFault, StochasticKind};
pub use profiles::{named_profile, profile_names};
pub use schedule::FaultSchedule;
