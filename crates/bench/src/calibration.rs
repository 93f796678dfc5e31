//! The process-wide calibration memo: each `(spec, buffers)` pair is
//! bisected at most once per process, whichever artefact asks first.
//!
//! Every held-out D-VSync number is measured on a catalog whose VSync
//! baseline is first fitted to the paper's FDPS by bisection, and the same
//! four paper catalogs are fitted by Figs. 5, 6, 11–13 and 15, the census
//! and the FPS rows alike. Calibration is a pure function of the whole
//! [`ScenarioSpec`] and the baseline buffer count, so one fit can serve
//! them all without changing an output byte.
//!
//! * **Key** — the entire spec, compared with `==`, plus `buffers`. Two
//!   scenarios that share a name but differ in cost or seed never collide.
//! * **Value** — one write-once [`OnceLock`] slot per key, shared through an
//!   `Arc`. Concurrent sweep workers asking for the same key wait on one
//!   bisection instead of repeating it; the memo's lock is held only to
//!   find or insert the slot, never while fitting.
//! * **Size** — only the fitted [`CalibrationOutcome`] is kept, never
//!   traces or segments.
//!
//! [`GridCache`](crate::GridCache) sits on top: its miss path fits through
//! this memo. Bench arms call `clear` first, so each arm still times cold
//! calibration. `dvs_pipeline::calibrate_spec` itself stays uncached — it
//! is the cold reference that probes and the classic sweep arm time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dvs_pipeline::{calibrate_spec, calibrate_spec_pooled, CalibrationOutcome, RunArena};
use dvs_workload::ScenarioSpec;

/// Memo traffic since process start (telemetry only — never part of any
/// report, which must not depend on what an earlier artefact fitted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalibrationStats {
    /// Lookups served from an existing fit.
    pub hits: u64,
    /// Lookups that ran the bisection.
    pub misses: u64,
}

type Slot = Arc<OnceLock<CalibrationOutcome>>;

/// Calibration outcomes keyed on `(spec, buffers)`.
#[derive(Debug)]
pub(crate) struct CalibrationMemo {
    slots: Mutex<Vec<(ScenarioSpec, usize, Slot)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CalibrationMemo {
    pub(crate) const fn new() -> Self {
        CalibrationMemo {
            slots: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The outcome for `(spec, buffers)`, running `fit` only if no earlier
    /// lookup of the same key has.
    pub(crate) fn get_or_fit(
        &self,
        spec: &ScenarioSpec,
        buffers: usize,
        fit: impl FnOnce() -> CalibrationOutcome,
    ) -> CalibrationOutcome {
        let slot = self.slot_for(spec, buffers);
        let mut fitted = false;
        let outcome = slot.get_or_init(|| {
            fitted = true;
            fit()
        });
        let counter = if fitted { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome.clone()
    }

    /// The slot for `(spec, buffers)`, inserted empty on first sight.
    fn slot_for(&self, spec: &ScenarioSpec, buffers: usize) -> Slot {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, slot)) = slots.iter().find(|(s, b, _)| *b == buffers && s == spec) {
            return Arc::clone(slot);
        }
        let slot = Slot::default();
        slots.push((spec.clone(), buffers, Arc::clone(&slot)));
        slot
    }

    /// Forgets every fit (a fit in flight completes into its own slot).
    pub(crate) fn clear(&self) {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    pub(crate) fn stats(&self) -> CalibrationStats {
        CalibrationStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

static MEMO: CalibrationMemo = CalibrationMemo::new();

/// [`calibrate_spec`] through the process-wide memo: the first lookup of
/// `(spec, buffers)` fits it, every later one returns the same outcome.
pub fn calibrated(spec: &ScenarioSpec, buffers: usize) -> CalibrationOutcome {
    MEMO.get_or_fit(spec, buffers, || calibrate_spec(spec, buffers))
}

/// [`calibrated`] whose miss path fits through the caller's `arena`
/// ([`calibrate_spec_pooled`], bit-identical to [`calibrate_spec`]).
pub fn calibrated_pooled(
    spec: &ScenarioSpec,
    buffers: usize,
    arena: &mut RunArena,
) -> CalibrationOutcome {
    MEMO.get_or_fit(spec, buffers, || calibrate_spec_pooled(spec, buffers, arena))
}

/// Hit and miss counts of the process-wide memo.
pub fn calibration_stats() -> CalibrationStats {
    MEMO.stats()
}

/// Empties the process-wide memo, so the next lookup of every key fits
/// cold. Bench arms call this first; nothing else needs to.
pub(crate) fn clear() {
    MEMO.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepEngine;
    use dvs_workload::{scenarios, CostProfile};

    fn assert_same(a: &CalibrationOutcome, b: &CalibrationOutcome, what: &str) {
        assert_eq!(
            serde_json::to_string(&a.spec).expect("spec serialises"),
            serde_json::to_string(&b.spec).expect("spec serialises"),
            "{what}: fitted spec"
        );
        assert_eq!(a.measured_fdps.to_bits(), b.measured_fdps.to_bits(), "{what}: measured FDPS");
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    }

    #[test]
    fn memoized_outcomes_equal_fresh_fits_on_every_paper_catalog() {
        let specs: Vec<ScenarioSpec> = [
            scenarios::android_app_suite(),
            scenarios::mate40_gles_suite(),
            scenarios::mate60_gles_suite(),
            scenarios::mate60_vulkan_suite(),
            scenarios::game_suite(),
        ]
        .concat();
        let keys: Vec<(usize, usize)> =
            [3, 4].into_iter().flat_map(|b| (0..specs.len()).map(move |i| (i, b))).collect();
        let memo = CalibrationMemo::new();
        SweepEngine::new(2).run_with(keys.len(), RunArena::new, |arena, k| {
            let (i, buffers) = keys[k];
            let spec = &specs[i];
            let what = format!("{} at {buffers} buffers", spec.name);
            let fresh = calibrate_spec(spec, buffers);
            let miss =
                memo.get_or_fit(spec, buffers, || calibrate_spec_pooled(spec, buffers, arena));
            let hit = memo.get_or_fit(spec, buffers, || unreachable!("{what} was fitted above"));
            assert_same(&miss, &fresh, &what);
            assert_same(&hit, &fresh, &what);
        });
        let n = keys.len() as u64;
        assert_eq!(memo.stats(), CalibrationStats { hits: n, misses: n });
    }

    #[test]
    fn specs_sharing_a_name_do_not_collide() {
        let base =
            ScenarioSpec::new("twin", 60, 240, CostProfile::scattered(1.0)).with_paper_fdps(2.0);
        let mut costlier = base.clone();
        costlier.cost.long_min_periods += 0.5;
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        let memo = CalibrationMemo::new();
        for (what, spec) in [("base", &base), ("costlier", &costlier), ("reseeded", &reseeded)] {
            let fitted = memo.get_or_fit(spec, 3, || calibrate_spec(spec, 3));
            assert_same(&fitted, &calibrate_spec(spec, 3), what);
        }
        // Same spec, other buffer count: a fourth key.
        memo.get_or_fit(&base, 4, || calibrate_spec(&base, 4));
        assert_eq!(memo.stats(), CalibrationStats { hits: 0, misses: 4 });
    }

    #[test]
    fn concurrent_workers_fit_a_key_exactly_once() {
        let spec =
            ScenarioSpec::new("shared", 60, 240, CostProfile::scattered(1.0)).with_paper_fdps(2.0);
        let memo = CalibrationMemo::new();
        let fits = AtomicU64::new(0);
        let fdps = SweepEngine::new(4).run_with(64, RunArena::new, |arena, _| {
            memo.get_or_fit(&spec, 3, || {
                fits.fetch_add(1, Ordering::Relaxed);
                calibrate_spec_pooled(&spec, 3, arena)
            })
            .measured_fdps
            .to_bits()
        });
        assert_eq!(fits.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats(), CalibrationStats { hits: 63, misses: 1 });
        assert!(fdps.iter().all(|&f| f == fdps[0]));
    }

    #[test]
    fn cleared_memo_fits_again() {
        let spec =
            ScenarioSpec::new("cold", 60, 120, CostProfile::scattered(1.0)).with_paper_fdps(1.0);
        let memo = CalibrationMemo::new();
        let first = memo.get_or_fit(&spec, 3, || calibrate_spec(&spec, 3));
        memo.clear();
        let second = memo.get_or_fit(&spec, 3, || calibrate_spec(&spec, 3));
        assert_same(&first, &second, "refit after clear");
        assert_eq!(memo.stats(), CalibrationStats { hits: 0, misses: 2 });
    }
}
