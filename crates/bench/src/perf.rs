//! Benchmark gates as data: the one place a throughput result is compared
//! against a floor or a committed baseline.
//!
//! Each throughput suite ([`crate::simcore`], [`crate::sweepbench`],
//! [`crate::tracebench`], [`crate::fleetbench`]) declares a `GATES` table of
//! [`Gate`]s over its result struct, and `repro bench <suite> --check
//! <baseline.json>` applies it through [`check`]. A test below pins every
//! table, so loosening a gate is a visible diff in two places.

use std::fmt;

/// A benchmark result that records which workload mode produced it.
pub trait Bench {
    /// Whether this was the reduced CI smoke workload.
    fn quick(&self) -> bool;
}

/// What a [`Gate`] requires of its metric.
pub enum Kind<T> {
    /// At least this value, in every mode: floors sit on in-run ratios and
    /// on rates, which do not depend on the workload size.
    Floor(f64),
    /// At most this fraction below the baseline, checked only when the
    /// workload modes match: quick and full runs use different mixes.
    Drop(f64),
    /// Within this fraction of the baseline either way, in every mode, for a
    /// metric that is a pure function of committed code and corpus.
    Drift(f64),
    /// Strictly below the named metric of the same run. Skipped when either
    /// reads 0: allocation counters stay at 0 unless the `repro` binary's
    /// counting allocator is installed.
    Below(&'static str, fn(&T) -> f64),
}

/// One gate: a named metric, how to read it, and what it must satisfy.
pub struct Gate<T> {
    /// The metric's path in the result's JSON.
    pub metric: &'static str,
    /// Reads the metric from a result.
    pub value: fn(&T) -> f64,
    /// The requirement.
    pub kind: Kind<T>,
}

impl<T> fmt::Display for Gate<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metric = self.metric;
        match self.kind {
            Kind::Floor(min) => write!(f, "{metric} >= {}", num(min)),
            Kind::Drop(tol) => write!(f, "{metric} >= {}% of baseline", num(100.0 * (1.0 - tol))),
            Kind::Drift(tol) => write!(f, "{metric} within {}% of baseline", num(100.0 * tol)),
            Kind::Below(other, _) => write!(f, "{metric} < {other}"),
        }
    }
}

fn num(v: f64) -> String {
    if v.fract() == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Applies `gates` to `current`, reading `baseline` where a gate compares
/// against it. Returns one line per gate when every gate holds or is
/// skipped, otherwise the line of every failing gate.
pub fn check<T: Bench>(current: &T, baseline: &T, gates: &[Gate<T>]) -> Result<String, String> {
    let same_mode = current.quick() == baseline.quick();
    let mut notes = String::new();
    let mut failures = String::new();
    for gate in gates {
        let now = (gate.value)(current);
        let base = (gate.value)(baseline);
        let (holds, against) = match gate.kind {
            Kind::Floor(min) => (now >= min, format!("floor {}", num(min))),
            Kind::Drop(_) if !same_mode => {
                notes.push_str(&format!("{gate}: skipped (workload modes differ)\n"));
                continue;
            }
            Kind::Drop(tol) => (now >= (1.0 - tol) * base, format!("baseline {}", num(base))),
            Kind::Drift(tol) => {
                ((now - base).abs() <= tol * base, format!("baseline {}", num(base)))
            }
            Kind::Below(other, read) => {
                let bound = read(current);
                if now == 0.0 || bound == 0.0 {
                    notes.push_str(&format!("{gate}: skipped (counter reads 0)\n"));
                    continue;
                }
                (now < bound, format!("{other} {}", num(bound)))
            }
        };
        let verdict = if holds { "ok" } else { "FAILED" };
        let line = format!("{gate}: {} vs {against}: {verdict}\n", num(now));
        if holds { &mut notes } else { &mut failures }.push_str(&line);
    }
    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(format!("benchmark gate failed:\n{failures}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleetbench::{self, FleetBench};
    use crate::simcore::{self, SimcoreBench};
    use crate::sweepbench::{self, SweepBench};
    use crate::tracebench::{self, TraceBench};

    type Check = Result<String, String>;

    fn committed() -> (SimcoreBench, SweepBench, TraceBench, FleetBench) {
        let parse = "committed baseline parses into its result struct";
        (
            serde_json::from_str(include_str!("../../../BENCH_simcore.json")).expect(parse),
            serde_json::from_str(include_str!("../../../BENCH_sweep.json")).expect(parse),
            serde_json::from_str(include_str!("../../../BENCH_trace.json")).expect(parse),
            serde_json::from_str(include_str!("../../../BENCH_fleet.json")).expect(parse),
        )
    }

    /// Checks a copy of `base` changed by `edit` against `base`.
    fn edited<T: Bench + Clone>(base: &T, gates: &[Gate<T>], edit: fn(&mut T)) -> Check {
        let mut current = base.clone();
        edit(&mut current);
        check(&current, base, gates)
    }

    #[test]
    fn committed_baselines_pass_their_own_gates() {
        let (sc, sw, tr, fl) = committed();
        for notes in [
            check(&sc, &sc, simcore::GATES),
            check(&sw, &sw, sweepbench::GATES),
            check(&tr, &tr, tracebench::GATES),
            check(&fl, &fl, fleetbench::GATES),
        ] {
            let notes = notes.expect("a committed baseline clears its own gates");
            assert!(!notes.contains("skipped"), "{notes}");
        }
    }

    /// The gate tables hold the committed constants; loosening one must
    /// also edit this pin.
    #[test]
    fn gate_tables_are_pinned() {
        fn pins<T>(suite: &str, gates: &[Gate<T>]) -> Vec<String> {
            gates.iter().map(|g| format!("{suite}: {g}")).collect()
        }
        let tables = [
            pins("simcore", simcore::GATES),
            pins("sweep", sweepbench::GATES),
            pins("trace", tracebench::GATES),
            pins("fleet", fleetbench::GATES),
        ];
        assert_eq!(
            tables.concat(),
            [
                "simcore: speedup >= 5",
                "simcore: speedup >= 80% of baseline",
                "simcore: event_heap.events_per_sec >= 80% of baseline",
                "sweep: speedup >= 3",
                "sweep: resilient_speedup >= 3",
                "sweep: optimized.bytes_allocated < classic.bytes_allocated",
                "sweep: speedup >= 80% of baseline",
                "sweep: optimized.cells_per_sec >= 80% of baseline",
                "trace: size_ratio >= 5",
                "trace: decode_speedup >= 5",
                "trace: size_ratio within 2% of baseline",
                "trace: decode_speedup >= 80% of baseline",
                "trace: binary_decode.frames_per_sec >= 80% of baseline",
                "fleet: batched.devices_per_min >= 1000000",
                "fleet: batched.devices_per_min >= 80% of baseline",
                "fleet: batch_speedup >= 80% of baseline",
            ]
        );
    }

    /// Each case checks an edited committed baseline against the unedited
    /// one: `Ok(s)` must pass with `s` in the notes, `Err(s)` must fail with
    /// `s` in the message.
    #[test]
    fn gates_catch_every_breach_and_skip_what_they_cannot_compare() {
        let (sc, sw, tr, fl) = committed();
        let simcore = |edit: fn(&mut SimcoreBench)| edited(&sc, simcore::GATES, edit);
        let sweep = |edit: fn(&mut SweepBench)| edited(&sw, sweepbench::GATES, edit);
        let trace = |edit: fn(&mut TraceBench)| edited(&tr, tracebench::GATES, edit);
        let fleet = |edit: fn(&mut FleetBench)| edited(&fl, fleetbench::GATES, edit);
        let mut untracked = sw.clone();
        (untracked.classic.bytes_allocated, untracked.optimized.bytes_allocated) = (0, 0);
        // The drift cases move against a 3% larger ratio, so no floor trips.
        let mut larger = tr.clone();
        larger.size_ratio *= 1.03;
        let mut quick_tr = tr.clone();
        quick_tr.quick = true;
        let cases: [(&str, Check, Result<&str, &str>); 30] = [
            ("simcore floor", simcore(|b| b.speedup = 4.9), Err("speedup >= 5: 4.900 vs floor 5")),
            ("simcore speedup -30%", simcore(|b| b.speedup *= 0.7), Err("speedup >= 80%")),
            ("simcore speedup -15%", simcore(|b| b.speedup *= 0.85), Ok("speedup >= 80%")),
            (
                "simcore events/s -30%",
                simcore(|b| b.event_heap.events_per_sec *= 0.7),
                Err("event_heap.events_per_sec >= 80%"),
            ),
            (
                "simcore modes differ",
                simcore(|b| {
                    b.quick = true;
                    b.speedup *= 0.5;
                    b.event_heap.events_per_sec *= 0.5;
                }),
                Ok("events_per_sec >= 80% of baseline: skipped (workload modes differ)"),
            ),
            (
                "simcore quick floor",
                simcore(|b| (b.quick, b.speedup) = (true, 4.0)),
                Err("floor 5"),
            ),
            ("sweep floor", sweep(|b| b.speedup = 2.5), Err("speedup >= 3: 2.500 vs floor 3")),
            (
                "sweep resilient floor",
                sweep(|b| b.resilient_speedup = 2.0),
                Err("resilient_speedup"),
            ),
            (
                "sweep optimized allocates more",
                sweep(|b| b.optimized.bytes_allocated = 2 * b.classic.bytes_allocated),
                Err("optimized.bytes_allocated < classic.bytes_allocated"),
            ),
            (
                "sweep optimized allocates as much",
                sweep(|b| b.optimized.bytes_allocated = b.classic.bytes_allocated),
                Err("< classic.bytes_allocated"),
            ),
            (
                "sweep classic counter zeroed",
                sweep(|b| b.classic.bytes_allocated = 0),
                Ok("classic.bytes_allocated: skipped (counter reads 0)"),
            ),
            (
                "sweep optimized counter zeroed",
                sweep(|b| b.optimized.bytes_allocated = 0),
                Ok("skipped (counter reads 0)"),
            ),
            (
                "sweep baseline counters zeroed",
                check(&sw, &untracked, sweepbench::GATES),
                Ok("vs classic.bytes_allocated 663127590: ok"),
            ),
            ("sweep speedup -30%", sweep(|b| b.speedup *= 0.7), Err("speedup >= 80%")),
            (
                "sweep cells/s -30%",
                sweep(|b| b.optimized.cells_per_sec *= 0.7),
                Err("optimized.cells_per_sec >= 80%"),
            ),
            (
                "sweep modes differ",
                sweep(|b| {
                    b.quick = true;
                    b.speedup *= 0.6;
                    b.optimized.cells_per_sec *= 0.6;
                }),
                Ok("cells_per_sec >= 80% of baseline: skipped (workload modes differ)"),
            ),
            ("trace size floor", trace(|b| b.size_ratio = 4.9), Err("size_ratio >= 5: 4.900")),
            ("trace decode floor", trace(|b| b.decode_speedup = 4.0), Err("decode_speedup >= 5")),
            ("trace drift +1%", trace(|b| b.size_ratio *= 1.01), Ok("size_ratio within 2%")),
            ("trace drift +3%", check(&larger, &tr, tracebench::GATES), Err("within 2%")),
            ("trace drift -3%", check(&tr, &larger, tracebench::GATES), Err("within 2%")),
            ("trace drift quick", check(&quick_tr, &larger, tracebench::GATES), Err("within 2%")),
            ("trace decode -30%", trace(|b| b.decode_speedup *= 0.7), Err("decode_speedup >= 80%")),
            (
                "trace frames/s -30%",
                trace(|b| b.binary_decode.frames_per_sec *= 0.7),
                Err("binary_decode.frames_per_sec >= 80%"),
            ),
            (
                "trace modes differ",
                trace(|b| {
                    b.quick = true;
                    b.decode_speedup *= 0.6;
                    b.binary_decode.frames_per_sec *= 0.6;
                }),
                Ok("frames_per_sec >= 80% of baseline: skipped (workload modes differ)"),
            ),
            (
                "fleet floor",
                fleet(|b| b.batched.devices_per_min = 5e5),
                Err("batched.devices_per_min >= 1000000: 500000 vs floor 1000000: FAILED"),
            ),
            (
                "fleet devices/min -30%",
                fleet(|b| b.batched.devices_per_min *= 0.7),
                Err("batched.devices_per_min >= 80%"),
            ),
            ("fleet speedup -30%", fleet(|b| b.batch_speedup *= 0.7), Err("batch_speedup >= 80%")),
            (
                "fleet modes differ",
                fleet(|b| {
                    b.quick = true;
                    b.batched.devices_per_min *= 0.7;
                    b.batch_speedup *= 0.7;
                }),
                Ok("batch_speedup >= 80% of baseline: skipped (workload modes differ)"),
            ),
            (
                "fleet quick floor",
                fleet(|b| (b.quick, b.batched.devices_per_min) = (true, 5e5)),
                Err("vs floor 1000000: FAILED"),
            ),
        ];
        for (name, got, want) in cases {
            match (&got, want) {
                (Ok(notes), Ok(needle)) => assert!(notes.contains(needle), "{name}: {notes}"),
                (Err(msg), Err(needle)) => assert!(msg.contains(needle), "{name}: {msg}"),
                _ => panic!("{name}: expected {want:?}, got {got:?}"),
            }
        }
    }
}
