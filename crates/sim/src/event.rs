//! A deterministic future-event list.
//!
//! [`EventQueue`] is a sorted small event list keyed by `(time, sequence)`
//! where the sequence number records insertion order. Two events scheduled
//! for the same instant therefore pop in the order they were scheduled,
//! which keeps simulations bit-for-bit reproducible.
//!
//! The simulator never holds more than a handful of pending events (one
//! tick, one wake, one UI completion and one render completion per
//! context), so the list is a plain `Vec` kept sorted *descending*: `pop`
//! takes the last element and `schedule` shifts a few entries to insert.
//! At that size a linear scan and a short `memmove` beat a binary heap's
//! swap-based sifting. The queue can be pre-sized
//! ([`EventQueue::with_capacity`]) so the steady-state loop stays
//! allocation-free: once the backing vector has grown to the run's working
//! set, `schedule`/`pop` never touch the allocator again.

use crate::SimTime;

/// A pending event: ordered by time, then by insertion sequence.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// Strict `(time, seq)` ordering; `seq` is unique, so ties cannot occur.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A deterministic priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use dvs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), 'b');
/// q.schedule(SimTime::from_millis(1), 'a');
/// q.schedule(SimTime::from_millis(2), 'c'); // same instant as 'b'
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Pending events sorted descending by `(at, seq)`: the earliest event
    /// is the last element.
    list: Vec<Entry<E>>,
    next_seq: u64,
    /// Total events ever scheduled (diagnostics for throughput reporting).
    scheduled: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        // dvs-lint: allow(hot-alloc, reason = "empty Vec::new is allocation-free; hot callers pre-size via with_capacity/reserve")
        EventQueue { list: Vec::new(), next_seq: 0, scheduled: 0 }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// Sizing the queue to a run's expected working set keeps the
    /// steady-state `schedule`/`pop` cycle free of allocator traffic.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { list: Vec::with_capacity(capacity), next_seq: 0, scheduled: 0 }
    }

    /// Ensures room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.list.reserve(additional);
    }

    /// The number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.list.capacity()
    }

    /// Schedules `payload` to fire at instant `at`.
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = Entry { at, seq: self.next_seq, payload };
        self.next_seq += 1;
        self.scheduled += 1;
        // Insert ahead of the first entry that pops before the new one. The
        // new `seq` is the largest so far, so pending same-instant entries
        // stay nearer the end and pop first.
        let at_pos = self.list.iter().position(|x| x.before(&entry)).unwrap_or(self.list.len());
        self.list.insert(at_pos, entry);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.list.pop().map(|e| (e.at, e.payload))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.list.last().map(|e| e.at)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Total events ever scheduled on this queue (not just pending).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Drops all pending events, keeping the backing allocation.
    pub fn clear(&mut self) {
        self.list.clear();
    }

    /// Returns the queue to its freshly-constructed state while keeping the
    /// backing allocation.
    ///
    /// Unlike [`EventQueue::clear`], this also rewinds the insertion-sequence
    /// counter and the `total_scheduled` diagnostic. A pooled queue that is
    /// reused across simulation runs must call this between runs: sequence
    /// numbers are the deterministic tie-break for same-instant events, so a
    /// reused queue that kept counting would dispatch ties in a different
    /// order than a fresh queue and break bit-for-bit reproducibility.
    pub fn reset(&mut self) {
        self.list.clear();
        self.next_seq = 0;
        self.scheduled = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.list.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, SimRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for ms in [5u64, 1, 9, 3] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, [1, 3, 5, 9]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        q.schedule(SimTime::from_millis(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_millis(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_queue_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        for i in 0..10u64 {
            q.schedule(SimTime::ZERO + SimDuration::from_millis(i), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= cap);
    }

    #[test]
    fn reset_restores_fresh_queue_semantics_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        for i in 0..10u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 0, "reset must rewind the throughput counter");
        assert!(q.capacity() >= cap, "reset must keep the backing allocation");
        // Tie-break determinism: after reset, same-instant events must pop in
        // the new insertion order, exactly as they would on a fresh queue.
        let t = SimTime::from_millis(1);
        for i in 100..110u64 {
            q.schedule(t, i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u64> = (100..110).collect();
        assert_eq!(got, want);
        assert_eq!(q.total_scheduled(), 10);
    }

    #[test]
    fn presized_queue_does_not_grow_in_steady_state() {
        let mut q = EventQueue::with_capacity(8);
        let cap = q.capacity();
        // A schedule/pop ping-pong far longer than the capacity: the live set
        // never exceeds 4, so the backing vector must never reallocate.
        for round in 0..10_000u64 {
            while q.len() < 4 {
                q.schedule(SimTime::from_nanos(round * 7 + q.len() as u64), round);
            }
            q.pop();
            q.pop();
        }
        assert_eq!(q.capacity(), cap, "steady-state loop must not reallocate");
    }

    #[test]
    fn matches_sorted_model_under_random_interleaving() {
        // Differential check of the sorted list against a sort: random
        // schedule/pop interleavings must agree with (time, seq) order.
        let mut rng = SimRng::seed_from(0xD15C0);
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for step in 0..5_000u32 {
            if !rng.next_u64().is_multiple_of(3) || model.is_empty() {
                let at = SimTime::from_nanos(rng.next_u64() % 1_000);
                q.schedule(at, step);
                model.push((at, seq, step));
                seq += 1;
            } else {
                let (at, payload) = q.pop().expect("model non-empty");
                let best = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, s, _))| (t, s))
                    .map(|(i, _)| i)
                    .expect("model non-empty");
                let (mt, _, mp) = model.swap_remove(best);
                popped.push((at, payload));
                expected.push((mt, mp));
            }
        }
        while let Some((at, payload)) = q.pop() {
            let best = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))
                .map(|(i, _)| i)
                .expect("queue and model agree on emptiness");
            let (mt, _, mp) = model.swap_remove(best);
            popped.push((at, payload));
            expected.push((mt, mp));
        }
        assert!(model.is_empty());
        assert_eq!(popped, expected);
    }

    #[test]
    fn total_scheduled_counts_all_inserts() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.total_scheduled(), 5);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    mod reference_order {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random schedule/pop/reset interleavings pop in exactly the
            /// order of a map keyed by `(time, insertion seq)`. Times come
            /// from a narrow range so same-instant ties are common.
            #[test]
            fn pops_in_btreemap_order(
                ops in prop::collection::vec((0u8..8, 0u64..12), 0..400),
            ) {
                let mut q = EventQueue::with_capacity(4);
                let mut model: BTreeMap<(SimTime, u64), u32> = BTreeMap::new();
                let mut seq = 0u64;
                for (step, (op, at)) in ops.into_iter().enumerate() {
                    match op {
                        0..=4 => {
                            let at = SimTime::from_nanos(at);
                            q.schedule(at, step as u32);
                            model.insert((at, seq), step as u32);
                            seq += 1;
                        }
                        5 | 6 => {
                            let want = model.pop_first().map(|((at, _), e)| (at, e));
                            prop_assert_eq!(q.pop(), want);
                        }
                        _ => {
                            q.reset();
                            model.clear();
                            seq = 0;
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(at, _)| at));
                    prop_assert_eq!(q.total_scheduled(), seq);
                }
                let rest: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
                let want: Vec<(SimTime, u32)> =
                    model.into_iter().map(|((at, _), e)| (at, e)).collect();
                prop_assert_eq!(rest, want);
            }
        }
    }
}
