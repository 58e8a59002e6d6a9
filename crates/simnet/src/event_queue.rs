//! The future event set: one binary heap of `(time, seq)`-keyed events.
//! It knows nothing about the simulation: it stores opaque payloads of
//! type `T` and pops them in exact key order. The engine owns one.
//!
//! # Why a heap
//!
//! The queue is small. Counted at seed 11 over every simulation a
//! benchmark workload runs (overload rungs included), it peaks at 275 /
//! 152 / 157 / 102 pending events on `mring_stream` / `smr_update` /
//! `smr_query` / `uring_failover` (69 in `mring_stream`'s main run), and
//! at 138 on `perf_smoke --sessions 1_000_000`: at most nine levels of
//! `std`'s `BinaryHeap`. A structure sized for tens of thousands of
//! packets in flight does not pay at these sizes, and every path that
//! reshapes one (buckets, a far-future overflow, a scan position) can
//! break the order.
//!
//! # Determinism
//!
//! `seq` increments once per scheduled event, so no two entries share a
//! `(time, seq)` key: the pop order is total and needs no tie rule.
//! Same-instant events pop in scheduling order, and any run is
//! bit-for-bit reproducible from its seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// Recycling slab with a free list: the engine's queued `Envelope`
/// bodies live here (see `sim` module docs, "Envelope slab"). Slot
/// indices are dense `u32`s and freed slots are reused immediately.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

// Manual impl: `derive` would needlessly require `T: Default`.
impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    #[inline]
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(value);
                id
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Borrows a filed value (peeks).
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &T {
        self.slots[id as usize].as_ref().expect("filed slab entry present")
    }

    /// Removes a filed value, recycling its slot.
    #[inline]
    pub(crate) fn take(&mut self, id: u32) -> T {
        let value = self.slots[id as usize].take().expect("filed slab entry present");
        self.free.push(id);
        value
    }
}

/// One queued event. Ordered by its `(time, seq)` key alone, reversed,
/// so `std`'s max-heap pops the earliest event first.
struct Entry<T> {
    time: Time,
    seq: u64,
    kind: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    #[inline]
    fn cmp(&self, other: &Entry<T>) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A binary heap of `(Time, seq)`-keyed events (module docs: why a heap).
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

// Manual impl: `derive` would needlessly require `T: Default`.
impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue { heap: BinaryHeap::new() }
    }
}

impl<T> EventQueue<T> {
    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, kind: T) {
        self.heap.push(Entry { time, seq, kind });
    }

    /// Pops the minimum `(time, seq)` event if its time is at or before
    /// `deadline`; returns `None` (leaving it queued) otherwise.
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<(Time, T)> {
        if self.heap.peek()?.time > deadline {
            return None;
        }
        let e = self.heap.pop().expect("peeked");
        Some((e.time, e.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;

    /// A same-timestamp burst must pop in exact `seq` order, including
    /// same-instant pushes interleaved with its pops.
    #[test]
    fn pops_co_located_bursts_in_seq_order() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let t = Time::ZERO + Dur::micros(1);
        let mut seq = 0u64;
        for _ in 0..1000 {
            seq += 1;
            q.push(t, seq, seq);
        }
        let mut popped = Vec::new();
        for round in 0..500 {
            let (time, token) = q.pop_due(Time::MAX).expect("queued");
            assert_eq!(time, t);
            popped.push(token);
            // Interleave same-instant pushes while the burst drains.
            if round % 7 == 0 {
                seq += 1;
                q.push(t, seq, seq);
            }
        }
        while let Some((_, token)) = q.pop_due(Time::MAX) {
            popped.push(token);
        }
        let mut want = popped.clone();
        want.sort_unstable();
        assert_eq!(popped, want, "pops must follow seq order");
        assert_eq!(popped.len(), 1000 + 500usize.div_ceil(7));
    }

    /// Events pushed below one that a bounded pop left queued must pop
    /// before it, in time order.
    #[test]
    fn rewind_pops_near_events_first() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let far = Time::ZERO + Dur::millis(30);
        for seq in 1..=40u64 {
            q.push(far, seq, seq);
        }
        // A deadline below the far burst leaves it queued.
        assert!(q.pop_due(Time::ZERO).is_none());
        // Then a near burst plus one timer between the two.
        let near = Time::ZERO + Dur::micros(1);
        for seq in 100..140u64 {
            q.push(near, seq, seq);
        }
        q.push(Time::ZERO + Dur::millis(1), 200, 200);
        let mut popped = Vec::new();
        while let Some((time, _)) = q.pop_due(Time::MAX) {
            popped.push(time);
        }
        assert_eq!(popped.len(), 81, "no event lost or duplicated");
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "popped out of order: {popped:?}");
    }

    /// Distance of a far-future push: a long protocol timer, beyond the
    /// datagram pipeline's 10–200 µs horizon.
    const FAR: Dur = Dur::millis(34);

    /// Co-located events per burst, to keep the proptest exercising dense
    /// same-timestamp bursts.
    const BURST: usize = 36;

    proptest::proptest! {
        /// Model-based check of the queue's hand-written `Ord` and
        /// `pop_due`'s deadline rule against a `BinaryHeap` of std's
        /// `Reverse<(Time, u64)>`, under arbitrary interleavings of
        /// near-future pushes, same-timestamp bursts, far-future timers,
        /// deadline-limited pops, and pushes below an event a bounded
        /// pop left queued. Both structures must agree on the exact
        /// `(time, seq)` pop order.
        #[test]
        fn event_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u8..6u8, proptest::any::<u32>()), 0..120)
        ) {
            let mut q: EventQueue<u64> = EventQueue::default();
            let mut model: BinaryHeap<std::cmp::Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            // Lower bound for new pushes: the engine never schedules
            // below `now`, but the queue's minimum may sit far above it.
            let mut cursor = Time::ZERO;
            let push = |q: &mut EventQueue<u64>,
                            model: &mut BinaryHeap<std::cmp::Reverse<(Time, u64)>>,
                            seq: &mut u64,
                            at: Time| {
                *seq += 1;
                q.push(at, *seq, *seq);
                model.push(std::cmp::Reverse((at, *seq)));
            };
            let pop_and_check = |q: &mut EventQueue<u64>,
                                     model: &mut BinaryHeap<std::cmp::Reverse<(Time, u64)>>,
                                     deadline: Time|
             -> Result<Option<Time>, proptest::test_runner::TestCaseError> {
                let got = q.pop_due(deadline);
                let want = match model.peek() {
                    Some(&std::cmp::Reverse((t, _))) if t <= deadline => {
                        let std::cmp::Reverse((t, s)) = model.pop().expect("peeked");
                        Some((t, s))
                    }
                    _ => None,
                };
                match (got, want) {
                    (None, None) => Ok(None),
                    (Some((t, token)), Some((wt, ws))) => {
                        prop_assert_eq!((t, token), (wt, ws), "pop order diverged");
                        Ok(Some(t))
                    }
                    (got, want) => {
                        let got = got.map(|(t, _)| t);
                        let want = want.map(|(t, _)| t);
                        prop_assert_eq!(got, want, "one side popped, the other did not");
                        Ok(None)
                    }
                }
            };
            for &(op, arg) in &ops {
                let jitter = Dur::nanos((arg % 500_000) as u64);
                match op {
                    // Near-future push.
                    0 => push(&mut q, &mut model, &mut seq, cursor + jitter),
                    // Same-timestamp burst.
                    1 => {
                        let t = cursor + Dur::nanos((arg % 100_000) as u64);
                        for _ in 0..BURST {
                            push(&mut q, &mut model, &mut seq, t);
                        }
                    }
                    // Far-future push, one to three `FAR`s out.
                    2 => {
                        let n = 1 + (arg % 3) as u64;
                        push(&mut q, &mut model, &mut seq, cursor + FAR * n + jitter);
                    }
                    // A pop bounded at the cursor (usually popping
                    // nothing), then a push just above the cursor, below
                    // the queued minimum.
                    3 => {
                        let _ = pop_and_check(&mut q, &mut model, cursor)?;
                        push(&mut q, &mut model, &mut seq, cursor + Dur::nanos((arg % 4_000) as u64));
                    }
                    // Bounded-deadline pops.
                    4 => {
                        let deadline = cursor + jitter;
                        for _ in 0..8 {
                            if let Some(t) = pop_and_check(&mut q, &mut model, deadline)? {
                                cursor = cursor.max(t);
                            } else {
                                break;
                            }
                        }
                    }
                    // Unbounded pops (a few).
                    _ => {
                        for _ in 0..4 {
                            if let Some(t) = pop_and_check(&mut q, &mut model, Time::MAX)? {
                                cursor = cursor.max(t);
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
            // Drain both completely; the full residual order must match.
            loop {
                let t = pop_and_check(&mut q, &mut model, Time::MAX)?;
                match t {
                    Some(t) => cursor = cursor.max(t),
                    None => break,
                }
            }
            prop_assert!(model.is_empty());
            prop_assert!(q.heap.is_empty());
        }
    }
}
