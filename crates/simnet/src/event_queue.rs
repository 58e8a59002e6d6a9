//! The future event set: a calendar queue with *sorted* buckets and a
//! binary-heap overflow for far-future timers.
//!
//! # Layer boundary
//!
//! This module knows nothing about the simulation: it stores opaque
//! payloads of type `T` keyed by `(Time, seq)` and pops them in exact key
//! order. The engine owns exactly one `EventQueue`.
//!
//! # Why a calendar
//!
//! Every simulated packet passes through the queue twice (host
//! arrival, delivery). A binary heap pays an O(log n) sift on every push
//! and pop; a calendar queue [Brown 1988] files each event in the bucket
//! covering its timestamp — `buckets[(time >> BUCKET_SHIFT) & BUCKET_MASK]`
//! — making both operations O(1) amortized at simulation event densities.
//!
//! # Intra-bucket order: O(1) pop
//!
//! Buckets are kept sorted ascending by `(time, seq)` *on push* behind a
//! consumed-prefix cursor ([`Bucket::head`]): push binary-searches the
//! live region (an append when keys arrive in order, which is the common
//! case — same-instant bursts carry increasing `seq`), and pop takes the
//! bucket head without scanning. This replaces the per-pop
//! minimum-of-bucket scan *and* the "hot bucket" extract-and-sort side
//! stack the previous design needed for same-timestamp bursts: a burst
//! of k co-located events now costs k appends and k O(1) pops, and the
//! rewind path (a driver injecting work behind a parked scan) is just a
//! scan-position reset — sorted buckets need no flush protocol.
//!
//! # Bucket-width heuristic
//!
//! The width must sit between two failure modes: too wide and every event
//! lands in one bucket, too narrow and pops spin over empty buckets. The
//! engine's event horizon is dominated by the datagram pipeline — CPU
//! costs (1–30 µs), link serialization (~12 µs/KB at 1 Gbps), and the
//! 50 µs one-way latency — so pending packet events live 10–200 µs ahead
//! of `now`. A 4.096 µs bucket spreads that horizon over ~10–50 buckets,
//! keeping per-bucket occupancy at a few events even with tens of
//! thousands of packets in flight, while ms-scale protocol timers still
//! fall inside the ~33.6 ms "year". Only rare long timers (suspicion,
//! GC, heartbeats) overflow to the heap, whose O(log n) cost is then
//! paid per *timer*, not per packet.
//!
//! # Determinism
//!
//! Keys are unique (`seq` increments per push), and
//! [`EventQueue::pop_due`] always takes the minimum `(time, seq)` key:
//! events with the current scan slot's timestamp can only live at that
//! slot's bucket head, earlier slots have been drained, and the overflow
//! heap is migrated into the calendar before it can hold anything within
//! the active year. Bucket layout is
//! therefore unobservable, and any run is bit-for-bit reproducible from
//! its seed.

use std::collections::BinaryHeap;

use crate::time::Time;

/// Recycling slab with a free list: the storage pattern behind both the
/// event queue's payloads and the engine's queued `Envelope` bodies
/// (see `sim` module docs, "Envelope slab"). Slot indices are dense
/// `u32`s and freed slots are reused immediately.
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

/// Compact ordering key for one queued event. The payload lives in the
/// queue's slab; only these 24 bytes move within buckets.
#[derive(Clone, Copy)]
struct EventKey {
    time: Time,
    seq: u64,
    slot: u32,
}

impl EventKey {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &EventKey) -> bool {
        self.key() == other.key()
    }
}

impl Eq for EventKey {}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &EventKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &EventKey) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Virtual-time width of one calendar bucket, as a power of two:
/// `1 << BUCKET_SHIFT` nanoseconds (4.096 µs).
const BUCKET_SHIFT: u32 = 12;
/// Number of calendar buckets (a power of two). One "year" —
/// `BUCKET_COUNT << BUCKET_SHIFT` — spans ~33.6 ms of virtual time.
const BUCKET_COUNT: usize = 1 << 13;
const BUCKET_MASK: u64 = BUCKET_COUNT as u64 - 1;

/// One calendar bucket: entries in `items[head..]` sorted ascending by
/// `(time, seq)`; `items[..head]` is the consumed prefix, compacted away
/// once it dominates the allocation.
#[derive(Default)]
struct Bucket {
    items: Vec<EventKey>,
    head: usize,
}

impl Bucket {
    #[inline]
    fn peek(&self) -> Option<&EventKey> {
        self.items.get(self.head)
    }

    /// Files `e` keeping the live region sorted. Appends when `e` is the
    /// new maximum (the common case: co-located bursts push increasing
    /// `seq`, and a bucket's events are mostly created in time order);
    /// otherwise binary-searches the live region.
    #[inline]
    fn insert(&mut self, e: EventKey) {
        if self.items.last().is_none_or(|last| last.key() < e.key()) {
            self.items.push(e);
            return;
        }
        let pos = self.items[self.head..].partition_point(|x| x.key() < e.key());
        self.items.insert(self.head + pos, e);
    }

    /// Removes and returns the bucket minimum (the head). O(1); the
    /// consumed prefix is dropped lazily once it is at least half the
    /// vector, keeping compaction cost amortized constant.
    #[inline]
    fn pop_head(&mut self) -> EventKey {
        let e = self.items[self.head];
        self.head += 1;
        if self.head == self.items.len() {
            self.items.clear();
            self.head = 0;
        } else if self.head >= 64 && self.head * 2 >= self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
        e
    }
}

/// A calendar queue of `(Time, seq)`-keyed events over a slab of opaque
/// payloads, with a binary-heap overflow for far-future entries. See the
/// module docs for the design rationale.
pub(crate) struct EventQueue<T> {
    /// Calendar buckets; `buckets[vslot & BUCKET_MASK]` holds events
    /// whose `time >> BUCKET_SHIFT == vslot` for vslots within roughly
    /// one year of the scan position (older years sort first, so the
    /// bucket head is always the bucket minimum).
    buckets: Vec<Bucket>,
    /// Current scan slot: no bucketed event's vslot is below it.
    cur_vslot: u64,
    /// Events currently filed in the calendar.
    in_buckets: usize,
    /// Far-future events (≥ one year ahead at push time), ordered by
    /// `(time, seq)`; migrated into the calendar as the scan approaches.
    overflow: BinaryHeap<std::cmp::Reverse<EventKey>>,
    /// The queued events' payloads; bucket entries carry slot indices.
    slab: Slab<T>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue {
            buckets: (0..BUCKET_COUNT).map(|_| Bucket::default()).collect(),
            cur_vslot: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            slab: Slab::default(),
        }
    }
}

impl<T> EventQueue<T> {
    #[inline]
    fn vslot(time: Time) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, kind: T) {
        let slot = self.slab.insert(kind);
        let entry = EventKey { time, seq, slot };
        let vslot = Self::vslot(time);
        if vslot >= self.cur_vslot + BUCKET_COUNT as u64 {
            self.overflow.push(std::cmp::Reverse(entry));
            return;
        }
        // An event behind the scan position (possible when a driver
        // injects work after `run_until` parked the scan on a far-future
        // timer): rewind so the scan cannot miss it.
        // Buckets stay sorted, so unlike the earlier extract-and-sort
        // design there is no side state to flush — the reset alone
        // restores the scan invariant. Buckets may then transiently hold
        // more than one year's vslots, which the scan-time vslot check
        // in `pop_due` handles.
        if vslot < self.cur_vslot {
            self.cur_vslot = vslot;
        }
        self.buckets[(vslot & BUCKET_MASK) as usize].insert(entry);
        self.in_buckets += 1;
    }

    /// Migrates overflow events that now fall within one year of the scan
    /// position into the calendar.
    fn drain_overflow(&mut self) {
        let horizon = self.cur_vslot + BUCKET_COUNT as u64;
        while let Some(std::cmp::Reverse(top)) = self.overflow.peek() {
            if Self::vslot(top.time) >= horizon {
                return;
            }
            let std::cmp::Reverse(e) = self.overflow.pop().expect("peeked");
            self.buckets[(Self::vslot(e.time) & BUCKET_MASK) as usize].insert(e);
            self.in_buckets += 1;
        }
    }

    /// Pops the minimum `(time, seq)` event if its time is at or before
    /// `deadline`; returns `None` (leaving it queued) otherwise. Advances
    /// the scan position and migrates newly-near overflow events as a
    /// side effect. O(1) when the minimum's slot is already under the
    /// scan: sorted buckets put it at the head.
    #[inline]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<(Time, T)> {
        if self.in_buckets == 0 {
            // Calendar empty: jump the scan straight to the earliest
            // far-future event instead of sweeping empty years.
            let std::cmp::Reverse(top) = self.overflow.peek()?;
            self.cur_vslot = Self::vslot(top.time);
        }
        self.drain_overflow();
        debug_assert!(self.in_buckets > 0);
        let mut scanned = 0usize;
        loop {
            let cur = self.cur_vslot;
            // The bucket head is the bucket minimum; it belongs to the
            // scan slot unless every entry here is from a later year
            // (later years have strictly larger keys, so they can never
            // shadow a current-year entry).
            let bucket = &mut self.buckets[(cur & BUCKET_MASK) as usize];
            if let Some(head) = bucket.peek() {
                if Self::vslot(head.time) == cur {
                    if head.time > deadline {
                        return None; // stays queued
                    }
                    let e = bucket.pop_head();
                    self.in_buckets -= 1;
                    return Some((e.time, self.slab.take(e.slot)));
                }
            }
            self.advance_slot(&mut scanned);
        }
    }

    /// Advances the scan one slot, migrating newly-near overflow events
    /// and taking the sparse-queue jump when a whole year scanned empty.
    fn advance_slot(&mut self, scanned: &mut usize) {
        self.cur_vslot += 1;
        self.drain_overflow();
        *scanned += 1;
        if *scanned > BUCKET_COUNT {
            // Sparse queue: a whole year of empty slots. Jump to the
            // earliest event — bucketed *or* still parked in the
            // overflow heap (jumping past the overflow minimum would
            // pop a later bucketed event first and run time backwards).
            // Bucket heads are bucket minima, so heads suffice.
            let min_bucketed = self
                .buckets
                .iter()
                .filter_map(Bucket::peek)
                .map(|e| Self::vslot(e.time))
                .min()
                .expect("in_buckets > 0");
            let min_overflow = self.overflow.peek().map(|std::cmp::Reverse(e)| Self::vslot(e.time));
            self.cur_vslot = min_overflow.map_or(min_bucketed, |o| min_bucketed.min(o));
            self.drain_overflow();
            *scanned = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;

    /// Same-timestamp bursts and the plain scan must both pop in exact
    /// `(time, seq)` order, including pushes interleaved with pops into
    /// the slot being drained.
    #[test]
    fn pops_co_located_bursts_in_seq_order() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let t = Time::ZERO + Dur::micros(1); // all in one bucket
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
            // Interleave same-slot pushes while the burst drains.
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

    /// A push behind the scan position must rewind the scan; with sorted
    /// buckets there is no side state to repair, but the rewound region
    /// must still pop before anything the scan was parked on.
    #[test]
    fn rewind_pops_near_events_first() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let far = Time::ZERO + Dur::millis(30);
        for seq in 1..=40u64 {
            q.push(far, seq, seq);
        }
        // Park the scan on the far slot without popping.
        assert!(q.pop_due(Time::ZERO).is_none());
        // Rewind with a near burst plus one timer between the two.
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

    /// Virtual-time width of one calendar "year".
    const YEAR: Dur = Dur::nanos((BUCKET_COUNT as u64) << BUCKET_SHIFT);

    /// Co-located events over the old hot-bucket threshold, to keep the
    /// proptest exercising dense same-timestamp bursts.
    const BURST: usize = 36;

    proptest::proptest! {
        /// Model-based check of the calendar queue against a
        /// `BinaryHeap` reference under arbitrary interleavings of
        /// near-future pushes, same-timestamp bursts, far-overflow
        /// timers (multiple calendar years out), deadline-limited pops,
        /// and scan parks followed by behind-the-scan pushes (rewind).
        /// Both structures must agree on the exact `(time, seq)` pop
        /// order.
        #[test]
        fn event_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u8..6u8, proptest::any::<u32>()), 0..120)
        ) {
            let mut q: EventQueue<u64> = EventQueue::default();
            let mut model: BinaryHeap<std::cmp::Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            // Lower bound for new pushes: the engine never schedules
            // below `now`, but a parked scan may sit far above it.
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
                    // Near-future push (within the scan's first years).
                    0 => push(&mut q, &mut model, &mut seq, cursor + jitter),
                    // Same-timestamp burst.
                    1 => {
                        let t = cursor + Dur::nanos((arg % 100_000) as u64);
                        for _ in 0..BURST {
                            push(&mut q, &mut model, &mut seq, t);
                        }
                    }
                    // Far-overflow push, one to three calendar years out.
                    2 => {
                        let years = 1 + (arg % 3) as u64;
                        push(&mut q, &mut model, &mut seq, cursor + YEAR * years + jitter);
                    }
                    // Park the scan on the earliest event's slot without
                    // popping it (deadline below every queued event),
                    // then push behind the parked position: the rewind
                    // path.
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
            prop_assert_eq!(q.in_buckets, 0);
            prop_assert!(q.overflow.is_empty());
        }
    }
}
