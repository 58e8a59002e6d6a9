//! The M-Ring learner: what it buffers, when it releases and what it
//! asks for. [`MLearner`] decides; its two drivers — `MRingProcess` for
//! one ring, `multiring::MultiRingLearner` with one per subscribed ring —
//! send, charge and arm timers. What stays with them, the drivers
//! differing:
//!
//! * **application back-pressure** — whether the front may be taken now
//!   is the application's call (`MRingProcess` books core 1 and waits
//!   while it is backlogged), so [`MLearner::front_ready`] looks and
//!   [`MLearner::release`] takes;
//! * **where repairs are sent** — the preferential acceptor follows the
//!   ring's current layout and the learner's index in it, which only
//!   the driver's configuration knows; the lists here name instances;
//! * **the merge** — a Multi-Ring learner interleaves its rings' releases
//!   by skip weight; one ring alone ignores the weight.
//!
//! # What is released
//!
//! Instances leave in instance order, each once. An instance of another
//! partition is passed over without a payload (§4.2.2). Any other
//! leaves when it holds a payload *and* a decision of the same round —
//! the paper's value-id check: a deposed coordinator's payload never
//! stands in for the value a later round decided. A decision is
//! announced ([`MLearner::decide`]), vouched for by a repair
//! ([`MLearner::authoritative`]) or passed by a vote floor
//! ([`MLearner::decide_held`], for a held payload of the floor's round
//! only). A value decided in two instances (a proposer's resend, a
//! takeover's re-proposal) is released with the first.
//!
//! A learner of some partitions hears only their instances: the 2As
//! and decisions of the others never reach it. What tells it which
//! instances are not its own is the *link* each of its 2As (and each
//! repair of one) carries: the first instance after the previous one
//! the same coordinator proposed for this learner's partitions — the
//! coordinator's first instance, before it proposed any. Once instance
//! `j` is decided at the round its payload and link came with, every
//! instance in `[link, j)` that holds nothing at that round or later is
//! another partition's, passed over with no decision: a deposed
//! coordinator's payload there is no obstacle, and a stale 2A's link,
//! never decided at its round, classifies nothing. Where nothing is
//! buffered and the link reaches the delivery point, the gap costs no
//! slots: the window starts at `j`, and delivery jumps the gap when `j`
//! leaves — a partition idle for a million instances resumes on one
//! 2A. A learner of every partition (classic broadcast) gets no links.
//! An instance whose decision names a mask that misses this learner's
//! (a repair's answer, a catch-up chunk) is passed over too.
//!
//! # What is asked for
//!
//! An instance known decided (a decision list named it, or the
//! coordinator's `decided_below` watermark passed it) that cannot be
//! released and is not another partition's lost its payload or its
//! decision. [`MLearner::incomplete`] lists it once, the moment that
//! fact arrives, at most [`REPAIR_BATCH`] instances past the delivery
//! point, and says which of the two is lacking. The signal is "decided
//! for my mask and incomplete", never "a higher instance id was seen" —
//! a partition's slice of the instance sequence is sparse by design. A
//! partition's learner knows an instance is its own only once it holds
//! a payload or decision there, and another partition's once a link
//! reaches over it. Its scan under the watermark stops at the first
//! instance that is neither, and neither repair path asks for one a
//! link reaches over (the linking instance is asked for instead, while
//! it cannot be released); a lost 2A is asked for when its decision
//! names it, and its repair's link classifies the instances before it.
//! Datagrams between one sender and one receiver arrive in send order
//! on a loss-free run, so nothing is listed there. Backstop:
//! [`MLearner::sweep`], on the driver's tick, which finds what order
//! cannot show (a lost repair, a hole with nothing decided after it).

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use paxos::msg::{InstanceId, Round};
use simnet::time::Dur;

use crate::dedup::DeliveredTracker;
use crate::value::{Batch, BatchData, Value, ALL_PARTITIONS};

/// Instances one repair request or re-2A sweep covers at most, and how
/// far past its delivery point a learner's fast repair reaches (the
/// repairs in flight to one learner then fit the switch port buffer).
pub const REPAIR_BATCH: usize = 64;

/// Period of the driver's tick for [`MLearner::sweep`], which asks only
/// for what was visible a full tick ago.
pub const SWEEP_TICK: Dur = Dur::millis(20);

/// Per-instance state: the buffered payload (with the round of the 2A
/// that carried it — highest round wins, so stale coordinators cannot
/// poison delivery; the batch carries its own mask and skip weight),
/// the announced decision round, and whether the instance belongs to a
/// foreign partition. Its size sets the window's memory: the payload's
/// link lives in `MLearner::links`, which a learner of every partition
/// never fills.
#[derive(Default)]
struct Slot {
    payload: Option<(Round, Batch)>,
    decided: Option<Round>,
    foreign: bool,
    /// The fast repair for this instance was spent (one per instance;
    /// the sweep is the retry).
    asked: bool,
}

impl Slot {
    /// Releasable: payload present and of the deciding round.
    fn ready(&self) -> bool {
        matches!((&self.decided, &self.payload), (Some(dr), Some((pr, ..))) if dr == pr)
    }

    /// Whether a repair of this slot must bring the payload: none is
    /// held, or the one held is not of the deciding round. Otherwise
    /// only the decision is missing.
    fn needs_payload(&self) -> bool {
        match (&self.payload, &self.decided) {
            (None, _) => true,
            (Some((pr, ..)), Some(dr)) => pr != dr,
            (Some(_), None) => false,
        }
    }

    fn seen(&self) -> bool {
        self.payload.is_some() || self.decided.is_some()
    }

    /// Holds a payload or a decision at `round` or a later one.
    fn holds_at(&self, round: Round) -> bool {
        self.payload.as_ref().is_some_and(|(r, ..)| *r >= round)
            || self.decided.is_some_and(|r| r >= round)
    }
}

/// One instance leaving the learner, in instance order.
#[derive(Debug)]
pub struct Released {
    /// The batch's skip weight (Multi-Ring Paxos): 0 for a batch of
    /// values.
    pub skip: u64,
    /// The batch's values not delivered before, in batch order, with
    /// their commands: the released batch itself when none was.
    pub fresh: Batch,
    /// Its values an earlier instance already delivered.
    pub duplicate: Vec<Value>,
    /// Dedup-window evictions this release forced: each may turn a late
    /// first copy into a "duplicate", so drivers count them.
    pub evicted: u64,
}

/// The learner of one M-Ring (module docs). Instances at or above the
/// delivery point live in a dense sliding window indexed by offset:
/// delivery always advances the base, so the per-packet bookkeeping is
/// array indexing.
pub struct MLearner {
    my_mask: u32,
    /// Slots for `base..`.
    window: VecDeque<Slot>,
    /// The link each buffered payload came with (module docs, "What is
    /// released"), at the payload's round, by instance.
    links: BTreeMap<InstanceId, InstanceId>,
    /// The instance of `window[0]`: the delivery point, or past it when
    /// `window[0]`'s link passes the gap between the two once it is
    /// decided (module docs, "What is released").
    base: InstanceId,
    next_deliver: InstanceId,
    /// Exactly-once filter over released values, bounded by per-proposer
    /// watermarks instead of an ever-growing id set.
    delivered: DeliveredTracker,
    /// The delivery point last handed to [`MLearner::unreported`].
    applied_reported: InstanceId,
    /// Horizon at the previous sweep: only instances already visible a
    /// full tick ago are asked for, so instances normally in flight are
    /// not mistaken for losses.
    prev_horizon: InstanceId,
    /// Highest `decided_below` watermark seen: every instance under it
    /// is decided.
    decided_below: InstanceId,
    /// Every instance under this was releasable, foreign or asked for
    /// when the fast repair last looked (its scan cursor).
    checked_below: InstanceId,
    /// Every instance under this is known this learner's, or another
    /// partition's or covered by a link (module docs, "What is asked
    /// for"): the scan's bound. Unbounded for a learner of every
    /// partition.
    classified_below: InstanceId,
    /// Instances a decision list named for this learner's mask while
    /// their payload was missing, not yet asked for.
    want: Vec<InstanceId>,
}

impl MLearner {
    /// A learner of the partitions in `my_mask`, expecting instance 0.
    pub fn new(my_mask: u32) -> MLearner {
        MLearner {
            my_mask,
            window: VecDeque::new(),
            links: BTreeMap::new(),
            base: InstanceId(0),
            next_deliver: InstanceId(0),
            delivered: DeliveredTracker::new(),
            applied_reported: InstanceId(0),
            prev_horizon: InstanceId(0),
            decided_below: InstanceId(0),
            checked_below: InstanceId(0),
            classified_below: InstanceId(if my_mask == ALL_PARTITIONS { u64::MAX } else { 0 }),
            want: Vec::new(),
        }
    }

    /// The delivery point: every instance below it was released here,
    /// or passed over as another partition's.
    pub fn next_deliver(&self) -> InstanceId {
        self.next_deliver
    }

    /// Mutable slot for `instance`, growing the window as needed.
    /// `None` when the instance is below the delivery point. An
    /// instance in the gap `window[0]`'s link will pass gets the gap's
    /// slots back (a takeover or a stale 2A: rare).
    #[inline]
    fn slot_mut(&mut self, instance: InstanceId) -> Option<&mut Slot> {
        if instance < self.next_deliver {
            return None;
        }
        if instance < self.base {
            let gap = (self.base.0 - self.next_deliver.0) as usize;
            (0..gap).for_each(|_| self.window.push_front(Slot::default()));
            self.base = self.next_deliver;
        }
        let idx = (instance.0 - self.base.0) as usize;
        // Flow control bounds how far instances run ahead of delivery; a
        // far-ahead id would turn one packet into a huge resize.
        debug_assert!(
            idx < self.window.len() + (1 << 24),
            "learner window jump: instance {instance:?} vs window base {:?}",
            self.base
        );
        if idx >= self.window.len() {
            self.window.resize_with(idx + 1, Slot::default);
        }
        Some(&mut self.window[idx])
    }

    /// Buffers the payload a 2A (or its repair) carried, with the link
    /// it carried for this learner (module docs, "What is released"),
    /// unless the batch's mask is other partitions'. Returns whether
    /// this instance had been asked for.
    pub fn store(
        &mut self,
        instance: InstanceId,
        batch: &Batch,
        round: Round,
        link: Option<InstanceId>,
    ) -> bool {
        if batch.mask() & self.my_mask == 0 {
            return false;
        }
        if self.window.is_empty() && link.is_some_and(|l| l <= self.next_deliver) {
            // Nothing buffered, and the gap up to `instance` is the
            // link's: no slots for it.
            self.base = self.base.max(instance);
        }
        let Some(slot) = self.slot_mut(instance) else { return false };
        let asked = slot.asked;
        if slot.payload.as_ref().is_none_or(|(r, _)| *r < round) {
            slot.payload = Some((round, batch.clone()));
            self.set_link(instance, link);
            self.classify(instance);
        }
        asked
    }

    /// Records announced decisions, each with its batch's mask. Returns
    /// how many of them had been asked for.
    pub fn decide(&mut self, instances: &[(InstanceId, u32)], round: Round) -> u64 {
        let my_mask = self.my_mask;
        let mut asked = 0;
        for &(i, mask) in instances {
            let Some(slot) = self.slot_mut(i) else { continue };
            asked += (slot.asked && slot.decided.is_none() && !slot.foreign) as u64;
            if mask & my_mask == 0 {
                // Another partition's instance: to be passed over.
                slot.foreign = true;
            } else {
                slot.decided = Some(slot.decided.map_or(round, |e| e.max(round)));
                if slot.payload.is_none() {
                    // Decided for this learner's mask, and a 2A precedes
                    // its decision: the payload is lost.
                    self.want.push(i);
                }
                self.classify(i);
            }
        }
        asked
    }

    /// An acceptor's stored vote it vouches decided, with the link it
    /// recorded for this learner: pins both payload and decision to the
    /// vote's round (a decision alone when the batch is for other
    /// partitions).
    pub fn authoritative(
        &mut self,
        instance: InstanceId,
        batch: &Batch,
        round: Round,
        link: Option<InstanceId>,
    ) {
        let mask = batch.mask();
        if mask & self.my_mask == 0 {
            self.decide(&[(instance, mask)], round);
        } else if let Some(slot) = self.slot_mut(instance) {
            slot.payload = Some((round, batch.clone()));
            slot.decided = Some(round);
            self.set_link(instance, link);
            self.classify(instance);
        }
    }

    /// Records the link the payload just stored at `instance` came with.
    fn set_link(&mut self, instance: InstanceId, link: Option<InstanceId>) {
        match link {
            Some(link) => self.links.insert(instance, link),
            None => self.links.remove(&instance),
        };
    }

    /// The slot of `instance`, if the window holds one.
    fn slot(&self, instance: InstanceId) -> Option<&Slot> {
        let off = instance.0.checked_sub(self.base.0)?;
        self.window.get(off as usize)
    }

    /// Whether `instance` (in the window) is covered: the link of the
    /// next later payload that came with one reaches over it, and it
    /// holds nothing at that payload's round or later — another
    /// partition's once that instance is decided. Neither repair path
    /// asks for it (the covering instance is asked for while it cannot
    /// be released).
    fn covered(&self, instance: InstanceId) -> bool {
        let Some((&by, &link)) = self.links.range(instance.next()..).next() else { return false };
        let round = self.slot(by).and_then(|s| s.payload.as_ref()).map(|(r, ..)| *r);
        let slot = self.slot(instance).expect("in the window");
        link <= instance && round.is_some_and(|r| !slot.holds_at(r))
    }

    /// Once `instance` (in the window) is releasable, its link at that
    /// round classifies the slots between: each holding nothing at the
    /// round or later is another partition's. The gap before the
    /// window, if `instance` is its first slot, passes in `front_ready`;
    /// a later slot's link reaching into the gap gets it its slots back.
    fn classify(&mut self, instance: InstanceId) {
        let Some(slot) = self.slot(instance) else { return };
        let (Some(&link), true) = (self.links.get(&instance), slot.ready()) else { return };
        let round = slot.decided.expect("ready");
        if instance > self.base && link < self.base && self.base > self.next_deliver {
            self.slot_mut(self.next_deliver);
        }
        let at = |i: InstanceId| (i.0 - self.base.0) as usize;
        let range = at(link.max(self.base))..at(instance);
        self.window.range_mut(range).for_each(|s| s.foreign |= !s.holds_at(round));
    }

    /// Takes a sender's vote floor on its 2Bs (`mring` module docs, "Loss
    /// recovery"): a 2B at `round` left for every instance in `span`, so
    /// each is decided at `round`. Decides each slot there but `except`
    /// that holds a payload of `round` and no decision — its decision
    /// was lost — and returns how many.
    pub fn decide_held(&mut self, span: Range<u64>, except: InstanceId, round: Round) -> u64 {
        let from = span.start.max(self.base.0);
        let upto = span.end.min(self.base.0 + self.window.len() as u64);
        let mut lost = 0;
        for i in (from..upto).map(InstanceId).filter(|&i| i != except) {
            let slot = &mut self.window[(i.0 - self.base.0) as usize];
            if slot.decided.is_none() && slot.payload.as_ref().is_some_and(|(r, _)| *r == round) {
                slot.decided = Some(round);
                self.classify(i);
                lost += 1;
            }
        }
        lost
    }

    /// Takes the coordinator's `decided_below` watermark.
    pub fn watermark(&mut self, decided_below: InstanceId) {
        self.decided_below = self.decided_below.max(decided_below);
    }

    /// Passes over the foreign instances at the front (and the gap
    /// before the window once its first slot is releasable), then says
    /// whether the front instance can be released.
    pub fn front_ready(&mut self) -> bool {
        loop {
            let Some(front) = self.window.front() else { return false };
            let (ready, foreign) = (front.ready(), front.foreign);
            if self.base > self.next_deliver {
                let reaches = self.links.get(&self.base).is_some_and(|&l| l <= self.next_deliver);
                if ready && reaches {
                    self.next_deliver = self.base;
                } else if ready || foreign {
                    // Decided without a link that reaches back (a later
                    // round's payload), or not this partition's after
                    // all: the gap gets its slots back.
                    self.slot_mut(self.next_deliver);
                    continue;
                } else {
                    return false;
                }
            }
            if !foreign {
                return ready;
            }
            self.window.pop_front();
            self.links.remove(&self.base);
            self.base = self.base.next();
            self.next_deliver = self.base;
        }
    }

    /// Releases the front instance, sorting its values through the
    /// exactly-once filter.
    ///
    /// # Panics
    /// Panics unless [`MLearner::front_ready`] just returned true.
    pub fn release(&mut self) -> Released {
        let slot = self.window.pop_front().expect("front_ready checked");
        let (_, batch) = slot.payload.expect("front_ready checked");
        self.links.remove(&self.base);
        self.base = self.base.next();
        self.next_deliver = self.base;
        let evictions = self.delivered.evictions();
        // Neither vector allocates unless a value is a duplicate.
        let (mut duplicate, mut dropped) = (Vec::new(), Vec::new());
        for (i, v) in batch.iter().enumerate() {
            if !self.delivered.fresh(v.proposer, v.seq) {
                duplicate.push(*v);
                dropped.push(i);
            }
        }
        let fresh = BatchData::retain(&batch, |i| !dropped.contains(&i));
        let skip = batch.skip_weight();
        Released { skip, fresh, duplicate, evicted: self.delivered.evictions() - evictions }
    }

    /// The order-triggered repair list (module docs, "What is asked
    /// for"), each instance with whether its payload is needed or only
    /// its decision. Called after releasing all that can be, so on a
    /// loss-free run the scan range holds only releasable instances
    /// waiting for the application.
    pub fn incomplete(&mut self) -> Vec<(InstanceId, bool)> {
        let named = std::mem::take(&mut self.want);
        let from = self.checked_below.max(self.base);
        let reach = InstanceId(self.next_deliver.0 + REPAIR_BATCH as u64);
        let upto = self.decided_below.min(reach).min(self.classified());
        let mut missing = Vec::new();
        if named.is_empty() && from >= upto {
            return missing;
        }
        // A named instance beyond the reach is left for the scan, which
        // gets there as deliveries advance. A decision naming it for
        // this learner's mask outranks a link reaching over it.
        let named = named.into_iter().filter(|&i| i < reach).map(|i| (i, true));
        for (i, named) in named.chain((from.0..upto.0).map(|i| (InstanceId(i), false))) {
            if self.slot_mut(i).is_none() {
                continue;
            }
            let covered = !named && self.covered(i);
            let slot = &mut self.window[(i.0 - self.base.0) as usize];
            if !(slot.ready() || slot.foreign || covered || slot.asked) {
                slot.asked = true;
                missing.push((i, slot.needs_payload()));
            }
        }
        self.checked_below = self.checked_below.max(upto);
        missing
    }

    /// Moves `classified_below` over every slot now known this
    /// learner's or another partition's, and returns it. The gap before
    /// the window is the link's of the window's first slot, which holds
    /// a payload: the scan passes both.
    fn classified(&mut self) -> InstanceId {
        let mut c = self.classified_below.max(self.base);
        if c == InstanceId(u64::MAX) {
            return c;
        }
        let at = |c: InstanceId| (c.0 - self.base.0) as usize;
        while self.window.get(at(c)).is_some_and(|s| s.foreign || s.seen() || self.covered(c)) {
            c = c.next();
        }
        self.classified_below = c;
        c
    }

    /// Drops what decision lists named without asking for it: a bulk
    /// catch-up is fetching the backlog.
    pub fn forget_named(&mut self) {
        self.want.clear();
    }

    /// The tick sweep: whatever below the horizon cannot be released, up
    /// to [`REPAIR_BATCH`] instances, asked for or not. Only instances
    /// already visible at the previous sweep are fair game: anything
    /// newer is most likely still in flight. That includes the horizon
    /// instance itself — when nothing follows it (the end of a burst) no
    /// later sweep would ever cover it.
    pub fn sweep(&mut self) -> Vec<(InstanceId, bool)> {
        let horizon = self.horizon();
        let stale_horizon = self.prev_horizon.min(horizon);
        self.prev_horizon = horizon;
        // As a window offset; nothing to ask when delivery has passed it.
        let Some(stale) = stale_horizon.0.checked_sub(self.base.0) else {
            return Vec::new();
        };
        let at_horizon = self.window.get(stale as usize).is_some_and(Slot::seen);
        let at = |off: usize| InstanceId(self.base.0 + off as u64);
        let visible = self.window.iter().take(stale as usize + at_horizon as usize);
        visible
            .enumerate()
            .filter(|&(off, slot)| !slot.ready() && !slot.foreign && !self.covered(at(off)))
            .map(|(off, slot)| (at(off), slot.needs_payload()))
            .take(REPAIR_BATCH)
            .collect()
    }

    /// Highest instance holding a payload or decision, or the window's
    /// base when nothing is buffered.
    fn horizon(&self) -> InstanceId {
        let seen = self.window.iter().rposition(Slot::seen);
        InstanceId(self.base.0 + seen.unwrap_or(0) as u64)
    }

    /// Something is buffered above a front that cannot leave.
    pub fn stuck(&self) -> bool {
        self.horizon() > self.next_deliver
            && self.window.front().is_some_and(|s| !s.ready() && !s.foreign)
    }

    /// Consecutive releasable instances from the delivery point, counted
    /// up to `cap`: callers only need which side of a threshold they are
    /// on, and an overloaded learner may buffer hundreds of thousands
    /// (scanning them per event would be quadratic).
    pub fn buffered(&self, cap: u32) -> u32 {
        self.window.iter().take(cap as usize).take_while(|s| s.ready()).count() as u32
    }

    /// The delivery point, if it moved since this was last asked: the
    /// version to report for garbage collection (§3.3.7).
    pub fn unreported(&mut self) -> Option<InstanceId> {
        let applied = self.next_deliver;
        (applied > self.applied_reported).then(|| {
            self.applied_reported = applied;
            applied
        })
    }

    /// Whether the exactly-once filter has already passed `v`, so a copy
    /// released now would be a duplicate. Records nothing.
    pub fn has_delivered(&self, v: &Value) -> bool {
        self.delivered.passed(v.proposer, v.seq)
    }

    /// The exactly-once filter's state, for a checkpoint.
    pub fn export_delivered(&self) -> (Vec<u64>, Vec<(u64, u64)>) {
        self.delivered.export()
    }

    /// Resumes at a checkpoint at or past the delivery point: delivery
    /// jumps to `watermark`, what was buffered below it goes, and the
    /// exactly-once filter is the checkpoint's.
    pub fn restore(&mut self, watermark: InstanceId, marks: Vec<u64>, parked: Vec<(u64, u64)>) {
        debug_assert!(watermark >= self.next_deliver, "a checkpoint behind delivery");
        let jump = watermark.0.saturating_sub(self.base.0) as usize;
        self.window.drain(..jump.min(self.window.len()));
        self.links = self.links.split_off(&watermark);
        self.base = self.base.max(watermark);
        self.next_deliver = watermark;
        self.applied_reported = watermark;
        self.delivered = DeliveredTracker::restore(marks, parked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{BatchData, ALL_PARTITIONS};
    use abcast::MsgId;
    use simnet::ids::NodeId;
    use simnet::time::Time;

    const ALL: u32 = ALL_PARTITIONS;

    fn i(n: u64) -> InstanceId {
        InstanceId(n)
    }

    fn r(counter: u64) -> Round {
        Round::new(counter, 0)
    }

    /// A batch of proposer 0's values with these sequence numbers, for
    /// the partitions in `mask`.
    fn masked(seqs: &[u64], mask: u32) -> Batch {
        let value = |&seq| Value {
            id: MsgId(seq),
            proposer: NodeId(0),
            seq,
            bytes: 100,
            submitted: Time::ZERO,
            mask,
        };
        BatchData::new(seqs.iter().map(value).collect())
    }

    /// A batch of proposer 0's values for every partition.
    fn batch(seqs: &[u64]) -> Batch {
        masked(seqs, ALL)
    }

    /// A learner of every partition holding payload and decision of
    /// instances `0..n` (values `seq == instance`), nothing released.
    fn holding(n: u64) -> MLearner {
        let mut l = MLearner::new(ALL);
        for k in 0..n {
            l.store(i(k), &batch(&[k]), r(1), None);
            l.decide(&[(i(k), ALL)], r(1));
        }
        l
    }

    /// Releases all that can be: the sequence numbers, in order.
    fn drain(l: &mut MLearner) -> Vec<u64> {
        let mut out = Vec::new();
        while l.front_ready() {
            out.extend(l.release().fresh.iter().map(|v| v.seq));
        }
        out
    }

    #[test]
    fn a_named_instance_without_its_payload_is_asked_for_once_payload_included() {
        let mut l = holding(1);
        l.decide(&[(i(1), ALL)], r(1)); // its 2A never came
        assert_eq!(drain(&mut l), [0]);
        assert_eq!(l.incomplete(), [(i(1), true)]);
        assert!(l.incomplete().is_empty(), "the fast path asks once");
        l.decide(&[(i(1), ALL)], r(1));
        l.watermark(i(2));
        assert!(l.incomplete().is_empty(), "named again, under the watermark: still once");
        assert!(l.store(i(1), &batch(&[1]), r(1), None), "it had been asked for");
        assert_eq!(drain(&mut l), [1]);
    }

    #[test]
    fn a_payload_under_the_watermark_is_asked_for_its_decision_alone() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &batch(&[0]), r(1), None);
        assert!(l.incomplete().is_empty(), "nothing says instance 0 is decided");
        l.watermark(i(1));
        assert_eq!(l.incomplete(), [(i(0), false)]);
        assert_eq!(l.decide(&[(i(0), ALL)], r(1)), 1, "the answer counts as asked for");
        assert_eq!(drain(&mut l), [0]);
    }

    #[test]
    fn a_vote_floor_decides_only_held_payloads_of_its_round() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &batch(&[0]), r(1), None); // its decision was lost
        l.store(i(1), &batch(&[1]), r(2), None); // a later round's payload
        l.store(i(3), &batch(&[3]), r(1), None); // the 2B carrying the floor
                                                 // Instance 2 holds nothing: another partition's, or its 2A lost.
        assert_eq!(l.decide_held(0..4, i(3), r(1)), 1);
        assert_eq!(drain(&mut l), [0]);
        assert_eq!(l.decide_held(0..4, i(3), r(1)), 0, "each once");
        assert!(!l.front_ready(), "the floor is round 1's, the payload round 2's");
    }

    #[test]
    fn the_fast_path_reaches_a_repair_batch_past_delivery_and_no_further() {
        let mut l = MLearner::new(ALL);
        let far = REPAIR_BATCH as u64 + 10;
        l.watermark(i(far));
        l.decide(&[(i(far - 1), ALL)], r(1));
        let asked = l.incomplete();
        assert_eq!(asked.len(), REPAIR_BATCH);
        assert_eq!(asked.last(), Some(&(i(REPAIR_BATCH as u64 - 1), true)));
        // Delivery advances: the scan resumes where it stopped.
        l.authoritative(i(0), &batch(&[0]), r(1), None);
        assert_eq!(drain(&mut l), [0]);
        assert_eq!(l.incomplete(), [(i(REPAIR_BATCH as u64), true)]);
    }

    #[test]
    fn a_bulk_catch_up_forgets_what_was_named() {
        let mut l = MLearner::new(ALL);
        l.decide(&[(i(0), ALL)], r(1));
        l.forget_named();
        assert!(l.incomplete().is_empty());
    }

    #[test]
    fn the_sweep_asks_only_for_what_was_visible_a_full_tick_ago() {
        let mut l = holding(1);
        l.store(i(2), &batch(&[2]), r(1), None); // 1 is a hole
        assert!(!l.stuck(), "instance 0 can leave");
        assert_eq!(drain(&mut l), [0]);
        assert!(l.stuck(), "instance 2 waits behind the hole");
        assert!(l.sweep().is_empty(), "instance 2 showed up within this tick");
        l.store(i(4), &batch(&[4]), r(1), None);
        // Instance 3 is a hole too, but no older than instance 4.
        assert_eq!(l.sweep(), [(i(1), true), (i(2), false)]);
        assert_eq!(l.sweep(), [(i(1), true), (i(2), false), (i(3), true), (i(4), false)]);
    }

    #[test]
    fn the_sweep_asks_for_the_horizon_instance_when_nothing_follows_it() {
        // The end of a burst: the last 2A arrived, its decision did not,
        // and no later instance will ever make it "older than the horizon".
        let mut l = holding(1);
        l.store(i(1), &batch(&[1]), r(1), None);
        assert_eq!(drain(&mut l), [0]);
        assert!(l.sweep().is_empty(), "within its first tick");
        assert_eq!(l.sweep(), [(i(1), false)]);
        assert_eq!(l.sweep(), [(i(1), false)], "the sweep is the retry");
    }

    #[test]
    fn a_deposed_rounds_payload_is_never_released_against_a_later_decision() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &batch(&[7]), r(1), None);
        l.decide(&[(i(0), ALL)], r(2));
        assert!(!l.front_ready(), "the payload is round 1's, the decision round 2's");
        l.watermark(i(1));
        assert_eq!(l.incomplete(), [(i(0), true)], "the held payload does not count");
        l.store(i(0), &batch(&[8]), r(1), None);
        assert!(!l.front_ready());
        l.store(i(0), &batch(&[9]), r(2), None);
        l.store(i(0), &batch(&[7]), r(1), None); // a stale copy arrives late
        assert_eq!(drain(&mut l), [9]);
    }

    #[test]
    fn an_authoritative_repair_pins_payload_and_decision_to_one_round() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &batch(&[7]), r(3), None);
        l.decide(&[(i(0), ALL)], r(1));
        assert!(!l.front_ready());
        l.authoritative(i(0), &batch(&[9]), r(2), None);
        assert_eq!(drain(&mut l), [9]);
    }

    #[test]
    fn a_foreign_instance_advances_the_front_without_a_payload() {
        let mut l = MLearner::new(0b01);
        assert!(!l.store(i(0), &masked(&[0], 0b10), r(1), None), "not for this partition");
        l.decide(&[(i(0), 0b10), (i(2), 0b10)], r(1));
        l.authoritative(i(1), &masked(&[1], 0b10), r(1), None); // foreign: a decision alone
        l.store(i(3), &masked(&[3], 0b11), r(1), None);
        l.decide(&[(i(3), 0b11)], r(1));
        l.watermark(i(4));
        assert_eq!(drain(&mut l), [3]);
        assert_eq!(l.next_deliver(), i(4));
        assert!(l.incomplete().is_empty() && l.sweep().is_empty() && l.sweep().is_empty());
    }

    #[test]
    fn a_skip_entry_is_released_with_its_weight() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &BatchData::skip(17), r(1), None);
        l.store(i(1), &batch(&[0]), r(1), None);
        l.decide(&[(i(0), ALL), (i(1), ALL)], r(1));
        assert!(l.front_ready());
        let skip = l.release();
        assert!(skip.skip == 17 && skip.fresh.is_empty());
        assert!(l.front_ready());
        assert_eq!(l.release().skip, 0);
        // A repair carries the weight in the batch, as the 2A did.
        l.authoritative(i(2), &BatchData::skip(5), r(1), None);
        assert!(l.front_ready());
        assert_eq!(l.release().skip, 5);
    }

    #[test]
    fn a_value_decided_in_two_instances_is_released_once() {
        let mut l = MLearner::new(ALL);
        l.store(i(0), &batch(&[0, 1]), r(1), None);
        l.store(i(1), &batch(&[1, 2]), r(1), None); // 1 was resent and ordered again
        l.decide(&[(i(0), ALL), (i(1), ALL)], r(1));
        assert!(l.front_ready());
        assert!(l.release().duplicate.is_empty());
        assert!(l.front_ready());
        let second = l.release();
        assert_eq!(second.fresh.iter().map(|v| v.seq).collect::<Vec<_>>(), [2]);
        assert_eq!(second.duplicate.iter().map(|v| v.seq).collect::<Vec<_>>(), [1]);
        assert_eq!(second.evicted, 0);
    }

    #[test]
    fn a_checkpoint_moves_delivery_and_the_filter_and_drops_what_is_below() {
        let mut l = holding(3);
        l.store(i(5), &batch(&[5]), r(1), None);
        l.decide(&[(i(5), ALL)], r(1));
        assert_eq!(l.buffered(2), 2, "counted to the cap");
        assert_eq!(l.buffered(16), 3, "instance 3 is a hole");
        l.restore(i(5), vec![5], vec![]);
        assert_eq!(l.unreported(), None, "the checkpoint's watermark is no news");
        assert_eq!(drain(&mut l), [5]);
        assert_eq!(l.unreported(), Some(i(6)));
        assert_eq!(l.unreported(), None);
        assert_eq!(l.export_delivered(), (vec![6], vec![]));
        // Older than the checkpoint: instance and value alike.
        l.authoritative(i(2), &batch(&[2]), r(1), None);
        l.authoritative(i(6), &batch(&[4]), r(1), None);
        assert!(drain(&mut l).is_empty() && l.next_deliver() == i(7));
    }

    #[test]
    fn an_idle_partition_passes_a_gap_of_any_length_without_slots() {
        let mut l = MLearner::new(0b01);
        l.store(i(0), &masked(&[0], 0b01), r(1), Some(i(0)));
        l.decide(&[(i(0), 0b01)], r(1));
        assert_eq!(drain(&mut l), [0]);
        // The other partition orders a million instances; this learner
        // hears nothing until its next 2A, whose link reaches back.
        let j = 1 << 20;
        l.store(i(j), &masked(&[1], 0b01), r(1), Some(i(1)));
        assert_eq!(l.window.len(), 1, "the gap takes no slots");
        l.watermark(i(j));
        assert!(l.incomplete().is_empty());
        assert_eq!(l.next_deliver(), i(1), "not passed before its instance is decided");
        l.decide(&[(i(j), 0b01)], r(1));
        assert_eq!(drain(&mut l), [1]);
        assert_eq!(l.next_deliver(), i(j + 1));
    }

    #[test]
    fn a_link_passes_over_only_once_its_instance_is_decided_at_its_round() {
        let mut l = MLearner::new(0b01);
        // A deposed coordinator's 2A, never decided: its link passes
        // nothing over.
        l.store(i(5), &masked(&[5], 0b01), r(1), Some(i(0)));
        // The new round gives instance 2 to this partition.
        l.store(i(2), &masked(&[2], 0b01), r(2), Some(i(0)));
        l.decide(&[(i(2), 0b01)], r(2));
        assert_eq!(drain(&mut l), [2], "0 and 1 passed over with no decision");
        assert_eq!(l.next_deliver(), i(3));
        assert!(!l.front_ready(), "3 and 4 are nobody's yet");
    }

    #[test]
    fn a_link_classifies_every_slot_holding_nothing_at_its_round_or_later() {
        let mut l = MLearner::new(0b01);
        // Round 1 proposed 0 and 1 here and crashed; the new round gives
        // 1 to another partition (it never reached the acceptors).
        l.store(i(0), &masked(&[0], 0b01), r(1), Some(i(0)));
        l.decide(&[(i(0), 0b01)], r(1));
        l.store(i(1), &masked(&[7], 0b01), r(1), Some(i(1)));
        // Round 2 proposes 3 here, linked past 1 and 2.
        l.store(i(3), &masked(&[3], 0b01), r(2), Some(i(1)));
        l.decide(&[(i(3), 0b01)], r(2));
        assert_eq!(drain(&mut l), [0, 3], "the deposed payload at 1 is passed over");
        // A slot holding something at the link's round stays.
        let mut l = MLearner::new(0b01);
        l.store(i(1), &masked(&[1], 0b01), r(2), Some(i(0)));
        l.store(i(2), &masked(&[2], 0b01), r(2), Some(i(0)));
        l.decide(&[(i(2), 0b01)], r(2));
        assert!(!l.front_ready(), "0 passes; 1 holds round 2's payload and waits");
        assert_eq!(l.next_deliver(), i(1));
    }

    #[test]
    fn the_scan_asks_only_for_what_links_have_classified() {
        let mut l = MLearner::new(0b01);
        l.store(i(0), &masked(&[0], 0b01), r(1), Some(i(0)));
        l.decide(&[(i(0), 0b01)], r(1));
        assert_eq!(drain(&mut l), [0]);
        // This partition's 2A of 3 is lost; that of 5 arrives, linked
        // past 4, and the watermark passes both.
        l.store(i(5), &masked(&[5], 0b01), r(1), Some(i(4)));
        l.watermark(i(6));
        assert!(l.incomplete().is_empty(), "1 to 3 are nobody's yet, 4 is covered");
        // The decision of 3 names it: its payload is asked for, alone.
        l.decide(&[(i(3), 0b01)], r(1));
        assert_eq!(l.incomplete(), [(i(3), true)]);
        // The repair brings its link, which passes 1 and 2 over.
        l.authoritative(i(3), &masked(&[3], 0b01), r(1), Some(i(1)));
        l.decide(&[(i(5), 0b01)], r(1));
        assert_eq!(drain(&mut l), [3, 5]);
        assert!(l.incomplete().is_empty() && l.sweep().is_empty() && l.sweep().is_empty());
    }
}
