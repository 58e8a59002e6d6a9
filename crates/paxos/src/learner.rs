//! The learner role: collects decisions and releases them in instance
//! order, tracking gaps left by message loss.

use std::collections::BTreeMap;

use crate::msg::InstanceId;

/// A Paxos learner. Decisions may arrive out of order (UDP loss and
/// retransmission); `Learner` buffers them and hands the application a
/// strictly in-order stream.
#[derive(Clone, Debug, Default)]
pub struct Learner<V> {
    pending: BTreeMap<InstanceId, V>,
    next: InstanceId,
}

impl<V> Learner<V> {
    /// Creates a learner expecting instance 0 first.
    pub fn new() -> Learner<V> {
        Learner { pending: BTreeMap::new(), next: InstanceId(0) }
    }

    /// Records the decision of `instance`. Duplicates are ignored.
    pub fn on_decision(&mut self, instance: InstanceId, value: V) {
        if instance >= self.next {
            self.pending.entry(instance).or_insert(value);
        }
    }

    /// Whether the decision for `instance` is known (delivered or buffered).
    pub fn knows(&self, instance: InstanceId) -> bool {
        instance < self.next || self.pending.contains_key(&instance)
    }

    /// Pops the next in-order decision, if its instance has been decided.
    pub fn deliver_next(&mut self) -> Option<(InstanceId, V)> {
        let v = self.pending.remove(&self.next)?;
        let i = self.next;
        self.next = self.next.next();
        Some((i, v))
    }

    /// Resumes at a checkpoint's `watermark`: it is the instance expected
    /// next, and what is buffered below it is dropped.
    pub fn resume_at(&mut self, watermark: InstanceId) {
        self.next = watermark;
        self.pending = self.pending.split_off(&watermark);
    }

    /// The instance the learner is waiting for next.
    pub fn next_instance(&self) -> InstanceId {
        self.next
    }

    /// Number of buffered (undeliverable) decisions.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_instance_order() {
        let mut l = Learner::new();
        l.on_decision(InstanceId(1), "b");
        assert!(l.deliver_next().is_none(), "gap at 0 blocks");
        l.on_decision(InstanceId(0), "a");
        assert_eq!(l.deliver_next(), Some((InstanceId(0), "a")));
        assert_eq!(l.deliver_next(), Some((InstanceId(1), "b")));
        assert_eq!(l.deliver_next(), None);
    }

    #[test]
    fn duplicates_and_stale_ignored() {
        let mut l = Learner::new();
        l.on_decision(InstanceId(0), 1);
        l.on_decision(InstanceId(0), 2);
        assert_eq!(l.deliver_next(), Some((InstanceId(0), 1)));
        // Stale re-delivery after consumption is dropped.
        l.on_decision(InstanceId(0), 3);
        assert_eq!(l.deliver_next(), None);
        assert_eq!(l.next_instance(), InstanceId(1));
    }

    #[test]
    fn knows_tracks_delivered_and_buffered() {
        let mut l: Learner<u8> = Learner::new();
        l.on_decision(InstanceId(0), 0);
        l.on_decision(InstanceId(2), 2);
        assert!(l.knows(InstanceId(0)));
        assert!(!l.knows(InstanceId(1)));
        assert!(l.knows(InstanceId(2)));
        assert_eq!(l.deliver_next(), Some((InstanceId(0), 0)));
        assert!(l.knows(InstanceId(0)), "delivered instances stay known");
    }

    #[test]
    fn resuming_at_a_watermark_drops_what_is_buffered_below_it() {
        let mut l: Learner<u8> = Learner::new();
        for i in [1, 4, 5, 7] {
            l.on_decision(InstanceId(i), i as u8);
        }
        l.resume_at(InstanceId(5));
        assert_eq!(l.next_instance(), InstanceId(5));
        assert_eq!(l.deliver_next(), Some((InstanceId(5), 5)));
        assert_eq!(l.deliver_next(), None);
        assert_eq!(l.buffered(), 1, "instance 7 waits for 6");
        l.on_decision(InstanceId(4), 4);
        assert_eq!(l.buffered(), 1, "below the watermark: delivered, as far as this learner knows");
    }

    #[test]
    fn buffered_counts_pending() {
        let mut l: Learner<u8> = Learner::new();
        l.on_decision(InstanceId(3), 3);
        l.on_decision(InstanceId(4), 4);
        assert_eq!(l.buffered(), 2);
    }
}
